//! The 26-entry named benchmark suite (the paper's Table 2 analogue).
//!
//! Names follow the SPEC CPU2000 programs the paper used; each entry's
//! parameters are chosen so that the *suite-level* behaviour matches the
//! qualitative profile the paper reports: integer codes are branchy with
//! modest neutral density; FP codes are loop-regular with many no-ops and
//! prefetches and larger working sets; `mcf` is memory-bound; `ammp` queues
//! instructions behind a few critical misses (the paper's squash outlier).

use crate::spec::{BlockMix, Category, WorkloadSpec};

fn spec(
    name: &str,
    category: Category,
    seed: u64,
    ws_kb: u64,
    stride: u64,
    far_gate_mask: u32,
    mix: BlockMix,
) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_owned(),
        category,
        seed,
        target_dynamic: 240_000,
        mix,
        working_set_bytes: ws_kb * 1024,
        stride_bytes: stride,
        far_gate_mask,
    }
}

fn int_mix(branchy: u8, neutral: u8, load_far: u8) -> BlockMix {
    BlockMix {
        arith: 4,
        load_live: 2,
        load_far,
        load_deep: 1,
        load_dead: 0,
        store_live: 1,
        store_dead: 2,
        dead_chain: 2,
        dead_slow: 1,
        neutral,
        predicated: 1,
        branchy,
        call: 3,
    }
}

fn fp_mix(neutral: u8, load_far: u8) -> BlockMix {
    BlockMix {
        arith: 5,
        load_live: 2,
        load_far,
        load_deep: 1,
        load_dead: 0,
        store_live: 1,
        store_dead: 2,
        dead_chain: 2,
        dead_slow: 1,
        neutral,
        predicated: 1,
        branchy: 1,
        call: 3,
    }
}

/// The full 26-benchmark suite: 12 integer-like and 14 FP-like entries.
pub fn suite() -> Vec<WorkloadSpec> {
    use Category::{FloatingPoint as FP, Integer as INT};
    vec![
        // Working sets are sized so the far-load walk wraps within a run;
        // the far-gate mask sets miss frequency and the working set / stride
        // choose the miss depth: "L0" entries have no far loads, "L1"
        // entries miss L0 and hit L1 (the paper's 10-cycle miss), "L2"
        // entries thrash L1 and hit L2 (the 25-cycle miss), and the
        // memory-bound entries stream cold lines from memory.
        // --- integer-like (12) ---
        spec("bzip2", INT, 0x1001, 32, 128, 3, int_mix(2, 20, 1)), // L1
        spec("cc", INT, 0x1002, 256, 128, 7, int_mix(3, 16, 1)),   // L2
        spec("crafty", INT, 0x1003, 4, 16, 0, int_mix(3, 15, 0)),  // L0
        spec("eon", INT, 0x1004, 4, 16, 0, int_mix(2, 16, 0)),     // L0
        spec("gap", INT, 0x1005, 8, 32, 0, int_mix(2, 16, 0)),     // L0
        spec("gzip", INT, 0x1006, 32, 128, 3, int_mix(2, 19, 1)),  // L1
        spec("mcf", INT, 0x1007, 64 * 1024, 512, 1, int_mix(2, 19, 1)), // memory
        spec("parser", INT, 0x1008, 256, 128, 7, int_mix(3, 15, 1)), // L2
        spec("perlbmk", INT, 0x1009, 4, 8, 0, int_mix(3, 16, 0)),  // L0
        spec("twolf", INT, 0x100a, 256, 128, 7, int_mix(2, 15, 1)), // L2
        spec("vortex", INT, 0x100b, 32, 128, 3, int_mix(2, 20, 1)), // L1
        spec("vpr", INT, 0x100c, 16, 64, 3, int_mix(2, 15, 1)),    // L1
        // --- floating-point-like (14) ---
        // `ammp` queues work behind critical memory-latency misses: the
        // paper's squash outlier (~90 % AVF reduction for little IPC).
        spec("ammp", FP, 0x2001, 64 * 1024, 8192, 0, fp_mix(23, 1)), // memory
        spec("applu", FP, 0x2002, 256, 128, 7, fp_mix(23, 1)),       // L2
        spec("apsi", FP, 0x2003, 32, 128, 3, fp_mix(26, 1)),         // L1
        spec("art", FP, 0x2004, 64 * 1024, 1024, 1, fp_mix(26, 1)),  // memory
        spec("equake", FP, 0x2005, 256, 128, 7, fp_mix(23, 1)),      // L2
        spec("facerec", FP, 0x2006, 32, 64, 3, fp_mix(26, 1)),       // L1
        spec("fma3d", FP, 0x2007, 64, 256, 3, fp_mix(27, 1)),        // L1
        spec("galgel", FP, 0x2008, 8, 16, 0, fp_mix(22, 0)),         // L0
        spec("lucas", FP, 0x2009, 256, 128, 7, fp_mix(23, 1)),       // L2
        spec("mesa", FP, 0x200a, 4, 16, 0, fp_mix(21, 0)),           // L0
        spec("mgrid", FP, 0x200b, 32, 128, 3, fp_mix(23, 1)),        // L1
        spec("sixtrack", FP, 0x200c, 8, 8, 0, fp_mix(22, 0)),        // L0
        spec("swim", FP, 0x200d, 256, 128, 7, fp_mix(23, 1)),        // L2
        spec("wupwise", FP, 0x200e, 32, 64, 3, fp_mix(22, 1)),       // L1
    ]
}

/// Looks up a suite entry by name.
pub fn spec_by_name(name: &str) -> Option<WorkloadSpec> {
    suite().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_26_entries_split_12_14() {
        let s = suite();
        assert_eq!(s.len(), 26);
        let ints = s.iter().filter(|w| w.category == Category::Integer).count();
        assert_eq!(ints, 12);
        assert_eq!(s.len() - ints, 14);
    }

    #[test]
    fn all_specs_validate_and_names_unique() {
        let s = suite();
        let mut names = std::collections::HashSet::new();
        for w in &s {
            w.validate().unwrap_or_else(|e| panic!("{e}"));
            assert!(names.insert(w.name.clone()), "duplicate name {}", w.name);
        }
    }

    #[test]
    fn seeds_are_unique() {
        let s = suite();
        let mut seeds = std::collections::HashSet::new();
        for w in &s {
            assert!(seeds.insert(w.seed), "duplicate seed for {}", w.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(spec_by_name("mcf").is_some());
        assert!(spec_by_name("ammp").is_some());
        assert!(spec_by_name("doom3").is_none());
        assert_eq!(
            spec_by_name("mcf").unwrap().working_set_bytes,
            64 * 1024 * 1024
        );
    }

    #[test]
    fn fp_entries_have_more_neutral_blocks_than_int() {
        let s = suite();
        let avg = |cat: Category| {
            let v: Vec<_> = s.iter().filter(|w| w.category == cat).collect();
            v.iter().map(|w| w.mix.neutral as f64).sum::<f64>() / v.len() as f64
        };
        assert!(avg(Category::FloatingPoint) > avg(Category::Integer));
    }
}
