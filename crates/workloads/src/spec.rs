//! Workload specifications: the per-benchmark knobs.

use serde::{Deserialize, Serialize};

/// Whether a benchmark belongs to the integer-like or floating-point-like
/// half of the suite (the paper's Figure 2 and 4 split results this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// CINT2000-like: branchy, irregular, fewer neutral instructions.
    Integer,
    /// CFP2000-like: regular loops, many no-ops/prefetches, larger working
    /// sets.
    FloatingPoint,
}

impl Category {
    /// Short label used in reports ("INT" / "FP").
    pub const fn label(self) -> &'static str {
        match self {
            Category::Integer => "INT",
            Category::FloatingPoint => "FP",
        }
    }
}

/// How many blocks of each kind the synthesiser lays down per loop
/// iteration. Each block is a handful of instructions; see
/// [`crate::synthesize`] for the exact shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockMix {
    /// Live arithmetic chains feeding the output accumulator.
    pub arith: u8,
    /// Loads whose values feed live computation, targeting the hot
    /// (L0-resident) region.
    pub load_live: u8,
    /// Gated far loads that walk the large working set and produce the
    /// cache-miss stalls that drive the squash triggers.
    pub load_far: u8,
    /// Rare deep loads (every 32nd iteration) that stream cold lines from
    /// memory: every benchmark sees occasional memory-latency stalls, as
    /// real workloads do.
    pub load_deep: u8,
    /// Loads whose destination register is later overwritten unread
    /// (first-level dynamically dead via register).
    pub load_dead: u8,
    /// Stores later re-read (live stores).
    pub store_live: u8,
    /// Stores to a region no load ever touches (dynamically dead via
    /// memory).
    pub store_dead: u8,
    /// Three-deep dead register chains (one FDD def + two TDD defs).
    pub dead_chain: u8,
    /// Dead writes killed only every 8th iteration (medium PET distance).
    pub dead_slow: u8,
    /// Neutral filler (no-op / prefetch / hint) instructions, not blocks.
    pub neutral: u8,
    /// Predicated live blocks (source of falsely predicated instructions).
    pub predicated: u8,
    /// Data-dependent forward branches (misprediction source).
    pub branchy: u8,
    /// Procedure calls every 16th iteration (return-killed dead registers).
    pub call: u8,
}

impl BlockMix {
    /// A balanced default mix.
    pub const fn balanced() -> Self {
        BlockMix {
            arith: 3,
            load_live: 2,
            load_far: 1,
            load_deep: 1,
            load_dead: 1,
            store_live: 1,
            store_dead: 1,
            dead_chain: 1,
            dead_slow: 1,
            neutral: 4,
            predicated: 1,
            branchy: 1,
            call: 1,
        }
    }
}

/// Complete specification of one synthetic benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Benchmark name (SPEC-2000 analogue, e.g. `"mcf"`).
    pub name: String,
    /// Integer-like or FP-like.
    pub category: Category,
    /// RNG seed: block order, immediates, and pattern-array contents.
    pub seed: u64,
    /// Approximate dynamic instruction count to aim for; the synthesiser
    /// derives the outer-loop trip count from this.
    pub target_dynamic: u64,
    /// Block mix per loop iteration.
    pub mix: BlockMix,
    /// Bytes of the cache-stressing working set (power of two).
    pub working_set_bytes: u64,
    /// Stride in bytes between successive working-set accesses.
    pub stride_bytes: u64,
    /// Far loads fire when `(iteration & far_gate_mask) == 0`: 0 means
    /// every iteration, 1 every 2nd, 3 every 4th, and so on. This sets the
    /// cache-miss *frequency* independently of the miss *depth*.
    pub far_gate_mask: u32,
}

impl WorkloadSpec {
    /// A small, fast default workload useful in tests and examples.
    pub fn quick(name: &str, seed: u64) -> Self {
        WorkloadSpec {
            name: name.to_owned(),
            category: Category::Integer,
            seed,
            target_dynamic: 20_000,
            mix: BlockMix::balanced(),
            working_set_bytes: 16 * 1024,
            stride_bytes: 64,
            far_gate_mask: 0,
        }
    }

    /// Validates the spec's numeric constraints.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.working_set_bytes.is_power_of_two() {
            return Err(format!("{}: working set must be a power of two", self.name));
        }
        if self.stride_bytes == 0 || !self.stride_bytes.is_multiple_of(8) {
            return Err(format!(
                "{}: stride must be a positive multiple of 8",
                self.name
            ));
        }
        if self.target_dynamic < 1000 {
            return Err(format!("{}: target too small to be meaningful", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_spec_is_valid() {
        assert!(WorkloadSpec::quick("t", 1).validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut s = WorkloadSpec::quick("bad", 1);
        s.working_set_bytes = 3000;
        assert!(s.validate().unwrap_err().contains("power of two"));

        let mut s = WorkloadSpec::quick("bad", 1);
        s.stride_bytes = 12;
        assert!(s.validate().unwrap_err().contains("multiple of 8"));

        let mut s = WorkloadSpec::quick("bad", 1);
        s.target_dynamic = 10;
        assert!(s.validate().unwrap_err().contains("too small"));
    }

    #[test]
    fn category_labels() {
        assert_eq!(Category::Integer.label(), "INT");
        assert_eq!(Category::FloatingPoint.label(), "FP");
    }
}
