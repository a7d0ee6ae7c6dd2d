//! Dynamically-dead instruction analysis (paper §4.1).
//!
//! An instruction is *dynamically dead* when the values it produces never
//! affect the program's output. We classify committed instructions as:
//!
//! * **FDD via register** — the written register is overwritten (or the
//!   program ends) before any instruction reads it;
//! * **TDD via register** — the written register *is* read, but only by
//!   dynamically dead instructions;
//! * **FDD via memory** — the stored word is overwritten (or the program
//!   ends) before any load reads it;
//! * **TDD via memory** — the stored word is loaded, but only by
//!   dynamically dead instructions.
//!
//! FDD-via-register instructions additionally carry their *kill distance*
//! (committed instructions from def to the overwrite) — the quantity that
//! determines PET-buffer coverage (Figure 3) — and a *return-attributed*
//! flag set when the defining procedure returned before the kill (the
//! paper's "FDD because of a procedure return" category).
//!
//! Conservatisms (both noted in DESIGN.md): control transfers, `out`, and
//! compare (predicate-writing) instructions are never classified dead; the
//! paper similarly excludes branch-direction deadness (Y-branches) from its
//! tracking.

use std::collections::HashMap;

use ses_arch::ExecutionTrace;
use ses_types::Reg;

/// Dead classification of one dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeadKind {
    /// Live (or not classifiable as dead: control, I/O, compare, neutral,
    /// falsely predicated).
    #[default]
    Live,
    /// First-level dynamically dead via register.
    FddReg,
    /// Transitively dynamically dead via register.
    TddReg,
    /// First-level dynamically dead via memory (dead store).
    FddMem,
    /// Transitively dynamically dead via memory.
    TddMem,
}

impl DeadKind {
    /// Whether this is any dead classification.
    pub fn is_dead(self) -> bool {
        self != DeadKind::Live
    }
}

/// Full dead-analysis record for one dynamic instruction.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadInfo {
    /// The classification.
    pub kind: DeadKind,
    /// For FDD via register or memory: committed-instruction distance from
    /// the def to the overwriting instruction (`None` when the location is
    /// never rewritten before program end).
    pub kill_distance: Option<u64>,
    /// For FDD-via-register: whether the defining procedure returned before
    /// the kill.
    pub return_attributed: bool,
}

/// What the backward pass knows about a location's later reads (up to
/// the next def).
#[derive(Debug, Clone, Copy, Default)]
struct Reads {
    /// Some later instruction reads the location.
    any: bool,
    /// A live later instruction reads it.
    live: bool,
}

/// The per-trace-index dead map.
#[derive(Debug, Clone)]
pub struct DeadMap {
    info: Vec<DeadInfo>,
}

impl DeadMap {
    /// Runs the analysis over a committed trace.
    pub fn analyze(trace: &ExecutionTrace) -> Self {
        let entries = trace.entries();
        let mut kind = vec![DeadKind::Live; entries.len()];

        // --- Backward pass: def-use liveness -------------------------------
        // Per register, for the reads after the current point and before
        // any def: whether there is one, and whether a live one is among
        // them.
        let mut reg_read = [Reads::default(); Reg::COUNT];
        // The same per loaded word address; absent means never read.
        let mut word_read: HashMap<u64, bool> = HashMap::new();

        for (idx, d) in entries.iter().enumerate().rev() {
            // Inherent liveness: anything whose effect is not a trackable
            // value. Falsely predicated and neutral instructions have no
            // effects (their categories are handled by the ACE classifier).
            let inherently_live = d.executed
                && (d.is_output()
                    || d.is_control()
                    || d.pred_written.is_some()
                    || d.instr.op == ses_isa::Opcode::Halt);

            let mut value_live = false;
            let mut classification = DeadKind::Live;

            if let Some(w) = d.reg_written {
                let reads = std::mem::take(&mut reg_read[w.index()]);
                if !reads.any {
                    classification = DeadKind::FddReg;
                } else if reads.live {
                    value_live = true;
                } else {
                    classification = DeadKind::TddReg;
                }
            }
            if let Some(addr) = d.mem_written() {
                match word_read.remove(&addr.as_u64()) {
                    None => classification = DeadKind::FddMem,
                    Some(true) => value_live = true,
                    Some(false) => classification = DeadKind::TddMem,
                }
            }

            let live = inherently_live || value_live;
            if !live && (d.reg_written.is_some() || d.mem_written().is_some()) {
                kind[idx] = classification;
            }

            // Register this instruction's own reads for earlier defs.
            for r in d.regs_read() {
                let reads = &mut reg_read[r.index()];
                reads.any = true;
                reads.live |= live;
            }
            if let Some(addr) = d.mem_read() {
                *word_read.entry(addr.as_u64()).or_default() |= live;
            }
        }

        // --- Forward pass: kill distance and return attribution ------------
        let mut info: Vec<DeadInfo> = kind
            .iter()
            .map(|&k| DeadInfo {
                kind: k,
                kill_distance: None,
                return_attributed: false,
            })
            .collect();
        // generation counter per call depth: bumped when a frame at that
        // depth ends (its `ret` executes)
        let mut gen: Vec<u64> = vec![0; 4];
        // last def of each register: (idx, depth, gen-at-def)
        let mut prev_def: [Option<(usize, u32, u64)>; Reg::COUNT] = [None; Reg::COUNT];
        // last store to each word address
        let mut prev_store: HashMap<u64, usize> = HashMap::new();

        for (idx, d) in entries.iter().enumerate() {
            if d.executed && d.instr.op == ses_isa::Opcode::Ret {
                let depth = d.call_depth as usize;
                if gen.len() <= depth {
                    gen.resize(depth + 1, 0);
                }
                gen[depth] += 1;
            }
            if let Some(w) = d.reg_written {
                let depth = d.call_depth;
                if gen.len() <= depth as usize {
                    gen.resize(depth as usize + 1, 0);
                }
                if let Some((pidx, pdepth, pgen)) = prev_def[w.index()] {
                    if info[pidx].kind == DeadKind::FddReg {
                        info[pidx].kill_distance = Some((idx - pidx) as u64);
                        info[pidx].return_attributed =
                            gen.get(pdepth as usize).copied().unwrap_or(0) != pgen;
                    }
                }
                prev_def[w.index()] = Some((idx, depth, gen[depth as usize]));
            }
            if let Some(addr) = d.mem_written() {
                if let Some(pidx) = prev_store.insert(addr.as_u64(), idx) {
                    if info[pidx].kind == DeadKind::FddMem {
                        info[pidx].kill_distance = Some((idx - pidx) as u64);
                    }
                }
            }
        }

        DeadMap { info }
    }

    /// The record for a dynamic-trace index.
    pub fn get(&self, trace_idx: u64) -> DeadInfo {
        self.info
            .get(trace_idx as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Number of analysed instructions.
    pub fn len(&self) -> usize {
        self.info.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.info.is_empty()
    }

    /// Iterates over all records in trace order.
    pub fn iter(&self) -> impl Iterator<Item = &DeadInfo> {
        self.info.iter()
    }

    /// Fraction of committed instructions that are dynamically dead (the
    /// paper reports ~20 % for its binaries).
    pub fn dead_fraction(&self) -> f64 {
        if self.info.is_empty() {
            return 0.0;
        }
        let dead = self.info.iter().filter(|i| i.kind.is_dead()).count();
        dead as f64 / self.info.len() as f64
    }

    /// PET-buffer coverage of FDD-via-register instructions for a given
    /// buffer capacity: the fraction whose kill arrives within `capacity`
    /// subsequent commits (Figure 3's x-axis sweep).
    ///
    /// `include_returns` widens the numerator to return-attributed FDD.
    pub fn pet_coverage_fdd_reg(&self, capacity: u64, include_returns: bool) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for i in self.info.iter() {
            if i.kind != DeadKind::FddReg {
                continue;
            }
            total += 1;
            if !include_returns && i.return_attributed {
                continue;
            }
            if let Some(kd) = i.kill_distance {
                if kd <= capacity {
                    covered += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// PET-style provability over *all* FDD instructions (register and
    /// memory): the fraction a `capacity`-entry window could prove, with
    /// dead stores judged by their own kill distances (the third,
    /// slowest-rising curve of Figure 3).
    pub fn pet_coverage_with_memory(&self, capacity: u64) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for i in self.info.iter() {
            if i.kind != DeadKind::FddReg && i.kind != DeadKind::FddMem {
                continue;
            }
            total += 1;
            if let Some(kd) = i.kill_distance {
                if kd <= capacity {
                    covered += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Counts per dead kind.
    pub fn counts(&self) -> HashMap<DeadKind, u64> {
        let mut m = HashMap::new();
        for i in &self.info {
            *m.entry(i.kind).or_insert(0) += 1;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::Emulator;
    use ses_isa::{Instruction, Program, ProgramBuilder};
    use ses_types::Reg;

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn analyze(code: Vec<Instruction>) -> (DeadMap, ExecutionTrace) {
        let p = Program::new(code);
        let trace = Emulator::new(&p).run(10_000).unwrap();
        assert!(trace.halted());
        (DeadMap::analyze(&trace), trace)
    }

    #[test]
    fn fdd_reg_detected_with_kill_distance() {
        let (map, _) = analyze(vec![
            Instruction::movi(r(1), 5), // 0: FDD (overwritten at 1)
            Instruction::movi(r(1), 6), // 1: live (read by out)
            Instruction::out(r(1)),     // 2
            Instruction::halt(),        // 3
        ]);
        assert_eq!(map.get(0).kind, DeadKind::FddReg);
        assert_eq!(map.get(0).kill_distance, Some(1));
        assert_eq!(map.get(1).kind, DeadKind::Live);
        assert!((map.dead_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn never_read_at_end_is_fdd_without_kill() {
        let (map, _) = analyze(vec![
            Instruction::movi(r(1), 5), // 0: never read, never rewritten
            Instruction::halt(),
        ]);
        assert_eq!(map.get(0).kind, DeadKind::FddReg);
        assert_eq!(map.get(0).kill_distance, None);
    }

    #[test]
    fn tdd_chain_detected() {
        let (map, _) = analyze(vec![
            Instruction::movi(r(1), 5),       // 0: TDD (read only by 1)
            Instruction::addi(r(2), r(1), 1), // 1: TDD (read only by 2)
            Instruction::addi(r(3), r(2), 1), // 2: FDD (never read)
            Instruction::halt(),
        ]);
        assert_eq!(map.get(0).kind, DeadKind::TddReg);
        assert_eq!(map.get(1).kind, DeadKind::TddReg);
        assert_eq!(map.get(2).kind, DeadKind::FddReg);
    }

    #[test]
    fn live_chain_stays_live() {
        let (map, _) = analyze(vec![
            Instruction::movi(r(1), 5),
            Instruction::addi(r(2), r(1), 1),
            Instruction::out(r(2)),
            Instruction::halt(),
        ]);
        assert_eq!(map.get(0).kind, DeadKind::Live);
        assert_eq!(map.get(1).kind, DeadKind::Live);
        assert_eq!(map.dead_fraction(), 0.0);
    }

    #[test]
    fn dead_store_detected() {
        let (map, _) = analyze(vec![
            Instruction::movi(r(1), 0x2000), // live: address feeds stores...
            Instruction::movi(r(2), 7),      // feeds dead store only -> TDD
            Instruction::st(r(1), r(2), 0),  // 2: FDD-mem (overwritten, no load)
            Instruction::movi(r(3), 9),      // feeds live store
            Instruction::st(r(1), r(3), 0),  // 4: live (loaded next)
            Instruction::ld(r(4), r(1), 0),  // 5
            Instruction::out(r(4)),
            Instruction::halt(),
        ]);
        assert_eq!(map.get(2).kind, DeadKind::FddMem);
        assert_eq!(map.get(4).kind, DeadKind::Live);
        assert_eq!(map.get(1).kind, DeadKind::TddReg, "feeds only a dead store");
        assert_eq!(map.get(3).kind, DeadKind::Live);
        assert_eq!(
            map.get(0).kind,
            DeadKind::Live,
            "address reg read by live store"
        );
    }

    #[test]
    fn tdd_mem_detected() {
        let (map, _) = analyze(vec![
            Instruction::movi(r(1), 0x2000),
            Instruction::movi(r(2), 7),
            Instruction::st(r(1), r(2), 0), // 2: TDD-mem: loaded only by dead load
            Instruction::ld(r(5), r(1), 0), // 3: FDD-reg (r5 never read)
            Instruction::out(r(2)),         // keeps r2 live
            Instruction::halt(),
        ]);
        assert_eq!(map.get(2).kind, DeadKind::TddMem);
        assert_eq!(map.get(3).kind, DeadKind::FddReg);
    }

    #[test]
    fn return_attribution() {
        let mut b = ProgramBuilder::new();
        let func = b.new_label();
        let end = b.new_label();
        b.call(r(31), func); // 0
        b.jump(end); // 1
        b.bind(func);
        b.push(Instruction::movi(r(20), 1)); // 2: FDD, killed after return
        b.push(Instruction::ret(r(31))); // 3
        b.bind(end);
        b.push(Instruction::movi(r(20), 2)); // 4: kills 2; itself FDD (end)
        b.push(Instruction::halt()); // 5
        let p = b.build().unwrap();
        let trace = Emulator::new(&p).run(100).unwrap();
        let map = DeadMap::analyze(&trace);
        // Execution order: call(0), movi r20(1), ret(2), jmp(3), movi r20(4), halt(5)
        let def = trace
            .entries()
            .iter()
            .position(|e| e.reg_written == Some(r(20)) && e.call_depth == 1)
            .unwrap() as u64;
        let d = map.get(def);
        assert_eq!(d.kind, DeadKind::FddReg);
        assert!(d.return_attributed, "killed after the frame returned");

        let kill = trace
            .entries()
            .iter()
            .position(|e| e.reg_written == Some(r(20)) && e.call_depth == 0)
            .unwrap() as u64;
        assert_eq!(map.get(kill).kind, DeadKind::FddReg);
        assert!(!map.get(kill).return_attributed);
    }

    #[test]
    fn same_frame_kill_not_return_attributed() {
        let (map, _) = analyze(vec![
            Instruction::movi(r(1), 1), // 0: FDD killed in same frame
            Instruction::movi(r(1), 2), // 1
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        assert!(!map.get(0).return_attributed);
    }

    #[test]
    fn guard_false_instruction_neither_reads_nor_writes() {
        let (map, trace) = analyze(vec![
            Instruction::movi(r(1), 5), // 0: read only by guard-false instr?
            // p1 is false: this add never executes, so it reads nothing.
            Instruction::add(r(2), r(1), r(1)).guarded_by(ses_types::Pred::new(1)),
            Instruction::halt(),
        ]);
        assert!(!trace.entries()[1].executed);
        // r1's def has NO reads (the guarded add never read it): FDD.
        assert_eq!(map.get(0).kind, DeadKind::FddReg);
        // The guard-false instruction itself is not dead-classified.
        assert_eq!(map.get(1).kind, DeadKind::Live);
    }

    #[test]
    fn pet_coverage_thresholds() {
        let (map, _) = analyze(vec![
            Instruction::movi(r(1), 1), // 0: FDD kill distance 1
            Instruction::movi(r(1), 2), // 1: FDD kill distance 3
            Instruction::nop(),         // 2
            Instruction::nop(),         // 3
            Instruction::movi(r(1), 3), // 4: FDD (never rewritten)
            Instruction::halt(),
        ]);
        assert_eq!(map.get(0).kill_distance, Some(1));
        assert_eq!(map.get(1).kill_distance, Some(3));
        assert_eq!(map.get(4).kill_distance, None);
        let c1 = map.pet_coverage_fdd_reg(1, true);
        let c3 = map.pet_coverage_fdd_reg(3, true);
        let c100 = map.pet_coverage_fdd_reg(100, true);
        assert!((c1 - 1.0 / 3.0).abs() < 1e-12);
        assert!((c3 - 2.0 / 3.0).abs() < 1e-12);
        assert!(
            (c100 - 2.0 / 3.0).abs() < 1e-12,
            "unkilled def never covered"
        );
        assert!(c1 <= c3 && c3 <= c100);
    }

    #[test]
    fn compare_instructions_never_dead() {
        let (map, _) = analyze(vec![
            Instruction::cmp_eq(ses_types::Pred::new(1), r(1), r(2)),
            Instruction::halt(),
        ]);
        assert_eq!(map.get(0).kind, DeadKind::Live);
    }
}
