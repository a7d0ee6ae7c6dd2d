//! Architectural register-file AVF (the paper's closing extension).
//!
//! The paper's final remark: "Once these mechanisms are in place, they can
//! also reduce the AVF of other structures, such as the register file."
//! This module computes the register file's ACE lifetimes from the
//! committed trace: a register's bits are ACE from a (live) definition
//! until their last read before the next definition, un-ACE from the last
//! read to the overwrite, and a *dead* definition's whole lifetime is
//! un-ACE — exactly the state a per-register π bit exploits.
//!
//! Time is measured in committed instructions (an architectural
//! approximation: the trace carries no cycle timestamps for register
//! accesses; relative comparisons — technique on vs off, register vs
//! register — are unaffected by the unit).

use ses_arch::ExecutionTrace;
use ses_types::{Avf, Reg};

use crate::dead::DeadMap;

/// Register-file vulnerability summary.
#[derive(Debug, Clone)]
pub struct RegFileAvf {
    per_reg_ace: Vec<u64>,
    per_reg_valid: Vec<u64>,
    total_instrs: u64,
    dead_defs: u64,
    total_defs: u64,
}

impl RegFileAvf {
    /// Analyses the architectural register file over a committed trace.
    ///
    /// `dead` must be the dead map of the same trace: definitions it
    /// classifies as dynamically dead contribute no ACE time (a π bit on
    /// the register suppresses any error in them).
    pub fn analyze(trace: &ExecutionTrace, dead: &DeadMap) -> Self {
        let n = trace.len() as u64;
        let mut per_reg_ace = vec![0u64; Reg::COUNT];
        let mut per_reg_valid = vec![0u64; Reg::COUNT];
        // Per register: (def_idx, last_read_idx, def_is_dead)
        let mut open: Vec<Option<(u64, Option<u64>, bool)>> = vec![None; Reg::COUNT];
        let mut dead_defs = 0u64;
        let mut total_defs = 0u64;

        let close = |slot: &mut Option<(u64, Option<u64>, bool)>,
                     end: u64,
                     per_reg_ace: &mut Vec<u64>,
                     per_reg_valid: &mut Vec<u64>,
                     reg: usize| {
            if let Some((def, last_read, is_dead)) = slot.take() {
                per_reg_valid[reg] += end - def;
                if !is_dead {
                    if let Some(r) = last_read {
                        per_reg_ace[reg] += r - def;
                    }
                }
            }
        };

        for (idx, d) in trace.entries().iter().enumerate() {
            let idx = idx as u64;
            for r in d.regs_read() {
                if let Some(slot) = open[r.index()].as_mut() {
                    slot.1 = Some(idx);
                }
            }
            if let Some(w) = d.reg_written {
                close(
                    &mut open[w.index()],
                    idx,
                    &mut per_reg_ace,
                    &mut per_reg_valid,
                    w.index(),
                );
                let is_dead = dead.get(idx).kind.is_dead();
                total_defs += 1;
                if is_dead {
                    dead_defs += 1;
                }
                open[w.index()] = Some((idx, None, is_dead));
            }
        }
        for (reg, slot_ref) in open.iter_mut().enumerate() {
            let mut slot = slot_ref.take();
            close(&mut slot, n, &mut per_reg_ace, &mut per_reg_valid, reg);
        }

        RegFileAvf {
            per_reg_ace,
            per_reg_valid,
            total_instrs: n.max(1),
            dead_defs,
            total_defs,
        }
    }

    /// The whole register file's AVF (mean over all 64 registers).
    pub fn avf(&self) -> Avf {
        let ace: u64 = self.per_reg_ace.iter().sum();
        Avf::from_bit_cycles(ace, self.total_instrs * Reg::COUNT as u64)
    }

    /// One register's AVF.
    pub fn reg_avf(&self, r: Reg) -> Avf {
        Avf::from_bit_cycles(self.per_reg_ace[r.index()], self.total_instrs)
    }

    /// One register's valid (written-and-not-yet-overwritten) fraction.
    pub fn reg_valid_fraction(&self, r: Reg) -> f64 {
        self.per_reg_valid[r.index()] as f64 / self.total_instrs as f64
    }

    /// Fraction of register definitions that are dynamically dead — the
    /// population whose register-file residency a per-register π bit
    /// covers.
    pub fn dead_def_fraction(&self) -> f64 {
        if self.total_defs == 0 {
            0.0
        } else {
            self.dead_defs as f64 / self.total_defs as f64
        }
    }

    /// The registers sorted by descending AVF, with their values — useful
    /// for reports ("which architectural registers carry the risk").
    pub fn ranked(&self) -> Vec<(Reg, Avf)> {
        let mut v: Vec<(Reg, Avf)> = Reg::all().map(|r| (r, self.reg_avf(r))).collect();
        v.sort_by(|a, b| b.1.fraction().total_cmp(&a.1.fraction()));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::Emulator;
    use ses_isa::{Instruction, Program};

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn analyze(code: Vec<Instruction>) -> RegFileAvf {
        let p = Program::new(code);
        let t = Emulator::new(&p).run(10_000).unwrap();
        let dead = DeadMap::analyze(&t);
        RegFileAvf::analyze(&t, &dead)
    }

    #[test]
    fn live_value_is_ace_until_last_read() {
        // r1 defined at 0, read at 3 (out): ACE for 3 of 4 instructions.
        let a = analyze(vec![
            Instruction::movi(r(1), 5), // 0
            Instruction::nop(),         // 1
            Instruction::nop(),         // 2
            Instruction::out(r(1)),     // 3
            Instruction::halt(),        // 4
        ]);
        assert_eq!(a.reg_avf(r(1)).fraction(), 3.0 / 5.0);
        assert!(a.reg_valid_fraction(r(1)) >= a.reg_avf(r(1)).fraction());
    }

    #[test]
    fn dead_definition_contributes_no_ace() {
        let a = analyze(vec![
            Instruction::movi(r(1), 5), // dead: overwritten unread
            Instruction::movi(r(1), 6),
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        // Only the second def's one-instruction span is ACE.
        assert!((a.reg_avf(r(1)).fraction() - 1.0 / 4.0).abs() < 1e-12);
        assert!(a.dead_def_fraction() > 0.0);
    }

    #[test]
    fn unread_register_has_zero_avf() {
        let a = analyze(vec![Instruction::movi(r(2), 9), Instruction::halt()]);
        assert_eq!(a.reg_avf(r(2)), Avf::ZERO);
        assert!(a.reg_valid_fraction(r(2)) > 0.0, "valid but never ACE");
    }

    #[test]
    fn ranked_orders_by_avf() {
        let a = analyze(vec![
            Instruction::movi(r(1), 1), // ACE span 0..4 = 4
            Instruction::movi(r(2), 2), // ACE span 1..6 = 5
            Instruction::nop(),
            Instruction::nop(),
            Instruction::out(r(1)),
            Instruction::nop(),
            Instruction::out(r(2)),
            Instruction::halt(),
        ]);
        let ranked = a.ranked();
        assert!(ranked[0].1.fraction() >= ranked[1].1.fraction());
        assert_eq!(ranked[0].0, r(2), "r2 lives longest (read last)");
        // File-level AVF is the mean of per-register AVFs.
        let mean: f64 =
            Reg::all().map(|x| a.reg_avf(x).fraction()).sum::<f64>() / Reg::COUNT as f64;
        assert!((a.avf().fraction() - mean).abs() < 1e-12);
    }
}
