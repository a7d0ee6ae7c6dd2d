//! Dynamic execution traces.

use ses_isa::{Instruction, Opcode, OpcodeClass};
use ses_types::{Addr, Pred, Reg};

/// One committed-path dynamic instruction, as recorded by the emulator.
///
/// The timing model replays these records in order; the dead-instruction
/// analysis walks them backwards. Wrong-path instructions never appear here —
/// they are synthesised by the front end from the static image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynInstr {
    /// Position in the dynamic trace (0-based).
    pub index: u64,
    /// Fetch address.
    pub pc: Addr,
    /// The static instruction.
    pub instr: Instruction,
    /// Whether the qualifying predicate evaluated true. When false the
    /// instruction is *falsely predicated*: it flows down the pipeline but
    /// has no architectural effect.
    pub executed: bool,
    /// The general register actually written (guard true, op writes, and
    /// destination is not `r0`).
    pub reg_written: Option<Reg>,
    /// The predicate register actually written.
    pub pred_written: Option<Pred>,
    /// The memory access or output emission, if any (read through
    /// [`DynInstr::mem_read`], [`DynInstr::mem_written`] and
    /// [`DynInstr::emitted`]).
    pub side_effect: SideEffect,
    /// For conditional branches: whether the branch was taken.
    pub taken: Option<bool>,
    /// Address of the next committed-path instruction.
    pub next_pc: Addr,
    /// Call nesting depth *at* this instruction (entry code is depth 0).
    pub call_depth: u32,
}

/// The memory or output side effect of one dynamic instruction. Only an
/// executed `ld` reads, `st` writes and `out` emits, so a record holds at
/// most one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideEffect {
    /// No memory access and no output.
    None,
    /// Word-aligned data address read (executed loads only).
    MemRead(Addr),
    /// Word-aligned data address written (executed stores only).
    MemWritten(Addr),
    /// Value emitted to the output stream (executed `out` only).
    Emitted(u64),
}

impl DynInstr {
    /// Word-aligned data address read (executed loads only).
    pub fn mem_read(&self) -> Option<Addr> {
        match self.side_effect {
            SideEffect::MemRead(a) => Some(a),
            _ => None,
        }
    }

    /// Word-aligned data address written (executed stores only).
    pub fn mem_written(&self) -> Option<Addr> {
        match self.side_effect {
            SideEffect::MemWritten(a) => Some(a),
            _ => None,
        }
    }

    /// Value emitted to the output stream (executed `out` only).
    pub fn emitted(&self) -> Option<u64> {
        match self.side_effect {
            SideEffect::Emitted(v) => Some(v),
            _ => None,
        }
    }

    /// The general registers this dynamic instance actually read (empty when
    /// the guard was false).
    pub fn regs_read(&self) -> impl Iterator<Item = Reg> + '_ {
        self.executed
            .then(|| self.instr.reads())
            .into_iter()
            .flatten()
    }

    /// Whether this is an executed store.
    pub fn is_store(&self) -> bool {
        self.mem_written().is_some()
    }

    /// Whether this dynamic instruction produced user-visible output.
    pub fn is_output(&self) -> bool {
        self.emitted().is_some()
    }

    /// Whether the instruction is a control transfer.
    pub fn is_control(&self) -> bool {
        self.instr.op.is_control()
    }

    /// Whether this dynamic instance changed architectural state visible
    /// after commit (register file, predicate file, memory, or the output
    /// stream).
    pub fn commits_state(&self) -> bool {
        self.reg_written.is_some()
            || self.pred_written.is_some()
            || self.mem_written().is_some()
            || self.emitted().is_some()
    }

    /// Cross-checks the recorded side effects against what the static
    /// instruction definition permits. The differential oracle runs this on
    /// every committed instruction: a violation means the emulator's record
    /// and the ISA metadata (which the timing model and the ACE analysis
    /// both trust) disagree.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistent side effect.
    pub fn check_static_consistency(&self) -> Result<(), String> {
        let op = self.instr.op;
        if let Some(r) = self.reg_written {
            if !self.executed {
                return Err(format!("guard-false instance wrote {r}"));
            }
            if !op.writes_reg() {
                return Err(format!("{op} cannot write a register, wrote {r}"));
            }
            if r != self.instr.dest {
                return Err(format!("wrote {r}, but destination is {}", self.instr.dest));
            }
            if r.is_zero() {
                return Err("recorded a write to the hardwired zero register".into());
            }
        }
        if let Some(p) = self.pred_written {
            if !self.executed || !op.writes_pred() {
                return Err(format!("unexpected predicate write to {p} by {op}"));
            }
            if p != self.instr.pdest {
                return Err(format!("wrote {p}, but pdest is {}", self.instr.pdest));
            }
        }
        if self.mem_read().is_some() && !(self.executed && op == Opcode::Ld) {
            return Err(format!("memory read recorded for {op}"));
        }
        if self.mem_written().is_some() && !(self.executed && op == Opcode::St) {
            return Err(format!("memory write recorded for {op}"));
        }
        if self.taken.is_some() != op.is_conditional_branch() {
            return Err(format!("branch outcome presence mismatches {op}"));
        }
        if self.emitted().is_some() && !(self.executed && op == Opcode::Out) {
            return Err(format!("output emission recorded for {op}"));
        }
        Ok(())
    }
}

/// Aggregate counts over an [`ExecutionTrace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions (including falsely predicated and
    /// neutral ones).
    pub total: u64,
    /// Instructions whose guard evaluated false.
    pub falsely_predicated: u64,
    /// Neutral instructions (no-op / prefetch / hint).
    pub neutral: u64,
    /// Executed loads.
    pub loads: u64,
    /// Executed stores.
    pub stores: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Conditional branches that were taken.
    pub taken_branches: u64,
    /// Call instructions executed.
    pub calls: u64,
    /// Values emitted to the output stream.
    pub outputs: u64,
}

impl TraceStats {
    /// Fraction of conditional branches that were taken (0 when none).
    pub fn taken_fraction(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.taken_branches as f64 / self.cond_branches as f64
        }
    }
}

/// The complete result of a functional run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    entries: Vec<DynInstr>,
    output: Vec<u64>,
    stats: TraceStats,
    halted: bool,
}

impl ExecutionTrace {
    /// An empty trace, for tests of downstream consumers.
    pub fn new_for_tests() -> Self {
        Self::new(Vec::new(), Vec::new(), false)
    }

    pub(crate) fn new(entries: Vec<DynInstr>, output: Vec<u64>, halted: bool) -> Self {
        let mut stats = TraceStats::default();
        for e in &entries {
            stats.total += 1;
            if !e.executed {
                stats.falsely_predicated += 1;
            }
            if e.instr.is_neutral() {
                stats.neutral += 1;
            }
            if e.mem_read().is_some() {
                stats.loads += 1;
            }
            if e.mem_written().is_some() {
                stats.stores += 1;
            }
            if e.instr.op.is_conditional_branch() {
                stats.cond_branches += 1;
                if e.taken == Some(true) {
                    stats.taken_branches += 1;
                }
            }
            if e.instr.op == Opcode::Call && e.executed {
                stats.calls += 1;
            }
            if e.is_output() {
                stats.outputs += 1;
            }
        }
        ExecutionTrace {
            entries,
            output,
            stats,
            halted,
        }
    }

    /// The dynamic instructions, in commit order.
    pub fn entries(&self) -> &[DynInstr] {
        &self.entries
    }

    /// Takes the trace apart, returning its record buffer for
    /// [`Emulator::run_into`](crate::Emulator::run_into) to reuse.
    pub fn into_entries(self) -> Vec<DynInstr> {
        self.entries
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The program's output stream.
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// Whether the program reached `halt` within its budget.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Fraction of dynamic instructions in a given class, for workload
    /// calibration.
    pub fn class_fraction(&self, class: OpcodeClass) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let n = self
            .entries
            .iter()
            .filter(|e| e.instr.op.class() == class)
            .count();
        n as f64 / self.entries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_isa::Instruction;

    fn dyn_nop(index: u64) -> DynInstr {
        DynInstr {
            index,
            pc: Addr::new(0x1000 + index * 8),
            instr: Instruction::nop(),
            executed: true,
            reg_written: None,
            pred_written: None,
            side_effect: SideEffect::None,
            taken: None,
            next_pc: Addr::new(0x1008 + index * 8),
            call_depth: 0,
        }
    }

    #[test]
    fn stats_count_classes() {
        let mut e1 = dyn_nop(0);
        e1.instr = Instruction::br(Pred::new(1), 8);
        e1.taken = Some(true);
        let mut e2 = dyn_nop(1);
        e2.instr = Instruction::ld(Reg::new(1), Reg::new(2), 0);
        e2.side_effect = SideEffect::MemRead(Addr::new(0x2000));
        e2.reg_written = Some(Reg::new(1));
        let e3 = dyn_nop(2);
        let trace = ExecutionTrace::new(vec![e1, e2, e3], vec![], true);
        let s = trace.stats();
        assert_eq!(s.total, 3);
        assert_eq!(s.cond_branches, 1);
        assert_eq!(s.taken_branches, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.neutral, 1);
        assert!((s.taken_fraction() - 1.0).abs() < 1e-12);
        assert!(trace.halted());
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn record_is_at_most_64_bytes() {
        assert!(std::mem::size_of::<DynInstr>() <= 64);
    }

    #[test]
    fn side_effect_accessors_are_exclusive() {
        let mut e = dyn_nop(0);
        e.side_effect = SideEffect::MemWritten(Addr::new(0x2000));
        assert_eq!(e.mem_written(), Some(Addr::new(0x2000)));
        assert_eq!((e.mem_read(), e.emitted()), (None, None));
        assert!(e.is_store() && !e.is_output() && e.commits_state());
        e.side_effect = SideEffect::Emitted(7);
        assert_eq!(e.emitted(), Some(7));
        assert_eq!((e.mem_read(), e.mem_written()), (None, None));
        assert!(e.is_output() && !e.is_store());
    }

    #[test]
    fn regs_read_respects_guard() {
        let mut e = dyn_nop(0);
        e.instr = Instruction::add(Reg::new(3), Reg::new(1), Reg::new(2));
        e.executed = false;
        assert_eq!(e.regs_read().count(), 0, "guard-false reads nothing");
        e.executed = true;
        assert_eq!(e.regs_read().count(), 2);
    }

    #[test]
    fn empty_trace_fractions() {
        let t = ExecutionTrace::new(vec![], vec![], false);
        assert_eq!(t.class_fraction(OpcodeClass::Alu), 0.0);
        assert!(t.is_empty());
        assert_eq!(t.stats().taken_fraction(), 0.0);
    }
}
