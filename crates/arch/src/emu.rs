//! The architectural emulator proper.

use ses_isa::{decode, Instruction, Opcode, Program, INSTR_BYTES};
use ses_types::{Addr, SesError};

use crate::memory::DataMemory;
use crate::state::ArchState;
use crate::trace::{DynInstr, ExecutionTrace, SideEffect};

/// Result of a (possibly fault-perturbed) functional run, used by the
/// fault-injection outcome classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program halted; here is its output stream.
    Completed {
        /// Values written by `out` instructions, in order.
        output: Vec<u64>,
    },
    /// Execution left the program image or hit an undecodable instruction.
    Crashed {
        /// Human-readable cause.
        reason: String,
    },
    /// The instruction budget ran out before `halt` (e.g. a corrupted
    /// branch created an infinite loop).
    TimedOut,
}

struct StepEffect {
    record: DynInstr,
    halt: bool,
}

/// A point-in-time copy of the architectural machine: registers,
/// predicates, PC, data memory, call depth, and dynamic-instruction index.
///
/// Snapshots support the idempotent-region recovery model: capture the
/// machine mid-run, rewind the PC to a region entry, and re-execute the
/// region prefix to prove (or disprove) that re-execution is
/// side-effect-free. The output stream is deliberately *not* part of the
/// snapshot — a resumed machine starts with an empty stream so re-emitted
/// values can be compared against the original records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    state: ArchState,
    mem: DataMemory,
    depth: u32,
    index: u64,
}

impl MachineSnapshot {
    /// The architectural register state (registers, predicates, PC).
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The data memory image.
    pub fn mem(&self) -> &DataMemory {
        &self.mem
    }

    /// The dynamic-instruction index the machine had reached.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Whether two snapshots agree on every *recoverable* component:
    /// registers, predicates, PC, and data memory. Call depth and dynamic
    /// index are bookkeeping, not architectural state, and are excluded —
    /// re-executing a region legitimately advances both.
    pub fn same_arch_state(&self, other: &MachineSnapshot) -> bool {
        self.state == other.state && self.mem == other.mem
    }
}

/// A golden-run checkpoint a corrupted functional replay resumes from:
/// the machine at one dynamic index, plus how many output values the
/// golden run had emitted by then.
///
/// Captured by [`Emulator::run_checkpointed`] and consumed by
/// [`Emulator::resume_with_override`]. Everything before the checkpoint is
/// golden, so a resumed replay needs to compare only the output it emits
/// with the golden output after [`Checkpoint::output_len`]; later
/// checkpoints are where the replay checks whether it rejoined the golden
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    snapshot: MachineSnapshot,
    output_len: usize,
}

impl Checkpoint {
    /// The dynamic-instruction index the checkpoint resumes at.
    pub fn index(&self) -> u64 {
        self.snapshot.index
    }

    /// Output values the golden run had emitted before this checkpoint.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Mutable access to the captured registers, predicates and PC, for
    /// building a deliberately wrong golden reference (planted-defect
    /// tests of the convergence check).
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.snapshot.state
    }

    /// Mutable access to the captured data memory, for the same purpose
    /// as [`Checkpoint::state_mut`].
    pub fn mem_mut(&mut self) -> &mut DataMemory {
        &mut self.snapshot.mem
    }
}

/// A corrupted functional replay resumed from a golden [`Checkpoint`]
/// ([`Emulator::resume_with_override`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumedReplay {
    /// The replay's outcome, equal to the replay from program start
    /// except that a `Completed` output holds only the values emitted
    /// after the checkpoint it resumed from.
    pub outcome: RunOutcome,
    /// Golden output values emitted before the resume checkpoint: the full
    /// run's output is the golden output's first `output_offset` values
    /// followed by a `Completed` output.
    pub output_offset: usize,
    /// The dynamic index of the later golden checkpoint at which the
    /// replay's machine equalled the golden one, ending the replay early;
    /// `None` when it ran to its own end.
    pub converged_at: Option<u64>,
}

/// Architectural emulator for one program.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Emulator<'p> {
    program: &'p Program,
    state: ArchState,
    mem: DataMemory,
    output: Vec<u64>,
    depth: u32,
    index: u64,
}

impl<'p> Emulator<'p> {
    /// Creates an emulator with fresh architectural state and the program's
    /// initial data image.
    pub fn new(program: &'p Program) -> Self {
        Emulator {
            program,
            state: ArchState::new(program.entry()),
            mem: DataMemory::from_program(program),
            output: Vec::new(),
            depth: 0,
            index: 0,
        }
    }

    /// Runs the program to `halt`, recording the full dynamic trace.
    ///
    /// Stops after `max_instrs` dynamic instructions if the program has not
    /// halted; the returned trace then reports `halted() == false`.
    ///
    /// # Errors
    ///
    /// Returns [`SesError::EmulationFault`] if control leaves the program
    /// image — for a *golden* (uncorrupted) run this indicates a broken
    /// program, so it is an error rather than an outcome.
    pub fn run(self, max_instrs: u64) -> Result<ExecutionTrace, SesError> {
        self.run_checkpointed(max_instrs, 0).map(|(trace, _)| trace)
    }

    /// [`run`](Self::run) recording into `entries`, whose contents are
    /// discarded and whose allocation is kept: a sweep hands each run the
    /// buffer of the previous one ([`ExecutionTrace::into_entries`]).
    /// Unlike [`run`](Self::run), the trace keeps the buffer's spare
    /// capacity.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_into(
        mut self,
        max_instrs: u64,
        mut entries: Vec<DynInstr>,
    ) -> Result<ExecutionTrace, SesError> {
        entries.clear();
        let halted = self.record(max_instrs, 0, &mut entries, &mut Vec::new())?;
        Ok(ExecutionTrace::new(entries, self.output, halted))
    }

    /// Like [`run`](Self::run), also capturing a [`Checkpoint`] before
    /// every dynamic index divisible by `interval`, index 0 included
    /// (`interval == 0` captures none). The trace is identical to
    /// [`run`](Self::run)'s.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_checkpointed(
        mut self,
        max_instrs: u64,
        interval: u64,
    ) -> Result<(ExecutionTrace, Vec<Checkpoint>), SesError> {
        let mut entries = Vec::new();
        let mut checkpoints = Vec::new();
        let halted = self.record(max_instrs, interval, &mut entries, &mut checkpoints)?;
        // A golden trace lives as long as its golden run: keep no growth
        // slack.
        entries.shrink_to_fit();
        Ok((
            ExecutionTrace::new(entries, self.output, halted),
            checkpoints,
        ))
    }

    /// The recording loop of [`run_checkpointed`](Self::run_checkpointed)
    /// and [`run_into`](Self::run_into): appends the trace to `entries` and
    /// the checkpoints to `checkpoints` until `halt` or `max_instrs`
    /// records, returning whether the program halted.
    fn record(
        &mut self,
        max_instrs: u64,
        interval: u64,
        entries: &mut Vec<DynInstr>,
        checkpoints: &mut Vec<Checkpoint>,
    ) -> Result<bool, SesError> {
        while (entries.len() as u64) < max_instrs {
            if interval > 0 && self.index.is_multiple_of(interval) {
                checkpoints.push(Checkpoint {
                    snapshot: self.snapshot(),
                    output_len: self.output.len(),
                });
            }
            let pc = self.state.pc();
            let instr = *self.program.instr_at(pc).ok_or_else(|| {
                SesError::EmulationFault(format!("fetch outside program image at {pc}"))
            })?;
            let effect = self.exec_one(instr, pc);
            entries.push(effect.record);
            if effect.halt {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Runs the program with the corrupted instruction word `word`
    /// substituted at dynamic index `trace_idx`, returning only the
    /// outcome (no trace).
    ///
    /// `trace_idx` matches [`DynInstr::index`] of the golden trace, and
    /// `word` is the corrupted 64-bit word that the pipeline would have
    /// issued in its place. This is how a particle strike on an
    /// instruction-queue entry reaches architectural state.
    pub fn run_with_override(self, trace_idx: u64, word: u64, max_instrs: u64) -> RunOutcome {
        self.run_overridden(|idx| (idx == trace_idx).then_some(word), max_instrs)
    }

    /// Resumes a corrupted replay from the golden run's checkpoints: the
    /// same run as [`run_with_override`](Self::run_with_override) from
    /// program start, minus the golden prefix before the last checkpoint
    /// at or before `trace_idx`, and minus the golden suffix once the
    /// replay rejoins the golden run. The budget still counts from
    /// program start, so a replay times out at exactly the same dynamic
    /// index either way. A `Completed` output holds only the values
    /// emitted after the resume checkpoint
    /// ([`ResumedReplay::output_offset`]).
    ///
    /// At each later checkpoint past `trace_idx`, the replay compares its
    /// PC, registers, predicates and the output emitted so far with the
    /// golden values there, and, when all of those match, its data memory.
    /// Equality of all of them means the rest of the run is the golden
    /// run (the override lies behind it, and call depth is bookkeeping
    /// that never steers execution), so the replay returns what the golden
    /// continuation returns under the same budget: `Completed` with the
    /// golden output when the golden run halts within `max_instrs`,
    /// `TimedOut` otherwise. Memory is compared at most once per replay,
    /// and a mismatch there ends the checking: the added cost stays below
    /// one pass over memory, the size of the snapshot clone every replay
    /// pays anyway.
    ///
    /// `golden` and `checkpoints` must come from one
    /// [`run_checkpointed`](Self::run_checkpointed) of `program`.
    ///
    /// # Panics
    ///
    /// Panics if the golden run did not halt, or if no checkpoint lies at
    /// or before `trace_idx`.
    pub fn resume_with_override(
        program: &'p Program,
        golden: &ExecutionTrace,
        checkpoints: &[Checkpoint],
        trace_idx: u64,
        word: u64,
        max_instrs: u64,
    ) -> ResumedReplay {
        assert!(golden.halted(), "a replay can only rejoin a halted golden run");
        let at = checkpoints
            .partition_point(|c| c.index() <= trace_idx)
            .checked_sub(1)
            .unwrap_or_else(|| panic!("no checkpoint at or before the override at {trace_idx}"));
        let from = &checkpoints[at];
        let override_at = |idx| (idx == trace_idx).then_some(word);
        let mut emu = Emulator::from_snapshot(program, from.snapshot.clone());
        let diverged = |outcome| ResumedReplay {
            outcome,
            output_offset: from.output_len,
            converged_at: None,
        };
        // Every later checkpoint lies past the override.
        for next in &checkpoints[at + 1..] {
            if let Some(outcome) = emu.run_until(&override_at, next.index().min(max_instrs)) {
                return diverged(outcome);
            }
            if emu.index < next.index() {
                return diverged(RunOutcome::TimedOut);
            }
            let golden_out = &golden.output()[from.output_len..next.output_len];
            if emu.state != next.snapshot.state || emu.output != golden_out {
                continue;
            }
            if emu.mem != next.snapshot.mem {
                break;
            }
            let outcome = if golden.len() as u64 <= max_instrs {
                let mut output = emu.output;
                output.extend_from_slice(&golden.output()[next.output_len..]);
                RunOutcome::Completed { output }
            } else {
                RunOutcome::TimedOut
            };
            return ResumedReplay {
                outcome,
                output_offset: from.output_len,
                converged_at: Some(next.index()),
            };
        }
        diverged(
            emu.run_until(&override_at, max_instrs)
                .unwrap_or(RunOutcome::TimedOut),
        )
    }

    /// The replay loop to the budget.
    fn run_overridden(
        mut self,
        override_at: impl Fn(u64) -> Option<u64>,
        max_instrs: u64,
    ) -> RunOutcome {
        self.run_until(&override_at, max_instrs)
            .unwrap_or(RunOutcome::TimedOut)
    }

    /// Runs until the dynamic index reaches `stop`, returning the outcome
    /// if the run ends first (halt or crash). `self.index` doubles as the
    /// step count: it is the number of instructions executed since
    /// program start, also for an emulator restored from a snapshot.
    fn run_until(
        &mut self,
        override_at: &impl Fn(u64) -> Option<u64>,
        stop: u64,
    ) -> Option<RunOutcome> {
        while self.index < stop {
            let pc = self.state.pc();
            let Some(&original) = self.program.instr_at(pc) else {
                return Some(RunOutcome::Crashed {
                    reason: format!("fetch outside program image at {pc}"),
                });
            };
            let instr = match override_at(self.index) {
                None => original,
                Some(word) => match decode(word) {
                    Ok(i) => i,
                    Err(e) => {
                        return Some(RunOutcome::Crashed {
                            reason: e.to_string(),
                        })
                    }
                },
            };
            if self.exec_one(instr, pc).halt {
                return Some(RunOutcome::Completed {
                    output: std::mem::take(&mut self.output),
                });
            }
        }
        None
    }

    /// Captures the current architectural state as a [`MachineSnapshot`].
    pub(crate) fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            state: self.state.clone(),
            mem: self.mem.clone(),
            depth: self.depth,
            index: self.index,
        }
    }

    /// Rebuilds an emulator from a snapshot, with an empty output stream.
    pub(crate) fn from_snapshot(program: &'p Program, snap: MachineSnapshot) -> Self {
        Emulator {
            program,
            state: snap.state,
            mem: snap.mem,
            output: Vec::new(),
            depth: snap.depth,
            index: snap.index,
        }
    }

    /// Overrides the program counter (region re-execution rewinds here).
    pub(crate) fn set_pc(&mut self, pc: Addr) {
        self.state.set_pc(pc);
    }

    /// Executes exactly one instruction, returning its record and whether
    /// it was `halt`. Used by [`crate::Stepper`].
    ///
    /// # Errors
    ///
    /// Returns [`SesError::EmulationFault`] if the PC is outside the image.
    pub(crate) fn step_once(&mut self) -> Result<(DynInstr, bool), SesError> {
        let pc = self.state.pc();
        let instr = *self.program.instr_at(pc).ok_or_else(|| {
            SesError::EmulationFault(format!("fetch outside program image at {pc}"))
        })?;
        let effect = self.exec_one(instr, pc);
        Ok((effect.record, effect.halt))
    }

    /// Output emitted so far (for streaming consumers).
    pub(crate) fn output_so_far(&self) -> &[u64] {
        &self.output
    }

    /// Current program counter.
    pub(crate) fn pc(&self) -> Addr {
        self.state.pc()
    }

    /// Reads an architectural register.
    pub(crate) fn reg(&self, r: ses_types::Reg) -> u64 {
        self.state.reg(r)
    }

    /// Reads a data-memory word.
    pub(crate) fn mem(&self, addr: Addr) -> u64 {
        self.mem.load(addr)
    }

    fn exec_one(&mut self, instr: Instruction, pc: Addr) -> StepEffect {
        use Opcode::*;
        let executed = self.state.pred(instr.qp);
        let fallthrough = pc.offset(INSTR_BYTES);
        let mut record = DynInstr {
            index: self.index,
            pc,
            instr,
            executed,
            reg_written: None,
            pred_written: None,
            side_effect: SideEffect::None,
            taken: instr.op.is_conditional_branch().then_some(false),
            next_pc: fallthrough,
            call_depth: self.depth,
        };
        self.index += 1;
        let mut halt = false;
        let mut next_pc = fallthrough;

        if executed {
            let s1 = self.state.reg(instr.src1);
            let s2 = self.state.reg(instr.src2);
            let rel = |imm: i32| Addr::new((pc.as_u64() as i64).wrapping_add(imm as i64) as u64);
            match instr.op {
                Add | Sub | Mul | And | Or | Xor | Shl | Shr | AddI | MovI => {
                    let v = match instr.op {
                        Add => s1.wrapping_add(s2),
                        Sub => s1.wrapping_sub(s2),
                        Mul => s1.wrapping_mul(s2),
                        And => s1 & s2,
                        Or => s1 | s2,
                        Xor => s1 ^ s2,
                        Shl => s1.wrapping_shl((s2 & 63) as u32),
                        Shr => s1.wrapping_shr((s2 & 63) as u32),
                        AddI => s1.wrapping_add(instr.imm as i64 as u64),
                        MovI => instr.imm as i64 as u64,
                        _ => unreachable!(),
                    };
                    self.state.set_reg(instr.dest, v);
                    if !instr.dest.is_zero() {
                        record.reg_written = Some(instr.dest);
                    }
                }
                CmpEq | CmpLt => {
                    let v = match instr.op {
                        CmpEq => s1 == s2,
                        CmpLt => (s1 as i64) < (s2 as i64),
                        _ => unreachable!(),
                    };
                    self.state.set_pred(instr.pdest, v);
                    if !instr.pdest.is_always_true() {
                        record.pred_written = Some(instr.pdest);
                    }
                }
                Ld => {
                    let addr =
                        Addr::new(s1.wrapping_add(instr.imm as i64 as u64)).block_base(8);
                    let v = self.mem.load(addr);
                    self.state.set_reg(instr.dest, v);
                    record.side_effect = SideEffect::MemRead(addr);
                    if !instr.dest.is_zero() {
                        record.reg_written = Some(instr.dest);
                    }
                }
                St => {
                    let addr =
                        Addr::new(s1.wrapping_add(instr.imm as i64 as u64)).block_base(8);
                    self.mem.store(addr, s2);
                    record.side_effect = SideEffect::MemWritten(addr);
                }
                Prefetch | Nop | Hint => {}
                Br => {
                    record.taken = Some(true);
                    next_pc = rel(instr.imm);
                }
                Jmp => {
                    next_pc = rel(instr.imm);
                }
                Call => {
                    self.state.set_reg(instr.dest, fallthrough.as_u64());
                    if !instr.dest.is_zero() {
                        record.reg_written = Some(instr.dest);
                    }
                    next_pc = rel(instr.imm);
                    self.depth += 1;
                }
                Ret => {
                    next_pc = Addr::new(s1);
                    self.depth = self.depth.saturating_sub(1);
                }
                Out => {
                    self.output.push(s1);
                    record.side_effect = SideEffect::Emitted(s1);
                }
                Halt => {
                    halt = true;
                }
            }
        }
        record.next_pc = next_pc;
        self.state.set_pc(next_pc);
        StepEffect { record, halt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_isa::ProgramBuilder;
    use ses_types::{Pred, Reg};

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    #[test]
    fn loop_with_counter_and_output() {
        // Sum 1..=5 with a backward branch, then print.
        let mut b = ProgramBuilder::new();
        b.push(Instruction::movi(r(1), 5)); // counter
        b.push(Instruction::movi(r(2), 0)); // sum
        let top = b.new_label();
        b.bind(top);
        b.push(Instruction::add(r(2), r(2), r(1)));
        b.push(Instruction::addi(r(1), r(1), -1));
        b.push(Instruction::cmp_lt(Pred::new(1), Reg::ZERO, r(1)));
        b.branch(Pred::new(1), top);
        b.push(Instruction::out(r(2)));
        b.push(Instruction::halt());
        let p = b.build().unwrap();

        let trace = Emulator::new(&p).run(10_000).unwrap();
        assert!(trace.halted());
        assert_eq!(trace.output(), &[15]);
        let s = trace.stats();
        assert_eq!(s.cond_branches, 5);
        assert_eq!(s.taken_branches, 4);
        assert_eq!(s.outputs, 1);
    }

    /// A recycled buffer yields the trace a fresh run records, stale
    /// records and all discarded, and keeps its allocation; a run cut by
    /// the budget reports it the same way.
    #[test]
    fn run_into_a_recycled_buffer_matches_a_fresh_run() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 7),
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        let stale = Emulator::new(&p).run(100).unwrap().into_entries();
        let mut buffer = [&stale[..]; 4].concat();
        buffer.reserve(64);
        let at = buffer.as_ptr();
        let recycled = Emulator::new(&p).run_into(100, buffer).unwrap();
        assert_eq!(recycled, Emulator::new(&p).run(100).unwrap());
        assert_eq!(recycled.entries().as_ptr(), at);
        let cut = Emulator::new(&p)
            .run_into(2, recycled.into_entries())
            .unwrap();
        assert_eq!(cut, Emulator::new(&p).run(2).unwrap());
        assert!(!cut.halted());
    }

    #[test]
    fn falsely_predicated_instruction_has_no_effect() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 7),
            // p1 is false at reset, so this add is falsely predicated.
            Instruction::addi(r(1), r(1), 100).guarded_by(Pred::new(1)),
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        let trace = Emulator::new(&p).run(100).unwrap();
        assert_eq!(trace.output(), &[7]);
        assert_eq!(trace.stats().falsely_predicated, 1);
        let e = &trace.entries()[1];
        assert!(!e.executed);
        assert_eq!(e.reg_written, None);
    }

    #[test]
    fn memory_roundtrip_and_dead_store_tracking_fields() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 0x2000),
            Instruction::movi(r(2), 99),
            Instruction::st(r(1), r(2), 0),
            Instruction::ld(r(3), r(1), 0),
            Instruction::out(r(3)),
            Instruction::halt(),
        ]);
        let trace = Emulator::new(&p).run(100).unwrap();
        assert_eq!(trace.output(), &[99]);
        assert_eq!(trace.entries()[2].mem_written(), Some(Addr::new(0x2000)));
        assert_eq!(trace.entries()[3].mem_read(), Some(Addr::new(0x2000)));
    }

    #[test]
    fn call_and_return_track_depth() {
        let mut b = ProgramBuilder::new();
        let func = b.new_label();
        let end = b.new_label();
        b.call(r(31), func); // 0, depth 0
        b.jump(end); // 1, depth 0
        b.bind(func);
        b.push(Instruction::movi(r(4), 1)); // 2, depth 1
        b.push(Instruction::ret(r(31))); // 3, depth 1
        b.bind(end);
        b.push(Instruction::halt()); // 4, depth 0
        let p = b.build().unwrap();
        let trace = Emulator::new(&p).run(100).unwrap();
        let depths: Vec<u32> = trace.entries().iter().map(|e| e.call_depth).collect();
        // Entries are in execution order: call, movi, ret, jmp, halt.
        assert_eq!(depths, vec![0, 1, 1, 0, 0]);
        // Execution order: call, movi, ret, jmp, halt.
        let pcs: Vec<u64> = trace
            .entries()
            .iter()
            .map(|e| (e.pc.as_u64() - p.entry().as_u64()) / 8)
            .collect();
        assert_eq!(pcs, vec![0, 2, 3, 1, 4]);
    }

    #[test]
    fn golden_run_faults_on_wild_fetch() {
        let p = Program::new(vec![Instruction::jmp(-64)]);
        let err = Emulator::new(&p).run(10).unwrap_err();
        assert!(err.to_string().contains("outside program image"));
    }

    #[test]
    fn budget_exhaustion_reports_not_halted() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top);
        b.jump(top);
        let p = b.build().unwrap();
        let trace = Emulator::new(&p).run(50).unwrap();
        assert!(!trace.halted());
        assert_eq!(trace.len(), 50);
    }

    #[test]
    fn override_changes_output() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 7),
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        // Corrupt dynamic instruction 0 into `movi r1 = 8`.
        let corrupted = ses_isa::encode(&Instruction::movi(r(1), 8));
        let outcome = Emulator::new(&p).run_with_override(0, corrupted, 100);
        assert_eq!(
            outcome,
            RunOutcome::Completed { output: vec![8] },
            "corrupted immediate must propagate to output"
        );
    }

    #[test]
    fn override_with_undecodable_word_crashes() {
        let p = Program::new(vec![Instruction::nop(), Instruction::halt()]);
        // Reserved bits set.
        let outcome = Emulator::new(&p).run_with_override(0, u64::MAX, 100);
        assert!(matches!(outcome, RunOutcome::Crashed { .. }));
    }

    #[test]
    fn override_into_infinite_loop_times_out() {
        let p = Program::new(vec![Instruction::nop(), Instruction::halt()]);
        // Turn the nop into `jmp +0` (self-loop).
        let corrupted = ses_isa::encode(&Instruction::jmp(0));
        // NOTE: the jump executes once at index 0, then control re-fetches
        // the original nop at the same pc -- but the override applies by
        // dynamic index, so only the first instance is corrupted... the
        // second fetch of the nop is index 1 and proceeds normally to halt.
        let outcome = Emulator::new(&p).run_with_override(0, corrupted, 100);
        assert_eq!(outcome, RunOutcome::Completed { output: vec![] });

        // A backward jump beyond the image crashes instead.
        let beyond = ses_isa::encode(&Instruction::jmp(-800));
        assert!(matches!(
            Emulator::new(&p).run_with_override(0, beyond, 100),
            RunOutcome::Crashed { .. }
        ));
    }

    #[test]
    fn masked_override_rejoins_the_golden_run_at_the_next_checkpoint() {
        // The first write of r2 is overwritten before anything reads it.
        let p = Program::new(vec![
            Instruction::movi(r(2), 5),
            Instruction::movi(r(2), 1),
            Instruction::movi(r(1), 7),
            Instruction::out(r(1)),
            Instruction::out(r(2)),
            Instruction::halt(),
        ]);
        let (golden, ckpts) = Emulator::new(&p).run_checkpointed(100, 2).unwrap();
        let masked = ses_isa::encode(&Instruction::movi(r(2), 6));
        let resumed = Emulator::resume_with_override(&p, &golden, &ckpts, 0, masked, 100);
        assert_eq!(resumed.converged_at, Some(2));
        assert_eq!(resumed.outcome, RunOutcome::Completed { output: vec![7, 1] });
        // One instruction short of the halt, the golden continuation (and
        // so the converged replay) times out.
        let short = Emulator::resume_with_override(&p, &golden, &ckpts, 0, masked, 5);
        assert_eq!(short.converged_at, Some(2));
        assert_eq!(short.outcome, RunOutcome::TimedOut);
        // A corruption that reaches the output never rejoins.
        let live = ses_isa::encode(&Instruction::movi(r(2), 2));
        let resumed = Emulator::resume_with_override(&p, &golden, &ckpts, 1, live, 100);
        assert_eq!(resumed.converged_at, None);
        assert_eq!(resumed.outcome, RunOutcome::Completed { output: vec![7, 2] });
    }

    #[test]
    fn benign_override_completes_identically() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 7),
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        // Corrupt an unread source-register field of `out`? out reads src1;
        // instead corrupt the dest field of the halt (halt ignores dest).
        let mut corrupted_halt = Instruction::halt();
        corrupted_halt.dest = r(9);
        let outcome = Emulator::new(&p).run_with_override(2, ses_isa::encode(&corrupted_halt), 100);
        assert_eq!(outcome, RunOutcome::Completed { output: vec![7] });
    }
}
