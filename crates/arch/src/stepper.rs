//! Streaming emulation: step one instruction at a time.
//!
//! [`Emulator::run`](crate::Emulator::run) materialises the whole trace,
//! which is what the timing model and analyses want; for interactive use
//! (debuggers, watchpoints, incremental consumers) the [`Stepper`] yields
//! [`DynInstr`] records one at a time with bounded memory.

use ses_isa::Program;
use ses_types::{Addr, SesError};

use crate::emu::{Emulator, MachineSnapshot};
use crate::trace::DynInstr;

/// One-at-a-time emulation of a program.
///
/// # Example
///
/// ```
/// use ses_arch::Stepper;
/// use ses_isa::{Instruction, Program};
/// use ses_types::Reg;
///
/// let p = Program::new(vec![
///     Instruction::movi(Reg::new(1), 3),
///     Instruction::out(Reg::new(1)),
///     Instruction::halt(),
/// ]);
/// let mut s = Stepper::new(&p);
/// let first = s.step()?.expect("first instruction");
/// assert_eq!(first.reg_written, Some(Reg::new(1)));
/// assert!(s.step()?.is_some());
/// assert!(s.step()?.is_some(), "halt itself is a dynamic instruction");
/// assert!(s.step()?.is_none(), "then the stream ends");
/// assert_eq!(s.output(), &[3]);
/// # Ok::<(), ses_types::SesError>(())
/// ```
pub struct Stepper<'p> {
    inner: Emulator<'p>,
    halted: bool,
}

impl<'p> Stepper<'p> {
    /// Creates a stepper at the program's entry point.
    pub fn new(program: &'p Program) -> Self {
        Stepper {
            inner: Emulator::new(program),
            halted: false,
        }
    }

    /// Creates a stepper resuming from a captured machine snapshot. The
    /// output stream starts empty; emitted values appear in the stepped
    /// [`DynInstr`] records.
    pub fn from_snapshot(program: &'p Program, snap: MachineSnapshot) -> Self {
        Stepper {
            inner: Emulator::from_snapshot(program, snap),
            halted: false,
        }
    }

    /// Captures the machine state before the next instruction executes.
    pub fn snapshot(&self) -> MachineSnapshot {
        self.inner.snapshot()
    }

    /// Rewinds (or fast-forwards) the program counter. This is the region
    /// re-execution primitive: restore a snapshot, point the PC at the
    /// region entry, and step the region body again.
    pub fn set_pc(&mut self, pc: Addr) {
        self.inner.set_pc(pc);
    }

    /// Executes one instruction, returning its record, or `None` once the
    /// program has halted.
    ///
    /// # Errors
    ///
    /// Returns [`SesError::EmulationFault`] if control leaves the program
    /// image.
    pub fn step(&mut self) -> Result<Option<DynInstr>, SesError> {
        if self.halted {
            return Ok(None);
        }
        let (record, halt) = self.inner.step_once()?;
        if halt {
            self.halted = true;
        }
        Ok(Some(record))
    }

    /// Runs until `pred` matches a record or the program halts; returns
    /// the matching record.
    ///
    /// # Errors
    ///
    /// Propagates emulation faults.
    pub fn run_until(
        &mut self,
        mut pred: impl FnMut(&DynInstr) -> bool,
    ) -> Result<Option<DynInstr>, SesError> {
        while let Some(d) = self.step()? {
            if pred(&d) {
                return Ok(Some(d));
            }
        }
        Ok(None)
    }

    /// Whether the program has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Output emitted so far.
    pub fn output(&self) -> &[u64] {
        self.inner.output_so_far()
    }

    /// The current program counter.
    pub fn pc(&self) -> Addr {
        self.inner.pc()
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: ses_types::Reg) -> u64 {
        self.inner.reg(r)
    }

    /// Reads a data-memory word.
    pub fn mem(&self, addr: Addr) -> u64 {
        self.inner.mem(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_isa::Instruction;
    use ses_types::Reg;

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    #[test]
    fn stepper_matches_batch_run() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 4),
            Instruction::add(r(2), r(1), r(1)),
            Instruction::st(r(2), r(1), 0x100),
            Instruction::out(r(2)),
            Instruction::halt(),
        ]);
        let batch = Emulator::new(&p).run(100).unwrap();
        let mut s = Stepper::new(&p);
        let mut streamed = Vec::new();
        while let Some(d) = s.step().unwrap() {
            streamed.push(d);
        }
        assert_eq!(streamed.as_slice(), batch.entries());
        assert_eq!(s.output(), batch.output());
        assert!(s.halted());
        assert!(s.step().unwrap().is_none(), "idempotent after halt");
    }

    #[test]
    fn run_until_finds_a_store() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 0x2000),
            Instruction::movi(r(2), 9),
            Instruction::st(r(1), r(2), 0),
            Instruction::halt(),
        ]);
        let mut s = Stepper::new(&p);
        let hit = s.run_until(|d| d.is_store()).unwrap().expect("store found");
        assert_eq!(hit.mem_written(), Some(Addr::new(0x2000)));
        assert_eq!(s.mem(Addr::new(0x2000)), 9, "state visible at the stop");
        assert_eq!(s.reg(r(2)), 9);
    }

    #[test]
    fn run_until_returns_none_at_halt() {
        let p = Program::new(vec![Instruction::nop(), Instruction::halt()]);
        let mut s = Stepper::new(&p);
        assert!(s.run_until(|d| d.is_store()).unwrap().is_none());
        assert!(s.halted());
    }

    #[test]
    fn fault_surfaces_as_error() {
        let p = Program::new(vec![Instruction::jmp(-800)]);
        let mut s = Stepper::new(&p);
        assert!(s.step().unwrap().is_some(), "the jump itself executes");
        assert!(s.step().is_err(), "then the wild fetch faults");
    }
}
