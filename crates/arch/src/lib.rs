//! Functional (architectural) emulator for SES-64 programs.
//!
//! The emulator executes a [`ses_isa::Program`] at architectural level and
//! produces:
//!
//! * an [`ExecutionTrace`] — one [`DynInstr`] record per committed-path
//!   dynamic instruction, carrying everything the timing model
//!   (`ses-pipeline`) and the ACE/dead-instruction analysis (`ses-avf`)
//!   need: actual branch outcomes and targets, guard evaluation (falsely
//!   predicated or not), register/memory def-use, and call depth;
//! * the program's **output stream** (values written by `out` instructions),
//!   which is the paper's notion of user-visible final state: a fault is an
//!   SDC only if this stream changes.
//!
//! The fault-injection engine re-runs the emulator with a corrupted
//! instruction word substituted at one dynamic position
//! ([`Emulator::run_with_override`]) and compares output streams against
//! the golden run. A golden run can capture [`Checkpoint`]s
//! ([`Emulator::run_checkpointed`]) so such a replay resumes just before
//! the corrupted index ([`Emulator::resume_with_override`]) instead of
//! re-executing the golden prefix, and stops at the first later
//! checkpoint where its machine state equals the golden one.
//!
//! # Example
//!
//! ```
//! use ses_arch::Emulator;
//! use ses_isa::{Instruction, Program};
//! use ses_types::Reg;
//!
//! let program = Program::new(vec![
//!     Instruction::movi(Reg::new(1), 21),
//!     Instruction::add(Reg::new(2), Reg::new(1), Reg::new(1)),
//!     Instruction::out(Reg::new(2)),
//!     Instruction::halt(),
//! ]);
//! let trace = Emulator::new(&program).run(1_000)?;
//! assert_eq!(trace.output(), &[42]);
//! # Ok::<(), ses_types::SesError>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod emu;
mod memory;
mod state;
mod stepper;
mod trace;

pub use emu::{Checkpoint, Emulator, MachineSnapshot, ResumedReplay, RunOutcome};
pub use memory::DataMemory;
pub use state::ArchState;
pub use stepper::Stepper;
pub use trace::{DynInstr, ExecutionTrace, SideEffect, TraceStats};
