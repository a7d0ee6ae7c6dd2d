//! In-order, 6-wide, Itanium®2-like timing model with a 64-entry
//! instruction queue — the machine the paper evaluates (§5) — plus the
//! paper's two families of soft-error-rate reduction techniques:
//!
//! * **exposure reduction** (§3): instruction squashing and fetch
//!   throttling triggered by L0/L1 load misses, configured via
//!   [`SquashPolicy`] / [`ThrottlePolicy`];
//! * **false-DUE tracking** (§4): per-entry π and anti-π bits, the
//!   [`PetBuffer`], and the [`PiTracker`] state machine implementing the
//!   four π-bit scopes of §4.3.3, exercised end to end by the fault
//!   injector in `ses-faults`.
//!
//! The primary timing output is the instruction-queue **residency log**
//! ([`Residency`]): every occupancy interval of every queue slot, with its
//! occupant kind and read/retire times. `ses-avf` turns that log into SDC
//! and DUE AVFs.
//!
//! # Example
//!
//! ```
//! use ses_arch::Emulator;
//! use ses_pipeline::{Pipeline, PipelineConfig};
//! use ses_workloads::{synthesize, WorkloadSpec};
//!
//! let spec = WorkloadSpec::quick("demo", 7);
//! let program = synthesize(&spec);
//! let trace = Emulator::new(&program).run(100_000)?;
//! let result = Pipeline::new(PipelineConfig::default()).run(&program, &trace);
//! assert_eq!(result.committed, trace.len() as u64);
//! assert!(result.ipc().value() > 0.0);
//! # Ok::<(), ses_types::SesError>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod config;
mod detect;
mod engine;
mod frontend;
mod iq;
mod pet;
mod pibit;
mod predictor;
mod residency;
mod result;
mod telemetry;

pub use config::{
    IssueOrder, PipelineConfig, PredictorConfig, PredictorKind, SquashPolicy, ThrottlePolicy,
};
pub use detect::{
    parity_detects, Corruption, DetectionModel, Detector, EccReadOutcome, FaultOutcome, FaultSpec,
    SuppressReason, TrackingConfig,
};
pub use engine::{FaultRun, FaultWindow, ObservedRun, Observers, Pipeline, Snapshot};
pub use frontend::{FetchedInstr, FrontEnd, FrontEndStats};
pub use iq::{InstructionQueue, IqEntry};
pub use pet::{PetBuffer, PetEntry, PetVerdict};
pub use pibit::{PiScope, PiStep, PiTracker, SignalPoint};
pub use predictor::Gshare;
pub use residency::{Occupant, Residency, ResidencyEnd};
pub use result::PipelineResult;
pub use telemetry::{LifetimeHistogram, StageBucket, StageCounters};
