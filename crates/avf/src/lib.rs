//! ACE analysis and AVF computation (the methodology of Mukherjee et al.
//! [MICRO 2003], extended by the paper to DUE rates).
//!
//! Pipeline: run the timing model (`ses-pipeline`) to get the
//! instruction-queue residency log, run [`DeadMap::analyze`] over the
//! functional trace to classify dynamically dead instructions, then feed
//! both to [`AvfAnalysis`] to obtain:
//!
//! * the **SDC AVF** of the unprotected queue (ACE bit-cycles / total);
//! * the **DUE AVF** of the parity-protected queue, decomposed into true
//!   DUE (= SDC AVF) and false DUE (§2.2);
//! * the false-DUE breakdown by cause, and the **coverage** each of the
//!   paper's tracking techniques achieves (§4.3, Figure 2);
//! * PET-buffer coverage as a function of capacity (Figure 3) directly
//!   from the dead map's kill-distance distribution.
//!
//! # Example
//!
//! ```
//! use ses_arch::Emulator;
//! use ses_avf::{AvfAnalysis, DeadMap};
//! use ses_pipeline::{Pipeline, PipelineConfig};
//! use ses_workloads::{synthesize, WorkloadSpec};
//!
//! let spec = WorkloadSpec::quick("demo", 3);
//! let program = synthesize(&spec);
//! let trace = Emulator::new(&program).run(100_000)?;
//! let dead = DeadMap::analyze(&trace);
//! let result = Pipeline::new(PipelineConfig::default()).run(&program, &trace);
//! let avf = AvfAnalysis::new(&result, &dead);
//! assert!(avf.due_avf().fraction() >= avf.sdc_avf().fraction());
//! # Ok::<(), ses_types::SesError>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod ace;
mod avf;
mod dead;
pub mod exhaustive;
mod regfile;
pub mod region;
pub mod span;

pub use ace::{classify, FalseDueCause, ResidencyBits};
pub use avf::{
    AvfAnalysis, BitCycleDecomposition, KindAvf, StateFractions, Technique, TimelinePoint,
};
pub use dead::{DeadInfo, DeadKind, DeadMap};
pub use regfile::RegFileAvf;
pub use region::{BoundaryKind, Region, RegionFault, RegionMap};
pub use span::{
    lifetime_spans, LifetimeSpan, ResidencySpans, Segment, SpanClass, SpanSet, StrikeIndex,
};
