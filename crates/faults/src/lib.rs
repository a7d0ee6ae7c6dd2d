//! Single-bit fault-injection campaigns.
//!
//! Statistical fault injection is the alternative AVF methodology the paper
//! cites (Kim & Somani; Wang et al.): strike random (cycle, entry, bit)
//! coordinates of the instruction queue, follow each fault through the
//! timing model under a chosen detection model, and classify the final
//! outcome against the golden run's output — reproducing the paper's
//! Figure 1 taxonomy empirically:
//!
//! 1. benign — the faulty bit was never read (idle, Ex-ACE, discarded);
//! 2. SDC — no detection and the program output changed;
//! 3. false DUE — a machine check fired although the output would have
//!    been unaffected;
//! 4. true DUE — a machine check fired and the output would indeed have
//!    been corrupted;
//! 5. suppressed — π-bit tracking proved the error harmless and stayed
//!    silent (split into genuinely-safe and the rare unsound case where
//!    the output would actually have changed, which the campaign reports
//!    honestly as `SuppressedSdc`).
//!
//! Campaign estimates converge to the analytic AVFs of `ses-avf`, which is
//! exercised as an integration-level cross-validation.
//!
//! # Example
//!
//! ```
//! use ses_faults::{Campaign, CampaignConfig};
//! use ses_pipeline::DetectionModel;
//! use ses_workloads::WorkloadSpec;
//!
//! let spec = WorkloadSpec::quick("fi-demo", 5);
//! let config = CampaignConfig {
//!     injections: 20,
//!     seed: 1,
//!     detection: DetectionModel::Parity { tracking: None },
//!     ..CampaignConfig::default()
//! };
//! let report = Campaign::prepare(&spec, config)?.run();
//! assert_eq!(report.total(), 20);
//! # Ok::<(), ses_types::SesError>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod adaptive;
mod campaign;
mod ecc_campaign;
mod outcome;
mod pattern;
mod recovery;
mod report;

pub use adaptive::{
    build_strata, build_strata_with, AdaptiveCampaignConfig, AdaptiveCampaignReport,
    AdaptiveSession, MetricKind, PatternModel, StratumReport,
};
pub use campaign::{Campaign, CampaignConfig, DetailedReport, GoldenRun, UniformRun};
pub use ecc_campaign::{read_probability, run_ecc_campaign, EccCampaignConfig, EccCampaignReport};
pub use outcome::Outcome;
pub use pattern::{class_instances, ecc_fault, mask_for_class, PatternDistribution, ResidualModel};
pub use recovery::{LatencyDistribution, RecoveryDecision, RecoveryPolicy, RecoveryReport};
pub use report::{CampaignPerf, CampaignReport, PruneReport};
