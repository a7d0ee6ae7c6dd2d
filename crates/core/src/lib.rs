//! Public facade of the soft-error-rate reproduction suite.
//!
//! This crate ties the substrates together into the workflow a user
//! actually wants:
//!
//! 1. pick a workload (one of the 26 suite entries, or a custom
//!    [`WorkloadSpec`]);
//! 2. pick a machine configuration ([`PipelineConfig`], optionally with
//!    the paper's squash/throttle exposure-reduction actions);
//! 3. [`run_workload`] → a [`WorkloadRun`] bundling the functional trace,
//!    dead-instruction map, timing result and AVF analysis;
//! 4. summarise ([`WorkloadRun::summary`]) or sweep the whole suite
//!    ([`run_suite`] / [`run_suite_with`]).
//!
//! The [`job`] module is the request model the `ser-repro` CLI and the
//! daemon share: campaign, suite, ecc-grid and fuzz jobs parsed from
//! arguments or JSON, run into typed outputs, rendered as artifacts.
//! Its golden runs are held in the [`cache`] module's single-flight LRU,
//! the same cache the daemon keeps its rendered artifacts in.
//!
//! # Example
//!
//! ```
//! use ses_core::{run_workload, PipelineConfig, WorkloadSpec};
//!
//! let spec = WorkloadSpec::quick("hello", 1);
//! let run = run_workload(&spec, &PipelineConfig::default())?;
//! let s = run.summary();
//! assert!(s.due_avf.fraction() >= s.sdc_avf.fraction());
//! # Ok::<(), ses_types::SesError>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
mod compare;
pub mod job;
mod run;
mod suite_runner;
pub mod telemetry;

pub use compare::{compare_suites, Comparison};
pub use run::{
    run_workload, run_workload_in, BenchSummary, RunBuffers, TechniqueCoverage, WorkloadRun,
};
pub use suite_runner::{run_suite, run_suite_with};

// Re-export the vocabulary a downstream user needs, so `ses-core` is a
// one-stop dependency.
pub use ses_avf::{
    AvfAnalysis, BoundaryKind, DeadKind, DeadMap, FalseDueCause, KindAvf, RegFileAvf, Region,
    RegionFault, RegionMap, StateFractions, Technique, TimelinePoint,
};
pub use ses_faults::{
    build_strata, build_strata_with, class_instances, ecc_fault, mask_for_class, read_probability,
    run_ecc_campaign, AdaptiveCampaignConfig, AdaptiveCampaignReport, AdaptiveSession, Campaign,
    CampaignConfig, CampaignPerf, CampaignReport, DetailedReport, EccCampaignConfig,
    EccCampaignReport, GoldenRun, LatencyDistribution, MetricKind, Outcome, PatternDistribution,
    PatternModel, PruneReport, RecoveryDecision, RecoveryPolicy, RecoveryReport, ResidualModel,
    StratumReport, UniformRun,
};
pub use ses_mem::{ClassProfile, EccClass, EccDomain, EccScheme, Level, WordVerdict};
pub use ses_metrics::binomial_ci95;
pub use ses_metrics::{fit_to_mttf, raw_fit_per_bit, Environment, TechNode};
pub use ses_metrics::{geomean, mean, RateInterval, RatePoint, ReliabilityModel, Table};
pub use ses_metrics::{JsonParseError, JsonValue, TelemetryLevel, SCHEMA_VERSION};
pub use ses_oracle::{
    check_program, run_fuzz, splitmix64, Divergence, DivergenceKind, FuzzConfig, FuzzFailure,
    FuzzReport, InjectionCheck, OracleConfig,
};
pub use ses_pipeline::{
    DetectionModel, FaultSpec, IssueOrder, PiScope, Pipeline, PipelineConfig, PipelineResult,
    PredictorKind, Snapshot, SquashPolicy, ThrottlePolicy, TrackingConfig,
};
pub use ses_sampler::{
    AdaptiveCheckpoint, AdaptiveConfig, AdaptiveScheduler, BitClass, FaultCoord, OccupancyProfile,
    PatternClass, RoundRecord, Strata, StratifiedEstimate, StratumKey,
};
pub use ses_types::{Avf, Cycle, Fit, Ipc, Mitf, Mttf, SesError};
pub use ses_workloads::{spec_by_name, suite, synthesize, Category, TraceMix, WorkloadSpec};
