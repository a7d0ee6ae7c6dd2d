//! Adaptive stratified sampling for fault-injection campaigns.
//!
//! A uniform campaign over the (cycle × slot × bit) injection space wastes
//! most of its budget on strata whose outcome is already known to tight
//! confidence: idle cycle windows, payload bits, drained queue regions.
//! This crate partitions the finite injection space into strata keyed by
//! (queue region, bit-field class, occupancy-bucketed cycle window),
//! allocates trials across strata by Neyman allocation (per-stratum
//! outcome variance), refines in rounds, and stops each stratum early
//! once its binomial confidence interval is narrower than the requested
//! half-width. The post-stratified estimator recombines per-stratum
//! proportions with exact partition weights, so it equals the uniform
//! estimator in expectation while reaching a given aggregate half-width
//! in a fraction of the trials.
//!
//! The crate is simulator-agnostic: it plans [`Trial`]s (coordinates in
//! the injection space) and consumes boolean event observations. The
//! `ses-faults` campaign engine executes the trials on its checkpointed
//! parallel path; the property suite drives the same scheduler with
//! synthetic outcome functions to pin the estimator algebra exactly.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod adaptive;
mod stratify;

pub use adaptive::{
    AdaptiveCheckpoint, AdaptiveConfig, AdaptiveScheduler, RoundRecord, StratifiedEstimate,
    StratumCheckpoint, StratumEstimate, StratumState, Trial,
};
pub use stratify::{
    lifetime_cells, BitClass, FaultCoord, LifetimeCell, OccupancyProfile, PatternClass, Phase,
    Strata, Stratum, StratumKey, OCC_BUCKETS,
};

// The span geometry the cells derive from is ses-avf's canonical
// interval representation; re-exported so campaign code can name it
// without depending on ses-avf directly.
pub use ses_avf::{lifetime_spans, LifetimeSpan};

/// SplitMix64: the canonical 64-bit seed mixer. One application per
/// (stratum × round) derives independent, thread-count-invariant sample
/// streams from a single campaign seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs for the standard SplitMix64 finalizer.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_ne!(splitmix64(2), splitmix64(3));
    }
}
