//! Adaptive stratified campaigns: the `ses-sampler` scheduler driven by
//! the checkpointed injection engine.
//!
//! An [`AdaptiveSession`] binds an [`AdaptiveScheduler`] to a prepared
//! [`Campaign`]: the scheduler plans each round (which strata get how
//! many trials, at which exact coordinates), the session evaluates the
//! round as one [`Campaign::inject_batch`], and the observed
//! outcomes flow back as Bernoulli events of the chosen [`MetricKind`].
//! Because planning is single-threaded and evaluation preserves trial
//! order, the whole campaign — trajectory, per-stratum counts, final
//! estimate — is invariant under worker-thread count, and
//! [`AdaptiveSession::checkpoint`] / [`AdaptiveSession::resume`] make a
//! mid-campaign stop invisible in the artifact.

use ses_mem::EccDomain;
use ses_metrics::{RateInterval, ReliabilityModel};
use ses_pipeline::FaultSpec;
use ses_sampler::{
    lifetime_cells, splitmix64, AdaptiveCheckpoint, AdaptiveConfig, AdaptiveScheduler,
    OccupancyProfile, RoundRecord, Strata, StratifiedEstimate, StratumState, Trial,
};
use ses_types::{Cycle, Ipc};

use crate::campaign::Campaign;
use crate::outcome::Outcome;
use crate::pattern::{ecc_fault, mask_for_class, PatternDistribution};

/// Cycle windows the occupancy profile buckets the run into.
const OCC_WINDOWS: usize = 16;

/// Which campaign outcome counts as the Bernoulli event being estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Silent-corruption events (SDC, unsound suppression, hang): the
    /// statistical SDC AVF.
    SdcAvf,
    /// Machine-check events (false or true DUE): the statistical DUE AVF.
    DueAvf,
}

impl MetricKind {
    /// Whether `outcome` is this metric's event.
    pub fn is_event(self, outcome: Outcome) -> bool {
        match self {
            MetricKind::SdcAvf => matches!(
                outcome,
                Outcome::Sdc | Outcome::SuppressedSdc | Outcome::Hang
            ),
            MetricKind::DueAvf => outcome.is_due(),
        }
    }

    /// Stable label for telemetry artifacts.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::SdcAvf => "sdc_avf",
            MetricKind::DueAvf => "due_avf",
        }
    }
}

/// Spatial-strike configuration of an adaptive campaign: the pattern
/// distribution the strikes are drawn from and the ECC domain that
/// filters them. Adding this crosses the stratification with a
/// pattern-class axis, so the scheduler steers trials toward the classes
/// that still produce events under the domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternModel {
    /// Pattern-class distribution (integer permille weights double as
    /// exact stratum-replication factors).
    pub distribution: PatternDistribution,
    /// The protection domain guarding every stored word.
    pub domain: EccDomain,
}

/// Configuration of an adaptive stratified campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCampaignConfig {
    /// Scheduler parameters (target half-width, pilot size, round budget,
    /// seed).
    pub adaptive: AdaptiveConfig,
    /// The metric whose proportion is estimated.
    pub metric: MetricKind,
    /// Spatial multi-bit strike model; `None` keeps the classic
    /// single-bit campaign (and its artifact bytes) unchanged.
    pub pattern: Option<PatternModel>,
}

impl Default for AdaptiveCampaignConfig {
    fn default() -> Self {
        AdaptiveCampaignConfig {
            adaptive: AdaptiveConfig::default(),
            metric: MetricKind::SdcAvf,
            pattern: None,
        }
    }
}

/// Builds the injection-space partition for a prepared campaign.
///
/// The golden run's residency lifetimes feed three things: the occupancy
/// profile that buckets cycle windows, the live/Ex-ACE-tail phase split
/// of every occupied span (a strike after the last issue read lands in
/// dead state), and the idle-coordinate mask (a strike on an empty slot
/// resolves benign by construction, so those coordinates weight into the
/// estimate at exactly zero without being sampled). Strata plus the
/// masked mass cover `baseline_cycles × iq_entries × 64` exactly.
pub fn build_strata(campaign: &Campaign) -> Strata {
    let cycles = campaign.baseline_cycles().max(1);
    let iq = campaign.iq_entries();
    let spans = campaign.lifetime_spans();
    let profile = OccupancyProfile::from_intervals(
        cycles,
        iq,
        spans.iter().map(|s| s.occupancy()),
        OCC_WINDOWS,
    );
    // The live/tail split comes from the spans themselves (ses-avf's
    // canonical boundary), via the sampler's shared cell derivation.
    let cells = lifetime_cells(spans);
    Strata::build_cells(cycles, iq, &profile, &cells)
}

/// [`build_strata`], optionally crossed with the pattern-class axis of a
/// [`PatternModel`]: each geometric stratum is replicated per non-zero
/// pattern class, weighted by the class's distribution mass.
pub fn build_strata_with(campaign: &Campaign, pattern: Option<&PatternModel>) -> Strata {
    let base = build_strata(campaign);
    match pattern {
        None => base,
        Some(p) => {
            let weights: Vec<_> = p
                .distribution
                .class_weights()
                .into_iter()
                .filter(|&(_, w)| w > 0)
                .collect();
            base.with_pattern_classes(&weights)
        }
    }
}

/// One adaptive campaign in flight over a prepared [`Campaign`].
pub struct AdaptiveSession<'c> {
    campaign: &'c Campaign,
    scheduler: AdaptiveScheduler,
    metric: MetricKind,
    pattern: Option<PatternModel>,
    seed: u64,
}

impl<'c> AdaptiveSession<'c> {
    /// Starts a fresh session over a prepared campaign.
    pub fn new(campaign: &'c Campaign, cfg: AdaptiveCampaignConfig) -> Self {
        let seed = cfg.adaptive.seed;
        AdaptiveSession {
            scheduler: AdaptiveScheduler::new(
                build_strata_with(campaign, cfg.pattern.as_ref()),
                cfg.adaptive,
            ),
            campaign,
            metric: cfg.metric,
            pattern: cfg.pattern,
            seed,
        }
    }

    /// Resumes a session from a mid-campaign checkpoint taken over an
    /// identically prepared campaign and configuration. The continued
    /// run plans exactly the rounds an uninterrupted run would have.
    pub fn resume(
        campaign: &'c Campaign,
        cfg: AdaptiveCampaignConfig,
        ckpt: &AdaptiveCheckpoint,
    ) -> Self {
        let seed = cfg.adaptive.seed;
        AdaptiveSession {
            scheduler: AdaptiveScheduler::restore(
                build_strata_with(campaign, cfg.pattern.as_ref()),
                cfg.adaptive,
                ckpt,
            ),
            campaign,
            metric: cfg.metric,
            pattern: cfg.pattern,
            seed,
        }
    }

    /// Plans one round and evaluates it as one injection batch, with the
    /// ECC verdict precomputed per trial. Returns `false` when the
    /// campaign had already stopped (no round was run).
    pub fn step_round(&mut self) -> bool {
        let plan: Vec<Trial> = self.scheduler.plan_round();
        if plan.is_empty() {
            return false;
        }
        let strata = self.scheduler.strata();
        let strikes: Vec<Option<FaultSpec>> = plan
            .iter()
            .map(|t| {
                let cycle = Cycle::new(t.coord.cycle);
                let Some(class) = strata.strata()[t.stratum].key.pattern else {
                    return Some(FaultSpec::single(cycle, t.coord.slot, t.coord.bit));
                };
                let model = self
                    .pattern
                    .expect("pattern-stratified partition implies a pattern model");
                // Extra placement randomness (only random doubles consume
                // it), derived from the coordinate so it is identical
                // across thread counts and resume.
                let aux = splitmix64(
                    self.seed
                        ^ t.coord.cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (t.coord.slot as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                        ^ u64::from(t.coord.bit),
                );
                let mask = mask_for_class(class, t.coord.bit, aux);
                ecc_fault(&model.domain, cycle, t.coord.slot, mask)
            })
            .collect();
        let events: Vec<bool> = self
            .campaign
            .inject_strikes(&strikes)
            .into_iter()
            .map(|outcome| self.metric.is_event(outcome))
            .collect();
        self.scheduler.record_round(&plan, &events);
        true
    }

    /// Runs rounds until the scheduler's stopping condition holds.
    pub fn run(&mut self) -> AdaptiveCampaignReport {
        while self.step_round() {}
        self.report()
    }

    /// Captures the scheduler state for a later [`AdaptiveSession::resume`].
    pub fn checkpoint(&self) -> AdaptiveCheckpoint {
        self.scheduler.checkpoint()
    }

    /// The underlying scheduler (trajectory, per-stratum states).
    pub fn scheduler(&self) -> &AdaptiveScheduler {
        &self.scheduler
    }

    /// Whether the campaign has reached its stopping condition.
    pub fn done(&self) -> bool {
        self.scheduler.done()
    }

    /// Summarises the session into a report (valid at any point, final
    /// once [`AdaptiveSession::done`]).
    pub fn report(&self) -> AdaptiveCampaignReport {
        let estimate = self.scheduler.estimate();
        let strata = self.scheduler.strata();
        let per_stratum: Vec<StratumReport> = strata
            .strata()
            .iter()
            .zip(self.scheduler.states())
            .map(|(s, st)| StratumReport {
                label: s.key.label(),
                size: s.size(),
                weight: s.size() as f64 / strata.total_size() as f64,
                state: *st,
            })
            .collect();
        AdaptiveCampaignReport {
            metric: self.metric,
            ipc: self.campaign.baseline_ipc(),
            space_size: strata.total_size(),
            masked_size: strata.masked_size(),
            total_trials: self.scheduler.total_trials(),
            rounds: self.scheduler.rounds_done(),
            trajectory: self.scheduler.trajectory().to_vec(),
            strata: per_stratum,
            estimate,
        }
    }
}

/// Final state of one stratum as reported in the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumReport {
    /// Stable stratum label, e.g. `q1/control/live/occ3`.
    pub label: String,
    /// Coordinates in the stratum.
    pub size: u64,
    /// Exact partition weight.
    pub weight: f64,
    /// Observation state (trials, events, exhausted, stop round).
    pub state: StratumState,
}

/// The result of an adaptive stratified campaign, with honest intervals
/// end to end: per-stratum CIs, the propagated aggregate CI, and the
/// FIT/MTTF/MITF interval the reliability model derives from it.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCampaignReport {
    /// The estimated metric.
    pub metric: MetricKind,
    /// Fault-free IPC of the workload (pairs with the AVF in MITF).
    pub ipc: f64,
    /// Size of the injection space (`cycles × slots × 64`).
    pub space_size: u64,
    /// Coordinates excluded from sampling because a strike there is
    /// benign by construction (empty queue slot): they enter the
    /// post-stratified weights as an exact-zero stratum.
    pub masked_size: u64,
    /// Total trials spent.
    pub total_trials: u64,
    /// Rounds executed.
    pub rounds: u32,
    /// Per-round convergence trajectory.
    pub trajectory: Vec<RoundRecord>,
    /// Per-stratum final states in stable stratum order.
    pub strata: Vec<StratumReport>,
    /// The post-stratified estimate with its propagated interval.
    pub estimate: StratifiedEstimate,
}

impl AdaptiveCampaignReport {
    /// Trials a uniform campaign would need to reach this report's
    /// *achieved* aggregate half-width at the same estimated proportion
    /// (`n = p(1-p)(1.96/h)²`). A fully exhaustive campaign (half-width
    /// zero) is only matched by enumerating the whole space.
    pub fn uniform_equivalent_trials(&self) -> u64 {
        let p = self.estimate.estimate;
        let h = self.estimate.halfwidth;
        if h <= 0.0 {
            return self.space_size;
        }
        let n = (p * (1.0 - p) * (1.96 / h).powi(2)).ceil();
        (n as u64).max(1)
    }

    /// The trial-count advantage over uniform sampling at equal achieved
    /// half-width (>1 means the adaptive campaign was cheaper).
    pub fn uniform_savings(&self) -> f64 {
        if self.total_trials == 0 {
            return 0.0;
        }
        self.uniform_equivalent_trials() as f64 / self.total_trials as f64
    }

    /// Propagates the AVF interval through the reliability model into a
    /// FIT/MTTF/MITF interval.
    pub fn rate_interval(&self, model: &ReliabilityModel) -> RateInterval {
        model.rate_interval(
            Ipc::new(self.ipc),
            self.estimate.estimate,
            self.estimate.halfwidth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, GoldenRun};
    use ses_pipeline::{DetectionModel, PipelineConfig};
    use ses_workloads::WorkloadSpec;
    use std::sync::Arc;

    fn small_config(threads: usize) -> CampaignConfig {
        CampaignConfig {
            seed: 42,
            detection: DetectionModel::None,
            threads,
            pipeline: PipelineConfig {
                iq_entries: 8,
                ..PipelineConfig::default()
            },
            ..CampaignConfig::default()
        }
    }

    fn small_golden() -> Arc<GoldenRun> {
        let spec = WorkloadSpec::quick("adaptive-unit", 17);
        Arc::new(GoldenRun::prepare(&spec, &small_config(0)).unwrap())
    }

    fn small_campaign(threads: usize) -> Campaign {
        Campaign::on(small_golden(), small_config(threads))
    }

    fn quick_adaptive() -> AdaptiveCampaignConfig {
        AdaptiveCampaignConfig {
            adaptive: AdaptiveConfig {
                target_halfwidth: 0.12,
                min_per_stratum: 6,
                round_budget: 96,
                max_rounds: 12,
                exhaust_threshold: 0,
                seed: 7,
            },
            metric: MetricKind::SdcAvf,
            pattern: None,
        }
    }

    #[test]
    fn strata_cover_the_whole_injection_space() {
        let c = small_campaign(1);
        let strata = build_strata(&c);
        assert_eq!(
            strata.total_size(),
            c.baseline_cycles() * c.iq_entries() as u64 * 64
        );
        let covered: u64 = strata.strata().iter().map(|s| s.size()).sum();
        assert_eq!(covered + strata.masked_size(), strata.total_size());
        // The masked mass is exactly the idle slot-cycles: occupied
        // cycles per the residency log, times 64 bits, is the sampled
        // size.
        let occupied: u64 = c.lifetime_spans().iter().map(|s| s.valid_cycles()).sum();
        assert_eq!(strata.sampled_size(), occupied * 64);
    }

    #[test]
    fn session_is_thread_count_invariant() {
        let golden = small_golden();
        let run = |threads| {
            let c = Campaign::on(Arc::clone(&golden), small_config(threads));
            let mut s = AdaptiveSession::new(&c, quick_adaptive());
            s.run()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four, "report must not depend on worker threads");
    }

    #[test]
    fn resume_matches_uninterrupted_run() {
        let c = small_campaign(2);
        let mut full = AdaptiveSession::new(&c, quick_adaptive());
        let full_report = full.run();

        let mut first = AdaptiveSession::new(&c, quick_adaptive());
        assert!(first.step_round());
        let ckpt = first.checkpoint();
        let mut resumed = AdaptiveSession::resume(&c, quick_adaptive(), &ckpt);
        let resumed_report = resumed.run();
        assert_eq!(full_report, resumed_report);
    }

    #[test]
    fn estimate_stays_within_reason_and_saves_trials() {
        let c = small_campaign(2);
        // A tight target: the regime adaptive sampling is built for
        // (at loose targets the pilot round alone exceeds the handful
        // of trials uniform sampling would need).
        let mut cfg = quick_adaptive();
        cfg.adaptive.target_halfwidth = 0.03;
        cfg.adaptive.round_budget = 512;
        let report = AdaptiveSession::new(&c, cfg).run();
        assert!(report.total_trials > 0);
        assert!(report.estimate.estimate >= 0.0 && report.estimate.estimate <= 1.0);
        assert!(report.rounds >= 1);
        // At a tight target the masked idle mass and the low-variance
        // tail strata must beat uniform sampling at equal achieved
        // half-width.
        assert!(report.uniform_savings() >= 1.0, "adaptive must not lose");
        let (plo, phi) = report.estimate.interval();
        let (ulo, uhi) = report.estimate.union_bound();
        assert!(plo >= ulo - 1e-12 && phi <= uhi + 1e-12);
    }

    #[test]
    fn masked_coordinates_are_benign_by_construction() {
        let c = small_campaign(1);
        let strata = build_strata(&c);
        assert!(strata.masked_size() > 0, "quick run leaves idle slots");
        // Scan for idle coordinates and check the engine agrees they
        // resolve benign — the soundness condition for excluding them
        // from sampling.
        let masked: Vec<FaultSpec> = (0..c.baseline_cycles())
            .flat_map(|cycle| (0..c.iq_entries()).map(move |slot| (cycle, slot)))
            .filter(|&(cycle, slot)| {
                let coord = ses_sampler::FaultCoord {
                    cycle,
                    slot,
                    bit: 0,
                };
                strata.stratum_of(&coord).is_none()
            })
            .take(25)
            .flat_map(|(cycle, slot)| {
                [0u32, 31, 63].map(|bit| FaultSpec::single(Cycle::new(cycle), slot, bit))
            })
            .collect();
        assert!(!masked.is_empty(), "no masked coordinate found to check");
        for &(fault, outcome) in c.inject_batch(&masked).samples() {
            assert_eq!(
                outcome,
                Outcome::Benign,
                "masked coordinate {fault:?} must be idle"
            );
        }
    }

    #[test]
    fn pattern_session_is_thread_count_invariant_and_resumable() {
        use ses_mem::{EccDomain, EccScheme};
        let cfg = || AdaptiveCampaignConfig {
            metric: MetricKind::DueAvf,
            pattern: Some(PatternModel {
                distribution: PatternDistribution::default(),
                domain: EccDomain::new(EccScheme::SecDed),
            }),
            ..quick_adaptive()
        };
        let golden = small_golden();
        let campaign = |threads| Campaign::on(Arc::clone(&golden), small_config(threads));
        let one = AdaptiveSession::new(&campaign(1), cfg()).run();
        let two = AdaptiveSession::new(&campaign(2), cfg()).run();
        assert_eq!(one, two, "pattern report must not depend on threads");

        let c = campaign(2);
        let mut first = AdaptiveSession::new(&c, cfg());
        assert!(first.step_round());
        let ckpt = first.checkpoint();
        let resumed = AdaptiveSession::resume(&c, cfg(), &ckpt).run();
        assert_eq!(one, resumed, "resume must match the uninterrupted run");
        // Stratum labels carry the pattern-class suffix.
        assert!(one.strata.iter().any(|s| s.label.ends_with("/single")));
        assert!(one
            .strata
            .iter()
            .any(|s| s.label.ends_with("/random-double")));
    }

    #[test]
    fn pattern_strata_weights_carry_the_distribution() {
        let c = small_campaign(1);
        let model = PatternModel {
            distribution: PatternDistribution::default(),
            domain: EccDomain::new(ses_mem::EccScheme::HammingSec),
        };
        let base = build_strata(&c);
        let crossed = build_strata_with(&c, Some(&model));
        assert_eq!(crossed.len(), base.len() * 4);
        assert_eq!(crossed.total_size(), base.total_size() * 1000);
        assert_eq!(crossed.masked_size(), base.masked_size() * 1000);
        // Summed over strata, each class holds exactly its distribution
        // mass of the sampled space.
        let class_mass: u64 = crossed
            .strata()
            .iter()
            .filter(|s| s.key.pattern == Some(ses_sampler::PatternClass::Single))
            .map(|s| s.size())
            .sum();
        assert_eq!(class_mass, base.sampled_size() * 850);
    }

    #[test]
    fn metric_kinds_partition_outcomes() {
        for o in Outcome::ALL {
            assert!(
                !(MetricKind::SdcAvf.is_event(o) && MetricKind::DueAvf.is_event(o)),
                "{o:?} cannot be both SDC and DUE"
            );
        }
        assert!(MetricKind::SdcAvf.is_event(Outcome::Hang));
        assert!(MetricKind::DueAvf.is_event(Outcome::FalseDue));
    }
}
