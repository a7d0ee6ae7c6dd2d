//! Round-based adaptive trial scheduling over a stratified injection
//! space.
//!
//! The scheduler is a deterministic state machine: given the strata, a
//! configuration, and the sequence of observed trial outcomes, the plan
//! of every round is a pure function — independent of thread count,
//! timing, and of whether the campaign was stopped and resumed in
//! between ([`AdaptiveCheckpoint`] captures the whole state).
//!
//! * **Round 0 (pilot)** — every stratum receives `min_per_stratum`
//!   trials; strata no larger than `exhaust_threshold` are instead
//!   enumerated exhaustively (their estimate is then exact and their
//!   interval collapses to zero).
//! * **Refinement rounds** — `round_budget` trials are split across the
//!   still-active strata by Neyman allocation: proportional to
//!   `weight × σ`, with σ from a Laplace-smoothed proportion so a
//!   lucky zero-event pilot cannot permanently starve a stratum, and
//!   capped per stratum at the trials it still needs to close.
//! * **Early stopping** — a stratum leaves the active set once its
//!   binomial 95 % half-width ([`ses_metrics::binomial_ci95`]) is at or
//!   below its *fair share* of the aggregate target,
//!   `target_halfwidth / (wₛ √K)` for `K` strata: low-weight strata
//!   barely move the aggregate interval and stop after the pilot, while
//!   heavy noisy strata keep sampling. The campaign stops as soon as
//!   the propagated aggregate half-width `sqrt(Σ (wₛ hₛ)²)` is at or
//!   below `target_halfwidth` (or no stratum is active, or at the
//!   `max_rounds` safety cap).
//!
//! Sample coordinates derive from `splitmix64(seed, stratum, round)`
//! streams, so the artifact a campaign produces is invariant under
//! worker-thread count and stop/resume.

use ses_metrics::binomial_ci95;

use crate::splitmix64;
use crate::stratify::{FaultCoord, Strata};

/// Configuration of one adaptive campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Aggregate 95 % CI half-width the campaign drives the
    /// post-stratified estimate down to. Each stratum individually stops
    /// once its own CI reaches its fair share, `target / (wₛ √K)`.
    pub target_halfwidth: f64,
    /// Pilot trials per stratum (also the floor below which a stratum
    /// never stops, so a single lucky trial cannot close a stratum).
    pub min_per_stratum: u32,
    /// Trials distributed per refinement round by Neyman allocation.
    pub round_budget: u32,
    /// Safety cap on refinement rounds.
    pub max_rounds: u32,
    /// Strata at most this large are enumerated exhaustively in the
    /// pilot round instead of sampled.
    pub exhaust_threshold: u64,
    /// Seed of every per-(stratum × round) sample stream.
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            target_halfwidth: 0.02,
            min_per_stratum: 16,
            round_budget: 512,
            max_rounds: 64,
            exhaust_threshold: 0,
            seed: 0x5E5,
        }
    }
}

/// Accumulated observations for one stratum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StratumState {
    /// Trials evaluated.
    pub trials: u64,
    /// Trials that observed the event (failure / detected error).
    pub events: u64,
    /// Whether the stratum was enumerated exhaustively (estimate exact).
    pub exhausted: bool,
    /// Round after which the stratum left the active set.
    pub stopped_round: Option<u32>,
}

impl StratumState {
    /// Observed event proportion (0 when untried).
    pub fn proportion(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.events as f64 / self.trials as f64
        }
    }

    /// 95 % half-width of the proportion, from the Laplace-smoothed
    /// variance. Exactly zero for exhausted strata (the enumeration is
    /// the population, not a sample).
    ///
    /// Smoothing matters at the degenerate corners: a stratum whose
    /// every trial was (or was not) the event has a raw Wald interval of
    /// width zero, which would let 16 unanimous trials masquerade as
    /// certainty. With `p̃ = (k+1)/(n+2)` the width decays like
    /// `1.96/n` instead — the rule-of-three scaling — so unanimous
    /// strata still stop early, after a defensibly linear (not
    /// quadratic) number of trials.
    pub fn halfwidth(&self) -> f64 {
        if self.exhausted {
            0.0
        } else {
            binomial_ci95(self.smoothed(), self.trials)
        }
    }

    /// Laplace-smoothed proportion: keeps zero-event strata at a nonzero
    /// allocation priority and the half-width honest at p̂ ∈ {0, 1}.
    fn smoothed(&self) -> f64 {
        (self.events as f64 + 1.0) / (self.trials as f64 + 2.0)
    }
}

/// One planned trial: evaluate the coordinate, report whether the event
/// occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Index of the stratum the trial belongs to.
    pub stratum: usize,
    /// The coordinate to strike.
    pub coord: FaultCoord,
}

/// Per-round trajectory entry: how the aggregate estimate converged.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index (0 = pilot).
    pub round: u32,
    /// Trials evaluated this round.
    pub trials: u64,
    /// Cumulative trials after the round.
    pub cumulative_trials: u64,
    /// Post-stratified estimate after the round.
    pub estimate: f64,
    /// Aggregate 95 % half-width after the round.
    pub halfwidth: f64,
    /// Strata still active after the round.
    pub active_strata: usize,
}

/// Point estimate and interval of one stratum, as recombined by the
/// post-stratified estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratumEstimate {
    /// Exact partition weight.
    pub weight: f64,
    /// Observed proportion.
    pub proportion: f64,
    /// 95 % half-width (zero for exhausted strata).
    pub halfwidth: f64,
}

/// The post-stratified estimate with its propagated interval.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedEstimate {
    /// `Σ wₛ p̂ₛ` over all strata.
    pub estimate: f64,
    /// `sqrt(Σ (wₛ hₛ)²)`: independent per-stratum intervals combined in
    /// quadrature.
    pub halfwidth: f64,
    /// The per-stratum components.
    pub strata: Vec<StratumEstimate>,
}

impl StratifiedEstimate {
    /// The pooled interval, unclamped: `estimate ± halfwidth`.
    pub fn interval(&self) -> (f64, f64) {
        (
            self.estimate - self.halfwidth,
            self.estimate + self.halfwidth,
        )
    }

    /// The weighted union bound over per-stratum intervals:
    /// `[Σ wₛ (p̂ₛ − hₛ), Σ wₛ (p̂ₛ + hₛ)]`. The pooled interval is
    /// always contained in it (quadrature ≤ linear combination), the
    /// consistency the regression suite pins.
    pub fn union_bound(&self) -> (f64, f64) {
        let lo: f64 = self
            .strata
            .iter()
            .map(|s| s.weight * (s.proportion - s.halfwidth))
            .sum();
        let hi: f64 = self
            .strata
            .iter()
            .map(|s| s.weight * (s.proportion + s.halfwidth))
            .sum();
        (lo, hi)
    }
}

/// Serializable scheduler state for mid-campaign stop/resume. Restoring
/// a checkpoint into a scheduler over the same strata and configuration
/// continues the campaign exactly where it stopped, producing the same
/// remaining rounds an uninterrupted run would.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCheckpoint {
    /// Next round to plan.
    pub round: u32,
    /// Per-stratum observation state, in stratum order.
    pub strata: Vec<StratumCheckpoint>,
    /// Trajectory of completed rounds.
    pub trajectory: Vec<RoundRecord>,
}

/// One stratum's state inside an [`AdaptiveCheckpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratumCheckpoint {
    /// Trials evaluated.
    pub trials: u64,
    /// Events observed.
    pub events: u64,
    /// Whether the stratum was enumerated exhaustively.
    pub exhausted: bool,
    /// Round after which the stratum stopped.
    pub stopped_round: Option<u32>,
}

/// The adaptive round scheduler.
#[derive(Debug, Clone)]
pub struct AdaptiveScheduler {
    strata: Strata,
    cfg: AdaptiveConfig,
    states: Vec<StratumState>,
    round: u32,
    trajectory: Vec<RoundRecord>,
}

impl AdaptiveScheduler {
    /// Creates a scheduler over a partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition is empty or the target half-width is not
    /// positive.
    pub fn new(strata: Strata, cfg: AdaptiveConfig) -> Self {
        assert!(
            !strata.is_empty(),
            "cannot schedule over an empty partition"
        );
        assert!(
            cfg.target_halfwidth > 0.0,
            "target half-width must be positive"
        );
        let states = vec![StratumState::default(); strata.len()];
        AdaptiveScheduler {
            strata,
            cfg,
            states,
            round: 0,
            trajectory: Vec::new(),
        }
    }

    /// The partition being sampled.
    pub fn strata(&self) -> &Strata {
        &self.strata
    }

    /// Per-stratum observation states.
    pub fn states(&self) -> &[StratumState] {
        &self.states
    }

    /// Completed-round trajectory.
    pub fn trajectory(&self) -> &[RoundRecord] {
        &self.trajectory
    }

    /// Rounds completed so far.
    pub fn rounds_done(&self) -> u32 {
        self.round
    }

    /// The per-stratum requested half-width: the fair share of the
    /// aggregate target given the stratum's weight. If every stratum met
    /// it exactly, the quadrature combination would be exactly the
    /// aggregate target.
    fn requested_halfwidth(&self, i: usize) -> f64 {
        let k = (self.strata.len() as f64).sqrt();
        self.cfg.target_halfwidth / (self.strata.weight(i) * k)
    }

    /// Trials the stratum still needs before its CI meets its requested
    /// half-width, at the current smoothed proportion (consistent with
    /// the smoothed half-width the stopping rule checks).
    fn needed_trials(&self, i: usize) -> u64 {
        let s = &self.states[i];
        let floor = u64::from(self.cfg.min_per_stratum).min(self.strata.strata()[i].size());
        let p = s.smoothed();
        let req = self.requested_halfwidth(i);
        let for_ci = (p * (1.0 - p) * (1.96 / req).powi(2)).ceil() as u64;
        for_ci.max(floor).saturating_sub(s.trials)
    }

    /// Whether a stratum still needs trials.
    fn is_active(&self, i: usize) -> bool {
        let s = &self.states[i];
        if s.exhausted {
            return false;
        }
        if s.trials < u64::from(self.cfg.min_per_stratum).min(self.strata.strata()[i].size()) {
            return true;
        }
        s.halfwidth() > self.requested_halfwidth(i)
    }

    /// Whether the campaign has reached its stopping condition: the
    /// aggregate interval met the target (only judged once the pilot
    /// round has given every stratum its floor), every stratum stopped
    /// individually, or the round cap was hit.
    pub fn done(&self) -> bool {
        if self.round >= self.cfg.max_rounds {
            return true;
        }
        if self.round == 0 {
            return false;
        }
        self.estimate().halfwidth <= self.cfg.target_halfwidth
            || (0..self.states.len()).all(|i| !self.is_active(i))
    }

    /// Plans the next round: the exact list of trials to evaluate, in
    /// deterministic order. Empty only when [`AdaptiveScheduler::done`].
    pub fn plan_round(&self) -> Vec<Trial> {
        if self.done() {
            return Vec::new();
        }
        let mut plan = Vec::new();
        if self.round == 0 {
            for (i, s) in self.strata.strata().iter().enumerate() {
                let size = s.size();
                if size <= self.cfg.exhaust_threshold {
                    for rank in 0..size {
                        plan.push(Trial {
                            stratum: i,
                            coord: s.coord(rank),
                        });
                    }
                } else {
                    self.push_sampled(&mut plan, i, u64::from(self.cfg.min_per_stratum));
                }
            }
            return plan;
        }
        // Neyman allocation of the round budget across active strata:
        // priority ∝ weight × smoothed σ, largest-remainder rounding,
        // every active stratum gets at least one trial, and no stratum
        // gets more than it still needs to close.
        let active: Vec<usize> = (0..self.states.len())
            .filter(|&i| self.is_active(i))
            .collect();
        let caps: Vec<u64> = active
            .iter()
            .map(|&i| self.needed_trials(i).max(1))
            .collect();
        let priorities: Vec<f64> = active
            .iter()
            .map(|&i| {
                let p = self.states[i].smoothed();
                self.strata.weight(i) * (p * (1.0 - p)).sqrt()
            })
            .collect();
        let total: f64 = priorities.iter().sum();
        let budget = u64::from(self.cfg.round_budget).max(active.len() as u64);
        let mut alloc: Vec<u64> = Vec::with_capacity(active.len());
        let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(active.len());
        for (k, pr) in priorities.iter().enumerate() {
            let share = if total > 0.0 {
                budget as f64 * pr / total
            } else {
                budget as f64 / active.len() as f64
            };
            let base = ((share.floor() as u64).max(1)).min(caps[k]);
            alloc.push(base);
            fracs.push((share - share.floor(), k));
        }
        // Hand out any remaining budget by largest fractional share
        // (index order breaks ties deterministically), still capped.
        fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let used: u64 = alloc.iter().sum();
        let mut left = budget.saturating_sub(used);
        for &(_, k) in &fracs {
            if left == 0 {
                break;
            }
            let room = caps[k].saturating_sub(alloc[k]).min(left);
            alloc[k] += room;
            left -= room;
        }
        for (k, &i) in active.iter().enumerate() {
            self.push_sampled(&mut plan, i, alloc[k]);
        }
        plan
    }

    /// Appends `count` sampled trials for stratum `i`, drawn from the
    /// (seed, stratum, round) stream.
    fn push_sampled(&self, plan: &mut Vec<Trial>, i: usize, count: u64) {
        let s = &self.strata.strata()[i];
        let size = s.size();
        let stream = splitmix64(
            splitmix64(self.cfg.seed ^ (i as u64).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5))
                ^ u64::from(self.round),
        );
        for t in 0..count {
            let rank = splitmix64(stream ^ t) % size;
            plan.push(Trial {
                stratum: i,
                coord: s.coord(rank),
            });
        }
    }

    /// Records the outcome of every trial of the round just planned and
    /// closes the round. `events[k]` answers trial `plan[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `plan` and `events` lengths differ.
    pub fn record_round(&mut self, plan: &[Trial], events: &[bool]) {
        assert_eq!(plan.len(), events.len(), "one observation per trial");
        for (t, &hit) in plan.iter().zip(events) {
            let st = &mut self.states[t.stratum];
            st.trials += 1;
            st.events += u64::from(hit);
        }
        if self.round == 0 {
            for (i, s) in self.strata.strata().iter().enumerate() {
                if s.size() <= self.cfg.exhaust_threshold {
                    self.states[i].exhausted = true;
                }
            }
        }
        let closing = self.round;
        for i in 0..self.states.len() {
            if self.states[i].stopped_round.is_none() && !self.is_active(i) {
                self.states[i].stopped_round = Some(closing);
            }
        }
        self.round += 1;
        let est = self.estimate();
        let active = (0..self.states.len())
            .filter(|&i| self.is_active(i))
            .count();
        let cumulative: u64 = self.states.iter().map(|s| s.trials).sum();
        self.trajectory.push(RoundRecord {
            round: closing,
            trials: plan.len() as u64,
            cumulative_trials: cumulative,
            estimate: est.estimate,
            halfwidth: est.halfwidth,
            active_strata: active,
        });
    }

    /// The current post-stratified estimate.
    pub fn estimate(&self) -> StratifiedEstimate {
        let strata: Vec<StratumEstimate> = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| StratumEstimate {
                weight: self.strata.weight(i),
                proportion: s.proportion(),
                halfwidth: s.halfwidth(),
            })
            .collect();
        let estimate = strata.iter().map(|s| s.weight * s.proportion).sum();
        let halfwidth = strata
            .iter()
            .map(|s| (s.weight * s.halfwidth).powi(2))
            .sum::<f64>()
            .sqrt();
        StratifiedEstimate {
            estimate,
            halfwidth,
            strata,
        }
    }

    /// Total trials evaluated.
    pub fn total_trials(&self) -> u64 {
        self.states.iter().map(|s| s.trials).sum()
    }

    /// Captures the full scheduler state for stop/resume.
    pub fn checkpoint(&self) -> AdaptiveCheckpoint {
        AdaptiveCheckpoint {
            round: self.round,
            strata: self
                .states
                .iter()
                .map(|s| StratumCheckpoint {
                    trials: s.trials,
                    events: s.events,
                    exhausted: s.exhausted,
                    stopped_round: s.stopped_round,
                })
                .collect(),
            trajectory: self.trajectory.clone(),
        }
    }

    /// Restores a scheduler from a checkpoint over the same strata and
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's stratum count does not match.
    pub fn restore(strata: Strata, cfg: AdaptiveConfig, ckpt: &AdaptiveCheckpoint) -> Self {
        assert_eq!(
            ckpt.strata.len(),
            strata.len(),
            "checkpoint belongs to a different partition"
        );
        let states = ckpt
            .strata
            .iter()
            .map(|c| StratumState {
                trials: c.trials,
                events: c.events,
                exhausted: c.exhausted,
                stopped_round: c.stopped_round,
            })
            .collect();
        AdaptiveScheduler {
            strata,
            cfg,
            states,
            round: ckpt.round,
            trajectory: ckpt.trajectory.clone(),
        }
    }

    /// Drives the scheduler to completion against an outcome function
    /// (used by tests and synthetic studies; campaigns instead plan and
    /// evaluate rounds on their parallel worker path).
    pub fn run_to_completion(&mut self, mut eval: impl FnMut(&FaultCoord) -> bool) {
        while !self.done() {
            let plan = self.plan_round();
            let events: Vec<bool> = plan.iter().map(|t| eval(&t.coord)).collect();
            self.record_round(&plan, &events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stratify::OccupancyProfile;

    fn toy_strata(cycles: u64, iq: usize) -> Strata {
        let lo = cycles / 3;
        let hi = 2 * cycles / 3;
        let intervals: Vec<(u64, u64)> = (0..iq).map(|_| (lo, hi)).collect();
        let profile = OccupancyProfile::from_intervals(cycles, iq, intervals, 8);
        Strata::build(cycles, iq, &profile)
    }

    /// A deterministic synthetic outcome: failures concentrate in the
    /// high-occupancy window on control bits.
    fn synthetic(c: &FaultCoord) -> bool {
        let busy = (20..40).contains(&c.cycle);
        let control = c.bit < 16;
        busy && control && !(c.cycle ^ c.slot as u64 ^ u64::from(c.bit)).is_multiple_of(3)
    }

    #[test]
    fn exhaustive_mode_reproduces_the_uniform_exhaustive_mean() {
        let strata = toy_strata(60, 4);
        let cfg = AdaptiveConfig {
            exhaust_threshold: u64::MAX,
            ..AdaptiveConfig::default()
        };
        let mut sched = AdaptiveScheduler::new(strata.clone(), cfg);
        sched.run_to_completion(synthetic);
        assert!(sched.states().iter().all(|s| s.exhausted));
        // Uniform exhaustive mean over the whole space.
        let mut hits = 0u64;
        let mut total = 0u64;
        for cycle in 0..60 {
            for slot in 0..4 {
                for bit in 0..64 {
                    total += 1;
                    hits += u64::from(synthetic(&FaultCoord { cycle, slot, bit }));
                }
            }
        }
        let uniform = hits as f64 / total as f64;
        let est = sched.estimate();
        assert!(
            (est.estimate - uniform).abs() < 1e-9,
            "stratified exhaustive {} != uniform exhaustive {}",
            est.estimate,
            uniform
        );
        assert_eq!(est.halfwidth, 0.0, "exhaustive estimate is exact");
        assert_eq!(sched.total_trials(), total);
    }

    #[test]
    fn sampled_campaign_stops_early_on_quiet_strata() {
        let strata = toy_strata(120, 8);
        let cfg = AdaptiveConfig {
            target_halfwidth: 0.05,
            min_per_stratum: 8,
            round_budget: 128,
            ..AdaptiveConfig::default()
        };
        let mut sched = AdaptiveScheduler::new(strata, cfg);
        sched.run_to_completion(synthetic);
        assert!(sched.done());
        let est = sched.estimate();
        assert!(est.halfwidth <= 0.05, "aggregate CI must meet the target");
        // Quiet strata (payload bits in idle windows) must have stopped at
        // the pilot floor.
        let min_trials = sched
            .states()
            .iter()
            .filter(|s| !s.exhausted)
            .map(|s| s.trials)
            .min()
            .unwrap();
        assert_eq!(min_trials, 8, "quiet strata stop at the pilot floor");
    }

    #[test]
    fn planning_is_deterministic() {
        let cfg = AdaptiveConfig::default();
        let mk = || {
            let mut s = AdaptiveScheduler::new(toy_strata(80, 4), cfg.clone());
            let mut all = Vec::new();
            while !s.done() {
                let plan = s.plan_round();
                let events: Vec<bool> = plan.iter().map(|t| synthetic(&t.coord)).collect();
                all.extend(plan.iter().map(|t| (t.stratum, t.coord)));
                s.record_round(&plan, &events);
            }
            (all, s.estimate())
        };
        let (a_plan, a_est) = mk();
        let (b_plan, b_est) = mk();
        assert_eq!(a_plan, b_plan);
        assert_eq!(a_est, b_est);
    }

    #[test]
    fn checkpoint_resume_is_invisible() {
        let cfg = AdaptiveConfig {
            target_halfwidth: 0.04,
            ..AdaptiveConfig::default()
        };
        // Uninterrupted run.
        let mut full = AdaptiveScheduler::new(toy_strata(80, 4), cfg.clone());
        full.run_to_completion(synthetic);
        // Run one round, checkpoint, restore into a fresh scheduler.
        let mut first = AdaptiveScheduler::new(toy_strata(80, 4), cfg.clone());
        let plan = first.plan_round();
        let events: Vec<bool> = plan.iter().map(|t| synthetic(&t.coord)).collect();
        first.record_round(&plan, &events);
        let ckpt = first.checkpoint();
        let mut resumed = AdaptiveScheduler::restore(toy_strata(80, 4), cfg, &ckpt);
        resumed.run_to_completion(synthetic);
        assert_eq!(full.states(), resumed.states());
        assert_eq!(full.trajectory(), resumed.trajectory());
        assert_eq!(full.estimate(), resumed.estimate());
    }

    #[test]
    fn pooled_interval_is_inside_the_union_bound() {
        let mut sched = AdaptiveScheduler::new(
            toy_strata(120, 8),
            AdaptiveConfig {
                target_halfwidth: 0.05,
                ..AdaptiveConfig::default()
            },
        );
        sched.run_to_completion(synthetic);
        let est = sched.estimate();
        let (plo, phi) = est.interval();
        let (ulo, uhi) = est.union_bound();
        assert!(plo >= ulo - 1e-12, "pooled lower {plo} below union {ulo}");
        assert!(phi <= uhi + 1e-12, "pooled upper {phi} above union {uhi}");
    }

    #[test]
    fn trajectory_tracks_cumulative_trials() {
        let mut sched = AdaptiveScheduler::new(toy_strata(80, 4), AdaptiveConfig::default());
        sched.run_to_completion(synthetic);
        let mut cum = 0;
        for r in sched.trajectory() {
            cum += r.trials;
            assert_eq!(r.cumulative_trials, cum);
        }
        assert_eq!(cum, sched.total_trials());
    }
}
