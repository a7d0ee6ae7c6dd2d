//! Campaign result aggregation and statistical AVF estimation.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use crate::outcome::Outcome;

/// Performance accounting for one campaign execution: wall-clock per
/// phase plus cycle- and replay-level counters. Quantifies how much work
/// the checkpointed injection engine actually saved; the pruned
/// executor's additional savings live in [`PruneReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignPerf {
    /// Wall-clock time of `Campaign::prepare` (golden runs plus snapshot
    /// capture).
    pub prepare_wall: Duration,
    /// Wall-clock time of the injection phase.
    pub inject_wall: Duration,
    /// Injections performed.
    pub injections: u32,
    /// Pipeline snapshots captured during prepare.
    pub checkpoints: usize,
    /// Snapshot spacing in cycles (0 = checkpointing disabled).
    pub checkpoint_interval: u64,
    /// Timing-model cycles actually simulated across all injections.
    pub cycles_simulated: u64,
    /// Timing-model cycles skipped by resuming from checkpoints instead
    /// of simulating from cycle 0.
    pub cycles_skipped: u64,
    /// Functional replays requested by the outcome classifier.
    pub replays: u64,
    /// Replays short-circuited because the corrupted word equalled the
    /// golden word (trivially identical).
    pub replay_fast_path: u64,
}

impl CampaignPerf {
    /// Fraction of classifier replay requests answered without running
    /// the functional emulator (the golden-word fast path).
    pub fn replay_hit_rate(&self) -> f64 {
        if self.replays == 0 {
            0.0
        } else {
            self.replay_fast_path as f64 / self.replays as f64
        }
    }

    /// Fraction of timing-model work avoided by resuming from
    /// checkpoints.
    pub fn skip_fraction(&self) -> f64 {
        let total = self.cycles_simulated + self.cycles_skipped;
        if total == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / total as f64
        }
    }

    /// Mean timing-model cycles simulated per injection.
    pub fn mean_cycles_simulated(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.cycles_simulated as f64 / f64::from(self.injections)
        }
    }

    /// Injection throughput over the injection phase (0 when unmeasured).
    pub fn injections_per_sec(&self) -> f64 {
        let secs = self.inject_wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.injections as f64 / secs
        }
    }
}

/// Accounting for the convergence-pruned executor, present only when the
/// campaign ran with pruning enabled. All fields are pure functions of
/// the fault sequence (folded in batch order), so the report —
/// and the `pruning` telemetry stanza built from it and the run's
/// [`CampaignPerf`] — is byte-identical across thread counts and
/// checkpoint/resume. The injections and the cycles the pruned path
/// simulated are [`CampaignPerf::injections`] and
/// [`CampaignPerf::cycles_simulated`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PruneReport {
    /// Injections resolved without any simulation because the struck
    /// coordinate held no residency at the strike cycle.
    pub idle_skips: u32,
    /// Faulted replays stopped early by the convergence gate.
    pub gate_stops: u32,
    /// Timing-model cycles the pruned path avoided simulating, relative
    /// to replaying every fault's window to the golden end of the run.
    pub cycles_saved: u64,
}

impl PruneReport {
    /// Fraction of the run's `injections` that never ran a replay to its
    /// natural end (idle shortcut or gate stop).
    pub fn stop_fraction(&self, injections: u32) -> f64 {
        if injections == 0 {
            0.0
        } else {
            f64::from(self.idle_skips + self.gate_stops) / f64::from(injections)
        }
    }

    /// Mean timing-model cycles avoided per injection of the run's
    /// `injections`.
    pub fn mean_cycles_saved(&self, injections: u32) -> f64 {
        if injections == 0 {
            0.0
        } else {
            self.cycles_saved as f64 / f64::from(injections)
        }
    }
}

/// Aggregated results of a fault-injection campaign.
///
/// `PartialEq` compares outcome counts only — [`CampaignPerf`] is
/// execution metadata, so a checkpointed campaign and a from-scratch
/// campaign over the same faults compare equal.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    counts: HashMap<Outcome, u32>,
    total: u32,
    perf: CampaignPerf,
}

impl PartialEq for CampaignReport {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && Outcome::ALL
                .iter()
                .all(|&o| self.count(o) == other.count(o))
    }
}

impl CampaignReport {
    /// Builds a report from raw outcomes.
    pub fn from_outcomes(outcomes: impl IntoIterator<Item = Outcome>) -> Self {
        let mut r = CampaignReport::default();
        for o in outcomes {
            *r.counts.entry(o).or_insert(0) += 1;
            r.total += 1;
        }
        r
    }

    /// Number of injections.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Injections with the given outcome.
    pub fn count(&self, outcome: Outcome) -> u32 {
        self.counts.get(&outcome).copied().unwrap_or(0)
    }

    /// Fraction of injections with the given outcome (0 when empty).
    pub fn fraction(&self, outcome: Outcome) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(outcome) as f64 / self.total as f64
        }
    }

    /// Statistical SDC-AVF estimate (meaningful for unprotected
    /// campaigns): fraction of strikes producing SDC or hang.
    pub fn sdc_avf_estimate(&self) -> f64 {
        self.fraction(Outcome::Sdc) + self.fraction(Outcome::Hang)
    }

    /// Statistical DUE-AVF estimate (meaningful for parity campaigns):
    /// fraction of strikes raising a machine check.
    pub fn due_avf_estimate(&self) -> f64 {
        self.fraction(Outcome::FalseDue) + self.fraction(Outcome::TrueDue)
    }

    /// Half-width of the 95 % normal-approximation confidence interval for
    /// an estimated proportion `p` at this sample size (delegates to the
    /// shared [`ses_metrics::binomial_ci95`] helper, so campaign reports,
    /// the differential oracle and the cross-validation tests agree on one
    /// tolerance).
    pub fn ci95(&self, p: f64) -> f64 {
        ses_metrics::binomial_ci95(p, u64::from(self.total))
    }

    /// Performance accounting for the run that produced this report
    /// (all-zero for reports built directly from outcomes).
    pub fn perf(&self) -> CampaignPerf {
        self.perf
    }

    pub(crate) fn set_perf(&mut self, perf: CampaignPerf) {
        self.perf = perf;
    }

    /// Merges another report into this one. Additive performance
    /// counters are summed; checkpoint geometry is taken from whichever
    /// report has one.
    pub fn merge(&mut self, other: &CampaignReport) {
        for (o, c) in &other.counts {
            *self.counts.entry(*o).or_insert(0) += c;
        }
        self.total += other.total;
        self.perf.prepare_wall += other.perf.prepare_wall;
        self.perf.inject_wall += other.perf.inject_wall;
        self.perf.injections += other.perf.injections;
        self.perf.cycles_simulated += other.perf.cycles_simulated;
        self.perf.cycles_skipped += other.perf.cycles_skipped;
        self.perf.replays += other.perf.replays;
        self.perf.replay_fast_path += other.perf.replay_fast_path;
        if self.perf.checkpoint_interval == 0 {
            self.perf.checkpoint_interval = other.perf.checkpoint_interval;
            self.perf.checkpoints = other.perf.checkpoints;
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} injections:", self.total)?;
        for o in Outcome::ALL {
            let c = self.count(o);
            if c > 0 {
                writeln!(
                    f,
                    "  {:<18} {:>6}  ({:.1}%)",
                    o.label(),
                    c,
                    self.fraction(o) * 100.0
                )?;
            }
        }
        if self.perf.inject_wall > Duration::ZERO {
            writeln!(
                f,
                "  perf: {:.2}s inject ({:.0}/s), {:.1}% cycles skipped, {:.1}% replays fast-pathed",
                self.perf.inject_wall.as_secs_f64(),
                self.perf.injections_per_sec(),
                self.perf.skip_fraction() * 100.0,
                self.perf.replay_hit_rate() * 100.0,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_fractions() {
        let r = CampaignReport::from_outcomes([
            Outcome::Benign,
            Outcome::Benign,
            Outcome::Sdc,
            Outcome::FalseDue,
        ]);
        assert_eq!(r.total(), 4);
        assert_eq!(r.count(Outcome::Benign), 2);
        assert!((r.fraction(Outcome::Sdc) - 0.25).abs() < 1e-12);
        assert!((r.sdc_avf_estimate() - 0.25).abs() < 1e-12);
        assert!((r.due_avf_estimate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = CampaignReport::default();
        assert_eq!(r.total(), 0);
        assert_eq!(r.fraction(Outcome::Sdc), 0.0);
        assert_eq!(r.ci95(0.5), 0.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let small = CampaignReport::from_outcomes(vec![Outcome::Benign; 100]);
        let large = CampaignReport::from_outcomes(vec![Outcome::Benign; 10_000]);
        assert!(large.ci95(0.3) < small.ci95(0.3));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CampaignReport::from_outcomes([Outcome::Sdc]);
        let b = CampaignReport::from_outcomes([Outcome::Sdc, Outcome::Benign]);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(Outcome::Sdc), 2);
    }

    #[test]
    fn equality_ignores_perf_metadata() {
        let mut a = CampaignReport::from_outcomes([Outcome::Sdc, Outcome::Benign]);
        let b = CampaignReport::from_outcomes([Outcome::Benign, Outcome::Sdc]);
        a.set_perf(CampaignPerf {
            inject_wall: Duration::from_secs(3),
            cycles_skipped: 1000,
            ..CampaignPerf::default()
        });
        assert_eq!(a, b, "perf counters must not affect report equality");
        let c = CampaignReport::from_outcomes([Outcome::Sdc, Outcome::Sdc]);
        assert_ne!(a, c);
    }

    #[test]
    fn perf_derived_rates() {
        let perf = CampaignPerf {
            inject_wall: Duration::from_secs(2),
            injections: 100,
            cycles_simulated: 250,
            cycles_skipped: 750,
            replays: 10,
            replay_fast_path: 2,
            ..CampaignPerf::default()
        };
        assert!((perf.skip_fraction() - 0.75).abs() < 1e-12);
        assert!((perf.replay_hit_rate() - 0.2).abs() < 1e-12);
        assert!((perf.injections_per_sec() - 50.0).abs() < 1e-12);
        assert!((perf.mean_cycles_simulated() - 2.5).abs() < 1e-12);
        assert_eq!(CampaignPerf::default().skip_fraction(), 0.0);
        assert_eq!(CampaignPerf::default().mean_cycles_simulated(), 0.0);
        assert_eq!(CampaignPerf::default().replay_hit_rate(), 0.0);
        assert_eq!(CampaignPerf::default().injections_per_sec(), 0.0);
    }

    #[test]
    fn prune_report_derived_rates() {
        let p = PruneReport {
            idle_skips: 20,
            gate_stops: 30,
            cycles_saved: 15_000,
        };
        assert!((p.stop_fraction(100) - 0.5).abs() < 1e-12);
        assert!((p.mean_cycles_saved(100) - 150.0).abs() < 1e-12);
        assert_eq!(p.stop_fraction(0), 0.0);
        assert_eq!(p.mean_cycles_saved(0), 0.0);
    }

    #[test]
    fn merge_sums_perf_counters() {
        let mut a = CampaignReport::from_outcomes([Outcome::Sdc]);
        a.set_perf(CampaignPerf {
            cycles_simulated: 10,
            replays: 1,
            ..CampaignPerf::default()
        });
        let mut b = CampaignReport::from_outcomes([Outcome::Benign]);
        b.set_perf(CampaignPerf {
            cycles_simulated: 5,
            replays: 2,
            checkpoints: 4,
            checkpoint_interval: 100,
            ..CampaignPerf::default()
        });
        a.merge(&b);
        assert_eq!(a.perf().cycles_simulated, 15);
        assert_eq!(a.perf().replays, 3);
        assert_eq!(a.perf().checkpoint_interval, 100);
        assert_eq!(a.perf().checkpoints, 4);
    }

    #[test]
    fn display_lists_nonzero_outcomes() {
        let r = CampaignReport::from_outcomes([Outcome::Sdc, Outcome::Benign]);
        let s = r.to_string();
        assert!(s.contains("SDC"));
        assert!(s.contains("benign"));
        assert!(!s.contains("hang"));
    }
}
