//! Detection latency and idempotent-region recovery.
//!
//! The paper assumes a detected error raises a machine check immediately;
//! real detectors (parity trees, ECC pipelines, residue checks) deliver
//! their verdict cycles later. Zeng et al. ("Lightweight Soft Error
//! Resilience for In-Order Cores") exploit that window: if the deferred
//! signal still lands inside the *idempotent region* where the error
//! occurred, the machine rewinds to the region entry and re-executes —
//! converting a would-be DUE into a bounded IPC tax. Only signals that
//! escape their region fall back to the machine check.
//!
//! This module carries the campaign-facing configuration and accounting:
//! [`LatencyDistribution`] models the detector's signal delay,
//! [`RecoveryPolicy`] selects machine-check or idempotent recovery, and
//! [`RecoveryReport`] aggregates what recovery cost. The region analysis
//! itself lives in [`ses_avf::region`].

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Detection-signal latency model, in cycles between the corrupted word
/// being read and the error signal being acted on.
///
/// Sampling is a pure function of the caller-supplied seed, so campaigns
/// stay byte-identical across thread counts and checkpoint/resume.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyDistribution {
    /// Every detection takes exactly this many cycles.
    Fixed(u64),
    /// Geometric latency with the given mean: each cycle the deferred
    /// signal delivers with probability `1 / (mean + 1)`. A mean of 0
    /// degenerates to zero-latency detection.
    Geometric {
        /// Mean latency in cycles.
        mean: f64,
    },
    /// Table-driven: `(latency, weight)` pairs, sampled proportionally to
    /// weight (a measured detector histogram).
    Table(Vec<(u64, u32)>),
}

impl LatencyDistribution {
    /// Deterministically samples a latency in cycles from `seed`.
    pub fn sample(&self, seed: u64) -> u64 {
        match self {
            LatencyDistribution::Fixed(cycles) => *cycles,
            LatencyDistribution::Geometric { mean } => {
                if *mean <= 0.0 {
                    return 0;
                }
                let p = 1.0 / (mean + 1.0);
                let mut rng = StdRng::seed_from_u64(seed);
                let u: f64 = rng.gen();
                // Inverse-CDF of the geometric distribution on {0, 1, ...}.
                let l = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
                if l.is_finite() && l >= 0.0 {
                    l as u64
                } else {
                    0
                }
            }
            LatencyDistribution::Table(rows) => {
                let total: u64 = rows.iter().map(|&(_, w)| u64::from(w)).sum();
                if total == 0 {
                    return 0;
                }
                let mut rng = StdRng::seed_from_u64(seed);
                let mut pick = rng.gen_range(0..total);
                for &(latency, w) in rows {
                    let w = u64::from(w);
                    if pick < w {
                        return latency;
                    }
                    pick -= w;
                }
                rows.last().map(|&(l, _)| l).unwrap_or(0)
            }
        }
    }

    /// Mean latency in cycles.
    pub fn mean(&self) -> f64 {
        match self {
            LatencyDistribution::Fixed(cycles) => *cycles as f64,
            LatencyDistribution::Geometric { mean } => mean.max(0.0),
            LatencyDistribution::Table(rows) => {
                let total: f64 = rows.iter().map(|&(_, w)| f64::from(w)).sum();
                if total == 0.0 {
                    0.0
                } else {
                    rows.iter()
                        .map(|&(l, w)| l as f64 * f64::from(w))
                        .sum::<f64>()
                        / total
                }
            }
        }
    }
}

impl fmt::Display for LatencyDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyDistribution::Fixed(c) => write!(f, "fixed:{c}"),
            LatencyDistribution::Geometric { mean } => write!(f, "geometric:{mean}"),
            LatencyDistribution::Table(rows) => {
                write!(f, "table:")?;
                for (i, (l, w)) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{l}x{w}")?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for LatencyDistribution {
    type Err = String;

    /// Parses the CLI syntax: `fixed:N`, `geometric:MEAN`, or
    /// `table:L1xW1,L2xW2,...`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, arg) = s
            .split_once(':')
            .ok_or_else(|| format!("expected kind:arg, got '{s}'"))?;
        match kind {
            "fixed" => arg
                .parse()
                .map(LatencyDistribution::Fixed)
                .map_err(|_| format!("bad fixed latency '{arg}'")),
            "geometric" | "geo" => arg
                .parse()
                .map(|mean: f64| LatencyDistribution::Geometric { mean })
                .map_err(|_| format!("bad geometric mean '{arg}'")),
            "table" => {
                let mut rows = Vec::new();
                for part in arg.split(',') {
                    let (l, w) = part
                        .split_once('x')
                        .ok_or_else(|| format!("bad table row '{part}' (want LxW)"))?;
                    let l = l.parse().map_err(|_| format!("bad latency '{l}'"))?;
                    let w = w.parse().map_err(|_| format!("bad weight '{w}'"))?;
                    rows.push((l, w));
                }
                if rows.is_empty() {
                    return Err("empty latency table".into());
                }
                Ok(LatencyDistribution::Table(rows))
            }
            other => Err(format!(
                "unknown latency kind '{other}' (want fixed/geometric/table)"
            )),
        }
    }
}

/// What the campaign does with a detected fault.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Raise a machine check (the paper's model; the legacy behaviour).
    #[default]
    MachineCheck,
    /// Re-execute the current idempotent region when the signal still
    /// lands inside the region where the error occurred; otherwise fall
    /// back to the machine check.
    Idempotent,
}

impl RecoveryPolicy {
    /// Stable lower-case label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryPolicy::MachineCheck => "machine-check",
            RecoveryPolicy::Idempotent => "idempotent",
        }
    }
}

impl FromStr for RecoveryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "machine-check" | "machinecheck" | "none" => Ok(RecoveryPolicy::MachineCheck),
            "idempotent" => Ok(RecoveryPolicy::Idempotent),
            other => Err(format!(
                "unknown recovery policy '{other}' (want idempotent or machine-check)"
            )),
        }
    }
}

/// How one detected fault was resolved under the recovery policy; exposed
/// so property tests can pin per-fault monotonicity and conservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryDecision {
    /// Sampled detection latency in cycles.
    pub latency_cycles: u64,
    /// The latency converted to committed instructions at baseline IPC.
    pub delay_instructions: u64,
    /// Committed-trace index of the corrupted instruction (`None` for
    /// wrong-path corruptions, which have no committed anchor).
    pub fault_index: Option<u64>,
    /// Bounds `[start, end)` of the idempotent region containing the
    /// fault, when the fault has a committed anchor.
    pub region: Option<(u64, u64)>,
    /// Whether the signal landed inside the fault's region and the DUE
    /// was converted into a re-execution.
    pub recovered: bool,
    /// Instructions recovery re-executes (0 when not recovered).
    pub reexec_instructions: u64,
}

/// Aggregated recovery accounting for one campaign execution, surfaced as
/// the schema-versioned `recovery` telemetry stanza.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryReport {
    /// Detected faults converted into region re-executions.
    pub recovered: u32,
    /// Detected faults whose signal escaped the fault's region and fell
    /// back to a machine-check DUE.
    pub fallback_due: u32,
    /// Total instructions re-executed across all recoveries.
    pub reexec_instructions: u64,
    /// Sum of sampled detection latencies (cycles) over detected faults.
    pub latency_cycles: u64,
    /// Idempotent regions in the golden trace.
    pub regions: u32,
    /// Mean region length in dynamic instructions.
    pub mean_region_len: f64,
}

impl RecoveryReport {
    /// Adds one detected fault's resolution to the totals.
    pub(crate) fn record(&mut self, decision: &RecoveryDecision) {
        self.latency_cycles += decision.latency_cycles;
        if decision.recovered {
            self.recovered += 1;
            self.reexec_instructions += decision.reexec_instructions;
        } else {
            self.fallback_due += 1;
        }
    }

    /// Detected faults (recovered + fallback).
    pub fn detected(&self) -> u32 {
        self.recovered + self.fallback_due
    }

    /// Fraction of detected faults recovered (0 when none detected).
    pub fn recovered_fraction(&self) -> f64 {
        let d = self.detected();
        if d == 0 {
            0.0
        } else {
            f64::from(self.recovered) / f64::from(d)
        }
    }

    /// Mean instructions re-executed per recovery (0 when none).
    pub fn mean_reexec_instructions(&self) -> f64 {
        if self.recovered == 0 {
            0.0
        } else {
            self.reexec_instructions as f64 / f64::from(self.recovered)
        }
    }

    /// Mean sampled detection latency in cycles over detected faults.
    pub fn mean_latency_cycles(&self) -> f64 {
        let d = self.detected();
        if d == 0 {
            0.0
        } else {
            self.latency_cycles as f64 / f64::from(d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_is_constant() {
        let d = LatencyDistribution::Fixed(7);
        for seed in 0..20 {
            assert_eq!(d.sample(seed), 7);
        }
        assert_eq!(d.mean(), 7.0);
    }

    #[test]
    fn geometric_latency_is_deterministic_and_near_its_mean() {
        let d = LatencyDistribution::Geometric { mean: 6.0 };
        let a: Vec<u64> = (0..2000).map(|s| d.sample(s)).collect();
        let b: Vec<u64> = (0..2000).map(|s| d.sample(s)).collect();
        assert_eq!(a, b, "same seed, same sample");
        let empirical = a.iter().sum::<u64>() as f64 / a.len() as f64;
        assert!(
            (empirical - 6.0).abs() < 1.0,
            "empirical mean {empirical} should be near 6"
        );
        assert_eq!(LatencyDistribution::Geometric { mean: 0.0 }.sample(3), 0);
    }

    #[test]
    fn table_latency_respects_weights() {
        let d = LatencyDistribution::Table(vec![(2, 3), (10, 1)]);
        let samples: Vec<u64> = (0..4000).map(|s| d.sample(s)).collect();
        let twos = samples.iter().filter(|&&l| l == 2).count();
        let tens = samples.iter().filter(|&&l| l == 10).count();
        assert_eq!(twos + tens, samples.len());
        let frac = twos as f64 / samples.len() as f64;
        assert!((frac - 0.75).abs() < 0.05, "2-cycle fraction {frac}");
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn parse_roundtrip() {
        for s in ["fixed:4", "geometric:6.5", "table:1x3,8x1"] {
            let d: LatencyDistribution = s.parse().unwrap();
            assert_eq!(d.to_string(), s);
        }
        assert_eq!(
            "geo:2".parse::<LatencyDistribution>().unwrap(),
            LatencyDistribution::Geometric { mean: 2.0 }
        );
        assert!("warp:9".parse::<LatencyDistribution>().is_err());
        assert!("fixed".parse::<LatencyDistribution>().is_err());
        assert!("table:".parse::<LatencyDistribution>().is_err());
        assert!("idempotent".parse::<RecoveryPolicy>().is_ok());
        assert!("machine-check".parse::<RecoveryPolicy>().is_ok());
        assert!("retry".parse::<RecoveryPolicy>().is_err());
    }

    #[test]
    fn report_derived_rates() {
        let r = RecoveryReport {
            recovered: 3,
            fallback_due: 1,
            reexec_instructions: 12,
            latency_cycles: 8,
            regions: 10,
            mean_region_len: 4.0,
        };
        assert_eq!(r.detected(), 4);
        assert!((r.recovered_fraction() - 0.75).abs() < 1e-12);
        assert!((r.mean_reexec_instructions() - 4.0).abs() < 1e-12);
        assert!((r.mean_latency_cycles() - 2.0).abs() < 1e-12);
        assert_eq!(RecoveryReport::default().recovered_fraction(), 0.0);
        assert_eq!(RecoveryReport::default().mean_reexec_instructions(), 0.0);
        assert_eq!(RecoveryReport::default().mean_latency_cycles(), 0.0);
    }
}
