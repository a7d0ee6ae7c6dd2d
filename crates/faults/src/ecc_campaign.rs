//! Multi-bit strike campaigns under an ECC protection domain.
//!
//! The campaign samples (cycle, slot, anchor-bit) coordinates exactly
//! like the single-bit engine, draws a strike-pattern class from the
//! spatial distribution, and asks the word's [`EccDomain`] what the
//! decoder at the first read would do with the pattern:
//!
//! * **corrected** — the strike is absorbed; no pipeline run is needed
//!   (the outcome is benign by construction, which is the point of ECC);
//! * **detected** — the read raises a machine check; the pipeline run
//!   plus functional replay classifies it as true or false DUE;
//! * **silent** — the decoder's residual error (the original pattern for
//!   undetected codewords, `e ⊕ ê` for miscorrections) flows on and the
//!   run classifies it like any unprotected corruption (SDC candidate).
//!
//! Because the class draw is independent of the struck coordinate, the
//! campaign's expected DUE rate factors exactly into
//! `P(read) × P(detected | scheme)` — the analytic residual model of
//! [`ResidualModel`] — which the integration tests verify within
//! binomial confidence bounds.

use rand::Rng;

use ses_mem::{EccDomain, EccScheme};
use ses_pipeline::{EccReadOutcome, FaultSpec};
use ses_sampler::PatternClass;

use crate::campaign::Campaign;
use crate::pattern::{ecc_fault, mask_for_class, PatternDistribution, ResidualModel};
use crate::report::CampaignReport;

/// Configuration of one ECC-domain campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccCampaignConfig {
    /// Strikes to sample.
    pub injections: u32,
    /// Seed for coordinate and pattern sampling (independent of the
    /// underlying campaign's single-bit seed).
    pub seed: u64,
    /// Spatial pattern-class distribution.
    pub distribution: PatternDistribution,
    /// The protection domain guarding every stored word.
    pub domain: EccDomain,
}

impl Default for EccCampaignConfig {
    fn default() -> Self {
        EccCampaignConfig {
            injections: 1000,
            seed: 0xECC,
            distribution: PatternDistribution::default(),
            domain: EccDomain::new(EccScheme::SecDed),
        }
    }
}

/// Results of one ECC-domain campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct EccCampaignReport {
    /// The domain under test.
    pub domain: EccDomain,
    /// The distribution the strikes were drawn from.
    pub distribution: PatternDistribution,
    /// Outcome counts over all strikes (corrected strikes count as
    /// benign without a pipeline run).
    pub outcomes: CampaignReport,
    /// Strikes absorbed by the decoder.
    pub corrected: u32,
    /// Strikes converted to a machine check at the read.
    pub detected: u32,
    /// Strikes that silently escaped the decoder.
    pub silent: u32,
    /// Strikes drawn per pattern class, in [`PatternClass::ALL`] order.
    pub per_class: [u32; 4],
    /// The analytic residual model for the same (distribution, domain).
    pub analytic: ResidualModel,
}

impl EccCampaignReport {
    /// Measured machine-check (DUE) rate over all strikes.
    pub fn due_rate(&self) -> f64 {
        self.outcomes.due_avf_estimate()
    }

    /// Measured silent-corruption rate over all strikes (SDC or hang).
    pub fn sdc_rate(&self) -> f64 {
        self.outcomes.sdc_avf_estimate()
    }

    /// 95 % half-width for a proportion at this sample size.
    pub fn ci95(&self, p: f64) -> f64 {
        self.outcomes.ci95(p)
    }
}

/// Runs an ECC-domain campaign over a prepared (detection-free)
/// [`Campaign`]. Deterministic in `cfg.seed` regardless of worker-thread
/// count. The domain's verdict is precomputed per strike ([`ecc_fault`]);
/// only detected and silent strikes enter the injection batch.
pub fn run_ecc_campaign(campaign: &Campaign, cfg: &EccCampaignConfig) -> EccCampaignReport {
    let mut corrected = 0;
    let mut detected = 0;
    let mut silent = 0;
    let mut per_class = [0u32; 4];
    let mut strikes = Vec::with_capacity(cfg.injections as usize);
    for i in 0..cfg.injections {
        let (cycle, slot, bit, mut rng) = campaign.strike(cfg.seed, i);
        let class_draw: u64 = rng.gen();
        let aux: u64 = rng.gen();
        let class = cfg.distribution.class_for(class_draw);
        let class_idx = PatternClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class is in ALL");
        per_class[class_idx] += 1;
        let fault = ecc_fault(&cfg.domain, cycle, slot, mask_for_class(class, bit, aux));
        match fault.and_then(|f| f.ecc) {
            None => corrected += 1,
            Some(EccReadOutcome::Signal) => detected += 1,
            Some(EccReadOutcome::Silent) => silent += 1,
        }
        strikes.push(fault);
    }
    EccCampaignReport {
        domain: cfg.domain,
        distribution: cfg.distribution,
        outcomes: CampaignReport::from_outcomes(campaign.inject_strikes(&strikes)),
        corrected,
        detected,
        silent,
        per_class,
        analytic: ResidualModel::analytic(&cfg.distribution, &cfg.domain),
    }
}

/// Estimates `P(read)` — the probability that a strike on a uniformly
/// sampled coordinate lands in a word that is subsequently read — by
/// injecting `n` forced-signal single-bit strikes: with the verdict
/// pinned to [`EccReadOutcome::Signal`], a strike raises a machine check
/// exactly when the struck word reaches a read, so the DUE fraction *is*
/// the read probability. This is the workload-dependent factor that
/// multiplies the scheme's analytic residual fractions.
pub fn read_probability(campaign: &Campaign, n: u32, seed: u64) -> f64 {
    let faults: Vec<FaultSpec> = (0..n)
        .map(|i| {
            let (cycle, slot, bit, _) = campaign.strike(seed, i);
            FaultSpec::with_pattern(cycle, slot, 1u64 << bit, Some(EccReadOutcome::Signal))
        })
        .collect();
    let report = campaign.inject_batch(&faults);
    let due = report.samples().iter().filter(|(_, o)| o.is_due()).count();
    due as f64 / f64::from(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use ses_pipeline::{DetectionModel, PipelineConfig};
    use ses_workloads::WorkloadSpec;

    fn quick_campaign() -> Campaign {
        let spec = WorkloadSpec::quick("ecc-campaign-unit", 19);
        Campaign::prepare(
            &spec,
            CampaignConfig {
                injections: 0,
                seed: 7,
                detection: DetectionModel::None,
                pipeline: PipelineConfig {
                    iq_entries: 8,
                    ..PipelineConfig::default()
                },
                ..CampaignConfig::default()
            },
        )
        .expect("quick workload prepares")
    }

    #[test]
    fn dispositions_partition_the_injections() {
        let campaign = quick_campaign();
        let cfg = EccCampaignConfig {
            injections: 120,
            ..EccCampaignConfig::default()
        };
        let r = run_ecc_campaign(&campaign, &cfg);
        assert_eq!(r.corrected + r.detected + r.silent, 120);
        assert_eq!(r.per_class.iter().sum::<u32>(), 120);
        assert_eq!(r.outcomes.total(), 120);
        // SEC-DED absorbs every single-bit strike, and singles dominate.
        assert!(r.corrected > 60, "corrected {} of 120", r.corrected);
    }

    #[test]
    fn unprotected_domain_never_corrects() {
        let campaign = quick_campaign();
        let cfg = EccCampaignConfig {
            injections: 60,
            domain: EccDomain::new(EccScheme::None),
            ..EccCampaignConfig::default()
        };
        let r = run_ecc_campaign(&campaign, &cfg);
        assert_eq!(r.corrected, 0);
        assert_eq!(r.detected, 0);
        assert_eq!(r.silent, 60);
    }

    #[test]
    fn report_is_deterministic_in_seed() {
        let campaign = quick_campaign();
        let cfg = EccCampaignConfig {
            injections: 80,
            ..EccCampaignConfig::default()
        };
        let a = run_ecc_campaign(&campaign, &cfg);
        let b = run_ecc_campaign(&campaign, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn read_probability_is_a_proportion() {
        let campaign = quick_campaign();
        let p = read_probability(&campaign, 100, 3);
        assert!((0.0..=1.0).contains(&p));
        // The quick workload keeps its queue busy; some strikes are read.
        assert!(p > 0.0, "expected a nonzero read probability");
    }
}
