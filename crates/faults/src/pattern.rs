//! Spatial strike-pattern generation.
//!
//! Real particle strikes in dense SRAM cluster spatially: at deep
//! submicron nodes most upsets still flip one cell, but a measurable tail
//! flips adjacent pairs and triples along the particle track, plus the
//! occasional pair of well-separated cells. The default
//! [`PatternDistribution`] follows the exemplar SRAM characterisation:
//! 85 % single / 12 % adjacent double / 2 % adjacent triple / 1 % random
//! double.
//!
//! A strike of a [`PatternClass`] is a concrete multi-bit XOR mask over
//! the struck 64-bit word ([`mask_for_class`]). Adjacency wraps mod 64
//! — consistent with [`ses_pipeline::FaultSpec::adjacent_double`] — and
//! the analytic class profiles in [`class_instances`] enumerate the same
//! wrapped geometry, so sampled campaigns and analytic residual models
//! agree by construction. [`ecc_fault`] turns a strike into the fault the
//! pipeline sees behind an ECC domain.

use ses_mem::{EccDomain, WordVerdict};
use ses_pipeline::{EccReadOutcome, FaultSpec};
use ses_sampler::PatternClass;
use ses_types::Cycle;

/// Probability distribution over strike-pattern classes.
///
/// Weights are carried in integer permille so they double as exact
/// stratum-replication factors in the adaptive sampler (no float
/// bookkeeping in partition weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternDistribution {
    /// Permille weight of single-bit strikes.
    pub single: u64,
    /// Permille weight of adjacent double strikes.
    pub double_adjacent: u64,
    /// Permille weight of adjacent triple strikes.
    pub triple_adjacent: u64,
    /// Permille weight of non-adjacent double strikes.
    pub random_double: u64,
}

impl Default for PatternDistribution {
    /// The exemplar SRAM upset distribution:
    /// 85 % / 12 % / 2 % / 1 %.
    fn default() -> Self {
        PatternDistribution {
            single: 850,
            double_adjacent: 120,
            triple_adjacent: 20,
            random_double: 10,
        }
    }
}

impl PatternDistribution {
    /// A distribution that only ever produces single-bit strikes (the
    /// classic campaign model, expressed in the pattern machinery).
    pub fn single_only() -> Self {
        PatternDistribution {
            single: 1000,
            double_adjacent: 0,
            triple_adjacent: 0,
            random_double: 0,
        }
    }

    /// `(class, weight)` pairs in stable class order, zero weights
    /// included (callers that stratify drop them).
    pub fn class_weights(&self) -> [(PatternClass, u64); 4] {
        [
            (PatternClass::Single, self.single),
            (PatternClass::DoubleAdjacent, self.double_adjacent),
            (PatternClass::TripleAdjacent, self.triple_adjacent),
            (PatternClass::RandomDouble, self.random_double),
        ]
    }

    /// Total weight (1000 for the stock distributions).
    pub fn total_weight(&self) -> u64 {
        self.single + self.double_adjacent + self.triple_adjacent + self.random_double
    }

    /// Probability of a class.
    pub fn probability(&self, class: PatternClass) -> f64 {
        let w = self
            .class_weights()
            .into_iter()
            .find(|&(c, _)| c == class)
            .map(|(_, w)| w)
            .unwrap_or(0);
        w as f64 / self.total_weight() as f64
    }

    /// Deterministically picks a class from one uniform draw.
    ///
    /// # Panics
    ///
    /// Panics if the distribution has zero total weight.
    pub fn class_for(&self, draw: u64) -> PatternClass {
        let total = self.total_weight();
        assert!(total > 0, "pattern distribution must have positive mass");
        let mut r = draw % total;
        for (class, w) in self.class_weights() {
            if r < w {
                return class;
            }
            r -= w;
        }
        unreachable!("draw below total weight always lands in a class")
    }
}

/// The XOR mask of one strike of `class` anchored at `anchor_bit`
/// (adjacency wraps mod 64).
pub fn mask_for_class(class: PatternClass, anchor_bit: u32, aux: u64) -> u64 {
    let b = anchor_bit % 64;
    let at = |off: u64| 1u64 << ((u64::from(b) + off) % 64);
    match class {
        PatternClass::Single => at(0),
        PatternClass::DoubleAdjacent => at(0) | at(1),
        PatternClass::TripleAdjacent => at(0) | at(1) | at(2),
        // Offsets 2..=62 are exactly the 61 placements that are neither
        // adjacent to the anchor (offset 1 or 63) nor the anchor itself,
        // so one modular draw is uniform over non-adjacent partners with
        // no rejection loop.
        PatternClass::RandomDouble => at(0) | at(2 + aux % 61),
    }
}

/// The ECC verdict precompute: the fault a strike flipping `mask` at
/// `(cycle, slot)` injects behind `domain`, or `None` when the decoder
/// corrects it (benign with no pipeline run). A detected pattern raises a
/// machine check at the first read; a silent one hands on the decoder's
/// residual (`effective`), not the raw strike, so the replayed word
/// matches what a miscorrecting decoder would pass along.
pub fn ecc_fault(domain: &EccDomain, cycle: Cycle, slot: usize, mask: u64) -> Option<FaultSpec> {
    let (mask, read) = match domain.classify_word(mask) {
        WordVerdict::Corrected => return None,
        WordVerdict::Signalled => (mask, EccReadOutcome::Signal),
        WordVerdict::Silent { effective } => (effective, EccReadOutcome::Silent),
    };
    Some(FaultSpec::with_pattern(cycle, slot, mask, Some(read)))
}

/// Every distinct mask of a class over a 64-bit word, for analytic class
/// profiles: 64 singles, 64 wrapped adjacent doubles, 64 wrapped adjacent
/// triples, and the 1 952 non-adjacent pairs.
pub fn class_instances(class: PatternClass) -> Vec<u64> {
    match class {
        PatternClass::Single => (0..64).map(|b| mask_for_class(class, b, 0)).collect(),
        PatternClass::DoubleAdjacent | PatternClass::TripleAdjacent => {
            (0..64).map(|b| mask_for_class(class, b, 0)).collect()
        }
        PatternClass::RandomDouble => {
            let mut v = Vec::with_capacity(1952);
            for a in 0..64u32 {
                for b in a + 1..64 {
                    let adjacent = b == a + 1 || (a == 0 && b == 63);
                    if !adjacent {
                        v.push(1u64 << a | 1u64 << b);
                    }
                }
            }
            v
        }
    }
}

/// Exact residual fractions of a `(distribution, domain)` pair: the
/// probability that a strike drawn from the distribution is corrected,
/// detected (DUE), or silently passed (SDC candidate) by the domain,
/// computed by enumerating every class instance — the analytic model the
/// sampled campaign's residual rates are validated against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualModel {
    /// P(strike corrected by the domain).
    pub corrected: f64,
    /// P(strike detected → DUE at the read).
    pub detected: f64,
    /// P(strike silently survives → SDC candidate).
    pub silent: f64,
}

impl ResidualModel {
    /// Computes the model for one distribution under one domain.
    pub fn analytic(dist: &PatternDistribution, domain: &EccDomain) -> ResidualModel {
        let mut m = ResidualModel {
            corrected: 0.0,
            detected: 0.0,
            silent: 0.0,
        };
        for (class, w) in dist.class_weights() {
            if w == 0 {
                continue;
            }
            let p = w as f64 / dist.total_weight() as f64;
            let profile = domain.profile(class_instances(class));
            m.corrected += p * profile.corrected_fraction();
            m.detected += p * profile.detected_fraction();
            m.silent += p * profile.silent_fraction();
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_mem::EccScheme;

    #[test]
    fn default_distribution_is_the_exemplar() {
        let d = PatternDistribution::default();
        assert_eq!(d.total_weight(), 1000);
        assert!((d.probability(PatternClass::Single) - 0.85).abs() < 1e-12);
        assert!((d.probability(PatternClass::RandomDouble) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn class_for_respects_weights_exactly() {
        let d = PatternDistribution::default();
        let mut counts = [0u64; 4];
        for draw in 0..1000 {
            let c = d.class_for(draw);
            counts[PatternClass::ALL.iter().position(|&x| x == c).unwrap()] += 1;
        }
        assert_eq!(counts, [850, 120, 20, 10]);
    }

    #[test]
    fn masks_have_the_class_weight_and_geometry() {
        for b in 0..64 {
            for aux in [0u64, 17, 60, 1234567] {
                for class in PatternClass::ALL {
                    let m = mask_for_class(class, b, aux);
                    assert_eq!(m.count_ones(), class.weight(), "{class:?} bit {b}");
                    assert_ne!(m & (1 << b), 0, "anchor bit must be set");
                }
                // Random doubles are never adjacent (circular distance >= 2).
                let m = mask_for_class(PatternClass::RandomDouble, b, aux);
                let rot = m.rotate_right(b);
                let off = (rot & !1).trailing_zeros();
                assert!((2..=62).contains(&off), "offset {off} is adjacent");
            }
        }
    }

    #[test]
    fn instance_counts_match_the_geometry() {
        assert_eq!(class_instances(PatternClass::Single).len(), 64);
        assert_eq!(class_instances(PatternClass::DoubleAdjacent).len(), 64);
        assert_eq!(class_instances(PatternClass::TripleAdjacent).len(), 64);
        let randoms = class_instances(PatternClass::RandomDouble);
        assert_eq!(randoms.len(), 1952); // C(64,2) - 64 adjacent pairs
        let mut sorted = randoms.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), randoms.len(), "instances must be distinct");
    }

    #[test]
    fn analytic_residuals_follow_the_coverage_ordering() {
        let dist = PatternDistribution::default();
        let residual = |s| {
            let m = ResidualModel::analytic(&dist, &EccDomain::new(s));
            m.detected + m.silent
        };
        // Stronger codes leave less residual (uncorrected) mass:
        // SEC and SEC-DED absorb only singles; TAEC also absorbs the
        // adjacent clusters; DEC absorbs everything but adjacent triples.
        assert!(residual(EccScheme::SecDed) <= residual(EccScheme::Parity));
        assert!(residual(EccScheme::Taec) < residual(EccScheme::SecDed));
        assert!(residual(EccScheme::Dec) < residual(EccScheme::SecDed));
        // SEC-DED converts residual doubles to DUE where SEC miscorrects
        // them silently (weight-3 errors can still alias a Hsiao column,
        // so its silent fraction is small but not exactly zero).
        let sec = ResidualModel::analytic(&dist, &EccDomain::new(EccScheme::HammingSec));
        let secded = ResidualModel::analytic(&dist, &EccDomain::new(EccScheme::SecDed));
        assert!(sec.silent > 0.0);
        assert!(secded.silent < sec.silent);
        assert!(secded.detected > sec.detected);
    }

    #[test]
    fn residual_fractions_sum_to_one() {
        let dist = PatternDistribution::default();
        for scheme in EccScheme::ALL {
            let m = ResidualModel::analytic(&dist, &EccDomain::new(scheme));
            assert!(
                (m.corrected + m.detected + m.silent - 1.0).abs() < 1e-12,
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn single_only_distribution_is_fully_absorbed_by_sec() {
        let m = ResidualModel::analytic(
            &PatternDistribution::single_only(),
            &EccDomain::new(EccScheme::HammingSec),
        );
        assert_eq!(m.corrected, 1.0);
    }
}
