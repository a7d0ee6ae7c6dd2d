//! AVF aggregation: SDC / DUE decomposition and per-technique false-DUE
//! coverage (the analytic engine behind Tables 1 and Figures 2–4).

use ses_isa::BitKind;
use ses_pipeline::PipelineResult;
use ses_types::Avf;

use crate::ace::{kind_width, FalseDueCause, ResidencyBits};
use crate::dead::DeadMap;
use crate::span::SpanSet;

/// Occupancy-state fractions of the instruction queue (the paper §4.1
/// reports ≈30 % idle, 8 % Ex-ACE, 33 % valid un-ACE, 29 % ACE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateFractions {
    /// Fraction of bit-cycles with no valid occupant.
    pub idle: f64,
    /// Valid but never read again (Ex-ACE and never-read occupancy).
    pub unread: f64,
    /// Exposed un-ACE (the false-DUE population).
    pub unace: f64,
    /// Exposed ACE.
    pub ace: f64,
}

/// The false-DUE tracking techniques of §4.3, in the cumulative order of
/// Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// π bit carried to the commit point: covers wrong-path, falsely
    /// predicated, and squash-discarded instructions.
    PiAtCommit,
    /// The anti-π bit: covers non-opcode bits of neutral instructions.
    AntiPi,
    /// A PET buffer of the given capacity: covers FDD-via-register
    /// instructions whose kill falls inside the window.
    Pet(u64),
    /// π bit per register: covers all FDD-via-register.
    PiRegister,
    /// π bits through the store buffer: adds TDD-via-register.
    PiStoreCommit,
    /// π bits on caches and memory: adds FDD/TDD-via-memory (100 %).
    PiMemory,
}

/// SDC AVF of one instruction-word field kind (paper-style per-bit
/// attribution: which bits of the entry carry the vulnerability).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindAvf {
    /// The field kind.
    pub kind: BitKind,
    /// Number of bits of this kind per entry.
    pub width: u64,
    /// SDC AVF of those bits alone.
    pub avf: Avf,
}

/// Exact integer bit-cycle decomposition of one run's queue state.
///
/// Every simulated (bit × cycle) falls into exactly one of the four
/// classes, so `ace + unace (summed) + unread + idle == total` — the
/// conservation invariant locked in by the property suite. The float
/// [`StateFractions`] view is derived from these integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitCycleDecomposition {
    /// Total bit-cycles simulated (cycles × entries × 64).
    pub total: u64,
    /// Exposed ACE bit-cycles (the SDC / true-DUE population).
    pub ace: u64,
    /// ACE bit-cycles attributed to each instruction-word field kind,
    /// indexed by [`ses_isa::BitKind::ALL`] order.
    pub ace_by_kind: [u64; 7],
    /// Exposed un-ACE bit-cycles by cause, indexed by
    /// [`FalseDueCause::ALL`] order (the false-DUE population).
    pub unace: [u64; 8],
    /// Valid-but-unread bit-cycles (Ex-ACE window plus never-read).
    pub unread: u64,
    /// Bit-cycles with no valid occupant.
    pub idle: u64,
}

impl BitCycleDecomposition {
    /// Total un-ACE exposed bit-cycles.
    pub fn unace_total(&self) -> u64 {
        self.unace.iter().sum()
    }

    /// Exact integer conservation: every simulated (bit × cycle) must land
    /// in exactly one class, and the per-kind ACE attribution must sum to
    /// the ACE total. The differential oracle and the property suite both
    /// gate on this.
    pub fn is_conserved(&self) -> bool {
        self.ace + self.unace_total() + self.unread + self.idle == self.total
            && self.ace_by_kind.iter().sum::<u64>() == self.ace
    }
}

/// Aggregated AVF analysis of one timing run.
#[derive(Debug, Clone)]
pub struct AvfAnalysis {
    total_bit_cycles: u64,
    cycles: u64,
    iq_capacity: u64,
    bits: ResidencyBits,
    timeline: Vec<TimelinePoint>,
}

/// One bucket of the exposure timeline.
///
/// A residency's *entire* exposure is attributed to the bucket containing
/// its **allocation cycle**, even when the residency straddles bucket
/// boundaries — the span engine adds whole `width × length` terms, never
/// splitting a segment across buckets. This attribution is part of the
/// output contract: the golden artifact files pin it byte-for-byte, so it
/// must not be changed to proportional splitting without regenerating
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Bucket start cycle.
    pub start_cycle: u64,
    /// Valid bit-cycles observed in the bucket (ACE + un-ACE + unread,
    /// attributed to the bucket containing each residency's allocation).
    pub valid: u64,
    /// ACE bit-cycles attributed to the bucket.
    pub ace: u64,
}

impl AvfAnalysis {
    /// Analyses a pipeline result against the dead map of its trace.
    ///
    /// Convenience wrapper: derives the run's [`SpanSet`] and aggregates
    /// it with [`AvfAnalysis::from_spans`]. Callers that already hold a
    /// span set (the suite runner, the injection oracle) should call
    /// `from_spans` directly rather than re-deriving.
    ///
    /// # Panics
    ///
    /// Panics if the run produced zero cycles.
    pub fn new(result: &PipelineResult, dead: &DeadMap) -> Self {
        Self::from_spans(&SpanSet::derive(result, dead))
    }

    /// Aggregates a span set into the full analysis by interval algebra:
    /// every total is a sum of `popcount(mask) × span_length` terms over
    /// the (at most two) segments of each residency — no loop iterates
    /// cycles or bits, so the cost is O(residencies) regardless of trace
    /// length or queue width.
    ///
    /// # Panics
    ///
    /// Panics if the underlying run produced zero cycles.
    pub fn from_spans(spans: &SpanSet) -> Self {
        let cycles = spans.cycles();
        assert!(cycles > 0, "cannot analyse an empty run");
        const TIMELINE_BUCKETS: u64 = 64;
        let bucket = (cycles / TIMELINE_BUCKETS).max(1);
        let mut timeline: Vec<TimelinePoint> = (0..cycles.div_ceil(bucket))
            .map(|i| TimelinePoint {
                start_cycle: i * bucket,
                ..Default::default()
            })
            .collect();
        let mut bits = ResidencyBits::default();
        for rs in spans.residencies() {
            let before_ace = bits.ace;
            let before_valid = bits.valid_total();
            rs.accumulate(&mut bits);
            let idx = ((rs.lifetime.occupancy().0 / bucket) as usize).min(timeline.len() - 1);
            timeline[idx].valid += bits.valid_total() - before_valid;
            timeline[idx].ace += bits.ace - before_ace;
        }
        Self::from_parts(cycles, spans.iq_capacity(), bits, timeline)
    }

    /// Assembles an analysis from already-aggregated totals. Shared by the
    /// span engine above and the test-only exhaustive per-bit-cycle engine
    /// ([`crate::exhaustive`]), so property comparisons between the two
    /// flow through identical reporting code.
    pub(crate) fn from_parts(
        cycles: u64,
        iq_capacity: u64,
        bits: ResidencyBits,
        timeline: Vec<TimelinePoint>,
    ) -> Self {
        AvfAnalysis {
            total_bit_cycles: cycles * iq_capacity * 64,
            cycles,
            iq_capacity,
            bits,
            timeline,
        }
    }

    /// Exposure over time: one point per ~1/64th of the run, attributing
    /// each residency to the bucket containing its allocation. Useful for
    /// seeing the miss-shadow structure squashing removes.
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }

    /// Per-field-kind SDC AVF: the vulnerability carried by each group of
    /// instruction-word bits. Opcode and destination-specifier bits have
    /// the highest AVFs (they stay ACE even for neutral or dead
    /// instructions); immediates the lowest.
    pub fn avf_by_bit_kind(&self) -> Vec<KindAvf> {
        let per_kind_total = |width: u64| self.cycles * self.iq_capacity * width;
        BitKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let width = kind_width(kind);
                KindAvf {
                    kind,
                    width,
                    avf: Avf::from_bit_cycles(
                        self.bits.ace_by_kind[i],
                        per_kind_total(width).max(1),
                    ),
                }
            })
            .collect()
    }

    /// Total bit-cycles simulated (cycles × entries × 64 bits).
    pub fn total_bit_cycles(&self) -> u64 {
        self.total_bit_cycles
    }

    /// The exact integer bit-cycle decomposition behind every AVF this
    /// analysis reports.
    pub fn decomposition(&self) -> BitCycleDecomposition {
        let valid = self.bits.valid_total();
        debug_assert!(valid <= self.total_bit_cycles, "valid exceeds total");
        BitCycleDecomposition {
            total: self.total_bit_cycles,
            ace: self.bits.ace,
            ace_by_kind: self.bits.ace_by_kind,
            unace: self.bits.unace,
            unread: self.bits.unread,
            idle: self.total_bit_cycles.saturating_sub(valid),
        }
    }

    /// The SDC AVF of the unprotected queue: ACE bit-cycles over total.
    pub fn sdc_avf(&self) -> Avf {
        Avf::from_bit_cycles(self.bits.ace, self.total_bit_cycles)
    }

    /// The DUE AVF of the parity-protected queue with *no* tracking: every
    /// exposed bit-cycle is detected at read and signalled.
    pub fn due_avf(&self) -> Avf {
        Avf::from_bit_cycles(
            self.bits.ace + self.bits.unace_total(),
            self.total_bit_cycles,
        )
    }

    /// The true-DUE component (equals the unprotected SDC AVF, §2.2).
    pub fn true_due_avf(&self) -> Avf {
        self.sdc_avf()
    }

    /// The false-DUE component.
    pub fn false_due_avf(&self) -> Avf {
        Avf::from_bit_cycles(self.bits.unace_total(), self.total_bit_cycles)
    }

    /// False-DUE bit-cycles attributed to one cause.
    pub fn false_due_cause(&self, cause: FalseDueCause) -> u64 {
        self.bits.cause(cause)
    }

    /// Occupancy-state fractions.
    pub fn state_fractions(&self) -> StateFractions {
        let t = self.total_bit_cycles as f64;
        let ace = self.bits.ace as f64 / t;
        let unace = self.bits.unace_total() as f64 / t;
        let unread = self.bits.unread as f64 / t;
        StateFractions {
            idle: (1.0 - ace - unace - unread).max(0.0),
            unread,
            unace,
            ace,
        }
    }

    /// False-DUE bit-cycles covered by one technique in isolation.
    ///
    /// PET coverage uses the dead map's kill-distance distribution, so the
    /// same `dead` map used to build the analysis must be supplied.
    pub fn covered_by(&self, technique: Technique, dead: &DeadMap) -> u64 {
        use FalseDueCause::*;
        match technique {
            Technique::PiAtCommit => {
                self.bits.cause(WrongPath)
                    + self.bits.cause(FalselyPredicated)
                    + self.bits.cause(Squashed)
            }
            Technique::AntiPi => self.bits.cause(Neutral),
            Technique::Pet(capacity) => {
                let frac = dead.pet_coverage_fdd_reg(capacity, true);
                (self.bits.cause(DeadFddReg) as f64 * frac) as u64
            }
            Technique::PiRegister => self.bits.cause(DeadFddReg),
            Technique::PiStoreCommit => self.bits.cause(DeadFddReg) + self.bits.cause(DeadTddReg),
            Technique::PiMemory => {
                self.bits.cause(DeadFddReg)
                    + self.bits.cause(DeadTddReg)
                    + self.bits.cause(DeadFddMem)
                    + self.bits.cause(DeadTddMem)
            }
        }
    }

    /// Remaining false-DUE AVF after applying π-at-commit, anti-π, and the
    /// given dead-instruction technique cumulatively (the stacked bars of
    /// Figure 2).
    pub fn residual_false_due(&self, dead_technique: Option<Technique>, dead: &DeadMap) -> Avf {
        let mut covered =
            self.covered_by(Technique::PiAtCommit, dead) + self.covered_by(Technique::AntiPi, dead);
        if let Some(t) = dead_technique {
            covered += self.covered_by(t, dead);
        }
        let remaining = self.bits.unace_total().saturating_sub(covered);
        Avf::from_bit_cycles(remaining, self.total_bit_cycles)
    }

    /// The DUE AVF of a parity-protected queue running the given cumulative
    /// tracking configuration (true DUE + residual false DUE).
    pub fn due_avf_with_tracking(&self, dead_technique: Option<Technique>, dead: &DeadMap) -> Avf {
        self.true_due_avf()
            .saturating_add(self.residual_false_due(dead_technique, dead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::Emulator;
    use ses_pipeline::{Pipeline, PipelineConfig};
    use ses_workloads::{synthesize, WorkloadSpec};

    fn run_quick() -> (AvfAnalysis, DeadMap) {
        let spec = WorkloadSpec::quick("avf-test", 11);
        let program = synthesize(&spec);
        let trace = Emulator::new(&program).run(100_000).unwrap();
        let dead = DeadMap::analyze(&trace);
        let result = Pipeline::new(PipelineConfig::default()).run(&program, &trace);
        (AvfAnalysis::new(&result, &dead), dead)
    }

    #[test]
    fn avf_identities_hold() {
        let (a, dead) = run_quick();
        // DUE = true DUE + false DUE, and true DUE = SDC (paper §2.2).
        let due = a.due_avf().fraction();
        let recomposed = a.true_due_avf().fraction() + a.false_due_avf().fraction();
        assert!((due - recomposed).abs() < 1e-9);
        assert_eq!(a.true_due_avf(), a.sdc_avf());
        // Protection more than doubles the error contribution when false
        // DUE exceeds true DUE; at minimum DUE >= SDC.
        assert!(due >= a.sdc_avf().fraction());

        // Full memory-scope tracking covers every dead cause; the residual
        // false DUE is exactly zero beyond the three uncovered causes
        // (none here, because PiAtCommit+AntiPi+PiMemory span all causes).
        let residual = a.residual_false_due(Some(Technique::PiMemory), &dead);
        assert!(
            residual.fraction() < 1e-9,
            "all false-DUE causes covered, got {residual}"
        );
    }

    #[test]
    fn state_fractions_sum_to_one() {
        let (a, _) = run_quick();
        let s = a.state_fractions();
        let sum = s.idle + s.unread + s.unace + s.ace;
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        assert!(s.ace > 0.0, "some ACE state must exist");
        assert!(s.unace > 0.0, "some un-ACE state must exist");
    }

    #[test]
    fn technique_coverage_is_monotone() {
        let (a, dead) = run_quick();
        let pet = a.covered_by(Technique::Pet(512), &dead);
        let reg = a.covered_by(Technique::PiRegister, &dead);
        let store = a.covered_by(Technique::PiStoreCommit, &dead);
        let mem = a.covered_by(Technique::PiMemory, &dead);
        assert!(pet <= reg, "PET covers a subset of register-π");
        assert!(reg <= store);
        assert!(store <= mem);
        assert_eq!(
            mem,
            a.false_due_cause(FalseDueCause::DeadFddReg)
                + a.false_due_cause(FalseDueCause::DeadTddReg)
                + a.false_due_cause(FalseDueCause::DeadFddMem)
                + a.false_due_cause(FalseDueCause::DeadTddMem)
        );
    }

    #[test]
    fn residual_false_due_decreases_with_stronger_techniques() {
        let (a, dead) = run_quick();
        let base = a.false_due_avf().fraction();
        let commit_only = a.residual_false_due(None, &dead).fraction();
        let with_reg = a
            .residual_false_due(Some(Technique::PiRegister), &dead)
            .fraction();
        let with_mem = a
            .residual_false_due(Some(Technique::PiMemory), &dead)
            .fraction();
        assert!(commit_only < base);
        assert!(with_reg <= commit_only);
        assert!(with_mem <= with_reg);
    }

    #[test]
    fn bit_kind_avfs_are_ordered_sensibly() {
        let (a, _) = run_quick();
        let kinds = a.avf_by_bit_kind();
        assert_eq!(kinds.len(), 7);
        let get = |k: BitKind| kinds.iter().find(|x| x.kind == k).unwrap().avf.fraction();
        // Opcode bits stay ACE for neutral instructions; immediates do not:
        // the opcode AVF must dominate.
        assert!(get(BitKind::Opcode) > get(BitKind::Immediate));
        // Destination specifiers stay ACE for dead instructions.
        assert!(get(BitKind::DestSpec) >= get(BitKind::Immediate));
        // Reconstruction: the width-weighted mean equals the SDC AVF.
        let weighted: f64 = kinds
            .iter()
            .map(|k| k.avf.fraction() * k.width as f64)
            .sum::<f64>()
            / 64.0;
        assert!((weighted - a.sdc_avf().fraction()).abs() < 1e-9);
    }

    #[test]
    fn timeline_buckets_account_for_everything() {
        let (a, _) = run_quick();
        let tl = a.timeline();
        assert!(!tl.is_empty());
        let s = a.state_fractions();
        let valid_total: u64 = tl.iter().map(|p| p.valid).sum();
        let expect = ((s.ace + s.unace + s.unread) * a.total_bit_cycles() as f64).round() as u64;
        assert_eq!(valid_total, expect);
        let ace_total: u64 = tl.iter().map(|p| p.ace).sum();
        assert_eq!(
            ace_total,
            (a.sdc_avf().fraction() * a.total_bit_cycles() as f64).round() as u64
        );
        // Buckets are ordered.
        for w in tl.windows(2) {
            assert!(w[1].start_cycle > w[0].start_cycle);
        }
    }

    #[test]
    fn due_with_full_tracking_equals_true_due() {
        let (a, dead) = run_quick();
        let tracked = a.due_avf_with_tracking(Some(Technique::PiMemory), &dead);
        assert!((tracked.fraction() - a.true_due_avf().fraction()).abs() < 1e-9);
    }
}
