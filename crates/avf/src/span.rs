//! The interval algebra behind the analytic-AVF engine.
//!
//! Every instruction-queue slot's ACE/un-ACE status is piecewise-constant
//! between events — allocation, the last issue read, and
//! retirement/squash are the only points at which a residency's
//! classification can change — so AVF accounting never needs to visit
//! individual (bit × cycle) coordinates. This module is the canonical
//! span representation:
//!
//! * [`LifetimeSpan`] — the `(slot, alloc, boundary, dealloc)` geometry
//!   of one residency, with the live/tail phase boundary drawn exactly
//!   once for every consumer (ACE classification, the adaptive sampler's
//!   strata, occupancy profiles);
//! * [`SpanClass`] — the ACE class of a segment, carrying a `const`
//!   bit-kind mask of the positions that stay ACE;
//! * [`Segment`] — a half-open cycle range tagged with its class and ACE
//!   mask;
//! * [`ResidencySpans`] — one residency's lifetime and the ACE class of
//!   its exposed phase, read as (at most two) segments:
//!   `[alloc → last-issue-read)` exposed, `[last-read → retire/squash)`
//!   unread (a never-read residency is one unread segment);
//! * [`SpanSet`] — all residency spans of one timing run.
//!
//! Every aggregate — [`crate::BitCycleDecomposition`], state fractions,
//! per-kind AVFs, technique coverage, the exposure timeline — is a sum of
//! `width × span_length` terms over segments, where `width` is a popcount
//! of a constant mask: O(events), independent of trace length in cycles.
//! Squash and misprediction recovery *truncate* spans (the residency's
//! `dealloc` is the squash/flush cycle and its `end` tag reclassifies the
//! exposed segment), and false predication reclassifies without
//! truncating; neither adds segments.
//!
//! The per-bit-cycle accounting this replaces survives as a test-only
//! oracle in [`crate::exhaustive`]; the property suite proves the two
//! engines identical on fuzzed workloads, and the `avf_speed` bench
//! measures the span engine's throughput advantage.

use ses_isa::{field_mask, BitKind, BIT_COUNT};
use ses_pipeline::{Occupant, PipelineResult, Residency, ResidencyEnd};

use crate::ace::{FalseDueCause, ResidencyBits};
use crate::dead::{DeadKind, DeadMap};

/// Bits that stay ACE inside a dynamically dead instruction: the
/// destination general-register and predicate specifiers (§4.1).
pub const DEAD_ACE_MASK: u64 = field_mask(BitKind::DestSpec) | field_mask(BitKind::PredDestSpec);

/// Bits that stay ACE inside a neutral instruction: the opcode (§4.1).
pub const NEUTRAL_ACE_MASK: u64 = field_mask(BitKind::Opcode);

/// Per-kind field masks in [`BitKind::ALL`] order.
pub const KIND_MASKS: [u64; 7] = [
    field_mask(BitKind::Opcode),
    field_mask(BitKind::Guard),
    field_mask(BitKind::DestSpec),
    field_mask(BitKind::SrcSpec),
    field_mask(BitKind::PredDestSpec),
    field_mask(BitKind::Immediate),
    field_mask(BitKind::Reserved),
];

// The span masks and the classifier's const width helpers must agree:
// both fold from the same encoding at compile time.
const _: () = assert!(DEAD_ACE_MASK.count_ones() as u64 == crate::ace::dest_spec_bits());
const _: () = assert!(NEUTRAL_ACE_MASK.count_ones() as u64 == crate::ace::opcode_bits());

/// Per-kind field widths in [`BitKind::ALL`] order.
pub const KIND_WIDTHS: [u64; 7] = {
    let mut w = [0u64; 7];
    let mut i = 0;
    while i < 7 {
        w[i] = KIND_MASKS[i].count_ones() as u64;
        i += 1;
    }
    w
};

/// The canonical lifetime geometry of one residency: where in the run a
/// strike on the slot lands in a stored word, and where the live/tail
/// phase boundary falls.
///
/// The timing model retires before it injects within a cycle, so a
/// same-cycle strike sees the allocation but not the deallocation:
/// `[alloc, dealloc)` is exactly the strikeable span. A strike on the
/// last-read cycle lands *after* the read, so the live (exposed) phase is
/// `[alloc, last_read)` and the tail `[last_read, dealloc)`; never-read
/// residencies are all tail. The ACE classifier and the adaptive
/// sampler's strata both read these ranges from here, so they can never
/// disagree about lifetimes.
///
/// A golden run keeps one span per residency, so the last read is stored
/// only as the boundary it draws, and the slot as a `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeSpan {
    slot: u32,
    alloc: u64,
    /// Kept within `[alloc, dealloc]` when those are ordered.
    boundary: u64,
    dealloc: u64,
}

impl LifetimeSpan {
    /// The lifetime geometry of one residency record.
    ///
    /// # Panics
    ///
    /// If the slot index does not fit a `u32`.
    pub fn of(res: &Residency) -> LifetimeSpan {
        let alloc = res.alloc.as_u64();
        let dealloc = res.dealloc.as_u64();
        let read = res.last_read.map_or(alloc, |c| c.as_u64());
        LifetimeSpan {
            slot: u32::try_from(res.slot).expect("queue slot index fits u32"),
            alloc,
            // `max` then `min`, not `clamp`: a malformed span (alloc past
            // dealloc) must reach `ResidencySpans::check`, not panic here.
            boundary: read.max(alloc).min(dealloc),
            dealloc,
        }
    }

    /// The queue slot index.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The live/tail phase boundary: the last issue read, clamped into
    /// the occupancy (a never-read residency's boundary is its alloc, so
    /// the whole occupancy is tail).
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// The occupancy interval `[alloc, dealloc)`.
    pub fn occupancy(&self) -> (u64, u64) {
        (self.alloc, self.dealloc)
    }

    /// The live (exposed) phase `[alloc, boundary)`, if non-empty.
    pub fn live_range(&self) -> Option<(u64, u64)> {
        let b = self.boundary();
        (self.alloc < b).then_some((self.alloc, b))
    }

    /// The tail (Ex-ACE / never-read) phase `[boundary, dealloc)`, if
    /// non-empty.
    pub fn tail_range(&self) -> Option<(u64, u64)> {
        let b = self.boundary();
        (b < self.dealloc).then_some((b, self.dealloc))
    }

    /// Total cycles the entry was valid.
    pub fn valid_cycles(&self) -> u64 {
        self.dealloc - self.alloc
    }

    /// Cycles in the live (exposed) phase.
    pub fn exposed_cycles(&self) -> u64 {
        self.boundary() - self.alloc
    }
}

/// The per-slot lifetime spans of a timing run — the one derivation every
/// lifetime consumer (ACE classification, sampler strata, occupancy
/// profiles) shares.
pub fn lifetime_spans(result: &PipelineResult) -> Vec<LifetimeSpan> {
    result.residencies.iter().map(LifetimeSpan::of).collect()
}

/// A per-slot, binary-searchable index over a run's lifetime spans,
/// answering "is `slot` occupied at `cycle`" in O(log
/// residencies-per-slot).
///
/// The timing model inserts before it injects and retires before it
/// injects within a cycle, so slot occupancy at the strike point is
/// exactly `alloc <= cycle < dealloc` — a strike outside every span hits
/// an empty slot and is [`SlotIdle`] by construction, with no simulation
/// needed (the campaign executor's idle shortcut).
///
/// It keeps only each slot's occupancy intervals, not the spans
/// themselves, which the golden run already holds.
///
/// [`SlotIdle`]: ses_pipeline::FaultOutcome::SlotIdle
#[derive(Debug, Clone)]
pub struct StrikeIndex {
    /// Per slot, the `(alloc, dealloc)` occupancy intervals sorted by
    /// `alloc`.
    per_slot: Vec<Vec<(u64, u64)>>,
}

impl StrikeIndex {
    /// Builds the index from a run's lifetime spans over `slots` queue
    /// slots.
    pub fn build(spans: &[LifetimeSpan], slots: usize) -> StrikeIndex {
        let mut per_slot: Vec<Vec<(u64, u64)>> = vec![Vec::new(); slots];
        for s in spans {
            if let Some(v) = per_slot.get_mut(s.slot()) {
                v.push(s.occupancy());
            }
        }
        for v in &mut per_slot {
            v.sort_unstable();
            v.shrink_to_fit();
        }
        StrikeIndex { per_slot }
    }

    /// Whether a residency holds `slot` at `cycle`.
    pub fn occupied(&self, slot: usize, cycle: u64) -> bool {
        let Some(intervals) = self.per_slot.get(slot) else {
            return false;
        };
        let after = intervals.partition_point(|&(alloc, _)| alloc <= cycle);
        after.checked_sub(1).is_some_and(|i| cycle < intervals[i].1)
    }
}

/// The ACE class of one segment: how its 64 bit-columns split into ACE
/// and un-ACE for every cycle the segment covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClass {
    /// All 64 bits ACE (live committed instruction while exposed).
    Ace,
    /// All 64 bits un-ACE with one cause (wrong path, false predication,
    /// squash discard).
    Unace(FalseDueCause),
    /// Opcode bits ACE; everything else un-ACE as
    /// [`FalseDueCause::Neutral`] (§4.1).
    NeutralSplit,
    /// Destination-specifier bits ACE; everything else un-ACE with the
    /// given dead cause (§4.1).
    DeadSplit(FalseDueCause),
    /// Valid but never read again: the Ex-ACE window and never-read
    /// residencies. Neither ACE nor detected.
    Unread,
}

impl SpanClass {
    /// Mask of the bit positions that are ACE throughout the segment.
    pub const fn ace_mask(self) -> u64 {
        match self {
            SpanClass::Ace => u64::MAX,
            SpanClass::Unace(_) | SpanClass::Unread => 0,
            SpanClass::NeutralSplit => NEUTRAL_ACE_MASK,
            SpanClass::DeadSplit(_) => DEAD_ACE_MASK,
        }
    }

    /// Number of ACE bits per cycle of the segment.
    pub const fn ace_width(self) -> u64 {
        self.ace_mask().count_ones() as u64
    }

    /// The false-DUE cause carried by the segment's exposed un-ACE bits,
    /// if any.
    pub const fn unace_cause(self) -> Option<FalseDueCause> {
        match self {
            SpanClass::Ace | SpanClass::Unread => None,
            SpanClass::Unace(c) | SpanClass::DeadSplit(c) => Some(c),
            SpanClass::NeutralSplit => Some(FalseDueCause::Neutral),
        }
    }
}

/// One piecewise-constant segment of one residency: a half-open cycle
/// range over which every bit keeps a single classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First cycle of the segment.
    pub start: u64,
    /// One past the last cycle.
    pub end: u64,
    /// The ACE class (and with it the ACE bit mask).
    pub class: SpanClass,
}

impl Segment {
    /// Segment length in cycles.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the segment covers no cycles.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// The segments of one residency: the exposed window and the unread
/// tail, either of which may be absent. Both are drawn from the lifetime
/// geometry, so a residency stores only that and the exposed window's
/// class (40 bytes: a run's span set is as long as its residency log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencySpans {
    /// The lifetime geometry the segments tile.
    pub lifetime: LifetimeSpan,
    /// The ACE class of the exposed segment (unused when the entry was
    /// never read and so has none).
    pub class: SpanClass,
}

impl ResidencySpans {
    /// Derives the segments of one residency: the phase boundary from the
    /// lifetime geometry, the exposed segment's ACE class from the
    /// occupant, how the residency ended, predication, and the dead map.
    pub fn derive(res: &Residency, dead: &DeadMap) -> ResidencySpans {
        ResidencySpans {
            lifetime: LifetimeSpan::of(res),
            class: exposed_class(res, dead),
        }
    }

    /// The exposed segment `[alloc, last_read)`, if the entry was ever
    /// read.
    pub fn exposed(&self) -> Option<Segment> {
        self.lifetime.live_range().map(|(start, end)| Segment {
            start,
            end,
            class: self.class,
        })
    }

    /// The unread segment `[boundary, dealloc)` (Ex-ACE tail, or the
    /// whole occupancy for a never-read entry), if non-empty.
    pub fn tail(&self) -> Option<Segment> {
        self.lifetime.tail_range().map(|(start, end)| Segment {
            start,
            end,
            class: SpanClass::Unread,
        })
    }

    /// The segments present, in cycle order.
    pub fn segments(&self) -> impl Iterator<Item = Segment> {
        self.exposed().into_iter().chain(self.tail())
    }

    /// The bit-cycle contributions of this residency, by span arithmetic:
    /// `popcount(mask) × len` per segment, never a per-cycle loop.
    pub fn bits(&self) -> ResidencyBits {
        let mut out = ResidencyBits::default();
        self.accumulate(&mut out);
        out
    }

    /// Adds this residency's contributions into an accumulator (the bulk
    /// path [`AvfAnalysis::from_spans`] uses).
    ///
    /// [`AvfAnalysis::from_spans`]: crate::AvfAnalysis::from_spans
    pub(crate) fn accumulate(&self, out: &mut ResidencyBits) {
        for seg in self.segments() {
            let len = seg.len();
            match seg.class {
                SpanClass::Unread => out.unread += len * BIT_COUNT as u64,
                class => {
                    let mask = class.ace_mask();
                    let width = mask.count_ones() as u64;
                    out.ace += width * len;
                    if mask != 0 {
                        for (i, km) in KIND_MASKS.iter().enumerate() {
                            let w = (mask & km).count_ones() as u64;
                            if w != 0 {
                                out.ace_by_kind[i] += w * len;
                            }
                        }
                    }
                    if let Some(cause) = class.unace_cause() {
                        out.add_cause(cause, (BIT_COUNT as u64 - width) * len);
                    }
                }
            }
        }
    }

    /// Checks the segment invariants: segments are within the lifetime,
    /// ordered, disjoint, and tile the valid window exactly.
    pub fn check(&self) -> Result<(), String> {
        let l = &self.lifetime;
        if l.alloc > l.dealloc {
            return Err(format!(
                "lifetime alloc {} > dealloc {}",
                l.alloc, l.dealloc
            ));
        }
        let mut covered = 0u64;
        let mut cursor = l.alloc;
        for seg in self.segments() {
            if seg.is_empty() {
                return Err(format!("empty segment at {}", seg.start));
            }
            if seg.start != cursor {
                return Err(format!(
                    "segment starts at {} but previous coverage ends at {cursor}",
                    seg.start
                ));
            }
            if seg.end > l.dealloc {
                return Err(format!(
                    "segment ends at {} past dealloc {}",
                    seg.end, l.dealloc
                ));
            }
            covered += seg.len();
            cursor = seg.end;
        }
        if covered != l.valid_cycles() {
            return Err(format!(
                "segments cover {covered} cycles of a {}-cycle lifetime",
                l.valid_cycles()
            ));
        }
        if self
            .exposed()
            .is_some_and(|seg| seg.class == SpanClass::Unread)
        {
            return Err("exposed segment tagged Unread".into());
        }
        if self
            .tail()
            .is_some_and(|seg| seg.class != SpanClass::Unread)
        {
            return Err("tail segment not tagged Unread".into());
        }
        Ok(())
    }
}

/// ACE class of a residency's exposed window (paper §4.1 rules; see
/// [`crate::ace`] for the bucket taxonomy).
fn exposed_class(res: &Residency, dead: &DeadMap) -> SpanClass {
    match res.occupant {
        Occupant::WrongPath => SpanClass::Unace(FalseDueCause::WrongPath),
        Occupant::CorrectPath { trace_idx } => {
            if res.end == ResidencyEnd::Squashed {
                SpanClass::Unace(FalseDueCause::Squashed)
            } else if res.falsely_predicated {
                SpanClass::Unace(FalseDueCause::FalselyPredicated)
            } else if res.instr.is_neutral() {
                SpanClass::NeutralSplit
            } else {
                match dead.get(trace_idx).kind {
                    DeadKind::Live => SpanClass::Ace,
                    DeadKind::FddReg => SpanClass::DeadSplit(FalseDueCause::DeadFddReg),
                    DeadKind::TddReg => SpanClass::DeadSplit(FalseDueCause::DeadTddReg),
                    DeadKind::FddMem => SpanClass::DeadSplit(FalseDueCause::DeadFddMem),
                    DeadKind::TddMem => SpanClass::DeadSplit(FalseDueCause::DeadTddMem),
                }
            }
        }
    }
}

/// All residency spans of one timing run: the canonical interval
/// representation the analytic engine, the suite runner, the injection
/// oracle, and (via [`LifetimeSpan`]) the adaptive sampler consume.
#[derive(Debug, Clone)]
pub struct SpanSet {
    cycles: u64,
    iq_capacity: u64,
    spans: Vec<ResidencySpans>,
}

impl SpanSet {
    /// Derives the span set of a timing run against the dead map of its
    /// trace. O(residencies); no loop iterates cycles.
    pub fn derive(result: &PipelineResult, dead: &DeadMap) -> SpanSet {
        SpanSet::derive_into(result, dead, Vec::new())
    }

    /// [`SpanSet::derive`] into `spans`, whose contents are discarded and
    /// whose allocation is kept: a sweep hands each run the buffer of the
    /// previous one ([`SpanSet::into_vec`]). A buffer too small grows to
    /// exactly the residency count.
    pub fn derive_into(
        result: &PipelineResult,
        dead: &DeadMap,
        mut spans: Vec<ResidencySpans>,
    ) -> SpanSet {
        spans.clear();
        spans.reserve_exact(result.residencies.len());
        spans.extend(
            result
                .residencies
                .iter()
                .map(|r| ResidencySpans::derive(r, dead)),
        );
        SpanSet {
            cycles: result.cycles,
            iq_capacity: result.iq_capacity as u64,
            spans,
        }
    }

    /// Takes the set apart, returning its span buffer for
    /// [`SpanSet::derive_into`] to reuse.
    pub fn into_vec(self) -> Vec<ResidencySpans> {
        self.spans
    }

    /// The per-residency spans, in residency-log order.
    pub fn residencies(&self) -> &[ResidencySpans] {
        &self.spans
    }

    /// Cycles of the underlying run.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Queue capacity of the underlying run.
    pub fn iq_capacity(&self) -> u64 {
        self.iq_capacity
    }

    /// Total bit-cycles of the run (cycles × entries × 64).
    pub fn total_bit_cycles(&self) -> u64 {
        self.cycles * self.iq_capacity * BIT_COUNT as u64
    }

    /// Checks every residency's segment invariants and that the valid
    /// mass fits into the run (the differential oracle gates on this).
    pub fn check(&self) -> Result<(), String> {
        let mut valid = 0u64;
        for (i, rs) in self.spans.iter().enumerate() {
            rs.check().map_err(|e| format!("residency {i}: {e}"))?;
            if rs.lifetime.dealloc > self.cycles {
                return Err(format!(
                    "residency {i} deallocates at {} past the {}-cycle run",
                    rs.lifetime.dealloc, self.cycles
                ));
            }
            valid += rs.lifetime.valid_cycles();
        }
        let capacity = self.cycles * self.iq_capacity;
        if valid > capacity {
            return Err(format!(
                "{valid} valid slot-cycles exceed the {capacity}-slot-cycle run"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_isa::Instruction;
    use ses_types::{Cycle, Reg, SeqNo};

    fn residency(alloc: u64, read: Option<u64>, dealloc: u64) -> Residency {
        Residency {
            slot: 3,
            seq: SeqNo::new(0),
            occupant: Occupant::CorrectPath { trace_idx: 0 },
            instr: Instruction::movi(Reg::new(1), 5),
            alloc: Cycle::new(alloc),
            last_read: read.map(Cycle::new),
            dealloc: Cycle::new(dealloc),
            end: ResidencyEnd::Retired,
            falsely_predicated: false,
        }
    }

    #[test]
    fn masks_match_field_widths() {
        assert_eq!(DEAD_ACE_MASK.count_ones(), 9, "6 dest + 3 pdest bits");
        assert_eq!(NEUTRAL_ACE_MASK.count_ones(), 6, "6 opcode bits");
        assert_eq!(KIND_WIDTHS.iter().sum::<u64>(), 64);
        for (i, kind) in BitKind::ALL.iter().enumerate() {
            assert_eq!(KIND_MASKS[i], field_mask(*kind));
            assert_eq!(KIND_WIDTHS[i], ses_isa::bits_of_kind(*kind).count() as u64);
        }
    }

    #[test]
    fn lifetime_phase_boundary() {
        let s = LifetimeSpan::of(&residency(10, Some(25), 30));
        assert_eq!(s.boundary(), 25);
        assert_eq!(s.live_range(), Some((10, 25)));
        assert_eq!(s.tail_range(), Some((25, 30)));
        assert_eq!(s.occupancy(), (10, 30));
        assert_eq!(s.valid_cycles(), 20);
        assert_eq!(s.exposed_cycles(), 15);
    }

    #[test]
    fn span_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<LifetimeSpan>() <= 32);
        assert!(std::mem::size_of::<ResidencySpans>() <= 40);
    }

    #[test]
    fn strike_index_occupancy_is_half_open() {
        let spans = [
            LifetimeSpan::of(&residency(10, Some(25), 30)),
            LifetimeSpan::of(&residency(40, None, 41)),
        ];
        let index = StrikeIndex::build(&spans, 4);
        for (cycle, want) in [
            (9, false),
            (10, true),
            (29, true),
            (30, false),
            (40, true),
            (41, false),
        ] {
            assert_eq!(index.occupied(3, cycle), want, "cycle {cycle}");
        }
        assert!(!index.occupied(2, 20), "another slot is empty");
        assert!(!index.occupied(4, 20), "a slot past the queue is empty");
    }

    #[test]
    fn never_read_is_all_tail() {
        let s = LifetimeSpan::of(&residency(10, None, 30));
        assert_eq!(s.live_range(), None);
        assert_eq!(s.tail_range(), Some((10, 30)));
        assert_eq!(s.exposed_cycles(), 0);
    }

    #[test]
    fn read_at_dealloc_has_no_tail() {
        let s = LifetimeSpan::of(&residency(10, Some(30), 30));
        assert_eq!(s.live_range(), Some((10, 30)));
        assert_eq!(s.tail_range(), None);
    }

    #[test]
    fn span_classes_partition_the_word() {
        for class in [
            SpanClass::Ace,
            SpanClass::Unace(FalseDueCause::WrongPath),
            SpanClass::NeutralSplit,
            SpanClass::DeadSplit(FalseDueCause::DeadFddReg),
        ] {
            let ace = class.ace_width();
            let unace = if class.unace_cause().is_some() {
                64 - ace
            } else {
                0
            };
            assert_eq!(ace + unace, 64, "exposed classes account for every bit");
        }
        assert_eq!(SpanClass::Unread.ace_width(), 0);
        assert_eq!(SpanClass::Unread.unace_cause(), None);
    }

    #[test]
    fn segments_tile_the_lifetime() {
        let dead = DeadMap::analyze(
            &ses_arch::Emulator::new(&ses_isa::Program::new(vec![
                Instruction::movi(Reg::new(1), 5),
                Instruction::out(Reg::new(1)),
                Instruction::halt(),
            ]))
            .run(1000)
            .unwrap(),
        );
        let rs = ResidencySpans::derive(&residency(10, Some(25), 30), &dead);
        rs.check().unwrap();
        assert_eq!(rs.segments().count(), 2);
        assert_eq!(rs.exposed().map(|s| (s.start, s.end)), Some((10, 25)));
        assert_eq!(
            rs.tail().map(|s| (s.start, s.end, s.class)),
            Some((25, 30, SpanClass::Unread))
        );
        let unread = ResidencySpans {
            class: SpanClass::Unread,
            ..rs
        };
        assert!(unread.check().is_err(), "an exposed segment tagged Unread");
        let b = rs.bits();
        assert_eq!(b.valid_total(), 20 * 64);
        assert_eq!(b.unread, 5 * 64);
    }
}
