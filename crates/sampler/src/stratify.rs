//! Partitioning the injection space into strata.
//!
//! The injection space of one campaign is the finite set
//! `{0..cycles} × {0..iq_entries} × {0..64}`: every (cycle, queue slot,
//! bit position) a particle could strike. Strata are its cells under
//! four axes that the AVF analyzer already shows to separate outcome
//! populations:
//!
//! * **queue region** — the slot quarter (low slots fill first, so they
//!   carry systematically different occupancy);
//! * **bit-field class** — instruction-word fields grouped by
//!   vulnerability profile (control bits stay ACE for neutral
//!   instructions, payload bits mostly do not);
//! * **lifetime phase** — whether the struck entry is still awaiting an
//!   issue read ([`Phase::Live`]) or past its last read ([`Phase::Tail`],
//!   the Ex-ACE window, where strikes are almost surely benign);
//! * **occupancy bucket** — cycle windows bucketed by how full the queue
//!   was in the golden run.
//!
//! Coordinates striking an *empty* slot are excluded from sampling
//! entirely: the timing model resolves them to a benign outcome by
//! construction, so they form a known-zero stratum whose mass
//! ([`Strata::masked_size`]) enters the post-stratified weights without
//! costing a single trial.
//!
//! The partition is exact: every coordinate is either masked or belongs
//! to exactly one stratum, and stratum sizes plus the masked mass sum to
//! the space size, so post-stratified weights are known constants rather
//! than estimates.

use ses_avf::LifetimeSpan;
use ses_isa::{bit_kind, bits_of_kind, BitKind};

/// One coordinate of the injection space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultCoord {
    /// Strike cycle.
    pub cycle: u64,
    /// Queue slot.
    pub slot: usize,
    /// Bit position within the stored word (0–63).
    pub bit: u32,
}

/// Instruction-word bit-field classes used as a stratification axis.
///
/// The seven [`BitKind`]s collapse into three classes with distinct
/// vulnerability profiles, keeping the stratum count small enough that
/// pilot rounds stay cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitClass {
    /// Opcode and qualifying-predicate bits: ACE even for neutral
    /// instructions.
    Control,
    /// Register/predicate specifier bits: ACE whenever the operand
    /// matters.
    RegSpec,
    /// Immediate and reserved bits: mostly un-ACE payload.
    Payload,
}

impl BitClass {
    /// All classes, in stratum-key order.
    pub const ALL: [BitClass; 3] = [BitClass::Control, BitClass::RegSpec, BitClass::Payload];

    /// The class of one [`BitKind`].
    pub fn of(kind: BitKind) -> BitClass {
        match kind {
            BitKind::Opcode | BitKind::Guard => BitClass::Control,
            BitKind::DestSpec | BitKind::SrcSpec | BitKind::PredDestSpec => BitClass::RegSpec,
            BitKind::Immediate | BitKind::Reserved => BitClass::Payload,
        }
    }

    /// The class of a raw bit position.
    pub fn of_bit(bit: u32) -> BitClass {
        BitClass::of(bit_kind(bit as usize))
    }

    /// Stable label for telemetry artifacts.
    pub fn label(self) -> &'static str {
        match self {
            BitClass::Control => "control",
            BitClass::RegSpec => "regspec",
            BitClass::Payload => "payload",
        }
    }

    /// The bit positions belonging to this class, ascending.
    pub fn bits(self) -> Vec<u32> {
        BitKind::ALL
            .iter()
            .filter(|&&k| BitClass::of(k) == self)
            .flat_map(|&k| bits_of_kind(k).map(|b| b as u32))
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .collect()
    }
}

/// Lifetime phase of an occupied slot — the stratification axis derived
/// from the AVF analyzer's residency lifetimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Between allocation and the last issue read: a strike lands in
    /// state that will still be consumed.
    Live,
    /// After the last issue read (the Ex-ACE window), or a residency that
    /// is never read at all: a strike lands in state that is dead weight.
    Tail,
}

impl Phase {
    /// All phases, in stratum-key order.
    pub const ALL: [Phase; 2] = [Phase::Live, Phase::Tail];

    /// Stable label for telemetry artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Live => "live",
            Phase::Tail => "tail",
        }
    }
}

/// One occupied span of one queue slot, tagged with its lifetime phase.
///
/// The half-open cycle range `[start, end)` must reflect when a strike
/// on `slot` actually lands in a stored word (for the timing model here:
/// allocation is visible to a same-cycle strike, deallocation is not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeCell {
    /// Queue slot index.
    pub slot: usize,
    /// First cycle of the span.
    pub start: u64,
    /// One past the last cycle of the span.
    pub end: u64,
    /// Lifetime phase of the span.
    pub phase: Phase,
}

/// Splits each residency lifetime into its live and Ex-ACE-tail cells —
/// the input [`Strata::build_cells`] stratifies by.
///
/// The live/tail boundary comes from [`LifetimeSpan`] itself (`ses-avf`'s
/// canonical span derivation), so the sampler's phase split and the
/// analytic ACE classification can never disagree about where a
/// residency's exposure ends.
pub fn lifetime_cells(spans: &[LifetimeSpan]) -> Vec<LifetimeCell> {
    let mut cells = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        if let Some((start, end)) = s.live_range() {
            cells.push(LifetimeCell {
                slot: s.slot(),
                start,
                end,
                phase: Phase::Live,
            });
        }
        if let Some((start, end)) = s.tail_range() {
            cells.push(LifetimeCell {
                slot: s.slot(),
                start,
                end,
                phase: Phase::Tail,
            });
        }
    }
    cells
}

/// Number of occupancy buckets (quartiles of queue fullness).
pub const OCC_BUCKETS: u8 = 4;

/// Per-window queue-occupancy classification of the golden run.
///
/// The run's cycles split into equal windows; each window is assigned an
/// occupancy quartile from the fraction of slot-cycles that held a valid
/// entry. Built from the residency intervals the baseline timing run
/// already records, so it costs one pass over the residency log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyProfile {
    cycles: u64,
    window_len: u64,
    bucket_of_window: Vec<u8>,
}

impl OccupancyProfile {
    /// Builds the profile from `(alloc, dealloc)` residency intervals
    /// (half-open, in cycles) of a run of `cycles` cycles over a queue of
    /// `capacity` entries, using `windows` equal cycle windows.
    ///
    /// # Panics
    ///
    /// Panics if `cycles`, `capacity`, or `windows` is zero.
    pub fn from_intervals(
        cycles: u64,
        capacity: usize,
        intervals: impl IntoIterator<Item = (u64, u64)>,
        windows: usize,
    ) -> Self {
        assert!(cycles > 0, "profile needs at least one cycle");
        assert!(capacity > 0, "profile needs a non-empty queue");
        assert!(windows > 0, "profile needs at least one window");
        let window_len = cycles.div_ceil(windows as u64).max(1);
        let n_windows = cycles.div_ceil(window_len) as usize;
        // Difference array over cycles, then prefix-sum into windows.
        let mut diff = vec![0i64; cycles as usize + 1];
        for (alloc, dealloc) in intervals {
            let a = alloc.min(cycles);
            let d = dealloc.min(cycles);
            if a < d {
                diff[a as usize] += 1;
                diff[d as usize] -= 1;
            }
        }
        let mut occupied = 0i64;
        let mut window_slot_cycles = vec![0u64; n_windows];
        for (c, d) in diff.iter().take(cycles as usize).enumerate() {
            occupied += d;
            window_slot_cycles[c / window_len as usize] += occupied as u64;
        }
        let bucket_of_window = window_slot_cycles
            .iter()
            .enumerate()
            .map(|(w, &sc)| {
                let start = w as u64 * window_len;
                let len = (cycles - start).min(window_len);
                let denom = len * capacity as u64;
                // bucket = floor(fraction * OCC_BUCKETS), clamped; integer
                // arithmetic keeps it exactly reproducible.
                ((sc * u64::from(OCC_BUCKETS) / denom.max(1)) as u8).min(OCC_BUCKETS - 1)
            })
            .collect();
        OccupancyProfile {
            cycles,
            window_len,
            bucket_of_window,
        }
    }

    /// Total cycles covered.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The occupancy bucket of one cycle.
    pub fn bucket_of_cycle(&self, cycle: u64) -> u8 {
        let w = ((cycle / self.window_len) as usize).min(self.bucket_of_window.len() - 1);
        self.bucket_of_window[w]
    }

    /// Window length in cycles.
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// Contiguous cycle runs per occupancy bucket, ascending and
    /// disjoint; the runs of all buckets tile `[0, cycles)`.
    fn runs_per_bucket(&self) -> Vec<Vec<(u64, u64)>> {
        let mut runs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); OCC_BUCKETS as usize];
        let mut start = 0u64;
        let mut current = self.bucket_of_cycle(0);
        for c in 1..self.cycles {
            let b = self.bucket_of_cycle(c);
            if b != current {
                runs[current as usize].push((start, c));
                start = c;
                current = b;
            }
        }
        runs[current as usize].push((start, self.cycles));
        runs
    }
}

/// Spatial strike-pattern class, after the SRAM upset distributions of
/// deep-submicron nodes: most upsets flip one cell, but a measurable tail
/// flips adjacent pairs, adjacent triples, or two independent cells.
/// Used both as the strike generator's sampling alphabet and as an extra
/// stratification axis, so the adaptive sampler steers trials toward the
/// pattern classes that actually produce events under a given ECC scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternClass {
    /// One flipped cell.
    Single,
    /// Two adjacent cells (one particle track).
    DoubleAdjacent,
    /// Three adjacent cells.
    TripleAdjacent,
    /// Two independent, non-adjacent cells.
    RandomDouble,
}

impl PatternClass {
    /// All classes, in descending typical-frequency order.
    pub const ALL: [PatternClass; 4] = [
        PatternClass::Single,
        PatternClass::DoubleAdjacent,
        PatternClass::TripleAdjacent,
        PatternClass::RandomDouble,
    ];

    /// Stable label for stratum and telemetry naming.
    pub fn label(self) -> &'static str {
        match self {
            PatternClass::Single => "single",
            PatternClass::DoubleAdjacent => "double-adj",
            PatternClass::TripleAdjacent => "triple-adj",
            PatternClass::RandomDouble => "random-double",
        }
    }

    /// Number of bits the class flips.
    pub fn weight(self) -> u32 {
        match self {
            PatternClass::Single => 1,
            PatternClass::DoubleAdjacent | PatternClass::RandomDouble => 2,
            PatternClass::TripleAdjacent => 3,
        }
    }
}

/// Identity of one stratum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StratumKey {
    /// Queue region index (slot quarter; the structure axis).
    pub region: u8,
    /// Bit-field class.
    pub class: BitClass,
    /// Lifetime phase of the struck entry.
    pub phase: Phase,
    /// Occupancy bucket of the strike cycle's window.
    pub occ: u8,
    /// Strike-pattern class axis, present only in multi-bit campaigns
    /// (single-bit partitions leave it `None` so their labels — and the
    /// artifacts built from them — are unchanged).
    pub pattern: Option<PatternClass>,
}

impl StratumKey {
    /// Stable label for telemetry artifacts, e.g. `q1/control/live/occ3`
    /// (with a `/double-adj`-style suffix in pattern-stratified runs).
    pub fn label(&self) -> String {
        let base = format!(
            "q{}/{}/{}/occ{}",
            self.region,
            self.class.label(),
            self.phase.label(),
            self.occ
        );
        match self.pattern {
            None => base,
            Some(p) => format!("{base}/{}", p.label()),
        }
    }
}

/// One cell of the injection-space partition: a set of per-slot cycle
/// segments crossed with the bit positions of one [`BitClass`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratum {
    /// Identity.
    pub key: StratumKey,
    /// `(slot, start, end)` segments, sorted by (slot, start), disjoint.
    segs: Vec<(usize, u64, u64)>,
    /// Exclusive prefix sums of per-segment coordinate counts.
    cum: Vec<u64>,
    /// Bit positions of the class, ascending.
    bits: Vec<u32>,
    /// Coordinates in the underlying geometric cell.
    size: u64,
    /// Replication multiplier: a pattern-stratified partition replicates
    /// each geometric cell per pattern class, scaled by the class's
    /// integer probability weight, so exact partition weights carry the
    /// pattern distribution with no floating-point bookkeeping.
    rep: u64,
}

impl Stratum {
    fn new(key: StratumKey, segs: Vec<(usize, u64, u64)>, bits: Vec<u32>) -> Stratum {
        let nb = bits.len() as u64;
        let mut cum = Vec::with_capacity(segs.len());
        let mut size = 0u64;
        for &(_, s, e) in &segs {
            cum.push(size);
            size += (e - s) * nb;
        }
        Stratum {
            key,
            segs,
            cum,
            bits,
            size,
            rep: 1,
        }
    }

    /// Number of coordinates in this stratum (replication included).
    pub fn size(&self) -> u64 {
        self.size * self.rep
    }

    /// The `rank`-th coordinate, in (segment, cycle, bit) order. Ranks
    /// `0..size()` enumerate the stratum, visiting each geometric
    /// coordinate exactly `rep` times (once when unreplicated).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= size()`.
    pub fn coord(&self, rank: u64) -> FaultCoord {
        assert!(rank < self.size(), "rank out of range");
        let rank = rank % self.size;
        let i = self.cum.partition_point(|&c| c <= rank) - 1;
        let within = rank - self.cum[i];
        let nb = self.bits.len() as u64;
        let (slot, start, _) = self.segs[i];
        FaultCoord {
            cycle: start + within / nb,
            slot,
            bit: self.bits[(within % nb) as usize],
        }
    }

    /// Whether the coordinate falls inside this stratum.
    pub fn contains(&self, c: &FaultCoord) -> bool {
        if self.bits.binary_search(&c.bit).is_err() {
            return false;
        }
        let i = self
            .segs
            .partition_point(|&(slot, start, _)| (slot, start) <= (c.slot, c.cycle));
        i > 0 && {
            let (slot, _, end) = self.segs[i - 1];
            slot == c.slot && c.cycle < end
        }
    }
}

/// The full injection-space partition of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strata {
    strata: Vec<Stratum>,
    total_size: u64,
    masked_size: u64,
}

impl Strata {
    /// Builds the partition for a run of `cycles` cycles over a queue of
    /// `iq_entries` slots, using the golden run's occupancy profile.
    /// Every coordinate is sampled (no masked mass): use this when no
    /// per-slot lifetime data is available. Empty cells are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` or `iq_entries` is zero, or if the profile does
    /// not cover `cycles`.
    pub fn build(cycles: u64, iq_entries: usize, profile: &OccupancyProfile) -> Strata {
        let cells: Vec<LifetimeCell> = (0..iq_entries)
            .map(|slot| LifetimeCell {
                slot,
                start: 0,
                end: cycles,
                phase: Phase::Live,
            })
            .collect();
        Strata::build_cells(cycles, iq_entries, profile, &cells)
    }

    /// Builds the partition from explicit per-slot lifetime cells.
    ///
    /// `cells` lists every span in which a strike on a slot lands in a
    /// stored word, tagged with its lifetime phase; spans of one slot and
    /// phase may touch or overlap (they are merged). Coordinates covered
    /// by no cell are *masked*: provably benign, excluded from sampling,
    /// and accounted as [`Strata::masked_size`]. Overlapping cells of
    /// different phases must not occur (one slot-cycle has one phase);
    /// where they do, [`Phase::Live`] wins.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` or `iq_entries` is zero, or if the profile does
    /// not cover `cycles`.
    pub fn build_cells(
        cycles: u64,
        iq_entries: usize,
        profile: &OccupancyProfile,
        cells: &[LifetimeCell],
    ) -> Strata {
        assert!(cycles > 0 && iq_entries > 0, "empty injection space");
        assert_eq!(profile.cycles(), cycles, "profile must cover the run");
        // Merged spans per (slot, phase), clamped to the run.
        let mut spans: Vec<[Vec<(u64, u64)>; 2]> = vec![[Vec::new(), Vec::new()]; iq_entries];
        for c in cells {
            let (s, e) = (c.start.min(cycles), c.end.min(cycles));
            if s < e && c.slot < iq_entries {
                let p = (c.phase == Phase::Tail) as usize;
                spans[c.slot][p].push((s, e));
            }
        }
        for slot in &mut spans {
            for phase in slot.iter_mut() {
                merge_runs(phase);
            }
            // Live wins where phases overlap.
            let live = slot[0].clone();
            subtract_runs(&mut slot[1], &live);
        }

        let runs_per_bucket = profile.runs_per_bucket();
        let region_count = iq_entries.min(4);
        let mut strata = Vec::new();
        for region in 0..region_count {
            let slot_start = region * iq_entries / region_count;
            let slot_end = (region + 1) * iq_entries / region_count;
            for class in BitClass::ALL {
                let bits = class.bits();
                for phase in Phase::ALL {
                    let p = (phase == Phase::Tail) as usize;
                    for (occ, bucket_runs) in runs_per_bucket.iter().enumerate() {
                        if bucket_runs.is_empty() {
                            continue;
                        }
                        let mut segs = Vec::new();
                        for (slot, span) in spans.iter().enumerate().take(slot_end).skip(slot_start)
                        {
                            intersect_into(slot, &span[p], bucket_runs, &mut segs);
                        }
                        if segs.is_empty() {
                            continue;
                        }
                        strata.push(Stratum::new(
                            StratumKey {
                                region: region as u8,
                                class,
                                phase,
                                occ: occ as u8,
                                pattern: None,
                            },
                            segs,
                            bits.clone(),
                        ));
                    }
                }
            }
        }
        let total_size = cycles * iq_entries as u64 * 64;
        let covered: u64 = strata.iter().map(Stratum::size).sum();
        debug_assert!(covered <= total_size, "strata exceed the space");
        Strata {
            strata,
            total_size,
            masked_size: total_size - covered,
        }
    }

    /// The strata, in stable (region, class, phase, occupancy) order.
    pub fn strata(&self) -> &[Stratum] {
        &self.strata
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// Total number of coordinates in the injection space, including the
    /// masked mass.
    pub fn total_size(&self) -> u64 {
        self.total_size
    }

    /// Coordinates excluded from sampling because a strike there is
    /// benign by construction (empty slot). They weight into the
    /// post-stratified estimate as an exact-zero stratum.
    pub fn masked_size(&self) -> u64 {
        self.masked_size
    }

    /// Coordinates that are actually sampled.
    pub fn sampled_size(&self) -> u64 {
        self.total_size - self.masked_size
    }

    /// Exact partition weight of stratum `i` (relative to the full
    /// space; sampled weights sum to `1 - masked_size/total_size`).
    pub fn weight(&self, i: usize) -> f64 {
        self.strata[i].size() as f64 / self.total_size as f64
    }

    /// Index of the stratum containing a coordinate, if any. Masked
    /// (known-benign) coordinates belong to no stratum. In a
    /// pattern-stratified partition the geometric coordinate belongs to
    /// one replica per class; the first (most frequent class) is
    /// returned.
    pub fn stratum_of(&self, c: &FaultCoord) -> Option<usize> {
        self.strata.iter().position(|s| s.contains(c))
    }

    /// Crosses the partition with a strike-pattern axis: every stratum is
    /// replicated once per `(class, weight)` pair, its size scaled by the
    /// integer weight, so a class with weight `w` holds exactly
    /// `w / Σweights` of each geometric cell's partition mass. Weights of
    /// zero drop the class. Masked mass scales identically, keeping
    /// sampled weights exact.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero.
    pub fn with_pattern_classes(&self, weights: &[(PatternClass, u64)]) -> Strata {
        let wsum: u64 = weights.iter().map(|&(_, w)| w).sum();
        assert!(wsum > 0, "pattern distribution must have positive mass");
        let mut strata = Vec::with_capacity(self.strata.len() * weights.len());
        for s in &self.strata {
            for &(class, w) in weights {
                if w == 0 {
                    continue;
                }
                let mut t = s.clone();
                t.key.pattern = Some(class);
                t.rep = s.rep * w;
                strata.push(t);
            }
        }
        Strata {
            strata,
            total_size: self.total_size * wsum,
            masked_size: self.masked_size * wsum,
        }
    }
}

/// Sorts runs and merges any that touch or overlap.
fn merge_runs(runs: &mut Vec<(u64, u64)>) {
    runs.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
    for &(s, e) in runs.iter() {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    *runs = out;
}

/// Removes every cycle of `minus` from `runs` (both sorted, disjoint).
fn subtract_runs(runs: &mut Vec<(u64, u64)>, minus: &[(u64, u64)]) {
    if minus.is_empty() || runs.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(runs.len());
    for &(mut s, e) in runs.iter() {
        for &(ms, me) in minus {
            if me <= s {
                continue;
            }
            if ms >= e {
                break;
            }
            if ms > s {
                out.push((s, ms));
            }
            s = s.max(me);
            if s >= e {
                break;
            }
        }
        if s < e {
            out.push((s, e));
        }
    }
    *runs = out;
}

/// Appends the intersection of one slot's spans with the bucket's cycle
/// runs as `(slot, start, end)` segments (both inputs sorted, disjoint).
fn intersect_into(
    slot: usize,
    spans: &[(u64, u64)],
    bucket_runs: &[(u64, u64)],
    out: &mut Vec<(usize, u64, u64)>,
) {
    let (mut i, mut j) = (0, 0);
    while i < spans.len() && j < bucket_runs.len() {
        let (a_s, a_e) = spans[i];
        let (b_s, b_e) = bucket_runs[j];
        let s = a_s.max(b_s);
        let e = a_e.min(b_e);
        if s < e {
            out.push((slot, s, e));
        }
        if a_e <= b_e {
            i += 1;
        } else {
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_and_strata(cycles: u64, iq: usize) -> (OccupancyProfile, Strata) {
        // A run that fills the queue in the middle third only.
        let lo = cycles / 3;
        let hi = 2 * cycles / 3;
        let intervals: Vec<(u64, u64)> = (0..iq).map(|_| (lo, hi)).collect();
        let profile = OccupancyProfile::from_intervals(cycles, iq, intervals, 8);
        let strata = Strata::build(cycles, iq, &profile);
        (profile, strata)
    }

    #[test]
    fn partition_is_exact() {
        let (_, strata) = profile_and_strata(96, 8);
        assert_eq!(strata.total_size(), 96 * 8 * 64);
        assert_eq!(strata.masked_size(), 0, "full build masks nothing");
        let sum: u64 = strata.strata().iter().map(Stratum::size).sum();
        assert_eq!(sum, strata.total_size());
        let wsum: f64 = (0..strata.len()).map(|i| strata.weight(i)).sum();
        assert!((wsum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_coordinate_belongs_to_exactly_one_stratum() {
        let (_, strata) = profile_and_strata(30, 4);
        for cycle in 0..30 {
            for slot in 0..4 {
                for bit in 0..64 {
                    let c = FaultCoord { cycle, slot, bit };
                    let n = strata.strata().iter().filter(|s| s.contains(&c)).count();
                    assert_eq!(n, 1, "coordinate {c:?} in {n} strata");
                }
            }
        }
    }

    #[test]
    fn rank_enumeration_is_a_bijection() {
        let (_, strata) = profile_and_strata(30, 4);
        for s in strata.strata() {
            let mut seen = std::collections::HashSet::new();
            for rank in 0..s.size() {
                let c = s.coord(rank);
                assert!(s.contains(&c), "enumerated coord must be contained");
                assert!(seen.insert(c), "duplicate coord at rank {rank}");
            }
            assert_eq!(seen.len() as u64, s.size());
        }
    }

    #[test]
    fn lifetime_cells_mask_idle_and_split_phases() {
        let cycles = 60u64;
        let iq = 4usize;
        // Slot 0 occupied [10, 40): live until 30, tail after. Slot 1
        // occupied [20, 50), never read (all tail). Slots 2, 3 idle.
        let cells = [
            LifetimeCell {
                slot: 0,
                start: 10,
                end: 30,
                phase: Phase::Live,
            },
            LifetimeCell {
                slot: 0,
                start: 30,
                end: 40,
                phase: Phase::Tail,
            },
            LifetimeCell {
                slot: 1,
                start: 20,
                end: 50,
                phase: Phase::Tail,
            },
        ];
        let profile =
            OccupancyProfile::from_intervals(cycles, iq, [(10u64, 40u64), (20u64, 50u64)], 6);
        let strata = Strata::build_cells(cycles, iq, &profile, &cells);
        assert_eq!(strata.total_size(), 60 * 4 * 64);
        let covered: u64 = strata.strata().iter().map(Stratum::size).sum();
        assert_eq!(covered, (20 + 10 + 30) * 64, "only occupied slot-cycles");
        assert_eq!(strata.masked_size(), strata.total_size() - covered);
        // Occupied coordinates land in exactly one stratum of the right
        // phase; idle coordinates land in none.
        for cycle in 0..cycles {
            for slot in 0..iq {
                let c = FaultCoord {
                    cycle,
                    slot,
                    bit: 0,
                };
                let hit = strata.stratum_of(&c);
                let expect = match slot {
                    0 if (10..30).contains(&cycle) => Some(Phase::Live),
                    0 if (30..40).contains(&cycle) => Some(Phase::Tail),
                    1 if (20..50).contains(&cycle) => Some(Phase::Tail),
                    _ => None,
                };
                assert_eq!(
                    hit.map(|i| strata.strata()[i].key.phase),
                    expect,
                    "coordinate {c:?}"
                );
            }
        }
        // Weights of sampled strata sum to the sampled fraction.
        let wsum: f64 = (0..strata.len()).map(|i| strata.weight(i)).sum();
        let sampled = strata.sampled_size() as f64 / strata.total_size() as f64;
        assert!((wsum - sampled).abs() < 1e-12);
    }

    #[test]
    fn overlapping_cells_resolve_live_over_tail() {
        let cycles = 20u64;
        let iq = 1usize;
        let cells = [
            LifetimeCell {
                slot: 0,
                start: 0,
                end: 15,
                phase: Phase::Tail,
            },
            LifetimeCell {
                slot: 0,
                start: 5,
                end: 10,
                phase: Phase::Live,
            },
        ];
        let profile = OccupancyProfile::from_intervals(cycles, iq, [(0u64, 15u64)], 4);
        let strata = Strata::build_cells(cycles, iq, &profile, &cells);
        let covered: u64 = strata.strata().iter().map(Stratum::size).sum();
        assert_eq!(covered, 15 * 64, "no double counting under overlap");
        let c = FaultCoord {
            cycle: 7,
            slot: 0,
            bit: 0,
        };
        let i = strata.stratum_of(&c).expect("occupied");
        assert_eq!(strata.strata()[i].key.phase, Phase::Live);
    }

    #[test]
    fn occupancy_buckets_reflect_queue_fullness() {
        let cycles = 90u64;
        let iq = 8usize;
        // Full queue in [30, 60), empty elsewhere.
        let intervals: Vec<(u64, u64)> = (0..iq).map(|_| (30, 60)).collect();
        let p = OccupancyProfile::from_intervals(cycles, iq, intervals, 9);
        assert_eq!(p.bucket_of_cycle(0), 0);
        assert_eq!(p.bucket_of_cycle(45), OCC_BUCKETS - 1);
        assert_eq!(p.bucket_of_cycle(89), 0);
    }

    #[test]
    fn bit_classes_cover_all_64_bits_once() {
        let mut seen = std::collections::HashSet::new();
        for class in BitClass::ALL {
            for b in class.bits() {
                assert!(seen.insert(b), "bit {b} in two classes");
                assert_eq!(BitClass::of_bit(b), class);
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn tiny_queue_still_partitions() {
        let (_, strata) = profile_and_strata(12, 2);
        assert_eq!(strata.total_size(), 12 * 2 * 64);
        let c = FaultCoord {
            cycle: 5,
            slot: 1,
            bit: 63,
        };
        assert!(strata.stratum_of(&c).is_some());
    }
}
