//! Per-stage pipeline counters and bit-lifetime histograms.
//!
//! [`StageCounters`] buckets fetch/insert/issue/commit/squash/throttle
//! activity and queue occupancy by cycle interval, giving run artifacts a
//! time-resolved view of where the machine spent its bandwidth (and where
//! squash/throttle events cluster around miss shadows). Collection is
//! opt-in: the engine holds an `Option<StageCounters>` and pays only a
//! branch per stage per cycle when telemetry is off.
//!
//! [`LifetimeHistogram`] summarises the residency log into power-of-two
//! buckets of entry lifetime — the raw material behind the paper's
//! observation that most queue state is short-lived while the vulnerable
//! tail is long.

use crate::residency::Residency;

/// Activity observed in one cycle interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBucket {
    /// First cycle of the interval.
    pub start_cycle: u64,
    /// Cycles of the interval actually simulated.
    pub cycles: u64,
    /// Correct-path instructions fetched.
    pub fetched: u64,
    /// Wrong-path instructions fetched.
    pub wrong_path_fetched: u64,
    /// Instructions inserted into the queue.
    pub inserted: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Squash actions triggered.
    pub squashes: u64,
    /// Instructions discarded by squash actions.
    pub squashed_instrs: u64,
    /// Cycles fetch was throttled.
    pub throttled_cycles: u64,
    /// Sum of queue occupancy over the interval's cycles.
    pub occupancy_sum: u64,
}

/// Cycle-bucketed per-stage pipeline counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCounters {
    bucket_size: u64,
    buckets: Vec<StageBucket>,
}

impl StageCounters {
    /// Creates a collector bucketing by `bucket_size` cycles (min 1).
    pub fn new(bucket_size: u64) -> Self {
        StageCounters {
            bucket_size: bucket_size.max(1),
            buckets: Vec::new(),
        }
    }

    /// The bucket width in cycles.
    pub fn bucket_size(&self) -> u64 {
        self.bucket_size
    }

    /// The recorded intervals, in cycle order.
    pub fn buckets(&self) -> &[StageBucket] {
        &self.buckets
    }

    /// Sums every interval into one totals record (`start_cycle` 0).
    pub fn totals(&self) -> StageBucket {
        let mut t = StageBucket::default();
        for b in &self.buckets {
            t.cycles += b.cycles;
            t.fetched += b.fetched;
            t.wrong_path_fetched += b.wrong_path_fetched;
            t.inserted += b.inserted;
            t.issued += b.issued;
            t.committed += b.committed;
            t.squashes += b.squashes;
            t.squashed_instrs += b.squashed_instrs;
            t.throttled_cycles += b.throttled_cycles;
            t.occupancy_sum += b.occupancy_sum;
        }
        t
    }

    fn bucket_mut(&mut self, cycle: u64) -> &mut StageBucket {
        // Cycles arrive in order, so the latest bucket almost always holds
        // `cycle`; checking it first keeps a division off the per-cycle
        // path.
        let len = self.buckets.len();
        if len > 0 && cycle.wrapping_sub(self.buckets[len - 1].start_cycle) < self.bucket_size {
            return &mut self.buckets[len - 1];
        }
        let idx = (cycle / self.bucket_size) as usize;
        while self.buckets.len() <= idx {
            let start = self.buckets.len() as u64 * self.bucket_size;
            self.buckets.push(StageBucket {
                start_cycle: start,
                ..StageBucket::default()
            });
        }
        &mut self.buckets[idx]
    }

    /// Records correct- and wrong-path fetches this cycle.
    pub fn on_fetch(&mut self, cycle: u64, correct: u64, wrong: u64) {
        let b = self.bucket_mut(cycle);
        b.fetched += correct;
        b.wrong_path_fetched += wrong;
    }

    /// Records queue insertions this cycle.
    pub fn on_insert(&mut self, cycle: u64, n: u64) {
        self.bucket_mut(cycle).inserted += n;
    }

    /// Records issues this cycle.
    pub fn on_issue(&mut self, cycle: u64, n: u64) {
        self.bucket_mut(cycle).issued += n;
    }

    /// Records commits this cycle.
    pub fn on_commit(&mut self, cycle: u64, n: u64) {
        self.bucket_mut(cycle).committed += n;
    }

    /// Records one squash action discarding `n` instructions.
    pub fn on_squash(&mut self, cycle: u64, n: u64) {
        let b = self.bucket_mut(cycle);
        b.squashes += 1;
        b.squashed_instrs += n;
    }

    /// Records a throttled fetch cycle.
    pub fn on_throttle(&mut self, cycle: u64) {
        self.bucket_mut(cycle).throttled_cycles += 1;
    }

    /// Closes out one simulated cycle with its end-of-cycle occupancy.
    pub fn on_cycle(&mut self, cycle: u64, occupancy: u64) {
        let b = self.bucket_mut(cycle);
        b.cycles += 1;
        b.occupancy_sum += occupancy;
    }
}

/// Power-of-two histograms of residency lifetimes.
///
/// Bucket 0 counts zero-cycle intervals; bucket `k >= 1` counts intervals
/// of `[2^(k-1), 2^k)` cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeHistogram {
    valid: Vec<u64>,
    exposed: Vec<u64>,
    ex_ace: Vec<u64>,
    residencies: u64,
}

fn bucket_of(cycles: u64) -> usize {
    (64 - cycles.leading_zeros()) as usize
}

fn bump(hist: &mut Vec<u64>, cycles: u64) {
    let b = bucket_of(cycles);
    if hist.len() <= b {
        hist.resize(b + 1, 0);
    }
    hist[b] += 1;
}

impl LifetimeHistogram {
    /// Builds the three lifetime histograms from a residency log.
    pub fn from_residencies(residencies: &[Residency]) -> Self {
        let mut h = LifetimeHistogram {
            valid: Vec::new(),
            exposed: Vec::new(),
            ex_ace: Vec::new(),
            residencies: residencies.len() as u64,
        };
        for r in residencies {
            bump(&mut h.valid, r.valid_cycles());
            bump(&mut h.exposed, r.exposed_cycles());
            bump(&mut h.ex_ace, r.ex_ace_cycles());
        }
        h
    }

    /// Residencies counted.
    pub fn residencies(&self) -> u64 {
        self.residencies
    }

    /// Valid-lifetime (alloc → dealloc) bucket counts.
    pub fn valid(&self) -> &[u64] {
        &self.valid
    }

    /// Exposure-window (alloc → last read) bucket counts.
    pub fn exposed(&self) -> &[u64] {
        &self.exposed
    }

    /// Ex-ACE-window (last read → dealloc) bucket counts.
    pub fn ex_ace(&self) -> &[u64] {
        &self.ex_ace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residency::{Occupant, ResidencyEnd};
    use ses_isa::Instruction;
    use ses_types::{Cycle, SeqNo};

    #[test]
    fn stage_counters_bucket_and_total() {
        let mut s = StageCounters::new(10);
        s.on_fetch(0, 4, 1);
        s.on_issue(5, 3);
        s.on_commit(12, 2);
        s.on_squash(25, 7);
        s.on_throttle(25);
        for c in 0..30 {
            s.on_cycle(c, 8);
        }
        assert_eq!(s.buckets().len(), 3);
        assert_eq!(s.buckets()[0].start_cycle, 0);
        assert_eq!(s.buckets()[1].start_cycle, 10);
        assert_eq!(s.buckets()[0].fetched, 4);
        assert_eq!(s.buckets()[0].wrong_path_fetched, 1);
        assert_eq!(s.buckets()[1].committed, 2);
        assert_eq!(s.buckets()[2].squashes, 1);
        assert_eq!(s.buckets()[2].squashed_instrs, 7);
        assert_eq!(s.buckets()[2].throttled_cycles, 1);
        let t = s.totals();
        assert_eq!(t.cycles, 30);
        assert_eq!(t.occupancy_sum, 240);
        assert_eq!(t.issued, 3);
    }

    #[test]
    fn zero_bucket_size_is_clamped() {
        let mut s = StageCounters::new(0);
        s.on_cycle(3, 1);
        assert_eq!(s.bucket_size(), 1);
        assert_eq!(s.buckets().len(), 4);
    }

    fn res(alloc: u64, read: Option<u64>, dealloc: u64) -> Residency {
        Residency {
            slot: 0,
            seq: SeqNo::new(1),
            occupant: Occupant::CorrectPath { trace_idx: 0 },
            instr: Instruction::nop(),
            alloc: Cycle::new(alloc),
            last_read: read.map(Cycle::new),
            dealloc: Cycle::new(dealloc),
            end: ResidencyEnd::Retired,
            falsely_predicated: false,
        }
    }

    #[test]
    fn lifetime_histogram_buckets_by_log2() {
        // Lifetimes: 0 (bucket 0), 1 (bucket 1), 5 (bucket 3), 16 (bucket 5).
        let log = [
            res(10, None, 10),
            res(0, Some(1), 1),
            res(0, None, 5),
            res(4, Some(8), 20),
        ];
        let h = LifetimeHistogram::from_residencies(&log);
        assert_eq!(h.residencies(), 4);
        assert_eq!(h.valid()[0], 1);
        assert_eq!(h.valid()[1], 1);
        assert_eq!(h.valid()[3], 1);
        assert_eq!(h.valid()[5], 1);
        assert_eq!(h.valid().iter().sum::<u64>(), 4);
        // Exposure: 0, 1, 0, 4 -> buckets 0,1,0,3.
        assert_eq!(h.exposed()[0], 2);
        assert_eq!(h.exposed()[1], 1);
        assert_eq!(h.exposed()[3], 1);
        // Every residency lands in exactly one bucket of each histogram.
        assert_eq!(h.exposed().iter().sum::<u64>(), 4);
        assert_eq!(h.ex_ace().iter().sum::<u64>(), 4);
    }
}
