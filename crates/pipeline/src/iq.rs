//! The 64-entry instruction queue: the hardware structure under study.
//!
//! Entries live in fixed slots (so the fault injector can target
//! slot × bit coordinates, matching the paper's per-bit AVF accounting) and
//! are aged by fetch sequence number for in-order issue, retirement, and
//! the squash-all-younger action.

use std::collections::VecDeque;

use ses_isa::{encode, Instruction};
use ses_types::{Cycle, SeqNo};

use crate::residency::{Occupant, Residency, ResidencyEnd};

/// One occupied instruction-queue slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IqEntry {
    /// Who this is.
    pub occupant: Occupant,
    /// The uncorrupted instruction.
    pub instr: Instruction,
    /// The stored 64-bit word; fault injection flips bits here.
    pub word: u64,
    /// The word as written at allocation (the parity reference).
    pub original_word: u64,
    /// Fetch order.
    pub seq: SeqNo,
    /// Allocation cycle.
    pub alloc: Cycle,
    /// Issue cycle, once issued.
    pub issued: Option<Cycle>,
    /// Execution-complete cycle, set at issue.
    pub complete_at: Option<Cycle>,
    /// Whether the qualifying predicate evaluated false (correct path only).
    pub falsely_predicated: bool,
    /// π bit: set on parity detection instead of signalling (§4.2).
    pub pi: bool,
    /// anti-π bit: set at decode for neutral instruction types (§4.3.2).
    pub anti_pi: bool,
    /// Whether this is a conditional branch the front end mispredicted;
    /// its completion triggers recovery.
    pub mispredicted_branch: bool,
}

impl IqEntry {
    /// Creates an entry for a newly inserted instruction.
    pub fn new(
        occupant: Occupant,
        instr: Instruction,
        seq: SeqNo,
        alloc: Cycle,
        falsely_predicated: bool,
    ) -> Self {
        let word = encode(&instr);
        IqEntry {
            occupant,
            instr,
            word,
            original_word: word,
            seq,
            alloc,
            issued: None,
            complete_at: None,
            falsely_predicated,
            pi: false,
            anti_pi: instr.is_neutral(),
            mispredicted_branch: false,
        }
    }

    /// Whether a strike has corrupted the stored word (what parity sees on
    /// a read).
    pub fn parity_mismatch(&self) -> bool {
        self.word != self.original_word
    }

    fn residency(&self, dealloc: Cycle, end: ResidencyEnd) -> Residency {
        Residency {
            slot: usize::MAX, // patched by the queue
            seq: self.seq,
            occupant: self.occupant,
            instr: self.instr,
            alloc: self.alloc,
            last_read: self.issued,
            dealloc,
            end,
            falsely_predicated: self.falsely_predicated,
        }
    }
}

/// The fixed-slot instruction queue.
///
/// Every bookkeeping operation is constant-time per entry touched: a
/// free-slot bitset yields the lowest free slot, retirement pops the head
/// of the age order, and squash and flush truncate its tail (their victims
/// are always a suffix of age order).
///
/// A clone carries the queue's machine state but not its residency log,
/// and logs nothing until a log is seeded: the log is the run's output,
/// not machine state, and copying a golden run's growing log into every
/// checkpoint would cost time quadratic in its length.
#[derive(Debug)]
pub struct InstructionQueue {
    slots: Vec<Option<IqEntry>>,
    /// One bit per slot, set while the slot is free (bit `s % 64` of word
    /// `s / 64`); bits past the capacity stay clear.
    free_bits: Vec<u64>,
    /// Slot indices in age order (oldest first).
    order: VecDeque<usize>,
    /// The residency log; `None` switches logging off (lean fault
    /// replays, whose log nothing reads).
    residencies: Option<Vec<Residency>>,
    /// Entries removed by the last squash or flush, oldest first (kept
    /// between calls so removal allocates nothing once warm).
    removed: Vec<IqEntry>,
    /// Sum over cycles of occupied-slot count, for occupancy statistics.
    occupied_cycle_sum: u64,
}

impl InstructionQueue {
    /// Creates an empty queue with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let mut free_bits = vec![u64::MAX; capacity.div_ceil(64)];
        if !capacity.is_multiple_of(64) {
            *free_bits.last_mut().expect("capacity is positive") = (1 << (capacity % 64)) - 1;
        }
        InstructionQueue {
            slots: vec![None; capacity],
            free_bits,
            order: VecDeque::with_capacity(capacity),
            residencies: Some(Vec::new()),
            removed: Vec::new(),
            occupied_cycle_sum: 0,
        }
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.order.len()
    }

    /// Number of free slots.
    pub fn free(&self) -> usize {
        self.capacity() - self.occupied()
    }

    /// Inserts an entry into the lowest free slot, returning the slot index.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers must check [`Self::free`]).
    pub fn insert(&mut self, entry: IqEntry) -> usize {
        let word = self
            .free_bits
            .iter()
            .position(|&w| w != 0)
            .expect("instruction queue overflow");
        let bits = &mut self.free_bits[word];
        let slot = word * 64 + bits.trailing_zeros() as usize;
        *bits &= *bits - 1;
        debug_assert!(
            self.order
                .back()
                .map(|&s| self.slots[s].as_ref().unwrap().seq < entry.seq)
                .unwrap_or(true),
            "insertions must be in fetch order"
        );
        self.slots[slot] = Some(entry);
        self.order.push_back(slot);
        slot
    }

    /// The entry in `slot`, if occupied.
    pub fn get(&self, slot: usize) -> Option<&IqEntry> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Mutable access to the entry in `slot`.
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut IqEntry> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    /// Slot indices in age order (oldest first).
    pub fn age_order(&self) -> &VecDeque<usize> {
        &self.order
    }

    /// The oldest entry's slot, if any.
    pub fn head(&self) -> Option<usize> {
        self.order.front().copied()
    }

    /// Empties `slot` and logs its residency; the caller removes the slot
    /// from the age order.
    fn finalize(&mut self, slot: usize, dealloc: Cycle, end: ResidencyEnd) -> IqEntry {
        let entry = self.slots[slot].take().expect("slot occupied");
        self.free_bits[slot / 64] |= 1 << (slot % 64);
        if let Some(log) = self.residencies.as_mut() {
            let mut res = entry.residency(dealloc, end);
            res.slot = slot;
            log.push(res);
        }
        entry
    }

    /// Retires the entry in `slot` (must be the oldest).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not the oldest occupied slot.
    pub fn retire(&mut self, slot: usize, now: Cycle) -> IqEntry {
        assert_eq!(self.head(), Some(slot), "retirement must be in order");
        self.order.pop_front();
        self.finalize(slot, now, ResidencyEnd::Retired)
    }

    /// Removes every entry strictly younger than `seq` with the squash
    /// ending, returning them oldest-first.
    pub fn squash_younger(&mut self, seq: SeqNo, now: Cycle) -> &[IqEntry] {
        self.remove_younger(seq, now, ResidencyEnd::Squashed)
    }

    /// Removes every entry strictly younger than `seq` with the wrong-path
    /// flush ending, returning them oldest-first.
    pub fn flush_younger(&mut self, seq: SeqNo, now: Cycle) -> &[IqEntry] {
        self.remove_younger(seq, now, ResidencyEnd::FlushedWrongPath)
    }

    /// Removes the age-order suffix younger than `seq`: insertion is in
    /// fetch order, so every entry younger than `seq` ages after every
    /// entry that is not.
    fn remove_younger(&mut self, seq: SeqNo, now: Cycle, end: ResidencyEnd) -> &[IqEntry] {
        let slots = &self.slots;
        let keep = self
            .order
            .partition_point(|&s| !slots[s].as_ref().unwrap().seq.is_younger_than(seq));
        self.removed.clear();
        for i in keep..self.order.len() {
            let entry = self.finalize(self.order[i], now, end);
            self.removed.push(entry);
        }
        self.order.truncate(keep);
        &self.removed
    }

    /// Drains all remaining entries at end of simulation.
    pub fn drain_all(&mut self, now: Cycle) {
        while let Some(slot) = self.order.pop_front() {
            self.finalize(slot, now, ResidencyEnd::Drained);
        }
    }

    /// Accumulates one cycle of occupancy statistics; call once per cycle.
    /// Returns the occupancy observed.
    pub fn tick_stats(&mut self) -> usize {
        let occupied = self.occupied();
        self.occupied_cycle_sum += occupied as u64;
        occupied
    }

    /// Sum over all ticked cycles of the occupied-slot count.
    pub fn occupied_cycle_sum(&self) -> u64 {
        self.occupied_cycle_sum
    }

    /// The finished residency log (consumes the queue); empty when logging
    /// was switched off.
    pub fn into_residencies(self) -> Vec<Residency> {
        self.residencies.unwrap_or_default()
    }

    /// Replaces the residency log: `Some` seeds it (a checkpoint resume
    /// starts an empty one), `None` switches logging off.
    pub(crate) fn set_residencies(&mut self, residencies: Option<Vec<Residency>>) {
        self.residencies = residencies;
    }

    /// The residency log so far; `None` while logging is off.
    #[cfg(test)]
    pub(crate) fn log(&self) -> Option<&[Residency]> {
        self.residencies.as_deref()
    }
}

impl Clone for InstructionQueue {
    fn clone(&self) -> Self {
        InstructionQueue {
            slots: self.slots.clone(),
            free_bits: self.free_bits.clone(),
            order: self.order.clone(),
            residencies: None,
            removed: Vec::new(),
            occupied_cycle_sum: self.occupied_cycle_sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_types::Cycle;

    fn entry(seq: u64, alloc: u64) -> IqEntry {
        IqEntry::new(
            Occupant::CorrectPath { trace_idx: seq },
            Instruction::nop(),
            SeqNo::new(seq),
            Cycle::new(alloc),
            false,
        )
    }

    #[test]
    fn insert_fills_lowest_slot_and_tracks_order() {
        let mut q = InstructionQueue::new(4);
        let s0 = q.insert(entry(0, 1));
        let s1 = q.insert(entry(1, 1));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(q.occupied(), 2);
        assert_eq!(q.head(), Some(0));
        // Retire the head; next insert reuses slot 0 but ages after slot 1.
        q.retire(0, Cycle::new(5));
        let s2 = q.insert(entry(2, 6));
        assert_eq!(s2, 0);
        assert_eq!(q.head(), Some(1), "slot 1 holds the oldest entry");
        assert_eq!(*q.age_order(), [1, 0]);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_retire_panics() {
        let mut q = InstructionQueue::new(4);
        q.insert(entry(0, 1));
        q.insert(entry(1, 1));
        q.retire(1, Cycle::new(5));
    }

    #[test]
    fn squash_younger_removes_tail_only() {
        let mut q = InstructionQueue::new(8);
        for i in 0..5 {
            q.insert(entry(i, i));
        }
        let squashed: Vec<u64> = q
            .squash_younger(SeqNo::new(2), Cycle::new(10))
            .iter()
            .map(|e| e.seq.as_u64())
            .collect();
        assert_eq!(squashed, vec![3, 4], "seqs 3 and 4");
        assert_eq!(q.occupied(), 3);
    }

    #[test]
    fn residency_log_records_ends() {
        let mut q = InstructionQueue::new(4);
        q.insert(entry(0, 0));
        q.insert(entry(1, 0));
        q.insert(entry(2, 0));
        q.retire(0, Cycle::new(3));
        q.squash_younger(SeqNo::new(1), Cycle::new(4));
        q.drain_all(Cycle::new(9));
        let log = q.into_residencies();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].end, ResidencyEnd::Retired);
        assert_eq!(log[1].end, ResidencyEnd::Squashed);
        assert_eq!(log[2].end, ResidencyEnd::Drained);
        assert_eq!(log[2].dealloc, Cycle::new(9));
        assert_eq!(log[0].slot, 0);
    }

    #[test]
    fn parity_mismatch_detects_bit_flip() {
        let mut q = InstructionQueue::new(2);
        let slot = q.insert(entry(0, 0));
        assert!(!q.get(slot).unwrap().parity_mismatch());
        q.get_mut(slot).unwrap().word ^= 1 << 17;
        assert!(q.get(slot).unwrap().parity_mismatch());
    }

    #[test]
    fn anti_pi_set_for_neutral_instructions() {
        let e = IqEntry::new(
            Occupant::WrongPath,
            Instruction::hint(),
            SeqNo::new(0),
            Cycle::ZERO,
            false,
        );
        assert!(e.anti_pi);
        let e2 = IqEntry::new(
            Occupant::WrongPath,
            Instruction::halt(),
            SeqNo::new(1),
            Cycle::ZERO,
            false,
        );
        assert!(!e2.anti_pi);
    }

    #[test]
    fn occupancy_stats_accumulate() {
        let mut q = InstructionQueue::new(4);
        q.insert(entry(0, 0));
        q.tick_stats();
        q.insert(entry(1, 1));
        q.tick_stats();
        assert_eq!(q.occupied_cycle_sum(), 3);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = InstructionQueue::new(1);
        q.insert(entry(0, 0));
        q.insert(entry(1, 0));
    }

    /// The plain queue the bitset queue must behave like: a linear scan
    /// for the lowest free slot, a `Vec` age order and `retain` removal.
    struct ReferenceQueue {
        slots: Vec<Option<IqEntry>>,
        order: Vec<usize>,
        log: Vec<Residency>,
    }

    impl ReferenceQueue {
        fn new(capacity: usize) -> Self {
            ReferenceQueue {
                slots: vec![None; capacity],
                order: Vec::new(),
                log: Vec::new(),
            }
        }

        fn insert(&mut self, entry: IqEntry) -> usize {
            let slot = self.slots.iter().position(Option::is_none).unwrap();
            self.slots[slot] = Some(entry);
            self.order.push(slot);
            slot
        }

        fn finalize(&mut self, slot: usize, now: Cycle, end: ResidencyEnd) -> IqEntry {
            let entry = self.slots[slot].take().unwrap();
            let mut res = entry.residency(now, end);
            res.slot = slot;
            self.log.push(res);
            self.order.retain(|&s| s != slot);
            entry
        }

        fn remove_younger(&mut self, seq: SeqNo, now: Cycle, end: ResidencyEnd) -> Vec<IqEntry> {
            let victims: Vec<usize> = self
                .order
                .iter()
                .copied()
                .filter(|&s| self.slots[s].as_ref().unwrap().seq.is_younger_than(seq))
                .collect();
            victims
                .into_iter()
                .map(|slot| self.finalize(slot, now, end))
                .collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        /// Random insert/retire/squash/flush/drain sequences drive the
        /// queue and the reference in lockstep; the two must agree on
        /// every returned slot and entry, the age order and the log, for
        /// capacities on both sides of the 64-bit bitset word.
        #[test]
        fn queue_matches_the_reference_model(
            cap_pick in 0usize..5,
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..900),
        ) {
            let capacity = [1, 63, 64, 65, 130][cap_pick];
            let mut q = InstructionQueue::new(capacity);
            let mut r = ReferenceQueue::new(capacity);
            let mut next_seq = 1u64;
            // Alternate between filling the queue to capacity and emptying
            // it, so every slot (and every bitset word) is taken and freed.
            let mut filling = true;
            for (t, op) in ops.into_iter().enumerate() {
                let now = Cycle::new(t as u64);
                if q.free() == 0 {
                    filling = false;
                } else if q.occupied() == 0 {
                    filling = true;
                }
                // Squash and flush remove the youngest 0-3 entries (or all
                // of them, when the threshold precedes the oldest).
                let threshold = |r: &ReferenceQueue| {
                    let k = (op >> 8) as usize % 4;
                    r.order
                        .len()
                        .checked_sub(k + 1)
                        .map_or(SeqNo::new(0), |i| r.slots[r.order[i]].as_ref().unwrap().seq)
                };
                if filling == (op % 8 != 0) && q.free() > 0 {
                    let e = entry(next_seq, t as u64);
                    next_seq += 1;
                    proptest::prop_assert_eq!(q.insert(e.clone()), r.insert(e));
                } else {
                    match (op >> 3) % 16 {
                        0..=9 => {
                            if let Some(slot) = q.head() {
                                let want = r.finalize(slot, now, ResidencyEnd::Retired);
                                proptest::prop_assert_eq!(q.retire(slot, now), want);
                            }
                        }
                        10..=12 => {
                            let seq = threshold(&r);
                            let want = r.remove_younger(seq, now, ResidencyEnd::Squashed);
                            proptest::prop_assert_eq!(q.squash_younger(seq, now), &want[..]);
                        }
                        13 | 14 => {
                            let seq = threshold(&r);
                            let want = r.remove_younger(seq, now, ResidencyEnd::FlushedWrongPath);
                            proptest::prop_assert_eq!(q.flush_younger(seq, now), &want[..]);
                        }
                        _ => {
                            q.drain_all(now);
                            for slot in r.order.clone() {
                                r.finalize(slot, now, ResidencyEnd::Drained);
                            }
                        }
                    }
                }
                proptest::prop_assert!(q.age_order().iter().eq(&r.order));
                proptest::prop_assert_eq!(q.free(), capacity - r.order.len());
                proptest::prop_assert_eq!(q.residencies.as_deref(), Some(&r.log[..]));
            }
            q.drain_all(Cycle::new(u64::MAX / 2));
            for slot in r.order.clone() {
                r.finalize(slot, Cycle::new(u64::MAX / 2), ResidencyEnd::Drained);
            }
            proptest::prop_assert_eq!(q.into_residencies(), r.log);
        }
    }
}
