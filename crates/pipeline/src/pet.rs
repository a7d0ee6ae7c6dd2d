//! The Post-commit Error Tracking (PET) buffer (paper §4.3.3, design 1).
//!
//! A FIFO log of committed instructions. When a π-marked instruction is
//! evicted, the buffer is scanned: if the instruction's destination
//! register was overwritten by a younger logged instruction *before any
//! intervening read*, the instruction is provably first-level dynamically
//! dead and the error is suppressed; otherwise it must be signalled.
//! Unlike the register-π scheme, the PET buffer can name the exact
//! instruction that was struck.

use std::collections::VecDeque;

use ses_types::Reg;

/// One logged committed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PetEntry {
    /// Dynamic-trace index of the instruction (precise error attribution).
    pub trace_idx: u64,
    /// The general register it wrote, if any.
    pub dest: Option<Reg>,
    /// Registers it read (at most two in SES-64).
    pub reads: [Option<Reg>; 2],
    /// Its π bit at commit.
    pub pi: bool,
}

/// Verdict for an evicted π-marked entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PetVerdict {
    /// Overwritten before any read within the log: provably FDD, suppress.
    ProvenDead,
    /// A logged read intervened, the log ended first, or the instruction
    /// has no register destination: must signal.
    MustSignal,
}

/// The PET buffer.
///
/// # Example
///
/// ```
/// use ses_pipeline::{PetBuffer, PetEntry, PetVerdict};
/// use ses_types::Reg;
///
/// let mut pet = PetBuffer::new(4);
/// // A poisoned write to r1, then an overwrite of r1 with no read between:
/// let evicted = pet.push(PetEntry { trace_idx: 0, dest: Some(Reg::new(1)), reads: [None, None], pi: true });
/// assert!(evicted.is_empty());
/// pet.push(PetEntry { trace_idx: 1, dest: Some(Reg::new(1)), reads: [None, None], pi: false });
/// let verdicts = pet.drain();
/// assert_eq!(verdicts[0], (0, PetVerdict::ProvenDead));
/// ```
#[derive(Debug, Clone)]
pub struct PetBuffer {
    capacity: usize,
    fifo: VecDeque<PetEntry>,
    scans: u64,
}

impl PetBuffer {
    /// Creates a PET buffer logging up to `capacity` committed
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PET buffer needs at least one entry");
        PetBuffer {
            capacity,
            fifo: VecDeque::with_capacity(capacity),
            scans: 0,
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Number of eviction scans performed (these are rare in real
    /// operation — errors arrive on the order of days).
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Logs a committed instruction. If the buffer was full, the oldest
    /// entry is evicted first; when the evictee carries a π bit, the
    /// verdict for it is returned as `(trace_idx, verdict)`.
    pub fn push(&mut self, entry: PetEntry) -> Vec<(u64, PetVerdict)> {
        let mut out = Vec::new();
        if self.fifo.len() == self.capacity {
            let oldest = self.fifo.pop_front().expect("full buffer has a head");
            if oldest.pi {
                out.push((oldest.trace_idx, self.judge(&oldest)));
            }
        }
        self.fifo.push_back(entry);
        out
    }

    /// Judges `evicted` against the remaining (younger) log contents.
    fn judge(&mut self, evicted: &PetEntry) -> PetVerdict {
        self.scans += 1;
        let Some(dest) = evicted.dest else {
            // Stores, branches, outputs: PET cannot prove them dead.
            return PetVerdict::MustSignal;
        };
        for e in &self.fifo {
            if e.reads.iter().flatten().any(|&r| r == dest) {
                return PetVerdict::MustSignal;
            }
            if e.dest == Some(dest) {
                return PetVerdict::ProvenDead;
            }
        }
        PetVerdict::MustSignal
    }

    /// Drains the buffer at end of run, judging every remaining π entry in
    /// age order.
    pub fn drain(&mut self) -> Vec<(u64, PetVerdict)> {
        let mut out = Vec::new();
        while let Some(oldest) = self.fifo.pop_front() {
            if oldest.pi {
                out.push((oldest.trace_idx, self.judge(&oldest)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(idx: u64, dest: Option<u8>, reads: [Option<u8>; 2], pi: bool) -> PetEntry {
        PetEntry {
            trace_idx: idx,
            dest: dest.map(Reg::new),
            reads: [reads[0].map(Reg::new), reads[1].map(Reg::new)],
            pi,
        }
    }

    #[test]
    fn overwrite_before_read_proves_dead() {
        let mut pet = PetBuffer::new(2);
        pet.push(entry(0, Some(1), [None, None], true));
        pet.push(entry(1, Some(1), [None, None], false));
        // Pushing a third entry evicts the poisoned one.
        let v = pet.push(entry(2, Some(2), [None, None], false));
        assert_eq!(v, vec![(0, PetVerdict::ProvenDead)]);
        assert_eq!(pet.scans(), 1);
    }

    #[test]
    fn intervening_read_forces_signal() {
        let mut pet = PetBuffer::new(3);
        pet.push(entry(0, Some(1), [None, None], true));
        pet.push(entry(1, Some(3), [Some(1), None], false)); // reads r1
        pet.push(entry(2, Some(1), [None, None], false)); // overwrite after
        let v = pet.push(entry(3, Some(4), [None, None], false));
        assert_eq!(v, vec![(0, PetVerdict::MustSignal)]);
    }

    #[test]
    fn no_overwrite_in_window_forces_signal() {
        let mut pet = PetBuffer::new(2);
        pet.push(entry(0, Some(1), [None, None], true));
        pet.push(entry(1, Some(2), [None, None], false));
        let v = pet.push(entry(2, Some(3), [None, None], false));
        assert_eq!(
            v,
            vec![(0, PetVerdict::MustSignal)],
            "kill outside the window cannot be proven"
        );
    }

    #[test]
    fn destinationless_instruction_signals() {
        let mut pet = PetBuffer::new(1);
        pet.push(entry(0, None, [Some(5), None], true));
        let v = pet.push(entry(1, Some(1), [None, None], false));
        assert_eq!(v, vec![(0, PetVerdict::MustSignal)]);
    }

    #[test]
    fn clean_evictions_are_silent() {
        let mut pet = PetBuffer::new(1);
        pet.push(entry(0, Some(1), [None, None], false));
        let v = pet.push(entry(1, Some(2), [None, None], false));
        assert!(v.is_empty());
        assert_eq!(pet.scans(), 0, "no scan without a π eviction");
    }

    #[test]
    fn drain_judges_remaining_entries() {
        let mut pet = PetBuffer::new(8);
        pet.push(entry(0, Some(1), [None, None], true));
        pet.push(entry(1, Some(1), [None, None], false)); // kills 0
        pet.push(entry(2, Some(2), [None, None], true)); // never killed
        let v = pet.drain();
        assert_eq!(
            v,
            vec![(0, PetVerdict::ProvenDead), (2, PetVerdict::MustSignal)]
        );
        assert!(pet.is_empty());
    }

    /// What was logged before a π entry never changes its verdict: pushed
    /// into an empty log or a full one, it is evicted after the same
    /// number of younger pushes and judged against the younger entries
    /// only. A restored detector relies on this when it starts its log
    /// empty.
    #[test]
    fn a_pi_entry_is_judged_alike_in_an_empty_and_a_full_log() {
        let poisoned = entry(10, Some(1), [None, None], true);
        let overwritten = [(Some(1), [None, None]), (Some(2), [None, None])];
        let read_first = [(Some(2), [Some(1), None]), (Some(1), [None, None])];
        for (younger, expected) in [
            (overwritten, PetVerdict::ProvenDead),
            (read_first, PetVerdict::MustSignal),
        ] {
            let judged = |prefill: bool| {
                let mut pet = PetBuffer::new(4);
                if prefill {
                    // Older entries that would flip the verdict if scanned.
                    for i in 0..4 {
                        pet.push(entry(i, Some(1), [Some(1), None], false));
                    }
                }
                assert!(pet.push(poisoned).is_empty());
                (0..6u64).find_map(|n| {
                    let (dest, reads) = younger[(n as usize).min(1)];
                    let v = pet.push(entry(11 + n, dest, reads, false));
                    (!v.is_empty()).then_some((n, v))
                })
            };
            assert_eq!(judged(false), Some((3, vec![(10, expected)])));
            assert_eq!(judged(true), judged(false));
        }
    }

    #[test]
    fn capacity_and_len_track() {
        let mut pet = PetBuffer::new(3);
        assert_eq!(pet.capacity(), 3);
        for i in 0..5 {
            pet.push(entry(i, Some(1), [None, None], false));
        }
        assert_eq!(pet.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = PetBuffer::new(0);
    }
}
