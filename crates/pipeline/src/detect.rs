//! Error-detection models and single-fault bookkeeping.
//!
//! The [`Detector`] follows one injected single-bit fault through the
//! timing model and decides its fate under the configured detection model:
//!
//! * [`DetectionModel::None`] — an unprotected queue: a corrupted word that
//!   retires flows into architectural state (the fault-injection campaign
//!   then re-runs the functional emulator to see whether program output
//!   changes, i.e. whether this is an SDC);
//! * [`DetectionModel::Parity`] without tracking — any read of a corrupted
//!   entry raises a machine check at issue: every such fault is a DUE,
//!   true or false;
//! * [`DetectionModel::Parity`] with [`TrackingConfig`] — the paper's
//!   machinery: the π bit is set instead of signalling, the anti-π bit
//!   suppresses errors on non-opcode bits of neutral instructions, and the
//!   configured [`PiScope`] (plus optional PET buffer) decides where, if
//!   anywhere, the error is finally signalled.

use ses_arch::DynInstr;
use ses_isa::{field_mask, BitKind};
use ses_types::{Cycle, SeqNo};

use crate::iq::IqEntry;
use crate::pet::{PetBuffer, PetEntry, PetVerdict};
use crate::pibit::{PiScope, PiStep, PiTracker, SignalPoint};
use crate::residency::{Occupant, ResidencyEnd};

/// A fault to inject: flip `bit` (and optionally `second_bit`, modelling a
/// single particle upsetting two adjacent cells — the paper's §2 multi-bit
/// discussion) of the word in `slot` at `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Injection cycle.
    pub cycle: Cycle,
    /// Queue slot to strike.
    pub slot: usize,
    /// Bit position within the stored word (0–63).
    pub bit: u32,
    /// Optional second upset bit (multi-bit fault).
    pub second_bit: Option<u32>,
    /// When set, the second bit lands at this later cycle instead of
    /// simultaneously — two independent strikes *accumulating* in the same
    /// entry, the failure mode periodic scrubbing defends against (§2).
    /// The second strike only applies if the originally struck entry is
    /// still resident.
    pub second_cycle: Option<Cycle>,
    /// When set, the first strike flips this arbitrary multi-bit mask
    /// instead of the bit/second_bit pair — the spatial strike-pattern
    /// model. `bit` stays the anchor (lowest flipped bit) so stratum and
    /// replay bookkeeping keep working.
    pub pattern: Option<u64>,
    /// Verdict of the ECC protection domain guarding the struck word, if
    /// one is configured. `None` means no ECC domain (or the pattern was
    /// fully corrected, in which case no fault is injected at all).
    pub ecc: Option<EccReadOutcome>,
}

/// What a word's ECC domain concluded about the injected strike pattern,
/// precomputed by the campaign layer (the codeword algebra lives in
/// `ses-mem`; the pipeline only needs the disposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccReadOutcome {
    /// Uncorrectable but detected: the read raises a machine check (DUE).
    Signal,
    /// The pattern escaped the decoder (undetected codeword or silent
    /// miscorrection): the corrupted word flows on as an SDC candidate.
    Silent,
}

impl FaultSpec {
    /// A single-bit fault.
    pub fn single(cycle: Cycle, slot: usize, bit: u32) -> Self {
        FaultSpec {
            cycle,
            slot,
            bit,
            second_bit: None,
            second_cycle: None,
            pattern: None,
            ecc: None,
        }
    }

    /// An adjacent double-bit fault (bit and bit+1, wrapping),
    /// simultaneous (one particle, two cells).
    pub fn adjacent_double(cycle: Cycle, slot: usize, bit: u32) -> Self {
        FaultSpec {
            second_bit: Some((bit + 1) % 64),
            ..FaultSpec::single(cycle, slot, bit)
        }
    }

    /// Two independent strikes on the same entry, `gap` cycles apart.
    pub fn temporal_double(cycle: Cycle, slot: usize, bit: u32, gap: u64) -> Self {
        FaultSpec {
            second_bit: Some((bit + 1) % 64),
            second_cycle: Some(cycle + gap),
            ..FaultSpec::single(cycle, slot, bit)
        }
    }

    /// A spatial multi-bit strike: `mask` is flipped simultaneously at
    /// `cycle`, and `ecc` carries the word's protection-domain verdict
    /// (if any). The anchor bit is the lowest flipped bit.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty.
    pub fn with_pattern(cycle: Cycle, slot: usize, mask: u64, ecc: Option<EccReadOutcome>) -> Self {
        assert_ne!(mask, 0, "a strike pattern flips at least one bit");
        FaultSpec {
            pattern: Some(mask),
            ecc,
            ..FaultSpec::single(cycle, slot, mask.trailing_zeros())
        }
    }

    /// The XOR mask applied at the first strike.
    pub fn mask(&self) -> u64 {
        if let Some(p) = self.pattern {
            return p;
        }
        let second_now = match self.second_cycle {
            None => self.second_bit.map(|b| 1u64 << b).unwrap_or(0),
            Some(_) => 0,
        };
        (1u64 << self.bit) | second_now
    }

    /// The XOR mask of the deferred second strike, if any.
    pub fn second_mask(&self) -> Option<(Cycle, u64)> {
        match (self.second_cycle, self.second_bit) {
            (Some(c), Some(b)) => Some((c, 1u64 << b)),
            _ => None,
        }
    }
}

/// Configuration of the π-bit tracking machinery layered over parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackingConfig {
    /// How far signalling is deferred.
    pub scope: PiScope,
    /// Whether the anti-π bit suppresses non-opcode faults on neutral
    /// instructions.
    pub anti_pi: bool,
    /// Optional PET buffer capacity (only meaningful with
    /// [`PiScope::Commit`]).
    pub pet_entries: Option<usize>,
    /// π granularity in the memory system (bytes, power of two).
    pub mem_granule: u64,
}

impl TrackingConfig {
    /// The paper's §6.3 configuration: π carried to the store-commit point,
    /// anti-π enabled, no PET buffer.
    pub fn paper_combined() -> Self {
        TrackingConfig {
            scope: PiScope::StoreCommit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        }
    }
}

/// The error-detection capability of the instruction queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectionModel {
    /// No detection: strikes on consumed state become potential SDC.
    #[default]
    None,
    /// One parity bit per entry, checked when the entry is read at issue.
    /// An even number of flipped bits escapes detection (§2's multi-bit
    /// caveat).
    Parity {
        /// Optional π-bit tracking; `None` means every detection signals
        /// a machine check immediately.
        tracking: Option<TrackingConfig>,
    },
    /// `domains` interleaved parity groups per entry (bit *i* belongs to
    /// domain `i % domains`): the physical-interleaving defence the paper
    /// cites against multi-bit upsets. Detection fires when any domain has
    /// an odd number of flips.
    InterleavedParity {
        /// Number of parity domains (≥ 1).
        domains: u32,
        /// Optional π-bit tracking.
        tracking: Option<TrackingConfig>,
    },
}

impl DetectionModel {
    /// Parity domains this model checks (0 = no detection at all).
    fn domains(&self) -> u32 {
        match self {
            DetectionModel::None => 0,
            DetectionModel::Parity { .. } => 1,
            DetectionModel::InterleavedParity { domains, .. } => (*domains).max(1),
        }
    }

    fn tracking_config(&self) -> Option<TrackingConfig> {
        match self {
            DetectionModel::None => None,
            DetectionModel::Parity { tracking }
            | DetectionModel::InterleavedParity { tracking, .. } => *tracking,
        }
    }
}

/// Whether interleaved parity with `domains` groups detects the given
/// flipped-bit mask (any domain with an odd flip count).
pub fn parity_detects(flipped: u64, domains: u32) -> bool {
    if domains == 0 {
        return false;
    }
    (0..domains).any(|d| {
        let mut count = 0u32;
        let mut bit = d;
        while bit < 64 {
            count += ((flipped >> bit) & 1) as u32;
            bit += domains;
        }
        count % 2 == 1
    })
}

/// Why a detected error was never signalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuppressReason {
    /// The corrupted instruction was on the wrong path.
    WrongPath,
    /// The corrupted instruction's qualifying predicate was false.
    FalselyPredicated,
    /// The corrupted entry was squashed by the exposure-reduction action
    /// and refetched cleanly.
    Squashed,
    /// The anti-π bit: a non-opcode fault on a neutral instruction.
    AntiPi,
    /// The PET buffer proved the instruction first-level dynamically dead.
    PetProvenDead,
    /// The poisoned value was overwritten before any consuming read.
    DeadValueOverwritten,
    /// The program ended with the poison never consumed.
    UnconsumedAtEnd,
}

/// What the corruption was, for downstream (functional) classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// Who held the struck entry.
    pub occupant: Occupant,
    /// The corrupted 64-bit word.
    pub corrupted_word: u64,
    /// Whether the occupant's guard evaluated false.
    pub falsely_predicated: bool,
}

/// Final fate of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The targeted slot was unoccupied at the injection cycle (or the run
    /// ended first): outcome 1 of the paper's Figure 1.
    SlotIdle,
    /// The struck entry was never read after the strike (idle/Ex-ACE
    /// state, or discarded by squash/flush before issue): benign.
    NeverRead {
        /// How the struck entry's residency ended.
        end: ResidencyEnd,
    },
    /// No detection: the corrupted word was read and later retired into
    /// architectural state. Whether this is an SDC is decided functionally.
    CorruptIssued {
        /// The corruption details.
        corruption: Corruption,
    },
    /// A machine check was raised.
    Signalled {
        /// Where in the machine the error was signalled.
        point: SignalPoint,
        /// The corruption details.
        corruption: Corruption,
    },
    /// The error was detected but proven harmless; no machine check.
    Suppressed {
        /// Why it was safe to stay silent.
        reason: SuppressReason,
        /// The corruption details.
        corruption: Corruption,
    },
}

#[derive(Debug, Clone)]
struct Struck {
    /// Fetch order of the struck residency, the only one a deferred
    /// second strike may land on.
    seq: SeqNo,
    corruption: Corruption,
    /// Set at the first read of the struck word (issue or scrub); from
    /// then on `corruption` keeps the word that was read.
    read: bool,
    /// Set once parity has seen the mismatch (entry read post-strike).
    detected: bool,
    /// Under [`DetectionModel::None`]: corrupted word was issued.
    corrupt_issued: bool,
}

/// Tracks one injected fault through the pipeline.
#[derive(Debug, Clone)]
pub struct Detector {
    model: DetectionModel,
    injected: bool,
    struck: Option<Struck>,
    outcome: Option<FaultOutcome>,
    tracker: Option<PiTracker>,
    pet: Option<PetBuffer>,
    /// Trace index of the corrupted instruction once committed (for PET
    /// verdict matching).
    pi_trace_idx: Option<u64>,
    /// Precomputed ECC protection-domain verdict for the injected
    /// pattern, consulted at the first read of the corrupted word.
    ecc_verdict: Option<EccReadOutcome>,
}

impl Detector {
    /// Creates a detector for one run.
    pub fn new(model: DetectionModel) -> Self {
        let (tracker, pet) = match model.tracking_config() {
            Some(t) => {
                let tracker = PiTracker::new(t.scope, t.mem_granule);
                let pet = match (t.scope, t.pet_entries) {
                    (PiScope::Commit, Some(n)) => Some(PetBuffer::new(n)),
                    _ => None,
                };
                (Some(tracker), pet)
            }
            None => (None, None),
        };
        Detector {
            model,
            injected: false,
            struck: None,
            outcome: None,
            tracker,
            pet,
            pi_trace_idx: None,
            ecc_verdict: None,
        }
    }

    /// The detection model this detector runs.
    pub(crate) fn model(&self) -> DetectionModel {
        self.model
    }

    /// Arms the ECC protection-domain verdict for the injected pattern.
    /// Called by the engine alongside the injection itself, so snapshots
    /// taken before the strike resume with a clean detector and re-arm
    /// identically.
    pub fn set_ecc_verdict(&mut self, verdict: Option<EccReadOutcome>) {
        self.ecc_verdict = verdict;
    }

    fn tracking(&self) -> Option<TrackingConfig> {
        self.model.tracking_config()
    }

    /// The resolved outcome, once known.
    pub fn outcome(&self) -> Option<&FaultOutcome> {
        self.outcome.as_ref()
    }

    /// Applies a *follow-up* strike to `entry`, accumulating corruption
    /// (temporal double faults). It lands only on the struck residency
    /// while the outcome is open: a slot refilled since holds another
    /// entry, which it leaves alone. A strike after the first read still
    /// flips the stored word, but the recorded corruption stays the word
    /// that was read.
    pub fn on_second_strike(&mut self, entry: &mut IqEntry, mask: u64) {
        let Some(struck) = self.struck.as_mut() else {
            return;
        };
        if self.outcome.is_some() || entry.seq != struck.seq {
            return;
        }
        entry.word ^= mask;
        if !struck.read {
            struck.corruption.corrupted_word = entry.word;
        }
    }

    /// Scrub pass: the hardware re-reads the entry in the background and
    /// checks parity. Returns `true` when the run can stop early.
    ///
    /// Without a detection mechanism there is nothing to scrub with, so
    /// this is a no-op under [`DetectionModel::None`] (unlike an issue
    /// read, a scrub does not consume the value architecturally).
    pub fn on_scrub(&mut self, entry: &mut IqEntry) -> bool {
        if matches!(self.model, DetectionModel::None) {
            return false;
        }
        // A scrub read is detection-wise identical to an issue read.
        self.on_issue(entry)
    }

    /// Applies the strike to an entry (or records an idle slot).
    pub fn on_injection(&mut self, entry: Option<&mut IqEntry>, mask: u64) {
        self.injected = true;
        match entry {
            None => self.outcome = Some(FaultOutcome::SlotIdle),
            Some(e) => {
                e.word ^= mask;
                self.struck = Some(Struck {
                    seq: e.seq,
                    corruption: Corruption {
                        occupant: e.occupant,
                        corrupted_word: e.word,
                        falsely_predicated: e.falsely_predicated,
                    },
                    read: false,
                    detected: false,
                    corrupt_issued: false,
                });
            }
        }
    }

    /// Called when `entry` is read by issue logic. Returns `true` when the
    /// run can stop early (outcome fully resolved).
    pub fn on_issue(&mut self, entry: &mut IqEntry) -> bool {
        if self.outcome.is_some() {
            return true;
        }
        let Some(struck) = self.struck.as_mut() else {
            return false;
        };
        if !entry.parity_mismatch() {
            return false;
        }
        struck.read = true;
        if let Some(verdict) = self.ecc_verdict {
            // The word sits behind an ECC protection domain: the decoder
            // runs at this first read and its verdict was precomputed from
            // the full strike pattern (corrected patterns never reach the
            // pipeline at all).
            return match verdict {
                EccReadOutcome::Signal => {
                    self.outcome = Some(FaultOutcome::Signalled {
                        point: SignalPoint::EccCheck,
                        corruption: struck.corruption,
                    });
                    true
                }
                EccReadOutcome::Silent => {
                    struck.corrupt_issued = true;
                    false // resolution waits for retire vs. squash
                }
            };
        }
        let flipped = entry.word ^ entry.original_word;
        if !parity_detects(flipped, self.model.domains()) {
            // No detection (no parity, or an even number of flips inside
            // every parity domain): the corruption flows architecturally.
            struck.corrupt_issued = true;
            return false; // resolution waits for retire vs. squash
        }
        match self.model.tracking_config() {
            None => {
                self.outcome = Some(FaultOutcome::Signalled {
                    point: SignalPoint::IssueParity,
                    corruption: struck.corruption,
                });
                true
            }
            Some(cfg) => {
                if cfg.anti_pi && entry.anti_pi && flipped & field_mask(BitKind::Opcode) == 0 {
                    self.outcome = Some(FaultOutcome::Suppressed {
                        reason: SuppressReason::AntiPi,
                        corruption: struck.corruption,
                    });
                    return true;
                }
                entry.pi = true;
                struck.detected = true;
                false
            }
        }
    }

    /// Called when any entry leaves the queue without retiring, or when the
    /// struck entry's residency otherwise ends. Returns `true` when the run
    /// can stop early.
    pub fn on_dealloc(&mut self, entry: &IqEntry, end: ResidencyEnd) -> bool {
        if self.outcome.is_some() {
            return true;
        }
        let Some(struck) = self.struck.as_ref() else {
            return false;
        };
        if !entry.parity_mismatch() {
            return false;
        }
        // The struck entry's residency is over without an architectural
        // commit of the corrupted word.
        if end == ResidencyEnd::Retired {
            return false; // handled by on_commit
        }
        let outcome = if struck.detected {
            // π was set; the discard suppresses the error.
            let reason = match end {
                ResidencyEnd::FlushedWrongPath => SuppressReason::WrongPath,
                ResidencyEnd::Squashed => SuppressReason::Squashed,
                _ => SuppressReason::UnconsumedAtEnd,
            };
            FaultOutcome::Suppressed {
                reason,
                corruption: struck.corruption,
            }
        } else {
            FaultOutcome::NeverRead { end }
        };
        self.outcome = Some(outcome);
        true
    }

    /// Called at every correct-path retirement, in program order. Returns
    /// `true` when the run can stop early.
    pub fn on_commit(&mut self, entry: &IqEntry, d: &DynInstr) -> bool {
        if self.outcome.is_some() {
            return true;
        }
        let is_corrupted = entry.parity_mismatch();
        let self_pi = entry.pi;

        if is_corrupted {
            if let Some(struck) = self.struck.as_ref() {
                if struck.corrupt_issued {
                    // Consumed without detection (no parity, or a
                    // multi-bit flip that defeated it): architectural
                    // corruption.
                    self.outcome = Some(FaultOutcome::CorruptIssued {
                        corruption: struck.corruption,
                    });
                    return true;
                }
                if !self_pi {
                    // Struck after its last read: never consumed, never
                    // detected (the retire unit does not re-read the
                    // word) -- benign.
                    self.outcome = Some(FaultOutcome::NeverRead {
                        end: ResidencyEnd::Retired,
                    });
                    return true;
                }
            }
        }

        let Some(_cfg) = self.tracking() else {
            return false;
        };

        // Retire-unit filter: the π bit of a falsely predicated
        // instruction is ignored (§4.3.1).
        if self_pi && entry.falsely_predicated {
            if let Some(struck) = self.struck.as_ref() {
                self.outcome = Some(FaultOutcome::Suppressed {
                    reason: SuppressReason::FalselyPredicated,
                    corruption: struck.corruption,
                });
            }
            return true;
        }

        if self_pi {
            self.pi_trace_idx = Some(d.index);
        }

        // PET path: log every commit; verdicts arrive on eviction.
        if let Some(pet) = self.pet.as_mut() {
            let verdicts = pet.push(pet_entry(d, self_pi));
            return self.apply_pet_verdicts(&verdicts);
        }

        // π-scope path.
        if let Some(tracker) = self.tracker.as_mut() {
            if let Some(struck) = self.struck.as_ref() {
                match tracker.on_commit(d, self_pi) {
                    PiStep::Quiet => {}
                    PiStep::Signal(point) => {
                        self.outcome = Some(FaultOutcome::Signalled {
                            point,
                            corruption: struck.corruption,
                        });
                        return true;
                    }
                }
            }
            // With Commit scope the tracker signalled already when needed;
            // suppression of never-struck runs needs no bookkeeping.
        }
        false
    }

    fn apply_pet_verdicts(&mut self, verdicts: &[(u64, PetVerdict)]) -> bool {
        let Some(struck) = self.struck.as_ref() else {
            return false;
        };
        for &(idx, verdict) in verdicts {
            if Some(idx) == self.pi_trace_idx {
                self.outcome = Some(match verdict {
                    PetVerdict::ProvenDead => FaultOutcome::Suppressed {
                        reason: SuppressReason::PetProvenDead,
                        corruption: struck.corruption,
                    },
                    PetVerdict::MustSignal => FaultOutcome::Signalled {
                        point: SignalPoint::PetEviction,
                        corruption: struck.corruption,
                    },
                });
                return true;
            }
        }
        false
    }

    /// The outcome this detector is guaranteed to report at end of run
    /// *if nothing it observes from here on can change its state* — the
    /// convergence-pruning predicate.
    ///
    /// Returns `Some` exactly when the injected fault has fully played
    /// out: the strike landed, parity saw it (π was set), every poisoned
    /// location has since been overwritten (`poison_pending()` is false),
    /// and no PET buffer holds deferred verdicts. In that state
    /// [`PiTracker::on_commit`] can only ever return `Quiet` again (all
    /// of its signal paths require a poisoned source), so
    /// [`Detector::finish`] must resolve to
    /// [`SuppressReason::DeadValueOverwritten`] no matter how the rest of
    /// the run unfolds. The engine's convergence gate combines this with
    /// a spent fault and a struck slot that holds no corrupted word and
    /// no π to stop the replay early.
    pub(crate) fn quiescent_verdict(&self) -> Option<FaultOutcome> {
        if self.outcome.is_some() || !self.injected || self.pet.is_some() {
            return None;
        }
        let struck = self.struck.as_ref()?;
        if !struck.detected {
            return None;
        }
        let tracker = self.tracker.as_ref()?;
        if tracker.poison_pending() {
            return None;
        }
        Some(FaultOutcome::Suppressed {
            reason: SuppressReason::DeadValueOverwritten,
            corruption: struck.corruption,
        })
    }

    /// Resolves the final outcome at end of run.
    pub fn finish(mut self) -> Option<FaultOutcome> {
        if self.outcome.is_some() {
            return self.outcome;
        }
        if !self.injected {
            // The run ended before the injection cycle.
            return Some(FaultOutcome::SlotIdle);
        }
        let struck_detected = self.struck.as_ref()?.detected;
        let struck_corruption = self.struck.as_ref()?.corruption;
        // Drain the PET buffer.
        if let Some(mut pet) = self.pet.take() {
            let verdicts = pet.drain();
            if self.apply_pet_verdicts(&verdicts) {
                return self.outcome;
            }
        }
        if struck_detected {
            let reason = match self.tracker.as_ref() {
                Some(t) if t.poison_pending() => SuppressReason::UnconsumedAtEnd,
                Some(_) => SuppressReason::DeadValueOverwritten,
                None => SuppressReason::UnconsumedAtEnd,
            };
            return Some(FaultOutcome::Suppressed {
                reason,
                corruption: struck_corruption,
            });
        }
        // Struck but never read and still resident: handled by drain as
        // NeverRead via on_dealloc; if we get here, report it directly.
        Some(FaultOutcome::NeverRead {
            end: ResidencyEnd::Drained,
        })
    }
}

/// The PET log record of committed instruction `d` with π bit `pi`.
fn pet_entry(d: &DynInstr, pi: bool) -> PetEntry {
    let mut reads = [None, None];
    if d.executed {
        for (i, r) in d.regs_read().take(2).enumerate() {
            reads[i] = Some(r);
        }
    }
    PetEntry {
        trace_idx: d.index,
        dest: d.reg_written,
        reads,
        pi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::SideEffect;
    use ses_isa::Instruction;
    use ses_types::{Reg, SeqNo};

    fn entry(instr: Instruction) -> IqEntry {
        IqEntry::new(
            Occupant::CorrectPath { trace_idx: 0 },
            instr,
            SeqNo::new(0),
            Cycle::ZERO,
            false,
        )
    }

    #[test]
    fn parity_without_tracking_signals_at_issue() {
        let mut det = Detector::new(DetectionModel::Parity { tracking: None });
        let mut e = entry(Instruction::nop());
        det.on_injection(Some(&mut e), 1 << 30);
        assert!(det.on_issue(&mut e));
        assert!(matches!(
            det.outcome(),
            Some(FaultOutcome::Signalled {
                point: SignalPoint::IssueParity,
                ..
            })
        ));
    }

    #[test]
    fn idle_slot_resolves_immediately() {
        let mut det = Detector::new(DetectionModel::default());
        det.on_injection(None, 1 << 5);
        assert_eq!(det.outcome(), Some(&FaultOutcome::SlotIdle));
    }

    #[test]
    fn clean_issue_is_ignored() {
        let mut det = Detector::new(DetectionModel::Parity { tracking: None });
        let mut e = entry(Instruction::nop());
        det.on_injection(Some(&mut e), 1 << 30);
        let mut clean = entry(Instruction::halt());
        assert!(!det.on_issue(&mut clean));
        assert!(det.outcome().is_none());
    }

    #[test]
    fn anti_pi_suppresses_non_opcode_fault_on_neutral() {
        let cfg = TrackingConfig {
            scope: PiScope::Commit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        };
        let mut det = Detector::new(DetectionModel::Parity {
            tracking: Some(cfg),
        });
        let mut e = entry(Instruction::nop());
        det.on_injection(Some(&mut e), 1 << 35); // bit 35 = immediate field
        assert!(det.on_issue(&mut e));
        assert!(matches!(
            det.outcome(),
            Some(FaultOutcome::Suppressed {
                reason: SuppressReason::AntiPi,
                ..
            })
        ));
    }

    #[test]
    fn anti_pi_does_not_cover_opcode_bits() {
        let cfg = TrackingConfig {
            scope: PiScope::Commit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        };
        let mut det = Detector::new(DetectionModel::Parity {
            tracking: Some(cfg),
        });
        let mut e = entry(Instruction::nop());
        det.on_injection(Some(&mut e), 1 << 2); // opcode bit
        assert!(!det.on_issue(&mut e), "opcode fault sets π and continues");
        assert!(e.pi);
    }

    #[test]
    fn unread_then_flushed_is_benign() {
        let mut det = Detector::new(DetectionModel::Parity { tracking: None });
        let mut e = entry(Instruction::nop());
        det.on_injection(Some(&mut e), 1 << 30);
        assert!(det.on_dealloc(&e, ResidencyEnd::FlushedWrongPath));
        assert_eq!(
            det.outcome(),
            Some(&FaultOutcome::NeverRead {
                end: ResidencyEnd::FlushedWrongPath
            })
        );
    }

    #[test]
    fn never_injected_run_is_slot_idle() {
        let det = Detector::new(DetectionModel::default());
        assert_eq!(det.finish(), Some(FaultOutcome::SlotIdle));
    }

    #[test]
    fn pet_requires_commit_scope() {
        let cfg = TrackingConfig {
            scope: PiScope::Register,
            anti_pi: false,
            pet_entries: Some(512),
            mem_granule: 8,
        };
        let det = Detector::new(DetectionModel::Parity {
            tracking: Some(cfg),
        });
        assert!(det.pet.is_none(), "PET only instantiates at Commit scope");
    }

    #[test]
    fn parity_detects_odd_flips_only() {
        assert!(parity_detects(1 << 7, 1));
        assert!(!parity_detects(0b11, 1), "two flips defeat one parity bit");
        assert!(parity_detects(0b111, 1));
        // Two interleaved domains: adjacent bits land in different groups.
        assert!(parity_detects(0b11, 2));
        // ...but two flips inside the SAME domain still escape.
        assert!(!parity_detects(0b101, 2));
        assert!(parity_detects(0b101, 4));
        assert!(!parity_detects(0b1_0001, 4), "bits 0 and 4 share a domain");
        assert!(!parity_detects(1 << 3, 0), "domains=0 detects nothing");
        assert!(!parity_detects(0, 1), "no flips, no detection");
    }

    #[test]
    fn double_bit_fault_escapes_single_parity() {
        let mut det = Detector::new(DetectionModel::Parity { tracking: None });
        let mut e = entry(Instruction::nop());
        det.on_injection(Some(&mut e), 0b11 << 30); // adjacent double flip
        assert!(!det.on_issue(&mut e), "parity must not see an even flip");
        assert!(det.outcome().is_none(), "the corruption flows on silently");
    }

    #[test]
    fn double_bit_fault_caught_by_interleaved_parity() {
        let mut det = Detector::new(DetectionModel::InterleavedParity {
            domains: 2,
            tracking: None,
        });
        let mut e = entry(Instruction::nop());
        det.on_injection(Some(&mut e), 0b11 << 30);
        assert!(det.on_issue(&mut e));
        assert!(matches!(
            det.outcome(),
            Some(FaultOutcome::Signalled {
                point: SignalPoint::IssueParity,
                ..
            })
        ));
    }

    #[test]
    fn fault_spec_masks() {
        let s = FaultSpec::single(Cycle::new(1), 2, 5);
        assert_eq!(s.mask(), 1 << 5);
        let d = FaultSpec::adjacent_double(Cycle::new(1), 2, 63);
        assert_eq!(d.mask(), (1 << 63) | 1, "wraps at the word boundary");
    }

    #[test]
    fn corrupt_issue_without_detection_waits_for_commit() {
        let mut det = Detector::new(DetectionModel::None);
        let mut e = entry(Instruction::add(Reg::new(1), Reg::new(2), Reg::new(3)));
        det.on_injection(Some(&mut e), 1 << 30);
        assert!(!det.on_issue(&mut e), "no early stop: squash could discard");
        let d = DynInstr {
            index: 0,
            pc: ses_types::Addr::new(0x1_0000),
            instr: e.instr,
            executed: true,
            reg_written: Some(Reg::new(1)),
            pred_written: None,
            side_effect: SideEffect::None,
            taken: None,
            next_pc: ses_types::Addr::new(0x1_0008),
            call_depth: 0,
        };
        assert!(det.on_commit(&e, &d));
        assert!(matches!(
            det.outcome(),
            Some(FaultOutcome::CorruptIssued { .. })
        ));
    }
}
