//! π-bit propagation state machine (paper §4.2–4.3).
//!
//! A detected-but-unsignalled error is carried as a π bit on the affected
//! instruction; at commit it transfers to the instruction's destination
//! register, and from there along the dependence chain into further
//! registers, the store buffer, and (optionally) cache blocks — until it is
//! either *overwritten* (the error was false and is suppressed) or
//! *consumed* at the configured scope boundary (the error is signalled).
//!
//! The four scopes correspond to the paper's designs in §4.3.3:
//!
//! * [`PiScope::Commit`] — signal at the commit point (design 1's base;
//!   PET-buffer deferral is layered on top by [`crate::PetBuffer`]).
//! * [`PiScope::Register`] — π bit per register; signal when a poisoned
//!   register is read (design 2; covers FDD-via-register).
//! * [`PiScope::StoreCommit`] — π bits on all pipeline structures; poison
//!   propagates through registers and is signalled only when a store or
//!   I/O access commits poisoned data (design 3; adds TDD-via-register).
//! * [`PiScope::Memory`] — π bits on caches and memory too; signalled only
//!   at I/O (design 4; adds FDD/TDD-via-memory, 100 % false-DUE coverage).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use ses_arch::DynInstr;
use ses_mem::PiDirectory;
use ses_types::{Addr, Pred, Reg};

/// Where π bits live, i.e. how far error signalling is deferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PiScope {
    /// Signal at the commit point of the affected instruction.
    Commit,
    /// Defer through the register file; signal on read of a poisoned
    /// register.
    Register,
    /// Defer through registers and the store buffer; signal when poisoned
    /// data reaches a store commit or I/O.
    StoreCommit,
    /// Defer through caches but *not* main memory: when a poisoned block
    /// is written back (approximated by exceeding the marked-block
    /// `capacity`), the π bit goes out of scope and the error must be
    /// signalled — the paper's §4.2 remark: "when we write-back cache
    /// blocks from a cache to main memory, we would lose the π bit ...
    /// an implementation should flag an error if the π bit is set".
    CacheOnly {
        /// Marked blocks the caches can retain before one is written back.
        capacity: usize,
    },
    /// Defer through the whole memory system; signal only at I/O.
    Memory,
}

impl PiScope {
    /// All scopes, in increasing coverage order.
    pub const ALL: [PiScope; 5] = [
        PiScope::Commit,
        PiScope::Register,
        PiScope::StoreCommit,
        PiScope::CacheOnly { capacity: 1024 },
        PiScope::Memory,
    ];
}

/// Where an error was finally signalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SignalPoint {
    /// Machine check at issue (parity without π tracking).
    IssueParity,
    /// The word's ECC protection domain detected an uncorrectable error
    /// at the first read of the corrupted word.
    EccCheck,
    /// At the commit point of the affected instruction.
    Commit,
    /// A later instruction read a poisoned register.
    RegisterRead,
    /// Poisoned data reached a store commit.
    StoreCommit,
    /// Poisoned data reached an I/O access.
    IoCommit,
    /// A poisoned PET-buffer entry was evicted without a dead-proof.
    PetEviction,
    /// A poisoned value fed a committed control transfer (control flow
    /// cannot be tracked further, so the π bit goes out of scope).
    ControlOutOfScope,
    /// A poisoned cache block was written back to π-less main memory.
    WritebackOutOfScope,
}

/// Outcome of presenting one committed instruction to the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiStep {
    /// Nothing to report.
    Quiet,
    /// The error must be signalled here.
    Signal(SignalPoint),
}

/// The architectural π-bit state machine, driven at commit time in program
/// order.
#[derive(Debug, Clone)]
pub struct PiTracker {
    scope: PiScope,
    reg_pi: [bool; Reg::COUNT],
    pred_pi: [bool; Pred::COUNT],
    mem_pi: PiDirectory,
    /// Marked blocks in FIFO age order (CacheOnly scope).
    marked_order: VecDeque<u64>,
}

impl PiTracker {
    /// Creates a tracker for the given scope; `mem_granule` is the π
    /// granularity in the memory system (used only by [`PiScope::Memory`]).
    pub fn new(scope: PiScope, mem_granule: u64) -> Self {
        PiTracker {
            scope,
            reg_pi: [false; Reg::COUNT],
            pred_pi: [false; Pred::COUNT],
            mem_pi: PiDirectory::new(mem_granule),
            marked_order: VecDeque::new(),
        }
    }

    /// Whether this scope tracks poison through memory structures.
    fn tracks_memory(&self) -> bool {
        matches!(self.scope, PiScope::Memory | PiScope::CacheOnly { .. })
    }

    /// Marks a block poisoned; under [`PiScope::CacheOnly`] a capacity
    /// overflow models the oldest marked block being written back, which
    /// the hardware must signal.
    fn mark_block(&mut self, addr: Addr) -> PiStep {
        self.mem_pi.mark(addr);
        if let PiScope::CacheOnly { capacity } = self.scope {
            let key = addr.block_base(self.mem_pi.granule_bytes()).as_u64();
            if !self.marked_order.contains(&key) {
                self.marked_order.push_back(key);
            }
            if self.mem_pi.marked_count() > capacity.max(1) {
                if let Some(victim) = self.marked_order.pop_front() {
                    self.mem_pi.clear(Addr::new(victim));
                    return PiStep::Signal(SignalPoint::WritebackOutOfScope);
                }
            }
        }
        PiStep::Quiet
    }

    /// The configured scope.
    pub fn scope(&self) -> PiScope {
        self.scope
    }

    /// Whether any poison is still pending (unconsumed) in the tracker.
    pub fn poison_pending(&self) -> bool {
        self.poison_count() > 0
    }

    /// Number of poisoned locations (registers, predicates, and marked
    /// memory blocks) currently tracked.
    pub fn poison_count(&self) -> usize {
        self.reg_pi.iter().filter(|&&b| b).count()
            + self.pred_pi.iter().filter(|&&b| b).count()
            + self.mem_pi.marked_count()
    }

    /// Processes one committed instruction.
    ///
    /// `self_pi` is true exactly when this is the corrupted instruction
    /// itself committing with its π bit set (wrong-path and
    /// falsely-predicated filtering has already happened in the retire
    /// unit). Returns whether an error must be signalled at this point.
    ///
    /// For [`PiScope::Commit`] a `self_pi` commit always signals (deferral
    /// beyond commit is the PET buffer's job, handled by the caller).
    pub fn on_commit(&mut self, d: &DynInstr, self_pi: bool) -> PiStep {
        if self.scope == PiScope::Commit {
            return if self_pi {
                PiStep::Signal(SignalPoint::Commit)
            } else {
                PiStep::Quiet
            };
        }

        // 1. Gather poison from the sources this instruction actually read.
        let mut src_pi = self_pi;
        if d.executed {
            for r in d.regs_read() {
                if self.reg_pi[r.index()] {
                    if self.scope == PiScope::Register {
                        // Design 2: signal on read of a poisoned register.
                        return PiStep::Signal(SignalPoint::RegisterRead);
                    }
                    src_pi = true;
                }
            }
            if self.pred_pi[d.instr.qp.index()] {
                if self.scope == PiScope::Register {
                    return PiStep::Signal(SignalPoint::RegisterRead);
                }
                src_pi = true;
            }
            if self.tracks_memory() {
                if let Some(addr) = d.mem_read() {
                    if self.mem_pi.is_marked(addr) {
                        src_pi = true;
                    }
                }
            }
        }

        // 2. Scope-boundary consumption.
        if src_pi && d.executed {
            if d.is_output() {
                return PiStep::Signal(SignalPoint::IoCommit);
            }
            if let Some(addr) = d.mem_written() {
                match self.scope {
                    PiScope::StoreCommit | PiScope::Register => {
                        return PiStep::Signal(SignalPoint::StoreCommit);
                    }
                    PiScope::Memory | PiScope::CacheOnly { .. } => {
                        // Poison moves into the memory system; a CacheOnly
                        // scope may have to signal a writeback loss.
                        if let PiStep::Signal(point) = self.mark_block(addr) {
                            return PiStep::Signal(point);
                        }
                    }
                    PiScope::Commit => unreachable!(),
                }
            }
            if d.is_control() {
                // A poisoned value steered control flow; the π bit goes
                // out of scope.
                return PiStep::Signal(SignalPoint::ControlOutOfScope);
            }
        }

        // 3. Clean stores scrub the memory π bit (overwrite-before-read).
        if !src_pi && self.tracks_memory() {
            if let Some(addr) = d.mem_written() {
                if self.mem_pi.clear(addr) {
                    let key = addr.block_base(self.mem_pi.granule_bytes()).as_u64();
                    self.marked_order.retain(|&k| k != key);
                }
            }
        }

        // 4. Destination update: poisoned sources poison the destination;
        // clean writes scrub it (that is how false errors die).
        if let Some(w) = d.reg_written {
            self.reg_pi[w.index()] = src_pi;
        }
        if let Some(p) = d.pred_written {
            self.pred_pi[p.index()] = src_pi;
        }

        // 5. Memory-scope loads pull poison out of memory into the
        // destination register (already handled via src_pi in step 1).

        if src_pi && self_pi && d.reg_written.is_none() && d.pred_written.is_none() {
            // The corrupted instruction commits but leaves no trackable
            // destination (e.g. a nop or prefetch under Register+ scopes):
            // nothing can consume the poison later, and the hardware
            // cannot prove it dead, so it must signal at commit.
            if d.mem_written().is_none() && !d.is_output() && !d.is_control() {
                return PiStep::Signal(SignalPoint::Commit);
            }
        }

        PiStep::Quiet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::SideEffect;
    use ses_isa::Instruction;
    use ses_types::Addr;

    fn dyn_instr(instr: Instruction, idx: u64) -> DynInstr {
        DynInstr {
            index: idx,
            pc: Addr::new(0x1_0000 + idx * 8),
            instr,
            executed: true,
            reg_written: instr.reg_write().filter(|r| !r.is_zero()),
            pred_written: instr.pred_write(),
            side_effect: SideEffect::None,
            taken: None,
            next_pc: Addr::new(0x1_0000 + (idx + 1) * 8),
            call_depth: 0,
        }
    }

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    #[test]
    fn commit_scope_signals_immediately() {
        let mut t = PiTracker::new(PiScope::Commit, 8);
        let d = dyn_instr(Instruction::add(r(1), r(2), r(3)), 0);
        assert_eq!(t.on_commit(&d, true), PiStep::Signal(SignalPoint::Commit));
        assert_eq!(t.on_commit(&d, false), PiStep::Quiet);
    }

    #[test]
    fn register_scope_defers_until_read() {
        let mut t = PiTracker::new(PiScope::Register, 8);
        // Corrupted add writes r1: poison parks on r1.
        let def = dyn_instr(Instruction::add(r(1), r(2), r(3)), 0);
        assert_eq!(t.on_commit(&def, true), PiStep::Quiet);
        assert!(t.poison_pending());
        // A read of r1 signals.
        let read = dyn_instr(Instruction::add(r(4), r(1), r(5)), 1);
        assert_eq!(
            t.on_commit(&read, false),
            PiStep::Signal(SignalPoint::RegisterRead)
        );
    }

    #[test]
    fn register_scope_overwrite_suppresses() {
        let mut t = PiTracker::new(PiScope::Register, 8);
        let def = dyn_instr(Instruction::add(r(1), r(2), r(3)), 0);
        t.on_commit(&def, true);
        // Overwrite r1 without reading it: FDD, poison dies.
        let kill = dyn_instr(Instruction::movi(r(1), 9), 1);
        assert_eq!(t.on_commit(&kill, false), PiStep::Quiet);
        assert!(!t.poison_pending());
        // Later read of r1 is clean.
        let read = dyn_instr(Instruction::add(r(4), r(1), r(5)), 2);
        assert_eq!(t.on_commit(&read, false), PiStep::Quiet);
    }

    #[test]
    fn store_commit_scope_tracks_tdd_chain() {
        let mut t = PiTracker::new(PiScope::StoreCommit, 8);
        // Corrupt def of r1; r1 -> r2 -> r3 chain propagates silently.
        t.on_commit(&dyn_instr(Instruction::add(r(1), r(5), r(6)), 0), true);
        assert_eq!(
            t.on_commit(&dyn_instr(Instruction::add(r(2), r(1), r(5)), 1), false),
            PiStep::Quiet
        );
        assert_eq!(
            t.on_commit(&dyn_instr(Instruction::add(r(3), r(2), r(5)), 2), false),
            PiStep::Quiet
        );
        // Poisoned store signals at store commit.
        let mut st = dyn_instr(Instruction::st(r(10), r(3), 0), 3);
        st.side_effect = SideEffect::MemWritten(Addr::new(0x2000));
        assert_eq!(
            t.on_commit(&st, false),
            PiStep::Signal(SignalPoint::StoreCommit)
        );
    }

    #[test]
    fn store_commit_scope_chain_overwritten_suppresses() {
        let mut t = PiTracker::new(PiScope::StoreCommit, 8);
        t.on_commit(&dyn_instr(Instruction::add(r(1), r(5), r(6)), 0), true);
        t.on_commit(&dyn_instr(Instruction::add(r(2), r(1), r(5)), 1), false);
        // Kill both: TDD chain fully overwritten.
        t.on_commit(&dyn_instr(Instruction::movi(r(1), 1), 2), false);
        t.on_commit(&dyn_instr(Instruction::movi(r(2), 2), 3), false);
        assert!(!t.poison_pending());
    }

    #[test]
    fn memory_scope_tracks_through_memory() {
        let mut t = PiTracker::new(PiScope::Memory, 8);
        t.on_commit(&dyn_instr(Instruction::add(r(1), r(5), r(6)), 0), true);
        // Poisoned store: marks the block, no signal.
        let mut st = dyn_instr(Instruction::st(r(10), r(1), 0), 1);
        st.side_effect = SideEffect::MemWritten(Addr::new(0x2000));
        assert_eq!(t.on_commit(&st, false), PiStep::Quiet);
        assert!(t.poison_pending());
        // A load of that block poisons its destination.
        let mut ld = dyn_instr(Instruction::ld(r(7), r(10), 0), 2);
        ld.side_effect = SideEffect::MemRead(Addr::new(0x2000));
        assert_eq!(t.on_commit(&ld, false), PiStep::Quiet);
        // Output of the poisoned register finally signals at I/O.
        let mut out = dyn_instr(Instruction::out(r(7)), 3);
        out.side_effect = SideEffect::Emitted(0);
        assert_eq!(
            t.on_commit(&out, false),
            PiStep::Signal(SignalPoint::IoCommit)
        );
    }

    #[test]
    fn memory_scope_clean_store_scrubs() {
        let mut t = PiTracker::new(PiScope::Memory, 8);
        t.on_commit(&dyn_instr(Instruction::add(r(1), r(5), r(6)), 0), true);
        let mut st = dyn_instr(Instruction::st(r(10), r(1), 0), 1);
        st.side_effect = SideEffect::MemWritten(Addr::new(0x2000));
        t.on_commit(&st, false);
        // Clean store to the same block: dead store, poison dies.
        let mut st2 = dyn_instr(Instruction::st(r(10), r(9), 0), 2);
        st2.side_effect = SideEffect::MemWritten(Addr::new(0x2000));
        t.on_commit(&st2, false);
        // r1 still poisoned though -- scrub it too.
        t.on_commit(&dyn_instr(Instruction::movi(r(1), 0), 3), false);
        assert!(!t.poison_pending());
    }

    #[test]
    fn poisoned_branch_goes_out_of_scope() {
        let mut t = PiTracker::new(PiScope::StoreCommit, 8);
        // Poison a predicate via a corrupted compare.
        let cmp = dyn_instr(Instruction::cmp_lt(Pred::new(2), r(1), r(2)), 0);
        assert_eq!(t.on_commit(&cmp, true), PiStep::Quiet);
        // A branch guarded by the poisoned predicate signals.
        let mut br = dyn_instr(Instruction::br(Pred::new(2), 16), 1);
        br.taken = Some(true);
        assert_eq!(
            t.on_commit(&br, false),
            PiStep::Signal(SignalPoint::ControlOutOfScope)
        );
    }

    #[test]
    fn cache_only_scope_signals_on_writeback_loss() {
        // Capacity 2: the third distinct poisoned block pushes the first
        // out of pi-covered storage.
        let mut t = PiTracker::new(PiScope::CacheOnly { capacity: 2 }, 8);
        t.on_commit(&dyn_instr(Instruction::add(r(1), r(5), r(6)), 0), true);
        let store = |idx: u64, addr: u64, tr: &mut PiTracker| {
            // Keep r1 poisoned by re-poisoning via self reads: store r1.
            let mut st = dyn_instr(Instruction::st(r(10), r(1), 0), idx);
            st.side_effect = SideEffect::MemWritten(Addr::new(addr));
            tr.on_commit(&st, false)
        };
        assert_eq!(store(1, 0x1000, &mut t), PiStep::Quiet);
        assert_eq!(store(2, 0x2000, &mut t), PiStep::Quiet);
        assert_eq!(
            store(3, 0x3000, &mut t),
            PiStep::Signal(SignalPoint::WritebackOutOfScope),
            "third marked block evicts the first"
        );
    }

    #[test]
    fn cache_only_scope_scrub_prevents_overflow() {
        let mut t = PiTracker::new(PiScope::CacheOnly { capacity: 2 }, 8);
        t.on_commit(&dyn_instr(Instruction::add(r(1), r(5), r(6)), 0), true);
        // Poison two blocks.
        for (i, a) in [(1u64, 0x1000u64), (2, 0x2000)] {
            let mut st = dyn_instr(Instruction::st(r(10), r(1), 0), i);
            st.side_effect = SideEffect::MemWritten(Addr::new(a));
            assert_eq!(t.on_commit(&st, false), PiStep::Quiet);
        }
        // A clean store overwrites block 0x1000: the poison dies there.
        let mut clean = dyn_instr(Instruction::st(r(10), r(9), 0), 3);
        clean.side_effect = SideEffect::MemWritten(Addr::new(0x1000));
        assert_eq!(t.on_commit(&clean, false), PiStep::Quiet);
        // Now a third poisoned block fits without a writeback signal.
        let mut st = dyn_instr(Instruction::st(r(10), r(1), 0), 4);
        st.side_effect = SideEffect::MemWritten(Addr::new(0x3000));
        assert_eq!(t.on_commit(&st, false), PiStep::Quiet);
    }

    #[test]
    fn cache_only_scope_loads_pull_poison_like_memory_scope() {
        let mut t = PiTracker::new(PiScope::CacheOnly { capacity: 8 }, 8);
        t.on_commit(&dyn_instr(Instruction::add(r(1), r(5), r(6)), 0), true);
        let mut st = dyn_instr(Instruction::st(r(10), r(1), 0), 1);
        st.side_effect = SideEffect::MemWritten(Addr::new(0x2000));
        t.on_commit(&st, false);
        let mut ld = dyn_instr(Instruction::ld(r(7), r(10), 0), 2);
        ld.side_effect = SideEffect::MemRead(Addr::new(0x2000));
        assert_eq!(t.on_commit(&ld, false), PiStep::Quiet);
        let mut out = dyn_instr(Instruction::out(r(7)), 3);
        out.side_effect = SideEffect::Emitted(0);
        assert_eq!(
            t.on_commit(&out, false),
            PiStep::Signal(SignalPoint::IoCommit)
        );
    }

    #[test]
    fn corrupted_neutral_with_no_dest_signals_at_commit() {
        let mut t = PiTracker::new(PiScope::Register, 8);
        let nop = dyn_instr(Instruction::nop(), 0);
        assert_eq!(t.on_commit(&nop, true), PiStep::Signal(SignalPoint::Commit));
    }

    #[test]
    fn falsely_predicated_reader_does_not_consume() {
        let mut t = PiTracker::new(PiScope::Register, 8);
        t.on_commit(&dyn_instr(Instruction::add(r(1), r(5), r(6)), 0), true);
        // Guard-false instruction "reading" r1 reads nothing.
        let mut read = dyn_instr(Instruction::add(r(4), r(1), r(5)), 1);
        read.executed = false;
        read.reg_written = None;
        assert_eq!(t.on_commit(&read, false), PiStep::Quiet);
        assert!(t.poison_pending());
    }
}
