//! Idempotent-region analysis over the committed emulator trace.
//!
//! An *idempotent region* is a maximal run of dynamic instructions whose
//! prefix can be re-executed from its entry without changing the final
//! architectural state — the recovery primitive of Zeng et al.
//! ("Lightweight Soft Error Resilience for In-Order Cores"): when a
//! deferred error signal arrives while the machine is still inside the
//! region where the error occurred, the machine rewinds the PC to the
//! region entry and re-executes instead of raising a machine check.
//!
//! Region boundaries sit exactly where re-execution stops being
//! side-effect-free:
//!
//! * **before** every executed store, output, and call — these begin a new
//!   region, so a region re-executes at most one leading externally
//!   visible write, whose inputs are region live-ins and therefore
//!   reproduce the identical address/value;
//! * **after** every overwrite of a region *live-in* — a register or
//!   predicate read inside the region before being written. The
//!   overwriting instruction is the last of its region, so it is never
//!   part of any re-executed prefix (a recoverable signal position always
//!   lies strictly before the region's final commit).
//!
//! Regions partition the trace exactly: every dynamic index belongs to one
//! region and each boundary is justified by one of the causes above.

use ses_arch::{DynInstr, ExecutionTrace};
use ses_isa::Opcode;
use ses_types::{Pred, Reg};

/// Why a region starts where it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKind {
    /// The first region of the trace.
    TraceStart,
    /// The region opens with an executed store.
    Store,
    /// The region opens with an executed `out` (a store to the output
    /// stream).
    Output,
    /// The region opens with an executed call.
    Call,
    /// The previous region was closed from behind: its final instruction
    /// overwrote one of its own live-in registers or predicates.
    LiveInOverwrite,
}

impl BoundaryKind {
    /// Stable lower-case label for telemetry and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            BoundaryKind::TraceStart => "trace-start",
            BoundaryKind::Store => "store",
            BoundaryKind::Output => "output",
            BoundaryKind::Call => "call",
            BoundaryKind::LiveInOverwrite => "live-in-overwrite",
        }
    }
}

/// One idempotent region: the half-open dynamic-index range
/// `[start, end)` plus the boundary cause that opened it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First dynamic index of the region.
    pub start: u64,
    /// One past the last dynamic index.
    pub end: u64,
    /// Why the region starts at `start`.
    pub cause: BoundaryKind,
    /// Whether the region's final instruction overwrote a live-in (and
    /// therefore must never be re-executed).
    pub trailing_clobber: bool,
}

impl Region {
    /// Dynamic instructions in the region.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the region is empty (never true for analyzed traces).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether `idx` falls inside the region.
    pub fn contains(&self, idx: u64) -> bool {
        self.start <= idx && idx < self.end
    }

    /// The maximal prefix `[start, end - 1)` that recovery can ever
    /// re-execute, as a half-open index range.
    ///
    /// A deferred error signal landing at position `p` (the oldest
    /// *uncommitted* instruction) is recoverable iff `p` is still inside
    /// this region; the machine then re-executes the committed prefix
    /// `[start, p)`. Since the largest in-region `p` is `end - 1`, the
    /// region's final instruction — in particular a trailing live-in
    /// clobber — is never part of any re-executed prefix: by the time it
    /// has committed, the signal position has left the region and recovery
    /// falls back to a machine check.
    pub fn replay_window(&self) -> (u64, u64) {
        (self.start, self.end - 1)
    }
}

/// A seeded defect in the region analysis, used by the fuzzer and the
/// oracle test battery to prove that the re-execution check actually
/// catches non-idempotent regions. Never enabled in production paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionFault {
    /// Ignore one register when tracking live-ins: overwrites of it no
    /// longer close regions, silently admitting live-in clobbers.
    IgnoreReg(Reg),
    /// Ignore executed stores as boundaries, merging across memory writes.
    IgnoreStores,
}

/// Bitset over the 64 general registers and 8 predicate registers. The
/// hardwired `r0`/`p0` never participate: reads of them are constants and
/// writes to them are discarded.
#[derive(Debug, Clone, Copy, Default)]
struct RegSet {
    regs: u64,
    preds: u8,
}

impl RegSet {
    fn clear(&mut self) {
        self.regs = 0;
        self.preds = 0;
    }

    fn has_reg(&self, r: Reg) -> bool {
        !r.is_zero() && self.regs >> r.index() & 1 == 1
    }

    fn add_reg(&mut self, r: Reg) {
        if !r.is_zero() {
            self.regs |= 1 << r.index();
        }
    }

    fn has_pred(&self, p: Pred) -> bool {
        !p.is_always_true() && self.preds >> p.index() & 1 == 1
    }

    fn add_pred(&mut self, p: Pred) {
        if !p.is_always_true() {
            self.preds |= 1 << p.index();
        }
    }
}

/// The idempotent-region decomposition of one execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMap {
    regions: Vec<Region>,
    trace_len: u64,
}

impl RegionMap {
    /// Analyzes the committed trace into idempotent regions.
    pub fn analyze(trace: &ExecutionTrace) -> Self {
        Self::analyze_with(trace, None)
    }

    /// Like [`analyze`](Self::analyze), with an optional seeded defect for
    /// oracle/fuzzer self-tests.
    pub fn analyze_with(trace: &ExecutionTrace, fault: Option<RegionFault>) -> Self {
        let entries = trace.entries();
        let mut regions = Vec::new();
        let mut start = 0u64;
        let mut cause = BoundaryKind::TraceStart;
        let mut live = RegSet::default();
        let mut written = RegSet::default();
        let ignore_reg = |r: Reg| matches!(fault, Some(RegionFault::IgnoreReg(f)) if f == r);
        let ignore_stores = matches!(fault, Some(RegionFault::IgnoreStores));

        for (i, e) in entries.iter().enumerate() {
            let i = i as u64;
            // Leading boundaries: the instruction opens a new region.
            let leading = if e.is_store() && !ignore_stores {
                Some(BoundaryKind::Store)
            } else if e.is_output() {
                Some(BoundaryKind::Output)
            } else if e.instr.op == Opcode::Call && e.executed {
                Some(BoundaryKind::Call)
            } else {
                None
            };
            if let Some(kind) = leading {
                if i > start {
                    regions.push(Region {
                        start,
                        end: i,
                        cause,
                        trailing_clobber: false,
                    });
                    start = i;
                    live.clear();
                    written.clear();
                }
                cause = if i == start && regions.is_empty() && i == 0 {
                    BoundaryKind::TraceStart
                } else {
                    kind
                };
            }

            // Reads first: a register read before any in-region write is a
            // live-in (this makes read-then-write of the same register a
            // clobber, which it is — re-execution would read the new value).
            for r in e.regs_read() {
                if !written.has_reg(r) && !ignore_reg(r) {
                    live.add_reg(r);
                }
            }
            if !written.has_pred(e.instr.qp) {
                live.add_pred(e.instr.qp);
            }

            // Trailing boundary: overwriting a live-in closes the region
            // *after* this instruction, so the clobber is never inside any
            // re-executed prefix.
            let clobbers = e.reg_written.map(|r| live.has_reg(r)).unwrap_or(false)
                || e.pred_written.map(|p| live.has_pred(p)).unwrap_or(false);
            if clobbers {
                regions.push(Region {
                    start,
                    end: i + 1,
                    cause,
                    trailing_clobber: true,
                });
                start = i + 1;
                cause = BoundaryKind::LiveInOverwrite;
                live.clear();
                written.clear();
            } else {
                if let Some(r) = e.reg_written {
                    written.add_reg(r);
                }
                if let Some(p) = e.pred_written {
                    written.add_pred(p);
                }
            }
        }
        let n = entries.len() as u64;
        if start < n {
            regions.push(Region {
                start,
                end: n,
                cause,
                trailing_clobber: false,
            });
        }
        RegionMap {
            regions,
            trace_len: n,
        }
    }

    /// The regions, in trace order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the trace had no instructions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Dynamic instructions covered (the trace length).
    pub fn trace_len(&self) -> u64 {
        self.trace_len
    }

    /// Index (into [`regions`](Self::regions)) of the region containing
    /// dynamic instruction `idx`.
    pub fn region_of(&self, idx: u64) -> Option<usize> {
        if idx >= self.trace_len {
            return None;
        }
        let i = self.regions.partition_point(|r| r.end <= idx);
        debug_assert!(self.regions[i].contains(idx));
        Some(i)
    }

    /// Mean region length in dynamic instructions (0 for empty traces).
    pub fn mean_len(&self) -> f64 {
        if self.regions.is_empty() {
            0.0
        } else {
            self.trace_len as f64 / self.regions.len() as f64
        }
    }

    /// Checks that the regions partition `0..trace_len` exactly: no gaps,
    /// no overlaps, no empty regions.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check_partition(&self) -> Result<(), String> {
        let mut expect = 0u64;
        for (i, r) in self.regions.iter().enumerate() {
            if r.is_empty() {
                return Err(format!("region {i} is empty: [{}, {})", r.start, r.end));
            }
            if r.start != expect {
                return Err(format!(
                    "region {i} starts at {} but previous ended at {expect}",
                    r.start
                ));
            }
            expect = r.end;
        }
        if expect != self.trace_len {
            return Err(format!(
                "regions cover [0, {expect}) but the trace has {} instructions",
                self.trace_len
            ));
        }
        Ok(())
    }

    /// Checks that every region boundary is justified: the first
    /// instruction is a store/output/call, or the previous region's final
    /// instruction overwrote one of that region's live-ins. This is an
    /// independent re-derivation (not a read-back of the recorded cause),
    /// so a scanning bug cannot vouch for itself.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unjustified boundary.
    pub fn check_boundaries(&self, trace: &ExecutionTrace) -> Result<(), String> {
        let entries = trace.entries();
        for w in self.regions.windows(2) {
            let (prev, next) = (&w[0], &w[1]);
            let b = next.start;
            let first = &entries[b as usize];
            let leading = first.is_store()
                || first.is_output()
                || (first.instr.op == Opcode::Call && first.executed);
            if leading {
                continue;
            }
            let last = &entries[(b - 1) as usize];
            if overwrites_live_in(&entries[prev.start as usize..b as usize], last) {
                continue;
            }
            return Err(format!(
                "boundary at {b} is unjustified: {} is not a store/output/call \
                 and {} does not clobber a live-in",
                first.instr, last.instr
            ));
        }
        Ok(())
    }
}

/// Reference re-derivation of the trailing-clobber rule for one region
/// slice ending in `last`: does `last` write a register/predicate that the
/// slice read before writing?
fn overwrites_live_in(slice: &[DynInstr], last: &DynInstr) -> bool {
    let mut live = RegSet::default();
    let mut written = RegSet::default();
    for e in slice {
        for r in e.regs_read() {
            if !written.has_reg(r) {
                live.add_reg(r);
            }
        }
        if !written.has_pred(e.instr.qp) {
            live.add_pred(e.instr.qp);
        }
        if let Some(r) = e.reg_written {
            written.add_reg(r);
        }
        if let Some(p) = e.pred_written {
            written.add_pred(p);
        }
    }
    last.reg_written.map(|r| live.has_reg(r)).unwrap_or(false)
        || last.pred_written.map(|p| live.has_pred(p)).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::Emulator;
    use ses_isa::{Instruction, Program};

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn regions_of(code: Vec<Instruction>) -> (RegionMap, ExecutionTrace) {
        let p = Program::new(code);
        let trace = Emulator::new(&p).run(10_000).unwrap();
        let map = RegionMap::analyze(&trace);
        map.check_partition().unwrap();
        map.check_boundaries(&trace).unwrap();
        (map, trace)
    }

    #[test]
    fn straight_line_alu_is_one_region() {
        let (map, trace) = regions_of(vec![
            Instruction::movi(r(1), 3),
            Instruction::movi(r(2), 4),
            Instruction::add(r(3), r(1), r(2)),
            Instruction::halt(),
        ]);
        assert_eq!(map.len(), 1);
        assert_eq!(map.regions()[0].end, trace.len() as u64);
        assert_eq!(map.regions()[0].cause, BoundaryKind::TraceStart);
    }

    #[test]
    fn store_opens_a_region() {
        let (map, _) = regions_of(vec![
            Instruction::movi(r(1), 0x2000),
            Instruction::movi(r(2), 9),
            Instruction::st(r(1), r(2), 0), // index 2: boundary
            Instruction::ld(r(3), r(1), 0),
            Instruction::halt(),
        ]);
        assert_eq!(map.len(), 2);
        assert_eq!(map.regions()[1].start, 2);
        assert_eq!(map.regions()[1].cause, BoundaryKind::Store);
    }

    #[test]
    fn self_increment_closes_its_region_from_behind() {
        // `add r1 = r1, r2` reads r1 before writing it: a live-in clobber.
        // The clobber is the *last* instruction of its region, and that
        // region's recoverable window excludes it.
        let (map, _) = regions_of(vec![
            Instruction::movi(r(2), 1),
            Instruction::add(r(1), r(1), r(2)), // index 1: trailing clobber
            Instruction::add(r(3), r(1), r(2)),
            Instruction::halt(),
        ]);
        assert_eq!(map.len(), 2);
        let first = map.regions()[0];
        assert_eq!((first.start, first.end), (0, 2));
        assert!(first.trailing_clobber);
        assert_eq!(
            first.replay_window(),
            (0, 1),
            "the clobber is never replayed"
        );
        assert_eq!(map.regions()[1].cause, BoundaryKind::LiveInOverwrite);
    }

    #[test]
    fn output_and_call_open_regions() {
        use ses_isa::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        let func = b.new_label();
        let end = b.new_label();
        b.push(Instruction::movi(r(1), 5));
        b.call(r(31), func); // dynamic 1: call boundary
        b.jump(end);
        b.bind(func);
        b.push(Instruction::out(r(1))); // dynamic 2: output boundary
        b.push(Instruction::ret(r(31)));
        b.bind(end);
        b.push(Instruction::halt());
        let p = b.build().unwrap();
        let trace = Emulator::new(&p).run(100).unwrap();
        let map = RegionMap::analyze(&trace);
        map.check_partition().unwrap();
        map.check_boundaries(&trace).unwrap();
        let causes: Vec<BoundaryKind> = map.regions().iter().map(|x| x.cause).collect();
        assert!(causes.contains(&BoundaryKind::Call));
        assert!(causes.contains(&BoundaryKind::Output));
    }

    #[test]
    fn predicate_overwrite_is_a_clobber() {
        use ses_types::Pred;
        let (map, _) = regions_of(vec![
            Instruction::movi(r(1), 1),
            // Reads p1 (guard) then... no: guard reads make p1 live-in;
            // the cmp then writes p1 -> clobber.
            Instruction::addi(r(2), r(2), 3).guarded_by(Pred::new(1)),
            Instruction::cmp_lt(Pred::new(1), Reg::ZERO, r(1)), // clobbers p1
            Instruction::halt(),
        ]);
        assert!(map.regions().iter().any(|x| x.trailing_clobber));
    }

    #[test]
    fn region_of_finds_every_index() {
        let (map, trace) = regions_of(vec![
            Instruction::movi(r(1), 0x2000),
            Instruction::movi(r(2), 9),
            Instruction::st(r(1), r(2), 0),
            Instruction::st(r(1), r(2), 8),
            Instruction::out(r(2)),
            Instruction::halt(),
        ]);
        for i in 0..trace.len() as u64 {
            let ri = map.region_of(i).unwrap();
            assert!(map.regions()[ri].contains(i));
        }
        assert_eq!(map.region_of(trace.len() as u64), None);
        assert!(map.mean_len() > 0.0);
    }

    #[test]
    fn seeded_ignore_reg_admits_clobbers() {
        let code = vec![
            Instruction::movi(r(2), 1),
            Instruction::add(r(1), r(1), r(2)),
            Instruction::add(r(3), r(1), r(2)),
            Instruction::halt(),
        ];
        let p = Program::new(code);
        let trace = Emulator::new(&p).run(100).unwrap();
        let clean = RegionMap::analyze(&trace);
        let buggy = RegionMap::analyze_with(&trace, Some(RegionFault::IgnoreReg(r(1))));
        assert!(buggy.len() < clean.len(), "the defect must merge regions");
        assert!(buggy.check_boundaries(&trace).is_err() || buggy.len() == 1);
    }
}
