//! The cycle-by-cycle timing engine.
//!
//! An in-order, `width`-wide machine replaying the functional trace:
//!
//! 1. **recover** — a completed mispredicted branch flushes the wrong path
//!    and redirects fetch;
//! 2. **retire** — up to `width` oldest completed entries leave the queue
//!    (this is where the π-bit retire-unit logic and PET logging run);
//! 3. **issue** — up to `width` ready entries issue in order; loads access
//!    the cache hierarchy; parity is checked here (the entry is *read*);
//!    load misses fire the squash/throttle triggers;
//! 4. **insert** — instructions arriving from the front-end pipe claim
//!    free queue slots;
//! 5. **fetch** — the front end follows the predicted path;
//! 6. **inject** — a pending fault flips its bit once the injection cycle
//!    is reached.

use ses_arch::{DynInstr, ExecutionTrace};
use ses_isa::{Opcode, Program};
use ses_mem::{AccessKind, Hierarchy, HierarchySnapshot, Level};
use ses_types::{Cycle, Pred, Reg, SeqNo};

use crate::config::{IssueOrder, PipelineConfig, SquashPolicy, ThrottlePolicy};
use crate::detect::{DetectionModel, Detector, FaultOutcome, FaultSpec};
use crate::frontend::{FetchedInstr, FrontEnd, FrontEndState};
use crate::iq::{InstructionQueue, IqEntry};
use crate::residency::{Occupant, Residency, ResidencyEnd};
use crate::result::PipelineResult;
use crate::telemetry::StageCounters;

/// A scheduled misprediction recovery.
#[derive(Debug, Clone, Copy)]
struct Recovery {
    at: Cycle,
    branch_seq: SeqNo,
    resume_trace_idx: u64,
}

/// The timing simulator.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
///
/// Every entry point drives one cycle loop; they differ only in the
/// starting state (fresh, restored from a [`Snapshot`], or a
/// [`FaultWindow`] base) and in which [`Observers`] ride along.
pub struct Pipeline {
    config: PipelineConfig,
}

/// Optional observers of a fault-free run. None of them changes timing:
/// each is a pure read of the machine state at the top of a cycle (or a
/// counter bump inside a stage), off by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observers {
    /// Capture a resumable [`Snapshot`] at the top of every cycle divisible
    /// by this interval, cycle 0 included (0 = none).
    pub snapshot_interval: u64,
    /// Collect [`StageCounters`] bucketed by this many cycles.
    pub stage_bucket: Option<u64>,
}

/// A fault-free run plus whatever its [`Observers`] recorded.
#[derive(Debug)]
pub struct ObservedRun {
    /// The run's timing result.
    pub result: PipelineResult,
    /// Snapshots in cycle order (empty unless `snapshot_interval > 0`).
    pub snapshots: Vec<Snapshot>,
    /// Per-stage telemetry (present iff `stage_bucket` was set).
    pub stages: Option<StageCounters>,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; validate with
    /// [`PipelineConfig::validate`] first to handle errors gracefully.
    pub fn new(config: PipelineConfig) -> Self {
        config.validate().expect("invalid pipeline configuration");
        Pipeline { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the fault-free timing model under `detection` with the given
    /// observers attached. The result is identical to [`Pipeline::run`]
    /// whatever the observers and the model: no detection model acts
    /// before a strike. The model only tags the captured snapshots, as
    /// the one [`Pipeline::resume`] restores under.
    pub fn run_golden(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        detection: DetectionModel,
        observers: Observers,
    ) -> ObservedRun {
        let mut engine = Engine::start(&self.config, program, trace, None, detection);
        engine.observers = observers;
        engine.stages = observers.stage_bucket.map(StageCounters::new);
        engine.run_core().0
    }

    /// Runs the timing model over a functional trace.
    pub fn run(&self, program: &Program, trace: &ExecutionTrace) -> PipelineResult {
        self.run_into(program, trace, Vec::new())
    }

    /// [`Pipeline::run`] logging into `residencies`, whose contents are
    /// discarded and whose allocation is kept: a sweep hands each run the
    /// log of the previous one.
    ///
    /// The log starts with room for one and a half residencies per trace
    /// record. Each committed instruction leaves one, and wrong-path and
    /// squash refetches add at most 45% on the suite's workloads, so the
    /// log does not grow through a chain of reallocations, each copy of
    /// which a recycled log would leave behind as a resident heap hole.
    pub fn run_into(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        mut residencies: Vec<Residency>,
    ) -> PipelineResult {
        residencies.clear();
        residencies.reserve(trace.len() + trace.len() / 2);
        self.run_plain(program, trace, Some(residencies))
    }

    /// [`Pipeline::run`] without the residency log: the same result but
    /// for an empty `residencies`, for callers that read only the run's
    /// counts (a golden run's sizing pass reads only `cycles`).
    pub fn run_lean(&self, program: &Program, trace: &ExecutionTrace) -> PipelineResult {
        self.run_plain(program, trace, None)
    }

    /// A fault-free run without observers, logging into `residencies`
    /// (none when `None`).
    fn run_plain(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        residencies: Option<Vec<Residency>>,
    ) -> PipelineResult {
        let mut engine = Engine::start(&self.config, program, trace, None, DetectionModel::None);
        engine.state.iq.set_residencies(residencies);
        engine.run_core().0.result
    }

    /// Runs the timing model with an optional injected fault under the
    /// given detection model.
    pub fn run_with_fault(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        fault: Option<FaultSpec>,
        detection: DetectionModel,
    ) -> PipelineResult {
        let mut engine = Engine::start(&self.config, program, trace, None, detection);
        engine.fault = fault;
        engine.run_core().0.result
    }

    /// Runs the fault-free timing model tagged with `detection`, capturing
    /// a resumable [`Snapshot`] every `interval` cycles (cycle 0 included);
    /// shorthand for [`Pipeline::run_golden`] with only the snapshot
    /// observer.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn run_with_snapshots(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        detection: DetectionModel,
        interval: u64,
    ) -> (PipelineResult, Vec<Snapshot>) {
        assert!(interval > 0, "snapshot interval must be positive");
        let observers = Observers {
            snapshot_interval: interval,
            ..Observers::default()
        };
        let run = self.run_golden(program, trace, detection, observers);
        (run.result, run.snapshots)
    }

    /// Resumes a run from `snapshot` under the detection model it was
    /// captured with, injecting `fault`. With `fault = None` this replays
    /// the tail of the capture run bit-identically (useful for
    /// validation). The result's residency log holds only the residencies
    /// that end at or after the snapshot cycle.
    ///
    /// The program, trace, and pipeline configuration must match the ones
    /// the snapshot was captured with; the fault, if any, must not strike
    /// before the snapshot cycle.
    ///
    /// # Panics
    ///
    /// Panics if `fault` strikes before the snapshot cycle.
    pub fn resume(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        snapshot: &Snapshot,
        fault: Option<FaultSpec>,
    ) -> PipelineResult {
        let detection = snapshot.detection;
        let mut engine = Engine::start(&self.config, program, trace, Some(snapshot), detection);
        engine.fault = fault;
        engine.state.iq.set_residencies(Some(Vec::new()));
        engine.run_core().0.result
    }

    /// Prepares the base of one checkpoint window: the engine state at
    /// the window's start, restored **once** and then run once per fault
    /// by [`FaultWindow::run_fault`] (a fork of the base) or
    /// [`FaultWindow::run_last`] (the base itself), under `detection`
    /// whatever model the snapshot was captured with. `snapshot = None`
    /// means the window starts at cycle 0 from a fresh (cache-warmed)
    /// engine.
    ///
    /// The base is lean: it keeps no residency log, so a replay logs no
    /// deallocation. A fault run returns only its verdict and end cycle
    /// ([`FaultRun`]), and nothing else reads the log.
    pub fn fault_window<'a>(
        &'a self,
        program: &'a Program,
        trace: &'a ExecutionTrace,
        snapshot: Option<&Snapshot>,
        detection: DetectionModel,
    ) -> FaultWindow<'a> {
        let mut base = Engine::start(&self.config, program, trace, snapshot, detection);
        base.state.iq.set_residencies(None);
        FaultWindow { base }
    }
}

/// The outcome of one fault replay from a [`FaultWindow`]: what a
/// campaign's verdict and accounting read, nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRun {
    /// The fault's resolved outcome — identical to what a full replay
    /// would report (the convergence gate only fires when the verdict is
    /// already decided).
    pub outcome: FaultOutcome,
    /// The cycle the replay stopped: the reconvergence cycle when
    /// `pruned`, otherwise the run's natural end (equal to
    /// [`Pipeline::resume`]'s `cycles`).
    pub end_cycle: u64,
    /// Whether the replay stopped at the convergence gate rather than
    /// running to completion.
    pub pruned: bool,
}

/// A restored-once base for all injections whose strike cycle falls in
/// one checkpoint window.
///
/// Built by [`Pipeline::fault_window`]. [`FaultWindow::run_fault`] clones
/// the base state (cheap: the base keeps no residency log) and
/// replays one fault; [`FaultWindow::run_last`] replays the window's last
/// fault on the base itself, saving the clone. Restoring the snapshot once
/// per window instead of once per fault amortizes the dominant restore
/// cost across the whole batch.
pub struct FaultWindow<'a> {
    base: Engine<'a>,
}

impl FaultWindow<'_> {
    /// Replays `fault` on a fork of the window base, leaving the base
    /// intact for the window's next fault. With `gate` armed, the replay
    /// stops at the first cycle the convergence gate fires; without it,
    /// the replay runs to its natural end.
    ///
    /// # Panics
    ///
    /// Panics if `fault` strikes before the window's start cycle.
    pub fn run_fault(&self, fault: FaultSpec, gate: bool) -> FaultRun {
        run_window_fault(self.base.clone(), fault, gate)
    }

    /// Like [`FaultWindow::run_fault`], but replays on the window base
    /// itself, consuming the window: the cheaper run for a window's last
    /// fault.
    ///
    /// # Panics
    ///
    /// As [`FaultWindow::run_fault`].
    pub fn run_last(self, fault: FaultSpec, gate: bool) -> FaultRun {
        run_window_fault(self.base, fault, gate)
    }
}

/// Runs `fault` on an unstepped window base.
fn run_window_fault(mut engine: Engine<'_>, fault: FaultSpec, gate: bool) -> FaultRun {
    engine.fault = Some(fault);
    engine.gate = gate;
    let (run, pruned) = engine.run_core();
    FaultRun {
        outcome: run
            .result
            .fault
            .expect("a faulted run always resolves an outcome"),
        end_cycle: run.result.cycles,
        pruned,
    }
}

/// A resumable image of the timing engine at the top of a cycle.
///
/// Captured by [`Pipeline::run_with_snapshots`] during a fault-free run
/// and consumed by [`Pipeline::resume`] and [`Pipeline::fault_window`],
/// which replay the remainder of the run bit-identically with an optional
/// fault injected at or after the snapshot cycle.
///
/// A snapshot holds only the machine state a restore needs, none of it
/// specific to a detection model: no detection model acts before a
/// strike, so a restore starts a fresh detector. The one fault-free
/// detector state that is not empty, a PET buffer's log of the last
/// commits, is never read: a π entry is judged against the entries
/// younger than itself only, after the same number of younger commits
/// however full the log was. A snapshot keeps no residency log either:
/// the queue's clone leaves it out. Cache contents are stored compactly
/// (occupied lines only).
#[derive(Clone)]
pub struct Snapshot {
    cycle: Cycle,
    frontend: FrontEndState,
    engine: EngineState,
    hierarchy: HierarchySnapshot,
    /// The capture run's detection model, the one [`Pipeline::resume`]
    /// restores under.
    detection: DetectionModel,
}

impl Snapshot {
    /// The cycle at whose top this snapshot was captured; a resumed run
    /// re-executes from exactly this cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("cycle", &self.cycle)
            .field("committed", &self.engine.committed)
            .field("detection", &self.detection)
            .finish_non_exhaustive()
    }
}

/// The engine's mutable machine state apart from the front end and the
/// caches: everything a checkpoint clones of the engine itself.
#[derive(Clone)]
struct EngineState {
    iq: InstructionQueue,
    reg_ready: [Cycle; Reg::COUNT],
    pred_ready: [Cycle; Pred::COUNT],
    committed: u64,
    recovery: Option<Recovery>,
    /// Cycle until which a triggering load miss is outstanding (throttle).
    miss_outstanding_until: Cycle,
    /// In-order stall: issue is blocked behind an outstanding L0-missing
    /// load until its data returns (the paper's premise that "data cache
    /// misses in in-order pipelines ... always result in pipeline stalls").
    stall_until: Cycle,
    squashes: u64,
    squashed_instrs: u64,
}

impl EngineState {
    fn new(cfg: &PipelineConfig) -> Self {
        EngineState {
            iq: InstructionQueue::new(cfg.iq_entries),
            reg_ready: [Cycle::ZERO; Reg::COUNT],
            pred_ready: [Cycle::ZERO; Pred::COUNT],
            committed: 0,
            recovery: None,
            miss_outstanding_until: Cycle::ZERO,
            stall_until: Cycle::ZERO,
            squashes: 0,
            squashed_instrs: 0,
        }
    }
}

#[derive(Clone)]
struct Engine<'a> {
    cfg: &'a PipelineConfig,
    trace: &'a [DynInstr],
    frontend: FrontEnd<'a>,
    state: EngineState,
    hierarchy: Hierarchy,
    /// The cycle the run starts from: 0, or the snapshot's.
    from: Cycle,
    fault: Option<FaultSpec>,
    detector: Detector,
    stop_early: bool,
    /// What a golden run records; all off for fault runs.
    observers: Observers,
    /// Per-stage telemetry; `None` keeps collection zero-cost.
    stages: Option<StageCounters>,
    /// Whether the convergence gate is armed.
    gate: bool,
}

impl<'a> Engine<'a> {
    /// A fault-free engine ready to run under `detection`: restored from
    /// `snapshot`, or fresh at cycle 0 with caches warmed when the
    /// configuration asks for it. The detector starts fresh
    /// ([`Detector::new`]) either way: its fault-free state at a snapshot
    /// cycle differs only in a PET buffer's log, which no verdict reads.
    /// A fresh engine logs residencies; a restored one logs nothing until
    /// its caller seeds a log. Callers attach the fault, the gate and the
    /// observers.
    fn start(
        cfg: &'a PipelineConfig,
        program: &'a Program,
        trace: &'a ExecutionTrace,
        snapshot: Option<&Snapshot>,
        detection: DetectionModel,
    ) -> Self {
        let mut engine = Engine {
            cfg,
            trace: trace.entries(),
            frontend: FrontEnd::new(cfg, program, trace.entries()),
            state: snapshot.map_or_else(|| EngineState::new(cfg), |s| s.engine.clone()),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            from: snapshot.map_or(Cycle::ZERO, Snapshot::cycle),
            fault: None,
            detector: Detector::new(detection),
            stop_early: false,
            observers: Observers::default(),
            stages: None,
            gate: false,
        };
        match snapshot {
            Some(s) => {
                engine.frontend.state = s.frontend.clone();
                engine.hierarchy.restore(&s.hierarchy);
            }
            None if cfg.warm_caches => engine.warm_caches(),
            None => {}
        }
        engine
    }

    /// The cycle loop, from the start cycle (inclusive) to the end of the
    /// trace, an early fault outcome, or the cycle budget.
    ///
    /// At the top of each cycle the observers run in a fixed order:
    /// snapshot, then the convergence gate. The gate is the
    /// only observer that can end the run: when it fires, the returned
    /// result carries the decided verdict as its fault outcome and the
    /// stop cycle as its cycle count, and the flag is `true`.
    ///
    /// # Panics
    ///
    /// Panics if the fault strikes before the start cycle.
    fn run_core(mut self) -> (ObservedRun, bool) {
        if let Some(f) = self.fault {
            assert!(
                f.cycle >= self.from,
                "fault at {:?} strikes before start cycle {:?}",
                f.cycle,
                self.from
            );
        }
        let mut snapshots = Vec::new();
        let mut now = self.from;
        let total = self.trace.len() as u64;
        let mut budget_exhausted = false;
        let mut converged = None;
        let interval = self.observers.snapshot_interval;
        while self.state.committed < total && !self.stop_early {
            if now.as_u64() >= self.cfg.max_cycles {
                budget_exhausted = true;
                break;
            }
            if interval > 0 && now.as_u64().is_multiple_of(interval) {
                snapshots.push(self.capture(now));
            }
            if self.gate {
                converged = self.converged_verdict(now);
                if converged.is_some() {
                    break;
                }
            }
            self.step_recovery(now);
            self.step_retire(now);
            self.step_issue(now);
            self.step_insert(now);
            self.step_fetch(now);
            self.step_inject(now);
            let occupancy = self.state.iq.tick_stats();
            if let Some(st) = self.stages.as_mut() {
                st.on_cycle(now.as_u64(), occupancy as u64);
            }
            now = now.next();
        }
        self.state.iq.drain_all(now);
        // Resolve any entries that were drained while corrupted.
        // (drain_all already logged residencies; the detector saw
        // deallocs only for squash/flush paths, so let finish() decide.)
        let (predictions, mispredictions) = self.frontend.predictor_stats();
        let fe_stats = self.frontend.stats();
        let fault_outcome = match converged {
            Some(verdict) => Some(verdict),
            None if self.fault.is_some() => self.detector.finish(),
            None => None,
        };
        let occupied_cycle_sum = self.state.iq.occupied_cycle_sum();
        let residencies = self.state.iq.into_residencies();
        let result = PipelineResult {
            cycles: now.as_u64(),
            committed: self.state.committed,
            iq_capacity: self.cfg.iq_entries,
            occupied_cycle_sum,
            predictions,
            mispredictions,
            squashes: self.state.squashes,
            squashed_instrs: self.state.squashed_instrs,
            wrong_path_fetched: fe_stats.wrong_path_fetched,
            throttled_cycles: fe_stats.throttled_cycles,
            l0: self.hierarchy.stats(Level::L0),
            l1: self.hierarchy.stats(Level::L1),
            l2: self.hierarchy.stats(Level::L2),
            fault: fault_outcome,
            budget_exhausted,
            residencies,
        };
        let run = ObservedRun {
            result,
            snapshots,
            stages: self.stages,
        };
        (run, converged.is_some())
    }

    /// The convergence gate: the fault's verdict once it is decided and
    /// the rest of the run provably replays the golden tail. It fires at
    /// the top of the first cycle where the first strike is spent, any
    /// second strike is resolved, the detector has quiesced
    /// ([`Detector::quiescent_verdict`]), and the struck slot holds no
    /// corrupted word and no π. A fault writes only the struck
    /// residency's word and π (DESIGN.md, soundness property 2), so from
    /// that cycle on the faulted machine is the golden one.
    fn converged_verdict(&self, now: Cycle) -> Option<FaultOutcome> {
        let f = self.fault?;
        let spent = f.cycle == Cycle::new(u64::MAX);
        let second_resolved = f
            .second_cycle
            .is_none_or(|c2| c2 == Cycle::new(u64::MAX) || c2 < now);
        if !(spent && second_resolved) {
            return None;
        }
        let verdict = self.detector.quiescent_verdict()?;
        // Entries never change slots, so the struck residency is either
        // still in its slot or gone; a slot refilled since holds a clean
        // entry.
        let slot_clean = self
            .state
            .iq
            .get(f.slot)
            .is_none_or(|e| !e.parity_mismatch() && !e.pi);
        slot_clean.then_some(verdict)
    }

    /// Captures the engine's full state at the top of cycle `now`.
    fn capture(&self, now: Cycle) -> Snapshot {
        Snapshot {
            cycle: now,
            frontend: self.frontend.state.clone(),
            engine: self.state.clone(),
            hierarchy: self.hierarchy.snapshot(),
            detection: self.detector.model(),
        }
    }

    /// Primes the hierarchy with every data block the trace touches more
    /// than once, in first-touch order, then clears the statistics. This
    /// reproduces warmed steady-state caches without hiding the cold
    /// streaming behaviour of single-touch (memory-bound) access patterns.
    fn warm_caches(&mut self) {
        use std::collections::HashMap;
        let block = self.cfg.hierarchy.l1.block_bytes;
        let mut touches: HashMap<u64, u32> = HashMap::new();
        for d in self.trace {
            if let Some(addr) = d.mem_read().or(d.mem_written()) {
                *touches.entry(addr.block_base(block).as_u64()).or_insert(0) += 1;
            }
        }
        let mut primed: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for d in self.trace {
            if let Some(addr) = d.mem_read().or(d.mem_written()) {
                let base = addr.block_base(block).as_u64();
                if touches.get(&base).copied().unwrap_or(0) >= 2 && primed.insert(base) {
                    self.hierarchy.access(addr, AccessKind::Load);
                }
            }
        }
        self.hierarchy.reset_stats();
    }

    fn step_recovery(&mut self, now: Cycle) {
        let Some(rec) = self.state.recovery else {
            return;
        };
        if rec.at > now {
            return;
        }
        self.state.recovery = None;
        let flushed = self.state.iq.flush_younger(rec.branch_seq, now);
        for e in flushed {
            if self.detector.on_dealloc(e, ResidencyEnd::FlushedWrongPath) {
                self.stop_early = true;
            }
        }
        self.frontend.redirect(rec.resume_trace_idx, now.next());
    }

    fn step_retire(&mut self, now: Cycle) {
        let mut retired = 0u64;
        for _ in 0..self.cfg.width {
            let Some(slot) = self.state.iq.head() else {
                break;
            };
            let entry = self.state.iq.get(slot).expect("head occupied");
            let Occupant::CorrectPath { trace_idx } = entry.occupant else {
                // Wrong-path entries at the head wait for their flush.
                break;
            };
            let done = entry.complete_at.map(|c| c <= now).unwrap_or(false);
            if !done {
                break;
            }
            let entry = self.state.iq.retire(slot, now);
            self.state.committed += 1;
            retired += 1;
            let d = &self.trace[trace_idx as usize];
            if self.detector.on_commit(&entry, d) {
                self.stop_early = true;
            }
        }
        if retired > 0 {
            if let Some(st) = self.stages.as_mut() {
                st.on_commit(now.as_u64(), retired);
            }
        }
    }

    fn step_issue(&mut self, now: Cycle) {
        let in_order = self.cfg.issue_order == IssueOrder::InOrder;
        if in_order && now < self.state.stall_until {
            return; // in-order pipeline stalled behind a load miss
        }
        let mut issued = 0usize;
        let mut mem_issued = 0usize;
        let mut branch_issued = 0usize;
        let mut squash_request: Option<(SeqNo, u64, Cycle)> = None;
        // Indexing the age order in place is sound: nothing in the loop
        // inserts or removes an entry (the squash is applied after it).
        for age in 0..self.state.iq.occupied() {
            if issued >= self.cfg.width {
                break;
            }
            let slot = self.state.iq.age_order()[age];
            let entry = self.state.iq.get(slot).expect("slot in order list");
            if entry.issued.is_some() {
                continue; // already in flight; in-order issue may proceed
            }
            // Issue-port limits: a full port stalls in-order issue (the
            // blocked instruction is the oldest unissued one) and is merely
            // skipped out of order.
            let needs_mem = entry.instr.op.touches_memory();
            let needs_branch = entry.instr.op.is_control();
            let port_blocked = (needs_mem && mem_issued >= self.cfg.ports.mem)
                || (needs_branch && branch_issued >= self.cfg.ports.branch);
            if port_blocked || !self.ready_to_issue(entry, now) {
                if in_order {
                    break; // in-order: the first stalled entry blocks younger
                }
                continue; // out-of-order: younger ready entries may pass
            }
            if needs_mem {
                mem_issued += 1;
            }
            if needs_branch {
                branch_issued += 1;
            }
            // --- issue the entry ---
            let (seq, occupant, mispredicted) =
                (entry.seq, entry.occupant, entry.mispredicted_branch);
            let complete_at = self.compute_completion(slot, now, &mut squash_request);
            let entry = self.state.iq.get_mut(slot).expect("slot still occupied");
            entry.issued = Some(now);
            entry.complete_at = Some(complete_at);
            if self.detector.on_issue(entry) {
                self.stop_early = true;
            }
            // Scoreboard update for executed correct-path instructions.
            if let Occupant::CorrectPath { trace_idx } = occupant {
                let d = &self.trace[trace_idx as usize];
                if d.executed {
                    if let Some(w) = d.reg_written {
                        self.state.reg_ready[w.index()] = complete_at;
                    }
                    if let Some(p) = d.pred_written {
                        self.state.pred_ready[p.index()] = complete_at;
                    }
                }
                if mispredicted {
                    self.state.recovery = Some(Recovery {
                        at: complete_at,
                        branch_seq: seq,
                        resume_trace_idx: trace_idx + 1,
                    });
                }
            }
            issued += 1;
        }

        if issued > 0 {
            if let Some(st) = self.stages.as_mut() {
                st.on_issue(now.as_u64(), issued as u64);
            }
        }
        if let Some((load_seq, load_trace_idx, data_ready)) = squash_request {
            self.apply_squash(load_seq, load_trace_idx, data_ready, now);
        }
    }

    fn ready_to_issue(&self, entry: &IqEntry, now: Cycle) -> bool {
        match entry.occupant {
            // Wrong-path operands are bogus anyway; they issue freely.
            Occupant::WrongPath => true,
            Occupant::CorrectPath { .. } => {
                if self.state.pred_ready[entry.instr.qp.index()] > now {
                    return false;
                }
                entry
                    .instr
                    .reads()
                    .all(|r| self.state.reg_ready[r.index()] <= now)
            }
        }
    }

    /// Computes the completion cycle, performing the cache access for
    /// executed loads/stores/prefetches and recording any squash trigger.
    fn compute_completion(
        &mut self,
        slot: usize,
        now: Cycle,
        squash_request: &mut Option<(SeqNo, u64, Cycle)>,
    ) -> Cycle {
        let entry = self.state.iq.get(slot).expect("slot occupied");
        let op = entry.instr.op;
        let seq = entry.seq;
        let base = op.base_latency().max(1);
        let Occupant::CorrectPath { trace_idx } = entry.occupant else {
            return now + base;
        };
        let d = &self.trace[trace_idx as usize];
        if !d.executed {
            return now + 1;
        }
        match op {
            Opcode::Ld => {
                let addr = d.mem_read().expect("executed load has an address");
                let access = self.hierarchy.access(addr, AccessKind::Load);
                let complete = now + access.latency;
                // An L0 miss stalls in-order issue until the data returns.
                if access.missed_in(Level::L0) && complete > self.state.stall_until {
                    self.state.stall_until = complete;
                }
                // Squash / throttle triggers (§3.1): a load miss at the
                // configured level.
                if let SquashPolicy::OnLoadMiss(level) = self.cfg.squash {
                    // Keep the oldest triggering load of the cycle: the
                    // squash boundary is "younger than the (first) load
                    // that missed".
                    if access.missed_in(level) && squash_request.is_none() {
                        *squash_request = Some((seq, trace_idx, complete));
                    }
                }
                if let ThrottlePolicy::OnLoadMiss(level) = self.cfg.throttle {
                    if access.missed_in(level) && complete > self.state.miss_outstanding_until {
                        self.state.miss_outstanding_until = complete;
                    }
                }
                complete
            }
            Opcode::St => {
                let addr = d.mem_written().expect("executed store has an address");
                self.hierarchy.access(addr, AccessKind::Store);
                now + 1 // the store buffer absorbs the latency
            }
            // Prefetches are non-blocking; their fills are second-order for
            // the AVF questions studied here and are not modelled.
            Opcode::Prefetch => now + 1,
            Opcode::Br => now + self.branch_latency(),
            _ => now + base,
        }
    }

    fn branch_latency(&self) -> u64 {
        // Conditional branches resolve in the back end; three cycles models
        // the issue-to-resolve distance of an Itanium®2-class core.
        3
    }

    fn apply_squash(
        &mut self,
        load_seq: SeqNo,
        load_trace_idx: u64,
        data_ready: Cycle,
        now: Cycle,
    ) {
        let squashed = self.state.iq.squash_younger(load_seq, now);
        for e in squashed {
            if self.detector.on_dealloc(e, ResidencyEnd::Squashed) {
                self.stop_early = true;
            }
        }
        let squashed = squashed.len() as u64;
        self.state.squashed_instrs += squashed;
        self.state.squashes += 1;
        if let Some(st) = self.stages.as_mut() {
            st.on_squash(now.as_u64(), squashed);
        }
        // Cancel a pending recovery if its branch was squashed.
        if let Some(rec) = self.state.recovery {
            if rec.branch_seq.is_younger_than(load_seq) {
                self.state.recovery = None;
            }
        }
        // Refetch from just after the load, timed so instructions re-enter
        // the queue as the pipeline resumes execution ("bring them back
        // when the pipeline resumes execution", §3) — that is, when the
        // *last* outstanding miss returns, not just the triggering one.
        let horizon = data_ready.max(self.state.stall_until);
        let resume = Cycle::new(
            horizon
                .as_u64()
                .saturating_sub(self.cfg.frontend_depth)
                .max(now.as_u64() + 1),
        );
        self.frontend.redirect(load_trace_idx + 1, resume);
    }

    fn step_insert(&mut self, now: Cycle) {
        let free = self.state.iq.free().min(self.cfg.width);
        if free == 0 {
            return;
        }
        let mut inserted = 0u64;
        while inserted < free as u64 {
            let Some(f) = self.frontend.pop_ready(now) else {
                break;
            };
            let FetchedInstr {
                occupant,
                instr,
                seq,
                falsely_predicated,
                mispredicted_branch,
                ..
            } = f;
            let mut entry = IqEntry::new(occupant, instr, seq, now, falsely_predicated);
            entry.mispredicted_branch = mispredicted_branch;
            self.state.iq.insert(entry);
            inserted += 1;
        }
        if inserted > 0 {
            if let Some(st) = self.stages.as_mut() {
                st.on_insert(now.as_u64(), inserted);
            }
        }
    }

    fn step_fetch(&mut self, now: Cycle) {
        let throttled = matches!(self.cfg.throttle, ThrottlePolicy::OnLoadMiss(_))
            && now < self.state.miss_outstanding_until;
        // Synthetic front-end stall pattern (I-cache/ITLB hiccups).
        let ifetch_stalled = self.cfg.ifetch_stall_period > 0
            && now.as_u64() % self.cfg.ifetch_stall_period < self.cfg.ifetch_stall_cycles;
        self.frontend.throttled = throttled;
        if !ifetch_stalled {
            let throttled_before = self.frontend.stats().throttled_cycles;
            let (correct, wrong) = self.frontend.fetch(now);
            if let Some(st) = self.stages.as_mut() {
                if correct + wrong > 0 {
                    st.on_fetch(now.as_u64(), correct, wrong);
                }
                if self.frontend.stats().throttled_cycles > throttled_before {
                    st.on_throttle(now.as_u64());
                }
            }
        }
    }

    fn step_inject(&mut self, now: Cycle) {
        let Some(f) = self.fault else { return };
        // Background scrubbing: a periodic parity sweep over the queue.
        if self.cfg.scrub_period > 0
            && now.as_u64() > 0
            && now.as_u64().is_multiple_of(self.cfg.scrub_period)
        {
            // A scrub read removes no entry, so the age order holds still.
            for age in 0..self.state.iq.occupied() {
                let slot = self.state.iq.age_order()[age];
                if let Some(entry) = self.state.iq.get_mut(slot) {
                    if entry.parity_mismatch() && self.detector.on_scrub(entry) {
                        self.stop_early = true;
                        return;
                    }
                }
            }
        }
        if f.cycle == now {
            let entry = self.state.iq.get_mut(f.slot);
            self.detector.set_ecc_verdict(f.ecc);
            self.detector.on_injection(entry, f.mask());
            if self.detector.outcome().is_some() {
                self.stop_early = true;
            }
            // Mark the first strike spent.
            self.fault = Some(FaultSpec {
                cycle: Cycle::new(u64::MAX),
                ..f
            });
            return;
        }
        // A deferred second strike lands only while the struck entry is
        // still resident in its slot: the detector matches its sequence
        // number, so an entry that refilled the slot is left alone.
        if let Some((c2, mask)) = f.second_mask() {
            if c2 == now {
                if let Some(entry) = self.state.iq.get_mut(f.slot) {
                    self.detector.on_second_strike(entry, mask);
                }
                self.fault = Some(FaultSpec {
                    second_cycle: Some(Cycle::new(u64::MAX)),
                    ..f
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::Emulator;
    use ses_workloads::{synthesize, WorkloadSpec};

    fn quick_run() -> (Program, ExecutionTrace) {
        let spec = WorkloadSpec::quick("engine-snap", 17);
        let program = synthesize(&spec);
        let trace = Emulator::new(&program).run(100_000).unwrap();
        (program, trace)
    }

    /// `run` as a resume from `cycle` reports it: every field equal, and
    /// the residency log's tail from the first residency that ends at or
    /// after `cycle`.
    fn resumed_view(run: &PipelineResult, cycle: Cycle) -> PipelineResult {
        let log = &run.residencies;
        let split = log
            .iter()
            .position(|r| r.dealloc >= cycle)
            .unwrap_or(log.len());
        PipelineResult {
            residencies: log[split..].to_vec(),
            ..*run
        }
    }

    #[test]
    fn capture_run_matches_plain_run() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let plain = pipeline.run(&program, &trace);
        let (captured, snapshots) =
            pipeline.run_with_snapshots(&program, &trace, DetectionModel::None, 500);
        assert_eq!(plain, captured, "snapshot capture must not perturb timing");
        assert!(!snapshots.is_empty());
        assert_eq!(snapshots[0].cycle(), Cycle::ZERO);
        assert!(snapshots.windows(2).all(|w| w[0].cycle() < w[1].cycle()));
        let every_observer = Observers {
            snapshot_interval: 500,
            stage_bucket: Some(256),
        };
        let observed = pipeline.run_golden(&program, &trace, DetectionModel::None, every_observer);
        assert_eq!(plain, observed.result, "observers must not perturb timing");
        assert_eq!(observed.snapshots.len(), snapshots.len());
        assert!(observed.stages.is_some());
    }

    /// A run without the residency log has every field of the plain run
    /// but the log, on a squashing machine too.
    #[test]
    fn lean_run_matches_plain_run_but_the_log() {
        let (program, trace) = quick_run();
        for config in [
            PipelineConfig::default(),
            PipelineConfig::default().with_squash(ses_mem::Level::L1),
        ] {
            let pipeline = Pipeline::new(config);
            let plain = pipeline.run(&program, &trace);
            let lean = pipeline.run_lean(&program, &trace);
            assert!(lean.residencies.is_empty() && !plain.residencies.is_empty());
            let unlogged = PipelineResult {
                residencies: Vec::new(),
                ..plain
            };
            assert_eq!(lean, unlogged);
        }
    }

    /// A run logging into a recycled log equals a plain run, whatever the
    /// log held before, and keeps the log's allocation when it is big
    /// enough.
    #[test]
    fn recycled_log_run_matches_plain_run() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let plain = pipeline.run(&program, &trace);
        let mut stale = plain.residencies.repeat(2);
        stale.reverse();
        let at = stale.as_ptr();
        let recycled = pipeline.run_into(&program, &trace, stale);
        assert_eq!(recycled, plain);
        assert_eq!(recycled.residencies.as_ptr(), at);
    }

    /// A checkpoint never copies the capture run's residency log, which
    /// stays complete, and a window base and its forks log nothing.
    #[test]
    fn checkpoints_and_window_forks_carry_no_residency_log() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let plain = pipeline.run(&program, &trace);
        let (golden, snapshots) =
            pipeline.run_with_snapshots(&program, &trace, DetectionModel::None, 500);
        assert_eq!(golden.residencies, plain.residencies);
        assert!(snapshots.len() > 2);
        assert!(snapshots.iter().all(|s| s.engine.iq.log().is_none()));
        for snapshot in [None, Some(&snapshots[snapshots.len() / 2])] {
            let window = pipeline.fault_window(&program, &trace, snapshot, DetectionModel::None);
            let fork = window.base.clone();
            assert!(window.base.state.iq.log().is_none() && fork.state.iq.log().is_none());
            let (run, _) = fork.run_core();
            assert!(run.result.residencies.is_empty() && run.result.committed > 0);
        }
    }

    /// On a tracking model the gate fires only once the struck residency
    /// has left its slot (quiescence needs a parity hit, which sets the
    /// residency's π) and only after a temporal double's second strike,
    /// and every gated verdict equals the from-scratch replay's. The stop
    /// cycles are pinned to those of the fingerprint-compared gate this
    /// one replaced, so a gate that fires earlier or later fails too.
    #[test]
    fn convergence_gate_waits_for_a_clean_struck_slot() {
        const STOPS: [(u64, u64); 23] = [
            (3, 9949),
            (6, 6140),
            (23, 1222),
            (30, 970),
            (34, 4827),
            (46, 2410),
            (50, 6265),
            (55, 4111),
            (62, 3824),
            (74, 1380),
            (75, 9309),
            (80, 7141),
            (92, 5067),
            (114, 11900),
            (138, 7057),
            (149, 10642),
            (152, 6848),
            (160, 286),
            (166, 6037),
            (177, 9714),
            (182, 7453),
            (190, 1198),
            (192, 3147),
        ];
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let detection = DetectionModel::Parity {
            tracking: Some(crate::TrackingConfig {
                scope: crate::PiScope::StoreCommit,
                anti_pi: true,
                pet_entries: None,
                mem_granule: 8,
            }),
        };
        let log = pipeline.run(&program, &trace).residencies;
        let (golden, snapshots) = pipeline.run_with_snapshots(&program, &trace, detection, 400);
        let mut stops = Vec::new();
        for i in 0..200u64 {
            let cycle = Cycle::new(i * 7919 % golden.cycles);
            let (slot, bit) = ((i * 7 % 64) as usize, (i * 13 % 64) as u32);
            // Every other fault is a temporal double, its second strike
            // 1 to 160 cycles after the first.
            let fault = if i % 2 == 0 {
                FaultSpec::single(cycle, slot, bit)
            } else {
                FaultSpec::temporal_double(cycle, slot, bit, 1 + i * 37 % 160)
            };
            let idx = snapshots.partition_point(|s| s.cycle() <= fault.cycle);
            let window =
                pipeline.fault_window(&program, &trace, Some(&snapshots[idx - 1]), detection);
            let gated = window.run_last(fault, true);
            let full = pipeline.run_with_fault(&program, &trace, Some(fault), detection);
            assert_eq!(Some(gated.outcome), full.fault, "{fault:?}");
            if !gated.pruned {
                assert_eq!(gated.end_cycle, full.cycles, "{fault:?}");
                continue;
            }
            let at = cycle.as_u64();
            let struck = log
                .iter()
                .find(|r| r.slot == slot && r.alloc.as_u64() <= at && at < r.dealloc.as_u64())
                .expect("a gate stop follows a strike on a residency");
            assert!(
                struck.dealloc.as_u64() < gated.end_cycle,
                "the gate fired with the struck residency in its slot: {fault:?}"
            );
            if let Some((second, _)) = fault.second_mask() {
                assert!(
                    second.as_u64() < gated.end_cycle,
                    "the gate fired before the second strike: {fault:?}"
                );
            }
            stops.push((i, gated.end_cycle));
        }
        assert_eq!(stops, STOPS);
    }

    #[test]
    fn faultless_resume_replays_tail_bit_identically() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let (golden, snapshots) =
            pipeline.run_with_snapshots(&program, &trace, DetectionModel::None, 700);
        for snap in [
            &snapshots[0],
            &snapshots[snapshots.len() / 2],
            snapshots.last().unwrap(),
        ] {
            let resumed = pipeline.resume(&program, &trace, snap, None);
            assert_eq!(
                resumed_view(&golden, snap.cycle()),
                resumed,
                "resume from cycle {:?} must reproduce the golden run",
                snap.cycle()
            );
        }
    }

    /// Resumed fault runs equal from-scratch ones under parity and under
    /// a Commit-scope PET model, the one model whose fault-free detector
    /// state (the PET log) is not empty, which a restore starts empty.
    #[test]
    fn resumed_fault_run_matches_from_scratch() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let pet = DetectionModel::Parity {
            tracking: Some(crate::TrackingConfig {
                scope: crate::PiScope::Commit,
                anti_pi: true,
                pet_entries: Some(64),
                mem_granule: 8,
            }),
        };
        for detection in [DetectionModel::Parity { tracking: None }, pet] {
            let (golden, snapshots) = pipeline.run_with_snapshots(&program, &trace, detection, 400);
            let last_cycle = golden.cycles.saturating_sub(1);
            for (strike, slot, bit) in [
                (0u64, 0usize, 5u32),
                (401, 3, 17),
                (800, 12, 63),
                (last_cycle, 1, 30),
            ] {
                let fault = FaultSpec::single(Cycle::new(strike), slot, bit);
                let scratch = pipeline.run_with_fault(&program, &trace, Some(fault), detection);
                let idx = snapshots.partition_point(|s| s.cycle() <= fault.cycle);
                let snap = &snapshots[idx - 1];
                let resumed = pipeline.resume(&program, &trace, snap, Some(fault));
                assert_eq!(
                    resumed_view(&scratch, snap.cycle()),
                    resumed,
                    "fault at cycle {strike} slot {slot} bit {bit} diverged under {detection:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strikes before")]
    fn resume_rejects_pre_snapshot_faults() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let (_, snapshots) =
            pipeline.run_with_snapshots(&program, &trace, DetectionModel::None, 600);
        let late = snapshots.last().unwrap();
        let fault = FaultSpec::single(Cycle::ZERO, 0, 0);
        pipeline.resume(&program, &trace, late, Some(fault));
    }
}
