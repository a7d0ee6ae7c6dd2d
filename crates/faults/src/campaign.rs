//! Campaign orchestration: random strikes, timing-model replay, functional
//! outcome classification.
//!
//! The injection executor is checkpointed and window-batched:
//! [`GoldenRun::prepare`] runs the golden timing simulation once, capturing
//! pipeline [`Snapshot`]s about 64 times per run. Injections are grouped
//! by checkpoint window (the latest snapshot at or before the strike
//! cycle); each window's snapshot is restored once, each fault replays on
//! a fork of that base (the window's last fault on the base itself), and
//! only the verdict and end cycle come back ([`FaultRun`]). The golden
//! functional run likewise captures architectural [`Checkpoint`]s, and a
//! corrupted word's functional replay resumes from the last one at or
//! before the corrupted dynamic index.
//!
//! Every caller injects through one entry, [`Campaign::inject_batch`].
//! Each injection returns its verdict together with its charges (window
//! start, timing replay, functional replay, recovery decision) by value,
//! and the batch folds them in batch order, so a golden run is immutable
//! and a campaign's reports are independent of thread scheduling and of
//! concurrent runs.
//!
//! [`CampaignConfig::prune`] switches three shortcuts on: the golden run
//! also records a fingerprint stream (a rolling hash of the
//! fault-reachable machine state per cycle) and a strike index; a strike
//! on a provably idle coordinate resolves without simulating; and each
//! replay stops the moment its fingerprint rejoins the golden stream at
//! the same cycle. Verdicts are identical either way — debug builds
//! assert every pruned verdict against a full replay.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_arch::{Checkpoint, Emulator, ExecutionTrace, RunOutcome};
use ses_isa::{bit_kind, encode, BitKind, Program};
use ses_pipeline::{
    DetectionModel, FaultOutcome, FaultRun, FaultSpec, FaultWindow, ObservedRun, Observers,
    Occupant, Pipeline, PipelineConfig, PipelineResult, Snapshot, SuppressReason,
};
use ses_types::{parallel_map, worker_count, Cycle, SesError};
use ses_workloads::{synthesize, WorkloadSpec};

use crate::outcome::Outcome;
use crate::recovery::{LatencyDistribution, RecoveryDecision, RecoveryPolicy, RecoveryReport};
use crate::report::{CampaignPerf, CampaignReport, PruneReport};

/// Configuration of a fault-injection campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of single-bit faults to inject.
    pub injections: u32,
    /// Seed for strike-coordinate sampling.
    pub seed: u64,
    /// Detection model under test.
    pub detection: DetectionModel,
    /// Inject adjacent double-bit faults instead of single-bit ones
    /// (models one particle upsetting two neighbouring cells, the paper's
    /// §2 multi-bit caveat; physical interleaving defends against it).
    pub double_bit: bool,
    /// Capture pipeline snapshots during [`GoldenRun::prepare`] (default),
    /// about 64 over the run (every `baseline_cycles / 64` cycles, at
    /// least 1). Each injection resumes from the latest snapshot at or
    /// before its strike cycle, skipping the fault-free prefix of the
    /// run. `false` simulates every injection from cycle 0: the reference
    /// the checkpointed executor is tested against.
    pub checkpoints: bool,
    /// Timing-model configuration.
    pub pipeline: PipelineConfig,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Detection-signal latency model. `None` (default) keeps the paper's
    /// instantaneous machine check; with a distribution, each detected
    /// fault's signal is deferred by a deterministically sampled latency.
    pub detect_latency: Option<LatencyDistribution>,
    /// What a detected fault becomes: the legacy machine-check DUE, or an
    /// idempotent-region re-execution when the deferred signal still lands
    /// inside the fault's region.
    pub recovery: RecoveryPolicy,
    /// Enable convergence pruning: prepare records a per-cycle golden
    /// fingerprint stream and a strike index, strikes on idle coordinates
    /// resolve without simulating, and each faulted replay stops as soon
    /// as its state fingerprint rejoins the golden stream. Off by default.
    /// Verdicts are identical either way (asserted per injection in debug
    /// builds); only wall-clock, the cycles simulated and the pruning
    /// telemetry stanza change.
    pub prune: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 1000,
            seed: 0xFAu64,
            detection: DetectionModel::None,
            double_bit: false,
            checkpoints: true,
            pipeline: PipelineConfig::default(),
            threads: 0,
            detect_latency: None,
            recovery: RecoveryPolicy::MachineCheck,
            prune: false,
        }
    }
}

/// How a corrupted functional replay compared against the golden output.
/// A corrupted word equal to the golden word short-circuits to
/// `Identical` without emulating (the fast path); everything else runs
/// the functional emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replay {
    Identical,
    Different,
    Crashed,
    Hang,
}

/// Which path a classifier's functional replay took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplayPath {
    /// The corrupted word equalled the golden word: no emulation.
    FastPath,
    /// The functional emulator ran from a golden checkpoint.
    Emulated,
}

/// One injection's verdict plus everything it charges to the run's
/// accounting, returned by value and folded in batch order by
/// [`Campaign::inject_batch`]. The charges are a pure function of the
/// fault, so every report is schedule-independent.
#[derive(Debug, Clone, Copy)]
struct Injection {
    outcome: Outcome,
    /// Cycle the fault's checkpoint window starts at, charged as skipped.
    window_start: u64,
    /// The timing replay from the window base, or `None` when the idle
    /// shortcut resolved the strike without simulating.
    run: Option<FaultRun>,
    /// The functional replay the classifier requested, if any.
    replay: Option<ReplayPath>,
    /// How the recovery policy resolved a detected fault, when active.
    recovery: Option<RecoveryDecision>,
}

/// The immutable fault-free state every injection is judged against. It
/// depends only on the workload and the golden fields of
/// [`CampaignConfig`] (`pipeline`, `checkpoints`, `prune`), so any number
/// of run plans share one ([`Campaign::on`]), whatever their detection
/// models: no model acts before a strike.
pub struct GoldenRun {
    program: Program,
    golden: ExecutionTrace,
    /// Architectural checkpoints of the golden functional run, in index
    /// order and starting at index 0; each functional replay resumes from
    /// the last one at or before its corrupted index.
    arch_checkpoints: Vec<Checkpoint>,
    baseline_cycles: u64,
    /// Per-slot lifetime spans of the golden timing run (`ses-avf`'s
    /// canonical interval representation), kept for the adaptive
    /// sampler's lifetime and occupancy stratification.
    lifetime_spans: Vec<ses_avf::LifetimeSpan>,
    pipeline: Pipeline,
    snapshots: Vec<Snapshot>,
    checkpoint_interval: u64,
    replay_budget: u64,
    prepare_wall: Duration,
    /// Golden per-cycle fingerprint stream for the convergence gate;
    /// empty unless [`CampaignConfig::prune`] is enabled.
    golden_fps: Vec<u64>,
    /// Per-slot residency interval index for the idle shortcut; built
    /// only when pruning is enabled.
    strike_index: Option<ses_avf::StrikeIndex>,
    /// Idempotent-region partition of the golden trace, analysed on first
    /// use by a plan with [`RecoveryPolicy::Idempotent`].
    regions: OnceLock<ses_avf::RegionMap>,
}

impl GoldenRun {
    /// Synthesises the workload, produces the golden trace, measures the
    /// fault-free cycle count (the strike-cycle sampling range), and
    /// captures the pipeline checkpoints injections resume from. Reads
    /// only the golden fields of `config`.
    ///
    /// # Errors
    ///
    /// Propagates functional-emulation failures of the golden run.
    pub fn prepare(spec: &WorkloadSpec, config: &CampaignConfig) -> Result<Self, SesError> {
        Self::prepare_program(synthesize(spec), spec.target_dynamic * 4, config)
    }

    /// Prepares the golden run of an arbitrary program (the differential
    /// oracle injects into fuzz-generated programs this way). `max_instrs`
    /// bounds the golden functional run.
    ///
    /// # Errors
    ///
    /// Propagates functional-emulation failures of the golden run, and
    /// reports a budget error if the program does not halt in time.
    pub fn prepare_program(
        program: Program,
        max_instrs: u64,
        config: &CampaignConfig,
    ) -> Result<Self, SesError> {
        let start = Instant::now();
        // `prepare` budgets four times the expected run length, so this
        // spacing gives about 64 checkpoints.
        let (golden, arch_checkpoints) =
            Emulator::new(&program).run_checkpointed(max_instrs, (max_instrs / 256).max(1))?;
        if !golden.halted() {
            return Err(SesError::BudgetExceeded {
                resource: "instructions",
                limit: max_instrs,
            });
        }
        let pipeline = Pipeline::new(config.pipeline.clone());
        // Snapshot spacing needs the run length first: one sizing run,
        // without a residency log, ahead of the observed one.
        let checkpoint_interval = if config.checkpoints {
            (pipeline.run_lean(&program, &golden).cycles / 64).max(1)
        } else {
            0
        };
        // No detection model acts before a strike, so one capture under
        // none serves every plan: a window restores its snapshot under the
        // plan's model. Pruning also needs the golden fingerprint stream.
        let observers = Observers {
            snapshot_interval: checkpoint_interval,
            fingerprints: config.prune,
            stage_bucket: None,
        };
        let ObservedRun {
            result: baseline,
            snapshots,
            fingerprints: golden_fps,
            ..
        } = pipeline.run_golden(&program, &golden, DetectionModel::None, observers);
        let replay_budget = (golden.len() as u64).saturating_mul(4).max(10_000);
        let lifetime_spans = ses_avf::lifetime_spans(&baseline);
        let strike_index = config
            .prune
            .then(|| ses_avf::StrikeIndex::build(&lifetime_spans, config.pipeline.iq_entries));
        Ok(GoldenRun {
            baseline_cycles: baseline.cycles,
            lifetime_spans,
            program,
            golden,
            arch_checkpoints,
            pipeline,
            snapshots,
            checkpoint_interval,
            replay_budget,
            prepare_wall: start.elapsed(),
            golden_fps,
            strike_index,
            regions: OnceLock::new(),
        })
    }

    /// The golden (fault-free) trace.
    pub fn golden(&self) -> &ExecutionTrace {
        &self.golden
    }

    /// Fault-free cycle count of the timing run.
    pub fn baseline_cycles(&self) -> u64 {
        self.baseline_cycles
    }

    /// Resolved snapshot spacing in cycles (0 when checkpointing is
    /// disabled).
    pub fn checkpoint_interval(&self) -> u64 {
        self.checkpoint_interval
    }

    /// Number of pipeline checkpoints captured during prepare.
    pub fn checkpoints(&self) -> usize {
        self.snapshots.len()
    }

    /// Fault-free IPC of the golden timing run (committed instructions
    /// over baseline cycles), the IPC the reliability model pairs with a
    /// campaign-estimated AVF.
    pub fn baseline_ipc(&self) -> f64 {
        if self.baseline_cycles == 0 {
            0.0
        } else {
            self.golden.len() as f64 / self.baseline_cycles as f64
        }
    }

    /// The golden run's per-slot lifetime spans — the data the adaptive
    /// sampler splits into live and Ex-ACE-tail strata and uses to mask
    /// idle coordinates.
    pub fn lifetime_spans(&self) -> &[ses_avf::LifetimeSpan] {
        &self.lifetime_spans
    }

    /// The queue capacity of the configured machine.
    pub fn iq_entries(&self) -> usize {
        self.pipeline.config().iq_entries
    }

    /// Draws injection `i`'s strike coordinates (cycle, queue slot, bit)
    /// from the stream seeded by `seed` and `i`, and returns the stream
    /// for any further draws. Every seeded campaign samples its strikes
    /// here, in this draw order.
    pub(crate) fn strike(&self, seed: u64, i: u32) -> (Cycle, usize, u32, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(i).wrapping_mul(0x9E37));
        let cycle = Cycle::new(rng.gen_range(0..self.baseline_cycles.max(1)));
        let slot = rng.gen_range(0..self.iq_entries());
        let bit = rng.gen_range(0..64u32);
        (cycle, slot, bit, rng)
    }

    /// Whether pruning's idle shortcut resolves `fault`: nothing occupies
    /// the struck coordinate at the strike cycle, so a replay would
    /// simulate to the strike only to observe `SlotIdle`.
    fn idle_strike(&self, fault: &FaultSpec) -> bool {
        self.strike_index
            .as_ref()
            .is_some_and(|index| !index.occupied(fault.slot, fault.cycle.as_u64()))
    }

    /// Re-runs the functional emulator with the corrupted word substituted
    /// at the given dynamic position and compares outputs, returning the
    /// comparison and the path it took. A corrupted word equal to the
    /// golden word short-circuits to `Identical` without emulating at all.
    /// Otherwise the replay resumes from the last golden checkpoint at or
    /// before `trace_idx`, only the output emitted after that checkpoint is
    /// compared, and the replay stops at the first later checkpoint where
    /// it has rejoined the golden run ([`Emulator::resume_with_override`]).
    /// Debug builds check one in eight emulated replays against a replay
    /// from program start.
    fn replay(&self, trace_idx: u64, corrupted_word: u64) -> (Replay, ReplayPath) {
        let record = self.golden.entries().get(trace_idx as usize);
        if record.is_some_and(|d| encode(&d.instr) == corrupted_word) {
            return (Replay::Identical, ReplayPath::FastPath);
        }
        let resumed = Emulator::resume_with_override(
            &self.program,
            &self.golden,
            &self.arch_checkpoints,
            trace_idx,
            corrupted_word,
            self.replay_budget,
        );
        let replay = judge(
            resumed.outcome,
            &self.golden.output()[resumed.output_offset..],
        );
        if cfg!(debug_assertions) && trace_idx.is_multiple_of(8) {
            assert_eq!(
                replay,
                self.replay_from_start(trace_idx, corrupted_word),
                "checkpointed functional replay diverged from program start \
                 (index {trace_idx}, word {corrupted_word:#x})"
            );
        }
        (replay, ReplayPath::Emulated)
    }

    /// The functional replay from program start, the reference the
    /// checkpointed [`GoldenRun::replay`] is checked against.
    fn replay_from_start(&self, trace_idx: u64, corrupted_word: u64) -> Replay {
        judge(
            Emulator::new(&self.program).run_with_override(
                trace_idx,
                corrupted_word,
                self.replay_budget,
            ),
            self.golden.output(),
        )
    }
}

/// A fault-injection campaign: a shared [`GoldenRun`] plus the run plan
/// (detection model, seed, injections, latency, recovery, threads) it
/// executes under. It derefs to its golden run.
pub struct Campaign {
    golden_run: Arc<GoldenRun>,
    config: CampaignConfig,
}

impl Deref for Campaign {
    type Target = GoldenRun;

    fn deref(&self) -> &GoldenRun {
        &self.golden_run
    }
}

impl Campaign {
    /// Prepares the golden run `config` needs and plans `config` on it
    /// ([`GoldenRun::prepare`], then [`Campaign::on`]).
    ///
    /// # Errors
    ///
    /// Propagates functional-emulation failures of the golden run.
    pub fn prepare(spec: &WorkloadSpec, config: CampaignConfig) -> Result<Self, SesError> {
        let golden_run = GoldenRun::prepare(spec, &config)?;
        Ok(Self::on(Arc::new(golden_run), config))
    }

    /// Plans `config` on a prepared golden run.
    ///
    /// # Panics
    ///
    /// If the golden fields of `config` differ from those `golden_run` was
    /// prepared under: the campaign would report another config's verdicts.
    pub fn on(golden_run: Arc<GoldenRun>, config: CampaignConfig) -> Self {
        assert!(
            *golden_run.pipeline.config() == config.pipeline
                && (golden_run.checkpoint_interval > 0) == config.checkpoints
                && golden_run.strike_index.is_some() == config.prune,
            "the campaign config's golden fields differ from the golden run's"
        );
        Campaign { golden_run, config }
    }

    /// Runs the campaign, parallelised across worker threads. Outcomes
    /// are aggregated in injection-index order regardless of thread
    /// scheduling, and the report carries [`CampaignPerf`] accounting.
    pub fn run(&self) -> CampaignReport {
        self.run_detailed().summary()
    }

    /// Runs the campaign recording each fault's coordinates alongside its
    /// outcome, for positional analyses (which bits and which queue slots
    /// carry the vulnerability): the seeded faults `0..injections` as one
    /// [`Campaign::inject_batch`].
    pub fn run_detailed(&self) -> DetailedReport {
        let faults: Vec<FaultSpec> = (0..self.config.injections)
            .map(|i| self.fault_for(i))
            .collect();
        self.inject_batch(&faults)
    }

    /// The one injection entry: runs a caller-chosen batch of faults
    /// through the window-batched executor. Samples come back in batch
    /// order, and the injections' charges are folded in that order into
    /// this execution's accounting: performance always, recovery
    /// accounting when the recovery policy is active, pruning accounting
    /// when pruning is on. Each verdict is a pure function of its fault,
    /// so a fault's outcome does not depend on the batch it rides in.
    pub fn inject_batch(&self, faults: &[FaultSpec]) -> DetailedReport {
        let start = Instant::now();
        let injections = self.windowed_run(faults);
        let n = faults.len() as u32;
        let mut perf = CampaignPerf {
            prepare_wall: self.prepare_wall,
            inject_wall: start.elapsed(),
            injections: n,
            checkpoints: self.snapshots.len(),
            checkpoint_interval: self.checkpoint_interval,
            ..CampaignPerf::default()
        };
        let mut recovery = self.regions().map(|regions| RecoveryReport {
            regions: regions.len() as u32,
            mean_region_len: regions.mean_len(),
            ..RecoveryReport::default()
        });
        let mut prune = self.config.prune.then(|| PruneReport {
            injections: n,
            ..PruneReport::default()
        });
        for inj in &injections {
            // Every fault is charged its window prefix as skipped and the
            // cycles it actually simulated (none for an idle strike); the
            // tail a gate stop avoids shows only in the prune report.
            perf.cycles_skipped += inj.window_start;
            if let Some(run) = inj.run {
                perf.cycles_simulated += run.end_cycle.saturating_sub(inj.window_start);
            }
            if let Some(path) = inj.replay {
                perf.replays += 1;
                perf.replay_fast_path += u64::from(path == ReplayPath::FastPath);
            }
            if let (Some(report), Some(decision)) = (recovery.as_mut(), inj.recovery) {
                report.record(&decision);
            }
            if let Some(report) = prune.as_mut() {
                match inj.run {
                    None => {
                        report.idle_skips += 1;
                        report.cycles_saved +=
                            self.baseline_cycles.saturating_sub(inj.window_start);
                    }
                    Some(run) => {
                        report.replay_cycles += run.end_cycle.saturating_sub(inj.window_start);
                        if run.pruned {
                            report.fp_stops += 1;
                            report.cycles_saved +=
                                self.baseline_cycles.saturating_sub(run.end_cycle);
                        }
                    }
                }
            }
        }
        DetailedReport {
            samples: faults
                .iter()
                .copied()
                .zip(injections.iter().map(|inj| inj.outcome))
                .collect(),
            perf,
            recovery,
            prune,
        }
    }

    /// Resolves ECC-precomputed strikes in trial order: `None` is a strike
    /// the decoder corrected, benign without a pipeline run; the rest run
    /// as one [`Campaign::inject_batch`].
    pub(crate) fn inject_strikes(&self, strikes: &[Option<FaultSpec>]) -> Vec<Outcome> {
        let batch: Vec<FaultSpec> = strikes.iter().flatten().copied().collect();
        let report = self.inject_batch(&batch);
        let mut injected = report.samples().iter().map(|&(_, outcome)| outcome);
        strikes
            .iter()
            .map(|strike| match strike {
                None => Outcome::Benign,
                Some(_) => injected.next().expect("one outcome per injected strike"),
            })
            .collect()
    }

    /// The injection executor: group injections by checkpoint window,
    /// restore each window's snapshot at most once, and replay each fault
    /// from the restored base. Results come back in batch order, so
    /// reports and artifacts are byte-identical across thread counts.
    fn windowed_run(&self, faults: &[FaultSpec]) -> Vec<Injection> {
        // Window id = number of snapshots at or before the strike; id 0 is
        // the from-scratch window (no snapshot precedes the strike).
        let mut windows: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for (i, f) in faults.iter().enumerate() {
            let w = self.snapshots.partition_point(|s| s.cycle() <= f.cycle);
            windows.entry(w).or_default().push(i as u32);
        }
        // Split oversized windows so a campaign with few checkpoints (or
        // none) still parallelises; chunking never affects results — each
        // chunk restores its own base and per-fault charges are pure.
        let threads = self.config.threads;
        let chunk = (faults.len() / (worker_count(threads, faults.len()) * 4)).max(1);
        let groups: Vec<(Option<&Snapshot>, &[u32])> = windows
            .iter()
            .flat_map(|(&w, idxs)| {
                let snap = w.checked_sub(1).map(|j| &self.snapshots[j]);
                idxs.chunks(chunk).map(move |c| (snap, c))
            })
            .collect();
        let mut indexed: Vec<(u32, Injection)> = parallel_map(groups.len(), threads, |g| {
            let (snap, idxs) = groups[g];
            // The chunk's last simulated fault runs on the window base
            // itself instead of a fork of it.
            let last = idxs
                .iter()
                .rposition(|&i| !self.idle_strike(&faults[i as usize]));
            // The window base is built lazily: a chunk whose faults all
            // resolve idle never restores its snapshot.
            let mut window = None;
            idxs.iter()
                .enumerate()
                .map(|(k, &i)| {
                    // The one debug-guard rule: every eighth fault of the
                    // batch (a one-fault batch's only fault) is also
                    // checked against a run from scratch.
                    let verify = cfg!(debug_assertions) && i.is_multiple_of(8);
                    let fault = faults[i as usize];
                    let last = Some(k) == last;
                    (i, self.window_fault(snap, &mut window, fault, last, verify))
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, inj)| inj).collect()
    }

    /// Resolves one fault inside its checkpoint window: the idle shortcut
    /// when it applies, else a replay from the window base — on a fork,
    /// or on the base itself when `last` — with the convergence gate
    /// armed when pruning.
    fn window_fault<'a>(
        &'a self,
        snap: Option<&'a Snapshot>,
        window: &mut Option<FaultWindow<'a>>,
        fault: FaultSpec,
        last: bool,
        verify: bool,
    ) -> Injection {
        let run = (!self.idle_strike(&fault)).then(|| {
            let gate = self.config.prune.then_some(self.golden_fps.as_slice());
            let build = || self.window(snap);
            if last {
                window.take().unwrap_or_else(build).run_last(fault, gate)
            } else {
                window.get_or_insert_with(build).run_fault(fault, gate)
            }
        });
        if cfg!(debug_assertions) && (verify || self.config.prune) {
            self.cross_check(snap, fault, run, verify);
        }
        self.classify(&fault, snap.map_or(0, |s| s.cycle().as_u64()), run)
    }

    /// The base of `snap`'s checkpoint window under the plan's detection
    /// model.
    fn window<'a>(&'a self, snap: Option<&Snapshot>) -> FaultWindow<'a> {
        self.pipeline
            .fault_window(&self.program, &self.golden, snap, self.config.detection)
    }

    /// The replay of `fault` from cycle 0 under the plan's model, the
    /// reference the checkpointed executor is checked against.
    fn run_from_scratch(&self, fault: FaultSpec) -> PipelineResult {
        self.pipeline.run_with_fault(
            &self.program,
            &self.golden,
            Some(fault),
            self.config.detection,
        )
    }

    /// Debug-build oracle for the executor: the verdict must equal a full
    /// replay's, and a replay that ran to its natural end must end at the
    /// same cycle. With pruning on, every fault is checked against an
    /// ungated run from its window; with `verify`, against a run from
    /// scratch (the checkpoint determinism guard). It drives the pipeline
    /// directly and charges nothing.
    fn cross_check(
        &self,
        snap: Option<&Snapshot>,
        fault: FaultSpec,
        run: Option<FaultRun>,
        verify: bool,
    ) {
        let got = run.map_or(FaultOutcome::SlotIdle, |r| r.outcome);
        let check = |want: FaultOutcome, end_cycle: u64, oracle: &str| {
            assert_eq!(
                want, got,
                "executor verdict diverged from {oracle} for {fault:?}"
            );
            if let Some(run) = run.filter(|r| !r.pruned) {
                assert_eq!(
                    run.end_cycle, end_cycle,
                    "window run ended apart from {oracle} for {fault:?}"
                );
            }
        };
        if self.config.prune {
            let full = self.window(snap).run_last(fault, None);
            check(full.outcome, full.end_cycle, "an ungated window run");
        }
        if verify {
            let full = self.run_from_scratch(fault);
            let want = full.fault.expect("fault run resolves an outcome");
            check(want, full.cycles, "a from-scratch run");
        }
    }

    /// The deterministic fault coordinates for injection `i`.
    pub fn fault_for(&self, i: u32) -> FaultSpec {
        let (cycle, slot, bit, _) = self.strike(self.config.seed, i);
        if self.config.double_bit {
            FaultSpec::adjacent_double(cycle, slot, bit)
        } else {
            FaultSpec::single(cycle, slot, bit)
        }
    }

    /// The idempotent-region partition of the golden trace, present when
    /// the recovery policy is [`RecoveryPolicy::Idempotent`]. The golden
    /// run analyses it once, on the first such plan's first use.
    pub fn regions(&self) -> Option<&ses_avf::RegionMap> {
        (self.config.recovery == RecoveryPolicy::Idempotent).then(|| {
            self.regions
                .get_or_init(|| ses_avf::RegionMap::analyze(&self.golden))
        })
    }

    /// The detection latency (in cycles) the configured distribution
    /// assigns to `fault`, a pure function of the campaign seed and the
    /// fault coordinates so results are schedule-independent. Zero when no
    /// latency model is configured (the paper's instantaneous detector).
    pub fn latency_for(&self, fault: &FaultSpec) -> u64 {
        match &self.config.detect_latency {
            None => 0,
            Some(dist) => dist.sample(latency_seed(self.config.seed, fault)),
        }
    }

    /// How the recovery policy resolves a *detected* fault on `occupant`,
    /// or `None` when the policy is [`RecoveryPolicy::MachineCheck`].
    ///
    /// The deferred detection signal lands `latency` cycles after the
    /// corrupted word is read, i.e. `ceil(latency × IPC)` committed
    /// instructions downstream. If that signal position is still inside
    /// the idempotent region containing the fault, the machine rewinds to
    /// the region entry and re-executes the committed prefix (`signal −
    /// region start` instructions, the charged IPC loss); the trailing
    /// live-in clobber that closes a region sits at `end − 1` and has not
    /// committed while the signal is in-region, so the replayed window
    /// never includes it. A signal that escapes the region — or outlives
    /// the trace — falls back to the machine-check DUE. Wrong-path
    /// corruptions recover by the flush that discards them; their charge
    /// is the latency's worth of committed work.
    pub fn recovery_decision(
        &self,
        fault: &FaultSpec,
        occupant: Occupant,
    ) -> Option<RecoveryDecision> {
        let regions = self.regions()?;
        let latency_cycles = self.latency_for(fault);
        let delay_instructions = (latency_cycles as f64 * self.baseline_ipc()).ceil() as u64;
        match occupant {
            Occupant::WrongPath => Some(RecoveryDecision {
                latency_cycles,
                delay_instructions,
                fault_index: None,
                region: None,
                recovered: true,
                reexec_instructions: delay_instructions,
            }),
            Occupant::CorrectPath { trace_idx } => {
                let signal = trace_idx + delay_instructions;
                let at_fault = regions.region_of(trace_idx);
                let at_signal = regions.region_of(signal);
                let region = at_fault.map(|i| {
                    let r = &regions.regions()[i];
                    (r.start, r.end)
                });
                let recovered = at_fault.is_some() && at_fault == at_signal;
                let reexec_instructions = if recovered {
                    signal - region.expect("recovered fault has a region").0
                } else {
                    0
                };
                Some(RecoveryDecision {
                    latency_cycles,
                    delay_instructions,
                    fault_index: Some(trace_idx),
                    region,
                    recovered,
                    reexec_instructions,
                })
            }
        }
    }

    /// Runs seeded uniform injections in deterministic batches until the
    /// 95 % CI of the chosen metric is at or below `target_halfwidth`
    /// (evaluated at batch boundaries, after at least `min` trials) or
    /// `max` injections have been spent. Returns the measured
    /// [`UniformRun`]; the trials-to-target comparison against the
    /// adaptive scheduler reads its `trials`.
    pub fn run_uniform_to_target(
        &self,
        target_halfwidth: f64,
        metric: crate::adaptive::MetricKind,
        min: u32,
        max: u32,
    ) -> UniformRun {
        let mut n = 0u32;
        let mut events = 0u64;
        while n < max {
            let batch = 256.min(max - n);
            let faults: Vec<FaultSpec> = (n..n + batch).map(|i| self.fault_for(i)).collect();
            let report = self.inject_batch(&faults);
            events += report
                .samples()
                .iter()
                .filter(|&&(_, o)| metric.is_event(o))
                .count() as u64;
            n += batch;
            let p = f64::from(events as u32) / f64::from(n);
            if n >= min && ses_metrics::binomial_ci95(p, u64::from(n)) <= target_halfwidth {
                break;
            }
        }
        let proportion = if n == 0 { 0.0 } else { events as f64 / f64::from(n) };
        UniformRun {
            trials: n,
            events,
            proportion,
            halfwidth: ses_metrics::binomial_ci95(proportion, u64::from(n)),
        }
    }

    /// Classifies one fault's timing outcome into the paper's taxonomy
    /// (functionally replaying a corrupted correct-path word when the
    /// verdict depends on it) and gathers the injection's charges.
    fn classify(&self, fault: &FaultSpec, window_start: u64, run: Option<FaultRun>) -> Injection {
        let mut path = None;
        let mut recovery = None;
        let mut replay = |trace_idx: u64, word: u64| {
            let (replay, taken) = self.replay(trace_idx, word);
            path = Some(taken);
            replay
        };
        let outcome = match run.map_or(FaultOutcome::SlotIdle, |r| r.outcome) {
            FaultOutcome::SlotIdle | FaultOutcome::NeverRead { .. } => Outcome::Benign,
            FaultOutcome::CorruptIssued { corruption } => match corruption.occupant {
                Occupant::WrongPath => Outcome::Benign,
                Occupant::CorrectPath { trace_idx } => {
                    match replay(trace_idx, corruption.corrupted_word) {
                        Replay::Identical => Outcome::Benign,
                        Replay::Different | Replay::Crashed => Outcome::Sdc,
                        Replay::Hang => Outcome::Hang,
                    }
                }
            },
            FaultOutcome::Signalled { corruption, .. } => {
                recovery = self.recovery_decision(fault, corruption.occupant);
                if recovery.is_some_and(|d| d.recovered) {
                    Outcome::Recovered
                } else {
                    // Machine-check DUE, also when the deferred signal
                    // escaped the fault's region.
                    match corruption.occupant {
                        // A wrong-path corruption can never affect output.
                        Occupant::WrongPath => Outcome::FalseDue,
                        Occupant::CorrectPath { trace_idx } => {
                            match replay(trace_idx, corruption.corrupted_word) {
                                Replay::Identical => Outcome::FalseDue,
                                Replay::Different | Replay::Crashed | Replay::Hang => {
                                    Outcome::TrueDue
                                }
                            }
                        }
                    }
                }
            }
            FaultOutcome::Suppressed { reason, corruption } => match (reason, corruption.occupant)
            {
                // Discarded before commit: architecturally clean.
                (SuppressReason::WrongPath, _) | (SuppressReason::Squashed, _) => {
                    Outcome::SuppressedSafe
                }
                (_, Occupant::WrongPath) => Outcome::SuppressedSafe,
                (_, Occupant::CorrectPath { trace_idx }) => {
                    match replay(trace_idx, corruption.corrupted_word) {
                        Replay::Identical => Outcome::SuppressedSafe,
                        Replay::Different | Replay::Crashed | Replay::Hang => {
                            Outcome::SuppressedSdc
                        }
                    }
                }
            },
        };
        Injection {
            outcome,
            window_start,
            run,
            replay: path,
            recovery,
        }
    }
}

/// Compares a corrupted functional replay with the golden output it
/// should have reproduced.
fn judge(outcome: RunOutcome, golden_output: &[u64]) -> Replay {
    match outcome {
        RunOutcome::Completed { output } => {
            if output == golden_output {
                Replay::Identical
            } else {
                Replay::Different
            }
        }
        RunOutcome::Crashed { .. } => Replay::Crashed,
        RunOutcome::TimedOut => Replay::Hang,
    }
}

/// Mixes the campaign seed with one fault's strike coordinates into the
/// latency-sampling seed (a splitmix64-style finalizer, so neighbouring
/// coordinates get decorrelated latencies).
fn latency_seed(seed: u64, fault: &FaultSpec) -> u64 {
    let mut x = seed
        ^ fault.cycle.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (fault.slot as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ u64::from(fault.bit).wrapping_mul(0x1656_67B1_9E37_79F9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Result of a uniform run-to-target-CI campaign
/// ([`Campaign::run_uniform_to_target`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformRun {
    /// Injections spent.
    pub trials: u32,
    /// Injections that observed the metric's event.
    pub events: u64,
    /// Observed event proportion.
    pub proportion: f64,
    /// Achieved 95 % half-width.
    pub halfwidth: f64,
}

/// Campaign results with per-sample fault coordinates.
#[derive(Debug, Clone)]
pub struct DetailedReport {
    samples: Vec<(FaultSpec, Outcome)>,
    perf: CampaignPerf,
    recovery: Option<RecoveryReport>,
    prune: Option<PruneReport>,
}

impl DetailedReport {
    /// All `(fault, outcome)` samples.
    pub fn samples(&self) -> &[(FaultSpec, Outcome)] {
        &self.samples
    }

    /// Performance accounting for the run that produced these samples.
    pub fn perf(&self) -> CampaignPerf {
        self.perf
    }

    /// Recovery accounting for this execution, present only when the
    /// campaign ran with [`RecoveryPolicy::Idempotent`].
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Convergence-pruning accounting for this execution, present only
    /// when the campaign ran with [`CampaignConfig::prune`] enabled.
    pub fn prune(&self) -> Option<&PruneReport> {
        self.prune.as_ref()
    }

    /// Collapses into a plain [`CampaignReport`].
    pub fn summary(&self) -> CampaignReport {
        let mut report = CampaignReport::from_outcomes(self.samples.iter().map(|(_, o)| *o));
        report.set_perf(self.perf);
        report
    }

    /// Empirical failure probability per instruction-word field kind: for
    /// each [`BitKind`], the fraction of strikes on bits of that kind that
    /// produced a failure ([`Outcome::is_failure`]). Under
    /// [`DetectionModel::None`] this is the statistical counterpart of
    /// `AvfAnalysis::avf_by_bit_kind`.
    pub fn failure_rate_by_bit_kind(&self) -> Vec<(BitKind, f64, u32)> {
        BitKind::ALL
            .iter()
            .map(|&kind| {
                let mut total = 0u32;
                let mut failures = 0u32;
                for (f, o) in &self.samples {
                    if bit_kind(f.bit as usize) == kind {
                        total += 1;
                        if o.is_failure() {
                            failures += 1;
                        }
                    }
                }
                let rate = if total == 0 {
                    0.0
                } else {
                    failures as f64 / total as f64
                };
                (kind, rate, total)
            })
            .collect()
    }

    /// Empirical failure probability by queue-slot quarter (0 = slots
    /// 0–15, … for a 64-entry queue): do low slots (filled first) carry
    /// more risk?
    pub fn failure_rate_by_slot_quarter(&self, iq_entries: usize) -> [f64; 4] {
        let mut totals = [0u32; 4];
        let mut fails = [0u32; 4];
        let quarter = (iq_entries / 4).max(1);
        for (f, o) in &self.samples {
            let q = (f.slot / quarter).min(3);
            totals[q] += 1;
            if o.is_failure() {
                fails[q] += 1;
            }
        }
        let mut out = [0.0; 4];
        for q in 0..4 {
            if totals[q] > 0 {
                out[q] = fails[q] as f64 / totals[q] as f64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_pipeline::{EccReadOutcome, PiScope, TrackingConfig};

    fn quick_campaign(detection: DetectionModel, injections: u32) -> CampaignReport {
        let spec = WorkloadSpec::quick("campaign-test", 21);
        let config = CampaignConfig {
            injections,
            seed: 99,
            detection,
            threads: 2,
            ..CampaignConfig::default()
        };
        Campaign::prepare(&spec, config).unwrap().run()
    }

    #[test]
    fn unprotected_campaign_yields_benign_and_sdc_only() {
        let report = quick_campaign(DetectionModel::None, 60);
        assert_eq!(report.total(), 60);
        assert_eq!(report.count(Outcome::FalseDue), 0, "nothing to detect");
        assert_eq!(report.count(Outcome::TrueDue), 0);
        assert!(report.count(Outcome::Benign) > 0);
    }

    #[test]
    fn parity_campaign_yields_due_not_sdc() {
        let report = quick_campaign(DetectionModel::Parity { tracking: None }, 60);
        assert_eq!(
            report.count(Outcome::Sdc),
            0,
            "parity converts SDC into DUE"
        );
        assert!(
            report.count(Outcome::FalseDue) + report.count(Outcome::TrueDue) > 0,
            "some strikes must be detected"
        );
    }

    #[test]
    fn tracking_campaign_suppresses_some_errors() {
        let tracking = TrackingConfig {
            scope: PiScope::StoreCommit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        };
        let with = quick_campaign(
            DetectionModel::Parity {
                tracking: Some(tracking),
            },
            80,
        );
        let without = quick_campaign(DetectionModel::Parity { tracking: None }, 80);
        let due_with = with.count(Outcome::FalseDue) + with.count(Outcome::TrueDue);
        let due_without = without.count(Outcome::FalseDue) + without.count(Outcome::TrueDue);
        assert!(
            due_with < due_without,
            "tracking must reduce DUE events: {due_with} vs {due_without}"
        );
        assert!(with.count(Outcome::SuppressedSafe) > 0);
    }

    #[test]
    fn double_bit_faults_defeat_single_parity_but_not_interleaving() {
        let spec = WorkloadSpec::quick("multibit", 31);
        let run = |detection, double_bit| {
            Campaign::prepare(
                &spec,
                CampaignConfig {
                    injections: 80,
                    seed: 5,
                    detection,
                    double_bit,
                    threads: 2,
                    ..CampaignConfig::default()
                },
            )
            .unwrap()
            .run()
        };
        // Single-bit faults: parity converts everything detected to DUE.
        let single = run(DetectionModel::Parity { tracking: None }, false);
        assert_eq!(single.count(Outcome::Sdc), 0);
        // Adjacent double-bit faults: plain parity is blind to them, so
        // silent corruption reappears...
        let double = run(DetectionModel::Parity { tracking: None }, true);
        assert!(
            double.count(Outcome::Sdc) > 0,
            "even flips must escape one parity bit"
        );
        assert_eq!(
            double.count(Outcome::FalseDue) + double.count(Outcome::TrueDue),
            0
        );
        // ...and two interleaved parity domains catch them again (the
        // paper's physical-interleaving defence).
        let interleaved = run(
            DetectionModel::InterleavedParity {
                domains: 2,
                tracking: None,
            },
            true,
        );
        assert_eq!(interleaved.count(Outcome::Sdc), 0);
        assert!(
            interleaved.count(Outcome::FalseDue) + interleaved.count(Outcome::TrueDue) > 0
        );
    }

    #[test]
    fn scrubbing_restores_fail_stop_under_temporal_doubles() {
        const FAULTS: u32 = 400;
        let spec = WorkloadSpec::quick("scrub", 77);
        // Counts (SDC, DUE) over two strikes 30 cycles apart on each
        // seeded coordinate: the second lands only if the struck entry is
        // still resident, and a scrub in between repairs the first.
        let run = |scrub_period: u64| {
            let pipeline = PipelineConfig {
                scrub_period,
                ..PipelineConfig::default()
            };
            let c = Campaign::prepare(
                &spec,
                CampaignConfig {
                    seed: 9,
                    detection: DetectionModel::Parity { tracking: None },
                    threads: 2,
                    pipeline,
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
            let faults: Vec<FaultSpec> = (0..FAULTS)
                .map(|i| {
                    let f = c.fault_for(i);
                    FaultSpec::temporal_double(f.cycle, f.slot, f.bit, 30)
                })
                .collect();
            let report = c.inject_batch(&faults);
            let count = |want: &[Outcome]| {
                report
                    .samples()
                    .iter()
                    .filter(|(_, o)| want.contains(o))
                    .count()
            };
            (
                count(&[Outcome::Sdc, Outcome::Hang]),
                count(&[Outcome::FalseDue, Outcome::TrueDue]),
            )
        };
        let (sdc_unscrubbed, due_unscrubbed) = run(0);
        let (sdc_scrubbed, due_scrubbed) = run(8);
        // Without scrubbing some accumulated doubles slip through parity;
        // with an 8-cycle scrub the window is too small.
        assert!(
            sdc_scrubbed < sdc_unscrubbed,
            "scrubbing must cut silent corruption: {sdc_scrubbed} vs {sdc_unscrubbed}"
        );
        assert!(
            due_scrubbed > due_unscrubbed,
            "scrubbing converts escapes into detected errors: {due_scrubbed} vs {due_unscrubbed}"
        );
    }

    /// `replay` must resume from the last checkpoint at or before the
    /// corrupted index and judge only the output after it; checked on both
    /// sides of every checkpoint boundary against the replay from program
    /// start.
    #[test]
    fn functional_replay_resumes_from_the_right_checkpoint() {
        let spec = WorkloadSpec::quick("replay-ckpt", 19);
        let c = Campaign::prepare(&spec, CampaignConfig::default()).unwrap();
        let len = c.golden().len() as u64;
        assert!(
            c.arch_checkpoints.len() > 16,
            "{}",
            c.arch_checkpoints.len()
        );
        let mut differ = 0;
        for ckpt in &c.arch_checkpoints {
            let at = ckpt.index();
            for idx in [at.saturating_sub(1), at, at + 1]
                .into_iter()
                .filter(|&i| i < len)
            {
                for flip in [1, 1 << 20, u64::MAX] {
                    let word = encode(&c.golden().entries()[idx as usize].instr) ^ flip;
                    let want = c.replay_from_start(idx, word);
                    assert_eq!(c.replay(idx, word).0, want, "index {idx}, word {word:#x}");
                    differ += usize::from(want != Replay::Identical);
                }
            }
        }
        assert!(differ > 0, "no corruption reached the output");
    }

    /// One golden run serves every detection model: planned on it, each
    /// model's samples and performance accounting equal a from-scratch
    /// campaign's under that model, with pruning off and on. Checkpoints
    /// only move cycles between skipped and simulated (and, pruned, into
    /// the cycles an idle strike saves), so their total is compared. The
    /// models cover parity domains, π tracking and a Commit-scope PET
    /// buffer, whose fault-free log a window restore starts empty.
    #[test]
    fn one_golden_run_serves_every_detection_model() {
        let spec = WorkloadSpec::quick("one-golden", 21);
        let tracking = |scope, pet_entries| {
            Some(TrackingConfig {
                scope,
                anti_pi: true,
                pet_entries,
                mem_granule: 8,
            })
        };
        let models = [
            DetectionModel::None,
            DetectionModel::Parity { tracking: None },
            DetectionModel::Parity {
                tracking: tracking(PiScope::StoreCommit, None),
            },
            DetectionModel::InterleavedParity {
                domains: 4,
                tracking: None,
            },
            DetectionModel::Parity {
                tracking: tracking(PiScope::Commit, Some(512)),
            },
        ];
        for prune in [false, true] {
            let config = |detection| CampaignConfig {
                injections: 40,
                seed: 3,
                detection,
                threads: 2,
                prune,
                ..CampaignConfig::default()
            };
            let golden =
                Arc::new(GoldenRun::prepare(&spec, &config(DetectionModel::None)).unwrap());
            for detection in models {
                let shared = Campaign::on(Arc::clone(&golden), config(detection)).run_detailed();
                let scratch = Campaign::prepare(
                    &spec,
                    CampaignConfig {
                        checkpoints: false,
                        ..config(detection)
                    },
                )
                .unwrap()
                .run_detailed();
                let at = format!("{detection:?}, prune {prune}");
                assert_eq!(shared.samples(), scratch.samples(), "{at}");
                let counts = |r: &DetailedReport| {
                    let perf = r.perf();
                    let saved = r.prune().map_or(0, |p| p.cycles_saved);
                    let stops = r.prune().map(|p| (p.idle_skips, p.fp_stops));
                    let cycles = perf.cycles_skipped + perf.cycles_simulated + saved;
                    (
                        perf.injections,
                        perf.replays,
                        perf.replay_fast_path,
                        cycles,
                        stops,
                    )
                };
                assert_eq!(counts(&shared), counts(&scratch), "{at}");
            }
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let spec = WorkloadSpec::quick("det-test", 5);
        let config = CampaignConfig {
            injections: 10,
            seed: 7,
            detection: DetectionModel::None,
            threads: 1,
            ..CampaignConfig::default()
        };
        let c = Campaign::prepare(&spec, config).unwrap();
        assert_eq!(c.run_detailed().samples(), c.run_detailed().samples());
    }

    #[test]
    fn checkpointing_does_not_change_outcomes() {
        let spec = WorkloadSpec::quick("ckpt-unit", 13);
        let base = CampaignConfig {
            injections: 30,
            seed: 11,
            detection: DetectionModel::Parity { tracking: None },
            threads: 2,
            ..CampaignConfig::default()
        };
        let scratch = Campaign::prepare(
            &spec,
            CampaignConfig {
                checkpoints: false,
                ..base.clone()
            },
        )
        .unwrap();
        let ckpt = Campaign::prepare(&spec, base).unwrap();
        assert_eq!(ckpt.checkpoint_interval(), (ckpt.baseline_cycles() / 64).max(1));
        assert!(ckpt.checkpoints() > 0);
        assert_eq!(scratch.checkpoints(), 0);
        let scratch_report = scratch.run();
        let ckpt_report = ckpt.run();
        assert_eq!(scratch_report, ckpt_report);
        assert_eq!(scratch_report.perf().cycles_skipped, 0);
        assert!(ckpt_report.perf().cycles_skipped > 0);
    }

    #[test]
    fn zero_latency_recovery_converts_every_due() {
        let spec = WorkloadSpec::quick("recovery-zero", 17);
        let base = CampaignConfig {
            injections: 120,
            seed: 23,
            detection: DetectionModel::Parity { tracking: None },
            threads: 2,
            ..CampaignConfig::default()
        };
        let golden = Arc::new(GoldenRun::prepare(&spec, &base).unwrap());
        let legacy = Campaign::on(Arc::clone(&golden), base.clone()).run();
        let recovering = Campaign::on(
            golden,
            CampaignConfig {
                detect_latency: Some(LatencyDistribution::Fixed(0)),
                recovery: RecoveryPolicy::Idempotent,
                ..base
            },
        );
        let detailed = recovering.run_detailed();
        let report = detailed.summary();
        let baseline_due = legacy.count(Outcome::FalseDue) + legacy.count(Outcome::TrueDue);
        assert!(baseline_due > 0, "campaign must detect something");
        assert_eq!(
            report.count(Outcome::Recovered),
            baseline_due,
            "a zero-latency signal always lands in the fault's own region"
        );
        assert_eq!(report.count(Outcome::FalseDue), 0);
        assert_eq!(report.count(Outcome::TrueDue), 0);
        let rec = detailed.recovery().expect("recovery stanza present");
        assert_eq!(rec.recovered, baseline_due);
        assert_eq!(rec.fallback_due, 0);
        assert!(rec.regions > 0);
        assert!(rec.mean_region_len > 0.0);
    }

    #[test]
    fn recovered_plus_fallback_equals_baseline_due_at_any_latency() {
        let spec = WorkloadSpec::quick("recovery-consv", 41);
        let base = CampaignConfig {
            injections: 150,
            seed: 31,
            detection: DetectionModel::Parity { tracking: None },
            threads: 2,
            ..CampaignConfig::default()
        };
        let golden = Arc::new(GoldenRun::prepare(&spec, &base).unwrap());
        let legacy = Campaign::on(Arc::clone(&golden), base.clone()).run();
        let baseline_due = legacy.count(Outcome::FalseDue) + legacy.count(Outcome::TrueDue);
        for latency in [LatencyDistribution::Fixed(40), LatencyDistribution::Geometric { mean: 25.0 }] {
            let detailed = Campaign::on(
                Arc::clone(&golden),
                CampaignConfig {
                    detect_latency: Some(latency),
                    recovery: RecoveryPolicy::Idempotent,
                    ..base.clone()
                },
            )
            .run_detailed();
            let report = detailed.summary();
            let due = report.count(Outcome::FalseDue) + report.count(Outcome::TrueDue);
            assert_eq!(
                report.count(Outcome::Recovered) + due,
                baseline_due,
                "recovery only reroutes detected faults, it never invents or loses them"
            );
            let rec = detailed.recovery().unwrap();
            assert_eq!(rec.recovered, report.count(Outcome::Recovered));
            assert_eq!(rec.fallback_due, due);
        }
    }

    #[test]
    fn recovery_decisions_are_monotone_in_fixed_latency() {
        let spec = WorkloadSpec::quick("recovery-mono", 9);
        let config = |latency: u64| CampaignConfig {
            injections: 60,
            seed: 13,
            detection: DetectionModel::Parity { tracking: None },
            detect_latency: Some(LatencyDistribution::Fixed(latency)),
            recovery: RecoveryPolicy::Idempotent,
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = Arc::new(GoldenRun::prepare(&spec, &config(0)).unwrap());
        let ladder: Vec<Campaign> = [0u64, 10, 40, 160]
            .iter()
            .map(|&l| Campaign::on(Arc::clone(&golden), config(l)))
            .collect();
        let mut saw_recovered = false;
        let mut saw_transition = false;
        for idx in 0..4096u64 {
            // Walk the golden trace positions as synthetic correct-path
            // detections at an arbitrary strike coordinate.
            if idx >= ladder[0].golden().len() as u64 {
                break;
            }
            let fault = ladder[0].fault_for((idx % 60) as u32);
            let occupant = Occupant::CorrectPath { trace_idx: idx };
            let mut prev_recovered = true;
            let mut prev_charge = 0u64;
            for c in &ladder {
                let d = c.recovery_decision(&fault, occupant).unwrap();
                if d.recovered {
                    assert!(
                        prev_recovered,
                        "once the signal escapes the region, longer latencies cannot re-enter it"
                    );
                    assert!(
                        d.reexec_instructions >= prev_charge,
                        "re-execution charge grows with latency"
                    );
                    prev_charge = d.reexec_instructions;
                    saw_recovered = true;
                } else if prev_recovered {
                    saw_transition = true;
                }
                prev_recovered = d.recovered;
            }
        }
        assert!(saw_recovered, "some positions must recover");
        assert!(saw_transition, "some positions must fall back at high latency");
    }

    #[test]
    fn pruned_campaign_matches_legacy_verdicts() {
        let spec = WorkloadSpec::quick("prune-eq", 21);
        let tracking = TrackingConfig {
            scope: PiScope::StoreCommit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        };
        let base = CampaignConfig {
            injections: 60,
            seed: 99,
            detection: DetectionModel::Parity {
                tracking: Some(tracking),
            },
            threads: 2,
            ..CampaignConfig::default()
        };
        let legacy = Campaign::prepare(&spec, base.clone()).unwrap().run_detailed();
        let pruned = Campaign::prepare(
            &spec,
            CampaignConfig {
                prune: true,
                ..base
            },
        )
        .unwrap()
        .run_detailed();
        assert_eq!(legacy.samples(), pruned.samples(), "verdicts must be identical");
        assert!(legacy.prune().is_none(), "no pruning stanza without --prune");
        let report = pruned.prune().expect("pruned run reports accounting");
        assert_eq!(report.injections, 60);
        assert!(report.idle_skips > 0, "random strikes hit idle coordinates");
        assert!(
            report.stop_fraction() > 0.0,
            "some replays must stop before their natural end"
        );
    }

    /// Both executors charge each fault its checkpoint-window prefix as
    /// skipped, so `cycles_skipped` agrees; the pruned path simulates no
    /// more than the legacy one (idle strikes simulate nothing, gate stops
    /// end early), and its tail savings live in the prune report only.
    #[test]
    fn pruned_accounting_charges_the_window_prefix_as_skipped() {
        let spec = WorkloadSpec::quick("prune-perf", 21);
        let tracking = TrackingConfig {
            scope: PiScope::StoreCommit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        };
        // The charge rule must not depend on the pipeline configuration,
        // so scrubbing runs too.
        for scrub_period in [0, 8] {
            let base = CampaignConfig {
                injections: 60,
                seed: 17,
                detection: DetectionModel::Parity {
                    tracking: Some(tracking),
                },
                pipeline: PipelineConfig {
                    scrub_period,
                    ..PipelineConfig::default()
                },
                threads: 2,
                ..CampaignConfig::default()
            };
            let legacy = Campaign::prepare(&spec, base.clone()).unwrap().run().perf();
            let pruned = Campaign::prepare(
                &spec,
                CampaignConfig {
                    prune: true,
                    ..base
                },
            )
            .unwrap()
            .run_detailed();
            let perf = pruned.perf();
            let report = pruned.prune().expect("pruned run reports accounting");
            assert!(report.idle_skips > 0 && report.fp_stops > 0, "{report:?}");
            assert_eq!(perf.cycles_skipped, legacy.cycles_skipped);
            assert!(perf.cycles_simulated <= legacy.cycles_simulated);
            assert_eq!(perf.cycles_simulated, report.replay_cycles);
        }
    }

    /// With pruning off, the executor charges exactly what one full replay
    /// per fault costs: its window prefix as skipped and the rest of that
    /// replay as simulated. No idle shortcut and no gate stop may shave
    /// a cycle off.
    #[test]
    fn unpruned_charges_equal_one_full_replay_per_fault() {
        let spec = WorkloadSpec::quick("charges", 21);
        let tracking = TrackingConfig {
            scope: PiScope::StoreCommit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        };
        let c = Campaign::prepare(
            &spec,
            CampaignConfig {
                injections: 60,
                seed: 17,
                detection: DetectionModel::Parity {
                    tracking: Some(tracking),
                },
                threads: 2,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        let (mut skipped, mut simulated) = (0, 0);
        for i in 0..60 {
            let fault = c.fault_for(i);
            let window = c.snapshots.partition_point(|s| s.cycle() <= fault.cycle);
            let from = window.checked_sub(1).map_or(0, |w| c.snapshots[w].cycle().as_u64());
            skipped += from;
            simulated += c.run_from_scratch(fault).cycles - from;
        }
        let perf = c.run().perf();
        assert_eq!(perf.cycles_skipped, skipped);
        assert_eq!(perf.cycles_simulated, simulated);
    }

    #[test]
    fn pruned_run_matches_across_checkpoint_geometries() {
        let spec = WorkloadSpec::quick("prune-ckpt", 13);
        let base = CampaignConfig {
            injections: 30,
            seed: 11,
            detection: DetectionModel::Parity { tracking: None },
            threads: 2,
            prune: true,
            ..CampaignConfig::default()
        };
        let scratch = Campaign::prepare(
            &spec,
            CampaignConfig {
                checkpoints: false,
                ..base.clone()
            },
        )
        .unwrap()
        .run();
        let ckpt = Campaign::prepare(&spec, base).unwrap().run();
        assert_eq!(scratch, ckpt);
    }

    /// A caller-chosen batch resolves every fault exactly as a one-fault
    /// batch and a from-scratch campaign do, and its charges are the sums
    /// of the one-fault charges: window grouping, chunking, forks versus
    /// the consumed base and worker threads never move a verdict or a
    /// counter.
    #[test]
    fn batching_never_changes_a_verdict_or_a_charge() {
        let spec = WorkloadSpec::quick("batch-eq", 21);
        let tracking = TrackingConfig {
            scope: PiScope::StoreCommit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        };
        let config = |threads, prune, checkpoints| CampaignConfig {
            injections: 0,
            seed: 17,
            detection: DetectionModel::Parity {
                tracking: Some(tracking),
            },
            threads,
            prune,
            checkpoints,
            ..CampaignConfig::default()
        };
        // One checkpointed golden run per pruning setting, shared by every
        // thread count.
        let golden = [false, true]
            .map(|prune| Arc::new(GoldenRun::prepare(&spec, &config(1, prune, true)).unwrap()));
        let golden = |prune: bool| Arc::clone(&golden[usize::from(prune)]);
        // The batch is chosen on a pruned campaign, whose strike index
        // knows which coordinates are idle.
        let probe = Campaign::on(golden(true), config(1, true, true));
        let iq = probe.iq_entries();
        // Seeded strikes in reverse, so the strike cycles are unsorted,
        // plus one duplicate.
        let mut faults: Vec<FaultSpec> = (0..12).rev().map(|i| probe.fault_for(i)).collect();
        faults.push(faults[5]);
        // Strikes in the cycle-0 snapshot's window, which is the
        // from-scratch window when checkpoints are off.
        let early = probe.checkpoint_interval() / 2;
        faults
            .extend((0..3).map(|k| FaultSpec::single(Cycle::new(early), k * 5 % iq, 7 * k as u32)));
        // Idle strikes, which pruning's shortcut resolves unsimulated.
        let idle: Vec<FaultSpec> = (0..probe.baseline_cycles())
            .step_by(97)
            .flat_map(|cycle| {
                (0..iq).map(move |slot| FaultSpec::single(Cycle::new(cycle), slot, 3))
            })
            .filter(|f| probe.idle_strike(f))
            .take(3)
            .collect();
        assert_eq!(idle.len(), 3, "the quick run leaves idle coordinates");
        faults.extend(idle);
        // A double-bit fault and an ECC-pattern fault of each kind.
        let at = faults[2];
        faults.push(FaultSpec::adjacent_double(at.cycle, at.slot, at.bit));
        for (k, mask, read) in [
            (1, 0b111 << 8, EccReadOutcome::Signal),
            (2, 0b11 << 40, EccReadOutcome::Silent),
        ] {
            faults.push(FaultSpec::with_pattern(
                at.cycle,
                (at.slot + k) % iq,
                mask,
                Some(read),
            ));
        }
        // A crowd in one window: more faults than one chunk holds at any
        // thread count (the batch splits windows into len / (threads × 4)).
        let crowd = faults[0];
        faults.extend(
            (1..10).map(|k| FaultSpec::single(crowd.cycle, (crowd.slot + k) % iq, 4 * k as u32)),
        );
        assert!(10 > faults.len() / 4);

        for prune in [false, true] {
            // Without checkpoints the whole batch is one from-scratch
            // window, split into chunks across the workers.
            let scratch = Campaign::prepare(&spec, config(4, prune, false))
                .unwrap()
                .inject_batch(&faults);
            let one = Campaign::on(golden(prune), config(1, prune, true));
            let singles: Vec<DetailedReport> =
                faults.iter().map(|&f| one.inject_batch(&[f])).collect();
            let sum = |field: fn(&CampaignPerf) -> u64| -> u64 {
                singles.iter().map(|r| field(&r.perf())).sum()
            };
            let prune_sum = singles.iter().filter_map(|r| r.prune()).fold(
                prune.then_some(PruneReport::default()),
                |acc, p| {
                    acc.map(|a| PruneReport {
                        injections: a.injections + p.injections,
                        idle_skips: a.idle_skips + p.idle_skips,
                        fp_stops: a.fp_stops + p.fp_stops,
                        replay_cycles: a.replay_cycles + p.replay_cycles,
                        cycles_saved: a.cycles_saved + p.cycles_saved,
                    })
                },
            );
            if let Some(p) = prune_sum {
                assert!(p.idle_skips >= 3 && p.fp_stops > 0, "{p:?}");
            }
            let outcomes: Vec<(FaultSpec, Outcome)> =
                singles.iter().map(|r| r.samples()[0]).collect();
            assert_eq!(&outcomes[..], scratch.samples(), "prune {prune}");
            for threads in [1, 4] {
                let batch =
                    Campaign::on(golden(prune), config(threads, prune, true)).inject_batch(&faults);
                let at = format!("threads {threads}, prune {prune}");
                assert_eq!(batch.samples(), &outcomes[..], "{at}");
                let perf = batch.perf();
                assert_eq!(perf.injections, faults.len() as u32, "{at}");
                assert_eq!(perf.cycles_skipped, sum(|p| p.cycles_skipped), "{at}");
                assert_eq!(perf.cycles_simulated, sum(|p| p.cycles_simulated), "{at}");
                assert_eq!(perf.replays, sum(|p| p.replays), "{at}");
                assert_eq!(perf.replay_fast_path, sum(|p| p.replay_fast_path), "{at}");
                assert_eq!(batch.prune().copied(), prune_sum, "{at}");
            }
        }
    }

    #[test]
    fn detailed_run_is_parallel_yet_ordered() {
        let spec = WorkloadSpec::quick("ordered", 3);
        let config = CampaignConfig {
            injections: 24,
            seed: 4,
            detection: DetectionModel::None,
            threads: 4,
            ..CampaignConfig::default()
        };
        let c = Campaign::prepare(&spec, config).unwrap();
        let detailed = c.run_detailed();
        let faults: Vec<FaultSpec> = detailed.samples().iter().map(|(f, _)| *f).collect();
        let expected: Vec<FaultSpec> = (0..24).map(|i| c.fault_for(i)).collect();
        assert_eq!(faults, expected, "samples must be in injection order");
        assert_eq!(detailed.summary(), c.run());
    }
}
