//! The lockstep differential check.

use std::fmt;
use std::sync::Arc;

use ses_arch::{DynInstr, Emulator, ExecutionTrace, Stepper};
use ses_avf::{AvfAnalysis, DeadMap, RegionFault, RegionMap, SpanSet};
use ses_faults::{Campaign, CampaignConfig, GoldenRun};
use ses_isa::{Instruction, Program};
use ses_pipeline::{DetectionModel, Pipeline, PipelineConfig};
use ses_workloads::FuzzProgramSpec;

/// The ways the two models (or the layers above them) can disagree,
/// ordered roughly by where in the stack the check lives. Shrinking keys
/// on this: a candidate only counts as a reproduction if it fails with
/// the *same* kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The functional emulator itself faulted (bad fetch, stack misuse).
    EmulatorFault,
    /// The program did not reach `halt` within the dynamic budget.
    NoHalt,
    /// The timing run exhausted its cycle budget before draining.
    TimingBudget,
    /// Commit counts differ between trace and pipeline.
    CommitCount,
    /// Retired residencies do not cover the trace indices exactly once
    /// in order.
    StreamCoverage,
    /// A retired slot carried a different static instruction than the
    /// trace at the same index.
    InstrMismatch,
    /// The pipeline and emulator disagree on a guard outcome.
    PredicationMismatch,
    /// A committed trace record contradicts the ISA metadata.
    TraceRecord,
    /// A residency's span segments violate the interval invariants
    /// (out of order, overlapping, or not tiling the valid window).
    SpanGeometry,
    /// Bit-cycle accounting failed exact conservation.
    BitCycleConservation,
    /// DUE AVF is not SDC AVF + false-DUE AVF.
    DueDecomposition,
    /// Bit-state fractions do not sum to one.
    StateFractions,
    /// The idempotent-region analysis failed its correctness spine: the
    /// regions do not partition the trace, a boundary is unjustified, or a
    /// region's committed prefix did not re-execute byte-identically from
    /// the region-entry state (a non-idempotent region — recovery would
    /// silently corrupt state).
    RecoveryDivergence,
    /// The injection-estimated AVF fell outside the binomial confidence
    /// interval around the analytic AVF.
    InjectionEstimate,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::EmulatorFault => "emulator-fault",
            DivergenceKind::NoHalt => "no-halt",
            DivergenceKind::TimingBudget => "timing-budget",
            DivergenceKind::CommitCount => "commit-count",
            DivergenceKind::StreamCoverage => "stream-coverage",
            DivergenceKind::InstrMismatch => "instr-mismatch",
            DivergenceKind::PredicationMismatch => "predication-mismatch",
            DivergenceKind::TraceRecord => "trace-record",
            DivergenceKind::SpanGeometry => "span-geometry",
            DivergenceKind::BitCycleConservation => "bit-cycle-conservation",
            DivergenceKind::DueDecomposition => "due-decomposition",
            DivergenceKind::StateFractions => "state-fractions",
            DivergenceKind::RecoveryDivergence => "recovery-divergence",
            DivergenceKind::InjectionEstimate => "injection-estimate",
        };
        f.write_str(s)
    }
}

/// A single detected disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// What went wrong.
    pub kind: DivergenceKind,
    /// Trace index the disagreement anchors to, when it is per-instruction.
    pub trace_idx: Option<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl Divergence {
    fn new(kind: DivergenceKind, trace_idx: Option<u64>, detail: impl Into<String>) -> Self {
        Divergence {
            kind,
            trace_idx,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.trace_idx {
            Some(i) => write!(f, "{} at trace index {}: {}", self.kind, i, self.detail),
            None => write!(f, "{}: {}", self.kind, self.detail),
        }
    }
}

/// Optional statistical cross-check: inject `injections` faults and
/// require the estimated DUE AVF to land within the 95 % binomial
/// confidence interval (plus `slack`) of the analytic DUE AVF.
#[derive(Debug, Clone, Copy)]
pub struct InjectionCheck {
    /// Number of faults to inject.
    pub injections: u32,
    /// Campaign sampling seed.
    pub seed: u64,
    /// Absolute slack added on top of the confidence interval, absorbing
    /// the deliberate modelling simplifications listed in EXPERIMENTS.md.
    pub slack: f64,
}

impl Default for InjectionCheck {
    fn default() -> Self {
        InjectionCheck {
            injections: 60,
            seed: 0x0DD5,
            slack: 0.06,
        }
    }
}

/// Oracle parameters.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Dynamic-instruction budget for the functional run.
    pub dynamic_budget: u64,
    /// Timing-model configuration for the pipeline run.
    pub pipeline: PipelineConfig,
    /// When set, also run the statistical injection cross-check.
    pub injection: Option<InjectionCheck>,
    /// Test-only defect injected into the idempotent-region analysis (the
    /// region-layer analogue of [`Mutation`]), so tests can prove the
    /// re-execution check catches a live-in tracking bug and shrinks it.
    pub region_fault: Option<RegionFault>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            dynamic_budget: FuzzProgramSpec::default().dynamic_budget(),
            pipeline: PipelineConfig::default(),
            injection: None,
            region_fault: None,
        }
    }
}

/// Summary of a clean check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleStats {
    /// Committed instructions.
    pub committed: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Whether the injection cross-check ran.
    pub injected: bool,
}

/// Test-only corruption of the pipeline-side commit stream, applied
/// *after* reconstruction. Simulates a retirement bug without touching
/// the engine, so tests can demonstrate the oracle catching and shrinking
/// a real divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Silently lose the `n`-th committed instruction.
    DropCommit(usize),
    /// Flip the recorded guard outcome of the `n`-th committed instruction.
    FlipPredication(usize),
    /// Replace the `n`-th committed instruction with a `nop`, as if the
    /// wrong static image had been fetched.
    CorruptInstr(usize),
}

/// The pipeline-side view of one committed instruction.
struct CommitRecord {
    trace_idx: u64,
    instr: Instruction,
    falsely_predicated: bool,
}

/// Runs the full differential check on one program.
///
/// # Errors
///
/// Returns the first [`Divergence`] found, checked in stack order:
/// functional run, timing run, lockstep stream diff, trace-record
/// consistency, AVF invariants, then the optional injection estimate.
pub fn check_program(program: &Program, config: &OracleConfig) -> Result<OracleStats, Divergence> {
    check_program_mutated(program, config, None)
}

/// [`check_program`] with an optional test-only [`Mutation`] applied to
/// the reconstructed commit stream.
///
/// # Errors
///
/// As [`check_program`]; with a mutation, the corresponding divergence.
pub fn check_program_mutated(
    program: &Program,
    config: &OracleConfig,
    mutation: Option<Mutation>,
) -> Result<OracleStats, Divergence> {
    // 1. Architectural truth.
    let trace = Emulator::new(program)
        .run(config.dynamic_budget)
        .map_err(|e| Divergence::new(DivergenceKind::EmulatorFault, None, e.to_string()))?;
    if !trace.halted() {
        return Err(Divergence::new(
            DivergenceKind::NoHalt,
            None,
            format!(
                "no halt within {} dynamic instructions",
                config.dynamic_budget
            ),
        ));
    }

    // 2. Timing model.
    let result = Pipeline::new(config.pipeline.clone()).run(program, &trace);
    if result.budget_exhausted {
        return Err(Divergence::new(
            DivergenceKind::TimingBudget,
            None,
            "pipeline exhausted its cycle budget",
        ));
    }

    // 3. Reconstruct the committed stream as the timing model saw it.
    let mut stream: Vec<CommitRecord> = result
        .committed_stream()
        .iter()
        .map(|r| CommitRecord {
            trace_idx: r.trace_idx().expect("retired residencies are correct-path"),
            instr: r.instr,
            falsely_predicated: r.falsely_predicated,
        })
        .collect();
    apply_mutation(&mut stream, mutation);

    // 4. Lockstep diff against the trace.
    if result.committed != trace.len() as u64 || stream.len() != trace.len() {
        return Err(Divergence::new(
            DivergenceKind::CommitCount,
            None,
            format!(
                "trace committed {}, pipeline retired {} ({} in stream)",
                trace.len(),
                result.committed,
                stream.len()
            ),
        ));
    }
    for (i, (rec, entry)) in stream.iter().zip(trace.entries()).enumerate() {
        let i = i as u64;
        if rec.trace_idx != i {
            return Err(Divergence::new(
                DivergenceKind::StreamCoverage,
                Some(i),
                format!(
                    "expected trace index {i}, retired slot carries {}",
                    rec.trace_idx
                ),
            ));
        }
        if rec.instr != entry.instr {
            return Err(Divergence::new(
                DivergenceKind::InstrMismatch,
                Some(i),
                format!(
                    "pipeline retired `{}`, emulator committed `{}`",
                    rec.instr, entry.instr
                ),
            ));
        }
        if rec.falsely_predicated == entry.executed {
            return Err(Divergence::new(
                DivergenceKind::PredicationMismatch,
                Some(i),
                format!(
                    "pipeline saw guard {}, emulator executed = {}",
                    if rec.falsely_predicated {
                        "false"
                    } else {
                        "true"
                    },
                    entry.executed
                ),
            ));
        }
        entry
            .check_static_consistency()
            .map_err(|e| Divergence::new(DivergenceKind::TraceRecord, Some(i), e))?;
    }

    // 5. AVF-layer invariants. The span set is derived once, its interval
    // geometry validated, and the analysis aggregated from it — the same
    // path the suite runner takes.
    let dead = DeadMap::analyze(&trace);
    let spans = SpanSet::derive(&result, &dead);
    if let Err(e) = spans.check() {
        return Err(Divergence::new(DivergenceKind::SpanGeometry, None, e));
    }
    let avf = AvfAnalysis::from_spans(&spans);
    if !avf.decomposition().is_conserved() {
        let d = avf.decomposition();
        return Err(Divergence::new(
            DivergenceKind::BitCycleConservation,
            None,
            format!(
                "ace {} + unace {} + unread {} + idle {} != total {}",
                d.ace,
                d.unace_total(),
                d.unread,
                d.idle,
                d.total
            ),
        ));
    }
    let sdc = avf.sdc_avf().fraction();
    let false_due = avf.false_due_avf().fraction();
    let due = avf.due_avf().fraction();
    if (sdc + false_due - due).abs() > 1e-12 {
        return Err(Divergence::new(
            DivergenceKind::DueDecomposition,
            None,
            format!("DUE {due} != SDC {sdc} + false DUE {false_due}"),
        ));
    }
    let s = avf.state_fractions();
    if (s.idle + s.unread + s.unace + s.ace - 1.0).abs() > 1e-9 {
        return Err(Divergence::new(
            DivergenceKind::StateFractions,
            None,
            format!("fractions sum to {}", s.idle + s.unread + s.unace + s.ace),
        ));
    }

    // 6. Region layer: the recovery correctness spine. The partition and
    // boundary-justification invariants come first (cheap, structural);
    // then every region's committed prefix is re-executed from its entry
    // state and must reproduce the identical commit stream and land back
    // on the exact pre-signal machine state.
    let regions = RegionMap::analyze_with(&trace, config.region_fault);
    regions
        .check_partition()
        .map_err(|e| Divergence::new(DivergenceKind::RecoveryDivergence, None, e))?;
    regions
        .check_boundaries(&trace)
        .map_err(|e| Divergence::new(DivergenceKind::RecoveryDivergence, None, e))?;
    check_region_replay(program, &trace, &regions)?;

    // 7. Optional statistical cross-check.
    let mut injected = false;
    if let Some(ic) = config.injection {
        injected = true;
        let plan = CampaignConfig {
            injections: ic.injections,
            seed: ic.seed,
            // Parity makes every consumed strike a DUE, which is the
            // regime where the statistical estimate is an unbiased
            // sample of the analytic DUE AVF (see
            // tests/cross_validation.rs).
            detection: DetectionModel::Parity { tracking: None },
            pipeline: config.pipeline.clone(),
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = GoldenRun::prepare_program(program.clone(), config.dynamic_budget, &plan)
            .map_err(|e| {
                Divergence::new(
                    DivergenceKind::InjectionEstimate,
                    None,
                    format!("campaign preparation failed: {e}"),
                )
            })?;
        let report = Campaign::on(Arc::new(golden), plan).run();
        let est = report.due_avf_estimate();
        let tol = report.ci95(est) + ic.slack;
        if (est - due).abs() > tol {
            return Err(Divergence::new(
                DivergenceKind::InjectionEstimate,
                None,
                format!(
                    "injection DUE estimate {est:.4} vs analytic {due:.4} exceeds tolerance {tol:.4}"
                ),
            ));
        }
    }

    Ok(OracleStats {
        committed: result.committed,
        cycles: result.cycles,
        injected,
    })
}

/// Whether a re-executed dynamic record matches its golden counterpart.
/// `index` and `call_depth` are bookkeeping relative to the walk's origin,
/// not architectural effects, so they are excluded from the comparison.
fn dyn_matches(golden: &DynInstr, replayed: &DynInstr) -> bool {
    golden.pc == replayed.pc
        && golden.instr == replayed.instr
        && golden.executed == replayed.executed
        && golden.reg_written == replayed.reg_written
        && golden.pred_written == replayed.pred_written
        && golden.side_effect == replayed.side_effect
        && golden.taken == replayed.taken
        && golden.next_pc == replayed.next_pc
}

/// Lockstep re-execution of every region's maximal recovery window.
///
/// A walker steps the golden run; at each region's replay window
/// `[start, end − 1)` it captures the machine state at `end − 1` (the
/// latest point a deferred detection signal can land while the region is
/// still current — the trailing clobber at `end − 1` has not committed),
/// rewinds a second stepper to the region entry, and re-executes the
/// window. Recovery is sound iff the replay reproduces the identical
/// record stream and finishes on exactly the state it started from.
fn check_region_replay(
    program: &Program,
    trace: &ExecutionTrace,
    regions: &RegionMap,
) -> Result<(), Divergence> {
    let diverge = |idx: Option<u64>, detail: String| {
        Divergence::new(DivergenceKind::RecoveryDivergence, idx, detail)
    };
    let entries = trace.entries();
    let mut walker = Stepper::new(program);
    let mut cursor: u64 = 0;
    for region in regions.regions() {
        let (lo, hi) = region.replay_window();
        while cursor < hi {
            walker
                .step()
                .map_err(|e| diverge(Some(cursor), format!("golden walk faulted: {e}")))?
                .ok_or_else(|| diverge(Some(cursor), "golden walk halted early".into()))?;
            cursor += 1;
        }
        if hi > lo {
            let snap = walker.snapshot();
            let mut replay = Stepper::from_snapshot(program, snap.clone());
            replay.set_pc(entries[lo as usize].pc);
            for idx in lo..hi {
                let got = replay
                    .step()
                    .map_err(|e| diverge(Some(idx), format!("region re-execution faulted: {e}")))?
                    .ok_or_else(|| diverge(Some(idx), "region re-execution halted early".into()))?;
                let want = &entries[idx as usize];
                if !dyn_matches(want, &got) {
                    return Err(diverge(
                        Some(idx),
                        format!(
                            "region [{}, {}) is not idempotent: re-executed `{}` at pc {} \
                             (wrote {:?}/{:?}, mem {:?}), committed `{}` at pc {} \
                             (wrote {:?}/{:?}, mem {:?})",
                            region.start,
                            region.end,
                            got.instr,
                            got.pc,
                            got.reg_written,
                            got.pred_written,
                            got.mem_written(),
                            want.instr,
                            want.pc,
                            want.reg_written,
                            want.pred_written,
                            want.mem_written(),
                        ),
                    ));
                }
            }
            if !replay.snapshot().same_arch_state(&snap) {
                return Err(diverge(
                    Some(hi),
                    format!(
                        "region [{}, {}) re-execution did not restore the pre-signal \
                         machine state (registers, predicates, PC or memory differ)",
                        region.start, region.end
                    ),
                ));
            }
        }
        while cursor < region.end {
            walker
                .step()
                .map_err(|e| diverge(Some(cursor), format!("golden walk faulted: {e}")))?;
            cursor += 1;
        }
    }
    Ok(())
}

fn apply_mutation(stream: &mut Vec<CommitRecord>, mutation: Option<Mutation>) {
    match mutation {
        None => {}
        Some(Mutation::DropCommit(n)) if n < stream.len() => {
            stream.remove(n);
        }
        Some(Mutation::DropCommit(_)) => {}
        Some(Mutation::FlipPredication(n)) => {
            if let Some(rec) = stream.get_mut(n) {
                rec.falsely_predicated = !rec.falsely_predicated;
            }
        }
        Some(Mutation::CorruptInstr(n)) => {
            if let Some(rec) = stream.get_mut(n) {
                rec.instr = Instruction::nop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_workloads::{fuzz_program, synthesize, WorkloadSpec};

    #[test]
    fn clean_programs_pass() {
        for seed in 0..10u64 {
            let program = fuzz_program(seed);
            let stats = check_program(&program, &OracleConfig::default())
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert!(stats.committed > 0);
            assert!(!stats.injected);
        }
    }

    #[test]
    fn calibrated_workloads_pass_too() {
        let spec = WorkloadSpec::quick("oracle-smoke", 0x5EED);
        let program = synthesize(&spec);
        let config = OracleConfig {
            dynamic_budget: spec.target_dynamic * 6,
            ..OracleConfig::default()
        };
        check_program(&program, &config).unwrap();
    }

    #[test]
    fn mutations_are_caught_with_the_right_kind() {
        let program = fuzz_program(3);
        let config = OracleConfig::default();
        let cases = [
            (Mutation::DropCommit(4), DivergenceKind::CommitCount),
            (
                Mutation::FlipPredication(4),
                DivergenceKind::PredicationMismatch,
            ),
            (Mutation::CorruptInstr(0), DivergenceKind::InstrMismatch),
        ];
        for (mutation, expected) in cases {
            let d = check_program_mutated(&program, &config, Some(mutation))
                .expect_err("mutation must be detected");
            assert_eq!(d.kind, expected, "{mutation:?} -> {d}");
        }
    }

    #[test]
    fn seeded_region_fault_is_caught_as_recovery_divergence() {
        use ses_types::Reg;
        // Ignoring the accumulator in live-in tracking merges the
        // self-increment clobber boundaries, leaving committed overwrites
        // of region live-ins mid-region: re-execution must diverge.
        let config = OracleConfig {
            region_fault: Some(RegionFault::IgnoreReg(Reg::new(2))),
            ..OracleConfig::default()
        };
        let mut caught = 0;
        for seed in 0..10u64 {
            let program = ses_workloads::fuzz_program(seed);
            if let Err(d) = check_program(&program, &config) {
                assert_eq!(
                    d.kind,
                    DivergenceKind::RecoveryDivergence,
                    "seed {seed}: {d}"
                );
                caught += 1;
            }
        }
        assert!(
            caught >= 8,
            "the live-in-clobber bug must trip the re-execution check, caught {caught}/10"
        );
    }

    #[test]
    fn store_dense_programs_pass_the_region_check() {
        use ses_workloads::{fuzz_program_with, FuzzProgramSpec};
        let spec = FuzzProgramSpec::mem_heavy();
        let config = OracleConfig {
            dynamic_budget: spec.dynamic_budget(),
            ..OracleConfig::default()
        };
        for seed in 100..110u64 {
            let program = fuzz_program_with(seed, &spec);
            check_program(&program, &config).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn injection_cross_check_agrees() {
        let program = fuzz_program(1);
        let config = OracleConfig {
            injection: Some(InjectionCheck::default()),
            ..OracleConfig::default()
        };
        let stats = check_program(&program, &config).unwrap();
        assert!(stats.injected);
    }
}
