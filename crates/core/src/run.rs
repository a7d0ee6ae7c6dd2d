//! Single-workload runs and their summaries.

use ses_arch::{DynInstr, Emulator, ExecutionTrace};
use ses_avf::{AvfAnalysis, DeadMap, ResidencySpans, SpanSet, StateFractions, Technique};
use ses_isa::Program;
use ses_pipeline::{Pipeline, PipelineConfig, PipelineResult, Residency};
use ses_types::{Avf, Ipc, SesError};
use ses_workloads::{synthesize, Category, WorkloadSpec};

/// False-DUE bit-cycles covered by each tracking technique (eagerly
/// evaluated so summaries stay small).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TechniqueCoverage {
    /// Total false-DUE bit-cycles (the denominator).
    pub total_false: u64,
    /// π carried to the commit point (wrong path + false predication +
    /// squash discard).
    pub pi_commit: u64,
    /// The anti-π bit (neutral non-opcode).
    pub anti_pi: u64,
    /// A 512-entry PET buffer.
    pub pet512: u64,
    /// π bit per register (all FDD-via-register).
    pub pi_register: u64,
    /// π to the store-commit point (adds TDD-via-register).
    pub pi_store: u64,
    /// π through the memory system (adds dead-via-memory; 100 %).
    pub pi_memory: u64,
}

/// Compact per-benchmark result row (what the paper's figures plot).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Workload name.
    pub name: String,
    /// INT or FP.
    pub category: Category,
    /// Committed instructions.
    pub committed: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: Ipc,
    /// SDC AVF of the unprotected queue.
    pub sdc_avf: Avf,
    /// DUE AVF of the parity-protected queue (no tracking).
    pub due_avf: Avf,
    /// The false-DUE component.
    pub false_due_avf: Avf,
    /// Queue state fractions (idle / unread / un-ACE / ACE).
    pub states: StateFractions,
    /// Per-technique false-DUE coverage.
    pub coverage: TechniqueCoverage,
    /// Squash actions triggered.
    pub squashes: u64,
    /// Branch misprediction ratio.
    pub mispredict_ratio: f64,
    /// Wrong-path instructions fetched.
    pub wrong_path_fetched: u64,
}

impl BenchSummary {
    /// Residual false-DUE AVF after π-at-commit + anti-π + the given
    /// dead-coverage amount (a [`TechniqueCoverage`] field).
    pub fn residual_false_due(&self, dead_covered: u64, total_bit_cycles: u64) -> Avf {
        let covered = self.coverage.pi_commit + self.coverage.anti_pi + dead_covered;
        Avf::from_bit_cycles(
            self.coverage.total_false.saturating_sub(covered),
            total_bit_cycles,
        )
    }

    /// Total simulated bit-cycles (for AVF reconstruction).
    pub fn total_bit_cycles(&self, iq_entries: u64) -> u64 {
        self.cycles * iq_entries * 64
    }
}

/// Everything produced by one workload run.
pub struct WorkloadRun {
    /// The workload specification.
    pub spec: WorkloadSpec,
    /// The synthesised program image.
    pub program: Program,
    /// The golden functional trace.
    pub trace: ExecutionTrace,
    /// Dead-instruction classification of the trace.
    pub dead: DeadMap,
    /// The timing result (includes the residency log).
    pub result: PipelineResult,
    /// The canonical interval representation of the residency log: the
    /// one span derivation `avf` was aggregated from, kept for callers
    /// that want per-residency segments without deriving them again.
    pub spans: SpanSet,
    /// The ACE/AVF analysis (aggregated from `spans` by span
    /// arithmetic).
    pub avf: AvfAnalysis,
}

impl WorkloadRun {
    /// Takes the run apart, returning its trace, residency-log and span
    /// buffers for the next [`run_workload_in`].
    pub fn into_buffers(self) -> RunBuffers {
        RunBuffers {
            trace: self.trace.into_entries(),
            residencies: self.result.residencies,
            spans: self.spans.into_vec(),
        }
    }

    /// Builds the compact summary row.
    pub fn summary(&self) -> BenchSummary {
        let coverage = TechniqueCoverage {
            total_false: self
                .avf
                .false_due_avf()
                .fraction()
                .mul_add(self.avf.total_bit_cycles() as f64, 0.0) as u64,
            pi_commit: self.avf.covered_by(Technique::PiAtCommit, &self.dead),
            anti_pi: self.avf.covered_by(Technique::AntiPi, &self.dead),
            pet512: self.avf.covered_by(Technique::Pet(512), &self.dead),
            pi_register: self.avf.covered_by(Technique::PiRegister, &self.dead),
            pi_store: self.avf.covered_by(Technique::PiStoreCommit, &self.dead),
            pi_memory: self.avf.covered_by(Technique::PiMemory, &self.dead),
        };
        BenchSummary {
            name: self.spec.name.clone(),
            category: self.spec.category,
            committed: self.result.committed,
            cycles: self.result.cycles,
            ipc: self.result.ipc(),
            sdc_avf: self.avf.sdc_avf(),
            due_avf: self.avf.due_avf(),
            false_due_avf: self.avf.false_due_avf(),
            states: self.avf.state_fractions(),
            coverage,
            squashes: self.result.squashes,
            mispredict_ratio: self.result.mispredict_ratio(),
            wrong_path_fetched: self.result.wrong_path_fetched,
        }
    }
}

/// The three largest buffers of a [`WorkloadRun`], one record per dynamic
/// instruction or per residency: a sweep worker hands them from one run to
/// the next ([`WorkloadRun::into_buffers`]) instead of freeing them and
/// faulting fresh pages in for every workload. Their contents never carry
/// over; only their allocations do.
#[derive(Debug, Default)]
pub struct RunBuffers {
    trace: Vec<DynInstr>,
    residencies: Vec<Residency>,
    spans: Vec<ResidencySpans>,
}

/// Synthesises, functionally executes, times, and analyses one workload.
///
/// # Errors
///
/// Propagates functional-emulation failures; returns a budget error if the
/// golden run does not halt within 4× the target instruction count.
pub fn run_workload(
    spec: &WorkloadSpec,
    pipeline: &PipelineConfig,
) -> Result<WorkloadRun, SesError> {
    run_workload_in(spec, pipeline, RunBuffers::default())
}

/// [`run_workload`] recording its trace, residency log and span set into
/// recycled `buffers`. The run is the one [`run_workload`] returns,
/// whatever the buffers held.
///
/// # Errors
///
/// As [`run_workload`].
pub fn run_workload_in(
    spec: &WorkloadSpec,
    pipeline: &PipelineConfig,
    buffers: RunBuffers,
) -> Result<WorkloadRun, SesError> {
    let program = synthesize(spec);
    let budget = spec.target_dynamic * 4;
    let trace = Emulator::new(&program).run_into(budget, buffers.trace)?;
    if !trace.halted() {
        return Err(SesError::BudgetExceeded {
            resource: "instructions",
            limit: budget,
        });
    }
    let dead = DeadMap::analyze(&trace);
    let result = Pipeline::new(pipeline.clone()).run_into(&program, &trace, buffers.residencies);
    let spans = SpanSet::derive_into(&result, &dead, buffers.spans);
    let avf = AvfAnalysis::from_spans(&spans);
    Ok(WorkloadRun {
        spec: spec.clone(),
        program,
        trace,
        dead,
        result,
        spans,
        avf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_mem::Level;

    #[test]
    fn run_and_summarise() {
        let spec = WorkloadSpec::quick("core-test", 2);
        let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
        let s = run.summary();
        assert_eq!(s.committed, run.trace.len() as u64);
        assert!(s.ipc.value() > 0.0);
        assert!(s.due_avf.fraction() >= s.sdc_avf.fraction());
        assert!(s.coverage.pi_memory >= s.coverage.pi_store);
        assert!(s.coverage.pi_store >= s.coverage.pi_register);
        assert!(s.coverage.pi_register >= s.coverage.pet512);
        // Full coverage suppresses all dead false DUE; residual after
        // memory scope is only what pi_commit/anti_pi/memory don't span
        // (nothing).
        let resid = s.residual_false_due(s.coverage.pi_memory, run.avf.total_bit_cycles());
        assert!(resid.fraction() <= s.false_due_avf.fraction());
    }

    /// A run on buffers recycled from a larger one equals a fresh run in
    /// every buffer and every derived figure (a missed `clear` would leave
    /// the larger run's records behind), and reuses the allocations.
    #[test]
    fn recycled_buffers_give_the_fresh_run() {
        let cfg = PipelineConfig::default();
        let big = WorkloadSpec {
            target_dynamic: 40_000,
            ..WorkloadSpec::quick("reuse-big", 5)
        };
        let small = WorkloadSpec::quick("reuse-small", 6);
        let buffers = run_workload(&big, &cfg).unwrap().into_buffers();
        let at = (
            buffers.trace.as_ptr(),
            buffers.residencies.as_ptr(),
            buffers.spans.as_ptr(),
        );
        let fresh = run_workload(&small, &cfg).unwrap();
        assert!(fresh.trace.len() < buffers.trace.len());
        assert!(fresh.result.residencies.len() < buffers.residencies.len());
        let reused = run_workload_in(&small, &cfg, buffers).unwrap();
        assert_eq!(reused.trace, fresh.trace);
        assert_eq!(reused.result, fresh.result);
        assert_eq!(reused.spans.residencies(), fresh.spans.residencies());
        assert_eq!(reused.spans.cycles(), fresh.spans.cycles());
        assert_eq!(reused.avf.decomposition(), fresh.avf.decomposition());
        assert_eq!(reused.summary(), fresh.summary());
        assert_eq!(
            (
                reused.trace.entries().as_ptr(),
                reused.result.residencies.as_ptr(),
                reused.spans.residencies().as_ptr(),
            ),
            at,
            "recycled buffers keep their allocations"
        );
    }

    #[test]
    fn squash_config_reduces_exposure() {
        let spec = ses_workloads::spec_by_name("twolf").unwrap();
        let base = run_workload(&spec, &PipelineConfig::default()).unwrap();
        let squash =
            run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1)).unwrap();
        assert!(squash.result.squashes > 0);
        assert!(
            squash.avf.sdc_avf().fraction() < base.avf.sdc_avf().fraction(),
            "squash must reduce SDC AVF"
        );
        // MITF criterion (paper §3.2): AVF falls more than IPC.
        let avf_drop = squash.avf.sdc_avf().relative_to(base.avf.sdc_avf());
        let ipc_drop = squash.result.ipc().relative_to(base.result.ipc());
        assert!(avf_drop < ipc_drop, "relative AVF loss exceeds IPC loss");
    }
}
