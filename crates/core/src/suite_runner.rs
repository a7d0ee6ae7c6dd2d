//! Whole-suite sweeps.

use ses_pipeline::PipelineConfig;
use ses_types::{parallel_map, SesError};
use ses_workloads::suite;

use crate::run::{run_workload, BenchSummary, WorkloadRun};

/// Runs the full 26-benchmark suite under one machine configuration,
/// in parallel, returning compact summaries in suite order.
///
/// # Errors
///
/// Returns the first workload failure in suite order.
pub fn run_suite(pipeline: &PipelineConfig) -> Result<Vec<BenchSummary>, SesError> {
    run_suite_with(pipeline, 0, |_, run| run.summary())
}

/// [`run_suite`] with an explicit worker count and a per-workload
/// projection.
///
/// `threads == 0` means "one per available core". The projection maps
/// each finished [`WorkloadRun`] (plus its suite index) to whatever the
/// caller wants to keep — a summary row, a telemetry record, or both —
/// and results come back in suite order regardless of which worker
/// finished first, so any thread count yields identical output.
///
/// # Errors
///
/// Returns the first workload failure in suite order, whichever worker
/// met a failure first.
pub fn run_suite_with<T: Send>(
    pipeline: &PipelineConfig,
    threads: usize,
    project: impl Fn(usize, WorkloadRun) -> T + Sync,
) -> Result<Vec<T>, SesError> {
    let specs = suite();
    parallel_map(specs.len(), threads, |i| {
        run_workload(&specs[i], pipeline).map(|run| project(i, run))
    })
    .into_iter()
    .collect()
}

/// Runs every suite workload sequentially, handing the *full* artifacts
/// (trace, dead map, residency log, AVF analysis) to the callback one at a
/// time so peak memory stays bounded.
///
/// # Errors
///
/// Returns the first workload failure encountered.
pub fn for_each_workload(
    pipeline: &PipelineConfig,
    mut f: impl FnMut(WorkloadRun),
) -> Result<(), SesError> {
    for spec in suite() {
        f(run_workload(&spec, pipeline)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Suite-wide runs are exercised by the bench harness and integration
    // tests; here we only check the plumbing on a tiny subset via
    // for_each_workload's building block.
    #[test]
    fn run_workload_plumbs_through() {
        let spec = ses_workloads::WorkloadSpec::quick("plumb", 9);
        let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
        assert!(run.result.cycles > 0);
        assert_eq!(run.dead.len(), run.trace.len());
    }
}
