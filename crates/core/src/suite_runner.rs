//! Whole-suite sweeps.

use ses_pipeline::PipelineConfig;
use ses_types::{parallel_map_with, SesError};
use ses_workloads::suite;

use crate::run::{run_workload_in, BenchSummary, RunBuffers, WorkloadRun};

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
/// finished first, so any thread count yields identical output. Each
/// worker then hands the run's big buffers to its next workload
/// ([`RunBuffers`]), so the projection sees the run only by reference.
///
/// # Errors
///
/// Returns the first workload failure in suite order, whichever worker
/// met a failure first.
pub fn run_suite_with<T: Send>(
    pipeline: &PipelineConfig,
    threads: usize,
    project: impl Fn(usize, &WorkloadRun) -> T + Sync,
) -> Result<Vec<T>, SesError> {
    let specs = suite();
    parallel_map_with(specs.len(), threads, |buffers: &mut RunBuffers, i| {
        let run = run_workload_in(&specs[i], pipeline, std::mem::take(buffers))?;
        let row = project(i, &run);
        *buffers = run.into_buffers();
        Ok(row)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_workload;

    // Suite-wide runs are exercised by the paper harness and integration
    // tests; here we only check the plumbing of their building block on
    // one small workload.
    #[test]
    fn run_workload_plumbs_through() {
        let spec = ses_workloads::WorkloadSpec::quick("plumb", 9);
        let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
        assert!(run.result.cycles > 0);
        assert_eq!(run.dead.len(), run.trace.len());
    }
}
