//! Paired machine-configuration comparisons (the shape of Figure 4 and of
//! the MITF argument in §3.2).

use ses_pipeline::PipelineConfig;
use ses_types::SesError;

use crate::run::BenchSummary;
use crate::suite_runner::run_suite;

/// One benchmark under two machine configurations.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Baseline summary.
    pub base: BenchSummary,
    /// Variant summary.
    pub variant: BenchSummary,
}

impl Comparison {
    /// Relative IPC (variant / base).
    pub fn rel_ipc(&self) -> f64 {
        self.variant.ipc.value() / self.base.ipc.value().max(1e-12)
    }

    /// Relative SDC AVF (variant / base).
    pub fn rel_sdc(&self) -> f64 {
        self.variant.sdc_avf.fraction() / self.base.sdc_avf.fraction().max(1e-12)
    }

    /// Relative DUE AVF (variant / base).
    pub fn rel_due(&self) -> f64 {
        self.variant.due_avf.fraction() / self.base.due_avf.fraction().max(1e-12)
    }

    /// Relative SDC MITF: `(IPC/AVF)_variant / (IPC/AVF)_base`. Values
    /// above 1 mean the variant completes more work between errors — the
    /// paper's §3.2 criterion for a worthwhile technique.
    pub fn sdc_mitf_gain(&self) -> f64 {
        self.rel_ipc() / self.rel_sdc().max(1e-12)
    }

    /// Relative DUE MITF.
    pub fn due_mitf_gain(&self) -> f64 {
        self.rel_ipc() / self.rel_due().max(1e-12)
    }

    /// Whether the variant is MITF-profitable on the SDC axis.
    pub fn is_profitable(&self) -> bool {
        self.sdc_mitf_gain() > 1.0
    }
}

/// Runs the full suite under both configurations and pairs the rows.
///
/// # Errors
///
/// Returns the first workload failure from either sweep.
pub fn compare_suites(
    base: &PipelineConfig,
    variant: &PipelineConfig,
) -> Result<Vec<Comparison>, SesError> {
    let b = run_suite(base)?;
    let v = run_suite(variant)?;
    Ok(b.into_iter()
        .zip(v)
        .map(|(base, variant)| {
            debug_assert_eq!(base.name, variant.name);
            Comparison { base, variant }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_workload;
    use ses_mem::Level;
    use ses_workloads::spec_by_name;

    #[test]
    fn squash_is_mitf_profitable_on_a_missy_benchmark() {
        let spec = spec_by_name("lucas").expect("lucas in suite");
        let base = run_workload(&spec, &PipelineConfig::default())
            .unwrap()
            .summary();
        let variant = run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1))
            .unwrap()
            .summary();
        let c = Comparison { base, variant };
        assert!(c.rel_sdc() < 1.0);
        assert!(c.rel_ipc() > 0.9);
        assert!(c.is_profitable(), "gain {:.2}", c.sdc_mitf_gain());
        assert!(c.sdc_mitf_gain() > c.rel_ipc(), "AVF does the work");
        assert!(c.due_mitf_gain() > 1.0);
    }
}
