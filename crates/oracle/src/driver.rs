//! The seeded fuzz driver.

use ses_isa::{disassemble, Program};
use ses_workloads::{fuzz_program_with, FuzzProgramSpec};

use crate::check::{check_program_mutated, Divergence, InjectionCheck, Mutation, OracleConfig};
use crate::shrink::shrink;

/// SplitMix64: decorrelates per-iteration program seeds from the single
/// campaign seed, so `--seed 1` and `--seed 2` explore disjoint program
/// populations.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fuzz-campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed; every program seed derives from it.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub iters: u64,
    /// Shrink failures to minimal reproducers.
    pub shrink: bool,
    /// Shape of the generated programs.
    pub program_spec: FuzzProgramSpec,
    /// Oracle configuration (its `injection` field is ignored; use
    /// `injection_every` / `injection` here instead).
    pub oracle: OracleConfig,
    /// Run the statistical injection cross-check every N-th iteration
    /// (0 disables it). Injection campaigns dominate runtime, so they are
    /// sampled rather than run per program.
    pub injection_every: u64,
    /// Parameters for the sampled injection cross-checks.
    pub injection: InjectionCheck,
    /// Test-only commit-stream corruption, applied to every iteration.
    pub mutation: Option<Mutation>,
    /// Stop after this many failures (0 = collect all).
    pub max_failures: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            iters: 500,
            shrink: true,
            program_spec: FuzzProgramSpec::default(),
            oracle: OracleConfig::default(),
            injection_every: 16,
            injection: InjectionCheck::default(),
            mutation: None,
            max_failures: 5,
        }
    }
}

/// One failing program, with its minimal reproducer when shrinking ran.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Iteration index within the campaign.
    pub iteration: u64,
    /// The derived program seed (reproduce with
    /// [`ses_workloads::fuzz_program_with`]).
    pub program_seed: u64,
    /// What the oracle reported.
    pub divergence: Divergence,
    /// The original failing program.
    pub program: Program,
    /// The shrunk reproducer, when shrinking was enabled.
    pub shrunk: Option<Program>,
}

impl FuzzFailure {
    /// The program to commit as a regression reproducer: the shrunk form
    /// when available, the original otherwise.
    pub fn reproducer(&self) -> &Program {
        self.shrunk.as_ref().unwrap_or(&self.program)
    }

    /// Renders the reproducer as assembly with a provenance header, ready
    /// to be written to a `.s` file and replayed by the corpus tests.
    pub fn reproducer_asm(&self) -> String {
        format!(
            "; fuzz reproducer: iteration {} (program seed {:#x})\n; divergence: {}\n{}",
            self.iteration,
            self.program_seed,
            self.divergence,
            disassemble(self.reproducer())
        )
    }
}

/// Campaign summary.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Iterations actually executed (may stop early at `max_failures`).
    pub iterations: u64,
    /// Iterations that also ran the injection cross-check.
    pub injection_checks: u64,
    /// Total committed instructions across all clean checks.
    pub total_committed: u64,
    /// Every detected failure, in iteration order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Whether the campaign found no divergences.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs a fuzz campaign: generate, check, shrink. Deterministic for a
/// given configuration.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        iterations: 0,
        injection_checks: 0,
        total_committed: 0,
        failures: Vec::new(),
    };
    for i in 0..config.iters {
        report.iterations = i + 1;
        let program_seed = splitmix64(config.seed.wrapping_add(i));
        let program = fuzz_program_with(program_seed, &config.program_spec);
        let mut oracle = config.oracle.clone();
        oracle.injection = (config.injection_every > 0 && i % config.injection_every == 0)
            .then_some(config.injection);
        if oracle.injection.is_some() {
            report.injection_checks += 1;
        }
        match check_program_mutated(&program, &oracle, config.mutation) {
            Ok(stats) => report.total_committed += stats.committed,
            Err(divergence) => {
                let shrunk = config.shrink.then(|| {
                    // Shrink without the (slow) injection stage unless the
                    // divergence came from it.
                    let mut cfg = config.oracle.clone();
                    if divergence.kind == crate::check::DivergenceKind::InjectionEstimate {
                        cfg.injection = Some(config.injection);
                    }
                    shrink(&program, &cfg, config.mutation, divergence.kind).program
                });
                report.failures.push(FuzzFailure {
                    iteration: i,
                    program_seed,
                    divergence,
                    program,
                    shrunk,
                });
                if config.max_failures > 0 && report.failures.len() >= config.max_failures {
                    break;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> FuzzConfig {
        FuzzConfig {
            iters: 20,
            injection_every: 0,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn clean_engine_yields_clean_report() {
        let report = run_fuzz(&quick_config());
        assert!(report.clean(), "failures: {:?}", report.failures);
        assert_eq!(report.iterations, 20);
        assert!(report.total_committed > 0);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_fuzz(&quick_config());
        let b = run_fuzz(&quick_config());
        assert_eq!(a.total_committed, b.total_committed);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn seeded_bug_is_caught_and_reported() {
        let config = FuzzConfig {
            iters: 3,
            mutation: Some(Mutation::FlipPredication(6)),
            max_failures: 1,
            ..quick_config()
        };
        let report = run_fuzz(&config);
        assert!(!report.clean());
        let f = &report.failures[0];
        assert!(f.shrunk.is_some());
        let asm = f.reproducer_asm();
        assert!(asm.contains("predication-mismatch"), "{asm}");
        // The reproducer round-trips through the assembler.
        ses_isa::assemble(&asm).expect("reproducer must reassemble");
    }
}
