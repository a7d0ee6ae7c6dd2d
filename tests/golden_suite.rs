//! Golden-file regression suite: the telemetry artifacts for the default
//! machine configuration are pinned byte-for-byte under `tests/golden/`.
//! Any change to workload synthesis, the emulator, the timing model, or
//! the ACE analysis shows up here as a diff.
//!
//! Regenerating after an *intentional* behaviour change:
//!
//! ```text
//! cargo run --release -- suite --json tests/golden/suite_default.json
//! cargo run --release -- bench twolf --json tests/golden/run_twolf.json
//! ```
//!
//! The campaign goldens regenerate from the command lines in `ECC_GRID`,
//! `ECC_CAMPAIGN`, `RECOVERY` and `PRUNE` below, with
//! `--json tests/golden/<file>`.

use std::path::Path;

use ses_core::job::{JobOutput, JobSpec, SharedRuns};
use ses_core::telemetry::{run_artifact, suite_artifact};
use ses_core::{run_suite, run_workload, spec_by_name, Level, PipelineConfig, TelemetryLevel};

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

#[test]
fn suite_artifact_matches_golden() {
    let cfg = PipelineConfig::default();
    let rows = run_suite(&cfg).expect("suite run");
    let artifact = suite_artifact(&cfg, &rows, &[], TelemetryLevel::Summary).render();
    assert_eq!(
        artifact,
        golden("suite_default.json"),
        "26-workload suite drifted from tests/golden/suite_default.json; \
         if intentional, regenerate with \
         `cargo run --release -- suite --json tests/golden/suite_default.json`"
    );
}

#[test]
fn single_run_artifact_matches_golden() {
    let spec = spec_by_name("twolf").expect("twolf in suite");
    let cfg = PipelineConfig::default();
    let run = run_workload(&spec, &cfg).expect("twolf run");
    let artifact = run_artifact(&cfg, &run, None, TelemetryLevel::Summary).render();
    assert_eq!(
        artifact,
        golden("run_twolf.json"),
        "twolf artifact drifted from tests/golden/run_twolf.json; \
         if intentional, regenerate with \
         `cargo run --release -- bench twolf --json tests/golden/run_twolf.json`"
    );
}

#[test]
fn perturbed_config_is_caught() {
    // A golden comparison that cannot fail is worthless: prove that a
    // behaviour-changing configuration (L1-miss squashing) actually
    // perturbs the pinned bytes, in the results and not just in the
    // machine-description stanza.
    let spec = spec_by_name("twolf").expect("twolf in suite");
    let cfg = PipelineConfig::default().with_squash(Level::L1);
    let run = run_workload(&spec, &cfg).expect("perturbed twolf run");
    let artifact = run_artifact(&cfg, &run, None, TelemetryLevel::Summary).render();
    assert_ne!(
        artifact,
        golden("run_twolf.json"),
        "squash-enabled run must not reproduce the default-config artifact"
    );
    assert!(run.result.squashes > 0, "perturbation must actually engage");
    let golden_text = golden("run_twolf.json");
    let cycles_line = format!("\"cycles\": {},", run.result.cycles);
    assert!(
        !golden_text.contains(&cycles_line),
        "perturbed run must change measured results, not just the config stanza"
    );
}

/// The command lines that produced the campaign goldens. Each runs here
/// through the same `JobSpec::from_args` the CLI uses (`inject` is the
/// campaign job), so the "regenerate with" hint is exactly what the test
/// checks.
const ECC_GRID: &str = "ecc-grid cc gzip";
const ECC_CAMPAIGN: &str = "campaign crafty --ecc sec-ded --injections 400";
const RECOVERY: &str =
    "campaign crafty --detect-latency fixed:8 --recovery idempotent --injections 150";
const PRUNE: &str = "inject crafty --injections 300 --model tracking --prune";

/// Runs one CLI command line as its job.
fn run_job(cmdline: &str) -> JobOutput {
    let mut argv = cmdline.split_whitespace();
    let kind = match argv.next().expect("a command") {
        "inject" => "campaign",
        other => other,
    };
    let args: Vec<&str> = argv.collect();
    JobSpec::from_args(kind, &args)
        .and_then(|job| job.run(&SharedRuns::default()))
        .unwrap_or_else(|e| panic!("`{cmdline}` failed: {e}"))
}

/// The summary artifact `ser-repro <cmdline> --json` writes.
fn job_artifact(cmdline: &str) -> String {
    run_job(cmdline).artifact(TelemetryLevel::Summary).render()
}

fn assert_golden(cmdline: &str, file: &str) {
    assert_eq!(
        job_artifact(cmdline),
        golden(file),
        "artifact drifted from tests/golden/{file}; if intentional, regenerate with \
         `cargo run --release -- {cmdline} --json tests/golden/{file}`"
    );
}

/// Satellite: the FIT/MTTF grid over (technology node × environment ×
/// ECC scheme) for two workloads is pinned byte-for-byte. Any drift in
/// the code constructions, the residual enumeration, the read-probability
/// probe, or the FIT → MTTF conversion shows up here.
#[test]
fn ecc_grid_artifact_matches_golden() {
    assert_golden(ECC_GRID, "campaign_ecc.json");
}

/// The grid comparison must be falsifiable in its *results*, not just its
/// config stanza: perturbing the probe budget moves the measured read
/// probability, and perturbing the strike distribution moves the analytic
/// residual rates — both must change the pinned bytes.
#[test]
fn perturbed_ecc_grid_is_caught() {
    use ses_core::telemetry::ecc_grid_artifact;
    use ses_core::PatternDistribution;
    let golden_text = golden("campaign_ecc.json");

    assert_ne!(
        job_artifact(&format!("{ECC_GRID} --probes 100")),
        golden_text,
        "a different probe budget must move the measured read probability"
    );

    let JobOutput::EccGrid { workloads, .. } = run_job(ECC_GRID) else {
        panic!("ecc-grid runs into grid rows");
    };
    let single_only = ecc_grid_artifact(
        &PatternDistribution::single_only(),
        &workloads,
        TelemetryLevel::Summary,
    )
    .render();
    assert_ne!(
        single_only, golden_text,
        "a single-bit-only distribution must move the analytic residual rates"
    );
    // The multi-bit distribution is what gives SEC-DED a non-zero silent
    // residual; prove the golden actually encodes that physics.
    assert!(
        golden_text.contains("\"read_probability\": 0.655,"),
        "golden must pin the measured cc read probability"
    );
}

/// The multi-bit ECC campaign artifact is pinned byte-for-byte: strike
/// classes, the decoder's corrected/detected/silent dispositions, and the
/// outcomes of the detected and silent strikes the pipeline classifies.
#[test]
fn ecc_campaign_artifact_matches_golden() {
    assert_golden(ECC_CAMPAIGN, "campaign_ecc_crafty.json");
}

/// The ECC campaign pin must be falsifiable in its results: a different
/// strike sequence must move the bytes, and the golden must carry both
/// injected dispositions (detected and silent strikes run the pipeline).
#[test]
fn perturbed_ecc_campaign_is_caught() {
    let golden_text = golden("campaign_ecc_crafty.json");
    assert!(
        golden_text.contains("\"detected\": 56,") && golden_text.contains("\"silent\": 2\n"),
        "golden must pin both injected dispositions"
    );
    assert_ne!(
        job_artifact(&format!("{ECC_CAMPAIGN} --seed 2027")),
        golden_text,
        "a different strike sequence must move the ECC campaign artifact"
    );
}

/// Satellite: the recovery campaign artifact — outcome counts with the
/// `recovered` class, the recovery stanza (region census, recovered vs
/// machine-check-fallback split, re-execution charge) — is pinned
/// byte-for-byte under an 8-cycle fixed detection latency.
#[test]
fn recovery_artifact_matches_golden() {
    assert_golden(RECOVERY, "campaign_recovery.json");
}

/// The pin must be falsifiable in both knobs that define it: a different
/// fault sequence (seed) and a different detection latency must each move
/// the pinned bytes, and the golden must actually carry the stanza.
#[test]
fn perturbed_recovery_artifact_is_caught() {
    let golden_text = golden("campaign_recovery.json");
    assert!(
        golden_text.contains("\"recovery\""),
        "golden must carry the recovery stanza"
    );
    assert_ne!(
        job_artifact(&format!("{RECOVERY} --seed 2027")),
        golden_text,
        "a different fault sequence must move the recovery artifact"
    );
    assert_ne!(
        job_artifact(&RECOVERY.replace("fixed:8", "fixed:0")),
        golden_text,
        "zero latency recovers every detection and must move the artifact"
    );
}

/// The convergence-pruned campaign artifact, pruning stanza included, is
/// pinned byte-for-byte.
#[test]
fn prune_artifact_matches_golden() {
    assert!(golden("campaign_prune.json").contains("\"pruning\""));
    assert_golden(PRUNE, "campaign_prune.json");
}
