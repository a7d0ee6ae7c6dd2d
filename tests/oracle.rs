//! End-to-end tests of the differential oracle: a clean engine fuzzes
//! clean, a seeded divergence is caught and shrunk to a minimal
//! reproducer, and the committed regression corpus replays through the
//! full check on every `cargo test`.

use std::path::PathBuf;

use ses_core::{check_program, run_fuzz, DivergenceKind, FuzzConfig, OracleConfig};
use ses_oracle::{shrink, Mutation};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn fuzz_campaign_on_clean_engine_finds_nothing() {
    let config = FuzzConfig {
        seed: 1,
        iters: 60,
        injection_every: 30,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&config);
    assert!(
        report.clean(),
        "clean engine must not diverge: {:?}",
        report
            .failures
            .iter()
            .map(|f| &f.divergence)
            .collect::<Vec<_>>()
    );
    assert_eq!(report.iterations, 60);
    assert_eq!(report.injection_checks, 2);
}

#[test]
fn fuzz_campaigns_are_deterministic() {
    let config = FuzzConfig {
        seed: 7,
        iters: 25,
        injection_every: 0,
        ..FuzzConfig::default()
    };
    let a = run_fuzz(&config);
    let b = run_fuzz(&config);
    assert_eq!(a.total_committed, b.total_committed);
    assert_eq!(a.iterations, b.iterations);
}

#[test]
fn seeded_divergence_is_caught_and_shrunk_to_a_minimal_reproducer() {
    // Corrupt the pipeline-side commit stream through the test-only
    // mutation hook: drop the 4th committed instruction, as a retirement
    // bug would. The oracle must catch it on the first program and the
    // shrinker must reduce the reproducer to a handful of instructions.
    let config = FuzzConfig {
        seed: 1,
        iters: 10,
        mutation: Some(Mutation::DropCommit(3)),
        max_failures: 1,
        injection_every: 0,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&config);
    assert_eq!(report.failures.len(), 1, "the very first program must fail");
    let f = &report.failures[0];
    assert_eq!(f.iteration, 0);
    assert_eq!(f.divergence.kind, DivergenceKind::CommitCount);

    let shrunk = f.shrunk.as_ref().expect("shrinking was enabled");
    assert!(
        shrunk.len() <= 20,
        "reproducer must be minimal, got {} instructions",
        shrunk.len()
    );
    assert!(shrunk.len() < f.program.len());

    // The emitted reproducer is valid assembly and still reproduces.
    let asm = f.reproducer_asm();
    let reparsed = ses_isa::assemble(&asm).expect("reproducer must reassemble");
    assert_eq!(&reparsed, shrunk);
    let again = ses_oracle::check_program_mutated(
        &reparsed,
        &OracleConfig::default(),
        Some(Mutation::DropCommit(3)),
    )
    .expect_err("reproducer must still fail");
    assert_eq!(again.kind, DivergenceKind::CommitCount);
}

#[test]
fn region_fuzz_catches_a_seeded_live_in_clobber_and_shrinks_it() {
    // Satellite: the region-boundary-aware fuzz mode (`--mutate regions`
    // with `--region-fault ignore-acc` on the CLI). Ignoring the
    // accumulator in live-in tracking merges its self-increment clobber
    // boundaries, so some region re-executes a committed overwrite; the
    // replay fixed-point check must catch it and ddmin must shrink the
    // reproducer to a handful of instructions.
    use ses_core::RegionFault;
    use ses_types::Reg;
    let config = FuzzConfig {
        seed: 77,
        iters: 10,
        program_spec: ses_workloads::FuzzProgramSpec::mem_heavy(),
        oracle: OracleConfig {
            region_fault: Some(RegionFault::IgnoreReg(Reg::new(2))),
            ..OracleConfig::default()
        },
        max_failures: 1,
        injection_every: 0,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&config);
    assert_eq!(report.failures.len(), 1, "the seeded bug must be caught");
    let f = &report.failures[0];
    assert_eq!(f.divergence.kind, DivergenceKind::RecoveryDivergence);

    let shrunk = f.shrunk.as_ref().expect("shrinking was enabled");
    assert!(
        shrunk.len() <= 20,
        "reproducer must be minimal, got {} instructions",
        shrunk.len()
    );
    // The reproducer reassembles and still fails the seeded-fault oracle,
    // but is clean under the correct region analysis.
    let reparsed = ses_isa::assemble(&f.reproducer_asm()).expect("reproducer must reassemble");
    let again = check_program(&reparsed, &config.oracle)
        .expect_err("reproducer must still fail under the seeded fault");
    assert_eq!(again.kind, DivergenceKind::RecoveryDivergence);
    check_program(&reparsed, &OracleConfig::default())
        .expect("the un-faulted region analysis must pass the reproducer");
}

#[test]
fn shrinker_preserves_the_divergence_kind() {
    // A predication divergence must not shrink into a commit-count one.
    let program = ses_workloads::fuzz_program(9);
    let config = OracleConfig::default();
    let mutation = Some(Mutation::FlipPredication(5));
    let original = ses_oracle::check_program_mutated(&program, &config, mutation)
        .expect_err("mutation must fail");
    assert_eq!(original.kind, DivergenceKind::PredicationMismatch);
    let out = shrink(&program, &config, mutation, original.kind);
    let d = ses_oracle::check_program_mutated(&out.program, &config, mutation).unwrap_err();
    assert_eq!(d.kind, DivergenceKind::PredicationMismatch);
    assert!(out.program.len() <= program.len());
}

#[test]
fn regression_corpus_replays_clean() {
    // Every corpus entry flows through the full oracle stack, which now
    // includes the idempotent-region partition/boundary/replay check —
    // the `mem-*` family exists precisely to make that stage work hard
    // (store-dense, alias-heavy programs with short regions).
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 18,
        "corpus must hold at least 18 programs, found {}",
        entries.len()
    );
    let store_dense = entries
        .iter()
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("mem-"))
        })
        .count();
    assert!(
        store_dense >= 6,
        "corpus must hold at least 6 store-dense programs, found {store_dense}"
    );
    let config = OracleConfig::default();
    for path in &entries {
        let text = std::fs::read_to_string(path).unwrap();
        let program =
            ses_isa::assemble(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let stats = check_program(&program, &config)
            .unwrap_or_else(|d| panic!("{} diverged: {d}", path.display()));
        assert!(stats.committed > 0);
        // Corpus files are canonical: disassembly round-trips them.
        let back = ses_isa::assemble(&ses_isa::disassemble(&program)).unwrap();
        assert_eq!(program, back, "{} must round-trip", path.display());
    }
}
