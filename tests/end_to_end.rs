//! End-to-end integration: workloads through emulation, timing, AVF
//! analysis, and the reliability model, checking the paper's structural
//! identities at every joint.

use ses_core::{
    run_workload, spec_by_name, Ipc, Level, PipelineConfig, ReliabilityModel, Technique,
};

#[test]
fn suite_benchmark_full_stack() {
    let spec = spec_by_name("gap").expect("gap in suite");
    let run = run_workload(&spec, &PipelineConfig::default()).expect("run");

    // The timing model commits exactly the functional trace.
    assert_eq!(run.result.committed, run.trace.len() as u64);
    assert!(!run.result.budget_exhausted);
    assert!(run.result.cycles > run.result.committed / 6, "6-wide bound");

    // AVF identities (paper §2.2).
    let avf = &run.avf;
    assert!(avf.due_avf().fraction() >= avf.sdc_avf().fraction());
    let recomposed = avf.true_due_avf().fraction() + avf.false_due_avf().fraction();
    assert!((avf.due_avf().fraction() - recomposed).abs() < 1e-9);

    // State fractions partition the queue.
    let s = avf.state_fractions();
    assert!((s.idle + s.unread + s.unace + s.ace - 1.0).abs() < 1e-9);

    // Residency accounting: every valid bit-cycle is classified.
    let occupied_bits: u64 = run
        .result
        .residencies
        .iter()
        .map(|r| r.valid_cycles() * 64)
        .sum();
    let classified = ((s.unread + s.unace + s.ace) * avf.total_bit_cycles() as f64).round() as u64;
    assert_eq!(occupied_bits, classified, "no bit-cycle lost");

    // Reliability model plumbs through.
    let point = ReliabilityModel::default().sdc(run.result.ipc(), avf.sdc_avf());
    assert!(point.mttf.years() > 0.0);
    assert!(point.mitf.instructions() > 0.0);
}

#[test]
fn adding_parity_more_than_matters() {
    // Paper §4.1: adding error detection converts SDC to DUE and *raises*
    // the total error contribution (false DUE on top of true DUE).
    let spec = spec_by_name("mesa").expect("mesa in suite");
    let run = run_workload(&spec, &PipelineConfig::default()).expect("run");
    let sdc = run.avf.sdc_avf().fraction();
    let due = run.avf.due_avf().fraction();
    assert!(due > sdc, "parity must increase the total error rate");
    assert!(
        run.avf.false_due_avf().fraction() > 0.1 * sdc,
        "false DUE must be a material fraction"
    );
}

#[test]
fn combined_techniques_reproduce_headline_result() {
    // The paper's abstract: squashing + tracking cut the DUE AVF of a
    // parity-protected queue substantially for ~2% IPC.
    let spec = spec_by_name("twolf").expect("twolf in suite");
    let base = run_workload(&spec, &PipelineConfig::default()).expect("base");
    let sq =
        run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1)).expect("squash");

    let due_base = base.avf.due_avf();
    let due_combined = sq
        .avf
        .due_avf_with_tracking(Some(Technique::PiStoreCommit), &sq.dead);
    let rel_due = due_combined.fraction() / due_base.fraction();
    let rel_ipc = sq.result.ipc().value() / base.result.ipc().value();
    assert!(
        rel_due < 0.7,
        "combined DUE reduction must be substantial, got {rel_due:.2}"
    );
    assert!(rel_ipc > 0.9, "IPC cost must stay small, got {rel_ipc:.3}");
}

#[test]
fn mitf_figure_of_merit_improves_under_squash() {
    let spec = spec_by_name("equake").expect("equake in suite");
    let base = run_workload(&spec, &PipelineConfig::default()).expect("base");
    let sq =
        run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1)).expect("squash");
    let fom = |ipc: Ipc, avf: ses_core::Avf| ipc.value() / avf.fraction();
    assert!(
        fom(sq.result.ipc(), sq.avf.sdc_avf()) > fom(base.result.ipc(), base.avf.sdc_avf()),
        "squash must raise IPC/AVF (MITF) on a miss-heavy benchmark"
    );
}

/// Full 26-benchmark sweep (the Table-1 baseline column). Ignored by
/// default because it takes ~a minute; run with `cargo test --release --
/// --ignored` or via the bench targets, which exercise it anyway.
#[test]
#[ignore = "full-suite sweep; run explicitly or via cargo bench"]
fn full_suite_baseline_smoke() {
    let rows = ses_core::run_suite(&PipelineConfig::default()).expect("suite");
    assert_eq!(rows.len(), 26);
    for r in &rows {
        assert!(r.ipc.value() > 0.1, "{} IPC too low", r.name);
        assert!(r.due_avf.fraction() >= r.sdc_avf.fraction(), "{}", r.name);
        assert!(r.committed > 100_000, "{} too short", r.name);
    }
}
