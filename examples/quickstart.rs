//! Quickstart: measure the soft-error vulnerability of an instruction
//! queue, then reduce it with the paper's two techniques.
//!
//! Run with `cargo run --release --example quickstart`.

use ses_core::{
    run_workload, Level, PipelineConfig, ReliabilityModel, Table, Technique, WorkloadSpec,
};

fn main() -> Result<(), ses_core::SesError> {
    // 1. A workload: 20k dynamic instructions of synthetic integer code.
    let spec = WorkloadSpec::quick("quickstart", 42);

    // 2. The baseline machine: 6-wide in-order, 64-entry instruction
    //    queue, Itanium2-like cache hierarchy.
    let baseline = run_workload(&spec, &PipelineConfig::default())?;
    let b = baseline.summary();
    println!("baseline:  IPC {:.2}", b.ipc.value());
    println!("  SDC AVF (unprotected queue)      : {}", b.sdc_avf);
    println!("  DUE AVF (parity-protected queue) : {}", b.due_avf);
    println!("  ... of which false DUE           : {}", b.false_due_avf);

    // 3. Technique 1 — exposure reduction: squash the queue on L1 load
    //    misses so instructions don't sit exposed to strikes during stalls.
    let squashed = run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1))?;
    let s = squashed.summary();
    println!("\nwith squashing on L1 misses:");
    println!(
        "  IPC {:.2} ({:+.1}%)   SDC AVF {} ({:+.1}%)",
        s.ipc.value(),
        s.ipc.relative_to(b.ipc) * 100.0,
        s.sdc_avf,
        s.sdc_avf.relative_to(b.sdc_avf) * 100.0,
    );

    // 4. Technique 2 — false-DUE tracking: carry the pi bit to the
    //    store-commit point instead of signalling at detection.
    let residual = squashed
        .avf
        .residual_false_due(Some(Technique::PiStoreCommit), &squashed.dead);
    let due_tracked = squashed.avf.true_due_avf().saturating_add(residual);
    println!(
        "  DUE AVF with pi tracking: {} ({:+.1}% vs baseline parity)",
        due_tracked,
        due_tracked.relative_to(b.due_avf) * 100.0
    );

    // 5. The MITF trade-off (paper section 3.2): worthwhile if AVF falls
    //    more than IPC.
    let model = ReliabilityModel::default();
    let mut t = Table::new(vec![
        "design point",
        "IPC",
        "SDC AVF",
        "SDC MTTF",
        "SDC MITF",
    ]);
    for (name, ipc, avf) in [
        ("baseline", b.ipc, b.sdc_avf),
        ("squash L1", s.ipc, s.sdc_avf),
    ] {
        let p = model.sdc(ipc, avf);
        t.row(vec![
            name.into(),
            format!("{:.2}", ipc.value()),
            avf.to_string(),
            format!("{:.1} yr", p.mttf.years()),
            format!("{:.2e}", p.mitf.instructions()),
        ]);
    }
    println!("\n{t}");
    Ok(())
}
