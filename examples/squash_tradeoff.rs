//! Explore the exposure-reduction trade-off (paper §3): how squash
//! triggers and fetch throttling move IPC, AVF, and MITF on workloads with
//! different memory behaviour.
//!
//! The paper's claim: squashing is nearly free on in-order machines
//! because the pipeline stalls behind cache misses anyway — so emptying
//! the queue during the stall buys AVF at little IPC cost, and the win is
//! largest for memory-bound codes (`ammp`, `mcf`).
//!
//! Run with `cargo run --release --example squash_tradeoff`.

use ses_core::{run_workload, spec_by_name, Level, PipelineConfig, Table};

fn main() -> Result<(), ses_core::SesError> {
    // One benchmark from each memory-behaviour class.
    let benches = ["eon", "gzip", "twolf", "ammp"];
    let configs: [(&str, PipelineConfig); 4] = [
        ("baseline", PipelineConfig::default()),
        (
            "squash L1",
            PipelineConfig::default().with_squash(Level::L1),
        ),
        (
            "squash L0",
            PipelineConfig::default().with_squash(Level::L0),
        ),
        (
            "throttle L1",
            PipelineConfig::default().with_throttle(Level::L1),
        ),
    ];

    for bench in benches {
        let spec = spec_by_name(bench).expect("suite benchmark");
        println!(
            "\n=== {bench} (working set {} KB, miss gate 1/{}) ===\n",
            spec.working_set_bytes / 1024,
            spec.far_gate_mask + 1
        );
        let mut table = Table::new(vec![
            "config",
            "IPC",
            "SDC AVF",
            "squashes",
            "throttled cycles",
            "IPC/AVF (rel MITF)",
        ]);
        let mut base_fom = None;
        for (name, cfg) in &configs {
            let run = run_workload(&spec, cfg)?;
            let s = run.summary();
            let fom = s.ipc.value() / s.sdc_avf.fraction().max(1e-9);
            let rel = match base_fom {
                None => {
                    base_fom = Some(fom);
                    1.0
                }
                Some(b) => fom / b,
            };
            table.row(vec![
                (*name).into(),
                format!("{:.2}", s.ipc.value()),
                s.sdc_avf.to_string(),
                s.squashes.to_string(),
                run.result.throttled_cycles.to_string(),
                format!("{rel:.2}x"),
            ]);
        }
        println!("{table}");
    }

    println!(
        "Reading the tables: squash-L1 raises IPC/AVF (relative MITF) on every class;\n\
         the memory-bound entry gets the dramatic reduction the paper reports for ammp,\n\
         and throttling alone reduces exposure less than squashing (paper §3.1)."
    );
    Ok(())
}
