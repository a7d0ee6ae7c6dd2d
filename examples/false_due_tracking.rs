//! Walk the paper's §4 false-DUE machinery one mechanism at a time on a
//! single workload: π at commit, the anti-π bit, PET buffers of several
//! sizes, and the three wider π scopes.
//!
//! Run with `cargo run --release --example false_due_tracking`.

use ses_core::{run_workload, spec_by_name, FalseDueCause, PipelineConfig, Table, Technique};

fn main() -> Result<(), ses_core::SesError> {
    let spec = spec_by_name("gap").expect("suite benchmark");
    let run = run_workload(&spec, &PipelineConfig::default())?;
    let avf = &run.avf;

    println!(
        "benchmark: {} ({} committed instructions)",
        spec.name, run.result.committed
    );
    println!("parity-protected DUE AVF : {}", avf.due_avf());
    println!("  true DUE (= SDC AVF)   : {}", avf.true_due_avf());
    println!("  false DUE              : {}\n", avf.false_due_avf());

    // Where the false DUE comes from (paper §4.1's three sources).
    let mut causes = Table::new(vec!["false-DUE cause", "bit-cycles", "share"]);
    let total: u64 = FalseDueCause::ALL
        .iter()
        .map(|&c| avf.false_due_cause(c))
        .sum();
    for c in FalseDueCause::ALL {
        let v = avf.false_due_cause(c);
        if v > 0 {
            causes.row(vec![
                format!("{c:?}"),
                v.to_string(),
                format!("{:.1}%", v as f64 / total as f64 * 100.0),
            ]);
        }
    }
    println!("{causes}");

    // Cumulative technique stack (paper Figure 2's onion).
    let steps: [(&str, Option<Technique>); 7] = [
        ("parity only (no tracking)", None),
        ("+ pi at commit + anti-pi", None), // handled by residual_false_due
        ("+ PET 128", Some(Technique::Pet(128))),
        ("+ PET 512", Some(Technique::Pet(512))),
        ("+ pi per register", Some(Technique::PiRegister)),
        ("+ pi to store commit", Some(Technique::PiStoreCommit)),
        ("+ pi on caches & memory", Some(Technique::PiMemory)),
    ];
    let mut stack = Table::new(vec!["tracking configuration", "DUE AVF", "vs parity"]);
    for (i, (name, tech)) in steps.iter().enumerate() {
        let due = if i == 0 {
            avf.due_avf()
        } else {
            avf.due_avf_with_tracking(*tech, &run.dead)
        };
        stack.row(vec![
            (*name).into(),
            due.to_string(),
            format!("{:+.1}%", due.relative_to(avf.due_avf()) * 100.0),
        ]);
    }
    println!("{stack}");

    println!(
        "The full memory-scope stack removes every false DUE: the remaining\n\
         {} is exactly the true-DUE floor — the SDC AVF the queue would have\n\
         had with no protection at all (paper §2.2).",
        avf.true_due_avf()
    );
    Ok(())
}
