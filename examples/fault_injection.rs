//! Statistical fault injection: strike random bits of the instruction
//! queue and watch what actually happens under three protection schemes —
//! the empirical counterpart of the analytic AVF numbers.
//!
//! Run with `cargo run --release --example fault_injection`.

use ses_core::{
    Campaign, CampaignConfig, DetectionModel, Outcome, PiScope, Table, TrackingConfig, WorkloadSpec,
};

fn main() -> Result<(), ses_core::SesError> {
    let spec = WorkloadSpec::quick("fi-example", 1234);
    let injections = 400;

    let schemes: [(&str, DetectionModel); 3] = [
        ("unprotected", DetectionModel::None),
        ("parity", DetectionModel::Parity { tracking: None }),
        (
            "parity + pi-tracking",
            DetectionModel::Parity {
                tracking: Some(TrackingConfig {
                    scope: PiScope::StoreCommit,
                    anti_pi: true,
                    pet_entries: None,
                    mem_granule: 8,
                }),
            },
        ),
    ];

    let mut table = Table::new(vec!["scheme", "outcome", "count", "share"]);
    for (name, detection) in schemes {
        let campaign = Campaign::prepare(
            &spec,
            CampaignConfig {
                injections,
                seed: 7,
                detection,
                ..CampaignConfig::default()
            },
        )?;
        let report = campaign.run();
        for o in Outcome::ALL {
            if report.count(o) > 0 {
                table.row(vec![
                    name.into(),
                    o.to_string(),
                    report.count(o).to_string(),
                    format!("{:.1}%", report.fraction(o) * 100.0),
                ]);
            }
        }
        if matches!(detection, DetectionModel::None) {
            let est = report.sdc_avf_estimate();
            println!(
                "{name}: statistical SDC AVF {:.1}% +/- {:.1}%",
                est * 100.0,
                report.ci95(est) * 100.0
            );
        } else {
            let est = report.due_avf_estimate();
            println!(
                "{name}: statistical DUE AVF {:.1}% +/- {:.1}%",
                est * 100.0,
                report.ci95(est) * 100.0
            );
        }
    }
    println!("\n{table}");
    println!(
        "Note the transformation the paper describes: parity converts every\n\
         silent corruption into a detected error (more than doubling the DUE\n\
         rate with false DUEs), and pi tracking then suppresses the false\n\
         share without reintroducing meaningful SDC."
    );
    Ok(())
}
