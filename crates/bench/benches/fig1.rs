//! Regenerates **Figure 1**: the outcome taxonomy of a faulty bit,
//! measured by statistical fault injection.
//!
//! The paper's Figure 1 is a classification tree: (1–3) benign outcomes,
//! (4) silent data corruption, (5) false DUE, (6) true DUE. This harness
//! injects random single-bit faults into the instruction queue under three
//! protection schemes and prints the measured outcome distribution for
//! each — demonstrating the taxonomy's central claims:
//!
//! * without detection, strikes split into benign and SDC;
//! * parity converts every consumed strike into a DUE (no SDC), and a
//!   large share of those DUEs are *false*;
//! * π-bit tracking suppresses most false DUEs without (materially)
//!   reintroducing SDC.
//!
//! Run with `cargo bench -p ses-bench --bench fig1`.

use std::sync::Arc;

use ses_core::{
    spec_by_name, Campaign, CampaignConfig, DetectionModel, GoldenRun, Outcome, Table,
    TrackingConfig,
};

const BENCHES: [&str; 4] = ["crafty", "gzip", "twolf", "mgrid"];
const INJECTIONS: u32 = 300;

/// Plans `detection` on a benchmark's golden run, which every protection
/// scheme shares.
fn campaign(
    golden: &Arc<GoldenRun>,
    detection: DetectionModel,
    seed: u64,
) -> ses_core::CampaignReport {
    let config = CampaignConfig {
        injections: INJECTIONS,
        seed,
        detection,
        ..CampaignConfig::default()
    };
    Campaign::on(Arc::clone(golden), config).run()
}

fn main() {
    let models: [(&str, DetectionModel); 3] = [
        ("unprotected", DetectionModel::None),
        ("parity", DetectionModel::Parity { tracking: None }),
        (
            "parity + pi (store scope)",
            DetectionModel::Parity {
                tracking: Some(TrackingConfig::paper_combined()),
            },
        ),
    ];

    println!("\n=== Figure 1: measured single-bit fault outcome taxonomy ===");
    println!(
        "({} injections per benchmark x {:?})\n",
        INJECTIONS, BENCHES
    );

    let mut table = Table::new(vec![
        "Protection",
        "benign",
        "SDC",
        "false DUE",
        "true DUE",
        "suppressed",
        "supp-SDC",
        "hang",
    ]);

    let goldens = BENCHES.map(|bench| {
        let spec = spec_by_name(bench).expect("known benchmark");
        Arc::new(GoldenRun::prepare(&spec, &CampaignConfig::default()).expect("golden prepare"))
    });
    let mut summaries = Vec::new();
    for (name, model) in models {
        let mut merged = ses_core::CampaignReport::default();
        for (i, golden) in goldens.iter().enumerate() {
            merged.merge(&campaign(golden, model, 0xF1 + i as u64));
        }
        table.row(vec![
            name.into(),
            format!("{:.1}%", merged.fraction(Outcome::Benign) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::Sdc) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::FalseDue) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::TrueDue) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::SuppressedSafe) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::SuppressedSdc) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::Hang) * 100.0),
        ]);
        summaries.push((name, merged));
    }
    println!("{table}");

    let unprot = &summaries[0].1;
    let parity = &summaries[1].1;
    let tracked = &summaries[2].1;

    // Taxonomy assertions (the paper's Figure-1 structure).
    assert_eq!(
        unprot.count(Outcome::FalseDue) + unprot.count(Outcome::TrueDue),
        0,
        "no detection, no DUE"
    );
    assert!(unprot.count(Outcome::Sdc) > 0, "unprotected strikes cause SDC");
    assert_eq!(parity.count(Outcome::Sdc), 0, "parity eliminates SDC");
    assert!(
        parity.count(Outcome::FalseDue) > 0,
        "parity introduces false DUE"
    );
    let due_parity = parity.due_avf_estimate();
    let due_tracked = tracked.due_avf_estimate();
    assert!(
        due_tracked < due_parity,
        "tracking reduces the DUE rate ({due_tracked:.3} vs {due_parity:.3})"
    );
    println!(
        "False DUE share of parity DUEs: {:.0}% (paper: up to 52% of total DUE)",
        parity.fraction(Outcome::FalseDue) / parity.due_avf_estimate() * 100.0
    );
    println!(
        "DUE rate reduction from pi tracking: {:.0}%",
        (1.0 - due_tracked / due_parity) * 100.0
    );
    println!(
        "Statistical SDC AVF (unprotected): {:.1}% +/- {:.1}%",
        unprot.sdc_avf_estimate() * 100.0,
        unprot.ci95(unprot.sdc_avf_estimate()) * 100.0
    );
    println!("\nAll Figure-1 taxonomy assertions hold.");
}
