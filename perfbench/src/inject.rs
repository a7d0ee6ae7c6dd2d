//! inject-crafty: uniform fault-injection campaigns on crafty under the
//! paper's combined pi-bit tracking model, default executor, one
//! `Campaign::prepare` per campaign seed.

use std::time::Instant;

use ses_core::{
    spec_by_name, Campaign, CampaignConfig, DetectionModel, JsonValue, Outcome, TrackingConfig,
    WorkloadSpec,
};

use crate::{
    median, peak_rss_mb, quantile, read_reference, shuffle, write_reference, Args, Report,
};

pub const WORKLOAD: &str = "crafty";
pub const INJECTIONS: u32 = 250;
const REFERENCE: &str = "inject_crafty.json";

/// Campaign seeds with recorded verdict counts; `--seed` orders them.
pub fn seed_pool() -> Vec<u64> {
    (0..32).map(|k| 1000 + k).collect()
}

pub fn spec() -> WorkloadSpec {
    spec_by_name(WORKLOAD).expect("crafty is a suite workload")
}

pub fn tracking() -> DetectionModel {
    DetectionModel::Parity {
        tracking: Some(TrackingConfig::paper_combined()),
    }
}

/// Default configuration apart from budget, seed, detection model and,
/// for the serial traced run, the worker count.
pub fn config(injections: u32, seed: u64, threads: usize) -> CampaignConfig {
    CampaignConfig {
        injections,
        seed,
        detection: tracking(),
        threads,
        ..CampaignConfig::default()
    }
}

fn outcome_label(o: Outcome) -> &'static str {
    match o {
        Outcome::Benign => "benign",
        Outcome::Sdc => "sdc",
        Outcome::FalseDue => "false_due",
        Outcome::TrueDue => "true_due",
        Outcome::SuppressedSafe => "suppressed_safe",
        Outcome::SuppressedSdc => "suppressed_sdc",
        Outcome::Hang => "hang",
        Outcome::Recovered => "recovered",
    }
}

/// Verdict counts in `Outcome::ALL` order, as one JSON object.
pub fn verdict_counts(outcomes: impl Iterator<Item = Outcome>) -> JsonValue {
    let outcomes: Vec<Outcome> = outcomes.collect();
    let mut doc = JsonValue::object();
    for o in Outcome::ALL {
        doc.set(
            outcome_label(o),
            outcomes.iter().filter(|&&x| x == o).count() as u64,
        );
    }
    doc
}

/// Reference counts for campaign seed `seed`, rendered.
fn reference_counts(reference: &JsonValue, seed: u64) -> Option<String> {
    reference.get(&seed.to_string()).map(JsonValue::render)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let reference =
        JsonValue::parse(&read_reference(REFERENCE)?).map_err(|e| format!("{REFERENCE}: {e}"))?;
    let spec = spec();
    let mut seeds = seed_pool();
    shuffle(&mut seeds, args.seed);
    let mut report = Report::default();
    let mut prepare_s = Vec::new();
    let mut inject_s = Vec::new();
    let mut injections = 0;
    let start = Instant::now();
    for &seed in seeds.iter().cycle() {
        let t = Instant::now();
        let campaign = Campaign::prepare(&spec, config(INJECTIONS, seed, 0))
            .map_err(|e| format!("prepare crafty seed {seed}: {e}"))?;
        prepare_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let detailed = campaign.run_detailed();
        inject_s.push(t.elapsed().as_secs_f64());
        injections += detailed.samples().len();
        let got = verdict_counts(detailed.samples().iter().map(|(_, o)| *o)).render();
        let want = reference_counts(&reference, seed);
        report.check(
            want.as_deref() == Some(got.as_str()),
            format!("crafty campaign seed {seed}: verdicts {got} differ from reference {want:?}"),
        );
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    let inject_per_s = injections as f64 / inject_s.iter().sum::<f64>();
    let latency_ms: Vec<f64> = inject_s.iter().map(|s| s * 1e3).collect();
    report.metric("setup_s", median(&prepare_s), "s");
    report.metric("throughput_per_s", inject_per_s, "1/s");
    report.metric("latency_p50_ms", median(&latency_ms), "ms");
    report.metric("latency_p90_ms", quantile(&latency_ms, 0.9), "ms");
    report.metric("peak_rss_mb", peak_rss_mb("self")?, "MB");
    report.alias("inject_per_s", inject_per_s, "1/s");
    Ok(report)
}

pub fn record() -> Result<(), String> {
    let spec = spec();
    let mut doc = JsonValue::object();
    for seed in seed_pool() {
        let campaign = Campaign::prepare(&spec, config(INJECTIONS, seed, 0))
            .map_err(|e| format!("prepare crafty seed {seed}: {e}"))?;
        let detailed = campaign.run_detailed();
        doc.set(
            &seed.to_string(),
            verdict_counts(detailed.samples().iter().map(|(_, o)| *o)),
        );
    }
    write_reference(REFERENCE, &doc.render())
}
