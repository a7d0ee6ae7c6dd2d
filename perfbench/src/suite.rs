//! suite-paper: analytic AVF of all 26 workloads under the baseline,
//! squash-L1 and throttle-L1 machines (the paper's Table 2 and Figures
//! 3-4), through `run_suite_with` at 2 worker threads.

use std::process::{Command, Stdio};
use std::time::Instant;

use ses_core::telemetry::suite_artifact;
use ses_core::{run_suite_with, Level, PipelineConfig, TelemetryLevel};

use crate::{median, peak_rss_mb, quantile, read_reference, reset_peak_rss, shuffle};
use crate::{write_reference, Args, Report};

const THREADS: usize = 2;
/// Process starts timed per run; `setup_s` is their median.
const STARTS: usize = 21;

/// The three machines, each with the file its reference artifact lives
/// in. The baseline reference is byte-identical to
/// `tests/golden/suite_default.json`.
pub fn machines() -> Vec<(&'static str, PipelineConfig)> {
    vec![
        ("suite_baseline.json", PipelineConfig::default()),
        (
            "suite_squash_l1.json",
            PipelineConfig::default().with_squash(Level::L1),
        ),
        (
            "suite_throttle_l1.json",
            PipelineConfig::default().with_throttle(Level::L1),
        ),
    ]
}

/// The suite artifact exactly as `ser-repro suite --json` writes it.
pub fn artifact(cfg: &PipelineConfig, threads: usize) -> Result<(String, u64), String> {
    let rows = run_suite_with(cfg, threads, |_, run| run.summary()).map_err(|e| e.to_string())?;
    let committed = rows.iter().map(|r| r.committed).sum();
    let text = suite_artifact(cfg, &rows, &[], TelemetryLevel::Summary).render();
    Ok((text, committed))
}

/// Wall time from spawning `ser-repro list` to its exit: the process
/// start a suite user pays before the first workload runs.
fn process_start_s(args: &Args) -> Result<f64, String> {
    let t = Instant::now();
    let status = Command::new(&args.ser_repro)
        .arg("list")
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", args.ser_repro.display()))?;
    let elapsed = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("ser-repro list exited with {status}"));
    }
    Ok(elapsed)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let machines = machines();
    let mut references = Vec::new();
    for (file, _) in &machines {
        references.push(read_reference(file)?);
    }
    let starts = (0..STARTS)
        .map(|_| process_start_s(args))
        .collect::<Result<Vec<_>, _>>()?;
    let mut report = Report::default();
    let mut sim_s = Vec::new();
    let mut instructions = 0;
    let mut peaks = Vec::new();
    let start = Instant::now();
    for pass in 0u64.. {
        let mut order: Vec<usize> = (0..machines.len()).collect();
        shuffle(&mut order, args.seed.wrapping_add(pass));
        for &m in &order {
            let (file, cfg) = &machines[m];
            reset_peak_rss("self")?;
            let t = Instant::now();
            let (text, committed) = artifact(cfg, THREADS)?;
            sim_s.push(t.elapsed().as_secs_f64());
            instructions += committed;
            peaks.push(peak_rss_mb("self")?);
            report.check(
                text == references[m],
                format!("suite artifact differs from {file}"),
            );
        }
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    let instr_per_s = instructions as f64 / sim_s.iter().sum::<f64>();
    let latency_ms: Vec<f64> = sim_s.iter().map(|s| s * 1e3).collect();
    report.metric("setup_s", median(&starts), "s");
    report.metric("throughput_per_s", instr_per_s, "1/s");
    report.metric("latency_p50_ms", median(&latency_ms), "ms");
    report.metric("latency_p90_ms", quantile(&latency_ms, 0.9), "ms");
    // Each pass starts from the previous pass's retained heap; the median
    // over passes is the steady-state peak of one suite run.
    report.metric("peak_rss_mb", median(&peaks), "MB");
    report.alias("sim_minstr_per_s", instr_per_s / 1e6, "Minstr/s");
    Ok(report)
}

pub fn record() -> Result<(), String> {
    for (file, cfg) in machines() {
        let (text, _) = artifact(&cfg, THREADS)?;
        write_reference(file, &text)?;
    }
    Ok(())
}
