//! Measures the injection-throughput gain of the checkpointed campaign
//! engine against from-scratch simulation of every fault.
//!
//! Both campaigns inject the *same* deterministic fault sequence, so the
//! outcome reports must be identical — the only difference is whether
//! each injection re-simulates the fault-free prefix (cycle 0 up to the
//! strike) or resumes from the nearest pipeline snapshot. The measured
//! speedup and the engine's internal accounting are written to
//! `BENCH_campaign.json` at the repository root.
//!
//! Run with `cargo bench -p ses-bench --bench campaign_speed`.

use std::time::Instant;

use ses_core::{
    AdaptiveCampaignConfig, AdaptiveCampaignReport, AdaptiveConfig, AdaptiveSession, Campaign,
    CampaignConfig, CampaignPerf, CampaignReport, DetectionModel, GoldenRun, MetricKind,
    PruneReport, TrackingConfig, UniformRun, WorkloadSpec,
};
use ses_pipeline::{DetectionModel as PipelineDetection, Observers, Pipeline, PipelineConfig};

const INJECTIONS: u32 = 1000;
const CAMPAIGN_REPS: usize = 5;

/// Interleaved rep pairs per comparison; `CAMPAIGN_SPEED_REPS=1` lets CI
/// smoke the gates without paying for the full noise-damping schedule.
fn reps() -> usize {
    std::env::var("CAMPAIGN_SPEED_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(CAMPAIGN_REPS)
}
/// Aggregate 95 % half-width both samplers are driven to. Tight enough
/// that the pilot round is a small fraction of the adaptive budget and
/// both samplers are in their asymptotic (1/h²) regime.
const CI_TARGET: f64 = 0.01;

/// Interleaved off/full pairs for the telemetry-overhead ratio.
const TELEMETRY_PAIRS: usize = 11;

/// Wall time of one call to `f`.
fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

/// Measures the cost of the per-stage telemetry collectors on crafty's
/// golden timing run (about 144k cycles), the run `bench --telemetry full`
/// instruments. The collectors are branch-on-None when off and a handful
/// of counter adds per cycle when on, so the ratio must stay within the
/// 5 % budget. Off and full runs alternate in [`TELEMETRY_PAIRS`] pairs;
/// the ratio is the median of the per-pair ratios and the quoted walls are
/// the per-mode minima.
fn telemetry_overhead() -> (f64, f64, f64) {
    let spec = ses_core::spec_by_name("crafty").expect("crafty workload");
    let program = ses_core::synthesize(&spec);
    let trace = ses_arch::Emulator::new(&program)
        .run(spec.target_dynamic * 4)
        .expect("golden trace");
    let pipeline = Pipeline::new(PipelineConfig::default());
    let plain = pipeline.run(&program, &trace);
    let full = Observers {
        stage_bucket: Some((plain.cycles / 64).max(1)),
        ..Observers::default()
    };
    let instrumented = pipeline.run_golden(&program, &trace, PipelineDetection::None, full);
    assert_eq!(
        plain, instrumented.result,
        "instrumentation must not change timing behaviour"
    );
    let mut ratios = Vec::with_capacity(TELEMETRY_PAIRS);
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TELEMETRY_PAIRS {
        let o = timed(|| pipeline.run(&program, &trace));
        let f = timed(|| pipeline.run_golden(&program, &trace, PipelineDetection::None, full));
        ratios.push(f / o.max(1e-12));
        off = off.min(o);
        on = on.min(f);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    (off, on, ratios[ratios.len() / 2])
}

fn prepare(checkpoints: bool) -> Campaign {
    let spec = WorkloadSpec::quick("campaign-speed", 7);
    let config = CampaignConfig {
        injections: INJECTIONS,
        seed: 0xBE,
        detection: DetectionModel::Parity { tracking: None },
        checkpoints,
        ..CampaignConfig::default()
    };
    Campaign::prepare(&spec, config).expect("campaign prepare")
}

/// One interleaved measurement pair plus everything the report section
/// needs from the first rep.
struct CampaignTiming {
    ckpt: Campaign,
    scratch_report: CampaignReport,
    ckpt_report: CampaignReport,
    scratch_prepare: f64,
    ckpt_prepare: f64,
    scratch_wall: f64,
    ckpt_wall: f64,
    speedup: f64,
}

/// Times the from-scratch and checkpointed campaigns over
/// [`CAMPAIGN_REPS`] interleaved rep pairs. A `Campaign` caches nothing
/// between runs, so each rep reruns the same prepared pair, scratch and
/// checkpointed back to back, and both halves of a pair see the same
/// machine conditions;
/// the reported speedup is the median of the per-pair ratios, which is
/// robust against the time-correlated load swings that make single-shot
/// wall-clock ratios on shared machines flap. The quoted wall times are
/// the per-phase minima.
fn timed_campaigns() -> CampaignTiming {
    let t = Instant::now();
    let scratch = prepare(false);
    let scratch_prepare = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ckpt = prepare(true);
    let ckpt_prepare = t.elapsed().as_secs_f64();

    let reps = reps();
    let mut ratios = Vec::with_capacity(reps);
    let mut scratch_wall = f64::INFINITY;
    let mut ckpt_wall = f64::INFINITY;
    let mut first: Option<(CampaignReport, CampaignReport)> = None;
    for _ in 0..reps {
        let t = Instant::now();
        let sr = std::hint::black_box(scratch.run());
        let sw = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let cr = std::hint::black_box(ckpt.run());
        let cw = t.elapsed().as_secs_f64();
        ratios.push(sw / cw.max(1e-9));
        scratch_wall = scratch_wall.min(sw);
        ckpt_wall = ckpt_wall.min(cw);
        match &first {
            None => first = Some((sr, cr)),
            Some((fs, fc)) => {
                assert_eq!(
                    &sr, fs,
                    "scratch outcomes must be deterministic across reps"
                );
                assert_eq!(
                    &cr, fc,
                    "checkpointed outcomes must be deterministic across reps"
                );
            }
        }
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let speedup = ratios[ratios.len() / 2];
    let (scratch_report, ckpt_report) = first.expect("at least one rep");
    CampaignTiming {
        ckpt,
        scratch_report,
        ckpt_report,
        scratch_prepare,
        ckpt_prepare,
        scratch_wall,
        ckpt_wall,
        speedup,
    }
}

/// One interleaved pruned-vs-checkpointed measurement pair.
struct PruneTiming {
    tracked_report: CampaignReport,
    pruned_report: CampaignReport,
    tracked_wall: f64,
    pruned_wall: f64,
    speedup: f64,
    prune: PruneReport,
    /// The pruned run's accounting, which holds its injections and the
    /// cycles it simulated.
    perf: CampaignPerf,
}

/// Times the convergence-pruned executor against the plain checkpointed
/// path it extends on the standard 1000-injection crafty campaign, both
/// under the paper's combined π-bit tracking model (the configuration
/// whose quiescence oracle lets the convergence gate fire) and over the
/// identical fault sequence, both planned on one golden run. Same
/// interleaved-pair / median-ratio discipline as [`timed_campaigns`].
fn timed_pruned_campaigns() -> PruneTiming {
    let spec = ses_core::spec_by_name("crafty").expect("crafty workload");
    let config = |prune: bool| CampaignConfig {
        injections: INJECTIONS,
        seed: 0xBE,
        detection: DetectionModel::Parity {
            tracking: Some(TrackingConfig::paper_combined()),
        },
        prune,
        ..CampaignConfig::default()
    };
    let golden = std::sync::Arc::new(GoldenRun::prepare(&spec, &config(false)).expect("prepare"));
    let tracked = Campaign::on(std::sync::Arc::clone(&golden), config(false));
    let pruned = Campaign::on(golden, config(true));

    let reps = reps();
    let mut ratios = Vec::with_capacity(reps);
    let mut tracked_wall = f64::INFINITY;
    let mut pruned_wall = f64::INFINITY;
    let mut first: Option<(CampaignReport, CampaignReport)> = None;
    let mut prune = None;
    let mut perf = CampaignPerf::default();
    for _ in 0..reps {
        let clock = Instant::now();
        let tr = std::hint::black_box(tracked.run());
        let tw = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let detailed = std::hint::black_box(pruned.run_detailed());
        let pw = clock.elapsed().as_secs_f64();
        let pr = detailed.summary();
        prune = detailed.prune().copied();
        perf = detailed.perf();
        ratios.push(tw / pw.max(1e-9));
        tracked_wall = tracked_wall.min(tw);
        pruned_wall = pruned_wall.min(pw);
        match &first {
            None => first = Some((tr, pr)),
            Some((ft, fp)) => {
                assert_eq!(
                    &tr, ft,
                    "tracked outcomes must be deterministic across reps"
                );
                assert_eq!(&pr, fp, "pruned outcomes must be deterministic across reps");
            }
        }
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let speedup = ratios[ratios.len() / 2];
    let (tracked_report, pruned_report) = first.expect("at least one rep");
    let prune = prune.expect("pruned campaign reports pruning");
    PruneTiming {
        tracked_report,
        pruned_report,
        tracked_wall,
        pruned_wall,
        speedup,
        prune,
        perf,
    }
}

/// Drives the adaptive stratified sampler to [`CI_TARGET`], then drives
/// plain uniform sampling to the *same achieved* half-width on the same
/// campaign, so the trial counts compare at equal confidence.
fn trials_to_target_ci() -> (AdaptiveCampaignReport, UniformRun, f64, f64) {
    let spec = WorkloadSpec::quick("campaign-speed", 7);
    let config = CampaignConfig {
        seed: 0xBE,
        detection: DetectionModel::Parity { tracking: None },
        ..CampaignConfig::default()
    };
    let campaign = Campaign::prepare(&spec, config).expect("campaign prepare");
    let cfg = AdaptiveCampaignConfig {
        adaptive: AdaptiveConfig {
            target_halfwidth: CI_TARGET,
            ..AdaptiveConfig::default()
        },
        metric: MetricKind::DueAvf,
        pattern: None,
    };
    let t = Instant::now();
    let report = AdaptiveSession::new(&campaign, cfg).run();
    let adaptive_wall = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let uniform =
        campaign.run_uniform_to_target(report.estimate.halfwidth, MetricKind::DueAvf, 64, 200_000);
    let uniform_wall = t.elapsed().as_secs_f64();
    (report, uniform, adaptive_wall, uniform_wall)
}

fn main() {
    println!("\n=== Campaign speed: checkpointed vs from-scratch injection ===");
    println!("({INJECTIONS} injections, parity detection, identical fault sequence)\n");

    let CampaignTiming {
        ckpt,
        scratch_report,
        ckpt_report,
        scratch_prepare,
        ckpt_prepare,
        scratch_wall,
        ckpt_wall,
        speedup,
    } = timed_campaigns();

    assert_eq!(
        scratch_report, ckpt_report,
        "checkpointed campaign must classify every fault identically"
    );

    let perf = ckpt_report.perf();
    let scratch_perf = scratch_report.perf();

    println!("baseline cycles:        {}", ckpt.baseline_cycles());
    println!(
        "checkpoints:            {} every {} cycles",
        ckpt.checkpoints(),
        ckpt.checkpoint_interval()
    );
    println!(
        "from-scratch:           prepare {:>8.3}s  inject {:>8.3}s  ({:>8.0} inj/s, min of {})",
        scratch_prepare,
        scratch_wall,
        scratch_perf.injections_per_sec(),
        reps()
    );
    println!(
        "checkpointed:           prepare {:>8.3}s  inject {:>8.3}s  ({:>8.0} inj/s, min of {})",
        ckpt_prepare,
        ckpt_wall,
        perf.injections_per_sec(),
        reps()
    );
    println!(
        "cycles simulated:       {} (vs {} from scratch, {:.1}% skipped)",
        perf.cycles_simulated,
        scratch_perf.cycles_simulated,
        perf.skip_fraction() * 100.0
    );
    println!(
        "replays:                {} ({:.1}% fast-path)",
        perf.replays,
        perf.replay_hit_rate() * 100.0
    );
    println!(
        "injection speedup:      {speedup:.2}x (median of {} interleaved pairs)",
        reps()
    );

    println!("\n=== Campaign speed: convergence-pruned vs checkpointed injection ===");
    println!(
        "({INJECTIONS} injections, crafty, combined pi-bit tracking, identical fault sequence)\n"
    );
    let pruned = timed_pruned_campaigns();
    assert_eq!(
        pruned.tracked_report, pruned.pruned_report,
        "pruned campaign must classify every fault identically"
    );
    println!(
        "checkpointed (tracked): inject {:>8.3}s  (min of {})",
        pruned.tracked_wall,
        reps()
    );
    println!(
        "pruned + batched:       inject {:>8.3}s  (min of {})",
        pruned.pruned_wall,
        reps()
    );
    println!(
        "prune accounting:       {:.1}% of injections stopped early ({} idle, {} gate), \
         {:.0} mean replay cycles",
        pruned.prune.stop_fraction(pruned.perf.injections) * 100.0,
        pruned.prune.idle_skips,
        pruned.prune.gate_stops,
        pruned.perf.mean_cycles_simulated(),
    );
    println!(
        "pruning speedup:        {:.2}x (median of {} interleaved pairs)",
        pruned.speedup,
        reps()
    );

    let (telemetry_off, telemetry_on, telemetry_ratio) = telemetry_overhead();
    println!(
        "telemetry overhead:     off {:.4}s  full {:.4}s  ratio {:.3}x",
        telemetry_off, telemetry_on, telemetry_ratio
    );

    println!("\n=== Trials to target CI: adaptive stratified vs uniform ===");
    let (adaptive, uniform, adaptive_wall, uniform_wall) = trials_to_target_ci();
    let ci_ratio = uniform.trials as f64 / adaptive.total_trials.max(1) as f64;
    println!(
        "adaptive:               {} trials, {} rounds, estimate {:.4} +/- {:.4} ({:.3}s)",
        adaptive.total_trials,
        adaptive.rounds,
        adaptive.estimate.estimate,
        adaptive.estimate.halfwidth,
        adaptive_wall
    );
    println!(
        "uniform:                {} trials, estimate {:.4} +/- {:.4} ({:.3}s)",
        uniform.trials, uniform.proportion, uniform.halfwidth, uniform_wall
    );
    println!(
        "masked (idle) mass:     {:.1}% of the injection space",
        adaptive.masked_size as f64 / adaptive.space_size as f64 * 100.0
    );
    println!("trial savings:          {ci_ratio:.2}x fewer injections at equal half-width");

    let json = format!(
        "{{\n  \"injections\": {},\n  \"baseline_cycles\": {},\n  \"checkpoints\": {},\n  \
         \"checkpoint_interval\": {},\n  \"scratch_inject_wall_s\": {:.6},\n  \
         \"checkpointed_inject_wall_s\": {:.6},\n  \"speedup\": {:.3},\n  \
         \"cycles_simulated_scratch\": {},\n  \"cycles_simulated_checkpointed\": {},\n  \
         \"cycles_skip_fraction\": {:.4},\n  \"replay_hit_rate\": {:.4},\n  \
         \"tracked_inject_wall_s\": {:.6},\n  \"pruned_inject_wall_s\": {:.6},\n  \
         \"prune_speedup\": {:.3},\n  \"prune_stop_fraction\": {:.4},\n  \
         \"mean_replay_cycles_pruned\": {:.1},\n  \
         \"telemetry_off_wall_s\": {:.6},\n  \"telemetry_full_wall_s\": {:.6},\n  \
         \"telemetry_overhead_ratio\": {:.4},\n  \"ci_target_halfwidth\": {:.4},\n  \
         \"adaptive_achieved_halfwidth\": {:.6},\n  \"adaptive_trials\": {},\n  \
         \"adaptive_rounds\": {},\n  \"adaptive_estimate\": {:.6},\n  \
         \"adaptive_masked_fraction\": {:.4},\n  \"uniform_trials_to_same_halfwidth\": {},\n  \
         \"uniform_halfwidth\": {:.6},\n  \"adaptive_trial_savings\": {:.3}\n}}\n",
        INJECTIONS,
        ckpt.baseline_cycles(),
        ckpt.checkpoints(),
        ckpt.checkpoint_interval(),
        scratch_wall,
        ckpt_wall,
        speedup,
        scratch_perf.cycles_simulated,
        perf.cycles_simulated,
        perf.skip_fraction(),
        perf.replay_hit_rate(),
        pruned.tracked_wall,
        pruned.pruned_wall,
        pruned.speedup,
        pruned.prune.stop_fraction(pruned.perf.injections),
        pruned.perf.mean_cycles_simulated(),
        telemetry_off,
        telemetry_on,
        telemetry_ratio,
        CI_TARGET,
        adaptive.estimate.halfwidth,
        adaptive.total_trials,
        adaptive.rounds,
        adaptive.estimate.estimate,
        adaptive.masked_size as f64 / adaptive.space_size as f64,
        uniform.trials,
        uniform.halfwidth,
        ci_ratio,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(path, &json).expect("write BENCH_campaign.json");
    println!("\nwrote {path}");

    assert!(
        speedup >= 3.0,
        "checkpointed campaign must be at least 3x faster ({speedup:.2}x measured)"
    );
    println!("Speedup target (>= 3x) holds.");

    assert!(
        pruned.speedup >= 3.0,
        "pruned campaign must be at least 3x faster than the checkpointed path \
         ({:.2}x measured)",
        pruned.speedup
    );
    println!("Pruning speedup target (>= 3x) holds.");

    assert!(
        telemetry_ratio <= 1.05,
        "full telemetry must cost at most 5% ({:.1}% measured)",
        (telemetry_ratio - 1.0) * 100.0
    );
    println!("Telemetry overhead target (<= 5%) holds.");

    assert!(
        ci_ratio >= 3.0,
        "adaptive sampling must reach the target CI in at least 3x fewer trials \
         ({ci_ratio:.2}x measured)"
    );
    println!("Adaptive trial-savings target (>= 3x) holds.");
}
