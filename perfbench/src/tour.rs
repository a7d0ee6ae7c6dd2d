//! The traced run: one serial walk through the work of all three
//! workloads, with spans around the benchmark's own calls into each
//! layer, so every per-layer metric is measured in every traced run.
//!
//! Each part calls the public entry point a user calls (the black box)
//! and then rebuilds the same work from the layers' public functions
//! (the reconstruction). The reconstruction's counts must equal the
//! program's own counters and its outputs the black box's outputs; a
//! mismatch fails the run, so a change to the program cannot leave the
//! trace measuring a path the program no longer takes.

use ses_arch::{Emulator, RunOutcome};
use ses_avf::{lifetime_spans, SpanSet};
use ses_core::telemetry::{campaign_artifact, suite_artifact, summary_value};
use ses_core::{
    run_suite_with, synthesize, AvfAnalysis, Campaign, DeadMap, Outcome, Pipeline, RegionMap,
    TelemetryLevel, WorkloadRun,
};
use ses_isa::encode;
use ses_pipeline::{FaultOutcome, Occupant, SuppressReason};
use ses_serve::{http_get, JobSpec, SharedRuns};

use crate::serve::{self, Daemon};
use crate::trace::Tracer;
use crate::{inject, median, read_reference, shuffle, suite, Args, Report};

/// Injections in the traced campaign (serial, so kept small).
const TRACE_INJECTIONS: u32 = 200;
/// `/v1/healthz` round trips timed.
const HEALTH_PROBES: usize = 20;

/// The crates, plus `bench` for the benchmark's own glue; each gets a
/// `self.<layer>_s` metric.
const LAYERS: [&str; 8] = [
    "workloads",
    "arch",
    "pipeline",
    "avf",
    "faults",
    "core",
    "serve",
    "bench",
];

/// Counts the inject reconstruction made, for reconciliation with
/// `CampaignPerf`.
#[derive(Default)]
struct InjectCounts {
    replays: u64,
    fast_path: u64,
    emulated: u64,
    cycles_simulated: u64,
    cycles_skipped: u64,
}

struct InjectPart {
    counts: InjectCounts,
    golden_len: u64,
    golden_cycles: u64,
    /// Fault-free timing passes inside `Campaign::prepare`, inferred: the
    /// snapshot-capturing pass, plus what prepare spends beyond the
    /// rebuilt stages in units of one plain pass (2.0 while prepare runs
    /// a sizing pass before the capturing one).
    timing_runs: f64,
}

fn inject_part(t: &mut Tracer, seed: u64, report: &mut Report) -> Result<InjectPart, String> {
    let mut seeds = inject::seed_pool();
    shuffle(&mut seeds, seed);
    let spec = inject::spec();
    let cfg = inject::config(TRACE_INJECTIONS, seeds[0], 1);
    let detection = cfg.detection;

    // Prepare, rebuilt stage by stage (the default path's order).
    let program = t.span("workloads.synthesize", 0, |_| synthesize(&spec));
    let golden = t
        .span("arch.golden_emulate", 0, |_| {
            Emulator::new(&program).run(spec.target_dynamic * 4)
        })
        .map_err(|e| format!("golden crafty: {e}"))?;
    let words: Vec<u64> = t.span("faults.golden_words", 0, |_| {
        golden.entries().iter().map(|d| encode(&d.instr)).collect()
    });
    let pipeline = Pipeline::new(cfg.pipeline.clone());
    let plain = t.span("pipeline.golden_timing", 0, |_| {
        pipeline.run(&program, &golden)
    });
    let interval = (plain.cycles / 64).max(1);
    let (baseline, snaps) = t.span("pipeline.snapshot_capture", 0, |_| {
        pipeline.run_with_snapshots(&program, &golden, detection, interval)
    });
    let spans = t.span("avf.lifetime_spans", 0, |_| lifetime_spans(&baseline));
    // What an idempotent-recovery prepare adds (the serve mix has such
    // jobs); the default campaign skips it.
    let regions = t.span("avf.region_map", 0, |_| RegionMap::analyze(&golden));
    let campaign = t
        .span("faults.prepare", 0, |_| {
            Campaign::prepare(&spec, cfg.clone())
        })
        .map_err(|e| format!("prepare crafty: {e}"))?;
    report.check(
        golden.halted()
            && golden.len() == campaign.golden().len()
            && baseline.cycles == campaign.baseline_cycles()
            && interval == campaign.checkpoint_interval()
            && snaps.len() == campaign.checkpoints()
            && spans.len() == campaign.lifetime_spans().len()
            && !regions.is_empty(),
        "prepare reconstruction disagrees with Campaign::prepare",
    );

    let detailed = t.span("faults.inject", 0, |_| campaign.run_detailed());
    t.span("core.render", 0, |_| {
        campaign_artifact(
            inject::WORKLOAD,
            &detailed,
            cfg.pipeline.iq_entries,
            TelemetryLevel::Summary,
        )
        .render()
    });

    // Inject, rebuilt fault by fault: timing replay from the latest
    // snapshot, then the classifier's functional replay.
    let budget = (golden.len() as u64).saturating_mul(4).max(10_000);
    let mut counts = InjectCounts::default();
    let outcomes: Vec<Outcome> = t.span("faults.reconstruct", 0, |t| {
        (0..TRACE_INJECTIONS)
            .map(|i| {
                let req = u64::from(i) + 1;
                let fault = campaign.fault_for(i);
                let snap = snaps
                    .partition_point(|s| s.cycle() <= fault.cycle)
                    .checked_sub(1)
                    .map(|j| &snaps[j]);
                let result = t.span("pipeline.fault_replay", req, |_| match snap {
                    Some(s) => pipeline.resume(&program, &golden, s, Some(fault)),
                    None => pipeline.run_with_fault(&program, &golden, Some(fault), detection),
                });
                let from = snap.map_or(0, |s| s.cycle().as_u64());
                counts.cycles_skipped += from;
                counts.cycles_simulated += result.cycles.saturating_sub(from);
                // Whether the corrupted program's output differs from the
                // golden output (`None`: it crashed or hung).
                let mut replay = |trace_idx: u64, word: u64| -> Option<bool> {
                    counts.replays += 1;
                    if words.get(trace_idx as usize) == Some(&word) {
                        counts.fast_path += 1;
                        return Some(false);
                    }
                    counts.emulated += 1;
                    match t.span("arch.replay", req, |_| {
                        Emulator::new(&program).run_with_override(trace_idx, word, budget)
                    }) {
                        RunOutcome::Completed { output } => Some(output != golden.output()),
                        RunOutcome::Crashed { .. } => Some(true),
                        RunOutcome::TimedOut => None,
                    }
                };
                let fault_outcome = result.fault.expect("fault run resolves an outcome");
                classify(fault_outcome, &mut replay)
            })
            .collect()
    });
    let perf = detailed.perf();
    report.check(
        counts.replays == perf.replays
            && counts.fast_path == perf.replay_fast_path
            && counts.cycles_simulated == perf.cycles_simulated
            && counts.cycles_skipped == perf.cycles_skipped,
        format!(
            "inject reconstruction counts (replays {}, fast {}, cycles {}/{}) differ from \
             CampaignPerf (replays {}, fast {}, cycles {}/{})",
            counts.replays,
            counts.fast_path,
            counts.cycles_simulated,
            counts.cycles_skipped,
            perf.replays,
            perf.replay_fast_path,
            perf.cycles_simulated,
            perf.cycles_skipped
        ),
    );
    let same = outcomes
        .iter()
        .zip(detailed.samples())
        .all(|(a, (_, b))| a == b);
    report.check(
        same && outcomes.len() == detailed.samples().len(),
        "inject reconstruction verdicts differ from run_detailed",
    );

    // Only this part's spans exist yet, so the totals are crafty's.
    let other_stages = t.total("workloads.synthesize")
        + t.total("arch.golden_emulate")
        + t.total("faults.golden_words")
        + t.total("pipeline.snapshot_capture")
        + t.total("avf.lifetime_spans");
    Ok(InjectPart {
        counts,
        golden_len: golden.len() as u64,
        golden_cycles: plain.cycles,
        timing_runs: 1.0
            + (t.total("faults.prepare") - other_stages) / t.total("pipeline.golden_timing"),
    })
}

/// The legacy executor's classifier (`MachineCheck` recovery), driven by
/// `replay`.
fn classify(outcome: FaultOutcome, replay: &mut impl FnMut(u64, u64) -> Option<bool>) -> Outcome {
    match outcome {
        FaultOutcome::SlotIdle | FaultOutcome::NeverRead { .. } => Outcome::Benign,
        FaultOutcome::CorruptIssued { corruption } => match corruption.occupant {
            Occupant::WrongPath => Outcome::Benign,
            Occupant::CorrectPath { trace_idx } => {
                match replay(trace_idx, corruption.corrupted_word) {
                    Some(false) => Outcome::Benign,
                    Some(true) => Outcome::Sdc,
                    None => Outcome::Hang,
                }
            }
        },
        FaultOutcome::Signalled { corruption, .. } => match corruption.occupant {
            Occupant::WrongPath => Outcome::FalseDue,
            Occupant::CorrectPath { trace_idx } => {
                match replay(trace_idx, corruption.corrupted_word) {
                    Some(false) => Outcome::FalseDue,
                    _ => Outcome::TrueDue,
                }
            }
        },
        FaultOutcome::Suppressed { reason, corruption } => match (reason, corruption.occupant) {
            (SuppressReason::WrongPath | SuppressReason::Squashed, _)
            | (_, Occupant::WrongPath) => Outcome::SuppressedSafe,
            (_, Occupant::CorrectPath { trace_idx }) => {
                match replay(trace_idx, corruption.corrupted_word) {
                    Some(false) => Outcome::SuppressedSafe,
                    _ => Outcome::SuppressedSdc,
                }
            }
        },
    }
}

/// Returns the simulated cycles of the rebuilt golden timing runs.
fn suite_part(t: &mut Tracer, report: &mut Report) -> Result<u64, String> {
    let (file, cfg) = suite::machines().swap_remove(0);
    let reference = read_reference(file)?;
    let rows = t
        .span("core.run_suite", 0, |_| {
            run_suite_with(&cfg, 1, |_, run| run.summary())
        })
        .map_err(|e| format!("suite: {e}"))?;
    let text = t.span("core.render", 0, |_| {
        suite_artifact(&cfg, &rows, &[], TelemetryLevel::Summary).render()
    });
    report.check(
        text == reference,
        format!("suite artifact differs from {file}"),
    );

    // run_workload, rebuilt stage by stage for every suite workload.
    let pipeline = Pipeline::new(cfg.clone());
    let mut cycles = 0;
    for (i, spec) in ses_core::suite().into_iter().enumerate() {
        let req = i as u64 + 1;
        let (summary, consistent) = t.span("core.run_workload", req, |t| -> Result<_, String> {
            let program = t.span("workloads.synthesize", req, |_| synthesize(&spec));
            let trace = t
                .span("arch.golden_emulate", req, |_| {
                    Emulator::new(&program).run(spec.target_dynamic * 4)
                })
                .map_err(|e| format!("golden {}: {e}", spec.name))?;
            let dead = t.span("avf.dead_map", req, |_| DeadMap::analyze(&trace));
            let result = t.span("pipeline.golden_timing", req, |_| {
                pipeline.run(&program, &trace)
            });
            let (spans, avf) = t.span("avf.span_avf", req, |_| {
                let spans = SpanSet::derive(&result, &dead);
                let avf = AvfAnalysis::from_spans(&spans);
                (spans, avf)
            });
            let halted = trace.halted();
            let run = WorkloadRun {
                spec,
                program,
                trace,
                dead,
                result,
                spans,
                avf,
            };
            Ok((
                run.summary(),
                halted && run.trace.len() as u64 == run.result.committed,
            ))
        })?;
        let row = &rows[i];
        report.check(
            consistent
                && summary.committed == row.committed
                && summary.cycles == row.cycles
                && summary_value(&summary).render() == summary_value(row).render(),
            format!(
                "suite reconstruction of {} differs from run_suite_with",
                row.name
            ),
        );
        cycles += summary.cycles;
    }
    Ok(cycles)
}

struct ServePart {
    hit_rate: f64,
    prepares_per_miss: f64,
}

fn serve_part(t: &mut Tracer, args: &Args, report: &mut Report) -> Result<ServePart, String> {
    let daemon = t.span("serve.start", 0, |_| Daemon::start(&args.ser_repro, 1))?;
    for _ in 0..HEALTH_PROBES {
        let r = t.span("serve.healthz", 0, |_| {
            http_get(&daemon.addr, "/v1/healthz")
        });
        report.check(matches!(r, Ok(ref r) if r.status == 200), "healthz failed");
    }
    let reference = serve::load_reference()?;
    let mut jobs = serve::mix(args.seed);
    jobs.truncate(serve::shapes().len());
    let shared = SharedRuns::new(1024);
    let (mut hits, mut misses, mut campaign_jobs) = (0u64, 0u64, 0u64);
    for (j, job) in jobs.iter().enumerate() {
        let req = j as u64 + 1;
        let first = t.span("serve.http_request", req, |_| {
            serve::send(&daemon.addr, job)
        });
        let again = t.span("serve.http_request", req, |_| {
            serve::send(&daemon.addr, job)
        });
        let spec = t.span("serve.parse", req, |_| {
            let doc = ses_core::JsonValue::parse(&job.body).map_err(|e| e.to_string())?;
            let spec = JobSpec::parse(job.kind(), &doc).map_err(|e| e.message)?;
            let canonical = spec.canonical();
            Ok::<_, String>((spec, canonical))
        });
        let executed = spec.and_then(|(spec, _)| {
            t.span("serve.execute", req, |_| {
                spec.execute(&shared).map_err(|e| e.message)
            })
        });
        campaign_jobs += u64::from(job.kind() == "campaign");
        match (first, again, executed) {
            (Ok((false, a)), Ok((true, b)), Ok(c)) => {
                misses += 1;
                hits += 1;
                let want = reference.get(&job.key());
                report.check(
                    a == b && a == c.as_bytes() && want == Some(&crate::digest(&a)),
                    format!(
                        "{}: served, repeated and in-process answers or the reference differ",
                        job.key()
                    ),
                );
            }
            (a, b, c) => report.check(
                false,
                format!(
                    "{}: expected miss, hit and an in-process answer, got {:?} / {:?} / {:?}",
                    job.key(),
                    a.map(|x| x.0),
                    b.map(|x| x.0),
                    c.map(|x| x.len())
                ),
            ),
        }
    }
    let (stat_hits, stat_misses) = t.span("serve.stats", 0, |_| daemon.cache_stats())?;
    report.check(
        (stat_hits, stat_misses) == (hits, misses),
        format!("/v1/stats hits/misses {stat_hits}/{stat_misses}, client saw {hits}/{misses}"),
    );
    t.span("serve.stop", 0, |_| drop(daemon));
    Ok(ServePart {
        hit_rate: stat_hits as f64 / (stat_hits + stat_misses).max(1) as f64,
        prepares_per_miss: shared.len() as f64 / campaign_jobs.max(1) as f64,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut t = Tracer::new();
    let (inj, suite_cycles, serve) = t.span("bench.tour", 0, |t| -> Result<_, String> {
        let inj = inject_part(t, args.seed, &mut report)?;
        let suite_cycles = suite_part(t, &mut report)?;
        let serve = serve_part(t, args, &mut report)?;
        Ok((inj, suite_cycles, serve))
    })?;

    let total_s = t.total("bench.tour");
    let layers = t.layer_self_times();
    let self_sum: f64 = layers
        .iter()
        .filter(|(l, _)| **l != "bench")
        .map(|(_, s)| s)
        .sum();
    report.check(
        self_sum >= 0.95 * total_s,
        format!("layer self times cover {self_sum:.3} s of the {total_s:.3} s traced total"),
    );
    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("spans written to {path}");

    let c = &inj.counts;
    let replay_s = t.total("arch.replay");
    let fault_replay_s = t.total("pipeline.fault_replay");
    let inject_s = t.total("faults.inject");
    let traced_inject_s = t.total("faults.reconstruct");
    let golden_timing_s = t.total("pipeline.golden_timing");
    let n = f64::from(TRACE_INJECTIONS);
    let r = &mut report;
    r.metric(
        "workloads.synthesize_s",
        t.total("workloads.synthesize"),
        "s",
    );
    r.metric("arch.golden_emulate_s", t.total("arch.golden_emulate"), "s");
    r.metric("arch.replays", c.replays as f64, "count");
    r.metric("arch.replay_s", replay_s, "s");
    r.metric(
        "arch.replay_ns_per_instr",
        replay_s * 1e9 / (c.emulated * inj.golden_len).max(1) as f64,
        "ns",
    );
    r.metric(
        "arch.replay_fast_path_ratio",
        c.fast_path as f64 / c.replays.max(1) as f64,
        "ratio",
    );
    r.metric("pipeline.golden_timing_runs", inj.timing_runs, "count");
    r.metric("pipeline.golden_timing_s", golden_timing_s, "s");
    r.metric(
        "pipeline.snapshot_capture_s",
        t.total("pipeline.snapshot_capture"),
        "s",
    );
    r.metric(
        "pipeline.golden_ns_per_cycle",
        golden_timing_s * 1e9 / (inj.golden_cycles + suite_cycles) as f64,
        "ns",
    );
    r.metric("pipeline.fault_replay_s", fault_replay_s, "s");
    r.metric("pipeline.fault_cycles", c.cycles_simulated as f64, "count");
    r.metric(
        "pipeline.fault_ns_per_cycle",
        fault_replay_s * 1e9 / c.cycles_simulated.max(1) as f64,
        "ns",
    );
    r.metric(
        "pipeline.cycles_skip_fraction",
        c.cycles_skipped as f64 / (c.cycles_skipped + c.cycles_simulated).max(1) as f64,
        "ratio",
    );
    r.metric("avf.dead_map_s", t.total("avf.dead_map"), "s");
    r.metric("avf.span_avf_s", t.total("avf.span_avf"), "s");
    r.metric("avf.lifetime_spans_s", t.total("avf.lifetime_spans"), "s");
    r.metric("avf.region_map_s", t.total("avf.region_map"), "s");
    r.metric("faults.prepare_s", t.total("faults.prepare"), "s");
    r.metric("faults.inject_s", inject_s, "s");
    // Classify, fold and scheduling inside `run_detailed`: its serial
    // time less the rebuilt timing and functional replays. Both sides are
    // separate executions, so host noise can push it below zero.
    r.metric(
        "faults.orchestration_s",
        inject_s - fault_replay_s - replay_s,
        "s",
    );
    r.metric("core.run_workload_s", t.total("core.run_workload"), "s");
    r.metric("core.render_s", t.total("core.render"), "s");
    r.metric(
        "serve.parse_us",
        median(&t.durations("serve.parse")) * 1e6,
        "us",
    );
    r.metric("serve.cache_hit_rate", serve.hit_rate, "ratio");
    r.metric(
        "serve.execute_ms",
        median(&t.durations("serve.execute")) * 1e3,
        "ms",
    );
    r.metric("serve.prepares_per_miss", serve.prepares_per_miss, "ratio");
    r.metric(
        "serve.http_roundtrip_us",
        median(&t.durations("serve.healthz")) * 1e6,
        "us",
    );
    r.metric("trace.untraced_inject_per_s", n / inject_s, "1/s");
    r.metric("trace.traced_inject_per_s", n / traced_inject_s, "1/s");
    r.metric("trace.overhead_ratio", traced_inject_s / inject_s, "ratio");
    r.metric("trace.total_s", total_s, "s");
    r.metric("trace.layer_self_share", self_sum / total_s, "ratio");
    for layer in LAYERS {
        let name = format!("self.{layer}_s");
        r.metric(&name, layers.get(layer).copied().unwrap_or(0.0), "s");
    }
    Ok(report)
}
