//! Run-artifact builders: schema-versioned JSON documents for single
//! runs, suite sweeps, and fault-injection campaigns.
//!
//! Every artifact starts with the same header (`schema_version`,
//! `artifact`, `telemetry`) and contains only deterministic quantities at
//! [`TelemetryLevel::Summary`]: outcome counts, exact bit-cycle
//! decompositions, IPCs, histograms, convergence-pruning accounting —
//! all pure functions of the workload and configuration, byte-identical
//! across runs and thread counts. Wall-clock timings appear only at
//! [`TelemetryLevel::Full`], because they legitimately vary run to run
//! and would poison golden files.

use std::io::Write as _;
use std::path::Path;

use ses_avf::FalseDueCause;
use ses_faults::{DetailedReport, Outcome};
use ses_metrics::telemetry::{JsonValue, TelemetryLevel, SCHEMA_VERSION};
use ses_pipeline::{LifetimeHistogram, PipelineConfig, StageCounters};

use crate::run::{BenchSummary, WorkloadRun};

/// The common artifact preamble: `schema_version`, `artifact` and
/// `telemetry`.
pub fn header(artifact: &str, level: TelemetryLevel) -> JsonValue {
    let mut doc = JsonValue::object();
    doc.set("schema_version", SCHEMA_VERSION)
        .set("artifact", artifact)
        .set("telemetry", level.label());
    doc
}

/// Describes the machine configuration fields that shape the results.
pub fn machine_value(cfg: &PipelineConfig) -> JsonValue {
    let mut m = JsonValue::object();
    m.set("width", cfg.width)
        .set("iq_entries", cfg.iq_entries)
        .set("frontend_depth", cfg.frontend_depth)
        .set("issue_order", format!("{:?}", cfg.issue_order))
        .set("squash", format!("{:?}", cfg.squash))
        .set("throttle", format!("{:?}", cfg.throttle));
    m
}

/// One suite row as a JSON record.
pub fn summary_value(s: &BenchSummary) -> JsonValue {
    let mut row = JsonValue::object();
    row.set("name", s.name.as_str())
        .set("category", s.category.label())
        .set("committed", s.committed)
        .set("cycles", s.cycles)
        .set("ipc", s.ipc.value())
        .set("sdc_avf", s.sdc_avf.fraction())
        .set("due_avf", s.due_avf.fraction())
        .set("false_due_avf", s.false_due_avf.fraction())
        .set("squashes", s.squashes)
        .set("mispredict_ratio", s.mispredict_ratio)
        .set("wrong_path_fetched", s.wrong_path_fetched);
    let mut states = JsonValue::object();
    states
        .set("idle", s.states.idle)
        .set("unread", s.states.unread)
        .set("unace", s.states.unace)
        .set("ace", s.states.ace);
    row.set("states", states);
    let c = &s.coverage;
    let mut coverage = JsonValue::object();
    coverage
        .set("total_false", c.total_false)
        .set("pi_commit", c.pi_commit)
        .set("anti_pi", c.anti_pi)
        .set("pet512", c.pet512)
        .set("pi_register", c.pi_register)
        .set("pi_store", c.pi_store)
        .set("pi_memory", c.pi_memory);
    row.set("coverage", coverage);
    row
}

/// The full-suite artifact: one record per workload in suite order, plus
/// suite means. `details` (from [`workload_detail`]) ride along per
/// workload when the telemetry level asked for them; pass an empty slice
/// otherwise.
pub fn suite_artifact(
    cfg: &PipelineConfig,
    rows: &[BenchSummary],
    details: &[JsonValue],
    level: TelemetryLevel,
) -> JsonValue {
    assert!(
        details.is_empty() || details.len() == rows.len(),
        "details must be absent or one per row"
    );
    let mut doc = header("suite", level);
    doc.set("machine", machine_value(cfg));
    let workloads: Vec<JsonValue> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut row = summary_value(r);
            if let Some(d) = details.get(i) {
                row.set("detail", d.clone());
            }
            row
        })
        .collect();
    doc.set("workloads", workloads);
    let mut means = JsonValue::object();
    means
        .set("ipc", ses_metrics::mean(rows.iter().map(|r| r.ipc.value())))
        .set(
            "sdc_avf",
            ses_metrics::mean(rows.iter().map(|r| r.sdc_avf.fraction())),
        )
        .set(
            "due_avf",
            ses_metrics::mean(rows.iter().map(|r| r.due_avf.fraction())),
        );
    doc.set("means", means);
    doc
}

fn histogram_value(h: &LifetimeHistogram) -> JsonValue {
    let mut v = JsonValue::object();
    v.set("residencies", h.residencies())
        .set("valid_log2", h.valid())
        .set("exposed_log2", h.exposed())
        .set("ex_ace_log2", h.ex_ace());
    v
}

/// Per-workload AVF decomposition detail: the exact integer bit-cycle
/// classes, per-bit-kind AVFs, false-DUE causes, and lifetime histograms.
pub fn workload_detail(run: &WorkloadRun) -> JsonValue {
    let d = run.avf.decomposition();
    let mut detail = JsonValue::object();
    let mut bits = JsonValue::object();
    bits.set("total", d.total)
        .set("ace", d.ace)
        .set("unread", d.unread)
        .set("idle", d.idle);
    let mut unace = JsonValue::object();
    for (i, cause) in FalseDueCause::ALL.iter().enumerate() {
        unace.set(&format!("{cause:?}"), d.unace[i]);
    }
    bits.set("unace", unace);
    detail.set("bit_cycles", bits);
    let kinds: Vec<JsonValue> = run
        .avf
        .avf_by_bit_kind()
        .iter()
        .map(|k| {
            let mut v = JsonValue::object();
            v.set("kind", format!("{:?}", k.kind))
                .set("width", k.width)
                .set("avf", k.avf.fraction());
            v
        })
        .collect();
    detail.set("avf_by_bit_kind", kinds);
    detail.set(
        "lifetimes",
        histogram_value(&LifetimeHistogram::from_residencies(
            &run.result.residencies,
        )),
    );
    detail
}

/// Renders stage counters as bucket records plus totals.
pub fn stage_counters_value(st: &StageCounters) -> JsonValue {
    let bucket_value = |b: &ses_pipeline::StageBucket| {
        let mut v = JsonValue::object();
        v.set("start_cycle", b.start_cycle)
            .set("cycles", b.cycles)
            .set("fetched", b.fetched)
            .set("wrong_path_fetched", b.wrong_path_fetched)
            .set("inserted", b.inserted)
            .set("issued", b.issued)
            .set("committed", b.committed)
            .set("squashes", b.squashes)
            .set("squashed_instrs", b.squashed_instrs)
            .set("throttled_cycles", b.throttled_cycles)
            .set("occupancy_sum", b.occupancy_sum);
        v
    };
    let mut v = JsonValue::object();
    v.set("bucket_size", st.bucket_size())
        .set("totals", bucket_value(&st.totals()))
        .set(
            "buckets",
            st.buckets()
                .iter()
                .map(bucket_value)
                .collect::<Vec<JsonValue>>(),
        );
    v
}

/// The single-workload artifact: the summary row, the AVF decomposition
/// detail, and (when collected) per-stage pipeline counters.
pub fn run_artifact(
    cfg: &PipelineConfig,
    run: &WorkloadRun,
    stages: Option<&StageCounters>,
    level: TelemetryLevel,
) -> JsonValue {
    let mut doc = header("run", level);
    doc.set("machine", machine_value(cfg));
    doc.set("summary", summary_value(&run.summary()));
    doc.set("detail", workload_detail(run));
    if let Some(st) = stages {
        doc.set("stages", stage_counters_value(st));
    }
    doc
}

/// The fault-injection campaign artifact. Summary level contains only
/// thread-count-invariant quantities; `Full` adds wall-clock timings.
///
/// The `recovery` stanza (and the `recovered` outcome key) appear only
/// when the campaign ran with the idempotent-recovery policy, and the
/// `pruning` stanza only when the campaign ran with the
/// convergence-pruned executor — legacy (recovery-off, prune-off)
/// artifacts stay byte-identical. Every `pruning` field is a pure
/// function of the fault sequence, so the stanza is safe at Summary
/// level.
pub fn campaign_artifact(
    workload: &str,
    report: &DetailedReport,
    iq_entries: usize,
    level: TelemetryLevel,
) -> JsonValue {
    let recovery = report.recovery();
    let summary = report.summary();
    let mut doc = header("campaign", level);
    doc.set("workload", workload)
        .set("injections", summary.total());
    let mut outcomes = JsonValue::object();
    for o in Outcome::ALL {
        if o == Outcome::Recovered && recovery.is_none() {
            continue;
        }
        outcomes.set(o.label(), summary.count(o));
    }
    doc.set("outcomes", outcomes);
    doc.set("sdc_avf_estimate", summary.sdc_avf_estimate())
        .set("due_avf_estimate", summary.due_avf_estimate());
    if let Some(rec) = recovery {
        let mut r = JsonValue::object();
        r.set("recovered", rec.recovered)
            .set("fallback_due", rec.fallback_due)
            .set("reexec_instructions", rec.reexec_instructions)
            .set("latency_cycles", rec.latency_cycles)
            .set("regions", rec.regions)
            .set("mean_region_len", rec.mean_region_len)
            .set("recovered_fraction", rec.recovered_fraction())
            .set("mean_reexec_instructions", rec.mean_reexec_instructions())
            .set("mean_latency_cycles", rec.mean_latency_cycles());
        doc.set("recovery", r);
    }
    if let Some(prune) = report.prune() {
        let perf = report.perf();
        let mut pr = JsonValue::object();
        pr.set("idle_skips", prune.idle_skips)
            .set("fp_stops", prune.gate_stops)
            .set("replay_cycles", perf.cycles_simulated)
            .set("cycles_saved", prune.cycles_saved)
            .set("stop_fraction", prune.stop_fraction(perf.injections))
            .set("mean_replay_cycles", perf.mean_cycles_simulated())
            .set(
                "mean_cycles_saved",
                prune.mean_cycles_saved(perf.injections),
            );
        doc.set("pruning", pr);
    }
    let kinds: Vec<JsonValue> = report
        .failure_rate_by_bit_kind()
        .iter()
        .map(|(kind, rate, n)| {
            let mut v = JsonValue::object();
            v.set("kind", format!("{kind:?}"))
                .set("failure_rate", *rate)
                .set("strikes", *n);
            v
        })
        .collect();
    doc.set("failure_rate_by_bit_kind", kinds);
    doc.set(
        "failure_rate_by_slot_quarter",
        report
            .failure_rate_by_slot_quarter(iq_entries)
            .iter()
            .map(|&r| JsonValue::F64(r))
            .collect::<Vec<JsonValue>>(),
    );
    let perf = report.perf();
    let mut p = JsonValue::object();
    p.set("checkpoints", perf.checkpoints)
        .set("checkpoint_interval", perf.checkpoint_interval)
        .set("cycles_simulated", perf.cycles_simulated)
        .set("cycles_skipped", perf.cycles_skipped)
        .set("replays", perf.replays)
        .set("replay_fast_path", perf.replay_fast_path);
    if level == TelemetryLevel::Full {
        // Wall-clock varies with machine load; never let it into
        // golden-comparable artifacts.
        p.set("prepare_wall_s", perf.prepare_wall.as_secs_f64())
            .set("inject_wall_s", perf.inject_wall.as_secs_f64());
    }
    doc.set("perf", p);
    if level == TelemetryLevel::Full {
        let samples: Vec<JsonValue> = report
            .samples()
            .iter()
            .map(|(f, o)| {
                let mut v = JsonValue::object();
                v.set("cycle", f.cycle.as_u64())
                    .set("slot", f.slot)
                    .set("bit", f.bit)
                    .set("outcome", o.label());
                v
            })
            .collect();
        doc.set("samples", samples);
    }
    doc
}

fn rate_point_value(p: &ses_metrics::RatePoint) -> JsonValue {
    let mut v = JsonValue::object();
    v.set("fit", p.fit.value())
        .set("mttf_years", p.mttf.years())
        .set("mitf_instructions", p.mitf.instructions())
        .set("ipc_over_avf", p.ipc_over_avf);
    v
}

/// The adaptive stratified campaign artifact. Every quantity here is a
/// pure function of workload, configuration and seed — planning is
/// single-threaded and evaluation order-preserving — so the artifact is
/// byte-identical across worker-thread counts and across mid-campaign
/// stop/resume. No wall-clock fields appear at any level.
pub fn adaptive_campaign_artifact(
    workload: &str,
    cfg: &ses_faults::AdaptiveCampaignConfig,
    report: &ses_faults::AdaptiveCampaignReport,
    model: &ses_metrics::ReliabilityModel,
    level: TelemetryLevel,
) -> JsonValue {
    let mut doc = header("adaptive_campaign", level);
    doc.set("workload", workload)
        .set("metric", report.metric.label())
        .set("ipc", report.ipc)
        .set("space_size", report.space_size)
        .set("masked_size", report.masked_size)
        .set("strata_count", report.strata.len());
    let mut c = JsonValue::object();
    c.set("target_halfwidth", cfg.adaptive.target_halfwidth)
        .set("min_per_stratum", cfg.adaptive.min_per_stratum)
        .set("round_budget", cfg.adaptive.round_budget)
        .set("max_rounds", cfg.adaptive.max_rounds)
        .set("exhaust_threshold", cfg.adaptive.exhaust_threshold)
        .set("seed", cfg.adaptive.seed);
    doc.set("config", c);
    // The spatial-strike stanza appears only in multi-bit campaigns, so
    // existing single-bit artifacts stay byte-identical.
    if let Some(p) = &cfg.pattern {
        doc.set("pattern_model", pattern_model_value(p));
    }
    doc.set("total_trials", report.total_trials)
        .set("rounds", report.rounds)
        .set(
            "uniform_equivalent_trials",
            report.uniform_equivalent_trials(),
        )
        .set("uniform_savings", report.uniform_savings());
    let est = &report.estimate;
    let (plo, phi) = est.interval();
    let (ulo, uhi) = est.union_bound();
    let mut e = JsonValue::object();
    e.set("avf", est.estimate)
        .set("halfwidth", est.halfwidth)
        .set("interval_lo", plo)
        .set("interval_hi", phi)
        .set("union_lo", ulo)
        .set("union_hi", uhi);
    doc.set("estimate", e);
    doc.set("rates", rate_interval_value(&report.rate_interval(model)));
    let strata: Vec<JsonValue> = report
        .strata
        .iter()
        .map(|s| {
            let mut v = JsonValue::object();
            v.set("stratum", s.label.as_str())
                .set("size", s.size)
                .set("weight", s.weight)
                .set("trials", s.state.trials)
                .set("events", s.state.events)
                .set("proportion", s.state.proportion())
                .set("halfwidth", s.state.halfwidth())
                .set("exhausted", s.state.exhausted)
                .set(
                    "stopped_round",
                    s.state.stopped_round.map(i64::from).unwrap_or(-1),
                );
            v
        })
        .collect();
    doc.set("strata", strata);
    let trajectory: Vec<JsonValue> = report
        .trajectory
        .iter()
        .map(|t| {
            let mut v = JsonValue::object();
            v.set("round", t.round)
                .set("trials", t.trials)
                .set("cumulative_trials", t.cumulative_trials)
                .set("estimate", t.estimate)
                .set("halfwidth", t.halfwidth)
                .set("active_strata", t.active_strata);
            v
        })
        .collect();
    doc.set("ci_trajectory", trajectory);
    doc
}

/// The spatial-strike model stanza shared by the adaptive and ECC
/// campaign artifacts.
fn pattern_model_value(p: &ses_faults::PatternModel) -> JsonValue {
    let mut v = JsonValue::object();
    v.set("ecc_scheme", p.domain.scheme.label())
        .set("interleave", p.domain.interleave)
        .set("check_bits", p.domain.check_bits());
    v.set("distribution", distribution_value(&p.distribution));
    v
}

fn distribution_value(d: &ses_faults::PatternDistribution) -> JsonValue {
    let mut v = JsonValue::object();
    v.set("single_permille", d.single)
        .set("double_adjacent_permille", d.double_adjacent)
        .set("triple_adjacent_permille", d.triple_adjacent)
        .set("random_double_permille", d.random_double);
    v
}

fn rate_interval_value(rates: &ses_metrics::RateInterval) -> JsonValue {
    let mut r = JsonValue::object();
    r.set("avf_lo", rates.avf_lo)
        .set("avf", rates.avf)
        .set("avf_hi", rates.avf_hi);
    if let Some(p) = &rates.point {
        r.set("point", rate_point_value(p));
    }
    if let Some(p) = &rates.pessimistic {
        r.set("pessimistic", rate_point_value(p));
    }
    if let Some(p) = &rates.optimistic {
        r.set("optimistic", rate_point_value(p));
    }
    r
}

/// The ECC-domain campaign artifact: the sampled strike dispositions and
/// outcome counts, the analytic residual model they are validated
/// against, and the DUE/SDC FIT intervals under the given reliability
/// model. Deterministic in workload, configuration and seed.
pub fn ecc_campaign_artifact(
    workload: &str,
    cfg: &ses_faults::EccCampaignConfig,
    report: &ses_faults::EccCampaignReport,
    ipc: f64,
    model: &ses_metrics::ReliabilityModel,
    level: TelemetryLevel,
) -> JsonValue {
    let mut doc = header("ecc_campaign", level);
    doc.set("workload", workload)
        .set("ipc", ipc)
        .set("injections", cfg.injections)
        .set("seed", cfg.seed);
    doc.set(
        "pattern_model",
        pattern_model_value(&ses_faults::PatternModel {
            distribution: cfg.distribution,
            domain: cfg.domain,
        }),
    );
    let mut e = JsonValue::object();
    e.set("corrected", report.corrected)
        .set("detected", report.detected)
        .set("silent", report.silent);
    doc.set("ecc_dispositions", e);
    let mut pc = JsonValue::object();
    for (class, n) in ses_sampler::PatternClass::ALL.iter().zip(report.per_class) {
        pc.set(class.label(), n);
    }
    doc.set("strikes_per_class", pc);
    let summary = &report.outcomes;
    let mut outcomes = JsonValue::object();
    for o in Outcome::ALL {
        // ECC campaigns have no recovery policy, so the `recovered` key
        // never appears and existing artifacts stay byte-identical.
        if o == Outcome::Recovered {
            continue;
        }
        outcomes.set(o.label(), summary.count(o));
    }
    doc.set("outcomes", outcomes);
    doc.set("due_rate", report.due_rate())
        .set("sdc_rate", report.sdc_rate())
        .set("due_rate_ci95", report.ci95(report.due_rate()))
        .set("sdc_rate_ci95", report.ci95(report.sdc_rate()));
    let mut analytic = JsonValue::object();
    analytic
        .set("corrected", report.analytic.corrected)
        .set("detected", report.analytic.detected)
        .set("silent", report.analytic.silent);
    doc.set("analytic_residual", analytic);
    let ipc_t = ses_types::Ipc::new(ipc);
    doc.set(
        "due_rates",
        rate_interval_value(&model.rate_interval(
            ipc_t,
            report.due_rate(),
            report.ci95(report.due_rate()),
        )),
    );
    doc.set(
        "sdc_rates",
        rate_interval_value(&model.rate_interval(
            ipc_t,
            report.sdc_rate(),
            report.ci95(report.sdc_rate()),
        )),
    );
    doc
}

/// The analytic ECC grid artifact pinned by `tests/golden/campaign_ecc.json`:
/// for each workload (with its measured read probability) × technology
/// node × environment × scheme, the residual DUE/SDC AVFs and the
/// FIT/MTTF they imply. Every rate crosses FIT → MTTF through the shared
/// [`ses_metrics::fit_to_mttf`], and every residual fraction is exact
/// (full class enumeration), so the artifact is a pure function of its
/// inputs.
///
/// `workloads` rows are `(name, ipc, read_probability, probe_injections)`.
pub fn ecc_grid_artifact(
    distribution: &ses_faults::PatternDistribution,
    workloads: &[(String, f64, f64, u32)],
    level: TelemetryLevel,
) -> JsonValue {
    use ses_mem::{EccDomain, EccScheme};
    use ses_metrics::{fit_to_mttf, Environment, ReliabilityModel, TechNode};

    let mut doc = header("ecc_grid", level);
    doc.set("distribution", distribution_value(distribution));
    let rows: Vec<JsonValue> = workloads
        .iter()
        .map(|(name, ipc, p_read, probes)| {
            let mut w = JsonValue::object();
            w.set("workload", name.as_str())
                .set("ipc", *ipc)
                .set("read_probability", *p_read)
                .set("probe_injections", *probes);
            let nodes: Vec<JsonValue> = TechNode::ALL
                .iter()
                .flat_map(|&node| Environment::ALL.iter().map(move |&env| (node, env)))
                .map(|(node, env)| {
                    let model = ReliabilityModel::for_scenario(node, env);
                    let raw = model.raw_rate();
                    let mut cell = JsonValue::object();
                    cell.set("node", node.label())
                        .set("environment", env.label())
                        .set("raw_fit", raw.value());
                    let schemes: Vec<JsonValue> = EccScheme::ALL
                        .iter()
                        .map(|&scheme| {
                            let domain = EccDomain::new(scheme);
                            let res = ses_faults::ResidualModel::analytic(distribution, &domain);
                            let due_avf = p_read * res.detected;
                            let sdc_avf = p_read * res.silent;
                            let fit_due = raw.value() * due_avf;
                            let fit_sdc = raw.value() * sdc_avf;
                            let mttf_years = |fit: f64| {
                                fit_to_mttf(ses_types::Fit::new(fit))
                                    .map(|m| m.years())
                                    .unwrap_or(-1.0)
                            };
                            let mut s = JsonValue::object();
                            s.set("scheme", scheme.label())
                                .set("check_bits", domain.check_bits())
                                .set("due_avf", due_avf)
                                .set("sdc_avf", sdc_avf)
                                .set("fit_due", fit_due)
                                .set("fit_sdc", fit_sdc)
                                .set("mttf_due_years", mttf_years(fit_due))
                                .set("mttf_sdc_years", mttf_years(fit_sdc));
                            s
                        })
                        .collect();
                    cell.set("schemes", schemes);
                    cell
                })
                .collect();
            w.set("scenarios", nodes);
            w
        })
        .collect();
    doc.set("workloads", rows);
    doc
}

/// The differential-fuzz artifact: the campaign seed, programs checked,
/// injection cross-checks, committed instructions and the failure count.
/// Reproducers are files the CLI writes; the artifact only counts them.
pub fn fuzz_artifact(
    seed: u64,
    report: &ses_oracle::FuzzReport,
    level: TelemetryLevel,
) -> JsonValue {
    let mut doc = header("fuzz", level);
    doc.set("seed", seed)
        .set("iterations", report.iterations)
        .set("injection_checks", report.injection_checks)
        .set("total_committed", report.total_committed)
        .set("failures", report.failures.len() as u64);
    doc
}

/// Writes a rendered artifact to `path` (atomically enough for tests:
/// full render first, single write call).
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_artifact(path: &Path, doc: &JsonValue) -> std::io::Result<()> {
    let rendered = doc.render();
    let mut f = std::fs::File::create(path)?;
    f.write_all(rendered.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_workload;
    use ses_workloads::WorkloadSpec;

    #[test]
    fn run_artifact_is_deterministic_and_versioned() {
        let spec = WorkloadSpec::quick("telemetry-test", 5);
        let cfg = PipelineConfig::default();
        let a = run_workload(&spec, &cfg).unwrap();
        let b = run_workload(&spec, &cfg).unwrap();
        let doc_a = run_artifact(&cfg, &a, None, TelemetryLevel::Summary);
        let doc_b = run_artifact(&cfg, &b, None, TelemetryLevel::Summary);
        assert_eq!(doc_a.render(), doc_b.render());
        let text = doc_a.render();
        assert!(text.contains("\"schema_version\": 1"));
        assert!(text.contains("\"artifact\": \"run\""));
        assert!(text.contains("\"bit_cycles\""));
    }

    #[test]
    fn suite_artifact_carries_rows_in_order() {
        let cfg = PipelineConfig::default();
        let runs: Vec<_> = ["alpha", "beta"]
            .iter()
            .map(|n| {
                run_workload(&WorkloadSpec::quick(n, 3), &cfg)
                    .unwrap()
                    .summary()
            })
            .collect();
        let doc = suite_artifact(&cfg, &runs, &[], TelemetryLevel::Summary);
        let text = doc.render();
        let a = text.find("\"alpha\"").unwrap();
        let b = text.find("\"beta\"").unwrap();
        assert!(a < b, "suite order must be preserved");
        assert!(text.contains("\"means\""));
    }

    #[test]
    fn decomposition_detail_conserves_bit_cycles() {
        let cfg = PipelineConfig::default();
        let run = run_workload(&WorkloadSpec::quick("conserve", 7), &cfg).unwrap();
        let d = run.avf.decomposition();
        assert_eq!(
            d.ace + d.unace_total() + d.unread + d.idle,
            d.total,
            "bit-cycle classes must partition the total"
        );
        assert_eq!(d.ace_by_kind.iter().sum::<u64>(), d.ace);
    }
}
