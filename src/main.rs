//! `ser-repro` — command-line front end for the soft-error-rate
//! reproduction suite.
//!
//! `ser-repro help` lists every subcommand and its flags.
//!
//! `inject`, `suite`, `ecc-grid`, `fuzz` and the recovery/ECC forms of
//! `campaign` parse into the same `ses_core::job::JobSpec` the daemon
//! serves: `--flag-name value` is the job's JSON field `flag_name`.
//!
//! Every subcommand additionally accepts `--json <path>` to write a
//! schema-versioned run artifact and `--telemetry off|summary|full` to
//! pick how much goes into it (see EXPERIMENTS.md for the schema).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ses_core::job::{
    parse_detection, CampaignFlavor, EccFields, Fields, JobOutput, JobSpec, Machine, SharedRuns,
};
use ses_core::telemetry as artifact;
use ses_core::{
    compare_suites, mean, run_fuzz, run_workload, spec_by_name, splitmix64, suite,
    AdaptiveCampaignConfig, AdaptiveConfig, AdaptiveSession, BenchSummary, Campaign,
    CampaignConfig, DetailedReport, DetectionModel, EccCampaignConfig, EccCampaignReport,
    EccDomain, EccScheme, FalseDueCause, JsonValue, MetricKind, PatternClass, PatternDistribution,
    Pipeline, PipelineConfig, RegionFault, ReliabilityModel, Table, Technique, TelemetryLevel,
};
use ses_pipeline::Observers;
use ses_types::Reg;

/// The `--json` / `--telemetry` flags shared by every subcommand.
struct Telemetry {
    json: Option<PathBuf>,
    level: TelemetryLevel,
}

impl Telemetry {
    /// Strips the shared telemetry flags out of `args`, returning the
    /// remaining (subcommand-specific) arguments.
    fn extract(args: &[String]) -> Result<(Vec<String>, Telemetry), String> {
        let mut rest = Vec::new();
        let mut json = None;
        let mut level = TelemetryLevel::Summary;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => {
                    json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
                }
                "--telemetry" => {
                    level = TelemetryLevel::parse(it.next().ok_or("--telemetry needs a level")?)?;
                }
                _ => rest.push(a.clone()),
            }
        }
        if json.is_some() && !level.enabled() {
            return Err("--json needs telemetry; drop '--telemetry off'".into());
        }
        Ok((rest, Telemetry { json, level }))
    }

    /// Whether an artifact should be produced at all.
    fn active(&self) -> bool {
        self.json.is_some()
    }

    /// Writes the artifact if `--json` was given.
    fn emit(&self, doc: &JsonValue) -> Result<(), String> {
        if let Some(path) = &self.json {
            artifact::write_artifact(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }
}

/// Parses the `--squash` / `--throttle` machine flags of `bench` and
/// `compare`.
fn parse_machine(args: &[String]) -> Result<PipelineConfig, String> {
    let mut fields = Fields::from_args("machine", args)?;
    let machine = Machine::parse(&mut fields)?;
    fields.finish()?;
    Ok(machine.config())
}

/// Tokenizes a job command's arguments; `--json` / `--telemetry` set the
/// job's `level`.
fn job_fields(kind: &str, args: &[String], tel: &Telemetry) -> Result<Fields, String> {
    let mut args = args.to_vec();
    if tel.active() {
        args.extend(["--level".to_string(), tel.level.label().to_string()]);
    }
    Ok(Fields::from_args(kind, &args)?)
}

/// `inject`, `suite`, `ecc-grid` and the recovery/ECC forms of
/// `campaign`: the arguments parse into the job the daemon serves, which
/// runs and reports exactly as a served job would.
fn cmd_job(kind: &str, args: &[String], tel: &Telemetry) -> Result<(), String> {
    let job = JobSpec::from_fields(kind, job_fields(kind, args, tel)?)?;
    emit_output(&job.run(&SharedRuns::default())?, tel)
}

/// Prints a job's text report and writes its artifact if `--json` was
/// given; both read the same typed output.
fn emit_output(output: &JobOutput, tel: &Telemetry) -> Result<(), String> {
    match output {
        JobOutput::Campaign {
            flavor,
            config,
            report,
            ..
        } => print_campaign(*flavor, config, report),
        JobOutput::EccCampaign {
            config,
            report,
            baseline_ipc,
            model,
            ..
        } => print_ecc_campaign(config, report, *baseline_ipc, model),
        JobOutput::Suite { rows, .. } => print_suite(rows),
        JobOutput::EccGrid {
            distribution,
            workloads,
        } => print_ecc_grid(distribution, workloads),
        JobOutput::Fuzz { seed, report } => println!(
            "fuzz: seed {seed}  {} programs checked  {} injection cross-checks  {} committed instructions",
            report.iterations, report.injection_checks, report.total_committed
        ),
    }
    if tel.active() {
        tel.emit(&output.artifact(tel.level))?;
    }
    Ok(())
}

fn cmd_list(tel: &Telemetry) -> Result<(), String> {
    let mut t = Table::new(vec!["name", "class", "working set", "stride", "miss gate"]);
    for s in suite() {
        t.row(vec![
            s.name.clone(),
            s.category.label().into(),
            format!("{} KB", s.working_set_bytes / 1024),
            format!("{} B", s.stride_bytes),
            format!("1/{}", s.far_gate_mask + 1),
        ]);
    }
    println!("{t}");
    if tel.active() {
        let mut doc = artifact::header("list", tel.level);
        let rows: Vec<JsonValue> = suite()
            .iter()
            .map(|s| {
                let mut v = JsonValue::object();
                v.set("name", s.name.as_str())
                    .set("category", s.category.label())
                    .set("working_set_bytes", s.working_set_bytes)
                    .set("stride_bytes", s.stride_bytes);
                v
            })
            .collect();
        doc.set("workloads", rows);
        tel.emit(&doc)?;
    }
    Ok(())
}

fn print_suite(rows: &[BenchSummary]) {
    let mut t = Table::new(vec![
        "bench",
        "class",
        "IPC",
        "SDC AVF",
        "DUE AVF",
        "false DUE",
        "squashes",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            r.category.label().into(),
            format!("{:.2}", r.ipc.value()),
            r.sdc_avf.to_string(),
            r.due_avf.to_string(),
            r.false_due_avf.to_string(),
            r.squashes.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "averages: IPC {:.2}  SDC AVF {:.1}%  DUE AVF {:.1}%",
        mean(rows.iter().map(|r| r.ipc.value())),
        mean(rows.iter().map(|r| r.sdc_avf.percent())),
        mean(rows.iter().map(|r| r.due_avf.percent())),
    );
}

fn cmd_bench(name: &str, args: &[String], tel: &Telemetry) -> Result<(), String> {
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
    let cfg = parse_machine(args)?;
    let run = run_workload(&spec, &cfg).map_err(|e| e.to_string())?;
    let s = run.summary();

    println!("== {name} ==");
    println!(
        "committed {}  cycles {}  IPC {:.3}  mispredict {:.1}%  squashes {}",
        s.committed,
        s.cycles,
        s.ipc.value(),
        s.mispredict_ratio * 100.0,
        s.squashes
    );
    println!(
        "SDC AVF {}   DUE AVF {}   false DUE {}",
        s.sdc_avf, s.due_avf, s.false_due_avf
    );
    let st = s.states;
    println!(
        "queue state: idle {:.0}%  unread {:.0}%  un-ACE {:.0}%  ACE {:.0}%",
        st.idle * 100.0,
        st.unread * 100.0,
        st.unace * 100.0,
        st.ace * 100.0
    );

    println!("\nfalse-DUE causes:");
    for c in FalseDueCause::ALL {
        let v = run.avf.false_due_cause(c);
        if v > 0 {
            println!("  {:20?} {v}", c);
        }
    }

    println!("\nper-bit-field SDC AVF:");
    let mut t = Table::new(vec!["field", "bits", "AVF"]);
    for k in run.avf.avf_by_bit_kind() {
        t.row(vec![
            format!("{:?}", k.kind),
            k.width.to_string(),
            k.avf.to_string(),
        ]);
    }
    println!("{t}");

    println!("DUE AVF under cumulative tracking:");
    let mut t = Table::new(vec!["configuration", "DUE AVF"]);
    t.row(vec!["parity only".into(), run.avf.due_avf().to_string()]);
    t.row(vec![
        "pi@commit + anti-pi".into(),
        run.avf.due_avf_with_tracking(None, &run.dead).to_string(),
    ]);
    for (label, tech) in [
        ("+ PET 512", Technique::Pet(512)),
        ("+ pi per register", Technique::PiRegister),
        ("+ pi to store commit", Technique::PiStoreCommit),
        ("+ pi on memory", Technique::PiMemory),
    ] {
        t.row(vec![
            label.into(),
            run.avf
                .due_avf_with_tracking(Some(tech), &run.dead)
                .to_string(),
        ]);
    }
    println!("{t}");

    // Exposure timeline sparkline.
    let tl = run.avf.timeline();
    let peak = tl.iter().map(|p| p.valid).max().unwrap_or(1).max(1);
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let line: String = tl
        .iter()
        .map(|p| glyphs[(p.valid * 7 / peak) as usize])
        .collect();
    println!("exposure timeline (valid bit-cycles per interval):\n[{line}]");
    if tel.active() {
        // Stage counters are Full-level extras: re-run the (deterministic)
        // timing model with the collector attached; ~64 buckets per run.
        let stages = if tel.level == TelemetryLevel::Full {
            let bucket = (run.result.cycles / 64).max(1);
            let observers = Observers {
                stage_bucket: Some(bucket),
                ..Observers::default()
            };
            Pipeline::new(cfg.clone())
                .run_golden(&run.program, &run.trace, DetectionModel::None, observers)
                .stages
        } else {
            None
        };
        tel.emit(&artifact::run_artifact(
            &cfg,
            &run,
            stages.as_ref(),
            tel.level,
        ))?;
    }
    Ok(())
}

fn print_campaign(flavor: CampaignFlavor, config: &CampaignConfig, detailed: &DetailedReport) {
    let report = detailed.summary();
    print!("{report}");
    if flavor == CampaignFlavor::Plain {
        let (metric, p) = match config.detection {
            DetectionModel::None => ("SDC", report.sdc_avf_estimate()),
            _ => ("DUE", report.due_avf_estimate()),
        };
        println!(
            "statistical {metric} AVF: {:.1}% +/- {:.1}%",
            p * 100.0,
            report.ci95(p) * 100.0
        );
        return;
    }
    match &config.detect_latency {
        Some(d) => println!("detection latency: {d} cycles"),
        None => println!("detection latency: 0 cycles (immediate)"),
    }
    println!("recovery policy: {}", config.recovery.label());
    if let Some(r) = detailed.recovery() {
        println!(
            "idempotent regions: {} (mean length {:.1} instructions)",
            r.regions, r.mean_region_len
        );
        println!(
            "recovered {} of {} detections ({:.1}%), machine-check fallback {}",
            r.recovered,
            r.detected(),
            r.recovered_fraction() * 100.0,
            r.fallback_due
        );
        println!(
            "re-execution cost: {} instructions total, {:.1} per recovery (mean latency {:.1} cycles)",
            r.reexec_instructions,
            r.mean_reexec_instructions(),
            r.mean_latency_cycles()
        );
    }
}

fn print_ecc_campaign(
    cfg: &EccCampaignConfig,
    report: &EccCampaignReport,
    baseline_ipc: f64,
    model: &ReliabilityModel,
) {
    println!(
        "ecc campaign: {} strikes under {} ({} check bits/word)",
        cfg.injections,
        cfg.domain.label(),
        cfg.domain.check_bits()
    );
    for (class, n) in PatternClass::ALL.iter().zip(report.per_class) {
        println!("  {:16} {n}", class.label());
    }
    println!(
        "dispositions: corrected {}  detected {}  silent {}",
        report.corrected, report.detected, report.silent
    );
    println!(
        "analytic residual: corrected {:.4}  detected {:.4}  silent {:.6}",
        report.analytic.corrected, report.analytic.detected, report.analytic.silent
    );
    println!(
        "measured rates: DUE {:.2}% +/- {:.2}%   SDC {:.2}% +/- {:.2}%",
        report.due_rate() * 100.0,
        report.ci95(report.due_rate()) * 100.0,
        report.sdc_rate() * 100.0,
        report.ci95(report.sdc_rate()) * 100.0
    );
    let rates = model.rate_interval(
        ses_core::Ipc::new(baseline_ipc),
        report.due_rate(),
        report.ci95(report.due_rate()),
    );
    if let Some(pt) = rates.point {
        println!(
            "DUE rates: {:.4} FIT, MTTF {:.2e} years",
            pt.fit.value(),
            pt.mttf.years()
        );
    } else {
        println!("DUE rates: no machine checks observed; FIT interval starts at 0");
    }
}

/// `campaign` — with `--detect-latency`, `--recovery`, `--ecc` or
/// `--pattern-model` (and no `--adaptive`) this is the served campaign
/// job. Otherwise it is a confidence-targeted campaign: adaptive
/// stratified sampling (`--adaptive`) or uniform sampling run to the same
/// target half-width, so the two budgets are directly comparable. That
/// path is CLI-only and keeps its own defaults.
fn cmd_campaign(args: &[String], tel: &Telemetry) -> Result<(), String> {
    let mut fields = Fields::from_args("campaign", args)?;
    let adaptive = fields.bool("adaptive")?.unwrap_or(false);
    let latency = fields.has("detect_latency") || fields.has("recovery");
    if !adaptive && (latency || fields.has("ecc") || fields.has("pattern_model")) {
        return cmd_job("campaign", args, tel);
    }
    if latency {
        return Err("--detect-latency/--recovery do not combine with --adaptive".into());
    }
    let name = fields
        .string("workload")?
        .ok_or("campaign needs a benchmark name")?;
    let spec = spec_by_name(&name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
    let target_halfwidth = fields
        .parsed("target_halfwidth", |s| {
            s.parse::<f64>().map_err(|e| format!("bad half-width: {e}"))
        })?
        .unwrap_or(0.05);
    if !(target_halfwidth > 0.0 && target_halfwidth < 1.0) {
        return Err("--target-halfwidth must be in (0, 1)".into());
    }
    let gate_vs_uniform = fields.bool("gate_vs_uniform")?.unwrap_or(false);
    let detection = fields
        .parsed("model", parse_detection)?
        .map_or(DetectionModel::None, |(model, _)| model);
    let seed = fields.u64("seed")?.unwrap_or(2026);
    let max_injections = fields.u32("injections")?.unwrap_or(200_000);
    let prune = fields.bool("prune")?.unwrap_or(false);
    let strikes = EccFields::parse(&mut fields)?;
    fields.finish()?;

    let metric = match detection {
        DetectionModel::None => MetricKind::SdcAvf,
        _ => MetricKind::DueAvf,
    };
    let config = CampaignConfig {
        seed,
        detection,
        prune,
        ..CampaignConfig::default()
    };
    let campaign = Campaign::prepare(&spec, config).map_err(|e| e.to_string())?;
    let model = strikes.reliability();
    let pattern = strikes.pattern();

    if !adaptive {
        let uniform = campaign.run_uniform_to_target(target_halfwidth, metric, 64, max_injections);
        println!(
            "uniform campaign: {} trials, {} {:.2}% +/- {:.2}% (target {:.2}%)",
            uniform.trials,
            metric.label(),
            uniform.proportion * 100.0,
            uniform.halfwidth * 100.0,
            target_halfwidth * 100.0
        );
        if tel.active() {
            let mut doc = artifact::header("uniform_campaign", tel.level);
            doc.set("workload", name.as_str())
                .set("metric", metric.label())
                .set("target_halfwidth", target_halfwidth)
                .set("trials", uniform.trials)
                .set("events", uniform.events)
                .set("proportion", uniform.proportion)
                .set("halfwidth", uniform.halfwidth);
            tel.emit(&doc)?;
        }
        return Ok(());
    }

    let cfg = AdaptiveCampaignConfig {
        adaptive: AdaptiveConfig {
            target_halfwidth,
            seed,
            ..AdaptiveConfig::default()
        },
        metric,
        pattern,
    };
    if let Some(p) = &cfg.pattern {
        println!(
            "spatial strikes under {} ({} check bits/word)",
            p.domain.label(),
            p.domain.check_bits()
        );
    }
    let report = AdaptiveSession::new(&campaign, cfg.clone()).run();
    let est = &report.estimate;
    println!(
        "adaptive campaign: {} trials over {} strata in {} rounds",
        report.total_trials,
        report.strata.len(),
        report.rounds
    );
    println!(
        "{} estimate {:.2}% +/- {:.2}% (aggregate 95% CI)",
        metric.label(),
        est.estimate * 100.0,
        est.halfwidth * 100.0
    );
    let equivalent = report.uniform_equivalent_trials();
    println!(
        "uniform sampling would need ~{} trials for the same half-width ({:.1}x savings)",
        equivalent,
        report.uniform_savings()
    );
    let rates = report.rate_interval(&model);
    if let Some(p) = rates.point {
        let pess = rates.pessimistic.unwrap_or(p);
        println!(
            "rates: {:.3} FIT (<= {:.3}), MITF {:.3e} instructions (>= {:.3e})",
            p.fit.value(),
            pess.fit.value(),
            p.mitf.instructions(),
            pess.mitf.instructions()
        );
    } else {
        println!("rates: no events observed; FIT interval starts at 0");
    }
    if tel.active() {
        tel.emit(&artifact::adaptive_campaign_artifact(
            &name, &cfg, &report, &model, tel.level,
        ))?;
    }
    if gate_vs_uniform && report.total_trials >= equivalent {
        return Err(format!(
            "adaptive campaign used {} trials but uniform would need only {}",
            report.total_trials, equivalent
        ));
    }
    Ok(())
}

fn print_ecc_grid(distribution: &PatternDistribution, workloads: &[(String, f64, f64, u32)]) {
    for (name, ipc, p_read, probes) in workloads {
        println!("{name}: P(read) = {p_read:.4} over {probes} probes, IPC {ipc:.3}");
    }
    let mut t = Table::new(vec![
        "scheme",
        "check bits",
        "residual detected",
        "residual silent",
    ]);
    for &scheme in &EccScheme::ALL {
        let domain = EccDomain::new(scheme);
        let res = ses_core::ResidualModel::analytic(distribution, &domain);
        t.row(vec![
            domain.label(),
            domain.check_bits().to_string(),
            format!("{:.6}", res.detected),
            format!("{:.6}", res.silent),
        ]);
    }
    println!("{t}");
}

fn cmd_pet(name: &str, tel: &Telemetry) -> Result<(), String> {
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
    let run = run_workload(&spec, &PipelineConfig::default()).map_err(|e| e.to_string())?;
    let mut t = Table::new(vec![
        "PET entries",
        "FDD-reg coverage",
        "FDD(+mem) coverage",
        "residual false DUE",
    ]);
    let sizes = [32u64, 128, 512, 2048, 8192, 32768];
    for size in sizes {
        t.row(vec![
            size.to_string(),
            format!("{:.0}%", run.dead.pet_coverage_fdd_reg(size, true) * 100.0),
            format!("{:.0}%", run.dead.pet_coverage_with_memory(size) * 100.0),
            run.avf
                .residual_false_due(Some(Technique::Pet(size)), &run.dead)
                .to_string(),
        ]);
    }
    println!("{t}");
    if tel.active() {
        let mut doc = artifact::header("pet", tel.level);
        doc.set("workload", name);
        let rows: Vec<JsonValue> = sizes
            .iter()
            .map(|&size| {
                let mut v = JsonValue::object();
                v.set("entries", size)
                    .set(
                        "coverage_fdd_reg",
                        run.dead.pet_coverage_fdd_reg(size, true),
                    )
                    .set(
                        "coverage_with_memory",
                        run.dead.pet_coverage_with_memory(size),
                    )
                    .set(
                        "residual_false_due",
                        run.avf
                            .residual_false_due(Some(Technique::Pet(size)), &run.dead)
                            .fraction(),
                    );
                v
            })
            .collect();
        doc.set("sweep", rows);
        tel.emit(&doc)?;
    }
    Ok(())
}

fn cmd_compare(args: &[String], tel: &Telemetry) -> Result<(), String> {
    let variant = parse_machine(args)?;
    if variant == PipelineConfig::default() {
        return Err("compare needs at least one machine flag (e.g. --squash l1)".into());
    }
    let rows = compare_suites(&PipelineConfig::default(), &variant).map_err(|e| e.to_string())?;
    let mut t = Table::new(vec![
        "bench",
        "rel IPC",
        "rel SDC AVF",
        "rel DUE AVF",
        "SDC MITF gain",
        "profitable",
    ]);
    for c in &rows {
        t.row(vec![
            c.base.name.clone(),
            format!("{:.3}", c.rel_ipc()),
            format!("{:.2}", c.rel_sdc()),
            format!("{:.2}", c.rel_due()),
            format!("{:.2}x", c.sdc_mitf_gain()),
            if c.is_profitable() { "yes" } else { "no" }.into(),
        ]);
    }
    println!("{t}");
    println!(
        "suite means: rel IPC {:.3}  rel SDC {:.2}  rel DUE {:.2}  MITF gain {:.2}x",
        mean(rows.iter().map(|c| c.rel_ipc())),
        mean(rows.iter().map(|c| c.rel_sdc())),
        mean(rows.iter().map(|c| c.rel_due())),
        mean(rows.iter().map(|c| c.sdc_mitf_gain())),
    );
    if tel.active() {
        let mut doc = artifact::header("compare", tel.level);
        doc.set("variant", artifact::machine_value(&variant));
        let records: Vec<JsonValue> = rows
            .iter()
            .map(|c| {
                let mut v = JsonValue::object();
                v.set("name", c.base.name.as_str())
                    .set("rel_ipc", c.rel_ipc())
                    .set("rel_sdc_avf", c.rel_sdc())
                    .set("rel_due_avf", c.rel_due())
                    .set("sdc_mitf_gain", c.sdc_mitf_gain())
                    .set("profitable", c.is_profitable());
                v
            })
            .collect();
        doc.set("workloads", records);
        tel.emit(&doc)?;
    }
    Ok(())
}

fn cmd_run_asm(path: &str, tel: &Telemetry) -> Result<(), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = ses_isa::assemble(&source).map_err(|e| e.to_string())?;
    let trace = ses_arch::Emulator::new(&program)
        .run(10_000_000)
        .map_err(|e| e.to_string())?;
    if !trace.halted() {
        return Err("program did not halt within 10M instructions".into());
    }
    println!(
        "{} static, {} dynamic instructions",
        program.len(),
        trace.len()
    );
    println!("output: {:?}", trace.output());

    let dead = ses_core::DeadMap::analyze(&trace);
    let result = ses_core::Pipeline::new(PipelineConfig::default()).run(&program, &trace);
    let avf = ses_core::AvfAnalysis::new(&result, &dead);
    println!(
        "IPC {:.2}   SDC AVF {}   DUE AVF {}   dead instructions {:.1}%",
        result.ipc().value(),
        avf.sdc_avf(),
        avf.due_avf(),
        dead.dead_fraction() * 100.0
    );
    if tel.active() {
        let mut doc = artifact::header("run-asm", tel.level);
        doc.set("source", path)
            .set("static_instrs", program.len())
            .set("dynamic_instrs", trace.len())
            .set("cycles", result.cycles)
            .set("ipc", result.ipc().value())
            .set("sdc_avf", avf.sdc_avf().fraction())
            .set("due_avf", avf.due_avf().fraction())
            .set("false_due_avf", avf.false_due_avf().fraction())
            .set("dead_fraction", dead.dead_fraction());
        tel.emit(&doc)?;
    }
    Ok(())
}

/// `fuzz` — the served fuzz job plus the CLI-only flags: `--out` (where
/// reproducers go), `--emit-corpus` / `--corpus-count` (write clean
/// programs instead of fuzzing), `--region-fault` (plant a defect the run
/// must catch) and `--no-shrink`.
fn cmd_fuzz(args: &[String], tel: &Telemetry) -> Result<(), String> {
    let mut fields = job_fields("fuzz", args, tel)?;
    let out_dir = PathBuf::from(fields.string("out")?.unwrap_or_else(|| "fuzz-out".into()));
    let corpus_dir = fields.string("emit_corpus")?;
    let corpus_count = fields.u64("corpus_count")?.unwrap_or(12);
    // A planted region-analysis defect: the run must catch and shrink it.
    let region_fault = fields.parsed("region_fault", |s| match s {
        "ignore-acc" => Ok(RegionFault::IgnoreReg(Reg::new(2))),
        "ignore-stores" => Ok(RegionFault::IgnoreStores),
        other => Err(format!(
            "unknown region fault '{other}' (use ignore-acc/ignore-stores)"
        )),
    })?;
    let no_shrink = fields.bool("no_shrink")?.unwrap_or(false);
    let JobSpec::Fuzz(job) = JobSpec::from_fields("fuzz", fields)? else {
        unreachable!("fuzz arguments parse into a fuzz job")
    };
    let mut cfg = job.config();
    cfg.shrink &= !no_shrink;
    cfg.oracle.region_fault = region_fault;

    if let Some(dir) = corpus_dir {
        return emit_corpus(Path::new(&dir), cfg.seed, corpus_count, &cfg.program_spec);
    }

    let fuzz = run_fuzz(&cfg);
    let output = JobOutput::Fuzz {
        seed: cfg.seed,
        report: fuzz.clone(),
    };
    emit_output(&output, tel)?;
    if !fuzz.failures.is_empty() {
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        for f in &fuzz.failures {
            let path = out_dir.join(format!("repro-{:016x}.s", f.program_seed));
            std::fs::write(&path, f.reproducer_asm())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "FAIL iteration {} (program seed {:#x}): {}\n  reproducer ({} instrs): {}",
                f.iteration,
                f.program_seed,
                f.divergence,
                f.reproducer().len(),
                path.display()
            );
        }
    }
    if fuzz.clean() {
        println!("no divergences found");
        Ok(())
    } else {
        Err(format!(
            "{} divergence(s) found; reproducers in {}",
            fuzz.failures.len(),
            out_dir.display()
        ))
    }
}

/// Generates `count` oracle-clean programs from `seed` and writes them as
/// replayable `.s` files — the committed regression corpus under
/// `tests/corpus/` is produced exactly this way.
fn emit_corpus(
    dir: &std::path::Path,
    seed: u64,
    count: u64,
    spec: &ses_workloads::FuzzProgramSpec,
) -> Result<(), String> {
    let oracle = ses_core::OracleConfig::default();
    // Store-dense (`--mutate regions`) entries get their own file prefix
    // so the two corpus families stay distinguishable on disk.
    let (prefix, mode_flag) = if spec.mem_bias {
        ("mem", " --mutate regions")
    } else {
        ("fuzz", "")
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for i in 0..count {
        let program_seed = splitmix64(seed.wrapping_add(i));
        let program = ses_workloads::fuzz_program_with(program_seed, spec);
        ses_core::check_program(&program, &oracle)
            .map_err(|d| format!("seed {program_seed:#x} fails the oracle: {d}"))?;
        let text = format!(
            "; fuzz corpus entry {i}: campaign seed {seed}, program seed {program_seed:#x}\n\
             ; regenerate with: ser-repro fuzz --seed {seed}{mode_flag} --emit-corpus <dir> --corpus-count {count}\n\
             {}",
            ses_isa::disassemble(&program)
        );
        let path = dir.join(format!("{prefix}-{i:02}-{program_seed:016x}.s"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// `serve` — run the campaign-as-a-service daemon in the foreground.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut fields = Fields::from_args("serve", args)?;
    let defaults = ses_serve::ServeConfig::default();
    let config = ses_serve::ServeConfig {
        addr: fields
            .string("addr")?
            .unwrap_or_else(|| "127.0.0.1:7878".into()),
        threads: fields
            .u64("threads")?
            .map_or(defaults.threads, |n| n as usize),
        cache_bytes: fields
            .u64("cache_bytes")?
            .map_or(defaults.cache_bytes, |n| n as usize),
        max_body_bytes: fields
            .u64("max_body_bytes")?
            .map_or(defaults.max_body_bytes, |n| n as usize),
    };
    fields.finish()?;
    let server = ses_serve::Server::start(&config).map_err(|e| e.to_string())?;
    println!("serving on http://{}", server.addr());
    println!(
        "routes: POST /v1/campaign /v1/suite /v1/ecc-grid /v1/fuzz  GET /v1/stats /v1/healthz"
    );
    // Foreground daemon: park until killed.
    loop {
        std::thread::park();
    }
}

fn usage() -> &'static str {
    "usage: ser-repro <command>\n\
     \n\
     commands:\n\
       list                        list the benchmark suite\n\
       suite [options]             run all 26 benchmarks, print AVF summary\n\
       bench <name> [flags]        detailed report for one benchmark\n\
       inject <name> [options]     fixed-budget fault-injection campaign\n\
       campaign <name> [options]   confidence-targeted campaign (adaptive or uniform),\n\
\x20                                 or a recovery/ECC campaign\n\
       ecc-grid <names> [options]  analytic node x environment x scheme residual grid\n\
       pet <name>                  PET-buffer size sweep\n\
       run-asm <file.s>            assemble and analyse a SES-64 program\n\
       compare [flags]             suite baseline-vs-variant comparison\n\
       fuzz [options]              differential fuzz: emulator vs pipeline\n\
       serve [options]             campaign-as-a-service HTTP daemon\n\
     \n\
     job options: inject, suite, ecc-grid, fuzz and campaign with --detect-latency,\n\
     --recovery, --ecc or --pattern-model (without --adaptive) are the daemon's jobs.\n\
     --flag-name VALUE is its JSON field flag_name, a bare --flag is true, and\n\
     positional names fill workload (inject, campaign) or workloads (ecc-grid).\n\
       campaign: --injections N  --seed N  --model none|parity|tracking  --prune  --threads N\n\
                 --detect-latency fixed:N|geometric:M|table:LxW,...\n\
                 --recovery machine-check|idempotent\n\
                 --ecc none|parity|sec|sec-ded|taec|dec  --pattern-model single|spatial\n\
                 --node 28nm|16nm|7nm  --env consumer|avionics|space\n\
       suite:    --squash l0|l1|l2  --throttle l0|l1|l2  --threads N\n\
       ecc-grid: --probes N  --seed N\n\
       fuzz:     --seed N  --iters N  --inject-every N  --shrink  --mutate regions\n\
     CLI-only options:\n\
       campaign: --adaptive  --target-halfwidth W  --gate-vs-uniform, with --model --seed\n\
                 --injections CAP --prune --ecc --pattern-model --node --env\n\
       fuzz:     --out DIR  --emit-corpus DIR  --corpus-count N  --no-shrink\n\
                 --region-fault ignore-acc|ignore-stores\n\
     daemon-only caps: injections, probes <= 100000  iters <= 10000\n\
                       <= 32 workloads  threads <= 256\n\
     machine flags (bench, compare): --squash l0|l1|l2  --throttle l0|l1|l2\n\
     serve options: --addr HOST:PORT  --threads N  --cache-bytes N  --max-body-bytes N\n\
     artifact flags (any command): --json <path>   --telemetry off|summary|full"
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (args, tel) = Telemetry::extract(args)?;
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(&tel),
        Some("suite") => cmd_job("suite", &args[1..], &tel),
        Some("bench") => match args.get(1) {
            Some(name) if !name.starts_with("--") => cmd_bench(name, &args[2..], &tel),
            _ => Err("bench needs a benchmark name".into()),
        },
        Some("inject") => cmd_job("campaign", &args[1..], &tel),
        Some("campaign") => cmd_campaign(&args[1..], &tel),
        Some("ecc-grid") => cmd_job("ecc-grid", &args[1..], &tel),
        Some("pet") => match args.get(1) {
            Some(name) if !name.starts_with("--") => cmd_pet(name, &tel),
            _ => Err("pet needs a benchmark name".into()),
        },
        Some("run-asm") => match args.get(1) {
            Some(path) => cmd_run_asm(path, &tel),
            None => Err("run-asm needs a source file".into()),
        },
        Some("compare") => cmd_compare(&args[1..], &tel),
        Some("fuzz") => cmd_fuzz(&args[1..], &tel),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = dispatch(&args);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
