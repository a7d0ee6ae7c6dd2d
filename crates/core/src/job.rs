//! The job model shared by the CLI and the daemon.
//!
//! A [`JobSpec`] is one typed request for a `campaign`, `suite`,
//! `ecc-grid` or `fuzz` job. It parses from a JSON body
//! ([`JobSpec::parse`]) or from command-line arguments
//! ([`JobSpec::from_args`]). Both turn their input into the same
//! [`Fields`] list and then run the same per-kind parse, defaults and
//! flavour dispatch, so `ser-repro inject crafty --seed 7` and
//! `POST /v1/campaign {"workload": "crafty", "seed": 7}` are one job.
//!
//! Argument spelling: `--flag-name value` is the JSON field `flag_name`,
//! a bare `--flag` is `true`, and positional names fill `workload`
//! (campaign) or `workloads` (ecc-grid). Unknown fields, duplicate fields
//! and type mismatches are rejected on both surfaces.
//!
//! [`JobSpec::run`] executes a job into a typed [`JobOutput`]. The CLI
//! prints its text report from that output, and [`JobOutput::artifact`]
//! renders the schema-versioned artifact, so a served body is
//! byte-identical to the CLI's `--json` file for the same job.
//!
//! [`JobSpec::canonical`] resolves all defaults into a deterministic
//! string that doubles as the daemon's result-cache key: two jobs share
//! bytes iff they share a canonical form, so cache-key collisions between
//! distinct configs are impossible by construction. Worker-thread count
//! is deliberately *excluded* from the canonical form — summary-level
//! artifacts are thread-count invariant, so `--threads 1` and
//! `--threads 8` requests share one cache entry.
//!
//! [`JobSpec::admit`] holds the serving caps. Only the daemon applies
//! them; CLI budgets are unbounded.

use std::sync::Arc;

use crate::cache::ResultCache;
use crate::telemetry as artifact;
use crate::{
    read_probability, run_ecc_campaign, run_fuzz, run_suite_with, spec_by_name, BenchSummary,
    Campaign, CampaignConfig, DetailedReport, DetectionModel, EccCampaignConfig, EccCampaignReport,
    EccDomain, EccScheme, Environment, FuzzConfig, FuzzReport, GoldenRun, JsonValue,
    LatencyDistribution, Level, PatternDistribution, PatternModel, PipelineConfig, RecoveryPolicy,
    ReliabilityModel, TechNode, TelemetryLevel, TrackingConfig,
};

/// A job-level failure with the HTTP status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// HTTP status code (400 for bad parameters, 404 for an unknown job
    /// kind, 500 for execution failures).
    pub status: u16,
    /// Human-readable description.
    pub message: String,
}

impl JobError {
    fn bad(message: impl Into<String>) -> JobError {
        JobError {
            status: 400,
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> JobError {
        JobError {
            status: 500,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<JobError> for String {
    fn from(e: JobError) -> String {
        e.message
    }
}

/// FNV-1a 64-bit hash of the canonical job string; the `X-Job-Key`
/// display form (the cache itself is keyed by the full canonical string).
pub fn job_key_hash(canonical: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in canonical.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fields of one request, from a JSON object or from command-line
/// arguments. Every getter removes its key, so whatever is left at
/// [`Fields::finish`] is an unknown field.
#[derive(Debug, Clone)]
pub struct Fields {
    fields: Vec<(String, JsonValue)>,
    /// Values came from argv: they are strings, parsed by the getter.
    argv: bool,
}

/// The `--flag-name` spelling of field `key`.
fn flag(key: &str) -> String {
    format!("--{}", key.replace('_', "-"))
}

impl Fields {
    fn new(fields: Vec<(String, JsonValue)>, argv: bool) -> Result<Fields, JobError> {
        let out = Fields { fields, argv };
        for (i, (k, _)) in out.fields.iter().enumerate() {
            if out.fields[..i].iter().any(|(seen, _)| seen == k) {
                return Err(JobError::bad(format!("duplicate {}", out.name(k))));
            }
        }
        Ok(out)
    }

    /// The fields of a JSON request body, which must be an object.
    pub fn from_json(doc: &JsonValue) -> Result<Fields, JobError> {
        match doc {
            JsonValue::Object(fields) => Fields::new(fields.clone(), false),
            _ => Err(JobError::bad("request body must be a JSON object")),
        }
    }

    /// Tokenizes command-line arguments for command `kind`: `--flag-name
    /// value` becomes field `flag_name`, a `--flag` followed by another
    /// flag or nothing becomes `true`, and positional names fill
    /// `workload` (campaign, at most one) or `workloads` (ecc-grid). Any
    /// other positional argument is an error.
    pub fn from_args<S: AsRef<str>>(kind: &str, args: &[S]) -> Result<Fields, JobError> {
        let mut fields = Vec::new();
        let mut names = Vec::new();
        let mut it = args.iter().map(S::as_ref).peekable();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = match it.next_if(|next| !next.starts_with("--")) {
                        Some(v) => JsonValue::Str(v.to_string()),
                        None => JsonValue::Bool(true),
                    };
                    fields.push((name.replace('-', "_"), value));
                }
                None => names.push(arg.to_string()),
            }
        }
        let accepted = match kind {
            "campaign" => 1,
            "ecc-grid" => usize::MAX,
            _ => 0,
        };
        if let Some(stray) = names.get(accepted) {
            return Err(JobError::bad(format!("unexpected argument '{stray}'")));
        }
        if kind == "ecc-grid" && !names.is_empty() {
            let names = names.into_iter().map(JsonValue::Str).collect();
            fields.push(("workloads".to_string(), JsonValue::Array(names)));
        } else if let Some(name) = names.pop() {
            fields.push(("workload".to_string(), JsonValue::Str(name)));
        }
        Fields::new(fields, true)
    }

    /// How error messages name field `key` on this surface.
    fn name(&self, key: &str) -> String {
        if self.argv {
            format!("flag '{}'", flag(key))
        } else {
            format!("field '{key}'")
        }
    }

    /// Whether field `key` is present (and not yet taken).
    pub fn has(&self, key: &str) -> bool {
        self.fields.iter().any(|(k, _)| k == key)
    }

    fn take(&mut self, key: &str) -> Option<JsonValue> {
        let idx = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(idx).1)
    }

    /// Takes field `key`: argv strings parse through `FromStr`, JSON
    /// values through `json`.
    fn typed<T: std::str::FromStr>(
        &mut self,
        key: &str,
        want: &str,
        json: impl FnOnce(&JsonValue) -> Option<T>,
    ) -> Result<Option<T>, JobError> {
        let Some(value) = self.take(key) else {
            return Ok(None);
        };
        let parsed = match &value {
            JsonValue::Str(s) if self.argv => s.parse().ok(),
            other => json(other),
        };
        parsed.map(Some).ok_or_else(|| {
            JobError::bad(match (self.argv, &value) {
                (true, JsonValue::Str(s)) => format!("{} must be {want}, got '{s}'", flag(key)),
                (true, _) => format!("{} needs a value", flag(key)),
                _ => format!("field '{key}' must be {want}, got {value:?}"),
            })
        })
    }

    /// Takes a string field.
    pub fn string(&mut self, key: &str) -> Result<Option<String>, JobError> {
        self.typed(key, "a string", |v| v.as_str().map(str::to_string))
    }

    /// Takes a string field and parses it with `parse`.
    pub fn parsed<T, E: Into<String>>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, JobError> {
        self.string(key)?
            .map(|s| parse(&s).map_err(JobError::bad))
            .transpose()
    }

    /// Takes a non-negative integer field.
    pub fn u64(&mut self, key: &str) -> Result<Option<u64>, JobError> {
        self.typed(key, "a non-negative integer", |v| match v {
            JsonValue::U64(n) => Some(*n),
            _ => None,
        })
    }

    /// Takes a non-negative integer field that must fit in a `u32`.
    pub fn u32(&mut self, key: &str) -> Result<Option<u32>, JobError> {
        match self.u64(key)? {
            None => Ok(None),
            Some(n) => u32::try_from(n)
                .map(Some)
                .map_err(|_| JobError::bad(format!("{} exceeds u32", self.name(key)))),
        }
    }

    /// Takes a boolean field (a bare `--flag` on the command line).
    pub fn bool(&mut self, key: &str) -> Result<Option<bool>, JobError> {
        self.typed(key, "a boolean", JsonValue::as_bool)
    }

    /// Takes an array-of-strings field (positional names on the command
    /// line).
    pub fn string_array(&mut self, key: &str) -> Result<Option<Vec<String>>, JobError> {
        let Some(value) = self.take(key) else {
            return Ok(None);
        };
        let items = value.as_array().and_then(|items| {
            items
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
        });
        items.map(Some).ok_or_else(|| {
            JobError::bad(format!(
                "{} must be an array of strings, got {value:?}",
                self.name(key)
            ))
        })
    }

    /// Rejects whatever no getter took.
    pub fn finish(self) -> Result<(), JobError> {
        match self.fields.first() {
            Some((k, _)) => Err(JobError::bad(format!("unknown {}", self.name(k)))),
            None => Ok(()),
        }
    }
}

/// Parses a detection model name: `none`, `parity`, or `tracking` (parity
/// plus the paper's combined π-bit tracking). Returns the model and its
/// canonical label.
pub fn parse_detection(s: &str) -> Result<(DetectionModel, &'static str), JobError> {
    match s {
        "none" => Ok((DetectionModel::None, "none")),
        "parity" => Ok((DetectionModel::Parity { tracking: None }, "parity")),
        "tracking" => Ok((
            DetectionModel::Parity {
                tracking: Some(TrackingConfig::paper_combined()),
            },
            "tracking",
        )),
        other => Err(JobError::bad(format!(
            "unknown model '{other}' (use none/parity/tracking)"
        ))),
    }
}

/// Parses a cache level for the squash/throttle triggers.
pub fn parse_cache_level(s: &str) -> Result<Level, JobError> {
    match s {
        "l0" | "L0" => Ok(Level::L0),
        "l1" | "L1" => Ok(Level::L1),
        "l2" | "L2" => Ok(Level::L2),
        other => Err(JobError::bad(format!(
            "unknown cache level '{other}' (use l0/l1/l2)"
        ))),
    }
}

fn level_label(level: Level) -> &'static str {
    match level {
        Level::L0 => "l0",
        Level::L1 => "l1",
        Level::L2 => "l2",
        Level::Memory => "memory",
    }
}

fn known_workload(name: &str) -> Result<(), JobError> {
    if spec_by_name(name).is_none() {
        return Err(JobError::bad(format!("unknown benchmark '{name}'")));
    }
    Ok(())
}

fn parse_level_field(fields: &mut Fields) -> Result<TelemetryLevel, JobError> {
    let level = fields
        .parsed("level", TelemetryLevel::parse)?
        .unwrap_or(TelemetryLevel::Summary);
    if level == TelemetryLevel::Off {
        return Err(JobError::bad(
            "telemetry level 'off' produces no artifact; use summary or full",
        ));
    }
    Ok(level)
}

/// The machine fields `squash` and `throttle`: the paper's
/// exposure-reduction actions on a cache-miss trigger level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Machine {
    /// Squash on a miss at this level.
    pub squash: Option<Level>,
    /// Throttle fetch on a miss at this level.
    pub throttle: Option<Level>,
}

impl Machine {
    /// Takes the `squash` / `throttle` fields.
    pub fn parse(fields: &mut Fields) -> Result<Machine, JobError> {
        Ok(Machine {
            squash: fields.parsed("squash", parse_cache_level)?,
            throttle: fields.parsed("throttle", parse_cache_level)?,
        })
    }

    /// The pipeline configuration these actions select.
    pub fn config(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::default();
        if let Some(l) = self.squash {
            cfg = cfg.with_squash(l);
        }
        if let Some(l) = self.throttle {
            cfg = cfg.with_throttle(l);
        }
        cfg
    }
}

/// The multi-bit strike fields: `ecc` scheme, `pattern_model`
/// (`single`/`spatial`), and the `node` / `env` rate scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccFields {
    /// Protection scheme of the struck words.
    pub ecc: Option<EccScheme>,
    /// `Some(true)` for the spatial multi-bit mix, `Some(false)` for
    /// single-bit strikes only.
    pub spatial: Option<bool>,
    /// Technology node of the raw-rate scenario.
    pub node: Option<TechNode>,
    /// Particle environment of the raw-rate scenario.
    pub env: Option<Environment>,
}

impl EccFields {
    /// Takes the `ecc`, `pattern_model`, `node` and `env` fields.
    pub fn parse(fields: &mut Fields) -> Result<EccFields, JobError> {
        Ok(EccFields {
            ecc: fields.parsed("ecc", EccScheme::parse)?,
            spatial: fields.parsed("pattern_model", |s| match s {
                "single" => Ok(false),
                "spatial" => Ok(true),
                other => Err(format!(
                    "unknown pattern model '{other}' (use single/spatial)"
                )),
            })?,
            node: fields.parsed("node", TechNode::parse)?,
            env: fields.parsed("env", Environment::parse)?,
        })
    }

    /// The strike model, present when `ecc` or `pattern_model` turned on
    /// the multi-bit engine. The scheme defaults to unprotected, and
    /// `single` collapses the distribution to single-bit strikes.
    pub fn pattern(&self) -> Option<PatternModel> {
        (self.ecc.is_some() || self.spatial.is_some()).then(|| PatternModel {
            distribution: if self.spatial == Some(false) {
                PatternDistribution::single_only()
            } else {
                PatternDistribution::default()
            },
            domain: EccDomain::new(self.ecc.unwrap_or(EccScheme::None)),
        })
    }

    /// The raw-rate model: the default, or the `node` × `env` scenario
    /// with either field alone filling the other from its default.
    pub fn reliability(&self) -> ReliabilityModel {
        if self.node.is_some() || self.env.is_some() {
            ReliabilityModel::for_scenario(
                self.node.unwrap_or(TechNode::N28),
                self.env.unwrap_or(Environment::Consumer),
            )
        } else {
            ReliabilityModel::default()
        }
    }
}

/// Which campaign flavour a [`CampaignJob`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignFlavor {
    /// Fixed-budget single-bit campaign (CLI `inject`).
    Plain,
    /// Detection-latency + recovery campaign (`detect_latency` or
    /// `recovery idempotent`).
    Recovery,
    /// Multi-bit spatial campaign under an ECC domain (`ecc` or
    /// `pattern_model`).
    Ecc,
}

/// A validated `campaign` job.
#[derive(Debug, Clone)]
pub struct CampaignJob {
    workload: String,
    flavor: CampaignFlavor,
    model_label: &'static str,
    strikes: EccFields,
    level: TelemetryLevel,
    /// What the job runs: its run plan. The ECC flavour takes only its
    /// budget and seed.
    config: Box<CampaignConfig>,
}

/// A validated `suite` job.
#[derive(Debug, Clone)]
pub struct SuiteJob {
    machine: Machine,
    threads: usize,
    level: TelemetryLevel,
}

/// A validated `ecc-grid` job.
#[derive(Debug, Clone)]
pub struct EccGridJob {
    workloads: Vec<String>,
    probes: u32,
    seed: u64,
    level: TelemetryLevel,
}

/// A validated `fuzz` job.
#[derive(Debug, Clone)]
pub struct FuzzJob {
    seed: u64,
    iters: u64,
    inject_every: u64,
    shrink: bool,
    mem_heavy: bool,
    level: TelemetryLevel,
}

/// A parsed, validated job ready to canonicalise and run.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Fault-injection campaign (plain, recovery, or ECC flavour).
    Campaign(CampaignJob),
    /// Full 26-workload suite sweep.
    Suite(SuiteJob),
    /// Analytic node x environment x scheme residual grid.
    EccGrid(EccGridJob),
    /// Differential fuzz run.
    Fuzz(FuzzJob),
}

/// What a job produced, before rendering.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// A plain or recovery campaign.
    Campaign {
        /// Benchmark name.
        workload: String,
        /// Plain or recovery.
        flavor: CampaignFlavor,
        /// The configuration the campaign prepared with.
        config: Box<CampaignConfig>,
        /// Per-injection outcomes plus recovery/pruning accounting.
        report: DetailedReport,
    },
    /// A multi-bit campaign under an ECC domain.
    EccCampaign {
        /// Benchmark name.
        workload: String,
        /// Strike budget, seed, distribution and domain.
        config: EccCampaignConfig,
        /// Dispositions, outcomes and the analytic residuals.
        report: EccCampaignReport,
        /// Fault-free IPC of the workload.
        baseline_ipc: f64,
        /// Raw-rate model the FIT intervals use.
        model: ReliabilityModel,
    },
    /// A suite sweep.
    Suite {
        /// The machine every workload ran on.
        machine: PipelineConfig,
        /// One summary per workload, in suite order.
        rows: Vec<BenchSummary>,
        /// Per-workload AVF decompositions (full level only).
        details: Vec<JsonValue>,
    },
    /// An ECC residual grid.
    EccGrid {
        /// Strike-pattern distribution the residuals enumerate.
        distribution: PatternDistribution,
        /// `(name, ipc, read_probability, probes)` per workload.
        workloads: Vec<(String, f64, f64, u32)>,
    },
    /// A differential fuzz run.
    Fuzz {
        /// Campaign seed.
        seed: u64,
        /// Programs checked and any divergences found.
        report: FuzzReport,
    },
}

impl JobOutput {
    /// The schema-versioned artifact: the bytes the daemon serves and the
    /// CLI writes with `--json`.
    pub fn artifact(&self, level: TelemetryLevel) -> JsonValue {
        match self {
            JobOutput::Campaign {
                workload,
                config,
                report,
                ..
            } => artifact::campaign_artifact(workload, report, config.pipeline.iq_entries, level),
            JobOutput::EccCampaign {
                workload,
                config,
                report,
                baseline_ipc,
                model,
            } => artifact::ecc_campaign_artifact(
                workload,
                config,
                report,
                *baseline_ipc,
                model,
                level,
            ),
            JobOutput::Suite {
                machine,
                rows,
                details,
            } => artifact::suite_artifact(machine, rows, details, level),
            JobOutput::EccGrid {
                distribution,
                workloads,
            } => artifact::ecc_grid_artifact(distribution, workloads, level),
            JobOutput::Fuzz { seed, report } => artifact::fuzz_artifact(*seed, report, level),
        }
    }
}

impl JobSpec {
    /// Parses a job from `kind` (the route tail, e.g. `campaign`) and a
    /// JSON `body`. Unknown fields, duplicate fields and type mismatches
    /// are 400s; an unknown kind is a 404.
    pub fn parse(kind: &str, body: &JsonValue) -> Result<JobSpec, JobError> {
        JobSpec::from_fields(kind, Fields::from_json(body)?)
    }

    /// Parses a job from command-line arguments; see [`Fields::from_args`]
    /// for the spelling. The result is the job [`JobSpec::parse`] builds
    /// from the equivalent JSON body.
    pub fn from_args<S: AsRef<str>>(kind: &str, args: &[S]) -> Result<JobSpec, JobError> {
        JobSpec::from_fields(kind, Fields::from_args(kind, args)?)
    }

    /// Parses a job of `kind` from an already tokenized field list.
    pub fn from_fields(kind: &str, mut fields: Fields) -> Result<JobSpec, JobError> {
        let spec = match kind {
            "campaign" => JobSpec::Campaign(CampaignJob::parse(&mut fields)?),
            "suite" => JobSpec::Suite(SuiteJob::parse(&mut fields)?),
            "ecc-grid" => JobSpec::EccGrid(EccGridJob::parse(&mut fields)?),
            "fuzz" => JobSpec::Fuzz(FuzzJob::parse(&mut fields)?),
            other => {
                return Err(JobError {
                    status: 404,
                    message: format!(
                        "unknown job kind '{other}' (use campaign/suite/ecc-grid/fuzz)"
                    ),
                })
            }
        };
        fields.finish()?;
        Ok(spec)
    }

    /// The serving caps: injections and probes at most 100000, iters at
    /// most 10000, at most 32 workloads, at most 256 threads. The daemon
    /// admits a job only within them; the CLI never checks them.
    pub fn admit(&self) -> Result<(), JobError> {
        let limits: Vec<(&str, u64, u64)> = match self {
            JobSpec::Campaign(j) => vec![
                ("injections", j.config.injections.into(), 100_000),
                ("threads", j.config.threads as u64, 256),
            ],
            JobSpec::Suite(j) => vec![("threads", j.threads as u64, 256)],
            JobSpec::EccGrid(j) => vec![
                ("workloads", j.workloads.len() as u64, 32),
                ("probes", j.probes.into(), 100_000),
            ],
            JobSpec::Fuzz(j) => vec![("iters", j.iters, 10_000)],
        };
        match limits.into_iter().find(|&(_, value, cap)| value > cap) {
            Some((name, value, cap)) => Err(JobError::bad(format!(
                "{name} {value} exceeds serving limit of {cap}"
            ))),
            None => Ok(()),
        }
    }

    /// The canonical form: all defaults resolved, deterministic field
    /// order, worker-thread count excluded (it never changes bytes).
    /// This string is the result-cache key.
    pub fn canonical(&self) -> String {
        match self {
            JobSpec::Campaign(j) => {
                let latency = j
                    .config
                    .detect_latency
                    .as_ref()
                    .map_or_else(|| "-".to_string(), |d| d.to_string());
                format!(
                    "v1/campaign workload={} injections={} seed={} model={} latency={} recovery={} ecc={} pattern={} node={} env={} prune={} level={}",
                    j.workload,
                    j.config.injections,
                    j.config.seed,
                    j.model_label,
                    latency,
                    j.config.recovery.label(),
                    j.strikes.ecc.map_or("-", EccScheme::label),
                    match j.strikes.spatial {
                        None => "-",
                        Some(true) => "spatial",
                        Some(false) => "single",
                    },
                    j.strikes.node.map_or("-", TechNode::label),
                    j.strikes.env.map_or("-", Environment::label),
                    j.config.prune,
                    j.level.label(),
                )
            }
            JobSpec::Suite(j) => format!(
                "v1/suite squash={} throttle={} level={}",
                j.machine.squash.map_or("-", level_label),
                j.machine.throttle.map_or("-", level_label),
                j.level.label(),
            ),
            JobSpec::EccGrid(j) => format!(
                "v1/ecc-grid workloads={} probes={} seed={} level={}",
                j.workloads.join(","),
                j.probes,
                j.seed,
                j.level.label(),
            ),
            JobSpec::Fuzz(j) => format!(
                "v1/fuzz seed={} iters={} inject_every={} shrink={} mem_heavy={} level={}",
                j.seed,
                j.iters,
                j.inject_every,
                j.shrink,
                j.mem_heavy,
                j.level.label(),
            ),
        }
    }

    /// The telemetry level the artifact is rendered at.
    pub fn level(&self) -> TelemetryLevel {
        match self {
            JobSpec::Campaign(j) => j.level,
            JobSpec::Suite(j) => j.level,
            JobSpec::EccGrid(j) => j.level,
            JobSpec::Fuzz(j) => j.level,
        }
    }

    /// Whether the result is deterministic and safe to cache: summary
    /// artifacts only (full-level artifacts may carry wall-clock
    /// counters, so they bypass the cache).
    pub fn cacheable(&self) -> bool {
        self.level() == TelemetryLevel::Summary
    }

    /// Runs the job. Campaign and ecc-grid jobs prepare their golden runs
    /// through `shared`, so jobs that share a golden run pay for it once.
    pub fn run(&self, shared: &SharedRuns) -> Result<JobOutput, JobError> {
        match self {
            JobSpec::Campaign(j) => j.run(shared),
            JobSpec::Suite(j) => j.run(),
            JobSpec::EccGrid(j) => j.run(shared),
            JobSpec::Fuzz(j) => Ok(JobOutput::Fuzz {
                seed: j.seed,
                report: run_fuzz(&j.config()),
            }),
        }
    }

    /// Runs the job and renders its artifact — the exact bytes the CLI
    /// writes with `--json` for the same job.
    pub fn execute(&self, shared: &SharedRuns) -> Result<String, JobError> {
        Ok(self.run(shared)?.artifact(self.level()).render())
    }
}

impl CampaignJob {
    fn parse(fields: &mut Fields) -> Result<CampaignJob, JobError> {
        let workload = fields
            .string("workload")?
            .ok_or_else(|| JobError::bad("campaign job needs a 'workload' (a benchmark name)"))?;
        known_workload(&workload)?;
        let injections = fields.u32("injections")?;
        let seed = fields.u64("seed")?.unwrap_or(2026);
        let model = fields.string("model")?;
        let detect_latency = fields.parsed("detect_latency", str::parse::<LatencyDistribution>)?;
        let recovery = fields
            .parsed("recovery", str::parse::<RecoveryPolicy>)?
            .unwrap_or(RecoveryPolicy::MachineCheck);
        let strikes = EccFields::parse(fields)?;
        let prune = fields.bool("prune")?.unwrap_or(false);
        let threads = fields.u64("threads")?.unwrap_or(0) as usize;
        let level = parse_level_field(fields)?;

        // Flavour dispatch: latency/recovery selects the recovery
        // campaign (detection defaults to parity), ecc/pattern selects the
        // multi-bit campaign (detection defaults to none), anything else
        // is the fixed-budget `inject` campaign.
        let multi_bit = strikes.pattern().is_some();
        let (flavor, default_injections, default_model) =
            if recovery == RecoveryPolicy::Idempotent || detect_latency.is_some() {
                if multi_bit {
                    return Err(JobError::bad(
                        "detect_latency/recovery combine with neither ecc nor pattern_model",
                    ));
                }
                (CampaignFlavor::Recovery, 500, "parity")
            } else if multi_bit {
                (CampaignFlavor::Ecc, 1000, "none")
            } else {
                (CampaignFlavor::Plain, 300, "parity")
            };
        if flavor != CampaignFlavor::Ecc && (strikes.node.is_some() || strikes.env.is_some()) {
            return Err(JobError::bad(
                "node/env apply only to ecc/pattern_model campaigns",
            ));
        }
        let (detection, model_label) = parse_detection(model.as_deref().unwrap_or(default_model))?;

        Ok(CampaignJob {
            workload,
            flavor,
            model_label,
            strikes,
            level,
            config: Box::new(CampaignConfig {
                injections: injections.unwrap_or(default_injections),
                seed,
                detection,
                detect_latency,
                recovery,
                prune,
                threads,
                ..CampaignConfig::default()
            }),
        })
    }

    /// The key of the golden run this job injects against: every campaign
    /// job on one workload shares it, whatever its detection model and
    /// pruning.
    fn golden_key(&self) -> String {
        golden_key(&self.workload)
    }

    fn run(&self, shared: &SharedRuns) -> Result<JobOutput, JobError> {
        let config = CampaignConfig::clone(&self.config);
        let campaign = shared.campaign(&self.golden_key(), &self.workload, config)?;
        let workload = self.workload.clone();
        Ok(match self.strikes.pattern() {
            None => JobOutput::Campaign {
                workload,
                flavor: self.flavor,
                config: self.config.clone(),
                report: campaign.run_detailed(),
            },
            Some(pattern) => {
                let config = EccCampaignConfig {
                    injections: self.config.injections,
                    seed: self.config.seed,
                    distribution: pattern.distribution,
                    domain: pattern.domain,
                };
                JobOutput::EccCampaign {
                    workload,
                    report: run_ecc_campaign(&campaign, &config),
                    config,
                    baseline_ipc: campaign.baseline_ipc(),
                    model: self.strikes.reliability(),
                }
            }
        })
    }
}

impl SuiteJob {
    fn parse(fields: &mut Fields) -> Result<SuiteJob, JobError> {
        Ok(SuiteJob {
            machine: Machine::parse(fields)?,
            threads: fields.u64("threads")?.unwrap_or(0) as usize,
            level: parse_level_field(fields)?,
        })
    }

    fn run(&self) -> Result<JobOutput, JobError> {
        let machine = self.machine.config();
        // Full-level artifacts carry the per-workload AVF decomposition,
        // which needs the complete WorkloadRun, so project it inside the
        // parallel sweep instead of re-running everything afterwards.
        let (rows, details): (Vec<_>, Vec<_>) = if self.level == TelemetryLevel::Full {
            run_suite_with(&machine, self.threads, |_, run| {
                (run.summary(), artifact::workload_detail(run))
            })
            .map_err(|e| JobError::internal(e.to_string()))?
            .into_iter()
            .unzip()
        } else {
            (
                run_suite_with(&machine, self.threads, |_, run| run.summary())
                    .map_err(|e| JobError::internal(e.to_string()))?,
                Vec::new(),
            )
        };
        Ok(JobOutput::Suite {
            machine,
            rows,
            details,
        })
    }
}

impl EccGridJob {
    fn parse(fields: &mut Fields) -> Result<EccGridJob, JobError> {
        let workloads = fields.string_array("workloads")?.unwrap_or_default();
        if workloads.is_empty() {
            return Err(JobError::bad("ecc-grid needs at least one benchmark name"));
        }
        for name in &workloads {
            known_workload(name)?;
        }
        Ok(EccGridJob {
            workloads,
            probes: fields.u32("probes")?.unwrap_or(400),
            seed: fields.u64("seed")?.unwrap_or(0xECC),
            level: parse_level_field(fields)?,
        })
    }

    /// Each workload contributes only its measured read probability (a
    /// forced-signal single-bit probe) and baseline IPC; everything else
    /// is exact enumeration. The probe runs unpruned on the workload's
    /// golden run, the one every campaign on it shares.
    fn run(&self, shared: &SharedRuns) -> Result<JobOutput, JobError> {
        let mut workloads = Vec::new();
        for name in &self.workloads {
            let key = golden_key(name);
            let campaign = shared.campaign(&key, name, CampaignConfig::default())?;
            let p_read = read_probability(&campaign, self.probes, self.seed);
            workloads.push((name.clone(), campaign.baseline_ipc(), p_read, self.probes));
        }
        Ok(JobOutput::EccGrid {
            distribution: PatternDistribution::default(),
            workloads,
        })
    }
}

impl FuzzJob {
    fn parse(fields: &mut Fields) -> Result<FuzzJob, JobError> {
        let defaults = FuzzConfig::default();
        let seed = fields.u64("seed")?.unwrap_or(defaults.seed);
        let iters = fields.u64("iters")?.unwrap_or(defaults.iters);
        let inject_every = fields
            .u64("inject_every")?
            .unwrap_or(defaults.injection_every);
        let shrink = fields.bool("shrink")?.unwrap_or(defaults.shrink);
        // Region-boundary-aware fuzzing: store-dense programs stress the
        // idempotent-region analysis and its replay check.
        let mem_heavy = fields
            .parsed("mutate", |s| match s {
                "regions" => Ok(true),
                other => Err(format!("unknown mutation mode '{other}' (use regions)")),
            })?
            .unwrap_or(false);
        Ok(FuzzJob {
            seed,
            iters,
            inject_every,
            shrink,
            mem_heavy,
            level: parse_level_field(fields)?,
        })
    }

    /// The fuzz campaign this job runs.
    pub fn config(&self) -> FuzzConfig {
        let mut cfg = FuzzConfig {
            seed: self.seed,
            iters: self.iters,
            shrink: self.shrink,
            injection_every: self.inject_every,
            ..FuzzConfig::default()
        };
        if self.mem_heavy {
            cfg.program_spec = ses_workloads::FuzzProgramSpec::mem_heavy();
        }
        cfg
    }
}

/// The [`SharedRuns`] key of a golden run: the workload, the only job
/// field that shapes it (no detection model acts before a strike, and
/// pruning is part of the run plan).
fn golden_key(workload: &str) -> String {
    format!("golden workload={workload}")
}

/// Bounded cache of prepared golden runs, shared across jobs so every run
/// plan on one workload pays for the golden run once, whatever its
/// detection model and pruning. It is single-flight: concurrent jobs on
/// one key prepare it once while the others wait.
pub struct SharedRuns(ResultCache<Arc<GoldenRun>>);

impl Default for SharedRuns {
    fn default() -> Self {
        SharedRuns::new(16)
    }
}

impl SharedRuns {
    /// A cache holding at most `capacity` golden runs.
    pub fn new(capacity: usize) -> SharedRuns {
        SharedRuns(ResultCache::new(capacity.max(1), |_, _| 1))
    }

    /// Number of golden runs currently held.
    pub fn len(&self) -> usize {
        self.0.stats().entries as usize
    }

    /// Whether no golden run is currently held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plans `config` on `workload`'s golden run held under `key`,
    /// preparing the golden run on a miss.
    fn campaign(
        &self,
        key: &str,
        workload: &str,
        config: CampaignConfig,
    ) -> Result<Campaign, JobError> {
        let (golden, _) = self.0.get_or_compute(key, || {
            let spec = spec_by_name(workload)
                .ok_or_else(|| JobError::bad(format!("unknown benchmark '{workload}'")))?;
            GoldenRun::prepare(&spec, &config)
                .map(Arc::new)
                .map_err(|e| JobError::internal(e.to_string()))
        })?;
        Ok(Campaign::on(golden, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse_job(kind: &str, body: &str) -> Result<JobSpec, JobError> {
        let doc = JsonValue::parse(body).map_err(|e| JobError::bad(e.to_string()))?;
        JobSpec::parse(kind, &doc)
    }

    #[test]
    fn prune_flag_changes_the_cache_key() {
        let job = parse_job("campaign", r#"{"workload": "crafty", "prune": true}"#).unwrap();
        assert_eq!(
            job.canonical(),
            "v1/campaign workload=crafty injections=300 seed=2026 model=parity latency=- \
             recovery=machine-check ecc=- pattern=- node=- env=- prune=true level=summary"
        );
        let off = parse_job("campaign", r#"{"workload": "crafty"}"#).unwrap();
        assert_ne!(job.canonical(), off.canonical());
        // The prepared state does not: pruning is part of the run plan.
        let (JobSpec::Campaign(on), JobSpec::Campaign(off)) = (&job, &off) else {
            panic!("campaign jobs expected");
        };
        assert_eq!(on.golden_key(), "golden workload=crafty");
        assert_eq!(on.golden_key(), off.golden_key());
    }

    /// Jobs that differ only in their run plan, detection model and
    /// pruning included, share one golden run, and sharing never moves a
    /// byte.
    #[test]
    fn jobs_differing_only_in_plan_share_one_golden_run() {
        let campaigns = [
            r#"{"workload": "crafty", "seed": 1, "injections": 10}"#,
            r#"{"workload": "crafty", "seed": 2, "injections": 10}"#,
            r#"{"workload": "crafty", "seed": 1, "injections": 20}"#,
            r#"{"workload": "crafty", "injections": 10, "recovery": "idempotent",
                "detect_latency": "fixed:4"}"#,
            r#"{"workload": "crafty", "injections": 20, "ecc": "sec-ded", "model": "none"}"#,
            r#"{"workload": "crafty", "injections": 10, "model": "none"}"#,
            r#"{"workload": "crafty", "injections": 10, "model": "tracking"}"#,
            r#"{"workload": "crafty", "injections": 10, "model": "tracking", "prune": true}"#,
        ];
        let jobs = campaigns.map(|body| ("campaign", body));
        let grid = ("ecc-grid", r#"{"workloads": ["crafty"], "probes": 20}"#);
        let shared = SharedRuns::default();
        for (kind, body) in jobs.into_iter().chain([grid]) {
            let job = parse_job(kind, body).unwrap();
            let alone = job.execute(&SharedRuns::default()).unwrap();
            assert_eq!(job.execute(&shared).unwrap(), alone, "{body}");
        }
        // One golden run for every model, both pruning settings, the ECC
        // campaign and the grid.
        assert_eq!(shared.len(), 1);
    }

    /// Concurrent jobs on one golden key prepare it once, and each
    /// artifact matches the job run alone.
    #[test]
    fn concurrent_jobs_prepare_one_golden_run() {
        let jobs: Vec<JobSpec> = (1..=4)
            .map(|seed| {
                let body = format!(r#"{{"workload": "crafty", "seed": {seed}, "injections": 10}}"#);
                parse_job("campaign", &body).unwrap()
            })
            .collect();
        let shared = SharedRuns::default();
        let start = std::sync::Barrier::new(jobs.len());
        let served: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|job| {
                    scope.spawn(|| {
                        start.wait();
                        job.execute(&shared).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(shared.0.stats().misses, 1);
        assert_eq!(shared.len(), 1);
        for (job, bytes) in jobs.iter().zip(&served) {
            assert_eq!(*bytes, job.execute(&SharedRuns::default()).unwrap());
        }
    }

    #[test]
    fn unknown_field_rejected() {
        let err = parse_job("campaign", r#"{"workload": "crafty", "bogus": 1}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn unknown_workload_rejected() {
        let err = parse_job("campaign", r#"{"workload": "not-a-bench"}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("not-a-bench"));
    }

    #[test]
    fn conflicting_flavours_rejected() {
        let err = parse_job(
            "campaign",
            r#"{"workload": "crafty", "recovery": "idempotent", "ecc": "sec"}"#,
        )
        .unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn distinct_configs_get_distinct_keys() {
        let a = parse_job("campaign", r#"{"workload": "crafty"}"#).unwrap();
        let b = parse_job("campaign", r#"{"workload": "crafty", "seed": 7}"#).unwrap();
        assert_ne!(a.canonical(), b.canonical());
        assert_ne!(job_key_hash(&a.canonical()), job_key_hash(&b.canonical()));
    }

    #[test]
    fn threads_excluded_from_canonical() {
        let a = parse_job("campaign", r#"{"workload": "crafty", "threads": 1}"#).unwrap();
        let b = parse_job("campaign", r#"{"workload": "crafty", "threads": 8}"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn suite_and_grid_and_fuzz_canonicals() {
        let s = parse_job("suite", r#"{"squash": "l1"}"#).unwrap();
        assert_eq!(s.canonical(), "v1/suite squash=l1 throttle=- level=summary");
        let g = parse_job("ecc-grid", r#"{"workloads": ["crafty", "mcf"]}"#).unwrap();
        assert_eq!(
            g.canonical(),
            "v1/ecc-grid workloads=crafty,mcf probes=400 seed=3788 level=summary"
        );
        let f = parse_job("fuzz", r#"{"iters": 40}"#).unwrap();
        assert_eq!(
            f.canonical(),
            "v1/fuzz seed=1 iters=40 inject_every=16 shrink=true mem_heavy=false level=summary"
        );
    }

    #[test]
    fn full_level_is_not_cacheable() {
        let job = parse_job("campaign", r#"{"workload": "crafty", "level": "full"}"#).unwrap();
        assert!(!job.cacheable());
    }

    #[test]
    fn off_level_rejected() {
        let err = parse_job("campaign", r#"{"workload": "crafty", "level": "off"}"#).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn serving_caps_apply_at_admission_not_at_parse() {
        let cli = JobSpec::from_args("campaign", &["crafty", "--injections", "100001"]).unwrap();
        let json = parse_job(
            "campaign",
            r#"{"workload": "crafty", "injections": 100001}"#,
        )
        .unwrap();
        assert_eq!(cli.canonical(), json.canonical());
        assert!(cli.canonical().contains("injections=100001"));
        assert_eq!(json.admit().unwrap_err().status, 400);
        for (kind, args) in [
            ("ecc-grid", vec!["crafty", "--probes", "100001"]),
            ("fuzz", vec!["--iters", "10001"]),
            ("suite", vec!["--threads", "257"]),
        ] {
            let job = JobSpec::from_args(kind, &args).unwrap();
            assert_eq!(job.admit().unwrap_err().status, 400, "{kind} {args:?}");
        }
        let at_cap = JobSpec::from_args("campaign", &["crafty", "--injections", "100000"]);
        assert_eq!(at_cap.unwrap().admit(), Ok(()));
    }

    #[test]
    fn argv_rejects_what_a_json_body_would() {
        for (kind, args, needle) in [
            (
                "campaign",
                vec!["crafty", "500"],
                "unexpected argument '500'",
            ),
            ("suite", vec!["l1"], "unexpected argument 'l1'"),
            ("fuzz", vec!["--bogus", "1"], "unknown flag '--bogus'"),
            ("campaign", vec!["crafty", "--seed"], "--seed needs a value"),
            (
                "campaign",
                vec!["crafty", "--injections", "abc"],
                "--injections must be",
            ),
            (
                "campaign",
                vec!["crafty", "--seed", "1", "--seed", "2"],
                "duplicate flag '--seed'",
            ),
            ("campaign", vec!["--model", "parity"], "needs a 'workload'"),
        ] {
            let err = JobSpec::from_args(kind, &args).unwrap_err();
            assert_eq!(err.status, 400);
            assert!(err.message.contains(needle), "{args:?}: {}", err.message);
        }
    }

    /// One field as a generated job carries it, absent when `None`.
    #[derive(Debug, Clone)]
    enum Val {
        S(&'static str),
        N(u64),
        B(bool),
    }

    type Field = Option<(&'static str, Val)>;

    fn pick(key: &'static str, choices: &[&'static str]) -> Union<Field> {
        let mut alternatives = vec![Just(None).boxed()];
        alternatives.extend(
            choices
                .iter()
                .map(|&c| Just(Some((key, Val::S(c)))).boxed()),
        );
        Union(alternatives)
    }

    fn num(key: &'static str, below: u64) -> BoxedStrategy<Field> {
        prop_oneof![
            Just(None),
            (0..below).prop_map(move |n| Some((key, Val::N(n))))
        ]
        .boxed()
    }

    fn switch(key: &'static str) -> BoxedStrategy<Field> {
        prop_oneof![
            Just(None),
            any::<bool>().prop_map(move |b| Some((key, Val::B(b))))
        ]
        .boxed()
    }

    /// Spells one job as a JSON body and as argv and parses both: they
    /// must fail alike or agree on the canonical form.
    fn assert_parity(kind: &str, names: &[&str], fields: &[Field]) {
        let mut body = Vec::new();
        match (kind, names) {
            (_, []) => {}
            ("ecc-grid", _) => {
                let names = names
                    .iter()
                    .map(|n| JsonValue::Str(n.to_string()))
                    .collect();
                body.push(("workloads".to_string(), JsonValue::Array(names)));
            }
            _ => body.push(("workload".to_string(), JsonValue::Str(names[0].to_string()))),
        }
        let mut argv: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        for (key, val) in fields.iter().flatten() {
            argv.push(flag(key));
            let value = match val {
                Val::S(s) => {
                    argv.push(s.to_string());
                    JsonValue::Str(s.to_string())
                }
                Val::N(n) => {
                    argv.push(n.to_string());
                    JsonValue::U64(*n)
                }
                Val::B(b) => {
                    if !b {
                        argv.push("false".to_string());
                    }
                    JsonValue::Bool(*b)
                }
            };
            body.push((key.to_string(), value));
        }
        let canonical =
            |job: Result<JobSpec, JobError>| job.map(|j| j.canonical()).map_err(|e| e.status);
        assert_eq!(
            canonical(JobSpec::from_args(kind, &argv)),
            canonical(JobSpec::parse(kind, &JsonValue::Object(body))),
            "argv {argv:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn campaign_argv_and_json_parse_to_the_same_job(
            workload in prop_oneof![Just("crafty"), Just("gzip"), Just("no-such-bench")],
            (injections, seed, threads) in (num("injections", 200_000), num("seed", 1 << 40), num("threads", 512)),
            (model, latency, recovery) in (
                pick("model", &["none", "parity", "tracking", "bogus"]),
                pick("detect_latency", &["fixed:4", "geometric:6"]),
                pick("recovery", &["machine-check", "idempotent"]),
            ),
            (ecc, pattern, node, env) in (
                pick("ecc", &["sec", "sec-ded"]),
                pick("pattern_model", &["single", "spatial"]),
                pick("node", &["16nm"]),
                pick("env", &["avionics"]),
            ),
            (prune, level) in (switch("prune"), pick("level", &["summary", "full", "off"])),
        ) {
            assert_parity(
                "campaign",
                &[workload],
                &[injections, seed, threads, model, latency, recovery, ecc, pattern, node, env, prune, level],
            );
        }

        #[test]
        fn suite_argv_and_json_parse_to_the_same_job(
            squash in pick("squash", &["l0", "l1", "L2", "l3"]),
            throttle in pick("throttle", &["l0", "l1"]),
            threads in num("threads", 512),
            level in pick("level", &["summary", "full"]),
        ) {
            assert_parity("suite", &[], &[squash, throttle, threads, level]);
        }

        #[test]
        fn ecc_grid_argv_and_json_parse_to_the_same_job(
            names in proptest::collection::vec(prop_oneof![Just("crafty"), Just("mcf"), Just("cc")], 0..4),
            probes in num("probes", 200_000),
            seed in num("seed", 1 << 20),
            level in pick("level", &["summary", "full"]),
        ) {
            assert_parity("ecc-grid", &names, &[probes, seed, level]);
        }

        #[test]
        fn fuzz_argv_and_json_parse_to_the_same_job(
            (seed, iters, inject_every) in (num("seed", 1 << 20), num("iters", 20_000), num("inject_every", 64)),
            shrink in switch("shrink"),
            mutate in pick("mutate", &["regions", "bogus"]),
            level in pick("level", &["summary", "full"]),
        ) {
            assert_parity("fuzz", &[], &[seed, iters, inject_every, shrink, mutate, level]);
        }
    }
}
