//! serve-sweep: a `ser-repro serve --threads 2` daemon driven by a closed
//! loop of 2 clients over a seeded, shuffled mix of small-budget jobs,
//! each sent twice so about half the requests hit the result cache.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ses_core::JsonValue;
use ses_serve::{http_get, http_post, JobSpec, SharedRuns};

use crate::write_reference;
use crate::{digest, median, peak_rss_mb, quantile, read_reference, reset_peak_rss, shuffle};
use crate::{Args, Report};

const REFERENCE: &str = "serve_sweep.json";
const CLIENTS: usize = 2;
const DAEMON_THREADS: usize = 2;
/// Daemon starts timed per run; `setup_s` is their median.
const STARTS: usize = 21;
/// A job's repeat is queued this many new jobs after its first send, so
/// it normally arrives after the first answer is cached.
const REPEAT_LAG: usize = 6;
/// The daemon's peak RSS is read and reset this often; `peak_rss_mb` is
/// the median of these window peaks, so one transient spike does not set
/// the run's figure.
const RSS_WINDOW: Duration = Duration::from_secs(2);

/// Job seeds with recorded answers; `--seed` picks their order.
pub fn seed_pool() -> Vec<u64> {
    (1..=16).collect()
}

/// One request shape: route and a body template taking the job seed.
/// Bodies pin `"threads": 1`, so two clients with one worker each fit
/// two cores.
pub struct Shape {
    pub route: &'static str,
    body: fn(u64) -> String,
}

/// Plain campaigns (none, parity, tracking), latency plus idempotent
/// recovery, SEC-DED and parity ECC domains, and ecc-grid, over the
/// cache-resident crafty and the larger twolf and mcf.
pub fn shapes() -> Vec<Shape> {
    fn plain(w: &str, model: &str, seed: u64) -> String {
        format!(
            r#"{{"workload": "{w}", "model": "{model}", "injections": 10, "seed": {seed}, "threads": 1}}"#
        )
    }
    fn recovery(w: &str, latency: &str, seed: u64) -> String {
        format!(
            r#"{{"workload": "{w}", "detect_latency": "{latency}", "recovery": "idempotent", "injections": 10, "seed": {seed}, "threads": 1}}"#
        )
    }
    fn ecc(w: &str, scheme: &str, pattern: &str, injections: u32, seed: u64) -> String {
        format!(
            r#"{{"workload": "{w}", "ecc": "{scheme}", "pattern_model": "{pattern}", "injections": {injections}, "seed": {seed}, "threads": 1}}"#
        )
    }
    fn grid(workloads: &str, seed: u64) -> String {
        format!(r#"{{"workloads": [{workloads}], "probes": 20, "seed": {seed}}}"#)
    }
    let c = "/v1/campaign";
    vec![
        Shape {
            route: c,
            body: |s| plain("crafty", "none", s),
        },
        Shape {
            route: c,
            body: |s| plain("crafty", "parity", s),
        },
        Shape {
            route: c,
            body: |s| plain("crafty", "tracking", s),
        },
        Shape {
            route: c,
            body: |s| plain("twolf", "tracking", s),
        },
        Shape {
            route: c,
            body: |s| plain("mcf", "parity", s),
        },
        Shape {
            route: c,
            body: |s| recovery("crafty", "fixed:4", s),
        },
        Shape {
            route: c,
            body: |s| recovery("twolf", "geometric:8", s),
        },
        Shape {
            route: c,
            body: |s| ecc("crafty", "sec-ded", "spatial", 50, s),
        },
        Shape {
            route: c,
            body: |s| ecc("mcf", "sec-ded", "single", 50, s),
        },
        Shape {
            route: c,
            body: |s| ecc("twolf", "parity", "spatial", 15, s),
        },
        Shape {
            route: "/v1/ecc-grid",
            body: |s| grid(r#""crafty""#, s),
        },
        Shape {
            route: "/v1/ecc-grid",
            body: |s| grid(r#""mcf""#, s),
        },
    ]
}

/// One distinct job of the mix.
#[derive(Clone)]
pub struct Job {
    pub route: &'static str,
    pub body: String,
}

impl Job {
    /// Reference key: route and body, which determine the answer.
    pub fn key(&self) -> String {
        format!("{} {}", self.route, self.body)
    }

    pub fn kind(&self) -> &'static str {
        self.route.trim_start_matches("/v1/")
    }
}

/// Every job with a recorded answer, shape-major.
pub fn universe() -> Vec<Job> {
    shapes()
        .iter()
        .flat_map(|s| {
            seed_pool().into_iter().map(move |seed| Job {
                route: s.route,
                body: (s.body)(seed),
            })
        })
        .collect()
}

/// The run's distinct jobs in send order: round `r` sends one job of
/// every shape, shapes shuffled per round and each shape's seeds
/// shuffled once, so any prefix of the mix keeps the shape balance.
pub fn mix(seed: u64) -> Vec<Job> {
    let shapes = shapes();
    let pool = seed_pool();
    let mut seeds: Vec<_> = (0..shapes.len())
        .map(|s| {
            let mut p = pool.clone();
            shuffle(&mut p, crate::mix(seed ^ (s as u64 + 1)));
            p.into_iter()
        })
        .collect();
    let mut jobs = Vec::new();
    for round in 0..pool.len() as u64 {
        let mut order: Vec<usize> = (0..shapes.len()).collect();
        shuffle(&mut order, crate::mix(seed.wrapping_add(round * 0x1_0000)));
        for s in order {
            let job_seed = seeds[s].next().expect("one seed per shape and round");
            jobs.push(Job {
                route: shapes[s].route,
                body: (shapes[s].body)(job_seed),
            });
        }
    }
    jobs
}

/// Request stream over `n` jobs: each job index once as a first send and
/// once as a repeat, the repeat `REPEAT_LAG` first sends later.
pub fn stream(n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(2 * n);
    for j in 0..n {
        out.push(j);
        if j >= REPEAT_LAG {
            out.push(j - REPEAT_LAG);
        }
    }
    out.extend(n.saturating_sub(REPEAT_LAG)..n);
    out
}

/// A running `ser-repro serve` child, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    // Held open for the daemon's lifetime: it prints after its address
    // line, and a closed pipe would make that print fail.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon on a free port and waits for `/v1/healthz`.
    pub fn start(bin: &Path, threads: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("serving on http://")
            .ok_or_else(|| format!("unexpected daemon banner '{}'", line.trim()))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match http_get(&daemon.addr, "/v1/healthz") {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("daemon never became healthy: {other:?}")),
            }
        }
    }

    /// The peak RSS since the last call (or start), then resets it.
    fn window_peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.id().to_string();
        let peak = peak_rss_mb(&pid)?;
        reset_peak_rss(&pid)?;
        Ok(peak)
    }

    /// `/v1/stats` cache hits and misses.
    pub fn cache_stats(&self) -> Result<(u64, u64), String> {
        let r = http_get(&self.addr, "/v1/stats").map_err(|e| format!("GET /v1/stats: {e}"))?;
        let doc = JsonValue::parse(r.body_str()).map_err(|e| format!("/v1/stats: {e}"))?;
        let count = |k: &str| {
            doc.get("cache")
                .and_then(|c| c.get(k))
                .and_then(JsonValue::as_u64)
        };
        match (count("hits"), count("misses")) {
            (Some(h), Some(m)) => Ok((h, m)),
            _ => Err("/v1/stats lacks cache hits/misses".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One answered (or failed) request.
struct Answer {
    job: usize,
    latency_s: f64,
    end: Instant,
    outcome: Result<(bool, Vec<u8>), String>,
}

pub fn send(addr: &str, job: &Job) -> Result<(bool, Vec<u8>), String> {
    let r = http_post(addr, job.route, &job.body).map_err(|e| format!("{}: {e}", job.route))?;
    if r.status != 200 {
        return Err(format!(
            "{} answered {}: {}",
            job.route,
            r.status,
            r.body_str()
        ));
    }
    let hit = match r.header("x-cache") {
        Some("hit") => true,
        Some("miss") => false,
        other => return Err(format!("bad X-Cache header {other:?}")),
    };
    Ok((hit, r.body))
}

pub fn load_reference() -> Result<HashMap<String, String>, String> {
    let doc =
        JsonValue::parse(&read_reference(REFERENCE)?).map_err(|e| format!("{REFERENCE}: {e}"))?;
    let JsonValue::Object(fields) = doc else {
        return Err(format!("{REFERENCE} is not an object"));
    };
    fields
        .into_iter()
        .map(|(k, v)| match v {
            JsonValue::Str(d) => Ok((k, d)),
            other => Err(format!("{REFERENCE}: digest for {k} is {other:?}")),
        })
        .collect()
}

/// Checks every answer against the reference digests and each job's
/// answers against each other (a hit must repeat its miss byte for byte).
fn check_answers(
    report: &mut Report,
    jobs: &[Job],
    answers: &[Answer],
    reference: &HashMap<String, String>,
) {
    let mut first_body: HashMap<usize, &[u8]> = HashMap::new();
    for a in answers {
        let job = &jobs[a.job];
        match &a.outcome {
            Err(e) => report.check(false, e),
            Ok((_, body)) => {
                let want = reference.get(&job.key());
                let got = digest(body);
                let same = *first_body.entry(a.job).or_insert(body) == body.as_slice();
                report.check(
                    want == Some(&got) && same,
                    format!(
                        "{}: digest {got}, reference {want:?}, same as first answer: {same}",
                        job.key()
                    ),
                );
            }
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let reference = load_reference()?;
    let mut starts = Vec::new();
    let mut daemon = None;
    for _ in 0..STARTS {
        drop(daemon.take());
        let t = Instant::now();
        daemon = Some(Daemon::start(&args.ser_repro, DAEMON_THREADS)?);
        starts.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one daemon start");
    let jobs = mix(args.seed);
    let stream = stream(jobs.len());
    let next = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + args.seconds;
    let clients_done = AtomicBool::new(false);
    let mut window_peaks = Vec::new();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peaks = Vec::new();
            let mut window_end = Instant::now() + RSS_WINDOW;
            while !clients_done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
                if Instant::now() >= window_end {
                    peaks.push(daemon.window_peak_rss_mb());
                    window_end += RSS_WINDOW;
                }
            }
            peaks.push(daemon.window_peak_rss_mb());
            peaks
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| loop {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let Some(&job) = stream.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let t = Instant::now();
                    let outcome = send(&daemon.addr, &jobs[job]);
                    let end = Instant::now();
                    answers.lock().expect("answer log").push(Answer {
                        job,
                        latency_s: (end - t).as_secs_f64(),
                        end,
                        outcome,
                    });
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread panicked");
        }
        clients_done.store(true, Ordering::SeqCst);
        window_peaks = sampler.join().expect("RSS sampler panicked");
    });
    let window_peaks = window_peaks.into_iter().collect::<Result<Vec<_>, _>>()?;
    let answers = answers.into_inner().expect("answer log");
    let wall = answers
        .iter()
        .map(|a| a.end)
        .max()
        .map_or(0.0, |e| (e - start).as_secs_f64());
    let mut report = Report::default();
    check_answers(&mut report, &jobs, &answers, &reference);
    let latencies = |want_hit: bool| -> Vec<f64> {
        answers
            .iter()
            .filter(|a| matches!(a.outcome, Ok((hit, _)) if hit == want_hit))
            .map(|a| a.latency_s * 1e3)
            .collect()
    };
    let (misses, hits) = (latencies(false), latencies(true));
    if misses.len() < 100 {
        eprintln!(
            "note: only {} misses; miss_p90_ms has fewer than ten samples beyond it",
            misses.len()
        );
    }
    let requests_per_s = answers.len() as f64 / wall;
    report.metric("setup_s", median(&starts), "s");
    report.metric("throughput_per_s", requests_per_s, "1/s");
    report.metric("latency_p50_ms", median(&misses), "ms");
    report.metric("latency_p90_ms", quantile(&misses, 0.9), "ms");
    report.metric("peak_rss_mb", median(&window_peaks), "MB");
    report.alias("requests_per_s", requests_per_s, "1/s");
    report.alias("miss_p50_ms", median(&misses), "ms");
    report.alias("miss_p90_ms", quantile(&misses, 0.9), "ms");
    report.alias("hit_p50_ms", median(&hits), "ms");
    eprintln!(
        "serve-sweep: {} misses, {} hits in {wall:.2} s",
        misses.len(),
        hits.len()
    );
    Ok(report)
}

/// Executes one job in-process exactly as the daemon does.
pub fn execute(job: &Job, shared: &SharedRuns) -> Result<String, String> {
    let doc = JsonValue::parse(&job.body).map_err(|e| format!("{}: {e}", job.key()))?;
    let spec =
        JobSpec::parse(job.kind(), &doc).map_err(|e| format!("{}: {}", job.key(), e.message))?;
    spec.execute(shared)
        .map_err(|e| format!("{}: {}", job.key(), e.message))
}

pub fn record() -> Result<(), String> {
    let jobs = universe();
    let next = AtomicUsize::new(0);
    let digests = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let body = execute(job, &SharedRuns::default());
                digests
                    .lock()
                    .expect("digest log")
                    .push((i, body.map(|b| digest(b.as_bytes()))));
            });
        }
    });
    let mut digests = digests.into_inner().expect("digest log");
    digests.sort_by_key(|(i, _)| *i);
    let mut doc = JsonValue::object();
    for (i, d) in digests {
        doc.set(&jobs[i].key(), d?);
    }
    write_reference(REFERENCE, &doc.render())
}
