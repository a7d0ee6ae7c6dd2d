//! Campaign-as-a-service battery: server-vs-CLI byte equivalence, cache
//! correctness, hostile-input robustness, and concurrency stress.
//!
//! The equivalence tests spawn the *actual* CLI binary
//! (`CARGO_BIN_EXE_ser-repro`) with `--json` and compare the file bytes
//! against the daemon's response body for the same (config, workload,
//! seed) — parameters are passed explicitly to both sides so a silent
//! default divergence between the CLI and the job layer cannot pass.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use ses_core::JsonValue;
use ses_serve::{http_get, http_post, JobSpec, ServeConfig, Server};

fn start_server(threads: usize, cache_bytes: usize) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        cache_bytes,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// Runs the real CLI with `--json <tmp>` and returns the artifact bytes.
fn cli_artifact(args: &[&str]) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path: PathBuf = std::env::temp_dir().join(format!(
        "ser-repro-serve-test-{}-{n}.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_ser-repro"))
        .args(args)
        .arg("--json")
        .arg(&path)
        .output()
        .expect("CLI binary runs");
    assert!(
        output.status.success(),
        "CLI {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let bytes = std::fs::read_to_string(&path).expect("CLI wrote artifact");
    let _ = std::fs::remove_file(&path);
    bytes
}

fn post_ok(addr: std::net::SocketAddr, kind: &str, body: &str) -> ses_serve::Response {
    let resp = http_post(addr, &format!("/v1/{kind}"), body).expect("request completes");
    assert_eq!(
        resp.status,
        200,
        "POST /v1/{kind} {body} failed: {}",
        resp.body_str()
    );
    resp
}

// ---------------------------------------------------------------------------
// Satellite 1: server-vs-CLI byte equivalence, across server thread counts.
// ---------------------------------------------------------------------------

#[test]
fn served_campaign_artifacts_match_cli_across_server_threads() {
    // Plain fixed-budget campaign (the CLI `inject` path; seed is the
    // CLI's fixed 2026), recovery flavour with its `recovery` stanza, and
    // ECC flavour with its `pattern_model` stanza.
    let plain_cli = cli_artifact(&[
        "inject",
        "crafty",
        "--injections",
        "60",
        "--model",
        "parity",
    ]);
    let recovery_cli = cli_artifact(&[
        "campaign",
        "crafty",
        "--detect-latency",
        "fixed:8",
        "--recovery",
        "idempotent",
        "--injections",
        "60",
        "--seed",
        "99",
    ]);
    let ecc_cli = cli_artifact(&[
        "campaign",
        "crafty",
        "--ecc",
        "sec-ded",
        "--injections",
        "80",
        "--seed",
        "7",
        "--node",
        "16nm",
        "--env",
        "avionics",
    ]);
    assert!(recovery_cli.contains("\"recovery\""));
    assert!(ecc_cli.contains("\"pattern_model\""));

    for threads in [1usize, 2, 8] {
        let server = start_server(threads, 64 << 20);
        let addr = server.addr();

        let plain = post_ok(
            addr,
            "campaign",
            r#"{"workload": "crafty", "injections": 60, "seed": 2026, "model": "parity"}"#,
        );
        assert_eq!(
            plain.body_str(),
            plain_cli,
            "plain campaign bytes diverge from CLI at server --threads {threads}"
        );

        let recovery = post_ok(
            addr,
            "campaign",
            r#"{"workload": "crafty", "injections": 60, "seed": 99, "detect_latency": "fixed:8", "recovery": "idempotent"}"#,
        );
        assert_eq!(
            recovery.body_str(),
            recovery_cli,
            "recovery campaign bytes diverge from CLI at server --threads {threads}"
        );

        let ecc = post_ok(
            addr,
            "campaign",
            r#"{"workload": "crafty", "injections": 80, "seed": 7, "ecc": "sec-ded", "node": "16nm", "env": "avionics"}"#,
        );
        assert_eq!(
            ecc.body_str(),
            ecc_cli,
            "ecc campaign bytes diverge from CLI at server --threads {threads}"
        );

        server.shutdown();
    }
}

#[test]
fn served_suite_artifact_matches_cli() {
    let cli = cli_artifact(&["suite", "--squash", "l1", "--threads", "2"]);
    let server = start_server(2, 64 << 20);
    let resp = post_ok(server.addr(), "suite", r#"{"squash": "l1", "threads": 2}"#);
    assert_eq!(resp.body_str(), cli);
    server.shutdown();
}

#[test]
fn served_ecc_grid_artifact_matches_cli() {
    let cli = cli_artifact(&[
        "ecc-grid", "crafty", "mcf", "--probes", "120", "--seed", "5",
    ]);
    let server = start_server(2, 64 << 20);
    let resp = post_ok(
        server.addr(),
        "ecc-grid",
        r#"{"workloads": ["crafty", "mcf"], "probes": 120, "seed": 5}"#,
    );
    assert_eq!(resp.body_str(), cli);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Satellite 2: cache correctness.
// ---------------------------------------------------------------------------

#[test]
fn cache_hit_returns_cold_run_bytes() {
    let server = start_server(2, 64 << 20);
    let addr = server.addr();
    let body = r#"{"workload": "crafty", "injections": 40, "seed": 11}"#;

    let cold = post_ok(addr, "campaign", body);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    let warm = post_ok(addr, "campaign", body);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(cold.body_str(), warm.body_str());
    assert_eq!(cold.header("x-job-key"), warm.header("x-job-key"));
    server.shutdown();
}

#[test]
fn eviction_then_requery_reproduces_identical_bytes() {
    // A budget that holds exactly one fuzz artifact (cache entry =
    // canonical key ~82 bytes + body ~200 bytes), so the second distinct
    // job must evict the first.
    let server = start_server(2, 400);
    let addr = server.addr();
    let job_a = r#"{"iters": 25, "seed": 3}"#;
    let job_b = r#"{"iters": 25, "seed": 4}"#;

    let a1 = post_ok(addr, "fuzz", job_a);
    assert_eq!(a1.header("x-cache"), Some("miss"));
    let b1 = post_ok(addr, "fuzz", job_b);
    assert_eq!(b1.header("x-cache"), Some("miss"));
    // `a` was evicted: this is a recompute, and it must reproduce the
    // cold bytes exactly.
    let a2 = post_ok(addr, "fuzz", job_a);
    assert_eq!(a2.header("x-cache"), Some("miss"));
    assert_eq!(a1.body_str(), a2.body_str());
    assert_ne!(a1.body_str(), b1.body_str());

    let stats = http_get(addr, "/v1/stats").expect("stats");
    let doc = JsonValue::parse(stats.body_str()).expect("stats parse");
    let evictions = doc
        .get("cache")
        .and_then(|c| c.get("evictions"))
        .and_then(|v| v.as_u64())
        .expect("evictions counter");
    assert!(evictions >= 1, "expected at least one eviction");
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distinct configs never collide on a cache key: any perturbation of
    /// any parameter produces a different canonical form (the cache key).
    #[test]
    fn perturbed_configs_never_collide_on_cache_key(
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
        inj_a in 1u32..500,
        inj_b in 1u32..500,
        model_a in 0usize..3,
        model_b in 0usize..3,
        latency_a in prop_oneof![Just(None), Just(Some("fixed:4")), Just(Some("geometric:6"))],
        latency_b in prop_oneof![Just(None), Just(Some("fixed:4")), Just(Some("geometric:6"))],
    ) {
        let models = ["none", "parity", "tracking"];
        let build = |seed: u64, inj: u32, model: usize, latency: Option<&str>| {
            let latency_field = match latency {
                Some(l) => format!(r#", "detect_latency": "{l}""#),
                None => String::new(),
            };
            // detect_latency forces the recovery flavour, where an
            // explicit model choice is honoured the same way.
            let body = format!(
                r#"{{"workload": "crafty", "injections": {inj}, "seed": {seed}, "model": "{}"{latency_field}}}"#,
                models[model]
            );
            let doc = JsonValue::parse(&body).expect("body renders as JSON");
            JobSpec::parse("campaign", &doc).expect("job parses")
        };
        let a = build(seed_a, inj_a, model_a, latency_a);
        let b = build(seed_b, inj_b, model_b, latency_b);
        let params_equal = (seed_a, inj_a, model_a, latency_a) == (seed_b, inj_b, model_b, latency_b);
        prop_assert_eq!(a.canonical() == b.canonical(), params_equal);
    }
}

// ---------------------------------------------------------------------------
// Satellite 3: hostile-input robustness.
// ---------------------------------------------------------------------------

/// Sends raw bytes, half-closes the write side, and reads the response.
fn raw_request(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(bytes).expect("write");
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read response");
    String::from_utf8_lossy(&out).into_owned()
}

fn assert_structured_error(response: &str, status: u16) {
    assert!(
        response.starts_with(&format!("HTTP/1.1 {status} ")),
        "expected status {status}, got: {response:.120}"
    );
    let body_start = response.find("\r\n\r\n").expect("header terminator") + 4;
    let doc = JsonValue::parse(&response[body_start..]).expect("error body is valid JSON");
    assert_eq!(doc.get("artifact").and_then(|v| v.as_str()), Some("error"));
    assert_eq!(
        doc.get("status").and_then(|v| v.as_u64()),
        Some(u64::from(status))
    );
    assert!(doc
        .get("error")
        .and_then(|v| v.as_str())
        .is_some_and(|m| !m.is_empty()));
}

/// The daemon answers a normal request correctly — asserted after every
/// hostile input to prove the worker survived.
fn assert_still_serving(addr: std::net::SocketAddr) {
    let health = http_get(addr, "/v1/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let doc = JsonValue::parse(health.body_str()).expect("health parses");
    assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(true));
}

#[test]
fn hostile_inputs_yield_structured_errors_and_daemon_keeps_serving() {
    let server = start_server(2, 64 << 20);
    let addr = server.addr();

    // Truncated request: promises a body, half-closes before sending it.
    let r = raw_request(
        addr,
        b"POST /v1/campaign HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"work",
    );
    assert_structured_error(&r, 400);
    assert_still_serving(addr);

    // Truncated head: no header terminator at all.
    let r = raw_request(addr, b"POST /v1/campaign HTT");
    assert_structured_error(&r, 400);
    assert_still_serving(addr);

    // Oversized body: rejected from the Content-Length alone.
    let r = raw_request(
        addr,
        b"POST /v1/campaign HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert_structured_error(&r, 413);
    assert_still_serving(addr);

    // Oversized head whose terminator arrives in the read that crosses
    // the 16 KiB limit: still rejected.
    let mut head = b"GET /v1/healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    let total = 16 * 1024 + 512;
    head.resize(total - 4, b'a');
    head.extend_from_slice(b"\r\n\r\n");
    let r = raw_request(addr, &head);
    assert_structured_error(&r, 413);
    assert_still_serving(addr);

    // Malformed request line.
    let r = raw_request(addr, b"complete garbage\r\n\r\n");
    assert_structured_error(&r, 400);
    assert_still_serving(addr);

    // Unknown routes and methods.
    let r = http_post(addr, "/v1/no-such-job", "{}").expect("request");
    assert_eq!(r.status, 404);
    let r = http_get(addr, "/nope").expect("request");
    assert_eq!(r.status, 404);
    let r = raw_request(addr, b"DELETE /v1/stats HTTP/1.1\r\n\r\n");
    assert_structured_error(&r, 405);
    assert_still_serving(addr);

    // Malformed JSON body.
    let r = http_post(addr, "/v1/campaign", "{\"workload\": ").expect("request");
    assert_eq!(r.status, 400);
    let doc = JsonValue::parse(r.body_str()).expect("error body parses");
    assert!(doc
        .get("error")
        .and_then(|v| v.as_str())
        .is_some_and(|m| m.contains("malformed JSON")));
    assert_still_serving(addr);

    // Valid JSON, invalid job: unknown workload, unknown field, bad type,
    // a budget over the serving cap.
    for body in [
        r#"{"workload": "no-such-bench"}"#,
        r#"{"workload": "crafty", "bogus": 1}"#,
        r#"{"workload": "crafty", "injections": "lots"}"#,
        r#"{"workload": "crafty", "injections": 100001}"#,
        r#"{"workload": "crafty", "recovery": "idempotent", "ecc": "sec"}"#,
        r#"[1, 2, 3]"#,
    ] {
        let r = http_post(addr, "/v1/campaign", body).expect("request");
        assert_eq!(r.status, 400, "body {body} should be a 400");
        let doc = JsonValue::parse(r.body_str()).expect("error body parses");
        assert_eq!(doc.get("artifact").and_then(|v| v.as_str()), Some("error"));
        assert_still_serving(addr);
    }

    // Mid-response disconnect: fire a valid job and slam the connection
    // shut without reading; the worker's failed write must not kill it.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let body = r#"{"iters": 25, "seed": 9}"#;
        let req = format!(
            "POST /v1/fuzz HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).expect("write");
        drop(s);
    }
    // Give the worker a moment to hit the broken pipe, then prove the
    // daemon still answers real jobs end to end.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let r = post_ok(addr, "fuzz", r#"{"iters": 25, "seed": 10}"#);
    let doc = JsonValue::parse(r.body_str()).expect("artifact parses");
    assert_eq!(doc.get("artifact").and_then(|v| v.as_str()), Some("fuzz"));

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Satellite 4: concurrency stress — N threads, identical + distinct jobs.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_stress_identical_bytes_and_hit_counter_matches_dedup() {
    let server = start_server(8, 64 << 20);
    let addr = server.addr();

    // 4 distinct (cheap) jobs, hammered by 16 clients x 8 requests.
    let jobs: Vec<String> = (0..4)
        .map(|s| format!(r#"{{"iters": 30, "seed": {}}}"#, 100 + s))
        .collect();
    let clients = 16usize;
    let per_client = 8usize;

    let responses: Vec<(usize, String, String)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let jobs = &jobs;
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                for r in 0..per_client {
                    let j = (c + r) % jobs.len();
                    let resp = post_ok(addr, "fuzz", &jobs[j]);
                    out.push((
                        j,
                        resp.header("x-cache").expect("x-cache header").to_string(),
                        resp.body_str().to_string(),
                    ));
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    let total = clients * per_client;
    assert_eq!(responses.len(), total);

    // Every response validates against the artifact schema; identical
    // jobs yield identical bytes.
    let mut canonical_bodies: Vec<Option<String>> = vec![None; jobs.len()];
    for (j, _cache, body) in &responses {
        let doc = JsonValue::parse(body).expect("artifact parses");
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(u64::from(ses_core::SCHEMA_VERSION))
        );
        assert_eq!(doc.get("artifact").and_then(|v| v.as_str()), Some("fuzz"));
        match &canonical_bodies[*j] {
            None => canonical_bodies[*j] = Some(body.clone()),
            Some(first) => assert_eq!(first, body, "job {j} bytes diverged across requests"),
        }
    }

    // The cache hit counter matches the dedup count exactly: single-flight
    // means each distinct job computes once, every other request is a hit.
    let misses = responses.iter().filter(|(_, c, _)| c == "miss").count();
    let hits = responses.iter().filter(|(_, c, _)| c == "hit").count();
    assert_eq!(
        misses,
        jobs.len(),
        "each distinct job computes exactly once"
    );
    assert_eq!(hits, total - jobs.len());

    let stats = http_get(addr, "/v1/stats").expect("stats");
    let doc = JsonValue::parse(stats.body_str()).expect("stats parse");
    let cache = doc.get("cache").expect("cache stanza");
    assert_eq!(
        cache.get("hits").and_then(|v| v.as_u64()),
        Some((total - jobs.len()) as u64)
    );
    assert_eq!(
        cache.get("misses").and_then(|v| v.as_u64()),
        Some(jobs.len() as u64)
    );

    server.shutdown();
}
