//! Campaign-as-a-service: a dependency-free HTTP/1.1 + JSON daemon that
//! serves `campaign`, `suite`, `ecc-grid`, and `fuzz` jobs with the same
//! schema-versioned telemetry artifacts the CLI writes — byte for byte.
//!
//! The serving stack is deliberately small and deterministic:
//!
//! * [`JobSpec`] — the job model, defined in `ses_core::job` and shared
//!   with the CLI: a request parses from a JSON body into the same typed
//!   job the CLI builds from its arguments, canonicalises to a
//!   content-addressed key, and runs through one code path, so a served
//!   artifact is byte-identical to the `--json` file the CLI writes for
//!   the same job. The daemon alone applies the serving caps
//!   ([`JobSpec::admit`]).
//! * [`cache`] — a single-flight LRU result cache with a byte budget.
//!   Only deterministic (`summary`-level) artifacts are cached, so a hit
//!   returns exactly the bytes a cold run would produce.
//! * [`server`] — `std::net::TcpListener` acceptor plus a work-stealing
//!   shard pool of connection workers. Hostile input (truncated requests,
//!   oversized bodies, malformed JSON, unknown routes) yields structured
//!   JSON error responses and never takes a worker down.
//! * [`client`] / [`loadtest`] — a blocking HTTP client and the
//!   `ser-repro loadtest` harness that drives concurrent clients with
//!   mixed query shapes and records latency percentiles, throughput and
//!   cache hit rate into `BENCH_serve.json`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod client;
pub mod http;
pub mod loadtest;
pub mod server;

pub use cache::{CacheStats, ResultCache};
pub use client::{http_get, http_post, Response};
pub use ses_core::job::{job_key_hash, JobError, JobSpec, SharedRuns};
pub use loadtest::{run_loadtest, LoadtestConfig, LoadtestReport};
pub use server::{Server, ServeConfig};
