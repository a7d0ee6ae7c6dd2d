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
//! * `ses_core::cache` — the single-flight LRU result cache with a byte
//!   budget, the same cache that holds the shared golden runs. Only
//!   deterministic (`summary`-level) artifacts are cached, so a hit
//!   returns exactly the bytes a cold run would produce.
//! * [`server`] — `std::net::TcpListener` acceptor plus a pool of
//!   connection workers sharing one queue. Hostile input (truncated or
//!   trickled requests, oversized heads and bodies, malformed JSON,
//!   unknown routes) yields structured JSON error responses and never
//!   takes a worker down.
//! * [`client`] — a blocking HTTP client for tests and benchmarks.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod http;
pub mod server;

pub use client::{http_get, http_post, Response};
pub use server::{ServeConfig, Server};
pub use ses_core::job::{job_key_hash, JobError, JobSpec, SharedRuns};
