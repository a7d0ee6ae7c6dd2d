//! Core shared types for the soft-error-rate reproduction suite.
//!
//! This crate holds the small, dependency-free vocabulary types used by every
//! other crate in the workspace: simulation time ([`Cycle`]), dynamic
//! instruction identity ([`SeqNo`]), architectural names ([`Reg`], [`Pred`],
//! [`Addr`]), and the reliability quantities from the paper ([`Fit`],
//! [`Mttf`], [`Avf`], [`Ipc`], [`Mitf`]) — plus the one index-ordered
//! [`parallel_map`] that sweeps and campaigns share.
//!
//! # Example
//!
//! ```
//! use ses_types::{Avf, Fit, Ipc, Mitf, Mttf};
//!
//! // A 2.5 GHz part with a raw error rate of 0.001 FIT/bit over a 64-entry
//! // x 64-bit structure whose AVF is 29%:
//! let raw = Fit::per_bit(0.001).scaled(64 * 64);
//! let avf = Avf::from_percent(29.0);
//! let mttf = Mttf::from_fit(raw.derated(avf));
//! let mitf = Mitf::new(Ipc::new(1.21), 2.5e9, mttf);
//! assert!(mitf.instructions() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod error;
mod ids;
mod par;
mod rates;

pub use error::{ConfigError, SesError};
pub use ids::{Addr, Cycle, Pred, Reg, SeqNo};
pub use par::{parallel_map, parallel_map_with, worker_count};
pub use rates::{Avf, Fit, Ipc, Mitf, Mtbf, Mttf, FIT_HOURS, HOURS_PER_YEAR};
