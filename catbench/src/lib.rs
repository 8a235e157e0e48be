//! # catbench — the catalog's end-to-end and per-layer benchmark
//!
//! Deploys the metadata catalog in-process, drives it with closed-loop
//! clients over real loopback connections, checks every answer, and
//! reports the client-visible metrics of the paper's operations (§7) or,
//! in a traced run, the time and work of each layer. `NOTES.md` beside
//! this crate says why each workload exists and which layer metric
//! should move which end-to-end metric.

#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod phase;
pub mod rng;
pub mod run;
pub mod trace;
pub mod workloads;

pub use metrics::Report;
pub use run::{run, Options};
pub use workloads::{Scale, Workload};
