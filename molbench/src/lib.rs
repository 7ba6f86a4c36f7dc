//! # molbench — the molseq benchmark
//!
//! One command runs a named workload against the public API of the
//! workspace crates for a fixed number of seconds, checks every answer,
//! and prints each metric by name with its unit and sample count; the
//! last line of standard output is one JSON object. The untraced run
//! reports end-to-end metrics; the traced run records spans around each
//! call into a layer and reports per-layer metrics. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod ode_sweep;
pub mod report;
pub mod rng;
pub mod serve_mixed;
pub mod ssa_sweep;
pub mod stats;
pub mod sweep;
pub mod trace;
