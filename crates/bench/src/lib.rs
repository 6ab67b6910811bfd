//! # ezflow-bench — the paper's evaluation, regenerated
//!
//! One module per artifact of the paper's evaluation (see DESIGN.md §5 for
//! the experiment index). Every experiment is a plain function taking a
//! [`Scale`] and returning a [`report::Report`], so that the same code
//! backs every scale:
//!
//! * `cargo run --release -p ezflow-bench --bin experiments -- all`
//!   — full-length reproductions, printed as paper-vs-measured tables and
//!   ASCII figures (the source of EXPERIMENTS.md);
//! * `experiments -- --quick all` — scaled-down versions of every
//!   experiment, for CI-sized validation.
//!
//! Simulator speed is measured by `perfbench/` at the repository root;
//! `tests/golden.rs` pins the hot path's behaviour.

#![forbid(unsafe_code)]

pub mod audit_out;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod telemetry_out;

pub use report::{Report, Row, Scale};
pub use runner::{Job, SweepRunner};
