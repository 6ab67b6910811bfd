//! End-to-end and per-layer benchmark of the EZ-flow simulator.
//!
//! The binary (`src/main.rs`) drives three pinned workloads through the
//! simulator's public API; this library holds the pieces it is built
//! from, so they can be tested on their own: [`stats`] (order
//! statistics, the peak-RSS parse, the fan-out census, the digest),
//! [`speed`] (host-speed calibration) and [`workload`] (the workload
//! table and the timed pipeline).

pub mod speed;
pub mod stats;
pub mod workload;

/// The seed a claim is tuned and reported on.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning, to confirm a claim on unseen data.
pub const HELD_OUT_SEED: u64 = 20_091_201;
