//! # kosr-bench
//!
//! Reproduction harness for the paper's evaluation (§V): the [`harness`]
//! module prepares indexed scenarios and measures query batches; the
//! `repro` binary regenerates every table and figure; the Criterion benches
//! under `benches/` time the hot paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod parallel;

pub use harness::{
    format_count, format_ms, measure, measure_gsp, measure_served_sk, measure_sk_db,
    prepare_scenario, to_query, Limits, PointResult, Prepared, TextTable,
};
pub use parallel::{mean_counters_parallel, run_batch_parallel};
