//! Repository benchmark for the distributed-memory simulator.
//!
//! `perfbench` (untraced) measures the end-to-end metrics of one workload;
//! `perfbench-traced` drives the same workload through a layer-call replica
//! with a host timer around each call into a library crate, and reports the
//! per-layer profile. See README.md for the workloads and metrics.

pub mod alloc;
pub mod calibrate;
pub mod cli;
pub mod fingerprint;
pub mod reference;
pub mod replica;
pub mod report;
pub mod stats;
pub mod traced;
pub mod untraced;
pub mod workloads;
