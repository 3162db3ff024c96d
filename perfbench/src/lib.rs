//! `perfbench`: the end-to-end and per-layer benchmark of `dram-serve`
//! and `dram-route`. See `perfbench/README.md`.

pub mod affinity;
pub mod check;
pub mod client;
pub mod gen;
pub mod layers;
pub mod procfs;
pub mod run;
pub mod servers;
pub mod spans;
pub mod stats;
pub mod workload;
