//! # gunrock-perfbench
//!
//! The repository's benchmark: two seeded workloads timed end to end
//! (`--trace 0`) plus a traced run that splits the same work by
//! layer (`--trace 1`). See `README.md` beside this crate for the
//! workloads, the metrics and how each layer metric maps onto an
//! end-to-end one.

#![warn(missing_docs)]

pub mod metrics;
pub mod ops;
pub mod sample;
pub mod serve;
pub mod stats;
pub mod trace;
