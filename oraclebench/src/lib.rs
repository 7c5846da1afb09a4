//! The oracle-tax benchmark: seeded schedule replay with a per-hook
//! layer ledger. `README.md` in this directory explains the workloads
//! and metrics.

pub mod ledger;
pub mod matrix;
pub mod provenance;
pub mod replay;
pub mod report;
pub mod schedule;
pub mod workload;
