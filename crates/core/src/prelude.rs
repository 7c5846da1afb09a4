//! The stable, one-import surface of the ghost specification.
//!
//! `use pkvm_ghost::prelude::*;` brings in everything a typical oracle
//! user touches — building an [`Oracle`], reading its [`TrapRecord`]
//! trace and [`Violation`]s, and inspecting [`GhostState`] — without
//! reaching into individual modules. Additions here are additive; code
//! importing the prelude keeps compiling as the crate grows.

pub use crate::abscache::CacheStats;
pub use crate::check::{Subject, Violation, ViolationKind};
pub use crate::checker::{CheckMode, Checker, StatsSnapshot, Verdict};
pub use crate::oracle::{Oracle, OracleOpts, OracleOptsBuilder, TrapOutcome, TrapRecord};
pub use crate::spec::SpecVerdict;
pub use crate::state::GhostState;
