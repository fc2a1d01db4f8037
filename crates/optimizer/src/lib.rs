//! # xia-optimizer
//!
//! The cost-based query optimizer the advisor is "tightly coupled" with —
//! our stand-in for the DB2 optimizer extended with the paper's two new
//! EXPLAIN modes:
//!
//! * *Enumerate Indexes* ([`enumerate_indexes`]) — plant virtual `//*`
//!   (and `//*/@*`) indexes, run index matching, and report every query
//!   pattern that matched: "if all possible indexes were available, which
//!   query patterns would benefit from them?"
//! * *Evaluate Indexes* ([`evaluate_indexes`]) — plant a candidate
//!   configuration as virtual indexes (sized from statistics, never
//!   built) and return the estimated cost of each query under that
//!   configuration.
//!
//! Plans choose between a document scan and index access (single leg or
//! index-ANDing over multiple legs) using the statistics kept by
//! `xia-storage`. The [`executor`] runs chosen plans against physical
//! indexes so estimated improvements can be validated with actual
//! execution, as the demo's final step displays.

pub mod catalog;
pub mod cost;
pub mod exec;
pub mod executor;
pub mod explain;
pub mod optimize;
pub mod plan;
pub mod profile;

pub use catalog::Catalog;
pub use cost::{CostModel, QueryCost};
pub use exec::{run_batch, BatchOp, BatchPlan, BatchProfile, OpStats};
pub use executor::{choose_mode, execute, execute_mode, execute_navigational, ExecMode, ExecStats};
pub use explain::{
    enumerate_indexes, evaluate_indexes, evaluate_query, explain, CandidateIndex,
    ConfigurationCost, Explain, QueryEvaluation,
};
pub use optimize::{atom_predicate, optimize};
pub use plan::{AccessPath, IndexLeg, Plan};
pub use profile::{profile_execute, OperatorStat, Profile, ProfileNode};
