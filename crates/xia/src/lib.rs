//! # xia — An XML Index Advisor (reproduction)
//!
//! Facade crate re-exporting the whole system behind one dependency, the
//! way a downstream user would consume it:
//!
//! * [`xml`] — XML parser and arena document model.
//! * [`xpath`] — XPath subset: parser, linear paths, evaluator.
//! * [`index`] — XML pattern indexes (physical + virtual) and containment.
//! * [`storage`] — collections, path dictionary, statistics, updates.
//! * [`xquery`] — mini-XQuery and SQL/XML front ends.
//! * [`optimizer`] — cost-based optimizer with the paper's two EXPLAIN
//!   modes (Enumerate Indexes / Evaluate Indexes) and a batched
//!   (vectorized) plan executor with structural joins.
//! * [`advisor`] — the XML Index Advisor itself: candidate enumeration,
//!   generalization DAG, greedy/top-down configuration search, analysis.
//! * [`workload`] — XMark-like and TPoX-like data/query generators,
//!   plus the continuous [`workload::WorkloadMonitor`].
//! * [`server`] — the advisor as a daemon: concurrent TCP front end with
//!   continuous workload capture and online re-advising.
//!
//! ## Quickstart
//!
//! ```
//! use xia::prelude::*;
//!
//! // 1. Load data.
//! let mut coll = Collection::new("auctions");
//! XMarkGen::new(XMarkConfig { docs: 40, ..Default::default() }).populate(&mut coll);
//!
//! // 2. Describe the workload.
//! let workload = Workload::from_queries(
//!     &["/site/regions/africa/item/quantity", "//person[profile/age > 60]/name"],
//!     "auctions",
//! ).unwrap();
//!
//! // 3. Ask the advisor for a configuration within a 1 MiB budget.
//! let advisor = Advisor::default();
//! let rec = advisor.recommend(&coll, &workload, 1 << 20, SearchStrategy::GreedyHeuristic);
//! assert!(rec.benefit() >= 0.0);
//!
//! // 4. Create the indexes and run for real.
//! Advisor::create_indexes(&rec, &mut coll);
//! ```

pub use xia_advisor as advisor;
pub use xia_index as index;
pub use xia_optimizer as optimizer;
pub use xia_server as server;
pub use xia_storage as storage;
pub use xia_workload as workload;
pub use xia_xml as xml;
pub use xia_xpath as xpath;
pub use xia_xquery as xquery;

/// The names most programs need.
pub mod prelude {
    pub use xia_advisor::{
        analyze, anytime_search, compress, render_reviews, review_existing_indexes, search_with,
        Advisor, AdvisorConfig, AnytimeBudget, AnytimeOptions, CompressedRecommendation,
        CompressedWorkload, DatabaseRecommendation, EngineConfig, EvalStats, GreedyKnobs,
        IndexReview, IndexVerdict, Recommendation, SearchStrategy, WhatIfEngine, Workload,
    };
    pub use xia_index::{DataType, IndexDefinition, IndexId};
    pub use xia_optimizer::{
        enumerate_indexes, evaluate_indexes, execute, execute_navigational, explain,
        profile_execute, run_batch, BatchPlan, CostModel, ExecMode, OperatorStat, Profile,
    };
    pub use xia_server::{
        AdmissionConfig, ChaosFactory, ChaosProfile, Client, CycleReport, DurabilityConfig,
        LoadLevel, RetryPolicy, Server, ServerConfig, Transport, TransportFactory,
    };
    pub use xia_storage::{
        checkpoint_database, fingerprint, load_collection, load_database, recover_database,
        save_collection, save_database, Collection, Database, DocId, DurableStore, Fault, FaultVfs,
        RealVfs, Vfs, WalOp,
    };
    pub use xia_workload::{
        load_monitor, load_workload, save_monitor, save_workload, synthetic_variations,
        tpox_queries, xmark_queries, Clock, FakeClock, MonitorConfig, MonitorSnapshot, SynthConfig,
        SystemClock, TpoxConfig, TpoxGen, WorkloadMonitor, XMarkConfig, XMarkGen,
    };
    pub use xia_xml::{Document, DocumentBuilder};
    pub use xia_xpath::{evaluate, parse, LinearPath};
    pub use xia_xquery::{compile, Language, NormalizedQuery};
}
