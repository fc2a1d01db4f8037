//! # xia-advisor
//!
//! The XML Index Advisor — the paper's primary contribution. Given an XML
//! database (a `xia-storage` collection), a query/update workload and a
//! disk space budget, it recommends the set of XML pattern indexes that
//! maximizes estimated workload benefit within the budget.
//!
//! The pipeline mirrors Figure 1 of the paper:
//!
//! 1. **Basic candidates** — for every workload query, the optimizer's
//!    *Enumerate Indexes* mode (virtual `//*` index + index matching)
//!    reports the query patterns an index could serve.
//! 2. **Generalization** — rules expand the basic candidates with more
//!    general patterns (`/regions/namerica/item/quantity` +
//!    `/regions/africa/item/quantity` → `/regions/*/item/quantity` →
//!    `/regions/*/item/*`), building a DAG whose roots are the most
//!    general candidates obtainable from the workload.
//! 3. **Configuration search** — a 0/1-knapsack-style search over
//!    candidate subsets, with benefit measured by the optimizer's
//!    *Evaluate Indexes* mode (virtual configurations, so index
//!    interaction is captured). Three strategies are provided: the
//!    relational-advisor greedy baseline [Valentin et al., ICDE 2000],
//!    the paper's greedy search with redundancy-detection heuristics and
//!    a workload-coverage bitmap, and the paper's top-down DAG search.
//! 4. **Analysis** — per-query costs under no-index / recommended /
//!    overtrained configurations, plus actual execution with the
//!    recommended indexes built.
//!
//! ```
//! use xia_advisor::{Advisor, SearchStrategy, Workload};
//! use xia_storage::Collection;
//! use xia_xml::Document;
//!
//! let mut coll = Collection::new("shop");
//! for i in 0..400 {
//!     let xml = format!("<shop><item><price>{}</price></item></shop>", i % 50);
//!     coll.insert(Document::parse(&xml).unwrap());
//! }
//! let workload = Workload::from_queries(&["//item[price = 3]"], "shop").unwrap();
//! let advisor = Advisor::default();
//! let rec = advisor.recommend(&coll, &workload, 1 << 20, SearchStrategy::GreedyHeuristic);
//! assert!(!rec.indexes.is_empty());
//! ```

pub mod advisor;
pub mod analysis;
pub mod anytime;
pub mod candidates;
pub mod compress;
pub mod generalize;
pub mod multi;
pub mod review;
pub mod search;
pub mod tenancy;
pub mod whatif;
pub mod workload;

pub use advisor::{Advisor, AdvisorConfig, CompressedRecommendation, Recommendation};
pub use analysis::{analyze, AnalysisReport, QueryCostTriple};
pub use anytime::{
    anytime_search, anytime_step, AnytimeBudget, AnytimeOptions, AnytimeOutcome, AnytimeState,
    AnytimeTelemetry, ConvergencePoint, FrontierPoint,
};
pub use candidates::{generate_basic_candidates, Candidate};
pub use compress::{
    compress, scan_cost_upper_bound, template_key, CompressedWorkload, TemplateCluster,
};
pub use generalize::{generalize, Dag, DagNode, GeneralizationConfig};
pub use multi::{CollectionAdvice, DatabaseRecommendation};
pub use review::{render_reviews, review_existing_indexes, IndexReview, IndexVerdict};
pub use search::{search_with, GreedyKnobs, SearchOutcome, SearchStrategy};
pub use tenancy::{
    allocate, frontier_items, merge_frontiers, pages_for, Allocation, FrontierItem,
    TenantAllocation, TenantFrontier, PAGE_BYTES,
};
pub use whatif::{reference_cost, reference_detail, EngineConfig, EvalStats, WhatIfEngine};
pub use workload::{Statement, StatementKind, Workload};
