//! Database-level advice: one disk budget shared across collections.
//!
//! The demo advises one collection at a time; a real deployment (e.g.
//! TPoX's order/custacc/security trio) has a single disk budget for the
//! whole database. Collections compete for it the way the daemon's
//! tenants do: each runs the greedy search ([`crate::anytime`]) on its
//! own, and its acceptance sequence — every step's benefit conditional
//! on the steps before it — is a frontier that [`crate::tenancy::allocate`]
//! spends the shared budget across, one step at a time, wherever the next
//! step buys the most per page.

use crate::advisor::{index_definitions, Advisor};
use crate::anytime::{anytime_search, AnytimeOptions};
use crate::candidates::generate_basic_candidates;
use crate::generalize::generalize;
use crate::tenancy::{allocate, frontier_items, TenantFrontier, PAGE_BYTES};
use crate::whatif::{EngineConfig, WhatIfEngine};
use crate::workload::Workload;
use xia_index::IndexDefinition;
use xia_storage::Database;

/// Advice for one collection within a database recommendation.
#[derive(Debug, Clone)]
pub struct CollectionAdvice {
    pub collection: String,
    /// Recommended indexes, ready to create.
    pub indexes: Vec<IndexDefinition>,
    /// Estimated workload cost with no indexes.
    pub base_cost: f64,
    /// Estimated workload cost under the recommendation.
    pub final_cost: f64,
    /// Estimated size of this collection's share (bytes).
    pub size_bytes: u64,
}

/// A whole-database recommendation.
#[derive(Debug, Clone)]
pub struct DatabaseRecommendation {
    pub per_collection: Vec<CollectionAdvice>,
    pub budget_bytes: u64,
    /// Step-by-step allocation trace.
    pub trace: Vec<String>,
}

impl DatabaseRecommendation {
    pub fn total_size(&self) -> u64 {
        self.per_collection.iter().map(|c| c.size_bytes).sum()
    }

    pub fn total_benefit(&self) -> f64 {
        self.per_collection
            .iter()
            .map(|c| c.base_cost - c.final_cost)
            .sum()
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "Database recommendation (budget {} KiB, used {} KiB, benefit {:.1}):\n",
            self.budget_bytes / 1024,
            self.total_size() / 1024,
            self.total_benefit()
        );
        for c in &self.per_collection {
            out.push_str(&format!(
                "  [{}] {:.1} -> {:.1} with {} indexes ({} KiB)\n",
                c.collection,
                c.base_cost,
                c.final_cost,
                c.indexes.len(),
                c.size_bytes / 1024
            ));
            for d in &c.indexes {
                out.push_str(&format!("      {}\n", d));
            }
        }
        out
    }
}

impl Advisor {
    /// Recommend indexes for several collections under one shared budget.
    ///
    /// `workloads` pairs collection names (which must exist in `db`) with
    /// their workloads; update statements are priced like in
    /// [`Advisor::recommend`]. The budget is spent in whole pages
    /// (`budget_bytes / PAGE_BYTES`), so the result never exceeds
    /// `budget_bytes`.
    pub fn recommend_database(
        &self,
        db: &Database,
        workloads: &[(&str, &Workload)],
        budget_bytes: u64,
    ) -> DatabaseRecommendation {
        let model = &self.config.cost_model;
        // Per collection, one greedy search run to completion as if the
        // whole budget were its own; its acceptance sequence is the
        // collection's frontier.
        let runs: Vec<_> = workloads
            .iter()
            .filter_map(|&(name, workload)| {
                let coll = db.collection(name)?;
                let basics = generate_basic_candidates(coll, workload);
                let dag = generalize(coll, &basics, &self.config.generalization);
                let any = anytime_search(
                    coll,
                    model,
                    workload,
                    &dag,
                    budget_bytes,
                    &AnytimeOptions::default(),
                );
                Some((name, coll, workload, dag, any))
            })
            .collect();
        let frontiers: Vec<TenantFrontier> = runs
            .iter()
            .map(|(name, _, _, dag, any)| TenantFrontier {
                tenant: name.to_string(),
                items: frontier_items(name, dag, &any.telemetry.frontier),
                floor_pages: 0,
                ceiling_pages: None,
                error_bound: 0.0,
            })
            .collect();
        let allocation = allocate(&frontiers, budget_bytes / PAGE_BYTES);

        let mut trace = Vec::new();
        let per_collection = runs
            .iter()
            .zip(&allocation.per_tenant)
            .map(|((name, coll, workload, dag, any), grant)| {
                let steps = &any.telemetry.frontier[..grant.chosen.len()];
                for (step, item) in steps.iter().zip(&grant.chosen) {
                    for &i in &step.nodes {
                        trace.push(format!(
                            "[{name}] grant {} (step benefit {:.1}, {} pages)",
                            dag.nodes[i].candidate.pattern, item.benefit, item.pages
                        ));
                    }
                }
                // A frontier granted whole is the search's own result,
                // eviction and drop-unused included. A cut one is the
                // accepted prefix as it stood, priced afresh.
                let (chosen, final_cost, size_bytes) = if grant.starved {
                    trace.push(format!(
                        "[{name}] budget exhausted after {} of {} steps",
                        steps.len(),
                        any.telemetry.frontier.len()
                    ));
                    let chosen: Vec<usize> =
                        steps.iter().flat_map(|s| s.nodes.iter().copied()).collect();
                    let mut ev = WhatIfEngine::from_workload(
                        coll,
                        model,
                        workload,
                        dag,
                        EngineConfig::default(),
                    );
                    let (cost, size) = (ev.cost(&chosen), ev.size(&chosen));
                    (chosen, cost, size)
                } else {
                    let out = &any.outcome;
                    (out.chosen.clone(), out.workload_cost, out.size_bytes)
                };
                CollectionAdvice {
                    collection: name.to_string(),
                    indexes: index_definitions(dag, &chosen),
                    base_cost: any.outcome.base_cost,
                    final_cost,
                    size_bytes,
                }
            })
            .collect();

        DatabaseRecommendation {
            per_collection,
            budget_bytes,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchStrategy;
    use xia_workload::{tpox_queries, TpoxConfig, TpoxGen};

    fn tpox_db() -> Database {
        let mut db = Database::new();
        TpoxGen::new(TpoxConfig {
            orders: 200,
            customers: 40,
            securities: 30,
            seed: 3,
        })
        .populate_all(&mut db);
        db
    }

    fn workload_for(coll: &str) -> Workload {
        let texts: Vec<String> = tpox_queries()
            .into_iter()
            .filter(|(c, _)| *c == coll)
            .map(|(_, q)| q)
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        Workload::from_queries(&refs, coll).unwrap()
    }

    #[test]
    fn database_recommendation_respects_shared_budget() {
        let db = tpox_db();
        let (wo, wc, ws) = (
            workload_for("order"),
            workload_for("custacc"),
            workload_for("security"),
        );
        let workloads = vec![("order", &wo), ("custacc", &wc), ("security", &ws)];
        let advisor = Advisor::default();
        let rec = advisor.recommend_database(&db, &workloads, 256 << 10);
        assert!(rec.total_size() <= 256 << 10);
        assert!(rec.total_benefit() > 0.0);
        assert_eq!(rec.per_collection.len(), 3);
        // The biggest workload (order) should get indexes.
        let order = rec
            .per_collection
            .iter()
            .find(|c| c.collection == "order")
            .unwrap();
        assert!(!order.indexes.is_empty());
        assert!(rec.render().contains("[order]"));
        assert!(!rec.trace.is_empty());
    }

    #[test]
    fn tight_budget_prioritizes_highest_ratio_collection() {
        let db = tpox_db();
        let (wo, wc) = (workload_for("order"), workload_for("custacc"));
        let workloads = vec![("order", &wo), ("custacc", &wc)];
        let advisor = Advisor::default();
        let generous = advisor.recommend_database(&db, &workloads, 4 << 20);
        // Budget = size of the smallest recommended index, measured against
        // its own collection's statistics.
        let smallest = generous
            .per_collection
            .iter()
            .flat_map(|c| c.indexes.iter().map(move |d| (c.collection.as_str(), d)))
            .map(|(coll_name, d)| {
                let coll = db.collection(coll_name).unwrap();
                coll.stats()
                    .estimated_index_bytes(&d.pattern, d.data_type)
                    .max(1)
            })
            .min()
            .unwrap_or(1024);
        let tight = advisor.recommend_database(&db, &workloads, smallest.max(2048));
        assert!(tight.total_size() <= smallest.max(2048));
        let total: usize = tight.per_collection.iter().map(|c| c.indexes.len()).sum();
        assert!(
            total <= 2,
            "tight budget should pick very few indexes, got {total}"
        );
    }

    #[test]
    fn database_advice_matches_per_collection_advice_when_budget_is_ample() {
        let db = tpox_db();
        let wo = workload_for("order");
        let advisor = Advisor::default();
        let single = advisor.recommend(
            db.collection("order").unwrap(),
            &wo,
            4 << 20,
            SearchStrategy::GreedyHeuristic,
        );
        let multi = advisor.recommend_database(&db, &[("order", &wo)], 4 << 20);
        let multi_order = &multi.per_collection[0];
        // Both ran the same greedy loop, so the benefit is the same.
        let single_benefit = single.benefit();
        let multi_benefit = multi_order.base_cost - multi_order.final_cost;
        assert!(
            (single_benefit - multi_benefit).abs() / single_benefit.max(1.0) <= 1e-6,
            "single {single_benefit} vs multi {multi_benefit}"
        );
    }

    #[test]
    fn insert_heavy_collection_gets_a_smaller_share() {
        let db = tpox_db();
        let (wo, wc) = (workload_for("order"), workload_for("custacc"));
        let mut churny = workload_for("order");
        let orders = db.collection("order").unwrap();
        churny.add_insert(
            orders.get(xia_storage::DocId(0)).unwrap().clone(),
            100_000.0,
        );
        let advisor = Advisor::default();
        let share = |order: &Workload| {
            let rec =
                advisor.recommend_database(&db, &[("order", order), ("custacc", &wc)], 256 << 10);
            (
                rec.per_collection[0].size_bytes,
                rec.per_collection[1].size_bytes,
            )
        };
        let (read_only, custacc_before) = share(&wo);
        let (insert_heavy, custacc_after) = share(&churny);
        assert!(
            insert_heavy < read_only,
            "maintenance cost should shrink order's share: {insert_heavy} vs {read_only}"
        );
        assert_eq!(
            custacc_after, custacc_before,
            "ample budget: custacc unaffected"
        );
    }

    #[test]
    fn unknown_collections_are_skipped() {
        let db = tpox_db();
        let wo = workload_for("order");
        let advisor = Advisor::default();
        let rec = advisor.recommend_database(&db, &[("nope", &wo)], 1 << 20);
        assert!(rec.per_collection.is_empty());
    }
}
