//! The top-level advisor API tying the pipeline together.

use crate::anytime::{anytime_search, AnytimeBudget, AnytimeOptions, AnytimeTelemetry};
use crate::candidates::{generate_basic_candidates, Candidate};
use crate::compress::{compress, scan_cost_upper_bound};
use crate::generalize::{generalize, Dag, GeneralizationConfig};
use crate::search::{search, SearchOutcome, SearchStrategy};
use crate::workload::Workload;
use xia_index::{DataType, IndexDefinition, IndexId};
use xia_optimizer::CostModel;
use xia_storage::Collection;

/// Advisor configuration.
#[derive(Debug, Clone, Default)]
pub struct AdvisorConfig {
    pub cost_model: CostModel,
    pub generalization: GeneralizationConfig,
}

/// The XML Index Advisor.
#[derive(Debug, Clone, Default)]
pub struct Advisor {
    pub config: AdvisorConfig,
}

/// A complete recommendation: the index set plus everything needed to
/// inspect how it was chosen.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The recommended indexes, ready to create (non-virtual definitions
    /// with fresh ids).
    pub indexes: Vec<IndexDefinition>,
    /// The basic candidates the optimizer enumerated.
    pub basic_candidates: Vec<Candidate>,
    /// The generalization DAG.
    pub dag: Dag,
    /// The search's result, including its trace.
    pub outcome: SearchOutcome,
    /// The strategy that produced it.
    pub strategy: SearchStrategy,
    /// The disk budget (bytes) the search honored.
    pub budget_bytes: u64,
}

impl Recommendation {
    /// Estimated benefit (no-index cost minus recommended-config cost).
    pub fn benefit(&self) -> f64 {
        self.outcome.benefit()
    }

    /// Estimated improvement as a percentage of the no-index cost.
    pub fn improvement_pct(&self) -> f64 {
        self.outcome.improvement_pct()
    }

    /// DDL statements for the recommended indexes.
    pub fn ddl(&self, collection: &str) -> Vec<String> {
        self.indexes.iter().map(|d| d.ddl(collection)).collect()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Recommendation ({}, budget {} KiB):\n",
            self.strategy,
            self.budget_bytes / 1024
        ));
        out.push_str(&format!(
            "  workload cost: {:.1} -> {:.1} ({:.1}% improvement)\n",
            self.outcome.base_cost,
            self.outcome.workload_cost,
            self.improvement_pct()
        ));
        out.push_str(&format!(
            "  configuration size: {} KiB\n",
            self.outcome.size_bytes / 1024
        ));
        for def in &self.indexes {
            out.push_str(&format!("  {}\n", def));
        }
        out
    }
}

/// Result of the scalable pipeline: compression + anytime search.
/// Structurally parallel to [`Recommendation`] but carries compression
/// and convergence telemetry instead of a [`SearchStrategy`].
#[derive(Debug, Clone)]
pub struct CompressedRecommendation {
    pub indexes: Vec<IndexDefinition>,
    pub dag: Dag,
    pub outcome: SearchOutcome,
    pub telemetry: AnytimeTelemetry,
    pub budget_bytes: u64,
    /// Query statements before compression.
    pub raw_queries: usize,
    /// Template clusters searched.
    pub templates: usize,
    /// Certified bound on |full-workload cost − compressed cost| for
    /// any configuration (see [`crate::compress`] module docs).
    pub error_bound: f64,
}

impl CompressedRecommendation {
    pub fn benefit(&self) -> f64 {
        self.outcome.benefit()
    }

    pub fn improvement_pct(&self) -> f64 {
        self.outcome.improvement_pct()
    }

    pub fn ddl(&self, collection: &str) -> Vec<String> {
        self.indexes.iter().map(|d| d.ddl(collection)).collect()
    }
}

/// A chosen configuration (DAG node indices) as creatable index
/// definitions, numbered from 1 in configuration order.
pub(crate) fn index_definitions(dag: &Dag, chosen: &[usize]) -> Vec<IndexDefinition> {
    chosen
        .iter()
        .enumerate()
        .map(|(seq, &node)| {
            let c = &dag.nodes[node].candidate;
            IndexDefinition::new(IndexId(seq as u32 + 1), c.pattern.clone(), c.data_type)
        })
        .collect()
}

impl Advisor {
    pub fn new(config: AdvisorConfig) -> Advisor {
        Advisor { config }
    }

    /// Run the full pipeline: enumerate → generalize → search.
    pub fn recommend(
        &self,
        collection: &Collection,
        workload: &Workload,
        budget_bytes: u64,
        strategy: SearchStrategy,
    ) -> Recommendation {
        let basic = generate_basic_candidates(collection, workload);
        let dag = generalize(collection, &basic, &self.config.generalization);
        let outcome = search(
            collection,
            &self.config.cost_model,
            workload,
            &dag,
            budget_bytes,
            strategy,
        );
        Recommendation {
            indexes: index_definitions(&dag, &outcome.chosen),
            basic_candidates: basic,
            dag,
            outcome,
            strategy,
            budget_bytes,
        }
    }

    /// The scalable pipeline: compress the workload to weighted template
    /// representatives, then run the anytime greedy search (optionally
    /// warm-started from a previous configuration given as
    /// `(pattern, data_type)` shapes, optionally exhaustively refined on
    /// small DAGs). With no refinement, no warm start and an unbounded
    /// budget this recommends exactly what [`Advisor::recommend`] with
    /// [`SearchStrategy::GreedyHeuristic`] does on a duplicate-free
    /// workload — compression only merges weight.
    pub fn recommend_compressed(
        &self,
        collection: &Collection,
        workload: &Workload,
        budget_bytes: u64,
        budget: &AnytimeBudget,
        refine_max_nodes: usize,
        warm_shapes: &[(String, DataType)],
    ) -> CompressedRecommendation {
        let cw = compress(workload);
        let compressed = cw.workload();
        let basic = generate_basic_candidates(collection, compressed);
        let dag = generalize(collection, &basic, &self.config.generalization);
        let warm_start: Vec<usize> = dag
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                warm_shapes.iter().any(|(p, t)| {
                    *t == n.candidate.data_type && *p == n.candidate.pattern.to_string()
                })
            })
            .map(|(i, _)| i)
            .collect();
        let opts = AnytimeOptions {
            budget: *budget,
            refine_max_nodes,
            warm_start,
        };
        let any = anytime_search(
            collection,
            &self.config.cost_model,
            compressed,
            &dag,
            budget_bytes,
            &opts,
        );
        let scan = scan_cost_upper_bound(collection, &self.config.cost_model);
        CompressedRecommendation {
            indexes: index_definitions(&dag, &any.outcome.chosen),
            dag,
            outcome: any.outcome,
            telemetry: any.telemetry,
            budget_bytes,
            raw_queries: cw.raw_queries,
            templates: cw.templates(),
            error_bound: cw.error_bound(scan),
        }
    }

    /// The "overtrained" configuration: every basic candidate, ignoring
    /// the budget — the maximum-benefit yardstick of the demo's analysis
    /// view (Figure 5).
    pub fn overtrained_config(
        &self,
        collection: &Collection,
        workload: &Workload,
    ) -> Vec<IndexDefinition> {
        generate_basic_candidates(collection, workload)
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                IndexDefinition::virtual_index(IndexId(1000 + i as u32), c.pattern, c.data_type)
            })
            .collect()
    }

    /// Physically create a recommendation's indexes on the collection.
    /// Returns the number of index entries built.
    pub fn create_indexes(rec: &Recommendation, collection: &mut Collection) -> usize {
        rec.indexes
            .iter()
            .map(|def| collection.create_index(def.clone()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_xml::DocumentBuilder;

    fn collection(n: usize) -> Collection {
        let mut c = Collection::new("shop");
        for i in 0..n {
            let mut b = DocumentBuilder::new();
            b.open("site");
            b.open("item");
            b.leaf("price", &format!("{}", i % 25));
            b.leaf("name", &format!("n{}", i % 6));
            b.close();
            b.close();
            c.insert(b.finish().unwrap());
        }
        c
    }

    #[test]
    fn recommend_end_to_end() {
        let c = collection(300);
        let w = Workload::from_queries(
            &["/site/item[price = 3]/name", r#"/site/item[name = "n2"]"#],
            "shop",
        )
        .unwrap();
        let advisor = Advisor::default();
        let rec = advisor.recommend(&c, &w, 1 << 20, SearchStrategy::GreedyHeuristic);
        assert!(!rec.indexes.is_empty());
        assert!(rec.benefit() > 0.0);
        assert!(rec.improvement_pct() > 0.0 && rec.improvement_pct() <= 100.0);
        assert!(
            rec.indexes.iter().all(|d| !d.is_virtual),
            "recommended indexes are creatable"
        );
        let ddl = rec.ddl("shop");
        assert!(ddl[0].contains("XMLPATTERN"));
        let report = rec.render();
        assert!(report.contains("improvement"));
    }

    #[test]
    fn created_indexes_speed_up_execution() {
        let mut c = collection(300);
        let w = Workload::from_queries(&["/site/item[price = 3]/name"], "shop").unwrap();
        let advisor = Advisor::default();
        let rec = advisor.recommend(&c, &w, 1 << 20, SearchStrategy::GreedyHeuristic);
        let entries = Advisor::create_indexes(&rec, &mut c);
        assert!(entries > 0);

        // With indexes built, the optimizer should now pick them and the
        // executor should touch far fewer documents.
        let q = xia_xquery::compile("/site/item[price = 3]/name", "shop").unwrap();
        let ex = xia_optimizer::explain(&c, &CostModel::default(), &q);
        assert!(ex.plan.uses_indexes(), "plan: {}", ex.text);
        let (_, stats) = xia_optimizer::execute(&c, &q, &ex.plan).unwrap();
        assert!(
            stats.docs_evaluated < 50,
            "evaluated {}",
            stats.docs_evaluated
        );
    }

    #[test]
    fn compressed_pipeline_matches_plain_greedy() {
        let c = collection(300);
        // Captured traffic: three exact duplicates plus one other query.
        let mut captured = Workload::new();
        for _ in 0..3 {
            captured
                .add_query("/site/item[price = 3]/name", "shop", 1.0)
                .unwrap();
        }
        captured
            .add_query(r#"/site/item[name = "n2"]"#, "shop", 2.0)
            .unwrap();
        // The same workload with duplicates pre-merged (weights 3 and 2).
        let mut flat = Workload::new();
        flat.add_query("/site/item[price = 3]/name", "shop", 3.0)
            .unwrap();
        flat.add_query(r#"/site/item[name = "n2"]"#, "shop", 2.0)
            .unwrap();
        let advisor = Advisor::default();
        let plain = advisor.recommend(&c, &flat, 1 << 20, SearchStrategy::GreedyHeuristic);
        let comp = advisor.recommend_compressed(
            &c,
            &captured,
            1 << 20,
            &AnytimeBudget::unbounded(),
            0,
            &[],
        );
        assert_eq!(comp.ddl("shop"), plain.ddl("shop"));
        assert_eq!(comp.outcome.workload_cost, plain.outcome.workload_cost);
        assert_eq!(comp.raw_queries, 4);
        assert_eq!(comp.templates, 2);
        assert_eq!(comp.error_bound, 0.0);
        assert!(!comp.telemetry.exhausted);
    }

    #[test]
    fn overtrained_config_covers_all_basics() {
        let c = collection(100);
        let w = Workload::from_queries(
            &["/site/item[price = 3]/name", r#"/site/item[name = "n2"]"#],
            "shop",
        )
        .unwrap();
        let advisor = Advisor::default();
        let over = advisor.overtrained_config(&c, &w);
        let basics = generate_basic_candidates(&c, &w);
        assert_eq!(over.len(), basics.len());
        assert!(over.iter().all(|d| d.is_virtual));
    }
}
