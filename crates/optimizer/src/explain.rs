//! The paper's two new EXPLAIN modes, plus ordinary explain.
//!
//! *Enumerate Indexes*: plant virtual `//*` indexes (element and
//! attribute, both key types) and report every query pattern the index
//! matching phase matched against them — the optimizer answering "if all
//! possible indexes were available, which query patterns would benefit?"
//! The matched patterns are the advisor's *basic candidate set*.
//!
//! *Evaluate Indexes*: materialize a candidate configuration as virtual
//! indexes only (real indexes hidden so the hypothesis is evaluated
//! pure), optimize each workload query, and report estimated costs and
//! which indexes each best plan used.

use crate::catalog::Catalog;
use crate::cost::{CostModel, QueryCost};
use crate::optimize::{atom_predicate, optimize};
use crate::plan::Plan;
use xia_index::{match_index, DataType, IndexDefinition, IndexId};
use xia_storage::Collection;
use xia_xpath::LinearPath;
use xia_xquery::NormalizedQuery;

/// Ordinary explain result.
#[derive(Debug, Clone)]
pub struct Explain {
    pub plan: Plan,
    pub text: String,
}

/// Explain a query against the collection's real indexes.
pub fn explain(collection: &Collection, model: &CostModel, query: &NormalizedQuery) -> Explain {
    let catalog = Catalog::real_only(collection);
    let plan = optimize(&catalog, model, query);
    let text = plan.render(&query.text);
    Explain { plan, text }
}

/// A basic candidate produced by the Enumerate Indexes mode: an index on
/// exactly this pattern/type would serve some part of the query.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateIndex {
    pub pattern: LinearPath,
    pub data_type: DataType,
}

impl std::fmt::Display for CandidateIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XMLPATTERN '{}' AS {}", self.pattern, self.data_type)
    }
}

/// Enumerate Indexes mode: the basic candidate set for one query.
///
/// Candidates are deduplicated and returned in first-occurrence order.
pub fn enumerate_indexes(query: &NormalizedQuery) -> Vec<CandidateIndex> {
    // The virtual "indexes on everything". Ids are session-local and
    // never escape this function.
    let anything = [
        IndexDefinition::virtual_index(IndexId(u32::MAX), LinearPath::any(), DataType::Varchar),
        IndexDefinition::virtual_index(
            IndexId(u32::MAX - 1),
            LinearPath::parse("//*/@*").expect("static pattern"),
            DataType::Varchar,
        ),
        IndexDefinition::virtual_index(IndexId(u32::MAX - 2), LinearPath::any(), DataType::Double),
        IndexDefinition::virtual_index(
            IndexId(u32::MAX - 3),
            LinearPath::parse("//*/@*").expect("static pattern"),
            DataType::Double,
        ),
    ];
    let mut out: Vec<CandidateIndex> = Vec::new();
    for atom in &query.atoms {
        let pred = atom_predicate(atom);
        if !anything.iter().any(|v| match_index(v, &pred).is_some()) {
            // No index of any shape could serve this atom (e.g. certain
            // language features) — exactly what tight coupling filters out.
            continue;
        }
        let ty = pred.preferred_type();
        let cand = CandidateIndex {
            pattern: atom.path.clone(),
            data_type: ty,
        };
        if !out.contains(&cand) {
            out.push(cand);
        }
    }
    out
}

/// Evaluation of one query under a hypothesized configuration.
#[derive(Debug, Clone)]
pub struct QueryEvaluation {
    pub cost: QueryCost,
    pub used_indexes: Vec<IndexId>,
    pub plan: Plan,
}

/// Evaluation of a whole workload under a configuration.
#[derive(Debug, Clone)]
pub struct ConfigurationCost {
    pub per_query: Vec<QueryEvaluation>,
}

impl ConfigurationCost {
    /// Sum of per-query total costs (weights are applied by the caller,
    /// which knows query frequencies).
    pub fn total(&self) -> f64 {
        self.per_query.iter().map(|q| q.cost.total()).sum()
    }
}

/// Evaluate Indexes mode: cost each query as if exactly `config` existed.
///
/// Real physical indexes are hidden so the result reflects the
/// hypothesized configuration alone (the advisor evaluates candidate
/// configurations for a database being designed, not incremental deltas).
pub fn evaluate_indexes(
    collection: &Collection,
    model: &CostModel,
    config: &[IndexDefinition],
    queries: &[NormalizedQuery],
) -> ConfigurationCost {
    let catalog = Catalog::virtual_only(collection, config.to_vec());
    let per_query = queries
        .iter()
        .map(|q| {
            let plan = optimize(&catalog, model, q);
            QueryEvaluation {
                cost: plan.cost,
                used_indexes: plan.used_indexes(),
                plan,
            }
        })
        .collect();
    ConfigurationCost { per_query }
}

/// Evaluate Indexes mode for a single query.
///
/// Each query is optimized independently of the rest of the workload, so
/// a whole-workload evaluation decomposes exactly into per-query calls —
/// the unit the advisor's what-if engine memoizes and fans out across
/// threads. Identical to the corresponding entry of [`evaluate_indexes`].
pub fn evaluate_query(
    collection: &Collection,
    model: &CostModel,
    config: &[IndexDefinition],
    query: &NormalizedQuery,
) -> QueryEvaluation {
    let catalog = Catalog::virtual_only(collection, config.to_vec());
    let plan = optimize(&catalog, model, query);
    QueryEvaluation {
        cost: plan.cost,
        used_indexes: plan.used_indexes(),
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_xml::DocumentBuilder;
    use xia_xquery::compile;

    fn collection(n: usize) -> Collection {
        let mut c = Collection::new("auctions");
        for i in 0..n {
            let mut b = DocumentBuilder::new();
            b.open("site");
            b.open("regions");
            b.open(if i % 2 == 0 { "africa" } else { "namerica" });
            b.open("item");
            b.attr("id", &format!("i{i}"));
            b.leaf("price", &format!("{}", i % 50));
            b.leaf("quantity", &format!("{}", i % 5));
            b.close();
            b.close();
            b.close();
            b.close();
            c.insert(b.finish().unwrap());
        }
        c
    }

    fn q(text: &str) -> NormalizedQuery {
        compile(text, "auctions").unwrap()
    }

    #[test]
    fn enumerate_yields_pattern_per_atom() {
        let cands = enumerate_indexes(&q("/site/regions/africa/item[price > 10]/quantity"));
        let strs: Vec<String> = cands.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            strs,
            vec![
                "XMLPATTERN '/site/regions/africa/item/price' AS DOUBLE",
                "XMLPATTERN '/site/regions/africa/item/quantity' AS VARCHAR",
            ]
        );
    }

    #[test]
    fn enumerate_includes_attribute_patterns() {
        let cands = enumerate_indexes(&q(r#"//item[@id = "i3"]/price"#));
        let strs: Vec<String> = cands.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            strs,
            vec![
                "XMLPATTERN '//item/@id' AS VARCHAR",
                "XMLPATTERN '//item/price' AS VARCHAR",
            ]
        );
    }

    #[test]
    fn enumerate_dedupes_repeated_patterns() {
        let cands = enumerate_indexes(&q("//item[price > 1 and price < 9]"));
        assert_eq!(cands.len(), 2); // price (DOUBLE) + item extraction (VARCHAR)
    }

    #[test]
    fn enumerate_works_for_xquery_and_sqlxml() {
        let xq = enumerate_indexes(&q(
            r#"for $i in collection("auctions")//item where $i/price > 3 return $i/quantity"#,
        ));
        let sq = enumerate_indexes(&q(
            r#"SELECT XMLQUERY('$d//item/quantity') FROM auctions WHERE XMLEXISTS('$d//item[price > 3]')"#,
        ));
        let xs: Vec<String> = xq.iter().map(|c| c.to_string()).collect();
        let ss: Vec<String> = sq.iter().map(|c| c.to_string()).collect();
        // Same patterns, independent of surface language. SQL/XML also
        // emits the XMLEXISTS structural root (//item), a superset.
        assert!(
            ss.iter()
                .all(|s| xs.contains(s) || s.contains("'//item' AS VARCHAR")),
            "xquery: {xs:?} sql: {ss:?}"
        );
    }

    #[test]
    fn evaluate_ranks_configs_sensibly() {
        let c = collection(400);
        let model = CostModel::default();
        let queries = vec![q("//item[price = 7]/quantity")];
        let no_index = evaluate_indexes(&c, &model, &[], &queries);
        let with_index = evaluate_indexes(
            &c,
            &model,
            &[IndexDefinition::new(
                IndexId(1),
                LinearPath::parse("//item/price").unwrap(),
                DataType::Double,
            )],
            &queries,
        );
        assert!(
            with_index.total() < no_index.total(),
            "indexed {} should beat no-index {}",
            with_index.total(),
            no_index.total()
        );
        assert_eq!(with_index.per_query[0].used_indexes, vec![IndexId(1)]);
        assert!(no_index.per_query[0].used_indexes.is_empty());
    }

    #[test]
    fn evaluate_ignores_real_indexes() {
        let mut c = collection(200);
        c.create_index(IndexDefinition::new(
            IndexId(50),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        let model = CostModel::default();
        let queries = vec![q("//item[price = 7]/quantity")];
        let empty_config = evaluate_indexes(&c, &model, &[], &queries);
        assert!(
            empty_config.per_query[0].used_indexes.is_empty(),
            "virtual-only evaluation must not see the physical index"
        );
    }

    #[test]
    fn explain_normal_renders() {
        let c = collection(100);
        let ex = explain(&c, &CostModel::default(), &q("//item[price = 3]"));
        assert!(ex.text.contains("XSCAN") || ex.text.contains("XISCAN"));
        assert!(ex.text.contains("Estimated cost"));
    }
}
