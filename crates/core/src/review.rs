//! Reviewing an *existing* physical configuration.
//!
//! The demo's analysis view lets the user remove indexes and see the
//! effect (Figure 5). This module automates that: for each physical
//! index on a collection, estimate the workload cost with and without
//! it (simulated as virtual configurations, nothing is touched) and
//! classify it — indexes whose removal costs nothing are drop
//! candidates, reclaiming their space.

use crate::workload::Workload;
use xia_index::IndexDefinition;
use xia_optimizer::{evaluate_indexes, CostModel};
use xia_storage::Collection;
use xia_xquery::NormalizedQuery;

/// Verdict for one existing index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexVerdict {
    /// Some workload plan uses it and removing it raises cost.
    Keep,
    /// No best plan uses it; dropping reclaims its space for free.
    Drop,
}

/// Review result for one existing physical index.
#[derive(Debug, Clone)]
pub struct IndexReview {
    pub definition: IndexDefinition,
    pub verdict: IndexVerdict,
    /// Estimated workload cost increase if this index were dropped
    /// (0 for `Drop` verdicts).
    pub cost_if_dropped: f64,
    /// Bytes reclaimed by dropping it.
    pub reclaim_bytes: u64,
}

/// Review every physical index of `collection` against `workload`.
///
/// Returns one entry per index, `Drop` candidates first (largest
/// reclaim first), then `Keep` entries by ascending marginal value.
///
/// Verdicts are *leave-one-out*: each index is removed in isolation with
/// all others present. Two mutually redundant indexes therefore both get
/// `Drop` — drop one, re-run the review, and the survivor flips to
/// `Keep`. Drop one index at a time.
pub fn review_existing_indexes(
    collection: &Collection,
    model: &CostModel,
    workload: &Workload,
) -> Vec<IndexReview> {
    let queries: Vec<NormalizedQuery> = workload.queries().map(|(q, _)| q.clone()).collect();
    let freqs: Vec<f64> = workload.queries().map(|(_, f)| f).collect();
    let all_defs: Vec<IndexDefinition> = collection
        .indexes()
        .iter()
        .map(|ix| {
            let mut d = ix.definition().clone();
            d.is_virtual = true;
            d
        })
        .collect();

    let cost_of = |defs: &[IndexDefinition]| -> f64 {
        evaluate_indexes(collection, model, defs, &queries)
            .per_query
            .iter()
            .zip(&freqs)
            .map(|(q, f)| q.cost.total() * f)
            .sum()
    };
    let full_eval = evaluate_indexes(collection, model, &all_defs, &queries);
    let full_cost: f64 = full_eval
        .per_query
        .iter()
        .zip(&freqs)
        .map(|(q, f)| q.cost.total() * f)
        .sum();
    // Indexes used by some best plan under the full configuration: only
    // those need a leave-one-out evaluation. The rest are Drop by
    // definition (no plan would change without them).
    let used: std::collections::HashSet<_> = full_eval
        .per_query
        .iter()
        .flat_map(|q| q.used_indexes.iter().copied())
        .collect();

    let mut reviews: Vec<IndexReview> = collection
        .indexes()
        .iter()
        .enumerate()
        .map(|(i, ix)| {
            let cost_if_dropped = if used.contains(&ix.definition().id) {
                let mut without = all_defs.clone();
                without.remove(i);
                (cost_of(&without) - full_cost).max(0.0)
            } else {
                0.0
            };
            let verdict = if cost_if_dropped <= 1e-9 {
                IndexVerdict::Drop
            } else {
                IndexVerdict::Keep
            };
            IndexReview {
                definition: ix.definition().clone(),
                verdict,
                cost_if_dropped,
                reclaim_bytes: ix.byte_size() as u64,
            }
        })
        .collect();
    reviews.sort_by(|a, b| match (a.verdict, b.verdict) {
        (IndexVerdict::Drop, IndexVerdict::Keep) => std::cmp::Ordering::Less,
        (IndexVerdict::Keep, IndexVerdict::Drop) => std::cmp::Ordering::Greater,
        (IndexVerdict::Drop, IndexVerdict::Drop) => b.reclaim_bytes.cmp(&a.reclaim_bytes),
        (IndexVerdict::Keep, IndexVerdict::Keep) => a
            .cost_if_dropped
            .total_cmp(&b.cost_if_dropped)
            .then(a.definition.id.cmp(&b.definition.id)),
    });
    reviews
}

/// Render a review table.
pub fn render_reviews(reviews: &[IndexReview]) -> String {
    let mut out = format!(
        "{:<44} {:>8} {:>14} {:>12}\n",
        "index", "verdict", "cost if gone", "reclaim KiB"
    );
    for r in reviews {
        out.push_str(&format!(
            "{:<44} {:>8} {:>14.1} {:>12}\n",
            format!("{}", r.definition),
            match r.verdict {
                IndexVerdict::Keep => "keep",
                IndexVerdict::Drop => "DROP",
            },
            r.cost_if_dropped,
            r.reclaim_bytes / 1024
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_index::{DataType, IndexId};
    use xia_xml::DocumentBuilder;
    use xia_xpath::LinearPath;

    fn collection(n: usize) -> Collection {
        let mut c = Collection::new("shop");
        for i in 0..n {
            let mut b = DocumentBuilder::new();
            b.open("shop");
            b.open("item");
            b.leaf("price", &format!("{}", i % 40));
            b.leaf("name", &format!("n{}", i % 5));
            b.close();
            b.close();
            c.insert(b.finish().unwrap());
        }
        c
    }

    #[test]
    fn unused_index_gets_drop_verdict() {
        let mut c = collection(300);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        // Nothing in the workload touches names.
        c.create_index(IndexDefinition::new(
            IndexId(2),
            LinearPath::parse("//item/name").unwrap(),
            DataType::Varchar,
        ));
        let w = Workload::from_queries(&["//item[price = 3]"], "shop").unwrap();
        let reviews = review_existing_indexes(&c, &CostModel::default(), &w);
        assert_eq!(reviews.len(), 2);
        let name_review = reviews
            .iter()
            .find(|r| r.definition.pattern.to_string() == "//item/name")
            .unwrap();
        assert_eq!(name_review.verdict, IndexVerdict::Drop);
        assert_eq!(name_review.cost_if_dropped, 0.0);
        let price_review = reviews
            .iter()
            .find(|r| r.definition.pattern.to_string() == "//item/price")
            .unwrap();
        assert_eq!(price_review.verdict, IndexVerdict::Keep);
        assert!(price_review.cost_if_dropped > 0.0);
        // Drop rows sort first.
        assert_eq!(reviews[0].verdict, IndexVerdict::Drop);
        let table = render_reviews(&reviews);
        assert!(table.contains("DROP"));
        assert!(table.contains("keep"));
    }

    #[test]
    fn redundant_general_index_is_droppable() {
        let mut c = collection(300);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        // Strictly more general duplicate of the same coverage.
        c.create_index(IndexDefinition::new(
            IndexId(2),
            LinearPath::parse("//price").unwrap(),
            DataType::Double,
        ));
        let w = Workload::from_queries(&["//item[price = 3]"], "shop").unwrap();
        let reviews = review_existing_indexes(&c, &CostModel::default(), &w);
        let general = reviews
            .iter()
            .find(|r| r.definition.pattern.to_string() == "//price")
            .unwrap();
        assert_eq!(
            general.verdict,
            IndexVerdict::Drop,
            "the specific index serves the query at least as cheaply"
        );
    }

    #[test]
    fn empty_catalog_reviews_to_nothing() {
        let c = collection(50);
        let w = Workload::from_queries(&["//item[price = 3]"], "shop").unwrap();
        assert!(review_existing_indexes(&c, &CostModel::default(), &w).is_empty());
    }
}
