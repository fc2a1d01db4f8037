//! Plan enumeration and selection.
//!
//! For each query atom that can drive an access (required, or a branch of
//! an OR group), every catalog index is matched (`xia_index::match_index`)
//! and costed as an access leg; [`assemble`] then compares a full
//! document scan, index-ORing, index-only access, and index-ANDing over
//! prefixes of the most selective legs, and keeps the cheapest.
//!
//! Costing is split so that everything a configuration does not change
//! is computed once: a [`QueryFrame`] holds the query's scan cost and
//! result estimate, [`AtomFacts`] what the statistics say about one atom,
//! and [`cost_leg`] is arithmetic over those facts and the index's
//! [`IndexStats`]. [`optimize`] gathers legs from a [`Catalog`]; the
//! advisor's what-if engine caches the same legs per (query, atom,
//! candidate) and calls the same [`assemble`] for each configuration.
//!
//! Cardinalities come from the path dictionary; value selectivities from
//! the per-path histograms. Candidate verification is document-grained
//! (an index leg yields candidate documents; residual predicates are
//! evaluated navigationally on those documents), matching the executor's
//! semantics so estimated and actual behaviour correspond.

use crate::catalog::{Catalog, IndexStats};
use crate::cost::{CostModel, QueryCost};
use crate::plan::{AccessPath, IndexLeg, Plan};
use std::collections::BTreeMap;
use xia_index::{match_index, IndexDefinition, IndexMatch, PathPredicate};
use xia_storage::CollectionStats;
use xia_xquery::{NormalizedQuery, QueryAtom};

/// Maximum legs combined by index-ANDing.
const MAX_AND_LEGS: usize = 3;

/// Convert a query atom into the index layer's matching form.
pub fn atom_predicate(atom: &QueryAtom) -> PathPredicate {
    match &atom.value {
        Some((op, lit)) => PathPredicate::with_value(atom.path.clone(), *op, lit.clone()),
        None => PathPredicate::structural(atom.path.clone()),
    }
}

/// Does `atom` take part in plan choice? Required atoms feed the ANDed
/// legs and OR-group atoms the ORed ones; other atoms only filter.
pub fn drives_access(atom: &QueryAtom) -> bool {
    atom.required || atom.or_group.is_some()
}

/// Does `query` qualify for index-only access? Its single atom must be
/// the exact extraction path with no predicate at all; the leg then
/// serves atom 0.
pub fn index_only_eligible(query: &NormalizedQuery) -> bool {
    query.atoms.len() == 1 && query.atoms[0].is_extraction && query.atoms[0].exact
}

/// What every plan for one query shares, whatever indexes exist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryFrame {
    doc_count: f64,
    avg_doc_pages: f64,
    avg_doc_nodes: f64,
    scan_cost: QueryCost,
    est_results: f64,
}

impl QueryFrame {
    pub fn new(stats: &CollectionStats, model: &CostModel, query: &NormalizedQuery) -> QueryFrame {
        let doc_count = (stats.doc_count as f64).max(1.0);
        QueryFrame {
            doc_count,
            avg_doc_pages: (stats.data_pages() as f64 / doc_count).max(0.25),
            avg_doc_nodes: (stats.total_nodes as f64 / doc_count).max(1.0),
            scan_cost: QueryCost::new(
                stats.data_pages() as f64 * model.page_io,
                stats.total_nodes as f64 * model.cpu_node,
            ),
            est_results: estimate_results(stats, query),
        }
    }

    /// Cost of fetching `docs` candidate documents (random I/O) and
    /// verifying them navigationally.
    fn fetch_cost(&self, docs: f64, model: &CostModel) -> QueryCost {
        QueryCost::new(
            docs * model.random_io * self.avg_doc_pages.min(4.0),
            docs * self.avg_doc_nodes * model.cpu_node,
        )
    }
}

/// What the statistics say about one atom, whatever index serves it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomFacts {
    /// Nodes the atom's path reaches.
    pub path_count: f64,
    /// Fraction of those nodes satisfying the atom's value predicate;
    /// `None` for a structural atom.
    pub result_sel: Option<f64>,
}

impl AtomFacts {
    pub fn new(stats: &CollectionStats, atom: &QueryAtom) -> AtomFacts {
        let paths = stats.paths_matching(&atom.path);
        AtomFacts {
            path_count: stats.count_matching_in(&paths) as f64,
            result_sel: atom
                .value
                .as_ref()
                .map(|(op, lit)| stats.selectivity_in(&paths, *op, lit)),
        }
    }
}

/// Choose the cheapest plan for `query` against `catalog`.
pub fn optimize(catalog: &Catalog<'_>, model: &CostModel, query: &NormalizedQuery) -> Plan {
    let stats = catalog.collection().stats();
    let frame = QueryFrame::new(stats, model, query);
    let mut facts: Vec<Option<AtomFacts>> = vec![None; query.atoms.len()];

    // --- The best leg per access-driving atom. --------------------------
    let mut best: Vec<Option<IndexLeg>> = vec![None; query.atoms.len()];
    for (i, atom) in query.atoms.iter().enumerate() {
        if !drives_access(atom) {
            continue;
        }
        let pred = atom_predicate(atom);
        for def in catalog.indexes() {
            let Some(matched) = match_index(def, &pred) else {
                continue;
            };
            let facts = *facts[i].get_or_insert_with(|| AtomFacts::new(stats, atom));
            let key_sel = (!matched.structural_only).then(|| {
                let (op, lit) = atom.value.as_ref().expect("sargable implies value");
                stats.selectivity(&def.pattern, *op, lit)
            });
            let istats = catalog.index_stats(def);
            let leg = cost_leg(model, def, i, matched, &istats, &facts, key_sel);
            if better_leg(&leg, best[i].as_ref(), model) {
                best[i] = Some(leg);
            }
        }
    }

    // --- Index-only legs, one per matching index. -----------------------
    let mut only: Vec<IndexLeg> = Vec::new();
    if index_only_eligible(query) {
        let atom = &query.atoms[0];
        let pred = atom_predicate(atom);
        for def in catalog.indexes() {
            let Some(matched) = match_index(def, &pred) else {
                continue;
            };
            let facts = *facts[0].get_or_insert_with(|| AtomFacts::new(stats, atom));
            let istats = catalog.index_stats(def);
            only.push(index_only_leg(model, def, matched, &istats, &facts));
        }
    }

    let best: Vec<Option<&IndexLeg>> = best.iter().map(Option::as_ref).collect();
    let only: Vec<&IndexLeg> = only.iter().collect();
    assemble(model, &frame, query, &best, &only).to_plan()
}

/// The leg `def` offers for atom `atom_idx`, from the match, the index's
/// statistics, the atom's facts and — for a sargable match — the
/// fraction of the index's keys the probe selects (`key_sel`).
pub fn cost_leg(
    model: &CostModel,
    def: &IndexDefinition,
    atom_idx: usize,
    matched: IndexMatch,
    istats: &IndexStats,
    facts: &AtomFacts,
    key_sel: Option<f64>,
) -> IndexLeg {
    let entries = istats.entries as f64;

    // Nodes actually reachable by the *query* path (≤ index entries).
    let path_count = facts.path_count;

    let (entries_scanned, est_results) = if matched.structural_only {
        // Full posting scan; value predicate (if any) applied after fetch.
        (entries, path_count)
    } else {
        // Fraction of *index keys* the probe selects, and fraction of
        // *query path* nodes that satisfy the predicate.
        let key_sel = key_sel.expect("sargable leg needs its key selectivity");
        let result_sel = facts.result_sel.expect("sargable implies value");
        (entries * key_sel, path_count * result_sel)
    };

    let frac = if entries > 0.0 {
        (entries_scanned / entries).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let io = model.random_io * istats.btree_levels as f64 + istats.pages as f64 * frac;
    let mut cpu = entries_scanned * model.cpu_entry;
    if matched.needs_path_recheck {
        cpu += entries_scanned * model.cpu_recheck;
    }
    IndexLeg {
        index: def.id,
        pattern: def.pattern.clone(),
        atom: atom_idx,
        matched,
        est_entries_scanned: entries_scanned,
        est_results,
        cost: QueryCost::new(io, cpu),
    }
}

/// The leg `def` offers an index-only plan (see [`index_only_eligible`]):
/// a scan of every posting, never a document fetch.
pub fn index_only_leg(
    model: &CostModel,
    def: &IndexDefinition,
    matched: IndexMatch,
    istats: &IndexStats,
    facts: &AtomFacts,
) -> IndexLeg {
    let entries = istats.entries as f64;
    let mut cpu = entries * model.cpu_entry;
    if matched.needs_path_recheck {
        cpu += entries * model.cpu_recheck;
    }
    IndexLeg {
        index: def.id,
        pattern: def.pattern.clone(),
        atom: 0,
        matched,
        est_entries_scanned: entries,
        est_results: facts.path_count,
        cost: QueryCost::new(
            model.random_io * istats.btree_levels as f64 + istats.pages as f64,
            cpu,
        ),
    }
}

/// The best of `legs` by [`better_leg`], the first of equals winning —
/// the leg [`optimize`] keeps for one atom when `legs` come in catalog
/// order.
pub fn best_leg<'l>(
    legs: impl IntoIterator<Item = &'l IndexLeg>,
    model: &CostModel,
) -> Option<&'l IndexLeg> {
    let mut best: Option<&IndexLeg> = None;
    for leg in legs {
        if better_leg(leg, best, model) {
            best = Some(leg);
        }
    }
    best
}

/// Which plan shape [`assemble`] chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    DocScan,
    IndexAccess,
    IndexOnly,
    IndexOr,
}

/// The plan [`assemble`] chose, borrowing its legs.
#[derive(Debug, Clone)]
pub struct Assembled<'l> {
    shape: Shape,
    legs: Vec<&'l IndexLeg>,
    pub cost: QueryCost,
    pub est_results: f64,
    pub est_docs_fetched: f64,
}

impl Assembled<'_> {
    /// The chosen legs, in plan order (empty for a document scan).
    pub fn legs(&self) -> &[&IndexLeg] {
        &self.legs
    }

    /// The owned plan, as [`optimize`] returns it.
    pub fn to_plan(&self) -> Plan {
        let mut legs = self.legs.iter().map(|&l| l.clone());
        let access = match self.shape {
            Shape::DocScan => AccessPath::DocScan,
            Shape::IndexAccess => AccessPath::IndexAccess {
                legs: legs.collect(),
            },
            Shape::IndexOnly => AccessPath::IndexOnly {
                leg: legs.next().expect("an index-only plan has its leg"),
            },
            Shape::IndexOr => AccessPath::IndexOr {
                legs: legs.collect(),
            },
        };
        Plan {
            access,
            cost: self.cost,
            est_results: self.est_results,
            est_docs_fetched: self.est_docs_fetched,
        }
    }
}

/// Choose the cheapest plan from per-atom best legs.
///
/// `best[i]` is the best leg for atom `i` ([`best_leg`] over the
/// configuration), `None` where no index serves it or the atom does not
/// drive access; `only` holds one index-only leg per matching index, in
/// catalog order (empty unless [`index_only_eligible`]). The candidates
/// are, in order: the document scan, the best OR group, each index-only
/// leg, and AND prefixes of 1..=3 legs ranked by score; the first of the
/// cheapest wins.
pub fn assemble<'l>(
    model: &CostModel,
    frame: &QueryFrame,
    query: &NormalizedQuery,
    best: &[Option<&'l IndexLeg>],
    only: &[&'l IndexLeg],
) -> Assembled<'l> {
    let doc_count = frame.doc_count;
    let mut chosen = Assembled {
        shape: Shape::DocScan,
        legs: Vec::new(),
        cost: frame.scan_cost,
        est_results: frame.est_results,
        est_docs_fetched: doc_count,
    };
    // Finite cost-model inputs must yield finite, non-negative plan
    // costs; anything else would make the comparison meaningless.
    let check = |cost: QueryCost, est_results: f64, est_docs_fetched: f64| {
        if cfg!(debug_assertions) && model.is_finite() {
            cost.debug_assert_finite();
            debug_assert!(
                est_results.is_finite() && est_results >= 0.0,
                "non-finite est_results {est_results}"
            );
            debug_assert!(
                est_docs_fetched.is_finite() && est_docs_fetched >= 0.0,
                "non-finite est_docs_fetched {est_docs_fetched}"
            );
        }
    };
    check(chosen.cost, chosen.est_results, chosen.est_docs_fetched);
    // total_cmp, not partial_cmp, and strictly-less: a NaN total sorts
    // after every finite one, and the first of equal plans is kept.
    let cheaper =
        |cost: QueryCost, than: &Assembled<'_>| cost.total().total_cmp(&than.cost.total()).is_lt();

    // --- Index-ORing for disjunctive predicates. ---------------------------
    // An OR group is coverable when *every* branch has a usable leg: the
    // union of per-branch candidate documents then over-approximates the
    // qualifying documents, and navigational verification finishes the job.
    // One OR group per plan keeps things simple; the cheapest group wins.
    let mut groups: BTreeMap<u32, BTreeMap<u32, Vec<usize>>> = BTreeMap::new();
    for (i, atom) in query.atoms.iter().enumerate() {
        if let Some((g, b)) = atom.or_group {
            groups.entry(g).or_default().entry(b).or_default().push(i);
        }
    }
    let mut best_or: Option<Assembled<'l>> = None;
    for branches in groups.values() {
        // Per branch, the best leg over its atoms (each atom's own best
        // first, so this is the best over every atom × index pair).
        let legs: Option<Vec<&IndexLeg>> = branches
            .values()
            .map(|atoms| best_leg(atoms.iter().filter_map(|&i| best[i]), model))
            .collect();
        let Some(legs) = legs.filter(|l| !l.is_empty()) else {
            continue;
        };
        let mut cost = QueryCost::default();
        let mut docs_union = 0.0;
        for leg in &legs {
            cost += leg.cost;
            docs_union += leg.est_results.min(doc_count);
        }
        let docs_fetched = docs_union.min(doc_count);
        cost += frame.fetch_cost(docs_fetched, model);
        check(cost, frame.est_results, docs_fetched);
        if best_or.as_ref().is_none_or(|b| cheaper(cost, b)) {
            best_or = Some(Assembled {
                shape: Shape::IndexOr,
                legs,
                cost,
                est_results: frame.est_results,
                est_docs_fetched: docs_fetched,
            });
        }
    }
    if let Some(or) = best_or {
        if cheaper(or.cost, &chosen) {
            chosen = or;
        }
    }

    // --- Index-only access for pure extraction queries. -------------------
    // Answered entirely from a covering index's postings, DB2-style
    // index-only access: no document is ever fetched.
    for &leg in only {
        check(leg.cost, leg.est_results, 0.0);
        if cheaper(leg.cost, &chosen) {
            chosen = Assembled {
                shape: Shape::IndexOnly,
                legs: vec![leg],
                cost: leg.cost,
                est_results: leg.est_results,
                est_docs_fetched: 0.0,
            };
        }
    }

    // --- Index-ANDing over the most selective legs. -----------------------
    // total_cmp, not partial_cmp: a NaN score must not make the order (and
    // therefore the chosen leg subset) depend on enumeration order. Under
    // total_cmp NaN sorts after every finite score, so poisoned legs lose.
    // Equal scores break on the atom index (one leg per atom) so the ANDed
    // prefix is the same set no matter how the legs were gathered.
    let mut legs: Vec<&IndexLeg> = query
        .atoms
        .iter()
        .zip(best)
        .filter(|(atom, _)| atom.required)
        .filter_map(|(_, leg)| *leg)
        .collect();
    legs.sort_by(|a, b| {
        leg_score(a, model)
            .total_cmp(&leg_score(b, model))
            .then_with(|| a.atom.cmp(&b.atom))
    });
    let mut and_take = 0;
    for take in 1..=legs.len().min(MAX_AND_LEGS) {
        let (cost, docs_fetched) = and_cost(&legs[..take], model, frame);
        check(cost, frame.est_results, docs_fetched);
        if cheaper(cost, &chosen) {
            and_take = take;
            chosen.cost = cost;
            chosen.est_results = frame.est_results;
            chosen.est_docs_fetched = docs_fetched;
        }
    }
    if and_take > 0 {
        legs.truncate(and_take);
        chosen.shape = Shape::IndexAccess;
        chosen.legs = legs;
    }
    chosen
}

/// Cost and fetched documents of ANDing `legs`.
fn and_cost(legs: &[&IndexLeg], model: &CostModel, frame: &QueryFrame) -> (QueryCost, f64) {
    let doc_count = frame.doc_count;
    let mut cost = QueryCost::default();
    // Candidate documents after intersecting all legs, assuming
    // independence: docs * prod(per-leg document selectivity).
    let mut doc_frac = 1.0;
    for leg in legs {
        cost += leg.cost;
        let docs_leg = leg.est_results.min(doc_count);
        doc_frac *= (docs_leg / doc_count).clamp(0.0, 1.0);
    }
    let docs_fetched = (doc_count * doc_frac).min(doc_count);
    cost += frame.fetch_cost(docs_fetched, model);
    // Intersection bookkeeping.
    if legs.len() > 1 {
        let total_entries: f64 = legs.iter().map(|l| l.est_results).sum();
        cost += QueryCost::new(0.0, total_entries * model.cpu_entry);
    }
    (cost, docs_fetched)
}

/// Rank legs by their own cost plus the downstream fetch work their
/// output implies.
fn leg_score(leg: &IndexLeg, model: &CostModel) -> f64 {
    leg.cost.total() + leg.est_results * model.fetch
}

/// Is `leg` strictly better than the incumbent? Scores compare with
/// `total_cmp` so a NaN score (broken statistics, poisoned model) sorts
/// after every finite one instead of poisoning the comparison. Exact ties
/// are common — empty collections cost every leg the same, and NaN scores
/// tie with each other — and falling back to "first enumerated wins"
/// would make plan choice depend on index *creation order*, which breaks
/// what-if reproducibility. Ties therefore break on intrinsic leg
/// properties (cost bits, then pattern), never on catalog position.
fn better_leg(leg: &IndexLeg, best: Option<&IndexLeg>, model: &CostModel) -> bool {
    let Some(b) = best else { return true };
    match leg_score(leg, model).total_cmp(&leg_score(b, model)) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => leg_tiebreak(leg) < leg_tiebreak(b),
    }
}

fn leg_tiebreak(leg: &IndexLeg) -> (u64, u64, String) {
    (
        leg.cost.io.to_bits(),
        leg.cost.cpu.to_bits(),
        format!("{:?}", leg.pattern),
    )
}

/// Estimated number of result nodes for the whole query.
fn estimate_results(stats: &CollectionStats, query: &NormalizedQuery) -> f64 {
    let base = query
        .extraction()
        .map(|e| stats.count_matching(&e.path) as f64)
        .unwrap_or(0.0);
    let mut sel = 1.0;
    for atom in query.required_atoms() {
        if let Some((op, lit)) = &atom.value {
            sel *= stats.selectivity(&atom.path, *op, lit).clamp(0.0, 1.0);
        }
    }
    base * sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_index::{DataType, IndexId};
    use xia_storage::Collection;
    use xia_xml::DocumentBuilder;
    use xia_xpath::LinearPath;
    use xia_xquery::compile;

    /// A collection with enough items that scans are clearly worse than
    /// selective index probes.
    fn collection(n: usize) -> Collection {
        let mut c = Collection::new("auctions");
        for i in 0..n {
            let mut b = DocumentBuilder::new();
            b.open("site");
            b.open("item");
            b.attr("id", &format!("i{i}"));
            b.leaf("price", &format!("{}", (i % 100) as f64));
            b.leaf("name", &format!("thing{}", i % 7));
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
    fn no_indexes_means_docscan() {
        let c = collection(50);
        let cat = Catalog::real_only(&c);
        let plan = optimize(&cat, &CostModel::default(), &q("//item[price = 3]/name"));
        assert_eq!(plan.access, AccessPath::DocScan);
    }

    #[test]
    fn selective_index_beats_scan() {
        let mut c = collection(500);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        let cat = Catalog::real_only(&c);
        let plan = optimize(&cat, &CostModel::default(), &q("//item[price = 3]/name"));
        assert!(plan.uses_indexes(), "plan: {}", plan.render("q"));
        assert_eq!(plan.used_indexes(), vec![IndexId(1)]);
    }

    #[test]
    fn virtual_index_is_chosen_like_a_real_one() {
        let c = collection(500);
        let vdef = IndexDefinition::new(
            IndexId(7),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        );
        let cat = Catalog::with_virtuals(&c, vec![vdef]);
        let plan = optimize(&cat, &CostModel::default(), &q("//item[price = 3]/name"));
        assert_eq!(plan.used_indexes(), vec![IndexId(7)]);
    }

    #[test]
    fn unselective_predicate_prefers_scan() {
        let mut c = collection(300);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        let cat = Catalog::real_only(&c);
        // price >= 0 selects everything; scanning is cheaper than probing
        // the index and fetching every document.
        let plan = optimize(&cat, &CostModel::default(), &q("//item[price >= 0]/name"));
        assert_eq!(
            plan.access,
            AccessPath::DocScan,
            "plan: {}",
            plan.render("q")
        );
    }

    #[test]
    fn index_anding_on_two_predicates() {
        let mut c = collection(800);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        c.create_index(IndexDefinition::new(
            IndexId(2),
            LinearPath::parse("//item/name").unwrap(),
            DataType::Varchar,
        ));
        let cat = Catalog::real_only(&c);
        let plan = optimize(
            &cat,
            &CostModel::default(),
            &q(r#"//item[price = 3 and name = "thing2"]"#),
        );
        assert!(plan.uses_indexes());
        let used = plan.used_indexes();
        assert!(
            !used.is_empty(),
            "expected at least one leg: {}",
            plan.render("q")
        );
    }

    #[test]
    fn more_specific_index_wins_over_general() {
        let mut c = collection(500);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//*").unwrap(),
            DataType::Varchar,
        ));
        c.create_index(IndexDefinition::new(
            IndexId(2),
            LinearPath::parse("//item/name").unwrap(),
            DataType::Varchar,
        ));
        let cat = Catalog::real_only(&c);
        let plan = optimize(
            &cat,
            &CostModel::default(),
            &q(r#"//item[name = "thing2"]"#),
        );
        assert_eq!(
            plan.used_indexes(),
            vec![IndexId(2)],
            "plan: {}",
            plan.render("q")
        );
    }

    #[test]
    fn estimated_results_reflect_selectivity() {
        let c = collection(100);
        let cat = Catalog::real_only(&c);
        let plan = optimize(&cat, &CostModel::default(), &q("//item[price = 3]/name"));
        // 1 of 100 distinct prices (i % 100) → ~1 result.
        assert!(
            plan.est_results >= 0.5 && plan.est_results <= 2.0,
            "{}",
            plan.est_results
        );
    }

    #[test]
    fn empty_collection_still_plans() {
        let c = Collection::new("empty");
        let cat = Catalog::real_only(&c);
        let plan = optimize(&cat, &CostModel::default(), &q("//item/name"));
        assert_eq!(plan.access, AccessPath::DocScan);
        assert_eq!(plan.est_results, 0.0);
    }

    /// Regression: an empty collection (0/0-selectivity territory) with
    /// physical and virtual indexes must still produce finite,
    /// non-negative costs — never a NaN that would make `min_by`
    /// order-dependent.
    #[test]
    fn empty_collection_with_indexes_has_finite_costs() {
        let mut c = Collection::new("empty");
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        let vdef = IndexDefinition::new(
            IndexId(2),
            LinearPath::parse("//*").unwrap(),
            DataType::Varchar,
        );
        let cat = Catalog::with_virtuals(&c, vec![vdef]);
        for text in [
            "//item[price = 3]/name",
            "//item[price > 1 and price < 9]",
            "//item/name",
        ] {
            let plan = optimize(&cat, &CostModel::default(), &q(text));
            assert!(
                plan.cost.total().is_finite() && plan.cost.total() >= 0.0,
                "{text}: cost {}",
                plan.cost
            );
            assert!(plan.est_results.is_finite() && plan.est_results >= 0.0);
            assert!(plan.est_docs_fetched.is_finite() && plan.est_docs_fetched >= 0.0);
        }
    }
}
