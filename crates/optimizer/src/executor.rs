//! Plan execution against physical indexes.
//!
//! The executor turns a chosen [`Plan`] into actual results: index legs
//! are probed (equality/range on sargable legs, posting scans on
//! structural ones), candidate documents are intersected across legs, and
//! the full query is then verified on the candidates — document-grained
//! index ANDing. A `DocScan` plan evaluates every document.
//!
//! All of that is one function, `walk`: `execute`, `execute_mode`,
//! `execute_navigational` and PROFILE (`crate::profile`, which passes a
//! trace sink) are thin callers, so what PROFILE reports is the path
//! QUERY takes.
//!
//! Per-document verification runs through the batched engine
//! ([`crate::exec`]: region-label columns, stack-based structural
//! joins, vectorized predicate filters, late materialization) or the
//! navigational row-at-a-time evaluator ([`ExecMode::Navigational`]) —
//! [`choose_mode`] picks per query from path statistics. The walker is
//! also the reference implementation: the oracle's `exec-parity`
//! invariant and `prop_exec_batch` check the two are bit-identical, and
//! `exp_exec_batch` measures the gap. Results are always identical to
//! pure navigational evaluation; indexes and batching only change how
//! much work it takes, which [`ExecStats`] records.

use crate::exec::{run_batch, BatchPlan, BatchProfile};
use crate::plan::{AccessPath, IndexLeg, Plan};
use std::ops::Bound;
use std::time::{Duration, Instant};
use xia_index::{IndexKey, PhysicalIndex};
use xia_storage::{Collection, DocId};
use xia_xml::NodeId;
use xia_xpath::{CmpOp, Literal};
use xia_xquery::NormalizedQuery;

/// Work counters from one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Documents on which the full query was evaluated.
    pub docs_evaluated: usize,
    /// Index probes performed.
    pub index_probes: usize,
    /// Index entries touched across all probes.
    pub entries_scanned: usize,
    /// Result nodes produced.
    pub results: usize,
    /// Simulated cold-cache page reads: B-tree descents + leaf pages
    /// touched + document pages fetched (4 KiB pages, same accounting as
    /// the cost model's I/O estimates — see T8 in `EXPERIMENTS.md`).
    pub pages_read: usize,
}

/// Execution error: the plan referenced an index that is not physically
/// present (e.g. a virtual index leaked out of explain-only paths), or
/// is internally inconsistent (a sargable leg without a probeable
/// predicate — a planner bug, never silently worked around).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// How per-document verification evaluates the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Batched engine: structural joins over region-label columns
    /// (the production path).
    #[default]
    Batched,
    /// Row-at-a-time navigational evaluation — the reference
    /// implementation batched execution is differentially tested
    /// against.
    Navigational,
}

/// Execute `plan` for `query` over `collection`, picking the
/// verification mode from path statistics ([`choose_mode`]). Both modes
/// return bit-identical rows and counters, so the pick only moves wall
/// time.
///
/// Returns the result nodes as `(doc, node)` pairs in document order,
/// plus work counters.
pub fn execute(
    collection: &Collection,
    query: &NormalizedQuery,
    plan: &Plan,
) -> Result<(Vec<(DocId, NodeId)>, ExecStats), ExecError> {
    let mode = choose_mode(collection, query, plan);
    walk(collection, query, plan, mode, None)
}

/// Pick the per-document verification mode for a plan.
///
/// The batch engine's `seed`/join operators pull the **full name
/// column** for every step of the path — cost proportional to how many
/// nodes in the document carry each step's label, wherever they sit.
/// The navigational evaluator instead walks outward from the root,
/// visiting only children (or subtrees, under `//`) of nodes the path
/// prefix already matched. For most shapes the columnar constant factor
/// wins anyway; the exception is a **highly selective child chain**
/// over a collection where the chain's labels are common elsewhere in
/// the documents: the walk touches a handful of nodes while the batch
/// engine drags in every homonymous column entry.
///
/// Both estimates come from [`CollectionStats`] path counts (the same
/// statistics the what-if cost model reads):
///
/// * `batch` — Σ per step of the column size (nodes matching `//label`,
///   or every node for `*`);
/// * `nav` — Σ per step of the nodes a walk *visits*: matches of the
///   prefix so far extended by `/*` (child axis) or `//*` (descendant
///   axis — i.e. whole subtrees, which is why `//`-heavy queries stay
///   batched).
///
/// Navigational wins only when the walk is an order of magnitude
/// cheaper (8×) **and** the batch cost is non-trivial (> 256 column
/// entries) — below that, constant factors dominate and the default is
/// kept. Steps the statistics cannot see through (text()/parent tails,
/// attribute steps) end the estimate at the prefix walked so far.
///
/// [`CollectionStats`]: xia_storage::CollectionStats
pub fn choose_mode(collection: &Collection, query: &NormalizedQuery, plan: &Plan) -> ExecMode {
    use xia_xpath::{Axis, LinearStep, NameTest};

    // Index-only plans answer from postings; no verification runs.
    if matches!(plan.access, AccessPath::IndexOnly { .. }) {
        return ExecMode::Batched;
    }
    let stats = collection.stats();
    let mut batch_cost: u64 = 0;
    let mut nav_cost: u64 = 0;
    let mut prefix: Vec<LinearStep> = Vec::new();
    for step in &query.xpath.steps {
        // Column size this step's operator materializes.
        let column = match (&step.axis, &step.test) {
            (Axis::Parent, _) | (_, NameTest::Text) | (Axis::Attribute, _) => break,
            (_, NameTest::Wildcard) => stats.total_nodes(),
            (_, NameTest::Name(n)) => {
                stats.count_matching(&xia_xpath::LinearPath::new(vec![LinearStep::descendant(n)]))
            }
        };
        batch_cost = batch_cost.saturating_add(column);
        // Nodes a tree walk visits to resolve this step from the
        // prefix matched so far.
        let wild = match step.axis {
            Axis::Child => LinearStep::child_wild(),
            Axis::Descendant => LinearStep::descendant_wild(),
            Axis::Attribute | Axis::Parent => unreachable!("handled above"),
        };
        let mut visited = prefix.clone();
        visited.push(wild);
        nav_cost =
            nav_cost.saturating_add(stats.count_matching(&xia_xpath::LinearPath::new(visited)));
        prefix.push(match (&step.axis, &step.test) {
            (Axis::Child, NameTest::Name(n)) => LinearStep::child(n),
            (Axis::Child, NameTest::Wildcard) => LinearStep::child_wild(),
            (Axis::Descendant, NameTest::Name(n)) => LinearStep::descendant(n),
            (Axis::Descendant, NameTest::Wildcard) => LinearStep::descendant_wild(),
            _ => break,
        });
    }
    if batch_cost > 256 && nav_cost.saturating_mul(8) < batch_cost {
        ExecMode::Navigational
    } else {
        ExecMode::Batched
    }
}

/// Execute through the navigational reference path (oracle differential
/// mode, benchmark baseline).
pub fn execute_navigational(
    collection: &Collection,
    query: &NormalizedQuery,
    plan: &Plan,
) -> Result<(Vec<(DocId, NodeId)>, ExecStats), ExecError> {
    walk(collection, query, plan, ExecMode::Navigational, None)
}

/// Execute `plan` with an explicit verification mode. Both modes return
/// bit-identical results and [`ExecStats`]; only wall time differs.
pub fn execute_mode(
    collection: &Collection,
    query: &NormalizedQuery,
    plan: &Plan,
    mode: ExecMode,
) -> Result<(Vec<(DocId, NodeId)>, ExecStats), ExecError> {
    walk(collection, query, plan, mode, None)
}

/// What a profiled [`walk`] records beyond rows and counters: actual
/// cardinalities and wall time per stage, which PROFILE hangs on the
/// operator tree.
#[derive(Debug, Default)]
pub(crate) struct WalkTrace {
    /// Per index leg, in plan order: distinct candidate documents the
    /// probe produced and the time it took.
    pub legs: Vec<(usize, Duration)>,
    /// Candidate documents the access path selected (rows, for an
    /// index-only plan).
    pub candidates: usize,
    /// The whole access stage: leg probes plus the AND/OR combine, the
    /// scan's document listing, or the index-only posting scan.
    pub access_wall: Duration,
    /// The fetch + verify stage.
    pub verify_wall: Duration,
    /// The compiled batch pipeline and its per-operator counters;
    /// `None` when the walk ran navigationally or index-only.
    pub batch: Option<(BatchPlan, BatchProfile)>,
}

/// The one plan walk: gather the candidate documents the access path
/// selects, then fetch each and verify the full query on it in `mode`.
///
/// `trace` is the optional profile sink, the way [`run_batch`] takes an
/// `Option<&mut BatchProfile>`: with `None` (every QUERY) no clock is
/// read and nothing is allocated for it.
pub(crate) fn walk(
    collection: &Collection,
    query: &NormalizedQuery,
    plan: &Plan,
    mode: ExecMode,
    mut trace: Option<&mut WalkTrace>,
) -> Result<(Vec<(DocId, NodeId)>, ExecStats), ExecError> {
    let mut stats = ExecStats::default();
    let clock = trace.is_some().then(Instant::now);
    let since = |start: Option<Instant>| start.map(|s| s.elapsed()).unwrap_or_default();

    let candidates: Vec<DocId> = match &plan.access {
        // Index-only access: results come straight out of the postings.
        AccessPath::IndexOnly { leg } => {
            let out = index_only_rows(collection, query, leg, &mut stats)?;
            if let Some(t) = trace {
                t.candidates = out.len();
                t.access_wall = since(clock);
            }
            return Ok((out, stats));
        }
        AccessPath::DocScan => {
            stats.pages_read += collection.stats().data_pages() as usize;
            collection.documents().map(|(id, _)| id).collect()
        }
        AccessPath::IndexOr { legs } => {
            // Union of per-branch candidate documents.
            let mut docs: Vec<DocId> = Vec::new();
            for leg in legs {
                docs.extend(probe_leg(collection, query, leg, &mut stats, &mut trace)?);
            }
            docs.sort_unstable();
            docs.dedup();
            docs
        }
        AccessPath::IndexAccess { legs } => {
            let mut sets: Vec<Vec<DocId>> = Vec::with_capacity(legs.len());
            for leg in legs {
                sets.push(probe_leg(collection, query, leg, &mut stats, &mut trace)?);
            }
            // Intersect (document-grained index ANDing).
            match sets.split_first() {
                None => collection.documents().map(|(id, _)| id).collect(),
                Some((first, rest)) => first
                    .iter()
                    .copied()
                    .filter(|d| rest.iter().all(|s| s.binary_search(d).is_ok()))
                    .collect(),
            }
        }
    };
    if let Some(t) = trace.as_deref_mut() {
        t.candidates = candidates.len();
        t.access_wall = since(clock);
    }

    let clock = clock.map(|_| Instant::now());
    let batch = match mode {
        ExecMode::Batched => Some(BatchPlan::compile(query)),
        ExecMode::Navigational => None,
    };
    let mut batch_profile = match (&batch, &trace) {
        (Some(bp), Some(_)) => Some(bp.profile()),
        _ => None,
    };
    let mut out: Vec<(DocId, NodeId)> = Vec::new();
    let fetch_counts = !matches!(plan.access, AccessPath::DocScan);
    for doc_id in candidates {
        let Some(doc) = collection.get(doc_id) else {
            continue;
        };
        stats.docs_evaluated += 1;
        if fetch_counts {
            // Candidate fetches are random document reads; a scan already
            // charged the whole data area sequentially.
            stats.pages_read += doc.byte_size().div_ceil(xia_storage::PAGE_SIZE).max(1);
        }
        let nodes = match &batch {
            Some(bp) => run_batch(bp, doc, batch_profile.as_mut()),
            None => query.run_on_document(doc),
        };
        for node in nodes {
            out.push((doc_id, node));
        }
    }
    stats.results = out.len();
    if let Some(t) = trace {
        t.verify_wall = since(clock);
        t.batch = batch.zip(batch_profile);
    }
    Ok((out, stats))
}

/// Probe one index leg for [`walk`]: its distinct candidate documents,
/// in document order.
fn probe_leg(
    collection: &Collection,
    query: &NormalizedQuery,
    leg: &IndexLeg,
    stats: &mut ExecStats,
    trace: &mut Option<&mut WalkTrace>,
) -> Result<Vec<DocId>, ExecError> {
    let clock = trace.is_some().then(Instant::now);
    let mut docs = leg_candidate_docs(collection, query, leg, stats)?;
    docs.sort_unstable();
    docs.dedup();
    if let (Some(t), Some(start)) = (trace, clock) {
        t.legs.push((docs.len(), start.elapsed()));
    }
    Ok(docs)
}

/// Answer an `IndexOnly` plan straight from the postings.
///
/// The full-index scan here is not a missed probe: the planner only
/// emits `IndexOnly` for a single *extraction* atom (`optimize()`
/// requires `is_extraction && exact`), and extraction atoms never carry
/// a value predicate, so every posting is a candidate output row and
/// there is no key to probe with. A sargable leg reaching this path
/// would mean the planner broke that contract — fail loudly instead of
/// silently scanning.
fn index_only_rows(
    collection: &Collection,
    query: &NormalizedQuery,
    leg: &IndexLeg,
    stats: &mut ExecStats,
) -> Result<Vec<(DocId, NodeId)>, ExecError> {
    if !leg.matched.structural_only {
        return Err(ExecError(format!(
            "index-only plan on {} has a sargable leg; the planner only \
             emits IndexOnly for pure extraction atoms (no value predicate)",
            leg.index
        )));
    }
    let ix = collection
        .index(leg.index)
        .ok_or_else(|| ExecError(format!("index {} is not physical", leg.index)))?;
    let atom = query
        .atoms
        .get(leg.atom)
        .ok_or_else(|| ExecError(format!("plan references missing atom {}", leg.atom)))?;
    stats.index_probes = 1;
    stats.pages_read += ix.btree_levels() + ix.page_count();
    let mut out: Vec<(DocId, NodeId)> = Vec::new();
    for p in ix.scan() {
        stats.entries_scanned += 1;
        let doc_id = DocId(p.doc);
        let Some(doc) = collection.get(doc_id) else {
            continue;
        };
        let node = NodeId::from_u32(p.node);
        if leg.matched.needs_path_recheck && !node_matches_path(doc, node, &atom.path) {
            continue;
        }
        out.push((doc_id, node));
    }
    out.sort_unstable_by_key(|&(d, n)| (d, n.as_u32()));
    stats.results = out.len();
    Ok(out)
}

/// Probe one index leg and return the candidate documents it yields,
/// updating the probe/entry/page counters.
fn leg_candidate_docs(
    collection: &Collection,
    query: &NormalizedQuery,
    leg: &IndexLeg,
    stats: &mut ExecStats,
) -> Result<Vec<DocId>, ExecError> {
    let ix = collection
        .index(leg.index)
        .ok_or_else(|| ExecError(format!("index {} is not physical", leg.index)))?;
    let atom = query
        .atoms
        .get(leg.atom)
        .ok_or_else(|| ExecError(format!("plan references missing atom {}", leg.atom)))?;
    stats.index_probes += 1;
    let mut docs: Vec<DocId> = Vec::new();
    let mut touched = 0usize;
    if leg.matched.structural_only {
        for p in ix.scan() {
            touched += 1;
            docs.push(DocId(p.doc));
        }
    } else {
        let (op, lit) = atom
            .value
            .as_ref()
            .ok_or_else(|| ExecError("sargable leg without predicate".into()))?;
        probe(ix, *op, lit, |p| {
            touched += 1;
            docs.push(DocId(p.doc));
        })?;
    }
    stats.entries_scanned += touched;
    stats.pages_read += probe_pages(ix, leg.matched.structural_only, touched);
    Ok(docs)
}

/// Pages a probe touches: B-tree descent plus the leaf pages holding the
/// scanned entries (all leaves for a structural scan).
fn probe_pages(ix: &PhysicalIndex, structural: bool, entries_touched: usize) -> usize {
    let leaf_pages = if structural || ix.is_empty() {
        ix.page_count()
    } else {
        let avg_entry = ix.byte_size() / ix.len().max(1);
        (entries_touched * avg_entry)
            .div_ceil(xia_storage::PAGE_SIZE)
            .max(1)
    };
    ix.btree_levels() + leaf_pages
}

/// Does `node`'s root-to-node label path match the query path?
fn node_matches_path(doc: &xia_xml::Document, node: NodeId, path: &xia_xpath::LinearPath) -> bool {
    let labels: Vec<&str> = doc
        .label_path(node)
        .iter()
        .map(|&id| doc.names().resolve(id))
        .collect();
    let is_attr = doc.kind(node) == xia_xml::NodeKind::Attribute;
    path.matches_label_path(&labels, is_attr)
}

/// Drive an index probe for `op lit`, feeding each posting to `sink`.
///
/// Only sargable operators reach here: `match_index` marks `Ne` and
/// `Contains` legs structural-only (they select "almost everything" /
/// have no key order), so `leg_candidate_docs` routes them through a
/// posting scan and never calls `probe`. If one shows up anyway the
/// planner's sargability contract broke — error out rather than quietly
/// scanning the whole index as if that were a probe.
fn probe(
    ix: &PhysicalIndex,
    op: CmpOp,
    lit: &Literal,
    mut sink: impl FnMut(xia_index::Posting),
) -> Result<(), ExecError> {
    let key = match lit {
        Literal::Num(n) => IndexKey::Num(*n),
        Literal::Str(s) => IndexKey::Str(s.as_str().into()),
    };
    match op {
        CmpOp::Eq => {
            for p in ix.probe_eq(&key) {
                sink(*p);
            }
        }
        CmpOp::Lt => {
            for p in ix.probe_range(Bound::Unbounded, Bound::Excluded(&key)) {
                sink(p);
            }
        }
        CmpOp::Le => {
            for p in ix.probe_range(Bound::Unbounded, Bound::Included(&key)) {
                sink(p);
            }
        }
        CmpOp::Gt => {
            for p in ix.probe_range(Bound::Excluded(&key), Bound::Unbounded) {
                sink(p);
            }
        }
        CmpOp::Ge => {
            for p in ix.probe_range(Bound::Included(&key), Bound::Unbounded) {
                sink(p);
            }
        }
        CmpOp::StartsWith => {
            if let Literal::Str(prefix) = lit {
                for p in ix.probe_prefix(prefix) {
                    sink(p);
                }
            }
        }
        CmpOp::Ne | CmpOp::Contains => {
            return Err(ExecError(format!(
                "operator {op} is never sargable; a leg carrying it must \
                 be structural-only (planner bug)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::cost::CostModel;
    use crate::optimize::optimize;
    use xia_index::{DataType, IndexDefinition, IndexId};
    use xia_xml::{Document, DocumentBuilder};
    use xia_xpath::LinearPath;
    use xia_xquery::compile;

    fn collection(n: usize) -> Collection {
        let mut c = Collection::new("auctions");
        for i in 0..n {
            let mut b = DocumentBuilder::new();
            b.open("site");
            b.open("item");
            b.leaf("price", &format!("{}", i % 20));
            b.leaf("name", &format!("n{}", i % 5));
            b.close();
            b.close();
            c.insert(b.finish().unwrap());
        }
        c
    }

    fn check_agreement(c: &Collection, text: &str) -> (ExecStats, ExecStats) {
        let q = compile(text, "auctions").unwrap();
        let model = CostModel::default();
        let cat = Catalog::real_only(c);
        let plan = optimize(&cat, &model, &q);
        let (indexed, istats) = execute(c, &q, &plan).unwrap();
        let scan_plan = Plan {
            access: AccessPath::DocScan,
            ..plan.clone()
        };
        let (scanned, sstats) = execute(c, &q, &scan_plan).unwrap();
        assert_eq!(indexed, scanned, "index plan changed results for {text}");
        // The navigational reference path agrees bit-for-bit, counters
        // included, under both plans.
        let (nav, nstats) = execute_navigational(c, &q, &plan).unwrap();
        assert_eq!(indexed, nav, "batched vs navigational for {text}");
        assert_eq!(istats, nstats, "stats drift between modes for {text}");
        (istats, sstats)
    }

    #[test]
    fn docscan_executes_everything() {
        let c = collection(40);
        let q = compile("//item[price = 3]/name", "auctions").unwrap();
        let plan = Plan {
            access: AccessPath::DocScan,
            cost: Default::default(),
            est_results: 0.0,
            est_docs_fetched: 0.0,
        };
        let (results, stats) = execute(&c, &q, &plan).unwrap();
        assert_eq!(stats.docs_evaluated, 40);
        assert_eq!(results.len(), 2); // i = 3, 23
    }

    #[test]
    fn index_plan_matches_scan_results_and_touches_fewer_docs() {
        let mut c = collection(200);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        let (istats, sstats) = check_agreement(&c, "//item[price = 3]/name");
        assert!(
            istats.docs_evaluated < sstats.docs_evaluated / 5,
            "indexed plan should evaluate far fewer docs: {istats:?} vs {sstats:?}"
        );
        assert!(istats.index_probes >= 1);
    }

    #[test]
    fn range_probe_agrees_with_scan() {
        let mut c = collection(120);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        check_agreement(&c, "//item[price < 2]");
        check_agreement(&c, "//item[price >= 18]");
    }

    #[test]
    fn string_index_probe_agrees() {
        let mut c = collection(120);
        c.create_index(IndexDefinition::new(
            IndexId(2),
            LinearPath::parse("//item/name").unwrap(),
            DataType::Varchar,
        ));
        check_agreement(&c, r#"//item[name = "n2"]/price"#);
    }

    #[test]
    fn general_index_with_recheck_agrees() {
        let mut c = collection(120);
        c.create_index(IndexDefinition::new(
            IndexId(3),
            LinearPath::parse("//*").unwrap(),
            DataType::Varchar,
        ));
        check_agreement(&c, r#"//item[name = "n1"]"#);
    }

    #[test]
    fn virtual_index_in_plan_is_an_error() {
        let c = collection(50);
        let q = compile("//item[price = 3]", "auctions").unwrap();
        let vdef = IndexDefinition::new(
            IndexId(9),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        );
        let cat = Catalog::with_virtuals(&c, vec![vdef]);
        let plan = optimize(&cat, &CostModel::default(), &q);
        if plan.uses_indexes() {
            let err = execute(&c, &q, &plan).unwrap_err();
            assert!(err.0.contains("not physical"));
        }
    }

    /// Ne/Contains predicates are never planned sargable: every leg the
    /// optimizer emits for them is structural-only, so `probe()` never
    /// sees those operators.
    #[test]
    fn ne_and_contains_legs_are_never_sargable() {
        let mut c = collection(120);
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
        for text in ["//item[price != 3]", r#"//item[contains(name, "n1")]"#] {
            let q = compile(text, "auctions").unwrap();
            let plan = optimize(&Catalog::real_only(&c), &CostModel::default(), &q);
            let legs: Vec<&IndexLeg> = match &plan.access {
                AccessPath::DocScan => Vec::new(),
                AccessPath::IndexAccess { legs } | AccessPath::IndexOr { legs } => {
                    legs.iter().collect()
                }
                AccessPath::IndexOnly { leg } => vec![leg],
            };
            for leg in legs {
                let atom = &q.atoms[leg.atom];
                if let Some((op, _)) = &atom.value {
                    assert!(
                        !matches!(op, CmpOp::Ne | CmpOp::Contains) || leg.matched.structural_only,
                        "{text}: Ne/Contains leg planned sargable: {leg:?}"
                    );
                }
            }
            // Whatever the plan, execution must succeed and agree.
            check_agreement(&c, text);
        }
    }

    /// Probing with a non-sargable operator is a hard error, not a
    /// silent full scan.
    #[test]
    fn probe_rejects_non_sargable_operators() {
        let mut c = Collection::new("auctions");
        c.insert(Document::parse("<site><item><name>x</name></item></site>").unwrap());
        c.create_index(IndexDefinition::new(
            IndexId(7),
            LinearPath::parse("//item/name").unwrap(),
            DataType::Varchar,
        ));
        let ix = c.index(IndexId(7)).unwrap();
        for op in [CmpOp::Ne, CmpOp::Contains] {
            let err = probe(ix, op, &Literal::Str("x".into()), |_| {}).unwrap_err();
            assert!(err.0.contains("never sargable"), "{err}");
        }
    }

    /// Documents whose shallow `/site/item/price` chain is cheap to
    /// walk while `item`/`price` labels also flood a decoy subtree —
    /// the shape where the batch engine's full-column seeds lose to the
    /// navigational walk.
    pub(crate) fn homonym_heavy_collection(n_docs: usize, decoys: usize) -> Collection {
        let mut c = Collection::new("auctions");
        for i in 0..n_docs {
            let mut b = DocumentBuilder::new();
            b.open("site");
            b.open("item");
            b.leaf("price", &format!("{}", i % 20));
            b.close();
            b.open("junk");
            for _ in 0..decoys {
                b.open("item");
                b.leaf("price", "0");
                b.close();
            }
            b.close();
            b.close();
            c.insert(b.finish().unwrap());
        }
        c
    }

    #[test]
    fn selective_child_chain_picks_navigational() {
        let c = homonym_heavy_collection(8, 100);
        let q = compile("/site/item/price", "auctions").unwrap();
        let plan = optimize(&Catalog::real_only(&c), &CostModel::default(), &q);
        // Columns: ~808 item + ~808 price entries; the walk visits only
        // /site's and /site/item's direct children.
        assert_eq!(choose_mode(&c, &q, &plan), ExecMode::Navigational);
        // The auto-picked mode returns exactly what the batched engine
        // does (rows and counters).
        let (auto_rows, auto_stats) = execute(&c, &q, &plan).unwrap();
        let (batched, bstats) = execute_mode(&c, &q, &plan, ExecMode::Batched).unwrap();
        assert_eq!(auto_rows, batched);
        assert_eq!(auto_stats, bstats);
    }

    #[test]
    fn descendant_queries_stay_batched() {
        let c = homonym_heavy_collection(8, 100);
        // `//price` walks every subtree navigationally — the batch
        // engine's sort-merge join is the right engine and stays picked.
        let q = compile("//price", "auctions").unwrap();
        let plan = Plan {
            access: AccessPath::DocScan,
            cost: Default::default(),
            est_results: 0.0,
            est_docs_fetched: 0.0,
        };
        assert_eq!(choose_mode(&c, &q, &plan), ExecMode::Batched);
    }

    #[test]
    fn small_collections_stay_batched() {
        // Same selective shape, but far below the 256-entry floor where
        // constant factors dominate: keep the default engine.
        let c = homonym_heavy_collection(2, 3);
        let q = compile("/site/item/price", "auctions").unwrap();
        let plan = optimize(&Catalog::real_only(&c), &CostModel::default(), &q);
        assert_eq!(choose_mode(&c, &q, &plan), ExecMode::Batched);
    }

    /// An index-only plan whose leg claims sargability is rejected: the
    /// planner only emits IndexOnly for extraction atoms, which carry no
    /// value predicate.
    #[test]
    fn index_only_requires_structural_leg() {
        let mut c = collection(60);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/name").unwrap(),
            DataType::Varchar,
        ));
        let q = compile("//item/name", "auctions").unwrap();
        let plan = optimize(&Catalog::real_only(&c), &CostModel::default(), &q);
        if let AccessPath::IndexOnly { leg } = &plan.access {
            // The planner's own leg is structural (extraction atom).
            assert!(leg.matched.structural_only, "{leg:?}");
            // Forging sargability must fail loudly.
            let mut forged = leg.clone();
            forged.matched.structural_only = false;
            let forged_plan = Plan {
                access: AccessPath::IndexOnly { leg: forged },
                ..plan.clone()
            };
            let err = execute(&c, &q, &forged_plan).unwrap_err();
            assert!(err.0.contains("sargable leg"), "{err}");
        } else {
            panic!("expected an IndexOnly plan, got {:?}", plan.access);
        }
    }
}
