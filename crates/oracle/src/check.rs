//! The five oracle invariants, checked end-to-end on one [`Case`].
//!
//! Every check runs under `catch_unwind`: a panic anywhere in the stack
//! (parser, containment, optimizer, executor, storage) is itself an
//! invariant violation, never a crashed fuzz run.

use crate::case::Case;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use xia_advisor::{
    generalize, generate_basic_candidates, Advisor, AnytimeBudget, EngineConfig, SearchStrategy,
    WhatIfEngine, Workload,
};
use xia_index::{contains, DataType, IndexDefinition, IndexId};
use xia_optimizer::{
    evaluate_query, execute, execute_mode, execute_navigational, optimize, Catalog, CostModel,
    ExecMode, Plan,
};
use xia_storage::{
    checkpoint_database, derived_fingerprint, fingerprint, recover_database, Collection, Database,
    DocId, RealVfs,
};
use xia_xml::{Document, NodeId, NodeKind};
use xia_xpath::LinearPath;
use xia_xquery::NormalizedQuery;

/// One invariant violation. `detail` is for humans; `invariant` is the
/// stable name shrinking keys on.
#[derive(Debug, Clone)]
pub struct Violation {
    pub invariant: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Knobs for one check run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Scratch directory for the durability round-trip; `None` skips
    /// invariant 4 (used by the shrinker, which re-checks hundreds of
    /// candidate cases and doesn't need disk traffic for the others).
    pub scratch: Option<PathBuf>,
    /// Also check `recommend` determinism (the slowest invariant; the
    /// fuzz loop samples it rather than paying it on every case).
    pub check_recommend: bool,
    /// Also check advise quality: on small candidate DAGs, the
    /// compressed + anytime pipeline must land within the certified
    /// compression bound of the exhaustive optimum (sampled like
    /// `check_recommend` — it enumerates every configuration subset).
    pub check_advise: bool,
    /// Also re-run every executed plan in each forced executor mode
    /// (batched, navigational) and demand identical rows *and*
    /// identical [`ExecStats`] — the batched engine and the tree-walking
    /// evaluator must never drift apart, in results or in the page
    /// accounting the cost model is calibrated against.
    pub check_exec_parity: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            scratch: None,
            check_recommend: true,
            check_advise: true,
            check_exec_parity: true,
        }
    }
}

/// Run every invariant against `case`; empty result = case passes.
pub fn check_case(case: &Case, opts: &CheckOptions) -> Vec<Violation> {
    let mut out = Vec::new();

    // --- Case setup: anything unparseable is a corpus/generator bug. ---
    let mut docs = Vec::new();
    for (i, xml) in case.docs.iter().enumerate() {
        match Document::parse(xml) {
            Ok(d) => docs.push(d),
            Err(e) => {
                out.push(violation("case-setup", format!("doc {i}: {e}")));
                return out;
            }
        }
    }
    let mut queries = Vec::new();
    for (i, text) in case.queries.iter().enumerate() {
        match xia_xquery::compile(text, "c") {
            Ok(q) => queries.push(q),
            Err(e) => {
                out.push(violation("case-setup", format!("query {i}: {e}")));
                return out;
            }
        }
    }
    let mut specs = Vec::new();
    for (i, ix) in case.indexes.iter().enumerate() {
        match LinearPath::parse(&ix.pattern) {
            Ok(p) => specs.push((
                p,
                if ix.double {
                    DataType::Double
                } else {
                    DataType::Varchar
                },
            )),
            Err(e) => {
                out.push(violation("case-setup", format!("index {i}: {e}")));
                return out;
            }
        }
    }
    let model = case.model();

    // --- Invariant 1 + 5: plan equivalence and estimate sanity. --------
    let reference = reference_results(case, &queries);
    check_plans(
        case,
        &queries,
        &specs,
        &model,
        &reference,
        opts.check_exec_parity,
        &mut out,
    );

    // --- Invariant 2: containment soundness. ---------------------------
    check_containment(&docs, &queries, &specs, &mut out);

    // --- Invariant 3: virtual/physical parity + determinism. -----------
    if model.is_finite() {
        check_parity(case, &queries, &specs, &model, &mut out);
        if opts.check_recommend {
            check_recommend_deterministic(case, &mut out);
        }
        if opts.check_advise {
            check_advise_quality(case, &mut out);
        }
    }

    // --- Invariant 4: durability round-trip. ---------------------------
    if let Some(dir) = &opts.scratch {
        check_durability(case, &specs, dir, &mut out);
    }

    out
}

fn violation(invariant: &'static str, detail: String) -> Violation {
    Violation { invariant, detail }
}

/// Build a fresh collection holding the case's documents and the given
/// subset of index specs (ids are 1-based spec positions).
fn build_collection(case: &Case, specs: &[(LinearPath, DataType)], which: &[usize]) -> Collection {
    let mut c = Collection::new("c");
    for xml in &case.docs {
        c.insert(Document::parse(xml).expect("validated above"));
    }
    for &i in which {
        let (pattern, ty) = &specs[i];
        c.create_index(IndexDefinition::new(
            IndexId(i as u32 + 1),
            pattern.clone(),
            *ty,
        ));
    }
    c
}

/// Reference semantics: evaluate every query navigationally on every
/// document — the result set every plan must reproduce exactly.
fn reference_results(case: &Case, queries: &[NormalizedQuery]) -> Vec<Vec<(DocId, NodeId)>> {
    let mut coll = Collection::new("ref");
    for xml in &case.docs {
        coll.insert(Document::parse(xml).expect("validated above"));
    }
    queries
        .iter()
        .map(|q| {
            let mut rows = Vec::new();
            for (id, doc) in coll.documents() {
                for node in q.run_on_document(doc) {
                    rows.push((id, node));
                }
            }
            rows.sort_unstable_by_key(|&(d, n)| (d, n.as_u32()));
            rows
        })
        .collect()
}

/// Describe a panic payload.
fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic".to_string()
    }
}

/// Invariants 1 and 5 over every index configuration: the empty config,
/// each index alone, and all indexes together — physical execution must
/// match the reference row-for-row, costs must be sane, and plan choice
/// must not depend on catalog enumeration order.
#[allow(clippy::too_many_arguments)]
fn check_plans(
    case: &Case,
    queries: &[NormalizedQuery],
    specs: &[(LinearPath, DataType)],
    model: &CostModel,
    reference: &[Vec<(DocId, NodeId)>],
    exec_parity: bool,
    out: &mut Vec<Violation>,
) {
    let mut configs: Vec<Vec<usize>> = vec![vec![]];
    for i in 0..specs.len() {
        configs.push(vec![i]);
    }
    if specs.len() > 1 {
        configs.push((0..specs.len()).collect());
    }

    // Plan correctness must not depend on the cost model, so each query
    // also runs under a scan-hostile "steer" model. On the tiny documents
    // the generator produces a realistic model almost always picks
    // DocScan; steering makes index-backed plans actually win and execute,
    // so plan equivalence exercises every access path, not just the scan.
    let models = [("default", *model), ("steer", steer_model(model))];

    for config in &configs {
        let coll = build_collection(case, specs, config);
        for (qi, query) in queries.iter().enumerate() {
            for (mname, m) in &models {
                let planned = catch_unwind(AssertUnwindSafe(|| {
                    let cat = Catalog::real_only(&coll);
                    optimize(&cat, m, query)
                }));
                let plan = match planned {
                    Ok(p) => p,
                    Err(e) => {
                        out.push(violation(
                            "plan-equivalence",
                            format!(
                                "optimize ({mname}) panicked on query {qi} ({}) with config {config:?}: {}",
                                case.queries[qi],
                                panic_text(e)
                            ),
                        ));
                        continue;
                    }
                };
                if m.is_finite() {
                    check_estimates(&plan, qi, config, out);
                }
                let executed = catch_unwind(AssertUnwindSafe(|| execute(&coll, query, &plan)));
                match executed {
                    Ok(Ok((rows, _))) => {
                        if rows != reference[qi] {
                            out.push(violation(
                                "plan-equivalence",
                                format!(
                                    "query {qi} ({}) with config {config:?} ({mname}) via {} returned {} rows, reference {} rows",
                                    case.queries[qi],
                                    plan.render(&case.queries[qi]).lines().next().unwrap_or(""),
                                    rows.len(),
                                    reference[qi].len()
                                ),
                            ));
                        }
                        // Differential batched-vs-navigational mode: the
                        // same plan forced through each executor must
                        // produce the same rows and the same ExecStats
                        // (pages_read included), or the cost model's
                        // calibration target has forked. Both sides are
                        // pinned explicitly: `execute` above picks its
                        // own mode, and a navigational pick would compare
                        // the walker with itself.
                        if exec_parity {
                            let both = catch_unwind(AssertUnwindSafe(|| {
                                let batched = execute_mode(&coll, query, &plan, ExecMode::Batched)?;
                                let nav = execute_navigational(&coll, query, &plan)?;
                                Ok::<_, xia_optimizer::executor::ExecError>((batched, nav))
                            }));
                            match both {
                                Ok(Ok(((brows, bstats), (nrows, nstats)))) => {
                                    if nrows != brows {
                                        out.push(violation(
                                            "exec-parity",
                                            format!(
                                                "query {qi} ({}) with config {config:?} ({mname}): batched returned {} rows, navigational {} rows",
                                                case.queries[qi],
                                                brows.len(),
                                                nrows.len()
                                            ),
                                        ));
                                    } else if nstats != bstats {
                                        out.push(violation(
                                            "exec-parity",
                                            format!(
                                                "query {qi} ({}) with config {config:?} ({mname}): ExecStats drift, batched {bstats:?} vs navigational {nstats:?}",
                                                case.queries[qi]
                                            ),
                                        ));
                                    }
                                }
                                Ok(Err(e)) => out.push(violation(
                                    "exec-parity",
                                    format!(
                                        "query {qi} with config {config:?} ({mname}): a forced executor mode failed where `execute` succeeded: {e}"
                                    ),
                                )),
                                Err(e) => out.push(violation(
                                    "exec-parity",
                                    format!(
                                        "a forced executor mode panicked on query {qi} with config {config:?} ({mname}): {}",
                                        panic_text(e)
                                    ),
                                )),
                            }
                        }
                    }
                    Ok(Err(e)) => out.push(violation(
                        "plan-equivalence",
                        format!(
                            "query {qi} with config {config:?} ({mname}) failed to execute: {e}"
                        ),
                    )),
                    Err(e) => out.push(violation(
                        "plan-equivalence",
                        format!(
                            "execute panicked on query {qi} with config {config:?} ({mname}): {}",
                            panic_text(e)
                        ),
                    )),
                }
            }
        }
    }

    // Enumeration-order robustness: creating the same indexes in reverse
    // order must yield bit-identical plan costs (a NaN-unsafe comparator
    // breaks exactly this).
    if specs.len() > 1 {
        let fwd: Vec<usize> = (0..specs.len()).collect();
        let rev: Vec<usize> = (0..specs.len()).rev().collect();
        let c_fwd = build_collection(case, specs, &fwd);
        let c_rev = build_collection(case, specs, &rev);
        for (qi, query) in queries.iter().enumerate() {
            for (mname, m) in &models {
                let run = |coll: &Collection| {
                    catch_unwind(AssertUnwindSafe(|| {
                        let cat = Catalog::real_only(coll);
                        let p = optimize(&cat, m, query);
                        (
                            p.cost.io.to_bits(),
                            p.cost.cpu.to_bits(),
                            access_shape(&p),
                            used_patterns(&p),
                        )
                    }))
                };
                match (run(&c_fwd), run(&c_rev)) {
                    (Ok(a), Ok(b)) => {
                        if a != b {
                            out.push(violation(
                                "plan-determinism",
                                format!(
                                    "query {qi} ({}) under {mname} model: catalog order changed the plan: {a:?} vs {b:?}",
                                    case.queries[qi]
                                ),
                            ));
                        }
                    }
                    (Err(e), _) | (_, Err(e)) => out.push(violation(
                        "plan-determinism",
                        format!("optimize panicked on query {qi}: {}", panic_text(e)),
                    )),
                }
            }
        }
    }
}

/// The case model with document scans made brutally expensive, keeping
/// any poisoned (NaN) knob intact. Correct plans are correct under every
/// model; this one forces index-backed plans to win on tiny collections.
fn steer_model(model: &CostModel) -> CostModel {
    let mut m = *model;
    m.page_io = 500.0;
    m.cpu_node = 1.0;
    m
}

/// The indexes a plan touches, as `pattern@atom` strings sorted so the
/// signature is independent of leg order. IndexIds are useless here —
/// they depend on creation order, which is exactly what the determinism
/// check varies — but patterns identify the index itself. NaN costs all
/// share one bit pattern, so without this a NaN-unsafe comparator that
/// picks a *different index* under reversed enumeration would go unseen.
fn used_patterns(p: &Plan) -> Vec<String> {
    use xia_optimizer::AccessPath::*;
    let legs: Vec<&xia_optimizer::IndexLeg> = match &p.access {
        DocScan => Vec::new(),
        IndexAccess { legs } | IndexOr { legs } => legs.iter().collect(),
        IndexOnly { leg } => vec![leg],
    };
    let mut out: Vec<String> = legs
        .iter()
        .map(|l| format!("{:?}@{}", l.pattern, l.atom))
        .collect();
    out.sort();
    out
}

fn access_shape(p: &Plan) -> &'static str {
    use xia_optimizer::AccessPath::*;
    match &p.access {
        DocScan => "scan",
        IndexAccess { .. } => "and",
        IndexOr { .. } => "or",
        IndexOnly { .. } => "index-only",
    }
}

/// Invariant 5: estimates on the chosen plan are finite and non-negative.
fn check_estimates(plan: &Plan, qi: usize, config: &[usize], out: &mut Vec<Violation>) {
    let checks = [
        ("cost.io", plan.cost.io),
        ("cost.cpu", plan.cost.cpu),
        ("est_results", plan.est_results),
        ("est_docs_fetched", plan.est_docs_fetched),
    ];
    for (name, v) in checks {
        if !v.is_finite() || v < 0.0 {
            out.push(violation(
                "estimate-sanity",
                format!("query {qi} config {config:?}: {name} = {v}"),
            ));
        }
    }
}

/// Root-to-node label path of every element/attribute node in `docs`,
/// the concrete material containment claims are tested against.
fn label_paths(docs: &[Document]) -> Vec<(Vec<String>, bool)> {
    let mut out = Vec::new();
    for doc in docs {
        let Some(root) = doc.root_element() else {
            continue;
        };
        for node in std::iter::once(root).chain(doc.descendants(root)) {
            let kind = doc.kind(node);
            if kind == NodeKind::Text {
                continue;
            }
            let mut labels = Vec::new();
            let mut cur = Some(node);
            while let Some(n) = cur {
                labels.push(doc.name(n).to_string());
                cur = doc.parent(n);
            }
            labels.reverse();
            out.push((labels, kind == NodeKind::Attribute));
        }
    }
    out
}

/// Invariant 2: `contains` never panics, is reflexive within the encoding
/// bound, agrees with the concrete matcher on every node of the corpus,
/// and matches exhaustive enumeration on the `//`-free sub-fragment
/// (where the language is finite-length and enumeration is complete).
fn check_containment(
    docs: &[Document],
    queries: &[NormalizedQuery],
    specs: &[(LinearPath, DataType)],
    out: &mut Vec<Violation>,
) {
    let mut patterns: Vec<LinearPath> = specs.iter().map(|(p, _)| p.clone()).collect();
    for q in queries {
        for atom in &q.atoms {
            patterns.push(atom.path.clone());
        }
    }
    patterns.truncate(10);
    let paths = label_paths(docs);

    for p in &patterns {
        for q in &patterns {
            let verdict = match catch_unwind(AssertUnwindSafe(|| contains(p, q))) {
                Ok(v) => v,
                Err(e) => {
                    out.push(violation(
                        "containment",
                        format!("contains({p}, {q}) panicked: {}", panic_text(e)),
                    ));
                    continue;
                }
            };
            if verdict {
                // Soundness on the generated corpus: every node Q selects
                // must be indexed by P.
                for (labels, is_attr) in &paths {
                    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                    if q.matches_label_path(&refs, *is_attr)
                        && !p.matches_label_path(&refs, *is_attr)
                    {
                        out.push(violation(
                            "containment",
                            format!(
                                "{p} claimed ⊇ {q}, but {q} matches {labels:?} and {p} does not"
                            ),
                        ));
                    }
                }
            }
            // On the //-free fragment the expected answer is computable
            // directly: languages are fixed-length, so containment is a
            // stepwise test-subsumption check.
            if let Some(expected) = child_only_containment(p, q) {
                if verdict != expected && p.len() <= xia_index::containment::MAX_STEPS {
                    out.push(violation(
                        "containment",
                        format!("contains({p}, {q}) = {verdict}, exhaustive says {expected}"),
                    ));
                }
            }
        }
        // Reflexivity within the encoding bound.
        if p.len() <= xia_index::containment::MAX_STEPS {
            let refl = catch_unwind(AssertUnwindSafe(|| contains(p, p)));
            if !matches!(refl, Ok(true)) {
                out.push(violation(
                    "containment",
                    format!("contains({p}, {p}) is not true"),
                ));
            }
        }
    }
}

/// Exact containment for pairs of `//`-free (child-axis-only) patterns:
/// the word language of such a pattern is exactly its step count, with a
/// wildcard matching any label. Returns `None` if either pattern has a
/// descendant axis.
fn child_only_containment(p: &LinearPath, q: &LinearPath) -> Option<bool> {
    use xia_xpath::{PathAxis, PathTest};
    let child_only = |l: &LinearPath| l.steps.iter().all(|s| s.axis == PathAxis::Child);
    if !child_only(p) || !child_only(q) {
        return None;
    }
    if p.targets_attribute() != q.targets_attribute() || p.len() != q.len() {
        return Some(false);
    }
    Some(p.steps.iter().zip(&q.steps).all(|(sp, sq)| {
        sp.is_attribute == sq.is_attribute
            && match (&sp.test, &sq.test) {
                (PathTest::Wildcard, _) => true,
                (PathTest::Label(a), PathTest::Label(b)) => a == b,
                (PathTest::Label(_), PathTest::Wildcard) => false,
            }
    }))
}

/// Invariant 3a: a virtual index must be priced exactly like the same
/// index materialized — the what-if engine's whole credibility.
fn check_parity(
    case: &Case,
    queries: &[NormalizedQuery],
    specs: &[(LinearPath, DataType)],
    model: &CostModel,
    out: &mut Vec<Violation>,
) {
    let base = build_collection(case, specs, &[]);
    for (i, (pattern, ty)) in specs.iter().enumerate() {
        let def = IndexDefinition::new(IndexId(i as u32 + 1), pattern.clone(), *ty);
        let physical = build_collection(case, specs, &[i]);
        for (qi, query) in queries.iter().enumerate() {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let v = evaluate_query(&base, model, std::slice::from_ref(&def), query);
                let p = optimize(&Catalog::real_only(&physical), model, query);
                (v, p)
            }));
            let (virt, phys) = match result {
                Ok(pair) => pair,
                Err(e) => {
                    out.push(violation(
                        "virtual-physical-parity",
                        format!(
                            "panicked pricing index {i} for query {qi}: {}",
                            panic_text(e)
                        ),
                    ));
                    continue;
                }
            };
            if virt.cost.total().to_bits() != phys.cost.total().to_bits() {
                out.push(violation(
                    "virtual-physical-parity",
                    format!(
                        "index {i} ({} {}), query {qi} ({}): virtual cost {} != physical cost {}",
                        case.indexes[i].pattern,
                        if case.indexes[i].double {
                            "DOUBLE"
                        } else {
                            "VARCHAR"
                        },
                        case.queries[qi],
                        virt.cost,
                        phys.cost
                    ),
                ));
            }
        }
    }
}

/// Invariant 3b: `recommend` is a pure function of its inputs.
fn check_recommend_deterministic(case: &Case, out: &mut Vec<Violation>) {
    if case.docs.is_empty() || case.queries.is_empty() {
        return;
    }
    let run = || -> Result<Vec<String>, String> {
        let mut coll = Collection::new("c");
        for xml in &case.docs {
            coll.insert(Document::parse(xml).expect("validated above"));
        }
        let texts: Vec<&str> = case.queries.iter().map(String::as_str).collect();
        let workload = Workload::from_queries(&texts, "c").map_err(|e| e.to_string())?;
        let advisor = Advisor::default();
        let rec = advisor.recommend(&coll, &workload, 64 << 10, SearchStrategy::GreedyHeuristic);
        Ok(rec
            .indexes
            .iter()
            .map(|d| format!("{} {}", d.pattern, d.data_type))
            .collect())
    };
    let a = catch_unwind(AssertUnwindSafe(run));
    let b = catch_unwind(AssertUnwindSafe(run));
    match (a, b) {
        (Ok(Ok(a)), Ok(Ok(b))) => {
            if a != b {
                out.push(violation(
                    "recommend-determinism",
                    format!("two identical runs recommended {a:?} vs {b:?}"),
                ));
            }
        }
        (Ok(Err(_)), Ok(Err(_))) => {} // workload rejected — consistent
        (Err(e), _) | (_, Err(e)) => out.push(violation(
            "recommend-determinism",
            format!("recommend panicked: {}", panic_text(e)),
        )),
        _ => out.push(violation(
            "recommend-determinism",
            "one run compiled the workload, the other did not".to_string(),
        )),
    }
}

/// Invariant 7: the scalable pipeline (workload compression + anytime
/// search, full refinement) must land within the certified compression
/// error bound of the *exhaustive* optimum, measured on the *full*
/// workload.
///
/// Template clustering preserves candidate generation (templates keep
/// atom paths, operators and literal types), so the compressed and full
/// workloads build the same candidate DAG; a configuration maps between
/// them one-to-one by (pattern, type). With residual weight `R` and
/// per-query cost bounded by the document-scan cost `S` (the optimizer
/// always considers DocScan), compressed and full costs of any one
/// configuration differ by at most `B = R·S`, so the compressed optimum
/// is within `2B` of the full optimum. Only checked when the full DAG
/// has ≤ 12 nodes — the reference side enumerates all 2^n subsets.
fn check_advise_quality(case: &Case, out: &mut Vec<Violation>) {
    if case.docs.is_empty() || case.queries.is_empty() {
        return;
    }
    let budget: u64 = 64 << 10;
    let run = || -> Result<Option<String>, String> {
        let mut coll = Collection::new("c");
        for xml in &case.docs {
            coll.insert(Document::parse(xml).expect("validated above"));
        }
        let texts: Vec<&str> = case.queries.iter().map(String::as_str).collect();
        let workload = Workload::from_queries(&texts, "c").map_err(|e| e.to_string())?;
        let advisor = Advisor::default();

        // Reference: exhaustive sweep over the full workload's DAG.
        let basic = generate_basic_candidates(&coll, &workload);
        let dag = generalize(&coll, &basic, &advisor.config.generalization);
        let n = dag.nodes.len();
        if n == 0 || n > 12 {
            return Ok(None);
        }
        let mut ev = WhatIfEngine::from_workload(
            &coll,
            &advisor.config.cost_model,
            &workload,
            &dag,
            EngineConfig::default(),
        );
        let base = ev.cost(&[]);
        let mut best = base;
        for mask in 0u32..(1u32 << n) {
            let chosen: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
            let size: u64 = chosen
                .iter()
                .map(|&i| dag.nodes[i].candidate.size_bytes)
                .sum();
            if size > budget {
                continue;
            }
            best = best.min(ev.cost(&chosen));
        }

        // Candidate: compression + anytime search, unbounded budget and
        // exhaustive refinement (so search error is zero and only the
        // compression bound separates it from the optimum).
        let rec = advisor.recommend_compressed(
            &coll,
            &workload,
            budget,
            &AnytimeBudget::unbounded(),
            12,
            &[],
        );
        let chosen: Vec<usize> = rec
            .indexes
            .iter()
            .filter_map(|d| {
                dag.nodes.iter().position(|node| {
                    node.candidate.pattern == d.pattern && node.candidate.data_type == d.data_type
                })
            })
            .collect();
        if chosen.len() != rec.indexes.len() {
            return Ok(Some(format!(
                "compressed pipeline recommended {} index(es) absent from the full-workload DAG",
                rec.indexes.len() - chosen.len()
            )));
        }
        let full_cost = ev.cost(&chosen);
        let slack = 2.0 * rec.error_bound + 1e-6 * base.max(1.0);
        if full_cost > best + slack {
            return Ok(Some(format!(
                "compressed+anytime configuration costs {full_cost:.6} on the full workload; \
                 exhaustive best is {best:.6}, allowed slack {slack:.6} \
                 (error bound {:.6}, {} templates for {} queries)",
                rec.error_bound, rec.templates, rec.raw_queries
            )));
        }
        Ok(None)
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(None)) | Ok(Err(_)) => {} // held, or workload rejected
        Ok(Ok(Some(detail))) => out.push(violation("advise-quality", detail)),
        Err(e) => out.push(violation(
            "advise-quality",
            format!("advise pipeline panicked: {}", panic_text(e)),
        )),
    }
}

/// What the durability and replay invariants compare: the logical
/// state ([`fingerprint`]: documents, index definitions) followed by the
/// state derived from it ([`derived_fingerprint`]: statistics, index
/// postings), so a divergence in either is caught.
pub(crate) fn state_fingerprint(db: &Database) -> String {
    fingerprint(db) + &derived_fingerprint(db)
}

/// Invariant 4: checkpoint + recover reproduces the database fingerprint
/// and the statistics and postings derived from it.
fn check_durability(
    case: &Case,
    specs: &[(LinearPath, DataType)],
    scratch: &std::path::Path,
    out: &mut Vec<Violation>,
) {
    let all: Vec<usize> = (0..specs.len()).collect();
    let coll = build_collection(case, specs, &all);
    let mut db = Database::new();
    db.add_collection(coll);
    let before = state_fingerprint(&db);

    // A per-case subdirectory so generations never bleed across cases.
    let dir = scratch.join(format!("case_{:016x}", case_key(case)));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = RealVfs;
    let result = catch_unwind(AssertUnwindSafe(|| {
        checkpoint_database(&vfs, &db, &dir)?;
        recover_database(&vfs, &dir)
    }));
    match result {
        Ok(Ok(rec)) => {
            let after = state_fingerprint(&rec.database);
            if after != before {
                out.push(violation(
                    "durability",
                    format!("fingerprint changed across checkpoint+recover:\n  before {before}\n  after  {after}"),
                ));
            }
            if let Err(e) = rec.database.verify() {
                out.push(violation(
                    "durability",
                    format!("recovered db fails verify: {e}"),
                ));
            }
        }
        Ok(Err(e)) => out.push(violation("durability", format!("round-trip failed: {e}"))),
        Err(e) => out.push(violation(
            "durability",
            format!("round-trip panicked: {}", panic_text(e)),
        )),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stable content hash of a case (FNV-1a), used for scratch paths.
fn case_key(case: &Case) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x1_0000_01b3);
    };
    for d in &case.docs {
        eat(d);
    }
    for q in &case.queries {
        eat(q);
    }
    for ix in &case.indexes {
        eat(&ix.pattern);
        eat(if ix.double { "D" } else { "V" });
    }
    if let Some(p) = case.poison {
        eat(p.name());
    }
    h
}

/// Deduplicate violations by invariant (keeps the first of each kind) —
/// a single root cause often fires the same invariant many times.
pub fn dedupe(violations: Vec<Violation>) -> Vec<Violation> {
    let mut seen = BTreeSet::new();
    violations
        .into_iter()
        .filter(|v| seen.insert(v.invariant))
        .collect()
}
