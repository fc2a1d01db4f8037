//! Seeded differential for the what-if engine: every configuration a
//! greedy walk costs must price bit for bit as the straight-line
//! reference does (`reference_cost` / `reference_detail`, which run the
//! optimizer over a fresh virtual catalog per configuration).
//!
//! The engine costs each (query, atom, candidate) leg once and assembles
//! plans from cached legs; the reference re-derives every leg from the
//! path dictionary each time. The fixtures are built so that every plan
//! shape is reached — AND over three legs, OR groups, index-only
//! extraction — on DOUBLE and VARCHAR keys, with `starts-with` and
//! `contains` predicates and generalized candidates that tie on cost.
//! The test asserts that each of those is actually exercised, so a
//! fixture that drifts away from them fails instead of passing vacuously.

use std::collections::HashMap;
use xia_advisor::generalize::{generalize, Dag};
use xia_advisor::whatif::{
    normalize, reference_cost, reference_detail, EngineConfig, WhatIfEngine,
};
use xia_advisor::{generate_basic_candidates, GeneralizationConfig, Workload};
use xia_index::{match_index, DataType, IndexDefinition, IndexId};
use xia_optimizer::{atom_predicate, evaluate_indexes, AccessPath, CostModel, IndexLeg};
use xia_storage::Collection;
use xia_xml::{Document, DocumentBuilder};
use xia_xquery::NormalizedQuery;

/// xorshift64*: the fixtures are a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15 | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

const REGIONS: &[&str] = &["africa", "asia", "europe", "namerica"];
const PAYMENTS: &[&str] = &["Cash", "Creditcard", "Money order", "Personal check"];

fn collection(rng: &mut Rng, docs: usize) -> Collection {
    let mut c = Collection::new("shop");
    for _ in 0..docs {
        let mut b = DocumentBuilder::new();
        b.open("site");
        for region in REGIONS {
            if rng.below(3) == 0 {
                continue;
            }
            b.open(region);
            for _ in 0..=rng.below(2) {
                b.open("item");
                b.attr("featured", if rng.below(4) == 0 { "yes" } else { "no" });
                b.leaf("price", &rng.below(60).to_string());
                b.leaf("quantity", &rng.below(10).to_string());
                b.leaf("name", &format!("thing{}", rng.below(30)));
                b.leaf("payment", rng.pick(PAYMENTS));
                b.close();
            }
            b.close();
        }
        b.open("people");
        b.open("person");
        b.leaf("age", &(18 + rng.below(60)).to_string());
        b.leaf("income", &(1000 * rng.below(90)).to_string());
        b.leaf("name", &format!("person{}", rng.below(50)));
        b.close();
        b.close();
        b.close();
        c.insert(b.finish().unwrap());
    }
    c
}

/// One query per shape, literals drawn from the seed, plus an update so
/// maintenance is priced too.
fn workload(rng: &mut Rng, c: &Collection) -> Workload {
    let mut texts: Vec<String> = Vec::new();
    for region in REGIONS {
        // Three moderately selective predicates: ANDing all three legs
        // fetches fewer documents than any one or two of them.
        texts.push(format!(
            "/site/{region}/item[price > {} and quantity < {} and payment = \"{}\"]/name",
            20 + rng.below(20),
            3 + rng.below(4),
            rng.pick(PAYMENTS)
        ));
        texts.push(format!(
            "/site/{region}/item[price >= {}]/quantity",
            rng.below(60)
        ));
        texts.push(format!("/site/{region}/item/name"));
    }
    texts.extend([
        format!(
            "//item[price = {} and quantity < {} and payment = \"{}\"]",
            rng.below(60),
            rng.below(10),
            rng.pick(PAYMENTS)
        ),
        format!(
            "//item[price = {} or name = \"thing{}\"]/quantity",
            rng.below(60),
            rng.below(30)
        ),
        format!(
            "//person[age = {} or income = {}]/name",
            18 + rng.below(60),
            1000 * rng.below(90)
        ),
        format!("//item[starts-with(name, \"thing{}\")]/price", rng.below(3)),
        "//item[contains(payment, \"card\")]/name".to_string(),
        format!(
            "//item[@featured = \"yes\" and price < {}]/name",
            rng.below(60)
        ),
        "//person/name".to_string(),
        format!("//person[age = {}]/income", 18 + rng.below(60)),
    ]);
    let mut w = Workload::new();
    for t in &texts {
        w.add_query(t, "shop", 1.0 + rng.below(20) as f64).unwrap();
    }
    let sample = c.get(xia_storage::DocId(0)).unwrap().clone();
    w.add_insert(sample, 3.0);
    w
}

struct Fixture {
    collection: Collection,
    workload: Workload,
    dag: Dag,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = Rng::new(seed);
    let collection = collection(&mut rng, 200);
    let workload = workload(&mut rng, &collection);
    let basics = generate_basic_candidates(&collection, &workload);
    let dag = generalize(&collection, &basics, &GeneralizationConfig::default());
    Fixture {
        collection,
        workload,
        dag,
    }
}

/// What the reference plans of the costed configurations exercised.
#[derive(Default, Debug)]
struct Seen {
    configs: usize,
    and3: bool,
    or: bool,
    index_only: bool,
    double: bool,
    varchar: bool,
}

/// A configuration's reference total, per-query costs and used indexes.
type Answer = (f64, Vec<f64>, Vec<Vec<usize>>);

struct Differential<'f> {
    fix: &'f Fixture,
    model: CostModel,
    queries: Vec<NormalizedQuery>,
    freqs: Vec<f64>,
    /// Reference answers by normalized configuration: the walk revisits
    /// configurations, and the engine must answer repeats from its
    /// caches exactly as it answered them the first time.
    reference: HashMap<Vec<usize>, Answer>,
    seen: Seen,
}

impl<'f> Differential<'f> {
    fn new(fix: &'f Fixture) -> Differential<'f> {
        Differential {
            fix,
            model: CostModel::default(),
            queries: fix.workload.queries().map(|(q, _)| q.clone()).collect(),
            freqs: fix.workload.queries().map(|(_, f)| f).collect(),
            reference: HashMap::new(),
            seen: Seen::default(),
        }
    }

    /// Cost `chosen` through the engine and through the reference, and
    /// demand bitwise equality of the total, per-query costs and used
    /// indexes.
    fn check(&mut self, engine: &mut WhatIfEngine<'_>, chosen: &[usize]) -> f64 {
        let fix = self.fix;
        let (model, queries, freqs) = (&self.model, &self.queries, &self.freqs);
        let (want, want_pq, want_used) =
            self.reference.entry(normalize(chosen)).or_insert_with(|| {
                let updates: Vec<(&Document, f64)> = fix.workload.updates().collect();
                let cost = reference_cost(
                    &fix.collection,
                    model,
                    &fix.dag,
                    queries,
                    freqs,
                    &updates,
                    chosen,
                );
                let (pq, used) =
                    reference_detail(&fix.collection, model, &fix.dag, queries, chosen);
                (cost, pq, used)
            });
        let got = engine.cost(chosen);
        assert!(
            got.to_bits() == want.to_bits(),
            "config {chosen:?}: engine {got} != reference {want}"
        );
        let (got_pq, got_used) = engine.detail(chosen);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got_pq),
            bits(want_pq),
            "config {chosen:?}: per-query costs"
        );
        assert_eq!(&got_used, want_used, "config {chosen:?}: used indexes");
        self.seen.configs += 1;
        got
    }

    /// Record which plan shapes and key types the reference chose under
    /// `chosen`.
    fn observe(&mut self, chosen: &[usize]) {
        let fix = self.fix;
        let defs: Vec<IndexDefinition> = normalize(chosen)
            .into_iter()
            .map(|i| {
                let c = &fix.dag.nodes[i].candidate;
                IndexDefinition::virtual_index(IndexId(i as u32), c.pattern.clone(), c.data_type)
            })
            .collect();
        let eval = evaluate_indexes(&fix.collection, &self.model, &defs, &self.queries);
        for q in &eval.per_query {
            match &q.plan.access {
                AccessPath::IndexAccess { legs } => self.seen.and3 |= legs.len() >= 3,
                AccessPath::IndexOr { .. } => self.seen.or = true,
                AccessPath::IndexOnly { .. } => self.seen.index_only = true,
                AccessPath::DocScan => {}
            }
            for id in &q.used_indexes {
                match fix.dag.nodes[id.0 as usize].candidate.data_type {
                    DataType::Double => self.seen.double = true,
                    DataType::Varchar => self.seen.varchar = true,
                }
            }
        }
    }
}

/// Pairs of distinct candidates of one type that reach exactly the same
/// dictionary paths and both serve some workload atom: their legs for
/// that atom cost the same, so the optimizer's tie rule decides.
fn tied_pairs(fix: &Fixture) -> Vec<(usize, usize)> {
    let stats = fix.collection.stats();
    let nodes = &fix.dag.nodes;
    let serves = |i: usize, j: usize| {
        let def = |k: usize| {
            IndexDefinition::virtual_index(
                IndexId(k as u32),
                nodes[k].candidate.pattern.clone(),
                nodes[k].candidate.data_type,
            )
        };
        let (a, b) = (def(i), def(j));
        fix.workload.queries().any(|(q, _)| {
            q.atoms.iter().any(|atom| {
                let p = atom_predicate(atom);
                match (match_index(&a, &p), match_index(&b, &p)) {
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                }
            })
        })
    };
    let mut pairs = Vec::new();
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            let (a, b) = (&nodes[i].candidate, &nodes[j].candidate);
            if a.data_type == b.data_type
                && stats.paths_matching(&a.pattern) == stats.paths_matching(&b.pattern)
                && serves(i, j)
            {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Under the configuration {i, j} of a tied pair, every leg a plan takes
/// from the pair for an atom both serve alike must be the one whose
/// pattern sorts first: ties break on intrinsic leg properties, never on
/// catalog position. Returns how many legs the rule decided.
fn ties_decided_by_pattern(d: &Differential<'_>, i: usize, j: usize) -> usize {
    let fix = d.fix;
    let def = |k: usize| {
        let c = &fix.dag.nodes[k].candidate;
        IndexDefinition::virtual_index(IndexId(k as u32), c.pattern.clone(), c.data_type)
    };
    let (a, b) = (def(i), def(j));
    let first = if format!("{:?}", a.pattern) < format!("{:?}", b.pattern) {
        i
    } else {
        j
    };
    let eval = evaluate_indexes(
        &fix.collection,
        &d.model,
        &[b.clone(), a.clone()],
        &d.queries,
    );
    let mut decided = 0;
    for (q, e) in d.queries.iter().zip(&eval.per_query) {
        let legs: Vec<&IndexLeg> = match &e.plan.access {
            AccessPath::IndexAccess { legs } | AccessPath::IndexOr { legs } => {
                legs.iter().collect()
            }
            AccessPath::IndexOnly { .. } | AccessPath::DocScan => Vec::new(),
        };
        for leg in legs {
            let p = atom_predicate(&q.atoms[leg.atom]);
            let (ma, mb) = (match_index(&a, &p), match_index(&b, &p));
            if ma.is_some() && ma == mb {
                assert_eq!(
                    leg.index.0 as usize, first,
                    "{}: tie between {} and {} not broken by pattern",
                    q.text, a.pattern, b.pattern
                );
                decided += 1;
            }
        }
    }
    decided
}

/// The greedy walk of the paper's heuristic: from the empty set, cost
/// every one-candidate extension within the budget and keep the best
/// benefit per byte, until nothing helps. Every configuration it costs
/// goes through [`Differential::check`].
fn greedy_walk(d: &mut Differential<'_>, engine: &mut WhatIfEngine<'_>, budget: u64) -> Vec<usize> {
    let dag = &d.fix.dag;
    let n = dag.nodes.len();
    let mut chosen: Vec<usize> = Vec::new();
    loop {
        let current = d.check(engine, &chosen);
        let used = engine.size(&chosen);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            let size = dag.nodes[i].candidate.size_bytes;
            if chosen.contains(&i) || used + size > budget {
                continue;
            }
            let mut with = chosen.clone();
            with.push(i);
            let ratio = (current - d.check(engine, &with)) / size.max(1) as f64;
            if ratio > 0.0 && best.is_none_or(|(_, r)| ratio > r) {
                best = Some((i, ratio));
            }
        }
        match best {
            Some((i, _)) => chosen.push(i),
            None => return chosen,
        }
    }
}

fn run_seed(seed: u64) {
    let fix = fixture(seed);
    let n = fix.dag.nodes.len();
    assert!(n >= 30, "seed {seed}: DAG of {n} nodes, want 30+");
    let mut d = Differential::new(&fix);
    let model = d.model;
    let mut engine = WhatIfEngine::from_workload(
        &fix.collection,
        &model,
        &fix.workload,
        &fix.dag,
        EngineConfig::default(),
    );

    // The greedy walk under a tight and a generous budget (the engine
    // keeps its caches across both, as one search run would).
    let total: u64 = fix.dag.nodes.iter().map(|n| n.candidate.size_bytes).sum();
    let tight = greedy_walk(&mut d, &mut engine, total / 8);
    let generous = greedy_walk(&mut d, &mut engine, total);
    assert!(
        !tight.is_empty() && !generous.is_empty(),
        "seed {seed}: nothing helps"
    );

    // Every candidate at once, then each tied pair added to the generous
    // result, so equal-cost legs compete inside one plan.
    let all: Vec<usize> = (0..n).collect();
    d.check(&mut engine, &all);
    for chosen in [&tight, &generous, &all] {
        d.observe(chosen);
    }
    let pairs = tied_pairs(&fix);
    assert!(!pairs.is_empty(), "seed {seed}: no equal-cost candidates");
    let mut ties = 0;
    for &(i, j) in &pairs {
        d.check(&mut engine, &[j, i]);
        ties += ties_decided_by_pattern(&d, i, j);
        let mut with = generous.clone();
        with.extend([j, i]);
        d.check(&mut engine, &with);
        d.observe(&with);
    }
    assert!(
        ties > 0,
        "seed {seed}: no plan leg was decided by a cost tie"
    );

    // Seeded random subsets, in arbitrary order with duplicates.
    let mut rng = Rng::new(seed ^ 0xd1ff);
    for _ in 0..20 {
        let len = 1 + rng.below(8) as usize;
        let chosen: Vec<usize> = (0..len).map(|_| rng.below(n as u64) as usize).collect();
        d.check(&mut engine, &chosen);
    }

    eprintln!(
        "seed {seed}: {n} nodes, {} configs, {} ties, {}",
        d.seen.configs,
        ties,
        engine.stats().render()
    );
    let seen = &d.seen;
    assert!(
        seen.and3 && seen.or && seen.index_only && seen.double && seen.varchar,
        "seed {seed}: fixture no longer exercises every plan shape: {seen:?}"
    );
    assert!(
        engine.stats().query_cache_hits > 0 && engine.stats().whatif_calls > 0,
        "seed {seed}: {}",
        engine.stats().render()
    );
}

#[test]
fn engine_matches_reference_on_every_greedy_configuration_seed_1() {
    run_seed(1);
}

#[test]
fn engine_matches_reference_on_every_greedy_configuration_seed_42() {
    run_seed(42);
}
