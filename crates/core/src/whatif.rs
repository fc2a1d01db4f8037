//! The what-if cost engine: incrementally-cached configuration costing
//! for the advisor search.
//!
//! Every search strategy asks the same question thousands of times: "what
//! would the workload cost if exactly this index set existed?" The seed
//! answered each ask by re-optimizing the *whole* workload. Three facts
//! make that wasteful:
//!
//! 1. **Per-query decomposition.** Evaluate Indexes mode optimizes each
//!    query independently, so the workload cost is a weighted sum of
//!    per-query costs.
//! 2. **Relevance.** The optimizer only consults an index through
//!    `match_index(def, atom_predicate(atom))` gates, so an index that
//!    matches no atom of a query cannot influence that query's plan.
//!    A query's cost therefore depends only on `chosen ∩ relevant(query)`
//!    — the atomic-configuration insight of CoPhy-style advisors.
//! 3. **Legs do not depend on the configuration.** A plan is the minimum
//!    over a few shapes (scan, OR, index-only, AND prefixes) built from
//!    per-(atom, index) access legs, and a leg's cost depends only on the
//!    atom, the index and the statistics. So each leg is costed once and
//!    every configuration after that is arithmetic.
//!
//! At construction one pass over (query, atom, DAG node) builds the
//! **match table**: which candidates can serve which atoms, and how.
//! Relevance and the coverage sets are read from it. The engine memoizes
//! per-query results keyed by `(query, chosen ∩ relevant(query))`; a
//! greedy step that tries `chosen + {i}` re-prices only the queries `i`
//! is relevant to. A miss assembles the plan with the optimizer's own
//! [`assemble`] from legs cached per match-table slot, each filled on
//! first use from per-node path sets and index statistics and per-atom
//! facts that are also computed once. A miss scans no path dictionary,
//! matches no index and clones no pattern, so it runs on the calling
//! thread: `threads` only splits the match-table build.
//!
//! Update maintenance costing gets the same treatment: the node-count
//! `nodes_matching(sample, pattern)` walks every node of an update
//! document and the seed repeated it per costed configuration; the engine
//! hoists it into a lazy once-per-(update-doc, candidate) table.
//!
//! [`EvalStats`] counts what-if evaluations (signature misses), cache
//! traffic and wall time so the CLI and benchmarks can report what the
//! search actually paid.

use crate::generalize::Dag;
use crate::workload::Workload;
use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};
use xia_index::{match_index, IndexDefinition, IndexId, IndexMatch, PathPredicate};
use xia_optimizer::{
    assemble, atom_predicate, best_leg, cost_leg, drives_access, evaluate_indexes,
    index_only_eligible, index_only_leg, AtomFacts, CostModel, IndexLeg, IndexStats, QueryFrame,
};
use xia_storage::{Collection, PathId};
use xia_xml::{Document, NodeKind};
use xia_xquery::NormalizedQuery;

/// Tuning knobs for the engine. The defaults are what [`crate::search`]
/// uses; the uncached setting reproduces the seed's straight-line
/// evaluation and serves as the benchmark baseline and the
/// property-test reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Memoize per-query results by relevant-index signature. When off,
    /// every configuration cost re-optimizes the whole workload.
    pub per_query_cache: bool,
    /// Worker threads for the one-time match-table build. `0` means
    /// auto: the `XIA_WHATIF_THREADS` environment variable if set,
    /// otherwise `std::thread::available_parallelism()` (capped at 16).
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            per_query_cache: true,
            threads: 0,
        }
    }
}

impl EngineConfig {
    /// The seed's behavior: no per-query cache, no fan-out.
    pub fn uncached() -> Self {
        EngineConfig {
            per_query_cache: false,
            threads: 1,
        }
    }

    fn resolved_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        if let Ok(v) = std::env::var("XIA_WHATIF_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
    }
}

/// Telemetry for one engine lifetime (one search run).
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Configuration costs requested (including config-cache hits).
    pub configs_evaluated: u64,
    /// Requests answered from the whole-configuration cache.
    pub config_cache_hits: u64,
    /// Single-query evaluations actually performed: one per signature
    /// miss (a plan assembled from cached legs), or one optimizer run per
    /// query in uncached mode.
    pub whatif_calls: u64,
    /// Per-query lookups answered from the signature cache.
    pub query_cache_hits: u64,
    /// Per-query lookups that required an evaluation.
    pub query_cache_misses: u64,
    /// Maintenance-table lookups answered from the memo.
    pub maintenance_hits: u64,
    /// Maintenance-table entries computed (one document walk each).
    pub maintenance_misses: u64,
    /// Worker threads the match-table build splits across.
    pub threads: usize,
    /// Wall time spent inside `cost`/`detail`.
    pub wall: Duration,
}

impl EvalStats {
    /// Fraction of per-query lookups served from the cache.
    pub fn query_hit_rate(&self) -> f64 {
        let total = self.query_cache_hits + self.query_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.query_cache_hits as f64 / total as f64
        }
    }

    /// One-line human summary for CLI and benchmark output.
    pub fn render(&self) -> String {
        format!(
            "{} optimizer calls for {} configs ({} config-cache hits); \
             per-query cache {}/{} hits ({:.1}%); maintenance memo {}/{} hits; \
             {} threads; {:.3}s eval",
            self.whatif_calls,
            self.configs_evaluated,
            self.config_cache_hits,
            self.query_cache_hits,
            self.query_cache_hits + self.query_cache_misses,
            100.0 * self.query_hit_rate(),
            self.maintenance_hits,
            self.maintenance_hits + self.maintenance_misses,
            self.threads,
            self.wall.as_secs_f64(),
        )
    }
}

/// Canonical form of a chosen set: sorted, deduplicated DAG node indices.
/// Every cache key and every evaluation goes through this one function so
/// `cost` and `detail` can never disagree about configuration identity.
pub fn normalize(chosen: &[usize]) -> Vec<usize> {
    let mut key = chosen.to_vec();
    key.sort_unstable();
    key.dedup();
    key
}

/// A set of atom-universe positions, of any width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct AtomSet {
    words: Vec<u64>,
}

impl AtomSet {
    fn insert(&mut self, k: usize) {
        let w = k / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (k % 64);
    }

    pub(crate) fn union_with(&mut self, other: &AtomSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub(crate) fn intersects(&self, other: &AtomSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Is every member of `self` also in `other`?
    pub(crate) fn is_subset(&self, other: &AtomSet) -> bool {
        self.words.iter().enumerate().all(|(i, &a)| {
            let b = other.words.get(i).copied().unwrap_or(0);
            a & !b == 0
        })
    }
}

/// Hasher for the engine's memo keys, which are short runs of DAG node
/// indices: a multiply-rotate mix per word (the FxHash scheme), several
/// times cheaper than SipHash on such keys. The keys come from the
/// advisor's own DAG, not from callers, so no collision-resistance is
/// needed.
#[derive(Default, Clone, Copy)]
struct NodeHasher(u64);

impl std::hash::Hasher for NodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type NodeMap<V> = HashMap<Vec<usize>, V, std::hash::BuildHasherDefault<NodeHasher>>;

/// Cached result of pricing one query under one relevant-index signature.
#[derive(Debug, Clone)]
struct QueryOutcome {
    cost: f64,
    used: Vec<usize>,
}

/// One match-table entry: DAG node `node` can serve one query atom.
/// Its legs are filled on first use and never change afterwards.
struct Slot {
    node: usize,
    matched: IndexMatch,
    /// The access leg [`cost_leg`] prices for the atom.
    leg: Option<IndexLeg>,
    /// The index-only leg, for an [`index_only_eligible`] query's atom 0.
    only: Option<IndexLeg>,
}

/// What the statistics say about one candidate, whatever it serves.
struct NodeFacts {
    paths: Vec<PathId>,
    istats: IndexStats,
}

/// The match table and every configuration-independent costing input,
/// filled lazily as the search first needs each piece.
struct LegTable {
    /// One virtual definition per DAG node; its id is the node index, so
    /// a leg's `index` maps straight back to the node.
    defs: Vec<IndexDefinition>,
    /// Flat atom position of each query's atom 0.
    atom_base: Vec<usize>,
    /// For each flat atom, its slots in `slots`, ascending by node.
    spans: Vec<Range<usize>>,
    slots: Vec<Slot>,
    frames: Vec<Option<QueryFrame>>,
    facts: Vec<Option<AtomFacts>>,
    nodes: Vec<Option<NodeFacts>>,
    /// Scratch: (atom, slot) pairs a miss reads, reused across misses.
    picked: Vec<(usize, usize)>,
}

impl LegTable {
    /// Match every query atom against every DAG node, splitting the
    /// nodes across `threads` scoped workers when the DAG is big enough.
    fn build(dag: &Dag, queries: &[NormalizedQuery], threads: usize) -> LegTable {
        let defs = defs_for(dag, &(0..dag.nodes.len()).collect::<Vec<_>>());
        let mut atom_base = Vec::with_capacity(queries.len());
        let mut preds: Vec<PathPredicate> = Vec::new();
        for q in queries {
            atom_base.push(preds.len());
            preds.extend(q.atoms.iter().map(atom_predicate));
        }
        // matches[node] = (flat atom, how) for every atom the node serves.
        let one = |i: usize| -> Vec<(usize, IndexMatch)> {
            preds
                .iter()
                .enumerate()
                .filter_map(|(f, p)| match_index(&defs[i], p).map(|m| (f, m)))
                .collect()
        };
        let n = defs.len();
        let workers = threads.min(n.div_ceil(16).max(1));
        let matches: Vec<Vec<(usize, IndexMatch)>> = if workers <= 1 {
            (0..n).map(one).collect()
        } else {
            let chunk = n.div_ceil(workers);
            let mut out = Vec::with_capacity(n);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let lo = w * chunk;
                        let hi = ((w + 1) * chunk).min(n);
                        let one = &one;
                        s.spawn(move || (lo..hi).map(one).collect::<Vec<_>>())
                    })
                    .collect();
                for h in handles {
                    out.extend(h.join().expect("match-table worker panicked"));
                }
            });
            out
        };
        // Transpose node-major matches into atom-major slots; visiting
        // nodes in order keeps each atom's slots ascending by node.
        let mut per_atom: Vec<Vec<Slot>> = (0..preds.len()).map(|_| Vec::new()).collect();
        for (node, row) in matches.into_iter().enumerate() {
            for (f, matched) in row {
                per_atom[f].push(Slot {
                    node,
                    matched,
                    leg: None,
                    only: None,
                });
            }
        }
        let mut spans = Vec::with_capacity(per_atom.len());
        let mut slots = Vec::new();
        for atom_slots in per_atom {
            let lo = slots.len();
            slots.extend(atom_slots);
            spans.push(lo..slots.len());
        }
        LegTable {
            defs,
            atom_base,
            spans,
            slots,
            frames: vec![None; queries.len()],
            facts: vec![None; preds.len()],
            nodes: (0..n).map(|_| None).collect(),
            picked: Vec::new(),
        }
    }

    /// The slots of atom `a` of query `qi`.
    fn atom_slots(&self, qi: usize, a: usize) -> &[Slot] {
        &self.slots[self.spans[self.atom_base[qi] + a].clone()]
    }

    /// Price query `qi` under its relevant-index signature `sig`
    /// (ascending node indices): fill the legs the signature reaches,
    /// then assemble the plan from them.
    fn price(
        &mut self,
        collection: &Collection,
        model: &CostModel,
        qi: usize,
        query: &NormalizedQuery,
        sig: &[usize],
    ) -> QueryOutcome {
        let stats = collection.stats();
        let eligible = index_only_eligible(query);
        let base = self.atom_base[qi];
        let mut picked = std::mem::take(&mut self.picked);
        picked.clear();
        for (a, atom) in query.atoms.iter().enumerate() {
            let drives = drives_access(atom);
            let only = eligible && a == 0;
            if !drives && !only {
                continue;
            }
            // Merge the atom's slots with the signature (both ascending).
            let span = self.spans[base + a].clone();
            let mut pos = 0;
            for s in span {
                let node = self.slots[s].node;
                while pos < sig.len() && sig[pos] < node {
                    pos += 1;
                }
                if pos == sig.len() {
                    break;
                }
                if sig[pos] != node {
                    continue;
                }
                let facts =
                    *self.facts[base + a].get_or_insert_with(|| AtomFacts::new(stats, atom));
                let def = &self.defs[node];
                let nf = self.nodes[node].get_or_insert_with(|| {
                    let paths = stats.paths_matching(&def.pattern);
                    let istats = IndexStats::estimate(stats, &paths, def.data_type);
                    NodeFacts { paths, istats }
                });
                let slot = &mut self.slots[s];
                if drives && slot.leg.is_none() {
                    let key_sel = (!slot.matched.structural_only).then(|| {
                        let (op, lit) = atom.value.as_ref().expect("sargable implies value");
                        stats.selectivity_in(&nf.paths, *op, lit)
                    });
                    slot.leg = Some(cost_leg(
                        model,
                        def,
                        a,
                        slot.matched,
                        &nf.istats,
                        &facts,
                        key_sel,
                    ));
                }
                if only && slot.only.is_none() {
                    slot.only = Some(index_only_leg(model, def, slot.matched, &nf.istats, &facts));
                }
                picked.push((a, s));
            }
        }
        let frame = *self.frames[qi].get_or_insert_with(|| QueryFrame::new(stats, model, query));

        // Per atom, the best leg over the signature in node (= catalog)
        // order, exactly as `optimize` folds over its catalog.
        let mut best: Vec<Option<&IndexLeg>> = vec![None; query.atoms.len()];
        let mut only: Vec<&IndexLeg> = Vec::new();
        for (a, atom) in query.atoms.iter().enumerate() {
            let of_atom = picked
                .iter()
                .filter(|&&(pa, _)| pa == a)
                .map(|&(_, s)| &self.slots[s]);
            if drives_access(atom) {
                best[a] = best_leg(of_atom.clone().filter_map(|s| s.leg.as_ref()), model);
            }
            if eligible && a == 0 {
                only.extend(of_atom.filter_map(|s| s.only.as_ref()));
            }
        }
        let plan = assemble(model, &frame, query, &best, &only);
        let outcome = QueryOutcome {
            cost: plan.cost.total(),
            used: plan.legs().iter().map(|l| l.index.0 as usize).collect(),
        };
        self.picked = picked;
        outcome
    }
}

/// The what-if evaluation engine. Holds the workload, the candidate DAG
/// and all caches; strategies drive it through [`WhatIfEngine::cost`] and
/// [`WhatIfEngine::detail`].
pub struct WhatIfEngine<'a> {
    collection: &'a Collection,
    model: &'a CostModel,
    pub(crate) dag: &'a Dag,
    queries: Vec<NormalizedQuery>,
    freqs: Vec<f64>,
    updates: Vec<(&'a Document, f64)>,
    /// Size of the atom universe: one position per access-driving atom
    /// (required, or in an OR group) of every workload query.
    pub(crate) universe: usize,
    /// For each universe atom: `Some((query, group, branch))` when it
    /// belongs to an OR group of that query.
    atom_or: Vec<Option<(usize, u32, u32)>>,
    /// coverage[node] = the universe atoms this candidate can serve.
    pub(crate) coverage: Vec<AtomSet>,
    /// relevant[query][node]: does the candidate match any atom of the
    /// query? Exact — the optimizer consults an index only through
    /// `match_index` against atom predicates, so a non-matching index
    /// cannot influence the query's plan or cost.
    relevant: Vec<Vec<bool>>,
    legs: LegTable,
    /// Per-query memo keyed by chosen ∩ relevant[query].
    query_cache: Vec<NodeMap<QueryOutcome>>,
    /// Whole-configuration cost memo keyed by the normalized chosen set.
    config_cache: NodeMap<f64>,
    /// maint[update][node]: nodes of the update document the candidate
    /// pattern reaches. Filled lazily, each entry computed at most once.
    maint: Vec<Vec<Option<usize>>>,
    per_query_cache: bool,
    /// Scratch buffers reused by every `cost` call.
    sig: Vec<usize>,
    costs: Vec<f64>,
    stats: EvalStats,
}

impl<'a> WhatIfEngine<'a> {
    /// Build an engine over a workload's queries and updates.
    pub fn from_workload(
        collection: &'a Collection,
        model: &'a CostModel,
        workload: &'a Workload,
        dag: &'a Dag,
        config: EngineConfig,
    ) -> WhatIfEngine<'a> {
        // Cloned once here; the search re-costs configurations many times.
        let mut queries = Vec::new();
        let mut freqs = Vec::new();
        for (q, f) in workload.queries() {
            queries.push(q.clone());
            freqs.push(f);
        }
        let updates: Vec<(&'a Document, f64)> = workload.updates().collect();
        let threads = config.resolved_threads();
        let legs = LegTable::build(dag, &queries, threads);
        let n = dag.nodes.len();
        let mut atom_or = Vec::new();
        let mut coverage = vec![AtomSet::default(); n];
        let mut relevant = vec![vec![false; n]; queries.len()];
        for (qi, q) in queries.iter().enumerate() {
            for (a, atom) in q.atoms.iter().enumerate() {
                let universe_pos = drives_access(atom).then(|| {
                    atom_or.push(atom.or_group.map(|(g, b)| (qi, g, b)));
                    atom_or.len() - 1
                });
                for slot in legs.atom_slots(qi, a) {
                    relevant[qi][slot.node] = true;
                    if let Some(k) = universe_pos {
                        coverage[slot.node].insert(k);
                    }
                }
            }
        }
        let maint = vec![vec![None; n]; updates.len()];
        WhatIfEngine {
            collection,
            model,
            dag,
            query_cache: (0..queries.len()).map(|_| NodeMap::default()).collect(),
            queries,
            freqs,
            updates,
            universe: atom_or.len(),
            atom_or,
            coverage,
            relevant,
            legs,
            config_cache: NodeMap::default(),
            maint,
            per_query_cache: config.per_query_cache,
            sig: Vec::new(),
            costs: Vec::new(),
            stats: EvalStats {
                threads,
                ..EvalStats::default()
            },
        }
    }

    /// Telemetry accumulated so far.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// OR groups as lists of per-branch universe-atom sets: one entry
    /// per (query, group), holding each branch's atoms.
    pub(crate) fn or_groups(&self) -> Vec<Vec<AtomSet>> {
        let mut map: std::collections::BTreeMap<
            (usize, u32),
            std::collections::BTreeMap<u32, AtomSet>,
        > = Default::default();
        for (k, tag) in self.atom_or.iter().enumerate() {
            if let Some((qi, g, b)) = tag {
                map.entry((*qi, *g))
                    .or_default()
                    .entry(*b)
                    .or_default()
                    .insert(k);
            }
        }
        map.into_values()
            .map(|branches| branches.into_values().collect())
            .filter(|branches: &Vec<AtomSet>| branches.len() >= 2)
            .collect()
    }

    /// Total size of a configuration.
    pub fn size(&self, chosen: &[usize]) -> u64 {
        chosen
            .iter()
            .map(|&i| self.dag.nodes[i].candidate.size_bytes)
            .sum()
    }

    /// Total workload cost under a configuration: weighted query costs
    /// plus index-maintenance charges for update statements.
    pub fn cost(&mut self, chosen: &[usize]) -> f64 {
        let key = normalize(chosen);
        let start = Instant::now();
        self.stats.configs_evaluated += 1;
        if let Some(&c) = self.config_cache.get(&key) {
            self.stats.config_cache_hits += 1;
            self.stats.wall += start.elapsed();
            return c;
        }
        let total = if self.per_query_cache {
            let mut costs = std::mem::take(&mut self.costs);
            costs.clear();
            for qi in 0..self.queries.len() {
                costs.push(self.outcome(qi, &key).cost);
            }
            let queries: f64 = costs.iter().zip(&self.freqs).map(|(c, f)| c * f).sum();
            self.costs = costs;
            queries + self.maintenance_cost(&key)
        } else {
            self.straight_line_cost(&key)
        };
        self.config_cache.insert(key, total);
        self.stats.wall += start.elapsed();
        total
    }

    /// Per-query costs and used indexes (as DAG node indices) under a
    /// configuration, in workload query order.
    pub fn detail(&mut self, chosen: &[usize]) -> (Vec<f64>, Vec<Vec<usize>>) {
        let key = normalize(chosen);
        let start = Instant::now();
        let result = if self.per_query_cache {
            (0..self.queries.len())
                .map(|qi| {
                    let out = self.outcome(qi, &key);
                    (out.cost, out.used.clone())
                })
                .unzip()
        } else {
            self.stats.whatif_calls += self.queries.len() as u64;
            reference_detail(self.collection, self.model, self.dag, &self.queries, &key)
        };
        self.stats.wall += start.elapsed();
        result
    }

    /// Query `qi`'s outcome under the normalized configuration `key`,
    /// through the signature cache: looked up by slice, priced from the
    /// leg table on a miss.
    fn outcome(&mut self, qi: usize, key: &[usize]) -> &QueryOutcome {
        let mut sig = std::mem::take(&mut self.sig);
        sig.clear();
        sig.extend(key.iter().copied().filter(|&i| self.relevant[qi][i]));
        let hit = self.query_cache[qi].contains_key(sig.as_slice());
        if hit {
            self.stats.query_cache_hits += 1;
        } else {
            self.stats.query_cache_misses += 1;
            self.stats.whatif_calls += 1;
            let out = self
                .legs
                .price(self.collection, self.model, qi, &self.queries[qi], &sig);
            self.query_cache[qi].insert(sig.clone(), out);
        }
        let out = &self.query_cache[qi][sig.as_slice()];
        self.sig = sig;
        out
    }

    /// Maintenance cost the configuration adds to update statements, via
    /// the lazy (update-doc, candidate) node-count table.
    fn maintenance_cost(&mut self, chosen: &[usize]) -> f64 {
        let mut total = 0.0;
        for ui in 0..self.updates.len() {
            let freq = self.updates[ui].1;
            for &i in chosen {
                let touched = match self.maint[ui][i] {
                    Some(t) => {
                        self.stats.maintenance_hits += 1;
                        t
                    }
                    None => {
                        self.stats.maintenance_misses += 1;
                        let t = nodes_matching(
                            self.updates[ui].0,
                            &self.dag.nodes[i].candidate.pattern,
                        );
                        self.maint[ui][i] = Some(t);
                        t
                    }
                };
                if touched > 0 {
                    // B-tree descent plus per-entry insertion work.
                    total += freq
                        * (self.model.random_io
                            + touched as f64 * (self.model.cpu_maintain + self.model.cpu_entry));
                }
            }
        }
        total
    }

    /// The seed's evaluation path: one whole-workload Evaluate Indexes
    /// call plus a fresh maintenance walk. Used when the per-query cache
    /// is disabled so benchmarks compare against the original behavior.
    fn straight_line_cost(&mut self, key: &[usize]) -> f64 {
        self.stats.whatif_calls += self.queries.len() as u64;
        reference_cost(
            self.collection,
            self.model,
            self.dag,
            &self.queries,
            &self.freqs,
            &self.updates,
            key,
        )
    }
}

/// Virtual index definitions for a chosen set. Ids are the DAG node
/// indices so `used_indexes` in plans map straight back to nodes.
fn defs_for(dag: &Dag, chosen: &[usize]) -> Vec<IndexDefinition> {
    chosen
        .iter()
        .map(|&i| {
            let c = &dag.nodes[i].candidate;
            IndexDefinition::virtual_index(IndexId(i as u32), c.pattern.clone(), c.data_type)
        })
        .collect()
}

/// Count nodes of `doc` a pattern reaches (update maintenance estimate).
pub(crate) fn nodes_matching(doc: &Document, pattern: &xia_xpath::LinearPath) -> usize {
    let Some(root) = doc.root_element() else {
        return 0;
    };
    let targets_attr = pattern.targets_attribute();
    let mut n = 0;
    for node in std::iter::once(root).chain(doc.descendants(root)) {
        let kind = doc.kind(node);
        if kind == NodeKind::Text || (kind == NodeKind::Attribute) != targets_attr {
            continue;
        }
        let labels: Vec<&str> = doc
            .label_path(node)
            .iter()
            .map(|&id| doc.names().resolve(id))
            .collect();
        if pattern.matches_label_path(&labels, kind == NodeKind::Attribute) {
            n += 1;
        }
    }
    n
}

/// Straight-line workload cost with no caching at all: one Evaluate
/// Indexes call over the whole workload plus a direct maintenance walk.
/// This is the reference implementation the property tests compare the
/// engine against.
pub fn reference_cost(
    collection: &Collection,
    model: &CostModel,
    dag: &Dag,
    queries: &[NormalizedQuery],
    freqs: &[f64],
    updates: &[(&Document, f64)],
    chosen: &[usize],
) -> f64 {
    let key = normalize(chosen);
    let defs = defs_for(dag, &key);
    let eval = evaluate_indexes(collection, model, &defs, queries);
    let total: f64 = eval
        .per_query
        .iter()
        .zip(freqs)
        .map(|(q, f)| q.cost.total() * f)
        .sum();
    // Maintenance accumulates separately and is added once, exactly like
    // the engine, so comparisons can demand bitwise equality.
    let mut maint = 0.0;
    for (sample, freq) in updates {
        for &i in &key {
            let c = &dag.nodes[i].candidate;
            let touched = nodes_matching(sample, &c.pattern);
            if touched > 0 {
                maint += freq
                    * (model.random_io + touched as f64 * (model.cpu_maintain + model.cpu_entry));
            }
        }
    }
    total + maint
}

/// Uncached per-query costs and used indexes, for comparing against
/// [`WhatIfEngine::detail`].
pub fn reference_detail(
    collection: &Collection,
    model: &CostModel,
    dag: &Dag,
    queries: &[NormalizedQuery],
    chosen: &[usize],
) -> (Vec<f64>, Vec<Vec<usize>>) {
    let key = normalize(chosen);
    let defs = defs_for(dag, &key);
    let eval = evaluate_indexes(collection, model, &defs, queries);
    (
        eval.per_query.iter().map(|q| q.cost.total()).collect(),
        eval.per_query
            .iter()
            .map(|q| q.used_indexes.iter().map(|id| id.0 as usize).collect())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_basic_candidates;
    use crate::generalize::{generalize, GeneralizationConfig};
    use xia_xml::DocumentBuilder;

    fn collection(n: usize) -> Collection {
        let regions = ["africa", "asia", "europe", "namerica"];
        let mut c = Collection::new("shop");
        for i in 0..n {
            let mut b = DocumentBuilder::new();
            b.open("site");
            b.open(regions[i % regions.len()]);
            b.open("item");
            b.leaf("price", &format!("{}", i % 40));
            b.leaf("quantity", &format!("{}", i % 7));
            b.close();
            b.close();
            b.close();
            c.insert(b.finish().unwrap());
        }
        c
    }

    fn setup(n: usize, queries: &[&str]) -> (Collection, Workload, Dag) {
        let c = collection(n);
        let w = Workload::from_queries(queries, "shop").unwrap();
        let basics = generate_basic_candidates(&c, &w);
        let dag = generalize(&c, &basics, &GeneralizationConfig::default());
        (c, w, dag)
    }

    const QUERIES: &[&str] = &[
        "/site/africa/item[price = 3]/quantity",
        "/site/asia/item[price = 17]/quantity",
        "/site/europe/item[quantity = 2]/price",
    ];

    #[test]
    fn normalize_sorts_and_dedups() {
        assert_eq!(normalize(&[3, 1, 3, 0]), vec![0, 1, 3]);
        assert_eq!(normalize(&[]), Vec::<usize>::new());
    }

    #[test]
    fn cached_engine_matches_reference_on_every_subset() {
        let (c, w, dag) = setup(200, QUERIES);
        let model = CostModel::default();
        let mut ev = WhatIfEngine::from_workload(&c, &model, &w, &dag, EngineConfig::default());
        let queries: Vec<NormalizedQuery> = w.queries().map(|(q, _)| q.clone()).collect();
        let freqs: Vec<f64> = w.queries().map(|(_, f)| f).collect();
        let n = dag.nodes.len().min(5);
        for bits in 0u32..(1 << n) {
            let chosen: Vec<usize> = (0..n).filter(|i| bits & (1 << i) != 0).collect();
            let reference = reference_cost(&c, &model, &dag, &queries, &freqs, &[], &chosen);
            let got = ev.cost(&chosen);
            assert!(
                got == reference,
                "subset {chosen:?}: engine {got} != reference {reference}"
            );
            let (rc, ru) = reference_detail(&c, &model, &dag, &queries, &chosen);
            let (gc, gu) = ev.detail(&chosen);
            assert_eq!(gc, rc, "subset {chosen:?} per-query costs differ");
            assert_eq!(gu, ru, "subset {chosen:?} used indexes differ");
        }
        assert!(ev.stats().query_cache_hits > 0, "expected cache traffic");
    }

    #[test]
    fn maintenance_memo_matches_reference() {
        let (c, mut w, _) = setup(100, QUERIES);
        let sample = c.get(xia_storage::DocId(0)).unwrap().clone();
        w.add_insert(sample, 25.0);
        let basics = generate_basic_candidates(&c, &w);
        let dag = generalize(&c, &basics, &GeneralizationConfig::default());
        let model = CostModel::default();
        let queries: Vec<NormalizedQuery> = w.queries().map(|(q, _)| q.clone()).collect();
        let freqs: Vec<f64> = w.queries().map(|(_, f)| f).collect();
        let updates: Vec<(&Document, f64)> = w.updates().collect();
        let mut ev = WhatIfEngine::from_workload(&c, &model, &w, &dag, EngineConfig::default());
        let chosen: Vec<usize> = (0..dag.nodes.len().min(4)).collect();
        let reference = reference_cost(&c, &model, &dag, &queries, &freqs, &updates, &chosen);
        // Twice: first populates the memo, second must hit it.
        assert_eq!(ev.cost(&chosen), reference);
        assert_eq!(ev.cost(&chosen), reference);
        assert!(ev.stats().maintenance_misses > 0);
    }

    #[test]
    fn repeat_costing_hits_the_query_cache() {
        let (c, w, dag) = setup(200, QUERIES);
        let model = CostModel::default();
        let mut ev = WhatIfEngine::from_workload(&c, &model, &w, &dag, EngineConfig::default());
        ev.cost(&[]);
        // Growing a config re-evaluates only queries the new index is
        // relevant to; the rest hit the cache.
        for i in 0..dag.nodes.len().min(4) {
            ev.cost(&[i]);
        }
        let s = ev.stats();
        assert!(
            s.query_cache_hits > 0,
            "expected hits, got {} hits / {} misses",
            s.query_cache_hits,
            s.query_cache_misses
        );
    }

    #[test]
    fn parallel_and_serial_agree_bitwise() {
        let (c, w, dag) = setup(200, QUERIES);
        let model = CostModel::default();
        let mut serial = WhatIfEngine::from_workload(
            &c,
            &model,
            &w,
            &dag,
            EngineConfig {
                per_query_cache: true,
                threads: 1,
            },
        );
        let mut parallel = WhatIfEngine::from_workload(
            &c,
            &model,
            &w,
            &dag,
            EngineConfig {
                per_query_cache: true,
                threads: 4,
            },
        );
        let n = dag.nodes.len().min(5);
        for bits in 0u32..(1 << n) {
            let chosen: Vec<usize> = (0..n).filter(|i| bits & (1 << i) != 0).collect();
            assert_eq!(
                serial.cost(&chosen),
                parallel.cost(&chosen),
                "subset {chosen:?}"
            );
            assert_eq!(serial.detail(&chosen), parallel.detail(&chosen));
        }
    }

    #[test]
    fn uncached_mode_matches_reference() {
        let (c, w, dag) = setup(150, QUERIES);
        let model = CostModel::default();
        let queries: Vec<NormalizedQuery> = w.queries().map(|(q, _)| q.clone()).collect();
        let freqs: Vec<f64> = w.queries().map(|(_, f)| f).collect();
        let mut ev = WhatIfEngine::from_workload(&c, &model, &w, &dag, EngineConfig::uncached());
        for chosen in [vec![], vec![0], vec![1, 0], vec![0, 1, 2]] {
            let reference = reference_cost(&c, &model, &dag, &queries, &freqs, &[], &chosen);
            assert_eq!(ev.cost(&chosen), reference);
        }
        assert_eq!(
            ev.stats().query_cache_hits + ev.stats().query_cache_misses,
            0
        );
    }
}
