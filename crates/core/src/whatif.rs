//! The what-if cost engine: incrementally-cached, parallel configuration
//! costing for the advisor search.
//!
//! Every search strategy asks the same question thousands of times: "what
//! would the workload cost if exactly this index set existed?" The seed
//! answered each ask by re-optimizing the *whole* workload. Two facts make
//! that wasteful:
//!
//! 1. **Per-query decomposition.** Evaluate Indexes mode optimizes each
//!    query independently, so the workload cost is a weighted sum of
//!    per-query costs.
//! 2. **Relevance.** The optimizer only consults an index through
//!    `match_index(def, atom_predicate(atom))` gates, so an index that
//!    matches no atom of a query cannot influence that query's plan.
//!    A query's cost therefore depends only on `chosen ∩ relevant(query)`
//!    — the atomic-configuration insight of CoPhy-style advisors.
//!
//! The engine memoizes per-query results keyed by `(query, chosen ∩
//! relevant(query))`. A greedy step that tries `chosen + {i}` re-optimizes
//! only the queries `i` is relevant to; every other query is a cache hit.
//! Cache misses are independent single-query optimizations, so they fan
//! out across OS threads with `std::thread::scope` — results are merged
//! and summed in query order on the calling thread, keeping f64 totals
//! bitwise identical to a sequential evaluation.
//!
//! Update maintenance costing gets the same treatment: the node-count
//! `nodes_matching(sample, pattern)` walks every node of an update
//! document and the seed repeated it per costed configuration; the engine
//! hoists it into a lazy once-per-(update-doc, candidate) table.
//!
//! [`EvalStats`] counts what-if optimizer calls, cache traffic and wall
//! time so the CLI and benchmarks can report what the search actually
//! paid.

use crate::generalize::Dag;
use crate::workload::Workload;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use xia_index::{match_index, IndexDefinition, IndexId, PathPredicate};
use xia_optimizer::{atom_predicate, evaluate_indexes, evaluate_query, CostModel};
use xia_storage::Collection;
use xia_xml::{Document, NodeKind};
use xia_xquery::NormalizedQuery;

/// Tuning knobs for the engine. The defaults are what [`crate::search`]
/// uses; the uncached single-threaded setting reproduces the seed's
/// straight-line evaluation and serves as the benchmark baseline and the
/// property-test reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Memoize per-query results by relevant-index signature. When off,
    /// every configuration cost re-optimizes the whole workload.
    pub per_query_cache: bool,
    /// Worker threads for cache-miss fan-out. `0` means auto: the
    /// `XIA_WHATIF_THREADS` environment variable if set, otherwise
    /// `std::thread::available_parallelism()` (capped at 16).
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
    /// Single-query optimizer invocations actually performed.
    pub whatif_calls: u64,
    /// Per-query lookups answered from the signature cache.
    pub query_cache_hits: u64,
    /// Per-query lookups that required an optimizer call.
    pub query_cache_misses: u64,
    /// Maintenance-table lookups answered from the memo.
    pub maintenance_hits: u64,
    /// Maintenance-table entries computed (one document walk each).
    pub maintenance_misses: u64,
    /// Worker threads the engine fans out across.
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

/// Cached result of optimizing one query under one relevant-index set.
#[derive(Debug, Clone)]
struct QueryOutcome {
    cost: f64,
    used: Vec<usize>,
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
    /// Atom universe for the coverage bitmap: one entry per required atom
    /// of every workload query, plus atoms from disjunctive (OR) groups.
    pub(crate) atoms: Vec<PathPredicate>,
    /// For each universe atom: `Some((query, group, branch))` when it
    /// belongs to an OR group of that query.
    atom_or: Vec<Option<(usize, u32, u32)>>,
    /// coverage[node] = bitmask over `atoms` this candidate can serve.
    pub(crate) coverage: Vec<u128>,
    /// relevant[query][node]: does the candidate match any atom of the
    /// query? Exact — the optimizer consults an index only through
    /// `match_index` against atom predicates, so a non-matching index
    /// cannot influence the query's plan or cost.
    relevant: Vec<Vec<bool>>,
    /// Per-query memo keyed by (query, chosen ∩ relevant[query]).
    query_cache: HashMap<(usize, Vec<usize>), QueryOutcome>,
    /// Whole-configuration cost memo keyed by the normalized chosen set.
    config_cache: HashMap<Vec<usize>, f64>,
    /// maint[update][node]: nodes of the update document the candidate
    /// pattern reaches. Filled lazily, each entry computed at most once.
    maint: Vec<Vec<Option<usize>>>,
    per_query_cache: bool,
    threads: usize,
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
        let mut atoms = Vec::new();
        let mut atom_or = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            for atom in &q.atoms {
                let relevant = atom.required || atom.or_group.is_some();
                if relevant && atoms.len() < 128 {
                    atoms.push(atom_predicate(atom));
                    atom_or.push(atom.or_group.map(|(g, b)| (qi, g, b)));
                }
            }
        }
        let threads = config.resolved_threads();
        let per_node = node_properties(dag, &queries, &atoms, threads);
        let coverage: Vec<u128> = per_node.iter().map(|(c, _)| *c).collect();
        // Transpose node-major relevance into query-major for signature
        // extraction (`chosen` is filtered per query).
        let relevant: Vec<Vec<bool>> = (0..queries.len())
            .map(|qi| per_node.iter().map(|(_, r)| r[qi]).collect())
            .collect();
        let maint = vec![vec![None; dag.nodes.len()]; updates.len()];
        WhatIfEngine {
            collection,
            model,
            dag,
            queries,
            freqs,
            updates,
            atoms,
            atom_or,
            coverage,
            relevant,
            query_cache: HashMap::new(),
            config_cache: HashMap::new(),
            maint,
            per_query_cache: config.per_query_cache,
            threads,
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

    /// OR groups as lists of per-branch universe-atom bitmasks:
    /// one entry per (query, group), holding each branch's atom mask.
    pub(crate) fn or_groups(&self) -> Vec<Vec<u128>> {
        let mut map: std::collections::BTreeMap<
            (usize, u32),
            std::collections::BTreeMap<u32, u128>,
        > = Default::default();
        for (i, tag) in self.atom_or.iter().enumerate() {
            if let Some((qi, g, b)) = tag {
                *map.entry((*qi, *g)).or_default().entry(*b).or_insert(0) |= 1u128 << i;
            }
        }
        map.into_values()
            .map(|branches| branches.into_values().collect())
            .filter(|branches: &Vec<u128>| branches.len() >= 2)
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
            let per = self.per_query_outcomes(&key);
            let queries: f64 = per.iter().zip(&self.freqs).map(|(q, f)| q.cost * f).sum();
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
            let per = self.per_query_outcomes(&key);
            (
                per.iter().map(|q| q.cost).collect(),
                per.into_iter().map(|q| q.used).collect(),
            )
        } else {
            let defs = defs_for(self.dag, &key);
            let eval = evaluate_indexes(self.collection, self.model, &defs, &self.queries);
            self.stats.whatif_calls += self.queries.len() as u64;
            (
                eval.per_query.iter().map(|q| q.cost.total()).collect(),
                eval.per_query
                    .iter()
                    .map(|q| q.used_indexes.iter().map(|id| id.0 as usize).collect())
                    .collect(),
            )
        };
        self.stats.wall += start.elapsed();
        result
    }

    /// Per-query outcomes for a normalized configuration, through the
    /// signature cache. Misses are optimized in parallel; the returned
    /// vector is in workload query order regardless of completion order.
    fn per_query_outcomes(&mut self, key: &[usize]) -> Vec<QueryOutcome> {
        let sigs: Vec<Vec<usize>> = (0..self.queries.len())
            .map(|qi| {
                key.iter()
                    .copied()
                    .filter(|&i| self.relevant[qi][i])
                    .collect()
            })
            .collect();
        let mut misses: Vec<(usize, Vec<usize>)> = Vec::new();
        for (qi, sig) in sigs.iter().enumerate() {
            if self.query_cache.contains_key(&(qi, sig.clone())) {
                self.stats.query_cache_hits += 1;
            } else {
                self.stats.query_cache_misses += 1;
                misses.push((qi, sig.clone()));
            }
        }
        self.stats.whatif_calls += misses.len() as u64;
        for (qi, sig, out) in self.evaluate_misses(misses) {
            self.query_cache.insert((qi, sig), out);
        }
        sigs.into_iter()
            .enumerate()
            .map(|(qi, sig)| self.query_cache[&(qi, sig)].clone())
            .collect()
    }

    /// Optimize the missed (query, signature) pairs, fanning out across
    /// scoped threads when there is enough work to share.
    fn evaluate_misses(
        &self,
        misses: Vec<(usize, Vec<usize>)>,
    ) -> Vec<(usize, Vec<usize>, QueryOutcome)> {
        let workers = self.threads.min(misses.len());
        if workers <= 1 {
            return misses
                .into_iter()
                .map(|(qi, sig)| {
                    let out = eval_one(
                        self.collection,
                        self.model,
                        self.dag,
                        &self.queries[qi],
                        &sig,
                    );
                    (qi, sig, out)
                })
                .collect();
        }
        let (collection, model, dag) = (self.collection, self.model, self.dag);
        let queries = &self.queries;
        let mut buckets: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); workers];
        for (n, m) in misses.into_iter().enumerate() {
            buckets[n % workers].push(m);
        }
        let mut out = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    s.spawn(move || {
                        bucket
                            .into_iter()
                            .map(|(qi, sig)| {
                                let o = eval_one(collection, model, dag, &queries[qi], &sig);
                                (qi, sig, o)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("what-if worker panicked"));
            }
        });
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
        let defs = defs_for(self.dag, key);
        let eval = evaluate_indexes(self.collection, self.model, &defs, &self.queries);
        self.stats.whatif_calls += self.queries.len() as u64;
        let total: f64 = eval
            .per_query
            .iter()
            .zip(&self.freqs)
            .map(|(q, f)| q.cost.total() * f)
            .sum();
        // Maintenance accumulates separately and is added once, matching
        // the cached path's summation order bit for bit.
        let mut maint = 0.0;
        for (sample, freq) in &self.updates {
            for &i in key {
                let c = &self.dag.nodes[i].candidate;
                let touched = nodes_matching(sample, &c.pattern);
                if touched > 0 {
                    maint += freq
                        * (self.model.random_io
                            + touched as f64 * (self.model.cpu_maintain + self.model.cpu_entry));
                }
            }
        }
        total + maint
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

/// Optimize one query under its relevant-index signature.
fn eval_one(
    collection: &Collection,
    model: &CostModel,
    dag: &Dag,
    query: &NormalizedQuery,
    sig: &[usize],
) -> QueryOutcome {
    let defs = defs_for(dag, sig);
    let eval = evaluate_query(collection, model, &defs, query);
    QueryOutcome {
        cost: eval.cost.total(),
        used: eval.used_indexes.iter().map(|id| id.0 as usize).collect(),
    }
}

/// Per-node coverage mask and per-query relevance, computed in one pass
/// over the DAG (parallelized when the DAG is big enough to be worth it).
fn node_properties(
    dag: &Dag,
    queries: &[NormalizedQuery],
    atoms: &[PathPredicate],
    threads: usize,
) -> Vec<(u128, Vec<bool>)> {
    let one = |i: usize| -> (u128, Vec<bool>) {
        let n = &dag.nodes[i];
        let def = IndexDefinition::virtual_index(
            IndexId(0),
            n.candidate.pattern.clone(),
            n.candidate.data_type,
        );
        let mask = atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| match_index(&def, a).is_some())
            .fold(0u128, |m, (k, _)| m | (1 << k));
        let rel = queries
            .iter()
            .map(|q| {
                q.atoms
                    .iter()
                    .any(|a| match_index(&def, &atom_predicate(a)).is_some())
            })
            .collect();
        (mask, rel)
    };
    let n = dag.nodes.len();
    let workers = threads.min(n.div_ceil(16).max(1));
    if workers <= 1 {
        return (0..n).map(one).collect();
    }
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
            out.extend(h.join().expect("precompute worker panicked"));
        }
    });
    out
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
