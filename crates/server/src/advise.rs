//! The online advising loop: snapshot the monitor, run the scalable
//! advisor pipeline (workload compression + anytime search), report
//! index drift.
//!
//! A cycle is the daemon's version of a DBA running `recommend` +
//! `review` by hand: it materializes the monitor's captured workload,
//! compresses it to weighted template representatives, runs the
//! budget-bounded anytime search under the configured disk budget, and
//! compares the recommendation against the physical catalog. The
//! difference is **index drift**:
//!
//! * *missing* — recommended for the observed workload but not
//!   materialized (the workload outgrew the configuration);
//! * *unused* — materialized but used by no best plan for the observed
//!   workload (the configuration outlived the workload; same
//!   leave-one-out verdicts as `xia-advisor::review`).
//!
//! With `auto_apply` the cycle closes the first half of the loop by
//! creating the missing indexes, still within budget because the
//! recommendation itself honored it.
//!
//! ## Incremental re-advise
//!
//! Cycles are incremental: per collection the server remembers the
//! monitor change stamp, the physical index shapes, the data version and
//! the previous recommendation ([`CollectionMemory`]). When a cycle
//! finds no new observations, no evictions, an unchanged catalog and
//! unchanged data, it reuses the previous result outright — sound
//! because idle entries all decay by the *same* factor (each multiplies
//! by `0.5^(Δt/half_life)`), so relative weights, the search's argmin
//! and `improvement_pct` are all invariant under pure decay. When something did change, the search
//! warm-starts from the previous configuration instead of from
//! scratch, and query texts are compiled once and cached across
//! cycles (the cache keeps only the texts the last computed cycle saw).

use crate::committer::{submit_and_wait, WriteCmd, WriteOutcome};
use crate::json::Value;
use crate::server::ServerState;
use crate::tenant::TenantState;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use xia_advisor::{
    frontier_items, merge_frontiers, review_existing_indexes, AnytimeBudget, AnytimeTelemetry,
    EvalStats, FrontierItem, IndexVerdict, Workload,
};
use xia_index::{DataType, IndexDefinition};
use xia_workload::MonitorSnapshot;
use xia_xquery::NormalizedQuery;

/// What the server remembers about a collection between advisor cycles.
#[derive(Debug, Default)]
pub(crate) struct CollectionMemory {
    /// Monitor change stamp covered by the last cycle (the `since`
    /// argument for the next cycle's changed-entry count).
    monitor_version: u64,
    /// Monitor eviction count at the last cycle (evictions can remove
    /// entries without bumping any surviving stamp).
    evictions: u64,
    /// Physical index shapes at the end of the last cycle.
    shapes: Vec<(String, DataType)>,
    /// The collection's data when the last cycle started. Every estimate
    /// is priced on statistics an INSERT changes, so a write-only
    /// interval must defeat the reuse as well.
    data: DataVersion,
    /// Previous recommendation, as shapes — the warm start.
    prev_config: Vec<(String, DataType)>,
    /// Compile cache: query text → normalized form. Monitor entries are
    /// stable across cycles, so steady state recompiles nothing. Pruned
    /// to the last computed cycle's texts, so it is bounded by the
    /// monitor's capacity however many texts the monitor evicts.
    compiled: HashMap<String, NormalizedQuery>,
    /// The last computed cycle, reused verbatim on no-delta cycles.
    cached: Option<CollectionCycle>,
}

/// A collection's data version: its document count and modelled bytes
/// from `CollectionStats`. The wire has no DELETE, so every write moves
/// the count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DataVersion {
    docs: u64,
    bytes: u64,
}

/// Per-collection monitor state captured (under the monitor lock) when
/// a cycle starts.
#[derive(Debug, Clone, Copy, Default)]
struct MonitorDelta {
    /// The collection's highest entry stamp.
    version: u64,
    /// Entries changed since the last cycle's stamp.
    changed: usize,
}

/// Outcome of one advisor cycle over one collection.
#[derive(Debug, Clone)]
pub struct CollectionCycle {
    pub collection: String,
    /// Distinct captured statements that drove the recommendation.
    pub statements: usize,
    /// Template clusters after workload compression.
    pub templates: usize,
    /// Captured statements changed since the previous cycle.
    pub delta_statements: usize,
    /// This cycle reused the previous result (no delta, no drift).
    pub reused: bool,
    /// The full recommended configuration, as DDL.
    pub recommended_ddl: Vec<String>,
    /// Recommended but not materialized (drift: missing).
    pub missing_ddl: Vec<String>,
    /// Materialized but unused by the captured workload (drift: unused).
    pub unused: Vec<String>,
    /// Indexes physically created by this cycle (auto-apply only).
    pub applied: usize,
    pub improvement_pct: f64,
    /// Certified compression error bound (what-if cost units).
    pub error_bound: f64,
    /// Wall time this collection's advise took.
    pub duration_secs: f64,
    pub anytime: AnytimeTelemetry,
    pub eval_stats: EvalStats,
    /// The greedy search's benefit frontier as allocator currency: one
    /// entry per accepted step, in acceptance order (so each entry's
    /// benefit is conditional on the ones before it — the prefix
    /// property the cross-tenant allocator relies on). Warm-started
    /// cycles cover only the incremental steps beyond the warm start.
    pub frontier: Vec<FrontierItem>,
}

/// Outcome of one advisor cycle across the whole database.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// 1-based cycle sequence number.
    pub seq: u64,
    /// Monitor clock reading the cycle's snapshot was taken at.
    pub taken_at: f64,
    /// Wall time for the whole cycle.
    pub duration_secs: f64,
    pub collections: Vec<CollectionCycle>,
}

impl CycleReport {
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("seq", Value::num(self.seq as f64)),
            ("taken_at", Value::num(self.taken_at)),
            ("duration_secs", Value::num(self.duration_secs)),
            (
                "collections",
                Value::Arr(self.collections.iter().map(collection_json).collect()),
            ),
        ])
    }

    /// Human-readable cycle summary (CLI `client` prints this).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("advisor cycle #{}\n", self.seq);
        for c in &self.collections {
            let _ = writeln!(
                out,
                "collection '{}': {} captured statements ({} templates, {} changed){}, est. improvement {:.1}%",
                c.collection,
                c.statements,
                c.templates,
                c.delta_statements,
                if c.reused { " [reused]" } else { "" },
                c.improvement_pct
            );
            for ddl in &c.recommended_ddl {
                let _ = writeln!(out, "  recommend {ddl}");
            }
            for ddl in &c.missing_ddl {
                let _ = writeln!(out, "  drift/missing {ddl}");
            }
            for d in &c.unused {
                let _ = writeln!(out, "  drift/unused {d}");
            }
            if c.applied > 0 {
                let _ = writeln!(out, "  auto-applied {} index(es)", c.applied);
            }
            if !c.reused {
                let _ = writeln!(
                    out,
                    "  anytime: {} iterations, {} evals in {:.3}s{}",
                    c.anytime.iterations,
                    c.anytime.evals,
                    c.duration_secs,
                    if c.anytime.exhausted {
                        " (budget exhausted, best-so-far)"
                    } else {
                        ""
                    }
                );
                let _ = writeln!(out, "  what-if: {}", c.eval_stats.render());
            }
        }
        if self.collections.is_empty() {
            out.push_str("no captured statements; nothing to advise\n");
        }
        out
    }
}

fn collection_json(c: &CollectionCycle) -> Value {
    let s = &c.eval_stats;
    let a = &c.anytime;
    let curve_first = a.curve.first().map(|p| p.cost).unwrap_or(0.0);
    let curve_last = a.curve.last().map(|p| p.cost).unwrap_or(0.0);
    Value::obj(vec![
        ("collection", Value::str(&c.collection)),
        ("statements", Value::num(c.statements as f64)),
        ("templates", Value::num(c.templates as f64)),
        ("delta_statements", Value::num(c.delta_statements as f64)),
        ("reused", Value::Bool(c.reused)),
        (
            "recommended",
            Value::Arr(c.recommended_ddl.iter().map(Value::str).collect()),
        ),
        (
            "missing",
            Value::Arr(c.missing_ddl.iter().map(Value::str).collect()),
        ),
        (
            "unused",
            Value::Arr(c.unused.iter().map(Value::str).collect()),
        ),
        ("applied", Value::num(c.applied as f64)),
        ("improvement_pct", Value::num(c.improvement_pct)),
        ("error_bound", Value::num(c.error_bound)),
        ("duration_secs", Value::num(c.duration_secs)),
        (
            "anytime",
            Value::obj(vec![
                ("iterations", Value::num(a.iterations as f64)),
                ("evals", Value::num(a.evals as f64)),
                ("resumes", Value::num(a.resumes as f64)),
                ("exhausted", Value::Bool(a.exhausted)),
                ("refined", Value::Bool(a.refined)),
                ("warm_start", Value::num(a.warm_start as f64)),
                ("curve_points", Value::num(a.curve.len() as f64)),
                ("cost_first", Value::num(curve_first)),
                ("cost_last", Value::num(curve_last)),
            ]),
        ),
        (
            "eval_stats",
            Value::obj(vec![
                ("whatif_calls", Value::num(s.whatif_calls as f64)),
                ("configs_evaluated", Value::num(s.configs_evaluated as f64)),
                ("config_cache_hits", Value::num(s.config_cache_hits as f64)),
                ("query_cache_hits", Value::num(s.query_cache_hits as f64)),
                (
                    "query_cache_misses",
                    Value::num(s.query_cache_misses as f64),
                ),
                ("threads", Value::num(s.threads as f64)),
                ("wall_secs", Value::num(s.wall.as_secs_f64())),
                ("summary", Value::str(s.render())),
            ]),
        ),
    ])
}

/// Definitions already materialized on the collection, as comparable
/// `(pattern, type)` pairs — ids and names don't matter for drift.
fn physical_shapes(defs: &[IndexDefinition]) -> Vec<(String, DataType)> {
    defs.iter()
        .map(|d| (d.pattern.to_string(), d.data_type))
        .collect()
}

impl ServerState {
    /// Snapshot the monitor and run one advisor cycle **for the default
    /// tenant**, recording it as the latest.
    pub fn force_cycle(&self) -> CycleReport {
        self.force_cycle_on(&self.default_tenant)
    }

    /// One advisor cycle for one tenant.
    ///
    /// The snapshot, the per-collection change stamps and the eviction
    /// count are read under one monitor lock so the incremental
    /// fast-path fingerprint is consistent with the workload it covers.
    /// Afterwards the cycle's per-collection frontiers are merged and
    /// published as this tenant's bid for the shared page budget.
    pub fn force_cycle_on(&self, tenant: &Arc<TenantState>) -> CycleReport {
        let (snapshot, deltas, evictions) = {
            let monitor = tenant.lock_monitor();
            let snapshot = monitor.snapshot();
            let memory = tenant.lock_advisor_memory();
            let deltas: HashMap<String, MonitorDelta> = snapshot
                .collections()
                .into_iter()
                .map(|name| {
                    let since = memory.get(&name).map(|m| m.monitor_version).unwrap_or(0);
                    let delta = MonitorDelta {
                        version: monitor.collection_version(&name),
                        changed: monitor.changed_since(&name, since),
                    };
                    (name, delta)
                })
                .collect();
            (snapshot, deltas, monitor.evictions())
        };
        let seq = tenant.cycles.fetch_add(1, Ordering::SeqCst) + 1;
        let report = run_cycle(self, tenant, &snapshot, seq, &deltas, evictions);
        *tenant.lock_cycle() = Some(report.clone());
        let merged = merge_frontiers(
            report
                .collections
                .iter()
                .map(|c| c.frontier.clone())
                .collect(),
        );
        let bound = report.collections.iter().map(|c| c.error_bound).sum();
        *tenant.lock_frontier() = (merged, bound);
        report
    }
}

/// Run one advisor cycle over `snapshot` against the shared database.
/// `deltas` holds each collection's monitor stamp and changed-entry
/// count (captured under the monitor lock by `force_cycle`);
/// `evictions` is the monitor's lifetime eviction count.
///
/// Estimates against a frozen database snapshot per collection (no
/// lock at all) and auto-applies through the committer, so concurrent
/// queries keep flowing during the (budget-bounded) what-if search.
fn run_cycle(
    state: &ServerState,
    tenant: &TenantState,
    snapshot: &MonitorSnapshot,
    seq: u64,
    deltas: &HashMap<String, MonitorDelta>,
    evictions: u64,
) -> CycleReport {
    let cycle_start = Instant::now();
    let mut collections = Vec::new();
    for name in snapshot.collections() {
        let sub = snapshot.for_collection(&name);
        if sub.is_empty() {
            continue;
        }
        let delta = deltas.get(&name).copied().unwrap_or_default();
        let Some(cycle) = advise_collection(state, tenant, &name, &sub, delta, evictions) else {
            continue;
        };
        collections.push(cycle);
    }
    CycleReport {
        seq,
        taken_at: snapshot.taken_at,
        duration_secs: cycle_start.elapsed().as_secs_f64(),
        collections,
    }
}

fn advise_collection(
    state: &ServerState,
    tenant: &TenantState,
    name: &str,
    sub: &MonitorSnapshot,
    delta: MonitorDelta,
    evictions: u64,
) -> Option<CollectionCycle> {
    let start = Instant::now();

    // Physical shapes and the data version first: they are part of the
    // reuse fingerprint (a manual CREATE/DROP INDEX or an INSERT between
    // cycles must defeat the reuse).
    let (existing, data): (Vec<IndexDefinition>, DataVersion) = {
        let db = tenant.read_db();
        let coll = db.collection(name)?;
        let stats = coll.stats();
        let existing = coll
            .indexes()
            .iter()
            .map(|ix| ix.definition().clone())
            .collect();
        let data = DataVersion {
            docs: stats.doc_count,
            bytes: stats.total_bytes,
        };
        (existing, data)
    };
    let shapes = physical_shapes(&existing);

    // Incremental fast path: nothing observed, nothing evicted, and the
    // catalog and data untouched since the last cycle → the previous
    // result still holds. Pure decay scales every entry's weight by the
    // same factor, so the search's decisions and improvement ratio are
    // unchanged.
    let (warm, workload) = {
        let mut memory = tenant.lock_advisor_memory();
        let mem = memory.entry(name.to_string()).or_default();
        if let Some(cached) = &mem.cached {
            if delta.changed == 0
                && mem.evictions == evictions
                && mem.shapes == shapes
                && mem.data == data
            {
                let mut cycle = cached.clone();
                cycle.reused = true;
                cycle.delta_statements = 0;
                cycle.applied = 0;
                cycle.duration_secs = start.elapsed().as_secs_f64();
                return Some(cycle);
            }
        }
        // Compile through the per-collection cache; entries carry texts
        // the monitor compiled once already, so failures mean the
        // catalog changed under us — skip those entries.
        let mut workload = Workload::new();
        for e in &sub.entries {
            let q = match mem.compiled.get(&e.text) {
                Some(q) => q.clone(),
                None => match xia_xquery::compile(&e.text, &e.collection) {
                    Ok(q) => {
                        mem.compiled.insert(e.text.clone(), q.clone());
                        q
                    }
                    Err(_) => continue,
                },
            };
            workload.add_compiled(q, e.weight);
        }
        (mem.prev_config.clone(), workload)
    };
    if workload.query_count() == 0 {
        return None;
    }

    // The budget-bounded compressed advise against a frozen snapshot.
    // Refinement stays off so a completed search recommends exactly
    // what offline `recommend` (greedy heuristic) would.
    let budget = AnytimeBudget {
        wall: state.config.advise_budget,
        max_evals: None,
    };
    let (rec, unused) = {
        let db = tenant.read_db();
        let coll = db.collection(name)?;
        let rec = state.advisor.recommend_compressed(
            coll,
            &workload,
            state.config.budget_bytes,
            &budget,
            0,
            &warm,
        );
        let unused: Vec<String> = if coll.indexes().is_empty() {
            Vec::new()
        } else {
            review_existing_indexes(coll, &state.advisor.config.cost_model, &workload)
                .into_iter()
                .filter(|r| r.verdict == IndexVerdict::Drop)
                .map(|r| r.definition.to_string())
                .collect()
        };
        (rec, unused)
    };

    let missing: Vec<IndexDefinition> = rec
        .indexes
        .iter()
        .filter(|d| !shapes.contains(&(d.pattern.to_string(), d.data_type)))
        .cloned()
        .collect();
    let missing_ddl: Vec<String> = missing.iter().map(|d| d.ddl(name)).collect();

    // Close the loop through the committer if configured to. Auto-
    // applied indexes are writes like any other: group-committed and
    // WAL-logged, so a crash after the cycle still recovers them.
    // `skip_if_exists` makes racing cycles (or a concurrent manual
    // CREATE-INDEX of the same shape) converge instead of stacking
    // duplicate indexes.
    let mut applied = 0;
    if state.config.auto_apply {
        for def in &missing {
            match submit_and_wait(
                &tenant.committer,
                WriteCmd::CreateIndex {
                    collection: name.to_string(),
                    data_type: def.data_type,
                    pattern: def.pattern.clone(),
                    skip_if_exists: true,
                },
            ) {
                Ok(committed) => {
                    if matches!(committed.outcome, WriteOutcome::IndexCreated { .. }) {
                        applied += 1;
                    }
                }
                Err(_) => break,
            }
        }
    }

    let cycle = CollectionCycle {
        collection: name.to_string(),
        statements: sub.len(),
        templates: rec.templates,
        delta_statements: delta.changed,
        reused: false,
        recommended_ddl: rec.ddl(name),
        missing_ddl,
        unused,
        applied,
        improvement_pct: rec.improvement_pct(),
        error_bound: rec.error_bound,
        duration_secs: start.elapsed().as_secs_f64(),
        anytime: rec.telemetry.clone(),
        eval_stats: rec.outcome.stats.clone(),
        frontier: frontier_items(name, &rec.dag, &rec.telemetry.frontier),
    };

    // Remember this cycle for the incremental fast path and the next
    // warm start. Shapes are re-read post-apply so auto-applied indexes
    // are part of the fingerprint.
    let shapes_after = {
        let db = tenant.read_db();
        db.collection(name)
            .map(|coll| {
                physical_shapes(
                    &coll
                        .indexes()
                        .iter()
                        .map(|ix| ix.definition().clone())
                        .collect::<Vec<_>>(),
                )
            })
            .unwrap_or(shapes)
    };
    // The cached copy describes drift against the *post-apply* catalog
    // (the same catalog the reuse fingerprint matches): auto-applied
    // indexes are no longer missing when the result is reused.
    let mut cached = cycle.clone();
    cached.missing_ddl = rec
        .indexes
        .iter()
        .filter(|d| !shapes_after.contains(&(d.pattern.to_string(), d.data_type)))
        .map(|d| d.ddl(name))
        .collect();
    {
        let mut memory = tenant.lock_advisor_memory();
        let mem = memory.entry(name.to_string()).or_default();
        mem.monitor_version = delta.version;
        mem.evictions = evictions;
        mem.shapes = shapes_after;
        mem.data = data;
        let seen: HashSet<&str> = sub.entries.iter().map(|e| e.text.as_str()).collect();
        mem.compiled.retain(|text, _| seen.contains(text.as_str()));
        mem.prev_config = rec
            .indexes
            .iter()
            .map(|d| (d.pattern.to_string(), d.data_type))
            .collect();
        mem.cached = Some(cached);
    }

    Some(cycle)
}

#[cfg(test)]
mod tests {
    use crate::{Server, ServerConfig};
    use std::sync::Arc;
    use xia_storage::{Collection, Database};
    use xia_workload::{FakeClock, MonitorConfig, XMarkConfig, XMarkGen};

    #[test]
    fn the_compile_cache_holds_no_more_than_the_monitor() {
        const CAPACITY: usize = 6;
        let mut coll = Collection::new("auctions");
        XMarkGen::new(XMarkConfig {
            docs: 8,
            ..Default::default()
        })
        .populate(&mut coll);
        let mut db = Database::new();
        assert!(db.add_collection(coll));
        let server = Server::start(
            db,
            ServerConfig {
                threads: 1,
                monitor: MonitorConfig {
                    half_life_secs: 300.0,
                    capacity: CAPACITY,
                },
                clock: Arc::new(FakeClock::new()),
                ..Default::default()
            },
        )
        .expect("daemon starts");
        let tenant = server.state().default_tenant().clone();
        // Each cycle sees a fresh window of texts, so the monitor evicts
        // every text of the cycle before.
        for cycle in 0..5 {
            {
                let mut monitor = tenant.lock_monitor();
                for i in 0..CAPACITY {
                    let text = format!("//item[price > {}]/name", cycle * CAPACITY + i);
                    monitor.observe_text(&text, "auctions").unwrap();
                }
            }
            let report = server.force_cycle();
            assert!(!report.collections[0].reused, "cycle {cycle} computed");
            let cached = tenant.lock_advisor_memory()["auctions"].compiled.len();
            assert!(cached <= CAPACITY, "cycle {cycle}: {cached} cached texts");
        }
        assert!(tenant.lock_monitor().evictions() >= 4 * CAPACITY as u64);
        server.stop();
    }
}
