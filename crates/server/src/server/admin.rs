//! The control-plane commands — TENANT (list / provision namespaces)
//! and STATS rendering. Both run at the `Never` shed tier.

use super::ServerState;
use crate::json::Value;
use std::sync::atomic::Ordering;
use xia_advisor::Allocation;

/// TENANT: without a `name`, list every namespace (per-tenant STATS
/// sections); with one, create it (idempotent) plus any requested
/// `collections`. Runs at the `Never` shed tier — provisioning is
/// control plane, not data plane.
pub(super) fn handle_tenant(state: &ServerState, req: &Value) -> Result<Value, String> {
    let Some(name) = req.get_str("name") else {
        let tenants: Vec<Value> = state.all_tenants().iter().map(|t| t.stats_json()).collect();
        return Ok(Value::obj(vec![("tenants", Value::Arr(tenants))]));
    };
    let collections: Vec<String> = match req.get("collections") {
        None => Vec::new(),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                _ => Err("'collections' must be an array of strings".to_string()),
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("'collections' must be an array of strings".to_string()),
    };
    let (tenant, created) = state.create_tenant(name, &collections)?;
    Ok(Value::obj(vec![
        ("tenant", Value::str(tenant.name())),
        ("created", Value::Bool(created)),
        (
            "collections",
            Value::Arr(collections.iter().map(Value::str).collect()),
        ),
    ]))
}

/// STATS `overload` section: the config and current level alongside the
/// live gauges and counters, so an operator can see both the limits and
/// how hard they are being hit.
fn overload_json(state: &ServerState) -> Value {
    let a = &state.admission;
    let cfg = a.config();
    let mut fields = vec![
        ("level".to_string(), Value::str(a.level().label())),
        ("workers".to_string(), Value::num(a.workers() as f64)),
        (
            "max_connections".to_string(),
            Value::num(cfg.max_connections as f64),
        ),
        ("shed_queue".to_string(), Value::num(cfg.shed_queue as f64)),
        (
            "max_frame_bytes".to_string(),
            Value::num(cfg.max_frame_bytes as f64),
        ),
        (
            "retry_after_ms_base".to_string(),
            Value::num(cfg.retry_after_ms as f64),
        ),
    ];
    if let Value::Obj(counters) = state.metrics.overload.to_json() {
        fields.extend(counters);
    }
    Value::Obj(fields)
}

pub(super) fn handle_stats(state: &ServerState) -> Result<Value, String> {
    // Top-level sections keep reporting the default tenant, so the
    // pre-tenancy STATS surface (and every test pinned to it) is
    // unchanged; per-namespace detail lives under `tenants`.
    let tenant = state.default_tenant();
    let snap = tenant.read_db();
    let concurrency = Value::obj(vec![
        ("snapshot_generation", Value::num(snap.generation() as f64)),
        (
            "snapshot_age_secs",
            Value::num(snap.published().elapsed().as_secs_f64()),
        ),
        (
            "snapshots_published",
            Value::num(tenant.cell.generation() as f64),
        ),
        (
            "live_snapshot_refs",
            Value::num(tenant.cell.live_refs() as f64),
        ),
        (
            "snapshots_alive",
            Value::num(tenant.cell.snapshots_alive() as f64),
        ),
        ("committer", state.metrics.concurrency.to_json()),
    ]);
    let collections: Vec<Value> = {
        let db = tenant.read_db();
        db.collections()
            .map(|c| {
                Value::obj(vec![
                    ("name", Value::str(c.name())),
                    ("documents", Value::num(c.len() as f64)),
                    ("indexes", Value::num(c.indexes().len() as f64)),
                    ("pages", Value::num(c.total_pages() as f64)),
                ])
            })
            .collect()
    };
    // Aggregate the last cycle for the advisor section: duration,
    // compression ratio (templates vs raw statements), delta size,
    // anytime iterations and a convergence-curve summary.
    let (last_cycle, cycle_summary) = {
        let guard = tenant.lock_cycle();
        match guard.as_ref() {
            None => (Value::Null, Value::Null),
            Some(report) => {
                let mut raw = 0usize;
                let mut templates = 0usize;
                let mut delta = 0usize;
                let mut iterations = 0u64;
                let mut points = 0usize;
                let mut cost_first = 0.0;
                let mut cost_last = 0.0;
                let mut reused = 0usize;
                for c in &report.collections {
                    raw += c.statements;
                    templates += c.templates;
                    delta += c.delta_statements;
                    iterations += c.anytime.iterations;
                    points += c.anytime.curve.len();
                    cost_first += c.anytime.curve.first().map(|p| p.cost).unwrap_or(0.0);
                    cost_last += c.anytime.curve.last().map(|p| p.cost).unwrap_or(0.0);
                    reused += c.reused as usize;
                }
                let summary = Value::obj(vec![
                    ("duration_secs", Value::num(report.duration_secs)),
                    ("raw_statements", Value::num(raw as f64)),
                    ("templates", Value::num(templates as f64)),
                    ("delta_statements", Value::num(delta as f64)),
                    ("anytime_iterations", Value::num(iterations as f64)),
                    ("collections_reused", Value::num(reused as f64)),
                    (
                        "curve",
                        Value::obj(vec![
                            ("points", Value::num(points as f64)),
                            ("cost_first", Value::num(cost_first)),
                            ("cost_last", Value::num(cost_last)),
                        ]),
                    ),
                ]);
                (report.to_json(), summary)
            }
        }
    };
    Ok(Value::obj(vec![
        (
            "uptime_secs",
            Value::num(state.started.elapsed().as_secs_f64()),
        ),
        ("collections", Value::Arr(collections)),
        ("monitor", tenant.monitor_json()),
        ("metrics", state.metrics.snapshot_json()),
        ("concurrency", concurrency),
        ("overload", overload_json(state)),
        ("durability", tenant.durability_json()),
        (
            "tenants",
            Value::Arr(state.all_tenants().iter().map(|t| t.stats_json()).collect()),
        ),
        (
            "advisor",
            Value::obj(vec![
                (
                    "cycles",
                    Value::num(tenant.cycles.load(Ordering::SeqCst) as f64),
                ),
                (
                    "budget_kib",
                    Value::num((state.config.budget_bytes >> 10) as f64),
                ),
                ("auto_apply", Value::Bool(state.config.auto_apply)),
                (
                    "advise_budget_ms",
                    match state.config.advise_budget {
                        Some(d) => Value::num(d.as_secs_f64() * 1000.0),
                        None => Value::Null,
                    },
                ),
                (
                    "allocation",
                    state
                        .compute_allocation()
                        .map(allocation_json)
                        .unwrap_or(Value::Null),
                ),
                ("last_cycle_summary", cycle_summary),
                ("last_cycle", last_cycle),
            ]),
        ),
    ]))
}

/// STATS `advisor.allocation` section: how the shared page budget was
/// split across tenants on the latest frontiers.
fn allocation_json(a: Allocation) -> Value {
    let per_tenant: Vec<Value> = a
        .per_tenant
        .iter()
        .map(|t| {
            Value::obj(vec![
                ("tenant", Value::str(&t.tenant)),
                ("pages", Value::num(t.pages as f64)),
                ("benefit", Value::num(t.benefit)),
                ("error_bound", Value::num(t.error_bound)),
                ("starved", Value::Bool(t.starved)),
                (
                    "ddl",
                    Value::Arr(
                        t.chosen
                            .iter()
                            .flat_map(|i| i.ddl.iter().map(Value::str))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Value::obj(vec![
        ("total_pages", Value::num(a.total_pages as f64)),
        ("spent_pages", Value::num(a.spent_pages as f64)),
        ("total_benefit", Value::num(a.total_benefit)),
        ("per_tenant", Value::Arr(per_tenant)),
    ])
}
