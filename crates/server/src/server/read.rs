//! The read commands — QUERY, EXPLAIN, PROFILE — over one [`prepare`]
//! step. They run against an immutable snapshot and take no lock, with
//! one exception `scripts/check.sh` allow-lists by line: QUERY's
//! `lock_monitor().observe(` (a per-tenant mutex until ROADMAP 5(a)
//! replaces it with per-worker observation buffers).

use super::connection::target_collection;
use super::ServerState;
use crate::json::Value;
use crate::snapshot::Snapshot;
use crate::tenant::TenantState;
use std::sync::Arc;
use std::time::Instant;
use xia_optimizer::{execute, optimize, profile_execute, AccessPath, Catalog, Plan};
use xia_storage::Collection;
use xia_xquery::{compile, NormalizedQuery};

/// A request's query compiled and planned against a pinned snapshot.
struct Prepared {
    query: NormalizedQuery,
    /// The snapshot the plan was made for; execution must use it too.
    db: Arc<Snapshot>,
    plan: Plan,
}

impl Prepared {
    fn collection(&self) -> &Collection {
        self.db
            .collection(&self.query.collection)
            .expect("prepare resolved the collection in this snapshot")
    }
}

/// The step every read command starts with: `q` → target collection →
/// compile → pin the snapshot → optimize over its real catalog. The one
/// place a plan cache or a stage timer has to go.
fn prepare(state: &ServerState, tenant: &TenantState, req: &Value) -> Result<Prepared, String> {
    let text = req.get_str("q").ok_or("missing field 'q'")?;
    let coll_name = target_collection(tenant, req)?;
    let query = compile(text, &coll_name).map_err(|e| e.to_string())?;
    let db = tenant.read_db();
    let coll = db
        .collection(&query.collection)
        .ok_or_else(|| format!("no collection '{}'", query.collection))?;
    let plan = optimize(
        &Catalog::real_only(coll),
        &state.advisor.config.cost_model,
        &query,
    );
    Ok(Prepared { query, db, plan })
}

pub(super) fn handle_query(
    state: &ServerState,
    tenant: &TenantState,
    req: &Value,
) -> Result<Value, String> {
    let start = Instant::now();
    let p = prepare(state, tenant, req)?;
    let coll = p.collection();
    let (rows, stats) = execute(coll, &p.query, &p.plan).map_err(|e| e.to_string())?;
    let sample: Vec<Value> = rows
        .iter()
        .take(5)
        .map(|(doc, node)| {
            let d = coll.get(*doc).expect("result doc exists");
            Value::str(format!(
                "doc {} {}: {}",
                doc.0,
                d.name(*node),
                d.string_value(*node)
            ))
        })
        .collect();
    tenant.lock_monitor().observe(&p.query);
    Ok(Value::obj(vec![
        ("results", Value::num(rows.len() as f64)),
        ("sample", Value::Arr(sample)),
        ("plan", Value::str(access_kind(&p.plan))),
        ("docs_evaluated", Value::num(stats.docs_evaluated as f64)),
        ("entries_scanned", Value::num(stats.entries_scanned as f64)),
        ("pages_read", Value::num(stats.pages_read as f64)),
        (
            "elapsed_ms",
            Value::num(start.elapsed().as_secs_f64() * 1e3),
        ),
    ]))
}

fn access_kind(plan: &Plan) -> &'static str {
    match &plan.access {
        AccessPath::DocScan => "XSCAN",
        AccessPath::IndexOnly { .. } => "XISCAN-ONLY",
        AccessPath::IndexOr { .. } => "IXOR",
        AccessPath::IndexAccess { legs } if legs.len() > 1 => "IXAND",
        AccessPath::IndexAccess { .. } => "XISCAN",
    }
}

pub(super) fn handle_explain(
    state: &ServerState,
    tenant: &TenantState,
    req: &Value,
) -> Result<Value, String> {
    let p = prepare(state, tenant, req)?;
    Ok(Value::obj(vec![(
        "plan",
        Value::str(p.plan.render(&p.query.text)),
    )]))
}

pub(super) fn handle_profile(
    state: &ServerState,
    tenant: &TenantState,
    req: &Value,
) -> Result<Value, String> {
    let p = prepare(state, tenant, req)?;
    let profile = profile_execute(p.collection(), &p.query, &p.plan).map_err(|e| e.to_string())?;
    // Per-batch-operator attribution (empty for index-only plans and
    // navigational walks, which never run the batch engine): `op` is
    // the operator label from the compiled pipeline, `rows` the rows it
    // produced summed over every document evaluated, `ms` the wall time
    // spent inside it.
    let operators = profile
        .operators
        .iter()
        .map(|o| {
            Value::obj(vec![
                ("op", Value::str(&o.op)),
                ("rows", Value::num(o.rows as f64)),
                ("ms", Value::num(o.wall.as_secs_f64() * 1e3)),
            ])
        })
        .collect();
    Ok(Value::obj(vec![
        ("profile", Value::str(profile.render())),
        ("results", Value::num(profile.results.len() as f64)),
        ("operators", Value::Arr(operators)),
    ]))
}
