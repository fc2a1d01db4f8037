//! The advisor commands — RECOMMEND (one body for the plain and the
//! `budget_ms` form), ADVISE (a forced cycle, see [`crate::advise`]) and
//! WORKLOAD (the monitor's capture in the advisor's file format).

use super::connection::target_collection;
use super::ServerState;
use crate::json::Value;
use crate::tenant::TenantState;
use std::sync::Arc;
use xia_advisor::{AnytimeBudget, SearchStrategy};

pub(super) fn handle_recommend(
    state: &ServerState,
    tenant: &TenantState,
    req: &Value,
) -> Result<Value, String> {
    let coll_name = target_collection(tenant, req)?;
    let budget_bytes = match req.get_f64("budget_kib") {
        Some(kib) if kib > 0.0 => (kib as u64) << 10,
        Some(_) => return Err("budget_kib must be positive".to_string()),
        None => state.config.budget_bytes,
    };
    let strategy: SearchStrategy = req.get_str("strategy").unwrap_or("").parse()?;
    let snapshot = tenant.lock_monitor().snapshot().for_collection(&coll_name);
    if snapshot.is_empty() {
        return Err(format!(
            "no captured statements for collection '{coll_name}' (run queries first)"
        ));
    }
    let workload = snapshot.to_workload().map_err(|e| e.to_string())?;
    let budget_ms = match req.get_f64("budget_ms") {
        Some(ms) if ms <= 0.0 => return Err("budget_ms must be positive".to_string()),
        other => other,
    };

    // A wall budget opts into the compressed anytime pipeline, which
    // answers best-so-far plus convergence telemetry; without one the
    // named strategy searches to completion. Either way the response is
    // the recommendation's index set and search outcome.
    let db = tenant.read_db();
    let coll = db
        .collection(&coll_name)
        .ok_or_else(|| format!("no collection '{coll_name}'"))?;
    let (indexes, outcome, strategy_label, anytime) = match budget_ms {
        None => {
            let rec = state
                .advisor
                .recommend(coll, &workload, budget_bytes, strategy);
            (rec.indexes, rec.outcome, strategy.to_string(), Vec::new())
        }
        Some(ms) => {
            let budget = AnytimeBudget::wall_millis(ms as u64);
            let rec =
                state
                    .advisor
                    .recommend_compressed(coll, &workload, budget_bytes, &budget, 0, &[]);
            let t = &rec.telemetry;
            let anytime = vec![
                ("budget_ms", Value::num(ms)),
                ("templates", Value::num(rec.templates as f64)),
                ("raw_queries", Value::num(rec.raw_queries as f64)),
                ("error_bound", Value::num(rec.error_bound)),
                ("exhausted", Value::Bool(t.exhausted)),
                ("iterations", Value::num(t.iterations as f64)),
                ("evals", Value::num(t.evals as f64)),
            ];
            (rec.indexes, rec.outcome, "anytime".to_string(), anytime)
        }
    };

    let ddl = indexes.iter().map(|d| Value::str(d.ddl(&coll_name)));
    let mut fields = vec![
        ("collection", Value::str(&coll_name)),
        ("statements", Value::num(snapshot.len() as f64)),
        ("ddl", Value::Arr(ddl.collect())),
        ("improvement_pct", Value::num(outcome.improvement_pct())),
        ("base_cost", Value::num(outcome.base_cost)),
        ("workload_cost", Value::num(outcome.workload_cost)),
        ("size_kib", Value::num((outcome.size_bytes / 1024) as f64)),
        ("strategy", Value::str(strategy_label)),
        ("budget_kib", Value::num((budget_bytes >> 10) as f64)),
    ];
    fields.extend(anytime);
    fields.push(("eval", Value::str(outcome.stats.render())));
    fields.push(("workload_text", Value::str(workload.to_file_format())));
    Ok(Value::obj(fields))
}

pub(super) fn handle_advise(
    state: &ServerState,
    tenant: &Arc<TenantState>,
) -> Result<Value, String> {
    let report = state.force_cycle_on(tenant);
    Ok(Value::obj(vec![
        ("report", report.to_json()),
        ("text", Value::str(report.render())),
    ]))
}

pub(super) fn handle_workload_dump(tenant: &TenantState, req: &Value) -> Result<Value, String> {
    let snapshot = tenant.lock_monitor().snapshot();
    let snapshot = match req.get_str("collection") {
        Some(name) => snapshot.for_collection(name),
        None => snapshot,
    };
    let workload_text = snapshot
        .to_workload()
        .map(|w| w.to_file_format())
        .unwrap_or_default();
    let entries: Vec<Value> = snapshot
        .entries
        .iter()
        .map(|e| {
            Value::obj(vec![
                ("text", Value::str(&e.text)),
                ("collection", Value::str(&e.collection)),
                ("weight", Value::num(e.weight)),
                ("hits", Value::num(e.hits as f64)),
            ])
        })
        .collect();
    Ok(Value::obj(vec![
        ("statements", Value::num(snapshot.len() as f64)),
        ("taken_at", Value::num(snapshot.taken_at)),
        ("workload_text", Value::str(workload_text)),
        ("entries", Value::Arr(entries)),
    ]))
}
