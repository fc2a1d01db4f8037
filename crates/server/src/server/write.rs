//! The write commands — INSERT, CREATE-INDEX, DROP-INDEX. Each builds a
//! [`WriteCmd`], queues it to the tenant's committer and answers with
//! the outcome plus the `generation` / `commit_seq` of its group commit.

use super::connection::target_collection;
use super::ServerState;
use crate::committer::{self, Committed, WriteCmd, WriteOutcome};
use crate::json::Value;
use crate::tenant::TenantState;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use xia_index::DataType;
use xia_xpath::LinearPath;

/// Submit a write to a tenant's committer and wait for its group
/// commit, bounded by `deadline` (which thereby covers time spent
/// *queued*, not just executing). A timed-out write is abandoned: it
/// may still commit in the background, but the client gets a clean
/// TIMEOUT.
pub(super) fn submit_write(
    state: &ServerState,
    tenant: &TenantState,
    cmd: WriteCmd,
    deadline: Option<Instant>,
) -> Result<Committed, String> {
    let rx = tenant.committer.submit(cmd, deadline)?;
    match committer::wait_with_deadline(&rx, deadline) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            state
                .metrics
                .health
                .timeouts
                .fetch_add(1, Ordering::Relaxed);
            let budget_ms = state
                .config
                .request_deadline
                .map(|d| d.as_millis())
                .unwrap_or_default();
            Err(format!(
                "TIMEOUT: write still queued or committing at the {budget_ms}ms deadline \
                 and was abandoned (it may still commit)"
            ))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Err("committer dropped the write while recovering; retry".to_string())
        }
    }
}

/// Commit `cmd` and answer with the fields `describe` extracts from its
/// outcome, followed by the commit's `generation` and `commit_seq`.
/// `describe` returns `None` for an outcome that does not belong to the
/// command — a committer bug, reported rather than papered over.
fn commit(
    state: &ServerState,
    tenant: &TenantState,
    cmd: WriteCmd,
    deadline: Option<Instant>,
    describe: impl FnOnce(&WriteOutcome) -> Option<Vec<(&'static str, Value)>>,
) -> Result<Value, String> {
    let committed = submit_write(state, tenant, cmd, deadline)?;
    let mut fields = describe(&committed.outcome).ok_or_else(|| {
        format!(
            "committer returned mismatched outcome {:?}",
            committed.outcome
        )
    })?;
    fields.push(("generation", Value::num(committed.generation as f64)));
    fields.push(("commit_seq", Value::num(committed.commit_seq as f64)));
    Ok(Value::obj(fields))
}

fn parse_data_type(s: &str) -> Result<DataType, String> {
    let upper = s.to_ascii_uppercase();
    // Accept the DDL spelling VARCHAR(64) as well as the bare name.
    if upper == "DOUBLE" {
        Ok(DataType::Double)
    } else if upper == "VARCHAR" || upper.starts_with("VARCHAR(") {
        Ok(DataType::Varchar)
    } else {
        Err(format!("unknown index type '{s}' (VARCHAR | DOUBLE)"))
    }
}

pub(super) fn handle_create_index(
    state: &ServerState,
    tenant: &TenantState,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let pattern_text = req.get_str("pattern").ok_or("missing field 'pattern'")?;
    let data_type = parse_data_type(req.get_str("type").unwrap_or("VARCHAR"))?;
    let collection = target_collection(tenant, req)?;
    let pattern = LinearPath::parse(pattern_text).map_err(|e| e.to_string())?;
    let cmd = WriteCmd::CreateIndex {
        collection,
        data_type,
        pattern,
        skip_if_exists: false,
    };
    commit(state, tenant, cmd, deadline, |outcome| match outcome {
        WriteOutcome::IndexCreated { id, entries, ddl } => Some(vec![
            ("id", Value::num(*id as f64)),
            ("entries", Value::num(*entries as f64)),
            ("ddl", Value::str(ddl)),
        ]),
        _ => None,
    })
}

pub(super) fn handle_drop_index(
    state: &ServerState,
    tenant: &TenantState,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let id = req.get_f64("id").ok_or("missing field 'id'")? as u32;
    let collection = target_collection(tenant, req)?;
    let cmd = WriteCmd::DropIndex { collection, id };
    commit(state, tenant, cmd, deadline, |outcome| match outcome {
        WriteOutcome::IndexDropped { id } => Some(vec![("dropped", Value::num(*id as f64))]),
        _ => None,
    })
}

pub(super) fn handle_insert(
    state: &ServerState,
    tenant: &TenantState,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let xml = req.get_str("xml").ok_or("missing field 'xml'")?;
    let collection = target_collection(tenant, req)?;
    // Parse on the worker thread — many clients parse in parallel while
    // the committer only stages and indexes the pre-built documents.
    let doc = xia_xml::Document::parse(xml).map_err(|e| e.to_string())?;
    let cmd = WriteCmd::Insert {
        collection,
        doc: Arc::new(doc),
        xml: xml.to_string(),
    };
    commit(state, tenant, cmd, deadline, |outcome| match outcome {
        WriteOutcome::Inserted {
            doc,
            index_entries_touched,
        } => Some(vec![
            ("doc", Value::num(*doc as f64)),
            (
                "index_entries_touched",
                Value::num(*index_entries_touched as f64),
            ),
        ]),
        _ => None,
    })
}
