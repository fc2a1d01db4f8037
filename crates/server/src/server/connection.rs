//! One connection, one request: framing over the injected transport,
//! [`handle_line`] (parse → shed → resolve tenant → guard → dispatch →
//! envelope), the per-request deadline and panic guards, and the
//! command dispatch table.

use super::{admin, advisor, read, write, ServerState};
use crate::admission::Busy;
#[cfg(feature = "testing")]
use crate::committer::WriteCmd;
use crate::json::{self, Value};
use crate::metrics::Command;
use crate::tenant::TenantState;
use crate::transport::{read_frame, Frame, Transport};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a connection ended, for the accounting partition
/// `conns_accepted == conns_rejected + conns_served + conns_faulted`.
pub(super) enum ConnEnd {
    /// Clean: EOF between frames, or shutdown while idle.
    Served,
    /// Transport error, mid-frame disconnect, oversized frame, or a
    /// failed response write.
    Faulted,
}

/// Serve one connection: one JSON request per line, one JSON response
/// per line, until EOF, a transport fault, or shutdown. All socket I/O
/// goes through the injected [`Transport`], so chaos tests can fault
/// any byte in either direction.
pub(super) fn serve_connection(
    state: &Arc<ServerState>,
    mut transport: Box<dyn Transport>,
) -> ConnEnd {
    let _ = transport.set_read_timeout(Some(Duration::from_millis(200)));
    let max_frame = state.admission.config().max_frame_bytes;
    let mut buf = Vec::new();
    loop {
        match read_frame(transport.as_mut(), &mut buf, max_frame) {
            Frame::Line(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let response = handle_line(state, line);
                let payload = format!("{response}\n");
                if transport.write_all(payload.as_bytes()).is_err() || transport.flush().is_err() {
                    return ConnEnd::Faulted;
                }
                if state.is_shutdown() {
                    return ConnEnd::Served;
                }
            }
            // Read timeout: partial bytes stay in `buf` and the next
            // read continues the same frame; poll the shutdown flag so
            // the pool drains even under idle connections. Idle is also
            // when this worker ages out any thread-cached snapshot pin
            // a newer publish has superseded.
            Frame::Timeout => {
                state.release_stale_snapshots();
                if state.is_shutdown() {
                    return ConnEnd::Served;
                }
            }
            Frame::Eof { mid_frame } => {
                return if mid_frame {
                    ConnEnd::Faulted
                } else {
                    ConnEnd::Served
                };
            }
            Frame::Oversized => {
                state
                    .metrics
                    .overload
                    .frames_oversized
                    .fetch_add(1, Ordering::Relaxed);
                let response = error_response(
                    Command::Unknown,
                    &format!("frame exceeds max_frame_bytes ({max_frame}); closing connection"),
                );
                let _ = transport.write_all(format!("{response}\n").as_bytes());
                let _ = transport.flush();
                return ConnEnd::Faulted;
            }
            Frame::Error(_) => return ConnEnd::Faulted,
        }
    }
}

/// Parse and dispatch one request line; always returns a response value.
pub fn handle_line(state: &Arc<ServerState>, line: &str) -> Value {
    let req = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            state
                .metrics
                .overload
                .frames_malformed
                .fetch_add(1, Ordering::Relaxed);
            state.metrics.begin(Command::Unknown);
            state.metrics.finish(Command::Unknown, 0, false);
            return error_response(Command::Unknown, &format!("bad request: {e}"));
        }
    };
    let cmd = Command::parse(req.get_str("cmd").unwrap_or(""));
    state.metrics.begin(cmd);
    // Brownout: under pressure, shed by tier before doing any work.
    if let Some(busy) = state.admission.shed(cmd) {
        state.metrics.finish(cmd, 0, false);
        return busy_response(cmd.label(), &busy);
    }
    // Namespace resolution, then the per-tenant saturation check: one
    // noisy tenant sheds its own overflow instead of starving the rest.
    let tenant = match state.resolve_tenant(&req) {
        Ok(t) => t,
        Err(message) => {
            state.metrics.finish(cmd, 0, false);
            return error_response(cmd, &message);
        }
    };
    if let Some(busy) = state.tenant_shed(&tenant, cmd) {
        state.metrics.finish(cmd, 0, false);
        return busy_response(cmd.label(), &busy);
    }
    let o = &state.metrics.overload;
    o.in_flight.fetch_add(1, Ordering::Relaxed);
    tenant.in_flight.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let result = dispatch_guarded(state, &tenant, cmd, &req);
    let latency_us = start.elapsed().as_micros() as u64;
    tenant.in_flight.fetch_sub(1, Ordering::Relaxed);
    o.in_flight.fetch_sub(1, Ordering::Relaxed);
    match result {
        Ok(Value::Obj(mut fields)) => {
            state.metrics.finish(cmd, latency_us, true);
            fields.insert(0, ("ok".to_string(), Value::Bool(true)));
            Value::Obj(fields)
        }
        Ok(other) => {
            state.metrics.finish(cmd, latency_us, true);
            Value::obj(vec![("ok", Value::Bool(true)), ("result", other)])
        }
        Err(message) => {
            state.metrics.finish(cmd, latency_us, false);
            error_response(cmd, &message)
        }
    }
}

fn error_response(cmd: Command, message: &str) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("cmd", Value::str(cmd.label())),
        ("error", Value::str(message)),
    ])
}

/// A `BUSY` answer: `busy:true` plus a `retry_after_ms` backoff hint,
/// sent for rejected connections (`cmd:"connect"`) and shed requests.
pub(super) fn busy_response(cmd_label: &str, busy: &Busy) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("busy", Value::Bool(true)),
        ("cmd", Value::str(cmd_label)),
        ("error", Value::str(&busy.reason)),
        ("retry_after_ms", Value::num(busy.retry_after_ms as f64)),
    ])
}

/// Commands that go through the committer queue. Their deadline is
/// enforced by bounding the wait for the commit acknowledgement, so it
/// covers time spent *queued* behind a slow group commit — not by the
/// spawn-a-thread guard used for abandonable read/compute requests.
fn is_write(cmd: Command) -> bool {
    matches!(
        cmd,
        Command::Insert | Command::CreateIndex | Command::DropIndex
    )
}

/// Dispatch with the self-healing guards: a per-request deadline (when
/// configured) and a panic trap, so one bad request costs one error
/// response — never a dead worker or a poisoned pool.
fn dispatch_guarded(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    cmd: Command,
    req: &Value,
) -> Result<Value, String> {
    let Some(budget) = state.config.request_deadline else {
        return dispatch_caught(state, tenant, cmd, req, None);
    };
    // SHUTDOWN must not race its own deadline; it is instant anyway.
    if cmd == Command::Shutdown {
        return dispatch_caught(state, tenant, cmd, req, None);
    }
    let deadline = Instant::now() + budget;
    if is_write(cmd) {
        return dispatch_caught(state, tenant, cmd, req, Some(deadline));
    }
    let (tx, rx) = mpsc::channel();
    let worker = {
        let state = state.clone();
        let tenant = tenant.clone();
        let req = req.clone();
        std::thread::Builder::new()
            .name("xia-request".to_string())
            .spawn(move || {
                let _ = tx.send(dispatch_caught(&state, &tenant, cmd, &req, None));
            })
    };
    if worker.is_err() {
        // Could not spawn (resource exhaustion): run inline, unbounded.
        return dispatch_caught(state, tenant, cmd, req, None);
    }
    match rx.recv_timeout(budget) {
        Ok(result) => result,
        Err(_) => {
            state
                .metrics
                .health
                .timeouts
                .fetch_add(1, Ordering::Relaxed);
            Err(format!(
                "TIMEOUT: request exceeded the {}ms deadline and was abandoned",
                budget.as_millis()
            ))
        }
    }
}

/// Run the real dispatch under `catch_unwind`: a handler panic becomes
/// an error response for that client while the worker keeps serving.
/// Published snapshots are immutable, so a panicking handler can never
/// leave shared state half-mutated; the few remaining mutexes are
/// healed by the recovery helpers on their next acquisition.
fn dispatch_caught(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    cmd: Command,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| {
        dispatch(state, tenant, cmd, req, deadline)
    })) {
        Ok(result) => result,
        Err(payload) => {
            state
                .metrics
                .health
                .panics_caught
                .fetch_add(1, Ordering::Relaxed);
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(format!("internal error: handler panicked: {what}"))
        }
    }
}

fn dispatch(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    cmd: Command,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    match cmd {
        Command::Ping => Ok(Value::obj(vec![("pong", Value::Bool(true))])),
        Command::Query => read::handle_query(state, tenant, req),
        Command::Explain => read::handle_explain(state, tenant, req),
        Command::Profile => read::handle_profile(state, tenant, req),
        Command::CreateIndex => write::handle_create_index(state, tenant, req, deadline),
        Command::DropIndex => write::handle_drop_index(state, tenant, req, deadline),
        Command::Insert => write::handle_insert(state, tenant, req, deadline),
        Command::Recommend => advisor::handle_recommend(state, tenant, req),
        Command::Advise => advisor::handle_advise(state, tenant),
        Command::WorkloadDump => advisor::handle_workload_dump(tenant, req),
        Command::Tenant => admin::handle_tenant(state, req),
        Command::Stats => admin::handle_stats(state),
        Command::Shutdown => {
            state.request_shutdown();
            Ok(Value::obj(vec![("stopping", Value::Bool(true))]))
        }
        Command::Unknown => {
            // Fault-injection commands for the self-healing tests; the
            // `testing` feature never ships in a default build.
            #[cfg(feature = "testing")]
            match req.get_str("cmd").unwrap_or("") {
                "panic" => panic!("injected panic (testing feature)"),
                "panic_locked" => {
                    // Panic *inside the committer*, mid-apply: the
                    // nastiest write-path case. The committer catches it
                    // per-op, rebuilds its staged clone, and keeps
                    // committing the rest of the batch; readers never
                    // see a half-applied snapshot.
                    return write::submit_write(state, tenant, WriteCmd::Panic, deadline)
                        .map(|_| unreachable!("Panic op never acknowledges"));
                }
                "kill_committer" => {
                    // Take the whole committer thread down; the next
                    // write respawns it (supervisor path).
                    let _ = tenant.committer.submit(WriteCmd::Kill, None);
                    return Ok(Value::obj(vec![("killed", Value::Bool(true))]));
                }
                "sleep" => {
                    let ms = req.get_f64("ms").unwrap_or(50.0).max(0.0);
                    std::thread::sleep(Duration::from_millis(ms as u64));
                    return Ok(Value::obj(vec![("slept_ms", Value::num(ms))]));
                }
                _ => {}
            }
            Err(format!(
                "unknown command {:?} (try ping, query, explain, profile, insert, \
                 create_index, drop_index, recommend, advise, workload, tenant, stats, shutdown)",
                req.get_str("cmd").unwrap_or("")
            ))
        }
    }
}

/// The collection a request addresses: its `collection` field, or the
/// tenant's only collection.
pub(super) fn target_collection(tenant: &TenantState, req: &Value) -> Result<String, String> {
    if let Some(name) = req.get_str("collection") {
        return Ok(name.to_string());
    }
    let db = tenant.read_db();
    let mut names = db.collections().map(|c| c.name().to_string());
    match (names.next(), names.next()) {
        (Some(only), None) => Ok(only),
        (None, _) => Err("database has no collections".to_string()),
        (Some(_), Some(_)) => Err("multiple collections; pass a 'collection' field".to_string()),
    }
}
