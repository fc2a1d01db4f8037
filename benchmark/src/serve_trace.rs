//! The traced run of a daemon workload: one set-up, then three passes
//! over the same seeded sample of ops.
//!
//! 1. **Handler** — in-process through the daemon's own `handle_line`:
//!    the whole op without the socket.
//! 2. **Wire** — through `Client`: client percentiles, the PING floor,
//!    the daemon's STATS counters, two ADVISE cycles.
//! 3. **Replica** — in-process through the public functions
//!    `handle_query` and `handle_insert` call, one span around each
//!    call, on a collection built the way set-up built the daemon's.
//!
//! The spans come from this file, around the calls into each layer;
//! spans inside the daemon are a later change (ROADMAP item 1). Until
//! then `trace.stage_sum_share` says how much of pass 1 the stages of
//! pass 3 account for.

use crate::pools::COLLECTION;
use crate::report::{Layers, RunResult};
use crate::serve::{insert_request, query_request, Inputs, Live, Op, Spec, Stop, WARMUP_TEXTS};
use crate::stats;
use crate::trace::Tracer;
use crate::Run;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xia::optimizer::{choose_mode, AccessPath, ExecStats, Plan};
use xia::prelude::*;
use xia::server::server::handle_line;
use xia::server::{json, Value};

const PINGS: usize = 500;

/// The label the daemon's replies carry for a plan, in lower case.
fn plan_shape(plan: &Plan) -> &'static str {
    match &plan.access {
        AccessPath::DocScan => "xscan",
        AccessPath::IndexOnly { .. } => "xiscan-only",
        AccessPath::IndexOr { .. } => "ixor",
        AccessPath::IndexAccess { legs } if legs.len() > 1 => "ixand",
        AccessPath::IndexAccess { .. } => "xiscan",
    }
}

fn request_line(op: Op, inputs: &Inputs) -> String {
    match op {
        Op::Query(i) => query_request(&inputs.pool[i]).to_string(),
        Op::Insert(i) => insert_request(&inputs.bodies[i]).to_string(),
    }
}

fn since_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Pass 1. Returns the median in-process QUERY time: request line in,
/// response line out.
fn handler_pass(live: &Live, inputs: &Inputs, ops: &[Op], layers: &mut Layers) -> f64 {
    let state = live.server.state();
    let mut query_us = Vec::new();
    for &op in ops {
        let line = request_line(op, inputs);
        let started = Instant::now();
        let response = handle_line(state, &line);
        let payload = format!("{response}\n");
        let us = since_us(started);
        assert_eq!(
            response.get_bool("ok"),
            Some(true),
            "handle_line: {payload}"
        );
        if matches!(op, Op::Query(_)) {
            query_us.push(us);
        }
    }
    let median = stats::median(query_us);
    layers.set("server.handle_line_us", median);
    median
}

/// Pass 2. Returns (ops attempted, ops failed).
fn wire_pass(
    spec: &Spec,
    run: &Run,
    inputs: &Inputs,
    live: &mut Live,
    layers: &mut Layers,
) -> (u64, u64) {
    let log = crate::serve::window(spec, run.seed, inputs, live, Stop::AfterOps(spec.trace_ops));
    let mut wire: Vec<f64> = log.queries.iter().map(|s| s.us).collect();
    stats::sort(&mut wire);
    layers.set("client.p50_us", stats::percentile(&wire, 0.50));
    layers.set("client.p99_us", stats::percentile(&wire, 0.99));
    layers.set("client.max_us", wire.last().copied().unwrap_or(0.0));
    layers.set(
        "client.insert_p50_us",
        stats::median(log.inserts.iter().map(|s| s.us).collect()),
    );

    let client = &mut live.clients[0];
    let pings = (0..PINGS)
        .map(|_| {
            let sent = Instant::now();
            let pong = client.command("ping").expect("ping");
            assert_eq!(pong.get_bool("ok"), Some(true));
            since_us(sent)
        })
        .collect();
    layers.set("server.ping_rtt_us", stats::median(pings));
    if spec.durable {
        // Two cycles back to back: the first prices the captured
        // workload cold, the second finds it unchanged and reuses the
        // first — the incremental path the offline call does not take.
        for name in ["server.advise_cold_ms", "server.advise_reused_ms"] {
            let sent = Instant::now();
            let resp = client.command("advise").expect("advise");
            assert_eq!(resp.get_bool("ok"), Some(true), "advise: {resp}");
            layers.set(name, since_us(sent) / 1e3);
        }
    }
    let committed = |client: &mut Client| {
        let reply = client.command("stats").expect("stats");
        let committer = reply.get("concurrency").and_then(|c| c.get("committer"));
        let stat = |key| committer.and_then(|c| c.get_f64(key)).unwrap_or(0.0);
        let batches = stat("batches_committed");
        (batches, batches * stat("mean_batch_ops"))
    };
    let (mut attempted, mut failed) = (log.attempted, log.failed);
    if spec.durable {
        // The end-to-end run has one caller, so its commits are batches
        // of one. Two callers at once, here, are what lets the committer
        // gather more than one insert behind an fsync.
        let (batches_before, ops_before) = committed(client);
        live.clients
            .push(Client::connect(live.server.addr()).expect("connect"));
        let two = crate::serve::window(
            spec,
            run.seed,
            inputs,
            live,
            Stop::AfterOps(spec.trace_ops / 2),
        );
        let (batches, ops) = committed(&mut live.clients[0]);
        layers.set(
            "server.commit_batch_ops",
            (ops - ops_before) / (batches - batches_before).max(1.0),
        );
        layers.set(
            "client.two_callers_p50_us",
            stats::median(two.queries.iter().map(|s| s.us).collect()),
        );
        attempted += two.attempted;
        failed += two.failed;
    }
    let reply = live.clients[0].command("stats").expect("stats");
    let stat = |path: &[&str]| {
        path.iter()
            .try_fold(&reply, |v, key| v.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    layers.set(
        "server.stats_query_p50_us",
        stat(&["metrics", "commands", "query", "p50_us"]),
    );
    layers.set(
        "server.commit_batches",
        stat(&["concurrency", "committer", "batches_committed"]),
    );
    layers.set(
        "server.snapshots_published",
        stat(&["concurrency", "snapshots_published"]),
    );
    layers.set("server.shed", stat(&["overload", "requests_shed"]));
    layers.set("server.busy", stat(&["overload", "conns_rejected"]));
    layers.set(
        "workload.monitor_evictions",
        stat(&["monitor", "evictions"]),
    );
    (attempted, failed)
}

/// What a restart and a checkpoint cost on the directory the daemon
/// left behind.
fn durability_costs(data_dir: &Path, layers: &mut Layers) {
    let started = Instant::now();
    let recovered = recover_database(&RealVfs, data_dir).expect("recover");
    layers.set("storage.recover_ms", since_us(started) / 1e3);
    let scratch = data_dir.with_extension("checkpoint");
    let started = Instant::now();
    checkpoint_database(&RealVfs, &recovered.database, &scratch).expect("checkpoint");
    layers.set("storage.checkpoint_ms", since_us(started) / 1e3);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// What pass 3 hands back besides the layer figures it sets.
struct Replica {
    tracer: Tracer,
    /// Sum of the QUERY stages' median self times, µs.
    stage_sum_us: f64,
    /// Ops seen per plan shape.
    shapes: BTreeMap<&'static str, usize>,
}

/// Pass 3.
fn replica_pass(
    spec: &Spec,
    run: &Run,
    inputs: &Inputs,
    ops: &[Op],
    layers: &mut Layers,
) -> Replica {
    let mut coll = spec.collection(run.seed);
    let indexes = spec.recommended_indexes(&coll, inputs);
    let started = Instant::now();
    for def in &indexes {
        coll.create_index(def.clone());
    }
    layers.set("index.build_ms", since_us(started) / 1e3);
    let index_bytes: usize = coll.indexes().iter().map(|ix| ix.byte_size()).sum();
    layers.set("index.bytes_total", index_bytes as f64);

    let wal_dir = run
        .out
        .join(format!("wal-{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut store = spec.durable.then(|| {
        DurableStore::open(&wal_dir, Arc::new(RealVfs))
            .expect("open WAL")
            .0
    });
    let mut monitor = WorkloadMonitor::new(MonitorConfig::default(), Arc::new(SystemClock::new()));
    let model = CostModel::default();
    // Warm the replica as far as the daemon was when pass 1 ran:
    // set-up's pass over the pool, then the sample's own queries once.
    let sample = ops.iter().filter_map(|op| match *op {
        Op::Query(i) => Some(&inputs.pool[i]),
        Op::Insert(_) => None,
    });
    for text in inputs.pool.iter().take(WARMUP_TEXTS).chain(sample) {
        let q = compile(text, COLLECTION).expect("compiles");
        execute(&coll, &q, &explain(&coll, &model, &q).plan).expect("executes");
    }

    let mut t = Tracer::new();
    let mut exec_by_shape: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut work = ExecStats::default();
    let (mut queries, mut navigational, mut inserts) = (0usize, 0usize, 0usize);
    for &op in ops {
        let line = request_line(op, inputs);
        t.next_op();
        match op {
            Op::Query(_) => {
                queries += 1;
                let whole = t.begin("op.query");
                let s = t.begin("server.json_parse");
                let req = json::parse(&line).expect("request parses");
                t.end(s);
                let s = t.begin("xquery.compile");
                let q = compile(req.get_str("q").expect("q"), COLLECTION).expect("compiles");
                t.end(s);
                let s = t.begin("optimizer.plan");
                let ex = explain(&coll, &model, &q);
                t.end(s);
                let exec = t.begin("optimizer.exec");
                let (rows, stats) = execute(&coll, &q, &ex.plan).expect("executes");
                t.end(exec);
                let s = t.begin("workload.observe");
                monitor.observe(&q);
                t.end(s);
                let s = t.begin("server.json_render");
                let payload = render_query_reply(&coll, &rows, &stats, plan_shape(&ex.plan));
                t.end(s);
                t.end(whole);
                std::hint::black_box(payload);

                let exec_us = t.spans()[exec as usize].dur_ns() as f64 / 1e3;
                exec_by_shape
                    .entry(plan_shape(&ex.plan))
                    .or_default()
                    .push(exec_us);
                work.docs_evaluated += stats.docs_evaluated;
                work.entries_scanned += stats.entries_scanned;
                work.pages_read += stats.pages_read;
                work.results += stats.results;
                navigational +=
                    (choose_mode(&coll, &q, &ex.plan) == ExecMode::Navigational) as usize;
            }
            Op::Insert(_) => {
                inserts += 1;
                let whole = t.begin("op.insert");
                let s = t.begin("server.json_parse");
                let req = json::parse(&line).expect("request parses");
                t.end(s);
                let xml = req.get_str("xml").expect("xml");
                let s = t.begin("xml.parse");
                let doc = Document::parse(xml).expect("body parses");
                t.end(s);
                if let Some(store) = &mut store {
                    let s = t.begin("storage.wal_append");
                    store
                        .append(&WalOp::Insert {
                            collection: COLLECTION.to_string(),
                            xml: xml.to_string(),
                        })
                        .expect("WAL append");
                    t.end(s);
                }
                let s = t.begin("storage.insert");
                coll.insert(doc);
                t.end(s);
                t.end(whole);
            }
        }
    }
    if let Some(store) = store {
        let wal = xia::storage::durable::wal_path(&wal_dir, store.generation());
        let bytes = std::fs::metadata(&wal).map_or(0, |m| m.len());
        layers.set(
            "storage.wal_bytes_per_insert",
            bytes as f64 / inserts.max(1) as f64,
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    let medians = t.median_self_us();
    let stage = |span: &str| medians.get(span).copied().unwrap_or(0.0);
    let mut stage_sum_us = 0.0;
    for (metric, span) in [
        ("server.json_parse_us", "server.json_parse"),
        ("xquery.compile_us", "xquery.compile"),
        ("optimizer.plan_us", "optimizer.plan"),
        ("optimizer.exec_us", "optimizer.exec"),
        ("workload.observe_us", "workload.observe"),
        ("server.json_render_us", "server.json_render"),
    ] {
        layers.set(metric, stage(span));
        stage_sum_us += stage(span);
    }
    layers.set("xml.parse_us", stage("xml.parse"));
    layers.set("storage.insert_us", stage("storage.insert"));
    layers.set("storage.wal_append_us", stage("storage.wal_append"));
    for (metric, shape) in [
        ("optimizer.exec_us.xscan", "xscan"),
        ("optimizer.exec_us.xiscan", "xiscan"),
        ("optimizer.exec_us.ixand", "ixand"),
        ("optimizer.exec_us.ixor", "ixor"),
        ("optimizer.exec_us.xiscan-only", "xiscan-only"),
    ] {
        let us = exec_by_shape.get(shape).cloned().unwrap_or_default();
        layers.set(metric, stats::median(us));
    }
    let per_query = |n: usize| n as f64 / queries.max(1) as f64;
    layers.set(
        "optimizer.docs_evaluated_per_op",
        per_query(work.docs_evaluated),
    );
    layers.set(
        "optimizer.entries_scanned_per_op",
        per_query(work.entries_scanned),
    );
    layers.set("optimizer.pages_read_per_op", per_query(work.pages_read));
    layers.set("optimizer.rows_per_op", per_query(work.results));
    if work.entries_scanned > 0 {
        layers.set(
            "optimizer.rows_per_entry",
            work.results as f64 / work.entries_scanned as f64,
        );
    }
    layers.set("optimizer.navigational_share", per_query(navigational));
    layers.set("workload.monitor_folds", monitor.folds() as f64);
    Replica {
        tracer: t,
        stage_sum_us,
        shapes: exec_by_shape.iter().map(|(k, v)| (*k, v.len())).collect(),
    }
}

/// The reply `handle_query` builds and `serve_connection` writes: five
/// sample rows and the counters, rendered to one line.
fn render_query_reply(
    coll: &Collection,
    rows: &[(DocId, xia::xml::NodeId)],
    stats: &ExecStats,
    shape: &str,
) -> String {
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
    let reply = Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("results", Value::num(rows.len() as f64)),
        ("sample", Value::Arr(sample)),
        ("plan", Value::str(shape.to_ascii_uppercase())),
        ("docs_evaluated", Value::num(stats.docs_evaluated as f64)),
        ("entries_scanned", Value::num(stats.entries_scanned as f64)),
        ("pages_read", Value::num(stats.pages_read as f64)),
        ("elapsed_ms", Value::num(0.25)),
    ]);
    format!("{reply}\n")
}

pub fn run(spec: &Spec, run: &Run) -> RunResult {
    let inputs = Inputs::generate(spec, run.seed);
    let mut live = crate::serve::setup(spec, run.seed, &inputs, &run.out, 0);
    let mut layers = Layers::default();
    let ops: Vec<Op> = {
        let mut stream = spec.stream(run.seed, &inputs, 0);
        (0..spec.trace_ops).map(|_| stream.next_op()).collect()
    };

    let handle_line_us = handler_pass(&live, &inputs, &ops, &mut layers);
    let (wire_attempted, wire_failed) = wire_pass(spec, run, &inputs, &mut live, &mut layers);
    if let Some(dir) = live.stop() {
        durability_costs(&dir, &mut layers);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let replica = replica_pass(spec, run, &inputs, &ops, &mut layers);

    layers.set(
        "optimizer.exec_share",
        layers.get("optimizer.exec_us") / handle_line_us,
    );
    layers.set(
        "trace.stage_sum_share",
        replica.stage_sum_us / handle_line_us,
    );
    // What the wire adds that neither the PING floor nor any stage
    // explains: ROADMAP's "missing" time.
    layers.set(
        "server.unattributed_us",
        layers.get("client.p50_us") - layers.get("server.ping_rtt_us") - replica.stage_sum_us,
    );
    layers.set("trace.span_cost_ns", crate::trace::span_cost_ns());

    let trace_file = run.out.join(format!("trace-{}.jsonl", spec.name));
    replica
        .tracer
        .write_jsonl(&trace_file)
        .expect("write trace");
    let shapes = replica
        .shapes
        .iter()
        .map(|(shape, n)| (shape.to_string(), Value::num(*n as f64)))
        .collect();
    crate::traced_result(
        spec.name,
        &layers,
        wire_attempted + 2 * ops.len() as u64,
        wire_failed,
        vec![
            ("trace_file", Value::str(trace_file.display().to_string())),
            ("spans", Value::num(replica.tracer.spans().len() as f64)),
            ("replayed_ops", Value::num(ops.len() as f64)),
            ("plan_shapes", Value::Obj(shapes)),
        ],
    )
}
