//! T12 — daemon throughput and latency under the snapshot read path.
//!
//! Client-count sweep against the in-process daemon, measuring what the
//! lock-free read path and group-commit write path actually buy:
//!
//! * **QUERY sweep** (1/2/4/8 clients): aggregate throughput plus
//!   client-side p50/p99 round-trip latency. Readers never take a lock,
//!   so throughput should track `min(clients, cores)` — on a one-core
//!   box the curve is flat and that is the honest result, so the report
//!   records `cores` next to the ratios.
//! * **INSERT burst** (1 vs 8 writers, durability on): group commit
//!   batches concurrent writes into one WAL fsync + one snapshot
//!   publish, so write throughput scales with writers even on one core
//!   (the fsync is amortized). The daemon's own batch-size histogram
//!   (STATS → concurrency.committer) is captured as evidence.
//! * **ADVISE under load**: one online advisor cycle while a background
//!   client streams queries — the cycle prices against a frozen
//!   snapshot and must not starve readers.
//!
//! Results append to `BENCH_serve.json` at the repo root (machine
//! readable, one entry per run) so the perf trajectory survives; the
//! file's `baseline_rwlock` field keeps the pre-snapshot RwLock
//! baseline it is compared against.
//!
//! ```text
//! cargo run -p xia-bench --bin exp_serve --release
//! ```

use std::sync::Arc;
use std::time::Instant;
use xia::prelude::*;
use xia::server::Value;
use xia_bench::{nproc, percentile, render_table, standard_queries, xmark_collection};

/// Requests per client in the QUERY sweep. High enough that connect and
/// warmup costs wash out of the 1-client row.
const QUERY_ROUNDS: usize = 300;
/// Inserts per writer in the INSERT burst.
const INSERT_ROUNDS: usize = 120;
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Server p50 of the pre-snapshot RwLock<Database> read path, 1 client
/// (`baseline_rwlock` in `BENCH_serve.json`).
const BASELINE_1C_P50_US: f64 = 256.0;

fn start_daemon(threads: usize, durability: Option<DurabilityConfig>) -> Server {
    let mut db = Database::new();
    db.add_collection(xmark_collection(80));
    Server::start(
        db,
        ServerConfig {
            threads,
            budget_bytes: 512 << 10,
            clock: Arc::new(FakeClock::new()),
            durability,
            ..Default::default()
        },
    )
    .expect("daemon starts")
}

struct SweepPoint {
    clients: usize,
    requests: u64,
    req_per_s: f64,
    p50_us: u64,
    p99_us: u64,
    mean_us: f64,
    server_p50_us: f64,
}

/// Run `clients` concurrent query clients; returns aggregate throughput
/// and the merged client-side latency distribution.
fn query_sweep(clients: usize) -> SweepPoint {
    let threads = std::env::var("XIA_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| clients.max(4));
    let server = start_daemon(threads, None);
    let addr = server.addr();
    let queries: Vec<String> = standard_queries();
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|who| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut lat_us = Vec::with_capacity(QUERY_ROUNDS);
                for round in 0..QUERY_ROUNDS {
                    let q = &queries[(who + round) % queries.len()];
                    let t = Instant::now();
                    let resp = c.query(q, None).expect("query");
                    lat_us.push(t.elapsed().as_micros() as u64);
                    assert_eq!(resp.get_bool("ok"), Some(true), "{resp}");
                }
                lat_us
            })
        })
        .collect();
    let mut lat_us: Vec<u64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client"))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    lat_us.sort_unstable();

    let mut c = Client::connect(addr).expect("stats connect");
    let resp = c.command("stats").expect("stats");
    let server_p50_us = resp
        .get("metrics")
        .and_then(|m| m.get("commands"))
        .and_then(|m| m.get("query"))
        .and_then(|q| q.get_f64("p50_us"))
        .unwrap_or(0.0);
    drop(c);
    server.stop();

    let requests = lat_us.len() as u64;
    SweepPoint {
        clients,
        requests,
        req_per_s: requests as f64 / secs,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        mean_us: lat_us.iter().sum::<u64>() as f64 / requests.max(1) as f64,
        server_p50_us,
    }
}

struct BurstPoint {
    writers: usize,
    req_per_s: f64,
    p50_us: u64,
    p99_us: u64,
    mean_batch_ops: f64,
    batches: f64,
    /// The daemon's `batch_size_hist` object, verbatim.
    batch_hist: Value,
}

/// Concurrent INSERTs with durability on: every acked write is fsynced,
/// so the only way 8 writers beat 1 is the committer batching them.
fn insert_burst(writers: usize) -> BurstPoint {
    let dir = std::env::temp_dir().join(format!("xia_exp_serve_{}_{writers}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = start_daemon(writers.max(4), Some(DurabilityConfig::at(&dir)));
    let addr = server.addr();
    let start = Instant::now();
    let handles: Vec<_> = (0..writers)
        .map(|who| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut lat_us = Vec::with_capacity(INSERT_ROUNDS);
                for i in 0..INSERT_ROUNDS {
                    let req = Value::obj(vec![
                        ("cmd", Value::str("insert")),
                        (
                            "xml",
                            Value::str(format!(
                                "<r><item id=\"w{who}i{i}\"><price>{i}</price></item></r>"
                            )),
                        ),
                    ]);
                    let t = Instant::now();
                    let resp = c.call(&req).expect("insert");
                    lat_us.push(t.elapsed().as_micros() as u64);
                    assert_eq!(resp.get_bool("ok"), Some(true), "{resp}");
                }
                lat_us
            })
        })
        .collect();
    let mut lat_us: Vec<u64> = handles
        .into_iter()
        .flat_map(|w| w.join().expect("writer"))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    lat_us.sort_unstable();

    let mut c = Client::connect(addr).expect("stats connect");
    let resp = c.command("stats").expect("stats");
    let committer = resp
        .get("concurrency")
        .and_then(|c| c.get("committer"))
        .cloned()
        .unwrap_or(Value::Null);
    drop(c);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    BurstPoint {
        writers,
        req_per_s: lat_us.len() as f64 / secs,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        mean_batch_ops: committer.get_f64("mean_batch_ops").unwrap_or(0.0),
        batches: committer.get_f64("batches_committed").unwrap_or(0.0),
        batch_hist: committer
            .get("batch_size_hist")
            .cloned()
            .unwrap_or(Value::Null),
    }
}

/// One online advisor cycle while a background client streams queries.
fn advise_under_load() -> (f64, u64) {
    let server = start_daemon(4, None);
    let addr = server.addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let bg = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("bg connect");
            let queries = standard_queries();
            let mut done = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let q = &queries[done as usize % queries.len()];
                assert_eq!(
                    c.query(q, None).expect("bg query").get_bool("ok"),
                    Some(true)
                );
                done += 1;
            }
            done
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut c = Client::connect(addr).expect("advise connect");
    let start = Instant::now();
    let resp = c.command("advise").expect("advise");
    let cycle_secs = start.elapsed().as_secs_f64();
    assert_eq!(resp.get_bool("ok"), Some(true), "{resp}");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let bg_requests = bg.join().expect("background client");
    drop(c);
    server.stop();
    (cycle_secs * 1e3, bg_requests)
}

fn main() {
    let cores = nproc();

    // --- QUERY sweep. -----------------------------------------------------
    let points: Vec<SweepPoint> = CLIENT_COUNTS.iter().map(|&c| query_sweep(c)).collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.clients.to_string(),
                p.requests.to_string(),
                format!("{:.0}", p.req_per_s),
                format!("{}", p.p50_us),
                format!("{}", p.p99_us),
                format!("{:.0}", p.server_p50_us),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("T12: QUERY sweep, snapshot read path ({cores} core(s), XMark-80)"),
            &[
                "clients",
                "requests",
                "req/s",
                "p50 µs",
                "p99 µs",
                "srv p50 µs",
            ],
            &rows,
        )
    );
    let one = &points[0];
    let eight = &points[points.len() - 1];
    let scaling = eight.req_per_s / one.req_per_s;
    println!(
        "8-client / 1-client throughput: {scaling:.2}× (ideal on this box: {:.0}×); \
         1-client server p50 {:.0} µs vs {BASELINE_1C_P50_US:.0} µs RwLock baseline",
        CLIENT_COUNTS[CLIENT_COUNTS.len() - 1].min(cores) as f64,
        one.server_p50_us,
    );

    // --- INSERT burst (group commit). -------------------------------------
    let bursts: Vec<BurstPoint> = [1usize, 8].iter().map(|&w| insert_burst(w)).collect();
    let rows: Vec<Vec<String>> = bursts
        .iter()
        .map(|b| {
            vec![
                b.writers.to_string(),
                format!("{:.0}", b.req_per_s),
                format!("{}", b.p50_us),
                format!("{}", b.p99_us),
                format!("{:.0}", b.batches),
                format!("{:.1}", b.mean_batch_ops),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "T12: INSERT burst, group commit (durability on, 1 fsync per batch)",
            &[
                "writers",
                "req/s",
                "p50 µs",
                "p99 µs",
                "batches",
                "ops/batch",
            ],
            &rows,
        )
    );
    println!(
        "8-writer / 1-writer insert throughput: {:.2}× (fsync amortized across {:.1}-op batches); \
         batch histogram: {}",
        bursts[1].req_per_s / bursts[0].req_per_s,
        bursts[1].mean_batch_ops,
        bursts[1].batch_hist,
    );

    // --- ADVISE under load. -----------------------------------------------
    let (cycle_ms, bg_requests) = advise_under_load();
    println!(
        "\nonline advisor cycle under load: {cycle_ms:.1} ms, \
         {bg_requests} concurrent queries kept flowing"
    );

    // --- Machine-readable trajectory. --------------------------------------
    let run = vec![
        ("rounds_per_client", Value::num(QUERY_ROUNDS as f64)),
        (
            "query_sweep",
            Value::Arr(
                points
                    .iter()
                    .map(|p| {
                        Value::obj(vec![
                            ("clients", Value::num(p.clients as f64)),
                            ("req_per_s", Value::num(p.req_per_s)),
                            ("p50_us", Value::num(p.p50_us as f64)),
                            ("p99_us", Value::num(p.p99_us as f64)),
                            ("mean_us", Value::num(p.mean_us)),
                            ("server_p50_us", Value::num(p.server_p50_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("query_8c_over_1c", Value::num(scaling)),
        (
            "insert_burst",
            Value::Arr(
                bursts
                    .iter()
                    .map(|b| {
                        Value::obj(vec![
                            ("writers", Value::num(b.writers as f64)),
                            ("req_per_s", Value::num(b.req_per_s)),
                            ("p50_us", Value::num(b.p50_us as f64)),
                            ("p99_us", Value::num(b.p99_us as f64)),
                            ("batches_committed", Value::num(b.batches)),
                            ("mean_batch_ops", Value::num(b.mean_batch_ops)),
                            ("batch_size_hist", b.batch_hist.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "insert_8w_over_1w",
            Value::num(bursts[1].req_per_s / bursts[0].req_per_s),
        ),
        ("advise_cycle_ms", Value::num(cycle_ms)),
        ("advise_bg_requests", Value::num(bg_requests as f64)),
    ];
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    xia_bench::append_run(path.as_ref(), "exp_serve", run).unwrap_or_else(|e| panic!("{e}"));
    println!("\nwrote {path}");
}
