//! T15 — overload protection: goodput and tail latency past saturation.
//!
//! Sweeps offered load at 0.5×/1×/2×/4× of the measured single-client
//! capacity against a daemon with admission control squeezed to
//! `max_connections == workers`. Paced client threads run
//! connect → K queries → close cycles on a seeded global schedule;
//! cycles that arrive while every slot is taken get the immediate BUSY
//! greeting and count as shed. The claim under test: **admitted**
//! QUERYs keep a bounded p99 (within 4× of the unloaded p99) even at
//! 4× overload, because excess work is rejected at the door instead of
//! queueing behind pinned workers — goodput plateaus at capacity and
//! the shed rate, reported honestly, absorbs the rest.
//!
//! On this one-core box the offered schedule can slip when every client
//! thread is blocked inside a served cycle; the report therefore records
//! the *achieved* offered rate next to the target, never pretending the
//! target was met.
//!
//! Results append to `BENCH_overload.json` at the repo root (one entry
//! per run) alongside the server's own overload counters so client-side
//! and daemon-side accounting can be cross-checked.
//!
//! ```text
//! cargo run -p xia-bench --bin exp_overload --release
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xia::prelude::*;
use xia::server::Value;
use xia_bench::{nproc, percentile, render_table, standard_queries, xmark_collection};

/// Workers (and admission slots): admitted == served immediately.
const WORKERS: usize = 2;
/// Queries per connection cycle.
const CYCLE_QUERIES: usize = 10;
/// Paced client threads per sweep point.
const CLIENT_THREADS: usize = 6;
/// Queries in the unloaded capacity measurement.
const CAPACITY_ROUNDS: usize = 400;
/// Wall-clock length of each sweep point.
const SWEEP_SECS: f64 = 2.5;
const MULTIPLIERS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

fn start_daemon() -> Server {
    let mut db = Database::new();
    db.add_collection(xmark_collection(80));
    Server::start(
        db,
        ServerConfig {
            threads: WORKERS,
            budget_bytes: 512 << 10,
            clock: Arc::new(FakeClock::new()),
            admission: AdmissionConfig {
                max_connections: WORKERS,
                shed_queue: 2 * WORKERS,
                retry_after_ms: 5,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("daemon starts")
}

/// Capacity and unloaded tail at the server's designed operating
/// point: one closed-loop client per worker, each driving the SAME
/// unit of work the sweep paces — connect → CYCLE_QUERIES → close
/// cycles — so the baseline distribution includes the connect
/// handshake, the acceptor→worker handoff, and worker-level
/// concurrency, with zero admission pressure. A single long-lived
/// connection would understate both capacity (workers idle) and the
/// unloaded tail (no concurrent streams), overstating the overload
/// ratio.
fn measure_capacity() -> (f64, u64, u64) {
    let server = start_daemon();
    let addr = server.addr();
    let start = Instant::now();
    let handles: Vec<_> = (0..WORKERS)
        .map(|who| {
            let queries = standard_queries();
            std::thread::spawn(move || {
                let mut lat_us = Vec::with_capacity(CAPACITY_ROUNDS / WORKERS);
                for cycle in 0..CAPACITY_ROUNDS / CYCLE_QUERIES / WORKERS {
                    // Closing and instantly reconnecting races the
                    // server's slot release; retry until admitted (the
                    // first query doubles as the admission probe) and
                    // time only admitted queries.
                    let mut c = loop {
                        let mut c = Client::connect(addr).expect("connect");
                        let t = Instant::now();
                        match c.query(&queries[(who + cycle) % queries.len()], None) {
                            Ok(v) if v.get_bool("busy") == Some(true) => continue,
                            Ok(v) => {
                                assert_eq!(v.get_bool("ok"), Some(true), "{v}");
                                lat_us.push(t.elapsed().as_micros() as u64);
                                break c;
                            }
                            Err(_) => continue,
                        }
                    };
                    for q in 1..CYCLE_QUERIES {
                        let t = Instant::now();
                        let resp = c
                            .query(&queries[(who + cycle + q) % queries.len()], None)
                            .expect("query");
                        lat_us.push(t.elapsed().as_micros() as u64);
                        assert_eq!(resp.get_bool("ok"), Some(true), "{resp}");
                    }
                }
                lat_us
            })
        })
        .collect();
    let mut lat_us: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("capacity client"))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    server.stop();
    lat_us.sort_unstable();
    (
        lat_us.len() as f64 / secs,
        percentile(&lat_us, 0.50),
        percentile(&lat_us, 0.99),
    )
}

#[derive(Default)]
struct CycleTally {
    ok: u64,
    busy: u64,
    rejected_cycles: u64,
    errors: u64,
    offered: u64,
    lat_us: Vec<u64>,
}

impl CycleTally {
    fn merge(&mut self, other: CycleTally) {
        self.ok += other.ok;
        self.busy += other.busy;
        self.rejected_cycles += other.rejected_cycles;
        self.errors += other.errors;
        self.offered += other.offered;
        self.lat_us.extend(other.lat_us);
    }
}

/// One connect → CYCLE_QUERIES → close cycle. The server answers an
/// over-limit connection with one BUSY greeting (cmd "connect") and
/// closes; the greeting surfaces as the first "response" we read.
fn run_cycle(addr: std::net::SocketAddr, queries: &[String], who: usize, tally: &mut CycleTally) {
    tally.offered += CYCLE_QUERIES as u64;
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            tally.errors += 1;
            return;
        }
    };
    for q in 0..CYCLE_QUERIES {
        let t = Instant::now();
        match c.query(&queries[(who + q) % queries.len()], None) {
            Ok(v) if v.get_bool("busy") == Some(true) => {
                if v.get_str("cmd") == Some("connect") {
                    // Admission rejection: the whole cycle is shed.
                    tally.rejected_cycles += 1;
                    return;
                }
                tally.busy += 1; // request-level shed; connection lives
            }
            Ok(v) => {
                debug_assert_eq!(v.get_bool("ok"), Some(true), "{v}");
                tally.ok += 1;
                tally.lat_us.push(t.elapsed().as_micros() as u64);
            }
            Err(_) => {
                tally.errors += 1;
                return;
            }
        }
    }
}

struct SweepPoint {
    multiplier: f64,
    target_rps: f64,
    achieved_offered_rps: f64,
    goodput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    shed_rate: f64,
    tally: CycleTally,
    server_overload: Value,
}

/// Drive offered load at `multiplier` × capacity for SWEEP_SECS.
fn sweep(multiplier: f64, capacity_rps: f64) -> SweepPoint {
    let server = start_daemon();
    let addr = server.addr();
    let queries = standard_queries();
    let target_rps = multiplier * capacity_rps;
    let cycle_interval = Duration::from_secs_f64(CYCLE_QUERIES as f64 / target_rps);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(SWEEP_SECS);
    // Global paced schedule: cycle i fires at start + i * interval,
    // whichever thread is free takes it. If every thread is mid-cycle
    // the schedule slips; the achieved rate records that honestly.
    let next_cycle = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|who| {
            let queries = queries.clone();
            let next_cycle = next_cycle.clone();
            std::thread::spawn(move || {
                let mut tally = CycleTally::default();
                loop {
                    let i = next_cycle.fetch_add(1, Ordering::Relaxed);
                    let at = start + cycle_interval.saturating_mul(i as u32);
                    if at >= deadline {
                        return tally;
                    }
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    run_cycle(addr, &queries, who, &mut tally);
                }
            })
        })
        .collect();
    let mut tally = CycleTally::default();
    for h in handles {
        tally.merge(h.join().expect("sweep client"));
    }
    let secs = start.elapsed().as_secs_f64();

    let mut c = Client::connect(addr).expect("stats connect");
    let stats = c.command("stats").expect("stats");
    let server_overload = stats.get("overload").cloned().unwrap_or(Value::Null);
    drop(c);
    server.stop();

    tally.lat_us.sort_unstable();
    let shed = tally.offered.saturating_sub(tally.ok);
    SweepPoint {
        multiplier,
        target_rps,
        achieved_offered_rps: tally.offered as f64 / secs,
        goodput_rps: tally.ok as f64 / secs,
        p50_us: percentile(&tally.lat_us, 0.50),
        p99_us: percentile(&tally.lat_us, 0.99),
        shed_rate: shed as f64 / tally.offered.max(1) as f64,
        tally,
        server_overload,
    }
}

fn main() {
    let cores = nproc();
    let (capacity_rps, unloaded_p50_us, unloaded_p99_us) = measure_capacity();
    println!(
        "unloaded capacity: {capacity_rps:.0} req/s (p50 {unloaded_p50_us} µs, \
         p99 {unloaded_p99_us} µs, {cores} core(s), {WORKERS} workers, \
         max_connections = {WORKERS})"
    );

    let points: Vec<SweepPoint> = MULTIPLIERS
        .iter()
        .map(|&m| sweep(m, capacity_rps))
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}×", p.multiplier),
                format!("{:.0}", p.target_rps),
                format!("{:.0}", p.achieved_offered_rps),
                format!("{:.0}", p.goodput_rps),
                format!("{}", p.p50_us),
                format!("{}", p.p99_us),
                format!("{:.1}%", 100.0 * p.shed_rate),
                format!("{}", p.tally.rejected_cycles),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "T15: offered-load sweep past saturation ({SWEEP_SECS}s/point, \
             {CLIENT_THREADS} paced clients, {CYCLE_QUERIES}-query cycles)"
            ),
            &[
                "offered",
                "target r/s",
                "achieved r/s",
                "goodput r/s",
                "p50 µs",
                "p99 µs",
                "shed",
                "rej cycles",
            ],
            &rows,
        )
    );

    let at4 = points.last().expect("4x point");
    let p99_ratio = at4.p99_us as f64 / unloaded_p99_us.max(1) as f64;
    println!(
        "\np99 of admitted QUERYs at 4× overload: {} µs = {:.2}× the unloaded p99 \
         ({} µs); bound under test: 4×. Shed rate at 4×: {:.1}% — overload is \
         rejected at admission, not absorbed as latency.",
        at4.p99_us,
        p99_ratio,
        unloaded_p99_us,
        100.0 * at4.shed_rate,
    );
    if p99_ratio > 4.0 {
        println!("WARNING: p99 bound exceeded — admission control is not holding the tail.");
    }

    let run = vec![
        ("workers", Value::num(WORKERS as f64)),
        ("cycle_queries", Value::num(CYCLE_QUERIES as f64)),
        ("capacity_rps", Value::num(capacity_rps)),
        ("unloaded_p50_us", Value::num(unloaded_p50_us as f64)),
        ("unloaded_p99_us", Value::num(unloaded_p99_us as f64)),
        ("p99_4x_over_unloaded", Value::num(p99_ratio)),
        (
            "sweep",
            Value::Arr(
                points
                    .iter()
                    .map(|p| {
                        Value::obj(vec![
                            ("multiplier", Value::num(p.multiplier)),
                            ("target_rps", Value::num(p.target_rps)),
                            ("achieved_offered_rps", Value::num(p.achieved_offered_rps)),
                            ("goodput_rps", Value::num(p.goodput_rps)),
                            ("p50_us", Value::num(p.p50_us as f64)),
                            ("p99_us", Value::num(p.p99_us as f64)),
                            ("shed_rate", Value::num(p.shed_rate)),
                            ("ok", Value::num(p.tally.ok as f64)),
                            ("busy_requests", Value::num(p.tally.busy as f64)),
                            (
                                "rejected_cycles",
                                Value::num(p.tally.rejected_cycles as f64),
                            ),
                            ("errors", Value::num(p.tally.errors as f64)),
                            ("offered", Value::num(p.tally.offered as f64)),
                            ("server_overload", p.server_overload.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overload.json");
    xia_bench::append_run(path.as_ref(), "exp_overload", run).unwrap_or_else(|e| panic!("{e}"));
    println!("\nwrote {path}");
}
