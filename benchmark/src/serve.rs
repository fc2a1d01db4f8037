//! The three daemon workloads, driven over the wire protocol through
//! `Client` against an in-process `Server::start`, in closed loops: each
//! connection's caller waits for its reply before sending its next
//! request.

use crate::advise;
use crate::pools::{self, BODIES, COLLECTION};
use crate::report::RunResult;
use crate::rng::{Rng, Zipf};
use crate::stats::{self, Sample};
use crate::Run;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;
use xia::prelude::*;
use xia::server::Value;

/// Disk budget for the indexes `serve_point` and `serve_mixed` create:
/// the daemon's own default.
const INDEX_BUDGET: u64 = 512 << 10;
/// Pool texts the connection runs once before anything is timed.
pub const WARMUP_TEXTS: usize = 1024;
/// INSERTs sent after the window of a workload that has none in it, so
/// that every workload reports `insert_p50_us`.
const INSERT_PROBE: usize = 600;

pub struct Spec {
    pub name: &'static str,
    data: XMarkConfig,
    /// Create the advisor's recommended indexes over the wire in set-up.
    indexed: bool,
    pool: fn(&Collection, u64, usize) -> Vec<String>,
    texts_per_template: usize,
    /// Zipf exponent of the draw over the pool; `None` draws uniformly.
    zipf: Option<f64>,
    /// WAL + group commit, one fsync per batch, default checkpoints.
    pub durable: bool,
    insert_share: f64,
    /// Ops replayed by the traced pass.
    pub trace_ops: usize,
}

pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let light = XMarkConfig {
        docs: if smoke { 40 } else { 80 },
        ..Default::default()
    };
    let div = if smoke { 16 } else { 1 };
    Some(match name {
        "serve_point" => Spec {
            name: "serve_point",
            data: light,
            indexed: true,
            pool: pools::point_pool,
            texts_per_template: 32 / div,
            zipf: Some(1.0),
            durable: false,
            insert_share: 0.0,
            trace_ops: 2000 / div,
        },
        "serve_scan" => Spec {
            name: "serve_scan",
            // Heavy documents, few enough to stay clear of memory bandwidth
            // (see README, Sizing): median execute is about 1 ms.
            data: XMarkConfig {
                docs: if smoke { 8 } else { 200 },
                items_per_region: 6,
                people: 8,
                open_auctions: 5,
                closed_auctions: 4,
                ..Default::default()
            },
            indexed: false,
            pool: pools::scan_pool,
            texts_per_template: 8 / div.min(4),
            zipf: None,
            durable: false,
            insert_share: 0.0,
            trace_ops: 600 / div,
        },
        "serve_mixed" => Spec {
            name: "serve_mixed",
            data: light,
            indexed: true,
            pool: pools::point_pool,
            // 4096 distinct texts: more than the monitor's 1024 entries.
            texts_per_template: 512 / div,
            zipf: Some(1.0),
            durable: true,
            insert_share: 0.2,
            trace_ops: 2000 / div,
        },
        _ => return None,
    })
}

impl Spec {
    pub fn collection(&self, seed: u64) -> Collection {
        pools::collection(XMarkConfig {
            seed: Rng::fork(seed, "data").next_u64(),
            ..self.data
        })
    }

    /// The indexes the advisor recommends for the pool, or none for a
    /// workload that runs unindexed.
    pub fn recommended_indexes(&self, coll: &Collection, inputs: &Inputs) -> Vec<IndexDefinition> {
        if !self.indexed {
            return Vec::new();
        }
        advise::recommend(&Advisor::default(), coll, &inputs.workload, INDEX_BUDGET).indexes
    }

    /// The op sequence of caller `conn`.
    pub fn stream(&self, seed: u64, inputs: &Inputs, conn: usize) -> OpStream {
        let caller = format!("ops{conn}");
        OpStream::new(
            seed,
            &caller,
            inputs.pool.len(),
            self.zipf,
            self.insert_share,
        )
    }
}

/// What the program is fed, and what it must answer.
pub struct Inputs {
    pub pool: Vec<String>,
    /// The pool as the advisor sees it.
    workload: Workload,
    /// Row count of each pool text, by the navigational reference
    /// evaluator on the initial data. INSERT bodies match no pool query
    /// (see [`pools::insert_bodies`]), so it holds all run long.
    reference: Vec<usize>,
    pub bodies: Vec<String>,
    initial_docs: usize,
    /// What the advisor's recommendation for the pool is worth, priced
    /// on the whole pool (`serve_scan` creates none of it and reports
    /// what it forgoes).
    improvement_pct: f64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let coll = spec.collection(seed);
        let pool = (spec.pool)(&coll, seed, spec.texts_per_template);
        let model = CostModel::default();
        let reference = pool
            .iter()
            .map(|text| {
                let q = compile(text, COLLECTION).expect("pool text compiles");
                // No index exists on `coll`, so the plan is a full scan.
                let plan = explain(&coll, &model, &q).plan;
                let (rows, _) = execute_navigational(&coll, &q, &plan).expect("reference run");
                rows.len()
            })
            .collect();
        let workload = pools::workload(&pool);
        let advisor = Advisor::default();
        let rec = advise::recommend(&advisor, &coll, &workload, INDEX_BUDGET);
        let improvement_pct = advise::improvement_on_full_pct(&advisor, &coll, &workload, &rec);
        Inputs {
            pool,
            workload,
            reference,
            bodies: pools::insert_bodies(seed, BODIES),
            initial_docs: coll.len(),
            improvement_pct,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Query(usize),
    Insert(usize),
}

/// One caller's seeded op sequence.
pub struct OpStream {
    rng: Rng,
    zipf: Option<Zipf>,
    pool_len: usize,
    insert_share: f64,
}

impl OpStream {
    pub fn new(
        seed: u64,
        caller: &str,
        pool_len: usize,
        zipf: Option<f64>,
        insert_share: f64,
    ) -> Self {
        OpStream {
            rng: Rng::fork(seed, caller),
            zipf: zipf.map(|s| Zipf::new(pool_len, s)),
            pool_len,
            insert_share,
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.insert_share > 0.0 && self.rng.unit() < self.insert_share {
            return Op::Insert(self.rng.below(BODIES));
        }
        Op::Query(match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.pool_len),
        })
    }
}

pub fn insert_request(xml: &str) -> Value {
    Value::obj(vec![
        ("cmd", Value::str("insert")),
        ("xml", Value::str(xml)),
    ])
}

/// The request `Client::query` sends.
pub fn query_request(text: &str) -> Value {
    Value::obj(vec![("cmd", Value::str("query")), ("q", Value::str(text))])
}

/// A daemon that is set up and warm, with the connection to it (the
/// traced `serve_mixed` run adds a second).
pub struct Live {
    pub server: Server,
    pub clients: Vec<Client>,
    data_dir: Option<PathBuf>,
    /// What set-up created, as `pattern AS type`.
    indexes: Vec<String>,
}

impl Live {
    /// Stop the daemon; the caller owns what is left of its data
    /// directory.
    pub fn stop(self) -> Option<PathBuf> {
        drop(self.clients);
        self.server.stop();
        self.data_dir
    }
}

/// Data generation, index recommendation, daemon start, index creation
/// over the wire, connect and warm-up: everything `setup_s` covers.
pub fn setup(spec: &Spec, seed: u64, inputs: &Inputs, out: &Path, nth: usize) -> Live {
    let coll = spec.collection(seed);
    let indexes = spec.recommended_indexes(&coll, inputs);
    let data_dir = spec.durable.then(|| {
        let dir = out.join(format!("data-{}-{}-{nth}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let mut db = Database::new();
    db.add_collection(coll);
    let server = Server::start(
        db,
        ServerConfig {
            durability: data_dir.as_ref().map(DurabilityConfig::at),
            ..Default::default()
        },
    )
    .expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    for def in &indexes {
        let type_name = match def.data_type {
            DataType::Double => "DOUBLE",
            DataType::Varchar => "VARCHAR",
        };
        let resp = client
            .call(&Value::obj(vec![
                ("cmd", Value::str("create_index")),
                ("pattern", Value::str(def.pattern.to_string())),
                ("type", Value::str(type_name)),
            ]))
            .expect("create_index");
        assert_eq!(resp.get_bool("ok"), Some(true), "create_index: {resp}");
    }
    // Warm-up: one pass over the pool, so lazily built node columns and
    // the worker's thread-local snapshot cache exist before anything is
    // timed.
    for text in inputs.pool.iter().take(WARMUP_TEXTS) {
        let resp = client.query(text, None).expect("warm-up query");
        assert_eq!(resp.get_bool("ok"), Some(true), "warm-up: {resp}");
    }
    Live {
        server,
        clients: vec![client],
        data_dir,
        indexes: indexes
            .iter()
            .map(|def| format!("{} AS {:?}", def.pattern, def.data_type))
            .collect(),
    }
}

#[derive(Clone, Copy)]
pub enum Stop {
    AfterSeconds(f64),
    /// Per caller.
    AfterOps(usize),
}

/// What the callers saw.
#[derive(Default)]
pub struct Log {
    pub queries: Vec<Sample>,
    pub inserts: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

impl Log {
    fn absorb(&mut self, other: Log) {
        self.queries.extend(other.queries);
        self.inserts.extend(other.inserts);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One caller's closed loop: send, wait for the parsed reply, check it,
/// repeat. A reply with `ok != true` (refusals — BUSY, TIMEOUT — arrive
/// that way), a transport error or a wrong row count is a failed op.
fn caller(
    client: &mut Client,
    addr: SocketAddr,
    mut stream: OpStream,
    inputs: &Inputs,
    stop: Stop,
    t0: Instant,
) -> Log {
    let mut log = Log::default();
    loop {
        match stop {
            Stop::AfterSeconds(s) if t0.elapsed().as_secs_f64() >= s => break,
            Stop::AfterOps(n) if log.attempted as usize >= n => break,
            _ => {}
        }
        let op = stream.next_op();
        log.attempted += 1;
        let sent = Instant::now();
        let reply = match op {
            Op::Query(i) => client.query(&inputs.pool[i], None),
            Op::Insert(i) => client.call(&insert_request(&inputs.bodies[i])),
        };
        let sample = Sample {
            at_s: t0.elapsed().as_secs_f64(),
            us: sent.elapsed().as_secs_f64() * 1e6,
        };
        let ok = reply.as_ref().is_ok_and(|r| r.get_bool("ok") == Some(true));
        match op {
            Op::Query(i) => {
                let rows = reply.as_ref().ok().and_then(|r| r.get_f64("results"));
                if ok && rows == Some(inputs.reference[i] as f64) {
                    log.queries.push(sample);
                } else {
                    log.failed += 1;
                }
            }
            Op::Insert(_) if ok => log.inserts.push(sample),
            Op::Insert(_) => log.failed += 1,
        }
        if reply.is_err() {
            // The connection is gone; a caller would reconnect.
            match Client::connect(addr) {
                Ok(fresh) => *client = fresh,
                Err(_) => break,
            }
        }
    }
    log
}

/// Every connection's caller at once, each on a thread of its own,
/// until `stop`.
pub fn window(spec: &Spec, seed: u64, inputs: &Inputs, live: &mut Live, stop: Stop) -> Log {
    let addr = live.server.addr();
    let t0 = Instant::now();
    let mut all = Log::default();
    std::thread::scope(|s| {
        let callers: Vec<_> = live
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let stream = spec.stream(seed, inputs, conn);
                s.spawn(move || caller(client, addr, stream, inputs, stop, t0))
            })
            .collect();
        for c in callers {
            all.absorb(c.join().expect("caller thread"));
        }
    });
    all
}

/// INSERTs alone, one after the other on the first connection: what a
/// writer waits on a daemon whose window had no writes in it.
fn insert_probe(run: &Run, inputs: &Inputs, live: &mut Live) -> Log {
    let n = if run.smoke { 20 } else { INSERT_PROBE };
    caller(
        &mut live.clients[0],
        live.server.addr(),
        OpStream::new(run.seed, "insert-probe", inputs.pool.len(), None, 1.0),
        inputs,
        Stop::AfterOps(n),
        Instant::now(),
    )
}

/// Recover the stopped daemon's data directory the way a restart would
/// and count what is there.
fn recovered_docs(data_dir: &Path) -> Result<usize, String> {
    let recovered = recover_database(&RealVfs, data_dir).map_err(|e| e.to_string())?;
    Ok(recovered
        .database
        .collection(COLLECTION)
        .map_or(0, Collection::len))
}

/// The end-to-end run: a few fresh set-ups (the median is `setup_s`),
/// then one timed window on the last.
pub fn run(spec: &Spec, run: &Run) -> RunResult {
    let inputs = Inputs::generate(spec, run.seed);
    let mut setups_s = Vec::new();
    let mut live: Option<Live> = None;
    for nth in 0..run.setups() {
        if let Some(dir) = live.take().and_then(Live::stop) {
            let _ = std::fs::remove_dir_all(dir);
        }
        let started = Instant::now();
        live = Some(setup(spec, run.seed, &inputs, &run.out, nth));
        setups_s.push(started.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");

    let mut log = window(
        spec,
        run.seed,
        &inputs,
        &mut live,
        Stop::AfterSeconds(run.seconds),
    );
    let peak_rss_mib = crate::peak_rss_mib();
    let acked_inserts = log.inserts.len();
    // Percentiles are over QUERY ops; every op answered correctly counts
    // toward throughput. A caller's last op may finish past the window's
    // end.
    let in_window = |s: &&Sample| s.at_s <= run.seconds;
    let queries: Vec<Sample> = log.queries.iter().filter(in_window).copied().collect();
    let completions: Vec<f64> = log
        .queries
        .iter()
        .chain(&log.inserts)
        .filter(in_window)
        .map(|s| s.at_s)
        .collect();
    let summary = stats::summarize(&queries, &completions, run.seconds);

    // A window without writes is followed by writes alone.
    let mut insert_us: Vec<f64> = log.inserts.iter().map(|s| s.us).collect();
    if spec.insert_share == 0.0 {
        let probe = insert_probe(run, &inputs, &mut live);
        insert_us = probe.inserts.iter().map(|s| s.us).collect();
        log.attempted += probe.attempted;
        log.failed += probe.failed;
    }

    let mut detail = vec![
        ("pool_texts", Value::num(inputs.pool.len() as f64)),
        ("insert_samples", Value::num(insert_us.len() as f64)),
        (
            "indexes_created",
            Value::Arr(live.indexes.iter().map(Value::str).collect()),
        ),
    ];
    if let Some(dir) = live.stop() {
        let want = inputs.initial_docs + acked_inserts;
        let got = recovered_docs(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        if got != Ok(want) {
            // An acknowledged insert that does not survive a restart
            // breaks the promise every acknowledgement made.
            eprintln!("recovery mismatch: want {want} documents, got {got:?}");
            log.failed += acked_inserts as u64;
        }
        detail.push(("inserts_acked", Value::num(acked_inserts as f64)));
        detail.push(("recovered_docs", Value::num(got.unwrap_or(0) as f64)));
    }
    crate::end_to_end_result(
        spec.name,
        run,
        log.attempted,
        log.failed,
        crate::Measured {
            summary,
            peak_rss_mib,
            insert_p50_us: stats::median(insert_us),
            improvement_pct: inputs.improvement_pct,
            setups_s,
        },
        detail,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_streams_repeat_per_seed_and_differ_across_seeds() {
        let ops = |seed| {
            let mut s = OpStream::new(seed, "ops0", 4096, Some(1.0), 0.2);
            (0..200).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(42), ops(42));
        assert_ne!(ops(42), ops(7));
        // The second caller does not replay the first.
        let mut other = OpStream::new(42, "ops1", 4096, Some(1.0), 0.2);
        assert_ne!(
            ops(42),
            (0..200).map(|_| other.next_op()).collect::<Vec<_>>()
        );
        let inserts = ops(42)
            .iter()
            .filter(|op| matches!(op, Op::Insert(_)))
            .count();
        assert!(
            (20..=60).contains(&inserts),
            "{inserts} inserts in 200 ops at 20 %"
        );
    }
}
