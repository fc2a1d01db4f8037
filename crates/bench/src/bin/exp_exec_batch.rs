//! T14 — batched execution vs navigational evaluation.
//!
//! The batched engine compiles a query once into a pipeline of column
//! operators (seed from name columns, stack-based structural joins over
//! `(start, end, level)` regions, vectorized predicate filters, late
//! materialization); the navigational evaluator walks the DOM per
//! context node. On descendant-axis queries over deeply nested data the
//! walk re-visits each subtree once per ancestor context — O(n·depth) —
//! while the structural join merges the same columns in one pass, so
//! the gap widens with nesting and collection size.
//!
//! This experiment sweeps collection size over deep section trees and
//! times both executors under the *same* optimizer plan for five query
//! shapes (descendant-heavy scan, vectorized predicate, child chain,
//! sargable index access, index-only), verifying rows and `ExecStats`
//! agree before trusting any timing. Results append to
//! `BENCH_exec.json` at the repo root.
//!
//! ```text
//! cargo run -p xia-bench --bin exp_exec_batch --release
//! ```

use std::time::Instant;
use xia::optimizer::{choose_mode, execute_mode, ExecMode, ExecStats};
use xia::prelude::*;
use xia::server::Value;
use xia_bench::{f, render_table, truncate};

/// Documents per collection at each sweep point.
const SIZES: [usize; 3] = [2, 8, 32];
/// Nesting depth / branching of each document's section tree:
/// 2^12 - 1 = 4095 `sec` elements per document, ~29k nodes total.
const DEPTH: usize = 11;
const FANOUT: usize = 2;
/// Timing runs per (query, mode); the minimum is reported.
const ITERS: usize = 3;

/// A deep recursive section tree: every `sec` carries a `title`, a
/// numeric `n`, and a `p` paragraph, then `FANOUT` child sections.
/// Values are a deterministic counter stream so runs are reproducible.
fn deep_doc(seed: &mut u64) -> Document {
    fn sec(b: &mut DocumentBuilder, depth: usize, seed: &mut u64) {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let v = (*seed >> 33) % 1000;
        b.open("sec");
        b.leaf("title", &format!("t{}", v % 40));
        b.leaf("n", &v.to_string());
        b.leaf("p", &format!("para {v}"));
        if depth > 0 {
            for _ in 0..FANOUT {
                sec(b, depth - 1, seed);
            }
        }
        b.close();
    }
    let mut b = DocumentBuilder::new();
    b.open("doc");
    sec(&mut b, DEPTH - 1, seed);
    b.close();
    b.finish().expect("well-formed section tree")
}

fn build_collection(docs: usize) -> Collection {
    let mut coll = Collection::new("docs");
    let mut seed = 0x1d2e3f4a5b6c7d8eu64;
    for _ in 0..docs {
        coll.insert(deep_doc(&mut seed));
    }
    // A sargable double index on //sec/n and the exact extraction index
    // //sec/title, so the sweep covers index-backed plan shapes too.
    coll.create_index(IndexDefinition::new(
        IndexId(1),
        LinearPath::parse("//sec/n").unwrap(),
        DataType::Double,
    ));
    coll.create_index(IndexDefinition::new(
        IndexId(2),
        LinearPath::parse("//sec/title").unwrap(),
        DataType::Varchar,
    ));
    coll
}

/// The five plan/query shapes under test. The first is the headline:
/// a scan-heavy descendant-axis query where navigational evaluation
/// degenerates to repeated subtree walks.
const QUERIES: [(&str, &str); 5] = [
    ("desc-scan", "//sec//p"),
    ("predicate", "//sec[n >= 900]/title"),
    ("child-chain", "/doc/sec/sec/sec/p"),
    ("index-access", r#"//sec[title = "t7"]/n"#),
    ("index-only", "//sec/title"),
];

struct Row {
    docs: usize,
    shape: &'static str,
    access: String,
    rows: usize,
    nav_ms: f64,
    batch_ms: f64,
    /// `execute`'s statistics-driven mode pick and its timing.
    chosen: &'static str,
    auto_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.batch_ms > 0.0 {
            self.nav_ms / self.batch_ms
        } else {
            f64::INFINITY
        }
    }

    /// How much faster the auto pick is than always-batched (> 1 means
    /// `choose_mode` recovered time the old hardwired default lost).
    fn auto_vs_batched(&self) -> f64 {
        if self.auto_ms > 0.0 {
            self.batch_ms / self.auto_ms
        } else {
            f64::INFINITY
        }
    }
}

fn time_min(mut run: impl FnMut() -> (usize, ExecStats)) -> (f64, usize, ExecStats) {
    let mut best = f64::INFINITY;
    let (mut rows, mut stats) = (0, ExecStats::default());
    for _ in 0..ITERS {
        let begin = Instant::now();
        let (r, s) = run();
        best = best.min(begin.elapsed().as_secs_f64() * 1e3);
        rows = r;
        stats = s;
    }
    (best, rows, stats)
}

fn bench_query(coll: &Collection, model: &CostModel, shape: &'static str, text: &str) -> Row {
    let query = compile(text, "docs").expect("bench query compiles");
    let ex = explain(coll, model, &query);
    let access = {
        use xia::optimizer::AccessPath::*;
        match &ex.plan.access {
            DocScan => "XSCAN".to_string(),
            IndexOnly { leg } => format!("XISCAN-ONLY({})", leg.index),
            IndexOr { legs } => format!("IXOR[{}]", legs.len()),
            IndexAccess { legs } if legs.len() > 1 => format!("IXAND[{}]", legs.len()),
            IndexAccess { legs } => format!("XISCAN({})", legs[0].index),
        }
    };

    let (nav_ms, nav_rows, nav_stats) = time_min(|| {
        let (rows, stats) = execute_navigational(coll, &query, &ex.plan).expect("navigational");
        (rows.len(), stats)
    });
    let (batch_ms, batch_rows, batch_stats) = time_min(|| {
        let (rows, stats) =
            execute_mode(coll, &query, &ex.plan, ExecMode::Batched).expect("batched");
        (rows.len(), stats)
    });
    assert_eq!(nav_rows, batch_rows, "{shape}: result drift");
    assert_eq!(nav_stats, batch_stats, "{shape}: ExecStats drift");

    // The production entry point: `execute` consults `choose_mode`.
    let chosen = match choose_mode(coll, &query, &ex.plan) {
        ExecMode::Batched => "batched",
        ExecMode::Navigational => "navigational",
    };
    let (auto_ms, auto_rows, auto_stats) = time_min(|| {
        let (rows, stats) = execute(coll, &query, &ex.plan).expect("auto");
        (rows.len(), stats)
    });
    assert_eq!(auto_rows, batch_rows, "{shape}: auto-mode result drift");
    assert_eq!(auto_stats, batch_stats, "{shape}: auto-mode stats drift");

    Row {
        docs: coll.documents().count(),
        shape,
        access,
        rows: batch_rows,
        nav_ms,
        batch_ms,
        chosen,
        auto_ms,
    }
}

fn main() {
    let model = CostModel::default();
    let mut all = Vec::new();

    for docs in SIZES {
        let coll = build_collection(docs);
        for (shape, text) in QUERIES {
            all.push(bench_query(&coll, &model, shape, text));
        }
    }

    let rows: Vec<Vec<String>> = all
        .iter()
        .map(|r| {
            vec![
                r.docs.to_string(),
                r.shape.to_string(),
                truncate(&r.access, 34),
                r.rows.to_string(),
                format!("{}ms", f(r.nav_ms)),
                format!("{}ms", f(r.batch_ms)),
                format!("{}x", f(r.speedup())),
                r.chosen.to_string(),
                format!("{}ms", f(r.auto_ms)),
            ]
        })
        .collect();
    print!("{}", render_table(
        &format!(
            "T14 — batched vs navigational execution (deep section trees, depth {DEPTH}, fanout {FANOUT})"
        ),
        &[
            "docs", "shape", "plan", "rows", "navigational", "batched", "speedup", "chosen",
            "auto",
        ],
        &rows,
    ));

    let headline = all
        .iter()
        .filter(|r| r.docs == *SIZES.last().unwrap() && r.shape == "desc-scan")
        .map(Row::speedup)
        .next()
        .expect("headline shape ran");
    println!(
        "\nheadline: {}x batched speedup on {} at {} docs (target >= 5x)",
        f(headline),
        QUERIES[0].1,
        SIZES.last().unwrap()
    );

    // The recovered regression: a highly selective child chain where the
    // hardwired batched default lost to the navigational walk. The
    // mode pick must choose navigational there and claw the time back.
    let recovered = all
        .iter()
        .find(|r| r.docs == *SIZES.last().unwrap() && r.shape == "child-chain")
        .expect("child-chain shape ran");
    println!(
        "recovered: child-chain at {} docs picks {} — {}x vs always-batched",
        recovered.docs,
        recovered.chosen,
        f(recovered.auto_vs_batched()),
    );

    let run = vec![
        ("depth", Value::num(DEPTH as f64)),
        ("fanout", Value::num(FANOUT as f64)),
        ("iters", Value::num(ITERS as f64)),
        ("headline_desc_scan_speedup", Value::num(headline)),
        (
            "recovered_child_chain",
            Value::obj(vec![
                ("docs", Value::num(recovered.docs as f64)),
                ("chosen_mode", Value::str(recovered.chosen)),
                ("batched_ms", Value::num(recovered.batch_ms)),
                ("auto_ms", Value::num(recovered.auto_ms)),
                ("auto_vs_batched", Value::num(recovered.auto_vs_batched())),
            ]),
        ),
        (
            "points",
            Value::Arr(
                all.iter()
                    .map(|r| {
                        Value::obj(vec![
                            ("docs", Value::num(r.docs as f64)),
                            ("shape", Value::str(r.shape)),
                            ("plan", Value::str(&r.access)),
                            ("rows", Value::num(r.rows as f64)),
                            ("navigational_ms", Value::num(r.nav_ms)),
                            ("batched_ms", Value::num(r.batch_ms)),
                            ("speedup", Value::num(r.speedup())),
                            ("chosen_mode", Value::str(r.chosen)),
                            ("auto_ms", Value::num(r.auto_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    xia_bench::append_run(path.as_ref(), "exp_exec_batch", run).unwrap_or_else(|e| panic!("{e}"));
    println!("\nwrote {path}");
}
