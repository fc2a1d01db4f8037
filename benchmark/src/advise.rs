//! The two advisor workloads: one op is one cold recommendation cycle,
//! `Advisor::recommend_compressed` over a captured workload, in-process
//! (the offline call a DBA makes; the daemon's incremental ADVISE is
//! timed by the traced `serve_mixed` run).

use crate::pools::{self, BODIES, COLLECTION};
use crate::report::{Layers, RunResult};
use crate::stats::{self, Sample};
use crate::trace::Tracer;
use crate::Run;
use std::time::Instant;
use xia::advisor::{generalize, generate_basic_candidates, scan_cost_upper_bound};
use xia::prelude::*;
use xia::server::Value;

const BUDGET_BYTES: u64 = 256 << 10;
const WARMUP_CYCLES: usize = 2;
/// Documents inserted after the window for `insert_p50_us`: enough of
/// them that the probe lasts a fifth of a second, not a hundredth.
const INSERT_PROBE: usize = 4000;

pub struct Spec {
    pub name: &'static str,
    docs: usize,
    statements: fn(u64, usize) -> Vec<String>,
    raw_statements: usize,
    /// Cycles replayed by the traced pass.
    trace_cycles: usize,
}

pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let div = if smoke { 20 } else { 1 };
    Some(match name {
        "advise_templates" => Spec {
            name: "advise_templates",
            docs: 200 / div,
            statements: pools::template_statements,
            raw_statements: 2_000 / div,
            trace_cycles: 50 / div,
        },
        "advise_dup" => Spec {
            name: "advise_dup",
            docs: 200 / div,
            statements: pools::dup_statements,
            raw_statements: 5_000 / div,
            trace_cycles: 50 / div,
        },
        _ => return None,
    })
}

struct Ready {
    coll: Collection,
    workload: Workload,
    advisor: Advisor,
    /// What the warm-up cycles recommended; every later cycle must
    /// recommend exactly this.
    ddl: Vec<String>,
}

/// The call both the advisor workloads and the daemon workloads' set-up
/// make: one cold cycle, unbounded, no refinement, no warm start.
pub fn recommend(
    advisor: &Advisor,
    coll: &Collection,
    workload: &Workload,
    budget_bytes: u64,
) -> CompressedRecommendation {
    advisor.recommend_compressed(
        coll,
        workload,
        budget_bytes,
        &AnytimeBudget::unbounded(),
        0,
        &[],
    )
}

fn cycle(ready: &Ready) -> CompressedRecommendation {
    recommend(&ready.advisor, &ready.coll, &ready.workload, BUDGET_BYTES)
}

/// Data generation, statement compilation and warm-up cycles.
fn setup(spec: &Spec, seed: u64) -> Ready {
    let coll = pools::collection(XMarkConfig {
        docs: spec.docs,
        ..Default::default()
    });
    let workload = pools::workload(&(spec.statements)(seed, spec.raw_statements));
    let mut ready = Ready {
        coll,
        workload,
        advisor: Advisor::default(),
        ddl: Vec::new(),
    };
    for _ in 0..WARMUP_CYCLES {
        ready.ddl = cycle(&ready).ddl(COLLECTION);
    }
    ready
}

/// A recommendation is right when it is the same one every time, fits
/// the budget, and is worth having. How much it is worth is the gated
/// metric `improvement_pct`.
fn acceptable(ready: &Ready, rec: &CompressedRecommendation) -> bool {
    rec.ddl(COLLECTION) == ready.ddl
        && rec.outcome.size_bytes <= BUDGET_BYTES
        && !rec.indexes.is_empty()
        && rec.benefit() > 0.0
}

/// Estimated workload-cost reduction of `rec`, priced on the **full
/// uncompressed** workload by a fresh what-if engine — so a shortcut
/// that buys cycle time with recommendation quality shows.
pub fn improvement_on_full_pct(
    advisor: &Advisor,
    coll: &Collection,
    workload: &Workload,
    rec: &CompressedRecommendation,
) -> f64 {
    let mut engine = WhatIfEngine::from_workload(
        coll,
        &advisor.config.cost_model,
        workload,
        &rec.dag,
        EngineConfig::default(),
    );
    let base = engine.cost(&[]);
    let with = engine.cost(&rec.outcome.chosen);
    if base > 0.0 {
        (base - with) / base * 100.0
    } else {
        0.0
    }
}

/// What the recommended configuration costs a writer: median time to
/// parse one generated 1–2 KB document and insert it into a copy of the
/// collection that carries the recommended indexes.
fn insert_p50_us(ready: &Ready, rec: &CompressedRecommendation, run: &Run) -> (f64, usize) {
    let mut coll = ready.coll.clone();
    for def in &rec.indexes {
        coll.create_index(def.clone());
    }
    let bodies = pools::insert_bodies(run.seed, BODIES);
    let us: Vec<f64> = bodies
        .iter()
        .cycle()
        .take(if run.smoke { 20 } else { INSERT_PROBE })
        .map(|xml| {
            let started = Instant::now();
            coll.insert(Document::parse(xml).expect("generated body parses"));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let n = us.len();
    (stats::median(us), n)
}

pub fn run(spec: &Spec, run: &Run) -> RunResult {
    let mut setups_s = Vec::new();
    let mut ready = None;
    for _ in 0..run.setups() {
        drop(ready.take());
        let started = Instant::now();
        ready = Some(setup(spec, run.seed));
        setups_s.push(started.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up");

    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = None;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < run.seconds {
        attempted += 1;
        let started = Instant::now();
        let rec = cycle(&ready);
        let sample = Sample {
            at_s: t0.elapsed().as_secs_f64(),
            us: started.elapsed().as_secs_f64() * 1e6,
        };
        if !acceptable(&ready, &rec) {
            failed += 1;
        } else if sample.at_s <= run.seconds {
            // The last cycle may finish past the window's end.
            samples.push(sample);
        }
        last = Some(rec);
    }
    let peak_rss_mib = crate::peak_rss_mib();
    let completions: Vec<f64> = samples.iter().map(|s| s.at_s).collect();
    let summary = stats::summarize(&samples, &completions, run.seconds);
    let rec = last.expect("at least one cycle");
    let (insert_p50_us, insert_samples) = insert_p50_us(&ready, &rec, run);

    crate::end_to_end_result(
        spec.name,
        run,
        attempted,
        failed,
        crate::Measured {
            summary,
            peak_rss_mib,
            insert_p50_us,
            improvement_pct: improvement_on_full_pct(
                &ready.advisor,
                &ready.coll,
                &ready.workload,
                &rec,
            ),
            setups_s,
        },
        vec![
            ("raw_statements", Value::num(spec.raw_statements as f64)),
            ("docs", Value::num(spec.docs as f64)),
            ("insert_samples", Value::num(insert_samples as f64)),
            (
                "ddl",
                Value::Arr(ready.ddl.iter().map(Value::str).collect()),
            ),
        ],
    )
}

/// The traced run: the stages `recommend_compressed` runs, called one
/// by one with a span around each, beside the real call for the whole.
pub fn run_traced(spec: &Spec, run: &Run) -> RunResult {
    let ready = setup(spec, run.seed);
    let model = &ready.advisor.config.cost_model;
    let mut layers = Layers::default();
    let mut t = Tracer::new();
    let mut whole_ms = Vec::new();
    let mut failed = 0u64;
    let mut last = None;
    for _ in 0..spec.trace_cycles {
        let started = Instant::now();
        let rec = cycle(&ready);
        whole_ms.push(started.elapsed().as_secs_f64() * 1e3);
        failed += !acceptable(&ready, &rec) as u64;

        t.next_op();
        let whole = t.begin("op.cycle");
        let s = t.begin("core.compress");
        let cw = compress(&ready.workload);
        t.end(s);
        let compressed = cw.workload();
        let s = t.begin("core.candidates");
        let basic = generate_basic_candidates(&ready.coll, compressed);
        t.end(s);
        let s = t.begin("core.generalize");
        let dag = generalize(&ready.coll, &basic, &ready.advisor.config.generalization);
        t.end(s);
        let s = t.begin("core.search");
        let found = anytime_search(
            &ready.coll,
            model,
            compressed,
            &dag,
            BUDGET_BYTES,
            &AnytimeOptions {
                budget: AnytimeBudget::unbounded(),
                refine_max_nodes: 0,
                warm_start: Vec::new(),
            },
        );
        // The engine times itself (`EvalStats.wall`); what is left of
        // the search span is the search proper.
        t.child_measured("core.whatif", s, found.outcome.stats.wall.as_nanos() as u64);
        t.end(s);
        let bound = cw.error_bound(scan_cost_upper_bound(&ready.coll, model));
        t.end(whole);
        std::hint::black_box(bound);
        assert_eq!(
            found.outcome.chosen, rec.outcome.chosen,
            "replica diverged from the real cycle"
        );
        last = Some(rec);
    }
    let rec = last.expect("at least one traced cycle");

    let medians = t.median_self_us();
    let stage_ms = |span: &str| medians.get(span).copied().unwrap_or(0.0) / 1e3;
    let mut stage_sum = 0.0;
    for (metric, span) in [
        ("core.compress_ms", "core.compress"),
        ("core.candidates_ms", "core.candidates"),
        ("core.generalize_ms", "core.generalize"),
        ("core.whatif_ms", "core.whatif"),
        ("core.search_ms", "core.search"),
    ] {
        layers.set(metric, stage_ms(span));
        stage_sum += stage_ms(span);
    }
    let cycle_ms = stats::median(whole_ms);
    layers.set("core.cycle_ms", cycle_ms);
    layers.set("trace.stage_sum_share", stage_sum / cycle_ms);
    let evals = &rec.outcome.stats;
    layers.set("core.templates", rec.templates as f64);
    layers.set("core.dag_nodes", rec.dag.nodes.len() as f64);
    layers.set("core.optimizer_calls", evals.whatif_calls as f64);
    layers.set("core.configs_evaluated", evals.configs_evaluated as f64);
    layers.set("core.query_cache_hit_rate", evals.query_hit_rate());
    layers.set(
        "core.improvement_pct",
        improvement_on_full_pct(&ready.advisor, &ready.coll, &ready.workload, &rec),
    );
    layers.set("trace.span_cost_ns", crate::trace::span_cost_ns());

    let trace_file = run.out.join(format!("trace-{}.jsonl", spec.name));
    t.write_jsonl(&trace_file).expect("write trace");
    crate::traced_result(
        spec.name,
        &layers,
        spec.trace_cycles as u64,
        failed,
        vec![
            ("trace_file", Value::str(trace_file.display().to_string())),
            ("spans", Value::num(t.spans().len() as f64)),
            ("raw_statements", Value::num(rec.raw_queries as f64)),
            (
                "improvement_on_compressed_pct",
                Value::num(rec.improvement_pct()),
            ),
            (
                "ddl",
                Value::Arr(ready.ddl.iter().map(Value::str).collect()),
            ),
        ],
    )
}
