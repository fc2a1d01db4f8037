//! The paper reproduction: the demo's figures (F2–F5) and the
//! experiment tables (T1–T8), one entry each.
//!
//! Every entry renders its report into a `String`; the `repro` binary
//! prints them and `tests/repro_snapshot.rs` pins each against
//! `tests/golden/repro.txt` with only wall-clock cells masked, so every
//! count, cost and chosen index below is a checked number. `DESIGN.md`
//! §4 says what each entry reproduces and `EXPERIMENTS.md` the shape
//! each is expected to have.
//!
//! ```text
//! cargo run -p xia-bench --release --bin repro [F2 … T8]
//! ```

use std::collections::HashSet;
use std::fmt::{Result, Write};
use std::time::Instant;
use xia::advisor::analysis::measure_execution;
use xia::advisor::{generalize, generate_basic_candidates, AdvisorConfig, GeneralizationConfig};
use xia::prelude::*;

use crate::{f, render_table, standard_queries, truncate, xmark_collection};

/// One reproduced figure or table: its id (`F2`…`F5` for the demo
/// figures, `T1`…`T8` for the tables) and the function rendering it.
pub struct Entry(pub &'static str, fn(&mut String) -> Result);

impl Entry {
    /// Run the entry and return its report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        (self.1)(&mut out).expect("writing to a String cannot fail");
        out
    }
}

/// Every entry, in the order `repro` prints them.
pub const ENTRIES: [Entry; 12] = [
    Entry("F2", f2_enumerate),
    Entry("F3", f3_evaluate),
    Entry("F4", f4_search),
    Entry("F5", f5_analysis),
    Entry("T1", t1_budget_sweep),
    Entry("T2", t2_search_compare),
    Entry("T3", t3_generalization),
    Entry("T4", t4_updates),
    Entry("T5", t5_size_accuracy),
    Entry("T6", t6_scalability),
    Entry("T7", t7_ablation),
    Entry("T8", t8_cost_validation),
];

/// The entry named `id`.
pub fn entry(id: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.0 == id)
}

/// Larger, deeper documents for experiments that need scans to hurt.
pub(crate) fn xmark_collection_heavy(docs: usize) -> Collection {
    let mut c = Collection::new("auctions");
    XMarkGen::new(XMarkConfig {
        docs,
        items_per_region: 6,
        people: 8,
        open_auctions: 5,
        closed_auctions: 4,
        ..Default::default()
    })
    .populate(&mut c);
    c
}

/// Build an advisor workload from query texts.
pub(crate) fn workload_from(texts: &[String]) -> Workload {
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    Workload::from_queries(&refs, "auctions").expect("harness queries compile")
}

/// Compile the texts that compile (synthetic variations may not).
fn compile_all(texts: &[String]) -> Vec<NormalizedQuery> {
    texts
        .iter()
        .filter_map(|t| compile(t, "auctions").ok())
        .collect()
}

/// Total size of every basic candidate: the overtrained configuration.
fn overtrained_bytes(coll: &Collection, workload: &Workload) -> u64 {
    generate_basic_candidates(coll, workload)
        .iter()
        .map(|b| b.size_bytes)
        .sum()
}

/// Format a percentage cell.
fn pct(part: f64, whole: f64) -> String {
    if whole <= 0.0 {
        "n/a".into()
    } else {
        format!("{:.1}%", 100.0 * part / whole)
    }
}

fn patterns(rec: &Recommendation) -> String {
    rec.indexes
        .iter()
        .map(|d| d.pattern.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Chosen indexes that some query's best plan uses.
fn used_indexes(rec: &Recommendation) -> HashSet<usize> {
    rec.outcome
        .used_per_query
        .iter()
        .flatten()
        .copied()
        .collect()
}

const STRATEGIES: [SearchStrategy; 3] = [
    SearchStrategy::GreedyBaseline,
    SearchStrategy::GreedyHeuristic,
    SearchStrategy::TopDown,
];

/// Figure 2 — basic candidate recommendation: for every workload query
/// (XMark-like and TPoX-like, all three surface languages), the
/// optimizer's Enumerate Indexes mode.
fn f2_enumerate(out: &mut String) -> Result {
    let xmark = standard_queries()
        .into_iter()
        .map(|text| {
            let q = compile(&text, "auctions").expect("query compiles");
            (format!("[{}] {}", q.language, truncate(&text, 60)), q)
        })
        .collect();
    let tpox = tpox_queries()
        .into_iter()
        .map(|(coll, text)| {
            let q = compile(&text, coll).expect("query compiles");
            (format!("{coll}: {}", truncate(&text, 60)), q)
        })
        .collect();
    let tables: [(&str, Vec<(String, NormalizedQuery)>); 2] = [
        ("Figure 2: basic candidates per XMark-like query", xmark),
        (
            "Figure 2 (cont.): basic candidates per TPoX-like query",
            tpox,
        ),
    ];
    for (title, queries) in tables {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (label, q) in queries {
            for (i, cand) in enumerate_indexes(&q).into_iter().enumerate() {
                rows.push(vec![
                    if i == 0 { label.clone() } else { String::new() },
                    cand.pattern.to_string(),
                    cand.data_type.to_string(),
                ]);
            }
        }
        out.push_str(&render_table(
            title,
            &["query", "candidate XMLPATTERN", "type"],
            &rows,
        ));
    }
    Ok(())
}

/// Figure 3 — estimating the benefit of an index configuration: one
/// query priced under a series of virtual configurations (Evaluate
/// Indexes mode), then the plan under the generalized one.
fn f3_evaluate(out: &mut String) -> Result {
    let coll = xmark_collection(200);
    let model = CostModel::default();
    let query = compile("/site/regions/namerica/item[price > 450]/name", "auctions").unwrap();
    let virtual_config = |spec: &[(&str, DataType)]| -> Vec<IndexDefinition> {
        spec.iter()
            .enumerate()
            .map(|(i, (pat, ty))| {
                IndexDefinition::virtual_index(
                    IndexId(i as u32 + 1),
                    LinearPath::parse(pat).unwrap(),
                    *ty,
                )
            })
            .collect()
    };

    let configs: [(&str, &[(&str, DataType)]); 6] = [
        ("C0: no indexes", &[]),
        (
            "C1: exact price pattern",
            &[("/site/regions/namerica/item/price", DataType::Double)],
        ),
        (
            "C2: generalized region",
            &[("/site/regions/*/item/price", DataType::Double)],
        ),
        ("C3: //price", &[("//price", DataType::Double)]),
        ("C4: //* (everything)", &[("//*", DataType::Varchar)]),
        (
            "C5: price + name pair",
            &[
                ("/site/regions/*/item/price", DataType::Double),
                ("/site/regions/*/item/name", DataType::Varchar),
            ],
        ),
    ];
    let mut rows = Vec::new();
    let mut base = 0.0;
    for (label, spec) in configs {
        let defs = virtual_config(spec);
        let eval = evaluate_indexes(&coll, &model, &defs, std::slice::from_ref(&query));
        let pq = &eval.per_query[0];
        if spec.is_empty() {
            base = pq.cost.total();
        }
        let size: u64 = defs
            .iter()
            .map(|d| coll.stats().estimated_index_bytes(&d.pattern, d.data_type))
            .sum();
        rows.push(vec![
            label.to_string(),
            f(pq.cost.total()),
            pct(base - pq.cost.total(), base),
            format!("{}", size / 1024),
            format!("{:?}", pq.used_indexes),
        ]);
    }
    writeln!(out, "query: {}", query.text)?;
    out.push_str(&render_table(
        "Figure 3: estimated cost per virtual configuration",
        &["configuration", "est. cost", "benefit", "size KiB", "used"],
        &rows,
    ));

    // One full explain under the generalized configuration, as the demo
    // GUI shows when the user drills into a plan.
    let defs = virtual_config(configs[2].1);
    let eval = evaluate_indexes(&coll, &model, &defs, std::slice::from_ref(&query));
    writeln!(
        out,
        "\nplan under C2:\n{}",
        eval.per_query[0].plan.render(&query.text)
    )
}

/// Figure 4 — searching the space of candidate indexes: the
/// generalization DAG (text and Graphviz DOT), then how each search
/// traverses it under a budget, step by step.
fn f4_search(out: &mut String) -> Result {
    let coll = xmark_collection(200);
    let workload = workload_from(&standard_queries());

    let basics = generate_basic_candidates(&coll, &workload);
    writeln!(out, "== basic candidates ({}) ==", basics.len())?;
    for b in &basics {
        writeln!(out, "  {b}")?;
    }

    let dag = generalize(&coll, &basics, &GeneralizationConfig::default());
    writeln!(
        out,
        "\n== generalization DAG ({} nodes, {} roots) ==",
        dag.nodes.len(),
        dag.roots().len()
    )?;
    out.push_str(&dag.render_text());
    writeln!(out, "\n== DOT (paste into graphviz) ==\n{}", dag.to_dot())?;

    let advisor = Advisor::default();
    // Budget: 40% of the overtrained size, so every search must choose.
    let overtrained: u64 = basics.iter().map(|b| b.size_bytes).sum();
    let budget = (overtrained * 2) / 5;
    writeln!(
        out,
        "== search traversals (budget {} KiB = 40% of overtrained {} KiB) ==",
        budget / 1024,
        overtrained / 1024
    )?;
    for strategy in STRATEGIES {
        let rec = advisor.recommend(&coll, &workload, budget, strategy);
        writeln!(out, "\n--- {strategy} ---")?;
        for line in &rec.outcome.trace {
            writeln!(out, "  {line}")?;
        }
        writeln!(out, "{}", rec.render())?;
        writeln!(out, "what-if engine: {}", rec.outcome.stats.render())?;
    }
    Ok(())
}

/// Figure 5 — analyzing the recommendation: per-query estimated cost
/// with no indexes, recommended and overtrained; unseen variations
/// under the recommendation; then the indexes created and the workload
/// executed, also with one index dropped.
fn f5_analysis(out: &mut String) -> Result {
    let mut coll = xmark_collection_heavy(200);
    let workload = workload_from(&standard_queries());
    let advisor = Advisor::default();

    let rec = advisor.recommend(&coll, &workload, 512 << 10, SearchStrategy::GreedyHeuristic);
    writeln!(out, "{}", rec.render())?;

    let unseen = compile_all(&synthetic_variations(
        &standard_queries(),
        &SynthConfig {
            per_template: 2,
            seed: 31,
        },
    ));
    let report = analyze(&advisor, &coll, &workload, &rec, &unseen);
    writeln!(out, "{}", report.render())?;

    let before = measure_execution(&coll, &workload);
    let entries = Advisor::create_indexes(&rec, &mut coll);
    let after = measure_execution(&coll, &workload);
    writeln!(
        out,
        "== actual execution (recommended indexes created: {entries} entries) =="
    )?;
    writeln!(
        out,
        "{:<28} {:>10} {:>16} {:>12} {:>10}",
        "", "time ms", "docs evaluated", "pages read", "results"
    )?;
    let mut measured = vec![
        ("no indexes", before, String::new()),
        ("recommended configuration", after, String::new()),
    ];
    // The demo also lets the user modify the configuration: drop one
    // index and observe the effect.
    if let Some(first) = rec.indexes.first() {
        coll.drop_index(first.id);
        let dropped = measure_execution(&coll, &workload);
        let note = format!("   (dropped {})", first.pattern);
        measured.push(("modified (one index less)", dropped, note));
    }
    for (label, m, note) in measured {
        writeln!(
            out,
            "{:<28} {:>10.2} {:>16} {:>12} {:>10}{note}",
            label,
            m.seconds * 1e3,
            m.docs_evaluated,
            m.pages_read,
            m.results
        )?;
    }
    Ok(())
}

/// T1 — estimated workload improvement as the disk budget sweeps 5% to
/// 200% of the overtrained configuration, per search strategy.
fn t1_budget_sweep(out: &mut String) -> Result {
    let coll = xmark_collection(250);
    let workload = workload_from(&standard_queries());
    let advisor = Advisor::default();
    let overtrained = overtrained_bytes(&coll, &workload);

    let mut rows = Vec::new();
    for frac in [0.05, 0.1, 0.2, 0.4, 0.7, 1.0, 2.0] {
        let budget = ((overtrained as f64) * frac) as u64;
        let mut row = vec![
            format!("{:.0}%", frac * 100.0),
            format!("{}", budget / 1024),
        ];
        for strategy in STRATEGIES {
            let rec = advisor.recommend(&coll, &workload, budget, strategy);
            row.push(format!(
                "{} ({} idx)",
                pct(rec.benefit(), rec.outcome.base_cost),
                rec.indexes.len()
            ));
        }
        rows.push(row);
    }
    writeln!(
        out,
        "workload: {} queries; overtrained configuration: {} KiB",
        workload.query_count(),
        overtrained / 1024
    )?;
    out.push_str(&render_table(
        "T1: estimated improvement vs disk budget",
        &[
            "budget %",
            "KiB",
            "greedy-baseline",
            "greedy-heuristic",
            "top-down",
        ],
        &rows,
    ));
    Ok(())
}

/// T2 — the search strategies at one budget (40% of overtrained):
/// improvement, size, how many chosen indexes some plan uses (the
/// redundancy the paper's heuristics target), queries indexed, time and
/// what-if calls.
fn t2_search_compare(out: &mut String) -> Result {
    let coll = xmark_collection(250);
    let workload = workload_from(&standard_queries());
    let advisor = Advisor::default();
    let overtrained = overtrained_bytes(&coll, &workload);
    let budget = (overtrained * 2) / 5;

    let mut rows = Vec::new();
    for strategy in STRATEGIES {
        let start = Instant::now();
        let rec = advisor.recommend(&coll, &workload, budget, strategy);
        let elapsed = start.elapsed().as_secs_f64();
        let used = used_indexes(&rec);
        let used_count = rec
            .outcome
            .chosen
            .iter()
            .filter(|i| used.contains(i))
            .count();
        let queries_with_index = rec
            .outcome
            .used_per_query
            .iter()
            .filter(|u| !u.is_empty())
            .count();
        let stats = &rec.outcome.stats;
        rows.push(vec![
            strategy.to_string(),
            pct(rec.benefit(), rec.outcome.base_cost),
            rec.indexes.len().to_string(),
            format!("{}", rec.outcome.size_bytes / 1024),
            format!("{used_count}/{}", rec.indexes.len()),
            format!("{queries_with_index}/{}", workload.query_count()),
            format!("{elapsed:.2}s"),
            format!(
                "{} ({:.0}% hit)",
                stats.whatif_calls,
                100.0 * stats.query_hit_rate()
            ),
        ]);
    }
    writeln!(
        out,
        "budget: {} KiB (40% of overtrained {} KiB)",
        budget / 1024,
        overtrained / 1024
    )?;
    out.push_str(&render_table(
        "T2: search strategy comparison",
        &[
            "strategy",
            "improvement",
            "#indexes",
            "size KiB",
            "used/total",
            "queries indexed",
            "advisor time",
            "what-if calls",
        ],
        &rows,
    ));
    Ok(())
}

/// T3 — generalized vs basic candidates on unseen queries: train on
/// regional queries, price the recommendation on held-out variations
/// (other regions, other constants).
fn t3_generalization(out: &mut String) -> Result {
    let coll = xmark_collection_heavy(200);
    let training = vec![
        "/site/regions/africa/item/quantity".to_string(),
        "/site/regions/asia/item/quantity".to_string(),
        "/site/regions/africa/item[price > 460]/name".to_string(),
        "/site/regions/asia/item[price > 460]/name".to_string(),
    ];
    let unseen = compile_all(&synthetic_variations(
        &training,
        &SynthConfig {
            per_template: 4,
            seed: 23,
        },
    ));
    let workload = workload_from(&training);
    writeln!(
        out,
        "training queries: {}; unseen variations: {}",
        training.len(),
        unseen.len()
    )?;

    let no_gen = Advisor::new(AdvisorConfig {
        generalization: GeneralizationConfig {
            enable_lgg: false,
            enable_collapse: false,
            ..Default::default()
        },
        ..Default::default()
    });
    let full = Advisor::default();
    let configs = [
        (
            "basic-only greedy",
            &no_gen,
            SearchStrategy::GreedyHeuristic,
        ),
        ("DAG greedy", &full, SearchStrategy::GreedyHeuristic),
        ("DAG top-down", &full, SearchStrategy::TopDown),
    ];
    let mut rows = Vec::new();
    for (label, advisor, strategy) in configs {
        let rec = advisor.recommend(&coll, &workload, 2 << 20, strategy);
        let report = analyze(advisor, &coll, &workload, &rec, &unseen);
        let train_no = report.total_no_index();
        let train_rec = report.total_recommended();
        let unseen_no: f64 = report.unseen_rows.iter().map(|r| r.no_index).sum();
        let unseen_rec: f64 = report.unseen_rows.iter().map(|r| r.recommended).sum();
        rows.push(vec![
            label.to_string(),
            rec.indexes.len().to_string(),
            pct(train_no - train_rec, train_no),
            pct(unseen_no - unseen_rec, unseen_no),
            patterns(&rec),
        ]);
    }
    out.push_str(&render_table(
        "T3: training vs unseen improvement",
        &[
            "configuration",
            "#idx",
            "training improv.",
            "unseen improv.",
            "patterns",
        ],
        &rows,
    ));
    Ok(())
}

/// T4 — update-aware recommendation: the configuration shrinks as the
/// insert:query ratio grows and maintenance eats into index benefit.
fn t4_updates(out: &mut String) -> Result {
    let coll = xmark_collection(250);
    let advisor = Advisor::default();
    let sample = coll.get(DocId(0)).expect("collection is populated").clone();

    let mut rows = Vec::new();
    for ratio in [0.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0] {
        let mut workload = workload_from(&standard_queries());
        if ratio > 0.0 {
            workload.add_insert(sample.clone(), ratio);
        }
        let rec = advisor.recommend(&coll, &workload, 1 << 20, SearchStrategy::GreedyHeuristic);
        rows.push(vec![
            format!("{ratio:.0}"),
            rec.indexes.len().to_string(),
            format!("{}", rec.outcome.size_bytes / 1024),
            f(rec.benefit()),
            patterns(&rec),
        ]);
    }
    out.push_str(&render_table(
        "T4: recommendation vs insert frequency (per workload unit)",
        &[
            "inserts/unit",
            "#indexes",
            "size KiB",
            "net benefit",
            "patterns",
        ],
        &rows,
    ));
    Ok(())
}

/// T5 — virtual-index size estimates against the built index, for a
/// spread of patterns at three data scales.
fn t5_size_accuracy(out: &mut String) -> Result {
    let patterns: [(&str, DataType); 7] = [
        ("/site/regions/africa/item/price", DataType::Double),
        ("/site/regions/*/item/quantity", DataType::Varchar),
        ("//item/price", DataType::Double),
        ("//item/@id", DataType::Varchar),
        ("//person/name", DataType::Varchar),
        ("/site/regions/*/item/*", DataType::Varchar),
        ("//*", DataType::Varchar),
    ];
    for docs in [50usize, 200, 800] {
        let mut coll = xmark_collection(docs);
        let mut rows = Vec::new();
        for (i, (pat, ty)) in patterns.iter().enumerate() {
            let pattern = LinearPath::parse(pat).unwrap();
            let est_entries = coll.stats().estimated_index_entries(&pattern, *ty);
            let est_bytes = coll.stats().estimated_index_bytes(&pattern, *ty);
            coll.create_index(IndexDefinition::new(IndexId(i as u32), pattern, *ty));
            let actual = coll.index(IndexId(i as u32)).unwrap();
            let ratio = est_bytes as f64 / actual.byte_size().max(1) as f64;
            rows.push(vec![
                format!("{pat} ({ty})"),
                est_entries.to_string(),
                actual.len().to_string(),
                format!("{}", est_bytes / 1024),
                format!("{}", actual.byte_size() / 1024),
                format!("{ratio:.2}x"),
            ]);
            coll.drop_index(IndexId(i as u32));
        }
        out.push_str(&render_table(
            &format!("T5: size estimate accuracy at {docs} documents"),
            &[
                "pattern",
                "est entries",
                "actual",
                "est KiB",
                "actual KiB",
                "bytes ratio",
            ],
            &rows,
        ));
    }
    Ok(())
}

/// T6 — advisor scalability: candidates and time as the workload grows
/// (synthetic variations) and as the database grows.
fn t6_scalability(out: &mut String) -> Result {
    let coll = xmark_collection(150);
    let advisor = Advisor::default();
    let mut rows = Vec::new();
    for per_template in [0usize, 1, 2, 4, 8] {
        let mut texts = standard_queries();
        if per_template > 0 {
            texts.extend(synthetic_variations(
                &standard_queries(),
                &SynthConfig {
                    per_template,
                    seed: 11,
                },
            ));
        }
        let workload = workload_from(&texts);
        let basics = generate_basic_candidates(&coll, &workload);
        let start = Instant::now();
        let rec = advisor.recommend(&coll, &workload, 1 << 20, SearchStrategy::GreedyHeuristic);
        let elapsed = start.elapsed().as_secs_f64();
        rows.push(vec![
            workload.query_count().to_string(),
            basics.len().to_string(),
            rec.dag.nodes.len().to_string(),
            rec.indexes.len().to_string(),
            format!("{elapsed:.2}s"),
        ]);
    }
    out.push_str(&render_table(
        "T6a: advisor time vs workload size (150 docs)",
        &[
            "#queries",
            "#basic cands",
            "#DAG nodes",
            "#recommended",
            "advisor time",
        ],
        &rows,
    ));

    let mut rows = Vec::new();
    for docs in [50usize, 200, 800, 2000] {
        let coll = xmark_collection(docs);
        let workload = workload_from(&standard_queries());
        let start = Instant::now();
        let rec = advisor.recommend(&coll, &workload, 4 << 20, SearchStrategy::GreedyHeuristic);
        let elapsed = start.elapsed().as_secs_f64();
        rows.push(vec![
            docs.to_string(),
            coll.stats().total_nodes.to_string(),
            coll.stats().path_count().to_string(),
            rec.indexes.len().to_string(),
            format!("{elapsed:.2}s"),
        ]);
    }
    out.push_str(&render_table(
        "T6b: advisor time vs database size (standard workload)",
        &["#docs", "#nodes", "#paths", "#recommended", "advisor time"],
        &rows,
    ));
    Ok(())
}

/// T7 — ablation of the greedy heuristics (coverage bitmap, eviction,
/// drop-unused), one switched off at a time, on a workload built to
/// make generalized candidates redundant.
fn t7_ablation(out: &mut String) -> Result {
    let coll = xmark_collection(250);
    // Every region queried both ways, so the generalized
    // /site/regions/*/item/... candidates have the best initial
    // benefit/size ratio and the specific indexes added later make them
    // redundant.
    let mut queries: Vec<String> = Vec::new();
    for region in [
        "africa",
        "asia",
        "australia",
        "europe",
        "namerica",
        "samerica",
    ] {
        queries.push(format!("/site/regions/{region}/item/quantity"));
        queries.push(format!("/site/regions/{region}/item[price > 450]/name"));
    }
    let workload = workload_from(&queries);
    let advisor = Advisor::default();
    // A generous budget: without the heuristics there is room for junk.
    let budget = overtrained_bytes(&coll, &workload) * 2;

    let ablated = |coverage_bitmap, eviction, drop_unused| {
        SearchStrategy::GreedyAblated(GreedyKnobs {
            coverage_bitmap,
            eviction,
            drop_unused,
        })
    };
    let variants = [
        ("all heuristics (paper)", SearchStrategy::GreedyHeuristic),
        ("no coverage bitmap", ablated(false, true, true)),
        ("no eviction pass", ablated(true, false, true)),
        ("no drop-unused", ablated(true, true, false)),
        (
            "none (≈ interaction-aware baseline)",
            ablated(false, false, false),
        ),
        (
            "plain baseline [Valentin 2000]",
            SearchStrategy::GreedyBaseline,
        ),
    ];
    let mut rows = Vec::new();
    for (label, strategy) in variants {
        let start = Instant::now();
        let rec = advisor.recommend(&coll, &workload, budget, strategy);
        let elapsed = start.elapsed().as_secs_f64();
        let used = used_indexes(&rec);
        let unused = rec
            .outcome
            .chosen
            .iter()
            .filter(|i| !used.contains(i))
            .count();
        rows.push(vec![
            label.to_string(),
            pct(rec.benefit(), rec.outcome.base_cost),
            rec.indexes.len().to_string(),
            format!("{}", rec.outcome.size_bytes / 1024),
            unused.to_string(),
            format!("{elapsed:.2}s"),
        ]);
    }
    writeln!(
        out,
        "workload: {} queries; budget {} KiB (200% of overtrained)",
        workload.query_count(),
        budget / 1024
    )?;
    out.push_str(&render_table(
        "T7: greedy heuristics ablation",
        &[
            "variant",
            "improvement",
            "#indexes",
            "size KiB",
            "unused idx",
            "advisor time",
        ],
        &rows,
    ));
    Ok(())
}

/// T8 — cost model validation: each standard query's estimated I/O (in
/// pages) against the executor's cold-cache page reads, with no indexes
/// and under the recommendation.
fn t8_cost_validation(out: &mut String) -> Result {
    let mut coll = xmark_collection_heavy(200);
    let workload = workload_from(&standard_queries());
    let model = CostModel::default();

    for phase in ["no indexes", "recommended configuration"] {
        if phase == "recommended configuration" {
            let rec = Advisor::default().recommend(
                &coll,
                &workload,
                1 << 20,
                SearchStrategy::GreedyHeuristic,
            );
            Advisor::create_indexes(&rec, &mut coll);
        }
        let mut rows = Vec::new();
        let mut sum_est = 0.0;
        let mut sum_meas = 0usize;
        for (q, _) in workload.queries() {
            let ex = explain(&coll, &model, q);
            let (_, stats) = execute(&coll, q, &ex.plan).expect("physical plans run");
            let est_io = ex.plan.cost.io / model.page_io;
            sum_est += est_io;
            sum_meas += stats.pages_read;
            let ratio = if stats.pages_read > 0 {
                est_io / stats.pages_read as f64
            } else {
                0.0
            };
            let plan = if ex.plan.uses_indexes() {
                "index"
            } else {
                "scan"
            };
            rows.push(vec![
                truncate(&q.text, 52),
                plan.to_string(),
                format!("{est_io:.0}"),
                stats.pages_read.to_string(),
                format!("{ratio:.2}x"),
            ]);
        }
        rows.push(vec![
            "TOTAL".into(),
            String::new(),
            format!("{sum_est:.0}"),
            sum_meas.to_string(),
            format!("{:.2}x", sum_est / sum_meas.max(1) as f64),
        ]);
        out.push_str(&render_table(
            &format!("T8: estimated vs measured page I/O ({phase})"),
            &["query", "plan", "est pages", "measured pages", "est/meas"],
            &rows,
        ));
    }
    Ok(())
}
