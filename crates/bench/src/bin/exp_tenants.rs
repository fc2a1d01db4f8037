//! T16 — multi-tenant advisor service under skewed load.
//!
//! One daemon, 32 tenant namespaces, one shared index-page budget. Each
//! tenant gets a Zipf-weighted slice of data and query traffic (tenant
//! 0 is ~30× hotter than tenant 31), driven through the tenant-scoped
//! wire protocol so the whole path is exercised: namespace routing →
//! per-tenant workload monitor → per-tenant advisor cycle → published
//! frontier → cross-tenant marginal-benefit-per-page allocator.
//!
//! The experiment then sweeps the shared budget over fractions of the
//! fleet's total page demand and checks the CoPhy-style allocator's
//! contract at every point:
//!
//! * the budget is never overspent, and each grant is a prefix of its
//!   tenant's frontier (benefit numbers stay conditionally valid);
//! * under scarcity, pages flow to the hot tenants (the top-8 by
//!   traffic weight out-receive the bottom-8) and someone is starved —
//!   scarcity that starves nobody wasn't scarce;
//! * the STATS wire report agrees with the in-process allocation.
//!
//! Results append to `BENCH_tenants.json` at the repo root.
//!
//! ```text
//! cargo run -p xia-bench --bin exp_tenants --release
//! ```

use std::sync::Arc;
use std::time::Instant;
use xia::advisor::{allocate, Allocation, TenantFrontier};
use xia::prelude::*;
use xia::server::Value;
use xia_bench::{f, render_table};

const TENANTS: usize = 32;
const COLLECTION: &str = "docs";
/// Budget fractions of total fleet demand for the scarcity sweep.
const FRACTIONS: [f64; 3] = [0.25, 0.5, 1.0];

/// Zipf(1) traffic weight of tenant `i`.
fn weight(i: usize) -> f64 {
    1.0 / (i + 1) as f64
}

fn tenant_name(i: usize) -> String {
    format!("t{i:02}")
}

/// Documents seeded into tenant `i`: 28..=400, Zipf-scaled. The floor
/// keeps even cold tenants above the advisor's it-pays-off threshold so
/// the scarcity sweep has fleet-wide demand to ration.
fn docs_for(i: usize) -> usize {
    16 + (384.0 * weight(i)) as usize
}

/// Per-query observation count for tenant `i`: 1..=24, Zipf-scaled.
fn freq_for(i: usize) -> usize {
    (24.0 * weight(i)).max(1.0) as usize
}

/// One auction-flavored document; values are a deterministic counter
/// stream so runs reproduce.
fn doc_xml(seed: &mut u64) -> String {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let v = (*seed >> 33) % 1000;
    format!(
        "<site><item id=\"i{v}\"><price>{v}</price><quantity>{}</quantity>\
         <category>c{}</category><name>item {v}</name></item></site>",
        v % 50,
        v % 8,
    )
}

/// The query mix every tenant runs (frequencies differ per tenant).
const QUERIES: [&str; 4] = [
    "//item[price >= 900]/name",
    "/site/item/quantity",
    "//item[category = \"c3\"]/price",
    "//item/name",
];

fn scoped(tenant: &str, mut fields: Vec<(&str, Value)>) -> Value {
    fields.push(("tenant", Value::str(tenant)));
    Value::obj(fields)
}

fn call_ok(c: &mut Client, req: &Value) -> Value {
    let resp = c.call(req).expect("daemon answers");
    assert_eq!(resp.get_bool("ok"), Some(true), "{resp}");
    resp
}

struct TenantRow {
    name: String,
    weight: f64,
    docs: usize,
    frontier_items: usize,
    demand_pages: u64,
    error_bound: f64,
    /// Grant at the scarcest sweep point.
    scarce_pages: u64,
    scarce_benefit: f64,
    starved: bool,
}

fn main() {
    // The configured server-side budget exists to light up the STATS
    // allocation section; the scarcity analysis sweeps its own budgets.
    let server = Server::start(
        Database::new(),
        ServerConfig {
            threads: 4,
            budget_bytes: 256 << 10,
            clock: Arc::new(FakeClock::new()),
            tenant_pages: Some(1024),
            tenant_floor_pages: 2,
            tenant_ceiling_pages: Some(512),
            ..Default::default()
        },
    )
    .expect("daemon starts");
    let addr = server.addr();
    let mut c = Client::connect(addr).expect("connect");

    // --- Provision and load 32 tenants over the wire. ----------------------
    let load_start = Instant::now();
    let mut seed = 0x005e_ed0f_u64 ^ 0x9e3779b97f4a7c15;
    let mut inserts = 0u64;
    let mut queries = 0u64;
    for i in 0..TENANTS {
        let name = tenant_name(i);
        call_ok(
            &mut c,
            &Value::obj(vec![
                ("cmd", Value::str("tenant")),
                ("name", Value::str(&name)),
                ("collections", Value::Arr(vec![Value::str(COLLECTION)])),
            ]),
        );
        for _ in 0..docs_for(i) {
            call_ok(
                &mut c,
                &scoped(
                    &name,
                    vec![
                        ("cmd", Value::str("insert")),
                        ("collection", Value::str(COLLECTION)),
                        ("xml", Value::str(doc_xml(&mut seed))),
                    ],
                ),
            );
            inserts += 1;
        }
        // Skewed query traffic feeds each tenant's workload monitor.
        for q in QUERIES {
            for _ in 0..freq_for(i) {
                call_ok(
                    &mut c,
                    &scoped(
                        &name,
                        vec![
                            ("cmd", Value::str("query")),
                            ("q", Value::str(q)),
                            ("collection", Value::str(COLLECTION)),
                        ],
                    ),
                );
                queries += 1;
            }
        }
    }
    let load_secs = load_start.elapsed().as_secs_f64();
    println!(
        "loaded {TENANTS} tenants over the wire: {inserts} inserts, {queries} queries \
         in {load_secs:.2}s"
    );

    // --- One advisor cycle per tenant publishes its frontier. --------------
    let advise_start = Instant::now();
    for i in 0..TENANTS {
        call_ok(
            &mut c,
            &scoped(&tenant_name(i), vec![("cmd", Value::str("advise"))]),
        );
    }
    let advise_ms = advise_start.elapsed().as_secs_f64() * 1e3;

    // --- Collect the published frontiers in-process. -----------------------
    let state = server.state().clone();
    let frontiers: Vec<TenantFrontier> = (0..TENANTS)
        .map(|i| {
            let t = state.tenant(&tenant_name(i)).expect("tenant exists");
            let (items, error_bound) = t.frontier();
            TenantFrontier {
                tenant: tenant_name(i),
                items,
                floor_pages: 0,
                ceiling_pages: None,
                error_bound,
            }
        })
        .collect();
    let demand: u64 = frontiers
        .iter()
        .flat_map(|f| f.items.iter())
        .map(|i| i.pages)
        .sum();
    assert!(demand > 0, "advisor cycles produced no frontier at all");
    for f in &frontiers {
        assert!(
            !f.items.is_empty(),
            "tenant {} published an empty frontier — its workload never reached the advisor",
            f.tenant
        );
    }

    // --- Scarcity sweep: spend fractions of the fleet's demand. ------------
    let sweep: Vec<(f64, Allocation)> = FRACTIONS
        .iter()
        .map(|&frac| {
            let budget = ((demand as f64) * frac) as u64;
            let alloc = allocate(&frontiers, budget);
            assert!(
                alloc.spent_pages <= budget,
                "overspent at fraction {frac}: {} > {budget}",
                alloc.spent_pages
            );
            (frac, alloc)
        })
        .collect();
    let scarce = &sweep[0].1;
    let hot8: u64 = scarce.per_tenant[..8].iter().map(|t| t.pages).sum();
    let cold8: u64 = scarce.per_tenant[TENANTS - 8..]
        .iter()
        .map(|t| t.pages)
        .sum();
    let starved = scarce.per_tenant.iter().filter(|t| t.starved).count();
    assert!(
        hot8 >= cold8,
        "skew inverted at 25% budget: hot8 {hot8} pages < cold8 {cold8} pages"
    );
    assert!(
        starved > 0,
        "a 25% budget starved nobody — demand accounting is broken"
    );

    // --- Wire consistency: STATS reports the same allocation. --------------
    let stats = call_ok(&mut c, &Value::obj(vec![("cmd", Value::str("stats"))]));
    let wire_alloc = stats
        .get("advisor")
        .and_then(|a| a.get("allocation"))
        .expect("STATS carries the allocation section");
    let in_process = state
        .compute_allocation()
        .expect("tenant_pages is configured");
    assert_eq!(
        wire_alloc.get_f64("spent_pages"),
        Some(in_process.spent_pages as f64),
        "STATS allocation diverged from compute_allocation()"
    );
    let tenants_section = stats
        .get("tenants")
        .and_then(Value::as_arr)
        .expect("tenants section");
    assert_eq!(
        tenants_section.len(),
        TENANTS + 1,
        "STATS lists every namespace plus default"
    );

    drop(c);
    server.stop();

    // --- Report. -----------------------------------------------------------
    let rows_data: Vec<TenantRow> = (0..TENANTS)
        .map(|i| {
            let f = &frontiers[i];
            let grant = scarce.tenant(&f.tenant).expect("granted entry");
            TenantRow {
                name: f.tenant.clone(),
                weight: weight(i),
                docs: docs_for(i),
                frontier_items: f.items.len(),
                demand_pages: f.items.iter().map(|it| it.pages).sum(),
                error_bound: f.error_bound,
                scarce_pages: grant.pages,
                scarce_benefit: grant.benefit,
                starved: grant.starved,
            }
        })
        .collect();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.3}", r.weight),
                r.docs.to_string(),
                r.frontier_items.to_string(),
                r.demand_pages.to_string(),
                r.scarce_pages.to_string(),
                f(r.scarce_benefit),
                if r.starved { "yes" } else { "" }.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!(
                "T16 — 32-tenant budget allocation at 25% of fleet demand ({demand} pages total)"
            ),
            &["tenant", "weight", "docs", "frontier", "demand", "granted", "benefit", "starved",],
            &rows,
        )
    );

    for (frac, alloc) in &sweep {
        println!(
            "budget {:>3.0}% of demand: spent {}/{} pages, benefit {}, {} of {TENANTS} starved",
            frac * 100.0,
            alloc.spent_pages,
            alloc.total_pages,
            f(alloc.total_benefit),
            alloc.per_tenant.iter().filter(|t| t.starved).count(),
        );
    }
    println!(
        "headline: hot-8 tenants hold {hot8} pages vs cold-8 {cold8} under scarcity; \
         {advise_ms:.0} ms for all {TENANTS} advisor cycles"
    );

    let run = vec![
        ("tenants", Value::num(TENANTS as f64)),
        ("inserts", Value::num(inserts as f64)),
        ("queries", Value::num(queries as f64)),
        ("load_secs", Value::num(load_secs)),
        ("advise_all_ms", Value::num(advise_ms)),
        ("demand_pages", Value::num(demand as f64)),
        ("hot8_pages_at_25pct", Value::num(hot8 as f64)),
        ("cold8_pages_at_25pct", Value::num(cold8 as f64)),
        ("starved_at_25pct", Value::num(starved as f64)),
        (
            "sweep",
            Value::Arr(
                sweep
                    .iter()
                    .map(|(frac, alloc)| {
                        Value::obj(vec![
                            ("fraction", Value::num(*frac)),
                            ("budget_pages", Value::num(alloc.total_pages as f64)),
                            ("spent_pages", Value::num(alloc.spent_pages as f64)),
                            ("total_benefit", Value::num(alloc.total_benefit)),
                            (
                                "starved",
                                Value::num(
                                    alloc.per_tenant.iter().filter(|t| t.starved).count() as f64
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_tenant",
            Value::Arr(
                rows_data
                    .iter()
                    .map(|r| {
                        Value::obj(vec![
                            ("tenant", Value::str(&r.name)),
                            ("weight", Value::num(r.weight)),
                            ("docs", Value::num(r.docs as f64)),
                            ("frontier_items", Value::num(r.frontier_items as f64)),
                            ("demand_pages", Value::num(r.demand_pages as f64)),
                            ("error_bound", Value::num(r.error_bound)),
                            ("granted_pages_at_25pct", Value::num(r.scarce_pages as f64)),
                            ("granted_benefit_at_25pct", Value::num(r.scarce_benefit)),
                            ("starved", Value::Bool(r.starved)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tenants.json");
    xia_bench::append_run(path.as_ref(), "exp_tenants", run).unwrap_or_else(|e| panic!("{e}"));
    println!("\nwrote {path}");
}
