//! Golden pin: the exact `SearchOutcome` (chosen set, costs, per-query
//! costs, used indexes) of every search strategy — the ablated greedy
//! knobs included — on the integration-test and bench workloads must
//! match `tests/golden/strategy_snapshot.txt` line for line. The file
//! was generated at the commit before the offline greedy became the
//! anytime driver, so it holds search and what-if engine changes to
//! the behaviour of the separate implementation they replaced. A
//! change that means to alter a search result edits the golden file in
//! the same commit (a failing line prints what the search now returns).

use xia::prelude::*;

fn xmark(docs: usize) -> Collection {
    let mut c = Collection::new("auctions");
    XMarkGen::new(XMarkConfig {
        docs,
        ..Default::default()
    })
    .populate(&mut c);
    c
}

fn outcomes(lines: &mut Vec<String>, tag: &str, c: &Collection, w: &Workload, budget: u64) {
    let advisor = Advisor::default();
    for strat in [
        SearchStrategy::GreedyBaseline,
        SearchStrategy::GreedyHeuristic,
        SearchStrategy::GreedyAblated(GreedyKnobs {
            coverage_bitmap: false,
            eviction: true,
            drop_unused: false,
        }),
        SearchStrategy::TopDown,
    ] {
        let rec = advisor.recommend(c, w, budget, strat);
        let o = &rec.outcome;
        lines.push(format!(
            "{tag} {strat}: chosen={:?} base={:.6} cost={:.6} size={} per_query={:?} used={:?}",
            o.chosen,
            o.base_cost,
            o.workload_cost,
            o.size_bytes,
            o.per_query_cost,
            o.used_per_query
        ));
    }
}

#[test]
fn every_strategy_matches_the_golden_snapshot() {
    let mut lines = Vec::new();
    let c = xmark(150);
    let w = Workload::from_queries(
        &[
            "/site/regions/africa/item/quantity",
            "/site/regions/namerica/item/quantity",
            "/site/regions/samerica/item/price",
            "/site/regions/europe/item[price > 450]/name",
            "//closed_auction[price >= 700]/date",
        ],
        "auctions",
    )
    .unwrap();
    outcomes(&mut lines, "regional/1MiB", &c, &w, 1 << 20);
    outcomes(&mut lines, "regional/32KiB", &c, &w, 32 << 10);

    // Update-heavy variant exercises maintenance costing.
    let mut wu = Workload::from_queries(
        &[
            "/site/regions/africa/item/quantity",
            "//person[profile/age > 70]/name",
        ],
        "auctions",
    )
    .unwrap();
    let sample = c.get(xia::storage::DocId(0)).unwrap().clone();
    wu.add_insert(sample, 50.0);
    outcomes(&mut lines, "updates/1MiB", &c, &wu, 1 << 20);

    // The bench harness's standard nine-query workload, OR groups included.
    let c2 = {
        let mut c2 = Collection::new("auctions");
        XMarkGen::new(XMarkConfig {
            docs: 100,
            ..Default::default()
        })
        .populate(&mut c2);
        c2
    };
    let texts = [
        "/site/regions/africa/item/quantity".to_string(),
        "/site/regions/namerica/item/quantity".to_string(),
        "/site/regions/samerica/item/price".to_string(),
        "/site/regions/europe/item[price > 450]/name".to_string(),
        "//person[profile/age > 70]/name".to_string(),
        "//closed_auction[price >= 700]/date".to_string(),
        r#"//item[@featured = "yes"]/name"#.to_string(),
        r#"//item[price < 40 or price > 480]/name"#.to_string(),
        r#"for $a in collection("auctions")//open_auction where $a/initial >= 90 return $a/current"#
            .to_string(),
    ];
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let w2 = Workload::from_queries(&refs, "auctions").unwrap();
    outcomes(&mut lines, "standard/1MiB", &c2, &w2, 1 << 20);

    let golden: Vec<&str> = include_str!("golden/strategy_snapshot.txt")
        .lines()
        .collect();
    assert_eq!(lines.len(), golden.len(), "snapshot line count");
    for (got, want) in lines.iter().zip(golden) {
        assert_eq!(got, want);
    }
}
