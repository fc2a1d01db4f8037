//! PROFILE over the wire surfaces the batched executor's per-operator
//! breakdown: an `operators` array of `{op, rows, ms}` objects, one per
//! compiled batch operator (seed, structural joins, filters,
//! materialize), alongside the rendered plan tree.

use std::sync::Arc;
use xia_server::{Client, Server, ServerConfig, Value};
use xia_storage::{Collection, Database};
use xia_workload::{FakeClock, XMarkConfig, XMarkGen};

#[test]
fn profile_reports_batch_operator_breakdown() {
    let mut coll = Collection::new("auctions");
    XMarkGen::new(XMarkConfig {
        docs: 10,
        ..Default::default()
    })
    .populate(&mut coll);
    let mut db = Database::new();
    assert!(db.add_collection(coll));

    let server = Server::start(
        db,
        ServerConfig {
            threads: 2,
            clock: Arc::new(FakeClock::new()),
            ..Default::default()
        },
    )
    .expect("daemon starts");
    let mut c = Client::connect(server.addr()).expect("connect");

    let resp = c
        .call(&Value::obj(vec![
            ("cmd", Value::str("profile")),
            ("q", Value::str("//item[quantity >= 1]/name")),
        ]))
        .expect("profile transport");
    assert_eq!(resp.get_bool("ok"), Some(true), "{resp}");
    assert!(resp.get_str("profile").is_some(), "rendered tree: {resp}");
    let results = resp.get_f64("results").expect("results field");
    assert!(results > 0.0, "query must select rows: {resp}");

    let ops = resp
        .get("operators")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("operators array missing: {resp}"));
    // //item[quantity >= 1]/name compiles to seed + filter + child join
    // + materialize.
    assert!(ops.len() >= 4, "expected a full pipeline: {resp}");
    let labels: Vec<&str> = ops.iter().filter_map(|o| o.get_str("op")).collect();
    assert_eq!(labels.len(), ops.len(), "every operator is labelled");
    assert!(labels.iter().any(|l| l.starts_with("seed")), "{labels:?}");
    assert!(labels.iter().any(|l| l.starts_with("filter")), "{labels:?}");
    assert!(
        labels.iter().any(|l| l.starts_with("materialize")),
        "{labels:?}"
    );
    for o in ops {
        assert!(o.get_f64("rows").is_some_and(|r| r >= 0.0), "{o}");
        assert!(o.get_f64("ms").is_some_and(|m| m >= 0.0), "{o}");
    }
    // The materialize operator's row count equals the result count.
    let materialized = ops
        .iter()
        .find(|o| o.get_str("op") == Some("materialize"))
        .and_then(|o| o.get_f64("rows"));
    assert_eq!(materialized, Some(results), "{resp}");

    server.stop();
}

/// PROFILE profiles the mode QUERY runs: on a selective child chain
/// over homonym-heavy documents `choose_mode` hands the query to the
/// navigational walker, and the profile says so — no batch operators,
/// same rows as QUERY.
#[test]
fn profile_follows_query_to_the_navigational_walker() {
    // A shallow /site/item/price chain whose labels also flood a decoy
    // subtree: the walk touches a handful of nodes, the batch engine
    // would drag in every homonymous column entry.
    let mut coll = Collection::new("auctions");
    for i in 0..8 {
        let mut b = xia_xml::DocumentBuilder::new();
        b.open("site");
        b.open("item");
        b.leaf("price", &format!("{i}"));
        b.close();
        b.open("junk");
        for _ in 0..100 {
            b.open("item");
            b.leaf("price", "0");
            b.close();
        }
        b.close();
        b.close();
        coll.insert(b.finish().expect("balanced document"));
    }
    let q = xia_xquery::compile("/site/item/price", "auctions").expect("compiles");
    let plan = xia_optimizer::explain(&coll, &xia_optimizer::CostModel::default(), &q).plan;
    assert_eq!(
        xia_optimizer::choose_mode(&coll, &q, &plan),
        xia_optimizer::ExecMode::Navigational
    );
    let mut db = Database::new();
    assert!(db.add_collection(coll));

    let server = Server::start(
        db,
        ServerConfig {
            threads: 2,
            clock: Arc::new(FakeClock::new()),
            ..Default::default()
        },
    )
    .expect("daemon starts");
    let mut c = Client::connect(server.addr()).expect("connect");
    let mut call = |cmd: &str| {
        let resp = c
            .call(&Value::obj(vec![
                ("cmd", Value::str(cmd)),
                ("q", Value::str("/site/item/price")),
            ]))
            .expect("transport");
        assert_eq!(resp.get_bool("ok"), Some(true), "{resp}");
        resp
    };
    let query = call("query");
    let profile = call("profile");

    assert_eq!(query.get_f64("results"), Some(8.0), "{query}");
    assert_eq!(profile.get_f64("results"), query.get_f64("results"));
    let tree = profile.get_str("profile").expect("rendered tree");
    assert!(tree.starts_with("NAV-EVAL (navigational walk)"), "{tree}");
    assert!(!tree.contains("BATCH"), "{tree}");
    let ops = profile.get("operators").and_then(Value::as_arr);
    assert_eq!(ops.map(<[Value]>::len), Some(0), "{profile}");

    server.stop();
}
