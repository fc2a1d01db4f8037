//! The acceptance scenario for the daemon: an online session whose
//! capture → advise loop provably matches the offline advisor.
//!
//! 1. start the daemon over an XMark-like collection (fake clock, so
//!    decay is frozen and weights are exact);
//! 2. run a query mix over the wire — the monitor captures and dedups;
//! 3. RECOMMEND returns DDL *and* the captured workload in the advisor's
//!    file format;
//! 4. feed that very text to the offline advisor over an identical
//!    collection: the recommendation must be **byte-identical**;
//! 5. ADVISE reports the same indexes as drift/missing, CREATE-INDEX
//!    heals one, the next cycle no longer reports it;
//! 6. STATS carries the cycle's EvalStats and the request counters.

use std::sync::Arc;
use xia_advisor::{Advisor, SearchStrategy, Workload};
use xia_server::{json, Client, Server, ServerConfig, Value};
use xia_storage::{Collection, Database};
use xia_workload::{FakeClock, MonitorConfig, XMarkConfig, XMarkGen};

const BUDGET_BYTES: u64 = 256 << 10;

fn xmark(docs: usize) -> Collection {
    let mut c = Collection::new("auctions");
    XMarkGen::new(XMarkConfig {
        docs,
        ..Default::default()
    })
    .populate(&mut c);
    c
}

fn start_server() -> (Server, Arc<FakeClock>) {
    let clock = Arc::new(FakeClock::new());
    clock.set(1_000.0);
    let mut db = Database::new();
    assert!(db.add_collection(xmark(60)));
    let cfg = ServerConfig {
        threads: 2,
        budget_bytes: BUDGET_BYTES,
        monitor: MonitorConfig::default(),
        clock: clock.clone(),
        ..Default::default()
    };
    let server = Server::start(db, cfg).expect("daemon starts");
    (server, clock)
}

fn query_mix() -> Vec<&'static str> {
    vec![
        "/site/regions/africa/item/quantity",
        "/site/regions/namerica/item/quantity",
        "/site/regions/europe/item[price > 450]/name",
        "//person[profile/age > 70]/name",
        "//closed_auction[price >= 700]/date",
        r#"//item[@featured = "yes"]/name"#,
        // Same workload, different surface language: dedups with the
        // XPath forms above only if normalization is shared end-to-end.
        r#"for $a in collection("auctions")//open_auction where $a/initial >= 90 return $a/current"#,
    ]
}

fn ok(resp: &Value) -> &Value {
    assert_eq!(
        resp.get_bool("ok"),
        Some(true),
        "request failed: {:?}",
        resp.get_str("error")
    );
    resp
}

#[test]
fn online_recommendation_matches_offline_advisor_byte_for_byte() {
    let (server, _clock) = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    // Drive the query mix; repeats exercise dedup + weight accumulation.
    for pass in 0..3 {
        for q in query_mix() {
            let resp = client.query(q, None).expect("query");
            ok(&resp);
            assert!(resp.get_f64("results").is_some(), "pass {pass}: no count");
        }
    }

    // Online: recommend from the live monitor.
    let resp = client
        .call(&Value::obj(vec![
            ("cmd", Value::str("recommend")),
            ("collection", Value::str("auctions")),
        ]))
        .expect("recommend");
    ok(&resp);
    let online_ddl: Vec<String> = resp
        .get("ddl")
        .and_then(Value::as_arr)
        .expect("ddl array")
        .iter()
        .map(|v| v.as_str().expect("ddl string").to_string())
        .collect();
    assert!(!online_ddl.is_empty(), "mix should warrant indexes");
    let workload_text = resp.get_str("workload_text").expect("workload_text");
    assert_eq!(
        resp.get_f64("statements"),
        Some(query_mix().len() as f64),
        "monitor must dedup repeats across passes"
    );

    // Offline: same captured workload, identical collection, same
    // budget and strategy — run the library advisor directly.
    let workload =
        Workload::parse(workload_text, "auctions", None).expect("captured workload parses");
    let offline = Advisor::default().recommend(
        &xmark(60),
        &workload,
        BUDGET_BYTES,
        SearchStrategy::GreedyHeuristic,
    );
    assert_eq!(
        online_ddl,
        offline.ddl("auctions"),
        "daemon must be a transport around the offline advisor, not a variant of it"
    );
    assert_eq!(
        resp.get_f64("improvement_pct"),
        Some(offline.improvement_pct())
    );

    // The advisor cycle reports the same indexes as missing drift (no
    // indexes are materialized yet).
    let resp = client.command("advise").expect("advise");
    ok(&resp);
    let report = resp.get("report").expect("cycle report");
    assert_eq!(report.get_f64("seq"), Some(1.0));
    let colls = report
        .get("collections")
        .and_then(Value::as_arr)
        .expect("collections");
    assert_eq!(colls.len(), 1);
    let cycle = &colls[0];
    let missing: Vec<&str> = cycle
        .get("missing")
        .and_then(Value::as_arr)
        .expect("missing array")
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(missing.len(), online_ddl.len());
    assert!(cycle
        .get("eval_stats")
        .and_then(|s| s.get_f64("whatif_calls"))
        .is_some_and(|n| n > 0.0));

    // Heal one drift item by hand and re-advise: it must disappear from
    // the missing set (it is now materialized).
    let first = missing[0];
    // DDL shape: CREATE INDEX ... ON "auctions" ... PATTERN '<path>' AS SQL <TYPE>
    let pattern = first
        .split("PATTERN '")
        .nth(1)
        .and_then(|s| s.split('\'').next())
        .expect("pattern in ddl");
    let dtype = first.rsplit(' ').next().expect("type in ddl");
    let resp = client
        .call(&Value::obj(vec![
            ("cmd", Value::str("create_index")),
            ("pattern", Value::str(pattern)),
            ("type", Value::str(dtype)),
        ]))
        .expect("create_index");
    ok(&resp);

    let resp = client.command("advise").expect("second advise");
    ok(&resp);
    let report = resp.get("report").expect("cycle report");
    assert_eq!(report.get_f64("seq"), Some(2.0));
    let colls = report
        .get("collections")
        .and_then(Value::as_arr)
        .expect("collections");
    let still_missing = colls[0]
        .get("missing")
        .and_then(Value::as_arr)
        .expect("missing array");
    assert_eq!(
        still_missing.len(),
        missing.len() - 1,
        "materialized index must leave the drift set"
    );

    // STATS: cycles ran, monitor is populated, counters add up.
    let resp = client.command("stats").expect("stats");
    ok(&resp);
    let advisor = resp.get("advisor").expect("advisor stats");
    assert_eq!(advisor.get_f64("cycles"), Some(2.0));
    assert!(advisor.get("last_cycle").is_some_and(|c| !c.is_null()));
    let monitor = resp.get("monitor").expect("monitor stats");
    assert_eq!(monitor.get_f64("tracked"), Some(query_mix().len() as f64));
    let metrics = resp.get("metrics").expect("metrics");
    let queries = metrics
        .get("commands")
        .and_then(|c| c.get("query"))
        .expect("query metrics");
    assert_eq!(queries.get_f64("requests"), Some(21.0));
    assert_eq!(queries.get_f64("errors"), Some(0.0));

    drop(client);
    server.stop();
}

#[test]
fn auto_apply_closes_the_loop() {
    let clock = Arc::new(FakeClock::new());
    let mut db = Database::new();
    assert!(db.add_collection(xmark(60)));
    let cfg = ServerConfig {
        threads: 2,
        budget_bytes: BUDGET_BYTES,
        auto_apply: true,
        clock,
        ..Default::default()
    };
    let server = Server::start(db, cfg).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    for q in query_mix() {
        ok(&client.query(q, None).expect("query"));
    }
    let resp = client.command("advise").expect("advise");
    ok(&resp);
    let colls = resp
        .get("report")
        .and_then(|r| r.get("collections"))
        .and_then(Value::as_arr)
        .expect("collections");
    let applied = colls[0].get_f64("applied").expect("applied");
    assert!(applied > 0.0, "auto_apply must create the missing indexes");

    // Second cycle: configuration now matches the workload, no drift.
    let resp = client.command("advise").expect("second advise");
    ok(&resp);
    let colls = resp
        .get("report")
        .and_then(|r| r.get("collections"))
        .and_then(Value::as_arr)
        .expect("collections");
    assert_eq!(colls[0].get_f64("applied"), Some(0.0));
    assert_eq!(
        colls[0]
            .get("missing")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(0)
    );

    // The indexed plans actually run: a captured query now uses indexes.
    let resp = client
        .call(&Value::obj(vec![
            ("cmd", Value::str("explain")),
            ("q", Value::str("//person[profile/age > 70]/name")),
        ]))
        .expect("explain");
    ok(&resp);
    assert!(
        resp.get_str("plan").expect("plan text").contains("XISCAN"),
        "auto-applied configuration should serve the captured workload"
    );

    drop(client);
    server.stop();
}

#[test]
fn malformed_requests_get_structured_errors() {
    let (server, _clock) = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    let resp = client
        .call(&json::parse(r#"{"cmd": "query"}"#).unwrap())
        .expect("call");
    assert_eq!(resp.get_bool("ok"), Some(false));
    assert!(resp.get_str("error").expect("error").contains("'q'"));

    let resp = client
        .call(&json::parse(r#"{"cmd": "no_such_thing"}"#).unwrap())
        .expect("call");
    assert_eq!(resp.get_bool("ok"), Some(false));

    // Recommend with nothing captured is an error, not a panic.
    let resp = client
        .call(&json::parse(r#"{"cmd": "recommend"}"#).unwrap())
        .expect("call");
    assert_eq!(resp.get_bool("ok"), Some(false));
    assert!(resp.get_str("error").expect("error").contains("captured"));

    drop(client);
    server.stop();
}

/// The recommended DDL and `improvement_pct` of one ADVISE cycle over
/// `auctions`, and whether the cycle reused the previous one.
fn advise(client: &mut Client) -> (Vec<String>, f64, bool) {
    let resp = client.command("advise").expect("advise");
    ok(&resp);
    let colls = resp
        .get("report")
        .and_then(|r| r.get("collections"))
        .and_then(Value::as_arr)
        .expect("collections");
    let cycle = &colls[0];
    let ddl = cycle
        .get("recommended")
        .and_then(Value::as_arr)
        .expect("recommended array")
        .iter()
        .map(|v| v.as_str().expect("ddl string").to_string())
        .collect();
    (
        ddl,
        cycle.get_f64("improvement_pct").expect("improvement_pct"),
        cycle.get_bool("reused").expect("reused"),
    )
}

#[test]
fn advice_after_a_write_only_interval_matches_a_fresh_daemon() {
    // Regression: the reuse fast path had no data term, so an ADVISE
    // after INSERTs alone replayed the advice for the old collection.
    // One inserted document already moves the advice.
    const INSERTED: usize = 1;
    let inserted: Vec<String> = XMarkGen::new(XMarkConfig {
        docs: INSERTED,
        seed: 2,
        ..Default::default()
    })
    .generate()
    .iter()
    .map(xia_xml::serialize)
    .collect();

    let (server, _clock) = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    for q in query_mix() {
        ok(&client.query(q, None).expect("query"));
    }
    let before = advise(&mut client);
    for xml in &inserted {
        ok(&client
            .call(&Value::obj(vec![
                ("cmd", Value::str("insert")),
                ("collection", Value::str("auctions")),
                ("xml", Value::str(xml)),
            ]))
            .expect("insert"));
    }
    let after = advise(&mut client);
    drop(client);
    server.stop();

    // A fresh daemon over the same documents, with the same queries.
    let mut coll = xmark(60);
    for xml in &inserted {
        coll.insert(xia_xml::Document::parse(xml).expect("body parses"));
    }
    let mut db = Database::new();
    assert!(db.add_collection(coll));
    let fresh_server = Server::start(
        db,
        ServerConfig {
            threads: 2,
            budget_bytes: BUDGET_BYTES,
            clock: Arc::new(FakeClock::new()),
            ..Default::default()
        },
    )
    .expect("fresh daemon starts");
    let mut client = Client::connect(fresh_server.addr()).expect("connect");
    for q in query_mix() {
        ok(&client.query(q, None).expect("query"));
    }
    let fresh = advise(&mut client);
    drop(client);
    fresh_server.stop();

    assert!(!after.2, "the inserts must defeat the reuse");
    assert_ne!(
        (&before.0, before.1),
        (&after.0, after.1),
        "the advice must move with the data"
    );
    assert_eq!((after.0, after.1), (fresh.0, fresh.1));
}
