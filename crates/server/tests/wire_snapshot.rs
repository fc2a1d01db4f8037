//! Golden pin of the wire protocol: a fixed script through in-process
//! `handle_line` on a small fixed database must produce
//! `tests/golden/wire_snapshot.txt` line for line — every command, both
//! RECOMMEND forms, the error shapes — with wall-time-bearing values
//! masked and STATS reduced to its key set.
//!
//! The file was generated at the commit before `server.rs` was split
//! into modules, so it holds the handlers to the bytes the single-file
//! daemon produced (one line differs by design: PROFILE of a query
//! `choose_mode` runs navigationally now profiles the walker). A change
//! that means to alter a response edits the golden file in the same
//! commit; a mismatch writes what the daemon now answers next to the
//! test's target directory and names the path.

use std::sync::Arc;
use xia_server::server::handle_line;
use xia_server::{json, Server, ServerConfig, Value};
use xia_storage::{Collection, Database};
use xia_workload::{FakeClock, XMarkConfig, XMarkGen};

/// Replace `<number><suffix>` with `#<suffix>` for the suffixes wall
/// times (and the host's thread count) are rendered with.
fn mask_text(s: &str) -> String {
    const SUFFIXES: [&str; 5] = [" ms", "s eval", "s\n", "s (", " threads"];
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        let starts_number = bytes[i].is_ascii_digit()
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'.'));
        if starts_number {
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
                j += 1;
            }
            if SUFFIXES.iter().any(|suffix| s[j..].starts_with(suffix)) {
                out.push('#');
            } else {
                out.push_str(&s[i..j]);
            }
            i = j;
        } else {
            let ch = s[i..].chars().next().expect("in bounds");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// Mask every value that carries wall time, the host's core count, or
/// a gauge the committer thread moves asynchronously.
fn mask(v: &Value) -> Value {
    match v {
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    let unstable = matches!(
                        k.as_str(),
                        "elapsed_ms" | "ms" | "threads" | "committer_queue" | "snapshots_alive"
                    ) || k.ends_with("_secs");
                    let masked = if unstable { Value::str("#") } else { mask(v) };
                    (k.clone(), masked)
                })
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.iter().map(mask).collect()),
        Value::Str(s) => Value::str(mask_text(s)),
        other => other.clone(),
    }
}

/// Key paths of a response, values dropped (arrays descend into their
/// first element).
fn key_paths(v: &Value, prefix: &str, out: &mut Vec<String>) {
    match v {
        Value::Obj(fields) => {
            for (k, v) in fields {
                let path = format!("{prefix}.{k}");
                out.push(path.clone());
                key_paths(v, &path, out);
            }
        }
        Value::Arr(items) => {
            if let Some(first) = items.first() {
                key_paths(first, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn wire_responses_match_the_golden_snapshot() {
    let mut coll = Collection::new("auctions");
    XMarkGen::new(XMarkConfig {
        docs: 40,
        ..Default::default()
    })
    .populate(&mut coll);
    let mut db = Database::new();
    assert!(db.add_collection(coll));
    let clock = Arc::new(FakeClock::new());
    clock.set(1_000.0);
    let server = Server::start(
        db,
        ServerConfig {
            threads: 1,
            budget_bytes: 256 << 10,
            clock,
            ..Default::default()
        },
    )
    .expect("daemon starts");
    let state = server.state();

    // A second namespace holding the shape `choose_mode` hands to the
    // navigational walker: a shallow /site/item/price chain whose labels
    // also flood a decoy subtree (set up outside the recorded script).
    let decoys = "<item><price>0</price></item>".repeat(100);
    let mut setup = vec![r#"{"cmd":"tenant","name":"walker","collections":["c"]}"#.to_string()];
    for i in 0..8 {
        let xml = format!("<site><item><price>{i}</price></item><junk>{decoys}</junk></site>");
        setup.push(format!(
            r#"{{"cmd":"insert","tenant":"walker","xml":"{xml}"}}"#
        ));
    }
    for request in &setup {
        let resp = handle_line(state, request);
        assert_eq!(resp.get_bool("ok"), Some(true), "{resp}");
    }

    let script: &[&str] = &[
        r#"{"cmd":"ping"}"#,
        // Reads: a scan, then the same shape through an index.
        r#"{"cmd":"query","q":"//item[quantity >= 1]/name"}"#,
        r#"{"cmd":"query","q":"//closed_auction[price >= 700]/date"}"#,
        r#"{"cmd":"create_index","pattern":"//closed_auction/price","type":"DOUBLE"}"#,
        r#"{"cmd":"create_index","pattern":"//person/profile/age","type":"double","collection":"auctions"}"#,
        r#"{"cmd":"create_index","pattern":"/site/people/person/name"}"#,
        r#"{"cmd":"query","q":"//closed_auction[price >= 700]/date"}"#,
        r#"{"cmd":"query","q":"//closed_auction/price","collection":"auctions"}"#,
        r#"{"cmd":"query","q":"//closed_auction[price >= 700 or price < 20]/date"}"#,
        r#"{"cmd":"query","q":"/site/people/person/name"}"#,
        r#"{"cmd":"query","q":"/site/regions/africa/item/quantity"}"#,
        r#"{"cmd":"explain","q":"//closed_auction[price >= 700]/date"}"#,
        r#"{"cmd":"explain","q":"//person[profile/age > 70]/name"}"#,
        r#"{"cmd":"profile","q":"//closed_auction[price >= 700]/date"}"#,
        r#"{"cmd":"profile","q":"//closed_auction[price >= 700 or price < 20]/date"}"#,
        r#"{"cmd":"profile","q":"//item[quantity >= 1]/name"}"#,
        r#"{"cmd":"profile","q":"/site/people/person/name"}"#,
        // A selective child chain over homonym-heavy documents:
        // `choose_mode` runs it through the navigational walker.
        r#"{"cmd":"query","tenant":"walker","q":"/site/item/price"}"#,
        r#"{"cmd":"profile","tenant":"walker","q":"/site/item/price"}"#,
        // Writes.
        r#"{"cmd":"insert","xml":"<site><people><person><name>Zed</name></person></people></site>"}"#,
        r#"{"cmd":"query","q":"/site/people/person/name"}"#,
        r#"{"cmd":"drop_index","id":1}"#,
        r#"{"cmd":"drop_index","id":1}"#,
        // Advisor.
        r#"{"cmd":"recommend"}"#,
        r#"{"cmd":"recommend","budget_ms":60000}"#,
        r#"{"cmd":"recommend","strategy":"topdown","budget_kib":64}"#,
        r#"{"cmd":"advise"}"#,
        r#"{"cmd":"advise"}"#,
        r#"{"cmd":"workload","collection":"auctions"}"#,
        // Tenants.
        r#"{"cmd":"tenant","name":"acme","collections":["docs"]}"#,
        r#"{"cmd":"tenant","name":"acme"}"#,
        r#"{"cmd":"insert","tenant":"acme","xml":"<r><item><price>42</price></item></r>"}"#,
        r#"{"cmd":"query","tenant":"acme","q":"//item[price = 42]"}"#,
        r#"{"cmd":"recommend","tenant":"acme"}"#,
        r#"{"cmd":"tenant"}"#,
        // Errors.
        r#"{"cmd":"frobnicate"}"#,
        r#"{"cmd":"query"#,
        r#"{"cmd":"query"}"#,
        r#"{"cmd":"query","q":"///bad"}"#,
        r#"{"cmd":"query","q":"//a","collection":"nowhere"}"#,
        r#"{"cmd":"explain"}"#,
        r#"{"cmd":"profile"}"#,
        r#"{"cmd":"insert"}"#,
        r#"{"cmd":"insert","xml":"<a><b></a>"}"#,
        r#"{"cmd":"create_index"}"#,
        r#"{"cmd":"create_index","pattern":"//item/quantity","type":"BLOB"}"#,
        r#"{"cmd":"drop_index"}"#,
        r#"{"cmd":"recommend","strategy":"psychic"}"#,
        r#"{"cmd":"recommend","budget_kib":-1}"#,
        r#"{"cmd":"recommend","budget_ms":0}"#,
        r#"{"cmd":"recommend","collection":"nowhere"}"#,
        r#"{"cmd":"tenant","name":"no/slash"}"#,
        r#"{"cmd":"tenant","name":"acme","collections":"docs"}"#,
        r#"{"cmd":"ping","tenant":"hooli"}"#,
    ];

    let mut lines = Vec::new();
    for request in script {
        lines.push(format!("> {request}"));
        lines.push(format!("< {}", mask(&handle_line(state, request))));
    }
    // STATS: values move with every request and with the clock; the
    // contract pinned here is the shape.
    let stats = handle_line(state, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get_bool("ok"), Some(true), "{stats}");
    lines.push(r#"> {"cmd":"stats"} (key paths)"#.to_string());
    key_paths(&stats, "", &mut lines);
    server.stop();

    // Every line went through the daemon's own renderer; make sure the
    // masked form is still JSON the client could parse.
    for line in lines.iter().filter_map(|l| l.strip_prefix("< ")) {
        json::parse(line).unwrap_or_else(|e| panic!("unparseable response {line}: {e}"));
    }

    let actual = lines.join("\n") + "\n";
    let golden = include_str!("golden/wire_snapshot.txt");
    if actual != golden {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_snapshot.actual.txt");
        std::fs::write(&path, &actual).expect("write actual snapshot");
        for (n, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "line {} differs; full output in {}",
                n + 1,
                path.display()
            );
        }
        panic!(
            "snapshot has {} lines, golden {}; full output in {}",
            actual.lines().count(),
            golden.lines().count(),
            path.display()
        );
    }
}
