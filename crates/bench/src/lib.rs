//! Shared scaffolding for the paper reproduction and the daemon
//! experiments.
//!
//! [`repro`] holds the demo figures and experiment tables (F2–F5,
//! T1–T8) that the `repro` binary prints and `tests/repro_snapshot.rs`
//! pins; each remaining `exp_*` binary under `src/bin/` measures the
//! daemon and appends its run to a trajectory file with [`append_run`].

pub mod repro;

use std::path::Path;
use xia::prelude::*;
use xia::server::{json, Value};

/// Standard XMark-like collection used by the harnesses.
pub fn xmark_collection(docs: usize) -> Collection {
    let mut c = Collection::new("auctions");
    XMarkGen::new(XMarkConfig {
        docs,
        ..Default::default()
    })
    .populate(&mut c);
    c
}

/// The demo's standard training workload over the XMark-like schema:
/// regional extractions (generalizable), selective value predicates on
/// both key types, an attribute lookup, and non-XPath surface languages.
pub fn standard_queries() -> Vec<String> {
    vec![
        "/site/regions/africa/item/quantity".into(),
        "/site/regions/namerica/item/quantity".into(),
        "/site/regions/samerica/item/price".into(),
        "/site/regions/europe/item[price > 450]/name".into(),
        "//person[profile/age > 70]/name".into(),
        "//closed_auction[price >= 700]/date".into(),
        r#"//item[@featured = "yes"]/name"#.into(),
        r#"for $a in collection("auctions")//open_auction where $a/initial >= 90 return $a/current"#
            .into(),
        r#"SELECT XMLQUERY('$d//person/emailaddress') FROM auctions WHERE XMLEXISTS('$d//person[profile/age > 75]')"#
            .into(),
    ]
}

/// Render an aligned text table, preceded by a blank line and its title.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<&str>| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}  ", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect()
    };
    let header = line(headers.to_vec());
    let mut out = format!(
        "\n=== {title} ===\n{header}\n{}\n",
        "-".repeat(header.len())
    );
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
        out.push('\n');
    }
    out
}

/// Format a float cell.
pub fn f(v: f64) -> String {
    format!("{v:.1}")
}

/// Shorten a query string to `n` bytes on a char boundary for table cells.
pub fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        let cut = s
            .char_indices()
            .take_while(|(i, _)| *i < n)
            .last()
            .map_or(0, |(i, _)| i);
        format!("{}…", &s[..cut])
    }
}

/// The `p`-quantile (0..=1) of sorted microsecond latencies; 0 when empty.
pub fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Append `run` to the trajectory file at `path`, the one envelope every
/// experiment writes: `{"benchmark": bench, …, "runs": [...]}`.
///
/// The run is stamped with `unix_secs`, `nproc` and `git_rev` (the
/// checkout holding `path`, or `"unknown"`). Prior runs and any other
/// top-level fields are kept. A file that exists but does not parse as
/// such an envelope is left untouched and reported, never replaced; the
/// new file is written beside it and renamed into place.
pub fn append_run(path: &Path, bench: &str, run: Vec<(&str, Value)>) -> Result<(), String> {
    let refuse = |why: String| format!("{}: {why}; refusing to overwrite it", path.display());
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => match json::parse(&text) {
            Ok(Value::Obj(fields)) => fields,
            Ok(_) => return Err(refuse("not a JSON object".into())),
            Err(e) => return Err(refuse(format!("unparseable ({e})"))),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(refuse(e.to_string())),
    };
    let mut runs = match doc.iter().position(|(k, _)| k == "runs") {
        Some(i) => match doc.remove(i).1 {
            Value::Arr(runs) => runs,
            _ => return Err(refuse("`runs` is not an array".into())),
        },
        None => Vec::new(),
    };
    doc.retain(|(k, _)| k != "benchmark");
    doc.insert(0, ("benchmark".into(), Value::str(bench)));

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut stamped = vec![
        ("unix_secs".to_string(), Value::num(unix_secs as f64)),
        ("nproc".to_string(), Value::num(nproc() as f64)),
        ("git_rev".to_string(), Value::str(git_rev(path))),
    ];
    stamped.extend(run.into_iter().map(|(k, v)| (k.to_string(), v)));
    runs.push(Value::Obj(stamped));
    doc.push(("runs".into(), Value::Arr(runs)));

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, format!("{}\n", Value::Obj(doc)))
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `git rev-parse HEAD` in the directory holding `path`.
fn git_rev(path: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(path.parent().unwrap_or(Path::new("")))
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xia-bench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn standard_queries_compile() {
        let w = repro::workload_from(&standard_queries());
        assert_eq!(w.query_count(), standard_queries().len());
    }

    #[test]
    fn builders_produce_data() {
        assert_eq!(xmark_collection(3).len(), 3);
        assert!(
            repro::xmark_collection_heavy(2).stats().total_nodes
                > xmark_collection(2).stats().total_nodes
        );
    }

    #[test]
    fn append_keeps_prior_runs_and_fields() {
        let dir = scratch("append");
        let path = dir.join("BENCH_x.json");
        std::fs::write(
            &path,
            r#"{"benchmark":"x","baseline":{"a":1},"runs":[{"n":1}]}"#,
        )
        .unwrap();
        append_run(&path, "x", vec![("n", Value::num(2))]).unwrap();
        append_run(&path, "x", vec![("n", Value::num(3))]).unwrap();

        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get_str("benchmark"), Some("x"));
        assert_eq!(doc.get("baseline").and_then(|b| b.get_f64("a")), Some(1.0));
        let runs = doc.get("runs").and_then(Value::as_arr).unwrap();
        let ns: Vec<f64> = runs.iter().filter_map(|r| r.get_f64("n")).collect();
        assert_eq!(ns, [1.0, 2.0, 3.0]);
        for run in &runs[1..] {
            assert!(run.get_f64("unix_secs").is_some_and(|t| t > 0.0), "{run}");
            assert!(run.get_f64("nproc").is_some_and(|n| n >= 1.0), "{run}");
            assert!(run.get_str("git_rev").is_some(), "{run}");
        }
        assert!(!dir.join("BENCH_x.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_left_byte_unchanged() {
        let dir = scratch("corrupt");
        let path = dir.join("BENCH_x.json");
        let corrupt = b"{\"benchmark\":\"x\",\"runs\":[{\"n\":1}, \xff truncated";
        std::fs::write(&path, corrupt).unwrap();
        let err = append_run(&path, "x", vec![("n", Value::num(2))]).unwrap_err();
        assert!(err.contains("BENCH_x.json"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), corrupt);

        std::fs::write(&path, r#"{"runs":"not a list"}"#).unwrap();
        assert!(append_run(&path, "x", vec![]).is_err());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            r#"{"runs":"not a list"}"#
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
