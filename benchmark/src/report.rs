//! What a run reports: the metric catalogue, the result record each
//! run writes, the run fingerprint, and `--compare`.

use std::collections::BTreeMap;
use std::path::Path;
use xia::server::{json, Value};

pub const WORKLOADS: [&str; 5] = [
    "serve_point",
    "serve_scan",
    "serve_mixed",
    "advise_templates",
    "advise_dup",
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen (`BENCHMARK.json` records the
/// same four; a unit test keeps the two in step).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "insert_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "improvement_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics of the traced run, `<crate>.<what>`; the unit is
/// the name's suffix (`_us`, `_ms`, `_ns`, `_pct`, `_share`/`_rate`
/// ratios) or a plain count. A workload that does not exercise a layer
/// reports 0 for it: it spent nothing there.
pub const PER_LAYER: [&str; 58] = [
    "client.p50_us",
    "client.p99_us",
    "client.max_us",
    "client.insert_p50_us",
    "client.two_callers_p50_us",
    "server.ping_rtt_us",
    "server.handle_line_us",
    "server.json_parse_us",
    "server.json_render_us",
    "server.unattributed_us",
    "server.stats_query_p50_us",
    "server.commit_batches",
    "server.commit_batch_ops",
    "server.snapshots_published",
    "server.shed",
    "server.busy",
    "server.advise_cold_ms",
    "server.advise_reused_ms",
    "xquery.compile_us",
    "optimizer.plan_us",
    "optimizer.exec_us",
    "optimizer.exec_us.xscan",
    "optimizer.exec_us.xiscan",
    "optimizer.exec_us.ixand",
    "optimizer.exec_us.ixor",
    "optimizer.exec_us.xiscan-only",
    "optimizer.exec_share",
    "optimizer.docs_evaluated_per_op",
    "optimizer.entries_scanned_per_op",
    "optimizer.pages_read_per_op",
    "optimizer.rows_per_op",
    "optimizer.rows_per_entry",
    "optimizer.navigational_share",
    "workload.observe_us",
    "workload.monitor_evictions",
    "workload.monitor_folds",
    "xml.parse_us",
    "storage.insert_us",
    "storage.wal_append_us",
    "storage.wal_bytes_per_insert",
    "storage.recover_ms",
    "storage.checkpoint_ms",
    "index.build_ms",
    "index.bytes_total",
    "core.cycle_ms",
    "core.compress_ms",
    "core.candidates_ms",
    "core.generalize_ms",
    "core.whatif_ms",
    "core.search_ms",
    "core.templates",
    "core.dag_nodes",
    "core.optimizer_calls",
    "core.configs_evaluated",
    "core.query_cache_hit_rate",
    "core.improvement_pct",
    "trace.stage_sum_share",
    "trace.span_cost_ns",
];

pub fn layer_unit(name: &str) -> &'static str {
    const SUFFIXES: [(&str, &str); 7] = [
        ("_us", "us"),
        ("_ms", "ms"),
        ("_ns", "ns"),
        ("_pct", "%"),
        ("_share", "ratio"),
        ("_rate", "ratio"),
        ("_per_entry", "ratio"),
    ];
    let stem = name
        .find("_us.")
        .map_or(name, |at| &name[..at + "_us".len()]);
    SUFFIXES
        .iter()
        .find(|(suffix, _)| stem.ends_with(suffix))
        .map_or("count", |(_, unit)| unit)
}

/// Layer figures by name; anything not set reads as 0.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.contains(&name), "unlisted layer metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The outcome of one run of one workload, traced or not.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, unit), in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Latency samples behind p50/p95 (0 on a traced run).
    pub samples: usize,
    pub window_s: f64,
    /// Free-form detail recorded in the result file (op counts, plan
    /// shapes seen, DDL recommended…).
    pub detail: Vec<(&'static str, Value)>,
}

impl RunResult {
    fn metrics_json(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    let entry = vec![("value", Value::num(*value)), ("unit", Value::str(*unit))];
                    (name.to_string(), Value::obj(entry))
                })
                .collect(),
        )
    }

    /// The contract line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn contract_line(&self) -> String {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::num(self.attempted as f64)),
            ("failed", Value::num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .to_string()
    }

    /// The full record: the contract fields plus what a reader needs to
    /// trust them.
    pub fn to_json(&self, fingerprint: &Value) -> Value {
        let mut out = Value::obj(vec![
            ("workload", Value::str(self.workload)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::num(self.attempted as f64)),
            ("failed", Value::num(self.failed as f64)),
            (
                "failed_share",
                Value::num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("samples", Value::num(self.samples as f64)),
            ("window_s", Value::num(self.window_s)),
            (
                "short_window",
                Value::Bool(!self.traced && self.window_s < SHORT_WINDOW_S),
            ),
            ("metrics", self.metrics_json()),
            ("fingerprint", fingerprint.clone()),
        ]);
        if let Value::Obj(f) = &mut out {
            f.extend(self.detail.iter().map(|(k, v)| (k.to_string(), v.clone())));
        }
        out
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self) {
        let pass = if self.traced { "traced" } else { "end to end" };
        println!(
            "== {} ({pass}): attempted {} failed {} correct {} samples {} window {:.2} s{}",
            self.workload,
            self.attempted,
            self.failed,
            self.correct,
            self.samples,
            self.window_s,
            if !self.traced && self.window_s < SHORT_WINDOW_S {
                "  short_window: true"
            } else {
                ""
            }
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>14.3} {unit}");
        }
    }
}

/// Below this a timed window is too short for its percentiles to be
/// trusted; the run is marked, not failed.
pub const SHORT_WINDOW_S: f64 = 5.0;

/// What produced a result: enough to tell whether two result files are
/// comparable, and whether the same code produced them.
pub fn fingerprint(seed: u64, seconds: f64) -> Value {
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let or_unknown = |s: Option<String>| {
        s.filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    // Uncommitted changes make the revision say nothing about the code.
    let dirty = !matches!(tool("git", &["status", "--porcelain"]), Some(s) if s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj(vec![
        (
            "git_rev",
            Value::str(or_unknown(tool("git", &["rev-parse", "HEAD"]))),
        ),
        ("git_dirty", Value::Bool(dirty)),
        ("nproc", Value::num(nproc as f64)),
        (
            "rustc",
            Value::str(or_unknown(tool("rustc", &["--version"]))),
        ),
        ("profile", Value::str("release")),
        ("seed", Value::num(seed as f64)),
        ("seconds", Value::num(seconds)),
    ])
}

pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    std::fs::write(path, format!("{value}\n"))
}

/// Whether two fingerprints prove the same code: the same known
/// revision, with nothing uncommitted on either side.
fn same_code(a: &Value, b: &Value) -> bool {
    let clean_rev = |f: &Value| {
        let rev = f.get_str("git_rev").filter(|&r| r != "unknown")?;
        (f.get_bool("git_dirty") == Some(false)).then(|| rev.to_string())
    };
    matches!((clean_rev(a), clean_rev(b)), (Some(x), Some(y)) if x == y)
}

/// `--compare A.json B.json`: for every workload × end-to-end metric,
/// B's value over A's, the bound, and a verdict. Files measured with
/// different seeds or windows, or holding a run with failed ops, are
/// not compared at all. When A and B provably come from the same code,
/// any pair outside its bound is noise the benchmark cannot resolve,
/// and says so. Passes when nothing regressed and nothing is unresolved.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        let runs = doc.get("workloads").and_then(Value::as_arr);
        for run in runs.ok_or(format!("{}: no workloads", p.display()))? {
            if run.get_bool("correct") != Some(true) {
                return Err(format!(
                    "{}: {} has failed ops; its numbers mean nothing",
                    p.display(),
                    run.get_str("workload").unwrap_or("a run")
                ));
            }
        }
        Ok(doc)
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let empty = Value::obj(vec![]);
    let (fa, fb) = (
        a.get("fingerprint").unwrap_or(&empty),
        b.get("fingerprint").unwrap_or(&empty),
    );
    for key in ["seed", "seconds"] {
        if fa.get_f64(key) != fb.get_f64(key) {
            return Err(format!(
                "{key} differs ({:?} against {:?}): not the same measurement",
                fa.get_f64(key),
                fb.get_f64(key)
            ));
        }
    }
    let same_code = same_code(fa, fb);
    let rev = |f: &Value| {
        format!(
            "{}{}",
            f.get_str("git_rev").unwrap_or("unknown"),
            if f.get_bool("git_dirty") == Some(false) {
                ""
            } else {
                ", uncommitted changes"
            }
        )
    };
    println!(
        "A = {} ({})\nB = {} ({})\n{:<18} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        a_path.display(),
        rev(fa),
        b_path.display(),
        rev(fb),
        "workload",
        "metric",
        "A",
        "B",
        "B/A",
        "bound"
    );
    let value_of = |doc: &Value, workload: &str, metric: &str| {
        doc.get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| {
                w.get_str("workload") == Some(workload) && w.get_bool("traced") == Some(false)
            })?
            .get("metrics")?
            .get(metric)?
            .get_f64("value")
    };
    let mut pass = true;
    for workload in WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                value_of(&a, workload, m.name),
                value_of(&b, workload, m.name),
            ) else {
                return Err(format!(
                    "{workload}/{} missing from one of the files",
                    m.name
                ));
            };
            let verdict = verdict(va, vb, m, same_code);
            pass &= matches!(verdict, "within bound" | "improvement");
            println!(
                "{workload:<18} {:<16} {va:>14.3} {vb:>14.3} {:>8.3} {:>6.2}  {verdict}",
                m.name,
                vb / va,
                m.bound
            );
        }
    }
    Ok(pass)
}

fn verdict(a: f64, b: f64, m: &EndToEnd, same_code: bool) -> &'static str {
    // Worsening as a share of A, whichever direction is worse.
    let worse = match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse.abs() <= m.bound {
        "within bound"
    } else if same_code {
        "unresolved (same code differs by more than the bound)"
    } else if worse > 0.0 {
        "REGRESSION"
    } else {
        "improvement"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_units_follow_the_name() {
        assert_eq!(layer_unit("optimizer.exec_us.xiscan-only"), "us");
        assert_eq!(layer_unit("core.search_ms"), "ms");
        assert_eq!(layer_unit("trace.span_cost_ns"), "ns");
        assert_eq!(layer_unit("core.improvement_pct"), "%");
        assert_eq!(layer_unit("optimizer.rows_per_entry"), "ratio");
        assert_eq!(layer_unit("core.query_cache_hit_rate"), "ratio");
        assert_eq!(layer_unit("index.bytes_total"), "count");
        assert_eq!(layer_unit("optimizer.rows_per_op"), "count");
    }

    #[test]
    fn verdicts_respect_direction_bound_and_provenance() {
        let lower = &END_TO_END[1];
        let higher = &END_TO_END[0];
        assert_eq!((lower.bound, higher.bound), (0.25, 0.25));
        assert_eq!(verdict(100.0, 120.0, lower, false), "within bound");
        assert_eq!(verdict(100.0, 130.0, lower, false), "REGRESSION");
        assert_eq!(verdict(100.0, 70.0, lower, false), "improvement");
        assert_eq!(verdict(100.0, 70.0, higher, false), "REGRESSION");
        assert_eq!(verdict(100.0, 130.0, higher, false), "improvement");
        assert!(verdict(100.0, 130.0, lower, true).starts_with("unresolved"));
    }

    #[test]
    fn only_a_clean_known_revision_proves_the_same_code() {
        let print = |rev: &str, dirty: bool| {
            Value::obj(vec![
                ("git_rev", Value::str(rev)),
                ("git_dirty", Value::Bool(dirty)),
            ])
        };
        assert!(same_code(&print("abc", false), &print("abc", false)));
        assert!(!same_code(&print("abc", false), &print("abd", false)));
        assert!(!same_code(&print("abc", false), &print("abc", true)));
        assert!(!same_code(
            &print("unknown", false),
            &print("unknown", false)
        ));
        assert!(!same_code(&Value::obj(vec![]), &Value::obj(vec![])));
    }

    /// The package has a manifest of its own, so its release profile is
    /// a copy of the workspace's; the benchmark must measure the code as
    /// the workspace builds it.
    #[test]
    fn release_profile_is_the_workspaces() {
        let release = |manifest: &str| -> Vec<String> {
            let text = std::fs::read_to_string(manifest).expect(manifest);
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let ours = release(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(
            ours,
            release(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
        );
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue above is
    /// what the program emits. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| m.get_str("name").expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(names("per_layer"), PER_LAYER);
        for (entry, m) in doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(entry.get_str("unit"), Some(m.unit));
            assert_eq!(entry.get_f64("bound"), Some(m.bound));
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(entry.get_str("better"), Some(better));
        }
        for entry in doc.get("per_layer").unwrap().as_arr().unwrap() {
            let name = entry.get_str("name").unwrap();
            assert_eq!(entry.get_str("unit"), Some(layer_unit(name)), "{name}");
        }
    }
}
