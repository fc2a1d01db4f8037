//! The repository's one benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last stdout line is the result
//! benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]               every workload, each in its own process
//! benchmark --compare A.json B.json                                    ratios against the bounds
//! ```
//!
//! It drives the system only from outside — the wire protocol through
//! `Client` against an in-process `Server::start`, and the public
//! functions of each crate — with every input generated from `--seed`
//! here. See `README.md` beside this package for the workloads, the
//! metrics and how the layers are expected to move them.

mod advise;
mod pools;
mod report;
mod rng;
mod serve;
mod serve_trace;
mod stats;
mod trace;

use report::{layer_unit, Layers, RunResult, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xia::server::{json, Value};

/// What one run was asked to do.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Where result files, traces and the durable daemon's data go.
    pub out: PathBuf,
    /// A fraction of the data and a fraction of a second: checks that
    /// every metric is produced, measures nothing.
    pub smoke: bool,
}

impl Run {
    /// Fresh set-ups an end-to-end run makes: `setup_s` is their median
    /// and the last one is measured.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_OUT: &str = ".bench_out";

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Pin this thread, and every thread spawned from it afterwards, to one
/// CPU. Returns whether that worked.
///
/// Every run does this first, because on a small VM *where* the
/// scheduler puts threads decides the result more than the program does.
/// A closed loop hands each request from the caller's thread to a daemon
/// thread and back; a wake-up across virtual CPUs costs some 100 µs each
/// way, one on the same CPU a few (`serve_point` p50: 420 µs apart,
/// 210 µs together, and apart it follows the hypervisor). The advisor's
/// what-if fan-out over two vCPUs makes a cycle slower, not faster
/// (`advise_dup`, same seeds, runs interleaved: 4.8 ms free, 4.2 ms
/// pinned, in eight pairs of eight) and swings twice as far when a
/// neighbour is busy. The benchmark therefore measures CPU work and I/O
/// per op; how the program scales across cores is for a host that has
/// cores to spare.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> bool {
    // The C library std already links; no crate declares these for us.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes`
    // bytes; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    // The highest CPU we may run on: CPU 0 is where a VM's interrupts land.
    let Some(word) = allowed.iter().rposition(|&w| w != 0) else {
        return false;
    };
    let mut only = [0u64; 16];
    only[word] = 1 << (63 - allowed[word].leading_zeros());
    // SAFETY: `only` is a live buffer of `bytes` bytes that the call
    // only reads.
    unsafe { sched_setaffinity(0, bytes, only.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> bool {
    false
}

/// What an end-to-end run measured, besides counting its ops.
pub struct Measured {
    pub summary: stats::Summary,
    /// [`peak_rss_mib`] when the window closed: what set-up and the
    /// window needed, not what the insert probe or recovery add.
    pub peak_rss_mib: f64,
    pub insert_p50_us: f64,
    pub improvement_pct: f64,
    /// One entry per fresh set-up; `setup_s` is their median.
    pub setups_s: Vec<f64>,
}

/// An end-to-end run reports every end-to-end metric, in catalogue
/// order.
pub fn end_to_end_result(
    workload: &'static str,
    run: &Run,
    attempted: u64,
    failed: u64,
    measured: Measured,
    mut detail: Vec<(&'static str, Value)>,
) -> RunResult {
    let Measured {
        summary,
        peak_rss_mib,
        insert_p50_us,
        improvement_pct,
        setups_s,
    } = measured;
    let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::num(x)).collect());
    detail.push(("p95_window_us", Value::num(summary.p95_window_us)));
    detail.push(("p99_us", Value::num(summary.p99_us)));
    detail.push(("max_us", Value::num(summary.max_us)));
    detail.push(("deciles_us", nums(&summary.deciles_us)));
    detail.push(("slice_ops_per_s", nums(&summary.slice_ops_per_s)));
    detail.push(("setups_s", nums(&setups_s)));
    RunResult {
        workload,
        traced: false,
        correct: failed == 0 && summary.samples > 0,
        attempted,
        failed,
        metrics: report::END_TO_END
            .iter()
            .zip([
                summary.ops_per_s,
                summary.p50_us,
                summary.p95_us,
                insert_p50_us,
                improvement_pct,
                peak_rss_mib,
                stats::median(setups_s),
            ])
            .map(|(m, value)| (m.name, value, m.unit))
            .collect(),
        samples: summary.samples,
        window_s: run.seconds,
        detail,
    }
}

/// A traced run reports every per-layer metric, in catalogue order.
pub fn traced_result(
    workload: &'static str,
    layers: &Layers,
    attempted: u64,
    failed: u64,
    detail: Vec<(&'static str, Value)>,
) -> RunResult {
    RunResult {
        workload,
        traced: true,
        correct: failed == 0,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&name| (name, layers.get(name), layer_unit(name)))
            .collect(),
        samples: 0,
        window_s: 0.0,
        detail,
    }
}

pub fn run_workload(name: &str, traced: bool, run: &Run) -> Option<RunResult> {
    if let Some(spec) = serve::spec(name, run.smoke) {
        return Some(if traced {
            serve_trace::run(&spec, run)
        } else {
            serve::run(&spec, run)
        });
    }
    let spec = advise::spec(name, run.smoke)?;
    Some(if traced {
        advise::run_traced(&spec, run)
    } else {
        advise::run(&spec, run)
    })
}

fn result_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "{workload}{}.json",
        if traced { ".traced" } else { "" }
    ))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: PathBuf,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        out: PathBuf::from(DEFAULT_OUT),
        smoke: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s}: out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

/// Run every workload, each in a process of its own so that
/// `peak_rss_mib` is that workload's alone, and gather the results
/// into one document.
fn run_all(args: &Args, seconds: f64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if args.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child; its report goes straight to
            // our stdout.
            let status = child.status().map_err(|e| format!("{workload}: {e}"))?;
            if !status.success() {
                return Err(format!("{workload}: run exited with {status}"));
            }
            let path = result_path(&args.out, workload, traced);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            results.push(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    let all = Value::obj(vec![
        ("fingerprint", report::fingerprint(args.seed, seconds)),
        ("workloads", Value::Arr(results)),
    ]);
    let path = args.out.join("benchmark.json");
    report::write_json(&path, &all).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("benchmark: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.3 } else { DEFAULT_SECONDS });
    let Some(workload) = &args.workload else {
        return match run_all(&args, seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(1)
            }
        };
    };
    let run = Run {
        seed: args.seed,
        seconds,
        out: args.out.clone(),
        smoke: args.smoke,
    };
    // Taken before pinning, which narrows what `nproc` sees to one.
    let fingerprint = report::fingerprint(args.seed, seconds);
    let pinned = pin_to_one_cpu();
    if !pinned {
        eprintln!("benchmark: could not pin to one CPU; expect the scheduler in the numbers");
    }
    let mut result = run_workload(workload, args.traced, &run).expect("workload name was checked");
    result
        .detail
        .push(("pinned_to_one_cpu", Value::Bool(pinned)));
    let record = result.to_json(&fingerprint);
    if let Err(e) = report::write_json(&result_path(&args.out, workload, args.traced), &record) {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    result.print();
    println!("{}", result.contract_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fraction of the data for a fraction of a second, through the
    /// same code: every workload must produce every metric it names,
    /// with nothing failed.
    #[test]
    fn smoke_run_reports_every_metric_for_every_workload() {
        let out = std::env::temp_dir().join(format!("xia-benchmark-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        let run = Run {
            seed: 42,
            seconds: 0.2,
            out: out.clone(),
            smoke: true,
        };
        for workload in WORKLOADS {
            let e2e = run_workload(workload, false, &run).unwrap();
            assert!(
                e2e.correct,
                "{workload}: {} of {} failed",
                e2e.failed, e2e.attempted
            );
            let names: Vec<&str> = e2e.metrics.iter().map(|(n, _, _)| *n).collect();
            let expected: Vec<&str> = report::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{workload}");
            for (name, value, _) in &e2e.metrics {
                assert!(*value > 0.0, "{workload}/{name} = {value}");
            }

            let traced = run_workload(workload, true, &run).unwrap();
            assert!(
                traced.correct,
                "{workload} traced: {} failed",
                traced.failed
            );
            let names: Vec<&str> = traced.metrics.iter().map(|(n, _, _)| *n).collect();
            assert_eq!(names, PER_LAYER, "{workload}");
            assert!(out.join(format!("trace-{workload}.jsonl")).exists());
            // The contract line parses back and has exactly four keys.
            let line = json::parse(&traced.contract_line()).unwrap();
            let Value::Obj(fields) = &line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload serve_scan --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("serve_scan"), 7, Some(10.0), true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
    }
}
