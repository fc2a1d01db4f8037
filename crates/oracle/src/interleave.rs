//! Seeded interleaved-writes oracle: hammer the server's committer with
//! concurrent seeded writers and pin the snapshot-isolation contract.
//!
//! This mode drives [`xia_server::Committer`] directly (no TCP), the
//! way the daemon's request handlers do, and checks three invariants:
//!
//! 1. **linearizability** — every acknowledged write carries a global
//!    `commit_seq`; replaying the acknowledged ops *in commit order*
//!    over the base database must reproduce the final published
//!    snapshot's fingerprint exactly — documents and index definitions,
//!    and the statistics and postings derived from them (copy-on-write
//!    sharing between snapshots must never leak a write into an older
//!    one or drop one from a newer one). If the committer ever interleaved
//!    two staged batches, dropped an acked op, or published
//!    out-of-order, the fingerprints split.
//! 2. **prefix consistency** — a reader polling snapshots concurrently
//!    with the writers must see generations and per-collection doc
//!    counts that only move forward, and identical content whenever the
//!    generation is unchanged.
//! 3. **durability parity** — on rounds that run with a WAL, recovering
//!    from disk after the run must land on the same fingerprint as the
//!    commit-order replay (the WAL is written in commit order by
//!    construction of group commit; this checks it).
//!
//! Thread scheduling is the OS's — what is seeded is the *op content*,
//! so a failing seed reproduces the same op mix even though the exact
//! interleaving varies. The invariants hold for every interleaving.

use crate::check::state_fingerprint;
use crate::rng::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use xia_server::{
    submit_and_wait, Committer, CommitterConfig, Metrics, SnapshotCell, WriteCmd, WriteOutcome,
};
use xia_storage::{recover_database, Database, DurableStore, RealVfs, WalOp};
use xia_xml::Document;
use xia_xpath::LinearPath;

/// Configuration for one interleaved-writes run.
#[derive(Debug, Clone)]
pub struct InterleaveConfig {
    pub seed: u64,
    /// Independent rounds (fresh database + committer each).
    pub rounds: u64,
    /// Concurrent writer threads per round.
    pub writers: usize,
    /// Ops submitted by each writer per round.
    pub ops_per_writer: u64,
}

impl InterleaveConfig {
    pub fn new(seed: u64, rounds: u64) -> InterleaveConfig {
        InterleaveConfig {
            seed,
            rounds,
            writers: 4,
            ops_per_writer: 25,
        }
    }
}

/// Result of an interleaved run.
#[derive(Debug, Clone, Default)]
pub struct InterleaveReport {
    pub rounds_run: u64,
    pub ops_acked: u64,
    pub failures: Vec<String>,
}

impl InterleaveReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

const PATTERNS: [&str; 4] = ["//item/price", "//item", "//name", "//item/b"];

fn base_db(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    for name in ["c0", "c1"] {
        db.create_collection(name);
        for i in 0..rng.range(1, 4) {
            db.collection_mut(name).unwrap().insert(
                Document::parse(&format!(
                    "<r><item id=\"seed{i}\"><price>{i}</price></item></r>"
                ))
                .unwrap(),
            );
        }
    }
    db
}

fn gen_cmd(rng: &mut Rng) -> WriteCmd {
    let collection = if rng.chance(1, 2) { "c0" } else { "c1" }.to_string();
    match rng.below(10) {
        0..=6 => {
            let n = rng.below(1000);
            let xml = format!("<r><item id=\"x{n}\"><price>{n}</price></item></r>");
            let doc = Document::parse(&xml).unwrap();
            WriteCmd::Insert {
                collection,
                doc: Arc::new(doc),
                xml,
            }
        }
        7 | 8 => WriteCmd::CreateIndex {
            collection,
            data_type: if rng.chance(1, 2) {
                xia_index::DataType::Double
            } else {
                xia_index::DataType::Varchar
            },
            pattern: LinearPath::parse(rng.pick(&PATTERNS)).unwrap(),
            skip_if_exists: rng.chance(1, 2),
        },
        _ => WriteCmd::DropIndex {
            collection,
            // Often nonexistent: clean-error paths interleave too.
            id: rng.range(1, 6) as u32,
        },
    }
}

/// The WAL-equivalent of an *acknowledged* command, for the commit-order
/// replay. Mirrors what the committer logged for it.
fn replay_op(cmd: &WriteCmd, outcome: &WriteOutcome) -> Option<WalOp> {
    match (cmd, outcome) {
        (
            WriteCmd::Insert {
                collection, xml, ..
            },
            WriteOutcome::Inserted { .. },
        ) => Some(WalOp::Insert {
            collection: collection.clone(),
            xml: xml.clone(),
        }),
        (
            WriteCmd::CreateIndex {
                collection,
                data_type,
                pattern,
                ..
            },
            WriteOutcome::IndexCreated { id, .. },
        ) => Some(WalOp::CreateIndex {
            collection: collection.clone(),
            id: *id,
            data_type: *data_type,
            pattern: pattern.to_string(),
        }),
        (_, WriteOutcome::IndexExisted { .. }) => None, // no-op by design
        (WriteCmd::DropIndex { collection, .. }, WriteOutcome::IndexDropped { id }) => {
            Some(WalOp::DropIndex {
                collection: collection.clone(),
                id: *id,
            })
        }
        _ => None,
    }
}

fn run_round(
    round: u64,
    config: &InterleaveConfig,
    rng: &mut Rng,
    scratch: Option<&std::path::Path>,
    report: &mut InterleaveReport,
) {
    let db = base_db(rng);
    let fp_base = state_fingerprint(&db);
    let cell = Arc::new(SnapshotCell::new(db.clone()));
    let store = scratch.map(|dir| {
        let _ = std::fs::remove_dir_all(dir);
        let (mut s, _) = DurableStore::open(dir, Arc::new(RealVfs)).expect("scratch store opens");
        s.checkpoint(&db).expect("base checkpoint");
        Arc::new(Mutex::new(s))
    });
    let committer = Arc::new(Committer::start(
        cell.clone(),
        store,
        Arc::new(Metrics::new()),
        CommitterConfig {
            max_batch: 8, // small: force many multi-op batches
            checkpoint_every: None,
        },
    ));

    // Concurrent reader: prefix consistency while writers hammer.
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let cell = cell.clone();
        let done = done.clone();
        std::thread::spawn(move || -> Result<(), String> {
            let (mut last_gen, mut last_counts) = (0u64, [0usize; 2]);
            while !done.load(Ordering::Relaxed) {
                let snap = cell.load_slow();
                let generation = snap.generation();
                let counts = [
                    snap.collection("c0").unwrap().len(),
                    snap.collection("c1").unwrap().len(),
                ];
                if generation < last_gen {
                    return Err(format!(
                        "generation went backwards: {last_gen}→{generation}"
                    ));
                }
                if generation == last_gen && counts != last_counts {
                    return Err(format!("generation {generation} changed content"));
                }
                if counts[0] < last_counts[0] || counts[1] < last_counts[1] {
                    return Err(format!("doc count shrank at generation {generation}"));
                }
                last_gen = generation;
                last_counts = counts;
            }
            Ok(())
        })
    };

    // Seeded writers: each gets its own op stream, all race the queue.
    let mut writers = Vec::new();
    for _ in 0..config.writers.max(1) {
        let mut wrng = Rng::new(rng.next_u64());
        let committer = committer.clone();
        let ops = config.ops_per_writer;
        writers.push(std::thread::spawn(move || {
            let mut acked: Vec<(u64, WalOp)> = Vec::new();
            for _ in 0..ops {
                let cmd = gen_cmd(&mut wrng);
                // Clone enough of the cmd to rebuild the replay op.
                let keep = clone_cmd(&cmd);
                match submit_and_wait(&committer, cmd) {
                    Ok(committed) => {
                        if let Some(op) = replay_op(&keep, &committed.outcome) {
                            acked.push((committed.commit_seq, op));
                        }
                    }
                    Err(e) => {
                        // Validation errors (e.g. dropping a missing
                        // index) are expected; queue-level failures are
                        // not possible here (no deadline, no shutdown).
                        let _ = e;
                    }
                }
            }
            acked
        }));
    }
    let mut acked: Vec<(u64, WalOp)> = writers
        .into_iter()
        .flat_map(|w| w.join().expect("writer thread"))
        .collect();
    done.store(true, Ordering::Relaxed);
    if let Err(e) = reader.join().expect("reader thread") {
        report.failures.push(format!(
            "round {round} (seed lineage): reader saw torn state: {e}"
        ));
    }
    committer.stop();
    report.ops_acked += acked.len() as u64;

    // Linearizability: commit-order replay reproduces the final snapshot.
    acked.sort_by_key(|(seq, _)| *seq);
    if acked.windows(2).any(|w| w[0].0 == w[1].0) {
        report
            .failures
            .push(format!("round {round}: duplicate commit_seq"));
        return;
    }
    let mut replayed = db.clone();
    for (_, op) in &acked {
        op.apply(&mut replayed);
    }
    let fp_final = state_fingerprint(&cell.load_slow());
    let fp_replay = state_fingerprint(&replayed);
    if fp_final != fp_replay {
        report.failures.push(format!(
            "round {round}: commit-order replay diverged from the published snapshot\n\
             base {fp_base}\nfinal {fp_final}\nreplay {fp_replay}"
        ));
    }

    // Durability parity: recovery (checkpoint + WAL) lands on the same
    // state the replay computed.
    if let Some(dir) = scratch {
        match recover_database(&RealVfs, dir) {
            Ok(rec) => {
                let fp_disk = state_fingerprint(&rec.database);
                if fp_disk != fp_final {
                    report.failures.push(format!(
                        "round {round}: recovered state diverged from memory\n\
                         disk {fp_disk}\nmem {fp_final}"
                    ));
                }
            }
            Err(e) => report
                .failures
                .push(format!("round {round}: recovery failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

// WriteCmd is not Clone in the server crate (nothing there needs it);
// rebuild the fields the replay op needs. The Arc'd document is shared,
// not reparsed. The wildcard arm exists because feature unification can
// surface the server's testing-only variants here; we never generate them.
#[allow(unreachable_patterns)]
fn clone_cmd(cmd: &WriteCmd) -> WriteCmd {
    match cmd {
        WriteCmd::Insert {
            collection,
            doc,
            xml,
        } => WriteCmd::Insert {
            collection: collection.clone(),
            doc: doc.clone(),
            xml: xml.clone(),
        },
        WriteCmd::CreateIndex {
            collection,
            data_type,
            pattern,
            skip_if_exists,
        } => WriteCmd::CreateIndex {
            collection: collection.clone(),
            data_type: *data_type,
            pattern: pattern.clone(),
            skip_if_exists: *skip_if_exists,
        },
        WriteCmd::DropIndex { collection, id } => WriteCmd::DropIndex {
            collection: collection.clone(),
            id: *id,
        },
        _ => unreachable!("testing-only commands are never generated"),
    }
}

/// Run the interleaved-writes oracle. `progress` is called after each
/// round with (rounds_done, failures_so_far).
pub fn run_interleaved(
    config: &InterleaveConfig,
    mut progress: impl FnMut(u64, usize),
) -> InterleaveReport {
    let scratch_root = std::env::temp_dir().join(format!(
        "xia_interleave_{}_{}",
        std::process::id(),
        config.seed
    ));
    let _ = std::fs::create_dir_all(&scratch_root);
    let mut report = InterleaveReport::default();
    let mut master = Rng::new(config.seed ^ 0x9e3779b97f4a7c15);
    for round in 0..config.rounds {
        let mut round_rng = Rng::new(master.next_u64());
        // Every other round runs with a WAL for the durability-parity leg.
        let scratch = (round % 2 == 0).then(|| scratch_root.join(format!("r{round}")));
        run_round(
            round,
            config,
            &mut round_rng,
            scratch.as_deref(),
            &mut report,
        );
        report.rounds_run += 1;
        progress(report.rounds_run, report.failures.len());
    }
    let _ = std::fs::remove_dir_all(&scratch_root);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned-seed smoke: a short interleaved run must be clean. The
    /// long pinned-seed sweep lives in scripts/check.sh
    /// (`xia fuzz --interleaved --seed 42`).
    #[test]
    fn short_interleaved_run_is_clean() {
        let report = run_interleaved(&InterleaveConfig::new(42, 3), |_, _| {});
        assert_eq!(report.rounds_run, 3);
        assert!(report.ok(), "{:#?}", report.failures);
        assert!(report.ops_acked > 0, "writers actually committed");
    }
}
