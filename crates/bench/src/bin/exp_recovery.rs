//! T10 — Recovery time vs snapshot size.
//!
//! The durability layer's operational question: how long does a cold
//! start take as the database grows, and what does a WAL tail add? For
//! several XMark scales this measures
//!
//! * checkpoint time (write a full generational snapshot),
//! * recovery time from the snapshot alone,
//! * recovery time with a 64-record WAL tail to replay,
//!
//! plus the on-disk snapshot size, confirming recovery is dominated by
//! snapshot load (linear in data) while WAL replay adds microseconds
//! per logged operation.
//!
//! ```text
//! cargo run -p xia-bench --bin exp_recovery --release
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use xia::prelude::*;
use xia_bench::{f, render_table, xmark_collection};

const WAL_TAIL: usize = 64;

fn dir_size(path: &std::path::Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                total += dir_size(&p);
            } else {
                total += entry.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xia_t10_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let mut rows = Vec::new();
    for docs in [50usize, 200, 800, 2000] {
        let mut db = Database::new();
        db.add_collection(xmark_collection(docs));
        let dir = tmp(&format!("d{docs}"));

        // Checkpoint: one full generational snapshot.
        let t = Instant::now();
        let (mut store, _) = DurableStore::open(&dir, Arc::new(RealVfs)).unwrap();
        store.checkpoint(&db).unwrap();
        let ckpt_ms = t.elapsed().as_secs_f64() * 1e3;
        let size_kib = dir_size(&dir) as f64 / 1024.0;

        // Cold start from the snapshot alone.
        let t = Instant::now();
        let rec = recover_database(&RealVfs, &dir).unwrap();
        let rec_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(rec.wal_records, 0);

        // Add a WAL tail and recover again: replay cost on top.
        for i in 0..WAL_TAIL {
            store
                .append(&WalOp::Insert {
                    collection: "auctions".into(),
                    xml: format!(
                        "<site><regions><africa><item id=\"t{i}\"><quantity>1</quantity>\
                         <price>{i}</price></item></africa></regions></site>"
                    ),
                })
                .unwrap();
        }
        let t = Instant::now();
        let rec = recover_database(&RealVfs, &dir).unwrap();
        let rec_wal_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(rec.wal_records, WAL_TAIL);

        rows.push(vec![
            docs.to_string(),
            f(size_kib),
            f(ckpt_ms),
            f(rec_ms),
            f(rec_wal_ms),
            f((rec_wal_ms - rec_ms).max(0.0) * 1e3 / WAL_TAIL as f64),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    print!(
        "{}",
        render_table(
            "T10 — recovery time vs snapshot size (WAL tail = 64 records)",
            &[
                "docs",
                "snapshot KiB",
                "checkpoint ms",
                "recover ms",
                "recover+wal ms",
                "us/wal record",
            ],
            &rows,
        )
    );
}
