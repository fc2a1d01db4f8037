//! One mutation path: the committer validates each write into the WAL
//! record it logs and applies that record with the applier recovery
//! replays the WAL with. So after every command, refused and no-op ones
//! included, the published state equals what recovery rebuilds from
//! disk, and a panic mid-batch rebuilds the staged state through the
//! same applier. A store mutex poisoned by a panicking writer is healed
//! on the next commit and counted.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use xia_index::DataType;
use xia_server::committer::WriteResult;
use xia_server::{
    submit_and_wait, Committer, CommitterConfig, Metrics, SnapshotCell, WriteCmd, WriteOutcome,
};
use xia_storage::{
    derived_fingerprint, fingerprint, recover_database, Database, DurableStore, RealVfs,
};
use xia_xml::Document;
use xia_xpath::LinearPath;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xia_one_path_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_db() -> Database {
    let mut db = Database::new();
    db.create_collection("shop");
    for i in 0..4 {
        let xml = format!("<shop><item><name>n{i}</name><price>{i}</price></item></shop>");
        db.collection_mut("shop")
            .unwrap()
            .insert(Document::parse(&xml).unwrap());
    }
    db
}

/// A checkpointed store over `db` at `dir`, shared the way the server
/// shares it with its committer.
fn store_over(db: &Database, dir: &std::path::Path) -> Arc<Mutex<DurableStore>> {
    let (mut store, _) = DurableStore::open(dir, Arc::new(RealVfs)).expect("store opens");
    store.checkpoint(db).expect("base checkpoint");
    Arc::new(Mutex::new(store))
}

fn insert(collection: &str, xml: &str) -> WriteCmd {
    WriteCmd::Insert {
        collection: collection.into(),
        doc: Arc::new(Document::parse(xml).unwrap()),
        xml: xml.into(),
    }
}

fn create_index(collection: &str, pattern: &str, data_type: DataType, skip: bool) -> WriteCmd {
    WriteCmd::CreateIndex {
        collection: collection.into(),
        data_type,
        pattern: LinearPath::parse(pattern).unwrap(),
        skip_if_exists: skip,
    }
}

fn drop_index(collection: &str, id: u32) -> WriteCmd {
    WriteCmd::DropIndex {
        collection: collection.into(),
        id,
    }
}

fn create_collection(collection: &str) -> WriteCmd {
    WriteCmd::CreateCollection {
        collection: collection.into(),
    }
}

#[derive(Debug, PartialEq)]
enum Expect {
    /// Committed: one WAL record.
    Logged,
    /// Succeeded without a WAL record.
    NoOp,
    /// Refused: an error, no WAL record.
    Refused,
}

#[test]
fn every_command_leaves_the_published_state_equal_to_recovery() {
    let dir = scratch("arms");
    let db = base_db();
    let cell = Arc::new(SnapshotCell::new(db.clone()));
    let metrics = Arc::new(Metrics::new());
    let committer = Committer::start(
        cell.clone(),
        Some(store_over(&db, &dir)),
        metrics.clone(),
        CommitterConfig {
            checkpoint_every: None,
            ..CommitterConfig::default()
        },
    );
    let price = "//item/price";
    let steps = [
        (
            insert("shop", "<shop><item><price>9</price></item></shop>"),
            Expect::Logged,
        ),
        (insert("nowhere", "<a/>"), Expect::Refused),
        (
            create_index("shop", price, DataType::Double, false),
            Expect::Logged,
        ),
        (
            create_index("shop", price, DataType::Double, true),
            Expect::NoOp,
        ),
        (
            create_index("shop", price, DataType::Varchar, true),
            Expect::Logged,
        ),
        (
            create_index("nowhere", price, DataType::Double, false),
            Expect::Refused,
        ),
        (
            insert("shop", "<shop><item><price>7</price></item></shop>"),
            Expect::Logged,
        ),
        (drop_index("shop", 1), Expect::Logged),
        (drop_index("shop", 1), Expect::Refused),
        (drop_index("nowhere", 2), Expect::Refused),
        (create_collection("tenant"), Expect::Logged),
        (create_collection("shop"), Expect::NoOp),
        (insert("tenant", "<t><price>1</price></t>"), Expect::Logged),
        (
            create_index("tenant", price, DataType::Double, false),
            Expect::Logged,
        ),
    ];
    for (i, (cmd, expect)) in steps.into_iter().enumerate() {
        let appends = metrics.health.wal_appends.load(Ordering::Relaxed);
        let result = submit_and_wait(&committer, cmd);
        let logged = metrics.health.wal_appends.load(Ordering::Relaxed) - appends;
        let got = match (&result, logged) {
            (Ok(_), 1) => Expect::Logged,
            (Ok(_), 0) => Expect::NoOp,
            (Err(_), 0) => Expect::Refused,
            _ => panic!("step {i}: {result:?} with {logged} WAL records"),
        };
        assert_eq!(got, expect, "step {i}: {result:?}");

        let live = cell.load_slow();
        let recovered = recover_database(&RealVfs, &dir).expect("recovers");
        assert_eq!(
            fingerprint(live.database()),
            fingerprint(&recovered.database),
            "step {i}: published state != recovery"
        );
        assert_eq!(
            derived_fingerprint(live.database()),
            derived_fingerprint(&recovered.database),
            "step {i}: published statistics/postings != recovery"
        );
    }
    // Index ids are per collection: the tenant's first index is idx1,
    // the shop's second (after idx1 was dropped, idx2 remains) is idx2.
    let live = cell.load_slow();
    let ids = |c: &str| -> Vec<u32> {
        let coll = live.database().collection(c).unwrap();
        coll.indexes()
            .iter()
            .map(|ix| ix.definition().id.0)
            .collect()
    };
    assert_eq!(ids("shop"), [2]);
    assert_eq!(ids("tenant"), [1]);
    committer.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batch both runs share: a Panic job, when given, goes third.
fn batch(with_panic: bool) -> Vec<WriteCmd> {
    let mut cmds = vec![
        insert("shop", "<shop><item><price>11</price></item></shop>"),
        create_index("shop", "//item/price", DataType::Double, false),
        insert("shop", "<shop><item><price>12</price></item></shop>"),
        drop_index("shop", 1),
    ];
    if with_panic {
        cmds.insert(2, WriteCmd::Panic);
    }
    cmds
}

#[test]
fn a_panic_mid_batch_rebuilds_through_the_same_applier() {
    let dir = scratch("panic");
    let db = base_db();
    let cell = Arc::new(SnapshotCell::new(db.clone()));
    let store = store_over(&db, &dir);
    let committer = Committer::start(
        cell.clone(),
        Some(store.clone()),
        Arc::new(Metrics::new()),
        CommitterConfig::default(),
    );

    // A no-op commit logs nothing and is answered; then the committer's
    // checkpoint check blocks on the store mutex held here. The batch
    // queues behind it and is drained as one group commit.
    let held = store.lock().unwrap();
    let noop = committer.submit(create_collection("shop"), None).unwrap();
    assert!(noop.recv().unwrap().is_ok());
    let pending: Vec<mpsc::Receiver<WriteResult>> = batch(true)
        .into_iter()
        .map(|cmd| committer.submit(cmd, None).unwrap())
        .collect();
    drop(held);
    let results: Vec<WriteResult> = pending.iter().map(|rx| rx.recv().unwrap()).collect();

    let err = results[2].as_ref().unwrap_err();
    assert!(err.contains("panicked"), "{err}");
    for (i, r) in results.iter().enumerate().filter(|(i, _)| *i != 2) {
        let c = r.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
        assert_eq!(c.batch_ops, 4, "job {i} shares the group commit");
    }
    assert!(matches!(
        results[4].as_ref().unwrap().outcome,
        WriteOutcome::IndexDropped { id: 1 }
    ));
    committer.stop();

    let clean = Arc::new(SnapshotCell::new(db));
    let reference = Committer::start(
        clean.clone(),
        None,
        Arc::new(Metrics::new()),
        CommitterConfig::default(),
    );
    for cmd in batch(false) {
        submit_and_wait(&reference, cmd).expect("reference commit");
    }
    reference.stop();

    let (live, want) = (cell.load_slow(), clean.load_slow());
    assert_eq!(fingerprint(live.database()), fingerprint(want.database()));
    assert_eq!(
        derived_fingerprint(live.database()),
        derived_fingerprint(want.database())
    );
    let recovered = recover_database(&RealVfs, &dir).expect("recovers");
    assert_eq!(
        fingerprint(&recovered.database),
        fingerprint(live.database())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer that panicked holding the store mutex poisons it; the next
/// commit heals the lock and counts it in `lock_recoveries`.
#[test]
fn a_poisoned_store_lock_is_healed_and_counted() {
    let dir = scratch("poison");
    let db = base_db();
    let store = store_over(&db, &dir);
    let holder = store.clone();
    let _ = std::thread::spawn(move || {
        let _held = holder.lock().unwrap();
        panic!("poisoning the store mutex on purpose");
    })
    .join();
    assert!(store.is_poisoned());

    let metrics = Arc::new(Metrics::new());
    let committer = Committer::start(
        Arc::new(SnapshotCell::new(db)),
        Some(store),
        metrics.clone(),
        CommitterConfig::default(),
    );
    let cmd = insert("shop", "<shop><item><price>5</price></item></shop>");
    submit_and_wait(&committer, cmd).expect("insert commits");
    assert_eq!(metrics.health.lock_recoveries.load(Ordering::Relaxed), 1);
    committer.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
