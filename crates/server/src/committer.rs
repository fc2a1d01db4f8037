//! The single-writer committer: every mutation (INSERT, CREATE-INDEX,
//! DROP-INDEX, auto-apply) is a job in one queue, drained by one thread
//! that stages batches copy-on-write and publishes them atomically.
//!
//! ## Group commit
//!
//! The committer blocks on its queue, then greedily drains up to
//! [`CommitterConfig::max_batch`] more pending jobs and commits the
//! whole batch as one unit:
//!
//! 1. **cull** jobs whose deadline already passed while queued (they
//!    get `TIMEOUT`, not a late commit);
//! 2. **stage**: clone the current snapshot's database — copy-on-write,
//!    so only the collections the batch touches are actually copied —
//!    validate each job into the [`WalOp`] it will log, and apply that
//!    op to the staged clone with [`WalOp::apply_parsed`], the applier
//!    recovery replays the WAL with (so live state and replay cannot
//!    diverge);
//! 3. **log**: append every successful op to the WAL with **one**
//!    write + fsync ([`DurableStore::append_batch`]);
//! 4. **publish** the staged database as the next snapshot generation;
//! 5. **acknowledge** each job, carrying its commit generation and a
//!    global commit sequence number.
//!
//! Readers never wait: they keep serving the previous snapshot until
//! the publish lands. An acknowledged write is both durable (fsynced)
//! and visible (published) — in that order.
//!
//! ## Self-healing
//!
//! A panic while applying one job is caught per-op: the job is failed,
//! the staged clone is rebuilt from the base snapshot by replaying the
//! batch's already-successful ops through the same applier (with the
//! documents already parsed), and the rest of the batch proceeds.
//! Published snapshots are immutable, so a panicking writer can never
//! corrupt what readers see — the poisoned-`RwLock` recovery dance this
//! architecture replaced is simply gone. If the committer thread itself
//! ever dies, the next [`Committer::submit`] respawns it against the
//! same shared state (counted in `concurrency.committer_restarts`).

use crate::metrics::Metrics;
use crate::server::heal_lock;
use crate::snapshot::SnapshotCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use xia_index::{DataType, IndexDefinition, IndexId};
use xia_storage::{Applied, Database, DurableStore, WalOp};
use xia_xml::Document;
use xia_xpath::LinearPath;

/// Committer tuning.
#[derive(Clone)]
pub struct CommitterConfig {
    /// Upper bound on jobs drained into one group commit.
    pub max_batch: usize,
    /// Roll a snapshot generation once the WAL holds this many records.
    pub checkpoint_every: Option<u64>,
}

impl Default for CommitterConfig {
    fn default() -> Self {
        CommitterConfig {
            max_batch: 64,
            checkpoint_every: Some(1024),
        }
    }
}

/// One mutation, parsed and validated as far as possible by the
/// submitting worker so the serial committer does minimal work.
pub enum WriteCmd {
    Insert {
        collection: String,
        /// Parsed on the worker thread; the committer only indexes it.
        doc: Arc<Document>,
        /// Original text, logged verbatim to the WAL.
        xml: String,
    },
    CreateIndex {
        collection: String,
        data_type: DataType,
        pattern: LinearPath,
        /// Skip (successfully) if an index with the same pattern and
        /// type already exists — lets concurrent auto-apply cycles
        /// race without stacking duplicates.
        skip_if_exists: bool,
    },
    DropIndex {
        collection: String,
        id: u32,
    },
    /// Create an empty collection (idempotent — succeeds without a WAL
    /// record when it already exists). Tenant provisioning goes
    /// through this so new namespaces are durable before first insert.
    CreateCollection {
        collection: String,
    },
    /// Panic mid-apply: exercises the per-op catch + staged rebuild.
    #[cfg(feature = "testing")]
    Panic,
    /// Kill the committer thread outright: exercises the respawn path.
    #[cfg(feature = "testing")]
    Kill,
}

/// What a committed job did.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOutcome {
    Inserted {
        doc: u32,
        index_entries_touched: usize,
    },
    IndexCreated {
        id: u32,
        entries: usize,
        ddl: String,
    },
    /// `skip_if_exists` found the shape already materialized.
    IndexExisted {
        id: u32,
    },
    IndexDropped {
        id: u32,
    },
    CollectionCreated {
        /// False when the collection already existed (no-op commit).
        created: bool,
    },
}

/// A successful commit: the outcome plus where it landed.
#[derive(Debug, Clone)]
pub struct Committed {
    pub outcome: WriteOutcome,
    /// Snapshot generation this write became visible in.
    pub generation: u64,
    /// Global, strictly increasing commit order across all writes.
    pub commit_seq: u64,
    /// Ops that shared this write's group commit (including it).
    pub batch_ops: usize,
}

pub type WriteResult = Result<Committed, String>;

struct Job {
    cmd: WriteCmd,
    deadline: Option<Instant>,
    reply: mpsc::Sender<WriteResult>,
}

struct Shared {
    cell: Arc<SnapshotCell>,
    store: Option<Arc<Mutex<DurableStore>>>,
    metrics: Arc<Metrics>,
    cfg: CommitterConfig,
    commit_seq: AtomicU64,
}

struct Inner {
    tx: Option<mpsc::Sender<Job>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Handle to the committer thread. Cloneless by design — it lives in
/// the server state and everything submits through it.
pub struct Committer {
    shared: Arc<Shared>,
    inner: Mutex<Inner>,
    stopped: AtomicBool,
}

impl Committer {
    /// Spawn the committer thread over the shared snapshot cell and
    /// (optional) durable store.
    pub fn start(
        cell: Arc<SnapshotCell>,
        store: Option<Arc<Mutex<DurableStore>>>,
        metrics: Arc<Metrics>,
        cfg: CommitterConfig,
    ) -> Committer {
        let shared = Arc::new(Shared {
            cell,
            store,
            metrics,
            cfg,
            commit_seq: AtomicU64::new(0),
        });
        let (tx, handle) = spawn(shared.clone());
        Committer {
            shared,
            inner: Mutex::new(Inner {
                tx: Some(tx),
                handle: Some(handle),
            }),
            stopped: AtomicBool::new(false),
        }
    }

    /// Enqueue a write. Returns the receiver its [`WriteResult`] will
    /// arrive on once the group commit containing it lands; callers
    /// bound their wait with the request deadline, which therefore
    /// covers time spent *queued* as well as committing.
    pub fn submit(
        &self,
        cmd: WriteCmd,
        deadline: Option<Instant>,
    ) -> Result<mpsc::Receiver<WriteResult>, String> {
        if self.stopped.load(Ordering::SeqCst) {
            return Err("server is shutting down; write rejected".to_string());
        }
        let (reply, rx) = mpsc::channel();
        let mut job = Job {
            cmd,
            deadline,
            reply,
        };
        let mut inner = heal_lock(&self.inner, &self.shared.metrics);
        // Respawn a dead committer thread before accepting the job.
        let dead = match (&inner.tx, &inner.handle) {
            (Some(_), Some(h)) => h.is_finished(),
            _ => true,
        };
        if dead {
            self.respawn(&mut inner);
        }
        // Count the job before it can be seen: once sent, the committer
        // may commit it and `fetch_sub` before this thread runs again,
        // and an increment after the send would let the gauge wrap.
        let depth = &self.shared.metrics.concurrency.queue_depth;
        depth.fetch_add(1, Ordering::Relaxed);
        let tx = inner.tx.as_ref().expect("respawn installed a sender");
        if let Err(mpsc::SendError(returned)) = tx.send(job) {
            // Lost the race with a thread death: respawn once and retry.
            job = returned;
            self.respawn(&mut inner);
            let tx = inner.tx.as_ref().expect("respawn installed a sender");
            if tx.send(job).is_err() {
                depth.fetch_sub(1, Ordering::Relaxed);
                return Err("committer unavailable".to_string());
            }
        }
        Ok(rx)
    }

    fn respawn(&self, inner: &mut Inner) {
        if let Some(h) = inner.handle.take() {
            let _ = h.join();
        }
        let (tx, handle) = spawn(self.shared.clone());
        inner.tx = Some(tx);
        inner.handle = Some(handle);
        self.shared
            .metrics
            .concurrency
            .committer_restarts
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Stop accepting writes, drain the queue, and join the thread.
    /// Every job already submitted still commits. Idempotent.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        let (tx, handle) = {
            let mut inner = heal_lock(&self.inner, &self.shared.metrics);
            (inner.tx.take(), inner.handle.take())
        };
        drop(tx); // committer drains the queue, then its recv disconnects
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Jobs submitted but not yet acknowledged.
    pub fn queue_depth(&self) -> u64 {
        self.shared
            .metrics
            .concurrency
            .queue_depth
            .load(Ordering::Relaxed)
    }
}

impl Drop for Committer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn(shared: Arc<Shared>) -> (mpsc::Sender<Job>, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel::<Job>();
    let handle = std::thread::Builder::new()
        .name("xia-committer".to_string())
        .spawn(move || run(&shared, &rx))
        .expect("spawn committer thread");
    (tx, handle)
}

/// Thread main: block for one job, drain the queue into a batch, and
/// group-commit it. A panic escaping `commit_batch` (it should not —
/// per-op application is individually caught) is trapped here so one
/// bad batch never kills the writer for good.
fn run(shared: &Arc<Shared>, rx: &mpsc::Receiver<Job>) {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < shared.cfg.max_batch.max(1) {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        #[cfg(feature = "testing")]
        {
            // A Kill job takes the whole thread down *now* (jobs in this
            // batch are dropped; their submitters see a closed channel).
            // Restart coverage for the supervisor path in submit().
            if batch.iter().any(|j| matches!(j.cmd, WriteCmd::Kill)) {
                let n = batch.len() as u64;
                shared
                    .metrics
                    .concurrency
                    .queue_depth
                    .fetch_sub(n, Ordering::Relaxed);
                return;
            }
        }
        let n = batch.len() as u64;
        if std::panic::catch_unwind(AssertUnwindSafe(|| commit_batch(shared, batch))).is_err() {
            shared
                .metrics
                .concurrency
                .committer_recoveries
                .fetch_add(1, Ordering::Relaxed);
        }
        // Whatever happened, these jobs left the queue (unanswered jobs
        // dropped their reply senders, which submitters observe).
        shared
            .metrics
            .concurrency
            .queue_depth
            .fetch_sub(n, Ordering::Relaxed);
    }
}

fn commit_batch(shared: &Arc<Shared>, batch: Vec<Job>) {
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        // Deadline culling: a write that already missed its deadline in
        // the queue gets TIMEOUT instead of a late (surprise) commit.
        if job.deadline.is_some_and(|d| d <= now) {
            shared
                .metrics
                .concurrency
                .expired_in_queue
                .fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Err(
                "TIMEOUT: write expired in the committer queue before its group commit".to_string(),
            ));
            continue;
        }
        live.push(job);
    }
    if live.is_empty() {
        return;
    }

    // Stage copy-on-write: O(#collections) Arc bumps, nothing deep yet.
    let base = shared.cell.load_slow();
    let mut staged: Database = base.database().clone();

    let mut wal_ops: Vec<WalOp> = Vec::new();
    // The document each of `wal_ops` was applied with, for a rebuild.
    let mut parsed: Vec<Option<Arc<Document>>> = Vec::new();
    // (job, outcome) for every job that committed or was a no-op.
    let mut applied: Vec<(Job, WriteOutcome)> = Vec::new();
    for job in live {
        let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let (op, doc) = match validate(&staged, &job.cmd)? {
                Validated::NoOp(outcome) => return Ok((outcome, None)),
                Validated::Apply(op, doc) => (op, doc),
            };
            let done = op
                .apply_parsed(&mut staged, doc.clone())
                .ok_or_else(|| format!("cannot apply {op:?}"))?;
            Ok((WriteOutcome::from(done), Some((op, doc))))
        }));
        match step {
            Ok(Ok((outcome, logged))) => {
                if let Some((op, doc)) = logged {
                    wal_ops.push(op);
                    parsed.push(doc);
                }
                applied.push((job, outcome));
            }
            Ok(Err(message)) => {
                // Refused: validation and the applier both refuse
                // before mutating, so the staged clone is consistent.
                let _ = job.reply.send(Err(message));
            }
            Err(payload) => {
                // A panicking op may have left the staged clone half-
                // mutated. Rebuild it: re-clone the immutable base and
                // replay the ops that already succeeded through the
                // same applier, with the documents already parsed.
                shared
                    .metrics
                    .health
                    .panics_caught
                    .fetch_add(1, Ordering::Relaxed);
                staged = base.database().clone();
                for (op, doc) in wal_ops.iter().zip(&parsed) {
                    op.apply_parsed(&mut staged, doc.clone());
                }
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                let _ = job
                    .reply
                    .send(Err(format!("internal error: write panicked: {what}")));
            }
        }
    }
    if applied.is_empty() {
        return;
    }

    // Group commit: the whole batch's WAL records, one write, one fsync.
    // An append failure fails every job in the batch with memory (the
    // published snapshot) untouched — old state on disk AND in memory.
    if !wal_ops.is_empty() {
        if let Some(store) = &shared.store {
            let mut s = heal_lock(store, &shared.metrics);
            if let Err(e) = s.append_batch(&wal_ops) {
                drop(s);
                for (job, _) in applied {
                    let _ = job
                        .reply
                        .send(Err(format!("wal append failed (write not applied): {e}")));
                }
                return;
            }
            shared
                .metrics
                .health
                .wal_appends
                .fetch_add(wal_ops.len() as u64, Ordering::Relaxed);
        }
    }

    // Visibility: one atomic publish for the whole batch.
    let generation = if !wal_ops.is_empty() {
        shared.cell.publish(staged)
    } else {
        base.generation()
    };

    let batch_ops = applied.len();
    let c = &shared.metrics.concurrency;
    c.batches_committed.fetch_add(1, Ordering::Relaxed);
    c.ops_committed
        .fetch_add(batch_ops as u64, Ordering::Relaxed);
    c.record_batch_size(wal_ops.len().max(batch_ops));

    for (job, outcome) in applied {
        let commit_seq = shared.commit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let _ = job.reply.send(Ok(Committed {
            outcome,
            generation,
            commit_seq,
            batch_ops,
        }));
    }

    // Checkpoint from the *snapshot* — readers and queued writers are
    // not blocked by a lock; only this thread pauses while it runs.
    maybe_checkpoint(shared);
}

fn maybe_checkpoint(shared: &Arc<Shared>) {
    let (Some(store), Some(every)) = (&shared.store, shared.cfg.checkpoint_every) else {
        return;
    };
    let mut s = heal_lock(store, &shared.metrics);
    if s.wal_records() < every {
        return;
    }
    let snap = shared.cell.load_slow();
    match s.checkpoint(snap.database()) {
        Ok(()) => {
            shared
                .metrics
                .health
                .checkpoints
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => eprintln!("xia-server: checkpoint failed (WAL retains tail): {e}"),
    }
}

/// What validation made of a command.
enum Validated {
    /// Log this op, then apply it (with the worker's parsed document).
    Apply(WalOp, Option<Arc<Document>>),
    /// Nothing to log or apply; answer with this outcome.
    NoOp(WriteOutcome),
}

/// Turn a command into the [`WalOp`] it will log, checked against the
/// staged database: the collection and index exist, `skip_if_exists`
/// and CREATE COLLECTION of an existing name are no-ops, and a new
/// index takes the collection's highest id + 1. Refuses an INSERT into
/// a missing collection, which the applier alone would create.
fn validate(staged: &Database, cmd: &WriteCmd) -> Result<Validated, String> {
    let existing = |collection: &str| {
        staged
            .collection(collection)
            .ok_or_else(|| format!("no collection '{collection}'"))
    };
    let op = match cmd {
        WriteCmd::Insert {
            collection,
            doc,
            xml,
        } => {
            existing(collection)?;
            let op = WalOp::Insert {
                collection: collection.clone(),
                xml: xml.clone(),
            };
            return Ok(Validated::Apply(op, Some(doc.clone())));
        }
        WriteCmd::CreateIndex {
            collection,
            data_type,
            pattern,
            skip_if_exists,
        } => {
            let defs = existing(collection)?
                .indexes()
                .iter()
                .map(|ix| ix.definition());
            if *skip_if_exists {
                let same =
                    |d: &&IndexDefinition| d.data_type == *data_type && d.pattern == *pattern;
                if let Some(def) = defs.clone().find(same) {
                    return Ok(Validated::NoOp(WriteOutcome::IndexExisted { id: def.id.0 }));
                }
            }
            WalOp::CreateIndex {
                collection: collection.clone(),
                id: defs.map(|d| d.id.0).max().map_or(1, |m| m + 1),
                data_type: *data_type,
                pattern: pattern.to_string(),
            }
        }
        WriteCmd::DropIndex { collection, id } => {
            if !existing(collection)?
                .indexes()
                .iter()
                .any(|ix| ix.definition().id == IndexId(*id))
            {
                return Err(format!("no index idx{id}"));
            }
            WalOp::DropIndex {
                collection: collection.clone(),
                id: *id,
            }
        }
        WriteCmd::CreateCollection { collection } => {
            if staged.collection(collection).is_some() {
                return Ok(Validated::NoOp(WriteOutcome::CollectionCreated {
                    created: false,
                }));
            }
            WalOp::CreateCollection {
                collection: collection.clone(),
            }
        }
        #[cfg(feature = "testing")]
        WriteCmd::Panic => panic!("injected panic inside the committer (testing feature)"),
        #[cfg(feature = "testing")]
        WriteCmd::Kill => unreachable!("Kill is intercepted before commit_batch"),
    };
    Ok(Validated::Apply(op, None))
}

impl From<Applied> for WriteOutcome {
    fn from(done: Applied) -> WriteOutcome {
        match done {
            Applied::Inserted { doc, report } => WriteOutcome::Inserted {
                doc: doc.0,
                index_entries_touched: report.index_entries_touched,
            },
            Applied::IndexCreated { id, entries, ddl } => WriteOutcome::IndexCreated {
                id: id.0,
                entries,
                ddl,
            },
            Applied::IndexDropped { id } => WriteOutcome::IndexDropped { id: id.0 },
            Applied::CollectionCreated => WriteOutcome::CollectionCreated { created: true },
        }
    }
}

/// Convenience for callers without a deadline: submit and block for the
/// result. `Err` covers rejection, committer death, and op failure.
pub fn submit_and_wait(committer: &Committer, cmd: WriteCmd) -> WriteResult {
    let rx = committer.submit(cmd, None)?;
    match rx.recv() {
        Ok(result) => result,
        Err(_) => Err("committer dropped the write (recovering); retry".to_string()),
    }
}

/// Bounded wait used by request handlers: the deadline covers the time
/// the job spends queued *and* committing. On timeout the write is
/// abandoned to complete (or expire) in the background.
pub fn wait_with_deadline(
    rx: &mpsc::Receiver<WriteResult>,
    deadline: Option<Instant>,
) -> Result<WriteResult, mpsc::RecvTimeoutError> {
    match deadline {
        None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        Some(d) => {
            let left = d.saturating_duration_since(Instant::now());
            if left == Duration::ZERO {
                return Err(mpsc::RecvTimeoutError::Timeout);
            }
            rx.recv_timeout(left)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gauge counts a job before the committer can see it, so a
    /// sampler racing concurrent inserts never reads more jobs than were
    /// ever submitted. With the increment after the send, the
    /// committer's `fetch_sub` could land first and wrap it to ≈1.8e19;
    /// on a two-core host this test caught that in 8 runs of 10 (half
    /// of them with 2 000 inserts, hence 5 000).
    #[test]
    fn queue_depth_never_exceeds_jobs_submitted() {
        const WRITERS: usize = 2;
        const PER_WRITER: usize = 2500;
        let mut db = Database::new();
        db.create_collection("c");
        let committer = Committer::start(
            Arc::new(SnapshotCell::new(db)),
            None,
            Arc::new(Metrics::new()),
            CommitterConfig::default(),
        );
        let done = AtomicBool::new(false);
        let max_seen = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut max = 0;
                while !done.load(Ordering::SeqCst) {
                    max = max.max(committer.queue_depth());
                }
                max
            });
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let committer = &committer;
                    s.spawn(move || {
                        for i in 0..PER_WRITER {
                            let xml = format!("<r><w>{w}</w><i>{i}</i></r>");
                            let cmd = WriteCmd::Insert {
                                collection: "c".into(),
                                doc: Arc::new(Document::parse(&xml).expect("well-formed")),
                                xml,
                            };
                            submit_and_wait(committer, cmd).expect("insert commits");
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().expect("writer thread");
            }
            done.store(true, Ordering::SeqCst);
            sampler.join().expect("sampler thread")
        });
        assert!(
            max_seen <= (WRITERS * PER_WRITER) as u64,
            "queue_depth read {max_seen} with {} jobs submitted",
            WRITERS * PER_WRITER
        );
        // A reply precedes its batch's `fetch_sub`; after the join every
        // job has left the queue.
        committer.stop();
        assert_eq!(committer.queue_depth(), 0);
    }
}
