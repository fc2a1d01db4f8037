//! Crash-safe durability: generational snapshots + an operation WAL.
//!
//! ## Layout
//!
//! ```text
//! <dir>/gen-000002/            # newest complete generation (committed)
//!         GENERATION           #   CRC32-checksummed file manifest
//!         shop/manifest.txt    #   one subdirectory per collection
//!         shop/docs/000000.xml #   (xia_storage::persist layout)
//! <dir>/gen-000003.tmp/        # in-progress staging (discarded on recovery)
//! <dir>/wal-000002.log         # ops applied since gen 2 was checkpointed
//! ```
//!
//! ## Protocol
//!
//! A **checkpoint** stages the whole database under `gen-<n>.tmp/`,
//! writes a `GENERATION` manifest recording a CRC32 and length for
//! every file (plus a checksum of the manifest itself), fsyncs
//! everything, and commits with a single atomic rename to `gen-<n>/`.
//! Only then is a fresh empty WAL created and the older generation
//! pruned. The rename is the commit point: a crash before it leaves the
//! old generation untouched; a crash after it leaves the new one.
//!
//! The **WAL** is append-only, one operation per line, each line
//! carrying its own CRC32. [`recover_database`] loads the newest
//! generation whose manifest validates, silently discards `.tmp`
//! stragglers, and replays the generation's WAL, stopping at the first
//! torn or corrupt record (a partially-flushed tail).
//!
//! The invariant — *after any injected crash, recovery yields either
//! the pre-operation state or the post-operation state, byte-identical,
//! never corruption* — is pinned by `tests/crash_matrix.rs`, which
//! sweeps every fault point exposed by [`crate::vfs::FaultVfs`].

use crate::collection::{DocId, UpdateReport};
use crate::database::Database;
use crate::persist::{load_database_flat, save_collection_with, PersistError};
use crate::vfs::Vfs;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xia_index::{DataType, IndexDefinition, IndexId};
use xia_xml::Document;
use xia_xpath::LinearPath;

/// Per-generation manifest file name (lives at the generation root,
/// next to the collection subdirectories).
pub const GEN_MANIFEST: &str = "GENERATION";

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled, std-only.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the polynomial used by zip/gzip/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Generation naming
// ---------------------------------------------------------------------

fn gen_dir_name(n: u64) -> String {
    format!("gen-{n:06}")
}

fn wal_name(n: u64) -> String {
    format!("wal-{n:06}.log")
}

/// Path of the WAL belonging to generation `n` under `dir`.
pub fn wal_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(wal_name(n))
}

/// Parse `gen-NNNNNN` (committed) or `gen-NNNNNN.tmp` (partial).
/// Returns `(number, is_partial)`.
fn parse_gen_name(name: &str) -> Option<(u64, bool)> {
    let (body, partial) = match name.strip_suffix(".tmp") {
        Some(body) => (body, true),
        None => (name, false),
    };
    let digits = body.strip_prefix("gen-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((digits.parse().ok()?, partial))
}

// ---------------------------------------------------------------------
// WAL operations
// ---------------------------------------------------------------------

/// One logged mutation. The WAL records exactly what the daemon's write
/// commands do, so replaying it over the checkpointed generation
/// reconstructs the live state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert a document into a collection, creating the collection if
    /// it does not exist yet. `xml` is the request's text as the client
    /// sent it, logged verbatim.
    Insert {
        collection: String,
        xml: String,
    },
    CreateIndex {
        collection: String,
        id: u32,
        data_type: DataType,
        pattern: String,
    },
    DropIndex {
        collection: String,
        id: u32,
    },
    /// Create an empty collection if it does not exist yet. Older WALs
    /// never contain this record, so decoding stays backward
    /// compatible.
    CreateCollection {
        collection: String,
    },
}

/// Percent-escape the characters that would break the one-line,
/// space-separated record format.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            other => out.push(other),
        }
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            let code = u8::from_str_radix(hex, 16).ok()?;
            out.push(code as char);
            i += 3;
        } else {
            let ch = s[i..].chars().next()?;
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Some(out)
}

impl WalOp {
    /// The record payload (no CRC prefix, no newline).
    fn encode(&self) -> String {
        match self {
            WalOp::Insert { collection, xml } => {
                format!("insert {} {}", escape(collection), escape(xml))
            }
            WalOp::CreateIndex {
                collection,
                id,
                data_type,
                pattern,
            } => format!(
                "create-index {} {id} {data_type} {}",
                escape(collection),
                escape(pattern)
            ),
            WalOp::DropIndex { collection, id } => {
                format!("drop-index {} {id}", escape(collection))
            }
            WalOp::CreateCollection { collection } => {
                format!("create-collection {}", escape(collection))
            }
        }
    }

    fn decode(payload: &str) -> Option<WalOp> {
        let (kind, rest) = payload.split_once(' ')?;
        match kind {
            "insert" => {
                let (coll, xml) = rest.split_once(' ')?;
                Some(WalOp::Insert {
                    collection: unescape(coll)?,
                    xml: unescape(xml)?,
                })
            }
            "create-index" => {
                let mut parts = rest.splitn(4, ' ');
                let collection = unescape(parts.next()?)?;
                let id: u32 = parts.next()?.parse().ok()?;
                let data_type = match parts.next()? {
                    "VARCHAR" => DataType::Varchar,
                    "DOUBLE" => DataType::Double,
                    _ => return None,
                };
                let pattern = unescape(parts.next()?)?;
                Some(WalOp::CreateIndex {
                    collection,
                    id,
                    data_type,
                    pattern,
                })
            }
            "drop-index" => {
                let (coll, id) = rest.split_once(' ')?;
                Some(WalOp::DropIndex {
                    collection: unescape(coll)?,
                    id: id.parse().ok()?,
                })
            }
            "create-collection" => Some(WalOp::CreateCollection {
                collection: unescape(rest)?,
            }),
            _ => None,
        }
    }

    /// The full on-disk record line, CRC32 over the payload first.
    fn record(&self) -> String {
        let payload = self.encode();
        format!("{:08x} {payload}\n", crc32(payload.as_bytes()))
    }

    /// Apply this op to `db`. Returns false when the op no longer
    /// applies (e.g. dropping an index that is not there) — recovery
    /// counts but does not fail on those.
    pub fn apply(&self, db: &mut Database) -> bool {
        self.apply_parsed(db, None).is_some()
    }

    /// The one applier, for recovery's replay and the committer's ops.
    /// `parsed` is an INSERT's `xml` already parsed (recovery passes
    /// `None`). Returns what it did, or `None`, before mutating, when the
    /// op does not apply. An INSERT into a missing collection creates it,
    /// so WALs written before `CreateCollection` records still replay.
    pub fn apply_parsed(
        &self,
        db: &mut Database,
        parsed: Option<Arc<Document>>,
    ) -> Option<Applied> {
        match self {
            WalOp::Insert { collection, xml } => {
                let doc = match parsed {
                    Some(doc) => doc,
                    None => Arc::new(Document::parse(xml).ok()?),
                };
                if db.collection(collection).is_none() {
                    db.create_collection(collection);
                }
                let (doc, report) = db
                    .collection_mut(collection)
                    .expect("just ensured")
                    .insert_arc(doc);
                Some(Applied::Inserted { doc, report })
            }
            WalOp::CreateIndex {
                collection,
                id,
                data_type,
                pattern,
            } => {
                let pattern = LinearPath::parse(pattern).ok()?;
                let coll = db.collection_mut(collection)?;
                let def = IndexDefinition::new(IndexId(*id), pattern, *data_type);
                let ddl = def.ddl(collection);
                let entries = coll.create_index(def);
                Some(Applied::IndexCreated {
                    id: IndexId(*id),
                    entries,
                    ddl,
                })
            }
            WalOp::DropIndex { collection, id } => db
                .collection_mut(collection)?
                .drop_index(IndexId(*id))
                .then_some(Applied::IndexDropped { id: IndexId(*id) }),
            WalOp::CreateCollection { collection } => db
                .create_collection(collection)
                .then_some(Applied::CollectionCreated),
        }
    }
}

/// What [`WalOp::apply_parsed`] did. The committer answers the write
/// from it; recovery only counts it.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    Inserted {
        doc: DocId,
        report: UpdateReport,
    },
    IndexCreated {
        id: IndexId,
        entries: usize,
        ddl: String,
    },
    IndexDropped {
        id: IndexId,
    },
    CollectionCreated,
}

// ---------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------

/// List committed generation numbers under `dir`, ascending, plus the
/// partial (`.tmp`) staging dirs found.
fn scan_generations(vfs: &dyn Vfs, dir: &Path) -> Result<(Vec<u64>, Vec<PathBuf>), PersistError> {
    let mut committed = Vec::new();
    let mut partial = Vec::new();
    for entry in vfs.read_dir(dir)? {
        let Some(name) = entry.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some((n, is_partial)) = parse_gen_name(name) {
            if !vfs.is_dir(&entry) {
                continue;
            }
            if is_partial {
                partial.push(entry);
            } else {
                committed.push(n);
            }
        }
    }
    committed.sort_unstable();
    Ok((committed, partial))
}

/// Collect every file under `root`, as paths relative to it, sorted.
fn walk_files(
    vfs: &dyn Vfs,
    root: &Path,
    sub: &Path,
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in vfs.read_dir(&root.join(sub))? {
        let rel = sub.join(entry.file_name().unwrap_or_default());
        if vfs.is_dir(&entry) {
            walk_files(vfs, root, &rel, out)?;
        } else {
            out.push(rel);
        }
    }
    Ok(())
}

/// fsync every file and directory under `root`, leaves first.
fn sync_tree(vfs: &dyn Vfs, root: &Path) -> std::io::Result<()> {
    for entry in vfs.read_dir(root)? {
        if vfs.is_dir(&entry) {
            sync_tree(vfs, &entry)?;
        } else {
            vfs.sync(&entry)?;
        }
    }
    vfs.sync(root)
}

/// Stage and atomically commit generation `n` of `db` under `dir`.
/// On success the generation directory is durable and a fresh empty WAL
/// for it exists; older generations and WALs have been pruned.
fn checkpoint_at(vfs: &dyn Vfs, db: &Database, dir: &Path, n: u64) -> Result<(), PersistError> {
    let staged = dir.join(format!("{}.tmp", gen_dir_name(n)));
    if vfs.exists(&staged) {
        vfs.remove_dir_all(&staged)?;
    }
    vfs.create_dir_all(&staged)?;
    for coll in db.collections() {
        save_collection_with(vfs, coll, &staged.join(coll.name()))?;
    }

    // Manifest: CRC32 + length for every staged file, then a checksum
    // of the manifest body itself so a torn manifest is detectable.
    let mut files = Vec::new();
    walk_files(vfs, &staged, Path::new(""), &mut files)?;
    files.sort();
    let mut body = format!("generation {n}\n");
    for rel in &files {
        let bytes = vfs.read(&staged.join(rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        let _ = writeln!(
            body,
            "file {} {:08x} {}",
            escape(&rel),
            crc32(&bytes),
            bytes.len()
        );
    }
    let _ = writeln!(body, "checksum {:08x}", crc32(body.as_bytes()));
    vfs.write(&staged.join(GEN_MANIFEST), body.as_bytes())?;

    // Durability barrier, then the atomic commit point.
    sync_tree(vfs, &staged)?;
    let committed = dir.join(gen_dir_name(n));
    if vfs.exists(&committed) {
        vfs.remove_dir_all(&committed)?;
    }
    vfs.rename(&staged, &committed)?;
    vfs.sync(dir)?;

    // Fresh WAL for the new generation, then prune superseded state.
    // A crash in here is benign: recovery keys everything off the
    // newest committed generation.
    let wal = wal_path(dir, n);
    vfs.write(&wal, b"")?;
    vfs.sync(&wal)?;
    let (older, partial) = scan_generations(vfs, dir)?;
    for old in older.into_iter().filter(|&g| g < n) {
        vfs.remove_dir_all(&dir.join(gen_dir_name(old)))?;
        let old_wal = wal_path(dir, old);
        if vfs.exists(&old_wal) {
            vfs.remove_file(&old_wal)?;
        }
    }
    for p in partial {
        vfs.remove_dir_all(&p)?;
    }
    Ok(())
}

/// One-shot crash-safe snapshot of `db` under `dir`: commit the next
/// generation after the newest one present. This is what
/// [`crate::persist::save_database`] calls.
pub fn checkpoint_database(vfs: &dyn Vfs, db: &Database, dir: &Path) -> Result<(), PersistError> {
    vfs.create_dir_all(dir)?;
    let (committed, _) = scan_generations(vfs, dir)?;
    let next = committed.last().copied().unwrap_or(0) + 1;
    checkpoint_at(vfs, db, dir, next)
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// What [`recover_database`] found.
pub struct Recovered {
    pub database: Database,
    /// Generation the database was loaded from (0 = none yet).
    pub generation: u64,
    /// WAL records replayed over the snapshot.
    pub wal_records: usize,
    /// WAL records discarded: a torn/corrupt tail, or ops that no
    /// longer applied.
    pub wal_discarded: usize,
    /// Partial (`.tmp`) generations and corrupt generations discarded.
    pub discarded_generations: usize,
}

/// Validate a committed generation directory against its `GENERATION`
/// manifest: manifest checksum, then per-file CRC32 + length.
fn generation_is_valid(vfs: &dyn Vfs, gen_dir: &Path) -> bool {
    let Ok(text) = vfs.read_to_string(&gen_dir.join(GEN_MANIFEST)) else {
        return false;
    };
    // Split off the trailing "checksum XXXXXXXX" line.
    let body_end = match text.trim_end_matches('\n').rfind('\n') {
        Some(i) => i + 1,
        None => return false,
    };
    let (body, tail) = text.split_at(body_end);
    let Some(stated) = tail
        .trim()
        .strip_prefix("checksum ")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
    else {
        return false;
    };
    if crc32(body.as_bytes()) != stated {
        return false;
    }
    for line in body.lines() {
        let Some(rest) = line.strip_prefix("file ") else {
            continue;
        };
        let mut parts = rest.rsplitn(3, ' ');
        let (Some(len), Some(crc), Some(rel)) = (parts.next(), parts.next(), parts.next()) else {
            return false;
        };
        let (Ok(len), Ok(crc), Some(rel)) = (
            len.parse::<usize>(),
            u32::from_str_radix(crc, 16),
            unescape(rel),
        ) else {
            return false;
        };
        let Ok(bytes) = vfs.read(&gen_dir.join(rel)) else {
            return false;
        };
        if bytes.len() != len || crc32(&bytes) != crc {
            return false;
        }
    }
    true
}

/// Replay the WAL for generation `n` (if present) over `db`.
/// Returns `(applied, discarded)`. Stops at the first torn or corrupt
/// record — everything before it is intact by CRC.
fn replay_wal(vfs: &dyn Vfs, dir: &Path, n: u64, db: &mut Database) -> (usize, usize) {
    let path = wal_path(dir, n);
    let Ok(text) = vfs.read_to_string(&path) else {
        return (0, 0);
    };
    let mut applied = 0;
    let mut discarded = 0;
    let mut rest = text.as_str();
    while !rest.is_empty() {
        // A record is only trustworthy with its newline terminator (a
        // tail without one is a torn append) and a matching CRC.
        let intact = rest.split_once('\n').and_then(|(line, tail)| {
            rest = tail;
            let (crc_hex, payload) = line.split_once(' ')?;
            let stated = u32::from_str_radix(crc_hex, 16).ok()?;
            (crc32(payload.as_bytes()) == stated).then_some(payload)
        });
        let Some(payload) = intact else {
            discarded += 1;
            break;
        };
        match WalOp::decode(payload) {
            Some(op) if op.apply(db) => applied += 1,
            _ => discarded += 1, // intact but inapplicable: skip, keep going
        }
    }
    (applied, discarded)
}

/// Recover a database from `dir`: newest complete generation + WAL
/// replay; partial generations silently discarded; flat legacy layouts
/// loaded as-is. An empty or absent-of-snapshots directory recovers to
/// an empty database.
pub fn recover_database(vfs: &dyn Vfs, dir: &Path) -> Result<Recovered, PersistError> {
    let (committed, partial) = scan_generations(vfs, dir)?;
    let mut discarded_generations = 0;
    for p in &partial {
        // Best-effort cleanup; a read-only volume still recovers.
        if vfs.remove_dir_all(p).is_ok() {
            discarded_generations += 1;
        }
    }

    if committed.is_empty() {
        // Legacy flat layout (or an empty directory).
        let database = load_database_flat(vfs, dir)?;
        return Ok(Recovered {
            database,
            generation: 0,
            wal_records: 0,
            wal_discarded: 0,
            discarded_generations,
        });
    }

    let mut invalid = Vec::new();
    for &n in committed.iter().rev() {
        let gen_dir = dir.join(gen_dir_name(n));
        if !generation_is_valid(vfs, &gen_dir) {
            invalid.push(n);
            discarded_generations += 1;
            continue;
        }
        let mut database =
            load_database_flat(vfs, &gen_dir).map_err(|e| PersistError::Collection {
                dir: gen_dir.display().to_string(),
                source: Box::new(e),
            })?;
        let (wal_records, wal_discarded) = replay_wal(vfs, dir, n, &mut database);
        return Ok(Recovered {
            database,
            generation: n,
            wal_records,
            wal_discarded,
            discarded_generations,
        });
    }
    Err(PersistError::BadManifest(format!(
        "no complete generation under {} (all of {invalid:?} failed checksum validation)",
        dir.display()
    )))
}

// ---------------------------------------------------------------------
// DurableStore — the long-lived handle the daemon holds
// ---------------------------------------------------------------------

/// A durable database directory: tracks the current generation, appends
/// to its WAL, and rolls new generations via [`DurableStore::checkpoint`].
pub struct DurableStore {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    generation: u64,
    wal_records: u64,
}

impl DurableStore {
    /// Open (and recover) the store at `dir`, creating it if absent.
    pub fn open(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(DurableStore, Recovered), PersistError> {
        let dir = dir.into();
        if !vfs.exists(&dir) {
            vfs.create_dir_all(&dir)?;
        }
        let recovered = recover_database(&*vfs, &dir)?;
        let store = DurableStore {
            dir,
            vfs,
            generation: recovered.generation,
            wal_records: recovered.wal_records as u64,
        };
        Ok((store, recovered))
    }

    /// Commit a new generation holding `db` and reset the WAL.
    pub fn checkpoint(&mut self, db: &Database) -> Result<(), PersistError> {
        let next = self.generation + 1;
        checkpoint_at(&*self.vfs, db, &self.dir, next)?;
        self.generation = next;
        self.wal_records = 0;
        Ok(())
    }

    /// Append one operation to the current WAL and fsync it. Call this
    /// *before* applying the op in memory (write-ahead): a failed
    /// append leaves disk at the old state, which recovery restores.
    pub fn append(&mut self, op: &WalOp) -> Result<(), PersistError> {
        self.append_batch(std::slice::from_ref(op))
    }

    /// **Group commit**: append a whole batch of operations as one
    /// write and one fsync. This is the durability half of the server's
    /// committer — N pending writes pay for a single `sync`, which is
    /// what makes batched write throughput scale past fsync latency.
    ///
    /// Crash semantics are per-record, exactly as for [`append`]: every
    /// record carries its own CRC and newline terminator, so a fault
    /// mid-batch leaves a durable *prefix* of the batch and recovery
    /// discards the torn tail. Callers must acknowledge ops only after
    /// this returns — then every acknowledged op is durable.
    pub fn append_batch(&mut self, ops: &[WalOp]) -> Result<(), PersistError> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for op in ops {
            buf.push_str(&op.record());
        }
        let wal = wal_path(&self.dir, self.generation);
        self.vfs.append(&wal, buf.as_bytes())?;
        self.vfs.sync(&wal)?;
        self.wal_records += ops.len() as u64;
        Ok(())
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// WAL records appended since the last checkpoint.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }
}

/// Canonical, deterministic rendering of a database's full logical
/// state (collections, index definitions, documents). Two databases are
/// byte-identical for durability purposes iff their fingerprints match
/// — this is what the crash-matrix tests compare.
pub fn fingerprint(db: &Database) -> String {
    let mut out = String::new();
    for coll in db.collections() {
        let _ = writeln!(out, "collection {}", coll.name());
        let mut defs: Vec<_> = coll.indexes().iter().map(|ix| ix.definition()).collect();
        defs.sort_by_key(|d| d.id.0);
        for d in defs {
            let _ = writeln!(out, "index {} {} {}", d.id.0, d.data_type, d.pattern);
        }
        for (id, doc) in coll.documents() {
            let _ = writeln!(out, "doc {} {}", id.0, xia_xml::serialize(doc));
        }
    }
    out
}

/// Canonical rendering of what a database *derives* from its documents
/// and DDL — each collection's statistics (path dictionary, counts,
/// value maps or histograms) and every index's keys and postings. The
/// sibling of [`fingerprint`], which covers the logical state only: two
/// databases built by the same operations in the same order must agree
/// on both, so a structure shared between snapshots that was written
/// through (or a stale copy) shows up here even when the documents
/// match.
pub fn derived_fingerprint(db: &Database) -> String {
    let mut out = String::new();
    for coll in db.collections() {
        let _ = writeln!(out, "collection {}", coll.name());
        coll.stats().write_digest(&mut out);
        let mut indexes: Vec<_> = coll.indexes().iter().collect();
        indexes.sort_by_key(|ix| ix.definition().id.0);
        for ix in indexes {
            let _ = writeln!(
                out,
                "index {} entries {} bytes {}",
                ix.definition().id.0,
                ix.len(),
                ix.byte_size()
            );
            for (key, postings) in ix.postings() {
                let _ = write!(out, "  {key:?}");
                for p in postings {
                    let _ = write!(out, " {}.{}", p.doc, p.node);
                }
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xia_durable_{name}_{}", std::process::id()));
        let _ = RealVfs.remove_dir_all(&dir);
        dir
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_collection("shop");
        for i in 0..3 {
            db.collection_mut("shop")
                .unwrap()
                .insert(Document::parse(&format!("<item><price>{i}</price></item>")).unwrap());
        }
        db
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn wal_ops_round_trip_through_records() {
        let ops = [
            WalOp::Insert {
                collection: "my shop".into(),
                xml: "<a b=\"1\">x % y\n</a>".into(),
            },
            WalOp::CreateIndex {
                collection: "shop".into(),
                id: 7,
                data_type: DataType::Double,
                pattern: "//item/price".into(),
            },
            WalOp::DropIndex {
                collection: "shop".into(),
                id: 7,
            },
            WalOp::CreateCollection {
                collection: "tenant coll".into(),
            },
        ];
        for op in &ops {
            let rec = op.record();
            assert!(rec.ends_with('\n'));
            let line = rec.trim_end();
            let (crc_hex, payload) = line.split_once(' ').unwrap();
            assert_eq!(
                u32::from_str_radix(crc_hex, 16).unwrap(),
                crc32(payload.as_bytes())
            );
            assert_eq!(WalOp::decode(payload).as_ref(), Some(op));
        }
    }

    #[test]
    fn checkpoint_then_recover_round_trips() {
        let dir = tmp("roundtrip");
        let db = sample_db();
        checkpoint_database(&RealVfs, &db, &dir).unwrap();
        let rec = recover_database(&RealVfs, &dir).unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(fingerprint(&rec.database), fingerprint(&db));
        RealVfs.remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_replay_reconstructs_mutations() {
        let dir = tmp("walreplay");
        let db = sample_db();
        let (mut store, _) = DurableStore::open(&dir, Arc::new(RealVfs)).unwrap();
        store.checkpoint(&db).unwrap();
        store
            .append(&WalOp::Insert {
                collection: "shop".into(),
                xml: "<item><price>99</price></item>".into(),
            })
            .unwrap();
        store
            .append(&WalOp::CreateIndex {
                collection: "shop".into(),
                id: 1,
                data_type: DataType::Double,
                pattern: "//item/price".into(),
            })
            .unwrap();
        assert_eq!(store.wal_records(), 2);

        let rec = recover_database(&RealVfs, &dir).unwrap();
        assert_eq!(rec.wal_records, 2);
        assert_eq!(rec.database.collection("shop").unwrap().len(), 4);
        assert_eq!(rec.database.collection("shop").unwrap().indexes().len(), 1);
        RealVfs.remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_discarded() {
        let dir = tmp("torntail");
        let db = sample_db();
        let (mut store, _) = DurableStore::open(&dir, Arc::new(RealVfs)).unwrap();
        store.checkpoint(&db).unwrap();
        store
            .append(&WalOp::DropIndex {
                collection: "shop".into(),
                id: 9,
            })
            .unwrap();
        // Simulate a torn append: half a record, no newline.
        let wal = wal_path(&dir, store.generation());
        RealVfs.append(&wal, b"deadbeef insert sh").unwrap();
        let rec = recover_database(&RealVfs, &dir).unwrap();
        assert_eq!(rec.wal_discarded, 2, "inapplicable drop + torn tail");
        assert_eq!(rec.database.collection("shop").unwrap().len(), 3);
        RealVfs.remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_generation_is_silently_discarded() {
        let dir = tmp("partial");
        let db = sample_db();
        checkpoint_database(&RealVfs, &db, &dir).unwrap();
        // A crashed checkpoint leaves a .tmp staging dir behind.
        let staged = dir.join("gen-000002.tmp");
        RealVfs.create_dir_all(&staged.join("shop")).unwrap();
        RealVfs
            .write(&staged.join("shop/manifest.txt"), b"collection shop\n")
            .unwrap();
        let rec = recover_database(&RealVfs, &dir).unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.discarded_generations, 1);
        assert!(!staged.exists(), "staging dir cleaned up");
        RealVfs.remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_generation_falls_back_to_older_one() {
        let dir = tmp("fallback");
        let db = sample_db();
        let mut db2 = sample_db();
        db2.collection_mut("shop")
            .unwrap()
            .insert(Document::parse("<item><price>4</price></item>").unwrap());
        // Build gen 2 first, then gen 1 (prune only removes *older*
        // generations, so both stay on disk).
        checkpoint_at(&RealVfs, &db2, &dir, 2).unwrap();
        checkpoint_at(&RealVfs, &db, &dir, 1).unwrap();
        // Corrupt a document inside gen 2: its checksum now fails and
        // recovery must fall back to gen 1, not hand back corruption.
        RealVfs
            .write(&dir.join("gen-000002/shop/docs/000000.xml"), b"<mangled/>")
            .unwrap();
        let rec = recover_database(&RealVfs, &dir).unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(fingerprint(&rec.database), fingerprint(&db));
        assert_eq!(rec.discarded_generations, 1);

        // With no generation left intact, recovery refuses outright.
        RealVfs.remove_dir_all(&dir.join("gen-000001")).unwrap();
        RealVfs.remove_file(&wal_path(&dir, 1)).unwrap();
        assert!(recover_database(&RealVfs, &dir).is_err());
        RealVfs.remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_empty_dir_yields_empty_database() {
        let dir = tmp("empty");
        RealVfs.create_dir_all(&dir).unwrap();
        let rec = recover_database(&RealVfs, &dir).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.database.collections().count(), 0);
        RealVfs.remove_dir_all(&dir).ok();
    }
}
