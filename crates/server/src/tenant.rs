//! Tenant namespaces: one daemon, many isolated databases.
//!
//! Every tenant owns the full per-database machinery the server used
//! to hold globally: a [`SnapshotCell`] (lock-free reads), a
//! [`Committer`] (serialized group-commit writes), a
//! [`WorkloadMonitor`], advisor memory/cycles, and — when the daemon
//! is durable — its own [`DurableStore`] directory. The **default**
//! tenant lives at the durability root exactly where the
//! single-tenant daemon kept it, so pre-tenancy deployments (and test
//! pins) recover byte-for-byte; named tenants live under
//! `tenants/<name>/` next to it, each with its own `gen-*` snapshot
//! generations and WAL.
//!
//! All [`DurableStore`] construction in the server crate lives in this
//! module (enforced by a grep guard in `scripts/check.sh`): a store is
//! only ever reachable through the tenant that scopes it, which is
//! what makes cross-tenant durability interference unrepresentable.

use crate::advise::{CollectionMemory, CycleReport};
use crate::committer::{Committer, CommitterConfig};
use crate::json::Value;
use crate::metrics::Metrics;
use crate::server::{heal_lock, DurabilityConfig, ServerConfig};
use crate::snapshot::{Snapshot, SnapshotCell};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use xia_advisor::FrontierItem;
use xia_storage::{Database, DurableStore, Vfs};
use xia_workload::{load_monitor_with, WorkloadMonitor};

/// The reserved name addressing the root namespace. Requests without a
/// `tenant` field resolve here, which is what keeps the single-tenant
/// wire protocol byte-compatible.
pub const DEFAULT_TENANT: &str = "default";

/// Subdirectory of the durability root that holds named tenants.
pub const TENANTS_SUBDIR: &str = "tenants";

/// Where a named tenant persists, under the daemon's durability root.
pub fn tenant_dir(root: &Path, name: &str) -> PathBuf {
    root.join(TENANTS_SUBDIR).join(name)
}

/// A tenant name must be a safe directory component: non-empty, at
/// most 64 chars, drawn from `[A-Za-z0-9_-]`. That rules out path
/// separators and `..` by construction.
pub fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("tenant name must be 1..=64 characters".to_string());
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(format!(
            "invalid tenant name '{name}' (allowed: letters, digits, '_', '-')"
        ));
    }
    Ok(())
}

/// Names of tenants found under `root/tenants/` at startup.
pub(crate) fn scan_tenant_dirs(vfs: &dyn Vfs, root: &Path) -> Vec<String> {
    let tenants = root.join(TENANTS_SUBDIR);
    let Ok(entries) = vfs.read_dir(&tenants) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .iter()
        .filter(|p| vfs.is_dir(p))
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
        .filter(|n| validate_tenant_name(n).is_ok())
        .collect();
    names.sort();
    names
}

/// Everything one namespace owns. Isolation is structural: a request
/// resolved to this tenant can only reach this cell, this committer,
/// this monitor and this store.
pub struct TenantState {
    name: String,
    pub(crate) cell: Arc<SnapshotCell>,
    pub(crate) committer: Committer,
    pub(crate) monitor: Mutex<WorkloadMonitor>,
    pub(crate) advisor_memory: Mutex<HashMap<String, CollectionMemory>>,
    pub(crate) last_cycle: Mutex<Option<CycleReport>>,
    pub(crate) cycles: AtomicU64,
    /// Shared with this tenant's committer; the server touches it only
    /// for STATS and the shutdown flush.
    pub(crate) store: Option<Arc<Mutex<DurableStore>>>,
    /// The daemon's durability settings with `dir` pointing at this
    /// tenant's own directory.
    pub(crate) durability: Option<DurabilityConfig>,
    /// Requests currently dispatching against this tenant (the
    /// per-tenant brownout input).
    pub(crate) in_flight: AtomicU64,
    /// Requests answered BUSY by this tenant's in-flight cap.
    pub(crate) requests_shed: AtomicU64,
    /// Latest advisor-cycle frontier (merged across collections, in
    /// greedy order) plus its summed certified error bound — what the
    /// cross-tenant allocator spends the shared page budget over.
    pub(crate) frontier: Mutex<(Vec<FrontierItem>, f64)>,
    metrics: Arc<Metrics>,
}

impl TenantState {
    /// Open (or create) a tenant under the daemon's configuration:
    /// recover its durable directory when durability is configured —
    /// the durability root for the default tenant, `root/tenants/<name>`
    /// for named ones; recovered state **wins** over `seed_db`,
    /// otherwise `seed_db` is checkpointed as generation 1 — restore
    /// its monitor, and start its committer.
    pub(crate) fn open(
        name: &str,
        seed_db: Database,
        cfg: &ServerConfig,
        metrics: Arc<Metrics>,
    ) -> std::io::Result<TenantState> {
        let durability = cfg.durability.as_ref().map(|d| DurabilityConfig {
            dir: if name == DEFAULT_TENANT {
                d.dir.clone()
            } else {
                tenant_dir(&d.dir, name)
            },
            ..d.clone()
        });
        let mut monitor = WorkloadMonitor::new(cfg.monitor.clone(), cfg.clock.clone());
        let (db, store) = match &durability {
            None => (seed_db, None),
            Some(d) => {
                let io_err = |e: xia_storage::PersistError| std::io::Error::other(e.to_string());
                let (mut store, recovered) =
                    DurableStore::open(&d.dir, d.vfs.clone()).map_err(io_err)?;
                let db = if recovered.generation > 0 {
                    recovered.database
                } else {
                    store.checkpoint(&seed_db).map_err(io_err)?;
                    seed_db
                };
                if let Ok(snapshot) = load_monitor_with(d.vfs.as_ref(), &d.dir) {
                    monitor.restore(&snapshot);
                }
                (db, Some(Arc::new(Mutex::new(store))))
            }
        };
        let cell = Arc::new(SnapshotCell::new(db));
        let committer = Committer::start(
            cell.clone(),
            store.clone(),
            metrics.clone(),
            CommitterConfig {
                max_batch: 64,
                checkpoint_every: durability.as_ref().and_then(|d| d.checkpoint_every),
            },
        );
        Ok(TenantState {
            name: name.to_string(),
            cell,
            committer,
            monitor: Mutex::new(monitor),
            advisor_memory: Mutex::new(HashMap::new()),
            last_cycle: Mutex::new(None),
            cycles: AtomicU64::new(0),
            store,
            durability,
            in_flight: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            frontier: Mutex::new((Vec::new(), 0.0)),
            metrics,
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// This tenant's current database snapshot (lock-free).
    pub fn read_db(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    pub(crate) fn lock_monitor(&self) -> MutexGuard<'_, WorkloadMonitor> {
        heal_lock(&self.monitor, &self.metrics)
    }

    pub(crate) fn lock_cycle(&self) -> MutexGuard<'_, Option<CycleReport>> {
        heal_lock(&self.last_cycle, &self.metrics)
    }

    pub(crate) fn lock_advisor_memory(&self) -> MutexGuard<'_, HashMap<String, CollectionMemory>> {
        heal_lock(&self.advisor_memory, &self.metrics)
    }

    pub(crate) fn lock_frontier(&self) -> MutexGuard<'_, (Vec<FrontierItem>, f64)> {
        heal_lock(&self.frontier, &self.metrics)
    }

    /// Latest merged frontier + summed error bound, for in-process
    /// drivers (the tenants bench feeds these to the allocator).
    pub fn frontier(&self) -> (Vec<FrontierItem>, f64) {
        self.lock_frontier().clone()
    }

    /// Shutdown flush for this tenant: stop the committer (every
    /// acknowledged write lands first), checkpoint, save the monitor.
    pub(crate) fn flush_durable(&self) {
        self.committer.stop();
        let (Some(store), Some(d)) = (&self.store, &self.durability) else {
            return;
        };
        {
            let db = self.read_db();
            let mut s = heal_lock(store, &self.metrics);
            match s.checkpoint(db.database()) {
                Ok(()) => {
                    self.metrics
                        .health
                        .checkpoints
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => eprintln!(
                    "xia-server: shutdown checkpoint failed (tenant '{}'): {e}",
                    self.name
                ),
            }
        }
        let snapshot = self.lock_monitor().snapshot();
        if let Err(e) = xia_workload::save_monitor_with(d.vfs.as_ref(), &snapshot, &d.dir) {
            eprintln!(
                "xia-server: shutdown monitor save failed (tenant '{}'): {e}",
                self.name
            );
        }
    }

    /// Current durable generation and WAL depth, for STATS.
    pub(crate) fn durability_json(&self) -> Value {
        match &self.store {
            None => Value::Null,
            Some(store) => {
                let s = heal_lock(store, &self.metrics);
                Value::obj(vec![
                    ("generation", Value::num(s.generation() as f64)),
                    ("wal_records", Value::num(s.wal_records() as f64)),
                    (
                        "dir",
                        Value::str(
                            self.durability
                                .as_ref()
                                .map(|d| d.dir.display().to_string())
                                .unwrap_or_default(),
                        ),
                    ),
                ])
            }
        }
    }

    /// The monitor's gauges, for STATS (top level and per tenant).
    pub(crate) fn monitor_json(&self) -> Value {
        let m = self.lock_monitor();
        Value::obj(vec![
            ("tracked", Value::num(m.len() as f64)),
            ("observed", Value::num(m.observed() as f64)),
            ("evictions", Value::num(m.evictions() as f64)),
        ])
    }

    /// The per-tenant STATS section.
    pub(crate) fn stats_json(&self) -> Value {
        let db = self.read_db();
        let (docs, indexes) = db.collections().fold((0usize, 0usize), |(d, i), c| {
            (d + c.len(), i + c.indexes().len())
        });
        let (frontier_len, error_bound) = {
            let f = self.lock_frontier();
            (f.0.len(), f.1)
        };
        Value::obj(vec![
            ("name", Value::str(&self.name)),
            ("collections", Value::num(db.collections().count() as f64)),
            ("documents", Value::num(docs as f64)),
            ("indexes", Value::num(indexes as f64)),
            ("snapshot_generation", Value::num(db.generation() as f64)),
            (
                "snapshots_alive",
                Value::num(self.cell.snapshots_alive() as f64),
            ),
            (
                "cycles",
                Value::num(self.cycles.load(Ordering::SeqCst) as f64),
            ),
            (
                "in_flight",
                Value::num(self.in_flight.load(Ordering::Relaxed) as f64),
            ),
            (
                "requests_shed",
                Value::num(self.requests_shed.load(Ordering::Relaxed) as f64),
            ),
            (
                "committer_queue",
                Value::num(self.committer.queue_depth() as f64),
            ),
            ("monitor", self.monitor_json()),
            ("frontier_items", Value::num(frontier_len as f64)),
            ("error_bound", Value::num(error_bound)),
            ("durability", self.durability_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_names_are_safe_directory_components() {
        assert!(validate_tenant_name("alpha").is_ok());
        assert!(validate_tenant_name("t-1_B").is_ok());
        assert!(validate_tenant_name("").is_err());
        assert!(validate_tenant_name("a/b").is_err());
        assert!(validate_tenant_name("..").is_err());
        assert!(validate_tenant_name("a b").is_err());
        assert!(validate_tenant_name(&"x".repeat(65)).is_err());
    }

    #[test]
    fn tenant_dir_nests_under_the_root() {
        let d = tenant_dir(Path::new("/data/xia"), "acme");
        assert_eq!(d, PathBuf::from("/data/xia/tenants/acme"));
    }
}
