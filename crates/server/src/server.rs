//! The daemon: a TCP listener, a fixed worker pool, and the shared
//! state every request path runs against.
//!
//! Concurrency model (std only, no async runtime):
//!
//! * one **acceptor** thread pushes incoming connections onto a channel;
//! * a **fixed pool** of worker threads pops connections and serves
//!   them for their whole lifetime (line-delimited JSON, one response
//!   line per request line);
//! * reads (QUERY/EXPLAIN/PROFILE/RECOMMEND/STATS) run **lock-free**
//!   against the current immutable snapshot ([`crate::snapshot`]);
//!   writes (INSERT/CREATE-INDEX/DROP-INDEX) are queued to the single
//!   **committer** thread, which group-commits them — one WAL fsync and
//!   one snapshot publish per batch ([`crate::committer`]);
//! * every executed query is fed to the [`WorkloadMonitor`], and an
//!   optional **background advisor** thread periodically turns the
//!   monitor into a `Workload`, re-runs the advisor and reports drift
//!   (see [`crate::advise`]).
//!
//! Worker sockets use a short read timeout so the pool drains promptly
//! on shutdown even when clients keep idle connections open.

use crate::admission::{
    shed_tier, Admission, AdmissionConfig, Busy, ConnectionGuard, QueueGuard, ShedTier,
};
use crate::advise::{run_cycle, CycleReport, MonitorDelta};
use crate::committer::{self, submit_and_wait, Committed, WriteCmd, WriteOutcome};
use crate::json::{self, Value};
use crate::metrics::{Command, Metrics};
use crate::snapshot::{clear_thread_cache, Snapshot};
use crate::tenant::{
    scan_tenant_dirs, tenant_dir, validate_tenant_name, TenantDurability, TenantState,
    DEFAULT_TENANT,
};
use crate::transport::{read_frame, Frame, RealFactory, Transport, TransportFactory};
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use xia_advisor::{allocate, Advisor, Allocation, AnytimeBudget, SearchStrategy, TenantFrontier};
use xia_index::DataType;
use xia_optimizer::{execute, explain, profile_execute};
use xia_storage::{Database, RealVfs, Vfs};
use xia_workload::{Clock, MonitorConfig, SystemClock};
use xia_xpath::LinearPath;
use xia_xquery::compile;

/// Where and how the daemon persists: a snapshot directory managed by
/// [`DurableStore`] (generational snapshots + WAL) plus the captured
/// monitor, all through an injectable [`Vfs`] so tests can fault any
/// filesystem step.
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Snapshot directory (created if absent, recovered if present).
    pub dir: PathBuf,
    pub vfs: Arc<dyn Vfs>,
    /// Roll a new snapshot generation once this many WAL records have
    /// accumulated (checked after each logged write). `None` = only
    /// checkpoint at graceful shutdown.
    pub checkpoint_every: Option<u64>,
}

impl DurabilityConfig {
    /// Durability at `dir` over the real filesystem, checkpointing
    /// every 1024 logged writes.
    pub fn at(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            vfs: Arc::new(RealVfs),
            checkpoint_every: Some(1024),
        }
    }
}

/// Daemon configuration.
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (reported by `addr()`).
    pub addr: String,
    /// Worker threads serving connections.
    pub threads: usize,
    /// Disk budget handed to the advisor, in bytes.
    pub budget_bytes: u64,
    pub strategy: SearchStrategy,
    /// Create recommended-but-missing indexes at the end of each cycle.
    pub auto_apply: bool,
    /// Background advisor period; `None` disables the thread (cycles
    /// then run only via the ADVISE command or [`ServerHandle::force_cycle`]).
    pub advise_interval: Option<Duration>,
    /// Wall-clock budget for each collection's anytime search inside a
    /// cycle; an exhausted budget returns the best configuration found
    /// so far. `None` = search to completion.
    pub advise_budget: Option<Duration>,
    pub monitor: MonitorConfig,
    /// Injectable time source for the monitor's decay math.
    pub clock: Arc<dyn Clock>,
    /// Crash-safe persistence; `None` keeps the daemon memory-only.
    pub durability: Option<DurabilityConfig>,
    /// Per-request budget: a request still running past the deadline is
    /// abandoned and its client gets a clean `TIMEOUT` error while the
    /// worker moves on. `None` = unbounded.
    pub request_deadline: Option<Duration>,
    /// Overload protection: connection cap, acceptor-queue bound, frame
    /// cap, and the `retry_after_ms` hint base (see [`crate::admission`]).
    pub admission: AdmissionConfig,
    /// Wraps every accepted socket; [`RealFactory`] in production, a
    /// fault-injecting factory (e.g. [`crate::transport::ChaosFactory`])
    /// in chaos tests. All connection I/O goes through it.
    pub transport: Arc<dyn TransportFactory>,
    /// Shared page budget the cross-tenant allocator spends over every
    /// tenant's advisor frontier (marginal-benefit-per-page greedy; see
    /// `xia_advisor::tenancy`). `None` disables allocation (each tenant
    /// is advised under `budget_bytes` alone).
    pub tenant_pages: Option<u64>,
    /// Pages reserved per tenant before global competition.
    pub tenant_floor_pages: u64,
    /// Hard cap on pages any one tenant may be granted.
    pub tenant_ceiling_pages: Option<u64>,
    /// Per-tenant brownout: shed sheddable requests once this many are
    /// already in flight against the same tenant. `None` = uncapped.
    pub tenant_max_in_flight: Option<u64>,
    /// Inject a `thread::spawn` failure for worker index `i` at startup,
    /// to test that `Server::start` surfaces the error instead of
    /// running with a smaller pool than configured.
    #[cfg(feature = "testing")]
    pub worker_spawn_fault: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            budget_bytes: 512 << 10,
            strategy: SearchStrategy::GreedyHeuristic,
            auto_apply: false,
            advise_interval: None,
            advise_budget: Some(Duration::from_secs(5)),
            monitor: MonitorConfig::default(),
            clock: Arc::new(SystemClock::new()),
            durability: None,
            request_deadline: None,
            admission: AdmissionConfig::default(),
            transport: Arc::new(RealFactory),
            tenant_pages: None,
            tenant_floor_pages: 0,
            tenant_ceiling_pages: None,
            tenant_max_in_flight: None,
            #[cfg(feature = "testing")]
            worker_spawn_fault: None,
        }
    }
}

/// State shared by every worker and the background advisor.
///
/// Per-database machinery (snapshot cell, committer, monitor, advisor
/// memory, durable store) lives in [`TenantState`] — once per
/// namespace. What remains here is genuinely global: the tenant
/// registry, metrics, admission control, the advisor engine and its
/// budgets, and the daemon lifecycle.
pub struct ServerState {
    /// The root namespace: requests without a `tenant` field land here,
    /// preserving the single-tenant wire protocol byte-for-byte.
    pub(crate) default_tenant: Arc<TenantState>,
    /// Named tenants (never contains the default).
    pub(crate) tenants: Mutex<BTreeMap<String, Arc<TenantState>>>,
    pub(crate) metrics: Arc<Metrics>,
    /// Admission control + load shedding; consulted by the acceptor for
    /// every connection and by workers for every request.
    pub(crate) admission: Arc<Admission>,
    pub(crate) advisor: Advisor,
    pub(crate) budget_bytes: u64,
    pub(crate) strategy: SearchStrategy,
    pub(crate) auto_apply: bool,
    pub(crate) advise_budget: Option<Duration>,
    /// Shared page budget for the cross-tenant allocator (`None`
    /// disables it) plus its per-tenant floors/ceilings.
    tenant_pages: Option<u64>,
    tenant_floor_pages: u64,
    tenant_ceiling_pages: Option<u64>,
    tenant_max_in_flight: Option<u64>,
    /// Daemon-level durability root; tenants created at runtime carve
    /// their subdirectory out of it.
    durability: Option<DurabilityConfig>,
    monitor_cfg: MonitorConfig,
    clock: Arc<dyn Clock>,
    request_deadline: Option<Duration>,
    /// Guards the shutdown flush so stop()/join()/Drop run it once.
    flushed: AtomicBool,
    shutdown: AtomicBool,
    /// Advisor thread sleeps here; notified on shutdown.
    advise_signal: (Mutex<()>, Condvar),
    addr: SocketAddr,
    started: Instant,
}

/// Lock a mutex, healing poison: a panicking holder leaves the data in
/// place, so clear the flag, count the recovery, and keep serving.
pub(crate) fn heal_lock<'a, T>(lock: &'a Mutex<T>, metrics: &Metrics) -> MutexGuard<'a, T> {
    match lock.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            lock.clear_poison();
            metrics
                .health
                .lock_recoveries
                .fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

impl ServerState {
    /// The **default tenant's** current database snapshot: an
    /// immutable, `Arc`-shared image that stays valid (and unchanging)
    /// for as long as the caller holds it — no lock is taken,
    /// concurrent commits just publish *newer* snapshots. Derefs to
    /// [`Database`]. Public so in-process drivers (benchmarks, tests)
    /// can inspect the database.
    pub fn read_db(&self) -> Arc<Snapshot> {
        self.default_tenant.read_db()
    }

    /// Server metrics, for in-process drivers (oracle sweeps, benches)
    /// that reconcile the overload counters without a STATS round-trip.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Overload-protection state (config, load level, shed decisions).
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// The root namespace (requests without a `tenant` field).
    pub fn default_tenant(&self) -> &Arc<TenantState> {
        &self.default_tenant
    }

    /// Look up a tenant by name; `None` for unknown names. The default
    /// tenant is always found.
    pub fn tenant(&self, name: &str) -> Option<Arc<TenantState>> {
        if name == DEFAULT_TENANT {
            return Some(self.default_tenant.clone());
        }
        heal_lock(&self.tenants, &self.metrics).get(name).cloned()
    }

    /// The tenant a request addresses: its `tenant` field, or the
    /// default namespace. Unknown names are an error — tenants are
    /// provisioned explicitly (TENANT command), never as a typo
    /// side-effect.
    fn resolve_tenant(&self, req: &Value) -> Result<Arc<TenantState>, String> {
        match req.get_str("tenant") {
            None => Ok(self.default_tenant.clone()),
            Some(name) if name == DEFAULT_TENANT => Ok(self.default_tenant.clone()),
            Some(name) => self.tenant(name).ok_or_else(|| {
                format!("unknown tenant '{name}' (create it with the tenant command)")
            }),
        }
    }

    /// Create (or return) a named tenant, provisioning its durable
    /// subdirectory and any requested collections. Returns the tenant
    /// and whether this call created it. Idempotent.
    pub fn create_tenant(
        &self,
        name: &str,
        collections: &[String],
    ) -> Result<(Arc<TenantState>, bool), String> {
        validate_tenant_name(name)?;
        let (tenant, created) = if name == DEFAULT_TENANT {
            (self.default_tenant.clone(), false)
        } else {
            let mut map = heal_lock(&self.tenants, &self.metrics);
            match map.get(name) {
                Some(t) => (t.clone(), false),
                None => {
                    let durability = self.durability.as_ref().map(|d| TenantDurability {
                        vfs: d.vfs.clone(),
                        dir: tenant_dir(&d.dir, name),
                        checkpoint_every: d.checkpoint_every,
                    });
                    let tenant = Arc::new(
                        TenantState::open(
                            name,
                            Database::new(),
                            durability,
                            self.monitor_cfg.clone(),
                            self.clock.clone(),
                            self.metrics.clone(),
                        )
                        .map_err(|e| format!("failed to open tenant '{name}': {e}"))?,
                    );
                    map.insert(name.to_string(), tenant.clone());
                    (tenant, true)
                }
            }
        };
        // Collections commit through the tenant's own committer (and
        // WAL), outside the registry lock: idempotent and durable.
        for coll in collections {
            submit_and_wait(
                &tenant.committer,
                WriteCmd::CreateCollection {
                    collection: coll.clone(),
                },
            )
            .map_err(|e| format!("failed to create collection '{coll}': {e}"))?;
        }
        Ok((tenant, created))
    }

    /// Every tenant, default first, named ones in name order.
    pub fn all_tenants(&self) -> Vec<Arc<TenantState>> {
        let mut out = vec![self.default_tenant.clone()];
        out.extend(heal_lock(&self.tenants, &self.metrics).values().cloned());
        out
    }

    /// Per-tenant brownout: once `tenant_max_in_flight` requests are
    /// already dispatching against the same tenant, shed further
    /// sheddable ones with the standard BUSY + `retry_after_ms` answer.
    /// Control-plane commands (PING/STATS/TENANT/SHUTDOWN) never shed.
    ///
    /// Sheds counted here go to `shed_tenant` and the tenant's own
    /// counter — **not** the global `requests_shed` split, which stays
    /// partitioned as `shed_expensive + shed_normal`.
    fn tenant_shed(&self, tenant: &TenantState, cmd: Command) -> Option<Busy> {
        let cap = self.tenant_max_in_flight?;
        if shed_tier(cmd) == ShedTier::Never {
            return None;
        }
        if tenant.in_flight.load(Ordering::Relaxed) < cap {
            return None;
        }
        self.metrics
            .overload
            .shed_tenant
            .fetch_add(1, Ordering::Relaxed);
        tenant.requests_shed.fetch_add(1, Ordering::Relaxed);
        Some(Busy {
            reason: format!(
                "tenant '{}' is saturated ({cap} requests in flight); retry later",
                tenant.name()
            ),
            retry_after_ms: self.admission.retry_after_ms(),
        })
    }

    /// Evict this worker's thread-cached snapshot pins that have been
    /// superseded, across every tenant. Called from idle moments (read
    /// timeouts) so a quiet connection cannot pin an old generation's
    /// memory indefinitely.
    pub fn release_stale_snapshots(&self) {
        self.default_tenant.cell.release_if_stale();
        for t in heal_lock(&self.tenants, &self.metrics).values() {
            t.cell.release_if_stale();
        }
    }

    /// Spend the shared page budget across every tenant's latest
    /// advisor frontier (marginal-benefit-per-page greedy with the
    /// configured floors/ceilings). `None` when no `tenant_pages`
    /// budget is configured.
    pub fn compute_allocation(&self) -> Option<Allocation> {
        let total = self.tenant_pages?;
        let frontiers: Vec<TenantFrontier> = self
            .all_tenants()
            .iter()
            .map(|t| {
                let (items, error_bound) = t.frontier();
                TenantFrontier {
                    tenant: t.name().to_string(),
                    items,
                    floor_pages: self.tenant_floor_pages,
                    ceiling_pages: self.tenant_ceiling_pages,
                    error_bound,
                }
            })
            .collect();
        Some(allocate(&frontiers, total))
    }

    /// Submit a write to a tenant's committer and wait for its group
    /// commit, bounded by `deadline` (which thereby covers time spent
    /// *queued*, not just executing). A timed-out write is abandoned:
    /// it may still commit in the background, but the client gets a
    /// clean TIMEOUT.
    pub(crate) fn submit_write(
        &self,
        tenant: &TenantState,
        cmd: WriteCmd,
        deadline: Option<Instant>,
    ) -> Result<Committed, String> {
        let rx = tenant.committer.submit(cmd, deadline)?;
        match committer::wait_with_deadline(&rx, deadline) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.metrics.health.timeouts.fetch_add(1, Ordering::Relaxed);
                let budget_ms = self
                    .request_deadline
                    .map(|d| d.as_millis())
                    .unwrap_or_default();
                Err(format!(
                    "TIMEOUT: write still queued or committing at the {budget_ms}ms deadline \
                     and was abandoned (it may still commit)"
                ))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err("committer dropped the write while recovering; retry".to_string())
            }
        }
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _guard = heal_lock(&self.advise_signal.0, &self.metrics);
        self.advise_signal.1.notify_all();
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Shutdown flush: for every tenant, drain and stop its committer
    /// (every acknowledged write lands first), then a final checkpoint
    /// plus an atomic monitor save. Idempotent — every shutdown path
    /// calls it, the first one wins.
    fn flush_durable(&self) {
        if self.flushed.swap(true, Ordering::SeqCst) {
            return;
        }
        for tenant in self.all_tenants() {
            tenant.flush_durable();
        }
    }

    /// Snapshot the monitor and run one advisor cycle **for the default
    /// tenant**, recording it as the latest.
    pub fn force_cycle(&self) -> CycleReport {
        self.force_cycle_on(&self.default_tenant)
    }

    /// One advisor cycle for one tenant.
    ///
    /// The snapshot, the per-collection change stamps and the eviction
    /// count are read under one monitor lock so the incremental
    /// fast-path fingerprint is consistent with the workload it covers.
    /// Afterwards the cycle's per-collection frontiers are merged and
    /// published as this tenant's bid for the shared page budget.
    pub fn force_cycle_on(&self, tenant: &Arc<TenantState>) -> CycleReport {
        let (snapshot, deltas, evictions) = {
            let monitor = tenant.lock_monitor();
            let snapshot = monitor.snapshot();
            let memory = tenant.lock_advisor_memory();
            let deltas: HashMap<String, MonitorDelta> = snapshot
                .collections()
                .into_iter()
                .map(|name| {
                    let since = memory.get(&name).map(|m| m.monitor_version()).unwrap_or(0);
                    let delta = MonitorDelta {
                        version: monitor.collection_version(&name),
                        changed: monitor.changed_since(&name, since),
                    };
                    (name, delta)
                })
                .collect();
            (snapshot, deltas, monitor.evictions())
        };
        let seq = tenant.cycles.fetch_add(1, Ordering::SeqCst) + 1;
        let report = run_cycle(self, tenant, &snapshot, seq, &deltas, evictions);
        *tenant.lock_cycle() = Some(report.clone());
        let merged = xia_advisor::merge_frontiers(
            report
                .collections
                .iter()
                .map(|c| c.frontier.clone())
                .collect(),
        );
        let bound = report.collections.iter().map(|c| c.error_bound).sum();
        *tenant.lock_frontier() = (merged, bound);
        report
    }
}

/// A running daemon. Dropping the handle shuts the daemon down.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start the daemon over `db` and return its handle.
    ///
    /// With [`ServerConfig::durability`] set, the snapshot directory is
    /// recovered first: if it holds committed state, that state **wins**
    /// over the passed `db` (the daemon resumes where it crashed);
    /// otherwise `db` is checkpointed as generation 1. A persisted
    /// monitor snapshot is restored the same way.
    pub fn start(db: Database, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let metrics = Arc::new(Metrics::new());
        // The default tenant recovers at the durability root — exactly
        // where the single-tenant daemon kept its state.
        let default_tenant = Arc::new(TenantState::open(
            DEFAULT_TENANT,
            db,
            cfg.durability.as_ref().map(|d| TenantDurability {
                vfs: d.vfs.clone(),
                dir: d.dir.clone(),
                checkpoint_every: d.checkpoint_every,
            }),
            cfg.monitor.clone(),
            cfg.clock.clone(),
            metrics.clone(),
        )?);
        // Named tenants recover from their `tenants/<name>/` subdirs.
        let mut tenants = BTreeMap::new();
        if let Some(d) = &cfg.durability {
            for name in scan_tenant_dirs(d.vfs.as_ref(), &d.dir) {
                let tenant = TenantState::open(
                    &name,
                    Database::new(),
                    Some(TenantDurability {
                        vfs: d.vfs.clone(),
                        dir: tenant_dir(&d.dir, &name),
                        checkpoint_every: d.checkpoint_every,
                    }),
                    cfg.monitor.clone(),
                    cfg.clock.clone(),
                    metrics.clone(),
                )?;
                tenants.insert(name, Arc::new(tenant));
            }
        }

        let workers = cfg.threads.max(1);
        let admission = Arc::new(Admission::new(
            cfg.admission.clone(),
            workers,
            metrics.clone(),
        ));
        let state = Arc::new(ServerState {
            default_tenant,
            tenants: Mutex::new(tenants),
            metrics,
            admission,
            advisor: Advisor::default(),
            budget_bytes: cfg.budget_bytes,
            strategy: cfg.strategy,
            auto_apply: cfg.auto_apply,
            advise_budget: cfg.advise_budget,
            tenant_pages: cfg.tenant_pages,
            tenant_floor_pages: cfg.tenant_floor_pages,
            tenant_ceiling_pages: cfg.tenant_ceiling_pages,
            tenant_max_in_flight: cfg.tenant_max_in_flight,
            durability: cfg.durability.clone(),
            monitor_cfg: cfg.monitor.clone(),
            clock: cfg.clock.clone(),
            request_deadline: cfg.request_deadline,
            flushed: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            advise_signal: (Mutex::new(()), Condvar::new()),
            addr,
            started: Instant::now(),
        });

        // Spawn failures must not leave a silently undersized pool: any
        // failed spawn tears down everything already started (workers,
        // acceptor, committer) and surfaces in the result.
        let fail = |e: std::io::Error, name: &str| {
            std::io::Error::new(e.kind(), format!("failed to spawn {name} thread: {e}"))
        };
        let mut threads = Vec::new();
        let (tx, rx) = mpsc::channel::<Conn>();
        let mut tx = Some(tx);
        let rx = Arc::new(Mutex::new(rx));
        let mut spawn_error: Option<std::io::Error> = None;
        'spawn: {
            for i in 0..workers {
                #[cfg(feature = "testing")]
                if cfg.worker_spawn_fault == Some(i) {
                    spawn_error = Some(std::io::Error::other(format!(
                        "failed to spawn xia-worker-{i} thread: injected (testing feature)"
                    )));
                    break 'spawn;
                }
                let rx = rx.clone();
                let state = state.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("xia-worker-{i}"))
                    .spawn(move || loop {
                        let conn = { heal_lock(&rx, &state.metrics).recv() };
                        match conn {
                            Ok((transport, conn_guard, queue_guard)) => {
                                drop(queue_guard); // picked up: no longer queued
                                let end = serve_connection(&state, transport);
                                let o = &state.metrics.overload;
                                match end {
                                    ConnEnd::Served => &o.conns_served,
                                    ConnEnd::Faulted => &o.conns_faulted,
                                }
                                .fetch_add(1, Ordering::Relaxed);
                                // Between connections a worker must not
                                // pin a snapshot: drop the thread-local
                                // cache so superseded generations free.
                                clear_thread_cache();
                                drop(conn_guard); // frees the live slot
                            }
                            Err(_) => break, // acceptor gone: shutdown
                        }
                    });
                match spawned {
                    Ok(handle) => threads.push(handle),
                    Err(e) => {
                        spawn_error = Some(fail(e, &format!("xia-worker-{i}")));
                        break 'spawn;
                    }
                }
            }

            {
                let state = state.clone();
                let factory = cfg.transport.clone();
                let tx = tx.take().expect("acceptor spawns once");
                let spawned = std::thread::Builder::new()
                    .name("xia-acceptor".to_string())
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if state.is_shutdown() {
                                break;
                            }
                            let Ok(s) = stream else { continue };
                            let o = &state.metrics.overload;
                            o.conns_accepted.fetch_add(1, Ordering::Relaxed);
                            let mut transport = match factory.wrap(s) {
                                Ok(t) => t,
                                Err(_) => {
                                    o.conns_faulted.fetch_add(1, Ordering::Relaxed);
                                    continue;
                                }
                            };
                            match state.admission.try_admit() {
                                Ok(conn_guard) => {
                                    let queue_guard = state.admission.enqueued();
                                    // tx dropped only after this loop exits.
                                    if tx.send((transport, conn_guard, queue_guard)).is_err() {
                                        break;
                                    }
                                }
                                Err(busy) => {
                                    // Immediate BUSY + close; no slot was taken.
                                    let line = format!("{}\n", busy_response("connect", &busy));
                                    let _ = transport.write_all(line.as_bytes());
                                    let _ = transport.flush();
                                }
                            }
                        }
                        drop(tx); // workers drain and exit
                    });
                match spawned {
                    Ok(handle) => threads.push(handle),
                    Err(e) => {
                        spawn_error = Some(fail(e, "xia-acceptor"));
                        break 'spawn;
                    }
                }
            }

            if let Some(interval) = cfg.advise_interval {
                let state = state.clone();
                let spawned = std::thread::Builder::new()
                    .name("xia-advisor".to_string())
                    .spawn(move || loop {
                        let guard = heal_lock(&state.advise_signal.0, &state.metrics);
                        let (_guard, _timeout) =
                            match state.advise_signal.1.wait_timeout(guard, interval) {
                                Ok(r) => r,
                                Err(poisoned) => {
                                    state.advise_signal.0.clear_poison();
                                    poisoned.into_inner()
                                }
                            };
                        if state.is_shutdown() {
                            break;
                        }
                        // Brownout: yield the cycle while connections are
                        // waiting for workers; counted in STATS.
                        if state.admission.advisor_should_pause() {
                            continue;
                        }
                        // Cycle every namespace so each tenant's bid
                        // (frontier) for the shared page budget is fresh.
                        for tenant in state.all_tenants() {
                            state.force_cycle_on(&tenant);
                        }
                        clear_thread_cache();
                    });
                match spawned {
                    Ok(handle) => threads.push(handle),
                    Err(e) => {
                        spawn_error = Some(fail(e, "xia-advisor"));
                        break 'spawn;
                    }
                }
            }
        }

        if let Some(e) = spawn_error {
            // Structured teardown: wake the acceptor (if it started),
            // drop our channel end so workers drain, join everything,
            // and stop the committer with a final flush.
            state.request_shutdown();
            drop(tx);
            let _ = TcpStream::connect(addr);
            for t in threads {
                let _ = t.join();
            }
            state.flush_durable();
            return Err(e);
        }

        Ok(Server {
            addr,
            state,
            threads,
        })
    }

    /// The daemon's actual bind address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for in-process drivers (benchmarks, tests).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Run one advisor cycle synchronously, as the background thread
    /// would, and return its report.
    pub fn force_cycle(&self) -> CycleReport {
        self.state.force_cycle()
    }

    /// Stop accepting, drain the pool, join every thread, and flush the
    /// durable state (final checkpoint + monitor snapshot).
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    /// Block until the daemon shuts down (via the SHUTDOWN command),
    /// then flush the durable state.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.state.flush_durable();
    }

    fn shutdown_and_join(&mut self) {
        self.state.request_shutdown();
        // Wake the acceptor's blocking accept with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.state.flush_durable();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_and_join();
        }
    }
}

/// What a worker pulls off the acceptor queue: the wrapped socket plus
/// the RAII gauges for its live slot and its place in the queue.
type Conn = (Box<dyn Transport>, ConnectionGuard, QueueGuard);

/// How a connection ended, for the accounting partition
/// `conns_accepted == conns_rejected + conns_served + conns_faulted`.
enum ConnEnd {
    /// Clean: EOF between frames, or shutdown while idle.
    Served,
    /// Transport error, mid-frame disconnect, oversized frame, or a
    /// failed response write.
    Faulted,
}

/// Serve one connection: one JSON request per line, one JSON response
/// per line, until EOF, a transport fault, or shutdown. All socket I/O
/// goes through the injected [`Transport`], so chaos tests can fault
/// any byte in either direction.
fn serve_connection(state: &Arc<ServerState>, mut transport: Box<dyn Transport>) -> ConnEnd {
    let _ = transport.set_read_timeout(Some(Duration::from_millis(200)));
    let max_frame = state.admission.config().max_frame_bytes;
    let mut buf = Vec::new();
    loop {
        match read_frame(transport.as_mut(), &mut buf, max_frame) {
            Frame::Line(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let response = handle_line(state, line);
                let payload = format!("{response}\n");
                if transport.write_all(payload.as_bytes()).is_err() || transport.flush().is_err() {
                    return ConnEnd::Faulted;
                }
                if state.is_shutdown() {
                    return ConnEnd::Served;
                }
            }
            // Read timeout: partial bytes stay in `buf` and the next
            // read continues the same frame; poll the shutdown flag so
            // the pool drains even under idle connections. Idle is also
            // when this worker ages out any thread-cached snapshot pin
            // a newer publish has superseded.
            Frame::Timeout => {
                state.release_stale_snapshots();
                if state.is_shutdown() {
                    return ConnEnd::Served;
                }
            }
            Frame::Eof { mid_frame } => {
                return if mid_frame {
                    ConnEnd::Faulted
                } else {
                    ConnEnd::Served
                };
            }
            Frame::Oversized => {
                state
                    .metrics
                    .overload
                    .frames_oversized
                    .fetch_add(1, Ordering::Relaxed);
                let response = error_response(
                    Command::Unknown,
                    &format!("frame exceeds max_frame_bytes ({max_frame}); closing connection"),
                );
                let _ = transport.write_all(format!("{response}\n").as_bytes());
                let _ = transport.flush();
                return ConnEnd::Faulted;
            }
            Frame::Error(_) => return ConnEnd::Faulted,
        }
    }
}

/// Parse and dispatch one request line; always returns a response value.
pub fn handle_line(state: &Arc<ServerState>, line: &str) -> Value {
    let req = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            state
                .metrics
                .overload
                .frames_malformed
                .fetch_add(1, Ordering::Relaxed);
            state.metrics.begin(Command::Unknown);
            state.metrics.finish(Command::Unknown, 0, false);
            return error_response(Command::Unknown, &format!("bad request: {e}"));
        }
    };
    let cmd = Command::parse(req.get_str("cmd").unwrap_or(""));
    state.metrics.begin(cmd);
    // Brownout: under pressure, shed by tier before doing any work.
    if let Some(busy) = state.admission.shed(cmd) {
        state.metrics.finish(cmd, 0, false);
        return busy_response(cmd.label(), &busy);
    }
    // Namespace resolution, then the per-tenant saturation check: one
    // noisy tenant sheds its own overflow instead of starving the rest.
    let tenant = match state.resolve_tenant(&req) {
        Ok(t) => t,
        Err(message) => {
            state.metrics.finish(cmd, 0, false);
            return error_response(cmd, &message);
        }
    };
    if let Some(busy) = state.tenant_shed(&tenant, cmd) {
        state.metrics.finish(cmd, 0, false);
        return busy_response(cmd.label(), &busy);
    }
    let o = &state.metrics.overload;
    o.in_flight.fetch_add(1, Ordering::Relaxed);
    tenant.in_flight.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let result = dispatch_guarded(state, &tenant, cmd, &req);
    let latency_us = start.elapsed().as_micros() as u64;
    tenant.in_flight.fetch_sub(1, Ordering::Relaxed);
    o.in_flight.fetch_sub(1, Ordering::Relaxed);
    match result {
        Ok(Value::Obj(mut fields)) => {
            state.metrics.finish(cmd, latency_us, true);
            fields.insert(0, ("ok".to_string(), Value::Bool(true)));
            Value::Obj(fields)
        }
        Ok(other) => {
            state.metrics.finish(cmd, latency_us, true);
            Value::obj(vec![("ok", Value::Bool(true)), ("result", other)])
        }
        Err(message) => {
            state.metrics.finish(cmd, latency_us, false);
            error_response(cmd, &message)
        }
    }
}

fn error_response(cmd: Command, message: &str) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("cmd", Value::str(cmd.label())),
        ("error", Value::str(message)),
    ])
}

/// A `BUSY` answer: `busy:true` plus a `retry_after_ms` backoff hint,
/// sent for rejected connections (`cmd:"connect"`) and shed requests.
fn busy_response(cmd_label: &str, busy: &Busy) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("busy", Value::Bool(true)),
        ("cmd", Value::str(cmd_label)),
        ("error", Value::str(&busy.reason)),
        ("retry_after_ms", Value::num(busy.retry_after_ms as f64)),
    ])
}

/// Commands that go through the committer queue. Their deadline is
/// enforced by bounding the wait for the commit acknowledgement, so it
/// covers time spent *queued* behind a slow group commit — not by the
/// spawn-a-thread guard used for abandonable read/compute requests.
fn is_write(cmd: Command) -> bool {
    matches!(
        cmd,
        Command::Insert | Command::CreateIndex | Command::DropIndex
    )
}

/// Dispatch with the self-healing guards: a per-request deadline (when
/// configured) and a panic trap, so one bad request costs one error
/// response — never a dead worker or a poisoned pool.
fn dispatch_guarded(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    cmd: Command,
    req: &Value,
) -> Result<Value, String> {
    let Some(budget) = state.request_deadline else {
        return dispatch_caught(state, tenant, cmd, req, None);
    };
    // SHUTDOWN must not race its own deadline; it is instant anyway.
    if cmd == Command::Shutdown {
        return dispatch_caught(state, tenant, cmd, req, None);
    }
    let deadline = Instant::now() + budget;
    if is_write(cmd) {
        return dispatch_caught(state, tenant, cmd, req, Some(deadline));
    }
    let (tx, rx) = mpsc::channel();
    let worker = {
        let state = state.clone();
        let tenant = tenant.clone();
        let req = req.clone();
        std::thread::Builder::new()
            .name("xia-request".to_string())
            .spawn(move || {
                let _ = tx.send(dispatch_caught(&state, &tenant, cmd, &req, None));
            })
    };
    if worker.is_err() {
        // Could not spawn (resource exhaustion): run inline, unbounded.
        return dispatch_caught(state, tenant, cmd, req, None);
    }
    match rx.recv_timeout(budget) {
        Ok(result) => result,
        Err(_) => {
            state
                .metrics
                .health
                .timeouts
                .fetch_add(1, Ordering::Relaxed);
            Err(format!(
                "TIMEOUT: request exceeded the {}ms deadline and was abandoned",
                budget.as_millis()
            ))
        }
    }
}

/// Run the real dispatch under `catch_unwind`: a handler panic becomes
/// an error response for that client while the worker keeps serving.
/// Published snapshots are immutable, so a panicking handler can never
/// leave shared state half-mutated; the few remaining mutexes are
/// healed by the recovery helpers on their next acquisition.
fn dispatch_caught(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    cmd: Command,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| {
        dispatch(state, tenant, cmd, req, deadline)
    })) {
        Ok(result) => result,
        Err(payload) => {
            state
                .metrics
                .health
                .panics_caught
                .fetch_add(1, Ordering::Relaxed);
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(format!("internal error: handler panicked: {what}"))
        }
    }
}

fn dispatch(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    cmd: Command,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    match cmd {
        Command::Ping => Ok(Value::obj(vec![("pong", Value::Bool(true))])),
        Command::Query => handle_query(state, tenant, req),
        Command::Explain => handle_explain(state, tenant, req, false),
        Command::Profile => handle_explain(state, tenant, req, true),
        Command::CreateIndex => handle_create_index(state, tenant, req, deadline),
        Command::DropIndex => handle_drop_index(state, tenant, req, deadline),
        Command::Insert => handle_insert(state, tenant, req, deadline),
        Command::Recommend => handle_recommend(state, tenant, req),
        Command::Advise => {
            let report = state.force_cycle_on(tenant);
            Ok(Value::obj(vec![
                ("report", report.to_json()),
                ("text", Value::str(report.render())),
            ]))
        }
        Command::WorkloadDump => handle_workload_dump(tenant, req),
        Command::Tenant => handle_tenant(state, req),
        Command::Stats => handle_stats(state),
        Command::Shutdown => {
            state.request_shutdown();
            // Wake the acceptor so it notices the flag.
            let _ = TcpStream::connect(state.addr);
            Ok(Value::obj(vec![("stopping", Value::Bool(true))]))
        }
        Command::Unknown => {
            // Fault-injection commands for the self-healing tests; the
            // `testing` feature never ships in a default build.
            #[cfg(feature = "testing")]
            match req.get_str("cmd").unwrap_or("") {
                "panic" => panic!("injected panic (testing feature)"),
                "panic_locked" => {
                    // Panic *inside the committer*, mid-apply: the
                    // nastiest write-path case. The committer catches it
                    // per-op, rebuilds its staged clone, and keeps
                    // committing the rest of the batch; readers never
                    // see a half-applied snapshot.
                    return state
                        .submit_write(tenant, WriteCmd::Panic, deadline)
                        .map(|_| unreachable!("Panic op never acknowledges"));
                }
                "kill_committer" => {
                    // Take the whole committer thread down; the next
                    // write respawns it (supervisor path).
                    let _ = tenant.committer.submit(WriteCmd::Kill, None);
                    return Ok(Value::obj(vec![("killed", Value::Bool(true))]));
                }
                "sleep" => {
                    let ms = req.get_f64("ms").unwrap_or(50.0).max(0.0);
                    std::thread::sleep(Duration::from_millis(ms as u64));
                    return Ok(Value::obj(vec![("slept_ms", Value::num(ms))]));
                }
                _ => {}
            }
            Err(format!(
                "unknown command {:?} (try ping, query, explain, profile, insert, \
                 create_index, drop_index, recommend, advise, workload, tenant, stats, shutdown)",
                req.get_str("cmd").unwrap_or("")
            ))
        }
    }
}

/// TENANT: without a `name`, list every namespace (per-tenant STATS
/// sections); with one, create it (idempotent) plus any requested
/// `collections`. Runs at the `Never` shed tier — provisioning is
/// control plane, not data plane.
fn handle_tenant(state: &Arc<ServerState>, req: &Value) -> Result<Value, String> {
    let Some(name) = req.get_str("name") else {
        let tenants: Vec<Value> = state.all_tenants().iter().map(|t| t.stats_json()).collect();
        return Ok(Value::obj(vec![("tenants", Value::Arr(tenants))]));
    };
    let collections: Vec<String> = match req.get("collections") {
        None => Vec::new(),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                _ => Err("'collections' must be an array of strings".to_string()),
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("'collections' must be an array of strings".to_string()),
    };
    let (tenant, created) = state.create_tenant(name, &collections)?;
    Ok(Value::obj(vec![
        ("tenant", Value::str(tenant.name())),
        ("created", Value::Bool(created)),
        (
            "collections",
            Value::Arr(collections.iter().map(Value::str).collect()),
        ),
    ]))
}

/// The collection a request addresses: its `collection` field, or the
/// tenant's only collection.
fn target_collection(tenant: &TenantState, req: &Value) -> Result<String, String> {
    if let Some(name) = req.get_str("collection") {
        return Ok(name.to_string());
    }
    let db = tenant.read_db();
    let mut names = db.collections().map(|c| c.name().to_string());
    match (names.next(), names.next()) {
        (Some(only), None) => Ok(only),
        (None, _) => Err("database has no collections".to_string()),
        (Some(_), Some(_)) => Err("multiple collections; pass a 'collection' field".to_string()),
    }
}

fn handle_query(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    req: &Value,
) -> Result<Value, String> {
    let text = req.get_str("q").ok_or("missing field 'q'")?;
    let coll_name = target_collection(tenant, req)?;
    let query = compile(text, &coll_name).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let (rows, sample, stats, plan_kind) = {
        let db = tenant.read_db();
        let coll = db
            .collection(&query.collection)
            .ok_or_else(|| format!("no collection '{}'", query.collection))?;
        let ex = explain(coll, &state.advisor.config.cost_model, &query);
        let (rows, stats) = execute(coll, &query, &ex.plan).map_err(|e| e.to_string())?;
        let sample: Vec<Value> = rows
            .iter()
            .take(5)
            .map(|(doc, node)| {
                let d = coll.get(*doc).expect("result doc exists");
                Value::str(format!(
                    "doc {} {}: {}",
                    doc.0,
                    d.name(*node),
                    d.string_value(*node)
                ))
            })
            .collect();
        (rows.len(), sample, stats, access_kind(&ex.plan))
    };
    // Feed the monitor outside the database lock.
    tenant.lock_monitor().observe(&query);
    Ok(Value::obj(vec![
        ("results", Value::num(rows as f64)),
        ("sample", Value::Arr(sample)),
        ("plan", Value::str(plan_kind)),
        ("docs_evaluated", Value::num(stats.docs_evaluated as f64)),
        ("entries_scanned", Value::num(stats.entries_scanned as f64)),
        ("pages_read", Value::num(stats.pages_read as f64)),
        (
            "elapsed_ms",
            Value::num(start.elapsed().as_secs_f64() * 1e3),
        ),
    ]))
}

fn access_kind(plan: &xia_optimizer::Plan) -> &'static str {
    use xia_optimizer::AccessPath::*;
    match &plan.access {
        DocScan => "XSCAN",
        IndexOnly { .. } => "XISCAN-ONLY",
        IndexOr { .. } => "IXOR",
        IndexAccess { legs } if legs.len() > 1 => "IXAND",
        IndexAccess { .. } => "XISCAN",
    }
}

fn handle_explain(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    req: &Value,
    profiled: bool,
) -> Result<Value, String> {
    let text = req.get_str("q").ok_or("missing field 'q'")?;
    let coll_name = target_collection(tenant, req)?;
    let query = compile(text, &coll_name).map_err(|e| e.to_string())?;
    let db = tenant.read_db();
    let coll = db
        .collection(&query.collection)
        .ok_or_else(|| format!("no collection '{}'", query.collection))?;
    let ex = explain(coll, &state.advisor.config.cost_model, &query);
    if !profiled {
        return Ok(Value::obj(vec![("plan", Value::str(&ex.text))]));
    }
    let profile = profile_execute(coll, &query, &ex.plan).map_err(|e| e.to_string())?;
    // Per-batch-operator attribution (empty for index-only plans, which
    // never run the batch engine): `op` is the operator label from the
    // compiled pipeline, `rows` the rows it produced summed over every
    // document evaluated, `ms` the wall time spent inside it.
    let operators = profile
        .operators
        .iter()
        .map(|o| {
            Value::obj(vec![
                ("op", Value::str(&o.op)),
                ("rows", Value::num(o.rows as f64)),
                ("ms", Value::num(o.wall.as_secs_f64() * 1e3)),
            ])
        })
        .collect();
    Ok(Value::obj(vec![
        ("profile", Value::str(profile.render())),
        ("results", Value::num(profile.results.len() as f64)),
        ("operators", Value::Arr(operators)),
    ]))
}

fn parse_data_type(s: &str) -> Result<DataType, String> {
    let upper = s.to_ascii_uppercase();
    // Accept the DDL spelling VARCHAR(64) as well as the bare name.
    if upper == "DOUBLE" {
        Ok(DataType::Double)
    } else if upper == "VARCHAR" || upper.starts_with("VARCHAR(") {
        Ok(DataType::Varchar)
    } else {
        Err(format!("unknown index type '{s}' (VARCHAR | DOUBLE)"))
    }
}

fn handle_create_index(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let pattern_text = req.get_str("pattern").ok_or("missing field 'pattern'")?;
    let data_type = parse_data_type(req.get_str("type").unwrap_or("VARCHAR"))?;
    let coll_name = target_collection(tenant, req)?;
    let pattern = LinearPath::parse(pattern_text).map_err(|e| e.to_string())?;
    let committed = state.submit_write(
        tenant,
        WriteCmd::CreateIndex {
            collection: coll_name,
            data_type,
            pattern,
            skip_if_exists: false,
        },
        deadline,
    )?;
    match committed.outcome {
        WriteOutcome::IndexCreated { id, entries, ddl } => Ok(Value::obj(vec![
            ("id", Value::num(id as f64)),
            ("entries", Value::num(entries as f64)),
            ("ddl", Value::str(ddl)),
            ("generation", Value::num(committed.generation as f64)),
            ("commit_seq", Value::num(committed.commit_seq as f64)),
        ])),
        other => Err(format!("committer returned mismatched outcome {other:?}")),
    }
}

fn handle_drop_index(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let id = req.get_f64("id").ok_or("missing field 'id'")? as u32;
    let coll_name = target_collection(tenant, req)?;
    let committed = state.submit_write(
        tenant,
        WriteCmd::DropIndex {
            collection: coll_name,
            id,
        },
        deadline,
    )?;
    match committed.outcome {
        WriteOutcome::IndexDropped { id } => Ok(Value::obj(vec![
            ("dropped", Value::num(id as f64)),
            ("generation", Value::num(committed.generation as f64)),
            ("commit_seq", Value::num(committed.commit_seq as f64)),
        ])),
        other => Err(format!("committer returned mismatched outcome {other:?}")),
    }
}

fn handle_insert(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    req: &Value,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let xml = req.get_str("xml").ok_or("missing field 'xml'")?;
    let coll_name = target_collection(tenant, req)?;
    // Parse on the worker thread — many clients parse in parallel while
    // the committer only stages and indexes the pre-built documents.
    let doc = xia_xml::Document::parse(xml).map_err(|e| e.to_string())?;
    let committed = state.submit_write(
        tenant,
        WriteCmd::Insert {
            collection: coll_name,
            doc: Arc::new(doc),
            xml: xml.to_string(),
        },
        deadline,
    )?;
    match committed.outcome {
        WriteOutcome::Inserted {
            doc,
            index_entries_touched,
        } => Ok(Value::obj(vec![
            ("doc", Value::num(doc as f64)),
            (
                "index_entries_touched",
                Value::num(index_entries_touched as f64),
            ),
            ("generation", Value::num(committed.generation as f64)),
            ("commit_seq", Value::num(committed.commit_seq as f64)),
        ])),
        other => Err(format!("committer returned mismatched outcome {other:?}")),
    }
}

fn handle_recommend(
    state: &Arc<ServerState>,
    tenant: &Arc<TenantState>,
    req: &Value,
) -> Result<Value, String> {
    let coll_name = target_collection(tenant, req)?;
    let budget_bytes = match req.get_f64("budget_kib") {
        Some(kib) if kib > 0.0 => (kib as u64) << 10,
        Some(_) => return Err("budget_kib must be positive".to_string()),
        None => state.budget_bytes,
    };
    let strategy: SearchStrategy = req.get_str("strategy").unwrap_or("").parse()?;
    let snapshot = tenant.lock_monitor().snapshot().for_collection(&coll_name);
    if snapshot.is_empty() {
        return Err(format!(
            "no captured statements for collection '{coll_name}' (run queries first)"
        ));
    }
    let workload = snapshot.to_workload().map_err(|e| e.to_string())?;
    let workload_text = workload.to_file_format();
    // Opt-in anytime path: a wall budget switches to the compressed
    // pipeline and reports best-so-far plus convergence telemetry. The
    // default (no `budget_ms`) path is untouched.
    if let Some(ms) = req.get_f64("budget_ms") {
        if ms <= 0.0 {
            return Err("budget_ms must be positive".to_string());
        }
        let budget = AnytimeBudget::wall_millis(ms as u64);
        let rec = {
            let db = tenant.read_db();
            let coll = db
                .collection(&coll_name)
                .ok_or_else(|| format!("no collection '{coll_name}'"))?;
            state
                .advisor
                .recommend_compressed(coll, &workload, budget_bytes, &budget, 0, &[])
        };
        let t = &rec.telemetry;
        return Ok(Value::obj(vec![
            ("collection", Value::str(&coll_name)),
            ("statements", Value::num(snapshot.len() as f64)),
            (
                "ddl",
                Value::Arr(rec.ddl(&coll_name).iter().map(Value::str).collect()),
            ),
            ("improvement_pct", Value::num(rec.improvement_pct())),
            ("base_cost", Value::num(rec.outcome.base_cost)),
            ("workload_cost", Value::num(rec.outcome.workload_cost)),
            (
                "size_kib",
                Value::num((rec.outcome.size_bytes / 1024) as f64),
            ),
            ("strategy", Value::str("anytime")),
            ("budget_kib", Value::num((budget_bytes >> 10) as f64)),
            ("budget_ms", Value::num(ms)),
            ("templates", Value::num(rec.templates as f64)),
            ("raw_queries", Value::num(rec.raw_queries as f64)),
            ("error_bound", Value::num(rec.error_bound)),
            ("exhausted", Value::Bool(t.exhausted)),
            ("iterations", Value::num(t.iterations as f64)),
            ("evals", Value::num(t.evals as f64)),
            ("eval", Value::str(rec.outcome.stats.render())),
            ("workload_text", Value::str(workload_text)),
        ]));
    }
    let rec = {
        let db = tenant.read_db();
        let coll = db
            .collection(&coll_name)
            .ok_or_else(|| format!("no collection '{coll_name}'"))?;
        state
            .advisor
            .recommend(coll, &workload, budget_bytes, strategy)
    };
    Ok(Value::obj(vec![
        ("collection", Value::str(&coll_name)),
        ("statements", Value::num(snapshot.len() as f64)),
        (
            "ddl",
            Value::Arr(rec.ddl(&coll_name).iter().map(Value::str).collect()),
        ),
        ("improvement_pct", Value::num(rec.improvement_pct())),
        ("base_cost", Value::num(rec.outcome.base_cost)),
        ("workload_cost", Value::num(rec.outcome.workload_cost)),
        (
            "size_kib",
            Value::num((rec.outcome.size_bytes / 1024) as f64),
        ),
        ("strategy", Value::str(format!("{strategy}"))),
        ("budget_kib", Value::num((budget_bytes >> 10) as f64)),
        ("eval", Value::str(rec.outcome.stats.render())),
        ("workload_text", Value::str(workload_text)),
    ]))
}

fn handle_workload_dump(tenant: &Arc<TenantState>, req: &Value) -> Result<Value, String> {
    let snapshot = tenant.lock_monitor().snapshot();
    let snapshot = match req.get_str("collection") {
        Some(name) => snapshot.for_collection(name),
        None => snapshot,
    };
    let workload_text = snapshot
        .to_workload()
        .map(|w| w.to_file_format())
        .unwrap_or_default();
    let entries: Vec<Value> = snapshot
        .entries
        .iter()
        .map(|e| {
            Value::obj(vec![
                ("text", Value::str(&e.text)),
                ("collection", Value::str(&e.collection)),
                ("weight", Value::num(e.weight)),
                ("hits", Value::num(e.hits as f64)),
            ])
        })
        .collect();
    Ok(Value::obj(vec![
        ("statements", Value::num(snapshot.len() as f64)),
        ("taken_at", Value::num(snapshot.taken_at)),
        ("workload_text", Value::str(workload_text)),
        ("entries", Value::Arr(entries)),
    ]))
}

/// STATS `overload` section: the config and current level alongside the
/// live gauges and counters, so an operator can see both the limits and
/// how hard they are being hit.
fn overload_json(state: &ServerState) -> Value {
    let a = &state.admission;
    let cfg = a.config();
    let mut fields = vec![
        ("level".to_string(), Value::str(a.level().label())),
        ("workers".to_string(), Value::num(a.workers() as f64)),
        (
            "max_connections".to_string(),
            Value::num(cfg.max_connections as f64),
        ),
        ("shed_queue".to_string(), Value::num(cfg.shed_queue as f64)),
        (
            "max_frame_bytes".to_string(),
            Value::num(cfg.max_frame_bytes as f64),
        ),
        (
            "retry_after_ms_base".to_string(),
            Value::num(cfg.retry_after_ms as f64),
        ),
    ];
    if let Value::Obj(counters) = state.metrics.overload.to_json() {
        fields.extend(counters);
    }
    Value::Obj(fields)
}

fn handle_stats(state: &Arc<ServerState>) -> Result<Value, String> {
    // Top-level sections keep reporting the default tenant, so the
    // pre-tenancy STATS surface (and every test pinned to it) is
    // unchanged; per-namespace detail lives under `tenants`.
    let tenant = state.default_tenant();
    let snap = tenant.read_db();
    let concurrency = Value::obj(vec![
        ("snapshot_generation", Value::num(snap.generation() as f64)),
        (
            "snapshot_age_secs",
            Value::num(snap.published().elapsed().as_secs_f64()),
        ),
        (
            "snapshots_published",
            Value::num(tenant.cell.generation() as f64),
        ),
        (
            "live_snapshot_refs",
            Value::num(tenant.cell.live_refs() as f64),
        ),
        (
            "snapshots_alive",
            Value::num(tenant.cell.snapshots_alive() as f64),
        ),
        ("committer", state.metrics.concurrency.to_json()),
    ]);
    let collections: Vec<Value> = {
        let db = tenant.read_db();
        db.collections()
            .map(|c| {
                Value::obj(vec![
                    ("name", Value::str(c.name())),
                    ("documents", Value::num(c.len() as f64)),
                    ("indexes", Value::num(c.indexes().len() as f64)),
                    ("pages", Value::num(c.total_pages() as f64)),
                ])
            })
            .collect()
    };
    let (tracked, observed, evictions) = {
        let m = tenant.lock_monitor();
        (m.len(), m.observed(), m.evictions())
    };
    // Aggregate the last cycle for the advisor section: duration,
    // compression ratio (templates vs raw statements), delta size,
    // anytime iterations and a convergence-curve summary.
    let (last_cycle, cycle_summary) = {
        let guard = tenant.lock_cycle();
        match guard.as_ref() {
            None => (Value::Null, Value::Null),
            Some(report) => {
                let mut raw = 0usize;
                let mut templates = 0usize;
                let mut delta = 0usize;
                let mut iterations = 0u64;
                let mut points = 0usize;
                let mut cost_first = 0.0;
                let mut cost_last = 0.0;
                let mut reused = 0usize;
                for c in &report.collections {
                    raw += c.statements;
                    templates += c.templates;
                    delta += c.delta_statements;
                    iterations += c.anytime.iterations;
                    points += c.anytime.curve.len();
                    cost_first += c.anytime.curve.first().map(|p| p.cost).unwrap_or(0.0);
                    cost_last += c.anytime.curve.last().map(|p| p.cost).unwrap_or(0.0);
                    reused += c.reused as usize;
                }
                let summary = Value::obj(vec![
                    ("duration_secs", Value::num(report.duration_secs)),
                    ("raw_statements", Value::num(raw as f64)),
                    ("templates", Value::num(templates as f64)),
                    ("delta_statements", Value::num(delta as f64)),
                    ("anytime_iterations", Value::num(iterations as f64)),
                    ("collections_reused", Value::num(reused as f64)),
                    (
                        "curve",
                        Value::obj(vec![
                            ("points", Value::num(points as f64)),
                            ("cost_first", Value::num(cost_first)),
                            ("cost_last", Value::num(cost_last)),
                        ]),
                    ),
                ]);
                (report.to_json(), summary)
            }
        }
    };
    Ok(Value::obj(vec![
        (
            "uptime_secs",
            Value::num(state.started.elapsed().as_secs_f64()),
        ),
        ("collections", Value::Arr(collections)),
        (
            "monitor",
            Value::obj(vec![
                ("tracked", Value::num(tracked as f64)),
                ("observed", Value::num(observed as f64)),
                ("evictions", Value::num(evictions as f64)),
            ]),
        ),
        ("metrics", state.metrics.snapshot_json()),
        ("concurrency", concurrency),
        ("overload", overload_json(state)),
        ("durability", tenant.durability_json()),
        (
            "tenants",
            Value::Arr(state.all_tenants().iter().map(|t| t.stats_json()).collect()),
        ),
        (
            "advisor",
            Value::obj(vec![
                (
                    "cycles",
                    Value::num(tenant.cycles.load(Ordering::SeqCst) as f64),
                ),
                ("budget_kib", Value::num((state.budget_bytes >> 10) as f64)),
                ("auto_apply", Value::Bool(state.auto_apply)),
                (
                    "advise_budget_ms",
                    match state.advise_budget {
                        Some(d) => Value::num(d.as_secs_f64() * 1000.0),
                        None => Value::Null,
                    },
                ),
                (
                    "allocation",
                    state
                        .compute_allocation()
                        .map(allocation_json)
                        .unwrap_or(Value::Null),
                ),
                ("last_cycle_summary", cycle_summary),
                ("last_cycle", last_cycle),
            ]),
        ),
    ]))
}

/// STATS `advisor.allocation` section: how the shared page budget was
/// split across tenants on the latest frontiers.
fn allocation_json(a: Allocation) -> Value {
    let per_tenant: Vec<Value> = a
        .per_tenant
        .iter()
        .map(|t| {
            Value::obj(vec![
                ("tenant", Value::str(&t.tenant)),
                ("pages", Value::num(t.pages as f64)),
                ("benefit", Value::num(t.benefit)),
                ("error_bound", Value::num(t.error_bound)),
                ("starved", Value::Bool(t.starved)),
                (
                    "ddl",
                    Value::Arr(
                        t.chosen
                            .iter()
                            .flat_map(|i| i.ddl.iter().map(Value::str))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Value::obj(vec![
        ("total_pages", Value::num(a.total_pages as f64)),
        ("spent_pages", Value::num(a.spent_pages as f64)),
        ("total_benefit", Value::num(a.total_benefit)),
        ("per_tenant", Value::Arr(per_tenant)),
    ])
}
