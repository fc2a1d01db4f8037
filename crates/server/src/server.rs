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
//! * every executed query is fed to the `WorkloadMonitor`, and an
//!   optional **background advisor** thread periodically turns the
//!   monitor into a `Workload`, re-runs the advisor and reports drift
//!   (see [`crate::advise`]).
//!
//! Worker sockets use a short read timeout so the pool drains promptly
//! on shutdown even when clients keep idle connections open.
//!
//! This module owns the lifecycle: [`ServerState`], [`Server`] start /
//! stop and the three thread loops. The rest of the daemon is one
//! submodule per seam:
//!
//! * `config` — [`ServerConfig`] and [`DurabilityConfig`];
//! * `connection` — framing, [`handle_line`], the deadline and panic
//!   guards, the dispatch table;
//! * `read` — QUERY / EXPLAIN / PROFILE over one `prepare` step;
//! * `write` — INSERT / CREATE-INDEX / DROP-INDEX through the
//!   committer;
//! * `advisor` — RECOMMEND / ADVISE / WORKLOAD (the cycle itself is
//!   [`crate::advise`]);
//! * `admin` — TENANT and STATS rendering.

mod admin;
mod advisor;
mod config;
mod connection;
mod read;
mod write;

pub use config::{DurabilityConfig, ServerConfig};
pub use connection::handle_line;

use crate::admission::{shed_tier, Admission, Busy, ConnectionGuard, QueueGuard, ShedTier};
use crate::advise::CycleReport;
use crate::committer::{submit_and_wait, WriteCmd};
use crate::json::Value;
use crate::metrics::{Command, Metrics};
use crate::snapshot::{clear_thread_cache, Snapshot};
use crate::tenant::{scan_tenant_dirs, validate_tenant_name, TenantState, DEFAULT_TENANT};
use crate::transport::Transport;
use connection::{busy_response, serve_connection, ConnEnd};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xia_advisor::{allocate, Advisor, Allocation, TenantFrontier};
use xia_storage::Database;

/// State shared by every worker and the background advisor.
///
/// Per-database machinery (snapshot cell, committer, monitor, advisor
/// memory, durable store) lives in [`TenantState`] — once per
/// namespace. What remains here is genuinely global: the tenant
/// registry, metrics, admission control, the advisor engine, the
/// configuration the daemon was started with, and the daemon lifecycle.
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
    /// What [`Server::start`] was given; budgets, deadlines and the
    /// durability root are read from here where they are used.
    pub(crate) config: ServerConfig,
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
                    let tenant = Arc::new(
                        TenantState::open(
                            name,
                            Database::new(),
                            &self.config,
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
        let cap = self.config.tenant_max_in_flight?;
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
        let total = self.config.tenant_pages?;
        let frontiers: Vec<TenantFrontier> = self
            .all_tenants()
            .iter()
            .map(|t| {
                let (items, error_bound) = t.frontier();
                TenantFrontier {
                    tenant: t.name().to_string(),
                    items,
                    floor_pages: self.config.tenant_floor_pages,
                    ceiling_pages: self.config.tenant_ceiling_pages,
                    error_bound,
                }
            })
            .collect();
        Some(allocate(&frontiers, total))
    }

    /// Raise the shutdown flag and wake everything that sleeps on it:
    /// the advisor thread through its condvar, the acceptor's blocking
    /// accept through a no-op connection.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = heal_lock(&self.advise_signal.0, &self.metrics);
            self.advise_signal.1.notify_all();
        }
        let _ = TcpStream::connect(self.addr);
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
}

/// A running daemon. Dropping the handle shuts the daemon down.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    threads: Vec<JoinHandle<()>>,
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
        // where the single-tenant daemon kept its state; named tenants
        // from their `tenants/<name>/` subdirectories.
        let default_tenant = Arc::new(TenantState::open(
            DEFAULT_TENANT,
            db,
            &cfg,
            metrics.clone(),
        )?);
        let mut tenants = BTreeMap::new();
        if let Some(d) = &cfg.durability {
            for name in scan_tenant_dirs(d.vfs.as_ref(), &d.dir) {
                let tenant = TenantState::open(&name, Database::new(), &cfg, metrics.clone())?;
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
            config: cfg,
            flushed: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            advise_signal: (Mutex::new(()), Condvar::new()),
            addr,
            started: Instant::now(),
        });

        // Spawn failures must not leave a silently undersized pool: any
        // failed spawn tears down everything already started (workers,
        // acceptor, committer) and surfaces in the result.
        let mut threads = Vec::new();
        if let Err(e) = spawn_threads(&state, listener, workers, &mut threads) {
            // Structured teardown: the failed spawn dropped the channel
            // end it held, so workers drain; wake the acceptor (if it
            // started), join everything, and stop the committers with a
            // final flush.
            state.request_shutdown();
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
        self.state.request_shutdown();
        self.join_and_flush();
    }

    /// Block until the daemon shuts down (via the SHUTDOWN command),
    /// then flush the durable state.
    pub fn join(mut self) {
        self.join_and_flush();
    }

    fn join_and_flush(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.state.flush_durable();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.state.request_shutdown();
            self.join_and_flush();
        }
    }
}

/// What a worker pulls off the acceptor queue: the wrapped socket plus
/// the RAII gauges for its live slot and its place in the queue.
type Conn = (Box<dyn Transport>, ConnectionGuard, QueueGuard);

/// Spawn the worker pool, the acceptor and (when configured) the
/// background advisor, pushing each handle onto `threads` as it starts.
/// On the first failure the rest is not attempted and the error names
/// the thread.
fn spawn_threads(
    state: &Arc<ServerState>,
    listener: TcpListener,
    workers: usize,
    threads: &mut Vec<JoinHandle<()>>,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel::<Conn>();
    let rx = Arc::new(Mutex::new(rx));
    for i in 0..workers {
        #[cfg(feature = "testing")]
        if state.config.worker_spawn_fault == Some(i) {
            return Err(std::io::Error::other(format!(
                "failed to spawn xia-worker-{i} thread: injected (testing feature)"
            )));
        }
        let (state, rx) = (state.clone(), rx.clone());
        spawn_named(threads, format!("xia-worker-{i}"), move || {
            worker_loop(&state, &rx)
        })?;
    }
    {
        let state = state.clone();
        spawn_named(threads, "xia-acceptor".to_string(), move || {
            acceptor_loop(&state, listener, tx)
        })?;
    }
    if let Some(interval) = state.config.advise_interval {
        let state = state.clone();
        spawn_named(threads, "xia-advisor".to_string(), move || {
            advisor_loop(&state, interval)
        })?;
    }
    Ok(())
}

fn spawn_named(
    threads: &mut Vec<JoinHandle<()>>,
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<()> {
    let spawned = std::thread::Builder::new().name(name.clone()).spawn(body);
    threads.push(spawned.map_err(|e| {
        std::io::Error::new(e.kind(), format!("failed to spawn {name} thread: {e}"))
    })?);
    Ok(())
}

/// A pool worker: serve queued connections one at a time, each for its
/// whole lifetime, until the acceptor hangs up the queue.
fn worker_loop(state: &Arc<ServerState>, rx: &Mutex<mpsc::Receiver<Conn>>) {
    loop {
        let conn = { heal_lock(rx, &state.metrics).recv() };
        let Ok((transport, conn_guard, queue_guard)) = conn else {
            break; // acceptor gone: shutdown
        };
        drop(queue_guard); // picked up: no longer queued
        let o = &state.metrics.overload;
        match serve_connection(state, transport) {
            ConnEnd::Served => &o.conns_served,
            ConnEnd::Faulted => &o.conns_faulted,
        }
        .fetch_add(1, Ordering::Relaxed);
        // Between connections a worker must not pin a snapshot: drop
        // the thread-local cache so superseded generations free.
        clear_thread_cache();
        drop(conn_guard); // frees the live slot
    }
}

/// The acceptor: wrap each incoming socket in the configured transport,
/// admit it onto the worker queue or answer BUSY and close.
fn acceptor_loop(state: &Arc<ServerState>, listener: TcpListener, tx: mpsc::Sender<Conn>) {
    for stream in listener.incoming() {
        if state.is_shutdown() {
            break;
        }
        let Ok(s) = stream else { continue };
        let o = &state.metrics.overload;
        o.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let mut transport = match state.config.transport.wrap(s) {
            Ok(t) => t,
            Err(_) => {
                o.conns_faulted.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        match state.admission.try_admit() {
            Ok(conn_guard) => {
                let queue_guard = state.admission.enqueued();
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
    // `tx` drops here: workers drain the queue and exit.
}

/// The background advisor: every `interval`, cycle every namespace so
/// each tenant's bid (frontier) for the shared page budget is fresh.
fn advisor_loop(state: &Arc<ServerState>, interval: Duration) {
    loop {
        let guard = heal_lock(&state.advise_signal.0, &state.metrics);
        let (_guard, _timeout) = match state.advise_signal.1.wait_timeout(guard, interval) {
            Ok(r) => r,
            Err(poisoned) => {
                state.advise_signal.0.clear_poison();
                poisoned.into_inner()
            }
        };
        if state.is_shutdown() {
            break;
        }
        // Brownout: yield the cycle while connections are waiting for
        // workers; counted in STATS.
        if state.admission.advisor_should_pause() {
            continue;
        }
        for tenant in state.all_tenants() {
            state.force_cycle_on(&tenant);
        }
        clear_thread_cache();
    }
}
