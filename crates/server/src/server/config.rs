//! What the daemon is started with: [`ServerConfig`] and the
//! [`DurabilityConfig`] inside it. [`super::ServerState`] keeps the
//! `ServerConfig` for the daemon's lifetime, so a setting is read where
//! it is used and lives nowhere else.

use crate::admission::AdmissionConfig;
use crate::transport::{RealFactory, TransportFactory};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use xia_storage::{RealVfs, Vfs};
use xia_workload::{Clock, MonitorConfig, SystemClock};

/// Where and how the daemon persists: a snapshot directory managed by
/// [`xia_storage::DurableStore`] (generational snapshots + WAL) plus the
/// captured monitor, all through an injectable [`Vfs`] so tests can
/// fault any filesystem step. Each tenant gets its own copy with `dir`
/// pointing at its directory.
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
    /// Create recommended-but-missing indexes at the end of each cycle.
    pub auto_apply: bool,
    /// Background advisor period; `None` disables the thread (cycles
    /// then run only via the ADVISE command or [`super::Server::force_cycle`]).
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
