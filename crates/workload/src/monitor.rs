//! Continuous workload capture: the serving layer's always-on monitor.
//!
//! The paper's advisor consumes "a workload of queries collected by
//! DB2"; in DB2 that collection is an always-on monitoring facility.
//! [`WorkloadMonitor`] is that facility for this reproduction: every
//! executed query is lowered through `xia-xquery` to its normalized
//! form, deduplicated by that form (so the same logical query written
//! in XPath, XQuery or SQL/XML counts as one statement), and tracked
//! with an exponentially-decayed frequency so that a drifting workload
//! forgets queries that stopped arriving.
//!
//! Time is injected through the [`Clock`] trait so the decay math is
//! unit-testable with a [`FakeClock`] and the daemon runs on a
//! monotonic [`SystemClock`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xia_advisor::{template_key, Workload};
use xia_xquery::{compile, NormalizedQuery, QueryError};

/// Monotonic time source, in seconds since an arbitrary epoch.
pub trait Clock: Send + Sync {
    fn now(&self) -> f64;
}

/// Wall clock anchored at construction.
#[derive(Debug)]
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    pub fn new() -> SystemClock {
        SystemClock {
            start: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Manually-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct FakeClock {
    secs: Mutex<f64>,
}

impl FakeClock {
    pub fn new() -> FakeClock {
        FakeClock::default()
    }

    /// Move time forward by `secs`.
    pub fn advance(&self, secs: f64) {
        *self.secs.lock().expect("clock lock") += secs;
    }

    pub fn set(&self, secs: f64) {
        *self.secs.lock().expect("clock lock") = secs;
    }
}

impl Clock for FakeClock {
    fn now(&self) -> f64 {
        *self.secs.lock().expect("clock lock")
    }
}

/// Monitor tuning knobs.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Seconds for an idle query's frequency to halve.
    pub half_life_secs: f64,
    /// Maximum distinct (normalized) statements tracked; observing a new
    /// statement at capacity evicts the lowest-frequency one.
    pub capacity: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            half_life_secs: 300.0,
            capacity: 1024,
        }
    }
}

/// One tracked statement (decayed to `last_update`).
#[derive(Debug, Clone)]
pub struct MonitorEntry {
    /// First-seen query text, kept as the statement's representative.
    pub text: String,
    pub collection: String,
    /// Exponentially-decayed frequency as of `last_update`.
    pub weight: f64,
    /// Clock reading of the most recent observation.
    pub last_update: f64,
    /// Raw observation count (never decayed).
    pub hits: u64,
}

impl MonitorEntry {
    /// Frequency decayed forward to clock reading `at`.
    pub fn weight_at(&self, at: f64, half_life_secs: f64) -> f64 {
        let dt = (at - self.last_update).max(0.0);
        self.weight * 0.5f64.powf(dt / half_life_secs)
    }
}

/// Point-in-time copy of the monitor, with all frequencies decayed to
/// the same instant — the unit the background advisor consumes and the
/// unit that persists across restarts (see [`crate::persist`]).
#[derive(Debug, Clone)]
pub struct MonitorSnapshot {
    /// Clock reading the snapshot was taken at.
    pub taken_at: f64,
    /// Entries in first-observation order, weights decayed to `taken_at`.
    pub entries: Vec<MonitorEntry>,
}

impl MonitorSnapshot {
    /// Restrict to statements over one collection (order preserved).
    pub fn for_collection(&self, name: &str) -> MonitorSnapshot {
        MonitorSnapshot {
            taken_at: self.taken_at,
            entries: self
                .entries
                .iter()
                .filter(|e| e.collection == name)
                .cloned()
                .collect(),
        }
    }

    /// Collection names appearing in the snapshot, sorted and deduplicated.
    pub fn collections(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.iter().map(|e| e.collection.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Materialize the captured statements as an advisor [`Workload`]
    /// whose frequencies are the decayed weights.
    pub fn to_workload(&self) -> Result<Workload, QueryError> {
        let mut w = Workload::new();
        for e in &self.entries {
            w.add_query(&e.text, &e.collection, e.weight)?;
        }
        Ok(w)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The always-on workload capture facility.
pub struct WorkloadMonitor {
    cfg: MonitorConfig,
    clock: Arc<dyn Clock>,
    entries: Vec<MonitorEntry>,
    /// Modification stamp per entry, parallel to `entries` (kept out of
    /// [`MonitorEntry`] so the persisted snapshot format is untouched).
    versions: Vec<u64>,
    /// Dedup and template keys per entry, parallel to `entries`: derived
    /// once from the compiled query on insertion, so an eviction is
    /// arithmetic over stored keys and never recompiles a text.
    keys: Vec<EntryKeys>,
    by_key: HashMap<String, usize>,
    observed: u64,
    evictions: u64,
    /// Monotonic change counter; bumped on every entry mutation. The
    /// advisor compares it across cycles to re-advise incrementally.
    version: u64,
    /// Evictions whose weight was folded into a same-template survivor.
    folds: u64,
    /// Weight mass of evictions with no surviving template to fold into.
    dropped_weight: f64,
}

impl std::fmt::Debug for WorkloadMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadMonitor")
            .field("entries", &self.entries.len())
            .field("observed", &self.observed)
            .field("evictions", &self.evictions)
            .field("version", &self.version)
            .finish()
    }
}

/// The dedup key: collection plus every field of the query's lowered
/// atoms, literals included — compression's exact-form key. Language
/// and surface text are deliberately excluded, so equivalent queries in
/// different surface languages (or with whitespace differences) fold
/// into one statement; queries that differ only in an atom's flags
/// (`text()` or not, extraction, OR group) do not.
fn normalized_key(q: &NormalizedQuery) -> String {
    xia_advisor::compress::exact_key(q)
}

/// How a full monitor makes room for a new entry.
type Evict = fn(&mut WorkloadMonitor, f64);

/// The two keys an entry is found and folded by.
#[derive(Debug, Clone)]
struct EntryKeys {
    /// [`normalized_key`]: the `by_key` index's key.
    normalized: String,
    /// [`template_key`]: the fold target of an eviction shares it.
    template: String,
}

impl EntryKeys {
    fn of(q: &NormalizedQuery) -> EntryKeys {
        EntryKeys {
            normalized: normalized_key(q),
            template: template_key(q),
        }
    }
}

impl WorkloadMonitor {
    pub fn new(cfg: MonitorConfig, clock: Arc<dyn Clock>) -> WorkloadMonitor {
        WorkloadMonitor {
            cfg,
            clock,
            entries: Vec::new(),
            versions: Vec::new(),
            keys: Vec::new(),
            by_key: HashMap::new(),
            observed: 0,
            evictions: 0,
            version: 0,
            folds: 0,
            dropped_weight: 0.0,
        }
    }

    pub fn with_defaults() -> WorkloadMonitor {
        WorkloadMonitor::new(MonitorConfig::default(), Arc::new(SystemClock::new()))
    }

    /// Distinct normalized statements currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total observations fed to the monitor (before dedup).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Entries evicted because the monitor was at capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Monotonic change counter, bumped on every entry mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Evictions whose weight was folded into a same-template survivor.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Frequency mass lost to evictions with no fold target. With the
    /// fold in place this only grows when an evicted query's *template*
    /// disappears entirely.
    pub fn dropped_weight(&self) -> f64 {
        self.dropped_weight
    }

    /// Highest modification stamp among one collection's entries (0 if
    /// the collection is untracked).
    pub fn collection_version(&self, collection: &str) -> u64 {
        self.entries
            .iter()
            .zip(&self.versions)
            .filter(|(e, _)| e.collection == collection)
            .map(|(_, &v)| v)
            .max()
            .unwrap_or(0)
    }

    /// How many of one collection's entries changed after stamp `since`
    /// — the delta the incremental advisor re-clusters.
    pub fn changed_since(&self, collection: &str, since: u64) -> usize {
        self.entries
            .iter()
            .zip(&self.versions)
            .filter(|(e, &v)| e.collection == collection && v > since)
            .count()
    }

    /// Record one execution of an already-compiled query.
    pub fn observe(&mut self, query: &NormalizedQuery) {
        self.observe_weighted(query, 1.0);
    }

    /// Record `weight` executions of a compiled query.
    pub fn observe_weighted(&mut self, query: &NormalizedQuery, weight: f64) {
        self.record(query, weight, Self::evict_coldest);
    }

    /// The body of [`observe_weighted`](Self::observe_weighted), with the
    /// eviction passed in so tests can run it against a reference one.
    fn record(&mut self, query: &NormalizedQuery, weight: f64, evict: Evict) {
        let now = self.clock.now();
        self.observed += 1;
        let key = normalized_key(query);
        self.version += 1;
        if let Some(&i) = self.by_key.get(&key) {
            let e = &mut self.entries[i];
            e.weight = e.weight_at(now, self.cfg.half_life_secs) + weight;
            e.last_update = now;
            e.hits += 1;
            self.versions[i] = self.version;
            return;
        }
        if self.entries.len() >= self.cfg.capacity {
            evict(self, now);
        }
        self.by_key.insert(key.clone(), self.entries.len());
        self.keys.push(EntryKeys {
            normalized: key,
            template: template_key(query),
        });
        self.entries.push(MonitorEntry {
            text: query.text.clone(),
            collection: query.collection.clone(),
            weight,
            last_update: now,
            hits: 1,
        });
        self.versions.push(self.version);
    }

    /// Compile `text` against `collection` and record it. Convenience
    /// for callers that do not already hold a [`NormalizedQuery`].
    pub fn observe_text(&mut self, text: &str, collection: &str) -> Result<(), QueryError> {
        let q = compile(text, collection)?;
        self.observe(&q);
        Ok(())
    }

    /// The coldest entry: lowest weight decayed to `now`, ties to the
    /// lowest index.
    fn coldest(&self, now: f64) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| {
                let wa = a.weight_at(now, self.cfg.half_life_secs);
                let wb = b.weight_at(now, self.cfg.half_life_secs);
                wa.total_cmp(&wb).then(ia.cmp(ib))
            })
            .map(|(i, _)| i)
    }

    /// Evict the coldest entry and fold its decayed weight into the
    /// first strictly hottest survivor of its template, if any. The
    /// scan is O(capacity) over stored keys and weights: nothing is
    /// recompiled and `by_key` is shifted in place, not rebuilt.
    fn evict_coldest(&mut self, now: f64) {
        let Some(coldest) = self.coldest(now) else {
            return;
        };
        let evicted = self.entries.remove(coldest);
        let evicted_keys = self.keys.remove(coldest);
        self.versions.remove(coldest);
        self.evictions += 1;
        self.by_key.remove(&evicted_keys.normalized);
        for i in self.by_key.values_mut() {
            if *i > coldest {
                *i -= 1;
            }
        }
        let half_life = self.cfg.half_life_secs;
        let mut fold_into: Option<usize> = None;
        for (i, k) in self.keys.iter().enumerate() {
            if k.template == evicted_keys.template {
                let hotter = fold_into.is_none_or(|t| {
                    self.entries[i].weight_at(now, half_life)
                        > self.entries[t].weight_at(now, half_life)
                });
                if hotter {
                    fold_into = Some(i);
                }
            }
        }
        self.fold(fold_into, evicted.weight_at(now, half_life), now);
    }

    /// Add an evicted entry's decayed weight to survivor `into`, or count
    /// it as dropped when its template has no survivor.
    fn fold(&mut self, into: Option<usize>, freed: f64, now: f64) {
        match into {
            Some(i) => {
                let e = &mut self.entries[i];
                e.weight = e.weight_at(now, self.cfg.half_life_secs) + freed;
                e.last_update = now;
                self.version += 1;
                self.versions[i] = self.version;
                self.folds += 1;
            }
            None => self.dropped_weight += freed,
        }
    }

    /// The eviction as it was before keys were stored: recompile every
    /// surviving text to rebuild `by_key` and to find the fold target.
    /// The differential test holds [`evict_coldest`](Self::evict_coldest)
    /// to it bit for bit.
    #[cfg(test)]
    fn evict_coldest_recompiling(&mut self, now: f64) {
        let Some(coldest) = self.coldest(now) else {
            return;
        };
        let evicted = self.entries.remove(coldest);
        self.keys.remove(coldest);
        self.versions.remove(coldest);
        self.evictions += 1;
        let half_life = self.cfg.half_life_secs;
        let freed = evicted.weight_at(now, half_life);
        let evicted_template = compile(&evicted.text, &evicted.collection)
            .ok()
            .map(|q| template_key(&q));
        self.by_key.clear();
        let mut fold_into: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if let Ok(q) = compile(&e.text, &e.collection) {
                self.by_key.insert(normalized_key(&q), i);
                if evicted_template.as_deref() == Some(template_key(&q).as_str()) {
                    let hotter = fold_into.is_none_or(|t| {
                        e.weight_at(now, half_life) > self.entries[t].weight_at(now, half_life)
                    });
                    if hotter {
                        fold_into = Some(i);
                    }
                }
            }
        }
        self.fold(fold_into, freed, now);
    }

    /// Decay every entry to "now" and return a point-in-time copy.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let now = self.clock.now();
        MonitorSnapshot {
            taken_at: now,
            entries: self
                .entries
                .iter()
                .map(|e| MonitorEntry {
                    text: e.text.clone(),
                    collection: e.collection.clone(),
                    weight: e.weight_at(now, self.cfg.half_life_secs),
                    last_update: now,
                    hits: e.hits,
                })
                .collect(),
        }
    }

    /// Replace the monitor's contents with a previously-taken snapshot
    /// (e.g. one reloaded from disk). Weights are treated as current as
    /// of the restore instant.
    pub fn restore(&mut self, snapshot: &MonitorSnapshot) {
        let now = self.clock.now();
        self.entries.clear();
        self.versions.clear();
        self.keys.clear();
        self.by_key.clear();
        for e in &snapshot.entries {
            let Ok(q) = compile(&e.text, &e.collection) else {
                continue;
            };
            let keys = EntryKeys::of(&q);
            if self.by_key.contains_key(&keys.normalized) || self.entries.len() >= self.cfg.capacity
            {
                continue;
            }
            self.by_key
                .insert(keys.normalized.clone(), self.entries.len());
            self.keys.push(keys);
            self.entries.push(MonitorEntry {
                text: e.text.clone(),
                collection: e.collection.clone(),
                weight: e.weight,
                last_update: now,
                hits: e.hits,
            });
            self.version += 1;
            self.versions.push(self.version);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn monitor(half_life: f64, capacity: usize) -> (WorkloadMonitor, Arc<FakeClock>) {
        let clock = Arc::new(FakeClock::new());
        let m = WorkloadMonitor::new(
            MonitorConfig {
                half_life_secs: half_life,
                capacity,
            },
            clock.clone(),
        );
        (m, clock)
    }

    #[test]
    fn frequencies_halve_on_schedule() {
        let (mut m, clock) = monitor(10.0, 16);
        m.observe_text("//item/price", "shop").unwrap();
        assert_eq!(m.snapshot().entries[0].weight, 1.0);

        clock.advance(10.0); // exactly one half-life
        let w = m.snapshot().entries[0].weight;
        assert!((w - 0.5).abs() < 1e-12, "one half-life: {w}");

        clock.advance(20.0); // two more half-lives
        let w = m.snapshot().entries[0].weight;
        assert!((w - 0.125).abs() < 1e-12, "three half-lives total: {w}");
    }

    #[test]
    fn observation_adds_on_top_of_decayed_weight() {
        let (mut m, clock) = monitor(10.0, 16);
        m.observe_text("//item/price", "shop").unwrap();
        clock.advance(10.0);
        m.observe_text("//item/price", "shop").unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.len(), 1, "same query deduplicates");
        assert!((snap.entries[0].weight - 1.5).abs() < 1e-12);
        assert_eq!(snap.entries[0].hits, 2);
    }

    #[test]
    fn dedup_is_by_normalized_form_across_languages() {
        let (mut m, _) = monitor(10.0, 16);
        m.observe_text("//item[price > 3]/name", "c").unwrap();
        // Same logical query, different whitespace.
        m.observe_text("//item[ price > 3 ]/name", "c").unwrap();
        assert_eq!(m.len(), 1, "whitespace variants fold together");
        // Same atoms via the XQuery surface.
        m.observe_text(
            r#"for $i in collection("c")//item where $i/price > 3 return $i/name"#,
            "c",
        )
        .unwrap();
        assert_eq!(m.len(), 1, "XQuery form folds into the XPath form");
        assert_eq!(m.snapshot().entries[0].hits, 3);
        // A genuinely different query does not fold.
        m.observe_text("//item[price > 4]/name", "c").unwrap();
        assert_eq!(m.len(), 2);
    }

    /// The two lower to atoms that differ only in `exact`, so ADVISE
    /// must see (and price) them as two statements.
    #[test]
    fn text_step_and_element_form_are_distinct_entries() {
        let (mut m, _) = monitor(10.0, 16);
        m.observe_text("/site/regions/europe/item/name/text()", "c")
            .unwrap();
        m.observe_text("/site/regions/europe/item/name", "c")
            .unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn same_text_different_collection_is_distinct() {
        let (mut m, _) = monitor(10.0, 16);
        m.observe_text("//item/price", "a").unwrap();
        m.observe_text("//item/price", "b").unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn eviction_at_capacity_drops_the_coldest() {
        let (mut m, clock) = monitor(10.0, 2);
        m.observe_text("//a", "c").unwrap();
        clock.advance(1.0);
        m.observe_text("//b", "c").unwrap();
        // Make //b clearly hotter.
        m.observe_text("//b", "c").unwrap();
        clock.advance(1.0);
        // Full: the third distinct query evicts //a (lowest decayed weight).
        m.observe_text("//d", "c").unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.evictions(), 1);
        let snap = m.snapshot();
        let texts: Vec<&str> = snap.entries.iter().map(|e| e.text.as_str()).collect();
        assert!(!texts.contains(&"//a"), "coldest entry evicted: {texts:?}");
        assert!(texts.contains(&"//b"));
        assert!(texts.contains(&"//d"));
        // The survivor is still deduplicated correctly after eviction.
        m.observe_text("//b", "c").unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn eviction_folds_weight_into_template_cluster() {
        // Regression: eviction used to drop the evicted entry's decayed
        // weight on the floor, skewing compressed-workload weights.
        let (mut m, clock) = monitor(10.0, 2);
        // Two same-template variants (literal differs) …
        m.observe_text("//item[price > 3]/name", "c").unwrap();
        clock.advance(1.0);
        m.observe_text("//item[price > 4]/name", "c").unwrap();
        m.observe_text("//item[price > 4]/name", "c").unwrap();
        clock.advance(1.0);
        let before: f64 = m.snapshot().entries.iter().map(|e| e.weight).sum();
        // … a third distinct query evicts the colder variant; its mass
        // must fold into the surviving same-template entry.
        m.observe_text("//other/path", "c").unwrap();
        assert_eq!(m.evictions(), 1);
        assert_eq!(m.folds(), 1);
        assert_eq!(m.dropped_weight(), 0.0);
        let snap = m.snapshot();
        let total: f64 = snap.entries.iter().map(|e| e.weight).sum();
        // Total mass = pre-eviction mass (nothing lost) + the new query.
        assert!(
            (total - (before + 1.0)).abs() < 1e-9,
            "mass before {before}, after {total}"
        );
        let survivor = snap
            .entries
            .iter()
            .find(|e| e.text == "//item[price > 4]/name")
            .expect("hot variant survives");
        assert!(
            survivor.weight > 2.0 * 0.5f64.powf(0.1) - 1e-9,
            "survivor carries folded weight: {}",
            survivor.weight
        );
    }

    #[test]
    fn eviction_without_template_survivor_counts_dropped_weight() {
        let (mut m, clock) = monitor(10.0, 2);
        m.observe_text("//a/b", "c").unwrap();
        clock.advance(1.0);
        m.observe_text("//x/y", "c").unwrap();
        m.observe_text("//x/y", "c").unwrap();
        clock.advance(1.0);
        m.observe_text("//p/q", "c").unwrap();
        assert_eq!(m.evictions(), 1);
        assert_eq!(m.folds(), 0);
        assert!(m.dropped_weight() > 0.0);
    }

    #[test]
    fn versions_track_changes_per_collection() {
        let (mut m, _) = monitor(10.0, 16);
        assert_eq!(m.version(), 0);
        m.observe_text("//a", "x").unwrap();
        let after_x = m.version();
        assert!(after_x > 0);
        assert_eq!(m.collection_version("x"), after_x);
        assert_eq!(m.collection_version("y"), 0);
        assert_eq!(m.changed_since("x", 0), 1);
        assert_eq!(m.changed_since("x", after_x), 0);

        m.observe_text("//b", "y").unwrap();
        assert!(m.collection_version("y") > after_x);
        // Collection x is untouched by y's traffic.
        assert_eq!(m.collection_version("x"), after_x);
        assert_eq!(m.changed_since("x", after_x), 0);
        assert_eq!(m.changed_since("y", after_x), 1);

        // Re-observing x bumps its entry's stamp.
        m.observe_text("//a", "x").unwrap();
        assert!(m.collection_version("x") > after_x);
        assert_eq!(m.changed_since("x", after_x), 1);
    }

    #[test]
    fn snapshot_to_workload_carries_decayed_frequencies() {
        let (mut m, clock) = monitor(10.0, 16);
        m.observe_text("//item/price", "shop").unwrap();
        m.observe_text("//item/price", "shop").unwrap();
        m.observe_text("//person/name", "shop").unwrap();
        clock.advance(10.0);
        let snap = m.snapshot();
        let w = snap.to_workload().unwrap();
        assert_eq!(w.query_count(), 2);
        let freqs: Vec<f64> = w.queries().map(|(_, f)| f).collect();
        assert!((freqs[0] - 1.0).abs() < 1e-12, "2 hits halved: {freqs:?}");
        assert!((freqs[1] - 0.5).abs() < 1e-12, "1 hit halved: {freqs:?}");
    }

    #[test]
    fn restore_round_trips_entries() {
        let (mut m, clock) = monitor(10.0, 16);
        m.observe_text("//item/price", "shop").unwrap();
        m.observe_text("//person/name", "shop").unwrap();
        clock.advance(5.0);
        let snap = m.snapshot();

        let (mut fresh, _) = monitor(10.0, 16);
        fresh.restore(&snap);
        assert_eq!(fresh.len(), 2);
        let again = fresh.snapshot();
        for (a, b) in snap.entries.iter().zip(&again.entries) {
            assert_eq!(a.text, b.text);
            assert_eq!(a.collection, b.collection);
            assert!((a.weight - b.weight).abs() < 1e-12);
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn invalid_query_is_rejected_not_tracked() {
        let (mut m, _) = monitor(10.0, 16);
        assert!(m.observe_text("///bad", "c").is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn snapshot_filters_by_collection() {
        let (mut m, _) = monitor(10.0, 16);
        m.observe_text("//a", "x").unwrap();
        m.observe_text("//b", "y").unwrap();
        m.observe_text("//c", "x").unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.collections(), vec!["x".to_string(), "y".to_string()]);
        assert_eq!(snap.for_collection("x").len(), 2);
        assert_eq!(snap.for_collection("y").len(), 1);
        assert!(snap.for_collection("z").is_empty());
    }

    /// Texts over a few templates in two collections: literal variants
    /// (one template key, distinct normalized keys), a whitespace and an
    /// XQuery spelling that dedup with an XPath form, and singletons.
    fn template_rich_texts() -> Vec<NormalizedQuery> {
        let mut texts = Vec::new();
        for coll in ["x", "y"] {
            for n in 0..6 {
                texts.push((format!("//item[price > {n}]/name"), coll));
                texts.push((format!("//person[profile/age > {}]/name", 20 + n), coll));
                texts.push((format!("//closed_auction[price >= {}]/date", n * 100), coll));
            }
            texts.push(("//item[ price > 3 ]/name".to_string(), coll));
            texts.push((
                format!(
                    r#"for $i in collection("{coll}")//item where $i/price > 2 return $i/name"#
                ),
                coll,
            ));
            for region in ["africa", "asia", "europe"] {
                texts.push((format!("/site/regions/{region}/item/quantity"), coll));
            }
            texts.push((r#"//item[@featured = "yes"]/name"#.to_string(), coll));
        }
        texts
            .iter()
            .map(|(t, c)| compile(t, c).expect("test text compiles"))
            .collect()
    }

    /// Everything observable about a monitor, and its key index, must
    /// agree bit for bit.
    fn assert_same(a: &WorkloadMonitor, b: &WorkloadMonitor, ctx: &str) {
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.taken_at.to_bits(), sb.taken_at.to_bits(), "{ctx}");
        assert_eq!(sa.len(), sb.len(), "{ctx}");
        for (x, y) in sa.entries.iter().zip(&sb.entries) {
            let bits = |e: &MonitorEntry| {
                (
                    e.text.clone(),
                    e.collection.clone(),
                    e.weight.to_bits(),
                    e.last_update.to_bits(),
                    e.hits,
                )
            };
            assert_eq!(bits(x), bits(y), "{ctx}");
        }
        assert_eq!(a.evictions(), b.evictions(), "{ctx}");
        assert_eq!(a.folds(), b.folds(), "{ctx}");
        assert_eq!(
            a.dropped_weight().to_bits(),
            b.dropped_weight().to_bits(),
            "{ctx}"
        );
        assert_eq!(a.version(), b.version(), "{ctx}");
        assert_eq!(a.observed(), b.observed(), "{ctx}");
        assert_eq!(a.by_key, b.by_key, "{ctx}");
        for coll in ["x", "y", "z"] {
            assert_eq!(
                a.collection_version(coll),
                b.collection_version(coll),
                "{ctx}"
            );
            for since in [0, a.version() / 2, a.version().saturating_sub(1)] {
                assert_eq!(
                    a.changed_since(coll, since),
                    b.changed_since(coll, since),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn stored_key_eviction_matches_the_recompiling_reference() {
        let queries = template_rich_texts();
        let (mut evictions, mut folds, mut drops) = (0, 0, 0);
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = MonitorConfig {
                half_life_secs: 10.0,
                capacity: rng.gen_range(4..33usize),
            };
            let clock = Arc::new(FakeClock::new());
            let mut fast = WorkloadMonitor::new(cfg.clone(), clock.clone());
            let mut reference = WorkloadMonitor::new(cfg.clone(), clock.clone());
            for step in 0..300 {
                let op = rng.gen_range(0..10u32);
                match op {
                    0..=5 => {
                        let q = &queries[rng.gen_range(0..queries.len())];
                        fast.observe(q);
                        reference.record(q, 1.0, WorkloadMonitor::evict_coldest_recompiling);
                    }
                    6 => {
                        let q = &queries[rng.gen_range(0..queries.len())];
                        let w = [0.25, 0.5, 1.0, 2.0][rng.gen_range(0..4usize)];
                        fast.observe_weighted(q, w);
                        reference.record(q, w, WorkloadMonitor::evict_coldest_recompiling);
                    }
                    // Zero advances leave equal weights tied; the rest
                    // decay by fractions and multiples of a half-life.
                    7 | 8 => {
                        clock.advance([0.0, 0.0, 0.5, 1.0, 10.0, 37.5][rng.gen_range(0..6usize)])
                    }
                    _ => {
                        let snap = fast.snapshot();
                        fast.restore(&snap);
                        let snap = reference.snapshot();
                        reference.restore(&snap);
                    }
                }
                assert_same(
                    &fast,
                    &reference,
                    &format!("seed {seed} step {step} op {op}"),
                );
                for (e, k) in fast.entries.iter().zip(&fast.keys) {
                    let q = compile(&e.text, &e.collection).unwrap();
                    assert_eq!(k.normalized, normalized_key(&q));
                    assert_eq!(k.template, template_key(&q));
                }
            }
            evictions += fast.evictions();
            folds += fast.folds();
            drops += u64::from(fast.dropped_weight() > 0.0);
        }
        assert!(
            evictions > 0 && folds > 0 && drops > 0,
            "every eviction path ran"
        );
    }

    /// The record of what an eviction costs at the default capacity,
    /// against the recompiling reference:
    /// `cargo test --release -p xia-workload --lib eviction_cost_probe -- --ignored --nocapture`
    #[test]
    #[ignore = "timing probe; run by hand in release"]
    fn eviction_cost_probe() {
        const CAPACITY: usize = 1024;
        const EVICTING: usize = 64;
        let queries: Vec<NormalizedQuery> = (0..CAPACITY + EVICTING)
            .map(|i| {
                let text = match i % 4 {
                    0 => format!("//item[price > {i}]/name"),
                    1 => format!("//person[profile/age > {i}]/name"),
                    2 => format!("//closed_auction[price >= {i}]/date"),
                    _ => format!(r#"//item[@id = "i{i}"]/quantity"#),
                };
                compile(&text, "c").unwrap()
            })
            .collect();
        let evictions: [(&str, Evict); 2] = [
            ("stored keys", WorkloadMonitor::evict_coldest),
            ("recompiling", WorkloadMonitor::evict_coldest_recompiling),
        ];
        for (label, evict) in evictions {
            let (mut m, clock) = monitor(300.0, CAPACITY);
            for q in &queries[..CAPACITY] {
                m.record(q, 1.0, evict);
                clock.advance(0.001);
            }
            let started = Instant::now();
            for q in &queries[..CAPACITY] {
                m.record(q, 1.0, evict);
            }
            let hit_us = started.elapsed().as_secs_f64() * 1e6 / CAPACITY as f64;
            let started = Instant::now();
            for q in &queries[CAPACITY..] {
                m.record(q, 1.0, evict);
            }
            let evicting_us = started.elapsed().as_secs_f64() * 1e6 / EVICTING as f64;
            assert_eq!(m.evictions(), EVICTING as u64);
            println!(
                "{label}: hit {hit_us:.2} µs, evicting observe {evicting_us:.1} µs at capacity {CAPACITY}"
            );
        }
    }
}
