//! The scenario cache: LRU over materialized results + single-flight
//! deduplication of concurrent identical computations.
//!
//! Scenario entries are expensive to compute (a `Scenario` at repro
//! scale takes seconds and builds the whole synthetic world), so the
//! cache bounds *both* axes of waste:
//!
//! * **Memory** — at most `capacity` ready entries; inserting past the
//!   cap evicts the least-recently-used entry. Recency is a monotonic
//!   tick under the cache lock, so eviction order is deterministic for
//!   a given access sequence (pinned by a unit test below).
//! * **CPU** — at most one in-flight computation per key. Late
//!   arrivals for a key that is already computing *join* the flight:
//!   they block on a condvar and share the `Arc`'d result instead of
//!   recomputing. A joiner that waits longer than its timeout gives up
//!   (the server maps that to `503`), but the flight itself keeps
//!   running and still populates the cache.
//!
//! Every outcome is counted twice: into the cache's own `CacheStats`
//! (exact, race-free snapshots for tests and `serve_bench`) and into
//! the global `caf-obs` registry under `caf.serve.cache.*` (for
//! `/metrics`).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How a [`ScenarioCache::get_or_compute`] call obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The value was already materialized in the cache.
    Hit,
    /// This call ran the computation (and populated the cache).
    Miss,
    /// Another call was already computing this key; this call blocked
    /// on the in-flight entry and shares its result.
    Joined,
    /// The value was promoted from the disk tier (a previously evicted
    /// entry) instead of being recomputed.
    DiskHit,
}

/// A second-chance tier under the in-memory LRU. Entries evicted from
/// the ready map are offered to [`SpillHook::spill`]; a miss consults
/// [`SpillHook::load`] before paying for a recomputation. The hook runs
/// *outside* the cache lock on both paths, so implementations may do
/// real I/O. A `load` implementation must return a value byte-for-byte
/// equivalent to what was spilled, or `None` — never a guess; the
/// serving layer's determinism contract rides on it.
pub trait SpillHook<K, V>: Send + Sync {
    /// Offers an evicted entry to the tier (e.g. serialize it to disk).
    fn spill(&self, key: &K, value: &V);
    /// Attempts to produce the value for `key` from the tier.
    fn load(&self, key: &K) -> Option<V>;
}

/// Why a [`ScenarioCache::get_or_compute`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A join waited longer than its timeout for the in-flight
    /// computation. The flight keeps running; retrying later will
    /// typically hit.
    JoinTimeout,
    /// The computation itself failed (or its thread panicked). The
    /// error is shared verbatim with every joiner of that flight.
    Failed(String),
}

/// Exact counters for every cache outcome; see [`ScenarioCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Ready-entry hits.
    pub hits: u64,
    /// Computations started by a caller (cache population).
    pub misses: u64,
    /// Callers that joined an in-flight computation.
    pub joins: u64,
    /// Joins that gave up waiting.
    pub join_timeouts: u64,
    /// Ready entries evicted by the LRU cap.
    pub evictions: u64,
    /// Entries materialized directly via [`ScenarioCache::insert`]
    /// (e.g. a challenge ingest publishing an incrementally refreshed
    /// view) rather than through a cache miss.
    pub inserts: u64,
    /// Misses satisfied by promoting a spilled entry from the disk
    /// tier instead of recomputing.
    pub disk_hits: u64,
    /// Evicted entries offered to the disk tier.
    pub spills: u64,
}

#[derive(Default)]
struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    joins: AtomicU64,
    join_timeouts: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
    disk_hits: AtomicU64,
    spills: AtomicU64,
}

enum FlightState<V> {
    Running,
    Done(Arc<V>),
    Failed(String),
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

struct ReadyEntry<V> {
    value: Arc<V>,
    last_used: u64,
}

struct Inner<K, V> {
    ready: HashMap<K, ReadyEntry<V>>,
    pending: HashMap<K, Arc<Flight<V>>>,
    tick: u64,
}

/// An LRU + single-flight cache of computed scenario bundles.
///
/// `K` is the canonical scenario key (only parameters that change the
/// *result* belong in it — compute-side knobs like worker counts must
/// stay out, or identical scenarios would miss). `V` is the
/// materialized bundle, always handed out behind an `Arc`.
pub struct ScenarioCache<K, V> {
    capacity: usize,
    inner: Mutex<Inner<K, V>>,
    stats: CacheStats,
    spill: Option<Arc<dyn SpillHook<K, V>>>,
}

/// Marks the flight failed if the computing closure panics, so joiners
/// wake with an error instead of waiting out their full timeout.
struct FlightGuard<'a, K: Eq + Hash + Clone, V> {
    cache: &'a ScenarioCache<K, V>,
    key: K,
    flight: Arc<Flight<V>>,
    armed: bool,
}

impl<K: Eq + Hash + Clone, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut inner = self.cache.inner.lock().unwrap();
        inner.pending.remove(&self.key);
        drop(inner);
        let mut state = self.flight.state.lock().unwrap();
        *state = FlightState::Failed("scenario computation panicked".to_string());
        self.flight.done.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V> ScenarioCache<K, V> {
    /// Creates a cache holding at most `capacity` ready entries
    /// (minimum 1, so a just-computed bundle is always servable).
    pub fn new(capacity: usize) -> ScenarioCache<K, V> {
        ScenarioCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                ready: HashMap::new(),
                pending: HashMap::new(),
                tick: 0,
            }),
            stats: CacheStats::default(),
            spill: None,
        }
    }

    /// Like [`ScenarioCache::new`], with a [`SpillHook`] backing the
    /// LRU: evictions spill into the hook, and misses try
    /// [`SpillHook::load`] before recomputing.
    pub fn with_spill(capacity: usize, hook: Arc<dyn SpillHook<K, V>>) -> ScenarioCache<K, V> {
        let mut cache = ScenarioCache::new(capacity);
        cache.spill = Some(hook);
        cache
    }

    /// Returns the cached value for `key`, or computes it.
    ///
    /// Exactly one caller per key computes at a time; concurrent
    /// callers join the in-flight computation and wait up to
    /// `join_timeout` for it. The returned [`CacheOutcome`] says which
    /// path this call took.
    pub fn get_or_compute<F>(
        &self,
        key: K,
        join_timeout: Duration,
        compute: F,
    ) -> Result<(Arc<V>, CacheOutcome), CacheError>
    where
        F: FnOnce() -> Result<V, String>,
    {
        // One span per lookup regardless of outcome: on a miss it also
        // covers the compute, so trace durations show where the request
        // actually spent its time.
        let _span = caf_obs::span("cache.lookup");
        let flight = {
            let mut inner = self.inner.lock().unwrap();
            if let Some(entry) = inner.ready.get(&key) {
                let value = Arc::clone(&entry.value);
                inner.tick += 1;
                let tick = inner.tick;
                inner.ready.get_mut(&key).expect("entry present").last_used = tick;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                caf_obs::count("caf.serve.cache.hits", 1);
                return Ok((value, CacheOutcome::Hit));
            }
            if let Some(flight) = inner.pending.get(&key) {
                Some(Arc::clone(flight))
            } else {
                let flight = Arc::new(Flight {
                    state: Mutex::new(FlightState::Running),
                    done: Condvar::new(),
                });
                inner.pending.insert(key.clone(), Arc::clone(&flight));
                drop(inner);
                // Miss vs disk-hit is decided inside the flight, after
                // the disk tier has had its chance.
                return self.run_flight(key, flight, compute);
            }
        };

        let flight = flight.expect("join path always has a flight");
        self.stats.joins.fetch_add(1, Ordering::Relaxed);
        caf_obs::count("caf.serve.cache.joins", 1);
        self.join_flight(&flight, join_timeout)
    }

    fn run_flight<F>(
        &self,
        key: K,
        flight: Arc<Flight<V>>,
        compute: F,
    ) -> Result<(Arc<V>, CacheOutcome), CacheError>
    where
        F: FnOnce() -> Result<V, String>,
    {
        let mut guard = FlightGuard {
            cache: self,
            key,
            flight: Arc::clone(&flight),
            armed: true,
        };
        // Second chance before recomputing: a previously evicted entry
        // may be sitting in the disk tier. The load runs with the
        // flight registered (joiners queue on it either way) and the
        // guard armed, so a panicking hook still fails joiners cleanly.
        if let Some(hook) = &self.spill {
            if let Some(value) = hook.load(&guard.key) {
                guard.armed = false;
                self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                caf_obs::count("caf.serve.cache.disk_hits", 1);
                let value = self.land_flight(&guard.key, &flight, value);
                return Ok((value, CacheOutcome::DiskHit));
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        caf_obs::count("caf.serve.cache.misses", 1);
        let result = compute();
        guard.armed = false;
        match result {
            Ok(value) => {
                let value = self.land_flight(&guard.key, &flight, value);
                Ok((value, CacheOutcome::Miss))
            }
            Err(message) => {
                let mut inner = self.inner.lock().unwrap();
                inner.pending.remove(&guard.key);
                drop(inner);
                let mut state = flight.state.lock().unwrap();
                *state = FlightState::Failed(message.clone());
                drop(state);
                flight.done.notify_all();
                Err(CacheError::Failed(message))
            }
        }
    }

    /// Publishes a flight's value: installs the ready entry, clears the
    /// pending slot, wakes joiners, then spills whatever the LRU cap
    /// evicted (outside the cache lock, since spilling may do I/O).
    fn land_flight(&self, key: &K, flight: &Flight<V>, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let mut inner = self.inner.lock().unwrap();
        inner.pending.remove(key);
        let evicted = self.insert_ready(&mut inner, key.clone(), Arc::clone(&value));
        drop(inner);
        let mut state = flight.state.lock().unwrap();
        *state = FlightState::Done(Arc::clone(&value));
        drop(state);
        flight.done.notify_all();
        self.spill_evicted(evicted);
        value
    }

    /// Offers evicted entries to the spill hook, if one is configured.
    /// Must be called with the cache lock released.
    fn spill_evicted(&self, evicted: Vec<(K, Arc<V>)>) {
        let Some(hook) = &self.spill else { return };
        for (key, value) in evicted {
            hook.spill(&key, &value);
            self.stats.spills.fetch_add(1, Ordering::Relaxed);
            caf_obs::count("caf.serve.cache.spills", 1);
        }
    }

    /// Materializes `value` for `key` directly, as if a computation for
    /// it had just finished: the entry becomes the most recently used
    /// and LRU eviction applies. Used by producers that *already hold*
    /// a fresh result — the challenge ingest path publishes its
    /// incrementally refreshed view here so subsequent reads hit
    /// without recomputing. An in-flight computation for the same key
    /// (if any) is left to finish and overwrite this entry with — by
    /// the determinism contract — identical contents.
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let mut inner = self.inner.lock().unwrap();
        let evicted = self.insert_ready(&mut inner, key, Arc::clone(&value));
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        caf_obs::count("caf.serve.cache.inserts", 1);
        drop(inner);
        self.spill_evicted(evicted);
        value
    }

    /// Installs a ready entry at the current tick and enforces the LRU
    /// cap (shared by [`ScenarioCache::insert`] and the miss path).
    /// Returns the entries the cap pushed out so the caller can offer
    /// them to the spill hook *after* releasing the cache lock.
    fn insert_ready(&self, inner: &mut Inner<K, V>, key: K, value: Arc<V>) -> Vec<(K, Arc<V>)> {
        inner.tick += 1;
        let tick = inner.tick;
        inner.ready.insert(
            key,
            ReadyEntry {
                value,
                last_used: tick,
            },
        );
        let mut evicted = Vec::new();
        while inner.ready.len() > self.capacity {
            let oldest = inner
                .ready
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over capacity");
            let entry = inner.ready.remove(&oldest).expect("oldest key present");
            evicted.push((oldest, entry.value));
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            caf_obs::count("caf.serve.cache.evictions", 1);
        }
        caf_obs::gauge("caf.serve.cache.size", inner.ready.len() as u64);
        evicted
    }

    fn join_flight(
        &self,
        flight: &Flight<V>,
        join_timeout: Duration,
    ) -> Result<(Arc<V>, CacheOutcome), CacheError> {
        let deadline = std::time::Instant::now() + join_timeout;
        let mut state = flight.state.lock().unwrap();
        loop {
            match &*state {
                FlightState::Done(value) => {
                    return Ok((Arc::clone(value), CacheOutcome::Joined));
                }
                FlightState::Failed(message) => {
                    return Err(CacheError::Failed(message.clone()));
                }
                FlightState::Running => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        self.stats.join_timeouts.fetch_add(1, Ordering::Relaxed);
                        caf_obs::count("caf.serve.cache.join_timeouts", 1);
                        return Err(CacheError::JoinTimeout);
                    }
                    let (next, _timed_out) =
                        flight.done.wait_timeout(state, deadline - now).unwrap();
                    state = next;
                }
            }
        }
    }

    /// Number of ready (materialized) entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ready.len()
    }

    /// True when no ready entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured LRU capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if `key` is currently materialized (does not touch recency).
    pub fn contains(&self, key: &K) -> bool {
        self.inner.lock().unwrap().ready.contains_key(key)
    }

    /// Every currently ready entry, most-recently-used last. Used by
    /// the snapshot writer to persist warm cache contents.
    pub fn ready_entries(&self) -> Vec<(K, Arc<V>)> {
        let inner = self.inner.lock().unwrap();
        let mut entries: Vec<(&K, &ReadyEntry<V>)> = inner.ready.iter().collect();
        entries.sort_by_key(|(_, entry)| entry.last_used);
        entries
            .into_iter()
            .map(|(key, entry)| (key.clone(), Arc::clone(&entry.value)))
            .collect()
    }

    /// An exact snapshot of every outcome counter.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            joins: self.stats.joins.load(Ordering::Relaxed),
            join_timeouts: self.stats.join_timeouts.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            spills: self.stats.spills.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn miss_then_hit_shares_one_computation() {
        let cache: ScenarioCache<u32, String> = ScenarioCache::new(4);
        let computed = AtomicUsize::new(0);
        let compute = || {
            computed.fetch_add(1, Ordering::SeqCst);
            Ok("value".to_string())
        };
        let (first, outcome) = cache.get_or_compute(7, LONG, compute).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (second, outcome) = cache
            .get_or_compute(7, LONG, || unreachable!("must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.joins), (1, 1, 0));
    }

    #[test]
    fn concurrent_identical_keys_single_flight() {
        let cache: Arc<ScenarioCache<u32, u64>> = Arc::new(ScenarioCache::new(4));
        let computed = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();

        // One leader starts computing and blocks until released, so the
        // other callers are guaranteed to arrive while it is in flight.
        let leader = {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            std::thread::spawn(move || {
                cache
                    .get_or_compute(1, LONG, move || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        computed.fetch_add(1, Ordering::SeqCst);
                        Ok(42u64)
                    })
                    .unwrap()
            })
        };
        entered_rx.recv().unwrap();

        let joiners: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    cache
                        .get_or_compute(1, LONG, || unreachable!("joiners never compute"))
                        .unwrap()
                })
            })
            .collect();

        // Joiners are queued on the flight (they cannot have finished);
        // release the leader and check everyone got the same Arc.
        release_tx.send(()).unwrap();
        let (leader_value, leader_outcome) = leader.join().unwrap();
        assert_eq!(leader_outcome, CacheOutcome::Miss);
        assert_eq!(*leader_value, 42);
        for joiner in joiners {
            let (value, outcome) = joiner.join().unwrap();
            // A joiner that is scheduled only after the leader lands
            // sees a plain Hit; either way it must share the leader's
            // Arc and must never have computed.
            assert!(
                matches!(outcome, CacheOutcome::Joined | CacheOutcome::Hit),
                "unexpected joiner outcome {outcome:?}"
            );
            assert!(Arc::ptr_eq(&value, &leader_value));
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "single-flight broken: {stats:?}");
        assert_eq!(stats.joins + stats.hits, 8, "{stats:?}");
    }

    #[test]
    fn join_timeout_gives_up_but_flight_still_lands() {
        let cache: Arc<ScenarioCache<u32, u64>> = Arc::new(ScenarioCache::new(4));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache
                    .get_or_compute(9, LONG, move || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok(5u64)
                    })
                    .unwrap()
            })
        };
        entered_rx.recv().unwrap();

        let err = cache
            .get_or_compute(9, Duration::from_millis(20), || unreachable!())
            .unwrap_err();
        assert_eq!(err, CacheError::JoinTimeout);
        assert_eq!(cache.stats().join_timeouts, 1);

        release_tx.send(()).unwrap();
        leader.join().unwrap();
        // The flight was not cancelled by the timed-out joiner.
        let (value, outcome) = cache.get_or_compute(9, LONG, || unreachable!()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(*value, 5);
    }

    #[test]
    fn failed_computation_is_shared_and_not_cached() {
        let cache: ScenarioCache<u32, u64> = ScenarioCache::new(4);
        let err = cache
            .get_or_compute(3, LONG, || Err("world too large".to_string()))
            .unwrap_err();
        assert_eq!(err, CacheError::Failed("world too large".to_string()));
        assert!(!cache.contains(&3));
        // Errors are not cached: the next caller recomputes.
        let (value, outcome) = cache.get_or_compute(3, LONG, || Ok(11)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(*value, 11);
    }

    #[test]
    fn lru_evicts_in_deterministic_recency_order() {
        let cache: ScenarioCache<u32, u32> = ScenarioCache::new(2);
        let fill = |key: u32| {
            cache.get_or_compute(key, LONG, || Ok(key * 10)).unwrap();
        };
        fill(1);
        fill(2);
        // Touch 1 so 2 becomes the LRU entry.
        let (_, outcome) = cache.get_or_compute(1, LONG, || unreachable!()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        fill(3); // evicts 2
        assert!(cache.contains(&1) && cache.contains(&3) && !cache.contains(&2));
        fill(4); // evicts 1 (3 was used more recently)
        assert!(cache.contains(&3) && cache.contains(&4) && !cache.contains(&1));
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn direct_inserts_hit_and_participate_in_lru() {
        let cache: ScenarioCache<u32, u32> = ScenarioCache::new(2);
        let inserted = cache.insert(1, 10);
        assert_eq!(*inserted, 10);
        let (value, outcome) = cache.get_or_compute(1, LONG, || unreachable!()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&value, &inserted));
        // Inserts are recency-stamped like any other entry: fill to
        // capacity, then overflow — the oldest insert is evicted.
        cache.insert(2, 20);
        cache.insert(3, 30);
        assert!(!cache.contains(&1) && cache.contains(&2) && cache.contains(&3));
        let stats = cache.stats();
        assert_eq!((stats.inserts, stats.evictions, stats.hits), (3, 1, 1));
    }

    /// An in-memory stand-in for the disk tier: spills into a map,
    /// loads back out of it.
    struct MapSpill {
        store: Mutex<HashMap<u32, u32>>,
    }

    impl SpillHook<u32, u32> for MapSpill {
        fn spill(&self, key: &u32, value: &u32) {
            self.store.lock().unwrap().insert(*key, *value);
        }
        fn load(&self, key: &u32) -> Option<u32> {
            self.store.lock().unwrap().get(key).copied()
        }
    }

    #[test]
    fn evicted_entries_spill_and_promote_as_disk_hits() {
        let hook = Arc::new(MapSpill {
            store: Mutex::new(HashMap::new()),
        });
        let cache: ScenarioCache<u32, u32> =
            ScenarioCache::with_spill(1, Arc::clone(&hook) as Arc<dyn SpillHook<u32, u32>>);
        let fill = |key: u32| cache.get_or_compute(key, LONG, || Ok(key * 10)).unwrap();
        assert_eq!(fill(1).1, CacheOutcome::Miss);
        assert_eq!(fill(2).1, CacheOutcome::Miss); // evicts + spills 1
        assert!(!cache.contains(&1));
        assert_eq!(hook.store.lock().unwrap().get(&1), Some(&10));
        // Re-requesting 1 promotes it from the tier without recomputing
        // (the compute closure must never run), evicting + spilling 2.
        let (value, outcome) = cache
            .get_or_compute(1, LONG, || unreachable!("promoted, not recomputed"))
            .unwrap();
        assert_eq!((*value, outcome), (10, CacheOutcome::DiskHit));
        assert!(cache.contains(&1) && !cache.contains(&2));
        assert_eq!(hook.store.lock().unwrap().get(&2), Some(&20));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.disk_hits, stats.spills), (2, 1, 2));
        // A disk hit lands in the ready map like any other entry.
        let (again, outcome) = cache.get_or_compute(1, LONG, || unreachable!()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&again, &value));
    }

    #[test]
    fn direct_inserts_spill_their_evictions_too() {
        let hook = Arc::new(MapSpill {
            store: Mutex::new(HashMap::new()),
        });
        let cache: ScenarioCache<u32, u32> =
            ScenarioCache::with_spill(1, Arc::clone(&hook) as Arc<dyn SpillHook<u32, u32>>);
        cache.insert(7, 70);
        cache.insert(8, 80);
        assert_eq!(hook.store.lock().unwrap().get(&7), Some(&70));
        assert_eq!(cache.stats().spills, 1);
    }

    #[test]
    fn ready_entries_are_ordered_oldest_first() {
        let cache: ScenarioCache<u32, u32> = ScenarioCache::new(4);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so it becomes the most recently used.
        cache.get_or_compute(1, LONG, || unreachable!()).unwrap();
        let keys: Vec<u32> = cache.ready_entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![2, 1]);
    }

    #[test]
    fn panicked_computation_fails_joiners_instead_of_hanging() {
        let cache: Arc<ScenarioCache<u32, u64>> = Arc::new(ScenarioCache::new(4));
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _ = cache.get_or_compute(2, LONG, move || {
                    entered_tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("computation exploded");
                });
            })
        };
        entered_rx.recv().unwrap();
        let err = cache
            .get_or_compute(2, LONG, || unreachable!())
            .unwrap_err();
        assert!(matches!(err, CacheError::Failed(ref m) if m.contains("panicked")));
        assert!(leader.join().is_err());
        // The pending slot was cleaned up; the key is computable again.
        let (value, outcome) = cache.get_or_compute(2, LONG, || Ok(8)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(*value, 8);
    }
}
