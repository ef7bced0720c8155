//! Daemon-resident callgraph / entry-point cache.
//!
//! Building the per-job analysis setup — discovering entry-point
//! components, materializing the reachable code, building the callgraph
//! — dominates setup time for small apps (see `BENCH_solver.json`).
//! All of it is a deterministic function of the app bytes and the
//! platform snapshot, so a long-lived daemon can compute it once per app
//! and replay it for every repeat job.
//!
//! An entry is keyed by app name and validated against a *fingerprint*
//! (FNV-1a 64 over the platform snapshot checksum and the app's SDEX
//! bytes): a lookup whose fingerprint disagrees with
//! the stored one drops the stale entry and reports a miss, so editing
//! an app or swapping the platform snapshot can never replay a setup
//! computed against different code. Eviction is bounded LRU; the LRU
//! itself ([`Lru`]) is generic over its value, and the daemon reuses it
//! for its prepared-job cache.
//!
//! What is cached is deliberately *not* the materialized program — jobs
//! own their cheap copy-on-write overlays — but the recipe to rebuild
//! it: the [`flowdroid_ir::Program::materialization_log`] slices to
//! replay (reproducing arena ids exactly), the discovered
//! [`EntryPointModel`], the dummy-main id to expect, and the finished
//! [`CallGraph`]. Replaying the log through `ensure_body` on a fresh
//! overlay is cheap (body decode, no fixpoint discovery, no graph
//! construction) and bit-identical to the cold path.

use flowdroid_android::EntryPointModel;
use flowdroid_callgraph::CallGraph;
use flowdroid_ir::{FxHashMap, MethodId};
use std::sync::{Arc, Mutex};

/// A cached per-app analysis setup: everything between "program loaded"
/// and "solver starts" that does not depend on the job configuration.
#[derive(Debug)]
pub enum CachedSetup {
    /// Setup for the full Android pipeline
    /// ([`crate::Infoflow::analyze_app_cached`]).
    App {
        /// The discovered entry-point model (components + callbacks).
        model: EntryPointModel,
        /// Bodies materialized during component discovery, in order.
        pre_main: Vec<MethodId>,
        /// The dummy main the replayed program must reproduce.
        dummy_main: MethodId,
        /// Bodies materialized by the post-dummy-main closure, in order.
        post_main: Vec<MethodId>,
        /// The callgraph over the fully materialized program.
        cg: CallGraph,
    },
    /// Setup for explicit entry points
    /// ([`crate::Infoflow::run_demand_cached`]).
    Entry {
        /// Bodies materialized by the reachable closure, in order.
        materialized: Vec<MethodId>,
        /// The callgraph over the fully materialized program.
        cg: CallGraph,
    },
}

/// Counters describing a cache's lifetime behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups that returned a valid entry.
    pub hits: u64,
    /// Lookups that found nothing (or only a stale entry).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries dropped because their fingerprint no longer matched.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

#[derive(Debug)]
struct Entry<V> {
    fingerprint: u64,
    value: Arc<V>,
    last_used: u64,
}

#[derive(Debug)]
struct CacheInner<V> {
    entries: FxHashMap<String, Entry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// A bounded, fingerprint-validated LRU map from names to shared
/// values. The daemon keeps two: the [`CgCache`] of analysis setups and
/// a cache of prepared jobs.
///
/// Thread-safe: the daemon shares one behind an `Arc` across workers.
#[derive(Debug)]
pub struct Lru<V> {
    capacity: usize,
    inner: Mutex<CacheInner<V>>,
}

/// A bounded, fingerprint-validated LRU cache of [`CachedSetup`]s.
pub type CgCache = Lru<CachedSetup>;

impl<V> Lru<V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                entries: FxHashMap::default(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                invalidations: 0,
            }),
        }
    }

    /// Looks up the value for `key`, validating it against
    /// `fingerprint`. A fingerprint mismatch drops the stale entry and
    /// counts as an invalidation plus a miss.
    pub fn lookup(&self, key: &str, fingerprint: u64) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let found = match inner.entries.get_mut(key) {
            Some(e) if e.fingerprint == fingerprint => {
                e.last_used = tick;
                Ok(Arc::clone(&e.value))
            }
            Some(_) => Err(true),
            None => Err(false),
        };
        match found {
            Ok(value) => {
                inner.hits += 1;
                Some(value)
            }
            Err(stale) => {
                if stale {
                    inner.entries.remove(key);
                    inner.invalidations += 1;
                }
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores `value` for `key`, evicting the least-recently-used entry
    /// if the cache is full. Re-inserting an existing key replaces its
    /// entry in place (no eviction).
    pub fn insert(&self, key: &str, fingerprint: u64, value: Arc<V>) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(key) && inner.entries.len() >= self.capacity {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner
            .entries
            .insert(key.to_owned(), Entry { fingerprint, value, last_used: tick });
    }

    /// Current counters.
    pub fn stats(&self) -> LruStats {
        let inner = self.inner.lock().unwrap();
        LruStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_setup() -> Arc<CachedSetup> {
        Arc::new(CachedSetup::Entry { materialized: Vec::new(), cg: CallGraph::default() })
    }

    #[test]
    fn lru_eviction_drops_the_coldest_entry() {
        let cache = CgCache::new(2);
        cache.insert("a", 1, dummy_setup());
        cache.insert("b", 2, dummy_setup());
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.lookup("a", 1).is_some());
        cache.insert("c", 3, dummy_setup());
        assert!(cache.lookup("b", 2).is_none(), "LRU entry must be evicted");
        assert!(cache.lookup("a", 1).is_some());
        assert!(cache.lookup("c", 3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn reinserting_a_key_does_not_evict() {
        let cache = CgCache::new(2);
        cache.insert("a", 1, dummy_setup());
        cache.insert("b", 2, dummy_setup());
        cache.insert("a", 9, dummy_setup());
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.lookup("b", 2).is_some());
        assert!(cache.lookup("a", 9).is_some(), "replaced entry carries the new fingerprint");
    }

    #[test]
    fn fingerprint_mismatch_invalidates() {
        let cache = CgCache::new(4);
        cache.insert("app", 0xaaaa, dummy_setup());
        assert!(cache.lookup("app", 0xbbbb).is_none(), "stale fingerprint must miss");
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 0, "stale entry is dropped, not kept");
        // The next insert+lookup under the new fingerprint works.
        cache.insert("app", 0xbbbb, dummy_setup());
        assert!(cache.lookup("app", 0xbbbb).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = CgCache::new(4);
        assert!(cache.lookup("nope", 7).is_none());
        cache.insert("yes", 7, dummy_setup());
        assert!(cache.lookup("yes", 7).is_some());
        assert!(cache.lookup("yes", 7).is_some());
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 1);
    }
}
