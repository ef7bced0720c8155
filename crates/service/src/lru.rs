//! The daemon's bounded per-app cache: an LRU map from job names to
//! cheaply cloned values, safe to share across worker threads.

use flowdroid_ir::FxHashMap;
use std::sync::Mutex;

/// Counters describing a cache's lifetime behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LruStats {
    /// Lookups that returned an entry.
    pub(crate) hits: u64,
    /// Lookups that found nothing.
    pub(crate) misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub(crate) evictions: u64,
    /// Entries currently resident.
    pub(crate) entries: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

#[derive(Debug)]
struct CacheInner<V> {
    entries: FxHashMap<String, Entry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded LRU map from names to values; lookups hand out clones, so
/// a value meant to be shared is an `Arc` or a small enum of them.
#[derive(Debug)]
pub(crate) struct Lru<V> {
    capacity: usize,
    inner: Mutex<CacheInner<V>>,
}

impl<V: Clone> Lru<V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                entries: FxHashMap::default(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Looks up the value for `key`, marking it most recently used.
    pub(crate) fn lookup(&self, key: &str) -> Option<V> {
        let mut inner = self.inner.lock().expect("a thread panicked holding the cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        });
        match found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Stores `value` for `key`, evicting the least-recently-used entry
    /// if the cache is full. Re-inserting an existing key replaces its
    /// entry in place (no eviction).
    pub(crate) fn insert(&self, key: &str, value: V) {
        let mut inner = self.inner.lock().expect("a thread panicked holding the cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(key) && inner.entries.len() >= self.capacity {
            if let Some(victim) =
                inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner.entries.insert(key.to_owned(), Entry { value, last_used: tick });
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> LruStats {
        let inner = self.inner.lock().expect("a thread panicked holding the cache lock");
        LruStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_drops_the_coldest_entry() {
        let cache = Lru::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.lookup("a").is_some());
        cache.insert("c", 3);
        assert!(cache.lookup("b").is_none(), "LRU entry must be evicted");
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn reinserting_a_key_does_not_evict() {
        let cache = Lru::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 9);
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.lookup("b").is_some());
        assert_eq!(cache.lookup("a"), Some(9), "the new value replaces the old");
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = Lru::new(4);
        assert!(cache.lookup("nope").is_none());
        cache.insert("yes", 7);
        assert!(cache.lookup("yes").is_some());
        assert!(cache.lookup("yes").is_some());
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 1);
    }
}
