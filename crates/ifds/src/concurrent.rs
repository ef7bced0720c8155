//! The concurrent counterpart of [`Tabulator`](crate::Tabulator):
//! path-edge, end-summary and incoming tables behind independently
//! locked shards, usable from many worker threads.
//!
//! The bidirectional taint engine drives two of them (forward +
//! backward) over one work-stealing scheduler. Shards are addressed by
//! the Fx hash of the outer key (statement for edges, callee for
//! summaries/incoming); workers touching different statements or
//! callees never contend.
//!
//! Facts are mapped to dense ids at the table boundary by a
//! [`ConcurrentKeyDomain`] (e.g. the taint engine's shared interner),
//! and the tables store id-indexed bitset rows. The public API always
//! speaks facts; keying is an internal representation choice.
//!
//! The cross-table handshake discipline (register your own half, then
//! read the other's) works across threads because each shard is a
//! mutex: a release on the incoming shard followed by an acquire on the
//! summary shard orders the accesses such that of two racing
//! (call-side, exit-side) updates at least one side observes the other.

use crate::factset::{BitPairs, FactRel, PairSet, TableStats};
use flowdroid_bitset::{Idx, SparseBitMatrix};
use flowdroid_ir::{fxhash64, FxHashMap, MethodId, StmtRef};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards per table (power of two).
const SHARD_COUNT: usize = 16;

/// Maps solver facts to the dense keys actually stored in the
/// concurrent tables.
///
/// `key` may intern (allocate an id for a first-seen fact) behind
/// interior mutability; it is called under no table lock. Key
/// assignment may race across threads — correctness only requires the
/// fact ↔ key mapping to be a bijection within one domain instance,
/// not any particular id order.
pub trait ConcurrentKeyDomain<F>: Sync {
    /// The stored key type: a dense index, so fact sets are bitset rows.
    type Key: Idx + Hash + Send;
    /// The key for a fact (interning it on first sight).
    fn key(&self, f: &F) -> Self::Key;
    /// The fact a stored key denotes.
    fn fact(&self, k: &Self::Key) -> F;
}

type Key<F, D> = <D as ConcurrentKeyDomain<F>>::Key;

/// The per-statement path-edge relation `d2 → {d1}`.
type Rel<F, D> = SparseBitMatrix<Key<F, D>, Key<F, D>>;

/// `callee → key → (statement, key)` pairs, one shard's worth.
type MethodFactMap<F, D> = FxHashMap<MethodId, FxHashMap<Key<F, D>, BitPairs<Key<F, D>>>>;

/// A table split into independently locked shards, addressed by the Fx
/// hash of a chosen outer key.
struct Shards<T> {
    shards: Vec<Mutex<T>>,
}

impl<T: Default> Shards<T> {
    fn new() -> Self {
        Shards { shards: (0..SHARD_COUNT).map(|_| Mutex::new(T::default())).collect() }
    }

    /// The shard holding `key`'s entries.
    fn for_key<K: Hash>(&self, key: &K) -> &Mutex<T> {
        debug_assert!(self.shards.len().is_power_of_two());
        let h = fxhash64(key) as usize;
        // Fx mixes the low bits last; take high bits for the index.
        &self.shards[(h >> (64 - SHARD_COUNT.trailing_zeros())) & (self.shards.len() - 1)]
    }
}

/// Sharded path-edge / end-summary / incoming tables for one direction
/// of a parallel tabulation.
pub struct ConcurrentTabulator<F, D: ConcurrentKeyDomain<F>> {
    dom: D,
    /// n → d2 → d1 set, sharded by n.
    edges: Shards<FxHashMap<StmtRef, Rel<F, D>>>,
    /// callee → d1 → exit facts, sharded by callee.
    summaries: Shards<MethodFactMap<F, D>>,
    /// callee → d3 → call contexts, sharded by callee.
    incoming: Shards<MethodFactMap<F, D>>,
    propagations: AtomicU64,
}

impl<F, D: ConcurrentKeyDomain<F>> ConcurrentTabulator<F, D> {
    /// Creates empty tables keyed through `dom`.
    pub fn with_domain(dom: D) -> Self {
        ConcurrentTabulator {
            dom,
            edges: Shards::new(),
            summaries: Shards::new(),
            incoming: Shards::new(),
            propagations: AtomicU64::new(0),
        }
    }

    /// The key domain (e.g. to read interner statistics).
    pub fn domain(&self) -> &D {
        &self.dom
    }

    fn facts(&self, keys: &[D::Key]) -> Vec<F> {
        keys.iter().map(|k| self.dom.fact(k)).collect()
    }

    fn pairs(&self, pairs: Vec<(StmtRef, D::Key)>) -> Vec<(StmtRef, F)> {
        pairs.into_iter().map(|(s, k)| (s, self.dom.fact(&k))).collect()
    }

    /// Records the path edge `⟨·, d1⟩ → ⟨n, d2⟩`; returns `true` if it
    /// was new (the caller then schedules it).
    pub fn record_edge(&self, d1: &F, n: StmtRef, d2: &F) -> bool {
        let (k1, k2) = (self.dom.key(d1), self.dom.key(d2));
        let inserted = self.edges.for_key(&n).lock().unwrap().entry(n).or_default().insert(k2, k1);
        if inserted {
            self.propagations.fetch_add(1, Ordering::Relaxed);
        }
        inserted
    }

    /// All `d1` contexts recorded for `(n, d2)`. Keys are collected
    /// under the shard lock; facts are resolved after it is released.
    pub fn d1s_at(&self, n: StmtRef, d2: &F) -> Vec<F> {
        let k2 = self.dom.key(d2);
        let keys = self
            .edges
            .for_key(&n)
            .lock()
            .unwrap()
            .get(&n)
            .map(|rel| rel.d1s(&k2))
            .unwrap_or_default();
        self.facts(&keys)
    }

    /// Records a call context: the callee was entered with `d3` from
    /// `call_site` where `d2` held. Returns `true` if new.
    pub fn add_incoming(&self, callee: MethodId, d3: &F, call_site: StmtRef, d2: &F) -> bool {
        let (k3, k2) = (self.dom.key(d3), self.dom.key(d2));
        let mut shard = self.incoming.for_key(&callee).lock().unwrap();
        // Sharded tables are counted by the sweep in `table_stats`.
        let pairs = shard.entry(callee).or_default().entry(k3).or_default();
        pairs.insert(call_site, &k2, None)
    }

    /// The call contexts recorded for `(callee, d1)`.
    pub fn incoming_for(&self, callee: MethodId, d1: &F) -> Vec<(StmtRef, F)> {
        let k1 = self.dom.key(d1);
        let pairs = self
            .incoming
            .for_key(&callee)
            .lock()
            .unwrap()
            .get(&callee)
            .and_then(|by_fact| by_fact.get(&k1))
            .map(|s| s.to_vec())
            .unwrap_or_default();
        self.pairs(pairs)
    }

    /// Installs `(exit, d2)` as an end summary; returns `true` if new.
    pub fn install_summary(&self, callee: MethodId, d1: &F, exit: StmtRef, d2: &F) -> bool {
        let (k1, k2) = (self.dom.key(d1), self.dom.key(d2));
        let mut shard = self.summaries.for_key(&callee).lock().unwrap();
        let pairs = shard.entry(callee).or_default().entry(k1).or_default();
        pairs.insert(exit, &k2, None)
    }

    /// The end summaries recorded for `(callee, d1)`.
    pub fn summaries_for(&self, callee: MethodId, d1: &F) -> Vec<(StmtRef, F)> {
        let k1 = self.dom.key(d1);
        let pairs = self
            .summaries
            .for_key(&callee)
            .lock()
            .unwrap()
            .get(&callee)
            .and_then(|by_fact| by_fact.get(&k1))
            .map(|s| s.to_vec())
            .unwrap_or_default();
        self.pairs(pairs)
    }

    /// Returns `true` if at least one end summary exists for
    /// `(callee, d1)` (cheaper than cloning them out).
    pub fn has_summaries(&self, callee: MethodId, d1: &F) -> bool {
        let k1 = self.dom.key(d1);
        self.summaries
            .for_key(&callee)
            .lock()
            .unwrap()
            .get(&callee)
            .and_then(|by_fact| by_fact.get(&k1))
            .is_some_and(|v| !v.is_empty())
    }

    /// Snapshots every end summary as `(callee, entry fact, exits)`
    /// (used to persist summaries at the fixpoint; locks each shard
    /// once).
    pub fn all_summaries(&self) -> Vec<(MethodId, F, Vec<(StmtRef, F)>)> {
        let mut raw = Vec::new();
        for shard in &self.summaries.shards {
            let shard = shard.lock().unwrap();
            for (m, by_fact) in shard.iter() {
                for (d1, exits) in by_fact {
                    raw.push((*m, *d1, exits.to_vec()));
                }
            }
        }
        raw.into_iter().map(|(m, k1, exits)| (m, self.dom.fact(&k1), self.pairs(exits))).collect()
    }

    /// Number of `record_edge` calls that inserted a new edge.
    pub fn propagation_count(&self) -> u64 {
        self.propagations.load(Ordering::Relaxed)
    }

    /// Density counters across all shards of all tables.
    pub fn table_stats(&self) -> TableStats {
        let mut stats = TableStats::default();
        for shard in &self.edges.shards {
            for rel in shard.lock().unwrap().values() {
                rel.collect_stats(&mut stats);
            }
        }
        for table in [&self.summaries, &self.incoming] {
            for shard in &table.shards {
                for by_fact in shard.lock().unwrap().values() {
                    for pairs in by_fact.values() {
                        pairs.collect_stats(&mut stats);
                    }
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Facts that are already dense ids: each `u32` is its own key.
    struct U32Keys;

    impl ConcurrentKeyDomain<u32> for U32Keys {
        type Key = u32;

        fn key(&self, f: &u32) -> u32 {
            *f
        }

        fn fact(&self, k: &u32) -> u32 {
            *k
        }
    }

    fn tabulator() -> ConcurrentTabulator<u32, U32Keys> {
        ConcurrentTabulator::with_domain(U32Keys)
    }

    fn sr(i: usize) -> StmtRef {
        StmtRef::new(MethodId::from_index(0), i)
    }

    #[test]
    fn record_edge_dedupes_across_threads() {
        let t = tabulator();
        let news = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = &t;
                let news = &news;
                scope.spawn(move || {
                    for i in 0..100u32 {
                        if t.record_edge(&(i % 3), sr(i as usize % 7), &i) {
                            news.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // 100 distinct (d1, n, d2) triples regardless of thread count.
        assert_eq!(news.load(Ordering::Relaxed), 100);
        assert_eq!(t.propagation_count(), 100);
    }

    #[test]
    fn incoming_and_summaries_dedupe() {
        let m = MethodId::from_index(3);
        let t = tabulator();
        assert!(t.add_incoming(m, &1, sr(4), &5));
        assert!(!t.add_incoming(m, &1, sr(4), &5));
        assert_eq!(t.incoming_for(m, &1), vec![(sr(4), 5)]);
        assert!(t.install_summary(m, &1, sr(9), &2));
        assert!(!t.install_summary(m, &1, sr(9), &2));
        assert_eq!(t.summaries_for(m, &1), vec![(sr(9), 2)]);
        assert!(t.has_summaries(m, &1));
        assert!(!t.has_summaries(m, &0));
    }

    #[test]
    fn edges_group_by_statement() {
        let t = tabulator();
        t.record_edge(&0, sr(2), &5);
        t.record_edge(&0, sr(2), &6);
        t.record_edge(&1, sr(2), &5);
        t.record_edge(&0, sr(3), &7);
        assert_eq!(t.d1s_at(sr(2), &5), vec![0, 1]);
        assert_eq!(t.d1s_at(sr(2), &6), vec![0]);
        assert_eq!(t.d1s_at(sr(3), &7), vec![0]);
        assert!(t.d1s_at(sr(3), &5).is_empty());
        // One bitset row per (statement, d2).
        assert_eq!(t.table_stats().rows, 3);
    }
}
