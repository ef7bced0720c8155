//! The path-edge / summary / incoming-set state machine underlying the
//! IFDS tabulation algorithm.

use crate::factset::{BitPairs, SlotRel, TableStats};
use flowdroid_bitset::Idx;
use flowdroid_ir::{FxHashMap, MethodId, StmtRef};
use std::collections::VecDeque;
use std::hash::Hash;

/// A path edge `⟨sp, d1⟩ → ⟨n, d2⟩`.
///
/// The start point `sp` is implied by `n`'s method (methods have a
/// single entry), so only the source fact `d1`, the target statement `n`
/// and the target fact `d2` are stored — the same representation Heros
/// uses.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PathEdge<F> {
    /// Fact at the method entry (`d1`).
    pub d1: F,
    /// Target statement (`n`).
    pub n: StmtRef,
    /// Fact holding before `n` (`d2`).
    pub d2: F,
}

/// Worklist, path-edge table, end summaries and incoming sets for one
/// IFDS solver instance.
///
/// Facts are dense indices (interned fact ids). Outer keys (statement,
/// callee, entry fact) are Fx-hashed; the inner `fact → …` sets — the
/// hot part — are the fact-id-indexed [`SlotRel`] and [`BitPairs`].
///
/// The FlowDroid bidirectional analysis drives two of them manually so
/// it can hand edges from one to the other (context injection).
pub struct Tabulator<F: Idx> {
    worklist: VecDeque<PathEdge<F>>,
    /// n → d2 → set of d1 for all recorded path edges.
    edges: FxHashMap<StmtRef, SlotRel<F>>,
    /// callee → d1-at-entry → exit facts (exit stmt, d2-at-exit).
    end_summaries: FxHashMap<MethodId, FxHashMap<F, BitPairs<F>>>,
    /// callee → d3-at-entry → call contexts (call site, d2-at-call).
    incoming: FxHashMap<MethodId, FxHashMap<F, BitPairs<F>>>,
    /// Number of path edges ever propagated (for statistics).
    propagation_count: u64,
    /// Density counters of the three tables, kept as they grow.
    stats: TableStats,
}

impl<F: Idx + Hash> Tabulator<F> {
    /// Creates an empty tabulator.
    pub fn new() -> Self {
        Self {
            worklist: VecDeque::new(),
            edges: FxHashMap::default(),
            end_summaries: FxHashMap::default(),
            incoming: FxHashMap::default(),
            propagation_count: 0,
            stats: TableStats::default(),
        }
    }

    /// Records the path edge `⟨·, d1⟩ → ⟨n, d2⟩` and schedules it if it
    /// is new. Returns `true` if the edge was new.
    pub fn propagate(&mut self, d1: F, n: StmtRef, d2: F) -> bool {
        let inserted = self.edges.entry(n).or_default().insert(d2, d1, &mut self.stats);
        if inserted {
            self.propagation_count += 1;
            self.worklist.push_back(PathEdge { d1, n, d2 });
        }
        inserted
    }

    /// Pops the next edge to process.
    pub fn pop(&mut self) -> Option<PathEdge<F>> {
        self.worklist.pop_front()
    }

    /// The edges still waiting to be processed. After a run stops
    /// early these are the recorded edges its driver never handled.
    pub fn queued(&self) -> impl Iterator<Item = &PathEdge<F>> {
        self.worklist.iter()
    }

    /// All source facts `d1` of path edges targeting `(n, d2)`. The
    /// lookup borrows `d2`; only the returned facts are materialized.
    pub fn d1s_at(&self, n: StmtRef, d2: &F) -> Vec<F> {
        self.edges.get(&n).map(|rel| rel.d1s(*d2)).unwrap_or_default()
    }

    /// Returns `true` if some path edge targets `(n, d2)`, whatever its
    /// source fact. Allocates nothing.
    pub fn has_node(&self, n: StmtRef, d2: &F) -> bool {
        self.edges.get(&n).is_some_and(|rel| rel.has_key(*d2))
    }

    /// Records a call context: the callee was entered with `d3` from
    /// `call_site` where `d2` held. Returns `true` if new.
    pub fn add_incoming(&mut self, callee: MethodId, d3: F, call_site: StmtRef, d2: F) -> bool {
        let pairs = self.incoming.entry(callee).or_default().entry(d3).or_default();
        pairs.insert(call_site, d2, &mut self.stats)
    }

    /// The call contexts recorded for `(callee, d3)`.
    pub fn incoming_for(&self, callee: MethodId, d3: &F) -> Vec<(StmtRef, F)> {
        self.incoming
            .get(&callee)
            .and_then(|by_fact| by_fact.get(d3))
            .map(|s| s.to_vec())
            .unwrap_or_default()
    }

    /// Injects call contexts wholesale (used for cross-solver context
    /// injection in the bidirectional analysis).
    pub fn inject_incoming(&mut self, callee: MethodId, d3: F, contexts: &[(StmtRef, F)]) {
        for (site, d2) in contexts {
            self.add_incoming(callee, d3, *site, *d2);
        }
    }

    /// Installs the end summary `⟨callee, d1⟩ → (exit, d2)`. Returns
    /// `true` if new.
    pub fn install_summary(&mut self, callee: MethodId, d1: F, exit: StmtRef, d2: F) -> bool {
        let pairs = self.end_summaries.entry(callee).or_default().entry(d1).or_default();
        pairs.insert(exit, d2, &mut self.stats)
    }

    /// The end summaries recorded for `(callee, d1)`.
    pub fn summaries_for(&self, callee: MethodId, d1: &F) -> Vec<(StmtRef, F)> {
        self.end_summaries
            .get(&callee)
            .and_then(|by_fact| by_fact.get(d1))
            .map(|s| s.to_vec())
            .unwrap_or_default()
    }

    /// Number of `propagate` calls that inserted a new edge.
    pub fn propagation_count(&self) -> u64 {
        self.propagation_count
    }

    /// Density counters across the edge, incoming and summary tables,
    /// counted as the tables grew.
    pub fn table_stats(&self) -> TableStats {
        self.stats
    }

    /// The same counters by a sweep over every row.
    #[cfg(test)]
    fn swept_stats(&self) -> TableStats {
        let mut stats = TableStats::default();
        for rel in self.edges.values() {
            rel.collect_stats(&mut stats);
        }
        for by_fact in self.end_summaries.values().chain(self.incoming.values()) {
            for pairs in by_fact.values() {
                pairs.collect_stats(&mut stats);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::MethodId;

    fn sr(i: usize) -> StmtRef {
        StmtRef::new(MethodId::from_index(0), i)
    }

    #[test]
    fn propagate_dedupes() {
        let mut t: Tabulator<u32> = Tabulator::new();
        assert!(t.propagate(0, sr(1), 7));
        assert!(!t.propagate(0, sr(1), 7));
        assert!(t.propagate(1, sr(1), 7));
        assert_eq!(t.propagation_count(), 2);
        assert_eq!(t.d1s_at(sr(1), &7), vec![0, 1]);
        assert!(t.pop().is_some());
        let queued: Vec<_> = t.queued().cloned().collect();
        assert_eq!(queued, vec![PathEdge { d1: 1, n: sr(1), d2: 7 }]);
        assert!(t.pop().is_some());
        assert!(t.pop().is_none());
        assert_eq!(t.queued().count(), 0);
    }

    #[test]
    fn summaries_and_incoming_dedupe() {
        let m = MethodId::from_index(3);
        let mut t: Tabulator<u32> = Tabulator::new();
        assert!(t.install_summary(m, 1, sr(9), 2));
        assert!(!t.install_summary(m, 1, sr(9), 2));
        assert_eq!(t.summaries_for(m, &1), vec![(sr(9), 2)]);
        assert!(t.summaries_for(m, &0).is_empty());

        assert!(t.add_incoming(m, 1, sr(4), 5));
        assert!(!t.add_incoming(m, 1, sr(4), 5));
        assert_eq!(t.incoming_for(m, &1), vec![(sr(4), 5)]);
    }

    #[test]
    fn has_node_borrows_and_matches() {
        let mut t: Tabulator<u32> = Tabulator::new();
        t.propagate(0, sr(2), 5);
        assert_eq!(t.d1s_at(sr(2), &5), vec![0]);
        assert!(t.d1s_at(sr(3), &5).is_empty());
        assert!(t.has_node(sr(2), &5));
        assert!(!t.has_node(sr(2), &0));
        assert!(!t.has_node(sr(3), &5));
    }

    /// The counts kept as the tables grow equal a sweep over every row,
    /// through row creation, an inline `d1` spilling when a second one
    /// arrives, promotion past the sparse bound and dense rows widening
    /// to more words.
    #[test]
    fn incremental_table_stats_match_a_sweep() {
        let m = MethodId::from_index(1);
        let mut t: Tabulator<u32> = Tabulator::new();
        for d2 in 0..12u32 {
            for d1 in 0..=d2 {
                t.propagate(d1 * 37, sr(d2 as usize % 3), d2);
                t.propagate(d1, sr(d2 as usize % 3), d2);
            }
            // A node with one inline d1 at a fourth statement...
            t.propagate(d2, sr(3), 100 + d2);
            t.add_incoming(m, d2 % 2, sr(5), d2 * 70);
            t.install_summary(m, d2 % 4, sr(7 + d2 as usize % 2), d2 * 3);
            assert_eq!(t.table_stats(), t.swept_stats(), "after d2 = {d2}");
        }
        let inline_only = t.table_stats();
        // ...gains a second d1 on every other node: each spills and
        // stays one sparse row.
        for d2 in (0..12u32).step_by(2) {
            assert!(t.propagate(d2 + 1, sr(3), 100 + d2));
            assert_eq!(t.d1s_at(sr(3), &(100 + d2)), vec![d2, d2 + 1]);
            assert_eq!(t.table_stats(), t.swept_stats(), "after spilling d2 = {}", 100 + d2);
        }
        assert_eq!(t.table_stats(), inline_only);
        let stats = t.table_stats();
        assert!(stats.dense_rows > 0 && stats.sparse_rows > 0);
        assert!(stats.dense_words > stats.dense_rows, "some dense row widened");
    }
}
