//! The path-edge / summary / incoming-set state machine underlying the
//! IFDS tabulation algorithm.

use crate::factset::{BitPairs, SlotRows, TableStats};
use flowdroid_bitset::Idx;
use flowdroid_ir::{FxHashMap, MethodId, StmtIdx, StmtRef};
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

/// Marks a method whose statements no path edge may target.
const NONE: u32 = u32::MAX;

/// A path-edge row of a [`Tabulator`]: every edge targeting one fact
/// `d2` in one method, by statement index. [`Tabulator::row`] looks it
/// up, so a walk that keeps its fact and method finds it once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row(u32);

/// Worklist, path-edge table, end summaries and incoming sets for one
/// IFDS solver instance.
///
/// Facts are dense indices (interned fact ids). Path edges are kept
/// fact-major: one row of [`SlotRows`] per `(method, d2)`, found
/// through one hash lookup, with a slot per statement of the row's
/// window. The window covers the statements the row's edges target: a
/// walk of one fact down a method writes into one row, and its fill
/// grows the window to the range it records. The windows are carved
/// from blocks the thread keeps warm between solves
/// ([`crate::factset::WARM_ROW_BYTES`]), so a long-lived worker's
/// later solves whose rows fit there allocate no row memory. Callee and
/// entry-fact keys are Fx-hashed, with [`BitPairs`] sets inside.
///
/// The FlowDroid bidirectional analysis drives two of them manually so
/// it can hand edges from one to the other (context injection).
pub struct Tabulator<F: Idx> {
    worklist: VecDeque<PathEdge<F>>,
    /// Method index → statement count, or `NONE` for a method no path
    /// edge may target.
    stmt_counts: Vec<u32>,
    /// (method, d2) → index of its row in `rels`.
    rows: FxHashMap<(MethodId, F), u32>,
    /// Statement → set of d1 for all recorded path edges, one row per
    /// touched (method, d2).
    rels: SlotRows<F>,
    /// callee → d1-at-entry → exit facts (exit stmt, d2-at-exit).
    end_summaries: FxHashMap<MethodId, FxHashMap<F, BitPairs<F>>>,
    /// callee → d3-at-entry → call contexts (call site, d2-at-call).
    incoming: FxHashMap<MethodId, FxHashMap<F, BitPairs<F>>>,
    /// Number of path edges ever recorded (for statistics).
    propagation_count: u64,
    /// Number of edges ever popped off the worklist.
    pop_count: u64,
    /// Density counters of the three tables, kept as they grow.
    stats: TableStats,
}

impl<F: Idx + Hash> Tabulator<F> {
    /// Creates an empty tabulator whose path edges may target the
    /// statements of `methods`, given as (method, statement count)
    /// pairs.
    pub fn new(methods: impl IntoIterator<Item = (MethodId, usize)>) -> Self {
        let mut stmt_counts = Vec::new();
        for (m, stmts) in methods {
            if m.index() >= stmt_counts.len() {
                stmt_counts.resize(m.index() + 1, NONE);
            }
            stmt_counts[m.index()] =
                u32::try_from(stmts).ok().filter(|&n| n != NONE).expect("statement count overflow");
        }
        Self {
            worklist: VecDeque::new(),
            stmt_counts,
            rows: FxHashMap::default(),
            rels: SlotRows::default(),
            end_summaries: FxHashMap::default(),
            incoming: FxHashMap::default(),
            propagation_count: 0,
            pop_count: 0,
            stats: TableStats::default(),
        }
    }

    /// The path-edge row of `d2` in `m`, created empty — over `m`'s
    /// statements, holding no slot until its first edge — if no edge
    /// targets it yet.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not one of the tabulator's methods.
    pub fn row(&mut self, m: MethodId, d2: F) -> Row {
        let (stmt_counts, rels) = (&self.stmt_counts, &mut self.rels);
        let row = *self.rows.entry((m, d2)).or_insert_with(|| {
            let len = match stmt_counts.get(m.index()) {
                Some(&len) if len != NONE => len,
                _ => panic!("{m:?} is not a tabulated method"),
            };
            u32::try_from(rels.push(len as usize)).expect("path-edge row overflow")
        });
        Row(row)
    }

    /// Records the path edge `⟨·, d1⟩ → ⟨n, d2⟩` in `d2`'s row of `n`'s
    /// method, given as `row`, and statement index `idx` of `n`, without
    /// scheduling it. Returns `true` if the edge was new, like
    /// [`Tabulator::insert`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is past the method's statements.
    pub fn insert_in(&mut self, row: Row, idx: StmtIdx, d1: F) -> bool {
        let inserted = self.rels.insert(row.0 as usize, idx, d1, &mut self.stats);
        self.propagation_count += u64::from(inserted);
        inserted
    }

    /// Records the path edges `⟨·, d1⟩ → ⟨n, d2⟩` for `d2`'s row `row`
    /// at each statement index from `from` toward `to`, exclusive —
    /// descending when `to < from` — without scheduling them, and stops
    /// at the first statement some edge to `d2` already targets,
    /// whatever its `d1`. Each edge counts as a propagation and a table
    /// row, as in [`Tabulator::insert_in`]. Returns the index it stopped
    /// at: `to`, or the first statement it found taken.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the method's statements.
    pub fn fill_in(&mut self, row: Row, from: StmtIdx, to: StmtIdx, d1: F) -> StmtIdx {
        let filled = self.rels.fill(row.0 as usize, from, to, d1, &mut self.stats);
        self.propagation_count += filled as u64;
        if from <= to {
            from + filled
        } else {
            from - filled
        }
    }

    /// Records the path edge `⟨·, d1⟩ → ⟨n, d2⟩` without scheduling it.
    /// Returns `true` if the edge was new; a new edge counts as a
    /// propagation. A solver that records an edge this way either
    /// handles it itself or passes it to [`Tabulator::enqueue`].
    pub fn insert(&mut self, d1: F, n: StmtRef, d2: F) -> bool {
        let row = self.row(n.method, d2);
        self.insert_in(row, n.idx, d1)
    }

    /// Schedules the recorded edge `⟨·, d1⟩ → ⟨n, d2⟩` for processing.
    pub fn enqueue(&mut self, d1: F, n: StmtRef, d2: F) {
        self.worklist.push_back(PathEdge { d1, n, d2 });
    }

    /// Records the path edge `⟨·, d1⟩ → ⟨n, d2⟩` and schedules it if it
    /// is new. Returns `true` if the edge was new.
    pub fn propagate(&mut self, d1: F, n: StmtRef, d2: F) -> bool {
        let inserted = self.insert(d1, n, d2);
        if inserted {
            self.enqueue(d1, n, d2);
        }
        inserted
    }

    /// Pops the next edge to process.
    pub fn pop(&mut self) -> Option<PathEdge<F>> {
        let edge = self.worklist.pop_front();
        self.pop_count += u64::from(edge.is_some());
        edge
    }

    /// The edges still waiting to be processed. After a run stops
    /// early these are the recorded edges its driver never handled.
    pub fn queued(&self) -> impl Iterator<Item = &PathEdge<F>> {
        self.worklist.iter()
    }

    /// The index of `d2`'s path-edge row in `m`, if some edge targets
    /// it.
    fn rel(&self, m: MethodId, d2: F) -> Option<usize> {
        self.rows.get(&(m, d2)).map(|&row| row as usize)
    }

    /// All source facts `d1` of path edges targeting `(n, d2)`. The
    /// lookup borrows `d2`; only the returned facts are materialized.
    pub fn d1s_at(&self, n: StmtRef, d2: &F) -> Vec<F> {
        self.rel(n.method, *d2).map(|row| self.rels.d1s(row, n.idx)).unwrap_or_default()
    }

    /// Returns `true` if some path edge targets `(n, d2)`, whatever its
    /// source fact. Allocates nothing.
    pub fn has_node(&self, n: StmtRef, d2: &F) -> bool {
        self.rel(n.method, *d2).is_some_and(|row| self.rels.has_key(row, n.idx))
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

    /// Number of path edges recorded, by [`Tabulator::insert`] or
    /// [`Tabulator::propagate`].
    pub fn propagation_count(&self) -> u64 {
        self.propagation_count
    }

    /// Number of edges popped off the worklist.
    pub fn pop_count(&self) -> u64 {
        self.pop_count
    }

    /// Slots reserved in the path-edge rows' windows, written or not.
    pub fn row_slots(&self) -> u64 {
        self.rels.row_slots()
    }

    /// Density counters across the edge, incoming and summary tables,
    /// counted as the tables grew.
    pub fn table_stats(&self) -> TableStats {
        self.stats
    }

    /// The counters of [`Tabulator::table_stats`] recounted by a sweep
    /// over every row of every table: a check on the incremental
    /// counts, at the cost of a pass over the tables.
    pub fn swept_stats(&self) -> TableStats {
        let mut stats = TableStats::default();
        self.rels.collect_stats(&mut stats);
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

    /// A tabulator over one 16-statement method.
    fn tab() -> Tabulator<u32> {
        Tabulator::new([(MethodId::from_index(0), 16)])
    }

    #[test]
    #[should_panic(expected = "is not a tabulated method")]
    fn untabulated_method_panics() {
        Tabulator::<u32>::new([(MethodId::from_index(2), 4)]).insert(0, sr(0), 1);
    }

    /// A statement index past its method's length does not reach
    /// another method's statement: it panics.
    #[test]
    #[should_panic(expected = "statement 4 is past the 4 statements of its method")]
    fn statement_past_its_method_panics() {
        let m = MethodId::from_index;
        let mut t = Tabulator::<u32>::new([(m(0), 4), (m(1), 4)]);
        t.insert(0, StmtRef::new(m(0), 4), 1);
    }

    #[test]
    fn a_walk_writes_one_row() {
        let mut t = tab();
        let row = t.row(MethodId::from_index(0), 7);
        assert_eq!(t.row(MethodId::from_index(0), 7), row);
        assert!(t.insert_in(row, 1, 0));
        assert!(t.insert_in(row, 2, 0));
        assert!(!t.insert(0, sr(2), 7));
        assert!(t.has_node(sr(1), &7) && t.has_node(sr(2), &7));
        assert!(!t.has_node(sr(3), &7) && !t.has_node(sr(1), &8));
        assert_eq!(t.propagation_count(), 2);
        assert_eq!(t.table_stats().rows, 2, "two (statement, fact) nodes");
    }

    /// A fill records what inserting slot by slot would, up to the
    /// first taken slot, in either direction.
    #[test]
    fn fill_stops_at_the_first_taken_slot() {
        let m = MethodId::from_index(0);
        let mut t = tab();
        let row = t.row(m, 7);
        assert!(t.insert_in(row, 6, 3));
        assert_eq!(t.fill_in(row, 2, 10, 0), 6, "stops at statement 6, taken by d1 = 3");
        assert_eq!(t.fill_in(row, 9, 4, 1), 6, "descending: fills 9, 8, 7");
        assert_eq!(t.fill_in(row, 12, 12, 1), 12, "an empty range fills nothing");
        assert_eq!(t.fill_in(row, 12, 16, 1), 16, "up to the method's end");
        assert_eq!(t.propagation_count(), 1 + 4 + 3 + 4);
        assert_eq!(t.d1s_at(sr(5), &7), vec![0]);
        assert_eq!(t.d1s_at(sr(6), &7), vec![3]);
        assert_eq!(t.d1s_at(sr(8), &7), vec![1]);
        assert!(!t.has_node(sr(1), &7) && !t.has_node(sr(10), &7));
        assert_eq!(t.table_stats(), t.swept_stats());
        assert_eq!(t.table_stats().rows, 12);
        assert_eq!(t.queued().count(), 0, "a fill schedules nothing");
    }

    #[test]
    fn insert_records_and_counts_without_scheduling() {
        let mut t = tab();
        assert!(t.insert(0, sr(1), 7));
        assert!(!t.insert(0, sr(1), 7));
        assert!(!t.propagate(0, sr(1), 7));
        assert_eq!(t.propagation_count(), 1);
        assert!(t.has_node(sr(1), &7));
        assert_eq!(t.queued().count(), 0);
        t.enqueue(0, sr(1), 7);
        assert!(t.propagate(0, sr(2), 7));
        assert_eq!(t.propagation_count(), 2);
        assert_eq!(t.pop(), Some(PathEdge { d1: 0, n: sr(1), d2: 7 }));
        assert_eq!(t.pop(), Some(PathEdge { d1: 0, n: sr(2), d2: 7 }));
        assert_eq!(t.pop(), None);
        assert_eq!(t.pop_count(), 2);
    }

    #[test]
    fn propagate_dedupes() {
        let mut t = tab();
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
        let mut t = tab();
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
        let mut t = tab();
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
        let mut t = tab();
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
