//! Pluggable fact-set representations for the tabulation tables.
//!
//! The tabulators store three relations per direction: path edges
//! (`n → d2 → {d1}`), incoming call contexts and end summaries
//! (`callee → fact → {(stmt, fact)}`). [`FactSetDomain`] abstracts how
//! the inner sets are laid out so one tabulator implementation serves
//! two representations:
//!
//! * [`HashSets`] — the original `FxHashMap`/`FxHashSet`/`Vec` nesting.
//!   Works for any `Clone + Eq + Hash` fact; the only choice for
//!   whole-struct fact keys.
//! * [`BitsetSets`] — fact-id-indexed bitset rows
//!   ([`SparseBitMatrix`]/[`HybridBitSet`] from `flowdroid-bitset`) for
//!   facts that are dense indices ([`Idx`]), i.e. interned fact ids.
//!   Small rows live inline with zero heap allocations; hot rows
//!   promote to dense words with O(1) membership.
//!
//! Both representations iterate sets in a deterministic order that is
//! a pure function of set *contents* (hash iteration is only used where
//! consumers canonicalize), so swapping one for the other never changes
//! solver results — the determinism sweeps assert exactly this.

use flowdroid_bitset::{HybridBitSet, Idx, SparseBitMatrix};
use flowdroid_ir::{FxHashMap, FxHashSet, StmtRef};
use std::hash::Hash;

/// Density and promotion counters for one tabulator's tables.
///
/// All zeros on the hash-map representation (it has no notion of
/// rows/promotion); on the bitset representation `dense_rows` counts
/// hybrid rows that promoted past the sparse threshold and
/// `dense_words` the `u64` words backing them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Hybrid set rows ever touched (edge rows + incoming/summary sets).
    pub rows: u64,
    /// Rows still in the inline sparse representation.
    pub sparse_rows: u64,
    /// Rows promoted to dense words (promotion is one-way, so this is
    /// also the promotion count).
    pub dense_rows: u64,
    /// `u64` words backing the dense rows.
    pub dense_words: u64,
    /// Fact interns whose access path was widened to the length bound
    /// (0 unless the keying domain widens — see the core interner).
    pub widened_facts: u64,
}

impl TableStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &TableStats) {
        self.rows += other.rows;
        self.sparse_rows += other.sparse_rows;
        self.dense_rows += other.dense_rows;
        self.dense_words += other.dense_words;
        self.widened_facts += other.widened_facts;
    }

    /// Whether any row was ever counted (false on the hash-map path).
    pub fn any(&self) -> bool {
        self.rows > 0
    }
}

/// A hybrid row's contribution to [`TableStats`]: `None` while the row
/// does not exist, else whether it is dense and its word count.
type Shape = Option<(bool, u64)>;

fn shape_of<T: Idx>(set: Option<&HybridBitSet<T>>) -> Shape {
    set.map(|s| (s.is_dense(), s.word_count() as u64))
}

impl TableStats {
    fn add_shape(&mut self, shape: Shape) {
        let Some((dense, words)) = shape else { return };
        self.rows += 1;
        if dense {
            self.dense_rows += 1;
            self.dense_words += words;
        } else {
            self.sparse_rows += 1;
        }
    }

    fn sub_shape(&mut self, shape: Shape) {
        let Some((dense, words)) = shape else { return };
        self.rows -= 1;
        if dense {
            self.dense_rows -= 1;
            self.dense_words -= words;
        } else {
            self.sparse_rows -= 1;
        }
    }

    /// Moves one row's contribution from its shape before an insert to
    /// its shape after (added first, so no counter dips below zero).
    fn reshape(&mut self, before: Shape, after: Shape) {
        if before != after {
            self.add_shape(after);
            self.sub_shape(before);
        }
    }
}

/// The per-node path-edge relation `d2 → {d1}`.
pub trait FactRel<F>: Default {
    /// Records `(d2, d1)`; returns `true` if it was not already present.
    /// A row the insert creates, promotes or widens is counted into
    /// `stats`, which must hold this relation's counts so far (no-op for
    /// hash maps; `None` when the owner sweeps instead).
    fn insert(&mut self, d2: &F, d1: &F, stats: Option<&mut TableStats>) -> bool;
    /// Whether `(d2, d1)` is recorded.
    fn contains(&self, d2: &F, d1: &F) -> bool;
    /// All `d1` recorded for `d2`.
    fn d1s(&self, d2: &F) -> Vec<F>;
    /// All `d2` with at least one entry.
    fn keys(&self) -> Vec<F>;
    /// Accumulates density counters by sweeping every row (no-op for
    /// hash maps): the reference the insert-time counts must equal.
    fn collect_stats(&self, stats: &mut TableStats);
}

/// A set of `(statement, fact)` pairs (incoming contexts, summaries).
pub trait PairSet<F>: Default {
    /// Records `(site, f)`; returns `true` if it was not already present.
    /// Counts row changes into `stats` like [`FactRel::insert`].
    fn insert(&mut self, site: StmtRef, f: &F, stats: Option<&mut TableStats>) -> bool;
    /// Whether the set is empty.
    fn is_empty(&self) -> bool;
    /// All pairs, in a deterministic order.
    fn to_vec(&self) -> Vec<(StmtRef, F)>;
    /// Accumulates density counters by sweeping every row (no-op for
    /// the vector form).
    fn collect_stats(&self, stats: &mut TableStats);
}

/// Chooses the concrete table types for a fact type `F`.
pub trait FactSetDomain<F> {
    /// Path-edge relation representation.
    type Rel: FactRel<F>;
    /// Incoming/summary pair-set representation.
    type Pairs: PairSet<F>;
}

/// The hash-map representation (any hashable fact).
#[derive(Clone, Copy, Debug, Default)]
pub struct HashSets;

impl<F: Clone + Eq + Hash> FactSetDomain<F> for HashSets {
    type Rel = FxHashMap<F, FxHashSet<F>>;
    type Pairs = VecPairs<F>;
}

impl<F: Clone + Eq + Hash> FactRel<F> for FxHashMap<F, FxHashSet<F>> {
    fn insert(&mut self, d2: &F, d1: &F, _stats: Option<&mut TableStats>) -> bool {
        self.entry(d2.clone()).or_default().insert(d1.clone())
    }

    fn contains(&self, d2: &F, d1: &F) -> bool {
        self.get(d2).is_some_and(|s| s.contains(d1))
    }

    fn d1s(&self, d2: &F) -> Vec<F> {
        self.get(d2).map(|s| s.iter().cloned().collect()).unwrap_or_default()
    }

    fn keys(&self) -> Vec<F> {
        self.keys().cloned().collect()
    }

    fn collect_stats(&self, _stats: &mut TableStats) {}
}

/// Insertion-ordered pair vector with linear-scan dedup (the original
/// incoming/summary representation; sets are small).
#[derive(Clone, Debug)]
pub struct VecPairs<F>(Vec<(StmtRef, F)>);

impl<F> Default for VecPairs<F> {
    fn default() -> Self {
        VecPairs(Vec::new())
    }
}

impl<F: Clone + Eq> PairSet<F> for VecPairs<F> {
    fn insert(&mut self, site: StmtRef, f: &F, _stats: Option<&mut TableStats>) -> bool {
        if self.0.iter().any(|(s, d)| *s == site && d == f) {
            false
        } else {
            self.0.push((site, f.clone()));
            true
        }
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn to_vec(&self) -> Vec<(StmtRef, F)> {
        self.0.clone()
    }

    fn collect_stats(&self, _stats: &mut TableStats) {}
}

/// The bitset representation (facts that are dense indices).
#[derive(Clone, Copy, Debug, Default)]
pub struct BitsetSets;

impl<F: Idx> FactSetDomain<F> for BitsetSets {
    type Rel = SparseBitMatrix<F, F>;
    type Pairs = BitPairs<F>;
}

impl<F: Idx> FactRel<F> for SparseBitMatrix<F, F> {
    fn insert(&mut self, d2: &F, d1: &F, stats: Option<&mut TableStats>) -> bool {
        let before = shape_of(self.row(*d2));
        let new = SparseBitMatrix::insert(self, *d2, *d1);
        if let (true, Some(stats)) = (new, stats) {
            stats.reshape(before, shape_of(self.row(*d2)));
        }
        new
    }

    fn contains(&self, d2: &F, d1: &F) -> bool {
        SparseBitMatrix::contains(self, *d2, *d1)
    }

    fn d1s(&self, d2: &F) -> Vec<F> {
        self.row(*d2).map(|row| row.iter().collect()).unwrap_or_default()
    }

    fn keys(&self) -> Vec<F> {
        self.rows().collect()
    }

    fn collect_stats(&self, stats: &mut TableStats) {
        for r in self.rows() {
            stats.add_shape(shape_of(self.row(r)));
        }
    }
}

/// Pairs grouped by statement, each statement's facts a hybrid bitset.
///
/// Statements stay sorted, facts iterate id-ascending, so `to_vec`
/// order is a pure function of set contents.
#[derive(Clone, Debug)]
pub struct BitPairs<F: Idx> {
    by_site: Vec<(StmtRef, HybridBitSet<F>)>,
}

impl<F: Idx> Default for BitPairs<F> {
    fn default() -> Self {
        BitPairs { by_site: Vec::new() }
    }
}

impl<F: Idx> PairSet<F> for BitPairs<F> {
    fn insert(&mut self, site: StmtRef, f: &F, stats: Option<&mut TableStats>) -> bool {
        let (set, before) = match self.by_site.binary_search_by_key(&site, |(s, _)| *s) {
            Ok(pos) => {
                let set = &mut self.by_site[pos].1;
                let before = shape_of(Some(&*set));
                (set, before)
            }
            Err(pos) => {
                self.by_site.insert(pos, (site, HybridBitSet::new()));
                (&mut self.by_site[pos].1, None)
            }
        };
        let new = set.insert(*f);
        if let (true, Some(stats)) = (new, stats) {
            stats.reshape(before, shape_of(Some(&*set)));
        }
        new
    }

    fn is_empty(&self) -> bool {
        self.by_site.is_empty()
    }

    fn to_vec(&self) -> Vec<(StmtRef, F)> {
        let mut out = Vec::new();
        for (site, set) in &self.by_site {
            out.extend(set.iter().map(|f| (*site, f)));
        }
        out
    }

    fn collect_stats(&self, stats: &mut TableStats) {
        for (_, set) in &self.by_site {
            stats.add_shape(shape_of(Some(set)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::MethodId;

    fn sr(i: usize) -> StmtRef {
        StmtRef::new(MethodId::from_index(0), i)
    }

    /// Both pair-set representations agree on membership and contents
    /// under the same insertion sequence.
    #[test]
    fn pair_sets_agree() {
        let mut vp: VecPairs<u32> = VecPairs::default();
        let mut bp: BitPairs<u32> = BitPairs::default();
        let inserts = [(3, 7u32), (1, 2), (3, 7), (3, 1), (0, 9), (1, 2)];
        let mut stats = TableStats::default();
        for (s, f) in inserts {
            let (v, b) = (vp.insert(sr(s), &f, None), bp.insert(sr(s), &f, Some(&mut stats)));
            assert_eq!(v, b, "({s},{f})");
        }
        let mut a = vp.to_vec();
        let mut b = bp.to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!vp.is_empty() && !bp.is_empty());
    }

    /// Both relation representations agree on insert/contains/rows.
    #[test]
    fn rels_agree() {
        let mut hr: FxHashMap<u32, FxHashSet<u32>> = Default::default();
        let mut br: SparseBitMatrix<u32, u32> = Default::default();
        let inserts = [(5u32, 1u32), (5, 2), (5, 1), (0, 0), (9, 1)];
        let mut stats = TableStats::default();
        for (d2, d1) in inserts {
            assert_eq!(
                FactRel::insert(&mut hr, &d2, &d1, None),
                FactRel::insert(&mut br, &d2, &d1, Some(&mut stats))
            );
        }
        assert!(FactRel::contains(&hr, &5, &2) && FactRel::contains(&br, &5, &2));
        assert!(!FactRel::contains(&hr, &5, &9) && !FactRel::contains(&br, &5, &9));
        let mut ha = FactRel::d1s(&hr, &5);
        ha.sort_unstable();
        assert_eq!(ha, FactRel::d1s(&br, &5));
        let mut hk = FactRel::keys(&hr);
        hk.sort_unstable();
        assert_eq!(hk, FactRel::keys(&br));
    }

    #[test]
    fn bitset_stats_count_rows() {
        let mut br: SparseBitMatrix<u32, u32> = Default::default();
        let mut counted = TableStats::default();
        for d1 in 0..20u32 {
            FactRel::insert(&mut br, &0, &d1, Some(&mut counted));
        }
        FactRel::insert(&mut br, &1, &1, Some(&mut counted));
        let mut stats = TableStats::default();
        br.collect_stats(&mut stats);
        assert_eq!(counted, stats);
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.dense_rows, 1);
        assert_eq!(stats.sparse_rows, 1);
        assert!(stats.dense_words > 0);
        assert!(stats.any());

        let hr: FxHashMap<u32, FxHashSet<u32>> = Default::default();
        let mut hstats = TableStats::default();
        hr.collect_stats(&mut hstats);
        assert!(!hstats.any());
    }
}
