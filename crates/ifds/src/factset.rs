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
//! * [`BitsetSets`] — fact-id-indexed tables for facts that are dense
//!   indices ([`Idx`]), i.e. interned fact ids. The path-edge relation
//!   is a [`SlotRel`]: one 8-byte slot per `d2` that holds a lone `d1`
//!   inline (almost every IFDS node has exactly one) and spills to a
//!   [`HybridBitSet`] from `flowdroid-bitset` on the second. Pair sets
//!   are site-sorted hybrid rows. Small rows cost no heap allocation;
//!   hot rows promote to dense words with O(1) membership.
//!
//! Both representations iterate sets in a deterministic order that is
//! a pure function of set *contents* (hash iteration is only used where
//! consumers canonicalize), so swapping one for the other never changes
//! solver results — the determinism sweeps assert exactly this.

use flowdroid_bitset::{HybridBitSet, Idx};
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
    /// hash maps).
    fn insert(&mut self, d2: &F, d1: &F, stats: &mut TableStats) -> bool;
    /// Whether `(d2, d1)` is recorded.
    fn contains(&self, d2: &F, d1: &F) -> bool;
    /// Whether some `(d2, ·)` is recorded.
    fn has_key(&self, d2: &F) -> bool;
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
    fn insert(&mut self, site: StmtRef, f: &F, stats: &mut TableStats) -> bool;
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
    fn insert(&mut self, d2: &F, d1: &F, _stats: &mut TableStats) -> bool {
        self.entry(d2.clone()).or_default().insert(d1.clone())
    }

    fn contains(&self, d2: &F, d1: &F) -> bool {
        self.get(d2).is_some_and(|s| s.contains(d1))
    }

    fn has_key(&self, d2: &F) -> bool {
        self.contains_key(d2)
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
    fn insert(&mut self, site: StmtRef, f: &F, _stats: &mut TableStats) -> bool {
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
    type Rel = SlotRel<F>;
    type Pairs = BitPairs<F>;
}

/// One `d2`'s entry in a [`SlotRel`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Slot {
    /// No `d1` recorded.
    #[default]
    Empty,
    /// Exactly one `d1`, stored inline.
    One(u32),
    /// Two or more `d1`s: the index of their set in the relation's
    /// `spilled` arena.
    Many(u32),
}

// The whole point of the layout: one node costs 8 bytes.
const _: () = assert!(std::mem::size_of::<Slot>() == 8);

/// An inline slot's [`TableStats`] shape: one sparse row, no words.
const INLINE: Shape = Some((false, 0));

/// The bitset path-edge relation `d2 → {d1}` of one statement: a slot
/// per fact id up to the highest `d2` seen, each at most 8 bytes.
///
/// Nearly every `(statement, d2)` node is reached from exactly one
/// `d1`, so a slot holds that `d1` inline; the second distinct `d1`
/// spills the row to a [`HybridBitSet`] in the relation's own arena.
/// For [`TableStats`] an inline slot is one sparse row with no words
/// and a spilled row counts by its hybrid set's shape, so the counts
/// equal those of one hybrid set per row.
#[derive(Clone, Debug)]
pub struct SlotRel<F: Idx> {
    slots: Vec<Slot>,
    spilled: Vec<HybridBitSet<F>>,
}

impl<F: Idx> Default for SlotRel<F> {
    fn default() -> Self {
        SlotRel { slots: Vec::new(), spilled: Vec::new() }
    }
}

impl<F: Idx> SlotRel<F> {
    fn slot(&self, d2: F) -> Slot {
        self.slots.get(d2.index()).copied().unwrap_or_default()
    }
}

impl<F: Idx> FactRel<F> for SlotRel<F> {
    fn insert(&mut self, d2: &F, d1: &F, stats: &mut TableStats) -> bool {
        let i = d2.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::Empty);
        }
        let raw = d1.index() as u32;
        match self.slots[i] {
            Slot::Empty => {
                self.slots[i] = Slot::One(raw);
                stats.add_shape(INLINE);
                true
            }
            Slot::One(only) if only == raw => false,
            // A two-element hybrid set has the inline shape, so the
            // spill leaves the stats as they are.
            Slot::One(only) => {
                let mut set = HybridBitSet::new();
                set.insert(F::from_index(only as usize));
                set.insert(*d1);
                self.slots[i] = Slot::Many(self.spilled.len() as u32);
                self.spilled.push(set);
                true
            }
            Slot::Many(k) => {
                let set = &mut self.spilled[k as usize];
                let before = shape_of(Some(&*set));
                let new = set.insert(*d1);
                if new {
                    stats.reshape(before, shape_of(Some(&*set)));
                }
                new
            }
        }
    }

    fn contains(&self, d2: &F, d1: &F) -> bool {
        match self.slot(*d2) {
            Slot::Empty => false,
            Slot::One(only) => only as usize == d1.index(),
            Slot::Many(k) => self.spilled[k as usize].contains(*d1),
        }
    }

    fn has_key(&self, d2: &F) -> bool {
        self.slot(*d2) != Slot::Empty
    }

    fn d1s(&self, d2: &F) -> Vec<F> {
        match self.slot(*d2) {
            Slot::Empty => Vec::new(),
            Slot::One(only) => vec![F::from_index(only as usize)],
            Slot::Many(k) => self.spilled[k as usize].iter().collect(),
        }
    }

    fn keys(&self) -> Vec<F> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| **slot != Slot::Empty)
            .map(|(i, _)| F::from_index(i))
            .collect()
    }

    fn collect_stats(&self, stats: &mut TableStats) {
        for slot in &self.slots {
            stats.add_shape(match *slot {
                Slot::Empty => None,
                Slot::One(_) => INLINE,
                Slot::Many(k) => shape_of(Some(&self.spilled[k as usize])),
            });
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
    fn insert(&mut self, site: StmtRef, f: &F, stats: &mut TableStats) -> bool {
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
        if new {
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
            let (v, b) = (vp.insert(sr(s), &f, &mut stats), bp.insert(sr(s), &f, &mut stats));
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
        let mut br: SlotRel<u32> = Default::default();
        let inserts = [(5u32, 1u32), (5, 2), (5, 1), (0, 0), (9, 1)];
        let mut stats = TableStats::default();
        for (d2, d1) in inserts {
            assert_eq!(
                FactRel::insert(&mut hr, &d2, &d1, &mut stats),
                FactRel::insert(&mut br, &d2, &d1, &mut stats)
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
        use flowdroid_bitset::SPARSE_MAX;
        let mut br: SlotRel<u32> = Default::default();
        let mut counted = TableStats::default();
        let mut step = |br: &mut SlotRel<u32>, d2: u32, d1: u32| {
            FactRel::insert(br, &d2, &d1, &mut counted);
            let mut swept = TableStats::default();
            br.collect_stats(&mut swept);
            assert_eq!(counted, swept, "after ({d2}, {d1})");
            (counted.rows, counted.sparse_rows, counted.dense_rows, counted.dense_words)
        };
        // Empty → inline: one sparse row with no words.
        assert_eq!(step(&mut br, 5, 40), (1, 1, 0, 0));
        // Inline → spilled: still one sparse row.
        assert_eq!(step(&mut br, 5, 3), (1, 1, 0, 0));
        // A second row stays inline beside the spilled one.
        assert_eq!(step(&mut br, 1, 0), (2, 2, 0, 0));
        for d1 in 10..10 + SPARSE_MAX as u32 - 2 {
            step(&mut br, 5, d1);
        }
        // Spilled → dense past SPARSE_MAX ids, one word per 64 ids.
        assert_eq!(step(&mut br, 5, 100), (2, 1, 1, 2));
        // A dense row widens with a larger id.
        assert_eq!(step(&mut br, 5, 250), (2, 1, 1, 4));
        assert_eq!(br.d1s(&5).len(), SPARSE_MAX + 2);
        assert!(counted.any());

        let hr: FxHashMap<u32, FxHashSet<u32>> = Default::default();
        let mut hstats = TableStats::default();
        hr.collect_stats(&mut hstats);
        assert!(!hstats.any());
    }
}
