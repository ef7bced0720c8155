//! The fact-id-indexed tables behind a [`crate::Tabulator`].
//!
//! A tabulator stores three relations per direction: path edges
//! (`(method, d2) → statement → {d1}`), incoming call contexts and end
//! summaries (`callee → fact → {(stmt, fact)}`). Facts are dense
//! indices ([`Idx`]), i.e. interned fact ids, so the inner sets are
//! laid out by fact id:
//!
//! * [`SlotRel`] — the path-edge row of one fact in one method: one
//!   8-byte slot per statement that holds a lone `d1` inline (almost
//!   every IFDS node has exactly one) and spills to a [`HybridBitSet`]
//!   from `flowdroid-bitset` on the second.
//! * [`BitPairs`] — an incoming or summary set: site-sorted hybrid rows.
//!
//! Small rows cost no heap allocation; hot rows promote to dense words
//! with O(1) membership. Both tables iterate in an order that is a pure
//! function of their contents, so solver results are deterministic.

use flowdroid_bitset::{HybridBitSet, Idx};
use flowdroid_ir::StmtRef;

/// Density and promotion counters for one tabulator's tables.
///
/// `rows` counts the rows ever touched: one per path-edge node
/// `(statement, fact)` and one per incoming or summary site.
/// `dense_rows` counts the hybrid rows that promoted past the sparse
/// threshold and `dense_words` the `u64` words backing them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Rows ever touched: path-edge `(statement, fact)` nodes plus
    /// incoming/summary sites.
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

    /// Whether any row was ever counted (false before the first insert).
    pub fn any(&self) -> bool {
        self.rows > 0
    }
}

/// A hybrid row's contribution to [`TableStats`]: `None` while the row
/// does not exist, else whether it is dense and its word count.
type Shape = Option<(bool, u64)>;

fn shape_of<T: Idx>(set: &HybridBitSet<T>) -> Shape {
    Some((set.is_dense(), set.word_count() as u64))
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

/// One statement's entry in a [`SlotRel`].
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

/// The path-edge row of one fact `d2` in one method: statement index →
/// `{d1}`, a slot per statement of the method, each 8 bytes. A row is
/// sized once, when it is created, and never grows.
///
/// Nearly every `(statement, d2)` node is reached from exactly one
/// `d1`, so a slot holds that `d1` inline; the second distinct `d1`
/// spills the slot to a [`HybridBitSet`] in the row's own arena. For
/// [`TableStats`] an inline slot is one sparse row with no words and a
/// spilled slot counts by its hybrid set's shape, so the counts equal
/// those of one hybrid set per node.
#[derive(Clone, Debug)]
pub struct SlotRel<F: Idx> {
    slots: Box<[Slot]>,
    spilled: Vec<HybridBitSet<F>>,
}

impl<F: Idx> SlotRel<F> {
    /// An empty row over `len` statements.
    pub fn new(len: usize) -> Self {
        SlotRel { slots: vec![Slot::Empty; len].into_boxed_slice(), spilled: Vec::new() }
    }

    /// Records `d1` at statement `idx`; returns `true` if it was not
    /// already present. A node the insert creates, promotes or widens is
    /// counted into `stats`, which must hold this row's counts so far.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is past the row's statements.
    pub fn insert(&mut self, idx: usize, d1: F, stats: &mut TableStats) -> bool {
        let len = self.slots.len();
        let Some(slot) = self.slots.get_mut(idx) else {
            panic!("statement {idx} is past the {len} statements of its method")
        };
        let raw = d1.index() as u32;
        match *slot {
            Slot::Empty => {
                *slot = Slot::One(raw);
                stats.add_shape(INLINE);
                true
            }
            Slot::One(only) if only == raw => false,
            // A two-element hybrid set has the inline shape, so the
            // spill leaves the stats as they are.
            Slot::One(only) => {
                let mut set = HybridBitSet::new();
                set.insert(F::from_index(only as usize));
                set.insert(d1);
                *slot = Slot::Many(self.spilled.len() as u32);
                self.spilled.push(set);
                true
            }
            Slot::Many(k) => {
                let set = &mut self.spilled[k as usize];
                let before = shape_of(set);
                let new = set.insert(d1);
                if new {
                    stats.reshape(before, shape_of(set));
                }
                new
            }
        }
    }

    /// Records `d1` at each statement from `from` toward `to`,
    /// exclusive — descending when `to < from` — and stops at the first
    /// slot that already holds some `d1`. Each slot filled counts into
    /// `stats` as a new node, as [`SlotRel::insert`] counts it. Returns
    /// how many slots it filled.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the row's statements.
    pub fn fill(&mut self, from: usize, to: usize, d1: F, stats: &mut TableStats) -> usize {
        let raw = d1.index() as u32;
        let filled = if from <= to {
            fill_empty(self.slots[from..to].iter_mut(), raw)
        } else {
            fill_empty(self.slots[to + 1..=from].iter_mut().rev(), raw)
        };
        stats.rows += filled as u64;
        stats.sparse_rows += filled as u64;
        filled
    }

    /// Whether some `d1` is recorded at statement `idx`.
    pub fn has_key(&self, idx: usize) -> bool {
        self.slots[idx] != Slot::Empty
    }

    /// All `d1` recorded at statement `idx`, ascending.
    pub fn d1s(&self, idx: usize) -> Vec<F> {
        match self.slots[idx] {
            Slot::Empty => Vec::new(),
            Slot::One(only) => vec![F::from_index(only as usize)],
            Slot::Many(k) => self.spilled[k as usize].iter().collect(),
        }
    }

    /// Accumulates density counters by sweeping every slot: the
    /// reference the insert-time counts must equal.
    pub fn collect_stats(&self, stats: &mut TableStats) {
        for slot in &self.slots {
            stats.add_shape(match *slot {
                Slot::Empty => None,
                Slot::One(_) => INLINE,
                Slot::Many(k) => shape_of(&self.spilled[k as usize]),
            });
        }
    }
}

/// Stores `raw` inline in each slot of `slots` up to the first one that
/// is not empty; returns how many it stored.
fn fill_empty<'s>(slots: impl Iterator<Item = &'s mut Slot>, raw: u32) -> usize {
    let mut filled = 0;
    for slot in slots {
        if *slot != Slot::Empty {
            break;
        }
        *slot = Slot::One(raw);
        filled += 1;
    }
    filled
}

/// A set of `(statement, fact)` pairs (incoming contexts, summaries),
/// grouped by statement, each statement's facts a hybrid bitset.
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

impl<F: Idx> BitPairs<F> {
    /// Records `(site, f)`; returns `true` if it was not already present.
    /// Counts row changes into `stats` like [`SlotRel::insert`].
    pub fn insert(&mut self, site: StmtRef, f: F, stats: &mut TableStats) -> bool {
        let (set, before) = match self.by_site.binary_search_by_key(&site, |(s, _)| *s) {
            Ok(pos) => {
                let set = &mut self.by_site[pos].1;
                let before = shape_of(set);
                (set, before)
            }
            Err(pos) => {
                self.by_site.insert(pos, (site, HybridBitSet::new()));
                (&mut self.by_site[pos].1, None)
            }
        };
        let new = set.insert(f);
        if new {
            stats.reshape(before, shape_of(set));
        }
        new
    }

    /// All pairs, sorted by site and then by fact id.
    pub fn to_vec(&self) -> Vec<(StmtRef, F)> {
        let mut out = Vec::new();
        for (site, set) in &self.by_site {
            out.extend(set.iter().map(|f| (*site, f)));
        }
        out
    }

    /// Accumulates density counters by sweeping every row, like
    /// [`SlotRel::collect_stats`].
    pub fn collect_stats(&self, stats: &mut TableStats) {
        for (_, set) in &self.by_site {
            stats.add_shape(shape_of(set));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_stats_count_rows() {
        use flowdroid_bitset::SPARSE_MAX;
        let mut br: SlotRel<u32> = SlotRel::new(6);
        let mut counted = TableStats::default();
        let mut step = |br: &mut SlotRel<u32>, idx: usize, d1: u32| {
            br.insert(idx, d1, &mut counted);
            let mut swept = TableStats::default();
            br.collect_stats(&mut swept);
            assert_eq!(counted, swept, "after ({idx}, {d1})");
            (counted.rows, counted.sparse_rows, counted.dense_rows, counted.dense_words)
        };
        // Empty → inline: one sparse row with no words.
        assert_eq!(step(&mut br, 5, 40), (1, 1, 0, 0));
        // Inline → spilled: still one sparse row.
        assert_eq!(step(&mut br, 5, 3), (1, 1, 0, 0));
        // A second node stays inline beside the spilled one.
        assert_eq!(step(&mut br, 1, 0), (2, 2, 0, 0));
        for d1 in 10..10 + SPARSE_MAX as u32 - 2 {
            step(&mut br, 5, d1);
        }
        // Spilled → dense past SPARSE_MAX ids, one word per 64 ids.
        assert_eq!(step(&mut br, 5, 100), (2, 1, 1, 2));
        // A dense row widens with a larger id.
        assert_eq!(step(&mut br, 5, 250), (2, 1, 1, 4));
        assert_eq!(br.d1s(5).len(), SPARSE_MAX + 2);
        assert!(counted.any());
    }
}
