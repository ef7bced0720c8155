//! The fact-id-indexed tables behind a [`crate::Tabulator`].
//!
//! A tabulator stores three relations per direction: path edges
//! (`(method, d2) → statement → {d1}`), incoming call contexts and end
//! summaries (`callee → fact → {(stmt, fact)}`). Facts are dense
//! indices ([`Idx`]), i.e. interned fact ids, so the inner sets are
//! laid out by fact id:
//!
//! * [`SlotRows`] — the path-edge rows, one per fact in one method: one
//!   8-byte slot per statement of the row's window that holds a lone
//!   `d1` inline (almost every IFDS node has exactly one) and spills to
//!   a [`HybridBitSet`] from `flowdroid-bitset` on the second. Windows
//!   are carved from large blocks that a thread keeps warm between
//!   solves, up to [`WARM_ROW_BYTES`].
//! * [`BitPairs`] — an incoming or summary set: site-sorted hybrid rows.
//!
//! Small rows cost no heap allocation; hot rows promote to dense words
//! with O(1) membership. Both tables iterate in an order that is a pure
//! function of their contents, so solver results are deterministic.

use flowdroid_bitset::{HybridBitSet, Idx};
use flowdroid_ir::StmtRef;
use std::cell::RefCell;

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

/// One statement's entry in a path-edge row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// No `d1` recorded.
    Empty,
    /// Exactly one `d1`, stored inline.
    One(u32),
    /// Two or more `d1`s: the index of their set in the row's
    /// `spilled` arena.
    Many(u32),
}

impl Slot {
    /// The slot a block word holds. A zeroed word is empty, so a block
    /// fresh from the allocator needs no initializing pass.
    fn load(word: u64) -> Slot {
        match word >> 32 {
            0 => Slot::Empty,
            1 => Slot::One(word as u32),
            _ => Slot::Many(word as u32),
        }
    }

    /// The 8-byte word that stores the slot.
    fn word(self) -> u64 {
        match self {
            Slot::Empty => 0,
            Slot::One(d1) => 1 << 32 | u64::from(d1),
            Slot::Many(k) => 2 << 32 | u64::from(k),
        }
    }
}

/// An inline slot's [`TableStats`] shape: one sparse row, no words.
const INLINE: Shape = Some((false, 0));

/// Bytes of freed row blocks one thread keeps warm for its next solve;
/// blocks past it go back to the allocator. It is far above the rows of
/// a typical job and far below one large job's, so a long-lived worker
/// touches no fresh pages for the first and holds little of the second.
pub const WARM_ROW_BYTES: usize = 8 << 20;

/// Statements up to which a row takes its whole method at its first
/// write (512 bytes): growing a window costs more than the slots it
/// would save.
const WHOLE_ROW: usize = 64;

/// Slots in a store's first block (32 KiB).
const MIN_BLOCK: usize = 1 << 12;

/// Slots in the largest block (64 MiB). Each new block doubles the
/// store's slots up to it. glibc's mmap threshold never rises above
/// 32 MiB, so a block this size is mapped on its own and unmapped when
/// freed: a large job's rows leave the process with it.
const MAX_BLOCK: usize = 1 << 23;

thread_local! {
    /// Freed row blocks this thread keeps, smallest first; at most
    /// [`WARM_ROW_BYTES`] of them.
    static WARM: RefCell<Vec<Box<[u64]>>> = const { RefCell::new(Vec::new()) };
}

/// Bytes of row blocks the calling thread holds warm for its next
/// solve: at most [`WARM_ROW_BYTES`].
pub fn warm_row_bytes() -> usize {
    WARM.with(|warm| warm.borrow().iter().map(|b| b.len() * 8).sum())
}

/// The thread's largest warm block, if it holds at least `slots`.
fn take_warm(slots: usize) -> Option<Box<[u64]>> {
    WARM.try_with(|warm| {
        let mut warm = warm.borrow_mut();
        warm.pop_if(|b| b.len() >= slots)
    })
    .ok()
    .flatten()
}

/// Gives `blocks` to the thread's warm pool, which then keeps its
/// largest blocks that fit in [`WARM_ROW_BYTES`] together and frees
/// the rest.
fn keep_warm(blocks: Vec<Box<[u64]>>) {
    let _ = WARM.try_with(move |warm| {
        let mut warm = warm.borrow_mut();
        warm.extend(blocks);
        warm.sort_unstable_by_key(|b| std::cmp::Reverse(b.len()));
        let mut bytes = 0;
        warm.retain(|b| {
            let keep = bytes + b.len() * 8 <= WARM_ROW_BYTES;
            bytes += if keep { b.len() * 8 } else { 0 };
            keep
        });
        warm.reverse();
    });
}

/// Where one path-edge row keeps its slots: the window `[lo, lo + cap)`
/// of its method's statements, stored from slot `at` of block `block`.
#[derive(Debug)]
struct Window<F: Idx> {
    /// The method's statement count.
    len: u32,
    /// The first statement in the window.
    lo: u32,
    /// Statements in the window; 0 until the first insert or fill.
    cap: u32,
    block: u32,
    at: u32,
    /// The `d1` sets of the row's spilled slots.
    spilled: Vec<HybridBitSet<F>>,
}

/// The path-edge rows of one tabulator: for each fact `d2` in one
/// method, statement index → `{d1}`, 8 bytes a statement.
///
/// A row stores only a window of its method's statements, set by its
/// first insert or fill: a fill knows its range before it writes, so a
/// walk's row covers what the walk records. A statement outside the
/// window holds no `d1`. The window grows when an insert or a fill
/// reaches past it, downward too (a backward walk, a loop's back edge):
/// in place when the row is the last one carved from its block, else by
/// moving to fresh block space. A fill that grows its row upward in
/// place takes exactly what it records; every other growth takes half
/// again the row's size toward its growth, so a row that creeps one
/// insert at a time grows seldom and the space a moved row leaves
/// behind stays under twice its final window. A row of a method of at
/// most 64 statements takes the whole method at once.
///
/// Windows are carved from a few large blocks. When the rows drop,
/// their blocks go to the thread's warm pool ([`WARM_ROW_BYTES`]); the
/// next rows built on the thread carve pooled blocks before they
/// allocate, and reset only the slots they hand out.
///
/// Nearly every `(statement, d2)` node is reached from exactly one
/// `d1`, so a slot holds that `d1` inline; the second distinct `d1`
/// spills the slot to a [`HybridBitSet`] in the row's own arena. For
/// [`TableStats`] an inline slot is one sparse row with no words and a
/// spilled slot counts by its hybrid set's shape, so the counts equal
/// those of one hybrid set per node.
#[derive(Debug)]
pub struct SlotRows<F: Idx> {
    rows: Vec<Window<F>>,
    blocks: Vec<Box<[u64]>>,
    /// Slots carved from the last block.
    used: usize,
    /// Slots in every row's window.
    reserved: u64,
}

impl<F: Idx> Default for SlotRows<F> {
    fn default() -> Self {
        SlotRows { rows: Vec::new(), blocks: Vec::new(), used: 0, reserved: 0 }
    }
}

impl<F: Idx> Drop for SlotRows<F> {
    fn drop(&mut self) {
        keep_warm(std::mem::take(&mut self.blocks));
    }
}

impl<F: Idx> SlotRows<F> {
    /// Adds an empty row over `len` statements and returns its index.
    /// It holds no slot until its first insert or fill.
    pub fn push(&mut self, len: usize) -> usize {
        let len = u32::try_from(len).expect("statement count overflow");
        self.rows.push(Window { len, lo: 0, cap: 0, block: 0, at: 0, spilled: Vec::new() });
        self.rows.len() - 1
    }

    /// Slots reserved in the rows' windows: the slots a row holds,
    /// written or not (the space a moved window left behind is not
    /// counted).
    pub fn row_slots(&self) -> u64 {
        self.reserved
    }

    /// The block words of `row`'s window, one per statement from `lo`.
    fn words(&self, row: usize) -> &[u64] {
        let w = &self.rows[row];
        let at = w.at as usize;
        self.blocks.get(w.block as usize).map_or(&[], |b| &b[at..at + w.cap as usize])
    }

    /// The slot of `row` at statement `idx`: empty outside the window.
    fn slot(&self, row: usize, idx: usize) -> Slot {
        let w = &self.rows[row];
        let i = idx.wrapping_sub(w.lo as usize);
        if i < w.cap as usize {
            Slot::load(self.blocks[w.block as usize][w.at as usize + i])
        } else {
            Slot::Empty
        }
    }

    /// `slots` empty slots of block space: a block index and an offset.
    fn carve(&mut self, slots: usize) -> (u32, u32) {
        if self.blocks.last().is_none_or(|b| b.len() - self.used < slots) {
            let block = take_warm(slots).unwrap_or_else(|| {
                let held: usize = self.blocks.iter().map(|b| b.len()).sum();
                vec![0; held.clamp(MIN_BLOCK, MAX_BLOCK).max(slots)].into_boxed_slice()
            });
            self.blocks.push(block);
            self.used = 0;
        }
        let (block, at) = (self.blocks.len() - 1, self.used);
        self.used += slots;
        self.blocks[block][at..self.used].fill(0);
        (block as u32, at as u32)
    }

    /// Grows `row`'s window to cover statements `[a, b)`, `a < b ≤ len`.
    /// An `exact` growth that need not copy the row takes no more.
    fn cover(&mut self, row: usize, a: usize, b: usize, exact: bool) {
        let w = &self.rows[row];
        let (len, lo, cap) = (w.len as usize, w.lo as usize, w.cap as usize);
        let hi = lo + cap;
        if cap > 0 && lo <= a && b <= hi {
            return;
        }
        let (mut nlo, mut nhi) = match cap {
            0 if len <= WHOLE_ROW => (0, len),
            0 => (a, b),
            _ => (a.min(lo), b.max(hi)),
        };
        let (block, at) = (w.block as usize, w.at as usize);
        let last = self.blocks.len().wrapping_sub(1);
        let in_place = |nlo: usize, nhi: usize| {
            cap > 0
                && block == last
                && at + cap == self.used
                && at + nhi - nlo <= self.blocks[last].len()
        };
        // A growing row takes half again its size toward its growth, so
        // a row that creeps, one insert at a time, grows seldom. Only a
        // fill growing its row upward in place, which copies nothing,
        // takes exactly the statements it records.
        let want = (cap + cap / 2 + 1).min(len);
        if cap > 0 && !(exact && nlo == lo && in_place(nlo, nhi)) && nhi - nlo < want {
            if nhi > hi {
                nhi = (nlo + want).min(len);
            } else {
                nlo = nhi.saturating_sub(want);
            }
        }
        let down = if cap > 0 { lo - nlo } else { 0 };
        if in_place(nlo, nhi) {
            let words = &mut self.blocks[block];
            if down > 0 {
                words.copy_within(at..at + cap, at + down);
                words[at..at + down].fill(0);
            }
            words[at + down + cap..at + nhi - nlo].fill(0);
            self.used = at + nhi - nlo;
        } else {
            let (nblock, nat) = self.carve(nhi - nlo);
            let (nblock, nat) = (nblock as usize, nat as usize);
            if cap > 0 {
                let to = nat + down;
                if nblock == block {
                    self.blocks[block].copy_within(at..at + cap, to);
                } else {
                    let (old, new) = self.blocks.split_at_mut(nblock);
                    new[0][to..to + cap].copy_from_slice(&old[block][at..at + cap]);
                }
            }
            let w = &mut self.rows[row];
            w.block = nblock as u32;
            w.at = nat as u32;
        }
        let w = &mut self.rows[row];
        self.reserved += (nhi - nlo - cap) as u64;
        w.lo = nlo as u32;
        w.cap = (nhi - nlo) as u32;
    }

    /// Records `d1` at statement `idx` of `row`; returns `true` if it
    /// was not already present. A node the insert creates, promotes or
    /// widens is counted into `stats`, which must hold the rows' counts
    /// so far.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is past the row's statements.
    pub fn insert(&mut self, row: usize, idx: usize, d1: F, stats: &mut TableStats) -> bool {
        let w = &self.rows[row];
        if idx.wrapping_sub(w.lo as usize) >= w.cap as usize {
            let len = w.len as usize;
            if idx >= len {
                panic!("statement {idx} is past the {len} statements of its method")
            }
            self.cover(row, idx, idx + 1, false);
        }
        let w = &mut self.rows[row];
        let word = &mut self.blocks[w.block as usize][w.at as usize + idx - w.lo as usize];
        let raw = d1.index() as u32;
        match Slot::load(*word) {
            Slot::Empty => {
                *word = Slot::One(raw).word();
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
                *word = Slot::Many(w.spilled.len() as u32).word();
                w.spilled.push(set);
                true
            }
            Slot::Many(k) => {
                let set = &mut w.spilled[k as usize];
                let before = shape_of(set);
                let new = set.insert(d1);
                if new {
                    stats.reshape(before, shape_of(set));
                }
                new
            }
        }
    }

    /// Records `d1` at each statement of `row` from `from` toward `to`,
    /// exclusive — descending when `to < from` — and stops at the first
    /// slot that already holds some `d1`. The window grows to the
    /// statements filled, no further. Each slot filled counts into
    /// `stats` as a new node, as [`SlotRows::insert`] counts it.
    /// Returns how many slots it filled.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the row's statements.
    pub fn fill(
        &mut self,
        row: usize,
        from: usize,
        to: usize,
        d1: F,
        stats: &mut TableStats,
    ) -> usize {
        let w = &self.rows[row];
        let (len, lo) = (w.len as usize, w.lo as usize);
        let words = self.words(row);
        // The window's part of statements [s, e), as word indices.
        let part = |s: usize, e: usize| {
            let (s, e) = (s.clamp(lo, lo + words.len()), e.clamp(lo, lo + words.len()));
            &words[s - lo..e.max(s) - lo]
        };
        // Only the window holds taken slots. The fill writes [a, b).
        let (a, b) = if from <= to {
            assert!(to <= len, "statement {to} is past the {len} statements of its method");
            let stop = part(from, to).iter().position(|&w| w != 0);
            (from, stop.map_or(to, |i| from.max(lo) + i))
        } else {
            assert!(from < len, "statement {from} is past the {len} statements of its method");
            let stop = part(to + 1, from + 1).iter().rposition(|&w| w != 0);
            (stop.map_or(to + 1, |i| (to + 1).max(lo) + i + 1), from + 1)
        };
        if a >= b {
            return 0;
        }
        self.cover(row, a, b, true);
        let w = &self.rows[row];
        let at = w.at as usize + a - w.lo as usize;
        self.blocks[w.block as usize][at..at + b - a].fill(Slot::One(d1.index() as u32).word());
        let filled = b - a;
        stats.rows += filled as u64;
        stats.sparse_rows += filled as u64;
        filled
    }

    /// Whether some `d1` is recorded at statement `idx` of `row`.
    pub fn has_key(&self, row: usize, idx: usize) -> bool {
        self.slot(row, idx) != Slot::Empty
    }

    /// All `d1` recorded at statement `idx` of `row`, ascending.
    pub fn d1s(&self, row: usize, idx: usize) -> Vec<F> {
        match self.slot(row, idx) {
            Slot::Empty => Vec::new(),
            Slot::One(only) => vec![F::from_index(only as usize)],
            Slot::Many(k) => self.rows[row].spilled[k as usize].iter().collect(),
        }
    }

    /// Accumulates density counters by sweeping every slot of every
    /// row: the reference the insert-time counts must equal.
    pub fn collect_stats(&self, stats: &mut TableStats) {
        for row in 0..self.rows.len() {
            for &word in self.words(row) {
                stats.add_shape(match Slot::load(word) {
                    Slot::Empty => None,
                    Slot::One(_) => INLINE,
                    Slot::Many(k) => shape_of(&self.rows[row].spilled[k as usize]),
                });
            }
        }
    }
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
    /// Counts row changes into `stats` like [`SlotRows::insert`].
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
    /// [`SlotRows::collect_stats`].
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
        let mut rows: SlotRows<u32> = SlotRows::default();
        let br = rows.push(6);
        let mut counted = TableStats::default();
        let mut step = |rows: &mut SlotRows<u32>, idx: usize, d1: u32| {
            rows.insert(br, idx, d1, &mut counted);
            let mut swept = TableStats::default();
            rows.collect_stats(&mut swept);
            assert_eq!(counted, swept, "after ({idx}, {d1})");
            (counted.rows, counted.sparse_rows, counted.dense_rows, counted.dense_words)
        };
        // Empty → inline: one sparse row with no words.
        assert_eq!(step(&mut rows, 5, 40), (1, 1, 0, 0));
        // Inline → spilled: still one sparse row.
        assert_eq!(step(&mut rows, 5, 3), (1, 1, 0, 0));
        // A second node stays inline beside the spilled one.
        assert_eq!(step(&mut rows, 1, 0), (2, 2, 0, 0));
        for d1 in 10..10 + SPARSE_MAX as u32 - 2 {
            step(&mut rows, 5, d1);
        }
        // Spilled → dense past SPARSE_MAX ids, one word per 64 ids.
        assert_eq!(step(&mut rows, 5, 100), (2, 1, 1, 2));
        // A dense row widens with a larger id.
        assert_eq!(step(&mut rows, 5, 250), (2, 1, 1, 4));
        assert_eq!(rows.d1s(br, 5).len(), SPARSE_MAX + 2);
        assert!(counted.any());
    }

    /// A window covers what its row records: set by the first write, and
    /// grown by exactly what a fill records while the row is the last
    /// carved and grows upward in place. An insert, a downward growth
    /// and a move take half again the row's size.
    #[test]
    fn windows_grow_in_place_and_move_with_slack() {
        let mut stats = TableStats::default();
        let mut rows: SlotRows<u32> = SlotRows::default();
        let a = rows.push(100);
        assert_eq!(rows.row_slots(), 0, "an empty row holds no slot");
        assert!(!rows.has_key(a, 50));
        assert_eq!(rows.fill(a, 40, 60, 7, &mut stats), 20);
        assert_eq!(rows.row_slots(), 20, "a fill covers its range");
        assert_eq!(rows.fill(a, 39, 30, 7, &mut stats), 9);
        assert_eq!(rows.row_slots(), 31, "downward: half again the 20 slots, and one");
        assert!(rows.insert(a, 60, 8, &mut stats));
        assert_eq!(rows.row_slots(), 47, "an insert: [29, 76)");
        let b = rows.push(100);
        assert!(rows.insert(b, 0, 1, &mut stats));
        assert!(rows.insert(a, 61, 9, &mut stats));
        assert_eq!(rows.row_slots(), 1 + 47, "inside the window");
        // `a` is no longer the last window carved: it moves to [29, 100).
        assert_eq!(rows.fill(a, 76, 90, 2, &mut stats), 14);
        assert_eq!(rows.row_slots(), 1 + 71);
        // A descending fill stops at the first taken slot.
        assert_eq!(rows.fill(a, 70, 0, 3, &mut stats), 9);
        for idx in 0..100 {
            let want = match idx {
                31..=59 => vec![7],
                60 => vec![8],
                61 => vec![9],
                62..=70 => vec![3],
                76..=89 => vec![2],
                _ => vec![],
            };
            assert_eq!(rows.d1s(a, idx), want, "statement {idx}");
            assert_eq!(rows.has_key(a, idx), !want.is_empty());
        }
        assert_eq!(rows.d1s(b, 0), vec![1]);
        let mut swept = TableStats::default();
        rows.collect_stats(&mut swept);
        assert_eq!(stats, swept);
    }
}
