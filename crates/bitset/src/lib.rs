//! Bitset containers over dense index domains.
//!
//! The IFDS tabulators key their hot relations (path edges per node,
//! incoming sets, end summaries) by interned fact ids — small dense
//! `u32`s handed out in first-encounter order. Hash-map-of-hash-set
//! chains waste both space (an `FxHashSet` per `(node, d2)` pair) and
//! time (hash + probe per membership test) on what is really "a few
//! small integers per row". This crate provides the two sets that
//! replace them:
//!
//! * [`BitSet<T>`] — a growable word-array set; one bit per id.
//! * [`HybridBitSet<T>`] — stays an inline sorted array while the set
//!   has at most [`SPARSE_MAX`] elements (zero heap allocations), and
//!   promotes to a dense [`BitSet`] on overflow. Most IFDS rows hold a
//!   handful of facts; the hybrid makes those rows allocation-free
//!   while keeping dense rows O(1) per membership test.
//!
//! The per-statement path-edge relation built from them lives next to
//! the tabulator (`flowdroid_ifds::factset::SlotRows`): it keeps a lone
//! `d1` inline in an 8-byte slot and spills to a [`HybridBitSet`] only
//! on the second.
//!
//! Both sets iterate in ascending index order, so iteration order is a
//! pure function of set contents — a property the deterministic
//! solvers above rely on.

/// A type usable as a dense index: convertible to and from `usize`.
///
/// Implementors must round-trip (`from_index(i).index() == i`) and be
/// cheap `Copy` — indices are passed by value everywhere.
pub trait Idx: Copy + Eq {
    /// The position of this id in the dense domain.
    fn index(self) -> usize;
    /// The id at a given position.
    fn from_index(i: usize) -> Self;
}

impl Idx for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        i as u32
    }
}

impl Idx for usize {
    #[inline]
    fn index(self) -> usize {
        self
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        i
    }
}

const WORD_BITS: usize = u64::BITS as usize;

#[inline]
fn word_of(i: usize) -> (usize, u64) {
    (i / WORD_BITS, 1u64 << (i % WORD_BITS))
}

/// A dense bitset over `T`'s index domain, growing on demand.
///
/// No up-front domain size is required: inserting index `i` grows the
/// word array to cover `i`. This matters because the fact interner
/// hands out ids *during* the fixpoint — the universe is not known
/// when a row is created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet<T: Idx> {
    words: Vec<u64>,
    marker: std::marker::PhantomData<T>,
}

impl<T: Idx> Default for BitSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Idx> BitSet<T> {
    /// An empty set.
    pub fn new() -> BitSet<T> {
        BitSet { words: Vec::new(), marker: std::marker::PhantomData }
    }

    /// An empty set with capacity for indices below `universe`.
    pub fn with_capacity(universe: usize) -> BitSet<T> {
        BitSet { words: vec![0; universe.div_ceil(WORD_BITS)], marker: std::marker::PhantomData }
    }

    /// Inserts `t`; returns `true` if it was not already present.
    pub fn insert(&mut self, t: T) -> bool {
        let (w, bit) = word_of(t.index());
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let word = &mut self.words[w];
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Whether `t` is in the set.
    pub fn contains(&self, t: T) -> bool {
        let (w, bit) = word_of(t.index());
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Unions `other` into `self`; returns `true` if anything was added.
    pub fn union(&mut self, other: &BitSet<T>) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            let before = *dst;
            *dst |= src;
            changed |= *dst != before;
        }
        changed
    }

    /// Words currently backing the set (capacity accounting).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Elements in ascending index order.
    pub fn iter(&self) -> BitIter<'_, T> {
        BitIter {
            words: &self.words,
            word: 0,
            current: self.words.first().copied().unwrap_or(0),
            marker: std::marker::PhantomData,
        }
    }
}

/// Ascending-order iterator over a [`BitSet`].
pub struct BitIter<'a, T: Idx> {
    words: &'a [u64],
    word: usize,
    current: u64,
    marker: std::marker::PhantomData<T>,
}

impl<T: Idx> Iterator for BitIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        while self.current == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(T::from_index(self.word * WORD_BITS + bit))
    }
}

/// Elements a [`HybridBitSet`] holds inline before promoting to dense.
///
/// Eight raw `u32` indices fit in 32 bytes — one cache line alongside
/// the discriminant — and cover the overwhelming majority of IFDS rows
/// (most statements see a handful of distinct facts).
pub const SPARSE_MAX: usize = 8;

/// A set that is an inline sorted array until it exceeds
/// [`SPARSE_MAX`] elements, then a dense [`BitSet`] forever after.
///
/// Promotion is one-way: a row that went dense once is likely hot.
/// Both representations iterate in ascending index order, so swapping
/// one for the other never changes observable iteration order.
#[derive(Clone, Debug)]
pub enum HybridBitSet<T: Idx> {
    /// Sorted, deduplicated inline indices (`len` live in `elems`).
    Sparse {
        /// The live elements, ascending, in `elems[..len]`.
        elems: [u32; SPARSE_MAX],
        /// Number of live elements.
        len: u8,
        /// Ties the unused `T` parameter down.
        marker: std::marker::PhantomData<T>,
    },
    /// Promoted representation.
    Dense(BitSet<T>),
}

impl<T: Idx> Default for HybridBitSet<T> {
    fn default() -> Self {
        HybridBitSet::new()
    }
}

impl<T: Idx> HybridBitSet<T> {
    /// An empty (sparse) set.
    pub fn new() -> HybridBitSet<T> {
        HybridBitSet::Sparse { elems: [0; SPARSE_MAX], len: 0, marker: std::marker::PhantomData }
    }

    /// Inserts `t`; returns `true` if it was not already present.
    /// Promotes to dense when the sparse array would overflow.
    pub fn insert(&mut self, t: T) -> bool {
        match self {
            HybridBitSet::Sparse { elems, len, .. } => {
                let raw = t.index() as u32;
                let live = &elems[..*len as usize];
                let pos = match live.binary_search(&raw) {
                    Ok(_) => return false,
                    Err(pos) => pos,
                };
                if (*len as usize) < SPARSE_MAX {
                    elems[pos..=*len as usize].rotate_right(1);
                    elems[pos] = raw;
                    *len += 1;
                } else {
                    let mut dense = BitSet::with_capacity(t.index() + 1);
                    for &e in elems.iter() {
                        dense.insert(T::from_index(e as usize));
                    }
                    dense.insert(t);
                    *self = HybridBitSet::Dense(dense);
                }
                true
            }
            HybridBitSet::Dense(dense) => dense.insert(t),
        }
    }

    /// Whether `t` is in the set.
    pub fn contains(&self, t: T) -> bool {
        match self {
            HybridBitSet::Sparse { elems, len, .. } => {
                elems[..*len as usize].binary_search(&(t.index() as u32)).is_ok()
            }
            HybridBitSet::Dense(dense) => dense.contains(t),
        }
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        match self {
            HybridBitSet::Sparse { len, .. } => *len as usize,
            HybridBitSet::Dense(dense) => dense.count(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Whether the set has promoted to the dense representation.
    pub fn is_dense(&self) -> bool {
        matches!(self, HybridBitSet::Dense(_))
    }

    /// Words backing a dense set (0 while sparse).
    pub fn word_count(&self) -> usize {
        match self {
            HybridBitSet::Sparse { .. } => 0,
            HybridBitSet::Dense(dense) => dense.word_count(),
        }
    }

    /// Elements in ascending index order.
    pub fn iter(&self) -> HybridIter<'_, T> {
        match self {
            HybridBitSet::Sparse { elems, len, .. } => {
                HybridIter::Sparse(elems[..*len as usize].iter())
            }
            HybridBitSet::Dense(dense) => HybridIter::Dense(dense.iter()),
        }
    }
}

/// Ascending-order iterator over a [`HybridBitSet`].
pub enum HybridIter<'a, T: Idx> {
    /// Iterating the inline array.
    Sparse(std::slice::Iter<'a, u32>),
    /// Iterating the promoted bitset.
    Dense(BitIter<'a, T>),
}

impl<T: Idx> Iterator for HybridIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            HybridIter::Sparse(it) => it.next().map(|&raw| T::from_index(raw as usize)),
            HybridIter::Dense(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_insert_contains_iter() {
        let mut s: BitSet<u32> = BitSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(s.insert(200));
        assert!(!s.insert(3));
        assert!(s.insert(0));
        assert!(s.contains(0) && s.contains(3) && s.contains(200));
        assert!(!s.contains(1) && !s.contains(199) && !s.contains(10_000));
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 200]);
    }

    #[test]
    fn bitset_union_grows_and_reports_change() {
        let mut a: BitSet<u32> = BitSet::new();
        a.insert(1);
        let mut b: BitSet<u32> = BitSet::new();
        b.insert(1);
        b.insert(500);
        assert!(a.union(&b));
        assert!(!a.union(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 500]);
    }

    #[test]
    fn hybrid_stays_sparse_then_promotes() {
        let mut s: HybridBitSet<u32> = HybridBitSet::new();
        for i in 0..SPARSE_MAX as u32 {
            assert!(s.insert(i * 7));
            assert!(!s.is_dense());
        }
        // Re-inserting existing elements never promotes.
        assert!(!s.insert(0));
        assert!(!s.is_dense());
        // The ninth distinct element promotes.
        assert!(s.insert(1_000));
        assert!(s.is_dense());
        assert_eq!(s.count(), SPARSE_MAX + 1);
        for i in 0..SPARSE_MAX as u32 {
            assert!(s.contains(i * 7));
        }
        assert!(s.contains(1_000));
    }

    #[test]
    fn hybrid_sparse_insert_keeps_sorted_order() {
        let mut s: HybridBitSet<u32> = HybridBitSet::new();
        for v in [9, 2, 7, 2, 0, 5] {
            s.insert(v);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 5, 7, 9]);
    }

    #[test]
    fn hybrid_iter_order_survives_promotion() {
        let mut s: HybridBitSet<u32> = HybridBitSet::new();
        let vals = [64, 1, 128, 3, 90, 17, 2, 55, 4, 300];
        for v in vals {
            s.insert(v);
        }
        let mut sorted = vals.to_vec();
        sorted.sort_unstable();
        assert!(s.is_dense());
        assert_eq!(s.iter().collect::<Vec<_>>(), sorted);
    }
}
