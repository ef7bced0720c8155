//! Property tests for the bitset structures against a `BTreeSet`
//! model: whatever operation sequence is thrown at them, a
//! [`HybridBitSet`] must behave exactly like a set of integers across
//! its sparse→dense promotion. This is the invariant the IFDS
//! tabulators' correctness rides on when fact sets switch
//! representation (the path-edge relation built on it is modelled in
//! `crates/ifds/tests/factset_props.rs`).

use flowdroid_bitset::{BitSet, HybridBitSet, SPARSE_MAX};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Element strategy: a universe small enough to collide often (the
/// interesting case) but larger than a few words.
fn elem() -> impl Strategy<Value = u32> {
    0u32..200
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A hybrid set agrees with a `BTreeSet` model on insert return
    /// values, membership, count and iteration order — including runs
    /// long enough to cross the sparse→dense promotion threshold.
    #[test]
    fn hybrid_matches_btreeset_model(elems in proptest::collection::vec(elem(), 0..40)) {
        let mut h: HybridBitSet<u32> = HybridBitSet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for e in &elems {
            prop_assert_eq!(h.insert(*e), model.insert(*e), "insert({}) novelty", e);
            prop_assert!(h.contains(*e));
        }
        prop_assert_eq!(h.count(), model.len());
        prop_assert_eq!(h.is_empty(), model.is_empty());
        // Iteration is ascending-index — i.e. exactly the model's order.
        let got: Vec<u32> = h.iter().collect();
        let want: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, want);
        // Membership agrees across the whole universe, not just inserted
        // elements.
        for probe in 0u32..200 {
            prop_assert_eq!(h.contains(probe), model.contains(&probe), "contains({})", probe);
        }
        // Density is determined by the distinct-element count.
        prop_assert_eq!(h.is_dense(), model.len() > SPARSE_MAX);
    }

    /// Insertion is idempotent: re-inserting every element reports
    /// nothing new and leaves contents untouched (the tabulator relies
    /// on `insert` novelty to decide scheduling).
    #[test]
    fn hybrid_insert_is_idempotent(elems in proptest::collection::vec(elem(), 1..32)) {
        let mut h: HybridBitSet<u32> = HybridBitSet::new();
        for e in &elems {
            h.insert(*e);
        }
        let before: Vec<u32> = h.iter().collect();
        for e in &elems {
            prop_assert!(!h.insert(*e), "re-insert({}) claimed novelty", e);
        }
        let after: Vec<u32> = h.iter().collect();
        prop_assert_eq!(before, after);
    }

    /// Sparse and dense representations of the same contents are
    /// observationally identical: a set built straight into a dense
    /// `BitSet` agrees with the hybrid set fed the same elements.
    #[test]
    fn promotion_preserves_contents(elems in proptest::collection::vec(elem(), 0..40)) {
        let mut h: HybridBitSet<u32> = HybridBitSet::new();
        let mut d: BitSet<u32> = BitSet::new();
        for e in &elems {
            prop_assert_eq!(h.insert(*e), d.insert(*e));
        }
        prop_assert_eq!(h.count(), d.count());
        let hv: Vec<u32> = h.iter().collect();
        let dv: Vec<u32> = d.iter().collect();
        prop_assert_eq!(hv, dv);
    }

    /// Union via repeated insert reaches the model union whatever the
    /// interleaving of the two input sets.
    #[test]
    fn union_matches_model(
        a in proptest::collection::vec(elem(), 0..24),
        b in proptest::collection::vec(elem(), 0..24),
    ) {
        let mut h: HybridBitSet<u32> = HybridBitSet::new();
        // Interleave: a[0], b[0], a[1], b[1], ...
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for i in 0..a.len().max(b.len()) {
            if let Some(e) = a.get(i) {
                h.insert(*e);
                model.insert(*e);
            }
            if let Some(e) = b.get(i) {
                h.insert(*e);
                model.insert(*e);
            }
        }
        let got: Vec<u32> = h.iter().collect();
        let want: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, want);
    }
}
