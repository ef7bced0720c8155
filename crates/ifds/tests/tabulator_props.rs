//! Property tests for the [`Tabulator`]'s path-edge table against a
//! `BTreeMap<(StmtRef, d2), BTreeSet<d1>>` reference.
//!
//! Random `insert`/`propagate` sequences run over several methods of
//! random lengths, whose ids are spread out so that method indices the
//! tabulator does not cover sit between them. Whatever the sequence,
//! the tabulator must answer like the reference at every statement of
//! every method and for every fact: insert novelty, `has_node`,
//! `d1s_at` in ascending order, the propagation count and the edges
//! `propagate` queued. Its [`TableStats`], counted as the rows grow,
//! must equal a sweep over every row and the counts the reference
//! implies: one row per `(statement, fact)` node, dense past
//! [`SPARSE_MAX`] source facts, one word per 64 ids up to the largest.
//!
//! A second property drives the windowed rows the way walks do, with
//! `insert_in` and `fill_in` in both directions, against dense
//! reference rows that hold a set for every statement of their method:
//! fills must stop where the reference's do, and every query, count
//! and [`TableStats`] must agree, while each row's window reserves at
//! least the nodes it holds and no more than its method's statements.

use flowdroid_bitset::SPARSE_MAX;
use flowdroid_ifds::{PathEdge, TableStats, Tabulator};
use flowdroid_ir::{MethodId, StmtRef};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Reference = BTreeMap<(StmtRef, u32), BTreeSet<u32>>;

/// Facts the sequences use; queries probe one more.
const FACTS: u32 = 6;

/// The counts of one row per reference node, by the size and largest
/// id of its source facts.
fn reference_stats(reference: &Reference) -> TableStats {
    let mut stats = TableStats::default();
    for d1s in reference.values() {
        stats.rows += 1;
        if d1s.len() > SPARSE_MAX {
            stats.dense_rows += 1;
            stats.dense_words += u64::from(*d1s.last().unwrap()) / 64 + 1;
        } else {
            stats.sparse_rows += 1;
        }
    }
    stats
}

/// The `i`th method under test; every other index is left untabulated.
fn method(i: usize) -> MethodId {
    MethodId::from_index(2 * i + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tabulator_matches_reference(
        lens in proptest::collection::vec(1usize..12, 1..5),
        ops in proptest::collection::vec(
            (0usize..8, 0usize..12, 0u32..FACTS, 0u32..80, any::<bool>()),
            0..160,
        ),
    ) {
        let mut tab = Tabulator::<u32>::new(lens.iter().enumerate().map(|(i, &len)| (method(i), len)));
        let mut reference = Reference::new();
        let mut queued = Vec::new();
        for &(mi, idx, d2, d1, propagate) in &ops {
            let mi = mi % lens.len();
            let n = StmtRef::new(method(mi), idx % lens[mi]);
            let new = reference.entry((n, d2)).or_default().insert(d1);
            let got = if propagate { tab.propagate(d1, n, d2) } else { tab.insert(d1, n, d2) };
            prop_assert_eq!(got, new, "novelty of ({}, {:?}, {})", d1, n, d2);
            if propagate && new {
                queued.push(PathEdge { d1, n, d2 });
            }
        }

        let edges: usize = reference.values().map(BTreeSet::len).sum();
        prop_assert_eq!(tab.propagation_count(), edges as u64);
        prop_assert_eq!(tab.queued().cloned().collect::<Vec<_>>(), queued);
        for (mi, &len) in lens.iter().enumerate() {
            for idx in 0..len {
                let n = StmtRef::new(method(mi), idx);
                for d2 in 0..=FACTS {
                    let want = reference.get(&(n, d2));
                    prop_assert_eq!(tab.has_node(n, &d2), want.is_some(), "has_node({:?}, {})", n, d2);
                    let d1s: Vec<u32> = want.map(|s| s.iter().copied().collect()).unwrap_or_default();
                    prop_assert_eq!(tab.d1s_at(n, &d2), d1s, "d1s_at({:?}, {})", n, d2);
                }
            }
        }
        prop_assert_eq!(tab.table_stats(), tab.swept_stats());
        prop_assert_eq!(tab.table_stats(), reference_stats(&reference));
    }

    #[test]
    fn windowed_rows_match_dense_rows(
        // Past 64 statements a row's window covers part of its method.
        lens in proptest::collection::vec(1usize..160, 1..4),
        ops in proptest::collection::vec(
            (0usize..8, 0u32..FACTS, any::<bool>(), 0usize..161, 0usize..161, 0u32..80),
            0..120,
        ),
    ) {
        let mut tab = Tabulator::<u32>::new(lens.iter().enumerate().map(|(i, &len)| (method(i), len)));
        // (method, d2) → one d1 set per statement of the method.
        let mut dense: BTreeMap<(usize, u32), Vec<BTreeSet<u32>>> = BTreeMap::new();
        let mut propagations = 0u64;
        for &(mi, d2, fill, a, b, d1) in &ops {
            let mi = mi % lens.len();
            let len = lens[mi];
            let row = tab.row(method(mi), d2);
            let sets = dense.entry((mi, d2)).or_insert_with(|| vec![BTreeSet::new(); len]);
            if !fill {
                let idx = a % len;
                let new = sets[idx].insert(d1);
                prop_assert_eq!(tab.insert_in(row, idx, d1), new, "insert_in({}, {})", idx, d1);
                propagations += u64::from(new);
                continue;
            }
            // Ascending from ≤ to ≤ len, or descending to < from < len.
            let (from, to) = if a <= b { (a.min(len), b.min(len)) } else { (a.min(len - 1), b.min(len - 1)) };
            let (mut at, step): (usize, isize) = (from, if from <= to { 1 } else { -1 });
            while at != to && sets[at].is_empty() {
                sets[at].insert(d1);
                propagations += 1;
                at = at.wrapping_add_signed(step);
            }
            prop_assert_eq!(tab.fill_in(row, from, to, d1), at, "fill_in({}, {}, {})", from, to, d1);
        }

        prop_assert_eq!(tab.propagation_count(), propagations);
        let mut reference = Reference::new();
        let mut spans = 0u64;
        for (&(mi, d2), sets) in &dense {
            spans += sets.len() as u64;
            for (idx, d1s) in sets.iter().enumerate() {
                let n = StmtRef::new(method(mi), idx);
                prop_assert_eq!(tab.has_node(n, &d2), !d1s.is_empty(), "has_node({:?}, {})", n, d2);
                prop_assert_eq!(tab.d1s_at(n, &d2), d1s.iter().copied().collect::<Vec<_>>());
                if !d1s.is_empty() {
                    reference.insert((n, d2), d1s.clone());
                }
            }
        }
        prop_assert_eq!(tab.table_stats(), tab.swept_stats());
        prop_assert_eq!(tab.table_stats(), reference_stats(&reference));
        let slots = tab.row_slots();
        prop_assert!(slots >= reference.len() as u64 && slots <= spans, "{} row slots", slots);
    }
}
