//! Property tests for the bitset path-edge relation ([`SlotRel`])
//! against a `BTreeMap<d2, BTreeSet<d1>>` model.
//!
//! Whatever insertion sequence is thrown at it, the relation must
//! answer like the model — insert novelty, `contains`, `has_key`, and
//! `d1s`/`keys` in ascending order — while each row moves from empty to
//! one inline `d1`, to a spilled sparse set and on to a dense one. The
//! [`TableStats`] it counts as it grows must equal a sweep over every
//! row, and both must equal the counts the model implies: one row per
//! key, dense past [`SPARSE_MAX`] `d1`s, one word per 64 ids up to the
//! row's largest.

use flowdroid_bitset::SPARSE_MAX;
use flowdroid_ifds::factset::{FactRel, SlotRel};
use flowdroid_ifds::TableStats;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Model = BTreeMap<u32, BTreeSet<u32>>;

fn swept(rel: &SlotRel<u32>) -> TableStats {
    let mut stats = TableStats::default();
    rel.collect_stats(&mut stats);
    stats
}

/// The counts a relation holding exactly `model` must report.
fn model_stats(model: &Model) -> TableStats {
    let mut stats = TableStats::default();
    for d1s in model.values() {
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

/// Checks every query of `rel` against `model` over a probe universe
/// wider than anything inserted.
fn assert_matches(rel: &SlotRel<u32>, model: &Model) {
    let keys: Vec<u32> = model.keys().copied().collect();
    assert_eq!(FactRel::keys(rel), keys);
    for d2 in 0..12u32 {
        let want = model.get(&d2);
        assert_eq!(rel.has_key(&d2), want.is_some(), "has_key({d2})");
        let d1s: Vec<u32> = want.map(|s| s.iter().copied().collect()).unwrap_or_default();
        assert_eq!(rel.d1s(&d2), d1s, "d1s({d2})");
        for d1 in 0..260u32 {
            assert_eq!(
                rel.contains(&d2, &d1),
                want.is_some_and(|s| s.contains(&d1)),
                "contains({d2}, {d1})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Few keys and many inserts, so rows stay inline, spill, and go
    /// dense within one case; ids past 64 widen dense rows.
    #[test]
    fn slot_rel_matches_model(pairs in proptest::collection::vec((0u32..8, 0u32..200), 0..90)) {
        let mut rel: SlotRel<u32> = SlotRel::default();
        let mut model = Model::new();
        let mut counted = TableStats::default();
        for (d2, d1) in &pairs {
            prop_assert_eq!(
                rel.insert(d2, d1, &mut counted),
                model.entry(*d2).or_default().insert(*d1),
                "insert({}, {}) novelty", d2, d1
            );
            prop_assert!(rel.contains(d2, d1));
            prop_assert_eq!(counted, swept(&rel), "counted stats after ({}, {})", d2, d1);
        }
        assert_matches(&rel, &model);
        prop_assert_eq!(counted, model_stats(&model));
    }
}
