//! Property tests for the tabulator's tables against `BTreeSet` models:
//! a path-edge row of [`SlotRows`] against a
//! `BTreeMap<statement, BTreeSet<d1>>`, and the incoming/summary pair set
//! ([`BitPairs`]) against a `BTreeSet<(StmtRef, u32)>`.
//!
//! Whatever insertion sequence is thrown at them, the tables must
//! answer like their models — insert novelty and contents in ascending
//! order — while each row moves from empty to sparse and on to dense
//! (a [`SlotRows`] row first holds one inline `d1`, then spills). The
//! [`TableStats`] each counts as it grows must equal a sweep over every
//! row, and both must equal the counts the model implies: one row per
//! key, dense past [`SPARSE_MAX`] members, one word per 64 ids up to the
//! row's largest.

use flowdroid_bitset::SPARSE_MAX;
use flowdroid_ifds::factset::{BitPairs, SlotRows};
use flowdroid_ifds::TableStats;
use flowdroid_ir::{MethodId, StmtRef};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Model = BTreeMap<u32, BTreeSet<u32>>;

/// The counts of one row per model key, by the size and largest id of
/// its members.
fn model_stats<'a>(rows: impl Iterator<Item = &'a BTreeSet<u32>>) -> TableStats {
    let mut stats = TableStats::default();
    for members in rows {
        stats.rows += 1;
        if members.len() > SPARSE_MAX {
            stats.dense_rows += 1;
            stats.dense_words += u64::from(*members.last().unwrap()) / 64 + 1;
        } else {
            stats.sparse_rows += 1;
        }
    }
    stats
}

/// Statements of the row under test: more than a row takes whole, so
/// the row's window grows as inserts spread over it.
const ROW_LEN: usize = 100;

/// The statement the `i`th key stands for.
fn stmt(i: u32) -> u32 {
    i * 12
}

/// Checks every query of `rel` against `model` at every statement of
/// the row, most of them never inserted into.
fn assert_matches(rel: &SlotRows<u32>, row: usize, model: &Model) {
    for idx in 0..ROW_LEN {
        let want = model.get(&(idx as u32));
        assert_eq!(rel.has_key(row, idx), want.is_some(), "has_key({idx})");
        let d1s: Vec<u32> = want.map(|s| s.iter().copied().collect()).unwrap_or_default();
        assert_eq!(rel.d1s(row, idx), d1s, "d1s({idx})");
    }
}

fn sr(i: u32) -> StmtRef {
    StmtRef::new(MethodId::from_index(i as usize % 2), i as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Eight statements and many inserts, so nodes stay inline, spill,
    /// and go dense within one case; ids past 64 widen dense sets.
    #[test]
    fn slot_rel_matches_model(pairs in proptest::collection::vec((0u32..8, 0u32..200), 0..90)) {
        let mut rel: SlotRows<u32> = SlotRows::default();
        let row = rel.push(ROW_LEN);
        let mut model = Model::new();
        let mut counted = TableStats::default();
        for &(key, d1) in &pairs {
            let idx = stmt(key);
            prop_assert_eq!(
                rel.insert(row, idx as usize, d1, &mut counted),
                model.entry(idx).or_default().insert(d1),
                "insert({}, {}) novelty", idx, d1
            );
            let mut swept = TableStats::default();
            rel.collect_stats(&mut swept);
            prop_assert_eq!(counted, swept, "counted stats after ({}, {})", idx, d1);
        }
        assert_matches(&rel, row, &model);
        prop_assert_eq!(counted, model_stats(model.values()));
    }

    /// Sites span two methods, so `to_vec` must order by the whole
    /// statement reference and then by fact id.
    #[test]
    fn bit_pairs_match_model(pairs in proptest::collection::vec((0u32..6, 0u32..200), 0..90)) {
        let mut set: BitPairs<u32> = BitPairs::default();
        let mut model: BTreeSet<(StmtRef, u32)> = BTreeSet::new();
        let mut counted = TableStats::default();
        for &(site, f) in &pairs {
            prop_assert_eq!(
                set.insert(sr(site), f, &mut counted),
                model.insert((sr(site), f)),
                "insert({}, {}) novelty", site, f
            );
            let mut swept = TableStats::default();
            set.collect_stats(&mut swept);
            prop_assert_eq!(counted, swept, "counted stats after ({}, {})", site, f);
        }
        prop_assert_eq!(set.to_vec(), model.iter().copied().collect::<Vec<_>>());
        let mut by_site: BTreeMap<StmtRef, BTreeSet<u32>> = BTreeMap::new();
        for &(site, f) in &model {
            by_site.entry(site).or_default().insert(f);
        }
        prop_assert_eq!(counted, model_stats(by_site.values()));
    }
}
