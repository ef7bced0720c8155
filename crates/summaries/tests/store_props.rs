//! Property tests for the summary store: the wire format round-trips
//! arbitrary stores canonically (same value, same bytes), the store
//! contents are independent of insertion order, and *every* truncation
//! or bit-flip of a store file is rejected cleanly — a damaged cache
//! must degrade to a cold one, never decode to wrong summaries.

use flowdroid_summaries::{
    Lookup, SummaryStore, SymAp, SymBase, SymFact, SymField, SymStmt, SymSummary,
};
use proptest::prelude::*;

/// Signature pool; each signature gets a fixed body hash (see
/// [`body_hash_of`]) so repeated inserts merge instead of invalidating.
const SIGS: [&str; 4] =
    ["<A: void a()>", "<B: int b(int)>", "<C: java.lang.String c()>", "<D: void d(A,B)>"];

fn body_hash_of(sig_idx: usize) -> u64 {
    sig_idx as u64 * 31 + 7
}

fn field_strategy() -> impl Strategy<Value = SymField> {
    ("[A-Z][a-z]{0,5}", "[a-z_]{1,6}").prop_map(|(class, name)| SymField { class, name })
}

fn base_strategy() -> impl Strategy<Value = SymBase> {
    prop_oneof![
        (0u32..6).prop_map(SymBase::Local),
        field_strategy().prop_map(SymBase::Static),
    ]
}

fn ap_strategy() -> impl Strategy<Value = SymAp> {
    (base_strategy(), proptest::collection::vec(field_strategy(), 0..4), 0u32..2)
        .prop_map(|(base, fields, t)| SymAp { base, fields, truncated: t == 1 })
}

fn stmt_strategy() -> impl Strategy<Value = SymStmt> {
    ("[a-z]{1,6}", 0u32..20)
        .prop_map(|(m, idx)| SymStmt { method: format!("<X: void {m}()>"), idx })
}

fn fact_strategy() -> impl Strategy<Value = SymFact> {
    prop_oneof![
        Just(SymFact::Zero),
        (ap_strategy(), 0u32..2)
            .prop_map(|(ap, a)| SymFact::Taint { ap, active: a == 1, activation: None }),
        (ap_strategy(), stmt_strategy())
            .prop_map(|(ap, s)| SymFact::Taint { ap, active: false, activation: Some(s) }),
    ]
}

fn summary_strategy() -> impl Strategy<Value = SymSummary> {
    (0u32..30, fact_strategy()).prop_map(|(exit_idx, fact)| SymSummary { exit_idx, fact })
}

/// One insert: signature-pool index, entry fact, exit summaries.
type Item = (usize, SymFact, Vec<SymSummary>);

fn items_strategy() -> impl Strategy<Value = Vec<Item>> {
    proptest::collection::vec(
        (0usize..SIGS.len(), fact_strategy(), proptest::collection::vec(summary_strategy(), 0..3)),
        0..8,
    )
}

fn build(context_hash: u64, items: &[Item]) -> SummaryStore {
    let mut s = SummaryStore::new(context_hash);
    for (i, entry, exits) in items {
        s.insert(SIGS[*i], body_hash_of(*i), entry.clone(), exits.clone());
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity, and re-encoding the decoded
    /// store reproduces the exact same bytes (the format is canonical).
    #[test]
    fn wire_round_trips_canonically(ctx in 0u64..1000, items in items_strategy()) {
        let s = build(ctx, &items);
        let bytes = s.to_bytes();
        let back = SummaryStore::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// The store (and therefore the file bytes) does not depend on the
    /// order summaries were recorded in — required for stable bytes
    /// whatever order the solver (or concurrent jobs) recorded them.
    #[test]
    fn insertion_order_is_immaterial(ctx in 0u64..1000, items in items_strategy()) {
        let forward = build(ctx, &items);
        let mut reversed_items = items.clone();
        reversed_items.reverse();
        let reversed = build(ctx, &reversed_items);
        prop_assert_eq!(forward.to_bytes(), reversed.to_bytes());
    }

    /// Everything inserted is found again under its body hash, is
    /// reported stale under any other hash, and unknown methods miss.
    #[test]
    fn lookup_finds_what_insert_stored(items in items_strategy()) {
        let s = build(1, &items);
        for (i, entry, _) in &items {
            prop_assert!(matches!(
                s.lookup(SIGS[*i], body_hash_of(*i), entry),
                Lookup::Hit(_)
            ));
            prop_assert_eq!(s.lookup(SIGS[*i], u64::MAX, entry), Lookup::Stale);
        }
        prop_assert_eq!(s.lookup("<Z: void zzz()>", 1, &SymFact::Zero), Lookup::Miss);
    }

    /// Every proper prefix of a store file fails to decode.
    #[test]
    fn truncated_files_rejected(items in items_strategy(), cut_seed in 0usize..1_000_000) {
        let bytes = build(1, &items).to_bytes();
        let cut = cut_seed % bytes.len();
        prop_assert!(SummaryStore::from_bytes(&bytes[..cut]).is_err());
    }

    /// Flipping any single bit anywhere in a store file fails the
    /// checksum (or the header checks) — it never decodes.
    #[test]
    fn corrupted_files_rejected(
        items in items_strategy(),
        pos_seed in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let bytes = build(1, &items).to_bytes();
        let pos = pos_seed % bytes.len();
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << bit;
        prop_assert!(SummaryStore::from_bytes(&bad).is_err());
    }
}
