//! Property tests for fact/access-path interning: interning is a
//! bijection between the values seen and their ids (round-trips
//! exactly, identifies exactly equal values), and id assignment is a
//! pure function of encounter order (the determinism the corpus
//! driver's byte-identical reports rely on).

use flowdroid_core::access_path::{AccessPath, ApBase};
use flowdroid_core::intern::{intern_fields, FactId, Interner};
use flowdroid_core::taint::{Fact, Taint};
use flowdroid_ir::{FieldId, Local, MethodId, StmtRef};
use proptest::prelude::*;

fn field_strategy() -> impl Strategy<Value = FieldId> {
    (0usize..8).prop_map(FieldId::from_index)
}

fn ap_strategy() -> impl Strategy<Value = AccessPath> {
    (
        0u32..4,
        proptest::collection::vec(field_strategy(), 0..5),
    )
        .prop_map(|(l, fields)| AccessPath::new(ApBase::Local(Local(l)), fields, 5))
}

fn fact_strategy() -> impl Strategy<Value = Fact> {
    (ap_strategy(), 0u32..3, 0usize..4, 0usize..3).prop_map(|(ap, kind, m, idx)| match kind {
        0 => Fact::Zero,
        1 => Fact::T(Taint::active(ap)),
        _ => Fact::T(Taint::inactive(
            ap,
            StmtRef::new(MethodId::from_index(m), idx),
        )),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `resolve(intern(ap)) == ap`.
    #[test]
    fn ap_interning_round_trips(ap in ap_strategy()) {
        let mut i = Interner::new();
        let id = i.intern_ap(&ap);
        prop_assert_eq!(i.resolve_ap(id), &ap);
    }

    /// `intern(a) == intern(b)  ⇔  a == b` for access paths.
    #[test]
    fn ap_ids_identify_equal_paths(a in ap_strategy(), b in ap_strategy()) {
        let mut i = Interner::new();
        let ia = i.intern_ap(&a);
        let ib = i.intern_ap(&b);
        prop_assert_eq!(ia == ib, a == b);
    }

    /// `resolve(intern(f)) == f` for whole facts, under the bound the
    /// solver uses.
    #[test]
    fn fact_interning_round_trips(f in fact_strategy()) {
        let mut i = Interner::with_bound(5);
        let id = i.intern_fact(&f);
        prop_assert_eq!(i.resolve_fact(id), f);
        prop_assert_eq!(id == FactId::ZERO, f.is_zero());
    }

    /// `intern(a) == intern(b)  ⇔  a == b` for facts.
    #[test]
    fn fact_ids_identify_equal_facts(a in fact_strategy(), b in fact_strategy()) {
        let mut i = Interner::with_bound(5);
        let ia = i.intern_fact(&a);
        let ib = i.intern_fact(&b);
        prop_assert_eq!(ia == ib, a == b);
    }

    /// Interning is idempotent and never grows the arena on re-intern.
    #[test]
    fn reinterning_is_stable(facts in proptest::collection::vec(fact_strategy(), 1..16)) {
        let mut i = Interner::with_bound(5);
        let first: Vec<_> = facts.iter().map(|f| i.intern_fact(f)).collect();
        let count = (i.fact_count(), i.ap_count());
        let second: Vec<_> = facts.iter().map(|f| i.intern_fact(f)).collect();
        prop_assert_eq!(&first, &second);
        prop_assert_eq!((i.fact_count(), i.ap_count()), count);
    }

    /// Id assignment is a pure function of encounter order: two
    /// interners fed the same sequence assign identical ids.
    #[test]
    fn encounter_order_determines_ids(facts in proptest::collection::vec(fact_strategy(), 1..16)) {
        let mut a = Interner::with_bound(5);
        let mut b = Interner::with_bound(5);
        let ids_a: Vec<_> = facts.iter().map(|f| a.intern_fact(f)).collect();
        let ids_b: Vec<_> = facts.iter().map(|f| b.intern_fact(f)).collect();
        prop_assert_eq!(ids_a, ids_b);
        prop_assert_eq!((a.fact_count(), a.ap_count()), (b.fact_count(), b.ap_count()));
    }

    /// The field-sequence arena round-trips content exactly.
    #[test]
    fn field_slice_interning_round_trips(
        fields in proptest::collection::vec(field_strategy(), 0..6)
    ) {
        let interned = intern_fields(&fields);
        prop_assert_eq!(interned, &fields[..]);
    }

    /// Equal field sequences intern to the *same* arena slice (pointer
    /// identity), and distinct sequences never do — the property that
    /// makes access-path equality a pointer-plus-length compare.
    #[test]
    fn field_slice_interning_canonicalizes(
        a in proptest::collection::vec(field_strategy(), 0..6),
        b in proptest::collection::vec(field_strategy(), 0..6),
    ) {
        let ia = intern_fields(&a);
        let ib = intern_fields(&b);
        let same = ia.as_ptr() == ib.as_ptr() && ia.len() == ib.len();
        prop_assert_eq!(same, a == b);
    }

    /// Access paths built independently from equal components share an
    /// interned fields slice, so `read_remainder` can hand out borrowed
    /// subslices without allocating.
    #[test]
    fn equal_access_paths_share_arena_storage(
        l in 0u32..4,
        fields in proptest::collection::vec(field_strategy(), 0..5),
    ) {
        let a = AccessPath::new(ApBase::Local(Local(l)), fields.clone(), 5);
        let b = AccessPath::new(ApBase::Local(Local(l)), fields, 5);
        prop_assert_eq!(a, b);
        prop_assert!(a.fields().as_ptr() == b.fields().as_ptr());
    }
}
