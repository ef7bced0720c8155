//! Property tests for the access-path algebra (paper §4.1): the length
//! bound is an invariant, prefix coverage is reflexive and transitive,
//! and rebasing composes with reading.

use flowdroid_core::access_path::{AccessPath, ApBase};
use flowdroid_ir::{FieldId, Local};
use proptest::prelude::*;

fn field_strategy() -> impl Strategy<Value = FieldId> {
    (0usize..8).prop_map(FieldId::from_index)
}

fn ap_strategy(max_len: usize) -> impl Strategy<Value = AccessPath> {
    (0u32..4, proptest::collection::vec(field_strategy(), 0..6))
        .prop_map(move |(l, fields)| AccessPath::new(ApBase::Local(Local(l)), fields, max_len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Appending never exceeds the bound, and the bound is sticky.
    #[test]
    fn append_respects_bound(ap in ap_strategy(5), f in field_strategy(), k in 1usize..6) {
        let bounded = AccessPath::new(ap.base(), ap.fields().to_vec(), k);
        let appended = bounded.append(f, k);
        prop_assert!(appended.len() <= k);
        // Once truncated, appends are absorbed.
        if bounded.is_truncated() {
            prop_assert_eq!(&appended, &bounded);
        }
    }

    /// Coverage is reflexive: any path covers a read of itself with an
    /// empty remainder.
    #[test]
    fn read_remainder_reflexive(ap in ap_strategy(5)) {
        prop_assert_eq!(ap.read_remainder(&ap), Some(&[][..]));
    }

    /// A taint on a prefix covers a read of every extension.
    #[test]
    fn shorter_taints_cover_deeper_reads(ap in ap_strategy(3), f in field_strategy()) {
        let deeper = ap.append(f, 10);
        // Reading `deeper` while `ap` is tainted yields the whole object.
        prop_assert_eq!(ap.read_remainder(&deeper), Some(&[][..]));
        // Reading `ap` while `deeper` is tainted yields the remainder.
        if !ap.is_truncated() {
            let rem = deeper.read_remainder(&ap);
            prop_assert_eq!(rem, Some(&deeper.fields()[ap.len()..]));
        }
    }

    /// has_prefix is consistent with read_remainder in the rooted
    /// direction.
    #[test]
    fn has_prefix_implies_remainder(a in ap_strategy(5), b in ap_strategy(5)) {
        if a.has_prefix(&b) {
            prop_assert!(a.read_remainder(&b).is_some());
        }
    }

    /// Rebase onto the same base with no prefix is the identity (up to
    /// the bound).
    #[test]
    fn rebase_identity(ap in ap_strategy(5)) {
        let re = ap.rebase(ap.base(), &[], 5);
        prop_assert_eq!(re.base(), ap.base());
        prop_assert_eq!(re.fields(), ap.fields());
    }

    /// Rebasing bounds the result.
    #[test]
    fn rebase_respects_bound(
        ap in ap_strategy(5),
        prefix in proptest::collection::vec(field_strategy(), 0..4),
        k in 1usize..6,
    ) {
        let re = ap.rebase(ApBase::Local(Local(9)), &prefix, k);
        prop_assert!(re.len() <= k);
    }

    /// Distinct bases never cover each other.
    #[test]
    fn distinct_bases_never_match(ap in ap_strategy(5), f in field_strategy()) {
        let other = AccessPath::new(ApBase::Static(f), ap.fields().to_vec(), 5);
        prop_assert!(ap.read_remainder(&other).is_none() || ap.base() == other.base());
    }
}
