//! Bounded access paths (paper §4.1).
//!
//! An access path `x.f.g` denotes the object reachable from local `x`
//! through fields `f` then `g`. Paths are bounded by a configurable
//! maximal length (default 5); appending beyond the bound *truncates*,
//! which over-approximates soundly because an access path implicitly
//! covers every extension of itself (`x.f` subsumes `x.f.g`, `x.f.g.h`,
//! …).
//!
//! Field sequences are **arena-interned** (see
//! [`crate::intern::intern_fields`]): every distinct `[FieldId]`
//! sequence is stored exactly once and an `AccessPath` holds a stable
//! `&'static` slice into that arena. This makes `AccessPath` (and the
//! [`crate::taint::Taint`]/[`crate::taint::Fact`] types built on it)
//! `Copy`: the solver's inner loops — [`AccessPath::read_remainder`],
//! [`AccessPath::append`], [`AccessPath::rebase`], fact resolution —
//! stop allocating per call, and copies of facts across worker threads
//! are single-word-per-field-free. Equality, hashing and ordering
//! compare slice *contents*, so behavior is independent of arena
//! addresses and therefore deterministic across runs and thread
//! counts.

use crate::intern::intern_fields;
use flowdroid_ir::{FieldId, Local, Place, Program};

/// The root of an access path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ApBase {
    /// A local variable (or parameter / `this`).
    Local(Local),
    /// A static field.
    Static(FieldId),
}

/// Stack buffer size for building short field sequences without heap
/// allocation (the default bound is 5; ablations go a little higher).
const STACK_FIELDS: usize = 16;

/// A bounded access path.
///
/// `Copy`: the field sequence is an interned `&'static` slice, not an
/// owned vector. Derived `PartialEq`/`Hash`/`Ord` compare the slice by
/// content (length + elements), never by address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AccessPath {
    base: ApBase,
    fields: &'static [FieldId],
    /// Set when fields were dropped due to the length bound; the path
    /// then stands for *everything* reachable from its prefix.
    truncated: bool,
}

impl AccessPath {
    /// A path rooted at a local with no fields.
    pub fn local(l: Local) -> AccessPath {
        AccessPath { base: ApBase::Local(l), fields: &[], truncated: false }
    }

    /// A path rooted at a static field.
    pub fn static_field(f: FieldId) -> AccessPath {
        AccessPath { base: ApBase::Static(f), fields: &[], truncated: false }
    }

    /// A path with explicit parts, truncating to `max_len` fields.
    pub fn new(base: ApBase, fields: Vec<FieldId>, max_len: usize) -> AccessPath {
        Self::make(base, &fields, &[], false, max_len)
    }

    /// Builds a path from explicit parts without applying any bound,
    /// keeping `truncated` as given (tests use it to construct
    /// over-long paths that [`AccessPath::new`] would cut).
    #[cfg(test)]
    pub(crate) fn from_raw_parts(base: ApBase, fields: &[FieldId], truncated: bool) -> AccessPath {
        AccessPath { base, fields: intern_fields(fields), truncated }
    }

    /// The access path a [`Place`] *writes to / reads from*:
    /// array elements collapse to the whole array object (paper §4.1:
    /// index-insensitive array handling).
    pub fn of_place(place: &Place) -> AccessPath {
        match place {
            Place::Local(l) => AccessPath::local(*l),
            Place::InstanceField(b, f) => AccessPath {
                base: ApBase::Local(*b),
                fields: intern_fields(&[*f]),
                truncated: false,
            },
            Place::StaticField(f) => AccessPath::static_field(*f),
            Place::ArrayElem(b, _) => AccessPath::local(*b),
        }
    }

    /// Builds `base.(a ++ b)` truncated to `max_len`, interning the
    /// resulting field sequence. Short sequences (the overwhelmingly
    /// common case) are assembled on the stack; only a first encounter
    /// of a distinct sequence allocates, inside the arena.
    fn make(
        base: ApBase,
        a: &[FieldId],
        b: &[FieldId],
        already_truncated: bool,
        max_len: usize,
    ) -> AccessPath {
        let total = a.len() + b.len();
        let take = total.min(max_len);
        let truncated = already_truncated || total > max_len;
        let fields = if take == a.len() && b.is_empty() {
            // Fast path: `a` is already an interned slice when called
            // from append/rebase on an existing path.
            intern_fields(a)
        } else if take <= STACK_FIELDS {
            let mut buf = [FieldId::from_index(0); STACK_FIELDS];
            for (slot, f) in buf.iter_mut().zip(a.iter().chain(b).take(take)) {
                *slot = *f;
            }
            intern_fields(&buf[..take])
        } else {
            let v: Vec<FieldId> = a.iter().chain(b).take(take).copied().collect();
            intern_fields(&v)
        };
        AccessPath { base, fields, truncated }
    }

    /// The root.
    pub fn base(&self) -> ApBase {
        self.base
    }

    /// The field chain (a stable slice into the field-sequence arena).
    pub fn fields(&self) -> &'static [FieldId] {
        self.fields
    }

    /// Whether fields were dropped due to the length bound.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the path is just its root.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Returns the local root, if the path is rooted at a local.
    pub fn base_local(&self) -> Option<Local> {
        match self.base {
            ApBase::Local(l) => Some(l),
            ApBase::Static(_) => None,
        }
    }

    /// The canonical widened form of the path under bound `max_len`:
    /// a field chain longer than the bound is cut to its first
    /// `max_len` fields and marked truncated, so it stands for every
    /// extension of that prefix. Paths within the bound are returned
    /// unchanged. This is how the interner collapses any over-long path
    /// into one widened id, keeping the dense fact universe bounded.
    pub fn widened(&self, max_len: usize) -> AccessPath {
        if self.fields.len() <= max_len {
            return *self;
        }
        AccessPath {
            base: self.base,
            fields: intern_fields(&self.fields[..max_len]),
            truncated: true,
        }
    }

    /// Appends `field`, truncating at `max_len`. A truncated path
    /// absorbs appends (it already covers all suffixes).
    pub fn append(&self, field: FieldId, max_len: usize) -> AccessPath {
        if self.truncated {
            return *self;
        }
        Self::make(self.base, self.fields, &[field], false, max_len)
    }

    /// The path `self.fields ++ suffix` (same base), truncated to
    /// `max_len`. A truncated path absorbs suffixes.
    pub fn with_suffix(&self, suffix: &[FieldId], max_len: usize) -> AccessPath {
        if self.truncated || suffix.is_empty() {
            return *self;
        }
        Self::make(self.base, self.fields, suffix, false, max_len)
    }

    /// Prepends `prefix_fields` after replacing the base: the path
    /// `base'.prefix ++ self.fields`, truncated to `max_len`.
    pub fn rebase(
        &self,
        new_base: ApBase,
        prefix_fields: &[FieldId],
        max_len: usize,
    ) -> AccessPath {
        Self::make(new_base, prefix_fields, self.fields, self.truncated, max_len)
    }

    /// If `self` *covers a read* of `prefix` (paper: a path denotes the
    /// whole object it reaches), returns the remainder of `self` beyond
    /// `prefix` — as a borrowed subslice of `self`'s interned field
    /// sequence, so the call never allocates:
    ///
    /// * `self = x`, `prefix = x.f` → `Some(&[])` (whole `x` tainted,
    ///   so the value read from `x.f` is tainted);
    /// * `self = x.f.g`, `prefix = x.f` → `Some(&[g])`;
    /// * `self = x.g`, `prefix = x.f` → `None`.
    pub fn read_remainder(&self, prefix: &AccessPath) -> Option<&'static [FieldId]> {
        if self.base != prefix.base {
            return None;
        }
        if self.fields.len() <= prefix.fields.len() {
            // self must be a prefix of `prefix` (whole-object coverage).
            if prefix.fields[..self.fields.len()] == self.fields[..] {
                Some(&[])
            } else {
                None
            }
        } else if self.fields[..prefix.fields.len()] == prefix.fields[..] {
            Some(&self.fields[prefix.fields.len()..])
        } else {
            None
        }
    }

    /// Returns `true` if `self` is rooted at (or below) `prefix` — i.e.
    /// writing to `prefix` *could* produce `self`, or `self` describes
    /// data inside the object at `prefix`.
    pub fn has_prefix(&self, prefix: &AccessPath) -> bool {
        self.base == prefix.base
            && self.fields.len() >= prefix.fields.len()
            && self.fields[..prefix.fields.len()] == prefix.fields[..]
    }

    /// Human-readable form, resolving names against `program` and the
    /// local names of `method`.
    pub fn display(&self, program: &Program, method: flowdroid_ir::MethodId) -> String {
        let mut s = match self.base {
            ApBase::Local(l) => {
                let body = program.method(method).body();
                match body.and_then(|b| b.locals().get(l.index())) {
                    Some(d) => d.name.clone(),
                    None => format!("%{}", l.index()),
                }
            }
            ApBase::Static(f) => {
                let fd = program.field(f);
                format!("{}.{}", program.class_name(fd.class()), program.str(fd.name()))
            }
        };
        for &f in self.fields {
            s.push('.');
            s.push_str(program.str(program.field(f).name()));
        }
        if self.truncated {
            s.push_str(".*");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: usize) -> FieldId {
        FieldId::from_index(i)
    }

    #[test]
    fn append_respects_bound() {
        let ap = AccessPath::local(Local(0));
        let mut cur = ap;
        for i in 0..7 {
            cur = cur.append(f(i), 5);
        }
        assert_eq!(cur.len(), 5);
        assert!(cur.is_truncated());
        // Truncated paths absorb further appends.
        let more = cur.append(f(9), 5);
        assert_eq!(more, cur);
    }

    #[test]
    fn read_remainder_whole_object() {
        let x = AccessPath::local(Local(1));
        let xf = x.append(f(0), 5);
        // x tainted, reading x.f → tainted with no extra fields.
        assert_eq!(x.read_remainder(&xf), Some(&[][..]));
        // x.f tainted, reading x → remainder is [f]? No: reading the
        // local x yields the whole object, of which .f is tainted.
        assert_eq!(xf.read_remainder(&x), Some(&[f(0)][..]));
    }

    #[test]
    fn read_remainder_mismatch() {
        let x = AccessPath::local(Local(1));
        let xf = x.append(f(0), 5);
        let xg = x.append(f(1), 5);
        assert_eq!(xf.read_remainder(&xg), None);
        let y = AccessPath::local(Local(2));
        assert_eq!(xf.read_remainder(&y), None);
    }

    #[test]
    fn read_remainder_deep() {
        let x = AccessPath::local(Local(1));
        let xfg = x.append(f(0), 5).append(f(1), 5);
        let xf = x.append(f(0), 5);
        assert_eq!(xfg.read_remainder(&xf), Some(&[f(1)][..]));
    }

    #[test]
    fn read_remainder_borrows_interned_slice() {
        // The remainder is a subslice of the taint's interned fields —
        // no allocation, stable address.
        let x = AccessPath::local(Local(1));
        let xfg = x.append(f(0), 5).append(f(1), 5);
        let xf = x.append(f(0), 5);
        let rem = xfg.read_remainder(&xf).unwrap();
        let whole = xfg.fields();
        assert!(std::ptr::eq(rem.as_ptr(), whole[1..].as_ptr()));
    }

    #[test]
    fn rebase_builds_combined_path() {
        let pf = AccessPath::local(Local(3)).append(f(2), 5);
        let rebased = pf.rebase(ApBase::Local(Local(7)), &[f(9)], 5);
        assert_eq!(rebased.base_local(), Some(Local(7)));
        assert_eq!(rebased.fields(), &[f(9), f(2)]);
    }

    #[test]
    fn rebase_truncates() {
        let deep = AccessPath::new(ApBase::Local(Local(0)), vec![f(0), f(1), f(2)], 5);
        let rebased = deep.rebase(ApBase::Local(Local(1)), &[f(3), f(4), f(5)], 5);
        assert_eq!(rebased.len(), 5);
        assert!(rebased.is_truncated());
    }

    #[test]
    fn with_suffix_concats_and_truncates() {
        let xf = AccessPath::local(Local(0)).append(f(0), 5);
        let ext = xf.with_suffix(&[f(1), f(2)], 5);
        assert_eq!(ext.fields(), &[f(0), f(1), f(2)]);
        let bounded = xf.with_suffix(&[f(1), f(2), f(3), f(4), f(5)], 5);
        assert_eq!(bounded.len(), 5);
        assert!(bounded.is_truncated());
    }

    #[test]
    fn has_prefix() {
        let x = AccessPath::local(Local(1));
        let xf = x.append(f(0), 5);
        assert!(xf.has_prefix(&x));
        assert!(xf.has_prefix(&xf));
        assert!(!x.has_prefix(&xf));
    }

    #[test]
    fn array_place_collapses_to_base() {
        use flowdroid_ir::{Constant, Operand};
        let p = Place::ArrayElem(Local(2), Operand::Const(Constant::Int(3)));
        assert_eq!(AccessPath::of_place(&p), AccessPath::local(Local(2)));
    }

    #[test]
    fn statics_are_distinct_roots() {
        let a = AccessPath::static_field(f(0));
        let b = AccessPath::static_field(f(1));
        assert_ne!(a, b);
        assert_eq!(a.base_local(), None);
        assert_eq!(a.read_remainder(&a), Some(&[][..]));
    }

    #[test]
    fn equal_paths_share_one_arena_slice() {
        let a = AccessPath::new(ApBase::Local(Local(0)), vec![f(3), f(4)], 5);
        let b = AccessPath::local(Local(0)).append(f(3), 5).append(f(4), 5);
        assert_eq!(a, b);
        // Content-equal sequences intern to the same slice.
        assert!(std::ptr::eq(a.fields().as_ptr(), b.fields().as_ptr()));
    }
}
