//! Hash-consing of access paths and facts into dense `u32` ids.
//!
//! The solver's hot tables (path edges, end summaries, incoming sets,
//! predecessor links) are keyed on facts. A [`crate::taint::Fact`] owns
//! a heap-allocated field vector, so keying tables on it directly means
//! cloning and re-hashing nested structs millions of times per run.
//! The [`Interner`] maps each distinct [`AccessPath`] and [`Fact`] to a
//! `u32` id exactly once ([`ApId`], [`FactId`]); tables then key on
//! `Copy` ids, hashing a single word.
//!
//! Ids are assigned in **first-encounter order**: the same program
//! analyzed by the same (sequential) driver always produces the same id
//! assignment, which keeps downstream artifacts byte-for-byte
//! deterministic.
//!
//! Both taint engines key their tables this way: the sequential solver
//! owns an [`Interner`], the parallel engine shares a
//! [`SharedInterner`] between its workers through
//! [`SharedInternedKeys`]. Dense ids are also what lets the tables
//! store fact sets as bitset rows.

use crate::access_path::AccessPath;
use crate::taint::{Fact, Taint};
use flowdroid_ifds::ConcurrentKeyDomain;
use flowdroid_ir::{fxhash64, FieldId, FxHashMap, FxHashSet, StmtRef};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

// ================= field-sequence arena =================

/// Number of independently locked shards of the field-sequence arena
/// (power of two). Sharding keeps the arena usable from the parallel
/// taint workers without a single global lock.
const FIELD_SHARDS: usize = 16;

struct FieldArena {
    shards: Vec<Mutex<FxHashSet<&'static [FieldId]>>>,
}

fn field_arena() -> &'static FieldArena {
    static ARENA: OnceLock<FieldArena> = OnceLock::new();
    ARENA.get_or_init(|| FieldArena {
        shards: (0..FIELD_SHARDS).map(|_| Mutex::new(FxHashSet::default())).collect(),
    })
}

/// Interns a field sequence into the process-wide arena, returning a
/// stable `'static` slice. The same content always returns the same
/// slice (pointer-identical), so [`AccessPath`] values can hold
/// borrowed field chains and stay `Copy`.
///
/// Only the *first* encounter of a distinct sequence allocates (the
/// arena entry itself); every later intern of the same content is a
/// hash lookup borrowing the probe slice. The empty sequence is free.
/// Arena entries are deliberately leaked: they live for the process,
/// which is what makes the returned borrows `'static` — the set of
/// distinct bounded field sequences a run touches is small (reported as
/// `distinct_aps` in the solver stats).
pub fn intern_fields(fields: &[FieldId]) -> &'static [FieldId] {
    if fields.is_empty() {
        return &[];
    }
    let arena = field_arena();
    // Fx mixes the low bits last; take high bits for the shard index.
    let shard_idx =
        (fxhash64(&fields) as usize >> (64 - FIELD_SHARDS.trailing_zeros())) & (FIELD_SHARDS - 1);
    let mut shard = arena.shards[shard_idx].lock().unwrap();
    if let Some(&interned) = shard.get(fields) {
        return interned;
    }
    let leaked: &'static [FieldId] = Box::leak(fields.to_vec().into_boxed_slice());
    shard.insert(leaked);
    leaked
}

/// Number of distinct non-empty field sequences interned process-wide
/// (diagnostic; monotone over the process lifetime).
pub fn interned_field_seq_count() -> usize {
    field_arena().shards.iter().map(|s| s.lock().unwrap().len()).sum()
}

/// Id of an interned [`AccessPath`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ApId(u32);

impl ApId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Id of an interned [`Fact`]. Id 0 is always [`Fact::Zero`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FactId(u32);

impl FactId {
    /// The id of [`Fact::Zero`].
    pub const ZERO: FactId = FactId(0);

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Fact ids are dense indices, so the tabulators can store fact sets
/// as bitset rows (`flowdroid_bitset`) keyed by id.
impl flowdroid_bitset::Idx for FactId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(i: usize) -> Self {
        FactId(u32::try_from(i).expect("fact id overflow"))
    }
}

/// The compact, arena-internal form of a fact: the access path replaced
/// by its id. This is what the fact dedup table hashes, so interning a
/// fact whose path is already interned costs a single-word hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum FactRepr {
    Zero,
    T { ap: ApId, active: bool, activation: Option<StmtRef> },
}

/// Hash-consing arenas for access paths and facts.
///
/// The interner enforces the access-path length bound at the id
/// boundary: a fact whose path exceeds `max_ap_len` fields is
/// **widened** — collapsed onto the id of its truncated (and therefore
/// covering) `max_ap_len`-prefix. Normal fact construction already
/// truncates, so widening fires only on paths that bypass it (e.g.
/// summary-store entries recorded under a larger bound), but it is what
/// guarantees the dense fact universe stays bounded no matter where
/// facts come from.
#[derive(Debug)]
pub struct Interner {
    aps: Vec<AccessPath>,
    ap_ids: FxHashMap<AccessPath, ApId>,
    facts: Vec<FactRepr>,
    fact_ids: FxHashMap<FactRepr, FactId>,
    /// Access-path length bound applied at intern time.
    max_ap_len: usize,
    /// Intern calls that had to widen their access path.
    widened: u64,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// Creates an unbounded interner with [`Fact::Zero`] pre-interned
    /// as id 0 (paths are stored as given).
    pub fn new() -> Self {
        Self::with_bound(usize::MAX)
    }

    /// Creates an interner that widens access paths longer than
    /// `max_ap_len` fields, with [`Fact::Zero`] pre-interned as id 0.
    pub fn with_bound(max_ap_len: usize) -> Self {
        let mut i = Interner {
            aps: Vec::new(),
            ap_ids: FxHashMap::default(),
            facts: Vec::new(),
            fact_ids: FxHashMap::default(),
            max_ap_len,
            widened: 0,
        };
        let zero = i.intern_repr(FactRepr::Zero);
        debug_assert_eq!(zero, FactId::ZERO);
        i
    }

    /// Interns an access path, returning its id (assigning the next id
    /// on first encounter).
    pub fn intern_ap(&mut self, ap: &AccessPath) -> ApId {
        if let Some(&id) = self.ap_ids.get(ap) {
            return id;
        }
        let id = ApId(u32::try_from(self.aps.len()).expect("access-path arena overflow"));
        self.aps.push(*ap);
        self.ap_ids.insert(*ap, id);
        id
    }

    /// The access path behind `id`.
    pub fn resolve_ap(&self, id: ApId) -> &AccessPath {
        &self.aps[id.index()]
    }

    fn intern_repr(&mut self, repr: FactRepr) -> FactId {
        if let Some(&id) = self.fact_ids.get(&repr) {
            return id;
        }
        let id = FactId(u32::try_from(self.facts.len()).expect("fact arena overflow"));
        self.facts.push(repr);
        self.fact_ids.insert(repr, id);
        id
    }

    /// Interns a fact, returning its id. A fact whose access path
    /// exceeds the length bound maps to the id of its widened form —
    /// distinct over-long extensions of one prefix share one id.
    pub fn intern_fact(&mut self, f: &Fact) -> FactId {
        let repr = match f {
            Fact::Zero => FactRepr::Zero,
            Fact::T(t) => {
                let ap = t.ap.widened(self.max_ap_len);
                if ap != t.ap {
                    self.widened += 1;
                }
                FactRepr::T { ap: self.intern_ap(&ap), active: t.active, activation: t.activation }
            }
        };
        self.intern_repr(repr)
    }

    /// The id of `f` if (the widened form of) `f` has been interned,
    /// without interning it. This is the read-only fast path of
    /// [`SharedInterner`].
    pub fn lookup_fact(&self, f: &Fact) -> Option<FactId> {
        let repr = match f {
            Fact::Zero => FactRepr::Zero,
            Fact::T(t) => {
                let ap = t.ap.widened(self.max_ap_len);
                FactRepr::T {
                    ap: *self.ap_ids.get(&ap)?,
                    active: t.active,
                    activation: t.activation,
                }
            }
        };
        self.fact_ids.get(&repr).copied()
    }

    /// Reconstructs the fact behind `id`. Since access paths hold
    /// arena-interned field slices, this is a plain `Copy` — no
    /// allocation.
    pub fn resolve_fact(&self, id: FactId) -> Fact {
        match self.facts[id.index()] {
            FactRepr::Zero => Fact::Zero,
            FactRepr::T { ap, active, activation } => Fact::T(Taint {
                ap: *self.resolve_ap(ap),
                active,
                activation,
            }),
        }
    }

    /// Number of distinct facts interned (including `Zero`).
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Number of distinct access paths interned.
    pub fn ap_count(&self) -> usize {
        self.aps.len()
    }

    /// Number of intern calls whose access path was widened to the
    /// length bound.
    pub fn widened_count(&self) -> u64 {
        self.widened
    }
}

// ================= shared (parallel) interner =================

/// An [`Interner`] behind a read/write lock, shared by the parallel
/// taint workers.
///
/// Interning is read-mostly once the fact universe stabilizes: the
/// common case is a fact already interned, served by `lookup_fact`
/// under the read lock; only first encounters take the write lock.
/// Id *values* depend on which worker wins the first-encounter race,
/// but the *set* of interned facts is the order-independent closure of
/// flow-function outputs, so counts (and everything keyed back through
/// `resolve`) stay deterministic.
#[derive(Debug)]
pub struct SharedInterner {
    inner: RwLock<Interner>,
}

impl SharedInterner {
    /// Creates a shared interner widening paths longer than
    /// `max_ap_len` fields.
    pub fn with_bound(max_ap_len: usize) -> Self {
        SharedInterner { inner: RwLock::new(Interner::with_bound(max_ap_len)) }
    }

    /// Interns `f`, taking the write lock only on first encounter.
    pub fn intern(&self, f: &Fact) -> FactId {
        if let Some(id) = self.inner.read().unwrap().lookup_fact(f) {
            return id;
        }
        self.inner.write().unwrap().intern_fact(f)
    }

    /// Reconstructs the fact behind `id`.
    pub fn resolve(&self, id: FactId) -> Fact {
        self.inner.read().unwrap().resolve_fact(id)
    }

    /// `(distinct facts, distinct access paths)` interned so far.
    pub fn counts(&self) -> (usize, usize) {
        let i = self.inner.read().unwrap();
        (i.fact_count(), i.ap_count())
    }

    /// Number of intern calls that widened their access path.
    pub fn widened_count(&self) -> u64 {
        self.inner.read().unwrap().widened_count()
    }
}

/// Keys the concurrent tabulators on [`FactId`]s from a shared
/// interner.
///
/// Cloning shares the interner, so the forward and backward tabulators
/// of one solve agree on ids.
#[derive(Clone, Debug)]
pub struct SharedInternedKeys {
    interner: Arc<SharedInterner>,
}

impl SharedInternedKeys {
    /// Creates a domain whose interner widens paths longer than
    /// `max_ap_len` fields.
    pub fn new(max_ap_len: usize) -> Self {
        SharedInternedKeys { interner: Arc::new(SharedInterner::with_bound(max_ap_len)) }
    }

    /// `(distinct facts, distinct access paths)` interned so far.
    pub fn counts(&self) -> (usize, usize) {
        self.interner.counts()
    }

    /// Fact interns whose access path was widened to the length bound.
    pub fn widened_count(&self) -> u64 {
        self.interner.widened_count()
    }
}

impl ConcurrentKeyDomain<Fact> for SharedInternedKeys {
    type Key = FactId;

    fn key(&self, f: &Fact) -> FactId {
        self.interner.intern(f)
    }

    fn fact(&self, k: &FactId) -> Fact {
        self.interner.resolve(*k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::{FieldId, Local, MethodId};

    fn ap(l: u32, fields: &[usize]) -> AccessPath {
        let mut a = AccessPath::local(Local(l));
        for &f in fields {
            a = a.append(FieldId::from_index(f), 5);
        }
        a
    }

    #[test]
    fn ap_round_trip_and_dedup() {
        let mut i = Interner::new();
        let a = ap(0, &[1, 2]);
        let b = ap(0, &[1, 2]);
        let c = ap(0, &[2, 1]);
        let ia = i.intern_ap(&a);
        assert_eq!(i.intern_ap(&b), ia);
        assert_ne!(i.intern_ap(&c), ia);
        assert_eq!(i.resolve_ap(ia), &a);
        assert_eq!(i.ap_count(), 2);
    }

    #[test]
    fn zero_is_id_zero() {
        let mut i = Interner::new();
        assert_eq!(i.intern_fact(&Fact::Zero), FactId::ZERO);
        assert_eq!(i.resolve_fact(FactId::ZERO), Fact::Zero);
    }

    #[test]
    fn fact_round_trip_distinguishes_activation() {
        let mut i = Interner::new();
        let act = StmtRef::new(MethodId::from_index(0), 3);
        let active = Fact::T(Taint::active(ap(1, &[0])));
        let inactive = Fact::T(Taint::inactive(ap(1, &[0]), act));
        let ia = i.intern_fact(&active);
        let ii = i.intern_fact(&inactive);
        assert_ne!(ia, ii);
        assert_eq!(i.resolve_fact(ia), active);
        assert_eq!(i.resolve_fact(ii), inactive);
        // Same access path arena entry backs both facts.
        assert_eq!(i.ap_count(), 1);
    }

    #[test]
    fn first_encounter_order_is_dense() {
        let mut i = Interner::new();
        let ids: Vec<FactId> = (0..5)
            .map(|l| i.intern_fact(&Fact::T(Taint::active(ap(l, &[])))))
            .collect();
        let idx: Vec<usize> = ids.iter().map(|d| d.index()).collect();
        assert_eq!(idx, vec![1, 2, 3, 4, 5]);
    }

    /// Distinct over-long extensions of one prefix collapse onto the
    /// id of the truncated prefix.
    #[test]
    fn overlong_paths_widen_to_prefix_id() {
        use crate::access_path::ApBase;
        let mut i = Interner::with_bound(2);
        let base = ApBase::Local(Local(7));
        let fid = FieldId::from_index;
        // Build paths longer than the bound by hand (append truncates,
        // so go through raw parts like the summary store does).
        let long_a = AccessPath::from_raw_parts(base, &[fid(1), fid(2), fid(3)], false);
        let long_b = AccessPath::from_raw_parts(base, &[fid(1), fid(2), fid(9)], false);
        // The canonical widened form: the 2-prefix, marked truncated.
        let widened = AccessPath::from_raw_parts(base, &[fid(1), fid(2)], true);
        let ia = i.intern_fact(&Fact::T(Taint::active(long_a)));
        let ib = i.intern_fact(&Fact::T(Taint::active(long_b)));
        let iw = i.intern_fact(&Fact::T(Taint::active(widened)));
        assert_eq!(ia, ib);
        assert_eq!(ia, iw);
        assert_eq!(i.widened_count(), 2);
        // The widened fact resolves to the truncated prefix.
        match i.resolve_fact(ia) {
            Fact::T(t) => {
                assert_eq!(t.ap.fields(), &[fid(1), fid(2)]);
                assert!(t.ap.is_truncated());
            }
            Fact::Zero => panic!("widened fact resolved to zero"),
        }
    }

    /// `lookup_fact` agrees with `intern_fact` without mutating.
    #[test]
    fn lookup_matches_intern() {
        let mut i = Interner::with_bound(3);
        let f = Fact::T(Taint::active(ap(2, &[4])));
        assert_eq!(i.lookup_fact(&f), None);
        let id = i.intern_fact(&f);
        assert_eq!(i.lookup_fact(&f), Some(id));
        assert_eq!(i.lookup_fact(&Fact::Zero), Some(FactId::ZERO));
    }

    /// The shared interner agrees with itself across threads: every
    /// thread's id for a fact resolves back to that fact.
    #[test]
    fn shared_interner_round_trips_across_threads() {
        let s = SharedInterner::with_bound(5);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for l in 0..50u32 {
                        let f = Fact::T(Taint::active(ap(l, &[(l % 3) as usize])));
                        let id = s.intern(&f);
                        assert_eq!(s.resolve(id), f);
                    }
                });
            }
        });
        // 50 distinct facts + zero, regardless of interleaving.
        assert_eq!(s.counts().0, 51);
        assert_eq!(s.widened_count(), 0);
    }
}
