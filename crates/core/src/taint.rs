//! The taint abstraction domain.

use crate::access_path::AccessPath;
use flowdroid_ir::StmtRef;

/// A taint: an access path plus its activation state (paper §4.2).
///
/// Taints produced directly from sources are *active*. Taints produced
/// by the backward alias analysis are *inactive* and carry the heap
/// write that spawned the alias search as their **activation
/// statement**; they only report at sinks after forward propagation has
/// crossed that statement (or a call transitively containing it).
/// `Copy` (the access path holds an arena-interned field slice) and
/// `Ord` (value-based, used for canonical tie-breaking in provenance
/// and leak collection so results are independent of discovery order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Taint {
    /// The tainted access path.
    pub ap: AccessPath,
    /// Whether the taint currently counts as a leak at sinks.
    pub active: bool,
    /// The heap write whose execution activates this taint (set only
    /// for alias-derived taints).
    pub activation: Option<StmtRef>,
}

impl Taint {
    /// An active taint on `ap`.
    pub fn active(ap: AccessPath) -> Taint {
        Taint { ap, active: true, activation: None }
    }

    /// An inactive alias taint with the given activation statement.
    pub fn inactive(ap: AccessPath, activation: StmtRef) -> Taint {
        Taint { ap, active: false, activation: Some(activation) }
    }

    /// The same taint on a different access path (activation state is
    /// preserved — derived taints inherit it).
    pub fn with_ap(&self, ap: AccessPath) -> Taint {
        Taint { ap, active: self.active, activation: self.activation }
    }

    /// The activated version of this taint.
    pub fn activated(&self) -> Taint {
        Taint { ap: self.ap, active: true, activation: None }
    }
}

/// The IFDS fact: the tautological zero or a taint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Fact {
    /// The always-true fact threaded through the whole supergraph.
    Zero,
    /// A taint.
    T(Taint),
}

impl Fact {
    /// The taint, if this is not the zero fact.
    pub fn taint(&self) -> Option<&Taint> {
        match self {
            Fact::Zero => None,
            Fact::T(t) => Some(t),
        }
    }

    /// Returns `true` for the zero fact.
    pub fn is_zero(&self) -> bool {
        matches!(self, Fact::Zero)
    }
}

impl From<Taint> for Fact {
    fn from(t: Taint) -> Fact {
        Fact::T(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::{Local, MethodId};

    #[test]
    fn activation_lifecycle() {
        let ap = AccessPath::local(Local(0));
        let act = StmtRef::new(MethodId::from_index(0), 3);
        let t = Taint::inactive(ap, act);
        assert!(!t.active);
        let a = t.activated();
        assert!(a.active);
        assert_eq!(a.activation, None);
        assert_ne!(Fact::T(t), Fact::T(a));
    }

    #[test]
    fn with_ap_preserves_state() {
        let ap = AccessPath::local(Local(0));
        let ap2 = AccessPath::local(Local(1));
        let act = StmtRef::new(MethodId::from_index(0), 3);
        let t = Taint::inactive(ap, act).with_ap(ap2);
        assert_eq!(t.ap, ap2);
        assert!(!t.active);
        assert_eq!(t.activation, Some(act));
    }

    #[test]
    fn zero_fact() {
        assert!(Fact::Zero.is_zero());
        assert!(Fact::Zero.taint().is_none());
        let t = Taint::active(AccessPath::local(Local(0)));
        assert!(Fact::from(t).taint().is_some());
    }
}
