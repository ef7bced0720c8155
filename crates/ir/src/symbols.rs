//! String interning.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned string. Cheap to copy, compare and hash.
///
/// Symbols are only meaningful relative to the [`Interner`] (and thus the
/// [`crate::Program`]) that produced them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the raw index of this symbol in its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A simple append-only string interner.
///
/// An interner may be layered over a frozen base interner (see
/// [`Interner::with_base`]): symbols below `base_len` resolve in the
/// shared base, new strings append to the overlay. Symbol numbering is
/// continuous across the boundary, so symbols are indistinguishable from
/// those a flat interner built in the same order would produce.
#[derive(Default, Debug, Clone)]
pub struct Interner {
    base: Option<Arc<Interner>>,
    base_len: u32,
    strings: Vec<Box<str>>,
    /// Keyed by strings read from external apps, so it keeps std's
    /// SipHash: a weak hash here would let a crafted app flood one
    /// bucket.
    map: HashMap<Box<str>, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an overlay interner that resolves existing symbols in
    /// `base` and appends new strings locally, numbering them after the
    /// base's symbols.
    ///
    /// # Panics
    ///
    /// Panics if `base` is itself an overlay (only one layer is
    /// supported).
    pub fn with_base(base: Arc<Interner>) -> Self {
        assert!(base.base.is_none(), "interner base must be flat");
        let base_len = u32::try_from(base.strings.len()).expect("too many symbols");
        Interner { base: Some(base), base_len, strings: Vec::new(), map: HashMap::new() }
    }

    /// Interns `s`, returning the existing symbol if already present.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(base) = &self.base {
            if let Some(&sym) = base.map.get(s) {
                return sym;
            }
        }
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let raw = u64::from(self.base_len) + self.strings.len() as u64;
        let sym = Symbol(u32::try_from(raw).expect("too many symbols"));
        self.strings.push(s.into());
        self.map.insert(s.into(), sym);
        sym
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if let Some(base) = &self.base {
            if let Some(&sym) = base.map.get(s) {
                return Some(sym);
            }
        }
        self.map.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        if i < self.base_len as usize {
            return self.base.as_ref().expect("base symbol without base").resolve(sym);
        }
        &self.strings[i - self.base_len as usize]
    }

    /// Number of interned strings (base plus overlay).
    pub fn len(&self) -> usize {
        self.base_len as usize + self.strings.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes() {
        let mut i = Interner::new();
        let a = i.intern("hello");
        let b = i.intern("world");
        let c = i.intern("hello");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "hello");
        assert_eq!(i.resolve(b), "world");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_string_is_internable() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
        assert!(!i.is_empty());
    }

    #[test]
    fn overlay_continues_base_numbering() {
        let mut base = Interner::new();
        let a = base.intern("alpha");
        let b = base.intern("beta");
        let base = Arc::new(base);

        let mut over = Interner::with_base(Arc::clone(&base));
        // Base strings resolve without inserting.
        assert_eq!(over.get("alpha"), Some(a));
        assert_eq!(over.intern("alpha"), a);
        assert_eq!(over.len(), 2);
        // New strings continue the base numbering, exactly as a flat
        // interner that interned the same sequence would.
        let c = over.intern("gamma");
        assert_eq!(c.index(), 2);
        assert_eq!(over.resolve(a), "alpha");
        assert_eq!(over.resolve(b), "beta");
        assert_eq!(over.resolve(c), "gamma");
        assert_eq!(over.len(), 3);

        let mut flat = Interner::new();
        flat.intern("alpha");
        flat.intern("beta");
        assert_eq!(flat.intern("gamma"), c);
    }

    #[test]
    fn overlay_clone_is_independent_of_sibling() {
        let mut base = Interner::new();
        base.intern("shared");
        let base = Arc::new(base);
        let mut x = Interner::with_base(Arc::clone(&base));
        let mut y = Interner::with_base(base);
        let sx = x.intern("only-x");
        let sy = y.intern("only-y");
        // Both overlays assign the same numeric id to their first new
        // string — ids are per-program, never cross-program.
        assert_eq!(sx, sy);
        assert_eq!(x.resolve(sx), "only-x");
        assert_eq!(y.resolve(sy), "only-y");
    }
}
