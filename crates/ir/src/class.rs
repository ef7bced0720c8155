//! Classes, fields, methods and cross-references between them.

use crate::body::Body;
use crate::fxhash::FxHashMap;
use crate::symbols::Symbol;
use crate::types::Type;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u32);

        impl $name {
            /// Builds an id from a raw arena index.
            pub fn from_index(i: usize) -> Self {
                Self(u32::try_from(i).expect("index overflow"))
            }

            /// Raw arena index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "#{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a [`Class`] within a [`crate::Program`].
    ClassId,
    "class"
);
id_type!(
    /// Identifies a [`Method`] within a [`crate::Program`].
    MethodId,
    "method"
);
id_type!(
    /// Identifies a [`Field`] within a [`crate::Program`].
    FieldId,
    "field"
);

/// A method subsignature: name, parameter types and return type, without
/// the declaring class. Dispatch resolution matches on subsignatures.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SubSig {
    /// Method name.
    pub name: Symbol,
    /// Parameter types in order.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
}

/// A symbolic reference to a method: the statically named class plus the
/// subsignature. Resolution to a concrete [`MethodId`] happens through the
/// class hierarchy (see the `flowdroid-callgraph` crate).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MethodRef {
    /// Statically referenced class.
    pub class: ClassId,
    /// The subsignature looked up on that class.
    pub subsig: SubSig,
}

/// A field definition.
#[derive(Clone, Debug)]
pub struct Field {
    pub(crate) id: FieldId,
    pub(crate) class: ClassId,
    pub(crate) name: Symbol,
    pub(crate) ty: Type,
    pub(crate) is_static: bool,
}

impl Field {
    /// This field's id.
    pub fn id(&self) -> FieldId {
        self.id
    }

    /// The declaring class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The field name symbol.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The declared type.
    pub fn ty(&self) -> &Type {
        &self.ty
    }

    /// Whether this is a static field.
    pub fn is_static(&self) -> bool {
        self.is_static
    }
}

/// A method definition (possibly abstract or native, i.e. body-less).
#[derive(Clone, Debug)]
pub struct Method {
    pub(crate) id: MethodId,
    pub(crate) class: ClassId,
    pub(crate) subsig: SubSig,
    pub(crate) is_static: bool,
    pub(crate) is_native: bool,
    pub(crate) is_abstract: bool,
    pub(crate) body: Option<Body>,
    pub(crate) body_pending: bool,
}

impl Method {
    /// This method's id.
    pub fn id(&self) -> MethodId {
        self.id
    }

    /// The declaring class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The method subsignature.
    pub fn subsig(&self) -> &SubSig {
        &self.subsig
    }

    /// The method name symbol.
    pub fn name(&self) -> Symbol {
        self.subsig.name
    }

    /// Whether the method is static.
    pub fn is_static(&self) -> bool {
        self.is_static
    }

    /// Whether the method is native (body-less, modeled by rules).
    pub fn is_native(&self) -> bool {
        self.is_native
    }

    /// Whether the method is abstract.
    pub fn is_abstract(&self) -> bool {
        self.is_abstract
    }

    /// The body, if the method has one *and* it is materialized. Deferred
    /// bodies (see [`crate::Program::defer_body`]) return `None` until
    /// [`crate::Program::ensure_body`] decodes them.
    pub fn body(&self) -> Option<&Body> {
        self.body.as_ref()
    }

    /// Returns `true` if the method has an analyzable body — decoded or
    /// deferred. Signature-level decisions (overrides, callback wiring,
    /// real-vs-stub call edges) key on this, so they are identical under
    /// eager and lazy loading.
    pub fn has_body(&self) -> bool {
        self.body.is_some() || self.body_pending
    }

    /// Returns `true` if the body is deferred and not yet materialized.
    pub fn body_is_pending(&self) -> bool {
        self.body_pending
    }

    /// Number of declared parameters (excluding `this`).
    pub fn param_count(&self) -> usize {
        self.subsig.params.len()
    }

    /// The local slot holding `this`, for instance methods.
    pub fn this_local(&self) -> Option<crate::stmt::Local> {
        if self.is_static {
            None
        } else {
            Some(crate::stmt::Local(0))
        }
    }

    /// The local slot holding the `i`-th declared parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param_local(&self, i: usize) -> crate::stmt::Local {
        assert!(i < self.subsig.params.len(), "parameter index out of range");
        let off = if self.is_static { 0 } else { 1 };
        crate::stmt::Local(u32::try_from(off + i).expect("overflow"))
    }
}

/// A class or interface definition.
///
/// Classes referenced but never declared are *phantom*
/// ([`Class::is_declared`] returns `false`); they participate in the
/// hierarchy as leaves directly under `java.lang.Object`.
#[derive(Clone, Debug)]
pub struct Class {
    pub(crate) id: ClassId,
    pub(crate) name: Symbol,
    pub(crate) superclass: Option<ClassId>,
    pub(crate) interfaces: Vec<ClassId>,
    pub(crate) fields: Vec<FieldId>,
    pub(crate) methods: Vec<MethodId>,
    pub(crate) method_by_subsig: FxHashMap<SubSig, MethodId>,
    pub(crate) field_by_name: FxHashMap<Symbol, FieldId>,
    pub(crate) is_interface: bool,
    pub(crate) is_abstract: bool,
    pub(crate) is_declared: bool,
}

impl Class {
    /// This class's id.
    pub fn id(&self) -> ClassId {
        self.id
    }

    /// The class name symbol (fully qualified dotted name).
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The direct superclass, if any (`java.lang.Object` has none).
    pub fn superclass(&self) -> Option<ClassId> {
        self.superclass
    }

    /// Directly implemented interfaces.
    pub fn interfaces(&self) -> &[ClassId] {
        &self.interfaces
    }

    /// Declared fields.
    pub fn fields(&self) -> &[FieldId] {
        &self.fields
    }

    /// Declared methods.
    pub fn methods(&self) -> &[MethodId] {
        &self.methods
    }

    /// Looks up a declared method by subsignature (no hierarchy walk).
    pub fn method_by_subsig(&self, subsig: &SubSig) -> Option<MethodId> {
        self.method_by_subsig.get(subsig).copied()
    }

    /// Looks up a declared field by name (no hierarchy walk).
    pub fn field_by_name(&self, name: Symbol) -> Option<FieldId> {
        self.field_by_name.get(&name).copied()
    }

    /// Whether this is an interface.
    pub fn is_interface(&self) -> bool {
        self.is_interface
    }

    /// Whether this class is abstract.
    pub fn is_abstract(&self) -> bool {
        self.is_abstract
    }

    /// Whether the class was actually declared (as opposed to phantom).
    pub fn is_declared(&self) -> bool {
        self.is_declared
    }
}
