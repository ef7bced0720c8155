//! The IR type system: Java-like primitives, reference types and arrays.

use crate::class::ClassId;
use std::fmt;

/// A type in the IR.
///
/// Reference types point at a [`ClassId`] inside the owning
/// [`crate::Program`]; array element types are boxed.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// `void`, usable only as a return type.
    Void,
    /// `boolean`
    Boolean,
    /// `byte`
    Byte,
    /// `char`
    Char,
    /// `short`
    Short,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `float`
    Float,
    /// `double`
    Double,
    /// A class or interface type.
    Ref(ClassId),
    /// An array type with the given element type.
    Array(Box<Type>),
}

impl Type {
    /// Returns `true` for primitive (non-reference, non-void) types.
    pub fn is_primitive(&self) -> bool {
        matches!(
            self,
            Type::Boolean
                | Type::Byte
                | Type::Char
                | Type::Short
                | Type::Int
                | Type::Long
                | Type::Float
                | Type::Double
        )
    }

    /// Returns `true` for class/interface and array types.
    pub fn is_reference(&self) -> bool {
        matches!(self, Type::Ref(_) | Type::Array(_))
    }

    /// Returns the class id if this is a plain reference type.
    pub fn as_class(&self) -> Option<ClassId> {
        match self {
            Type::Ref(c) => Some(*c),
            _ => None,
        }
    }

    /// Returns the element type if this is an array type.
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Array(e) => Some(e),
            _ => None,
        }
    }

    /// Wraps this type into an array type.
    pub fn array_of(self) -> Type {
        Type::Array(Box::new(self))
    }

    /// The Java keyword naming `void` or a primitive type (`None` for
    /// class and array types).
    pub fn keyword(&self) -> Option<&'static str> {
        Some(match self {
            Type::Void => "void",
            Type::Boolean => "boolean",
            Type::Byte => "byte",
            Type::Char => "char",
            Type::Short => "short",
            Type::Int => "int",
            Type::Long => "long",
            Type::Float => "float",
            Type::Double => "double",
            Type::Ref(_) | Type::Array(_) => return None,
        })
    }

    /// Number of array dimensions (0 for non-arrays).
    pub fn dimensions(&self) -> usize {
        match self {
            Type::Array(e) => 1 + e.dimensions(),
            _ => 0,
        }
    }
}

impl fmt::Display for Type {
    /// Displays primitives by their Java name; reference types print their
    /// class id (use [`crate::Program::type_name`] for resolved names).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Ref(c) => write!(f, "class#{}", c.index()),
            Type::Array(e) => write!(f, "{e}[]"),
            prim => f.write_str(prim.keyword().expect("not a reference type")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_dimensions() {
        let t = Type::Int.array_of().array_of();
        assert_eq!(t.dimensions(), 2);
        assert_eq!(t.element().unwrap().dimensions(), 1);
        assert!(t.is_reference());
        assert!(!t.is_primitive());
    }

    #[test]
    fn primitive_classification() {
        assert!(Type::Int.is_primitive());
        assert!(!Type::Void.is_primitive());
        assert!(!Type::Void.is_reference());
        assert_eq!(Type::Int.as_class(), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(Type::Boolean.to_string(), "boolean");
        assert_eq!(Type::Int.array_of().to_string(), "int[]");
    }
}
