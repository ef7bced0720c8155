//! Statements, places, operands and expressions of the three-address IR.

use crate::body::StmtIdx;
use crate::class::{FieldId, MethodRef};
use crate::symbols::Symbol;
use crate::types::Type;
use std::fmt;

/// A local variable slot inside a method body.
///
/// Parameters occupy the first slots: for instance methods slot 0 is
/// `this`, followed by the declared parameters; for static methods the
/// parameters start at slot 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Local(pub u32);

impl Local {
    /// Raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Local {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A compile-time constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Constant {
    /// Integer-family constant (also used for boolean/char/short/byte/long).
    Int(i64),
    /// String literal, interned in the owning program.
    Str(Symbol),
    /// The `null` reference.
    Null,
    /// A class literal (`Foo.class`), by class name symbol.
    Class(Symbol),
}

impl Constant {
    /// The `null` constant.
    pub fn null() -> Constant {
        Constant::Null
    }
}

/// A simple operand: either a local read or a constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Value of a local variable.
    Local(Local),
    /// A constant.
    Const(Constant),
}

impl Operand {
    /// The local, if this operand reads one.
    pub fn as_local(&self) -> Option<Local> {
        match self {
            Operand::Local(l) => Some(*l),
            Operand::Const(_) => None,
        }
    }
}

impl From<Local> for Operand {
    fn from(l: Local) -> Self {
        Operand::Local(l)
    }
}

impl From<Constant> for Operand {
    fn from(c: Constant) -> Self {
        Operand::Const(c)
    }
}

/// A storage location that can be read from or assigned to.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Place {
    /// A local variable.
    Local(Local),
    /// An instance field `base.field`.
    InstanceField(Local, FieldId),
    /// A static field `Class.field`.
    StaticField(FieldId),
    /// An array element `base[index]`.
    ArrayElem(Local, Operand),
}

impl Place {
    /// The base local of this place, if any (locals, instance fields and
    /// array elements have one; static fields do not).
    pub fn base(&self) -> Option<Local> {
        match self {
            Place::Local(l) | Place::InstanceField(l, _) | Place::ArrayElem(l, _) => Some(*l),
            Place::StaticField(_) => None,
        }
    }

    /// Returns `true` if this place denotes a heap location (anything but
    /// a plain local).
    pub fn is_heap(&self) -> bool {
        !matches!(self, Place::Local(_))
    }
}

/// Binary arithmetic / logic operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `+` (also string concatenation at the IR level)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `cmp` (long/double comparison producing an int)
    Cmp,
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Array length.
    Len,
}

/// Comparison operators usable in conditional branches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A branch condition.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Comparison between two operands.
    Cmp(CmpOp, Operand, Operand),
    /// An opaque predicate the analysis cannot (and must not) evaluate;
    /// both branches are always considered feasible. Used by the
    /// lifecycle dummy-main generator.
    Opaque,
}

/// The kind of a method invocation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InvokeKind {
    /// Virtual dispatch on the runtime type of the receiver.
    Virtual,
    /// Interface dispatch (treated like virtual for resolution).
    Interface,
    /// Non-virtual instance call: constructors, `super` calls, privates.
    Special,
    /// Static call.
    Static,
}

/// A method invocation expression.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct InvokeExpr {
    /// Dispatch kind.
    pub kind: InvokeKind,
    /// Receiver for instance calls, `None` for static calls.
    pub base: Option<Local>,
    /// Static target reference (declared class + subsignature).
    pub callee: MethodRef,
    /// Actual arguments, in declaration order.
    pub args: Vec<Operand>,
}

/// A computed right-hand side of an assignment.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Rvalue {
    /// Read of a place: local move, field read, array read.
    Read(Place),
    /// A constant.
    Const(Constant),
    /// Allocation of a new object of the given class.
    New(crate::class::ClassId),
    /// Allocation of a new array with element type and length.
    NewArray(Type, Operand),
    /// Binary operation.
    BinOp(BinOp, Operand, Operand),
    /// Unary operation.
    UnOp(UnOp, Operand),
    /// Checked cast.
    Cast(Type, Operand),
    /// `instanceof` test producing a boolean.
    InstanceOf(Operand, Type),
}

impl Rvalue {
    /// All operands read by this rvalue (locals and constants), in order.
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            Rvalue::Read(p) => {
                let mut v = Vec::new();
                if let Some(b) = p.base() {
                    v.push(Operand::Local(b));
                }
                if let Place::ArrayElem(_, idx) = p {
                    v.push(idx.clone());
                }
                v
            }
            Rvalue::Const(c) => vec![Operand::Const(c.clone())],
            Rvalue::New(_) => vec![],
            Rvalue::NewArray(_, n) => vec![n.clone()],
            Rvalue::BinOp(_, a, b) => vec![a.clone(), b.clone()],
            Rvalue::UnOp(_, a) => vec![a.clone()],
            Rvalue::Cast(_, a) => vec![a.clone()],
            Rvalue::InstanceOf(a, _) => vec![a.clone()],
        }
    }
}

/// A three-address statement.
///
/// Control flow is expressed via statement indices ([`StmtIdx`]) inside
/// the owning [`crate::Body`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stmt {
    /// `place = rvalue`
    Assign {
        /// Assignment target.
        lhs: Place,
        /// Computed value.
        rhs: Rvalue,
    },
    /// A call, optionally binding the return value to a local.
    Invoke {
        /// Local receiving the return value, if bound.
        result: Option<Local>,
        /// The invocation.
        call: InvokeExpr,
    },
    /// `if cond goto target` — falls through to the next statement
    /// otherwise.
    If {
        /// Branch condition.
        cond: Cond,
        /// Taken-branch target.
        target: StmtIdx,
    },
    /// Unconditional jump.
    Goto {
        /// Jump target.
        target: StmtIdx,
    },
    /// Method return, with optional value.
    Return {
        /// Returned operand for non-void methods.
        value: Option<Operand>,
    },
    /// Throw an exception; treated as a method exit (coarse exceptional
    /// flow, matching the paper's over-approximation).
    Throw {
        /// The thrown reference.
        value: Operand,
    },
    /// No operation (also used as a label anchor).
    Nop,
}

impl Stmt {
    /// The invocation expression, for call statements.
    pub fn invoke_expr(&self) -> Option<&InvokeExpr> {
        match self {
            Stmt::Invoke { call, .. } => Some(call),
            _ => None,
        }
    }

    /// Returns `true` if this statement ends the method (return/throw).
    pub fn is_exit(&self) -> bool {
        matches!(self, Stmt::Return { .. } | Stmt::Throw { .. })
    }

    /// Returns `true` for call statements.
    pub fn is_call(&self) -> bool {
        matches!(self, Stmt::Invoke { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::FieldId;

    #[test]
    fn place_base_and_heapness() {
        let l = Local(3);
        assert_eq!(Place::Local(l).base(), Some(l));
        assert!(!Place::Local(l).is_heap());
        let f = FieldId::from_index(0);
        assert!(Place::InstanceField(l, f).is_heap());
        assert_eq!(Place::StaticField(f).base(), None);
        assert!(Place::StaticField(f).is_heap());
        assert!(Place::ArrayElem(l, Operand::Const(Constant::Int(0))).is_heap());
    }

    #[test]
    fn rvalue_operands() {
        let l = Local(1);
        let ops = Rvalue::BinOp(BinOp::Add, Operand::Local(l), Operand::Const(Constant::Int(2)))
            .operands();
        assert_eq!(ops.len(), 2);
        assert!(Rvalue::New(crate::class::ClassId::from_index(0)).operands().is_empty());
        let arr = Rvalue::Read(Place::ArrayElem(l, Operand::Local(Local(2))));
        assert_eq!(arr.operands().len(), 2);
    }

    #[test]
    fn stmt_classification() {
        assert!(Stmt::Return { value: None }.is_exit());
        assert!(!Stmt::Nop.is_exit());
        assert!(!Stmt::Nop.is_call());
    }
}
