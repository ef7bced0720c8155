//! Human-readable printing of programs, classes, methods and statements.

use crate::class::{ClassId, MethodId};
use crate::program::Program;
use crate::stmt::{
    BinOp, CmpOp, Cond, Constant, InvokeExpr, InvokeKind, Operand, Place, Rvalue, Stmt, UnOp,
};
use std::fmt::Write;

/// Pretty printer resolving ids against a [`Program`].
///
/// # Example
///
/// ```
/// use flowdroid_ir::{Program, MethodBuilder, Type, ProgramPrinter};
///
/// let mut p = Program::new();
/// let c = p.declare_class("Hello", None, &[]);
/// MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void).finish();
/// let text = ProgramPrinter::new(&p).program_to_string();
/// assert!(text.contains("class Hello"));
/// ```
#[derive(Debug)]
pub struct ProgramPrinter<'p> {
    program: &'p Program,
}

impl<'p> ProgramPrinter<'p> {
    /// Creates a printer over `program`.
    pub fn new(program: &'p Program) -> Self {
        Self { program }
    }

    /// Prints every declared class.
    pub fn program_to_string(&self) -> String {
        let mut out = String::new();
        for c in self.program.classes() {
            if c.is_declared() {
                out.push_str(&self.class_to_string(c.id()));
                out.push('\n');
            }
        }
        out
    }

    /// Prints one class with its fields and method bodies.
    pub fn class_to_string(&self, id: ClassId) -> String {
        let p = self.program;
        let c = p.class(id);
        let mut out = String::new();
        let kw = if c.is_interface() { "interface" } else { "class" };
        write!(out, "{} {}", kw, p.class_name(id)).unwrap();
        if let Some(s) = c.superclass() {
            write!(out, " extends {}", p.class_name(s)).unwrap();
        }
        if !c.interfaces().is_empty() {
            let names: Vec<_> = c.interfaces().iter().map(|&i| p.class_name(i)).collect();
            write!(out, " implements {}", names.join(", ")).unwrap();
        }
        out.push_str(" {\n");
        for &f in c.fields() {
            let fd = p.field(f);
            let st = if fd.is_static() { "static " } else { "" };
            writeln!(out, "  {}field {}: {};", st, p.str(fd.name()), p.type_name(fd.ty())).unwrap();
        }
        for &m in c.methods() {
            out.push_str(&self.method_to_string(m));
        }
        out.push_str("}\n");
        out
    }

    /// Prints one method header and body.
    pub fn method_to_string(&self, id: MethodId) -> String {
        let p = self.program;
        let m = p.method(id);
        let mut out = String::new();
        let st = if m.is_static() { "static " } else { "" };
        let nat = if m.is_native() { "native " } else { "" };
        let params: Vec<_> = m.subsig().params.iter().map(|t| p.type_name(t)).collect();
        writeln!(
            out,
            "  {}{}method {}({}) -> {} {{",
            st,
            nat,
            p.str(m.name()),
            params.join(", "),
            p.type_name(&m.subsig().ret)
        )
        .unwrap();
        if let Some(body) = m.body() {
            for (i, _) in body.stmts().iter().enumerate() {
                writeln!(out, "    {:>3}: {}", i, self.stmt_to_string(id, i)).unwrap();
            }
        }
        out.push_str("  }\n");
        out
    }

    /// Prints a single statement of a method.
    ///
    /// # Panics
    ///
    /// Panics if the method has no body or `idx` is out of range.
    pub fn stmt_to_string(&self, method: MethodId, idx: usize) -> String {
        let body = self.program.method(method).body().expect("method has no body");
        self.fmt_stmt(method, body.stmt(idx))
    }

    fn local_name(&self, method: MethodId, l: crate::stmt::Local) -> String {
        let body = self.program.method(method).body();
        match body.and_then(|b| b.locals().get(l.index())) {
            Some(d) => d.name.clone(),
            None => format!("%{}", l.0),
        }
    }

    fn fmt_operand(&self, m: MethodId, o: &Operand) -> String {
        match o {
            Operand::Local(l) => self.local_name(m, *l),
            Operand::Const(c) => self.fmt_const(c),
        }
    }

    fn fmt_const(&self, c: &Constant) -> String {
        match c {
            Constant::Int(i) => i.to_string(),
            Constant::Str(s) => format!("{:?}", self.program.str(*s)),
            Constant::Null => "null".to_owned(),
            Constant::Class(s) => format!("{}.class", self.program.str(*s)),
        }
    }

    fn fmt_place(&self, m: MethodId, pl: &Place) -> String {
        let p = self.program;
        match pl {
            Place::Local(l) => self.local_name(m, *l),
            Place::InstanceField(b, f) => {
                format!("{}.{}", self.local_name(m, *b), p.str(p.field(*f).name()))
            }
            Place::StaticField(f) => {
                let fd = p.field(*f);
                format!("{}.{}", p.class_name(fd.class()), p.str(fd.name()))
            }
            Place::ArrayElem(b, i) => {
                format!("{}[{}]", self.local_name(m, *b), self.fmt_operand(m, i))
            }
        }
    }

    fn fmt_rvalue(&self, m: MethodId, r: &Rvalue) -> String {
        let p = self.program;
        match r {
            Rvalue::Read(pl) => self.fmt_place(m, pl),
            Rvalue::Const(c) => self.fmt_const(c),
            Rvalue::New(c) => format!("new {}", p.class_name(*c)),
            Rvalue::NewArray(t, n) => {
                format!("new {}[{}]", p.type_name(t), self.fmt_operand(m, n))
            }
            Rvalue::BinOp(op, a, b) => {
                format!("{} {} {}", self.fmt_operand(m, a), binop_str(*op), self.fmt_operand(m, b))
            }
            Rvalue::UnOp(UnOp::Neg, a) => format!("-{}", self.fmt_operand(m, a)),
            Rvalue::UnOp(UnOp::Len, a) => format!("len({})", self.fmt_operand(m, a)),
            Rvalue::Cast(t, a) => format!("({}) {}", p.type_name(t), self.fmt_operand(m, a)),
            Rvalue::InstanceOf(a, t) => {
                format!("{} instanceof {}", self.fmt_operand(m, a), p.type_name(t))
            }
        }
    }

    fn fmt_invoke(&self, m: MethodId, call: &InvokeExpr) -> String {
        let p = self.program;
        let kind = match call.kind {
            InvokeKind::Virtual => "virtual",
            InvokeKind::Interface => "interface",
            InvokeKind::Special => "special",
            InvokeKind::Static => "static",
        };
        let args: Vec<_> = call.args.iter().map(|a| self.fmt_operand(m, a)).collect();
        let target =
            format!("{}.{}", p.class_name(call.callee.class), p.str(call.callee.subsig.name));
        match call.base {
            Some(b) => {
                format!("{} {}.{}({})", kind, self.local_name(m, b), target, args.join(", "))
            }
            None => format!("{} {}({})", kind, target, args.join(", ")),
        }
    }

    fn fmt_stmt(&self, m: MethodId, s: &Stmt) -> String {
        match s {
            Stmt::Assign { lhs, rhs } => {
                format!("{} = {}", self.fmt_place(m, lhs), self.fmt_rvalue(m, rhs))
            }
            Stmt::Invoke { result: Some(r), call } => {
                format!("{} = {}", self.local_name(m, *r), self.fmt_invoke(m, call))
            }
            Stmt::Invoke { result: None, call } => self.fmt_invoke(m, call),
            Stmt::If { cond: Cond::Cmp(op, a, b), target } => format!(
                "if {} {} {} goto {}",
                self.fmt_operand(m, a),
                cmpop_str(*op),
                self.fmt_operand(m, b),
                target
            ),
            Stmt::If { cond: Cond::Opaque, target } => format!("if * goto {target}"),
            Stmt::Goto { target } => format!("goto {target}"),
            Stmt::Return { value: Some(v) } => format!("return {}", self.fmt_operand(m, v)),
            Stmt::Return { value: None } => "return".to_owned(),
            Stmt::Throw { value } => format!("throw {}", self.fmt_operand(m, value)),
            Stmt::Nop => "nop".to_owned(),
        }
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Cmp => "cmp",
    }
}

fn cmpop_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MethodBuilder;
    use crate::types::Type;

    #[test]
    fn prints_full_method() {
        let mut p = Program::new();
        p.declare_class("java.lang.Object", None, &[]);
        let c = p.declare_class("A", Some("java.lang.Object"), &[]);
        let f = p.declare_field(c, "data", Type::Int, false);
        let mut b = MethodBuilder::new_instance(&mut p, c, "run", vec![Type::Int], Type::Int);
        let this = b.this();
        let x = b.param(0);
        b.assign(Place::InstanceField(this, f), Rvalue::Read(Place::Local(x)));
        b.ret(Some(Operand::Local(x)));
        let m = b.finish();
        let text = ProgramPrinter::new(&p).method_to_string(m);
        assert!(text.contains("this.data = p0"), "got: {text}");
        assert!(text.contains("return p0"), "got: {text}");
        let cls = ProgramPrinter::new(&p).class_to_string(c);
        assert!(cls.contains("class A extends java.lang.Object"), "got: {cls}");
        assert!(cls.contains("field data: int;"), "got: {cls}");
    }

    #[test]
    fn prints_calls_and_branches() {
        let mut p = Program::new();
        let c = p.declare_class("B", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "go", vec![], Type::Void);
        let sty = b.program().ref_type("java.lang.String");
        let s = b.local("s", sty.clone());
        b.call_static(Some(s), "Src", "get", vec![], sty.clone(), vec![]);
        let end = b.fresh_label();
        b.if_opaque(end);
        b.call_static(None, "Snk", "put", vec![sty], Type::Void, vec![Operand::Local(s)]);
        b.bind(end);
        let m = b.finish();
        let text = ProgramPrinter::new(&p).method_to_string(m);
        assert!(text.contains("s = static Src.get()"), "got: {text}");
        assert!(text.contains("if * goto"), "got: {text}");
        assert!(text.contains("static Snk.put(s)"), "got: {text}");
    }
}
