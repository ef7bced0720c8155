//! Emitting IR back to `jasm` text (the inverse of [`crate::jasm`]).
//!
//! Useful for inspecting generated code (dummy mains, SDEX images) and
//! for program↔text round-trip testing. The emitted text re-parses to a
//! structurally identical program.

use flowdroid_ir::{
    ClassId, Cond, Constant, InvokeExpr, InvokeKind, Local, MethodId, Operand, Place, Program,
    Rvalue, Stmt, UnOp,
};
use flowdroid_ir::{FxHashMap, FxHashSet};
use std::fmt::Write;

/// Emits the given classes as a `jasm` compilation unit.
pub fn emit_jasm(program: &Program, classes: &[ClassId]) -> String {
    let mut out = String::new();
    for &c in classes {
        emit_class(program, c, &mut out);
    }
    out
}

fn emit_class(p: &Program, cid: ClassId, out: &mut String) {
    let c = p.class(cid);
    if c.is_interface() {
        write!(out, "interface {}", p.class_name(cid)).unwrap();
        let mut supers: Vec<&str> = Vec::new();
        supers.extend(c.interfaces().iter().map(|&i| p.class_name(i)));
        if !supers.is_empty() {
            write!(out, " extends {}", supers.join(", ")).unwrap();
        }
    } else {
        if c.is_abstract() {
            out.push_str("abstract ");
        }
        write!(out, "class {}", p.class_name(cid)).unwrap();
        if let Some(s) = c.superclass() {
            write!(out, " extends {}", p.class_name(s)).unwrap();
        }
        if !c.interfaces().is_empty() {
            let names: Vec<&str> = c.interfaces().iter().map(|&i| p.class_name(i)).collect();
            write!(out, " implements {}", names.join(", ")).unwrap();
        }
    }
    out.push_str(" {\n");
    for &f in c.fields() {
        let fd = p.field(f);
        let st = if fd.is_static() { "static " } else { "" };
        writeln!(out, "  {}field {}: {}", st, p.str(fd.name()), p.type_name(fd.ty())).unwrap();
    }
    for &m in c.methods() {
        emit_method(p, m, out);
    }
    out.push_str("}\n");
}

/// Local display names, deduplicated so the emitted text re-parses.
fn local_names(p: &Program, mid: MethodId) -> Vec<String> {
    let m = p.method(mid);
    let Some(body) = m.body() else { return Vec::new() };
    let mut used: FxHashSet<String> = FxHashSet::default();
    let mut names = Vec::with_capacity(body.locals().len());
    for (i, decl) in body.locals().iter().enumerate() {
        let base = sanitize(&decl.name, i);
        let mut name = base.clone();
        let mut k = 1;
        while !used.insert(name.clone()) {
            name = format!("{base}_{k}");
            k += 1;
        }
        names.push(name);
    }
    names
}

fn sanitize(name: &str, idx: usize) -> String {
    let cleaned: String = name
        .chars()
        .map(|ch| if ch.is_ascii_alphanumeric() || ch == '_' || ch == '$' { ch } else { '_' })
        .collect();
    let ok_start =
        cleaned.chars().next().is_some_and(|ch| ch.is_ascii_alphabetic() || ch == '_' || ch == '$');
    if cleaned.is_empty() || !ok_start || is_reserved(&cleaned) {
        format!("v{idx}")
    } else {
        cleaned
    }
}

fn is_reserved(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "label"
            | "goto"
            | "if"
            | "return"
            | "throw"
            | "nop"
            | "static"
            | "new"
            | "newarray"
            | "neg"
            | "lengthof"
            | "opaque"
            | "instanceof"
            | "null"
            | "cmp"
            | "class"
            | "interface"
            | "extends"
            | "implements"
            | "field"
            | "method"
            | "native"
            | "abstract"
            | "virtualinvoke"
            | "interfaceinvoke"
            | "specialinvoke"
            | "staticinvoke"
    )
}

fn emit_method(p: &Program, mid: MethodId, out: &mut String) {
    let m = p.method(mid);
    let mut mods = String::new();
    if m.is_static() {
        mods.push_str("static ");
    }
    if m.is_native() {
        mods.push_str("native ");
    }
    if m.is_abstract() && !m.is_native() && m.body().is_none() {
        mods.push_str("abstract ");
    }
    let names = local_names(p, mid);
    let params: Vec<String> = (0..m.param_count())
        .map(|i| {
            let l = m.param_local(i);
            let name = names.get(l.index()).cloned().unwrap_or_else(|| format!("p{i}"));
            format!("{}: {}", name, p.type_name(&m.subsig().params[i]))
        })
        .collect();
    let name = p.str(m.name());
    write!(
        out,
        "  {}method {}({}) -> {}",
        mods,
        name,
        params.join(", "),
        p.type_name(&m.subsig().ret)
    )
    .unwrap();
    let Some(body) = m.body() else {
        out.push('\n');
        return;
    };
    out.push_str(" {\n");
    // Non-parameter locals.
    let first_var = m.param_count() + usize::from(!m.is_static());
    for (i, decl) in body.locals().iter().enumerate().skip(first_var) {
        writeln!(out, "    let {}: {}", names[i], p.type_name(&decl.ty)).unwrap();
    }
    // Branch targets need labels.
    let mut targets: FxHashMap<usize, String> = FxHashMap::default();
    for s in body.stmts() {
        match s {
            Stmt::If { target, .. } | Stmt::Goto { target } => {
                let next = targets.len();
                targets.entry(*target).or_insert_with(|| format!("L{next}"));
            }
            _ => {}
        }
    }
    let cx = Cx { p, names: &names, targets: &targets };
    for (i, s) in body.stmts().iter().enumerate() {
        if let Some(label) = targets.get(&i) {
            writeln!(out, "  label {label}:").unwrap();
        }
        writeln!(out, "    {}", cx.stmt(s)).unwrap();
    }
    out.push_str("  }\n");
}

struct Cx<'a> {
    p: &'a Program,
    names: &'a [String],
    targets: &'a FxHashMap<usize, String>,
}

impl Cx<'_> {
    fn local(&self, l: Local) -> &str {
        &self.names[l.index()]
    }

    fn operand(&self, o: &Operand) -> String {
        match o {
            Operand::Local(l) => self.local(*l).to_owned(),
            Operand::Const(c) => self.constant(c),
        }
    }

    fn constant(&self, c: &Constant) -> String {
        match c {
            Constant::Int(v) => v.to_string(),
            Constant::Str(s) => format!("{:?}", self.p.str(*s)),
            Constant::Null => "null".to_owned(),
            // Class constants have no jasm literal; a null stands in
            // (they do not occur in parsed programs).
            Constant::Class(_) => "null".to_owned(),
        }
    }

    fn place(&self, pl: &Place) -> String {
        match pl {
            Place::Local(l) => self.local(*l).to_owned(),
            Place::InstanceField(b, f) => {
                format!("{}.{}", self.local(*b), self.p.str(self.p.field(*f).name()))
            }
            Place::StaticField(f) => {
                let fd = self.p.field(*f);
                format!("static {}.{}", self.p.class_name(fd.class()), self.p.str(fd.name()))
            }
            Place::ArrayElem(b, i) => format!("{}[{}]", self.local(*b), self.operand(i)),
        }
    }

    fn rvalue(&self, r: &Rvalue) -> String {
        match r {
            Rvalue::Read(pl) => self.place(pl),
            Rvalue::Const(c) => self.constant(c),
            Rvalue::New(c) => format!("new {}", self.p.class_name(*c)),
            Rvalue::NewArray(t, n) => {
                format!("newarray {}[{}]", self.p.type_name(t), self.operand(n))
            }
            Rvalue::BinOp(op, a, b) => {
                let sym = match op {
                    flowdroid_ir::BinOp::Add => "+",
                    flowdroid_ir::BinOp::Sub => "-",
                    flowdroid_ir::BinOp::Mul => "*",
                    flowdroid_ir::BinOp::Div => "/",
                    flowdroid_ir::BinOp::Rem => "%",
                    flowdroid_ir::BinOp::And => "&",
                    flowdroid_ir::BinOp::Or => "|",
                    flowdroid_ir::BinOp::Xor => "^",
                    flowdroid_ir::BinOp::Shl => "<<",
                    flowdroid_ir::BinOp::Shr => ">>",
                    flowdroid_ir::BinOp::Cmp => "cmp",
                };
                format!("{} {} {}", self.operand(a), sym, self.operand(b))
            }
            Rvalue::UnOp(UnOp::Neg, a) => format!("neg {}", self.operand(a)),
            Rvalue::UnOp(UnOp::Len, a) => format!("lengthof {}", self.operand(a)),
            Rvalue::Cast(t, a) => format!("({}) {}", self.p.type_name(t), self.operand(a)),
            Rvalue::InstanceOf(a, t) => {
                format!("{} instanceof {}", self.operand(a), self.p.type_name(t))
            }
        }
    }

    fn invoke(&self, call: &InvokeExpr) -> String {
        let kind = match call.kind {
            InvokeKind::Virtual => "virtualinvoke",
            InvokeKind::Interface => "interfaceinvoke",
            InvokeKind::Special => "specialinvoke",
            InvokeKind::Static => "staticinvoke",
        };
        let params: Vec<String> =
            call.callee.subsig.params.iter().map(|t| self.p.type_name(t)).collect();
        let sig = format!(
            "<{}: {} {}({})>",
            self.p.class_name(call.callee.class),
            self.p.type_name(&call.callee.subsig.ret),
            self.p.str(call.callee.subsig.name),
            params.join(",")
        );
        let args: Vec<String> = call.args.iter().map(|a| self.operand(a)).collect();
        match call.base {
            Some(b) => format!("{kind} {}.{sig}({})", self.local(b), args.join(", ")),
            None => format!("{kind} {sig}({})", args.join(", ")),
        }
    }

    fn stmt(&self, s: &Stmt) -> String {
        match s {
            Stmt::Assign { lhs, rhs } => format!("{} = {}", self.place(lhs), self.rvalue(rhs)),
            Stmt::Invoke { result: Some(r), call } => {
                format!("{} = {}", self.local(*r), self.invoke(call))
            }
            Stmt::Invoke { result: None, call } => self.invoke(call),
            Stmt::If { cond: Cond::Opaque, target } => {
                format!("if opaque goto {}", self.targets[target])
            }
            Stmt::If { cond: Cond::Cmp(op, a, b), target } => {
                let sym = match op {
                    flowdroid_ir::CmpOp::Eq => "==",
                    flowdroid_ir::CmpOp::Ne => "!=",
                    flowdroid_ir::CmpOp::Lt => "<",
                    flowdroid_ir::CmpOp::Le => "<=",
                    flowdroid_ir::CmpOp::Gt => ">",
                    flowdroid_ir::CmpOp::Ge => ">=",
                };
                format!(
                    "if {} {} {} goto {}",
                    self.operand(a),
                    sym,
                    self.operand(b),
                    self.targets[target]
                )
            }
            Stmt::Goto { target } => format!("goto {}", self.targets[target]),
            Stmt::Return { value: Some(v) } => format!("return {}", self.operand(v)),
            Stmt::Return { value: None } => "return".to_owned(),
            Stmt::Throw { value } => format!("throw {}", self.operand(value)),
            Stmt::Nop => "nop".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jasm::parse_jasm;
    use crate::layout::ResourceTable;
    use flowdroid_ir::ProgramPrinter;

    const SRC: &str = r#"
class rt.Helper extends java.lang.Object {
  static field count: int
  field next: rt.Helper
  method <init>() -> void {
    return
  }
  static method run(x: java.lang.String, n: int) -> java.lang.String {
    let acc: java.lang.String
    let i: int
    let arr: java.lang.String[]
    let h: rt.Helper
    acc = ""
    i = 0
    arr = newarray java.lang.String[2]
    arr[0] = x
    h = new rt.Helper
    specialinvoke h.<rt.Helper: void <init>()>()
    h.next = h
    static rt.Helper.count = n
  label top:
    if i >= n goto done
    acc = acc + x
    i = i + 1
    goto top
  label done:
    if opaque goto alt
    return acc
  label alt:
    acc = (java.lang.String) acc
    return acc
  }
  native method nat(y: int) -> int
}
interface rt.Face {
  method poke(v: java.lang.String) -> void
}
"#;

    #[test]
    fn emit_parse_round_trip_preserves_structure() {
        let mut p1 = Program::new();
        p1.declare_class("java.lang.Object", None, &[]);
        let rt = ResourceTable::new();
        let ids = parse_jasm(&mut p1, &rt, SRC).unwrap();
        let text = emit_jasm(&p1, &ids);

        let mut p2 = Program::new();
        p2.declare_class("java.lang.Object", None, &[]);
        let ids2 = parse_jasm(&mut p2, &rt, &text)
            .unwrap_or_else(|e| panic!("emitted text re-parses: {e}\n{text}"));
        assert_eq!(ids.len(), ids2.len());
        for (&a, &b) in ids.iter().zip(&ids2) {
            let before = ProgramPrinter::new(&p1).class_to_string(a);
            let after = ProgramPrinter::new(&p2).class_to_string(b);
            assert_eq!(before, after, "emitted:\n{text}");
        }
    }

    #[test]
    fn reserved_local_names_are_renamed() {
        assert_eq!(sanitize("let", 3), "v3");
        assert_eq!(sanitize("9lives", 0), "v0");
        assert_eq!(sanitize("x-y", 1), "x_y");
        assert_eq!(sanitize("ok", 2), "ok");
    }
}
