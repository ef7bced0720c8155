//! SDEX: a compact binary class format (the dex-parsing substitute).
//!
//! The original FlowDroid converts Dalvik bytecode to Jimple with
//! Dexpler. We cannot redistribute real dex files, so apps can instead
//! ship their classes in SDEX: a binary serialization of the IR with a
//! string pool, descriptor-encoded types and opcode-encoded statement
//! streams. The encoder and decoder are independent implementations
//! (the decoder never trusts offsets blindly and validates as it reads),
//! and round-trip equality is property-tested.
//!
//! Layout (all multi-byte integers are unsigned LEB128 unless noted):
//!
//! ```text
//! magic  "SDEX"            4 bytes
//! version u16 little-endian
//! string pool: count, then per string: byte length + UTF-8 bytes
//! class count, then per class:
//!   name(str idx)  flags(u8: 1=interface 2=abstract)
//!   super: 0 or 1 + str idx
//!   interface count + str idxs
//!   field count, per field: name idx, type descriptor idx, flags(1=static)
//!   method count, per method:
//!     name idx, ret descriptor idx, param count + descriptor idxs,
//!     flags(1=static 2=native 4=abstract)
//!     body: 0 or 1 + locals (count, per local: name idx, descriptor idx)
//!       + stmts (count, per stmt: line, opcode, operands)
//! ```
//!
//! Type descriptors use JVM syntax: `I J Z B C S F D V`, `Lcom.foo;`
//! (dots kept, not slashes) and `[` prefixes for arrays.
//!
//! Strings are pooled in first-use order. The encoder pools each string
//! the program holds by reference and memoizes each distinct type's
//! descriptor index, so it allocates only its output, its tables and
//! one descriptor per distinct reference or array type.
//!
//! The decoder validates the pool once (bounds and UTF-8) and keeps it
//! as byte ranges into the image. Each pool index resolves to a
//! [`Symbol`], class or [`Type`] of the program at its first use and is
//! memoized for the image, so decoding a body allocates only what the
//! IR owns: local names and statement and argument vectors. The memo
//! is valid for the one program the image is decoded into. Counts are
//! bounded by the bytes left before anything is allocated for them,
//! and lengths are added with overflow checks, so a corrupt image is
//! an error, never a panic or an abort.

use flowdroid_ir::{
    BinOp, Body, BodySource, ClassId, CmpOp, Cond, Constant, FxHashMap, InvokeExpr, InvokeKind,
    Local, MethodRef, Operand, Place, Program, Rvalue, Stmt, SubSig, Symbol, Type, UnOp,
};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Current format version.
pub const VERSION: u16 = 1;

const MAGIC: &[u8; 4] = b"SDEX";

/// A decode error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdexError {
    /// Description.
    pub message: String,
    /// Byte offset where decoding failed.
    pub offset: usize,
}

impl fmt::Display for SdexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sdex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SdexError {}

// ===================== Encoding =====================

/// Builds the string pool while the class section is written. Every
/// string the program holds is pooled by its borrowed `&str`, and each
/// distinct type's descriptor index is memoized, so the only strings
/// the encoder allocates are the descriptors of reference and array
/// types, once per distinct type.
struct Encoder<'p> {
    program: &'p Program,
    /// The pool so far: per string, its byte length and UTF-8 bytes.
    pool: Vec<u8>,
    /// Number of strings in `pool`.
    count: u64,
    /// Pool index of each borrowed string.
    strings: FxHashMap<&'p str, u64>,
    /// Pool index of each descriptor formatted for a reference or array
    /// type, so a borrowed string equal to one shares its index.
    formatted: FxHashMap<Box<str>, u64>,
    /// Pool index of each type's descriptor.
    types: FxHashMap<&'p Type, u64>,
}

impl<'p> Encoder<'p> {
    fn push(&mut self, s: &str) -> u64 {
        write_uleb(&mut self.pool, s.len() as u64);
        self.pool.extend_from_slice(s.as_bytes());
        self.count += 1;
        self.count - 1
    }

    fn string(&mut self, s: &'p str) -> u64 {
        if let Some(&i) = self.strings.get(s) {
            return i;
        }
        let i = match self.formatted.get(s) {
            Some(&i) => i,
            None => self.push(s),
        };
        self.strings.insert(s, i);
        i
    }

    fn type_desc(&mut self, t: &'p Type) -> u64 {
        if let Some(&i) = self.types.get(t) {
            return i;
        }
        let i = match primitive_descriptor(t) {
            Some(d) => self.string(d),
            None => {
                let mut d = String::new();
                push_descriptor(self.program, t, &mut d);
                match self.strings.get(d.as_str()) {
                    Some(&i) => i,
                    None => {
                        let i = self.push(&d);
                        self.formatted.insert(d.into_boxed_str(), i);
                        i
                    }
                }
            }
        };
        self.types.insert(t, i);
        i
    }

    fn class_name(&mut self, c: ClassId) -> u64 {
        self.string(self.program.class_name(c))
    }

    fn symbol(&mut self, s: Symbol) -> u64 {
        self.string(self.program.str(s))
    }
}

/// Renders a type as a JVM-style descriptor string (`I`, `Lcom.foo;`,
/// `[J`, …). Exposed for other binary codecs (e.g. the platform
/// snapshot) that reuse SDEX's descriptor convention.
pub fn type_descriptor(p: &Program, t: &Type) -> String {
    let mut d = String::new();
    push_descriptor(p, t, &mut d);
    d
}

/// Parses a JVM-style descriptor back into a [`Type`], creating phantom
/// classes for referenced names as needed. Returns `None` on bad syntax.
pub fn parse_type_descriptor(program: &mut Program, d: &str) -> Option<Type> {
    parse_descriptor(program, d)
}

/// The one-letter descriptor of `void` or a primitive type.
fn primitive_descriptor(t: &Type) -> Option<&'static str> {
    Some(match t {
        Type::Void => "V",
        Type::Boolean => "Z",
        Type::Byte => "B",
        Type::Char => "C",
        Type::Short => "S",
        Type::Int => "I",
        Type::Long => "J",
        Type::Float => "F",
        Type::Double => "D",
        Type::Ref(_) | Type::Array(_) => return None,
    })
}

fn push_descriptor(p: &Program, t: &Type, out: &mut String) {
    match t {
        Type::Ref(c) => {
            out.push('L');
            out.push_str(p.class_name(*c));
            out.push(';');
        }
        Type::Array(e) => {
            out.push('[');
            push_descriptor(p, e, out);
        }
        prim => out.push_str(primitive_descriptor(prim).expect("not a reference type")),
    }
}

fn write_uleb(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn write_ileb(out: &mut Vec<u8>, v: i64) {
    // Zig-zag encoding.
    write_uleb(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Encodes the given classes of `program` into SDEX bytes.
///
/// # Panics
///
/// Panics if a class id is out of range for the program.
pub fn encode(program: &Program, classes: &[ClassId]) -> Vec<u8> {
    let mut enc = Encoder {
        program,
        pool: Vec::new(),
        count: 0,
        strings: FxHashMap::default(),
        formatted: FxHashMap::default(),
        types: FxHashMap::default(),
    };
    let mut body = Vec::new();
    write_uleb(&mut body, classes.len() as u64);
    for &cid in classes {
        encode_class(&mut enc, &mut body, cid);
    }

    // Magic, version, then the pool count's LEB128: at most 10 bytes.
    let header = MAGIC.len() + 2 + 10;
    let mut out = Vec::with_capacity(header + enc.pool.len() + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    write_uleb(&mut out, enc.count);
    out.extend_from_slice(&enc.pool);
    out.extend_from_slice(&body);
    out
}

fn encode_class<'p>(enc: &mut Encoder<'p>, out: &mut Vec<u8>, cid: ClassId) {
    let p = enc.program;
    let c = p.class(cid);
    let name = enc.class_name(cid);
    write_uleb(out, name);
    let mut flags = 0u8;
    if c.is_interface() {
        flags |= 1;
    }
    if c.is_abstract() {
        flags |= 2;
    }
    out.push(flags);
    match c.superclass() {
        Some(s) => {
            out.push(1);
            let n = enc.class_name(s);
            write_uleb(out, n);
        }
        None => out.push(0),
    }
    write_uleb(out, c.interfaces().len() as u64);
    for &i in c.interfaces() {
        let n = enc.class_name(i);
        write_uleb(out, n);
    }
    write_uleb(out, c.fields().len() as u64);
    for &f in c.fields() {
        let fd = p.field(f);
        let n = enc.symbol(fd.name());
        write_uleb(out, n);
        let t = enc.type_desc(fd.ty());
        write_uleb(out, t);
        out.push(u8::from(fd.is_static()));
    }
    write_uleb(out, c.methods().len() as u64);
    for &m in c.methods() {
        encode_method(enc, out, m);
    }
}

fn encode_method<'p>(enc: &mut Encoder<'p>, out: &mut Vec<u8>, mid: flowdroid_ir::MethodId) {
    let p = enc.program;
    let m = p.method(mid);
    let n = enc.symbol(m.name());
    write_uleb(out, n);
    let r = enc.type_desc(&m.subsig().ret);
    write_uleb(out, r);
    write_uleb(out, m.subsig().params.len() as u64);
    for t in &m.subsig().params {
        let d = enc.type_desc(t);
        write_uleb(out, d);
    }
    let mut flags = 0u8;
    if m.is_static() {
        flags |= 1;
    }
    if m.is_native() {
        flags |= 2;
    }
    if m.is_abstract() {
        flags |= 4;
    }
    out.push(flags);
    match m.body() {
        None => out.push(0),
        Some(body) => {
            out.push(1);
            write_uleb(out, body.locals().len() as u64);
            for l in body.locals() {
                let n = enc.string(&l.name);
                write_uleb(out, n);
                let d = enc.type_desc(&l.ty);
                write_uleb(out, d);
            }
            write_uleb(out, body.stmts().len() as u64);
            for (i, s) in body.stmts().iter().enumerate() {
                write_uleb(out, u64::from(body.line(i)));
                encode_stmt(enc, out, s);
            }
        }
    }
}

// Statement opcodes.
const OP_NOP: u8 = 0;
const OP_ASSIGN: u8 = 1;
const OP_INVOKE: u8 = 2;
const OP_IF: u8 = 3;
const OP_GOTO: u8 = 4;
const OP_RETURN: u8 = 5;
const OP_THROW: u8 = 6;

// Place tags.
const PL_LOCAL: u8 = 0;
const PL_IFIELD: u8 = 1;
const PL_SFIELD: u8 = 2;
const PL_ARRAY: u8 = 3;

// Operand tags.
const OPR_LOCAL: u8 = 0;
const OPR_INT: u8 = 1;
const OPR_STR: u8 = 2;
const OPR_NULL: u8 = 3;
const OPR_CLASS: u8 = 4;

// Rvalue tags.
const RV_READ: u8 = 0;
const RV_CONST: u8 = 1;
const RV_NEW: u8 = 2;
const RV_NEWARRAY: u8 = 3;
const RV_BINOP: u8 = 4;
const RV_UNOP: u8 = 5;
const RV_CAST: u8 = 6;
const RV_INSTANCEOF: u8 = 7;

fn encode_operand<'p>(enc: &mut Encoder<'p>, out: &mut Vec<u8>, o: &'p Operand) {
    match o {
        Operand::Local(l) => {
            out.push(OPR_LOCAL);
            write_uleb(out, u64::from(l.0));
        }
        Operand::Const(c) => encode_const(enc, out, c),
    }
}

fn encode_const(enc: &mut Encoder<'_>, out: &mut Vec<u8>, c: &Constant) {
    match c {
        Constant::Int(v) => {
            out.push(OPR_INT);
            write_ileb(out, *v);
        }
        Constant::Str(s) => {
            out.push(OPR_STR);
            let i = enc.symbol(*s);
            write_uleb(out, i);
        }
        Constant::Null => out.push(OPR_NULL),
        Constant::Class(s) => {
            out.push(OPR_CLASS);
            let i = enc.symbol(*s);
            write_uleb(out, i);
        }
    }
}

fn encode_place<'p>(enc: &mut Encoder<'p>, out: &mut Vec<u8>, pl: &'p Place) {
    let p = enc.program;
    match pl {
        Place::Local(l) => {
            out.push(PL_LOCAL);
            write_uleb(out, u64::from(l.0));
        }
        Place::InstanceField(b, f) => {
            out.push(PL_IFIELD);
            write_uleb(out, u64::from(b.0));
            let fd = p.field(*f);
            let cn = enc.class_name(fd.class());
            write_uleb(out, cn);
            let fname = enc.symbol(fd.name());
            write_uleb(out, fname);
            let ft = enc.type_desc(fd.ty());
            write_uleb(out, ft);
        }
        Place::StaticField(f) => {
            out.push(PL_SFIELD);
            let fd = p.field(*f);
            let cn = enc.class_name(fd.class());
            write_uleb(out, cn);
            let fname = enc.symbol(fd.name());
            write_uleb(out, fname);
            let ft = enc.type_desc(fd.ty());
            write_uleb(out, ft);
        }
        Place::ArrayElem(b, idx) => {
            out.push(PL_ARRAY);
            write_uleb(out, u64::from(b.0));
            encode_operand(enc, out, idx);
        }
    }
}

fn encode_stmt<'p>(enc: &mut Encoder<'p>, out: &mut Vec<u8>, s: &'p Stmt) {
    match s {
        Stmt::Nop => out.push(OP_NOP),
        Stmt::Assign { lhs, rhs } => {
            out.push(OP_ASSIGN);
            encode_place(enc, out, lhs);
            match rhs {
                Rvalue::Read(p) => {
                    out.push(RV_READ);
                    encode_place(enc, out, p);
                }
                Rvalue::Const(c) => {
                    out.push(RV_CONST);
                    encode_const(enc, out, c);
                }
                Rvalue::New(c) => {
                    out.push(RV_NEW);
                    let n = enc.class_name(*c);
                    write_uleb(out, n);
                }
                Rvalue::NewArray(t, n) => {
                    out.push(RV_NEWARRAY);
                    let d = enc.type_desc(t);
                    write_uleb(out, d);
                    encode_operand(enc, out, n);
                }
                Rvalue::BinOp(op, a, b) => {
                    out.push(RV_BINOP);
                    out.push(binop_code(*op));
                    encode_operand(enc, out, a);
                    encode_operand(enc, out, b);
                }
                Rvalue::UnOp(op, a) => {
                    out.push(RV_UNOP);
                    out.push(match op {
                        UnOp::Neg => 0,
                        UnOp::Len => 1,
                    });
                    encode_operand(enc, out, a);
                }
                Rvalue::Cast(t, a) => {
                    out.push(RV_CAST);
                    let d = enc.type_desc(t);
                    write_uleb(out, d);
                    encode_operand(enc, out, a);
                }
                Rvalue::InstanceOf(a, t) => {
                    out.push(RV_INSTANCEOF);
                    let d = enc.type_desc(t);
                    write_uleb(out, d);
                    encode_operand(enc, out, a);
                }
            }
        }
        Stmt::Invoke { result, call } => {
            out.push(OP_INVOKE);
            match result {
                Some(r) => {
                    out.push(1);
                    write_uleb(out, u64::from(r.0));
                }
                None => out.push(0),
            }
            out.push(match call.kind {
                InvokeKind::Virtual => 0,
                InvokeKind::Interface => 1,
                InvokeKind::Special => 2,
                InvokeKind::Static => 3,
            });
            match call.base {
                Some(b) => {
                    out.push(1);
                    write_uleb(out, u64::from(b.0));
                }
                None => out.push(0),
            }
            let cn = enc.class_name(call.callee.class);
            write_uleb(out, cn);
            let mn = enc.symbol(call.callee.subsig.name);
            write_uleb(out, mn);
            let rd = enc.type_desc(&call.callee.subsig.ret);
            write_uleb(out, rd);
            write_uleb(out, call.callee.subsig.params.len() as u64);
            for t in &call.callee.subsig.params {
                let d = enc.type_desc(t);
                write_uleb(out, d);
            }
            write_uleb(out, call.args.len() as u64);
            for a in &call.args {
                encode_operand(enc, out, a);
            }
        }
        Stmt::If { cond, target } => {
            out.push(OP_IF);
            match cond {
                Cond::Opaque => out.push(0),
                Cond::Cmp(op, a, b) => {
                    out.push(1 + cmpop_code(*op));
                    encode_operand(enc, out, a);
                    encode_operand(enc, out, b);
                }
            }
            write_uleb(out, *target as u64);
        }
        Stmt::Goto { target } => {
            out.push(OP_GOTO);
            write_uleb(out, *target as u64);
        }
        Stmt::Return { value } => {
            out.push(OP_RETURN);
            match value {
                Some(v) => {
                    out.push(1);
                    encode_operand(enc, out, v);
                }
                None => out.push(0),
            }
        }
        Stmt::Throw { value } => {
            out.push(OP_THROW);
            encode_operand(enc, out, value);
        }
    }
}

fn binop_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Cmp => 10,
    }
}

fn cmpop_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

// ===================== Decoding =====================

/// An image's string pool: each string's byte range in the image,
/// validated as UTF-8 once by [`read_header`], and a memo of what each
/// index has resolved to in the program the image is decoded into.
///
/// The memo fills on first use. A first use mints exactly what it
/// minted when every use resolved its string afresh (a later use only
/// looked the same entity up again), so classes and symbols are still
/// created in the order the decoder first meets them. The memo is only
/// valid for that one program.
struct Pool {
    ranges: Box<[Range<usize>]>,
    symbols: Box<[OnceLock<Symbol>]>,
    classes: Box<[OnceLock<ClassId>]>,
    types: Box<[OnceLock<Type>]>,
}

struct Decoder<'b, 's, 'p> {
    bytes: &'b [u8],
    pos: usize,
    pool: &'s Pool,
    program: &'p mut Program,
}

impl<'b> Decoder<'b, '_, '_> {
    fn err(&self, msg: impl Into<String>) -> SdexError {
        SdexError { message: msg.into(), offset: self.pos }
    }

    fn u8(&mut self) -> Result<u8, SdexError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn uleb(&mut self) -> Result<u64, SdexError> {
        read_uleb_raw(self.bytes, &mut self.pos)
    }

    fn ileb(&mut self) -> Result<i64, SdexError> {
        let v = self.uleb()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads an element count. Every element takes at least one byte,
    /// so a count past the bytes left is corrupt and is rejected before
    /// anything is allocated for it.
    fn count(&mut self) -> Result<usize, SdexError> {
        let n = self.uleb()?;
        let left = self.bytes.len() - self.pos;
        match usize::try_from(n) {
            Ok(n) if n <= left => Ok(n),
            _ => Err(self.err(format!("count {n} exceeds the {left} bytes left"))),
        }
    }

    /// Reads a string-pool index.
    fn pool_index(&mut self) -> Result<usize, SdexError> {
        let i = self.uleb()?;
        match usize::try_from(i) {
            Ok(i) if i < self.pool.ranges.len() => Ok(i),
            _ => Err(self.err(format!("string index {i} out of range"))),
        }
    }

    /// The pool string at index `i`.
    fn pool_str(&self, i: usize) -> &'b str {
        std::str::from_utf8(&self.bytes[self.pool.ranges[i].clone()])
            .expect("read_header validated the pool")
    }

    /// Reads a string-pool index and returns the borrowed string.
    fn str_ref(&mut self) -> Result<&'b str, SdexError> {
        let i = self.pool_index()?;
        Ok(self.pool_str(i))
    }

    /// The pool string at `i` as a symbol of the program.
    fn symbol_at(&mut self, i: usize) -> Symbol {
        let s = self.pool_str(i);
        *self.pool.symbols[i].get_or_init(|| self.program.intern(s))
    }

    fn symbol(&mut self) -> Result<Symbol, SdexError> {
        let i = self.pool_index()?;
        Ok(self.symbol_at(i))
    }

    /// The class named by the pool string at `i` (a phantom when it is
    /// not declared).
    fn class_at(&mut self, i: usize) -> ClassId {
        let s = self.pool_str(i);
        *self.pool.classes[i].get_or_init(|| self.program.class_id(s))
    }

    fn class(&mut self) -> Result<ClassId, SdexError> {
        let i = self.pool_index()?;
        Ok(self.class_at(i))
    }

    /// The type the descriptor at pool index `i` denotes.
    fn type_at(&mut self, i: usize) -> Result<Type, SdexError> {
        if let Some(t) = self.pool.types[i].get() {
            return Ok(t.clone());
        }
        let d = self.pool_str(i);
        let t = parse_descriptor(self.program, d)
            .ok_or_else(|| self.err(format!("bad descriptor `{d}`")))?;
        Ok(self.pool.types[i].get_or_init(|| t).clone())
    }

    fn type_desc(&mut self) -> Result<Type, SdexError> {
        let i = self.pool_index()?;
        self.type_at(i)
    }

    fn local(&mut self) -> Result<Local, SdexError> {
        let v = self.uleb()?;
        Ok(Local(u32::try_from(v).map_err(|_| self.err("local index overflow"))?))
    }

    fn operand(&mut self) -> Result<Operand, SdexError> {
        let tag = self.u8()?;
        Ok(match tag {
            OPR_LOCAL => Operand::Local(self.local()?),
            OPR_INT => Operand::Const(Constant::Int(self.ileb()?)),
            OPR_STR => Operand::Const(Constant::Str(self.symbol()?)),
            OPR_NULL => Operand::Const(Constant::Null),
            OPR_CLASS => Operand::Const(Constant::Class(self.symbol()?)),
            t => return Err(self.err(format!("bad operand tag {t}"))),
        })
    }

    /// Resolves (declaring when missing, e.g. for forward references or
    /// phantom classes) a field.
    fn field_ref(&mut self, is_static: bool) -> Result<flowdroid_ir::FieldId, SdexError> {
        let class = self.pool_index()?;
        let fname = self.pool_index()?;
        let fty = self.type_desc()?;
        let cid = self.class_at(class);
        let sym = self.symbol_at(fname);
        if let Some(f) = self.program.resolve_field(cid, sym) {
            Ok(f)
        } else {
            let fname = self.pool_str(fname);
            Ok(self.program.declare_field(cid, fname, fty, is_static))
        }
    }

    fn place(&mut self) -> Result<Place, SdexError> {
        let tag = self.u8()?;
        Ok(match tag {
            PL_LOCAL => Place::Local(self.local()?),
            PL_IFIELD => {
                let b = self.local()?;
                let f = self.field_ref(false)?;
                Place::InstanceField(b, f)
            }
            PL_SFIELD => {
                let f = self.field_ref(true)?;
                Place::StaticField(f)
            }
            PL_ARRAY => {
                let b = self.local()?;
                let idx = self.operand()?;
                Place::ArrayElem(b, idx)
            }
            t => return Err(self.err(format!("bad place tag {t}"))),
        })
    }
}

/// Checks descriptor syntax without touching a program (used by the
/// body validators, where creating phantom classes would be premature).
/// Mirrors [`parse_descriptor`] exactly.
fn descriptor_syntax_ok(d: &[u8]) -> bool {
    match d.first() {
        Some(b'V' | b'Z' | b'B' | b'C' | b'S' | b'I' | b'J' | b'F' | b'D') => d.len() == 1,
        Some(b'L') => d.ends_with(b";"),
        Some(b'[') => descriptor_syntax_ok(&d[1..]),
        _ => false,
    }
}

fn parse_descriptor(program: &mut Program, d: &str) -> Option<Type> {
    let b = d.as_bytes();
    match b.first()? {
        b'V' if d.len() == 1 => Some(Type::Void),
        b'Z' if d.len() == 1 => Some(Type::Boolean),
        b'B' if d.len() == 1 => Some(Type::Byte),
        b'C' if d.len() == 1 => Some(Type::Char),
        b'S' if d.len() == 1 => Some(Type::Short),
        b'I' if d.len() == 1 => Some(Type::Int),
        b'J' if d.len() == 1 => Some(Type::Long),
        b'F' if d.len() == 1 => Some(Type::Float),
        b'D' if d.len() == 1 => Some(Type::Double),
        b'L' if d.ends_with(';') => Some(program.ref_type(&d[1..d.len() - 1])),
        b'[' => Some(parse_descriptor(program, &d[1..])?.array_of()),
        _ => None,
    }
}

fn read_uleb_raw(bytes: &[u8], pos: &mut usize) -> Result<u64, SdexError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| SdexError { message: "unexpected end of input".into(), offset: *pos })?;
        *pos += 1;
        if shift >= 64 {
            return Err(SdexError { message: "uleb128 overflow".into(), offset: *pos });
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Validates magic/version and reads the string pool, checking each
/// string's bounds and UTF-8 once. Returns the pool, with an empty memo,
/// and the byte offset where the class section starts.
fn read_header(bytes: &[u8]) -> Result<(Pool, usize), SdexError> {
    if bytes.len() < 6 || &bytes[..4] != MAGIC {
        return Err(SdexError { message: "bad magic".into(), offset: 0 });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(SdexError { message: format!("unsupported version {version}"), offset: 4 });
    }
    let mut pos = 6;
    let nstrings = read_uleb_raw(bytes, &mut pos)?;
    let left = bytes.len() - pos;
    let nstrings =
        usize::try_from(nstrings).ok().filter(|&n| n <= left).ok_or_else(|| SdexError {
            message: format!("count {nstrings} exceeds the {left} bytes left"),
            offset: pos,
        })?;
    let mut ranges = Vec::with_capacity(nstrings);
    for _ in 0..nstrings {
        let len = read_uleb_raw(bytes, &mut pos)?;
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| SdexError { message: "string overruns input".into(), offset: pos })?;
        std::str::from_utf8(&bytes[pos..end]).map_err(|_| SdexError {
            message: "invalid UTF-8 in string pool".into(),
            offset: pos,
        })?;
        ranges.push(pos..end);
        pos = end;
    }
    let pool = Pool {
        ranges: ranges.into_boxed_slice(),
        symbols: empty_memo(nstrings),
        classes: empty_memo(nstrings),
        types: empty_memo(nstrings),
    };
    Ok((pool, pos))
}

fn empty_memo<T>(n: usize) -> Box<[OnceLock<T>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// Decodes SDEX bytes, declaring all contained classes into `program`.
/// Returns the declared class ids.
///
/// # Errors
///
/// Returns [`SdexError`] on truncated input, bad magic/version, invalid
/// indices, counts past the end of the input, malformed descriptors,
/// a class, field or method declared twice, or a class that is its own
/// (transitive) superclass.
pub fn decode(program: &mut Program, bytes: &[u8]) -> Result<Vec<ClassId>, SdexError> {
    let (pool, body_start) = read_header(bytes)?;
    let mut dec = Decoder { bytes, pos: body_start, pool: &pool, program };
    // Pass 1: declarations (classes, fields, method signatures); each
    // body is structurally validated in full while being skipped.
    let headers = decode_decls(&mut dec)?;
    // Pass 2: bodies.
    let mut ids = Vec::with_capacity(headers.len());
    for (cid, methods) in headers {
        ids.push(cid);
        for (mid, body_bytes_start) in methods {
            dec.pos = body_bytes_start;
            let body = decode_body(&mut dec)?;
            dec.program.set_body(mid, body);
        }
    }
    Ok(ids)
}

/// The deferred-body source for lazily loaded SDEX images: the raw bytes
/// plus their string pool, shared by every method of the image. The
/// token of each pending body is its byte offset.
///
/// One `LazySdex` serves exactly one program, the one [`decode_lazy`]
/// declared the image into: its pool memo holds that program's symbols,
/// classes and types. Nothing shares it with another program, since
/// [`Program::freeze`] refuses pending bodies.
struct LazySdex {
    bytes: Arc<[u8]>,
    pool: Pool,
}

impl BodySource for LazySdex {
    fn materialize(
        &self,
        program: &mut Program,
        _method: flowdroid_ir::MethodId,
        token: u64,
    ) -> Result<Body, String> {
        let mut dec =
            Decoder { bytes: &self.bytes, pos: token as usize, pool: &self.pool, program };
        decode_body(&mut dec).map_err(|e| e.to_string())
    }
}

/// Decodes SDEX bytes like [`decode`], but defers method-body decoding:
/// classes, fields and method signatures are declared eagerly while each
/// body is registered as a pending body (token = byte offset) that
/// [`Program::ensure_body`] materializes on first access.
///
/// Bodies are still *validated* in full here — the declaration pass walks
/// every body checking opcodes, tags, string indices, descriptors, local
/// slots and branch targets — so a later materialization of accepted
/// bytes cannot fail. Malformed images are rejected now, exactly like
/// the eager path.
///
/// # Errors
///
/// Returns [`SdexError`] on truncated input, bad magic/version, invalid
/// indices, counts past the end of the input, malformed descriptors,
/// a class, field or method declared twice, or a class that is its own
/// (transitive) superclass.
pub fn decode_lazy(program: &mut Program, bytes: Arc<[u8]>) -> Result<Vec<ClassId>, SdexError> {
    let (pool, body_start) = read_header(&bytes)?;
    let headers =
        decode_decls(&mut Decoder { bytes: &bytes, pos: body_start, pool: &pool, program })?;
    let source = Arc::new(LazySdex { bytes, pool });
    let mut ids = Vec::with_capacity(headers.len());
    for (cid, methods) in headers {
        ids.push(cid);
        for (mid, body_bytes_start) in methods {
            program.defer_body(mid, source.clone(), body_bytes_start as u64);
        }
    }
    Ok(ids)
}

type ClassHeader = (ClassId, Vec<(flowdroid_ir::MethodId, usize)>);

/// The declaration pass over the class section.
fn decode_decls(dec: &mut Decoder<'_, '_, '_>) -> Result<Vec<ClassHeader>, SdexError> {
    let nclasses = dec.count()?;
    let mut headers = Vec::with_capacity(nclasses);
    for _ in 0..nclasses {
        headers.push(decode_class_decl(dec)?);
    }
    if let Some(&(cid, _)) = headers.iter().find(|(cid, _)| dec.program.superclass_cycle(*cid)) {
        let name = dec.program.class_name(cid);
        return Err(dec.err(format!("class {name} is its own superclass")));
    }
    Ok(headers)
}

fn decode_class_decl(dec: &mut Decoder<'_, '_, '_>) -> Result<ClassHeader, SdexError> {
    let name = dec.str_ref()?;
    let flags = dec.u8()?;
    let has_super = dec.u8()?;
    let superclass = if has_super == 1 { Some(dec.str_ref()?) } else { None };
    let nifaces = dec.count()?;
    let mut ifaces = Vec::with_capacity(nifaces);
    for _ in 0..nifaces {
        ifaces.push(dec.str_ref()?);
    }
    if dec.program.find_class(name).is_some_and(|c| dec.program.class(c).is_declared()) {
        return Err(dec.err(format!("class {name} already declared")));
    }
    let cid = if flags & 1 != 0 {
        dec.program.declare_interface(name, &ifaces)
    } else {
        dec.program.declare_class(name, superclass, &ifaces)
    };
    if flags & 2 != 0 {
        dec.program.set_abstract(cid, true);
    }
    let nfields = dec.count()?;
    for _ in 0..nfields {
        let fname = dec.str_ref()?;
        let fty = dec.type_desc()?;
        let is_static = dec.u8()? == 1;
        let sym = dec.program.intern(fname);
        if dec.program.class(cid).field_by_name(sym).is_some() {
            return Err(dec.err(format!("field {fname} declared twice on class {name}")));
        }
        dec.program.declare_field(cid, fname, fty, is_static);
    }
    let nmethods = dec.count()?;
    let mut methods = Vec::with_capacity(nmethods);
    for _ in 0..nmethods {
        let mname = dec.str_ref()?;
        let ret = dec.type_desc()?;
        let nparams = dec.count()?;
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            params.push(dec.type_desc()?);
        }
        let sig = SubSig { name: dec.program.intern(mname), params, ret };
        if dec.program.class(cid).method_by_subsig(&sig).is_some() {
            return Err(dec.err(format!("method {mname} declared twice on class {name}")));
        }
        let mflags = dec.u8()?;
        let mid = dec.program.declare_method(cid, mname, sig.params, sig.ret, mflags & 1 != 0);
        if mflags & 2 != 0 {
            dec.program.set_native(mid, true);
        }
        if mflags & 4 != 0 {
            dec.program.set_method_abstract(mid, true);
        }
        let has_body = dec.u8()?;
        if has_body == 1 {
            methods.push((mid, dec.pos));
            skip_body(dec)?;
        }
    }
    Ok((cid, methods))
}

// ----- body validators ---------------------------------------------------
//
// The declaration pass walks each body once to find where the next one
// starts. These "skip" functions double as full structural validators:
// every opcode, tag, string index, descriptor, local slot and branch
// target is checked here, so a body accepted by the declaration pass is
// guaranteed to decode (the lazy loader relies on this to make deferred
// materialization infallible).

impl Decoder<'_, '_, '_> {
    /// Validates a string-pool reference to a type descriptor.
    fn check_desc(&mut self) -> Result<(), SdexError> {
        let i = self.pool_index()?;
        if !descriptor_syntax_ok(&self.bytes[self.pool.ranges[i].clone()]) {
            let msg = format!("bad descriptor `{}`", self.pool_str(i));
            return Err(self.err(msg));
        }
        Ok(())
    }

    /// Validates a local slot (uleb that must fit in `u32`).
    fn check_local(&mut self) -> Result<(), SdexError> {
        let v = self.uleb()?;
        u32::try_from(v).map_err(|_| self.err("local index overflow"))?;
        Ok(())
    }
}

/// Skips and validates an encoded body (used during the declaration pass).
fn skip_body(dec: &mut Decoder<'_, '_, '_>) -> Result<(), SdexError> {
    let nlocals = dec.count()?;
    for _ in 0..nlocals {
        dec.pool_index()?; // local name
        dec.check_desc()?; // local type
    }
    let nstmts = dec.count()?;
    for _ in 0..nstmts {
        let line = dec.uleb()?;
        u32::try_from(line).map_err(|_| dec.err("line number overflow"))?;
        skip_stmt(dec, nstmts)?;
    }
    Ok(())
}

fn skip_const(dec: &mut Decoder<'_, '_, '_>) -> Result<(), SdexError> {
    match dec.u8()? {
        OPR_STR | OPR_CLASS => {
            dec.pool_index()?;
        }
        OPR_INT => {
            dec.ileb()?;
        }
        OPR_NULL => {}
        OPR_LOCAL => return Err(dec.err("const tag holds a local")),
        t => return Err(dec.err(format!("bad operand tag {t}"))),
    }
    Ok(())
}

fn skip_operand(dec: &mut Decoder<'_, '_, '_>) -> Result<(), SdexError> {
    match dec.u8()? {
        OPR_LOCAL => dec.check_local()?,
        OPR_STR | OPR_CLASS => {
            dec.pool_index()?;
        }
        OPR_INT => {
            dec.ileb()?;
        }
        OPR_NULL => {}
        t => return Err(dec.err(format!("bad operand tag {t}"))),
    }
    Ok(())
}

fn skip_place(dec: &mut Decoder<'_, '_, '_>) -> Result<(), SdexError> {
    match dec.u8()? {
        PL_LOCAL => dec.check_local()?,
        PL_IFIELD => {
            dec.check_local()?; // base
            dec.pool_index()?; // class name
            dec.pool_index()?; // field name
            dec.check_desc()?; // field type
        }
        PL_SFIELD => {
            dec.pool_index()?;
            dec.pool_index()?;
            dec.check_desc()?;
        }
        PL_ARRAY => {
            dec.check_local()?;
            skip_operand(dec)?;
        }
        t => return Err(dec.err(format!("bad place tag {t}"))),
    }
    Ok(())
}

fn skip_stmt(dec: &mut Decoder<'_, '_, '_>, nstmts: usize) -> Result<(), SdexError> {
    let target_check = |dec: &Decoder<'_, '_, '_>, t: u64| -> Result<(), SdexError> {
        if t as usize >= nstmts {
            Err(dec.err(format!("branch target {t} out of range")))
        } else {
            Ok(())
        }
    };
    match dec.u8()? {
        OP_NOP => {}
        OP_ASSIGN => {
            skip_place(dec)?;
            match dec.u8()? {
                RV_READ => skip_place(dec)?,
                RV_CONST => skip_const(dec)?,
                RV_NEW => {
                    dec.pool_index()?;
                }
                RV_NEWARRAY => {
                    dec.check_desc()?;
                    skip_operand(dec)?;
                }
                RV_BINOP => {
                    let code = dec.u8()?;
                    decode_binop(code).ok_or_else(|| dec.err("bad binop"))?;
                    skip_operand(dec)?;
                    skip_operand(dec)?;
                }
                RV_UNOP => {
                    let code = dec.u8()?;
                    if code > 1 {
                        return Err(dec.err("bad unop"));
                    }
                    skip_operand(dec)?;
                }
                RV_CAST | RV_INSTANCEOF => {
                    dec.check_desc()?;
                    skip_operand(dec)?;
                }
                t => return Err(dec.err(format!("bad rvalue tag {t}"))),
            }
        }
        OP_INVOKE => {
            if dec.u8()? == 1 {
                dec.check_local()?; // result
            }
            let kind = dec.u8()?;
            if kind > 3 {
                return Err(dec.err(format!("bad invoke kind {kind}")));
            }
            if dec.u8()? == 1 {
                dec.check_local()?; // base
            }
            dec.pool_index()?; // class name
            dec.pool_index()?; // method name
            dec.check_desc()?; // return type
            let nparams = dec.count()?;
            for _ in 0..nparams {
                dec.check_desc()?;
            }
            let nargs = dec.count()?;
            for _ in 0..nargs {
                skip_operand(dec)?;
            }
            if nargs != nparams {
                return Err(dec.err("argument/parameter count mismatch"));
            }
        }
        OP_IF => {
            let ctag = dec.u8()?;
            if ctag > 0 {
                decode_cmpop(ctag - 1).ok_or_else(|| dec.err("bad cmp op"))?;
                skip_operand(dec)?;
                skip_operand(dec)?;
            }
            let t = dec.uleb()?;
            target_check(dec, t)?;
        }
        OP_GOTO => {
            let t = dec.uleb()?;
            target_check(dec, t)?;
        }
        OP_RETURN => {
            if dec.u8()? == 1 {
                skip_operand(dec)?;
            }
        }
        OP_THROW => skip_operand(dec)?,
        t => return Err(dec.err(format!("bad opcode {t}"))),
    }
    Ok(())
}

fn decode_body(dec: &mut Decoder<'_, '_, '_>) -> Result<Body, SdexError> {
    let nlocals = dec.count()?;
    let mut locals = Vec::with_capacity(nlocals);
    for _ in 0..nlocals {
        let name = dec.str_ref()?.to_owned();
        let ty = dec.type_desc()?;
        locals.push(flowdroid_ir::LocalDecl { name, ty });
    }
    let nstmts = dec.count()?;
    let mut stmts = Vec::with_capacity(nstmts);
    let mut lines = Vec::with_capacity(nstmts);
    for _ in 0..nstmts {
        let line = dec.uleb()? as u32;
        lines.push(line);
        stmts.push(decode_stmt(dec, nstmts)?);
    }
    Ok(Body::new(locals, stmts, lines))
}

fn decode_stmt(dec: &mut Decoder<'_, '_, '_>, nstmts: usize) -> Result<Stmt, SdexError> {
    let target_check = |dec: &Decoder<'_, '_, '_>, t: u64| -> Result<usize, SdexError> {
        let t = t as usize;
        if t >= nstmts {
            Err(dec.err(format!("branch target {t} out of range")))
        } else {
            Ok(t)
        }
    };
    Ok(match dec.u8()? {
        OP_NOP => Stmt::Nop,
        OP_ASSIGN => {
            let lhs = dec.place()?;
            let rhs = match dec.u8()? {
                RV_READ => Rvalue::Read(dec.place()?),
                RV_CONST => match dec.operand()? {
                    Operand::Const(c) => Rvalue::Const(c),
                    Operand::Local(_) => return Err(dec.err("const tag holds a local")),
                },
                RV_NEW => Rvalue::New(dec.class()?),
                RV_NEWARRAY => {
                    let t = dec.type_desc()?;
                    Rvalue::NewArray(t, dec.operand()?)
                }
                RV_BINOP => {
                    let code = dec.u8()?;
                    let op = decode_binop(code).ok_or_else(|| dec.err("bad binop"))?;
                    Rvalue::BinOp(op, dec.operand()?, dec.operand()?)
                }
                RV_UNOP => {
                    let op = match dec.u8()? {
                        0 => UnOp::Neg,
                        1 => UnOp::Len,
                        _ => return Err(dec.err("bad unop")),
                    };
                    Rvalue::UnOp(op, dec.operand()?)
                }
                RV_CAST => {
                    let t = dec.type_desc()?;
                    Rvalue::Cast(t, dec.operand()?)
                }
                RV_INSTANCEOF => {
                    let t = dec.type_desc()?;
                    let o = dec.operand()?;
                    Rvalue::InstanceOf(o, t)
                }
                t => return Err(dec.err(format!("bad rvalue tag {t}"))),
            };
            Stmt::Assign { lhs, rhs }
        }
        OP_INVOKE => {
            let result = if dec.u8()? == 1 { Some(dec.local()?) } else { None };
            let kind = match dec.u8()? {
                0 => InvokeKind::Virtual,
                1 => InvokeKind::Interface,
                2 => InvokeKind::Special,
                3 => InvokeKind::Static,
                t => return Err(dec.err(format!("bad invoke kind {t}"))),
            };
            let base = if dec.u8()? == 1 { Some(dec.local()?) } else { None };
            // The class and name resolve after the types and arguments:
            // ids are minted in that order, and results follow id order.
            let class = dec.pool_index()?;
            let name = dec.pool_index()?;
            let ret = dec.type_desc()?;
            let nparams = dec.count()?;
            let mut params = Vec::with_capacity(nparams);
            for _ in 0..nparams {
                params.push(dec.type_desc()?);
            }
            let nargs = dec.count()?;
            let mut args = Vec::with_capacity(nargs);
            for _ in 0..nargs {
                args.push(dec.operand()?);
            }
            if nargs != nparams {
                return Err(dec.err("argument/parameter count mismatch"));
            }
            let class = dec.class_at(class);
            let name = dec.symbol_at(name);
            Stmt::Invoke {
                result,
                call: InvokeExpr {
                    kind,
                    base,
                    callee: MethodRef { class, subsig: SubSig { name, params, ret } },
                    args,
                },
            }
        }
        OP_IF => {
            let ctag = dec.u8()?;
            let cond = if ctag == 0 {
                Cond::Opaque
            } else {
                let op = decode_cmpop(ctag - 1).ok_or_else(|| dec.err("bad cmp op"))?;
                let a = dec.operand()?;
                let b = dec.operand()?;
                Cond::Cmp(op, a, b)
            };
            let t = dec.uleb()?;
            Stmt::If { cond, target: target_check(dec, t)? }
        }
        OP_GOTO => {
            let t = dec.uleb()?;
            Stmt::Goto { target: target_check(dec, t)? }
        }
        OP_RETURN => {
            let value = if dec.u8()? == 1 { Some(dec.operand()?) } else { None };
            Stmt::Return { value }
        }
        OP_THROW => Stmt::Throw { value: dec.operand()? },
        t => return Err(dec.err(format!("bad opcode {t}"))),
    })
}

fn decode_binop(code: u8) -> Option<BinOp> {
    Some(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::And,
        6 => BinOp::Or,
        7 => BinOp::Xor,
        8 => BinOp::Shl,
        9 => BinOp::Shr,
        10 => BinOp::Cmp,
        _ => return None,
    })
}

fn decode_cmpop(code: u8) -> Option<CmpOp> {
    Some(match code {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return None,
    })
}
