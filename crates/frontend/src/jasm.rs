//! The `jasm` text language: a Jimple-like three-address assembly in
//! which all benchmark apps are authored.
//!
//! `jasm` sits at the same abstraction level as Soot's Jimple (which is
//! what the original FlowDroid analyzes): explicit locals, three-address
//! statements, fully-qualified invoke signatures and statement-level
//! control flow.
//!
//! # Syntax overview
//!
//! ```text
//! class com.example.Main extends android.app.Activity implements a.B {
//!   field user: com.example.User
//!   static field count: int
//!
//!   method onCreate(b: android.os.Bundle) -> void {
//!     let t: java.lang.String
//!     t = staticinvoke <android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
//!     this.user = t
//!     virtualinvoke this.<android.app.Activity: void setContentView(int)>(@layout/main)
//!     if t == null goto end
//!     nop
//!   label end:
//!     return
//!   }
//!
//!   native method nat(x: int) -> int
//! }
//! ```
//!
//! Statements: `let`, place assignments (`x = y`, `x.f = y`,
//! `static C.f = y`, `a[i] = y` and the mirrored reads), `new C`,
//! `newarray T[n]`, binary/unary operators, `(T) x` casts,
//! `x instanceof T`, the four `…invoke` forms, `if a == b goto L` /
//! `if opaque goto L`, `goto L`, `label L:`, `return [x]`, `throw x`,
//! `nop`. Constants: integers, `"strings"`, `null`, and resource
//! references `@id/name` / `@layout/name` resolved against a
//! [`ResourceTable`].

//!
//! # Parsing in one pass
//!
//! The lexer yields tokens that borrow the source text. A first walk
//! over them reads class headers and member signatures and records where
//! each method body starts, skipping the body to its closing `}`.
//! Declarations then follow in a fixed order, so that every class,
//! method, field and interned name gets the same id whatever the file
//! holds: all class headers in file order, then each class's fields and
//! method signatures, then the bodies. Each body is parsed statement by
//! statement straight into a [`MethodBuilder`], with its parameters and
//! hoisted `let`s registered first.

use crate::layout::ResourceTable;
use flowdroid_ir::{
    BinOp, ClassId, CmpOp, Constant, FieldId, FxHashMap, InvokeKind, Label, Local, MethodBuilder,
    MethodId, Operand, Place, Program, Rvalue, SubSig, Type, UnOp,
};
use std::borrow::Cow;
use std::fmt;

/// A syntax or name-resolution error with source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jasm error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses `src` and declares all contained classes into `program`.
///
/// `resources` resolves `@id/...` and `@layout/...` references; pass an
/// empty table for non-Android code.
///
/// Returns the ids of the declared classes.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors, unknown locals/labels,
/// unresolvable resource references, a class, field or method
/// declared twice, or a class that is its own (transitive) superclass.
pub fn parse_jasm(
    program: &mut Program,
    resources: &ResourceTable,
    src: &str,
) -> Result<Vec<ClassId>, ParseError> {
    let toks = lex(src)?;
    let classes = Cursor { src, toks: &toks, pos: 0 }.classes()?;
    let ids = classes.iter().map(|c| c.declare(program)).collect::<Result<Vec<_>, _>>()?;
    if let Some((c, _)) = classes.iter().zip(&ids).find(|(_, &id)| program.superclass_cycle(id)) {
        return Err(ParseError {
            message: format!("class `{}` is its own superclass", c.name),
            line: c.line,
        });
    }
    let mut methods = Vec::new();
    for (c, &cid) in classes.iter().zip(&ids) {
        for f in &c.fields {
            f.declare(program, cid)?;
        }
        for m in &c.methods {
            methods.push((m.declare(program, cid)?, m));
        }
    }
    for (mid, m) in methods {
        if let Some(pos) = m.body {
            let cur = Cursor { src, toks: &toks, pos };
            BodyParser::new(program, resources, cur, mid, m)?.parse()?;
        }
    }
    Ok(ids)
}

// ===================== Lexer =====================

#[derive(Debug, PartialEq)]
enum Tok<'src> {
    Ident(&'src str),
    Int(i64),
    /// String literal contents; owned only when it held an escape or a
    /// non-ASCII byte.
    Str(Cow<'src, str>),
    /// `@kind/name` resource reference.
    Res(&'src str, &'src str),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    Comma,
    Dot,
    Arrow,
    Assign,
    EqEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,
}

struct Token<'src> {
    tok: Tok<'src>,
    line: u32,
}

/// `bytes` read as Latin-1, one `char` per byte.
fn latin1(bytes: &[u8]) -> String {
    bytes.iter().map(|&c| c as char).collect()
}

/// `s` with its `_` digit separators removed.
fn without_underscores(s: &str) -> Cow<'_, str> {
    if s.contains('_') {
        Cow::Owned(s.replace('_', ""))
    } else {
        Cow::Borrowed(s)
    }
}

/// The byte offset of `s`, a slice of `src`, within `src`.
fn offset(src: &str, s: &str) -> usize {
    s.as_ptr() as usize - src.as_ptr() as usize
}

fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let mut out = Vec::with_capacity(src.len() / 4);
    let b = src.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let err = |msg: &str, line: u32| ParseError { message: msg.to_owned(), line };
    // Identifier-like runs: letters, digits, `_` (and `$` where allowed).
    let run = |mut i: usize, dollar: bool| {
        while i < b.len()
            && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || (dollar && b[i] == b'$'))
        {
            i += 1;
        }
        i
    };
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                let start = i;
                let mut owned: Option<String> = None;
                loop {
                    if i >= b.len() {
                        return Err(err("unterminated string literal", line));
                    }
                    match b[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < b.len() => {
                            let s = owned.get_or_insert_with(|| latin1(&b[start..i]));
                            s.push(match b[i + 1] {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                            i += 2;
                        }
                        b'\n' => return Err(err("newline in string literal", line)),
                        other => {
                            if let Some(s) = &mut owned {
                                s.push(other as char);
                            } else if !other.is_ascii() {
                                owned = Some(latin1(&b[start..=i]));
                            }
                            i += 1;
                        }
                    }
                }
                let text = owned.map_or(Cow::Borrowed(&src[start..i - 1]), Cow::Owned);
                out.push(Token { tok: Tok::Str(text), line });
            }
            b'@' => {
                let kind_end = run(i + 1, false);
                if kind_end >= b.len() || b[kind_end] != b'/' {
                    return Err(err("expected '/' in resource reference", line));
                }
                let name_end = run(kind_end + 1, false);
                let (kind, name) = (&src[i + 1..kind_end], &src[kind_end + 1..name_end]);
                if kind.is_empty() || name.is_empty() {
                    return Err(err("malformed resource reference", line));
                }
                out.push(Token { tok: Tok::Res(kind, name), line });
                i = name_end;
            }
            b'0'..=b'9' => {
                let end = run(i, false);
                let text = &src[i..end];
                let v = if let Some(hex) = text.strip_prefix("0x") {
                    i64::from_str_radix(&without_underscores(hex), 16)
                } else {
                    without_underscores(text).parse()
                };
                match v {
                    Ok(v) => out.push(Token { tok: Tok::Int(v), line }),
                    Err(_) => return Err(err(&format!("bad integer literal `{text}`"), line)),
                }
                i = end;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                let end = run(i, true);
                out.push(Token { tok: Tok::Ident(&src[i..end]), line });
                i = end;
            }
            _ => {
                let two = if i + 1 < b.len() { &b[i..i + 2] } else { &b[i..i + 1] };
                let (tok, len) = match two {
                    b"->" => (Tok::Arrow, 2),
                    b"==" => (Tok::EqEq, 2),
                    b"!=" => (Tok::Ne, 2),
                    b"<=" => (Tok::Le, 2),
                    b">=" => (Tok::Ge, 2),
                    b"<<" => (Tok::Shl, 2),
                    b">>" => (Tok::Shr, 2),
                    _ => match c {
                        b'{' => (Tok::LBrace, 1),
                        b'}' => (Tok::RBrace, 1),
                        b'(' => (Tok::LParen, 1),
                        b')' => (Tok::RParen, 1),
                        b'[' => (Tok::LBracket, 1),
                        b']' => (Tok::RBracket, 1),
                        b':' => (Tok::Colon, 1),
                        b',' => (Tok::Comma, 1),
                        b'.' => (Tok::Dot, 1),
                        b'=' => (Tok::Assign, 1),
                        b'<' => (Tok::Lt, 1),
                        b'>' => (Tok::Gt, 1),
                        b'+' => (Tok::Plus, 1),
                        b'-' => (Tok::Minus, 1),
                        b'*' => (Tok::Star, 1),
                        b'/' => (Tok::Slash, 1),
                        b'%' => (Tok::Percent, 1),
                        b'&' => (Tok::Amp, 1),
                        b'|' => (Tok::Pipe, 1),
                        b'^' => (Tok::Caret, 1),
                        other => {
                            return Err(err(
                                &format!("unexpected character `{}`", other as char),
                                line,
                            ))
                        }
                    },
                };
                out.push(Token { tok, line });
                i += len;
            }
        }
    }
    Ok(out)
}

// ===================== Token cursor =====================

/// A type as written: a primitive or a class name, with its array depth.
struct TypeRef<'t> {
    /// `Ok` for a primitive, `Err` with the class name otherwise.
    base: Result<Type, Cow<'t, str>>,
    dims: usize,
}

impl TypeRef<'_> {
    fn resolve(&self, program: &mut Program) -> Type {
        let mut t = match &self.base {
            Ok(prim) => prim.clone(),
            Err(name) => program.ref_type(name),
        };
        for _ in 0..self.dims {
            t = t.array_of();
        }
        t
    }
}

/// An operand as written, resolved once its turn comes.
#[derive(Clone, Copy)]
enum Opnd<'t> {
    Local(&'t str),
    Int(i64),
    Str(&'t str),
    Null,
    /// The whole `@kind/name` text.
    Res(&'t str),
}

struct Cursor<'t> {
    src: &'t str,
    toks: &'t [Token<'t>],
    pos: usize,
}

impl<'t> Cursor<'t> {
    fn line(&self) -> u32 {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map_or(0, |t| t.line)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { message: msg.into(), line: self.line() }
    }

    fn peek(&self) -> Option<&'t Tok<'t>> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&'t Tok<'t>> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<&'t Tok<'t>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok<'_>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok<'_>, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'t str, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if *s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    /// Dotted name: `a.b.c`. Borrows the source unless whitespace or a
    /// comment sits around a dot.
    fn dotted(&mut self, what: &str) -> Result<Cow<'t, str>, ParseError> {
        let start = self.pos;
        let first = self.ident(what)?;
        let (mut last, mut len) = (first, first.len());
        // Only consume a dot if an identifier follows.
        while self.peek() == Some(&Tok::Dot) && matches!(self.peek2(), Some(Tok::Ident(_))) {
            self.pos += 1;
            last = self.ident("name segment")?;
            len += 1 + last.len();
        }
        let text = &self.src[offset(self.src, first)..offset(self.src, last) + last.len()];
        if text.len() == len {
            return Ok(Cow::Borrowed(text));
        }
        let segments = self.toks[start..self.pos].iter().filter_map(|t| match t.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        });
        Ok(Cow::Owned(segments.collect::<Vec<_>>().join(".")))
    }

    fn ty(&mut self) -> Result<TypeRef<'t>, ParseError> {
        let head = match self.peek() {
            Some(Tok::Ident(s)) => *s,
            other => return Err(self.err(format!("expected type, found {other:?}"))),
        };
        let prim = match head {
            "void" => Some(Type::Void),
            "boolean" => Some(Type::Boolean),
            "byte" => Some(Type::Byte),
            "char" => Some(Type::Char),
            "short" => Some(Type::Short),
            "int" => Some(Type::Int),
            "long" => Some(Type::Long),
            "float" => Some(Type::Float),
            "double" => Some(Type::Double),
            _ => None,
        };
        let base = match prim {
            Some(t) => {
                self.pos += 1;
                Ok(t)
            }
            None => Err(self.dotted("type name")?),
        };
        let mut dims = 0;
        while self.peek() == Some(&Tok::LBracket) && self.peek2() == Some(&Tok::RBracket) {
            self.pos += 2;
            dims += 1;
        }
        Ok(TypeRef { base, dims })
    }

    /// A method name, possibly `<init>` or `<clinit>`.
    fn method_name(&mut self) -> Result<Cow<'t, str>, ParseError> {
        if !self.eat(&Tok::Lt) {
            return self.ident("method name").map(Cow::Borrowed);
        }
        let n = self.ident("constructor name")?;
        self.expect(&Tok::Gt, "`>`")?;
        // `<init>` written without spaces is a slice of the source.
        let start = offset(self.src, n);
        Ok(match self.src.get(start - 1..start + n.len() + 1) {
            Some(text) if text.starts_with('<') && text.ends_with('>') => Cow::Borrowed(text),
            _ => Cow::Owned(format!("<{n}>")),
        })
    }

    fn operand(&mut self) -> Result<Opnd<'t>, ParseError> {
        let o = match self.peek() {
            Some(Tok::Ident("null")) => Opnd::Null,
            Some(Tok::Ident(s)) => Opnd::Local(s),
            Some(Tok::Int(v)) => Opnd::Int(*v),
            Some(Tok::Minus) => {
                self.pos += 1;
                return match self.bump() {
                    Some(Tok::Int(v)) => Ok(Opnd::Int(-v)),
                    other => Err(self.err(format!("expected integer after `-`, found {other:?}"))),
                };
            }
            Some(Tok::Str(s)) => Opnd::Str(s),
            // The lexer reads `@kind/name` with nothing in between.
            Some(Tok::Res(kind, name)) => Opnd::Res(
                &self.src[offset(self.src, kind) - 1..offset(self.src, name) + name.len()],
            ),
            other => return Err(self.err(format!("expected operand, found {other:?}"))),
        };
        self.pos += 1;
        Ok(o)
    }
}

// ===================== Class headers and member signatures =====================

struct ClassDecl<'t> {
    name: Cow<'t, str>,
    line: u32,
    is_interface: bool,
    is_abstract: bool,
    extends: Option<Cow<'t, str>>,
    implements: Vec<Cow<'t, str>>,
    fields: Vec<FieldDecl<'t>>,
    methods: Vec<MethodDecl<'t>>,
}

struct FieldDecl<'t> {
    name: &'t str,
    line: u32,
    ty: TypeRef<'t>,
    is_static: bool,
}

struct MethodDecl<'t> {
    name: Cow<'t, str>,
    line: u32,
    params: Vec<(&'t str, TypeRef<'t>)>,
    ret: TypeRef<'t>,
    is_static: bool,
    is_native: bool,
    is_abstract: bool,
    /// Index of the body's first token, for methods with a body.
    body: Option<usize>,
}

/// The error for a second declaration of `what`.
fn declared_twice(what: String, line: u32) -> ParseError {
    ParseError { message: format!("{what} declared twice"), line }
}

impl ClassDecl<'_> {
    fn declare(&self, program: &mut Program) -> Result<ClassId, ParseError> {
        if program.find_class(&self.name).is_some_and(|c| program.class(c).is_declared()) {
            return Err(declared_twice(format!("class `{}`", self.name), self.line));
        }
        let id = if self.is_interface {
            let ext: Vec<&str> =
                self.extends.iter().chain(&self.implements).map(|s| &**s).collect();
            program.declare_interface(&self.name, &ext)
        } else {
            let extends = self.extends.as_deref().or(Some("java.lang.Object"));
            let impls: Vec<&str> = self.implements.iter().map(|s| &**s).collect();
            program.declare_class(&self.name, extends, &impls)
        };
        if self.is_abstract {
            program.set_abstract(id, true);
        }
        Ok(id)
    }
}

impl FieldDecl<'_> {
    fn declare(&self, program: &mut Program, class: ClassId) -> Result<(), ParseError> {
        let ty = self.ty.resolve(program);
        let name = program.intern(self.name);
        if program.class(class).field_by_name(name).is_some() {
            let what = format!("field `{}` on class {}", self.name, program.class_name(class));
            return Err(declared_twice(what, self.line));
        }
        program.declare_field(class, self.name, ty, self.is_static);
        Ok(())
    }
}

impl MethodDecl<'_> {
    fn declare(&self, program: &mut Program, class: ClassId) -> Result<MethodId, ParseError> {
        let params = self.params.iter().map(|(_, t)| t.resolve(program)).collect();
        let ret = self.ret.resolve(program);
        let sig = SubSig { name: program.intern(&self.name), params, ret };
        if program.class(class).method_by_subsig(&sig).is_some() {
            let what = format!("method `{}` on class {}", self.name, program.class_name(class));
            return Err(declared_twice(what, self.line));
        }
        let mid = program.declare_method(class, &self.name, sig.params, sig.ret, self.is_static);
        if self.is_native {
            program.set_native(mid, true);
        }
        if self.is_abstract {
            program.set_method_abstract(mid, true);
        }
        Ok(mid)
    }
}

impl<'t> Cursor<'t> {
    fn classes(mut self) -> Result<Vec<ClassDecl<'t>>, ParseError> {
        let mut classes = Vec::new();
        while self.peek().is_some() {
            classes.push(self.class()?);
        }
        Ok(classes)
    }

    fn class(&mut self) -> Result<ClassDecl<'t>, ParseError> {
        let is_abstract = self.eat_kw("abstract");
        let is_interface = if self.eat_kw("interface") {
            true
        } else {
            self.expect_kw("class")?;
            false
        };
        let line = self.line();
        let name = self.dotted("class name")?;
        let mut extends = None;
        let mut implements = Vec::new();
        if self.eat_kw("extends") {
            extends = Some(self.dotted("superclass name")?);
            // Interfaces may extend several.
            while is_interface && self.eat(&Tok::Comma) {
                implements.push(self.dotted("interface name")?);
            }
        }
        if self.eat_kw("implements") {
            implements.push(self.dotted("interface name")?);
            while self.eat(&Tok::Comma) {
                implements.push(self.dotted("interface name")?);
            }
        }
        self.expect(&Tok::LBrace, "`{`")?;
        let mut class = ClassDecl {
            name,
            line,
            is_interface,
            is_abstract,
            extends,
            implements,
            fields: Vec::new(),
            methods: Vec::new(),
        };
        while !self.eat(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unterminated class body"));
            }
            // Member modifiers may appear in any order.
            let (mut is_static, mut is_native, mut is_abs) = (false, false, false);
            loop {
                if self.eat_kw("static") {
                    is_static = true;
                } else if self.eat_kw("native") {
                    is_native = true;
                } else if self.eat_kw("abstract") {
                    is_abs = true;
                } else {
                    break;
                }
            }
            let line = self.line();
            if self.eat_kw("field") {
                if is_native || is_abs {
                    return Err(self.err("fields cannot be native or abstract"));
                }
                let name = self.ident("field name")?;
                self.expect(&Tok::Colon, "`:`")?;
                let ty = self.ty()?;
                class.fields.push(FieldDecl { name, line, ty, is_static });
            } else if self.eat_kw("method") {
                let m = self.method(line, is_static, is_native, is_abs || is_interface)?;
                let has_body = m.body.is_some();
                class.methods.push(m);
                // No statement contains a `}`, so a body ends at the first
                // one. A body that runs to the end of input is the last
                // thing in the file; parsing it reports the error.
                if has_body {
                    match self.toks[self.pos..].iter().position(|t| t.tok == Tok::RBrace) {
                        Some(n) => self.pos += n + 1,
                        None => {
                            self.pos = self.toks.len();
                            return Ok(class);
                        }
                    }
                }
            } else {
                return Err(
                    self.err(format!("expected `field` or `method`, found {:?}", self.peek()))
                );
            }
        }
        Ok(class)
    }

    /// A method's signature, up to and including the `{` opening its
    /// body, if it has one.
    fn method(
        &mut self,
        line: u32,
        is_static: bool,
        is_native: bool,
        is_abstract: bool,
    ) -> Result<MethodDecl<'t>, ParseError> {
        let name = self.method_name()?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let pname = self.ident("parameter name")?;
                self.expect(&Tok::Colon, "`:`")?;
                params.push((pname, self.ty()?));
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "`,`")?;
            }
        }
        self.expect(&Tok::Arrow, "`->`")?;
        let ret = self.ty()?;
        let body = if is_native || is_abstract {
            None
        } else {
            self.expect(&Tok::LBrace, "`{`")?;
            Some(self.pos)
        };
        Ok(MethodDecl { name, line, params, ret, is_static, is_native, is_abstract, body })
    }
}

// ===================== Method bodies =====================

fn invoke_kind(kw: &str) -> Option<InvokeKind> {
    match kw {
        "virtualinvoke" => Some(InvokeKind::Virtual),
        "interfaceinvoke" => Some(InvokeKind::Interface),
        "specialinvoke" => Some(InvokeKind::Special),
        "staticinvoke" => Some(InvokeKind::Static),
        _ => None,
    }
}

fn cmp_of(t: &Tok<'_>) -> Option<CmpOp> {
    match t {
        Tok::EqEq => Some(CmpOp::Eq),
        Tok::Ne => Some(CmpOp::Ne),
        Tok::Lt => Some(CmpOp::Lt),
        Tok::Le => Some(CmpOp::Le),
        Tok::Gt => Some(CmpOp::Gt),
        Tok::Ge => Some(CmpOp::Ge),
        _ => None,
    }
}

fn binop_of(t: &Tok<'_>) -> Option<BinOp> {
    match t {
        Tok::Plus => Some(BinOp::Add),
        Tok::Minus => Some(BinOp::Sub),
        Tok::Star => Some(BinOp::Mul),
        Tok::Slash => Some(BinOp::Div),
        Tok::Percent => Some(BinOp::Rem),
        Tok::Amp => Some(BinOp::And),
        Tok::Pipe => Some(BinOp::Or),
        Tok::Caret => Some(BinOp::Xor),
        Tok::Shl => Some(BinOp::Shl),
        Tok::Shr => Some(BinOp::Shr),
        Tok::Ident("cmp") => Some(BinOp::Cmp),
        _ => None,
    }
}

fn is_stmt_keyword(s: &str) -> bool {
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
            | "virtualinvoke"
            | "interfaceinvoke"
            | "specialinvoke"
            | "staticinvoke"
    )
}

/// The place an assignment writes, held while its right side resolves.
enum Target<'t> {
    Local(&'t str),
    Field(&'t str, &'t str),
    /// `Class.field` and the index of its last dot.
    Static(Cow<'t, str>, usize),
    Elem(&'t str, Opnd<'t>),
}

/// How the statements so far end, for the checks at the closing `}`.
#[derive(PartialEq)]
enum Tail {
    Open,
    Label,
    Jump,
}

struct BodyParser<'p, 't> {
    cur: Cursor<'t>,
    b: MethodBuilder<'p>,
    resources: &'p ResourceTable,
    /// Each local with the class of its declared type, if a class type.
    locals: FxHashMap<&'t str, (Local, Option<ClassId>)>,
    /// Each label mentioned so far and whether it was declared.
    labels: FxHashMap<&'t str, (Label, bool)>,
    returns_void: bool,
    /// Line of the statement being parsed.
    line: u32,
    tail: Tail,
}

impl<'p, 't> BodyParser<'p, 't> {
    /// Starts `mid`'s body at `cur`, with `this`, the parameters and
    /// every `let` of the body in scope.
    fn new(
        program: &'p mut Program,
        resources: &'p ResourceTable,
        cur: Cursor<'t>,
        mid: MethodId,
        m: &MethodDecl<'t>,
    ) -> Result<Self, ParseError> {
        let method = program.method(mid);
        let returns_void = method.subsig().ret == Type::Void;
        let mut locals = FxHashMap::default();
        if !method.is_static() {
            locals.insert("this", (Local(0), Some(method.class())));
        }
        let mut b = MethodBuilder::for_method(program, mid);
        for (i, (name, _)) in m.params.iter().enumerate() {
            let l = b.param(i);
            b.rename_local(l, name);
            let class = b.program().method(mid).subsig().params[i].as_class();
            locals.insert(*name, (l, class));
        }
        let mut p = BodyParser {
            cur,
            b,
            resources,
            locals,
            labels: FxHashMap::default(),
            returns_void,
            line: 0,
            tail: Tail::Open,
        };
        p.hoist_lets()?;
        Ok(p)
    }
}

impl<'t> BodyParser<'_, 't> {
    /// Declares every `let name: T` of the body, in order, before any
    /// statement is parsed: a local may be used above its `let`. Only a
    /// `let` statement puts `let`, a name and `:` in a row.
    fn hoist_lets(&mut self) -> Result<(), ParseError> {
        let toks = self.cur.toks;
        let mut i = self.cur.pos;
        while let Some(t) = toks.get(i) {
            match (&t.tok, toks.get(i + 1).map(|t| &t.tok), toks.get(i + 2).map(|t| &t.tok)) {
                (Tok::RBrace, ..) => break,
                (Tok::Ident("let"), Some(Tok::Ident(name)), Some(Tok::Colon)) => {
                    if self.locals.contains_key(name) {
                        return Err(ParseError {
                            message: format!("local `{name}` declared twice"),
                            line: t.line,
                        });
                    }
                    let mut c = Cursor { pos: i + 3, ..self.cur };
                    let ty = c.ty()?.resolve(self.b.program());
                    let class = ty.as_class();
                    let l = self.b.local(name, ty);
                    self.locals.insert(name, (l, class));
                    i = c.pos;
                }
                _ => i += 1,
            }
        }
        Ok(())
    }

    fn parse(mut self) -> Result<(), ParseError> {
        while !self.cur.eat(&Tok::RBrace) {
            if self.cur.peek().is_none() {
                return Err(self.cur.err("unterminated method body"));
            }
            self.stmt()?;
        }
        // Every referenced label must have been declared; the builder would
        // otherwise panic on the unbound label.
        if let Some((name, _)) = self.labels.iter().find(|(_, &(_, declared))| !declared) {
            return Err(ParseError {
                message: format!("label `{name}` is never declared"),
                line: 0,
            });
        }
        // Termination checks the builder would otherwise panic on: a label
        // at the very end needs a statement to bind to, and non-void
        // methods must not fall off the end.
        if self.tail == Tail::Label {
            self.b.nop();
        }
        if self.tail != Tail::Jump && !self.returns_void {
            return Err(ParseError {
                message: "non-void method may fall off the end of its body".to_owned(),
                line: 0,
            });
        }
        self.b.finish();
        Ok(())
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { message, line: self.line }
    }

    fn local(&self, name: &str) -> Result<(Local, Option<ClassId>), ParseError> {
        self.locals.get(name).copied().ok_or_else(|| self.err(format!("unknown local `{name}`")))
    }

    fn label(&mut self, name: &'t str) -> &mut (Label, bool) {
        let b = &mut self.b;
        self.labels.entry(name).or_insert_with(|| (b.fresh_label(), false))
    }

    /// The label named at the cursor, which the statement jumps to.
    fn target(&mut self) -> Result<Label, ParseError> {
        let name = self.cur.ident("label name")?;
        Ok(self.label(name).0)
    }

    fn value(&mut self, o: Opnd<'t>) -> Result<Operand, ParseError> {
        Ok(Operand::Const(match o {
            Opnd::Local(n) => return Ok(Operand::Local(self.local(n)?.0)),
            Opnd::Int(v) => Constant::Int(v),
            Opnd::Str(s) => Constant::Str(self.b.program().intern(s)),
            Opnd::Null => Constant::Null,
            Opnd::Res(text) => Constant::Int(
                self.resources
                    .resolve(text)
                    .ok_or_else(|| self.err(format!("unresolved resource reference `{text}`")))?,
            ),
        }))
    }

    /// Parses and resolves one operand.
    fn operand(&mut self) -> Result<Operand, ParseError> {
        let o = self.cur.operand()?;
        self.value(o)
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let t = self.cur.ty()?;
        Ok(t.resolve(self.b.program()))
    }

    fn stmt(&mut self) -> Result<(), ParseError> {
        self.line = self.cur.line();
        if self.cur.eat_kw("let") {
            // Declared by `hoist_lets`.
            self.cur.ident("local name")?;
            self.cur.expect(&Tok::Colon, "`:`")?;
            self.cur.ty()?;
            return Ok(());
        }
        if self.cur.eat_kw("label") {
            let name = self.cur.ident("label name")?;
            self.cur.expect(&Tok::Colon, "`:`")?;
            let (l, declared) = self.label(name);
            if std::mem::replace(declared, true) {
                return Err(ParseError {
                    message: format!("label `{name}` declared twice"),
                    line: 0,
                });
            }
            let l = *l;
            self.b.bind(l);
            self.tail = Tail::Label;
            return Ok(());
        }
        self.b.line(self.line);
        self.tail = Tail::Open;
        if self.cur.eat_kw("goto") {
            let l = self.target()?;
            self.b.goto(l);
            self.tail = Tail::Jump;
        } else if self.cur.eat_kw("if") {
            if self.cur.eat_kw("opaque") {
                self.cur.expect_kw("goto")?;
                let l = self.target()?;
                self.b.if_opaque(l);
                return Ok(());
            }
            let x = self.cur.operand()?;
            let op = match self.cur.bump() {
                Some(t) => cmp_of(t).ok_or_else(|| {
                    self.cur.err(format!("expected comparison operator, found {t:?}"))
                })?,
                None => return Err(self.cur.err("unexpected end of input in `if`")),
            };
            let y = self.cur.operand()?;
            self.cur.expect_kw("goto")?;
            let l = self.target()?;
            let (x, y) = (self.value(x)?, self.value(y)?);
            self.b.if_cmp(op, x, y, l);
        } else if self.cur.eat_kw("return") {
            // `return` takes a value when an operand follows; an
            // identifier that starts a statement means a void return.
            let value = match self.cur.peek() {
                Some(Tok::Int(_) | Tok::Str(_) | Tok::Res(..) | Tok::Minus) => {
                    Some(self.operand()?)
                }
                Some(Tok::Ident(s)) if !is_stmt_keyword(s) => Some(self.operand()?),
                _ => None,
            };
            self.b.ret(value);
            self.tail = Tail::Jump;
        } else if self.cur.eat_kw("throw") {
            let v = self.operand()?;
            self.b.throw(v);
            self.tail = Tail::Jump;
        } else if self.cur.eat_kw("nop") {
            self.b.nop();
        } else if let Some(kind) = self.at_invoke() {
            self.invoke(None, kind)?;
        } else if self.cur.eat_kw("static") {
            // `static C.f = rhs` (static field store).
            let lhs = self.static_ref()?;
            self.cur.expect(&Tok::Assign, "`=`")?;
            self.assign(lhs)?;
        } else {
            // Assignments starting with a local.
            let name = self.cur.ident("statement")?;
            let lhs = if self.cur.eat(&Tok::Dot) {
                Target::Field(name, self.cur.ident("field name")?)
            } else if self.cur.eat(&Tok::LBracket) {
                let idx = self.cur.operand()?;
                self.cur.expect(&Tok::RBracket, "`]`")?;
                Target::Elem(name, idx)
            } else {
                Target::Local(name)
            };
            self.cur.expect(&Tok::Assign, "`=`")?;
            if let Some(kind) = self.at_invoke() {
                let Target::Local(result) = lhs else {
                    return Err(self.cur.err("invoke results must be assigned to a local"));
                };
                self.invoke(Some(result), kind)?;
            } else {
                self.assign(lhs)?;
            }
        }
        Ok(())
    }

    /// The kind of the invoke keyword at the cursor, if any (not consumed).
    fn at_invoke(&self) -> Option<InvokeKind> {
        match self.cur.peek() {
            Some(Tok::Ident(kw)) => invoke_kind(kw),
            _ => None,
        }
    }

    /// `Class.field` after `static`.
    fn static_ref(&mut self) -> Result<Target<'t>, ParseError> {
        let dotted = self.cur.dotted("static field reference")?;
        match dotted.rfind('.') {
            Some(dot) => Ok(Target::Static(dotted, dot)),
            None => Err(self.cur.err("static field reference needs `Class.field`")),
        }
    }

    /// Parses `kindinvoke [base.]<Class: Ret name(T1,T2)>(args)` after
    /// the keyword at the cursor. Parameter types, the return type and
    /// the arguments resolve before the class and the name.
    fn invoke(&mut self, result: Option<&'t str>, kind: InvokeKind) -> Result<(), ParseError> {
        self.cur.pos += 1;
        let base = if kind == InvokeKind::Static {
            None
        } else {
            let b = self.cur.ident("receiver local")?;
            self.cur.expect(&Tok::Dot, "`.`")?;
            Some(b)
        };
        self.cur.expect(&Tok::Lt, "`<` starting a signature")?;
        let class = self.cur.dotted("class name")?;
        self.cur.expect(&Tok::Colon, "`:`")?;
        let ret = self.cur.ty()?;
        let name = self.cur.method_name()?;
        self.cur.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.cur.eat(&Tok::RParen) {
            loop {
                params.push(self.ty()?);
                if self.cur.eat(&Tok::RParen) {
                    break;
                }
                self.cur.expect(&Tok::Comma, "`,`")?;
            }
        }
        self.cur.expect(&Tok::Gt, "`>` ending the signature")?;
        let ret = ret.resolve(self.b.program());
        self.cur.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::with_capacity(params.len());
        if !self.cur.eat(&Tok::RParen) {
            loop {
                args.push(self.operand()?);
                if self.cur.eat(&Tok::RParen) {
                    break;
                }
                self.cur.expect(&Tok::Comma, "`,`")?;
            }
        }
        if params.len() != args.len() {
            return Err(self.cur.err(format!(
                "signature has {} parameters but {} arguments given",
                params.len(),
                args.len()
            )));
        }
        let result = result.map(|r| self.local(r)).transpose()?.map(|(l, _)| l);
        let base = base.map(|b| self.local(b)).transpose()?.map(|(l, _)| l);
        let call = self.b.invoke_expr(kind, base, &class, &name, params, ret, args);
        self.b.push_invoke(result, call);
        Ok(())
    }

    /// Parses the right side of `lhs = …`, then resolves `lhs` and emits
    /// the assignment.
    fn assign(&mut self, lhs: Target<'t>) -> Result<(), ParseError> {
        let rv = self.rhs()?;
        let place = self.place(lhs)?;
        self.b.assign(place, rv);
        Ok(())
    }

    fn rhs(&mut self) -> Result<Rvalue, ParseError> {
        // Cast: `(T) x`.
        if self.cur.eat(&Tok::LParen) {
            let ty = self.cur.ty()?;
            self.cur.expect(&Tok::RParen, "`)`")?;
            let ty = ty.resolve(self.b.program());
            return Ok(Rvalue::Cast(ty, self.operand()?));
        }
        if self.cur.eat_kw("new") {
            let class = self.cur.dotted("class name")?;
            return Ok(Rvalue::New(self.b.program().class_id(&class)));
        }
        if self.cur.eat_kw("newarray") {
            let ty = self.ty()?;
            self.cur.expect(&Tok::LBracket, "`[`")?;
            let n = self.operand()?;
            self.cur.expect(&Tok::RBracket, "`]`")?;
            return Ok(Rvalue::NewArray(ty, n));
        }
        if self.cur.eat_kw("neg") {
            return Ok(Rvalue::UnOp(UnOp::Neg, self.operand()?));
        }
        if self.cur.eat_kw("lengthof") {
            return Ok(Rvalue::UnOp(UnOp::Len, self.operand()?));
        }
        if self.cur.eat_kw("static") {
            let src = self.static_ref()?;
            return Ok(Rvalue::Read(self.place(src)?));
        }
        // Operand-led: move, field read, array read, binop, instanceof.
        let first = self.cur.operand()?;
        if let Opnd::Local(base) = first {
            if self.cur.eat(&Tok::Dot) {
                let field = self.cur.ident("field name")?;
                return Ok(Rvalue::Read(self.place(Target::Field(base, field))?));
            }
            if self.cur.peek() == Some(&Tok::LBracket) && self.cur.peek2() != Some(&Tok::RBracket) {
                self.cur.pos += 1;
                let idx = self.cur.operand()?;
                self.cur.expect(&Tok::RBracket, "`]`")?;
                return Ok(Rvalue::Read(self.place(Target::Elem(base, idx))?));
            }
        }
        if self.cur.eat_kw("instanceof") {
            let ty = self.ty()?;
            return Ok(Rvalue::InstanceOf(self.value(first)?, ty));
        }
        if let Some(op) = self.cur.peek().and_then(binop_of) {
            self.cur.pos += 1;
            let second = self.cur.operand()?;
            return Ok(Rvalue::BinOp(op, self.value(first)?, self.value(second)?));
        }
        Ok(match self.value(first)? {
            Operand::Const(c) => Rvalue::Const(c),
            Operand::Local(l) => Rvalue::Read(Place::Local(l)),
        })
    }

    fn place(&mut self, t: Target<'t>) -> Result<Place, ParseError> {
        Ok(match t {
            Target::Local(n) => Place::Local(self.local(n)?.0),
            Target::Field(base, field) => {
                let (l, class) = self.local(base)?;
                Place::InstanceField(l, self.instance_field(class, field)?)
            }
            Target::Static(dotted, dot) => {
                Place::StaticField(self.static_field(&dotted[..dot], &dotted[dot + 1..])?)
            }
            Target::Elem(base, idx) => {
                let (l, _) = self.local(base)?;
                Place::ArrayElem(l, self.value(idx)?)
            }
        })
    }

    /// Resolves `base.field` against the class of `base`'s declared type,
    /// declaring the field on phantom classes when necessary (framework
    /// stubs).
    fn instance_field(
        &mut self,
        class: Option<ClassId>,
        field: &str,
    ) -> Result<FieldId, ParseError> {
        let Some(class) = class else {
            return Err(self.err(format!("field access `.{field}` on non-class type")));
        };
        let program = self.b.program();
        let sym = program.intern(field);
        if let Some(f) = program.resolve_field(class, sym) {
            return Ok(f);
        }
        if !program.class(class).is_declared() {
            let obj = program.ref_type("java.lang.Object");
            return Ok(program.declare_field(class, field, obj, false));
        }
        let class = program.class_name(class).to_owned();
        Err(self.err(format!("unknown field `{field}` on class {class}")))
    }

    fn static_field(&mut self, class: &str, field: &str) -> Result<FieldId, ParseError> {
        let program = self.b.program();
        let cid = program.class_id(class);
        let sym = program.intern(field);
        if let Some(f) = program.resolve_field(cid, sym) {
            return Ok(f);
        }
        if !program.class(cid).is_declared() {
            let obj = program.ref_type("java.lang.Object");
            return Ok(program.declare_field(cid, field, obj, true));
        }
        Err(self.err(format!("unknown static field `{field}` on class {class}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::ProgramPrinter;

    fn parse_ok(src: &str) -> Program {
        let mut p = Program::new();
        let rt = ResourceTable::new();
        parse_jasm(&mut p, &rt, src).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"));
        p
    }

    #[test]
    fn parses_minimal_class() {
        let p = parse_ok("class A {\n  method run() -> void {\n    return\n  }\n}");
        let a = p.find_class("A").unwrap();
        assert!(p.class(a).is_declared());
        let run = p.find_method("A", "run").unwrap();
        assert_eq!(p.method(run).body().unwrap().len(), 1);
    }

    #[test]
    fn parses_fields_and_statics() {
        let p = parse_ok(
            r#"
class B extends java.lang.Object {
  field name: java.lang.String
  static field count: int
  method set(n: java.lang.String) -> void {
    this.name = n
    static B.count = 3
    let c: int
    c = static B.count
    return
  }
}
"#,
        );
        let m = p.find_method("B", "set").unwrap();
        let text = ProgramPrinter::new(&p).method_to_string(m);
        assert!(text.contains("this.name = n"), "{text}");
        assert!(text.contains("B.count = 3"), "{text}");
        assert!(text.contains("c = B.count"), "{text}");
    }

    #[test]
    fn parses_invokes_and_branches() {
        let p = parse_ok(
            r#"
class C {
  method go(x: java.lang.String) -> java.lang.String {
    let y: java.lang.String
    y = staticinvoke <Env: java.lang.String source()>()
    if x == null goto out
    virtualinvoke y.<java.lang.String: void notify()>()
    goto out
  label out:
    return y
  }
}
"#,
        );
        let m = p.find_method("C", "go").unwrap();
        let body = p.method(m).body().unwrap();
        // y = source(); if; notify; goto; return
        assert_eq!(body.len(), 5);
        assert!(body.stmt(0).is_call());
        assert_eq!(body.cfg().succs(1), &[2, 4]);
    }

    #[test]
    fn parses_interface_and_abstract() {
        let p = parse_ok(
            r#"
interface I {
  method onEvent(d: java.lang.String) -> void
}
abstract class D implements I {
  abstract method helper() -> int
}
"#,
        );
        let i = p.find_class("I").unwrap();
        assert!(p.class(i).is_interface());
        let d = p.find_class("D").unwrap();
        assert!(p.class(d).is_abstract());
        assert!(p.is_subtype_of(d, i));
        let on_event = p.find_method("I", "onEvent").unwrap();
        assert!(!p.method(on_event).has_body());
    }

    #[test]
    fn parses_arrays_ops_and_casts() {
        let p = parse_ok(
            r#"
class E {
  method f(n: int) -> int {
    let a: int[]
    a = newarray int[n]
    a[0] = n
    let x: int
    x = a[0]
    x = x + 1
    x = neg x
    x = lengthof a
    let o: java.lang.Object
    let s: java.lang.String
    o = null
    s = (java.lang.String) o
    let t: boolean
    t = o instanceof java.lang.String
    return x
  }
}
"#,
        );
        let m = p.find_method("E", "f").unwrap();
        assert!(p.method(m).has_body());
    }

    #[test]
    fn parses_constructor_names() {
        let p = parse_ok(
            r#"
class F {
  method <init>(x: int) -> void {
    let u: F
    u = new F
    specialinvoke u.<F: void <init>(int)>(x)
    return
  }
}
"#,
        );
        assert!(p.find_method("F", "<init>").is_some());
    }

    #[test]
    fn resource_refs_resolve() {
        let layout = crate::layout::Layout::parse(
            "main",
            r#"<L><EditText android:id="@+id/pwd" android:inputType="textPassword"/></L>"#,
        )
        .unwrap();
        let rt = ResourceTable::from_layouts([&layout]);
        let mut p = Program::new();
        let src = r#"
class G {
  method f() -> int {
    let x: int
    x = @id/pwd
    return x
  }
}
"#;
        parse_jasm(&mut p, &rt, src).unwrap();
    }

    #[test]
    fn unresolved_resource_is_an_error() {
        let mut p = Program::new();
        let rt = ResourceTable::new();
        let err = parse_jasm(
            &mut p,
            &rt,
            "class H { method f() -> void { let x: int\n x = @id/nope\n return } }",
        )
        .unwrap_err();
        assert!(err.message.contains("unresolved resource"), "{err}");
    }

    #[test]
    fn unknown_local_is_an_error() {
        let mut p = Program::new();
        let rt = ResourceTable::new();
        let err = parse_jasm(&mut p, &rt, "class J { method f() -> void { x = 1\n return } }")
            .unwrap_err();
        assert!(err.message.contains("unknown local"), "{err}");
    }

    #[test]
    fn phantom_field_access_autodeclares() {
        let p = parse_ok(
            r#"
class K {
  method f() -> java.lang.Object {
    let x: java.lang.Object
    x = static android.os.Build.MODEL
    return x
  }
}
"#,
        );
        let build = p.find_class("android.os.Build").unwrap();
        assert!(!p.class(build).is_declared());
        assert_eq!(p.class(build).fields().len(), 1);
    }

    #[test]
    fn negative_ints_and_strings() {
        let p = parse_ok(
            "class L { method f() -> int { let x: int\n x = -5\n let s: java.lang.String\n s = \"a\\nb\"\n return x } }",
        );
        assert!(p.find_method("L", "f").is_some());
    }

    #[test]
    fn arg_count_mismatch_is_an_error() {
        let mut p = Program::new();
        let rt = ResourceTable::new();
        let err = parse_jasm(
            &mut p,
            &rt,
            "class M { method f() -> void { staticinvoke <X: void g(int)>()\n return } }",
        )
        .unwrap_err();
        assert!(err.message.contains("parameters"), "{err}");
    }

    #[test]
    fn line_numbers_are_recorded() {
        let p = parse_ok("class N {\n  method f() -> void {\n    nop\n    return\n  }\n}");
        let m = p.find_method("N", "f").unwrap();
        let body = p.method(m).body().unwrap();
        assert_eq!(body.line(0), 3);
        assert_eq!(body.line(1), 4);
    }

    fn parse_err(src: &str) -> ParseError {
        let mut p = Program::new();
        parse_jasm(&mut p, &ResourceTable::new(), src).unwrap_err()
    }

    #[test]
    fn dotted_names_may_have_spaces_around_dots() {
        let p = parse_ok(
            "class a . b.C extends java .lang. Object {\n  method <init >() -> void {\n    \
             let o: java . lang.Object\n    o = static x.Y . z\n    return\n  }\n}",
        );
        let c = p.find_class("a.b.C").unwrap();
        assert_eq!(p.class_name(p.class(c).superclass().unwrap()), "java.lang.Object");
        assert!(p.find_method("a.b.C", "<init>").is_some());
        let y = p.find_class("x.Y").unwrap();
        assert_eq!(p.class(y).fields().len(), 1);
    }

    #[test]
    fn error_messages_show_the_token_as_written() {
        let err = parse_err("class A {\n method f() -> void {\n x \"a\\nb\" \n } }");
        assert_eq!(
            err.to_string(),
            "jasm error at line 3: expected `=`, found Some(Str(\"a\\nb\"))"
        );
        let err = parse_err("class A { method f() -> void { x = @id/w } }");
        assert_eq!(err.message, "unresolved resource reference `@id/w`");
        let err = parse_err("class A { method f() -> void {\n return\n ");
        assert_eq!((err.message.as_str(), err.line), ("unterminated method body", 2));
    }

    #[test]
    fn superclass_cycles_are_errors() {
        let err = parse_err("class cyc.A extends cyc.B {}\nclass cyc.B extends cyc.A {}");
        assert_eq!((err.message.as_str(), err.line), ("class `cyc.A` is its own superclass", 1));
        let err = parse_err("class a.Ok {}\nclass a.Self extends a.Self {}");
        assert_eq!((err.message.as_str(), err.line), ("class `a.Self` is its own superclass", 2));
    }

    #[test]
    fn redeclarations_are_errors() {
        let err = parse_err("class A {}\nclass A {}");
        assert_eq!((err.message.as_str(), err.line), ("class `A` declared twice", 2));
        let err = parse_err("class A {\n field f: int\n field f: int\n}");
        assert_eq!((err.message.as_str(), err.line), ("field `f` on class A declared twice", 3));
        let err = parse_err("class A {\n native method f() -> void\n native method f() -> void\n}");
        assert_eq!((err.message.as_str(), err.line), ("method `f` on class A declared twice", 3));
    }
}
