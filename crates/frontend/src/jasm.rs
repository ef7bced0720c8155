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
//! The lexer yields 16-byte tokens: a kind, a byte span of the source
//! and a line. It scans identifier runs with a byte-class table and
//! checks string and integer literals as it goes, but decodes a string's
//! escapes or an integer's digits only where the parser uses them.
//!
//! A first walk over the tokens reads class headers and member
//! signatures, and walks each method body to its closing `}`, noting
//! where each `let name:` starts. Declarations then follow in a fixed
//! order, so that every class, method, field and interned name gets the
//! same id whatever the file holds: all class headers in file order,
//! then each class's fields and method signatures, then the bodies.
//! Each body first declares its parameters and, visiting only the noted
//! positions, its `let`s; then it is parsed statement by statement
//! straight into a [`MethodBuilder`], stepping over each declared `let`.
//!
//! A per-parse memo maps the text of a class name or a member name to
//! its `ClassId` or `Symbol`, so the program's interner sees each
//! distinct name about once per parse, first occurrences in source
//! order; a repeated `let t: java.lang.String` costs a compare, not a
//! SipHash lookup.

use crate::layout::ResourceTable;
use flowdroid_ir::{
    BinOp, ClassId, CmpOp, Constant, FieldId, FxHashMap, FxHasher, InvokeExpr, InvokeKind, Label,
    Local, MethodBuilder, MethodId, MethodRef, Operand, Place, Program, Rvalue, SubSig, Symbol,
    Type, UnOp,
};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hasher;
use std::ops::Range;

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
    let (toks, let_words) = lex(src)?;
    let mut lets = Vec::with_capacity(let_words);
    let classes = Cursor { src, toks: &toks, pos: 0 }.classes(&mut lets)?;
    let mut names = Names::new();
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
            f.declare(program, &mut names, cid)?;
        }
        for m in &c.methods {
            methods.push((m.declare(program, &mut names, cid)?, m));
        }
    }
    for (mid, m) in methods {
        if let Some(pos) = m.body {
            let cur = Cursor { src, toks: &toks, pos };
            let lets = &mut lets[m.lets.clone()];
            BodyParser::new(program, resources, &mut names, cur, mid, m, lets)?.parse()?;
        }
    }
    Ok(ids)
}

// ===================== Lexer =====================

/// What a token is. The names are the ones error messages show.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Ident,
    Int,
    Str,
    /// `@kind/name` resource reference.
    Res,
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

/// A token: its kind, its text as a byte span of the source and its
/// line. An `Int`'s span is its digits as written, a `Str`'s the bytes
/// between its quotes with escapes undecoded, a `Res`'s the whole
/// `@kind/name`.
#[derive(Clone, Copy)]
struct Token {
    kind: Kind,
    start: u32,
    end: u32,
    line: u32,
}

/// Byte classes of [`CLASS`]: letters, digits and `_` continue every
/// identifier-like run and `$` continues identifiers only; `SPACE` is
/// blank space within a line.
const WORD: u8 = 1;
const DOLLAR: u8 = 2;
const SPACE: u8 = 4;

/// The class of each byte.
static CLASS: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let c = i as u8;
        if c.is_ascii_alphanumeric() || c == b'_' {
            t[i] = WORD;
        } else if c == b'$' {
            t[i] = DOLLAR;
        } else if c == b' ' || c == b'\t' || c == b'\r' {
            t[i] = SPACE;
        }
        i += 1;
    }
    t
};

/// The one-byte token each punctuation byte starts; the lexer then
/// checks for the two-byte operators and `//`.
static PUNCT: [Option<Kind>; 256] = {
    let mut t = [None; 256];
    t[b'{' as usize] = Some(Kind::LBrace);
    t[b'}' as usize] = Some(Kind::RBrace);
    t[b'(' as usize] = Some(Kind::LParen);
    t[b')' as usize] = Some(Kind::RParen);
    t[b'[' as usize] = Some(Kind::LBracket);
    t[b']' as usize] = Some(Kind::RBracket);
    t[b':' as usize] = Some(Kind::Colon);
    t[b',' as usize] = Some(Kind::Comma);
    t[b'.' as usize] = Some(Kind::Dot);
    t[b'=' as usize] = Some(Kind::Assign);
    t[b'<' as usize] = Some(Kind::Lt);
    t[b'>' as usize] = Some(Kind::Gt);
    t[b'+' as usize] = Some(Kind::Plus);
    t[b'-' as usize] = Some(Kind::Minus);
    t[b'*' as usize] = Some(Kind::Star);
    t[b'/' as usize] = Some(Kind::Slash);
    t[b'%' as usize] = Some(Kind::Percent);
    t[b'&' as usize] = Some(Kind::Amp);
    t[b'|' as usize] = Some(Kind::Pipe);
    t[b'^' as usize] = Some(Kind::Caret);
    t
};

/// The end of the run of `class` bytes starting at `i`.
fn run(b: &[u8], mut i: usize, class: u8) -> usize {
    while i < b.len() && CLASS[b[i] as usize] & class != 0 {
        i += 1;
    }
    i
}

/// `s` with its `_` digit separators removed.
fn without_underscores(s: &str) -> Cow<'_, str> {
    if s.contains('_') {
        Cow::Owned(s.replace('_', ""))
    } else {
        Cow::Borrowed(s)
    }
}

/// The value of an integer literal as written: decimal, or hexadecimal
/// after `0x`, with `_` separators; `None` if it is malformed or does
/// not fit an `i64`.
fn int_value(text: &str) -> Option<i64> {
    match text.strip_prefix("0x") {
        Some(hex) => i64::from_str_radix(&without_underscores(hex), 16).ok(),
        None => without_underscores(text).parse().ok(),
    }
}

/// The text of a string literal whose source between the quotes is
/// `raw`: `\n` and `\t` decoded, any other escaped byte taken as is,
/// and every byte read as Latin-1, one `char` per byte. Borrows `raw`
/// when it holds no escape and no non-ASCII byte.
fn unescape(raw: &str) -> Cow<'_, str> {
    let b = raw.as_bytes();
    if b.iter().all(|&c| c.is_ascii() && c != b'\\') {
        return Cow::Borrowed(raw);
    }
    let mut s = String::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        // The lexer pairs every `\` inside a literal with the byte after.
        if b[i] == b'\\' {
            s.push(match b[i + 1] {
                b'n' => '\n',
                b't' => '\t',
                other => other as char,
            });
            i += 2;
        } else {
            s.push(b[i] as char);
            i += 1;
        }
    }
    Cow::Owned(s)
}

/// The tokens of `src`, with the number of `let` identifiers among them.
fn lex(src: &str) -> Result<(Vec<Token>, usize), ParseError> {
    let err = |msg: &str, line: u32| ParseError { message: msg.to_owned(), line };
    if u32::try_from(src.len()).is_err() {
        return Err(err("source larger than 4 GiB", 1));
    }
    let b = src.as_bytes();
    // Room for a token every other byte: real code has about one per
    // three or four, so the vector is never regrown.
    let mut out = Vec::with_capacity(b.len() / 2);
    let mut i = 0;
    let mut line: u32 = 1;
    let mut let_words = 0;
    let to_line_end = |i: usize| b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |n| i + n);
    while let Some(&c) = b.get(i) {
        let class = CLASS[c as usize];
        if class & SPACE != 0 {
            i += 1;
            continue;
        }
        let start = i;
        i += 1;
        let kind = if class & (WORD | DOLLAR) != 0 && !c.is_ascii_digit() {
            i = run(b, i, WORD | DOLLAR);
            let_words += usize::from(&b[start..i] == b"let");
            Kind::Ident
        } else if let Some(one) = PUNCT[c as usize] {
            let two = match (c, b.get(i)) {
                (b'-', Some(b'>')) => Kind::Arrow,
                (b'=', Some(b'=')) => Kind::EqEq,
                (b'<', Some(b'=')) => Kind::Le,
                (b'>', Some(b'=')) => Kind::Ge,
                (b'<', Some(b'<')) => Kind::Shl,
                (b'>', Some(b'>')) => Kind::Shr,
                (b'/', Some(b'/')) => {
                    i = to_line_end(i);
                    continue;
                }
                _ => one,
            };
            if two != one {
                i += 1;
            }
            two
        } else {
            match c {
                b'\n' => {
                    line += 1;
                    continue;
                }
                b'#' => {
                    i = to_line_end(i);
                    continue;
                }
                b'!' if b.get(i) == Some(&b'=') => {
                    i += 1;
                    Kind::Ne
                }
                b'"' => {
                    // Escaped line breaks: the literal keeps the line it
                    // starts on, the tokens after it count them.
                    let mut breaks = 0;
                    loop {
                        match b.get(i) {
                            None => return Err(err("unterminated string literal", line)),
                            Some(b'"') => break,
                            Some(b'\\') if i + 1 < b.len() => {
                                breaks += u32::from(b[i + 1] == b'\n');
                                i += 2;
                            }
                            Some(b'\n') => return Err(err("newline in string literal", line)),
                            Some(_) => i += 1,
                        }
                    }
                    i += 1;
                    // The span is the text between the quotes.
                    out.push(Token {
                        kind: Kind::Str,
                        start: start as u32 + 1,
                        end: i as u32 - 1,
                        line,
                    });
                    line += breaks;
                    continue;
                }
                b'@' => {
                    let kind_end = run(b, i, WORD);
                    if b.get(kind_end) != Some(&b'/') {
                        return Err(err("expected '/' in resource reference", line));
                    }
                    let name_end = run(b, kind_end + 1, WORD);
                    if kind_end == i || name_end == kind_end + 1 {
                        return Err(err("malformed resource reference", line));
                    }
                    i = name_end;
                    Kind::Res
                }
                b'0'..=b'9' => {
                    i = run(b, i, WORD);
                    let digits = &b[start..i];
                    // Up to 18 decimal digits always fit; check the rest.
                    if !(digits.len() <= 18 && digits.iter().all(u8::is_ascii_digit))
                        && int_value(&src[start..i]).is_none()
                    {
                        let msg = format!("bad integer literal `{}`", &src[start..i]);
                        return Err(err(&msg, line));
                    }
                    Kind::Int
                }
                other => {
                    let msg = format!("unexpected character `{}`", other as char);
                    return Err(err(&msg, line));
                }
            }
        };
        out.push(Token { kind, start: start as u32, end: i as u32, line });
    }
    Ok((out, let_words))
}

/// A token as error messages show it: the `Debug` form of its kind with
/// the decoded value, as in `Ident("x")`, `Int(5)`, `Str("a\nb")`,
/// `Res("id", "w")` or `Arrow`.
struct Shown<'t> {
    kind: Kind,
    text: &'t str,
}

impl fmt::Debug for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            Kind::Ident => f.debug_tuple("Ident").field(&self.text).finish(),
            Kind::Int => f.debug_tuple("Int").field(&int_value(self.text).unwrap_or(0)).finish(),
            Kind::Str => f.debug_tuple("Str").field(&unescape(self.text)).finish(),
            Kind::Res => {
                let (kind, name) = self.text[1..].split_once('/').unwrap_or_default();
                f.debug_tuple("Res").field(&kind).field(&name).finish()
            }
            kind => fmt::Debug::fmt(&kind, f),
        }
    }
}

/// The words with a meaning inside method bodies and types.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kw {
    Let,
    Label,
    Goto,
    If,
    Opaque,
    Return,
    Throw,
    Nop,
    Static,
    Invoke(InvokeKind),
    New,
    NewArray,
    Neg,
    LengthOf,
    InstanceOf,
    Cmp,
    Null,
    Void,
    Boolean,
    Byte,
    Char,
    Short,
    Int,
    Long,
    Float,
    Double,
}

/// The keyword `word` spells, if any: one switch on its length, first
/// and last byte, which no two keywords share, then one compare.
fn keyword(word: &[u8]) -> Option<Kw> {
    let (kw, text) = match (word.len(), *word.first()?, *word.last()?) {
        (3, b'l', b't') => (Kw::Let, "let"),
        (5, b'l', b'l') => (Kw::Label, "label"),
        (4, b'g', b'o') => (Kw::Goto, "goto"),
        (2, b'i', b'f') => (Kw::If, "if"),
        (6, b'o', b'e') => (Kw::Opaque, "opaque"),
        (6, b'r', b'n') => (Kw::Return, "return"),
        (5, b't', b'w') => (Kw::Throw, "throw"),
        (3, b'n', b'p') => (Kw::Nop, "nop"),
        (6, b's', b'c') => (Kw::Static, "static"),
        (13, b'v', b'e') => (Kw::Invoke(InvokeKind::Virtual), "virtualinvoke"),
        (15, b'i', b'e') => (Kw::Invoke(InvokeKind::Interface), "interfaceinvoke"),
        (13, b's', b'e') => (Kw::Invoke(InvokeKind::Special), "specialinvoke"),
        (12, b's', b'e') => (Kw::Invoke(InvokeKind::Static), "staticinvoke"),
        (3, b'n', b'w') => (Kw::New, "new"),
        (8, b'n', b'y') => (Kw::NewArray, "newarray"),
        (3, b'n', b'g') => (Kw::Neg, "neg"),
        (8, b'l', b'f') => (Kw::LengthOf, "lengthof"),
        (10, b'i', b'f') => (Kw::InstanceOf, "instanceof"),
        (3, b'c', b'p') => (Kw::Cmp, "cmp"),
        (4, b'n', b'l') => (Kw::Null, "null"),
        (4, b'v', b'd') => (Kw::Void, "void"),
        (7, b'b', b'n') => (Kw::Boolean, "boolean"),
        (4, b'b', b'e') => (Kw::Byte, "byte"),
        (4, b'c', b'r') => (Kw::Char, "char"),
        (5, b's', b't') => (Kw::Short, "short"),
        (3, b'i', b't') => (Kw::Int, "int"),
        (4, b'l', b'g') => (Kw::Long, "long"),
        (5, b'f', b't') => (Kw::Float, "float"),
        (6, b'd', b'e') => (Kw::Double, "double"),
        _ => return None,
    };
    (word == text.as_bytes()).then_some(kw)
}

// ===================== Resolved names =====================

/// Slots of each [`Names`] memo.
const MEMO_SLOTS: usize = 64;

/// The per-parse memo of resolved names: the last class name and the
/// last member name or string seen in each of a few direct-mapped
/// slots, with the `ClassId` or `Symbol` the program gave it. A hit
/// skips the program's interner (SipHash, kept for keys read from
/// untrusted apps); a miss, or a slot shared by two names, resolves
/// through it as before. Resolving a name the program already holds
/// changes nothing, so ids come out as without the memo. Only names
/// that borrow the source are memoized.
struct Names<'t> {
    classes: [Option<(&'t str, ClassId)>; MEMO_SLOTS],
    symbols: [Option<(&'t str, Symbol)>; MEMO_SLOTS],
}

/// The memo slot of `text`.
fn slot(text: &str) -> usize {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    (h.finish() >> 58) as usize
}

impl<'t> Names<'t> {
    fn new() -> Self {
        Names { classes: [None; MEMO_SLOTS], symbols: [None; MEMO_SLOTS] }
    }

    /// The class named `name`, a phantom if the program has none yet.
    fn class(&mut self, program: &mut Program, name: Cow<'t, str>) -> ClassId {
        let name = match name {
            Cow::Borrowed(name) => name,
            Cow::Owned(name) => return program.class_id(&name),
        };
        let entry = &mut self.classes[slot(name)];
        match *entry {
            Some((text, id)) if text == name => id,
            _ => {
                let id = program.class_id(name);
                *entry = Some((name, id));
                id
            }
        }
    }

    /// `text` interned.
    fn symbol(&mut self, program: &mut Program, text: Cow<'t, str>) -> Symbol {
        let text = match text {
            Cow::Borrowed(text) => text,
            Cow::Owned(text) => return program.intern(&text),
        };
        let entry = &mut self.symbols[slot(text)];
        match *entry {
            Some((seen, sym)) if seen == text => sym,
            _ => {
                let sym = program.intern(text);
                *entry = Some((text, sym));
                sym
            }
        }
    }

    fn ty(&mut self, program: &mut Program, t: &TypeRef<'t>) -> Type {
        let mut ty = match &t.base {
            Ok(prim) => prim.clone(),
            Err(name) => Type::Ref(self.class(program, name.clone())),
        };
        for _ in 0..t.dims {
            ty = ty.array_of();
        }
        ty
    }
}

// ===================== Token cursor =====================

/// A type as written: a primitive or a class name, with its array depth.
struct TypeRef<'t> {
    /// `Ok` for a primitive, `Err` with the class name otherwise.
    base: Result<Type, Cow<'t, str>>,
    dims: usize,
}

/// An operand as written, resolved once its turn comes.
#[derive(Clone, Copy)]
enum Opnd<'t> {
    Local(&'t str),
    Int(i64),
    /// The literal's source between its quotes.
    Str(&'t str),
    Null,
    /// The whole `@kind/name` text.
    Res(&'t str),
}

#[derive(Clone, Copy)]
struct Cursor<'t> {
    src: &'t str,
    toks: &'t [Token],
    pos: usize,
}

impl<'t> Cursor<'t> {
    fn line(&self) -> u32 {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map_or(0, |t| t.line)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { message: msg.into(), line: self.line() }
    }

    fn text(&self, t: Token) -> &'t str {
        &self.src[t.start as usize..t.end as usize]
    }

    /// The token's bytes, for comparisons that need no `&str`.
    fn bytes(&self, t: Token) -> &'t [u8] {
        &self.src.as_bytes()[t.start as usize..t.end as usize]
    }

    fn kind_at(&self, i: usize) -> Option<Kind> {
        self.toks.get(i).map(|t| t.kind)
    }

    fn peek(&self) -> Option<Kind> {
        self.kind_at(self.pos)
    }

    fn peek2(&self) -> Option<Kind> {
        self.kind_at(self.pos + 1)
    }

    /// The token at `i` as error messages show it.
    fn shown(&self, i: usize) -> Option<Shown<'t>> {
        self.toks.get(i).map(|&t| Shown { kind: t.kind, text: self.text(t) })
    }

    /// The token at the cursor as error messages show it.
    fn found(&self) -> Option<Shown<'t>> {
        self.shown(self.pos)
    }

    /// The identifier at the cursor, if any (not consumed).
    fn peek_ident(&self) -> Option<&'t str> {
        match self.toks.get(self.pos) {
            Some(&t) if t.kind == Kind::Ident => Some(self.text(t)),
            _ => None,
        }
    }

    fn eat(&mut self, k: Kind) -> bool {
        if self.peek() == Some(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: Kind, what: &str) -> Result<(), ParseError> {
        if self.eat(k) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.found())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'t str, ParseError> {
        match self.peek_ident() {
            Some(s) => {
                self.pos += 1;
                Ok(s)
            }
            None => Err(self.err(format!("expected {what}, found {:?}", self.found()))),
        }
    }

    /// The keyword at the cursor, if any (not consumed).
    fn kw(&self) -> Option<Kw> {
        match self.toks.get(self.pos) {
            Some(&t) if t.kind == Kind::Ident => keyword(self.bytes(t)),
            _ => None,
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek_ident() == Some(kw)
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
            Err(self.err(format!("expected `{kw}`, found {:?}", self.found())))
        }
    }

    /// Dotted name: `a.b.c`. Borrows the source unless whitespace or a
    /// comment sits around a dot.
    fn dotted(&mut self, what: &str) -> Result<Cow<'t, str>, ParseError> {
        let start = self.pos;
        let first = self.ident(what)?;
        let mut len = first.len();
        // Only consume a dot if an identifier follows.
        while self.peek() == Some(Kind::Dot) && self.peek2() == Some(Kind::Ident) {
            let t = self.toks[self.pos + 1];
            len += 1 + (t.end - t.start) as usize;
            self.pos += 2;
        }
        if self.pos == start + 1 {
            return Ok(Cow::Borrowed(first));
        }
        let span = self.toks[start].start as usize..self.toks[self.pos - 1].end as usize;
        if span.len() == len {
            return Ok(Cow::Borrowed(&self.src[span]));
        }
        let segments = self.toks[start..self.pos]
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|&t| self.text(t));
        Ok(Cow::Owned(segments.collect::<Vec<_>>().join(".")))
    }

    fn ty(&mut self) -> Result<TypeRef<'t>, ParseError> {
        if self.peek() != Some(Kind::Ident) {
            return Err(self.err(format!("expected type, found {:?}", self.found())));
        }
        let prim = match self.kw() {
            Some(Kw::Void) => Some(Type::Void),
            Some(Kw::Boolean) => Some(Type::Boolean),
            Some(Kw::Byte) => Some(Type::Byte),
            Some(Kw::Char) => Some(Type::Char),
            Some(Kw::Short) => Some(Type::Short),
            Some(Kw::Int) => Some(Type::Int),
            Some(Kw::Long) => Some(Type::Long),
            Some(Kw::Float) => Some(Type::Float),
            Some(Kw::Double) => Some(Type::Double),
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
        while self.peek() == Some(Kind::LBracket) && self.peek2() == Some(Kind::RBracket) {
            self.pos += 2;
            dims += 1;
        }
        Ok(TypeRef { base, dims })
    }

    /// A method name, possibly `<init>` or `<clinit>`.
    fn method_name(&mut self) -> Result<Cow<'t, str>, ParseError> {
        if !self.eat(Kind::Lt) {
            return self.ident("method name").map(Cow::Borrowed);
        }
        let lt = self.toks[self.pos - 1].start as usize;
        let n = self.ident("constructor name")?;
        self.expect(Kind::Gt, "`>`")?;
        // `<init>` written without spaces is a slice of the source.
        let span = lt..self.toks[self.pos - 1].end as usize;
        Ok(if span.len() == n.len() + 2 {
            Cow::Borrowed(&self.src[span])
        } else {
            Cow::Owned(format!("<{n}>"))
        })
    }

    fn operand(&mut self) -> Result<Opnd<'t>, ParseError> {
        let Some(&t) = self.toks.get(self.pos) else {
            return Err(self.err("expected operand, found None"));
        };
        let text = self.text(t);
        let o = match t.kind {
            Kind::Ident if text == "null" => Opnd::Null,
            Kind::Ident => Opnd::Local(text),
            Kind::Int => Opnd::Int(int_value(text).unwrap_or(0)),
            Kind::Minus => {
                self.pos += 2;
                return match self.toks.get(self.pos - 1) {
                    Some(&t) if t.kind == Kind::Int => {
                        Ok(Opnd::Int(-int_value(self.text(t)).unwrap_or(0)))
                    }
                    _ => Err(self.err(format!(
                        "expected integer after `-`, found {:?}",
                        self.shown(self.pos - 1)
                    ))),
                };
            }
            Kind::Str => Opnd::Str(text),
            Kind::Res => Opnd::Res(text),
            _ => return Err(self.err(format!("expected operand, found {:?}", self.found()))),
        };
        self.pos += 1;
        Ok(o)
    }

    /// The binary operator at the cursor, if any (not consumed).
    fn binop(&self) -> Option<BinOp> {
        Some(match self.peek()? {
            Kind::Plus => BinOp::Add,
            Kind::Minus => BinOp::Sub,
            Kind::Star => BinOp::Mul,
            Kind::Slash => BinOp::Div,
            Kind::Percent => BinOp::Rem,
            Kind::Amp => BinOp::And,
            Kind::Pipe => BinOp::Or,
            Kind::Caret => BinOp::Xor,
            Kind::Shl => BinOp::Shl,
            Kind::Shr => BinOp::Shr,
            Kind::Ident if self.kw() == Some(Kw::Cmp) => BinOp::Cmp,
            _ => return None,
        })
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
    /// The body's `let name:` positions: a range of the parse's list.
    lets: Range<usize>,
    /// The lines between the body's braces, but no more than its
    /// tokens: about its statement count plus its `let`s when each
    /// statement has a line of its own, and never more than it can hold.
    lines: usize,
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

impl<'t> FieldDecl<'t> {
    fn declare(
        &self,
        program: &mut Program,
        names: &mut Names<'t>,
        class: ClassId,
    ) -> Result<(), ParseError> {
        let ty = names.ty(program, &self.ty);
        let name = program.intern(self.name);
        if program.class(class).field_by_name(name).is_some() {
            let what = format!("field `{}` on class {}", self.name, program.class_name(class));
            return Err(declared_twice(what, self.line));
        }
        program.declare_field(class, self.name, ty, self.is_static);
        Ok(())
    }
}

impl<'t> MethodDecl<'t> {
    fn declare(
        &self,
        program: &mut Program,
        names: &mut Names<'t>,
        class: ClassId,
    ) -> Result<MethodId, ParseError> {
        let params = self.params.iter().map(|(_, t)| names.ty(program, t)).collect();
        let ret = names.ty(program, &self.ret);
        let sig = SubSig { name: names.symbol(program, self.name.clone()), params, ret };
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
    /// Every class of the file. Each body's `let name:` positions are
    /// pushed to `lets`, each as `(position, 0)`.
    fn classes(mut self, lets: &mut Vec<(u32, u32)>) -> Result<Vec<ClassDecl<'t>>, ParseError> {
        let mut classes = Vec::new();
        while self.peek().is_some() {
            classes.push(self.class(lets)?);
        }
        Ok(classes)
    }

    fn class(&mut self, lets: &mut Vec<(u32, u32)>) -> Result<ClassDecl<'t>, ParseError> {
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
            while is_interface && self.eat(Kind::Comma) {
                implements.push(self.dotted("interface name")?);
            }
        }
        if self.eat_kw("implements") {
            implements.push(self.dotted("interface name")?);
            while self.eat(Kind::Comma) {
                implements.push(self.dotted("interface name")?);
            }
        }
        self.expect(Kind::LBrace, "`{`")?;
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
        while !self.eat(Kind::RBrace) {
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
                self.expect(Kind::Colon, "`:`")?;
                let ty = self.ty()?;
                class.fields.push(FieldDecl { name, line, ty, is_static });
            } else if self.eat_kw("method") {
                let mut m = self.method(line, is_static, is_native, is_abs || is_interface)?;
                let first = lets.len();
                let ended = m.body.is_none() || self.skip_body(&mut m, lets);
                m.lets = first..lets.len();
                class.methods.push(m);
                // A body that runs to the end of input is the last thing
                // in the file; parsing it reports the error.
                if !ended {
                    return Ok(class);
                }
            } else {
                return Err(
                    self.err(format!("expected `field` or `method`, found {:?}", self.found()))
                );
            }
        }
        Ok(class)
    }

    /// Steps past the body of `m` to just after its closing `}`, pushing
    /// the position of each `let name:` on the way. No statement contains
    /// a `}`, so a body ends at the first one. Returns `false`, with the
    /// cursor at the end, if the input ends first.
    fn skip_body(&mut self, m: &mut MethodDecl<'t>, lets: &mut Vec<(u32, u32)>) -> bool {
        let (toks, src) = (self.toks, self.src.as_bytes());
        let open = toks[self.pos - 1].line;
        for (i, t) in toks.iter().enumerate().skip(self.pos) {
            match t.kind {
                Kind::RBrace => {
                    m.lines = (t.line.saturating_sub(open + 1) as usize).min(i - self.pos);
                    self.pos = i + 1;
                    return true;
                }
                Kind::Ident
                    if t.end - t.start == 3
                        && &src[t.start as usize..t.end as usize] == b"let"
                        && self.kind_at(i + 1) == Some(Kind::Ident)
                        && self.kind_at(i + 2) == Some(Kind::Colon) =>
                {
                    lets.push((i as u32, 0));
                }
                _ => {}
            }
        }
        self.pos = toks.len();
        false
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
        self.expect(Kind::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.eat(Kind::RParen) {
            loop {
                let pname = self.ident("parameter name")?;
                self.expect(Kind::Colon, "`:`")?;
                params.push((pname, self.ty()?));
                if self.eat(Kind::RParen) {
                    break;
                }
                self.expect(Kind::Comma, "`,`")?;
            }
        }
        self.expect(Kind::Arrow, "`->`")?;
        let ret = self.ty()?;
        let body = if is_native || is_abstract {
            None
        } else {
            self.expect(Kind::LBrace, "`{`")?;
            Some(self.pos)
        };
        Ok(MethodDecl {
            name,
            line,
            params,
            ret,
            is_static,
            is_native,
            is_abstract,
            body,
            lets: 0..0,
            lines: 0,
        })
    }
}

// ===================== Method bodies =====================

fn cmp_of(k: Kind) -> Option<CmpOp> {
    match k {
        Kind::EqEq => Some(CmpOp::Eq),
        Kind::Ne => Some(CmpOp::Ne),
        Kind::Lt => Some(CmpOp::Lt),
        Kind::Le => Some(CmpOp::Le),
        Kind::Gt => Some(CmpOp::Gt),
        Kind::Ge => Some(CmpOp::Ge),
        _ => None,
    }
}

/// Whether `kw` starts a statement.
fn starts_stmt(kw: Option<Kw>) -> bool {
    matches!(
        kw,
        Some(
            Kw::Let
                | Kw::Label
                | Kw::Goto
                | Kw::If
                | Kw::Return
                | Kw::Throw
                | Kw::Nop
                | Kw::Static
                | Kw::Invoke(_)
        )
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
    names: &'p mut Names<'t>,
    /// Each local with the class of its declared type, if a class type.
    locals: FxHashMap<&'t str, (Local, Option<ClassId>)>,
    /// Each label mentioned so far and whether it was declared.
    labels: FxHashMap<&'t str, (Label, bool)>,
    /// The body's `let name:` positions, each with the position just
    /// past its type once declared (0 for one inside another's type).
    lets: &'p [(u32, u32)],
    /// The first entry of `lets` not behind the cursor.
    next_let: usize,
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
        names: &'p mut Names<'t>,
        cur: Cursor<'t>,
        mid: MethodId,
        m: &MethodDecl<'t>,
        lets: &'p mut [(u32, u32)],
    ) -> Result<Self, ParseError> {
        let method = program.method(mid);
        let returns_void = method.subsig().ret == Type::Void;
        let mut locals = FxHashMap::default();
        locals.reserve(1 + m.params.len() + lets.len());
        if !method.is_static() {
            locals.insert("this", (Local(0), Some(method.class())));
        }
        let mut b = MethodBuilder::for_method(program, mid);
        // One more statement for an implicit return or a closing label's
        // `nop`.
        b.reserve(lets.len(), m.lines.saturating_sub(lets.len()) + 1);
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
            names,
            locals,
            labels: FxHashMap::default(),
            lets: &[],
            next_let: 0,
            returns_void,
            line: 0,
            tail: Tail::Open,
        };
        p.hoist_lets(lets)?;
        p.lets = lets;
        Ok(p)
    }
}

impl<'t> BodyParser<'_, 't> {
    /// Declares every `let name: T` of the body, in order, before any
    /// statement is parsed: a local may be used above its `let`. Only a
    /// `let` statement puts `let`, a name and `:` in a row, except where
    /// a type swallows them (`let a: let b: T` declares `a` of class
    /// `let`), so a position inside the type before it is passed over.
    fn hoist_lets(&mut self, lets: &mut [(u32, u32)]) -> Result<(), ParseError> {
        let mut next = 0;
        for (pos, end) in lets {
            let at = *pos as usize;
            if at < next {
                continue;
            }
            let name = self.cur.text(self.cur.toks[at + 1]);
            let Entry::Vacant(slot) = self.locals.entry(name) else {
                return Err(ParseError {
                    message: format!("local `{name}` declared twice"),
                    line: self.cur.toks[at].line,
                });
            };
            let mut c = Cursor { pos: at + 3, ..self.cur };
            let ty = c.ty()?;
            let ty = self.names.ty(self.b.program(), &ty);
            let class = ty.as_class();
            slot.insert((self.b.local(name, ty), class));
            next = c.pos;
            *end = next as u32;
        }
        Ok(())
    }

    /// Where the `let` at the cursor ends, if `hoist_lets` declared it.
    fn hoisted_let_end(&mut self) -> Option<usize> {
        let pos = self.cur.pos;
        while self.lets.get(self.next_let).is_some_and(|&(at, _)| (at as usize) < pos) {
            self.next_let += 1;
        }
        match self.lets.get(self.next_let) {
            Some(&(at, end)) if at as usize == pos && end != 0 => Some(end as usize),
            _ => None,
        }
    }

    fn parse(mut self) -> Result<(), ParseError> {
        while !self.cur.eat(Kind::RBrace) {
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
            Opnd::Str(raw) => Constant::Str(self.names.symbol(self.b.program(), unescape(raw))),
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
        Ok(self.names.ty(self.b.program(), &t))
    }

    fn stmt(&mut self) -> Result<(), ParseError> {
        self.line = self.cur.line();
        let kw = self.cur.kw();
        if kw == Some(Kw::Let) {
            // Declared by `hoist_lets`; any other `let` is malformed.
            if let Some(end) = self.hoisted_let_end() {
                self.cur.pos = end;
                return Ok(());
            }
            self.cur.pos += 1;
            self.cur.ident("local name")?;
            self.cur.expect(Kind::Colon, "`:`")?;
            self.cur.ty()?;
            return Ok(());
        }
        if kw == Some(Kw::Label) {
            self.cur.pos += 1;
            let name = self.cur.ident("label name")?;
            self.cur.expect(Kind::Colon, "`:`")?;
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
        match kw {
            Some(Kw::Goto) => {
                self.cur.pos += 1;
                let l = self.target()?;
                self.b.goto(l);
                self.tail = Tail::Jump;
            }
            Some(Kw::If) => {
                self.cur.pos += 1;
                if self.cur.kw() == Some(Kw::Opaque) {
                    self.cur.pos += 1;
                    self.cur.expect_kw("goto")?;
                    let l = self.target()?;
                    self.b.if_opaque(l);
                    return Ok(());
                }
                let x = self.cur.operand()?;
                let op = match self.cur.peek() {
                    Some(k) => {
                        self.cur.pos += 1;
                        cmp_of(k).ok_or_else(|| {
                            let t = self.cur.shown(self.cur.pos - 1);
                            self.cur.err(format!(
                                "expected comparison operator, found {:?}",
                                t.expect("a token was read")
                            ))
                        })?
                    }
                    None => {
                        self.cur.pos += 1;
                        return Err(self.cur.err("unexpected end of input in `if`"));
                    }
                };
                let y = self.cur.operand()?;
                self.cur.expect_kw("goto")?;
                let l = self.target()?;
                let (x, y) = (self.value(x)?, self.value(y)?);
                self.b.if_cmp(op, x, y, l);
            }
            Some(Kw::Return) => {
                self.cur.pos += 1;
                // `return` takes a value when an operand follows; an
                // identifier that starts a statement means a void return.
                let value = match self.cur.peek() {
                    Some(Kind::Int | Kind::Str | Kind::Res | Kind::Minus) => Some(self.operand()?),
                    Some(Kind::Ident) if !starts_stmt(self.cur.kw()) => Some(self.operand()?),
                    _ => None,
                };
                self.b.ret(value);
                self.tail = Tail::Jump;
            }
            Some(Kw::Throw) => {
                self.cur.pos += 1;
                let v = self.operand()?;
                self.b.throw(v);
                self.tail = Tail::Jump;
            }
            Some(Kw::Nop) => {
                self.cur.pos += 1;
                self.b.nop();
            }
            Some(Kw::Static) => {
                // `static C.f = rhs` (static field store).
                self.cur.pos += 1;
                let lhs = self.static_ref()?;
                self.cur.expect(Kind::Assign, "`=`")?;
                self.assign(lhs)?;
            }
            Some(Kw::Invoke(kind)) => self.invoke(None, kind)?,
            _ => self.assignment()?,
        }
        Ok(())
    }

    /// An assignment starting with a local.
    fn assignment(&mut self) -> Result<(), ParseError> {
        let name = self.cur.ident("statement")?;
        let lhs = if self.cur.eat(Kind::Dot) {
            Target::Field(name, self.cur.ident("field name")?)
        } else if self.cur.eat(Kind::LBracket) {
            let idx = self.cur.operand()?;
            self.cur.expect(Kind::RBracket, "`]`")?;
            Target::Elem(name, idx)
        } else {
            Target::Local(name)
        };
        self.cur.expect(Kind::Assign, "`=`")?;
        match self.cur.kw() {
            Some(Kw::Invoke(kind)) => {
                let Target::Local(result) = lhs else {
                    return Err(self.cur.err("invoke results must be assigned to a local"));
                };
                self.invoke(Some(result), kind)
            }
            _ => self.assign(lhs),
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
            self.cur.expect(Kind::Dot, "`.`")?;
            Some(b)
        };
        self.cur.expect(Kind::Lt, "`<` starting a signature")?;
        let class = self.cur.dotted("class name")?;
        self.cur.expect(Kind::Colon, "`:`")?;
        let ret = self.cur.ty()?;
        let name = self.cur.method_name()?;
        self.cur.expect(Kind::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.cur.eat(Kind::RParen) {
            loop {
                params.push(self.ty()?);
                if self.cur.eat(Kind::RParen) {
                    break;
                }
                self.cur.expect(Kind::Comma, "`,`")?;
            }
        }
        self.cur.expect(Kind::Gt, "`>` ending the signature")?;
        let ret = self.names.ty(self.b.program(), &ret);
        self.cur.expect(Kind::LParen, "`(`")?;
        let mut args = Vec::with_capacity(params.len());
        if !self.cur.eat(Kind::RParen) {
            loop {
                args.push(self.operand()?);
                if self.cur.eat(Kind::RParen) {
                    break;
                }
                self.cur.expect(Kind::Comma, "`,`")?;
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
        let class = self.names.class(self.b.program(), class);
        let name = self.names.symbol(self.b.program(), name);
        let callee = MethodRef { class, subsig: SubSig { name, params, ret } };
        self.b.push_invoke(result, InvokeExpr { kind, base, callee, args });
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
        if self.cur.eat(Kind::LParen) {
            let ty = self.cur.ty()?;
            self.cur.expect(Kind::RParen, "`)`")?;
            let ty = self.names.ty(self.b.program(), &ty);
            return Ok(Rvalue::Cast(ty, self.operand()?));
        }
        match self.cur.kw() {
            Some(Kw::New) => {
                self.cur.pos += 1;
                let class = self.cur.dotted("class name")?;
                return Ok(Rvalue::New(self.names.class(self.b.program(), class)));
            }
            Some(Kw::NewArray) => {
                self.cur.pos += 1;
                let ty = self.ty()?;
                self.cur.expect(Kind::LBracket, "`[`")?;
                let n = self.operand()?;
                self.cur.expect(Kind::RBracket, "`]`")?;
                return Ok(Rvalue::NewArray(ty, n));
            }
            Some(Kw::Neg) => {
                self.cur.pos += 1;
                return Ok(Rvalue::UnOp(UnOp::Neg, self.operand()?));
            }
            Some(Kw::LengthOf) => {
                self.cur.pos += 1;
                return Ok(Rvalue::UnOp(UnOp::Len, self.operand()?));
            }
            Some(Kw::Static) => {
                self.cur.pos += 1;
                let src = self.static_ref()?;
                return Ok(Rvalue::Read(self.place(src)?));
            }
            _ => {}
        }
        // Operand-led: move, field read, array read, binop, instanceof.
        let first = self.cur.operand()?;
        if let Opnd::Local(base) = first {
            if self.cur.eat(Kind::Dot) {
                let field = self.cur.ident("field name")?;
                return Ok(Rvalue::Read(self.place(Target::Field(base, field))?));
            }
            if self.cur.peek() == Some(Kind::LBracket) && self.cur.peek2() != Some(Kind::RBracket) {
                self.cur.pos += 1;
                let idx = self.cur.operand()?;
                self.cur.expect(Kind::RBracket, "`]`")?;
                return Ok(Rvalue::Read(self.place(Target::Elem(base, idx))?));
            }
        }
        if self.cur.kw() == Some(Kw::InstanceOf) {
            self.cur.pos += 1;
            let ty = self.ty()?;
            return Ok(Rvalue::InstanceOf(self.value(first)?, ty));
        }
        if let Some(op) = self.cur.binop() {
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
            Target::Static(dotted, dot) => Place::StaticField(self.static_field(dotted, dot)?),
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
        field: &'t str,
    ) -> Result<FieldId, ParseError> {
        let Some(class) = class else {
            return Err(self.err(format!("field access `.{field}` on non-class type")));
        };
        let program = self.b.program();
        let sym = self.names.symbol(program, Cow::Borrowed(field));
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

    /// Resolves `Class.field`, its last dot at `dot`.
    fn static_field(&mut self, dotted: Cow<'t, str>, dot: usize) -> Result<FieldId, ParseError> {
        let program = self.b.program();
        let (cid, sym) = match dotted {
            Cow::Borrowed(s) => (
                self.names.class(program, Cow::Borrowed(&s[..dot])),
                self.names.symbol(program, Cow::Borrowed(&s[dot + 1..])),
            ),
            Cow::Owned(ref s) => (program.class_id(&s[..dot]), program.intern(&s[dot + 1..])),
        };
        let (class, field) = (&dotted[..dot], &dotted[dot + 1..]);
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

    /// The constants `f`'s body assigns, in order.
    fn constants(p: &Program, class: &str) -> Vec<Constant> {
        let m = p.find_method(class, "f").unwrap();
        let body = p.method(m).body().unwrap();
        body.stmts()
            .iter()
            .filter_map(|s| match s {
                flowdroid_ir::Stmt::Assign { rhs: Rvalue::Const(c), .. } => Some(c.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn every_keyword_is_recognised_and_nothing_else() {
        let words = [
            "let",
            "label",
            "goto",
            "if",
            "opaque",
            "return",
            "throw",
            "nop",
            "static",
            "virtualinvoke",
            "interfaceinvoke",
            "specialinvoke",
            "staticinvoke",
            "new",
            "newarray",
            "neg",
            "lengthof",
            "instanceof",
            "cmp",
            "null",
            "void",
            "boolean",
            "byte",
            "char",
            "short",
            "int",
            "long",
            "float",
            "double",
        ];
        let kws: Vec<Kw> = words.iter().map(|w| keyword(w.as_bytes()).expect(w)).collect();
        for (i, a) in kws.iter().enumerate() {
            assert!(kws[i + 1..].iter().all(|b| b != a), "{} shares a keyword", words[i]);
        }
        for other in ["lat", "Let", "lett", "i", "nul", "int_", "staticinvokE", "class", "t1"] {
            assert!(keyword(other.as_bytes()).is_none(), "{other}");
        }
    }

    #[test]
    fn tokens_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Token>(), 16);
    }

    #[test]
    fn string_literals_decode_escapes_and_latin1_bytes() {
        // `\n`, `\t`, an escaped quote and backslash, an unknown escape
        // taken as its byte, and `é` (two UTF-8 bytes) read as Latin-1.
        let src = "class S { method f() -> void {\n let s: java.lang.String\n \
                   s = \"a\\nb\\tc\\\"d\\\\e\\qf\"\n s = \"caf\u{e9}\"\n s = \"plain\"\n return } }";
        let p = parse_ok(src);
        let text: Vec<String> = constants(&p, "S")
            .into_iter()
            .map(|c| match c {
                Constant::Str(sym) => p.str(sym).to_owned(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(text, ["a\nb\tc\"d\\eqf", "caf\u{c3}\u{a9}", "plain"]);
    }

    #[test]
    fn an_escaped_newline_stays_in_the_string_and_counts_as_a_line() {
        let src = "class S { method f() -> void {\n let s: java.lang.String\n s = \"a\\\nb\"\n \
                   x = 1\n return } }";
        let err = parse_err(src);
        // The escaped line break is part of the literal and still ends
        // source line 3, so `x = 1` is on line 5.
        assert_eq!((err.message.as_str(), err.line), ("unknown local `x`", 5));
        // A literal that starts on line 3 is reported there.
        let err = parse_err(
            "class S { method f() -> void {\n let s: java.lang.String\n \"a\\\nb\"\n return } }",
        );
        assert_eq!(err.line, 3, "{}", err.message);
        let p = parse_ok("class S { method f() -> void {\n let s: java.lang.String\n s = \"a\\\nb\"\n return } }");
        assert!(matches!(constants(&p, "S")[..], [Constant::Str(sym)] if p.str(sym) == "a\nb"));
    }

    #[test]
    fn integer_literals_take_hex_and_underscores() {
        let src = "class I { method f() -> void {\n let x: long\n x = 0x1F\n x = 1_000\n \
                   x = 0x_ff_ff\n x = -0x10\n x = 9223372036854775807\n x = 007\n return } }";
        let p = parse_ok(src);
        let got: Vec<Constant> = constants(&p, "I");
        let want = [31, 1000, 0xffff, -16, i64::MAX, 7].map(Constant::Int);
        assert_eq!(got, want);
        for bad in ["0x", "0xg1", "12ab", "9223372036854775808", "0X1F", "1__x"] {
            let src = format!("class I {{ method f() -> void {{\n let x: long\n x = {bad}\n }} }}");
            let err = parse_err(&src);
            assert_eq!(
                (err.message, err.line),
                (format!("bad integer literal `{bad}`"), 3),
                "{bad}"
            );
        }
    }

    #[test]
    fn resource_references_are_checked_as_lexed() {
        let cases = [
            ("@id", "expected '/' in resource reference"),
            ("@id pwd", "expected '/' in resource reference"),
            ("@/pwd", "malformed resource reference"),
            ("@id/", "malformed resource reference"),
            ("@id/nope", "unresolved resource reference `@id/nope`"),
            ("@layout/main_2", "unresolved resource reference `@layout/main_2`"),
        ];
        for (text, message) in cases {
            let src = format!("class R {{ method f() -> void {{\n let x: int\n x = {text}\n }} }}");
            let err = parse_err(&src);
            assert_eq!((err.message.as_str(), err.line), (message, 3), "{text}");
        }
    }

    #[test]
    fn errors_show_each_token_kind_as_written() {
        let found = |stmt: &str| {
            let err = parse_err(&format!("class A {{ method f() -> void {{\n x {stmt}\n }} }}"));
            err.message
        };
        assert_eq!(found("12"), "expected `=`, found Some(Int(12))");
        assert_eq!(found("0x_1f"), "expected `=`, found Some(Int(31))");
        assert_eq!(found("@id/w"), "expected `=`, found Some(Res(\"id\", \"w\"))");
        assert_eq!(found("\"caf\u{e9}\""), "expected `=`, found Some(Str(\"caf\u{c3}\u{a9}\"))");
        assert_eq!(found("-> y"), "expected `=`, found Some(Arrow)");
        assert_eq!(found("<< y"), "expected `=`, found Some(Shl)");
        assert_eq!(found("!= y"), "expected `=`, found Some(Ne)");
        assert_eq!(found("y"), "expected `=`, found Some(Ident(\"y\"))");
        let err = parse_err("class A { method f() -> void {\n if x ; y goto l\n } }");
        assert_eq!(err.message, "unexpected character `;`");
        let err = parse_err("class A { method f() -> void {\n let x: int\n if x + 1 goto l\n } }");
        assert_eq!(err.message, "expected comparison operator, found Plus");
        let err = parse_err("class A { method f() -> void {\n let x: int\n x = - y\n } }");
        assert_eq!(err.message, "expected integer after `-`, found Some(Ident(\"y\"))");
    }

    #[test]
    fn an_error_at_the_end_of_input_has_the_last_tokens_line() {
        let cases = [
            (
                "class A { method f() -> void {\n let x: int\n x =",
                "expected operand, found None",
                3,
            ),
            (
                "class A { method f() -> void {\n let x: int\n x = 1\n\n\n",
                "unterminated method body",
                3,
            ),
            ("class A {\n field f: int\n\n", "unterminated class body", 2),
            ("class A {\n method f(\n", "expected parameter name, found None", 2),
            ("class A { method f() -> void {\n if 1 ==", "expected operand, found None", 2),
            (
                "class A { method f() -> void {\n let x: int\n x = -",
                "expected integer after `-`, found None",
                3,
            ),
        ];
        for (src, message, line) in cases {
            let err = parse_err(src);
            assert_eq!((err.message.as_str(), err.line), (message, line), "{src:?}");
        }
        let err = parse_err("class A { method f() -> void {\n nop\n x = \"open");
        assert_eq!((err.message.as_str(), err.line), ("unterminated string literal", 3));
        let err = parse_err("class A { method f() -> void {\n x = \"a\nb\" } }");
        assert_eq!((err.message.as_str(), err.line), ("newline in string literal", 2));
    }

    #[test]
    fn lets_are_declared_once_however_they_are_spelled() {
        // `let` may open a type (`a` has class `let`), a `let` inside a
        // type is not declared, and a local may be used above its `let`.
        let p = parse_ok(
            "class L { static method f() -> void {\n let a: let\n b = a\n let b: let\n return } }",
        );
        let m = p.find_method("L", "f").unwrap();
        let body = p.method(m).body().unwrap();
        let names: Vec<&str> = body.locals().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let err = parse_err("class L { method f() -> void {\n let a: let b: int\n return } }");
        assert_eq!((err.message.as_str(), err.line), ("expected `=`, found Some(Colon)", 2));
        let err = parse_err("class L { method f(a: int) -> void {\n nop\n let a: int\n } }");
        assert_eq!((err.message.as_str(), err.line), ("local `a` declared twice", 3));
        let err = parse_err("class L { method f() -> void {\n let 5\n } }");
        assert_eq!(err.message, "expected local name, found Some(Int(5))");
    }

    #[test]
    fn names_resolve_to_the_same_ids_as_first_met() {
        // Every repeat of a name maps to the id its first use minted.
        let p = parse_ok(
            "class N { static method f() -> void {\n let a: x.Y\n let b: x.Y\n let c: x . Y\n \
             a = new x.Y\n b = static x.Y.g\n c = static x . Y . g\n return } }",
        );
        let y = p.find_class("x.Y").unwrap();
        assert_eq!(p.class(y).fields().len(), 1);
        let m = p.find_method("N", "f").unwrap();
        let body = p.method(m).body().unwrap();
        assert!(body.locals().iter().all(|l| l.ty == Type::Ref(y)), "{:?}", body.locals());
    }
}
