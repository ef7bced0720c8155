//! The `platform.fdps` snapshot: the platform model serialized once,
//! loaded at daemon boot, shared read-only across jobs.
//!
//! [`install_platform`] declares ~100 stub
//! classes into a fresh program; every analysis job used to pay that
//! cost again. A [`PlatformSnapshot`] freezes the result — the whole
//! platform [`Program`] plus the [`PlatformInfo`] handles — so the
//! daemon can decode it once (or build it once) and hand each job a
//! cheap clone.
//!
//! Layout (all integers little-endian; a `str` is a u32 byte length
//! followed by UTF-8 bytes):
//!
//! ```text
//! magic        4 bytes   "FDPS"
//! version      u32       currently 1
//! class_count  u32
//! per class (in arena order, so decoding reproduces identical ids):
//!   name         str
//!   flags        u8      1=interface 2=abstract 4=declared
//!   super        u8 0/1, then str (name) if present
//!   iface_count  u32 + strs
//! field_count  u32
//! per field (arena order): class u32, name str, desc str, static u8
//! method_count u32
//! per method (arena order):
//!   class u32, name str, ret desc str, param_count u32 + desc strs,
//!   flags u8 (1=static 2=native 4=abstract)
//! info: object/activity/service/receiver/provider u32,
//!   callback_count u32 + u32s, stub_count u32 + sorted u32s
//! checksum     u64       FNV-1a 64 of every preceding byte
//! ```
//!
//! Types are encoded as SDEX-style JVM descriptors (`I`, `Lfoo;`,
//! `[J`). Every decode path is bounds-checked and returns
//! [`SnapshotError::Corrupt`] instead of panicking; callers fall back
//! to an eager [`install_platform`] on any
//! error, so a damaged snapshot file degrades performance, never
//! correctness.

use crate::platform::{install_platform, PlatformInfo};
use flowdroid_frontend::sdex::{parse_type_descriptor, type_descriptor};
use flowdroid_ir::{fnv1a64, ClassId, FxHashSet, MethodId, Program, ProgramBase, SubSig};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// File magic.
pub const MAGIC: [u8; 4] = *b"FDPS";

/// Current snapshot format version.
pub const VERSION: u32 = 1;

/// A frozen platform model: the stub program and its handles.
///
/// The program lives behind a shared [`ProgramBase`] so each job takes a
/// copy-on-write [`PlatformSnapshot::overlay_program`] instead of a deep
/// clone.
#[derive(Debug)]
pub struct PlatformSnapshot {
    /// The frozen platform declarations, shared across jobs.
    pub base: Arc<ProgramBase>,
    /// Handles into that program.
    pub info: PlatformInfo,
}

impl PlatformSnapshot {
    /// A cheap job-local copy-on-write program over the shared platform
    /// base. Arena ids and symbols are numerically identical to a deep
    /// clone, so analysis output cannot depend on which one a job uses.
    pub fn overlay_program(&self) -> Program {
        Program::overlay(Arc::clone(&self.base))
    }

    /// A flat deep copy of the platform program (the comparison path for
    /// determinism tests; jobs use [`PlatformSnapshot::overlay_program`]).
    pub fn deep_program(&self) -> Program {
        Program::thaw(&self.base)
    }
}

/// Errors raised while loading or decoding a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Structurally invalid snapshot bytes (truncation, bit rot,
    /// version mismatch, bad indices).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Builds the platform snapshot from scratch (a fresh program +
/// [`install_platform`]).
pub fn build_snapshot() -> PlatformSnapshot {
    let mut program = Program::new();
    let info = install_platform(&mut program);
    PlatformSnapshot { base: program.freeze(), info }
}

// ================= encoding =================

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string too long for snapshot"));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Encodes a snapshot to `platform.fdps` bytes.
pub fn encode_snapshot(snap: &PlatformSnapshot) -> Vec<u8> {
    encode_parts(&snap.overlay_program(), &snap.info)
}

fn encode_parts(p: &Program, info: &PlatformInfo) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);

    w.u32(u32::try_from(p.class_count()).expect("class count"));
    for c in p.classes() {
        w.str(p.str(c.name()));
        let mut flags = 0u8;
        if c.is_interface() {
            flags |= 1;
        }
        if c.is_abstract() {
            flags |= 2;
        }
        if c.is_declared() {
            flags |= 4;
        }
        w.u8(flags);
        match c.superclass() {
            Some(s) => {
                w.u8(1);
                let name = p.class_name(s).to_owned();
                w.str(&name);
            }
            None => w.u8(0),
        }
        w.u32(u32::try_from(c.interfaces().len()).expect("iface count"));
        for &i in c.interfaces() {
            let name = p.class_name(i).to_owned();
            w.str(&name);
        }
    }

    w.u32(u32::try_from(p.field_count()).expect("field count"));
    for f in p.fields() {
        w.u32(u32::try_from(f.class().index()).expect("class id"));
        w.str(p.str(f.name()));
        w.str(&type_descriptor(p, f.ty()));
        w.u8(u8::from(f.is_static()));
    }

    w.u32(u32::try_from(p.method_count()).expect("method count"));
    for m in p.methods() {
        w.u32(u32::try_from(m.class().index()).expect("class id"));
        w.str(p.str(m.name()));
        w.str(&type_descriptor(p, &m.subsig().ret));
        w.u32(u32::try_from(m.subsig().params.len()).expect("param count"));
        for t in &m.subsig().params {
            w.str(&type_descriptor(p, t));
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
        w.u8(flags);
    }

    for id in [info.object, info.activity, info.service, info.receiver, info.provider] {
        w.u32(u32::try_from(id.index()).expect("class id"));
    }
    w.u32(u32::try_from(info.callback_interfaces.len()).expect("callback count"));
    for &c in &info.callback_interfaces {
        w.u32(u32::try_from(c.index()).expect("class id"));
    }
    let mut stubs: Vec<u32> =
        info.stub_methods.iter().map(|m| u32::try_from(m.index()).expect("method id")).collect();
    stubs.sort_unstable();
    w.u32(u32::try_from(stubs.len()).expect("stub count"));
    for s in stubs {
        w.u32(s);
    }

    let checksum = fnv1a64(&w.buf);
    w.buf.extend_from_slice(&checksum.to_le_bytes());
    w.buf
}

// ================= decoding =================

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn corrupt<T>(&self, msg: impl Into<String>) -> Result<T, SnapshotError> {
        Err(SnapshotError::Corrupt(format!("{} (at byte {})", msg.into(), self.pos)))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return self.corrupt("unexpected end of file");
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a count prefixing elements of at least `min_elem_size`
    /// bytes, rejecting counts the remaining input cannot hold.
    fn count(&mut self, min_elem_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.bytes.len() - self.pos {
            return self.corrupt("count exceeds remaining input");
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        if len > self.bytes.len() - self.pos {
            return self.corrupt("string length exceeds remaining input");
        }
        let bytes = self.take(len)?;
        match String::from_utf8(bytes.to_vec()) {
            Ok(s) => Ok(s),
            Err(_) => self.corrupt("string is not valid UTF-8"),
        }
    }
}

/// Decodes `platform.fdps` bytes into a snapshot.
///
/// Classes, fields and methods are replayed in arena order, so the
/// resulting ids are identical to the program [`encode_snapshot`] read
/// from — and therefore to a fresh
/// [`install_platform`].
///
/// # Errors
///
/// Returns [`SnapshotError::Corrupt`] on bad magic, version mismatch,
/// checksum mismatch, truncation or any structural inconsistency.
pub fn decode_snapshot(bytes: &[u8]) -> Result<PlatformSnapshot, SnapshotError> {
    if bytes.len() < 16 || bytes[..4] != MAGIC {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let payload_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[payload_end..].try_into().unwrap());
    if fnv1a64(&bytes[..payload_end]) != stored {
        return Err(SnapshotError::Corrupt("checksum mismatch".into()));
    }
    let mut r = Reader { bytes: &bytes[..payload_end], pos: 4 };
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::Corrupt(format!("unsupported version {version}")));
    }

    struct ClassRec {
        flags: u8,
        superclass: Option<String>,
        interfaces: Vec<String>,
    }

    let nclasses = r.count(6)?;
    let mut program = Program::new();
    let mut recs = Vec::with_capacity(nclasses);
    let mut names = Vec::with_capacity(nclasses);
    for i in 0..nclasses {
        let name = r.str()?;
        let flags = r.u8()?;
        let superclass = if r.u8()? == 1 { Some(r.str()?) } else { None };
        let nifaces = r.count(4)?;
        let mut interfaces = Vec::with_capacity(nifaces);
        for _ in 0..nifaces {
            interfaces.push(r.str()?);
        }
        // Create the class now so arena ids follow record order exactly.
        let cid = program.class_id(&name);
        if cid.index() != i {
            return r.corrupt(format!("duplicate class name `{name}`"));
        }
        names.push(name);
        recs.push(ClassRec { flags, superclass, interfaces });
    }
    // Declare after all ids exist: declaration only references known
    // names, so no new arena slots appear.
    for (i, rec) in recs.iter().enumerate() {
        if rec.flags & 4 == 0 {
            if rec.flags & 1 != 0 || rec.superclass.is_some() || !rec.interfaces.is_empty() {
                return r.corrupt("phantom class with declaration data");
            }
            continue;
        }
        let ifaces: Vec<&str> = rec.interfaces.iter().map(String::as_str).collect();
        let cid = if rec.flags & 1 != 0 {
            program.declare_interface(&names[i], &ifaces)
        } else {
            program.declare_class(&names[i], rec.superclass.as_deref(), &ifaces)
        };
        if rec.flags & 2 != 0 {
            program.set_abstract(cid, true);
        }
    }
    if program.class_count() != nclasses {
        return r.corrupt("class declarations referenced unknown classes");
    }

    let class_at = |idx: u32| -> Result<ClassId, SnapshotError> {
        if (idx as usize) < nclasses {
            Ok(ClassId::from_index(idx as usize))
        } else {
            Err(SnapshotError::Corrupt(format!("class index {idx} out of range")))
        }
    };

    let nfields = r.count(10)?;
    for i in 0..nfields {
        let class = class_at(r.u32()?)?;
        let name = r.str()?;
        let desc = r.str()?;
        let is_static = match r.u8()? {
            0 => false,
            1 => true,
            _ => return r.corrupt("bad field static flag"),
        };
        let Some(ty) = parse_type_descriptor(&mut program, &desc) else {
            return r.corrupt(format!("bad field descriptor `{desc}`"));
        };
        // declare_field panics on duplicates; reject corrupt input first.
        // A name absent from the interner cannot clash with anything.
        if let Some(sym) = program.lookup_symbol(&name) {
            if program.class(class).field_by_name(sym).is_some() {
                return r.corrupt(format!("duplicate field `{name}`"));
            }
        }
        let fid = program.declare_field(class, &name, ty, is_static);
        if fid.index() != i {
            return r.corrupt("field arena order mismatch");
        }
    }

    let nmethods = r.count(14)?;
    for i in 0..nmethods {
        let class = class_at(r.u32()?)?;
        let name = r.str()?;
        let ret_desc = r.str()?;
        let Some(ret) = parse_type_descriptor(&mut program, &ret_desc) else {
            return r.corrupt(format!("bad return descriptor `{ret_desc}`"));
        };
        let nparams = r.count(5)?;
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            let d = r.str()?;
            let Some(t) = parse_type_descriptor(&mut program, &d) else {
                return r.corrupt(format!("bad parameter descriptor `{d}`"));
            };
            params.push(t);
        }
        let flags = r.u8()?;
        if flags > 7 {
            return r.corrupt("bad method flags");
        }
        // declare_method panics on duplicate subsignatures; reject
        // corrupt input first.
        if let Some(sym) = program.lookup_symbol(&name) {
            let subsig = SubSig { name: sym, params: params.clone(), ret: ret.clone() };
            if program.class(class).method_by_subsig(&subsig).is_some() {
                return r.corrupt(format!("duplicate method `{name}`"));
            }
        }
        let mid = program.declare_method(class, &name, params, ret, flags & 1 != 0);
        if mid.index() != i {
            return r.corrupt("method arena order mismatch");
        }
        if flags & 2 != 0 {
            program.set_native(mid, true);
        }
        if flags & 4 != 0 {
            program.set_method_abstract(mid, true);
        }
    }
    if program.class_count() != nclasses {
        return r.corrupt("descriptors referenced unknown classes");
    }

    let mut core = [ClassId::from_index(0); 5];
    for slot in core.iter_mut() {
        *slot = class_at(r.u32()?)?;
    }
    let ncallbacks = r.count(4)?;
    let mut callback_interfaces = Vec::with_capacity(ncallbacks);
    for _ in 0..ncallbacks {
        callback_interfaces.push(class_at(r.u32()?)?);
    }
    let nstubs = r.count(4)?;
    let mut stub_methods = FxHashSet::default();
    for _ in 0..nstubs {
        let idx = r.u32()? as usize;
        if idx >= nmethods {
            return r.corrupt(format!("stub method index {idx} out of range"));
        }
        stub_methods.insert(MethodId::from_index(idx));
    }
    if r.pos != payload_end {
        return r.corrupt("trailing bytes after snapshot payload");
    }

    let [object, activity, service, receiver, provider] = core;
    Ok(PlatformSnapshot {
        base: program.freeze(),
        info: PlatformInfo {
            object,
            activity,
            service,
            receiver,
            provider,
            callback_interfaces,
            stub_methods,
        },
    })
}

/// Writes a snapshot to `path` (atomically via a sibling temp file).
pub fn save_snapshot(path: &Path, snap: &PlatformSnapshot) -> std::io::Result<()> {
    let bytes = encode_snapshot(snap);
    let tmp = path.with_extension("fdps.tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

/// Loads a snapshot from `path`.
///
/// # Errors
///
/// Returns [`SnapshotError`] on IO failures or corrupt contents.
pub fn load_snapshot(path: &Path) -> Result<PlatformSnapshot, SnapshotError> {
    let bytes = std::fs::read(path)?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reproduces_install_platform_ids() {
        let snap = build_snapshot();
        let bytes = encode_snapshot(&snap);
        let decoded = decode_snapshot(&bytes).expect("round trip");

        // Ids and counts are identical to a fresh install_platform.
        assert_eq!(decoded.base.class_count(), snap.base.class_count());
        assert_eq!(decoded.base.method_count(), snap.base.method_count());
        assert_eq!(decoded.base.field_count(), snap.base.field_count());
        assert_eq!(decoded.info.object, snap.info.object);
        assert_eq!(decoded.info.activity, snap.info.activity);
        assert_eq!(decoded.info.service, snap.info.service);
        assert_eq!(decoded.info.receiver, snap.info.receiver);
        assert_eq!(decoded.info.provider, snap.info.provider);
        assert_eq!(decoded.info.callback_interfaces, snap.info.callback_interfaces);
        assert_eq!(decoded.info.stub_methods, snap.info.stub_methods);

        // Every method signature string matches, which pins down names,
        // descriptors, classes and arena order at once.
        let sp = snap.overlay_program();
        let dp = decoded.overlay_program();
        for m in sp.methods() {
            assert_eq!(dp.signature(m.id()), sp.signature(m.id()));
        }

        // Re-encoding the decoded snapshot is byte-identical.
        assert_eq!(encode_snapshot(&decoded), bytes);
    }

    #[test]
    fn overlay_and_deep_programs_agree() {
        let snap = build_snapshot();
        let over = snap.overlay_program();
        let deep = snap.deep_program();
        assert!(over.is_overlay());
        assert!(!deep.is_overlay());
        assert_eq!(over.class_count(), deep.class_count());
        assert_eq!(over.method_count(), deep.method_count());
        for m in deep.methods() {
            assert_eq!(over.signature(m.id()), deep.signature(m.id()));
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let snap = build_snapshot();
        let mut bytes = encode_snapshot(&snap);
        bytes[4] = 99; // version low byte
        // Fix up the checksum so only the version differs.
        let end = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        match decode_snapshot(&bytes) {
            Err(SnapshotError::Corrupt(m)) => assert!(m.contains("version"), "{m}"),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let snap = build_snapshot();
        let bytes = encode_snapshot(&snap);
        // Exhaustive truncation is quadratic in snapshot size; stride
        // keeps the test fast while covering every section.
        for cut in (0..bytes.len()).step_by(97).chain([1, 3, 7, bytes.len() - 1]) {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected_or_checksum_caught() {
        let snap = build_snapshot();
        let bytes = encode_snapshot(&snap);
        for pos in (0..bytes.len()).step_by(211) {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x40;
            assert!(
                decode_snapshot(&mutated).is_err(),
                "bit flip at {pos} must not decode (checksum guards the payload)"
            );
        }
    }
}
