//! Sources and sinks (SuSi-style lists, paper §5) plus UI-based sources.
//!
//! The manager is configured from a simple textual format, one entry
//! per line:
//!
//! ```text
//! <android.telephony.TelephonyManager: java.lang.String getDeviceId()> -> _SOURCE_
//! <android.location.LocationListener: void onLocationChanged(android.location.Location)> -> _SOURCE_PARAM_0_
//! <android.telephony.SmsManager: void sendTextMessage(...)> -> _SINK_
//! <android.util.Log: int i(java.lang.String,java.lang.String)> -> _SINK_PARAM_1_
//! ```
//!
//! * `_SOURCE_` — the call's return value is tainted;
//! * `_SOURCE_PARAM_i_` — parameter `i` of any method *overriding* this
//!   signature is tainted at method entry (framework-invoked callbacks:
//!   location updates, received intents, …);
//! * `_SINK_` / `_SINK_PARAM_i_` — tainted data reaching (specific)
//!   arguments of the call leaks;
//! * `_SANITIZER_` — the call's return value is clean even when its
//!   arguments are tainted (an extension beyond the paper, which lacked
//!   sanitizer support).
//!
//! UI sources (password fields) cannot be expressed as signatures: they
//! are detected as `findViewById(<id>)` calls whose constant id names a
//! password widget in a layout file (paper §2, §5).

use flowdroid_ir::{ClassId, Constant, FxHashMap, InvokeExpr, MethodId, Operand, Program, SubSig};
use std::collections::HashSet;
use std::fmt;

/// A parse error for source/sink definition text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSinkParseError {
    /// Description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
}

impl fmt::Display for SourceSinkParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "source/sink definition error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SourceSinkParseError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    SourceReturn,
    SourceParam(usize),
    SinkAll,
    SinkParam(usize),
    Sanitizer,
}

/// The default Android source/sink definitions used by the app
/// pipeline. Mirrors the relevant subset of the SuSi-derived lists the
/// paper ships: identifiers and location as sources; SMS, logs,
/// network, preferences and intent sending as sinks; intent reception
/// as a source.
pub const DEFAULT_ANDROID_DEFS: &str = r#"
# --- sources: unique identifiers and sensors ---
<android.telephony.TelephonyManager: java.lang.String getDeviceId()> -> _SOURCE_
<android.telephony.TelephonyManager: java.lang.String getSimSerialNumber()> -> _SOURCE_
<android.telephony.TelephonyManager: java.lang.String getLine1Number()> -> _SOURCE_
<android.location.Location: double getLatitude()> -> _SOURCE_
<android.location.Location: double getLongitude()> -> _SOURCE_
<android.location.LocationManager: android.location.Location getLastKnownLocation(java.lang.String)> -> _SOURCE_
# --- sources: framework-delivered callback data ---
<android.location.LocationListener: void onLocationChanged(android.location.Location)> -> _SOURCE_PARAM_0_
<android.content.BroadcastReceiver: void onReceive(android.content.Context,android.content.Intent)> -> _SOURCE_PARAM_1_
# --- sources: intent reception (paper: receiving intents is a source) ---
<android.app.Activity: android.content.Intent getIntent()> -> _SOURCE_
# --- sinks: SMS, logging, network, preferences ---
<android.telephony.SmsManager: void sendTextMessage(java.lang.String,java.lang.String,java.lang.String,java.lang.Object,java.lang.Object)> -> _SINK_PARAM_2_
<android.util.Log: int i(java.lang.String,java.lang.String)> -> _SINK_PARAM_1_
<android.util.Log: int d(java.lang.String,java.lang.String)> -> _SINK_PARAM_1_
<android.util.Log: int e(java.lang.String,java.lang.String)> -> _SINK_PARAM_1_
<android.util.Log: int v(java.lang.String,java.lang.String)> -> _SINK_PARAM_1_
<android.util.Log: int w(java.lang.String,java.lang.String)> -> _SINK_PARAM_1_
<java.io.OutputStream: void write(java.lang.String)> -> _SINK_
<android.content.SharedPreferences$Editor: android.content.SharedPreferences$Editor putString(java.lang.String,java.lang.String)> -> _SINK_PARAM_1_
# --- sinks: intent sending (paper: sending intents is a sink) ---
<android.content.Context: void sendBroadcast(android.content.Intent)> -> _SINK_
<android.content.Context: void startActivity(android.content.Intent)> -> _SINK_
<android.content.Context: void startService(android.content.Intent)> -> _SINK_
"#;

/// All signature strings (`<cls: ret name(p1,p2)>`) a method reference
/// can match: its declared class and every transitive superclass /
/// interface (sources are often declared on framework base types), in
/// the order rules are matched. It allocates one string per class
/// walked, so the solve path never calls it: the managers index their
/// rules by method name and compare the supertypes' names in place. It
/// stays as the plain-text reference that matching is tested against.
pub fn matching_sigs(program: &Program, class: ClassId, subsig: &SubSig) -> Vec<String> {
    let params: Vec<String> = subsig.params.iter().map(|t| program.type_name(t)).collect();
    let (ret, name) = (program.type_name(&subsig.ret), program.str(subsig.name));
    let tail = format!("{ret} {name}({})>", params.join(","));
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut stack = vec![class];
    while let Some(c) = stack.pop() {
        if !seen.insert(c) {
            continue;
        }
        out.push(format!("<{}: {tail}", program.class_name(c)));
        let cd = program.class(c);
        if let Some(s) = cd.superclass() {
            stack.push(s);
        }
        stack.extend(cd.interfaces().iter().copied());
    }
    out
}

/// A rule signature `<class: ret name(p1,p2)>` without its method name,
/// which [`SigIndex`] keys on: the names a method is compared against.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SigPattern {
    class: Box<str>,
    ret: Box<str>,
    params: Box<[Box<str>]>,
}

impl SigPattern {
    /// Splits `sig` into its method name and pattern, the inverse of how
    /// [`matching_sigs`] joins them: nothing is trimmed, so a signature
    /// matches exactly when its text equals the joined one. `None` when
    /// `sig` does not have that shape.
    fn parse(sig: &str) -> Option<(&str, SigPattern)> {
        let (class, rest) = sig.strip_prefix('<')?.strip_suffix(")>")?.split_once(": ")?;
        let (head, params) = rest.split_once('(')?;
        let (ret, name) = head.split_once(' ')?;
        let params = if params.is_empty() {
            Box::default()
        } else {
            params.split(',').map(Box::from).collect()
        };
        Some((name, SigPattern { class: class.into(), ret: ret.into(), params }))
    }

    /// Whether `subsig`'s return and parameter types have this
    /// pattern's names.
    fn types_match(&self, program: &Program, subsig: &SubSig) -> bool {
        program.type_name_is(&subsig.ret, &self.ret)
            && self.params.len() == subsig.params.len()
            && subsig.params.iter().zip(&*self.params).all(|(t, n)| program.type_name_is(t, n))
    }
}

/// Buffers for [`SigIndex::for_each_match`]'s supertype walk, reused
/// across the walks of one call-site table.
#[derive(Debug, Default)]
pub(crate) struct SuperWalk {
    stack: Vec<ClassId>,
    seen: Vec<ClassId>,
}

/// Items (source/sink roles, wrapper rules) defined on signatures,
/// indexed by method name: per name, each distinct signature with its
/// items in definition order. Matching a method looks its name up once
/// and walks its class's supertypes only on a hit, comparing names in
/// place, so most callees cost one hash of their name.
#[derive(Debug, Clone)]
pub(crate) struct SigIndex<T> {
    by_name: FxHashMap<Box<str>, Vec<(SigPattern, Vec<T>)>>,
}

impl<T> Default for SigIndex<T> {
    fn default() -> Self {
        SigIndex { by_name: FxHashMap::default() }
    }
}

impl<T> SigIndex<T> {
    /// Adds `item` to signature `sig`. Returns `false`, adding nothing,
    /// when `sig` is not of the form `<class: ret name(p1,p2)>`.
    pub(crate) fn insert(&mut self, sig: &str, item: T) -> bool {
        let Some((name, pattern)) = SigPattern::parse(sig) else {
            return false;
        };
        let entries = self.by_name.entry(name.into()).or_default();
        match entries.iter_mut().find(|(p, _)| *p == pattern) {
            Some((_, items)) => items.push(item),
            None => entries.push((pattern, vec![item])),
        }
        true
    }

    /// Number of distinct signatures.
    pub(crate) fn len(&self) -> usize {
        self.by_name.values().map(Vec::len).sum()
    }

    /// Whether no signature has an item.
    pub(crate) fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Calls `f` on the items of every signature that a method
    /// `subsig` of `class` matches through `class` or a transitive
    /// supertype, in [`matching_sigs`] order.
    pub(crate) fn for_each_match<'s>(
        &'s self,
        walk: &mut SuperWalk,
        program: &Program,
        class: ClassId,
        subsig: &SubSig,
        mut f: impl FnMut(&'s T),
    ) {
        let Some(entries) = self.by_name.get(program.str(subsig.name)) else {
            return;
        };
        if !entries.iter().any(|(p, _)| p.types_match(program, subsig)) {
            return;
        }
        // The walk of `matching_sigs`: depth first, superclass below the
        // interfaces on the stack, each class once.
        let SuperWalk { stack, seen } = walk;
        stack.clear();
        seen.clear();
        stack.push(class);
        while let Some(c) = stack.pop() {
            if seen.contains(&c) {
                continue;
            }
            seen.push(c);
            let name = program.class_name(c);
            for (_, items) in
                entries.iter().filter(|(p, _)| *p.class == *name && p.types_match(program, subsig))
            {
                items.iter().for_each(&mut f);
            }
            let cd = program.class(c);
            if let Some(s) = cd.superclass() {
                stack.push(s);
            }
            stack.extend(cd.interfaces().iter().copied());
        }
    }

    /// Removes every item of `other` from the same signature here,
    /// dropping signatures left without items.
    fn remove_all(&mut self, other: &SigIndex<T>)
    where
        T: PartialEq,
    {
        for (name, theirs) in &other.by_name {
            let Some(mine) = self.by_name.get_mut(name) else { continue };
            for (pattern, items) in theirs {
                if let Some(at) = mine.iter().position(|(p, _)| p == pattern) {
                    mine[at].1.retain(|r| !items.contains(r));
                    if mine[at].1.is_empty() {
                        mine.remove(at);
                    }
                }
            }
            if mine.is_empty() {
                self.by_name.remove(name);
            }
        }
    }
}

/// The source/sink roles of one call site (see
/// [`SourceSinkManager::call_roles`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CallRoles {
    /// The return value is a source (including password-field
    /// `findViewById` lookups).
    pub source: bool,
    /// The return value is clean regardless of argument taint (an
    /// extension: the paper lacks sanitizer support).
    pub sanitizer: bool,
    /// Argument positions whose taint leaks, sorted and deduplicated
    /// (empty = not a sink).
    pub sink_args: Vec<usize>,
}

/// The source/sink manager.
#[derive(Debug, Default, Clone)]
pub struct SourceSinkManager {
    roles: SigIndex<Role>,
    /// Widget ids whose `findViewById` lookups return sensitive views
    /// (password fields).
    password_ids: HashSet<i64>,
}

impl SourceSinkManager {
    /// An empty manager (no sources, no sinks).
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses definitions from the textual format.
    ///
    /// # Errors
    ///
    /// Returns [`SourceSinkParseError`] on malformed lines.
    pub fn parse(text: &str) -> Result<SourceSinkManager, SourceSinkParseError> {
        let mut m = SourceSinkManager::new();
        m.add_definitions(text)?;
        Ok(m)
    }

    /// The default Android configuration.
    pub fn default_android() -> SourceSinkManager {
        Self::parse(DEFAULT_ANDROID_DEFS).expect("built-in definitions parse")
    }

    /// Adds definitions from the textual format to this manager.
    ///
    /// # Errors
    ///
    /// Returns [`SourceSinkParseError`] on malformed lines.
    pub fn add_definitions(&mut self, text: &str) -> Result<(), SourceSinkParseError> {
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| SourceSinkParseError { message, line: i + 1 };
            let Some((sig, role)) = line.rsplit_once("->") else {
                return Err(err("expected `<sig> -> _ROLE_`".to_owned()));
            };
            let sig = sig.trim();
            let role = match role.trim() {
                "_SOURCE_" => Role::SourceReturn,
                "_SINK_" => Role::SinkAll,
                "_SANITIZER_" => Role::Sanitizer,
                other => {
                    if let Some(rest) =
                        other.strip_prefix("_SOURCE_PARAM_").and_then(|r| r.strip_suffix('_'))
                    {
                        Role::SourceParam(
                            rest.parse().map_err(|_| err(format!("bad param index `{rest}`")))?,
                        )
                    } else if let Some(rest) =
                        other.strip_prefix("_SINK_PARAM_").and_then(|r| r.strip_suffix('_'))
                    {
                        Role::SinkParam(
                            rest.parse().map_err(|_| err(format!("bad param index `{rest}`")))?,
                        )
                    } else {
                        return Err(err(format!("unknown role `{other}`")));
                    }
                }
            };
            if !self.roles.insert(sig, role) {
                return Err(err(format!("malformed signature `{sig}`")));
            }
        }
        Ok(())
    }

    /// Removes definitions (same textual format as
    /// [`SourceSinkManager::add_definitions`]); unknown entries are
    /// ignored. Used by the linked ICC mode to strip intent-reception
    /// sources for its first phase.
    pub fn remove_definitions(&mut self, text: &str) {
        if let Ok(other) = SourceSinkManager::parse(text) {
            self.roles.remove_all(&other.roles);
        }
    }

    /// Registers a widget id as a password field.
    pub fn add_password_id(&mut self, id: i64) {
        self.password_ids.insert(id);
    }

    /// Resolves every role of a call site: the roles of its callee,
    /// found in one hierarchy walk when a rule names the callee's
    /// method, plus the password-field lookup.
    pub fn call_roles(&self, program: &Program, call: &InvokeExpr) -> CallRoles {
        let (class, subsig) = (call.callee.class, &call.callee.subsig);
        let mut roles = self.callee_roles(&mut SuperWalk::default(), program, class, subsig);
        roles.source |= self.password_lookup(program, call);
        roles
    }

    /// The roles every call of `subsig` on `class` has, whatever its
    /// arguments, in one hierarchy walk: what the per-solve call-site
    /// table resolves once per distinct callee.
    pub(crate) fn callee_roles(
        &self,
        walk: &mut SuperWalk,
        program: &Program,
        class: ClassId,
        subsig: &SubSig,
    ) -> CallRoles {
        let mut roles = CallRoles::default();
        self.roles.for_each_match(walk, program, class, subsig, |r| match *r {
            Role::SourceReturn => roles.source = true,
            Role::Sanitizer => roles.sanitizer = true,
            Role::SinkAll => roles.sink_args.extend(0..subsig.params.len()),
            Role::SinkParam(i) => roles.sink_args.push(i),
            Role::SourceParam(_) => {}
        });
        roles.sink_args.sort_unstable();
        roles.sink_args.dedup();
        roles
    }

    /// Whether the call is a UI source: `findViewById(<id>)` with the
    /// constant id of a password widget.
    pub(crate) fn password_lookup(&self, program: &Program, call: &InvokeExpr) -> bool {
        matches!(call.args.first(), Some(Operand::Const(Constant::Int(id))) if self.password_ids.contains(id))
            && program.str(call.callee.subsig.name) == "findViewById"
    }

    /// Parameter indices of `method` tainted at entry because the
    /// method overrides a `_SOURCE_PARAM_i_` signature.
    pub fn entry_param_sources(&self, program: &Program, method: MethodId) -> Vec<usize> {
        self.entry_param_sources_in(&mut SuperWalk::default(), program, method)
    }

    /// [`SourceSinkManager::entry_param_sources`] with the walk's
    /// buffers.
    pub(crate) fn entry_param_sources_in(
        &self,
        walk: &mut SuperWalk,
        program: &Program,
        method: MethodId,
    ) -> Vec<usize> {
        let m = program.method(method);
        let mut out = Vec::new();
        self.roles.for_each_match(walk, program, m.class(), m.subsig(), |r| {
            if let Role::SourceParam(i) = *r {
                out.push(i);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of configured signature entries.
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// Returns `true` if no definitions are configured.
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty() && self.password_ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_android::install_platform;
    use flowdroid_ir::{MethodBuilder, Type};

    fn call_expr(
        p: &mut Program,
        kind: flowdroid_ir::InvokeKind,
        class: &str,
        name: &str,
        params: Vec<Type>,
        ret: Type,
        nargs: usize,
    ) -> InvokeExpr {
        let tmp_name = format!("Tmp${class}${name}");
        let c = p.declare_class(&tmp_name, None, &[]);
        let mut b = MethodBuilder::new_static_on(p, c, "tmp", vec![], Type::Void);
        let base = if kind == flowdroid_ir::InvokeKind::Static {
            None
        } else {
            let t = b.program().ref_type(class);
            Some(b.local("base", t))
        };
        let args = (0..nargs).map(|_| Operand::Const(Constant::Null)).collect();
        let e = b.invoke_expr(kind, base, class, name, params, ret, args);
        b.finish();
        e
    }

    #[test]
    fn default_android_parses() {
        let m = SourceSinkManager::default_android();
        assert!(m.len() > 10);
        assert!(!m.is_empty());
    }

    #[test]
    fn source_and_sink_classification() {
        let mut p = Program::new();
        install_platform(&mut p);
        let m = SourceSinkManager::default_android();
        let s = p.ref_type("java.lang.String");
        let src = call_expr(
            &mut p,
            flowdroid_ir::InvokeKind::Virtual,
            "android.telephony.TelephonyManager",
            "getDeviceId",
            vec![],
            s.clone(),
            0,
        );
        assert!(m.call_roles(&p, &src).source);
        let snk = call_expr(
            &mut p,
            flowdroid_ir::InvokeKind::Static,
            "android.util.Log",
            "i",
            vec![s.clone(), s.clone()],
            Type::Int,
            2,
        );
        assert_eq!(m.call_roles(&p, &snk).sink_args, vec![1]);
        let not = call_expr(
            &mut p,
            flowdroid_ir::InvokeKind::Virtual,
            "java.lang.String",
            "concat",
            vec![s.clone()],
            s,
            1,
        );
        assert_eq!(m.call_roles(&p, &not), CallRoles::default());
    }

    #[test]
    fn signatures_match_only_their_exact_text() {
        // The text `matching_sigs` joins has no space after a comma, so
        // this definition parses but matches no call.
        let mut p = Program::new();
        install_platform(&mut p);
        let spaced = "<android.util.Log: int i(java.lang.String, java.lang.String)> -> _SINK_";
        let m = SourceSinkManager::parse(spaced).unwrap();
        let s = p.ref_type("java.lang.String");
        let call = call_expr(
            &mut p,
            flowdroid_ir::InvokeKind::Static,
            "android.util.Log",
            "i",
            vec![s.clone(), s],
            Type::Int,
            2,
        );
        assert_eq!(m.call_roles(&p, &call), CallRoles::default());
    }

    #[test]
    fn sink_matching_walks_supers() {
        // startActivity is declared on Context; calls through Activity
        // must match.
        let mut p = Program::new();
        install_platform(&mut p);
        let m = SourceSinkManager::default_android();
        let intent = p.ref_type("android.content.Intent");
        let snk = call_expr(
            &mut p,
            flowdroid_ir::InvokeKind::Virtual,
            "android.app.Activity",
            "startActivity",
            vec![intent],
            Type::Void,
            1,
        );
        assert_eq!(m.call_roles(&p, &snk).sink_args, vec![0]);
    }

    #[test]
    fn entry_param_sources_via_override() {
        let mut p = Program::new();
        install_platform(&mut p);
        let m = SourceSinkManager::default_android();
        let cls = p.declare_class(
            "my.Listener",
            Some("java.lang.Object"),
            &["android.location.LocationListener"],
        );
        let loc = p.ref_type("android.location.Location");
        let mb =
            MethodBuilder::new_instance(&mut p, cls, "onLocationChanged", vec![loc], Type::Void);
        let mid = mb.finish();
        assert_eq!(m.entry_param_sources(&p, mid), vec![0]);
        // A receiver's onReceive taints its intent parameter.
        let rc = p.declare_class("my.Rc", Some("android.content.BroadcastReceiver"), &[]);
        let ctx = p.ref_type("android.content.Context");
        let it = p.ref_type("android.content.Intent");
        let mb = MethodBuilder::new_instance(&mut p, rc, "onReceive", vec![ctx, it], Type::Void);
        let mid = mb.finish();
        assert_eq!(m.entry_param_sources(&p, mid), vec![1]);
    }

    #[test]
    fn password_field_lookup_is_a_source() {
        let mut p = Program::new();
        install_platform(&mut p);
        let mut m = SourceSinkManager::default_android();
        m.add_password_id(0x7f08_0001);
        let c = p.declare_class("Tmp", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "t", vec![], Type::Void);
        let at = b.program().ref_type("android.app.Activity");
        let a = b.local("a", at);
        let vt = b.program().ref_type("android.view.View");
        let pw = b.invoke_expr(
            flowdroid_ir::InvokeKind::Virtual,
            Some(a),
            "android.app.Activity",
            "findViewById",
            vec![Type::Int],
            vt.clone(),
            vec![Operand::Const(Constant::Int(0x7f08_0001))],
        );
        let other = b.invoke_expr(
            flowdroid_ir::InvokeKind::Virtual,
            Some(a),
            "android.app.Activity",
            "findViewById",
            vec![Type::Int],
            vt,
            vec![Operand::Const(Constant::Int(0x7f08_0002))],
        );
        b.finish();
        assert!(m.call_roles(&p, &pw).source);
        assert!(!m.call_roles(&p, &other).source);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(SourceSinkManager::parse("garbage").is_err());
        assert!(SourceSinkManager::parse("<a: void b()> -> _WAT_").is_err());
        assert!(SourceSinkManager::parse("<a: void b()> -> _SINK_PARAM_x_").is_err());
        // Not of the form `<class: ret name(params)>`: could never match.
        assert!(SourceSinkManager::parse("<a.b> -> _SINK_").is_err());
        assert!(SourceSinkManager::parse("<a: b()> -> _SINK_").is_err());
        assert!(SourceSinkManager::parse("# comment only\n").unwrap().is_empty());
    }
}
