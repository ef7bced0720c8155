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

use flowdroid_ir::{ClassId, Constant, InvokeExpr, MethodId, Operand, Program, SubSig};
use std::collections::{HashMap, HashSet};
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
/// interface (sources are often declared on framework base types).
/// Only the resolvers ([`SourceSinkManager::call_roles`],
/// [`SourceSinkManager::entry_param_sources`],
/// [`TaintWrapper::rules_for`](crate::TaintWrapper::rules_for) and the
/// per-solve call-site table, which walks once per call site for both
/// roles and rules) call this; it allocates one string per class
/// walked.
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
    roles: HashMap<String, Vec<Role>>,
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
            let sig = sig.trim().to_owned();
            if !sig.starts_with('<') || !sig.ends_with('>') {
                return Err(err(format!("malformed signature `{sig}`")));
            }
            let role = match role.trim() {
                "_SOURCE_" => Role::SourceReturn,
                "_SINK_" => Role::SinkAll,
                "_SANITIZER_" => Role::Sanitizer,
                other => {
                    if let Some(rest) = other
                        .strip_prefix("_SOURCE_PARAM_")
                        .and_then(|r| r.strip_suffix('_'))
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
            self.roles.entry(sig).or_default().push(role);
        }
        Ok(())
    }

    /// Removes definitions (same textual format as
    /// [`SourceSinkManager::add_definitions`]); unknown entries are
    /// ignored. Used by the linked ICC mode to strip intent-reception
    /// sources for its first phase.
    pub fn remove_definitions(&mut self, text: &str) {
        if let Ok(other) = SourceSinkManager::parse(text) {
            for (sig, roles) in other.roles {
                if let Some(mine) = self.roles.get_mut(&sig) {
                    mine.retain(|r| !roles.contains(r));
                    if mine.is_empty() {
                        self.roles.remove(&sig);
                    }
                }
            }
        }
    }

    /// Registers a widget id as a password field.
    pub fn add_password_id(&mut self, id: i64) {
        self.password_ids.insert(id);
    }

    /// Resolves every role of a call site in one hierarchy walk: the
    /// resolver behind the per-solve call-site table, so flow functions
    /// never match signatures themselves.
    pub fn call_roles(&self, program: &Program, call: &InvokeExpr) -> CallRoles {
        let sigs = matching_sigs(program, call.callee.class, &call.callee.subsig);
        self.call_roles_in(program, call, &sigs)
    }

    /// [`SourceSinkManager::call_roles`] over the call's already walked
    /// [`matching_sigs`], so one walk can serve the wrapper rules too.
    pub(crate) fn call_roles_in(
        &self,
        program: &Program,
        call: &InvokeExpr,
        sigs: &[String],
    ) -> CallRoles {
        let mut roles = CallRoles::default();
        for r in sigs.iter().filter_map(|sig| self.roles.get(sig)).flatten() {
            match *r {
                Role::SourceReturn => roles.source = true,
                Role::Sanitizer => roles.sanitizer = true,
                Role::SinkAll => roles.sink_args.extend(0..call.args.len()),
                Role::SinkParam(i) => roles.sink_args.push(i),
                Role::SourceParam(_) => {}
            }
        }
        roles.sink_args.sort_unstable();
        roles.sink_args.dedup();
        // UI sources: `findViewById(<password widget id>)`.
        if let Some(Operand::Const(Constant::Int(id))) = call.args.first() {
            roles.source |= self.password_ids.contains(id)
                && program.str(call.callee.subsig.name) == "findViewById";
        }
        roles
    }

    /// Parameter indices of `method` tainted at entry because the
    /// method overrides a `_SOURCE_PARAM_i_` signature.
    pub fn entry_param_sources(&self, program: &Program, method: MethodId) -> Vec<usize> {
        let m = program.method(method);
        let sigs = matching_sigs(program, m.class(), m.subsig());
        let roles = sigs.iter().filter_map(|sig| self.roles.get(sig)).flatten();
        let mut out: Vec<usize> = roles
            .filter_map(|r| if let Role::SourceParam(i) = r { Some(*i) } else { None })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// A stable hash of the configured definitions, independent of map
    /// iteration order. Part of the summary cache's context hash:
    /// summaries computed under different source/sink lists must not be
    /// shared.
    pub fn fingerprint(&self) -> u64 {
        let mut entries: Vec<String> =
            self.roles.iter().map(|(sig, roles)| format!("{sig}:{roles:?}")).collect();
        entries.sort_unstable();
        let mut ids: Vec<i64> = self.password_ids.iter().copied().collect();
        ids.sort_unstable();
        flowdroid_ir::fxhash64(&(entries, ids))
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
        let args = (0..nargs)
            .map(|_| Operand::Const(Constant::Null))
            .collect();
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
        let mb = MethodBuilder::new_instance(&mut p, cls, "onLocationChanged", vec![loc], Type::Void);
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
        assert!(SourceSinkManager::parse("# comment only\n").unwrap().is_empty());
    }
}
