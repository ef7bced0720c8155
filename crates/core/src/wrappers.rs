//! Taint wrappers: "shortcut rules" for library methods (paper §5).
//!
//! Including the whole JRE/Android runtime in the analysis would be slow
//! and imprecise, so calls into the library are modeled by rules of the
//! form *"if any of these positions is tainted, taint those positions"*.
//! Rules are written in a simple textual format:
//!
//! ```text
//! <java.lang.StringBuilder: java.lang.StringBuilder append(java.lang.String)> base,arg0 -> base,ret
//! <java.util.List: boolean add(java.lang.Object)> arg0 -> base
//! <java.lang.System: void arraycopy(java.lang.Object,int,java.lang.Object,int,int)> arg0 -> arg2
//! ```
//!
//! Rule matching walks the class hierarchy, so a rule on
//! `java.util.List` applies to calls through `java.util.ArrayList`.
//! Calls to body-less methods with *no* rule fall back to the paper's
//! native-call default: the return value becomes tainted if the
//! receiver or any argument was (configurable).

use crate::sourcesink::{SigIndex, SourceSinkParseError, SuperWalk};
use flowdroid_ir::{ClassId, InvokeExpr, Local, Operand, Program, SubSig};
use std::fmt;

/// A position in a call: receiver, return value or argument.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pos {
    /// The receiver object.
    Base,
    /// The returned value.
    Ret,
    /// The i-th argument.
    Arg(usize),
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pos::Base => write!(f, "base"),
            Pos::Ret => write!(f, "ret"),
            Pos::Arg(i) => write!(f, "arg{i}"),
        }
    }
}

/// One shortcut rule: if any `if_any` position is tainted, every
/// `taint` position becomes tainted.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Trigger positions.
    pub if_any: Vec<Pos>,
    /// Positions tainted when the rule fires.
    pub taint: Vec<Pos>,
}

impl Rule {
    /// The positions `rules` taint when the whole-object-tainted
    /// positions of a call are those `tainted` accepts (first-seen
    /// order, deduplicated).
    pub fn fire(rules: &[&Rule], tainted: impl Fn(Pos) -> bool) -> Vec<Pos> {
        let mut out = Vec::new();
        for rule in rules.iter().filter(|r| r.if_any.iter().any(|&p| tainted(p))) {
            for &t in &rule.taint {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        out
    }
}

/// The wrapper rule set.
#[derive(Debug, Default)]
pub struct TaintWrapper {
    rules: SigIndex<Rule>,
}

/// The built-in rules: strings, string builders, collections, maps,
/// iterators, intents, bundles and `System.arraycopy` (the paper's
/// running native-rule example).
pub const DEFAULT_WRAPPER_RULES: &str = r#"
<java.lang.StringBuilder: java.lang.StringBuilder append(java.lang.String)> base,arg0 -> base,ret
<java.lang.StringBuilder: java.lang.String toString()> base -> ret
<java.lang.Object: java.lang.String toString()> base -> ret
<java.lang.String: java.lang.String concat(java.lang.String)> base,arg0 -> ret
<java.lang.String: java.lang.String substring(int)> base -> ret
<java.lang.String: char[] toCharArray()> base -> ret
<java.lang.String: java.lang.String valueOf(java.lang.Object)> arg0 -> ret
<android.widget.TextView: java.lang.String getText()> base -> ret
<java.util.Collection: boolean add(java.lang.Object)> arg0 -> base
<java.util.List: boolean add(java.lang.Object)> arg0 -> base
<java.util.Set: boolean add(java.lang.Object)> arg0 -> base
<java.util.List: java.lang.Object get(int)> base -> ret
<java.util.Collection: java.util.Iterator iterator()> base -> ret
<java.util.List: java.util.Iterator iterator()> base -> ret
<java.util.Set: java.util.Iterator iterator()> base -> ret
<java.util.Iterator: java.lang.Object next()> base -> ret
<java.util.Map: java.lang.Object put(java.lang.Object,java.lang.Object)> arg0,arg1 -> base
<java.util.Map: java.lang.Object get(java.lang.Object)> base -> ret
<android.content.Intent: android.content.Intent putExtra(java.lang.String,java.lang.String)> arg1 -> base,ret
<android.content.Intent: android.content.Intent putExtra(java.lang.String,java.lang.String)> base -> ret
<android.content.Intent: java.lang.String getStringExtra(java.lang.String)> base -> ret
<android.os.Bundle: void putString(java.lang.String,java.lang.String)> arg1 -> base
<android.os.Bundle: java.lang.String getString(java.lang.String)> base -> ret
<java.lang.System: void arraycopy(java.lang.Object,int,java.lang.Object,int,int)> arg0 -> arg2
"#;

impl TaintWrapper {
    /// An empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in default rules.
    pub fn default_rules() -> TaintWrapper {
        Self::parse(DEFAULT_WRAPPER_RULES).expect("built-in rules parse")
    }

    /// Parses rules from the textual format.
    ///
    /// # Errors
    ///
    /// Returns [`SourceSinkParseError`] on malformed lines.
    pub fn parse(text: &str) -> Result<TaintWrapper, SourceSinkParseError> {
        let mut w = TaintWrapper::new();
        w.add_rules(text)?;
        Ok(w)
    }

    /// Adds rules from the textual format.
    ///
    /// # Errors
    ///
    /// Returns [`SourceSinkParseError`] on malformed lines.
    pub fn add_rules(&mut self, text: &str) -> Result<(), SourceSinkParseError> {
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| SourceSinkParseError { message, line: i + 1 };
            let Some(close) = line.find('>') else {
                return Err(err("expected `<sig>`".to_owned()));
            };
            let sig = &line[..=close];
            let rest = line[close + 1..].trim();
            let Some((if_any, taint)) = rest.split_once("->") else {
                return Err(err("expected `positions -> positions`".to_owned()));
            };
            let parse_positions = |s: &str| -> Result<Vec<Pos>, SourceSinkParseError> {
                s.split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(|p| match p {
                        "base" => Ok(Pos::Base),
                        "ret" => Ok(Pos::Ret),
                        other => other
                            .strip_prefix("arg")
                            .and_then(|n| n.parse().ok())
                            .map(Pos::Arg)
                            .ok_or_else(|| err(format!("bad position `{other}`"))),
                    })
                    .collect()
            };
            let rule = Rule { if_any: parse_positions(if_any)?, taint: parse_positions(taint)? };
            if rule.if_any.is_empty() || rule.taint.is_empty() {
                return Err(err("rule needs at least one position on each side".to_owned()));
            }
            if !self.rules.insert(sig, rule) {
                return Err(err(format!("malformed signature `{sig}`")));
            }
        }
        Ok(())
    }

    /// Every rule covering the call, in hierarchy-walk order (one walk,
    /// taken only when a rule names the callee's method; empty = the
    /// native-call fallback applies).
    pub fn rules_for(&self, program: &Program, call: &InvokeExpr) -> Vec<&Rule> {
        let (class, subsig) = (call.callee.class, &call.callee.subsig);
        self.callee_rules(&mut SuperWalk::default(), program, class, subsig)
    }

    /// [`TaintWrapper::rules_for`] a call of `subsig` on `class`, with
    /// the walk's buffers.
    pub(crate) fn callee_rules(
        &self,
        walk: &mut SuperWalk,
        program: &Program,
        class: ClassId,
        subsig: &SubSig,
    ) -> Vec<&Rule> {
        let mut out = Vec::new();
        self.rules.for_each_match(walk, program, class, subsig, |r| out.push(r));
        out
    }

    /// Resolves a position to a local at a call site (`None` when the
    /// position does not exist or is not a local).
    pub fn pos_local(call: &InvokeExpr, result: Option<Local>, pos: Pos) -> Option<Local> {
        match pos {
            Pos::Base => call.base,
            Pos::Ret => result,
            Pos::Arg(i) => match call.args.get(i) {
                Some(Operand::Local(l)) => Some(*l),
                _ => None,
            },
        }
    }

    /// Number of rule signatures.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if no rules are configured.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_android::install_platform;
    use flowdroid_ir::{MethodBuilder, Type};

    #[test]
    fn default_rules_parse() {
        let w = TaintWrapper::default_rules();
        assert!(w.len() > 10);
    }

    #[test]
    fn rule_matching_and_application() {
        let mut p = Program::new();
        install_platform(&mut p);
        let w = TaintWrapper::default_rules();
        let c = p.declare_class("T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "t", vec![], Type::Void);
        let sbty = b.program().ref_type("java.lang.StringBuilder");
        let sty = b.program().ref_type("java.lang.String");
        let sb = b.local("sb", sbty.clone());
        let s = b.local("s", sty.clone());
        let call = b.invoke_expr(
            flowdroid_ir::InvokeKind::Virtual,
            Some(sb),
            "java.lang.StringBuilder",
            "append",
            vec![sty],
            sbty,
            vec![Operand::Local(s)],
        );
        b.finish();
        let rules = w.rules_for(&p, &call);
        assert!(!rules.is_empty());
        // arg0 tainted → base and ret tainted.
        let out = Rule::fire(&rules, |pos| pos == Pos::Arg(0));
        assert!(out.contains(&Pos::Base));
        assert!(out.contains(&Pos::Ret));
        // nothing tainted → nothing.
        assert!(Rule::fire(&rules, |_| false).is_empty());
    }

    #[test]
    fn hierarchy_matching_applies_interface_rules() {
        // ArrayList.add matches the List.add rule.
        let mut p = Program::new();
        install_platform(&mut p);
        let w = TaintWrapper::default_rules();
        let c = p.declare_class("T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "t", vec![], Type::Void);
        let lty = b.program().ref_type("java.util.ArrayList");
        let oty = b.program().ref_type("java.lang.Object");
        let l = b.local("l", lty);
        let o = b.local("o", oty.clone());
        let call = b.invoke_expr(
            flowdroid_ir::InvokeKind::Virtual,
            Some(l),
            "java.util.ArrayList",
            "add",
            vec![oty],
            Type::Boolean,
            vec![Operand::Local(o)],
        );
        b.finish();
        let rules = w.rules_for(&p, &call);
        assert!(!rules.is_empty(), "interface rule must match subclass call");
        assert_eq!(Rule::fire(&rules, |pos| pos == Pos::Arg(0)), vec![Pos::Base]);
    }

    #[test]
    fn pos_local_resolution() {
        let mut p = Program::new();
        let c = p.declare_class("T", None, &[]);
        let mut b = MethodBuilder::new_static_on(&mut p, c, "t", vec![], Type::Void);
        let oty = b.program().ref_type("O");
        let base = b.local("base", oty.clone());
        let a = b.local("a", oty.clone());
        let r = b.local("r", oty.clone());
        let call = b.invoke_expr(
            flowdroid_ir::InvokeKind::Virtual,
            Some(base),
            "O",
            "m",
            vec![oty.clone(), oty],
            Type::Void,
            vec![Operand::Local(a), Operand::Const(flowdroid_ir::Constant::Null)],
        );
        b.finish();
        assert_eq!(TaintWrapper::pos_local(&call, Some(r), Pos::Base), Some(base));
        assert_eq!(TaintWrapper::pos_local(&call, Some(r), Pos::Ret), Some(r));
        assert_eq!(TaintWrapper::pos_local(&call, None, Pos::Ret), None);
        assert_eq!(TaintWrapper::pos_local(&call, None, Pos::Arg(0)), Some(a));
        assert_eq!(TaintWrapper::pos_local(&call, None, Pos::Arg(1)), None);
        assert_eq!(TaintWrapper::pos_local(&call, None, Pos::Arg(9)), None);
    }

    #[test]
    fn parse_errors() {
        assert!(TaintWrapper::parse("junk").is_err());
        assert!(TaintWrapper::parse("<a: void b()> wat -> ret").is_err());
        assert!(TaintWrapper::parse("<a: void b()> base ->").is_err());
        assert!(TaintWrapper::parse("<a: void> base -> ret").is_err());
    }
}
