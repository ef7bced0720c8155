//! Method bodies and statement-level control-flow graphs.

use crate::class::MethodId;
use crate::stmt::Stmt;
use crate::types::Type;
use std::fmt;

/// Index of a statement within its [`Body`].
pub type StmtIdx = usize;

/// A program-wide reference to a single statement: method plus index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtRef {
    /// The containing method.
    pub method: MethodId,
    /// The statement index within that method's body.
    pub idx: StmtIdx,
}

impl StmtRef {
    /// Creates a statement reference.
    pub fn new(method: MethodId, idx: StmtIdx) -> Self {
        Self { method, idx }
    }
}

impl fmt::Debug for StmtRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{}", self.method, self.idx)
    }
}

/// A declared local variable.
#[derive(Clone, Debug)]
pub struct LocalDecl {
    /// Variable name (for diagnostics and pretty printing).
    pub name: String,
    /// Declared type.
    pub ty: Type,
}

/// A method body: locals, a flat statement vector and its CFG.
#[derive(Clone, Debug)]
pub struct Body {
    pub(crate) locals: Vec<LocalDecl>,
    pub(crate) stmts: Vec<Stmt>,
    /// Source line per statement (0 = unknown), parallel to `stmts`.
    pub(crate) lines: Vec<u32>,
    pub(crate) cfg: Cfg,
}

impl Body {
    /// Builds a body, computing the CFG eagerly.
    ///
    /// # Panics
    ///
    /// Panics if any branch target is out of range.
    pub fn new(locals: Vec<LocalDecl>, stmts: Vec<Stmt>, lines: Vec<u32>) -> Self {
        assert_eq!(stmts.len(), lines.len(), "lines must parallel stmts");
        let cfg = Cfg::build(&stmts);
        Self { locals, stmts, lines, cfg }
    }

    /// The statements in program order.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// A single statement.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn stmt(&self, idx: StmtIdx) -> &Stmt {
        &self.stmts[idx]
    }

    /// Source line of a statement (0 if unknown).
    pub fn line(&self, idx: StmtIdx) -> u32 {
        self.lines.get(idx).copied().unwrap_or(0)
    }

    /// Declared locals (including parameter slots).
    pub fn locals(&self) -> &[LocalDecl] {
        &self.locals
    }

    /// The control-flow graph.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Indices of all exit statements (returns and throws).
    pub fn exits(&self) -> impl Iterator<Item = StmtIdx> + '_ {
        self.stmts.iter().enumerate().filter(|(_, s)| s.is_exit()).map(|(i, _)| i)
    }

    /// The entry statement index (always 0 for non-empty bodies).
    pub fn entry(&self) -> StmtIdx {
        0
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Returns `true` if the body has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

/// Statement-level control-flow graph: successor and predecessor indices
/// per statement.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    succs: Vec<Vec<StmtIdx>>,
    preds: Vec<Vec<StmtIdx>>,
}

impl Cfg {
    /// Computes the CFG from a statement vector.
    ///
    /// # Panics
    ///
    /// Panics if a branch target is out of range.
    pub fn build(stmts: &[Stmt]) -> Self {
        let n = stmts.len();
        let mut succs: Vec<Vec<StmtIdx>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<StmtIdx>> = vec![Vec::new(); n];
        for (i, s) in stmts.iter().enumerate() {
            let mut out: Vec<StmtIdx> = Vec::new();
            match s {
                Stmt::If { target, .. } => {
                    assert!(*target < n, "branch target {target} out of range");
                    if i + 1 < n {
                        out.push(i + 1);
                    }
                    if !out.contains(target) {
                        out.push(*target);
                    }
                }
                Stmt::Goto { target } => {
                    assert!(*target < n, "goto target {target} out of range");
                    out.push(*target);
                }
                Stmt::Return { .. } | Stmt::Throw { .. } => {}
                _ => {
                    if i + 1 < n {
                        out.push(i + 1);
                    }
                }
            }
            for &t in &out {
                preds[t].push(i);
            }
            succs[i] = out;
        }
        Self { succs, preds }
    }

    /// Successor statement indices.
    pub fn succs(&self, idx: StmtIdx) -> &[StmtIdx] {
        &self.succs[idx]
    }

    /// Predecessor statement indices.
    pub fn preds(&self, idx: StmtIdx) -> &[StmtIdx] {
        &self.preds[idx]
    }

    /// Number of statements covered.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Returns `true` for an empty CFG.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{Cond, Stmt};

    fn nop() -> Stmt {
        Stmt::Nop
    }

    #[test]
    fn straight_line_cfg() {
        let stmts = vec![nop(), nop(), Stmt::Return { value: None }];
        let cfg = Cfg::build(&stmts);
        assert_eq!(cfg.succs(0), &[1]);
        assert_eq!(cfg.succs(1), &[2]);
        assert!(cfg.succs(2).is_empty());
        assert_eq!(cfg.preds(2), &[1]);
        assert!(cfg.preds(0).is_empty());
    }

    #[test]
    fn branch_has_two_successors() {
        let stmts =
            vec![Stmt::If { cond: Cond::Opaque, target: 2 }, nop(), Stmt::Return { value: None }];
        let cfg = Cfg::build(&stmts);
        assert_eq!(cfg.succs(0), &[1, 2]);
        let mut preds2 = cfg.preds(2).to_vec();
        preds2.sort_unstable();
        assert_eq!(preds2, vec![0, 1]);
    }

    #[test]
    fn goto_skips_fallthrough() {
        let stmts = vec![Stmt::Goto { target: 2 }, nop(), Stmt::Return { value: None }];
        let cfg = Cfg::build(&stmts);
        assert_eq!(cfg.succs(0), &[2]);
        assert!(cfg.preds(1).is_empty());
    }

    #[test]
    fn self_loop_branch_is_deduped() {
        let stmts = vec![Stmt::If { cond: Cond::Opaque, target: 1 }, Stmt::Return { value: None }];
        let cfg = Cfg::build(&stmts);
        assert_eq!(cfg.succs(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_target_panics() {
        Cfg::build(&[Stmt::Goto { target: 7 }]);
    }

    #[test]
    fn body_exits() {
        let b = Body::new(
            vec![],
            vec![
                nop(),
                Stmt::Return { value: None },
                Stmt::Throw { value: crate::stmt::Operand::Const(crate::stmt::Constant::Null) },
            ],
            vec![0, 0, 0],
        );
        let exits: Vec<_> = b.exits().collect();
        assert_eq!(exits, vec![1, 2]);
        assert_eq!(b.entry(), 0);
    }
}
