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
/// per statement, as two flat compressed-row arrays.
///
/// Statement `i`'s successors are `succs[succ_start[i]..succ_start[i +
/// 1]]`, its predecessors likewise, so a CFG costs four allocations
/// whatever the body's length.
#[derive(Clone, Default)]
pub struct Cfg {
    succ_start: Vec<u32>,
    succs: Vec<StmtIdx>,
    pred_start: Vec<u32>,
    preds: Vec<StmtIdx>,
}

/// Renders the per-statement lists, `Cfg { succs: [[1], [2, 0], ..],
/// preds: [..] }`: the form the IR's golden fingerprints hash.
impl fmt::Debug for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Lists<'c>(&'c Cfg, fn(&Cfg, StmtIdx) -> &[StmtIdx]);
        impl fmt::Debug for Lists<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries((0..self.0.len()).map(|i| (self.1)(self.0, i))).finish()
            }
        }
        f.debug_struct("Cfg")
            .field("succs", &Lists(self, Cfg::succs))
            .field("preds", &Lists(self, Cfg::preds))
            .finish()
    }
}

/// The successors of statement `i` of `n`: its fall-through, its branch
/// target or both (a branch to the fall-through counts once), none for
/// an exit.
fn succs_of(i: StmtIdx, s: &Stmt, n: usize) -> ([StmtIdx; 2], usize) {
    let next = (i + 1 < n) as usize;
    match s {
        Stmt::If { target, .. } => {
            assert!(*target < n, "branch target {target} out of range");
            if next == 1 && *target != i + 1 {
                ([i + 1, *target], 2)
            } else {
                ([*target, 0], 1)
            }
        }
        Stmt::Goto { target } => {
            assert!(*target < n, "goto target {target} out of range");
            ([*target, 0], 1)
        }
        Stmt::Return { .. } | Stmt::Throw { .. } => ([0; 2], 0),
        _ => ([i + 1, 0], next),
    }
}

/// A compressed-row offset.
fn offset(i: usize) -> u32 {
    u32::try_from(i).expect("CFG edge count overflow")
}

impl Cfg {
    /// Computes the CFG from a statement vector in two passes: the first
    /// counts every statement's edges, the second places them.
    ///
    /// # Panics
    ///
    /// Panics if a branch target is out of range.
    pub fn build(stmts: &[Stmt]) -> Self {
        let n = stmts.len();
        // Pass one: successor offsets, and each statement's predecessor
        // count at its own index.
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut pred_start = vec![0u32; n + 1];
        let mut edges = 0;
        succ_start.push(0);
        for (i, s) in stmts.iter().enumerate() {
            let (out, len) = succs_of(i, s, n);
            for &t in &out[..len] {
                pred_start[t] += 1;
            }
            edges += len;
            succ_start.push(offset(edges));
        }
        // Each statement's predecessor count becomes the end of its run.
        let mut end = 0;
        for p in &mut pred_start {
            end += *p;
            *p = end;
        }
        // Pass two: successors in order; predecessors placed from the
        // back of their runs by descending source, so each run ends up
        // ascending and its end moves down to its start.
        let mut succs = Vec::with_capacity(edges);
        let mut preds = vec![0; edges];
        for (i, s) in stmts.iter().enumerate() {
            let (out, len) = succs_of(i, s, n);
            succs.extend_from_slice(&out[..len]);
        }
        for i in (0..n).rev() {
            for &t in &succs[succ_start[i] as usize..succ_start[i + 1] as usize] {
                pred_start[t] -= 1;
                preds[pred_start[t] as usize] = i;
            }
        }
        Self { succ_start, succs, pred_start, preds }
    }

    /// Successor statement indices.
    pub fn succs(&self, idx: StmtIdx) -> &[StmtIdx] {
        &self.succs[self.succ_start[idx] as usize..self.succ_start[idx + 1] as usize]
    }

    /// Predecessor statement indices, ascending.
    pub fn preds(&self, idx: StmtIdx) -> &[StmtIdx] {
        &self.preds[self.pred_start[idx] as usize..self.pred_start[idx + 1] as usize]
    }

    /// Number of statements covered.
    pub fn len(&self) -> usize {
        self.succ_start.len().saturating_sub(1)
    }

    /// Returns `true` for an empty CFG.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Back edges, a self loop, a branch to its own fall-through and a
    /// branch at the last statement: every statement's successors and
    /// its ascending predecessors.
    #[test]
    fn flat_cfg_lists_each_statement_edges() {
        let br = |target| Stmt::If { cond: Cond::Opaque, target };
        let stmts = vec![
            nop(),
            br(0),
            Stmt::Goto { target: 1 },
            br(3),
            br(4),
            Stmt::Return { value: None },
            Stmt::Goto { target: 6 },
            br(2),
        ];
        let cfg = Cfg::build(&stmts);
        assert_eq!(cfg.len(), 8);
        let succs: Vec<&[StmtIdx]> = (0..8).map(|i| cfg.succs(i)).collect();
        let want: [&[StmtIdx]; 8] = [&[1], &[2, 0], &[1], &[4, 3], &[5, 4], &[], &[6], &[2]];
        assert_eq!(succs, want);
        let preds: Vec<&[StmtIdx]> = (0..8).map(|i| cfg.preds(i)).collect();
        let want: [&[StmtIdx]; 8] = [&[1], &[0, 2], &[1, 7], &[3], &[3, 4], &[4], &[6], &[]];
        assert_eq!(preds, want);
        assert!(Cfg::default().is_empty() && Cfg::build(&[]).is_empty());
        assert_eq!(format!("{:?}", Cfg::build(&stmts[5..6])), "Cfg { succs: [[]], preds: [[]] }");
        assert_eq!(
            format!("{:?}", Cfg::build(&[nop(), br(0)])),
            "Cfg { succs: [[1], [0]], preds: [[1], [0]] }",
            "the per-statement lists the IR fingerprints hash"
        );
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
