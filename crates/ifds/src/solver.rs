//! The one-shot IFDS solver driver.

use crate::problem::IfdsProblem;
use crate::tabulator::{PathEdge, Tabulator};
use flowdroid_callgraph::Icfg;
use flowdroid_ir::StmtRef;
use std::collections::HashMap;
use std::hash::Hash;

/// The result of an IFDS run: facts holding before each reached
/// statement.
#[derive(Debug)]
pub struct IfdsResults<F> {
    facts: HashMap<StmtRef, Vec<F>>,
    propagation_count: u64,
}

impl<F: Clone + Eq + Hash> IfdsResults<F> {
    /// Facts holding before `n` (empty if `n` was never reached).
    pub fn facts_at(&self, n: StmtRef) -> &[F] {
        self.facts.get(&n).map_or(&[], Vec::as_slice)
    }

    /// Returns `true` if fact `d` holds before `n`.
    pub fn holds_at(&self, n: StmtRef, d: &F) -> bool {
        self.facts_at(n).contains(d)
    }

    /// All reached statements.
    pub fn reached_stmts(&self) -> impl Iterator<Item = &StmtRef> {
        self.facts.keys()
    }

    /// Number of path-edge propagations performed by the solve.
    pub fn propagation_count(&self) -> u64 {
        self.propagation_count
    }
}

/// Drives a [`Tabulator`] to a fixed point for a given [`IfdsProblem`].
///
/// # Example
///
/// See the crate-level integration tests for complete problems; the
/// shape is:
///
/// ```ignore
/// let solver = Solver::new(&icfg, &problem);
/// let results = solver.solve();
/// assert!(results.holds_at(sink_stmt, &fact));
/// ```
#[derive(Debug)]
pub struct Solver<'a, P: IfdsProblem> {
    icfg: &'a Icfg<'a>,
    problem: &'a P,
}

impl<'a, P: IfdsProblem> Solver<'a, P> {
    /// Creates a solver over `icfg` for `problem`.
    pub fn new(icfg: &'a Icfg<'a>, problem: &'a P) -> Self {
        Self { icfg, problem }
    }

    /// Runs the tabulation algorithm to a fixed point.
    pub fn solve(&self) -> IfdsResults<P::Fact> {
        let mut tab: Tabulator<P::Fact> = Tabulator::new();
        for (n, d) in self.problem.initial_seeds() {
            tab.propagate(d.clone(), n, d);
        }
        while let Some(edge) = tab.pop() {
            self.process(&mut tab, edge);
        }
        let mut facts: HashMap<StmtRef, Vec<P::Fact>> = HashMap::new();
        for (n, d) in tab.reached() {
            facts.entry(n).or_default().push(d);
        }
        IfdsResults { facts, propagation_count: tab.propagation_count() }
    }

    fn process(&self, tab: &mut Tabulator<P::Fact>, edge: PathEdge<P::Fact>) {
        let PathEdge { d1, n, d2 } = edge;
        let icfg = self.icfg;
        let is_call = icfg.is_call(n) && !icfg.callees_of_call(n).is_empty();
        if is_call {
            // Case 1: call statement.
            for &callee in icfg.callees_of_call(n) {
                let starts = icfg.start_points_of(callee);
                for d3 in self.problem.call_flow(n, callee, &d2) {
                    tab.add_incoming(callee, d3.clone(), n, d2.clone());
                    for sp in starts.clone() {
                        tab.propagate(d3.clone(), sp, d3.clone());
                    }
                    // Apply existing end summaries for this context.
                    for (exit, d4) in tab.summaries_for(callee, &d3) {
                        for ret_site in icfg.return_sites_of_call(n) {
                            for d5 in
                                self.problem.return_flow(n, callee, exit, ret_site, &d4)
                            {
                                tab.propagate(d1.clone(), ret_site, d5);
                            }
                        }
                    }
                }
            }
            for ret_site in icfg.return_sites_of_call(n) {
                for d3 in self.problem.call_to_return_flow(n, ret_site, &d2) {
                    tab.propagate(d1.clone(), ret_site, d3);
                }
            }
        } else if icfg.is_exit(n) {
            // Case 2: exit statement — install summary, return into all
            // recorded calling contexts.
            let callee = icfg.method_of(n);
            tab.install_summary(callee, d1.clone(), n, d2.clone());
            for (call_site, d4) in tab.incoming_for(callee, &d1) {
                for ret_site in icfg.return_sites_of_call(call_site) {
                    for d5 in self.problem.return_flow(call_site, callee, n, ret_site, &d2) {
                        for d3 in tab.d1s_at(call_site, &d4) {
                            tab.propagate(d3, ret_site, d5.clone());
                        }
                    }
                }
            }
        } else {
            // Case 3: normal statement (including calls without
            // body-having callees, which flow via call-to-return only).
            if icfg.is_call(n) {
                for ret_site in icfg.return_sites_of_call(n) {
                    for d3 in self.problem.call_to_return_flow(n, ret_site, &d2) {
                        tab.propagate(d1.clone(), ret_site, d3);
                    }
                }
            } else {
                for succ in icfg.succs_of(n) {
                    for d3 in self.problem.normal_flow(n, succ, &d2) {
                        tab.propagate(d1.clone(), succ, d3);
                    }
                }
            }
        }
    }
}
