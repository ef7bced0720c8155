//! Budget aborts stop at the same edge however far a walk jumps.
//!
//! Solves the `stress/200` chain under a ladder of
//! `max_propagations` budgets and pins each run's outcome: whether it
//! aborted, its forward propagations and pops, and its leaks. A walk
//! records a fact down straight-line code without queueing it and
//! checks the budget after every edge it records, so an aborted run
//! stops within two edges of the budget and pops the same edges
//! whatever the walk's step. A walk that recorded a run of edges past
//! the budget would record more.

use flowdroid_bench::driver::{shared_platform_snapshot, stress_job};
use flowdroid_core::job::{analyze_parsed, parse_job};
use flowdroid_core::InfoflowConfig;

/// (budget, forward propagations, forward pops, leaks) on the
/// `stress/200` chain.
const PINNED: [(u64, u64, u64, usize); 12] = [
    (1, 3, 1, 0),
    (2, 4, 1, 0),
    (3, 5, 1, 0),
    (7, 9, 1, 0),
    (57, 59, 1, 0),
    (100, 102, 1, 0),
    (199, 201, 1, 0),
    (1000, 1002, 10, 0),
    (5000, 5002, 54, 0),
    (12345, 12347, 150, 0),
    (20000, 20002, 332, 0),
    (20704, 20705, 404, 1),
];

#[test]
fn budget_aborts_are_pinned_on_the_k200_chain() {
    let job = stress_job(200);
    let snapshot = shared_platform_snapshot();
    for (budget, props, pops, leaks) in PINNED {
        let config = InfoflowConfig { max_propagations: budget, ..InfoflowConfig::default() };
        let parsed = parse_job(&job, snapshot.overlay_program()).expect("stress jobs parse");
        let (_, r) = analyze_parsed(parsed, &config, snapshot);
        let got = (r.aborted, r.forward_propagations, r.forward_pops, r.leak_count());
        assert_eq!(got, (true, props, pops, leaks), "budget {budget}");
    }
}
