//! An exact protocol-mode `Cutoff` prefix: the smoke matrix's
//! `ring8/greedy-avoid/sgl-k4` cell, opened from its spec the way
//! `scenario_matrix` opens it, run under the plain traversal budget with
//! no stop policy. The run must stop on exactly the budget's traversal,
//! and the actions and meetings on the way there are pinned, so any
//! change to the SGL protocol, the runtime's scheduling or its budget
//! check shows here.

use rv_bench::cells::{cells, CellKind, PROTOCOL_SMOKE_CUTOFF};
use rv_sim::RunEnd;

#[test]
fn ring8_greedy_avoid_sgl_k4_stops_exactly_at_the_smoke_cutoff() {
    let spec = cells()
        .into_iter()
        .find(|c| c.scenario_id() == "ring8/greedy-avoid/sgl-k4")
        .expect("the cell is declared");
    let CellKind::Sgl {
        k: 4,
        fault_seed: None,
        certify: true,
    } = spec.kind
    else {
        panic!("a fault-free certified SGL cell, not {:?}", spec.kind);
    };
    let cutoff = spec.cutoff(true);
    assert_eq!(cutoff, PROTOCOL_SMOKE_CUTOFF);
    let g = spec.graph();
    let mut run = spec.open_sgl(&g, cutoff);
    let out = run.rt.run(run.adversary.as_mut());
    assert_eq!(out.end, RunEnd::Cutoff);
    assert_eq!(out.total_traversals, 40_000);
    assert_eq!(out.actions, 80_006);
    assert_eq!(out.meetings.len(), 14_750);
}
