//! Allocation budgets: entering an edge never allocates, and a worst-case
//! search and a symmetry group's build allocate a pinned number of times.
//!
//! A counting global allocator tallies the allocations the current thread
//! makes. A scripted sweep that enters a fresh edge at every step costs
//! the same pinned number of allocations inside
//! [`Runtime::run_with_policy`] on a small ring and on a large one: the
//! scratch buffers and the outcome, never one per edge the run enters. A
//! memoized [`search_worst_case`] sizes its table, fingerprint and choice
//! buffers from the horizon up front, so its count is pinned exactly, and
//! so is the count of building the group it quotients by.

use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{generators, Graph, GraphFamily, NodeId};
use rv_sim::adversary::RoundRobin;
use rv_sim::stop::DivergenceDetector;
use rv_sim::{
    search_worst_case, RunConfig, RunEnd, Runtime, RvBehavior, ScriptBehavior, SearchOptions,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs agent 0 once around `ring(n)` towards agent 1, which sleeps at
/// the node just behind agent 0's start, so the sweep enters `n - 1`
/// distinct edges before its arrival wakes agent 1 in the one meeting.
/// Returns the allocations made inside `run_with_policy`.
fn sweep_allocations(n: usize) -> u64 {
    let g = generators::ring(n);
    let ports: Vec<usize> = (0..n - 1)
        .map(|v| {
            g.port_towards(NodeId(v), NodeId(v + 1))
                .expect("ring neighbours")
                .0
        })
        .collect();
    let team = vec![
        ScriptBehavior::new(NodeId(0), ports),
        ScriptBehavior::new(NodeId(n - 1), []),
    ];
    let mut rt = Runtime::new(&g, team, RunConfig::rendezvous());
    let mut adversary = RoundRobin::new();
    let mut policy = DivergenceDetector::default();
    let before = allocations();
    let out = rt.run_with_policy(&mut adversary, &mut policy);
    let made = allocations() - before;
    assert_eq!(out.end, RunEnd::Meeting, "ring({n})");
    assert_eq!(out.total_traversals, n as u64 - 1, "ring({n})");
    made
}

/// A sweep makes three allocations on any ring: the runtime's
/// legal-choice buffer at its first fill, its meeting buffer at the one
/// meeting, and the outcome's per-agent traversal counts.
#[test]
fn run_allocations_do_not_grow_with_the_edges_entered() {
    let small = sweep_allocations(16);
    let large = sweep_allocations(256);
    assert_eq!(
        small, large,
        "ring(16) made {small} allocations, ring(256) made {large}"
    );
    assert_eq!(small, 3, "a sweep made {small} allocations");
}

/// Allocations made by one memoized `search_worst_case` over the two RV
/// agents of the scenario matrix's minimax cells, with the family's
/// group (`grouped`) or the identity group, and its leaf count.
fn search_allocations(g: &Graph, family: GraphFamily, depth: usize, grouped: bool) -> (u64, u64) {
    let uxs = SeededUxs::quadratic();
    let autos = family.automorphisms(g);
    let opts = SearchOptions {
        automorphisms: grouped.then_some(&autos),
        ..SearchOptions::default()
    };
    let make = || {
        vec![
            RvBehavior::new(g, uxs, NodeId(0), Label::new(1).expect("label 1")),
            RvBehavior::new(g, uxs, NodeId(2), Label::new(2).expect("label 2")),
        ]
    };
    let before = allocations();
    let report = search_worst_case(g, make, depth, &opts);
    (allocations() - before, report.worst.schedules_explored)
}

/// The searches of the benchmark's minimax workload: ring(4) at depths 8,
/// 12 and 14 under its dihedral group, and path(3) at depth 12 under the
/// identity (F5c). Each allocates the same pinned number of times on
/// every run.
///
/// Before the search kept one flat choice stack and sized its buffers
/// from the horizon, these searches made 45, 59, 62 and 61 allocations:
/// one choice buffer per depth, and a table and fingerprint buffers that
/// every search grew again. Before the future table sized each agent's
/// port and arrival vectors from the horizon, they made 30, 36, 36 and
/// 38: the searches of depth 12 and more grew both vectors once per
/// agent.
#[test]
fn search_allocations_are_pinned() {
    let ring = generators::ring(4);
    let path = generators::path(3);
    let got = [
        search_allocations(&ring, GraphFamily::Ring, 8, true),
        search_allocations(&ring, GraphFamily::Ring, 12, true),
        search_allocations(&ring, GraphFamily::Ring, 14, true),
        search_allocations(&path, GraphFamily::Path, 12, false),
    ];
    assert_eq!(got, [(30, 196), (32, 2836), (32, 11284), (34, 2236)]);
}

/// Allocations made by building `family`'s group on `g`.
fn group_allocations(g: &Graph, family: GraphFamily) -> u64 {
    let before = allocations();
    let group = family.automorphisms(g);
    let made = allocations() - before;
    drop(group);
    made
}

/// Building the groups of ring(4), ring(24) and hypercube(16) allocates
/// a pinned number of times: the family's candidate lists, one vector
/// per member, and the closure's few growing buffers.
///
/// Before the closure ran from generators, these builds made 319, 11,489
/// and 1,274 allocations: every composition of every member with every
/// popped permutation, both ways, and a copy of the member set per pop.
#[test]
fn group_allocations_are_pinned() {
    let got = [
        group_allocations(&generators::ring(4), GraphFamily::Ring),
        group_allocations(&generators::ring(24), GraphFamily::Ring),
        group_allocations(&generators::hypercube(4), GraphFamily::Hypercube),
    ];
    assert_eq!(got, [27, 113, 47]);
}
