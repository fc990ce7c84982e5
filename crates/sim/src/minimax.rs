//! Exhaustive worst-case scheduling for *tiny* horizons.
//!
//! The simulator's adversaries are heuristics; this module computes the
//! **true** worst case — the schedule maximising the cost of the first
//! forced meeting — by exhaustive search over adversary choices, up to an
//! action-depth cap. Exponential in the cap (branching = number of legal
//! actions), so only usable for small instances; it is the calibration
//! reference for experiment F5.
//!
//! The search is one sequential depth-first walk with two branches: the
//! memoized walk (apply/undo plus a transposition table) whenever the
//! behaviors can preview their futures, and the plain enumeration
//! otherwise. The plain enumeration is also what `memo: false` runs, and
//! it is the oracle the memoized walk is tested bit-identical against.
//!
//! Either way the agents are instantiated **once** (the factory is
//! `FnOnce`) and no schedule prefix is ever re-executed.
//!
//! # The plain enumeration: one fork per extra child
//!
//! Since behaviors implement the [`Behavior::fork`] contract, the plain
//! enumeration is a short recursive walk that owns the runtime it
//! explores: at a node with `w` legal actions every child but the last
//! runs on a [`Runtime::fork`] of the node, and the last child takes the
//! node's runtime by move — `w − 1` forks per branching node, none at a
//! node with a single legal action, and no prefix replay. Each child is
//! applied with [`Runtime::apply`] and scored by the meetings that apply
//! returns, so the oracle never consults the `causes_meeting`
//! annotations, `wake_would_meet` or apply/undo that the memoized walk
//! relies on. The behaviors are warmed once at the root
//! ([`Behavior::warm`]), so every fork inherits their materialised
//! first-move state.
//!
//! # The memoized walk: replay cursors
//!
//! Behaviors are deterministic port sequences and meetings are leaves of
//! the search, so every agent's port stream is the same in every
//! schedule. The memoized walk resolves each stream once at the root
//! (`crate::memo::FutureTable`, through [`Behavior::future_ports`]) and
//! then runs on a second runtime whose agents are `Copy` replays of those
//! streams (`crate::memo::Replay`): `next_port` is an index read and a
//! fork is a 32-byte copy. So the apply/undo brackets around every
//! descent never allocate, and the real behaviors are never forked —
//! not even warmed. The resolution covers every port the walk can
//! commit; a replay driven past a truncated one panics instead of
//! parking.
//!
//! # Transposition table over canonical fingerprints
//!
//! The schedule tree is really a DAG — distinct prefixes reach identical
//! states — and on symmetric families whole subtrees are automorphism
//! images of each other. By default ([`SearchOptions::memo`]) the search
//! consults a transposition table keyed by the canonical state
//! fingerprint of `crate::memo`: a hit substitutes the memoized subtree
//! value (kept bit-identical to enumeration, including the leaf count),
//! and a miss searches the subtree and inserts its value. Memoized values
//! are stored relative to the subtree root's traversal total, which is
//! what lets one entry serve every equivalent state wherever it appears
//! in the tree. Behaviors that cannot preview their future
//! ([`Behavior::future_ports`]) silently degrade the search to the plain
//! enumeration. Quotienting by a real symmetry group is opt-in via
//! [`SearchOptions::automorphisms`] — pass
//! `GraphFamily::automorphisms(&g)` to fold automorphic states together.
//!
//! A panic inside the search (a behavior bug, say) reaches the caller
//! directly: the walk is deterministic, so retrying it would panic again.

use crate::behavior::Behavior;
use crate::memo::{Fingerprinter, FutureTable, MemoStats, MemoTable, MemoValue, Replay};
use crate::runtime::{Choice, ChoiceInfo, RunConfig, Runtime};
use rv_graph::{Automorphisms, Graph};

/// Result of an exhaustive search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorstCase {
    /// Highest meeting cost over all schedules that meet within the depth
    /// cap (`None` if no schedule meets within the cap).
    pub max_meeting_cost: Option<u64>,
    /// Whether some schedule within the cap avoids any meeting entirely.
    pub some_schedule_avoids: bool,
    /// Number of schedules (leaves) explored.
    pub schedules_explored: u64,
}

impl WorstCase {
    fn empty() -> Self {
        WorstCase {
            max_meeting_cost: None,
            some_schedule_avoids: false,
            schedules_explored: 0,
        }
    }

    fn record_meeting(&mut self, cost: u64) {
        self.schedules_explored += 1;
        self.max_meeting_cost = Some(self.max_meeting_cost.map_or(cost, |m| m.max(cost)));
    }

    fn record_avoidance(&mut self) {
        self.schedules_explored += 1;
        self.some_schedule_avoids = true;
    }

    /// Folds a root-relative memoized subtree value in; `base` is the
    /// total traversal count at the subtree root. `max`/`sum`/`or` all
    /// commute with the constant offset, so this reconstructs exactly the
    /// aggregates plain enumeration of that subtree would have produced.
    fn absorb_value(&mut self, v: MemoValue, base: u64) {
        if let Some(d) = v.max_delta {
            let cost = base + d;
            self.max_meeting_cost = Some(self.max_meeting_cost.map_or(cost, |m| m.max(cost)));
        }
        self.some_schedule_avoids |= v.avoids;
        self.schedules_explored += v.leaves;
    }
}

/// Knobs for [`search_worst_case`]. `Default` is the production
/// configuration: transposition table on, identity symmetry group.
#[derive(Clone, Copy, Debug)]
pub struct SearchOptions<'a> {
    /// Ignored: the search is sequential. Kept so existing struct literals
    /// keep compiling; `Default` sets `Some(1)`, the one worker it uses.
    pub workers: Option<usize>,
    /// Consult the transposition table (`false` forces plain enumeration —
    /// the reference the memoized search is tested bit-identical against).
    pub memo: bool,
    /// Symmetry group to quotient fingerprints by; `None` means identity
    /// only (always sound). Pass the graph's verified group from
    /// [`rv_graph::GraphFamily::automorphisms`] for symmetric families.
    pub automorphisms: Option<&'a Automorphisms>,
}

impl Default for SearchOptions<'_> {
    fn default() -> Self {
        SearchOptions {
            workers: Some(1),
            memo: true,
            automorphisms: None,
        }
    }
}

/// A search result plus table instrumentation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchReport {
    /// The worst case — bit-identical for every [`SearchOptions`]
    /// configuration.
    pub worst: WorstCase,
    /// Transposition-table statistics (`None` when the table was off).
    /// Deterministic: the same options always report the same counts.
    pub memo: Option<MemoStats>,
}

/// Exhaustively explores every adversary schedule of at most `max_actions`
/// actions over the agents produced by `make_behaviors` — which is called
/// exactly once, before the search starts; all further state reuse is
/// apply/undo over replays of the agents' resolved port streams, or
/// [`Runtime::fork`] ([`Behavior::fork`]), never re-instantiation.
pub fn exhaustive_worst_case<B, F>(g: &Graph, make_behaviors: F, max_actions: usize) -> WorstCase
where
    B: Behavior,
    F: FnOnce() -> Vec<B>,
{
    search_worst_case(g, make_behaviors, max_actions, &SearchOptions::default()).worst
}

/// [`exhaustive_worst_case`] with explicit control over the transposition
/// table and the symmetry quotient, reporting table statistics alongside
/// the (configuration-independent) result.
pub fn search_worst_case<B, F>(
    g: &Graph,
    make_behaviors: F,
    max_actions: usize,
    opts: &SearchOptions<'_>,
) -> SearchReport
where
    B: Behavior,
    F: FnOnce() -> Vec<B>,
{
    let identity_group;
    let autos = match opts.automorphisms {
        Some(a) => a,
        None => {
            identity_group = Automorphisms::identity(g.order());
            &identity_group
        }
    };
    let mut rt = Runtime::new(g, make_behaviors(), RunConfig::rendezvous());
    let mut worst = WorstCase::empty();
    // Behaviors are deterministic and meetings are terminal, so every
    // agent's port stream is fixed for the whole search: resolve it once
    // here.
    let futures = if opts.memo {
        let f = FutureTable::resolve(&rt, max_actions);
        f.is_supported().then_some(f)
    } else {
        None
    };
    let memo = match &futures {
        Some(futures) => {
            // The walk runs on replays of the resolved streams: the root
            // is the initial state, which `Runtime::new` reproduces, and
            // the resolution covers every port the walk commits.
            let mut replay = Runtime::new(g, futures.replays(&rt), RunConfig::rendezvous());
            // Buffers sized from the horizon, so the walk never grows them:
            // a node offers at most one choice per agent, and the searches
            // the matrix and F5c run keep fewer than `horizon² / 2` table
            // entries (depth-14 ring: 78).
            let agents = rt.agent_count();
            let mut search = MemoSearch {
                table: MemoTable::with_capacity(max_actions * max_actions / 2),
                autos,
                futures,
                fpr: Fingerprinter::new(agents, max_actions),
                scratch: Vec::with_capacity(agents),
                stack: Vec::with_capacity(agents * max_actions),
                meetings: Vec::new(),
                max_actions,
            };
            let t_root = replay.total_traversals();
            worst.absorb_value(search.explore(&mut replay, 0), t_root);
            Some(search.table.stats())
        }
        None => {
            // Materialise each behavior's lazy first-move state before the
            // enumeration: every branch starts from this state, so
            // cold-start work done here is paid once instead of once per
            // fork. Commutes with the port stream (see `Behavior::warm`).
            rt.warm_behaviors();
            enumerate(rt, 0, max_actions, &mut worst);
            // A table that was asked for but never consulted reports zeros.
            opts.memo.then(MemoStats::default)
        }
    };
    SearchReport { worst, memo }
}

/// Below this residual depth the table is not consulted: the subtree is
/// cheaper to enumerate than the canonical fingerprint is to compute.
const MEMO_MIN_RESIDUAL: usize = 2;

/// The memoized walk's state: the table, the fingerprinting gear, and
/// one flat stack of the choices of every node on the current path.
struct MemoSearch<'a> {
    table: MemoTable,
    /// The symmetry group fingerprints are canonicalized under.
    autos: &'a Automorphisms,
    /// Every agent's port and arrival sequence, resolved once at the
    /// root; the replays the walk runs on borrow its ports.
    futures: &'a FutureTable,
    fpr: Fingerprinter,
    /// The legal choices of the node being entered, before they move onto
    /// `stack`.
    scratch: Vec<ChoiceInfo>,
    /// The choices of every node on the current path, the root's first: a
    /// node pushes its own on entry and truncates them on exit, so its
    /// children are entered without re-enumerating it.
    stack: Vec<ChoiceInfo>,
    meetings: Vec<crate::Meeting>,
    max_actions: usize,
}

impl MemoSearch<'_> {
    /// Depth-first memoized search of the subtree whose root state `rt` is
    /// **already positioned at**, returning the subtree's value *relative
    /// to its own root* (see [`MemoValue`]). The recursion depth is
    /// bounded by `max_actions` (tiny by this module's charter), and a
    /// node's choices sit on the flat choice stack, above its ancestors',
    /// while its children are searched — the list of legal choices at a
    /// node is a pure function of its state, which the undo reproduces.
    ///
    /// At every node with residual depth ≥ [`MEMO_MIN_RESIDUAL`] the table
    /// is consulted: a hit returns the stored value, a miss searches and
    /// inserts. The residual depth is part of the key and strictly falls
    /// along a path, so a node never meets its own key on the way down.
    fn explore(&mut self, rt: &mut Runtime<'_, Replay<'_>>, depth: usize) -> MemoValue {
        if depth >= self.max_actions {
            return MemoValue::avoid_leaf();
        }
        let residual = self.max_actions - depth;
        let mut key = None;
        if residual >= MEMO_MIN_RESIDUAL {
            if let Some(fp) = self.fpr.fingerprint(rt, residual, self.autos, self.futures) {
                let k = (fp, residual as u32);
                if let Some(v) = self.table.get(k) {
                    return v;
                }
                key = Some(k);
            }
        }
        rt.legal_choices_into(&mut self.scratch);
        let value = if self.scratch.is_empty() {
            // All parked counts as an avoiding schedule.
            MemoValue::avoid_leaf()
        } else {
            let base = self.stack.len();
            self.stack.extend_from_slice(&self.scratch);
            // Undo discipline: every descent is bracketed by
            // [`Runtime::apply_undoable`]/[`Runtime::undo`], so this function
            // returns with `rt` exactly as it entered — no whole-runtime
            // forks, and a token is a few `Copy` fields (a
            // replay's fork is a copy too). The bracket requires
            // meeting-free applies:
            // children annotated `causes_meeting` are terminal (record the
            // foreseen delta directly, never enter them), and `Wake` — the one
            // unannotated kind — is split by [`Runtime::wake_would_meet`] into
            // a traversal-free meeting leaf or a real descent.
            let t_node = rt.total_traversals();
            let horizon = depth + 1 == self.max_actions;
            let mut acc = MemoValue::empty();
            for j in base..self.stack.len() {
                let info = self.stack[j];
                if info.causes_meeting {
                    let delta = matches!(info.choice.kind, crate::ActionKind::Finish) as u64;
                    acc.record_meeting_delta(delta);
                    continue;
                }
                if matches!(info.choice.kind, crate::ActionKind::Wake)
                    && rt.wake_would_meet(info.choice.agent)
                {
                    // Waking at an occupied node meets on the spot — no
                    // traversal completes, so the delta is zero.
                    acc.record_meeting_delta(0);
                    continue;
                }
                if horizon {
                    // The child sits at the depth cap and every meeting case
                    // is handled above: a guaranteed meeting-free leaf,
                    // counted without touching the runtime.
                    acc.absorb(MemoValue::avoid_leaf(), 0);
                    continue;
                }
                let token = rt.apply_undoable(info.choice, &mut self.meetings);
                let t_child = rt.total_traversals();
                let child = self.explore(rt, depth + 1);
                acc.absorb(child, t_child - t_node);
                rt.undo(token);
            }
            self.stack.truncate(base);
            acc
        };
        if let Some(k) = key {
            self.table.insert(k, value);
        }
        value
    }
}

/// Plain depth-first enumeration of every schedule from `rt`, a
/// meeting-free node at `depth`, scoring every leaf into `result`. Every
/// child but the last runs on a fork of `rt`; the last takes `rt` itself.
fn enumerate<B: Behavior>(
    rt: Runtime<'_, B>,
    depth: usize,
    max_actions: usize,
    result: &mut WorstCase,
) {
    let choices = if depth < max_actions {
        rt.legal_choices()
    } else {
        Vec::new()
    };
    let Some((last, rest)) = choices.split_last() else {
        // Depth cap or all parked: an avoiding schedule exists.
        result.record_avoidance();
        return;
    };
    for c in rest {
        enumerate_child(rt.fork(), c.choice, depth, max_actions, result);
    }
    enumerate_child(rt, last.choice, depth, max_actions, result);
}

/// Applies `choice` to `rt` (a node at `depth`) and scores the child: a
/// meeting ends the schedule at the cost reached, otherwise the child's
/// subtree is enumerated.
fn enumerate_child<B: Behavior>(
    mut rt: Runtime<'_, B>,
    choice: Choice,
    depth: usize,
    max_actions: usize,
    result: &mut WorstCase,
) {
    if rt.apply(choice).is_empty() {
        enumerate(rt, depth + 1, max_actions, result);
    } else {
        result.record_meeting(rt.total_traversals());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ScriptBehavior;
    use rv_graph::{generators, NodeId};

    #[test]
    fn two_node_path_forces_meeting_on_every_schedule() {
        // Both agents must cross the single edge: every schedule meets.
        let g = generators::path(2);
        let res = exhaustive_worst_case(
            &g,
            || {
                vec![
                    ScriptBehavior::new(NodeId(0), [0]),
                    ScriptBehavior::new(NodeId(1), [0]),
                ]
            },
            10,
        );
        assert!(!res.some_schedule_avoids, "path(2) leaves no escape");
        // Worst case: one agent fully crosses, waking/finding the other —
        // at most 2 completed traversals before the meeting.
        assert!(res.max_meeting_cost.unwrap() <= 2);
        assert!(res.schedules_explored > 0);
    }

    #[test]
    fn parked_agents_allow_avoidance() {
        // Agent 1 never moves and agent 0 walks away from it: within a
        // short horizon no meeting is forced.
        let g = generators::path(3);
        let res = exhaustive_worst_case(
            &g,
            || {
                vec![
                    ScriptBehavior::new(
                        NodeId(1),
                        [g.port_towards(NodeId(1), NodeId(2)).unwrap().0],
                    ),
                    ScriptBehavior::new(NodeId(0), []),
                ]
            },
            6,
        );
        assert!(res.some_schedule_avoids);
    }

    #[test]
    fn worst_case_dominates_heuristic_adversaries() {
        // The exhaustive maximum is at least what greedy-avoid achieves on
        // the same instance.
        use crate::adversary::GreedyAvoid;
        use crate::RunConfig;
        let g = generators::ring(3);
        let make = || {
            vec![
                ScriptBehavior::new(NodeId(0), [0, 0, 0]),
                ScriptBehavior::new(NodeId(1), [0, 0, 0]),
            ]
        };
        let exhaustive = exhaustive_worst_case(&g, make, 12);
        let mut rt = Runtime::new(&g, make(), RunConfig::rendezvous());
        let out = rt.run(&mut GreedyAvoid::new(3));
        if let (Some(max), crate::RunEnd::Meeting) = (exhaustive.max_meeting_cost, out.end) {
            assert!(max >= out.total_traversals);
        }
    }

    #[test]
    fn zero_horizon_has_one_avoiding_schedule() {
        let g = generators::path(2);
        let res = exhaustive_worst_case(
            &g,
            || {
                vec![
                    ScriptBehavior::new(NodeId(0), [0]),
                    ScriptBehavior::new(NodeId(1), [0]),
                ]
            },
            0,
        );
        assert_eq!(res.max_meeting_cost, None);
        assert!(res.some_schedule_avoids);
        assert_eq!(res.schedules_explored, 1);
    }

    #[test]
    fn factory_is_called_exactly_once() {
        // No prefix is ever re-executed: behaviors are instantiated once,
        // and every branch is apply/undo or a fork.
        let calls = std::cell::Cell::new(0usize);
        let g = generators::ring(4);
        let res = exhaustive_worst_case(
            &g,
            || {
                calls.set(calls.get() + 1);
                vec![
                    ScriptBehavior::new(NodeId(0), [0, 0, 0, 0]),
                    ScriptBehavior::new(NodeId(2), [0, 0, 0, 0]),
                ]
            },
            8,
        );
        // 129 leaves: pinned against the seed's sequential odometer
        // enumeration (replayed via reset + factory per prefix).
        assert_eq!(res.schedules_explored, 129);
        assert_eq!(calls.get(), 1);
    }

    /// Two 4-step scripted walkers on opposite sides of ring(4).
    fn ring4_walkers() -> Vec<ScriptBehavior> {
        vec![
            ScriptBehavior::new(NodeId(0), [0, 0, 0, 0]),
            ScriptBehavior::new(NodeId(2), [0, 0, 0, 0]),
        ]
    }

    #[test]
    fn leaf_counts_match_the_seed_enumeration_at_every_horizon() {
        // Each horizon must enumerate exactly the leaf set the seed's
        // sequential odometer enumeration produced (counts pinned against
        // a reimplementation of the seed's replaying search), memoized or
        // not.
        let g = generators::ring(4);
        for (depth, expected) in [(1, 2), (2, 4), (3, 8), (5, 32), (7, 85), (8, 129)] {
            for memo in [false, true] {
                let opts = SearchOptions {
                    memo,
                    ..SearchOptions::default()
                };
                let res = search_worst_case(&g, ring4_walkers, depth, &opts).worst;
                assert_eq!(
                    res.schedules_explored, expected,
                    "leaf count drifted from the seed enumeration at depth {depth} (memo {memo})"
                );
            }
        }
    }

    #[test]
    fn results_are_worker_count_independent() {
        // `workers` is ignored: every value yields the same report, table
        // statistics included.
        let g = generators::ring(4);
        let autos = rv_graph::GraphFamily::Ring.automorphisms(&g);
        let run = |workers| {
            let opts = SearchOptions {
                workers,
                memo: true,
                automorphisms: Some(&autos),
            };
            search_worst_case(&g, ring4_walkers, 8, &opts)
        };
        let reference = run(Some(1));
        assert_eq!(reference.worst.schedules_explored, 129);
        for workers in [None, Some(2), Some(8)] {
            assert_eq!(
                run(workers),
                reference,
                "workers {workers:?} changed the report"
            );
        }
    }

    /// A script walker whose every fork panics; `previews` says whether it
    /// reports its future (and so admits the memoized walk).
    struct Brittle {
        script: ScriptBehavior,
        previews: bool,
    }

    impl Behavior for Brittle {
        type Info = ();
        fn start_node(&self) -> NodeId {
            self.script.start_node()
        }
        fn next_port(&mut self) -> Option<rv_graph::PortId> {
            self.script.next_port()
        }
        fn info(&self) {}
        fn on_meeting(&mut self, _place: crate::meeting::MeetingPlace, _peers: &[()]) {}
        fn fork(&self) -> Self {
            panic!("behavior bug");
        }
        fn future_ports(&self, out: &mut Vec<rv_graph::PortId>, limit: usize) -> bool {
            self.previews && self.script.future_ports(out, limit)
        }
    }

    fn brittle_walkers(previews: bool) -> Vec<Brittle> {
        ring4_walkers()
            .into_iter()
            .map(|script| Brittle { script, previews })
            .collect()
    }

    #[test]
    #[should_panic(expected = "behavior bug")]
    fn a_panic_in_a_behavior_reaches_the_caller() {
        // No preview, so the search is the plain enumeration: the first
        // fork aborts it.
        let g = generators::ring(4);
        let _ = exhaustive_worst_case(&g, || brittle_walkers(false), 8);
    }

    #[test]
    fn memoized_search_forks_no_behavior() {
        // The memoized walk runs on replays of the resolved futures, so a
        // behavior whose fork panics is never forked — and the result is
        // the plain enumeration's over the same scripts.
        let g = generators::ring(4);
        for depth in [1, 2, 5, 8, 12] {
            let brittle = search_worst_case(
                &g,
                || brittle_walkers(true),
                depth,
                &SearchOptions::default(),
            );
            let plain = SearchOptions {
                memo: false,
                ..SearchOptions::default()
            };
            let reference = search_worst_case(&g, ring4_walkers, depth, &plain).worst;
            assert_eq!(brittle.worst, reference, "depth {depth}");
            assert!(brittle.memo.is_some_and(|m| depth < 2 || m.probes > 0));
        }
    }

    /// A script walker that records every look-ahead `limit` it is asked
    /// for.
    #[derive(Clone)]
    struct Previewer {
        script: ScriptBehavior,
        limits: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
    }

    impl Behavior for Previewer {
        type Info = ();
        fn start_node(&self) -> NodeId {
            self.script.start_node()
        }
        fn next_port(&mut self) -> Option<rv_graph::PortId> {
            self.script.next_port()
        }
        fn info(&self) {}
        fn on_meeting(&mut self, _place: crate::meeting::MeetingPlace, _peers: &[()]) {}
        fn fork(&self) -> Self {
            self.clone()
        }
        fn future_ports(&self, out: &mut Vec<rv_graph::PortId>, limit: usize) -> bool {
            self.limits.borrow_mut().push(limit);
            self.script.future_ports(out, limit)
        }
    }

    #[test]
    fn memoized_search_previews_horizon_over_two_ports() {
        // The memoized walk commits at most `horizon / 2` ports per agent
        // (see `FutureTable::resolve`): each agent is previewed once, that
        // far and no further, and the search still reproduces the plain
        // enumeration with scripts longer than the preview.
        let g = generators::ring(4);
        for horizon in 0..14 {
            let limits = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let team = || {
                ring4_walkers()
                    .into_iter()
                    .map(|script| Previewer {
                        script,
                        limits: std::rc::Rc::clone(&limits),
                    })
                    .collect()
            };
            let memo = search_worst_case(&g, team, horizon, &SearchOptions::default());
            assert_eq!(*limits.borrow(), [horizon / 2; 2], "horizon {horizon}");
            let plain = SearchOptions {
                memo: false,
                ..SearchOptions::default()
            };
            let reference = search_worst_case(&g, ring4_walkers, horizon, &plain).worst;
            assert_eq!(memo.worst, reference, "horizon {horizon}");
        }
    }

    #[test]
    #[should_panic(expected = "behavior bug")]
    fn plain_search_still_forks_a_previewing_behavior() {
        let g = generators::ring(4);
        let plain = SearchOptions {
            memo: false,
            ..SearchOptions::default()
        };
        let _ = search_worst_case(&g, || brittle_walkers(true), 8, &plain);
    }

    /// SplitMix64 step, for the property test's team generator.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `agents` scripted random walkers at distinct random nodes of `g`,
    /// each `0..=max_len` ports long over every port of its nodes.
    fn random_walkers(g: &Graph, agents: usize, max_len: u64, seed: u64) -> Vec<ScriptBehavior> {
        let mut rng = seed;
        let mut nodes: Vec<usize> = (0..g.order()).collect();
        for j in (1..nodes.len()).rev() {
            nodes.swap(j, splitmix(&mut rng) as usize % (j + 1));
        }
        nodes[..agents]
            .iter()
            .map(|&start| {
                let mut at = NodeId(start);
                let len = splitmix(&mut rng) % (max_len + 1);
                let ports: Vec<usize> = (0..len)
                    .map(|_| {
                        let p = splitmix(&mut rng) as usize % g.degree(at);
                        at = g.traverse(at, rv_graph::PortId(p)).node;
                        p
                    })
                    .collect();
                ScriptBehavior::new(NodeId(start), ports)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The memoized walk on replays against its oracle, the plain
        /// enumeration over the real behaviors: random graph (ring, path,
        /// star or gnp), two- or three-agent teams of random walkers over
        /// every port, and horizons up to 12 must reproduce the plain
        /// result bit for bit, under the identity group and the family's
        /// own group alike. Scripts run from empty to longer than the
        /// resolution (`horizon / 2` ports), so both complete and
        /// truncated futures are replayed.
        #[test]
        fn memoized_search_matches_plain_enumeration(
            family in 0u64..4,
            n in 4usize..8,
            three in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
            horizon in 1usize..13,
        ) {
            let (g, autos) = match family {
                0 => {
                    let g = generators::ring(n);
                    let autos = rv_graph::GraphFamily::Ring.automorphisms(&g);
                    (g, autos)
                }
                1 => {
                    let g = generators::path(n);
                    let autos = rv_graph::GraphFamily::Path.automorphisms(&g);
                    (g, autos)
                }
                2 => {
                    let g = generators::star(n);
                    let autos = Automorphisms::identity(g.order());
                    (g, autos)
                }
                _ => {
                    let g = generators::gnp_connected(n, 0.4, seed);
                    let autos = Automorphisms::identity(g.order());
                    (g, autos)
                }
            };
            let agents = if three { 3 } else { 2 };
            let make = || random_walkers(&g, agents, 9, seed);
            let search = |memo, automorphisms| {
                let opts = SearchOptions { memo, automorphisms, ..SearchOptions::default() };
                search_worst_case(&g, make, horizon, &opts).worst
            };
            let reference = search(false, None);
            proptest::prop_assert_eq!(search(true, None), reference.clone());
            proptest::prop_assert_eq!(
                search(true, Some(&autos)), reference,
                "family={} n={} agents={} seed={} horizon={}", family, n, agents, seed, horizon
            );
        }
    }
}
