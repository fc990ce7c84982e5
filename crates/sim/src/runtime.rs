//! The scheduler runtime: agent state, edge occupancy, forced-meeting
//! detection, and the adversary-driven run loop.
//!
//! # Layout
//!
//! A runtime keeps its agents in two parallel tables. The scheduler reads
//! and writes a dense table of small `Copy` records ([`AgentState`]:
//! place, committed move, awake/crashed flags, traversal count, edge-entry
//! time); the behaviors live apart in a `Vec<B>` and are touched only when
//! an agent commits a move, reveals its info, reports progress, or
//! receives a meeting. Legal-choice enumeration, node-contact scans,
//! [`Runtime::wake_would_meet`] and [`Runtime::progress`]'s census
//! therefore walk a few cache lines however large a behavior is (an SGL
//! agent is about 800 bytes).
//!
//! Edge occupancy is a dense `Vec<EdgeOcc>` indexed by
//! [`Graph::edge_index_at`] (no hashing), one FIFO queue per direction.
//! Committing a move caches its **edge geometry** in the agent's state:
//! the dense edge index and the departure side, found by the same CSR
//! lookup that resolves the arrival node, and kept while the agent is
//! inside the edge. So a `Start` is annotated with one queue-length load,
//! applying it makes no graph lookup, and a `Finish` overtakes exactly
//! when its agent is not the front of its direction queue.
//!
//! The hot path is allocation-free in steady state: edge queues keep their
//! capacity across occupancy changes, and the `_into` variants of
//! [`Runtime::legal_choices`] / [`Runtime::apply`] write into caller-owned
//! buffers that [`Runtime::run`] and the minimax search reuse across
//! steps.
//!
//! # State lifecycle
//!
//! A runtime state moves through construct → run → snapshot → fork →
//! restore: [`Runtime::new`] constructs, [`Runtime::run`] / `apply` steps,
//! [`Runtime::snapshot`] freezes the complete mid-run state (forking every
//! behavior per the [`Behavior::fork`] contract) into a
//! [`RuntimeSnapshot`], and [`Runtime::restore`] /
//! [`Runtime::from_snapshot`] re-enter that state — on the same runtime
//! or a fresh one — without replaying the schedule prefix.
//! [`Runtime::reset`] is the other rewind: back to the *initial* state
//! with brand-new behaviors (see its docs for the reset-vs-restore rule of
//! thumb).

use crate::behavior::Behavior;
use crate::fault::{FaultClock, FaultPlan};
use crate::meeting::{AgentSet, Meeting, MeetingLog, MeetingPlace};
use rv_graph::{EdgeId, Graph, NodeId, PortId};

/// Agent position at the abstraction level of the model (see crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Place {
    /// Standing at a node.
    AtNode(NodeId),
    /// Strictly inside `edge`, committed to arriving at `to`.
    Inside {
        /// The occupied edge.
        edge: EdgeId,
        /// Departure node.
        from: NodeId,
        /// Committed arrival node.
        to: NodeId,
    },
}

/// The primitive scheduling actions available to the adversary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActionKind {
    /// Begin the agent's committed traversal (node → edge interior).
    Start,
    /// Complete the agent's traversal (edge interior → node).
    Finish,
    /// Wake a sleeping agent.
    Wake,
}

/// One adversary decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Choice {
    /// Index of the agent acted upon.
    pub agent: usize,
    /// The action.
    pub kind: ActionKind,
}

/// A legal choice, annotated with whether taking it forces a meeting —
/// the information a meeting-avoiding adversary needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChoiceInfo {
    /// The choice.
    pub choice: Choice,
    /// `true` if applying it declares at least one meeting.
    pub causes_meeting: bool,
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunEnd {
    /// A meeting occurred and the config stops at the first meeting.
    Meeting,
    /// No agent can act: everyone is parked (and nobody is asleep).
    AllParked,
    /// The total-traversal cutoff was reached.
    Cutoff,
    /// A stop policy concluded the run diverges: its progress metric (the
    /// rendezvous piece number) stagnated while cost grew past the
    /// policy's window (see [`crate::stop::DivergenceDetector`]).
    Diverged,
    /// A stop policy concluded the run stalled: the summed progress
    /// metric went silent for longer than the policy's patience window
    /// (see [`crate::stop::AdaptiveThreshold`]).
    Stalled,
    /// Every agent has crash-stopped (see [`crate::fault`]); nothing can
    /// ever act again. Only reachable with a fault plan installed.
    AllCrashed,
    /// Crash faults felled some agents and every survivor is parked —
    /// quiescence among survivors, the fault-mode sibling of `AllParked`.
    /// Only reachable with a fault plan installed.
    SurvivorsParked,
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Why the run ended.
    pub end: RunEnd,
    /// Total completed traversals over all agents (the paper's *cost*).
    pub total_traversals: u64,
    /// Completed traversals per agent.
    pub per_agent: Vec<u64>,
    /// All meetings declared, in order — an O(1) handle onto the runtime's
    /// copy-on-write log, not a deep copy (protocol runs log a meeting per
    /// exchange; the outcome must not double peak memory).
    pub meetings: MeetingLog,
    /// Number of adversary actions executed.
    pub actions: u64,
}

/// Run parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Stop at the first meeting (rendezvous experiments).
    pub stop_on_first_meeting: bool,
    /// Abort after this many completed traversals in total.
    pub max_total_traversals: u64,
}

impl RunConfig {
    /// Rendezvous configuration: stop at the first meeting, generous cutoff.
    pub fn rendezvous() -> Self {
        RunConfig {
            stop_on_first_meeting: true,
            max_total_traversals: 50_000_000,
        }
    }

    /// Protocol configuration: meetings are exchanges, run to quiescence.
    pub fn protocol() -> Self {
        RunConfig {
            stop_on_first_meeting: false,
            max_total_traversals: 50_000_000,
        }
    }

    /// Replaces the traversal cutoff.
    ///
    /// The run loop checks this budget inline before every action, so a
    /// `Cutoff` run stops at exactly this cost. It is also the hard
    /// backstop under [`Runtime::run_with_policy`] — detectors fire first
    /// when they have something to say, the budget catches everything
    /// else, and it wins a tie with a detector.
    pub fn with_cutoff(mut self, max: u64) -> Self {
        self.max_total_traversals = max;
        self
    }
}

/// The dense edge index of an agent with no cached move geometry: it
/// stands at a node with no committed move (asleep or parked).
const NO_EDGE: usize = usize::MAX;

/// One agent's scheduler state: everything the scheduler reads or writes
/// except the behavior, which lives in the runtime's separate behavior
/// table. Being a small `Copy` record, the table of these is what choice
/// enumeration, contact scans and the progress census walk, what a
/// snapshot copies wholesale, and what a `Start`'s undo token saves.
///
/// `edge` and `from_a` cache the geometry of the agent's committed move:
/// set when the move is committed, kept while the agent is inside the
/// edge, and cleared on arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AgentState {
    pub(crate) place: Place,
    /// Committed next traversal `(exit port, arrival node)` when at a node
    /// (`None` = parked, or asleep).
    pub(crate) pending: Option<(PortId, NodeId)>,
    /// Dense edge index of the committed move's edge: the pending move's
    /// at a node, the occupied edge's inside one, [`NO_EDGE`] otherwise.
    pub(crate) edge: usize,
    /// `true` iff that move departs from the edge's canonical `a`
    /// endpoint — which of the edge's two direction queues it joins.
    pub(crate) from_a: bool,
    pub(crate) awake: bool,
    /// Crash-stop fault flag (see [`crate::fault`]): the agent never acts
    /// again, but its body still forces meetings where it lies.
    pub(crate) crashed: bool,
    pub(crate) traversals: u64,
    /// Action count at this agent's latest `Start` — the moment it entered
    /// its current edge. Meaningful iff `place` is `Inside { .. }`; while
    /// there, `actions - entered_at` is how long the agent has *held* its
    /// one committed crossing (the structural token-suspension census of
    /// [`crate::stop::Progress::longest_hold_actions`]). Instrumentation
    /// only: never consulted by scheduling, legality, or memo keys.
    pub(crate) entered_at: u64,
}

impl AgentState {
    /// A sleeping agent at `v` that has not moved yet.
    pub(crate) fn asleep_at(v: NodeId) -> Self {
        AgentState {
            place: Place::AtNode(v),
            pending: None,
            edge: NO_EDGE,
            from_a: false,
            awake: false,
            crashed: false,
            traversals: 0,
            entered_at: 0,
        }
    }

    /// Commits the move from node `v` through `port` (a port `v` has),
    /// caching its arrival node, edge index and departure side from one
    /// CSR lookup.
    #[inline]
    pub(crate) fn commit_move(&mut self, g: &Graph, v: NodeId, port: PortId) {
        let (arrival, edge) = g.traverse_indexed(v, port);
        self.pending = Some((port, arrival.node));
        self.edge = edge;
        self.from_a = g.edge_id(edge).a == v;
    }

    /// Drops the committed move and its cached geometry.
    #[inline]
    fn clear_move(&mut self) {
        self.pending = None;
        self.edge = NO_EDGE;
        self.from_a = false;
    }
}

/// Asks `behavior` for its next committed move from the node `st` stands
/// at, and records it (with its edge geometry) in `st`.
fn commit<B: Behavior>(g: &Graph, st: &mut AgentState, behavior: &mut B) {
    let v = match st.place {
        Place::AtNode(v) => v,
        Place::Inside { .. } => unreachable!("pending is only fetched at nodes"),
    };
    match behavior.next_port() {
        Some(port) => {
            assert!(port.0 < g.degree(v), "behavior chose an invalid port");
            st.commit_move(g, v, port);
        }
        None => st.clear_move(),
    }
}

/// Serves one meeting participant: hands `peers` to its behavior and, if
/// it is parked at a node and `may_recommit`, asks for a fresh move (a
/// parked agent may decide to move again after learning something new,
/// e.g. an SGL explorer whose token arrives).
///
/// Crash-stop body semantics (see `crate::fault`): a crashed participant's
/// info stays readable by the live agents, but it receives no delivery and
/// never re-commits.
#[inline]
fn deliver<B: Behavior>(
    g: &Graph,
    st: &mut AgentState,
    behavior: &mut B,
    place: MeetingPlace,
    peers: &[B::Info],
    may_recommit: bool,
) {
    if st.crashed {
        return;
    }
    behavior.on_meeting(place, peers);
    if may_recommit && st.awake && matches!(st.place, Place::AtNode(_)) && st.pending.is_none() {
        commit(g, st, behavior);
    }
}

/// `true` if an agent other than `i` stands at node `v`.
#[inline]
fn occupied_by_other(states: &[AgentState], i: usize, v: NodeId) -> bool {
    states
        .iter()
        .enumerate()
        .any(|(j, s)| j != i && s.place == Place::AtNode(v))
}

/// Writes the legal choices of the agents in `states` into `out` (cleared
/// first), in agent order, annotated from the cached move geometry.
#[inline]
fn enumerate_choices(
    states: &[AgentState],
    edges: &[EdgeOcc],
    faults: Option<&FaultClock>,
    actions: u64,
    out: &mut Vec<ChoiceInfo>,
) {
    out.clear();
    for (i, st) in states.iter().enumerate() {
        if st.crashed {
            continue; // crash-stop: the agent never acts again
        }
        let (kind, causes_meeting) = if !st.awake {
            (ActionKind::Wake, false)
        } else {
            match st.place {
                Place::AtNode(_) => {
                    if st.pending.is_none() || faults.is_some_and(|f| f.edge_down(st.edge, actions))
                    {
                        continue; // parked, or entry blocked by an outage
                    }
                    // A crossing: someone entered from the other endpoint.
                    let opposite = !edges[st.edge].queue(!st.from_a).is_empty();
                    (ActionKind::Start, opposite)
                }
                Place::Inside { to, .. } => {
                    // Overtaking: an earlier same-direction entrant is
                    // still ahead of `i` in its queue.
                    let overtakes = edges[st.edge].queue(st.from_a).first() != Some(&i);
                    (
                        ActionKind::Finish,
                        overtakes || occupied_by_other(states, i, to),
                    )
                }
            }
        };
        out.push(ChoiceInfo {
            choice: Choice { agent: i, kind },
            causes_meeting,
        });
    }
}

/// Token returned by [`Runtime::apply_undoable`]: the exact slice of
/// runtime state a meeting-free apply can mutate, keyed by action kind.
/// [`Runtime::undo`] consumes it to rewind the apply in O(1) — the
/// memoized minimax search pairs apply/undo around every descent instead
/// of forking whole runtimes (see `crate::minimax::explore_memo`).
#[derive(Debug)]
pub(crate) enum ApplyUndo<B> {
    /// A `Start` never touches the behavior: the token is the agent's
    /// pre-apply state. Undo pops the queue tail the `Start` pushed,
    /// found through the edge geometry the agent keeps inside the edge.
    Start { agent: usize, state: AgentState },
    /// A meeting-free `Finish` left from the front of its direction queue
    /// (anything else overtakes) and re-committed the behavior on
    /// arrival: the token is the pre-apply state plus a forked behavior,
    /// and undo puts the agent back at the queue front.
    Finish {
        agent: usize,
        state: AgentState,
        behavior: B,
    },
    /// A `Wake` commits the first move: pre-apply state plus a forked
    /// behavior; no queue moves.
    Wake {
        agent: usize,
        state: AgentState,
        behavior: B,
    },
}

/// Per-edge occupancy: FIFO queues of agents inside, one per direction.
/// Direction is identified by the departure node.
#[derive(Clone, Debug, Default)]
pub(crate) struct EdgeOcc {
    /// Agents that entered from `edge.a`, in entry order (front = eldest).
    pub(crate) from_a: Vec<usize>,
    /// Agents that entered from `edge.b`, in entry order.
    pub(crate) from_b: Vec<usize>,
}

impl EdgeOcc {
    #[inline]
    pub(crate) fn queue(&self, from_a_side: bool) -> &Vec<usize> {
        if from_a_side {
            &self.from_a
        } else {
            &self.from_b
        }
    }
    #[inline]
    fn queue_mut(&mut self, from_a_side: bool) -> &mut Vec<usize> {
        if from_a_side {
            &mut self.from_a
        } else {
            &mut self.from_b
        }
    }
}

/// A frozen mid-run [`Runtime`] state, in the runtime's own split layout:
/// the scheduler table copied whole (cached move geometry included), the
/// behaviors forked, plus edge occupancy, the meeting log handle and the
/// counters. Produced by [`Runtime::snapshot`], consumed (by reference,
/// any number of times) by [`Runtime::restore`] and
/// [`Runtime::from_snapshot`].
///
/// The snapshot does not borrow the runtime or the graph, so it outlives
/// the runtime that took it and can seed a fresh one.
#[derive(Debug)]
pub struct RuntimeSnapshot<B> {
    pub(crate) states: Vec<AgentState>,
    pub(crate) behaviors: Vec<B>,
    pub(crate) edges: Vec<EdgeOcc>,
    pub(crate) meetings: MeetingLog,
    pub(crate) actions: u64,
    pub(crate) total_traversals: u64,
}

impl<B: Behavior> RuntimeSnapshot<B> {
    /// Total completed traversals at the moment of the snapshot.
    pub fn total_traversals(&self) -> u64 {
        self.total_traversals
    }

    /// Adversary actions executed at the moment of the snapshot.
    pub fn actions(&self) -> u64 {
        self.actions
    }

    /// The meeting log as of the snapshot (an O(1) copy-on-write handle;
    /// the snapshot shares sealed chunks with the runtime it froze).
    pub fn meetings(&self) -> &MeetingLog {
        &self.meetings
    }
}

/// The adversarial scheduler over a set of agents in one graph.
///
/// See the crate documentation for the model; see
/// [`crate::adversary`] for the strategies that drive it.
pub struct Runtime<'g, B: Behavior> {
    g: &'g Graph,
    /// Scheduler state per agent (see [`AgentState`]).
    states: Vec<AgentState>,
    /// The agents' behaviors, indexed like `states`.
    behaviors: Vec<B>,
    /// Occupancy per dense edge index (`edges.len() == g.size()`). Queues
    /// of edges that empty out keep their capacity for the next occupant.
    edges: Vec<EdgeOcc>,
    /// Append-only copy-on-write log (see [`MeetingLog`]): snapshots, the
    /// [`RunOutcome`], and forks all take O(1) handles instead of copies.
    meetings: MeetingLog,
    actions: u64,
    total_traversals: u64,
    config: RunConfig,
    /// Reusable buffer of the participants' infos while a meeting of
    /// three or more is delivered (see `declare`); empty between
    /// deliveries, so it holds no references into the agents' state.
    info_scratch: Vec<B::Info>,
    /// Reusable legal-choice buffer for [`Runtime::step`] (transient, not
    /// part of the frozen state — snapshots never carry it).
    choice_scratch: Vec<ChoiceInfo>,
    /// Fault-injection cursor (see [`crate::fault`]); `None` = no plan
    /// installed, which keeps every fault branch a single `Option` check.
    /// Like [`RunConfig`], the plan is run *configuration*: snapshots do
    /// not carry it, and [`Runtime::restore`] keeps the current plan (the
    /// clock rewinds itself when the action counter moves backwards).
    faults: Option<FaultClock>,
}

impl<'g, B: Behavior> Runtime<'g, B> {
    /// Creates a runtime with all agents asleep at their behaviors' start
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two or more than [`AgentSet::CAPACITY`] (64)
    /// agents are supplied — a [`Meeting`] holds its participants in an
    /// [`AgentSet`] — or if two agents share a start node (the model
    /// places agents at distinct nodes).
    pub fn new(g: &'g Graph, behaviors: Vec<B>, config: RunConfig) -> Self {
        let mut rt = Runtime {
            g,
            states: Vec::new(),
            behaviors: Vec::new(),
            edges: vec![EdgeOcc::default(); g.size()],
            meetings: MeetingLog::new(),
            actions: 0,
            total_traversals: 0,
            config,
            info_scratch: Vec::new(),
            choice_scratch: Vec::new(),
            faults: None,
        };
        rt.install(behaviors);
        rt
    }

    /// Rewinds the runtime to the **initial** state with a fresh set of
    /// agents, reusing every internal allocation (edge queues, agent
    /// tables, scratch).
    ///
    /// Use `reset` when the next run should start from scratch with *new*
    /// behaviors (different labels, a different algorithm variant, a fresh
    /// RNG); use [`Runtime::restore`] to rewind to a **mid-run** state
    /// captured by [`Runtime::snapshot`] — restore keeps the agents'
    /// accumulated state (cursor position, warm length memos, RNG streams)
    /// and is what the replay-free minimax search uses instead of
    /// re-executing schedule prefixes after a `reset`.
    ///
    /// # Panics
    ///
    /// As for [`Runtime::new`].
    pub fn reset(&mut self, behaviors: Vec<B>) {
        for occ in &mut self.edges {
            occ.from_a.clear();
            occ.from_b.clear();
        }
        self.meetings.clear();
        self.actions = 0;
        self.total_traversals = 0;
        self.install(behaviors);
    }

    /// Freezes the complete mid-run state — agent behaviors (via
    /// [`Behavior::fork`]), the scheduler table (positions, committed
    /// moves, flags, counters), edge occupancy, meeting history, and
    /// counters — into an **O(agents + edges)** snapshot that can be
    /// [`Runtime::restore`]d any number of times, on this runtime or on a
    /// fresh one built with [`Runtime::from_snapshot`]. The meeting
    /// history is captured as an O(1) [`MeetingLog`] handle, so snapshot
    /// cost is independent of how many meetings the run has accumulated —
    /// protocol runs snapshot as cheaply at their millionth exchange as at
    /// their first.
    ///
    /// Snapshots are independent of the runtime that produced them: taking
    /// one never perturbs the run, and a snapshot outlives its runtime.
    pub fn snapshot(&self) -> RuntimeSnapshot<B> {
        RuntimeSnapshot {
            states: self.states.clone(),
            behaviors: self.behaviors.iter().map(B::fork).collect(),
            edges: self.edges.clone(),
            meetings: self.meetings.clone(),
            actions: self.actions,
            total_traversals: self.total_traversals,
        }
    }

    /// Rewinds this runtime to the mid-run state captured by `snap`,
    /// reusing internal allocations where possible. See [`Runtime::reset`]
    /// for when to reset instead.
    ///
    /// The snapshot is borrowed, not consumed: the same snapshot can seed
    /// any number of restores (the plain minimax enumeration re-enters
    /// each branching node once per sibling).
    ///
    /// # Panics
    ///
    /// Panics if `snap` was taken on a runtime over a different graph
    /// (detected by edge-table size).
    pub fn restore(&mut self, snap: &RuntimeSnapshot<B>) {
        assert_eq!(
            snap.edges.len(),
            self.edges.len(),
            "snapshot belongs to a runtime over a different graph"
        );
        self.states.clone_from(&snap.states);
        self.behaviors.clear();
        self.behaviors.extend(snap.behaviors.iter().map(B::fork));
        self.edges.clone_from(&snap.edges);
        self.meetings = snap.meetings.clone();
        self.actions = snap.actions;
        self.total_traversals = snap.total_traversals;
    }

    /// Like [`Runtime::restore`], but consumes the snapshot and moves its
    /// state in without forking the behaviors — the cheap path for a
    /// snapshot's *last* use (the plain minimax enumeration re-enters each
    /// node once per sibling; the final sibling takes the state by move).
    ///
    /// # Panics
    ///
    /// As for [`Runtime::restore`].
    pub fn restore_owned(&mut self, snap: RuntimeSnapshot<B>) {
        assert_eq!(
            snap.edges.len(),
            self.edges.len(),
            "snapshot belongs to a runtime over a different graph"
        );
        self.states = snap.states;
        self.behaviors = snap.behaviors;
        self.edges = snap.edges;
        self.meetings = snap.meetings;
        self.actions = snap.actions;
        self.total_traversals = snap.total_traversals;
    }

    /// Builds a fresh runtime positioned at the mid-run state captured by
    /// `snap`, with the given configuration — e.g. to resume a decoded
    /// [`crate::wire::SnapshotWire`] or to branch a run without touching
    /// the original runtime.
    ///
    /// # Panics
    ///
    /// Panics if `snap` was not taken over `g` (edge-table size mismatch).
    pub fn from_snapshot(g: &'g Graph, snap: &RuntimeSnapshot<B>, config: RunConfig) -> Self {
        assert_eq!(
            snap.edges.len(),
            g.size(),
            "snapshot belongs to a runtime over a different graph"
        );
        Runtime {
            g,
            states: snap.states.clone(),
            behaviors: snap.behaviors.iter().map(B::fork).collect(),
            edges: snap.edges.clone(),
            meetings: snap.meetings.clone(),
            actions: snap.actions,
            total_traversals: snap.total_traversals,
            config,
            info_scratch: Vec::new(),
            choice_scratch: Vec::new(),
            faults: None,
        }
    }

    fn install(&mut self, behaviors: Vec<B>) {
        assert!(behaviors.len() >= 2, "the model has at least two agents");
        assert!(
            behaviors.len() <= AgentSet::CAPACITY,
            "a runtime holds at most AgentSet::CAPACITY = {} agents, got {}",
            AgentSet::CAPACITY,
            behaviors.len()
        );
        for (i, b) in behaviors.iter().enumerate() {
            assert!(
                behaviors[..i]
                    .iter()
                    .all(|o| o.start_node() != b.start_node()),
                "agents must start at distinct nodes (duplicate {:?})",
                b.start_node()
            );
        }
        self.states.clear();
        self.states.extend(
            behaviors
                .iter()
                .map(|b| AgentState::asleep_at(b.start_node())),
        );
        // The caller's vector becomes the behavior table as is.
        self.behaviors = behaviors;
    }

    /// Current position of agent `i`.
    pub fn place(&self, i: usize) -> Place {
        self.states[i].place
    }

    /// Completed traversals of agent `i`.
    pub fn traversals(&self, i: usize) -> u64 {
        self.states[i].traversals
    }

    /// Total completed traversals.
    pub fn total_traversals(&self) -> u64 {
        self.total_traversals
    }

    /// Immutable access to agent `i`'s behavior (for post-run inspection).
    pub fn behavior(&self, i: usize) -> &B {
        &self.behaviors[i]
    }

    /// Warms every behavior (see [`Behavior::warm`]): one-time lazy setup —
    /// first spec materialisation, repetition-count evaluation — happens
    /// now instead of inside the first `Start` applied to each agent.
    /// Snapshots taken afterwards carry the warm state into every restore,
    /// so branchy searches (see [`crate::minimax`]) pay it once rather than
    /// once per branch. Port streams are unchanged; only instrumentation
    /// that observes *when* lazy setup runs (e.g. schedule-phase progress
    /// before an agent's first move) can tell the difference.
    pub fn warm_behaviors(&mut self) {
        for b in &mut self.behaviors {
            b.warm();
        }
    }

    /// The scheduler table, for the canonical-fingerprint renderer (see
    /// `crate::memo`): fingerprinting needs every scheduler-visible
    /// component of an agent's state — place, committed move, flags,
    /// traversal count — in one read.
    pub(crate) fn agent_states(&self) -> &[AgentState] {
        &self.states
    }

    /// The dense edge-occupancy table (indexed by [`Graph::edge_index_at`]),
    /// for the canonical-fingerprint renderer: queue membership and order
    /// are part of the state a transposition-table key must capture.
    pub(crate) fn edge_occupancy(&self) -> &[EdgeOcc] {
        &self.edges
    }

    /// The graph this runtime schedules over.
    pub(crate) fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.states.len()
    }

    /// Adversary actions executed so far.
    pub fn actions(&self) -> u64 {
        self.actions
    }

    /// Meetings declared so far.
    pub fn meetings(&self) -> &MeetingLog {
        &self.meetings
    }

    /// Installs a fault plan (see [`crate::fault`]); replaces any current
    /// plan and rewinds its clock. The empty plan is provably free — the
    /// golden suites pin that installing `FaultPlan::empty()` leaves every
    /// run bit-identical.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultClock::new(plan));
    }

    /// Removes the fault plan (fault branches go back to one `Option`
    /// check that never takes the slow path).
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|c| c.plan())
    }

    /// `true` if agent `i` has crash-stopped (see [`crate::fault`]).
    pub fn crashed(&self, i: usize) -> bool {
        self.states[i].crashed
    }

    /// Marks crashes whose time has come and expires outage windows —
    /// called by [`Runtime::step`] before enumerating choices, so fault
    /// effects land at deterministic action counts.
    fn apply_due_faults(&mut self) {
        let Some(clock) = self.faults.as_mut() else {
            return;
        };
        let states = &mut self.states;
        clock.advance(self.actions, |agent| {
            if let Some(st) = states.get_mut(agent) {
                st.crashed = true;
            }
        });
    }

    /// All currently legal choices with meeting annotations.
    ///
    /// Allocates a fresh vector; the run loop and search use
    /// [`Runtime::legal_choices_into`] to reuse a buffer across steps.
    pub fn legal_choices(&self) -> Vec<ChoiceInfo> {
        let mut out = Vec::new();
        self.legal_choices_into(&mut out);
        out
    }

    /// Writes all currently legal choices into `out` (cleared first), in
    /// the same order as [`Runtime::legal_choices`].
    pub fn legal_choices_into(&self, out: &mut Vec<ChoiceInfo>) {
        enumerate_choices(
            &self.states,
            &self.edges,
            self.faults.as_ref(),
            self.actions,
            out,
        );
    }

    /// Applies one adversary choice; returns the meetings it forced.
    ///
    /// Allocates the returned vector only when meetings fired; the run loop
    /// uses [`Runtime::apply_into`] to reuse a buffer across steps.
    ///
    /// # Panics
    ///
    /// Panics if the choice is not currently legal.
    pub fn apply(&mut self, choice: Choice) -> Vec<Meeting> {
        let mut out = Vec::new();
        self.apply_into(choice, &mut out);
        out
    }

    /// Applies one adversary choice, pushing the meetings it forced onto
    /// `out` (which is *not* cleared — callers owning the buffer clear it
    /// between steps).
    ///
    /// Delivering a meeting never touches an edge queue, so the edge
    /// meetings below are declared while reading the queue in place.
    ///
    /// # Panics
    ///
    /// Panics if the choice is not currently legal.
    pub fn apply_into(&mut self, choice: Choice, out: &mut Vec<Meeting>) {
        self.actions += 1;
        let i = choice.agent;
        match choice.kind {
            ActionKind::Wake => {
                let st = &mut self.states[i];
                assert!(!st.awake, "Wake on an awake agent");
                st.awake = true;
                commit(self.g, st, &mut self.behaviors[i]);
                // Waking at an occupied node is a meeting (the agents stand
                // at the same point).
                let here = match st.place {
                    Place::AtNode(v) => v,
                    Place::Inside { .. } => unreachable!("asleep agents are at nodes"),
                };
                let mut present: AgentSet = self
                    .states
                    .iter()
                    .enumerate()
                    .filter(|(j, s)| *j != i && s.awake && s.place == Place::AtNode(here))
                    .map(|(j, _)| j)
                    .collect();
                if !present.is_empty() {
                    present.insert(i);
                    out.push(self.declare(present, MeetingPlace::Node(here), None));
                }
            }
            ActionKind::Start => {
                let st = &mut self.states[i];
                assert!(st.awake, "Start on a sleeping agent");
                let v = match st.place {
                    Place::AtNode(v) => v,
                    _ => panic!("Start on an agent inside an edge"),
                };
                let (_, to) = st.pending.take().expect("Start without a committed move");
                let (index, from_a) = (st.edge, st.from_a);
                let edge = self.g.edge_id(index);
                st.place = Place::Inside { edge, from: v, to };
                st.entered_at = self.actions;
                self.edges[index].queue_mut(from_a).push(i);
                // Forced crossings with opposite-direction occupants, in
                // queue order.
                for k in 0..self.edges[index].queue(!from_a).len() {
                    let j = self.edges[index].queue(!from_a)[k];
                    let m =
                        self.declare([i, j].into_iter().collect(), MeetingPlace::Edge(edge), None);
                    out.push(m);
                }
            }
            ActionKind::Finish => {
                let st = &mut self.states[i];
                let (edge, to) = match st.place {
                    Place::Inside { edge, to, .. } => (edge, to),
                    _ => panic!("Finish on an agent not inside an edge"),
                };
                let (index, from_a) = (st.edge, st.from_a);
                st.place = Place::AtNode(to);
                st.clear_move();
                st.traversals += 1;
                self.total_traversals += 1;
                let q = self.edges[index].queue_mut(from_a);
                let my_pos = q.iter().position(|&a| a == i).expect("agent queued");
                q.remove(my_pos);
                // Overtaken same-direction occupants (entered earlier):
                // the queue prefix ahead of `i`'s old position.
                for k in 0..my_pos {
                    let j = self.edges[index].queue(from_a)[k];
                    let m = self.declare(
                        [i, j].into_iter().collect(),
                        MeetingPlace::Edge(edge),
                        Some(i),
                    );
                    out.push(m);
                }
                // Node contact: everyone standing at the arrival node.
                // Sleeping agents there are woken by the visit.
                let mut present: AgentSet = self
                    .states
                    .iter()
                    .enumerate()
                    .filter(|(j, s)| *j != i && s.place == Place::AtNode(to))
                    .map(|(j, _)| j)
                    .collect();
                if !present.is_empty() {
                    for j in present.iter() {
                        let st = &mut self.states[j];
                        if !st.awake && !st.crashed {
                            st.awake = true;
                            commit(self.g, st, &mut self.behaviors[j]);
                        }
                    }
                    present.insert(i);
                    out.push(self.declare(present, MeetingPlace::Node(to), Some(i)));
                }
                // The agent commits its next move knowing everything that
                // happened up to and including this arrival: every meeting
                // above was delivered to it first (`declare` skipped its
                // re-commit).
                commit(self.g, &mut self.states[i], &mut self.behaviors[i]);
            }
        }
    }

    /// `true` iff applying [`ActionKind::Wake`] to agent `i` right now
    /// would declare a meeting — the exact predicate of the `Wake` arm of
    /// [`Runtime::apply_into`] (another *awake* agent standing at the
    /// sleeper's node; a co-located sleeper does not meet). `Wake` is the
    /// only action kind whose meetings are not annotated by
    /// [`Runtime::legal_choices_into`], so this check is what lets the
    /// memoized search route every child through the undoable-apply path.
    pub(crate) fn wake_would_meet(&self, i: usize) -> bool {
        let here = match self.states[i].place {
            Place::AtNode(v) => v,
            Place::Inside { .. } => unreachable!("asleep agents are at nodes"),
        };
        self.states
            .iter()
            .enumerate()
            .any(|(j, s)| j != i && s.awake && s.place == Place::AtNode(here))
    }

    /// Applies a choice that is known to be meeting-free (`causes_meeting`
    /// annotation false; for `Wake`, [`Runtime::wake_would_meet`] false)
    /// and returns a token that [`Runtime::undo`] uses to rewind it
    /// exactly. The depth-first memoized search pairs these around every
    /// descent instead of snapshotting whole runtimes: a meeting-free
    /// apply mutates only the acting agent's state and behavior, one edge
    /// queue, and the action/traversal counters, so saving that slice is
    /// O(1) in the number of agents and edges — and a `Start` never
    /// touches its behavior at all, so its token is one copied
    /// [`AgentState`].
    ///
    /// `out` receives the apply's meetings exactly as
    /// [`Runtime::apply_into`] would (not cleared first).
    ///
    /// # Panics
    ///
    /// Panics if the choice is not currently legal, or if applying it
    /// declares a meeting after all — that would mean the caller's
    /// meeting-free evidence was wrong and the token cannot cover the
    /// mutation (peer behaviors were notified).
    pub(crate) fn apply_undoable(
        &mut self,
        choice: Choice,
        out: &mut Vec<Meeting>,
    ) -> ApplyUndo<B> {
        debug_assert!(
            self.faults.is_none(),
            "undoable applies assume no fault plan is installed"
        );
        let agent = choice.agent;
        let state = self.states[agent];
        let token = match choice.kind {
            ActionKind::Start => ApplyUndo::Start { agent, state },
            ActionKind::Finish => ApplyUndo::Finish {
                agent,
                state,
                behavior: self.behaviors[agent].fork(),
            },
            ActionKind::Wake => ApplyUndo::Wake {
                agent,
                state,
                behavior: self.behaviors[agent].fork(),
            },
        };
        let before = out.len();
        self.apply_into(choice, out);
        assert_eq!(
            out.len(),
            before,
            "apply_undoable on a choice that declared a meeting"
        );
        token
    }

    /// Rewinds one [`Runtime::apply_undoable`] call. The runtime must be
    /// in exactly the state that apply left it in (the memoized search
    /// guarantees this: every descendant's own applies were undone before
    /// this one).
    pub(crate) fn undo(&mut self, token: ApplyUndo<B>) {
        self.actions -= 1;
        match token {
            ApplyUndo::Start { agent, state } => {
                // A `Start` keeps the move's geometry, so the queue it
                // pushed onto is the one `state` names.
                let q = self.edges[state.edge].queue_mut(state.from_a);
                debug_assert_eq!(q.last(), Some(&agent), "Start pushed the queue tail");
                q.pop();
                self.states[agent] = state;
            }
            ApplyUndo::Finish {
                agent,
                state,
                behavior,
            } => {
                self.total_traversals -= 1;
                self.edges[state.edge]
                    .queue_mut(state.from_a)
                    .insert(0, agent);
                self.states[agent] = state;
                self.behaviors[agent] = behavior;
            }
            ApplyUndo::Wake {
                agent,
                state,
                behavior,
            } => {
                self.states[agent] = state;
                self.behaviors[agent] = behavior;
            }
        }
    }

    /// Records a meeting and delivers it to every participant, in
    /// ascending agent order. Committed moves stay binding (see crate
    /// docs), but *parked* participants get a fresh `next_port` query —
    /// parking is a decision, not a commitment, and new information may
    /// end it (e.g. an SGL explorer whose token just arrived). `skip` is
    /// the agent whose action produced this meeting: it commits once at
    /// the end of its action, after *all* resulting meetings are
    /// delivered.
    ///
    /// Every info is taken before any delivery, so each participant sees
    /// its peers as they were when the meeting happened. A two-party
    /// meeting (the common case: edge crossings, overtakings, and most node
    /// contacts) holds both infos in a local pair and hands each
    /// participant the other's as a one-element slice. Larger meetings
    /// line the infos up in `info_scratch` and rotate each participant's
    /// own info out of the peer prefix in turn.
    fn declare(&mut self, agents: AgentSet, place: MeetingPlace, skip: Option<usize>) -> Meeting {
        let mut members = agents.iter();
        if let (Some(a), Some(b), None) = (members.next(), members.next(), members.next()) {
            let [info_a, info_b] = [self.behaviors[a].info(), self.behaviors[b].info()];
            for (j, peer) in [(a, &info_b), (b, &info_a)] {
                deliver(
                    self.g,
                    &mut self.states[j],
                    &mut self.behaviors[j],
                    place,
                    std::slice::from_ref(peer),
                    Some(j) != skip,
                );
            }
            // The pair drops here, for the reason given below.
        } else {
            let infos = &mut self.info_scratch;
            infos.extend(agents.iter().map(|j| self.behaviors[j].info()));
            let n = infos.len();
            for (idx, j) in agents.iter().enumerate() {
                // Participant `idx`'s peers are everyone else in agent
                // order: rotating its own info to the end leaves them as
                // the prefix (order matters — SGL adopts the first peer's
                // final set).
                infos[idx..].rotate_left(1);
                deliver(
                    self.g,
                    &mut self.states[j],
                    &mut self.behaviors[j],
                    place,
                    &infos[..n - 1],
                    Some(j) != skip,
                );
                infos[idx..].rotate_right(1);
            }
            // Drop the infos now: an info that outlived the meeting would
            // keep shared state (e.g. a copy-on-write bag) alive and make
            // its owner's next mutation copy.
            infos.clear();
        }
        let m = Meeting {
            agents,
            place,
            at_cost: self.total_traversals,
            at_action: self.actions,
        };
        // Log-loss fault: the meeting *happened* (participants were served
        // above, the caller still sees it) but its durable append is lost.
        let lost = self
            .faults
            .as_ref()
            .is_some_and(|f| f.log_lost(self.actions));
        if !lost {
            self.meetings.push(m);
        }
        m
    }

    /// Executes **one** adversary decision — exactly one iteration of
    /// [`Runtime::run`]'s loop (cutoff check, legal-choice enumeration,
    /// `adversary.choose`, apply, first-meeting check), decision for
    /// decision. Meetings forced by the step are pushed onto
    /// `new_meetings` (cleared first); `Some(end)` means the run is over
    /// and no action was taken this call (for `Cutoff`/`AllParked`) or
    /// the configured stop fired (`Meeting`).
    ///
    /// `run` is a loop over `step`, so callers driving a run step-by-step
    /// — the perf harness's checkpointing loop, the snapshot-detour
    /// golden suites — stay in lockstep with `run()` by construction.
    pub fn step(
        &mut self,
        adversary: &mut dyn crate::adversary::Adversary,
        new_meetings: &mut Vec<Meeting>,
    ) -> Option<RunEnd> {
        new_meetings.clear();
        if self.total_traversals >= self.config.max_total_traversals {
            return Some(RunEnd::Cutoff);
        }
        self.apply_due_faults();
        self.enumerate_into_scratch();
        while self.choice_scratch.is_empty() {
            // A choiceless state is terminal unless an edge outage is the
            // only thing pinning a live agent — then the adversary's sole
            // move is to wait, so the action clock jumps to the earliest
            // release (each jump is strictly forward past at least one
            // live window, so this loop terminates). Never-hang contract:
            // with no blocking outage the state is classified, not spun.
            match self.earliest_blocked_release() {
                Some(release) => {
                    self.actions = release;
                    self.apply_due_faults();
                    self.enumerate_into_scratch();
                }
                None => return Some(self.classify_quiescence()),
            }
        }
        let choice = adversary.choose(&self.choice_scratch, self.actions);
        debug_assert!(
            self.choice_scratch.iter().any(|c| c.choice == choice),
            "adversary returned an illegal choice"
        );
        self.apply_into(choice, new_meetings);
        if self.config.stop_on_first_meeting && !new_meetings.is_empty() {
            return Some(RunEnd::Meeting);
        }
        None
    }

    /// [`Runtime::legal_choices_into`] the step loop's own buffer.
    fn enumerate_into_scratch(&mut self) {
        enumerate_choices(
            &self.states,
            &self.edges,
            self.faults.as_ref(),
            self.actions,
            &mut self.choice_scratch,
        );
    }

    /// Runs under `adversary` until a terminal condition (see [`RunEnd`]).
    ///
    /// The returned outcome's meeting list is an O(1) handle onto the
    /// runtime's copy-on-write log — constructing the outcome costs
    /// O(agents) however many meetings the run declared.
    pub fn run(&mut self, adversary: &mut dyn crate::adversary::Adversary) -> RunOutcome {
        let mut new_meetings: Vec<Meeting> = Vec::new();
        let end = loop {
            if let Some(end) = self.step(adversary, &mut new_meetings) {
                break end;
            }
        };
        self.outcome(end)
    }

    /// Earliest action at which an outage currently blocking a live
    /// agent's committed `Start` releases — `None` when no live agent is
    /// outage-blocked (then a choiceless state is genuinely terminal).
    fn earliest_blocked_release(&self) -> Option<u64> {
        let clock = self.faults.as_ref()?;
        // Only agents at a node hold a pending move.
        self.states
            .iter()
            .filter(|st| !st.crashed && st.awake && st.pending.is_some())
            .filter_map(|st| clock.edge_release(st.edge, self.actions))
            .min()
    }

    /// Names a choiceless state: `AllParked` clean, the fault-aware
    /// variants when crash-stop faults are in the picture.
    fn classify_quiescence(&self) -> RunEnd {
        let crashed = self.states.iter().filter(|s| s.crashed).count();
        if crashed == 0 {
            RunEnd::AllParked
        } else if crashed == self.states.len() {
            RunEnd::AllCrashed
        } else {
            RunEnd::SurvivorsParked
        }
    }

    /// Assembles the current state into a [`RunOutcome`] ending with `end`.
    fn outcome(&self, end: RunEnd) -> RunOutcome {
        RunOutcome {
            end,
            total_traversals: self.total_traversals,
            per_agent: self.states.iter().map(|s| s.traversals).collect(),
            meetings: self.meetings.clone(),
            actions: self.actions,
        }
    }

    /// Assembles the run's [`crate::stop::Progress`] record in O(agents):
    /// the incremental counters the runtime already maintains, a census of
    /// the scheduler table, and the agents' [`Behavior::progress`]
    /// reports.
    pub fn progress(&self) -> crate::stop::Progress {
        let mut parked = 0usize;
        let mut asleep = 0usize;
        let mut moving = 0usize;
        let mut crashed = 0usize;
        let mut done_agents = 0usize;
        let mut metric_sum = 0u64;
        let mut metric_max = 0u64;
        let mut min_tr = u64::MAX;
        let mut max_tr = 0u64;
        let mut min_agent = 0usize;
        let mut longest_hold = 0u64;
        let mut longest_hold_agent = 0usize;
        for b in &self.behaviors {
            let bp = b.progress();
            metric_sum += bp.metric;
            metric_max = metric_max.max(bp.metric);
            if bp.done {
                done_agents += 1;
            }
        }
        for (i, st) in self.states.iter().enumerate() {
            // Crashed agents leave the liveness census and the traversal
            // extremes: a dead agent is trivially "starved", and counting
            // it would blind the starvation signal for the survivors.
            if st.crashed {
                crashed += 1;
                continue;
            }
            if !st.awake {
                asleep += 1;
            } else {
                match st.place {
                    Place::AtNode(_) => {
                        if st.pending.is_none() {
                            parked += 1;
                        }
                    }
                    Place::Inside { .. } => {
                        moving += 1;
                        // Structural suspension census: how long has this
                        // (live, awake) agent held its committed crossing?
                        // Crashed agents were skipped above — a body wedged
                        // mid-edge forever must not read as "suspended".
                        let hold = self.actions - st.entered_at;
                        if hold > longest_hold {
                            longest_hold = hold;
                            longest_hold_agent = i;
                        }
                    }
                }
            }
            if st.traversals < min_tr {
                min_tr = st.traversals;
                min_agent = i;
            }
            max_tr = max_tr.max(st.traversals);
        }
        let last = self.meetings.last();
        crate::stop::Progress {
            actions: self.actions,
            total_traversals: self.total_traversals,
            meetings: self.meetings.len() as u64,
            last_meeting_action: last.map(|m| m.at_action),
            last_meeting_cost: last.map(|m| m.at_cost),
            agents: self.states.len(),
            parked,
            asleep,
            moving,
            crashed,
            done_agents,
            min_agent_traversals: if min_tr == u64::MAX { 0 } else { min_tr },
            max_agent_traversals: max_tr,
            min_agent,
            metric_sum,
            metric_max,
            longest_hold_actions: longest_hold,
            longest_hold_agent,
        }
    }

    /// Runs under `adversary` until a terminal condition **or** until
    /// `policy` calls the run over — consulted with a fresh
    /// [`crate::stop::Progress`] record every
    /// [`crate::stop::StopPolicy::cadence`] adversary actions (and once
    /// before the first action, so priming policies observe the start).
    ///
    /// Between policy checks this is [`Runtime::run`]'s exact loop —
    /// decision for decision — and policy checks are pure reads, so a run
    /// whose policy never fires is bit-identical to a plain `run()`. The
    /// config's traversal budget ([`RunConfig::with_cutoff`]) stays active
    /// as the hard backstop.
    pub fn run_with_policy(
        &mut self,
        adversary: &mut dyn crate::adversary::Adversary,
        policy: &mut dyn crate::stop::StopPolicy,
    ) -> RunOutcome {
        let cadence = policy.cadence().max(1);
        let mut next_check = self.actions;
        let mut new_meetings: Vec<Meeting> = Vec::new();
        let end = loop {
            if self.actions >= next_check {
                // The config budget wins ties: if the backstop is already
                // exhausted, this run IS a cutoff — a detector firing in
                // the same cadence gap must not relabel it (detector ends
                // mean "retired strictly under the budget").
                if self.total_traversals >= self.config.max_total_traversals {
                    break RunEnd::Cutoff;
                }
                if let Some(end) = policy.check(&self.progress()) {
                    break end;
                }
                next_check = self.actions + cadence;
            }
            if let Some(end) = self.step(adversary, &mut new_meetings) {
                break end;
            }
        };
        self.outcome(end)
    }
}

/// The scan-based enumeration the cached move geometry replaced, kept as
/// the test oracle: every edge index and direction is re-derived from the
/// graph and the agent's place, and a `Finish`'s overtaking test scans its
/// queue for the agent's position.
#[cfg(test)]
impl<B: Behavior> Runtime<'_, B> {
    /// `true` if the departure node is the canonical smaller endpoint of
    /// the edge with dense index `index` — the key of the direction queues.
    fn departs_a_side(&self, index: usize, from: NodeId) -> bool {
        self.g.edge_id(index).a == from
    }

    fn start_would_meet(&self, index: usize, from: NodeId) -> bool {
        // Opposite direction = entered from the other endpoint.
        !self.edges[index]
            .queue(!self.departs_a_side(index, from))
            .is_empty()
    }

    fn finish_would_meet(&self, i: usize, index: usize, from: NodeId, to: NodeId) -> bool {
        // Overtaking: any same-direction occupant that entered before `i`.
        let q = self.edges[index].queue(self.departs_a_side(index, from));
        let my_pos = q
            .iter()
            .position(|&a| a == i)
            .expect("agent must be queued");
        my_pos > 0 || occupied_by_other(&self.states, i, to)
    }

    /// The oracle's legal choices, in [`Runtime::legal_choices`] order.
    fn oracle_choices(&self) -> Vec<ChoiceInfo> {
        let mut out = Vec::new();
        for (i, st) in self.states.iter().enumerate() {
            if st.crashed {
                continue;
            }
            let (kind, causes_meeting) = if !st.awake {
                (ActionKind::Wake, false)
            } else {
                match st.place {
                    Place::AtNode(v) => {
                        let Some((port, _)) = st.pending else {
                            continue;
                        };
                        let index = self.g.edge_index_at(v, port);
                        if self
                            .faults
                            .as_ref()
                            .is_some_and(|f| f.edge_down(index, self.actions))
                        {
                            continue;
                        }
                        (ActionKind::Start, self.start_would_meet(index, v))
                    }
                    Place::Inside { from, to, .. } => {
                        let port = self
                            .g
                            .port_towards(from, to)
                            .expect("an occupied edge joins its endpoints");
                        let index = self.g.edge_index_at(from, port);
                        (
                            ActionKind::Finish,
                            self.finish_would_meet(i, index, from, to),
                        )
                    }
                }
            };
            out.push(ChoiceInfo {
                choice: Choice { agent: i, kind },
                causes_meeting,
            });
        }
        out
    }

    /// Panics unless every agent's cached move geometry is what the graph
    /// says it is: the pending move's edge and side at a node, the occupied
    /// edge's inside one (then the agent is queued exactly once, on that
    /// side), nothing otherwise.
    fn assert_geometry_consistent(&self) {
        for (i, st) in self.states.iter().enumerate() {
            let expected = match (st.place, st.pending) {
                (Place::AtNode(v), Some((port, to))) => {
                    let index = self.g.edge_index_at(v, port);
                    assert_eq!(to, self.g.traverse(v, port).node, "agent {i} pending_to");
                    Some((index, self.departs_a_side(index, v)))
                }
                (Place::AtNode(_), None) => None,
                (Place::Inside { edge, from, to }, pending) => {
                    assert_eq!(
                        pending, None,
                        "agent {i} inside an edge with a pending move"
                    );
                    let index = self
                        .g
                        .edge_index_at(from, self.g.port_towards(from, to).expect("adjacent"));
                    assert_eq!(edge, self.g.edge_id(index), "agent {i} edge id");
                    let from_a = self.departs_a_side(index, from);
                    let queued = self.edges[index].queue(from_a);
                    assert_eq!(
                        queued.iter().filter(|&&a| a == i).count(),
                        1,
                        "agent {i} queued once"
                    );
                    Some((index, from_a))
                }
            };
            match expected {
                Some(geometry) => assert_eq!((st.edge, st.from_a), geometry, "agent {i} geometry"),
                None => assert_eq!(
                    (st.edge, st.from_a),
                    (NO_EDGE, false),
                    "agent {i} stale geometry"
                ),
            }
        }
        let queued: usize = self
            .edges
            .iter()
            .map(|o| o.from_a.len() + o.from_b.len())
            .sum();
        let inside = self
            .states
            .iter()
            .filter(|s| matches!(s.place, Place::Inside { .. }))
            .count();
        assert_eq!(
            queued, inside,
            "queues hold exactly the agents inside edges"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::RoundRobin;
    use crate::behavior::ScriptBehavior;
    use crate::fault::{CrashFault, OutageFault};
    use crate::wire::{decode_script, encode_script, SnapshotWire};
    use proptest::prelude::*;
    use rv_graph::generators;
    use std::cell::Cell;
    use std::rc::Rc;

    fn two_walkers(g: &Graph) -> Vec<ScriptBehavior> {
        vec![
            ScriptBehavior::new(NodeId(0), [0, 0, 0, 0]),
            ScriptBehavior::new(NodeId(g.order() / 2), [0, 0, 0, 0]),
        ]
    }

    /// Steps `n` legal choices (first legal each time), stopping early if
    /// the run terminates.
    fn step_n<B: Behavior>(rt: &mut Runtime<B>, n: usize) {
        let mut choices = Vec::new();
        let mut meetings = Vec::new();
        for _ in 0..n {
            rt.legal_choices_into(&mut choices);
            let Some(c) = choices.first() else { return };
            meetings.clear();
            rt.apply_into(c.choice, &mut meetings);
        }
    }

    #[test]
    fn snapshot_captures_and_restore_rewinds() {
        let g = generators::ring(6);
        let mut rt = Runtime::new(&g, two_walkers(&g), RunConfig::rendezvous());
        step_n(&mut rt, 5);
        let snap = rt.snapshot();
        assert_eq!(snap.actions(), rt.actions());
        assert_eq!(snap.total_traversals(), rt.total_traversals());
        let places: Vec<Place> = (0..rt.agent_count()).map(|i| rt.place(i)).collect();

        // Diverge, then rewind.
        step_n(&mut rt, 4);
        assert_ne!(rt.actions(), snap.actions());
        rt.restore(&snap);
        assert_eq!(rt.actions(), snap.actions());
        assert_eq!(rt.total_traversals(), snap.total_traversals());
        for (i, &p) in places.iter().enumerate() {
            assert_eq!(rt.place(i), p);
        }
    }

    #[test]
    fn one_snapshot_seeds_many_identical_continuations() {
        let g = generators::ring(6);
        let mut rt = Runtime::new(&g, two_walkers(&g), RunConfig::rendezvous());
        step_n(&mut rt, 3);
        let snap = rt.snapshot();
        let finish = |rt: &mut Runtime<ScriptBehavior>| {
            let out = rt.run(&mut RoundRobin::new());
            format!("{:?} {} {:?}", out.end, out.total_traversals, out.meetings)
        };
        let a = {
            let mut fresh = Runtime::from_snapshot(&g, &snap, RunConfig::rendezvous());
            finish(&mut fresh)
        };
        rt.restore(&snap);
        let b = finish(&mut rt);
        rt.restore(&snap);
        let c = finish(&mut rt);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    /// Runs a protocol-mode schedule long enough to accumulate meetings,
    /// then checks the O(agents + edges) snapshot contract structurally:
    /// the snapshot's meeting log *shares* the runtime's sealed chunks
    /// instead of copying them, at any log length.
    #[test]
    fn protocol_snapshots_share_the_meeting_log() {
        let g = generators::ring(4);
        // Two scripted walkers marching in lockstep on a small ring meet
        // constantly; protocol mode keeps going through every meeting.
        let behaviors = vec![
            ScriptBehavior::new(NodeId(0), [0; 600]),
            ScriptBehavior::new(NodeId(1), [0; 600]),
        ];
        let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol());
        let mut choices = Vec::new();
        let mut meetings = Vec::new();
        let mut checked = 0;
        loop {
            rt.legal_choices_into(&mut choices);
            let Some(c) = choices.first() else { break };
            meetings.clear();
            rt.apply_into(c.choice, &mut meetings);
            if rt.actions().is_multiple_of(64) {
                let snap = rt.snapshot();
                assert!(
                    snap.meetings().shares_storage_with(rt.meetings()),
                    "snapshot at action {} copied the meeting log",
                    rt.actions()
                );
                assert_eq!(snap.meetings().len(), rt.meetings().len());
                checked += 1;
            }
        }
        assert!(checked > 5, "the schedule must snapshot repeatedly");
        assert!(
            rt.meetings().len() > 100,
            "the schedule must accumulate meetings (got {})",
            rt.meetings().len()
        );
    }

    #[test]
    fn run_outcome_shares_the_meeting_log() {
        let g = generators::ring(6);
        let mut rt = Runtime::new(&g, two_walkers(&g), RunConfig::protocol());
        let out = rt.run(&mut RoundRobin::new());
        assert_eq!(out.end, RunEnd::AllParked);
        assert!(
            out.meetings.shares_storage_with(rt.meetings()) || rt.meetings().len() < 32, // short logs have no sealed chunks to share
            "RunOutcome must hand out the COW log, not a deep copy"
        );
        assert_eq!(out.meetings.len(), rt.meetings().len());
    }

    /// What a [`Recorder`] reveals: its agent index and how many
    /// deliveries it had received when the info was taken. Cloning one
    /// bumps a counter shared by the whole team.
    #[derive(Debug)]
    struct Tag {
        agent: usize,
        deliveries: usize,
        clones: Rc<Cell<usize>>,
    }

    impl Clone for Tag {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            Tag {
                agent: self.agent,
                deliveries: self.deliveries,
                clones: Rc::clone(&self.clones),
            }
        }
    }

    /// A scripted walker that records every delivery as the list of
    /// `(agent, deliveries)` pairs its peers revealed.
    #[derive(Clone, Debug)]
    struct Recorder {
        agent: usize,
        start: NodeId,
        ports: Vec<PortId>,
        received: Vec<Vec<(usize, usize)>>,
        clones: Rc<Cell<usize>>,
    }

    impl Behavior for Recorder {
        type Info = Tag;

        fn start_node(&self) -> NodeId {
            self.start
        }

        fn next_port(&mut self) -> Option<PortId> {
            self.ports.pop()
        }

        fn info(&self) -> Tag {
            Tag {
                agent: self.agent,
                deliveries: self.received.len(),
                clones: Rc::clone(&self.clones),
            }
        }

        fn on_meeting(&mut self, _place: MeetingPlace, peers: &[Tag]) {
            self.received
                .push(peers.iter().map(|p| (p.agent, p.deliveries)).collect());
        }

        fn fork(&self) -> Self {
            self.clone()
        }
    }

    /// Replays a fixed action list (panics if one is illegal).
    struct Scripted(std::vec::IntoIter<Choice>);

    impl crate::adversary::Adversary for Scripted {
        fn choose(&mut self, choices: &[ChoiceInfo], _tick: u64) -> Choice {
            let c = self.0.next().expect("script covers the run");
            assert!(choices.iter().any(|ci| ci.choice == c), "{c:?} illegal");
            c
        }
    }

    /// Recorders, one per `(start node, ports in order)` entry, play
    /// `script` with `faults` installed first. Returns the runtime after
    /// the script and the team's clone counter.
    fn scripted_recorders<'g>(
        g: &'g Graph,
        team: &[(usize, &[usize])],
        script: Vec<Choice>,
        faults: FaultPlan,
    ) -> (Runtime<'g, Recorder>, Rc<Cell<usize>>) {
        let clones = Rc::new(Cell::new(0));
        let team = team
            .iter()
            .enumerate()
            .map(|(agent, &(v, ports))| Recorder {
                agent,
                start: NodeId(v),
                ports: ports.iter().rev().map(|&p| PortId(p)).collect(),
                received: Vec::new(),
                clones: Rc::clone(&clones),
            })
            .collect();
        let mut rt = Runtime::new(g, team, RunConfig::protocol());
        rt.set_fault_plan(faults);
        let steps = script.len();
        let mut adversary = Scripted(script.into_iter());
        let mut meetings = Vec::new();
        for _ in 0..steps {
            assert_eq!(rt.step(&mut adversary, &mut meetings), None);
        }
        (rt, clones)
    }

    /// Builds a script from `(agent, kind)` pairs.
    fn script(actions: &[(usize, ActionKind)]) -> Vec<Choice> {
        actions
            .iter()
            .map(|&(agent, kind)| Choice { agent, kind })
            .collect()
    }

    /// Four recorders on the leaves of a five-node star walk into the hub
    /// in the order 2, 0, 3, 1, so the arrivals declare node meetings of
    /// two, three and four agents. `faults` is installed before the run.
    /// Returns the runtime after the twelve scripted actions and the
    /// team's clone counter.
    fn hub_meetings(g: &Graph, faults: FaultPlan) -> (Runtime<'_, Recorder>, Rc<Cell<usize>>) {
        let mut actions: Vec<_> = (0..4).map(|a| (a, ActionKind::Wake)).collect();
        for a in [2, 0, 3, 1] {
            actions.push((a, ActionKind::Start));
            actions.push((a, ActionKind::Finish));
        }
        let team: Vec<(usize, &[usize])> = (1..5).map(|v| (v, &[0][..])).collect();
        scripted_recorders(g, &team, script(&actions), faults)
    }

    /// What each agent should have received: replays the meeting log,
    /// giving every live participant its peers in ascending agent order,
    /// each with the delivery count it had *before* the meeting.
    fn expected_deliveries(rt: &Runtime<'_, Recorder>) -> Vec<Vec<Vec<(usize, usize)>>> {
        let n = rt.agent_count();
        let mut expected = vec![Vec::new(); n];
        let mut delivered = vec![0; n];
        for m in rt.meetings().iter() {
            let before = delivered.clone();
            for j in m.agents.iter().filter(|&j| !rt.crashed(j)) {
                let peers = m.agents.iter().filter(|&p| p != j);
                expected[j].push(peers.map(|p| (p, before[p])).collect());
                delivered[j] += 1;
            }
        }
        expected
    }

    #[test]
    #[should_panic(expected = "at most AgentSet::CAPACITY = 64 agents, got 65")]
    fn more_agents_than_the_agent_set_capacity_panic() {
        let g = generators::ring(65);
        let team: Vec<_> = (0..65)
            .map(|v| ScriptBehavior::new(NodeId(v), [0]))
            .collect();
        Runtime::new(&g, team, RunConfig::protocol());
    }

    #[test]
    fn delivery_gives_each_participant_its_peers_in_agent_order() {
        let g = generators::star(5);
        let (rt, clones) = hub_meetings(&g, FaultPlan::empty());
        let sizes: Vec<usize> = rt.meetings().iter().map(|m| m.agents.len()).collect();
        assert_eq!(sizes, vec![2, 3, 4]);
        let received: Vec<_> = (0..4).map(|i| rt.behavior(i).received.clone()).collect();
        assert_eq!(received, expected_deliveries(&rt));
        // Spelled out for the four-agent meeting: agents 0 and 2 had two
        // deliveries, agent 3 one, agent 1 none.
        assert_eq!(received[1], vec![vec![(0, 2), (2, 2), (3, 1)]]);
        assert_eq!(received[3][1], vec![(0, 2), (1, 0), (2, 2)]);
        assert_eq!(clones.get(), 0, "delivery cloned an info");
    }

    #[test]
    fn a_crashed_participant_is_seen_but_not_served() {
        let g = generators::star(5);
        // Agent 2 reaches the hub at action 6 and crashes there.
        let crash = CrashFault {
            at_action: 6,
            agent: 2,
        };
        let (rt, clones) = hub_meetings(&g, FaultPlan::new(vec![crash], Vec::new(), Vec::new()));
        assert!(rt.crashed(2));
        assert_eq!(rt.meetings().len(), 3);
        assert!(rt.behavior(2).received.is_empty());
        let received: Vec<_> = (0..4).map(|i| rt.behavior(i).received.clone()).collect();
        assert_eq!(received, expected_deliveries(&rt));
        assert_eq!(
            received[0][0],
            vec![(2, 0)],
            "the body's info reaches the others"
        );
        assert_eq!(clones.get(), 0, "delivery cloned an info");
    }

    /// The places of the logged meetings, `true` for an edge.
    fn inside_edges(rt: &Runtime<'_, Recorder>) -> Vec<bool> {
        rt.meetings()
            .iter()
            .map(|m| matches!(m.place, MeetingPlace::Edge(_)))
            .collect()
    }

    #[test]
    fn a_crossing_inside_an_edge_delivers_each_side_the_other() {
        use ActionKind::{Finish, Start, Wake};
        // On the path 0 - 1 - 2, agent 2 walks to node 1 and meets agent
        // 1 there; both then enter the edge towards node 0, and agent 0's
        // `Start` from node 0 crosses 1 and then 2 (queue order) in two
        // two-party edge meetings.
        let g = generators::path(3);
        let team: [(usize, &[usize]); 3] = [(0, &[0]), (1, &[0]), (2, &[0, 0])];
        let actions = [
            (0, Wake),
            (1, Wake),
            (2, Wake),
            (2, Start),
            (2, Finish),
            (1, Start),
            (2, Start),
            (0, Start),
        ];
        let (rt, clones) = scripted_recorders(&g, &team, script(&actions), FaultPlan::empty());
        assert_eq!(inside_edges(&rt), vec![false, true, true]);
        let received: Vec<_> = (0..3).map(|i| rt.behavior(i).received.clone()).collect();
        assert_eq!(received, expected_deliveries(&rt));
        // Each side gets the other's pre-meeting count: agent 0 had one
        // delivery when it crossed agent 2.
        assert_eq!(received[0], vec![vec![(1, 1)], vec![(2, 1)]]);
        assert_eq!(received[1], vec![vec![(2, 0)], vec![(0, 0)]]);
        assert_eq!(received[2], vec![vec![(1, 0)], vec![(0, 1)]]);
        assert_eq!(clones.get(), 0, "delivery cloned an info");
    }

    #[test]
    fn an_overtaking_finish_delivers_each_side_the_other() {
        use ActionKind::{Finish, Start, Wake};
        // Agent 1 walks from node 1 to agent 0 at node 0 and back; on the
        // way back both enter the edge, 0 first, and 1 finishes first:
        // it overtakes 0 inside the edge, and 0's arrival then meets 1 at
        // node 1.
        let g = generators::path(2);
        let team: [(usize, &[usize]); 2] = [(0, &[0]), (1, &[0, 0])];
        let actions = [
            (0, Wake),
            (1, Wake),
            (1, Start),
            (1, Finish),
            (0, Start),
            (1, Start),
            (1, Finish),
            (0, Finish),
        ];
        let (rt, clones) = scripted_recorders(&g, &team, script(&actions), FaultPlan::empty());
        assert_eq!(inside_edges(&rt), vec![false, true, false]);
        let received: Vec<_> = (0..2).map(|i| rt.behavior(i).received.clone()).collect();
        assert_eq!(received, expected_deliveries(&rt));
        assert_eq!(received[0], vec![vec![(1, 0)], vec![(1, 1)], vec![(1, 2)]]);
        assert_eq!(received[1], vec![vec![(0, 0)], vec![(0, 1)], vec![(0, 2)]]);
        assert_eq!(clones.get(), 0, "delivery cloned an info");
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn restore_rejects_foreign_snapshots() {
        let g6 = generators::ring(6);
        let g4 = generators::ring(4);
        let rt6 = Runtime::new(&g6, two_walkers(&g6), RunConfig::rendezvous());
        let snap = rt6.snapshot();
        let mut rt4 = Runtime::new(&g4, two_walkers(&g4), RunConfig::rendezvous());
        rt4.restore(&snap);
    }

    /// SplitMix64: the random stream of the oracle property below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Picks uniformly among the legal choices from a SplitMix64 stream.
    #[derive(Clone)]
    struct Uniform(u64);

    impl crate::adversary::Adversary for Uniform {
        fn choose(&mut self, choices: &[ChoiceInfo], _tick: u64) -> Choice {
            choices[splitmix(&mut self.0) as usize % choices.len()].choice
        }
    }

    /// A random team of `k` scripted walkers at distinct nodes of `g`,
    /// each with a walk of up to 15 ports that is valid from its start.
    fn random_team(g: &Graph, k: usize, rng: &mut u64) -> Vec<ScriptBehavior> {
        let mut nodes: Vec<usize> = (0..g.order()).collect();
        for j in (1..nodes.len()).rev() {
            nodes.swap(j, splitmix(rng) as usize % (j + 1));
        }
        nodes[..k]
            .iter()
            .map(|&start| {
                let mut at = NodeId(start);
                let len = splitmix(rng) % 16;
                let ports: Vec<usize> = (0..len)
                    .map(|_| {
                        let p = splitmix(rng) as usize % g.degree(at);
                        at = g.traverse(at, PortId(p)).node;
                        p
                    })
                    .collect();
                ScriptBehavior::new(NodeId(start), ports)
            })
            .collect()
    }

    /// A random plan of up to two crashes, three outages and two lost
    /// log appends, all within the first 60 actions.
    fn random_faults(g: &Graph, k: usize, rng: &mut u64) -> FaultPlan {
        let at = |rng: &mut u64| 1 + splitmix(rng) % 60;
        let crashes = (0..splitmix(rng) % 3)
            .map(|_| CrashFault {
                at_action: at(rng),
                agent: splitmix(rng) as usize % k,
            })
            .collect();
        let outages = (0..splitmix(rng) % 4)
            .map(|_| OutageFault {
                at_action: at(rng),
                edge_index: splitmix(rng) as usize % g.size(),
                duration_actions: 1 + splitmix(rng) % 12,
            })
            .collect();
        let losses = (0..splitmix(rng) % 3).map(|_| at(rng)).collect();
        FaultPlan::new(crashes, outages, losses)
    }

    /// The fast enumeration agrees with the scan-based oracle, choice for
    /// choice and flag for flag, and the cached geometry is sound.
    fn agrees_with_oracle(rt: &Runtime<'_, ScriptBehavior>) -> Result<(), TestCaseError> {
        rt.assert_geometry_consistent();
        prop_assert_eq!(
            rt.legal_choices(),
            rt.oracle_choices(),
            "at action {}",
            rt.actions()
        );
        Ok(())
    }

    /// Everything `undo` must restore, compared as one value.
    fn scheduler_view(rt: &Runtime<'_, ScriptBehavior>) -> String {
        format!(
            "{:?} {:?} {} {} {}",
            rt.states,
            rt.edges,
            rt.actions,
            rt.total_traversals,
            rt.meetings.len()
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random graphs, teams and schedules (with crash, outage and
        /// log-loss faults in some cases): at every step the legal choices
        /// equal the scan-based oracle's, in order and with the same
        /// meeting flags — including right after a snapshot/restore
        /// detour, a `SnapshotWire` round trip (which must rebuild the
        /// cached geometry exactly), and inside every `apply_undoable` of
        /// a meeting-free choice, whose `undo` must restore the state.
        #[test]
        fn cached_geometry_matches_the_scan_oracle(
            family in 0u64..5,
            n in 4usize..10,
            k in 2usize..7,
            faulty in 0u64..2,
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            let g = match family {
                0 => generators::ring(n),
                1 => generators::path(n),
                2 => generators::star(n),
                3 => generators::gnp_connected(n, 0.4, seed),
                _ => generators::lollipop(3, n - 3),
            };
            let k = k.min(g.order());
            let team = random_team(&g, k, &mut rng);
            let mut rt = Runtime::new(&g, team, RunConfig::protocol());
            if faulty == 1 {
                rt.set_fault_plan(random_faults(&g, k, &mut rng));
            }
            let mut adversary = Uniform(splitmix(&mut rng));
            let mut meetings = Vec::new();
            for _ in 0..400 {
                // `step` applies due faults before enumerating; do it here
                // too (it is idempotent) so the lists compared are the
                // ones the adversary is about to see.
                rt.apply_due_faults();
                agrees_with_oracle(&rt)?;
                match splitmix(&mut rng) % 6 {
                    0 => {
                        let snap = rt.snapshot();
                        let before = scheduler_view(&rt);
                        let mut detour = adversary.clone();
                        for _ in 0..3 {
                            if rt.step(&mut detour, &mut meetings).is_some() {
                                break;
                            }
                            agrees_with_oracle(&rt)?;
                        }
                        rt.restore(&snap);
                        prop_assert_eq!(scheduler_view(&rt), before);
                    }
                    1 => {
                        let json = SnapshotWire::from_snapshot(&rt.snapshot(), encode_script).to_json();
                        let back = SnapshotWire::from_json(&json)
                            .and_then(|w| w.into_snapshot(&g, decode_script));
                        let back = match back {
                            Ok(snap) => snap,
                            Err(e) => return Err(TestCaseError::Fail(format!("wire rejected a live state: {e}"))),
                        };
                        prop_assert_eq!(&back.states, &rt.states, "the wire rebuilt other geometry");
                        rt.restore(&back);
                    }
                    2 if rt.faults.is_none() => {
                        let before = scheduler_view(&rt);
                        for c in rt.legal_choices() {
                            let wake_meets = c.choice.kind == ActionKind::Wake
                                && rt.wake_would_meet(c.choice.agent);
                            if c.causes_meeting || wake_meets {
                                continue;
                            }
                            let token = rt.apply_undoable(c.choice, &mut meetings);
                            agrees_with_oracle(&rt)?;
                            rt.undo(token);
                            prop_assert_eq!(scheduler_view(&rt), before.clone(), "undo of {:?}", c.choice);
                        }
                    }
                    _ => {}
                }
                if rt.step(&mut adversary, &mut meetings).is_some() {
                    break;
                }
            }
            agrees_with_oracle(&rt)?;
        }
    }
}
