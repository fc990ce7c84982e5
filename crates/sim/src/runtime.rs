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
//! Edge occupancy is a dense table of `Copy` [`EdgeOcc`] records indexed
//! by [`Graph::edge_index_at`] (no hashing), one FIFO queue per
//! direction. A queue owns no memory: it is the `head`/`tail` pair of an
//! intrusive list threaded through the scheduler table, each queued
//! agent's [`AgentState`] linking to the next-younger entrant. Committing
//! a move caches its **edge geometry** in the agent's state: the dense
//! edge index and the departure side, found by the same CSR lookup that
//! resolves the arrival node, and kept while the agent is inside the edge.
//! So a `Start` is annotated with one load of the opposite queue's head,
//! applying it makes no graph lookup, and a `Finish` overtakes exactly
//! when its agent is not the head of its direction queue.
//!
//! Entering, leaving and re-entering edges never allocates: linking and
//! unlinking rewrite a few indices, and [`Runtime::new`] and
//! [`Runtime::fork`] build or copy one flat edge table whatever its
//! occupancy. The `_into` variants of
//! [`Runtime::legal_choices`] / [`Runtime::apply`] write into
//! caller-owned buffers that [`Runtime::run`] and the minimax search
//! reuse across steps.
//!
//! # State lifecycle
//!
//! A runtime state moves through construct → run → fork:
//! [`Runtime::new`] constructs, [`Runtime::run`] / `apply` steps, and
//! [`Runtime::fork`] copies the complete mid-run state (forking every
//! behavior per the [`Behavior::fork`] contract) into an independent
//! runtime over the same graph. The fork and the original then continue
//! without replaying the schedule prefix, and stepping either never
//! affects the other. The public API has no way back: a caller that
//! wants to return to a state forks it first and continues the fork. (The
//! memoized search's crate-private apply/undo brackets rewind single
//! meeting-free actions; see [`Runtime::apply_undoable`].)

use crate::behavior::Behavior;
use crate::fault::{FaultClock, FaultPlan};
use crate::meeting::{AgentSet, Meeting, MeetingPlace, MeetingTally};
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why the run ended.
    pub end: RunEnd,
    /// Total completed traversals over all agents (the paper's *cost*).
    pub total_traversals: u64,
    /// Completed traversals per agent.
    pub per_agent: Vec<u64>,
    /// The meetings declared: their count, the last one and who met whom
    /// (see [`MeetingTally`]). [`Runtime::step`] hands out the sequence.
    pub meetings: MeetingTally,
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

/// No agent: the head and tail of an empty direction queue, and the link
/// of a queue's youngest entrant or of an agent outside every edge.
const NIL: u32 = u32::MAX;

/// One agent's scheduler state: everything the scheduler reads or writes
/// except the behavior, which lives in the runtime's separate behavior
/// table. Being a small `Copy` record, the table of these is what choice
/// enumeration, contact scans and the progress census walk, what a
/// fork copies wholesale, and what a `Start`'s undo token saves.
///
/// `edge` and `from_a` cache the geometry of the agent's committed move:
/// set when the move is committed, kept while the agent is inside the
/// edge, and cleared on arrival. `next` is the agent's link in the
/// direction queue it is in (see [`EdgeOcc`]).
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
    /// Inside an edge: the agent that entered the same direction queue
    /// right after this one, or [`NIL`] if this agent is its youngest
    /// entrant (the tail). Always [`NIL`] at a node, so the whole table
    /// compares equal across an apply and its undo.
    pub(crate) next: u32,
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
            next: NIL,
            traversals: 0,
            entered_at: 0,
        }
    }

    /// Commits the move from node `v` through `port`, caching its arrival
    /// node, edge index and departure side from one CSR lookup.
    ///
    /// # Panics
    ///
    /// Panics (in `Graph::traverse_indexed`) if `v` has no port `port`.
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
        Some(port) => st.commit_move(g, v, port),
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
fn enumerate_choices(states: &[AgentState], edges: &[EdgeOcc], out: &mut Vec<ChoiceInfo>) {
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
                    if st.pending.is_none() {
                        continue; // parked
                    }
                    // A crossing: someone entered from the other endpoint.
                    let opposite = !edges[st.edge].queue(!st.from_a).is_empty();
                    (ActionKind::Start, opposite)
                }
                Place::Inside { to, .. } => {
                    // Overtaking: an earlier same-direction entrant is
                    // still ahead of `i` in its queue.
                    let overtakes = edges[st.edge].queue(st.from_a).head != i as u32;
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
/// of forking whole runtimes (see `crate::minimax`). The `Finish` and
/// `Wake` tokens carry a forked behavior; the search runs on `Copy`
/// replays of the agents' resolved port streams (`crate::memo::Replay`),
/// whose fork is a plain copy, so its tokens never allocate.
#[derive(Debug)]
pub(crate) enum ApplyUndo<B> {
    /// A `Start` never touches the behavior: the token is the agent's
    /// pre-apply state and the tail of the queue it joined. Undo unlinks
    /// the agent from that tail, found through the edge geometry the agent
    /// keeps inside the edge, and clears the old tail's link.
    Start {
        agent: usize,
        state: AgentState,
        prev_tail: u32,
    },
    /// A meeting-free `Finish` left from the head of its direction queue
    /// (anything else overtakes) and re-committed the behavior on
    /// arrival: the token is the pre-apply state (whose link names the
    /// new head) plus a forked behavior, and undo re-links the agent as
    /// the queue head.
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

/// One direction queue of an edge: the FIFO list of the agents inside it
/// that departed from the same endpoint, threaded through their
/// [`AgentState::next`] links from the eldest (`head`) to the youngest
/// (`tail`); both [`NIL`] when the queue is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DirQueue {
    head: u32,
    tail: u32,
}

impl DirQueue {
    const EMPTY: DirQueue = DirQueue {
        head: NIL,
        tail: NIL,
    };

    #[inline]
    fn is_empty(self) -> bool {
        self.head == NIL
    }

    /// The queued agents, eldest first, read off the links in `states`.
    pub(crate) fn iter(self, states: &[AgentState]) -> Queued<'_> {
        Queued {
            states,
            at: self.head,
        }
    }

    /// Appends agent `i`, which stands outside every queue (its link is
    /// [`NIL`]), as the youngest entrant.
    #[inline]
    pub(crate) fn push_back(&mut self, states: &mut [AgentState], i: usize) {
        debug_assert_eq!(states[i].next, NIL, "agent {i} is already queued");
        match self.tail {
            NIL => self.head = i as u32,
            tail => states[tail as usize].next = i as u32,
        }
        self.tail = i as u32;
    }

    /// Unlinks agent `i`, whose predecessor in the queue is `prev` ([`NIL`]
    /// when `i` is the head), and clears its link.
    #[inline]
    fn unlink(&mut self, states: &mut [AgentState], prev: u32, i: usize) {
        let next = std::mem::replace(&mut states[i].next, NIL);
        match prev {
            NIL => self.head = next,
            prev => states[prev as usize].next = next,
        }
        if next == NIL {
            self.tail = prev;
        }
    }
}

/// Iterator over a [`DirQueue`]'s agents, eldest first.
pub(crate) struct Queued<'a> {
    states: &'a [AgentState],
    at: u32,
}

impl Iterator for Queued<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let i = match self.at {
            NIL => return None,
            i => i as usize,
        };
        self.at = self.states[i].next;
        Some(i)
    }
}

/// Per-edge occupancy: the two direction queues of the agents inside,
/// identified by the departure endpoint. It holds plain indices into the
/// agent table, so a runtime's edge table is one flat allocation that a
/// fork copies as it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EdgeOcc {
    /// Agents that entered from `edge.a`, in entry order.
    from_a: DirQueue,
    /// Agents that entered from `edge.b`, in entry order.
    from_b: DirQueue,
}

impl EdgeOcc {
    pub(crate) const EMPTY: EdgeOcc = EdgeOcc {
        from_a: DirQueue::EMPTY,
        from_b: DirQueue::EMPTY,
    };

    #[inline]
    pub(crate) fn queue(&self, from_a_side: bool) -> DirQueue {
        if from_a_side {
            self.from_a
        } else {
            self.from_b
        }
    }
    #[inline]
    pub(crate) fn queue_mut(&mut self, from_a_side: bool) -> &mut DirQueue {
        if from_a_side {
            &mut self.from_a
        } else {
            &mut self.from_b
        }
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
    /// Occupancy per dense edge index (`edges.len() == g.size()`): each
    /// direction queue's head and tail, linked through `states`.
    edges: Vec<EdgeOcc>,
    /// The meetings declared so far (see [`MeetingTally`]).
    meetings: MeetingTally,
    actions: u64,
    total_traversals: u64,
    config: RunConfig,
    /// Reusable buffer of the participants' infos while a meeting of
    /// three or more is delivered (see `declare`); empty between
    /// deliveries, so it holds no references into the agents' state.
    info_scratch: Vec<B::Info>,
    /// Reusable legal-choice buffer for [`Runtime::step`] (transient, not
    /// part of the run state — a fork starts with an empty one).
    choice_scratch: Vec<ChoiceInfo>,
    /// Reusable buffer of one step's meetings for the run loop (transient
    /// like `choice_scratch`).
    meeting_scratch: Vec<Meeting>,
    /// Fault-injection cursor (see [`crate::fault`]); `None` = no plan
    /// installed, which keeps every fault branch a single `Option` check.
    /// A fork carries the clock as it stands, so both copies meet the
    /// plan's remaining faults at the same actions.
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
        Runtime {
            g,
            states: behaviors
                .iter()
                .map(|b| AgentState::asleep_at(b.start_node()))
                .collect(),
            // The caller's vector becomes the behavior table as is.
            behaviors,
            edges: vec![EdgeOcc::EMPTY; g.size()],
            meetings: MeetingTally::new(),
            actions: 0,
            total_traversals: 0,
            config,
            info_scratch: Vec::new(),
            choice_scratch: Vec::new(),
            meeting_scratch: Vec::new(),
            faults: None,
        }
    }

    /// Forks the complete mid-run state into an independent runtime over
    /// the same graph: every behavior through [`Behavior::fork`], the
    /// scheduler table (positions, committed moves, flags, counters), edge
    /// occupancy, the meeting tally and the counters copied, the config
    /// kept, and the fault clock carried as it stands. Only the scratch
    /// buffers start empty. The cost is **O(agents + edges)** plus the
    /// behavior forks: the [`MeetingTally`] is a fixed-size value, so
    /// protocol runs fork as cheaply at their millionth exchange as at
    /// their first.
    ///
    /// The fork and the original continue bit-identically under identical
    /// adversary decisions, and stepping either never affects the other.
    /// The plain minimax enumeration forks each branching node once per
    /// child but the last (see [`crate::minimax`]).
    pub fn fork(&self) -> Self {
        Runtime {
            g: self.g,
            states: self.states.clone(),
            behaviors: self.behaviors.iter().map(B::fork).collect(),
            edges: self.edges.clone(),
            meetings: self.meetings.clone(),
            actions: self.actions,
            total_traversals: self.total_traversals,
            config: self.config,
            info_scratch: Vec::new(),
            choice_scratch: Vec::new(),
            meeting_scratch: Vec::new(),
            faults: self.faults.clone(),
        }
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
    /// first spec push and frame expansion — happens
    /// now instead of inside the first `Start` applied to each agent.
    /// Forks taken afterwards inherit the warm state, so the plain minimax
    /// enumeration (see [`crate::minimax`]), which forks its root's state
    /// into every branch, pays it once rather than once per branch. Port streams are unchanged; only instrumentation
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

    /// The meetings declared so far: count, last meeting and who met whom.
    pub fn meetings(&self) -> &MeetingTally {
        &self.meetings
    }

    /// Installs a crash-stop fault plan (see [`crate::fault`]); replaces
    /// any current plan and rewinds its clock. The empty plan is provably
    /// free — the golden suites pin that installing `FaultPlan::empty()`
    /// leaves every run bit-identical.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultClock::new(plan));
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|c| c.plan())
    }

    /// `true` if agent `i` has crash-stopped (see [`crate::fault`]).
    pub fn crashed(&self, i: usize) -> bool {
        self.states[i].crashed
    }

    /// Marks crashes whose time has come — called by [`Runtime::step`]
    /// before enumerating choices, so crashes land at deterministic action
    /// counts.
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
        enumerate_choices(&self.states, &self.edges, out);
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
    /// Delivering a meeting never touches an edge queue or the link of an
    /// agent inside an edge (only agents at nodes re-commit), so the edge
    /// meetings below are declared while walking the queue in place.
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
                self.edges[index]
                    .queue_mut(from_a)
                    .push_back(&mut self.states, i);
                // Forced crossings with opposite-direction occupants, in
                // queue order.
                let mut j = self.edges[index].queue(!from_a).head;
                while j != NIL {
                    let m = self.declare(
                        [i, j as usize].into_iter().collect(),
                        MeetingPlace::Edge(edge),
                        None,
                    );
                    out.push(m);
                    j = self.states[j as usize].next;
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
                // Overtaken same-direction occupants (entered earlier):
                // the queue prefix ahead of `i`, walked to `i`'s
                // predecessor. At the head (the common case) it is empty.
                let mut prev = NIL;
                let mut j = self.edges[index].queue(from_a).head;
                while j != i as u32 {
                    assert_ne!(j, NIL, "agent queued");
                    let m = self.declare(
                        [i, j as usize].into_iter().collect(),
                        MeetingPlace::Edge(edge),
                        Some(i),
                    );
                    out.push(m);
                    prev = j;
                    j = self.states[j as usize].next;
                }
                self.edges[index]
                    .queue_mut(from_a)
                    .unlink(&mut self.states, prev, i);
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
    /// descent instead of forking whole runtimes: a meeting-free
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
            ActionKind::Start => ApplyUndo::Start {
                agent,
                state,
                prev_tail: self.edges[state.edge].queue(state.from_a).tail,
            },
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
            ApplyUndo::Start {
                agent,
                state,
                prev_tail,
            } => {
                // A `Start` keeps the move's geometry, so the queue it
                // joined is the one `state` names.
                let q = self.edges[state.edge].queue_mut(state.from_a);
                debug_assert_eq!(q.tail, agent as u32, "Start linked the queue tail");
                self.states[agent] = state;
                q.unlink(&mut self.states, prev_tail, agent);
            }
            ApplyUndo::Finish {
                agent,
                state,
                behavior,
            } => {
                self.total_traversals -= 1;
                // The pre-apply state still links to the agent's old
                // successor, now the head.
                let q = self.edges[state.edge].queue_mut(state.from_a);
                debug_assert_eq!(q.head, state.next, "Finish left from the queue head");
                q.head = agent as u32;
                if q.tail == NIL {
                    q.tail = agent as u32;
                }
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
        self.meetings.push(m);
        m
    }

    /// Executes **one** adversary decision — exactly one iteration of
    /// [`Runtime::run`]'s loop (cutoff check, legal-choice enumeration,
    /// `adversary.choose`, apply, first-meeting check), decision for
    /// decision. Meetings forced by the step are pushed onto
    /// `new_meetings` (cleared first); `Some(end)` means the run is over
    /// and no action was taken this call (for `Cutoff` and the choiceless
    /// ends) or the configured stop fired (`Meeting`). A step that applies
    /// a choice advances [`Runtime::actions`] by exactly one; a step that
    /// applies none leaves it where it was.
    ///
    /// `run` and `run_with_policy` are loops over `step`, so callers
    /// driving a run step-by-step — the fork-detour golden suites, which
    /// step a prefix and [`Runtime::fork`] it, and the probes that read
    /// agent progress between decisions — stay in lockstep with `run()`
    /// by construction. Stepping is also how a caller sees the whole
    /// meeting sequence, which the runtime's [`MeetingTally`] does not
    /// keep.
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
        enumerate_choices(&self.states, &self.edges, &mut self.choice_scratch);
        if self.choice_scratch.is_empty() {
            // Never-hang contract: a choiceless state is classified, not
            // spun.
            return Some(self.classify_quiescence());
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

    /// Runs under `adversary` until a terminal condition (see [`RunEnd`]).
    pub fn run(&mut self, adversary: &mut dyn crate::adversary::Adversary) -> RunOutcome {
        self.run_loop(adversary, None)
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
        self.run_loop(adversary, Some(policy))
    }

    /// The loop of [`Runtime::run`] and [`Runtime::run_with_policy`]:
    /// [`Runtime::step`] into the runtime's own meeting buffer until the
    /// run ends, consulting `policy` (if any) every cadence. Without a
    /// policy no [`Runtime::progress`] record is ever assembled.
    fn run_loop(
        &mut self,
        adversary: &mut dyn crate::adversary::Adversary,
        mut policy: Option<&mut dyn crate::stop::StopPolicy>,
    ) -> RunOutcome {
        let cadence = policy.as_ref().map_or(0, |p| p.cadence().max(1));
        let mut next_check = self.actions;
        let mut new_meetings = std::mem::take(&mut self.meeting_scratch);
        let end = loop {
            if let Some(policy) = policy.as_deref_mut().filter(|_| self.actions >= next_check) {
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
        self.meeting_scratch = new_meetings;
        self.outcome(end)
    }
}

/// The representation the linked queues replaced, kept as a test model:
/// one `Vec` per direction queue, `[from_b, from_a]` per dense edge index,
/// replayed from the applied choices alone. A `Start` appends its agent to
/// the queue its place names (re-derived from the graph, not from the
/// cached geometry) and a `Finish` removes it from wherever it is queued.
#[cfg(test)]
#[derive(Clone, Debug, PartialEq)]
struct QueueModel(Vec<[Vec<usize>; 2]>);

#[cfg(test)]
impl QueueModel {
    fn new(g: &Graph) -> Self {
        QueueModel(vec![[Vec::new(), Vec::new()]; g.size()])
    }

    /// Replays `choice`, which `rt` has just applied.
    fn replay<B: Behavior>(&mut self, rt: &Runtime<'_, B>, choice: Choice) {
        let i = choice.agent;
        match choice.kind {
            ActionKind::Wake => {}
            ActionKind::Start => {
                let Place::Inside { from, to, .. } = rt.states[i].place else {
                    panic!("agent {i} is not inside an edge after its Start");
                };
                let index = rt.scan_edge_index(from, to);
                self.0[index][rt.departs_a_side(index, from) as usize].push(i);
            }
            ActionKind::Finish => {
                for q in self.0.iter_mut().flatten() {
                    q.retain(|&a| a != i);
                }
            }
        }
    }

    fn queue(&self, index: usize, from_a: bool) -> &[usize] {
        &self.0[index][from_a as usize]
    }
}

/// The scan-based enumeration the cached move geometry replaced, kept as
/// the test oracle: every edge index and direction is re-derived from the
/// graph and the agent's place, and queue contents come from the
/// [`QueueModel`], never from the links.
#[cfg(test)]
impl<B: Behavior> Runtime<'_, B> {
    /// `true` if the departure node is the canonical smaller endpoint of
    /// the edge with dense index `index` — the key of the direction queues.
    fn departs_a_side(&self, index: usize, from: NodeId) -> bool {
        self.g.edge_id(index).a == from
    }

    /// The dense index of the edge joining adjacent nodes `from` and `to`.
    fn scan_edge_index(&self, from: NodeId, to: NodeId) -> usize {
        let port = self
            .g
            .port_towards(from, to)
            .expect("an occupied edge joins its endpoints");
        self.g.edge_index_at(from, port)
    }

    /// The oracle's legal choices, in [`Runtime::legal_choices`] order.
    fn oracle_choices(&self, model: &QueueModel) -> Vec<ChoiceInfo> {
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
                        // Opposite direction = entered from the other endpoint.
                        let opposite = model.queue(index, !self.departs_a_side(index, v));
                        (ActionKind::Start, !opposite.is_empty())
                    }
                    Place::Inside { from, to, .. } => {
                        // Overtaking: any same-direction occupant that
                        // entered before `i`.
                        let index = self.scan_edge_index(from, to);
                        let q = model.queue(index, self.departs_a_side(index, from));
                        let my_pos = q
                            .iter()
                            .position(|&a| a == i)
                            .expect("agent must be queued");
                        (
                            ActionKind::Finish,
                            my_pos > 0 || occupied_by_other(&self.states, i, to),
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
    /// says it is — the pending move's edge and side at a node, the
    /// occupied edge's inside one, nothing otherwise — and the linked
    /// queues are exactly the model's: the same agents in the same order,
    /// heads and tails on their ends, and every link [`NIL`] except an
    /// inside agent's, which names its successor in the model.
    fn assert_geometry_consistent(&self, model: &QueueModel) {
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
                    let index = self.scan_edge_index(from, to);
                    assert_eq!(edge, self.g.edge_id(index), "agent {i} edge id");
                    let from_a = self.departs_a_side(index, from);
                    assert_eq!(
                        model
                            .queue(index, from_a)
                            .iter()
                            .filter(|&&a| a == i)
                            .count(),
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
        let queued: usize = model.0.iter().flatten().map(Vec::len).sum();
        let inside = self
            .states
            .iter()
            .filter(|s| matches!(s.place, Place::Inside { .. }))
            .count();
        assert_eq!(
            queued, inside,
            "queues hold exactly the agents inside edges"
        );
        let mut links = vec![NIL; self.states.len()];
        for (index, occ) in self.edges.iter().enumerate() {
            for from_a in [true, false] {
                let q = occ.queue(from_a);
                let modelled = model.queue(index, from_a);
                // Bounded, so a link cycle fails here instead of hanging.
                let linked: Vec<usize> = q.iter(&self.states).take(modelled.len() + 1).collect();
                assert_eq!(linked, modelled, "edge {index} queue (from_a {from_a})");
                let ends = |a: Option<&usize>| a.map_or(NIL, |&a| a as u32);
                assert_eq!(
                    (q.head, q.tail),
                    (ends(modelled.first()), ends(modelled.last())),
                    "edge {index} head/tail (from_a {from_a})"
                );
                for w in modelled.windows(2) {
                    links[w[0]] = w[1] as u32;
                }
            }
        }
        let actual: Vec<u32> = self.states.iter().map(|s| s.next).collect();
        assert_eq!(actual, links, "agent links");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ScriptBehavior;
    use crate::fault::CrashFault;
    use proptest::prelude::*;
    use rv_graph::generators;
    use std::cell::Cell;
    use std::rc::Rc;

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

    /// A scripted run: the runtime after the script, the meetings its
    /// steps declared in order, and the team's clone counter.
    type Played<'g> = (Runtime<'g, Recorder>, Vec<Meeting>, Rc<Cell<usize>>);

    /// Recorders, one per `(start node, ports in order)` entry, play
    /// `script` with `faults` installed first.
    fn scripted_recorders<'g>(
        g: &'g Graph,
        team: &[(usize, &[usize])],
        script: Vec<Choice>,
        faults: FaultPlan,
    ) -> Played<'g> {
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
        let (mut meetings, mut log) = (Vec::new(), Vec::new());
        for _ in 0..steps {
            assert_eq!(rt.step(&mut adversary, &mut meetings), None);
            log.extend_from_slice(&meetings);
        }
        (rt, log, clones)
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
    /// two, three and four agents. `faults` is installed before the run,
    /// which plays twelve scripted actions.
    fn hub_meetings(g: &Graph, faults: FaultPlan) -> Played<'_> {
        let mut actions: Vec<_> = (0..4).map(|a| (a, ActionKind::Wake)).collect();
        for a in [2, 0, 3, 1] {
            actions.push((a, ActionKind::Start));
            actions.push((a, ActionKind::Finish));
        }
        let team: Vec<(usize, &[usize])> = (1..5).map(|v| (v, &[0][..])).collect();
        scripted_recorders(g, &team, script(&actions), faults)
    }

    /// What each agent should have received: replays the declared
    /// meetings, giving every live participant its peers in ascending
    /// agent order, each with the delivery count it had *before* the
    /// meeting.
    fn expected_deliveries(
        rt: &Runtime<'_, Recorder>,
        log: &[Meeting],
    ) -> Vec<Vec<Vec<(usize, usize)>>> {
        let n = rt.agent_count();
        let mut expected = vec![Vec::new(); n];
        let mut delivered = vec![0; n];
        for m in log {
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
    #[should_panic(expected = "port 2 out of range at node 0")]
    fn a_behavior_choosing_a_missing_port_panics() {
        // Every ring node has ports 0 and 1 only.
        let g = generators::ring(4);
        let team = vec![
            ScriptBehavior::new(NodeId(0), [2]),
            ScriptBehavior::new(NodeId(2), [0]),
        ];
        Runtime::new(&g, team, RunConfig::protocol()).run(&mut crate::adversary::RoundRobin::new());
    }

    #[test]
    fn delivery_gives_each_participant_its_peers_in_agent_order() {
        let g = generators::star(5);
        let (rt, log, clones) = hub_meetings(&g, FaultPlan::empty());
        let sizes: Vec<usize> = log.iter().map(|m| m.agents.len()).collect();
        assert_eq!(sizes, vec![2, 3, 4]);
        let received: Vec<_> = (0..4).map(|i| rt.behavior(i).received.clone()).collect();
        assert_eq!(received, expected_deliveries(&rt, &log));
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
        let (rt, log, clones) = hub_meetings(&g, FaultPlan::new(vec![crash]));
        assert!(rt.crashed(2));
        assert_eq!((log.len(), rt.meetings().len()), (3, 3));
        assert!(rt.behavior(2).received.is_empty());
        let received: Vec<_> = (0..4).map(|i| rt.behavior(i).received.clone()).collect();
        assert_eq!(received, expected_deliveries(&rt, &log));
        assert_eq!(
            received[0][0],
            vec![(2, 0)],
            "the body's info reaches the others"
        );
        assert_eq!(clones.get(), 0, "delivery cloned an info");
    }

    /// The places of the declared meetings, `true` for an edge.
    fn inside_edges(log: &[Meeting]) -> Vec<bool> {
        log.iter()
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
        let (rt, log, clones) = scripted_recorders(&g, &team, script(&actions), FaultPlan::empty());
        assert_eq!(inside_edges(&log), vec![false, true, true]);
        let received: Vec<_> = (0..3).map(|i| rt.behavior(i).received.clone()).collect();
        assert_eq!(received, expected_deliveries(&rt, &log));
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
        let (rt, log, clones) = scripted_recorders(&g, &team, script(&actions), FaultPlan::empty());
        assert_eq!(inside_edges(&log), vec![false, true, false]);
        let received: Vec<_> = (0..2).map(|i| rt.behavior(i).received.clone()).collect();
        assert_eq!(received, expected_deliveries(&rt, &log));
        assert_eq!(received[0], vec![vec![(1, 0)], vec![(1, 1)], vec![(1, 2)]]);
        assert_eq!(received[1], vec![vec![(0, 0)], vec![(0, 1)], vec![(0, 2)]]);
        assert_eq!(clones.get(), 0, "delivery cloned an info");
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

    /// A random plan of up to two crashes among `k` agents, all within
    /// the first 60 actions.
    fn random_faults(k: usize, rng: &mut u64) -> FaultPlan {
        let crashes = (0..splitmix(rng) % 3)
            .map(|_| CrashFault {
                at_action: 1 + splitmix(rng) % 60,
                agent: splitmix(rng) as usize % k,
            })
            .collect();
        FaultPlan::new(crashes)
    }

    /// An adversary that remembers the choice it made last.
    struct Logged<'a> {
        inner: &'a mut Uniform,
        last: Option<Choice>,
    }

    impl crate::adversary::Adversary for Logged<'_> {
        fn choose(&mut self, choices: &[ChoiceInfo], tick: u64) -> Choice {
            let c = self.inner.choose(choices, tick);
            self.last = Some(c);
            c
        }
    }

    /// [`Runtime::step`] under `adversary`, returning the step's end and
    /// the choice it applied, if any. Checks the action clock: a step
    /// that applied a choice advanced [`Runtime::actions`] by exactly one,
    /// and a step that applied none ended the run and left it in place.
    fn step_checked(
        rt: &mut Runtime<'_, ScriptBehavior>,
        adversary: &mut Uniform,
        meetings: &mut Vec<Meeting>,
    ) -> Result<(Option<RunEnd>, Option<Choice>), TestCaseError> {
        let before = rt.actions();
        let mut logged = Logged {
            inner: adversary,
            last: None,
        };
        let end = rt.step(&mut logged, meetings);
        let applied = logged.last;
        prop_assert_eq!(
            rt.actions(),
            before + u64::from(applied.is_some()),
            "{:?} ended {:?}",
            applied,
            end
        );
        prop_assert!(
            applied.is_some() || end.is_some(),
            "idle step at {}",
            before
        );
        Ok((end, applied))
    }

    /// [`step_checked`], replaying the applied choice (if the step took
    /// one) onto `model`.
    fn step_modelled(
        rt: &mut Runtime<'_, ScriptBehavior>,
        adversary: &mut Uniform,
        model: &mut QueueModel,
        meetings: &mut Vec<Meeting>,
    ) -> Result<Option<RunEnd>, TestCaseError> {
        let (end, applied) = step_checked(rt, adversary, meetings)?;
        if let Some(c) = applied {
            model.replay(rt, c);
        }
        Ok(end)
    }

    /// The fast enumeration agrees with the scan-based oracle, choice for
    /// choice and flag for flag, and the cached geometry and the queue
    /// links are sound.
    fn agrees_with_oracle(
        rt: &Runtime<'_, ScriptBehavior>,
        model: &QueueModel,
    ) -> Result<(), TestCaseError> {
        rt.assert_geometry_consistent(model);
        prop_assert_eq!(
            rt.legal_choices(),
            rt.oracle_choices(model),
            "at action {}",
            rt.actions()
        );
        Ok(())
    }

    /// Everything `undo` must restore, compared as one value.
    type SchedulerView = (Vec<AgentState>, Vec<EdgeOcc>, u64, u64, usize);

    fn scheduler_view(rt: &Runtime<'_, ScriptBehavior>) -> SchedulerView {
        (
            rt.states.clone(),
            rt.edges.clone(),
            rt.actions,
            rt.total_traversals,
            rt.meetings.len(),
        )
    }

    /// How often [`undo_walk`] exercised the queue operations that rewrite
    /// a link of some other agent.
    #[derive(Debug, Default)]
    struct UndoCoverage {
        /// Undone `Start`s that had joined an occupied queue.
        starts_behind: usize,
        /// Undone `Finish`es that had left a successor behind.
        finishes_ahead: usize,
        /// Edge meetings (crossings and overtakings) along the schedules.
        edge_meetings: usize,
    }

    /// Applies every meeting-free legal choice through `apply_undoable`,
    /// checks the links against the queue model while it is applied, and
    /// undoes it: the agent table and the edge table must come back `==`.
    fn undo_every_choice(
        rt: &mut Runtime<'_, ScriptBehavior>,
        model: &QueueModel,
        coverage: &mut UndoCoverage,
    ) -> Result<(), TestCaseError> {
        let before = scheduler_view(rt);
        let mut meetings = Vec::new();
        for c in rt.legal_choices() {
            let wake_meets =
                c.choice.kind == ActionKind::Wake && rt.wake_would_meet(c.choice.agent);
            if c.causes_meeting || wake_meets {
                continue;
            }
            let token = rt.apply_undoable(c.choice, &mut meetings);
            match &token {
                ApplyUndo::Start { prev_tail, .. } if *prev_tail != NIL => {
                    coverage.starts_behind += 1
                }
                ApplyUndo::Finish { state, .. } if state.next != NIL => {
                    coverage.finishes_ahead += 1
                }
                _ => {}
            }
            let mut applied = model.clone();
            applied.replay(rt, c.choice);
            agrees_with_oracle(rt, &applied)?;
            rt.undo(token);
            prop_assert_eq!(&scheduler_view(rt), &before, "undo of {:?}", c.choice);
        }
        Ok(())
    }

    /// A random protocol-mode schedule of a crowded team on a small graph,
    /// meetings included, that undoes every meeting-free choice at every
    /// step (see `undo_every_choice`).
    fn undo_walk(
        family: u64,
        k: usize,
        seed: u64,
        coverage: &mut UndoCoverage,
    ) -> Result<(), TestCaseError> {
        let mut rng = seed;
        let g = match family {
            0 => generators::path(3),
            1 => generators::ring(3),
            2 => generators::star(4),
            _ => generators::complete(4),
        };
        let k = k.min(g.order());
        let team = random_team(&g, k, &mut rng);
        let mut rt = Runtime::new(&g, team, RunConfig::protocol());
        let mut model = QueueModel::new(&g);
        let mut adversary = Uniform(splitmix(&mut rng));
        let mut meetings = Vec::new();
        for _ in 0..200 {
            undo_every_choice(&mut rt, &model, coverage)?;
            let end = step_modelled(&mut rt, &mut adversary, &mut model, &mut meetings)?;
            coverage.edge_meetings += meetings
                .iter()
                .filter(|m| matches!(m.place, MeetingPlace::Edge(_)))
                .count();
            agrees_with_oracle(&rt, &model)?;
            if end.is_some() {
                break;
            }
        }
        Ok(())
    }

    #[test]
    fn undo_walks_cover_multi_occupant_queues() {
        let mut coverage = UndoCoverage::default();
        for seed in 0..64 {
            undo_walk(seed % 4, 6, seed, &mut coverage).expect("undo walk");
        }
        assert!(
            coverage.starts_behind >= 100
                && coverage.finishes_ahead >= 100
                && coverage.edge_meetings >= 100,
            "{coverage:?}"
        );
    }

    /// Runs `rt` to its end under `adversary` and renders the outcome,
    /// the meeting tally included.
    fn finish(rt: &mut Runtime<'_, ScriptBehavior>, adversary: &mut Uniform) -> String {
        let out = rt.run(adversary);
        format!(
            "{:?} cost={} actions={} per={:?} {:?}",
            out.end, out.total_traversals, out.actions, out.per_agent, out.meetings
        )
    }

    #[test]
    fn forks_continue_identically_and_independently() {
        // A protocol run of a crowded team, stepped until meetings have
        // been tallied, so the forks must carry the tally too.
        let g = generators::ring(6);
        let mut rng = 7;
        let team = random_team(&g, 4, &mut rng);
        let mut rt = Runtime::new(&g, team, RunConfig::protocol());
        let mut adversary = Uniform(splitmix(&mut rng));
        let mut meetings = Vec::new();
        while rt.meetings().len() < 2 {
            assert_eq!(
                rt.step(&mut adversary, &mut meetings),
                None,
                "run ended early"
            );
        }
        let (mut a, mut b) = (rt.fork(), rt.fork());
        assert_eq!(scheduler_view(&a), scheduler_view(&rt));
        assert_eq!(a.meetings(), rt.meetings());
        // Running one fork to its end leaves the original and the other
        // fork where they were.
        let before = scheduler_view(&rt);
        let first = finish(&mut a, &mut adversary.clone());
        assert_eq!(scheduler_view(&rt), before);
        assert_eq!(scheduler_view(&b), before);
        assert_eq!(finish(&mut b, &mut adversary.clone()), first);
        assert_eq!(finish(&mut rt, &mut adversary), first);
    }

    #[test]
    fn snapshot_captures_and_restore_rewinds() {
        // A fork is the capture: stepping the original past it leaves the
        // fork at the captured state, which the run resumes from.
        let g = generators::ring(6);
        let mut rng = 11;
        let team = random_team(&g, 2, &mut rng);
        let mut rt = Runtime::new(&g, team, RunConfig::rendezvous());
        let mut adversary = Uniform(splitmix(&mut rng));
        let mut meetings = Vec::new();
        for _ in 0..5 {
            if rt.step(&mut adversary, &mut meetings).is_some() {
                break;
            }
        }
        let snap = rt.fork();
        let captured = scheduler_view(&rt);
        assert_eq!(scheduler_view(&snap), captured);
        let resumed = finish(&mut snap.fork(), &mut adversary.clone());

        // Diverge, then rewind.
        finish(&mut rt, &mut adversary.clone());
        assert_ne!(scheduler_view(&rt), captured);
        let mut rt = snap;
        assert_eq!(scheduler_view(&rt), captured);
        assert_eq!(finish(&mut rt, &mut adversary), resumed);
    }

    #[test]
    fn one_snapshot_seeds_many_identical_continuations() {
        let g = generators::ring(6);
        let mut rng = 3;
        let team = random_team(&g, 3, &mut rng);
        let mut rt = Runtime::new(&g, team, RunConfig::protocol());
        let mut adversary = Uniform(splitmix(&mut rng));
        let mut meetings = Vec::new();
        for _ in 0..3 {
            assert_eq!(rt.step(&mut adversary, &mut meetings), None);
        }
        let snap = rt.fork();
        let runs: Vec<String> = (0..4)
            .map(|_| finish(&mut snap.fork(), &mut adversary.clone()))
            .collect();
        assert!(runs.iter().all(|r| *r == runs[0]), "{runs:?}");
        assert_eq!(finish(&mut rt, &mut adversary), runs[0]);
    }

    /// A random protocol-mode schedule of a crowded team of `k` scripted
    /// walkers on a five-node graph, under a random crash plan, driven
    /// through `step` (see `step_checked`). After every step the tally
    /// must agree with the meetings `step` handed out: the same count,
    /// the same last meeting, and `pair_met` true for exactly the pairs
    /// (an agent with itself included) that shared a meeting. Adds the
    /// meetings of three or more agents to `crowded`.
    fn tally_walk(
        family: u64,
        k: usize,
        seed: u64,
        crowded: &mut usize,
    ) -> Result<(), TestCaseError> {
        let mut rng = seed;
        let g = match family {
            0 => generators::star(5),
            1 => generators::complete(5),
            2 => generators::ring(5),
            _ => generators::path(5),
        };
        let team = random_team(&g, k, &mut rng);
        let mut rt = Runtime::new(&g, team, RunConfig::protocol());
        rt.set_fault_plan(random_faults(k, &mut rng));
        let mut adversary = Uniform(splitmix(&mut rng));
        let (mut meetings, mut logged) = (Vec::new(), Vec::<Meeting>::new());
        loop {
            let (end, _) = step_checked(&mut rt, &mut adversary, &mut meetings)?;
            let action = rt.actions();
            *crowded += meetings.iter().filter(|m| m.agents.len() >= 3).count();
            logged.extend_from_slice(&meetings);
            let tally = rt.meetings();
            prop_assert_eq!(tally.len(), logged.len(), "at action {}", action);
            prop_assert_eq!(tally.last(), logged.last(), "at action {}", action);
            // Pair `(a, b)` at index `a·k + b`.
            let met = |a: usize, b: usize| {
                logged
                    .iter()
                    .any(|m| m.agents.contains(a) && m.agents.contains(b))
            };
            let expected: Vec<bool> = (0..k * k).map(|ab| met(ab / k, ab % k)).collect();
            let got: Vec<bool> = (0..k * k)
                .map(|ab| tally.pair_met(ab / k, ab % k))
                .collect();
            prop_assert_eq!(got, expected, "pair_met at action {}", action);
            if end.is_some() {
                return Ok(());
            }
        }
    }

    #[test]
    fn tally_walks_cover_crowded_meetings() {
        let mut crowded = 0;
        for seed in 0..64 {
            tally_walk(seed % 4, 2 + seed as usize % 4, seed, &mut crowded).expect("tally walk");
        }
        assert!(crowded >= 40, "{crowded} crowded meetings");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random crowded teams, schedules and crash plans: the tally
        /// agrees with the meetings `step` declared (see `tally_walk`).
        #[test]
        fn tally_matches_the_stepped_meetings(
            family in 0u64..4,
            k in 2usize..6,
            seed in any::<u64>(),
        ) {
            tally_walk(family, k, seed, &mut 0)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random crowded teams and schedules, crossings and overtakings
        /// included: every meeting-free apply is undone to an `==` agent
        /// table and edge table (see `undo_walk`).
        #[test]
        fn undo_restores_the_agent_and_edge_tables(
            family in 0u64..4,
            k in 2usize..7,
            seed in any::<u64>(),
        ) {
            undo_walk(family, k, seed, &mut UndoCoverage::default())?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random graphs, teams and schedules (with crash faults in some
        /// cases): at every step the legal choices
        /// equal the scan-based oracle's, in order and with the same
        /// meeting flags — including on a `Runtime::fork` that takes the
        /// run over (stepped in lockstep with the runtime it copies,
        /// whose fault clock it carries), and inside every
        /// `apply_undoable` of a meeting-free choice, whose `undo` must
        /// restore the state.
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
                rt.set_fault_plan(random_faults(k, &mut rng));
            }
            let mut model = QueueModel::new(&g);
            let mut adversary = Uniform(splitmix(&mut rng));
            let mut meetings = Vec::new();
            for _ in 0..400 {
                // `step` applies due faults before enumerating; do it here
                // too (it is idempotent) so the lists compared are the
                // ones the adversary is about to see.
                rt.apply_due_faults();
                agrees_with_oracle(&rt, &model)?;
                match splitmix(&mut rng) % 6 {
                    0 | 1 => {
                        // The fork takes the run over and the original
                        // follows in lockstep. The fork carries the fault
                        // clock, so no plan is installed again: the same
                        // crashes must reach both.
                        let fork = rt.fork();
                        prop_assert_eq!(scheduler_view(&fork), scheduler_view(&rt));
                        let mut original = std::mem::replace(&mut rt, fork);
                        let mut shadow = adversary.clone();
                        for _ in 0..3 {
                            let end = step_modelled(&mut rt, &mut adversary, &mut model, &mut meetings)?;
                            prop_assert_eq!(original.step(&mut shadow, &mut Vec::new()), end);
                            prop_assert_eq!(scheduler_view(&rt), scheduler_view(&original));
                            if end.is_some() {
                                break;
                            }
                            agrees_with_oracle(&rt, &model)?;
                        }
                    }
                    2 if rt.faults.is_none() => {
                        undo_every_choice(&mut rt, &model, &mut UndoCoverage::default())?;
                    }
                    _ => {}
                }
                if step_modelled(&mut rt, &mut adversary, &mut model, &mut meetings)?.is_some() {
                    break;
                }
            }
            agrees_with_oracle(&rt, &model)?;
        }
    }
}
