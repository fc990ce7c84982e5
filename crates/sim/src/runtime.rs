//! The scheduler runtime: agent slots, edge occupancy, forced-meeting
//! detection, and the adversary-driven run loop.
//!
//! The hot path is allocation-free in steady state: edge occupancy is a
//! dense `Vec<EdgeOcc>` indexed by [`Graph::edge_index_at`] (no hashing,
//! queues keep their capacity across occupancy changes), and the `_into`
//! variants of [`Runtime::legal_choices`] / [`Runtime::apply`] write into
//! caller-owned buffers that [`Runtime::run`] and the minimax search reuse
//! across steps.
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
    /// This is the **compatibility shim** over the stop-policy layer: the
    /// run loop checks this budget inline before every action (exactly
    /// the semantics of a [`crate::stop::FixedCutoff`] policy at cadence
    /// 1), so it doubles as the hard backstop under
    /// [`Runtime::run_with_policy`] — detectors fire first when they have
    /// something to say, the budget catches everything else.
    pub fn with_cutoff(mut self, max: u64) -> Self {
        self.max_total_traversals = max;
        self
    }
}

#[derive(Debug)]
pub(crate) struct Slot<B> {
    pub(crate) behavior: B,
    pub(crate) place: Place,
    /// Dense edge index of the occupied edge; valid iff `place` is
    /// `Inside { .. }` (kept beside `place` so occupancy lookups skip the
    /// port scan an `EdgeId` → index conversion would need).
    pub(crate) inside_index: usize,
    /// Committed next traversal when at a node (`None` = parked).
    pub(crate) pending: Option<(PortId, NodeId)>,
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

impl<B: Behavior> Slot<B> {
    /// Forks the slot: scheduler bookkeeping is copied, the behavior is
    /// forked per the [`Behavior::fork`] contract.
    fn fork(&self) -> Self {
        Slot {
            behavior: self.behavior.fork(),
            place: self.place,
            inside_index: self.inside_index,
            pending: self.pending,
            awake: self.awake,
            crashed: self.crashed,
            traversals: self.traversals,
            entered_at: self.entered_at,
        }
    }
}

/// Token returned by [`Runtime::apply_undoable`]: the exact slice of
/// runtime state a meeting-free apply can mutate, keyed by action kind.
/// [`Runtime::undo`] consumes it to rewind the apply in O(1) — the
/// memoized minimax search pairs apply/undo around every descent instead
/// of forking whole runtimes (see `crate::minimax::explore_memo`).
#[derive(Debug)]
pub(crate) enum ApplyUndo<B> {
    /// A `Start` never touches the behavior: restore the `Copy` fields and
    /// pop the queue tail (locatable from the post-apply slot).
    Start {
        agent: usize,
        place: Place,
        pending: Option<(PortId, NodeId)>,
    },
    /// A `Finish` advances the behavior (arrival re-commit): the slot is
    /// forked whole, and the queue removal position is recorded so the
    /// agent reinserts exactly where it sat.
    Finish {
        slot: Slot<B>,
        agent: usize,
        index: usize,
        from_a: bool,
        my_pos: usize,
    },
    /// A `Wake` commits the first move: slot forked whole; nothing else
    /// moves.
    Wake { slot: Slot<B>, agent: usize },
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
    fn queue(&self, from_a_side: bool) -> &Vec<usize> {
        if from_a_side {
            &self.from_a
        } else {
            &self.from_b
        }
    }
    fn queue_mut(&mut self, from_a_side: bool) -> &mut Vec<usize> {
        if from_a_side {
            &mut self.from_a
        } else {
            &mut self.from_b
        }
    }
}

/// A frozen mid-run [`Runtime`] state: forked behaviors plus all scheduler
/// bookkeeping. Produced by [`Runtime::snapshot`], consumed (by reference,
/// any number of times) by [`Runtime::restore`] and
/// [`Runtime::from_snapshot`].
///
/// The snapshot does not borrow the runtime or the graph, so it outlives
/// the runtime that took it and can seed a fresh one.
#[derive(Debug)]
pub struct RuntimeSnapshot<B> {
    pub(crate) slots: Vec<Slot<B>>,
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
    slots: Vec<Slot<B>>,
    /// Occupancy per dense edge index (`edges.len() == g.size()`). Queues
    /// of edges that empty out keep their capacity for the next occupant.
    edges: Vec<EdgeOcc>,
    /// Append-only copy-on-write log (see [`MeetingLog`]): snapshots, the
    /// [`RunOutcome`], and forks all take O(1) handles instead of copies.
    meetings: MeetingLog,
    actions: u64,
    total_traversals: u64,
    config: RunConfig,
    /// Reusable copy of one edge queue (the opposite-direction occupants a
    /// `Start` crosses, or the same-direction occupants a `Finish`
    /// overtakes), taken because `declare` re-borrows `self`. Edge
    /// meetings are declared in this queue order.
    scratch: Vec<usize>,
    /// Reusable buffer of the participants' infos during one meeting
    /// delivery (see `declare_excluding`); empty between deliveries, so it
    /// holds no references into the agents' state.
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
            slots: Vec::new(),
            edges: vec![EdgeOcc::default(); g.size()],
            meetings: MeetingLog::new(),
            actions: 0,
            total_traversals: 0,
            config,
            scratch: Vec::new(),
            info_scratch: Vec::new(),
            choice_scratch: Vec::new(),
            faults: None,
        };
        rt.install(behaviors);
        rt
    }

    /// Rewinds the runtime to the **initial** state with a fresh set of
    /// agents, reusing every internal allocation (edge queues, slot
    /// storage, scratch).
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
        self.slots.clear();
        self.install(behaviors);
    }

    /// Freezes the complete mid-run state — agent behaviors (via
    /// [`Behavior::fork`]), positions, committed moves, edge occupancy,
    /// meeting history, and counters — into an **O(agents + edges)**
    /// snapshot that can be [`Runtime::restore`]d any number of times, on
    /// this runtime or on a fresh one built with
    /// [`Runtime::from_snapshot`]. The meeting history is captured as an
    /// O(1) [`MeetingLog`] handle, so snapshot cost is independent of how
    /// many meetings the run has accumulated — protocol runs snapshot as
    /// cheaply at their millionth exchange as at their first.
    ///
    /// Snapshots are independent of the runtime that produced them: taking
    /// one never perturbs the run, and a snapshot outlives its runtime.
    pub fn snapshot(&self) -> RuntimeSnapshot<B> {
        RuntimeSnapshot {
            slots: self.slots.iter().map(Slot::fork).collect(),
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
        self.slots.clear();
        self.slots.extend(snap.slots.iter().map(Slot::fork));
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
        self.slots = snap.slots;
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
            slots: snap.slots.iter().map(Slot::fork).collect(),
            edges: snap.edges.clone(),
            meetings: snap.meetings.clone(),
            actions: snap.actions,
            total_traversals: snap.total_traversals,
            config,
            scratch: Vec::new(),
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
        self.slots
            .extend(behaviors.into_iter().map(|behavior| Slot {
                place: Place::AtNode(behavior.start_node()),
                behavior,
                inside_index: usize::MAX,
                pending: None,
                awake: false,
                crashed: false,
                traversals: 0,
                entered_at: 0,
            }));
    }

    /// Current position of agent `i`.
    pub fn place(&self, i: usize) -> Place {
        self.slots[i].place
    }

    /// Completed traversals of agent `i`.
    pub fn traversals(&self, i: usize) -> u64 {
        self.slots[i].traversals
    }

    /// Total completed traversals.
    pub fn total_traversals(&self) -> u64 {
        self.total_traversals
    }

    /// Immutable access to agent `i`'s behavior (for post-run inspection).
    pub fn behavior(&self, i: usize) -> &B {
        &self.slots[i].behavior
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
        for slot in &mut self.slots {
            slot.behavior.warm();
        }
    }

    /// The full agent-slot table, for the canonical-fingerprint renderer
    /// (see `crate::memo`): fingerprinting needs every scheduler-visible
    /// component of an agent's state — place, committed move, flags,
    /// traversal count — in one read.
    pub(crate) fn slots_for_memo(&self) -> &[Slot<B>] {
        &self.slots
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
        self.slots.len()
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
        self.slots[i].crashed
    }

    /// Marks crashes whose time has come and expires outage windows —
    /// called by [`Runtime::step`] before enumerating choices, so fault
    /// effects land at deterministic action counts.
    fn apply_due_faults(&mut self) {
        let Some(mut clock) = self.faults.take() else {
            return;
        };
        let slots = &mut self.slots;
        clock.advance(self.actions, |agent| {
            if let Some(slot) = slots.get_mut(agent) {
                slot.crashed = true;
            }
        });
        self.faults = Some(clock);
    }

    /// `true` if dense edge `index` is inside an outage window right now.
    fn edge_is_down(&self, index: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.edge_down(index, self.actions))
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
        out.clear();
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.crashed {
                continue; // crash-stop: the agent never acts again
            }
            if !slot.awake {
                out.push(ChoiceInfo {
                    choice: Choice {
                        agent: i,
                        kind: ActionKind::Wake,
                    },
                    causes_meeting: false,
                });
                continue;
            }
            match slot.place {
                Place::AtNode(v) => {
                    if let Some((port, _to)) = slot.pending {
                        let index = self.g.edge_index_at(v, port);
                        if self.edge_is_down(index) {
                            continue; // outage: entry blocked until release
                        }
                        let causes_meeting = self.start_would_meet(index, v);
                        out.push(ChoiceInfo {
                            choice: Choice {
                                agent: i,
                                kind: ActionKind::Start,
                            },
                            causes_meeting,
                        });
                    }
                }
                Place::Inside { from, to, .. } => {
                    let causes_meeting = self.finish_would_meet(i, slot.inside_index, from, to);
                    out.push(ChoiceInfo {
                        choice: Choice {
                            agent: i,
                            kind: ActionKind::Finish,
                        },
                        causes_meeting,
                    });
                }
            }
        }
    }

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
        if my_pos > 0 {
            return true;
        }
        // Node contact at the arrival node.
        self.slots
            .iter()
            .enumerate()
            .any(|(j, s)| j != i && s.place == Place::AtNode(to))
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
    /// # Panics
    ///
    /// Panics if the choice is not currently legal.
    pub fn apply_into(&mut self, choice: Choice, out: &mut Vec<Meeting>) {
        self.actions += 1;
        let i = choice.agent;
        match choice.kind {
            ActionKind::Wake => {
                assert!(!self.slots[i].awake, "Wake on an awake agent");
                self.slots[i].awake = true;
                self.fetch_pending(i);
                // Waking at an occupied node is a meeting (the agents stand
                // at the same point).
                let here = match self.slots[i].place {
                    Place::AtNode(v) => v,
                    Place::Inside { .. } => unreachable!("asleep agents are at nodes"),
                };
                let mut present: AgentSet = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(j, s)| *j != i && s.awake && s.place == Place::AtNode(here))
                    .map(|(j, _)| j)
                    .collect();
                if !present.is_empty() {
                    present.insert(i);
                    let m = self.declare(present, MeetingPlace::Node(here));
                    out.push(m);
                }
            }
            ActionKind::Start => {
                let slot = &mut self.slots[i];
                assert!(slot.awake, "Start on a sleeping agent");
                let v = match slot.place {
                    Place::AtNode(v) => v,
                    _ => panic!("Start on an agent inside an edge"),
                };
                let (port, to) = slot.pending.take().expect("Start without a committed move");
                let index = self.g.edge_index_at(v, port);
                let edge = self.g.edge_id(index);
                slot.place = Place::Inside { edge, from: v, to };
                slot.inside_index = index;
                slot.entered_at = self.actions;
                let from_a = edge.a == v;
                // Forced crossings with opposite-direction occupants
                // (captured into scratch: `declare` below re-borrows self).
                let mut opposite = std::mem::take(&mut self.scratch);
                opposite.clear();
                opposite.extend_from_slice(self.edges[index].queue(!from_a));
                self.edges[index].queue_mut(from_a).push(i);
                for &j in &opposite {
                    let m = self.declare([i, j].into_iter().collect(), MeetingPlace::Edge(edge));
                    out.push(m);
                }
                self.scratch = opposite;
            }
            ActionKind::Finish => {
                let (edge, from, to) = match self.slots[i].place {
                    Place::Inside { edge, from, to } => (edge, from, to),
                    _ => panic!("Finish on an agent not inside an edge"),
                };
                let index = self.slots[i].inside_index;
                // Overtaken same-direction occupants (entered earlier).
                let q = self.edges[index].queue_mut(edge.a == from);
                let my_pos = q.iter().position(|&a| a == i).expect("agent queued");
                let mut overtaken = std::mem::take(&mut self.scratch);
                overtaken.clear();
                overtaken.extend_from_slice(&q[..my_pos]);
                q.remove(my_pos);
                self.slots[i].place = Place::AtNode(to);
                self.slots[i].inside_index = usize::MAX;
                self.slots[i].traversals += 1;
                self.total_traversals += 1;
                for &j in &overtaken {
                    let m = self.declare_excluding(
                        [i, j].into_iter().collect(),
                        MeetingPlace::Edge(edge),
                        Some(i),
                    );
                    out.push(m);
                }
                self.scratch = overtaken;
                // Node contact: everyone standing at the arrival node.
                // Sleeping agents there are woken by the visit.
                let mut present: AgentSet = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(j, s)| *j != i && s.place == Place::AtNode(to))
                    .map(|(j, _)| j)
                    .collect();
                if !present.is_empty() {
                    for j in present.iter() {
                        if !self.slots[j].awake && !self.slots[j].crashed {
                            self.slots[j].awake = true;
                            self.fetch_pending(j);
                        }
                    }
                    present.insert(i);
                    let m = self.declare_excluding(present, MeetingPlace::Node(to), Some(i));
                    out.push(m);
                }
                // The agent commits its next move knowing everything that
                // happened up to and including this arrival. (If a meeting
                // was declared, `declare` already committed it with the
                // meeting information in hand.)
                if self.slots[i].pending.is_none() {
                    self.fetch_pending(i);
                }
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
        let here = match self.slots[i].place {
            Place::AtNode(v) => v,
            Place::Inside { .. } => unreachable!("asleep agents are at nodes"),
        };
        self.slots
            .iter()
            .enumerate()
            .any(|(j, s)| j != i && s.awake && s.place == Place::AtNode(here))
    }

    /// Applies a choice that is known to be meeting-free (`causes_meeting`
    /// annotation false; for `Wake`, [`Runtime::wake_would_meet`] false)
    /// and returns a token that [`Runtime::undo`] uses to rewind it
    /// exactly. The depth-first memoized search pairs these around every
    /// descent instead of snapshotting whole runtimes: a meeting-free
    /// apply mutates only the acting agent's slot, one edge queue, and the
    /// action/traversal counters, so saving that slice is O(1) in the
    /// number of agents and edges — and a `Start` never touches its
    /// behavior at all, so its token is a couple of `Copy` fields.
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
        let i = choice.agent;
        let token = match choice.kind {
            // `Start` only moves the agent into an edge: `pending` is
            // taken, `place`/`inside_index` change, the queue gains a tail
            // entry. The behavior is untouched (it committed at arrival).
            ActionKind::Start => ApplyUndo::Start {
                agent: i,
                place: self.slots[i].place,
                pending: self.slots[i].pending,
            },
            // `Finish` re-commits the behavior on arrival (`fetch_pending`)
            // — fork the whole slot. The queue removal happens at the
            // agent's current position, recorded here so undo can reinsert
            // in place.
            ActionKind::Finish => {
                let (edge, from) = match self.slots[i].place {
                    Place::Inside { edge, from, .. } => (edge, from),
                    _ => panic!("Finish on an agent not inside an edge"),
                };
                let index = self.slots[i].inside_index;
                let from_a = edge.a == from;
                let my_pos = self.edges[index]
                    .queue(from_a)
                    .iter()
                    .position(|&a| a == i)
                    .expect("agent must be queued");
                ApplyUndo::Finish {
                    slot: self.slots[i].fork(),
                    agent: i,
                    index,
                    from_a,
                    my_pos,
                }
            }
            // `Wake` flips the flag and commits the first move — behavior
            // mutates, fork the slot.
            ActionKind::Wake => ApplyUndo::Wake {
                slot: self.slots[i].fork(),
                agent: i,
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
                place,
                pending,
            } => {
                // The applied `Start` left the agent inside the edge it
                // entered; pop it back off that queue's tail.
                let (index, from_a) = match self.slots[agent].place {
                    Place::Inside { edge, from, .. } => {
                        (self.slots[agent].inside_index, edge.a == from)
                    }
                    _ => unreachable!("undo of a Start finds the agent inside an edge"),
                };
                let q = self.edges[index].queue_mut(from_a);
                debug_assert_eq!(q.last(), Some(&agent), "Start pushed the queue tail");
                q.pop();
                let slot = &mut self.slots[agent];
                slot.place = place;
                slot.inside_index = usize::MAX;
                slot.pending = pending;
            }
            ApplyUndo::Finish {
                slot,
                agent,
                index,
                from_a,
                my_pos,
            } => {
                self.total_traversals -= 1;
                self.edges[index].queue_mut(from_a).insert(my_pos, agent);
                self.slots[agent] = slot;
            }
            ApplyUndo::Wake { slot, agent } => {
                self.slots[agent] = slot;
            }
        }
    }

    /// Records a meeting and delivers it to every participant. Committed
    /// moves stay binding (see crate docs), but *parked* participants get a
    /// fresh `next_port` query — parking is a decision, not a commitment,
    /// and new information may end it (e.g. an SGL explorer whose token
    /// just arrived).
    fn declare(&mut self, agents: AgentSet, place: MeetingPlace) -> Meeting {
        self.declare_excluding(agents, place, None)
    }

    /// Like [`Runtime::declare`] but defers the re-commit of `skip` (the
    /// agent whose action produced this meeting commits once at the end of
    /// its action, after *all* resulting meetings are delivered).
    /// Participants are served in ascending agent order.
    fn declare_excluding(
        &mut self,
        agents: AgentSet,
        place: MeetingPlace,
        skip: Option<usize>,
    ) -> Meeting {
        // Every info is taken before any delivery, so each participant sees
        // its peers as they were when the meeting happened.
        let mut infos = std::mem::take(&mut self.info_scratch);
        infos.extend(agents.iter().map(|j| self.slots[j].behavior.info()));
        let n = infos.len();
        for (idx, j) in agents.iter().enumerate() {
            // Crash-stop body semantics (see `crate::fault`): a crashed
            // participant's info stays readable by the live agents, but it
            // receives no delivery and never re-commits.
            if self.slots[j].crashed {
                continue;
            }
            // Participant `idx`'s peers are everyone else in agent order:
            // rotating its own info to the end leaves them as the prefix
            // (order matters — SGL adopts the first peer's final set).
            infos[idx..].rotate_left(1);
            self.slots[j].behavior.on_meeting(place, &infos[..n - 1]);
            infos[idx..].rotate_right(1);
            // A parked agent may decide to move again after learning
            // something new (e.g. an SGL explorer whose token arrives).
            if Some(j) != skip
                && self.slots[j].awake
                && matches!(self.slots[j].place, Place::AtNode(_))
                && self.slots[j].pending.is_none()
            {
                self.fetch_pending(j);
            }
        }
        // Drop the infos now: an info that outlived the meeting would keep
        // shared state (e.g. a copy-on-write bag) alive and make its
        // owner's next mutation copy.
        infos.clear();
        self.info_scratch = infos;
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

    /// Asks the behavior for its next committed move from its current node.
    fn fetch_pending(&mut self, i: usize) {
        let v = match self.slots[i].place {
            Place::AtNode(v) => v,
            Place::Inside { .. } => unreachable!("pending is only fetched at nodes"),
        };
        let slot = &mut self.slots[i];
        slot.pending = slot.behavior.next_port().map(|port| {
            assert!(port.0 < self.g.degree(v), "behavior chose an invalid port");
            (port, self.g.traverse(v, port).node)
        });
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
        let mut choices = std::mem::take(&mut self.choice_scratch);
        self.legal_choices_into(&mut choices);
        while choices.is_empty() {
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
                    self.legal_choices_into(&mut choices);
                }
                None => {
                    self.choice_scratch = choices;
                    return Some(self.classify_quiescence());
                }
            }
        }
        let choice = adversary.choose(&choices, self.actions);
        debug_assert!(
            choices.iter().any(|c| c.choice == choice),
            "adversary returned an illegal choice"
        );
        self.apply_into(choice, new_meetings);
        self.choice_scratch = choices;
        if self.config.stop_on_first_meeting && !new_meetings.is_empty() {
            return Some(RunEnd::Meeting);
        }
        None
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
        let mut earliest: Option<u64> = None;
        for slot in &self.slots {
            if slot.crashed || !slot.awake {
                continue;
            }
            if let (Place::AtNode(v), Some((port, _))) = (slot.place, slot.pending) {
                let index = self.g.edge_index_at(v, port);
                if let Some(r) = clock.edge_release(index, self.actions) {
                    earliest = Some(earliest.map_or(r, |e| e.min(r)));
                }
            }
        }
        earliest
    }

    /// Names a choiceless state: `AllParked` clean, the fault-aware
    /// variants when crash-stop faults are in the picture.
    fn classify_quiescence(&self) -> RunEnd {
        let crashed = self.slots.iter().filter(|s| s.crashed).count();
        if crashed == 0 {
            RunEnd::AllParked
        } else if crashed == self.slots.len() {
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
            per_agent: self.slots.iter().map(|s| s.traversals).collect(),
            meetings: self.meetings.clone(),
            actions: self.actions,
        }
    }

    /// Assembles the run's [`crate::stop::Progress`] record in O(agents):
    /// the incremental counters the runtime already maintains, a census of
    /// agent states, and the agents' [`Behavior::progress`] reports.
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
        for (i, slot) in self.slots.iter().enumerate() {
            let bp = slot.behavior.progress();
            metric_sum += bp.metric;
            metric_max = metric_max.max(bp.metric);
            if bp.done {
                done_agents += 1;
            }
            // Crashed agents leave the liveness census and the traversal
            // extremes: a dead agent is trivially "starved", and counting
            // it would blind the starvation signal for the survivors.
            if slot.crashed {
                crashed += 1;
                continue;
            }
            if !slot.awake {
                asleep += 1;
            } else {
                match slot.place {
                    Place::AtNode(_) => {
                        if slot.pending.is_none() {
                            parked += 1;
                        }
                    }
                    Place::Inside { .. } => {
                        moving += 1;
                        // Structural suspension census: how long has this
                        // (live, awake) agent held its committed crossing?
                        // Crashed slots were skipped above — a body wedged
                        // mid-edge forever must not read as "suspended".
                        let hold = self.actions - slot.entered_at;
                        if hold > longest_hold {
                            longest_hold = hold;
                            longest_hold_agent = i;
                        }
                    }
                }
            }
            if slot.traversals < min_tr {
                min_tr = slot.traversals;
                min_agent = i;
            }
            max_tr = max_tr.max(slot.traversals);
        }
        let last = self.meetings.last();
        crate::stop::Progress {
            actions: self.actions,
            total_traversals: self.total_traversals,
            meetings: self.meetings.len() as u64,
            last_meeting_action: last.map(|m| m.at_action),
            last_meeting_cost: last.map(|m| m.at_cost),
            agents: self.slots.len(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::RoundRobin;
    use crate::behavior::ScriptBehavior;
    use crate::fault::CrashFault;
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

    /// Four recorders on the leaves of a five-node star walk into the hub
    /// in the order 2, 0, 3, 1, so the arrivals declare node meetings of
    /// two, three and four agents. `faults` is installed before the run.
    /// Returns the runtime after the twelve scripted actions and the
    /// team's clone counter.
    fn hub_meetings(g: &Graph, faults: FaultPlan) -> (Runtime<'_, Recorder>, Rc<Cell<usize>>) {
        let clones = Rc::new(Cell::new(0));
        let team = (0..4)
            .map(|agent| Recorder {
                agent,
                start: NodeId(agent + 1),
                ports: vec![PortId(0)],
                received: Vec::new(),
                clones: Rc::clone(&clones),
            })
            .collect();
        let mut rt = Runtime::new(g, team, RunConfig::protocol());
        rt.set_fault_plan(faults);
        let act = |agent, kind| Choice { agent, kind };
        let mut script: Vec<Choice> = (0..4).map(|a| act(a, ActionKind::Wake)).collect();
        for a in [2, 0, 3, 1] {
            script.push(act(a, ActionKind::Start));
            script.push(act(a, ActionKind::Finish));
        }
        let steps = script.len();
        let mut adversary = Scripted(script.into_iter());
        let mut meetings = Vec::new();
        for _ in 0..steps {
            assert_eq!(rt.step(&mut adversary, &mut meetings), None);
        }
        (rt, clones)
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
}
