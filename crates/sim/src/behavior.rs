//! The agent-behavior abstraction and the two rendezvous behaviors.

use crate::meeting::MeetingPlace;
use rv_core::{Label, NaiveAlgorithm, RvAlgorithm};
use rv_explore::ExplorationProvider;
use rv_graph::{Graph, NodeId, PortId};
use rv_trajectory::TrajectoryCursor;

/// An agent algorithm as seen by the scheduler.
///
/// The runtime queries `next_port` whenever the agent stands at a node and
/// must commit its next move; returning `None` parks the agent. A parked
/// agent is queried again after each meeting delivered to it (new
/// information may end the parking), so implementations must tolerate
/// repeated `None`-after-`None` queries.
///
/// # The fork contract
///
/// [`Behavior::fork`] captures the agent's complete mid-run state in
/// O(state). The fork and the original must be **observationally
/// indistinguishable** from the moment of the fork onwards: identical
/// `next_port` streams, identical `info` snapshots, and identical reactions
/// to identical meeting deliveries — including the state of any internal
/// RNG or memoisation. Stepping either copy must never affect the other.
/// This is what lets [`crate::Runtime::fork`] copy a mid-run
/// configuration, and the minimax search's plain enumeration branch from
/// it, without re-executing the schedule prefix. (Its memoized walk forks
/// no behavior: it runs on replays of the ports
/// [`Behavior::future_ports`] previews.) Behaviors whose state is plain
/// data implement it as `self.clone()`.
pub trait Behavior {
    /// Information revealed to peers at a meeting. The runtime takes one
    /// per participant per meeting — protocol runs meet about once per
    /// four traversals — so it should be cheap to produce and to clone:
    /// share large state (as SGL's copy-on-write bags do) rather than
    /// copy it.
    type Info: Clone;

    /// The node this agent is placed at initially.
    fn start_node(&self) -> NodeId;

    /// Commits the next traversal (exit port from the current node), or
    /// parks.
    fn next_port(&mut self) -> Option<PortId>;

    /// Snapshot of the information this agent shares when met. Called
    /// exactly once per participant per meeting, for every participant
    /// before any of them receives [`Behavior::on_meeting`], so every
    /// delivery sees the peers as they were when the meeting happened.
    fn info(&self) -> Self::Info;

    /// Delivery of a meeting with `peers` at `place`. `peers` is a view
    /// borrowed from the runtime: the other participants' infos in
    /// ascending agent order, without this agent's own. Crashed
    /// participants receive no delivery, but their infos are among the
    /// live participants' peers.
    fn on_meeting(&mut self, place: MeetingPlace, peers: &[Self::Info]);

    /// Forks the agent mid-run: an independent copy that will behave
    /// bit-identically from this point on (see the trait docs for the
    /// exact contract).
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Self-reported progress for the stop-policy layer (see
    /// [`crate::stop::BehaviorProgress`]): a monotone work ordinal plus a
    /// done flag, aggregated into [`crate::stop::Progress`] by
    /// [`crate::Runtime::progress`]. The default reports no progress,
    /// which keeps scripted test behaviors trivially compatible with
    /// plain runs and the config budget. **Metric-watching detectors read
    /// a permanently flat metric as stagnation**: running a
    /// default-progress behavior under
    /// `DivergenceDetector`/`AdaptiveThreshold` will fire once the window
    /// elapses — wire those detectors only to behaviors that override
    /// this with a real metric.
    fn progress(&self) -> crate::stop::BehaviorProgress {
        crate::stop::BehaviorProgress::default()
    }

    /// Appends up to `limit` exit ports this agent would commit to next —
    /// the ports the following `limit` calls to [`Behavior::next_port`]
    /// would return — **without consuming them**, and returns `true`.
    /// Appending fewer than `limit` ports means the agent parks after the
    /// ones appended.
    ///
    /// Returning `false` (the default) declares the look-ahead unsupported;
    /// the minimax transposition table (see `crate::memo`) is disabled for
    /// any search containing such an agent, since its future cannot be
    /// folded into a state fingerprint. Implementations must only return
    /// `true` when the preview is exact: the ports appended here, in order,
    /// are precisely what `next_port` will produce as long as no meeting is
    /// delivered in between (meetings may redirect an agent, but the
    /// minimax search treats meetings as leaves, so the preview is never
    /// consulted across one). The memoized search calls this once per
    /// agent at its root and then plays the preview back in place of the
    /// behavior, which it never forks, steps or warms.
    fn future_ports(&self, _out: &mut Vec<PortId>, _limit: usize) -> bool {
        false
    }

    /// Performs any one-time lazy setup the first [`Behavior::next_port`]
    /// would do — materialising schedule state, expanding trajectory
    /// frames — **without consuming a port**. Forks taken after warming
    /// inherit the materialised state, so a search that forks one root
    /// into thousands of branches (the minimax search's plain
    /// enumeration, see `crate::minimax`) pays the setup once instead of
    /// once per branch. Must commute with
    /// the port stream: `warm(); next_port()` and `next_port()` alone must
    /// return identical ports with identical subsequent behavior. The
    /// default does nothing.
    fn warm(&mut self) {}
}

/// Algorithm RV-asynch-poly as a schedulable behavior: streams the infinite
/// piece/fence schedule through a [`TrajectoryCursor`]. Meetings carry the
/// agent's label; the behavior itself never reacts to them (rendezvous ends
/// the run).
#[derive(Clone)]
pub struct RvBehavior<'g, P> {
    cursor: TrajectoryCursor<'g, P>,
    algorithm: RvAlgorithm,
    start: NodeId,
}

impl<P: ExplorationProvider + Clone> std::fmt::Debug for RvBehavior<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RvBehavior")
            .field("label", &self.algorithm.label().value())
            .field("piece", &self.algorithm.piece())
            .field("start", &self.start)
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl<'g, P: ExplorationProvider + Clone> RvBehavior<'g, P> {
    /// Places an agent with `label` at `start`.
    pub fn new(g: &'g Graph, provider: P, start: NodeId, label: Label) -> Self {
        Self::with_variant(g, provider, start, label, rv_core::RvVariant::default())
    }

    /// Places an agent running an ablated variant of the algorithm
    /// (experiment F6).
    pub fn with_variant(
        g: &'g Graph,
        provider: P,
        start: NodeId,
        label: Label,
        variant: rv_core::RvVariant,
    ) -> Self {
        RvBehavior {
            cursor: TrajectoryCursor::new(g, provider, start),
            algorithm: RvAlgorithm::with_variant(label, variant),
            start,
        }
    }

    /// The agent's label.
    pub fn label(&self) -> Label {
        self.algorithm.label()
    }

    /// The piece the schedule is currently in (instrumentation).
    pub fn piece(&self) -> u64 {
        self.algorithm.piece()
    }
}

impl<'g, P: ExplorationProvider + Clone> Behavior for RvBehavior<'g, P> {
    type Info = Label;

    fn start_node(&self) -> NodeId {
        self.start
    }

    fn next_port(&mut self) -> Option<PortId> {
        loop {
            if let Some(t) = self.cursor.next_traversal() {
                return Some(t.exit);
            }
            let spec = self.algorithm.next_spec(); // the RV schedule never ends
            self.cursor.push(spec);
        }
    }

    fn info(&self) -> Label {
        self.algorithm.label()
    }

    fn on_meeting(&mut self, _place: MeetingPlace, _peers: &[Label]) {}

    fn fork(&self) -> Self {
        self.clone()
    }

    /// The algorithm's piece number — the ordinal whose stagnation while
    /// cost grows is the rendezvous divergence signature (see
    /// [`crate::stop::DivergenceDetector`]).
    fn progress(&self) -> crate::stop::BehaviorProgress {
        crate::stop::BehaviorProgress {
            metric: self.algorithm.piece(),
            done: false,
        }
    }

    /// Exact look-ahead by draining a fork: the RV schedule is oblivious
    /// to meetings, so the fork's port stream *is* the future.
    fn future_ports(&self, out: &mut Vec<PortId>, limit: usize) -> bool {
        let mut fork = self.clone();
        for _ in 0..limit {
            match fork.next_port() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        true
    }

    /// Primes the cursor to its next traversal: the first spec push and its
    /// frame expansion (walker construction) happen now, so forks answer
    /// their first `next_port` in O(1). Repetition counts are read later,
    /// when a repeat's first body ends.
    fn warm(&mut self) {
        while !self.cursor.prime() {
            let spec = self.algorithm.next_spec(); // the RV schedule never ends
            self.cursor.push(spec);
        }
    }
}

/// The naive exponential baseline as a behavior: `X(n)` repeated
/// `(2P(n)+1)^L` times, then parked forever. Requires the graph order.
#[derive(Clone)]
pub struct NaiveBehavior<'g, P> {
    cursor: TrajectoryCursor<'g, P>,
    algorithm: NaiveAlgorithm,
    label: Label,
    start: NodeId,
}

impl<'g, P: ExplorationProvider + Clone> NaiveBehavior<'g, P> {
    /// Places a naive agent with `label` at `start`, told the graph order.
    pub fn new(g: &'g Graph, provider: P, start: NodeId, label: Label) -> Self {
        let algorithm = NaiveAlgorithm::new(&provider, g.order() as u64, label);
        NaiveBehavior {
            cursor: TrajectoryCursor::new(g, provider, start),
            algorithm,
            label,
            start,
        }
    }
}

impl<'g, P: ExplorationProvider + Clone> Behavior for NaiveBehavior<'g, P> {
    type Info = Label;

    fn start_node(&self) -> NodeId {
        self.start
    }

    fn next_port(&mut self) -> Option<PortId> {
        loop {
            if let Some(t) = self.cursor.next_traversal() {
                return Some(t.exit);
            }
            let spec = self.algorithm.next_spec()?; // finished → park forever
            self.cursor.push(spec);
        }
    }

    fn info(&self) -> Label {
        self.label
    }

    fn on_meeting(&mut self, _place: MeetingPlace, _peers: &[Label]) {}

    fn fork(&self) -> Self {
        self.clone()
    }

    /// Exact look-ahead by draining a fork; the naive schedule ignores
    /// meetings, so the preview is exact up to the terminal park.
    fn future_ports(&self, out: &mut Vec<PortId>, limit: usize) -> bool {
        let mut fork = self.clone();
        for _ in 0..limit {
            match fork.next_port() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        true
    }

    /// Primes the cursor to its next traversal (or leaves it idle if the
    /// finite naive schedule has already parked).
    fn warm(&mut self) {
        while !self.cursor.prime() {
            match self.algorithm.next_spec() {
                Some(spec) => self.cursor.push(spec),
                None => return, // parked forever
            }
        }
    }
}

/// A behavior that follows a fixed list of exit ports then parks — the
/// workhorse of the meeting-rule tests.
#[derive(Clone, Debug)]
pub struct ScriptBehavior {
    start: NodeId,
    ports: std::collections::VecDeque<PortId>,
}

impl ScriptBehavior {
    /// Creates a scripted agent at `start` following `ports` in order.
    pub fn new(start: NodeId, ports: impl IntoIterator<Item = usize>) -> Self {
        ScriptBehavior {
            start,
            ports: ports.into_iter().map(PortId).collect(),
        }
    }

    /// The unplayed tail of the script, in play order — together with
    /// [`Behavior::start_node`] this is the complete mid-run state.
    pub fn remaining_ports(&self) -> impl Iterator<Item = PortId> + '_ {
        self.ports.iter().copied()
    }
}

impl Behavior for ScriptBehavior {
    type Info = ();

    fn start_node(&self) -> NodeId {
        self.start
    }

    fn next_port(&mut self) -> Option<PortId> {
        self.ports.pop_front()
    }

    fn info(&self) {}

    fn on_meeting(&mut self, _place: MeetingPlace, _peers: &[()]) {}

    fn fork(&self) -> Self {
        self.clone()
    }

    /// The unplayed script tail, verbatim — no fork needed.
    fn future_ports(&self, out: &mut Vec<PortId>, limit: usize) -> bool {
        out.extend(self.remaining_ports().take(limit));
        true
    }
}

/// A behavior that plays a fixed sequence of trajectory [`Spec`]s, optionally
/// looping over the final spec forever — used by the Lemma 3.1 tests and the
/// ablation experiments.
#[derive(Clone)]
pub struct SpecBehavior<'g, P> {
    cursor: TrajectoryCursor<'g, P>,
    specs: std::collections::VecDeque<Spec>,
    repeat_last: Option<Spec>,
    start: NodeId,
}

use rv_trajectory::Spec;

impl<'g, P: ExplorationProvider + Clone> SpecBehavior<'g, P> {
    /// Plays `specs` in order from `start`, then parks.
    pub fn new(g: &'g Graph, provider: P, start: NodeId, specs: Vec<Spec>) -> Self {
        SpecBehavior {
            cursor: TrajectoryCursor::new(g, provider, start),
            specs: specs.into(),
            repeat_last: None,
            start,
        }
    }

    /// Plays `specs` in order, then repeats `forever` indefinitely.
    pub fn looping(
        g: &'g Graph,
        provider: P,
        start: NodeId,
        specs: Vec<Spec>,
        forever: Spec,
    ) -> Self {
        SpecBehavior {
            cursor: TrajectoryCursor::new(g, provider, start),
            specs: specs.into(),
            repeat_last: Some(forever),
            start,
        }
    }
}

impl<'g, P: ExplorationProvider + Clone> Behavior for SpecBehavior<'g, P> {
    type Info = ();

    fn start_node(&self) -> NodeId {
        self.start
    }

    fn next_port(&mut self) -> Option<PortId> {
        loop {
            if let Some(t) = self.cursor.next_traversal() {
                return Some(t.exit);
            }
            match self.specs.pop_front().or(self.repeat_last) {
                Some(spec) => self.cursor.push(spec),
                None => return None,
            }
        }
    }

    fn info(&self) {}

    fn on_meeting(&mut self, _place: MeetingPlace, _peers: &[()]) {}

    fn fork(&self) -> Self {
        self.clone()
    }

    /// Exact look-ahead by draining a fork; spec playback never consults
    /// meetings.
    fn future_ports(&self, out: &mut Vec<PortId>, limit: usize) -> bool {
        let mut fork = self.clone();
        for _ in 0..limit {
            match fork.next_port() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_explore::SeededUxs;
    use rv_graph::generators;

    #[test]
    fn rv_behavior_streams_forever() {
        let g = generators::ring(4);
        let mut b = RvBehavior::new(&g, SeededUxs::default(), NodeId(0), Label::new(3).unwrap());
        for _ in 0..10_000 {
            assert!(b.next_port().is_some());
        }
        assert_eq!(b.label().value(), 3);
    }

    #[test]
    fn forked_rv_behavior_continues_bit_identically() {
        let g = generators::ring(4);
        let mut b = RvBehavior::new(&g, SeededUxs::default(), NodeId(0), Label::new(3).unwrap());
        for _ in 0..1234 {
            b.next_port().unwrap();
        }
        let mut fork = b.fork();
        assert_eq!(fork.label(), b.label());
        assert_eq!(fork.piece(), b.piece());
        for step in 0..5000 {
            assert_eq!(
                b.next_port(),
                fork.next_port(),
                "fork diverged at step {step}"
            );
        }
    }

    #[test]
    fn forked_script_behavior_is_independent() {
        let mut b = ScriptBehavior::new(NodeId(0), [0, 1, 0]);
        b.next_port().unwrap();
        let mut fork = b.fork();
        // Draining the fork leaves the original untouched.
        while fork.next_port().is_some() {}
        assert_eq!(b.next_port(), Some(PortId(1)));
        assert_eq!(b.next_port(), Some(PortId(0)));
        assert_eq!(b.next_port(), None);
    }

    #[test]
    fn future_ports_previews_without_consuming() {
        let g = generators::ring(4);
        let mut b = RvBehavior::new(&g, SeededUxs::default(), NodeId(0), Label::new(3).unwrap());
        for _ in 0..57 {
            b.next_port().unwrap();
        }
        let mut preview = Vec::new();
        assert!(b.future_ports(&mut preview, 40));
        assert_eq!(preview.len(), 40, "RV schedules never park");
        for (i, &p) in preview.iter().enumerate() {
            assert_eq!(b.next_port(), Some(p), "preview diverged at step {i}");
        }
    }

    #[test]
    fn future_ports_reports_early_park() {
        let s = ScriptBehavior::new(NodeId(0), [0, 1]);
        let mut preview = Vec::new();
        assert!(s.future_ports(&mut preview, 10));
        assert_eq!(preview, vec![PortId(0), PortId(1)]);
        // The preview consumed nothing.
        assert_eq!(s.remaining_ports().count(), 2);
    }

    #[test]
    fn naive_behavior_stops_after_its_repetitions() {
        let g = generators::ring(3);
        // Tiny provider so the schedule finishes quickly: P(3)=1 → 3 reps
        // of X(3) with |X(3)| = 2, for label 1.
        let uxs = rv_explore::TableUxs::new(vec![vec![1]]);
        let mut b = NaiveBehavior::new(&g, uxs, NodeId(0), Label::new(1).unwrap());
        let mut steps = 0;
        while b.next_port().is_some() {
            steps += 1;
        }
        assert_eq!(steps, 6); // 3 repetitions × 2 traversals
        assert!(b.next_port().is_none(), "parked agents stay parked");
    }
}
