//! The SGL agent behavior (paper §4, Algorithm SGL).

use crate::bag::Bag;
use rv_core::{Label, RvAlgorithm};
use rv_explore::esst::{ArrivalReport, Drive, EsstMachine, SuspendedTokenCert, SuspensionPolicy};
use rv_explore::{ExplorationProvider, RWalker};
use rv_graph::{Arrival, Graph, NodeId, PortId, PortLog};
use rv_sim::{Behavior, MeetingPlace};
use rv_trajectory::TrajectoryCursor;

/// The three protocol states (paper §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateKind {
    /// Executing RV-asynch-poly, looking for a first decisive meeting.
    Traveller,
    /// Running the three explorer phases.
    Explorer,
    /// Parked forever as a semi-stationary token.
    Ghost,
}

/// What an SGL agent reveals at a meeting.
#[derive(Clone, Debug)]
pub struct SglInfo {
    /// The agent's label.
    pub label: u64,
    /// Its current state.
    pub state: StateKind,
    /// Its current bag.
    pub bag: Bag,
    /// The complete label set, if the agent knows it.
    pub final_set: Option<Bag>,
    /// Whether the agent has already produced its output.
    pub has_output: bool,
}

/// Tunables of the SGL behavior.
#[derive(Clone, Copy, Debug)]
pub struct SglConfig {
    /// Phase-2 completion threshold as a function of the order bound
    /// `E(n)` and the label bit-length `|L|`: the explorer finishes Phase 2
    /// after `coeff · E(n)³ · |L|` RV-asynch-poly traversals.
    ///
    /// **Substitution note.** The paper uses `Π(E(n), |L|)` here, which is
    /// astronomically large (see `rv_core::pi_bound`); any threshold large
    /// enough that every other agent has been met by then preserves
    /// correctness, and the experiments verify that property post-hoc on
    /// every run.
    pub completion_coeff: u64,
    /// Suspended-token census policy handed to the explorer's ESST
    /// machine (`None` disables certification; see
    /// [`SglBehavior::certificate`]). The attestation the census needs —
    /// that a token sighting is of a ghost pinned at one position with at
    /// most one committed final crossing left — is structural here:
    /// ghosts never commit new moves (paper §4), so a meeting with a
    /// [`StateKind::Ghost`] peer at the *same place as the previous
    /// token sighting* (parked at a node the schedule never lets cross,
    /// or suspended strictly inside an edge) is exactly a sighting of a
    /// suspended token; any position change breaks the streak.
    pub suspension: Option<SuspensionPolicy>,
}

impl Default for SglConfig {
    fn default() -> Self {
        SglConfig {
            completion_coeff: 2,
            suspension: Some(SuspensionPolicy::default()),
        }
    }
}

impl SglConfig {
    /// The Phase-2 completion threshold for order bound `e` and label
    /// bit-length `bits`.
    pub fn completion_threshold(&self, e: u64, bits: u64) -> u64 {
        self.completion_coeff
            .saturating_mul(e)
            .saturating_mul(e)
            .saturating_mul(e)
            .saturating_mul(bits)
    }
}

/// The explorer phase an agent is in, as revealed by
/// [`SglBehavior::quiescence_progress`] — the public mirror of the private
/// phase machinery, for progress observers (stop policies, traces).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SglPhase {
    /// Phase 1: procedure ESST with the token.
    Esst,
    /// Phase 2a: backtracking the ESST trajectory.
    Backtrack,
    /// Phase 2b: resumed RV-asynch-poly until threshold or smaller label.
    ResumeRv,
    /// Phase 3 (non-minimal): seeking the token via `R(E(n), ·)`.
    SeekToken,
    /// Phase 3 (minimal): forward collection sweep.
    CollectFwd,
    /// Phase 3 (minimal): backward announcement sweep.
    AnnounceBack,
}

/// How far an SGL agent has progressed toward quiescence — the protocol's
/// contribution to the simulator's progress-aware stop-policy layer (see
/// `rv_sim::Progress`). All counters are monotone over a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SglProgress {
    /// Current protocol state.
    pub state: StateKind,
    /// Current explorer phase, if the agent is mid-phase.
    pub phase: Option<SglPhase>,
    /// Labels gathered so far.
    pub bag_len: usize,
    /// Whether the complete label set has reached this agent.
    pub has_final_set: bool,
    /// Whether the agent has produced its output.
    pub has_output: bool,
    /// RV-asynch-poly traversals consumed (traveller + Phase 2).
    pub rv_traversals: u64,
    /// The ESST machine's current phase while Phase 1 runs (monotone
    /// within the phase; `None` outside it). A Phase-1 blowup shows as
    /// this climbing while cost explodes — see the stall-trace note.
    pub esst_phase: Option<u64>,
    /// Whether a suspended-token certificate has closed this agent's
    /// Phase 1 (monotone: set at most once, never cleared).
    pub certified: bool,
    /// Monotone progress ticks: every committed move in a bounded phase
    /// (backtrack, Phase-2 RV, collection and announcement sweeps,
    /// traveller RV), every ESST *phase* advance, and every information
    /// gain (new label, final set, state transition, output).
    /// Deliberately **silent** during Phase-3 token-seek moves and within
    /// a single ESST phase — both can be prolonged without bound by an
    /// adversary suspending the token inside an edge, and a stalled run
    /// is exactly one whose summed ticks stop advancing (see the
    /// stall-trace note in `docs/`).
    pub ticks: u64,
}

/// Explorer sub-state.
// The Esst variant dominates the enum's size, but Phase is held once per
// agent (not per node or per step), so boxing would cost more in indirection
// than it saves in memory.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Phase<P> {
    /// Phase 1: procedure ESST with the token.
    Esst {
        machine: EsstMachine<P>,
        fresh: bool,
    },
    /// Phase 2a: backtracking the ESST trajectory: the machine's walk log,
    /// popped newest-first (one byte per step for ports below 128).
    Backtrack { remaining: PortLog },
    /// Phase 2b: resumed RV-asynch-poly until threshold or smaller label.
    ResumeRv { threshold: u64 },
    /// Phase 3 (non-minimal): seeking the token via `R(E(n), ·)`.
    SeekToken { walker: RWalker<P> },
    /// Phase 3 (minimal agent): forward collection sweep `R(E(n), ·)`,
    /// logging entry ports for the backward announcement sweep.
    CollectFwd { walker: RWalker<P>, log: PortLog },
    /// Phase 3 (minimal agent): backward announcement sweep, popping the
    /// collection sweep's log.
    AnnounceBack { log: PortLog },
}

/// One SGL agent. Drive it with [`rv_sim::Runtime`] under
/// [`rv_sim::RunConfig::protocol`].
///
/// `Clone` implements the [`Behavior::fork`] contract: the clone carries
/// the full protocol state — bag, phase machinery (including a mid-flight
/// ESST machine), RV cursor, and token-sighting flags — and continues
/// bit-identically to the original.
#[derive(Clone)]
pub struct SglBehavior<'g, P> {
    g: &'g Graph,
    provider: P,
    config: SglConfig,
    label: Label,
    bag: Bag,
    final_set: Option<Bag>,
    output: Option<Bag>,
    state: StateKind,
    phase: Option<Phase<P>>,
    /// Self-tracked position (always consistent: the behavior knows every
    /// move it committed, and moves are deterministic).
    cur: NodeId,
    cur_entry: Option<PortId>,
    start: NodeId,
    /// RV-asynch-poly machinery, persistent across traveller + Phase 2.
    cursor: TrajectoryCursor<'g, P>,
    algorithm: RvAlgorithm,
    rv_traversals: u64,
    /// Upper bound on the order, once known (ESST termination phase).
    e_bound: Option<u64>,
    /// Label of this explorer's token, if any.
    token_label: Option<u64>,
    /// Token sighting flags for the pending/most recent arrival.
    met_token_at_node: bool,
    met_token_inside: bool,
    /// The sighting was of a ghost pinned at the same place as the
    /// previous token sighting (structurally suspended: a ghost holds at
    /// most one committed crossing, so a position-stable ghost is one the
    /// schedule is refusing to let finish — or has parked forever).
    met_token_suspended: bool,
    /// Where the token was last sighted — the position-stability anchor
    /// of the suspension attestation above.
    token_place: Option<MeetingPlace>,
    /// The suspended-token certificate, if one closed Phase 1.
    esst_certificate: Option<SuspendedTokenCert>,
    /// Token's `has_output` as of the latest meeting with it.
    token_had_output: bool,
    /// Set when a traveller decides to become an explorer; ESST is
    /// initialised at the next `next_port` (i.e. at the node where the
    /// committed edge ends).
    needs_esst_init: bool,
    /// Monotone progress counter (see [`SglProgress::ticks`]). Never read
    /// by the protocol itself — pure instrumentation for stop policies.
    progress_ticks: u64,
}

impl<'g, P: ExplorationProvider + Clone> SglBehavior<'g, P> {
    /// Places an SGL agent with `label` and gossip `value` at `start`.
    pub fn new(
        g: &'g Graph,
        provider: P,
        start: NodeId,
        label: Label,
        value: u64,
        config: SglConfig,
    ) -> Self {
        SglBehavior {
            g,
            provider: provider.clone(),
            config,
            label,
            bag: Bag::singleton(label.value(), value),
            final_set: None,
            output: None,
            state: StateKind::Traveller,
            phase: None,
            cur: start,
            cur_entry: None,
            start,
            cursor: TrajectoryCursor::new(g, provider, start),
            algorithm: RvAlgorithm::new(label),
            rv_traversals: 0,
            e_bound: None,
            token_label: None,
            met_token_at_node: false,
            met_token_inside: false,
            met_token_suspended: false,
            token_place: None,
            esst_certificate: None,
            token_had_output: false,
            needs_esst_init: false,
            progress_ticks: 0,
        }
    }

    /// The agent's label.
    pub fn label(&self) -> Label {
        self.label
    }

    /// Current protocol state.
    pub fn state(&self) -> StateKind {
        self.state
    }

    /// The produced output (the complete label/value set), once available.
    pub fn output(&self) -> Option<&Bag> {
        self.output.as_ref()
    }

    /// The agent's current bag.
    pub fn bag(&self) -> &Bag {
        &self.bag
    }

    /// The order bound `E(n)` this agent derived, if it became an explorer.
    pub fn order_bound(&self) -> Option<u64> {
        self.e_bound
    }

    /// The suspended-token certificate, if one closed this agent's
    /// Phase 1: the ESST census proved the token ghost has held its single
    /// committed final crossing for longer than any schedule that ever
    /// re-parks it at a node could sustain, so the phase was closed early
    /// instead of chasing the token (see `docs/STALL_TRACE.md`). `None`
    /// when Phase 1 terminated naturally (or never ran).
    pub fn certificate(&self) -> Option<SuspendedTokenCert> {
        self.esst_certificate
    }

    /// How far this agent has progressed toward quiescence (all counters
    /// monotone) — see [`SglProgress`]. This is what protocol-mode stop
    /// policies watch: a run whose agents' summed [`SglProgress::ticks`]
    /// stop advancing has stalled (typically a Phase-3 token seek pinned
    /// open by a meeting-postponing adversary).
    pub fn quiescence_progress(&self) -> SglProgress {
        SglProgress {
            state: self.state,
            phase: self.phase.as_ref().map(|p| match p {
                Phase::Esst { .. } => SglPhase::Esst,
                Phase::Backtrack { .. } => SglPhase::Backtrack,
                Phase::ResumeRv { .. } => SglPhase::ResumeRv,
                Phase::SeekToken { .. } => SglPhase::SeekToken,
                Phase::CollectFwd { .. } => SglPhase::CollectFwd,
                Phase::AnnounceBack { .. } => SglPhase::AnnounceBack,
            }),
            bag_len: self.bag.len(),
            has_final_set: self.final_set.is_some(),
            has_output: self.output.is_some(),
            rv_traversals: self.rv_traversals,
            esst_phase: match &self.phase {
                Some(Phase::Esst { machine, .. }) => Some(machine.phase()),
                _ => None,
            },
            certified: self.esst_certificate.is_some(),
            ticks: self.progress_ticks,
        }
    }

    /// Records a committed move: updates the self-tracked position. Moves
    /// tick the progress counter except in the phases an adversary can
    /// prolong without bound — Phase-3 token seeking (sweeps repeat until
    /// the token is pinned) and Phase-1 ESST walking (the machine can
    /// chase an adversarially suspended token indefinitely; ESST progress
    /// is its *phase* advancing instead — see [`SglProgress::ticks`]).
    fn commit(&mut self, port: PortId) -> PortId {
        let arr = self.g.traverse(self.cur, port);
        self.commit_arrival(port, arr)
    }

    /// [`Self::commit`] of a move whose arrival the caller already looked
    /// up.
    fn commit_arrival(&mut self, port: PortId, arr: Arrival) -> PortId {
        if !matches!(
            self.phase,
            Some(Phase::SeekToken { .. }) | Some(Phase::Esst { .. })
        ) {
            self.progress_ticks += 1;
        }
        self.cur = arr.node;
        self.cur_entry = Some(arr.entry_port);
        port
    }

    /// Next traversal of the (resumable) RV-asynch-poly schedule.
    fn rv_step(&mut self) -> PortId {
        loop {
            if let Some(t) = self.cursor.next_traversal() {
                self.rv_traversals += 1;
                self.progress_ticks += 1;
                // The cursor tracks position itself; keep ours in sync.
                self.cur = t.to;
                self.cur_entry = Some(t.entry);
                return t.exit;
            }
            let spec = self.algorithm.next_spec();
            self.cursor.push(spec);
        }
    }

    /// Consumes the token-sighting flags accumulated since the last move:
    /// `(at_node, inside, suspended)`.
    fn take_token_flags(&mut self) -> (bool, bool, bool) {
        let flags = (
            self.met_token_at_node,
            self.met_token_inside,
            self.met_token_suspended,
        );
        self.met_token_at_node = false;
        self.met_token_inside = false;
        self.met_token_suspended = false;
        flags
    }

    fn produce_output(&mut self, set: Bag) {
        self.progress_ticks += 1;
        self.final_set = Some(set.clone());
        self.output = Some(set);
    }

    /// Drives Phase 1 (ESST) one step; returns the next port, or `None`
    /// when ESST finished (the caller then switches phase).
    fn esst_step(&mut self, at_node: bool, inside: bool, suspended: bool) -> Option<PortId> {
        let Some(Phase::Esst { machine, fresh }) = self.phase.as_mut() else {
            unreachable!("esst_step outside phase 1");
        };
        if *fresh {
            *fresh = false;
        } else {
            let phase_before = machine.phase();
            machine.arrived(ArrivalReport {
                entry: self.cur_entry.expect("moved at least once"),
                degree: self.g.degree(self.cur),
                token_inside: inside,
                token_at_node: at_node,
                token_suspended: suspended,
            });
            // An ESST phase advance is the protocol-level progress unit of
            // Phase 1 (individual walks within a phase are not: an
            // adversary can prolong the token chase without bound).
            if machine.phase() > phase_before {
                self.progress_ticks += 1;
            }
        }
        match machine.current_request() {
            Drive::Traverse { port, .. } => Some(port),
            Drive::Done => None,
        }
    }
}

impl<'g, P: ExplorationProvider + Clone> Behavior for SglBehavior<'g, P> {
    type Info = SglInfo;

    fn start_node(&self) -> NodeId {
        self.start
    }

    fn info(&self) -> SglInfo {
        SglInfo {
            label: self.label.value(),
            state: self.state,
            bag: self.bag.clone(),
            final_set: self.final_set.clone(),
            has_output: self.output.is_some(),
        }
    }

    fn next_port(&mut self) -> Option<PortId> {
        match self.state {
            StateKind::Ghost => {
                // Parked forever; outputs happen in on_meeting.
                self.take_token_flags();
                None
            }
            StateKind::Traveller => {
                let port = self.rv_step();
                Some(port) // position already committed by rv_step
            }
            StateKind::Explorer => {
                if self.needs_esst_init {
                    self.needs_esst_init = false;
                    let (at_node, _inside, _suspended) = self.take_token_flags();
                    let machine =
                        EsstMachine::new(self.provider.clone(), self.g.degree(self.cur), at_node)
                            .with_suspension_policy(self.config.suspension);
                    self.phase = Some(Phase::Esst {
                        machine,
                        fresh: true,
                    });
                }
                if self.phase.is_none() {
                    // Finished (output produced) or otherwise parked.
                    self.take_token_flags();
                    return None;
                }
                // Token-sighting flags for the arrival that triggered this
                // query; valid until the next committed move.
                let (at_node, inside, suspended) = self.take_token_flags();
                loop {
                    match self.phase.as_mut().expect("explorer always has a phase") {
                        Phase::Esst { .. } => {
                            if let Some(port) = self.esst_step(at_node, inside, suspended) {
                                return Some(self.commit(port));
                            }
                            // Phase 1 done: derive E(n) and set up Phase 2.
                            // A suspended-token certificate closing the
                            // phase early is recorded here; it leaves the
                            // rest of the pipeline untouched (same E(n)
                            // derivation, same backtrack) because the
                            // certified token can never re-enter a node
                            // and change what the remaining phases learn.
                            let Some(Phase::Esst { machine, .. }) = self.phase.take() else {
                                unreachable!("matched Phase::Esst on the line above")
                            };
                            self.e_bound = Some(machine.phase());
                            self.esst_certificate = machine.certificate();
                            // Backtracking replays the recorded entry ports
                            // newest-first; `pop()` consumes from the back.
                            let remaining = machine.into_walk_entries();
                            self.phase = Some(Phase::Backtrack { remaining });
                        }
                        Phase::Backtrack { remaining } => {
                            if let Some(port) = remaining.pop() {
                                return Some(self.commit(port));
                            }
                            debug_assert_eq!(
                                self.cur,
                                self.cursor.position(),
                                "backtrack must return to the RV interruption node"
                            );
                            let e = self.e_bound.expect("phase 1 computed E(n)");
                            let threshold = self
                                .config
                                .completion_threshold(e, self.label.bit_length() as u64);
                            self.phase = Some(Phase::ResumeRv { threshold });
                        }
                        Phase::ResumeRv { threshold } => {
                            let threshold = *threshold;
                            if self.bag.min_label() < self.label.value() {
                                // Abort Phase 2 → Phase 3: seek the token.
                                let e = self.e_bound.expect("E(n) known");
                                self.phase = Some(Phase::SeekToken {
                                    walker: RWalker::new(self.provider.clone(), e),
                                });
                                self.cur_entry = None; // fresh R application
                                continue;
                            }
                            if self.rv_traversals >= threshold {
                                // Completed Phase 2 without hearing of a
                                // smaller label: this agent believes it is
                                // the minimum → collection sweep.
                                let e = self.e_bound.expect("E(n) known");
                                self.phase = Some(Phase::CollectFwd {
                                    walker: RWalker::new(self.provider.clone(), e),
                                    log: PortLog::new(),
                                });
                                self.cur_entry = None;
                                continue;
                            }
                            let port = self.rv_step();
                            return Some(port);
                        }
                        Phase::SeekToken { walker } => {
                            if at_node || inside {
                                // Met the token: adopt its outcome.
                                if self.token_had_output || self.final_set.is_some() {
                                    let set =
                                        self.final_set.clone().unwrap_or_else(|| self.bag.clone());
                                    self.produce_output(set);
                                } else {
                                    self.state = StateKind::Ghost;
                                }
                                self.phase = None;
                                return None;
                            }
                            match walker.next_exit(self.cur_entry, self.g.degree(self.cur)) {
                                Some(port) => return Some(self.commit(port)),
                                None => {
                                    // R(E(n), ·) is integral, so the token's
                                    // extended edge was covered; only a token
                                    // still finishing its last edge can have
                                    // been missed — sweep again.
                                    let e = self.e_bound.expect("E(n) known");
                                    *walker = RWalker::new(self.provider.clone(), e);
                                    self.cur_entry = None;
                                }
                            }
                        }
                        Phase::CollectFwd { walker, log } => {
                            match walker.next_exit(self.cur_entry, self.g.degree(self.cur)) {
                                Some(port) => {
                                    let arr = self.g.traverse(self.cur, port);
                                    log.push(arr.entry_port);
                                    return Some(self.commit_arrival(port, arr));
                                }
                                None => {
                                    // Sweep complete: the bag now holds every
                                    // label; announce on the way back.
                                    let log = std::mem::take(log);
                                    self.final_set = Some(self.bag.clone());
                                    self.phase = Some(Phase::AnnounceBack { log });
                                }
                            }
                        }
                        Phase::AnnounceBack { log } => {
                            if let Some(port) = log.pop() {
                                return Some(self.commit(port));
                            }
                            // Back at the sweep's origin: output and park.
                            let set = self.final_set.clone().expect("set before announcing");
                            self.produce_output(set);
                            self.phase = None;
                            return None;
                        }
                    }
                }
            }
        }
    }

    fn on_meeting(&mut self, place: MeetingPlace, peers: &[SglInfo]) {
        // 1. Bags merge and the final set propagates, unconditionally.
        //    Information gained here is progress (see SglProgress::ticks):
        //    new labels and a newly learned final set each tick.
        let bag_before = self.bag.len();
        let had_final_set = self.final_set.is_some();
        for p in peers {
            self.bag.merge(&p.bag);
            if self.final_set.is_none() {
                self.final_set = p.final_set.clone();
            }
        }
        self.progress_ticks += (self.bag.len() - bag_before) as u64;
        if !had_final_set && self.final_set.is_some() {
            self.progress_ticks += 1;
        }
        // 2. Token sighting flags. A sighting of a *ghost* at the same
        //    place as the previous token sighting is structurally a
        //    suspended-token sighting — a ghost holds at most one
        //    committed crossing, so position stability means the schedule
        //    is withholding that crossing (token parked at a node it
        //    never leaves, or held strictly inside an edge) — which is
        //    the attestation the ESST suspension census needs (see
        //    SglConfig::suspension). Any position change, or a sighting
        //    of a still-travelling token, breaks the census streak.
        if let Some(token) = self.token_label {
            for p in peers {
                if p.label == token {
                    match place {
                        MeetingPlace::Node(_) => self.met_token_at_node = true,
                        MeetingPlace::Edge(_) => self.met_token_inside = true,
                    }
                    if p.state == StateKind::Ghost && self.token_place == Some(place) {
                        self.met_token_suspended = true;
                    }
                    self.token_place = Some(place);
                    self.token_had_output |= p.has_output;
                }
            }
        }
        // 3. Ghosts (and finished agents) output as soon as the complete
        //    set reaches them.
        if self.output.is_none()
            && self.final_set.is_some()
            && (self.state == StateKind::Ghost
                || matches!(self.phase, Some(Phase::SeekToken { .. })))
        {
            let set = self.final_set.clone().expect("just checked");
            self.produce_output(set);
            if self.state == StateKind::Explorer {
                self.state = StateKind::Ghost;
                self.phase = None;
            }
        }
        // 4. Traveller transition rules (paper §4, state traveller).
        if self.state == StateKind::Traveller {
            let heard_smaller = peers.iter().any(|p| p.bag.min_label() < self.label.value());
            if heard_smaller {
                self.state = StateKind::Ghost;
                self.phase = None;
                self.progress_ticks += 1;
                return;
            }
            let token = peers
                .iter()
                .filter(|p| p.state != StateKind::Explorer)
                .map(|p| p.label)
                .min();
            if let Some(token) = token {
                self.state = StateKind::Explorer;
                self.token_label = Some(token);
                self.needs_esst_init = true;
                self.progress_ticks += 1;
            }
        }
    }

    fn fork(&self) -> Self {
        self.clone()
    }

    /// The protocol's progress ticks plus the output flag — what the
    /// stall-detecting stop policies ([`rv_sim::AdaptiveThreshold`]) and
    /// quiescence checks watch (see [`SglProgress::ticks`]).
    fn progress(&self) -> rv_sim::BehaviorProgress {
        rv_sim::BehaviorProgress {
            metric: self.progress_ticks,
            done: self.output.is_some(),
        }
    }
}
