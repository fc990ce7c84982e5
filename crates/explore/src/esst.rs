//! Procedure ESST — exploration with a semi-stationary token (paper §2).
//!
//! A single agent explores a graph of **unknown** size, aided by a unique
//! token that is confined to one *extended edge* `u − v` (the edge plus its
//! endpoints) but may move arbitrarily within it, adversarially. The
//! procedure proceeds in phases `i = 3, 6, 9, …`; in phase `i` the agent
//!
//! 1. applies `R(2i, v)` from its current node — the **trunc** — and aborts
//!    the phase if the trunc is not *clean* (some visited node has degree
//!    `> i − 1`) or if the token was never seen along it;
//! 2. otherwise backtracks to the start of the trunc and, at every trunc
//!    node `u_j`, applies `R(i, u_j)`, interrupting it at the first token
//!    sighting and recording the **code** (the port sequence from `u_j` to
//!    the token); it aborts the phase if some `R(i, u_j)` never sees the
//!    token, or as soon as `i/3` distinct codes have been recorded;
//! 3. if every trunc node produced a sighting with fewer than `i/3` distinct
//!    codes, the procedure **stops** — Theorem 2.1 shows all edges have then
//!    been traversed and the total cost is polynomial in the (unknown) size.
//!
//! The implementation is a resumable state machine ([`EsstMachine`]) so the
//! multi-agent simulator can interleave it with other agents (Algorithm SGL
//! uses a parked agent as the token); [`run_esst`] drives it standalone
//! against a [`TokenOracle`].
//!
//! The machine keeps every walk it retraces as a [`PortLog`], at one byte
//! per step for ports below 128: the whole run's entry ports (Algorithm SGL
//! replays them backwards to undo Phase 1), the current trunc's entry ports
//! (popped by its backtrack) and exit ports (read forward by byte offset
//! as the inner walks move along the trunc), and each inner walk's ports.
//! Cleanliness needs only the trunc's largest degree, kept as a running
//! maximum.
//!
//! One deliberate, documented deviation: when a sighting pushes the distinct
//! code count to `i/3`, the paper lets the agent finish its current edge
//! traversal before aborting; this implementation aborts at the nearest
//! endpoint, which differs by at most one edge traversal and affects no
//! claim of Theorem 2.1.
//!
//! A second, performance-motivated extension: the **suspended-token
//! certificate** (`docs/STALL_TRACE.md`). When the driver can attest that
//! a sighting is of a token pinned at one position — a ghost holding at
//! most one committed final crossing, sighted where the streak's previous
//! sighting left it, whether parked at a node or suspended strictly
//! inside an edge — the machine runs a per-phase census of consecutive
//! attested sightings and closes the phase early — [`Drive::Done`] plus a
//! [`SuspendedTokenCert`] — once the streak outlasts any schedule under
//! which the token's remaining crossing ever completes and produces a
//! sighting elsewhere ([`SuspensionPolicy`]). Without attestation (every
//! standalone oracle by default) the census never accumulates and the
//! machine is bit-identical to the uncertified one.

use crate::provider::{ExplorationProvider, RWalker};
use rv_graph::{EdgeId, EdgeSet, Graph, NodeId, PortId, PortLog};
use std::collections::BTreeSet;

/// A recorded code: the sequence of exit ports walked from a trunc node to
/// the token, plus whether the token was met inside the final edge.
// `Ord` keys the dedup set below (a BTreeSet, for deterministic iteration).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code {
    /// Exit ports from the trunc node up to (and including, when
    /// `inside_edge`) the edge where the token was met.
    pub ports: PortLog,
    /// `true` if the token was met strictly inside the last edge.
    pub inside_edge: bool,
}

/// Adversarial token behaviour for standalone ESST runs.
///
/// The token is confined to one extended edge; the oracle answers the only
/// two questions the continuous model can force:
///
/// * is the token **at node `v`** while the agent is there?
/// * is a crossing **forced inside `edge`** while the agent traverses it?
///
/// Implementations may answer adaptively (the token moves while the agent
/// is elsewhere) but must stay within one extended edge to model the
/// "semi-stationary" guarantee.
pub trait TokenOracle {
    /// Token present at `v` when the agent arrives/stands there?
    fn observe_node(&mut self, v: NodeId) -> bool;
    /// Token met inside `edge` when the agent traverses it starting
    /// from `from`?
    fn observe_traversal(&mut self, edge: EdgeId, from: NodeId) -> bool;
    /// Whether the driver can *attest* that an inside-edge sighting is of
    /// a **suspended** token: one that holds at most a single committed
    /// final crossing and can never produce new sightings after
    /// completing it (Algorithm SGL's token is a parked-forever ghost, so
    /// its driver attests; free-moving oracles must not). The standalone
    /// harness only ever attests inside-edge sightings — it cannot check
    /// position stability, so node sightings stay unattested — while
    /// richer drivers (the SGL behavior) attest any sighting of a ghost
    /// pinned at one position. Only attested sightings feed the
    /// suspended-token census; the default `false` keeps the certificate
    /// machinery provably inert.
    fn attests_suspension(&self) -> bool {
        false
    }
}

/// A token parked at a fixed node of its extended edge.
#[derive(Clone, Copy, Debug)]
pub struct StaticNodeToken {
    /// The node the token rests at.
    pub node: NodeId,
}

impl TokenOracle for StaticNodeToken {
    fn observe_node(&mut self, v: NodeId) -> bool {
        v == self.node
    }
    fn observe_traversal(&mut self, _edge: EdgeId, _from: NodeId) -> bool {
        false
    }
}

/// A token hiding strictly inside its edge: it is only ever seen when the
/// agent traverses that edge in full (evasive worst case for node checks).
#[derive(Clone, Copy, Debug)]
pub struct EvasiveEdgeToken {
    /// The edge the token hides in.
    pub edge: EdgeId,
}

impl TokenOracle for EvasiveEdgeToken {
    fn observe_node(&mut self, _v: NodeId) -> bool {
        false
    }
    fn observe_traversal(&mut self, edge: EdgeId, _from: NodeId) -> bool {
        edge == self.edge
    }
}

/// A token that cycles its position (endpoint `a` → inside → endpoint `b`)
/// every time the agent could observe it, maximising code diversity — the
/// strategy that stresses the `i/3`-codes abort rule.
#[derive(Clone, Copy, Debug)]
pub struct OscillatingToken {
    /// The extended edge the token lives on.
    pub edge: EdgeId,
    state: u8,
}

impl OscillatingToken {
    /// Creates the oscillating strategy on `edge`.
    pub fn new(edge: EdgeId) -> Self {
        OscillatingToken { edge, state: 0 }
    }
}

impl TokenOracle for OscillatingToken {
    fn observe_node(&mut self, v: NodeId) -> bool {
        if v != self.edge.a && v != self.edge.b {
            return false;
        }
        let here = match self.state {
            0 => v == self.edge.a,
            2 => v == self.edge.b,
            _ => false,
        };
        self.state = (self.state + 1) % 3;
        here
    }
    fn observe_traversal(&mut self, edge: EdgeId, _from: NodeId) -> bool {
        if edge != self.edge {
            return false;
        }
        let inside = self.state == 1;
        self.state = (self.state + 1) % 3;
        inside
    }
}

/// What the machine asks its driver to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// Traverse the edge behind this port. If `interruptible`, a token met
    /// inside the edge interrupts the move (driver calls
    /// [`EsstMachine::interrupted_inside`]); otherwise the move always
    /// completes (driver calls [`EsstMachine::arrived`]).
    Traverse {
        /// Exit port at the current node.
        port: PortId,
        /// Whether an inside-edge sighting interrupts the move.
        interruptible: bool,
    },
    /// The procedure has terminated at the current node.
    Done,
}

/// Driver's report of a completed traversal.
#[derive(Clone, Copy, Debug)]
pub struct ArrivalReport {
    /// Port by which the agent entered the new node.
    pub entry: PortId,
    /// Degree of the new node.
    pub degree: usize,
    /// Token was met strictly inside the traversed edge (only meaningful
    /// for non-interruptible moves; interruptible ones are interrupted
    /// instead of completed).
    pub token_inside: bool,
    /// Token present at the arrival node.
    pub token_at_node: bool,
    /// Driver-attested evidence that this sighting is of a *suspended*
    /// token: one pinned at the same position (node or edge interior) as
    /// the previous sighting and holding at most one committed crossing
    /// (see [`TokenOracle::attests_suspension`]). Ignored unless
    /// `token_inside` or `token_at_node` is set.
    pub token_suspended: bool,
}

/// Policy knobs of the suspended-token census (see
/// [`EsstMachine::certificate`]).
///
/// The census counts *consecutive* attested sightings within one phase,
/// with no intervening unattested sighting, and certifies once the
/// streak is both long (`min_sightings`) and wide (`min_span` edge
/// traversals between its first and latest sighting). It fires on any
/// token that has stopped for good — one the adversary pinned
/// mid-protocol *or* one that simply parked at its final position (a
/// parked ghost is a permanent suspension too, so retiring the phase
/// early against it is equally sound and a free speedup). `min_span` is
/// the load-bearing bound twice over: a run that finishes under the
/// floors is bit-identical to a census-free run (in particular, a
/// sub-`min_span` smoke cutoff can never certify), and a phase that
/// *has* walked 60k traversals is deep enough that closing it keeps the
/// derived order bound adequate for the later seek/collect walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuspensionPolicy {
    /// Minimum consecutive attested inside-edge sightings.
    pub min_sightings: u64,
    /// Minimum edge traversals between the streak's first sighting and
    /// the certifying one.
    pub min_span: u64,
}

impl Default for SuspensionPolicy {
    /// Calibrated against `docs/STALL_TRACE.md`: the pinned phases of the
    /// outlier cells accumulate thousands of same-position sightings over
    /// hundreds of thousands of traversals, so the floors sit far under
    /// their natural quiescence yet far over the 40k smoke cutoff and
    /// over the whole lifetime of the smallest golden cells, which stay
    /// bit-identical to a census-free run.
    fn default() -> Self {
        SuspensionPolicy {
            min_sightings: 48,
            min_span: 60_000,
        }
    }
}

/// A suspended-token certificate: the evidence on which a phase was closed
/// early (see [`EsstMachine::certificate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuspendedTokenCert {
    /// Phase that was closed by the certificate.
    pub phase: u64,
    /// Consecutive attested sightings in the census streak.
    pub sightings: u64,
    /// Edge traversals spanned by the streak.
    pub span: u64,
}

/// Where the machine is within a phase. The walks that are retraced keep
/// their ports in [`PortLog`]s, and each backtrack pops its log as it goes:
/// a move is committed once [`EsstMachine::current_request`] hands it out.
#[derive(Clone, Debug)]
enum State<P> {
    /// Walking the trunc `R(2i, ·)` forward.
    TruncForward { walker: RWalker<P> },
    /// Backtracking the trunc to its first node by popping its entry log.
    TruncBack,
    /// Executing `R(i, u_j)` at the current trunc node `u_j`.
    Inner {
        walker: RWalker<P>,
        exits: PortLog,
        entries: PortLog,
    },
    /// Backtracking from a sighting to `u_j`; `entries` still to replay.
    InnerBack { entries: PortLog },
    /// Walking the trunc edge from `u_j` to `u_{j+1}`.
    GotoNext,
    /// Terminated.
    Done,
}

/// Resumable ESST state machine.
///
/// Drive it by repeatedly calling [`EsstMachine::current_request`] and
/// answering with [`EsstMachine::arrived`] or
/// [`EsstMachine::interrupted_inside`]. See [`run_esst`] for the canonical
/// driver loop.
#[derive(Clone, Debug)]
pub struct EsstMachine<P> {
    provider: P,
    /// Current phase number `i` (3, 6, 9, …).
    phase: u64,
    state: State<P>,
    /// The move already handed to the driver and not yet resolved.
    pending: Option<Drive>,
    cost: u64,
    cur_degree: usize,
    cur_entry: Option<PortId>,
    token_here: bool,
    /// Distinct codes recorded in the current phase.
    codes: BTreeSet<Code>,
    /// Entry ports of the current phase's trunc, popped by its backtrack.
    trunc_entries: PortLog,
    /// Exit ports of the current phase's trunc, read forward from
    /// `trunc_next` as the inner walks move from node to node.
    trunc_exits: PortLog,
    /// Byte offset in `trunc_exits` of the exit leaving the current trunc
    /// node; at `trunc_exits.byte_len()` the agent is at the last one.
    trunc_next: usize,
    /// Largest degree seen along the trunc, the phase's start node
    /// included: the trunc is clean iff it is below the phase number.
    trunc_max_degree: usize,
    /// Token seen anywhere along the trunc (including the start node)?
    trunc_token_seen: bool,
    /// Entry ports of every completed traversal over the whole run
    /// (node-level walk; lets SGL backtrack the ESST trajectory), at one
    /// byte per traversal for ports below 128.
    walk_entries: PortLog,
    phases_aborted: u64,
    /// Suspended-token census policy (`None` disables certification).
    suspension: Option<SuspensionPolicy>,
    /// Consecutive attested inside-edge sightings; reset by phase
    /// boundaries and by any at-node or unattested sighting.
    streak_sightings: u64,
    /// `cost` at the streak's first sighting.
    streak_start_cost: u64,
    /// The certificate, once a census streak closed a phase.
    certificate: Option<SuspendedTokenCert>,
}

impl<P: ExplorationProvider + Clone> EsstMachine<P> {
    /// Starts the procedure at a node of degree `start_degree`;
    /// `token_at_start` reports whether the token is at that node.
    ///
    /// # Panics
    ///
    /// Panics if `start_degree == 0`.
    pub fn new(provider: P, start_degree: usize, token_at_start: bool) -> Self {
        assert!(start_degree > 0, "ESST at an isolated node");
        let mut m = EsstMachine {
            provider,
            phase: 3,
            state: State::Done,
            pending: None,
            cost: 0,
            cur_degree: start_degree,
            cur_entry: None,
            token_here: token_at_start,
            codes: BTreeSet::new(),
            trunc_entries: PortLog::new(),
            trunc_exits: PortLog::new(),
            trunc_next: 0,
            trunc_max_degree: 0,
            trunc_token_seen: false,
            walk_entries: PortLog::new(),
            phases_aborted: 0,
            suspension: Some(SuspensionPolicy::default()),
            streak_sightings: 0,
            streak_start_cost: 0,
            certificate: None,
        };
        m.start_phase(3);
        m
    }

    /// Overrides the suspended-token census policy (`None` disables the
    /// certificate entirely — the machine then behaves exactly as it did
    /// before the census existed).
    pub fn with_suspension_policy(mut self, policy: Option<SuspensionPolicy>) -> Self {
        self.suspension = policy;
        self
    }

    /// The suspended-token certificate, if one closed a phase: the machine
    /// reached [`Drive::Done`] because the census proved the token agent
    /// has held a single committed crossing for longer than any schedule
    /// that ever re-parks it at a node could sustain. `None` on natural
    /// termination.
    pub fn certificate(&self) -> Option<SuspendedTokenCert> {
        self.certificate
    }

    /// Total edge traversals so far (interrupted in-and-back moves count 2).
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Current phase number.
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Number of aborted phases so far.
    pub fn phases_aborted(&self) -> u64 {
        self.phases_aborted
    }

    /// Whether the procedure has terminated.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Entry ports of all completed traversals (the node-level walk), as
    /// a borrowed [`PortLog`]; popping them newest-first walks the agent
    /// back to its start.
    pub fn walk_entries(&self) -> &PortLog {
        &self.walk_entries
    }

    /// Consumes the machine and takes ownership of the walk log — for
    /// callers that are done driving and need the walk (backtracking,
    /// outcome reports) without copying a log as long as the run.
    pub fn into_walk_entries(self) -> PortLog {
        self.walk_entries
    }

    fn start_phase(&mut self, i: u64) {
        self.phase = i;
        self.pending = None;
        self.codes.clear();
        self.trunc_entries.clear();
        self.trunc_exits.clear();
        self.trunc_next = 0;
        self.trunc_max_degree = self.cur_degree;
        self.trunc_token_seen = self.token_here;
        self.streak_sightings = 0; // the census never spans phases
        self.cur_entry = None; // fresh R application
        self.state = State::TruncForward {
            walker: RWalker::new(self.provider.clone(), 2 * i),
        };
    }

    /// Feeds one token observation to the suspended-token census: an
    /// attested sighting extends the streak, an unattested one breaks it.
    /// The machine does not second-guess the attestation — the driver
    /// vouches that the sighted token is pinned (it holds at most one
    /// committed crossing and was sighted at the same position as the
    /// streak's previous sighting, strictly inside an edge or parked at a
    /// node); a sighting the driver cannot vouch for may belong to a
    /// token that still moves and changes codes, so it restarts the
    /// census.
    fn observe_for_census(&mut self, suspended: bool) {
        if !suspended {
            self.streak_sightings = 0;
        } else {
            if self.streak_sightings == 0 {
                self.streak_start_cost = self.cost;
            }
            self.streak_sightings += 1;
        }
    }

    /// Closes the phase on a suspended-token certificate when the census
    /// qualifies. The sub-state does not matter: the certificate's
    /// warrant is the census itself — every sighting in an unbroken,
    /// span-qualified streak saw the token strictly inside an edge, and a
    /// token that never re-enters a node can never be met at one, so the
    /// rest of the phase (trunc tail, inner walks, codes) could only have
    /// chased it in vain. Closing during the trunc matters in practice:
    /// large-order final phases spend most of their length there, and a
    /// certificate gated on the inner walks would sit on a proven
    /// suspension for millions of traversals.
    fn maybe_certify(&mut self) {
        let Some(policy) = self.suspension else {
            return;
        };
        if self.certificate.is_some() || matches!(self.state, State::Done) {
            return;
        }
        let span = self.cost - self.streak_start_cost;
        if self.streak_sightings >= policy.min_sightings && span >= policy.min_span {
            self.certificate = Some(SuspendedTokenCert {
                phase: self.phase,
                sightings: self.streak_sightings,
                span,
            });
            self.state = State::Done;
        }
    }

    fn abort_phase(&mut self) {
        self.phases_aborted += 1;
        let next = self.phase + 3;
        self.start_phase(next);
    }

    /// The next action the driver must perform. Idempotent until resolved
    /// by [`EsstMachine::arrived`] or [`EsstMachine::interrupted_inside`].
    pub fn current_request(&mut self) -> Drive {
        if let Some(d) = self.pending {
            return d;
        }
        let drive = match &mut self.state {
            State::Done => return Drive::Done,
            State::TruncForward { walker } => {
                let port = walker
                    .next_exit(self.cur_entry, self.cur_degree)
                    .expect("trunc completion is handled at arrival");
                Drive::Traverse {
                    port,
                    interruptible: false,
                }
            }
            State::TruncBack => Drive::Traverse {
                port: self.trunc_entries.pop().expect("a trunc has a step"),
                interruptible: false,
            },
            State::Inner { walker, .. } => {
                let port = walker
                    .next_exit(self.cur_entry, self.cur_degree)
                    .expect("inner completion is handled at arrival");
                Drive::Traverse {
                    port,
                    interruptible: true,
                }
            }
            State::InnerBack { entries } => Drive::Traverse {
                port: entries.pop().expect("empty backtracks resolve at once"),
                interruptible: false,
            },
            State::GotoNext => {
                let (port, next) = self.trunc_exits.decode_at(self.trunc_next);
                self.trunc_next = next;
                Drive::Traverse {
                    port,
                    interruptible: false,
                }
            }
        };
        self.pending = Some(drive);
        drive
    }

    /// Reports that the pending traversal completed.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending traversal.
    pub fn arrived(&mut self, report: ArrivalReport) {
        let pending = self
            .pending
            .take()
            .expect("arrived() without a pending move");
        let port = match pending {
            Drive::Traverse { port, .. } => port,
            Drive::Done => unreachable!("Done is never pending"),
        };
        self.cost += 1;
        self.walk_entries.push(report.entry);
        self.cur_degree = report.degree;
        self.cur_entry = Some(report.entry);
        self.token_here = report.token_at_node;
        if report.token_at_node || report.token_inside {
            self.observe_for_census(report.token_suspended);
        }

        // Transitions update `self.state` in place: only a change of state
        // writes a new one.
        match &mut self.state {
            State::TruncForward { walker } => {
                let done = walker.is_done();
                self.trunc_exits.push(port);
                self.trunc_entries.push(report.entry);
                self.trunc_max_degree = self.trunc_max_degree.max(report.degree);
                if report.token_inside || report.token_at_node {
                    self.trunc_token_seen = true;
                }
                if done {
                    let clean = (self.trunc_max_degree as u64) < self.phase;
                    if !clean || !self.trunc_token_seen {
                        self.abort_phase();
                    } else {
                        self.state = State::TruncBack;
                    }
                }
            }
            State::TruncBack => {
                if self.trunc_entries.is_empty() {
                    self.start_inner();
                }
            }
            State::Inner {
                walker,
                exits,
                entries,
            } => {
                exits.push(port);
                entries.push(report.entry);
                if report.token_inside || report.token_at_node {
                    // With `token_inside`, an edge-granular driver (the
                    // multi-agent simulator) saw the crossing inside the
                    // completed edge: the code ends with this edge's port,
                    // and the backtrack replays the full edge.
                    let code = Code {
                        ports: std::mem::take(exits),
                        inside_edge: report.token_inside,
                    };
                    let entries = std::mem::take(entries);
                    self.state = State::InnerBack { entries };
                    self.record_code_and_maybe_abort(code);
                } else if walker.is_done() {
                    // R(i, u_j) ended without a sighting → abort the phase.
                    self.abort_phase();
                }
            }
            State::InnerBack { entries } => {
                if entries.is_empty() {
                    self.after_inner_done();
                }
            }
            State::GotoNext => {
                self.start_inner();
            }
            State::Done => unreachable!("arrived() on a finished machine"),
        }
        self.maybe_certify();
    }

    /// Reports that the pending interruptible traversal was cut short by a
    /// token sighting inside the edge; the agent is back at the node it
    /// left. `suspended` is the driver's attestation for the sighting (see
    /// [`TokenOracle::attests_suspension`]).
    ///
    /// # Panics
    ///
    /// Panics if the pending move was not an interruptible traversal.
    pub fn interrupted_inside(&mut self, suspended: bool) {
        let pending = self
            .pending
            .take()
            .expect("interrupted without a pending move");
        let port = match pending {
            Drive::Traverse {
                port,
                interruptible: true,
            } => port,
            other => panic!("interrupted_inside() on non-interruptible move {other:?}"),
        };
        self.cost += 2; // into the edge and back
        self.observe_for_census(suspended);
        let State::Inner { exits, entries, .. } = &mut self.state else {
            unreachable!("interruptible moves only occur in Inner state")
        };
        exits.push(port);
        let code = Code {
            ports: std::mem::take(exits),
            inside_edge: true,
        };
        let entries = std::mem::take(entries);
        self.state = State::InnerBack { entries };
        self.record_code_and_maybe_abort(code);
        self.resolve_trivial_inner_back();
        self.maybe_certify();
    }

    /// Standing at trunc node `u_j`: start `R(phase, u_j)` (or record an
    /// empty code immediately if the token is right here).
    fn start_inner(&mut self) {
        if self.token_here {
            let code = Code {
                ports: PortLog::new(),
                inside_edge: false,
            };
            self.state = State::InnerBack {
                entries: PortLog::new(),
            };
            self.record_code_and_maybe_abort(code);
            self.resolve_trivial_inner_back();
        } else {
            self.cur_entry = None; // fresh R application at u_j
            self.state = State::Inner {
                walker: RWalker::new(self.provider.clone(), self.phase),
                exits: PortLog::new(),
                entries: PortLog::new(),
            };
        }
    }

    /// If an `InnerBack` has nothing to replay, finish the node now.
    fn resolve_trivial_inner_back(&mut self) {
        if matches!(&self.state, State::InnerBack { entries } if entries.is_empty()) {
            self.after_inner_done();
        }
    }

    /// Called when the agent stands at `u_j` again after a sighting.
    fn after_inner_done(&mut self) {
        if self.trunc_next == self.trunc_exits.byte_len() {
            // The last trunc node is processed: the phase completes — stop.
            self.state = State::Done;
        } else {
            self.state = State::GotoNext;
        }
    }

    fn record_code_and_maybe_abort(&mut self, code: Code) {
        self.codes.insert(code);
        if self.codes.len() as u64 >= self.phase / 3 {
            self.abort_phase();
        }
    }
}

/// Outcome of a standalone ESST run.
#[derive(Clone, Debug)]
pub struct EsstOutcome {
    /// Total edge traversals.
    pub cost: u64,
    /// Node where the procedure stopped.
    pub final_node: NodeId,
    /// Phase in which the procedure terminated.
    pub final_phase: u64,
    /// Phases aborted before termination.
    pub phases_aborted: u64,
    /// Distinct edges traversed over the whole run.
    pub edges_covered: usize,
    /// The suspended-token certificate, if one closed the final phase.
    pub certificate: Option<SuspendedTokenCert>,
    /// Entry ports of all completed traversals (for backtracking).
    pub walk_entries: PortLog,
}

/// Runs procedure ESST to completion in `g` from `start` against `oracle`.
///
/// `max_phase` caps the phase number as a safety net (Theorem 2.1 guarantees
/// termination by phase `9n + 3` for an honest token); exceeding the cap
/// returns `None`.
pub fn run_esst<P, O>(
    g: &Graph,
    provider: P,
    start: NodeId,
    oracle: &mut O,
    max_phase: u64,
) -> Option<EsstOutcome>
where
    P: ExplorationProvider + Clone,
    O: TokenOracle + ?Sized,
{
    let token_at_start = oracle.observe_node(start);
    let mut m = EsstMachine::new(provider, g.degree(start), token_at_start);
    let mut cur = start;
    let mut covered = EdgeSet::new(g);
    loop {
        if m.phase() > max_phase {
            return None;
        }
        match m.current_request() {
            Drive::Done => break,
            Drive::Traverse {
                port,
                interruptible,
            } => {
                let index = g.edge_index_at(cur, port);
                let inside = oracle.observe_traversal(g.edge_id(index), cur);
                let suspended = inside && oracle.attests_suspension();
                if interruptible && inside {
                    covered.insert(index);
                    m.interrupted_inside(suspended);
                } else {
                    let arr = g.traverse(cur, port);
                    cur = arr.node;
                    covered.insert(index);
                    let at_node = oracle.observe_node(cur);
                    m.arrived(ArrivalReport {
                        entry: arr.entry_port,
                        degree: g.degree(cur),
                        token_inside: inside,
                        token_at_node: at_node,
                        token_suspended: suspended,
                    });
                }
            }
        }
    }
    Some(EsstOutcome {
        cost: m.cost(),
        final_node: cur,
        final_phase: m.phase(),
        phases_aborted: m.phases_aborted(),
        edges_covered: covered.len(),
        certificate: m.certificate(),
        walk_entries: m.into_walk_entries(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededUxs;
    use rv_graph::generators;

    /// Quadratic-length provider keeps ESST test runtimes reasonable; tests
    /// that rely on integrality verify it explicitly.
    fn fast_uxs() -> SeededUxs {
        SeededUxs::new(0xE557, 8).with_power(2)
    }

    #[test]
    fn esst_terminates_and_covers_ring_with_static_token() {
        let g = generators::ring(5);
        let mut oracle = StaticNodeToken { node: NodeId(2) };
        let out = run_esst(&g, fast_uxs(), NodeId(0), &mut oracle, 9 * 5 + 3)
            .expect("must terminate by phase 9n+3");
        assert_eq!(
            out.edges_covered,
            g.size(),
            "Theorem 2.1: all edges traversed"
        );
        assert!(out.cost > 0);
    }

    #[test]
    fn esst_handles_evasive_edge_token() {
        let g = generators::ring(4);
        let edge = EdgeId::new(NodeId(1), NodeId(2));
        let mut oracle = EvasiveEdgeToken { edge };
        let out =
            run_esst(&g, fast_uxs(), NodeId(0), &mut oracle, 9 * 4 + 3).expect("must terminate");
        assert_eq!(out.edges_covered, g.size());
        assert!(
            out.certificate.is_none(),
            "an unattested evasive token must never certify"
        );
    }

    /// An evasive edge token whose driver attests suspension — the
    /// standalone model of SGL's parked-forever ghost caught mid-crossing.
    struct SuspendedEdgeToken {
        edge: EdgeId,
    }
    impl TokenOracle for SuspendedEdgeToken {
        fn observe_node(&mut self, _v: NodeId) -> bool {
            false
        }
        fn observe_traversal(&mut self, edge: EdgeId, _f: NodeId) -> bool {
            edge == self.edge
        }
        fn attests_suspension(&self) -> bool {
            true
        }
    }

    /// Drives a machine with an explicit suspension policy against an
    /// oracle — `run_esst`'s loop, with the policy injectable.
    fn drive_with_policy<O: TokenOracle>(
        g: &Graph,
        start: NodeId,
        oracle: &mut O,
        policy: Option<SuspensionPolicy>,
        max_phase: u64,
    ) -> Option<(EsstMachine<SeededUxs>, NodeId)> {
        let token_at_start = oracle.observe_node(start);
        let mut m = EsstMachine::new(fast_uxs(), g.degree(start), token_at_start)
            .with_suspension_policy(policy);
        let mut cur = start;
        loop {
            if m.phase() > max_phase {
                return None;
            }
            match m.current_request() {
                Drive::Done => return Some((m, cur)),
                Drive::Traverse {
                    port,
                    interruptible,
                } => {
                    let index = g.edge_index_at(cur, port);
                    let inside = oracle.observe_traversal(g.edge_id(index), cur);
                    let suspended = inside && oracle.attests_suspension();
                    if interruptible && inside {
                        m.interrupted_inside(suspended);
                    } else {
                        let arr = g.traverse(cur, port);
                        cur = arr.node;
                        let at_node = oracle.observe_node(cur);
                        m.arrived(ArrivalReport {
                            entry: arr.entry_port,
                            degree: g.degree(cur),
                            token_inside: inside,
                            token_at_node: at_node,
                            token_suspended: suspended,
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn attested_suspension_certifies_and_backtracks_to_start() {
        // A permanently-suspended attested token pins every phase the way
        // the stall-trace outliers do; a small census policy must close a
        // phase with a certificate, and the recorded walk must still
        // replay back to the start node from wherever the early stop
        // landed.
        let g = generators::ring(6);
        let edge = EdgeId::new(NodeId(2), NodeId(3));
        let mut oracle = SuspendedEdgeToken { edge };
        let policy = SuspensionPolicy {
            min_sightings: 3,
            min_span: 8,
        };
        let (m, cur) = drive_with_policy(&g, NodeId(0), &mut oracle, Some(policy), 9 * 6 + 3)
            .expect("the certificate must terminate the run");
        let cert = m.certificate().expect("a certificate closed the phase");
        assert!(m.is_done());
        assert!(cert.sightings >= 3 && cert.span >= 8);
        assert_eq!(cert.phase, m.phase());
        let mut back = cur;
        let mut walk = m.walk_entries().clone();
        while let Some(entry) = walk.pop() {
            back = g.traverse(back, entry).node;
        }
        assert_eq!(back, NodeId(0), "certified stop still backtracks home");
    }

    #[test]
    fn suspension_census_resets_on_at_node_sightings() {
        // An oscillating token keeps re-parking at its endpoints; even
        // with attestation forced on and a tiny policy, the at-node
        // sightings break every streak — the certificate must not fire.
        struct AttestingOscillator(OscillatingToken);
        impl TokenOracle for AttestingOscillator {
            fn observe_node(&mut self, v: NodeId) -> bool {
                self.0.observe_node(v)
            }
            fn observe_traversal(&mut self, e: EdgeId, f: NodeId) -> bool {
                self.0.observe_traversal(e, f)
            }
            fn attests_suspension(&self) -> bool {
                true
            }
        }
        let g = generators::path(4);
        let edge = EdgeId::new(NodeId(1), NodeId(2));
        let mut oracle = AttestingOscillator(OscillatingToken::new(edge));
        let policy = SuspensionPolicy {
            min_sightings: 3,
            min_span: 8,
        };
        let (m, _) = drive_with_policy(&g, NodeId(0), &mut oracle, Some(policy), 9 * 4 + 3)
            .expect("must terminate naturally");
        assert!(
            m.certificate().is_none(),
            "a token that re-parks at nodes must never be certified suspended"
        );
    }

    #[test]
    fn census_is_free_when_it_never_fires() {
        // The same instance driven three ways — census disabled, census
        // armed at a policy this instance can never satisfy, and armed at
        // the default policy against an oracle that does not attest —
        // must produce bit-identical runs with no certificate: the
        // machinery is observable only at the moment it fires.
        let g = generators::ring(4);
        let edge = EdgeId::new(NodeId(1), NodeId(2));
        let cap = 9 * 4 + 3;
        let unreachable = SuspensionPolicy {
            min_sightings: u64::MAX,
            min_span: u64::MAX,
        };
        let disabled =
            drive_with_policy(&g, NodeId(0), &mut SuspendedEdgeToken { edge }, None, cap)
                .expect("must terminate");
        let armed_wide = drive_with_policy(
            &g,
            NodeId(0),
            &mut SuspendedEdgeToken { edge },
            Some(unreachable),
            cap,
        )
        .expect("must terminate");
        let unattested = drive_with_policy(
            &g,
            NodeId(0),
            &mut EvasiveEdgeToken { edge },
            Some(SuspensionPolicy::default()),
            cap,
        )
        .expect("must terminate");
        for (m, _) in [&disabled, &armed_wide, &unattested] {
            assert!(m.certificate().is_none());
            assert_eq!(m.cost(), disabled.0.cost());
            assert_eq!(m.phase(), disabled.0.phase());
            assert_eq!(m.walk_entries(), disabled.0.walk_entries());
        }
        assert_eq!(disabled.1, armed_wide.1);
        assert_eq!(disabled.1, unattested.1);
    }

    #[test]
    fn esst_handles_oscillating_token() {
        let g = generators::path(4);
        let edge = EdgeId::new(NodeId(1), NodeId(2));
        let mut oracle = OscillatingToken::new(edge);
        let out =
            run_esst(&g, fast_uxs(), NodeId(0), &mut oracle, 9 * 4 + 3).expect("must terminate");
        assert_eq!(out.edges_covered, g.size());
    }

    #[test]
    fn esst_with_no_token_never_terminates_within_cap() {
        // Exploration without any token is impossible (paper §2); the
        // machine must keep aborting phases.
        struct NoToken;
        impl TokenOracle for NoToken {
            fn observe_node(&mut self, _v: NodeId) -> bool {
                false
            }
            fn observe_traversal(&mut self, _e: EdgeId, _f: NodeId) -> bool {
                false
            }
        }
        let g = generators::ring(4);
        let out = run_esst(&g, fast_uxs(), NodeId(0), &mut NoToken, 15);
        assert!(out.is_none());
    }

    #[test]
    fn walk_entries_backtrack_to_start() {
        let g = generators::gnp_connected(5, 0.5, 7);
        let mut oracle = StaticNodeToken { node: NodeId(3) };
        let out = run_esst(&g, fast_uxs(), NodeId(1), &mut oracle, 9 * 5 + 3).unwrap();
        // Replaying the recorded entry ports in reverse returns to start.
        let mut cur = out.final_node;
        let mut walk = out.walk_entries;
        while let Some(entry) = walk.pop() {
            cur = g.traverse(cur, entry).node;
        }
        assert_eq!(cur, NodeId(1));
    }

    #[test]
    fn walk_log_is_exact_past_one_byte_ports() {
        // The center of star(200) has ports 0..199, so walking in and out
        // of it logs entry ports of one and two bytes. The compact log
        // must hold exactly the entry ports the driver reported, and
        // popping it must walk the agent back to where it started.
        let g = generators::star(200);
        let start = NodeId(7);
        let mut oracle = StaticNodeToken { node: NodeId(150) };
        let mut m = EsstMachine::new(fast_uxs(), g.degree(start), oracle.observe_node(start));
        let mut cur = start;
        let mut seen = Vec::new();
        while seen.len() < 20_000 {
            let Drive::Traverse { port, .. } = m.current_request() else {
                break;
            };
            let arr = g.traverse(cur, port);
            cur = arr.node;
            seen.push(arr.entry_port);
            m.arrived(ArrivalReport {
                entry: arr.entry_port,
                degree: g.degree(cur),
                token_inside: false,
                token_at_node: oracle.observe_node(cur),
                token_suspended: false,
            });
        }
        assert!(
            seen.iter().any(|p| p.0 >= 128),
            "the walk crossed wide ports"
        );
        let walk = m.walk_entries();
        assert_eq!(walk.iter().collect::<Vec<_>>(), seen);
        assert_eq!(walk.len(), seen.len());
        assert!(walk.byte_len() > walk.len());
        let mut walk = m.into_walk_entries();
        while let Some(entry) = walk.pop() {
            cur = g.traverse(cur, entry).node;
        }
        assert_eq!(cur, start);
    }

    #[test]
    fn cost_grows_with_termination_phase() {
        // Larger graphs need later phases; cost must be monotone-ish in n.
        let mut prev_cost = 0;
        for n in [4usize, 6, 8] {
            let g = generators::ring(n);
            let mut oracle = StaticNodeToken { node: NodeId(1) };
            let out = run_esst(&g, fast_uxs(), NodeId(0), &mut oracle, 9 * n as u64 + 3)
                .expect("must terminate");
            assert_eq!(out.edges_covered, g.size());
            assert!(out.cost >= prev_cost / 4, "cost collapsed unexpectedly");
            prev_cost = out.cost;
        }
    }
}
