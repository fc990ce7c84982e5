//! Lazy streaming execution of trajectory specs.
//!
//! [`TrajectoryCursor`] plays any [`Spec`] as a stream of edge traversals
//! using an explicit frame stack, never materialising a trajectory
//! (`|Ω(1)|` ≈ 10²² traversals under the default provider). Memory is
//! O(nesting depth + Σ P(k)) over the live frames: a forward sweep holds
//! just a walker, a reverse sweep holds the `P(k)` entry ports of its
//! spine, and all `X` walks share one stacked replay log.
//!
//! **Agent-model honesty.** The cursor reads the graph only through
//! [`rv_graph::Graph::traverse`] — the local operation the paper grants an
//! agent — plus *recomputation* of `R(k, u)` walks from nodes the cursor has
//! itself visited (to reverse the sweeps `Y̅′`/`A̅′`). A paper agent with
//! unbounded memory would replay its own traversal log instead; since the
//! walks are deterministic, log replay and recomputation produce the same
//! route, so the cursor is an exact implementation of the agent's behaviour,
//! not an oracle shortcut.

use crate::lengths::Lengths;
use crate::spec::Spec;
use rv_arith::RepCount;
use rv_explore::{ExplorationProvider, RWalker};
use rv_graph::{Graph, NodeId, PortId};
use std::sync::Arc;

/// One executed edge traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Traversal {
    /// Node the agent left.
    pub from: NodeId,
    /// Port it left through.
    pub exit: PortId,
    /// Node it arrived at.
    pub to: NodeId,
    /// Port it entered through.
    pub entry: PortId,
}

/// What a sweep inserts at every node of its `R(k, ·)` spine:
/// `Q(k)` for `Y′` (Definition 3.3) or `Z(k)` for `A′` (Definition 3.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Inner {
    Q,
    Z,
}

/// A repetition combinator: `B` repeats `Y(k)`, `K` and `Ω` repeat `X(k)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rep {
    B,
    K,
    Omega,
}

impl Rep {
    /// The repeated body.
    pub(crate) fn body(self, k: u64) -> Spec {
        match self {
            Rep::B => Spec::Y(k),
            Rep::K | Rep::Omega => Spec::X(k),
        }
    }

    /// The repetition count, from the (shared) length memo.
    fn count<P: ExplorationProvider>(self, lengths: &Lengths<P>, k: u64) -> RepCount {
        RepCount::from(match self {
            Rep::B => lengths.b_reps(k),
            Rep::K => lengths.k_reps(k),
            Rep::Omega => lengths.omega_reps(k),
        })
    }
}

#[derive(Clone)]
pub(crate) enum Task<P> {
    /// `R(k, ·)` from the current node.
    RFwd { walker: RWalker<P> },
    /// `X(k, ·) = R R̄`: walk forward appending entry ports to the cursor's
    /// shared log, then replay (and pop) them backwards down to `base`, the
    /// log length when the walk started. The log is stacked like the
    /// frames, so a walk pushed mid-`X` leaves it as it found it.
    X {
        walker: Option<RWalker<P>>,
        base: usize,
    },
    /// `X(1)…X(k)` ascending (Q) or `X(k)…X(1)` descending (Q̄ — valid
    /// because `X` is a walk-palindrome: `rev(R R̄) = R R̄`).
    XChain { k: u64, i: u64, descending: bool },
    /// `Y(1)…Y(k)` ascending (Z) or descending (Z̄; `Y` is a palindrome too).
    YChain { k: u64, i: u64, descending: bool },
    /// Forward sweep `Y′`/`A′`: insert `inner` at every node of `R(k, v)`,
    /// streaming the spine. `spine_entry` is the port the last spine step
    /// entered by (`None` at `v`), recorded when that step executes: the
    /// inner chain in between moves the cursor's own entry port.
    SweepFwd {
        k: u64,
        inner: Inner,
        walker: RWalker<P>,
        spine_entry: Option<PortId>,
        inner_pushed: bool,
    },
    /// Reverse sweep `Y̅′`/`A̅′`: leave through the forward spine's entry
    /// ports, last first (`ports[..idx]` remain). The ports are recomputed
    /// from the forward start node and never change, so forks share them
    /// behind an `Arc`.
    SweepRev {
        k: u64,
        inner: Inner,
        ports: Arc<Vec<PortId>>,
        idx: usize,
        inner_pushed: bool,
    },
    /// `Y(k)` (`inner = Q`) or `A(k)` (`inner = Z`): forward sweep then
    /// reverse sweep from the recorded start.
    Palindrome {
        k: u64,
        inner: Inner,
        start: Option<NodeId>,
        phase: u8,
    },
    /// `rep`'s body (`Y(k)` or `X(k)`) repeated `remaining` more times.
    /// [`TrajectoryCursor::push`] stacks the first body above this frame
    /// at once, and `remaining` stays `None` until that body ends: only
    /// then is the count read from the length memo. Runs that stop inside
    /// the first body never evaluate it. The counter is native `u64` until
    /// the count exceeds `2^64` (see [`RepCount`]) — decrements dominate
    /// deep-combinator streaming.
    Repeat {
        rep: Rep,
        k: u64,
        remaining: Option<RepCount>,
    },
}

/// The frame that plays `spec`; an `X` walk is based at `log_len`.
fn task_for<P: ExplorationProvider + Clone>(spec: Spec, provider: &P, log_len: usize) -> Task<P> {
    let palindrome = |k, inner| Task::Palindrome {
        k,
        inner,
        start: None,
        phase: 0,
    };
    let repeat = |rep, k| Task::Repeat {
        rep,
        k,
        remaining: None,
    };
    match spec {
        Spec::R(k) => Task::RFwd {
            walker: RWalker::new(provider.clone(), k),
        },
        Spec::X(k) => Task::X {
            walker: Some(RWalker::new(provider.clone(), k)),
            base: log_len,
        },
        Spec::Q(k) => chain_task(Inner::Q, k, false),
        Spec::Y(k) => palindrome(k, Inner::Q),
        Spec::Z(k) => chain_task(Inner::Z, k, false),
        Spec::A(k) => palindrome(k, Inner::Z),
        Spec::B(k) => repeat(Rep::B, k),
        Spec::K(k) => repeat(Rep::K, k),
        Spec::Omega(k) => repeat(Rep::Omega, k),
    }
}

fn chain_task<P>(inner: Inner, k: u64, descending: bool) -> Task<P> {
    let i = if descending { k } else { 1 };
    match inner {
        Inner::Q => Task::XChain { k, i, descending },
        Inner::Z => Task::YChain { k, i, descending },
    }
}

/// The entry ports of `R(k, v)`, in walk order, and the node it ends at.
fn r_entry_ports<P: ExplorationProvider + Clone>(
    g: &Graph,
    provider: &P,
    k: u64,
    v: NodeId,
) -> (Vec<PortId>, NodeId) {
    let mut walker = RWalker::new(provider.clone(), k);
    let mut ports = Vec::with_capacity(walker.total_steps() as usize);
    let (mut cur, mut entry) = (v, None);
    while let Some(exit) = walker.next_exit(entry, g.degree(cur)) {
        let arr = g.traverse(cur, exit);
        ports.push(arr.entry_port);
        cur = arr.node;
        entry = Some(arr.entry_port);
    }
    (ports, cur)
}

enum Outcome {
    Yield(PortId),
    /// The task to push was stored in the caller-provided slot.
    Push,
    Pop,
}

/// What [`TrajectoryCursor::advance`] reads besides the top frame and the
/// shared `X` log.
struct Env<'a, P> {
    g: &'a Graph,
    provider: &'a P,
    lengths: &'a Lengths<P>,
    cur: NodeId,
    entry: Option<PortId>,
}

/// Streaming executor of trajectory [`Spec`]s over a graph.
///
/// Push specs with [`TrajectoryCursor::push`]; pushed specs play in LIFO
/// order (the most recently pushed plays first — callers that sequence
/// whole-algorithm phases push one spec at a time as the stack drains).
///
/// # Forking
///
/// The cursor is `Clone`, and cloning is a **fork**: the clone captures the
/// complete mid-stream state — position, entry port, the frame stack with
/// its repetition counters, the shared `X` replay log, and the warm
/// [`Lengths`] memo — in O(state), so original and clone continue with
/// bit-identical traversal streams. The simulator's runtime forks
/// (`rv_sim::Runtime::fork`) rely on this to explore schedule trees
/// without replaying trajectory prefixes.
#[derive(Clone)]
pub struct TrajectoryCursor<'g, P> {
    g: &'g Graph,
    provider: P,
    lengths: Lengths<P>,
    pub(crate) stack: Vec<Task<P>>,
    /// Entry ports of the `X` walks in flight, stacked: each `X` frame owns
    /// the entries from its `base` up.
    pub(crate) log: Vec<PortId>,
    cur: NodeId,
    entry: Option<PortId>,
    steps: u64,
    /// Exit port already decided by [`TrajectoryCursor::prime`] but not yet
    /// executed. Invariant: `Some` only while the yielding task is still on
    /// top of the stack.
    pending: Option<PortId>,
}

impl<'g, P: ExplorationProvider + Clone> TrajectoryCursor<'g, P> {
    /// Creates an idle cursor positioned at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range for `g`.
    pub fn new(g: &'g Graph, provider: P, start: NodeId) -> Self {
        assert!(start.0 < g.order(), "start node out of range");
        TrajectoryCursor {
            g,
            provider: provider.clone(),
            lengths: Lengths::new(provider),
            stack: Vec::new(),
            log: Vec::new(),
            cur: start,
            entry: None,
            steps: 0,
            pending: None,
        }
    }

    /// Current node.
    pub fn position(&self) -> NodeId {
        self.cur
    }

    /// Entry port at the current node (`None` before the first traversal).
    pub fn last_entry(&self) -> Option<PortId> {
        self.entry
    }

    /// Total traversals executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// `true` when no trajectory is pending.
    pub fn is_idle(&self) -> bool {
        self.stack.is_empty()
    }

    /// The exact-length evaluator sharing this cursor's provider.
    pub fn lengths(&self) -> &Lengths<P> {
        &self.lengths
    }

    /// Schedules `spec` to play next (LIFO relative to other pushes).
    ///
    /// # Panics
    ///
    /// Panics if a primed traversal is pending (see
    /// [`TrajectoryCursor::prime`]): the pending port belongs to the task
    /// currently on top, and a LIFO push would reorder the stream around it.
    /// Consume the pending traversal first.
    pub fn push(&mut self, spec: Spec) {
        assert!(
            self.pending.is_none(),
            "cannot push a spec while a primed traversal is pending"
        );
        let task = task_for(spec, &self.provider, self.log.len());
        // A repeat's first body starts at once, before its count is known.
        let first_body = match task {
            Task::Repeat { rep, k, .. } => Some(rep.body(k)),
            _ => None,
        };
        self.stack.push(task);
        if let Some(body) = first_body {
            self.stack
                .push(task_for(body, &self.provider, self.log.len()));
        }
    }

    /// Executes and returns the next traversal, or `None` if idle.
    pub fn next_traversal(&mut self) -> Option<Traversal> {
        let port = match self.pending.take() {
            Some(p) => p,
            None => self.advance_to_yield()?,
        };
        Some(self.execute(port))
    }

    /// Advances the frame stack to the next exit port **without executing
    /// the traversal**, and returns `true` if one is ready. A primed cursor
    /// answers its next [`TrajectoryCursor::next_traversal`] in O(1); clones
    /// inherit the expanded stack, so priming once before a fan-out of
    /// forks amortises the frame expansion (walker construction, and a
    /// repetition count when the expansion crosses the end of a repeat's
    /// first body) across all of them. Priming commutes with streaming:
    /// the traversal sequence is bit-identical either way.
    pub fn prime(&mut self) -> bool {
        if self.pending.is_none() {
            self.pending = self.advance_to_yield();
        }
        self.pending.is_some()
    }

    /// Drives push/pop outcomes until the top task yields an exit port, or
    /// the stack drains (`None`). The yielding task stays on top.
    fn advance_to_yield(&mut self) -> Option<PortId> {
        loop {
            // Decide what the top task wants; push/pop are handled inline,
            // yields are returned to the caller for execution.
            let mut push_task: Option<Task<P>> = None;
            let outcome = {
                let env = Env {
                    g: self.g,
                    provider: &self.provider,
                    lengths: &self.lengths,
                    cur: self.cur,
                    entry: self.entry,
                };
                let top = self.stack.last_mut()?;
                Self::advance(top, &env, &mut self.log, &mut push_task)
            };
            match outcome {
                Outcome::Pop => {
                    self.stack.pop();
                }
                Outcome::Push => {
                    self.stack
                        .push(push_task.expect("Push outcome always sets pending task"));
                }
                Outcome::Yield(port) => return Some(port),
            }
        }
    }

    /// Performs the traversal, updates position, and records the entry
    /// port where the yielding frame needs it: the shared log for an `X`
    /// walk's forward half, the spine entry for a forward sweep.
    fn execute(&mut self, port: PortId) -> Traversal {
        debug_assert!(port.0 < self.g.degree(self.cur), "invalid exit port");
        let from = self.cur;
        let arr = self.g.traverse(from, port);
        self.cur = arr.node;
        self.entry = Some(arr.entry_port);
        self.steps += 1;
        match self.stack.last_mut() {
            Some(Task::X {
                walker: Some(_), ..
            }) => self.log.push(arr.entry_port),
            Some(Task::SweepFwd { spine_entry, .. }) => *spine_entry = Some(arr.entry_port),
            _ => {}
        }
        Traversal {
            from,
            exit: port,
            to: arr.node,
            entry: arr.entry_port,
        }
    }

    fn advance(
        task: &mut Task<P>,
        env: &Env<'_, P>,
        log: &mut Vec<PortId>,
        push_task: &mut Option<Task<P>>,
    ) -> Outcome {
        let degree = || env.g.degree(env.cur);
        match task {
            Task::RFwd { walker } => match walker.next_exit(env.entry, degree()) {
                Some(port) => Outcome::Yield(port),
                None => Outcome::Pop,
            },
            Task::X { walker, base } => {
                if let Some(w) = walker {
                    if let Some(port) = w.next_exit(env.entry, degree()) {
                        return Outcome::Yield(port);
                    }
                    *walker = None;
                }
                if log.len() > *base {
                    Outcome::Yield(log.pop().expect("log holds this walk's entries"))
                } else {
                    Outcome::Pop
                }
            }
            Task::XChain { k, i, descending } | Task::YChain { k, i, descending } => {
                let next = if *descending {
                    if *i == 0 {
                        return Outcome::Pop;
                    }
                    let v = *i;
                    *i -= 1;
                    v
                } else {
                    if *i > *k {
                        return Outcome::Pop;
                    }
                    let v = *i;
                    *i += 1;
                    v
                };
                let spec = if matches!(task, Task::XChain { .. }) {
                    Spec::X(next)
                } else {
                    Spec::Y(next)
                };
                *push_task = Some(task_for(spec, env.provider, log.len()));
                Outcome::Push
            }
            Task::SweepFwd {
                k,
                inner,
                walker,
                spine_entry,
                inner_pushed,
            } => {
                if !*inner_pushed {
                    *inner_pushed = true;
                    *push_task = Some(chain_task(*inner, *k, false));
                    return Outcome::Push;
                }
                match walker.next_exit(*spine_entry, degree()) {
                    Some(port) => {
                        *inner_pushed = false;
                        Outcome::Yield(port)
                    }
                    None => Outcome::Pop,
                }
            }
            Task::SweepRev {
                k,
                inner,
                ports,
                idx,
                inner_pushed,
            } => {
                if !*inner_pushed {
                    *inner_pushed = true;
                    *push_task = Some(chain_task(*inner, *k, true));
                    return Outcome::Push;
                }
                if *idx > 0 {
                    *idx -= 1;
                    *inner_pushed = false;
                    Outcome::Yield(ports[*idx])
                } else {
                    Outcome::Pop
                }
            }
            Task::Palindrome {
                k,
                inner,
                start,
                phase,
            } => match *phase {
                0 => {
                    *start = Some(env.cur);
                    *phase = 1;
                    *push_task = Some(Task::SweepFwd {
                        k: *k,
                        inner: *inner,
                        walker: RWalker::new(env.provider.clone(), *k),
                        spine_entry: None,
                        inner_pushed: false,
                    });
                    Outcome::Push
                }
                1 => {
                    *phase = 2;
                    let start = start.expect("phase 0 sets start");
                    let (ports, end) = r_entry_ports(env.g, env.provider, *k, start);
                    debug_assert_eq!(
                        end, env.cur,
                        "reverse sweep must begin at the forward sweep's end"
                    );
                    *push_task = Some(Task::SweepRev {
                        k: *k,
                        inner: *inner,
                        idx: ports.len(),
                        ports: Arc::new(ports),
                        inner_pushed: false,
                    });
                    Outcome::Push
                }
                _ => Outcome::Pop,
            },
            Task::Repeat { rep, k, remaining } => {
                let remaining = remaining.get_or_insert_with(|| {
                    // The first body, pushed with this frame, just ended.
                    let mut count = rep.count(env.lengths, *k);
                    let counted = count.try_decrement();
                    debug_assert!(counted, "every repetition count is at least 1");
                    count
                });
                if !remaining.try_decrement() {
                    return Outcome::Pop;
                }
                *push_task = Some(task_for(rep.body(*k), env.provider, log.len()));
                Outcome::Push
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_arith::Big;
    use rv_explore::{SeededUxs, TableUxs};
    use rv_graph::generators;

    /// Plays `spec` to completion, asserting walk validity, and returns the
    /// number of traversals.
    fn play(g: &Graph, spec: Spec, start: NodeId) -> (u64, NodeId) {
        let uxs = SeededUxs::default();
        let mut c = TrajectoryCursor::new(g, uxs, start);
        c.push(spec);
        let mut prev = start;
        while let Some(t) = c.next_traversal() {
            assert_eq!(t.from, prev, "walk must be contiguous");
            assert_eq!(
                g.traverse(t.from, t.exit).node,
                t.to,
                "walk must follow edges"
            );
            prev = t.to;
        }
        (c.steps(), c.position())
    }

    #[test]
    fn r_length_matches_p() {
        let g = generators::ring(5);
        let uxs = SeededUxs::default();
        let (steps, _) = play(&g, Spec::R(5), NodeId(0));
        assert_eq!(steps, uxs.len(5));
    }

    #[test]
    fn x_is_closed_and_has_exact_length() {
        let g = generators::gnp_connected(8, 0.4, 9);
        for k in 1..5 {
            let uxs = SeededUxs::default();
            let lengths = Lengths::new(uxs);
            let (steps, end) = play(&g, Spec::X(k), NodeId(3));
            assert_eq!(Big::from(steps), lengths.x(k), "X({k})");
            assert_eq!(end, NodeId(3), "X({k}) must return to start");
        }
    }

    #[test]
    fn q_y_z_a_lengths_and_closure() {
        let g = generators::ring(4);
        let uxs = SeededUxs::default();
        let lengths = Lengths::new(uxs);
        for (spec, expect) in [
            (Spec::Q(3), lengths.q(3)),
            (Spec::Y(2), lengths.y(2)),
            (Spec::Z(2), lengths.z(2)),
            (Spec::A(1), lengths.a(1)),
        ] {
            let (steps, end) = play(&g, spec, NodeId(1));
            assert_eq!(Big::from(steps), expect, "{spec}");
            assert_eq!(end, NodeId(1), "{spec} must be closed");
        }
    }

    #[test]
    fn b_k_omega_lengths_with_unit_provider() {
        // With P(k) = 1 the giant combinators shrink enough to play fully.
        let g = generators::ring(3);
        let uxs = TableUxs::new(vec![vec![1]]);
        let lengths = Lengths::new(uxs.clone());
        for spec in [Spec::B(1), Spec::B(2), Spec::K(1)] {
            let mut c = TrajectoryCursor::new(&g, uxs.clone(), NodeId(0));
            c.push(spec);
            let mut steps = 0u64;
            while c.next_traversal().is_some() {
                steps += 1;
            }
            assert_eq!(Big::from(steps), lengths.of(spec), "{spec}");
            assert_eq!(c.position(), NodeId(0), "{spec} closed");
        }
    }

    #[test]
    fn omega_length_with_unit_provider() {
        // ~2.4M steps: the one end-to-end check of a lazily read Ω count.
        let g = generators::ring(3);
        let uxs = TableUxs::new(vec![vec![1]]);
        let lengths = Lengths::new(uxs.clone());
        let mut c = TrajectoryCursor::new(&g, uxs, NodeId(0));
        c.push(Spec::Omega(1));
        let mut steps = 0u64;
        while c.next_traversal().is_some() {
            steps += 1;
        }
        assert_eq!(Big::from(steps), lengths.omega(1));
    }

    #[test]
    fn sweep_reversal_returns_exactly_backwards() {
        // Y(k) = Y′ Y̅′: after Y′ the cursor sits at R(k,v)'s end; after the
        // reverse sweep it must be back at v having retraced the spine.
        let g = generators::gnp_connected(7, 0.5, 21);
        let (_, end) = play(&g, Spec::Y(3), NodeId(2));
        assert_eq!(end, NodeId(2));
    }

    #[test]
    fn interleaved_pushes_play_lifo() {
        let g = generators::ring(4);
        let mut c = TrajectoryCursor::new(&g, SeededUxs::default(), NodeId(0));
        c.push(Spec::X(1));
        c.push(Spec::X(2)); // plays first
        let lengths = Lengths::new(SeededUxs::default());
        let first_len = lengths.x(2).to_u128().unwrap() as u64;
        for _ in 0..first_len {
            c.next_traversal().unwrap();
        }
        // X(2) done, back at start; X(1) remains.
        assert_eq!(c.position(), NodeId(0));
        assert!(!c.is_idle());
        while c.next_traversal().is_some() {}
        assert_eq!(
            c.steps(),
            first_len + lengths.x(1).to_u128().unwrap() as u64
        );
    }

    #[test]
    fn cursor_is_deterministic() {
        let g = generators::random_tree(9, 77);
        let run = || {
            let mut c = TrajectoryCursor::new(&g, SeededUxs::default(), NodeId(4));
            c.push(Spec::Y(2));
            let mut v = Vec::new();
            while let Some(t) = c.next_traversal() {
                v.push((t.from, t.to));
            }
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cloned_cursor_streams_identically_from_any_point() {
        // Fork mid-stream at several depths; original and clone must
        // produce bit-identical continuations, including across Repeat
        // counter decrements and sweep reversals.
        let g = generators::gnp_connected(8, 0.4, 9);
        for split in [0u64, 1, 17, 500, 4096] {
            let mut original = TrajectoryCursor::new(&g, SeededUxs::default(), NodeId(3));
            original.push(Spec::B(2));
            for _ in 0..split {
                original.next_traversal().unwrap();
            }
            let mut fork = original.clone();
            assert_eq!(fork.position(), original.position());
            assert_eq!(fork.steps(), original.steps());
            for _ in 0..2000 {
                assert_eq!(
                    original.next_traversal(),
                    fork.next_traversal(),
                    "fork diverged after split at {split}"
                );
            }
        }
    }

    #[test]
    fn clone_does_not_perturb_the_original() {
        // Streaming the clone must leave the original untouched.
        let g = generators::ring(5);
        let mut a = TrajectoryCursor::new(&g, SeededUxs::default(), NodeId(0));
        a.push(Spec::Y(2));
        for _ in 0..10 {
            a.next_traversal().unwrap();
        }
        let reference: Vec<_> = {
            let mut probe = a.clone();
            (0..50).map(|_| probe.next_traversal()).collect()
        };
        let mut b = a.clone();
        for _ in 0..50 {
            b.next_traversal();
        }
        let got: Vec<_> = (0..50).map(|_| a.next_traversal()).collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn repeat_counters_use_the_native_fast_path() {
        // B(1) under the unit provider repeats Y(1) (10 traversals) a tiny
        // number of times. The count is unread while the first body plays;
        // once it ends, the counter holds the count less the two bodies
        // started so far, in the inline u64 variant.
        let g = generators::ring(3);
        let uxs = TableUxs::new(vec![vec![1]]);
        let mut c = TrajectoryCursor::new(&g, uxs, NodeId(0));
        c.push(Spec::B(1));
        let counter = |c: &TrajectoryCursor<'_, TableUxs>| match c.stack.first() {
            Some(Task::Repeat { remaining, .. }) => remaining.clone(),
            _ => panic!("expected a Repeat frame at the bottom"),
        };
        assert_eq!(counter(&c), None, "the count is read lazily");
        let body = c.lengths().y(1).to_u128().unwrap();
        for _ in 0..body {
            c.next_traversal().unwrap();
        }
        assert_eq!(counter(&c), None, "still unread at the body's last step");
        assert!(c.prime());
        let remaining = counter(&c).expect("read when the first body ended");
        assert!(
            !remaining.is_spilled(),
            "small repetition counts stay inline"
        );
        assert_eq!(remaining.to_big() + 2u64, c.lengths().b_reps(1));
    }

    #[test]
    fn idle_cursor_yields_none() {
        let g = generators::ring(3);
        let mut c = TrajectoryCursor::new(&g, SeededUxs::default(), NodeId(0));
        assert!(c.is_idle());
        assert_eq!(c.next_traversal(), None);
        assert_eq!(c.steps(), 0);
    }
}
