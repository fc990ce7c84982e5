//! Golden-equivalence for protocol-runtime forks under SGL contention:
//! taking a mid-run [`Runtime::fork`] and continuing **both** the fork and
//! the original runtime must be invisible — identical run outcome, meeting
//! sequence, gossip bags, outputs, and adversary RNG streams (the cloned
//! adversary continues the seeded stream mid-way).
//!
//! This is the protocol-mode counterpart of the rendezvous detour proptest
//! in `rv_sim` (`golden_equivalence.rs`): protocol runs keep going through
//! every meeting, so the fork must capture agents mid-gossip — bags,
//! phase machinery, token flags — and the meeting tally, which keeps
//! growing on both sides of the fork afterwards. The meeting sequence
//! each side declares is hashed as `Runtime::step` hands it out, the
//! prefix before the fork included.

use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{generators, Graph, NodeId};
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::adversary::{Adversary, EagerMeet, RandomAdversary};
use rv_sim::{Meeting, RunConfig, RunEnd, Runtime};

type Rt<'g> = Runtime<'g, SglBehavior<'g, SeededUxs>>;

const LABELS: [u64; 3] = [6, 9, 14];

fn team(g: &Graph) -> Vec<SglBehavior<'_, SeededUxs>> {
    let uxs = SeededUxs::quadratic();
    LABELS
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            SglBehavior::new(
                g,
                uxs,
                NodeId(i * g.order() / LABELS.len()),
                Label::new(l).unwrap(),
                l + 1000,
                SglConfig::default(),
            )
        })
        .collect()
}

/// FNV-1a-style mix for the meeting sequence (full `Debug` would be
/// megabytes).
#[derive(Clone)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
    fn push(&mut self, m: &Meeting) {
        self.write_u64(m.agents.len() as u64);
        for a in m.agents.iter() {
            self.write_u64(a as u64);
        }
        self.write_u64(m.at_cost);
        self.write_u64(m.at_action);
        self.write_u64(match m.place {
            rv_sim::MeetingPlace::Node(v) => v.0 as u64,
            rv_sim::MeetingPlace::Edge(e) => (1 << 32) | ((e.a.0 as u64) << 16) | e.b.0 as u64,
        });
    }
}

/// Steps `rt` to the end of its run (`run()` is the same loop over
/// `step`), hashing every meeting the steps declare into `h`.
fn step_to_end<A: Adversary>(rt: &mut Rt<'_>, adv: &mut A, h: &mut Fnv) -> RunEnd {
    let mut meetings = Vec::new();
    loop {
        let end = rt.step(adv, &mut meetings);
        meetings.iter().for_each(|m| h.push(m));
        if let Some(end) = end {
            return end;
        }
    }
}

/// Everything observable about a finished protocol run, as one string:
/// outcome counters, the hash of every meeting declared, and per-agent
/// protocol state (state kind, gossip bag, output set, order bound).
fn fingerprint(end: RunEnd, rt: &Rt<'_>, h: &Fnv) -> String {
    let agents: Vec<String> = (0..rt.agent_count())
        .map(|i| {
            let b = rt.behavior(i);
            format!(
                "{}:{:?} bag={:?} out={:?} e={:?}",
                b.label(),
                b.state(),
                b.bag().labels(),
                b.output().map(|s| s.iter().collect::<Vec<_>>()),
                b.order_bound(),
            )
        })
        .collect();
    let per: Vec<u64> = (0..rt.agent_count()).map(|i| rt.traversals(i)).collect();
    format!(
        "{end:?} cost={} actions={} per={per:?} meetings={}#{:016x} agents={agents:?}",
        rt.total_traversals(),
        rt.actions(),
        rt.meetings().len(),
        h.0,
    )
}

/// Runs the instance uninterrupted and returns its fingerprint + action
/// count (so detours can split strictly mid-run).
fn uninterrupted<A: Adversary>(g: &Graph, mut adv: A) -> (String, u64) {
    let mut rt = Runtime::new(g, team(g), RunConfig::protocol());
    let mut h = Fnv::new();
    let end = step_to_end(&mut rt, &mut adv, &mut h);
    (fingerprint(end, &rt, &h), rt.actions())
}

/// Steps a manual prefix of `split` actions via [`Runtime::step`] —
/// `run()`'s own loop body, so the prefix is decision-for-decision
/// identical by construction (protocol mode does *not* stop at meetings)
/// — then forks the runtime, clones the adversary, and finishes both
/// continuations, the fork's first.
fn detour<A: Adversary + Clone>(g: &Graph, mut adv: A, split: u64) -> (String, String) {
    let mut rt = Runtime::new(g, team(g), RunConfig::protocol());
    let mut prefix = Fnv::new();
    let mut meetings = Vec::new();
    for _ in 0..split {
        let end = rt.step(&mut adv, &mut meetings);
        assert!(end.is_none(), "split must be strictly mid-run");
        meetings.iter().for_each(|m| prefix.push(m));
    }
    let mut fork = rt.fork();
    let mut forked_adv = adv.clone();

    let mut h = prefix.clone();
    let end = step_to_end(&mut fork, &mut forked_adv, &mut h);
    let forked = fingerprint(end, &fork, &h);

    let mut h = prefix;
    let end = step_to_end(&mut rt, &mut adv, &mut h);
    let continued = fingerprint(end, &rt, &h);
    (continued, forked)
}

/// The detour check for one adversary over the ring(5) contention
/// instance, splitting at several points across the run (early wakes,
/// mid-run gossip, deep into the explorer phases).
fn check_detours<A: Adversary + Clone>(make_adv: impl Fn() -> A, name: &str) {
    let g = generators::ring(5);
    let (golden, actions) = uninterrupted(&g, make_adv());
    assert!(actions > 100, "instance must be non-trivial");
    for split in [1, actions / 4, actions / 2, actions - 1] {
        let (continued, forked) = detour(&g, make_adv(), split);
        assert_eq!(
            continued, golden,
            "{name}: continuing past a fork at action {split} diverged"
        );
        assert_eq!(
            forked, golden,
            "{name}: running a fork taken at action {split} diverged"
        );
    }
}

#[test]
fn fork_detour_is_invisible_under_seeded_random_contention() {
    // RandomAdversary: the fork must capture the RNG stream mid-way.
    check_detours(|| RandomAdversary::new(11), "random(11)");
}

#[test]
fn fork_detour_is_invisible_under_eager_meetings() {
    // EagerMeet maximises meeting density: every fork lands between
    // gossip exchanges and the log keeps growing on both sides.
    check_detours(EagerMeet::new, "eager-meet");
}
