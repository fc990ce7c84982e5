//! Adversary strategies.
//!
//! The paper's adversary controls agent speed arbitrarily; in the abstract
//! scheduler that power is the choice of which legal action to apply next
//! (see crate docs). Different strategies probe different corners of that
//! power:
//!
//! * [`RoundRobin`] — fair interleaving (the "no adversary" reference);
//! * [`RandomAdversary`] — seeded random interleavings;
//! * [`Lazy`] — freezes one agent for as long as legally possible, the
//!   classical worst case for rendezvous (the moving agent must find a
//!   stationary one);
//! * [`GreedyAvoid`] — postpones every avoidable meeting, the strongest
//!   polynomial-time heuristic for delaying rendezvous;
//! * [`EagerMeet`] — takes meetings as soon as possible (lower-bound
//!   reference).

use crate::runtime::{ActionKind, Choice, ChoiceInfo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scheduling strategy: picks one of the currently legal choices.
pub trait Adversary {
    /// Chooses among `choices` (guaranteed non-empty); `tick` is the global
    /// action counter, usable for rotation.
    fn choose(&mut self, choices: &[ChoiceInfo], tick: u64) -> Choice;
}

/// Wakes everyone immediately, then rotates through agents fairly,
/// finishing started traversals before starting new ones.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates the fair scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary for RoundRobin {
    fn choose(&mut self, choices: &[ChoiceInfo], _tick: u64) -> Choice {
        if let Some(w) = choices.iter().find(|c| c.choice.kind == ActionKind::Wake) {
            return w.choice;
        }
        // Rotate: first choice whose agent index >= next, else wrap.
        let pick = choices
            .iter()
            .filter(|c| c.choice.agent >= self.next)
            .min_by_key(|c| c.choice.agent)
            .or_else(|| choices.iter().min_by_key(|c| c.choice.agent))
            .expect("choices non-empty");
        self.next = pick.choice.agent + 1;
        pick.choice
    }
}

/// Seeded uniformly random choices (wakes agents only when chosen).
#[derive(Clone, Debug)]
pub struct RandomAdversary {
    rng: StdRng,
}

impl RandomAdversary {
    /// Creates the strategy from a seed (runs are reproducible).
    pub fn new(seed: u64) -> Self {
        RandomAdversary {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for RandomAdversary {
    fn choose(&mut self, choices: &[ChoiceInfo], _tick: u64) -> Choice {
        choices[self.rng.gen_range(0..choices.len())].choice
    }
}

/// Freezes one victim agent: never schedules it while any other agent has a
/// legal action (and wakes it last). The rendezvous guarantee must then be
/// delivered entirely by the other agent's trajectory.
#[derive(Clone, Debug)]
pub struct Lazy {
    victim: usize,
}

impl Lazy {
    /// Creates the strategy freezing agent index `victim`.
    pub fn new(victim: usize) -> Self {
        Lazy { victim }
    }
}

impl Adversary for Lazy {
    fn choose(&mut self, choices: &[ChoiceInfo], _tick: u64) -> Choice {
        let non_victim = |c: &&ChoiceInfo| c.choice.agent != self.victim;
        // Prefer acting on non-victims; among them, wake first, then finish
        // before start (keeps at most one inside-edge at a time per agent).
        if let Some(c) = choices
            .iter()
            .filter(non_victim)
            .min_by_key(|c| match c.choice.kind {
                ActionKind::Wake => 0,
                ActionKind::Finish => 1,
                ActionKind::Start => 2,
            })
        {
            return c.choice;
        }
        choices[0].choice
    }
}

/// Takes any meeting-free choice while one exists, preferring (per seed) a
/// random one — the strongest meeting-postponing heuristic in this suite.
#[derive(Clone, Debug)]
pub struct GreedyAvoid {
    rng: StdRng,
}

impl GreedyAvoid {
    /// Creates the strategy from a seed.
    pub fn new(seed: u64) -> Self {
        GreedyAvoid {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for GreedyAvoid {
    fn choose(&mut self, choices: &[ChoiceInfo], _tick: u64) -> Choice {
        // Count-then-select keeps the per-step path allocation-free while
        // drawing the same RNG stream as the collect-into-Vec original.
        let safe = choices.iter().filter(|c| !c.causes_meeting).count();
        if safe == 0 {
            // Meeting unavoidable: concede the cheapest one.
            choices[0].choice
        } else {
            let pick = self.rng.gen_range(0..safe);
            choices
                .iter()
                .filter(|c| !c.causes_meeting)
                .nth(pick)
                .expect("pick < safe count")
                .choice
        }
    }
}

/// Takes a meeting-causing choice whenever one exists — the cooperative
/// scheduler, bounding rendezvous cost from below.
#[derive(Clone, Debug, Default)]
pub struct EagerMeet;

impl EagerMeet {
    /// Creates the cooperative scheduler.
    pub fn new() -> Self {
        EagerMeet
    }
}

impl Adversary for EagerMeet {
    fn choose(&mut self, choices: &[ChoiceInfo], tick: u64) -> Choice {
        if let Some(c) = choices.iter().find(|c| c.causes_meeting) {
            return c.choice;
        }
        choices[tick as usize % choices.len()].choice
    }
}

/// The adversary suite used by the experiments, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdversaryKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`RandomAdversary`].
    Random,
    /// [`Lazy`] freezing agent 0.
    LazyFirst,
    /// [`Lazy`] freezing agent 1.
    LazySecond,
    /// [`GreedyAvoid`].
    GreedyAvoid,
    /// [`EagerMeet`].
    EagerMeet,
}

impl AdversaryKind {
    /// Every strategy, in reporting order.
    pub const ALL: [AdversaryKind; 6] = [
        AdversaryKind::RoundRobin,
        AdversaryKind::Random,
        AdversaryKind::LazyFirst,
        AdversaryKind::LazySecond,
        AdversaryKind::GreedyAvoid,
        AdversaryKind::EagerMeet,
    ];

    /// Instantiates the strategy (seeded variants use `seed`).
    pub fn build(self, seed: u64) -> Box<dyn Adversary> {
        match self {
            AdversaryKind::RoundRobin => Box::new(RoundRobin::new()),
            AdversaryKind::Random => Box::new(RandomAdversary::new(seed)),
            AdversaryKind::LazyFirst => Box::new(Lazy::new(0)),
            AdversaryKind::LazySecond => Box::new(Lazy::new(1)),
            AdversaryKind::GreedyAvoid => Box::new(GreedyAvoid::new(seed)),
            AdversaryKind::EagerMeet => Box::new(EagerMeet::new()),
        }
    }
}

impl std::fmt::Display for AdversaryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AdversaryKind::RoundRobin => "round-robin",
            AdversaryKind::Random => "random",
            AdversaryKind::LazyFirst => "lazy(0)",
            AdversaryKind::LazySecond => "lazy(1)",
            AdversaryKind::GreedyAvoid => "greedy-avoid",
            AdversaryKind::EagerMeet => "eager-meet",
        };
        f.write_str(s)
    }
}
