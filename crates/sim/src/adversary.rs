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
        // One pass: the first wake in slice order wins at once; otherwise
        // rotate to the smallest agent index >= next, else wrap to the
        // smallest index. Agents are unique, so the rotation does not
        // depend on the order of the choices.
        let (mut at_or_after, mut smallest): (Option<Choice>, Option<Choice>) = (None, None);
        for c in choices {
            let choice = c.choice;
            if choice.kind == ActionKind::Wake {
                return choice;
            }
            if choice.agent >= self.next && at_or_after.is_none_or(|b| choice.agent < b.agent) {
                at_or_after = Some(choice);
            }
            if smallest.is_none_or(|b| choice.agent < b.agent) {
                smallest = Some(choice);
            }
        }
        let pick = at_or_after.or(smallest).expect("choices non-empty");
        self.next = pick.agent + 1;
        pick
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
        // `tick mod len`, dividing only when it must: the protocol cells
        // offer 1.8 choices per step on average.
        let i = match choices.len() {
            1 => 0,
            2 => tick as usize & 1,
            n => tick as usize % n,
        };
        choices[i].choice
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `RoundRobin::choose` as it was before its one-pass rewrite,
    /// verbatim, over an explicit `next`.
    fn round_robin_reference(next: &mut usize, choices: &[ChoiceInfo]) -> Choice {
        if let Some(w) = choices.iter().find(|c| c.choice.kind == ActionKind::Wake) {
            return w.choice;
        }
        // Rotate: first choice whose agent index >= next, else wrap.
        let pick = choices
            .iter()
            .filter(|c| c.choice.agent >= *next)
            .min_by_key(|c| c.choice.agent)
            .or_else(|| choices.iter().min_by_key(|c| c.choice.agent))
            .expect("choices non-empty");
        *next = pick.choice.agent + 1;
        pick.choice
    }

    /// `EagerMeet::choose` as it was before it stopped dividing for one
    /// or two choices, verbatim.
    fn eager_meet_reference(choices: &[ChoiceInfo], tick: u64) -> Choice {
        if let Some(c) = choices.iter().find(|c| c.causes_meeting) {
            return c.choice;
        }
        choices[tick as usize % choices.len()].choice
    }

    /// SplitMix64: the random stream of the pick walks.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Which branches a pick walk took.
    #[derive(Default)]
    struct PickCoverage {
        wakes: u64,
        wraps: u64,
        eager_fallbacks: [u64; 3],
    }

    /// Writes a random legal choice list into `out`: 1 to `team` choices
    /// for distinct agents below `team`, in shuffled order, with random
    /// kinds and meeting flags (a wake never causes a meeting). Lists
    /// differ in how often they hold wakes and meetings, so every branch
    /// of both strategies is reached.
    fn random_choices(rng: &mut u64, team: usize, out: &mut Vec<ChoiceInfo>) {
        let len = 1 + splitmix(rng) as usize % team;
        let wake_odds = [0, 16, 2][splitmix(rng) as usize % 3];
        let meet_odds = [0, 8, 2][splitmix(rng) as usize % 3];
        // A partial Fisher–Yates shuffle of the team draws the agents.
        let mut agents: Vec<usize> = (0..team).collect();
        out.clear();
        for i in 0..len {
            let j = i + splitmix(rng) as usize % (team - i);
            agents.swap(i, j);
            let wake = wake_odds > 0 && splitmix(rng).is_multiple_of(wake_odds);
            let kind = match (wake, splitmix(rng) % 2) {
                (true, _) => ActionKind::Wake,
                (false, 0) => ActionKind::Start,
                (false, _) => ActionKind::Finish,
            };
            let causes_meeting = !wake && meet_odds > 0 && splitmix(rng).is_multiple_of(meet_odds);
            out.push(ChoiceInfo {
                choice: Choice {
                    agent: agents[i],
                    kind,
                },
                causes_meeting,
            });
        }
    }

    /// Drives a `RoundRobin` and an `EagerMeet` through 200 calls on
    /// random choice lists of one team and random ticks, and checks each
    /// pick, and `RoundRobin::next` after each call, against the
    /// reference bodies.
    fn pick_walk(seed: u64, coverage: &mut PickCoverage) -> Result<(), TestCaseError> {
        let mut rng = seed;
        let team = 1 + splitmix(&mut rng) as usize % 64;
        let (mut rr, mut reference_next) = (RoundRobin::new(), 0);
        let mut eager = EagerMeet::new();
        let mut choices = Vec::new();
        for call in 0..200 {
            random_choices(&mut rng, team, &mut choices);
            let tick = match splitmix(&mut rng) % 2 {
                0 => splitmix(&mut rng) % 1000,
                _ => splitmix(&mut rng),
            };
            let expected = round_robin_reference(&mut reference_next, &choices);
            let before = rr.next;
            let got = rr.choose(&choices, tick);
            prop_assert_eq!(got, expected, "round-robin pick, call {}", call);
            prop_assert_eq!(rr.next, reference_next, "round-robin next, call {}", call);
            if got.kind == ActionKind::Wake {
                coverage.wakes += 1;
            } else if got.agent < before {
                coverage.wraps += 1;
            }
            let expected = eager_meet_reference(&choices, tick);
            prop_assert_eq!(
                eager.choose(&choices, tick),
                expected,
                "eager pick, call {}",
                call
            );
            if !choices.iter().any(|c| c.causes_meeting) {
                coverage.eager_fallbacks[choices.len().min(3) - 1] += 1;
            }
        }
        Ok(())
    }

    #[test]
    fn pick_walks_reach_every_branch() {
        let mut coverage = PickCoverage::default();
        for seed in 0..64 {
            pick_walk(seed, &mut coverage).expect("pick walk");
        }
        assert!(coverage.wakes > 100, "{} wakes", coverage.wakes);
        assert!(coverage.wraps > 100, "{} wraps", coverage.wraps);
        for (i, &n) in coverage.eager_fallbacks.iter().enumerate() {
            assert!(n > 100, "{n} eager fallbacks over {} choices", i + 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random call sequences: `RoundRobin` and `EagerMeet` pick exactly
        /// what their reference bodies pick, and `RoundRobin::next` keeps
        /// in step (see `pick_walk`).
        #[test]
        fn picks_match_the_reference_bodies(seed in any::<u64>()) {
            pick_walk(seed, &mut PickCoverage::default())?;
        }
    }
}
