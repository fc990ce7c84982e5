//! Deterministic fault injection: crash-stop agents.
//!
//! The paper's adversary controls *scheduling*; this module adds the
//! orthogonal adversary of *failure*, in the spirit of the fault-tolerant
//! rendezvous literature (crash/Byzantine gathering variants), with one
//! fault kind:
//!
//! * **Crash-stop** ([`CrashFault`]): at a given action count, an agent
//!   halts permanently wherever it is — mid-edge or at a node. Its body
//!   remains observable (it still forces meetings and its `info` is still
//!   readable by live agents crossing it), but it never acts again and its
//!   behavior receives no further deliveries.
//!
//! # Determinism contract
//!
//! A [`FaultPlan`] is plain data keyed on **action counts** — never the
//! wall clock, thread identity, or iteration order — so a faulted run is a
//! pure function of (plan, seed, schedule) and reproduces bit-identically.
//! [`FaultPlan::seeded`] derives a plan from a seed by pure integer
//! hashing (SplitMix64 finalizer), so chaos suites can name a whole fault
//! universe with one `u64`. The **empty plan is provably free**: a
//! [`crate::Runtime`] without a plan installed takes no fault branches at
//! all, and the golden suites pin that installing `FaultPlan::empty()`
//! leaves every fingerprint bit-identical.
//!
//! # Recovery semantics
//!
//! Faults never make a run *hang*: [`crate::Runtime::step`] classifies a
//! choiceless state as [`crate::RunEnd::AllCrashed`] /
//! [`crate::RunEnd::SurvivorsParked`] instead of looping. The runtime's
//! cursor into the plan (`FaultClock`) only moves forward, like the
//! action clock it follows; [`crate::Runtime::fork`] carries it as it
//! stands, so a fork meets the plan's remaining crashes at the same
//! actions as the run it copies. See `docs/FAULTS.md` for the full
//! catalogue.

use serde::Serialize;

/// A crash-stop fault: `agent` halts permanently once the runtime's action
/// counter reaches `at_action`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct CrashFault {
    /// Action count at which the crash takes effect (applied before the
    /// next decision once `actions >= at_action`).
    pub at_action: u64,
    /// Index of the crashed agent.
    pub agent: usize,
}

/// A complete, serializable fault schedule: who crashes, and when, in
/// action-count time. See the module docs for the determinism contract.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FaultPlan {
    /// Crash-stop faults, sorted by `at_action`.
    pub crashes: Vec<CrashFault>,
}

/// Shape parameters for [`FaultPlan::seeded`]: how many crashes to
/// derive, and the universe they land in.
#[derive(Clone, Copy, Debug)]
pub struct FaultProfile {
    /// Crash times are drawn uniformly from `[1, horizon_actions]`.
    pub horizon_actions: u64,
    /// Number of agents (crash targets are drawn from `0..agents`).
    pub agents: usize,
    /// Crash-stop faults to derive (at most one per agent is kept).
    pub crashes: usize,
}

/// SplitMix64 finalizer over a (seed, stream, index) triple — the pure
/// hash behind [`FaultPlan::seeded`]. No state, no clock: the i-th event
/// of a plan is a function of its coordinates alone.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The no-fault plan. Installing it is provably free (see module docs).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from an explicit crash list, sorted by time (the
    /// order the runtime's fault clock consumes it in).
    pub fn new(mut crashes: Vec<CrashFault>) -> Self {
        crashes.sort_by_key(|c| (c.at_action, c.agent));
        FaultPlan { crashes }
    }

    /// Derives a plan from `seed` by pure integer hashing — crash `i`'s
    /// time and target are functions of `(seed, stream, i)` only (streams
    /// 1 and 2), so the same seed and profile name the same plan on every
    /// machine and every run. Duplicate crash targets are pruned
    /// (crash-stop is idempotent; keeping the earliest makes the plan
    /// canonical).
    pub fn seeded(seed: u64, profile: &FaultProfile) -> Self {
        let horizon = profile.horizon_actions.max(1);
        let mut crashes = Vec::with_capacity(profile.crashes);
        if profile.agents > 0 {
            for i in 0..profile.crashes as u64 {
                crashes.push(CrashFault {
                    at_action: 1 + mix(seed, 1, i) % horizon,
                    agent: (mix(seed, 2, i) % profile.agents as u64) as usize,
                });
            }
        }
        let mut plan = FaultPlan::new(crashes);
        let mut seen_agents = Vec::new();
        plan.crashes.retain(|c| {
            if seen_agents.contains(&c.agent) {
                false
            } else {
                seen_agents.push(c.agent);
                true
            }
        });
        plan
    }
}

/// The runtime's cursor into a [`FaultPlan`]: which crashes have fired.
/// Owned by [`crate::Runtime`]; advanced before every decision. Pure
/// bookkeeping over action counts, which only move forward: a fork
/// copies the cursor, and nothing rewinds it.
#[derive(Clone, Debug)]
pub(crate) struct FaultClock {
    plan: FaultPlan,
    crash_cursor: usize,
}

impl FaultClock {
    /// A clock at the start of `plan`.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultClock {
            plan,
            crash_cursor: 0,
        }
    }

    /// The plan this clock walks.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advances to `action`, which is never below the last action it was
    /// advanced to, reporting each crash whose time has come via
    /// `on_crash`. Each crash is reported once; advancing to the same
    /// action again reports nothing new.
    pub(crate) fn advance(&mut self, action: u64, mut on_crash: impl FnMut(usize)) {
        while let Some(c) = self.plan.crashes.get(self.crash_cursor) {
            if c.at_action > action {
                break;
            }
            on_crash(c.agent);
            self.crash_cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> FaultProfile {
        FaultProfile {
            horizon_actions: 10_000,
            agents: 4,
            crashes: 3,
        }
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_the_seed() {
        let a = FaultPlan::seeded(42, &profile());
        let b = FaultPlan::seeded(42, &profile());
        let c = FaultPlan::seeded(43, &profile());
        assert_eq!(a, b);
        assert_ne!(a, c, "distinct seeds must name distinct plans");
        assert!(!a.crashes.is_empty());
        for w in a.crashes.windows(2) {
            assert!(w[0].at_action <= w[1].at_action, "crashes sorted");
            assert_ne!(w[0].agent, w[1].agent, "at most one crash per agent");
        }
    }

    #[test]
    fn clock_fires_crashes_once_in_time_order() {
        let plan = FaultPlan::new(vec![
            CrashFault {
                at_action: 10,
                agent: 1,
            },
            CrashFault {
                at_action: 5,
                agent: 0,
            },
        ]);
        let mut clock = FaultClock::new(plan);
        let mut fired = Vec::new();
        clock.advance(4, |a| fired.push(a));
        assert!(fired.is_empty());
        clock.advance(7, |a| fired.push(a));
        assert_eq!(fired, vec![0]);
        clock.advance(100, |a| fired.push(a));
        assert_eq!(fired, vec![0, 1]);
        clock.advance(200, |a| fired.push(a));
        assert_eq!(fired, vec![0, 1], "crashes fire exactly once going forward");
    }
}
