//! Deterministic fault injection: crash-stop agents, transient edge
//! outages, and meeting-log append loss.
//!
//! The paper's adversary controls *scheduling*; this module adds the
//! orthogonal adversary of *failure*, in the spirit of the fault-tolerant
//! rendezvous literature (crash/Byzantine gathering variants). Three fault
//! kinds, chosen because each attacks a different layer of the engine:
//!
//! * **Crash-stop** ([`CrashFault`]): at a given action count, an agent
//!   halts permanently wherever it is — mid-edge or at a node. Its body
//!   remains observable (it still forces meetings and its `info` is still
//!   readable by live agents crossing it), but it never acts again and its
//!   behavior receives no further deliveries.
//! * **Edge outage** ([`OutageFault`]): for a bounded window of actions, no
//!   agent may *start* a traversal of the edge (agents already inside may
//!   finish — the outage blocks entry, not exit).
//! * **Log loss** ([`FaultPlan::log_losses`]): a meeting declared at a
//!   listed action is delivered to its participants but the runtime's
//!   [`crate::MeetingTally`] never records it (not in the count, the last
//!   meeting or the who-met-whom table) — modelling durable-log write
//!   loss in protocol mode without perturbing agent state.
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
//! [`crate::RunEnd::SurvivorsParked`] instead of looping, and an
//! all-agents-blocked edge outage fast-forwards the action clock to the
//! earliest release instead of deadlocking. The runtime's cursor into
//! the plan (`FaultClock`) only moves forward, like the action clock it
//! follows; [`crate::Runtime::fork`] carries it as it stands, so a fork
//! meets the plan's remaining faults at the same actions as the run it
//! copies. See `docs/FAULTS.md` for the full catalogue.

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

/// A transient edge outage: starting a traversal of dense edge index
/// `edge_index` is illegal for actions in `[at_action, at_action +
/// duration_actions)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct OutageFault {
    /// Action count at which the edge goes down.
    pub at_action: u64,
    /// Dense edge index (see `rv_graph::Graph::edge_index_at`).
    pub edge_index: usize,
    /// Window length in actions; the edge is back up once `actions >=
    /// at_action + duration_actions`.
    pub duration_actions: u64,
}

/// A complete, serializable fault schedule: what fails, and when, in
/// action-count time. See the module docs for the determinism contract.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FaultPlan {
    /// Crash-stop faults, sorted by `at_action`.
    pub crashes: Vec<CrashFault>,
    /// Edge outages, sorted by `at_action`.
    pub outages: Vec<OutageFault>,
    /// Actions whose meeting-log append is lost, sorted ascending.
    pub log_losses: Vec<u64>,
}

/// Shape parameters for [`FaultPlan::seeded`]: how many faults of each
/// kind to derive, and the universe they land in.
#[derive(Clone, Copy, Debug)]
pub struct FaultProfile {
    /// Fault event times are drawn uniformly from `[1, horizon_actions]`.
    pub horizon_actions: u64,
    /// Number of agents (crash targets are drawn from `0..agents`).
    pub agents: usize,
    /// Number of edges (outage targets are drawn from `0..edges`).
    pub edges: usize,
    /// Crash-stop faults to derive (at most one per agent is kept).
    pub crashes: usize,
    /// Edge outages to derive.
    pub outages: usize,
    /// Outage durations are drawn from `[1, max_outage_actions]`.
    pub max_outage_actions: u64,
    /// Meeting-log append losses to derive.
    pub log_losses: usize,
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

    /// `true` if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.outages.is_empty() && self.log_losses.is_empty()
    }

    /// Builds a plan from explicit fault lists, sorting each by time (the
    /// order the runtime's fault clock consumes them in).
    pub fn new(
        mut crashes: Vec<CrashFault>,
        mut outages: Vec<OutageFault>,
        mut log_losses: Vec<u64>,
    ) -> Self {
        crashes.sort_by_key(|c| (c.at_action, c.agent));
        outages.sort_by_key(|o| (o.at_action, o.edge_index));
        log_losses.sort_unstable();
        log_losses.dedup();
        FaultPlan {
            crashes,
            outages,
            log_losses,
        }
    }

    /// Derives a plan from `seed` by pure integer hashing — event `i` of
    /// each fault kind is a function of `(seed, kind, i)` only, so the
    /// same seed and profile name the same plan on every machine and
    /// every run. Duplicate crash targets are pruned (crash-stop is
    /// idempotent; keeping the earliest makes the plan canonical).
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
        crashes.sort_by_key(|c| (c.at_action, c.agent));
        let mut seen_agents = Vec::new();
        crashes.retain(|c| {
            if seen_agents.contains(&c.agent) {
                false
            } else {
                seen_agents.push(c.agent);
                true
            }
        });
        let mut outages = Vec::with_capacity(profile.outages);
        if profile.edges > 0 {
            for i in 0..profile.outages as u64 {
                outages.push(OutageFault {
                    at_action: 1 + mix(seed, 3, i) % horizon,
                    edge_index: (mix(seed, 4, i) % profile.edges as u64) as usize,
                    duration_actions: 1 + mix(seed, 5, i) % profile.max_outage_actions.max(1),
                });
            }
        }
        let log_losses = (0..profile.log_losses as u64)
            .map(|i| 1 + mix(seed, 6, i) % horizon)
            .collect();
        FaultPlan::new(crashes, outages, log_losses)
    }
}

/// The runtime's cursor into a [`FaultPlan`]: which crashes have fired,
/// which outages are live. Owned by [`crate::Runtime`]; advanced before
/// every decision. Pure bookkeeping over action counts, which only move
/// forward: a fork copies the cursor, and nothing rewinds it.
#[derive(Clone, Debug)]
pub(crate) struct FaultClock {
    plan: FaultPlan,
    crash_cursor: usize,
    outage_cursor: usize,
    /// Live outages as `(edge_index, down_until_action)` — an edge is down
    /// for actions strictly below `down_until_action`.
    active: Vec<(usize, u64)>,
}

impl FaultClock {
    /// A clock at the start of `plan`.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultClock {
            plan,
            crash_cursor: 0,
            outage_cursor: 0,
            active: Vec::new(),
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
        while let Some(o) = self.plan.outages.get(self.outage_cursor) {
            if o.at_action > action {
                break;
            }
            let until = o.at_action.saturating_add(o.duration_actions);
            if until > action {
                self.active.push((o.edge_index, until));
            }
            self.outage_cursor += 1;
        }
        self.active.retain(|&(_, until)| until > action);
    }

    /// `true` if dense edge `edge_index` is inside an outage window at
    /// `action` (valid after [`FaultClock::advance`] to that action).
    pub(crate) fn edge_down(&self, edge_index: usize, action: u64) -> bool {
        self.active
            .iter()
            .any(|&(e, until)| e == edge_index && until > action)
    }

    /// The action at which every currently-live outage on `edge_index` has
    /// released (`None` if the edge is up at `action`).
    pub(crate) fn edge_release(&self, edge_index: usize, action: u64) -> Option<u64> {
        self.active
            .iter()
            .filter(|&&(e, until)| e == edge_index && until > action)
            .map(|&(_, until)| until)
            .max()
    }

    /// `true` if the meeting-log append at `action` is scheduled to be
    /// lost.
    pub(crate) fn log_lost(&self, action: u64) -> bool {
        self.plan.log_losses.binary_search(&action).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> FaultProfile {
        FaultProfile {
            horizon_actions: 10_000,
            agents: 4,
            edges: 12,
            crashes: 3,
            outages: 5,
            max_outage_actions: 500,
            log_losses: 4,
        }
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_the_seed() {
        let a = FaultPlan::seeded(42, &profile());
        let b = FaultPlan::seeded(42, &profile());
        let c = FaultPlan::seeded(43, &profile());
        assert_eq!(a, b);
        assert_ne!(a, c, "distinct seeds must name distinct plans");
        assert!(!a.is_empty());
        for w in a.crashes.windows(2) {
            assert!(w[0].at_action <= w[1].at_action, "crashes sorted");
            assert_ne!(w[0].agent, w[1].agent, "at most one crash per agent");
        }
        for o in &a.outages {
            assert!(o.edge_index < profile().edges);
            assert!(o.duration_actions >= 1);
        }
    }

    #[test]
    fn clock_fires_crashes_once_in_time_order() {
        let plan = FaultPlan::new(
            vec![
                CrashFault {
                    at_action: 10,
                    agent: 1,
                },
                CrashFault {
                    at_action: 5,
                    agent: 0,
                },
            ],
            vec![],
            vec![],
        );
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

    #[test]
    fn clock_windows_outages() {
        let plan = FaultPlan::new(
            vec![CrashFault {
                at_action: 3,
                agent: 2,
            }],
            vec![OutageFault {
                at_action: 10,
                edge_index: 4,
                duration_actions: 5,
            }],
            vec![],
        );
        let mut clock = FaultClock::new(plan);
        let mut fired = Vec::new();
        clock.advance(9, |a| fired.push(a));
        assert_eq!(fired, vec![2]);
        assert!(!clock.edge_down(4, 9));
        clock.advance(10, |_| {});
        assert!(clock.edge_down(4, 10));
        assert_eq!(clock.edge_release(4, 10), Some(15));
        clock.advance(14, |_| {});
        assert!(clock.edge_down(4, 14));
        clock.advance(15, |_| {});
        assert!(!clock.edge_down(4, 15), "window is half-open");
    }

    #[test]
    fn log_losses_hit_exact_actions_only() {
        let plan = FaultPlan::new(vec![], vec![], vec![30, 10, 20, 20]);
        let clock = FaultClock::new(plan);
        assert!(clock.log_lost(10));
        assert!(clock.log_lost(20));
        assert!(!clock.log_lost(15));
        assert!(!clock.log_lost(0));
    }
}
