//! The progress-aware stop-policy layer.
//!
//! A run used to know exactly one way to stop early: a flat traversal
//! cutoff. That burns the full budget on runs that stopped *telling you
//! anything* long before — a rendezvous ablation whose piece number is
//! stuck while cost explodes, or a protocol run pinned in an ESST phase by
//! an adversarially suspended token. This module separates the *decision
//! to stop* from the run loop:
//!
//! * [`Progress`] — a cheap record of everything observable about a run's
//!   advancement, assembled by [`crate::Runtime::progress`] from counters
//!   the runtime already maintains incrementally plus the agents'
//!   [`BehaviorProgress`] reports;
//! * [`StopPolicy`] — a pluggable termination rule consulted every
//!   [`StopPolicy::cadence`] adversary actions by
//!   [`crate::Runtime::run_with_policy`];
//! * the two detectors — [`DivergenceDetector`] (rendezvous piece-number
//!   stagnation) and [`AdaptiveThreshold`] (protocol-mode stall detection
//!   with a progress-scaled patience window).
//!
//! The traversal budget is not a policy: [`crate::RunConfig::with_cutoff`]
//! is checked inline before every action and wins ties under
//! [`crate::Runtime::run_with_policy`], so it backstops every detector.
//! Quiescence needs no policy either — the run loop classifies a state
//! with no legal choices as `AllParked`, `SurvivorsParked` or `AllCrashed`.
//!
//! Policies are deterministic: they read action/traversal counters, never
//! the clock, so a policy-terminated run is exactly reproducible and the
//! golden suites can assert that detector-enabled runs are bit-identical
//! to plain runs on every converging instance (a detector may change when
//! a *non-converging* run stops, never what a converging run computes).

use crate::runtime::RunEnd;

/// An agent's self-reported progress, aggregated into [`Progress`] by the
/// runtime. The default (all zeros) makes every behavior trivially
/// compatible; behaviors with a meaningful notion of advancement override
/// [`crate::Behavior::progress`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BehaviorProgress {
    /// A monotone work ordinal. For rendezvous agents this is the
    /// algorithm's **piece number** — the quantity whose stagnation-
    /// while-cost-grows defines divergence. For SGL agents it is the
    /// protocol's progress-tick counter (`SglProgress::ticks`): moves in
    /// bounded phases plus information gains, silent in the
    /// adversarially prolongable ones.
    pub metric: u64,
    /// `true` once the agent has delivered its final result (an SGL
    /// output). Rendezvous agents never report done — the *run* ends at
    /// the meeting instead.
    pub done: bool,
}

/// Everything observable about a run's advancement, assembled in
/// O(agents) by [`crate::Runtime::progress`]: the runtime's incremental
/// counters, a census of agent states, per-agent traversal extremes, and
/// the aggregated [`BehaviorProgress`] reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Progress {
    /// Adversary actions executed.
    pub actions: u64,
    /// Total completed traversals — the paper's *cost*.
    pub total_traversals: u64,
    /// Meetings declared so far.
    pub meetings: u64,
    /// Action counter at the most recent meeting (`None` before the
    /// first), giving policies the meeting *rate* for free.
    pub last_meeting_action: Option<u64>,
    /// Cost at the most recent meeting.
    pub last_meeting_cost: Option<u64>,
    /// Number of agents.
    pub agents: usize,
    /// Census: awake agents standing at a node with no committed move.
    pub parked: usize,
    /// Census: agents not yet woken.
    pub asleep: usize,
    /// Census: agents strictly inside an edge.
    pub moving: usize,
    /// Census: agents felled by crash-stop faults (see [`crate::fault`]);
    /// always 0 without a fault plan. Crashed agents leave the other
    /// buckets and the traversal extremes below.
    pub crashed: usize,
    /// Agents whose behavior reports `done` (see [`BehaviorProgress`]).
    pub done_agents: usize,
    /// Fewest completed traversals over the live agents (starvation
    /// signal; see [`StarvationCensus`]).
    pub min_agent_traversals: u64,
    /// Most completed traversals over the live agents.
    pub max_agent_traversals: u64,
    /// Index of the least-served live agent (first argmin of the
    /// traversal counts) — names the starving agent in diagnostics.
    pub min_agent: usize,
    /// Sum over agents of [`BehaviorProgress::metric`].
    pub metric_sum: u64,
    /// Max over agents of [`BehaviorProgress::metric`].
    pub metric_max: u64,
    /// Structural token-suspension census: the longest time (in actions)
    /// any live, awake agent has held its current committed crossing —
    /// `actions − entered_at` maximised over agents strictly inside an
    /// edge. Zero when nobody is mid-edge. Crashed agents are excluded: a
    /// body wedged in an edge forever is a fault, not a suspension.
    pub longest_hold_actions: u64,
    /// Index of the agent realising [`Progress::longest_hold_actions`]
    /// (0 when nobody is mid-edge) — names the suspect in diagnostics.
    pub longest_hold_agent: usize,
}

/// A pluggable termination rule for [`crate::Runtime::run_with_policy`].
///
/// The run loop consults the policy every [`StopPolicy::cadence`] actions
/// with a fresh [`Progress`] record; returning `Some(end)` stops the run
/// with that end. Policies must be deterministic functions of the records
/// they see (no clocks, no RNG) so policy-stopped runs reproduce exactly.
pub trait StopPolicy {
    /// Adversary actions between checks. Checks cost O(agents), so the
    /// default keeps the overhead invisible next to the run loop while
    /// bounding detection latency; [`DivergenceDetector`] overrides it to
    /// 256.
    fn cadence(&self) -> u64 {
        1024
    }

    /// Inspects the progress record; `Some(end)` stops the run.
    fn check(&mut self, progress: &Progress) -> Option<RunEnd>;
}

/// Rendezvous divergence: the max piece number ([`BehaviorProgress::
/// metric`]) has not advanced while cost grew past a window.
///
/// A converging rendezvous run either meets or advances its piece
/// schedule; across the scenario matrix every converging cell meets at
/// cost ≤ 278 without leaving piece 1, while the diverging ablation cells
/// (`unscaled`) burn any budget inside one piece. The default window of
/// 5 000 traversals therefore has ~18× margin over every converging cell
/// and stops diverging cells ~20× under the matrix's 100k budget.
#[derive(Clone, Copy, Debug)]
pub struct DivergenceDetector {
    /// Cost growth tolerated without a piece advance.
    pub window_traversals: u64,
    last_metric: u64,
    cost_at_advance: u64,
}

impl DivergenceDetector {
    /// Detector with an explicit window.
    pub fn new(window_traversals: u64) -> Self {
        DivergenceDetector {
            window_traversals,
            last_metric: 0,
            cost_at_advance: 0,
        }
    }
}

impl Default for DivergenceDetector {
    /// The matrix calibration: window 5 000 (see type docs).
    fn default() -> Self {
        DivergenceDetector::new(5_000)
    }
}

impl StopPolicy for DivergenceDetector {
    fn cadence(&self) -> u64 {
        256
    }

    fn check(&mut self, p: &Progress) -> Option<RunEnd> {
        // Re-prime on any non-forward movement, not just metric advances:
        // a policy value reused for a second run — or consulted after a
        // `Runtime::restore` rolled the counters back — must restart its
        // window instead of comparing across timelines (an unchecked
        // subtraction here would underflow and mis-fire instantly).
        if p.metric_max != self.last_metric || p.total_traversals < self.cost_at_advance {
            self.last_metric = p.metric_max;
            self.cost_at_advance = p.total_traversals;
            return None;
        }
        (p.total_traversals - self.cost_at_advance >= self.window_traversals)
            .then_some(RunEnd::Diverged)
    }
}

/// Protocol-mode stall detection: the run is stalled once the summed
/// progress metric has been silent for `max(base_actions, slack ×
/// actions-at-last-advance)` adversary actions **and** the silence bears
/// the structural signature of a suspended token — some live agent has
/// held its committed crossing ([`Progress::longest_hold_actions`]) for
/// at least half the silent window.
///
/// The window's two terms cover the two legitimate-silence regimes
/// measured across the SGL matrix (see `docs/STALL_TRACE.md`): early in a
/// run the longest honest silence is bounded in absolute terms (the
/// base), while late phases of large instances (a ring(16) final ESST
/// phase) are silent for a multiple of the work that preceded them (the
/// slack). The defaults are base 2 200 000 actions, slack 9.
///
/// The structural conjunct is what makes the verdict qualitative rather
/// than calibrated: every stall the matrix can produce is a token ghost
/// suspended mid-edge, so at the moment a true stall trips the window the
/// suspect's hold covers (essentially all of) the silence, while an
/// *honest* long silence — a parked token at a node, agents churning
/// through a final ESST phase — never shows any agent holding one edge
/// for millions of actions. Before this test the window alone decided,
/// and the worst honest silences sat only 1.07–1.11× under it; now a
/// window overrun without a matching hold is simply not a stall.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveThreshold {
    /// Absolute silence tolerated regardless of position.
    pub base_actions: u64,
    /// Additional patience per action of progress already banked.
    pub slack: u64,
    action_at_advance: u64,
    last_sum: u64,
    primed: bool,
    census: StarvationCensus,
    hold_agent: usize,
    hold_actions: u64,
}

impl AdaptiveThreshold {
    /// Policy with explicit base and slack.
    pub fn new(base_actions: u64, slack: u64) -> Self {
        AdaptiveThreshold {
            base_actions,
            slack,
            action_at_advance: 0,
            last_sum: 0,
            primed: false,
            census: StarvationCensus::default(),
            hold_agent: 0,
            hold_actions: 0,
        }
    }

    /// The starvation verdict accumulated over the records this policy
    /// saw — the diagnostic to print beside a `Stalled` end ("agent X
    /// silent for N actions"). `None` before the first check.
    pub fn starvation(&self) -> Option<StarvationReport> {
        self.census.report()
    }

    /// The structural-suspension half of a `Stalled` verdict: the agent
    /// with the longest live committed-crossing hold at the last check,
    /// and how long it has held it. `None` until a check has seen an
    /// agent mid-edge.
    pub fn suspension(&self) -> Option<SuspensionReport> {
        (self.hold_actions > 0).then_some(SuspensionReport {
            agent: self.hold_agent,
            held_actions: self.hold_actions,
        })
    }
}

impl Default for AdaptiveThreshold {
    /// The matrix calibration: base 2.2M actions, slack 9 (see type docs).
    fn default() -> Self {
        AdaptiveThreshold::new(2_200_000, 9)
    }
}

impl StopPolicy for AdaptiveThreshold {
    fn check(&mut self, p: &Progress) -> Option<RunEnd> {
        self.census.observe(p);
        self.hold_agent = p.longest_hold_agent;
        self.hold_actions = p.longest_hold_actions;
        // `!=` rather than `>`, and a backwards-clock check: reuse across
        // runs or a `Runtime::restore` can move both the metric and the
        // action counter backwards, and the window must restart rather
        // than underflow (see the same guard on `DivergenceDetector`).
        if !self.primed || p.metric_sum != self.last_sum || p.actions < self.action_at_advance {
            self.primed = true;
            self.last_sum = p.metric_sum;
            self.action_at_advance = p.actions;
            return None;
        }
        let window = self
            .base_actions
            .max(self.slack.saturating_mul(self.action_at_advance));
        let silence = p.actions - self.action_at_advance;
        // The hold need only cover *half* the silence, not all of it: the
        // suspect may have started its final crossing shortly after the
        // last metric tick, and both clocks then advance in lockstep, so
        // the hold approaches the silence from below without ever
        // reaching it. Half is reached after one more window at most and
        // is still far beyond any honest hold (tens of actions).
        (silence >= window && p.longest_hold_actions >= silence / 2).then_some(RunEnd::Stalled)
    }
}

/// The starvation census — the ROADMAP's "nearly free" structural signal:
/// [`Progress`] already carries the per-agent traversal extremes, so
/// tracking how long the *minimum* has been flat names the least-served
/// agent and how long the scheduler has silenced it ("agent X silent for
/// N actions"). Feed it every [`Progress`] record a policy sees (it is
/// embedded in [`AdaptiveThreshold`], whose `Stalled` verdicts it
/// annotates); read the verdict with [`StarvationCensus::report`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StarvationCensus {
    last_min: u64,
    action_at_advance: u64,
    last_actions: u64,
    agent: usize,
    primed: bool,
}

/// The structural half of an [`AdaptiveThreshold`] `Stalled` verdict: the
/// agent holding a committed crossing the longest, and for how many
/// actions — "agent X has held a committed `Finish` for N actions". See
/// [`AdaptiveThreshold::suspension`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuspensionReport {
    /// The longest-holding mid-edge agent at the last check.
    pub agent: usize,
    /// How many actions it has held its current crossing.
    pub held_actions: u64,
}

/// A starvation verdict: the least-served agent and how long the minimum
/// traversal count has been flat. See [`StarvationCensus`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StarvationReport {
    /// Index of the least-served live agent at the last observation.
    pub agent: usize,
    /// Actions since the minimum traversal count last advanced.
    pub silent_actions: u64,
    /// The flat minimum traversal count itself.
    pub traversals: u64,
}

impl StarvationCensus {
    /// Folds one progress record into the census. Backwards counter moves
    /// (policy reuse, snapshot restores) re-prime the window, same as the
    /// detectors.
    pub fn observe(&mut self, p: &Progress) {
        if !self.primed
            || p.min_agent_traversals != self.last_min
            || p.actions < self.action_at_advance
        {
            self.primed = true;
            self.last_min = p.min_agent_traversals;
            self.action_at_advance = p.actions;
        }
        self.last_actions = p.actions;
        self.agent = p.min_agent;
    }

    /// The current verdict (`None` before the first observation).
    pub fn report(&self) -> Option<StarvationReport> {
        self.primed.then_some(StarvationReport {
            agent: self.agent,
            silent_actions: self.last_actions - self.action_at_advance,
            traversals: self.last_min,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(actions: u64, cost: u64, metric_sum: u64, metric_max: u64) -> Progress {
        Progress {
            actions,
            total_traversals: cost,
            meetings: 0,
            last_meeting_action: None,
            last_meeting_cost: None,
            agents: 2,
            parked: 0,
            asleep: 0,
            moving: 1,
            crashed: 0,
            done_agents: 0,
            min_agent_traversals: 0,
            max_agent_traversals: cost,
            min_agent: 0,
            metric_sum,
            metric_max,
            // One agent mid-edge since action 0: the structural hold
            // covers any silence, so window-focused tests exercise the
            // window alone.
            longest_hold_actions: actions,
            longest_hold_agent: 0,
        }
    }

    #[test]
    fn divergence_detector_resets_on_piece_advance() {
        let mut d = DivergenceDetector::new(1_000);
        assert_eq!(d.check(&progress(0, 0, 1, 1)), None);
        assert_eq!(d.check(&progress(10, 900, 1, 1)), None);
        // Piece advance at cost 950: window restarts there.
        assert_eq!(d.check(&progress(11, 950, 2, 2)), None);
        assert_eq!(d.check(&progress(20, 1_900, 2, 2)), None);
        assert_eq!(d.check(&progress(21, 1_950, 2, 2)), Some(RunEnd::Diverged));
    }

    #[test]
    fn adaptive_threshold_scales_patience_with_position() {
        let mut a = AdaptiveThreshold::new(1_000, 4);
        // First check primes the window at the current position.
        assert_eq!(a.check(&progress(100, 0, 5, 5)), None);
        // Base window governs early: silent for 1 000 actions from 100.
        assert_eq!(a.check(&progress(1_099, 0, 5, 5)), None);
        assert_eq!(a.check(&progress(1_100, 0, 5, 5)), Some(RunEnd::Stalled));

        // Later, the slack term governs: progress at action 10 000 buys
        // a 40 000-action window.
        let mut a = AdaptiveThreshold::new(1_000, 4);
        assert_eq!(a.check(&progress(100, 0, 5, 5)), None);
        assert_eq!(a.check(&progress(10_000, 0, 6, 6)), None);
        assert_eq!(a.check(&progress(49_999, 0, 6, 6)), None);
        assert_eq!(a.check(&progress(50_000, 0, 6, 6)), Some(RunEnd::Stalled));
    }

    #[test]
    fn adaptive_threshold_needs_a_structural_hold_to_stall() {
        // A window-sized silence alone is not a stall: if no agent has
        // held a committed crossing for at least half of it, the silence
        // is honest (the token is parked at a node) and the run continues
        // no matter how far past the window it drifts.
        let mut a = AdaptiveThreshold::new(1_000, 0);
        let mut p = progress(100, 0, 5, 5);
        p.longest_hold_actions = 0;
        assert_eq!(a.check(&p), None);
        p.actions = 50_000;
        p.longest_hold_actions = 30; // a fresh, honest crossing
        assert_eq!(a.check(&p), None, "no hold, no stall");
        // The same silence with a covering hold is the real signature.
        p.longest_hold_actions = 25_000;
        p.longest_hold_agent = 2;
        assert_eq!(a.check(&p), Some(RunEnd::Stalled));
        let s = a.suspension().expect("a mid-edge agent was observed");
        assert_eq!(s.agent, 2);
        assert_eq!(s.held_actions, 25_000);
    }

    #[test]
    fn detectors_reprime_when_counters_move_backwards() {
        // Reusing a policy for a second run (or consulting it after a
        // snapshot restore) presents smaller counters; the window must
        // restart, not underflow.
        let mut d = DivergenceDetector::new(1_000);
        assert_eq!(d.check(&progress(0, 0, 5, 5)), None);
        assert_eq!(d.check(&progress(10, 900, 6, 6)), None);
        // Second run: cost rolled back below cost_at_advance (900).
        assert_eq!(d.check(&progress(1, 50, 1, 1)), None, "must re-prime");
        assert_eq!(d.check(&progress(9, 1_049, 1, 1)), None);
        assert_eq!(d.check(&progress(10, 1_050, 1, 1)), Some(RunEnd::Diverged));

        let mut a = AdaptiveThreshold::new(1_000, 0);
        assert_eq!(a.check(&progress(5_000, 0, 9, 9)), None);
        // Restore: actions rolled back, metric shrank.
        assert_eq!(a.check(&progress(100, 0, 3, 3)), None, "must re-prime");
        assert_eq!(a.check(&progress(1_099, 0, 3, 3)), None);
        assert_eq!(a.check(&progress(1_100, 0, 3, 3)), Some(RunEnd::Stalled));
    }

    #[test]
    fn starvation_census_tracks_the_flat_minimum() {
        let mut c = StarvationCensus::default();
        assert_eq!(c.report(), None, "unprimed census has no verdict");
        let mut p = progress(100, 0, 0, 0);
        p.min_agent_traversals = 4;
        p.min_agent = 1;
        c.observe(&p);
        assert_eq!(
            c.report(),
            Some(StarvationReport {
                agent: 1,
                silent_actions: 0,
                traversals: 4
            })
        );
        // The minimum stays flat while the clock runs: silence grows.
        p.actions = 900;
        c.observe(&p);
        assert_eq!(c.report().unwrap().silent_actions, 800);
        // The minimum advances: the window restarts.
        p.actions = 1_000;
        p.min_agent_traversals = 5;
        c.observe(&p);
        assert_eq!(c.report().unwrap().silent_actions, 0);
        // A backwards clock (snapshot restore / policy reuse) re-primes
        // instead of underflowing.
        p.actions = 40;
        c.observe(&p);
        assert_eq!(c.report().unwrap().silent_actions, 0);
        p.actions = 120;
        c.observe(&p);
        assert_eq!(c.report().unwrap().silent_actions, 80);
    }

    #[test]
    fn adaptive_threshold_exposes_its_census() {
        let mut a = AdaptiveThreshold::new(1_000, 2);
        assert_eq!(a.starvation(), None, "no checks yet");
        let mut p = progress(10, 0, 1, 1);
        p.min_agent_traversals = 2;
        p.min_agent = 1;
        a.check(&p);
        p.actions = 250;
        a.check(&p);
        let report = a.starvation().expect("census primed by check()");
        assert_eq!(report.agent, 1);
        assert_eq!(report.silent_actions, 240);
        assert_eq!(report.traversals, 2);
    }
}
