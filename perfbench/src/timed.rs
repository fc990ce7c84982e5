//! Timing wrappers around the engine's public traits, and the
//! benchmark-side run loop that the traced pass drives them with.
//!
//! [`Timed`] implements `Behavior`, `Adversary` and `StopPolicy` by
//! delegating to the real implementation inside a [`trace::span`], so the
//! behaviour callbacks the runtime makes from inside `apply_into` and
//! `progress` nest under those spans. [`run_traced`] mirrors
//! `Runtime::run_with_policy` decision for decision (the self-tests pin
//! the outcomes bit-identical) but opens a span around each runtime call,
//! which the engine's own loop cannot do from outside.

use crate::trace::{self, Counter, Span};
use rv_graph::{NodeId, PortId};
use rv_sim::adversary::Adversary;
use rv_sim::stop::BehaviorProgress;
use rv_sim::{
    Behavior, Choice, ChoiceInfo, MeetingPlace, Progress, RunConfig, RunEnd, RunOutcome, Runtime,
    StopPolicy,
};

/// A behaviour, adversary or stop policy whose trait calls are spans.
#[derive(Clone, Debug)]
pub struct Timed<T>(pub T);

impl<B: Behavior> Behavior for Timed<B> {
    type Info = B::Info;

    fn start_node(&self) -> NodeId {
        self.0.start_node()
    }

    fn next_port(&mut self) -> Option<PortId> {
        trace::span(Span::NextPort, || self.0.next_port())
    }

    fn info(&self) -> Self::Info {
        trace::span(Span::Info, || self.0.info())
    }

    fn on_meeting(&mut self, place: MeetingPlace, peers: &[Self::Info]) {
        trace::add(Counter::Peers, peers.len() as u64);
        trace::span(Span::OnMeeting, || self.0.on_meeting(place, peers))
    }

    fn fork(&self) -> Self {
        Timed(self.0.fork())
    }

    fn progress(&self) -> BehaviorProgress {
        trace::span(Span::BehaviorProgress, || self.0.progress())
    }

    fn future_ports(&self, out: &mut Vec<PortId>, limit: usize) -> bool {
        self.0.future_ports(out, limit)
    }

    fn warm(&mut self) {
        self.0.warm()
    }
}

impl<A: Adversary + ?Sized> Adversary for Timed<Box<A>> {
    fn choose(&mut self, choices: &[ChoiceInfo], tick: u64) -> Choice {
        trace::span(Span::Choose, || self.0.choose(choices, tick))
    }
}

impl<P: StopPolicy> StopPolicy for Timed<P> {
    fn cadence(&self) -> u64 {
        self.0.cadence()
    }

    fn check(&mut self, progress: &Progress) -> Option<RunEnd> {
        trace::span(Span::StopCheck, || self.0.check(progress))
    }
}

/// Runs a fault-free runtime to its end the way `Runtime::run_with_policy`
/// does — policy check at the cadence (and before the first action), the
/// config budget as backstop, then `legal_choices_into` → `choose` →
/// `apply_into` — with a span around each runtime call. `config` must be
/// the configuration the runtime was built with (the runtime keeps it
/// private).
pub fn run_traced<B: Behavior>(
    rt: &mut Runtime<'_, B>,
    config: RunConfig,
    adversary: &mut dyn Adversary,
    policy: &mut dyn StopPolicy,
) -> RunOutcome {
    assert!(
        rt.fault_plan().is_none(),
        "the traced loop mirrors fault-free runs only"
    );
    let cadence = policy.cadence().max(1);
    let mut next_check = rt.actions();
    let mut choices = Vec::new();
    let mut meetings = Vec::new();
    let end = loop {
        if rt.actions() >= next_check {
            if rt.total_traversals() >= config.max_total_traversals {
                break RunEnd::Cutoff;
            }
            let progress = trace::span(Span::StopProgress, || rt.progress());
            if let Some(end) = policy.check(&progress) {
                break end;
            }
            next_check = rt.actions() + cadence;
        }
        meetings.clear();
        if rt.total_traversals() >= config.max_total_traversals {
            break RunEnd::Cutoff;
        }
        trace::span(Span::LegalChoices, || rt.legal_choices_into(&mut choices));
        trace::add(Counter::Choices, choices.len() as u64);
        if choices.is_empty() {
            // Without faults a choiceless state is quiescence.
            break RunEnd::AllParked;
        }
        let choice = adversary.choose(&choices, rt.actions());
        trace::span(Span::Apply, || rt.apply_into(choice, &mut meetings));
        if config.stop_on_first_meeting && !meetings.is_empty() {
            break RunEnd::Meeting;
        }
    };
    RunOutcome {
        end,
        total_traversals: rt.total_traversals(),
        per_agent: (0..rt.agent_count()).map(|i| rt.traversals(i)).collect(),
        meetings: rt.meetings().clone(),
        actions: rt.actions(),
    }
}
