#![forbid(unsafe_code)]
//! The asynchronous adversary: an exact, discrete abstraction of the
//! paper's continuous walk model (§1, "The model"), with pluggable
//! adversary strategies and forced-meeting detection.
//!
//! # The abstraction
//!
//! In the paper, an agent picks its *route* (a sequence of edges) while an
//! adversary designs the *walk* — arbitrary continuous motion along the
//! route. Only two facts about the continuum matter for meetings:
//!
//! * agents at the **same node simultaneously** have met;
//! * two agents simultaneously **inside the same edge** have met iff they
//!   travel in opposite directions, or one must pass the other
//!   (same-direction overtaking) — by the intermediate value theorem.
//!
//! So agent state reduces to `AtNode(v)` or `Inside(edge, direction)`, and
//! the adversary's continuous power reduces to choosing, at each instant,
//! which agent **starts** its next committed traversal and which **finishes**
//! its current one (plus when to **wake** sleeping agents). Meetings are
//! declared exactly when *every* continuous realisation of the chosen
//! schedule forces one:
//!
//! * `Start` into an edge occupied in the opposite direction — the two
//!   position curves must cross (meeting strictly inside the edge);
//! * `Finish` that overtakes same-direction occupants that entered earlier
//!   and have not left;
//! * `Finish` into a node where other agents stand.
//!
//! Conversely, any schedule in which none of these fire has a meeting-free
//! continuous realisation (keep same-direction gaps open), so the
//! simulation neither misses forced meetings nor invents avoidable ones.
//!
//! Agents **commit** to their next edge upon arriving at a node (based on
//! everything they know at that moment, including meetings delivered on
//! arrival); information learned while waiting at the node affects their
//! *subsequent* choices only. This matches the paper's treatment of
//! state transitions that happen "while traversing an edge" (e.g. a ghost
//! completes its current traversal before parking, which keeps the SGL
//! token inside one extended edge).
//!
//! # Forking
//!
//! [`Runtime::fork`] copies a runtime's complete **mid-run** state into an
//! independent runtime over the same graph — use it to branch execution
//! from a common prefix (the minimax search's plain enumeration) or to
//! try a suffix while keeping the original. Behaviors are copied via
//! [`Behavior::fork`] in O(state) with all accumulated context intact: no
//! prefix replay, no reconstruction. The fork keeps the config and
//! carries the fault clock, and either copy can be stepped without
//! affecting the other. A new experiment (different labels, variant, or
//! adversary seed) builds a new runtime with [`Runtime::new`].
//!
//! # Examples
//!
//! ```
//! use rv_sim::{Runtime, RunConfig, RunEnd, RvBehavior, adversary::RoundRobin};
//! use rv_core::Label;
//! use rv_explore::SeededUxs;
//! use rv_graph::{generators, NodeId};
//!
//! let g = generators::ring(6);
//! let uxs = SeededUxs::default();
//! let agents = vec![
//!     RvBehavior::new(&g, uxs, NodeId(0), Label::new(2).unwrap()),
//!     RvBehavior::new(&g, uxs, NodeId(3), Label::new(5).unwrap()),
//! ];
//! let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous());
//! let outcome = rt.run(&mut RoundRobin::new());
//! assert!(matches!(outcome.end, RunEnd::Meeting));
//! ```

pub mod adversary;
mod behavior;
pub mod fault;
mod meeting;
mod memo;
pub mod minimax;
mod runtime;
pub mod stop;

pub use behavior::{Behavior, NaiveBehavior, RvBehavior, ScriptBehavior, SpecBehavior};
pub use fault::{CrashFault, FaultPlan, FaultProfile};
pub use meeting::{AgentSet, AgentSetIter, Meeting, MeetingPlace, MeetingTally};
pub use memo::MemoStats;
pub use minimax::{search_worst_case, SearchOptions, SearchReport};
pub use runtime::{ActionKind, Choice, ChoiceInfo, Place, RunConfig, RunEnd, RunOutcome, Runtime};
pub use stop::{
    AdaptiveThreshold, BehaviorProgress, DivergenceDetector, Progress, StarvationCensus,
    StarvationReport, StopPolicy, SuspensionReport,
};
