#![forbid(unsafe_code)]
//! Algorithm **SGL** (Strong Global Learning) and its four applications —
//! paper §4.
//!
//! A team of `k > 1` agents with distinct labels, placed at distinct nodes
//! of an unknown network and woken asynchronously, must each acquire the
//! labels (and initial values) of **all** agents *and know that the set is
//! complete*. From that, each agent solves:
//!
//! * **team size** — output `k`;
//! * **leader election** — output the smallest label;
//! * **perfect renaming** — adopt the rank of its own label in `{1..k}`;
//! * **gossiping** — output every agent's initial value.
//!
//! The protocol runs each agent through three states:
//!
//! * **traveller** — executes RV-asynch-poly until a meeting where either
//!   someone has heard of a smaller label (→ become a *ghost*) or a
//!   non-explorer is present (→ become an *explorer*, using the smallest
//!   non-explorer met — which becomes a ghost — as its token);
//! * **ghost** — finishes its current edge and parks forever, a
//!   semi-stationary token; outputs once told its bag is complete;
//! * **explorer** — Phase 1: procedure ESST with its token, learning an
//!   upper bound `E(n)` on the graph order; Phase 2: backtracks and resumes
//!   RV-asynch-poly until a completion threshold, aborting as soon as its
//!   bag holds a smaller label; Phase 3: a non-minimal explorer walks
//!   `R(E(n), ·)` to rejoin its token and becomes a ghost, while the
//!   globally smallest agent walks `R(E(n), ·)` collecting every ghost's
//!   bag, then walks it backwards announcing the complete label set.
//!
//! Two substitutions from the paper, recorded here: `E(n)` is
//! the ESST *termination phase* rather than its cost (both are valid
//! computable upper bounds on `n`; the phase keeps `R(E(n), ·)` walkable),
//! and the Phase-2 completion threshold `Π(E(n), |L|)` is pluggable
//! ([`SglConfig::completion_threshold`]) because the paper's `Π` is
//! astronomically large; every experiment *verifies* post-hoc the property
//! the threshold must deliver (no traveller or dormant agent remains when
//! the minimal agent enters Phase 3).

mod applications;
mod bag;
mod sgl;

pub use applications::{solve, Solutions};
pub use bag::Bag;
pub use sgl::{SglBehavior, SglConfig, SglInfo, SglPhase, SglProgress, StateKind};
