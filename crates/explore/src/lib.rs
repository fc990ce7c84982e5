#![forbid(unsafe_code)]
//! Graph-exploration substrate for the rendezvous algorithm.
//!
//! The paper (§2, Preliminaries) builds everything on two procedures:
//!
//! 1. **`R(k, v)`** — the trajectory obtained by applying a *universal
//!    exploration sequence* (UXS) from node `v` with parameter `k`: a fixed
//!    deterministic sequence of increments `x_1, x_2, …, x_{P(k)}` such that
//!    the walk "enter by port `p`, leave by port `(p + x_i) mod d`" traverses
//!    all edges of *any* graph of order ≤ `k`, from *any* start node, within
//!    a polynomial number `P(k)` of steps. The paper cites Reingold's
//!    log-space construction for the existence of such sequences; this crate
//!    replaces that construction (galactic constants, irrelevant to the
//!    rendezvous logic) by seeded deterministic sequences with the exact same
//!    interface, plus machinery to *verify* universality — see
//!    [`SeededUxs`] and [`verify_universal`].
//!
//! 2. **Procedure ESST** — exploration with a semi-stationary token: a
//!    single agent explores a graph of unknown size with the help of a
//!    unique token confined to one *extended edge* (an edge plus its two
//!    endpoints) but otherwise moving adversarially. See [`esst`].
//!
//! # Examples
//!
//! ```
//! use rv_explore::{SeededUxs, ExplorationProvider, r_trajectory, is_integral};
//! use rv_graph::{generators, NodeId};
//!
//! let uxs = SeededUxs::default();
//! let g = generators::ring(5);
//! // With parameter k >= order, R(k, v) covers every edge.
//! assert!(is_integral(&g, &uxs, 5, NodeId(0)));
//! let traj = r_trajectory(&g, &uxs, 5, NodeId(0));
//! assert_eq!(traj.nodes.len() as u64, uxs.len(5) + 1);
//! ```

pub mod esst;
mod integrality;
mod provider;
pub mod search;
mod trajectory_r;
mod uxs;

pub use integrality::{enumerate_port_graphs, is_integral, verify_universal, UniversalityReport};
pub use provider::{ExplorationProvider, RWalker};
pub use trajectory_r::{r_trajectory, ConcreteTrajectory};
pub use uxs::{SeededUxs, TableUxs};
