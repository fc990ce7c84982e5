#![forbid(unsafe_code)]
//! Anonymous port-numbered networks.
//!
//! This crate implements the network model of *How to Meet Asynchronously at
//! Polynomial Cost* (§1, "The model"): a finite simple undirected connected
//! graph whose nodes carry **no identifiers**, but where the edges incident
//! to a node `v` of degree `d` are locally labeled with distinct **port
//! numbers** `0..d`. Port numbering is local: an edge `{u, v}` has two
//! unrelated port numbers, one at `u` and one at `v`.
//!
//! Agents navigating such a network can only observe, at each node, the
//! degree of the node and the port by which they entered; this crate exposes
//! exactly that interface ([`Graph::degree`], [`Graph::traverse`]) plus
//! whole-graph accessors used by the simulator and test harnesses (which, of
//! course, *do* see node identities).
//!
//! # Examples
//!
//! ```
//! use rv_graph::{generators, Graph, NodeId, PortId};
//!
//! let g: Graph = generators::ring(6);
//! assert_eq!(g.order(), 6);
//! assert_eq!(g.size(), 6);
//! // Walking out of node 0 through port 0 lands somewhere with an entry port.
//! let arrival = g.traverse(NodeId(0), PortId(0));
//! assert_eq!(g.degree(arrival.node), 2);
//! ```

mod automorphism;
mod builder;
mod edgeset;
pub mod generators;
mod graph;
mod names;
mod portlog;
pub mod properties;
mod validate;

pub use automorphism::{Automorphisms, MAX_GROUP};
pub use builder::{BuildError, GraphBuilder};
pub use edgeset::EdgeSet;
pub use graph::{Arrival, EdgeId, Graph, NodeId, PortId};
pub use names::GraphFamily;
pub use portlog::{PortLog, PortLogIter};
pub use validate::{validate, ValidationError};
