//! Serde-wire persistence for [`RuntimeSnapshot`]: save a frozen mid-run
//! state to JSON, load it back, and resume bit-identically.
//!
//! The vendored serde stub renders JSON but has **no generic
//! deserialisation** (its `Deserialize` is an empty marker), so the wire
//! format is an explicit, non-generic mirror of the snapshot —
//! [`SnapshotWire`] — rendered with `#[derive(Serialize)]` and parsed back
//! by hand over [`serde_json::Value`]. Behavior state crosses the wire as
//! an opaque per-agent payload string produced by a caller-supplied
//! encoder and consumed by the matching decoder, so behaviors opt into
//! persistence without the snapshot layer knowing their internals
//! ([`encode_script`]/[`decode_script`] cover [`ScriptBehavior`], the
//! durable-sweep checkpoint format's behavior of record).
//!
//! Two integer-width caveats are load-bearing:
//!
//! * the [`serde_json::Value`] parser routes numbers through `f64`, exact
//!   only below 2⁵³ — fine for action/traversal counters (budgets cap at
//!   5·10⁷) but **not** for raw 64-bit RNG states, which therefore cross
//!   the wire as decimal *strings* (see [`rand::rngs::StdRng::state`] and
//!   the adversary `rng_state` accessors);
//! * round-trip equality is asserted structurally by the proptest suite
//!   (`save → load → restore` bit-identical to an in-memory restore),
//!   not by comparing JSON texts.

use crate::behavior::Behavior;
use crate::meeting::{AgentSet, Meeting, MeetingLog, MeetingPlace};
use crate::runtime::{AgentState, EdgeOcc, Place, RuntimeSnapshot};
use crate::ScriptBehavior;
use rv_graph::{Graph, NodeId, PortId};
use serde::Serialize;
use serde_json::Value;

/// One agent's scheduler state plus its opaque behavior payload. `Place`
/// is flattened into optionals (`at_node` for `AtNode`, `from`/`to` +
/// `inside_index` for `Inside`; the `EdgeId` is re-derived from the dense
/// index against the graph at load time). The runtime's cached move
/// geometry is not on the wire: the decoder re-derives it from the place
/// and the pending move.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AgentWire {
    /// `Some(v)` iff the agent stands at node `v`.
    pub at_node: Option<usize>,
    /// Departure node when inside an edge.
    pub from: Option<usize>,
    /// Committed arrival node when inside an edge.
    pub to: Option<usize>,
    /// Dense edge index when inside an edge.
    pub inside_index: Option<usize>,
    /// Committed next move: exit port.
    pub pending_port: Option<usize>,
    /// Committed next move: arrival node.
    pub pending_to: Option<usize>,
    /// Whether the agent has been woken.
    pub awake: bool,
    /// Crash-stop fault flag (see [`crate::fault`]).
    pub crashed: bool,
    /// Completed traversals.
    pub traversals: u64,
    /// Action count at the agent's latest edge entry (meaningful iff
    /// inside an edge; see `AgentState::entered_at`). Carried verbatim so a
    /// restored run's suspension census is bit-identical.
    pub entered_at: u64,
    /// Opaque behavior payload (encoder-defined; see module docs).
    pub behavior: String,
}

/// One logged meeting on the wire.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MeetingWire {
    /// Participant indices, ascending.
    pub agents: Vec<usize>,
    /// `Some(v)` iff the meeting was at node `v`.
    pub at_node: Option<usize>,
    /// Edge endpoints (canonical order) iff the meeting was inside an edge.
    pub edge_a: Option<usize>,
    /// See `edge_a`.
    pub edge_b: Option<usize>,
    /// Cost at declaration.
    pub at_cost: u64,
    /// Action count at declaration.
    pub at_action: u64,
}

/// The non-generic wire mirror of a [`RuntimeSnapshot`]. Build with
/// [`SnapshotWire::from_snapshot`], render with [`SnapshotWire::to_json`],
/// parse with [`SnapshotWire::from_json`], and re-enter the runtime with
/// [`SnapshotWire::into_snapshot`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SnapshotWire {
    /// Per-agent state, in agent order.
    pub agents: Vec<AgentWire>,
    /// Per-edge occupancy queues `(from_a, from_b)`, dense edge order,
    /// each listing its agents eldest first. The runtime keeps a queue as
    /// links through its agent table; encoding walks the links into these
    /// lists and decoding links the lists back.
    pub edges: Vec<(Vec<usize>, Vec<usize>)>,
    /// The full meeting log, in declaration order.
    pub meetings: Vec<MeetingWire>,
    /// Adversary actions executed at the freeze point.
    pub actions: u64,
    /// Completed traversals at the freeze point.
    pub total_traversals: u64,
}

impl SnapshotWire {
    /// Flattens `snap` onto the wire, encoding each behavior with
    /// `encode`.
    pub fn from_snapshot<B: Behavior>(
        snap: &RuntimeSnapshot<B>,
        encode: impl Fn(&B) -> String,
    ) -> Self {
        let agents = snap
            .states
            .iter()
            .zip(&snap.behaviors)
            .map(|(st, behavior)| {
                let (at_node, from, to, inside_index) = match st.place {
                    Place::AtNode(v) => (Some(v.0), None, None, None),
                    Place::Inside { from, to, .. } => {
                        (None, Some(from.0), Some(to.0), Some(st.edge))
                    }
                };
                AgentWire {
                    at_node,
                    from,
                    to,
                    inside_index,
                    pending_port: st.pending.map(|(p, _)| p.0),
                    pending_to: st.pending.map(|(_, v)| v.0),
                    awake: st.awake,
                    crashed: st.crashed,
                    traversals: st.traversals,
                    entered_at: st.entered_at,
                    behavior: encode(behavior),
                }
            })
            .collect();
        let edges = snap
            .edges
            .iter()
            .map(|occ| {
                let list = |from_a| occ.queue(from_a).iter(&snap.states).collect();
                (list(true), list(false))
            })
            .collect();
        let meetings = snap
            .meetings
            .iter()
            .map(|m| {
                let (at_node, edge_a, edge_b) = match m.place {
                    MeetingPlace::Node(v) => (Some(v.0), None, None),
                    MeetingPlace::Edge(e) => (None, Some(e.a.0), Some(e.b.0)),
                };
                MeetingWire {
                    agents: m.agents.iter().collect(),
                    at_node,
                    edge_a,
                    edge_b,
                    at_cost: m.at_cost,
                    at_action: m.at_action,
                }
            })
            .collect();
        SnapshotWire {
            agents,
            edges,
            meetings,
            actions: snap.actions,
            total_traversals: snap.total_traversals,
        }
    }

    /// Renders the wire form as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("vendored serde_json::to_string is infallible")
    }

    /// Parses a document rendered by [`SnapshotWire::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = serde_json::from_str(s).map_err(|e| e.to_string())?;
        let agents = arr(&v, "agents")?
            .iter()
            .map(agent_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let edges = arr(&v, "edges")?
            .iter()
            .map(|pair| {
                let qs = pair
                    .as_array()
                    .ok_or_else(|| "edge occupancy must be a pair of queues".to_string())?;
                if qs.len() != 2 {
                    return Err("edge occupancy must be a pair of queues".to_string());
                }
                Ok((usize_list(&qs[0])?, usize_list(&qs[1])?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let meetings = arr(&v, "meetings")?
            .iter()
            .map(meeting_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SnapshotWire {
            agents,
            edges,
            meetings,
            actions: req_u64(&v, "actions")?,
            total_traversals: req_u64(&v, "total_traversals")?,
        })
    }

    /// Rebuilds a [`RuntimeSnapshot`] over `g`, decoding each behavior
    /// payload with `decode` and re-deriving each committed move's cached
    /// edge geometry. Fails (never panics) on anything a runtime could not
    /// resume from:
    ///
    /// * payloads the decoder rejects, or more agents than
    ///   [`AgentSet::CAPACITY`];
    /// * places that do not fit `g`, or a sleeping agent inside an edge;
    /// * a pending move on an agent inside an edge, through a port the
    ///   node does not have, or naming the wrong arrival node;
    /// * an edge-entry time after the snapshot's action count;
    /// * edge queues that name unknown agents, or that disagree with the
    ///   inside agents' edges and sides (every agent inside an edge is
    ///   queued exactly once, on its departure side, and nobody else is);
    /// * a meeting whose participant list is not at least two strictly
    ///   ascending indices of snapshot agents.
    pub fn into_snapshot<B: Behavior>(
        &self,
        g: &Graph,
        decode: impl Fn(&str) -> Result<B, String>,
    ) -> Result<RuntimeSnapshot<B>, String> {
        if self.edges.len() != g.size() {
            return Err(format!(
                "snapshot has {} edges, graph has {}",
                self.edges.len(),
                g.size()
            ));
        }
        if self.agents.len() > AgentSet::CAPACITY {
            return Err(format!(
                "snapshot has {} agents, a runtime holds at most {}",
                self.agents.len(),
                AgentSet::CAPACITY
            ));
        }
        let mut states = Vec::with_capacity(self.agents.len());
        let mut behaviors = Vec::with_capacity(self.agents.len());
        for (i, a) in self.agents.iter().enumerate() {
            states.push(self.agent_state(i, a, g)?);
            behaviors.push(decode(&a.behavior).map_err(|e| format!("agent {i} behavior: {e}"))?);
        }
        self.check_queues(&states)?;
        let mut edges = vec![EdgeOcc::EMPTY; self.edges.len()];
        for (occ, (from_a, from_b)) in edges.iter_mut().zip(&self.edges) {
            for (side_a, list) in [(true, from_a), (false, from_b)] {
                for &agent in list {
                    occ.queue_mut(side_a).push_back(&mut states, agent);
                }
            }
        }
        let mut meetings = MeetingLog::new();
        for (i, m) in self.meetings.iter().enumerate() {
            let place = match (m.at_node, m.edge_a, m.edge_b) {
                (Some(v), None, None) => MeetingPlace::Node(NodeId(v)),
                (None, Some(a), Some(b)) => {
                    MeetingPlace::Edge(rv_graph::EdgeId::new(NodeId(a), NodeId(b)))
                }
                _ => return Err(format!("meeting {i} has an inconsistent place encoding")),
            };
            meetings.push(Meeting {
                agents: participants(i, &m.agents, self.agents.len())?,
                place,
                at_cost: m.at_cost,
                at_action: m.at_action,
            });
        }
        Ok(RuntimeSnapshot {
            states,
            behaviors,
            edges,
            meetings,
            actions: self.actions,
            total_traversals: self.total_traversals,
        })
    }

    /// Decodes agent `i`'s scheduler state over `g`, validating its place
    /// and pending move and caching the move's edge geometry.
    fn agent_state(&self, i: usize, a: &AgentWire, g: &Graph) -> Result<AgentState, String> {
        let mut st = AgentState::asleep_at(NodeId(0));
        match (a.at_node, a.from, a.to, a.inside_index) {
            (Some(v), None, None, None) => {
                if v >= g.order() {
                    return Err(format!("agent {i} stands at out-of-range node {v}"));
                }
                st.place = Place::AtNode(NodeId(v));
            }
            (None, Some(from), Some(to), Some(index)) => {
                if index >= g.size() {
                    return Err(format!("agent {i} inside out-of-range edge {index}"));
                }
                let edge = g.edge_id(index);
                if (edge.a.0, edge.b.0) != (from.min(to), from.max(to)) {
                    return Err(format!("agent {i}: edge {index} does not join {from}-{to}"));
                }
                if !a.awake {
                    return Err(format!("agent {i} is asleep inside an edge"));
                }
                st.place = Place::Inside {
                    edge,
                    from: NodeId(from),
                    to: NodeId(to),
                };
                st.edge = index;
                st.from_a = edge.a.0 == from;
            }
            _ => return Err(format!("agent {i} has an inconsistent place encoding")),
        }
        match (st.place, a.pending_port, a.pending_to) {
            (_, None, None) => {}
            (Place::AtNode(v), Some(port), Some(to)) => {
                if port >= g.degree(v) {
                    return Err(format!(
                        "agent {i}: pending port {port} at node {} of degree {}",
                        v.0,
                        g.degree(v)
                    ));
                }
                st.commit_move(g, v, PortId(port));
                if st.pending != Some((PortId(port), NodeId(to))) {
                    return Err(format!(
                        "agent {i}: port {port} at node {} does not lead to {to}",
                        v.0
                    ));
                }
            }
            (Place::Inside { .. }, Some(_), Some(_)) => {
                return Err(format!("agent {i} has a pending move inside an edge"))
            }
            _ => return Err(format!("agent {i} has a half-encoded pending move")),
        }
        if a.entered_at > self.actions {
            return Err(format!(
                "agent {i} entered its edge at action {}, after the snapshot's {}",
                a.entered_at, self.actions
            ));
        }
        st.awake = a.awake;
        st.crashed = a.crashed;
        st.traversals = a.traversals;
        st.entered_at = a.entered_at;
        Ok(st)
    }

    /// Checks the edge queues against the decoded `states`: every queued
    /// index is a known agent inside that edge and departing from that
    /// side, queued once, and every agent inside an edge is queued.
    fn check_queues(&self, states: &[AgentState]) -> Result<(), String> {
        let mut queued = vec![false; states.len()];
        for (index, (from_a, from_b)) in self.edges.iter().enumerate() {
            for (side_a, q) in [(true, from_a), (false, from_b)] {
                for &agent in q {
                    let Some(st) = states.get(agent) else {
                        return Err(format!("edge {index} queues unknown agent {agent}"));
                    };
                    let inside = matches!(st.place, Place::Inside { .. });
                    if !inside || st.edge != index || st.from_a != side_a {
                        return Err(format!(
                            "edge {index} queues agent {agent}, which is not inside it on that side"
                        ));
                    }
                    if std::mem::replace(&mut queued[agent], true) {
                        return Err(format!("agent {agent} is queued twice"));
                    }
                }
            }
        }
        match states
            .iter()
            .zip(&queued)
            .position(|(st, &q)| matches!(st.place, Place::Inside { .. }) && !q)
        {
            Some(agent) => Err(format!("agent {agent} is inside an edge but not queued")),
            None => Ok(()),
        }
    }
}

/// Canonical wire encoding for [`ScriptBehavior`]: start node plus the
/// unplayed port tail. Inverse: [`decode_script`].
pub fn encode_script(b: &ScriptBehavior) -> String {
    let ports: Vec<usize> = b.remaining_ports().map(|p| p.0).collect();
    let mut out = String::new();
    out.push_str("{\"start\":");
    out.push_str(&b.start_node().0.to_string());
    out.push_str(",\"ports\":");
    out.push_str(&serde_json::to_string(&ports).expect("vendored to_string is infallible"));
    out.push('}');
    out
}

/// Parses a payload produced by [`encode_script`].
pub fn decode_script(s: &str) -> Result<ScriptBehavior, String> {
    let v = serde_json::from_str(s).map_err(|e| e.to_string())?;
    let start = req_u64(&v, "start")? as usize;
    let ports = usize_list(
        v.get("ports")
            .ok_or_else(|| "script payload: missing `ports`".to_string())?,
    )?;
    Ok(ScriptBehavior::new(NodeId(start), ports))
}

/// Validates meeting `i`'s participant list against a snapshot of
/// `agent_count` agents: at least two strictly ascending indices, each
/// below `agent_count` (itself at most [`AgentSet::CAPACITY`]).
fn participants(i: usize, list: &[usize], agent_count: usize) -> Result<AgentSet, String> {
    if list.len() < 2 {
        return Err(format!("meeting {i} lists fewer than two participants"));
    }
    if list.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!(
            "meeting {i} participants are not strictly ascending"
        ));
    }
    match list.iter().find(|&&a| a >= agent_count) {
        Some(a) => Err(format!(
            "meeting {i} names agent {a}, the snapshot has {agent_count}"
        )),
        None => Ok(list.iter().copied().collect()),
    }
}

fn arr<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("snapshot wire: missing array field `{key}`"))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("snapshot wire: missing integer field `{key}`"))
}

fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None => Err(format!("snapshot wire: missing field `{key}`")),
        Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("snapshot wire: field `{key}` must be an integer or null")),
    }
}

fn usize_list(v: &Value) -> Result<Vec<usize>, String> {
    v.as_array()
        .ok_or_else(|| "snapshot wire: expected an array of integers".to_string())?
        .iter()
        .map(|x| {
            x.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| "snapshot wire: non-integer in list".to_string())
        })
        .collect()
}

fn agent_from_value(v: &Value) -> Result<AgentWire, String> {
    Ok(AgentWire {
        at_node: opt_usize(v, "at_node")?,
        from: opt_usize(v, "from")?,
        to: opt_usize(v, "to")?,
        inside_index: opt_usize(v, "inside_index")?,
        pending_port: opt_usize(v, "pending_port")?,
        pending_to: opt_usize(v, "pending_to")?,
        awake: v
            .get("awake")
            .and_then(Value::as_bool)
            .ok_or_else(|| "snapshot wire: missing bool field `awake`".to_string())?,
        crashed: v
            .get("crashed")
            .and_then(Value::as_bool)
            .ok_or_else(|| "snapshot wire: missing bool field `crashed`".to_string())?,
        traversals: req_u64(v, "traversals")?,
        entered_at: req_u64(v, "entered_at")?,
        behavior: v
            .get("behavior")
            .and_then(Value::as_str)
            .ok_or_else(|| "snapshot wire: missing string field `behavior`".to_string())?
            .to_string(),
    })
}

fn meeting_from_value(v: &Value) -> Result<MeetingWire, String> {
    Ok(MeetingWire {
        agents: usize_list(
            v.get("agents")
                .ok_or_else(|| "snapshot wire: meeting missing `agents`".to_string())?,
        )?,
        at_node: opt_usize(v, "at_node")?,
        edge_a: opt_usize(v, "edge_a")?,
        edge_b: opt_usize(v, "edge_b")?,
        at_cost: req_u64(v, "at_cost")?,
        at_action: req_u64(v, "at_action")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::RoundRobin;
    use crate::{ActionKind, Choice, RunConfig, Runtime};
    use rv_graph::generators;

    fn mid_run_snapshot() -> (Graph, RuntimeSnapshot<ScriptBehavior>) {
        let g = generators::ring(6);
        let behaviors = vec![
            ScriptBehavior::new(NodeId(0), [0, 1, 0, 1, 0]),
            ScriptBehavior::new(NodeId(3), [1, 1, 0, 0, 1]),
        ];
        let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol());
        let mut choices = Vec::new();
        let mut meetings = Vec::new();
        for _ in 0..7 {
            rt.legal_choices_into(&mut choices);
            let Some(c) = choices.first() else { break };
            meetings.clear();
            rt.apply_into(c.choice, &mut meetings);
        }
        let snap = rt.snapshot();
        (generators::ring(6), snap)
    }

    #[test]
    fn wire_round_trip_restores_bit_identically() {
        let (g, snap) = mid_run_snapshot();
        let wire = SnapshotWire::from_snapshot(&snap, encode_script);
        let parsed = SnapshotWire::from_json(&wire.to_json()).expect("rendered wire must parse");
        assert_eq!(wire, parsed);
        let rebuilt = parsed
            .into_snapshot(&g, decode_script)
            .expect("wire must rebuild over the same graph");

        // Both snapshots must finish the run identically.
        let fingerprint = |s: &RuntimeSnapshot<ScriptBehavior>| {
            let mut rt = Runtime::from_snapshot(&g, s, RunConfig::protocol());
            let out = rt.run(&mut RoundRobin::new());
            format!(
                "{:?} {} {} {:?}",
                out.end, out.total_traversals, out.actions, out.meetings
            )
        };
        assert_eq!(fingerprint(&snap), fingerprint(&rebuilt));
    }

    #[test]
    fn wire_rejects_mismatched_graphs_and_garbage() {
        let (_, snap) = mid_run_snapshot();
        let wire = SnapshotWire::from_snapshot(&snap, encode_script);
        let g4 = generators::ring(4);
        assert!(wire.into_snapshot(&g4, decode_script).is_err());
        assert!(SnapshotWire::from_json("{\"agents\":[]}").is_err());
        assert!(SnapshotWire::from_json("not json").is_err());
    }

    #[test]
    fn wire_rejects_counts_beyond_exact_json_integers() {
        let (_, snap) = mid_run_snapshot();
        let mut wire = SnapshotWire::from_snapshot(&snap, encode_script);
        wire.actions = serde_json::MAX_EXACT_U64;
        let parsed = SnapshotWire::from_json(&wire.to_json()).expect("exact count parses");
        assert_eq!(parsed, wire);
        wire.actions += 2;
        assert!(
            SnapshotWire::from_json(&wire.to_json()).is_err(),
            "2^53 + 1 must not decode as 2^53"
        );
        let deep = "[".repeat(100_000);
        assert!(SnapshotWire::from_json(&deep).is_err());
    }

    /// A finished two-agent run's snapshot, with meeting 0's participant
    /// list replaced by `agents` on the wire, rebuilt over its graph.
    fn rebuild_with_participants(agents: Vec<usize>) -> Result<(), String> {
        let g = generators::ring(4);
        let behaviors = vec![
            ScriptBehavior::new(NodeId(0), [0, 0, 0]),
            ScriptBehavior::new(NodeId(2), [1, 1, 1]),
        ];
        let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol());
        rt.run(&mut RoundRobin::new());
        let mut wire = SnapshotWire::from_snapshot(&rt.snapshot(), encode_script);
        assert!(!wire.meetings.is_empty(), "the fixture must log a meeting");
        wire.meetings[0].agents = agents;
        wire.into_snapshot(&g, decode_script).map(|_| ())
    }

    #[test]
    fn wire_accepts_the_logged_participants() {
        assert_eq!(rebuild_with_participants(vec![0, 1]), Ok(()));
    }

    #[test]
    fn wire_rejects_a_meeting_of_fewer_than_two() {
        for agents in [vec![], vec![1]] {
            let err = rebuild_with_participants(agents).expect_err("too few participants");
            assert!(err.contains("fewer than two"), "{err}");
        }
    }

    #[test]
    fn wire_rejects_participants_not_strictly_ascending() {
        for agents in [vec![1, 0], vec![0, 0], vec![0, 1, 1]] {
            let err = rebuild_with_participants(agents).expect_err("unsorted participants");
            assert!(err.contains("strictly ascending"), "{err}");
        }
    }

    #[test]
    fn wire_rejects_participants_beyond_the_agent_count() {
        for agents in [vec![0, 2], vec![0, 64], vec![1, usize::MAX]] {
            let err = rebuild_with_participants(agents).expect_err("unknown participant");
            assert!(err.contains("the snapshot has 2"), "{err}");
        }
    }

    #[test]
    fn wire_rejects_more_agents_than_a_runtime_holds() {
        let (g, snap) = mid_run_snapshot();
        let mut wire = SnapshotWire::from_snapshot(&snap, encode_script);
        let extra = wire.agents[0].clone();
        wire.agents.resize(AgentSet::CAPACITY + 1, extra);
        let err = wire
            .into_snapshot(&g, decode_script)
            .expect_err("65 agents");
        assert!(err.contains("at most 64"), "{err}");
    }

    /// Two walkers on a six-ring after three actions: agent `INSIDE` has
    /// started into an edge, agent `PENDING` stands at a node (of degree
    /// 2) with a committed move.
    fn geometry_snapshot() -> (Graph, RuntimeSnapshot<ScriptBehavior>) {
        let g = generators::ring(6);
        let behaviors = vec![
            ScriptBehavior::new(NodeId(0), [1, 1]),
            ScriptBehavior::new(NodeId(3), [0, 0]),
        ];
        let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol());
        for (agent, kind) in [
            (0, ActionKind::Wake),
            (1, ActionKind::Wake),
            (0, ActionKind::Start),
        ] {
            assert!(rt.apply(Choice { agent, kind }).is_empty());
        }
        let snap = rt.snapshot();
        (generators::ring(6), snap)
    }

    /// [`geometry_snapshot`]'s wire form, mutated by `edit`, rebuilt over
    /// its graph.
    fn rebuild_with(edit: impl FnOnce(&mut SnapshotWire, &Graph)) -> Result<(), String> {
        let (g, snap) = geometry_snapshot();
        let mut wire = SnapshotWire::from_snapshot(&snap, encode_script);
        assert!(wire.agents[INSIDE].inside_index.is_some());
        assert!(wire.agents[PENDING].pending_port.is_some());
        edit(&mut wire, &g);
        wire.into_snapshot(&g, decode_script).map(|_| ())
    }

    /// The fixture's agent inside an edge, and its agent with a pending move.
    const INSIDE: usize = 0;
    const PENDING: usize = 1;

    #[test]
    fn wire_accepts_the_fixture_and_rebuilds_its_geometry() {
        assert_eq!(rebuild_with(|_, _| {}), Ok(()));
        let (g, snap) = geometry_snapshot();
        let wire = SnapshotWire::from_snapshot(&snap, encode_script);
        let back = wire
            .into_snapshot(&g, decode_script)
            .expect("fixture decodes");
        assert_eq!(back.states, snap.states, "cached edge geometry differs");
    }

    #[test]
    fn wire_rejects_a_pending_move_inside_an_edge() {
        let err = rebuild_with(|w, _| {
            w.agents[INSIDE].pending_port = Some(0);
            w.agents[INSIDE].pending_to = Some(1);
        })
        .expect_err("pending move inside an edge");
        assert!(err.contains("pending move inside an edge"), "{err}");
    }

    #[test]
    fn wire_rejects_a_pending_port_beyond_the_degree() {
        for port in [2, 3, usize::MAX] {
            let err = rebuild_with(|w, _| w.agents[PENDING].pending_port = Some(port))
                .expect_err("port out of range");
            assert!(err.contains("of degree 2"), "{err}");
        }
    }

    #[test]
    fn wire_rejects_a_pending_arrival_the_port_does_not_reach() {
        let err = rebuild_with(|w, g| {
            let a = &mut w.agents[PENDING];
            let v = NodeId(a.at_node.expect("at a node"));
            let reached = g.traverse(v, PortId(a.pending_port.expect("pending"))).node;
            a.pending_to = Some(g.traverse(reached, PortId(0)).node.0);
        })
        .expect_err("wrong arrival node");
        assert!(err.contains("does not lead to"), "{err}");
    }

    #[test]
    fn wire_rejects_an_edge_entry_after_the_snapshot() {
        let err = rebuild_with(|w, _| w.agents[INSIDE].entered_at = w.actions + 1)
            .expect_err("entered in the future");
        assert!(err.contains("after the snapshot's"), "{err}");
    }

    #[test]
    fn wire_rejects_a_sleeping_agent_inside_an_edge() {
        let err =
            rebuild_with(|w, _| w.agents[INSIDE].awake = false).expect_err("asleep inside an edge");
        assert!(err.contains("asleep inside an edge"), "{err}");
    }

    #[test]
    fn wire_rejects_queues_naming_unknown_agents() {
        for agent in [2, 64, usize::MAX] {
            let err = rebuild_with(|w, _| w.edges[0].0.push(agent)).expect_err("unknown agent");
            assert!(err.contains(&format!("unknown agent {agent}")), "{err}");
        }
    }

    /// An edit of a fixture's wire form.
    type WireEdit = fn(&mut SnapshotWire, &Graph);

    /// The fixture's inside agent's edge queue: on its own departure
    /// side, or on the opposite one.
    fn inside_queue<'w>(w: &'w mut SnapshotWire, g: &Graph, own_side: bool) -> &'w mut Vec<usize> {
        let a = &w.agents[INSIDE];
        let index = a.inside_index.expect("inside");
        let from_a = g.edge_id(index).a.0 == a.from.expect("inside");
        let (qa, qb) = &mut w.edges[index];
        if from_a == own_side {
            qa
        } else {
            qb
        }
    }

    #[test]
    fn wire_rejects_queues_that_disagree_with_the_inside_agents() {
        let cases: [(&str, WireEdit); 5] = [
            ("not queued", |w, g| {
                inside_queue(w, g, true).retain(|&a| a != INSIDE)
            }),
            ("not inside it on that side", |w, g| {
                inside_queue(w, g, true).retain(|&a| a != INSIDE);
                inside_queue(w, g, false).push(INSIDE);
            }),
            ("not inside it on that side", |w, g| {
                inside_queue(w, g, true).retain(|&a| a != INSIDE);
                let other = (w.agents[INSIDE].inside_index.expect("inside") + 1) % g.size();
                w.edges[other].0.push(INSIDE);
            }),
            ("not inside it on that side", |w, _| {
                w.edges[0].1.push(PENDING)
            }),
            ("queued twice", |w, g| inside_queue(w, g, true).push(INSIDE)),
        ];
        for (expected, edit) in cases {
            let err = rebuild_with(edit).expect_err(expected);
            assert!(err.contains(expected), "{expected}: {err}");
        }
    }

    #[test]
    fn script_payload_round_trips() {
        let b = ScriptBehavior::new(NodeId(4), [1, 0, 1]);
        let back = decode_script(&encode_script(&b)).expect("script payload must parse");
        assert_eq!(back.start_node(), NodeId(4));
        assert_eq!(
            back.remaining_ports().collect::<Vec<_>>(),
            b.remaining_ports().collect::<Vec<_>>()
        );
    }
}
