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
use crate::runtime::{EdgeOcc, Place, RuntimeSnapshot, Slot};
use crate::ScriptBehavior;
use rv_graph::{Graph, NodeId, PortId};
use serde::Serialize;
use serde_json::Value;

/// One agent's scheduler state plus its opaque behavior payload. `Place`
/// is flattened into optionals (`at_node` for `AtNode`, `from`/`to` +
/// `inside_index` for `Inside`; the `EdgeId` is re-derived from the dense
/// index against the graph at load time).
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
    /// inside an edge; see `Slot::entered_at`). Carried verbatim so a
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
    /// Per-agent state, in slot order.
    pub agents: Vec<AgentWire>,
    /// Per-edge occupancy queues `(from_a, from_b)`, dense edge order.
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
            .slots
            .iter()
            .map(|slot| {
                let (at_node, from, to, inside_index) = match slot.place {
                    Place::AtNode(v) => (Some(v.0), None, None, None),
                    Place::Inside { from, to, .. } => {
                        (None, Some(from.0), Some(to.0), Some(slot.inside_index))
                    }
                };
                AgentWire {
                    at_node,
                    from,
                    to,
                    inside_index,
                    pending_port: slot.pending.map(|(p, _)| p.0),
                    pending_to: slot.pending.map(|(_, v)| v.0),
                    awake: slot.awake,
                    crashed: slot.crashed,
                    traversals: slot.traversals,
                    entered_at: slot.entered_at,
                    behavior: encode(&slot.behavior),
                }
            })
            .collect();
        let edges = snap
            .edges
            .iter()
            .map(|occ| (occ.from_a.clone(), occ.from_b.clone()))
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
    /// payload with `decode`. Fails (never panics) on payloads the
    /// decoder rejects, positions that do not fit `g`, more agents than
    /// [`AgentSet::CAPACITY`], or a meeting whose participant list is not
    /// at least two strictly ascending indices of snapshot agents.
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
        let mut slots = Vec::with_capacity(self.agents.len());
        for (i, a) in self.agents.iter().enumerate() {
            let (place, inside_index) = match (a.at_node, a.from, a.to, a.inside_index) {
                (Some(v), None, None, None) => {
                    if v >= g.order() {
                        return Err(format!("agent {i} stands at out-of-range node {v}"));
                    }
                    (Place::AtNode(NodeId(v)), usize::MAX)
                }
                (None, Some(from), Some(to), Some(index)) => {
                    if index >= g.size() {
                        return Err(format!("agent {i} inside out-of-range edge {index}"));
                    }
                    let edge = g.edge_id(index);
                    if (edge.a.0, edge.b.0) != (from.min(to), from.max(to)) {
                        return Err(format!("agent {i}: edge {index} does not join {from}-{to}"));
                    }
                    (
                        Place::Inside {
                            edge,
                            from: NodeId(from),
                            to: NodeId(to),
                        },
                        index,
                    )
                }
                _ => return Err(format!("agent {i} has an inconsistent place encoding")),
            };
            let pending = match (a.pending_port, a.pending_to) {
                (Some(p), Some(v)) => Some((PortId(p), NodeId(v))),
                (None, None) => None,
                _ => return Err(format!("agent {i} has a half-encoded pending move")),
            };
            slots.push(Slot {
                behavior: decode(&a.behavior).map_err(|e| format!("agent {i} behavior: {e}"))?,
                place,
                inside_index,
                pending,
                awake: a.awake,
                crashed: a.crashed,
                traversals: a.traversals,
                entered_at: a.entered_at,
            });
        }
        let edges = self
            .edges
            .iter()
            .map(|(from_a, from_b)| EdgeOcc {
                from_a: from_a.clone(),
                from_b: from_b.clone(),
            })
            .collect();
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
            slots,
            edges,
            meetings,
            actions: self.actions,
            total_traversals: self.total_traversals,
        })
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
    use crate::{RunConfig, Runtime};
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
