//! Property suite for the serde-wire persistence layer (`rv_sim::wire`):
//! a mid-run checkpoint that crosses the wire — snapshot to JSON and
//! back, adversary RNG state as a decimal string — must resume
//! **bit-identically** to both the uninterrupted run and an in-memory
//! `restore`, whatever the instance and wherever the cut lands.
//!
//! This is the durable-sweep checkpointer's correctness contract: a
//! SIGKILL between any two actions loses nothing but wall-clock time.
//! The decoder half of that contract is fuzzed too: corrupted participant
//! lists, pending moves, edge-entry times and edge queues are rejected
//! with an error, never a panic, and whatever is accepted can run.

use proptest::prelude::*;
use rv_graph::{generators, Graph, NodeId, PortId};
use rv_sim::adversary::{GreedyAvoid, RoundRobin};
use rv_sim::wire::{decode_script, encode_script, SnapshotWire};
use rv_sim::{RunConfig, Runtime, RuntimeSnapshot, ScriptBehavior};

/// Runs the remainder of a protocol-mode run and fingerprints every
/// observable field of the outcome.
fn finish(
    g: &rv_graph::Graph,
    snap: &RuntimeSnapshot<ScriptBehavior>,
    adv: &mut GreedyAvoid,
) -> String {
    let mut rt = Runtime::from_snapshot(g, snap, RunConfig::protocol());
    let out = rt.run(adv);
    format!(
        "{:?} cost={} actions={} per={:?} meetings={:?} rng={}",
        out.end,
        out.total_traversals,
        out.actions,
        out.per_agent,
        out.meetings,
        adv.rng_state()
    )
}

/// A real mid-run protocol-mode snapshot on the wire: four scripted
/// walkers on the leaves of a star, cut while the run is still going but
/// after its log holds eight meetings, four of them three- or four-agent
/// node contacts at the hub.
fn busy_wire() -> (rv_graph::Graph, SnapshotWire) {
    let g = generators::star(5);
    let behaviors = vec![
        ScriptBehavior::new(NodeId(1), [0, 1, 0, 2, 0, 3, 0]),
        ScriptBehavior::new(NodeId(2), [0, 2, 0, 0, 0, 3, 0]),
        ScriptBehavior::new(NodeId(3), [0, 3, 0, 1, 0, 0, 0]),
        ScriptBehavior::new(NodeId(4), [0, 0, 0, 1, 0, 2, 0]),
    ];
    let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol());
    let mut adv = RoundRobin::new();
    let mut meetings = Vec::new();
    while rt.meetings().len() < 8 {
        assert_eq!(
            rt.step(&mut adv, &mut meetings),
            None,
            "the run ended early"
        );
    }
    let wire = SnapshotWire::from_snapshot(&rt.snapshot(), encode_script);
    assert!(wire.meetings.iter().any(|m| m.agents.len() == 4));
    assert!(wire.agents.iter().any(|a| a.inside_index.is_some()));
    assert!(wire.agents.iter().any(|a| a.pending_port.is_some()));
    (g, wire)
}

/// `true` iff `agents` is a participant list a runtime with `k` agents
/// could have logged: at least two strictly ascending indices below `k`.
fn loggable(agents: &[usize], k: usize) -> bool {
    agents.len() >= 2 && agents.windows(2).all(|w| w[0] < w[1]) && agents.iter().all(|&a| a < k)
}

/// `true` iff the scheduler fields of `wire` describe a state a runtime
/// can resume: every pending move is taken at a node, through a port the
/// node has, to the node that port reaches; no edge entry postdates the
/// snapshot; and the edge queues hold exactly the agents inside edges,
/// once each, on the edge and side each one is crossing.
fn resumable(g: &Graph, wire: &SnapshotWire) -> bool {
    let mut queued = vec![0usize; wire.agents.len()];
    for (index, (from_a, from_b)) in wire.edges.iter().enumerate() {
        for (side_a, q) in [(true, from_a), (false, from_b)] {
            for &i in q {
                let Some(a) = wire.agents.get(i) else {
                    return false;
                };
                let home = a.inside_index == Some(index)
                    && a.from.map(NodeId)
                        == Some(if side_a {
                            g.edge_id(index).a
                        } else {
                            g.edge_id(index).b
                        });
                if !home {
                    return false;
                }
                queued[i] += 1;
            }
        }
    }
    wire.agents.iter().zip(&queued).all(|(a, &q)| {
        let pending_ok = match (a.at_node, a.pending_port, a.pending_to) {
            (_, None, None) => true,
            (Some(v), Some(p), Some(to)) => {
                p < g.degree(NodeId(v)) && g.traverse(NodeId(v), PortId(p)).node == NodeId(to)
            }
            _ => false,
        };
        let queue_ok = q == usize::from(a.inside_index.is_some());
        pending_ok && queue_ok && a.entered_at <= wire.actions
    })
}

/// SplitMix64: the mutation stream of the decoder properties below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The snapshot decoder survives corrupted participant lists: after
    /// shuffling, duplicating, dropping or overwriting entries (with
    /// values up to `usize::MAX`) of a real snapshot's meetings,
    /// `from_json` → `into_snapshot` either fails or rebuilds a snapshot
    /// whose wire form is the mutated JSON, byte for byte. It never
    /// panics, and it fails exactly when some list is not loggable.
    #[test]
    fn mutated_participant_lists_fail_or_round_trip(
        seed in any::<u64>(),
        edits in 1usize..6,
    ) {
        let (g, mut wire) = busy_wire();
        let k = wire.agents.len();
        let mut rng = seed;
        for _ in 0..edits {
            let r = splitmix(&mut rng);
            let i = (r >> 8) as usize % wire.meetings.len();
            let list = &mut wire.meetings[i].agents;
            let at = (r >> 40) as usize % list.len().max(1);
            match r % 4 {
                0 => {
                    for j in (1..list.len()).rev() {
                        list.swap(j, splitmix(&mut rng) as usize % (j + 1));
                    }
                }
                1 if !list.is_empty() => list.insert(at, list[at]),
                2 if !list.is_empty() => {
                    list.remove(at);
                }
                _ if !list.is_empty() => {
                    // Any magnitude: a random right shift spreads the draws
                    // from small (often valid) indices up to usize::MAX.
                    let v = splitmix(&mut rng);
                    list[at] = if v.is_multiple_of(8) { usize::MAX } else { (v >> (v % 64)) as usize };
                }
                _ => {}
            }
        }
        let valid = wire.meetings.iter().all(|m| loggable(&m.agents, k));
        let json = wire.to_json();
        let decoded = SnapshotWire::from_json(&json)
            .and_then(|w| w.into_snapshot(&g, decode_script));
        prop_assert_eq!(decoded.is_ok(), valid, "accepted iff every list is loggable");
        if let Ok(snap) = decoded {
            let again = SnapshotWire::from_snapshot(&snap, encode_script).to_json();
            prop_assert_eq!(again, json, "an accepted snapshot must round-trip exactly");
        }
    }

    /// The snapshot decoder survives corrupted scheduler state: after
    /// setting, clearing, half-clearing or rewriting agents' pending moves
    /// (ports and arrival nodes up to `usize::MAX`), moving edge-entry
    /// times around the snapshot's action count, and pushing, dropping or
    /// flipping the side of edge-queue entries (including unknown
    /// agents), `from_json` → `into_snapshot` accepts exactly the
    /// resumable states, never panics, re-renders an accepted snapshot
    /// byte-identically, and an accepted snapshot runs to its end.
    #[test]
    fn mutated_agent_states_fail_or_round_trip(
        seed in any::<u64>(),
        edits in 1usize..5,
    ) {
        let (g, mut wire) = busy_wire();
        let k = wire.agents.len();
        let mut rng = seed;
        for _ in 0..edits {
            let r = splitmix(&mut rng);
            let a = (r >> 8) as usize % k;
            let small = |rng: &mut u64| {
                let v = splitmix(rng);
                if v.is_multiple_of(8) { usize::MAX } else { (v % 6) as usize }
            };
            match r % 6 {
                0 => {
                    wire.agents[a].pending_port = Some(small(&mut rng));
                    wire.agents[a].pending_to = Some(small(&mut rng));
                }
                1 => {
                    // A real move where the agent stands (or its stale
                    // node if it is inside an edge).
                    let v = wire.agents[a].at_node.or(wire.agents[a].from).expect("placed");
                    let p = splitmix(&mut rng) as usize % g.degree(NodeId(v));
                    wire.agents[a].pending_port = Some(p);
                    wire.agents[a].pending_to = Some(g.traverse(NodeId(v), PortId(p)).node.0);
                }
                2 => {
                    wire.agents[a].pending_to = None;
                    if r & (1 << 40) != 0 {
                        wire.agents[a].pending_port = None;
                    }
                }
                3 => {
                    let delta = splitmix(&mut rng) % 4;
                    wire.agents[a].entered_at = (wire.actions + 2).saturating_sub(delta);
                }
                4 => {
                    let e = splitmix(&mut rng) as usize % wire.edges.len();
                    let agent = if r & (1 << 41) != 0 { a } else { small(&mut rng) };
                    if r & (1 << 42) != 0 { &mut wire.edges[e].0 } else { &mut wire.edges[e].1 }.push(agent);
                }
                _ => {
                    // Take a queued entry out; drop it, or requeue it on
                    // the other side of its edge or on another edge.
                    let entries: Vec<(usize, bool)> = wire
                        .edges
                        .iter()
                        .enumerate()
                        .flat_map(|(e, (qa, qb))| {
                            qa.iter().map(move |_| (e, true)).chain(qb.iter().map(move |_| (e, false)))
                        })
                        .collect();
                    if entries.is_empty() {
                        continue;
                    }
                    let (e, side_a) = entries[(r >> 16) as usize % entries.len()];
                    let (qa, qb) = &mut wire.edges[e];
                    let agent = if side_a { qa } else { qb }.remove(0);
                    match (r >> 44) % 3 {
                        0 => {}
                        1 => if side_a { &mut wire.edges[e].1 } else { &mut wire.edges[e].0 }.push(agent),
                        _ => {
                            let other = (e + 1 + (r >> 50) as usize) % wire.edges.len();
                            wire.edges[other].0.push(agent);
                        }
                    }
                }
            }
        }
        let valid = resumable(&g, &wire);
        let json = wire.to_json();
        let decoded = SnapshotWire::from_json(&json)
            .and_then(|w| w.into_snapshot(&g, decode_script));
        prop_assert_eq!(decoded.is_ok(), valid, "accepted iff resumable: {:?}", decoded.as_ref().err());
        if let Ok(snap) = decoded {
            let again = SnapshotWire::from_snapshot(&snap, encode_script).to_json();
            prop_assert_eq!(again, json, "an accepted snapshot must round-trip exactly");
            let mut rt = Runtime::from_snapshot(&g, &snap, RunConfig::protocol().with_cutoff(10_000));
            let out = rt.run(&mut RoundRobin::new());
            prop_assert!(out.total_traversals >= snap.total_traversals());
        }
    }

    /// The full checkpoint cycle — runtime snapshot through
    /// `SnapshotWire` JSON, adversary RNG state through its decimal
    /// string — resumes bit-identically to the in-memory restore, on a
    /// random instance cut at a random point mid-run.
    #[test]
    fn wire_checkpoint_resumes_bit_identically(
        n in 4usize..9,
        offset in 1usize..8,
        len_a in 3usize..10,
        len_b in 3usize..10,
        seed in any::<u64>(),
        prefix in 0u64..24,
    ) {
        let g = generators::ring(n);
        let offset = 1 + (offset % (n - 1)); // distinct start nodes
        // Scripts over ring ports {0, 1}: deterministic walks with
        // plenty of crossings for GreedyAvoid to dodge.
        let scripts = |salt: u64, len: usize| -> Vec<usize> {
            (0..len).map(|i| ((salt >> (i % 61)) & 1) as usize).collect()
        };
        let behaviors = vec![
            ScriptBehavior::new(NodeId(0), scripts(seed, len_a)),
            ScriptBehavior::new(NodeId(offset), scripts(seed.rotate_left(13), len_b)),
        ];
        let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol());
        let mut adv = GreedyAvoid::new(seed);

        // Drive a prefix; stop early if the run finishes first.
        let mut meetings = Vec::new();
        for _ in 0..prefix {
            if rt.step(&mut adv, &mut meetings).is_some() {
                break;
            }
        }

        // The checkpoint: snapshot + RNG state, both through their wire
        // encodings. The RNG state is a raw u64 and must survive as a
        // decimal *string* (serde_json's f64 path would corrupt it).
        let snap = rt.snapshot();
        let json = SnapshotWire::from_snapshot(&snap, encode_script).to_json();
        let rng_wire = adv.rng_state().to_string();

        let rebuilt = SnapshotWire::from_json(&json)
            .expect("rendered wire must parse")
            .into_snapshot(&g, decode_script)
            .expect("wire must rebuild over the same graph");
        let mut adv_rebuilt = GreedyAvoid::from_rng_state(
            rng_wire.parse::<u64>().expect("decimal u64 string"),
        );

        let mut adv_mem = adv.clone();
        let in_memory = finish(&g, &snap, &mut adv_mem);
        let from_wire = finish(&g, &rebuilt, &mut adv_rebuilt);
        prop_assert_eq!(
            &from_wire, &in_memory,
            "wire checkpoint diverged from the in-memory restore"
        );

        // And the uninterrupted original agrees too (the snapshot detour
        // is invisible).
        let continued = finish(&g, &rt.snapshot(), &mut adv);
        prop_assert_eq!(&continued, &in_memory, "snapshot detour was visible");
    }

    /// RNG states round-trip exactly through the decimal-string wire
    /// encoding across the full u64 range — including values at and
    /// above 2^53, where a JSON-number path would silently round.
    #[test]
    fn rng_state_strings_are_exact_at_full_width(state in any::<u64>()) {
        let adv = GreedyAvoid::from_rng_state(state);
        let wire = adv.rng_state().to_string();
        let back = GreedyAvoid::from_rng_state(wire.parse::<u64>().unwrap());
        prop_assert_eq!(back.rng_state(), state);
        // Draw both streams forward: identical continuations.
        let mut a = adv;
        let mut b = back;
        let g = generators::ring(5);
        let behaviors = vec![
            ScriptBehavior::new(NodeId(0), [0, 1, 0, 1]),
            ScriptBehavior::new(NodeId(2), [1, 0, 1, 0]),
        ];
        let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol());
        let snap = rt.snapshot();
        let one = {
            let out = rt.run(&mut a);
            format!("{:?} {} {}", out.end, out.actions, a.rng_state())
        };
        let two = {
            let mut rt = Runtime::from_snapshot(&g, &snap, RunConfig::protocol());
            let out = rt.run(&mut b);
            format!("{:?} {} {}", out.end, out.actions, b.rng_state())
        };
        prop_assert_eq!(one, two);
    }
}
