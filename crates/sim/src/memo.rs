//! Transposition table and canonical state fingerprints for the minimax
//! search (see `docs/MINIMAX.md` for the full design).
//!
//! # Why the schedule tree is a DAG
//!
//! The minimax adversary explores schedules as a tree, but distinct
//! schedule prefixes frequently reach the *same* runtime state: the same
//! agent places, the same edge-queue contents, the same committed moves and
//! the same behavior futures. Subtrees below equal states have equal
//! worst-case values, so the search space is really a DAG and re-exploring
//! a reached state is pure waste. On vertex-transitive families (rings,
//! tori) the sharing is stronger still: states that are graph-automorphism
//! images of each other also have equal values, because every scheduling
//! rule of the runtime (legality, queue order, crossing/overtake/node
//! meetings, traversal costs) is stated in terms of nodes and edges only —
//! never node *identities*.
//!
//! # The fingerprint
//!
//! A state's fingerprint digests, per agent: awake/crashed flags, a place
//! tag (asleep, parked, committed-at-node, inside-an-edge), the place's
//! nodes, the agent's position in its direction queue when inside an edge,
//! and a bounded window of the agent's **future arrival nodes** — the nodes
//! the behavior will arrive at next, resolved via
//! [`Behavior::future_ports`] and capped at what is reachable within the
//! residual search depth. Including the future makes the fingerprint exact:
//! two states with equal fingerprints generate identical residual subtrees
//! action for action. The state is rendered to a sequence of words in one
//! pass, and the *canonical* rendering is the lexicographically least one
//! over every declared graph automorphism ([`rv_graph::Automorphisms`]),
//! which quotients the table by the family's symmetry group. Only that
//! rendering is hashed, into two independent 64-bit lanes (128 bits
//! total): one multiply-rotate step per word per lane, then one
//! SplitMix64 avalanche per lane — no `std::hash` machinery, per the
//! workspace determinism rules. For a fixed word each step is a bijection
//! of the lane, and for a fixed lane a bijection of the word.
//!
//! Because the runtime's meeting semantics on a simple graph depend only on
//! which *edge* an agent occupies — determined by its endpoints — and never
//! on port numbers, plain graph automorphisms (not port-preserving ones)
//! are the right quotient once behavior futures are resolved to node
//! sequences.
//!
//! # Replays
//!
//! The same argument that makes one root resolution serve every
//! fingerprint — behaviors are deterministic port sequences, and meetings
//! end the search — lets the search drop the real behaviors altogether:
//! [`FutureTable::replays`] hands out one `Copy` [`Replay`] cursor per
//! agent over the resolved ports, and the memoized walk runs on those.
//!
//! # Single-owner table
//!
//! The search is sequential, so [`MemoTable`] is a plain owned map:
//! [`MemoTable::get`] answers a lookup and [`MemoTable::insert`] stores a
//! finished subtree value. A key is never looked up while its own subtree
//! is still being searched: the key carries the residual depth, which
//! strictly falls along every path, so no state can meet its own key
//! below itself.

use crate::behavior::Behavior;
use crate::runtime::{AgentState, EdgeOcc, Place, Runtime};
use rv_graph::{Automorphisms, NodeId, PortId};

/// Memo key: canonical fingerprint plus residual search depth. Two states
/// share a subtree value only when both components agree.
pub(crate) type MemoKey = (u128, u32);

/// SplitMix64 finalizer: the avalanche stage of Steele et al.'s SplitMix64,
/// the same mixing family as `crate::fault` uses for fault streams.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two independent 64-bit lanes, combined into a 128-bit digest. Each
/// rendered word costs one multiply-rotate step per lane — lane `a` folds
/// the word in by xor, lane `b` by addition, with different odd
/// multipliers and rotations — and the digest avalanches each lane once.
/// For a fixed word a step is a bijection of the lane, and for a fixed
/// lane a bijection of the word, so two renderings of equal length that
/// differ in one word never collide (see `docs/MINIMAX.md`).
struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    fn new(agents: usize) -> Self {
        let mut lanes = Lanes {
            a: 0x5157_c318_a5c7_9d01,
            b: 0x71c9_4f8b_23d5_16a3,
        };
        lanes.push(agents as u64);
        lanes
    }

    fn push(&mut self, v: u64) {
        self.a = (self.a ^ v)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
        self.b = self
            .b
            .wrapping_add(v)
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(23);
    }

    fn digest(&self) -> u128 {
        ((mix64(self.a) as u128) << 64) | mix64(self.b) as u128
    }
}

/// The memoized value of a subtree, stored **relative to the total
/// traversal count at the subtree root** so that equal states reached at
/// different absolute costs share one entry:
///
/// * `max_delta` — worst meeting cost minus the root's total traversals
///   (`None` when every schedule in the subtree avoids meeting);
/// * `avoids` — some schedule in the subtree avoids all meetings;
/// * `leaves` — number of leaf schedules in the subtree, so memo hits keep
///   `WorstCase::schedules_explored` bit-identical to plain enumeration.
///
/// Reconstruction at a hit is `root_total + max_delta`; `max`/`sum`/`or`
/// all commute with the constant offset, so the memoized search reproduces
/// the unmemoized values exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MemoValue {
    pub(crate) max_delta: Option<u64>,
    pub(crate) avoids: bool,
    pub(crate) leaves: u64,
}

impl MemoValue {
    pub(crate) fn empty() -> Self {
        MemoValue {
            max_delta: None,
            avoids: false,
            leaves: 0,
        }
    }

    /// A leaf where the schedule ends without a meeting (depth cap or no
    /// legal action).
    pub(crate) fn avoid_leaf() -> Self {
        MemoValue {
            max_delta: None,
            avoids: true,
            leaves: 1,
        }
    }

    /// Records a meeting leaf `delta` traversals above the subtree root.
    pub(crate) fn record_meeting_delta(&mut self, delta: u64) {
        self.leaves += 1;
        self.max_delta = Some(self.max_delta.map_or(delta, |m| m.max(delta)));
    }

    /// Folds a child subtree's value in; the child root sits `offset`
    /// traversals above this subtree's root.
    pub(crate) fn absorb(&mut self, child: MemoValue, offset: u64) {
        if let Some(d) = child.max_delta {
            let shifted = offset + d;
            self.max_delta = Some(self.max_delta.map_or(shifted, |m| m.max(shifted)));
        }
        self.avoids |= child.avoids;
        self.leaves += child.leaves;
    }
}

const BUCKETS: usize = 64;

/// End of a bucket chain.
const NIL: u32 = u32::MAX;

/// Deterministic transposition table: one flat entry vector in insertion
/// order, with each of 64 buckets chained through it from a head array
/// (newest entry first). The bucket index is the fingerprint's low bits,
/// already avalanched by the digest, so entries spread near-uniformly and a chain holds a handful of
/// entries even on the deepest searches the harness runs (depth-14 ring:
/// 78 entries across 64 buckets). One allocation, sized up front by the
/// caller and grown by doubling past that, serves the whole table, and
/// the layout is trivially deterministic (insertion order; never
/// iterated).
pub(crate) struct MemoTable {
    /// Index in `entries` of each bucket's newest entry (`NIL`: empty).
    heads: [u32; BUCKETS],
    entries: Vec<Entry>,
    probes: u64,
    hits: u64,
}

/// One stored subtree value and the link to the next-older entry of its
/// bucket.
struct Entry {
    key: MemoKey,
    value: MemoValue,
    next: u32,
}

/// Table instrumentation, surfaced through `crate::minimax::SearchReport`.
/// Deterministic: a search with the same options always reports the same
/// counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Table lookups.
    pub probes: u64,
    /// Lookups answered by a stored entry.
    pub hits: u64,
    /// Entries resident at the end of the search.
    pub entries: u64,
}

impl MemoTable {
    /// An empty table with room for `capacity` entries before it grows.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        MemoTable {
            heads: [NIL; BUCKETS],
            entries: Vec::with_capacity(capacity),
            probes: 0,
            hits: 0,
        }
    }

    /// The low bits of the fingerprint: each digest lane ends in a
    /// SplitMix64 avalanche, so they are already near-uniform.
    fn bucket(key: &MemoKey) -> usize {
        key.0 as usize & (BUCKETS - 1)
    }

    /// The entry of `key`, if any, found by walking its bucket's chain.
    fn find(&self, key: MemoKey) -> Option<&Entry> {
        let mut i = self.heads[Self::bucket(&key)];
        while i != NIL {
            let e = &self.entries[i as usize];
            if e.key == key {
                return Some(e);
            }
            i = e.next;
        }
        None
    }

    /// The stored value of `key`, if any.
    pub(crate) fn get(&mut self, key: MemoKey) -> Option<MemoValue> {
        self.probes += 1;
        let found = self.find(key).map(|e| e.value);
        self.hits += found.is_some() as u64;
        found
    }

    /// Stores the finished value of a subtree whose lookup missed.
    pub(crate) fn insert(&mut self, key: MemoKey, value: MemoValue) {
        debug_assert!(
            self.find(key).is_none(),
            "a key is inserted once, after its lookup missed"
        );
        let index = u32::try_from(self.entries.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("transposition table overflows u32 indices");
        let head = &mut self.heads[Self::bucket(&key)];
        self.entries.push(Entry {
            key,
            value,
            next: *head,
        });
        *head = index;
    }

    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            probes: self.probes,
            hits: self.hits,
            entries: self.entries.len() as u64,
        }
    }
}

/// An agent's resolved future, anchored at one state (the search root).
#[derive(Default)]
struct AgentFuture {
    /// The nodes the agent will arrive at, in order, starting with its
    /// committed/in-flight arrival if any. With `k` traversals completed
    /// since the anchor, the agent's next arrival is `arrivals[k]`.
    arrivals: Vec<NodeId>,
    /// The exit ports the agent's next `next_port` calls return, in order
    /// (the committed/in-flight move, if any, is not among them): the
    /// stream a [`Replay`] plays back.
    ports: Vec<PortId>,
    /// The agent's traversal count at the anchor.
    base_traversals: u64,
    /// `arrivals` is the agent's *entire* future (the behavior parks at
    /// the end) rather than a resolution-limit truncation.
    complete: bool,
}

/// Every agent's future port stream and arrival-node sequence, resolved
/// **once per search** from the root state: every fingerprint reads the
/// arrivals, and the memoized walk's [`Replay`]s play back the ports.
///
/// This is sound because behaviors are deterministic port sequences — the
/// adversary controls *timing*, never routing — and the only event that
/// changes a behavior's future, a meeting, is terminal in this search
/// (meetings are leaves; no post-meeting state is ever fingerprinted).
/// A crashed agent simply stops consuming its sequence. So agent `i`'s
/// `k`-th arrival is the same node in every schedule, and one resolution
/// at the root covers every state of the search.
pub(crate) struct FutureTable {
    agents: Vec<AgentFuture>,
    supported: bool,
}

impl FutureTable {
    /// Resolves the futures of `rt`'s agents with `horizon` actions of
    /// search below the current state, `horizon / 2` ports per agent —
    /// every port the search can read, and no more:
    ///
    /// * the [`Replay`]s: the walk applies at most `horizon - 1` actions
    ///   along a path (children at the horizon are counted, not entered),
    ///   and `t` actions commit at most `1 + (t - 1) / 2` ports per agent
    ///   (the Wake's, then one per Finish after a Start), which is at most
    ///   `horizon / 2`; an agent already awake commits at most one port
    ///   per Finish, `(t + 1) / 2 ≤ horizon / 2`;
    /// * the fingerprint windows: a state's window holds exactly the
    ///   arrivals its agent can still complete within the residual depth,
    ///   and an arrival completed by action `horizon` belongs to a move
    ///   committed at least two actions earlier (a Start and a Finish
    ///   follow the commit), so every window lies within the ports some
    ///   path of at most `horizon - 2` actions commits — no more than the
    ///   replays need. (An awake agent's committed or in-flight arrival
    ///   heads its window ahead of the resolved ports.)
    ///
    /// Keeping the resolution tight matters because draining ports at the
    /// root can cross schedule-phase boundaries, and each boundary pays
    /// the algorithm's next-spec arithmetic.
    pub(crate) fn resolve<B: Behavior>(rt: &Runtime<'_, B>, horizon: usize) -> Self {
        let g = rt.graph();
        let resolve = horizon / 2;
        let mut agents = Vec::with_capacity(rt.agent_count());
        for (i, st) in rt.agent_states().iter().enumerate() {
            let mut fut = AgentFuture {
                arrivals: Vec::new(),
                ports: Vec::new(),
                base_traversals: st.traversals,
                complete: true,
            };
            if st.crashed {
                agents.push(fut); // a crashed body never moves again
                continue;
            }
            // At most the committed arrival plus one per resolved port.
            fut.arrivals.reserve_exact(resolve + 1);
            fut.ports.reserve_exact(resolve);
            // Where the port walk resumes from: the committed/in-flight
            // arrival if there is one, else the node an asleep agent will
            // wake at. A parked agent has no future.
            let walk_from = if !st.awake {
                match st.place {
                    Place::AtNode(v) => Some(v),
                    Place::Inside { .. } => unreachable!("asleep agents are at nodes"),
                }
            } else {
                match st.place {
                    Place::AtNode(_) => st.pending.map(|(_, to)| {
                        fut.arrivals.push(to);
                        to
                    }),
                    Place::Inside { to, .. } => {
                        fut.arrivals.push(to);
                        Some(to)
                    }
                }
            };
            if let Some(start) = walk_from {
                if !rt.behavior(i).future_ports(&mut fut.ports, resolve) {
                    return FutureTable {
                        agents,
                        supported: false,
                    };
                }
                fut.complete = fut.ports.len() < resolve;
                let mut cur = start;
                for &p in &fut.ports {
                    cur = g.traverse(cur, p).node;
                    fut.arrivals.push(cur);
                }
            }
            agents.push(fut);
        }
        FutureTable {
            agents,
            supported: true,
        }
    }

    /// `false` when any behavior lacks [`Behavior::future_ports`] support —
    /// fingerprints are unavailable and the search runs unmemoized.
    pub(crate) fn is_supported(&self) -> bool {
        self.supported
    }

    /// One [`Replay`] per agent of `rt`, the runtime this table was
    /// resolved from, each playing back its agent's resolved port stream.
    /// A runtime over the replays built with [`Runtime::new`] reproduces
    /// `rt` action for action as long as `rt` is still in its initial
    /// state and no replay is driven past its resolution.
    ///
    /// # Panics
    ///
    /// Panics if the table is unsupported (some future was never
    /// resolved).
    pub(crate) fn replays<B: Behavior>(&self, rt: &Runtime<'_, B>) -> Vec<Replay<'_>> {
        assert!(self.supported, "replays need every future resolved");
        self.agents
            .iter()
            .enumerate()
            .map(|(i, fut)| Replay {
                start: rt.behavior(i).start_node(),
                ports: &fut.ports,
                next: 0,
                complete: fut.complete,
            })
            .collect()
    }
}

/// A behavior that plays back one agent's port stream as resolved by a
/// [`FutureTable`]: the memoized minimax walk runs on these instead of the
/// real behaviors. The ports are borrowed from the one resolution, so a
/// replay is a `Copy` cursor — `next_port` is an index read and
/// [`Behavior::fork`] a 32-byte copy, which is what lets
/// [`Runtime::apply_undoable`] and [`Runtime::undo`] run without
/// allocating.
///
/// A replay never sees a meeting (the memoized walk applies only
/// meeting-free choices), so its port stream is the real behavior's.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Replay<'f> {
    start: NodeId,
    ports: &'f [PortId],
    /// Index in `ports` of the next port to play.
    next: u32,
    /// `ports` is the agent's whole future: past its end the agent parks.
    /// Otherwise the stream was truncated at the resolution limit and
    /// nothing past it is known.
    complete: bool,
}

impl Behavior for Replay<'_> {
    type Info = ();

    fn start_node(&self) -> NodeId {
        self.start
    }

    /// # Panics
    ///
    /// Panics when driven past a truncated resolution: the port the real
    /// behavior would commit is unknown, and parking instead would
    /// silently change the searched schedule space.
    fn next_port(&mut self) -> Option<PortId> {
        match self.ports.get(self.next as usize) {
            Some(&p) => {
                self.next += 1;
                Some(p)
            }
            None if self.complete => None,
            None => panic!(
                "replay driven past its truncated resolution of {} ports",
                self.ports.len()
            ),
        }
    }

    fn info(&self) {}

    fn on_meeting(&mut self, _place: crate::meeting::MeetingPlace, _peers: &[()]) {}

    fn fork(&self) -> Self {
        *self
    }
}

/// Scratch for computing canonical fingerprints. All state lives in the
/// [`FutureTable`]; this struct only owns reusable buffers, sized once
/// from the search horizon, so the search never allocates per probe.
pub(crate) struct Fingerprinter {
    /// The state's rendering: under `perm(0)` as it is written, then
    /// rewritten in place to the least rendering under the group.
    best: Vec<u64>,
    /// `(position in `best`, original node id)` of every node-valued entry
    /// — the only positions where two automorphisms' renderings can
    /// differ, so minimization compares and rewrites just these. Recorded
    /// only when the group is non-trivial.
    node_pos: Vec<(u32, u32)>,
}

impl Fingerprinter {
    /// Buffers for fingerprinting `agents` agents with at most `horizon`
    /// actions of search below a state: an agent renders at most a tag,
    /// two nodes, a queue position, a window length and a window of
    /// `horizon.div_ceil(2)` arrivals.
    pub(crate) fn new(agents: usize, horizon: usize) -> Self {
        let window = horizon.div_ceil(2);
        Fingerprinter {
            best: Vec::with_capacity(agents * (5 + window)),
            node_pos: Vec::with_capacity(agents * (2 + window)),
        }
    }

    /// Appends node `v` to the rendering under `perm0`, recording its
    /// position when the group has other automorphisms to try.
    fn push_node(&mut self, perm0: &[u32], track: bool, v: NodeId) {
        if track {
            self.node_pos.push((self.best.len() as u32, v.0 as u32));
        }
        self.best.push(perm0[v.0] as u64);
    }

    /// The canonical fingerprint of `rt`'s current state with `residual`
    /// actions of search below it, minimized over `autos`: the state is
    /// rendered to a value sequence under each automorphism, the
    /// lexicographically least rendering is selected (with early-exit
    /// comparison, so non-canonical automorphisms cost a handful of
    /// compares), and only that one rendering is hashed. `None` when
    /// fingerprinting is unsupported or the root resolution cannot cover
    /// this state's window (never happens from `crate::minimax`, whose
    /// resolution horizon covers the whole search; kept as a correctness
    /// backstop).
    pub(crate) fn fingerprint<B: Behavior>(
        &mut self,
        rt: &Runtime<'_, B>,
        residual: usize,
        autos: &Automorphisms,
        futures: &FutureTable,
    ) -> Option<u128> {
        if !futures.supported {
            return None;
        }
        let states = rt.agent_states();
        let occ = rt.edge_occupancy();
        let perm0 = autos.perm(0);
        let track = autos.len() > 1;
        self.best.clear();
        self.node_pos.clear();
        // One pass: each agent is rendered straight into `best` under the
        // first automorphism — a tag with the crashed bit, the place's
        // node(s), the queue position inside an edge, then the length and
        // nodes of its future window.
        for (i, st) in states.iter().enumerate() {
            let fut = &futures.agents[i];
            let k = (st.traversals - fut.base_traversals) as usize;
            let crashed = st.crashed as u64;
            let need = match st.place {
                Place::AtNode(v) => {
                    let (tag, need) = if st.crashed {
                        (0x20, 0) // parked for good
                    } else if !st.awake {
                        (0x10, residual.saturating_sub(1) / 2)
                    } else if st.pending.is_some() {
                        debug_assert_eq!(
                            st.pending.map(|(_, to)| to),
                            fut.arrivals.get(k).copied(),
                            "committed arrival must head the future window"
                        );
                        (0x30, residual / 2)
                    } else {
                        (0x20, 0) // parked
                    };
                    self.best.push(tag | crashed);
                    self.push_node(perm0, track, v);
                    need
                }
                Place::Inside { from, to, .. } => {
                    let need = if st.crashed {
                        0
                    } else if st.awake {
                        residual.div_ceil(2)
                    } else {
                        unreachable!("asleep agents are at nodes")
                    };
                    self.best.push(0x40 | crashed);
                    self.push_node(perm0, track, from);
                    self.push_node(perm0, track, to);
                    self.best.push(queue_position(states, occ, i));
                    need
                }
            };
            let len = fut.arrivals.len();
            if k + need > len && !fut.complete {
                return None; // resolution horizon too short for this window
            }
            let window = &fut.arrivals[k.min(len)..(k + need).min(len)];
            self.best.push(window.len() as u64);
            for &w in window {
                self.push_node(perm0, track, w);
            }
        }
        // Canonicalize, then hash once: lexicographically minimize over
        // the rest of the group. Renderings under two automorphisms agree
        // at every structural position (tags, queue positions, window
        // lengths) and can differ only where a node id was mapped, so both
        // the compare and the rewrite touch just the recorded node
        // positions — a non-canonical automorphism costs a handful of
        // array reads.
        for k in 1..autos.len() {
            let perm = autos.perm(k);
            let mut smaller = false;
            for &(pos, v) in &self.node_pos {
                let mapped = perm[v as usize] as u64;
                match mapped.cmp(&self.best[pos as usize]) {
                    std::cmp::Ordering::Less => {
                        smaller = true;
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                    std::cmp::Ordering::Equal => {}
                }
            }
            if smaller {
                for &(pos, v) in &self.node_pos {
                    self.best[pos as usize] = perm[v as usize] as u64;
                }
            }
        }
        let mut lanes = Lanes::new(states.len());
        for &v in &self.best {
            lanes.push(v);
        }
        Some(lanes.digest())
    }
}

/// Agent `i`'s position in its direction queue (0 = eldest), found
/// through its state's cached edge geometry and counted along the queue's
/// links. Queue contents need not be hashed separately: per-agent (edge,
/// direction, position) tuples determine every queue exactly.
fn queue_position(states: &[AgentState], occ: &[EdgeOcc], i: usize) -> u64 {
    let st = &states[i];
    occ[st.edge]
        .queue(st.from_a)
        .iter(states)
        .position(|a| a == i)
        .expect("inside agent must be in its direction queue") as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ScriptBehavior;
    use crate::runtime::{RunConfig, Runtime};
    use proptest::prelude::*;
    use rv_graph::{generators, Graph};

    #[test]
    fn get_insert_roundtrip() {
        let mut table = MemoTable::with_capacity(0);
        let key = (42u128, 7u32);
        assert_eq!(table.get(key), None);
        let value = MemoValue {
            max_delta: Some(3),
            avoids: true,
            leaves: 11,
        };
        table.insert(key, value);
        assert_eq!(table.get(key), Some(value));
        // Same fingerprint, different residual depth: a different key.
        assert_eq!(table.get((42, 6)), None);
        let stats = table.stats();
        assert_eq!((stats.probes, stats.hits, stats.entries), (3, 1, 1));
    }

    #[test]
    fn chained_buckets_keep_every_entry() {
        // 200 keys that all land in bucket 0, plus 100 spread anywhere:
        // every one is retrievable through its chain, and no key aliases
        // another in the same bucket.
        let mut table = MemoTable::with_capacity(0);
        let value = |i: u64| MemoValue {
            max_delta: Some(i),
            avoids: i.is_multiple_of(2),
            leaves: i + 1,
        };
        let crowded: Vec<MemoKey> = (0u128..)
            .map(|fp| (fp * 0x9e37_79b9_7f4a_7c15, 5))
            .filter(|k| MemoTable::bucket(k) == 0)
            .take(200)
            .collect();
        let spread: Vec<MemoKey> = (0u32..100).map(|i| (i as u128, i)).collect();
        let keys: Vec<MemoKey> = crowded.iter().chain(&spread).copied().collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(table.get(k), None);
            table.insert(k, value(i as u64));
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(table.get(k), Some(value(i as u64)), "key {i}");
        }
        // A key of the crowded bucket that was never inserted misses.
        assert_eq!(table.get((crowded[0].0, 6)), None);
        let stats = table.stats();
        assert_eq!(
            (stats.probes, stats.hits, stats.entries),
            (
                2 * keys.len() as u64 + 1,
                keys.len() as u64,
                keys.len() as u64
            )
        );
    }

    /// A two-walker runtime on ring(6): agent 0 with `script`, agent 1
    /// with none.
    fn replay_runtime(g: &Graph, script: Vec<usize>) -> Runtime<'_, ScriptBehavior> {
        let team = vec![
            ScriptBehavior::new(NodeId(0), script),
            ScriptBehavior::new(NodeId(3), []),
        ];
        Runtime::new(g, team, RunConfig::rendezvous())
    }

    #[test]
    fn a_complete_replay_parks_for_good() {
        // Horizon 10 resolves 5 ports; a 3-port script is complete.
        let g = generators::ring(6);
        let rt = replay_runtime(&g, vec![0, 1, 0]);
        let futures = FutureTable::resolve(&rt, 10);
        let mut replay = futures.replays(&rt)[0];
        assert_eq!(std::mem::size_of::<Replay<'_>>(), 32);
        let fork = replay.fork();
        let played: Vec<_> = std::iter::from_fn(|| replay.next_port()).collect();
        assert_eq!(played, [PortId(0), PortId(1), PortId(0)]);
        for _ in 0..3 {
            assert_eq!(replay.next_port(), None, "a parked replay stays parked");
        }
        // The fork is an independent cursor at the old position.
        let mut fork = fork;
        assert_eq!(fork.next_port(), Some(PortId(0)));
    }

    #[test]
    #[should_panic(expected = "replay driven past its truncated resolution of 5 ports")]
    fn an_over_driven_truncated_replay_panics() {
        // Horizon 10 resolves 5 ports; a 9-port script is truncated, and
        // the sixth port is unknown.
        let g = generators::ring(6);
        let rt = replay_runtime(&g, vec![0; 9]);
        let futures = FutureTable::resolve(&rt, 10);
        let mut replay = futures.replays(&rt)[0];
        for _ in 0..5 {
            assert_eq!(replay.next_port(), Some(PortId(0)));
        }
        replay.next_port();
    }

    #[test]
    fn memo_value_absorb_is_offset_exact() {
        let mut v = MemoValue::empty();
        v.record_meeting_delta(5);
        let mut child = MemoValue::avoid_leaf();
        child.record_meeting_delta(2);
        v.absorb(child, 10);
        assert_eq!(v.max_delta, Some(12));
        assert!(v.avoids);
        assert_eq!(v.leaves, 3);
    }

    /// Walks `ports` from `start`, returning the arrival-node path.
    fn node_path(g: &Graph, start: NodeId, ports: &[usize]) -> Vec<NodeId> {
        let mut path = vec![start];
        let mut cur = start;
        for &p in ports {
            cur = g.traverse(cur, rv_graph::PortId(p)).node;
            path.push(cur);
        }
        path
    }

    /// Rewrites a script so that agent `i` of the image runtime walks the
    /// σ-image of the original's node path.
    fn mapped_script(g: &Graph, perm: &[u32], start: NodeId, ports: &[usize]) -> ScriptBehavior {
        let path = node_path(g, start, ports);
        let mapped: Vec<usize> = path
            .windows(2)
            .map(|w| {
                let (u, v) = (NodeId(perm[w[0].0] as usize), NodeId(perm[w[1].0] as usize));
                g.port_towards(u, v)
                    .expect("automorphism preserves adjacency")
                    .0
            })
            .collect();
        ScriptBehavior::new(NodeId(perm[start.0] as usize), mapped)
    }

    fn apply_steps<B: Behavior>(rt: &mut Runtime<'_, B>, picks: &[usize]) -> usize {
        let mut choices = Vec::new();
        let mut meetings = Vec::new();
        let mut applied = 0;
        for &pick in picks {
            rt.legal_choices_into(&mut choices);
            if choices.is_empty() {
                break;
            }
            let c = choices[pick % choices.len()].choice;
            meetings.clear();
            rt.apply_into(c, &mut meetings);
            applied += 1;
            if !meetings.is_empty() {
                break; // meetings are leaves in the minimax search
            }
        }
        applied
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The satellite invariant: for every declared automorphism σ, the
        /// σ-image of a reachable state fingerprints identically (the
        /// canonical fingerprint is σ-invariant).
        #[test]
        fn fingerprint_is_automorphism_invariant(
            n in 4usize..9,
            s0 in 0usize..8,
            s1 in 0usize..8,
            ports0 in proptest::collection::vec(0usize..2, 0..10),
            ports1 in proptest::collection::vec(0usize..2, 0..10),
            picks in proptest::collection::vec(0usize..6, 0..12),
            sigma in 0usize..16,
        ) {
            let g = generators::ring(n);
            let autos = rv_graph::GraphFamily::Ring.automorphisms(&g);
            let perm = autos.perm(sigma % autos.len()).to_vec();
            let horizon = 24usize;

            let start0 = NodeId(s0 % n);
            let start1 = NodeId(s1 % n);
            prop_assume!(start0 != start1); // runtimes require distinct starts
            let original = vec![
                ScriptBehavior::new(start0, ports0.clone()),
                ScriptBehavior::new(start1, ports1.clone()),
            ];
            let image = vec![
                mapped_script(&g, &perm, start0, &ports0),
                mapped_script(&g, &perm, start1, &ports1),
            ];

            let mut rt_a = Runtime::new(&g, original, RunConfig::rendezvous());
            let mut rt_b = Runtime::new(&g, image, RunConfig::rendezvous());

            let mut fpr_a = Fingerprinter::new(2, horizon);
            let mut fpr_b = Fingerprinter::new(2, horizon);
            let fut_a = FutureTable::resolve(&rt_a, horizon);
            let fut_b = FutureTable::resolve(&rt_b, horizon);
            prop_assert!(fut_a.is_supported() && fut_b.is_supported());

            // Same decision sequence on both: legality corresponds under σ,
            // so the two runs stay σ-images of each other throughout.
            let applied_a = apply_steps(&mut rt_a, &picks);
            let applied_b = apply_steps(&mut rt_b, &picks);
            prop_assert_eq!(applied_a, applied_b, "σ-image runs must not diverge");

            let residual = horizon - applied_a;
            let fp_a = fpr_a.fingerprint(&rt_a, residual, &autos, &fut_a);
            let fp_b = fpr_b.fingerprint(&rt_b, residual, &autos, &fut_b);
            prop_assert!(fp_a.is_some());
            prop_assert_eq!(fp_a, fp_b, "canonical fingerprints must agree");
        }
    }

    #[test]
    fn fingerprint_separates_distinct_states() {
        let g = generators::path(4);
        let autos = Automorphisms::identity(g.order());
        let mk = |a: usize, b: usize| {
            vec![
                ScriptBehavior::new(NodeId(a), [0, 0, 0]),
                ScriptBehavior::new(NodeId(b), [0, 0, 0]),
            ]
        };
        let rt_a = Runtime::new(&g, mk(0, 3), RunConfig::rendezvous());
        let rt_b = Runtime::new(&g, mk(1, 3), RunConfig::rendezvous());
        let mut fpr = Fingerprinter::new(2, 10);
        let fut_a = FutureTable::resolve(&rt_a, 10);
        let fp_a = fpr.fingerprint(&rt_a, 10, &autos, &fut_a);
        let fut_b = FutureTable::resolve(&rt_b, 10);
        let fp_b = fpr.fingerprint(&rt_b, 10, &autos, &fut_b);
        assert!(fp_a.is_some() && fp_b.is_some());
        assert_ne!(fp_a, fp_b, "different starts must fingerprint apart");
    }

    #[test]
    fn fingerprint_is_anchor_independent() {
        // Future tables resolved at different depths must agree on a
        // common descendant state: one table serves the whole search.
        let g = generators::ring(6);
        let autos = rv_graph::GraphFamily::Ring.automorphisms(&g);
        let mk = || {
            vec![
                ScriptBehavior::new(NodeId(0), [0, 0, 1, 0, 0]),
                ScriptBehavior::new(NodeId(3), [1, 1, 0, 1, 1]),
            ]
        };
        let horizon = 16usize;
        let picks: Vec<usize> = vec![0, 1, 2, 0, 1];

        let mut rt_root = Runtime::new(&g, mk(), RunConfig::rendezvous());
        let mut fpr = Fingerprinter::new(2, horizon);
        let fut_root = FutureTable::resolve(&rt_root, horizon);
        let applied = apply_steps(&mut rt_root, &picks);
        let fp_from_root = fpr.fingerprint(&rt_root, horizon - applied, &autos, &fut_root);

        let mut rt_mid = Runtime::new(&g, mk(), RunConfig::rendezvous());
        let mid = apply_steps(&mut rt_mid, &picks[..2]);
        let fut_mid = FutureTable::resolve(&rt_mid, horizon - mid);
        let applied_rest = apply_steps(&mut rt_mid, &picks[2..]);
        let fp_from_mid = fpr.fingerprint(&rt_mid, horizon - mid - applied_rest, &autos, &fut_mid);

        assert_eq!(mid + applied_rest, applied);
        assert!(fp_from_root.is_some());
        assert_eq!(fp_from_root, fp_from_mid);
    }

    /// Digest maps of the [`digest_is_exact_on_the_workload_searches`]
    /// test: each canonical rendering with its digest, and each 64-bit
    /// lane value with the rendering it came from.
    #[derive(Default)]
    struct DigestMaps {
        digests: std::collections::BTreeMap<Vec<u64>, u128>,
        lanes: [std::collections::BTreeMap<u64, Vec<u64>>; 2],
    }

    impl DigestMaps {
        /// Records one (rendering, digest) pair, failing on a pair that
        /// breaks injectivity in either direction. Each lane is checked
        /// on its own; when both are injective, so is the whole digest.
        fn record(&mut self, rendering: &[u64], digest: u128) {
            let known = self.digests.entry(rendering.to_vec()).or_insert(digest);
            assert_eq!(*known, digest, "one rendering, two digests");
            let halves = [(digest >> 64) as u64, digest as u64];
            for (lane, half) in self.lanes.iter_mut().zip(halves) {
                let first = lane.entry(half).or_insert_with(|| rendering.to_vec());
                assert_eq!(
                    first.as_slice(),
                    rendering,
                    "two renderings, one lane value"
                );
            }
        }
    }

    /// Fingerprints every state the memoized walk can probe below `rt`'s —
    /// the walk's discipline without the table: only meeting-free children
    /// are entered, none at the horizon, and states with residual depth
    /// below 2 are not fingerprinted — recording each canonical rendering
    /// with its digest.
    fn record_probes(
        rt: &mut Runtime<'_, Replay<'_>>,
        residual: usize,
        fpr: &mut Fingerprinter,
        autos: &Automorphisms,
        futures: &FutureTable,
        maps: &mut DigestMaps,
    ) {
        if residual < 2 {
            return;
        }
        let fp = fpr
            .fingerprint(rt, residual, autos, futures)
            .expect("the root resolution covers every probe");
        maps.record(&fpr.best, fp);
        let mut meetings = Vec::new();
        for info in rt.legal_choices() {
            let wake_meets = matches!(info.choice.kind, crate::ActionKind::Wake)
                && rt.wake_would_meet(info.choice.agent);
            if info.causes_meeting || wake_meets {
                continue;
            }
            let token = rt.apply_undoable(info.choice, &mut meetings);
            record_probes(rt, residual - 1, fpr, autos, futures, maps);
            rt.undo(token);
        }
    }

    /// The 128-bit digest is exact on real searches: over every state the
    /// benchmark's six minimax searches can probe — the scenario matrix's
    /// five cells under their family's group, and F5c's path(3) at depth
    /// 12 under the identity — distinct canonical renderings get distinct
    /// digests, and so does each 64-bit lane on its own.
    #[test]
    fn digest_is_exact_on_the_workload_searches() {
        use rv_core::Label;
        use rv_explore::SeededUxs;
        use rv_graph::GraphFamily;
        let uxs = SeededUxs::quadratic();
        let searches = [
            (GraphFamily::Path, 10, true),
            (GraphFamily::Path, 12, true),
            (GraphFamily::Ring, 8, true),
            (GraphFamily::Ring, 12, true),
            (GraphFamily::Ring, 14, true),
            (GraphFamily::Path, 12, false),
        ];
        let mut maps = DigestMaps::default();
        for (family, horizon, grouped) in searches {
            let g = match family {
                GraphFamily::Path => generators::path(3),
                _ => generators::ring(4),
            };
            let autos = if grouped {
                family.automorphisms(&g)
            } else {
                Automorphisms::identity(g.order())
            };
            let team = vec![
                crate::RvBehavior::new(&g, uxs, NodeId(0), Label::new(1).unwrap()),
                crate::RvBehavior::new(&g, uxs, NodeId(2), Label::new(2).unwrap()),
            ];
            let rt = Runtime::new(&g, team, RunConfig::rendezvous());
            let futures = FutureTable::resolve(&rt, horizon);
            let mut replay = Runtime::new(&g, futures.replays(&rt), RunConfig::rendezvous());
            let mut fpr = Fingerprinter::new(2, horizon);
            record_probes(&mut replay, horizon, &mut fpr, &autos, &futures, &mut maps);
        }
        assert!(
            maps.digests.len() > 100,
            "only {} renderings",
            maps.digests.len()
        );
    }

    #[test]
    fn unsupported_behavior_disables_fingerprinting() {
        struct Opaque(NodeId);
        impl Behavior for Opaque {
            type Info = ();
            fn start_node(&self) -> NodeId {
                self.0
            }
            fn next_port(&mut self) -> Option<PortId> {
                None
            }
            fn info(&self) {}
            fn on_meeting(&mut self, _place: crate::meeting::MeetingPlace, _peers: &[()]) {}
            fn fork(&self) -> Self {
                Opaque(self.0)
            }
        }
        let g = generators::path(4);
        let rt = Runtime::new(
            &g,
            vec![Opaque(NodeId(0)), Opaque(NodeId(3))],
            RunConfig::rendezvous(),
        );
        // The agents start asleep, so resolution must preview their
        // post-wake futures — which Opaque cannot.
        let futures = FutureTable::resolve(&rt, 10);
        assert!(!futures.is_supported());
        let autos = Automorphisms::identity(g.order());
        let mut fpr = Fingerprinter::new(2, 10);
        assert_eq!(fpr.fingerprint(&rt, 10, &autos, &futures), None);
    }
}
