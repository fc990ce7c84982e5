//! Meeting events and the copy-on-write meeting log.

use rv_graph::{EdgeId, NodeId};
use std::sync::Arc;

/// Where a forced meeting happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeetingPlace {
    /// All participants stood at this node.
    Node(NodeId),
    /// The participants' position curves crossed strictly inside this edge.
    Edge(EdgeId),
}

/// The participants of one meeting: a set of agent indices below
/// [`AgentSet::CAPACITY`], held as one 64-bit mask.
///
/// The set is `Copy` and never allocates, so a [`Meeting`] is a plain
/// value. [`AgentSet::iter`] yields members in ascending order, the order
/// the runtime delivers a meeting in. `Debug` renders exactly like the
/// sorted `Vec<usize>` this type replaced (`[0, 1]`): the golden suites
/// fingerprint outcomes with `{:?}`.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentSet(u64);

impl AgentSet {
    /// One past the largest storable agent index. [`crate::Runtime::new`]
    /// refuses more agents than this.
    pub const CAPACITY: usize = 64;

    /// The empty set.
    pub const fn new() -> Self {
        AgentSet(0)
    }

    /// Adds `agent` (a no-op if present).
    ///
    /// # Panics
    ///
    /// Panics if `agent >= AgentSet::CAPACITY`.
    pub fn insert(&mut self, agent: usize) {
        assert!(
            agent < Self::CAPACITY,
            "agent index {agent} exceeds the AgentSet capacity of {} agents",
            Self::CAPACITY
        );
        self.0 |= 1 << agent;
    }

    /// `true` if `agent` is a member; always `false` at or above
    /// [`AgentSet::CAPACITY`].
    pub fn contains(&self, agent: usize) -> bool {
        agent < Self::CAPACITY && self.0 & (1 << agent) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> AgentSetIter {
        AgentSetIter(self.0)
    }
}

impl FromIterator<usize> for AgentSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = AgentSet::new();
        for agent in iter {
            set.insert(agent);
        }
        set
    }
}

impl std::fmt::Debug for AgentSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Ascending iterator over an [`AgentSet`]; see [`AgentSet::iter`].
#[derive(Clone, Debug)]
pub struct AgentSetIter(u64);

impl Iterator for AgentSetIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let agent = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(agent)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

/// A forced meeting between two or more agents: a 48-byte `Copy` value
/// with no heap block, so the runtime hands it out and logs it by copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Meeting {
    /// Indices (into the runtime's agent vector) of the participants,
    /// ascending; `Debug` prints them as a `Vec<usize>` would.
    pub agents: AgentSet,
    /// Where the meeting happened.
    pub place: MeetingPlace,
    /// Total completed traversals (over all agents) when the meeting was
    /// declared — the *cost* at meeting time.
    pub at_cost: u64,
    /// Scheduler action counter when the meeting was declared.
    pub at_action: u64,
}

// `Debug` output (derived, above) is the bit-exact form the golden suite
// fingerprints; `Display` (below) is the compact human form that failing
// snapshot/fork tests print. Keep both — they serve different readers.

impl std::fmt::Display for MeetingPlace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeetingPlace::Node(v) => write!(f, "node {}", v.0),
            MeetingPlace::Edge(e) => write!(f, "edge {}–{}", e.a.0, e.b.0),
        }
    }
}

impl std::fmt::Display for Meeting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "meeting of {:?} at {} (cost {}, action {})",
            self.agents, self.place, self.at_cost, self.at_action
        )
    }
}

/// Meetings per sealed chunk. Bounds the tail copied by `clone` (and the
/// per-push amortised sealing cost); large enough that the per-chunk `Arc`
/// overhead is noise next to the `Meeting`s themselves.
const CHUNK: usize = 32;

/// A sealed chunk of the log plus the chain of all earlier chunks,
/// newest-first. Shared (`Arc`) between every log handle that contains it.
#[derive(Debug)]
struct Node {
    /// Exactly [`CHUNK`] meetings, in declaration order.
    chunk: Vec<Meeting>,
    /// The previously sealed chunk, if any.
    prev: Option<Arc<Node>>,
}

impl Drop for Node {
    fn drop(&mut self) {
        // Unlink the chain iteratively: the default recursive drop would
        // use one stack frame per chunk, overflowing on logs with millions
        // of meetings. Stop at the first node another handle still shares.
        let mut prev = self.prev.take();
        while let Some(node) = prev {
            match Arc::into_inner(node) {
                Some(mut inner) => prev = inner.prev.take(),
                None => break,
            }
        }
    }
}

/// A persistent, append-only log of [`Meeting`]s with **O(1) clone**.
///
/// A record is one 48-byte [`Meeting`] value stored inline in its chunk,
/// with no per-meeting heap block; appending copies it in.
///
/// Sealed history lives in shared `Arc` chunks (a newest-first chain);
/// only the unsealed tail (at most one chunk of 32 meetings) is owned, so
/// cloning a log of any length copies a bounded tail plus one `Arc`
/// bump — this is what makes [`crate::Runtime::snapshot`] O(agents +
/// edges) in protocol mode, where the log grows with gossip for the whole
/// run. Handles are value types: pushing onto one handle never changes
/// what another observes (copy-on-write at chunk granularity).
///
/// `Debug` renders exactly like `Vec<Meeting>` — the golden-fingerprint
/// suites format outcomes with `{:?}` and must not move.
#[derive(Clone, Default)]
pub struct MeetingLog {
    /// Sealed chunks, newest first; `None` while the log is shorter than
    /// one chunk.
    sealed: Option<Arc<Node>>,
    /// Meetings in the sealed chain (always a multiple of [`CHUNK`]).
    sealed_len: usize,
    /// The growing tail; sealed into the chain at [`CHUNK`] meetings.
    tail: Vec<Meeting>,
}

impl MeetingLog {
    /// An empty log.
    pub fn new() -> Self {
        MeetingLog::default()
    }

    /// Number of meetings logged.
    pub fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
    }

    /// `true` if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a meeting. Amortised O(1); never touches sealed history.
    pub(crate) fn push(&mut self, m: Meeting) {
        self.tail.push(m);
        if self.tail.len() == CHUNK {
            let chunk = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK));
            self.sealed = Some(Arc::new(Node {
                chunk,
                prev: self.sealed.take(),
            }));
            self.sealed_len += CHUNK;
        }
    }

    /// The most recent meeting, if any.
    pub fn last(&self) -> Option<&Meeting> {
        self.tail
            .last()
            .or_else(|| self.sealed.as_ref().and_then(|n| n.chunk.last()))
    }

    /// Iterates the meetings in declaration order.
    ///
    /// Walking the chunk chain costs O(len / CHUNK) up front (the chain is
    /// newest-first and iteration is oldest-first); the traversal itself is
    /// then linear.
    pub fn iter(&self) -> Iter<'_> {
        let mut chunks = Vec::with_capacity(self.sealed_len / CHUNK);
        let mut cur = self.sealed.as_deref();
        while let Some(n) = cur {
            chunks.push(&n.chunk[..]);
            cur = n.prev.as_deref();
        }
        chunks.reverse();
        chunks.push(&self.tail[..]);
        Iter {
            chunks,
            chunk: 0,
            at: 0,
        }
    }

    /// Copies the log out into a plain vector (oldest first).
    pub fn to_vec(&self) -> Vec<Meeting> {
        self.iter().copied().collect()
    }

    /// `true` if `self` and `other` share their newest sealed chunk by
    /// pointer — the structural-sharing property the O(1)-clone tests
    /// assert. Logs shorter than one chunk share trivially (both have no
    /// sealed history to copy).
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        match (&self.sealed, &other.sealed) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// A per-agent **view**: iterates, in declaration order, exactly the
    /// meetings `agent` participated in — a filtered cursor (one bit test
    /// per meeting) over the shared chunk chain, not a materialised copy,
    /// so protocol analytics (per-agent meeting counts, who-met-whom
    /// completeness checks) walk the log without a `to_vec()` of millions
    /// of exchanges.
    pub fn for_agent(&self, agent: usize) -> AgentMeetings<'_> {
        AgentMeetings {
            inner: self.iter(),
            agent,
        }
    }

    /// `true` if agents `a` and `b` ever appeared in one meeting — the
    /// pairwise building block of the SGL post-hoc completeness check
    /// (the completion-threshold substitution is sound on a run iff the
    /// minimal agent met every other agent). Walks `a`'s view with two
    /// bit tests per meeting — allocation-free, linear in the log's
    /// length, early-exiting at the first shared meeting.
    pub fn pair_met(&self, a: usize, b: usize) -> bool {
        self.for_agent(a).any(|m| m.agents.contains(b))
    }
}

impl std::fmt::Debug for MeetingLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for MeetingLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for MeetingLog {}

/// In-order borrowed iterator over a [`MeetingLog`].
pub struct Iter<'a> {
    /// Chunk slices, oldest first, ending with the tail.
    chunks: Vec<&'a [Meeting]>,
    chunk: usize,
    at: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Meeting;

    fn next(&mut self) -> Option<&'a Meeting> {
        while self.chunk < self.chunks.len() {
            if let Some(m) = self.chunks[self.chunk].get(self.at) {
                self.at += 1;
                return Some(m);
            }
            self.chunk += 1;
            self.at = 0;
        }
        None
    }
}

impl<'a> IntoIterator for &'a MeetingLog {
    type Item = &'a Meeting;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// A per-agent view over a [`MeetingLog`]: the meetings one agent
/// participated in, oldest first. Created by [`MeetingLog::for_agent`];
/// borrows the shared chunk chain (no copying).
pub struct AgentMeetings<'a> {
    inner: Iter<'a>,
    agent: usize,
}

impl<'a> Iterator for AgentMeetings<'a> {
    type Item = &'a Meeting;

    fn next(&mut self) -> Option<&'a Meeting> {
        self.inner.by_ref().find(|m| m.agents.contains(self.agent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_set_iterates_ascending_whatever_the_insertion_order() {
        let mut set = AgentSet::new();
        assert!(set.is_empty());
        for a in [63, 5, 0, 17, 5, 2] {
            set.insert(a);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 2, 5, 17, 63]);
        assert_eq!(set.len(), 5);
        assert!(!set.is_empty());
        let collected: AgentSet = [17, 63, 2, 0, 5].into_iter().collect();
        assert_eq!(collected, set);
    }

    #[test]
    fn agent_set_debug_matches_the_vec_it_replaced() {
        for members in [vec![], vec![0, 1], vec![1, 3, 4], vec![0, 2, 63]] {
            let set: AgentSet = members.iter().rev().copied().collect();
            assert_eq!(format!("{set:?}"), format!("{members:?}"));
            assert_eq!(format!("{set:#?}"), format!("{members:#?}"));
        }
    }

    #[test]
    fn agent_set_contains_is_false_at_and_above_capacity() {
        let set: AgentSet = (0..AgentSet::CAPACITY).collect();
        assert_eq!(set.len(), 64);
        assert!(set.contains(0) && set.contains(63));
        for a in [64, 65, 127, 128, usize::MAX] {
            assert!(!set.contains(a), "{a} is beyond the capacity");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the AgentSet capacity of 64 agents")]
    fn agent_set_insert_past_capacity_panics() {
        AgentSet::new().insert(64);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_meeting_is_a_48_byte_value() {
        assert_eq!(std::mem::size_of::<Meeting>(), 48);
    }

    #[test]
    fn meeting_place_comparisons() {
        let e = EdgeId::new(NodeId(1), NodeId(2));
        assert_eq!(
            MeetingPlace::Edge(e),
            MeetingPlace::Edge(EdgeId::new(NodeId(2), NodeId(1)))
        );
        assert_ne!(MeetingPlace::Node(NodeId(1)), MeetingPlace::Node(NodeId(2)));
    }

    fn meeting(i: usize) -> Meeting {
        Meeting {
            agents: [0, 1].into_iter().collect(),
            place: MeetingPlace::Node(NodeId(i % 7)),
            at_cost: i as u64,
            at_action: 2 * i as u64,
        }
    }

    #[test]
    fn log_matches_vec_semantics() {
        let mut log = MeetingLog::new();
        let mut vec = Vec::new();
        assert!(log.is_empty());
        assert_eq!(log.last(), None);
        for i in 0..(3 * CHUNK + 5) {
            log.push(meeting(i));
            vec.push(meeting(i));
            assert_eq!(log.len(), vec.len());
            assert_eq!(log.last(), vec.last());
        }
        assert_eq!(log.to_vec(), vec);
        assert_eq!(log.iter().count(), vec.len());
        // Debug must render exactly like Vec<Meeting>: the golden suite
        // fingerprints outcomes with {:?}.
        assert_eq!(format!("{log:?}"), format!("{vec:?}"));
        assert_eq!(format!("{:?}", MeetingLog::new()), "[]");
    }

    #[test]
    fn clone_is_structural_sharing_not_a_copy() {
        let mut log = MeetingLog::new();
        for i in 0..(10 * CHUNK) {
            log.push(meeting(i));
        }
        let snap = log.clone();
        assert!(
            snap.shares_storage_with(&log),
            "clone must share sealed chunks, not copy them"
        );
        assert_eq!(snap, log);
    }

    #[test]
    fn pushes_after_clone_leave_the_clone_untouched() {
        let mut log = MeetingLog::new();
        for i in 0..(2 * CHUNK + CHUNK / 2) {
            log.push(meeting(i));
        }
        let frozen = log.clone();
        let frozen_contents = frozen.to_vec();
        for i in 0..(2 * CHUNK) {
            log.push(meeting(1000 + i));
        }
        assert_eq!(frozen.len(), 2 * CHUNK + CHUNK / 2);
        assert_eq!(frozen.to_vec(), frozen_contents, "COW: clone is immutable");
        assert_eq!(log.len(), 4 * CHUNK + CHUNK / 2);
        // The two handles still share the chunks sealed before the fork.
        let shared_prefix: Vec<_> = log.iter().take(frozen.len()).copied().collect();
        assert_eq!(shared_prefix, frozen_contents);
    }

    #[test]
    fn dropping_a_long_log_does_not_recurse() {
        // One chunk per stack frame would overflow here if Node dropped
        // recursively (debug stacks hold ~tens of thousands of frames).
        let mut log = MeetingLog::new();
        for i in 0..100_000 {
            log.push(meeting(i));
        }
        let keep_alive = log.clone();
        drop(log); // shared chain: unlink stops at the shared node
        drop(keep_alive); // sole owner: unlinks the whole chain iteratively
    }

    #[test]
    fn agent_views_filter_without_materialising() {
        let mut log = MeetingLog::new();
        // Meetings alternate participants: {0,1}, {1,2}, {0,2}, {0,1,2}…
        let patterns: [&[usize]; 4] = [&[0, 1], &[1, 2], &[0, 2], &[0, 1, 2]];
        for i in 0..(4 * CHUNK) {
            log.push(Meeting {
                agents: patterns[i % 4].iter().copied().collect(),
                place: MeetingPlace::Node(NodeId(i % 5)),
                at_cost: i as u64,
                at_action: i as u64,
            });
        }
        for agent in 0..3usize {
            let via_view: Vec<_> = log.for_agent(agent).copied().collect();
            let via_filter: Vec<_> = log
                .iter()
                .filter(|m| m.agents.iter().any(|a| a == agent))
                .copied()
                .collect();
            assert_eq!(via_view, via_filter, "view drifted for agent {agent}");
            assert_eq!(via_view.len(), 3 * CHUNK, "3 of every 4 meetings");
        }
        assert!(log.for_agent(7).next().is_none(), "unknown agent: empty");
    }

    #[test]
    fn pair_met_is_symmetric_and_exact() {
        let mut log = MeetingLog::new();
        log.push(Meeting {
            agents: [0, 2].into_iter().collect(),
            place: MeetingPlace::Node(NodeId(1)),
            at_cost: 1,
            at_action: 1,
        });
        log.push(Meeting {
            agents: [1, 3].into_iter().collect(),
            place: MeetingPlace::Node(NodeId(2)),
            at_cost: 2,
            at_action: 2,
        });
        assert!(log.pair_met(0, 2) && log.pair_met(2, 0));
        assert!(log.pair_met(1, 3) && log.pair_met(3, 1));
        assert!(!log.pair_met(0, 1));
        assert!(!log.pair_met(2, 3));
    }

    #[test]
    fn display_is_compact_and_readable() {
        let m = Meeting {
            agents: [1, 0].into_iter().collect(),
            place: MeetingPlace::Edge(EdgeId::new(NodeId(2), NodeId(1))),
            at_cost: 54,
            at_action: 110,
        };
        assert_eq!(
            m.to_string(),
            "meeting of [0, 1] at edge 1–2 (cost 54, action 110)"
        );
        assert_eq!(MeetingPlace::Node(NodeId(7)).to_string(), "node 7");
    }
}
