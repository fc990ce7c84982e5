//! Meeting events and the run's meeting tally.

use rv_graph::{EdgeId, NodeId};

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

    /// The members of either set.
    pub fn union(self, other: AgentSet) -> AgentSet {
        AgentSet(self.0 | other.0)
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
// fork tests print. Keep both — they serve different readers.

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

/// What a run keeps of its meetings: how many were logged, the last one,
/// and who met whom. A fixed-size value with no heap block, so logging a
/// meeting never allocates and a clone is a plain copy. The runtime logs
/// every meeting it declares, so the tally counts exactly the meetings
/// [`crate::Runtime::step`] has handed out.
///
/// Row `a` of the who-met-whom table is the union of the participants of
/// every logged meeting `a` took part in, so [`MeetingTally::pair_met`]
/// is one bit test. The tally does not keep the sequence: a caller that
/// needs every meeting reads them from [`crate::Runtime::step`], which
/// hands out each action's meetings.
#[derive(Clone, PartialEq, Eq)]
pub struct MeetingTally {
    /// Meetings logged.
    len: usize,
    /// The most recent meeting logged.
    last: Option<Meeting>,
    /// Who met whom, one row per agent index.
    met: [AgentSet; AgentSet::CAPACITY],
}

impl Default for MeetingTally {
    fn default() -> Self {
        MeetingTally {
            len: 0,
            last: None,
            met: [AgentSet::new(); AgentSet::CAPACITY],
        }
    }
}

impl MeetingTally {
    /// An empty tally.
    pub fn new() -> Self {
        MeetingTally::default()
    }

    /// Number of meetings logged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logs a meeting: counts it, keeps it as the last one, and ORs its
    /// participants into each participant's row.
    pub(crate) fn push(&mut self, m: Meeting) {
        self.len += 1;
        self.last = Some(m);
        for a in m.agents.iter() {
            self.met[a] = self.met[a].union(m.agents);
        }
    }

    /// The most recent meeting, if any.
    pub fn last(&self) -> Option<&Meeting> {
        self.last.as_ref()
    }

    /// `true` if agents `a` and `b` ever appeared in one logged meeting —
    /// the pairwise building block of the SGL post-hoc completeness check
    /// (the completion-threshold substitution is sound on a run iff the
    /// minimal agent met every other agent).
    pub fn pair_met(&self, a: usize, b: usize) -> bool {
        self.met.get(a).is_some_and(|row| row.contains(b))
    }
}

/// Renders the count, the last meeting and the non-empty rows of the
/// who-met-whom table.
impl std::fmt::Debug for MeetingTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows = self
            .met
            .iter()
            .enumerate()
            .filter(|(_, row)| !row.is_empty());
        f.debug_struct("MeetingTally")
            .field("len", &self.len)
            .field("last", &self.last)
            .field(
                "met",
                &std::fmt::from_fn(|f| f.debug_map().entries(rows.clone()).finish()),
            )
            .finish()
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

    fn meeting(agents: &[usize], i: usize) -> Meeting {
        Meeting {
            agents: agents.iter().copied().collect(),
            place: MeetingPlace::Node(NodeId(i % 7)),
            at_cost: i as u64,
            at_action: 2 * i as u64,
        }
    }

    #[test]
    fn log_matches_vec_semantics() {
        let mut tally = MeetingTally::new();
        let mut vec = Vec::new();
        assert!(tally.is_empty());
        assert_eq!(tally.last(), None);
        for i in 0..100 {
            tally.push(meeting(&[0, 1], i));
            vec.push(meeting(&[0, 1], i));
            assert_eq!(tally.len(), vec.len());
            assert_eq!(tally.last(), vec.last());
        }
        assert!(!tally.is_empty());
    }

    #[test]
    fn pair_met_is_symmetric_and_exact() {
        let mut tally = MeetingTally::new();
        tally.push(meeting(&[0, 2], 1));
        tally.push(meeting(&[1, 3, 5], 2));
        assert!(tally.pair_met(0, 2) && tally.pair_met(2, 0));
        for (a, b) in [(1, 3), (1, 5), (3, 5)] {
            assert!(tally.pair_met(a, b) && tally.pair_met(b, a), "{a} met {b}");
        }
        assert!(!tally.pair_met(0, 1));
        assert!(!tally.pair_met(2, 3));
        assert!(!tally.pair_met(4, 4), "agent 4 met no one");
        assert!(!tally.pair_met(64, 0) && !tally.pair_met(0, 64));
    }

    #[test]
    fn tally_debug_lists_only_the_agents_that_met() {
        let mut tally = MeetingTally::new();
        assert_eq!(
            format!("{tally:?}"),
            "MeetingTally { len: 0, last: None, met: {} }"
        );
        tally.push(meeting(&[0, 3], 1));
        assert_eq!(
            format!("{tally:?}"),
            "MeetingTally { len: 1, last: Some(Meeting { agents: [0, 3], \
             place: Node(NodeId(1)), at_cost: 1, at_action: 2 }), \
             met: {0: [0, 3], 3: [0, 3]} }"
        );
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
