//! The bag: the set of (label, value) pairs an agent has heard of.

use std::collections::BTreeMap;
use std::rc::Rc;

/// An agent's bag `W`: every label it has heard of, with the initial value
/// attached to that label (for gossiping). Bags only ever grow, by merging
/// at meetings.
///
/// The entries are copy-on-write and converge on shared storage: cloning
/// a bag (an agent's meeting `info`, a propagated final set, a behavior
/// fork) shares the storage, and a [`Bag::merge`] copies only when the
/// union is neither bag's contents. Agents that keep meeting with nothing
/// new to tell each other end up reading one storage, so their repeat
/// merges cost a pointer comparison.
///
/// The storage sits behind an [`Rc`], not an `Arc`: a run lives on one
/// thread, and a clone is taken and dropped for every participant of
/// every meeting, so atomic counts would buy nothing. A bag, and so an
/// SGL agent, is therefore not `Send`: build a team on the thread that
/// runs it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bag {
    entries: Rc<BTreeMap<u64, u64>>,
}

impl Bag {
    /// A bag holding only the owner's own (label, value).
    pub fn singleton(label: u64, value: u64) -> Self {
        let mut entries = BTreeMap::new();
        entries.insert(label, value);
        Bag {
            entries: Rc::new(entries),
        }
    }

    /// Smallest label heard of (`Min(W)`); bags are never empty.
    pub fn min_label(&self) -> u64 {
        *self.entries.keys().next().expect("bags are never empty")
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bags are never empty (they always hold the owner's label).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `label` has been heard of.
    pub fn contains(&self, label: u64) -> bool {
        self.entries.contains_key(&label)
    }

    /// Merges another bag in (set union; values agree by construction:
    /// a label's value is fixed by its owner).
    ///
    /// Which storage the result reads is decided after the contents are:
    /// - the same storage as `other`: nothing to do;
    /// - `self`'s labels a subset of `other`'s: the union *is* `other`, so
    ///   `self` adopts `other`'s storage instead of copying it. For equal
    ///   contents the bag at the higher address adopts the lower one, so
    ///   two agents merging each other converge on one storage whichever
    ///   order the merges run in;
    /// - otherwise `self` copies (if shared) and adds `other`'s labels.
    ///
    /// Every branch leaves `self` holding exactly the union, so the rule
    /// moves storage, never contents: what any bag contains, and so every
    /// output, is independent of addresses.
    pub fn merge(&mut self, other: &Bag) {
        if Rc::ptr_eq(&self.entries, &other.entries) {
            return;
        }
        // One sorted walk over both bags: does `other` add a label, and
        // does `self` hold one that `other` lacks?
        let (mut adds_a_label, mut keeps_its_own) = (false, false);
        let mut mine = self.entries.iter().peekable();
        for (l, v) in other.entries.iter() {
            while mine.next_if(|&(m, _)| m < l).is_some() {
                keeps_its_own = true;
            }
            match mine.next_if(|&(m, _)| m == l) {
                Some((_, own)) => debug_assert_eq!(own, v, "label {l} carries two values"),
                None => adds_a_label = true,
            }
        }
        keeps_its_own |= mine.next().is_some();
        if !keeps_its_own
            && (adds_a_label || Rc::as_ptr(&other.entries) < Rc::as_ptr(&self.entries))
        {
            self.entries = Rc::clone(&other.entries);
        } else if adds_a_label {
            Rc::make_mut(&mut self.entries).extend(other.entries.iter());
        }
    }

    /// Iterates `(label, value)` pairs in increasing label order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&l, &v)| (l, v))
    }

    /// The labels in increasing order.
    pub fn labels(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }

    /// `true` if both bags read the same storage (no copy was made
    /// between them).
    #[cfg(test)]
    fn shares_storage_with(&self, other: &Bag) -> bool {
        Rc::ptr_eq(&self.entries, &other.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_min() {
        let b = Bag::singleton(7, 70);
        assert_eq!(b.min_label(), 7);
        assert_eq!(b.len(), 1);
        assert!(b.contains(7));
        assert!(!b.contains(8));
    }

    #[test]
    fn merge_is_union_and_idempotent() {
        let mut a = Bag::singleton(5, 50);
        let b = Bag::singleton(3, 30);
        a.merge(&b);
        assert_eq!(a.labels(), vec![3, 5]);
        assert_eq!(a.min_label(), 3);
        let snapshot = a.clone();
        a.merge(&b);
        assert_eq!(a, snapshot, "merging twice changes nothing");
    }

    #[test]
    fn values_ride_along_with_labels() {
        let mut a = Bag::singleton(2, 200);
        a.merge(&Bag::singleton(9, 900));
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(pairs, vec![(2, 200), (9, 900)]);
    }

    #[test]
    fn a_clone_shares_storage() {
        let mut a = Bag::singleton(4, 40);
        a.merge(&Bag::singleton(1, 10));
        let b = a.clone();
        assert!(b.shares_storage_with(&a));
        assert_eq!(b, a);
    }

    #[test]
    fn merging_a_subset_keeps_sharing() {
        let mut a = Bag::singleton(4, 40);
        a.merge(&Bag::singleton(1, 10));
        let mut b = a.clone();
        b.merge(&Bag::singleton(1, 10));
        b.merge(&Bag::singleton(4, 40));
        b.merge(&a);
        assert!(b.shares_storage_with(&a), "a merge adding nothing copied");
        assert_eq!(b.labels(), vec![1, 4]);
    }

    #[test]
    fn a_growing_merge_unshares_only_the_receiver() {
        let mut a = Bag::singleton(4, 40);
        a.merge(&Bag::singleton(1, 10));
        let fork = a.clone();
        let other = Bag::singleton(2, 20);
        a.merge(&other);
        assert_eq!(a.labels(), vec![1, 2, 4]);
        assert!(!a.shares_storage_with(&fork));
        // The fork still reads the pre-merge bag: stepping one copy never
        // affects the other.
        assert_eq!(fork.labels(), vec![1, 4]);
        assert_eq!(other.labels(), vec![2]);
    }

    #[test]
    fn a_subset_merge_adopts_the_other_storage() {
        let mut small = Bag::singleton(4, 40);
        let mut big = Bag::singleton(4, 40);
        big.merge(&Bag::singleton(1, 10));
        small.merge(&big);
        assert!(small.shares_storage_with(&big), "the union is `big`");
        assert_eq!(small.labels(), vec![1, 4]);
        // Receiving the smaller bag back adds nothing and stays shared.
        big.merge(&Bag::singleton(4, 40));
        assert!(small.shares_storage_with(&big));
    }

    #[test]
    fn equal_bags_merging_each_other_converge_on_one_storage() {
        for a_first in [true, false] {
            let mut a = Bag::singleton(1, 10);
            a.merge(&Bag::singleton(2, 20));
            let mut b = Bag::singleton(2, 20);
            b.merge(&Bag::singleton(1, 10));
            assert!(!a.shares_storage_with(&b));
            // Two agents meeting exchange infos both ways, in either order.
            if a_first {
                a.merge(&b.clone());
                b.merge(&a.clone());
            } else {
                b.merge(&a.clone());
                a.merge(&b.clone());
            }
            assert!(a.shares_storage_with(&b), "a_first = {a_first}");
            assert_eq!(a.labels(), vec![1, 2]);
        }
    }

    #[test]
    fn a_growing_merge_into_a_non_subset_leaves_the_other_bag_alone() {
        let mut a = Bag::singleton(3, 30);
        let other = {
            let mut o = Bag::singleton(1, 10);
            o.merge(&Bag::singleton(2, 20));
            o
        };
        let earlier = other.clone();
        a.merge(&other);
        assert_eq!(
            a.labels(),
            vec![1, 2, 3],
            "the receiver keeps its own label"
        );
        assert!(!a.shares_storage_with(&other));
        assert_eq!(other.labels(), vec![1, 2]);
        assert!(earlier.shares_storage_with(&other));
    }

    /// SplitMix64: the random stream of the property below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Everything a bag answers must match its model.
    fn assert_matches(bag: &Bag, model: &BTreeMap<u64, u64>, universe: u64, ctx: &str) {
        let pairs: Vec<_> = model.iter().map(|(&l, &v)| (l, v)).collect();
        assert_eq!(bag.iter().collect::<Vec<_>>(), pairs, "{ctx}: iter");
        assert_eq!(
            bag.labels(),
            model.keys().copied().collect::<Vec<_>>(),
            "{ctx}"
        );
        assert_eq!(bag.len(), model.len(), "{ctx}: len");
        assert_eq!(Some(bag.min_label()), model.keys().next().copied(), "{ctx}");
        for l in 0..universe {
            assert_eq!(
                bag.contains(l),
                model.contains_key(&l),
                "{ctx}: contains {l}"
            );
        }
    }

    /// Random merge and clone sequences over a small label universe agree
    /// with a `BTreeMap` model, whatever storage the merges come to share:
    /// sharing never changes a bag's contents, and no merge changes the
    /// bag it reads from or any earlier clone.
    #[test]
    fn merges_and_clones_match_a_btreemap_model() {
        const UNIVERSE: u64 = 10;
        const BAGS: usize = 5;
        let value = |l: u64| 1000 + 7 * l;
        for case in 0..200u64 {
            let mut rng = case;
            let mut bags = Vec::new();
            let mut models = Vec::new();
            for _ in 0..BAGS {
                let l = splitmix(&mut rng) % UNIVERSE;
                bags.push(Bag::singleton(l, value(l)));
                models.push(BTreeMap::from([(l, value(l))]));
            }
            // Clones taken along the way, with the contents they had.
            let mut kept: Vec<(Bag, BTreeMap<u64, u64>)> = Vec::new();
            for step in 0..60 {
                let i = splitmix(&mut rng) as usize % BAGS;
                let j = splitmix(&mut rng) as usize % BAGS;
                match splitmix(&mut rng) % 8 {
                    // A meeting: both sides read the other's pre-meeting
                    // info, as SGL agents do.
                    0..=2 => {
                        let (info_i, info_j) = (bags[i].clone(), bags[j].clone());
                        let (model_i, model_j) = (models[i].clone(), models[j].clone());
                        bags[i].merge(&info_j);
                        bags[j].merge(&info_i);
                        models[i].extend(&model_j);
                        models[j].extend(&model_i);
                        // If one side already held the union, they now
                        // share its storage.
                        let nested = |a: &BTreeMap<u64, u64>, b: &BTreeMap<u64, u64>| {
                            a.keys().all(|l| b.contains_key(l))
                        };
                        if nested(&model_i, &model_j) || nested(&model_j, &model_i) {
                            assert!(
                                bags[i].shares_storage_with(&bags[j]),
                                "case {case} step {step}"
                            );
                        }
                        assert_matches(&info_i, &model_i, UNIVERSE, "info after a meeting");
                        assert_matches(&info_j, &model_j, UNIVERSE, "info after a meeting");
                    }
                    // A one-way merge.
                    3..=4 => {
                        let other = bags[j].clone();
                        bags[i].merge(&other);
                        let model_j = models[j].clone();
                        models[i].extend(&model_j);
                    }
                    // Hearing of a fresh label.
                    5 => {
                        let l = splitmix(&mut rng) % UNIVERSE;
                        bags[i].merge(&Bag::singleton(l, value(l)));
                        models[i].insert(l, value(l));
                    }
                    // A fork replacing another bag.
                    6 => {
                        bags[j] = bags[i].clone();
                        models[j] = models[i].clone();
                    }
                    _ => kept.push((bags[i].clone(), models[i].clone())),
                }
                for (b, (bag, model)) in bags.iter().zip(&models).enumerate() {
                    assert_matches(
                        bag,
                        model,
                        UNIVERSE,
                        &format!("case {case} step {step} bag {b}"),
                    );
                }
                for (bag, model) in &kept {
                    assert_matches(
                        bag,
                        model,
                        UNIVERSE,
                        &format!("case {case} step {step} clone"),
                    );
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "carries two values")]
    fn merge_rejects_disagreeing_values() {
        let mut a = Bag::singleton(3, 30);
        a.merge(&Bag::singleton(3, 31));
    }
}
