//! The bag: the set of (label, value) pairs an agent has heard of.

use std::collections::BTreeMap;
use std::sync::Arc;

/// An agent's bag `W`: every label it has heard of, with the initial value
/// attached to that label (for gossiping). Bags only ever grow, by merging
/// at meetings.
///
/// The entries are copy-on-write: cloning a bag (an agent's meeting
/// `info`, a propagated final set, a behavior fork) shares the storage,
/// and only a [`Bag::merge`] that actually adds a label copies it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bag {
    entries: Arc<BTreeMap<u64, u64>>,
}

impl Bag {
    /// A bag holding only the owner's own (label, value).
    pub fn singleton(label: u64, value: u64) -> Self {
        let mut entries = BTreeMap::new();
        entries.insert(label, value);
        Bag {
            entries: Arc::new(entries),
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

    /// Merges another bag in (set union; values agree by construction —
    /// a label's value is fixed by its owner — which is what lets a merge
    /// that adds no label leave the storage untouched and shared).
    pub fn merge(&mut self, other: &Bag) {
        let mut adds_a_label = false;
        for (l, v) in other.entries.iter() {
            match self.entries.get(l) {
                Some(mine) => debug_assert_eq!(mine, v, "label {l} carries two values"),
                None => adds_a_label = true,
            }
        }
        if adds_a_label {
            Arc::make_mut(&mut self.entries).extend(other.entries.iter());
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
        Arc::ptr_eq(&self.entries, &other.entries)
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "carries two values")]
    fn merge_rejects_disagreeing_values() {
        let mut a = Bag::singleton(3, 30);
        a.merge(&Bag::singleton(3, 31));
    }
}
