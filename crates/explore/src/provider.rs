//! The [`ExplorationProvider`] abstraction and agent-side walker.

use rv_graph::PortId;

/// Source of universal exploration sequences.
///
/// For each parameter `k`, a provider defines a deterministic sequence of
/// increments `x_0, …, x_{P(k)-1}` (the paper's `x_1 … x_{P(k)}`, 0-based
/// here) and its length `P(k)`. The rendezvous algorithm only relies on:
///
/// * **determinism** — every agent, knowing only `k`, derives the same
///   sequence (so the provider must be a pure function of `k` and `i`);
/// * **integrality for `k ≥ n`** — applied in any graph of order ≤ `k` the
///   induced walk traverses every edge (checked by
///   [`crate::is_integral`] / [`crate::verify_universal`]).
///
/// `P` must be non-decreasing in `k` (the cost analysis of Theorem 3.1
/// assumes this).
pub trait ExplorationProvider {
    /// Length `P(k)` of the exploration sequence for parameter `k`
    /// (number of edge traversals of `R(k, ·)`).
    fn len(&self, k: u64) -> u64;

    /// The `i`-th increment, `0 ≤ i < len(k)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `i >= len(k)`.
    fn increment(&self, k: u64, i: u64) -> u64;

    /// The per-`k` part of the increments, computed once per walk: an
    /// [`RWalker`] derives it when it is built and then asks only for
    /// [`ExplorationProvider::keyed_increment`]. The default key is `k`
    /// itself.
    ///
    /// Override this and `keyed_increment` together, or neither.
    fn walk_key(&self, k: u64) -> u64 {
        k
    }

    /// The `i`-th increment of the walk whose key is `key =
    /// walk_key(k)`; equal to `increment(k, i)` for `0 ≤ i < len(k)`. The
    /// caller keeps `i` in range, so an implementation need not check
    /// it. The default is `increment(key, i)`.
    fn keyed_increment(&self, key: u64, i: u64) -> u64 {
        self.increment(key, i)
    }
}

impl<T: ExplorationProvider + ?Sized> ExplorationProvider for &T {
    fn len(&self, k: u64) -> u64 {
        (**self).len(k)
    }
    fn increment(&self, k: u64, i: u64) -> u64 {
        (**self).increment(k, i)
    }
    fn walk_key(&self, k: u64) -> u64 {
        (**self).walk_key(k)
    }
    fn keyed_increment(&self, key: u64, i: u64) -> u64 {
        (**self).keyed_increment(key, i)
    }
}

/// Agent-side stepper through `R(k, ·)`.
///
/// This is the only interface an *agent* has to the exploration sequence:
/// fed the local observation (entry port and degree of the current node) it
/// yields the exit port for the next step — the agent never sees node
/// identities. The first step of `R(k, v)` treats the (non-existent) entry
/// port at the start node as `0`, matching the usual UXS convention.
///
/// `R(k, ·)` walks step the RV trajectories' `R` pieces, ESST's trunc and
/// inner walks and SGL's Phase-3 sweeps, so the walker does its per-`k`
/// work once: it reads `P(k)` and the provider's
/// [`walk_key`](ExplorationProvider::walk_key) when it is built, and a step
/// costs one [`keyed_increment`](ExplorationProvider::keyed_increment).
#[derive(Clone, Debug)]
pub struct RWalker<P> {
    provider: P,
    key: u64,
    len: u64,
    step: u64,
}

impl<P: ExplorationProvider> RWalker<P> {
    /// Starts a fresh walk of `R(k, ·)`.
    pub fn new(provider: P, k: u64) -> Self {
        RWalker {
            key: provider.walk_key(k),
            len: provider.len(k),
            provider,
            step: 0,
        }
    }

    /// Steps already taken.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Total steps in this walk (`P(k)`).
    pub fn total_steps(&self) -> u64 {
        self.len
    }

    /// Whether the walk is complete.
    pub fn is_done(&self) -> bool {
        self.step >= self.len
    }

    /// Computes the next exit port from the entry port (`None` at the start
    /// node) and the degree of the current node, and advances the walk.
    ///
    /// Returns `None` when the walk is complete.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0` (the model has no isolated nodes).
    pub fn next_exit(&mut self, entry: Option<PortId>, degree: usize) -> Option<PortId> {
        assert!(degree > 0, "RWalker: node of degree 0");
        if self.is_done() {
            return None;
        }
        let x = self.provider.keyed_increment(self.key, self.step);
        self.step += 1;
        let d = degree as u64;
        let p = entry.map(|p| p.0 as u64).unwrap_or(0);
        // `x` spans all of u64. When `p + x` overflows, reduce `x` first:
        // `p < d`, so both arms give `(p + x) mod d`. The common arm keeps
        // a single division on this hot path.
        let exit = match p.checked_add(x) {
            Some(sum) => sum % d,
            None => (p + x % d) % d,
        };
        Some(PortId(exit as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededUxs;
    use proptest::prelude::*;

    #[test]
    fn walker_counts_steps_and_terminates() {
        let uxs = SeededUxs::default();
        let mut w = RWalker::new(&uxs, 3);
        let total = w.total_steps();
        assert!(total > 0);
        let mut n = 0;
        while w.next_exit(Some(PortId(0)), 2).is_some() {
            n += 1;
        }
        assert_eq!(n, total);
        assert!(w.is_done());
        assert_eq!(w.next_exit(Some(PortId(0)), 2), None);
    }

    #[test]
    fn exit_port_is_entry_plus_increment_mod_degree() {
        let uxs = SeededUxs::default();
        let mut w = RWalker::new(&uxs, 4);
        let x0 = uxs.increment(4, 0);
        let exit = w.next_exit(None, 3).unwrap();
        assert_eq!(exit.0 as u64, x0 % 3);
        let x1 = uxs.increment(4, 1);
        let exit = w.next_exit(Some(PortId(2)), 3).unwrap();
        assert_eq!(exit.0 as u64, (2 + x1) % 3);
    }

    #[test]
    fn full_range_increments_do_not_overflow() {
        // 2^64 - 1 ≡ 0 (mod 3), so from entry port 1 the exit is 1; the
        // unreduced sum 1 + (2^64 - 1) would overflow.
        let uxs = crate::TableUxs::new(vec![vec![u64::MAX, u64::MAX]]);
        let mut w = RWalker::new(&uxs, 3);
        assert_eq!(w.next_exit(Some(PortId(1)), 3), Some(PortId(1)));
        assert_eq!(w.next_exit(Some(PortId(2)), 3), Some(PortId(2)));
    }

    #[test]
    #[should_panic(expected = "degree 0")]
    fn walker_rejects_degree_zero() {
        let uxs = SeededUxs::default();
        RWalker::new(&uxs, 2).next_exit(None, 0);
    }

    /// SplitMix64: the random stream of the walker property below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Walks `R(k, ·)` on random degrees and entry ports: every exit is
    /// `(entry + increment(k, i)) mod degree` (entry 0 at the start),
    /// `total_steps()` is `len(k)`, and `is_done()` turns true exactly
    /// after `len(k)` steps.
    fn walker_follows_its_provider<P: ExplorationProvider + Clone>(
        provider: P,
        k: u64,
        rng: &mut u64,
    ) -> Result<(), TestCaseError> {
        let len = provider.len(k);
        let mut w = RWalker::new(provider.clone(), k);
        prop_assert_eq!(w.total_steps(), len);
        let mut entry = None;
        for i in 0..len {
            prop_assert!(!w.is_done(), "done after {} of {} steps", i, len);
            let degree = match splitmix(rng) % 4 {
                0 => 1 + splitmix(rng) as usize % 1000,
                _ => 1 + splitmix(rng) as usize % 8,
            };
            let p = entry.map_or(0, |e: PortId| e.0 as u128);
            let expected = (p + provider.increment(k, i) as u128) % degree as u128;
            prop_assert_eq!(
                w.next_exit(entry, degree),
                Some(PortId(expected as usize)),
                "k = {}, step {}",
                k,
                i
            );
            prop_assert_eq!(w.steps_taken(), i + 1);
            entry = Some(PortId(splitmix(rng) as usize % degree));
        }
        prop_assert!(w.is_done(), "not done after {} steps", len);
        prop_assert_eq!(w.next_exit(entry, 3), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The walker's set-up-once key and length agree with its
        /// provider, for both seeded providers, a table provider (`k`
        /// past its last table included) and a borrowed provider.
        #[test]
        fn walker_matches_its_provider(k in 1u64..10, seed in any::<u64>()) {
            let mut rng = seed;
            walker_follows_its_provider(SeededUxs::default(), k, &mut rng)?;
            walker_follows_its_provider(SeededUxs::quadratic(), k, &mut rng)?;
            let uxs = SeededUxs::default();
            let borrowed: &SeededUxs = &uxs;
            walker_follows_its_provider(borrowed, k, &mut rng)?;
            // Three tables of random increments, the extremes included:
            // `k` = 4…9 reads the last one.
            let tables = (0..3)
                .map(|_| {
                    let len = 1 + splitmix(&mut rng) % 40;
                    (0..len)
                        .map(|_| match splitmix(&mut rng) % 4 {
                            0 => u64::MAX,
                            1 => splitmix(&mut rng) % 16,
                            _ => splitmix(&mut rng),
                        })
                        .collect()
                })
                .collect();
            walker_follows_its_provider(crate::TableUxs::new(tables), k, &mut rng)?;
        }
    }
}
