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
}

impl<T: ExplorationProvider + ?Sized> ExplorationProvider for &T {
    fn len(&self, k: u64) -> u64 {
        (**self).len(k)
    }
    fn increment(&self, k: u64, i: u64) -> u64 {
        (**self).increment(k, i)
    }
}

/// Agent-side stepper through `R(k, ·)`.
///
/// This is the only interface an *agent* has to the exploration sequence:
/// fed the local observation (entry port and degree of the current node) it
/// yields the exit port for the next step — the agent never sees node
/// identities. The first step of `R(k, v)` treats the (non-existent) entry
/// port at the start node as `0`, matching the usual UXS convention.
#[derive(Clone, Debug)]
pub struct RWalker<P> {
    provider: P,
    k: u64,
    step: u64,
}

impl<P: ExplorationProvider> RWalker<P> {
    /// Starts a fresh walk of `R(k, ·)`.
    pub fn new(provider: P, k: u64) -> Self {
        RWalker {
            provider,
            k,
            step: 0,
        }
    }

    /// Steps already taken.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Total steps in this walk (`P(k)`).
    pub fn total_steps(&self) -> u64 {
        self.provider.len(self.k)
    }

    /// Whether the walk is complete.
    pub fn is_done(&self) -> bool {
        self.step >= self.provider.len(self.k)
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
        let x = self.provider.increment(self.k, self.step);
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
}
