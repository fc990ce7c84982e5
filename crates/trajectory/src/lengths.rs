//! Exact trajectory lengths (number of edge traversals), evaluated with
//! bignums.
//!
//! These are the *exact* counterparts of the upper bounds `X*, Q*, Y*, Z*,
//! A*, B*, K*, Ω*` listed at the end of the proof of Theorem 3.1. The
//! trajectory definitions fix the length of each combinator independently of
//! the graph and start node (each `R(k, ·)` contributes exactly `P(k)`
//! traversals), so lengths are pure functions of `k`:
//!
//! ```text
//! |R(k)| = P(k)                |X(k)| = 2 P(k)
//! |Q(k)| = Σ_{i≤k} |X(i)|      |Y′(k)| = (P(k)+1)·|Q(k)| + P(k)
//! |Y(k)| = 2 |Y′(k)|           |Z(k)| = Σ_{i≤k} |Y(i)|
//! |A′(k)| = (P(k)+1)·|Z(k)| + P(k)        |A(k)| = 2 |A′(k)|
//! |B(k)| = 2 |A(4k)| · |Y(k)|
//! |K(k)| = 2 (|B(4k)| + |A(8k)|) · |X(k)|
//! |Ω(k)| = (2k−1) · |K(k)| · |X(k)|
//! ```

use rv_arith::Big;
use rv_explore::ExplorationProvider;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Memoizing evaluator of exact trajectory lengths for a given exploration
/// provider.
///
/// # Examples
///
/// ```
/// use rv_trajectory::Lengths;
/// use rv_explore::{SeededUxs, ExplorationProvider};
///
/// let uxs = SeededUxs::default();
/// let l = Lengths::new(uxs);
/// let p1 = uxs.len(1);
/// assert_eq!(l.x(1), rv_arith::Big::from(2 * p1));
/// // Ω(1) is already astronomical; the bignum evaluates it exactly.
/// assert!(l.omega(1).bit_len() > 30);
/// ```
#[derive(Debug)]
pub struct Lengths<P> {
    provider: P,
    /// Shared across clones: the evaluator is a pure function of the
    /// provider, so every fork of a cursor can safely read and extend one
    /// common memo. Sharing (rather than deep-copying) makes cloning O(1)
    /// — the minimax search forks cursors once per schedule-tree node —
    /// and keeps the chain warm for all of them. Accesses are rare (a
    /// cursor reads one repetition count per `B`/`K`/`Ω` frame, when that
    /// frame's first body ends; all other streaming never does), so the
    /// mutex is effectively uncontended.
    memo: Arc<Mutex<BTreeMap<(Kind, u64), Big>>>,
}

impl<P: Clone> Clone for Lengths<P> {
    /// Clones share the memo chain — see the field docs; forked evaluators
    /// never recompute a length the original already evaluated, and vice
    /// versa.
    fn clone(&self) -> Self {
        Lengths {
            provider: self.provider.clone(),
            memo: Arc::clone(&self.memo),
        }
    }
}

// `Ord` keys the shared BTreeMap memo (deterministic, unlike a hash map).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Q,
    Yp,
    Z,
    Ap,
    B,
    K,
    Omega,
}

impl<P: ExplorationProvider> Lengths<P> {
    /// Creates an evaluator over `provider`'s length polynomial `P`.
    pub fn new(provider: P) -> Self {
        Lengths {
            provider,
            memo: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    fn p(&self, k: u64) -> Big {
        Big::from(self.provider.len(k))
    }

    /// Takes the memo lock **once** and evaluates `kind(k)` — the whole
    /// recurrence chain runs under the one guard (`eval` recursion passes
    /// the map down), so a cold evaluation pays a single lock rather than
    /// one per sub-term. Uncontended in practice: a cursor consults lengths
    /// only when a repeat's first body ends, never in steady-state
    /// streaming.
    fn locked(&self, kind: Kind, k: u64) -> Big {
        let mut memo = self.memo.lock().expect("memo poisoned");
        self.eval(kind, k, &mut memo)
    }

    /// Memoised recurrence evaluation under an already-held guard. Each
    /// formula lives **only here** (or in the `_in` helpers below for the
    /// derived quantities); the public accessors are lock-then-delegate
    /// wrappers, so there is a single source of truth per combinator.
    fn eval(&self, kind: Kind, k: u64, memo: &mut BTreeMap<(Kind, u64), Big>) -> Big {
        if let Some(v) = memo.get(&(kind, k)) {
            return v.clone();
        }
        let v = match kind {
            Kind::Q => (1..=k).map(|i| self.x(i)).sum(),
            Kind::Yp => {
                let p = self.p(k);
                (&p + 1u64) * self.eval(Kind::Q, k, memo) + p
            }
            Kind::Z => {
                let mut sum = Big::zero();
                for i in 1..=k {
                    sum += self.y_in(i, memo);
                }
                sum
            }
            Kind::Ap => {
                let p = self.p(k);
                (&p + 1u64) * self.eval(Kind::Z, k, memo) + p
            }
            Kind::B => self.b_reps_in(k, memo) * self.y_in(k, memo),
            Kind::K => self.k_reps_in(k, memo) * self.x(k),
            Kind::Omega => self.omega_reps_in(k, memo) * self.x(k),
        };
        memo.insert((kind, k), v.clone());
        v
    }

    /// `|Y(k)| = 2 |Y′(k)|`, under the guard.
    fn y_in(&self, k: u64, memo: &mut BTreeMap<(Kind, u64), Big>) -> Big {
        self.eval(Kind::Yp, k, memo) * 2u64
    }

    /// `|A(k)| = 2 |A′(k)|`, under the guard.
    fn a_in(&self, k: u64, memo: &mut BTreeMap<(Kind, u64), Big>) -> Big {
        self.eval(Kind::Ap, k, memo) * 2u64
    }

    /// `b_reps(k) = 2 |A(4k)|`, under the guard.
    fn b_reps_in(&self, k: u64, memo: &mut BTreeMap<(Kind, u64), Big>) -> Big {
        self.a_in(4 * k, memo) * 2u64
    }

    /// `k_reps(k) = 2 (|B(4k)| + |A(8k)|)`, under the guard.
    fn k_reps_in(&self, k: u64, memo: &mut BTreeMap<(Kind, u64), Big>) -> Big {
        (self.eval(Kind::B, 4 * k, memo) + self.a_in(8 * k, memo)) * 2u64
    }

    /// `omega_reps(k) = (2k−1) |K(k)|`, under the guard.
    fn omega_reps_in(&self, k: u64, memo: &mut BTreeMap<(Kind, u64), Big>) -> Big {
        self.eval(Kind::K, k, memo) * (2 * k - 1)
    }

    /// `|R(k)| = P(k)`.
    pub fn r(&self, k: u64) -> Big {
        self.p(k)
    }

    /// `|X(k)| = 2 P(k)`.
    pub fn x(&self, k: u64) -> Big {
        self.p(k) * 2u64
    }

    /// `|Q(k)| = Σ_{i=1..k} |X(i)|`.
    pub fn q(&self, k: u64) -> Big {
        self.locked(Kind::Q, k)
    }

    /// `|Y′(k)| = (P(k)+1)·|Q(k)| + P(k)`.
    pub fn y_prime(&self, k: u64) -> Big {
        self.locked(Kind::Yp, k)
    }

    /// `|Y(k)| = 2 |Y′(k)|`.
    pub fn y(&self, k: u64) -> Big {
        let mut memo = self.memo.lock().expect("memo poisoned");
        self.y_in(k, &mut memo)
    }

    /// `|Z(k)| = Σ_{i=1..k} |Y(i)|`.
    pub fn z(&self, k: u64) -> Big {
        self.locked(Kind::Z, k)
    }

    /// `|A′(k)| = (P(k)+1)·|Z(k)| + P(k)`.
    pub fn a_prime(&self, k: u64) -> Big {
        self.locked(Kind::Ap, k)
    }

    /// `|A(k)| = 2 |A′(k)|`.
    pub fn a(&self, k: u64) -> Big {
        let mut memo = self.memo.lock().expect("memo poisoned");
        self.a_in(k, &mut memo)
    }

    /// Repetition count of `Y(k)` within `B(k)`: `2·|A(4k)|`.
    pub fn b_reps(&self, k: u64) -> Big {
        let mut memo = self.memo.lock().expect("memo poisoned");
        self.b_reps_in(k, &mut memo)
    }

    /// `|B(k)| = 2 |A(4k)| · |Y(k)|`.
    pub fn b(&self, k: u64) -> Big {
        self.locked(Kind::B, k)
    }

    /// Repetition count of `X(k)` within `K(k)`: `2(|B(4k)| + |A(8k)|)`.
    pub fn k_reps(&self, k: u64) -> Big {
        let mut memo = self.memo.lock().expect("memo poisoned");
        self.k_reps_in(k, &mut memo)
    }

    /// `|K(k)| = 2(|B(4k)| + |A(8k)|) · |X(k)|`.
    pub fn k(&self, k: u64) -> Big {
        self.locked(Kind::K, k)
    }

    /// Repetition count of `X(k)` within `Ω(k)`: `(2k−1)·|K(k)|`.
    pub fn omega_reps(&self, k: u64) -> Big {
        let mut memo = self.memo.lock().expect("memo poisoned");
        self.omega_reps_in(k, &mut memo)
    }

    /// `|Ω(k)| = (2k−1)·|K(k)|·|X(k)|`.
    pub fn omega(&self, k: u64) -> Big {
        self.locked(Kind::Omega, k)
    }

    /// Length of an arbitrary [`crate::Spec`].
    pub fn of(&self, spec: crate::Spec) -> Big {
        match spec {
            crate::Spec::R(k) => self.r(k),
            crate::Spec::X(k) => self.x(k),
            crate::Spec::Q(k) => self.q(k),
            crate::Spec::Y(k) => self.y(k),
            crate::Spec::Z(k) => self.z(k),
            crate::Spec::A(k) => self.a(k),
            crate::Spec::B(k) => self.b(k),
            crate::Spec::K(k) => self.k(k),
            crate::Spec::Omega(k) => self.omega(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spec;
    use rv_explore::TableUxs;

    /// A provider with P(k) = 1 for every k keeps lengths tiny and
    /// hand-checkable.
    fn unit_p() -> TableUxs {
        TableUxs::new(vec![vec![0]])
    }

    #[test]
    fn hand_computed_lengths_with_unit_p() {
        let l = Lengths::new(unit_p());
        // P = 1 everywhere.
        assert_eq!(l.x(5), Big::from(2u64));
        assert_eq!(l.q(5), Big::from(10u64)); // Σ 2
        assert_eq!(l.y_prime(3), Big::from(2 * 6 + 1u64)); // (1+1)·Q(3)=2·6, +1
        assert_eq!(l.y(3), Big::from(26u64));
        // Z(3) = Y(1)+Y(2)+Y(3) = 2(2·2+1) + 2(2·4+1) + 26 = 10+18+26 = 54.
        assert_eq!(l.z(3), Big::from(54u64));
    }

    #[test]
    fn b_k_omega_compose_correctly() {
        let l = Lengths::new(unit_p());
        let b1 = l.b(1);
        assert_eq!(b1, l.b_reps(1) * l.y(1));
        let k1 = l.k(1);
        assert_eq!(k1, (l.b(4) + l.a(8)) * 2u64 * l.x(1));
        assert_eq!(l.omega(1), l.k(1) * l.x(1)); // (2·1−1) = 1
        assert_eq!(l.omega(2), l.k(2) * 3u64 * l.x(2));
    }

    #[test]
    fn lengths_are_strictly_monotone_in_k() {
        let l = Lengths::new(rv_explore::SeededUxs::default());
        for k in 1..8 {
            assert!(l.x(k) < l.x(k + 1));
            assert!(l.y(k) < l.y(k + 1));
            assert!(l.a(k) < l.a(k + 1));
            assert!(l.b(k) < l.b(k + 1));
            assert!(l.omega(k) < l.omega(k + 1));
        }
    }

    #[test]
    fn paper_bound_hierarchy_holds() {
        // The proof of Theorem 3.1 relies on |Ω(k)| dominating pieces and
        // |K(k)| dominating segments; sanity-check the exact values.
        let l = Lengths::new(rv_explore::SeededUxs::default());
        for k in 1..6 {
            assert!(l.omega(k) > l.k(k));
            assert!(l.k(k) > l.b(k.div_ceil(4)));
            assert!(l.b(k) > l.a(4 * k)); // B(k) repeats Y(k) 2|A(4k)| times
        }
    }

    #[test]
    fn of_matches_individual_accessors() {
        let l = Lengths::new(rv_explore::SeededUxs::default());
        assert_eq!(l.of(Spec::Q(3)), l.q(3));
        assert_eq!(l.of(Spec::Omega(2)), l.omega(2));
        assert_eq!(l.of(Spec::R(4)), l.r(4));
    }

    #[test]
    fn clone_carries_the_warm_memo() {
        let l = Lengths::new(rv_explore::SeededUxs::default());
        let omega = l.omega(2);
        let fork = l.clone();
        assert_eq!(fork.omega(2), omega);
        assert_eq!(fork.of(Spec::B(3)), l.of(Spec::B(3)));
    }

    #[test]
    fn memoization_is_consistent() {
        let l = Lengths::new(rv_explore::SeededUxs::default());
        let first = l.omega(3);
        let second = l.omega(3);
        assert_eq!(first, second);
    }

    #[test]
    fn omega_1_is_astronomical_with_default_p() {
        let l = Lengths::new(rv_explore::SeededUxs::default());
        // With P(k) = 4k³, Ω(1) has ~10^10 edge traversals: the reason the
        // cursor must be lazy.
        assert!(l.omega(1).log10() > 9.0);
    }
}
