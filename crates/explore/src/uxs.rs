//! Concrete exploration-sequence providers.
//!
//! **Substitution note.** The paper invokes Reingold's
//! log-space universal exploration sequences only as an existence result
//! with polynomial length `P(k)`. Reproducing Reingold's zig-zag-product
//! construction would add enormous constants while changing nothing about
//! the rendezvous logic, which treats `R(k, v)` as a black box that is
//! (a) deterministic and common to all agents and (b) integral for `k ≥ n`.
//! [`SeededUxs`] preserves both properties: it derives increments from a
//! fixed splitmix64 hash of `(seed, k, i)` — a published constant table in
//! spirit — with length `P(k) = coeff · k³`. Aleliunas et al. (1979) show a
//! random sequence of length `O(n³ log n)` is universal with high
//! probability; [`crate::verify_universal`] verifies universality
//! exhaustively for small `k`, and every experiment in this workspace checks
//! integrality on its actual graph before trusting a run.

use crate::provider::ExplorationProvider;

/// Deterministic pseudorandom exploration sequences with
/// `P(k) = coeff · k^power` (min 1).
///
/// The default (`seed = 0x5EED_CAFE`, `coeff = 4`, `power = 3`) matches the
/// `O(n³ log n)` Aleliunas bound up to the log factor; it passes exhaustive
/// universality verification for all port-numbered graphs of order ≤ 4 and
/// empirical integrality checks on every family/size used by the
/// experiments (see `tests/universality.rs`). Cost-sensitive experiments
/// use [`SeededUxs::with_power`]`(2)` after verifying integrality on their
/// concrete graphs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeededUxs {
    seed: u64,
    coeff: u64,
    power: u32,
}

impl SeededUxs {
    /// Creates a provider with the given hash seed and length coefficient
    /// (`P(k) = coeff · k³`).
    ///
    /// # Panics
    ///
    /// Panics if `coeff == 0`.
    pub fn new(seed: u64, coeff: u64) -> Self {
        assert!(coeff > 0, "SeededUxs: coeff must be positive");
        SeededUxs {
            seed,
            coeff,
            power: 3,
        }
    }

    /// Replaces the polynomial degree of the length function
    /// (`P(k) = coeff · k^power`).
    ///
    /// # Panics
    ///
    /// Panics if `power == 0`.
    pub fn with_power(self, power: u32) -> Self {
        assert!(power > 0, "SeededUxs: power must be positive");
        SeededUxs { power, ..self }
    }

    /// The seed of this provider.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Default for SeededUxs {
    fn default() -> Self {
        SeededUxs::new(0x5EED_CAFE, 4)
    }
}

impl SeededUxs {
    /// A quadratic-length provider (`P(k) = 8·k²`) for cost-sensitive
    /// experiments; always verify integrality on the target graph
    /// ([`crate::is_integral`]) before trusting runs that use it.
    pub fn quadratic() -> Self {
        SeededUxs::new(0x5EED_CAFE, 8).with_power(2)
    }
}

/// splitmix64 finalizer — a well-mixed pure function of the input.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ExplorationProvider for SeededUxs {
    fn len(&self, k: u64) -> u64 {
        let mut pow = 1u64;
        for _ in 0..self.power {
            pow = pow.saturating_mul(k);
        }
        self.coeff.saturating_mul(pow).max(1)
    }

    fn increment(&self, k: u64, i: u64) -> u64 {
        assert!(
            i < self.len(k),
            "increment index {i} out of range for k={k}"
        );
        self.keyed_increment(self.walk_key(k), i)
    }

    /// The seed mixed with `k`, so sequences for different `k` are
    /// independent.
    fn walk_key(&self, k: u64) -> u64 {
        self.seed ^ splitmix64(k)
    }

    fn keyed_increment(&self, key: u64, i: u64) -> u64 {
        splitmix64(key ^ i.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// Exploration sequences backed by explicit per-`k` tables.
///
/// Mirrors how a *published* UXS table (e.g. one produced offline by an
/// expensive construction) would ship with an implementation. Lengths are
/// the table lengths; `k` larger than the table falls back to the last
/// entry's table.
///
/// Tables are immutable once built and shared behind an
/// [`Arc`](std::sync::Arc), so clones
/// are O(1) — providers are cloned into every cursor, walker, and behavior
/// fork, and the simulator's plain minimax enumeration forks behaviors
/// at every branching schedule-tree node.
#[derive(Clone, Debug, Default)]
pub struct TableUxs {
    /// `tables[j]` is the sequence for `k = j + 1`.
    tables: std::sync::Arc<Vec<Vec<u64>>>,
}

impl TableUxs {
    /// Builds from explicit tables; `tables[j]` serves parameter `k = j+1`.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or contains an empty table.
    pub fn new(tables: Vec<Vec<u64>>) -> Self {
        assert!(!tables.is_empty(), "TableUxs: need at least one table");
        assert!(
            tables.iter().all(|t| !t.is_empty()),
            "TableUxs: tables must be non-empty"
        );
        TableUxs {
            tables: std::sync::Arc::new(tables),
        }
    }

    fn table(&self, k: u64) -> &[u64] {
        let idx = (k.max(1) as usize - 1).min(self.tables.len() - 1);
        &self.tables[idx]
    }
}

impl ExplorationProvider for TableUxs {
    fn len(&self, k: u64) -> u64 {
        self.table(k).len() as u64
    }

    fn increment(&self, k: u64, i: u64) -> u64 {
        self.table(k)[i as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_len_is_cubic_and_monotone() {
        let u = SeededUxs::new(1, 4);
        assert_eq!(u.len(1), 4);
        assert_eq!(u.len(2), 32);
        assert_eq!(u.len(10), 4000);
        for k in 1..50 {
            assert!(u.len(k) <= u.len(k + 1));
        }
    }

    #[test]
    fn seeded_is_deterministic_and_seed_sensitive() {
        let a = SeededUxs::new(7, 4);
        let b = SeededUxs::new(7, 4);
        let c = SeededUxs::new(8, 4);
        assert_eq!(a.increment(5, 17), b.increment(5, 17));
        assert_ne!(a.increment(5, 17), c.increment(5, 17));
    }

    #[test]
    fn sequences_differ_across_k() {
        let u = SeededUxs::default();
        // Same index, different parameter: sequences should not coincide.
        let same = (0..20).all(|i| u.increment(3, i) == u.increment(4, i));
        assert!(!same);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn seeded_increment_bounds_checked() {
        let u = SeededUxs::new(1, 1);
        u.increment(1, 1);
    }

    #[test]
    fn table_uxs_lookup_and_fallback() {
        let t = TableUxs::new(vec![vec![1, 2], vec![3, 4, 5]]);
        assert_eq!(t.len(1), 2);
        assert_eq!(t.len(2), 3);
        assert_eq!(t.len(99), 3); // falls back to last table
        assert_eq!(t.increment(2, 1), 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn table_uxs_rejects_empty_table() {
        TableUxs::new(vec![vec![]]);
    }
}
