//! Named graph families for the experiment harness.

use crate::{generators, Graph};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The graph families swept by the evaluation (experiment F1,
/// `expt_f1_cost_vs_n`, and the scenario matrix).
///
/// Each family maps a target order `n` to a concrete graph of order *close
/// to* `n` (exactly `n` wherever the family allows it); [`GraphFamily::generate`]
/// documents the rounding rule per family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphFamily {
    /// Cycle.
    Ring,
    /// Simple path — worst diameter.
    Path,
    /// Complete graph — maximum density.
    Complete,
    /// Square-ish grid.
    Grid,
    /// Hypercube of dimension `floor(log2 n)`.
    Hypercube,
    /// Uniformly random tree.
    RandomTree,
    /// Connected Erdős–Rényi with edge probability `2 ln n / n`.
    Gnp,
    /// Lollipop (clique + tail) — classical exploration adversary.
    Lollipop,
}

impl GraphFamily {
    /// All families, in the order reported by the experiments.
    pub const ALL: [GraphFamily; 8] = [
        GraphFamily::Ring,
        GraphFamily::Path,
        GraphFamily::Complete,
        GraphFamily::Grid,
        GraphFamily::Hypercube,
        GraphFamily::RandomTree,
        GraphFamily::Gnp,
        GraphFamily::Lollipop,
    ];

    /// Generates a member of the family with order close to `n`
    /// (Grid rounds to the nearest `w × h` rectangle, Hypercube to the
    /// nearest power of two; others are exact). Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (the smallest order supported by every family).
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        assert!(n >= 4, "families are defined for n >= 4");
        match self {
            GraphFamily::Ring => generators::ring(n),
            GraphFamily::Path => generators::path(n),
            GraphFamily::Complete => generators::complete(n),
            GraphFamily::Grid => {
                let w = (n as f64).sqrt().round() as usize;
                let w = w.max(2);
                let h = n.div_ceil(w);
                generators::grid(w, h.max(2))
            }
            GraphFamily::Hypercube => {
                let d = (usize::BITS - 1 - n.leading_zeros()) as usize;
                generators::hypercube(d.max(2))
            }
            GraphFamily::RandomTree => generators::random_tree(n, seed),
            GraphFamily::Gnp => {
                let p = (2.0 * (n as f64).ln() / n as f64).min(1.0);
                generators::gnp_connected(n, p, seed)
            }
            GraphFamily::Lollipop => {
                let clique = (n / 2).max(3);
                let tail = n.saturating_sub(clique).max(1);
                generators::lollipop(clique, tail)
            }
        }
    }
}

impl fmt::Display for GraphFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GraphFamily::Ring => "ring",
            GraphFamily::Path => "path",
            GraphFamily::Complete => "complete",
            GraphFamily::Grid => "grid",
            GraphFamily::Hypercube => "hypercube",
            GraphFamily::RandomTree => "random-tree",
            GraphFamily::Gnp => "gnp",
            GraphFamily::Lollipop => "lollipop",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;

    #[test]
    fn every_family_generates_valid_graphs_at_various_sizes() {
        for fam in GraphFamily::ALL {
            for n in [4, 8, 13, 21] {
                let g = fam.generate(n, 17);
                validate(&g).unwrap_or_else(|e| panic!("{fam} n={n}: {e}"));
            }
        }
    }

    #[test]
    fn exact_families_hit_exact_order() {
        for fam in [
            GraphFamily::Ring,
            GraphFamily::Path,
            GraphFamily::Complete,
            GraphFamily::RandomTree,
            GraphFamily::Gnp,
        ] {
            assert_eq!(fam.generate(13, 5).order(), 13, "{fam}");
        }
    }

    #[test]
    fn hypercube_rounds_to_power_of_two() {
        let g = GraphFamily::Hypercube.generate(13, 0);
        assert_eq!(g.order(), 8);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(GraphFamily::Ring.to_string(), "ring");
        assert_eq!(GraphFamily::Gnp.to_string(), "gnp");
    }
}
