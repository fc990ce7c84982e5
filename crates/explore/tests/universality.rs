//! Universality and integrality guarantees for the UXS substitution (the
//! substitution note of `rv_explore`'s `uxs` module): the default provider
//! must behave, on every graph this workspace ever runs, exactly like the
//! universal exploration sequences whose existence the paper imports from
//! Reingold's theorem.

use proptest::prelude::*;
use rv_explore::{is_integral, verify_universal, SeededUxs};
use rv_graph::{generators, GraphFamily, NodeId};

/// Exhaustive check: for k = 4 the default sequence explores *every*
/// port-numbered graph of order ≤ 4 from *every* start node.
#[test]
fn default_uxs_is_universal_up_to_order_4() {
    let report = verify_universal(SeededUxs::default(), 4, 4);
    assert!(
        report.is_universal(),
        "default UXS failed on {} of {} applications",
        report.failures.len(),
        report.checked,
    );
    // 1 graph on 2 nodes, 14 port graphs on 3 nodes, and all on 4 nodes.
    assert!(
        report.checked > 1000,
        "enumeration shrank: {}",
        report.checked
    );
}

/// The quadratic provider must also be universal at small orders (it is the
/// provider the cost-sensitive experiments use).
#[test]
fn quadratic_uxs_is_universal_up_to_order_4() {
    let report = verify_universal(SeededUxs::quadratic(), 4, 4);
    assert!(
        report.is_universal(),
        "quadratic UXS failed on {} of {} applications",
        report.failures.len(),
        report.checked,
    );
}

/// Empirical integrality on every experiment family at a range of sizes,
/// from several start nodes, under shuffled port numberings.
#[test]
fn default_uxs_integral_on_all_experiment_families() {
    for fam in GraphFamily::ALL {
        for n in [4usize, 9, 16] {
            let g = fam.generate(n, 1234);
            let g = generators::with_shuffled_ports(&g, 5678);
            let k = g.order() as u64;
            for start in [0, g.order() / 2, g.order() - 1] {
                assert!(
                    is_integral(&g, SeededUxs::default(), k, NodeId(start)),
                    "{fam} n={n} start={start}: R({k}, ·) not integral"
                );
            }
        }
    }
}

#[test]
fn quadratic_uxs_integral_on_experiment_families_small() {
    for fam in GraphFamily::ALL {
        for n in [4usize, 8, 12] {
            let g = fam.generate(n, 99);
            let k = g.order() as u64;
            assert!(
                is_integral(&g, SeededUxs::quadratic(), k, NodeId(0)),
                "{fam} n={n}: quadratic R({k}, ·) not integral"
            );
        }
    }
}

/// Integrality is monotone in practice: if R(k, v) covers the graph, a
/// larger parameter must cover it too (longer sequence, same mechanism).
#[test]
fn integrality_holds_for_k_larger_than_order() {
    let g = generators::ring(7);
    for k in 7..12 {
        assert!(is_integral(&g, SeededUxs::default(), k, NodeId(3)), "k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random connected graphs with random port shuffles: R(n, ·) integral
    /// from a random start node.
    #[test]
    fn integral_on_random_graphs(
        n in 4usize..20,
        p in 0.1f64..0.9,
        seed in any::<u64>(),
        start_sel in any::<u64>(),
    ) {
        let g = generators::gnp_connected(n, p, seed);
        let g = generators::with_shuffled_ports(&g, seed ^ 0xABCD);
        let start = NodeId((start_sel % n as u64) as usize);
        prop_assert!(is_integral(&g, SeededUxs::default(), n as u64, start));
    }

    /// Trees are the sparse extreme; check them separately.
    #[test]
    fn integral_on_random_trees(n in 4usize..24, seed in any::<u64>()) {
        let g = generators::random_tree(n, seed);
        prop_assert!(is_integral(&g, SeededUxs::default(), n as u64, NodeId(0)));
    }
}
