//! Cross-crate integration: the simulator machines, the sequence-level
//! algorithm, and plain sorting must all agree, on every Section 5
//! network family; the charged and executed machines' checked sorts,
//! which assert the inter-stage invariant, agree with their plain
//! ones.

use product_sort::algo::{multiway_merge_sort, StdBaseSorter};
use product_sort::graph::{factories, Graph};
use product_sort::sim::{
    CostModel, Hypercube2Sorter, Machine, OetSnakeSorter, Pg2Sorter, ShearSorter, SortReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(0..10_000)).collect()
}

/// Sort `keys` through `sort` and through `sort_checked`, which asserts
/// the inter-stage invariant: both must land the same keys with the
/// same outcome.
fn sort_both_ways(machine: &mut Machine, keys: Vec<u64>) -> SortReport<u64> {
    let checked = machine.sort_checked(keys.clone()).expect("key count");
    let report = machine.sort(keys).expect("key count");
    assert_eq!(checked.keys, report.keys, "sort_checked lands other keys");
    assert_eq!(
        checked.outcome, report.outcome,
        "sort_checked reports another outcome"
    );
    report
}

fn check_charged(factor: &Graph, r: usize, model: CostModel, seed: u64) {
    let mut machine = Machine::charged(factor, r, model.clone());
    let len = (factor.n() as u64).pow(r as u32);
    let keys = random_keys(len, seed);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let report = sort_both_ways(&mut machine, keys);
    assert!(report.is_snake_sorted(), "{factor:?} r={r}");
    assert_eq!(
        report.steps(),
        model.predicted_sort_steps(r),
        "{factor:?} r={r}"
    );
    assert_eq!(report.into_sorted_vec(), expect, "{factor:?} r={r}");
}

#[test]
fn charged_machines_sort_all_section5_networks() {
    check_charged(&factories::path(8), 3, CostModel::paper_grid(8), 1);
    check_charged(&factories::cycle(8), 3, CostModel::paper_torus(8), 2);
    check_charged(&factories::k2(), 8, CostModel::paper_hypercube(), 3);
    check_charged(&factories::petersen(), 2, CostModel::paper_petersen(), 4);
    check_charged(
        &factories::de_bruijn(3),
        3,
        CostModel::paper_de_bruijn(3),
        5,
    );
    check_charged(
        &factories::shuffle_exchange(3),
        3,
        CostModel::paper_de_bruijn(3),
        6,
    );
    check_charged(
        &factories::complete_binary_tree(3),
        2,
        CostModel::paper_universal(7),
        7,
    );
}

fn check_executed(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter, seed: u64) {
    let mut machine = Machine::executed(factor, r, sorter);
    let len = (factor.n() as u64).pow(r as u32);
    let keys = random_keys(len, seed);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let report = sort_both_ways(&mut machine, keys);
    assert!(report.is_snake_sorted(), "{factor:?} r={r}");
    assert_eq!(report.into_sorted_vec(), expect, "{factor:?} r={r}");
}

#[test]
fn executed_machines_sort_with_real_programs() {
    check_executed(&factories::path(4), 3, &ShearSorter, 11);
    check_executed(&factories::path(5), 2, &OetSnakeSorter, 12);
    check_executed(&factories::k2(), 7, &Hypercube2Sorter, 13);
    check_executed(&factories::cycle(6), 2, &ShearSorter, 14);
    check_executed(
        &Machine::prepare_factor(&factories::petersen()),
        2,
        &ShearSorter,
        15,
    );
    check_executed(
        &Machine::prepare_factor(&factories::complete_binary_tree(3)),
        2,
        &OetSnakeSorter,
        16,
    );
    check_executed(
        &Machine::prepare_factor(&factories::de_bruijn(3)),
        2,
        &ShearSorter,
        17,
    );
}

#[test]
fn network_sequence_and_std_sorts_agree() {
    for (n, r, seed) in [(3usize, 4usize, 21u64), (4, 3, 22), (2, 7, 23)] {
        let len = (n as u64).pow(r as u32);
        let keys = random_keys(len, seed);

        let (seq_sorted, seq_counters) = multiway_merge_sort(&keys, n, &StdBaseSorter);

        let factor = factories::path(n);
        let mut machine = Machine::charged(&factor, r, CostModel::paper_grid(n));
        let report = machine.sort(keys.clone()).expect("key count");

        let mut std_sorted = keys;
        std_sorted.sort_unstable();

        assert_eq!(seq_sorted, std_sorted);
        assert_eq!(report.clone().into_sorted_vec(), std_sorted);
        // The network simulator spends exactly the same units as the
        // sequence-level algorithm.
        assert_eq!(report.outcome.counters.s2_units, seq_counters.s2_units);
        assert_eq!(
            report.outcome.counters.route_units,
            seq_counters.route_units
        );
    }
}

#[test]
fn executed_and_charged_produce_identical_configurations() {
    // The algorithms are oblivious: both engines must land every key on
    // the same node.
    let factor = factories::path(4);
    let keys = random_keys(64, 31);

    let mut charged = Machine::charged(&factor, 3, CostModel::paper_grid(4));
    let a = charged.sort(keys.clone()).expect("key count");

    let mut executed = Machine::executed(&factor, 3, &ShearSorter);
    let b = executed.sort(keys).expect("key count");

    assert_eq!(a.keys, b.keys, "final node-indexed configurations differ");
}

#[test]
fn repeat_sorting_is_idempotent() {
    let factor = factories::cycle(5);
    let mut machine = Machine::charged(&factor, 3, CostModel::paper_torus(5));
    let keys = random_keys(125, 41);
    let once = machine.sort(keys).expect("key count");
    let twice = machine.sort(once.keys.clone()).expect("key count");
    assert_eq!(
        once.keys, twice.keys,
        "sorting a sorted configuration moves keys"
    );
}
