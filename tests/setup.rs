//! Cold set-up contracts of the two entry points: a compiled `Machine`
//! reports the algorithm's logical unit counters, and a service turns an
//! unusable factor away with a typed error instead of a panic.

use product_sort::graph::{factories, Graph};
use product_sort::order::radix::Shape;
use product_sort::service::{ServiceConfig, ServiceError, SortService};
use product_sort::sim::netsort::network_sort;
use product_sort::sim::{
    ChargedEngine, CostModel, Hypercube2Sorter, Machine, MultiwayNSorter, OetSnakeSorter,
    PeriodicMergeSorter, Pg2Sorter, ProgramCache, ShearSorter, SorterChoice,
};

/// The counters a unit-cost charged replay of the whole algorithm
/// reports on `factor^r`.
fn charged_counters(factor: &Graph, r: usize) -> product_sort::algo::Counters {
    let shape = Shape::new(factor.n(), r);
    let mut keys: Vec<u64> = (0..shape.len()).rev().collect();
    let mut engine = ChargedEngine::new(CostModel::custom("unit", 1, 1));
    network_sort(shape, &mut keys, &mut engine).counters
}

/// A compiled machine reports the charged replay's counters on every
/// sort.
fn assert_counters_match(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) {
    let cache = ProgramCache::new();
    let expected = charged_counters(factor, r);
    let keys: Vec<u64> = (0..Shape::new(factor.n(), r).len()).rev().collect();
    let mut machine = Machine::compiled(factor, r, sorter, &cache);
    let report = machine.sort(keys).expect("one key per node");
    assert!(report.is_snake_sorted());
    assert_eq!(
        report.outcome.counters,
        expected,
        "factor={} r={r} sorter={}",
        factor.name(),
        sorter.name()
    );
}

#[test]
fn compiled_machines_report_the_charged_replay_counters() {
    // Every (factor, r, sorter) the differential harness runs.
    let cases: Vec<(Graph, usize, &dyn Pg2Sorter)> = vec![
        (factories::path(4), 2, &ShearSorter),
        (factories::path(4), 3, &ShearSorter),
        (factories::path(3), 4, &ShearSorter),
        (factories::cycle(5), 2, &ShearSorter),
        (factories::cycle(4), 3, &ShearSorter),
        (factories::k2(), 2, &Hypercube2Sorter),
        (factories::k2(), 3, &Hypercube2Sorter),
        (factories::k2(), 4, &Hypercube2Sorter),
        (factories::k2(), 8, &Hypercube2Sorter),
        (factories::complete(4), 2, &MultiwayNSorter),
        (factories::complete(4), 3, &MultiwayNSorter),
        (factories::path(4), 2, &MultiwayNSorter),
        (
            Machine::prepare_factor(&factories::petersen()),
            2,
            &ShearSorter,
        ),
        (
            Machine::prepare_factor(&factories::de_bruijn(2)),
            2,
            &OetSnakeSorter,
        ),
        (
            Machine::prepare_factor(&factories::de_bruijn(2)),
            3,
            &OetSnakeSorter,
        ),
        (factories::star(4), 2, &OetSnakeSorter),
        (factories::star(5), 2, &OetSnakeSorter),
    ];
    for (factor, r, sorter) in &cases {
        assert_counters_match(factor, *r, *sorter);
    }
    let periodic = PeriodicMergeSorter::default();
    let periodic_extra = PeriodicMergeSorter::with_extra_blocks(1);
    assert_counters_match(&factories::complete(4), 2, &periodic);
    assert_counters_match(&factories::cycle(4), 2, &periodic);
    assert_counters_match(&factories::complete(4), 2, &periodic_extra);

    // The auto-selected sorters: the differential harness's three
    // factors, plus the benchmark's star and mesh-connected-tree shapes.
    for (factor, r) in [
        (factories::complete(4), 2),
        (factories::path(4), 2),
        (factories::k2(), 2),
        (factories::star(4), 3),
        (factories::complete_binary_tree(3), 3),
    ] {
        let factor = Machine::prepare_factor(&factor);
        assert_counters_match(&factor, r, SorterChoice::Auto.resolve(&factor));
    }
}

#[test]
fn registering_a_disconnected_factor_is_a_typed_error() {
    let split = Graph::from_edges(4, &[(0, 1), (2, 3)]);
    let outcome = std::panic::catch_unwind(|| {
        SortService::builder(ServiceConfig::default())
            .register_shape(&split, 2)
            .err()
    });
    assert_eq!(
        outcome.expect("register_shape must not panic"),
        Some(ServiceError::Internal("factor graph must be connected"))
    );
}
