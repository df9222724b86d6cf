//! Cold set-up contracts of the two entry points: a compiled `Machine`
//! reports the algorithm's logical unit counters, a service turns an
//! unusable shape away with a typed error instead of a panic, and a
//! `Machine` built over a service builder's program cache shares the
//! service's compiled program.

use product_sort::graph::{factories, Graph};
use product_sort::order::radix::Shape;
use product_sort::service::{ServiceConfig, ServiceError, SortService};
use product_sort::sim::netsort::network_sort;
use product_sort::sim::{
    ChargedEngine, CostModel, Hypercube2Sorter, Machine, MultiwayNSorter, OetSnakeSorter,
    PeriodicMergeSorter, Pg2Sorter, ProgramCache, ShearSorter, SorterChoice,
};
use std::sync::Arc;

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
fn registering_an_unusable_shape_is_a_typed_error() {
    let split = Graph::from_edges(4, &[(0, 1), (2, 3)]);
    let few_dims = "product needs at least two dimensions";
    let cases = [
        (split, 2, "factor graph must be connected"),
        (factories::star(4), 1, few_dims),
        (factories::star(4), 0, few_dims),
        (
            factories::path(1),
            2,
            "factor graph needs at least two nodes",
        ),
    ];
    for (factor, r, message) in &cases {
        let outcome = std::panic::catch_unwind(|| {
            SortService::builder(ServiceConfig::default())
                .register_shape(factor, *r)
                .err()
        });
        assert_eq!(
            outcome.expect("register_shape must not panic"),
            Some(ServiceError::Internal(message)),
            "factor={} r={r}",
            factor.name()
        );
    }
}

#[test]
fn a_machine_over_the_builders_program_cache_shares_the_services_program() {
    let factor = Machine::prepare_factor(&factories::complete_binary_tree(3));
    let r = 2;
    let len = Shape::new(factor.n(), r).len();
    let inputs: Vec<Vec<u64>> = (0..3u64)
        .map(|seed| (0..len).map(|x| (x * 37 + seed * 11) % 41).collect())
        .collect();
    for machine_first in [true, false] {
        let mut builder = SortService::builder(ServiceConfig::default());
        let cache = Arc::clone(builder.program_cache());
        let build = || Machine::compiled_with(&factor, r, SorterChoice::Auto, &cache);
        let mut machine = if machine_first {
            let machine = build();
            builder = builder.register_shape(&factor, r).expect("usable shape");
            machine
        } else {
            builder = builder.register_shape(&factor, r).expect("usable shape");
            build()
        };
        assert_eq!(
            [
                (cache.hits(), cache.misses()),
                (cache.kernel_hits(), cache.kernel_misses()),
                (cache.vertical_hits(), cache.vertical_misses()),
            ],
            [(1, 1); 3],
            "machine_first={machine_first}: every tier compiles once, then hits"
        );
        let service = builder.start();
        for keys in &inputs {
            let want = machine.sort(keys.clone()).expect("one key per node").keys;
            let got = service
                .submit(0, 0, keys.clone())
                .expect("admitted")
                .wait()
                .expect("sorted")
                .keys;
            assert_eq!(got, want, "machine_first={machine_first}");
        }
    }
}
