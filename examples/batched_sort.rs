//! Batched sorting through the compiled-program cache.
//!
//! Compile the Petersen-square schedule once, sort a batch of key
//! vectors in parallel, then build a second machine on the same
//! topology and watch it reuse the cached program.
//!
//! ```text
//! cargo run --release --example batched_sort
//! ```

use product_sort::graph::factories;
use product_sort::sim::{Machine, ProgramCache, ShearSorter};

fn main() {
    let factor = Machine::prepare_factor(&factories::petersen());
    let cache = ProgramCache::new();
    let mut machine = Machine::compiled(&factor, 2, &ShearSorter, &cache);
    let n = machine.shape().len();

    // A batch of scrambled key vectors, sorted in one call.
    let batch: Vec<Vec<u64>> = (0..8u64)
        .map(|s| (0..n).map(|x| (x * 37 + s * 11) % 101).collect())
        .collect();
    let reports: Vec<_> = machine
        .sort_batch(batch)
        .into_iter()
        .map(|rep| rep.expect("every vector has n keys"))
        .collect();
    assert!(reports
        .iter()
        .all(product_sort::sim::SortReport::is_snake_sorted));
    println!(
        "sorted {} vectors of {} keys in {} compiled rounds each",
        reports.len(),
        n,
        reports[0].steps()
    );

    // Same topology again: served from the cache, no recompilation.
    let mut again = Machine::compiled(&factor, 2, &ShearSorter, &cache);
    println!(
        "second machine: cache hits = {}, misses = {} (zero recompiles)",
        cache.hits(),
        cache.misses()
    );

    // The cached machine sorts exactly like the first one.
    let keys: Vec<u64> = (0..n).rev().collect();
    let first = machine.sort_checked(keys.clone()).expect("n keys");
    let second = again.sort_checked(keys).expect("n keys");
    assert_eq!(first.keys, second.keys);
    println!("both machines: {} rounds, identical output", second.steps());

    // Wrong-length vectors degrade their own lane, nothing else.
    let err = again.sort_batch(vec![vec![1u64, 2, 3]])[0]
        .as_ref()
        .unwrap_err()
        .clone();
    println!("short vector rejected: {err}");
}
