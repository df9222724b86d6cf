//! The service's batch rungs, end to end: requests coalesced under a
//! frozen clock leave as one batch when the clock passes the coalescing
//! budget, and every reply is its own input, sorted.

use product_sort::graph::factories;
use product_sort::order::radix::Shape;
use product_sort::service::{ManualClock, ServiceConfig, SortService};
use product_sort::sim::netsort::read_snake_order;
use product_sort::sim::Machine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// `star(4)^2`: 16 keys per request.
const N: usize = 4;
const R: usize = 2;

/// Submit `requests` vectors while the clock is frozen, advance it past
/// the coalescing budget, and check every reply against `std` sorting.
/// Returns the service's `(vertical, kernel)` batch counts.
fn one_coalesced_batch(requests: usize, seed: u64) -> (u64, u64) {
    let factor = Machine::prepare_factor(&factories::star(N));
    let shape = Shape::new(factor.n(), R);
    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    assert!(
        requests < config.max_batch_lanes,
        "the cap must not release it"
    );
    let budget = config.coalesce_budget_ns;
    let clock = Arc::new(ManualClock::new());
    let service = SortService::builder(config)
        .clock(Arc::clone(&clock) as _)
        .register_shape(&factor, R)
        .expect("star(4) is connected")
        .start();

    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<Vec<u64>> = (0..requests)
        .map(|_| (0..shape.len()).map(|_| rng.random_range(0..64)).collect())
        .collect();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|keys| service.submit(0, 0, keys.clone()).expect("admitted"))
        .collect();
    // Nothing is due while the clock stands still.
    assert_eq!(service.stats().total(|t| t.completed), 0);
    clock.advance(budget + 1);

    for (ticket, input) in tickets.into_iter().zip(&inputs) {
        let reply = ticket.wait().expect("sorted");
        let mut expected = input.clone();
        expected.sort_unstable();
        assert_eq!(read_snake_order(shape, &reply.keys), expected);
        assert!(!reply.degraded);
        assert_eq!(reply.attempts, 1);
    }
    let stats = service.stats();
    assert_eq!(stats.total(|t| t.completed), requests as u64);
    (stats.vertical_batches, stats.kernel_batches)
}

#[test]
fn a_ragged_wide_batch_runs_as_one_vertical_batch() {
    // Three even column blocks of 44 + 43 + 43 lanes.
    assert_eq!(one_coalesced_batch(130, 0x5e41), (1, 0));
}

#[test]
fn a_narrow_batch_runs_as_one_kernel_batch() {
    // Below VERTICAL_MIN_LANES (4): one kernel run per lane.
    assert_eq!(one_coalesced_batch(3, 0x5e42), (0, 1));
}

#[test]
fn a_five_lane_batch_runs_as_one_vertical_batch() {
    // From VERTICAL_MIN_LANES on, one column block of 5 lanes.
    assert_eq!(one_coalesced_batch(5, 0x5e43), (1, 0));
}
