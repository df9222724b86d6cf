//! Overload-behavior tests: deterministic breaker transitions through
//! the service core, watermark shedding through the threaded service,
//! deadline timeouts under a manual clock, the fault-enabled
//! degradation ladder end to end, and a small smoke loadtest — every
//! submitted request must resolve to exactly one typed outcome, and
//! nothing may panic.

use product_sort::graph::factories;
use product_sort::service::{
    BreakerConfig, BreakerState, LaneVerdict, ManualClock, Poll, RateLimit, RejectReason,
    ServiceConfig, ServiceCore, ServiceError, ShapeSpec, SortService,
};
use product_sort::sim::netsort::is_snake_sorted;
use product_sort::sim::{BspMachine, FaultPlan};
use std::sync::Arc;

/// `path(3)^2`: 9 keys per request — small enough to batch by the
/// hundreds in-test.
const KEYS: usize = 9;

fn keys_desc() -> Vec<u64> {
    (0..KEYS as u64).rev().collect()
}

fn shape_spec() -> ShapeSpec {
    ShapeSpec {
        expected_keys: KEYS as u64,
    }
}

fn quick_config() -> ServiceConfig {
    ServiceConfig {
        coalesce_budget_ns: 0, // dispatch immediately
        workers: 2,
        ..ServiceConfig::default()
    }
}

fn build(config: ServiceConfig, plan: FaultPlan, clock: Option<Arc<ManualClock>>) -> SortService {
    let factor = factories::path(3);
    let mut builder = SortService::builder(config).fault_plan(plan);
    if let Some(clock) = clock {
        builder = builder.clock(clock);
    }
    builder
        .register_shape(&factor, 2)
        .expect("path(3) is connected")
        .start()
}

fn assert_sorted(keys: &[u64]) {
    let machine = BspMachine::new(&factories::path(3), 2);
    assert!(
        is_snake_sorted(machine.shape(), keys),
        "not snake-sorted: {keys:?}"
    );
}

// ---------------------------------------------------------------------
// End-to-end through the threaded service.
// ---------------------------------------------------------------------

#[test]
fn single_request_round_trips_sorted() {
    let service = build(quick_config(), FaultPlan::disabled(), None);
    let ticket = service.submit(0, 0, keys_desc()).expect("admitted");
    let response = ticket.wait().expect("sorted");
    assert_sorted(&response.keys);
    assert!(!response.degraded);
    assert_eq!(response.attempts, 1);
    let mut sorted = response.keys.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..KEYS as u64).collect::<Vec<_>>());
}

#[test]
fn sorter_choice_threads_through_the_builder_per_shape() {
    use product_sort::sim::SorterChoice;
    // Auto selection is per shape and picks the fewest compare-exchanges:
    // K_4 and the 7-node tree compile the multiway n-sorter (its relays
    // cost the clean tiers nothing), path(3) the OET snake's 36
    // comparators — and all answer correctly through the full batch
    // path.
    let service = SortService::builder(quick_config())
        .register_shape(&factories::complete(4), 2)
        .expect("K_4 is connected")
        .register_shape(&factories::path(3), 2)
        .expect("path(3) is connected")
        .register_shape(&factories::complete_binary_tree(3), 2)
        .expect("the tree is connected")
        .start();
    assert_eq!(service.shape_sorter(0), Some("multiway-nsorter"));
    assert_eq!(service.shape_sorter(1), Some("oet-snake"));
    assert_eq!(service.shape_sorter(2), Some("multiway-nsorter"));
    assert_eq!(service.shape_sorter(3), None);
    let k4_keys: Vec<u64> = (0..16u64).map(|x| (x * 13) % 17).collect();
    let t0 = service.submit(0, 0, k4_keys).expect("admitted");
    let t1 = service.submit(0, 1, keys_desc()).expect("admitted");
    let t2 = service
        .submit(0, 2, (0..49u64).rev().collect())
        .expect("admitted");
    let r0 = t0.wait().expect("sorted");
    let r1 = t1.wait().expect("sorted");
    let r2 = t2.wait().expect("sorted");
    let machine = BspMachine::new(&factories::complete(4), 2);
    assert!(is_snake_sorted(machine.shape(), &r0.keys));
    assert_sorted(&r1.keys);
    let tree = BspMachine::new(&factories::complete_binary_tree(3), 2);
    assert!(is_snake_sorted(tree.shape(), &r2.keys));
    drop(service);

    // A fixed choice is honored verbatim.
    let fixed = SortService::builder(quick_config())
        .sorter(SorterChoice::OetSnake)
        .register_shape(&factories::complete(4), 2)
        .expect("K_4 is connected")
        .start();
    assert_eq!(fixed.shape_sorter(0), Some("oet-snake"));
    let ticket = fixed.submit(0, 0, (0..16u64).rev().collect()).expect("ok");
    let resp = ticket.wait().expect("sorted");
    assert!(is_snake_sorted(machine.shape(), &resp.keys));
}

#[test]
fn wrong_key_count_and_unknown_shape_are_typed() {
    let service = build(quick_config(), FaultPlan::disabled(), None);
    match service.submit(0, 0, vec![1, 2, 3]) {
        Err(ServiceError::Rejected(RejectReason::InvalidRequest { expected, got })) => {
            assert_eq!((expected, got), (KEYS as u64, 3));
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    match service.submit(0, 9, keys_desc()) {
        Err(ServiceError::Rejected(RejectReason::UnknownShape { shape: 9 })) => {}
        other => panic!("expected UnknownShape, got {other:?}"),
    }
}

#[test]
fn queued_requests_are_answered_shutdown_on_drop() {
    let config = ServiceConfig {
        coalesce_budget_ns: u64::MAX, // nothing ever dispatches...
        max_batch_lanes: 1 << 20,     // ...and no batch fills
        request_timeout_ns: u64::MAX,
        workers: 1,
        ..ServiceConfig::default()
    };
    let clock = Arc::new(ManualClock::new());
    let mut service = build(config, FaultPlan::disabled(), Some(clock));
    let tickets: Vec<_> = (0..5)
        .map(|t| service.submit(t, 0, keys_desc()).expect("admitted"))
        .collect();
    service.shutdown();
    for ticket in tickets {
        match ticket.wait() {
            Err(ServiceError::Rejected(RejectReason::Shutdown)) => {}
            other => panic!("expected Shutdown, got {other:?}"),
        }
    }
    match service.submit(0, 0, keys_desc()) {
        Err(ServiceError::Rejected(RejectReason::Shutdown)) => {}
        other => panic!("expected Shutdown after stop, got {other:?}"),
    }
}

#[test]
fn deadline_expiry_yields_typed_timeout_under_manual_clock() {
    let config = ServiceConfig {
        coalesce_budget_ns: u64::MAX,
        max_batch_lanes: 1 << 20,
        request_timeout_ns: 1_000_000, // 1ms of service time
        workers: 1,
        ..ServiceConfig::default()
    };
    let clock = Arc::new(ManualClock::new());
    let service = build(config, FaultPlan::disabled(), Some(Arc::clone(&clock)));
    let ticket = service.submit(3, 0, keys_desc()).expect("admitted");
    clock.advance(2_000_000); // jump straight past the deadline
    match ticket.wait() {
        Err(ServiceError::Timeout { waited_ns }) => {
            assert!(waited_ns >= 1_000_000, "waited {waited_ns}ns");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.tenants[&3].timeouts, 1);
}

#[test]
fn watermark_sheds_before_hard_capacity() {
    let config = ServiceConfig {
        queue_capacity: 8,
        shed_watermark: 4,
        coalesce_budget_ns: u64::MAX, // frozen clock: queue only grows
        max_batch_lanes: 1 << 20,
        request_timeout_ns: u64::MAX,
        workers: 1,
        ..ServiceConfig::default()
    };
    let clock = Arc::new(ManualClock::new());
    let service = build(config, FaultPlan::disabled(), Some(clock));
    let _held: Vec<_> = (0..4)
        .map(|i| service.submit(i, 0, keys_desc()).expect("below watermark"))
        .collect();
    match service.submit(9, 0, keys_desc()) {
        Err(ServiceError::Rejected(RejectReason::LoadShed { depth: 4 })) => {}
        other => panic!("expected LoadShed at the watermark, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.queue_depth, 4);
    assert_eq!(stats.tenants[&9].shed, 1);
}

#[test]
fn per_tenant_rate_limit_spares_other_tenants() {
    let config = ServiceConfig {
        rate_limit: RateLimit {
            rate_per_sec: 1,
            burst: 2,
        },
        coalesce_budget_ns: u64::MAX,
        max_batch_lanes: 1 << 20,
        request_timeout_ns: u64::MAX,
        workers: 1,
        ..ServiceConfig::default()
    };
    let clock = Arc::new(ManualClock::new());
    let service = build(config, FaultPlan::disabled(), Some(clock));
    assert!(service.submit(1, 0, keys_desc()).is_ok());
    assert!(service.submit(1, 0, keys_desc()).is_ok());
    match service.submit(1, 0, keys_desc()) {
        Err(ServiceError::Rejected(RejectReason::RateLimited { tenant: 1 })) => {}
        other => panic!("expected RateLimited, got {other:?}"),
    }
    // Tenant 2 has its own bucket.
    assert!(service.submit(2, 0, keys_desc()).is_ok());
}

// ---------------------------------------------------------------------
// Deterministic breaker transitions through the admission path.
// ---------------------------------------------------------------------

#[test]
fn breaker_walks_closed_open_half_open_closed_through_the_core() {
    let config = ServiceConfig {
        coalesce_budget_ns: 0,
        max_batch_lanes: 4,
        breaker: BreakerConfig {
            window: 8,
            min_samples: 4,
            trip_pct: 50,
            cooldown_ns: 1_000,
            probe_quota: 2,
        },
        ..ServiceConfig::default()
    };
    let mut core = ServiceCore::new(config, vec![shape_spec()]);

    // Four failed lanes trip the breaker at t=100.
    for _ in 0..4 {
        core.submit(0, 0, keys_desc(), 0).expect("closed admits");
    }
    let Poll::Ready(batch) = core.poll(0) else {
        panic!("batch due immediately at budget 0")
    };
    assert_eq!(batch.entries.len(), 4);
    for lane in &batch.entries {
        core.complete(lane, LaneVerdict::Failed, 100);
    }
    assert_eq!(core.breaker_state(), BreakerState::Open { until_ns: 1_100 });

    // Open refuses with the typed reason until the cooldown elapses.
    match core.submit(0, 0, keys_desc(), 500) {
        Err(ServiceError::Rejected(RejectReason::BreakerOpen)) => {}
        other => panic!("expected BreakerOpen, got {other:?}"),
    }

    // At t=1_100 the breaker rolls half-open and admits two probes.
    core.submit(0, 0, keys_desc(), 1_100).expect("first probe");
    assert_eq!(core.breaker_state(), BreakerState::HalfOpen);
    core.submit(0, 0, keys_desc(), 1_100).expect("second probe");
    match core.submit(0, 0, keys_desc(), 1_100) {
        Err(ServiceError::Rejected(RejectReason::BreakerOpen)) => {}
        other => panic!("probe quota spent, got {other:?}"),
    }

    // Two probe successes close it and admissions flow again.
    let Poll::Ready(probes) = core.poll(1_100) else {
        panic!("probe batch due")
    };
    for lane in &probes.entries {
        core.complete(
            lane,
            LaneVerdict::Sorted {
                degraded: false,
                retried: false,
            },
            1_200,
        );
    }
    assert_eq!(core.breaker_state(), BreakerState::Closed);
    core.submit(0, 0, keys_desc(), 1_300).expect("closed again");
    assert_eq!(core.stats.breaker_opens, 1);
    assert_eq!(core.stats.tenants[&0].breaker_rejected, 2);
}

#[test]
fn quarantined_lanes_count_as_breaker_failures() {
    let config = ServiceConfig {
        coalesce_budget_ns: 0,
        max_batch_lanes: 4,
        breaker: BreakerConfig {
            window: 8,
            min_samples: 4,
            trip_pct: 50,
            cooldown_ns: 1_000,
            probe_quota: 2,
        },
        ..ServiceConfig::default()
    };
    let mut core = ServiceCore::new(config, vec![shape_spec()]);
    for _ in 0..4 {
        core.submit(0, 0, keys_desc(), 0).expect("admitted");
    }
    let Poll::Ready(batch) = core.poll(0) else {
        panic!("batch due")
    };
    // Degraded completions (the quarantine rung) are correct answers
    // but still failure signal for the breaker.
    for lane in &batch.entries {
        core.complete(
            lane,
            LaneVerdict::Sorted {
                degraded: true,
                retried: true,
            },
            50,
        );
    }
    assert_eq!(core.breaker_state(), BreakerState::Open { until_ns: 1_050 });
    assert_eq!(core.stats.tenants[&0].degraded, 4);
    assert_eq!(core.stats.tenants[&0].completed, 4);
}

// ---------------------------------------------------------------------
// The fault-enabled degradation ladder, end to end.
// ---------------------------------------------------------------------

#[test]
fn fault_plan_requests_still_sort_possibly_degraded() {
    let config = ServiceConfig {
        coalesce_budget_ns: 0,
        breaker: BreakerConfig {
            trip_pct: 0, // keep admitting: this test exercises the ladder
            ..BreakerConfig::default()
        },
        workers: 2,
        ..ServiceConfig::default()
    };
    // Heavy enough to force in-run retries and the occasional
    // quarantine, light enough that the ladder always lands a sort.
    let service = build(config, FaultPlan::random(0xfa17, 20_000), None);
    let tickets: Vec<_> = (0..64u32)
        .map(|i| {
            service
                .submit(i % 4, 0, keys_desc())
                .expect("admission is clean here")
        })
        .collect();
    let mut degraded = 0u32;
    for ticket in tickets {
        let response = ticket.wait().expect("ladder lands every request");
        assert_sorted(&response.keys);
        assert!(response.attempts >= 1);
        degraded += u32::from(response.degraded);
    }
    let stats = service.stats();
    assert_eq!(stats.total(|t| t.completed), 64);
    assert_eq!(stats.total(|t| t.degraded), u64::from(degraded));
    assert_eq!(stats.total(|t| t.failed), 0);
}

// ---------------------------------------------------------------------
// Smoke loadtest (tier-1): concurrent submitters, full accounting.
// ---------------------------------------------------------------------

#[test]
fn smoke_loadtest_accounts_for_every_request() {
    let config = ServiceConfig {
        queue_capacity: 256,
        shed_watermark: 192,
        coalesce_budget_ns: 200_000, // 0.2ms: real coalescing under load
        max_batch_lanes: 128,
        workers: 2,
        ..ServiceConfig::default()
    };
    let service = Arc::new(build(config, FaultPlan::disabled(), None));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 250;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let (mut ok, mut rejected) = (0u64, 0u64);
            for _ in 0..PER_THREAD {
                match service.submit(t as u32, 0, keys_desc()) {
                    Ok(ticket) => match ticket.wait() {
                        Ok(response) => {
                            assert!(is_snake_sorted(
                                BspMachine::new(&factories::path(3), 2).shape(),
                                &response.keys
                            ));
                            ok += 1;
                        }
                        Err(ServiceError::Timeout { .. }) => rejected += 1,
                        Err(e) => panic!("unexpected terminal error: {e}"),
                    },
                    Err(ServiceError::Rejected(_)) => rejected += 1,
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            (ok, rejected)
        }));
    }
    let (mut ok, mut rejected) = (0u64, 0u64);
    for h in handles {
        let (o, r) = h.join().expect("no panics in submitters");
        ok += o;
        rejected += r;
    }
    assert_eq!(
        ok + rejected,
        THREADS * PER_THREAD,
        "every request accounted"
    );
    let stats = service.stats();
    assert_eq!(stats.total(|t| t.submitted), THREADS * PER_THREAD);
    assert_eq!(stats.total(|t| t.completed), ok);
    assert!(stats.vertical_batches + stats.kernel_batches > 0);
}
