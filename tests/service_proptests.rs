//! Property-based tests for the deadline-driven coalescer: under
//! arbitrary arrival sequences, no admitted request waits past its
//! deadline without a typed timeout, no batch exceeds the lane cap,
//! dispatch is FIFO per shape with the oldest head served first, and
//! every admitted request is eventually accounted — batched or expired,
//! never both, never neither (no starvation).

use product_sort::service::{
    LaneVerdict, Poll, ServiceConfig, ServiceCore, ServiceError, ShapeSpec,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// SplitMix64: the test's own deterministic stream, independent of the
/// strategy seeds.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const SHAPE_KEYS: [u64; 2] = [4, 9];

fn config(budget_ns: u64, timeout_ns: u64, cap: usize) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 1 << 20, // adm. rungs out of the way: coalescer only
        shed_watermark: 0,
        coalesce_budget_ns: budget_ns,
        max_batch_lanes: cap,
        request_timeout_ns: timeout_ns,
        ..ServiceConfig::default()
    }
}

/// One admitted request the model still considers outstanding.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    shape: usize,
    enqueued_ns: u64,
}

/// Sweep expirations and drain due batches at `now`, checking every
/// coalescer invariant, and move resolved ids out of `outstanding`.
fn step(
    core: &mut ServiceCore,
    outstanding: &mut BTreeMap<u64, Tracked>,
    batched: &mut Vec<u64>,
    expired: &mut Vec<u64>,
    now: u64,
    timeout_ns: u64,
    cap: usize,
) -> Result<(), TestCaseError> {
    for p in core.take_expired(now) {
        let t = outstanding
            .remove(&p.id)
            .ok_or_else(|| TestCaseError::Fail(format!("expired unknown id {}", p.id)))?;
        prop_assert!(
            now.saturating_sub(t.enqueued_ns) >= timeout_ns,
            "id {} expired early at age {}",
            p.id,
            now - t.enqueued_ns
        );
        expired.push(p.id);
    }
    // Nothing left in the queue may be past its deadline.
    for (id, t) in outstanding.iter() {
        prop_assert!(
            now.saturating_sub(t.enqueued_ns) < timeout_ns,
            "id {id} is past deadline but was not timed out"
        );
    }
    loop {
        match core.poll(now) {
            Poll::Ready(batch) => {
                prop_assert!(
                    batch.entries.len() <= cap,
                    "batch of {} exceeds cap {cap}",
                    batch.entries.len()
                );
                prop_assert!(!batch.entries.is_empty(), "empty batch dispatched");
                let oldest_of_shape = outstanding
                    .iter()
                    .filter(|(_, t)| t.shape == batch.shape)
                    .map(|(id, _)| *id)
                    .next();
                prop_assert_eq!(
                    oldest_of_shape,
                    batch.entries.first().map(|p| p.id),
                    "dispatch must start at the shape's oldest request"
                );
                let mut prev = None;
                for lane in &batch.entries {
                    prop_assert!(
                        prev.is_none_or(|p| p < lane.id),
                        "batch ids out of FIFO order"
                    );
                    prev = Some(lane.id);
                    let t = outstanding.remove(&lane.id).ok_or_else(|| {
                        TestCaseError::Fail(format!("batched unknown id {}", lane.id))
                    })?;
                    prop_assert_eq!(t.shape, batch.shape, "lane in the wrong shape's batch");
                    batched.push(lane.id);
                    core.complete(
                        lane,
                        LaneVerdict::Sorted {
                            degraded: false,
                            retried: false,
                        },
                        now,
                    );
                }
            }
            Poll::Wait(wake) => {
                prop_assert!(wake > now, "Wait({wake}) is not in the future of {now}");
                break;
            }
            Poll::Idle => {
                prop_assert!(
                    outstanding.is_empty(),
                    "Idle with {} requests still queued",
                    outstanding.len()
                );
                break;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coalescer_meets_deadline_cap_and_fifo_invariants(
        seed in any::<u64>(),
        n_events in 1usize..100,
        budget_us in 1u64..300,
        timeout_us in 50u64..2_000,
        cap in 1usize..9,
        max_step_us in 1u64..200,
    ) {
        let budget_ns = budget_us * 1_000;
        let timeout_ns = timeout_us * 1_000;
        let shapes: Vec<ShapeSpec> = SHAPE_KEYS
            .iter()
            .map(|&expected_keys| ShapeSpec { expected_keys })
            .collect();
        let mut core = ServiceCore::new(config(budget_ns, timeout_ns, cap), shapes);

        let mut outstanding: BTreeMap<u64, Tracked> = BTreeMap::new();
        let mut batched = Vec::new();
        let mut expired = Vec::new();
        let mut admitted = 0u64;
        let mut now = 0u64;

        for i in 0..n_events {
            let r = splitmix(seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
            now += (r % (max_step_us * 1_000)).max(1);
            let tenant = (r >> 8) as u32 % 3;
            let shape = (r >> 16) as usize % SHAPE_KEYS.len();
            let keys = vec![r; SHAPE_KEYS[shape] as usize];
            match core.submit(tenant, shape, keys, now) {
                Ok(id) => {
                    admitted += 1;
                    outstanding.insert(id, Tracked { shape, enqueued_ns: now });
                }
                Err(ServiceError::Rejected(_)) => {}
                Err(other) => {
                    return Err(TestCaseError::Fail(format!("unexpected error: {other}")));
                }
            }
            step(&mut core, &mut outstanding, &mut batched, &mut expired,
                 now, timeout_ns, cap)?;
        }

        // Drain: advancing time must eventually resolve every request
        // (no starvation), well within a bounded number of rounds.
        let mut rounds = 0;
        while core.depth() > 0 {
            rounds += 1;
            prop_assert!(rounds <= n_events + 2, "queue failed to drain");
            now += budget_ns + timeout_ns;
            step(&mut core, &mut outstanding, &mut batched, &mut expired,
                 now, timeout_ns, cap)?;
        }
        prop_assert!(outstanding.is_empty(), "tracker out of sync with core");
        prop_assert_eq!(batched.len() as u64 + expired.len() as u64, admitted,
            "every admitted request resolves exactly once");
        let accepted = core.stats.total(|t| t.accepted);
        let resolved = core.stats.total(|t| t.completed) + core.stats.total(|t| t.timeouts);
        prop_assert_eq!(accepted, admitted);
        prop_assert_eq!(resolved, admitted);
    }
}
