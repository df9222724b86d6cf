//! The deterministic service core: bounded intake, admission control,
//! and the deadline-driven batch coalescer.
//!
//! Everything time-dependent takes an explicit `now_ns`, and nothing in
//! here spawns a thread or touches a real clock — the core is a state
//! machine the threaded front-end ([`crate::SortService`]) drives under
//! a lock, and tests drive directly with hand-picked timestamps. One
//! `submit` walks the admission pipeline in a fixed order (shape check →
//! breaker → tenant token bucket → shed watermark → hard capacity), so
//! a rejected request maps to exactly one typed [`RejectReason`] and
//! one metric. The hard capacity is checked before the shed watermark,
//! so [`RejectReason::QueueFull`] marks the absolute bound and
//! [`RejectReason::LoadShed`] the band beneath it.
//!
//! Coalescing: requests queue FIFO per registered shape. A shape group
//! becomes *due* when it holds [`ServiceConfig::max_batch_lanes`]
//! requests (a full batch amortizes best) or when its oldest request
//! has waited [`ServiceConfig::coalesce_budget_ns`] (the latency
//! budget). [`ServiceCore::poll`] releases the due group with the
//! oldest head first, so no shape starves behind a busier one, and
//! batches always drain from the front — FIFO within a group.

use crate::admission::{RateLimit, TokenBucket};
use crate::breaker::{Breaker, BreakerConfig};
use crate::error::{RejectReason, ServiceError};
use crate::stats::ServiceStats;
use pns_fault::RetryPolicy;
use std::collections::{HashMap, VecDeque};

/// Tuning for the service core and its threaded front-end.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Hard cap on total queued requests across all shapes; submissions
    /// beyond it are [`RejectReason::QueueFull`]. The queue can never
    /// grow past this — bounded by construction.
    pub queue_capacity: usize,
    /// Queue depth at which global load shedding starts
    /// ([`RejectReason::LoadShed`]). `0` disables shedding (only the
    /// hard capacity rejects).
    pub shed_watermark: usize,
    /// Latency budget: a shape group is released to the executor once
    /// its oldest request has waited this long, full batch or not.
    pub coalesce_budget_ns: u64,
    /// Most lanes one batch may carry (and the group size that makes a
    /// batch due immediately).
    pub max_batch_lanes: usize,
    /// Queue deadline: a request not picked into a batch within this
    /// window expires with a typed [`ServiceError::Timeout`].
    pub request_timeout_ns: u64,
    /// Per-tenant token-bucket limits (uniform across tenants).
    pub rate_limit: RateLimit,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Service-level retry attempts per lane (rung 3 of the degradation
    /// ladder), on top of the executor's in-run checkpoint retries.
    pub service_retries: u32,
    /// Backoff schedule for those service-level retries
    /// ([`RetryPolicy::backoff_ns`]; also the in-run retry policy).
    pub retry_policy: RetryPolicy,
    /// Worker threads the front-end spawns: the service's parallelism.
    /// Each worker runs its batch on its own thread, serially, so a
    /// service uses at most this many executor threads and spawns none
    /// per batch.
    pub workers: usize,
}

impl Default for ServiceConfig {
    /// 4096-deep queue shedding at 3072, 1 ms coalesce budget, 256-lane
    /// batches, 250 ms deadline, no tenant rate limit, default breaker,
    /// 2 service retries with 100 µs/10 ms backoff, 2 workers.
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 4096,
            shed_watermark: 3072,
            coalesce_budget_ns: 1_000_000,
            max_batch_lanes: 256,
            request_timeout_ns: 250_000_000,
            rate_limit: RateLimit::default(),
            breaker: BreakerConfig::default(),
            service_retries: 2,
            retry_policy: RetryPolicy::default().with_backoff(100_000, 10_000_000, 0x5e47_1ce5),
            workers: 2,
        }
    }
}

/// What a registered shape expects of its requests.
#[derive(Debug, Clone, Copy)]
pub struct ShapeSpec {
    /// Keys per request (one per node: `N^r`).
    pub expected_keys: u64,
}

/// One admitted request waiting in (or drained from) the queue.
#[derive(Debug, Clone)]
pub struct Pending {
    /// Service-assigned request id (unique per core).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: u32,
    /// The keys to sort.
    pub keys: Vec<u64>,
    /// Admission timestamp.
    pub enqueued_ns: u64,
}

/// A coalesced batch ready for the executor.
#[derive(Debug)]
pub struct Batch {
    /// Which registered shape the lanes share.
    pub shape: usize,
    /// The lanes, oldest first.
    pub entries: Vec<Pending>,
}

/// What [`ServiceCore::poll`] found.
#[derive(Debug)]
pub enum Poll {
    /// A batch is due; execute it.
    Ready(Batch),
    /// Nothing due before this absolute time (re-poll then, or when a
    /// new request arrives).
    Wait(u64),
    /// The queue is empty.
    Idle,
}

/// How one lane of a batch ended, reported back via
/// [`ServiceCore::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneVerdict {
    /// Sorted. `degraded` marks the quarantine rung (clean serial
    /// re-run); `retried` marks service-level retries before success.
    Sorted {
        /// Went through the quarantine rung.
        degraded: bool,
        /// Needed at least one service-level retry.
        retried: bool,
    },
    /// Terminal failure (typed error went back to the caller).
    Failed,
}

/// The deterministic admission + coalescing state machine.
#[derive(Debug)]
pub struct ServiceCore {
    config: ServiceConfig,
    shapes: Vec<ShapeSpec>,
    /// FIFO queue per shape.
    groups: Vec<VecDeque<Pending>>,
    depth: usize,
    next_id: u64,
    buckets: HashMap<u32, TokenBucket>,
    breaker: Breaker,
    /// Lifecycle counters and histograms (exported via
    /// [`ServiceStats::export_to`]).
    pub stats: ServiceStats,
}

impl ServiceCore {
    /// A core accepting requests for `shapes`.
    #[must_use]
    pub fn new(config: ServiceConfig, shapes: Vec<ShapeSpec>) -> Self {
        let groups = shapes.iter().map(|_| VecDeque::new()).collect();
        ServiceCore {
            breaker: Breaker::new(config.breaker),
            config,
            shapes,
            groups,
            depth: 0,
            next_id: 0,
            buckets: HashMap::new(),
            stats: ServiceStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Total requests currently queued.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Current breaker state (for gauges/tests).
    #[must_use]
    pub fn breaker_state(&self) -> crate::breaker::BreakerState {
        self.breaker.state()
    }

    /// Walk the admission pipeline and enqueue on success, returning
    /// the assigned request id. Each failure is one typed
    /// [`RejectReason`] — the request never partially enters the queue.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Rejected`] with the rung that turned it away.
    pub fn submit(
        &mut self,
        tenant: u32,
        shape: usize,
        keys: Vec<u64>,
        now_ns: u64,
    ) -> Result<u64, ServiceError> {
        self.stats.tenant(tenant).submitted += 1;
        let Some(spec) = self.shapes.get(shape) else {
            self.stats.tenant(tenant).invalid += 1;
            return Err(RejectReason::UnknownShape { shape }.into());
        };
        if keys.len() as u64 != spec.expected_keys {
            self.stats.tenant(tenant).invalid += 1;
            return Err(RejectReason::InvalidRequest {
                expected: spec.expected_keys,
                got: keys.len(),
            }
            .into());
        }
        if !self.breaker.admit(now_ns) {
            self.stats.tenant(tenant).breaker_rejected += 1;
            self.sync_gauges();
            return Err(RejectReason::BreakerOpen.into());
        }
        let limit = self.config.rate_limit;
        let bucket = self
            .buckets
            .entry(tenant)
            .or_insert_with(|| TokenBucket::new(limit, now_ns));
        if !bucket.try_admit(limit, now_ns) {
            self.stats.tenant(tenant).rate_limited += 1;
            return Err(RejectReason::RateLimited { tenant }.into());
        }
        if self.depth >= self.config.queue_capacity {
            self.stats.tenant(tenant).queue_full += 1;
            return Err(RejectReason::QueueFull {
                capacity: self.config.queue_capacity,
            }
            .into());
        }
        if self.config.shed_watermark > 0 && self.depth >= self.config.shed_watermark {
            self.stats.tenant(tenant).shed += 1;
            return Err(RejectReason::LoadShed { depth: self.depth }.into());
        }
        let id = self.next_id;
        self.next_id += 1;
        self.groups[shape].push_back(Pending {
            id,
            tenant,
            keys,
            enqueued_ns: now_ns,
        });
        self.depth += 1;
        self.stats.tenant(tenant).accepted += 1;
        self.sync_gauges();
        Ok(id)
    }

    /// Drain every queued request whose deadline has passed. Call
    /// before [`ServiceCore::poll`] so expired requests get their typed
    /// [`ServiceError::Timeout`] instead of riding a late batch.
    /// Returns the expired entries (oldest first per shape) for the
    /// caller to answer.
    pub fn take_expired(&mut self, now_ns: u64) -> Vec<Pending> {
        let timeout = self.config.request_timeout_ns;
        let mut expired = Vec::new();
        for group in &mut self.groups {
            while let Some(p) = group
                .front()
                .is_some_and(|p| now_ns.saturating_sub(p.enqueued_ns) >= timeout)
                .then(|| group.pop_front())
                .flatten()
            {
                self.depth -= 1;
                self.stats.tenant(p.tenant).timeouts += 1;
                expired.push(p);
            }
        }
        if !expired.is_empty() {
            self.sync_gauges();
        }
        expired
    }

    /// Release the most overdue due batch, or say when to come back.
    /// FIFO per shape; among due shapes the oldest head wins, so no
    /// shape starves behind a busier one.
    pub fn poll(&mut self, now_ns: u64) -> Poll {
        let budget = self.config.coalesce_budget_ns;
        let cap = self.config.max_batch_lanes.max(1);
        let mut due: Option<(usize, u64)> = None; // (shape, head enqueue time)
        let mut next_wake: Option<u64> = None;
        for (shape, group) in self.groups.iter().enumerate() {
            let Some(head) = group.front() else { continue };
            if group.len() >= cap || now_ns.saturating_sub(head.enqueued_ns) >= budget {
                if due.is_none_or(|(_, t)| head.enqueued_ns < t) {
                    due = Some((shape, head.enqueued_ns));
                }
            } else {
                let wake = head.enqueued_ns.saturating_add(budget);
                if next_wake.is_none_or(|w| wake < w) {
                    next_wake = Some(wake);
                }
            }
        }
        if let Some((shape, _)) = due {
            let group = &mut self.groups[shape];
            let take = group.len().min(cap);
            let entries: Vec<Pending> = group.drain(..take).collect();
            self.depth -= entries.len();
            self.sync_gauges();
            return Poll::Ready(Batch { shape, entries });
        }
        match next_wake {
            Some(w) => Poll::Wait(w),
            None => Poll::Idle,
        }
    }

    /// Record one executed lane's outcome: latency + lifecycle counters
    /// for the tenant, and a success/failure sample for the breaker.
    pub fn complete(&mut self, lane: &Pending, verdict: LaneVerdict, now_ns: u64) {
        let waited = now_ns.saturating_sub(lane.enqueued_ns);
        let failed = match verdict {
            LaneVerdict::Sorted { degraded, retried } => {
                let t = self.stats.tenant(lane.tenant);
                t.completed += 1;
                t.latency.record(waited);
                if degraded {
                    t.degraded += 1;
                }
                if retried {
                    self.stats.retried_lanes += 1;
                }
                degraded
            }
            LaneVerdict::Failed => {
                self.stats.tenant(lane.tenant).failed += 1;
                true
            }
        };
        self.breaker.record(failed, now_ns);
        self.sync_gauges();
    }

    /// Note which tier a dispatched batch ran on (for the tier mix
    /// counters).
    pub fn note_batch(&mut self, vertical: bool) {
        if vertical {
            self.stats.vertical_batches += 1;
        } else {
            self.stats.kernel_batches += 1;
        }
    }

    /// Drain *everything* still queued (for shutdown): the entries are
    /// returned so the caller can answer them with
    /// [`RejectReason::Shutdown`].
    pub fn drain_all(&mut self) -> Vec<Pending> {
        let mut all = Vec::with_capacity(self.depth);
        for group in &mut self.groups {
            all.extend(group.drain(..));
        }
        self.depth = 0;
        self.sync_gauges();
        all
    }

    fn sync_gauges(&mut self) {
        self.stats.queue_depth = self.depth;
        self.stats.breaker_state = self.breaker.state().code();
        self.stats.breaker_opens = self.breaker.opens();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;

    fn core(config: ServiceConfig) -> ServiceCore {
        ServiceCore::new(config, vec![ShapeSpec { expected_keys: 4 }])
    }

    fn tiny_config() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 4,
            shed_watermark: 3,
            coalesce_budget_ns: 1_000,
            max_batch_lanes: 2,
            request_timeout_ns: 10_000,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn admission_pipeline_rejects_with_one_typed_reason_each() {
        let mut c = core(tiny_config());
        assert!(matches!(
            c.submit(0, 9, vec![1, 2, 3, 4], 0),
            Err(ServiceError::Rejected(RejectReason::UnknownShape {
                shape: 9
            }))
        ));
        assert!(matches!(
            c.submit(0, 0, vec![1], 0),
            Err(ServiceError::Rejected(RejectReason::InvalidRequest {
                expected: 4,
                got: 1
            }))
        ));
        // Fill to the watermark, then shed.
        for _ in 0..3 {
            c.submit(0, 0, vec![1, 2, 3, 4], 0).expect("admitted");
        }
        assert!(matches!(
            c.submit(0, 0, vec![1, 2, 3, 4], 0),
            Err(ServiceError::Rejected(RejectReason::LoadShed { depth: 3 }))
        ));
        assert_eq!(c.depth(), 3);
        assert_eq!(c.stats.tenant(0).shed, 1);
        assert_eq!(c.stats.tenant(0).accepted, 3);
    }

    #[test]
    fn hard_capacity_bounds_the_queue() {
        let mut c = core(ServiceConfig {
            shed_watermark: 0, // shedding off: reach the hard cap
            ..tiny_config()
        });
        for _ in 0..4 {
            c.submit(0, 0, vec![1, 2, 3, 4], 0).expect("admitted");
        }
        assert!(matches!(
            c.submit(0, 0, vec![1, 2, 3, 4], 0),
            Err(ServiceError::Rejected(RejectReason::QueueFull {
                capacity: 4
            }))
        ));
        assert_eq!(c.depth(), 4, "never exceeds capacity");
    }

    #[test]
    fn coalescer_waits_for_budget_then_releases_fifo() {
        let mut c = core(tiny_config());
        let a = c.submit(0, 0, vec![1, 2, 3, 4], 100).expect("a");
        assert!(
            matches!(c.poll(100), Poll::Wait(1_100)),
            "not due until the budget elapses"
        );
        let b = c.submit(1, 0, vec![4, 3, 2, 1], 600).expect("b");
        match c.poll(1_100) {
            Poll::Ready(batch) => {
                assert_eq!(batch.shape, 0);
                let ids: Vec<u64> = batch.entries.iter().map(|p| p.id).collect();
                assert_eq!(ids, vec![a, b], "FIFO within the group");
            }
            other => panic!("expected a due batch, got {other:?}"),
        }
        assert!(matches!(c.poll(1_100), Poll::Idle));
    }

    #[test]
    fn full_group_is_due_immediately_and_respects_the_lane_cap() {
        let mut c = core(tiny_config());
        for _ in 0..3 {
            c.submit(0, 0, vec![1, 2, 3, 4], 0).expect("admitted");
        }
        match c.poll(0) {
            Poll::Ready(batch) => assert_eq!(batch.entries.len(), 2, "lane cap"),
            other => panic!("full group must be due, got {other:?}"),
        }
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn expiry_surfaces_timeouts_before_batches() {
        let mut c = core(tiny_config());
        c.submit(0, 0, vec![1, 2, 3, 4], 0).expect("admitted");
        assert!(c.take_expired(9_999).is_empty());
        let expired = c.take_expired(10_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(c.depth(), 0);
        assert_eq!(c.stats.tenant(0).timeouts, 1);
        assert!(matches!(c.poll(10_000), Poll::Idle));
    }

    #[test]
    fn completions_feed_latency_and_the_breaker() {
        let mut c = core(ServiceConfig {
            breaker: BreakerConfig {
                window: 4,
                min_samples: 2,
                trip_pct: 50,
                cooldown_ns: 5_000,
                probe_quota: 1,
            },
            ..tiny_config()
        });
        let lane = Pending {
            id: 0,
            tenant: 3,
            keys: vec![],
            enqueued_ns: 1_000,
        };
        c.complete(
            &lane,
            LaneVerdict::Sorted {
                degraded: false,
                retried: false,
            },
            3_000,
        );
        assert_eq!(c.stats.tenant(3).completed, 1);
        assert_eq!(c.stats.tenant(3).latency.count(), 1);
        assert_eq!(c.stats.tenant(3).latency.max_ns(), 2_000);
        // One degraded lane among two samples (50% ≥ 50%) trips the
        // breaker at its completion time.
        c.complete(
            &lane,
            LaneVerdict::Sorted {
                degraded: true,
                retried: true,
            },
            4_000,
        );
        assert_eq!(c.breaker_state(), BreakerState::Open { until_ns: 9_000 });
        // A straggler completing while open carries no new signal.
        c.complete(&lane, LaneVerdict::Failed, 4_500);
        assert_eq!(c.breaker_state(), BreakerState::Open { until_ns: 9_000 });
        assert!(matches!(
            c.submit(3, 0, vec![1, 2, 3, 4], 5_000),
            Err(ServiceError::Rejected(RejectReason::BreakerOpen))
        ));
        assert_eq!(c.stats.breaker_state, 1);
        assert_eq!(c.stats.breaker_opens, 1);
        assert_eq!(c.stats.retried_lanes, 1);
    }

    #[test]
    fn drain_all_empties_every_group() {
        let mut c = core(tiny_config());
        c.submit(0, 0, vec![1, 2, 3, 4], 0).expect("admitted");
        c.submit(1, 0, vec![1, 2, 3, 4], 0).expect("admitted");
        let drained = c.drain_all();
        assert_eq!(drained.len(), 2);
        assert_eq!(c.depth(), 0);
    }
}
