//! Sorting-as-a-service core over the product-network simulator.
//!
//! This crate turns the batch sorting tiers of `pns-simulator` into an
//! in-process service with production-shaped robustness machinery. The
//! pieces compose in request order:
//!
//! 1. **Admission** ([`ServiceCore::submit`]) — unknown-shape and
//!    key-count validation, the [`Breaker`] gate, a per-tenant
//!    [`TokenBucket`], then the hard queue capacity and the load-shed
//!    watermark beneath it. Every refusal is a typed
//!    [`RejectReason`] — the intake queue is bounded and never panics.
//! 2. **Coalescing** ([`ServiceCore::poll`]) — same-shape requests
//!    group into batches under a latency budget
//!    ([`ServiceConfig::coalesce_budget_ns`]), capped at
//!    [`ServiceConfig::max_batch_lanes`]; queued requests that outlive
//!    [`ServiceConfig::request_timeout_ns`] get a typed
//!    [`ServiceError::Timeout`].
//! 3. **Execution** ([`SortService`]) — worker threads walk each batch
//!    down the degradation ladder: vertical tier → kernel tier →
//!    backed-off service retries → serial quarantined lane → typed
//!    shed. See the [`service`] module docs for the ladder contract.
//! 4. **Observation** ([`ServiceStats`]) — per-tenant lifecycle
//!    counters and latency histograms exported through the `pns-obs`
//!    [`Registry`](pns_obs::Registry).
//!
//! All time-dependent logic takes explicit `now_ns` timestamps from a
//! [`Clock`], so the whole admission/coalescing/breaker automaton is
//! deterministic under a [`ManualClock`] — the overload tests assert
//! exact transition sequences, no sleeps, no flakes.

pub mod admission;
pub mod breaker;
pub mod clock;
pub mod core;
pub mod error;
pub mod service;
pub mod stats;

pub use admission::{RateLimit, TokenBucket};
pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use clock::{Clock, ManualClock, SystemClock};
pub use core::{Batch, LaneVerdict, Pending, Poll, ServiceConfig, ServiceCore, ShapeSpec};
pub use error::{RejectReason, ServiceError};
pub use service::{ServiceBuilder, SortResponse, SortService, Ticket};
pub use stats::{ServiceStats, TenantStats};
