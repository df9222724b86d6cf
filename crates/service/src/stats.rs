//! Per-tenant service metrics, exported through the `pns-obs`
//! [`Registry`].
//!
//! Counters follow the request lifecycle (submitted → accepted →
//! completed | timeout, or one of the rejection rungs), latency is a
//! log-bucket [`Histogram`] per tenant (p50/p99 via `quantile_ns`), and
//! gauges track queue depth and breaker state. Everything lives in
//! plain maps updated under the core lock — recording is a few integer
//! ops, and [`ServiceStats::export_to`] materializes the registry view
//! on demand.

use pns_obs::{Histogram, Registry};
use std::collections::BTreeMap;

/// Lifetime counters for one tenant.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Requests that reached `submit`.
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests answered with sorted keys.
    pub completed: u64,
    /// Completed via the quarantine rung (clean serial re-run).
    pub degraded: u64,
    /// Expired in queue past their deadline.
    pub timeouts: u64,
    /// Turned away: breaker open.
    pub breaker_rejected: u64,
    /// Turned away: token bucket empty.
    pub rate_limited: u64,
    /// Turned away: shed at the queue watermark.
    pub shed: u64,
    /// Turned away: hard queue capacity.
    pub queue_full: u64,
    /// Turned away: malformed request (wrong key count/unknown shape).
    pub invalid: u64,
    /// Terminal fault/internal errors after the ladder was exhausted.
    pub failed: u64,
    /// Queue-to-response latency of completed requests.
    pub latency: Histogram,
}

/// The service-wide metric state.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Per-tenant lifecycle counters (BTreeMap: deterministic export
    /// order).
    pub tenants: BTreeMap<u32, TenantStats>,
    /// Batches dispatched to the vertical tier.
    pub vertical_batches: u64,
    /// Batches dispatched to the kernel tier.
    pub kernel_batches: u64,
    /// Lanes that went through service-level retry at least once.
    pub retried_lanes: u64,
    /// Current queue depth (gauge).
    pub queue_depth: usize,
    /// Current breaker state code (gauge: 0 closed, 1 open, 2 half-open).
    pub breaker_state: u64,
    /// Lifetime breaker opens.
    pub breaker_opens: u64,
}

impl ServiceStats {
    /// The (created-on-first-touch) counters for `tenant`.
    pub fn tenant(&mut self, tenant: u32) -> &mut TenantStats {
        self.tenants.entry(tenant).or_default()
    }

    /// Sum of a per-tenant counter over all tenants.
    #[must_use]
    pub fn total<F: Fn(&TenantStats) -> u64>(&self, f: F) -> u64 {
        self.tenants.values().map(f).sum()
    }

    /// Export everything into `registry` under `pns_service_*` names.
    pub fn export_to(&self, registry: &mut Registry) {
        for (tenant, t) in &self.tenants {
            let tenant = tenant.to_string();
            let labeled: [(&str, &str, u64); 11] = [
                ("outcome", "submitted", t.submitted),
                ("outcome", "accepted", t.accepted),
                ("outcome", "completed", t.completed),
                ("outcome", "degraded", t.degraded),
                ("outcome", "timeout", t.timeouts),
                ("outcome", "breaker_rejected", t.breaker_rejected),
                ("outcome", "rate_limited", t.rate_limited),
                ("outcome", "shed", t.shed),
                ("outcome", "queue_full", t.queue_full),
                ("outcome", "invalid", t.invalid),
                ("outcome", "failed", t.failed),
            ];
            for (key, value, count) in labeled {
                registry.set_counter_with(
                    "pns_service_requests_total",
                    &[("tenant", &tenant), (key, value)],
                    count,
                );
            }
            registry.set_histogram_with(
                "pns_service_latency_ns",
                &[("tenant", &tenant)],
                &t.latency,
            );
        }
        registry.set_counter("pns_service_vertical_batches_total", self.vertical_batches);
        registry.set_counter("pns_service_kernel_batches_total", self.kernel_batches);
        registry.set_counter("pns_service_retried_lanes_total", self.retried_lanes);
        registry.set_counter("pns_service_breaker_opens_total", self.breaker_opens);
        registry.set_gauge("pns_service_queue_depth", self.queue_depth as f64);
        #[allow(clippy::cast_precision_loss)]
        registry.set_gauge("pns_service_breaker_state", self.breaker_state as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_round_trips_counters_and_histograms() {
        let mut stats = ServiceStats::default();
        let t = stats.tenant(7);
        t.submitted = 10;
        t.accepted = 8;
        t.completed = 6;
        t.shed = 2;
        t.latency.record(1_000);
        t.latency.record(2_000);
        stats.queue_depth = 3;
        stats.breaker_state = 1;
        stats.vertical_batches = 4;

        let mut registry = Registry::new();
        stats.export_to(&mut registry);
        assert_eq!(
            registry.counter("pns_service_vertical_batches_total"),
            Some(4)
        );
        assert_eq!(registry.gauge("pns_service_queue_depth"), Some(3.0));
        assert_eq!(registry.gauge("pns_service_breaker_state"), Some(1.0));
        let text = registry.prometheus_text();
        assert!(text.contains("pns_service_requests_total"), "{text}");
        assert!(text.contains("tenant=\"7\""), "{text}");
        assert!(text.contains("pns_service_latency_ns"), "{text}");
    }

    #[test]
    fn totals_aggregate_across_tenants() {
        let mut stats = ServiceStats::default();
        stats.tenant(1).completed = 5;
        stats.tenant(2).completed = 7;
        assert_eq!(stats.total(|t| t.completed), 12);
    }
}
