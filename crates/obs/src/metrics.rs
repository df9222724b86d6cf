//! Metrics derived from an event stream: a dependency-free log-bucket
//! histogram and the [`ObsSummary`] aggregate.
//!
//! The summary's `s2_units`/`route_units` are sums of the `units`
//! fields of [`Event::S2Unit`]/[`Event::RouteUnit`] — by construction
//! (engines emit one unit exactly where `Counters` increments; compiled
//! machines emit their whole charge as one event) these sums equal the
//! run's `Counters` totals, which is the reconciliation the experiments
//! assert.

use crate::event::{Event, TimedEvent};
use std::collections::HashMap;
use std::fmt;

/// Number of log2 buckets: enough for any `u64` nanosecond value.
const BUCKETS: usize = 64;

/// Fixed log2-bucket histogram of nanosecond durations. Bucket `i`
/// holds values whose bit length is `i` (bucket 0 holds the value 0),
/// so quantiles are exact to within a factor of two — plenty for
/// "which phase dominates" questions, with no dependencies and O(1)
/// record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        let bucket = (u64::BITS - ns.leading_zeros()) as usize;
        self.counts[bucket.min(BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold `other` into `self`. The result is identical (by `==`) to a
    /// histogram that recorded both sample sets directly — the log2
    /// buckets, total, saturating sum, and max all compose.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Saturating sum of recorded values.
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Per-bucket sample counts; bucket `i` holds values of bit length
    /// `i` (bucket 0 holds only the value 0, the last bucket also
    /// absorbs everything of greater bit length).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Inclusive upper bound of bucket `i`: 0, then `2^i - 1`, with the
    /// last bucket unbounded (`u64::MAX`, since it absorbs the cap).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= BUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean of recorded values (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.total).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`), i.e. an estimate correct to within 2×. Returns 0 when
    /// empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // The quantile estimate never exceeds the observed max.
                return Histogram::bucket_upper_bound(bucket).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50≤{} p90≤{} max={} (ns)",
            self.total,
            self.mean_ns(),
            self.quantile_ns(0.5),
            self.quantile_ns(0.9),
            self.max_ns
        )
    }
}

/// Running aggregate of an event stream. Feed it events one at a time
/// ([`ObsSummary::record`]) or all at once ([`ObsSummary::from_events`]);
/// read the derived metrics, or `Display` the whole table.
#[derive(Debug, Clone, Default)]
pub struct ObsSummary {
    /// Total events seen.
    pub events: u64,
    /// `RoundStart` events.
    pub rounds: u64,
    /// Rounds that ran on the intra-round parallel path.
    pub parallel_rounds: u64,
    /// Total operations across all rounds.
    pub ops: u64,
    /// Wall-time per BSP round, from `RoundStart`/`RoundEnd` pairs on
    /// the same round index.
    pub round_ns: Histogram,
    /// Sum of `units` over `S2Unit` events — reconciles with
    /// `Counters::s2_units`.
    pub s2_units: u64,
    /// Sum of `units` over `RouteUnit` events — reconciles with
    /// `Counters::route_units`.
    pub route_units: u64,
    /// `MergePhase` events per paper step (index 0 = step 1).
    pub merge_phases: [u64; 4],
    /// Deepest merge recursion observed.
    pub max_merge_depth: u64,
    /// Cache lookups served from cache.
    pub cache_hits: u64,
    /// Cache lookups that compiled.
    pub cache_misses: u64,
    /// Programs lowered to the flat kernel tier.
    pub kernels_lowered: u64,
    /// Kernels committed to the bit-sliced vertical layout.
    pub verticals_lowered: u64,
    /// Batches scheduled.
    pub batches: u64,
    /// Vectors across all batches.
    pub batch_vectors: u64,
    /// Sum over batches of `batch / (lanes * ceil(batch / lanes))` —
    /// the fraction of lane-slots doing work; divide by `batches` for
    /// the mean utilization.
    lane_util_sum: f64,
    /// Programs validated.
    pub validated: u64,
    /// Transient faults fired by injecting executors.
    pub faults_injected: u64,
    /// Certificate checks that failed.
    pub faults_detected: u64,
    /// Checkpoint restores (segment re-executions).
    pub retries: u64,
    /// Batch lanes that fell back to a clean serial re-run.
    pub quarantined: u64,
    /// Timing spans opened (`SpanEnter` events).
    pub spans_opened: u64,
    /// Timing spans closed (`SpanExit` events).
    pub spans_closed: u64,
    /// Span durations, from the guard-measured `dur_ns` on each exit.
    /// The per-`(tier, stage, class)` breakdown lives in
    /// [`crate::Profile`]; this is the undifferentiated roll-up.
    pub span_ns: Histogram,
    open_rounds: HashMap<u64, u64>,
}

impl ObsSummary {
    /// Aggregate a whole stream.
    #[must_use]
    pub fn from_events(events: &[TimedEvent]) -> Self {
        let mut summary = ObsSummary::default();
        for ev in events {
            summary.record(ev);
        }
        summary
    }

    /// Fold one event into the aggregate.
    pub fn record(&mut self, ev: &TimedEvent) {
        self.events += 1;
        match ev.event {
            Event::RoundStart {
                round,
                ops,
                parallel,
            } => {
                self.rounds += 1;
                self.ops += ops;
                if parallel {
                    self.parallel_rounds += 1;
                }
                self.open_rounds.insert(round, ev.t_ns);
            }
            Event::RoundEnd { round } => {
                if let Some(start) = self.open_rounds.remove(&round) {
                    self.round_ns.record(ev.t_ns.saturating_sub(start));
                }
            }
            Event::MergePhase { step, depth } => {
                if (1..=4).contains(&step) {
                    self.merge_phases[(step - 1) as usize] += 1;
                }
                self.max_merge_depth = self.max_merge_depth.max(depth);
            }
            Event::S2Unit { units, .. } => self.s2_units += units,
            Event::RouteUnit { units, .. } => self.route_units += units,
            Event::CacheLookup { hit, .. } => {
                if hit {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
            }
            Event::KernelLowered { .. } => self.kernels_lowered += 1,
            Event::VerticalLowered { .. } => self.verticals_lowered += 1,
            Event::BatchScheduled { batch, lanes } => {
                self.batches += 1;
                self.batch_vectors += batch;
                if batch > 0 && lanes > 0 {
                    let slots = lanes * batch.div_ceil(lanes);
                    #[allow(clippy::cast_precision_loss)]
                    {
                        self.lane_util_sum += batch as f64 / slots as f64;
                    }
                }
            }
            Event::Validate { .. } => self.validated += 1,
            Event::FaultInjected { .. } => self.faults_injected += 1,
            Event::FaultDetected { .. } => self.faults_detected += 1,
            Event::RetryRound { .. } => self.retries += 1,
            Event::LaneQuarantined { .. } => self.quarantined += 1,
            Event::SpanEnter { .. } => self.spans_opened += 1,
            Event::SpanExit { dur_ns, .. } => {
                self.spans_closed += 1;
                self.span_ns.record(dur_ns);
            }
        }
    }

    /// Spans whose exit never arrived (0 for a fully drained stream in
    /// which every guard was dropped).
    #[must_use]
    pub fn unmatched_spans(&self) -> u64 {
        self.spans_opened.saturating_sub(self.spans_closed)
    }

    /// Cache hit ratio in `[0, 1]`; 0 when no lookup happened.
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.cache_hits as f64 / total as f64
            }
        }
    }

    /// Mean lane utilization over all batches (`[0, 1]`; 0 when no
    /// batch was scheduled). 1.0 means every lane-slot did work.
    #[must_use]
    pub fn lane_utilization(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.lane_util_sum / self.batches as f64
            }
        }
    }

    /// `RoundStart` events whose `RoundEnd` never arrived (0 for a
    /// well-formed, fully drained stream).
    #[must_use]
    pub fn unmatched_rounds(&self) -> usize {
        self.open_rounds.len()
    }
}

impl fmt::Display for ObsSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  {:<22} {:>12}", "events", self.events)?;
        writeln!(
            f,
            "  {:<22} {:>12}  ({} parallel, {} ops)",
            "bsp rounds", self.rounds, self.parallel_rounds, self.ops
        )?;
        writeln!(f, "  {:<22} {}", "round wall-time", self.round_ns)?;
        writeln!(f, "  {:<22} {:>12}", "s2 units", self.s2_units)?;
        writeln!(f, "  {:<22} {:>12}", "route units", self.route_units)?;
        writeln!(
            f,
            "  {:<22} {:>12}  (steps 1..4: {} {} {} {}, max depth {})",
            "merge phases",
            self.merge_phases.iter().sum::<u64>(),
            self.merge_phases[0],
            self.merge_phases[1],
            self.merge_phases[2],
            self.merge_phases[3],
            self.max_merge_depth
        )?;
        writeln!(
            f,
            "  {:<22} {:>7} hits {:>7} misses  (ratio {:.3}, {} kernels lowered, {} vertical)",
            "cache lookups",
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_ratio(),
            self.kernels_lowered,
            self.verticals_lowered
        )?;
        writeln!(
            f,
            "  {:<22} {:>12}  ({} vectors, lane util {:.3})",
            "batches",
            self.batches,
            self.batch_vectors,
            self.lane_utilization()
        )?;
        writeln!(f, "  {:<22} {:>12}", "programs validated", self.validated)?;
        writeln!(
            f,
            "  {:<22} {:>12}  ({} detected, {} retries, {} quarantined)",
            "faults injected",
            self.faults_injected,
            self.faults_detected,
            self.retries,
            self.quarantined
        )?;
        write!(
            f,
            "  {:<22} {:>12}  ({} open, durations {})",
            "timing spans",
            self.spans_closed,
            self.unmatched_spans(),
            self.span_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t_ns: u64, event: Event) -> TimedEvent {
        TimedEvent { t_ns, event }
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        for ns in [0, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_ns(), 1_000_000);
        assert!(h.mean_ns() > 0);
        // p50 of 7 samples is the 4th (value 3): bucket upper bound 3.
        assert_eq!(h.quantile_ns(0.5), 3);
        // p100 lands in the 1_000_000 bucket: within 2× of the max.
        let p100 = h.quantile_ns(1.0);
        assert!((1_000_000..2_097_152).contains(&p100), "{p100}");
        assert!(!h.to_string().is_empty());
    }

    #[test]
    fn histogram_power_of_two_boundaries() {
        // A value of bit length i lands in bucket i: 2^k - 1 and 2^k
        // straddle a bucket boundary for every k.
        for k in 1..63u32 {
            let below = (1u64 << k) - 1;
            let at = 1u64 << k;
            let mut h = Histogram::default();
            h.record(below);
            h.record(at);
            let counts = h.bucket_counts();
            assert_eq!(counts[k as usize], 1, "2^{k}-1 in bucket {k}");
            assert_eq!(counts[k as usize + 1], 1, "2^{k} in bucket {}", k + 1);
            assert_eq!(Histogram::bucket_upper_bound(k as usize), below);
        }
    }

    #[test]
    fn histogram_zero_and_max_extremes() {
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.quantile_ns(1.0), 0);
        h.record(u64::MAX);
        // u64::MAX has bit length 64: capped into the last bucket.
        assert_eq!(h.bucket_counts()[63], 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_ns(), u64::MAX);
        assert_eq!(h.sum_ns(), u64::MAX, "sum saturates, not wraps");
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
        assert_eq!(h.quantile_ns(0.0), 0);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(63), u64::MAX);
        // Saturation holds under further records.
        h.record(u64::MAX);
        assert_eq!(h.sum_ns(), u64::MAX);
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let left: Vec<u64> = vec![0, 1, 5, 127, 128, 4096, u64::MAX];
        let right: Vec<u64> = vec![3, 64, 65, 1 << 40, (1 << 40) - 1];
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut concat = Histogram::default();
        for &ns in &left {
            a.record(ns);
            concat.record(ns);
        }
        for &ns in &right {
            b.record(ns);
            concat.record(ns);
        }
        a.merge(&b);
        assert_eq!(a, concat);
        // Merging an empty histogram is the identity.
        let before = concat.clone();
        concat.merge(&Histogram::default());
        assert_eq!(concat, before);
    }

    #[test]
    fn summary_counts_spans() {
        let events = vec![
            at(
                0,
                Event::SpanEnter {
                    span: 1,
                    parent: 0,
                    tier: 3,
                    stage: 1,
                    class: 0,
                },
            ),
            at(
                5,
                Event::SpanEnter {
                    span: 2,
                    parent: 1,
                    tier: 3,
                    stage: 3,
                    class: 2,
                },
            ),
            at(9, Event::SpanExit { span: 2, dur_ns: 4 }),
        ];
        let s = ObsSummary::from_events(&events);
        assert_eq!(s.spans_opened, 2);
        assert_eq!(s.spans_closed, 1);
        assert_eq!(s.unmatched_spans(), 1);
        assert_eq!(s.span_ns.count(), 1);
        assert_eq!(s.span_ns.max_ns(), 4);
        assert!(s.to_string().contains("timing spans"));
    }

    #[test]
    fn summary_pairs_rounds_and_sums_units() {
        let events = vec![
            at(
                0,
                Event::RoundStart {
                    round: 0,
                    ops: 4,
                    parallel: false,
                },
            ),
            at(100, Event::RoundEnd { round: 0 }),
            at(
                150,
                Event::RoundStart {
                    round: 1,
                    ops: 6,
                    parallel: true,
                },
            ),
            at(400, Event::RoundEnd { round: 1 }),
            at(410, Event::S2Unit { units: 1, width: 3 }),
            at(420, Event::S2Unit { units: 4, width: 0 }),
            at(430, Event::RouteUnit { units: 2, width: 8 }),
            at(440, Event::MergePhase { step: 2, depth: 1 }),
            at(
                450,
                Event::CacheLookup {
                    hit: true,
                    key_fingerprint: 9,
                },
            ),
            at(
                460,
                Event::CacheLookup {
                    hit: false,
                    key_fingerprint: 9,
                },
            ),
            at(470, Event::BatchScheduled { batch: 6, lanes: 4 }),
            at(480, Event::Validate { rounds: 12 }),
        ];
        let s = ObsSummary::from_events(&events);
        assert_eq!(s.events, 12);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.parallel_rounds, 1);
        assert_eq!(s.ops, 10);
        assert_eq!(s.round_ns.count(), 2);
        assert_eq!(s.round_ns.max_ns(), 250);
        assert_eq!(s.s2_units, 5);
        assert_eq!(s.route_units, 2);
        assert_eq!(s.merge_phases, [0, 1, 0, 0]);
        assert_eq!(s.max_merge_depth, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert!((s.cache_hit_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_vectors, 6);
        // 6 vectors over 4 lanes: 2 waves of 4 slots, 6/8 used.
        assert!((s.lane_utilization() - 0.75).abs() < 1e-9);
        assert_eq!(s.validated, 1);
        assert_eq!(s.unmatched_rounds(), 0);
        let table = s.to_string();
        assert!(table.contains("s2 units"), "{table}");
    }

    #[test]
    fn summary_counts_fault_events() {
        let events = vec![
            at(
                0,
                Event::FaultInjected {
                    round: 3,
                    op: 1,
                    kind: 0,
                },
            ),
            at(
                1,
                Event::FaultInjected {
                    round: 9,
                    op: 0,
                    kind: 2,
                },
            ),
            at(
                2,
                Event::FaultDetected {
                    round: 5,
                    stage: 2,
                    sampled: false,
                },
            ),
            at(
                3,
                Event::RetryRound {
                    round: 5,
                    attempt: 1,
                },
            ),
            at(4, Event::LaneQuarantined { lane: 2 }),
        ];
        let s = ObsSummary::from_events(&events);
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.faults_detected, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.quarantined, 1);
        let table = s.to_string();
        assert!(table.contains("faults injected"), "{table}");
    }

    #[test]
    fn unmatched_round_start_is_visible() {
        let s = ObsSummary::from_events(&[at(
            0,
            Event::RoundStart {
                round: 7,
                ops: 1,
                parallel: false,
            },
        )]);
        assert_eq!(s.unmatched_rounds(), 1);
        assert_eq!(s.round_ns.count(), 0);
    }
}
