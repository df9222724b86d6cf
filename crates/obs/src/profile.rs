//! The span-tree aggregator: folds a stream's `SpanEnter`/`SpanExit`
//! events into per-`(tier, stage, class)` latency statistics with
//! self-vs-child time, alongside a full [`ObsSummary`] of the
//! non-span events.
//!
//! Because every `SpanExit` carries the duration measured by its own
//! guard, aggregation needs no cross-thread timestamp pairing: an exit
//! charges its duration to the matching open span's key, propagates it
//! into the still-open parent's child time, and — when the parent is
//! the root (or was opened on another thread and is invisible here) —
//! into the stream's total root time. For a well-nested same-thread
//! tree the self times therefore sum exactly to the root time, which
//! is what makes E21's ≥95% wall-clock coverage check structural
//! rather than statistical.

use crate::event::{Event, TimedEvent};
use crate::metrics::{Histogram, ObsSummary};
use crate::registry::Registry;
use crate::span::{SpanClass, Stage, Tier};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The `(tier, stage, class)` coordinate a span's time is charged to.
/// Stored as the raw wire codes so unknown codes from a newer stream
/// still aggregate instead of being dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanKey {
    /// [`Tier::code`] value.
    pub tier: u64,
    /// [`Stage::code`] value.
    pub stage: u64,
    /// [`SpanClass::code`] value.
    pub class: u64,
}

impl SpanKey {
    /// Human-readable `tier/stage[/class]` label; unknown codes render
    /// as `?<code>`.
    #[must_use]
    pub fn label(&self) -> String {
        let tier = Tier::from_code(self.tier).map(Tier::name);
        let stage = Stage::from_code(self.stage).map(Stage::name);
        let class = SpanClass::from_code(self.class).map(SpanClass::name);
        let mut out = String::new();
        match tier {
            Some(name) => out.push_str(name),
            None => out.push_str(&format!("?{}", self.tier)),
        }
        out.push('/');
        match stage {
            Some(name) => out.push_str(name),
            None => out.push_str(&format!("?{}", self.stage)),
        }
        if self.class != 0 {
            out.push('/');
            match class {
                Some(name) => out.push_str(name),
                None => out.push_str(&format!("?{}", self.class)),
            }
        }
        out
    }
}

/// Accumulated statistics for one [`SpanKey`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans closed under this key.
    pub count: u64,
    /// Total duration (inclusive of children).
    pub total_ns: u64,
    /// Time attributed to child spans of these spans.
    pub child_ns: u64,
    /// Distribution of the per-span (inclusive) durations.
    pub hist: Histogram,
}

impl SpanStat {
    /// Time spent in these spans excluding child spans.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

struct OpenSpan {
    key: SpanKey,
    parent: u64,
    child_ns: u64,
}

/// Streamed span-tree aggregation plus an embedded [`ObsSummary`] of
/// everything else, so one `Profile` answers both "where did the time
/// go" and "do the unit counts reconcile".
#[derive(Default)]
pub struct Profile {
    stats: BTreeMap<SpanKey, SpanStat>,
    open: HashMap<u64, OpenSpan>,
    root_ns: u64,
    summary: ObsSummary,
}

impl Profile {
    /// Aggregate a whole stream.
    #[must_use]
    pub fn from_events(events: &[TimedEvent]) -> Self {
        let mut profile = Profile::default();
        for ev in events {
            profile.record(ev);
        }
        profile
    }

    /// Fold one event into the aggregate.
    pub fn record(&mut self, ev: &TimedEvent) {
        self.summary.record(ev);
        match ev.event {
            Event::SpanEnter {
                span,
                parent,
                tier,
                stage,
                class,
            } => {
                self.open.insert(
                    span,
                    OpenSpan {
                        key: SpanKey { tier, stage, class },
                        parent,
                        child_ns: 0,
                    },
                );
            }
            Event::SpanExit { span, dur_ns } => {
                let Some(closed) = self.open.remove(&span) else {
                    // Exit without a visible enter (ring eviction,
                    // partial stream): charge it to the root so time is
                    // never silently lost.
                    self.root_ns = self.root_ns.saturating_add(dur_ns);
                    return;
                };
                let stat = self.stats.entry(closed.key).or_default();
                stat.count += 1;
                stat.total_ns = stat.total_ns.saturating_add(dur_ns);
                stat.child_ns = stat.child_ns.saturating_add(closed.child_ns);
                stat.hist.record(dur_ns);
                match self.open.get_mut(&closed.parent) {
                    Some(parent) => parent.child_ns = parent.child_ns.saturating_add(dur_ns),
                    // Root span, or the parent closed first / lives on
                    // another thread: this duration tops out the tree.
                    None => self.root_ns = self.root_ns.saturating_add(dur_ns),
                }
            }
            _ => {}
        }
    }

    /// Per-key statistics, ordered by key.
    pub fn stats(&self) -> impl Iterator<Item = (&SpanKey, &SpanStat)> {
        self.stats.iter()
    }

    /// Statistics for one key, if any span closed under it.
    #[must_use]
    pub fn stat(&self, key: &SpanKey) -> Option<&SpanStat> {
        self.stats.get(key)
    }

    /// Total root time: the summed durations of spans with no open
    /// parent. For a single-threaded, well-nested stream this is the
    /// wall-clock spent under instrumentation.
    #[must_use]
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Sum of self times over all keys. Equal to [`Profile::root_ns`]
    /// for a well-nested same-thread tree — every nanosecond of the
    /// root's duration is claimed by exactly one span's self time.
    #[must_use]
    pub fn total_self_ns(&self) -> u64 {
        self.stats
            .values()
            .fold(0u64, |acc, s| acc.saturating_add(s.self_ns()))
    }

    /// Spans whose exit has not been seen.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// The embedded summary of the whole stream (unit counts, rounds,
    /// cache and fault totals, ...).
    #[must_use]
    pub fn summary(&self) -> &ObsSummary {
        &self.summary
    }

    /// Export the profile into `registry`: one labeled histogram
    /// (`pns_span_ns`) plus self/total counters per span key, and the
    /// embedded summary's reconciliation counters.
    pub fn export_to(&self, registry: &mut Registry) {
        for (key, stat) in &self.stats {
            let tier = Tier::from_code(key.tier).map_or("unknown", Tier::name);
            let stage = Stage::from_code(key.stage).map_or("unknown", Stage::name);
            let class = SpanClass::from_code(key.class).map_or("unknown", SpanClass::name);
            let labels: &[(&str, &str)] = &[("tier", tier), ("stage", stage), ("class", class)];
            registry.set_histogram_with("pns_span_ns", labels, &stat.hist);
            registry.set_counter_with("pns_span_self_ns_total", labels, stat.self_ns());
            registry.set_counter_with("pns_span_total_ns_total", labels, stat.total_ns);
        }
        registry.set_counter("pns_span_root_ns_total", self.root_ns);
        let s = &self.summary;
        registry.set_counter("pns_events_total", s.events);
        registry.set_counter("pns_rounds_total", s.rounds);
        registry.set_counter("pns_round_ops_total", s.ops);
        registry.set_counter("pns_s2_units_total", s.s2_units);
        registry.set_counter("pns_route_units_total", s.route_units);
        registry.set_counter("pns_cache_hits_total", s.cache_hits);
        registry.set_counter("pns_cache_misses_total", s.cache_misses);
        registry.set_counter("pns_kernels_lowered_total", s.kernels_lowered);
        registry.set_counter("pns_verticals_lowered_total", s.verticals_lowered);
        registry.set_counter("pns_batches_total", s.batches);
        registry.set_counter("pns_batch_vectors_total", s.batch_vectors);
        registry.set_counter("pns_validated_total", s.validated);
        registry.set_counter("pns_faults_injected_total", s.faults_injected);
        registry.set_counter("pns_faults_detected_total", s.faults_detected);
        registry.set_counter("pns_retries_total", s.retries);
        registry.set_counter("pns_quarantined_total", s.quarantined);
        registry.set_gauge("pns_cache_hit_ratio", s.cache_hit_ratio());
        registry.set_gauge("pns_lane_utilization", s.lane_utilization());
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<28} {:>7} {:>14} {:>14} {:>10} {:>10}",
            "span (tier/stage/class)", "count", "total_ns", "self_ns", "mean_ns", "p90_ns"
        )?;
        for (key, stat) in &self.stats {
            writeln!(
                f,
                "  {:<28} {:>7} {:>14} {:>14} {:>10} {:>10}",
                key.label(),
                stat.count,
                stat.total_ns,
                stat.self_ns(),
                stat.hist.mean_ns(),
                stat.hist.quantile_ns(0.9)
            )?;
        }
        writeln!(
            f,
            "  {:<28} {:>7} {:>14} {:>14}",
            "(root)",
            "",
            self.root_ns,
            self.total_self_ns()
        )?;
        if self.open_spans() > 0 {
            writeln!(f, "  !! {} spans still open", self.open_spans())?;
        }
        write!(f, "{}", self.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t_ns: u64, event: Event) -> TimedEvent {
        TimedEvent { t_ns, event }
    }

    fn enter(span: u64, parent: u64, tier: Tier, stage: Stage, class: SpanClass) -> TimedEvent {
        at(
            span,
            Event::SpanEnter {
                span,
                parent,
                tier: tier.code(),
                stage: stage.code(),
                class: class.code(),
            },
        )
    }

    fn exit(span: u64, dur_ns: u64) -> TimedEvent {
        at(span, Event::SpanExit { span, dur_ns })
    }

    #[test]
    fn self_time_is_total_minus_children() {
        // sort(100) wrapping two rounds (30 + 20).
        let events = vec![
            enter(1, 0, Tier::Kernel, Stage::Sort, SpanClass::None),
            enter(2, 1, Tier::Kernel, Stage::Round, SpanClass::Compare),
            exit(2, 30),
            enter(3, 1, Tier::Kernel, Stage::Round, SpanClass::Route),
            exit(3, 20),
            exit(1, 100),
        ];
        let p = Profile::from_events(&events);
        let sort = p
            .stat(&SpanKey {
                tier: Tier::Kernel.code(),
                stage: Stage::Sort.code(),
                class: 0,
            })
            .expect("sort stat");
        assert_eq!(sort.count, 1);
        assert_eq!(sort.total_ns, 100);
        assert_eq!(sort.child_ns, 50);
        assert_eq!(sort.self_ns(), 50);
        assert_eq!(p.root_ns(), 100);
        // Self times partition the root: 50 (sort) + 30 + 20 (rounds).
        assert_eq!(p.total_self_ns(), 100);
        assert_eq!(p.open_spans(), 0);
        assert_eq!(p.summary().spans_closed, 3);
        assert!(p.to_string().contains("kernel/sort"));
    }

    #[test]
    fn round_classes_aggregate_separately() {
        let events = vec![
            enter(1, 0, Tier::Vertical, Stage::Round, SpanClass::Compare),
            exit(1, 10),
            enter(2, 0, Tier::Vertical, Stage::Round, SpanClass::Compare),
            exit(2, 14),
            enter(3, 0, Tier::Vertical, Stage::Round, SpanClass::Route),
            exit(3, 99),
        ];
        let p = Profile::from_events(&events);
        let compare = p
            .stat(&SpanKey {
                tier: Tier::Vertical.code(),
                stage: Stage::Round.code(),
                class: SpanClass::Compare.code(),
            })
            .expect("compare stat");
        assert_eq!(compare.count, 2);
        assert_eq!(compare.total_ns, 24);
        let route = p
            .stat(&SpanKey {
                tier: Tier::Vertical.code(),
                stage: Stage::Round.code(),
                class: SpanClass::Route.code(),
            })
            .expect("route stat");
        assert_eq!(route.count, 1);
        assert_eq!(route.total_ns, 99);
        assert_eq!(p.root_ns(), 123);
    }

    #[test]
    fn orphan_exits_still_charge_the_root() {
        // An exit whose enter was evicted from a bounded ring.
        let p = Profile::from_events(&[exit(42, 1000)]);
        assert_eq!(p.root_ns(), 1000);
        assert_eq!(p.stats().count(), 0);
    }

    #[test]
    fn unknown_codes_render_without_panicking() {
        let events = vec![
            at(
                0,
                Event::SpanEnter {
                    span: 1,
                    parent: 0,
                    tier: 77,
                    stage: 88,
                    class: 99,
                },
            ),
            exit(1, 5),
        ];
        let p = Profile::from_events(&events);
        let (key, _) = p.stats().next().expect("one stat");
        assert_eq!(key.label(), "?77/?88/?99");
        assert!(p.to_string().contains("?77"));
        let mut reg = Registry::default();
        p.export_to(&mut reg);
        assert!(reg.prometheus_text().contains("unknown"));
    }

    #[test]
    fn export_feeds_the_registry() {
        let events = vec![
            enter(1, 0, Tier::Serial, Stage::Sort, SpanClass::None),
            exit(1, 64),
            at(70, Event::S2Unit { units: 9, width: 0 }),
        ];
        let p = Profile::from_events(&events);
        let mut reg = Registry::default();
        p.export_to(&mut reg);
        let text = reg.prometheus_text();
        assert!(text.contains("pns_s2_units_total 9"), "{text}");
        assert!(
            text.contains(r#"pns_span_ns_count{class="-",stage="sort",tier="serial"} 1"#),
            "{text}"
        );
    }
}
