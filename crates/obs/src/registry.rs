//! A named-metrics registry: counters, gauges, and log-bucket
//! histograms under stable names (plus optional Prometheus-style
//! labels), snapshotted as JSON or Prometheus text exposition.
//!
//! The registry is a passive container — instrumented code keeps its
//! own cheap counters (`Counters`, `CacheStats`, `RetryCounters`,
//! [`crate::Profile`]) and *exports* into a registry at snapshot time
//! via their `export_to` methods, so nothing on a hot path pays for a
//! name lookup.

use crate::metrics::Histogram;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_owned(),
            labels,
        }
    }

    /// Append the metric's name and its `{k="v",...}` label set (nothing
    /// when unlabeled) to a Prometheus line, without allocating.
    /// `extra` appends one more pair (used for histogram `le`).
    fn write_series(&self, out: &mut String, suffix: &str, extra: Option<(&str, &str)>) {
        out.push_str(&self.name);
        out.push_str(suffix);
        let pairs = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let mut open = false;
        for (k, v) in pairs.chain(extra) {
            out.push(if open { ',' } else { '{' });
            open = true;
            out.push_str(k);
            out.push_str("=\"");
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        if open {
            out.push('}');
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    // Boxed: a Histogram is a 64-bucket array, ~30x the other variants.
    Hist(Box<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Hist(_) => "histogram",
        }
    }
}

/// One metric in a JSON snapshot.
#[derive(Debug)]
pub struct JsonMetric {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: BTreeMap<String, String>,
    /// `counter` | `gauge` | `histogram`.
    pub kind: &'static str,
    /// Counter value (counters only).
    pub value: Option<u64>,
    /// Gauge value (gauges only).
    pub gauge: Option<f64>,
    /// Histogram roll-up (histograms only).
    pub hist: Option<JsonHistogram>,
}

impl Serialize for JsonMetric {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("name".to_owned(), Value::Str(self.name.clone())),
            (
                "labels".to_owned(),
                Value::Map(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("kind".to_owned(), Value::Str(self.kind.to_owned())),
        ];
        // Absent facets are omitted, not null: counters stay one-line.
        if let Some(v) = self.value {
            entries.push(("value".to_owned(), Value::U64(v)));
        }
        if let Some(v) = self.gauge {
            entries.push(("gauge".to_owned(), Value::F64(v)));
        }
        if let Some(h) = &self.hist {
            entries.push(("hist".to_owned(), h.to_value()));
        }
        Value::Map(entries)
    }
}

/// Histogram roll-up in a JSON snapshot.
#[derive(Debug)]
pub struct JsonHistogram {
    /// Sample count.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Mean sample.
    pub mean_ns: u64,
    /// Upper bound of the p50 bucket.
    pub p50_ns: u64,
    /// Upper bound of the p90 bucket.
    pub p90_ns: u64,
    /// `(bucket_upper_bound, count)` for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl Serialize for JsonHistogram {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("count".to_owned(), Value::U64(self.count)),
            ("sum_ns".to_owned(), Value::U64(self.sum_ns)),
            ("max_ns".to_owned(), Value::U64(self.max_ns)),
            ("mean_ns".to_owned(), Value::U64(self.mean_ns)),
            ("p50_ns".to_owned(), Value::U64(self.p50_ns)),
            ("p90_ns".to_owned(), Value::U64(self.p90_ns)),
            ("buckets".to_owned(), self.buckets.to_value()),
        ])
    }
}

/// The registry. Deterministically ordered (by name, then labels), so
/// snapshots diff cleanly across runs.
#[derive(Default)]
pub struct Registry {
    metrics: BTreeMap<MetricId, Metric>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Set (overwrite) an unlabeled counter.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.set_counter_with(name, &[], value);
    }

    /// Set (overwrite) a labeled counter.
    pub fn set_counter_with(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.metrics
            .insert(MetricId::new(name, labels), Metric::Counter(value));
    }

    /// Add to an unlabeled counter (creating it at 0).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        let entry = self
            .metrics
            .entry(MetricId::new(name, &[]))
            .or_insert(Metric::Counter(0));
        if let Metric::Counter(v) = entry {
            *v = v.saturating_add(delta);
        }
    }

    /// Set an unlabeled gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.set_gauge_with(name, &[], value);
    }

    /// Set a labeled gauge.
    pub fn set_gauge_with(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.metrics
            .insert(MetricId::new(name, labels), Metric::Gauge(value));
    }

    /// Record one sample into an unlabeled histogram (creating it).
    pub fn observe(&mut self, name: &str, ns: u64) {
        let entry = self
            .metrics
            .entry(MetricId::new(name, &[]))
            .or_insert_with(|| Metric::Hist(Box::default()));
        if let Metric::Hist(h) = entry {
            h.record(ns);
        }
    }

    /// Merge a whole histogram into a labeled histogram metric.
    pub fn merge_histogram_with(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        let entry = self
            .metrics
            .entry(MetricId::new(name, labels))
            .or_insert_with(|| Metric::Hist(Box::default()));
        if let Metric::Hist(mine) = entry {
            mine.merge(h);
        }
    }

    /// Merge a whole histogram into an unlabeled histogram metric.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.merge_histogram_with(name, &[], h);
    }

    /// Counter value, if `name` (unlabeled) is a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(&MetricId::new(name, &[])) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value, if `name` (unlabeled) is a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(&MetricId::new(name, &[])) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` iff nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// JSON snapshot: an array of [`JsonMetric`]s in registry order.
    #[must_use]
    pub fn to_json(&self) -> Vec<JsonMetric> {
        self.metrics
            .iter()
            .map(|(id, metric)| JsonMetric {
                name: id.name.clone(),
                labels: id.labels.iter().cloned().collect(),
                kind: metric.type_name(),
                value: match metric {
                    Metric::Counter(v) => Some(*v),
                    _ => None,
                },
                gauge: match metric {
                    Metric::Gauge(v) => Some(*v),
                    _ => None,
                },
                hist: match metric {
                    Metric::Hist(h) => Some(JsonHistogram {
                        count: h.count(),
                        sum_ns: h.sum_ns(),
                        max_ns: h.max_ns(),
                        mean_ns: h.mean_ns(),
                        p50_ns: h.quantile_ns(0.5),
                        p90_ns: h.quantile_ns(0.9),
                        buckets: h
                            .bucket_counts()
                            .iter()
                            .enumerate()
                            .filter(|(_, &c)| c > 0)
                            .map(|(i, &c)| (Histogram::bucket_upper_bound(i), c))
                            .collect(),
                    }),
                    _ => None,
                },
            })
            .collect()
    }

    /// JSON snapshot as a string (pretty-printed array).
    ///
    /// # Panics
    ///
    /// Never: the snapshot types serialize infallibly.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("snapshot serializes")
    }

    /// Prometheus text exposition: `# TYPE` lines plus samples;
    /// histograms expand to cumulative `_bucket{le=...}`, `_sum`, and
    /// `_count` series (only non-empty buckets, plus `+Inf`).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (id, metric) in &self.metrics {
            if last_name != Some(id.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", id.name, metric.type_name());
                last_name = Some(id.name.as_str());
            }
            match metric {
                Metric::Counter(v) => {
                    id.write_series(&mut out, "", None);
                    let _ = writeln!(out, " {v}");
                }
                Metric::Gauge(v) => {
                    id.write_series(&mut out, "", None);
                    let _ = writeln!(out, " {v}");
                }
                Metric::Hist(h) => {
                    let mut cumulative = 0u64;
                    for (i, &count) in h.bucket_counts().iter().enumerate() {
                        if count == 0 {
                            continue;
                        }
                        cumulative += count;
                        let le = Histogram::bucket_upper_bound(i).to_string();
                        id.write_series(&mut out, "_bucket", Some(("le", &le)));
                        let _ = writeln!(out, " {cumulative}");
                    }
                    id.write_series(&mut out, "_bucket", Some(("le", "+Inf")));
                    let _ = writeln!(out, " {}", h.count());
                    id.write_series(&mut out, "_sum", None);
                    let _ = writeln!(out, " {}", h.sum_ns());
                    id.write_series(&mut out, "_count", None);
                    let _ = writeln!(out, " {}", h.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_snapshot() {
        let mut reg = Registry::new();
        reg.set_counter("pns_s2_units_total", 42);
        reg.add_counter("pns_events_total", 10);
        reg.add_counter("pns_events_total", 5);
        reg.set_gauge("pns_cache_hit_ratio", 0.75);
        reg.observe("pns_sort_ns", 100);
        reg.observe("pns_sort_ns", 3000);
        assert_eq!(reg.len(), 4);
        assert!(!reg.is_empty());
        assert_eq!(reg.counter("pns_s2_units_total"), Some(42));
        assert_eq!(reg.counter("pns_events_total"), Some(15));
        assert_eq!(reg.gauge("pns_cache_hit_ratio"), Some(0.75));
        assert_eq!(reg.counter("missing"), None);
        assert_eq!(reg.gauge("pns_s2_units_total"), None);

        let json = reg.to_json_string();
        assert_eq!(json.matches("\"name\"").count(), 4);
        assert!(json.contains("\"pns_sort_ns\""), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"sum_ns\": 3100"), "{json}");
        // Absent facets are omitted entirely.
        assert!(!json.contains("null"), "{json}");
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let mut reg = Registry::new();
        reg.set_counter_with("pns_span_self_ns_total", &[("tier", "kernel")], 7);
        reg.set_counter_with("pns_span_self_ns_total", &[("tier", "serial")], 9);
        reg.set_gauge("pns_lane_utilization", 1.0);
        let mut h = Histogram::default();
        h.record(5);
        h.record(900);
        reg.merge_histogram_with("pns_span_ns", &[("tier", "kernel")], &h);
        let text = reg.prometheus_text();
        assert!(
            text.contains("# TYPE pns_span_self_ns_total counter"),
            "{text}"
        );
        assert!(
            text.contains(r#"pns_span_self_ns_total{tier="kernel"} 7"#),
            "{text}"
        );
        assert!(
            text.contains(r#"pns_span_self_ns_total{tier="serial"} 9"#),
            "{text}"
        );
        // One TYPE line per name, not per labeled series.
        assert_eq!(text.matches("# TYPE pns_span_self_ns_total").count(), 1);
        assert!(text.contains("# TYPE pns_span_ns histogram"), "{text}");
        // 5 has bit length 3 (bucket upper bound 7); 900 bit length 10
        // (upper bound 1023); cumulative counts.
        assert!(
            text.contains(r#"pns_span_ns_bucket{tier="kernel",le="7"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"pns_span_ns_bucket{tier="kernel",le="1023"} 2"#),
            "{text}"
        );
        assert!(
            text.contains(r#"pns_span_ns_bucket{tier="kernel",le="+Inf"} 2"#),
            "{text}"
        );
        assert!(
            text.contains(r#"pns_span_ns_sum{tier="kernel"} 905"#),
            "{text}"
        );
        assert!(
            text.contains(r#"pns_span_ns_count{tier="kernel"} 2"#),
            "{text}"
        );
        assert!(text.contains("pns_lane_utilization 1"), "{text}");
    }

    #[test]
    fn labels_sort_and_escape() {
        let mut reg = Registry::new();
        reg.set_counter_with("m", &[("z", "1"), ("a", "quo\"te")], 3);
        reg.set_counter_with("n", &[("path", "a\\b\nc")], 4);
        let text = reg.prometheus_text();
        assert!(text.contains(r#"m{a="quo\"te",z="1"} 3"#), "{text}");
        assert!(text.contains(r#"n{path="a\\b\nc"} 4"#), "{text}");
    }

    #[test]
    fn type_mismatch_is_ignored_not_corrupted() {
        let mut reg = Registry::new();
        reg.set_counter("x", 1);
        reg.observe("x", 99); // wrong kind: ignored
        assert_eq!(reg.counter("x"), Some(1));
        reg.add_counter("x", 2);
        assert_eq!(reg.counter("x"), Some(3));
    }
}
