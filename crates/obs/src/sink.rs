//! Pluggable event sinks: where drained event batches go.
//!
//! Five concrete sinks cover the consumers:
//!
//! * [`MemorySink`] — a bounded in-memory ring, read back through a
//!   [`MemoryReader`]; the test and assertion sink.
//! * [`JsonlSink`] — one JSON object per line, appended to a file; the
//!   machine-readable experiment sink (`obs.jsonl`).
//! * [`SummarySink`] — aggregates the stream into an [`ObsSummary`] and
//!   prints the table to stderr when finished; the interactive sink.
//! * [`ProfileSink`] — aggregates spans into a [`Profile`] and writes
//!   the time-breakdown table (stderr, or a file when given a path).
//! * [`PromSink`] — same aggregation, written as a Prometheus text
//!   exposition via the metrics [`Registry`].
//!
//! [`Directive`] is the typed form of the `PNS_OBS` environment
//! variable (`jsonl[:path]` | `summary` | `profile[:path]` |
//! `prom[:path]` | `off`); [`Directive::parse`] rejects unknown values
//! with a [`DirectiveError`] instead of silently disabling tracing.
//! [`from_env`] selects a sink from `PNS_OBS`, and [`MultiSink`] tees
//! one stream into several sinks.

use crate::event::TimedEvent;
use crate::metrics::ObsSummary;
use crate::profile::Profile;
use crate::registry::Registry;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A destination for drained event batches. Batches arrive in emission
/// order per thread; `finish` is called exactly once, when the logger
/// is finished.
pub trait Sink: Send {
    /// Accept one drained batch.
    fn record(&mut self, events: &[TimedEvent]);
    /// Flush/close the destination. Default: nothing.
    fn finish(&mut self) {}
}

/// Bounded in-memory ring of events; the oldest events are dropped once
/// `capacity` is reached. Read through the paired [`MemoryReader`].
pub struct MemorySink {
    state: Arc<Mutex<RingState>>,
}

struct RingState {
    events: VecDeque<TimedEvent>,
    capacity: usize,
    dropped: u64,
}

/// Reading side of a [`MemorySink`]; clones share the same ring.
#[derive(Clone)]
pub struct MemoryReader {
    state: Arc<Mutex<RingState>>,
}

impl MemorySink {
    /// A ring holding at most `capacity` events, plus its reader.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> (Self, MemoryReader) {
        assert!(capacity > 0, "ring capacity must be positive");
        let state = Arc::new(Mutex::new(RingState {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }));
        (
            MemorySink {
                state: Arc::clone(&state),
            },
            MemoryReader { state },
        )
    }
}

impl Sink for MemorySink {
    fn record(&mut self, events: &[TimedEvent]) {
        // Poison recovery: a panicked writer leaves the ring intact (it
        // only pushes/pops), so recording must keep working.
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for &ev in events {
            if state.events.len() == state.capacity {
                state.events.pop_front();
                state.dropped += 1;
            }
            state.events.push_back(ev);
        }
    }
}

impl MemoryReader {
    /// Snapshot of the retained events, oldest first. Recovers from a
    /// poisoned ring lock (the ring's push/pop never leaves it torn).
    #[must_use]
    pub fn events(&self) -> Vec<TimedEvent> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .events
            .iter()
            .copied()
            .collect()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .events
            .len()
    }

    /// `true` iff no event is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .dropped
    }
}

/// One JSON object per event, one event per line, appended to a file.
/// Append mode, so successive experiments in one process accumulate
/// into the same log (each run can be delimited by its own events).
pub struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Open (append/create) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be opened.
    pub fn append(path: &str) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlSink {
            out: std::io::BufWriter::new(file),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, events: &[TimedEvent]) {
        for ev in events {
            if let Ok(line) = serde_json::to_string(ev) {
                // Best-effort: an experiment must not die on a full disk.
                let _ = writeln!(self.out, "{line}");
            }
        }
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

/// Aggregates the stream into an [`ObsSummary`] and prints the summary
/// table to stderr on finish.
#[derive(Default)]
pub struct SummarySink {
    summary: ObsSummary,
    label: String,
}

impl SummarySink {
    /// A summary sink whose printed table is titled `label`.
    #[must_use]
    pub fn new(label: &str) -> Self {
        SummarySink {
            summary: ObsSummary::default(),
            label: label.to_owned(),
        }
    }
}

impl Sink for SummarySink {
    fn record(&mut self, events: &[TimedEvent]) {
        for ev in events {
            self.summary.record(ev);
        }
    }

    fn finish(&mut self) {
        eprintln!("[pns-obs] {}\n{}", self.label, self.summary);
    }
}

/// Aggregates the stream into a [`Profile`] (per-span-key latency,
/// self-vs-child time, plus the embedded summary) and writes the table
/// on finish: to `path` when given, else to stderr.
pub struct ProfileSink {
    profile: Profile,
    label: String,
    path: Option<String>,
}

impl ProfileSink {
    /// A profile sink titled `label`; `path` selects file output.
    #[must_use]
    pub fn new(label: &str, path: Option<String>) -> Self {
        ProfileSink {
            profile: Profile::default(),
            label: label.to_owned(),
            path,
        }
    }
}

impl Sink for ProfileSink {
    fn record(&mut self, events: &[TimedEvent]) {
        for ev in events {
            self.profile.record(ev);
        }
    }

    fn finish(&mut self) {
        let rendered = format!("[pns-obs] {} profile\n{}", self.label, self.profile);
        match &self.path {
            Some(path) => {
                // Best-effort: a profile dump must not kill the run.
                if let Err(err) = std::fs::write(path, &rendered) {
                    eprintln!("[pns-obs] cannot write profile to {path}: {err}");
                    eprintln!("{rendered}");
                }
            }
            None => eprintln!("{rendered}"),
        }
    }
}

/// Aggregates the stream like [`ProfileSink`], but writes a Prometheus
/// text exposition (spans as labeled histograms, summary totals as
/// counters) on finish: to `path` when given, else to stderr.
pub struct PromSink {
    profile: Profile,
    path: Option<String>,
}

impl PromSink {
    /// A Prometheus sink; `path` selects file output.
    #[must_use]
    pub fn new(path: Option<String>) -> Self {
        PromSink {
            profile: Profile::default(),
            path,
        }
    }
}

impl Sink for PromSink {
    fn record(&mut self, events: &[TimedEvent]) {
        for ev in events {
            self.profile.record(ev);
        }
    }

    fn finish(&mut self) {
        let mut registry = Registry::new();
        self.profile.export_to(&mut registry);
        let text = registry.prometheus_text();
        match &self.path {
            Some(path) => {
                if let Err(err) = std::fs::write(path, &text) {
                    eprintln!("[pns-obs] cannot write metrics to {path}: {err}");
                    eprint!("{text}");
                }
            }
            None => eprint!("{text}"),
        }
    }
}

/// Tees one stream into several sinks.
pub struct MultiSink {
    sinks: Vec<Box<dyn Sink>>,
}

impl MultiSink {
    /// Combine `sinks` into one.
    #[must_use]
    pub fn new(sinks: Vec<Box<dyn Sink>>) -> Self {
        MultiSink { sinks }
    }
}

impl Sink for MultiSink {
    fn record(&mut self, events: &[TimedEvent]) {
        for sink in &mut self.sinks {
            sink.record(events);
        }
    }

    fn finish(&mut self) {
        for sink in &mut self.sinks {
            sink.finish();
        }
    }
}

/// The typed form of a `PNS_OBS` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// No tracing (`off`, `0`, empty, or unset).
    Off,
    /// JSONL events appended to `path` (default `obs.jsonl`).
    Jsonl {
        /// Output path; `None` selects the default.
        path: Option<String>,
    },
    /// Summary table to stderr on finish.
    Summary,
    /// Profile table (span time breakdown) on finish.
    Profile {
        /// Output path; `None` selects stderr.
        path: Option<String>,
    },
    /// Prometheus text exposition on finish.
    Prom {
        /// Output path; `None` selects stderr.
        path: Option<String>,
    },
}

/// A `PNS_OBS` value that names no known sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectiveError {
    /// The rejected value, as given.
    pub value: String,
}

impl fmt::Display for DirectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown PNS_OBS directive {:?} (expected off | jsonl[:path] | summary | profile[:path] | prom[:path])",
            self.value
        )
    }
}

impl std::error::Error for DirectiveError {}

impl Directive {
    /// Parse a `PNS_OBS` value. Unknown sink names are an error, not a
    /// silent `Off` — a typo'd directive should not quietly disable the
    /// tracing the caller asked for.
    ///
    /// # Errors
    ///
    /// [`DirectiveError`] when the value names no known sink.
    pub fn parse(value: &str) -> Result<Directive, DirectiveError> {
        let value = value.trim();
        let (head, path) = match value.split_once(':') {
            Some((head, path)) => (head, Some(path).filter(|p| !p.is_empty())),
            None => (value, None),
        };
        let path = path.map(str::to_owned);
        match head {
            "" | "off" | "0" => {
                if path.is_none() {
                    Ok(Directive::Off)
                } else {
                    Err(DirectiveError {
                        value: value.to_owned(),
                    })
                }
            }
            "jsonl" => Ok(Directive::Jsonl { path }),
            "summary" if path.is_none() => Ok(Directive::Summary),
            "profile" => Ok(Directive::Profile { path }),
            "prom" => Ok(Directive::Prom { path }),
            _ => Err(DirectiveError {
                value: value.to_owned(),
            }),
        }
    }

    /// Build the sink this directive names; `None` for [`Directive::Off`]
    /// (and for a JSONL path that cannot be opened, which degrades with
    /// a stderr note rather than failing the run).
    #[must_use]
    pub fn into_sink(self, label: &str) -> Option<Box<dyn Sink>> {
        match self {
            Directive::Off => None,
            Directive::Jsonl { path } => {
                let path = path.as_deref().unwrap_or("obs.jsonl");
                match JsonlSink::append(path) {
                    Ok(sink) => Some(Box::new(sink)),
                    Err(err) => {
                        eprintln!("[pns-obs] cannot open {path}: {err}; tracing disabled");
                        None
                    }
                }
            }
            Directive::Summary => Some(Box::new(SummarySink::new(label))),
            Directive::Profile { path } => Some(Box::new(ProfileSink::new(label, path))),
            Directive::Prom { path } => Some(Box::new(PromSink::new(path))),
        }
    }
}

/// Parse a `PNS_OBS`-style directive into a sink. An unparseable value
/// is reported on stderr and yields `None` (tracing off); use
/// [`Directive::parse`] / [`try_from_env`] for the typed error.
#[must_use]
pub fn sink_from_directive(directive: &str, label: &str) -> Option<Box<dyn Sink>> {
    match Directive::parse(directive) {
        Ok(directive) => directive.into_sink(label),
        Err(err) => {
            eprintln!("[pns-obs] {err}; tracing disabled");
            None
        }
    }
}

/// [`sink_from_directive`] applied to the `PNS_OBS` environment
/// variable. Unset means `off`; malformed values are reported on
/// stderr and treated as `off`.
#[must_use]
pub fn from_env(label: &str) -> Option<Box<dyn Sink>> {
    std::env::var("PNS_OBS")
        .ok()
        .and_then(|v| sink_from_directive(&v, label))
}

/// Typed-error variant of [`from_env`]: `Ok(None)` when `PNS_OBS` is
/// unset or `off`, `Ok(Some(sink))` for a valid sink directive.
///
/// # Errors
///
/// [`DirectiveError`] when `PNS_OBS` is set to a malformed value.
pub fn try_from_env(label: &str) -> Result<Option<Box<dyn Sink>>, DirectiveError> {
    match std::env::var("PNS_OBS") {
        Ok(value) => Ok(Directive::parse(&value)?.into_sink(label)),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev(t_ns: u64) -> TimedEvent {
        TimedEvent {
            t_ns,
            event: Event::RoundEnd { round: t_ns },
        }
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let (mut sink, reader) = MemorySink::with_capacity(3);
        sink.record(&[ev(0), ev(1), ev(2), ev(3), ev(4)]);
        assert_eq!(reader.len(), 3);
        assert_eq!(reader.dropped(), 2);
        let kept: Vec<u64> = reader.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert!(!reader.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("pns_obs_sink_test.jsonl");
        let path_str = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = JsonlSink::append(path_str).expect("open");
            sink.record(&[ev(1), ev(2)]);
            sink.finish();
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let back: TimedEvent = serde_json::from_str(line).expect("parse");
            assert!(matches!(back.event, Event::RoundEnd { .. }));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multi_sink_fans_out() {
        let (ring_a, reader_a) = MemorySink::with_capacity(10);
        let (ring_b, reader_b) = MemorySink::with_capacity(10);
        let mut multi = MultiSink::new(vec![Box::new(ring_a), Box::new(ring_b)]);
        multi.record(&[ev(7)]);
        multi.finish();
        assert_eq!(reader_a.len(), 1);
        assert_eq!(reader_b.len(), 1);
    }

    #[test]
    fn directives_parse() {
        assert!(sink_from_directive("off", "t").is_none());
        assert!(sink_from_directive("", "t").is_none());
        assert!(sink_from_directive("nonsense", "t").is_none());
        assert!(sink_from_directive("summary", "t").is_some());
        let path = std::env::temp_dir().join("pns_obs_directive_test.jsonl");
        let directive = format!("jsonl:{}", path.to_str().expect("utf-8"));
        assert!(sink_from_directive(&directive, "t").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn summary_sink_finishes_without_panicking() {
        let mut sink = SummarySink::new("test run");
        sink.record(&[ev(1)]);
        sink.finish();
    }

    #[test]
    fn every_directive_variant_parses() {
        assert_eq!(Directive::parse(""), Ok(Directive::Off));
        assert_eq!(Directive::parse("off"), Ok(Directive::Off));
        assert_eq!(Directive::parse("0"), Ok(Directive::Off));
        assert_eq!(Directive::parse("  off  "), Ok(Directive::Off));
        assert_eq!(
            Directive::parse("jsonl"),
            Ok(Directive::Jsonl { path: None })
        );
        assert_eq!(
            Directive::parse("jsonl:/tmp/x.jsonl"),
            Ok(Directive::Jsonl {
                path: Some("/tmp/x.jsonl".to_owned())
            })
        );
        // A trailing colon with no path means the default path.
        assert_eq!(
            Directive::parse("jsonl:"),
            Ok(Directive::Jsonl { path: None })
        );
        assert_eq!(Directive::parse("summary"), Ok(Directive::Summary));
        assert_eq!(
            Directive::parse("profile"),
            Ok(Directive::Profile { path: None })
        );
        assert_eq!(
            Directive::parse("profile:out.txt"),
            Ok(Directive::Profile {
                path: Some("out.txt".to_owned())
            })
        );
        assert_eq!(Directive::parse("prom"), Ok(Directive::Prom { path: None }));
        assert_eq!(
            Directive::parse("prom:metrics.prom"),
            Ok(Directive::Prom {
                path: Some("metrics.prom".to_owned())
            })
        );
    }

    #[test]
    fn malformed_directives_are_typed_errors() {
        for bad in [
            "nonsense",
            "json",
            "jsonlx",
            "summary:path",
            "off:x",
            "Profile",
        ] {
            let err = Directive::parse(bad).expect_err(bad);
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains(bad), "{msg}");
            assert!(msg.contains("profile[:path]"), "{msg}");
        }
        // The untyped path degrades to None for compatibility.
        assert!(sink_from_directive("nonsense", "t").is_none());
    }

    #[test]
    fn directive_variants_build_their_sinks() {
        assert!(Directive::Off.into_sink("t").is_none());
        assert!(Directive::Summary.into_sink("t").is_some());
        assert!(Directive::Profile { path: None }.into_sink("t").is_some());
        assert!(Directive::Prom { path: None }.into_sink("t").is_some());
    }

    #[test]
    fn profile_sink_writes_its_table_to_a_file() {
        use crate::event::Event;
        let path = std::env::temp_dir().join("pns_obs_profile_sink_test.txt");
        let path_str = path.to_str().expect("utf-8 temp path").to_owned();
        let mut sink = ProfileSink::new("profile test", Some(path_str));
        sink.record(&[
            TimedEvent {
                t_ns: 0,
                event: Event::SpanEnter {
                    span: 1,
                    parent: 0,
                    tier: 3,
                    stage: 1,
                    class: 0,
                },
            },
            TimedEvent {
                t_ns: 10,
                event: Event::SpanExit {
                    span: 1,
                    dur_ns: 10,
                },
            },
        ]);
        sink.finish();
        let text = std::fs::read_to_string(&path).expect("profile file written");
        assert!(text.contains("kernel/sort"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prom_sink_writes_an_exposition_to_a_file() {
        use crate::event::Event;
        let path = std::env::temp_dir().join("pns_obs_prom_sink_test.prom");
        let path_str = path.to_str().expect("utf-8 temp path").to_owned();
        let mut sink = PromSink::new(Some(path_str));
        sink.record(&[TimedEvent {
            t_ns: 0,
            event: Event::S2Unit { units: 3, width: 0 },
        }]);
        sink.finish();
        let text = std::fs::read_to_string(&path).expect("prom file written");
        assert!(text.contains("pns_s2_units_total 3"), "{text}");
        let _ = std::fs::remove_file(&path);
    }
}
