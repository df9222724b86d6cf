//! E17 (extension) — the observability layer reconciles with the cost
//! accounting. For every engine kind the event stream must tell the
//! same story as [`pns_core::Counters`]:
//!
//! 1. **Charged and executed engines** emit one `S2Unit`/`RouteUnit`
//!    event per charged unit (at exactly the sites where `network_sort`
//!    increments the counters), so summing the events' `units` fields
//!    reproduces the counter totals event by event.
//! 2. **Compiled machines** lower the program past logical rounds, so
//!    they emit one aggregated `S2Unit`/`RouteUnit` pair per sort (and
//!    per batch) whose `units` equal the charged counters times the
//!    number of vectors sorted — the sums still reconcile exactly.
//! 3. `RoundStart`/`RoundEnd` events are well-paired, cache events
//!    match [`pns_simulator::CacheStats`], and the JSONL encoding
//!    round-trips losslessly (parse every line back, re-aggregate, get
//!    the same totals).
//!
//! With `PNS_OBS=jsonl[:path]` or `PNS_OBS=summary` the same stream is
//! teed to the requested sink, which is how `obs.jsonl` artifacts are
//! produced in CI.

use crate::Report;
use pns_graph::factories;
use pns_obs::{EventLogger, JsonlSink, MemorySink, MultiSink, ObsSummary, Sink, TimedEvent};
use pns_simulator::{
    CostModel, Hypercube2Sorter, Machine, OetSnakeSorter, ProgramCache, ShearSorter,
};

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            state >> 33
        })
        .collect()
}

/// A logger that records into memory and, when `PNS_OBS` asks for it,
/// tees the same stream into the user's sink.
fn memory_logger(label: &str) -> (EventLogger, pns_obs::MemoryReader) {
    let (mem, reader) = MemorySink::with_capacity(1 << 16);
    let mut sinks: Vec<Box<dyn Sink>> = vec![Box::new(mem)];
    if let Some(env_sink) = pns_obs::from_env(label) {
        sinks.push(env_sink);
    }
    (EventLogger::new(Box::new(MultiSink::new(sinks))), reader)
}

/// Write `events` to a fresh JSONL file, parse every line back, and
/// return the re-parsed events (empty on any I/O or parse failure).
fn jsonl_roundtrip(events: &[TimedEvent], tag: &str) -> Vec<TimedEvent> {
    let path = std::env::temp_dir().join(format!("pns_e17_{tag}.jsonl"));
    let Some(path_str) = path.to_str() else {
        return Vec::new();
    };
    let _ = std::fs::remove_file(&path);
    let Ok(mut sink) = JsonlSink::append(path_str) else {
        return Vec::new();
    };
    sink.record(events);
    sink.finish();
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    let parsed: Option<Vec<TimedEvent>> = text
        .lines()
        .map(|line| serde_json::from_str(line).ok())
        .collect();
    let _ = std::fs::remove_file(&path);
    parsed.unwrap_or_default()
}

/// Regenerate the event-vs-counter reconciliation table.
///
/// # Panics
///
/// Panics if a machine rejects its own shape-length key vector.
#[must_use]
pub fn run() -> Report {
    let mut report = Report::new(
        "e17_observability",
        "Extension: typed event tracing — aggregated S2Unit/RouteUnit \
         events reconcile exactly with Counters on every engine kind, \
         rounds pair up, cache events match CacheStats, JSONL round-trips",
        &[
            "case",
            "engine",
            "sorts",
            "events",
            "s2 ev",
            "s2 ctr",
            "route ev",
            "route ctr",
            "cache(h/m)",
            "match",
        ],
    );

    // One closure per engine kind: build the machine, sort `sorts`
    // vectors, return the summed counters and cache stats line.
    type Setup<'a> = (
        &'a str,
        &'a str,
        Box<dyn FnMut(&EventLogger) -> (u64, pns_core::Counters, String)>,
    );
    let charged: Setup = (
        "star(4) r=3",
        "charged",
        Box::new(|logger| {
            let factor = factories::star(4);
            let mut machine = Machine::charged(&factor, 3, CostModel::custom("unit", 1, 1));
            machine.attach_logger(logger.clone());
            let len = machine.shape().len();
            let mut total = pns_core::Counters::new();
            for seed in 0..3u64 {
                let rep = machine.sort(lcg_keys(len, seed * 31 + 5)).expect("length");
                assert!(rep.is_snake_sorted());
                total = total.then(rep.outcome.counters);
            }
            (3, total, "-".to_owned())
        }),
    );
    let executed: Setup = (
        "path(3) r=3",
        "executed",
        Box::new(|logger| {
            let factor = factories::path(3);
            let mut machine = Machine::executed(&factor, 3, &OetSnakeSorter);
            machine.attach_logger(logger.clone());
            let len = machine.shape().len();
            let mut total = pns_core::Counters::new();
            for seed in 0..2u64 {
                let rep = machine.sort(lcg_keys(len, seed * 17 + 3)).expect("length");
                assert!(rep.is_snake_sorted());
                total = total.then(rep.outcome.counters);
            }
            (2, total, "-".to_owned())
        }),
    );
    let compiled: Setup = (
        "k2 r=4",
        "compiled",
        Box::new(|logger| {
            let factor = factories::k2();
            let mut cache = ProgramCache::new();
            cache.attach_logger(logger.clone());
            let mut machine = Machine::compiled(&factor, 4, &Hypercube2Sorter, &cache);
            machine.attach_logger(logger.clone());
            let len = machine.shape().len();
            let mut total = pns_core::Counters::new();
            // One single-vector sort plus a 4-vector batch: 5 sorts, each
            // charged the full logical cost.
            let rep = machine.sort(lcg_keys(len, 1)).expect("length");
            assert!(rep.is_snake_sorted());
            total = total.then(rep.outcome.counters);
            let batch: Vec<Vec<u64>> = (0..4).map(|s| lcg_keys(len, s * 7 + 2)).collect();
            for rep in machine.sort_batch(batch) {
                let rep = rep.expect("lengths");
                assert!(rep.is_snake_sorted());
                total = total.then(rep.outcome.counters);
            }
            // A second machine on the same key: served from the cache.
            let mut again = Machine::compiled(&factor, 4, &Hypercube2Sorter, &cache);
            again.attach_logger(logger.clone());
            let rep = again.sort(lcg_keys(len, 9)).expect("length");
            assert!(rep.is_snake_sorted());
            total = total.then(rep.outcome.counters);
            (6, total, cache.stats().to_string())
        }),
    );
    let narrow: Setup = (
        "shear 4x4 r=2",
        "compiled",
        Box::new(|logger| {
            let factor = factories::path(4);
            let mut cache = ProgramCache::new();
            cache.attach_logger(logger.clone());
            let mut machine = Machine::compiled(&factor, 2, &ShearSorter, &cache);
            machine.attach_logger(logger.clone());
            let len = machine.shape().len();
            let batch: Vec<Vec<u64>> = (0..3).map(|s| lcg_keys(len, s + 40)).collect();
            let mut total = pns_core::Counters::new();
            for rep in machine.sort_batch(batch) {
                let rep = rep.expect("lengths");
                assert!(rep.is_snake_sorted());
                total = total.then(rep.outcome.counters);
            }
            (3, total, cache.stats().to_string())
        }),
    );

    for (i, (case, engine, mut body)) in [charged, executed, compiled, narrow]
        .into_iter()
        .enumerate()
    {
        let (logger, reader) = memory_logger(&format!("e17_observability {case}"));
        let (sorts, counters, cache_line) = body(&logger);
        logger.finish();
        let events = reader.events();
        let summary = ObsSummary::from_events(&events);

        // The reconciliation invariant: summed unit events == counters.
        let s2_ok = summary.s2_units == counters.s2_units;
        let route_ok = summary.route_units == counters.route_units;
        // Round events (when present) are well-paired.
        let rounds_ok = summary.unmatched_rounds() == 0;
        // JSONL encodes the stream losslessly.
        let reparsed = jsonl_roundtrip(&events, &format!("{engine}_{i}"));
        let json_summary = ObsSummary::from_events(&reparsed);
        let json_ok = reparsed.len() == events.len()
            && json_summary.s2_units == summary.s2_units
            && json_summary.route_units == summary.route_units
            && reader.dropped() == 0;

        let ok = s2_ok && route_ok && rounds_ok && json_ok && !events.is_empty();
        report.check(ok);
        report.row(&[
            case.to_owned(),
            engine.to_owned(),
            sorts.to_string(),
            events.len().to_string(),
            summary.s2_units.to_string(),
            counters.s2_units.to_string(),
            summary.route_units.to_string(),
            counters.route_units.to_string(),
            cache_line,
            ok.to_string(),
        ]);
    }

    report.note(
        "\"s2 ev\"/\"route ev\" sum the `units` fields of every S2Unit/\
         RouteUnit event in the stream; \"s2 ctr\"/\"route ctr\" sum the \
         Counters returned by the same sorts. Charged/executed engines \
         emit one event per charged unit; compiled machines emit one \
         aggregated pair per sort (logical rounds do not survive \
         lowering), so equality holds by construction on both paths — \
         the experiment checks it stays that way. Every stream also \
         survives a JSONL write/parse round-trip with identical totals. \
         Set PNS_OBS=jsonl[:path] or PNS_OBS=summary to tee the same \
         events to a file or a stderr table.",
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn events_reconcile_with_counters() {
        let r = super::run();
        assert!(r.all_match, "{}", r.to_markdown());
    }
}
