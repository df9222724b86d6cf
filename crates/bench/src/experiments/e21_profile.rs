//! E21 (extension) — the timing-span layer profiles the whole executor
//! stack, and the profile reconciles with the ground truth. One
//! workload (the 2-ary 9-cube, 512 nodes) runs through every execution
//! tier with a recording logger attached; for each tier the aggregated
//! [`Profile`] must tell the same story as the executor itself:
//!
//! 1. **Balance** — every span opened is closed (`open_spans() == 0`,
//!    `spans_opened == spans_closed`), and for these same-thread trees
//!    the per-key self times sum exactly to the root time.
//! 2. **Coverage** — the root span time is ≥95% of the wall-clock
//!    measured around the timed executor calls, so the profile
//!    accounts for where a sort actually spends its time. (The span
//!    opens after argument checks and closes at return, so this is
//!    structural, not statistical.)
//! 3. **Reconciliation** — span counts and event counts equal what the
//!    program's shape predicts *exactly*: one sort/batch span per
//!    call; one round span per round at or above
//!    [`ROUND_OBS_MIN_OPS`] ops (per call); round events matching the
//!    tier's grain; and on `Machine` rows the summed `S2Unit` /
//!    `RouteUnit` events equal [`pns_core::Counters`] times the number
//!    of vectors sorted.
//!
//! The wall/span millisecond columns are host-dependent and are what
//! the nightly `BENCH_e21_profile.json` artifact tracks over time (the
//! `bench_compare` sentinel diffs them against `BENCH_baseline/`);
//! everything in `ok` is deterministic.

use crate::Report;
use pns_graph::factories;
use pns_obs::{
    EventLogger, MemorySink, Profile, SpanClass, Stage, Tier, ROUND_OBS_MIN_OPS, SORT_OBS_MIN_OPS,
};
use pns_simulator::bsp::BspMachine;
use pns_simulator::{compile, ExecScratch, Hypercube2Sorter, Machine, ProgramCache, WORD_LANES};
use serde::Serialize;
use std::time::Instant;

/// Product dimensions of the workload: `K2^9`, 512 nodes — large
/// enough that every kernel/vertical round clears the
/// [`ROUND_OBS_MIN_OPS`] gate or misses it predictably.
const R: usize = 9;
/// Wall-clock coverage the span tree must reach.
const MIN_COVERAGE: f64 = 0.95;

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            state >> 33
        })
        .collect()
}

fn random_words(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ (state >> 29)
        })
        .collect()
}

/// One profiled tier, as serialized into `BENCH_e21_profile.json`.
#[derive(Debug, Clone, Serialize)]
pub struct E21Row {
    /// Execution tier (`serial`, `kernel`, `vertical_bits`,
    /// `machine_sort`, `machine_batch`) — the row identity.
    pub tier: String,
    /// Timed executor calls.
    pub runs: u64,
    /// `N^r`.
    pub nodes: u64,
    /// Rounds in the program this tier executed.
    pub rounds: u64,
    /// Rounds per call at or above the [`ROUND_OBS_MIN_OPS`] span gate.
    pub observed_rounds: u64,
    /// Events the tier emitted across all runs.
    pub events: u64,
    /// Spans closed across all runs.
    pub spans: u64,
    /// Wall-clock across the timed calls, ms.
    pub wall_ms: f64,
    /// Root span time aggregated by the profile, ms.
    pub span_ms: f64,
    /// `span_ms / wall_ms` — must be ≥ 0.95 (claim 2).
    pub coverage_ratio: f64,
    /// Claims 1–3 for this tier.
    pub ok: bool,
}

/// The per-tier invariants shared by every row: balanced spans,
/// self-time accounting, wall-clock coverage.
fn structural_ok(profile: &Profile, wall_ns: u64) -> (f64, bool) {
    let coverage = profile.root_ns() as f64 / (wall_ns.max(1)) as f64;
    let ok = profile.open_spans() == 0
        && profile.summary().unmatched_spans() == 0
        && profile.total_self_ns() == profile.root_ns()
        && coverage >= MIN_COVERAGE;
    (coverage, ok)
}

/// Count of spans closed under `(tier, stage)` across all classes.
fn span_count(profile: &Profile, tier: Tier, stage: Stage) -> u64 {
    profile
        .stats()
        .filter(|(k, _)| k.tier == tier.code() && k.stage == stage.code())
        .map(|(_, s)| s.count)
        .sum()
}

/// Measure every tier on the shared workload.
///
/// # Panics
///
/// Panics if the compiled program fails validation (it cannot: it
/// comes from [`compile`]).
#[must_use]
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn collect() -> Vec<E21Row> {
    let factor = factories::k2();
    let sorter = Hypercube2Sorter;
    let program = compile(&factor, R, &sorter);
    let base_bsp = BspMachine::new(&factor, R);
    let len = base_bsp.shape().len();
    let kernel = base_bsp
        .lower(&program)
        .expect("compiled programs validate");
    let base_keys = lcg_keys(len, 0xE21);

    // Per-call round-span expectations, straight from the op counts
    // the gates read.
    let program_observed = program
        .round_ops()
        .iter()
        .filter(|r| r.len() >= ROUND_OBS_MIN_OPS)
        .count() as u64;
    let kernel_observed = (0..kernel.rounds())
        .filter(|&ri| kernel.round_len(ri) >= ROUND_OBS_MIN_OPS)
        .count() as u64;

    // Each tier records into its own memory sink so reconciliation is
    // exact per tier; 1<<20 events is far above any row's emission.
    let recorder = || {
        let (sink, reader) = MemorySink::with_capacity(1 << 20);
        (EventLogger::new(Box::new(sink)), reader)
    };
    let mut rows = Vec::new();

    // -- serial interpreter ------------------------------------------
    {
        let runs = 2u64;
        let (logger, reader) = recorder();
        let mut bsp = BspMachine::new(&factor, R);
        bsp.attach_logger(logger.clone());
        let mut keys = base_keys.clone();
        let mut wall_ns = 0u64;
        for _ in 0..runs {
            keys.copy_from_slice(&base_keys);
            let t = Instant::now();
            bsp.run(&mut keys, &program);
            wall_ns += t.elapsed().as_nanos() as u64;
        }
        logger.flush();
        let profile = Profile::from_events(&reader.events());
        let (coverage, structural) = structural_ok(&profile, wall_ns);
        // Serial round *events* are unconditional; round *spans* gate.
        let reconciled = profile.summary().rounds == program.rounds() as u64 * runs
            && span_count(&profile, Tier::Serial, Stage::Sort) == runs
            && span_count(&profile, Tier::Serial, Stage::Round) == program_observed * runs;
        rows.push(E21Row {
            tier: "serial".into(),
            runs,
            nodes: len,
            rounds: program.rounds() as u64,
            observed_rounds: program_observed,
            events: profile.summary().events,
            spans: profile.summary().spans_closed,
            wall_ms: wall_ns as f64 / 1e6,
            span_ms: profile.root_ns() as f64 / 1e6,
            coverage_ratio: coverage,
            ok: structural && reconciled,
        });
    }

    // -- flat SoA kernel ---------------------------------------------
    {
        let runs = 8u64;
        let (logger, reader) = recorder();
        let mut bsp = BspMachine::new(&factor, R);
        bsp.attach_logger(logger.clone());
        let mut scratch = ExecScratch::new();
        let mut keys = base_keys.clone();
        let mut wall_ns = 0u64;
        for _ in 0..runs {
            keys.copy_from_slice(&base_keys);
            let t = Instant::now();
            bsp.run_kernel(&mut keys, &kernel, &mut scratch);
            wall_ns += t.elapsed().as_nanos() as u64;
        }
        logger.flush();
        let profile = Profile::from_events(&reader.events());
        let (coverage, structural) = structural_ok(&profile, wall_ns);
        // Kernel round events *and* spans share the op-count gate, and
        // every observed round span carries a real class.
        let classed: u64 = profile
            .stats()
            .filter(|(k, _)| {
                k.tier == Tier::Kernel.code()
                    && k.stage == Stage::Round.code()
                    && k.class != SpanClass::None.code()
            })
            .map(|(_, s)| s.count)
            .sum();
        let reconciled = profile.summary().rounds == kernel_observed * runs
            && span_count(&profile, Tier::Kernel, Stage::Sort) == runs
            && span_count(&profile, Tier::Kernel, Stage::Round) == kernel_observed * runs
            && classed == kernel_observed * runs;
        rows.push(E21Row {
            tier: "kernel".into(),
            runs,
            nodes: len,
            rounds: kernel.rounds() as u64,
            observed_rounds: kernel_observed,
            events: profile.summary().events,
            spans: profile.summary().spans_closed,
            wall_ms: wall_ns as f64 / 1e6,
            span_ms: profile.root_ns() as f64 / 1e6,
            coverage_ratio: coverage,
            ok: structural && reconciled,
        });
    }

    // -- bit-sliced vertical -----------------------------------------
    {
        let runs = 32u64;
        let (logger, reader) = recorder();
        let mut bsp = BspMachine::new(&factor, R);
        bsp.attach_logger(logger.clone());
        // Lowered on the logger-free machine so the profile holds only
        // the timed runs (the memory reader snapshots, not drains).
        let vertical = base_bsp
            .lower_vertical(&program)
            .expect("compiled programs validate");
        let words = random_words(len, 0xE21);
        let mut work = words.clone();
        let mut wall_ns = 0u64;
        for _ in 0..runs {
            work.copy_from_slice(&words);
            let t = Instant::now();
            bsp.run_vertical_bits(&mut work, &vertical);
            wall_ns += t.elapsed().as_nanos() as u64;
        }
        logger.flush();
        let profile = Profile::from_events(&reader.events());
        let (coverage, structural) = structural_ok(&profile, wall_ns);
        let reconciled = profile.summary().rounds == kernel_observed * runs
            && span_count(&profile, Tier::Vertical, Stage::Sort) == runs
            && span_count(&profile, Tier::Vertical, Stage::Round) == kernel_observed * runs;
        rows.push(E21Row {
            tier: "vertical_bits".into(),
            runs,
            nodes: len,
            rounds: vertical.rounds() as u64,
            observed_rounds: kernel_observed,
            events: profile.summary().events,
            spans: profile.summary().spans_closed,
            wall_ms: wall_ns as f64 / 1e6,
            span_ms: profile.root_ns() as f64 / 1e6,
            coverage_ratio: coverage,
            ok: structural && reconciled,
        });
    }

    // -- Machine::sort (cache + kernel tier + unit events) -----------
    {
        let runs = 4u64;
        let (logger, reader) = recorder();
        let mut cache = ProgramCache::new();
        cache.attach_logger(logger.clone());
        let mut machine = Machine::compiled(&factor, R, &sorter, &cache);
        machine.attach_logger(logger.clone());
        let mut wall_ns = 0u64;
        let mut counters = pns_core::Counters::new();
        for run in 0..runs {
            let keys = lcg_keys(len, run * 77 + 5);
            let t = Instant::now();
            let report = machine.sort(keys).expect("one key per node");
            wall_ns += t.elapsed().as_nanos() as u64;
            counters = counters.then(report.outcome.counters);
        }
        logger.flush();
        let all = reader.events();
        // The cache's compile/lower spans ran outside the timed calls;
        // profile only the sort stream, but keep the full stream's
        // summary for the cache checks below.
        let full = Profile::from_events(&all);
        // A cache span closes before anything else opens, so dropping
        // each Cache enter plus its immediately-following exits leaves
        // a well-formed sort-only stream.
        let mut depth = 0u64;
        let sorts: Vec<_> = all
            .iter()
            .filter(|e| match e.event {
                pns_obs::Event::SpanEnter { tier, .. } if tier == Tier::Cache.code() => {
                    depth += 1;
                    false
                }
                pns_obs::Event::SpanExit { .. } if depth > 0 => {
                    depth -= 1;
                    false
                }
                _ => true,
            })
            .copied()
            .collect();
        let profile = Profile::from_events(&sorts);
        let (coverage, structural) = structural_ok(&profile, wall_ns);
        let reconciled = profile.summary().s2_units == counters.s2_units
            && profile.summary().route_units == counters.route_units
            && span_count(&profile, Tier::Kernel, Stage::Sort) == runs
            && full.summary().cache_misses == 1
            && span_count(&full, Tier::Cache, Stage::Compile) == 1
            && span_count(&full, Tier::Cache, Stage::LowerKernel) == 1
            && span_count(&full, Tier::Cache, Stage::LowerVertical) == 1;
        rows.push(E21Row {
            tier: "machine_sort".into(),
            runs,
            nodes: len,
            rounds: kernel.rounds() as u64,
            observed_rounds: kernel_observed,
            events: full.summary().events,
            spans: full.summary().spans_closed,
            wall_ms: wall_ns as f64 / 1e6,
            span_ms: profile.root_ns() as f64 / 1e6,
            coverage_ratio: coverage,
            ok: structural && reconciled,
        });
    }

    // -- Machine::sort_batch on the vertical tier --------------------
    {
        let lanes = WORD_LANES as u64;
        let (logger, reader) = recorder();
        let cache = ProgramCache::new();
        let mut machine = Machine::compiled(&factor, R, &sorter, &cache);
        machine.attach_logger(logger.clone());
        let batch: Vec<Vec<u64>> = (0..lanes).map(|s| lcg_keys(len, s * 31 + 11)).collect();
        let t = Instant::now();
        let reports = machine.sort_batch(batch);
        let wall_ns = t.elapsed().as_nanos() as u64;
        let sorted = reports.iter().all(|r| r.is_ok());
        logger.flush();
        let profile = Profile::from_events(&reader.events());
        let (coverage, structural) = structural_ok(&profile, wall_ns);
        let per_sort = reports[0]
            .as_ref()
            .map(|r| r.outcome.counters)
            .unwrap_or_default();
        let reconciled = sorted
            && profile.summary().batches == 1
            && profile.summary().batch_vectors == lanes
            && profile.summary().s2_units == per_sort.s2_units * lanes
            && profile.summary().route_units == per_sort.route_units * lanes
            && span_count(&profile, Tier::Vertical, Stage::Batch) == 1;
        rows.push(E21Row {
            tier: "machine_batch".into(),
            runs: 1,
            nodes: len,
            rounds: kernel.rounds() as u64,
            observed_rounds: kernel_observed,
            events: profile.summary().events,
            spans: profile.summary().spans_closed,
            wall_ms: wall_ns as f64 / 1e6,
            span_ms: profile.root_ns() as f64 / 1e6,
            coverage_ratio: coverage,
            ok: structural && reconciled,
        });
    }

    rows
}

/// Build the experiment report from measured rows (separated from
/// [`collect`] so the binary can serialize the same rows to JSON).
#[must_use]
pub fn report_from_rows(rows: &[E21Row]) -> Report {
    let mut report = Report::new(
        "e21_profile",
        "Extension: hierarchical timing spans — every execution tier \
         profiled on one K2^9 workload; span trees balance, cover ≥95% \
         of sort wall-clock, and reconcile exactly with round/unit \
         counts",
        &[
            "tier", "runs", "nodes", "rounds", "observed", "events", "spans", "wall ms", "span ms",
            "coverage", "match",
        ],
    );
    for row in rows {
        report.check(row.ok);
        report.row(&[
            row.tier.clone(),
            row.runs.to_string(),
            row.nodes.to_string(),
            row.rounds.to_string(),
            row.observed_rounds.to_string(),
            row.events.to_string(),
            row.spans.to_string(),
            format!("{:.2}", row.wall_ms),
            format!("{:.2}", row.span_ms),
            format!("{:.3}", row.coverage_ratio),
            row.ok.to_string(),
        ]);
    }
    report.note(&format!(
        "One K2^{R} workload (512 nodes) through all five entry points, \
         each with a recording logger. `observed` counts the rounds per \
         call at or above the {ROUND_OBS_MIN_OPS}-op span gate \
         (ROUND_OBS_MIN_OPS); the serial interpreter emits round *events* \
         unconditionally but gates round *spans*, while kernel/vertical \
         gate both, and their sort-grain spans additionally require \
         {SORT_OBS_MIN_OPS} total program ops (SORT_OBS_MIN_OPS) — the \
         K2^{R} program clears every gate. `coverage` is root span \
         time over wall time of the \
         timed calls — ≥{MIN_COVERAGE} required. Machine rows also \
         reconcile aggregated S2Unit/RouteUnit event sums against \
         pns_core::Counters exactly, and pin the cache's \
         compile/lower spans to exactly one miss. The ms columns feed \
         BENCH_e21_profile.json for the bench_compare sentinel."
    ));
    report
}

/// Regenerate the profiling table.
#[must_use]
pub fn run() -> Report {
    report_from_rows(&collect())
}

#[cfg(test)]
mod tests {
    #[test]
    fn profile_table_matches() {
        let r = super::run();
        assert!(r.all_match, "{}", r.to_markdown());
    }
}
