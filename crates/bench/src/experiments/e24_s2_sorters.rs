//! E24 (extension) — the pluggable `S2` sorter suite end-to-end.
//! Deterministic claims:
//!
//! 1. Every candidate sorter's compiled program is bit-identical to the
//!    serial interpreter's oracle through **both** accelerated tiers:
//!    the flat kernel batch and the vertical column batch land every
//!    lane exactly where `BspMachine::run` with the OET-snake program
//!    puts it (all sorters sort, so all outputs agree lane for lane).
//! 2. Theorem 1 linearity holds per sorter: against the OET-snake row
//!    on the same fixture, measured total steps move by exactly
//!    `(r-1)²·ΔS2` — the a02 reconciliation, now across the whole
//!    suite. Beside it, the clean compare-exchanges the compiled program
//!    hands the fast tiers move by exactly `(r-1)²·N^(r-2)·Δsize`: the
//!    base sorter runs on `N^(r-2)` subgraphs at a time, and nothing
//!    else in the program depends on it.
//! 3. The auto-selector's pick has the fewest clean compare-exchanges on
//!    every fixture.
//! 4. On the dense `K(r,N)` fixtures at least one *new* sorter
//!    (multiway n-sorter or periodic merge) strictly improves both
//!    program depth and compiled rounds over the OET snake.
//!
//! Wall-clock columns (kernel-tier and vertical-tier batch sorts per
//! sorter, plus the sequential LSB-radix baseline on the same lanes)
//! are informational — they depend on the host — and are what the
//! nightly `BENCH_e24_s2.json` artifact tracks over time. The
//! acceptance bar — a measured kernel- or vertical-tier wall-time win
//! for a new sorter over the OET snake — is a release bar of the
//! [`artifact`] run, whose timings are release-mode.

use crate::{Measured, Report};
use pns_baselines::LsbRadixSorter;
use pns_graph::factories;
use pns_simulator::bsp::BspMachine;
use pns_simulator::{
    compile, score_sorters, select_sorter, Machine, ScratchPool, VerticalPool, WORD_LANES,
};
use serde::Serialize;
use std::time::Instant;

/// Lanes per batched timing pass: exactly one vertical word block, so
/// the column path runs at full word-level occupancy.
const BATCH: usize = WORD_LANES;
/// Timed repetitions per tier (keeps debug-mode tests quick while
/// giving release-mode timings something to average over).
const REPS: usize = 24;

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            state >> 33
        })
        .collect()
}

/// One measured `(fixture, sorter)` configuration, as serialized into
/// `BENCH_e24_s2.json`.
#[derive(Debug, Clone, Serialize)]
pub struct E24Row {
    /// Row identity for the perf-regression sentinel
    /// (`factor/r/sorter` — `factor` and `r` alone are not unique here
    /// because every fixture carries one row per candidate sorter).
    pub id: String,
    /// Factor graph name.
    pub factor: String,
    /// Product dimensions.
    pub r: usize,
    /// `N^r`.
    pub nodes: u64,
    /// Sorter display name ([`pns_simulator::Pg2Sorter::name`]).
    pub sorter: String,
    /// True on the row the auto-selector picks for this fixture.
    pub auto_pick: bool,
    /// `PG_2` program depth (rounds) at this factor size.
    pub depth: usize,
    /// `PG_2` program size (comparators).
    pub size: usize,
    /// Routing-aware executed `S2` steps on this factor — the quantity
    /// Theorem 1 multiplies by `(r-1)²`.
    pub s2_steps: u64,
    /// Measured total steps of a full executed sort.
    pub total_steps: u64,
    /// Rounds in the compiled `PG_r` program.
    pub rounds: usize,
    /// Clean compare-exchanges of the compiled `PG_r` program, adjacent
    /// and relayed ([`pns_simulator::KernelProgram::clean_cx_count`]):
    /// what the fault-free tiers execute, less what the level analysis
    /// prunes.
    pub clean_pairs: usize,
    /// Wall-time for `REPS` kernel-tier batch sorts of 64 lanes, ms.
    pub kernel_ms: f64,
    /// Wall-time for `REPS` vertical-tier column-batch sorts of the
    /// same 64 lanes, ms.
    pub vertical_ms: f64,
    /// Wall-time for `REPS` sequential LSB-radix sorts of the same 64
    /// lanes (the no-network sequence baseline, identical per fixture).
    pub radix_ms: f64,
    /// Strict improvement over the fixture's OET-snake row: smaller
    /// program depth *and* fewer compiled rounds.
    pub beats_oet_rounds: bool,
    /// Claims 1–3 for this row (claim 4 is checked across rows).
    pub ok: bool,
}

/// The sorters claim 4 and the wall-time bar are about.
fn is_new_sorter(sorter: &str) -> bool {
    sorter == "multiway-nsorter" || sorter == "periodic-merge"
}

/// The dense `K(r,N)` fixtures.
fn is_dense(factor: &str) -> bool {
    factor == "K4" || factor == "K8"
}

/// Measure every `(fixture, sorter)` configuration.
fn collect() -> Vec<E24Row> {
    let fixtures: Vec<(pns_graph::Graph, usize)> = vec![
        (Machine::prepare_factor(&factories::complete(4)), 2),
        (Machine::prepare_factor(&factories::complete(4)), 3),
        (Machine::prepare_factor(&factories::complete(8)), 2),
        (Machine::prepare_factor(&factories::path(8)), 2),
        (Machine::prepare_factor(&factories::k2()), 6),
    ];
    let mut rows: Vec<E24Row> = Vec::new();
    let mut radix = LsbRadixSorter::new();
    for (factor, r) in fixtures {
        let bsp = BspMachine::new(&factor, r);
        let len = bsp.shape().len();
        let batch: Vec<Vec<u64>> = (0..BATCH as u64)
            .map(|s| lcg_keys(len, s * 2654435761 + 0xE24))
            .collect();

        // The serial-interpreter oracle: `BspMachine::run` with the
        // OET-snake program on every lane. Claim 1 pins every sorter's
        // kernel and vertical outputs to these exact vectors.
        let scores = score_sorters(&factor);
        let oet = scores
            .iter()
            .find(|s| s.name == "oet-snake")
            .expect("oet-snake supports every n >= 2")
            .clone();
        let auto_id = select_sorter(&factor).id();
        let oet_program = compile(&factor, r, &pns_simulator::OetSnakeSorter);
        let oracle: Vec<Vec<u64>> = batch
            .iter()
            .map(|lane| {
                let mut keys = lane.clone();
                bsp.run(&mut keys, &oet_program);
                keys
            })
            .collect();
        let oet_rounds = oet_program.rounds();
        let oet_pairs = bsp
            .lower(&oet_program)
            .expect("compiled programs validate")
            .clean_cx_count();
        let subgraphs = (factor.n() as i64).pow(r as u32 - 2);

        // Theorem 1 baseline for claim 2: the OET row's (S2, total).
        let (oet_s2, oet_total) = executed_steps(&factor, r, "oet-snake");

        // The radix column prices the same batch through the sequence
        // baseline — one number per fixture, repeated on every row so
        // each JSON record is self-contained.
        let mut work = batch.clone();
        let t = Instant::now();
        for _ in 0..REPS {
            for (w, b) in work.iter_mut().zip(&batch) {
                w.clear();
                w.extend_from_slice(b);
                radix.sort_u64(w);
            }
        }
        let radix_ms = t.elapsed().as_secs_f64() * 1e3;

        let fixture_start = rows.len();
        for score in &scores {
            let sorter = pns_simulator::candidates()
                .into_iter()
                .find(|c| c.id() == score.id)
                .expect("scores come from the candidate list");
            let program = compile(&factor, r, sorter);
            let kernel = bsp.lower(&program).expect("compiled programs validate");
            let vertical = bsp
                .lower_vertical(&program)
                .expect("compiled programs validate");

            // Claim 1: bit-identical to the oracle through both tiers.
            let mut pool = ScratchPool::new();
            let mut kb = batch.clone();
            bsp.run_kernel_batch(&mut kb, &kernel, &mut pool);
            let mut vpool = VerticalPool::new();
            let mut vb = batch.clone();
            bsp.run_vertical_batch(&mut vb, &vertical, &mut vpool);
            let identical = kb == oracle && vb == oracle;

            // Claim 2: totals move by exactly (r-1)²·ΔS2 vs the OET row.
            let (s2, total) = executed_steps(&factor, r, score.name);
            let rr = (r - 1) as i64;
            let predicted_delta = rr * rr * (oet_s2 as i64 - s2 as i64);
            let measured_delta = oet_total as i64 - total as i64;
            let linear = predicted_delta == measured_delta && s2 == score.s2_steps;
            // ... and clean pairs by exactly (r-1)²·N^(r-2)·Δsize.
            let clean_pairs = kernel.clean_cx_count();
            let predicted_pairs = rr * rr * subgraphs * (oet.size as i64 - score.size as i64);
            let pairs_linear = predicted_pairs == oet_pairs as i64 - clean_pairs as i64;

            // Timed passes: the kernel batch and the vertical column
            // batch over the same 64 lanes. Inputs are restored with
            // `clone_from_slice` so the loops allocate nothing.
            let t0 = Instant::now();
            for _ in 0..REPS {
                for (w, b) in work.iter_mut().zip(&batch) {
                    w.clone_from_slice(b);
                }
                bsp.run_kernel_batch(&mut work, &kernel, &mut pool);
            }
            let kernel_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t1 = Instant::now();
            for _ in 0..REPS {
                for (w, b) in work.iter_mut().zip(&batch) {
                    w.clone_from_slice(b);
                }
                bsp.run_vertical_batch(&mut work, &vertical, &mut vpool);
            }
            let vertical_ms = t1.elapsed().as_secs_f64() * 1e3;

            rows.push(E24Row {
                id: format!("{}/r{r}/{}", factor.name(), score.name),
                factor: factor.name().to_owned(),
                r,
                nodes: len,
                sorter: score.name.to_owned(),
                auto_pick: score.id == auto_id,
                depth: score.depth,
                size: score.size,
                s2_steps: score.s2_steps,
                total_steps: total,
                rounds: program.rounds(),
                clean_pairs,
                kernel_ms,
                vertical_ms,
                radix_ms,
                beats_oet_rounds: score.depth < oet.depth && program.rounds() < oet_rounds,
                ok: identical && linear && pairs_linear,
            });
        }
        // Claim 3: the auto pick executes the fewest clean pairs.
        let fixture = &mut rows[fixture_start..];
        let fewest = fixture.iter().map(|row| row.clean_pairs).min();
        for row in fixture.iter_mut().filter(|row| row.auto_pick) {
            row.ok &= Some(row.clean_pairs) == fewest;
        }
    }
    rows
}

/// Run a full executed-machine sort with the named candidate and
/// return `(s2_steps, total_steps)` — the a02 measurement, reused for
/// the claim-2 reconciliation.
fn executed_steps(factor: &pns_graph::Graph, r: usize, name: &str) -> (u64, u64) {
    let sorter = pns_simulator::candidates()
        .into_iter()
        .find(|c| c.name() == name)
        .expect("named candidate exists");
    let mut m = Machine::executed(factor, r, sorter);
    let s2 = m.s2_steps();
    let len = (factor.n() as u64).pow(r as u32);
    let keys: Vec<u64> = (0..len).rev().collect();
    let rep = m.sort(keys).expect("key count");
    assert!(rep.is_snake_sorted(), "{name} must sort");
    (s2, rep.steps())
}

/// Build the experiment report from measured rows.
fn report_from_rows(rows: &[E24Row]) -> Report {
    let mut report = Report::new(
        "e24_s2_sorters",
        "Extension: pluggable S2 sorter suite — every candidate \
         bit-identical through kernel and vertical tiers, totals move \
         by exactly (r-1)²·ΔS2 and clean pairs by (r-1)²·N^(r-2)·Δsize, \
         the auto-selector picks the fewest clean pairs, and a new \
         sorter strictly beats the OET snake on dense fixtures",
        &[
            "factor",
            "r",
            "sorter",
            "auto",
            "depth",
            "size",
            "S2 steps",
            "total",
            "rounds",
            "clean pairs",
            "kernel ms",
            "vertical ms",
            "radix ms",
            "match",
        ],
    );
    for row in rows {
        report.check(row.ok);
        report.row(&[
            row.factor.clone(),
            row.r.to_string(),
            row.sorter.clone(),
            if row.auto_pick {
                "*".to_owned()
            } else {
                String::new()
            },
            row.depth.to_string(),
            row.size.to_string(),
            row.s2_steps.to_string(),
            row.total_steps.to_string(),
            row.rounds.to_string(),
            row.clean_pairs.to_string(),
            format!("{:.2}", row.kernel_ms),
            format!("{:.2}", row.vertical_ms),
            format!("{:.2}", row.radix_ms),
            row.ok.to_string(),
        ]);
    }
    // Claim 4: a new construction strictly improves depth *and*
    // compiled rounds over the OET snake on every dense K(r,N) fixture.
    let dense_improved = rows
        .iter()
        .any(|r| is_dense(&r.factor) && is_new_sorter(&r.sorter) && r.beats_oet_rounds && r.ok);
    report.check(dense_improved);
    report.note(&format!(
        "{REPS} reps per timed pass, batches of {BATCH} lanes. \
         `*` marks the auto-selector's per-fixture pick (fewest clean \
         pairs, ties broken by routing-aware S2 steps). Wall-clock columns are \
         host-dependent (everything in `match` is deterministic): \
         kernel/vertical are the two accelerated tiers over the same \
         64-lane batch, radix is the sequential LSB-radix sequence \
         baseline on identical lanes. Against the OET row, totals \
         reconcile as (r-1)²·ΔS2 and clean pairs as (r-1)²·N^(r-2)·Δsize, \
         exactly."
    ));
    report
}

/// Regenerate the S2 sorter-suite table.
#[must_use]
pub fn run() -> Report {
    report_from_rows(&collect())
}

/// The artifact run behind `BENCH_e24_s2.json`, with its release bar:
/// fewer compiled rounds must cash out as a measured kernel- or
/// vertical-tier wall-time win over the OET snake, on a dense fixture,
/// for at least one new sorter.
#[must_use]
pub fn artifact() -> Measured {
    let rows = collect();
    let wall_win = rows
        .iter()
        .filter(|row| is_dense(&row.factor) && is_new_sorter(&row.sorter))
        .any(|row| {
            rows.iter().any(|oet| {
                oet.sorter == "oet-snake"
                    && oet.factor == row.factor
                    && oet.r == row.r
                    && (row.kernel_ms < oet.kernel_ms || row.vertical_ms < oet.vertical_ms)
            })
        });
    let missed = if wall_win {
        Vec::new()
    } else {
        vec!["no new sorter beat oet-snake on kernel or vertical wall-time".to_owned()]
    };
    Measured::new(report_from_rows(&rows), &rows, missed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn s2_sorter_suite_table_matches() {
        let r = super::run();
        assert!(r.all_match, "{}", r.to_markdown());
    }
}
