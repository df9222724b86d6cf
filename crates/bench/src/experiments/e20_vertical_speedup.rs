//! E20 (extension) — the bit-sliced vertical tier vs the flat kernel
//! batch. Deterministic claims:
//!
//! 1. The bit path is exact: 64 zero-one lanes packed one bit per lane
//!    into a `u64` word per node land, lane for lane, exactly where
//!    `run_kernel_batch` puts the scalar 0/1 vectors — raw and
//!    optimized lowerings.
//! 2. The column path is exact: a full-key batch of more than one word
//!    of lanes (two even blocks) is bit-identical to `run_kernel_batch`
//!    on both lowerings.
//! 3. When the process counts allocations (`pns-bench` installs
//!    [`crate::counting_alloc::CountingAlloc`]), warm
//!    `run_vertical_bits` calls perform **zero** heap allocations.
//!
//! Wall-clock columns (kernel batch vs packed bits on the same 64
//! zero-one lanes, and the full-key column path) are informational —
//! they depend on the host — and are what the nightly
//! `BENCH_e20_vertical.json` artifact tracks over time. The acceptance
//! bar — bits ≥ [`BIT_SPEEDUP_BAR`]× over the kernel batch on 0/1
//! lanes — is a release bar of the [`artifact`] run, whose timings are
//! release-mode.

use crate::{counting_alloc, Measured, Report};
use pns_graph::factories;
use pns_simulator::bsp::BspMachine;
use pns_simulator::{
    compile, unpack_zero_one_lane, Hypercube2Sorter, Machine, OetSnakeSorter, Pg2Sorter,
    ScratchPool, ShearSorter, VerticalPool, WORD_LANES,
};
use serde::Serialize;
use std::time::Instant;

/// Full-key lanes per column-path timing pass: more than one word, so
/// the timed path splits into blocks (35 + 35 lanes on these shapes).
const COL_BATCH: usize = 70;
/// Timed repetitions per executor.
const REPS: usize = 64;
/// The bit path's release bar: its speedup over the kernel batch on
/// the same 64 zero-one lanes.
pub const BIT_SPEEDUP_BAR: f64 = 4.0;

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            state >> 33
        })
        .collect()
}

/// Full-width random words: bit `l` of `words[i]` is lane `l`'s 0/1
/// key at node `i`, so one call seeds 64 independent 0/1 lanes at once
/// (the mask-packing helpers cap nodes at 64; direct word generation
/// does not, and petersen² has 100 nodes).
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

/// One measured configuration, as serialized into
/// `BENCH_e20_vertical.json`.
#[derive(Debug, Clone, Serialize)]
pub struct E20Row {
    /// Factor graph name.
    pub factor: String,
    /// Product dimensions.
    pub r: usize,
    /// `N^r`.
    pub nodes: u64,
    /// Rounds in the vertical program (= the kernel's rounds).
    pub rounds: usize,
    /// Word-level operations per `run_vertical_bits` call.
    pub word_ops: usize,
    /// Wall-time for `REPS` kernel-batch runs of the 64 scalar 0/1
    /// lanes, ms.
    pub kernel01_ms: f64,
    /// Wall-time for `REPS` warm `run_vertical_bits` calls on the same
    /// 64 lanes packed into one word block, ms.
    pub bits_ms: f64,
    /// `kernel01_ms / bits_ms` — the headline E20 ratio.
    pub bit_speedup: f64,
    /// Wall-time for `REPS` kernel-batch runs of the 70 full-key
    /// lanes, ms.
    pub kernel_full_ms: f64,
    /// Wall-time for `REPS` warm `run_vertical_batch` runs of the same
    /// full-key lanes, ms.
    pub cols_ms: f64,
    /// `kernel_full_ms / cols_ms` (informational; the column path
    /// trades word-level parallelism for transpose locality).
    pub col_speedup: f64,
    /// Heap allocations across the `REPS` timed warm
    /// `run_vertical_bits` calls (probe builds only) — claim 3
    /// requires exactly zero.
    pub bits_allocs: Option<u64>,
    /// Claims 1–3 for this configuration.
    pub ok: bool,
}

/// Measure every configuration. `probe`, when supplied, reads the
/// calling thread's allocation count ([`counting_alloc::allocations`]);
/// without it the allocation column stays empty.
fn collect(probe: Option<fn() -> u64>) -> Vec<E20Row> {
    let cases: Vec<(pns_graph::Graph, usize, &dyn Pg2Sorter)> = vec![
        (
            Machine::prepare_factor(&factories::petersen()),
            2,
            &ShearSorter,
        ),
        (factories::path(3), 3, &ShearSorter),
        (factories::k2(), 6, &Hypercube2Sorter),
        (factories::star(4), 2, &OetSnakeSorter),
    ];
    let allocs = |probe: Option<fn() -> u64>| probe.map_or(0, |p| p());
    let mut rows = Vec::new();
    for (factor, r, sorter) in cases {
        let program = compile(&factor, r, sorter);
        let optimized = program.optimized();
        let bsp = BspMachine::new(&factor, r);
        let len = bsp.shape().len();
        let n = len as usize;
        let vertical = bsp
            .lower_vertical(&program)
            .expect("compiled programs validate");
        let vertical_opt = bsp
            .lower_vertical(&optimized)
            .expect("optimized programs validate");
        let kernel = bsp.lower(&program).expect("compiled programs validate");
        let kernel_opt = bsp.lower(&optimized).expect("optimized programs validate");

        // 64 random 0/1 lanes, as packed words and as scalar vectors.
        let input_words = random_words(len, 0xE20);
        let batch01: Vec<Vec<u64>> = (0..WORD_LANES)
            .map(|l| (0..n).map(|i| (input_words[i] >> l) & 1).collect())
            .collect();

        // Claim 1: the bit path is lane-exact vs the kernel batch.
        let mut pool = ScratchPool::new();
        let mut kernel01 = batch01.clone();
        bsp.run_kernel_batch(&mut kernel01, &kernel, &mut pool);
        let mut identical = true;
        for v in [&vertical, &vertical_opt] {
            let mut words = input_words.clone();
            bsp.run_vertical_bits(&mut words, v);
            for (l, want) in kernel01.iter().enumerate() {
                let got = unpack_zero_one_lane(&words, l);
                identical &= got.iter().map(|&k| u64::from(k)).eq(want.iter().copied());
            }
        }

        // Claim 2: the column path is bit-identical on full keys.
        let full: Vec<Vec<u64>> = (0..COL_BATCH as u64)
            .map(|s| lcg_keys(len, s * 2654435761 + 7))
            .collect();
        let mut kernel_full = full.clone();
        bsp.run_kernel_batch(&mut kernel_full, &kernel, &mut pool);
        {
            let mut check = full.clone();
            bsp.run_kernel_batch(&mut check, &kernel_opt, &mut pool);
            identical &= check == kernel_full;
        }
        let mut vpool = VerticalPool::new();
        for v in [&vertical, &vertical_opt] {
            let mut cols = full.clone();
            bsp.run_vertical_batch(&mut cols, v, &mut vpool);
            identical &= cols == kernel_full;
        }

        // Timed passes. Inputs are restored with `clone_from_slice` /
        // `copy_from_slice` so the loops themselves allocate nothing
        // and the allocation delta is attributable to the executor.
        let mut work01 = batch01.clone();
        let t0 = Instant::now();
        for _ in 0..REPS {
            for (w, b) in work01.iter_mut().zip(&batch01) {
                w.clone_from_slice(b);
            }
            bsp.run_kernel_batch(&mut work01, &kernel, &mut pool);
        }
        let kernel01_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut words = input_words.clone();
        bsp.run_vertical_bits(&mut words, &vertical); // warm-up
        let a0 = allocs(probe);
        let t1 = Instant::now();
        for _ in 0..REPS {
            words.copy_from_slice(&input_words);
            bsp.run_vertical_bits(&mut words, &vertical);
        }
        let bits_ms = t1.elapsed().as_secs_f64() * 1e3;
        let bits_allocs = probe.map(|p| p() - a0);

        // Claim 3: zero allocations per warm bit run (probe builds).
        let alloc_ok = bits_allocs.is_none_or(|a| a == 0);

        let mut work = full.clone();
        let t2 = Instant::now();
        for _ in 0..REPS {
            for (w, b) in work.iter_mut().zip(&full) {
                w.clone_from_slice(b);
            }
            bsp.run_kernel_batch(&mut work, &kernel, &mut pool);
        }
        let kernel_full_ms = t2.elapsed().as_secs_f64() * 1e3;

        let t3 = Instant::now();
        for _ in 0..REPS {
            for (w, b) in work.iter_mut().zip(&full) {
                w.clone_from_slice(b);
            }
            bsp.run_vertical_batch(&mut work, &vertical, &mut vpool);
        }
        let cols_ms = t3.elapsed().as_secs_f64() * 1e3;

        rows.push(E20Row {
            factor: factor.name().to_owned(),
            r,
            nodes: len,
            rounds: vertical.rounds(),
            word_ops: vertical.word_ops(),
            kernel01_ms,
            bits_ms,
            bit_speedup: kernel01_ms / bits_ms.max(f64::EPSILON),
            kernel_full_ms,
            cols_ms,
            col_speedup: kernel_full_ms / cols_ms.max(f64::EPSILON),
            bits_allocs,
            ok: identical && alloc_ok,
        });
    }
    rows
}

/// Build the experiment report from measured rows.
fn report_from_rows(rows: &[E20Row]) -> Report {
    let mut report = Report::new(
        "e20_vertical_speedup",
        "Extension: bit-sliced vertical tier — packed 0/1 words and \
         full-key column blocks bit-identical to the kernel batch, zero \
         heap allocations per warm run_vertical_bits call",
        &[
            "factor",
            "r",
            "nodes",
            "rounds",
            "word ops",
            "kernel 0/1 ms",
            "bits ms",
            "bit speedup",
            "col speedup",
            "bits allocs",
            "match",
        ],
    );
    for row in rows {
        report.check(row.ok);
        report.row(&[
            row.factor.clone(),
            row.r.to_string(),
            row.nodes.to_string(),
            row.rounds.to_string(),
            row.word_ops.to_string(),
            format!("{:.2}", row.kernel01_ms),
            format!("{:.3}", row.bits_ms),
            format!("{:.1}x", row.bit_speedup),
            format!("{:.2}x", row.col_speedup),
            row.bits_allocs.map_or("-".to_owned(), |a| a.to_string()),
            row.ok.to_string(),
        ]);
    }
    report.note(&format!(
        "{REPS} reps per timed pass. `bit speedup` compares \
         run_kernel_batch on {WORD_LANES} scalar 0/1 lanes against one \
         run_vertical_bits call on the same lanes packed one bit per \
         lane (compare-exchange on 0/1 keys is AND/OR, so one word op \
         replaces {WORD_LANES} comparator visits); the acceptance bar is \
         ≥ 4x, enforced by the release artifact run. `col speedup` is the \
         full-key column path on {COL_BATCH} lanes (two even blocks, one \
         per thread) against the same kernel batch — informational. \
         Everything in `match` is deterministic: lane-exact bit path, \
         bit-identical column path, and (artifact runs) zero allocations \
         across all {REPS} warm bit calls."
    ));
    report
}

/// Regenerate the vertical-speedup table (no allocation probe;
/// [`artifact`] adds one).
#[must_use]
pub fn run() -> Report {
    report_from_rows(&collect(None))
}

/// The artifact run behind `BENCH_e20_vertical.json`: the allocation
/// column, which counts only in a process that installs
/// [`counting_alloc::CountingAlloc`], and a missed bar for every row
/// whose bit speedup is below [`BIT_SPEEDUP_BAR`].
#[must_use]
pub fn artifact() -> Measured {
    let rows = collect(Some(counting_alloc::allocations));
    let missed = rows
        .iter()
        .filter(|row| row.bit_speedup < BIT_SPEEDUP_BAR)
        .map(|row| {
            format!(
                "{}^{}: bit speedup {:.1}x below the {BIT_SPEEDUP_BAR}x acceptance bar",
                row.factor, row.r, row.bit_speedup
            )
        })
        .collect();
    Measured::new(report_from_rows(&rows), &rows, missed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn vertical_speedup_table_matches() {
        let r = super::run();
        assert!(r.all_match, "{}", r.to_markdown());
    }
}
