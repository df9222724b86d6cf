//! E19 (extension) — the flat structure-of-arrays kernel tier vs the
//! serial interpreter, the oracle. Deterministic claims:
//!
//! 1. The lowered kernel produces configurations bit-identical to
//!    [`BspMachine::run`] on every tested topology, single vectors
//!    (`run_kernel`) and batches (`run_kernel_batch`).
//! 2. Lowering is shape-preserving: round count matches the source
//!    program, and every round classifies as compare or route (plus
//!    empties), with the class totals adding up.
//! 3. When the process counts allocations (`pns-bench` installs
//!    [`crate::counting_alloc::CountingAlloc`]), warm `run_kernel`
//!    calls perform **zero** heap allocations.
//!
//! Wall-clock columns (interpreter vs kernel, single and batched) are
//! informational — they depend on the host — and are what the nightly
//! `BENCH_e19_kernel.json` artifact tracks over time.

use crate::{counting_alloc, Measured, Report};
use pns_graph::factories;
use pns_simulator::bsp::BspMachine;
use pns_simulator::{
    compile, ExecScratch, Hypercube2Sorter, Machine, OetSnakeSorter, Pg2Sorter, ScratchPool,
    ShearSorter,
};
use serde::Serialize;
use std::time::Instant;

/// Vectors per batched timing pass.
const BATCH: usize = 16;
/// Timed repetitions per executor in the [`artifact`] run, which
/// writes `BENCH_e19_kernel.json`: enough for release-mode timings to
/// average over. [`run`] times one repetition, since no timing column
/// enters its `match`.
pub const REPS: usize = 64;

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            state >> 33
        })
        .collect()
}

/// One measured configuration, as serialized into
/// `BENCH_e19_kernel.json`.
#[derive(Debug, Clone, Serialize)]
pub struct E19Row {
    /// Factor graph name.
    pub factor: String,
    /// Product dimensions.
    pub r: usize,
    /// `N^r`.
    pub nodes: u64,
    /// Rounds in the lowered kernel (= the compiled program's rounds).
    pub rounds: usize,
    /// Rounds lowered to pure compare-exchange pair lists.
    pub compare_rounds: usize,
    /// Rounds lowered to packed route micro-ops.
    pub route_rounds: usize,
    /// Wall-time for `reps` single-vector `run` calls, ms.
    pub interp_ms: f64,
    /// Wall-time for `reps` warm single-vector `run_kernel` calls, ms.
    pub kernel_ms: f64,
    /// `interp_ms / kernel_ms`.
    pub speedup: f64,
    /// Wall-time for `reps` passes of 16 `run` calls, one per vector,
    /// ms.
    pub batch_interp_ms: f64,
    /// Wall-time for `reps` 16-vector `run_kernel_batch` calls, ms.
    pub batch_kernel_ms: f64,
    /// `batch_interp_ms / batch_kernel_ms`.
    pub batch_speedup: f64,
    /// Heap allocations across the `reps` timed single-vector `run`
    /// calls (probe builds only).
    pub interp_allocs: Option<u64>,
    /// Heap allocations across the `reps` timed warm `run_kernel`
    /// calls (probe builds only) — claim 3 requires exactly zero.
    pub kernel_allocs: Option<u64>,
    /// Claims 1–3 for this configuration.
    pub ok: bool,
}

/// Measure every configuration, timing `reps` repetitions of each
/// executor. `probe`, when supplied, reads the calling thread's
/// allocation count ([`counting_alloc::allocations`]); without it the
/// allocation columns stay empty.
fn collect(probe: Option<fn() -> u64>, reps: usize) -> Vec<E19Row> {
    let cases: Vec<(pns_graph::Graph, usize, &dyn Pg2Sorter)> = vec![
        // The headline ISSUE-5 workload: the 3-ary 3-cube.
        (factories::path(3), 3, &ShearSorter),
        (factories::k2(), 8, &Hypercube2Sorter),
        (
            Machine::prepare_factor(&factories::petersen()),
            2,
            &ShearSorter,
        ),
        (factories::star(4), 2, &OetSnakeSorter),
    ];
    let allocs = |probe: Option<fn() -> u64>| probe.map_or(0, |p| p());
    let mut rows = Vec::new();
    for (factor, r, sorter) in cases {
        let program = compile(&factor, r, sorter);
        let bsp = BspMachine::new(&factor, r);
        let kernel = bsp.lower(&program).expect("compiled programs validate");
        let len = kernel.shape().len();
        let input = lcg_keys(len, 0xE19);

        // Claim 1: bit-identical on every path.
        let mut reference = input.clone();
        bsp.run(&mut reference, &program);
        let mut scratch = ExecScratch::new();
        let mut single = input.clone();
        bsp.run_kernel(&mut single, &kernel, &mut scratch);
        let mut identical = single == reference;
        let batch: Vec<Vec<u64>> = (0..BATCH as u64)
            .map(|s| lcg_keys(len, s * 2654435761 + 3))
            .collect();
        {
            let mut bi = batch.clone();
            for keys in &mut bi {
                bsp.run(keys, &program);
            }
            let mut bk = batch.clone();
            let mut pool = ScratchPool::new();
            bsp.run_kernel_batch(&mut bk, &kernel, &mut pool);
            identical &= bi == bk;
        }

        // Claim 2: lowering preserves the round structure.
        let classes_ok = kernel.rounds() == program.rounds()
            && kernel.compare_rounds() + kernel.route_rounds() <= kernel.rounds();

        // Timed passes. The input is restored with `clone_from_slice`
        // so the loop itself allocates nothing and the allocation
        // deltas below are attributable to the executors alone.
        let mut keys = input.clone();
        let a0 = allocs(probe);
        let t0 = Instant::now();
        for _ in 0..reps {
            keys.clone_from_slice(&input);
            bsp.run(&mut keys, &program);
        }
        let interp_ms = t0.elapsed().as_secs_f64() * 1e3;
        let interp_allocs = probe.map(|p| p() - a0);

        keys.clone_from_slice(&input);
        bsp.run_kernel(&mut keys, &kernel, &mut scratch); // warm-up
        let a1 = allocs(probe);
        let t1 = Instant::now();
        for _ in 0..reps {
            keys.clone_from_slice(&input);
            bsp.run_kernel(&mut keys, &kernel, &mut scratch);
        }
        let kernel_ms = t1.elapsed().as_secs_f64() * 1e3;
        let kernel_allocs = probe.map(|p| p() - a1);

        // Claim 3: zero allocations per warm kernel run (probe builds).
        let alloc_ok = kernel_allocs.is_none_or(|a| a == 0);

        let mut work = batch.clone();
        let t2 = Instant::now();
        for _ in 0..reps {
            for (w, b) in work.iter_mut().zip(&batch) {
                w.clone_from_slice(b);
                bsp.run(w, &program);
            }
        }
        let batch_interp_ms = t2.elapsed().as_secs_f64() * 1e3;

        let mut pool = ScratchPool::new();
        let t3 = Instant::now();
        for _ in 0..reps {
            for (w, b) in work.iter_mut().zip(&batch) {
                w.clone_from_slice(b);
            }
            bsp.run_kernel_batch(&mut work, &kernel, &mut pool);
        }
        let batch_kernel_ms = t3.elapsed().as_secs_f64() * 1e3;

        rows.push(E19Row {
            factor: factor.name().to_owned(),
            r,
            nodes: len,
            rounds: kernel.rounds(),
            compare_rounds: kernel.compare_rounds(),
            route_rounds: kernel.route_rounds(),
            interp_ms,
            kernel_ms,
            speedup: interp_ms / kernel_ms.max(f64::EPSILON),
            batch_interp_ms,
            batch_kernel_ms,
            batch_speedup: batch_interp_ms / batch_kernel_ms.max(f64::EPSILON),
            interp_allocs,
            kernel_allocs,
            ok: identical && classes_ok && alloc_ok,
        });
    }
    rows
}

/// Build the experiment report from rows [`collect`] measured with
/// `reps` repetitions.
fn report_from_rows(rows: &[E19Row], reps: usize) -> Report {
    let mut report = Report::new(
        "e19_kernel_speedup",
        "Extension: flat SoA kernel tier — lowered kernels bit-identical \
         to the interpreting executor, shape-preserving lowering, zero \
         heap allocations per warm run_kernel call",
        &[
            "factor",
            "r",
            "nodes",
            "rounds (cmp+route)",
            "interp ms",
            "kernel ms",
            "speedup",
            "batch speedup",
            "allocs (interp/kernel)",
            "match",
        ],
    );
    for row in rows {
        report.check(row.ok);
        let alloc_col = match (row.interp_allocs, row.kernel_allocs) {
            (Some(i), Some(k)) => format!("{i}/{k}"),
            _ => "-".to_owned(),
        };
        report.row(&[
            row.factor.clone(),
            row.r.to_string(),
            row.nodes.to_string(),
            format!(
                "{} ({}+{})",
                row.rounds, row.compare_rounds, row.route_rounds
            ),
            format!("{:.2}", row.interp_ms),
            format!("{:.2}", row.kernel_ms),
            format!("{:.2}x", row.speedup),
            format!("{:.2}x", row.batch_speedup),
            alloc_col,
            row.ok.to_string(),
        ]);
    }
    report.note(&format!(
        "{reps} reps per timed pass, batches of {BATCH}. Wall-clock \
         columns are host-dependent (everything in `match` is \
         deterministic): `speedup` is single-vector run (the serial \
         interpreter, which checks every op) vs warm run_kernel, `batch \
         speedup` is one run per vector vs run_kernel_batch. The \
         allocation column (artifact runs only) counts heap \
         allocations across all {reps} timed calls; the kernel side \
         must be exactly 0 after its one warm-up run."
    ));
    report
}

/// Regenerate the kernel-speedup table with one timed repetition and
/// no allocation probe ([`artifact`] times [`REPS`] and adds one).
#[must_use]
pub fn run() -> Report {
    report_from_rows(&collect(None, 1), 1)
}

/// The artifact run behind `BENCH_e19_kernel.json`: [`REPS`]
/// repetitions, and the allocation columns, which count only in a
/// process that installs [`counting_alloc::CountingAlloc`]; a probe
/// that does not count is a missed bar.
#[must_use]
pub fn artifact() -> Measured {
    let missed = counting_alloc::probe_miss().into_iter().collect();
    let rows = collect(Some(counting_alloc::allocations), REPS);
    Measured::new(report_from_rows(&rows, REPS), &rows, missed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_speedup_table_matches() {
        let r = super::run();
        assert!(r.all_match, "{}", r.to_markdown());
    }
}
