//! E16 (extension) — batched BSP execution with a compiled-program
//! cache. Two claims, both checked deterministically:
//!
//! 1. [`Machine::sort_batch`] produces configurations bit-identical to
//!    serial [`BspMachine::run`] (and to `std` sort via snake order) on
//!    every tested topology.
//! 2. A second machine on the same `(factor, r, sorter)` is served from
//!    the [`ProgramCache`] without recompiling (hit counter goes up,
//!    miss counter does not).
//!
//! Wall-clock throughput columns (keys/ms, the serial interpreter vs
//! `Machine::sort_batch`) are informational — they depend on the host —
//! and are recorded in EXPERIMENTS.md for one reference machine.

use crate::report::obs_logger;
use crate::Report;
use pns_graph::factories;
use pns_simulator::bsp::BspMachine;
use pns_simulator::netsort::read_snake_order;
use pns_simulator::{fingerprint, Hypercube2Sorter};
use pns_simulator::{Machine, OetSnakeSorter, Pg2Sorter, ProgramCache, ShearSorter};
use std::time::Instant;

/// Vectors per batch. Wide enough for the column tier, small enough
/// that the experiment stays fast in debug builds.
const BATCH: usize = 16;

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            state >> 33
        })
        .collect()
}

/// Regenerate the throughput/cache table.
#[must_use]
pub fn run() -> Report {
    let mut report = Report::new(
        "e16_throughput",
        "Extension: batched BSP execution + program cache — batch output \
         bit-identical to serial runs, cache serves repeats without \
         recompiling",
        &[
            "factor",
            "r",
            "nodes",
            "rounds",
            "ops",
            "cache(h/m)",
            "serial keys/ms",
            "batch keys/ms",
            "match",
        ],
    );
    let cases: Vec<(pns_graph::Graph, usize, &dyn Pg2Sorter)> = vec![
        (factories::k2(), 8, &Hypercube2Sorter),
        (factories::path(4), 3, &ShearSorter),
        (
            Machine::prepare_factor(&factories::petersen()),
            2,
            &ShearSorter,
        ),
        (factories::star(4), 2, &OetSnakeSorter),
    ];
    // PNS_OBS=jsonl[:path] | summary | off selects the tracing sink.
    let logger = obs_logger("e16_throughput");
    let mut cache_lines = Vec::new();
    for (factor, r, sorter) in cases {
        let mut cache = ProgramCache::new();
        cache.attach_logger(logger.clone());
        let mut machine = Machine::compiled(&factor, r, sorter, &cache);
        machine.attach_logger(logger.clone());
        let shape = machine.shape();
        let len = shape.len();
        let bsp = BspMachine::new(&factor, r);
        let program = machine.program().expect("compiled machine").clone();

        // Claim 1: batch == serial == std sort, elementwise.
        let batch: Vec<Vec<u64>> = (0..BATCH as u64)
            .map(|s| lcg_keys(len, s * 1299721 + 17))
            .collect();
        let serial: Vec<Vec<u64>> = batch
            .iter()
            .map(|keys| {
                let mut k = keys.clone();
                bsp.run(&mut k, &program);
                k
            })
            .collect();
        let reports = machine.sort_batch(batch.clone());
        let batched: Vec<Vec<u64>> = reports
            .into_iter()
            .map(|rep| rep.expect("batch lengths").keys)
            .collect();
        let identical = batched == serial;
        let std_sorted = batched.iter().zip(&batch).all(|(got, input)| {
            let mut expect = input.clone();
            expect.sort_unstable();
            read_snake_order(shape, got) == expect
        });

        // Claim 2: the second machine is a pure cache hit.
        let before = cache.stats();
        let mut again = Machine::compiled(&factor, r, sorter, &cache);
        again.attach_logger(logger.clone());
        let after = cache.stats();
        let cache_ok = after.hits == before.hits + 1
            && after.misses == before.misses
            && after.entries == before.entries;
        let again_out = again.sort(batch[0].clone()).expect("length ok");
        let cached_identical = again_out.keys == serial[0];

        // Informational wall-clock throughput (not part of `match`).
        let serial_ms = {
            let start = Instant::now();
            for keys in &batch {
                let mut k = keys.clone();
                bsp.run(&mut k, &program);
            }
            start.elapsed().as_secs_f64() * 1e3
        };
        let batch_ms = {
            let b = batch.clone();
            let start = Instant::now();
            let _sorted = machine.sort_batch(b);
            start.elapsed().as_secs_f64() * 1e3
        };
        let total_keys = (len * BATCH as u64) as f64;
        let ok = identical && std_sorted && cache_ok && cached_identical;
        report.check(ok);
        report.row(&[
            format!(
                "{} [{:016x}]",
                factor.name(),
                fingerprint(&factor, r, sorter)
            ),
            r.to_string(),
            len.to_string(),
            program.rounds().to_string(),
            program.op_count().to_string(),
            format!("{}/{}", cache.stats().hits, cache.stats().misses),
            format!("{:.0}", total_keys / serial_ms),
            format!("{:.0}", total_keys / batch_ms),
            ok.to_string(),
        ]);
        cache_lines.push(format!("{}: {}", factor.name(), cache.stats()));
    }
    logger.finish();
    report.note(&format!("Final cache state — {}.", cache_lines.join("; ")));
    report.note(&format!(
        "Batch size {BATCH}; throughput columns are wall-clock and \
         host-dependent (everything else is deterministic): `serial` \
         runs each vector through the validating interpreter \
         (BspMachine::run), `batch` is one Machine::sort_batch call \
         (the column tier at this width). The cache \
         column counts hits/misses after constructing the same machine \
         twice: one miss (the first compile), one hit, zero \
         recompilations. Fingerprints are the FNV digest of \
         (n, r, sorter, edge set); the cache itself keys on the full \
         edge set, so equal-size factors with different wiring cannot \
         collide."
    ));
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn throughput_table_matches() {
        let r = super::run();
        assert!(r.all_match, "{}", r.to_markdown());
    }
}
