//! E22's obs check can fail: an exporter that burns a quarter of its
//! cadence of CPU per scrape must read past the 5% budget. The check
//! divides by the process's CPU, so this is the only test in its
//! binary: a test running beside it would add CPU to the denominator.

use pns_bench::experiments::e22_service::{
    drive_with_exporter, export_scrape, thread_cpu_ns, Scenario, EXPORT_CADENCE, OBS_TAX_BUDGET_PCT,
};
use product_sort::obs::Registry;
use product_sort::service::{ServiceConfig, SortService};
use product_sort::sim::FaultPlan;
use std::time::Instant;

/// The real scrape, then a quarter of the cadence of CPU on top.
fn burning(service: &SortService, registry: &mut Registry) {
    export_scrape(service, registry);
    let burn = EXPORT_CADENCE.as_nanos() as u64 / 4;
    let (wall, cpu) = (Instant::now(), thread_cpu_ns());
    while match cpu.zip(thread_cpu_ns()) {
        Some((start, now)) => now - start < burn,
        None => (wall.elapsed().as_nanos() as u64) < burn,
    } {
        std::hint::spin_loop();
    }
}

#[test]
fn an_exporter_that_burns_a_quarter_of_its_cadence_fails_the_check() {
    // One submitter and one worker keep the request path to two
    // threads, at most two cores' worth of CPU, so the share reads
    // ≥ 2.5 / (2 · 12.5) = 10% on any host.
    let scenario = Scenario {
        name: "steady_state",
        requests: 4_000,
        threads: 1,
        window: 64,
        config: ServiceConfig {
            coalesce_budget_ns: 200_000,
            request_timeout_ns: 2_000_000_000,
            workers: 1,
            ..ServiceConfig::default()
        },
        fault_plan: FaultPlan::disabled(),
        export_obs: true,
    };
    let outcome = drive_with_exporter(&scenario, burning);
    assert!(outcome.fully_accounted() && outcome.failed == 0 && outcome.exports > 0);
    let share = outcome.exporter_share_pct();
    assert!(
        share >= OBS_TAX_BUDGET_PCT,
        "a burning exporter must fail the {OBS_TAX_BUDGET_PCT}% check: read {share:.2}% \
         ({} exports, {} µs of CPU in them, {:?} ns of process CPU, {} µs wall)",
        outcome.exports,
        outcome.export_ns / 1_000,
        outcome.cpu_ns,
        outcome.wall_ns / 1_000
    );
}
