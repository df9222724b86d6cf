//! Experiment harness: one module per paper artifact (figure, lemma,
//! theorem, or Section 5 instantiation), each regenerating the artifact
//! and reporting paper-vs-measured rows.
//!
//! The `pns-bench` binary runs them: `cargo run -p pns-bench -- <id>`
//! runs one (e.g. `e05_cost_model`), `-- all` runs every one, and
//! `--` alone lists the ids and the other subcommands. `EXPERIMENTS.md`
//! at the workspace root records the outputs.

pub mod compare;
pub mod counting_alloc;
pub mod report;

pub mod experiments {
    //! The experiment index (see DESIGN.md §3).
    pub mod a01_labeling;
    pub mod a02_pg2_sorter;
    pub mod a03_sorting_network;
    pub mod e01_construction;
    pub mod e02_orders;
    pub mod e03_dirty_window;
    pub mod e04_worked_example;
    pub mod e05_cost_model;
    pub mod e06_universal_bound;
    pub mod e07_grid;
    pub mod e08_mct;
    pub mod e09_hypercube;
    pub mod e10_petersen;
    pub mod e11_debruijn;
    pub mod e12_columnsort;
    pub mod e13_blocks;
    pub mod e14_bsp;
    pub mod e15_randomized;
    pub mod e16_throughput;
    pub mod e17_observability;
    pub mod e18_fault_tolerance;
    pub mod e19_kernel_speedup;
    pub mod e20_vertical_speedup;
    pub mod e21_profile;
    pub mod e22_service;
    pub mod e24_s2_sorters;
}

pub use report::Report;
use serde::Serialize;

/// An experiment entry: stable id plus the function regenerating it.
pub type Experiment = (&'static str, fn() -> Report);

/// All experiments in index order, as `(id, runner)` pairs.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    use experiments::*;
    vec![
        ("e01_construction", e01_construction::run as fn() -> Report),
        ("e02_orders", e02_orders::run),
        ("e03_dirty_window", e03_dirty_window::run),
        ("e04_worked_example", e04_worked_example::run),
        ("e05_cost_model", e05_cost_model::run),
        ("e06_universal_bound", e06_universal_bound::run),
        ("e07_grid", e07_grid::run),
        ("e08_mct", e08_mct::run),
        ("e09_hypercube", e09_hypercube::run),
        ("e10_petersen", e10_petersen::run),
        ("e11_debruijn", e11_debruijn::run),
        ("e12_columnsort", e12_columnsort::run),
        ("e13_blocks", e13_blocks::run),
        ("e14_bsp", e14_bsp::run),
        ("e15_randomized", e15_randomized::run),
        ("e16_throughput", e16_throughput::run),
        ("e17_observability", e17_observability::run),
        ("e18_fault_tolerance", e18_fault_tolerance::run),
        ("e19_kernel_speedup", e19_kernel_speedup::run),
        ("e20_vertical_speedup", e20_vertical_speedup::run),
        ("e21_profile", e21_profile::run),
        ("e22_service", e22_service::run),
        ("e24_s2_sorters", e24_s2_sorters::run),
        ("a01_labeling", a01_labeling::run),
        ("a02_pg2_sorter", a02_pg2_sorter::run),
        ("a03_sorting_network", a03_sorting_network::run),
    ]
}

/// What an artifact run measured: the report, its rows as the
/// `BENCH_*.json` file holds them, and every release bar they missed.
pub struct Measured {
    /// The experiment's report at artifact scale.
    pub report: Report,
    /// The measured rows, serialized as a JSON array.
    pub rows_json: String,
    /// One message per release bar the rows missed.
    pub missed_bars: Vec<String>,
}

impl Measured {
    /// Serialize `rows` beside their report.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not serialize (they hold only numbers,
    /// strings, booleans and options).
    #[must_use]
    pub fn new<R: Serialize>(report: Report, rows: &[R], missed_bars: Vec<String>) -> Self {
        Measured {
            report,
            rows_json: serde_json::to_string_pretty(&rows).expect("rows serialize"),
            missed_bars,
        }
    }
}

/// An artifact experiment: its id in [`all_experiments`], the
/// `BENCH_*.json` file it writes, and its artifact run, which measures at
/// artifact scale for the nightly gate (DESIGN.md §13). Its entry in
/// [`all_experiments`] keeps the quick run.
pub type Artifact = (&'static str, &'static str, fn() -> Measured);

/// Every experiment that writes a `BENCH_*.json` artifact, in index
/// order.
#[must_use]
pub fn all_artifacts() -> Vec<Artifact> {
    use experiments::*;
    vec![
        (
            "e19_kernel_speedup",
            "BENCH_e19_kernel.json",
            e19_kernel_speedup::artifact as fn() -> Measured,
        ),
        (
            "e20_vertical_speedup",
            "BENCH_e20_vertical.json",
            e20_vertical_speedup::artifact,
        ),
        (
            "e21_profile",
            "BENCH_e21_profile.json",
            e21_profile::artifact,
        ),
        (
            "e22_service",
            "BENCH_e22_service.json",
            e22_service::artifact,
        ),
        (
            "e24_s2_sorters",
            "BENCH_e24_s2.json",
            e24_s2_sorters::artifact,
        ),
    ]
}

/// The artifact experiment `id` writes, if it writes one.
#[must_use]
pub fn artifact(id: &str) -> Option<Artifact> {
    all_artifacts().into_iter().find(|(a, ..)| *a == id)
}
