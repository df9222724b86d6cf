//! The four workloads. Each is the one place where one layer does most
//! of the work (see README.md for the reasoning and the probe numbers).

use crate::adapter::{Factor, Faults};

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as given to `--workload`.
    pub name: &'static str,
    /// Label mixed into every input stream of the workload.
    pub label: u64,
    /// The factor graph.
    pub factor: Factor,
    /// Product dimension.
    pub r: usize,
    /// Product dimension in smoke mode (sub-second runs).
    pub smoke_r: usize,
    /// Low and high service arrival rates, in requests per second.
    pub rates: (f64, f64),
    /// Injected faults (`None`: clean).
    pub faults: Option<Faults>,
    /// Share of `--seconds` per phase: single, narrow, wide, low rate,
    /// high rate.
    pub weights: [f64; 5],
}

/// Rate of the all-kinds fault probe every traced run makes.
pub const ALL_KINDS_RATE: u64 = 1_000;

/// Every workload.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hypercube_large",
        label: 1,
        factor: Factor::K2,
        r: 14,
        smoke_r: 8,
        rates: (8.0, 20.0),
        faults: None,
        weights: [1.25, 1.0, 1.0, 1.5, 1.25],
    },
    Workload {
        name: "mct_routed",
        label: 2,
        factor: Factor::BinaryTree(3),
        r: 3,
        smoke_r: 3,
        rates: (100.0, 400.0),
        faults: None,
        weights: [1.0, 1.0, 1.0, 1.0, 1.0],
    },
    Workload {
        name: "star_service",
        label: 3,
        factor: Factor::Star(4),
        r: 3,
        smoke_r: 3,
        rates: (500.0, 4000.0),
        faults: None,
        weights: [1.0, 1.0, 1.0, 1.0, 1.0],
    },
    Workload {
        name: "star_faulted",
        label: 4,
        factor: Factor::Star(4),
        r: 3,
        smoke_r: 3,
        rates: (200.0, 500.0),
        faults: Some(Faults {
            rate_per_million: 10_000,
            compare_only: true,
        }),
        weights: [1.0, 1.0, 1.0, 1.0, 1.0],
    },
];

/// The workload called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
