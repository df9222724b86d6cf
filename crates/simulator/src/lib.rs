//! Cycle-accurate synchronous simulation of the multiway-merge sorting
//! algorithm on product networks (Section 4 of Fernández & Efe).
//!
//! The simulator holds one key per node of `PG_r` and executes the
//! network-mapped algorithm as synchronous rounds. Two engines implement
//! the same control flow with different cost semantics:
//!
//! * **Charged** ([`engine::ChargedEngine`]): data operations complete
//!   instantly, and each parallel round of `PG_2` sorts is charged
//!   `S2(N)` steps while each odd-even transposition round is charged
//!   `R(N)` steps — exactly the paper's accounting, with the Section 5
//!   constants packaged as [`cost::CostModel`]s. This reproduces Lemma 3,
//!   Theorem 1 and every Section 5 closed form by measurement.
//! * **Executed** ([`engine::ExecutedEngine`]): `PG_2` sorts run real
//!   comparator programs ([`sorters`]) and transposition rounds run real
//!   routing on the factor graph; the step count is whatever actually
//!   happened, with every compare-exchange checked against the network's
//!   edge set. This demonstrates end-to-end realizability.
//!
//! [`machine::Machine`] is the user-facing entry point.
//!
//! # Layout of data
//!
//! Keys live in a `Vec<K>` indexed by *node rank* (the mixed-radix value of
//! the node label). "Sorted" means sorted in *snake order* (Definition 2):
//! reading nodes in snake order yields a nondecreasing sequence.

pub mod block;
pub mod bsp;
pub mod cache;
pub mod cost;
pub mod engine;
pub mod enumerate;
pub mod fault;
pub mod kernel;
pub mod machine;
pub mod netsort;
mod prune;
pub mod sample;
pub mod select;
pub mod sorters;
pub mod verify;
pub mod vertical;

pub use block::{block_sort, BlockEngine, SortedBlock};
pub use bsp::{
    compile, BspMachine, CertPoint, CompiledProgram, Op, ProgramError, ProgramStats,
    ValidationReport,
};
pub use cache::{fingerprint, CacheStats, ProgramCache, ProgramKey};
pub use cost::CostModel;
pub use engine::{ChargedEngine, Engine, ExecutedEngine, Pg2Instance};
pub use fault::{Detection, FaultError, FaultReport, InjectedFault, Retry};
pub use kernel::{
    ExecScratch, KeptNetwork, KernelProgram, RoundClass, ScratchPool, KERNEL_PAR_THRESHOLD,
};
// The fault plan/policy vocabulary is re-exported so executor callers
// need not depend on `pns-fault` directly.
pub use machine::{check_shape, Machine, SortError, SortReport};
pub use netsort::{network_sort, NetSortOutcome};
pub use pns_fault::{FaultKind, FaultPlan, FaultSite, OpClass, RetryPolicy};
pub use sample::{sample_sort, try_sample_sort, SampleSortOutcome};
pub use select::{
    candidates, score_sorter, score_sorters, select_sorter, SorterChoice, SorterScore,
};
pub use sorters::{
    Hypercube2Sorter, MultiwayNSorter, OetSnakeSorter, PeriodicMergeSorter, Pg2Sorter, ShearSorter,
};
pub use verify::{network_sort_checked, LoggingEngine, RoundRecord};
pub use vertical::{
    pack_zero_one_masks, pack_zero_one_masks_into, unpack_zero_one_lane, unpack_zero_one_lane_into,
    VerticalPool, VerticalProgram, VerticalScratch, VERTICAL_MIN_LANES, WORD_LANES,
};
