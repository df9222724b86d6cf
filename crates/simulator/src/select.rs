//! Auto-selection of the `PG_2` base sorter, per factor shape.
//!
//! Theorem 1 runs the base sorter `(r-1)²` times, so the cheapest base
//! program multiplies through the whole stack. The clean tiers (kernel,
//! vertical, the service's clean rung) pay per compare-exchange: a
//! relayed pair lowers to one paired compare-exchange like an adjacent
//! one, so routing costs them nothing. A compiled `PG_r` program runs
//! `(r-1)²·N^(r-2)·size + c` clean compare-exchanges, where `size` is
//! the base program's comparator count and `c` (the merge's
//! transposition steps) is the same for every candidate. The selector
//! therefore picks the fewest comparators, and breaks ties with the
//! *executed* engine's routing-aware step count, the paper's cost: on
//! `K_2` every candidate has 6 comparators and the 3-step sorter's 3
//! steps win. The winner is cached per `(n, wiring)`.
//!
//! Scoring is deliberately cheap — it builds each candidate's program
//! and prices every round against the factor's edge set (the same
//! arithmetic [`ExecutedEngine::new`] does on construction), without
//! compiling, lowering, or sorting anything.

use crate::cache::normalized_edges;
use crate::engine::ExecutedEngine;
use crate::sorters::{
    Hypercube2Sorter, MultiwayNSorter, OetSnakeSorter, PeriodicMergeSorter, Pg2Sorter, ShearSorter,
};
use pns_graph::Graph;
use pns_order::radix::Shape;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// The shared candidate instances, in scoring order. Ties on every
/// criterion resolve to the earliest candidate, so specialized
/// constructions come first.
static HYPERCUBE2: Hypercube2Sorter = Hypercube2Sorter;
static MULTIWAY: MultiwayNSorter = MultiwayNSorter;
static PERIODIC: PeriodicMergeSorter = PeriodicMergeSorter { extra_blocks: 0 };
static SHEAR: ShearSorter = ShearSorter;
static OET: OetSnakeSorter = OetSnakeSorter;

/// Every sorter the auto-selector considers.
#[must_use]
pub fn candidates() -> [&'static dyn Pg2Sorter; 5] {
    [&HYPERCUBE2, &MULTIWAY, &PERIODIC, &SHEAR, &OET]
}

/// One candidate's score for a factor: network shape metrics, of which
/// [`size`](Self::size) decides selection, plus the routing-aware
/// executed step count that breaks its ties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SorterScore {
    /// Display name ([`Pg2Sorter::name`]).
    pub name: &'static str,
    /// Cache identity ([`Pg2Sorter::id`]).
    pub id: String,
    /// Program depth (rounds) on this factor size.
    pub depth: usize,
    /// Program size (comparators): the clean compare-exchanges of one
    /// `PG_2` sort, adjacent or relayed. It depends on the factor size
    /// alone.
    pub size: usize,
    /// Executed `S2` steps on this factor: each round costs 1 if all its
    /// comparator label pairs are edges, else the routed-exchange round
    /// count. This is the quantity Theorem 1 multiplies by `(r-1)²`;
    /// selection reads it only on ties in [`size`](Self::size).
    pub s2_steps: u64,
}

/// Score one sorter on a (prepared) factor.
#[must_use]
pub fn score_sorter(factor: &Graph, sorter: &dyn Pg2Sorter) -> SorterScore {
    let n = factor.n();
    let program = sorter.program(n);
    let engine = ExecutedEngine::new(factor, Shape::new(n, 2), sorter);
    SorterScore {
        name: sorter.name(),
        id: sorter.id(),
        depth: program.len(),
        size: program.iter().map(Vec::len).sum(),
        s2_steps: engine.s2_steps(),
    }
}

/// Score every supported candidate on a (prepared) factor, in candidate
/// order.
#[must_use]
pub fn score_sorters(factor: &Graph) -> Vec<SorterScore> {
    candidates()
        .into_iter()
        .filter(|s| s.supports(factor.n()))
        .map(|s| score_sorter(factor, s))
        .collect()
}

type WinnerCache = Mutex<HashMap<(usize, Vec<(u32, u32)>), usize>>;

fn winner_cache() -> &'static WinnerCache {
    static CACHE: OnceLock<WinnerCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Pick the best sorter for a (prepared) factor: the fewest clean
/// compare-exchanges, that is minimum [`SorterScore::size`], ties broken
/// by executed `s2_steps`, then depth, then candidate order. `size`
/// depends on `n` alone, so the wiring decides only ties (at `n = 2`,
/// where every candidate has 6 comparators, `s2_steps` does); that is
/// why the winner is memoized per `(n, wiring)`, and repeated
/// construction of machines over the same topology scores once.
#[must_use]
pub fn select_sorter(factor: &Graph) -> &'static dyn Pg2Sorter {
    let key = (factor.n(), normalized_edges(factor));
    if let Some(&idx) = winner_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return candidates()[idx];
    }
    let (idx, _) = candidates()
        .into_iter()
        .enumerate()
        .filter(|(_, s)| s.supports(factor.n()))
        .map(|(i, s)| (i, score_sorter(factor, s)))
        .min_by_key(|(_, sc)| (sc.size, sc.s2_steps, sc.depth))
        .expect("at least one candidate supports every n ≥ 2");
    winner_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key, idx);
    candidates()[idx]
}

/// A sorter choice threaded through machine and service construction:
/// either a fixed named construction, or per-shape auto-selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SorterChoice {
    /// Score all candidates on the shape and use the winner.
    #[default]
    Auto,
    /// The paper's odd-even transposition snake ([`OetSnakeSorter`]).
    OetSnake,
    /// Shearsort with OET phases ([`ShearSorter`]).
    Shear,
    /// The `N = 2` 3-step sorter ([`Hypercube2Sorter`]).
    Hypercube3Step,
    /// Batcher-phase multiway n-sorter ([`MultiwayNSorter`]).
    MultiwayNsorter,
    /// Periodic balanced-block phases ([`PeriodicMergeSorter`]).
    PeriodicMerge,
}

impl SorterChoice {
    /// Stable config/display token for this choice.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SorterChoice::Auto => "auto",
            SorterChoice::OetSnake => "oet-snake",
            SorterChoice::Shear => "shearsort",
            SorterChoice::Hypercube3Step => "hypercube-3step",
            SorterChoice::MultiwayNsorter => "multiway-nsorter",
            SorterChoice::PeriodicMerge => "periodic-merge",
        }
    }

    /// Parse a config token ([`SorterChoice::as_str`] round-trips).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "auto" => Some(SorterChoice::Auto),
            "oet-snake" => Some(SorterChoice::OetSnake),
            "shearsort" => Some(SorterChoice::Shear),
            "hypercube-3step" => Some(SorterChoice::Hypercube3Step),
            "multiway-nsorter" => Some(SorterChoice::MultiwayNsorter),
            "periodic-merge" => Some(SorterChoice::PeriodicMerge),
            _ => None,
        }
    }

    /// Resolve to a concrete sorter for a (prepared) factor. A fixed
    /// choice that does not support the factor's size (the 3-step
    /// hypercube sorter away from `N = 2`) falls back to auto-selection
    /// rather than panicking, so a service config stays valid across its
    /// whole shape registry.
    #[must_use]
    pub fn resolve(self, factor: &Graph) -> &'static dyn Pg2Sorter {
        let fixed: &'static dyn Pg2Sorter = match self {
            SorterChoice::Auto => return select_sorter(factor),
            SorterChoice::OetSnake => &OET,
            SorterChoice::Shear => &SHEAR,
            SorterChoice::Hypercube3Step => &HYPERCUBE2,
            SorterChoice::MultiwayNsorter => &MULTIWAY,
            SorterChoice::PeriodicMerge => &PERIODIC,
        };
        if fixed.supports(factor.n()) {
            fixed
        } else {
            select_sorter(factor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use pns_graph::factories;

    #[test]
    fn dense_factors_pick_the_multiway_nsorter() {
        // On K_4 and K_8 the multiway n-sorter has the fewest
        // comparators (100 and 1,064), and the fewest rounds too.
        for n in [4usize, 8] {
            let factor = Machine::prepare_factor(&factories::complete(n));
            let winner = select_sorter(&factor);
            assert_eq!(winner.name(), "multiway-nsorter", "n={n}");
        }
    }

    #[test]
    fn sparse_factors_pick_the_fewest_comparators_though_they_route() {
        // On a path, the multiway n-sorter's long comparators route, so
        // its executed steps lose to the adjacent-only schedules
        // (shearsort's rows and columns are both path-adjacent, and its
        // 56 rounds beat the OET snake's 64). The clean tiers pay per
        // compare-exchange, relayed or not, so its 1,064 comparators
        // still win: shearsort has 1,568 and the snake 2,016.
        let factor = Machine::prepare_factor(&factories::path(8));
        let winner = select_sorter(&factor);
        assert_eq!(winner.name(), "multiway-nsorter");
        let scores = score_sorters(&factor);
        let oet = scores.iter().find(|s| s.name == "oet-snake").unwrap();
        let shear = scores.iter().find(|s| s.name == "shearsort").unwrap();
        let multi = scores
            .iter()
            .find(|s| s.name == "multiway-nsorter")
            .unwrap();
        assert!(oet.s2_steps < multi.s2_steps, "routing must be priced in");
        assert!(shear.s2_steps < oet.s2_steps);
        assert_eq!(oet.s2_steps, 64, "adjacent-only rounds cost 1 each");
        assert_eq!((multi.size, shear.size, oet.size), (1_064, 1_568, 2_016));
        assert!(scores
            .iter()
            .all(|s| s.name == multi.name || s.size > multi.size));
    }

    #[test]
    fn k2_picks_the_3_step_hypercube_sorter() {
        // Every candidate has 6 comparators at N = 2, so executed steps
        // decide, and the 3-step sorter comes first among those with 3.
        let factor = Machine::prepare_factor(&factories::k2());
        let winner = select_sorter(&factor);
        assert_eq!(winner.name(), "hypercube-3step");
        assert_eq!(score_sorter(&factor, winner).s2_steps, 3);
        assert!(score_sorters(&factor).iter().all(|s| s.size == 6));
    }

    #[test]
    fn selection_is_memoized_per_wiring() {
        let factor = Machine::prepare_factor(&factories::complete(4));
        let a = select_sorter(&factor);
        let b = select_sorter(&factor);
        assert!(std::ptr::eq(a, b), "same static instance both times");
        // A different wiring on the same node count is its own entry.
        // Sizes depend on `n` alone, so the cycle keeps K_4's pick,
        // though routing its long pairs costs it more steps.
        let cycle = Machine::prepare_factor(&factories::cycle(4));
        let c = select_sorter(&cycle);
        assert!(std::ptr::eq(a, c), "fewest comparators on both wirings");
        assert!(score_sorter(&cycle, c).s2_steps > score_sorter(&factor, a).s2_steps);
        let cache = winner_cache()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for wiring in [&factor, &cycle] {
            assert!(cache.contains_key(&(4, normalized_edges(wiring))));
        }
    }

    #[test]
    fn candidates_gate_on_support() {
        let n3 = Machine::prepare_factor(&factories::path(3));
        let names: Vec<_> = score_sorters(&n3).iter().map(|s| s.name).collect();
        assert!(!names.contains(&"hypercube-3step"), "n=3 unsupported");
        let n2 = Machine::prepare_factor(&factories::k2());
        let names: Vec<_> = score_sorters(&n2).iter().map(|s| s.name).collect();
        assert!(names.contains(&"hypercube-3step"));
    }

    #[test]
    fn choice_tokens_round_trip_and_resolve() {
        for choice in [
            SorterChoice::Auto,
            SorterChoice::OetSnake,
            SorterChoice::Shear,
            SorterChoice::Hypercube3Step,
            SorterChoice::MultiwayNsorter,
            SorterChoice::PeriodicMerge,
        ] {
            assert_eq!(SorterChoice::from_name(choice.as_str()), Some(choice));
        }
        assert_eq!(SorterChoice::from_name("bogus"), None);
        assert_eq!(SorterChoice::default(), SorterChoice::Auto);

        let k4 = Machine::prepare_factor(&factories::complete(4));
        assert_eq!(
            SorterChoice::OetSnake.resolve(&k4).name(),
            "oet-snake",
            "fixed choices are honored"
        );
        assert_eq!(
            SorterChoice::Auto.resolve(&k4).name(),
            "multiway-nsorter",
            "auto picks the per-shape winner"
        );
        // Unsupported fixed choice falls back to selection, not a panic.
        assert_eq!(
            SorterChoice::Hypercube3Step.resolve(&k4).name(),
            "multiway-nsorter"
        );
    }
}
