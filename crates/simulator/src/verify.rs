//! Deep verification: the stage invariant.
//!
//! The sorting algorithm maintains a strong invariant between stages:
//! after stage `k`, *every* `k`-dimensional subgraph over dimensions
//! `1 … k` holds its keys sorted in its own snake order
//! (that is exactly the precondition the stage-`k+1` merge needs).
//! [`network_sort_checked`] asserts the invariant after every stage — a
//! test/debug instrument that never perturbs the algorithm itself.

use crate::engine::Engine;
use crate::netsort::{network_stage, NetSortOutcome};
use pns_fault::detect::full_subgraph_certificate;
use pns_order::radix::Shape;

/// [`crate::netsort::network_sort`] with the inter-stage invariant
/// asserted: after the initial stage and after every merge stage `k`, all
/// `k`-dimensional subgraphs must be snake-sorted
/// ([`full_subgraph_certificate`], which the fault executors check).
///
/// # Panics
///
/// Panics if the invariant is ever violated (which would indicate a bug
/// in the algorithm implementation, not bad input).
pub fn network_sort_checked<K, E>(shape: Shape, keys: &mut [K], engine: &mut E) -> NetSortOutcome
where
    K: Ord + Clone,
    E: Engine<K>,
{
    assert_eq!(keys.len() as u64, shape.len(), "one key per node");
    let r = shape.r();
    assert!(r >= 2, "the algorithm needs at least two dimensions");
    let mut out = NetSortOutcome::default();
    let dims: Vec<usize> = (0..r).collect();
    for k in 2..=r {
        network_stage(shape, keys, engine, &dims[..k], &mut out);
        assert!(
            full_subgraph_certificate(shape, keys, k),
            "invariant violated after stage {k}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::engine::ChargedEngine;
    use crate::netsort::is_snake_sorted;

    #[test]
    fn checked_sort_passes_and_matches_unit_counts() {
        for (n, r) in [(3usize, 3usize), (2, 5), (4, 3)] {
            let shape = Shape::new(n, r);
            let mut keys: Vec<u64> = (0..shape.len()).rev().collect();
            let mut engine = ChargedEngine::new(CostModel::custom("unit", 1, 1));
            let out = network_sort_checked(shape, &mut keys, &mut engine);
            assert!(is_snake_sorted(shape, &keys));
            let rr = r as u64;
            assert_eq!(out.counters.s2_units, (rr - 1) * (rr - 1), "n={n} r={r}");
            assert_eq!(out.counters.route_units, (rr - 1) * (rr - 2));
        }
    }

    #[test]
    fn invariant_detector_flags_unsorted_subgraphs() {
        let shape = Shape::new(3, 3);
        let global_sorted: Vec<u64> = {
            // A fully snake-sorted configuration.
            let mut keys = vec![0u64; 27];
            for pos in 0..27u64 {
                let node = pns_order::snake::node_at_snake_pos(shape, pos);
                keys[node as usize] = pos;
            }
            keys
        };
        // Globally sorted ⇒ the full 3-dimensional invariant holds …
        assert!(full_subgraph_certificate(shape, &global_sorted, 3));
        // … but NOT the 2-dimensional one: odd dim-3 slices run backwards
        // in their own forward frame (that is what snake order means).
        assert!(!full_subgraph_certificate(shape, &global_sorted, 2));

        // A stage-2-like configuration: every PG_2 subgraph ascending in
        // its own forward snake order.
        let sub = Shape::new(3, 2);
        let mut stage2 = vec![0u64; 27];
        for u in 0..3u64 {
            for pos in 0..9u64 {
                let local = pns_order::snake::node_at_snake_pos(sub, pos);
                let node = shape.with_digit(local, 2, u as usize);
                stage2[node as usize] = u * 9 + pos;
            }
        }
        assert!(full_subgraph_certificate(shape, &stage2, 2));
        let mut broken = stage2;
        broken.swap(0, 1);
        assert!(!full_subgraph_certificate(shape, &broken, 2));
    }

    #[test]
    fn every_sort_round_covers_all_the_subgraphs() {
        let shape = Shape::new(3, 3);
        let mut keys: Vec<u64> = (0..27).rev().collect();
        let (sink, reader) = pns_obs::MemorySink::with_capacity(64);
        let logger = pns_obs::EventLogger::new(Box::new(sink));
        let mut engine = ChargedEngine::new(CostModel::custom("unit", 1, 1));
        engine.attach_logger(logger.clone());
        let out = crate::netsort::network_sort(shape, &mut keys, &mut engine);
        logger.flush();
        let widths: Vec<u64> = reader
            .events()
            .iter()
            .filter_map(|e| match e.event {
                pns_obs::Event::S2Unit { width, .. } => Some(width),
                _ => None,
            })
            .collect();
        assert_eq!(widths.len() as u64, out.counters.s2_units);
        // Every sort round covers all N^{r-2} = 3 subgraphs.
        assert!(widths.iter().all(|&w| w == 3), "{widths:?}");
    }
}
