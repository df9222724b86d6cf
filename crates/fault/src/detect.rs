//! Cheap snake-order certificates: sampled adjacent-pair probes.
//!
//! The executor's per-phase invariant is "every `k`-dimensional
//! subgraph over dimensions `0 … k-1` is snake-sorted". Checking it in
//! full costs one pass over the keys; this module offers the sampled
//! alternative for hot paths: probe `d` randomly chosen adjacent pairs
//! in subgraph snake order. Each probe is a two-key zero-one spot check
//! (by the zero-one principle, a pair `a > b` at adjacent snake
//! positions is exactly a 0/1 witness of unsortedness), so a failing
//! configuration with `f` inverted adjacent pairs escapes `d` probes
//! with probability `(1 - f/P)^d` for `P` total pairs.
//!
//! Sampling is seeded and deterministic: the same `(seed, attempt)`
//! probes the same pairs, so failing runs replay exactly.

use pns_order::radix::Shape;
use pns_order::snake::node_at_snake_pos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probe `probes` sampled adjacent snake pairs of the `k`-dimensional
/// subgraphs of `shape` (dimensions `0 … k-1`; every subgraph is an
/// equally likely target). Returns `true` when every probed pair is in
/// order — a sampled version of the full certificate, never a false
/// alarm.
///
/// Dimensions `0 … k-1` are the low radix digits, so subgraph `g`'s
/// nodes are exactly the ranks `g·N^k + local`.
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds `shape.r()`, or if `keys` is not one
/// key per node.
#[must_use]
pub fn sampled_subgraph_certificate<K: Ord>(
    shape: Shape,
    keys: &[K],
    k: usize,
    probes: u32,
    seed: u64,
) -> bool {
    assert!(k >= 1 && k <= shape.r(), "need 1 ≤ k ≤ r");
    assert_eq!(keys.len() as u64, shape.len(), "one key per node");
    let sub = shape.sub(k);
    let sub_len = sub.len();
    if sub_len < 2 {
        return true;
    }
    let groups = shape.len() / sub_len;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..probes {
        let g = rng.random_range(0..groups);
        let pos = rng.random_range(0..sub_len - 1);
        let base = g * sub_len;
        let a = base + node_at_snake_pos(sub, pos);
        let b = base + node_at_snake_pos(sub, pos + 1);
        if keys[a as usize] > keys[b as usize] {
            return false;
        }
    }
    true
}

/// The full `k`-dimensional certificate: every adjacent snake pair of
/// every subgraph over dimensions `0 … k-1`, exhaustively. Subgraph
/// `g`'s nodes are the ranks `g·N^k + local`, so no node is rebuilt
/// from digits. The fault executors check it, and `pns-simulator`'s
/// `subgraphs_snake_sorted` is this; with `k = shape.r()` it is global
/// snake-sortedness.
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds `shape.r()`, or if `keys` is not one
/// key per node.
#[must_use]
pub fn full_subgraph_certificate<K: Ord>(shape: Shape, keys: &[K], k: usize) -> bool {
    assert!(k >= 1 && k <= shape.r(), "need 1 ≤ k ≤ r");
    assert_eq!(keys.len() as u64, shape.len(), "one key per node");
    let sub = shape.sub(k);
    let sub_len = sub.len();
    let groups = shape.len() / sub_len;
    for g in 0..groups {
        let base = g * sub_len;
        let mut prev: Option<&K> = None;
        for pos in 0..sub_len {
            let key = &keys[(base + node_at_snake_pos(sub, pos)) as usize];
            if let Some(p) = prev {
                if p > key {
                    return false;
                }
            }
            prev = Some(key);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A configuration where every k-dim subgraph (low dims) is sorted
    /// in its own snake order.
    fn stagewise_sorted(shape: Shape, k: usize) -> Vec<u64> {
        let sub = shape.sub(k);
        let sub_len = sub.len();
        let mut keys = vec![0u64; shape.len() as usize];
        for g in 0..shape.len() / sub_len {
            for pos in 0..sub_len {
                let node = g * sub_len + node_at_snake_pos(sub, pos);
                keys[node as usize] = g * sub_len + pos;
            }
        }
        keys
    }

    #[test]
    fn full_certificate_accepts_stagewise_sorted_configurations() {
        for (n, r, k) in [(3usize, 3usize, 2usize), (3, 3, 3), (2, 4, 2), (4, 2, 2)] {
            let shape = Shape::new(n, r);
            let keys = stagewise_sorted(shape, k);
            assert!(
                full_subgraph_certificate(shape, &keys, k),
                "n={n} r={r} k={k}"
            );
        }
    }

    #[test]
    fn full_certificate_rejects_any_adjacent_inversion() {
        let shape = Shape::new(3, 2);
        let mut keys = stagewise_sorted(shape, 2);
        // Swap two adjacent snake positions.
        let a = node_at_snake_pos(shape, 3) as usize;
        let b = node_at_snake_pos(shape, 4) as usize;
        keys.swap(a, b);
        assert!(!full_subgraph_certificate(shape, &keys, 2));
    }

    #[test]
    fn sampled_certificate_never_false_alarms() {
        let shape = Shape::new(3, 3);
        let keys = stagewise_sorted(shape, 2);
        for seed in 0..32 {
            assert!(sampled_subgraph_certificate(shape, &keys, 2, 16, seed));
        }
    }

    #[test]
    fn sampled_certificate_catches_gross_corruption() {
        // Reverse a whole subgraph: about half its adjacent pairs
        // invert, so 64 probes miss with probability ~2^-40 per seed.
        let shape = Shape::new(3, 3);
        let mut keys = stagewise_sorted(shape, 2);
        keys[..9].reverse();
        let caught = (0..16u64)
            .filter(|&seed| !sampled_subgraph_certificate(shape, &keys, 2, 64, seed))
            .count();
        assert_eq!(caught, 16, "every seed should catch a reversed subgraph");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let shape = Shape::new(3, 3);
        let mut keys = stagewise_sorted(shape, 2);
        keys.swap(0, 4);
        for seed in 0..8 {
            let a = sampled_subgraph_certificate(shape, &keys, 2, 2, seed);
            let b = sampled_subgraph_certificate(shape, &keys, 2, 2, seed);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn full_dimensional_certificate_is_global_snake_order() {
        let shape = Shape::new(2, 3);
        // Globally snake-sorted configuration.
        let mut keys = vec![0u64; 8];
        for pos in 0..8u64 {
            keys[node_at_snake_pos(shape, pos) as usize] = pos;
        }
        assert!(full_subgraph_certificate(shape, &keys, 3));
        keys.swap(
            node_at_snake_pos(shape, 0) as usize,
            node_at_snake_pos(shape, 7) as usize,
        );
        assert!(!full_subgraph_certificate(shape, &keys, 3));
    }
}
