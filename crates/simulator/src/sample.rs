//! Randomized sample sort on product networks — the paper's closing
//! future-work item, prototyped.
//!
//! The conclusion notes that randomized algorithms (e.g. the CM-2 sample
//! sorts of Blelloch et al., the paper's \[5\]) beat Batcher-style
//! algorithms on hypercubic networks in practice, and asks whether they
//! generalize to product networks. This module implements the natural
//! generalization for the blocked regime (`b` keys per node):
//!
//! 1. **Local sort** — each node sorts its block (local work,
//!    `b·⌈log₂ b⌉` charged steps).
//! 2. **Splitter selection** — each node contributes `s` random samples;
//!    the samples are sorted with the *deterministic* multiway-merge
//!    algorithm (blocked, `s` per node) and the `P-1` splitters at block
//!    boundaries are broadcast (`r·diam(G)` steps).
//! 3. **Routing** — every key belongs to the bucket of one snake
//!    position; keys travel dimension by dimension along BFS paths in
//!    each factor copy. Charged per dimension as the pipelined
//!    store-and-forward bound `max_edge_load + max_path_len`, computed
//!    from the *actual* per-edge loads of the run.
//! 4. **Final local sort** of what arrived, then **rebalancing** along
//!    the snake path so every node holds exactly `b` keys again (charged
//!    as the maximum prefix imbalance that must cross any snake
//!    boundary).
//!
//! The result is exactly sorted; the outcome reports per-phase charges
//! and the observed load factor, so experiment E15 can compare against
//! the deterministic blocked algorithm as \[5\] did on the CM-2.

use crate::cost::CostModel;
use crate::machine::SortError;
use pns_graph::{bfs_distances, diameter, Graph};
use pns_order::radix::Shape;
use pns_order::snake::node_at_snake_pos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-phase charged costs of one sample sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSortOutcome {
    /// Local sorting (initial + final), charged `load·⌈log₂ load⌉`.
    pub local_steps: u64,
    /// Splitter selection: deterministic sort of the samples plus the
    /// broadcast.
    pub splitter_steps: u64,
    /// Dimension-by-dimension key routing (pipelined bound from actual
    /// edge loads).
    pub route_steps: u64,
    /// Rebalancing along the snake path.
    pub rebalance_steps: u64,
    /// Largest number of keys any node held after routing.
    pub max_load: usize,
}

impl SampleSortOutcome {
    /// Total charged steps.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.local_steps + self.splitter_steps + self.route_steps + self.rebalance_steps
    }
}

fn log2_ceil(x: usize) -> u64 {
    if x <= 1 {
        0
    } else {
        u64::from(usize::BITS - (x - 1).leading_zeros())
    }
}

/// Randomized sample sort of `b·N^r` keys on the product of `factor`.
/// `oversample` is the number of samples per node (higher = better
/// balance); `cost` supplies the deterministic `S2`/`R` constants used to
/// price the splitter sort.
///
/// Returns the fully sorted keys and the per-phase charges.
///
/// # Panics
///
/// Panics if `keys.len() != b·N^r`, `b == 0`, or `oversample == 0` or
/// `oversample > b`. [`try_sample_sort`] reports the same conditions as
/// typed errors instead.
pub fn sample_sort<K: Ord + Clone>(
    factor: &Graph,
    r: usize,
    b: usize,
    keys: Vec<K>,
    oversample: usize,
    seed: u64,
    cost: &CostModel,
) -> (Vec<K>, SampleSortOutcome) {
    try_sample_sort(factor, r, b, keys, oversample, seed, cost).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`sample_sort`], but malformed parameters come back as typed
/// errors instead of panics.
///
/// # Errors
///
/// [`SortError::ZeroBlockSize`] if `b == 0`,
/// [`SortError::BadOversample`] unless `1 ≤ oversample ≤ b`,
/// [`SortError::WrongBlockedKeyCount`] if `keys.len() != b·N^r`. No key
/// is moved on any error.
pub fn try_sample_sort<K: Ord + Clone>(
    factor: &Graph,
    r: usize,
    b: usize,
    keys: Vec<K>,
    oversample: usize,
    seed: u64,
    cost: &CostModel,
) -> Result<(Vec<K>, SampleSortOutcome), SortError> {
    let shape = Shape::new(factor.n(), r);
    let p = shape.len() as usize;
    if b == 0 {
        return Err(SortError::ZeroBlockSize);
    }
    if oversample == 0 || oversample > b {
        return Err(SortError::BadOversample {
            oversample,
            block: b,
        });
    }
    if keys.len() != p * b {
        return Err(SortError::WrongBlockedKeyCount {
            expected: p * b,
            got: keys.len(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // Phase 1: deal blocks and sort locally.
    let mut blocks: Vec<Vec<K>> = keys.chunks(b).map(<[K]>::to_vec).collect();
    for blk in &mut blocks {
        blk.sort_unstable();
    }
    let mut outcome = SampleSortOutcome {
        local_steps: b as u64 * log2_ceil(b),
        splitter_steps: 0,
        route_steps: 0,
        rebalance_steps: 0,
        max_load: 0,
    };

    // Phase 2: sample and select splitters.
    let mut samples: Vec<K> = Vec::with_capacity(p * oversample);
    for blk in &blocks {
        for _ in 0..oversample {
            samples.push(blk[rng.random_range(0..b)].clone());
        }
    }
    samples.sort_unstable();
    // Splitters at the p-1 interior block boundaries of the sample set.
    let splitters: Vec<K> = (1..p)
        .map(|i| samples[i * oversample - 1].clone())
        .collect();
    // Charge: deterministic blocked sort of `oversample` keys/node plus a
    // broadcast of the splitters.
    outcome.splitter_steps =
        oversample as u64 * cost.predicted_sort_steps(r) + r as u64 * u64::from(diameter(factor));

    // Phase 3: route every key to its bucket node, dimension by dimension.
    // Bucket of a key = the snake position whose splitter interval holds
    // it (upper_bound over splitters).
    let bucket_of = |k: &K| -> u64 {
        let pos = splitters.partition_point(|s| s <= k);
        node_at_snake_pos(shape, pos as u64)
    };
    // In-flight items: (current node, destination node, key).
    let mut in_flight: Vec<(u64, u64, K)> = Vec::new();
    for (v, blk) in blocks.iter_mut().enumerate() {
        for k in blk.drain(..) {
            let dst = bucket_of(&k);
            in_flight.push((v as u64, dst, k));
        }
    }
    // All-pairs factor distances for path accounting.
    let fdist: Vec<Vec<u32>> = (0..factor.n() as u32)
        .map(|v| bfs_distances(factor, v))
        .collect();
    // Per-directed-factor-edge loads, per copy — we only need the max,
    // so aggregate by (copy base, edge). One map serves every dimension
    // (cleared between passes) so the routing loop does not reallocate.
    let mut edge_loads: std::collections::HashMap<(u64, u32, u32), u64> =
        std::collections::HashMap::new();
    for dim in 0..r {
        edge_loads.clear();
        let mut max_path = 0u32;
        for (at, dst, _) in &mut in_flight {
            let from = shape.digit(*at, dim) as u32;
            let to = shape.digit(*dst, dim) as u32;
            if from == to {
                continue;
            }
            let copy = shape.with_digit(*at, dim, 0);
            // Unreachable for the connected factors the machine
            // constructors validate; a missing path skips only this
            // key's cost accounting (delivery below routes by `dst`,
            // so the output stays correct) instead of panicking.
            if let Some(path) = pns_graph::shortest_path(factor, from, to) {
                max_path = max_path.max(fdist[from as usize][to as usize]);
                for w in path.windows(2) {
                    *edge_loads.entry((copy, w[0], w[1])).or_insert(0) += 1;
                }
            }
            *at = shape.with_digit(*at, dim, to as usize);
        }
        let max_edge = edge_loads.values().copied().max().unwrap_or(0);
        // Pipelined store-and-forward: all keys of this pass arrive within
        // max_edge_load + max_path_len rounds.
        outcome.route_steps += max_edge + u64::from(max_path);
    }
    // Deliver.
    let mut received: Vec<Vec<K>> = vec![Vec::new(); p];
    for (at, dst, k) in in_flight {
        debug_assert_eq!(at, dst);
        received[dst as usize].push(k);
    }
    outcome.max_load = received.iter().map(Vec::len).max().unwrap_or(0);

    // Phase 4: final local sorts.
    for blk in &mut received {
        blk.sort_unstable();
    }
    outcome.local_steps += outcome.max_load as u64 * log2_ceil(outcome.max_load.max(1));

    // Phase 5: rebalance along the snake path so each node holds exactly
    // b keys. The charge is the largest cumulative imbalance that must
    // cross a snake boundary (pipelined shift).
    let mut out: Vec<K> = Vec::with_capacity(p * b);
    let mut max_carry: i64 = 0;
    let mut carry: i64 = 0;
    for pos in 0..p as u64 {
        let node = node_at_snake_pos(shape, pos) as usize;
        carry += received[node].len() as i64 - b as i64;
        max_carry = max_carry.max(carry.abs());
        out.append(&mut received[node]);
    }
    outcome.rebalance_steps = max_carry as u64;
    // The concatenation in snake order is already globally sorted because
    // buckets are snake-position intervals.
    debug_assert!(out.windows(2).all(|w| w[0] <= w[1]));
    Ok((out, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pns_graph::factories;

    fn run(n: usize, r: usize, b: usize, s: usize, seed: u64) -> SampleSortOutcome {
        let factor = factories::path(n);
        let p = (n as u64).pow(r as u32) as usize;
        let mut state = seed | 1;
        let keys: Vec<u64> = (0..p * b)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 30
            })
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        let (sorted, outcome) =
            sample_sort(&factor, r, b, keys, s, seed, &CostModel::paper_grid(n));
        assert_eq!(sorted, expect, "n={n} r={r} b={b} s={s}");
        outcome
    }

    #[test]
    fn sorts_various_configurations() {
        for (n, r, b, s) in [
            (4usize, 2usize, 4usize, 2usize),
            (4, 2, 16, 4),
            (3, 3, 8, 4),
            (8, 2, 32, 8),
        ] {
            let out = run(n, r, b, s, 42);
            assert!(out.total() > 0);
            assert!(out.max_load >= b, "bucket loads can't all be below average");
        }
    }

    #[test]
    fn sorts_with_heavy_duplicates() {
        let factor = factories::path(4);
        let keys: Vec<u8> = (0..64).map(|i| (i % 3) as u8).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        let (sorted, _) = sample_sort(&factor, 2, 4, keys, 2, 7, &CostModel::paper_grid(4));
        assert_eq!(sorted, expect);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run(4, 2, 8, 4, 123);
        let b = run(4, 2, 8, 4, 123);
        assert_eq!(a, b);
    }

    #[test]
    fn oversampling_improves_balance() {
        // More samples per node → splitters closer to true quantiles →
        // smaller max load (statistically; fixed seeds keep this stable).
        let light = run(4, 2, 64, 1, 9);
        let heavy = run(4, 2, 64, 16, 9);
        assert!(
            heavy.max_load <= light.max_load,
            "s=16 load {} vs s=1 load {}",
            heavy.max_load,
            light.max_load
        );
    }

    #[test]
    fn works_on_cycle_and_tree_factors() {
        for factor in [factories::cycle(5), factories::complete_binary_tree(3)] {
            let p = factor.n() * factor.n();
            let keys: Vec<u32> = (0..p as u32 * 8).rev().collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            let (sorted, _) = sample_sort(
                &factor,
                2,
                8,
                keys,
                4,
                11,
                &CostModel::paper_universal(factor.n()),
            );
            assert_eq!(sorted, expect, "{factor:?}");
        }
    }

    #[test]
    fn try_sample_sort_reports_typed_errors() {
        let factor = factories::path(3);
        let cost = CostModel::paper_grid(3);
        assert_eq!(
            try_sample_sort::<u8>(&factor, 2, 0, vec![], 1, 1, &cost).unwrap_err(),
            SortError::ZeroBlockSize
        );
        assert_eq!(
            try_sample_sort(&factor, 2, 4, vec![0u8; 36], 9, 1, &cost).unwrap_err(),
            SortError::BadOversample {
                oversample: 9,
                block: 4
            }
        );
        assert_eq!(
            try_sample_sort(&factor, 2, 4, vec![0u8; 35], 2, 1, &cost).unwrap_err(),
            SortError::WrongBlockedKeyCount {
                expected: 36,
                got: 35
            }
        );
    }

    #[test]
    #[should_panic(expected = "1 ≤ oversample ≤ b")]
    fn rejects_bad_oversample() {
        let factor = factories::path(3);
        let _ = sample_sort(
            &factor,
            2,
            4,
            vec![0u8; 36],
            9,
            1,
            &CostModel::paper_grid(3),
        );
    }
}
