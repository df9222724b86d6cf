//! Sorting more keys than nodes: blocks and merge-split.
//!
//! The paper assumes one key per processor. The standard extension when
//! `M > N^r` (and the regime where, as the paper notes of Columnsort-like
//! algorithms, "the number of keys is large compared with the number of
//! processors") gives every node a sorted *block* of `b = M / N^r` keys
//! and applies the replacement principle: every compare-exchange becomes
//! a **merge-split** (the lower node keeps the smaller half of the union)
//! and every `PG_2` sort becomes a full sort of the subgraph's `b·N²`
//! keys redistributed block-wise along snake order. Because the
//! underlying algorithm is an oblivious composition of sorts and
//! comparators, the blocked version inherits its correctness.
//!
//! Charged cost: a step that moves one key now moves a block, so every
//! key-level step is charged `b` block steps (`BlockEngine` scales the
//! [`CostModel`] accordingly). Theorem 1 becomes
//! `S_r = b·((r-1)² S2 + (r-1)(r-2) R)`.

use crate::cost::CostModel;
use crate::engine::{Engine, Pg2Instance};
use crate::netsort::{network_sort, NetSortOutcome};
use pns_order::radix::Shape;
use pns_order::snake::node_at_snake_pos;
use pns_order::Direction;
use std::cmp::Ordering;

/// A node's block: internally always sorted ascending.
///
/// The `Ord` implementation is lexicographic and purely representational
/// (the [`Engine`] trait requires it); the block engine never compares
/// whole blocks — it merges and splits them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedBlock<K>(Vec<K>);

impl<K: Ord> SortedBlock<K> {
    /// Wrap keys (sorting them).
    #[must_use]
    pub fn new(mut keys: Vec<K>) -> Self {
        keys.sort_unstable();
        SortedBlock(keys)
    }

    /// The keys, ascending.
    #[must_use]
    pub fn keys(&self) -> &[K] {
        &self.0
    }

    /// Consume into the sorted key vector.
    #[must_use]
    pub fn into_keys(self) -> Vec<K> {
        self.0
    }

    /// Block size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff the block is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<K: Ord> PartialOrd for SortedBlock<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for SortedBlock<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// Charged engine over blocks: merge-split comparators, flatten-sort
/// subgraph rounds, costs scaled by the block size.
#[derive(Debug, Clone)]
pub struct BlockEngine {
    cost: CostModel,
    block: usize,
}

impl BlockEngine {
    /// A block engine charging `block × cost` per round.
    #[must_use]
    pub fn new(cost: CostModel, block: usize) -> Self {
        assert!(block >= 1, "block size must be positive");
        BlockEngine { cost, block }
    }
}

impl<K: Ord + Clone> Engine<SortedBlock<K>> for BlockEngine {
    fn sort_round(&mut self, keys: &mut [SortedBlock<K>], subgraphs: &[Pg2Instance]) -> u64 {
        for sg in subgraphs {
            // Flatten, sort, redistribute block-wise along snake order.
            let mut all: Vec<K> = sg
                .nodes
                .iter()
                .flat_map(|&v| keys[v as usize].0.iter().cloned())
                .collect();
            all.sort_unstable();
            let b = self.block;
            for (pos, &v) in sg.nodes.iter().enumerate() {
                let chunk = match sg.dir {
                    Direction::Ascending => pos,
                    Direction::Descending => sg.nodes.len() - 1 - pos,
                };
                keys[v as usize].0.clear();
                keys[v as usize]
                    .0
                    .extend_from_slice(&all[chunk * b..(chunk + 1) * b]);
            }
        }
        self.cost.s2_steps * self.block as u64
    }

    fn oet_round(&mut self, keys: &mut [SortedBlock<K>], pairs: &[(u64, u64)]) -> u64 {
        for &(a, b) in pairs {
            let (a, b) = (a as usize, b as usize);
            merge_split(keys, a, b);
        }
        self.cost.route_steps * self.block as u64
    }
}

/// Merge two blocks; the node at `lo` keeps the smaller half.
fn merge_split<K: Ord + Clone>(keys: &mut [SortedBlock<K>], lo: usize, hi: usize) {
    let b = keys[lo].0.len();
    debug_assert_eq!(b, keys[hi].0.len(), "blocks must have equal size");
    // Fast path: already in order.
    if keys[lo]
        .0
        .last()
        .zip(keys[hi].0.first())
        .is_some_and(|(l, h)| l <= h)
    {
        return;
    }
    let mut merged: Vec<K> = Vec::with_capacity(2 * b);
    {
        let (x, y) = (&keys[lo].0, &keys[hi].0);
        let (mut i, mut j) = (0, 0);
        while i < x.len() && j < y.len() {
            if x[i] <= y[j] {
                merged.push(x[i].clone());
                i += 1;
            } else {
                merged.push(y[j].clone());
                j += 1;
            }
        }
        merged.extend_from_slice(&x[i..]);
        merged.extend_from_slice(&y[j..]);
    }
    keys[hi].0.clear();
    keys[hi].0.extend_from_slice(&merged[b..]);
    merged.truncate(b);
    keys[lo].0 = merged;
}

/// Sort `keys` (`block · N^r` of them) on the product network with
/// `block` keys per node. Returns the fully sorted keys and the charged
/// outcome (unit counters are the key-level Theorem 1 counts; steps are
/// scaled by the block size).
///
/// ```
/// use pns_order::radix::Shape;
/// use pns_simulator::{block::block_sort, CostModel};
///
/// // 4 keys per node on a 3×3 grid: 36 keys.
/// let shape = Shape::new(3, 2);
/// let keys: Vec<u32> = (0..36).rev().collect();
/// let (sorted, outcome) = block_sort(shape, 4, keys, CostModel::paper_grid(3));
/// assert_eq!(sorted, (0..36).collect::<Vec<u32>>());
/// assert_eq!(outcome.counters.s2_units, 1); // (r-1)² for r = 2
/// ```
///
/// # Panics
///
/// Panics if `keys.len()` is not `block · N^r` or `r < 2`.
pub fn block_sort<K: Ord + Clone>(
    shape: Shape,
    block: usize,
    keys: Vec<K>,
    cost: CostModel,
) -> (Vec<K>, NetSortOutcome) {
    assert!(block >= 1, "block size must be positive");
    assert_eq!(
        keys.len() as u64,
        shape.len() * block as u64,
        "need block × N^r keys"
    );
    // Deal keys into per-node blocks (initial placement is arbitrary;
    // blocks sort themselves locally on construction).
    let mut blocks: Vec<SortedBlock<K>> = keys
        .chunks(block)
        .map(|c| SortedBlock::new(c.to_vec()))
        .collect();
    let mut engine = BlockEngine::new(cost, block);
    let outcome = network_sort(shape, &mut blocks, &mut engine);

    // Read out: blocks in snake order, each ascending.
    let mut out = Vec::with_capacity(keys_len(&blocks));
    for pos in 0..shape.len() {
        let node = node_at_snake_pos(shape, pos) as usize;
        out.extend(blocks[node].0.iter().cloned());
    }
    (out, outcome)
}

fn keys_len<K: Ord>(blocks: &[SortedBlock<K>]) -> usize {
    blocks.iter().map(SortedBlock::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pns_core::sort::{predicted_route_units, predicted_s2_units};

    fn check(n: usize, r: usize, block: usize, seed: u64) {
        let shape = Shape::new(n, r);
        let len = shape.len() as usize * block;
        let mut state = seed | 1;
        let keys: Vec<u64> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 30) % 1000
            })
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        let (sorted, outcome) = block_sort(shape, block, keys, CostModel::custom("unit", 1, 1));
        assert_eq!(sorted, expect, "n={n} r={r} block={block}");
        // Key-level unit counts are unchanged; steps scale by the block.
        assert_eq!(outcome.counters.s2_units, predicted_s2_units(r));
        assert_eq!(outcome.counters.route_units, predicted_route_units(r));
        assert_eq!(
            outcome.steps,
            (predicted_s2_units(r) + predicted_route_units(r)) * block as u64
        );
    }

    #[test]
    fn block_size_one_degenerates_to_key_sort() {
        check(3, 3, 1, 5);
    }

    #[test]
    fn sorts_with_various_block_sizes() {
        check(2, 3, 2, 7);
        check(2, 4, 4, 8);
        check(3, 3, 3, 9);
        check(3, 2, 8, 10);
        check(4, 3, 2, 11);
    }

    #[test]
    fn merge_split_keeps_halves() {
        let mut blocks = vec![
            SortedBlock::new(vec![5u32, 1, 9]),
            SortedBlock::new(vec![2u32, 8, 0]),
        ];
        merge_split(&mut blocks, 0, 1);
        assert_eq!(blocks[0].keys(), &[0, 1, 2]);
        assert_eq!(blocks[1].keys(), &[5, 8, 9]);
    }

    #[test]
    fn merge_split_noop_when_in_order() {
        let mut blocks = vec![
            SortedBlock::new(vec![1u32, 2]),
            SortedBlock::new(vec![3u32, 4]),
        ];
        merge_split(&mut blocks, 0, 1);
        assert_eq!(blocks[0].keys(), &[1, 2]);
        assert_eq!(blocks[1].keys(), &[3, 4]);
    }

    #[test]
    fn duplicates_survive_blocking() {
        let shape = Shape::new(2, 3);
        let keys = vec![3u8; 32];
        let (sorted, _) = block_sort(shape, 4, keys.clone(), CostModel::paper_hypercube());
        assert_eq!(sorted, keys);
    }

    #[test]
    fn zero_one_blocked_small_exhaustive() {
        // All 0/1 inputs for 2 keys per node on the 2-cube (2^8 inputs).
        let shape = Shape::new(2, 2);
        for mask in 0u32..256 {
            let keys: Vec<u8> = (0..8).map(|i| ((mask >> i) & 1) as u8).collect();
            let zeros = keys.iter().filter(|&&k| k == 0).count();
            let (sorted, _) = block_sort(shape, 2, keys, CostModel::custom("unit", 1, 1));
            assert!(sorted[..zeros].iter().all(|&k| k == 0), "mask={mask:#x}");
            assert!(sorted[zeros..].iter().all(|&k| k == 1), "mask={mask:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "block × N^r keys")]
    fn rejects_wrong_key_count() {
        let shape = Shape::new(2, 2);
        let _ = block_sort(shape, 2, vec![1u8; 7], CostModel::custom("u", 1, 1));
    }
}
