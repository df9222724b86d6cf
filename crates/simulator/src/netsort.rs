//! The network-mapped sorting algorithm (Section 4 of the paper).
//!
//! One key per node; "sorted" = nondecreasing in snake order. The sort of
//! `N^r` keys proceeds exactly as Section 3.3, with every operation
//! realized as parallel rounds over subgraphs:
//!
//! * Stage 2 sorts every `PG_2` subgraph over dimensions `{1, 2}` (all in
//!   one parallel round).
//! * Stage `k` (for `k = 3 … r`) runs the multiway merge over dimensions
//!   `{1, …, k}`; the `N^{r-k}` instances over the remaining dimensions
//!   are implicitly parallel — the same rounds cover all of them.
//!
//! Within a merge over dimensions `d_1 … d_k`:
//!
//! * **Step 1** is free: the input subsequences `B_{u,v}` are already
//!   where snake order put them (`[u,v]PG^{k,1}` subgraphs).
//! * **Step 2** recurses on dimensions `d_2 … d_k` (the recursion's
//!   parallelism over `d_1` is again implicit); the base case `k = 2`
//!   sorts `PG_2` subgraphs over `(d_1, d_2)` ascending.
//! * **Step 3** is free: reintroducing dimension-`d_1` edges re-reads the
//!   data in snake order.
//! * **Step 4** sorts the `PG_2` subgraphs over `(d_1, d_2)` in
//!   directions alternating with the Hamming-weight parity of their group
//!   labels (digits at `d_3 … d_k` only), runs two odd-even transposition
//!   rounds between group-sequence-consecutive subgraphs (node pairs
//!   along the one differing dimension), and sorts again.

use crate::engine::{Engine, Pg2Instance};
use crate::enumerate::{base_nodes, digit_weight, pg2_offsets};
use pns_core::Counters;
use pns_order::group::{group_sequence, group_steps, Parity};
use pns_order::radix::Shape;
use pns_order::snake::node_at_snake_pos;
use pns_order::Direction;

/// Measured outcome of a network sort (or merge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSortOutcome {
    /// Unit counters (same semantics as the sequence-level algorithm):
    /// `s2_units` parallel sort rounds, `route_units` transposition rounds.
    pub counters: Counters,
    /// Total steps taken (sort + transposition).
    pub steps: u64,
    /// Steps spent in `PG_2` sort rounds.
    pub sort_steps: u64,
    /// Steps spent in odd-even transposition rounds.
    pub oet_steps: u64,
}

/// Sort the network's keys in snake order. `keys[v]` is the key held by
/// node `v` (by rank); on return the keys are sorted in snake order.
///
/// # Panics
///
/// Panics if `keys.len() != N^r` or `r < 2`.
pub fn network_sort<K, E>(shape: Shape, keys: &mut [K], engine: &mut E) -> NetSortOutcome
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
    }
    out
}

/// Stage `k = dims.len()` of [`network_sort`]. Stage 2 sorts every `PG_2`
/// subgraph over `dims`, ascending; stages `3 … r` merge over `dims`.
pub(crate) fn network_stage<K, E>(
    shape: Shape,
    keys: &mut [K],
    engine: &mut E,
    dims: &[usize],
    out: &mut NetSortOutcome,
) where
    K: Ord + Clone,
    E: Engine<K>,
{
    if dims.len() == 2 {
        sort_round(shape, keys, engine, dims[0], dims[1], None, out);
    } else {
        network_merge(shape, keys, engine, dims, out);
    }
}

/// The network multiway merge over `dims` (all parallel instances over the
/// complement dimensions at once).
///
/// Precondition: for every assignment of the non-`dims` digits and every
/// `u`, the subgraph over `dims[..k-1]` with `digit(dims[k-1]) = u` holds
/// keys sorted in its forward snake order. [`network_sort`] establishes
/// this stage by stage; call this directly only if you maintain it.
pub fn network_merge<K, E>(
    shape: Shape,
    keys: &mut [K],
    engine: &mut E,
    dims: &[usize],
    out: &mut NetSortOutcome,
) where
    K: Ord + Clone,
    E: Engine<K>,
{
    debug_assert!(dims.len() >= 2);
    out.counters.merges += 1;
    if dims.len() == 2 {
        // Base case: one parallel round of ascending PG_2 sorts.
        sort_round(shape, keys, engine, dims[0], dims[1], None, out);
        return;
    }

    // Step 2: recursive merge on dims[1..]; Steps 1 and 3 are free.
    network_merge(shape, keys, engine, &dims[1..], out);

    // Step 4: clean the dirty window.
    let gdims = &dims[2..];
    sort_round(shape, keys, engine, dims[0], dims[1], Some(gdims), out);
    oet_round(shape, keys, engine, gdims, 0, out);
    oet_round(shape, keys, engine, gdims, 1, out);
    sort_round(shape, keys, engine, dims[0], dims[1], Some(gdims), out);
}

/// One parallel round of `PG_2` sorts over `(dim_a, dim_b)`, covering all
/// assignments of the other digits. With `parity_dims = None` every
/// subgraph sorts ascending; otherwise the direction alternates with the
/// Hamming-weight parity of the digits at `parity_dims` (the group label).
fn sort_round<K, E>(
    shape: Shape,
    keys: &mut [K],
    engine: &mut E,
    dim_a: usize,
    dim_b: usize,
    parity_dims: Option<&[usize]>,
    out: &mut NetSortOutcome,
) where
    K: Ord + Clone,
    E: Engine<K>,
{
    let offsets = pg2_offsets(shape, dim_a, dim_b);
    let bases = base_nodes(shape, &[dim_a, dim_b]);
    let subgraphs: Vec<Pg2Instance> = bases
        .iter()
        .map(|&base| {
            let dir = match parity_dims {
                None => Direction::Ascending,
                Some(ds) => Direction::for_parity(Parity::of(digit_weight(shape, base, ds))),
            };
            Pg2Instance {
                nodes: offsets.iter().map(|&o| base + o).collect(),
                dir,
            }
        })
        .collect();
    let steps = engine.sort_round(keys, &subgraphs);
    out.counters.s2_units += 1;
    out.counters.base_sorts += subgraphs.len() as u64;
    out.sort_steps += steps;
    out.steps += steps;
}

/// One odd-even transposition round between group-sequence-consecutive
/// `PG_2` subgraphs: for every transition `z → z+1` with `z ≡ parity`,
/// every node of subgraph `z` compares with the node of subgraph `z+1`
/// that matches it in all other digits (they differ only at the one group
/// dimension that changes, by one), keeping the minimum on the `z` side.
fn oet_round<K, E>(
    shape: Shape,
    keys: &mut [K],
    engine: &mut E,
    gdims: &[usize],
    parity: usize,
    out: &mut NetSortOutcome,
) where
    K: Ord + Clone,
    E: Engine<K>,
{
    let n = shape.n();
    let bases = base_nodes(shape, gdims);
    let seq = group_sequence(n, gdims.len());
    let transitions = group_steps(n, gdims.len());
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    for (z, st) in transitions.iter().enumerate() {
        if z % 2 != parity {
            continue;
        }
        let label = &seq[z].0;
        for &base in &bases {
            let mut a = base;
            for (i, &d) in gdims.iter().enumerate() {
                a = shape.with_digit(a, d, label[i]);
            }
            let b = shape.with_digit(a, gdims[st.dim], st.to);
            pairs.push((a, b));
        }
    }
    // The synchronous round happens even if this parity class is empty
    // (e.g. N = 2 with a single transition): Lemma 3 charges both rounds,
    // and the engines price an empty round like any other.
    let steps = engine.oet_round(keys, &pairs);
    out.counters.route_units += 1;
    out.counters.compare_exchanges += pairs.len() as u64;
    out.oet_steps += steps;
    out.steps += steps;
}

/// `true` iff `keys` (indexed by node rank) are nondecreasing in snake
/// order.
#[must_use]
pub fn is_snake_sorted<K: Ord>(shape: Shape, keys: &[K]) -> bool {
    let mut prev: Option<&K> = None;
    for pos in 0..shape.len() {
        let k = &keys[node_at_snake_pos(shape, pos) as usize];
        if let Some(p) = prev {
            if p > k {
                return false;
            }
        }
        prev = Some(k);
    }
    true
}

/// Read the keys out in snake order (the sorted sequence).
#[must_use]
pub fn read_snake_order<K: Clone>(shape: Shape, keys: &[K]) -> Vec<K> {
    (0..shape.len())
        .map(|pos| keys[node_at_snake_pos(shape, pos) as usize].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::engine::ChargedEngine;
    use pns_core::sort::{predicted_route_units, predicted_s2_units};

    fn charged_sort(n: usize, r: usize, keys: &mut [u64]) -> NetSortOutcome {
        let shape = Shape::new(n, r);
        let mut engine = ChargedEngine::new(CostModel::custom("unit", 1, 1));
        network_sort(shape, keys, &mut engine)
    }

    #[test]
    fn sorts_reversed_keys_on_various_shapes() {
        for (n, r) in [
            (2usize, 2usize),
            (2, 4),
            (2, 6),
            (3, 3),
            (3, 4),
            (4, 3),
            (5, 2),
        ] {
            let shape = Shape::new(n, r);
            let len = shape.len() as usize;
            let mut keys: Vec<u64> = (0..len as u64).rev().collect();
            let _ = charged_sort(n, r, &mut keys);
            assert!(is_snake_sorted(shape, &keys), "n={n} r={r}");
            let seq = read_snake_order(shape, &keys);
            assert_eq!(seq, (0..len as u64).collect::<Vec<_>>(), "n={n} r={r}");
        }
    }

    #[test]
    fn theorem1_unit_counts_on_the_network() {
        for (n, r) in [(2usize, 3usize), (2, 5), (3, 3), (3, 4), (4, 3)] {
            let shape = Shape::new(n, r);
            let mut keys: Vec<u64> = (0..shape.len())
                .map(|x| x.wrapping_mul(0x9E37_79B9) % 97)
                .collect();
            let out = charged_sort(n, r, &mut keys);
            assert!(is_snake_sorted(shape, &keys));
            assert_eq!(out.counters.s2_units, predicted_s2_units(r), "n={n} r={r}");
            assert_eq!(
                out.counters.route_units,
                predicted_route_units(r),
                "n={n} r={r}"
            );
        }
    }

    #[test]
    fn charged_steps_match_cost_model_prediction() {
        for (n, r) in [(3usize, 3usize), (4, 3), (2, 5)] {
            let shape = Shape::new(n, r);
            let model = CostModel::paper_grid(n);
            let mut engine = ChargedEngine::new(model.clone());
            let mut keys: Vec<u64> = (0..shape.len()).rev().collect();
            let out = network_sort(shape, &mut keys, &mut engine);
            assert_eq!(out.steps, model.predicted_sort_steps(r), "n={n} r={r}");
        }
    }

    #[test]
    fn network_and_sequence_algorithms_agree() {
        // The network result read in snake order must equal the
        // sequence-level algorithm's output (both equal std sort).
        let (n, r) = (3usize, 3usize);
        let shape = Shape::new(n, r);
        let keys0: Vec<u64> = (0..27u64).map(|x| (x * 11) % 13).collect();
        let mut net = keys0.clone();
        let _ = charged_sort(n, r, &mut net);
        let (seq, _) = pns_core::multiway_merge_sort(&keys0, n, &pns_core::StdBaseSorter);
        assert_eq!(read_snake_order(shape, &net), seq);
    }

    #[test]
    fn merge_alone_satisfies_lemma3_counts() {
        // Prepare the merge precondition by sorting each dim-3 subgraph's
        // keys (over dims 0..2) in its own snake order, then merge.
        let (n, r) = (3usize, 3usize);
        let shape = Shape::new(n, r);
        let mut keys: Vec<u64> = (0..27u64).map(|x| (x * 7) % 19).collect();
        let mut engine = ChargedEngine::new(CostModel::custom("unit", 1, 1));
        let mut out = NetSortOutcome::default();
        // Establish: each [u]PG^3_2 snake-sorted (that's one stage-2 sort
        // round plus one 2-dim merge round in the full algorithm; here we
        // cheat and sort directly — allowed for charged engines).
        sort_round(shape, &mut keys, &mut engine, 0, 1, None, &mut out);
        network_merge(shape, &mut keys, &mut engine, &[0, 1], &mut out);
        let before = out.counters;
        network_merge(shape, &mut keys, &mut engine, &[0, 1, 2], &mut out);
        assert!(is_snake_sorted(shape, &keys));
        let merge_units = out.counters.s2_units - before.s2_units;
        let merge_routes = out.counters.route_units - before.route_units;
        assert_eq!(merge_units, 3, "Lemma 3: 2(k-2)+1 for k=3");
        assert_eq!(merge_routes, 2, "Lemma 3: 2(k-2) for k=3");
    }

    #[test]
    fn zero_one_network_merge_exhaustive_small() {
        // Zero-one exhaustiveness at the network level for N=2, r=3:
        // all 2^8 key assignments (the sort is oblivious under the charged
        // engine with a comparison sort, so this is a full proof for this
        // shape).
        let shape = Shape::new(2, 3);
        for mask in 0u32..256 {
            let mut keys: Vec<u64> = (0..8).map(|i| u64::from((mask >> i) & 1)).collect();
            let _ = charged_sort(2, 3, &mut keys);
            assert!(is_snake_sorted(shape, &keys), "mask={mask}");
            let zeros = (8 - mask.count_ones()) as usize;
            let seq = read_snake_order(shape, &keys);
            assert!(seq[..zeros].iter().all(|&k| k == 0), "mask={mask}");
            assert!(seq[zeros..].iter().all(|&k| k == 1), "mask={mask}");
        }
    }

    #[test]
    fn all_equal_keys_are_a_fixed_point() {
        let shape = Shape::new(3, 3);
        let mut keys = vec![42u64; 27];
        let _ = charged_sort(3, 3, &mut keys);
        assert!(keys.iter().all(|&k| k == 42));
        assert!(is_snake_sorted(shape, &keys));
    }
}
