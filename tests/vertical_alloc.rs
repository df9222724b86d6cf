//! Allocation accounting for the vertical tier: after one warm-up run,
//! both vertical executors — the bit-sliced 0/1 path
//! (`run_vertical_bits`, which keeps no state) and the full-key column
//! path (`run_vertical_batch` with a warm `VerticalPool`, in one block
//! or several) — must perform **zero** heap allocations per call, the
//! same contract `kernel_alloc.rs` pins for the kernel tier. The cold
//! column run sizes each block's columns once: at most one allocation
//! per block, plus [`COLD_EXTRA`].
//!
//! The proof is the counting `#[global_allocator]` that `pns-bench`
//! installs too ([`pns_bench::counting_alloc`]). It counts per thread,
//! so every machine here is built with `.serial()`: every executor call
//! then runs on the test thread, the test thread's count is exactly
//! theirs, and an allocation on another thread (the test harness's own,
//! say) cannot enter it.

use pns_bench::counting_alloc::{allocations, probe_miss, CountingAlloc};
use product_sort::graph::factories;
use product_sort::sim::{
    compile, pack_zero_one_masks, unpack_zero_one_lane, BspMachine, Hypercube2Sorter, ShearSorter,
    VerticalPool, WORD_LANES,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations a cold column run may make beside one per block: the
/// pool's slot vector (a serial machine builds no fan-out work list).
const COLD_EXTRA: u64 = 1;

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        })
        .collect()
}

#[test]
fn warm_vertical_runs_do_not_allocate() {
    // A zero delta proves something only if the counter counts.
    assert_eq!(probe_miss(), None);
    // Two shapes with different round mixes: the 3-ary 3-cube (pure
    // grid routing) and a star factor square (relays, whose route
    // rounds lower to paired compare-exchanges).
    let cases = [(factories::path(3), 3usize), (factories::star(4), 2usize)];
    for (factor, r) in cases {
        let program = compile(&factor, r, &ShearSorter);
        let bsp = BspMachine::new(&factor, r).serial();
        let vertical = bsp
            .lower_vertical(&program)
            .expect("compiled programs validate");
        let len = vertical.shape().len();

        // --- Bit-sliced 0/1 path: one word per node, 64 lanes. ---
        let masks: Vec<u64> = (0..WORD_LANES as u64)
            .map(|l| l.wrapping_mul(0x9E37_79B9))
            .collect();
        let nodes = (len as usize).min(64);
        let mut lane_masks = masks.clone();
        for m in &mut lane_masks {
            *m &= (1u64 << nodes) - 1;
        }
        // The packing helpers need node ranks to fit a u64; both test
        // shapes satisfy that (27 and 16 nodes).
        assert!(len <= 64, "fixture fits the mask-packing helpers");
        let input_words = pack_zero_one_masks(&lane_masks, len as usize);
        let mut words = input_words.clone();

        // Warm-up.
        bsp.run_vertical_bits(&mut words, &vertical);
        let bits_reference = words.clone();

        let before = allocations();
        for _ in 0..32 {
            words.copy_from_slice(&input_words);
            bsp.run_vertical_bits(&mut words, &vertical);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "factor={} r={r}: {delta} allocations across 32 warm run_vertical_bits calls",
            factor.name()
        );
        assert_eq!(words, bits_reference, "warm bit runs stay correct");

        // --- Full-key column path: one 64-lane block. ---
        let inputs: Vec<Vec<u64>> = (0..WORD_LANES as u64).map(|s| lcg_keys(len, s)).collect();
        let mut batch = inputs.clone();
        let mut pool = VerticalPool::new();

        let before = allocations();
        bsp.run_vertical_batch(&mut batch, &vertical, &mut pool);
        let delta = allocations() - before;
        assert_eq!(pool.len(), 1, "64 small lanes run as one block");
        assert!(
            delta <= 1 + COLD_EXTRA,
            "factor={} r={r}: {delta} allocations in a cold one-block run_vertical_batch call",
            factor.name()
        );
        let cols_reference = batch.clone();

        let before = allocations();
        for _ in 0..32 {
            for (lane, src) in batch.iter_mut().zip(&inputs) {
                lane.clone_from_slice(src);
            }
            bsp.run_vertical_batch(&mut batch, &vertical, &mut pool);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "factor={} r={r}: {delta} allocations across 32 warm run_vertical_batch calls",
            factor.name()
        );

        // The measured runs did real work: same outputs as the warm-up,
        // and both paths sorted every lane.
        assert_eq!(batch, cols_reference, "warm column runs stay correct");
        for keys in &batch {
            assert!(
                product_sort::sim::netsort::is_snake_sorted(vertical.shape(), keys),
                "factor={} r={r}: vertical output must be sorted",
                factor.name()
            );
        }
        for lane in 0..WORD_LANES {
            let keys = unpack_zero_one_lane(&words, lane);
            assert!(
                product_sort::sim::netsort::is_snake_sorted(vertical.shape(), &keys),
                "factor={} r={r} lane={lane}: bit output must be sorted",
                factor.name()
            );
        }
    }

    // --- Full-key column path in several blocks: a K2^12 lane is
    // 32 KiB of keys, so the 1 MiB block budget caps blocks at 32 lanes
    // and 64 lanes run as 32 + 32, one after the other, each from its
    // own pooled scratch. ---
    let factor = factories::k2();
    let program = compile(&factor, 12, &Hypercube2Sorter);
    let bsp = BspMachine::new(&factor, 12).serial();
    let vertical = bsp
        .lower_vertical(&program)
        .expect("compiled programs validate");
    let len = vertical.shape().len();
    let inputs: Vec<Vec<u64>> = (0..WORD_LANES as u64).map(|s| lcg_keys(len, s)).collect();
    let mut batch = inputs.clone();
    let mut pool = VerticalPool::new();

    let before = allocations();
    bsp.run_vertical_batch(&mut batch, &vertical, &mut pool);
    let delta = allocations() - before;
    assert_eq!(pool.len(), 2, "64 lanes of K2^12 run as two blocks");
    assert!(
        delta <= 2 + COLD_EXTRA,
        "K2^12: {delta} allocations in a cold two-block run_vertical_batch call"
    );
    let reference = batch.clone();

    // One measured call: a debug build takes ~1.5 s over this program.
    for (lane, src) in batch.iter_mut().zip(&inputs) {
        lane.clone_from_slice(src);
    }
    let before = allocations();
    bsp.run_vertical_batch(&mut batch, &vertical, &mut pool);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "K2^12: {delta} allocations in a warm two-block run_vertical_batch call"
    );
    assert_eq!(batch, reference, "warm two-block runs stay correct");
    for keys in &batch {
        assert!(
            product_sort::sim::netsort::is_snake_sorted(vertical.shape(), keys),
            "K2^12: two-block output must be sorted"
        );
    }
}
