//! Allocation accounting for the vertical tier: after one warm-up run,
//! both vertical executors — the bit-sliced 0/1 path
//! (`run_vertical_bits`, which keeps no state) and the full-key column
//! path (`run_vertical_batch` with a warm `VerticalPool`, in one block
//! or several) — must perform **zero** heap allocations per call, the
//! same contract `kernel_alloc.rs` pins for the kernel tier.
//!
//! The proof is a counting `#[global_allocator]` wrapping the system
//! allocator. This must be the only test in the binary: the counter is
//! process-global, and a concurrent test would pollute the deltas.

use product_sort::graph::factories;
use product_sort::sim::{
    compile, pack_zero_one_masks, unpack_zero_one_lane, BspMachine, Hypercube2Sorter, ShearSorter,
    VerticalPool, WORD_LANES,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

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
    // Two shapes with different round mixes: the 3-ary 3-cube (pure
    // grid routing) and a star factor square (relays, whose route
    // rounds lower to paired compare-exchanges).
    let cases = [(factories::path(3), 3usize), (factories::star(4), 2usize)];
    for (factor, r) in cases {
        let program = compile(&factor, r, &ShearSorter);
        let bsp = BspMachine::new(&factor, r);
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

        bsp.run_vertical_batch(&mut batch, &vertical, &mut pool);
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
    // and 64 lanes run as 32 + 32, one after the other on a serial
    // machine, each from its own pooled scratch. ---
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

    bsp.run_vertical_batch(&mut batch, &vertical, &mut pool);
    assert_eq!(pool.len(), 2, "64 lanes of K2^12 run as two blocks");
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
