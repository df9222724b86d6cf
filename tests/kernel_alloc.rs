//! Allocation accounting for the kernel tier: `BspMachine::run_kernel`
//! must perform **zero** heap allocations per call — the whole point of
//! the flat structure-of-arrays lowering. A clean run executes paired
//! compare-exchanges and keeps no transit state, so even the first run
//! on a fresh [`ExecScratch`] allocates nothing. A warm
//! `Machine::sort` on a compiled machine allocates nothing either: it
//! sorts the caller's vector in place and shares the factor name with
//! its report.
//!
//! The proof is the counting `#[global_allocator]` that `pns-bench`
//! installs too ([`pns_bench::counting_alloc`]). It counts per thread:
//! `run_kernel` and a warm `Machine::sort` both run on the calling
//! thread, so the test thread's count is exactly theirs, and an
//! allocation on another thread (the test harness's own, say) cannot
//! enter it.

use pns_bench::counting_alloc::{allocations, CountingAlloc};
use product_sort::graph::factories;
use product_sort::sim::{compile, BspMachine, ExecScratch, Machine, ProgramCache, ShearSorter};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
fn kernel_runs_do_not_allocate() {
    // Two shapes with different round mixes: the 3-ary 3-cube (pure
    // grid routing) and a star factor square (relays, whose route
    // rounds lower to paired compare-exchanges).
    let cases = [(factories::path(3), 3usize), (factories::star(4), 2usize)];
    for (factor, r) in cases {
        let program = compile(&factor, r, &ShearSorter);
        let bsp = BspMachine::new(&factor, r);
        let kernel = bsp.lower(&program).expect("compiled programs validate");
        let len = kernel.shape().len();

        let input = lcg_keys(len, 7);
        let mut keys = input.clone();
        let mut scratch = ExecScratch::new();

        // Cold: the first run on a fresh scratch.
        let before = allocations();
        bsp.run_kernel(&mut keys, &kernel, &mut scratch);
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "factor={} r={r}: {delta} allocations in a cold run_kernel call",
            factor.name()
        );
        let reference = keys.clone();

        let before = allocations();
        for _ in 0..32 {
            keys.clone_from_slice(&input);
            bsp.run_kernel(&mut keys, &kernel, &mut scratch);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "factor={} r={r}: {delta} allocations across 32 warm run_kernel calls",
            factor.name()
        );

        // The measured runs did real work: same output as the warm-up.
        assert_eq!(keys, reference, "warm runs stay correct");
        assert!(
            product_sort::sim::netsort::is_snake_sorted(kernel.shape(), &keys),
            "factor={} r={r}: kernel output must be sorted",
            factor.name()
        );

        // The library entry point, warm: the input vector is made
        // before the count starts and the report dropped after it ends.
        let mut machine = Machine::compiled(&factor, r, &ShearSorter, &ProgramCache::new());
        drop(machine.sort(input.clone()));
        let keys = input.clone();
        let before = allocations();
        let report = machine.sort(keys).expect("one key per node");
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "factor={} r={r}: {delta} allocations in a warm Machine::sort call",
            factor.name()
        );
        assert_eq!(report.keys, reference, "Machine::sort runs the same kernel");
    }
}
