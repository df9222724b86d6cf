//! The vertical tier as an *exhaustive* zero-one oracle.
//!
//! The sorting network is oblivious and comparator-shaped, so the
//! zero-one principle reduces correctness on all inputs to correctness
//! on all `2^n` 0/1 vectors — and the bit-sliced vertical layout
//! executes 64 of those vectors per word. That turns the exhaustive
//! sweep from a release-mode luxury (`tests/heavy.rs`) into a cheap
//! tier-1 check: every test here sweeps **all** `2^n` masks of its
//! fixture through `run_vertical_bits`, for both the raw and optimized
//! lowerings, and cross-checks the tier against the serial machine,
//! the kernel batch, and the fault executors.

use product_sort::graph::factories;
use product_sort::graph::Graph;
use product_sort::order::radix::Shape;
use product_sort::sim::bsp::{compile, BspMachine};
use product_sort::sim::netsort::read_snake_order;
use product_sort::sim::{
    pack_zero_one_masks, pack_zero_one_masks_into, unpack_zero_one_lane, FaultPlan,
    Hypercube2Sorter, Machine, OetSnakeSorter, Pg2Sorter, ProgramCache, RetryPolicy, ScratchPool,
    ShearSorter, SortError, VerticalPool, WORD_LANES,
};

/// Node rank at each snake position, so a sorted 0/1 lane can be
/// checked against its expected word without per-lane unpacking.
fn snake_order_nodes(shape: Shape) -> Vec<usize> {
    let identity: Vec<u32> = (0..shape.len() as u32).collect();
    read_snake_order(shape, &identity)
        .into_iter()
        .map(|rank| rank as usize)
        .collect()
}

/// Sweep **all** `2^n` zero-one vectors through the vertical bit path,
/// 64 lanes per word, on both the raw and optimized lowerings, and
/// check every lane sorted with its zero count preserved. Returns the
/// number of (lane, program) checks performed.
fn exhaustive_bits_sweep(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) -> u64 {
    let shape = Shape::new(factor.n(), r);
    let n = shape.len() as usize;
    assert!(n <= 16, "exhaustive space too large for a tier-1 sweep");
    let program = compile(factor, r, sorter);
    let optimized = program.optimized();
    let machine = BspMachine::new(factor, r);
    let order = snake_order_nodes(shape);
    let total: u64 = 1 << n;
    let mut checked = 0u64;
    let mut masks: Vec<u64> = Vec::with_capacity(WORD_LANES);
    let mut words: Vec<u64> = Vec::new();
    for (name, prog) in [("program", &program), ("optimized", &optimized)] {
        let vertical = machine
            .lower_vertical(prog)
            .expect("compiled programs validate");
        let mut base = 0u64;
        while base < total {
            let lanes = WORD_LANES.min((total - base) as usize);
            masks.clear();
            masks.extend(base..base + lanes as u64);
            pack_zero_one_masks_into(&masks, n, &mut words);
            machine.run_vertical_bits(&mut words, &vertical);
            // A sorted 0/1 lane reads, in snake order, `zeros` zeros then
            // ones — so at snake position `p`, lane `l`'s expected bit is
            // `p >= zeros(l)`. Build that expected word per position and
            // compare whole words: 64 lanes per equality check.
            for (p, &node) in order.iter().enumerate() {
                let mut expected = 0u64;
                for (l, &mask) in masks.iter().enumerate() {
                    let zeros = n as u32 - mask.count_ones();
                    expected |= u64::from(p as u32 >= zeros) << l;
                }
                assert_eq!(
                    words[node],
                    expected,
                    "factor={} r={r} {name}: masks {base:#x}.. diverge at snake pos {p}",
                    factor.name()
                );
            }
            checked += lanes as u64;
            base += lanes as u64;
        }
    }
    assert_eq!(checked, 2 * total, "every mask swept on both lowerings");
    checked
}

#[test]
fn exhaustive_zero_one_vertical_hypercube_4() {
    // All 2^16 vectors of the 4-cube — the full space the sampled
    // tier-1 test and the `--ignored` heavy sweep only approximate —
    // in 1024 words per lowering.
    exhaustive_bits_sweep(&factories::k2(), 4, &Hypercube2Sorter);
}

#[test]
fn exhaustive_zero_one_vertical_grid_4x4() {
    // Second fixture, different round mix: all 2^16 vectors of the
    // 4×4 shearsort grid.
    exhaustive_bits_sweep(&factories::path(4), 2, &ShearSorter);
}

#[test]
fn exhaustive_zero_one_vertical_star_relays() {
    // Relay-heavy routing (Route rounds with transit traffic) on the
    // star factor square: all 2^16 vectors again.
    exhaustive_bits_sweep(&factories::star(4), 2, &OetSnakeSorter);
}

/// Every lane of the bit path, on both lowerings, against the serial
/// BSP machine's full output vector for each of `masks` (64 per word).
fn bits_match_serial(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter, masks: &[u64]) {
    let program = compile(factor, r, sorter);
    let optimized = program.optimized();
    let machine = BspMachine::new(factor, r);
    let n = machine.shape().len() as usize;
    let lowered = [("program", &program), ("optimized", &optimized)]
        .map(|(name, prog)| (name, machine.lower_vertical(prog).expect("validates")));
    for block in masks.chunks(WORD_LANES) {
        let serials: Vec<Vec<u8>> = block
            .iter()
            .map(|&mask| {
                let mut serial: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
                machine.run(&mut serial, &program);
                serial
            })
            .collect();
        for (name, vertical) in &lowered {
            let mut words = pack_zero_one_masks(block, n);
            machine.run_vertical_bits(&mut words, vertical);
            for (l, (mask, serial)) in block.iter().zip(&serials).enumerate() {
                assert_eq!(
                    &unpack_zero_one_lane(&words, l),
                    serial,
                    "factor={} r={r} {name} mask={mask:#x}: vertical lane vs serial machine",
                    factor.name()
                );
            }
        }
    }
}

#[test]
fn vertical_bits_match_the_serial_machine_bit_for_bit() {
    // Strongest check: every lane of every word must equal the serial
    // BSP machine's full output vector, not just "be sorted". All 256
    // vectors of the 3-cube, which has no relays; and on the star
    // square, whose relays the bit path runs as paired compare-exchanges
    // while the serial machine replays every hop, every 31st of the
    // 2^16 masks (2 115 of them: the debug-mode oracle takes ~0.5 ms
    // per mask).
    let cube: Vec<u64> = (0..1 << 8).collect();
    bits_match_serial(&factories::k2(), 3, &Hypercube2Sorter, &cube);
    let star: Vec<u64> = (0..1 << 16).step_by(31).collect();
    bits_match_serial(&factories::star(4), 2, &OetSnakeSorter, &star);
}

#[test]
fn vertical_column_batch_matches_the_serial_machine_on_full_keys() {
    // Full-key batches across the topology zoo, 70 lanes (one full
    // word block plus a 6-lane tail), raw and optimized lowerings.
    let cases: [(&Graph, usize, &dyn Pg2Sorter); 3] = [
        (&factories::path(4), 2, &ShearSorter),
        (&factories::k2(), 4, &Hypercube2Sorter),
        (&factories::star(4), 2, &OetSnakeSorter),
    ];
    for (factor, r, sorter) in cases {
        let shape = Shape::new(factor.n(), r);
        let program = compile(factor, r, sorter);
        let optimized = program.optimized();
        let machine = BspMachine::new(factor, r);
        let inputs: Vec<Vec<u64>> = (0..70).map(|s| lcg_keys(shape.len(), 0xBEEF + s)).collect();
        let mut serials: Vec<Vec<u64>> = inputs.clone();
        for keys in &mut serials {
            machine.run(keys, &program);
        }
        for (name, prog) in [("program", &program), ("optimized", &optimized)] {
            let vertical = machine.lower_vertical(prog).expect("validates");
            let mut batch = inputs.clone();
            let mut pool = VerticalPool::new();
            machine.run_vertical_batch(&mut batch, &vertical, &mut pool);
            assert_eq!(
                batch,
                serials,
                "factor={} r={r}: vertical batch on {name}",
                factor.name()
            );
        }
    }
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
fn machine_sort_batch_auto_selects_the_vertical_tier() {
    // A compiled Machine must produce identical per-lane results below
    // and above the 4-lane vertical threshold (2 valid lanes of 3 run
    // the kernel batch, 4 of 5 and 69 of 70 the column tier),
    // malformed lanes degrading in place either way.
    let factor = factories::path(3);
    let cache = ProgramCache::new();
    let mut machine = Machine::compiled(&factor, 3, &ShearSorter, &cache);
    assert!(
        machine.vertical().is_some(),
        "compiled machines carry the vertical program"
    );
    let len = machine.shape().len();

    let bsp = BspMachine::new(&factor, 3);
    let program = compile(&factor, 3, &ShearSorter);

    for batch_size in [3usize, 5, 70] {
        let mut batch: Vec<Vec<u64>> = (0..batch_size as u64)
            .map(|s| lcg_keys(len, 31 + s))
            .collect();
        batch[2] = vec![9; 3]; // malformed lane, every size
        let results = machine.sort_batch(batch.clone());
        assert_eq!(results.len(), batch_size);
        for (lane, res) in results.into_iter().enumerate() {
            if lane == 2 {
                assert!(matches!(res, Err(SortError::WrongKeyCount { .. })));
                continue;
            }
            let report = res.unwrap_or_else(|e| panic!("lane {lane}: {e}"));
            let mut serial = batch[lane].clone();
            bsp.run(&mut serial, &program);
            assert_eq!(
                report.keys, serial,
                "batch={batch_size} lane={lane}: sort_batch vs serial machine"
            );
        }
    }
}

/// Nightly cross-product: every engine tier × both lowerings × the
/// fault layer, swept over **all** `2^16` zero-one vectors per fixture.
/// The tier-1 tests above prove the bit path exhaustively; this run
/// additionally checks every bit-path lane against the serial machine
/// and pushes the full space through the column batch and the two
/// batch fault executors, requiring lane-for-lane agreement. On the
/// star square, relay-free clean batches meet the round-faithful fault
/// executors.
#[test]
#[ignore = "release-mode sweep: 3 fixtures x 2 lowerings x 65,536 lanes through the bit path, three batch executors and the serial machine"]
fn exhaustive_zero_one_engine_optimizer_fault_cross_product() {
    let cases: [(&Graph, usize, &dyn Pg2Sorter); 3] = [
        (&factories::k2(), 4, &Hypercube2Sorter),
        (&factories::path(4), 2, &ShearSorter),
        // Relays: the clean tiers run them as paired compare-exchanges,
        // the fault executors and the serial machine hop by hop.
        (&factories::star(4), 2, &OetSnakeSorter),
    ];
    for (factor, r, sorter) in cases {
        let shape = Shape::new(factor.n(), r);
        let n = shape.len() as usize;
        let program = compile(factor, r, sorter);
        let optimized = program.optimized();
        let machine = BspMachine::new(factor, r);
        let all_inputs: Vec<Vec<u8>> = (0u64..1 << n)
            .map(|mask| (0..n).map(|i| ((mask >> i) & 1) as u8).collect())
            .collect();
        // Bit path, both lowerings, vs the round-faithful serial machine
        // on every mask.
        let masks: Vec<u64> = (0u64..1 << n).collect();
        bits_match_serial(factor, r, sorter, &masks);
        for (name, prog) in [("program", &program), ("optimized", &optimized)] {
            let ctx = format!("factor={} r={r} {name}", factor.name());
            let kernel = machine.lower(prog).expect("validates");
            let vertical = machine.lower_vertical(prog).expect("validates");

            // Column batch vs kernel batch over the whole space.
            let mut cols = all_inputs.clone();
            let mut pool = VerticalPool::new();
            machine.run_vertical_batch(&mut cols, &vertical, &mut pool);
            let mut kern = all_inputs.clone();
            let mut kpool = ScratchPool::new();
            machine.run_kernel_batch(&mut kern, &kernel, &mut kpool);
            assert_eq!(cols, kern, "{ctx}: column batch vs kernel batch");

            // Fault executors: identical plans over the whole space.
            for policy in [RetryPolicy::default(), RetryPolicy::detect_only()] {
                for seed in 0..2u64 {
                    let plan = FaultPlan::random(seed, 2_000);
                    let mut a = all_inputs.clone();
                    let ra = machine.run_batch_with_faults(&mut a, prog, &plan, &policy);
                    let mut b = all_inputs.clone();
                    let rb = machine.run_vertical_batch_with_faults(
                        &mut b, &vertical, &plan, &policy, &mut pool,
                    );
                    assert_eq!(ra, rb, "{ctx} seed={seed}: fault reports diverge");
                    assert_eq!(a, b, "{ctx} seed={seed}: faulty keys diverge");
                }
            }
        }
    }
}
