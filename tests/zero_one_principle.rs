//! Zero-one-principle validation at every level of the stack.
//!
//! The algorithms are oblivious (fixed data movements, data-dependent
//! behaviour only inside compare-exchanges and correct-by-contract base
//! sorters), so exhaustively sorting all 0/1 inputs proves correctness
//! for all inputs (Knuth, the paper's Lemma 1/2 tool).

use product_sort::algo::zero_one::exhaustive_merge_check;
use product_sort::algo::StdBaseSorter;
use product_sort::graph::factories;
use product_sort::order::radix::Shape;
use product_sort::sim::netsort::{is_snake_sorted, network_sort, read_snake_order};
use product_sort::sim::{ChargedEngine, CostModel, ExecutedEngine, Hypercube2Sorter, ShearSorter};

#[test]
fn sequence_merge_all_zero_one_inputs() {
    // Input space of a merge = one zero count per sorted input sequence.
    assert_eq!(exhaustive_merge_check(2, 8, &StdBaseSorter), 81);
    assert_eq!(exhaustive_merge_check(2, 32, &StdBaseSorter), 1089);
    assert_eq!(exhaustive_merge_check(3, 9, &StdBaseSorter), 1000);
    assert_eq!(exhaustive_merge_check(3, 27, &StdBaseSorter), 21_952);
    assert_eq!(exhaustive_merge_check(4, 16, &StdBaseSorter), 83_521);
}

fn exhaustive_network_zero_one<F>(n: usize, r: usize, mut sort: F)
where
    F: FnMut(&mut [u8]) -> bool,
{
    let shape = Shape::new(n, r);
    let len = shape.len() as usize;
    assert!(len <= 20, "exhaustive space too large");
    for mask in 0u32..(1u32 << len) {
        let mut keys: Vec<u8> = (0..len).map(|i| ((mask >> i) & 1) as u8).collect();
        assert!(sort(&mut keys), "n={n} r={r} mask={mask:#x}");
    }
}

#[test]
fn charged_network_sort_all_zero_one_inputs() {
    for (n, r) in [(2usize, 2usize), (2, 3), (2, 4), (3, 2), (4, 2)] {
        let shape = Shape::new(n, r);
        let mut engine = ChargedEngine::new(CostModel::custom("unit", 1, 1));
        exhaustive_network_zero_one(n, r, |keys| {
            let _ = network_sort(shape, keys, &mut engine);
            is_snake_sorted(shape, keys)
        });
    }
}

#[test]
fn executed_hypercube_sort_all_zero_one_inputs() {
    // 2^16 inputs on the 4-cube with the real three-step PG_2 sorter.
    let factor = factories::k2();
    let shape = Shape::new(2, 4);
    let mut engine = ExecutedEngine::new(&factor, shape, &Hypercube2Sorter);
    exhaustive_network_zero_one(2, 4, |keys| {
        let _ = network_sort(shape, keys, &mut engine);
        is_snake_sorted(shape, keys)
    });
}

#[test]
fn executed_grid_sort_all_zero_one_inputs() {
    // 2^16 inputs on the 4×4 grid with shearsort actually running.
    let factor = factories::path(4);
    let shape = Shape::new(4, 2);
    let mut engine = ExecutedEngine::new(&factor, shape, &ShearSorter);
    exhaustive_network_zero_one(4, 2, |keys| {
        let _ = network_sort(shape, keys, &mut engine);
        is_snake_sorted(shape, keys)
    });
}

/// The deterministic 4096-mask sample used by the tier-1 BSP checks:
/// structured corner masks first, then a seeded LCG stream. The
/// all-zeros and all-ones boundary vectors are a checked *guarantee* of
/// the sample, not luck of the seed — a future edit that drops them
/// fails here, not silently.
fn sampled_hypercube_masks() -> Vec<u32> {
    let mut masks: Vec<u32> = vec![0, 0xFFFF, 0x5555, 0xAAAA, 0x00FF, 0xFF00, 0x0F0F, 0xF0F0];
    let mut state: u64 = 0x5EED_2E01;
    while masks.len() < 4096 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        masks.push((state >> 33) as u32 & 0xFFFF);
    }
    for corner in [0u32, 0xFFFF] {
        assert!(
            masks.contains(&corner),
            "sample must pin the {corner:#06x} boundary vector"
        );
    }
    masks
}

#[test]
fn bsp_hypercube_4_zero_one_sampled() {
    // Tier-1 slice of the heavy sweep `bsp_hypercube_4_zero_one_exhaustive`
    // (tests/heavy.rs): instead of all 2^16 masks of the 4-cube, a seeded
    // sample of 4096 — deterministic, so failures reproduce — run through
    // the serial BSP machine.
    // Structured corner masks are always included.
    use product_sort::sim::bsp::{compile, BspMachine};

    let factor = factories::k2();
    let program = compile(&factor, 4, &Hypercube2Sorter);
    let machine = BspMachine::new(&factor, 4);
    for mask in sampled_hypercube_masks() {
        let input: Vec<u8> = (0..16).map(|i| ((mask >> i) & 1) as u8).collect();
        let zeros = input.iter().filter(|&&k| k == 0).count();
        let mut serial = input;
        machine.run(&mut serial, &program);
        assert!(
            is_snake_sorted(machine.shape(), &serial),
            "mask={mask:#06x}"
        );
        let seq = read_snake_order(machine.shape(), &serial);
        assert!(seq[..zeros].iter().all(|&k| k == 0), "mask={mask:#06x}");
        assert!(seq[zeros..].iter().all(|&k| k == 1), "mask={mask:#06x}");
    }
}

#[test]
fn vertical_exhaustive_sweep_subsumes_the_sampled_check() {
    // The bit-sliced vertical tier (tests/vertical.rs) sweeps *all*
    // 2^16 masks of the 4-cube — a strict superset of the 4096-mask
    // sample above. This test closes the loop on the smallest sampled
    // fixture: every sampled mask, pushed through the vertical tier 64
    // lanes at a time, lands bit-identical to the serial BSP machine,
    // so the exhaustive vertical sweep subsumes the sampled tier-1
    // check rather than merely running alongside it.
    use product_sort::sim::bsp::{compile, BspMachine};
    use product_sort::sim::{pack_zero_one_masks, unpack_zero_one_lane, WORD_LANES};

    let factor = factories::k2();
    let program = compile(&factor, 4, &Hypercube2Sorter);
    let machine = BspMachine::new(&factor, 4);
    let vertical = machine
        .lower_vertical(&program)
        .expect("compiled programs validate");
    let masks = sampled_hypercube_masks();
    for block in masks.chunks(WORD_LANES) {
        let lanes: Vec<u64> = block.iter().map(|&m| u64::from(m)).collect();
        let mut words = pack_zero_one_masks(&lanes, 16);
        machine.run_vertical_bits(&mut words, &vertical);
        for (l, &mask) in block.iter().enumerate() {
            let mut serial: Vec<u8> = (0..16).map(|i| ((mask >> i) & 1) as u8).collect();
            machine.run(&mut serial, &program);
            assert_eq!(
                unpack_zero_one_lane(&words, l),
                serial,
                "mask={mask:#06x}: vertical lane vs serial machine"
            );
        }
    }
}

#[test]
fn zero_one_outputs_have_the_right_zero_count() {
    // Beyond sortedness: the multiset must be preserved.
    let shape = Shape::new(3, 2);
    for mask in 0u32..(1 << 9) {
        let mut keys: Vec<u8> = (0..9).map(|i| ((mask >> i) & 1) as u8).collect();
        let zeros = keys.iter().filter(|&&k| k == 0).count();
        let mut engine = ChargedEngine::new(CostModel::custom("unit", 1, 1));
        let _ = network_sort(shape, &mut keys, &mut engine);
        let seq = read_snake_order(shape, &keys);
        assert!(seq[..zeros].iter().all(|&k| k == 0), "mask={mask:#x}");
        assert!(seq[zeros..].iter().all(|&k| k == 1), "mask={mask:#x}");
    }
}
