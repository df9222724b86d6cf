//! Property-based tests for the simulator: machines on random factors
//! and random inputs always sort, every batch width agrees with the
//! interpreter, and the accounting never drifts.

use product_sort::graph::factories;
use product_sort::order::radix::Shape;
use product_sort::order::Direction;
use product_sort::sim::netsort::{is_snake_sorted, network_sort, read_snake_order};
use product_sort::sim::sorters::{run_program, validate_program};
use product_sort::sim::{
    block_sort, candidates, compile, sample_sort, score_sorters, BspMachine, ChargedEngine,
    CostModel, ExecScratch, ExecutedEngine, Machine, MultiwayNSorter, OetSnakeSorter,
    PeriodicMergeSorter, Pg2Sorter, ProgramCache, ScratchPool, ShearSorter, SortError,
    SorterChoice,
};
use proptest::prelude::*;

fn keys_for(len: u64, seed: u64, modulus: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 30) % modulus
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn charged_sort_is_correct_on_random_factors(
        n in 3usize..8, r in 2usize..4, extra in 0usize..4,
        seed in any::<u64>(), modulus in 1u64..1000,
    ) {
        prop_assume!((n as u64).pow(r as u32) <= 1024);
        let _factor = factories::random_connected(n, extra, seed);
        let shape = Shape::new(n, r);
        let mut keys = keys_for(shape.len(), seed ^ 0xABCD, modulus);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut engine = ChargedEngine::new(CostModel::paper_universal(n));
        let out = network_sort(shape, &mut keys, &mut engine);
        prop_assert!(is_snake_sorted(shape, &keys));
        prop_assert_eq!(read_snake_order(shape, &keys), expect);
        // Theorem 1 units hold for any factor.
        let rr = r as u64;
        prop_assert_eq!(out.counters.s2_units, (rr - 1) * (rr - 1));
        prop_assert_eq!(out.counters.route_units, (rr - 1) * (rr - 2));
    }

    #[test]
    fn executed_sort_is_correct_on_relabeled_random_factors(
        n in 3usize..7, seed in any::<u64>(), modulus in 1u64..100,
    ) {
        let factor = Machine::prepare_factor(&factories::random_connected(n, 2, seed));
        let shape = Shape::new(n, 2);
        let mut keys = keys_for(shape.len(), seed ^ 0x1234, modulus);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut engine = ExecutedEngine::new(&factor, shape, &OetSnakeSorter);
        let _ = network_sort(shape, &mut keys, &mut engine);
        prop_assert_eq!(read_snake_order(shape, &keys), expect);
    }

    #[test]
    fn new_sorter_programs_sort_above_the_exhaustive_range(
        n in 5usize..17, seed in any::<u64>(), modulus in 1u64..1000,
        which in 0usize..3,
    ) {
        // Widths 25..=256 — past any zero-one sweep; random keys with
        // heavy duplication (small moduli) stress the merge structure.
        let sorter: &dyn Pg2Sorter = match which {
            0 => &MultiwayNSorter,
            1 => &PeriodicMergeSorter { extra_blocks: 0 },
            _ => &PeriodicMergeSorter { extra_blocks: 1 },
        };
        let prog = sorter.program(n);
        validate_program(n, &prog);
        let mut keys = keys_for((n * n) as u64, seed, modulus);
        let mut expect = keys.clone();
        expect.sort_unstable();
        run_program(&mut keys, &prog, Direction::Ascending);
        prop_assert_eq!(keys, expect);
    }

    #[test]
    fn auto_selected_machines_sort_random_factors(
        n in 3usize..6, extra in 0usize..4, seed in any::<u64>(), modulus in 1u64..100,
    ) {
        // Whatever the selector picks on a random wiring must sort, and
        // its compiled program can never run more clean compare-exchanges
        // than another candidate's.
        let factor = Machine::prepare_factor(&factories::random_connected(n, extra, seed));
        let shape = Shape::new(n, 2);
        let pick = SorterChoice::Auto.resolve(&factor);
        let bsp = BspMachine::new(&factor, 2);
        let pairs = |sorter: &dyn Pg2Sorter| {
            bsp.lower(&compile(&factor, 2, sorter))
                .expect("compiled programs validate")
                .clean_cx_count()
        };
        let fewest = pairs(pick);
        for sorter in candidates().into_iter().filter(|s| s.supports(n)) {
            prop_assert!(fewest <= pairs(sorter), "{} beats {}", sorter.name(), pick.name());
        }
        let mut auto = Machine::executed(&factor, 2, pick);
        let mut keys = keys_for(shape.len(), seed ^ 0xBEEF, modulus);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let report = auto.sort(keys.split_off(0)).unwrap();
        prop_assert!(report.is_snake_sorted());
        prop_assert_eq!(report.into_sorted_vec(), expect);
    }

    #[test]
    fn executed_steps_are_input_independent(
        n in 3usize..6, seed_a in any::<u64>(), seed_b in any::<u64>(),
    ) {
        // Obliviousness: step totals cannot depend on the data.
        let factor = factories::path(n);
        let shape = Shape::new(n, 3);
        let run = |seed: u64| {
            let mut keys = keys_for(shape.len(), seed, 1000);
            let mut engine = ExecutedEngine::new(&factor, shape, &ShearSorter);
            network_sort(shape, &mut keys, &mut engine).steps
        };
        prop_assert_eq!(run(seed_a), run(seed_b));
    }

    #[test]
    fn bsp_agrees_with_round_level_execution(
        n in 3usize..6, seed in any::<u64>(), modulus in 1u64..50,
    ) {
        let factor = factories::path(n);
        let r = 2;
        let shape = Shape::new(n, r);
        let keys = keys_for(shape.len(), seed, modulus);

        let program = compile(&factor, r, &OetSnakeSorter);
        let bsp = BspMachine::new(&factor, r);
        let mut bsp_keys = keys.clone();
        bsp.run(&mut bsp_keys, &program);

        let mut engine = ExecutedEngine::new(&factor, shape, &OetSnakeSorter);
        let mut net_keys = keys;
        let _ = network_sort(shape, &mut net_keys, &mut engine);

        prop_assert_eq!(bsp_keys, net_keys);
    }

    #[test]
    fn kernel_paths_agree_with_the_interpreter(
        n in 3usize..6, seed in any::<u64>(), modulus in 1u64..50,
    ) {
        // The lowered kernel — serial, chunked (threshold 1), and
        // batched — is bit-identical to interpreted execution on random
        // relabeled factors, where relay moves exercise Route rounds.
        let factor = Machine::prepare_factor(&factories::random_connected(n, 2, seed));
        let r = 2;
        let shape = Shape::new(n, r);
        let program = compile(&factor, r, &OetSnakeSorter);
        let bsp = BspMachine::new(&factor, r);
        let kernel = bsp.lower(&program).expect("compiled programs validate");

        let keys = keys_for(shape.len(), seed ^ 0x77, modulus);
        let mut reference = keys.clone();
        bsp.run(&mut reference, &program);

        let mut scratch = ExecScratch::new();
        let mut serial = keys.clone();
        bsp.run_kernel(&mut serial, &kernel, &mut scratch);
        prop_assert_eq!(&serial, &reference);

        let mut chunked = keys.clone();
        bsp.run_kernel_parallel_threshold(&mut chunked, &kernel, &mut scratch, 1);
        prop_assert_eq!(&chunked, &reference);

        let mut batch = vec![keys; 3];
        let mut pool = ScratchPool::new();
        bsp.run_kernel_batch(&mut batch, &kernel, &mut pool);
        for lane in &batch {
            prop_assert_eq!(lane, &reference);
        }
    }

    #[test]
    fn machine_sort_batch_matches_the_interpreter_at_every_width(
        n in 3usize..7, seed in any::<u64>(), modulus in 1u64..50,
        width in 1usize..81, malformed in any::<u64>(),
    ) {
        // Widths 1..=80 cross both tiers (the kernel batch below 4 valid
        // lanes, the column tier from 4) and the 64-lane block cap; one
        // lane with the wrong key count must fail alone, in place.
        let factor = Machine::prepare_factor(&factories::random_connected(n, 2, seed));
        let r = 2;
        let shape = Shape::new(n, r);
        let program = compile(&factor, r, &OetSnakeSorter);
        let cache = ProgramCache::new();
        let mut machine = Machine::compiled(&factor, r, &OetSnakeSorter, &cache);
        let bsp = BspMachine::new(&factor, r);

        let mut batch: Vec<Vec<u64>> = (0..width as u64)
            .map(|lane| keys_for(shape.len(), seed ^ lane.wrapping_mul(0x9E37), modulus))
            .collect();
        let bad = (malformed % width as u64) as usize;
        if malformed >> 32 & 1 == 0 {
            batch[bad].pop();
        } else {
            batch[bad].push(0);
        }
        let results = machine.sort_batch(batch.clone());
        prop_assert_eq!(results.len(), width);
        for (lane, (res, input)) in results.into_iter().zip(batch).enumerate() {
            if lane == bad {
                let got = input.len();
                prop_assert!(
                    matches!(res, Err(SortError::WrongKeyCount { expected, got: g })
                        if expected == shape.len() && g == got),
                    "lane {}: want WrongKeyCount", lane
                );
                continue;
            }
            let mut reference = input;
            bsp.run(&mut reference, &program);
            match res {
                Ok(report) => prop_assert_eq!(report.keys, reference),
                Err(e) => prop_assert!(false, "lane {}: {}", lane, e),
            }
        }
    }

    #[test]
    fn charged_steps_follow_theorem1_for_random_costs(
        s2 in 1u64..1000, route in 0u64..1000, r in 2usize..5,
    ) {
        let n = 3usize;
        let shape = Shape::new(n, r);
        let mut keys = keys_for(shape.len(), s2 ^ route, 100);
        let mut engine = ChargedEngine::new(CostModel::custom("prop", s2, route));
        let out = network_sort(shape, &mut keys, &mut engine);
        let rr = r as u64;
        prop_assert_eq!(
            out.steps,
            (rr - 1) * (rr - 1) * s2 + (rr - 1) * (rr - 2) * route
        );
    }

    #[test]
    fn block_sort_matches_std_sort(
        n in 2usize..6, r in 2usize..4, block in 1usize..9,
        seed in any::<u64>(), modulus in 1u64..10_000,
    ) {
        prop_assume!((n as u64).pow(r as u32) <= 256);
        let shape = Shape::new(n, r);
        let keys = keys_for(shape.len() * block as u64, seed, modulus);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let (sorted, outcome) = block_sort(shape, block, keys, CostModel::custom("prop", 1, 1));
        prop_assert_eq!(sorted, expect);
        // Theorem 1 units are block-size independent.
        let rr = r as u64;
        prop_assert_eq!(outcome.counters.s2_units, (rr - 1) * (rr - 1));
        prop_assert_eq!(outcome.counters.route_units, (rr - 1) * (rr - 2));
    }

    #[test]
    fn sample_sort_matches_std_sort(
        n in 2usize..6, b in 4usize..33, oversample in 1usize..5,
        seed in any::<u64>(), modulus in 1u64..10_000,
    ) {
        prop_assume!(oversample <= b);
        let factor = factories::path(n);
        let r = 2;
        let p = n * n;
        let keys = keys_for((p * b) as u64, seed, modulus);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let (sorted, outcome) =
            sample_sort(&factor, r, b, keys, oversample, seed ^ 0x5A5A, &CostModel::custom("prop", 1, 1));
        prop_assert_eq!(sorted, expect);
        // Every key lands somewhere: the fullest bucket holds at least
        // the average load.
        prop_assert!(outcome.max_load >= b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn clean_pairs_follow_the_base_sorters_size(
        n in 3usize..7, r in 2usize..4, extra in 0usize..4, seed in any::<u64>(),
    ) {
        // Theorem 1 runs the base sorter (r-1)² times, on N^(r-2)
        // subgraphs at a time, and relayed pairs lower to one clean
        // compare-exchange each: every candidate's compiled program runs
        // (r-1)²·N^(r-2)·size + c of them, with one c per (factor, r).
        let factor = Machine::prepare_factor(&factories::random_connected(n, extra, seed));
        let bsp = BspMachine::new(&factor, r);
        let runs = ((r - 1) * (r - 1) * n.pow(r as u32 - 2)) as i64;
        let constants: Vec<i64> = score_sorters(&factor)
            .iter()
            .map(|score| {
                let sorter = candidates()
                    .into_iter()
                    .find(|c| c.id() == score.id)
                    .expect("scores come from the candidate list");
                let pairs = bsp
                    .lower(&compile(&factor, r, sorter))
                    .expect("compiled programs validate")
                    .clean_cx_count();
                pairs as i64 - runs * score.size as i64
            })
            .collect();
        prop_assert!(constants.len() >= 4);
        prop_assert!(constants.iter().all(|&c| c == constants[0] && c >= 0), "{:?}", constants);
    }
}
