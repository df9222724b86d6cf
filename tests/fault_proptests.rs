//! Property-based tests for the fault-injecting executors: a transient
//! fault is either harmless or caught by the stage certificates, the
//! default retry policy always repairs sparse faults, batch execution
//! degrades instead of panicking, and the kernel fault executor matches
//! the interpreter bit for bit.

use product_sort::graph::factories;
use product_sort::sim::netsort::is_snake_sorted;
use product_sort::sim::{
    compile, BspMachine, CompiledProgram, ExecScratch, FaultError, FaultKind, FaultPlan, FaultSite,
    Machine, OetSnakeSorter, Op, RetryPolicy, ShearSorter,
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

/// All sites of a given operation class in the program.
fn sites_of(program: &CompiledProgram, compare: bool) -> Vec<(FaultSite, FaultKind)> {
    let mut out = Vec::new();
    for (ri, round) in program.round_ops().iter().enumerate() {
        for (oi, op) in round.iter().enumerate() {
            let kind = match op {
                Op::CompareExchange { .. } if compare => FaultKind::FlipCompare,
                Op::Move { .. } if !compare => FaultKind::DropRoute,
                Op::Resolve { .. } if !compare => FaultKind::StallResolve,
                _ => continue,
            };
            out.push((
                FaultSite {
                    round: ri as u64,
                    op: oi as u64,
                },
                kind,
            ));
        }
    }
    out
}

/// With detection but no retries, a single injected fault must leave the
/// output sorted (harmless) or surface as `RetryExhausted` (detected).
fn harmless_or_detected(
    machine: &BspMachine,
    program: &CompiledProgram,
    keys: &[u64],
    site: FaultSite,
    kind: FaultKind,
) -> Result<(), String> {
    let plan = FaultPlan::single(kind, site);
    let mut k = keys.to_vec();
    match machine.run_with_faults(&mut k, program, &plan, &RetryPolicy::detect_only()) {
        Ok(report) => {
            if !is_snake_sorted(machine.shape(), &k) {
                return Err(format!(
                    "undetected {kind:?} at {site:?} left keys unsorted (injected: {})",
                    report.injected.len()
                ));
            }
            Ok(())
        }
        Err(FaultError::RetryExhausted { .. }) => Ok(()),
        Err(other) => Err(format!("unexpected error at {site:?}: {other}")),
    }
}

/// Exhaustive sweep, not sampled: every comparator flip in a small
/// `PG_2` sort is harmless or detected.
#[test]
fn every_single_comparator_flip_is_harmless_or_detected() {
    for (n, keys_seed) in [(3usize, 5u64), (4, 17)] {
        let factor = factories::path(n);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let keys = keys_for(machine.shape().len(), keys_seed, 1000);
        for (site, kind) in sites_of(&program, true) {
            harmless_or_detected(&machine, &program, &keys, site, kind)
                .unwrap_or_else(|msg| panic!("n={n}: {msg}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_single_faults_are_harmless_or_detected(
        n in 3usize..6, pick in any::<u64>(), seed in any::<u64>(), modulus in 1u64..1000,
        compare in any::<bool>(),
    ) {
        let factor = factories::path(n);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let keys = keys_for(machine.shape().len(), seed, modulus);
        let sites = sites_of(&program, compare);
        prop_assume!(!sites.is_empty());
        let (site, kind) = sites[(pick % sites.len() as u64) as usize];
        if let Err(msg) = harmless_or_detected(&machine, &program, &keys, site, kind) {
            return Err(TestCaseError::Fail(msg));
        }
    }

    #[test]
    fn default_policy_repairs_sparse_random_faults(
        n in 3usize..5, r in 2usize..4, plan_seed in any::<u64>(),
        seed in any::<u64>(), modulus in 1u64..1000, rate in 1u64..2_000,
    ) {
        prop_assume!((n as u64).pow(r as u32) <= 256);
        let factor = factories::path(n);
        let program = compile(&factor, r, &ShearSorter);
        let machine = BspMachine::new(&factor, r);
        let mut keys = keys_for(machine.shape().len(), seed, modulus);
        let plan = FaultPlan::random(plan_seed, rate);
        // Up to 0.2% of sites firing: the default policy's three retries
        // per segment always recover (transients never repeat).
        let report = machine
            .run_with_faults(&mut keys, &program, &plan, &RetryPolicy::default())
            .map_err(|e| TestCaseError::Fail(format!("unrepaired: {e}")))?;
        prop_assert!(is_snake_sorted(machine.shape(), &keys));
        prop_assert_eq!(report.rounds, report.counters.total_rounds());
        prop_assert!(report.counters.useful_rounds >= program.rounds() as u64);
    }

    #[test]
    fn batches_degrade_gracefully_and_never_panic(
        n in 3usize..5, lanes in 1usize..9, plan_seed in any::<u64>(),
        seed in any::<u64>(), rate in 1u64..50_000,
    ) {
        let factor = factories::path(n);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let len = machine.shape().len();
        let mut batch: Vec<Vec<u64>> = (0..lanes as u64)
            .map(|i| keys_for(len, seed ^ (i * 7919), 1000))
            .collect();
        let plan = FaultPlan::random(plan_seed, rate);
        // No retries: heavy rates force the quarantine path often.
        let results =
            machine.run_batch_with_faults(&mut batch, &program, &plan, &RetryPolicy::detect_only());
        prop_assert_eq!(results.len(), lanes);
        for (lane, res) in results.iter().enumerate() {
            let report = res
                .as_ref()
                .map_err(|e| TestCaseError::Fail(format!("lane {lane} failed: {e}")))?;
            prop_assert!(
                is_snake_sorted(machine.shape(), &batch[lane]),
                "lane {} unsorted (quarantined: {})", lane, report.quarantined
            );
        }
    }

    #[test]
    fn kernel_fault_path_matches_the_interpreter_on_random_factors(
        n in 3usize..7, seed in any::<u64>(), plan_seed in any::<u64>(),
        rate in 1u64..50_000, all_kinds in any::<bool>(),
        (max_retries, recheck_depth) in (0u32..4, 0u32..4), modulus in 1u64..1000,
    ) {
        // Random relabeled factors relay through transit slots. The
        // kernel runs flip-only segments from its run table and replays
        // the others, so compare-only plans and all-kinds plans take
        // different kernel paths; under either, and under any policy,
        // the report, the error and the keys must match the
        // interpreter's.
        let factor = Machine::prepare_factor(&factories::random_connected(n, 2, seed));
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let kernel = machine
            .lower(&program)
            .map_err(|e| TestCaseError::Fail(format!("lowering failed: {e}")))?;
        let keys = keys_for(machine.shape().len(), seed, modulus);
        let plan = if all_kinds {
            FaultPlan::random(plan_seed, rate)
        } else {
            FaultPlan::random_with_kinds(plan_seed, rate, &[FaultKind::FlipCompare])
        };
        let policy = RetryPolicy { max_retries, recheck_depth, ..RetryPolicy::default() };
        let mut a = keys.clone();
        let ra = machine.run_with_faults(&mut a, &program, &plan, &policy);
        let mut b = keys;
        let rb = machine.run_kernel_with_faults(&mut b, &kernel, &plan, &policy, &mut ExecScratch::new());
        prop_assert_eq!(ra, rb, "fault reports diverge");
        prop_assert_eq!(a, b, "faulty keys diverge");
    }
}
