//! Every `Ok` a fault path returns is a permutation of its input.
//!
//! A dropped relay makes its receiver latch a copy of its own key, and
//! a stalled resolve discards the key that arrived: either can leave one
//! key twice and another not at all, in an order the Lemma 3
//! certificates still accept. The certificates therefore also compare
//! the key multiset against the input's, and this suite holds every
//! fault entry point to that: the interpreter (`run_with_faults`), the
//! kernel (`run_kernel_with_faults`), the quarantining batch
//! (`run_batch_with_faults`) and `SortService` with its breaker off.
//! Each fault kind runs alone at 1,000 per million sites on the
//! relabeled `star(4)^2` and `complete_binary_tree(3)^2`, compiled with
//! the `Auto` sorter, so relays carry keys through transit slots.

use product_sort::graph::{factories, Graph};
use product_sort::service::{BreakerConfig, ServiceConfig, SortService};
use product_sort::sim::bsp::{compile, BspMachine, CompiledProgram};
use product_sort::sim::netsort::is_snake_sorted;
use product_sort::sim::{
    ExecScratch, FaultError, FaultKind, FaultPlan, FaultReport, KernelProgram, Machine,
    RetryPolicy, SorterChoice,
};

/// Faults per million sites, for every kind.
const RATE: u64 = 1_000;
/// Lanes (or requests) per shape and kind.
const LANES: u64 = 64;

/// The relabeled factors, as `Machine` and the service run them.
fn factors() -> [(&'static str, Graph); 2] {
    [
        ("star(4)^2", Machine::prepare_factor(&factories::star(4))),
        (
            "complete_binary_tree(3)^2",
            Machine::prepare_factor(&factories::complete_binary_tree(3)),
        ),
    ]
}

/// A shape's machine, its program under the `Auto` sorter, and the
/// program lowered to the kernel tier.
fn setup(factor: &Graph) -> (BspMachine, CompiledProgram, KernelProgram) {
    let program = compile(factor, 2, SorterChoice::Auto.resolve(factor));
    let machine = BspMachine::new(factor, 2);
    let kernel = machine.lower(&program).expect("compiled programs validate");
    (machine, program, kernel)
}

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        })
        .collect()
}

/// The plan that fires `kind` alone at [`RATE`].
fn plan_for(kind: FaultKind) -> FaultPlan {
    FaultPlan::random_with_kinds(0xF00D ^ kind.code(), RATE, &[kind])
}

fn is_permutation(input: &[u64], output: &[u64]) -> bool {
    let (mut a, mut b) = (input.to_vec(), output.to_vec());
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// Checks one fault path's outcomes and counts what it saw, so a test
/// can show that faults fired and lanes came back `Ok`.
#[derive(Default)]
struct Tally {
    ok: u64,
    injected: u64,
    bad: Vec<String>,
}

impl Tally {
    fn lane(
        &mut self,
        ctx: &str,
        input: &[u64],
        output: &[u64],
        outcome: &Result<FaultReport, FaultError>,
    ) {
        match outcome {
            Ok(report) => {
                self.ok += 1;
                self.injected += report.injected.len() as u64;
                if !is_permutation(input, output) {
                    self.bad.push(format!("{ctx}: Ok but not a permutation"));
                }
            }
            Err(FaultError::RetryExhausted { .. }) => {}
            Err(other) => self.bad.push(format!("{ctx}: unexpected error {other}")),
        }
    }

    fn assert_clean(&self, path: &str) {
        assert!(self.ok > 0, "{path}: no lane came back Ok");
        assert!(self.injected > 0, "{path}: no fault fired");
        assert!(
            self.bad.is_empty(),
            "{path}: {} bad lanes, first: {}",
            self.bad.len(),
            self.bad[0]
        );
    }
}

/// The machine, program and kernel one lane runs on.
type Setup = (BspMachine, CompiledProgram, KernelProgram);

/// Run `run_lane(setup, keys, lane plan)` over [`LANES`] seeded lanes
/// per shape and kind, each lane on `plan.fork(lane)`.
fn per_lane_sweep(
    path: &str,
    mut run_lane: impl FnMut(&Setup, &mut Vec<u64>, &FaultPlan) -> Result<FaultReport, FaultError>,
) {
    for (name, factor) in factors() {
        let setup = setup(&factor);
        let machine = &setup.0;
        for kind in FaultKind::ALL {
            let plan = plan_for(kind);
            let mut tally = Tally::default();
            for lane in 0..LANES {
                let input = lcg_keys(machine.shape().len(), lane);
                let mut keys = input.clone();
                let outcome = run_lane(&setup, &mut keys, &plan.fork(lane));
                let ctx = format!("{name} {} lane {lane}", kind.name());
                tally.lane(&ctx, &input, &keys, &outcome);
            }
            tally.assert_clean(&format!("{path} {name} {}", kind.name()));
        }
    }
}

#[test]
fn interpreter_ok_lanes_are_permutations() {
    per_lane_sweep("run_with_faults", |(machine, program, _), keys, plan| {
        machine.run_with_faults(keys, program, plan, &RetryPolicy::default())
    });
}

#[test]
fn kernel_ok_lanes_are_permutations() {
    let mut scratch = ExecScratch::new();
    per_lane_sweep(
        "run_kernel_with_faults",
        |(machine, _, kernel), keys, plan| {
            machine.run_kernel_with_faults(
                keys,
                kernel,
                plan,
                &RetryPolicy::default(),
                &mut scratch,
            )
        },
    );
}

#[test]
fn batch_ok_lanes_are_permutations_and_sorted() {
    for (name, factor) in factors() {
        let (machine, program, _) = setup(&factor);
        for kind in FaultKind::ALL {
            let inputs: Vec<Vec<u64>> = (0..LANES)
                .map(|lane| lcg_keys(machine.shape().len(), lane))
                .collect();
            let mut batch = inputs.clone();
            let results = machine.run_batch_with_faults(
                &mut batch,
                &program,
                &plan_for(kind),
                &RetryPolicy::default(),
            );
            let mut tally = Tally::default();
            for (lane, outcome) in results.iter().enumerate() {
                let ctx = format!("{name} {} lane {lane}", kind.name());
                tally.lane(&ctx, &inputs[lane], &batch[lane], outcome);
                assert!(
                    is_snake_sorted(machine.shape(), &batch[lane]),
                    "{ctx}: batch lanes end sorted"
                );
            }
            tally.assert_clean(&format!("run_batch_with_faults {name} {}", kind.name()));
        }
    }
}

#[test]
fn service_replies_are_permutations() {
    let config = ServiceConfig {
        breaker: BreakerConfig {
            // Keep admitting under injection, as E22's fault scenario
            // does: the replies are under test, not the breaker.
            trip_pct: 0,
            ..BreakerConfig::default()
        },
        workers: 2,
        ..ServiceConfig::default()
    };
    let shapes = factors();
    for kind in FaultKind::ALL {
        let mut builder = SortService::builder(config).fault_plan(plan_for(kind));
        for (_, factor) in &shapes {
            builder = builder.register_shape(factor, 2).expect("connected factor");
        }
        let service = builder.start();
        let mut pending = Vec::new();
        for (shape, (name, factor)) in shapes.iter().enumerate() {
            let len = (factor.n() as u64).pow(2);
            for lane in 0..LANES {
                let input = lcg_keys(len, lane);
                let ticket = service
                    .submit(0, shape, input.clone())
                    .expect("admission is clean here");
                pending.push((
                    format!("{name} {} request {lane}", kind.name()),
                    input,
                    ticket,
                ));
            }
        }
        for (ctx, input, ticket) in pending {
            let response = ticket
                .wait()
                .unwrap_or_else(|e| panic!("{ctx}: the ladder lands every request: {e}"));
            assert!(
                is_permutation(&input, &response.keys),
                "{ctx}: reply is not a permutation of the request"
            );
        }
    }
}
