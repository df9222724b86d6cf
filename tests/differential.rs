//! Differential test harness: every execution path of the stack must
//! produce the *same configuration* on the same input.
//!
//! For each (factor, r, sorter) in a zoo of product networks, and for
//! each input in a bank of random and adversarial key vectors, we run:
//!
//! * the charged engine (`network_sort` + `ChargedEngine`),
//! * the executed engine (`network_sort` + `ExecutedEngine`),
//! * the serial BSP machine (`BspMachine::run`), the oracle,
//! * the flat kernel tier (`run_kernel`, the chunked-parallel
//!   `run_kernel_parallel` forced past its threshold, and
//!   `run_kernel_batch`),
//! * the vertical column tier (`run_vertical_batch`, all inputs in one
//!   block),
//!
//! and require all configurations to be elementwise identical and
//! snake-order equal to the `std` sort oracle. The algorithm is
//! oblivious, so any divergence between these paths is a bug in an
//! executor, not data dependence. A separate test drives the fault
//! layer's interpreter and kernel paths with identical fault plans and
//! requires identical reports and final keys.

use product_sort::baselines::LsbRadixSorter;
use product_sort::graph::factories;
use product_sort::graph::Graph;
use product_sort::order::radix::Shape;
use product_sort::sim::bsp::{compile, BspMachine, Op};
use product_sort::sim::netsort::{is_snake_sorted, network_sort, read_snake_order};
use product_sort::sim::{
    ChargedEngine, CostModel, ExecScratch, ExecutedEngine, FaultKind, FaultPlan, Hypercube2Sorter,
    Machine, MultiwayNSorter, OetSnakeSorter, PeriodicMergeSorter, Pg2Sorter, RetryPolicy,
    ScratchPool, ShearSorter, SorterChoice, VerticalPool,
};

fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        })
        .collect()
}

/// Random and adversarial inputs for a network of `len` nodes.
fn input_bank(len: u64) -> Vec<(String, Vec<u64>)> {
    let mut bank: Vec<(String, Vec<u64>)> = Vec::new();
    for seed in [1u64, 0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0] {
        bank.push((format!("random(seed={seed:#x})"), lcg_keys(len, seed)));
    }
    bank.push(("reversed".into(), (0..len).rev().collect()));
    bank.push(("sorted".into(), (0..len).collect()));
    bank.push(("all-equal".into(), vec![42; len as usize]));
    bank.push(("sawtooth".into(), (0..len).map(|x| x % 7).collect()));
    bank.push((
        "two-values".into(),
        (0..len).map(|x| u64::from(x % 3 == 0)).collect(),
    ));
    bank
}

/// Run the full engine matrix on one (factor, r, sorter) and compare.
fn differential_case(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) {
    let shape = Shape::new(factor.n(), r);
    let len = shape.len();
    let ctx = format!("factor={} r={r}", factor.name());

    let program = compile(factor, r, sorter);
    let bsp = BspMachine::new(factor, r);
    let kernel = bsp.lower(&program).expect("compiled programs validate");
    // Every relay pairs: a clean run executes each compare-exchange op
    // and one compare-exchange per pair of resolves.
    let ops = program.round_ops().iter().flatten();
    let cx = ops
        .clone()
        .filter(|op| matches!(op, Op::CompareExchange { .. }))
        .count();
    let resolves = ops.filter(|op| matches!(op, Op::Resolve { .. })).count();
    assert_eq!(
        kernel.clean_cx_count(),
        cx + resolves / 2,
        "{ctx}: clean compare-exchanges"
    );

    let bank = input_bank(len);
    let mut serials: Vec<Vec<u64>> = Vec::new();
    // One scratch for every kernel run in the case: reuse across inputs
    // is exactly the steady state the kernel tier promises.
    let mut scratch = ExecScratch::new();
    let mut radix = LsbRadixSorter::new();
    for (label, input) in &bank {
        let mut oracle = input.clone();
        oracle.sort_unstable();

        // Sequence-level baseline: the LSB radix sorter must agree with
        // the std oracle on every input the networks see.
        let mut radixed = input.clone();
        radix.sort_u64(&mut radixed);
        assert_eq!(radixed, oracle, "{ctx} {label}: radix vs std oracle");

        // Reference: serial BSP execution.
        let mut serial = input.clone();
        bsp.run(&mut serial, &program);
        assert!(is_snake_sorted(shape, &serial), "{ctx} {label}: serial");
        assert_eq!(
            read_snake_order(shape, &serial),
            oracle,
            "{ctx} {label}: serial vs std oracle"
        );

        // Kernel tier: serial and chunked-parallel (threshold 1 forces
        // the chunked path even on tiny rounds).
        let mut kser = input.clone();
        bsp.run_kernel(&mut kser, &kernel, &mut scratch);
        assert_eq!(kser, serial, "{ctx} {label}: run_kernel");
        let mut kpar = input.clone();
        bsp.run_kernel_parallel_threshold(&mut kpar, &kernel, &mut scratch, 1);
        assert_eq!(kpar, serial, "{ctx} {label}: chunked kernel");

        // Executed engine (real comparator programs + real routing).
        let mut exec = input.clone();
        let mut engine = ExecutedEngine::new(factor, shape, sorter);
        let _ = network_sort(shape, &mut exec, &mut engine);
        assert_eq!(exec, serial, "{ctx} {label}: executed engine");

        // Charged engine (instant data ops — same data trajectory).
        let mut charged = input.clone();
        let mut engine = ChargedEngine::new(CostModel::custom("unit", 1, 1));
        let _ = network_sort(shape, &mut charged, &mut engine);
        assert_eq!(charged, serial, "{ctx} {label}: charged engine");

        serials.push(serial);
    }

    // Batched kernel executor.
    let mut batch: Vec<Vec<u64>> = bank.iter().map(|(_, input)| input.clone()).collect();
    bsp.run_kernel_batch(&mut batch, &kernel, &mut ScratchPool::new());
    for ((label, _), (got, want)) in bank.iter().zip(batch.iter().zip(&serials)) {
        assert_eq!(got, want, "{ctx} {label}: run_kernel_batch");
    }

    // Vertical column tier: the whole bank as one word block.
    let vertical = bsp
        .lower_vertical(&program)
        .expect("compiled programs validate");
    let mut batch: Vec<Vec<u64>> = bank.iter().map(|(_, input)| input.clone()).collect();
    bsp.run_vertical_batch(&mut batch, &vertical, &mut VerticalPool::new());
    for ((label, _), (got, want)) in bank.iter().zip(batch.iter().zip(&serials)) {
        assert_eq!(got, want, "{ctx} {label}: run_vertical_batch");
    }
}

#[test]
fn differential_paths() {
    differential_case(&factories::path(4), 2, &ShearSorter);
    differential_case(&factories::path(4), 3, &ShearSorter);
    differential_case(&factories::path(3), 4, &ShearSorter);
}

#[test]
fn differential_cycles() {
    // Cycles carry the path edges 0–1–…–(n−1), so shearsort programs
    // compiled against consecutive labels stay edge-aligned.
    differential_case(&factories::cycle(5), 2, &ShearSorter);
    differential_case(&factories::cycle(4), 3, &ShearSorter);
}

#[test]
fn differential_hypercubes() {
    differential_case(&factories::k2(), 2, &Hypercube2Sorter);
    differential_case(&factories::k2(), 3, &Hypercube2Sorter);
    differential_case(&factories::k2(), 4, &Hypercube2Sorter);
    // 256 nodes: the zoo's largest network.
    differential_case(&factories::k2(), 8, &Hypercube2Sorter);
}

#[test]
fn differential_multiway_nsorter() {
    // Dense factors: every long row/column comparator is an edge.
    differential_case(&factories::complete(4), 2, &MultiwayNSorter);
    differential_case(&factories::complete(4), 3, &MultiwayNSorter);
    // Sparse factor: the same program forced through relay routing.
    differential_case(&factories::path(4), 2, &MultiwayNSorter);
}

#[test]
fn differential_periodic_merge() {
    differential_case(&factories::complete(4), 2, &PeriodicMergeSorter::default());
    differential_case(&factories::cycle(4), 2, &PeriodicMergeSorter::default());
    // The parameterized variant is a different program; it must agree too.
    differential_case(
        &factories::complete(4),
        2,
        &PeriodicMergeSorter::with_extra_blocks(1),
    );
}

#[test]
fn differential_auto_selected_sorters() {
    // Whatever the selector picks per shape must survive the full matrix.
    for factor in [factories::complete(4), factories::path(4), factories::k2()] {
        let factor = Machine::prepare_factor(&factor);
        differential_case(&factor, 2, SorterChoice::Auto.resolve(&factor));
    }
}

#[test]
fn differential_petersen_square() {
    let factor = Machine::prepare_factor(&factories::petersen());
    differential_case(&factor, 2, &ShearSorter);
}

#[test]
fn differential_de_bruijn() {
    // Non-Hamiltonian-friendly labels: relay moves in play.
    let factor = Machine::prepare_factor(&factories::de_bruijn(2));
    differential_case(&factor, 2, &OetSnakeSorter);
    differential_case(&factor, 3, &OetSnakeSorter);
}

#[test]
fn differential_star_relays() {
    // Star graphs force relay hops (no Hamiltonian path).
    differential_case(&factories::star(4), 2, &OetSnakeSorter);
    differential_case(&factories::star(5), 2, &OetSnakeSorter);
}

/// A key ordered by `key` alone, carrying a `payload` its order, its
/// `==` and its hash ignore, so two runs can agree under `==` and still
/// differ in which of two equal keys ended where.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    key: u64,
    payload: u32,
}

impl std::hash::Hash for Tagged {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}

impl PartialEq for Tagged {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Tagged {}

impl PartialOrd for Tagged {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tagged {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Each key's `(key, payload)`, which `==` on [`Tagged`] would hide.
fn tagged_fields(keys: &[Tagged]) -> Vec<(u64, u32)> {
    keys.iter().map(|k| (k.key, k.payload)).collect()
}

/// The fault layer's two executors must agree: the same `FaultPlan`
/// against the interpreter (`run_with_faults`) and the lowered kernel
/// (`run_kernel_with_faults`) fires the same fault sites, detects at
/// the same certificates, and leaves bit-identical keys — faults are
/// keyed by `(round, op)`, which lowering preserves 1:1.
///
/// The kernel runs a segment whose faults are all comparator flips from
/// its run table and swaps the flipped pairs after each round's runs,
/// and replays a segment holding a drop or a stall through transit
/// slots; so the plans are compare-only (every segment from the run
/// table) and all-kinds (both). Keys mod 4 make ties, where a flip and
/// its swap must still leave every payload where the interpreter does.
/// Compiled programs keep compare-exchanges out of route rounds;
/// `tests/relay_pairing.rs` flips one inside a hop round.
#[test]
fn differential_fault_paths() {
    let star = Machine::prepare_factor(&factories::star(4));
    let tree = Machine::prepare_factor(&factories::complete_binary_tree(3));
    let cases: [(&Graph, usize, &dyn Pg2Sorter); 7] = [
        (&factories::path(3), 3, &ShearSorter),
        (&factories::k2(), 4, &Hypercube2Sorter),
        (&factories::star(4), 2, &OetSnakeSorter),
        (&factories::complete(4), 2, &MultiwayNSorter),
        (
            &factories::complete(4),
            2,
            &PeriodicMergeSorter { extra_blocks: 0 },
        ),
        (&star, 3, SorterChoice::Auto.resolve(&star)),
        (&tree, 2, SorterChoice::Auto.resolve(&tree)),
    ];
    let policies = [
        RetryPolicy::default(),
        RetryPolicy::detect_only(),
        RetryPolicy {
            max_retries: 2,
            recheck_depth: 3,
            ..RetryPolicy::default()
        },
    ];
    let mut replays = 0usize;
    for (factor, r, sorter) in cases {
        let shape = Shape::new(factor.n(), r);
        let program = compile(factor, r, sorter);
        let bsp = BspMachine::new(factor, r);
        let mut scratch = ExecScratch::new();
        let tag = |keys: Vec<u64>| -> Vec<Tagged> {
            let payloads = 0..keys.len() as u32;
            keys.into_iter()
                .zip(payloads)
                .map(|(key, payload)| Tagged { key, payload })
                .collect()
        };
        let keys = lcg_keys(shape.len(), 0xFA17);
        let ties = tag(keys.iter().map(|k| k % 4).collect());
        let random = tag(keys);
        let ctx = format!("factor={} r={r}", factor.name());
        let kernel = bsp.lower(&program).expect("compiled programs validate");
        for (policy, seed) in policies.iter().flat_map(|p| (0..3u64).map(move |s| (p, s))) {
            let plans = [
                FaultPlan::random(seed, 5_000),
                FaultPlan::random_with_kinds(seed, 20_000, &[FaultKind::FlipCompare]),
            ];
            for (plan, input) in plans.iter().flat_map(|p| [(p, &random), (p, &ties)]) {
                let mut a = input.clone();
                let ra = bsp.run_with_faults(&mut a, &program, plan, policy);
                let mut b = input.clone();
                let rb = bsp.run_kernel_with_faults(&mut b, &kernel, plan, policy, &mut scratch);
                assert_eq!(ra, rb, "{ctx} seed={seed} {plan:?}: fault reports diverge");
                assert_eq!(
                    tagged_fields(&a),
                    tagged_fields(&b),
                    "{ctx} seed={seed} {plan:?}: faulty keys diverge"
                );
                let injected = ra.as_ref().map_or(&[][..], |report| &report.injected);
                replays += usize::from(injected.iter().any(|f| f.kind != FaultKind::FlipCompare));
            }
        }
    }
    // Not vacuous: some runs replayed dropped or stalled relays.
    assert!(replays > 0, "no run replayed a drop or a stall");
}
