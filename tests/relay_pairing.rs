//! Relays on the fast tiers: lowering pairs the two resolves that end a
//! relay into the one compare-exchange they compute on fault-free data,
//! and the clean kernel, column and bit-sliced tiers run that
//! compare-exchange instead of the hops.
//!
//! The hand-built programs here run on `path(3)^2`, where factor nodes
//! 0 and 2 (ranks 0 and 2) are two hops apart through rank 1. Relays
//! that do not pair stay valid programs the serial machine runs, but
//! lowering refuses them with a typed error. The payload test pins the
//! pairing's orientation: on equal keys a paired relay keeps both
//! residents, exactly as the hop-by-hop oracle does.

use product_sort::graph::factories;
use product_sort::sim::bsp::{compile, BspMachine, CompiledProgram, Op, ProgramError};
use product_sort::sim::{
    ExecScratch, FaultPlan, KernelProgram, Machine, ProgramCache, RetryPolicy, ScratchPool,
    SorterChoice, VerticalPool,
};

fn mv(from: u64, to: u64, slot: u8, from_key: bool) -> Op {
    Op::Move {
        from,
        to,
        slot,
        from_key,
    }
}

fn resolve(node: u64, slot: u8, keep_min: bool) -> Op {
    Op::Resolve {
        node,
        slot,
        keep_min,
    }
}

fn cx(a: u64, b: u64) -> Op {
    Op::CompareExchange {
        a,
        b,
        min_to_a: true,
    }
}

/// The two hops that bring rank 0's key to rank 2 (slot 0) and rank 2's
/// key to rank 0 (slot 1), through rank 1.
fn hops() -> [Vec<Op>; 2] {
    [
        vec![mv(0, 1, 0, true), mv(2, 1, 1, true)],
        vec![mv(1, 2, 0, false), mv(1, 0, 1, false)],
    ]
}

fn path3_squared() -> BspMachine {
    BspMachine::new(&factories::path(3), 2)
}

fn inputs() -> Vec<Vec<u64>> {
    vec![
        (0..9).collect(),
        (0..9).rev().collect(),
        vec![4, 1, 4, 1, 5, 9, 2, 6, 5],
        vec![7; 9],
    ]
}

/// A relay that does not pair: still a valid program the serial machine
/// and the interpreter fault path run, refused by lowering with the
/// round and node of the first unpaired resolve.
fn assert_unpaired(name: &str, rounds: Vec<Vec<Op>>, round: usize, node: u64) {
    let machine = path3_squared();
    let program = CompiledProgram::from_rounds(machine.shape(), rounds);
    machine
        .try_validate(&program)
        .unwrap_or_else(|e| panic!("{name}: the program must stay valid: {e}"));
    for input in inputs() {
        let mut keys = input.clone();
        machine.run(&mut keys, &program);
        let mut faulted = input.clone();
        machine
            .run_with_faults(
                &mut faulted,
                &program,
                &FaultPlan::disabled(),
                &RetryPolicy::default(),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(faulted, keys, "{name}: interpreter fault path");
    }
    let want = ProgramError::UnpairedRelay { round, node };
    assert_eq!(machine.lower(&program).err(), Some(want.clone()), "{name}");
    assert_eq!(
        machine.lower_vertical(&program).err(),
        Some(want),
        "{name}: vertical lowering"
    );
    let lowered = std::panic::catch_unwind(|| KernelProgram::lower(&program));
    assert!(lowered.is_err(), "{name}: KernelProgram::lower must panic");
}

#[test]
fn a_paired_relay_lowers_to_one_compare_exchange() {
    // A write to an endpoint before its copy leaves, and one to another
    // key while the copies are in flight, leave the relay paired.
    let machine = path3_squared();
    let [h0, mut h1] = hops();
    h1.push(cx(4, 7));
    let rounds = vec![
        vec![cx(2, 5)],
        h0,
        h1,
        vec![resolve(2, 0, false), resolve(0, 1, true)],
    ];
    let program = CompiledProgram::from_rounds(machine.shape(), rounds);
    let kernel = machine.lower(&program).expect("the relay pairs");
    assert_eq!(kernel.cx_pair_count(), 1, "the compare round's pair");
    assert_eq!(kernel.micro_op_count(), 7, "every route op stays");
    assert_eq!(
        kernel.clean_cx_count(),
        3,
        "the compare round, the in-flight compare, and the paired relay"
    );
    let mut scratch = ExecScratch::new();
    for input in inputs() {
        let mut want = input.clone();
        machine.run(&mut want, &program);
        let mut got = input.clone();
        machine.run_kernel(&mut got, &kernel, &mut scratch);
        assert_eq!(got, want, "input {input:?}");
    }
}

#[test]
fn a_one_sided_relay_does_not_pair() {
    // Rank 2's key reaches rank 0, which keeps the minimum; rank 2 never
    // learns rank 0's key.
    assert_unpaired(
        "one-sided",
        vec![
            vec![mv(2, 1, 1, true)],
            vec![mv(1, 0, 1, false)],
            vec![resolve(0, 1, true)],
        ],
        2,
        0,
    );
}

#[test]
fn a_copy_written_in_flight_does_not_pair() {
    // A compare-exchange writes rank 2's key while its copy travels to
    // rank 0. Rank 2's own copy (of rank 0) is current, so the first
    // resolve in op order, rank 2's, fails on its partner's stale copy.
    let [h0, mut h1] = hops();
    h1.push(cx(2, 5));
    assert_unpaired(
        "stale copy",
        vec![h0, h1, vec![resolve(2, 0, false), resolve(0, 1, true)]],
        2,
        2,
    );
}

#[test]
fn a_relay_whose_ends_both_keep_the_minimum_does_not_pair() {
    let [h0, h1] = hops();
    assert_unpaired(
        "both keep the minimum",
        vec![h0, h1, vec![resolve(0, 1, true), resolve(2, 0, true)]],
        2,
        0,
    );
}

#[test]
fn partner_resolves_in_different_rounds_do_not_pair() {
    let [h0, h1] = hops();
    assert_unpaired(
        "split resolves",
        vec![
            h0,
            h1,
            vec![resolve(0, 1, true)],
            vec![resolve(2, 0, false)],
        ],
        2,
        0,
    );
}

/// A key ordered by its `key` byte alone, carrying a payload its `==`
/// ignores, so two runs that agree under `==` can still differ in which
/// equal key ended where.
trait TieKey: Ord + Clone + Send + Sync + std::fmt::Debug {
    fn new(key: u8, payload: u32) -> Self;
    fn fields(&self) -> (u8, u32);
}

/// Implements the key-only order for a `key: u8` field.
macro_rules! key_only_order {
    ($t:ty) => {
        impl PartialEq for $t {
            fn eq(&self, other: &Self) -> bool {
                self.key == other.key
            }
        }

        impl Eq for $t {}

        impl PartialOrd for $t {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $t {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.key.cmp(&other.key)
            }
        }
    };
}

/// No drop glue: the clean tiers' branch-free min/max step.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    key: u8,
    payload: u32,
}

key_only_order!(Tagged);

impl TieKey for Tagged {
    fn new(key: u8, payload: u32) -> Self {
        Tagged { key, payload }
    }

    fn fields(&self) -> (u8, u32) {
        (self.key, self.payload)
    }
}

/// A `String` payload, so drop glue: the clean tiers' compare-and-swap
/// step.
#[derive(Debug, Clone)]
struct Named {
    key: u8,
    payload: String,
}

key_only_order!(Named);

impl TieKey for Named {
    fn new(key: u8, payload: u32) -> Self {
        Named {
            key,
            payload: payload.to_string(),
        }
    }

    fn fields(&self) -> (u8, u32) {
        (self.key, self.payload.parse().expect("a numeric payload"))
    }
}

fn fields<K: TieKey>(keys: &[K]) -> Vec<(u8, u32)> {
    keys.iter().map(K::fields).collect()
}

/// Lanes of few distinct keys, so equal keys meet at every relay, with
/// a distinct payload per lane and node.
fn tagged_lanes<K: TieKey>(len: usize, lanes: usize) -> Vec<Vec<K>> {
    let mut state = 0x7A6_u64;
    (0..lanes)
        .map(|lane| {
            (0..len)
                .map(|node| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    K::new((state >> 60) as u8 % 3, (lane * len + node) as u32)
                })
                .collect()
        })
        .collect()
}

/// Every clean tier leaves each payload exactly where the oracle does.
fn assert_ties_keep_their_payloads<K: TieKey>() {
    let star = factories::star(4);
    let tree = Machine::prepare_factor(&factories::complete_binary_tree(3));
    for factor in [star, tree] {
        let sorter = SorterChoice::Auto.resolve(&factor);
        let machine = BspMachine::new(&factor, 2);
        let program = compile(&factor, 2, sorter);
        let optimized = program.optimized();
        let len = machine.shape().len() as usize;
        let lanes: Vec<Vec<K>> = tagged_lanes(len, 130);
        let cache = ProgramCache::new();
        for (name, prog) in [("program", &program), ("optimized", &optimized)] {
            let ctx = format!("factor={} {name}", factor.name());
            // The oracle runs the same program: the optimizer may drop a
            // compare-exchange that would swap two equal keys back.
            let want: Vec<Vec<(u8, u32)>> = lanes
                .iter()
                .map(|lane| {
                    let mut keys = lane.clone();
                    machine.run(&mut keys, prog);
                    fields(&keys)
                })
                .collect();
            let kernel = machine.lower(prog).expect("compiled programs lower");
            assert!(kernel.route_rounds() > 0, "{ctx}: the fixture must relay");
            let vertical = machine
                .lower_vertical(prog)
                .expect("compiled programs lower");

            let mut scratch = ExecScratch::new();
            for (lane, want) in lanes.iter().zip(&want) {
                let mut keys = lane.clone();
                machine.run_kernel(&mut keys, &kernel, &mut scratch);
                assert_eq!(&fields(&keys), want, "{ctx}: run_kernel");
            }

            let mut batch = lanes.clone();
            machine.run_kernel_batch(&mut batch, &kernel, &mut ScratchPool::new());
            let got: Vec<_> = batch.iter().map(|keys| fields(keys)).collect();
            assert_eq!(got, want, "{ctx}: run_kernel_batch");

            let mut batch = lanes.clone();
            machine.run_vertical_batch(&mut batch, &vertical, &mut VerticalPool::new());
            let got: Vec<_> = batch.iter().map(|keys| fields(keys)).collect();
            assert_eq!(got, want, "{ctx}: run_vertical_batch");

            // `Machine` runs the raw program.
            if name != "program" {
                continue;
            }
            let mut compiled = Machine::compiled(&factor, 2, sorter, &cache);
            for (lane, want) in lanes.iter().zip(&want).take(8) {
                let report = compiled.sort(lane.clone()).expect("one key per node");
                assert_eq!(&fields(&report.keys), want, "{ctx}: Machine::sort");
            }
            // 1 and 3 lanes: the kernel batch; from 4 lanes on, the
            // column tier (70 = 35 + 35 and 130 = 44 + 43 + 43 lanes).
            for width in [1, 3, 4, 5, 8, 70, 130] {
                let reports = compiled.sort_batch(lanes[..width].to_vec());
                for (report, want) in reports.into_iter().zip(&want) {
                    let keys = report.expect("one key per node").keys;
                    assert_eq!(
                        &fields(&keys),
                        want,
                        "{ctx}: Machine::sort_batch of {width}"
                    );
                }
            }
        }
    }
}

#[test]
fn ties_keep_their_payloads_on_every_clean_tier() {
    assert_ties_keep_their_payloads::<Tagged>();
}

#[test]
fn ties_keep_their_payloads_for_keys_with_drop_glue() {
    assert_ties_keep_their_payloads::<Named>();
}
