//! The pruned clean network: lowering drops the compare-exchanges that
//! the 0/1 principle proves idle, one certified merge level at a time,
//! and every fault-free tier runs what is left.
//!
//! A compare-exchange swaps only keys strictly out of order for its
//! direction, so an idle one is a no-op on every key type, payloads
//! included. These tests hold every pruned tier to the oracle
//! (`BspMachine::run` on the whole program) on random, tie-heavy and
//! payload keys, sweep every 0/1 input of `K2^4` through the bit tier,
//! and check that pruning stops where the program gives it nothing to
//! stand on: no certificates, or a false one. Each pruned case asserts
//! that something was pruned, so none passes vacuously.

use product_sort::graph::{factories, Graph};
use product_sort::order::radix::Shape;
use product_sort::order::snake::node_at_snake_pos;
use product_sort::sim::{
    compile, pack_zero_one_masks, BspMachine, CompiledProgram, ExecScratch, Hypercube2Sorter,
    KernelProgram, Machine, ProgramCache, SorterChoice, VerticalPool, VerticalProgram,
};
use std::sync::Arc;

/// A key ordered by `key` alone, so equal keys can differ in which
/// payload ended where; no drop glue, so it takes the min/max step.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    key: u8,
    payload: u32,
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

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    }
}

/// Lanes per input kind: enough for the widest `sort_batch` below.
const LANES: usize = 70;

/// The lowered program `machine` runs, with the source program.
fn lowered(
    machine: &Machine,
) -> (
    Arc<CompiledProgram>,
    Arc<KernelProgram>,
    Arc<VerticalProgram>,
) {
    (
        Arc::clone(machine.program().expect("compiled machine")),
        Arc::clone(machine.kernel().expect("compiled machine")),
        Arc::clone(machine.vertical().expect("compiled machine")),
    )
}

/// Every fault-free tier on `inputs`, against `BspMachine::run` on the
/// whole program, compared through `view`: `Machine::sort`,
/// `Machine::sort_batch` at widths 1, 3, 4 and 70 (the kernel batch
/// below four lanes, the column tier from four), `run_kernel` and
/// `run_vertical_batch`.
fn check_tiers<K, V>(ctx: &str, factor: &Graph, r: usize, inputs: &[Vec<K>], view: impl Fn(&K) -> V)
where
    K: Ord + Clone + Send + Sync + std::fmt::Debug,
    V: PartialEq + std::fmt::Debug,
{
    let mut machine = Machine::compiled_with(factor, r, SorterChoice::Auto, &ProgramCache::new());
    let (program, kernel, vertical) = lowered(&machine);
    let kept = kernel.kept();
    assert!(
        kept.pairs < kernel.clean_cx_count() && kept.level >= 3,
        "{ctx}: the fixture must prune a merge level: {kept:?} of {}",
        kernel.clean_cx_count()
    );
    let bsp = BspMachine::new(factor, r);
    let views = |keys: &[K]| keys.iter().map(&view).collect::<Vec<V>>();
    let want: Vec<Vec<V>> = inputs
        .iter()
        .map(|input| {
            let mut keys = input.clone();
            bsp.run(&mut keys, &program);
            views(&keys)
        })
        .collect();

    let mut scratch = ExecScratch::new();
    for (lane, (input, want)) in inputs.iter().zip(&want).enumerate() {
        let report = machine.sort(input.clone()).expect("one key per node");
        assert_eq!(
            &views(&report.keys),
            want,
            "{ctx}: Machine::sort, lane {lane}"
        );
        let mut keys = input.clone();
        bsp.run_kernel(&mut keys, &kernel, &mut scratch);
        assert_eq!(&views(&keys), want, "{ctx}: run_kernel, lane {lane}");
    }
    for width in [1, 3, 4, LANES] {
        let got = machine.sort_batch(inputs[..width].to_vec());
        for (lane, (got, want)) in got.into_iter().zip(&want).enumerate() {
            let keys = got.expect("one key per node").keys;
            assert_eq!(
                &views(&keys),
                want,
                "{ctx}: sort_batch width {width}, lane {lane}"
            );
        }
    }
    let mut batch = inputs.to_vec();
    bsp.run_vertical_batch(&mut batch, &vertical, &mut VerticalPool::new());
    for (lane, (got, want)) in batch.iter().zip(&want).enumerate() {
        assert_eq!(&views(got), want, "{ctx}: run_vertical_batch, lane {lane}");
    }
}

/// Random, tie-heavy (keys mod 4) and payload keys, [`LANES`] of each.
fn check_every_key_kind(name: &str, factor: &Graph, r: usize) {
    let n = Shape::new(factor.n(), r).len() as usize;
    let mut next = lcg(0x9E37_79B9 ^ n as u64);
    let random: Vec<Vec<u64>> = (0..LANES)
        .map(|_| (0..n).map(|_| next()).collect())
        .collect();
    check_tiers(&format!("{name} random"), factor, r, &random, |&k| k);
    let ties: Vec<Vec<u64>> = (0..LANES)
        .map(|_| (0..n).map(|_| next() % 4).collect())
        .collect();
    check_tiers(&format!("{name} mod 4"), factor, r, &ties, |&k| k);
    let tagged: Vec<Vec<Tagged>> = (0..LANES as u32)
        .map(|lane| {
            (0..n as u32)
                .map(|node| Tagged {
                    key: (next() % 3) as u8,
                    payload: lane << 16 | node,
                })
                .collect()
        })
        .collect();
    check_tiers(&format!("{name} tagged"), factor, r, &tagged, |t| {
        (t.key, t.payload)
    });
}

#[test]
fn pruned_tiers_match_the_oracle_on_the_8_cube() {
    check_every_key_kind("K2^8", &factories::k2(), 8);
}

#[test]
fn pruned_tiers_match_the_oracle_on_a_ternary_merge_level() {
    // path(3)^4: the analysis proves its N = 3 merge level 3 in budget.
    check_every_key_kind("path(3)^4", &factories::path(3), 4);
}

#[test]
fn the_pruned_4_cube_sorts_every_zero_one_input_on_the_bit_tier() {
    let factor = factories::k2();
    let machine = Machine::compiled_with(&factor, 4, SorterChoice::Auto, &ProgramCache::new());
    let (_, kernel, vertical) = lowered(&machine);
    assert!(
        kernel.kept().pairs < kernel.clean_cx_count(),
        "K2^4 must prune"
    );
    let bsp = BspMachine::new(&factor, 4);
    let shape = bsp.shape();
    let snake: Vec<usize> = (0..shape.len())
        .map(|p| node_at_snake_pos(shape, p) as usize)
        .collect();
    // 64 masks per pass, 2^16 masks in all. AND/OR keep every lane's
    // multiset, so a lane is right iff it ends snake-sorted: no lane
    // may hold a 1 at one snake position and a 0 at the next.
    for first in (0..1u64 << 16).step_by(64) {
        let masks: Vec<u64> = (first..first + 64).collect();
        let mut words = pack_zero_one_masks(&masks, 16);
        bsp.run_vertical_bits(&mut words, &vertical);
        for pq in snake.windows(2) {
            let inverted = words[pq[0]] & !words[pq[1]];
            assert_eq!(
                inverted, 0,
                "masks {first}.. leave snake positions unsorted at {pq:?}"
            );
        }
    }
}

#[test]
fn a_program_without_certificate_points_is_not_pruned() {
    let factor = factories::k2();
    let program = compile(&factor, 6, &Hypercube2Sorter);
    let bsp = BspMachine::new(&factor, 6);
    let certified = bsp.lower(&program).expect("compiled programs validate");
    assert!(certified.kept().pairs < certified.clean_cx_count());
    let bare = CompiledProgram::from_rounds(program.shape(), program.round_ops().to_vec());
    let kernel = bsp.lower(&bare).expect("the same rounds validate");
    let kept = kernel.kept();
    assert_eq!(kept.pairs, kernel.clean_cx_count(), "nothing pruned");
    assert_eq!(kept.level, 0, "no level proved");
    assert_eq!(kernel.clean_cx_count(), certified.clean_cx_count());
}

/// `program` after a serde round trip with its certificate list
/// replaced by `certs`, `(round, dims)` each.
fn with_certs(program: &CompiledProgram, certs: &[(u64, u32)]) -> CompiledProgram {
    let json = serde_json::to_string(program).expect("serialize");
    let start = json.find("\"cert_points\":[").expect("cert list") + "\"cert_points\":[".len();
    let end = start + json[start..].find(']').expect("cert list ends");
    let list: Vec<String> = certs
        .iter()
        .map(|(round, dims)| format!("{{\"round\":{round},\"dims\":{dims}}}"))
        .collect();
    let edited = format!("{}{}{}", &json[..start], list.join(","), &json[end..]);
    serde_json::from_str(&edited).expect("deserialize")
}

#[test]
fn a_false_certificate_stops_the_pruning_at_its_level() {
    let factor = factories::k2();
    let program = compile(&factor, 6, &Hypercube2Sorter);
    let bsp = BspMachine::new(&factor, 6);
    let honest = bsp.lower(&program).expect("compiled programs validate");
    assert!(honest.kept().level >= 4, "{:?}", honest.kept());
    assert!(honest.kept().pairs < honest.clean_cx_count());

    // Move the dims-3 certificate back to the dims-2 boundary, before
    // level 3's rounds: the certificate list stays ordered and transit
    // is empty there, so validation accepts a claim that is false.
    let mut certs: Vec<(u64, u32)> = program
        .cert_points()
        .iter()
        .map(|c| (c.round, c.dims))
        .collect();
    assert_eq!((certs[0].1, certs[1].1), (2, 3));
    certs[1].0 = certs[0].0;
    let edited = with_certs(&program, &certs);
    bsp.try_validate(&edited)
        .expect("an ordered, drained cert list validates");
    let kernel = bsp.lower(&edited).expect("validates");
    let vertical = VerticalProgram::lower(Arc::new(kernel.clone()));

    // Level 2 is proved; the empty "level 3" leaves its lanes unsorted,
    // so it and every later level run whole. The 3-step sorter's base
    // level has no idle pair, so nothing is pruned at all.
    let kept = kernel.kept();
    assert_eq!(kept.level, 2, "pruned only below the false certificate");
    assert_eq!(kept.pairs, kernel.clean_cx_count());

    let mut next = lcg(0xFA15E);
    let n = bsp.shape().len() as usize;
    let inputs: Vec<Vec<u64>> = (0..16)
        .map(|i| (0..n).map(|_| next() % (2 + i)).collect())
        .collect();
    let mut batch = inputs.clone();
    bsp.run_vertical_batch(&mut batch, &vertical, &mut VerticalPool::new());
    for (input, columns) in inputs.iter().zip(&batch) {
        let mut want = input.clone();
        bsp.run(&mut want, &edited);
        let mut got = input.clone();
        bsp.run_kernel(&mut got, &kernel, &mut ExecScratch::new());
        assert_eq!(got, want, "run_kernel");
        assert_eq!(columns, &want, "run_vertical_batch");
    }
}
