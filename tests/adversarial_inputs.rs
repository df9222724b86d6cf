//! Adversarial inputs on the programs `SorterChoice::Auto` compiles for
//! the relaying shapes users sort on: the relabeled mesh-connected tree
//! `complete_binary_tree(3)^3`, the relabeled Petersen square and
//! `star(4)^3`, all three of which run the multiway n-sorter. Every
//! input (all-equal, snake-presorted, reverse-snake, two-valued, and a
//! 0/1 input sorted but for one reversed window of Lemma 1's length
//! `N²`) goes through `Machine::sort`, through `Machine::sort_batch` at
//! widths 1, 3, 4 and 16 (the kernel batch below four lanes, the column
//! tier from four), and through a one-worker `SortService`, one request
//! at a time and coalesced. Every output must read, in snake order,
//! what the sequential LSB radix sort gives.

use product_sort::baselines::radix_sort_u64;
use product_sort::graph::{factories, Graph};
use product_sort::order::radix::Shape;
use product_sort::order::snake::node_at_snake_pos;
use product_sort::service::{ServiceConfig, SortService};
use product_sort::sim::netsort::read_snake_order;
use product_sort::sim::{Machine, SorterChoice};

/// Batch widths: a lone lane, the kernel batch, and the column tier.
const WIDTHS: [usize; 4] = [1, 3, 4, 16];

/// Keys placed so that reading them in snake order gives `seq`.
fn in_snake_order(shape: Shape, seq: &[u64]) -> Vec<u64> {
    let mut keys = vec![0; seq.len()];
    for (pos, &key) in seq.iter().enumerate() {
        keys[node_at_snake_pos(shape, pos as u64) as usize] = key;
    }
    keys
}

fn adversarial_inputs(shape: Shape) -> Vec<(&'static str, Vec<u64>)> {
    let len = shape.len();
    let ascending: Vec<u64> = (0..len).collect();
    let descending: Vec<u64> = (0..len).rev().collect();
    let mut state = len | 1;
    let two_valued: Vec<u64> = (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if state >> 63 == 0 {
                17
            } else {
                u64::MAX
            }
        })
        .collect();
    // Zeros, then a window of N² keys holding its ones before its
    // zeros, then ones.
    let window = (shape.n() * shape.n()) as u64;
    let start = (len - window) / 2;
    let dirty: Vec<u64> = (0..len)
        .map(|pos| match pos {
            p if p < start => 0,
            p if p < start + window => u64::from(p < start + window / 2),
            _ => 1,
        })
        .collect();
    vec![
        ("all-equal", vec![42; len as usize]),
        ("snake-presorted", in_snake_order(shape, &ascending)),
        ("reverse-snake", in_snake_order(shape, &descending)),
        ("two-valued", two_valued),
        ("dirty-window", in_snake_order(shape, &dirty)),
    ]
}

fn radix_sorted(keys: &[u64]) -> Vec<u64> {
    let mut sorted = keys.to_vec();
    radix_sort_u64(&mut sorted);
    sorted
}

fn check_shape(raw: &Graph, r: usize) {
    let factor = Machine::prepare_factor(raw);
    let shape = Shape::new(factor.n(), r);
    let ctx = format!("{}^{r}", factor.name());
    let builder = SortService::builder(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .register_shape(&factor, r)
    .expect("a connected factor registers");
    // The machine shares the service's compiled program.
    let mut machine =
        Machine::compiled_with(&factor, r, SorterChoice::Auto, builder.program_cache());
    let service = builder.start();
    assert_eq!(service.shape_sorter(0), Some("multiway-nsorter"), "{ctx}");

    let inputs = adversarial_inputs(shape);
    for (name, input) in &inputs {
        let report = machine.sort(input.clone()).expect("one key per node");
        assert_eq!(
            report.into_sorted_vec(),
            radix_sorted(input),
            "{ctx} {name}: Machine::sort"
        );
    }

    for width in WIDTHS {
        // Lanes cycle through the inputs, so every input runs at every
        // width.
        let lanes = inputs.len().div_ceil(width) * width;
        let batch: Vec<Vec<u64>> = inputs
            .iter()
            .cycle()
            .take(lanes)
            .map(|(_, keys)| keys.clone())
            .collect();
        for chunk in batch.chunks(width) {
            let results = machine.sort_batch(chunk.to_vec());
            assert_eq!(results.len(), width, "{ctx}: one result per lane");
            for (lane, (result, keys)) in results.into_iter().zip(chunk).enumerate() {
                let report = result.expect("one key per node");
                assert_eq!(
                    report.into_sorted_vec(),
                    radix_sorted(keys),
                    "{ctx}: sort_batch width {width} lane {lane}"
                );
            }
        }
    }

    for (name, input) in &inputs {
        let reply = service
            .submit(0, 0, input.clone())
            .expect("admitted")
            .wait()
            .expect("sorted");
        assert_eq!(
            read_snake_order(shape, &reply.keys),
            radix_sorted(input),
            "{ctx} {name}: one service request"
        );
    }
    let tickets: Vec<_> = inputs
        .iter()
        .map(|(_, keys)| service.submit(0, 0, keys.clone()).expect("admitted"))
        .collect();
    for ((name, input), ticket) in inputs.iter().zip(tickets) {
        let reply = ticket.wait().expect("sorted");
        assert_eq!(
            read_snake_order(shape, &reply.keys),
            radix_sorted(input),
            "{ctx} {name}: coalesced service request"
        );
    }
}

#[test]
fn adversarial_inputs_sort_on_the_mesh_connected_tree() {
    check_shape(&factories::complete_binary_tree(3), 3);
}

#[test]
fn adversarial_inputs_sort_on_the_petersen_square() {
    check_shape(&factories::petersen(), 2);
}

#[test]
fn adversarial_inputs_sort_on_the_star_cube() {
    check_shape(&factories::star(4), 3);
}
