//! Certificate points are validated: a deserialized program whose cert
//! list is out of order, runs past the program's end, names a
//! dimensionality outside `1..=r`, or sits at a boundary with values in
//! transit gets a typed `BadCertPoint` from `try_validate`, `lower` and
//! `run_with_faults`, and no executor segments it. The oracle `run`
//! panics with the same diagnostic.

use product_sort::graph::{factories, Graph};
use product_sort::sim::{
    compile, BspMachine, CompiledProgram, FaultError, FaultPlan, Machine, OetSnakeSorter, Op,
    ProgramError, RetryPolicy,
};

/// `program` after a serde round trip with its cert list replaced.
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

/// Every entry point that validates reports `want` for `bad`, and `run`
/// panics with its message.
fn assert_rejected(machine: &BspMachine, bad: &CompiledProgram, want: &ProgramError, ctx: &str) {
    assert_eq!(
        machine.try_validate(bad).err().as_ref(),
        Some(want),
        "{ctx}: try_validate"
    );
    assert_eq!(
        machine.lower(bad).err().as_ref(),
        Some(want),
        "{ctx}: lower"
    );
    assert_eq!(
        machine.lower_vertical(bad).err().as_ref(),
        Some(want),
        "{ctx}: lower_vertical"
    );
    let mut keys: Vec<u64> = (0..machine.shape().len()).rev().collect();
    let got = machine.run_with_faults(
        &mut keys,
        bad,
        &FaultPlan::random(7, 50_000),
        &RetryPolicy::default(),
    );
    assert_eq!(
        got.err(),
        Some(FaultError::Invalid(want.clone())),
        "{ctx}: run_with_faults"
    );
    let run = std::panic::AssertUnwindSafe(|| machine.run(&mut keys, bad));
    let payload = std::panic::catch_unwind(run).expect_err("run must refuse the program");
    assert_eq!(
        payload.downcast_ref::<String>(),
        Some(&want.to_string()),
        "{ctx}: run"
    );
}

fn certs_of(program: &CompiledProgram) -> Vec<(u64, u32)> {
    program
        .cert_points()
        .iter()
        .map(|c| (c.round, c.dims))
        .collect()
}

#[test]
fn out_of_order_out_of_range_and_bad_dims_cert_points_are_typed_errors() {
    // path(3)^3 under the odd-even snake: 38 rounds.
    let factor = factories::path(3);
    let program = compile(&factor, 3, &OetSnakeSorter);
    let machine = BspMachine::new(&factor, 3);
    let rounds = program.rounds() as u64;
    let certs = certs_of(&program);
    assert!(certs.len() >= 2, "compile records one point per stage");

    // The untouched round trip validates and runs with faults.
    let same = with_certs(&program, &certs);
    assert!(machine.try_validate(&same).is_ok());
    let mut keys: Vec<u64> = (0..machine.shape().len()).rev().collect();
    let report = machine
        .run_with_faults(
            &mut keys,
            &same,
            &FaultPlan::disabled(),
            &RetryPolicy::default(),
        )
        .expect("a valid program runs");
    assert_eq!(report.rounds, rounds);

    let bad =
        |index: usize, (round, dims): (u64, u32)| ProgramError::BadCertPoint { index, round, dims };
    let last = certs.len();
    let past_end = [certs.clone(), vec![(rounds + 5, 2)]].concat();
    assert_rejected(
        &machine,
        &with_certs(&program, &past_end),
        &bad(last, (rounds + 5, 2)),
        "past the end",
    );

    let mut decreasing = certs.clone();
    decreasing.swap(0, 1);
    assert_rejected(
        &machine,
        &with_certs(&program, &decreasing),
        &bad(1, decreasing[1]),
        "decreasing",
    );

    for dims in [0, 4] {
        let mut wrong = certs.clone();
        wrong[0].1 = dims;
        assert_rejected(
            &machine,
            &with_certs(&program, &wrong),
            &bad(0, wrong[0]),
            "dims out of range",
        );
    }
}

#[test]
fn a_cert_point_with_values_in_transit_is_a_typed_error() {
    // A relabeled tree factor relays keys, so some boundaries fall
    // while a relay's copies are in flight.
    let factor: Graph = Machine::prepare_factor(&factories::complete_binary_tree(3));
    let program = compile(&factor, 2, &OetSnakeSorter);
    let machine = BspMachine::new(&factor, 2);
    // The round after the first move ends with its payload in a slot.
    let boundary = program
        .round_ops()
        .iter()
        .position(|round| round.iter().any(|op| matches!(op, Op::Move { .. })))
        .expect("the fixture relays") as u64
        + 1;
    let mut certs = certs_of(&program);
    let index = certs.partition_point(|&(round, _)| round <= boundary);
    certs.insert(index, (boundary, 1));
    let want = ProgramError::BadCertPoint {
        index,
        round: boundary,
        dims: 1,
    };
    assert_rejected(&machine, &with_certs(&program, &certs), &want, "in transit");
    // The same point one boundary earlier, before any move, is fine.
    certs[index].0 = boundary - 1;
    certs.sort_unstable();
    let fine = with_certs(&program, &certs);
    assert!(
        machine.try_validate(&fine).is_ok(),
        "no value is in flight before the first move"
    );
}
