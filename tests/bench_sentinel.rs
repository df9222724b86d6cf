//! The perf-regression sentinel's embedded fixtures (what
//! `bench_compare --self-check` runs): it must flag a synthetic 20%
//! regression in both metric directions, stay quiet on identical
//! artifacts, and reject malformed input, or the nightly gate could
//! rot without anyone seeing it.

#[test]
fn self_check_fixture_is_healthy() {
    let failures = pns_bench::compare::self_check();
    assert!(failures.is_empty(), "{failures:?}");
}
