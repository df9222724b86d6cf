//! The benchmark's own test: every workload in smoke mode, untraced and
//! traced, must finish correct with no failed operation and print
//! exactly the metrics that BENCHMARK.json declares.

use pns_perfbench::{run, workload::WORKLOADS, RunConfig};

#[derive(serde::Deserialize)]
struct Spec {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(serde::Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

fn spec() -> Spec {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn every_workload_smokes_clean_in_both_modes() {
    let spec = spec();
    for traced in [false, true] {
        let want = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        for w in &WORKLOADS {
            let cfg = RunConfig {
                workload: w,
                seed: 7,
                seconds: 1.0,
                traced,
                smoke: true,
                commit: "test".into(),
            };
            let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let failed: Vec<&String> = out
                .lines
                .iter()
                .filter(|l| l.starts_with("FAILED"))
                .collect();
            assert!(out.correct && out.failed == 0, "{}: {failed:?}", w.name);
            assert!(failed.is_empty(), "{}: {failed:?}", w.name);
            // Only the every-kind fault probe's lanes stay out of the
            // accounting, and only a traced run makes that probe.
            let uncounted: Vec<&String> = out
                .lines
                .iter()
                .filter(|l| l.starts_with("UNCOUNTED"))
                .collect();
            assert!(
                uncounted
                    .iter()
                    .all(|l| traced && l.contains(" phase fault_probe_all_kinds ")),
                "{}: {uncounted:?}",
                w.name
            );
            assert!(out.attempted > 0);
            let got: Vec<(&str, &str)> = out
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            let declared: Vec<(&str, &str)> = want
                .iter()
                .map(|d| (d.name.as_str(), d.unit.as_str()))
                .collect();
            assert_eq!(got, declared, "{} traced={traced}", w.name);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            assert!(out
                .json()
                .starts_with(&format!("{{\"correct\": {}", out.correct)));
        }
    }
}
