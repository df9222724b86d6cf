//! `pns-bench`: the experiment harness's one entry point. The first
//! argument picks the work (`pns-bench` alone prints the usage and every
//! id, and exits 2, as do an unknown word and a malformed flag):
//!
//! * `<id>` runs one experiment of [`pns_bench::all_experiments`] and
//!   exits 1 if a row mismatches. An artifact experiment
//!   ([`pns_bench::all_artifacts`]) runs at artifact scale instead, writes
//!   its `BENCH_*.json` file, and also exits 1 on a missed release bar.
//! * `all [--json PATH]` prints every report (the source of
//!   EXPERIMENTS.md), optionally archiving them as a JSON array.
//! * `compare [--threshold T] <baseline-dir> <current-dir>` is the
//!   perf-regression sentinel ([`pns_bench::compare`]): every baseline
//!   `*.json` needs a same-named current artifact, and it exits 0 clean,
//!   1 on a regression, 2 on an I/O error. `compare --self-check` runs
//!   the embedded fixtures instead (exit 1 if the sentinel misfires).
//! * `loadtest [--smoke] [--scale N]` drives the E22 scenario matrix at
//!   request-count scale (2,000,000 steady-row requests, 20,000 with
//!   `--smoke`), requires every request accounted and sorted, and writes
//!   one JSON line per scenario to `loadtest.jsonl`.
//!
//! The process counts allocations per thread
//! ([`pns_bench::counting_alloc`]), which E19's and E20's audits read.

use pns_bench::compare::{compare_json, self_check, DEFAULT_THRESHOLD};
use pns_bench::counting_alloc::CountingAlloc;
use pns_bench::experiments::e22_service::{drive, scenarios, OBS_TAX_BUDGET_PCT};
use pns_bench::{all_experiments, artifact, Report};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What the arguments ask for.
enum Command {
    Experiment(&'static str, fn() -> Report),
    All(Option<String>),
    SelfCheck,
    Compare(f64, String, String),
    Loadtest(u64),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match parse(&args) {
        Ok(Command::Experiment(id, run)) => experiment(id, run),
        Ok(Command::All(json)) => all(json.as_deref()),
        Ok(Command::SelfCheck) => {
            let failures = self_check();
            for f in &failures {
                eprintln!("compare self-check FAILED: {f}");
            }
            if failures.is_empty() {
                println!("compare self-check: ok");
            }
            failures.is_empty()
        }
        Ok(Command::Compare(threshold, baseline, current)) => {
            match compare(threshold, &baseline, &current) {
                Ok(clean) => clean,
                Err(problem) => {
                    eprintln!("{problem}");
                    return ExitCode::from(2);
                }
            }
        }
        Ok(Command::Loadtest(scale)) => loadtest(scale),
        Err(problem) => {
            eprintln!("{problem}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse(args: &[String]) -> Result<Command, String> {
    let Some((word, rest)) = args.split_first() else {
        return Err("no command given".to_owned());
    };
    let mut rest = rest.iter().map(String::as_str);
    let mut words = Vec::new();
    let command = match word.as_str() {
        "all" => {
            let mut json = None;
            while let Some(arg) = rest.next() {
                match arg {
                    "--json" => json = Some(value(arg, rest.next())?),
                    other => words.push(other),
                }
            }
            Command::All(json)
        }
        "compare" => {
            let mut threshold = DEFAULT_THRESHOLD;
            while let Some(arg) = rest.next() {
                match arg {
                    "--self-check" => return Ok(Command::SelfCheck),
                    "--threshold" => threshold = value(arg, rest.next())?,
                    dir => words.push(dir),
                }
            }
            let [baseline, current] = words[..] else {
                return Err("compare needs a baseline and a current directory".to_owned());
            };
            return Ok(Command::Compare(threshold, baseline.into(), current.into()));
        }
        "loadtest" => {
            let mut scale = 2_000_000;
            let mut explicit = None;
            while let Some(arg) = rest.next() {
                match arg {
                    "--smoke" => scale = 20_000,
                    "--scale" => explicit = Some(value(arg, rest.next())?),
                    other => words.push(other),
                }
            }
            Command::Loadtest(explicit.unwrap_or(scale))
        }
        word => {
            let (id, run) = all_experiments()
                .into_iter()
                .find(|(id, _)| *id == word)
                .ok_or(format!("unknown command `{word}`"))?;
            words.extend(rest);
            Command::Experiment(id, run)
        }
    };
    match words.first() {
        Some(extra) => Err(format!("{word}: unknown argument `{extra}`")),
        None => Ok(command),
    }
}

/// `next`, the word after `flag`, parsed.
fn value<T: std::str::FromStr>(flag: &str, next: Option<&str>) -> Result<T, String> {
    next.and_then(|word| word.parse().ok())
        .ok_or(format!("{flag} needs a value of the right kind"))
}

fn usage() -> String {
    let mut text = format!(
        "usage: pns-bench <id>\n       pns-bench all [--json PATH]\n       \
         pns-bench compare [--threshold {DEFAULT_THRESHOLD}] <baseline-dir> <current-dir>\n       \
         pns-bench compare --self-check\n       pns-bench loadtest [--smoke] [--scale N]\n\nids:\n"
    );
    for (id, _) in all_experiments() {
        let writes = artifact(id).map_or(String::new(), |(_, file, _)| format!(" (writes {file})"));
        text += &format!("  {id}{writes}\n");
    }
    text
}

/// Run one experiment, or its artifact run if it has one.
fn experiment(id: &str, run: fn() -> Report) -> bool {
    let (report, missed_bars) = match artifact(id) {
        Some((_, file, measure)) => {
            let measured = measure();
            std::fs::write(file, &measured.rows_json)
                .unwrap_or_else(|e| panic!("write {file}: {e}"));
            eprintln!("wrote {file}");
            (measured.report, measured.missed_bars)
        }
        None => (run(), Vec::new()),
    };
    for bar in &missed_bars {
        eprintln!("release bar missed: {bar}");
    }
    show(id, &report) && missed_bars.is_empty()
}

/// Print `report`; `true` if every row matched.
fn show(id: &str, report: &Report) -> bool {
    println!("{}", report.to_markdown());
    if !report.all_match {
        eprintln!("MISMATCH in {id}");
    }
    report.all_match
}

fn all(json: Option<&str>) -> bool {
    let mut matched = true;
    let mut reports = Vec::new();
    for (id, run) in all_experiments() {
        let report = run();
        matched &= show(id, &report);
        reports.push(report);
    }
    if let Some(path) = json {
        let json = serde_json::to_string_pretty(&reports).expect("reports serialize");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    matched
}

/// Diff every baseline artifact against its current counterpart;
/// `Ok(false)` on a regression, `Err` on an I/O error.
fn compare(threshold: f64, baseline_dir: &str, current_dir: &str) -> Result<bool, String> {
    let entries = std::fs::read_dir(baseline_dir)
        .map_err(|e| format!("cannot read baseline dir {baseline_dir}: {e}"))?;
    let mut baselines: Vec<String> = entries
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    baselines.sort();
    if baselines.is_empty() {
        return Err(format!("no *.json baselines in {baseline_dir}"));
    }
    let mut regressed = false;
    for name in &baselines {
        let base_path = Path::new(baseline_dir).join(name);
        let base = std::fs::read_to_string(&base_path)
            .map_err(|e| format!("cannot read {}: {e}", base_path.display()))?;
        let cur_path = Path::new(current_dir).join(name);
        let compared = std::fs::read_to_string(&cur_path)
            .map_err(|e| format!("current artifact missing ({}: {e})", cur_path.display()))
            .and_then(|cur| compare_json(&base, &cur, threshold));
        let c = match compared {
            Ok(c) => c,
            Err(e) => {
                eprintln!("REGRESSION {name}: {e}");
                regressed = true;
                continue;
            }
        };
        println!(
            "{name}: {} metrics compared, {} regressions, {} improvements",
            c.compared,
            c.regressions.len(),
            c.improvements.len()
        );
        for r in &c.regressions {
            eprintln!("  REGRESSION {r}");
        }
        for i in &c.improvements {
            println!("  improved {i}");
        }
        for u in &c.unmatched {
            println!("  note: {u}");
        }
        regressed |= !c.is_clean();
    }
    let percent = threshold * 100.0;
    if regressed {
        eprintln!("compare: regressions past {percent:.0}%");
    } else {
        println!("compare: clean at {percent:.0}%");
    }
    Ok(!regressed)
}

#[allow(clippy::cast_precision_loss)]
fn loadtest(scale: u64) -> bool {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for scenario in scenarios(scale) {
        let o = drive(&scenario);
        let (p50, p99) = (o.latency.quantile_ns(0.5), o.latency.quantile_ns(0.99));
        println!(
            "{:>16}: {} submitted | {} sorted ({} degraded) | {} timeout | {} rejected | \
             {} failed | p50 {:.3}ms p99 {:.3}ms | {:.1} kreq/s | accounted: {}",
            scenario.name,
            o.submitted,
            o.completed,
            o.degraded,
            o.timeouts,
            o.rejected,
            o.failed,
            p50 as f64 / 1e6,
            p99 as f64 / 1e6,
            o.throughput_per_sec() / 1e3,
            o.fully_accounted(),
        );
        let broken = [
            (!o.fully_accounted(), "requests unaccounted".to_owned()),
            (o.failed > 0, format!("{} terminal failures", o.failed)),
            (o.unsorted > 0, format!("{} unsorted responses", o.unsorted)),
            (
                scenario.name == "burst_overload" && o.rejected == 0,
                "no typed sheds observed".to_owned(),
            ),
        ];
        for (_, what) in broken.into_iter().filter(|(bad, _)| *bad) {
            failures.push(format!("{}: {what}", scenario.name));
        }
        lines.push(format!(
            r#"{{"scenario":"{}","submitted":{},"completed":{},"degraded":{},"timeouts":{},"rejected":{},"failed":{},"unsorted":{},"p50_ns":{p50},"p99_ns":{p99},"wall_ns":{},"throughput_per_sec":{:.1}}}"#,
            scenario.name,
            o.submitted,
            o.completed,
            o.degraded,
            o.timeouts,
            o.rejected,
            o.failed,
            o.unsorted,
            o.wall_ns,
            o.throughput_per_sec(),
        ));
    }
    std::fs::write("loadtest.jsonl", lines.join("\n") + "\n").expect("write loadtest.jsonl");
    eprintln!(
        "wrote loadtest.jsonl ({} scenarios, obs budget {OBS_TAX_BUDGET_PCT}%)",
        lines.len()
    );
    for f in &failures {
        eprintln!("loadtest invariant violated: {f}");
    }
    failures.is_empty()
}

#[cfg(test)]
mod tests {
    use super::{parse, Command};
    use pns_bench::{all_artifacts, all_experiments};

    fn parses(words: &[&str]) -> Result<Command, String> {
        parse(&words.iter().map(|w| (*w).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn every_id_and_subcommand_parses() {
        for (id, _) in all_experiments() {
            assert!(matches!(parses(&[id]), Ok(Command::Experiment(got, _)) if got == id));
        }
        for words in [
            &["all"][..],
            &["all", "--json", "out.json"],
            &["compare", "--self-check"],
            &["compare", "--threshold", "0.2", "base", "cur"],
            &["loadtest", "--smoke"],
            &["loadtest", "--scale", "100"],
        ] {
            assert!(parses(words).is_ok(), "{words:?}");
        }
    }

    #[test]
    fn unknown_words_and_no_words_are_usage_errors() {
        for words in [
            &[][..],
            &["e99_nothing"],
            &["e04_worked_example", "--json", "x"],
            &["all", "--json"],
            &["compare", "base"],
            &["compare", "--threshold", "fast", "base", "cur"],
            &["loadtest", "--scale", "many"],
        ] {
            assert!(parses(words).is_err(), "{words:?}");
        }
    }

    #[test]
    fn every_artifact_names_an_experiment() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        for (id, ..) in all_artifacts() {
            assert!(ids.contains(&id), "{id}");
        }
    }
}
