//! Command line shared by both binaries:
//! `--workload <name> --seed <n> --seconds <s> [--smoke] [--commit <id>]`.
//! The binary is the mode: `perfbench` untraced, `perfbench-traced` traced.

use crate::{run, workload, RunConfig};

fn parse(args: &[String], traced: bool) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut smoke = false;
    let mut commit = String::from("unknown");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--commit" => commit.clone_from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        smoke,
        commit,
    })
}

/// Parse the process arguments, run, print the report and the result
/// line; returns the exit code (0 ran, 1 failed to run, 2 bad usage).
#[must_use]
pub fn main(traced: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args, traced) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    match run(&cfg) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.json());
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}
