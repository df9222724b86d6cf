//! Layer probes of the traced run: each layer's public functions called
//! directly and timed, on the workload's shape and seeded keys.

use crate::adapter::{
    compile_program, fault_plan, oracle_sorted, validate, Core, Faults, KernelShape, Layers,
    Network, ServiceSettings, BLOCK_LANES, NARROW_LANES, WIDE_LANES,
};
use crate::inputs::{keys, StdRng};
use crate::phases::{Failures, Source};
use crate::stats::median;
use crate::workload::ALL_KINDS_RATE;
use std::time::{Duration, Instant};

/// Wall time a repeated probe aims for (it always makes `min` reps).
const PROBE_TARGET: Duration = Duration::from_millis(400);

/// Time `f` `min..=max` times, stopping once [`PROBE_TARGET`] has passed;
/// returns the median in nanoseconds. `f` returns the nanoseconds it
/// measured itself, so it can keep input preparation off the clock.
fn probe(min: usize, max: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (samples.len() < max && start.elapsed() < PROBE_TARGET) {
        samples.push(f(samples.len()));
    }
    median(&samples).unwrap_or(0.0)
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Set-up layers: compile, validate, lower, vertical lowering.
#[derive(Debug, Clone, Copy)]
pub struct Lowering {
    /// `bsp::compile`, ms.
    pub compile_ms: f64,
    /// `BspMachine::try_validate`, ms.
    pub validate_ms: f64,
    /// `KernelProgram::lower`, ms.
    pub lower_ms: f64,
    /// `VerticalProgram::lower`, ms.
    pub vertical_lower_ms: f64,
    /// Program rounds.
    pub rounds: usize,
    /// Program operations.
    pub ops: usize,
    /// Kernel round and operation counts.
    pub kernel: KernelShape,
}

/// Time the set-up layers one by one and return warm executors.
///
/// # Errors
///
/// A program that fails validation.
pub fn lower(net: &Network) -> Result<(Lowering, Layers), String> {
    let compile_ms = probe(1, 25, |_| timed(|| drop(compile_program(net)))) / 1e6;
    let program = compile_program(net);
    let mut valid = Ok(());
    let validate_ms = probe(1, 25, |_| timed(|| valid = validate(net, &program))) / 1e6;
    valid?;
    let lower_ms = probe(1, 25, |_| timed(|| drop(Layers::lower(net, &program)))) / 1e6;
    let mut layers = Layers::lower(net, &program);
    let vertical_lower_ms = probe(5, 25, |_| timed(|| layers.lower_vertical())) / 1e6;
    let out = Lowering {
        compile_ms,
        validate_ms,
        lower_ms,
        vertical_lower_ms,
        rounds: program.rounds(),
        ops: program.ops(),
        kernel: layers.shape(),
    };
    Ok((out, layers))
}

/// Executor timings on the workload's keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct Execution {
    /// `run_kernel` with warm scratch, µs.
    pub kernel_serial_us: f64,
    /// `run_kernel_parallel` minus `run_kernel`, µs (zero when no round
    /// reaches the fork-join threshold).
    pub forkjoin_us_per_sort: f64,
    /// `run_kernel_batch` of 16 lanes minus the same lanes serially, µs.
    pub narrow_fanout_us: f64,
    /// `run_vertical_batch` of 128 lanes minus two 64-lane blocks, µs.
    pub wide_fanout_us: f64,
    /// One 64-lane vertical block, µs.
    pub vertical_block_us: f64,
}

fn lanes(rng: &mut StdRng, n: usize, count: usize) -> Vec<Vec<u64>> {
    (0..count).map(|_| keys(rng, n)).collect()
}

/// Time the executors directly.
pub fn execute(net: &Network, layers: &mut Layers, rng: &mut StdRng) -> Execution {
    let n = net.keys();
    let mut out = Execution::default();
    let input = keys(rng, n);
    out.kernel_serial_us = probe(3, 200, |_| {
        let mut k = input.clone();
        timed(|| layers.run_serial(&mut k))
    }) / 1e3;
    if layers.shape().par_rounds > 0 {
        let parallel = probe(3, 200, |_| {
            let mut k = input.clone();
            timed(|| layers.run_parallel(&mut k))
        }) / 1e3;
        out.forkjoin_us_per_sort = parallel - out.kernel_serial_us;
    }

    let narrow = lanes(rng, n, NARROW_LANES);
    let batch = probe(3, 200, |_| {
        let mut b = narrow.clone();
        timed(|| layers.run_kernel_batch(&mut b))
    });
    let serial = probe(3, 200, |_| {
        let mut b = narrow.clone();
        timed(|| b.iter_mut().for_each(|k| layers.run_serial(k)))
    });
    out.narrow_fanout_us = (batch - serial) / 1e3;

    let wide = lanes(rng, n, WIDE_LANES);
    let whole = probe(2, 100, |_| {
        let mut b = wide.clone();
        timed(|| layers.run_vertical_batch(&mut b))
    });
    let block = probe(2, 100, |_| {
        let mut b = wide[..BLOCK_LANES].to_vec();
        timed(|| layers.run_vertical_batch(&mut b))
    });
    out.wide_fanout_us = (whole - 2.0 * block) / 1e3;
    out.vertical_block_us = block / 1e3;
    out
}

/// `width` lanes through the executor the service uses for that batch
/// width (vertical from one block up, kernel batch below), µs.
pub fn batch_us(net: &Network, layers: &mut Layers, rng: &mut StdRng, width: usize) -> f64 {
    let batch = lanes(rng, net.keys(), width.max(1));
    probe(3, 100, |_| {
        let mut b = batch.clone();
        if b.len() >= BLOCK_LANES {
            timed(|| layers.run_vertical_batch(&mut b))
        } else {
            timed(|| layers.run_kernel_batch(&mut b))
        }
    }) / 1e3
}

/// Results of fault-injected runs, summed over lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Median run, µs.
    pub us_per_sort: f64,
    /// Lanes run.
    pub lanes: u64,
    /// Faults that fired.
    pub injected: u64,
    /// Failed certificate checks.
    pub detections: u64,
    /// Checkpoint restores.
    pub restores: u64,
    /// Rounds that reached the output.
    pub useful_rounds: u64,
    /// Rounds thrown away by restores.
    pub wasted_rounds: u64,
    /// Lanes that gave up (`RetryExhausted`).
    pub exhausted: u64,
    /// Lanes that ended in a typed error, exhausted ones included.
    pub errors: u64,
    /// Lanes whose accepted output differs from the radix-sorted input.
    pub corrupt: u64,
}

/// Run seeded lanes through `run_kernel_with_faults` under `faults`,
/// with the service's retry policy and per-lane plan forks. Each lane
/// is checked like the traffic: a typed error or an accepted output
/// that differs from the radix-sorted input is added to `failures`
/// under `phase`.
#[allow(clippy::too_many_arguments)]
pub fn faults(
    net: &Network,
    layers: &mut Layers,
    settings: &ServiceSettings,
    faults: Option<Faults>,
    rng: &mut StdRng,
    src: &Source,
    phase: &str,
    failures: &mut Failures,
) -> FaultStats {
    let plan = fault_plan(settings.seed, faults);
    let policy = settings.retry_policy();
    let mut out = FaultStats::default();
    let n = net.keys();
    let us_per_sort = probe(8, 400, |lane| {
        let input = keys(rng, n);
        let want = oracle_sorted(&input);
        let mut k = input;
        let t = Instant::now();
        let run = layers.run_with_faults(&mut k, &plan, lane as u64, &policy);
        let ns = t.elapsed().as_nanos() as f64;
        out.lanes += 1;
        if let Some(e) = &run.error {
            out.errors += 1;
            out.exhausted += u64::from(run.exhausted);
            failures
                .typed
                .push(src.failure(phase, &format!("lane {lane}: {e}")));
        } else if net.snake_order(&k) != want {
            out.corrupt += 1;
            failures.wrong.push(src.failure(
                phase,
                &format!(
                    "lane {lane}: accepted output differs from the radix-sorted input \
                     ({} faults injected)",
                    run.injected
                ),
            ));
        }
        out.injected += run.injected;
        out.detections += run.detections;
        out.restores += run.restores;
        out.useful_rounds += run.useful_rounds;
        out.wasted_rounds += run.wasted_rounds;
        ns
    }) / 1e3;
    FaultStats { us_per_sort, ..out }
}

/// The every-kind fault probe (drop-route and stall-resolve included).
#[must_use]
pub fn all_kinds() -> Option<Faults> {
    Some(Faults {
        rate_per_million: ALL_KINDS_RATE,
        compare_only: false,
    })
}

/// Median `ServiceCore::submit` and `poll` times, in ns, with the core
/// driven directly at the given arrival timestamps.
pub fn core(
    net: &Network,
    settings: &ServiceSettings,
    due: &[u64],
    rng: &mut StdRng,
) -> (f64, f64) {
    let mut core = Core::new(net, settings);
    let input = keys(rng, net.keys());
    let mut admit = Vec::with_capacity(due.len());
    let mut poll = Vec::with_capacity(due.len());
    for &now in due {
        let k = input.clone();
        let t = Instant::now();
        core.submit(k, now);
        admit.push(t.elapsed().as_nanos() as f64);
        loop {
            let t = Instant::now();
            let released = core.poll(now);
            poll.push(t.elapsed().as_nanos() as f64);
            if released.is_none() {
                break;
            }
        }
    }
    let m = |v: &[f64]| median(v).unwrap_or(0.0);
    (m(&admit), m(&poll))
}
