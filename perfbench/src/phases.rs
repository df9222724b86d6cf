//! The timed traffic: library phases (`Machine::sort`/`sort_batch`
//! calls) and service phases (open-loop requests to a `SortService`).
//! Both modes run exactly this code; the traced mode adds layer probes
//! afterwards (see `layers`).

use crate::adapter::{
    oracle_sorted, BatchCounts, Failure, Library, Network, Outputs, Pending, Service, NARROW_LANES,
    WIDE_LANES,
};
use crate::inputs::{keys, poisson_schedule, stream, StdRng};
use crate::sys::{allocations, process_cpu, thread_cpu_ns, Cpu};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Keys per chunk of timed calls (at least one call). CPU is read only
/// at chunk boundaries, outside key generation and output checks.
const CHUNK_KEYS: usize = 1 << 16;

/// Repetitions of the reference loop's body (about 250 µs of CPU on a
/// 2.1 GHz Xeon vCPU).
const REFERENCE_REPS: u64 = 400;

/// The reference loop's nominal CPU time, in seconds: about what it
/// takes on an unloaded 2.1 GHz Xeon vCPU. `setup_s` is each set-up's
/// wall time over the reference loop's time around it, times this, so
/// it reads as seconds on a host of that fixed speed.
pub const REFERENCE_NOMINAL_S: f64 = 250e-6;

/// CPU time of the benchmark's reference loop on this thread, in
/// nanoseconds: a fixed computation owned by the benchmark (fill and
/// sort 64 keys, `REFERENCE_REPS` times). It runs right after every
/// measured chunk and service slice, outside the measured interval, and
/// the end-to-end CPU metrics are the program's CPU divided by it. A
/// shared host slows both down together for seconds to minutes at a
/// time (busy sibling cores, hypervisor steal), so the quotient repeats
/// where the raw CPU time does not.
#[must_use]
pub fn reference_ns() -> f64 {
    let start = thread_cpu_ns();
    let mut keys = [0u64; 64];
    let mut acc = 0u64;
    for rep in 0..REFERENCE_REPS {
        let rep = std::hint::black_box(rep);
        for (i, k) in (0u64..).zip(keys.iter_mut()) {
            *k = (i ^ rep)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
        }
        keys.sort_unstable();
        acc = acc.wrapping_add(keys[7]);
    }
    std::hint::black_box(acc);
    thread_cpu_ns().saturating_sub(start) as f64
}

/// A library phase: one `Machine` entry point at one batch width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibPhase {
    /// One `Machine::sort` call per request.
    Single,
    /// `Machine::sort_batch` of 16 lanes (kernel tier).
    Narrow,
    /// `Machine::sort_batch` of 128 lanes (vertical tier).
    Wide,
}

impl LibPhase {
    /// All library phases, in run order.
    pub const ALL: [LibPhase; 3] = [LibPhase::Single, LibPhase::Narrow, LibPhase::Wide];

    /// Phase name as printed.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LibPhase::Single => "single",
            LibPhase::Narrow => "narrow",
            LibPhase::Wide => "wide",
        }
    }

    /// Key vectors per call.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            LibPhase::Single => 1,
            LibPhase::Narrow => NARROW_LANES,
            LibPhase::Wide => WIDE_LANES,
        }
    }

    fn label(self) -> u64 {
        match self {
            LibPhase::Single => 1,
            LibPhase::Narrow => 2,
            LibPhase::Wide => 3,
        }
    }
}

/// Where a run's inputs come from, and where its failures are reported.
#[derive(Debug, Clone, Copy)]
pub struct Source {
    /// Workload name.
    pub workload: &'static str,
    /// Workload label mixed into every input stream.
    pub label: u64,
    /// The run's `--seed`.
    pub seed: u64,
}

impl Source {
    /// The input stream for `labels` within this workload and seed.
    #[must_use]
    pub(crate) fn rng(&self, labels: &[u64]) -> StdRng {
        let mut all = vec![self.label];
        all.extend_from_slice(labels);
        stream(self.seed, &all)
    }

    /// A failure line naming the workload, `phase` and seed.
    #[must_use]
    pub(crate) fn failure(&self, phase: &str, what: &str) -> String {
        format!(
            "workload {} phase {phase} seed {}: {what}",
            self.workload, self.seed
        )
    }
}

/// What one library phase measured, accumulated over its slices.
#[derive(Debug, Clone)]
pub struct LibResult {
    /// Which phase.
    pub phase: LibPhase,
    /// Wall time of each timed call, in nanoseconds.
    pub wall_ns: Vec<f64>,
    /// Process CPU over the timed calls only.
    pub cpu: Cpu,
    /// Process CPU per call of each chunk of timed calls, in nanoseconds.
    pub cpu_per_call_ns: Vec<f64>,
    /// The reference loop's CPU after each chunk, in nanoseconds.
    pub reference_ns: Vec<f64>,
    /// Each chunk's CPU per call over the reference loop's CPU after it.
    pub cpu_per_call_ref: Vec<f64>,
    /// Keys sorted by the timed calls.
    pub keys: u64,
    /// Allocations inside the program calls of the timed chunks
    /// (traced binary only).
    pub allocs: u64,
    /// Lanes attempted, the untimed warm-up call included.
    pub lanes: u64,
    /// Failed lanes.
    pub failures: Failures,
    /// Calls made so far (labels the next call's inputs).
    calls: u64,
}

impl LibResult {
    /// An empty result for `phase`.
    #[must_use]
    pub fn new(phase: LibPhase) -> LibResult {
        LibResult {
            phase,
            wall_ns: Vec::new(),
            cpu: Cpu::default(),
            cpu_per_call_ns: Vec::new(),
            reference_ns: Vec::new(),
            cpu_per_call_ref: Vec::new(),
            keys: 0,
            allocs: 0,
            lanes: 0,
            failures: Failures::default(),
            calls: 0,
        }
    }
}

/// Failed operations, described with workload, phase and seed.
#[derive(Debug, Clone, Default)]
pub struct Failures {
    /// Outputs that differ from the radix-sorted input.
    pub wrong: Vec<String>,
    /// Typed errors, rejections and timeouts.
    pub typed: Vec<String>,
}

impl Failures {
    /// All failures.
    #[must_use]
    pub fn count(&self) -> usize {
        self.wrong.len() + self.typed.len()
    }

    /// Copy `other`'s entries into `self`.
    pub fn absorb(&mut self, other: &Failures) {
        self.wrong.extend(other.wrong.iter().cloned());
        self.typed.extend(other.typed.iter().cloned());
    }
}

fn check_lanes(
    net: &Network,
    src: &Source,
    phase: &str,
    call: u64,
    outputs: Outputs,
    expected: &[Vec<u64>],
    failures: &mut Failures,
) {
    let outputs = outputs.into_lanes();
    if outputs.len() != expected.len() {
        let what = format!(
            "call {call}: {} lanes for {}",
            outputs.len(),
            expected.len()
        );
        failures.typed.push(src.failure(phase, &what));
    }
    for (lane, (out, want)) in outputs.into_iter().zip(expected).enumerate() {
        match out {
            Ok(keys) if net.snake_order(&keys) == *want => {}
            Ok(_) => failures.wrong.push(src.failure(
                phase,
                &format!("call {call} lane {lane}: output differs from the radix-sorted input"),
            )),
            Err(e) => failures
                .typed
                .push(src.failure(phase, &format!("call {call} lane {lane}: {e}"))),
        }
    }
}

/// Run library calls for about `budget` (at least one chunk), adding to
/// `result`. The phase's first call is an untimed warm-up. Calls run in
/// chunks of a fixed key volume; inputs are generated and outputs
/// checked between chunks, outside the wall and CPU measurements.
pub fn run_library(
    lib: &mut Library,
    net: &Network,
    src: &Source,
    result: &mut LibResult,
    budget: Duration,
) {
    let phase = result.phase;
    let n = net.keys();
    let lanes = phase.lanes();
    let per_chunk = (CHUNK_KEYS / (n * lanes)).max(1) as u64;
    let start = Instant::now();
    loop {
        let warm_up = result.calls == 0;
        let calls = if warm_up { 1 } else { per_chunk };
        let inputs: Vec<Vec<Vec<u64>>> = (result.calls..result.calls + calls)
            .map(|call| {
                let mut rng = src.rng(&[phase.label(), call]);
                (0..lanes).map(|_| keys(&mut rng, n)).collect()
            })
            .collect();
        let expected: Vec<Vec<Vec<u64>>> = inputs
            .iter()
            .map(|batch| batch.iter().map(|k| oracle_sorted(k)).collect())
            .collect();
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut walls = Vec::with_capacity(inputs.len());
        let mut allocs = 0;
        let cpu0 = process_cpu();
        for mut batch in inputs {
            let single = (phase == LibPhase::Single).then(|| batch.pop().unwrap_or_default());
            let allocs0 = allocations();
            let t = Instant::now();
            let out = match single {
                Some(keys) => lib.sort(keys),
                None => lib.sort_batch(batch),
            };
            let wall = t.elapsed();
            allocs += allocations() - allocs0;
            walls.push(wall.as_nanos() as f64);
            outputs.push(out);
        }
        let cpu = process_cpu().since(cpu0);
        if !warm_up {
            let per_call = cpu.total_ns as f64 / calls as f64;
            let reference = reference_ns();
            result.cpu = result.cpu.plus(cpu);
            result.cpu_per_call_ns.push(per_call);
            result.reference_ns.push(reference);
            result.cpu_per_call_ref.push(per_call / reference);
            result.allocs += allocs;
            result.keys += calls * (lanes * n) as u64;
            result.wall_ns.extend(walls);
        }
        for (call, (out, want)) in (result.calls..).zip(outputs.into_iter().zip(&expected)) {
            check_lanes(
                net,
                src,
                phase.name(),
                call,
                out,
                want,
                &mut result.failures,
            );
        }
        result.lanes += calls * lanes as u64;
        result.calls += calls;
        if !warm_up && start.elapsed() >= budget {
            return;
        }
    }
}

/// A service phase's fixed arrival rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rate {
    /// Nearly every batch carries one lane.
    Low,
    /// Batches coalesce; the host stays well below saturation.
    High,
}

impl Rate {
    /// Phase name as printed.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rate::Low => "low_rate",
            Rate::High => "high_rate",
        }
    }

    fn label(self) -> u64 {
        match self {
            Rate::Low => 11,
            Rate::High => 12,
        }
    }
}

/// What one service phase measured, accumulated over its slices.
#[derive(Debug, Clone)]
pub struct SvcResult {
    /// Which rate.
    pub rate: Rate,
    /// Due time of each request, in nanoseconds from the first slice's
    /// start with the slices laid end to end.
    pub due_ns: Vec<u64>,
    /// Due-to-reply time of each sorted request, in nanoseconds.
    pub latency_ns: Vec<f64>,
    /// How late the generator submitted each request, in nanoseconds.
    pub late_ns: Vec<f64>,
    /// Duration of each `submit` call, in nanoseconds.
    pub submit_ns: Vec<f64>,
    /// Process CPU from each slice's start to its last reply.
    pub cpu: Cpu,
    /// Service CPU per request of each slice, in nanoseconds: process
    /// CPU less the benchmark's own generator and collector threads,
    /// with the generator's `submit` calls counted as service work.
    pub cpu_per_req_ns: Vec<f64>,
    /// The generator's and collector's own CPU per request of each
    /// slice (sleeping, waking, waiting for tickets), in nanoseconds.
    pub harness_per_req_ns: Vec<f64>,
    /// The reference loop's CPU after each slice, in nanoseconds.
    pub reference_ns: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    /// Sorted replies that took a service-level retry.
    pub retried: u64,
    /// Sorted replies from the quarantine rung.
    pub degraded: u64,
    /// Batch accounting over the phase.
    pub batches: BatchCounts,
    /// Failed requests.
    pub failures: Failures,
    /// Slices run so far, and their total span in nanoseconds.
    slices: u64,
    span_ns: u64,
}

impl SvcResult {
    /// An empty result for `rate`.
    #[must_use]
    pub fn new(rate: Rate) -> SvcResult {
        SvcResult {
            rate,
            due_ns: Vec::new(),
            latency_ns: Vec::new(),
            late_ns: Vec::new(),
            submit_ns: Vec::new(),
            cpu: Cpu::default(),
            cpu_per_req_ns: Vec::new(),
            harness_per_req_ns: Vec::new(),
            reference_ns: Vec::new(),
            requests: 0,
            retried: 0,
            degraded: 0,
            batches: BatchCounts::default(),
            failures: Failures::default(),
            slices: 0,
            span_ns: 0,
        }
    }
}

/// Send one open-loop slice of `budget` at `per_s` requests per second
/// and add it to `result`. Requests are submitted at their Poisson due
/// times from this thread; one collector thread waits for the replies
/// in order (one service worker answers in order). Inputs are made
/// before and outputs checked after the measured interval.
pub fn run_service(
    svc: &Service,
    net: &Network,
    src: &Source,
    result: &mut SvcResult,
    per_s: f64,
    budget: Duration,
) {
    let rate = result.rate;
    let slice = result.slices;
    let n = net.keys();
    let span = budget.as_nanos() as u64;
    let due = poisson_schedule(&mut src.rng(&[rate.label(), slice]), per_s, span, 1);
    let inputs: Vec<Vec<u64>> = (0..due.len() as u64)
        .map(|i| keys(&mut src.rng(&[rate.label(), slice, i + 1]), n))
        .collect();
    let expected: Vec<Vec<u64>> = inputs.iter().map(|k| oracle_sorted(k)).collect();

    let before = svc.batch_counts();
    let cpu0 = process_cpu();
    let generator0 = thread_cpu_ns();
    let mut submit_cpu_ns = 0;
    let origin = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Result<Pending, Failure>)>();
    let (replies, collector_cpu_ns) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let start = thread_cpu_ns();
            let replies = rx
                .into_iter()
                .map(|(i, submitted)| {
                    let outcome = submitted.and_then(Pending::wait);
                    (i, Instant::now(), outcome)
                })
                .collect::<Vec<_>>();
            (replies, thread_cpu_ns().saturating_sub(start))
        });
        for (i, keys) in inputs.into_iter().enumerate() {
            let due_at = origin + Duration::from_nanos(due[i]);
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let c0 = thread_cpu_ns();
            let t0 = Instant::now();
            let submitted = svc.submit(keys);
            let t1 = Instant::now();
            submit_cpu_ns += thread_cpu_ns().saturating_sub(c0);
            result
                .late_ns
                .push(t0.saturating_duration_since(due_at).as_nanos() as f64);
            result.submit_ns.push((t1 - t0).as_nanos() as f64);
            if tx.send((i, submitted)).is_err() {
                break;
            }
        }
        drop(tx);
        collector
            .join()
            .expect("the collector thread does not panic")
    });
    let generator_cpu_ns = thread_cpu_ns().saturating_sub(generator0);
    let cpu = process_cpu().since(cpu0);
    let harness_ns = (generator_cpu_ns.saturating_sub(submit_cpu_ns) + collector_cpu_ns) as f64;
    let requests = due.len() as f64;
    let per_req = (cpu.total_ns as f64 - harness_ns).max(0.0) / requests;
    let reference = reference_ns();
    result.cpu = result.cpu.plus(cpu);
    result.cpu_per_req_ns.push(per_req);
    result.harness_per_req_ns.push(harness_ns / requests);
    result.reference_ns.push(reference);
    let after = svc.batch_counts();
    result.batches.kernel += after.kernel - before.kernel;
    result.batches.vertical += after.vertical - before.vertical;
    result.batches.lanes += after.lanes - before.lanes;
    result.requests += due.len() as u64;
    if replies.len() != due.len() {
        let lost = due.len() - replies.len();
        let what = format!(
            "slice {slice}: {lost} of {} requests never resolved",
            due.len()
        );
        result.failures.typed.push(src.failure(rate.name(), &what));
    }
    for (i, at, outcome) in replies {
        let due_at = origin + Duration::from_nanos(due[i]);
        match outcome {
            Ok(reply) if net.snake_order(&reply.keys) == expected[i] => {
                result
                    .latency_ns
                    .push(at.saturating_duration_since(due_at).as_nanos() as f64);
                result.retried += u64::from(reply.retried);
                result.degraded += u64::from(reply.degraded);
            }
            Ok(_) => result.failures.wrong.push(src.failure(
                rate.name(),
                &format!("slice {slice} request {i}: output differs from the radix-sorted input"),
            )),
            Err(f) => result
                .failures
                .typed
                .push(src.failure(rate.name(), &format!("slice {slice} request {i}: {f:?}"))),
        }
    }
    let offset = result.span_ns;
    result.due_ns.extend(due.iter().map(|d| d + offset));
    result.span_ns += span;
    result.slices += 1;
}
