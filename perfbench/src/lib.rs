//! End-to-end and per-layer benchmark of `Machine` and `SortService`.
//!
//! One run = one workload in its own process: set-up timed several
//! times, then three library phases (`Machine::sort`, 16- and 128-lane
//! `sort_batch`) and two open-loop service phases (low and high rate),
//! every output checked against the radix-sorted input. The traced run
//! (`--trace 1`) sends the same traffic and then calls each layer's
//! public functions directly. `run.py` builds and drives the binaries;
//! README.md documents workloads, metrics and the layer map.

pub mod adapter;
pub mod cli;
pub mod inputs;
pub mod layers;
pub mod phases;
pub mod stats;
pub mod sys;
pub mod workload;

use adapter::{register, Cache, Library, Network, Service, ServiceSettings};
use phases::{
    reference_ns, run_library, run_service, Failures, LibPhase, LibResult, Rate, Source, SvcResult,
    REFERENCE_NOMINAL_S,
};
use stats::{median, quantile};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use sys::{peak_rss_mib, HostTicks};
use workload::Workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured traffic time, split over the five phases.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Sub-second smoke run: one set-up, minimal phases, small hypercube.
    pub smoke: bool,
    /// Commit of the checkout, for the environment row.
    pub commit: String,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No output differed from the radix-sorted input.
    pub correct: bool,
    /// Library lanes plus service requests (plus, in a traced run, the
    /// lanes of the fault probe under the workload's plan).
    pub attempted: u64,
    /// Wrong outputs plus typed failures.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics in a traced run.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (environment, phases, failures).
    pub lines: Vec<String>,
}

impl Outcome {
    /// The contract's result object, as one line of JSON.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Rounds the measured time is cut into: every phase runs one slice per
/// round, so each metric samples the whole run, not one stretch of it.
const ROUNDS: usize = 10;
/// Set-up repetitions: at least `SETUP_MIN`; set-ups shorter than
/// `LONG_SETUP_S` repeat through every round until `SETUP_TARGET` of
/// set-up time, at most `SETUP_MAX` in all.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 101;
const SETUP_TARGET: Duration = Duration::from_secs(2);
const LONG_SETUP_S: f64 = 0.5;
/// Smoke runs measure this long in total.
const SMOKE_SECONDS: f64 = 0.25;

/// Cold set-up timings, one entry per repetition.
#[derive(Debug, Clone, Default)]
struct Setup {
    total_s: Vec<f64>,
    /// Each set-up's wall time over the reference loop's CPU time around
    /// it (the mean of one loop just before and one just after).
    total_ref: Vec<f64>,
    machine_ms: Vec<f64>,
    register_ms: Vec<f64>,
    start_ms: Vec<f64>,
}

impl Setup {
    /// Set up both entry points from cold once: a machine through a
    /// fresh cache, then a registered and started service.
    fn once(
        &mut self,
        net: &Network,
        settings: &ServiceSettings,
    ) -> Result<(Cache, Service), String> {
        let before = reference_ns();
        let t0 = Instant::now();
        let cache = Cache::new();
        let machine = Library::build(net, &cache);
        let t1 = Instant::now();
        let registered = register(net, settings)?;
        let t2 = Instant::now();
        let service = registered.start();
        let t3 = Instant::now();
        drop(machine);
        let reference = (before + reference_ns()) / 2.0;
        self.total_s.push((t3 - t0).as_secs_f64());
        self.total_ref.push((t3 - t0).as_nanos() as f64 / reference);
        self.machine_ms.push((t1 - t0).as_secs_f64() * 1e3);
        self.register_ms.push((t2 - t1).as_secs_f64() * 1e3);
        self.start_ms.push((t3 - t2).as_secs_f64() * 1e3);
        Ok((cache, service))
    }

    /// Repeat set-up for one round's share of the set-up time (at least
    /// once), discarding what it builds.
    fn round(&mut self, net: &Network, settings: &ServiceSettings) -> Result<(), String> {
        let share = SETUP_TARGET.as_secs_f64() / ROUNDS as f64;
        let start = Instant::now();
        loop {
            drop(self.once(net, settings)?);
            if self.total_s.len() >= SETUP_MAX || start.elapsed().as_secs_f64() >= share {
                return Ok(());
            }
        }
    }
}

fn p50(samples: &[f64], what: &str) -> Result<f64, String> {
    median(samples).ok_or_else(|| format!("no samples for {what}"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn cpu_per_key_ns(libs: &[LibResult]) -> f64 {
    let cpu: u64 = libs.iter().map(|l| l.cpu.total_ns).sum();
    let keys: u64 = libs.iter().map(|l| l.keys).sum();
    ratio(cpu as f64, keys as f64)
}

/// Median CPU time of the reference loop over the whole run, in
/// nanoseconds: every sample taken after a library chunk or a service
/// slice.
fn run_reference_ns(libs: &[LibResult; 3], svcs: &[SvcResult; 2]) -> Result<f64, String> {
    let samples: Vec<f64> = libs
        .iter()
        .flat_map(|l| l.reference_ns.iter())
        .chain(svcs.iter().flat_map(|s| s.reference_ns.iter()))
        .copied()
        .collect();
    p50(&samples, "reference")
}

/// The end-to-end metrics: set-up time at the reference loop's nominal
/// speed (median over set-ups), CPU per library call and per service
/// request in units of the reference loop (medians over chunks and
/// slices), memory. Wall times and raw CPU times swing with the host's
/// load on small shared hosts; the traced run reports them (see
/// README.md).
fn end_to_end(
    setup: &Setup,
    libs: &[LibResult; 3],
    svcs: &[SvcResult; 2],
) -> Result<Vec<Metric>, String> {
    let [single, narrow, wide] = libs;
    let [_, high] = svcs;
    // A library chunk is one stretch of busy CPU, so the reference loop
    // right after it matches its host speed. A service slice spreads
    // short bursts over an otherwise idle slice, which one loop after it
    // does not match: it is divided by the run's median loop instead.
    let service_ref = p50(&high.cpu_per_req_ns, "high rate")? / run_reference_ns(libs, svcs)?;
    Ok(vec![
        metric(
            "setup_s",
            "s",
            p50(&setup.total_ref, "setup")? * REFERENCE_NOMINAL_S,
        ),
        metric(
            "sort_cpu_ref",
            "ref",
            p50(&single.cpu_per_call_ref, "single")?,
        ),
        metric(
            "narrow_batch_cpu_ref",
            "ref",
            p50(&narrow.cpu_per_call_ref, "narrow")?,
        ),
        metric(
            "wide_batch_cpu_ref",
            "ref",
            p50(&wide.cpu_per_call_ref, "wide")?,
        ),
        metric("service_cpu_ref_per_req", "ref", service_ref),
        metric("peak_rss_mib", "MiB", peak_rss_mib()),
    ])
}

/// Run one workload once.
///
/// # Errors
///
/// Set-up or validation failures that leave nothing to measure.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let w = cfg.workload;
    let host0 = HostTicks::now();
    let net = Network::new(w.factor, if cfg.smoke { w.smoke_r } else { w.r });
    let src = Source {
        workload: w.name,
        label: w.label,
        seed: cfg.seed,
    };
    let settings = ServiceSettings {
        faults: w.faults,
        seed: cfg.seed,
    };
    // The first `select_sorter` call in the process pays for scoring;
    // the traced run times it before set-up memoizes it.
    let select_ms = cfg.traced.then(|| {
        let t = Instant::now();
        let _ = adapter::select(&net);
        t.elapsed().as_secs_f64() * 1e3
    });

    let mut setup = Setup::default();
    let mut kept = setup.once(&net, &settings)?;
    let long = setup.total_s[0] >= LONG_SETUP_S;
    if long && !cfg.smoke {
        // Long set-ups average host noise within themselves: repeat
        // them up front, keeping only the last one's objects alive.
        while setup.total_s.len() < SETUP_MIN {
            drop(kept);
            kept = setup.once(&net, &settings)?;
        }
    }
    let (cache, service) = kept;
    let mut lib = Library::build(&net, &cache);
    let (seconds, rounds) = if cfg.smoke {
        (SMOKE_SECONDS, 1)
    } else {
        (cfg.seconds, ROUNDS)
    };
    let weight: f64 = w.weights.iter().sum();
    let slice = |i: usize| Duration::from_secs_f64(seconds * w.weights[i] / weight / rounds as f64);
    let mut libs = LibPhase::ALL.map(LibResult::new);
    let mut svcs = [SvcResult::new(Rate::Low), SvcResult::new(Rate::High)];
    let per_s = [w.rates.0, w.rates.1];
    for _ in 0..rounds {
        if !long && !cfg.smoke {
            setup.round(&net, &settings)?;
        }
        for (i, result) in libs.iter_mut().enumerate() {
            run_library(&mut lib, &net, &src, result, slice(i));
        }
        for (j, result) in svcs.iter_mut().enumerate() {
            run_service(&service, &net, &src, result, per_s[j], slice(3 + j));
        }
    }
    drop(lib);
    drop(service);
    let e2e = end_to_end(&setup, &libs, &svcs)?;

    let mut failures = Failures::default();
    libs.iter().for_each(|l| failures.absorb(&l.failures));
    svcs.iter().for_each(|s| failures.absorb(&s.failures));
    let mut attempted =
        libs.iter().map(|l| l.lanes).sum::<u64>() + svcs.iter().map(|s| s.requests).sum::<u64>();

    let mut lines = Vec::new();
    let late: Vec<f64> = svcs
        .iter()
        .flat_map(|s| s.late_ns.iter().copied())
        .collect();
    lines.push(environment(cfg, host0, &late));
    lines.extend(phase_table(&setup, &libs, &svcs));
    // Lanes of the every-kind fault probe: printed, kept out of the
    // result's accounting (see `per_layer`).
    let mut uncounted = Failures::default();
    let metrics = if cfg.traced {
        let (mut m, probe_lanes) = per_layer(
            &net,
            &src,
            &settings,
            &cache,
            &setup,
            select_ms,
            &libs,
            &svcs,
            &late,
            &mut failures,
            &mut uncounted,
        )?;
        attempted += probe_lanes;
        m.extend(
            e2e.iter()
                .map(|e| metric(&format!("traced_{}", e.name), e.unit, e.value)),
        );
        m
    } else {
        e2e
    };
    lines.extend(
        metrics
            .iter()
            .map(|m| format!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit)),
    );
    lines.extend(
        failures
            .wrong
            .iter()
            .map(|f| format!("FAILED (wrong output) {f}")),
    );
    lines.extend(failures.typed.iter().map(|f| format!("FAILED (typed) {f}")));
    if uncounted.count() > 0 {
        lines.push(format!(
            "uncounted: {} lanes of the every-kind fault probe failed (known defect: drop-route \
             and stall-resolve faults pass the certificates with keys lost; see README.md)",
            uncounted.count()
        ));
    }
    lines.extend(
        uncounted
            .wrong
            .iter()
            .map(|f| format!("UNCOUNTED (wrong output) {f}")),
    );
    lines.extend(
        uncounted
            .typed
            .iter()
            .map(|f| format!("UNCOUNTED (typed) {f}")),
    );
    Ok(Outcome {
        correct: failures.wrong.is_empty(),
        attempted,
        failed: failures.count() as u64,
        metrics,
        lines,
    })
}

fn environment(cfg: &RunConfig, host0: HostTicks, late_ns: &[f64]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let late_p50 = median(late_ns).unwrap_or(0.0) / 1e6;
    let late_max = late_ns.iter().copied().fold(0.0, f64::max) / 1e6;
    format!(
        "env workload={} seed={} trace={} smoke={} nproc={nproc} RAYON_NUM_THREADS={rayon} \
         profile={profile} commit={} steal_share={:.4} generator_late_ms_p50={late_p50:.4} \
         generator_late_ms_max={late_max:.4}",
        cfg.workload.name,
        cfg.seed,
        u8::from(cfg.traced),
        cfg.smoke,
        cfg.commit,
        HostTicks::now().steal_share_since(host0),
    )
}

fn tail(samples: &[f64], scale: f64) -> String {
    let q = |p| quantile(samples, p).map_or(f64::NAN, |v| v / scale);
    format!(
        "n={} p10={:.4} p50={:.4} p99={:.4} max={:.4}",
        samples.len(),
        q(0.1),
        q(0.5),
        q(0.99),
        q(1.0)
    )
}

fn phase_table(setup: &Setup, libs: &[LibResult], svcs: &[SvcResult]) -> Vec<String> {
    let mut lines = vec![format!(
        "phase setup            s  {} wall_ref={}",
        tail(&setup.total_s, 1.0),
        tail(&setup.total_ref, 1.0)
    )];
    for l in libs {
        lines.push(format!(
            "phase {:<16} us {} cpu_us_per_call={} reference_us={} cpu_ref={} \
             cpu_ns_per_key={:.3} sys_share={:.3}",
            l.phase.name(),
            tail(&l.wall_ns, 1e3),
            tail(&l.cpu_per_call_ns, 1e3),
            tail(&l.reference_ns, 1e3),
            tail(&l.cpu_per_call_ref, 1.0),
            ratio(l.cpu.total_ns as f64, l.keys as f64),
            l.cpu.sys_share()
        ));
    }
    for s in svcs {
        lines.push(format!(
            "phase {:<16} ms {} cpu_us_per_req={} reference_us={} \
             harness_cpu_us_per_req={:.3} sys_share={:.3} batches={} lanes={}",
            s.rate.name(),
            tail(&s.latency_ns, 1e6),
            tail(&s.cpu_per_req_ns, 1e3),
            tail(&s.reference_ns, 1e3),
            median(&s.harness_per_req_ns).unwrap_or(0.0) / 1e3,
            s.cpu.sys_share(),
            s.batches.kernel + s.batches.vertical,
            s.batches.lanes
        ));
    }
    lines
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    net: &Network,
    src: &Source,
    settings: &ServiceSettings,
    cache: &Cache,
    setup: &Setup,
    select_ms: Option<f64>,
    libs: &[LibResult; 3],
    svcs: &[SvcResult; 2],
    late_ns: &[f64],
    failures: &mut Failures,
    uncounted: &mut Failures,
) -> Result<(Vec<Metric>, u64), String> {
    let mut rng = src.rng(&[99]);
    let [single, narrow, wide] = libs;
    let [low, high] = svcs;
    let (lowering, mut layers) = layers::lower(net)?;
    let exec = layers::execute(net, &mut layers, &mut rng);
    let faults = layers::faults(
        net,
        &mut layers,
        settings,
        settings.faults,
        &mut rng,
        src,
        "fault_probe",
        failures,
    );
    // Drop-route and stall-resolve faults make `run_kernel_with_faults`
    // accept snake-sorted outputs that lost keys, a defect of the program
    // rather than an operation of the workload: this probe measures it
    // (`all_kinds_corrupt_share`) and prints its failed lanes, but keeps
    // them out of `attempted`, `failed` and `correct`.
    let all_kinds = layers::faults(
        net,
        &mut layers,
        settings,
        layers::all_kinds(),
        &mut rng,
        src,
        "fault_probe_all_kinds",
        uncounted,
    );
    let (admit_ns, poll_ns) = layers::core(net, settings, &high.due_ns, &mut rng);
    let width = |s: &SvcResult| {
        ratio(
            s.batches.lanes as f64,
            (s.batches.kernel + s.batches.vertical) as f64,
        )
    };
    let exec_ms = |layers: &mut adapter::Layers, rng: &mut inputs::StdRng, s: &SvcResult| -> f64 {
        let w = width(s).round().max(1.0) as usize;
        if settings.faults.is_some() {
            w as f64 * faults.us_per_sort / 1e3
        } else {
            layers::batch_us(net, layers, rng, w) / 1e3
        }
    };
    let low_exec_ms = exec_ms(&mut layers, &mut rng, low);
    let high_exec_ms = exec_ms(&mut layers, &mut rng, high);
    let k = lowering.kernel;
    let lanes_f = faults.lanes.max(1) as f64;
    let (hits, misses) = cache.hits_misses();
    let allocs = |l: &LibResult| ratio(l.allocs as f64, l.wall_ns.len() as f64);
    let sorted: f64 = svcs.iter().map(|s| s.latency_ns.len() as f64).sum();
    let retried: f64 = svcs.iter().map(|s| s.retried as f64).sum();
    let degraded: f64 = svcs.iter().map(|s| s.degraded as f64).sum();
    let p99 = quantile(&high.latency_ns, 0.99).unwrap_or(0.0);
    let m50 = |v: &[f64]| median(v).unwrap_or(0.0);
    let n_ops = (k.cx_pairs + k.micro_ops) as f64;
    let metrics = vec![
        metric("sort_p50_us", "us", m50(&single.wall_ns) / 1e3),
        metric("narrow_batch_p50_us", "us", m50(&narrow.wall_ns) / 1e3),
        metric("wide_batch_p50_us", "us", m50(&wide.wall_ns) / 1e3),
        metric("lib_cpu_ns_per_key", "ns", cpu_per_key_ns(libs)),
        metric("sort_cpu_us", "us", m50(&single.cpu_per_call_ns) / 1e3),
        metric(
            "narrow_batch_cpu_us",
            "us",
            m50(&narrow.cpu_per_call_ns) / 1e3,
        ),
        metric("wide_batch_cpu_us", "us", m50(&wide.cpu_per_call_ns) / 1e3),
        metric(
            "service_cpu_us_per_req",
            "us",
            m50(&high.cpu_per_req_ns) / 1e3,
        ),
        metric("reference_us", "us", run_reference_ns(libs, svcs)? / 1e3),
        metric("low_rate_p50_ms", "ms", m50(&low.latency_ns) / 1e6),
        metric("high_rate_p50_ms", "ms", m50(&high.latency_ns) / 1e6),
        metric("select_ms", "ms", select_ms.unwrap_or(0.0)),
        metric("compile_ms", "ms", lowering.compile_ms),
        metric("program_rounds", "count", lowering.rounds as f64),
        metric("program_ops", "count", lowering.ops as f64),
        metric("validate_ms", "ms", lowering.validate_ms),
        metric("lower_ms", "ms", lowering.lower_ms),
        metric("compare_rounds", "count", k.compare_rounds as f64),
        metric("route_rounds", "count", k.route_rounds as f64),
        metric("par_rounds", "count", k.par_rounds as f64),
        metric("cx_pairs", "count", k.cx_pairs as f64),
        metric("micro_ops", "count", k.micro_ops as f64),
        metric("vertical_lower_ms", "ms", lowering.vertical_lower_ms),
        metric("word_ops", "count", k.word_ops as f64),
        metric("cache_hits", "count", hits as f64),
        metric("cache_misses", "count", misses as f64),
        metric("machine_build_ms", "ms", m50(&setup.machine_ms)),
        metric("register_ms", "ms", m50(&setup.register_ms)),
        metric("start_ms", "ms", m50(&setup.start_ms)),
        metric("kernel_serial_us", "us", exec.kernel_serial_us),
        metric(
            "kernel_ns_per_op",
            "ns",
            ratio(exec.kernel_serial_us * 1e3, n_ops),
        ),
        metric("single_allocs_per_call", "count", allocs(single)),
        metric("narrow_allocs_per_call", "count", allocs(narrow)),
        metric("wide_allocs_per_call", "count", allocs(wide)),
        metric("forkjoin_us_per_sort", "us", exec.forkjoin_us_per_sort),
        metric("narrow_fanout_us_per_call", "us", exec.narrow_fanout_us),
        metric("wide_fanout_us_per_call", "us", exec.wide_fanout_us),
        metric("single_sys_cpu_share", "ratio", single.cpu.sys_share()),
        metric("narrow_sys_cpu_share", "ratio", narrow.cpu.sys_share()),
        metric("wide_sys_cpu_share", "ratio", wide.cpu.sys_share()),
        metric("low_rate_sys_cpu_share", "ratio", low.cpu.sys_share()),
        metric("high_rate_sys_cpu_share", "ratio", high.cpu.sys_share()),
        metric(
            "vertical_us_per_lane",
            "us",
            exec.vertical_block_us / adapter::BLOCK_LANES as f64,
        ),
        metric(
            "vertical_ns_per_word_op",
            "ns",
            ratio(exec.vertical_block_us * 1e3, k.word_ops as f64),
        ),
        metric("fault_us_per_sort", "us", faults.us_per_sort),
        metric("faults_injected", "count", faults.injected as f64 / lanes_f),
        metric("detections", "count", faults.detections as f64 / lanes_f),
        metric("restores", "count", faults.restores as f64 / lanes_f),
        metric(
            "exhausted_share",
            "ratio",
            faults.exhausted as f64 / lanes_f,
        ),
        metric(
            "useful_round_ratio",
            "ratio",
            ratio(
                faults.useful_rounds as f64,
                (faults.useful_rounds + faults.wasted_rounds) as f64,
            ),
        ),
        metric(
            "all_kinds_corrupt_share",
            "ratio",
            ratio(
                all_kinds.corrupt as f64,
                (all_kinds.lanes - all_kinds.errors) as f64,
            ),
        ),
        metric("admit_ns", "ns", admit_ns),
        metric("poll_ns", "ns", poll_ns),
        metric("lanes_per_batch", "count", width(high)),
        metric(
            "vertical_batch_share",
            "ratio",
            ratio(
                high.batches.vertical as f64,
                (high.batches.kernel + high.batches.vertical) as f64,
            ),
        ),
        metric("submit_us", "us", m50(&high.submit_ns) / 1e3),
        metric(
            "low_rate_queue_ms",
            "ms",
            m50(&low.latency_ns) / 1e6 - low_exec_ms,
        ),
        metric(
            "high_rate_queue_ms",
            "ms",
            m50(&high.latency_ns) / 1e6 - high_exec_ms,
        ),
        metric("reply_p99_ms", "ms", p99 / 1e6),
        metric("reply_samples", "count", high.latency_ns.len() as f64),
        metric("generator_late_p50_ms", "ms", m50(late_ns) / 1e6),
        metric(
            "generator_late_max_ms",
            "ms",
            late_ns.iter().copied().fold(0.0, f64::max) / 1e6,
        ),
        metric("retried_share", "ratio", ratio(retried, sorted)),
        metric("degraded_share", "ratio", ratio(degraded, sorted)),
    ];
    Ok((metrics, faults.lanes))
}
