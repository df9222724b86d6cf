//! The one place the benchmark calls into the program.
//!
//! Every constructor, entry point and layer function the benchmark
//! drives is wrapped here, so an API change (for example collapsing
//! `Machine`'s constructors) is absorbed in this file alone. The rest of
//! the benchmark sees plain keys, strings and counts.

use pns_graph::{factories, Graph};
use pns_order::radix::Shape;
use pns_service::{
    LaneVerdict, Poll, ServiceConfig, ServiceCore, ServiceError, ShapeSpec, SortService, Ticket,
};
use pns_simulator::{
    bsp::compile, select_sorter, BspMachine, CompiledProgram, ExecScratch, FaultError, FaultKind,
    FaultPlan, KernelProgram, Machine, ProgramCache, RetryPolicy, RoundClass, ScratchPool,
    SortError, SortReport, SorterChoice, VerticalPool, VerticalProgram, KERNEL_PAR_THRESHOLD,
};
use std::sync::Arc;

/// Lanes in the library's `narrow` batch (runs on the kernel tier).
pub const NARROW_LANES: usize = 16;
/// Lanes in the library's `wide` batch (vertical tier, 64-lane blocks).
pub const WIDE_LANES: usize = 128;
/// Lanes the vertical tier packs into one block.
pub const BLOCK_LANES: usize = pns_simulator::WORD_LANES;

/// The factor graphs the workloads use.
#[derive(Debug, Clone, Copy)]
pub enum Factor {
    /// `K_2` (its products are hypercubes).
    K2,
    /// A complete binary tree with this many levels.
    BinaryTree(usize),
    /// A star with this many nodes.
    Star(usize),
}

/// A factor relabeled along its best linear embedding, with the
/// product dimension it is raised to.
pub struct Network {
    factor: Graph,
    r: usize,
    shape: Shape,
}

impl Network {
    /// `factor^r`, factor relabeled with `Machine::prepare_factor`.
    #[must_use]
    pub fn new(factor: Factor, r: usize) -> Network {
        let raw = match factor {
            Factor::K2 => factories::k2(),
            Factor::BinaryTree(levels) => factories::complete_binary_tree(levels),
            Factor::Star(n) => factories::star(n),
        };
        let factor = Machine::prepare_factor(&raw);
        let shape = Shape::new(factor.n(), r);
        Network { factor, r, shape }
    }

    /// Keys per vector (`N^r`).
    #[must_use]
    pub fn keys(&self) -> usize {
        usize::try_from(self.shape.len()).expect("shape fits in memory")
    }

    /// Read a node-rank key vector out in snake order (the sorted
    /// sequence, if the sort was correct).
    #[must_use]
    pub fn snake_order(&self, keys: &[u64]) -> Vec<u64> {
        pns_simulator::netsort::read_snake_order(self.shape, keys)
    }
}

/// The second oracle: `keys` sorted by the LSB radix baseline.
#[must_use]
pub fn oracle_sorted(keys: &[u64]) -> Vec<u64> {
    let mut sorted = keys.to_vec();
    pns_baselines::radix::radix_sort_u64(&mut sorted);
    sorted
}

// ---------------------------------------------------------------------
// Library entry point: `Machine` through a `ProgramCache`.
// ---------------------------------------------------------------------

/// A fresh program cache (set-up builds every machine through one).
pub struct Cache(ProgramCache);

impl Cache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Cache {
        Cache(ProgramCache::new())
    }

    /// Hits and misses over the program, kernel and vertical tiers.
    #[must_use]
    pub fn hits_misses(&self) -> (u64, u64) {
        let c = &self.0;
        (
            c.hits() + c.kernel_hits() + c.vertical_hits(),
            c.misses() + c.kernel_misses() + c.vertical_misses(),
        )
    }
}

impl Default for Cache {
    fn default() -> Self {
        Cache::new()
    }
}

/// A compiled `Machine` with the auto-selected sorter.
pub struct Library(Machine);

impl Library {
    /// Build (or fetch from `cache`) the machine for `net`.
    #[must_use]
    pub fn build(net: &Network, cache: &Cache) -> Library {
        Library(Machine::compiled_with(
            &net.factor,
            net.r,
            SorterChoice::Auto,
            &cache.0,
        ))
    }

    /// `Machine::sort`.
    pub fn sort(&mut self, keys: Vec<u64>) -> Outputs {
        Outputs::One(self.0.sort(keys))
    }

    /// `Machine::sort_batch`.
    pub fn sort_batch(&mut self, batch: Vec<Vec<u64>>) -> Outputs {
        Outputs::Batch(self.0.sort_batch(batch))
    }
}

/// A library call's results in the program's own types, so a timed or
/// allocation-counted region ends at the program call itself.
pub enum Outputs {
    /// From `Machine::sort`.
    One(Result<SortReport<u64>, SortError>),
    /// From `Machine::sort_batch`, one per lane.
    Batch(Vec<Result<SortReport<u64>, SortError>>),
}

impl Outputs {
    /// One result per lane: the output keys in node-rank order, or the
    /// machine's typed error, rendered.
    #[must_use]
    pub fn into_lanes(self) -> Vec<Result<Vec<u64>, String>> {
        let lane = |r: Result<SortReport<u64>, SortError>| {
            r.map(|report| report.keys).map_err(|e| e.to_string())
        };
        match self {
            Outputs::One(r) => vec![lane(r)],
            Outputs::Batch(lanes) => lanes.into_iter().map(lane).collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Service entry point: `SortService`.
// ---------------------------------------------------------------------

/// Injected faults: a seeded random plan.
#[derive(Debug, Clone, Copy)]
pub struct Faults {
    /// Faults per million eligible operations.
    pub rate_per_million: u64,
    /// Only flipped compare-exchanges (`true`), or every fault kind.
    pub compare_only: bool,
}

/// Builds the seeded plan for `faults` (disabled for `None`).
#[must_use]
pub fn fault_plan(seed: u64, faults: Option<Faults>) -> FaultPlan {
    match faults {
        None => FaultPlan::disabled(),
        Some(f) if f.compare_only => {
            FaultPlan::random_with_kinds(seed, f.rate_per_million, &[FaultKind::FlipCompare])
        }
        Some(f) => FaultPlan::random(seed, f.rate_per_million),
    }
}

/// Service executor threads. With one worker, replies come back in
/// submission order and p50 repeats better on a two-vCPU host (6.5%
/// against 15.4% spread with two at 2000 req/s).
const WORKERS: usize = 1;

/// How the benchmark configures the service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSettings {
    /// Faults to inject (`None`: clean).
    pub faults: Option<Faults>,
    /// Seed of the fault plan.
    pub seed: u64,
}

impl ServiceSettings {
    /// `ServiceConfig::default()` with the benchmark's changes: one
    /// worker, and for faulted runs the breaker off, so the service
    /// keeps admitting.
    fn config(&self) -> ServiceConfig {
        let mut config = ServiceConfig {
            workers: WORKERS,
            ..ServiceConfig::default()
        };
        if self.faults.is_some() {
            config.breaker.trip_pct = 0;
        }
        config
    }

    /// The retry policy the service's executors run with.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.config().retry_policy
    }
}

/// A service builder with one shape registered (not yet started).
pub struct Registered(pns_service::ServiceBuilder);

/// `SortService::builder(..).register_shape(..)`.
///
/// # Errors
///
/// The service's typed registration error, rendered.
pub fn register(net: &Network, settings: &ServiceSettings) -> Result<Registered, String> {
    SortService::builder(settings.config())
        .sorter(SorterChoice::Auto)
        .fault_plan(fault_plan(settings.seed, settings.faults))
        .register_shape(&net.factor, net.r)
        .map(Registered)
        .map_err(|e| e.to_string())
}

impl Registered {
    /// `ServiceBuilder::start`.
    #[must_use]
    pub fn start(self) -> Service {
        Service(self.0.start())
    }
}

/// A running service with one registered shape (id 0).
pub struct Service(SortService);

/// How a request ended badly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Turned away at admission (typed reason).
    Rejected(String),
    /// Expired in the queue.
    Timeout,
    /// The ladder ran out, or an internal error.
    Error(String),
}

/// A sorted reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Node-rank keys.
    pub keys: Vec<u64>,
    /// Answered by the quarantine rung.
    pub degraded: bool,
    /// Took at least one service-level retry.
    pub retried: bool,
}

fn failure(e: ServiceError) -> Failure {
    match e {
        ServiceError::Rejected(r) => Failure::Rejected(r.to_string()),
        ServiceError::Timeout { .. } => Failure::Timeout,
        other => Failure::Error(other.to_string()),
    }
}

/// An admitted request's reply slot.
pub struct Pending(Ticket);

impl Pending {
    /// Block until the request resolves.
    ///
    /// # Errors
    ///
    /// The typed failure.
    pub fn wait(self) -> Result<Reply, Failure> {
        self.0
            .wait()
            .map(|r| Reply {
                keys: r.keys,
                degraded: r.degraded,
                retried: r.attempts > 1,
            })
            .map_err(failure)
    }
}

/// Batch accounting from `SortService::stats()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCounts {
    /// Batches run on the kernel tier.
    pub kernel: u64,
    /// Batches run on the vertical tier.
    pub vertical: u64,
    /// Lanes that finished (sorted or failed).
    pub lanes: u64,
}

impl Service {
    /// `SortService::submit` for tenant 0, shape 0.
    ///
    /// # Errors
    ///
    /// The typed admission failure.
    pub fn submit(&self, keys: Vec<u64>) -> Result<Pending, Failure> {
        self.0.submit(0, 0, keys).map(Pending).map_err(failure)
    }

    /// Batch and lane totals so far.
    #[must_use]
    pub fn batch_counts(&self) -> BatchCounts {
        let s = self.0.stats();
        BatchCounts {
            kernel: s.kernel_batches,
            vertical: s.vertical_batches,
            lanes: s.total(|t| t.completed + t.failed),
        }
    }
}

/// The service core driven directly, without threads or clocks.
pub struct Core(ServiceCore);

impl Core {
    /// A core configured like the service, accepting `net`'s vectors.
    #[must_use]
    pub fn new(net: &Network, settings: &ServiceSettings) -> Core {
        Core(ServiceCore::new(
            settings.config(),
            vec![ShapeSpec {
                expected_keys: net.shape.len(),
            }],
        ))
    }

    /// `ServiceCore::submit` at `now_ns` (a refusal is timed like an
    /// admission).
    pub fn submit(&mut self, keys: Vec<u64>, now_ns: u64) {
        let _ = self.0.submit(0, 0, keys, now_ns);
    }

    /// `ServiceCore::poll` at `now_ns`; a released batch is completed
    /// (as sorted) at once and its width returned.
    pub fn poll(&mut self, now_ns: u64) -> Option<usize> {
        match self.0.poll(now_ns) {
            Poll::Ready(batch) => {
                for lane in &batch.entries {
                    let verdict = LaneVerdict::Sorted {
                        degraded: false,
                        retried: false,
                    };
                    self.0.complete(lane, verdict, now_ns);
                }
                Some(batch.entries.len())
            }
            Poll::Wait(_) | Poll::Idle => None,
        }
    }
}

// ---------------------------------------------------------------------
// Layers: the functions the entry points are built from.
// ---------------------------------------------------------------------

/// `select_sorter`: the auto-selected sorter's name.
#[must_use]
pub fn select(net: &Network) -> &'static str {
    select_sorter(&net.factor).name()
}

/// A compiled BSP program.
pub struct Program(CompiledProgram);

/// `bsp::compile` with the auto-selected sorter.
#[must_use]
pub fn compile_program(net: &Network) -> Program {
    Program(compile(&net.factor, net.r, select_sorter(&net.factor)))
}

impl Program {
    /// Synchronous rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.0.rounds()
    }

    /// Operations over all rounds.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.0.op_count()
    }
}

/// `BspMachine::try_validate`.
///
/// # Errors
///
/// The first machine-model violation, rendered.
pub fn validate(net: &Network, program: &Program) -> Result<(), String> {
    BspMachine::new(&net.factor, net.r)
        .try_validate(&program.0)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Round and operation counts of a lowered kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelShape {
    /// Pure compare-exchange rounds.
    pub compare_rounds: usize,
    /// Rounds with route micro-ops.
    pub route_rounds: usize,
    /// Compare rounds at or above `KERNEL_PAR_THRESHOLD` pairs.
    pub par_rounds: usize,
    /// Compare-exchange pairs.
    pub cx_pairs: usize,
    /// Route micro-ops.
    pub micro_ops: usize,
    /// Word operations of one vertical run.
    pub word_ops: usize,
}

/// Executors over one lowered program, with warm scratch.
pub struct Layers {
    machine: BspMachine,
    kernel: Arc<KernelProgram>,
    vertical: Option<VerticalProgram>,
    scratch: ExecScratch<u64>,
    pool: ScratchPool<u64>,
    vpool: VerticalPool<u64>,
}

/// What one fault-injected run reported.
#[derive(Debug, Clone, Default)]
pub struct FaultRun {
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
    /// The run's typed error, rendered (`None`: it returned keys).
    pub error: Option<String>,
    /// The error was `RetryExhausted`.
    pub exhausted: bool,
}

impl Layers {
    /// `KernelProgram::lower` (no validation, as the program cache
    /// does); call [`Layers::lower_vertical`] before vertical runs.
    #[must_use]
    pub fn lower(net: &Network, program: &Program) -> Layers {
        Layers {
            machine: BspMachine::new(&net.factor, net.r),
            kernel: Arc::new(KernelProgram::lower(&program.0)),
            vertical: None,
            scratch: ExecScratch::new(),
            pool: ScratchPool::new(),
            vpool: VerticalPool::new(),
        }
    }

    /// `VerticalProgram::lower`.
    pub fn lower_vertical(&mut self) {
        self.vertical = Some(VerticalProgram::lower(Arc::clone(&self.kernel)));
    }

    /// Round classes and operation counts.
    #[must_use]
    pub fn shape(&self) -> KernelShape {
        let k = &self.kernel;
        KernelShape {
            compare_rounds: k.compare_rounds(),
            route_rounds: k.route_rounds(),
            par_rounds: (0..k.rounds())
                .filter(|&ri| {
                    k.class(ri) == RoundClass::Compare && k.round_len(ri) >= KERNEL_PAR_THRESHOLD
                })
                .count(),
            cx_pairs: k.cx_pair_count(),
            micro_ops: k.micro_op_count(),
            word_ops: self.vertical.as_ref().map_or(0, VerticalProgram::word_ops),
        }
    }

    /// `BspMachine::run_kernel` (serial) with warm scratch.
    pub fn run_serial(&mut self, keys: &mut [u64]) {
        self.machine
            .run_kernel(keys, &self.kernel, &mut self.scratch);
    }

    /// `BspMachine::run_kernel_parallel` with warm scratch.
    pub fn run_parallel(&mut self, keys: &mut [u64]) {
        self.machine
            .run_kernel_parallel(keys, &self.kernel, &mut self.scratch);
    }

    /// `BspMachine::run_kernel_batch` with a warm pool.
    pub fn run_kernel_batch(&mut self, batch: &mut [Vec<u64>]) {
        self.machine
            .run_kernel_batch(batch, &self.kernel, &mut self.pool);
    }

    /// `BspMachine::run_vertical_batch` with a warm pool.
    ///
    /// # Panics
    ///
    /// Panics unless [`Layers::lower_vertical`] ran first.
    pub fn run_vertical_batch(&mut self, batch: &mut [Vec<u64>]) {
        let vertical = self.vertical.as_ref().expect("lower_vertical runs first");
        self.machine
            .run_vertical_batch(batch, vertical, &mut self.vpool);
    }

    /// `BspMachine::run_kernel_with_faults` under `plan` forked for
    /// `lane` and attempt 0, exactly as the service's first attempt.
    pub fn run_with_faults(
        &mut self,
        keys: &mut [u64],
        plan: &FaultPlan,
        lane: u64,
        policy: &RetryPolicy,
    ) -> FaultRun {
        let plan = plan.fork(lane).fork(0);
        match self.machine.run_kernel_with_faults(
            keys,
            &self.kernel,
            &plan,
            policy,
            &mut self.scratch,
        ) {
            Ok(report) => FaultRun {
                injected: report.injected.len() as u64,
                detections: report.counters.detections,
                restores: report.counters.retries,
                useful_rounds: report.counters.useful_rounds,
                wasted_rounds: report.counters.wasted_rounds,
                ..FaultRun::default()
            },
            Err(e) => FaultRun {
                exhausted: matches!(e, FaultError::RetryExhausted { .. }),
                error: Some(e.to_string()),
                ..FaultRun::default()
            },
        }
    }
}
