//! The threaded sorting service: workers, tickets, the degradation
//! ladder, and in-process submission.
//!
//! [`SortService`] wraps the deterministic [`ServiceCore`] in a
//! `Mutex` + `Condvar`, spawns [`ServiceConfig::workers`] executor
//! threads, and answers each admitted request through a single-use
//! [`Ticket`]. `workers` is the service's parallelism: each worker runs
//! its batch on its own thread through [`BspMachine::serial`] machines,
//! so a batch never spawns threads of its own. Submission is the
//! in-process [`SortService::submit`]; a network front-end would wrap
//! it in its own wire format.
//!
//! # Degradation ladder
//!
//! A batch walks down, never up. Rungs 1 and 2 for clean batches are
//! [`BspMachine::run_clean_batch`]'s choice, the one
//! [`Machine::sort_batch`](pns_simulator::Machine::sort_batch) makes:
//!
//! 1. **Vertical tier** — batches of ≥
//!    [`VERTICAL_MIN_LANES`](pns_simulator::VERTICAL_MIN_LANES) (4)
//!    clean lanes run the column tier
//!    ([`BspMachine::run_vertical_batch`]) in even blocks sized to
//!    stay in L2, on the worker's own thread.
//! 2. **Kernel tier** — smaller clean batches run the flat kernel
//!    ([`BspMachine::run_kernel_batch`]); fault-plan-enabled lanes run
//!    [`BspMachine::run_kernel_with_faults`], whose in-run
//!    checkpoint/retry absorbs transient faults.
//! 3. **Service-level retry** — a lane that exhausts in-run retries is
//!    re-executed from its original input under a *re-forked* fault
//!    plan, after a capped-exponential deterministically-jittered
//!    backoff ([`pns_fault::RetryPolicy::backoff_ns`]), up to
//!    [`ServiceConfig::service_retries`] times.
//! 4. **Serial quarantined lane** — still failing, the lane runs clean
//!    (injection off) and serially; the response is marked `degraded`.
//! 5. **Shed with a typed error** — nothing below this rung: requests
//!    that cannot even be admitted got their typed
//!    [`ServiceError::Rejected`]/[`ServiceError::Timeout`] upstream,
//!    and an executor panic is contained by `catch_unwind` into
//!    [`ServiceError::Internal`]. The service never panics a caller.

use crate::clock::{Clock, SystemClock};
use crate::core::{LaneVerdict, Pending, Poll as CorePoll, ServiceConfig, ServiceCore, ShapeSpec};
use crate::error::{RejectReason, ServiceError};
use crate::stats::ServiceStats;
use pns_fault::FaultPlan;
use pns_graph::Graph;
use pns_obs::{Registry, Tier};
use pns_simulator::bsp::BspMachine;
use pns_simulator::cache::ProgramCache;
use pns_simulator::kernel::{ExecScratch, KernelProgram};
use pns_simulator::select::SorterChoice;
use pns_simulator::vertical::{VerticalPool, VerticalProgram};
use pns_simulator::{check_shape, FaultError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A sorted answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortResponse {
    /// The keys, sorted into snake order over the shape's node ranks.
    pub keys: Vec<u64>,
    /// `true` if the lane fell to the quarantine rung (clean serial
    /// re-run) — correct output, degraded service.
    pub degraded: bool,
    /// Executions the lane took (1 = first try).
    pub attempts: u32,
}

/// One request's reply slot. Single-use: `wait` consumes the ticket.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<SortResponse, ServiceError>>,
}

impl Ticket {
    /// Block until the request resolves. A service that died without
    /// answering yields a typed internal error, not a hang or panic.
    pub fn wait(self) -> Result<SortResponse, ServiceError> {
        self.rx
            .recv()
            .unwrap_or(Err(ServiceError::Internal("service dropped the request")))
    }

    /// Like [`Ticket::wait`] with a wall-clock bound; `None` means the
    /// bound elapsed first (the request is still in flight).
    pub fn wait_for(&self, timeout: Duration) -> Option<Result<SortResponse, ServiceError>> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// Compiled artifacts for one registered shape, shared by all workers.
struct RegisteredShape {
    factor: Graph,
    r: usize,
    /// Display name of the `PG_2` sorter this shape compiled under.
    sorter: &'static str,
    kernel: Arc<KernelProgram>,
    vertical: Arc<VerticalProgram>,
}

/// Builder: register shapes, pick a clock and a fault plan, start.
pub struct ServiceBuilder {
    config: ServiceConfig,
    clock: Arc<dyn Clock>,
    plan: FaultPlan,
    sorter: SorterChoice,
    shapes: Vec<RegisteredShape>,
    cache: Arc<ProgramCache>,
}

impl ServiceBuilder {
    /// A builder with `config`, the system clock, and faults disabled.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        ServiceBuilder {
            config,
            clock: Arc::new(SystemClock::new()),
            plan: FaultPlan::disabled(),
            sorter: SorterChoice::Auto,
            shapes: Vec::new(),
            cache: Arc::new(ProgramCache::new()),
        }
    }

    /// The store [`ServiceBuilder::register_shape`] compiles and lowers
    /// through, fresh for each builder. Build a
    /// [`Machine`](pns_simulator::Machine) over it to sort the same
    /// shapes in-process without compiling them a second time: the
    /// machine and the service then share one program and its kernel
    /// and vertical forms, whichever is built first.
    #[must_use]
    pub fn program_cache(&self) -> &Arc<ProgramCache> {
        &self.cache
    }

    /// Use `clock` for every time-dependent decision.
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Inject faults per `plan` (forked per request and per service
    /// retry attempt, so every execution draws fresh decisions).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Pick the `PG_2` base sorter for shapes registered **after** this
    /// call. The default, [`SorterChoice::Auto`], scores every candidate
    /// per shape with routing-aware executed steps and compiles the
    /// winner — dense factors get the shallow multiway n-sorter, sparse
    /// ones keep adjacent-comparator schedules.
    #[must_use]
    pub fn sorter(mut self, choice: SorterChoice) -> Self {
        self.sorter = choice;
        self
    }

    /// Register the product network `factor^r`; requests reference the
    /// returned shape id. The program and its kernel and vertical forms
    /// come from [`ServiceBuilder::program_cache`], compiled and lowered
    /// there on the first request for the shape, and the program is
    /// validated against the machine model before the shape is
    /// accepted.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Internal`] when the shape is unusable —
    /// configuration errors are typed, not panics: the message of
    /// [`check_shape`] when the algorithm cannot sort on `factor^r`,
    /// `"shape compilation panicked"` if compiling or lowering panics,
    /// and `"shape failed to lower"` if the compiled program fails
    /// validation.
    pub fn register_shape(mut self, factor: &Graph, r: usize) -> Result<Self, ServiceError> {
        check_shape(factor, r).map_err(ServiceError::Internal)?;
        // Compilation is infallible past the checks above; the
        // catch_unwind is the configuration-time never-panic backstop.
        let artifacts = catch_unwind(AssertUnwindSafe(|| {
            let sorter = self.sorter.resolve(factor);
            let (program, kernel, vertical) = self.cache.get_or_compile_vertical(factor, r, sorter);
            BspMachine::new(factor, r).try_validate(&program)?;
            Ok::<_, pns_simulator::bsp::ProgramError>((sorter.name(), kernel, vertical))
        }))
        .map_err(|_| ServiceError::Internal("shape compilation panicked"))?;
        let (sorter, kernel, vertical) =
            artifacts.map_err(|_| ServiceError::Internal("shape failed to lower"))?;
        self.shapes.push(RegisteredShape {
            factor: factor.clone(),
            r,
            sorter,
            kernel,
            vertical,
        });
        Ok(self)
    }

    /// Spawn the workers and open for business.
    #[must_use]
    pub fn start(self) -> SortService {
        let specs: Vec<ShapeSpec> = self
            .shapes
            .iter()
            .map(|s| ShapeSpec {
                expected_keys: s.kernel.shape().len(),
            })
            .collect();
        let workers = self.config.workers.max(1);
        let shared = Arc::new(Shared {
            retry_policy: self.config.retry_policy,
            service_retries: self.config.service_retries,
            state: Mutex::new(State {
                core: ServiceCore::new(self.config, specs),
                responders: HashMap::new(),
            }),
            cv: Condvar::new(),
            clock: self.clock,
            plan: self.plan,
            shapes: self.shapes,
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        SortService {
            shared,
            workers: Some(handles),
        }
    }
}

type Responder = SyncSender<Result<SortResponse, ServiceError>>;

struct State {
    core: ServiceCore,
    responders: HashMap<u64, Responder>,
}

struct Shared {
    /// [`ServiceConfig::retry_policy`] and
    /// [`ServiceConfig::service_retries`], copied at start (they never
    /// change after it), so a batch reads them without the state lock.
    retry_policy: pns_fault::RetryPolicy,
    service_retries: u32,
    state: Mutex<State>,
    cv: Condvar,
    clock: Arc<dyn Clock>,
    plan: FaultPlan,
    shapes: Vec<RegisteredShape>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Lock the state, recovering from poison: the state is a queue of
    /// owned values plus counters, never left torn by a panicking
    /// holder (executors run outside the lock behind `catch_unwind`).
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The in-process sorting service. Submit through
/// [`SortService::submit`], read metrics through
/// [`SortService::export_metrics`], and drop (or
/// [`SortService::shutdown`]) to stop: queued requests are answered
/// with [`RejectReason::Shutdown`], workers join, nothing leaks.
pub struct SortService {
    shared: Arc<Shared>,
    workers: Option<Vec<JoinHandle<()>>>,
}

impl SortService {
    /// Start building a service.
    #[must_use]
    pub fn builder(config: ServiceConfig) -> ServiceBuilder {
        ServiceBuilder::new(config)
    }

    /// The display name of the `PG_2` sorter shape `shape` compiled
    /// under (auto-selection makes this per-shape; useful for
    /// dashboards and tests).
    #[must_use]
    pub fn shape_sorter(&self, shape: usize) -> Option<&'static str> {
        self.shared.shapes.get(shape).map(|s| s.sorter)
    }

    /// Submit `keys` for sorting on registered shape `shape` on behalf
    /// of `tenant`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Rejected`] when admission turns the request
    /// away; the typed reason names the rung.
    pub fn submit(
        &self,
        tenant: u32,
        shape: usize,
        keys: Vec<u64>,
    ) -> Result<Ticket, ServiceError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(RejectReason::Shutdown.into());
        }
        let now = self.shared.clock.now_ns();
        let mut state = self.shared.lock();
        let id = state.core.submit(tenant, shape, keys, now)?;
        let (tx, rx) = sync_channel(1);
        state.responders.insert(id, tx);
        drop(state);
        self.shared.cv.notify_one();
        Ok(Ticket { rx })
    }

    /// Snapshot the service metrics.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.shared.lock().core.stats.clone()
    }

    /// Export the current metrics into `registry` (see
    /// [`ServiceStats::export_to`]). The state lock is held only for the
    /// snapshot, not for the export.
    pub fn export_metrics(&self, registry: &mut Registry) {
        self.stats().export_to(registry);
    }

    /// Stop accepting work, answer everything queued with
    /// [`RejectReason::Shutdown`], and join the workers. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(handles) = self.workers.take() {
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-worker scratch: one machine per shape (the `EventLogger` inside
/// is thread-local, so machines are per-thread), plus reusable scratch.
/// The machines are serial: the workers are the service's parallelism.
struct WorkerCtx {
    machines: Vec<BspMachine>,
    vertical_pool: VerticalPool<u64>,
    exec_scratch: ExecScratch<u64>,
}

fn worker_loop(shared: &Shared) {
    let mut ctx = WorkerCtx {
        machines: shared
            .shapes
            .iter()
            .map(|s| BspMachine::new(&s.factor, s.r).serial())
            .collect(),
        vertical_pool: VerticalPool::new(),
        exec_scratch: ExecScratch::new(),
    };
    loop {
        let mut state = shared.lock();
        let now = shared.clock.now_ns();

        // Deadline sweep first: expired requests get their typed
        // Timeout before any batch forms.
        let expired = state.core.take_expired(now);
        if !expired.is_empty() {
            let mut replies = Vec::with_capacity(expired.len());
            for p in expired {
                if let Some(tx) = state.responders.remove(&p.id) {
                    replies.push((
                        tx,
                        Err(ServiceError::Timeout {
                            waited_ns: now.saturating_sub(p.enqueued_ns),
                        }),
                    ));
                }
            }
            drop(state);
            for (tx, reply) in replies {
                let _ = tx.try_send(reply);
            }
            continue;
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            let drained = state.core.drain_all();
            let mut replies = Vec::with_capacity(drained.len());
            for p in drained {
                if let Some(tx) = state.responders.remove(&p.id) {
                    replies.push(tx);
                }
            }
            drop(state);
            for tx in replies {
                let _ = tx.try_send(Err(RejectReason::Shutdown.into()));
            }
            return;
        }

        match state.core.poll(now) {
            CorePoll::Ready(batch) => {
                let shape = batch.shape;
                drop(state);
                let (outcomes, tier) = execute_batch(shared, &mut ctx, shape, batch.entries);
                let done = shared.clock.now_ns();
                let mut state = shared.lock();
                if let Some(tier) = tier {
                    state.core.note_batch(tier == Tier::Vertical);
                }
                let mut replies = Vec::with_capacity(outcomes.len());
                for (lane, verdict, reply) in outcomes {
                    state.core.complete(&lane, verdict, done);
                    if let Some(tx) = state.responders.remove(&lane.id) {
                        replies.push((tx, reply));
                    }
                }
                drop(state);
                for (tx, reply) in replies {
                    let _ = tx.try_send(reply);
                }
            }
            CorePoll::Wait(wake_ns) => {
                // Bounded block: wake at the coalescing deadline, on a
                // new submission, or shortly regardless (manual clocks
                // advance without notifying the condvar).
                let wait = wake_ns.saturating_sub(now).clamp(10_000, 5_000_000);
                let (guard, _) = shared
                    .cv
                    .wait_timeout(state, Duration::from_nanos(wait))
                    .unwrap_or_else(PoisonError::into_inner);
                drop(guard);
            }
            CorePoll::Idle => {
                let (guard, _) = shared
                    .cv
                    .wait_timeout(state, Duration::from_millis(20))
                    .unwrap_or_else(PoisonError::into_inner);
                drop(guard);
            }
        }
    }
}

type LaneOutcome = (Pending, LaneVerdict, Result<SortResponse, ServiceError>);

/// Run one coalesced batch down the degradation ladder, without the
/// state lock. Returns the lanes' outcomes and the tier the batch ran
/// on ([`Tier::Vertical`] or [`Tier::Kernel`], which fault-plan lanes
/// run on; `None` when it ran on none), which the worker records under
/// its completion lock. Never panics a caller: compute runs behind
/// `catch_unwind` with the request identities held *outside* the
/// closure, so a contained panic still answers every lane with a typed
/// internal error (counted as a failure by the breaker) instead of
/// stranding its ticket.
fn execute_batch(
    shared: &Shared,
    ctx: &mut WorkerCtx,
    shape: usize,
    mut entries: Vec<Pending>,
) -> (Vec<LaneOutcome>, Option<Tier>) {
    let Some((registered, machine)) = shared.shapes.get(shape).zip(ctx.machines.get(shape)) else {
        // Unknown shape past admission: answer every lane, typed.
        let outcomes = entries
            .into_iter()
            .map(|p| {
                (
                    p,
                    LaneVerdict::Failed,
                    Err(ServiceError::Internal("batch for unregistered shape")),
                )
            })
            .collect();
        return (outcomes, None);
    };

    if !shared.plan.is_enabled() {
        // Clean fast path: rungs 1–2, whichever the batch's width calls
        // for. Keys move into the closure; identities stay out.
        let mut batch: Vec<Vec<u64>> = entries
            .iter_mut()
            .map(|p| std::mem::take(&mut p.keys))
            .collect();
        let sorted = catch_unwind(AssertUnwindSafe(|| {
            let tier =
                machine.run_clean_batch(&mut batch, &registered.vertical, &mut ctx.vertical_pool);
            (batch, tier)
        }))
        .ok();
        let tier = sorted.as_ref().map(|&(_, tier)| tier);
        let outcomes = match sorted {
            Some((batch, _)) => entries
                .into_iter()
                .zip(batch)
                .map(|(p, keys)| {
                    (
                        p,
                        LaneVerdict::Sorted {
                            degraded: false,
                            retried: false,
                        },
                        Ok(SortResponse {
                            keys,
                            degraded: false,
                            attempts: 1,
                        }),
                    )
                })
                .collect(),
            None => entries
                .into_iter()
                .map(|p| {
                    (
                        p,
                        LaneVerdict::Failed,
                        Err(ServiceError::Internal("executor panicked")),
                    )
                })
                .collect(),
        };
        return (outcomes, tier);
    }

    // Fault-enabled path: rung 2 per lane with in-run retries, then the
    // service-level rungs 3–4. Contained per lane, so one panicking
    // lane cannot take its batch-mates down with it.
    let outcomes = entries
        .into_iter()
        .map(|p| {
            let (verdict, reply) = catch_unwind(AssertUnwindSafe(|| {
                execute_fault_lane(shared, registered, machine, &mut ctx.exec_scratch, &p)
            }))
            .unwrap_or((
                LaneVerdict::Failed,
                Err(ServiceError::Internal("executor panicked")),
            ));
            (p, verdict, reply)
        })
        .collect();
    (outcomes, Some(Tier::Kernel))
}

/// One lane down rungs 2–4 of the ladder.
fn execute_fault_lane(
    shared: &Shared,
    registered: &RegisteredShape,
    machine: &BspMachine,
    scratch: &mut ExecScratch<u64>,
    lane: &Pending,
) -> (LaneVerdict, Result<SortResponse, ServiceError>) {
    let (policy, service_retries) = (shared.retry_policy, shared.service_retries);
    let base = shared.plan.fork(lane.id);
    let mut attempts: u32 = 0;
    for attempt in 0..=service_retries {
        attempts += 1;
        // Re-fork per attempt: a deterministic plan replays the same
        // faults on the same input, so an honest retry must draw fresh
        // decisions.
        let attempt_plan = base.fork(u64::from(attempt));
        let mut keys = lane.keys.clone();
        match machine.run_kernel_with_faults(
            &mut keys,
            &registered.kernel,
            &attempt_plan,
            &policy,
            scratch,
        ) {
            Ok(_report) => {
                return (
                    LaneVerdict::Sorted {
                        degraded: false,
                        retried: attempt > 0,
                    },
                    Ok(SortResponse {
                        keys,
                        degraded: false,
                        attempts,
                    }),
                );
            }
            Err(FaultError::RetryExhausted { .. }) if attempt < service_retries => {
                // Rung 3: back off deterministically, then retry.
                let delay = policy.backoff_ns(attempt + 1);
                if delay > 0 {
                    std::thread::sleep(Duration::from_nanos(delay));
                }
            }
            Err(FaultError::RetryExhausted { .. }) => break,
            Err(other) => {
                // Wrong key count / invalid program: not recoverable by
                // retrying — typed error back to the caller.
                return (LaneVerdict::Failed, Err(ServiceError::Fault(other)));
            }
        }
    }
    // Rung 4: quarantine — clean serial run from the original input.
    attempts += 1;
    let mut keys = lane.keys.clone();
    match machine.run_kernel_with_faults(
        &mut keys,
        &registered.kernel,
        &FaultPlan::disabled(),
        &policy,
        scratch,
    ) {
        Ok(_) => (
            LaneVerdict::Sorted {
                degraded: true,
                retried: true,
            },
            Ok(SortResponse {
                keys,
                degraded: true,
                attempts,
            }),
        ),
        Err(e) => (LaneVerdict::Failed, Err(ServiceError::Fault(e))),
    }
}
