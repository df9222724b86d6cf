//! Fault-injecting execution with round-level checkpoint/retry.
//!
//! This module runs a [`CompiledProgram`] under a [`FaultPlan`]: every
//! operation site may suffer a *transient* fault (each site fires at
//! most once per run), and the executor defends itself with the
//! program's stage certificates:
//!
//! 1. **Injection** — [`FaultPlan::decide`] is consulted per site; a
//!    fired site perturbs the op's semantics ([`FaultKind::FlipCompare`]
//!    inverts the swap decision, [`FaultKind::DropRoute`]
//!    delivers a stale clone of the *receiver's* resident key instead of
//!    the payload, [`FaultKind::StallResolve`] discards the arrived
//!    value and keeps the resident key). All three preserve the
//!    transit-slot occupancy schedule, so the machine-model discipline
//!    validated by `try_validate` still holds and transit is empty at
//!    every certificate boundary.
//! 2. **Detection** — at each [`CertPoint`] the executor checks the
//!    stage invariant (every `dims`-dimensional subgraph over the low
//!    dimensions snake-sorted): in full via
//!    [`full_subgraph_certificate`] when
//!    [`RetryPolicy::recheck_depth`] is 0, or by `recheck_depth` sampled
//!    adjacent-pair probes otherwise. The **final** certificate is
//!    always checked in full. Every certificate also compares the keys'
//!    multiset fingerprint with the input's, since a dropped relay or a
//!    stalled resolve can duplicate one key and lose another in an
//!    order the stage invariant accepts. So an `Ok` return implies the
//!    output is snake-sorted and, but for a fingerprint collision, a
//!    permutation of the input.
//! 3. **Recovery** — the key vector is checkpointed at each segment
//!    boundary (transit is provably empty there, so keys are the whole
//!    state); a failed check restores the checkpoint and re-runs the
//!    segment, up to [`RetryPolicy::max_retries`] times. A retry
//!    executes exactly the sites of its segment's first attempt, and
//!    every one of them the plan fires already fired there, so a
//!    retried segment executes clean — the analogue of repairing a
//!    faulty link between synchronous phases of a periodic network.
//!
//! Both executors share `checkpoint_retry_loop`, the crate's only
//! checkpoint/retry loop, and differ only in how they run a segment.
//! Both read a site's op from the same place: the program's rounds,
//! which a lowered kernel shares rather than copies, so a site
//! `(round, op)` names one op on either path. The interpreter
//! ([`BspMachine::run_with_faults`], the reference) asks the plan about
//! every op of every attempt and keeps a set of fired sites. The kernel
//! ([`BspMachine::run_kernel_with_faults`]) asks once, on a segment's
//! first attempt, and gets the segment's fault list. A list of
//! comparator flips runs the segment's clean runs, one pass up to and
//! including each flipped round, and then swaps the keys of that
//! round's flipped compare-exchanges; a list holding a
//! [`FaultKind::DropRoute`] or [`FaultKind::StallResolve`] replays the
//! segment's route rounds through transit slots; retries run clean, one
//! pass per segment. Every op-by-op replay (the interpreter's rounds,
//! clean or faulted, and the kernel's route replays) is one function,
//! `Transit::round`.
//!
//! [`BspMachine::run_batch_with_faults`] runs the interpreter's loop
//! lane by lane and adds graceful degradation: a lane that exhausts its
//! retries is *quarantined* — its original input is restored and
//! re-sorted serially without injection — while healthy lanes commit
//! their (cheaper) checkpointed runs. The batch never panics and returns
//! one `Result` per lane. No tier runs faults over a batch's lanes
//! together: the service sends each faulted lane through
//! [`BspMachine::run_kernel_with_faults`].
//!
//! When the plan is disabled, each executor takes its clean path (the
//! interpreter's serial rounds, the kernel's run table): no decision
//! hashing, no checkpoints, no certificate checks (fault-free execution
//! of a validated program is correct by construction), which keeps the
//! disabled-injection overhead within noise.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use pns_fault::detect::{full_subgraph_certificate, sampled_subgraph_certificate};
use pns_fault::{FaultKind, FaultPlan, FaultSite, OpClass, RetryPolicy};
use pns_obs::{Event, SpanClass, Stage, Tier};
use pns_order::radix::Shape;

use crate::bsp::{swaps, BspMachine, CertPoint, CompiledProgram, Op, ProgramError};
use crate::kernel::{exec_kernel, exec_table, ExecScratch, KernelProgram, Keys, RoundClass};
use pns_core::RetryCounters;

/// Why a fault-tolerant run could not produce a sorted vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The key vector does not have one key per node.
    WrongKeyCount {
        /// Keys the machine's shape requires.
        expected: u64,
        /// Keys actually supplied.
        got: usize,
    },
    /// The program failed static validation; nothing was executed.
    Invalid(ProgramError),
    /// A segment's certificate still failed after the last permitted
    /// retry. The key vector is left in the (corrupted) state of the
    /// final attempt; batch execution quarantines the lane instead of
    /// surfacing this.
    RetryExhausted {
        /// Boundary round of the segment that could not be repaired.
        round: u64,
        /// Attempts executed (initial run plus retries).
        attempts: u32,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::WrongKeyCount { expected, got } => {
                write!(f, "expected {expected} keys (one per node), got {got}")
            }
            FaultError::Invalid(e) => write!(f, "invalid program: {e}"),
            FaultError::RetryExhausted { round, attempts } => write!(
                f,
                "certificate at round {round} still failing after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProgramError> for FaultError {
    fn from(e: ProgramError) -> Self {
        FaultError::Invalid(e)
    }
}

/// One fault that actually fired during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Where it fired.
    pub site: FaultSite,
    /// What fired.
    pub kind: FaultKind,
}

/// One failed certificate check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Boundary round the certificate guards.
    pub round: u64,
    /// Subgraph dimensionality the certificate checked.
    pub dims: u32,
    /// Whether the boundary checked its order by sampled probes rather
    /// than the full certificate (the multiset check is always whole).
    pub sampled: bool,
}

/// One checkpoint restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retry {
    /// Round the re-execution restarts from (the checkpoint).
    pub round: u64,
    /// Attempt number for the segment (1-based).
    pub attempt: u32,
}

/// What happened during a fault-tolerant run. Returned by
/// [`BspMachine::run_with_faults`] on success; batch lanes return one
/// per lane (with [`FaultReport::quarantined`] marking fallbacks).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Total rounds executed, useful and wasted
    /// (= `counters.total_rounds()`).
    pub rounds: u64,
    /// Every fault that fired, in execution order.
    pub injected: Vec<InjectedFault>,
    /// Every failed certificate check, in execution order.
    pub detections: Vec<Detection>,
    /// Every checkpoint restore, in execution order.
    pub retries: Vec<Retry>,
    /// Whether the lane fell back to a clean serial re-run (batch
    /// execution only; always `false` for single runs).
    pub quarantined: bool,
    /// Useful/wasted round accounting for step-inflation reporting.
    pub counters: RetryCounters,
}

/// A program segment between certificate boundaries.
struct Segment {
    /// First round (inclusive).
    start: usize,
    /// One past the last round.
    end: usize,
    /// The certificate closing the segment: `(boundary round, dims,
    /// is_final)`. `None` for an uncertified tail (hand-built programs
    /// whose cert points do not reach the end).
    check: Option<(u64, u32, bool)>,
}

/// Split a program into checkpointable segments at its certificate
/// boundaries. Works off the certificate list and the round count
/// alone, so interpreted and lowered programs (which share both, 1:1)
/// segment identically. Programs without certificates (e.g. built via
/// `CompiledProgram::from_rounds`) become a single unchecked segment —
/// the executor then runs open-loop and cannot detect anything.
fn segments(certs: &[CertPoint], rounds: usize) -> Vec<Segment> {
    let mut out = Vec::with_capacity(certs.len() + 1);
    let mut start = 0usize;
    for (i, c) in certs.iter().enumerate() {
        out.push(Segment {
            start,
            end: c.round as usize,
            check: Some((c.round, c.dims, i == certs.len() - 1)),
        });
        start = c.round as usize;
    }
    if start < rounds || certs.is_empty() {
        out.push(Segment {
            start,
            end: rounds,
            check: None,
        });
    }
    out
}

/// The hasher behind [`multiset_fingerprint`]: one folded multiply per
/// word written, about 0.8 ns per `u64` key against 7–9 ns for `std`'s
/// SipHash (release, 2-vCPU x86-64 host). The fingerprint needs no
/// flooding resistance: its inputs are the caller's own keys, and a
/// collision only lets through a corrupted lane that the order
/// certificate already passed.
struct KeyHasher(u64);

impl KeyHasher {
    /// Odd multiplier, from the SplitMix64 generator.
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The 128-bit product of `x` and [`KeyHasher::MUL`], high half
    /// folded onto the low, so every input bit can reach every output
    /// bit.
    fn fold(x: u64) -> u64 {
        let product = u128::from(x) * u128::from(Self::MUL);
        (product >> 64) as u64 ^ product as u64
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = Self::fold(self.0 ^ x);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An order-independent fingerprint of `keys` as a multiset: the
/// wrapping sum of one 64-bit mix per key. It is O(n), allocates
/// nothing, and equal multisets always agree, so a run that loses or
/// duplicates a key is caught unless the mixes of the keys it lost and
/// gained happen to sum to the same value.
fn multiset_fingerprint<K: Hash>(keys: &[K]) -> u64 {
    keys.iter().fold(0u64, |sum, key| {
        // A nonzero start, so that a zero key does not mix to zero.
        let mut hasher = KeyHasher(KeyHasher::MUL);
        key.hash(&mut hasher);
        sum.wrapping_add(hasher.finish())
    })
}

/// Apply one op under an (optional) fired fault. Semantics match
/// [`BspMachine::run`]'s except at fired sites; the transit occupancy
/// schedule is identical either way. Every op-by-op replay applies its
/// ops here ([`Transit::round`]), so the interpreter's and the kernel's
/// fault semantics cannot drift apart.
fn apply_op_faulty<K: Ord + Clone>(
    op: &Op,
    fault: Option<FaultKind>,
    keys: &mut [K],
    transit: &mut [[Option<K>; 2]],
    incoming: &mut Vec<(usize, usize, K)>,
) {
    match *op {
        Op::CompareExchange { a, b, min_to_a } => {
            // A flip inverts the swap decision.
            let (ai, bi) = (a as usize, b as usize);
            if swaps(&keys[ai], &keys[bi], min_to_a) != fault.is_some() {
                keys.swap(ai, bi);
            }
        }
        Op::Move {
            from,
            to,
            slot,
            from_key,
        } => {
            let (fi, si) = (from as usize, slot as usize);
            // The source slot is consumed even when the payload is
            // dropped — the wire fired, the message was lost.
            let payload = if from_key {
                keys[fi].clone()
            } else {
                transit[fi][si].take().expect("validated: slot occupied")
            };
            let payload = if fault.is_some() {
                // Dropped in flight: the receiver's slot latches a
                // stale copy of its own resident key.
                keys[to as usize].clone()
            } else {
                payload
            };
            incoming.push((to as usize, si, payload));
        }
        Op::Resolve {
            node,
            slot,
            keep_min,
        } => {
            let (ni, si) = (node as usize, slot as usize);
            let arrived = transit[ni][si].take().expect("validated: slot occupied");
            if fault.is_none() {
                let resident = &mut keys[ni];
                let keep_arrived = if keep_min {
                    arrived < *resident
                } else {
                    arrived > *resident
                };
                if keep_arrived {
                    *resident = arrived;
                }
            }
            // Stalled: the arrived value is discarded, the resident
            // key survives; the slot is still cleared on schedule.
        }
    }
}

/// The class of sites `op` is: what [`FaultPlan::decide`] is asked
/// about it, on every path.
fn op_class(op: &Op) -> OpClass {
    match op {
        Op::CompareExchange { .. } => OpClass::Compare,
        Op::Move { .. } => OpClass::Route,
        Op::Resolve { .. } => OpClass::Resolve,
    }
}

/// The transit slots and deferred-move buffer of an op-by-op replay:
/// the state the machine model keeps beside the keys.
pub(crate) struct Transit<K> {
    slots: Vec<[Option<K>; 2]>,
    incoming: Vec<(usize, usize, K)>,
}

impl<K: Ord + Clone> Transit<K> {
    /// Empty slots for `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Transit {
            slots: vec![[None, None]; nodes],
            incoming: Vec::new(),
        }
    }

    /// Apply `round`'s ops in order through [`apply_op_faulty`], op `oi`
    /// under the fault `fault(oi, op)` returns, then commit the round's
    /// moves: moves read start-of-round transit state, as in
    /// [`BspMachine::run`], unchecked. The crate's only op-by-op replay:
    /// the interpreter's fault rounds, every clean interpreted run of
    /// the fault executors (a disabled plan, a quarantine re-run) and
    /// the kernel's route replays.
    pub(crate) fn round(
        &mut self,
        keys: &mut [K],
        round: &[Op],
        mut fault: impl FnMut(usize, &Op) -> Option<FaultKind>,
    ) {
        for (oi, op) in round.iter().enumerate() {
            apply_op_faulty(op, fault(oi, op), keys, &mut self.slots, &mut self.incoming);
        }
        for (to, slot, payload) in self.incoming.drain(..) {
            self.slots[to][slot] = Some(payload);
        }
    }

    /// Whether every slot is empty, as at every certificate boundary.
    fn is_empty(&self) -> bool {
        self.slots.iter().all(|t| t[0].is_none() && t[1].is_none())
    }
}

/// Run a whole validated program on one key vector, fault-free and
/// unchecked, one round after another.
fn exec_program<K: Ord + Clone>(keys: &mut [K], program: &CompiledProgram) {
    let mut transit = Transit::new(keys.len());
    for round in program.round_ops() {
        transit.round(keys, round, |_, _| None);
    }
}

/// Ask `plan` about every site of the kernel rounds `rounds`, in op
/// order, and append the faults that fire to `out`: the segment's
/// fault list, in the order the interpreter records them. The sites are
/// the program's own ops, which the kernel shares.
fn decide_segment(
    kernel: &KernelProgram,
    plan: &FaultPlan,
    rounds: Range<usize>,
    out: &mut Vec<InjectedFault>,
) {
    for ri in rounds {
        for (oi, op) in kernel.ops[ri].iter().enumerate() {
            let site = FaultSite {
                round: ri as u64,
                op: oi as u64,
            };
            if let Some(kind) = plan.decide(site, op_class(op)) {
                out.push(InjectedFault { site, kind });
            }
        }
    }
}

/// Run the kernel rounds `rounds` with `faults` (their fired sites, in
/// op order) applied.
///
/// Without `replay`, every fault is a [`FaultKind::FlipCompare`], and
/// each round runs its clean runs and then swaps the keys of its
/// flipped compare-exchanges. A flipped compare-exchange swaps exactly
/// when the clean one does not, so one unconditional swap after the
/// clean step gives the flipped result, ties included; the round's
/// other runs touch neither key. The clean runs are the full table's:
/// a flip breaks the level invariant the pruned table relies on.
/// Paired relays stay exact: pairing depends on which keys ops write,
/// and a flipped compare-exchange writes the same two keys.
///
/// With `replay`, route rounds replay their ops through transit slots
/// ([`Transit::round`]), so dropped and stalled relays take effect;
/// compare rounds still run clean and swap.
///
/// Rounds that neither replay nor swap run in stretches, each one clean
/// pass: a stretch ends before a replayed round, or with a flipped
/// round, whose swaps follow the pass.
fn exec_segment_faulty<K: Ord + Clone>(
    keys: &mut [K],
    kernel: &KernelProgram,
    rounds: Range<usize>,
    mut faults: &[InjectedFault],
    mut replay: Option<&mut Transit<K>>,
) {
    let mut clean_from = rounds.start;
    for ri in rounds.clone() {
        let here = faults
            .iter()
            .take_while(|f| f.site.round == ri as u64)
            .count();
        let (round_faults, rest) = faults.split_at(here);
        faults = rest;
        match replay.as_deref_mut() {
            Some(replay) if kernel.class(ri) == RoundClass::Route => {
                exec_table::<K, Keys>(keys, &kernel.full, clean_from..ri, 1);
                let mut round_faults = round_faults.iter().peekable();
                replay.round(keys, &kernel.ops[ri], |oi, _| {
                    round_faults
                        .next_if(|f| f.site.op == oi as u64)
                        .map(|f| f.kind)
                });
            }
            _ if !round_faults.is_empty() => {
                exec_table::<K, Keys>(keys, &kernel.full, clean_from..ri + 1, 1);
                for f in round_faults {
                    // A flip fires only at a compare-exchange.
                    if let Op::CompareExchange { a, b, .. } = kernel.ops[ri][f.site.op as usize] {
                        keys.swap(a as usize, b as usize);
                    }
                }
            }
            _ => continue,
        }
        clean_from = ri + 1;
    }
    exec_table::<K, Keys>(keys, &kernel.full, clean_from..rounds.end, 1);
    debug_assert!(
        replay.is_none_or(|r| r.is_empty()),
        "transit must drain at certificate boundaries"
    );
}

/// Checkpoint/retry loop over an abstract faulty segment executor, free
/// of `&BspMachine` so batch lanes can run it from worker threads
/// without sharing the (single-threaded) event logger. It is the
/// crate's only code that checkpoints, checks certificates, retries and
/// restores: the interpreter and kernel paths both drive it —
/// segmentation, checkpoints, certificate and multiset checks, probe
/// seeds, backoff, restores and accounting are shared code, so the two
/// paths can only differ in how they run a segment (and that is pinned
/// by the differential suite).
/// `run_segment(keys, rounds, attempt, injected)` runs the rounds
/// `rounds` at `attempt` (0 first) and appends the faults that fire to
/// `injected`. Returns the report plus `Some((boundary, attempts))` if
/// a segment exhausted its retries.
///
/// The input's multiset fingerprint is taken once, before the first
/// segment. A certificate fails when the order check fails or when the
/// keys' fingerprint no longer matches the input's; the fingerprint is
/// computed only once the order check passed.
fn checkpoint_retry_loop<K: Ord + Clone + Hash>(
    shape: Shape,
    keys: &mut [K],
    certs: &[CertPoint],
    total_rounds: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    mut run_segment: impl FnMut(&mut [K], Range<usize>, u32, &mut Vec<InjectedFault>),
) -> (FaultReport, Option<(u64, u32)>) {
    let mut report = FaultReport::default();
    let input_fingerprint = multiset_fingerprint(keys);
    for seg in segments(certs, total_rounds) {
        // Transit is empty at segment boundaries (relays complete within
        // a stage), so the key vector is the entire checkpoint.
        let checkpoint: Option<Vec<K>> =
            (policy.max_retries > 0 && seg.check.is_some()).then(|| keys.to_vec());
        let seg_rounds = (seg.end - seg.start) as u64;
        let mut attempt: u32 = 0;
        loop {
            run_segment(keys, seg.start..seg.end, attempt, &mut report.injected);
            // Checks produce the failing certificate directly (rather
            // than a bool re-paired with `seg.check` afterwards), so the
            // failure path cannot be reached without one — no panic path.
            let failed_check = match seg.check {
                None => None,
                Some((boundary, dims, is_final)) => {
                    // The final certificate is always checked in full —
                    // an Ok return must imply a snake-sorted output.
                    let ordered = if !is_final && policy.recheck_depth > 0 {
                        sampled_subgraph_certificate(
                            shape,
                            keys,
                            dims as usize,
                            policy.recheck_depth,
                            plan.probe_seed(boundary, u64::from(attempt)),
                        )
                    } else {
                        full_subgraph_certificate(shape, keys, dims as usize)
                    };
                    let ok = ordered && multiset_fingerprint(keys) == input_fingerprint;
                    (!ok).then_some((boundary, dims, is_final))
                }
            };
            let Some((boundary, dims, is_final)) = failed_check else {
                report.counters.useful_rounds += seg_rounds;
                break;
            };
            report.detections.push(Detection {
                round: boundary,
                dims,
                sampled: !is_final && policy.recheck_depth > 0,
            });
            report.counters.detections += 1;
            report.counters.wasted_rounds += seg_rounds;
            // Retrying requires the checkpoint taken at the segment
            // boundary; it exists whenever max_retries > 0 and the
            // segment is certified (= this branch). Degrade to
            // retry-exhausted rather than panic if that ever breaks.
            let retryable = checkpoint
                .as_deref()
                .filter(|_| attempt < policy.max_retries);
            let Some(restore) = retryable else {
                report.rounds = report.counters.total_rounds();
                return (report, Some((boundary, attempt + 1)));
            };
            attempt += 1;
            // Capped-exponential backoff before the re-execution —
            // zero (no syscall at all) unless the policy enables it.
            let delay_ns = policy.backoff_ns(attempt);
            if delay_ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(delay_ns));
            }
            keys.clone_from_slice(restore);
            report.retries.push(Retry {
                round: seg.start as u64,
                attempt,
            });
            report.counters.retries += 1;
        }
    }
    report.rounds = report.counters.total_rounds();
    (report, None)
}

/// Interpreter fault executor (see [`checkpoint_retry_loop`]): every
/// attempt asks the plan about every op, and the fired set keeps a
/// site from firing twice.
fn exec_with_faults<K: Ord + Clone + Hash>(
    shape: Shape,
    keys: &mut [K],
    program: &CompiledProgram,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> (FaultReport, Option<(u64, u32)>) {
    let rounds = program.round_ops();
    let mut report = FaultReport::default();
    if !plan.is_enabled() {
        // Fast path: plain serial execution, no hashing, no checks.
        exec_program(keys, program);
        report.counters.useful_rounds = rounds.len() as u64;
        report.rounds = rounds.len() as u64;
        return (report, None);
    }
    let mut transit = Transit::new(keys.len());
    let mut fired: HashSet<FaultSite> = HashSet::new();
    checkpoint_retry_loop(
        shape,
        keys,
        program.cert_points(),
        rounds.len(),
        plan,
        policy,
        |keys, seg, _attempt, injected| {
            for ri in seg {
                transit.round(keys, &rounds[ri], |oi, op| {
                    // Transient faults: a site that already fired never
                    // fires again, so a retried segment executes clean.
                    let site = FaultSite {
                        round: ri as u64,
                        op: oi as u64,
                    };
                    if fired.contains(&site) {
                        return None;
                    }
                    let kind = plan.decide(site, op_class(op))?;
                    fired.insert(site);
                    injected.push(InjectedFault { site, kind });
                    Some(kind)
                });
            }
            debug_assert!(
                transit.is_empty(),
                "transit must drain at certificate boundaries"
            );
        },
    )
}

/// Kernel-path fault executor: the same [`checkpoint_retry_loop`] over
/// the kernel's full run table. A disabled plan takes the clean fast
/// path (the full table's compare-exchanges in one pass,
/// allocation-free). Otherwise a segment's first attempt
/// decides its faults once ([`decide_segment`]) and runs
/// [`exec_segment_faulty`]: clean runs plus swaps for a list of flips,
/// a route-round replay through transit slots (allocated then) for a
/// list holding a drop or a stall. Retries run the clean runs.
fn exec_kernel_with_faults<K: Ord + Clone + Hash>(
    shape: Shape,
    keys: &mut [K],
    kernel: &KernelProgram,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> (FaultReport, Option<(u64, u32)>) {
    let mut report = FaultReport::default();
    if !plan.is_enabled() {
        // Fast path: plain clean kernel execution, no hashing, no checks.
        exec_kernel(keys, &kernel.full);
        report.counters.useful_rounds = kernel.rounds() as u64;
        report.rounds = kernel.rounds() as u64;
        return (report, None);
    }
    let mut replay: Option<Transit<K>> = None;
    checkpoint_retry_loop(
        shape,
        keys,
        kernel.cert_points(),
        kernel.rounds(),
        plan,
        policy,
        |keys, seg, attempt, injected| {
            if attempt > 0 {
                // A retry runs the sites of attempt 0, and each that
                // fires fired there: nothing fires again.
                exec_table::<K, Keys>(keys, &kernel.full, seg, 1);
                return;
            }
            let first = injected.len();
            decide_segment(kernel, plan, seg.clone(), injected);
            let faults = &injected[first..];
            let replay = if faults.iter().all(|f| f.kind == FaultKind::FlipCompare) {
                None
            } else {
                let n = keys.len();
                Some(replay.get_or_insert_with(|| Transit::new(n)))
            };
            exec_segment_faulty(keys, kernel, seg, faults, replay);
        },
    )
}

impl BspMachine {
    /// Emit the observability events a finished lane accumulated.
    pub(crate) fn emit_fault_events(&self, report: &FaultReport, lane: Option<u64>) {
        for f in &report.injected {
            self.logger.log(|| Event::FaultInjected {
                round: f.site.round,
                op: f.site.op,
                kind: f.kind.code(),
            });
        }
        for d in &report.detections {
            self.logger.log(|| Event::FaultDetected {
                round: d.round,
                stage: u64::from(d.dims),
                sampled: d.sampled,
            });
        }
        for r in &report.retries {
            self.logger.log(|| Event::RetryRound {
                round: r.round,
                attempt: u64::from(r.attempt),
            });
        }
        if report.quarantined {
            if let Some(lane) = lane {
                self.logger.log(|| Event::LaneQuarantined { lane });
            }
        }
    }

    /// Execute a compiled program on `keys` under `plan`, detecting
    /// corruption at the program's certificate boundaries and retrying
    /// failed segments from checkpoints per `policy`.
    ///
    /// On `Ok`, the final full certificate passed: `keys` is
    /// snake-sorted, and its multiset fingerprint equals the input's, so
    /// only a fingerprint collision lets a lost or duplicated key
    /// through. On [`FaultError::RetryExhausted`], `keys` holds the
    /// corrupted state of the last attempt (callers wanting a sorted
    /// result anyway should re-run clean — the batch API does this
    /// automatically).
    ///
    /// # Errors
    ///
    /// [`FaultError::Invalid`] if the program fails static validation
    /// (nothing executed), [`FaultError::WrongKeyCount`] if `keys` is
    /// not one per node, [`FaultError::RetryExhausted`] as above.
    pub fn run_with_faults<K: Ord + Clone + Hash>(
        &self,
        keys: &mut [K],
        program: &CompiledProgram,
        plan: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Result<FaultReport, FaultError> {
        self.try_validate(program)?;
        if keys.len() as u64 != self.shape().len() {
            return Err(FaultError::WrongKeyCount {
                expected: self.shape().len(),
                got: keys.len(),
            });
        }
        let _sort_span = self.logger.span(Tier::Fault, Stage::Sort, SpanClass::None);
        let (report, failed) = exec_with_faults(self.shape(), keys, program, plan, policy);
        self.emit_fault_events(&report, None);
        match failed {
            None => Ok(report),
            Some((round, attempts)) => Err(FaultError::RetryExhausted { round, attempts }),
        }
    }

    /// [`BspMachine::run_with_faults`] on the kernel tier: execute a
    /// lowered program under `plan` with the same segmentation,
    /// checkpoints, certificate checks, and probe seeds as the
    /// interpreter path. Fault sites are keyed by `(round, op)` indices,
    /// which lowering preserves, so the same `plan` makes the same
    /// decisions on either path — reports and outputs are bit-identical
    /// to [`BspMachine::run_with_faults`] on the source program.
    ///
    /// It runs the kernel's run table, not its relays. A segment's first
    /// attempt asks the plan once about every site of the segment, the
    /// program's own ops, which the kernel shares. When only
    /// comparators flip, each round runs its clean runs and then swaps
    /// its flipped pairs; a segment where a route drops or a resolve
    /// stalls replays its route rounds' ops through transit slots
    /// instead, allocated the first time one does. Retries
    /// run clean, since no site fires twice. So a faulted run costs
    /// about a clean run plus its checkpoints and certificate checks.
    ///
    /// The kernel is already validated (lowering validates), so the only
    /// input check left is the key count. With a disabled plan this is
    /// one pass over the full run table plus report assembly — zero
    /// heap allocations. Every path runs the full table, never the
    /// pruned one [`BspMachine::run_kernel`] runs: the analysis that
    /// prunes it assumes fault-free levels. `_scratch` is not touched:
    /// fault runs keep their transit slots to themselves, and clean
    /// runs need none.
    ///
    /// # Errors
    ///
    /// [`FaultError::WrongKeyCount`] if `keys` is not one per node,
    /// [`FaultError::RetryExhausted`] as on the interpreter path.
    ///
    /// # Panics
    ///
    /// Panics if the kernel was lowered for another shape.
    pub fn run_kernel_with_faults<K: Ord + Clone + Hash>(
        &self,
        keys: &mut [K],
        kernel: &KernelProgram,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        _scratch: &mut ExecScratch<K>,
    ) -> Result<FaultReport, FaultError> {
        assert_eq!(
            kernel.shape(),
            self.shape(),
            "kernel lowered for another shape"
        );
        if keys.len() as u64 != self.shape().len() {
            return Err(FaultError::WrongKeyCount {
                expected: self.shape().len(),
                got: keys.len(),
            });
        }
        let _sort_span = self.logger.span(Tier::Fault, Stage::Sort, SpanClass::None);
        let (report, failed) = exec_kernel_with_faults(self.shape(), keys, kernel, plan, policy);
        self.emit_fault_events(&report, None);
        match failed {
            None => Ok(report),
            Some((round, attempts)) => Err(FaultError::RetryExhausted { round, attempts }),
        }
    }

    /// Drive a batch of independent key vectors through one compiled
    /// program under fault injection, one lane after another on the
    /// calling thread, each lane running [`BspMachine::run_with_faults`]'s
    /// loop on `plan.fork(lane)` so lanes fault independently.
    ///
    /// Degrades gracefully instead of failing the batch: a lane that
    /// exhausts its retries is *quarantined* — restored to its original
    /// input and re-run serially without injection — so every `Ok` lane
    /// ends snake-sorted and a permutation of its input regardless.
    /// Per-lane errors are only the non-recoverable kinds (wrong key
    /// count). An invalid program fails every lane without executing
    /// anything. Never panics on any input.
    pub fn run_batch_with_faults<K: Ord + Clone + Hash>(
        &self,
        batch: &mut [Vec<K>],
        program: &CompiledProgram,
        plan: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Vec<Result<FaultReport, FaultError>> {
        if let Err(e) = self.try_validate(program) {
            return batch
                .iter()
                .map(|_| Err(FaultError::Invalid(e.clone())))
                .collect();
        }
        let _batch_span = self.logger.span(Tier::Fault, Stage::Batch, SpanClass::None);
        self.logger.log(|| Event::BatchScheduled {
            batch: batch.len() as u64,
            lanes: 1,
        });
        let shape = self.shape();
        let expected = shape.len();
        let mut results = Vec::with_capacity(batch.len());
        for (lane, keys) in batch.iter_mut().enumerate() {
            let lane = lane as u64;
            if keys.len() as u64 != expected {
                results.push(Err(FaultError::WrongKeyCount {
                    expected,
                    got: keys.len(),
                }));
                continue;
            }
            let lane_plan = plan.fork(lane);
            // Keep the pristine input around for the quarantine path.
            let original: Option<Vec<K>> = lane_plan.is_enabled().then(|| keys.clone());
            let (mut report, failed) = exec_with_faults(shape, keys, program, &lane_plan, policy);
            if failed.is_some() {
                // Quarantine: everything executed so far is discarded;
                // re-run clean and serial from the original input. Only
                // an enabled plan can fail, so the original was kept;
                // should that invariant ever break, the clean re-run
                // still sorts whatever state the lane is in (the
                // program is a sorting network) instead of panicking.
                if let Some(original) = original {
                    keys.clear();
                    keys.extend(original);
                }
                exec_program(keys, program);
                report.counters.wasted_rounds += report.counters.useful_rounds;
                report.counters.useful_rounds = program.rounds() as u64;
                report.rounds = report.counters.total_rounds();
                report.quarantined = true;
            }
            self.emit_fault_events(&report, Some(lane));
            results.push(Ok(report));
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::compile;
    use crate::netsort::is_snake_sorted;
    use crate::sorters::OetSnakeSorter;
    use pns_graph::factories;

    fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
        let mut x = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 16
            })
            .collect()
    }

    fn setup(r: usize) -> (BspMachine, CompiledProgram) {
        let factor = factories::path(3);
        let program = compile(&factor, r, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, r);
        (machine, program)
    }

    #[test]
    fn multiset_fingerprint_ignores_order_and_sees_lost_keys() {
        let keys = lcg_keys(49, 5);
        let mut reversed = keys.clone();
        reversed.reverse();
        assert_eq!(multiset_fingerprint(&keys), multiset_fingerprint(&reversed));
        // A drop's footprint: one key copied over another.
        let mut dropped = keys.clone();
        dropped[3] = dropped[7];
        assert_ne!(multiset_fingerprint(&keys), multiset_fingerprint(&dropped));
        // Zero keys count, and narrow keys mix like their `u64` values.
        assert_ne!(
            multiset_fingerprint(&[0u64; 2]),
            multiset_fingerprint(&[0u64; 3])
        );
        assert_eq!(
            multiset_fingerprint(&[0u8, 1, 1]),
            multiset_fingerprint(&[1u64, 0, 1])
        );
    }

    #[test]
    fn disabled_plan_matches_plain_run_exactly() {
        let (machine, program) = setup(3);
        let plan = FaultPlan::disabled();
        let policy = RetryPolicy::default();
        for seed in [1u64, 7, 99] {
            let keys = lcg_keys(machine.shape().len(), seed);
            let mut plain = keys.clone();
            let mut faulty = keys;
            machine.run(&mut plain, &program);
            let report = machine
                .run_with_faults(&mut faulty, &program, &plan, &policy)
                .expect("disabled plan cannot fail");
            assert_eq!(plain, faulty);
            assert_eq!(report.rounds as usize, program.rounds());
            assert!(report.injected.is_empty());
            assert!(report.detections.is_empty());
            assert!(report.retries.is_empty());
            assert_eq!(report.counters.useful_rounds as usize, program.rounds());
            assert_eq!(report.counters.wasted_rounds, 0);
        }
    }

    #[test]
    fn wrong_key_count_is_a_typed_error() {
        let (machine, program) = setup(2);
        let mut keys = vec![1u64; 3];
        let err = machine
            .run_with_faults(
                &mut keys,
                &program,
                &FaultPlan::disabled(),
                &RetryPolicy::default(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            FaultError::WrongKeyCount {
                expected: machine.shape().len(),
                got: 3
            }
        );
    }

    #[test]
    fn injected_faults_are_detected_and_repaired() {
        let (machine, program) = setup(3);
        let policy = RetryPolicy::default();
        let mut repaired = 0u32;
        for seed in 0..40u64 {
            let plan = FaultPlan::random(seed, 2_000); // 0.2% of sites
            let mut keys = lcg_keys(machine.shape().len(), seed + 1);
            let report = machine
                .run_with_faults(&mut keys, &program, &plan, &policy)
                .expect("default policy repairs sparse transients");
            assert!(
                is_snake_sorted(machine.shape(), &keys),
                "seed {seed}: Ok must imply sorted"
            );
            assert_eq!(report.rounds, report.counters.total_rounds());
            if !report.injected.is_empty() {
                repaired += 1;
            }
            // Accounting: every retry re-ran a whole segment.
            assert_eq!(report.counters.retries, report.retries.len() as u64);
            assert_eq!(report.counters.detections, report.detections.len() as u64);
        }
        assert!(
            repaired > 0,
            "rate 2000/M over 40 seeds must fire somewhere"
        );
    }

    #[test]
    fn single_flip_is_harmless_or_detected_by_certificates() {
        // detect_only: no retries, so a detected fault surfaces as
        // RetryExhausted; an undetected one must be harmless.
        let (machine, program) = setup(2);
        let policy = RetryPolicy::detect_only();
        let keys = lcg_keys(machine.shape().len(), 11);
        for (ri, round) in program.round_ops().iter().enumerate() {
            for (oi, op) in round.iter().enumerate() {
                if !matches!(op, Op::CompareExchange { .. }) {
                    continue;
                }
                let site = FaultSite {
                    round: ri as u64,
                    op: oi as u64,
                };
                let plan = FaultPlan::single(FaultKind::FlipCompare, site);
                let mut k = keys.clone();
                match machine.run_with_faults(&mut k, &program, &plan, &policy) {
                    Ok(_) => assert!(
                        is_snake_sorted(machine.shape(), &k),
                        "undetected flip at {site:?} must be harmless"
                    ),
                    Err(FaultError::RetryExhausted { .. }) => {}
                    Err(other) => panic!("unexpected error at {site:?}: {other}"),
                }
            }
        }
    }

    #[test]
    fn sampled_rechecks_still_end_sorted() {
        let (machine, program) = setup(3);
        let policy = RetryPolicy {
            max_retries: 5,
            recheck_depth: 4,
            ..RetryPolicy::default()
        };
        for seed in 0..20u64 {
            let plan = FaultPlan::random(seed, 3_000);
            let mut keys = lcg_keys(machine.shape().len(), seed * 3 + 2);
            // A sampled intermediate check may miss corruption, but the
            // final full check catches it, and the last segment's
            // checkpoint restores enough to repair (the fault already
            // fired, so the retry is clean).
            if machine
                .run_with_faults(&mut keys, &program, &plan, &policy)
                .is_ok()
            {
                assert!(is_snake_sorted(machine.shape(), &keys), "seed {seed}");
            }
        }
    }

    #[test]
    fn batch_quarantines_exhausted_lanes_and_sorts_everything() {
        let (machine, program) = setup(2);
        // detect_only exhausts on the first detection, forcing the
        // quarantine path for any lane whose faults corrupt the output.
        let policy = RetryPolicy::detect_only();
        let plan = FaultPlan::random(5, 20_000); // 2% of sites
        let mut batch: Vec<Vec<u64>> = (0..12)
            .map(|i| lcg_keys(machine.shape().len(), i * 13 + 1))
            .collect();
        let results = machine.run_batch_with_faults(&mut batch, &program, &plan, &policy);
        assert_eq!(results.len(), batch.len());
        let mut quarantined = 0;
        for (lane, res) in results.iter().enumerate() {
            let report = res.as_ref().expect("lanes degrade, they do not fail");
            assert!(
                is_snake_sorted(machine.shape(), &batch[lane]),
                "lane {lane} must end sorted"
            );
            if report.quarantined {
                quarantined += 1;
                assert_eq!(report.counters.useful_rounds as usize, program.rounds());
                assert!(report.counters.wasted_rounds > 0);
            }
        }
        assert!(
            quarantined > 0,
            "2% of sites with no retries must quarantine some lane"
        );
    }

    #[test]
    fn batch_reports_wrong_length_lanes_without_failing_others() {
        let (machine, program) = setup(2);
        let n = machine.shape().len();
        let mut batch: Vec<Vec<u64>> = vec![lcg_keys(n, 1), vec![9, 9, 9], lcg_keys(n, 2)];
        let results = machine.run_batch_with_faults(
            &mut batch,
            &program,
            &FaultPlan::random(1, 1_000),
            &RetryPolicy::default(),
        );
        assert!(results[0].is_ok());
        assert_eq!(
            results[1],
            Err(FaultError::WrongKeyCount {
                expected: n,
                got: 3
            })
        );
        assert!(results[2].is_ok());
        assert!(is_snake_sorted(machine.shape(), &batch[0]));
        assert!(is_snake_sorted(machine.shape(), &batch[2]));
    }

    #[test]
    fn invalid_program_fails_every_lane_without_executing() {
        let (machine, _) = setup(2);
        let bogus = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::CompareExchange {
                a: 0,
                b: machine.shape().len() - 1, // not an edge on path(3)^2
                min_to_a: true,
            }]],
        );
        let mut batch: Vec<Vec<u64>> = (0..3)
            .map(|i| lcg_keys(machine.shape().len(), i + 1))
            .collect();
        let before = batch.clone();
        let results = machine.run_batch_with_faults(
            &mut batch,
            &bogus,
            &FaultPlan::disabled(),
            &RetryPolicy::default(),
        );
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(FaultError::Invalid(_)))));
        assert_eq!(batch, before, "nothing may execute");
    }

    #[test]
    fn kernel_fault_path_matches_interpreter_bit_for_bit() {
        let (machine, program) = setup(3);
        let kernel = machine.lower(&program).expect("compiled programs validate");
        let mut scratch = ExecScratch::new();
        // Default policy (repairs) and detect_only (surfaces errors):
        // reports, errors, and final keys must all agree exactly.
        for policy in [RetryPolicy::default(), RetryPolicy::detect_only()] {
            for seed in 0..20u64 {
                let plan = FaultPlan::random(seed, 5_000);
                let keys = lcg_keys(machine.shape().len(), seed + 3);
                let mut interp = keys.clone();
                let mut lowered = keys;
                let ra = machine.run_with_faults(&mut interp, &program, &plan, &policy);
                let rb = machine.run_kernel_with_faults(
                    &mut lowered,
                    &kernel,
                    &plan,
                    &policy,
                    &mut scratch,
                );
                assert_eq!(ra, rb, "seed {seed}: same plan, same report");
                assert_eq!(interp, lowered, "seed {seed}: same plan, same keys");
            }
        }
    }

    #[test]
    fn fault_runs_emit_observability_events() {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let mut machine = BspMachine::new(&factor, 2);
        let (sink, reader) = pns_obs::MemorySink::with_capacity(1 << 16);
        machine.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let plan = FaultPlan::random(5, 20_000);
        let policy = RetryPolicy::detect_only();
        let mut batch: Vec<Vec<u64>> = (0..12)
            .map(|i| lcg_keys(machine.shape().len(), i * 13 + 1))
            .collect();
        let results = machine.run_batch_with_faults(&mut batch, &program, &plan, &policy);
        machine.logger.flush();
        let events: Vec<Event> = reader.events().into_iter().map(|t| t.event).collect();
        let injected: usize = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| r.injected.len())
            .sum();
        let quarantined: usize = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .filter(|r| r.quarantined)
            .count();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::FaultInjected { .. }))
                .count(),
            injected
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::LaneQuarantined { .. }))
                .count(),
            quarantined
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::BatchScheduled { .. })));
    }
}
