//! Flat structure-of-arrays kernel tier for compiled BSP programs.
//!
//! [`crate::bsp::BspMachine::run`] *interprets* a `Vec<Vec<Op>>`: every
//! operation pays an enum discriminant match and its machine-model
//! checks, and every run allocates transit slots and validation scratch.
//! For the throughput experiments that execute one schedule
//! thousands of times, that interpretive overhead dominates. This module
//! lowers a validated [`CompiledProgram`] **once** into a
//! [`KernelProgram`], which keeps two views of every round:
//!
//! * **The clean view: run tables.** A round's clean
//!   compare-exchanges are a compare round's ops, or a route round's own
//!   compare-exchanges plus one per *paired relay*: on fault-free data,
//!   the two `Resolve`s that end a relay compute exactly one
//!   compare-exchange between the relay's endpoints (see
//!   [`KernelProgram::lower`] for the proof the pass checks). A
//!   compare-exchange swaps only keys strictly out of order for its
//!   direction, so `(a, b, min_to_a: false)` is `(b, a, min_to_a: true)`,
//!   and lowering orients every pair to send the minimum to its `a`
//!   side. A validated round touches each key at most once, so the
//!   order of its list is free, and lowering groups it into maximal
//!   unit-stride runs `(a, b, len)`: the pairs `(a + i, b + i)` for
//!   `i < len`, two index ranges that never overlap. The full table
//!   holds every clean compare-exchange; a second, pruned table drops
//!   the ones the level analysis of `prune.rs` proves idle. The
//!   serial, batch, column and bit-sliced executors run the pruned
//!   table, and the fault executors' clean rounds the full one, all
//!   through one dispatched pass (`exec_table`), with no transit slots,
//!   no deferred moves and no per-round dispatch: the generic pass
//!   compiled for AVX2 when the CPU has it, and plain otherwise. Each
//!   compare-exchange is branch-free for keys without drop glue: the `a`
//!   side gets `min_by`, the `b` side `max_by`, which keeps equal keys
//!   in place, as the oracle does.
//! * **The round-faithful view: the program's own ops.** The kernel
//!   keeps the source program's rounds as they are, sharing their
//!   allocation with the [`CompiledProgram`] ([`KernelProgram::lower`]
//!   copies no op), so op `oi` of kernel round `ri` is op `oi` of the
//!   interpreted round `ri` — this is what keeps `FaultSite { round, op }`
//!   keys *path-independent* (a `FaultPlan` fires at the same sites on
//!   the kernel path as on the interpreter path). Clean runs never read
//!   them. The kernel fault executor walks them to decide a segment's
//!   faults and to find the keys a flip strikes, and replays a route
//!   round's ops only in a segment where a route drops or a resolve
//!   stalls; the chunked parallel path splits compare rounds' ops.
//!   Relays, and the transit slots they travel through, stay with the
//!   one op replay in `bsp.rs`, which those replays share with the
//!   oracle [`BspMachine::run`], the tier that keeps the paper's step
//!   counts.
//! * **Empty rounds**, and rounds the pruning empties, keep their class
//!   and an empty run-table span, so kernel round indices map 1:1 to
//!   `CompiledProgram` round indices; `CertPoint` boundaries, reported
//!   step counts and round events stay valid unchanged.
//!
//! Each round carries a [`RoundClass`] tag, which the fault executors
//! dispatch on and round spans report. A clean run keeps no state of
//! its own, so `run_kernel` performs **zero heap allocations**, even on
//! a fresh [`ExecScratch`] — proven by a counting-allocator test
//! (`tests/kernel_alloc.rs`). With no logger attached it is one pass
//! over the whole program; with one, only rounds of at least
//! [`ROUND_OBS_MIN_OPS`] ops log events and spans, and the stretches
//! between them run as one pass each.
//!
//! Lowering happens after static validation ([`BspMachine::lower`]), so
//! the kernels run unchecked: validation is paid once per program, not
//! once per run.
//!
//! The intra-round parallel path ([`BspMachine::run_kernel_parallel`])
//! splits a large compare round's ops into disjoint ranges across
//! threads (other rounds run their runs serially): the workers write
//! swap decisions into a reusable `u64` bitmask, and the swaps commit
//! serially — bit-identical to serial order because validated rounds
//! touch each key at most once. It has no library
//! caller: it spawns scoped threads in every large round, which costs
//! more than the serial kernel saves, so `Machine::sort` runs
//! [`BspMachine::run_kernel`]. The path is kept for the differential
//! tests and the benchmark's fork-join probe.
//!
//! Batches ([`BspMachine::run_kernel_batch`]) fan their lanes out over
//! the vendored `rayon`, unless the machine is
//! [`BspMachine::serial`], as the service's workers are.

use std::cmp::{max_by, min_by};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use pns_obs::{Event, SpanClass, Stage, Tier, ROUND_OBS_MIN_OPS, SORT_OBS_MIN_OPS};
use pns_order::radix::Shape;

use crate::bsp::{swaps, BspMachine, BspRound, CertPoint, CompiledProgram, Op, ProgramError};

/// Minimum compare-pairs in a round before
/// [`BspMachine::run_kernel_parallel`] splits it across threads. The
/// path spawns scoped OS threads per round, so intra-round parallelism
/// only pays for very large rounds; below this, the serial kernel wins.
/// No library path uses it: it is kept for the differential tests and
/// the benchmark's fork-join probe.
pub const KERNEL_PAR_THRESHOLD: usize = 8192;

/// What a lowered round contains. The fault executors dispatch on it;
/// round spans report it. Clean runs ignore it: every round is a range
/// of the run table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundClass {
    /// No operations: an empty parity class of a transposition round,
    /// which [`compile`](crate::bsp::compile) keeps so that its rounds
    /// equal the executed engine's steps.
    Empty,
    /// Only compare-exchanges.
    Compare,
    /// At least one `Move`/`Resolve`: a fault replay runs its ops
    /// through transit slots with a deferred incoming commit (transit
    /// reads see previous-round state).
    Route,
}

impl RoundClass {
    /// The observability round class this lowered class maps to, for
    /// round spans' `(tier, stage, class)` attribution.
    #[must_use]
    pub fn span_class(self) -> SpanClass {
        match self {
            RoundClass::Empty => SpanClass::Empty,
            RoundClass::Compare => SpanClass::Compare,
            RoundClass::Route => SpanClass::Route,
        }
    }
}

/// One maximal unit-stride run of a round's clean compare-exchanges:
/// the pairs `(a + i, b + i)` for `i < len`, each sending the minimum
/// to its `a` side. A validated round touches each key at most once,
/// so the run's two index ranges never overlap. 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) len: u32,
}

/// One round's slice of a [`RunTable`]: its runs of two or more pairs,
/// then its one-pair runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSpan {
    start: u32,
    /// Where the round's one-pair runs start.
    unit_start: u32,
    end: u32,
}

impl RunSpan {
    /// Indices of the round's runs of two or more pairs.
    fn long_runs(self) -> Range<usize> {
        self.start as usize..self.unit_start as usize
    }

    /// Indices of the round's one-pair runs.
    fn unit_runs(self) -> Range<usize> {
        self.unit_start as usize..self.end as usize
    }
}

/// A clean network as the executors run it: every round's
/// compare-exchanges as maximal unit-stride runs, concatenated in round
/// order, and one span of them per round (empty rounds included, so
/// round indices are the program's).
#[derive(Debug, Clone, Default)]
pub(crate) struct RunTable {
    pub(crate) runs: Vec<Run>,
    spans: Vec<RunSpan>,
}

impl RunTable {
    /// An empty table with room for `rounds` rounds and `runs` runs.
    pub(crate) fn with_capacity(rounds: usize, runs: usize) -> Self {
        RunTable {
            runs: Vec::with_capacity(runs),
            spans: Vec::with_capacity(rounds),
        }
    }

    /// Round `ri`'s runs.
    pub(crate) fn round(&self, ri: usize) -> &[Run] {
        let span = self.spans[ri];
        &self.runs[span.start as usize..span.end as usize]
    }

    /// Rounds in the table.
    pub(crate) fn rounds(&self) -> usize {
        self.spans.len()
    }

    /// Every round's span of [`RunTable::runs`].
    #[cfg(test)]
    pub(crate) fn spans(&self) -> &[RunSpan] {
        &self.spans
    }

    /// Compare-exchanges in the table.
    pub(crate) fn pairs(&self) -> usize {
        self.runs.iter().map(|run| run.len as usize).sum()
    }

    /// Rounds that hold at least one compare-exchange.
    fn busy_rounds(&self) -> usize {
        self.spans.iter().filter(|s| s.end > s.start).count()
    }

    /// Append round `ri` of `other` unchanged.
    pub(crate) fn copy_round(&mut self, other: &RunTable, ri: usize) {
        let (span, start) = (other.spans[ri], self.runs.len() as u32);
        self.runs.extend_from_slice(other.round(ri));
        self.spans.push(RunSpan {
            start,
            unit_start: start + span.unit_start - span.start,
            end: start + span.end - span.start,
        });
    }
}

/// How many of the latest partial runs [`RunBuilder::push`] tries to
/// extend. Compiled programs often interleave two to four runs in
/// source order (a snake row's pairs alternate direction, say); on
/// `K2^14` this leaves 1.1 M partial runs of 5.25 M pairs, and the
/// stamp tables see only those.
const MERGE_WINDOW: usize = 4;

/// Groups each round's clean compare-exchanges into maximal runs in
/// O(pairs), without sorting. Each pair first extends one of the latest
/// few partial runs when it continues it. The round's partial runs then
/// chain through two epoch-stamped, node-indexed tables, of the partial
/// run whose first pair starts at each node and of the one whose last
/// pair does: a partial run begins a run unless one ends at
/// `(a - 1, b - 1)`, and each beginning walks its chain up. Allocated
/// once per lowering.
pub(crate) struct RunBuilder {
    /// Per node: the epoch of the round whose partial run starts there,
    /// and its index in `parts`.
    starts: Vec<(u32, u32)>,
    /// Per node: the same for the partial run whose last pair starts
    /// there.
    ends: Vec<(u32, u32)>,
    epoch: u32,
    /// The current round's partial runs, in source order.
    parts: Vec<Run>,
    /// The current round's one-pair runs, appended after its longer
    /// ones.
    units: Vec<Run>,
}

impl RunBuilder {
    pub(crate) fn new(n: usize) -> Self {
        RunBuilder {
            starts: vec![(0, 0); n],
            ends: vec![(0, 0); n],
            epoch: 0,
            parts: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Add the current round's next clean compare-exchange, minimum to
    /// `a`: it extends one of the [`MERGE_WINDOW`] latest partial runs
    /// when it continues it, and opens a new one otherwise.
    #[inline]
    pub(crate) fn push(&mut self, a: u32, b: u32) {
        let recent = self.parts.len().saturating_sub(MERGE_WINDOW);
        for part in self.parts[recent..].iter_mut().rev() {
            if part.a + part.len == a && part.b + part.len == b {
                part.len += 1;
                return;
            }
        }
        self.parts.push(Run { a, b, len: 1 });
    }

    /// Drop the current round's pairs.
    fn discard(&mut self) {
        self.parts.clear();
    }

    /// The current round's partial run that `table` records at node `v`.
    fn part(&self, table: &[(u32, u32)], v: u32) -> Option<Run> {
        match table.get(v as usize) {
            Some(&(epoch, i)) if epoch == self.epoch => Some(self.parts[i as usize]),
            _ => None,
        }
    }

    /// Append the current round's runs to `table` as its next round and
    /// clear it: the runs of two or more pairs, then the one-pair runs,
    /// each in the source order of their first pairs.
    pub(crate) fn flush(&mut self, table: &mut RunTable) {
        self.epoch += 1;
        for (i, part) in self.parts.iter().enumerate() {
            let at = (self.epoch, i as u32);
            self.starts[part.a as usize] = at;
            self.ends[(part.a + part.len - 1) as usize] = at;
        }
        let start = table.runs.len() as u32;
        for &part in &self.parts {
            let continues = |prev: Run| prev.b + prev.len == part.b;
            if part.a > 0 && self.part(&self.ends, part.a - 1).is_some_and(continues) {
                continue;
            }
            let mut run = part;
            while let Some(next) = self.part(&self.starts, run.a + run.len) {
                if next.b != run.b + run.len {
                    break;
                }
                run.len += next.len;
            }
            if run.len == 1 {
                self.units.push(run);
            } else {
                table.runs.push(run);
            }
        }
        let unit_start = table.runs.len() as u32;
        table.runs.append(&mut self.units);
        table.spans.push(RunSpan {
            start,
            unit_start,
            end: table.runs.len() as u32,
        });
        self.parts.clear();
    }
}

/// `(a, b)` oriented so that the minimum goes to the first node.
fn oriented(a: u64, b: u64, min_to_a: bool) -> (u32, u32) {
    if min_to_a {
        (a as u32, b as u32)
    } else {
        (b as u32, a as u32)
    }
}

/// A compiled program lowered to flat structure-of-arrays form. Rounds
/// map 1:1 to the source program's rounds (certificates and step counts
/// transfer unchanged). Fault-free runs execute the pruned run table,
/// each round's kept clean compare-exchanges grouped into maximal
/// unit-stride runs; the fault executors run the full one, and decide
/// faults through the source program's own ops, which the kernel shares
/// (fault sites transfer unchanged).
///
/// Build one with [`BspMachine::lower`] (validates first) or
/// [`KernelProgram::lower`] (assumes a valid program, e.g. straight out
/// of [`crate::bsp::compile`]).
#[derive(Debug, Clone)]
pub struct KernelProgram {
    pub(crate) shape: Shape,
    /// The source program's rounds, the same allocation
    /// ([`CompiledProgram::round_ops`]): what the fault executors index
    /// through `FaultSite` and replay.
    pub(crate) ops: Arc<[BspRound]>,
    /// Each round's class.
    classes: Vec<RoundClass>,
    /// The full clean network. A compare round's list is its ops; a
    /// route round's is its own compare-exchanges and its paired relays.
    /// The fault executors and the chunked path run it.
    pub(crate) full: RunTable,
    /// `full` without the compare-exchanges the level analysis proved
    /// idle (`crate::prune`); `None` when it proved none.
    pruned: Option<RunTable>,
    pub(crate) cert_points: Vec<CertPoint>,
    compare_rounds: usize,
    route_rounds: usize,
    /// Ops in compare rounds.
    compare_ops: usize,
    /// Ops in route rounds.
    route_ops: usize,
    /// Compare-exchanges in `full`.
    clean_cx: usize,
    kept: KeptNetwork,
}

/// The clean network the fault-free executors run, once the
/// compare-exchanges the level analysis proved idle are pruned
/// ([`KernelProgram::kept`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeptNetwork {
    /// Compare-exchanges kept, out of
    /// [`KernelProgram::clean_cx_count`].
    pub pairs: usize,
    /// Rounds that still hold a compare-exchange.
    pub rounds: usize,
    /// The highest merge level the analysis proved: levels
    /// `2..=level` are pruned, later ones run whole. 0 when it proved
    /// none.
    pub level: u32,
}

/// A transit value as the pairing pass sees it: a copy of `src`'s
/// resident key, taken when `src` had been written `writes` times.
#[derive(Debug, Clone, Copy)]
struct KeyCopy {
    src: u64,
    writes: u32,
}

/// State of the relay-pairing pass ([`KernelProgram::lower`]): which
/// node's key each transit slot carries, and how often each key has
/// been written while some copy was in flight. Built at the first route
/// round, so relay-free programs never pay for it.
struct RelayPairing {
    /// What each node's two transit slots carry.
    slots: Vec<[Option<KeyCopy>; 2]>,
    /// Per-node write counts. Only writes made while a copy is in flight
    /// are counted: a copy compares its count with the source's, so
    /// writes before it left do not matter. A node is written at most
    /// once per round, so a count wraps back to a copy's value only
    /// after 2^32 rounds with that copy in flight.
    writes: Vec<u32>,
    /// Occupied transit slots.
    in_flight: usize,
    /// Per node, the round (`ri + 1`) of its latest resolve, the copy it
    /// took, and its `keep_min`.
    resolved: Vec<(usize, KeyCopy, bool)>,
    /// The round's moves, committed at its end like the executors do.
    incoming: Vec<(u64, u8, KeyCopy)>,
    /// The round's key writes, counted at its end.
    written: Vec<u64>,
}

impl RelayPairing {
    fn new(n: usize) -> Self {
        let none = KeyCopy { src: 0, writes: 0 };
        RelayPairing {
            slots: vec![[None, None]; n],
            writes: vec![0; n],
            in_flight: 0,
            resolved: vec![(0, none, false); n],
            incoming: Vec::new(),
            written: Vec::new(),
        }
    }

    /// A compare round wrote both nodes of each of its ops.
    fn compared(&mut self, round: &[Op]) {
        if self.in_flight > 0 {
            for op in round {
                if let Op::CompareExchange { a, b, .. } = *op {
                    for v in [a, b] {
                        self.writes[v as usize] = self.writes[v as usize].wrapping_add(1);
                    }
                }
            }
        }
    }

    /// `true` iff `copy` still equals its source's key (at the start of
    /// the current round).
    fn current(&self, copy: KeyCopy) -> bool {
        self.writes[copy.src as usize] == copy.writes
    }

    /// One route round: emit, in op order, its compare-exchanges and one
    /// compare-exchange per paired relay (at the resolve that keeps the
    /// minimum), each oriented to send the minimum to its first node,
    /// then commit its moves.
    ///
    /// A valid round reads every key before any op writes it (a key is
    /// read and written in one round only by a rejected program), so
    /// every resolve sees start-of-round keys, and the pair
    /// `Resolve { y, keep_min: true }`, `Resolve { x, keep_min: false }`
    /// leaves `y = min(y, x)` and `x = max(x, y)` exactly when `y`'s slot
    /// holds a copy of `x`'s current key and `x`'s one of `y`'s. On equal
    /// keys both resolves keep the resident, and so does
    /// `CompareExchange { a: y, b: x, min_to_a: true }`.
    fn route_round(
        &mut self,
        ri: usize,
        round: &[Op],
        mut emit: impl FnMut(u32, u32),
    ) -> Result<(), ProgramError> {
        let stamp = ri + 1;
        for op in round {
            match *op {
                Op::CompareExchange { a, b, .. } => self.written.extend([a, b]),
                Op::Move {
                    from,
                    to,
                    slot,
                    from_key,
                } => {
                    let copy = if from_key {
                        KeyCopy {
                            src: from,
                            writes: self.writes[from as usize],
                        }
                    } else {
                        let copy = self.slots[from as usize][slot as usize]
                            .take()
                            .expect("validated: slot occupied");
                        self.in_flight -= 1;
                        copy
                    };
                    self.incoming.push((to, slot, copy));
                }
                Op::Resolve {
                    node,
                    slot,
                    keep_min,
                } => {
                    let copy = self.slots[node as usize][slot as usize]
                        .take()
                        .expect("validated: slot occupied");
                    self.in_flight -= 1;
                    self.resolved[node as usize] = (stamp, copy, keep_min);
                    self.written.push(node);
                }
            }
        }
        for op in round {
            match *op {
                Op::CompareExchange { a, b, min_to_a } => {
                    let (lo, hi) = oriented(a, b, min_to_a);
                    emit(lo, hi);
                }
                Op::Move { .. } => {}
                Op::Resolve { node: y, .. } => {
                    let (_, copy, keep_min) = self.resolved[y as usize];
                    let x = copy.src;
                    let (x_stamp, x_copy, x_keep_min) = self.resolved[x as usize];
                    let paired = self.current(copy)
                        && x_stamp == stamp
                        && x_copy.src == y
                        && self.current(x_copy)
                        && x_keep_min != keep_min;
                    if !paired {
                        return Err(ProgramError::UnpairedRelay { round: ri, node: y });
                    }
                    if keep_min {
                        emit(y as u32, x as u32);
                    }
                }
            }
        }
        for (to, slot, copy) in self.incoming.drain(..) {
            self.slots[to as usize][slot as usize] = Some(copy);
            self.in_flight += 1;
        }
        if self.in_flight > 0 {
            for &v in &self.written {
                self.writes[v as usize] = self.writes[v as usize].wrapping_add(1);
            }
        }
        self.written.clear();
        Ok(())
    }
}

impl KernelProgram {
    /// Lower a program. Pure — but the lowered kernels execute
    /// **unchecked**, so the input must already satisfy
    /// [`BspMachine::try_validate`]'s invariants ([`crate::bsp::compile`]
    /// output always does; for hand-built programs go through
    /// [`BspMachine::lower`]).
    ///
    /// Relays lower to the compare-exchanges they compute. One pass over
    /// the route rounds tracks which node's key each transit slot
    /// carries and whether that key has been written since its copy
    /// left. `Resolve { node: y, keep_min: true }` pairs with
    /// `Resolve { node: x, keep_min: false }` when both are in one round,
    /// `y` holds a copy of `x`'s current key and `x` one of `y`'s; the
    /// pair becomes `CompareExchange { a: y, b: x, min_to_a: true }` in
    /// the round's clean list. Writes are tracked only while some copy
    /// is in flight, so relay-free programs pay nothing per op.
    ///
    /// A round goes into the run builder as a compare round while it
    /// classifies, and the first `Move` or `Resolve` drops the round's
    /// pairs and sends it down the route path instead. No op is copied:
    /// the kernel shares the program's rounds.
    ///
    /// The full run table then goes through the level analysis of
    /// `prune.rs`, within a budget of 32 lane-operations per source op;
    /// the pruned table it returns is what fault-free runs execute.
    ///
    /// # Panics
    ///
    /// Panics if the network has more than `u32::MAX` nodes (ranks are
    /// packed into `u32`), if a slot index is not 0/1 (validation
    /// rejects those programs anyway), or if a relay does not pair — a
    /// resolve without a partner resolve in its round, one whose copy
    /// went stale in flight, or a pair whose ends both keep the minimum
    /// or both the maximum. `compile` output always pairs;
    /// [`BspMachine::lower`] reports the others as
    /// [`ProgramError::UnpairedRelay`].
    #[must_use]
    pub fn lower(program: &CompiledProgram) -> KernelProgram {
        KernelProgram::try_lower(program).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`KernelProgram::lower`], with an unpaired relay as a typed error
    /// naming the first unpaired resolve in op order.
    pub(crate) fn try_lower(program: &CompiledProgram) -> Result<KernelProgram, ProgramError> {
        assert!(
            program.shape().len() <= u64::from(u32::MAX),
            "kernel tier packs ranks into u32"
        );
        let ops = program.shared_rounds();
        let n = program.shape().len() as usize;
        let mut classes = Vec::with_capacity(ops.len());
        // At most one run per op: reserved up front and shrunk in place
        // at the end, so the table is never copied while it grows, and
        // the untouched tail is never resident.
        let mut full = RunTable::with_capacity(ops.len(), program.op_count());
        let mut relays: Option<RelayPairing> = None;
        let mut builder = RunBuilder::new(n);
        let (mut compare_rounds, mut route_rounds) = (0, 0);
        let (mut compare_ops, mut route_ops) = (0, 0);
        for (ri, round) in ops.iter().enumerate() {
            let mut class = if round.is_empty() {
                RoundClass::Empty
            } else {
                RoundClass::Compare
            };
            for op in round {
                let Op::CompareExchange { a, b, min_to_a } = *op else {
                    class = RoundClass::Route;
                    break;
                };
                let (lo, hi) = oriented(a, b, min_to_a);
                builder.push(lo, hi);
            }
            match class {
                RoundClass::Empty => {}
                RoundClass::Compare => {
                    compare_rounds += 1;
                    compare_ops += round.len();
                    if let Some(relays) = relays.as_mut() {
                        relays.compared(round);
                    }
                }
                RoundClass::Route => {
                    builder.discard();
                    route_rounds += 1;
                    route_ops += round.len();
                    for op in round {
                        if let Op::Move { slot, .. } | Op::Resolve { slot, .. } = *op {
                            assert!(slot < 2, "validation rejects slots >= 2");
                        }
                    }
                    relays
                        .get_or_insert_with(|| RelayPairing::new(n))
                        .route_round(ri, round, |a, b| builder.push(a, b))?;
                }
            }
            builder.flush(&mut full);
            classes.push(class);
        }
        full.runs.shrink_to_fit();
        let budget = crate::prune::BUDGET_PER_OP.saturating_mul(program.op_count() as u64);
        let (pruned, level) =
            crate::prune::prune(program.shape(), &full, program.cert_points(), budget);
        let clean = pruned.as_ref().unwrap_or(&full);
        let kept = KeptNetwork {
            pairs: clean.pairs(),
            rounds: clean.busy_rounds(),
            level,
        };
        Ok(KernelProgram {
            shape: program.shape(),
            ops,
            classes,
            clean_cx: full.pairs(),
            full,
            pruned,
            cert_points: program.cert_points().to_vec(),
            compare_rounds,
            route_rounds,
            compare_ops,
            route_ops,
            kept,
        })
    }

    /// The shape the kernel was lowered for.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Rounds in the kernel (= the source program's round count).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.classes.len()
    }

    /// The class of round `ri`.
    ///
    /// # Panics
    ///
    /// Panics if `ri >= self.rounds()`.
    #[must_use]
    pub fn class(&self, ri: usize) -> RoundClass {
        self.classes[ri]
    }

    /// Operations in round `ri` (= the source round's op count).
    ///
    /// # Panics
    ///
    /// Panics if `ri >= self.rounds()`.
    #[must_use]
    pub fn round_len(&self, ri: usize) -> usize {
        self.ops[ri].len()
    }

    /// Pure compare-exchange rounds.
    #[must_use]
    pub fn compare_rounds(&self) -> usize {
        self.compare_rounds
    }

    /// Rounds containing a `Move` or `Resolve`.
    #[must_use]
    pub fn route_rounds(&self) -> usize {
        self.route_rounds
    }

    /// Total compare-exchanges across all compare rounds.
    #[must_use]
    pub fn cx_pair_count(&self) -> usize {
        self.compare_ops
    }

    /// Total operations across all route rounds.
    #[must_use]
    pub fn micro_op_count(&self) -> usize {
        self.route_ops
    }

    /// Compare-exchanges of the full clean network: the compare rounds'
    /// pairs, the route rounds' own compare-exchanges, and one per
    /// paired relay. The fault executors run them all; fault-free runs
    /// run the [`KernelProgram::kept`] ones.
    #[must_use]
    pub fn clean_cx_count(&self) -> usize {
        self.clean_cx
    }

    /// The network fault-free runs execute: the clean compare-exchanges
    /// left once the ones the level analysis proved idle are pruned,
    /// the rounds that still hold one, and the levels it proved.
    #[must_use]
    pub fn kept(&self) -> KeptNetwork {
        self.kept
    }

    /// The run table fault-free runs execute.
    pub(crate) fn clean(&self) -> &RunTable {
        self.pruned.as_ref().unwrap_or(&self.full)
    }

    /// Total source operations across all rounds — the program-size
    /// measure [`SORT_OBS_MIN_OPS`] gates sort-grain spans on.
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.compare_ops + self.route_ops
    }

    /// Stage certificates, carried over from the source program (round
    /// indices transfer unchanged — lowering is 1:1 per round).
    #[must_use]
    pub fn cert_points(&self) -> &[CertPoint] {
        &self.cert_points
    }
}

/// Reusable execution state for the kernel tier: the chunked parallel
/// path's swap bitmask. A clean run keeps no state between runs (relays
/// were paired at lowering, so no transit slot is ever filled, and the
/// branch-free step needs no buffer), which is why
/// [`BspMachine::run_kernel`] and [`BspMachine::run_kernel_with_faults`]
/// leave the scratch untouched and allocate nothing even on a fresh
/// one. `K` is the key type of the runs it serves.
#[derive(Debug, Default)]
pub struct ExecScratch<K> {
    pub(crate) swap_words: Vec<u64>,
    keys: PhantomData<K>,
}

impl<K> ExecScratch<K> {
    /// An empty scratch; the chunked path sizes it on first use.
    #[must_use]
    pub fn new() -> Self {
        ExecScratch {
            swap_words: Vec::new(),
            keys: PhantomData,
        }
    }
}

/// The pool [`BspMachine::run_kernel_batch`] takes. Clean lanes keep no
/// state of their own, so the pool holds none; it keeps the batch
/// executors' call shape (the vertical tier's [`crate::VerticalPool`]
/// does hold per-block columns).
#[derive(Debug, Default)]
pub struct ScratchPool<K> {
    keys: PhantomData<K>,
}

impl<K> ScratchPool<K> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        ScratchPool { keys: PhantomData }
    }
}

/// What a clean pass does to one pair of a run: full keys
/// compare-exchange ([`Keys`]), the 0/1 word layout takes `AND` and `OR`
/// ([`Bits`]). Always inlined into the pass, so each element type
/// compiles its own flat loops, once plain and once for AVX2.
pub(crate) trait Exchange<T> {
    /// Exchange `x` (the `a` side) with `y` so that `x` holds the
    /// minimum; equal keys stay where they are.
    fn pair(x: &mut T, y: &mut T);
}

/// Full keys, compared as the oracle compares them.
pub(crate) enum Keys {}

impl<K: Ord + Clone> Exchange<K> for Keys {
    /// Keys without drop glue (`u64`, say) take the branch-free
    /// `(min_by(x, y), max_by(x, y))` of clones: `min_by` returns its
    /// first argument on `Equal` and `max_by` its second, so on a tie
    /// both sides keep their keys — the oracle's swap only when `x > y`.
    /// Keys with drop glue (`String` payloads, say) keep
    /// compare-and-swap, since cloning them for every compare would cost
    /// more than the branch. `needs_drop` is a compile-time constant, so
    /// each key type compiles one arm.
    #[inline(always)]
    fn pair(x: &mut K, y: &mut K) {
        if std::mem::needs_drop::<K>() {
            if *x > *y {
                std::mem::swap(x, y);
            }
        } else {
            let lo = min_by(x.clone(), y.clone(), K::cmp);
            let hi = max_by(x.clone(), y.clone(), K::cmp);
            (*x, *y) = (lo, hi);
        }
    }
}

/// 0/1 words, one lane per bit: `AND` is the minimum of every lane's
/// 0/1 key and `OR` the maximum.
pub(crate) enum Bits {}

impl Exchange<u64> for Bits {
    #[inline(always)]
    fn pair(x: &mut u64, y: &mut u64) {
        (*x, *y) = (*x & *y, *x | *y);
    }
}

/// Walk `runs` over `data`, in which every node owns `w` consecutive
/// elements (`w = 1` for a key vector, the block width for node-major
/// columns): each run's two disjoint slices of `len * w` elements, the
/// `a` side first, exchange pair by pair, in one flat loop.
#[inline(always)]
fn exchange_runs<T, E: Exchange<T>>(data: &mut [T], runs: &[Run], w: usize) {
    for run in runs {
        let (a, b, m) = (run.a as usize * w, run.b as usize * w, run.len as usize * w);
        let (xs, ys) = if a < b {
            let (lo, hi) = data.split_at_mut(b);
            (&mut lo[a..a + m], &mut hi[..m])
        } else {
            let (lo, hi) = data.split_at_mut(a);
            (&mut hi[..m], &mut lo[b..b + m])
        };
        for (x, y) in xs.iter_mut().zip(ys) {
            E::pair(x, y);
        }
    }
}

/// The clean pass, plain: the rounds `spans` of a run table's `runs`
/// over `data` at stride `w` (see [`exchange_runs`]). Each round runs
/// its runs of two or more pairs, then its one-pair runs (a round's
/// pairs touch disjoint nodes, so their order is free). At stride 1 the
/// one-pair runs are a flat loop of single exchanges, with no inner
/// loop whose varying trip count the branch predictor would miss. Every
/// clean tier reaches it through [`exec_table`].
#[inline(always)]
pub(crate) fn exec_pass<T, E: Exchange<T>>(
    data: &mut [T],
    runs: &[Run],
    spans: &[RunSpan],
    w: usize,
) {
    for span in spans {
        exchange_runs::<T, E>(data, &runs[span.long_runs()], w);
        let units = &runs[span.unit_runs()];
        if w == 1 {
            for run in units {
                let [x, y] = data
                    .get_disjoint_mut([run.a as usize, run.b as usize])
                    .expect("validated: a pair's nodes are distinct and in range");
                E::pair(x, y);
            }
        } else {
            exchange_runs::<T, E>(data, units, w);
        }
    }
}

/// [`exec_pass`] compiled with AVX2 enabled: the inlined exchange loops
/// vectorize four `u64` lanes to a register.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn exec_pass_avx2<T, E: Exchange<T>>(
    data: &mut [T],
    runs: &[Run],
    spans: &[RunSpan],
    w: usize,
) {
    exec_pass::<T, E>(data, runs, spans, w);
}

/// Every clean execution of a run table: its rounds `rounds` over
/// `data` at stride `w`, as one pass. The AVX2 build of [`exec_pass`]
/// runs when the CPU has AVX2 (detected at run time, cached by `std`),
/// the plain build otherwise; both give identical outputs. Serves
/// `run_kernel`, batch lanes, the column tier (`w` = block width) and
/// the 0/1 word layout on the pruned table, and the fault executors'
/// clean rounds, retries and quarantine re-runs on the full one.
pub(crate) fn exec_table<T, E: Exchange<T>>(
    data: &mut [T],
    table: &RunTable,
    rounds: Range<usize>,
    w: usize,
) {
    let (runs, spans) = (&table.runs[..], &table.spans[rounds]);
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `exec_pass_avx2` only requires AVX2, and the CPU was
        // just detected to support it.
        unsafe { exec_pass_avx2::<T, E>(data, runs, spans, w) };
        return;
    }
    exec_pass::<T, E>(data, runs, spans, w);
}

/// A whole run table on one key vector, unlogged: batch lanes run the
/// kernel's pruned table ([`KernelProgram::clean`]), the fault
/// executors' disabled-plan paths and quarantine re-runs its full one.
pub(crate) fn exec_kernel<K: Ord + Clone>(keys: &mut [K], table: &RunTable) {
    exec_table::<K, Keys>(keys, table, 0..table.rounds(), 1);
}

/// One compare round's ops with the decision phase split across
/// threads: disjoint 64-op-aligned chunks of the swap bitmask are
/// filled by workers reading the immutable start-of-round keys, then
/// the swaps commit serially. Validated rounds touch each key at most
/// once, so start-of-round decisions equal in-order serial decisions —
/// bit-identical to the round's runs.
fn exec_round_chunked<K: Ord + Send + Sync>(
    keys: &mut [K],
    round: &[Op],
    words: &mut Vec<u64>,
    threads: usize,
) {
    let n_ops = round.len();
    let n_words = n_ops.div_ceil(64);
    words.clear();
    words.resize(n_words, 0);
    let words_per_chunk = n_words.div_ceil(threads.max(1)).max(1);
    {
        let keys_ref: &[K] = keys;
        std::thread::scope(|s| {
            for (ci, chunk) in words.chunks_mut(words_per_chunk).enumerate() {
                let wbase = ci * words_per_chunk;
                s.spawn(move || {
                    for (wi, w) in chunk.iter_mut().enumerate() {
                        let op_base = (wbase + wi) * 64;
                        let mut bits = 0u64;
                        for (j, op) in round[op_base..n_ops.min(op_base + 64)].iter().enumerate() {
                            if let Op::CompareExchange { a, b, min_to_a } = *op {
                                if swaps(&keys_ref[a as usize], &keys_ref[b as usize], min_to_a) {
                                    bits |= 1u64 << j;
                                }
                            }
                        }
                        *w = bits;
                    }
                });
            }
        });
    }
    for (wi, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Op::CompareExchange { a, b, .. } = round[wi * 64 + j] {
                keys.swap(a as usize, b as usize);
            }
        }
    }
}

impl BspMachine {
    /// Validate `program` against this machine, then lower it to a
    /// [`KernelProgram`], pairing its relays into compare-exchanges. The
    /// kernels then run unchecked — validation is paid once per program
    /// instead of once per run ([`BspMachine::run`] checks every op).
    ///
    /// # Errors
    ///
    /// The first machine-model violation, as from
    /// [`BspMachine::try_validate`]; then
    /// [`ProgramError::UnpairedRelay`] for a valid program whose relays
    /// do not pair (see [`KernelProgram::lower`]), naming the first
    /// unpaired resolve in op order. [`BspMachine::run`] still runs
    /// such a program.
    pub fn lower(&self, program: &CompiledProgram) -> Result<KernelProgram, ProgramError> {
        let _lower_span = self
            .logger
            .span(Tier::Kernel, Stage::LowerKernel, SpanClass::None);
        {
            let _validate_span = self
                .logger
                .span(Tier::Kernel, Stage::Validate, SpanClass::None);
            self.try_validate(program)?;
        }
        KernelProgram::try_lower(program)
    }

    /// Execute a lowered program on `keys`, serially: the pruned clean
    /// runs of every round ([`KernelProgram::kept`]) in one dispatched
    /// pass, or, with a logger attached, one pass per observed round and
    /// per stretch between them (see `observed_passes`). Bit-identical
    /// to [`BspMachine::run`] on every input; performs **zero heap
    /// allocations**. `_scratch` is not touched (a clean run keeps no
    /// state); it keeps the call shape of
    /// [`BspMachine::run_kernel_parallel`].
    ///
    /// Returns the number of rounds executed (= `kernel.rounds()`).
    ///
    /// # Panics
    ///
    /// Panics if the kernel was lowered for another shape or `keys` is
    /// not one per node.
    pub fn run_kernel<K: Ord + Clone>(
        &self,
        keys: &mut [K],
        kernel: &KernelProgram,
        _scratch: &mut ExecScratch<K>,
    ) -> u64 {
        assert_eq!(
            kernel.shape,
            self.shape(),
            "kernel lowered for another shape"
        );
        assert_eq!(keys.len() as u64, self.shape().len(), "one key per node");
        // Sort-grain span only for programs big enough that its fixed
        // cost disappears into the run (DESIGN.md §13).
        let _sort_span = self.logger.span_if(
            kernel.total_ops() >= SORT_OBS_MIN_OPS,
            Tier::Kernel,
            Stage::Sort,
            SpanClass::None,
        );
        self.observed_passes(kernel, Tier::Kernel, |rounds| {
            exec_table::<K, Keys>(keys, kernel.clean(), rounds, 1);
        });
        kernel.rounds() as u64
    }

    /// Run `kernel`'s rounds through `pass`, a clean pass over a range
    /// of rounds, with round-grain observability only above
    /// [`ROUND_OBS_MIN_OPS`] ops: sub-µs rounds would otherwise pay more
    /// for the clock reads than for the round itself (DESIGN.md §13).
    /// Such a round is its own pass between `RoundStart` and `RoundEnd`,
    /// inside a round span of `tier`. Smaller rounds make no call into
    /// `pns-obs`, and each stretch of them runs as one pass; with a
    /// disabled logger the whole program is one pass.
    pub(crate) fn observed_passes(
        &self,
        kernel: &KernelProgram,
        tier: Tier,
        mut pass: impl FnMut(Range<usize>),
    ) {
        let rounds = kernel.rounds();
        if !self.logger.is_enabled() {
            pass(0..rounds);
            return;
        }
        let mut quiet_from = 0;
        for ri in 0..rounds {
            let ops = kernel.round_len(ri);
            if ops < ROUND_OBS_MIN_OPS {
                continue;
            }
            pass(quiet_from..ri);
            self.logger.log(|| Event::RoundStart {
                round: ri as u64,
                ops: ops as u64,
                parallel: false,
            });
            let round_span = self
                .logger
                .span(tier, Stage::Round, kernel.class(ri).span_class());
            pass(ri..ri + 1);
            self.logger.log(|| Event::RoundEnd { round: ri as u64 });
            drop(round_span);
            quiet_from = ri + 1;
        }
        pass(quiet_from..rounds);
    }

    /// As [`BspMachine::run_kernel`], with compare rounds of at least
    /// [`KERNEL_PAR_THRESHOLD`] ops split across threads (chunked
    /// bitmask decision phase over the round's ops, then a serial
    /// commit). Other rounds run their runs of the full table serially.
    /// Bit-identical to the serial kernel on every input.
    ///
    /// No library path calls this: the scoped threads it spawns in every
    /// large round cost more than they save (`Machine::sort` runs
    /// [`BspMachine::run_kernel`]). It is kept for the differential
    /// tests and the benchmark's fork-join probe.
    ///
    /// # Panics
    ///
    /// Panics if the kernel was lowered for another shape or `keys` is
    /// not one per node.
    pub fn run_kernel_parallel<K>(
        &self,
        keys: &mut [K],
        kernel: &KernelProgram,
        scratch: &mut ExecScratch<K>,
    ) -> u64
    where
        K: Ord + Clone + Send + Sync,
    {
        self.run_kernel_parallel_threshold(keys, kernel, scratch, KERNEL_PAR_THRESHOLD)
    }

    /// [`BspMachine::run_kernel_parallel`] with an explicit serial
    /// fallback threshold (compare rounds of fewer ops run serially). Exposed so tests and benchmarks can force the chunked
    /// path on small rounds; the default threshold is tuned for threads
    /// spawned per round.
    ///
    /// # Panics
    ///
    /// Panics if the kernel was lowered for another shape or `keys` is
    /// not one per node.
    pub fn run_kernel_parallel_threshold<K>(
        &self,
        keys: &mut [K],
        kernel: &KernelProgram,
        scratch: &mut ExecScratch<K>,
        threshold: usize,
    ) -> u64
    where
        K: Ord + Clone + Send + Sync,
    {
        assert_eq!(
            kernel.shape,
            self.shape(),
            "kernel lowered for another shape"
        );
        assert_eq!(keys.len() as u64, self.shape().len(), "one key per node");
        let _sort_span = self.logger.span_if(
            kernel.total_ops() >= SORT_OBS_MIN_OPS,
            Tier::Kernel,
            Stage::Sort,
            SpanClass::None,
        );
        let threads = rayon::current_num_threads();
        for (ri, &class) in kernel.classes.iter().enumerate() {
            let par = class == RoundClass::Compare
                && kernel.round_len(ri) >= threshold.max(1)
                && threads > 1;
            let observed = kernel.round_len(ri) >= ROUND_OBS_MIN_OPS;
            if observed {
                self.logger.log(|| Event::RoundStart {
                    round: ri as u64,
                    ops: kernel.round_len(ri) as u64,
                    parallel: par,
                });
            }
            let _round_span =
                self.logger
                    .span_if(observed, Tier::Kernel, Stage::Round, class.span_class());
            if par {
                exec_round_chunked(keys, &kernel.ops[ri], &mut scratch.swap_words, threads);
            } else {
                exec_table::<K, Keys>(keys, &kernel.full, ri..ri + 1, 1);
            }
            if observed {
                self.logger.log(|| Event::RoundEnd { round: ri as u64 });
            }
        }
        kernel.rounds() as u64
    }

    /// Drive a batch of independent key vectors through one lowered
    /// program, each lane running the serial clean kernel on the pruned
    /// table. The lanes
    /// split into one contiguous chunk per core, or run on the calling
    /// thread on a [`BspMachine::serial`] machine. Produces exactly the
    /// configurations [`BspMachine::run`] would. Lanes keep no state, so
    /// `_pool` is not touched.
    ///
    /// Returns the number of rounds executed (same for every vector).
    ///
    /// # Panics
    ///
    /// Panics if the kernel was lowered for another shape or any vector
    /// is not one key per node.
    pub fn run_kernel_batch<K>(
        &self,
        batch: &mut [Vec<K>],
        kernel: &KernelProgram,
        _pool: &mut ScratchPool<K>,
    ) -> u64
    where
        K: Ord + Clone + Send + Sync,
    {
        assert_eq!(
            kernel.shape,
            self.shape(),
            "kernel lowered for another shape"
        );
        for keys in batch.iter() {
            assert_eq!(keys.len() as u64, self.shape().len(), "one key per node");
        }
        let _batch_span = self
            .logger
            .span(Tier::Kernel, Stage::Batch, SpanClass::None);
        let workers = self.batch_workers(batch.len());
        self.logger.log(|| Event::BatchScheduled {
            batch: batch.len() as u64,
            lanes: workers as u64,
        });
        if workers <= 1 {
            for keys in batch.iter_mut() {
                exec_kernel(keys, kernel.clean());
            }
        } else {
            use rayon::prelude::*;
            batch
                .par_iter_mut()
                .for_each(|keys| exec_kernel(keys, kernel.clean()));
        }
        kernel.rounds() as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bsp::compile;
    use crate::netsort::is_snake_sorted;
    use crate::sorters::{Hypercube2Sorter, OetSnakeSorter, Pg2Sorter, ShearSorter};
    use pns_graph::factories;

    fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 33
            })
            .collect()
    }

    /// A key ordered by `key` alone, so equal keys can differ in which
    /// payload ended where; no drop glue, so it takes the min/max step.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Tagged {
        pub(crate) key: u8,
        pub(crate) payload: u32,
    }

    impl PartialEq for Tagged {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }

    impl Eq for Tagged {}

    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    /// Run `input` through the plain and the dispatched pass over the
    /// full and the pruned table, and `run_kernel` with and without a
    /// recording logger, and require each to equal `BspMachine::run`
    /// through `view`. The logged run
    /// must emit one `RoundStart`/`RoundEnd` pair per round of at least
    /// `ROUND_OBS_MIN_OPS` ops, in order; the detached run nothing.
    fn check_clean_paths<K, V>(
        ctx: &str,
        bsp: &mut BspMachine,
        program: &CompiledProgram,
        kernel: &KernelProgram,
        input: &[K],
        view: impl Fn(&K) -> V,
    ) where
        K: Ord + Clone,
        V: PartialEq + std::fmt::Debug,
    {
        let mut want = input.to_vec();
        bsp.run(&mut want, program);
        let want: Vec<V> = want.iter().map(&view).collect();
        let check = |name: &str, got: &[K]| {
            let got: Vec<V> = got.iter().map(&view).collect();
            assert_eq!(got, want, "{ctx}: {name}");
        };

        for (name, table) in [("full", &kernel.full), ("pruned", kernel.clean())] {
            let mut got = input.to_vec();
            exec_pass::<K, Keys>(&mut got, &table.runs, table.spans(), 1);
            check(&format!("plain pass, {name} table"), &got);
            let mut got = input.to_vec();
            exec_table::<K, Keys>(&mut got, table, 0..kernel.rounds(), 1);
            check(&format!("dispatched pass, {name} table"), &got);
        }

        let (sink, reader) = pns_obs::MemorySink::with_capacity(1 << 16);
        bsp.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let mut got = input.to_vec();
        bsp.run_kernel(&mut got, kernel, &mut ExecScratch::new());
        bsp.logger.flush();
        check("run_kernel, logger attached", &got);
        let observed: Vec<u64> = (0..kernel.rounds())
            .filter(|&ri| kernel.round_len(ri) >= ROUND_OBS_MIN_OPS)
            .map(|ri| ri as u64)
            .collect();
        let events: Vec<Event> = reader.events().into_iter().map(|t| t.event).collect();
        let paired: Vec<(bool, u64)> = events
            .iter()
            .filter_map(|e| match *e {
                Event::RoundStart { round, .. } => Some((true, round)),
                Event::RoundEnd { round } => Some((false, round)),
                _ => None,
            })
            .collect();
        let want_paired: Vec<(bool, u64)> = observed
            .iter()
            .flat_map(|&ri| [(true, ri), (false, ri)])
            .collect();
        assert_eq!(paired, want_paired, "{ctx}: round events");

        bsp.attach_logger(pns_obs::EventLogger::disabled());
        let mut got = input.to_vec();
        bsp.run_kernel(&mut got, kernel, &mut ExecScratch::new());
        check("run_kernel, logger detached", &got);
        assert_eq!(
            reader.events().len(),
            events.len(),
            "{ctx}: detached run logged"
        );
    }

    #[test]
    fn every_clean_path_of_the_kernel_matches_the_interpreter() {
        use crate::machine::Machine;
        use crate::select::SorterChoice;
        // `K2^8` has long runs; the relabeled routed shapes are mostly
        // one-pair runs (relays paired into compare-exchanges).
        let cases = [
            (factories::k2(), 8),
            (factories::complete_binary_tree(3), 2),
            (factories::star(4), 3),
        ];
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        // Few distinct keys, so ties meet at every compare-exchange; the
        // `u64` keys straddle 2^63, where a signed compare would misorder.
        let big = [0, 1, 2, 1 << 63, (1 << 63) + 1, u64::MAX - 1, u64::MAX];
        let (mut long_runs, mut unit_runs, mut pruned) = (0, 0, 0);
        for (factor, r) in cases {
            let factor = Machine::prepare_factor(&factor);
            let program = compile(&factor, r, SorterChoice::Auto.resolve(&factor));
            let mut bsp = BspMachine::new(&factor, r);
            let n = bsp.shape().len() as usize;
            let kernel = bsp.lower(&program).expect("compiled programs validate");
            let units: usize = kernel
                .full
                .spans()
                .iter()
                .map(|s| s.unit_runs().len())
                .sum();
            unit_runs += units;
            long_runs += kernel.full.runs.len() - units;
            pruned += kernel.clean_cx_count() - kernel.kept().pairs;
            let ctx = format!("{}^{r}", factor.name());
            let ties: Vec<u64> = (0..n).map(|_| big[(next() >> 33) as usize % 7]).collect();
            let wide: Vec<u64> = (0..n).map(|_| next()).collect();
            let tagged: Vec<Tagged> = (0..n as u32)
                .map(|payload| Tagged {
                    key: (next() >> 61) as u8 % 3,
                    payload,
                })
                .collect();
            check_clean_paths(&ctx, &mut bsp, &program, &kernel, &ties, |&k| k);
            check_clean_paths(&ctx, &mut bsp, &program, &kernel, &wide, |&k| k);
            let fields = |t: &Tagged| (t.key, t.payload);
            check_clean_paths(&ctx, &mut bsp, &program, &kernel, &tagged, fields);
        }
        assert!(long_runs > 0 && unit_runs > 0, "both kinds of run must run");
        assert!(pruned > 0, "some pair must be pruned");
    }

    #[test]
    fn lowering_is_one_to_one_and_counts_add_up() {
        // star(4) forces relay moves, so both classes appear.
        let factor = factories::star(4);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let kernel = KernelProgram::lower(&program);
        assert_eq!(kernel.rounds(), program.rounds());
        assert_eq!(kernel.cert_points(), program.cert_points());
        assert!(kernel.compare_rounds() > 0, "CX rounds must lower");
        assert!(kernel.route_rounds() > 0, "relay rounds must lower");
        // The clean view: every round's runs cover its compare-exchanges
        // plus one per pair of resolves.
        let mut relays = 0;
        for (ri, round) in program.round_ops().iter().enumerate() {
            let count = |f: fn(&Op) -> bool| round.iter().filter(|op| f(op)).count();
            let cx = count(|op| matches!(op, Op::CompareExchange { .. }));
            let resolves = count(|op| matches!(op, Op::Resolve { .. }));
            let run_pairs: usize = kernel
                .full
                .round(ri)
                .iter()
                .map(|run| run.len as usize)
                .sum();
            assert_eq!(run_pairs, cx + resolves / 2, "round {ri}");
            relays += resolves / 2;
        }
        assert!(relays > 0, "the fixture must relay");
        assert_eq!(kernel.clean_cx_count(), kernel.cx_pair_count() + relays);
    }

    /// Each round's clean compare-exchanges, derived from the source
    /// program alone and oriented minimum first: its compare-exchange
    /// ops, and for every resolve that keeps the minimum, one with the
    /// node whose key its transit slot holds.
    fn clean_lists(program: &CompiledProgram) -> Vec<Vec<(u32, u32)>> {
        let mut slots = vec![[0u64; 2]; program.shape().len() as usize];
        let mut incoming = Vec::new();
        program
            .round_ops()
            .iter()
            .map(|round| {
                let mut list = Vec::new();
                for op in round {
                    match *op {
                        Op::CompareExchange { a, b, min_to_a } => {
                            list.push(if min_to_a { (a, b) } else { (b, a) });
                        }
                        Op::Move {
                            from,
                            to,
                            slot,
                            from_key,
                        } => {
                            let src = if from_key {
                                from
                            } else {
                                slots[from as usize][slot as usize]
                            };
                            incoming.push((to, slot, src));
                        }
                        Op::Resolve {
                            node,
                            slot,
                            keep_min,
                        } => {
                            if keep_min {
                                list.push((node, slots[node as usize][slot as usize]));
                            }
                        }
                    }
                }
                for (to, slot, src) in incoming.drain(..) {
                    slots[to as usize][slot as usize] = src;
                }
                let mut list: Vec<(u32, u32)> = list
                    .into_iter()
                    .map(|(a, b)| (a as u32, b as u32))
                    .collect();
                list.sort_unstable();
                list
            })
            .collect()
    }

    /// Round `ri`'s pairs in `table`, sorted, after checking that its
    /// runs are maximal: no run continues where another starts.
    fn maximal_round_pairs(ctx: &str, table: &RunTable, ri: usize) -> Vec<(u32, u32)> {
        let runs = table.round(ri);
        let starts: std::collections::HashSet<_> = runs.iter().map(|run| (run.a, run.b)).collect();
        for run in runs {
            let next = (run.a + run.len, run.b + run.len);
            assert!(!starts.contains(&next), "{ctx}: round {ri} {run:?} merges");
        }
        let mut pairs: Vec<(u32, u32)> = runs
            .iter()
            .flat_map(|run| (0..run.len).map(|i| (run.a + i, run.b + i)))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn runs_cover_each_rounds_clean_list_and_are_maximal() {
        use crate::machine::Machine;
        use crate::sorters::MultiwayNSorter;
        let cases: [(pns_graph::Graph, usize, &dyn Pg2Sorter, usize); 7] = [
            (factories::star(4), 3, &MultiwayNSorter, 913),
            (
                factories::complete_binary_tree(3),
                3,
                &OetSnakeSorter,
                25_878,
            ),
            (
                factories::complete_binary_tree(3),
                3,
                &MultiwayNSorter,
                10_918,
            ),
            (factories::petersen(), 2, &ShearSorter, 2_430),
            (factories::petersen(), 2, &MultiwayNSorter, 1_728),
            (factories::k2(), 8, &Hypercube2Sorter, 7_577),
            (factories::path(3), 4, &OetSnakeSorter, 1_996),
        ];
        for (factor, r, sorter, runs) in cases {
            let factor = Machine::prepare_factor(&factor);
            let program = compile(&factor, r, sorter);
            let ctx = format!("{}^{r} {}", factor.name(), sorter.name());
            let kernel = KernelProgram::lower(&program);
            assert_eq!(kernel.rounds(), program.rounds(), "{ctx}");
            for (ri, want) in clean_lists(&program).into_iter().enumerate() {
                let full = maximal_round_pairs(&ctx, &kernel.full, ri);
                assert_eq!(full, want, "{ctx}: round {ri}");
                // The pruned table keeps a subset of each round.
                let kept = maximal_round_pairs(&ctx, kernel.clean(), ri);
                assert!(
                    kept.iter().all(|p| full.binary_search(p).is_ok()),
                    "{ctx}: round {ri} keeps a pair it does not have"
                );
            }
            assert_eq!(kernel.full.pairs(), kernel.clean_cx_count(), "{ctx}");
            assert_eq!(kernel.clean().pairs(), kernel.kept().pairs, "{ctx}");
            assert_eq!(kernel.full.runs.len(), runs, "{ctx}: run count");
        }
    }

    #[test]
    fn kernels_share_the_programs_ops_and_count_them() {
        use crate::machine::Machine;
        use crate::sorters::MultiwayNSorter;
        // Compare-exchanges in compare rounds and ops in route rounds,
        // as the benchmark reads them, on its two relaying shapes: the
        // mesh-connected tree under the OET snake and under the multiway
        // n-sorter, and the star cube under the multiway n-sorter.
        let cases: [(pns_graph::Graph, usize, &dyn Pg2Sorter, usize, usize); 3] = [
            (
                factories::complete_binary_tree(3),
                3,
                &OetSnakeSorter,
                11_074,
                143_738,
            ),
            (
                factories::complete_binary_tree(3),
                3,
                &MultiwayNSorter,
                6_622,
                113_050,
            ),
            (factories::star(4), 3, &MultiwayNSorter, 656, 5_952),
        ];
        for (factor, r, sorter, cx_pairs, micro_ops) in cases {
            let factor = Machine::prepare_factor(&factor);
            let program = compile(&factor, r, sorter);
            let validated = BspMachine::new(&factor, r)
                .lower(&program)
                .expect("compiled programs validate");
            for kernel in [KernelProgram::lower(&program), validated] {
                let ctx = format!("{}^{r} {}", factor.name(), sorter.name());
                assert!(
                    std::ptr::eq(&kernel.ops[..], program.round_ops()),
                    "{ctx}: the kernel must share the program's rounds"
                );
                let (mut compare, mut route) = ((0, 0), (0, 0));
                for (ri, round) in program.round_ops().iter().enumerate() {
                    let relays = round
                        .iter()
                        .any(|op| !matches!(op, Op::CompareExchange { .. }));
                    let (class, tally) = match (round.is_empty(), relays) {
                        (true, _) => (RoundClass::Empty, None),
                        (false, false) => (RoundClass::Compare, Some(&mut compare)),
                        (false, true) => (RoundClass::Route, Some(&mut route)),
                    };
                    assert_eq!(kernel.class(ri), class, "{ctx}: round {ri}");
                    assert_eq!(kernel.round_len(ri), round.len(), "{ctx}: round {ri}");
                    if let Some((rounds, ops)) = tally {
                        *rounds += 1;
                        *ops += round.len();
                    }
                }
                assert_eq!(
                    (kernel.compare_rounds(), kernel.cx_pair_count()),
                    compare,
                    "{ctx}"
                );
                assert_eq!(
                    (kernel.route_rounds(), kernel.micro_op_count()),
                    route,
                    "{ctx}"
                );
                assert_eq!(kernel.total_ops(), program.op_count(), "{ctx}");
                assert_eq!(
                    (kernel.cx_pair_count(), kernel.micro_op_count()),
                    (cx_pairs, micro_ops),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_interpreter_on_mixed_factors() {
        let cases: Vec<(pns_graph::Graph, usize, &dyn Pg2Sorter)> = vec![
            (factories::path(3), 3, &ShearSorter),
            (factories::star(4), 2, &OetSnakeSorter),
            (factories::k2(), 4, &Hypercube2Sorter),
        ];
        for (factor, r, sorter) in cases {
            let program = compile(&factor, r, sorter);
            let bsp = BspMachine::new(&factor, r);
            let kernel = bsp.lower(&program).expect("compiled programs validate");
            let mut scratch = ExecScratch::new();
            for seed in [1u64, 42, 0xFEED] {
                let input = lcg_keys(bsp.shape().len(), seed);
                let mut want = input.clone();
                bsp.run(&mut want, &program);
                let mut got = input.clone();
                let rounds = bsp.run_kernel(&mut got, &kernel, &mut scratch);
                assert_eq!(got, want, "{} seed {seed}", factor.name());
                assert_eq!(rounds as usize, program.rounds());
                let mut par = input.clone();
                bsp.run_kernel_parallel_threshold(&mut par, &kernel, &mut scratch, 1);
                assert_eq!(par, want, "{} seed {seed} chunked", factor.name());
            }
        }
    }

    #[test]
    fn kernel_batch_matches_per_vector_runs() {
        let factor = factories::path(3);
        let program = compile(&factor, 3, &ShearSorter);
        let bsp = BspMachine::new(&factor, 3);
        let kernel = bsp.lower(&program).expect("valid");
        let mut pool = ScratchPool::new();
        for round in 0..2 {
            let mut batch: Vec<Vec<u64>> = (0..6)
                .map(|i| lcg_keys(bsp.shape().len(), i * 31 + round + 1))
                .collect();
            let want: Vec<Vec<u64>> = batch
                .iter()
                .map(|input| {
                    let mut w = input.clone();
                    bsp.run(&mut w, &program);
                    w
                })
                .collect();
            bsp.run_kernel_batch(&mut batch, &kernel, &mut pool);
            assert_eq!(batch, want, "pass {round}");
        }
    }

    #[test]
    fn one_scratch_serves_programs_of_different_sizes() {
        let mut scratch = ExecScratch::new();
        for (factor, r) in [(factories::path(4), 2), (factories::path(3), 3)] {
            let program = compile(&factor, r, &ShearSorter);
            let bsp = BspMachine::new(&factor, r);
            let kernel = bsp.lower(&program).expect("valid");
            let mut keys = lcg_keys(bsp.shape().len(), 9);
            bsp.run_kernel(&mut keys, &kernel, &mut scratch);
            assert!(is_snake_sorted(bsp.shape(), &keys), "{}^{r}", factor.name());
        }
    }

    #[test]
    fn kernel_sorts_every_zero_one_vector_on_the_3_cube() {
        // Exhaustive 0/1 check on k2^3 (8 nodes, 256 inputs): by the
        // zero-one principle this certifies the kernel's comparator
        // schedule for all inputs of this shape.
        let factor = factories::k2();
        let program = compile(&factor, 3, &Hypercube2Sorter);
        let bsp = BspMachine::new(&factor, 3);
        let kernel = bsp.lower(&program).expect("valid");
        let mut scratch = ExecScratch::new();
        for bits in 0u32..256 {
            let mut keys: Vec<u64> = (0..8).map(|i| u64::from(bits >> i & 1)).collect();
            bsp.run_kernel(&mut keys, &kernel, &mut scratch);
            assert!(
                is_snake_sorted(bsp.shape(), &keys),
                "bits {bits:#010b} must sort"
            );
        }
    }

    #[test]
    fn lower_rejects_invalid_programs() {
        let bsp = BspMachine::new(&factories::path(3), 2);
        let bogus = CompiledProgram::from_rounds(
            bsp.shape(),
            vec![vec![Op::CompareExchange {
                a: 0,
                b: 8, // not an edge on path(3)^2
                min_to_a: true,
            }]],
        );
        assert!(bsp.lower(&bogus).is_err(), "lower must validate first");
    }

    #[test]
    fn kernel_round_events_are_gated_by_op_count() {
        // Small fixture: path(3)^2 sits below BOTH observability gates
        // — every round is under ROUND_OBS_MIN_OPS and the whole
        // program is under SORT_OBS_MIN_OPS — so a kernel run emits
        // nothing at all. That silence is the point: the enabled-sink
        // tax on micro-programs is a branch, not a span.
        let factor = factories::path(3);
        let program = compile(&factor, 2, &ShearSorter);
        let mut bsp = BspMachine::new(&factor, 2);
        let kernel = bsp.lower(&program).expect("valid");
        assert!(
            (0..kernel.rounds()).all(|ri| kernel.round_len(ri) < ROUND_OBS_MIN_OPS),
            "fixture must sit below the round observability threshold"
        );
        assert!(
            kernel.total_ops() < SORT_OBS_MIN_OPS,
            "fixture must sit below the sort-span threshold"
        );
        let (sink, reader) = pns_obs::MemorySink::with_capacity(1 << 12);
        bsp.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let mut scratch = ExecScratch::new();
        let mut keys = lcg_keys(bsp.shape().len(), 3);
        bsp.run_kernel(&mut keys, &kernel, &mut scratch);
        bsp.logger.flush();
        let events: Vec<Event> = reader.events().into_iter().map(|t| t.event).collect();
        assert!(
            events.is_empty(),
            "sub-threshold programs must emit no events: {events:?}"
        );

        // Large fixture: k2 r=8 clears the sort-span gate and has
        // rounds at or above the round threshold, which must emit the
        // sort span, paired round events, AND classed round spans.
        let factor = factories::k2();
        let program = compile(&factor, 8, &Hypercube2Sorter);
        let mut bsp = BspMachine::new(&factor, 8);
        let kernel = bsp.lower(&program).expect("valid");
        assert!(
            kernel.total_ops() >= SORT_OBS_MIN_OPS,
            "fixture must clear the sort-span threshold"
        );
        let observed: usize = (0..kernel.rounds())
            .filter(|&ri| kernel.round_len(ri) >= ROUND_OBS_MIN_OPS)
            .count();
        assert!(observed > 0, "fixture must cross the threshold");
        let (sink, reader) = pns_obs::MemorySink::with_capacity(1 << 16);
        bsp.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let mut scratch = ExecScratch::new();
        let mut keys = lcg_keys(bsp.shape().len(), 5);
        bsp.run_kernel(&mut keys, &kernel, &mut scratch);
        bsp.logger.flush();
        let events: Vec<Event> = reader.events().into_iter().map(|t| t.event).collect();
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::RoundStart { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, Event::RoundEnd { .. }))
            .count();
        assert_eq!(starts, observed);
        assert_eq!(ends, observed);
        let round_spans = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::SpanEnter { stage, .. } if *stage == Stage::Round.code()
                )
            })
            .count();
        assert_eq!(round_spans, observed);
        // Every round span carries a lowered class, never None.
        assert!(events.iter().all(|e| match e {
            Event::SpanEnter { stage, class, .. } if *stage == Stage::Round.code() =>
                *class != SpanClass::None.code(),
            _ => true,
        }));
        let profile = pns_obs::Profile::from_events(&reader.events().to_vec());
        assert_eq!(profile.open_spans(), 0);
        // Self times partition the sort span's duration exactly.
        assert_eq!(profile.total_self_ns(), profile.root_ns());
    }
}
