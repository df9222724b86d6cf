//! Flat structure-of-arrays kernel tier for compiled BSP programs.
//!
//! [`crate::bsp::BspMachine::run`] and friends *interpret* a
//! `Vec<Vec<Op>>`: every operation pays an enum discriminant match, and
//! every round allocates scratch (`incoming` buffers, deferred-action
//! vectors). For the throughput experiments that execute one schedule
//! thousands of times, that interpretive overhead dominates. This module
//! lowers a validated [`CompiledProgram`] **once** into a
//! [`KernelProgram`]:
//!
//! * **Pure compare-exchange rounds** become one contiguous slice of
//!   `(u32, u32)` rank pairs plus a direction bitmask (`cx_dirs`, one
//!   bit per pair, indexed globally). Execution is a single tight loop —
//!   no per-op discriminant, no bounds-checked enum payloads.
//! * **Route rounds** (any round containing a `Move` or `Resolve`)
//!   become a packed [`MicroOp`] array in **original op order**, so the
//!   micro-op index within the round equals the op index within the
//!   interpreted round — this is what keeps `FaultSite { round, op }`
//!   keys *path-independent* (a `FaultPlan` fires at the same sites on
//!   the kernel path as on the interpreter path).
//! * **Empty rounds** keep a descriptor so kernel round indices map 1:1
//!   to `CompiledProgram` round indices; `CertPoint` boundaries and
//!   reported step counts stay valid unchanged.
//!
//! Each round carries a [`RoundClass`] tag, so dispatch is one `match`
//! per round instead of one per op. Execution state lives in a reusable
//! [`ExecScratch`]: after the first (warm-up) run, `run_kernel` performs
//! **zero heap allocations** — proven by a counting-allocator test
//! (`tests/kernel_alloc.rs`).
//!
//! Lowering happens after static validation ([`BspMachine::lower`]), so
//! the kernels run unchecked, like `run_parallel` after `validate` —
//! but validation is paid once per program, not once per run.
//!
//! The intra-round parallel path ([`BspMachine::run_kernel_parallel`])
//! replaces the interpreter's `par_iter().map().collect::<Vec<Action>>()`
//! (one allocation per parallel round, plus one heap-allocated action
//! list) with chunked execution over disjoint pair ranges: worker
//! threads write swap decisions into a reusable `u64` bitmask, and the
//! swaps commit serially — bit-identical to serial order because
//! validated compare rounds touch each key at most once. It has no
//! library caller: it spawns scoped threads in every large round, which
//! costs more than the serial kernel saves, so `Machine::sort` runs
//! [`BspMachine::run_kernel`]. The path is kept for the differential
//! tests and the benchmark's fork-join probe.
//!
//! Batches ([`BspMachine::run_kernel_batch`]) fan their lanes out over
//! the vendored `rayon`, unless the machine is
//! [`BspMachine::serial`], as the service's workers are.

use pns_obs::{Event, SpanClass, Stage, Tier, ROUND_OBS_MIN_OPS, SORT_OBS_MIN_OPS};
use pns_order::radix::Shape;

use crate::bsp::{BspMachine, CertPoint, CompiledProgram, Op, ProgramError};

/// Minimum compare-pairs in a round before
/// [`BspMachine::run_kernel_parallel`] splits it across threads. The
/// path spawns scoped OS threads per round, so intra-round parallelism
/// only pays for very large rounds; below this, the serial kernel wins.
/// No library path uses it: it is kept for the differential tests and
/// the benchmark's fork-join probe.
pub const KERNEL_PAR_THRESHOLD: usize = 8192;

/// What a lowered round contains, so dispatch is one `match` per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundClass {
    /// No operations (padding the optimizer did not elide).
    Empty,
    /// Only compare-exchanges: runs as a tight pair-list loop.
    Compare,
    /// At least one `Move`/`Resolve`: runs as packed micro-ops with a
    /// deferred incoming commit (transit reads see previous-round state).
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

/// One lowered round: a class tag plus a `start..end` range into
/// [`KernelProgram::cx_pairs`] (Compare) or [`KernelProgram::micro`]
/// (Route).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundDesc {
    pub(crate) class: RoundClass,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// Micro-op tags: the [`MicroOp::tag`] values.
pub(crate) const TAG_CX: u8 = 0;
pub(crate) const TAG_MOVE: u8 = 1;
pub(crate) const TAG_RESOLVE: u8 = 2;
/// Flag bit 0: `min_to_a` (CX), `from_key` (Move), `keep_min` (Resolve).
pub(crate) const FLAG_PRIMARY: u8 = 1;
/// Flag bit 1: transit slot 1 rather than 0 (Move/Resolve).
pub(crate) const FLAG_SLOT1: u8 = 2;

/// One packed operation of a route round — 10 bytes instead of a 32-byte
/// enum variant, in the **original op order** of the interpreted round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    /// First rank: CX `a`, Move `from`, Resolve `node`.
    pub(crate) a: u32,
    /// Second rank: CX `b`, Move `to`, unused for Resolve.
    pub(crate) b: u32,
    /// [`TAG_CX`] / [`TAG_MOVE`] / [`TAG_RESOLVE`].
    pub(crate) tag: u8,
    /// [`FLAG_PRIMARY`] | [`FLAG_SLOT1`].
    pub(crate) flags: u8,
}

impl MicroOp {
    fn pack(op: &Op) -> MicroOp {
        match *op {
            Op::CompareExchange { a, b, min_to_a } => MicroOp {
                a: a as u32,
                b: b as u32,
                tag: TAG_CX,
                flags: u8::from(min_to_a) * FLAG_PRIMARY,
            },
            Op::Move {
                from,
                to,
                slot,
                from_key,
            } => MicroOp {
                a: from as u32,
                b: to as u32,
                tag: TAG_MOVE,
                flags: u8::from(from_key) * FLAG_PRIMARY + u8::from(slot == 1) * FLAG_SLOT1,
            },
            Op::Resolve {
                node,
                slot,
                keep_min,
            } => MicroOp {
                a: node as u32,
                b: 0,
                tag: TAG_RESOLVE,
                flags: u8::from(keep_min) * FLAG_PRIMARY + u8::from(slot == 1) * FLAG_SLOT1,
            },
        }
    }

    /// The interpreted op this micro-op was lowered from — exact, so the
    /// fault executor can reuse the interpreter's per-op semantics.
    pub(crate) fn to_op(self) -> Op {
        let primary = self.flags & FLAG_PRIMARY != 0;
        let slot = u8::from(self.flags & FLAG_SLOT1 != 0);
        match self.tag {
            TAG_CX => Op::CompareExchange {
                a: u64::from(self.a),
                b: u64::from(self.b),
                min_to_a: primary,
            },
            TAG_MOVE => Op::Move {
                from: u64::from(self.a),
                to: u64::from(self.b),
                slot,
                from_key: primary,
            },
            _ => Op::Resolve {
                node: u64::from(self.a),
                slot,
                keep_min: primary,
            },
        }
    }
}

/// A compiled program lowered to flat structure-of-arrays form. Rounds
/// map 1:1 to the source program's rounds (certificates and step counts
/// transfer unchanged); within a round, lowered op order equals
/// interpreted op order (fault sites transfer unchanged).
///
/// Build one with [`BspMachine::lower`] (validates first) or
/// [`KernelProgram::lower`] (assumes a valid program, e.g. straight out
/// of [`crate::bsp::compile`]).
#[derive(Debug, Clone)]
pub struct KernelProgram {
    pub(crate) shape: Shape,
    pub(crate) rounds: Vec<RoundDesc>,
    /// All compare rounds' `(a, b)` rank pairs, concatenated.
    pub(crate) cx_pairs: Vec<(u32, u32)>,
    /// `min_to_a` per pair, one bit per **global** pair index.
    pub(crate) cx_dirs: Vec<u64>,
    /// All route rounds' packed ops, concatenated, original order.
    pub(crate) micro: Vec<MicroOp>,
    pub(crate) cert_points: Vec<CertPoint>,
    compare_rounds: usize,
    route_rounds: usize,
}

impl KernelProgram {
    /// Lower a program. Pure and infallible — but the lowered kernels
    /// execute **unchecked**, so the input must already satisfy
    /// [`BspMachine::try_validate`]'s invariants ([`crate::bsp::compile`]
    /// output always does; for hand-built programs go through
    /// [`BspMachine::lower`]).
    ///
    /// # Panics
    ///
    /// Panics if the network has more than `u32::MAX` nodes (ranks are
    /// packed into `u32`) or a slot index is not 0/1 (validation rejects
    /// those programs anyway).
    #[must_use]
    pub fn lower(program: &CompiledProgram) -> KernelProgram {
        assert!(
            program.shape().len() <= u64::from(u32::MAX),
            "kernel tier packs ranks into u32"
        );
        let source = program.round_ops();
        let mut rounds = Vec::with_capacity(source.len());
        let mut cx_pairs: Vec<(u32, u32)> = Vec::new();
        let mut cx_dirs: Vec<u64> = Vec::new();
        let mut micro: Vec<MicroOp> = Vec::new();
        let (mut compare_rounds, mut route_rounds) = (0, 0);
        for round in source {
            if round.is_empty() {
                rounds.push(RoundDesc {
                    class: RoundClass::Empty,
                    start: 0,
                    end: 0,
                });
            } else if round
                .iter()
                .all(|op| matches!(op, Op::CompareExchange { .. }))
            {
                compare_rounds += 1;
                let start = cx_pairs.len() as u32;
                for op in round {
                    if let Op::CompareExchange { a, b, min_to_a } = *op {
                        let gi = cx_pairs.len();
                        if cx_dirs.len() <= gi >> 6 {
                            cx_dirs.push(0);
                        }
                        if min_to_a {
                            cx_dirs[gi >> 6] |= 1u64 << (gi & 63);
                        }
                        cx_pairs.push((a as u32, b as u32));
                    }
                }
                rounds.push(RoundDesc {
                    class: RoundClass::Compare,
                    start,
                    end: cx_pairs.len() as u32,
                });
            } else {
                route_rounds += 1;
                let start = micro.len() as u32;
                for op in round {
                    if let Op::Move { slot, .. } | Op::Resolve { slot, .. } = *op {
                        assert!(slot < 2, "validation rejects slots >= 2");
                    }
                    micro.push(MicroOp::pack(op));
                }
                rounds.push(RoundDesc {
                    class: RoundClass::Route,
                    start,
                    end: micro.len() as u32,
                });
            }
        }
        KernelProgram {
            shape: program.shape(),
            rounds,
            cx_pairs,
            cx_dirs,
            micro,
            cert_points: program.cert_points().to_vec(),
            compare_rounds,
            route_rounds,
        }
    }

    /// The shape the kernel was lowered for.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Rounds in the kernel (= the source program's round count).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The class of round `ri`.
    ///
    /// # Panics
    ///
    /// Panics if `ri >= self.rounds()`.
    #[must_use]
    pub fn class(&self, ri: usize) -> RoundClass {
        self.rounds[ri].class
    }

    /// Operations in round `ri` (= the source round's op count).
    ///
    /// # Panics
    ///
    /// Panics if `ri >= self.rounds()`.
    #[must_use]
    pub fn round_len(&self, ri: usize) -> usize {
        let d = self.rounds[ri];
        (d.end - d.start) as usize
    }

    /// Pure compare-exchange rounds.
    #[must_use]
    pub fn compare_rounds(&self) -> usize {
        self.compare_rounds
    }

    /// Rounds containing route micro-ops.
    #[must_use]
    pub fn route_rounds(&self) -> usize {
        self.route_rounds
    }

    /// Total compare-exchange pairs across all compare rounds.
    #[must_use]
    pub fn cx_pair_count(&self) -> usize {
        self.cx_pairs.len()
    }

    /// Total packed micro-ops across all route rounds.
    #[must_use]
    pub fn micro_op_count(&self) -> usize {
        self.micro.len()
    }

    /// Total lowered operations across all rounds — the program-size
    /// measure [`SORT_OBS_MIN_OPS`] gates sort-grain spans on.
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.cx_pairs.len() + self.micro.len()
    }

    /// Stage certificates, carried over from the source program (round
    /// indices transfer unchanged — lowering is 1:1 per round).
    #[must_use]
    pub fn cert_points(&self) -> &[CertPoint] {
        &self.cert_points
    }

    /// `min_to_a` for the global pair index `gi`.
    #[inline]
    pub(crate) fn dir(&self, gi: usize) -> bool {
        (self.cx_dirs[gi >> 6] >> (gi & 63)) & 1 == 1
    }
}

/// Reusable execution state for the kernel tier: transit slots, the
/// deferred incoming queue, and the parallel path's swap bitmask. One
/// scratch serves one key vector at a time; create it once and reuse it
/// across runs — after the first run sizes the buffers, every later
/// [`BspMachine::run_kernel`] call performs zero heap allocations.
#[derive(Debug, Default)]
pub struct ExecScratch<K> {
    pub(crate) transit: Vec<[Option<K>; 2]>,
    pub(crate) incoming: Vec<(u32, u8, K)>,
    pub(crate) swap_words: Vec<u64>,
}

impl<K> ExecScratch<K> {
    /// An empty scratch; the first run warms it up to the network size.
    #[must_use]
    pub fn new() -> Self {
        ExecScratch {
            transit: Vec::new(),
            incoming: Vec::new(),
            swap_words: Vec::new(),
        }
    }

    /// Size for `n` nodes and clear leftovers (capacity is kept, so
    /// resizing to the same `n` allocates nothing).
    pub(crate) fn reset(&mut self, n: usize) {
        if self.transit.len() == n {
            for t in &mut self.transit {
                t[0] = None;
                t[1] = None;
            }
        } else {
            self.transit.clear();
            self.transit.resize_with(n, || [None, None]);
        }
        self.incoming.clear();
    }
}

/// A pool of [`ExecScratch`]es, one per batch lane, reused across
/// [`BspMachine::run_kernel_batch`] calls so steady-state batches do not
/// reallocate per-lane state.
#[derive(Debug, Default)]
pub struct ScratchPool<K> {
    slots: Vec<ExecScratch<K>>,
}

impl<K> ScratchPool<K> {
    /// An empty pool; lanes are added on demand.
    #[must_use]
    pub fn new() -> Self {
        ScratchPool { slots: Vec::new() }
    }

    /// At least `n` scratches, growing if needed.
    pub(crate) fn ensure(&mut self, n: usize) -> &mut [ExecScratch<K>] {
        while self.slots.len() < n {
            self.slots.push(ExecScratch::new());
        }
        &mut self.slots[..n]
    }

    /// Lanes currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` iff no lane has been warmed up yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// One compare round, serial: a tight loop over the pair list.
#[inline]
fn exec_compare_round<K: Ord>(keys: &mut [K], kernel: &KernelProgram, desc: RoundDesc) {
    for gi in desc.start as usize..desc.end as usize {
        let (a, b) = kernel.cx_pairs[gi];
        let (ai, bi) = (a as usize, b as usize);
        if (keys[ai] <= keys[bi]) != kernel.dir(gi) {
            keys.swap(ai, bi);
        }
    }
}

/// One route round: micro-ops in original order, incoming values
/// buffered and committed at the end (transit reads see previous-round
/// state — the same semantics as `exec_round_serial`).
fn exec_route_round<K: Ord + Clone>(
    keys: &mut [K],
    transit: &mut [[Option<K>; 2]],
    incoming: &mut Vec<(u32, u8, K)>,
    micro: &[MicroOp],
) {
    incoming.clear();
    for m in micro {
        let ai = m.a as usize;
        match m.tag {
            TAG_CX => {
                let bi = m.b as usize;
                if (keys[ai] <= keys[bi]) != (m.flags & FLAG_PRIMARY != 0) {
                    keys.swap(ai, bi);
                }
            }
            TAG_MOVE => {
                let si = usize::from(m.flags & FLAG_SLOT1 != 0);
                let payload = if m.flags & FLAG_PRIMARY != 0 {
                    keys[ai].clone()
                } else {
                    transit[ai][si].take().expect("validated: slot occupied")
                };
                incoming.push((m.b, si as u8, payload));
            }
            _ => {
                let si = usize::from(m.flags & FLAG_SLOT1 != 0);
                let arrived = transit[ai][si].take().expect("validated: slot occupied");
                let resident = &mut keys[ai];
                let keep_arrived = if m.flags & FLAG_PRIMARY != 0 {
                    arrived < *resident
                } else {
                    arrived > *resident
                };
                if keep_arrived {
                    *resident = arrived;
                }
            }
        }
    }
    for (to, slot, payload) in incoming.drain(..) {
        transit[to as usize][slot as usize] = Some(payload);
    }
}

/// One kernel round, serial, unlogged — shared by the serial runner,
/// batch lanes, and the small-round path of the parallel runner.
#[inline]
pub(crate) fn exec_kernel_round<K: Ord + Clone>(
    keys: &mut [K],
    kernel: &KernelProgram,
    ri: usize,
    scratch: &mut ExecScratch<K>,
) {
    let desc = kernel.rounds[ri];
    match desc.class {
        RoundClass::Empty => {}
        RoundClass::Compare => exec_compare_round(keys, kernel, desc),
        RoundClass::Route => exec_route_round(
            keys,
            &mut scratch.transit,
            &mut scratch.incoming,
            &kernel.micro[desc.start as usize..desc.end as usize],
        ),
    }
}

/// A whole kernel program on one key vector, serial, unlogged.
pub(crate) fn exec_kernel<K: Ord + Clone>(
    keys: &mut [K],
    kernel: &KernelProgram,
    scratch: &mut ExecScratch<K>,
) {
    scratch.reset(keys.len());
    for ri in 0..kernel.rounds.len() {
        exec_kernel_round(keys, kernel, ri, scratch);
    }
}

/// One compare round with its decision phase split across threads:
/// disjoint 64-pair-aligned chunks of the swap bitmask are filled by
/// workers reading the immutable start-of-round keys, then the swaps
/// commit serially. Validated compare rounds touch each key at most
/// once, so start-of-round decisions equal in-order serial decisions —
/// bit-identical to [`exec_compare_round`].
fn exec_compare_round_chunked<K: Ord + Send + Sync>(
    keys: &mut [K],
    kernel: &KernelProgram,
    desc: RoundDesc,
    words: &mut Vec<u64>,
    threads: usize,
) {
    let start = desc.start as usize;
    let n_pairs = (desc.end - desc.start) as usize;
    let n_words = n_pairs.div_ceil(64);
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
                        let pair_base = (wbase + wi) * 64;
                        let in_word = 64.min(n_pairs - pair_base);
                        let mut bits = 0u64;
                        for j in 0..in_word {
                            let gi = start + pair_base + j;
                            let (a, b) = kernel.cx_pairs[gi];
                            if (keys_ref[a as usize] <= keys_ref[b as usize]) != kernel.dir(gi) {
                                bits |= 1u64 << j;
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
            let (a, b) = kernel.cx_pairs[start + wi * 64 + j];
            keys.swap(a as usize, b as usize);
        }
    }
}

impl BspMachine {
    /// Validate `program` against this machine, then lower it to a
    /// [`KernelProgram`]. The kernels then run unchecked — validation is
    /// paid once per program instead of once per run (`run_parallel`
    /// re-validates on every call).
    ///
    /// # Errors
    ///
    /// The first machine-model violation, as from
    /// [`BspMachine::try_validate`].
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
        Ok(KernelProgram::lower(program))
    }

    /// Execute a lowered program on `keys`, serially. Bit-identical to
    /// [`BspMachine::run`] on every input; performs **zero heap
    /// allocations** once `scratch` is warm (reuse the scratch across
    /// calls — the first call sizes it).
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
        scratch: &mut ExecScratch<K>,
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
        scratch.reset(keys.len());
        for (ri, desc) in kernel.rounds.iter().enumerate() {
            // Round-grain observability only above the op threshold:
            // sub-µs kernel rounds would otherwise pay more for the
            // clock reads than for the round itself (DESIGN.md §13).
            let observed = kernel.round_len(ri) >= ROUND_OBS_MIN_OPS;
            if observed {
                self.logger.log(|| Event::RoundStart {
                    round: ri as u64,
                    ops: kernel.round_len(ri) as u64,
                    parallel: false,
                });
            }
            let _round_span = self.logger.span_if(
                observed,
                Tier::Kernel,
                Stage::Round,
                desc.class.span_class(),
            );
            exec_kernel_round(keys, kernel, ri, scratch);
            if observed {
                self.logger.log(|| Event::RoundEnd { round: ri as u64 });
            }
        }
        debug_assert!(
            scratch
                .transit
                .iter()
                .all(|t| t[0].is_none() && t[1].is_none()),
            "transit values left in flight after the program ended"
        );
        kernel.rounds.len() as u64
    }

    /// As [`BspMachine::run_kernel`], with compare rounds of at least
    /// [`KERNEL_PAR_THRESHOLD`] pairs split across threads (chunked
    /// bitmask decision phase + serial commit). Route and small rounds
    /// run serially. Bit-identical to the serial kernel on every input.
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
    /// fallback threshold (compare rounds with fewer pairs run serially).
    /// Exposed so tests and benchmarks can force the chunked path on
    /// small rounds; the default threshold is tuned for threads spawned
    /// per round.
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
        scratch.reset(keys.len());
        for (ri, desc) in kernel.rounds.iter().enumerate() {
            let par = desc.class == RoundClass::Compare
                && (desc.end - desc.start) as usize >= threshold.max(1)
                && threads > 1;
            let observed = kernel.round_len(ri) >= ROUND_OBS_MIN_OPS;
            if observed {
                self.logger.log(|| Event::RoundStart {
                    round: ri as u64,
                    ops: kernel.round_len(ri) as u64,
                    parallel: par,
                });
            }
            let _round_span = self.logger.span_if(
                observed,
                Tier::Kernel,
                Stage::Round,
                desc.class.span_class(),
            );
            if par {
                exec_compare_round_chunked(keys, kernel, *desc, &mut scratch.swap_words, threads);
            } else {
                exec_kernel_round(keys, kernel, ri, scratch);
            }
            if observed {
                self.logger.log(|| Event::RoundEnd { round: ri as u64 });
            }
        }
        kernel.rounds.len() as u64
    }

    /// Drive a batch of independent key vectors through one lowered
    /// program, each lane running the serial kernel on its own
    /// [`ScratchPool`] slot. The lanes split into one contiguous chunk
    /// per core, or run on the calling thread on a
    /// [`BspMachine::serial`] machine. Produces exactly the
    /// configurations [`BspMachine::run`] would; steady-state batches
    /// reuse the pool's warm scratches instead of reallocating per lane.
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
        pool: &mut ScratchPool<K>,
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
        let scratches = pool.ensure(batch.len());
        if workers <= 1 {
            for (keys, scratch) in batch.iter_mut().zip(scratches.iter_mut()) {
                exec_kernel(keys, kernel, scratch);
            }
        } else {
            /// Distinct `&mut` targets per worker (the vendored `rayon`
            /// subset has no zip, so lanes pair keys with scratch).
            struct Lane<'a, K> {
                keys: &'a mut Vec<K>,
                scratch: &'a mut ExecScratch<K>,
            }
            use rayon::prelude::*;
            let mut lanes: Vec<Lane<'_, K>> = batch
                .iter_mut()
                .zip(scratches.iter_mut())
                .map(|(keys, scratch)| Lane { keys, scratch })
                .collect();
            lanes
                .par_iter_mut()
                .for_each(|lane| exec_kernel(lane.keys, kernel, lane.scratch));
        }
        kernel.rounds.len() as u64
    }
}

#[cfg(test)]
mod tests {
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
        let total: usize = (0..kernel.rounds()).map(|ri| kernel.round_len(ri)).sum();
        assert_eq!(total, program.op_count(), "no op gained or lost");
        assert_eq!(
            kernel.cx_pair_count() + kernel.micro_op_count(),
            program.op_count()
        );
        // Per-round op counts and in-round order are preserved.
        for (ri, round) in program.round_ops().iter().enumerate() {
            assert_eq!(kernel.round_len(ri), round.len(), "round {ri}");
            if kernel.class(ri) == RoundClass::Route {
                let d = kernel.rounds[ri];
                for (oi, op) in round.iter().enumerate() {
                    let m = kernel.micro[d.start as usize + oi];
                    assert_eq!(&m.to_op(), op, "round {ri} op {oi} must round-trip");
                }
            }
        }
    }

    #[test]
    fn micro_op_round_trips_every_variant() {
        let ops = [
            Op::CompareExchange {
                a: 3,
                b: 7,
                min_to_a: true,
            },
            Op::CompareExchange {
                a: 0,
                b: 1,
                min_to_a: false,
            },
            Op::Move {
                from: 5,
                to: 6,
                slot: 1,
                from_key: false,
            },
            Op::Move {
                from: 2,
                to: 9,
                slot: 0,
                from_key: true,
            },
            Op::Resolve {
                node: 4,
                slot: 1,
                keep_min: false,
            },
            Op::Resolve {
                node: 8,
                slot: 0,
                keep_min: true,
            },
        ];
        for op in &ops {
            assert_eq!(&MicroOp::pack(op).to_op(), op, "{op:?}");
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
    fn kernel_batch_matches_per_vector_runs_and_reuses_the_pool() {
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
            assert_eq!(pool.len(), 6, "one warm scratch per lane");
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
