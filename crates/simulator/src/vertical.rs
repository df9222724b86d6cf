//! Bit-sliced "vertical" batch execution: the third compilation tier.
//!
//! The kernel tier (`kernel.rs`) removed per-op interpretation; this
//! tier removes per-*lane* work. A batch is transposed into lane-major
//! structure-of-arrays form — the "vertical" layout of bitonic-sorter
//! hardware and of Piotrów's periodic merging networks — so one machine
//! word carries the same network node for up to [`WORD_LANES`]
//! independent input vectors at once:
//!
//! * **0/1 workloads** ([`BspMachine::run_vertical_bits`]): the word
//!   *is* the data. One `u64` per node holds bit `l` = lane `l`'s key,
//!   and a compare-exchange on the edge `(a, b)` is two bitwise ops —
//!   `min = a & b`, `max = a | b` — for all 64 lanes together. By the
//!   zero-one principle the network is comparator-shaped, so this path
//!   doubles as an *exhaustive* correctness oracle: sweeping all `2^n`
//!   masks costs `2^n / 64` executions (`tests/vertical.rs` does
//!   exactly that for every small fixture).
//! * **Full keys** ([`BspMachine::run_vertical_batch`]): lanes are
//!   blocked into even groups of ≤ [`WORD_LANES`], narrow enough that a
//!   block's keys fit in L2, and each node becomes a
//!   contiguous *column* of `w` keys. A run of the kernel's run table
//!   then covers two contiguous column slices, and the kernel's
//!   branch-free min/max step runs over them as one flat loop, compiled
//!   for AVX2 when the CPU has it. Same memory discipline as the kernel
//!   tier: a caller-owned [`VerticalScratch`]/[`VerticalPool`] makes
//!   warm runs allocation-free (`tests/vertical_alloc.rs` proves zero
//!   heap allocations).
//!
//! Clean runs of both layouts execute the kernel's run table: relays
//! were paired into compare-exchanges at lowering, so no transit column
//! exists outside the fault lockstep.
//! [`BspMachine::run_vertical_batch_with_faults`] walks the *same*
//! [`KernelProgram`] rounds, micro-ops included, in the same order — a
//! [`VerticalProgram`] is a layout commitment, not a new lowering — so
//! round indices, op indices, and therefore `FaultSite {round, op}` keys
//! are shared 1:1 with the interpreter and kernel paths. It injects
//! from the identical per-lane forked plans and is bit-identical,
//! reports included, to [`BspMachine::run_batch_with_faults`].

use std::sync::Arc;

use pns_fault::detect::{full_subgraph_certificate, sampled_subgraph_certificate};
use pns_fault::{FaultKind, FaultPlan, FaultSite, OpClass, RetryPolicy};
use pns_obs::{Event, SpanClass, Stage, Tier, ROUND_OBS_MIN_OPS, SORT_OBS_MIN_OPS};
use pns_order::radix::Shape;

use crate::bsp::BspMachine;
use crate::fault::{segments, Detection, FaultError, FaultReport, InjectedFault, Retry};
use crate::kernel::{
    exec_kernel, exec_runs, for_each_run, KernelProgram, RoundClass, Run, FLAG_PRIMARY, FLAG_SLOT1,
    TAG_CX, TAG_MOVE,
};

/// Lanes per machine word: the widest block the vertical layout packs
/// into one `u64` of decision (or data) bits. The fault lockstep always
/// blocks this many lanes (its active sets are `u64` masks); for the
/// clean column tier it is an upper bound, and
/// [`BspMachine::run_vertical_batch`] narrows blocks whose key columns
/// would not fit its cache budget.
pub const WORD_LANES: usize = 64;

/// Batch size at which [`crate::machine::Machine::sort_batch`] and the
/// service's clean rung switch from the per-lane kernel tier to the
/// column tier: the measured crossover. Per lane on one thread, the
/// column loop costs 91–93 µs at 1 lane and 65–68 µs at 2 on
/// `complete_binary_tree(3)^3`, against 54–60 µs for the kernel; it
/// ties or wins at 3 lanes, and from 4 lanes on the column tier is
/// cheaper on every benchmark shape (DESIGN.md §12 has the table).
pub const VERTICAL_MIN_LANES: usize = 4;

/// Cache budget for one clean column block's keys: 1 MiB, about half
/// the 2 MiB per-core L2 of the benchmark host, so a block's columns
/// stay in L2 while the whole run table streams over them. A width
/// sweep on `K2^14` (16 384 `u64` keys, 128 KiB a lane; thread CPU per
/// lane on one thread, 2-vCPU AVX2 host, seven runs) read 3.0–4.6 ms
/// (median ~3.5) at 8 lanes, 1 MiB of columns, against 4.1–4.8 ms at
/// 16 and 4.2–4.9 ms at 64, where a block is 8 MiB; the kernel reads
/// 7.2–12.4 ms.
const BLOCK_BYTES: usize = 1 << 20;

/// The widest clean column block for lanes of `n` keys of `key_bytes`
/// each: the most lanes whose columns fit [`BLOCK_BYTES`], clamped to
/// `1..=WORD_LANES`.
fn block_cap(n: usize, key_bytes: usize) -> usize {
    (BLOCK_BYTES / (n * key_bytes).max(1)).clamp(1, WORD_LANES)
}

/// `batch` cut into the fewest contiguous blocks no wider than `cap`,
/// split evenly: widths differ by at most one lane, wider blocks first
/// (130 lanes under a cap of 64 run as 44 + 43 + 43, not 64 + 64 + 2).
/// Allocates nothing.
fn even_blocks<T>(batch: &mut [T], cap: usize) -> impl Iterator<Item = &mut [T]> {
    let blocks = batch.len().div_ceil(cap);
    let (base, extra) = (
        batch.len().checked_div(blocks).unwrap_or(0),
        batch.len().checked_rem(blocks).unwrap_or(0),
    );
    let mut rest = batch;
    (0..blocks).map(move |i| {
        let (block, tail) = std::mem::take(&mut rest).split_at_mut(base + usize::from(i < extra));
        rest = tail;
        block
    })
}

/// A kernel program committed to the vertical (lane-major) layout.
///
/// Lowering is a wrapper, not a rewrite: the vertical executors read
/// the kernel's flat tables directly (clean runs its run table, the
/// fault lockstep its per-op pairs and micro-ops), which
/// is what guarantees round and op indices — and with them fault sites
/// and certificate boundaries — stay aligned across all three tiers. The
/// type exists so the [`crate::cache::ProgramCache`] can track vertical
/// adoption separately and so callers cannot accidentally hand a
/// horizontal scratch to a vertical run.
#[derive(Debug, Clone)]
pub struct VerticalProgram {
    kernel: Arc<KernelProgram>,
}

impl VerticalProgram {
    /// Commit a lowered kernel to the vertical layout.
    #[must_use]
    pub fn lower(kernel: Arc<KernelProgram>) -> VerticalProgram {
        VerticalProgram { kernel }
    }

    /// Shape of `PG_r` the program runs on.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.kernel.shape()
    }

    /// Rounds in the program (identical to the source kernel).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.kernel.rounds()
    }

    /// The underlying kernel program.
    #[must_use]
    pub fn kernel(&self) -> &Arc<KernelProgram> {
        &self.kernel
    }

    /// Word-level operations one full-width run executes: every clean
    /// compare-exchange touches one word (or one column pair) regardless
    /// of how many lanes ride in it
    /// ([`KernelProgram::clean_cx_count`]).
    #[must_use]
    pub fn word_ops(&self) -> usize {
        self.kernel.clean_cx_count()
    }
}

// ---------------------------------------------------------------------------
// 0/1 path: one u64 word per node, 64 lanes per bit position.
// ---------------------------------------------------------------------------

/// Pack up to [`WORD_LANES`] zero-one vectors into the vertical word
/// layout: bit `i` of `masks[l]` is lane `l`'s key at node rank `i`,
/// and bit `l` of the returned `words[i]` is the same key. Requires
/// `nodes <= 64` because each lane's vector is itself a `u64` mask —
/// the word layout proper ([`BspMachine::run_vertical_bits`]) has no
/// node-count limit.
///
/// # Panics
///
/// Panics if more than [`WORD_LANES`] masks or more than 64 nodes.
#[must_use]
pub fn pack_zero_one_masks(masks: &[u64], nodes: usize) -> Vec<u64> {
    let mut words = Vec::new();
    pack_zero_one_masks_into(masks, nodes, &mut words);
    words
}

/// [`pack_zero_one_masks`] into a caller-owned buffer (reused capacity,
/// no allocation when warm).
///
/// # Panics
///
/// Panics if more than [`WORD_LANES`] masks or more than 64 nodes.
pub fn pack_zero_one_masks_into(masks: &[u64], nodes: usize, words: &mut Vec<u64>) {
    assert!(masks.len() <= WORD_LANES, "at most one lane per word bit");
    assert!(nodes <= 64, "mask packing needs node ranks to fit a u64");
    words.clear();
    words.resize(nodes, 0);
    for (l, &mask) in masks.iter().enumerate() {
        for (i, word) in words.iter_mut().enumerate() {
            *word |= ((mask >> i) & 1) << l;
        }
    }
}

/// Extract lane `l`'s 0/1 key vector from the vertical word layout.
///
/// # Panics
///
/// Panics if `lane >= 64`.
#[must_use]
pub fn unpack_zero_one_lane(words: &[u64], lane: usize) -> Vec<u8> {
    let mut keys = Vec::new();
    unpack_zero_one_lane_into(words, lane, &mut keys);
    keys
}

/// [`unpack_zero_one_lane`] into a caller-owned buffer.
///
/// # Panics
///
/// Panics if `lane >= 64`.
pub fn unpack_zero_one_lane_into(words: &[u64], lane: usize, keys: &mut Vec<u8>) {
    assert!(lane < WORD_LANES, "one lane per word bit");
    keys.clear();
    keys.extend(words.iter().map(|&w| ((w >> lane) & 1) as u8));
}

/// Clean runs on the 0/1 word layout: for a word pair, `AND` is the
/// 64-lane minimum of 0/1 keys and `OR` the maximum — one edge, two ops,
/// 64 lanes.
fn exec_bit_runs(words: &mut [u64], runs: &[Run]) {
    for_each_run(words, runs, 1, |xs, ys, min_to_a| {
        for (x, y) in xs.iter_mut().zip(ys) {
            let (mn, mx) = (*x & *y, *x | *y);
            (*x, *y) = if min_to_a { (mn, mx) } else { (mx, mn) };
        }
    });
}

// ---------------------------------------------------------------------------
// Full-key path: node-major columns of w ≤ 64 lanes; a run is two column slices.
// ---------------------------------------------------------------------------

/// Reusable state for one vertical block of up to [`WORD_LANES`] lanes
/// (clean blocks are as wide as [`BspMachine::run_vertical_batch`]'s
/// block plan makes them; fault blocks are full words): the transposed
/// key columns and, for the fault lockstep only, column-wide transit
/// slots and the round-local staging buffer for deferred moves. Clean
/// blocks run paired compare-exchanges and never size the transit
/// columns: on `K2^14` a 64-lane fault block holds 2 × 32 MiB of them.
///
/// Transit and staging are indexed `(node * 2 + slot) * w + lane`, so
/// the fault lockstep empties every slot before each block: a scratch
/// warmed for a 64-lane block must not leak wider-stride slots into a
/// narrower tail block that borrows it.
#[derive(Debug)]
pub struct VerticalScratch<K> {
    /// Lane width (block size) of the current block.
    w: usize,
    /// Transposed keys, node-major: `cols[node * w + lane]`.
    cols: Vec<K>,
    /// Transit columns: `transit[(node * 2 + slot) * w + lane]`.
    transit: Vec<Option<K>>,
    /// Deferred-move staging, same indexing as `transit`.
    staged: Vec<Option<K>>,
    /// Transit slot indices (`node * 2 + slot`) staged this round.
    touched: Vec<u32>,
}

impl<K> Default for VerticalScratch<K> {
    fn default() -> Self {
        VerticalScratch {
            w: 0,
            cols: Vec::new(),
            transit: Vec::new(),
            staged: Vec::new(),
            touched: Vec::new(),
        }
    }
}

impl<K> VerticalScratch<K> {
    /// Fresh, empty scratch; the first block sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lane width of the block the scratch last served (0 when unused).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.w
    }

    /// Start a `w`-lane block: empty columns, capacity kept.
    fn reset(&mut self, w: usize) {
        debug_assert!((1..=WORD_LANES).contains(&w), "block width fits one word");
        self.w = w;
        self.cols.clear();
    }

    /// Empty transit and staging columns for the current block over `n`
    /// nodes (the fault lockstep's), reusing them when the size matches.
    fn reset_transit(&mut self, n: usize) {
        let len = n * 2 * self.w;
        for buf in [&mut self.transit, &mut self.staged] {
            if buf.len() == len {
                buf.fill_with(|| None);
            } else {
                buf.clear();
                buf.resize_with(len, || None);
            }
        }
        self.touched.clear();
    }
}

/// A pool of per-block [`VerticalScratch`]es for batched vertical runs,
/// grown on demand and reused across batches.
#[derive(Debug)]
pub struct VerticalPool<K> {
    slots: Vec<VerticalScratch<K>>,
}

impl<K> Default for VerticalPool<K> {
    fn default() -> Self {
        VerticalPool { slots: Vec::new() }
    }
}

impl<K> VerticalPool<K> {
    /// Fresh, empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn ensure(&mut self, blocks: usize) -> &mut [VerticalScratch<K>] {
        if self.slots.len() < blocks {
            self.slots.resize_with(blocks, VerticalScratch::new);
        }
        &mut self.slots[..blocks]
    }

    /// Block scratches currently pooled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has served no block yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The column tier's clean loop: the kernel's runs over node-major
/// columns of a `w`-lane block, so a run covers the two flat slices
/// `cols[a·w .. (a + len)·w]` and `cols[b·w .. (b + len)·w]`. The same
/// generic body runs compiled for AVX2 when the CPU has it (detected at
/// run time, cached by `std`), and plain otherwise; both give identical
/// outputs.
fn exec_col_runs<K: Ord + Clone>(cols: &mut [K], runs: &[Run], w: usize) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `exec_runs_avx2` only requires AVX2, and the CPU was
        // just detected to support it.
        unsafe { exec_runs_avx2(cols, runs, w) };
        return;
    }
    exec_runs(cols, runs, w);
}

/// [`exec_runs`] compiled with AVX2 enabled: the inlined min/max loop
/// over column slices vectorizes four `u64` lanes to a register.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn exec_runs_avx2<K: Ord + Clone>(cols: &mut [K], runs: &[Run], w: usize) {
    exec_runs(cols, runs, w);
}

/// Transpose a block of lanes in, run the clean program, transpose back.
fn exec_cols_block<K: Ord + Clone>(
    lanes: &mut [Vec<K>],
    kernel: &KernelProgram,
    scratch: &mut VerticalScratch<K>,
) {
    let w = lanes.len();
    let n = lanes[0].len();
    scratch.reset(w);
    for node in 0..n {
        for lane in lanes.iter() {
            scratch.cols.push(lane[node].clone());
        }
    }
    exec_col_runs(&mut scratch.cols, &kernel.runs, w);
    for node in 0..n {
        for (l, lane) in lanes.iter_mut().enumerate() {
            std::mem::swap(&mut lane[node], &mut scratch.cols[node * w + l]);
        }
    }
}

impl BspMachine {
    /// Validate and lower `program` straight to the vertical tier —
    /// [`BspMachine::lower`] plus the layout commitment.
    ///
    /// # Errors
    ///
    /// The first machine-model violation, as from
    /// [`BspMachine::try_validate`]; then
    /// [`crate::bsp::ProgramError::UnpairedRelay`] for a valid program
    /// whose relays do not pair, as from [`BspMachine::lower`].
    pub fn lower_vertical(
        &self,
        program: &crate::bsp::CompiledProgram,
    ) -> Result<VerticalProgram, crate::bsp::ProgramError> {
        let kernel = Arc::new(self.lower(program)?);
        let _lower_span = self
            .logger
            .span(Tier::Vertical, Stage::LowerVertical, SpanClass::None);
        Ok(VerticalProgram::lower(kernel))
    }

    /// Execute a vertical program on up to 64 packed 0/1 vectors at
    /// once: `words[i]` holds bit `l` = lane `l`'s key at node rank
    /// `i` (see [`pack_zero_one_masks`]). Every lane lands exactly
    /// where [`BspMachine::run`] would put its scalar 0/1 vector —
    /// compare-exchange on 0/1 keys *is* `AND`/`OR`, and every round is
    /// its range of the run table.
    ///
    /// Returns the number of rounds executed; performs zero heap
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if the program was lowered for another shape or `words`
    /// is not one word per node.
    pub fn run_vertical_bits(&self, words: &mut [u64], vertical: &VerticalProgram) -> u64 {
        let kernel = vertical.kernel();
        assert_eq!(
            kernel.shape(),
            self.shape(),
            "vertical program lowered for another shape"
        );
        assert_eq!(words.len() as u64, self.shape().len(), "one word per node");
        // Sort-grain span only above the program-size gate, same as the
        // scalar kernel (DESIGN.md §13): a bit-sliced pass over a small
        // program finishes in microseconds, and batch callers get their
        // amortized span from `run_vertical_batch` regardless.
        let _sort_span = self.logger.span_if(
            vertical.word_ops() >= SORT_OBS_MIN_OPS,
            Tier::Vertical,
            Stage::Sort,
            SpanClass::None,
        );
        for (ri, desc) in kernel.rounds.iter().enumerate() {
            // Same round-grain gating as the kernel tier (DESIGN.md §13):
            // word-wide rounds run in nanoseconds, so only rounds with
            // enough ops get their own events and span.
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
                Tier::Vertical,
                Stage::Round,
                desc.class.span_class(),
            );
            exec_bit_runs(words, &kernel.runs[desc.runs()]);
            if observed {
                self.logger.log(|| Event::RoundEnd { round: ri as u64 });
            }
        }
        kernel.rounds() as u64
    }

    /// Drive a batch of full-key vectors through the vertical tier:
    /// lanes are cut into the fewest blocks whose key columns fit a
    /// 1 MiB cache budget (at most [`WORD_LANES`] lanes each), split
    /// evenly so no block is more than one lane narrower than another.
    /// For `u64` keys that is 8 lanes a block on `K2^14` and 64 on
    /// shapes of up to 2 048 nodes. Each block is transposed into
    /// node-major columns, run through the kernel's run table (each run
    /// one branch-free min/max loop over two column slices, AVX2 when
    /// the CPU has it), then transposed back. Bit-identical to
    /// [`BspMachine::run_kernel_batch`]
    /// (and therefore to per-lane [`BspMachine::run`]) on every input;
    /// blocks run in parallel (on the calling thread on a
    /// [`BspMachine::serial`] machine, or when the batch is one block),
    /// and warm pools make reruns allocation-free.
    ///
    /// Returns the number of rounds executed (same for every lane).
    ///
    /// # Panics
    ///
    /// Panics if the program was lowered for another shape or any
    /// vector is not one key per node.
    pub fn run_vertical_batch<K>(
        &self,
        batch: &mut [Vec<K>],
        vertical: &VerticalProgram,
        pool: &mut VerticalPool<K>,
    ) -> u64
    where
        K: Ord + Clone + Send + Sync,
    {
        let kernel = vertical.kernel();
        assert_eq!(
            kernel.shape(),
            self.shape(),
            "vertical program lowered for another shape"
        );
        for keys in batch.iter() {
            assert_eq!(keys.len() as u64, self.shape().len(), "one key per node");
        }
        let _batch_span = self
            .logger
            .span(Tier::Vertical, Stage::Batch, SpanClass::None);
        let cap = block_cap(self.shape().len() as usize, std::mem::size_of::<K>());
        let blocks = batch.len().div_ceil(cap);
        let workers = self.batch_workers(blocks);
        self.logger.log(|| Event::BatchScheduled {
            batch: batch.len() as u64,
            lanes: workers as u64,
        });
        let scratches = pool.ensure(blocks);
        if workers <= 1 {
            for (lanes, scratch) in even_blocks(batch, cap).zip(scratches.iter_mut()) {
                exec_cols_block(lanes, kernel, scratch);
            }
        } else {
            /// Distinct `&mut` targets per worker (the vendored `rayon`
            /// subset has no zip, so blocks pair lanes with scratch).
            struct Block<'a, K> {
                lanes: &'a mut [Vec<K>],
                scratch: &'a mut VerticalScratch<K>,
            }
            use rayon::prelude::*;
            let mut work: Vec<Block<'_, K>> = even_blocks(batch, cap)
                .zip(scratches.iter_mut())
                .map(|(lanes, scratch)| Block { lanes, scratch })
                .collect();
            work.par_iter_mut()
                .for_each(|b| exec_cols_block(b.lanes, kernel, b.scratch));
        }
        kernel.rounds() as u64
    }
}

// ---------------------------------------------------------------------------
// Fault injection on the vertical tier.
// ---------------------------------------------------------------------------

/// Iterate the set bit positions (lanes) of a mask, ascending.
#[derive(Clone, Copy)]
struct Lanes(u64);

impl Iterator for Lanes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let l = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(l)
    }
}

/// Mutable per-lane fault state for one block, split out so the round
/// executor can borrow it alongside the column buffers.
struct BlockFaults<'a> {
    plans: &'a [FaultPlan],
    reports: &'a mut [FaultReport],
    /// Whether the block runs its segment's first attempt. A retry
    /// runs the sites of the first attempt, and each that fires fired
    /// there, so retries ask the plans nothing (faults are transient).
    first_attempt: bool,
}

impl BlockFaults<'_> {
    /// Lane `l`'s fault at `site`, recorded in its report.
    fn decide(&mut self, l: usize, site: FaultSite, class: OpClass) -> Option<FaultKind> {
        if !self.first_attempt {
            return None;
        }
        let fault = self.plans[l].decide(site, class);
        if let Some(kind) = fault {
            self.reports[l].injected.push(InjectedFault { site, kind });
        }
        fault
    }
}

/// One faulty vertical round over the lanes in `active`. Op-major like
/// every other executor — for each op, every active lane consults its
/// own plan at the shared `FaultSite {round, op}` (on a segment's first
/// attempt only) and applies the op (possibly perturbed per
/// `apply_op_faulty`'s semantics) to its column slice. Inactive lanes'
/// columns are untouched.
#[allow(clippy::too_many_arguments)]
fn exec_cols_round_faulty<K: Ord + Clone>(
    kernel: &KernelProgram,
    ri: usize,
    w: usize,
    active: u64,
    faults: &mut BlockFaults<'_>,
    cols: &mut [K],
    transit: &mut [Option<K>],
    staged: &mut [Option<K>],
    touched: &mut Vec<u32>,
) {
    let desc = kernel.rounds[ri];
    let round_idx = ri as u64;
    let cx = |cols: &mut [K],
              faults: &mut BlockFaults<'_>,
              oi: usize,
              a: u32,
              b: u32,
              min_to_a: bool| {
        let site = FaultSite {
            round: round_idx,
            op: oi as u64,
        };
        for l in Lanes(active) {
            let fault = faults.decide(l, site, OpClass::Compare);
            let dir = min_to_a != fault.is_some();
            let (x, y) = (a as usize * w + l, b as usize * w + l);
            if (cols[x] <= cols[y]) != dir {
                cols.swap(x, y);
            }
        }
    };
    match desc.class {
        RoundClass::Empty => {}
        RoundClass::Compare => {
            for (oi, gi) in desc.cx().enumerate() {
                let (a, b) = kernel.cx_pairs[gi];
                cx(cols, faults, oi, a, b, kernel.dir(gi));
            }
        }
        RoundClass::Route => {
            touched.clear();
            for (oi, m) in kernel.micro[desc.micro()].iter().enumerate() {
                let ai = m.a as usize;
                let si = usize::from(m.flags & FLAG_SLOT1 != 0);
                let primary = m.flags & FLAG_PRIMARY != 0;
                let site = FaultSite {
                    round: round_idx,
                    op: oi as u64,
                };
                match m.tag {
                    TAG_CX => cx(cols, faults, oi, m.a, m.b, primary),
                    TAG_MOVE => {
                        let fbase = (ai * 2 + si) * w;
                        let tbase = (m.b as usize * 2 + si) * w;
                        for l in Lanes(active) {
                            let fault = faults.decide(l, site, OpClass::Route);
                            // The source slot is consumed even when the
                            // payload is dropped (the wire fired).
                            let payload = if primary {
                                cols[ai * w + l].clone()
                            } else {
                                transit[fbase + l].take().expect("validated: slot occupied")
                            };
                            let payload = if fault.is_some() {
                                // Dropped in flight: the receiver's slot
                                // latches a stale copy of its own
                                // resident key.
                                cols[m.b as usize * w + l].clone()
                            } else {
                                payload
                            };
                            staged[tbase + l] = Some(payload);
                        }
                        touched.push(m.b * 2 + si as u32);
                    }
                    _ => {
                        let base = (ai * 2 + si) * w;
                        for l in Lanes(active) {
                            let fault = faults.decide(l, site, OpClass::Resolve);
                            let arrived =
                                transit[base + l].take().expect("validated: slot occupied");
                            if fault.is_none() {
                                let resident = &mut cols[ai * w + l];
                                let keep_arrived = if primary {
                                    arrived < *resident
                                } else {
                                    arrived > *resident
                                };
                                if keep_arrived {
                                    *resident = arrived;
                                }
                            }
                            // Stalled: arrived discarded, resident
                            // survives, slot cleared on schedule.
                        }
                    }
                }
            }
            for &idx in touched.iter() {
                let base = idx as usize * w;
                for l in Lanes(active) {
                    transit[base + l] = staged[base + l].take();
                }
            }
        }
    }
}

impl BspMachine {
    /// [`BspMachine::run_batch_with_faults`] on the vertical tier:
    /// lanes are blocked into columns and run the checkpoint/retry
    /// protocol in **lockstep** — segment rounds execute op-major over
    /// the still-active lanes of the block, each lane injecting from
    /// its own `plan.fork(lane)` at the shared `FaultSite {round, op}`
    /// keys, then each active lane checks its own certificate at the
    /// boundary. Lanes that pass drop out of the retry set; lanes that
    /// fail restore only their own checkpoint columns and re-run.
    ///
    /// Lockstep preserves the serial accounting exactly: a lane stays
    /// in the retry set only while *it* keeps failing, so its k-th
    /// attempt here is its k-th attempt serially — same probe seeds,
    /// same detections, same retries, and (faults being per-lane
    /// transient) the same keys. Reports and outputs are bit-identical
    /// to [`BspMachine::run_batch_with_faults`], which the differential
    /// suite pins, event sequences included.
    ///
    /// Degrades like the scalar batch: a lane that exhausts its retries
    /// is quarantined — restored to its original input and re-run clean
    /// through the kernel tier — so every `Ok` lane ends snake-sorted.
    /// Per-lane errors are only the non-recoverable kinds (wrong key
    /// count). Never panics on any input.
    ///
    /// # Panics
    ///
    /// Panics if the program was lowered for another shape.
    pub fn run_vertical_batch_with_faults<K>(
        &self,
        batch: &mut [Vec<K>],
        vertical: &VerticalProgram,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        pool: &mut VerticalPool<K>,
    ) -> Vec<Result<FaultReport, FaultError>>
    where
        K: Ord + Clone + Send + Sync,
    {
        let kernel = vertical.kernel();
        assert_eq!(
            kernel.shape(),
            self.shape(),
            "vertical program lowered for another shape"
        );
        let _batch_span = self.logger.span(Tier::Fault, Stage::Batch, SpanClass::None);
        let shape = self.shape();
        let expected = shape.len();
        let n = expected as usize;
        let total_rounds = kernel.rounds();
        let mut results: Vec<Option<Result<FaultReport, FaultError>>> = batch
            .iter()
            .map(|keys| {
                (keys.len() as u64 != expected).then_some(Err(FaultError::WrongKeyCount {
                    expected,
                    got: keys.len(),
                }))
            })
            .collect();
        let good: Vec<usize> = (0..batch.len()).filter(|&i| results[i].is_none()).collect();
        self.logger.log(|| Event::BatchScheduled {
            batch: batch.len() as u64,
            // The blocks run one after another on this thread.
            lanes: u64::from(!good.is_empty()),
        });
        let mut lane_buf: Vec<K> = Vec::new();
        let mut checkpoint: Vec<K> = Vec::new();
        for chunk in good.chunks(WORD_LANES) {
            let w = chunk.len();
            let scratch = &mut pool.ensure(1)[0];
            scratch.reset(w);
            // Transpose in, node-major: `node` strides one position of
            // *every* lane's vector at once, so there is no single
            // container for the loop to iterate.
            #[allow(clippy::needless_range_loop)]
            for node in 0..n {
                let cols = &mut scratch.cols;
                cols.extend(chunk.iter().map(|&bi| batch[bi][node].clone()));
            }
            if !plan.is_enabled() {
                // Fast path: plain clean vertical execution, no hashing,
                // no checks, no transit — fault-free execution of a
                // validated program is correct by construction.
                exec_col_runs(&mut scratch.cols, &kernel.runs, w);
                for (l, &bi) in chunk.iter().enumerate() {
                    for (node, key) in batch[bi].iter_mut().enumerate() {
                        *key = scratch.cols[node * w + l].clone();
                    }
                    let mut report = FaultReport::default();
                    report.counters.useful_rounds = total_rounds as u64;
                    report.rounds = total_rounds as u64;
                    results[bi] = Some(Ok(report));
                }
                continue;
            }
            // Lanes keep their *original batch index* as the fork key —
            // malformed lanes still consume an index, exactly as the
            // scalar batch numbers its lanes.
            scratch.reset_transit(n);
            let plans: Vec<FaultPlan> = chunk.iter().map(|&bi| plan.fork(bi as u64)).collect();
            let originals: Vec<Vec<K>> = chunk.iter().map(|&bi| batch[bi].clone()).collect();
            let mut reports: Vec<FaultReport> = vec![FaultReport::default(); w];
            let full: u64 = if w == WORD_LANES { !0 } else { (1 << w) - 1 };
            let mut live: u64 = full;
            let mut dead: u64 = 0;
            for seg in segments(kernel.cert_points(), total_rounds) {
                if live == 0 {
                    break;
                }
                let seg_rounds = (seg.end - seg.start) as u64;
                // Transit is empty at segment boundaries, so the column
                // matrix is the entire checkpoint (shared by all lanes;
                // restores copy back per-lane slices).
                if policy.max_retries > 0 && seg.check.is_some() {
                    checkpoint.clear();
                    checkpoint.extend(scratch.cols.iter().cloned());
                }
                let mut active = live;
                let mut attempt: u32 = 0;
                loop {
                    for ri in seg.start..seg.end {
                        exec_cols_round_faulty(
                            kernel,
                            ri,
                            w,
                            active,
                            &mut BlockFaults {
                                plans: &plans,
                                reports: &mut reports,
                                first_attempt: attempt == 0,
                            },
                            &mut scratch.cols,
                            &mut scratch.transit,
                            &mut scratch.staged,
                            &mut scratch.touched,
                        );
                    }
                    debug_assert!(
                        scratch.transit.iter().all(Option::is_none),
                        "transit must drain at certificate boundaries"
                    );
                    let mut passed: u64 = 0;
                    for l in Lanes(active) {
                        // The check yields the failing certificate
                        // directly, so the failure arm cannot run
                        // without one — no panic path (mirrors the
                        // serial loop's structure exactly).
                        let failed_check = match seg.check {
                            None => None,
                            Some((boundary, dims, is_final)) => {
                                lane_buf.clear();
                                for node in 0..n {
                                    lane_buf.push(scratch.cols[node * w + l].clone());
                                }
                                // The final certificate is always checked
                                // in full, matching the serial loop.
                                let ok = if !is_final && policy.recheck_depth > 0 {
                                    sampled_subgraph_certificate(
                                        shape,
                                        &lane_buf,
                                        dims as usize,
                                        policy.recheck_depth,
                                        plans[l].probe_seed(boundary, u64::from(attempt)),
                                    )
                                } else {
                                    full_subgraph_certificate(shape, &lane_buf, dims as usize)
                                };
                                (!ok).then_some((boundary, dims, is_final))
                            }
                        };
                        if let Some((boundary, dims, is_final)) = failed_check {
                            reports[l].detections.push(Detection {
                                round: boundary,
                                dims,
                                sampled: !is_final && policy.recheck_depth > 0,
                            });
                            reports[l].counters.detections += 1;
                            reports[l].counters.wasted_rounds += seg_rounds;
                        } else {
                            passed |= 1 << l;
                            reports[l].counters.useful_rounds += seg_rounds;
                        }
                    }
                    active &= !passed;
                    if active == 0 {
                        break;
                    }
                    if attempt >= policy.max_retries {
                        // These lanes are out of retries: serial lanes
                        // return RetryExhausted here and the batch
                        // wrapper quarantines them; we mark them dead
                        // and quarantine below.
                        dead |= active;
                        live &= !active;
                        break;
                    }
                    attempt += 1;
                    // Backoff before the lockstep re-execution (zero —
                    // no syscall — unless the policy enables it). One
                    // sleep covers the whole retrying block, matching
                    // the serial path's per-attempt schedule.
                    let delay_ns = policy.backoff_ns(attempt);
                    if delay_ns > 0 {
                        std::thread::sleep(std::time::Duration::from_nanos(delay_ns));
                    }
                    for node in 0..n {
                        for l in Lanes(active) {
                            scratch.cols[node * w + l] = checkpoint[node * w + l].clone();
                        }
                    }
                    for l in Lanes(active) {
                        reports[l].retries.push(Retry {
                            round: seg.start as u64,
                            attempt,
                        });
                        reports[l].counters.retries += 1;
                    }
                }
            }
            for (l, &bi) in chunk.iter().enumerate() {
                let mut report = std::mem::take(&mut reports[l]);
                if dead >> l & 1 == 1 {
                    // Quarantine: everything executed so far is
                    // discarded; re-run clean from the original input.
                    batch[bi].clone_from(&originals[l]);
                    exec_kernel(&mut batch[bi], kernel);
                    report.counters.wasted_rounds += report.counters.useful_rounds;
                    report.counters.useful_rounds = total_rounds as u64;
                    report.quarantined = true;
                } else {
                    for (node, key) in batch[bi].iter_mut().enumerate() {
                        *key = scratch.cols[node * w + l].clone();
                    }
                }
                report.rounds = report.counters.total_rounds();
                results[bi] = Some(Ok(report));
            }
        }
        let results: Vec<Result<FaultReport, FaultError>> = results
            .into_iter()
            .map(|r| r.unwrap_or(Err(FaultError::Internal("batch lane produced no outcome"))))
            .collect();
        for (lane, res) in results.iter().enumerate() {
            if let Ok(report) = res {
                self.emit_fault_events(report, Some(lane as u64));
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::compile;
    use crate::netsort::is_snake_sorted;
    use crate::sorters::{OetSnakeSorter, ShearSorter};
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
    fn bits_path_matches_serial_runs_on_every_3_cube_vector() {
        // All 512 0/1 vectors of the 2-ary 3-cube, 64 lanes per word:
        // every lane must land exactly where the scalar machine puts it.
        let factor = factories::path(2);
        let program = compile(&factor, 3, &ShearSorter);
        let machine = BspMachine::new(&factor, 3);
        let vertical = machine.lower_vertical(&program).expect("validates");
        let n = machine.shape().len() as usize;
        for base in (0u64..512).step_by(WORD_LANES) {
            let masks: Vec<u64> = (base..base + WORD_LANES as u64).collect();
            let mut words = pack_zero_one_masks(&masks, n);
            machine.run_vertical_bits(&mut words, &vertical);
            for (l, &mask) in masks.iter().enumerate() {
                let mut serial: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
                machine.run(&mut serial, &program);
                assert_eq!(
                    unpack_zero_one_lane(&words, l),
                    serial,
                    "mask={mask:#x}: vertical lane vs serial run"
                );
            }
        }
    }

    #[test]
    fn pack_and_unpack_round_trip() {
        let masks: Vec<u64> = (0..7).map(|l| 0x2A ^ (l * 3)).collect();
        let words = pack_zero_one_masks(&masks, 6);
        for (l, &mask) in masks.iter().enumerate() {
            let lane = unpack_zero_one_lane(&words, l);
            let want: Vec<u8> = (0..6).map(|i| ((mask >> i) & 1) as u8).collect();
            assert_eq!(lane, want);
        }
    }

    #[test]
    fn block_plan_caps_widths_by_the_cache_budget_and_splits_evenly() {
        // u64 keys: K2^14 (128 KiB a lane) caps at 8 lanes, K2^12 at
        // 32, and the benchmark's small shapes fit a full word.
        assert_eq!(block_cap(1 << 14, 8), 8);
        assert_eq!(block_cap(1 << 12, 8), 32);
        assert_eq!(block_cap(343, 8), WORD_LANES);
        assert_eq!(block_cap(64, 8), WORD_LANES);
        // A lane past the budget still runs, one to a block; keys of
        // no size fill a word.
        assert_eq!(block_cap(1 << 20, 8), 1);
        assert_eq!(block_cap(100, 0), WORD_LANES);

        for cap in [1, 3, 8, 32, WORD_LANES] {
            for lanes in 0..=200usize {
                let mut batch: Vec<usize> = (0..lanes).collect();
                let blocks: Vec<Vec<usize>> =
                    even_blocks(&mut batch, cap).map(|b| b.to_vec()).collect();
                let widths: Vec<usize> = blocks.iter().map(Vec::len).collect();
                let ctx = format!("cap={cap} lanes={lanes}: {widths:?}");
                assert_eq!(widths.len(), lanes.div_ceil(cap), "fewest blocks: {ctx}");
                assert!(widths.iter().all(|&w| (1..=cap).contains(&w)), "{ctx}");
                assert!(widths.windows(2).all(|p| p[0] >= p[1]), "{ctx}");
                if let (Some(wide), Some(narrow)) = (widths.first(), widths.last()) {
                    assert!(wide - narrow <= 1, "even split: {ctx}");
                }
                // Contiguous, in order, every lane once.
                assert_eq!(blocks.concat(), batch, "{ctx}");
            }
        }
        let mut batch = [0u8; 130];
        let widths =
            |b: &mut [u8]| -> Vec<usize> { even_blocks(b, WORD_LANES).map(|b| b.len()).collect() };
        assert_eq!(widths(&mut batch), vec![44, 43, 43]);
        assert_eq!(widths(&mut batch[..128]), vec![64, 64]);
        assert_eq!(widths(&mut batch[..16]), vec![16]);
    }

    #[test]
    fn column_batch_matches_kernel_batch_across_block_widths() {
        // 130 lanes = three even blocks of 44 + 43 + 43: the blocked
        // path must agree with the per-lane kernel on every lane,
        // including relay-heavy routing (star factor).
        let cases = [
            (
                factories::path(3),
                3usize,
                &ShearSorter as &dyn crate::sorters::Pg2Sorter,
            ),
            (factories::star(4), 2, &OetSnakeSorter),
        ];
        for (factor, r, sorter) in cases {
            let program = compile(&factor, r, sorter);
            let machine = BspMachine::new(&factor, r);
            let kernel = machine.lower(&program).expect("validates");
            let vertical = machine.lower_vertical(&program).expect("validates");
            let len = machine.shape().len();
            let mut batch: Vec<Vec<u64>> = (0..130).map(|s| lcg_keys(len, s)).collect();
            let mut want = batch.clone();
            let mut pool = VerticalPool::new();
            let mut kpool = crate::kernel::ScratchPool::new();
            machine.run_vertical_batch(&mut batch, &vertical, &mut pool);
            machine.run_kernel_batch(&mut want, &kernel, &mut kpool);
            assert_eq!(batch, want, "factor={} r={r}", factor.name());
            for keys in &batch {
                assert!(is_snake_sorted(machine.shape(), keys));
            }
        }
    }

    /// A key ordered by `key` alone, so equal keys can differ in which
    /// payload ended where; no drop glue, so it takes the min/max step.
    #[derive(Debug, Clone, Copy)]
    struct Tagged {
        key: u8,
        payload: u32,
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

    /// Run `body` over each block of `lanes` (64 lanes, then the tail)
    /// as node-major columns, and assert every lane equals
    /// `run_kernel_batch`'s output, compared through `view`.
    fn check_column_body<K, V>(
        name: &str,
        body: fn(&mut [K], &[Run], usize),
        lanes: &[Vec<K>],
        view: impl Fn(&K) -> V,
    ) where
        K: Ord + Clone + Send + Sync,
        V: PartialEq + std::fmt::Debug,
    {
        let factor = crate::machine::Machine::prepare_factor(&factories::complete_binary_tree(3));
        let sorter = crate::select::SorterChoice::Auto.resolve(&factor);
        let machine = BspMachine::new(&factor, 2);
        let kernel = machine
            .lower(&compile(&factor, 2, sorter))
            .expect("validates");
        let n = machine.shape().len() as usize;
        let mut want = lanes.to_vec();
        machine.run_kernel_batch(&mut want, &kernel, &mut crate::kernel::ScratchPool::new());
        for (bi, (block, want)) in lanes
            .chunks(WORD_LANES)
            .zip(want.chunks(WORD_LANES))
            .enumerate()
        {
            let w = block.len();
            let mut cols: Vec<K> = (0..n)
                .flat_map(|node| block.iter().map(move |lane| lane[node].clone()))
                .collect();
            body(&mut cols, &kernel.runs, w);
            for (l, want) in want.iter().enumerate() {
                let got: Vec<V> = (0..n).map(|node| view(&cols[node * w + l])).collect();
                let want: Vec<V> = want.iter().map(&view).collect();
                assert_eq!(got, want, "{name}: block {bi} lane {l}");
            }
        }
    }

    #[test]
    fn plain_and_dispatched_column_loops_match_the_kernel() {
        // 70 lanes: a full 64-lane block and a 6-lane tail. Few distinct
        // keys, so ties meet at every compare-exchange; the u64 keys
        // straddle 2^63, where a signed vector compare would misorder.
        let mut state = 0xC01_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 61
        };
        let n = 49; // complete_binary_tree(3)^2
        let big = [0, 1, 2, 1 << 63, u64::MAX - 1, u64::MAX];
        let words: Vec<Vec<u64>> = (0..70)
            .map(|_| (0..n).map(|_| big[next() as usize % big.len()]).collect())
            .collect();
        let tagged: Vec<Vec<Tagged>> = (0..70u32)
            .map(|lane| {
                (0..n as u32)
                    .map(|node| Tagged {
                        key: (next() % 3) as u8,
                        payload: lane * 1000 + node,
                    })
                    .collect()
            })
            .collect();
        check_column_body("plain u64", exec_runs::<u64>, &words, |&k| k);
        check_column_body("dispatched u64", exec_col_runs::<u64>, &words, |&k| k);
        let fields = |t: &Tagged| (t.key, t.payload);
        check_column_body("plain tagged", exec_runs::<Tagged>, &tagged, fields);
        check_column_body(
            "dispatched tagged",
            exec_col_runs::<Tagged>,
            &tagged,
            fields,
        );
    }

    #[test]
    fn pool_scratch_resizes_for_narrower_tail_blocks() {
        // Regression (ISSUE 6 satellite): a pool slot warmed by a
        // 64-lane block is strided for w=64; a narrower batch borrowing
        // the same slot must get rebuilt buffers, not stale wide ones.
        let factor = factories::star(4);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let vertical = machine.lower_vertical(&program).expect("validates");
        let len = machine.shape().len();
        let mut pool = VerticalPool::new();

        let mut wide: Vec<Vec<u64>> = (0..64).map(|s| lcg_keys(len, s)).collect();
        machine.run_vertical_batch(&mut wide, &vertical, &mut pool);
        assert_eq!(pool.slots[0].lanes(), 64);

        let mut narrow: Vec<Vec<u64>> = (0..5).map(|s| lcg_keys(len, 100 + s)).collect();
        let mut want = narrow.clone();
        machine.run_vertical_batch(&mut narrow, &vertical, &mut pool);
        assert_eq!(
            pool.slots[0].lanes(),
            5,
            "slot must re-stride to the tail width"
        );
        let mut kpool = crate::kernel::ScratchPool::new();
        let kernel = machine.lower(&program).expect("validates");
        machine.run_kernel_batch(&mut want, &kernel, &mut kpool);
        assert_eq!(narrow, want, "tail block after a wide warm-up");
    }

    #[test]
    fn vertical_fault_batch_matches_scalar_fault_batch() {
        let factor = factories::path(3);
        let program = compile(&factor, 3, &ShearSorter);
        let machine = BspMachine::new(&factor, 3);
        let vertical = machine.lower_vertical(&program).expect("validates");
        let len = machine.shape().len();
        let batch: Vec<Vec<u64>> = (0..10).map(|s| lcg_keys(len, 0xFA17 + s)).collect();
        let mut pool = VerticalPool::new();
        for policy in [RetryPolicy::default(), RetryPolicy::detect_only()] {
            for seed in 0..6u64 {
                let plan = FaultPlan::random(seed, 8_000);
                let mut a = batch.clone();
                let ra = machine.run_batch_with_faults(&mut a, &program, &plan, &policy);
                let mut b = batch.clone();
                let rb = machine
                    .run_vertical_batch_with_faults(&mut b, &vertical, &plan, &policy, &mut pool);
                assert_eq!(ra, rb, "seed={seed}: fault reports diverge");
                assert_eq!(a, b, "seed={seed}: faulty keys diverge");
            }
        }
    }

    #[test]
    fn vertical_fault_batch_flags_malformed_lanes_in_place() {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &ShearSorter);
        let machine = BspMachine::new(&factor, 2);
        let vertical = machine.lower_vertical(&program).expect("validates");
        let len = machine.shape().len();
        let mut batch: Vec<Vec<u64>> = (0..5).map(|s| lcg_keys(len, s + 1)).collect();
        batch[2] = vec![7; 3];
        let mut pool = VerticalPool::new();
        let results = machine.run_vertical_batch_with_faults(
            &mut batch,
            &vertical,
            &FaultPlan::random(3, 10_000),
            &RetryPolicy::default(),
            &mut pool,
        );
        assert_eq!(results.len(), 5);
        for (lane, res) in results.iter().enumerate() {
            if lane == 2 {
                assert!(matches!(res, Err(FaultError::WrongKeyCount { .. })));
            } else {
                assert!(res.is_ok(), "lane {lane}");
                assert!(
                    is_snake_sorted(machine.shape(), &batch[lane]),
                    "lane {lane}"
                );
            }
        }
    }

    #[test]
    fn disabled_plan_reports_match_the_scalar_batch() {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &ShearSorter);
        let machine = BspMachine::new(&factor, 2);
        let vertical = machine.lower_vertical(&program).expect("validates");
        let len = machine.shape().len();
        let batch: Vec<Vec<u64>> = (0..4).map(|s| lcg_keys(len, s + 9)).collect();
        let plan = FaultPlan::disabled();
        let policy = RetryPolicy::default();
        let mut a = batch.clone();
        let ra = machine.run_batch_with_faults(&mut a, &program, &plan, &policy);
        let mut b = batch.clone();
        let mut pool = VerticalPool::new();
        let rb =
            machine.run_vertical_batch_with_faults(&mut b, &vertical, &plan, &policy, &mut pool);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }
}
