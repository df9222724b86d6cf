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
//! Both layouts execute the kernel's pruned run table: relays were
//! paired into compare-exchanges at lowering, so the tier keeps no
//! transit columns, and the compare-exchanges the level analysis proved
//! idle are gone. The tier has no fault path: a lane under a fault plan
//! runs through [`BspMachine::run_kernel_with_faults`], which under a
//! compare-fault plan measured several times cheaper per lane than
//! running faults over column blocks of any width (DESIGN.md §12).

use std::sync::Arc;

use pns_obs::{Event, SpanClass, Stage, Tier, SORT_OBS_MIN_OPS};
use pns_order::radix::Shape;

use crate::bsp::BspMachine;
use crate::kernel::{exec_table, Bits, KernelProgram, Keys, ScratchPool};

/// Lanes per machine word: the widest block the vertical layout packs
/// into one `u64` of data bits. For the column tier it is an upper
/// bound, and [`BspMachine::run_vertical_batch`] narrows blocks whose
/// key columns would not fit its cache budget.
pub const WORD_LANES: usize = 64;

/// Batch size at which [`BspMachine::run_clean_batch`], behind
/// [`crate::machine::Machine::sort_batch`] and the service's clean
/// rung, switches from the per-lane kernel tier to the column tier:
/// the measured crossover. Per lane on one thread, the
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
/// Lowering is a wrapper, not a rewrite: both vertical executors read
/// the kernel's pruned run table directly, so round indices stay
/// aligned with the kernel's and the interpreter's. The type exists so
/// the [`crate::cache::ProgramCache`] can track vertical adoption
/// separately and so callers cannot accidentally hand a horizontal
/// scratch to a vertical run.
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

    /// Word-level operations of one run, one word (or one column pair)
    /// per compare-exchange regardless of how many lanes ride in it:
    /// the kept compare-exchanges ([`KernelProgram::kept`]), which both
    /// vertical executors run.
    #[must_use]
    pub fn word_ops(&self) -> usize {
        self.kernel.kept().pairs
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

// ---------------------------------------------------------------------------
// Full-key path: node-major columns of w ≤ 64 lanes; a run is two column slices.
// ---------------------------------------------------------------------------

/// Reusable state for one column block of up to [`WORD_LANES`] lanes,
/// as wide as [`BspMachine::run_vertical_batch`]'s block plan makes it:
/// the transposed key columns. Blocks run paired compare-exchanges, so
/// no transit column is ever needed.
#[derive(Debug)]
pub struct VerticalScratch<K> {
    /// Lane width (block size) of the current block.
    w: usize,
    /// Transposed keys, node-major: `cols[node * w + lane]`.
    cols: Vec<K>,
}

impl<K> Default for VerticalScratch<K> {
    fn default() -> Self {
        VerticalScratch {
            w: 0,
            cols: Vec::new(),
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

    /// Start a `w`-lane block of `n` nodes: empty columns with room for
    /// all `n·w` keys, so filling them never reallocates.
    fn reset(&mut self, w: usize, n: usize) {
        debug_assert!((1..=WORD_LANES).contains(&w), "block width fits one word");
        self.w = w;
        self.cols.clear();
        self.cols.reserve(n * w);
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

    fn ensure(&mut self, blocks: usize) -> &mut [VerticalScratch<K>] {
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

/// Transpose a block of lanes in, run the pruned clean program over
/// node-major columns (a run covers the two flat slices
/// `cols[a·w .. (a + len)·w]` and `cols[b·w .. (b + len)·w]`),
/// transpose back.
fn exec_cols_block<K: Ord + Clone>(
    lanes: &mut [Vec<K>],
    kernel: &KernelProgram,
    scratch: &mut VerticalScratch<K>,
) {
    let w = lanes.len();
    let n = lanes[0].len();
    scratch.reset(w, n);
    for node in 0..n {
        for lane in lanes.iter() {
            scratch.cols.push(lane[node].clone());
        }
    }
    exec_table::<K, Keys>(&mut scratch.cols, kernel.clean(), 0..kernel.rounds(), w);
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
    /// its range of the pruned run table.
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
            kernel.clean_cx_count() >= SORT_OBS_MIN_OPS,
            Tier::Vertical,
            Stage::Sort,
            SpanClass::None,
        );
        // Same round-grain gating as the kernel tier (DESIGN.md §13):
        // word-wide rounds run in nanoseconds, so only rounds with
        // enough ops get their own events and span.
        self.observed_passes(kernel, Tier::Vertical, |rounds| {
            exec_table::<u64, Bits>(words, kernel.clean(), rounds, 1);
        });
        kernel.rounds() as u64
    }

    /// Drive a batch of full-key vectors through the vertical tier:
    /// lanes are cut into the fewest blocks whose key columns fit a
    /// 1 MiB cache budget (at most [`WORD_LANES`] lanes each), split
    /// evenly so no block is more than one lane narrower than another.
    /// For `u64` keys that is 8 lanes a block on `K2^14` and 64 on
    /// shapes of up to 2 048 nodes. Each block is transposed into
    /// node-major columns, run through the kernel's pruned run table
    /// (each run one branch-free min/max loop over two column slices,
    /// AVX2 when the CPU has it), then transposed back. Bit-identical to
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

    /// Sort a clean batch on the tier its width calls for: the column
    /// tier ([`BspMachine::run_vertical_batch`]) from
    /// [`VERTICAL_MIN_LANES`] lanes, and below that the kernel batch
    /// ([`BspMachine::run_kernel_batch`]) on `vertical`'s kernel. Both
    /// are bit-identical to per-lane [`BspMachine::run`]. Returns the
    /// tier that ran, [`Tier::Vertical`] or [`Tier::Kernel`].
    ///
    /// # Panics
    ///
    /// Panics if the program was lowered for another shape or any
    /// vector is not one key per node.
    pub fn run_clean_batch<K>(
        &self,
        batch: &mut [Vec<K>],
        vertical: &VerticalProgram,
        pool: &mut VerticalPool<K>,
    ) -> Tier
    where
        K: Ord + Clone + Send + Sync,
    {
        if batch.len() >= VERTICAL_MIN_LANES {
            self.run_vertical_batch(batch, vertical, pool);
            Tier::Vertical
        } else {
            self.run_kernel_batch(batch, vertical.kernel(), &mut ScratchPool::new());
            Tier::Kernel
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::compile;
    use crate::kernel::tests::Tagged;
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
    fn word_ops_count_the_compare_exchanges_a_run_executes() {
        // K2^8's level analysis prunes idle pairs; the mesh-connected
        // tree's prunes none, so both counts read 33,222 there.
        let tree = crate::machine::Machine::prepare_factor(&factories::complete_binary_tree(3));
        for (factor, r, pruned) in [(factories::k2(), 8, true), (tree, 3, false)] {
            let sorter = crate::select::SorterChoice::Auto.resolve(&factor);
            let machine = BspMachine::new(&factor, r);
            let vertical = machine
                .lower_vertical(&compile(&factor, r, sorter))
                .expect("validates");
            let kernel = vertical.kernel();
            assert_eq!(
                vertical.word_ops(),
                kernel.kept().pairs,
                "{}",
                factor.name()
            );
            assert_eq!(
                vertical.word_ops() < kernel.clean_cx_count(),
                pruned,
                "{}",
                factor.name()
            );
            if !pruned {
                assert_eq!(vertical.word_ops(), 33_222);
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

    /// The clean pass over a whole column block, plain.
    fn plain<K: Ord + Clone>(cols: &mut [K], kernel: &KernelProgram, w: usize) {
        let table = kernel.clean();
        crate::kernel::exec_pass::<K, Keys>(cols, &table.runs, table.spans(), w);
    }

    /// The clean pass over a whole column block, through the dispatch.
    fn dispatched<K: Ord + Clone>(cols: &mut [K], kernel: &KernelProgram, w: usize) {
        exec_table::<K, Keys>(cols, kernel.clean(), 0..kernel.rounds(), w);
    }

    /// Run `body` over each block of `lanes` (64 lanes, then the tail)
    /// as node-major columns, and assert every lane equals
    /// `run_kernel_batch`'s output, compared through `view`.
    fn check_column_body<K, V>(
        name: &str,
        body: fn(&mut [K], &KernelProgram, usize),
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
            body(&mut cols, &kernel, w);
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
        check_column_body("plain u64", plain::<u64>, &words, |&k| k);
        check_column_body("dispatched u64", dispatched::<u64>, &words, |&k| k);
        let fields = |t: &Tagged| (t.key, t.payload);
        check_column_body("plain tagged", plain::<Tagged>, &tagged, fields);
        check_column_body("dispatched tagged", dispatched::<Tagged>, &tagged, fields);
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
}
