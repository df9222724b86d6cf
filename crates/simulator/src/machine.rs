//! User-facing entry point: build a machine over a factor graph, feed it
//! keys, get back a sorted configuration and a step report.

use crate::bsp::{BspMachine, CompiledProgram};
use crate::cache::ProgramCache;
use crate::cost::CostModel;
use crate::engine::{ChargedEngine, ExecutedEngine};
use crate::kernel::{ExecScratch, KernelProgram, ScratchPool};
use crate::netsort::{is_snake_sorted, network_sort, read_snake_order, NetSortOutcome};
use crate::select::SorterChoice;
use crate::sorters::Pg2Sorter;
use crate::vertical::{VerticalPool, VerticalProgram, VERTICAL_MIN_LANES};
use pns_graph::{Graph, LinearEmbedding};
use pns_obs::{Event, EventLogger};
use pns_order::radix::Shape;
use std::fmt;
use std::sync::Arc;

/// Errors reported by [`Machine::sort`], [`Machine::sort_batch`] (per
/// lane), and [`crate::sample::try_sample_sort`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortError {
    /// The key vector does not have one key per node.
    WrongKeyCount {
        /// `N^r`.
        expected: u64,
        /// What was supplied.
        got: usize,
    },
    /// Sample sort: the per-node block size is zero.
    ZeroBlockSize,
    /// Sample sort: the oversampling factor is outside `1..=b`.
    BadOversample {
        /// Requested samples per node.
        oversample: usize,
        /// Per-node block size `b`.
        block: usize,
    },
    /// Sample sort: the key count is not `b·N^r`.
    WrongBlockedKeyCount {
        /// `b·N^r`.
        expected: usize,
        /// What was supplied.
        got: usize,
    },
    /// A machine invariant broke (e.g. a batch lane lost its sorted
    /// vector). Unreachable by construction; surfaced as a typed error
    /// rather than a panic so callers stay up regardless.
    Internal(&'static str),
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::WrongKeyCount { expected, got } => {
                write!(f, "expected {expected} keys (one per node), got {got}")
            }
            SortError::ZeroBlockSize => write!(f, "block size must be positive"),
            SortError::BadOversample { oversample, block } => {
                write!(
                    f,
                    "need 1 ≤ oversample ≤ b, got oversample {oversample} with b = {block}"
                )
            }
            SortError::WrongBlockedKeyCount { expected, got } => {
                write!(f, "need b·N^r keys: expected {expected}, got {got}")
            }
            SortError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SortError {}

enum EngineKind {
    Charged(ChargedEngine),
    Executed(ExecutedEngine),
    Compiled(CompiledKind),
}

/// A machine backed by a compiled BSP program (possibly shared through
/// a [`ProgramCache`]).
struct CompiledKind {
    bsp: BspMachine,
    program: Arc<CompiledProgram>,
    /// The program lowered to the flat kernel tier (shared through the
    /// same cache) — the form sorts actually execute.
    kernel: Arc<KernelProgram>,
    /// The kernel committed to the bit-sliced vertical layout (same
    /// cache) — the form large batches execute.
    vertical: Arc<VerticalProgram>,
    /// Logical unit counters for one sort on this shape — a pure
    /// function of the shape, carried by the compiled program.
    counters: pns_core::Counters,
    /// Steps one `PG_2` sort round costs under the executed engine.
    s2_steps: u64,
    logger: EventLogger,
}

impl CompiledKind {
    /// The outcome every sort through this program reports: `steps`
    /// counts **BSP rounds** (the compiled schedule's synchronous
    /// rounds); the sort/transposition split of the logical engines
    /// does not survive lowering, so those both read zero.
    fn outcome(&self) -> NetSortOutcome {
        NetSortOutcome {
            counters: self.counters,
            steps: self.program.rounds() as u64,
            sort_steps: 0,
            oet_steps: 0,
        }
    }

    /// Emit the logical unit charge of `sorts` sorts through this
    /// program as aggregated events. The logical sort/transposition
    /// rounds do not survive lowering to BSP ops, so a compiled machine
    /// cannot emit per-round unit events; instead the whole charge goes
    /// out as one `S2Unit` and one `RouteUnit` with `width = 0`
    /// (aggregated) — the stream's unit sums still equal the reported
    /// `Counters` totals.
    fn emit_units(&self, sorts: u64) {
        if sorts == 0 {
            return;
        }
        self.logger.log(|| Event::S2Unit {
            units: self.counters.s2_units * sorts,
            width: 0,
        });
        self.logger.log(|| Event::RouteUnit {
            units: self.counters.route_units * sorts,
            width: 0,
        });
    }
}

/// A simulated `PG_r` machine ready to sort.
pub struct Machine {
    shape: Shape,
    /// Shared with every [`SortReport`], so a sort does not copy it.
    factor_name: Arc<str>,
    engine: EngineKind,
}

impl Machine {
    /// A machine with the paper's charged cost accounting.
    #[must_use]
    pub fn charged(factor: &Graph, r: usize, cost: CostModel) -> Self {
        assert!(pns_graph::is_connected(factor), "factor must be connected");
        Machine {
            shape: Shape::new(factor.n(), r),
            factor_name: factor.name().into(),
            engine: EngineKind::Charged(ChargedEngine::new(cost)),
        }
    }

    /// A machine that executes real comparator programs and real factor
    /// routing, counting actual steps.
    #[must_use]
    pub fn executed(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) -> Self {
        assert!(pns_graph::is_connected(factor), "factor must be connected");
        let shape = Shape::new(factor.n(), r);
        Machine {
            shape,
            factor_name: factor.name().into(),
            engine: EngineKind::Executed(ExecutedEngine::new(factor, shape, sorter)),
        }
    }

    /// A machine that executes a compiled BSP program, fetched from (or
    /// compiled into) `cache` together with its lowered kernel.
    /// Repeated construction for the same `(factor, r, sorter)` reuses
    /// both — no recompilation, no re-lowering, observable via the
    /// cache's hit counters.
    ///
    /// Sorts run through the serial kernel ([`BspMachine::run_kernel`])
    /// on the calling thread; batches ([`Machine::sort_batch`]) of
    /// fewer than [`VERTICAL_MIN_LANES`] (4) lanes run through
    /// [`BspMachine::run_kernel_batch`], and wider ones through the
    /// column tier ([`BspMachine::run_vertical_batch`]). All are
    /// bit-identical to serial BSP execution.
    #[must_use]
    pub fn compiled(
        factor: &Graph,
        r: usize,
        sorter: &dyn Pg2Sorter,
        cache: &ProgramCache,
    ) -> Self {
        let (program, kernel, vertical) = cache.get_or_compile_vertical(factor, r, sorter);
        Machine::with_program(factor, r, sorter, program, kernel, vertical)
    }

    /// As [`Machine::compiled`], but the program is optimized
    /// ([`CompiledProgram::optimized`]): empty rounds elided, idempotent
    /// compare-exchanges dropped, disjoint adjacent rounds fused. The
    /// reported step count is the optimized round count, generally
    /// *below* the executed engine's.
    #[must_use]
    pub fn compiled_optimized(
        factor: &Graph,
        r: usize,
        sorter: &dyn Pg2Sorter,
        cache: &ProgramCache,
    ) -> Self {
        let (program, kernel, vertical) =
            cache.get_or_compile_vertical_optimized(factor, r, sorter);
        Machine::with_program(factor, r, sorter, program, kernel, vertical)
    }

    /// As [`Machine::compiled`], with the sorter resolved from a
    /// [`SorterChoice`]. The resolved sorter's identity is part of the
    /// cache key, so machines built with different choices (or different
    /// auto-selected winners) never share programs.
    #[must_use]
    pub fn compiled_with(
        factor: &Graph,
        r: usize,
        choice: SorterChoice,
        cache: &ProgramCache,
    ) -> Self {
        Machine::compiled(factor, r, choice.resolve(factor), cache)
    }

    fn with_program(
        factor: &Graph,
        r: usize,
        sorter: &dyn Pg2Sorter,
        program: Arc<CompiledProgram>,
        kernel: Arc<KernelProgram>,
        vertical: Arc<VerticalProgram>,
    ) -> Self {
        assert!(pns_graph::is_connected(factor), "factor must be connected");
        let shape = Shape::new(factor.n(), r);
        assert_eq!(program.shape(), shape, "cached program shape mismatch");
        assert_eq!(kernel.shape(), shape, "cached kernel shape mismatch");
        assert_eq!(vertical.shape(), shape, "cached vertical shape mismatch");
        // The logical unit counters are engine-independent (pure control
        // flow of the algorithm); compilation's replay accumulated them.
        let counters = program.counters();
        let s2_steps = ExecutedEngine::new(factor, shape, sorter).s2_steps();
        Machine {
            shape,
            factor_name: factor.name().into(),
            engine: EngineKind::Compiled(CompiledKind {
                bsp: BspMachine::new(factor, r),
                program,
                kernel,
                vertical,
                counters,
                s2_steps,
                logger: EventLogger::disabled(),
            }),
        }
    }

    /// The compiled program backing this machine, if it is a compiled
    /// machine (for stats inspection and direct BSP runs).
    #[must_use]
    pub fn program(&self) -> Option<&Arc<CompiledProgram>> {
        match &self.engine {
            EngineKind::Compiled(c) => Some(&c.program),
            _ => None,
        }
    }

    /// The lowered kernel backing this machine, if it is a compiled
    /// machine (for stats inspection and direct kernel runs).
    #[must_use]
    pub fn kernel(&self) -> Option<&Arc<KernelProgram>> {
        match &self.engine {
            EngineKind::Compiled(c) => Some(&c.kernel),
            _ => None,
        }
    }

    /// The vertical (bit-sliced) program backing this machine, if it is
    /// a compiled machine (for stats inspection and direct vertical
    /// runs).
    #[must_use]
    pub fn vertical(&self) -> Option<&Arc<VerticalProgram>> {
        match &self.engine {
            EngineKind::Compiled(c) => Some(&c.vertical),
            _ => None,
        }
    }

    /// Trace this machine's sorts into `logger`. Charged/executed
    /// machines emit one `S2Unit`/`RouteUnit` event per logical engine
    /// round; compiled machines emit `RoundStart`/`RoundEnd`/`Validate`/
    /// `BatchScheduled` from the BSP executor plus one aggregated
    /// `S2Unit`/`RouteUnit` pair per sort. Either way, the stream's
    /// unit sums equal the `Counters` totals the sort reports.
    pub fn attach_logger(&mut self, logger: EventLogger) {
        match &mut self.engine {
            EngineKind::Charged(e) => e.attach_logger(logger),
            EngineKind::Executed(e) => e.attach_logger(logger),
            EngineKind::Compiled(c) => {
                c.bsp.attach_logger(logger.clone());
                c.logger = logger;
            }
        }
    }

    /// Relabel a factor graph along its best linear embedding (Hamiltonian
    /// path if one exists, Sekanina ordering otherwise), as Section 2
    /// recommends: with such labels, label-consecutive nodes are within
    /// distance ≤ 3, which keeps executed sorting programs cheap.
    #[must_use]
    pub fn prepare_factor(factor: &Graph) -> Graph {
        let emb = LinearEmbedding::best(factor);
        // emb.order[i] is the node at linear position i; we want the node
        // formerly known as emb.order[i] to get the new label i.
        let mut perm = vec![0u32; factor.n()];
        for (i, &v) in emb.order.iter().enumerate() {
            perm[v as usize] = i as u32;
        }
        factor.relabeled(&perm)
    }

    /// The machine's shape.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Steps one `PG_2` sort round costs on this machine.
    #[must_use]
    pub fn s2_steps(&self) -> u64 {
        match &self.engine {
            EngineKind::Charged(e) => e.cost().s2_steps,
            EngineKind::Executed(e) => e.s2_steps(),
            EngineKind::Compiled(c) => c.s2_steps,
        }
    }

    /// Sort `keys` (one per node, indexed by node rank).
    ///
    /// # Errors
    ///
    /// [`SortError::WrongKeyCount`] if `keys.len() != N^r`.
    pub fn sort<K>(&mut self, keys: Vec<K>) -> Result<SortReport<K>, SortError>
    where
        K: Ord + Clone + Send + Sync,
    {
        self.sort_impl(keys, false)
    }

    /// As [`Machine::sort`], additionally asserting the inter-stage
    /// invariant (after stage `k`, every `k`-dimensional subgraph is
    /// snake-sorted) — slower, for debugging and validation runs.
    ///
    /// # Errors
    ///
    /// [`SortError::WrongKeyCount`] if `keys.len() != N^r`.
    ///
    /// # Panics
    ///
    /// Panics if the invariant is violated (an implementation bug, never
    /// bad input).
    pub fn sort_checked<K>(&mut self, keys: Vec<K>) -> Result<SortReport<K>, SortError>
    where
        K: Ord + Clone + Send + Sync,
    {
        self.sort_impl(keys, true)
    }

    fn sort_impl<K>(&mut self, mut keys: Vec<K>, checked: bool) -> Result<SortReport<K>, SortError>
    where
        K: Ord + Clone + Send + Sync,
    {
        if keys.len() as u64 != self.shape.len() {
            return Err(SortError::WrongKeyCount {
                expected: self.shape.len(),
                got: keys.len(),
            });
        }
        let shape = self.shape;
        let outcome = match (&mut self.engine, checked) {
            (EngineKind::Charged(e), false) => network_sort(shape, &mut keys, e),
            (EngineKind::Charged(e), true) => {
                crate::verify::network_sort_checked(shape, &mut keys, e)
            }
            (EngineKind::Executed(e), false) => network_sort(shape, &mut keys, e),
            (EngineKind::Executed(e), true) => {
                crate::verify::network_sort_checked(shape, &mut keys, e)
            }
            (EngineKind::Compiled(c), checked) => {
                let mut scratch = ExecScratch::new();
                c.bsp.run_kernel(&mut keys, &c.kernel, &mut scratch);
                // The per-stage invariant of `network_sort_checked` does
                // not survive lowering; checked mode verifies the final
                // configuration instead.
                assert!(
                    !checked || is_snake_sorted(shape, &keys),
                    "compiled program left keys unsorted"
                );
                c.emit_units(1);
                c.outcome()
            }
        };
        Ok(SortReport {
            shape: self.shape,
            factor_name: Arc::clone(&self.factor_name),
            keys,
            outcome,
        })
    }

    /// Sort many independent key vectors through this machine, returning
    /// one `Result` per lane in input order.
    ///
    /// On a compiled machine ([`Machine::compiled`]) batches of at
    /// least [`VERTICAL_MIN_LANES`] (4) valid lanes run the column tier
    /// ([`BspMachine::run_vertical_batch`]): lanes are cut into even
    /// blocks of at most 64, narrow enough for a block's keys to stay
    /// in L2, and the blocks fan out one per core (a batch of one block
    /// runs on the calling thread). Narrower batches run one lowered
    /// kernel per lane ([`BspMachine::run_kernel_batch`]), split into
    /// one contiguous chunk of lanes per core; the calling thread runs
    /// one chunk and a scoped thread each other. Other engine kinds
    /// sort the vectors one after another; results are identical on
    /// every path.
    ///
    /// A lane whose vector is not one key per node reports
    /// [`SortError::WrongKeyCount`] without affecting the other lanes —
    /// a malformed input degrades that lane, never the batch.
    pub fn sort_batch<K>(&mut self, batch: Vec<Vec<K>>) -> Vec<Result<SortReport<K>, SortError>>
    where
        K: Ord + Clone + Send + Sync,
    {
        match &mut self.engine {
            EngineKind::Compiled(c) => {
                let expected = self.shape.len();
                // Partition out the malformed lanes, keeping slots so the
                // results come back in input order.
                let mut good: Vec<Vec<K>> = Vec::with_capacity(batch.len());
                let mut slots: Vec<Result<(), SortError>> = Vec::with_capacity(batch.len());
                for keys in batch {
                    if keys.len() as u64 == expected {
                        slots.push(Ok(()));
                        good.push(keys);
                    } else {
                        slots.push(Err(SortError::WrongKeyCount {
                            expected,
                            got: keys.len(),
                        }));
                    }
                }
                if !good.is_empty() {
                    if good.len() >= VERTICAL_MIN_LANES {
                        let mut pool = VerticalPool::new();
                        c.bsp.run_vertical_batch(&mut good, &c.vertical, &mut pool);
                    } else {
                        let mut pool = ScratchPool::new();
                        c.bsp.run_kernel_batch(&mut good, &c.kernel, &mut pool);
                    }
                    // Every vector is charged the full logical unit cost,
                    // so the aggregated events cover the whole batch (=
                    // the sum of the returned reports' counters).
                    c.emit_units(good.len() as u64);
                }
                let outcome = c.outcome();
                let mut sorted = good.into_iter();
                slots
                    .into_iter()
                    .map(|slot| {
                        slot.and_then(|()| {
                            // One sorted vector exists per Ok slot by
                            // construction; a typed error, not a panic,
                            // if that ever breaks.
                            sorted
                                .next()
                                .ok_or(SortError::Internal("batch lane lost its sorted vector"))
                        })
                        .map(|keys| SortReport {
                            shape: self.shape,
                            factor_name: Arc::clone(&self.factor_name),
                            keys,
                            outcome,
                        })
                    })
                    .collect()
            }
            _ => batch.into_iter().map(|keys| self.sort(keys)).collect(),
        }
    }
}

/// Result of a sort: the final key configuration and the measured costs.
#[derive(Debug, Clone)]
pub struct SortReport<K> {
    shape: Shape,
    factor_name: Arc<str>,
    /// Final keys, indexed by node rank.
    pub keys: Vec<K>,
    /// Unit counters and step totals.
    pub outcome: NetSortOutcome,
}

impl<K: Ord + Clone> SortReport<K> {
    /// `true` iff the configuration is sorted in snake order.
    #[must_use]
    pub fn is_snake_sorted(&self) -> bool {
        is_snake_sorted(self.shape, &self.keys)
    }

    /// The sorted sequence (keys read in snake order).
    #[must_use]
    pub fn into_sorted_vec(self) -> Vec<K> {
        read_snake_order(self.shape, &self.keys)
    }

    /// Total steps taken.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.outcome.steps
    }

    /// The shape sorted on.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Name of the factor graph.
    #[must_use]
    pub fn factor_name(&self) -> &str {
        &self.factor_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorters::{Hypercube2Sorter, OetSnakeSorter, ShearSorter};
    use pns_graph::factories;

    #[test]
    fn charged_grid_machine_sorts_and_predicts() {
        let factor = factories::path(4);
        let model = CostModel::paper_grid(4);
        let predicted = model.predicted_sort_steps(3);
        let mut m = Machine::charged(&factor, 3, model);
        let keys: Vec<u32> = (0..64).rev().collect();
        let report = m.sort(keys).unwrap();
        assert!(report.is_snake_sorted());
        assert_eq!(report.steps(), predicted);
        assert_eq!(report.into_sorted_vec(), (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn executed_hypercube_machine_matches_batcher_complexity() {
        // N = 2, S2 = 3 (three-step PG_2 sorter), R = 1 (every transposition
        // pair is a hypercube edge): total = 3(r-1)² + (r-1)(r-2).
        for r in 2..=7usize {
            let factor = factories::k2();
            let mut m = Machine::executed(&factor, r, &Hypercube2Sorter);
            let len = 1u64 << r;
            let keys: Vec<u64> = (0..len).map(|x| (x * 2654435761) % 101).collect();
            let report = m.sort(keys).unwrap();
            assert!(report.is_snake_sorted(), "r={r}");
            let rr = r as u64;
            assert_eq!(
                report.steps(),
                3 * (rr - 1) * (rr - 1) + (rr - 1) * (rr - 2),
                "r={r}"
            );
        }
    }

    #[test]
    fn executed_grid_machine_obeys_theorem1_with_measured_s2() {
        // Theorem 1 holds for any S2/R: with shearsort's fixed round count
        // as S2 and R = 1 (path factor: all transpositions are edges),
        // total = (r-1)²·S2 + (r-1)(r-2)·1.
        let factor = factories::path(3);
        for r in 2..=4usize {
            let mut m = Machine::executed(&factor, r, &ShearSorter);
            let s2 = m.s2_steps();
            let len = 3u64.pow(r as u32);
            let keys: Vec<u64> = (0..len).rev().collect();
            let report = m.sort(keys).unwrap();
            assert!(report.is_snake_sorted(), "r={r}");
            let rr = r as u64;
            assert_eq!(
                report.steps(),
                (rr - 1) * (rr - 1) * s2 + (rr - 1) * (rr - 2),
                "r={r}"
            );
        }
    }

    #[test]
    fn executed_machine_on_non_hamiltonian_tree_factor() {
        // Complete binary tree (7 nodes), relabeled along its Sekanina
        // order: comparator labels are within distance 3, everything
        // routes; the sort must still be correct.
        let factor = Machine::prepare_factor(&factories::complete_binary_tree(3));
        let mut m = Machine::executed(&factor, 2, &OetSnakeSorter);
        let keys: Vec<u32> = (0..49).map(|x| (x * 13) % 23).collect();
        let report = m.sort(keys.clone()).unwrap();
        assert!(report.is_snake_sorted());
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(report.into_sorted_vec(), expect);
    }

    #[test]
    fn petersen_executed_machine_sorts() {
        let factor = Machine::prepare_factor(&factories::petersen());
        let mut m = Machine::executed(&factor, 2, &ShearSorter);
        let keys: Vec<u32> = (0..100).rev().collect();
        let report = m.sort(keys).unwrap();
        assert!(report.is_snake_sorted());
    }

    #[test]
    fn sort_checked_verifies_stage_invariants() {
        let factor = factories::path(3);
        let mut m = Machine::executed(&factor, 3, &ShearSorter);
        let keys: Vec<u32> = (0..27).map(|x| (x * 7) % 11).collect();
        let report = m.sort_checked(keys).unwrap();
        assert!(report.is_snake_sorted());
        assert_eq!(report.outcome.counters.s2_units, 4);
    }

    #[test]
    fn wrong_key_count_is_an_error() {
        let mut m = Machine::charged(&factories::path(3), 2, CostModel::paper_grid(3));
        let err = m.sort(vec![1u32, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            SortError::WrongKeyCount {
                expected: 9,
                got: 3
            }
        );
        assert!(err.to_string().contains("expected 9 keys"));
    }

    #[test]
    fn compiled_machine_agrees_with_executed_machine() {
        let cache = crate::cache::ProgramCache::new();
        let factor = Machine::prepare_factor(&factories::complete_binary_tree(3));
        let keys: Vec<u64> = (0..49).map(|x| (x * 31) % 37).collect();
        let mut compiled = Machine::compiled(&factor, 2, &OetSnakeSorter, &cache);
        let mut executed = Machine::executed(&factor, 2, &OetSnakeSorter);
        let rc = compiled.sort(keys.clone()).unwrap();
        let re = executed.sort(keys).unwrap();
        assert_eq!(rc.keys, re.keys, "configurations must agree");
        assert!(rc.is_snake_sorted());
        assert_eq!(rc.steps() as usize, compiled.program().unwrap().rounds());
    }

    #[test]
    fn sorter_choice_constructors_resolve_and_never_cross_pollinate() {
        let cache = crate::cache::ProgramCache::new();
        let factor = Machine::prepare_factor(&factories::complete(4));
        let mut auto = Machine::compiled_with(&factor, 2, crate::SorterChoice::Auto, &cache);
        let mut oet = Machine::compiled_with(&factor, 2, crate::SorterChoice::OetSnake, &cache);
        // K_4 auto-selects the multiway n-sorter: a genuinely different,
        // shallower program under its own cache entry.
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(auto.program().unwrap().rounds() < oet.program().unwrap().rounds());
        let keys: Vec<u64> = (0..16).map(|x| (x * 13) % 17).collect();
        let ra = auto.sort(keys.clone()).unwrap();
        let ro = oet.sort(keys).unwrap();
        assert_eq!(ra.keys, ro.keys, "same sorted configuration");
        assert!(ra.is_snake_sorted());
        // A second auto machine reuses the winner's entry.
        let _again = Machine::compiled_with(&factor, 2, crate::SorterChoice::Auto, &cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        // The executed constructor resolves the same way.
        let exec = Machine::executed(&factor, 2, crate::SorterChoice::Auto.resolve(&factor));
        assert_eq!(exec.s2_steps(), 15, "multiway rounds, all edges on K_4");
    }

    #[test]
    fn compiled_machines_share_programs_through_the_cache() {
        let cache = crate::cache::ProgramCache::new();
        let factor = factories::path(3);
        let mut first = Machine::compiled(&factor, 2, &ShearSorter, &cache);
        let mut second = Machine::compiled(&factor, 2, &ShearSorter, &cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!((cache.kernel_hits(), cache.kernel_misses()), (1, 1));
        assert!(
            Arc::ptr_eq(first.kernel().unwrap(), second.kernel().unwrap()),
            "machines share one lowered kernel"
        );
        let r1 = first.sort((0..9u32).rev().collect()).unwrap();
        let r2 = second.sort((0..9u32).rev().collect()).unwrap();
        assert_eq!(r1.keys, r2.keys);
    }

    #[test]
    fn sort_batch_matches_single_sorts_on_every_engine_kind() {
        let cache = crate::cache::ProgramCache::new();
        let factor = factories::path(3);
        let batch: Vec<Vec<u64>> = (0..6)
            .map(|s| (0..27u64).map(|x| (x * 7 + s * 13) % 29).collect())
            .collect();
        let mut machines = [
            Machine::compiled(&factor, 3, &ShearSorter, &cache),
            Machine::compiled_optimized(&factor, 3, &ShearSorter, &cache),
            Machine::executed(&factor, 3, &ShearSorter),
            Machine::charged(&factor, 3, CostModel::paper_grid(3)),
        ];
        let mut reference: Option<Vec<Vec<u64>>> = None;
        for m in &mut machines {
            let reports = m.sort_batch(batch.clone());
            let keys: Vec<Vec<u64>> = reports
                .into_iter()
                .map(|r| r.expect("valid lane").keys)
                .collect();
            match &reference {
                None => reference = Some(keys),
                Some(expect) => assert_eq!(&keys, expect),
            }
        }
    }

    #[test]
    fn sort_batch_degrades_wrong_length_lanes_without_failing_others() {
        let cache = crate::cache::ProgramCache::new();
        let mut m = Machine::compiled(&factories::path(3), 2, &ShearSorter, &cache);
        let results = m.sort_batch(vec![(0..9u32).rev().collect(), vec![0u32; 8]]);
        let good = results[0].as_ref().expect("valid lane sorts");
        assert!(good.is_snake_sorted());
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &SortError::WrongKeyCount {
                expected: 9,
                got: 8
            }
        );
    }

    #[test]
    fn compiled_optimized_machine_reports_fewer_or_equal_steps() {
        let cache = crate::cache::ProgramCache::new();
        let factor = factories::k2();
        let keys: Vec<u64> = (0..32).rev().collect();
        let mut plain = Machine::compiled(&factor, 5, &Hypercube2Sorter, &cache);
        let mut opt = Machine::compiled_optimized(&factor, 5, &Hypercube2Sorter, &cache);
        let rp = plain.sort(keys.clone()).unwrap();
        let ro = opt.sort_checked(keys).unwrap();
        assert_eq!(rp.keys, ro.keys);
        assert!(
            ro.steps() < rp.steps(),
            "optimizer must shrink the 5-cube program"
        );
    }

    #[test]
    fn prepare_factor_gives_hamiltonian_labels_when_possible() {
        let g = Machine::prepare_factor(&factories::petersen());
        // After relabeling, consecutive labels are adjacent.
        for v in 0..9u32 {
            assert!(g.has_edge(v, v + 1), "labels {v},{} not adjacent", v + 1);
        }
    }
}
