//! A bulk-synchronous machine model with per-node state and edge-aligned
//! operations — the paper's machine, made explicit.
//!
//! Section 4: "Before the sorting algorithm starts, each processor holds
//! one of the keys to be sorted. During the sorting algorithm, each
//! processor needs enough memory to hold at most two values being
//! compared." This module enforces exactly that discipline:
//!
//! * every node holds one resident key plus two small transit slots (a
//!   relay buffer per stream direction, needed only on non-Hamiltonian
//!   factors where compare partners are up to three hops apart);
//! * every operation in a round moves data across **one edge** of the
//!   product network or is node-local; the machine *verifies* adjacency
//!   and slot discipline before it executes a program, with the check
//!   [`BspMachine::try_validate`] runs, and panics on violations.
//!
//! Because the sorting algorithm is oblivious, its schedule can be
//! compiled once ([`compile`]) — by replaying the round-level algorithm
//! with a recording engine and lowering every compare round to
//! edge-aligned rounds — and then executed on any input
//! ([`BspMachine::run`]).

use crate::engine::{Engine, Pg2Instance};
use crate::netsort::{network_stage, NetSortOutcome};
use crate::sorters::Pg2Sorter;
use pns_core::Counters;
use pns_fault::FaultKind;
use pns_graph::Graph;
use pns_obs::{Event, EventLogger, SpanClass, Stage, Tier, ROUND_OBS_MIN_OPS};
use pns_order::radix::Shape;
use pns_order::Direction;
use std::collections::HashMap;
use std::sync::Arc;

/// One machine operation within a synchronous round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Op {
    /// Adjacent compare-exchange: nodes `a` and `b` swap keys over the
    /// edge when they are strictly out of order for the direction — the
    /// minimum ends at `a` when `min_to_a`, at `b` otherwise — and equal
    /// keys stay where they are. So `(a, b, min_to_a: false)` acts
    /// exactly as `(b, a, min_to_a: true)`, on every key type.
    CompareExchange {
        /// First endpoint.
        a: u64,
        /// Second endpoint.
        b: u64,
        /// `true`: minimum to `a`; `false`: minimum to `b`.
        min_to_a: bool,
    },
    /// Copy a value one hop: the source is `from`'s resident key
    /// (`from_key = true`, the first hop of a relay) or `from`'s transit
    /// slot `slot`; the value lands in `to`'s transit slot `slot`.
    Move {
        /// Sending node.
        from: u64,
        /// Receiving node (must be adjacent).
        to: u64,
        /// Transit slot index (0: forward stream, 1: backward stream).
        slot: u8,
        /// Whether the payload is the sender's resident key.
        from_key: bool,
    },
    /// Local resolution at the end of a relayed compare: `node` compares
    /// its resident key with the arrived transit value in `slot` and
    /// keeps the minimum (`keep_min`) or maximum; the slot is cleared.
    Resolve {
        /// Resolving node.
        node: u64,
        /// Transit slot holding the partner's key.
        slot: u8,
        /// Keep the minimum of {resident, arrived}.
        keep_min: bool,
    },
}

/// A synchronous round of operations. Disjointness (each node's key and
/// each slot touched at most once per round, each edge used at most once
/// per direction) is validated at execution.
pub type BspRound = Vec<Op>;

/// A certificate point of a compiled program: a round boundary at which
/// a stage invariant provably holds on fault-free execution. After the
/// first `round` rounds, every `dims`-dimensional subgraph over
/// dimensions `0 … dims-1` is snake-sorted (the paper's inter-stage
/// invariant; `dims = r` at the final boundary means globally sorted).
///
/// Fault-injecting executors check these certificates between stages and
/// retry the enclosed segment from a checkpoint when one fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CertPoint {
    /// Rounds executed before the certificate holds (a boundary index:
    /// `0 ..= program.rounds()`).
    pub round: u64,
    /// Subgraph dimensionality `k` of the certified stage invariant.
    pub dims: u32,
}

/// A compiled, input-independent schedule for one sort. Serializable, so
/// a schedule can be compiled once and shipped to the machine that runs
/// it (the machine re-validates every operation anyway).
///
/// A program from [`compile`] also carries the logical unit
/// [`Counters`] its replay of the algorithm accumulated
/// ([`CompiledProgram::counters`]), so a machine built on it needs no
/// second replay to report them.
///
/// Its rounds live in one shared allocation: every lowering of the
/// program ([`crate::KernelProgram`]) holds that allocation rather than
/// a copy, so a fault site `(round, op)` indexes the same ops on every
/// tier.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CompiledProgram {
    shape: Shape,
    rounds: SharedRounds,
    cert_points: Vec<CertPoint>,
    counters: Counters,
}

/// A program's rounds behind one reference-counted allocation. It
/// serializes as the plain list of rounds.
#[derive(Debug, Clone)]
struct SharedRounds(Arc<[BspRound]>);

impl serde::Serialize for SharedRounds {
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(&*self.0)
    }
}

impl serde::Deserialize for SharedRounds {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        <Vec<BspRound> as serde::Deserialize>::from_value(v)
            .map(|rounds| SharedRounds(rounds.into()))
    }
}

impl CompiledProgram {
    /// Build a program directly from rounds (for hand-written or
    /// deserialized schedules; the machine validates every operation).
    /// Hand-built programs carry no certificate points and zero
    /// counters — nothing is known about what they compute, so
    /// fault-injecting executors have no invariant to check.
    #[must_use]
    pub fn from_rounds(shape: Shape, rounds: Vec<BspRound>) -> Self {
        CompiledProgram {
            shape,
            rounds: SharedRounds(rounds.into()),
            cert_points: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Stage-boundary certificates, in round order ([`compile`] records
    /// one per stage; hand-built programs have none).
    #[must_use]
    pub fn cert_points(&self) -> &[CertPoint] {
        &self.cert_points
    }

    /// The algorithm's logical unit counters for one sort through this
    /// program: what [`compile`]'s replay accumulated, equal in every
    /// field to a unit-cost [`network_sort`](crate::netsort::network_sort)
    /// of the same shape. Hand-built programs carry zeros.
    #[must_use]
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Number of synchronous rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds.0.len()
    }

    /// Total operations across all rounds.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.rounds.0.iter().map(Vec::len).sum()
    }

    /// The rounds themselves (for inspection/statistics).
    #[must_use]
    pub fn round_ops(&self) -> &[BspRound] {
        &self.rounds.0
    }

    /// The rounds' shared allocation, for a lowering to keep instead of
    /// copying its ops.
    pub(crate) fn shared_rounds(&self) -> Arc<[BspRound]> {
        Arc::clone(&self.rounds.0)
    }

    /// The shape this program sorts.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }
}

/// A machine-model violation found by static validation
/// ([`BspMachine::try_validate`]): which round broke which rule, as
/// typed data. `Display` renders the diagnostic [`BspMachine::run`]
/// panics with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program was compiled for a different [`Shape`].
    ShapeMismatch,
    /// A compare-exchange between non-adjacent nodes.
    CompareNotEdge {
        /// Offending round index.
        round: usize,
        /// First endpoint.
        a: u64,
        /// Second endpoint.
        b: u64,
    },
    /// A move between non-adjacent nodes.
    MoveNotEdge {
        /// Offending round index.
        round: usize,
        /// Sending node.
        from: u64,
        /// Receiving node.
        to: u64,
    },
    /// A directed edge carried two payloads in one round.
    EdgeReused {
        /// Offending round index.
        round: usize,
        /// Edge tail.
        from: u64,
        /// Edge head.
        to: u64,
    },
    /// A node's resident key was written twice in one round.
    KeyReused {
        /// Offending round index.
        round: usize,
        /// Offending node.
        node: u64,
    },
    /// A node's resident key was both read (relay first hop) and
    /// written (compare/resolve) in one round — order-dependent. Names
    /// the round's first such read in op order.
    KeyReadAndWritten {
        /// Offending round index.
        round: usize,
        /// Offending node.
        node: u64,
    },
    /// A transit slot index outside `0..2`.
    BadSlot {
        /// Offending round index.
        round: usize,
        /// The out-of-range slot.
        slot: u8,
    },
    /// A move forwarded from a transit slot that holds nothing.
    SlotEmpty {
        /// Offending round index.
        round: usize,
        /// Node whose slot was read.
        node: u64,
        /// The empty slot.
        slot: u8,
    },
    /// A transit slot received two payloads in one round.
    SlotWrittenTwice {
        /// Offending round index.
        round: usize,
        /// Node whose slot was written.
        node: u64,
        /// The doubly-written slot.
        slot: u8,
    },
    /// A transit slot was taken (forwarded or resolved) twice in one
    /// round.
    SlotTakenTwice {
        /// Offending round index.
        round: usize,
        /// Node whose slot was taken.
        node: u64,
        /// The doubly-taken slot.
        slot: u8,
    },
    /// A resolve targeted an empty transit slot.
    ResolveEmptySlot {
        /// Offending round index.
        round: usize,
        /// Resolving node.
        node: u64,
        /// The empty slot.
        slot: u8,
    },
    /// A move wrote into a slot still occupied from a previous round.
    /// Names the round's first such write in op order.
    SlotOccupied {
        /// Offending round index.
        round: usize,
        /// Node whose slot was still full.
        node: u64,
        /// The occupied slot.
        slot: u8,
    },
    /// The program ended with values still in transit.
    TransitLeftover,
    /// A certificate point the fault executors cannot check: its round
    /// lies before the previous point's or past the program's end, its
    /// `dims` lies outside `1..=r`, or values are still in transit at
    /// its boundary (so the resident keys are not the whole state to
    /// checkpoint). Names the first point, in list order, that breaks
    /// the order, range or `dims` rule; failing those, the first whose
    /// boundary has values in flight.
    BadCertPoint {
        /// Position of the point in the program's certificate list.
        index: usize,
        /// Its boundary round.
        round: u64,
        /// Its subgraph dimensionality.
        dims: u32,
    },
    /// A relay whose resolves do not compute one compare-exchange: the
    /// resolve at `node` has no partner resolve in its round that holds
    /// a current copy of `node`'s key while `node` holds one of the
    /// partner's, with the other end keeping the other extreme. The
    /// program is valid and [`BspMachine::run`] runs it, but the kernel
    /// tier cannot lower it ([`BspMachine::lower`]); [`compile`] never
    /// emits one. Names the first unpaired resolve in op order.
    UnpairedRelay {
        /// Round of the unpaired resolve.
        round: usize,
        /// Resolving node.
        node: u64,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProgramError::ShapeMismatch => write!(f, "program compiled for another shape"),
            ProgramError::CompareNotEdge { round, a, b } => {
                write!(
                    f,
                    "round {round}: compare-exchange ({a},{b}) is not an edge"
                )
            }
            ProgramError::MoveNotEdge { round, from, to } => {
                write!(f, "round {round}: move ({from}->{to}) is not an edge")
            }
            ProgramError::EdgeReused { round, from, to } => {
                write!(f, "round {round}: edge ({from}->{to}) used twice")
            }
            ProgramError::KeyReused { round, node } => {
                write!(f, "round {round}: node {node} key accessed twice")
            }
            ProgramError::KeyReadAndWritten { round, node } => write!(
                f,
                "round {round}: node {node} key both read and written in one round \
                 (order-dependent; unsafe for deferred execution)"
            ),
            ProgramError::BadSlot { round, slot } => {
                write!(f, "round {round}: bad slot {slot}")
            }
            ProgramError::SlotEmpty { round, node, slot } => {
                write!(f, "round {round}: node {node} slot {slot} empty")
            }
            ProgramError::SlotWrittenTwice { round, node, slot } => {
                write!(f, "round {round}: node {node} slot {slot} written twice")
            }
            ProgramError::SlotTakenTwice { round, node, slot } => {
                write!(f, "round {round}: node {node} slot {slot} taken twice")
            }
            ProgramError::ResolveEmptySlot { round, node, slot } => {
                write!(f, "round {round}: resolve of empty slot {slot} at {node}")
            }
            ProgramError::SlotOccupied { round, node, slot } => {
                write!(f, "round {round}: node {node} slot {slot} still occupied")
            }
            ProgramError::TransitLeftover => {
                write!(f, "transit values left in flight after the program ended")
            }
            ProgramError::BadCertPoint { index, round, dims } => write!(
                f,
                "certificate point {index} (round {round}, dims {dims}) is out of order, \
                 out of range, or at a boundary with values in transit"
            ),
            ProgramError::UnpairedRelay { round, node } => write!(
                f,
                "round {round}: resolve at node {node} pairs with no partner resolve \
                 (the relay computes no single compare-exchange)"
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

/// What static validation established about a program, returned by
/// [`BspMachine::try_validate`] on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationReport {
    /// Rounds in the validated program.
    pub rounds: usize,
    /// Operations across all rounds.
    pub ops: usize,
    /// Certificate points the program carries (checkable stage
    /// boundaries for fault-injecting executors).
    pub cert_points: usize,
}

/// The BSP machine: executes compiled programs with full validation.
pub struct BspMachine {
    network: NetworkView,
    shape: Shape,
    /// Batches run on the calling thread only ([`BspMachine::serial`]).
    serial: bool,
    pub(crate) logger: EventLogger,
}

/// Adjacency view over the product network (rank-based, no edge lists).
/// Every query costs a few divisions whatever `r` is.
struct NetworkView {
    factor: Graph,
    shape: Shape,
    /// `N^0 ..= N^r`.
    strides: Vec<u64>,
    /// The factor's maximum degree: directed edges that can leave one
    /// node along one dimension.
    degree: usize,
}

impl NetworkView {
    fn new(factor: &Graph, shape: Shape) -> Self {
        NetworkView {
            factor: factor.clone(),
            shape,
            strides: (0..=shape.r()).map(|i| shape.stride(i)).collect(),
            degree: factor.max_degree(),
        }
    }

    /// If ranks `a` and `b` of the network differ in exactly one digit:
    /// that dimension and their digits there. Only the largest `i` with
    /// `N^i ≤ |a − b|` can be that dimension; the digits below it agree
    /// iff `N^i` divides `|a − b|`, and the digits above iff adding the
    /// quotient to the smaller rank's digit `i` does not carry.
    fn split(&self, a: u64, b: u64) -> Option<(usize, usize, usize)> {
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi || hi >= self.shape.len() {
            return None;
        }
        let diff = hi - lo;
        // strides[0] = 1 ≤ diff < N^r = strides[r], so 0 ≤ dim < r.
        let dim = self.strides.partition_point(|&s| s <= diff) - 1;
        let stride = self.strides[dim];
        if diff % stride != 0 {
            return None;
        }
        let n = self.shape.n() as u64;
        let d_lo = (lo / stride) % n;
        let d_hi = d_lo + diff / stride;
        if d_hi >= n {
            return None;
        }
        let (da, db) = if a < b { (d_lo, d_hi) } else { (d_hi, d_lo) };
        Some((dim, da as usize, db as usize))
    }

    /// If `(a, b)` is an edge of the product network: the ids of its two
    /// directions, `a → b` then `b → a`, each below
    /// [`NetworkView::edge_id_count`]. A direction's id is made of its
    /// tail, its dimension, and the head's digit's position among the
    /// tail's digit's factor neighbours.
    fn edge_ids(&self, a: u64, b: u64) -> Option<(usize, usize)> {
        let (dim, da, db) = self.split(a, b)?;
        let (da, db) = (da as u32, db as u32);
        let ahead = self.factor.neighbors(da).binary_search(&db).ok()?;
        let back = self.factor.neighbors(db).binary_search(&da).ok()?;
        let id = |tail: u64, at: usize| (tail as usize * self.shape.r() + dim) * self.degree + at;
        Some((id(a, ahead), id(b, back)))
    }

    /// Directed-edge ids: `N^r · r · Δ`, with `Δ` the factor's maximum
    /// degree.
    fn edge_id_count(&self) -> usize {
        self.shape.len() as usize * self.shape.r() * self.degree
    }
}

/// Add `i` to the set whose members hold `epoch`; `false` if it was
/// already there.
fn stamp(set: &mut [u32], i: usize, epoch: u32) -> bool {
    std::mem::replace(&mut set[i], epoch) != epoch
}

impl BspMachine {
    /// Build a machine over the product of `factor` with `r` dimensions.
    #[must_use]
    pub fn new(factor: &Graph, r: usize) -> Self {
        let shape = Shape::new(factor.n(), r);
        BspMachine {
            network: NetworkView::new(factor, shape),
            shape,
            serial: false,
            logger: EventLogger::disabled(),
        }
    }

    /// This machine with batch fan-out turned off: the batch executors
    /// ([`BspMachine::run_kernel_batch`], [`BspMachine::run_vertical_batch`])
    /// run every lane or block on the calling thread and spawn nothing.
    /// For callers that bring their own parallelism, such as the
    /// service's workers. Results are identical either way.
    #[must_use]
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Workers a batch of `units` independent work units (lanes, or
    /// 64-lane blocks on the vertical tier) runs on: `min(units,
    /// threads)`, with one thread on a serial machine and the `rayon`
    /// thread count otherwise. Batch executors fan out iff this is > 1
    /// and report it as `BatchScheduled.lanes`.
    pub(crate) fn batch_workers(&self, units: usize) -> usize {
        let threads = if self.serial {
            1
        } else {
            rayon::current_num_threads()
        };
        units.min(threads)
    }

    /// The machine's shape.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Emit `RoundStart`/`RoundEnd` per executed round, `Validate` per
    /// static validation, and `BatchScheduled` per batch dispatch into
    /// `logger`. The batch executors' per-lane inner loops stay
    /// uninstrumented (they are the throughput hot path; the batch-level
    /// events carry their aggregate shape).
    pub fn attach_logger(&mut self, logger: EventLogger) {
        self.logger = logger;
    }

    /// Execute a compiled program on `keys` (one per node, by rank): the
    /// oracle every other tier is held to. It runs
    /// [`BspMachine::try_validate`]'s check, then replays the program
    /// round by round through the one op replay the fault executors
    /// share. Returns the number of rounds executed
    /// (= `program.rounds()`).
    ///
    /// # Panics
    ///
    /// Panics with the [`ProgramError`]'s message on any machine-model
    /// violation [`BspMachine::try_validate`] reports (a non-adjacent
    /// operation, an edge, key or transit slot used twice in a round, a
    /// key read and written in one round, a move into an occupied slot,
    /// a take from an empty one, values left in transit, a bad
    /// certificate point), and if `keys` is not one per node.
    pub fn run<K: Ord + Clone>(&self, keys: &mut [K], program: &CompiledProgram) -> u64 {
        let _sort_span = self.logger.span(Tier::Serial, Stage::Sort, SpanClass::None);
        if let Err(e) = self.check(program) {
            panic!("{e}");
        }
        assert_eq!(keys.len() as u64, self.shape.len(), "one key per node");
        let mut transit = Transit::new(keys.len());
        for (ri, round) in program.round_ops().iter().enumerate() {
            self.logger.log(|| Event::RoundStart {
                round: ri as u64,
                ops: round.len() as u64,
                parallel: false,
            });
            let _round_span = self.logger.span_if(
                round.len() >= ROUND_OBS_MIN_OPS,
                Tier::Serial,
                Stage::Round,
                SpanClass::None,
            );
            transit.round(keys, round, |_, _| None);
            self.logger.log(|| Event::RoundEnd { round: ri as u64 });
        }
        program.rounds() as u64
    }

    /// Statically validate a program against this machine — without any
    /// keys: adjacency, per-round edge/key/slot discipline, and transit
    /// occupancy across rounds (every take finds a value, every write
    /// finds a free slot, nothing is left in flight at the end). `Ok`
    /// carries a [`ValidationReport`], `Err` the first violation found
    /// as a [`ProgramError`] naming the round and the resource. Emits
    /// the `Validate` event on success only. [`BspMachine::run`] runs
    /// the same check before it executes and panics where this returns
    /// `Err`.
    ///
    /// Within a round, no resident key may be both read (by a
    /// [`Op::Move`] first hop) and written (by a compare-exchange or
    /// resolve). Rounds with that property execute identically whether
    /// ops run in order or all read the start-of-round state: the relay
    /// pairing of [`BspMachine::lower`] relies on it. [`compile`] never
    /// produces such rounds.
    ///
    /// Linear in the program's op count: each op's edge test costs a few
    /// divisions whatever `r` is, and the per-round sets are flat arrays
    /// of round stamps (keys, transit slots, and one entry per directed
    /// edge of the network), allocated once per call.
    ///
    /// # Errors
    ///
    /// Returns the first machine-model violation in program order. A
    /// round's ops are checked one by one, then the round as a whole:
    /// [`ProgramError::KeyReadAndWritten`] names the first key read, in
    /// op order, that the round also writes, and
    /// [`ProgramError::SlotOccupied`] the first write, in op order, into
    /// a slot still full from an earlier round. A rank outside the
    /// network is never an edge endpoint and holds no transit value.
    /// Certificate points are checked before the rounds for order,
    /// range and `dims`, and for empty transit as the rounds reach each
    /// boundary ([`ProgramError::BadCertPoint`]), so the fault
    /// executors can segment and checkpoint any program that passes.
    pub fn try_validate(
        &self,
        program: &CompiledProgram,
    ) -> Result<ValidationReport, ProgramError> {
        self.check(program)?;
        self.logger.log(|| Event::Validate {
            rounds: program.rounds() as u64,
        });
        Ok(ValidationReport {
            rounds: program.rounds(),
            ops: program.op_count(),
            cert_points: program.cert_points.len(),
        })
    }

    /// [`BspMachine::try_validate`]'s check, which logs nothing.
    fn check(&self, program: &CompiledProgram) -> Result<(), ProgramError> {
        if program.shape != self.shape {
            return Err(ProgramError::ShapeMismatch);
        }
        // Certificate points: nondecreasing boundaries within the
        // program, `dims` within `1..=r`; their transit is checked as
        // the rounds pass them.
        let certs = &program.cert_points;
        let mut prev = 0;
        for (index, c) in certs.iter().enumerate() {
            if c.round < prev
                || c.round > program.rounds() as u64
                || !(1..=self.shape.r() as u64).contains(&u64::from(c.dims))
            {
                return Err(ProgramError::BadCertPoint {
                    index,
                    round: c.round,
                    dims: c.dims,
                });
            }
            prev = c.round;
        }
        let mut next_cert = certs.iter().take_while(|c| c.round == 0).count();
        let mut in_flight = 0usize;
        let n_nodes = self.shape.len() as usize;
        let mut occupied = vec![[false; 2]; n_nodes];
        // The round's sets, flat and allocated once: an entry is in the
        // current round's set iff it holds the round's epoch, so starting
        // a round empties every set. Slots are indexed `2·node + slot`.
        let mut key_written = vec![0u32; n_nodes];
        let mut slot_taken = vec![0u32; 2 * n_nodes];
        let mut slot_written = vec![0u32; 2 * n_nodes];
        let mut edge_used = vec![0u32; self.network.edge_id_count()];
        let mut epoch = 0u32;
        // The round's key reads and slot takes and writes, in op order,
        // for the end-of-round checks.
        let mut reads: Vec<u64> = Vec::new();
        let mut taken: Vec<(u64, u8)> = Vec::new();
        let mut written: Vec<(u64, u8)> = Vec::new();
        for (ri, round) in program.round_ops().iter().enumerate() {
            epoch = epoch.checked_add(1).unwrap_or_else(|| {
                for set in [
                    &mut key_written,
                    &mut slot_taken,
                    &mut slot_written,
                    &mut edge_used,
                ] {
                    set.fill(0);
                }
                1
            });
            reads.clear();
            taken.clear();
            written.clear();
            for op in round {
                match *op {
                    Op::CompareExchange { a, b, .. } => {
                        let Some((ab, ba)) = self.network.edge_ids(a, b) else {
                            return Err(ProgramError::CompareNotEdge { round: ri, a, b });
                        };
                        for (x, y, edge) in [(a, b, ab), (b, a, ba)] {
                            if !stamp(&mut edge_used, edge, epoch) {
                                return Err(ProgramError::EdgeReused {
                                    round: ri,
                                    from: x,
                                    to: y,
                                });
                            }
                        }
                        for v in [a, b] {
                            if !stamp(&mut key_written, v as usize, epoch) {
                                return Err(ProgramError::KeyReused { round: ri, node: v });
                            }
                        }
                    }
                    Op::Move {
                        from,
                        to,
                        slot,
                        from_key,
                    } => {
                        if slot >= 2 {
                            return Err(ProgramError::BadSlot { round: ri, slot });
                        }
                        let Some((edge, _)) = self.network.edge_ids(from, to) else {
                            return Err(ProgramError::MoveNotEdge {
                                round: ri,
                                from,
                                to,
                            });
                        };
                        if !stamp(&mut edge_used, edge, epoch) {
                            return Err(ProgramError::EdgeReused {
                                round: ri,
                                from,
                                to,
                            });
                        }
                        if from_key {
                            reads.push(from);
                        } else {
                            if !occupied[from as usize][slot as usize] {
                                return Err(ProgramError::SlotEmpty {
                                    round: ri,
                                    node: from,
                                    slot,
                                });
                            }
                            if !stamp(&mut slot_taken, 2 * from as usize + slot as usize, epoch) {
                                return Err(ProgramError::SlotTakenTwice {
                                    round: ri,
                                    node: from,
                                    slot,
                                });
                            }
                            taken.push((from, slot));
                        }
                        if !stamp(&mut slot_written, 2 * to as usize + slot as usize, epoch) {
                            return Err(ProgramError::SlotWrittenTwice {
                                round: ri,
                                node: to,
                                slot,
                            });
                        }
                        written.push((to, slot));
                    }
                    Op::Resolve { node, slot, .. } => {
                        if slot >= 2 {
                            return Err(ProgramError::BadSlot { round: ri, slot });
                        }
                        // A rank outside the network has no slot to resolve.
                        if !occupied
                            .get(node as usize)
                            .is_some_and(|slots| slots[slot as usize])
                        {
                            return Err(ProgramError::ResolveEmptySlot {
                                round: ri,
                                node,
                                slot,
                            });
                        }
                        if !stamp(&mut slot_taken, 2 * node as usize + slot as usize, epoch) {
                            return Err(ProgramError::SlotTakenTwice {
                                round: ri,
                                node,
                                slot,
                            });
                        }
                        taken.push((node, slot));
                        if !stamp(&mut key_written, node as usize, epoch) {
                            return Err(ProgramError::KeyReused { round: ri, node });
                        }
                    }
                }
            }
            if let Some(&v) = reads.iter().find(|&&v| key_written[v as usize] == epoch) {
                return Err(ProgramError::KeyReadAndWritten { round: ri, node: v });
            }
            for &(v, s) in &taken {
                occupied[v as usize][s as usize] = false;
            }
            for &(v, s) in &written {
                let dst = &mut occupied[v as usize][s as usize];
                if *dst {
                    return Err(ProgramError::SlotOccupied {
                        round: ri,
                        node: v,
                        slot: s,
                    });
                }
                *dst = true;
            }
            // Every taken slot was occupied, every written one is now:
            // `in_flight` counts the occupied slots.
            in_flight = in_flight - taken.len() + written.len();
            while let Some(c) = certs.get(next_cert).filter(|c| c.round == ri as u64 + 1) {
                if in_flight > 0 {
                    return Err(ProgramError::BadCertPoint {
                        index: next_cert,
                        round: c.round,
                        dims: c.dims,
                    });
                }
                next_cert += 1;
            }
        }
        if in_flight > 0 {
            return Err(ProgramError::TransitLeftover);
        }
        Ok(())
    }
}

/// Whether [`Op::CompareExchange`] swaps `x` (at `a`) and `y` (at `b`):
/// only when they are strictly out of order for `min_to_a`, so an equal
/// pair stays in place. The one tie rule of every executor.
#[inline]
pub(crate) fn swaps<K: Ord>(x: &K, y: &K, min_to_a: bool) -> bool {
    if min_to_a {
        x > y
    } else {
        x < y
    }
}

/// Apply one op, under `fault` if one fired at it: the machine's op
/// semantics. A fault inverts a compare-exchange's swap decision
/// ([`FaultKind::FlipCompare`]), makes a move deliver a stale copy of
/// the receiver's own key ([`FaultKind::DropRoute`]), or makes a resolve
/// keep the resident key ([`FaultKind::StallResolve`]); the transit
/// occupancy schedule is the same either way.
fn apply_op<K: Ord + Clone>(
    op: &Op,
    fault: Option<FaultKind>,
    keys: &mut [K],
    transit: &mut [[Option<K>; 2]],
    incoming: &mut Vec<(usize, usize, K)>,
) {
    match *op {
        Op::CompareExchange { a, b, min_to_a } => {
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
            // The slot is cleared on schedule, stalled or not.
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
        }
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

    /// Apply `round`'s ops in order through [`apply_op`], op `oi` under
    /// the fault `fault(oi, op)` returns, then commit the round's moves,
    /// so that moves read start-of-round transit state. Unchecked: the
    /// program must pass [`BspMachine::try_validate`]. The crate's only
    /// op-by-op replay: [`BspMachine::run`], the fault executors'
    /// interpreted rounds (faulted, under a disabled plan, or in a
    /// quarantine re-run) and the kernel's route replays all run here.
    pub(crate) fn round(
        &mut self,
        keys: &mut [K],
        round: &[Op],
        mut fault: impl FnMut(usize, &Op) -> Option<FaultKind>,
    ) {
        for (oi, op) in round.iter().enumerate() {
            apply_op(op, fault(oi, op), keys, &mut self.slots, &mut self.incoming);
        }
        for (to, slot, payload) in self.incoming.drain(..) {
            self.slots[to][slot] = Some(payload);
        }
    }

    /// Whether every slot is empty, as at every certificate boundary.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.iter().all(|t| t[0].is_none() && t[1].is_none())
    }
}

/// One logical pair round captured from the algorithm: simultaneous
/// compare-exchanges, possibly between non-adjacent nodes.
#[derive(Debug, Clone)]
struct LogicalRound {
    /// `(a, b, min_to_a)` triples, node-disjoint.
    pairs: Vec<(u64, u64, bool)>,
}

/// Engine that records the algorithm's logical pair rounds instead of
/// costing them. Data is still updated (cheaply) so the replay stays
/// well-formed; obliviousness guarantees the recorded schedule is valid
/// for every input.
struct RecordingEngine {
    program: Vec<Vec<(u32, u32)>>,
    recorded: Vec<LogicalRound>,
}

impl RecordingEngine {
    fn new(sorter: &dyn Pg2Sorter, n: usize) -> Self {
        let program = sorter.program(n);
        crate::sorters::validate_program(n, &program);
        RecordingEngine {
            program,
            recorded: Vec::new(),
        }
    }
}

impl<K: Ord + Clone> Engine<K> for RecordingEngine {
    fn sort_round(&mut self, keys: &mut [K], subgraphs: &[Pg2Instance]) -> u64 {
        for round in &self.program {
            let mut pairs = Vec::with_capacity(round.len() * subgraphs.len());
            for sg in subgraphs {
                for &(p, q) in round {
                    let (a, b) = (sg.nodes[p as usize], sg.nodes[q as usize]);
                    let min_to_a = sg.dir == Direction::Ascending;
                    pairs.push((a, b, min_to_a));
                    let (ai, bi) = (a as usize, b as usize);
                    if swaps(&keys[ai], &keys[bi], min_to_a) {
                        keys.swap(ai, bi);
                    }
                }
            }
            self.recorded.push(LogicalRound { pairs });
        }
        self.program.len() as u64
    }

    fn oet_round(&mut self, keys: &mut [K], pairs: &[(u64, u64)]) -> u64 {
        let mut rec = Vec::with_capacity(pairs.len());
        for &(a, b) in pairs {
            rec.push((a, b, true));
            let (ai, bi) = (a as usize, b as usize);
            if keys[ai] > keys[bi] {
                keys.swap(ai, bi);
            }
        }
        self.recorded.push(LogicalRound { pairs: rec });
        1
    }
}

/// Compile the full sorting algorithm for the product of `factor` with
/// `r` dimensions, using `sorter`'s comparator program for the `PG_2`
/// sorts, into an edge-aligned [`CompiledProgram`].
///
/// ```
/// use pns_graph::factories;
/// use pns_simulator::bsp::{compile, BspMachine};
/// use pns_simulator::Hypercube2Sorter;
///
/// let factor = factories::k2();
/// let program = compile(&factor, 4, &Hypercube2Sorter);
/// let machine = BspMachine::new(&factor, 4);
/// let mut keys: Vec<u32> = (0..16).rev().collect();
/// machine.run(&mut keys, &program); // validates every op against the 4-cube
/// assert!(pns_simulator::netsort::is_snake_sorted(machine.shape(), &keys));
/// ```
///
/// Compare pairs between adjacent nodes become single
/// [`Op::CompareExchange`] rounds; non-adjacent pairs (non-Hamiltonian
/// labelings) are lowered to bidirectional relays along shortest paths,
/// scheduled into edge-disjoint waves.
///
/// # Panics
///
/// Panics if `r < 2`, like [`network_sort`](crate::netsort::network_sort).
#[must_use]
pub fn compile(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) -> CompiledProgram {
    assert!(r >= 2, "the algorithm needs at least two dimensions");
    let shape = Shape::new(factor.n(), r);
    let network = NetworkView::new(factor, shape);
    let mut engine = RecordingEngine::new(sorter, shape.n());
    // Replay on dummy data, stage by stage; the schedule is
    // input-independent. Lowering after each stage lets the program
    // record a certificate point at every stage boundary: after stage
    // `k`, the paper's invariant says every `k`-dimensional subgraph is
    // snake-sorted (the final boundary, `k = r`, is global
    // snake-sortedness). The replay's unit counters are the ones every
    // sort through the program reports.
    let mut dummy: Vec<u32> = (0..shape.len() as u32).collect();
    let dims: Vec<usize> = (0..r).collect();
    let mut out = NetSortOutcome::default();
    let mut rounds: Vec<BspRound> = Vec::new();
    let mut cert_points: Vec<CertPoint> = Vec::new();
    let mut paths = FactorPaths::new(factor);
    for k in 2..=r {
        network_stage(shape, &mut dummy, &mut engine, &dims[..k], &mut out);
        for logical in engine.recorded.drain(..) {
            lower_pair_round(&network, &mut paths, &logical.pairs, &mut rounds);
        }
        cert_points.push(CertPoint {
            round: rounds.len() as u64,
            dims: k as u32,
        });
    }

    let mut program = CompiledProgram::from_rounds(shape, rounds);
    program.cert_points = cert_points;
    program.counters = out.counters;
    program
}

/// `compile`'s shortest factor paths: one BFS distance field per
/// destination, run the first time a relay heads there and walked for
/// every later one — the paths [`pns_graph::shortest_path`] returns,
/// without a BFS per relayed pair.
struct FactorPaths<'g> {
    factor: &'g Graph,
    dist_to: Vec<Option<Vec<u32>>>,
}

impl<'g> FactorPaths<'g> {
    fn new(factor: &'g Graph) -> Self {
        FactorPaths {
            factor,
            dist_to: vec![None; factor.n()],
        }
    }

    /// A shortest factor path `src → dst`, endpoints included, or `None`
    /// if `dst` is unreachable.
    fn path(&mut self, src: u32, dst: u32) -> Option<Vec<u32>> {
        let factor = self.factor;
        let dist =
            self.dist_to[dst as usize].get_or_insert_with(|| pns_graph::bfs_distances(factor, dst));
        pns_graph::shortest_path_along(factor, dist, src)
    }
}

/// Lower one logical pair round. Adjacent pairs go into a single
/// compare-exchange round; relayed pairs are grouped into waves whose
/// path edge sets are disjoint, each wave taking `max path length` move
/// rounds plus a shared resolve round.
fn lower_pair_round(
    network: &NetworkView,
    paths: &mut FactorPaths<'_>,
    pairs: &[(u64, u64, bool)],
    rounds: &mut Vec<BspRound>,
) {
    if pairs.is_empty() {
        // The synchronous round elapses even when this parity class is
        // empty (matching the executed engine's accounting).
        rounds.push(Vec::new());
        return;
    }
    let mut adjacent: BspRound = Vec::new();
    let mut relayed: Vec<(Vec<u64>, bool)> = Vec::new(); // (path a..b, min_to_a)
    for &(a, b, min_to_a) in pairs {
        // Pairs differ in exactly one dimension (a sorter's comparators
        // span one axis of their `PG_2`, a transposition pair one group
        // digit); the path stays inside that factor copy. A degenerate
        // `(a, a)` pair (a sorter bug) is a semantic no-op — comparing a
        // key with itself never swaps — so it lowers to nothing rather
        // than panicking.
        let Some((dim, da, db)) = network.split(a, b) else {
            continue;
        };
        let (factor, shape) = (&network.factor, network.shape);
        if factor.has_edge(da as u32, db as u32) {
            adjacent.push(Op::CompareExchange { a, b, min_to_a });
        } else if let Some(fpath) = paths.path(da as u32, db as u32) {
            let path: Vec<u64> = fpath
                .iter()
                .map(|&f| shape.with_digit(a, dim, f as usize))
                .collect();
            relayed.push((path, min_to_a));
        } else {
            // Unreachable for the connected factors every machine
            // constructor validates; on a disconnected factor the pair
            // cannot be routed at all — drop it (the program's final
            // certificate will expose the unsorted result) instead of
            // panicking mid-compile.
            continue;
        }
    }
    if !adjacent.is_empty() {
        rounds.push(adjacent);
    }
    // Wave-schedule the relayed pairs: a wave's paths must be
    // node-disjoint, so every relay node has both transit slots free for
    // its one pair's forward and backward streams.
    let mut remaining = relayed;
    while !remaining.is_empty() {
        let mut wave: Vec<(Vec<u64>, bool)> = Vec::new();
        let mut used_nodes: HashMap<u64, ()> = HashMap::new();
        let mut rest = Vec::new();
        for (path, min_to_a) in remaining {
            if path.iter().any(|v| used_nodes.contains_key(v)) {
                rest.push((path, min_to_a));
            } else {
                for &v in &path {
                    used_nodes.insert(v, ());
                }
                wave.push((path, min_to_a));
            }
        }
        emit_wave(&wave, rounds);
        remaining = rest;
    }
}

/// Emit the move/resolve rounds for one edge-disjoint wave of relays.
fn emit_wave(wave: &[(Vec<u64>, bool)], rounds: &mut Vec<BspRound>) {
    let max_hops = wave.iter().map(|(p, _)| p.len() - 1).max().unwrap_or(0);
    // Hop rounds: slot 0 carries a→b, slot 1 carries b→a, simultaneously
    // (full-duplex edges; the machine checks per-direction capacity).
    for h in 0..max_hops {
        let mut round: BspRound = Vec::new();
        for (path, _) in wave {
            let hops = path.len() - 1;
            if h < hops {
                round.push(Op::Move {
                    from: path[h],
                    to: path[h + 1],
                    slot: 0,
                    from_key: h == 0,
                });
                round.push(Op::Move {
                    from: path[hops - h],
                    to: path[hops - h - 1],
                    slot: 1,
                    from_key: h == 0,
                });
            }
        }
        rounds.push(round);
    }
    // Resolve round: both endpoints decide locally.
    let mut resolve: BspRound = Vec::new();
    for (path, min_to_a) in wave {
        let (Some(&a), Some(&b)) = (path.first(), path.last()) else {
            continue; // an empty path has no endpoints to resolve
        };
        resolve.push(Op::Resolve {
            node: a,
            slot: 1,
            keep_min: *min_to_a,
        });
        resolve.push(Op::Resolve {
            node: b,
            slot: 0,
            keep_min: !*min_to_a,
        });
    }
    if !resolve.is_empty() {
        rounds.push(resolve);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsort::network_sort;
    use crate::sorters::{Hypercube2Sorter, OetSnakeSorter, ShearSorter};
    use crate::{ExecutedEngine, Machine};
    use pns_fault::detect::full_subgraph_certificate;
    use pns_graph::factories;

    fn snake_sorted<K: Ord>(shape: Shape, keys: &[K]) -> bool {
        crate::netsort::is_snake_sorted(shape, keys)
    }

    #[test]
    fn compiled_grid_program_sorts() {
        let factor = factories::path(4);
        let program = compile(&factor, 2, &ShearSorter);
        let machine = BspMachine::new(&factor, 2);
        let mut keys: Vec<u32> = (0..16).rev().collect();
        let rounds = machine.run(&mut keys, &program);
        assert!(snake_sorted(machine.shape(), &keys));
        assert_eq!(rounds as usize, program.rounds());
    }

    #[test]
    fn compiled_rounds_match_executed_engine_on_hamiltonian_factors() {
        // On a Hamiltonian-labeled factor every logical pair is an edge,
        // so BSP rounds == executed-engine steps.
        for (factor, r, sorter) in [
            (factories::path(3), 3usize, &ShearSorter as &dyn Pg2Sorter),
            (factories::path(5), 2, &OetSnakeSorter),
            (factories::k2(), 5, &Hypercube2Sorter),
        ] {
            let program = compile(&factor, r, sorter);
            let shape = program.shape();
            let mut engine = ExecutedEngine::new(&factor, shape, sorter);
            let mut keys: Vec<u64> = (0..shape.len()).rev().collect();
            let out = network_sort(shape, &mut keys, &mut engine);
            assert_eq!(program.rounds() as u64, out.steps, "{factor:?} r={r}");
        }
    }

    #[test]
    fn compiled_program_is_input_independent() {
        let factor = factories::path(3);
        let program = compile(&factor, 3, &ShearSorter);
        let machine = BspMachine::new(&factor, 3);
        let mut state = 11u64;
        for _ in 0..10 {
            let mut keys: Vec<u64> = (0..27)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(i);
                    state >> 40
                })
                .collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            machine.run(&mut keys, &program);
            let sorted = crate::netsort::read_snake_order(machine.shape(), &keys);
            assert_eq!(sorted, expect);
        }
    }

    #[test]
    fn hypercube_program_zero_one_exhaustive() {
        // Exhaustive for the 3-cube; the 4-cube (2^16 inputs) is covered
        // by the release-mode integration sweep.
        let factor = factories::k2();
        let program = compile(&factor, 3, &Hypercube2Sorter);
        let machine = BspMachine::new(&factor, 3);
        for mask in 0u32..(1 << 8) {
            let mut keys: Vec<u8> = (0..8).map(|i| ((mask >> i) & 1) as u8).collect();
            machine.run(&mut keys, &program);
            assert!(snake_sorted(machine.shape(), &keys), "mask={mask:#x}");
        }
    }

    #[test]
    fn non_hamiltonian_factor_uses_relays_and_still_sorts() {
        // Star factor: compares between leaves relay through the hub.
        let factor = factories::star(4);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let machine = BspMachine::new(&factor, 2);
        let mut keys: Vec<u32> = (0..16).map(|x| (x * 11) % 17).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        machine.run(&mut keys, &program);
        assert_eq!(
            crate::netsort::read_snake_order(machine.shape(), &keys),
            expect
        );
        // Relays exist: some rounds carry Move/Resolve ops.
        let has_moves = program
            .round_ops()
            .iter()
            .flatten()
            .any(|op| matches!(op, Op::Move { .. }));
        assert!(has_moves, "expected relayed compares on the star factor");
    }

    #[test]
    fn bsp_agrees_with_machine_api() {
        let factor = Machine::prepare_factor(&factories::complete_binary_tree(3));
        let program = compile(&factor, 2, &OetSnakeSorter);
        let bsp = BspMachine::new(&factor, 2);
        let keys: Vec<u64> = (0..49).map(|x| (x * 13) % 29).collect();
        let mut bsp_keys = keys.clone();
        bsp.run(&mut bsp_keys, &program);

        let mut m = Machine::executed(&factor, 2, &OetSnakeSorter);
        let rep = m.sort(keys).expect("49 keys");
        assert_eq!(bsp_keys, rep.keys, "final configurations must agree");
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn machine_rejects_non_edge_compare() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::CompareExchange {
                a: 0,
                b: 2, // labels 0 and 2 are not adjacent on the path
                min_to_a: true,
            }]],
        );
        let mut keys: Vec<u32> = (0..9).collect();
        machine.run(&mut keys, &program);
    }

    #[test]
    #[should_panic(expected = "key accessed twice")]
    fn machine_rejects_node_reuse_in_round() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![
                Op::CompareExchange {
                    a: 0,
                    b: 1,
                    min_to_a: true,
                },
                Op::CompareExchange {
                    a: 1,
                    b: 2,
                    min_to_a: true,
                },
            ]],
        );
        let mut keys: Vec<u32> = (0..9).collect();
        machine.run(&mut keys, &program);
    }

    #[test]
    #[should_panic(expected = "resolve of empty slot")]
    fn machine_rejects_resolving_empty_slot() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::Resolve {
                node: 0,
                slot: 0,
                keep_min: true,
            }]],
        );
        let mut keys: Vec<u32> = (0..9).collect();
        machine.run(&mut keys, &program);
    }

    #[test]
    fn compiled_programs_serialize_roundtrip() {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let json = serde_json::to_string(&program).expect("serialize");
        let back: CompiledProgram = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.rounds(), program.rounds());
        assert_eq!(back.op_count(), program.op_count());
        // The deserialized program still runs and sorts.
        let machine = BspMachine::new(&factor, 2);
        let mut keys: Vec<u32> = (0..9).rev().collect();
        machine.run(&mut keys, &back);
        assert!(snake_sorted(machine.shape(), &keys));
    }

    #[test]
    fn op_counts_are_reported() {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &OetSnakeSorter);
        assert!(program.op_count() > 0);
        assert!(program.rounds() > 0);
    }

    #[test]
    fn compile_path_table_returns_the_searched_shortest_paths() {
        let disconnected = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        for factor in [
            factories::star(5),
            factories::complete_binary_tree(3),
            factories::petersen(),
            factories::de_bruijn(3),
            disconnected,
        ] {
            let mut paths = FactorPaths::new(&factor);
            let n = factor.n() as u32;
            for dst in 0..n {
                for src in 0..n {
                    assert_eq!(
                        paths.path(src, dst),
                        pns_graph::shortest_path(&factor, src, dst),
                        "{} {src} -> {dst}",
                        factor.name()
                    );
                }
            }
        }
    }

    /// Deterministic pseudo-random keys for differential checks.
    fn lcg_keys(len: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
                state >> 33
            })
            .collect()
    }

    #[test]
    fn validate_accepts_every_compiled_program() {
        for (factor, r, sorter) in [
            (factories::path(4), 2usize, &ShearSorter as &dyn Pg2Sorter),
            (factories::star(4), 2, &OetSnakeSorter),
            (factories::k2(), 5, &Hypercube2Sorter),
            (
                Machine::prepare_factor(&factories::petersen()),
                2,
                &OetSnakeSorter,
            ),
        ] {
            let machine = BspMachine::new(&factor, r);
            let program = compile(&factor, r, sorter);
            if let Err(e) = machine.try_validate(&program) {
                panic!("{factor:?} r={r}: {e}");
            }
        }
    }

    #[test]
    fn validate_rejects_order_dependent_rounds() {
        // Node 1's key is read by a relay first hop and written by a
        // compare-exchange in the same round: serial execution order
        // would decide which value the relay carries.
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![
                vec![
                    Op::Move {
                        from: 1,
                        to: 2,
                        slot: 0,
                        from_key: true,
                    },
                    Op::CompareExchange {
                        a: 0,
                        b: 1,
                        min_to_a: true,
                    },
                ],
                vec![Op::Resolve {
                    node: 2,
                    slot: 0,
                    keep_min: true,
                }],
            ],
        );
        let err = machine.try_validate(&program).expect_err("order-dependent");
        assert_eq!(err, ProgramError::KeyReadAndWritten { round: 0, node: 1 });
        assert!(err.to_string().contains("read and written in one round"));
    }

    /// Build a machine wired to an in-memory event ring.
    fn traced_machine(factor: &Graph, r: usize) -> (BspMachine, pns_obs::MemoryReader) {
        let (sink, reader) = pns_obs::MemorySink::with_capacity(1 << 16);
        let mut machine = BspMachine::new(factor, r);
        let logger = pns_obs::EventLogger::new(Box::new(sink));
        machine.attach_logger(logger);
        (machine, reader)
    }

    fn drain(machine: &BspMachine, reader: &pns_obs::MemoryReader) -> Vec<pns_obs::TimedEvent> {
        machine.logger.flush();
        reader.events()
    }

    #[test]
    fn round_events_pair_up_and_are_monotone() {
        let factor = factories::star(4);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let (machine, reader) = traced_machine(&factor, 2);
        let mut keys: Vec<u64> = (0..16).rev().collect();
        machine.run(&mut keys, &program);
        let events = drain(&machine, &reader);
        let mut open: Option<u64> = None;
        let mut next_round = 0u64;
        let mut span_opens = 0u64;
        let mut span_closes = 0u64;
        for ev in &events {
            match ev.event {
                Event::RoundStart { round, .. } => {
                    assert!(open.is_none(), "RoundStart {round} inside an open round");
                    assert_eq!(round, next_round, "round indices must be monotone");
                    open = Some(round);
                }
                Event::RoundEnd { round } => {
                    assert_eq!(open.take(), Some(round), "RoundEnd {round} without start");
                    next_round += 1;
                }
                Event::SpanEnter { .. } => span_opens += 1,
                Event::SpanExit { .. } => span_closes += 1,
                other => panic!("serial run emitted unexpected {other:?}"),
            }
        }
        assert!(open.is_none(), "every RoundStart needs a matching RoundEnd");
        assert_eq!(next_round as usize, program.rounds());
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.event, Event::RoundStart { .. } | Event::RoundEnd { .. }))
                .count(),
            2 * program.rounds()
        );
        // The run itself is wrapped in one serial sort span (the star²
        // rounds are below ROUND_OBS_MIN_OPS, so no round spans), and
        // every opened span closed.
        assert_eq!(span_opens, span_closes);
        assert!(span_opens >= 1, "expected at least the sort span");
        let sort_enter = events
            .iter()
            .find_map(|e| match e.event {
                Event::SpanEnter {
                    span, tier, stage, ..
                } => Some((span, tier, stage)),
                _ => None,
            })
            .expect("sort span enter");
        assert_eq!(sort_enter.1, pns_obs::Tier::Serial.code());
        assert_eq!(sort_enter.2, pns_obs::Stage::Sort.code());
        assert!(
            events
                .iter()
                .any(|e| matches!(e.event, Event::SpanExit { span, .. } if span == sort_enter.0)),
            "sort span must close"
        );
    }

    #[test]
    fn batches_emit_schedule_and_validate_events() {
        let factor = factories::path(3);
        let program = compile(&factor, 2, &OetSnakeSorter);
        let (machine, reader) = traced_machine(&factor, 2);
        let kernel = machine.lower(&program).expect("valid program");
        let mut batch: Vec<Vec<u64>> = (0..5).map(|s| lcg_keys(9, s + 1)).collect();
        let mut pool = crate::kernel::ScratchPool::new();
        machine.run_kernel_batch(&mut batch, &kernel, &mut pool);
        let plan = pns_fault::FaultPlan::disabled();
        let policy = pns_fault::RetryPolicy::default();
        let _ = machine.run_batch_with_faults(&mut batch, &program, &plan, &policy);
        let events = drain(&machine, &reader);
        // Lowering validates once, and the fault batch once more.
        let validate = Event::Validate {
            rounds: program.rounds() as u64,
        };
        assert_eq!(events.iter().filter(|e| e.event == validate).count(), 2);
        let scheduled = |events: &[pns_obs::TimedEvent]| -> Vec<Event> {
            events
                .iter()
                .map(|e| e.event)
                .filter(|e| matches!(e, Event::BatchScheduled { .. }))
                .collect()
        };
        // The kernel batch fans out; the fault batch runs its lanes on
        // the calling thread.
        let threads = rayon::current_num_threads() as u64;
        assert_eq!(
            scheduled(&events),
            vec![
                Event::BatchScheduled {
                    batch: 5,
                    lanes: 5.min(threads),
                },
                Event::BatchScheduled { batch: 5, lanes: 1 },
            ]
        );

        // A serial machine reports one worker on every batch executor.
        let (machine, reader) = traced_machine(&factor, 2);
        let machine = machine.serial();
        machine.run_kernel_batch(&mut batch, &kernel, &mut pool);
        let _ = machine.run_batch_with_faults(&mut batch, &program, &plan, &policy);
        assert_eq!(
            scheduled(&drain(&machine, &reader)),
            vec![Event::BatchScheduled { batch: 5, lanes: 1 }; 2]
        );

        // The vertical tier's unit of work is a 64-lane block: a 64-lane
        // batch is one block, a 130-lane batch three.
        let vertical = crate::vertical::VerticalProgram::lower(std::sync::Arc::new(kernel));
        let (machine, reader) = traced_machine(&factor, 2);
        let mut pool = crate::vertical::VerticalPool::new();
        for lanes in [64u64, 130] {
            let mut batch: Vec<Vec<u64>> = (0..lanes).map(|s| lcg_keys(9, s + 1)).collect();
            machine.run_vertical_batch(&mut batch, &vertical, &mut pool);
        }
        assert_eq!(
            scheduled(&drain(&machine, &reader)),
            vec![
                Event::BatchScheduled {
                    batch: 64,
                    lanes: 1
                },
                Event::BatchScheduled {
                    batch: 130,
                    lanes: 3.min(threads)
                },
            ]
        );
    }

    #[test]
    fn compiled_programs_carry_stage_certificates() {
        for (factor, r, sorter) in [
            (factories::path(3), 3usize, &ShearSorter as &dyn Pg2Sorter),
            (factories::star(4), 2, &OetSnakeSorter),
            (factories::k2(), 5, &Hypercube2Sorter),
        ] {
            let program = compile(&factor, r, sorter);
            let certs = program.cert_points();
            // One certificate per stage: dims 2, 3, …, r.
            assert_eq!(certs.len(), r - 1, "{factor:?} r={r}");
            for (i, c) in certs.iter().enumerate() {
                assert_eq!(c.dims as usize, i + 2);
            }
            // Boundaries are monotone and the last one closes the program.
            assert!(certs.windows(2).all(|w| w[0].round <= w[1].round));
            assert_eq!(
                certs.last().expect("nonempty").round as usize,
                program.rounds()
            );
            // The certified invariant actually holds at each boundary.
            let machine = BspMachine::new(&factor, r);
            let mut keys = lcg_keys(machine.shape().len(), 23);
            let mut transit = Transit::new(keys.len());
            let mut next_cert = 0;
            for (ri, round) in program.round_ops().iter().enumerate() {
                while next_cert < certs.len() && certs[next_cert].round as usize == ri {
                    assert!(
                        full_subgraph_certificate(
                            machine.shape(),
                            &keys,
                            certs[next_cert].dims as usize
                        ),
                        "{factor:?} r={r}: certificate at round {ri} violated"
                    );
                    next_cert += 1;
                }
                transit.round(&mut keys, round, |_, _| None);
            }
            for c in &certs[next_cert..] {
                assert_eq!(c.round as usize, program.rounds());
                assert!(full_subgraph_certificate(
                    machine.shape(),
                    &keys,
                    c.dims as usize
                ));
            }
        }
    }

    #[test]
    fn try_validate_reports_typed_errors_with_legacy_messages() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        let bad = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::CompareExchange {
                a: 0,
                b: 2,
                min_to_a: true,
            }]],
        );
        let err = machine.try_validate(&bad).expect_err("not an edge");
        assert_eq!(
            err,
            ProgramError::CompareNotEdge {
                round: 0,
                a: 0,
                b: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "round 0: compare-exchange (0,2) is not an edge"
        );

        let empty_resolve = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::Resolve {
                node: 1,
                slot: 0,
                keep_min: true,
            }]],
        );
        let err = machine
            .try_validate(&empty_resolve)
            .expect_err("empty slot");
        assert_eq!(
            err,
            ProgramError::ResolveEmptySlot {
                round: 0,
                node: 1,
                slot: 0
            }
        );
        assert_eq!(err.to_string(), "round 0: resolve of empty slot 0 at 1");

        let other_machine = BspMachine::new(&factor, 3);
        assert_eq!(
            other_machine.try_validate(&bad),
            Err(ProgramError::ShapeMismatch)
        );

        // A good program reports its size and certificates.
        let good = compile(&factor, 2, &OetSnakeSorter);
        let report = machine.try_validate(&good).expect("valid program");
        assert_eq!(report.rounds, good.rounds());
        assert_eq!(report.ops, good.op_count());
        assert_eq!(report.cert_points, 1);
    }

    #[test]
    fn try_validate_flags_transit_leftovers() {
        let factor = factories::path(3);
        let machine = BspMachine::new(&factor, 2);
        // A single move parks a value in transit and never resolves it.
        let program = CompiledProgram::from_rounds(
            machine.shape(),
            vec![vec![Op::Move {
                from: 0,
                to: 1,
                slot: 0,
                from_key: true,
            }]],
        );
        assert_eq!(
            machine.try_validate(&program),
            Err(ProgramError::TransitLeftover)
        );
    }

    fn cx(a: u64, b: u64) -> Op {
        Op::CompareExchange {
            a,
            b,
            min_to_a: true,
        }
    }

    fn mv(from: u64, to: u64, slot: u8, from_key: bool) -> Op {
        Op::Move {
            from,
            to,
            slot,
            from_key,
        }
    }

    fn resolve(node: u64, slot: u8) -> Op {
        Op::Resolve {
            node,
            slot,
            keep_min: true,
        }
    }

    /// Validate hand-built rounds on `path(3)^2`: node `d0 + 3·d1`, with
    /// edges between ranks that differ by one in a single digit.
    fn validate_on_path3_squared(rounds: Vec<BspRound>) -> Result<ValidationReport, ProgramError> {
        let machine = BspMachine::new(&factories::path(3), 2);
        machine.try_validate(&CompiledProgram::from_rounds(machine.shape(), rounds))
    }

    /// The message `run` panics with on `program`, or `None` if it runs.
    fn run_panic(machine: &BspMachine, program: &CompiledProgram) -> Option<String> {
        let mut keys: Vec<u64> = (0..machine.shape().len()).collect();
        let run = std::panic::AssertUnwindSafe(|| machine.run(&mut keys, program));
        let payload = std::panic::catch_unwind(run).err()?;
        payload.downcast_ref::<String>().cloned()
    }

    #[test]
    fn try_validate_names_every_single_violation() {
        // Each program breaks exactly one rule; the rest of it is valid.
        // `run` panics with the same diagnostic.
        let cases: Vec<(Vec<BspRound>, ProgramError)> = vec![
            (
                vec![vec![mv(0, 2, 0, true)], vec![resolve(2, 0)]],
                ProgramError::MoveNotEdge {
                    round: 0,
                    from: 0,
                    to: 2,
                },
            ),
            (
                vec![
                    vec![mv(0, 1, 0, true), mv(0, 1, 1, true)],
                    vec![resolve(1, 0)],
                    vec![resolve(1, 1)],
                ],
                ProgramError::EdgeReused {
                    round: 0,
                    from: 0,
                    to: 1,
                },
            ),
            (
                vec![vec![cx(0, 1), cx(1, 2)]],
                ProgramError::KeyReused { round: 0, node: 1 },
            ),
            (
                vec![vec![mv(1, 2, 0, true), cx(0, 1)], vec![resolve(2, 0)]],
                ProgramError::KeyReadAndWritten { round: 0, node: 1 },
            ),
            (
                vec![vec![mv(0, 1, 2, true)]],
                ProgramError::BadSlot { round: 0, slot: 2 },
            ),
            (
                vec![vec![resolve(0, 3)]],
                ProgramError::BadSlot { round: 0, slot: 3 },
            ),
            (
                vec![vec![mv(0, 1, 0, false)], vec![resolve(1, 0)]],
                ProgramError::SlotEmpty {
                    round: 0,
                    node: 0,
                    slot: 0,
                },
            ),
            (
                vec![
                    vec![mv(0, 1, 0, true)],
                    vec![mv(1, 2, 0, false), resolve(1, 0)],
                    vec![resolve(2, 0)],
                ],
                ProgramError::SlotTakenTwice {
                    round: 1,
                    node: 1,
                    slot: 0,
                },
            ),
            (
                vec![
                    vec![mv(0, 1, 0, true), mv(2, 1, 0, true)],
                    vec![resolve(1, 0)],
                ],
                ProgramError::SlotWrittenTwice {
                    round: 0,
                    node: 1,
                    slot: 0,
                },
            ),
            (
                vec![
                    vec![mv(0, 1, 0, true)],
                    vec![mv(2, 1, 0, true)],
                    vec![resolve(1, 0)],
                ],
                ProgramError::SlotOccupied {
                    round: 1,
                    node: 1,
                    slot: 0,
                },
            ),
        ];
        let machine = BspMachine::new(&factories::path(3), 2);
        for (rounds, expected) in cases {
            let context = format!("{rounds:?}");
            let program = CompiledProgram::from_rounds(machine.shape(), rounds);
            assert_eq!(
                machine.try_validate(&program),
                Err(expected.clone()),
                "{context}"
            );
            assert_eq!(
                run_panic(&machine, &program),
                Some(expected.to_string()),
                "{context}"
            );
        }
    }

    #[test]
    fn round_level_errors_name_the_first_node_in_op_order() {
        // Nodes 1 and 4 are both read (relay first hops) and written
        // (compare-exchanges) in round 0; the first read names the error.
        let (read4, read1) = (mv(4, 7, 0, true), mv(1, 2, 0, true));
        for (first, second, node) in [(read4, read1, 4), (read1, read4, 1)] {
            let rounds = vec![
                vec![first, second, cx(0, 1), cx(3, 4)],
                vec![resolve(7, 0), resolve(2, 0)],
            ];
            assert_eq!(
                validate_on_path3_squared(rounds),
                Err(ProgramError::KeyReadAndWritten { round: 0, node })
            );
        }
        // Round 1 writes into slot 0 of nodes 7 and 1, both still full
        // from round 0; the first write names the error.
        let (into7, into1) = (mv(8, 7, 0, true), mv(2, 1, 0, true));
        for (first, second, node) in [(into7, into1, 7), (into1, into7, 1)] {
            let rounds = vec![
                vec![mv(0, 1, 0, true), mv(6, 7, 0, true)],
                vec![first, second],
                vec![resolve(1, 0), resolve(7, 0)],
            ];
            assert_eq!(
                validate_on_path3_squared(rounds),
                Err(ProgramError::SlotOccupied {
                    round: 1,
                    node,
                    slot: 0
                })
            );
        }
    }

    #[test]
    fn ranks_outside_the_network_are_typed_errors() {
        // path(3)^2 has ranks 0..9. Rank 10 = 9 + 1 shares its low digits
        // with rank 1, so a digit loop over r digits would see (0, 10) as
        // the edge (0, 1).
        for (rounds, expected) in [
            (
                vec![vec![cx(0, 10)]],
                ProgramError::CompareNotEdge {
                    round: 0,
                    a: 0,
                    b: 10,
                },
            ),
            (
                vec![vec![mv(10, 0, 0, true)], vec![resolve(0, 0)]],
                ProgramError::MoveNotEdge {
                    round: 0,
                    from: 10,
                    to: 0,
                },
            ),
            (
                vec![vec![resolve(9, 0)]],
                ProgramError::ResolveEmptySlot {
                    round: 0,
                    node: 9,
                    slot: 0,
                },
            ),
        ] {
            assert_eq!(validate_on_path3_squared(rounds), Err(expected));
        }
    }

    /// The product-edge definition, digit by digit: `a` and `b` differ in
    /// exactly one digit, and the factor joins their two digits there.
    fn edge_by_digits(factor: &Graph, shape: Shape, a: u64, b: u64) -> bool {
        let differing: Vec<usize> = (0..shape.r())
            .filter(|&i| shape.digit(a, i) != shape.digit(b, i))
            .collect();
        match differing[..] {
            [i] => factor.has_edge(shape.digit(a, i) as u32, shape.digit(b, i) as u32),
            _ => false,
        }
    }

    #[test]
    fn edge_test_agrees_with_the_digit_definition_on_every_pair() {
        // A 3-node path labelled 0–2–1, so factor adjacency is not
        // "labels differ by one".
        let zigzag = Graph::from_edges(3, &[(0, 2), (2, 1)]);
        for (factor, r) in [
            (factories::path(3), 3usize),
            (factories::star(4), 2),
            (factories::k2(), 5),
            (zigzag, 2),
        ] {
            let shape = Shape::new(factor.n(), r);
            let view = NetworkView::new(&factor, shape);
            for a in shape.ranks() {
                for b in shape.ranks() {
                    assert_eq!(
                        view.edge_ids(a, b).is_some(),
                        edge_by_digits(&factor, shape, a, b),
                        "{factor:?} r={r} ({a},{b})"
                    );
                }
            }
        }
        // Rank differences that look like one digit, between ranks that
        // differ in two or more: base 3, 2 = (2,0) and 3 = (0,1) are one
        // apart, 1 = (1,0) and 5 = (2,1) four; base 2, 1 = 01 and 2 = 10,
        // 3 = 011 and 4 = 100.
        let path3 = NetworkView::new(&factories::path(3), Shape::new(3, 2));
        let cube = NetworkView::new(&factories::k2(), Shape::new(2, 3));
        for (view, a, b) in [
            (&path3, 2, 3),
            (&path3, 3, 2),
            (&path3, 1, 5),
            (&cube, 1, 2),
            (&cube, 3, 4),
        ] {
            assert!(view.edge_ids(a, b).is_none(), "({a},{b})");
        }
    }
}
