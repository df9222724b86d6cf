//! The event taxonomy: every observable moment of the sorting stack,
//! as a typed enum.
//!
//! Events are deliberately *flat* (only `u64`/`bool` fields) so that any
//! sink can serialize them without pulling in the types of the layers
//! that emit them. The taxonomy spans all execution layers:
//!
//! * **BSP executor** ([`Event::RoundStart`], [`Event::RoundEnd`],
//!   [`Event::Validate`], [`Event::BatchScheduled`]) — emitted by
//!   `pns-simulator`'s `BspMachine` per synchronous round, per static
//!   validation, and per batch dispatch.
//! * **Logical engines** ([`Event::S2Unit`], [`Event::RouteUnit`]) —
//!   emitted once per charged unit, i.e. exactly when the algorithm's
//!   `Counters` increment `s2_units`/`route_units`. Summing the `units`
//!   fields of a run's stream therefore reproduces the run's `Counters`
//!   totals (see `ObsSummary`).
//! * **Merge engine** ([`Event::MergePhase`]) — emitted by
//!   `pns-core::merge` once per Step 1–4 of each multiway merge, with
//!   the recursion depth.
//! * **Program cache** ([`Event::CacheLookup`], [`Event::KernelLowered`])
//!   — one per lookup, with the structural fingerprint of the requested
//!   program; one per program lowered to the flat kernel tier, with the
//!   lowered round/op shape.
//! * **Fault layer** ([`Event::FaultInjected`], [`Event::FaultDetected`],
//!   [`Event::RetryRound`], [`Event::LaneQuarantined`]) — emitted by
//!   `pns-simulator`'s fault-injecting executor: one per fired fault
//!   site, per failed certificate check, per checkpoint restore, and per
//!   batch lane that fell back to a clean serial re-run.
//! * **Span layer** ([`Event::SpanEnter`], [`Event::SpanExit`]) —
//!   emitted by [`crate::SpanGuard`]s opened through
//!   [`crate::EventLogger::span`]: a timed, hierarchical interval
//!   attributed to a `(tier, stage, class)` coordinate (codes defined in
//!   [`crate::span`]). The exit carries the duration measured by the
//!   guard's own monotonic clock, so aggregation never pairs timestamps
//!   across threads.

use serde::{Deserialize, Serialize};

/// One typed observation. See the module docs for who emits what.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A synchronous BSP round is about to execute.
    RoundStart {
        /// Round index within the compiled program (0-based, monotone).
        round: u64,
        /// Operations in the round.
        ops: u64,
        /// Whether the round runs on the intra-round parallel path.
        parallel: bool,
    },
    /// The matching end of a [`Event::RoundStart`] (same `round`).
    RoundEnd {
        /// Round index, equal to the opening `RoundStart`'s.
        round: u64,
    },
    /// One step (1–4) of a multiway merge completed.
    MergePhase {
        /// Paper step number: 1 distribute, 2 merge columns,
        /// 3 interleave, 4 clean.
        step: u64,
        /// Recursion depth of the merge (0 = outermost).
        depth: u64,
    },
    /// One `S2` unit was charged: a parallel round of `N²`-key base
    /// sorts (the quantity Lemma 3 / Theorem 1 count).
    S2Unit {
        /// Units charged (1 per engine round; a compiled machine emits
        /// its whole logical charge as one event).
        units: u64,
        /// Parallel `PG_2` instances covered by the round (0 when the
        /// emitter aggregates, e.g. compiled machines).
        width: u64,
    },
    /// One routing unit was charged: an odd-even transposition round
    /// between `PG_2` subgraphs.
    RouteUnit {
        /// Units charged (see [`Event::S2Unit::units`]).
        units: u64,
        /// Compare-exchange pairs in the round (0 when aggregated).
        width: u64,
    },
    /// A program-cache lookup resolved.
    CacheLookup {
        /// Served from cache (`true`) or compiled on miss (`false`).
        hit: bool,
        /// FNV-1a digest of the structural key (factor wiring, `r`,
        /// sorter) — display identity only; the cache compares full
        /// keys.
        key_fingerprint: u64,
    },
    /// A compiled program was lowered to the flat structure-of-arrays
    /// kernel tier (cache misses on the kernel cache).
    KernelLowered {
        /// Rounds in the lowered kernel (= the source program's rounds).
        rounds: u64,
        /// Rounds that lowered to pure compare-exchange pair lists.
        compare_rounds: u64,
        /// Rounds that lowered to packed route micro-ops.
        route_rounds: u64,
        /// Compare-exchange pairs across all compare rounds.
        cx_pairs: u64,
        /// Packed micro-ops across all route rounds.
        micro_ops: u64,
    },
    /// A lowered kernel was committed to the bit-sliced vertical
    /// (lane-major) layout (cache misses on the vertical cache).
    VerticalLowered {
        /// Rounds in the program (= the source kernel's rounds).
        rounds: u64,
        /// Compare rounds executed as word-wide min/max.
        compare_rounds: u64,
        /// Route rounds executed as column-block permutations.
        route_rounds: u64,
        /// Word-level ops per run: the compare-exchanges a fault-free
        /// run executes — each carries up to 64 lanes.
        word_ops: u64,
        /// Lanes one machine word carries (64).
        lanes: u64,
    },
    /// A batch of independent key vectors was scheduled onto the
    /// batched executor.
    BatchScheduled {
        /// Vectors in the batch.
        batch: u64,
        /// Workers that run the batch: `min(units, threads)`, where the
        /// units are vectors (64-vector blocks on the vertical tier) and
        /// a serial executor has one thread.
        lanes: u64,
    },
    /// A compiled program passed static validation.
    Validate {
        /// Rounds in the validated program.
        rounds: u64,
    },
    /// A transient fault fired at an execution site (fault-injecting
    /// executors only).
    FaultInjected {
        /// Round index the fault fired in.
        round: u64,
        /// Operation index within the round.
        op: u64,
        /// `FaultKind` code: 0 flip-compare, 1 drop-route,
        /// 2 stall-resolve.
        kind: u64,
    },
    /// A certificate check failed, exposing corrupted state.
    FaultDetected {
        /// Round the failed certificate guards (the segment boundary).
        round: u64,
        /// Subgraph dimensionality `k` the certificate checked.
        stage: u64,
        /// Whether the failing check was a sampled probe (`true`) or
        /// the full certificate (`false`).
        sampled: bool,
    },
    /// The executor restored a checkpoint and is re-running a segment.
    RetryRound {
        /// Round the re-execution restarts from (checkpoint boundary).
        round: u64,
        /// Retry attempt for this segment (1-based).
        attempt: u64,
    },
    /// A batch lane exhausted its retries and was re-run serially,
    /// fault-free, from its original input.
    LaneQuarantined {
        /// Index of the quarantined lane within the batch.
        lane: u64,
    },
    /// A timing span opened (see [`crate::EventLogger::span`]).
    SpanEnter {
        /// Process-unique span id (never 0).
        span: u64,
        /// Id of the innermost span open on the emitting thread when
        /// this one opened; 0 for a root span.
        parent: u64,
        /// Execution-tier code ([`crate::Tier::code`]).
        tier: u64,
        /// Stage code ([`crate::Stage::code`]).
        stage: u64,
        /// Round-class code ([`crate::SpanClass::code`]); 0 for
        /// non-round spans.
        class: u64,
    },
    /// The matching close of a [`Event::SpanEnter`] (same `span`).
    SpanExit {
        /// Id of the closing span.
        span: u64,
        /// Duration in nanoseconds, measured by the guard's monotonic
        /// clock between open and drop.
        dur_ns: u64,
    },
}

impl Event {
    /// The logical identity of the event: execution-strategy details
    /// (the `parallel` flag, round widths) are normalized away, so that
    /// serial and parallel executions of the same program compare equal
    /// event by event. Timing lives outside the event
    /// ([`crate::TimedEvent`]), so it is already excluded.
    #[must_use]
    pub fn logical(self) -> Event {
        match self {
            Event::RoundStart { round, ops, .. } => Event::RoundStart {
                round,
                ops,
                parallel: false,
            },
            other => other,
        }
    }

    /// Short kind tag, for grouping and display.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RoundStart { .. } => "round_start",
            Event::RoundEnd { .. } => "round_end",
            Event::MergePhase { .. } => "merge_phase",
            Event::S2Unit { .. } => "s2_unit",
            Event::RouteUnit { .. } => "route_unit",
            Event::CacheLookup { .. } => "cache_lookup",
            Event::KernelLowered { .. } => "kernel_lowered",
            Event::VerticalLowered { .. } => "vertical_lowered",
            Event::BatchScheduled { .. } => "batch_scheduled",
            Event::Validate { .. } => "validate",
            Event::FaultInjected { .. } => "fault_injected",
            Event::FaultDetected { .. } => "fault_detected",
            Event::RetryRound { .. } => "retry_round",
            Event::LaneQuarantined { .. } => "lane_quarantined",
            Event::SpanEnter { .. } => "span_enter",
            Event::SpanExit { .. } => "span_exit",
        }
    }
}

/// An event plus the nanoseconds since its logger's epoch. Timestamps
/// are monotone *per emitting thread* (buffers are per-thread); sinks
/// may observe batches from different threads out of order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Nanoseconds since the logger's creation.
    pub t_ns: u64,
    /// The observation.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_view_normalizes_the_parallel_flag() {
        let serial = Event::RoundStart {
            round: 3,
            ops: 10,
            parallel: false,
        };
        let parallel = Event::RoundStart {
            round: 3,
            ops: 10,
            parallel: true,
        };
        assert_ne!(serial, parallel);
        assert_eq!(serial.logical(), parallel.logical());
        let end = Event::RoundEnd { round: 3 };
        assert_eq!(end.logical(), end);
    }

    #[test]
    fn events_serialize_to_externally_tagged_json() {
        let ev = TimedEvent {
            t_ns: 42,
            event: Event::CacheLookup {
                hit: true,
                key_fingerprint: 7,
            },
        };
        let json = serde_json::to_string(&ev).expect("serialize");
        assert!(json.contains("CacheLookup"), "{json}");
        let back: TimedEvent = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, ev);
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            Event::RoundStart {
                round: 0,
                ops: 0,
                parallel: false,
            }
            .kind(),
            Event::RoundEnd { round: 0 }.kind(),
            Event::MergePhase { step: 1, depth: 0 }.kind(),
            Event::S2Unit { units: 1, width: 1 }.kind(),
            Event::RouteUnit { units: 1, width: 1 }.kind(),
            Event::CacheLookup {
                hit: false,
                key_fingerprint: 0,
            }
            .kind(),
            Event::KernelLowered {
                rounds: 1,
                compare_rounds: 1,
                route_rounds: 0,
                cx_pairs: 4,
                micro_ops: 0,
            }
            .kind(),
            Event::VerticalLowered {
                rounds: 1,
                compare_rounds: 1,
                route_rounds: 0,
                word_ops: 4,
                lanes: 64,
            }
            .kind(),
            Event::BatchScheduled { batch: 1, lanes: 1 }.kind(),
            Event::Validate { rounds: 0 }.kind(),
            Event::FaultInjected {
                round: 0,
                op: 0,
                kind: 0,
            }
            .kind(),
            Event::FaultDetected {
                round: 0,
                stage: 2,
                sampled: false,
            }
            .kind(),
            Event::RetryRound {
                round: 0,
                attempt: 1,
            }
            .kind(),
            Event::LaneQuarantined { lane: 0 }.kind(),
            Event::SpanEnter {
                span: 1,
                parent: 0,
                tier: 1,
                stage: 1,
                class: 0,
            }
            .kind(),
            Event::SpanExit { span: 1, dur_ns: 0 }.kind(),
        ];
        let mut dedup = kinds.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len());
    }
}
