//! Hierarchical timing spans: RAII-guarded `SpanEnter`/`SpanExit`
//! events over the same channels the rest of the event stream uses.
//!
//! A span is a timed interval attributed to a `(tier, stage, class)`
//! coordinate: which execution tier was running (serial interpreter,
//! flat kernel, bit-sliced vertical, fault executor, program cache),
//! what it was doing (a whole sort, a batch, one round, validation,
//! lowering), and — for round spans — the lowered round class.
//! [`EventLogger::span`] stamps a `SpanEnter`,
//! pushes the span onto a thread-local parent stack, and returns a
//! [`SpanGuard`]; dropping the guard pops the stack and stamps a
//! `SpanExit` carrying the duration measured *by the guard itself*
//! (monotonic clock), so the aggregator never has to pair timestamps
//! across threads.
//!
//! Cost discipline: a disabled logger returns an inert guard — one
//! branch, no clock read, no allocation. Enabled loggers pay two events
//! and two monotonic clock reads per span, which is why hot executors
//! only open round-grain spans for rounds with at least
//! [`ROUND_OBS_MIN_OPS`] operations (see DESIGN.md §13); sub-threshold
//! rounds are absorbed into the enclosing sort span's self time, so
//! profile self-times still sum to the root span's duration.

use crate::event::Event;
use crate::logger::EventLogger;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Minimum operations in a round before the executors emit round-grain
/// observability (round events and round spans) for it. Rounds below
/// the threshold execute in tens of nanoseconds on the kernel and
/// vertical tiers — two clock reads per round would dominate them and
/// blow the <5% enabled-sink overhead budget. The gate is a pure
/// function of the program (op counts are data-independent), so gated
/// streams stay identical across executions of the same program.
pub const ROUND_OBS_MIN_OPS: usize = 64;

/// Minimum total operations in a lowered program before the kernel and
/// vertical executors emit a *sort-grain* span for a single-vector run.
/// A span costs two sink dispatches plus two clock reads (~hundreds of
/// nanoseconds) — a fixed floor that would exceed the <5% enabled-sink
/// budget on programs that sort in single-digit microseconds (cube³:
/// 558 ops, ~1.6µs; Petersen²: 4050 ops). Above the gate the span is
/// noise: K2⁹ (60k ops) runs for hundreds of microseconds. Batch entry
/// points keep their spans unconditionally — one span amortized over
/// ≥16 lanes is always under budget. The serial interpreter also
/// keeps unconditional sort spans: it is the debuggable tier, and
/// interpretation dwarfs the span cost. Like [`ROUND_OBS_MIN_OPS`], the
/// gate depends only on the program, so a given program's event stream
/// shape is execution-independent.
pub const SORT_OBS_MIN_OPS: usize = 8192;

/// Distinguishes span identities process-wide (0 is "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost-last stack of open span ids on this thread; the top is
    /// the parent of the next span opened here.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The execution tier a span is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Serial validated interpreter (`BspMachine::run`).
    Serial,
    /// Flat structure-of-arrays kernel (`run_kernel*`).
    Kernel,
    /// Bit-sliced vertical tier (`run_vertical_*`).
    Vertical,
    /// Fault-injecting checkpoint/retry executors.
    Fault,
    /// Program cache: compilation and lowering.
    Cache,
}

impl Tier {
    /// Wire code for the flat event field. Codes never change, so old
    /// streams still decode; code 2 is retired and decodes to no tier.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            Tier::Serial => 1,
            Tier::Kernel => 3,
            Tier::Vertical => 4,
            Tier::Fault => 5,
            Tier::Cache => 6,
        }
    }

    /// Inverse of [`Tier::code`]; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u64) -> Option<Tier> {
        Some(match code {
            1 => Tier::Serial,
            3 => Tier::Kernel,
            4 => Tier::Vertical,
            5 => Tier::Fault,
            6 => Tier::Cache,
            _ => return None,
        })
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Serial => "serial",
            Tier::Kernel => "kernel",
            Tier::Vertical => "vertical",
            Tier::Fault => "fault",
            Tier::Cache => "cache",
        }
    }
}

/// What the tier was doing during the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// One full single-vector execution of a program.
    Sort,
    /// One batch dispatch (many vectors through one program).
    Batch,
    /// One synchronous round (only rounds with at least
    /// [`ROUND_OBS_MIN_OPS`] operations get their own span).
    Round,
    /// Static program validation.
    Validate,
    /// Compiling a program from scratch (cache miss).
    Compile,
    /// Lowering a compiled program to the flat kernel tier.
    LowerKernel,
    /// Committing a lowered kernel to the bit-sliced vertical layout.
    LowerVertical,
}

impl Stage {
    /// Wire code for the flat event field.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            Stage::Sort => 1,
            Stage::Batch => 2,
            Stage::Round => 3,
            Stage::Validate => 4,
            Stage::Compile => 5,
            Stage::LowerKernel => 6,
            Stage::LowerVertical => 7,
        }
    }

    /// Inverse of [`Stage::code`]; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u64) -> Option<Stage> {
        Some(match code {
            1 => Stage::Sort,
            2 => Stage::Batch,
            3 => Stage::Round,
            4 => Stage::Validate,
            5 => Stage::Compile,
            6 => Stage::LowerKernel,
            7 => Stage::LowerVertical,
            _ => return None,
        })
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Sort => "sort",
            Stage::Batch => "batch",
            Stage::Round => "round",
            Stage::Validate => "validate",
            Stage::Compile => "compile",
            Stage::LowerKernel => "lower_kernel",
            Stage::LowerVertical => "lower_vertical",
        }
    }
}

/// Round class of a round span; `None` for non-round spans and for
/// tiers that do not classify rounds (the interpreter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanClass {
    /// Not a classified round.
    None,
    /// An empty (elided) round.
    Empty,
    /// A pure compare-exchange round.
    Compare,
    /// A routing round (moves and resolves).
    Route,
}

impl SpanClass {
    /// Wire code for the flat event field.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            SpanClass::None => 0,
            SpanClass::Empty => 1,
            SpanClass::Compare => 2,
            SpanClass::Route => 3,
        }
    }

    /// Inverse of [`SpanClass::code`]; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u64) -> Option<SpanClass> {
        Some(match code {
            0 => SpanClass::None,
            1 => SpanClass::Empty,
            2 => SpanClass::Compare,
            3 => SpanClass::Route,
            _ => return None,
        })
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanClass::None => "-",
            SpanClass::Empty => "empty",
            SpanClass::Compare => "compare",
            SpanClass::Route => "route",
        }
    }
}

struct ActiveSpan {
    logger: EventLogger,
    id: u64,
    start: Instant,
}

/// RAII handle for an open span: dropping it stamps the matching
/// `SpanExit` with the elapsed nanoseconds. Inert (a single branch)
/// when created from a disabled logger.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing"]
#[derive(Default)]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// The span's id, or 0 for an inert guard.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.id)
    }

    /// `true` iff this guard will emit a `SpanExit` on drop.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let dur_ns = u64::try_from(active.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // `try_with`: guards may drop during thread teardown, after the
        // stack's own destructor ran.
        let _ = SPAN_STACK.try_with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else {
                // Out-of-order drop (guards stored in a struct, say):
                // remove this span wherever it sits.
                stack.retain(|&id| id != active.id);
            }
        });
        active.logger.log(|| Event::SpanExit {
            span: active.id,
            dur_ns,
        });
    }
}

impl EventLogger {
    /// Open a span at `(tier, stage, class)`: stamps a `SpanEnter`
    /// parented to the innermost span open on this thread and returns
    /// the guard whose drop stamps the `SpanExit`. On a disabled logger
    /// this is one branch — no clock read, no event, no allocation.
    pub fn span(&self, tier: Tier, stage: Stage, class: SpanClass) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard(None);
        }
        self.span_always(tier, stage, class)
    }

    /// [`EventLogger::span`] gated on `cond`: the executors use this to
    /// open round-grain spans only above [`ROUND_OBS_MIN_OPS`].
    pub fn span_if(&self, cond: bool, tier: Tier, stage: Stage, class: SpanClass) -> SpanGuard {
        if !cond || !self.is_enabled() {
            return SpanGuard(None);
        }
        self.span_always(tier, stage, class)
    }

    fn span_always(&self, tier: Tier, stage: Stage, class: SpanClass) -> SpanGuard {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK
            .try_with(|stack| {
                let mut stack = stack.borrow_mut();
                let parent = stack.last().copied().unwrap_or(0);
                stack.push(id);
                parent
            })
            .unwrap_or(0);
        self.log(|| Event::SpanEnter {
            span: id,
            parent,
            tier: tier.code(),
            stage: stage.code(),
            class: class.code(),
        });
        SpanGuard(Some(ActiveSpan {
            logger: self.clone(),
            id,
            start: Instant::now(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimedEvent;
    use crate::sink::MemorySink;

    fn spans_of(events: &[TimedEvent]) -> Vec<Event> {
        events
            .iter()
            .map(|e| e.event)
            .filter(|e| matches!(e, Event::SpanEnter { .. } | Event::SpanExit { .. }))
            .collect()
    }

    #[test]
    fn disabled_logger_returns_an_inert_guard() {
        let logger = EventLogger::disabled();
        let guard = logger.span(Tier::Kernel, Stage::Sort, SpanClass::None);
        assert!(!guard.is_active());
        assert_eq!(guard.id(), 0);
        drop(guard);
        assert_eq!(logger.buffered_len(), 0);
    }

    #[test]
    fn spans_nest_and_carry_durations() {
        let (sink, reader) = MemorySink::with_capacity(64);
        let logger = EventLogger::new(Box::new(sink));
        {
            let outer = logger.span(Tier::Kernel, Stage::Sort, SpanClass::None);
            assert!(outer.is_active());
            {
                let inner = logger.span(Tier::Kernel, Stage::Round, SpanClass::Compare);
                assert!(inner.id() > 0);
                assert_ne!(inner.id(), outer.id());
            }
        }
        logger.flush();
        let events = spans_of(&reader.events());
        assert_eq!(events.len(), 4);
        let (outer_id, inner_id) = match (events[0], events[1]) {
            (
                Event::SpanEnter {
                    span: o, parent: 0, ..
                },
                Event::SpanEnter {
                    span: i, parent: p, ..
                },
            ) => {
                assert_eq!(p, o, "inner span must be parented to the outer");
                (o, i)
            }
            other => panic!("unexpected opening events {other:?}"),
        };
        match (events[2], events[3]) {
            (Event::SpanExit { span: a, .. }, Event::SpanExit { span: b, .. }) => {
                assert_eq!(a, inner_id, "inner closes first");
                assert_eq!(b, outer_id);
            }
            other => panic!("unexpected closing events {other:?}"),
        }
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let (sink, reader) = MemorySink::with_capacity(64);
        let logger = EventLogger::new(Box::new(sink));
        {
            let root = logger.span(Tier::Serial, Stage::Sort, SpanClass::None);
            let root_id = root.id();
            for _ in 0..2 {
                let _round = logger.span(Tier::Serial, Stage::Round, SpanClass::None);
            }
            drop(root);
            assert!(root_id > 0);
        }
        logger.flush();
        let parents: Vec<u64> = reader
            .events()
            .iter()
            .filter_map(|e| match e.event {
                Event::SpanEnter {
                    parent, stage: s, ..
                } if s == Stage::Round.code() => Some(parent),
                _ => None,
            })
            .collect();
        assert_eq!(parents.len(), 2);
        assert_eq!(parents[0], parents[1]);
        assert_ne!(parents[0], 0);
    }

    #[test]
    fn out_of_order_drop_keeps_the_stack_consistent() {
        let (sink, reader) = MemorySink::with_capacity(64);
        let logger = EventLogger::new(Box::new(sink));
        let a = logger.span(Tier::Cache, Stage::Compile, SpanClass::None);
        let b = logger.span(Tier::Cache, Stage::LowerKernel, SpanClass::None);
        drop(a); // out of order: `a` still has `b` above it on the stack
        let c = logger.span(Tier::Cache, Stage::LowerVertical, SpanClass::None);
        let (b_id, c_id) = (b.id(), c.id());
        drop(c);
        drop(b);
        logger.flush();
        // `c` opened after `a` died; its parent must be `b`, the only
        // span still open.
        let c_parent = reader
            .events()
            .iter()
            .find_map(|e| match e.event {
                Event::SpanEnter { span, parent, .. } if span == c_id => Some(parent),
                _ => None,
            })
            .expect("c was recorded");
        assert_eq!(c_parent, b_id);
    }

    #[test]
    fn codes_round_trip() {
        for tier in [
            Tier::Serial,
            Tier::Kernel,
            Tier::Vertical,
            Tier::Fault,
            Tier::Cache,
        ] {
            assert_eq!(Tier::from_code(tier.code()), Some(tier));
            assert!(!tier.name().is_empty());
        }
        // The retired code decodes to no tier.
        assert_eq!(Tier::from_code(2), None);
        for stage in [
            Stage::Sort,
            Stage::Batch,
            Stage::Round,
            Stage::Validate,
            Stage::Compile,
            Stage::LowerKernel,
            Stage::LowerVertical,
        ] {
            assert_eq!(Stage::from_code(stage.code()), Some(stage));
            assert!(!stage.name().is_empty());
        }
        for class in [
            SpanClass::None,
            SpanClass::Empty,
            SpanClass::Compare,
            SpanClass::Route,
        ] {
            assert_eq!(SpanClass::from_code(class.code()), Some(class));
            assert!(!class.name().is_empty());
        }
        assert_eq!(Tier::from_code(99), None);
        assert_eq!(Stage::from_code(99), None);
        assert_eq!(SpanClass::from_code(99), None);
    }
}
