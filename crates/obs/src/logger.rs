//! The logging handle: cheap to clone, free when disabled.
//!
//! An [`EventLogger`] is either *disabled* (a `None` core — logging is a
//! single branch, the event closure is never called, nothing is
//! allocated) or *enabled* (an `Arc` around the sink plus a shared
//! epoch). Enabled loggers buffer events **per thread** and drain whole
//! batches into the sink, so hot loops never contend on the sink lock;
//! this is the timely-dataflow logging shape, adapted to scoped worker
//! threads that are born and die inside a single batch call
//! (buffers flush on thread exit via a thread-local `Drop`).

use crate::event::{Event, TimedEvent};
use crate::sink::Sink;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Buffered events per thread before a drain to the sink.
const FLUSH_AT: usize = 256;

/// Distinguishes logger instances in the thread-local buffer registry.
static NEXT_LOGGER_ID: AtomicU64 = AtomicU64::new(1);

struct LoggerCore {
    id: u64,
    epoch: Instant,
    sink: Mutex<Box<dyn Sink>>,
}

impl LoggerCore {
    fn ingest(&self, events: &[TimedEvent]) {
        if events.is_empty() {
            return;
        }
        // Recover from poisoning: sinks are passive collectors, and the
        // flush-on-panic path must not double-panic on a lock a dying
        // thread poisoned.
        let mut sink = match self.sink.lock() {
            Ok(sink) => sink,
            Err(poisoned) => poisoned.into_inner(),
        };
        sink.record(events);
    }
}

/// A handle for emitting [`Event`]s. Clones share the same sink and
/// epoch. See the module docs for the enabled/disabled split.
#[derive(Clone, Default)]
pub struct EventLogger {
    core: Option<Arc<LoggerCore>>,
}

impl std::fmt::Debug for EventLogger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.core {
            Some(core) => write!(f, "EventLogger(enabled, id={})", core.id),
            None => write!(f, "EventLogger(disabled)"),
        }
    }
}

impl EventLogger {
    /// The no-op logger: [`EventLogger::log`] is one branch, the event
    /// closure never runs, no buffer is touched.
    #[must_use]
    pub fn disabled() -> Self {
        EventLogger { core: None }
    }

    /// A logger draining into `sink`.
    #[must_use]
    pub fn new(sink: Box<dyn Sink>) -> Self {
        EventLogger {
            core: Some(Arc::new(LoggerCore {
                id: NEXT_LOGGER_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                sink: Mutex::new(sink),
            })),
        }
    }

    /// A logger selected by the `PNS_OBS` environment variable
    /// (`jsonl[:path]` | `summary` | `profile[:path]` | `prom[:path]` |
    /// `off`/unset); disabled when the variable selects no sink. Unknown
    /// directives are reported on stderr and treated as `off`; use
    /// [`EventLogger::try_from_env`] for the typed error.
    #[must_use]
    pub fn from_env(label: &str) -> Self {
        match crate::sink::from_env(label) {
            Some(sink) => EventLogger::new(sink),
            None => EventLogger::disabled(),
        }
    }

    /// Like [`EventLogger::from_env`], but surfaces a malformed
    /// `PNS_OBS` value as a typed [`crate::DirectiveError`] instead of
    /// logging and falling back to disabled.
    pub fn try_from_env(label: &str) -> Result<Self, crate::sink::DirectiveError> {
        Ok(match crate::sink::try_from_env(label)? {
            Some(sink) => EventLogger::new(sink),
            None => EventLogger::disabled(),
        })
    }

    /// `true` iff events are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Record the event produced by `f`, stamped with nanoseconds since
    /// the logger's creation. Disabled loggers return without calling
    /// `f`, so callers may compute event fields inside the closure at
    /// no cost when tracing is off.
    #[inline]
    pub fn log(&self, f: impl FnOnce() -> Event) {
        let Some(core) = &self.core else { return };
        let stamped = TimedEvent {
            t_ns: u64::try_from(core.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            event: f(),
        };
        let full = BUFFERS.with(|buffers| {
            buffers
                .borrow_mut()
                .push(core.id, Arc::downgrade(core), stamped)
        });
        if let Some(batch) = full {
            core.ingest(&batch);
        }
    }

    /// Drain the calling thread's buffer into the sink. Buffers on
    /// *other* live threads stay put until they fill, their thread
    /// exits, or they call `flush` themselves.
    pub fn flush(&self) {
        let Some(core) = &self.core else { return };
        let batch = BUFFERS.with(|buffers| buffers.borrow_mut().take(core.id));
        core.ingest(&batch);
    }

    /// Flush the calling thread, then tell the sink the stream is
    /// complete (e.g. the summary sink prints its table). Safe to call
    /// more than once; sinks decide what repeat finishes mean.
    pub fn finish(&self) {
        let Some(core) = &self.core else { return };
        self.flush();
        let mut sink = match core.sink.lock() {
            Ok(sink) => sink,
            Err(poisoned) => poisoned.into_inner(),
        };
        sink.finish();
    }

    /// Events currently buffered on the calling thread for this logger
    /// (0 for a disabled logger). Test introspection.
    #[must_use]
    pub fn buffered_len(&self) -> usize {
        let Some(core) = &self.core else { return 0 };
        BUFFERS.with(|buffers| buffers.borrow().len(core.id))
    }
}

impl Drop for EventLogger {
    /// Flush the calling thread's buffer when this handle is dropped
    /// while unwinding (so a panicking sort still lands its buffered
    /// events in the sink) or when it is the last handle to the core
    /// (so a logger going out of scope leaves nothing stranded on its
    /// own thread). Never calls `finish` — sinks that print on finish
    /// must not fire from a destructor.
    fn drop(&mut self) {
        let Some(core) = &self.core else { return };
        if !std::thread::panicking() && Arc::strong_count(core) > 1 {
            return;
        }
        // `try_with`/`try_borrow_mut`: this can run during thread
        // teardown or mid-unwind; failing to flush is better than a
        // double panic (= abort).
        let batch = BUFFERS
            .try_with(|buffers| {
                buffers
                    .try_borrow_mut()
                    .map(|mut b| b.take(core.id))
                    .unwrap_or_default()
            })
            .unwrap_or_default();
        core.ingest(&batch);
    }
}

/// Per-thread buffers, one slot per live logger this thread has logged
/// to. On thread exit the registry drops and flushes every slot whose
/// logger is still alive — this is what makes short-lived scoped worker
/// threads (the batch executor's lanes) lose no events.
struct ThreadBuffers {
    slots: Vec<Slot>,
}

struct Slot {
    id: u64,
    core: Weak<LoggerCore>,
    events: Vec<TimedEvent>,
}

impl ThreadBuffers {
    /// Append to the slot for logger `id`; returns the drained batch
    /// when the buffer hits [`FLUSH_AT`] (the caller ingests it outside
    /// the thread-local borrow, since sinks may run arbitrary code).
    fn push(
        &mut self,
        id: u64,
        core: Weak<LoggerCore>,
        event: TimedEvent,
    ) -> Option<Vec<TimedEvent>> {
        // Dead slots are reaped lazily here, not on every push.
        if self.slots.iter().all(|s| s.id != id) {
            self.slots.retain(|s| s.core.strong_count() > 0);
            self.slots.push(Slot {
                id,
                core,
                events: Vec::with_capacity(FLUSH_AT),
            });
        }
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.id == id)
            .expect("slot just ensured");
        slot.events.push(event);
        if slot.events.len() >= FLUSH_AT {
            Some(std::mem::take(&mut slot.events))
        } else {
            None
        }
    }

    fn take(&mut self, id: u64) -> Vec<TimedEvent> {
        self.slots
            .iter_mut()
            .find(|s| s.id == id)
            .map(|s| std::mem::take(&mut s.events))
            .unwrap_or_default()
    }

    fn len(&self, id: u64) -> usize {
        self.slots
            .iter()
            .find(|s| s.id == id)
            .map_or(0, |s| s.events.len())
    }
}

impl Drop for ThreadBuffers {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(core) = slot.core.upgrade() {
                core.ingest(&slot.events);
            }
        }
    }
}

thread_local! {
    static BUFFERS: RefCell<ThreadBuffers> = const { RefCell::new(ThreadBuffers { slots: Vec::new() }) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_logger_never_runs_the_closure_or_buffers() {
        let logger = EventLogger::disabled();
        assert!(!logger.is_enabled());
        let mut called = false;
        logger.log(|| {
            called = true;
            Event::RoundEnd { round: 0 }
        });
        assert!(!called, "closure must not run when disabled");
        assert_eq!(logger.buffered_len(), 0);
        logger.flush();
        logger.finish();
    }

    #[test]
    fn events_buffer_then_flush_in_order() {
        let (sink, reader) = MemorySink::with_capacity(1024);
        let logger = EventLogger::new(Box::new(sink));
        assert!(logger.is_enabled());
        for round in 0..10 {
            logger.log(|| Event::RoundEnd { round });
        }
        assert_eq!(logger.buffered_len(), 10);
        assert!(reader.is_empty(), "nothing drains before flush");
        logger.flush();
        assert_eq!(logger.buffered_len(), 0);
        let rounds: Vec<u64> = reader
            .events()
            .iter()
            .map(|e| match e.event {
                Event::RoundEnd { round } => round,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(rounds, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn full_buffers_drain_automatically() {
        let (sink, reader) = MemorySink::with_capacity(4 * FLUSH_AT);
        let logger = EventLogger::new(Box::new(sink));
        let total = FLUSH_AT as u64 + 3;
        for round in 0..total {
            logger.log(|| Event::RoundEnd { round });
        }
        assert_eq!(reader.len(), FLUSH_AT, "one full batch drained");
        assert_eq!(logger.buffered_len(), 3);
        logger.flush();
        assert_eq!(reader.len() as u64, total);
    }

    #[test]
    fn worker_thread_buffers_flush_on_thread_exit() {
        let (sink, reader) = MemorySink::with_capacity(1024);
        let logger = EventLogger::new(Box::new(sink));
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u64)
                .map(|lane| {
                    let logger = logger.clone();
                    scope.spawn(move || {
                        for _ in 0..5 {
                            logger.log(|| Event::S2Unit {
                                units: 1,
                                width: lane,
                            });
                        }
                        // No explicit flush: the thread-local Drop must do it.
                    })
                })
                .collect();
            // Joining a handle waits for its thread to exit, thread-local
            // destructors included; the scope's own wait only waits for
            // the closures to return, so a buffer could still be unflushed.
            for worker in workers {
                worker.join().expect("worker finishes");
            }
        });
        assert_eq!(reader.len(), 20, "all worker events survive thread death");
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let (sink, reader) = MemorySink::with_capacity(1024);
        let logger = EventLogger::new(Box::new(sink));
        for round in 0..50 {
            logger.log(|| Event::RoundEnd { round });
        }
        logger.flush();
        let stamps: Vec<u64> = reader.events().iter().map(|e| e.t_ns).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    }

    #[test]
    fn last_handle_drop_flushes_without_finishing() {
        let (sink, reader) = MemorySink::with_capacity(1024);
        let logger = EventLogger::new(Box::new(sink));
        logger.log(|| Event::RoundEnd { round: 7 });
        assert!(reader.is_empty());
        drop(logger);
        assert_eq!(
            reader.len(),
            1,
            "dropping the last handle drains the buffer"
        );
    }

    #[test]
    fn clones_share_one_stream() {
        let (sink, reader) = MemorySink::with_capacity(1024);
        let logger = EventLogger::new(Box::new(sink));
        let clone = logger.clone();
        logger.log(|| Event::RoundEnd { round: 1 });
        clone.log(|| Event::RoundEnd { round: 2 });
        logger.flush();
        assert_eq!(reader.len(), 2);
        assert!(format!("{logger:?}").contains("enabled"));
        assert!(format!("{:?}", EventLogger::disabled()).contains("disabled"));
    }
}
