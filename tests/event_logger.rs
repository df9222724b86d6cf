//! The event logger's crash guarantee, through its public API: events a
//! thread buffered before it panicked still reach the sink.

use product_sort::obs::{Event, EventLogger, MemorySink};

#[test]
fn buffered_events_survive_a_panic() {
    let (sink, reader) = MemorySink::with_capacity(1024);
    let logger = EventLogger::new(Box::new(sink));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let local = logger.clone();
        local.log(|| Event::RoundStart {
            round: 0,
            ops: 9,
            parallel: false,
        });
        assert_eq!(local.buffered_len(), 1);
        panic!("deliberate mid-sort failure");
    }));
    assert!(result.is_err());
    assert_eq!(
        reader.len(),
        1,
        "the clone dropped while unwinding must flush its thread buffer"
    );
}
