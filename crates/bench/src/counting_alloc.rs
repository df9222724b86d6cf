//! A counting global allocator for allocation audits. It wraps the
//! system allocator and counts per thread: an audit reads
//! [`allocations`] before and after calls that run on the calling
//! thread, so the difference is exactly theirs, and an allocation on
//! another thread (a test harness's, a service worker's) cannot enter
//! it. The counter is a thread-local cell, so threads that allocate at
//! the same time never contend on it.
//!
//! A process opts in by installing it:
//!
//! ```
//! use pns_bench::counting_alloc::{allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let before = allocations();
//!     let keys = std::hint::black_box(vec![3u64, 1, 2]);
//!     assert_eq!(allocations() - before, 1);
//!     drop(keys);
//! }
//! ```
//!
//! Without it, [`allocations`] reads 0 forever.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each `alloc` and `realloc` on the
/// calling thread.
pub struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread. `const`-initialised and without
    /// drop glue, so reading it never allocates and never fails.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far on the calling thread.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
