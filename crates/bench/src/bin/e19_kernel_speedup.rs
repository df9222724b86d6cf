//! Experiment binary: prints the e19_kernel_speedup report and writes
//! the measured rows to `BENCH_e19_kernel.json` (nightly CI uploads it
//! as an artifact so kernel-vs-interpreter timings are tracked over
//! time).
//!
//! This binary installs a counting `#[global_allocator]`, so the report
//! also proves the kernel tier's zero-allocation claim: warm
//! `run_kernel` calls must not touch the heap at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() {
    use pns_bench::experiments::e19_kernel_speedup::{collect, report_from_rows, REPS};
    let rows = collect(Some(allocations), REPS);
    let report = report_from_rows(&rows, REPS);
    println!("{}", report.to_markdown());
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    std::fs::write("BENCH_e19_kernel.json", json).expect("write BENCH_e19_kernel.json");
    eprintln!("wrote BENCH_e19_kernel.json ({} configs)", rows.len());
    assert!(report.all_match, "experiment reported a mismatch");
}
