//! Process and host counters read from `/proc`, and the counting
//! allocator the traced binary installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Linux reports `/proc/*/stat` CPU times in `USER_HZ` ticks, which is
/// 100 on every architecture the kernel exposes to user space.
const TICKS_PER_SEC: u64 = 100;

/// Process CPU time (all threads, exited ones included), in
/// nanoseconds, split into user and system time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cpu {
    /// User-mode time (tick resolution, from `/proc/self/stat`).
    pub user_ns: u64,
    /// Kernel-mode time (tick resolution, from `/proc/self/stat`).
    pub sys_ns: u64,
    /// User plus kernel time at nanosecond resolution.
    pub total_ns: u64,
}

impl Cpu {
    /// `self - earlier`, per field.
    #[must_use]
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_ns: self.user_ns.saturating_sub(earlier.user_ns),
            sys_ns: self.sys_ns.saturating_sub(earlier.sys_ns),
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
        }
    }

    /// Field-wise sum.
    #[must_use]
    pub fn plus(self, other: Cpu) -> Cpu {
        Cpu {
            user_ns: self.user_ns + other.user_ns,
            sys_ns: self.sys_ns + other.sys_ns,
            total_ns: self.total_ns + other.total_ns,
        }
    }

    /// Share of the time spent in the kernel.
    #[must_use]
    pub fn sys_share(self) -> f64 {
        let ticks = self.user_ns + self.sys_ns;
        if ticks == 0 {
            0.0
        } else {
            self.sys_ns as f64 / ticks as f64
        }
    }
}

/// This process's CPU time: the user/system split from
/// `/proc/self/stat` (fields 14 and 15, in ticks) and the total from
/// `CLOCK_PROCESS_CPUTIME_ID` (nanoseconds). Zeros where unavailable.
#[must_use]
pub fn process_cpu() -> Cpu {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis start at field 3 (state).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let to_ns = |t: u64| t * (1_000_000_000 / TICKS_PER_SEC);
    let (user_ns, sys_ns) = (to_ns(ticks(11)), to_ns(ticks(12)));
    Cpu {
        user_ns,
        sys_ns,
        total_ns: cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID).unwrap_or(user_ns + sys_ns),
    }
}

/// The calling thread's CPU time (`CLOCK_THREAD_CPUTIME_ID`), in
/// nanoseconds; zero where unavailable.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID).unwrap_or(0)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ns(clock_id: i32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; an unknown clock
    // id only makes the call fail with EINVAL.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then_some(secs * 1_000_000_000 + nanos)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_ns(_clock_id: i32) -> Option<u64> {
    None
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or(0);
    {
        kib as f64 / 1024.0
    }
}

/// Host-wide CPU jiffies from the `cpu` line of `/proc/stat`: the total
/// over user..steal and the hypervisor-steal part.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    total: u64,
    steal: u64,
}

impl HostTicks {
    /// Read the current counters (zero where unavailable).
    #[must_use]
    pub fn now() -> HostTicks {
        let line = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_owned))
            .unwrap_or_default();
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostTicks {
            total: v.iter().sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    #[must_use]
    pub fn steal_share_since(self, earlier: HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        let steal = self.steal.saturating_sub(earlier.steal);
        if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        }
    }
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocations made so far through [`CountingAlloc`] (zero in a binary
/// that does not install it).
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The system allocator plus a count of allocation calls. The traced
/// binary installs it as the global allocator; the untraced one does
/// not, so end-to-end timings carry no counting cost.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the relaxed counter
// increment touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` guarantees pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_counters_move_forward() {
        let a = process_cpu();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let b = process_cpu();
        assert!(b.total_ns > a.total_ns, "{a:?} {b:?}");
        let t = thread_cpu_ns();
        assert!(t > 0 && t <= b.total_ns, "{t} {b:?}");
        assert!(peak_rss_mib() > 0.0);
        let t = HostTicks::now();
        assert!((0.0..=1.0).contains(&t.steal_share_since(HostTicks::default())));
    }
}
