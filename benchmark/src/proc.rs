//! What the operating system says about this process — CPU time, peak
//! resident memory, context switches, read from `/proc/self` — and a
//! counting allocator for the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Linux reports process times in clock ticks of `sysconf(_SC_CLK_TCK)`,
/// which is 100 on every mainstream kernel configuration; std offers no
/// way to ask, so the benchmark states the assumption here.
pub(crate) const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) consumed so far by all threads of this
/// process, at the kernel's 10 ms granularity. `0.0` where `/proc` is
/// not available.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map(|ticks| ticks as f64 / CLK_TCK)
        .unwrap_or(0.0)
}

/// utime + stime out of a `/proc/<pid>/stat` line. The command name
/// (field 2) may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub(crate) fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `Key:   123 kB`-style line of a `/proc/<pid>/status`
/// file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

/// Peak resident set size of the process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map(|kib| kib as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Voluntary plus involuntary context switches out of one thread's
/// `status` file.
pub(crate) fn switches_in(status: &str) -> u64 {
    status_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + status_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Context switches summed over the threads alive now
/// (`/proc/self/status` alone covers only the main thread). A thread that
/// has ended is gone from the sum, so a difference of two readings is
/// right only for threads alive at both.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| switches_in(&s))
        .sum()
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters that move only while
/// [`arm_alloc_counting`] is on. Disarmed it costs one relaxed load per
/// allocation, the same in every run.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[inline]
fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn arm_alloc_counting(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted while armed, since start.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_parse_past_a_hostile_command_name() {
        let line = "1234 (a b) c) R 1 2 3 4 5 6 7 8 9 10 700 55 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_cpu_ticks(line), Some(755));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM"), Some(20480));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(status, "VmPeak"), None);
    }

    #[test]
    fn this_process_has_used_memory_and_switched() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(ctx_switches() > 0);
    }
}
