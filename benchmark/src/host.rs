//! What the benchmark does to the machine it runs on so that it measures
//! the program and not the host: it runs on one core, and keeps that core
//! from idling.
//!
//! The benchmark runs in a virtual machine on a shared host, and two
//! things about such a machine are not the program's.
//!
//! **Two virtual CPUs are not two cores.** Two busy threads of arithmetic
//! got between 1.0 and 1.4 cores' worth of work done between them on the
//! reference machine, one alone 0.8 to 0.95, from one minute to the next:
//! the host takes a virtual CPU away for milliseconds at a time, and more
//! often when both are busy. A program spread over both then waits, on one,
//! for a thread the host has stopped on the other — `agg_fine` ran between
//! 9 000 and 26 000 sub-requests a second within the same hour — and every
//! hand-off between threads crosses virtual CPUs at a price that doubles
//! and halves with where the host put them (`point_mixed` read a median of
//! 0.049 to 0.095 ms in ten runs on two, 0.049 to 0.054 on one). On one
//! virtual CPU the same threads take turns, nothing waits on a stopped
//! neighbour, and what is left of the host is the speed of that one core.
//! So [`pin_to_one_core`] confines the process, before it starts a thread,
//! to a single core. What that gives up is parallel speed-up, which this
//! machine cannot hold still long enough to measure.
//!
//! **An idle virtual CPU halts**, the host takes it away, and the next
//! thread to become runnable waits for the host to give it back — 20 µs
//! in one hour, over a millisecond in the next (`net.loopback.rtt_us` read
//! 1 610 µs without [`KeepAwake`] and 110 µs with it, minutes apart). A
//! spinning thread under the `SCHED_IDLE` policy keeps the core running,
//! the way a latency benchmark on bare metal disables C-states: such a
//! thread runs only when nothing else wants the core and is preempted the
//! moment anything does, so it takes no time from the program.

use crate::proc::{parse_cpu_ticks, CLK_TCK};
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// `struct sched_param` of `<sched.h>`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `SCHED_IDLE` of `<sched.h>` on Linux.
const SCHED_IDLE: i32 = 5;

/// Words of glibc's `cpu_set_t`: 1 024 CPUs.
const CPU_SET_WORDS: usize = 16;

// std links the C library, so these are there without a crate of
// bindings. On Linux a `pid` of 0 names the calling thread.
extern "C" {
    /// `sched_setscheduler(2)`.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    /// `sched_getaffinity(2)`.
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    /// `sched_setaffinity(2)`.
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread it or its descendants
/// start from now on, to the highest-numbered core it may run on (the
/// lowest takes most of a machine's interrupts). Returns that core, or
/// `None` where the kernel refuses, and the run then uses what cores it
/// has.
pub fn pin_to_one_core() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and the kernel writes no more than
    // that into it.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rfind(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is `bytes` long and only read.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Puts the calling thread under `SCHED_IDLE`. Lowering one's own priority
/// needs no privilege.
fn enter_sched_idle() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, correctly laid out `sched_param`, and the
    // call changes nothing but the scheduling policy of this thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The kernel's id of the calling thread, from where `/proc/thread-self`
/// points (`<pid>/task/<tid>`).
fn thread_id() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// One idle-priority spinner for each core the process may run on — one,
/// after [`pin_to_one_core`] — stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Kernel thread ids of the spinners.
    tids: Vec<u64>,
}

impl KeepAwake {
    /// Starts the spinners. One that cannot lower itself to `SCHED_IDLE`
    /// ends at once — at normal priority it would compete with the
    /// program — and is not counted.
    pub fn start() -> KeepAwake {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let threads: Vec<_> = (0..cores)
            .map(|_| {
                let (stop, tx) = (Arc::clone(&stop), tx.clone());
                std::thread::spawn(move || {
                    let tid = if enter_sched_idle() {
                        thread_id()
                    } else {
                        None
                    };
                    let spin = tid.is_some();
                    // `start` reads until every sender is gone, so this one
                    // must go before the spin, not at the end of the thread.
                    let _ = tx.send(tid);
                    drop(tx);
                    while spin && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        drop(tx);
        let tids = rx.iter().flatten().collect();
        KeepAwake {
            stop,
            threads,
            tids,
        }
    }

    /// How many spinners are running.
    pub fn spinners(&self) -> usize {
        self.tids.len()
    }

    /// The `/proc/self/task/<tid>/<file>` of every spinner.
    fn read_each(&self, file: &str) -> impl Iterator<Item = String> + '_ {
        let file = file.to_string();
        self.tids
            .iter()
            .filter_map(move |tid| fs::read_to_string(format!("/proc/self/task/{tid}/{file}")).ok())
    }

    /// CPU seconds the spinners have used so far, to be taken out of the
    /// process's: they are the benchmark's, not the program's.
    pub fn cpu_seconds(&self) -> f64 {
        let ticks: u64 = self
            .read_each("stat")
            .filter_map(|s| parse_cpu_ticks(&s))
            .sum();
        ticks as f64 / CLK_TCK
    }

    /// Context switches of the spinners so far — every time the program
    /// wanted the core — likewise to be taken out of the process's.
    pub fn ctx_switches(&self) -> u64 {
        self.read_each("status")
            .map(|s| crate::proc::switches_in(&s))
            .sum()
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner does nothing that can panic.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: pinning is for good, and must come first.
    #[test]
    fn one_core_and_a_spinner_on_it() {
        // Where the kernel refuses either there is nothing to test.
        let Some(core) = pin_to_one_core() else {
            return;
        };
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        // A thread started afterwards inherits the confinement.
        let seen = std::thread::spawn(pin_to_one_core).join().unwrap();
        assert_eq!(seen, Some(core));

        let awake = KeepAwake::start();
        if awake.spinners() == 0 {
            return;
        }
        assert_eq!(awake.spinners(), 1);
        // It gets the core whenever this thread gives it up.
        let t0 = std::time::Instant::now();
        while awake.cpu_seconds() == 0.0 && t0.elapsed().as_secs() < 5 {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(awake.cpu_seconds() > 0.0);
        assert!(awake.ctx_switches() > 0);
    }
}
