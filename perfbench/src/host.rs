//! What the benchmark reads about its own process and host: CPU time,
//! peak resident memory and per-thread run time, plus a fixed compute
//! loop that times the host's speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// The process-wide CPU clock: every thread, exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Process CPU time (user + system, all threads including exited ones)
/// in seconds, at nanosecond resolution.
pub fn cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the call only writes it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("status has a VmHWM line");
    kb / 1024.0
}

extern "C" {
    /// glibc: returns freed heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the heap memory freed so far to the kernel, then resets this
/// process's `VmHWM` to its current resident size (writing `5` to
/// `/proc/self/clear_refs`), so the next [`peak_rss_mb`] reads the peak
/// of what ran since over a baseline of live memory only, whatever
/// fragments earlier work left. Where the kernel refuses the reset, the
/// peak stays the one since the process started.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases free heap pages; no live
    // allocation moves.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Time on CPU, in nanoseconds, of every live thread of this process,
/// keyed by thread id (from `/proc/self/task/*/schedstat`).
pub fn thread_cpu_ns() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        // a thread can exit between the listing and the read
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        if let Some(ns) = text.split_whitespace().next().and_then(|v| v.parse().ok()) {
            out.insert(tid, ns);
        }
    }
    out
}

/// Milliseconds one fixed integer loop takes on this host right now: the
/// host-speed sentinel. It is recorded beside the other metrics so host
/// drift can be told apart from a program change, and it is never used to
/// scale or correct another metric. Median of five runs.
pub fn spin_ms() -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

/// Machine-wide CPU ticks stolen by the hypervisor and all ticks, from
/// the first line of `/proc/stat` (`0, 0` where it cannot be read). The
/// stolen share between two readings is a diagnostic like [`spin_ms`]:
/// time the host ran someone else on our virtual CPUs.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Polls the CPU time of threads that appear while it runs, so the load
/// of short-lived worker threads (a batch engine's workers exit when the
/// batch ends) is read while they are alive. Threads that existed when
/// the sampler started, and the sampler itself, are left out.
pub struct ThreadSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<BTreeMap<u64, u64>>,
}

impl ThreadSampler {
    /// Starts polling every `period`.
    pub fn start(period: std::time::Duration) -> ThreadSampler {
        use std::sync::atomic::{AtomicBool, Ordering};
        let before: Vec<u64> = thread_cpu_ns().into_keys().collect();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("perfbench-sampler".into())
            .spawn(move || {
                let own = own_tid();
                let mut last: BTreeMap<u64, u64> = BTreeMap::new();
                loop {
                    // read once more after the stop flag, so threads still
                    // alive at the end are read at their final value
                    let stopping = flag.load(Ordering::SeqCst);
                    for (tid, ns) in thread_cpu_ns() {
                        if !before.contains(&tid) && Some(tid) != own {
                            last.insert(tid, ns);
                        }
                    }
                    if stopping {
                        return last;
                    }
                    std::thread::sleep(period);
                }
            })
            .expect("spawn the thread sampler");
        ThreadSampler { stop, handle }
    }

    /// Stops polling and returns the last CPU time seen of every new
    /// thread, in thread-id (creation) order.
    pub fn finish(self) -> Vec<u64> {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle
            .join()
            .expect("the thread sampler does not panic")
            .into_values()
            .collect()
    }
}

/// Thread id of the calling thread.
fn own_tid() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_string_lossy().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let cpu = cpu_secs();
        let mut x = 0u64;
        for k in 0..10_000_000u64 {
            x = black_box(x.wrapping_add(k));
        }
        black_box(x);
        assert!(cpu_secs() > cpu, "the CPU clock advances");
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        assert!(!thread_cpu_ns().is_empty());
        assert!(spin_ms() > 0.0);
        let (steal, total) = steal_ticks();
        assert!(total > 0 && steal <= total);
    }

    #[test]
    fn peak_reset_forgets_a_freed_allocation() {
        let big = black_box(vec![1u8; 64 << 20]);
        let with_big = peak_rss_mb();
        drop(big);
        reset_peak_rss();
        assert!(
            peak_rss_mb() < with_big - 32.0,
            "{} vs {with_big}",
            peak_rss_mb()
        );
    }

    #[test]
    fn sampler_reads_threads_started_after_it() {
        let sampler = ThreadSampler::start(std::time::Duration::from_millis(1));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let mut x = 0u64;
            for k in 0..20_000_000u64 {
                x = black_box(x.wrapping_add(k));
            }
            rx.recv().expect("released by the test");
            x
        });
        // keep the worker alive until the sampler has read it at least once
        std::thread::sleep(std::time::Duration::from_millis(20));
        let seen = sampler.finish();
        tx.send(()).expect("worker waits");
        worker.join().expect("worker");
        // test-harness threads of other tests may appear too; the worker
        // burned well over a millisecond
        assert!(seen.iter().any(|&ns| ns > 1_000_000), "{seen:?}");
    }
}
