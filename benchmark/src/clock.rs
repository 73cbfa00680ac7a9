//! Wall time and on-CPU time of the load-generating thread.
//!
//! The hosts this runs on are shared: in a busy hour the hypervisor runs
//! someone else on our core half of the time (`steal` in `/proc/stat`), and
//! the wall clock of an identical cell doubles. The kernel keeps each
//! thread's on-CPU nanoseconds with stolen time taken out
//! (`/proc/thread-self/schedstat`, first field), so cells are timed on both
//! clocks and gated on that one. Every workload is one closed loop on this
//! one thread at `threads = 1`, so on an idle machine the two agree.
//!
//! The kernel brings that counter up to date when the thread passes through
//! the scheduler — on a tick (4 ms apart here) or a context switch — not
//! when the file is read. `sched_yield` is such a pass, so each reading
//! yields first: with nothing else runnable it returns at once, and the
//! counter read next is exact (checked against `CLOCK_PROCESS_CPUTIME_ID`:
//! 946 vs 968 µs over a 1 ms loop, against 0 or 4000 µs without the yield).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::sync::OnceLock;
use std::time::Instant;

/// The main thread's schedstat, opened once: `thread-self` resolves at
/// open time, so the first caller must be the load-generating thread.
static SCHEDSTAT: OnceLock<Option<File>> = OnceLock::new();

/// Nanoseconds this thread has spent on a CPU, or `None` where the kernel
/// does not say (then callers fall back to the wall clock).
pub fn cpu_ns() -> Option<u64> {
    let mut file = SCHEDSTAT
        .get_or_init(|| File::open("/proc/thread-self/schedstat").ok())
        .as_ref()?;
    let mut buf = [0u8; 64];
    std::thread::yield_now();
    file.seek(SeekFrom::Start(0)).ok()?;
    let n = file.read(&mut buf).ok()?;
    let text = std::str::from_utf8(&buf[..n]).ok()?;
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// What a [`Stopwatch`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed {
    pub wall_ns: u64,
    /// On-CPU time; the wall time where the kernel keeps none.
    pub cpu_ns: u64,
}

pub struct Stopwatch {
    cpu: Option<u64>,
    wall: Instant,
}

impl Stopwatch {
    /// The CPU clock costs three system calls to read; it is read outermost,
    /// so the wall interval holds neither read.
    pub fn start() -> Self {
        let cpu = cpu_ns();
        Self {
            cpu,
            wall: Instant::now(),
        }
    }

    pub fn stop(&self) -> Elapsed {
        let wall_ns = self.wall.elapsed().as_nanos() as u64;
        let cpu_ns = match (self.cpu, cpu_ns()) {
            (Some(t0), Some(t1)) => t1.saturating_sub(t0),
            _ => wall_ns,
        };
        Elapsed { wall_ns, cpu_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let Some(t0) = cpu_ns() else {
            return; // no schedstat here: the wall-clock fallback applies
        };
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = sw.stop();
        assert!(slept.wall_ns >= 30_000_000);
        assert!(slept.cpu_ns < 15_000_000, "sleep counted as CPU: {slept:?}");

        let sw = Stopwatch::start();
        let mut x = 1u64;
        while sw.wall.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spun = sw.stop();
        // Exact to well under a tick: a 20 ms spin reads 20 ms, not 16 or 0.
        assert!(spun.cpu_ns > 1_000_000, "spin not counted: {spun:?}");
        assert!(spun.cpu_ns <= spun.wall_ns + 1_000_000, "{spun:?}");
        assert!(cpu_ns().unwrap() > t0);
    }
}
