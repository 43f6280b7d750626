//! The calling thread's CPU clock, and the host's speed against a fixed
//! calibration kernel.
//!
//! The benchmark runs on a few virtual cores of a shared host. There, the
//! wall clock of a CPU-bound call also counts the time the hypervisor ran
//! other guests on our core (steal) and the time other processes held it.
//! The thread CPU clock (`CLOCK_THREAD_CPUTIME_ID`) advances only while the
//! thread runs; on a kernel with paravirtual steal accounting it leaves
//! steal out too. What it leaves out as well is time the thread spends
//! blocked (on a lock, a sleep or the disk), which the wall-clock figures
//! of the traced run still show.
//!
//! The CPU clock does not stop the neighbours from slowing the core itself
//! (shared caches, memory bandwidth, a busy sibling hyperthread): the same
//! work took from one to two times as long within a minute. So each timed
//! piece of work is paired with a run of [`kernel`] on the same thread just
//! before it, and [`speed`] turns that into the factor that converts the
//! piece's CPU time into *reference seconds*: CPU seconds on a host where
//! the kernel takes [`REFERENCE`]. The kernel is the benchmark's own code
//! and never changes with the program.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has run so far.
pub fn now() -> Duration {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec`, and the clock
    // id is one every Linux kernel since 2.6.12 knows.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(time.tv_sec as u64, time.tv_nsec as u32)
}

/// CPU time of one [`kernel`] run on the reference host.
pub const REFERENCE: Duration = Duration::from_millis(1);

/// The calibration kernel's buffers, kept per thread so that after its
/// first run it allocates nothing: its time must not depend on what the
/// allocator kept or returned since the last run.
struct Workspace {
    source: Vec<u64>,
    values: Vec<u64>,
    index: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>>,
    text: String,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace {
        source: Vec::new(),
        values: Vec::new(),
        index: HashMap::default(),
        text: String::new(),
    });
}

const KERNEL_VALUES: usize = 20_000;
const KERNEL_KEYS: usize = 6_000;
const KERNEL_TEXT: usize = 2_000;

/// The calibration kernel: a fixed mix of the work the program does most
/// — copying, sorting, hashing, searching and formatting — over the same
/// pseudo-random numbers every time.
pub fn kernel() -> usize {
    WORKSPACE.with(|workspace| {
        let Workspace {
            source,
            values,
            index,
            text,
        } = &mut *workspace.borrow_mut();
        if source.is_empty() {
            let mut state = 0x9E37_79B9_7F4A_7C15_u64;
            source.extend((0..KERNEL_VALUES).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            }));
            values.reserve(KERNEL_VALUES);
            index.reserve(KERNEL_KEYS);
            text.reserve(1 << 16);
        }
        values.clear();
        values.extend_from_slice(source);
        values.sort_unstable();
        index.clear();
        for (position, &value) in source.iter().enumerate().take(KERNEL_KEYS) {
            index.insert(value, position);
        }
        let mut found: usize = source
            .iter()
            .step_by(3)
            .map(|value| index.get(value).copied().unwrap_or(1))
            .sum();
        for value in source.iter().step_by(3) {
            found += values.binary_search(value).unwrap_or(0);
        }
        text.clear();
        for value in source.iter().take(KERNEL_TEXT) {
            if text.len() > (1 << 16) - 32 {
                found += text.len();
                text.clear();
            }
            let _ = write!(text, "{value} ");
        }
        found.wrapping_add(text.len())
    })
}

/// Runs [`kernel`] three times on the calling thread and returns the
/// factor that turns CPU time measured on this thread now into reference
/// seconds, from the median run.
pub fn speed() -> f64 {
    let mut runs = [0.0; 3];
    for run in &mut runs {
        let (out, took) = timed(kernel);
        std::hint::black_box(out);
        *run = took.as_secs_f64();
    }
    runs.sort_by(f64::total_cmp);
    REFERENCE.as_secs_f64() / runs[1].max(1e-9)
}

/// Runs `body` and returns its result with the CPU time the calling thread
/// spent in it.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, Duration) {
    let started = now();
    let out = body();
    (out, now() - started)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cpu_clock_counts_work_and_not_sleep() {
        let ((), slept) = timed(|| std::thread::sleep(Duration::from_millis(50)));
        assert!(slept < Duration::from_millis(25), "sleep cost {slept:?}");
        let (sum, spun) = timed(|| {
            let started = std::time::Instant::now();
            let mut sum = 0u64;
            while started.elapsed() < Duration::from_millis(30) {
                sum = sum.wrapping_add(std::hint::black_box(1));
            }
            sum
        });
        assert!(sum > 0);
        assert!(spun > Duration::from_millis(5), "spin cost {spun:?}");
    }
}
