//! A counting global allocator: the bytes the process holds on the heap,
//! and their peak.
//!
//! The resident set (`VmHWM`) of one fleet round moved between 14 and
//! 21 MB from one input to the next with no change in the work: it follows
//! what the C allocator keeps, returns and fragments. The bytes the
//! program holds at once depend only on its allocations, which are a
//! deterministic function of its inputs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::c_int;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

const M_TRIM_THRESHOLD: c_int = -1;
const M_MMAP_THRESHOLD: c_int = -3;

/// Tells the C allocator to keep freed memory in the process: blocks up to
/// 32 MB come from the heap rather than their own mappings, and the heap is
/// never trimmed. On a shared virtual machine, unmapping memory and
/// faulting it back in cost up to twice as much at one moment as at the
/// next; kept in the process, that cost stays out of the timings. Returns
/// whether the allocator took both settings.
pub fn keep_freed_memory() -> bool {
    // SAFETY: `mallopt` takes two integers and touches only the allocator's
    // own settings; it is called before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
    }
}

/// The system allocator, counting live bytes.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // A load and a rare store: cheaper than `fetch_max` on every
    // allocation. Two threads raising the peak at once may keep the lower
    // of their two values; only `live_query` allocates on two threads.
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let pointer = System.alloc(layout);
        if !pointer.is_null() {
            grow(layout.size());
        }
        pointer
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let pointer = System.alloc_zeroed(layout);
        if !pointer.is_null() {
            grow(layout.size());
        }
        pointer
    }

    unsafe fn dealloc(&self, pointer: *mut u8, layout: Layout) {
        System.dealloc(pointer, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, pointer: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(pointer, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }
}

/// The most bytes the process has held on the heap at once since the
/// last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Starts a new peak from the bytes held now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_counts_a_large_allocation_until_reset() {
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        drop(block);
        assert!(peak_bytes() >= 64 << 20, "{}", peak_bytes());
        reset_peak();
        assert!(peak_bytes() < 64 << 20, "{}", peak_bytes());
    }
}
