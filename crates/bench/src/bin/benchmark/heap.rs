//! Live and peak heap bytes of the process, counted by the global
//! allocator. Unlike `VmHWM`, whose file-backed part moves with the page
//! cache and whose anonymous part moves with malloc's per-thread arenas,
//! the peak of live heap bytes is a property of the program: the same
//! campaign allocates the same buffers in every process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, with live and peak bytes counted.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only read the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Start a new peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test binary runs on this allocator too (see main.rs), so the
    /// peak sees a buffer allocated after the reset. Other tests may
    /// allocate concurrently, which can only raise the peak.
    #[test]
    fn peak_covers_a_buffer_allocated_after_reset() {
        reset_peak();
        let buf = std::hint::black_box(vec![1u8; 4 << 20]);
        assert!(peak_mib() >= 4.0, "peak {} MiB", peak_mib());
        drop(buf);
    }
}
