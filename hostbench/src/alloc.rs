//! Host-layer probes: a counting global allocator and the process's peak
//! resident memory.
//!
//! Every allocation in the process is counted except those made by a
//! thread while it is marked *excluded*. The benchmark's own thread runs
//! excluded and re-enables counting only around its calls into the
//! program, so the counts cover the program (its calls plus its worker
//! threads) and not the benchmark's bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The counting allocator; install with `#[global_allocator]`.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    // `try_with` fails only while the thread is being torn down; those
    // allocations are counted.
    if !EXCLUDED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// relaxed atomics and the thread-local flag is a const-initialised `Cell`
// that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation count and bytes requested so far (counted threads only).
pub fn counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

/// Mark the calling thread's allocations as uncounted (`true`) or counted.
pub fn exclude_thread(excluded: bool) {
    EXCLUDED.with(|e| e.set(excluded));
}

/// Run `f` with the calling thread's allocations counted, then exclude the
/// thread again. Wrap every call into the program with this.
pub fn counted<T>(f: impl FnOnce() -> T) -> T {
    exclude_thread(false);
    let out = f();
    exclude_thread(true);
    out
}

/// Peak resident set size (`VmHWM`) in MiB, read from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
