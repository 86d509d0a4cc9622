//! Thread-local heap-allocation metering for benches and tests.
//!
//! [`CountingAllocator`] wraps the system allocator and charges every
//! allocation's size to a thread-local counter. Nothing registers it here
//! — a library must never change a host program's allocator. A bench or
//! test binary that wants per-event allocation numbers opts in:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rcv_allocmeter::CountingAllocator = CountingAllocator;
//! ```
//!
//! and then brackets the code under measurement with [`take`]. Binaries
//! that don't register it pay nothing and read zeros; when registered, the
//! overhead is one thread-local add per allocation — small enough that the
//! throughput bench keeps it live for its events/sec numbers too.
//!
//! Counters are per-thread: the deterministic engine is single-threaded,
//! so a run's charge is exactly what the driving thread allocated, with no
//! cross-talk from concurrently running test threads.
//!
//! The workspace has `unsafe` code in exactly two places: this crate (the
//! `GlobalAlloc` impl cannot be written without it) and the one `ppoll`
//! call in `rcv-runtime`'s `transport::readiness` module. Every other
//! protocol crate keeps `#![forbid(unsafe_code)]`, which is why this
//! lives in its own leaf crate used by bench/test binaries only.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// (bytes requested, allocation calls) charged on this thread.
    /// Const-initialized so the first access inside `alloc` itself cannot
    /// recurse into the allocator.
    static CHARGED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

#[inline]
fn charge(bytes: usize) {
    // `try_with`: allocations during thread teardown (after TLS
    // destruction) must not panic — they just go unmetered.
    let _ = CHARGED.try_with(|c| {
        let (b, n) = c.get();
        c.set((b + bytes as u64, n + 1));
    });
}

/// Allocation stats harvested by [`take`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Total bytes requested from the allocator. A growing `realloc`
    /// charges only the growth; shrinks charge nothing.
    pub bytes: u64,
    /// Number of charging calls (alloc/alloc_zeroed/growing realloc).
    pub count: u64,
}

/// Returns the allocation stats charged on this thread since the last
/// `take` (or thread start) and resets them to zero. Reads zeros unless
/// the binary registered [`CountingAllocator`].
pub fn take() -> AllocStats {
    CHARGED
        .try_with(|c| {
            let (bytes, count) = c.replace((0, 0));
            AllocStats { bytes, count }
        })
        .unwrap_or_default()
}

/// A [`System`]-backed allocator that meters per-thread allocation volume.
/// See the crate docs for how (and when) to register it.
pub struct CountingAllocator;

// SAFETY: every method defers verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around the calls never allocates
// (const-initialized TLS `Cell`), so there is no reentrancy.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // This test binary does not register the allocator, so `take` must be
    // well-defined (all zeros) rather than garbage.
    #[test]
    fn unregistered_take_is_zero() {
        take();
        let v: Vec<u64> = (0..1024).collect();
        std::hint::black_box(&v);
        assert_eq!(take(), AllocStats::default());
    }

    #[test]
    fn charge_accumulates_and_take_resets() {
        take();
        charge(100);
        charge(28);
        assert_eq!(
            take(),
            AllocStats {
                bytes: 128,
                count: 2
            }
        );
        assert_eq!(take(), AllocStats::default());
    }
}
