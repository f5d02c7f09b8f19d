//! A heap-allocation-counting global allocator for tests.
//!
//! The DSP hot path promises "no per-call allocation once warm" (see the
//! plan/scratch architecture in `hyperear-dsp`). That promise is only
//! enforceable if a test can *observe* allocator traffic, so this module
//! provides a [`CountingAllocator`]: a thin wrapper over [`System`] that
//! counts every `alloc`/`realloc` call. A test crate installs it with
//! `#[global_allocator]`, warms the code under test, snapshots the
//! counter, runs the steady-state path, and asserts the count did not
//! move.
//!
//! Counting uses relaxed atomics — the counter is a test instrument, not
//! a synchronization point — and the wrapper adds two instructions per
//! allocation, so installing it does not distort what it measures.
//!
//! # Example
//!
//! ```ignore
//! use hyperear_util::alloc_counter::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! #[test]
//! fn steady_state_is_allocation_free() {
//!     warm_up();
//!     let before = ALLOC.allocations();
//!     steady_state_work();
//!     assert_eq!(ALLOC.allocations(), before);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A global allocator that forwards to [`System`] and counts calls.
#[derive(Debug)]
pub struct CountingAllocator {
    allocations: AtomicU64,
}

impl CountingAllocator {
    /// A new counter at zero. `const` so it can initialize a
    /// `#[global_allocator]` static.
    #[must_use]
    pub const fn new() -> Self {
        CountingAllocator {
            allocations: AtomicU64::new(0),
        }
    }

    /// Total `alloc`/`alloc_zeroed`/`realloc` calls so far.
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        CountingAllocator::new()
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as the global allocator here (the test binary's other
    // tests would pollute the counts); exercised directly instead.
    #[test]
    fn counts_allocations_not_deallocations() {
        let counter = CountingAllocator::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = counter.alloc(layout);
            assert!(!p.is_null());
            counter.dealloc(p, layout);
            let q = counter.alloc_zeroed(layout);
            assert!(!q.is_null());
            assert_eq!(*q, 0);
            let r = counter.realloc(q, layout, 128);
            assert!(!r.is_null());
            counter.dealloc(r, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(counter.allocations(), 3);
    }
}
