//! A counting global allocator: the benchmark's outside view of how much
//! the measured code allocates.
//!
//! Counting is per thread and off until [`arm`]ed, so set-up training on
//! the worker pool and the harness's own bookkeeping between steps never
//! show up, and an un-traced run pays one thread-local read per
//! allocation. The measured phase is single-threaded by the benchmark's
//! measurement rule, which is what makes a per-thread count the whole
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initializers and `Copy` payloads: no lazy initialization and
    // no destructor, so touching these from inside the allocator can never
    // allocate or re-enter it.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus per-thread counters.
pub struct CountingAlloc;

fn note(size: usize) {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + size as u64);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is bumping
// thread-local `Cell`s, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one allocation event of the new size.
        note(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` come straight from the caller,
        // who guarantees `ptr` was allocated here (i.e. by `System`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts counting this thread's allocations.
pub fn arm() {
    ARMED.set(true);
}

/// Stops counting this thread's allocations.
pub fn disarm() {
    ARMED.set(false);
}

/// `(allocation events, bytes requested)` counted on this thread so far.
pub fn counts() -> (u64, u64) {
    (ALLOCS.get(), BYTES.get())
}
