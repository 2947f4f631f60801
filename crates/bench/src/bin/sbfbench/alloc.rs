//! A counting global allocator. Every allocation bumps a counter owned by
//! the allocating thread, so `proto.allocs_per_frame` is an exact count of
//! what one decode allocates, untouched by the server's own threads. The
//! counter is a thread-local `Cell`: no shared atomics are involved.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisation and no destructor: touching the slot never
    // allocates, so the allocator can use it without recursing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of allocations and reallocations.
pub struct Counting;

fn bump() {
    // During thread teardown the slot may already be gone; allocations
    // made then go uncounted, which no measurement depends on.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly; the only addition is a thread-local
// counter update, which neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, and `System.alloc` has the same contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`; `alloc_zeroed` has the same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System`, and the caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
