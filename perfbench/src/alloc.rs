//! A counting global allocator for exact per-phase allocation counts.
//!
//! Counting is off by default so end-to-end runs pay one thread-local
//! read per allocation; [`count`] switches it on around one closure.
//! Counters are per thread, so a count covers exactly the allocations
//! the closure's own thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a counter of allocation calls.
pub struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free: no destructor is registered, so
    // the allocator can touch them at any point of a thread's life.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    if ENABLED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches only
// thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller guarantees `layout` is valid and non-zero
        // sized, as `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout` and that `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting on and returns its result with the number of
/// allocation calls (alloc, alloc_zeroed and realloc) this thread made
/// meanwhile.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    ENABLED.with(|e| e.set(true));
    let out = f();
    ENABLED.with(|e| e.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::count;

    #[test]
    fn counts_exactly_the_allocations_inside() {
        let (v, n) = count(|| {
            let a: Vec<u64> = Vec::with_capacity(16);
            let b = Box::new(7u32);
            std::hint::black_box((a, b))
        });
        drop(v);
        assert_eq!(n, 2);
        let ((), none) = count(|| ());
        assert_eq!(none, 0);
    }
}
