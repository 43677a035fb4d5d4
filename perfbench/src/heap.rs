//! A counting global allocator: each thread keeps the net number of heap
//! bytes it has allocated, so the sim leg can read how much memory one
//! engine retains per request exactly. The count is a thread-local add
//! per call; the allocation itself is the system allocator's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // `try_with` fails only while the thread's locals are being torn
    // down; an allocation then goes uncounted.
    let _ = NET_BYTES.try_with(|n| n.set(n.get() + bytes));
}

/// Bytes this thread has allocated minus the bytes it has freed.
pub fn thread_net_bytes() -> i64 {
    NET_BYTES.with(Cell::get)
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        add(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            add(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_what_this_thread_keeps() {
        let before = thread_net_bytes();
        let kept: Vec<u8> = Vec::with_capacity(4096);
        assert_eq!(thread_net_bytes() - before, 4096);
        drop(kept);
        assert_eq!(thread_net_bytes(), before);
    }
}
