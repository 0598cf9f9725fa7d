//! A counting global allocator.
//!
//! Every allocation and reallocation made on the current thread bumps a
//! thread-local count and byte total, and the live heap size is tracked
//! through deallocations too. The benchmark is single-threaded, so the
//! thread's counts are the process's; thread-local counters also keep
//! `cargo test`'s parallel test threads from seeing each other's work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with per-thread counters.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: u64, live: i64) {
    // `try_with` never panics: the cells have no destructor, but a
    // thread's last deallocations may still run while it is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = LIVE.try_with(|c| c.set(c.get() + live));
}

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters are
// plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as u64, layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as u64, layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator (hence `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as u64, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` came from this allocator; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocations plus reallocations so far.
    pub allocs: u64,
    /// Bytes requested by those calls (a reallocation counts its new size).
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: i64,
}

impl Counts {
    /// The current thread's counters.
    pub fn now() -> Counts {
        Counts {
            allocs: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
            live: LIVE.with(Cell::get),
        }
    }

    /// Counts accrued since `earlier`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            live: self.live - earlier.live,
        }
    }

    /// `self` moved forward by the counts `d`.
    pub fn plus(self, d: Counts) -> Counts {
        Counts {
            allocs: self.allocs + d.allocs,
            bytes: self.bytes + d.bytes,
            live: self.live + d.live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_known_allocations_exactly() {
        let before = Counts::now();
        let boxed = black_box(Box::new(7u64));
        let mut v: Vec<u8> = black_box(Vec::with_capacity(100));
        v.extend_from_slice(&[1; 100]);
        // Growing past the capacity is one reallocation to 200 bytes.
        v.reserve_exact(100);
        let d = Counts::now().since(before);
        assert_eq!(d.allocs, 3, "box + vec + one realloc");
        assert_eq!(d.bytes, 8 + 100 + 200);
        assert_eq!(d.live, 8 + 200);
        drop(boxed);
        drop(v);
        assert_eq!(Counts::now().since(before).live, 0);
    }

    #[test]
    fn no_allocation_counts_nothing() {
        let before = Counts::now();
        let x = black_box([0u8; 64]);
        black_box(x.iter().map(|&b| u64::from(b)).sum::<u64>());
        assert_eq!(Counts::now().since(before), Counts::default());
    }
}
