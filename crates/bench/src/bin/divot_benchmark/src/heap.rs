//! Peak live heap bytes, counted by a thin wrapper around the system
//! allocator.
//!
//! Peak RSS (`VmHWM`) of one workload swings by up to a fifth between
//! processes with how many glibc arenas the service's threads happen to
//! create, which no regression bound can absorb; live heap bytes do not
//! depend on arena placement. The load loops read the high-water mark
//! once per window and restart it, so a rare coincidence of transient
//! buffers moves one window's reading, not the reported median.
//!
//! Each thread adds its deltas to a slot of its own and moves them to the
//! shared total once they pass [`FLUSH`] bytes, so counting costs no
//! shared cache-line traffic per allocation, and the peak is exact to
//! within `SLOTS × FLUSH`. Slots outlive threads, so the short-lived
//! threads of `dsp::par` fan-outs lose no bytes when they exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// Unpublished bytes a slot may hold before they move to the shared total.
const FLUSH: i64 = 16 << 10;
/// Per-thread slots; threads beyond this many share them round-robin.
const SLOTS: usize = 32;

/// One slot on a cache line of its own.
#[repr(align(64))]
struct Slot(AtomicI64);

/// Live bytes: per-thread slots plus the published total, and the
/// published total's high-water mark. Every counter is a statistic that
/// publishes no other data, so `Relaxed` suffices throughout.
struct Counter {
    slots: [Slot; SLOTS],
    live: AtomicI64,
    peak: AtomicI64,
}

static COUNTER: Counter = Counter::new();
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: accessing it never
    // allocates, so the allocator itself may use it.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

impl Counter {
    const fn new() -> Self {
        Self {
            slots: [const { Slot(AtomicI64::new(0)) }; SLOTS],
            live: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }

    fn note(&self, delta: i64) {
        let i = MY_SLOT
            .try_with(|s| {
                if s.get() == usize::MAX {
                    s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
                }
                s.get()
            })
            .unwrap_or(0);
        let slot = &self.slots[i].0;
        let pending = slot.fetch_add(delta, Ordering::Relaxed) + delta;
        if pending.abs() >= FLUSH {
            let moved = slot.swap(0, Ordering::Relaxed);
            let live = self.live.fetch_add(moved, Ordering::Relaxed) + moved;
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
    }
}

/// The system allocator, counting live bytes.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and a const thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            COUNTER.note(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            COUNTER.note(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract,
        // and `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) };
        COUNTER.note(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System` through this wrapper.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            COUNTER.note(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// The highest live heap size published since the last
/// [`reset_peak`], in MB.
pub fn peak_heap_mb() -> f64 {
    COUNTER.peak.load(Ordering::Relaxed) as f64 / f64::from(1u32 << 20)
}

/// Restart the high-water mark from the current live size.
pub fn reset_peak() {
    let live = COUNTER.live.load(Ordering::Relaxed);
    COUNTER.peak.store(live, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_freed_by_another_thread_survive_the_allocating_thread() {
        // Short-lived threads each allocate below the flush threshold
        // and exit; another thread frees it all. Unpublished bytes kept
        // per thread would be lost at exit and leave 800 kB counted.
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..200 {
                s.spawn(|| c.note(4_000)).join().expect("thread ran");
            }
        });
        for _ in 0..200 {
            c.note(-4_000);
        }
        let slots: i64 = c.slots.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
        assert_eq!(c.live.load(Ordering::Relaxed) + slots, 0);
        assert!(c.peak.load(Ordering::Relaxed) >= 800_000 - SLOTS as i64 * FLUSH);
    }
}
