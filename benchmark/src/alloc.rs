//! Counting global allocator for the benchmark binary.
//!
//! Wraps the system allocator. While the one relaxed `ENABLED` flag is
//! off (throughput and per-call reps) every call is a flag load plus the
//! system call, so timed passes see the allocator the library ships with.
//! While it is on (the memory rep and the ingest allocation pass) it keeps
//!
//! * per-thread allocation counts, requested bytes and net bytes, in
//!   cache-line-sized slots that are summed on read, so worker threads of
//!   the sharded workload do not share a counter line;
//! * one global live-byte level with its running peak — a peak of a sum
//!   cannot be rebuilt from per-thread peaks, so this one is shared.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
    net: AtomicI64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    net: AtomicI64::new(0),
};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SLOT_TABLE: [Slot; SLOTS] = [EMPTY_SLOT; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor outlives the thread.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> &'static Slot {
    let idx = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &SLOT_TABLE[idx]
}

fn on_alloc(size: usize) {
    let s = slot();
    s.allocs.fetch_add(1, Relaxed);
    s.bytes.fetch_add(size as u64, Relaxed);
    grow(s, size as i64);
}

fn grow(s: &Slot, delta: i64) {
    s.net.fetch_add(delta, Relaxed);
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
}

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct CountingAlloc;

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if ENABLED.load(Relaxed) && !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if ENABLED.load(Relaxed) && !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Relaxed) {
            grow(slot(), -(layout.size() as i64));
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if ENABLED.load(Relaxed) && !p.is_null() {
            let s = slot();
            s.allocs.fetch_add(1, Relaxed);
            s.bytes.fetch_add(new_size as u64, Relaxed);
            grow(s, new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Counters since the last [`start`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// `alloc` + `alloc_zeroed` + `realloc` calls, all threads.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest live-byte level above the level at [`start`].
    pub peak: u64,
}

/// Zeroes every counter and switches counting on. Blocks freed later
/// that were allocated before this call pull the live level below zero;
/// the peak is therefore "above the level at start", as documented.
pub fn start() {
    for s in &SLOT_TABLE {
        s.allocs.store(0, Relaxed);
        s.bytes.store(0, Relaxed);
        s.net.store(0, Relaxed);
    }
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Switches counting off and returns the totals.
pub fn stop() -> HeapStats {
    ENABLED.store(false, Relaxed);
    HeapStats {
        allocs: SLOT_TABLE.iter().map(|s| s.allocs.load(Relaxed)).sum(),
        bytes: SLOT_TABLE.iter().map(|s| s.bytes.load(Relaxed)).sum(),
        peak: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Allocation calls made by the calling thread since [`start`]: two
/// reads around a call give that call's allocations without a sum over
/// the slots.
pub fn thread_allocs() -> u64 {
    slot().allocs.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The flag and the live level are process-wide, and `cargo test`
    /// runs tests on parallel threads: tests that flip the flag take
    /// this lock, and exact assertions use the calling thread's slot,
    /// which no other test thread writes.
    static FLAG: Mutex<()> = Mutex::new(());

    fn mine() -> (u64, u64, i64) {
        let s = slot();
        (
            s.allocs.load(Relaxed),
            s.bytes.load(Relaxed),
            s.net.load(Relaxed),
        )
    }

    #[test]
    fn counts_a_known_pattern_exactly() {
        let _g = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        start();
        let before = mine();
        let a: Vec<u8> = Vec::with_capacity(1000);
        let b: Box<[u64; 4]> = Box::new([7; 4]);
        let mut c: Vec<u32> = Vec::with_capacity(10);
        c.reserve_exact(100); // one realloc: 40 -> 400 bytes
        let mid = mine();
        assert_eq!(mid.0 - before.0, 4, "three allocs and one realloc");
        assert_eq!(mid.1 - before.1, 1000 + 32 + 40 + 400);
        assert_eq!(mid.2 - before.2, 1000 + 32 + 400);
        assert_eq!(thread_allocs(), mid.0);
        drop((a, b, c));
        let after = mine();
        assert_eq!(after.0, mid.0, "frees are not allocations");
        assert_eq!(after.2, before.2, "everything allocated was freed");
        // The live level is shared with whatever other test threads free
        // meanwhile, so the peak is checked with a block that dwarfs them.
        let big: Vec<u8> = Vec::with_capacity(32 << 20);
        drop(big);
        let total = stop();
        assert!(
            total.peak >= 16 << 20,
            "peak {} missed a 32 MiB block",
            total.peak
        );
        assert!(total.allocs >= 5 && total.bytes >= (32 << 20) + 1472);
    }

    #[test]
    fn inert_while_disabled() {
        let _g = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        start();
        let _ = stop();
        let before = mine();
        let v: Vec<u64> = (0..4096).collect();
        let s = format!("{}", v.len());
        drop((v, s));
        assert_eq!(mine(), before, "no counter moves while the flag is off");
    }
}
