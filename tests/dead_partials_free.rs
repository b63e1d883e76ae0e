//! Dead partial matches hold no memory: once every partial match of the
//! tree engine has expired and been pruned, the engine holds as
//! many live allocations after 2,000 partial matches as after 500.
//!
//! A counting global allocator tallies allocations and frees per thread,
//! so tests running in parallel do not see each other's.

use cep::core::compile::CompiledPattern;
use cep::core::engine::{Engine, EngineConfig};
use cep::core::event::{Event, TypeId};
use cep::core::pattern::PatternBuilder;
use cep::core::stream::EventStream;
use cep::core::value::Value;
use cep::tree::TreeEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations minus frees made by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter update, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - 1));
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WINDOW: u64 = 10;

/// `SEQ(a, b, c)` over types 0, 1, 2, no predicates.
fn pattern() -> CompiledPattern {
    let mut b = PatternBuilder::new(WINDOW);
    let evs = [0, 1, 2].map(|t| b.event(TypeId(t), &format!("e{t}")));
    CompiledPattern::compile_single(&b.seq(evs).unwrap()).unwrap()
}

/// One `a` at ts 0 and `n` `b`s at ts 1, which leave `n` partial matches
/// `(a, b)` waiting for a `c`; then one `c` at ts 100, past the window of
/// every one of them.
fn stream(n: u64) -> EventStream {
    let ev = |tid: u32, ts: u64, seq: u64| {
        let mut e = Event::new(TypeId(tid), ts, vec![Value::Int(0)]);
        e.seq = seq;
        Arc::new(e)
    };
    let mut s = vec![ev(0, 0, 0)];
    s.extend((1..=n).map(|i| ev(1, 1, i)));
    s.push(ev(2, 100, n + 1));
    s
}

/// The live allocations `engine` holds after the stream of `n`, all of its
/// partial matches expired and pruned. The stream is built first, so only
/// what the engine allocates (and has not freed) counts.
fn live_after_expiry(engine: &mut dyn Engine, n: u64) -> i64 {
    let stream = stream(n);
    let mut out = Vec::new();
    let before = LIVE.with(Cell::get);
    for e in &stream {
        engine.process(e, &mut out);
    }
    let live = LIVE.with(Cell::get) - before;
    let m = engine.metrics();
    assert!(out.is_empty(), "{}: no match completes", engine.name());
    assert!(
        m.peak_partial_matches as u64 >= n,
        "{}: {n} partial matches were live at once (peak {})",
        engine.name(),
        m.peak_partial_matches
    );
    assert_eq!(m.live_partial_matches, 0, "{}: all expired", engine.name());
    live
}

#[test]
fn dead_partial_matches_hold_no_memory() {
    // Pruning on every event: the `c` prunes before it joins.
    let cfg = EngineConfig {
        prune_every: 1,
        ..EngineConfig::default()
    };
    let tree = || TreeEngine::with_trivial_plan(pattern(), cfg.clone());
    // Both sizes stay below 4,096, so even a pool that kept that many dead
    // instances for reuse would show up as a difference.
    let (small, large) = (500, 2_000);
    assert_eq!(
        live_after_expiry(&mut tree(), small),
        live_after_expiry(&mut tree(), large),
        "tree: live allocations grow with the dead partial matches"
    );
}
