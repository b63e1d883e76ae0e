//! Allocation regression tests for the shard merge: `canonical_sort`
//! allocates nothing, and the replicate-join dedup's allocations on the
//! merging thread do not grow with the number of matches.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel do not see each other's (nor the worker threads')
//! allocations.

use cep_core::compile::CompiledPattern;
use cep_core::engine::{Engine, EngineConfig};
use cep_core::event::{Event, EventRef, TypeId};
use cep_core::matches::{Binding, Match};
use cep_core::partition::QueryPartitioner;
use cep_core::pattern::PatternBuilder;
use cep_core::stream::{EventStream, StreamBuilder};
use cep_core::value::Value;
use cep_shard::{canonical_sort, RoutingPolicy, ShardConfig, ShardedRuntime};
use cep_tree::TreeEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

fn ev(tid: u32, seq: u64) -> EventRef {
    let mut e = Event::new(TypeId(tid), seq, vec![Value::Int(0)]);
    e.seq = seq;
    Arc::new(e)
}

/// `n` matches in emission order — `emitted_at` non-decreasing in runs of
/// eight — with `last_ts` and signatures scrambled inside each run, one
/// Kleene position per match.
fn emission_ordered(n: u64) -> Vec<Match> {
    (0..n)
        .map(|i| {
            let scrambled = (i * 7) % 8;
            let base = i / 8 * 100;
            Match {
                bindings: vec![
                    (0, Binding::One(ev(0, base + scrambled))),
                    (
                        1,
                        Binding::Many(vec![ev(1, base + 8 + scrambled), ev(1, base + 20)]),
                    ),
                ],
                last_ts: base + 20 + scrambled % 3,
                emitted_at: base + 20,
            }
        })
        .collect()
}

#[test]
fn canonical_sort_allocates_nothing() {
    for n in [1_000, 10_000] {
        let mut ms = emission_ordered(n);
        let (allocs, ()) = allocs_during(|| canonical_sort(&mut ms));
        assert_eq!(allocs, 0, "emission-ordered input of {n}");
        assert!(ms.is_sorted_by(|a, b| a.canonical_cmp(b).is_le()));
        // Not in emission order: the whole-slice fallback is in place too.
        ms.reverse();
        let (allocs, ()) = allocs_during(|| canonical_sort(&mut ms));
        assert_eq!(allocs, 0, "reversed input of {n}");
        assert!(ms.is_sorted_by(|a, b| a.canonical_cmp(b).is_le()));
    }
}

/// `len` events of a fully replicated `SEQ(A a, C c) WITHIN 4`: every
/// shard detects every match, so the merge dedups all but one copy.
fn replicated_stream(len: u64) -> EventStream {
    let mut b = StreamBuilder::new();
    for i in 0..len {
        b.push_partitioned(
            Event::new(TypeId((i % 2) as u32), i, vec![Value::Int(0)]),
            (i % 4) as u32,
        );
    }
    b.build()
}

#[test]
fn replicate_join_dedup_allocations_do_not_grow_with_matches() {
    let mut pb = PatternBuilder::new(4);
    let a = pb.event(TypeId(0), "a");
    let c = pb.event(TypeId(1), "c");
    let cp = CompiledPattern::compile_single(&pb.seq([a, c]).unwrap()).unwrap();
    let spec = QueryPartitioner::analyze(std::slice::from_ref(&cp), |_| 1.0).unwrap();
    assert!(spec.is_fully_replicated());
    let policy = RoutingPolicy::ReplicateJoin(Arc::new(spec));
    let factory = move || {
        Box::new(TreeEngine::with_trivial_plan(
            cp.clone(),
            EngineConfig::default(),
        )) as Box<dyn Engine>
    };
    // One batch per shard: routing then allocates the same on both sizes,
    // and what is left to grow on this thread is the merge and the dedup.
    let runtime = ShardedRuntime::new(ShardConfig {
        shards: 4,
        batch_size: 1 << 16,
        queue_batches: 1,
    });
    let allocs = |len: u64| {
        let stream = replicated_stream(len);
        let (allocs, r) = allocs_during(|| runtime.run(&factory, &stream, policy.clone(), false));
        assert_eq!(r.metrics.dedup_hits, 3 * r.match_count);
        (allocs, r.match_count)
    };
    allocs(100); // warm up this thread's lazily initialised state
    let (small, small_matches) = allocs(1_000);
    let (large, large_matches) = allocs(10_000);
    assert!(large_matches >= 9 * small_matches, "fixture must scale");
    assert_eq!(
        small, large,
        "{small_matches} → {large_matches} matches grew the merging thread's allocations"
    );
}
