//! The delta engine composes with the sharded runtime for free: it is an
//! [`cep::core::engine::EngineFactory`] like every other backend, so
//! key-hashed routing over an equality-correlated query merges
//! byte-identical to the serial engine for any shard count — and the new
//! delta counters (index probes, delta updates, enumeration histogram)
//! survive the cross-shard metrics merge.

use cep::conformance::{check, check_config, standard_backends, Composition, Entry, Route};
use cep::core::event::{Event, TypeId};
use cep::core::pattern::PatternBuilder;
use cep::core::predicate::{CmpOp, Predicate};
use cep::core::selection::SelectionStrategy;
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::shard::{RoutingPolicy, ShardedRuntime};

#[test]
fn sharded_delta_is_byte_identical_to_serial() {
    // SEQ(A a, B b, C c) WHERE a.key == b.key AND b.key == c.key: the
    // key-equated shape HashAttr routing is exact for.
    let mut b = PatternBuilder::new(40);
    let a = b.event(TypeId(0), "a");
    let bb = b.event(TypeId(1), "b");
    let c = b.event(TypeId(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
    b.predicate(Predicate::attr_cmp(bb.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let pattern = b.seq([a, bb, c]).unwrap();

    let mut sb = StreamBuilder::new();
    for i in 0..1200u64 {
        let tid = if i % 17 == 0 { 2 } else { (i % 2) as u32 };
        // Blocks of 4 consecutive events share a key, so both parities
        // (types A and B) and the occasional C land on every key.
        let key = ((i / 4) % 8) as i64;
        sb.push(Event::new(
            TypeId(tid),
            i,
            vec![Value::Int(key), Value::Int((i % 5) as i64)],
        ));
    }
    let stream = sb.build();

    // Output, and every counter per shard and merged, are the serial
    // delta engine's: the delta counters survive the merge.
    let delta = &standard_backends()[2];
    let any = SelectionStrategy::SkipTillAnyMatch;
    for shards in [1, 2, 4] {
        let c = Composition::sharded(shards, Route::HashAttr(0), Entry::Run, true);
        let checked = check(&c, delta, 0, &check_config(), any, &pattern, &stream);
        assert!(checked.matches > 0, "fixture must produce matches");
        let m = &checked.metrics;
        assert_eq!(m.partial_matches_created, 0, "nothing materialized");
        assert!(m.index_probes > 0 && m.delta_updates > 0 && m.enumeration_ns.count() > 0);
    }
}

#[test]
fn delta_factory_shares_compiled_programs_across_builds() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(TypeId(0), "a");
    let c = b.event(TypeId(1), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let pattern = b.seq([a, c]).unwrap();
    let factory = cep::engine(&pattern).factory().unwrap();
    let first = factory.build();
    let second = factory.build();
    // First build lowers the program (miss), the second reuses it (hit).
    assert_eq!(first.metrics().plan_cache_misses, 1);
    assert_eq!(first.metrics().plan_cache_hits, 0);
    assert_eq!(second.metrics().plan_cache_hits, 1);
    assert_eq!(second.metrics().plan_cache_misses, 0);
}

/// Every shard worker builds from one shared plan cache, so which worker
/// records the miss is a race. The plan-cache counters are therefore
/// reported once, in the merged metrics, and read 0 in every shard's.
#[test]
fn plan_cache_counters_are_reported_once_per_sharded_run() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(TypeId(0), "a");
    let c = b.event(TypeId(1), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let pattern = b.seq([a, c]).unwrap();
    let mut sb = StreamBuilder::new();
    for i in 0..200u64 {
        sb.push(Event::new(
            TypeId((i % 2) as u32),
            i,
            vec![Value::Int((i / 2 % 8) as i64)],
        ));
    }
    let stream = sb.build();
    let policy = RoutingPolicy::HashAttr(0);
    for shards in [2u64, 4] {
        let runtime = ShardedRuntime::with_shards(shards as usize);
        let factory = cep::engine(&pattern).factory().unwrap();
        let one = runtime.run(factory.as_ref(), &stream, policy.clone(), false);
        let mut spec = cep::registry().spec().unwrap();
        spec.add(&pattern).unwrap();
        let set = runtime
            .run_registry(&spec, &stream, policy.clone(), false)
            .unwrap();
        for (m, per_shard) in [
            (&one.metrics, &one.per_shard),
            (&set.metrics, &set.per_shard),
        ] {
            // One lowering for the whole run, reused by every other worker.
            assert_eq!((m.plan_cache_misses, m.plan_cache_hits), (1, shards - 1));
            for s in per_shard {
                assert_eq!(
                    (s.metrics.plan_cache_misses, s.metrics.plan_cache_hits),
                    (0, 0),
                    "{shards} shards, shard {}",
                    s.shard
                );
            }
        }
    }
}
