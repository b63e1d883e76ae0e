//! Determinism and mechanics tests for the sharded runtime: merge order
//! under ties, worker failures, tracing, next-match, and runs at 8 and 16
//! shards. The single-threaded engine is the ground truth here; sharded
//! equivalence to the naive oracle over every entry point and routing
//! policy is checked by the composition matrix (`cep::conformance::check`,
//! driven from the facade's `src/tests.rs`).

use crate::{canonical_sort, RoutingPolicy, ShardConfig, ShardedRuntime};
use cep_core::compile::CompiledPattern;
use cep_core::engine::{run_to_completion, Engine, EngineConfig, EngineFactory};
use cep_core::event::{Event, TypeId};
use cep_core::matches::Match;
use cep_core::pattern::{Pattern, PatternBuilder};
use cep_core::predicate::{CmpOp, Predicate};
use cep_core::selection::SelectionStrategy;
use cep_core::stream::{EventStream, StreamBuilder};
use cep_core::value::Value;
use cep_tree::TreeEngine;
use proptest::prelude::*;

fn t(i: u32) -> TypeId {
    TypeId(i)
}

/// An event whose attribute 0 is the routing key; partition mirrors it.
fn keyed_stream(events: Vec<(u32, u64, i64)>) -> EventStream {
    let mut b = StreamBuilder::new();
    for (tid, ts, key) in events {
        b.push_partitioned(Event::new(t(tid), ts, vec![Value::Int(key)]), key as u32);
    }
    b.build()
}

/// `SEQ` of `n` types whose predicates equate attribute 0 across all
/// positions — the partition-keyed query shape sharding is exact for.
fn keyed_seq(n: usize, window: u64, strategy: SelectionStrategy) -> Pattern {
    let mut b = PatternBuilder::new(window);
    b.strategy(strategy);
    let evs: Vec<_> = (0..n)
        .map(|i| b.event(t(i as u32), &format!("e{i}")))
        .collect();
    for w in evs.windows(2) {
        b.predicate(Predicate::attr_cmp(w[0].pos(), 0, CmpOp::Eq, w[1].pos(), 0));
    }
    b.seq(evs).unwrap()
}

fn tree_factory(cp: CompiledPattern) -> impl EngineFactory {
    move || {
        Box::new(TreeEngine::with_trivial_plan(
            cp.clone(),
            EngineConfig::default(),
        )) as Box<dyn Engine>
    }
}

/// Single-threaded ground truth for a factory, in canonical merge order.
fn single_threaded(factory: &dyn EngineFactory, stream: &EventStream) -> Vec<Match> {
    let mut engine = factory.build();
    let mut matches = run_to_completion(engine.as_mut(), stream, true).matches;
    canonical_sort(&mut matches);
    matches
}

/// Deterministic pseudo-random keyed workload (same LCG as the tree tests).
fn lcg_workload(len: u64, types: u32, keys: i64, seed: u64) -> Vec<(u32, u64, i64)> {
    let mut state = seed;
    let mut ts = 0u64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tid = ((state >> 33) % types as u64) as u32;
            let key = ((state >> 20) % keys as u64) as i64;
            ts += (state >> 50) % 3;
            (tid, ts, key)
        })
        .collect()
}

/// Skip-till-next-match is *greedy*: an empty instance binds the first
/// candidate event of any key, so its binding choices depend on how
/// partitions interleave — they are interleaving-dependent even
/// single-threaded (the strategy is already plan-dependent in the paper).
/// Sharding therefore preserves next-match's per-shard greedy semantics,
/// not the global run's exact bindings; what must survive is validity,
/// event-disjointness across all shards, and per-configuration determinism.
#[test]
fn next_match_sharded_runs_are_valid_disjoint_and_deterministic() {
    use cep_core::matches::validate_match;
    let stream = keyed_stream(lcg_workload(160, 3, 4, 0xC0FFEE));
    let cp =
        CompiledPattern::compile_single(&keyed_seq(3, 12, SelectionStrategy::SkipTillNextMatch))
            .unwrap();
    let factory = tree_factory(cp.clone());
    for shards in [1, 2, 4] {
        let r = ShardedRuntime::with_shards(shards).run(
            &factory,
            &stream,
            RoutingPolicy::Partition,
            true,
        );
        assert!(!r.matches.is_empty(), "fixture should produce matches");
        let mut used = std::collections::HashSet::new();
        for m in &r.matches {
            validate_match(&cp, m).unwrap();
            for e in m.events() {
                assert!(used.insert(e.seq), "event reused across shards");
            }
        }
        let again = ShardedRuntime::with_shards(shards).run(
            &factory,
            &stream,
            RoutingPolicy::Partition,
            true,
        );
        assert_eq!(r.matches, again.matches, "repeat runs must be identical");
    }
}

/// The benchmark's `sharded-keyed` shape — replicated market, `SEQ(3)`
/// equating `replica` along the chain plus a `difference` chain — on the
/// hash-partitioned join state: the left-deep tree in an order that keys
/// both later joins, byte-identical to its serial run at 1/2/4 shards.
#[test]
fn sharded_keyed_query_is_byte_identical_to_serial_on_keyed_stores() {
    use cep_core::plan::{OrderPlan, TreePlan};
    use cep_core::schema::Catalog;
    use cep_streamgen::{StockConfig, StockStreamGenerator};
    let mut catalog = Catalog::new();
    let config = StockConfig::nasdaq_like(4, 4_000, 0.25, 0xCE9);
    let gen = StockStreamGenerator::generate_replicated(&config, 16, &mut catalog).unwrap();
    let pattern = cep_sase::parse_pattern(
        "PATTERN SEQ(S0000 a, S0001 b, S0002 c)
         WHERE (a.replica == b.replica AND b.replica == c.replica
                AND a.difference < b.difference AND b.difference < c.difference)
         WITHIN 600 ms",
        &catalog,
    )
    .unwrap();
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let factory = move || {
        let plan = TreePlan::left_deep(&OrderPlan::new(vec![1, 2, 0]).unwrap());
        Box::new(TreeEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap())
            as Box<dyn Engine>
    };
    let serial = run_to_completion(factory.build().as_mut(), &gen.stream, true);
    assert!(!serial.matches.is_empty(), "fixture should produce matches");
    assert!(
        serial.metrics.index_probes > 0,
        "the replica equalities must key the join state"
    );
    let mut expected = serial.matches;
    canonical_sort(&mut expected);
    for shards in [1, 2, 4] {
        let r = ShardedRuntime::with_shards(shards).run(
            &factory,
            &gen.stream,
            RoutingPolicy::Partition,
            true,
        );
        assert_eq!(r.matches, expected, "{shards} shards diverged");
    }
}

#[test]
fn tiny_batches_and_queues_only_change_plumbing() {
    let stream = keyed_stream(lcg_workload(120, 3, 4, 99));
    let cp =
        CompiledPattern::compile_single(&keyed_seq(3, 12, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let factory = tree_factory(cp);
    let expected = single_threaded(&factory, &stream);
    let runtime = ShardedRuntime::new(ShardConfig {
        shards: 3,
        batch_size: 1,
        queue_batches: 1,
    });
    let r = runtime.run(&factory, &stream, RoutingPolicy::HashAttr(0), true);
    assert_eq!(r.matches, expected);
}

#[test]
fn more_shards_than_events_is_exact() {
    // 8 shards, 3 events: most workers never see input and must still
    // start, drain, flush, and merge cleanly.
    let stream = keyed_stream(vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
    let cp =
        CompiledPattern::compile_single(&keyed_seq(3, 10, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let factory = tree_factory(cp);
    let expected = single_threaded(&factory, &stream);
    assert_eq!(expected.len(), 1, "fixture is one complete match");
    for policy in [RoutingPolicy::Partition, RoutingPolicy::HashAttr(0)] {
        let r = ShardedRuntime::with_shards(8).run(&factory, &stream, policy.clone(), true);
        assert_eq!(r.matches, expected, "{policy} diverged with idle shards");
        assert_eq!(r.metrics.events_processed, 3);
    }
}

#[test]
fn sixteen_shard_replays_are_deterministic() {
    // The widest configuration the runtime is expected to see in tests:
    // repeat the identical 16-shard run and require bit-identical output
    // (merge order included).
    let stream = keyed_stream(lcg_workload(300, 3, 16, 0x516));
    let cp =
        CompiledPattern::compile_single(&keyed_seq(3, 14, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let factory = tree_factory(cp);
    let expected = single_threaded(&factory, &stream);
    assert!(!expected.is_empty(), "fixture should produce matches");
    let mut previous: Option<Vec<Match>> = None;
    for replay in 0..3 {
        let r =
            ShardedRuntime::with_shards(16).run(&factory, &stream, RoutingPolicy::Partition, true);
        assert_eq!(r.matches, expected, "replay {replay} diverged");
        if let Some(prev) = &previous {
            assert_eq!(&r.matches, prev, "replay {replay} not bit-identical");
        }
        previous = Some(r.matches);
    }
}

/// Per-shard **selectivity** adaptivity: every worker owns an
/// `AdaptiveEngine` whose replanner re-estimates predicate selectivities
/// on its own slice. The workload keeps all arrival rates flat and flips
/// only the value correlations, so a swap can *only* come from the
/// selectivity monitors — and the sharded, swapping run must still equal
/// the single-threaded, never-swapped engine byte for byte.
#[test]
fn sharded_selectivity_monitors_replan_per_worker_and_stay_exact() {
    use cep_adaptive::{AdaptiveConfig, AdaptiveFactory, PlanReplanner, Replanner};
    use cep_core::stats::MeasuredStats;
    use cep_optimizer::{Backend, OrderAlgorithm, Planner};

    // Events carry (key, value); keys cycle over 4 partitions — with the
    // strides chosen so every key regularly receives all three types — and
    // every shard sees the same correlation flip at the halfway point.
    let mut b = StreamBuilder::new();
    for phase in 0..2u64 {
        let (bv, cv) = if phase == 0 { (95, 5) } else { (5, 95) };
        let base = phase * 800;
        for i in 0..800u64 {
            let ts = base + i;
            let push = |b: &mut StreamBuilder, tid: u32, key: i64, v: i64| {
                b.push_partitioned(
                    Event::new(t(tid), ts, vec![Value::Int(key), Value::Int(v)]),
                    key as u32,
                );
            };
            push(&mut b, 0, (i % 4) as i64, (i % 100) as i64);
            if i % 4 == 1 {
                push(&mut b, 1, ((i / 4) % 4) as i64, bv);
            }
            if i % 4 == 3 {
                push(&mut b, 2, ((i / 4) % 4) as i64, cv);
            }
        }
    }
    let stream = b.build();
    // SEQ(a, b, c): key equality across positions (partition-local) plus
    // the two value predicates whose selectivities flip.
    let mut pb = PatternBuilder::new(60);
    let evs: Vec<_> = (0..3).map(|i| pb.event(t(i), &format!("e{i}"))).collect();
    for w in evs.windows(2) {
        pb.predicate(Predicate::attr_cmp(w[0].pos(), 0, CmpOp::Eq, w[1].pos(), 0));
    }
    pb.predicate(Predicate::attr_cmp(
        evs[0].pos(),
        1,
        CmpOp::Lt,
        evs[1].pos(),
        1,
    ));
    pb.predicate(Predicate::attr_cmp(
        evs[0].pos(),
        1,
        CmpOp::Lt,
        evs[2].pos(),
        1,
    ));
    let cp = CompiledPattern::compile_single(&pb.seq(evs).unwrap()).unwrap();
    let mut rates = MeasuredStats::default();
    rates.set_rate(t(0), 1.0);
    rates.set_rate(t(1), 0.25);
    rates.set_rate(t(2), 0.25);
    // Key equality is 1-in-4; the value predicates start at 0.95 / 0.05.
    let replanner = PlanReplanner::new(
        vec![(cp, vec![0.25, 0.25, 0.95, 0.05])],
        &rates,
        Planner::default(),
        Backend::Nfa(OrderAlgorithm::DpLd),
        EngineConfig::default(),
    )
    .unwrap()
    .with_selectivity_monitoring(300, 0.5, 256)
    .with_selectivity_min_events(24);
    let mut static_engine = replanner.build();
    let mut expected = run_to_completion(static_engine.as_mut(), &stream, true).matches;
    canonical_sort(&mut expected);
    assert!(!expected.is_empty(), "fixture should produce matches");
    let factory = AdaptiveFactory::new(
        replanner,
        60,
        AdaptiveConfig {
            horizon_ms: 300,
            drift_threshold: 0.5,
            check_every: 32,
            cooldown_events: 64,
            ..AdaptiveConfig::default()
        },
    );
    for shards in [2, 4] {
        let r = ShardedRuntime::with_shards(shards).run(
            &factory,
            &stream,
            RoutingPolicy::Partition,
            true,
        );
        assert_eq!(
            r.matches, expected,
            "{shards}-shard selectivity-adaptive run diverged"
        );
        assert!(
            r.metrics.plan_swaps >= shards as u64,
            "every worker should swap on the correlation flip \
             (got {} swaps across {shards} shards)",
            r.metrics.plan_swaps
        );
        assert!(
            r.metrics.selectivity_samples > 0,
            "per-shard monitors must absorb samples"
        );
        assert!(r.metrics.replayed_events > 0, "swaps must replay state");
    }
}

// ---------------------------------------------------------------------------
// Cross-partition fixtures (correlation attr != partition attr) for the
// policy-rejection and merge-order tests below. Replicate-join runs are
// held to the oracle by the composition matrix (`cep::conformance`).
// ---------------------------------------------------------------------------

use cep_core::partition::QueryPartitioner;
use std::sync::Arc as StdArc;

/// An event whose attribute 0 is the *correlation* key and attribute 1 the
/// *channel*; the stream partition mirrors the channel, NOT the key — the
/// cross-partition shape plain hash/partition routing gets wrong.
fn cross_key_stream(events: Vec<(u32, u64, i64, i64)>) -> EventStream {
    let mut b = StreamBuilder::new();
    for (tid, ts, key, chan) in events {
        b.push_partitioned(
            Event::new(t(tid), ts, vec![Value::Int(key), Value::Int(chan)]),
            chan as u32,
        );
    }
    b.build()
}

/// `SEQ(A a, B b, C c)` with `a.0 == b.0` only: A and B are key-linked
/// (partitioned), C is unkeyed (must be replicated for exactness).
fn cross_key_seq(window: u64, strategy: SelectionStrategy) -> Pattern {
    let mut b = PatternBuilder::new(window);
    b.strategy(strategy);
    let a = b.event(t(0), "a");
    let bb = b.event(t(1), "b");
    let c = b.event(t(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
    b.seq([a, bb, c]).unwrap()
}

// ---------------------------------------------------------------------------
// Observability: tracing a sharded run must not change its output, and the
// emitted records must describe the run faithfully.
// ---------------------------------------------------------------------------

use cep_obs::{validate_prometheus, MetricsRegistry, RingSink, TraceRecord, Tracer};

proptest! {
    /// Tracing only observes: for random keyed workloads and shard counts,
    /// the traced run's matches are byte-identical to the untraced run's,
    /// and every record in the ring survives a JSONL round trip exactly.
    #[test]
    fn traced_sharded_run_is_byte_identical_to_untraced(
        raw in prop::collection::vec((0u32..3, 0u64..3, 0i64..4), 1..70),
        shards in 1usize..5,
    ) {
        let mut ts = 0u64;
        let events: Vec<(u32, u64, i64)> = raw
            .into_iter()
            .map(|(tid, dt, key)| {
                ts += dt;
                (tid, ts, key)
            })
            .collect();
        let stream = keyed_stream(events);
        let cp = CompiledPattern::compile_single(&keyed_seq(
            3,
            10,
            SelectionStrategy::SkipTillAnyMatch,
        ))
        .unwrap();
        let factory = tree_factory(cp);
        let plain = ShardedRuntime::with_shards(shards)
            .run(&factory, &stream, RoutingPolicy::Partition, true);
        let ring = StdArc::new(RingSink::new(1 << 16));
        let traced = ShardedRuntime::with_shards(shards)
            .with_tracer(Tracer::to_sink(ring.clone()))
            .run(&factory, &stream, RoutingPolicy::Partition, true);
        prop_assert_eq!(&traced.matches, &plain.matches);
        prop_assert_eq!(traced.match_count, plain.match_count);
        let records = ring.snapshot();
        prop_assert!(!records.is_empty(), "traced run emitted no records");
        for r in &records {
            let line = r.to_json();
            let back = TraceRecord::from_json(&line).expect("trace line parses");
            prop_assert_eq!(&back.to_json(), &line);
        }
    }
}

#[test]
fn shard_trace_records_describe_routing_and_queue_depths() {
    let config = ShardConfig {
        shards: 3,
        batch_size: 8,
        queue_batches: 2,
    };
    let stream = keyed_stream(lcg_workload(400, 3, 6, 0xD47A));
    let cp =
        CompiledPattern::compile_single(&keyed_seq(3, 12, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let factory = tree_factory(cp);
    let ring = StdArc::new(RingSink::new(1 << 16));
    let r = ShardedRuntime::new(config.clone())
        .with_tracer(Tracer::to_sink(ring.clone()))
        .run(&factory, &stream, RoutingPolicy::HashAttr(0), true);

    let records = ring.snapshot();
    assert_eq!(
        ring.total_emitted(),
        records.len() as u64,
        "ring overflowed"
    );
    let mut routes = 0u64;
    let mut batch_events = vec![0u64; config.shards];
    for rec in &records {
        match rec {
            TraceRecord::ShardRoute {
                seq,
                shard,
                broadcast,
                ..
            } => {
                assert_eq!(seq % 64, 0, "route sampling is every 64th seq");
                assert!(!broadcast, "hash routing never broadcasts");
                assert!((*shard as usize) < config.shards);
                routes += 1;
            }
            TraceRecord::ShardBatch {
                shard,
                len,
                queue_depth,
            } => {
                assert!((*shard as usize) < config.shards);
                assert!(*len >= 1 && *len <= config.batch_size as u64);
                // Depth counts batches incremented at send and decremented
                // at receive: bounded by the channel capacity, plus the
                // batch being sent, plus one the worker has received but
                // not yet decremented.
                assert!(
                    *queue_depth >= 1 && *queue_depth <= config.queue_batches as u64 + 2,
                    "queue depth {queue_depth} out of range"
                );
                batch_events[*shard as usize] += len;
            }
            other => panic!("unexpected record kind {:?}", other.kind()),
        }
    }
    // Every 64th seq of the 400-event stream is sampled: seq 0, 64, ... 384.
    assert_eq!(routes, 7);
    for (shard, stats) in r.per_shard.iter().enumerate() {
        assert_eq!(
            batch_events[shard], stats.events_routed,
            "batch records must account for every routed event"
        );
    }
}

#[test]
fn export_exposes_per_shard_busy_times_and_imbalance() {
    let stream = keyed_stream(lcg_workload(300, 3, 5, 0xBA1A));
    let cp =
        CompiledPattern::compile_single(&keyed_seq(3, 12, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let factory = tree_factory(cp);
    let r = ShardedRuntime::with_shards(4).run(&factory, &stream, RoutingPolicy::Partition, true);

    let ratio = r.imbalance_ratio();
    assert!(
        ratio.is_finite() && ratio >= 1.0,
        "ratio {ratio} out of range"
    );
    assert!(ratio <= 4.0, "ratio {ratio} cannot exceed the shard count");

    let mut reg = MetricsRegistry::new();
    r.export(&mut reg, &[("run", "test")]);
    let text = reg.render_prometheus();
    validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    // The merged snapshot collapses per-shard wall times; the export must
    // surface one busy-time sample per shard so skew stays measurable.
    for shard in 0..4 {
        assert!(
            text.contains(&format!(
                "cep_shard_busy_ns_total{{run=\"test\",shard=\"{shard}\"}}"
            )),
            "missing per-shard busy time for shard {shard}:\n{text}"
        );
    }
    assert!(text.contains("cep_shard_imbalance_ratio{run=\"test\"}"));
    let json = reg.render_json();
    let doc = cep_obs::json::parse(&json).expect("registry JSON parses");
    assert!(doc.get("metrics").is_some());
}

#[test]
fn untraced_runtime_keeps_disabled_tracer() {
    let ring = StdArc::new(RingSink::new(16));
    let stream = keyed_stream(lcg_workload(50, 3, 4, 0x0FF));
    let cp =
        CompiledPattern::compile_single(&keyed_seq(3, 10, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let factory = tree_factory(cp);
    let tracer = Tracer::to_sink(ring.clone());
    tracer.set_enabled(false);
    ShardedRuntime::with_shards(2).with_tracer(tracer).run(
        &factory,
        &stream,
        RoutingPolicy::Partition,
        false,
    );
    assert_eq!(ring.total_emitted(), 0, "disabled tracer must stay silent");
}

// ---------------------------------------------------------------------------
// Multi-query shard layout: `run_registry` routes each partition once and
// feeds every registered query on that shard. Ground truth is one
// independent single-threaded engine per query.
// ---------------------------------------------------------------------------

use cep_core::compiled::PredicateProgram;
use cep_core::error::CepError;
use cep_core::plan::{OrderPlan, TreePlan};
use cep_core::registry::{FragmentBuilder, RegistrySpec};

/// Fragment builder over the left-deep tree in specification order,
/// threading the registry's cached predicate program through.
fn trivial_fragment_builder(cfg: EngineConfig) -> StdArc<dyn FragmentBuilder> {
    StdArc::new(
        move |cp: &CompiledPattern, program: StdArc<PredicateProgram>| {
            let plan = TreePlan::left_deep(&OrderPlan::trivial(cp));
            let engine = TreeEngine::with_program(cp.clone(), plan, cfg.clone(), program)?;
            Ok(Box::new(engine) as Box<dyn Engine>)
        },
    )
}

#[test]
fn run_registry_rejects_policy_unsound_for_any_member() {
    // q0 is partition-local on attribute 0; q1 joins across keys —
    // hash-attr routing is sound for the first but not the set.
    let cfg = EngineConfig::default();
    let mut spec = RegistrySpec::new(trivial_fragment_builder(cfg.clone()));
    spec.add(&keyed_seq(2, 10, SelectionStrategy::SkipTillAnyMatch))
        .unwrap();
    spec.add(&cross_key_seq(12, SelectionStrategy::SkipTillAnyMatch))
        .unwrap();
    let stream = keyed_stream(lcg_workload(10, 3, 4, 1));
    let err = ShardedRuntime::with_shards(2)
        .run_registry(&spec, &stream, RoutingPolicy::HashAttr(0), true)
        .unwrap_err();
    assert!(matches!(err, CepError::Routing(_)), "got {err:?}");
}

#[test]
fn run_registry_worker_panic_is_a_typed_error() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let stream = keyed_stream(lcg_workload(200, 3, 4, 0xBEEF));
    let pattern = keyed_seq(2, 10, SelectionStrategy::SkipTillAnyMatch);
    let cfg = EngineConfig::default();
    // Every worker's builder panics: the lowest shard is named.
    let always: StdArc<dyn FragmentBuilder> = StdArc::new(
        |_: &CompiledPattern, _: StdArc<PredicateProgram>| -> Result<Box<dyn Engine>, CepError> {
            panic!("fragment builder exploded")
        },
    );
    let mut spec = RegistrySpec::new(always);
    spec.add(&pattern).unwrap();
    for shards in [1usize, 3] {
        let err = ShardedRuntime::with_shards(shards)
            .run_registry(&spec, &stream, RoutingPolicy::HashAttr(0), true)
            .unwrap_err();
        assert_eq!(
            err,
            CepError::Worker {
                shard: 0,
                message: "fragment builder exploded".into()
            }
        );
    }
    // One worker of three dies (a formatted panic message); the others
    // run to completion and the call still returns the typed error.
    let calls = StdArc::new(AtomicUsize::new(0));
    let inner = trivial_fragment_builder(cfg.clone());
    let counted = StdArc::clone(&calls);
    let once: StdArc<dyn FragmentBuilder> = StdArc::new(
        move |cp: &CompiledPattern, program: StdArc<PredicateProgram>| {
            let call = counted.fetch_add(1, Ordering::SeqCst);
            if call == 1 {
                panic!("fragment builder exploded on call {call}");
            }
            inner.build_fragment(cp, program)
        },
    );
    let mut spec = RegistrySpec::new(once);
    spec.add(&pattern).unwrap();
    let err = ShardedRuntime::with_shards(3)
        .run_registry(&spec, &stream, RoutingPolicy::HashAttr(0), true)
        .unwrap_err();
    match err {
        CepError::Worker { shard, message } => {
            assert!(shard < 3);
            assert_eq!(message, "fragment builder exploded on call 1");
        }
        other => panic!("expected a worker error, got {other:?}"),
    }
    assert_eq!(calls.load(Ordering::SeqCst), 3, "every worker ran");
}

#[test]
fn run_registry_empty_spec_is_a_routing_error() {
    let cfg = EngineConfig::default();
    let spec = RegistrySpec::new(trivial_fragment_builder(cfg.clone()));
    let stream = keyed_stream(vec![]);
    let err = ShardedRuntime::with_shards(2)
        .run_registry(&spec, &stream, RoutingPolicy::RoundRobin, true)
        .unwrap_err();
    assert!(matches!(err, CepError::Routing(_)), "got {err:?}");
}

/// An engine that panics on its third event.
struct PanicsOnThird {
    inner: Box<dyn Engine>,
    seen: usize,
}

impl Engine for PanicsOnThird {
    fn process(&mut self, event: &cep_core::event::EventRef, out: &mut Vec<Match>) {
        self.seen += 1;
        if self.seen == 3 {
            panic!("engine exploded on event {}", self.seen);
        }
        self.inner.process(event, out);
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        self.inner.flush(out);
    }

    fn metrics(&self) -> &cep_core::metrics::EngineMetrics {
        self.inner.metrics()
    }

    fn metrics_mut(&mut self) -> &mut cep_core::metrics::EngineMetrics {
        self.inner.metrics_mut()
    }

    fn name(&self) -> &'static str {
        "panics-on-third"
    }
}

fn panicking_factory(cp: CompiledPattern) -> impl EngineFactory {
    let inner = tree_factory(cp);
    move || {
        Box::new(PanicsOnThird {
            inner: inner.build(),
            seen: 0,
        }) as Box<dyn Engine>
    }
}

#[test]
fn run_query_worker_panic_is_a_typed_error() {
    let stream = keyed_stream(lcg_workload(200, 3, 4, 0xBEEF));
    let cp =
        CompiledPattern::compile_single(&keyed_seq(2, 10, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let factory = panicking_factory(cp.clone());
    for shards in [1usize, 3] {
        let runtime = ShardedRuntime::with_shards(shards);
        // Every shard gets at least three events, so every worker dies:
        // the lowest shard is named.
        let r = runtime.run(
            &tree_factory(cp.clone()),
            &stream,
            RoutingPolicy::HashAttr(0),
            false,
        );
        assert!(r.per_shard.iter().all(|s| s.events_routed >= 3));
        let err = runtime
            .run_query(
                &factory,
                &stream,
                RoutingPolicy::HashAttr(0),
                std::slice::from_ref(&cp),
                true,
            )
            .unwrap_err();
        assert_eq!(
            err,
            CepError::Worker {
                shard: 0,
                message: "engine exploded on event 3".into()
            }
        );
    }
}

#[test]
#[should_panic(expected = "shard 0 worker panicked: engine exploded on event 3")]
fn run_panics_with_the_worker_error_text() {
    let stream = keyed_stream(lcg_workload(200, 3, 4, 0xBEEF));
    let cp =
        CompiledPattern::compile_single(&keyed_seq(2, 10, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    ShardedRuntime::with_shards(3).run(
        &panicking_factory(cp),
        &stream,
        RoutingPolicy::HashAttr(0),
        true,
    );
}

// ---------------------------------------------------------------------------
// Merge order under dense ties: worker-side run sorts plus the k-way merge
// must return, element for element, what one cached `(emitted_at, last_ts,
// signature())` key per match sorts the serial output into.
// ---------------------------------------------------------------------------

use crate::{RouteTarget, ShardRouter};
use std::collections::{HashMap, HashSet};

/// The reference order: one cached `(emitted_at, last_ts, signature())`
/// key per match, kept here independent of [`canonical_sort`].
fn cached_key_order(mut matches: Vec<Match>) -> Vec<Match> {
    matches.sort_by_cached_key(|m| (m.emitted_at, m.last_ts, m.signature()));
    matches
}

/// The serial NFA output of `pattern` on `stream` in reference order.
fn serial_in_cached_key_order(pattern: &Pattern, stream: &EventStream) -> Vec<Match> {
    let cp = CompiledPattern::compile_single(pattern).unwrap();
    let mut engine = tree_factory(cp).build();
    cached_key_order(run_to_completion(engine.as_mut(), stream, true).matches)
}

/// Asserts that, at 1/2/4/8/16 shards, `run` under every policy and
/// `run_registry` under the first (the one its routing check accepts)
/// return `expected` in order.
fn assert_sharded_order(
    pattern: &Pattern,
    stream: &EventStream,
    policies: &[RoutingPolicy],
    expected: &[Match],
) {
    let factory = tree_factory(CompiledPattern::compile_single(pattern).unwrap());
    let mut spec = RegistrySpec::new(trivial_fragment_builder(EngineConfig::default()));
    let id = spec.add(pattern).unwrap();
    for shards in [1usize, 2, 4, 8, 16] {
        let runtime = ShardedRuntime::with_shards(shards);
        for policy in policies {
            let r = runtime.run(&factory, stream, policy.clone(), true);
            assert_eq!(r.matches, expected, "run under {policy}, {shards} shards");
        }
        let r = runtime
            .run_registry(&spec, stream, policies[0].clone(), true)
            .unwrap();
        assert_eq!(
            r.per_query[&id], expected,
            "run_registry under {}, {shards} shards",
            policies[0]
        );
    }
}

/// Size of the largest group of matches sharing `(emitted_at, last_ts)`.
fn largest_tie(matches: &[Match]) -> usize {
    let mut groups: HashMap<(u64, u64), usize> = HashMap::new();
    for m in matches {
        *groups.entry((m.emitted_at, m.last_ts)).or_default() += 1;
    }
    groups.into_values().max().unwrap_or(0)
}

/// Twenty matches complete on each `C`, and all four keys' `C`s share a
/// timestamp: runs of 80 matches with equal `(emitted_at, last_ts)`,
/// within one shard and across shards, ordered by signature alone.
#[test]
fn merge_orders_dense_completion_ties_like_the_cached_key_sort() {
    let mut events = Vec::new();
    for round in 0..3u64 {
        let base = round * 100;
        for i in 0..5 {
            (0..4).for_each(|key| events.push((0, base + i, key)));
        }
        for i in 0..4 {
            (0..4).for_each(|key| events.push((1, base + 10 + i, key)));
        }
        (0..4).for_each(|key| events.push((2, base + 50, key)));
    }
    let stream = keyed_stream(events);
    let pattern = keyed_seq(3, 60, SelectionStrategy::SkipTillAnyMatch);
    let expected = serial_in_cached_key_order(&pattern, &stream);
    assert_eq!(expected.len(), 3 * 4 * 5 * 4);
    assert_eq!(largest_tie(&expected), 4 * 5 * 4);
    assert_sharded_order(
        &pattern,
        &stream,
        &[RoutingPolicy::HashAttr(0), RoutingPolicy::Partition],
        &expected,
    );
}

/// `SEQ(A a, C c, NOT(N n))`, keyed on attribute 0: the trailing negation
/// defers emission past the last bound event (`emitted_at > last_ts`),
/// and parked matches are released in no particular order. Every key has
/// an event at every tick (type 3 only advances the watermark), so each
/// shard's watermark keeps step with the unsplit stream's and the
/// deferred emissions stay exact under splitting.
#[test]
fn merge_orders_trailing_negation_releases_like_the_cached_key_sort() {
    let mut b = PatternBuilder::new(6);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let n = b.event(t(2), "n");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
    b.predicate(Predicate::attr_cmp(n.pos(), 0, CmpOp::Eq, a.pos(), 0));
    let (ae, ce, ne) = (b.expr(a), b.expr(c), b.not(n));
    let pattern = b.seq_exprs([ae, ce, ne]).unwrap();
    let mut state = 0x7A11u64;
    let mut events = Vec::new();
    for ts in 0..120u64 {
        for key in 0..4 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tid = [0, 0, 0, 1, 1, 1, 2, 3, 3, 3][((state >> 33) % 10) as usize];
            events.push((tid, ts, key));
        }
    }
    let stream = keyed_stream(events);
    let expected = serial_in_cached_key_order(&pattern, &stream);
    let mid_stream_deferred = expected
        .iter()
        .filter(|m| m.last_ts < m.emitted_at && m.emitted_at < u64::MAX)
        .count();
    assert!(
        mid_stream_deferred >= 20,
        "fixture must defer mid-stream emissions (got {mid_stream_deferred})"
    );
    assert!(largest_tie(&expected) >= 2, "fixture must tie releases");
    assert_sharded_order(
        &pattern,
        &stream,
        &[RoutingPolicy::HashAttr(0), RoutingPolicy::Partition],
        &expected,
    );
}

/// A fully replicated `SEQ(A a, C c, NOT(N n))`: every shard detects
/// every match, but type-3 events route by channel and advance only one
/// shard's watermark, so the copies of one match are released at
/// different `emitted_at`. The merge must keep the canonically first
/// (earliest) copy — the serial engine's.
#[test]
fn replicate_join_dedup_keeps_the_earliest_released_copy() {
    let mut b = PatternBuilder::new(6);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let n = b.event(t(2), "n");
    let (ae, ce, ne) = (b.expr(a), b.expr(c), b.not(n));
    let pattern = b.seq_exprs([ae, ce, ne]).unwrap();
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let spec = QueryPartitioner::analyze(std::slice::from_ref(&cp), |_| 1.0).unwrap();
    assert!(spec.is_fully_replicated(), "no keys: everything broadcast");
    let policy = RoutingPolicy::ReplicateJoin(StdArc::new(spec));
    let mut state = 0xDE0Du64;
    let mut events = Vec::new();
    for ts in 0..150u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let tid = [0, 0, 1, 1, 2, 3, 3, 3, 3, 3][((state >> 33) % 10) as usize];
        events.push((tid, ts, 0, ((state >> 45) % 16) as i64));
    }
    let stream = cross_key_stream(events);
    let expected = serial_in_cached_key_order(&pattern, &stream);
    assert!(!expected.is_empty(), "fixture should produce matches");
    // The fixture is only meaningful if some match's copies differ in
    // `emitted_at`: replay each shard's slice through its own engine.
    let shards = 4;
    let mut router = ShardRouter::new(shards, policy.clone());
    let mut slices: Vec<EventStream> = vec![Vec::new(); shards];
    for e in &stream {
        match router.route_target(e) {
            RouteTarget::One(s) => slices[s].push(e.clone()),
            RouteTarget::All => slices.iter_mut().for_each(|s| s.push(e.clone())),
        }
    }
    let mut released: HashMap<_, HashSet<u64>> = HashMap::new();
    for slice in &slices {
        for m in serial_in_cached_key_order(&pattern, slice) {
            released
                .entry(m.signature())
                .or_default()
                .insert(m.emitted_at);
        }
    }
    assert!(
        released.values().any(|at| at.len() > 1),
        "fixture must release some match at different watermarks on different shards"
    );
    assert_sharded_order(&pattern, &stream, std::slice::from_ref(&policy), &expected);
    let r = ShardedRuntime::with_shards(shards).run(&tree_factory(cp), &stream, policy, true);
    assert_eq!(
        r.metrics.dedup_hits,
        (shards as u64 - 1) * expected.len() as u64
    );
}
