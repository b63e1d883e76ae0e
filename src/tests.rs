//! The composition matrix over the sharded runtime, the adaptive wrapper,
//! the tree engine and every order plan: each test runs its fixtures through
//! [`conformance::check`](crate::conformance::check), which holds every
//! run to the naive oracle's matches and to the bare engine's metrics.

use crate::builder::Backend;
use crate::conformance::{
    check, check_config, check_every_order, comparable, eager, standard_backends, Checked,
    Composition, Entry, Replan, Route, SeededBackend,
};
use cep_adaptive::{AdaptiveConfig, PlanReplanner};
use cep_core::compile::CompiledPattern;
use cep_core::engine::{run_to_completion, EngineConfig};
use cep_core::error::CepError;
use cep_core::event::{Event, TypeId};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::naive::NaiveEngine;
use cep_core::partition::{PartitionSpec, QueryPartitioner, TypeDisposition};
use cep_core::pattern::{Pattern, PatternBuilder, PatternExpr};
use cep_core::predicate::{CmpOp, Predicate};
use cep_core::selection::SelectionStrategy;
use cep_core::stats::MeasuredStats;
use cep_core::stream::{EventStream, StreamBuilder};
use cep_core::value::Value;
use cep_optimizer::{OrderAlgorithm, Planner};
use cep_shard::{RoutingPolicy, ShardedRuntime};
use proptest::prelude::*;

const EXACT: [SelectionStrategy; 3] = [
    SelectionStrategy::SkipTillAnyMatch,
    SelectionStrategy::StrictContiguity,
    SelectionStrategy::PartitionContiguity,
];

const ANY: SelectionStrategy = SelectionStrategy::SkipTillAnyMatch;

fn t(i: u32) -> TypeId {
    TypeId(i)
}

/// [`check`] under [`check_config`] with plans from seed 0.
fn run(
    c: &Composition,
    b: &SeededBackend,
    s: SelectionStrategy,
    p: &Pattern,
    stream: &EventStream,
) -> Checked {
    check(c, b, 0, &check_config(), s, p, stream)
}

/// [`run`] over the order-plan backend under skip-till-any-match.
fn nfa(c: &Composition, pattern: &Pattern, stream: &EventStream) -> Checked {
    run(c, &standard_backends()[0], ANY, pattern, stream)
}

/// [`run`] over every backend; the oracle's match count.
fn every(c: &Composition, s: SelectionStrategy, pattern: &Pattern, stream: &EventStream) -> u64 {
    let run = |b: &SeededBackend| run(c, b, s, pattern, stream).matches;
    standard_backends().iter().map(run).max().unwrap_or(0)
}

/// The replicate-join spec of `pattern` at uniform rates.
fn spec_of(pattern: &Pattern) -> PartitionSpec {
    let branches = CompiledPattern::compile(pattern).unwrap();
    QueryPartitioner::analyze(&branches, |_| 1.0).unwrap()
}

fn forced(config: AdaptiveConfig) -> Composition {
    let replan = Replan::Forced { history_ms: 0 };
    Composition::Adaptive { replan, config }
}

/// `len` events from the LCG at `seed`; `draw` maps each state to a type,
/// a time step, integer attributes and a partition.
fn lcg_stream(
    len: u64,
    seed: u64,
    mut draw: impl FnMut(u64) -> (u32, u64, Vec<i64>, u32),
) -> EventStream {
    let (mut b, mut ts, mut state) = (StreamBuilder::new(), 0, seed);
    for _ in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (tid, dt, attrs, partition) = draw(state);
        ts += dt;
        let attrs = attrs.into_iter().map(Value::Int).collect();
        b.push_partitioned(Event::new(t(tid), ts, attrs), partition);
    }
    b.build()
}

// ---------------------------------------------------------------------------
// Sharded runs: partition-local queries under split routing, and any query
// under replicate-join routing.
// ---------------------------------------------------------------------------

/// `(type, ts, key)` events whose attribute 0 is the routing key; the
/// partition mirrors it.
fn keyed_stream(events: Vec<(u32, u64, i64)>) -> EventStream {
    let mut b = StreamBuilder::new();
    for (tid, ts, key) in events {
        b.push_partitioned(Event::new(t(tid), ts, vec![Value::Int(key)]), key as u32);
    }
    b.build()
}

/// `SEQ` of `n` types whose predicates equate attribute 0 across all
/// positions — the partition-keyed query shape sharding is exact for.
fn keyed_seq(n: usize, window: u64) -> Pattern {
    let mut b = PatternBuilder::new(window);
    let evs: Vec<_> = (0..n)
        .map(|i| b.event(t(i as u32), &format!("e{i}")))
        .collect();
    for w in evs.windows(2) {
        b.predicate(Predicate::attr_cmp(w[0].pos(), 0, CmpOp::Eq, w[1].pos(), 0));
    }
    b.seq(evs).unwrap()
}

/// A pseudo-random keyed workload: `types` types, `keys` keys.
fn lcg_workload(len: u64, types: u32, keys: i64, seed: u64) -> EventStream {
    lcg_stream(len, seed, |s| {
        let (ty, key) = ((s >> 33) % types as u64, ((s >> 20) % keys as u64) as i64);
        (ty as u32, (s >> 50) % 3, vec![key], key as u32)
    })
}

/// `(type, ts, key, channel)` events; the partition mirrors the channel,
/// NOT the key — the cross-partition shape split routing gets wrong.
fn cross_key_stream(events: Vec<(u32, u64, i64, i64)>) -> EventStream {
    let mut b = StreamBuilder::new();
    for (tid, ts, key, chan) in events {
        let attrs = vec![Value::Int(key), Value::Int(chan)];
        b.push_partitioned(Event::new(t(tid), ts, attrs), chan as u32);
    }
    b.build()
}

/// `SEQ(A a, B b, C c)` with `a.0 == b.0` only: A and B are key-linked
/// (partitioned), C is unkeyed (must be replicated for exactness).
fn cross_key_seq(window: u64) -> Pattern {
    let mut b = PatternBuilder::new(window);
    let (a, bb, c) = (b.event(t(0), "a"), b.event(t(1), "b"), b.event(t(2), "c"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
    b.seq([a, bb, c]).unwrap()
}

/// A pseudo-random cross-key workload: key and channel drawn
/// independently, so key groups straddle channels.
fn lcg_cross_key_workload(len: u64, keys: i64, chans: i64, seed: u64) -> EventStream {
    lcg_stream(len, seed, |s| {
        let (ty, key) = ((s >> 33) % 3, ((s >> 20) % keys as u64) as i64);
        let chan = ((s >> 45) % chans as u64) as i64;
        (ty as u32, (s >> 50) % 3, vec![key, chan], chan as u32)
    })
}

#[test]
fn sharded_equals_single_threaded_for_every_exact_strategy() {
    let stream = lcg_workload(160, 3, 4, 0xC0FFEE);
    for strategy in EXACT {
        for route in [Route::Partition, Route::HashAttr(0)] {
            for shards in [1, 2, 4] {
                let c = Composition::sharded(shards, route, Entry::Run, true);
                every(&c, strategy, &keyed_seq(3, 12), &stream);
            }
        }
    }
}

#[test]
fn any_match_sharded_run_agrees_with_naive_oracle() {
    let stream = lcg_workload(100, 3, 3, 0xBEEF);
    let c = Composition::sharded(4, Route::Partition, Entry::Run, true);
    assert!(every(&c, ANY, &keyed_seq(3, 10), &stream) > 0);
}

#[test]
fn shard_count_does_not_change_results() {
    let stream = lcg_workload(200, 3, 8, 7);
    for shards in [1, 2, 4] {
        for collect in [true, false] {
            let c = Composition::sharded(shards, Route::Partition, Entry::Run, collect);
            assert!(nfa(&c, &keyed_seq(3, 15), &stream).matches > 0);
        }
    }
}

proptest! {
    /// For random partitioned keyed workloads, all three exact selection
    /// strategies, both split routing policies and every backend, the
    /// sharded run is the oracle's. (Skip-till-next-match is greedy and
    /// interleaving-dependent; see cep-shard's
    /// `next_match_sharded_runs_are_valid_disjoint_and_deterministic`.)
    #[test]
    fn sharded_equals_single_threaded_on_random_workloads(
        raw in prop::collection::vec((0u32..3, 0u64..3, 0i64..4), 1..70),
        shards_pow in 0u32..3,
        strategy_idx in 0usize..3,
        policy_idx in 0usize..2,
    ) {
        let mut ts = 0u64;
        let events = raw.into_iter().map(|(tid, dt, key)| {
            ts += dt;
            (tid, ts, key)
        });
        let route = [Route::Partition, Route::HashAttr(0)][policy_idx];
        let c = Composition::sharded(1 << shards_pow, route, Entry::Run, true);
        every(&c, EXACT[strategy_idx], &keyed_seq(3, 10), &keyed_stream(events.collect()));
    }
}

#[test]
fn replicate_join_equals_single_threaded_for_every_exact_strategy() {
    let stream = lcg_cross_key_workload(160, 4, 5, 0xCA11);
    for strategy in EXACT {
        for shards in [1, 2, 4] {
            let c = Composition::sharded(shards, Route::ReplicateJoin, Entry::Run, true);
            every(&c, strategy, &cross_key_seq(12), &stream);
        }
    }
}

/// The classic wrong-answer shape the replicate-join layer exists for:
/// split-only routing silently loses cross-shard matches, `run_query`
/// refuses it, and replicate-join recovers the full match set.
#[test]
fn replicate_join_recovers_matches_split_routing_loses() {
    let (stream, pattern) = (lcg_cross_key_workload(200, 4, 7, 0x90DD), cross_key_seq(12));
    let branches = CompiledPattern::compile(&pattern).unwrap();
    let factory = || standard_backends()[0].build(&branches[0], 0, &check_config());
    let (runtime, split) = (ShardedRuntime::with_shards(4), RoutingPolicy::Partition);
    let lossy = runtime.run(&factory, &stream, split.clone(), true);
    let refused = runtime.run_query(&factory, &stream, split, &branches, true);
    assert!(matches!(refused, Err(CepError::Routing(_))));
    for entry in [Entry::Run, Entry::RunQuery] {
        let c = Composition::sharded(4, Route::ReplicateJoin, entry, true);
        let exact = nfa(&c, &pattern, &stream).matches;
        assert!(lossy.match_count < exact, "the fixture crosses partitions");
    }
}

#[test]
fn replicate_join_agrees_with_naive_oracle() {
    let stream = lcg_cross_key_workload(110, 3, 4, 0xFACE);
    let c = Composition::sharded(4, Route::ReplicateJoin, Entry::Run, true);
    assert!(nfa(&c, &cross_key_seq(10), &stream).matches > 0);
}

proptest! {
    /// For random cross-key workloads, all three exact strategies, 1, 2
    /// and 4 shards and every backend, the replicate-join run is the
    /// oracle's.
    #[test]
    fn replicate_join_equals_single_threaded_on_random_workloads(
        raw in prop::collection::vec((0u32..3, 0u64..3, 0i64..4, 0i64..4), 1..60),
        shards_pow in 0u32..3,
        strategy_idx in 0usize..3,
    ) {
        let mut ts = 0u64;
        let events = raw.into_iter().map(|(tid, dt, key, chan)| {
            ts += dt;
            (tid, ts, key, chan)
        });
        let stream = cross_key_stream(events.collect());
        let c = Composition::sharded(1 << shards_pow, Route::ReplicateJoin, Entry::Run, true);
        every(&c, EXACT[strategy_idx], &cross_key_seq(10), &stream);
    }
}

#[test]
fn run_registry_equals_independent_engines_per_query() {
    let stream = lcg_workload(200, 3, 4, 0xBEEF);
    // Three queries, two of them identical: the registry shares one
    // fragment between q0 and q2, and q1 rides the same routed stream.
    let others = vec![keyed_seq(3, 12), keyed_seq(2, 10)];
    for shards in [1, 2, 4] {
        let entry = Entry::RunRegistry {
            others: others.clone(),
        };
        let c = Composition::sharded(shards, Route::HashAttr(0), entry, true);
        let checked = nfa(&c, &keyed_seq(2, 10), &stream);
        // Every worker registered the whole set and shared the duplicate.
        let (m, shards) = (&checked.metrics, shards as u64);
        assert!(checked.matches > 0, "fixture should produce matches");
        assert_eq!(m.registered_queries, 3 * shards);
        assert_eq!(m.shared_fragments, shards);
        assert!(m.fanout_emits > m.matches_emitted, "q0 and q2 share");
    }
}

#[test]
fn run_equals_a_one_query_run_registry() {
    let keyed = lcg_workload(240, 3, 5, 0x0E1);
    let cross = lcg_cross_key_workload(160, 4, 5, 0x5EED);
    let contiguity = SelectionStrategy::PartitionContiguity;
    let cases = [
        (contiguity, keyed_seq(3, 12), &keyed, Route::Partition),
        (ANY, keyed_seq(3, 12), &keyed, Route::HashAttr(0)),
        (ANY, cross_key_seq(12), &cross, Route::ReplicateJoin),
    ];
    let entries = [
        Entry::Run,
        Entry::RunQuery,
        Entry::RunRegistry { others: vec![] },
    ];
    for (strategy, pattern, stream, route) in cases {
        for (shards, collect) in [1, 2, 4].into_iter().flat_map(|s| [(s, true), (s, false)]) {
            for entry in entries.clone() {
                let c = Composition::sharded(shards, route, entry, collect);
                let checked = run(&c, &standard_backends()[0], strategy, &pattern, stream);
                assert!(checked.matches > 0, "{c:?}: vacuous case");
                let broadcast = route == Route::ReplicateJoin && shards > 1;
                assert_eq!(checked.metrics.replicated_events > 0, broadcast, "{c:?}");
            }
        }
    }
}

#[test]
fn metrics_are_aggregated_across_shards() {
    // Every count and peak, per shard and merged, is the serial engines'.
    let c = Composition::sharded(4, Route::Partition, Entry::Run, true);
    let m = nfa(&c, &keyed_seq(3, 12), &lcg_workload(150, 3, 4, 5)).metrics;
    assert!(m.wall_time_ns > 0 && m.throughput_eps() > 0.0);
}

#[test]
fn uncollected_runs_still_count_matches() {
    let c = Composition::sharded(2, Route::Partition, Entry::Run, false);
    nfa(&c, &keyed_seq(3, 12), &lcg_workload(150, 3, 4, 5));
}

#[test]
fn round_robin_is_exact_for_filter_patterns() {
    // Single-element pattern: no joins, so splitting key groups is harmless.
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    b.predicate(Predicate::attr_const(a.pos(), 0, CmpOp::Ge, Value::Int(3)));
    let pattern = b.seq([a]).unwrap();
    let c = Composition::sharded(4, Route::RoundRobin, Entry::Run, true);
    assert!(nfa(&c, &pattern, &lcg_workload(120, 2, 6, 11)).matches > 0);
}

#[test]
fn empty_stream_yields_empty_result() {
    let c = Composition::sharded(4, Route::Partition, Entry::Run, true);
    assert_eq!(nfa(&c, &keyed_seq(2, 10), &vec![]).matches, 0);
}

#[test]
fn single_event_stream_is_routed_and_matched() {
    // The smallest possible sharded run must still produce the match, on
    // every policy.
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let pattern = b.seq([a]).unwrap();
    for route in [Route::Partition, Route::HashAttr(0), Route::RoundRobin] {
        let c = Composition::sharded(4, route, Entry::Run, true);
        assert_eq!(nfa(&c, &pattern, &keyed_stream(vec![(0, 5, 2)])).matches, 1);
    }
}

/// A query with no equality structure replicates everything: every shard
/// detects every match and the merge must collapse them to exactly the
/// single-threaded result, counting the suppressed copies.
#[test]
fn replicated_only_matches_are_deduplicated() {
    let mut b = PatternBuilder::new(8);
    let (a, c) = (b.event(t(0), "a"), b.event(t(1), "c"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
    let pattern = b.seq([a, c]).unwrap();
    assert!(spec_of(&pattern).is_fully_replicated(), "no keys");
    for shards in [2, 4] {
        let c = Composition::sharded(shards, Route::ReplicateJoin, Entry::Run, true);
        let checked = nfa(&c, &pattern, &lcg_cross_key_workload(60, 3, 4, 0xD0D0));
        assert!(checked.matches > 0, "fixture should produce matches");
        let copies = (shards as u64 - 1) * checked.matches;
        assert_eq!(checked.metrics.dedup_hits, copies, "re-detected per shard");
    }
}

#[test]
fn replicate_join_metrics_account_for_broadcast() {
    let stream = lcg_cross_key_workload(150, 4, 5, 0xB00);
    let replicated_sources = stream.iter().filter(|e| e.type_id == t(2)).count() as u64;
    for shards in [1, 4] {
        let c = Composition::sharded(shards, Route::ReplicateJoin, Entry::Run, true);
        let m = nfa(&c, &cross_key_seq(10), &stream).metrics;
        let extra = replicated_sources * (shards as u64 - 1);
        assert_eq!(m.replicated_events, extra, "shards - 1 extra each");
    }
}

#[test]
fn replicate_join_uncollected_runs_count_distinct_matches() {
    let c = Composition::sharded(4, Route::ReplicateJoin, Entry::Run, false);
    let stream = lcg_cross_key_workload(140, 3, 5, 0xC0DE);
    nfa(&c, &cross_key_seq(10), &stream);
}

/// Negation under replicate-join, both ways the partitioner can classify
/// the negated type: key-linked (partitioned with the match key) and
/// unkeyed (broadcast so no shard misses a forbidding event).
#[test]
fn replicate_join_with_internal_negation_stays_exact() {
    for keyed_negation in [true, false] {
        let mut b = PatternBuilder::new(14);
        let (a, n, c) = (b.event(t(0), "a"), b.event(t(1), "n"), b.event(t(2), "c"));
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
        if keyed_negation {
            b.predicate(Predicate::attr_cmp(n.pos(), 0, CmpOp::Eq, a.pos(), 0));
        }
        let exprs = [b.expr(a), b.not(n), b.expr(c)];
        let pattern = b.seq_exprs(exprs).unwrap();
        let negated = match keyed_negation {
            true => TypeDisposition::Partitioned { attr: 0 },
            false => TypeDisposition::Replicated,
        };
        assert_eq!(spec_of(&pattern).disposition(t(1)), Some(negated));
        let stream = lcg_cross_key_workload(150, 3, 4, 0x707 + keyed_negation as u64);
        for shards in [2, 4] {
            let c = Composition::sharded(shards, Route::ReplicateJoin, Entry::Run, true);
            assert!(nfa(&c, &pattern, &stream).matches > 0, "some survive");
        }
    }
}

/// A fully keyed query under replicate-join routing broadcasts nothing,
/// so the runtime keeps the flat-memory count-and-discard path while
/// still counting exactly.
#[test]
fn fully_partitioned_replicate_join_keeps_count_and_discard_path() {
    let pattern = keyed_seq(3, 12);
    assert!(spec_of(&pattern).is_fully_partitioned(), "keyed");
    for collect in [true, false] {
        let c = Composition::sharded(4, Route::ReplicateJoin, Entry::Run, collect);
        let checked = nfa(&c, &pattern, &lcg_workload(150, 3, 4, 0xFA57));
        assert!(checked.matches > 0, "fixture should produce matches");
        assert_eq!(checked.metrics.replicated_events, 0, "nothing broadcast");
    }
}

/// Regression for the unsound positive-bridging-through-negation spec:
/// `a.0 == n.0` and `n.0 == c.0` under NOT(N) must not be treated as
/// `a.0 == c.0` — a match may bind different keys for A and C whenever no
/// violating N exists, so one positive side has to be replicated.
#[test]
fn negation_bridged_positives_stay_exact_under_replicate_join() {
    let mut b = PatternBuilder::new(14);
    let (a, n, c) = (b.event(t(0), "a"), b.event(t(1), "n"), b.event(t(2), "c"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, n.pos(), 0));
    b.predicate(Predicate::attr_cmp(n.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let exprs = [b.expr(a), b.not(n), b.expr(c)];
    let pattern = b.seq_exprs(exprs).unwrap();
    let spec = spec_of(&pattern);
    assert!(spec.replicated_types().count() >= 1, "{spec}");
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let stream = lcg_cross_key_workload(160, 3, 4, 0xB71D);
    let mut naive = NaiveEngine::new(cp, check_config());
    let oracle = run_to_completion(&mut naive, &stream, true).matches;
    let keys = |m: &Match| m.events().map(|e| e.attr(0).cloned()).collect::<Vec<_>>();
    assert!(oracle.iter().any(|m| keys(m)[0] != keys(m)[1]), "cross-key");
    for shards in [2, 4] {
        let c = Composition::sharded(shards, Route::ReplicateJoin, Entry::Run, true);
        nfa(&c, &pattern, &stream);
    }
}

#[test]
fn run_registry_replicate_join_dedups_per_query() {
    // The same cross-partition query registered twice: replicated-only
    // matches surface on every shard and are deduplicated per query.
    let stream = lcg_cross_key_workload(160, 4, 5, 0x5EED);
    for shards in [1, 2, 4] {
        let entry = Entry::RunRegistry {
            others: vec![cross_key_seq(12)],
        };
        let c = Composition::sharded(shards, Route::ReplicateJoin, entry, true);
        let m = nfa(&c, &cross_key_seq(12), &stream).metrics;
        assert_eq!(m.replicated_events > 0, shards > 1, "broadcasts count");
    }
}

#[test]
fn run_registry_uncollected_still_counts_per_query() {
    let entry = Entry::RunRegistry {
        others: vec![keyed_seq(3, 12)],
    };
    let c = Composition::sharded(3, Route::HashAttr(0), entry, false);
    nfa(&c, &keyed_seq(2, 10), &lcg_workload(200, 3, 4, 0xBEEF));
}

/// Per-worker adaptivity: every shard owns an `AdaptiveEngine` and
/// replans on the statistics of its own slice. For a partition-local
/// query both exactness guarantees hold at once.
#[test]
fn sharded_adaptive_engines_replan_per_worker_and_stay_exact() {
    // Two-phase keyed workload: type 0 frequent / type 2 rare, flipping at
    // the halfway point; keys cycle so every shard sees the same drift.
    let mut events = Vec::new();
    for (phase, (every_a, every_c)) in [(1, 30), (30, 1)].into_iter().enumerate() {
        for i in 0..600u64 {
            let ts = phase as u64 * 600 + i;
            if i % every_a == 0 {
                events.push((0, ts, (i % 4) as i64));
            }
            if i % 5 == 0 {
                events.push((1, ts, (i / 5 % 4) as i64));
            }
            if i % every_c == 0 {
                events.push((2, ts, (i / 7 % 4) as i64));
            }
        }
    }
    fn replanner(branches: &[CompiledPattern]) -> PlanReplanner {
        let mut phase1 = MeasuredStats::default();
        for (ty, rate) in [(0, 1.0), (1, 0.2), (2, 1.0 / 30.0)] {
            phase1.set_rate(t(ty), rate);
        }
        let sels = vec![(branches[0].clone(), vec![1.0, 1.0])];
        let algorithm = Backend::Nfa(OrderAlgorithm::DpLd);
        PlanReplanner::new(sels, &phase1, Planner::default(), algorithm, check_config()).unwrap()
    }
    let config = AdaptiveConfig {
        horizon_ms: 100,
        drift_threshold: 0.5,
        check_every: 32,
        cooldown_events: 64,
        ..AdaptiveConfig::default()
    };
    let stream = keyed_stream(events);
    for shards in [2, 4] {
        let entry = Entry::RunAdaptive {
            replanner,
            config: config.clone(),
        };
        let c = Composition::sharded(shards, Route::Partition, entry, true);
        let checked = nfa(&c, &keyed_seq(3, 12), &stream);
        let m = &checked.metrics;
        assert!(checked.matches > 0, "fixture should produce matches");
        assert!(m.plan_swaps >= shards as u64, "every worker replans");
        assert!(m.replayed_events > 0, "swaps must replay state");
    }
}

// ---------------------------------------------------------------------------
// Adaptive runs: forced and drift-driven plan swaps leave the output and
// the engine-layer counters exactly the oracle's and the bare engine's.
// ---------------------------------------------------------------------------

/// `SEQ` of `n` distinct types, no predicates.
fn seq_pattern(n: usize, window: u64) -> Pattern {
    let mut b = PatternBuilder::new(window);
    let evs: Vec<_> = (0..n)
        .map(|i| b.event(t(i as u32), &format!("e{i}")))
        .collect();
    b.seq(evs).unwrap()
}

/// A pseudo-random workload of `types` types without attributes.
fn plain_workload(len: u64, types: u32, seed: u64) -> EventStream {
    lcg_stream(len, seed, |s| {
        (((s >> 33) % types as u64) as u32, (s >> 50) % 3, vec![], 0)
    })
}

#[test]
fn forced_swaps_are_exact_for_both_engine_families() {
    let stream = plain_workload(300, 3, 0xADA971);
    for strategy in EXACT {
        for backend in standard_backends() {
            let c = forced(eager(50));
            let checked = run(&c, &backend, strategy, &seq_pattern(3, 12), &stream);
            let swaps = checked.metrics.plan_swaps;
            assert!(swaps >= 2, "forced swaps repeat, got {swaps}");
        }
    }
}

#[test]
fn replayed_window_matches_are_never_emitted_twice() {
    // Dense single-key stream: plenty of matches complete right before each
    // swap, so every replay re-detects recently emitted matches.
    let stream = plain_workload(400, 3, 7);
    let checked = nfa(&forced(eager(60)), &seq_pattern(3, 15), &stream);
    let m = &checked.metrics;
    assert!(checked.matches > 0 && m.plan_swaps >= 2 && m.replayed_events > 0);
}

#[test]
fn swap_keeps_negated_events_older_than_the_retained_window() {
    // Window 100. C@60 forbids {A@100, B@150} under a leading or a
    // conjunctive NOT C, but the swap at D@170 (watermark 170, the first
    // eager check) retains only ts >= 70. Replaying without C, a fresh
    // engine would emit the SEQ match during the replay and park the AND
    // match until D@400.
    let mut sb = StreamBuilder::new();
    for (ty, ts) in [(2, 60), (0, 100), (1, 150), (3, 170), (3, 400)] {
        sb.push(Event::new(t(ty), ts, vec![]));
    }
    let stream = sb.build();
    for is_seq in [true, false] {
        let mut b = PatternBuilder::new(100);
        let (a, bb, c) = (b.event(t(0), "a"), b.event(t(1), "b"), b.event(t(2), "c"));
        let (na, nc, nb) = (b.expr(a), b.not(c), b.expr(bb));
        let p = if is_seq {
            b.seq_exprs([nc, na, nb])
        } else {
            b.and_exprs([na, nc, nb])
        };
        let (pattern, c) = (p.unwrap(), forced(eager(50)));
        for backend in standard_backends() {
            let checked = run(&c, &backend, ANY, &pattern, &stream);
            assert_eq!((checked.matches, checked.metrics.plan_swaps), (0, 1));
        }
    }
}

/// `SEQ(T0 a, T1 b, T2 c)` with `a.x < b.x` and `a.x < c.x`: which of the
/// two predicates is selective decides whether the cheap evaluation order
/// starts with `c` or `b`.
fn correlation_pattern(window: u64) -> Pattern {
    let mut b = PatternBuilder::new(window);
    let (a, bb, c) = (b.event(t(0), "a"), b.event(t(1), "b"), b.event(t(2), "c"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, bb.pos(), 0));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
    b.seq([a, bb, c]).unwrap()
}

/// Rates identical in both phases (type 0 every ms, types 1 and 2 every
/// 4 ms) while the correlations flip: `a.x` cycles 0..100; in phase 1
/// `b.x = 95` and `c.x = 5`, phase 2 swaps the two.
fn correlation_flip_stream(phase_ms: u64) -> EventStream {
    let mut b = StreamBuilder::new();
    for (phase, (bx, cx)) in [(95, 5), (5, 95)].into_iter().enumerate() {
        for i in 0..phase_ms {
            let ts = phase as u64 * phase_ms + i;
            b.push(Event::new(t(0), ts, vec![Value::Int((i % 100) as i64)]));
            match i % 4 {
                1 => b.push(Event::new(t(1), ts, vec![Value::Int(bx)])),
                3 => b.push(Event::new(t(2), ts, vec![Value::Int(cx)])),
                _ => &mut b,
            };
        }
    }
    b.build()
}

/// A DP-LD replanner bootstrapped with the exact rates and phase-1
/// selectivities of [`correlation_flip_stream`], monitoring selectivity.
fn correlation_replanner(branches: &[CompiledPattern]) -> PlanReplanner {
    let mut rates = MeasuredStats::default();
    for (ty, rate) in [(0, 1.0), (1, 0.25), (2, 0.25)] {
        rates.set_rate(t(ty), rate);
    }
    let sels = vec![(branches[0].clone(), vec![0.95, 0.05])];
    let algorithm = Backend::Nfa(OrderAlgorithm::DpLd);
    PlanReplanner::new(sels, &rates, Planner::default(), algorithm, check_config())
        .unwrap()
        .with_selectivity_monitoring(200, 0.5, 128)
        .with_selectivity_min_events(16)
}

#[test]
fn selectivity_swapped_run_agrees_with_naive_oracle() {
    // A smaller instance of the correlation flip (the oracle is
    // exponential in live subsets, so the full fixture is out of reach).
    let stream: EventStream = correlation_flip_stream(360)
        .into_iter()
        .filter(|e| e.ts % 2 == 0 || e.type_id != t(0))
        .collect();
    let config = AdaptiveConfig {
        horizon_ms: 200,
        drift_threshold: 0.5,
        check_every: 16,
        cooldown_events: 32,
        ..AdaptiveConfig::default()
    };
    let replan = Replan::Planned(correlation_replanner);
    let c = Composition::Adaptive { replan, config };
    let checked = nfa(&c, &correlation_pattern(60), &stream);
    assert!(checked.matches > 0, "fixture should produce matches");
    assert!(checked.metrics.selectivity_samples > 0, "the monitor ran");
}

/// `SEQ` (or `AND`) of types 0, 1, 2 with `NOT` type 3 inserted at
/// `neg_at` (0 leading, 1 and 2 internal, 3 trailing), and the element of
/// type `kleene` (if any) under `KL`. No predicates.
fn negation_pattern(is_seq: bool, neg_at: usize, kleene: Option<usize>, window: u64) -> Pattern {
    let mut b = PatternBuilder::new(window);
    let mut exprs: Vec<PatternExpr> = (0..3)
        .map(|i| {
            let e = b.event(t(i as u32), &format!("e{i}"));
            if kleene == Some(i) {
                b.kleene(e)
            } else {
                b.expr(e)
            }
        })
        .collect();
    let n = b.event(t(3), "n");
    exprs.insert(neg_at, b.not(n));
    let p = if is_seq {
        b.seq_exprs(exprs)
    } else {
        b.and_exprs(exprs)
    };
    p.unwrap()
}

proptest! {
    /// On random workloads, a swapping engine — forced to swap at every
    /// check — is the oracle's, for all three exact strategies and every
    /// backend. Patterns are `SEQ` or `AND` with a leading, internal or
    /// trailing `NOT` and an optional Kleene element; windows are short,
    /// so negated events leave the retained window while they still
    /// forbid matches. The rate horizon and the replanner's history (none,
    /// or drawn) fall below, at and above the window, so the shared event
    /// window spans either.
    #[test]
    fn swapped_output_equals_static_on_random_workloads(
        raw in prop::collection::vec((0u32..4, 0u64..3), 1..80),
        strategy_idx in 0usize..3,
        backend_idx in 0usize..3,
        is_seq in any::<bool>(),
        neg_at in 0usize..4,
        kleene in 0usize..4,
        window in 2u64..9,
        horizon in 1u64..20,
        history_ms in 0u64..20,
    ) {
        let (mut b, mut ts) = (StreamBuilder::new(), 0);
        for (tid, dt) in raw {
            ts += dt;
            b.push(Event::new(t(tid), ts, vec![]));
        }
        let pattern = negation_pattern(is_seq, neg_at, (kleene < 3).then_some(kleene), window);
        let replan = Replan::Forced { history_ms };
        let c = Composition::Adaptive { replan, config: eager(horizon) };
        let backend = &standard_backends()[backend_idx];
        run(&c, backend, EXACT[strategy_idx], &pattern, &b.build());
    }
}

/// A pseudo-random stream of types 0–2 with one key attribute in 0–3.
fn keyed_attr_stream(len: u64, seed: u64) -> EventStream {
    lcg_stream(len, seed, |s| {
        let key = ((s >> 40) % 4) as i64;
        (((s >> 33) % 3) as u32, (s >> 50) % 3, vec![key], 0)
    })
}

#[test]
fn wrappers_pass_engine_counters_through() {
    let (pattern, stream) = (keyed_seq(3, 20), keyed_attr_stream(400, 7));
    // An adaptive wrapper that never checks, so never swaps.
    let quiet = forced(AdaptiveConfig {
        check_every: u64::MAX,
        ..AdaptiveConfig::default()
    });
    for backend in standard_backends() {
        let bare = run(&Composition::Bare, &backend, ANY, &pattern, &stream);
        assert!(bare.matches > 0, "the fixture must match");
        assert!(bare.metrics.index_probes > 0, "the joins must probe");
        for c in [
            Composition::Multi,
            Composition::Registry {
                others: vec![pattern.clone()],
            },
            quiet.clone(),
        ] {
            let checked = run(&c, &backend, ANY, &pattern, &stream);
            assert_eq!(checked.metrics.plan_swaps, 0, "{c:?}");
        }
    }
}

#[test]
fn swapped_engines_fold_into_the_adaptive_view() {
    let (pattern, stream) = (keyed_seq(3, 20), keyed_attr_stream(400, 7));
    let c = forced(AdaptiveConfig {
        check_every: 50,
        ..eager(100)
    });
    for backend in standard_backends() {
        let checked = run(&c, &backend, ANY, &pattern, &stream);
        assert!(checked.metrics.plan_swaps >= 2, "{}", backend.name);
    }
}

// ---------------------------------------------------------------------------
// Bare engines, and the metric rule every check compares by.
// ---------------------------------------------------------------------------

#[test]
fn nfa_and_tree_agree_on_random_streams() {
    let mut b = PatternBuilder::new(12);
    let (a, c, d) = (b.event(t(0), "a"), b.event(t(1), "c"), b.event(t(2), "d"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Ne, c.pos(), 0));
    let pattern = b.seq([a, c, d]).unwrap();
    // Timestamps 0, 1, 2, ...: the first step is 0.
    let mut first = true;
    let stream = lcg_stream(120, 12345, |s| {
        let dt = !std::mem::take(&mut first) as u64;
        ((s >> 33) as u32 % 4, dt, vec![((s >> 20) % 5) as i64], 0)
    });
    for backend in standard_backends() {
        for seed in 0..3 {
            let checked = check(
                &Composition::Bare,
                &backend,
                seed,
                &check_config(),
                ANY,
                &pattern,
                &stream,
            );
            assert!(checked.matches > 0, "fixture should produce matches");
        }
    }
}

/// An event of type `tid` at `ts` whose attribute 0 is `x`.
fn ev(tid: u32, ts: u64, x: i64) -> Event {
    Event::new(t(tid), ts, vec![Value::Int(x)])
}

/// [`check_every_order`] of `pattern` over `events` under the default
/// engine config: every order plan's left-deep tree is the oracle's.
fn all_orders(pattern: &Pattern, events: Vec<Event>) -> u64 {
    let mut sb = StreamBuilder::new();
    for e in events {
        sb.push(e);
    }
    check_every_order(pattern, &sb.build(), &EngineConfig::default())
}

#[test]
fn sequence_all_orders_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let (a, c, d) = (b.event(t(0), "a"), b.event(t(1), "c"), b.event(t(2), "d"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, d.pos(), 0));
    let p = b.seq([a, c, d]).unwrap();
    let events = vec![
        ev(0, 1, 3),
        ev(1, 2, 0),
        ev(0, 3, 7),
        ev(2, 4, 5),
        ev(1, 5, 0),
        ev(2, 6, 9),
        ev(0, 7, 1),
        ev(2, 8, 2),
    ];
    all_orders(&p, events);
}

#[test]
fn conjunction_all_orders_match_oracle() {
    let mut b = PatternBuilder::new(6);
    let (a, c, d) = (b.event(t(0), "a"), b.event(t(1), "c"), b.event(t(2), "d"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Le, c.pos(), 0));
    let p = b.and([a, c, d]).unwrap();
    let events = vec![
        ev(2, 1, 0),
        ev(1, 2, 4),
        ev(0, 3, 4),
        ev(1, 4, 1),
        ev(0, 5, 9),
        ev(2, 6, 0),
        ev(0, 7, 0),
    ];
    all_orders(&p, events);
}

#[test]
fn duplicate_types_all_orders_match_oracle() {
    // SEQ(A a1, A a2) — same type at two positions.
    let mut b = PatternBuilder::new(10);
    let (a1, a2) = (b.event(t(0), "a1"), b.event(t(0), "a2"));
    let p = b.seq([a1, a2]).unwrap();
    all_orders(&p, vec![ev(0, 1, 0), ev(0, 2, 0), ev(0, 3, 0)]);
}

#[test]
fn negation_all_orders_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let (a, nb, c) = (b.event(t(0), "a"), b.event(t(1), "nb"), b.event(t(2), "c"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, nb.pos(), 0));
    let exprs = [b.expr(a), b.not(nb), b.expr(c)];
    let p = b.seq_exprs(exprs).unwrap();
    let events = vec![
        ev(0, 1, 1),
        ev(1, 2, 1), // kills matches of a@1
        ev(0, 3, 2),
        ev(2, 4, 0),
        ev(1, 5, 2), // after c: harmless for (a@3, c@4)
        ev(2, 6, 0),
    ];
    all_orders(&p, events);
}

#[test]
fn trailing_negation_all_orders_match_oracle() {
    let mut b = PatternBuilder::new(5);
    let (a, c, nb) = (b.event(t(0), "a"), b.event(t(1), "c"), b.event(t(2), "nb"));
    let exprs = [b.expr(a), b.expr(c), b.not(nb)];
    let p = b.seq_exprs(exprs).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(2, 3, 0), // kills (a@1, c@2)
        ev(0, 10, 0),
        ev(1, 11, 0), // survives: no later nb within window
    ];
    all_orders(&p, events);
}

#[test]
fn kleene_all_orders_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let (a, k, c) = (b.event(t(0), "a"), b.event(t(1), "k"), b.event(t(2), "c"));
    let exprs = [b.expr(a), b.kleene(k), b.expr(c)];
    let p = b.seq_exprs(exprs).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(1, 3, 0),
        ev(2, 4, 0),
        ev(1, 5, 0),
        ev(2, 6, 0),
    ];
    all_orders(&p, events);
}

#[test]
fn kleene_first_element_in_plan() {
    // KL(B) ordered first by the plan: the Kleene leaf is the deepest one.
    let mut b = PatternBuilder::new(10);
    let (a, k) = (b.event(t(0), "a"), b.event(t(1), "k"));
    let exprs = [b.expr(a), b.kleene(k)];
    let p = b.seq_exprs(exprs).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(1, 3, 0),
        ev(0, 4, 0),
        ev(1, 5, 0),
    ];
    all_orders(&p, events);
}

#[test]
fn consecutive_kleene_steps_all_orders_match_oracle() {
    // An order that joins KL(C) straight into KL(B) must not filter B's
    // candidates by the serial-number gate C's accumulator left behind.
    let mut b = PatternBuilder::new(10);
    let (a, kb) = (b.event(t(0), "a"), b.event(t(1), "kb"));
    let (kc, d) = (b.event(t(2), "kc"), b.event(t(3), "d"));
    let exprs = [b.expr(a), b.kleene(kb), b.kleene(kc), b.expr(d)];
    let p = b.seq_exprs(exprs).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(1, 3, 0),
        ev(2, 4, 0),
        ev(2, 5, 0),
        ev(3, 6, 0),
    ];
    all_orders(&p, events);
}

#[test]
fn strict_contiguity_all_orders_match_oracle() {
    let mut b = PatternBuilder::new(10);
    b.strategy(SelectionStrategy::StrictContiguity);
    let (a, c) = (b.event(t(0), "a"), b.event(t(1), "c"));
    let p = b.seq([a, c]).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0), // adjacent: match
        ev(0, 3, 0),
        ev(2, 4, 0), // irrelevant type still breaks contiguity
        ev(1, 5, 0),
    ];
    all_orders(&p, events);
}

#[test]
fn keyed_steps_match_oracle_in_every_order() {
    // SEQ(A a, B b, C c) equating attribute 0 along the chain, over three
    // interleaved copies of one event sequence (copy r carries key r).
    let mut b = PatternBuilder::new(6);
    let (a, bb, c) = (b.event(t(0), "a"), b.event(t(1), "b"), b.event(t(2), "c"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
    b.predicate(Predicate::attr_cmp(bb.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let p = b.seq([a, bb, c]).unwrap();
    let events = (0..30u64).flat_map(|i| (0..3).map(move |r| ev((i * 7 % 3) as u32, i, r)));
    assert!(all_orders(&p, events.collect()) > 0, "fixture must match");
}

/// A time field added to `engine_metrics!` must be named here: compared by
/// default, it would fail every run whose timing differs.
#[test]
fn comparable_leaves_out_exactly_the_measured_times() {
    let mut m = EngineMetrics::new();
    m.index_probes = 7;
    m.event_ns.record(123);
    let compared = comparable(&m);
    assert!(compared.contains(&("index_probes", 7)) && compared.contains(&("event_ns", 1)));
    let left_out: Vec<_> = (EngineMetrics::FIELDS.iter())
        .filter(|f| !compared.iter().any(|&(name, _)| name == f.name))
        .map(|f| f.name)
        .collect();
    assert_eq!(left_out, ["wall_time_ns", "replay_time_ns"]);
}
