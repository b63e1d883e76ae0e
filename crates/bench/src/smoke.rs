//! The CI bench-regression gate (`experiments bench-smoke`).
//!
//! Runs a reduced-scale version of each "beyond the paper" scenario —
//! sharded-scaling, adaptive-drift, selectivity-drift, cross-partition,
//! compiled-pipeline, delta-window-scaling, multi-query-sharing,
//! keyed-join — and
//! reports, per scenario, its wall time plus a set of **deterministic
//! output counts** (match counts, plan swaps, dedup hits, …). Every
//! workload is seeded and every engine is deterministic, so the counts are
//! machine-independent; wall times are recorded for trajectory only and
//! never gated on.
//!
//! CI calls [`run`] with a committed baseline file: the current counts are
//! serialized to the same canonical JSON as the baseline and compared
//! *textually* — any divergence (a lost match, a missing swap, a dedup
//! regression) fails the job, while timing noise cannot. The full report
//! (counts + wall times) is written to `bench_smoke.json` as a build
//! artifact. Scenarios that run one workload several ways (serial vs
//! sharded, static vs adaptive) also assert that the match counts agree,
//! so `--write-baseline` cannot bless a divergence.
//!
//! The `compiled-pipeline` scenario runs one workload through the
//! compiled predicate pipeline (fused evaluators + arena + eager pruning)
//! on both engine families: match counts and the predicate-evaluation
//! count are gated like every other scenario.
//!
//! The `delta-window-scaling` scenario sweeps the pattern window over the
//! same rare-completion join workload on the NFA, tree, and delta
//! backends: match counts must agree exactly, and the gated peak counts
//! pin down the storage asymmetry — materializing partial matches blow up
//! superlinearly with the window while the delta engine's buffered-event
//! peak grows at most linearly and it materializes no partials at all.
//!
//! The `keyed-join` scenario runs one keyed `SEQ(3)` over 1, 16 and 64
//! interleaved replicas of the same event sequence on the NFA and tree
//! backends: with hash-partitioned join state a replica's work does not
//! depend on how many other replicas are live, so matches *and* predicate
//! evaluations must scale exactly linearly in the replica count.

use crate::env::{
    cross_key_stock_workload, drifting_stock_workload, replicated_stock_workload,
    selectivity_drift_workload,
};
use cep_core::engine::{run_to_completion, Engine, EngineConfig};
use cep_nfa::NfaEngine;
use cep_obs::json::Json;
use cep_shard::{RoutingPolicy, ShardedRuntime};
use std::io::Write;
use std::time::Instant;

/// One scenario's gate data: deterministic counts plus informational
/// timing (wall time and latency percentiles).
pub struct ScenarioReport {
    /// Scenario name (stable key in the JSON output).
    pub name: &'static str,
    /// Wall time of the whole scenario in milliseconds (trajectory only).
    pub wall_ms: f64,
    /// Deterministic `(key, value)` output counts, in emission order.
    pub counts: Vec<(&'static str, u64)>,
    /// Latency percentiles `(label, [p50, p95, p99])` in ns, from the
    /// engines' log₂ histograms. Timing-dependent, so reported in the
    /// logs and the full JSON but **excluded from [`counts_json`]** — the
    /// committed baseline stays machine-independent.
    pub percentiles: Vec<(&'static str, [u64; 3])>,
    /// Named sub-run wall times in milliseconds (e.g. one per backend). Timing-dependent like [`ScenarioReport::percentiles`]:
    /// logged and written to the full JSON, never part of the diffed
    /// baseline.
    pub walls: Vec<(&'static str, f64)>,
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        max_kleene_events: 6,
        ..Default::default()
    }
}

type ScenarioData = (Vec<(&'static str, u64)>, Vec<(&'static str, [u64; 3])>);

fn timed(name: &'static str, f: impl FnOnce() -> ScenarioData) -> ScenarioReport {
    let start = Instant::now();
    let (counts, percentiles) = f();
    ScenarioReport {
        name,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        counts,
        percentiles,
        walls: Vec::new(),
    }
}

/// Asserts that every sharded run (`shards*` keys) found exactly the
/// serial run's matches, so `--write-baseline` cannot bless a divergence.
fn assert_same_matches(counts: &[(&'static str, u64)]) {
    let serial = counts[0];
    assert_eq!(serial.0, "serial");
    for &(k, v) in counts.iter().filter(|(k, _)| k.starts_with("shards")) {
        assert_eq!(v, serial.1, "{k} diverged from the serial run");
    }
}

fn sharded_scaling() -> ScenarioReport {
    timed("sharded-scaling", || {
        let (gen, cp) = replicated_stock_workload(4_000, 0.5, 0xCE9, 8, 1_500);
        let factory = {
            move || {
                Box::new(NfaEngine::with_trivial_plan(cp.clone(), engine_config()))
                    as Box<dyn Engine>
            }
        };
        let mut engine = factory();
        let serial = run_to_completion(engine.as_mut(), &gen.stream, false).match_count;
        let mut counts = vec![("serial", serial)];
        let mut percentiles = vec![(
            "serial_match_latency_ns",
            engine.metrics().match_latency_ns.percentiles(),
        )];
        for shards in [2usize, 4] {
            let r = ShardedRuntime::with_shards(shards).run(
                &factory,
                &gen.stream,
                RoutingPolicy::Partition,
                false,
            );
            counts.push((
                if shards == 2 { "shards2" } else { "shards4" },
                r.match_count,
            ));
            percentiles.push((
                if shards == 2 {
                    "shards2_match_latency_ns"
                } else {
                    "shards4_match_latency_ns"
                },
                r.metrics.match_latency_ns.percentiles(),
            ));
        }
        assert_same_matches(&counts);
        (counts, percentiles)
    })
}

fn adaptive_drift() -> ScenarioReport {
    use cep_adaptive::{AdaptiveConfig, AdaptiveEngine, PlanReplanner, Replanner};
    use cep_optimizer::{Backend, OrderAlgorithm, Planner};
    timed("adaptive-drift", || {
        let window_ms = 3_000;
        let (gen, _, cp, sels) = drifting_stock_workload(5_000, 20_000, 0xCE9, window_ms);
        let replanner = PlanReplanner::new(
            vec![(cp, sels)],
            &gen.initial_stats(),
            Planner::default(),
            Backend::Nfa(OrderAlgorithm::DpLd),
            engine_config(),
        )
        .expect("selectivities match the pattern's predicates");
        let mut static_engine = replanner.build();
        let static_matches =
            run_to_completion(static_engine.as_mut(), &gen.stream, false).match_count;
        let mut adaptive = AdaptiveEngine::new(
            replanner,
            window_ms,
            AdaptiveConfig {
                horizon_ms: window_ms,
                drift_threshold: 0.5,
                check_every: 32,
                cooldown_events: 128,
                ..AdaptiveConfig::default()
            },
        );
        let adaptive_matches = run_to_completion(&mut adaptive, &gen.stream, false).match_count;
        assert_eq!(
            static_matches, adaptive_matches,
            "adaptive run diverged from the static plan"
        );
        let m = adaptive.metrics();
        (
            vec![
                ("static_matches", static_matches),
                ("adaptive_matches", adaptive_matches),
                ("plan_swaps", adaptive.swaps()),
            ],
            vec![
                ("event_ns", m.event_ns.percentiles()),
                ("match_latency_ns", m.match_latency_ns.percentiles()),
                ("replay_ns", m.replay_ns.percentiles()),
            ],
        )
    })
}

fn selectivity_drift() -> ScenarioReport {
    use cep_adaptive::{AdaptiveConfig, AdaptiveEngine, PlanReplanner, Replanner};
    use cep_optimizer::{Backend, OrderAlgorithm, Planner};
    timed("selectivity-drift", || {
        let window_ms = 2_500;
        let (gen, cp, initial_sels, _) = selectivity_drift_workload(8_000, 8_000, 0x5E1, window_ms);
        let replanner = || {
            PlanReplanner::new(
                vec![(cp.clone(), initial_sels.clone())],
                &gen.stats(),
                Planner::default(),
                Backend::Nfa(OrderAlgorithm::DpLd),
                engine_config(),
            )
            .expect("selectivities match the pattern's predicates")
        };
        let mut static_engine = replanner().build();
        let static_matches =
            run_to_completion(static_engine.as_mut(), &gen.stream, false).match_count;
        let mut full = AdaptiveEngine::new(
            replanner().with_selectivity_monitoring(window_ms, 0.5, 512),
            window_ms,
            AdaptiveConfig {
                horizon_ms: window_ms,
                drift_threshold: 0.5,
                check_every: 32,
                cooldown_events: 128,
                ..AdaptiveConfig::default()
            },
        );
        let full_matches = run_to_completion(&mut full, &gen.stream, false).match_count;
        assert_eq!(
            static_matches, full_matches,
            "selectivity-adaptive run diverged from the static plan"
        );
        let m = full.metrics();
        (
            vec![
                ("static_matches", static_matches),
                ("full_adaptive_matches", full_matches),
                ("plan_swaps", full.swaps()),
            ],
            vec![
                ("event_ns", m.event_ns.percentiles()),
                ("match_latency_ns", m.match_latency_ns.percentiles()),
                ("replay_ns", m.replay_ns.percentiles()),
            ],
        )
    })
}

fn cross_partition() -> ScenarioReport {
    use cep_core::partition::QueryPartitioner;
    use cep_core::stats::MeasuredStats;
    use std::sync::Arc;
    timed("cross-partition", || {
        let (gen, cp) = cross_key_stock_workload(12_000, 0.5, 0xC0A, 32, 2_000);
        let stats = MeasuredStats::measure(&gen.stream);
        let spec = QueryPartitioner::analyze_measured(std::slice::from_ref(&cp), &stats)
            .expect("cross-key query partitions");
        let factory = {
            let cp = cp.clone();
            move || {
                Box::new(NfaEngine::with_trivial_plan(cp.clone(), engine_config()))
                    as Box<dyn Engine>
            }
        };
        let mut engine = factory();
        let serial = run_to_completion(engine.as_mut(), &gen.stream, false).match_count;
        let policy = RoutingPolicy::ReplicateJoin(Arc::new(spec));
        let mut counts = vec![("serial", serial)];
        let mut percentiles = Vec::new();
        for shards in [2usize, 4] {
            let r = ShardedRuntime::with_shards(shards).run(
                &factory,
                &gen.stream,
                policy.clone(),
                false,
            );
            if shards == 2 {
                counts.push(("shards2", r.match_count));
                counts.push(("replicated2", r.metrics.replicated_events));
                counts.push(("dedup2", r.metrics.dedup_hits));
                percentiles.push(("shards2_event_ns", r.metrics.event_ns.percentiles()));
            } else {
                counts.push(("shards4", r.match_count));
                counts.push(("replicated4", r.metrics.replicated_events));
                counts.push(("dedup4", r.metrics.dedup_hits));
                percentiles.push(("shards4_event_ns", r.metrics.event_ns.percentiles()));
            }
        }
        assert_same_matches(&counts);
        (counts, percentiles)
    })
}

/// The compiled predicate pipeline (fused evaluators + arena + eager
/// pruning) on one seeded workload, both engine families. Match counts
/// and the predicate-evaluation count are deterministic and gated against
/// the baseline; wall times land in [`ScenarioReport::walls`].
fn compiled_pipeline() -> ScenarioReport {
    use cep_tree::TreeEngine;
    let start = Instant::now();
    let (gen, cp) = replicated_stock_workload(6_000, 0.5, 0xCE9, 8, 1_500);
    let mut nfa = NfaEngine::with_trivial_plan(cp.clone(), engine_config());
    let t = Instant::now();
    let matches = run_to_completion(&mut nfa, &gen.stream, false).match_count;
    let nfa_wall = t.elapsed().as_secs_f64() * 1e3;
    let mut tree = TreeEngine::with_trivial_plan(cp, engine_config());
    let t = Instant::now();
    let tree_matches = run_to_completion(&mut tree, &gen.stream, false).match_count;
    let tree_wall = t.elapsed().as_secs_f64() * 1e3;
    ScenarioReport {
        name: "compiled-pipeline",
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        counts: vec![
            ("compiled_matches", matches),
            ("compiled_pred_evals", nfa.metrics().predicate_evaluations),
            ("tree_compiled_matches", tree_matches),
        ],
        percentiles: vec![("compiled_event_ns", nfa.metrics().event_ns.percentiles())],
        walls: vec![
            ("nfa_compiled_ms", nfa_wall),
            ("tree_compiled_ms", tree_wall),
        ],
    }
}

/// Window-scaling sweep for the delta-indexed backend: the same
/// equality-correlated `SEQ(A, B, C)` workload evaluated at increasing
/// windows by the NFA, the tree engine, and the delta engine. The
/// materializing backends' peak partial-match counts grow superlinearly
/// with the window (every live `A` and joinable `A×B` pair is stored),
/// while the delta engine stores only the windowed events themselves —
/// `partial_matches_created` stays zero and `peak_buffered_events` tracks
/// the window linearly. Match counts per window are asserted equal across
/// all three backends here and gated against the baseline; wall times per
/// backend land in [`ScenarioReport::walls`].
fn delta_window_scaling() -> ScenarioReport {
    use cep_core::compile::CompiledPattern;
    use cep_core::event::{Event, TypeId};
    use cep_core::pattern::PatternBuilder;
    use cep_core::predicate::{CmpOp, Predicate};
    use cep_core::stream::StreamBuilder;
    use cep_core::value::Value;
    use cep_delta::DeltaEngine;
    use cep_tree::TreeEngine;

    let start = Instant::now();
    // 6 000 events, ts = i. Blocks of 4 consecutive events share one of 32
    // join keys, so types A (even i) and B (odd i) both land on every key;
    // the completing C type is rare (every 251st event), which is exactly
    // the regime where materializing engines hoard A and A×B partial
    // matches that almost never finish.
    let mut sb = StreamBuilder::new();
    for i in 0..6_000u64 {
        let tid = if i % 251 == 0 { 2 } else { (i % 2) as u32 };
        let key = ((i / 4) % 32) as i64;
        sb.push(Event::new(TypeId(tid), i, vec![Value::Int(key)]));
    }
    let stream = sb.build();

    let pattern_for = |window: u64| {
        let mut b = PatternBuilder::new(window);
        let a = b.event(TypeId(0), "a");
        let bb = b.event(TypeId(1), "b");
        let c = b.event(TypeId(2), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
        b.predicate(Predicate::attr_cmp(bb.pos(), 0, CmpOp::Eq, c.pos(), 0));
        b.seq([a, bb, c]).unwrap()
    };

    // One row of static count/wall names per window: the canonical
    // baseline JSON needs `&'static str` keys.
    #[allow(clippy::type_complexity)]
    let rows: [(u64, [&'static str; 5], [&'static str; 2], &'static str); 3] = [
        (
            250,
            [
                "matches_w250",
                "nfa_peak_partials_w250",
                "tree_peak_partials_w250",
                "delta_peak_buffered_w250",
                "delta_index_probes_w250",
            ],
            ["nfa_w250_ms", "delta_w250_ms"],
            "delta_enum_ns_w250",
        ),
        (
            1_000,
            [
                "matches_w1000",
                "nfa_peak_partials_w1000",
                "tree_peak_partials_w1000",
                "delta_peak_buffered_w1000",
                "delta_index_probes_w1000",
            ],
            ["nfa_w1000_ms", "delta_w1000_ms"],
            "delta_enum_ns_w1000",
        ),
        (
            4_000,
            [
                "matches_w4000",
                "nfa_peak_partials_w4000",
                "tree_peak_partials_w4000",
                "delta_peak_buffered_w4000",
                "delta_index_probes_w4000",
            ],
            ["nfa_w4000_ms", "delta_w4000_ms"],
            "delta_enum_ns_w4000",
        ),
    ];
    let mut counts = Vec::new();
    let mut percentiles = Vec::new();
    let mut walls = Vec::new();
    for (window, count_keys, wall_keys, enum_key) in rows {
        let cp = CompiledPattern::compile_single(&pattern_for(window)).unwrap();
        let mut nfa = NfaEngine::with_trivial_plan(cp.clone(), engine_config());
        let t = Instant::now();
        let nfa_matches = run_to_completion(&mut nfa, &stream, false).match_count;
        let nfa_wall = t.elapsed().as_secs_f64() * 1e3;
        let mut tree = TreeEngine::with_trivial_plan(cp.clone(), engine_config());
        let tree_matches = run_to_completion(&mut tree, &stream, false).match_count;
        let mut delta = DeltaEngine::new(cp, engine_config());
        let t = Instant::now();
        let delta_matches = run_to_completion(&mut delta, &stream, false).match_count;
        let delta_wall = t.elapsed().as_secs_f64() * 1e3;
        let dm = delta.metrics();
        assert_eq!(
            nfa_matches, delta_matches,
            "delta diverged from NFA at w={window}"
        );
        assert_eq!(
            tree_matches, delta_matches,
            "delta diverged from tree at w={window}"
        );
        assert_eq!(dm.partial_matches_created, 0);
        counts.push((count_keys[0], delta_matches));
        counts.push((count_keys[1], nfa.metrics().peak_partial_matches as u64));
        counts.push((count_keys[2], tree.metrics().peak_partial_matches as u64));
        counts.push((count_keys[3], dm.peak_buffered_events as u64));
        counts.push((count_keys[4], dm.index_probes));
        percentiles.push((enum_key, dm.enumeration_ns.percentiles()));
        walls.push((wall_keys[0], nfa_wall));
        walls.push((wall_keys[1], delta_wall));
    }
    ScenarioReport {
        name: "delta-window-scaling",
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        counts,
        percentiles,
        walls,
    }
}

/// Multi-query sharing: 32 registered queries drawn from a pool of 8
/// distinct patterns over one seeded stream, evaluated by a
/// [`cep_core::registry::QueryRegistry`] (each shared fragment runs once,
/// with per-query fan-out) and by 32 independent engines. Total match
/// counts must agree exactly (asserted in the scenario and gated), and
/// the registry's predicate-evaluation count stays sub-linear in the
/// query count — with 4× duplication it is a quarter of the independent
/// engines' total (gated, plus the ratio test below). The two wall times
/// land in [`ScenarioReport::walls`] so CI logs show the speedup.
fn multi_query_sharing() -> ScenarioReport {
    use cep_core::compile::CompiledPattern;
    use cep_core::event::{Event, TypeId};
    use cep_core::pattern::{Pattern, PatternBuilder};
    use cep_core::plan::OrderPlan;
    use cep_core::predicate::{CmpOp, Predicate};
    use cep_core::registry::QueryRegistry;
    use cep_core::stream::StreamBuilder;
    use cep_core::value::Value;
    use std::sync::Arc;

    let start = Instant::now();
    // 8 000 events over 6 types with a join key cycling through 16 values
    // and a small payload attribute — every query pool member below finds
    // joins, none explodes.
    let mut sb = StreamBuilder::new();
    for i in 0..8_000u64 {
        let tid = (i % 6) as u32;
        // Mix the index so keys and payloads decorrelate from the type's
        // residue class (a plain `i/k % 16` key never aligns with it).
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let key = ((h >> 17) % 16) as i64;
        let x = ((h >> 41) % 7) as i64 - 3;
        sb.push(Event::new(
            TypeId(tid),
            i,
            vec![Value::Int(key), Value::Int(x)],
        ));
    }
    let stream = sb.build();

    // 8 distinct two-step key-join queries (distinct type pairs), each
    // registered 4 times: 32 queries, 8 fragments.
    let type_pairs: [(u32, u32); 8] = [
        (0, 3),
        (1, 4),
        (2, 5),
        (0, 4),
        (1, 5),
        (2, 3),
        (0, 5),
        (1, 3),
    ];
    let pool: Vec<Pattern> = type_pairs
        .iter()
        .map(|&(ta, tc)| {
            let mut b = PatternBuilder::new(50);
            let a = b.event(TypeId(ta), "a");
            let c = b.event(TypeId(tc), "c");
            b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
            b.predicate(Predicate::attr_cmp(a.pos(), 1, CmpOp::Lt, c.pos(), 1));
            b.seq([a, c]).unwrap()
        })
        .collect();
    let queries: Vec<Pattern> = (0..32).map(|i| pool[i % pool.len()].clone()).collect();

    let config = engine_config();
    let builder = {
        let config = config.clone();
        move |cp: &CompiledPattern,
              program: Arc<cep_core::compiled::PredicateProgram>|
              -> Result<Box<dyn Engine>, cep_core::error::CepError> {
            Ok(Box::new(NfaEngine::with_program(
                cp.clone(),
                OrderPlan::trivial(cp),
                config.clone(),
                program,
            )?))
        }
    };
    let mut registry = QueryRegistry::new(Arc::new(builder));
    for q in &queries {
        registry.register(q).expect("registrable pool query");
    }
    let t = Instant::now();
    let result = registry.run(&stream);
    let registry_wall = t.elapsed().as_secs_f64() * 1e3;
    let rm = registry.metrics();
    let registry_matches: u64 = result.per_query.values().map(|ms| ms.len() as u64).sum();

    let t = Instant::now();
    let mut independent_matches = 0u64;
    let mut independent_evals = 0u64;
    for q in &queries {
        let cp = CompiledPattern::compile_single(q).unwrap();
        let mut engine = NfaEngine::with_trivial_plan(cp, config.clone());
        let r = run_to_completion(&mut engine, &stream, false);
        independent_matches += r.match_count;
        independent_evals += r.metrics.predicate_evaluations;
    }
    let independent_wall = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        registry_matches, independent_matches,
        "registry fan-out diverged from independent engines"
    );

    ScenarioReport {
        name: "multi-query-sharing",
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        counts: vec![
            ("registry_matches", registry_matches),
            ("independent_matches", independent_matches),
            ("distinct_fragments", registry.fragment_count() as u64),
            ("shared_subscriptions", rm.shared_fragments),
            ("registry_pred_evals", rm.predicate_evaluations),
            ("independent_pred_evals", independent_evals),
        ],
        percentiles: Vec::new(),
        walls: vec![
            ("registry_ms", registry_wall),
            ("independent_ms", independent_wall),
        ],
    }
}

/// Keyed-join scaling: `SEQ(A a, B b, C c)` equating a key along the chain
/// (plus one inequality, so buckets still run a residual predicate) over
/// `k ∈ {1, 16, 64}` interleaved replicas of one seeded event sequence —
/// replica `r` carries key `r`, all replicas of an event share its
/// timestamp. The NFA and tree engines keep the join state of such steps
/// in key buckets, so the scenario asserts (and the baseline pins) that
/// matches and predicate evaluations are exactly `k ×` the single-replica
/// counts — evaluations *per event* flat in `k` — and that the work was
/// done by index probes.
fn keyed_join() -> ScenarioReport {
    use cep_core::compile::CompiledPattern;
    use cep_core::event::{Event, TypeId};
    use cep_core::pattern::PatternBuilder;
    use cep_core::predicate::{CmpOp, Predicate};
    use cep_core::stream::StreamBuilder;
    use cep_core::value::Value;
    use cep_tree::TreeEngine;

    let start = Instant::now();
    let mut b = PatternBuilder::new(12);
    let a = b.event(TypeId(0), "a");
    let bb = b.event(TypeId(1), "b");
    let c = b.event(TypeId(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
    b.predicate(Predicate::attr_cmp(bb.pos(), 0, CmpOp::Eq, c.pos(), 0));
    b.predicate(Predicate::attr_cmp(a.pos(), 1, CmpOp::Lt, bb.pos(), 1));
    let cp = CompiledPattern::compile_single(&b.seq([a, bb, c]).unwrap()).unwrap();

    // One row of static count and wall names per replica count: the
    // canonical baseline JSON needs `&'static str` keys.
    let rows: [(u64, [&'static str; 5], &'static str); 3] = [
        (
            1,
            [
                "matches_k1",
                "nfa_pred_evals_k1",
                "tree_pred_evals_k1",
                "nfa_index_probes_k1",
                "tree_index_probes_k1",
            ],
            "nfa_k1_ms",
        ),
        (
            16,
            [
                "matches_k16",
                "nfa_pred_evals_k16",
                "tree_pred_evals_k16",
                "nfa_index_probes_k16",
                "tree_index_probes_k16",
            ],
            "nfa_k16_ms",
        ),
        (
            64,
            [
                "matches_k64",
                "nfa_pred_evals_k64",
                "tree_pred_evals_k64",
                "nfa_index_probes_k64",
                "tree_index_probes_k64",
            ],
            "nfa_k64_ms",
        ),
    ];
    let mut counts = Vec::new();
    let mut walls = Vec::new();
    let mut single: Option<[u64; 3]> = None;
    for (replicas, keys, wall_key) in rows {
        let mut sb = StreamBuilder::new();
        for i in 0..1_500u64 {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let tid = ((h >> 23) % 3) as u32;
            let x = ((h >> 41) % 7) as i64 - 3;
            for r in 0..replicas {
                sb.push(Event::new(
                    TypeId(tid),
                    i,
                    vec![Value::Int(r as i64), Value::Int(x)],
                ));
            }
        }
        let stream = sb.build();
        let mut nfa = NfaEngine::with_trivial_plan(cp.clone(), engine_config());
        let t = Instant::now();
        let matches = run_to_completion(&mut nfa, &stream, false).match_count;
        let nfa_wall = t.elapsed().as_secs_f64() * 1e3;
        let mut tree = TreeEngine::with_trivial_plan(cp.clone(), engine_config());
        let tree_matches = run_to_completion(&mut tree, &stream, false).match_count;
        let (nm, tm) = (nfa.metrics(), tree.metrics());
        assert_eq!(
            matches, tree_matches,
            "tree diverged from NFA at k={replicas}"
        );
        assert!(nm.index_probes > 0 && tm.index_probes > 0);
        let row = [matches, nm.predicate_evaluations, tm.predicate_evaluations];
        let base = *single.get_or_insert(row);
        assert_eq!(
            row,
            base.map(|v| v * replicas),
            "matches and predicate evaluations must be linear in the replica count (k={replicas})"
        );
        counts.extend([
            (keys[0], matches),
            (keys[1], nm.predicate_evaluations),
            (keys[2], tm.predicate_evaluations),
            (keys[3], nm.index_probes),
            (keys[4], tm.index_probes),
        ]);
        walls.push((wall_key, nfa_wall));
    }
    ScenarioReport {
        name: "keyed-join",
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        counts,
        percentiles: Vec::new(),
        walls,
    }
}

/// Runs all gate scenarios at the fixed quick scale.
pub fn run_all() -> Vec<ScenarioReport> {
    vec![
        sharded_scaling(),
        adaptive_drift(),
        selectivity_drift(),
        cross_partition(),
        compiled_pipeline(),
        delta_window_scaling(),
        multi_query_sharing(),
        keyed_join(),
    ]
}

/// Canonical counts-only JSON — the committed baseline format. Stable key
/// order, no whitespace variation: textual equality means count equality.
pub fn counts_json(reports: &[ScenarioReport]) -> String {
    let mut s = String::from("{\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str(&format!("  \"{}\": {{", r.name));
        for (j, (k, v)) in r.counts.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{k}\": {v}"));
        }
        s.push_str(if i + 1 < reports.len() { "},\n" } else { "}\n" });
    }
    s.push_str("}\n");
    s
}

/// Full report JSON (counts + wall times + latency percentiles) written
/// to `bench_smoke.json`. Percentiles live here and in the logs only — the
/// diffed baseline format ([`counts_json`]) never includes them.
pub fn full_json(reports: &[ScenarioReport]) -> String {
    fn obj<T>(pairs: &[(&str, T)], value: impl Fn(&T) -> Json) -> Json {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), value(v)))
                .collect(),
        )
    }
    let scenarios = reports
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.into())),
                ("wall_ms".into(), Json::Float(r.wall_ms)),
                ("counts".into(), obj(&r.counts, |&v| Json::UInt(v))),
                ("walls_ms".into(), obj(&r.walls, |&w| Json::Float(w))),
                (
                    "percentiles_ns".into(),
                    obj(&r.percentiles, |&[p50, p95, p99]| {
                        obj(&[("p50", p50), ("p95", p95), ("p99", p99)], |&v| {
                            Json::UInt(v)
                        })
                    }),
                ),
            ])
        })
        .collect();
    let mut s = Json::Obj(vec![("scenarios".into(), Json::Arr(scenarios))]).encode();
    s.push('\n');
    s
}

/// Drives the gate end to end: run the scenarios, write the full report to
/// `out_path`, and — unless `write_baseline` — compare the canonical
/// counts against the committed baseline at `baseline_path`, returning
/// `Err` (for a non-zero exit) on any divergence. With `write_baseline`
/// the baseline file is (re)generated instead of checked.
pub fn run(
    out_path: &str,
    baseline_path: &str,
    write_baseline: bool,
    log: &mut dyn Write,
) -> Result<(), String> {
    let reports = run_all();
    for r in &reports {
        writeln!(log, "{}: {:.0} ms, counts:", r.name, r.wall_ms).ok();
        for (k, v) in &r.counts {
            writeln!(log, "    {k} = {v}").ok();
        }
        for (k, w) in &r.walls {
            writeln!(log, "    {k} = {w:.1} ms").ok();
        }
        if !r.percentiles.is_empty() {
            writeln!(
                log,
                "  latency percentiles (ns): {:<26} {:>10} {:>10} {:>10}",
                "", "p50", "p95", "p99"
            )
            .ok();
            for (k, [p50, p95, p99]) in &r.percentiles {
                writeln!(log, "    {k:<26} {p50:>10} {p95:>10} {p99:>10}").ok();
            }
        }
    }
    std::fs::write(out_path, full_json(&reports))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    writeln!(log, "wrote {out_path}").ok();
    let current = counts_json(&reports);
    if write_baseline {
        std::fs::write(baseline_path, &current)
            .map_err(|e| format!("cannot write {baseline_path}: {e}"))?;
        writeln!(log, "wrote baseline {baseline_path}").ok();
        return Ok(());
    }
    let committed = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    if committed == current {
        writeln!(log, "bench-smoke counts match the committed baseline").ok();
        Ok(())
    } else {
        Err(format!(
            "bench-smoke output counts diverged from the committed baseline \
             {baseline_path}.\n--- committed ---\n{committed}\n--- current ---\n{current}\
             \nIf the change is intentional, regenerate with \
             `experiments bench-smoke --write-baseline`."
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_json_is_canonical() {
        let reports = vec![
            ScenarioReport {
                name: "a",
                wall_ms: 1.0,
                counts: vec![("x", 1), ("y", 2)],
                percentiles: vec![("lat", [10, 20, 30])],
                walls: vec![("fast", 0.5)],
            },
            ScenarioReport {
                name: "b",
                wall_ms: 2.0,
                counts: vec![("z", 3)],
                percentiles: Vec::new(),
                walls: Vec::new(),
            },
        ];
        // Percentiles and sub-run walls are timing-dependent and MUST stay
        // out of the canonical counts the committed baseline is diffed
        // against.
        assert_eq!(
            counts_json(&reports),
            "{\n  \"a\": {\"x\": 1, \"y\": 2},\n  \"b\": {\"z\": 3}\n}\n"
        );
        let full = cep_obs::json::parse(&full_json(&reports)).unwrap();
        let Some(Json::Arr(scenarios)) = full.get("scenarios") else {
            panic!("`scenarios` must be an array: {full:?}");
        };
        let [a, b] = &scenarios[..] else {
            panic!("one entry per scenario: {scenarios:?}");
        };
        let path = |v, keys: &[&str]| keys.iter().try_fold(v, |v: &Json, k| v.get(k)).cloned();
        assert_eq!(path(a, &["name"]), Some(Json::Str("a".into())));
        assert_eq!(path(a, &["wall_ms"]), Some(Json::Float(1.0)));
        assert_eq!(path(a, &["counts", "y"]), Some(Json::UInt(2)));
        assert_eq!(path(a, &["walls_ms", "fast"]), Some(Json::Float(0.5)));
        for (p, v) in [("p50", 10), ("p95", 20), ("p99", 30)] {
            assert_eq!(path(a, &["percentiles_ns", "lat", p]), Some(Json::UInt(v)));
        }
        assert_eq!(path(b, &["name"]), Some(Json::Str("b".into())));
        assert_eq!(path(b, &["counts", "z"]), Some(Json::UInt(3)));
        assert_eq!(path(b, &["walls_ms"]), Some(Json::Obj(Vec::new())));
    }

    /// The gate's core premise: identical seeds produce identical counts.
    #[test]
    fn scenario_counts_are_deterministic() {
        let a = cross_partition();
        let b = cross_partition();
        // Replicate-join exactness is asserted inside the scenario itself.
        assert_eq!(a.counts, b.counts);
    }

    /// Both engine families agree on the compiled pipeline's workload.
    #[test]
    fn compiled_pipeline_agrees_across_engine_families() {
        let r = compiled_pipeline();
        let count = |key: &str| {
            r.counts
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert_eq!(count("compiled_matches"), count("tree_compiled_matches"));
        assert!(count("compiled_matches") > 0);
        assert!(count("compiled_pred_evals") > 0);
    }

    /// Multi-query sharing's headline property at bench scale: the
    /// registry emits exactly what 32 independent engines emit while
    /// doing (at most half; in fact a quarter, with 4× duplication) of
    /// their predicate work.
    #[test]
    fn multi_query_sharing_is_sublinear() {
        let r = multi_query_sharing();
        let count = |key: &str| {
            r.counts
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(
            count("registry_matches") > 0,
            "fixture must produce matches"
        );
        assert_eq!(count("registry_matches"), count("independent_matches"));
        assert_eq!(count("distinct_fragments"), 8);
        assert_eq!(count("shared_subscriptions"), 24);
        assert!(
            count("registry_pred_evals") * 2 <= count("independent_pred_evals"),
            "shared fragments must make registry predicate work sub-linear \
             ({} vs {} independent)",
            count("registry_pred_evals"),
            count("independent_pred_evals"),
        );
    }

    /// The delta backend's headline property at bench scale: as the window
    /// grows 16×, the materializing backends' peak partial-match counts
    /// blow up ≥10×, while the delta engine stores no partial matches and
    /// its peak buffered-event count grows no faster than the window.
    #[test]
    fn delta_window_scaling_blows_up_materializing_backends_only() {
        let r = delta_window_scaling();
        let count = |key: &str| {
            r.counts
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .unwrap()
        };
        // Exact output agreement per window is asserted inside the
        // scenario; re-check the counts are present and non-trivial.
        assert!(count("matches_w250") > 0, "fixture must produce matches");
        assert!(count("matches_w4000") > count("matches_w250"));
        let nfa_ratio =
            count("nfa_peak_partials_w4000") as f64 / count("nfa_peak_partials_w250").max(1) as f64;
        let tree_ratio = count("tree_peak_partials_w4000") as f64
            / count("tree_peak_partials_w250").max(1) as f64;
        let delta_ratio = count("delta_peak_buffered_w4000") as f64
            / count("delta_peak_buffered_w250").max(1) as f64;
        assert!(
            nfa_ratio >= 10.0,
            "NFA partial matches should blow up ≥10× over a 16× window (got {nfa_ratio:.1}×)"
        );
        assert!(
            tree_ratio >= 10.0,
            "tree partial matches should blow up ≥10× over a 16× window (got {tree_ratio:.1}×)"
        );
        assert!(
            delta_ratio <= 16.0 * 1.25,
            "delta buffered events must grow at most linearly with the window \
             (got {delta_ratio:.1}× over a 16× window)"
        );
        assert!(
            delta_ratio < nfa_ratio / 2.0,
            "delta storage ({delta_ratio:.1}×) should scale far below NFA partials ({nfa_ratio:.1}×)"
        );
    }
}
