//! Smoke tests pinning the core path of every `examples/*.rs` to a small
//! deterministic seeded stream, so the examples cannot silently rot: each
//! test mirrors its example's pattern and stream shape (scaled down to
//! stay fast under `cargo test`) and asserts the pipeline still produces
//! matches (or, for the adaptivity demo, still swaps plans exactly).

use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, EngineConfig};
use cep::core::event::Event;
use cep::core::plan::OrderPlan;
use cep::core::schema::{Catalog, ValueKind};
use cep::core::selection::SelectionStrategy;
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::prelude::*;
use cep::streamgen::{analytic_measured_stats, analytic_selectivities, SymbolSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every example under `examples/` that has a mirror test in this file.
/// [`every_example_has_a_smoke_mirror`] fails when the directory and this
/// list drift apart, so a new example cannot be added without a mirror
/// here (CI builds its example matrix from the directory, so that side
/// cannot be forgotten either).
const MIRRORED_EXAMPLES: &[&str] = &[
    "adaptive_replanning",
    "cross_partition_fraud",
    "fraud_detection",
    "quickstart",
    "selection_strategies",
    "sharded_fraud",
    "stock_correlation",
    "traffic_cameras",
];

#[test]
fn every_example_has_a_smoke_mirror() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut found: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/ directory exists")
        .filter_map(|e| {
            let name = e.expect("readable dir entry").file_name();
            let name = name.to_string_lossy().into_owned();
            name.strip_suffix(".rs").map(str::to_owned)
        })
        .collect();
    found.sort();
    let expected: Vec<String> = MIRRORED_EXAMPLES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, expected,
        "examples/ and MIRRORED_EXAMPLES drifted apart; add a smoke mirror \
         for the new example (or remove the stale entry)"
    );
}

/// `examples/cross_partition_fraud.rs`: on a pinned stream partitioned by
/// terminal but correlated by account, split-only routing is rejected with
/// a typed error and the replicate-join run reproduces the single-threaded
/// alerts byte for byte at 1 and 4 shards.
#[test]
fn cross_partition_fraud_core_path_matches() {
    use cep::core::engine::{Engine, EngineFactory};
    use cep::core::stats::MeasuredStats;
    use cep::shard::{canonical_sort, ShardRouter};
    use std::sync::Arc;

    let mut catalog = Catalog::new();
    let swipe = catalog
        .add_type(
            "CardSwipe",
            &[("account", ValueKind::Int), ("amount", ValueKind::Float)],
        )
        .unwrap();
    let withdraw = catalog
        .add_type(
            "Withdrawal",
            &[("account", ValueKind::Int), ("amount", ValueKind::Float)],
        )
        .unwrap();
    let bulletin = catalog
        .add_type("Bulletin", &[("level", ValueKind::Int)])
        .unwrap();
    let pattern = parse_pattern(
        "PATTERN SEQ(Bulletin b, CardSwipe s, Withdrawal w)
         WHERE (s.account == w.account AND b.level >= 3 AND w.amount >= 500)
         WITHIN 60 s",
        &catalog,
    )
    .unwrap();

    // Smaller than the example, same shape: terminals != accounts.
    let mut rng = StdRng::seed_from_u64(17);
    let mut sb = StreamBuilder::new();
    let mut ts = 0u64;
    for burst in 0..16i64 {
        let account = burst % 8;
        ts += rng.gen_range(500..3_000);
        if burst % 4 == 0 {
            sb.push_partitioned(
                Event::new(bulletin, ts, vec![Value::Int(4)]),
                rng.gen_range(0..6),
            );
        }
        ts += rng.gen_range(200..2_000);
        sb.push_partitioned(
            Event::new(swipe, ts, vec![Value::Int(account), Value::Float(20.0)]),
            rng.gen_range(0..6),
        );
        ts += rng.gen_range(200..2_000);
        let amount = if burst % 2 == 0 { 900.0 } else { 40.0 };
        sb.push_partitioned(
            Event::new(
                withdraw,
                ts,
                vec![Value::Int(account), Value::Float(amount)],
            ),
            rng.gen_range(0..6),
        );
    }
    let stream = sb.build();

    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let branches = std::slice::from_ref(&cp);
    // The regression guard: split-only routing is rejected, typed.
    for policy in [RoutingPolicy::HashAttr(0), RoutingPolicy::Partition] {
        let err = ShardRouter::for_query(4, policy, branches).unwrap_err();
        assert!(matches!(err, CepError::Routing(_)), "{err}");
        assert!(err.to_string().contains("ReplicateJoin"), "{err}");
    }
    let spec =
        QueryPartitioner::analyze_measured(branches, &MeasuredStats::measure(&stream)).unwrap();
    assert_eq!(spec.replicated_types().count(), 1, "bulletin is broadcast");
    let factory = {
        let cp = cp.clone();
        move || {
            Box::new(TreeEngine::with_trivial_plan(
                cp.clone(),
                EngineConfig::default(),
            )) as Box<dyn Engine>
        }
    };
    let mut engine = EngineFactory::build(&factory);
    let mut baseline = run_to_completion(engine.as_mut(), &stream, true);
    canonical_sort(&mut baseline.matches);
    assert!(baseline.match_count >= 1, "fraud shape must alert");
    let policy = RoutingPolicy::ReplicateJoin(Arc::new(spec));
    for shards in [1usize, 4] {
        let r = ShardedRuntime::with_shards(shards)
            .run_query(&factory, &stream, policy.clone(), branches, true)
            .unwrap();
        assert_eq!(
            r.matches, baseline.matches,
            "replicate-join with {shards} shards must reproduce the alerts"
        );
    }
}

/// `examples/quickstart.rs`: the three-stock sequence pattern matches on a
/// seeded NASDAQ-like stream under both the trivial and the DP-LD plan,
/// and both plans agree.
#[test]
fn quickstart_core_path_matches() {
    let config = StockConfig::nasdaq_like(10, 8_000, 0.5, 7);
    let mut catalog = cep::core::schema::Catalog::new();
    let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    let pattern = parse_pattern(
        "PATTERN SEQ(S0000 a, S0001 b, S0003 c)
         WHERE (a.difference < b.difference AND c.difference > 0)
         WITHIN 10 s",
        &catalog,
    )
    .unwrap();

    let mut counts = Vec::new();
    for algo in [OrderAlgorithm::Trivial, OrderAlgorithm::DpLd] {
        let mut engine = cep::engine(&pattern)
            .backend(Backend::Nfa(algo))
            .stats(&generated)
            .build()
            .unwrap();
        let result = run_to_completion(engine.as_mut(), &generated.stream, false);
        counts.push(result.match_count);
    }
    assert!(counts[0] >= 1, "quickstart pattern must match");
    assert_eq!(counts[0], counts[1], "plans must agree on the match set");
}

/// `examples/fraud_detection.rs`: the KL + NOT pattern fires on the
/// fraudulent account, both engines agree, and the re-verified account
/// never alerts.
#[test]
fn fraud_detection_core_path_matches() {
    let mut catalog = Catalog::new();
    let small = catalog
        .add_type(
            "SmallTxn",
            &[("account", ValueKind::Int), ("amount", ValueKind::Float)],
        )
        .unwrap();
    let verify = catalog
        .add_type("Verify", &[("account", ValueKind::Int)])
        .unwrap();
    let withdraw = catalog
        .add_type(
            "Withdrawal",
            &[("account", ValueKind::Int), ("amount", ValueKind::Float)],
        )
        .unwrap();
    let pattern = parse_pattern(
        "PATTERN SEQ(KL(SmallTxn s), NOT(Verify v), Withdrawal w)
         WHERE (s.account == w.account AND v.account == w.account
                AND s.amount < 50 AND w.amount >= 500)
         WITHIN 30 s",
        &catalog,
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(5);
    let mut sb = StreamBuilder::new();
    let mut ts = 0u64;
    let mut push = |sb: &mut StreamBuilder, ts: &mut u64, ty, attrs: Vec<Value>| {
        *ts += rng.gen_range(100..800);
        sb.push(Event::new(ty, *ts, attrs));
    };
    // Fewer noise/probe events than the example: the Kleene closure is
    // exponential in same-account small transactions, and this must stay
    // fast in debug builds.
    for _ in 0..5 {
        push(
            &mut sb,
            &mut ts,
            small,
            vec![Value::Int(0), Value::Float(25.0)],
        );
    }
    for _ in 0..2 {
        push(
            &mut sb,
            &mut ts,
            small,
            vec![Value::Int(1), Value::Float(9.99)],
        );
    }
    push(
        &mut sb,
        &mut ts,
        withdraw,
        vec![Value::Int(1), Value::Float(900.0)],
    );
    for _ in 0..2 {
        push(
            &mut sb,
            &mut ts,
            small,
            vec![Value::Int(2), Value::Float(12.0)],
        );
    }
    push(&mut sb, &mut ts, verify, vec![Value::Int(2)]);
    push(
        &mut sb,
        &mut ts,
        withdraw,
        vec![Value::Int(2), Value::Float(800.0)],
    );
    let stream = sb.build();

    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let cfg = EngineConfig {
        max_kleene_events: 8,
        ..Default::default()
    };
    let mut tree = TreeEngine::with_trivial_plan(cp, cfg);
    let result = run_to_completion(&mut tree, &stream, true);

    assert!(result.match_count >= 1, "fraud pattern must alert");
    assert!(
        result.matches.iter().all(|m| {
            m.events()
                .all(|e| e.attr(0) == Some(&Value::Int(1)) || e.attr(0).is_none())
        }),
        "only the fraudulent account may alert"
    );
}

/// `examples/sharded_fraud.rs`: on a pinned deterministic multi-account
/// stream, the sharded runtime returns byte-identical match vectors to the
/// single-threaded engine for 1 and 4 shards, under both hash-by-account
/// and partition routing.
#[test]
fn sharded_fraud_core_path_matches() {
    use cep::core::engine::{Engine, EngineFactory};
    use cep::shard::canonical_sort;

    let mut catalog = Catalog::new();
    let small = catalog
        .add_type(
            "SmallTxn",
            &[("account", ValueKind::Int), ("amount", ValueKind::Float)],
        )
        .unwrap();
    let verify = catalog
        .add_type("Verify", &[("account", ValueKind::Int)])
        .unwrap();
    let withdraw = catalog
        .add_type(
            "Withdrawal",
            &[("account", ValueKind::Int), ("amount", ValueKind::Float)],
        )
        .unwrap();
    let pattern = parse_pattern(
        "PATTERN SEQ(KL(SmallTxn s), NOT(Verify v), Withdrawal w)
         WHERE (s.account == w.account AND v.account == w.account
                AND s.amount < 50 AND w.amount >= 500)
         WITHIN 30 s",
        &catalog,
    )
    .unwrap();

    // Fewer accounts than the example, staggered the same way so the
    // Kleene power-set stays small in debug builds.
    let mut rng = StdRng::seed_from_u64(41);
    let mut timeline: Vec<(u64, Event)> = Vec::new();
    for account in 0..16i64 {
        let fraudulent = account % 3 == 0;
        let mut ts = account as u64 * 20_000 + rng.gen_range(0..5_000u64);
        for _ in 0..2 {
            ts += rng.gen_range(200..2_000);
            timeline.push((
                ts,
                Event::new(small, ts, vec![Value::Int(account), Value::Float(9.99)]),
            ));
        }
        if !fraudulent {
            ts += rng.gen_range(200..2_000);
            timeline.push((ts, Event::new(verify, ts, vec![Value::Int(account)])));
        }
        ts += rng.gen_range(200..2_000);
        timeline.push((
            ts,
            Event::new(withdraw, ts, vec![Value::Int(account), Value::Float(900.0)]),
        ));
    }
    timeline.sort_by_key(|(ts, _)| *ts);
    let mut sb = StreamBuilder::new();
    for (_, event) in timeline {
        let account = match event.attr(0) {
            Some(Value::Int(a)) => *a as u32,
            _ => unreachable!(),
        };
        sb.push_partitioned(event, account);
    }
    let stream = sb.build();

    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let cfg = EngineConfig {
        max_kleene_events: 8,
        ..Default::default()
    };
    let factory =
        move || Box::new(TreeEngine::with_trivial_plan(cp.clone(), cfg.clone())) as Box<dyn Engine>;
    let mut engine = EngineFactory::build(&factory);
    let mut baseline = run_to_completion(engine.as_mut(), &stream, true);
    canonical_sort(&mut baseline.matches);
    assert!(baseline.match_count >= 1, "fraud pattern must alert");

    for policy in [RoutingPolicy::HashAttr(0), RoutingPolicy::Partition] {
        for shards in [1, 4] {
            let r =
                ShardedRuntime::with_shards(shards).run(&factory, &stream, policy.clone(), true);
            assert_eq!(
                r.matches, baseline.matches,
                "{policy} with {shards} shards must reproduce the single-threaded alerts"
            );
        }
    }
}

/// `examples/stock_correlation.rs`: every order algorithm and every tree
/// algorithm plans the conjunction pattern and all agree on a non-empty
/// match count.
#[test]
fn stock_correlation_core_path_matches() {
    let config = StockConfig {
        symbols: vec![
            SymbolSpec {
                name: "MSFT".into(),
                rate_per_sec: 8.0,
                start_price: 410.0,
                drift: 0.05,
                volatility: 0.8,
            },
            SymbolSpec {
                name: "GOOG".into(),
                rate_per_sec: 3.0,
                start_price: 175.0,
                drift: 0.4,
                volatility: 0.6,
            },
            SymbolSpec {
                name: "INTC".into(),
                rate_per_sec: 0.5,
                start_price: 31.0,
                drift: -0.2,
                volatility: 0.5,
            },
        ],
        duration_ms: 30_000,
        seed: 2024,
    };
    let mut catalog = cep::core::schema::Catalog::new();
    let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    let pattern = parse_pattern(
        "PATTERN AND(MSFT m, GOOG g, INTC i)
         WHERE (m.difference < g.difference AND i.difference > 0.3)
         WITHIN 5 s",
        &catalog,
    )
    .unwrap();

    let planner = Planner::default();
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let measured = analytic_measured_stats(&generated);
    let sels = analytic_selectivities(&cp, &generated);
    let stats = planner.stats_for(&cp, &measured, &sels).unwrap();

    let mut counts = Vec::new();
    for algo in [
        OrderAlgorithm::Trivial,
        OrderAlgorithm::EFreq,
        OrderAlgorithm::Greedy,
        OrderAlgorithm::IIGreedy,
        OrderAlgorithm::DpLd,
        OrderAlgorithm::Kbz,
    ] {
        planner.plan_order(&cp, &stats, algo).unwrap();
        let mut engine = cep::engine(&pattern)
            .backend(Backend::Nfa(algo))
            .stats(&generated)
            .build()
            .unwrap();
        counts.push(run_to_completion(engine.as_mut(), &generated.stream, false).match_count);
    }
    for algo in [
        TreeAlgorithm::ZStream,
        TreeAlgorithm::ZStreamOrd,
        TreeAlgorithm::DpB,
    ] {
        planner.plan_tree(&cp, &stats, algo).unwrap();
        let mut engine = cep::engine(&pattern)
            .backend(Backend::Tree(algo))
            .stats(&generated)
            .build()
            .unwrap();
        counts.push(run_to_completion(engine.as_mut(), &generated.stream, false).match_count);
    }
    assert!(counts[0] >= 1, "correlation pattern must match");
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "all plan algorithms must agree: {counts:?}"
    );
}

/// `examples/traffic_cameras.rs`: the in-order and lazy NFA plans agree on
/// the match set and the lazy plan creates strictly fewer partial matches.
#[test]
fn traffic_cameras_core_path_matches() {
    let mut catalog = Catalog::new();
    let cams: Vec<_> = ["A", "B", "C", "D"]
        .iter()
        .map(|n| {
            catalog
                .add_type(n, &[("vehicleID", ValueKind::Int)])
                .unwrap()
        })
        .collect();
    let pattern = parse_pattern(
        "PATTERN SEQ(A a, B b, C c, D d)
         WHERE (a.vehicleID == b.vehicleID AND b.vehicleID == c.vehicleID
                AND c.vehicleID == d.vehicleID)
         WITHIN 60 s",
        &catalog,
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(99);
    let mut sb = StreamBuilder::new();
    let mut ts = 0u64;
    for vehicle in 0..150i64 {
        for (i, &cam) in cams.iter().enumerate() {
            ts += rng.gen_range(20..120);
            if i < 3 || vehicle % 10 == 0 {
                sb.push(Event::new(cam, ts, vec![Value::Int(vehicle)]));
            }
        }
    }
    let stream = sb.build();

    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let trivial = OrderPlan::trivial(&cp);
    let lazy = OrderPlan::new(vec![3, 2, 1, 0]).unwrap();

    let run = |plan: OrderPlan| {
        let plan = TreePlan::left_deep(&plan);
        let mut engine = TreeEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &stream, false);
        (r.match_count, r.metrics.partial_matches_created)
    };
    let (trivial_matches, trivial_partials) = run(trivial);
    let (lazy_matches, lazy_partials) = run(lazy);
    assert!(trivial_matches >= 1, "camera pattern must match");
    assert_eq!(trivial_matches, lazy_matches);
    assert!(
        lazy_partials < trivial_partials,
        "waiting for the rare camera D must create fewer partial matches \
         ({lazy_partials} vs {trivial_partials})"
    );
}

/// `examples/selection_strategies.rs`: each selection strategy upholds its
/// invariant on the same pattern, and the permissive strategies match.
#[test]
fn selection_strategies_core_path_matches() {
    let config = StockConfig::nasdaq_like(8, 20_000, 0.5, 77);
    let mut catalog = cep::core::schema::Catalog::new();
    let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    let base = parse_pattern(
        "PATTERN SEQ(S0000 a, S0002 b, S0005 c)
         WHERE (a.difference < b.difference)
         WITHIN 6 s",
        &catalog,
    )
    .unwrap();

    let mut any_match_count = 0;
    let mut next_match_count = 0;
    for strategy in [
        SelectionStrategy::SkipTillAnyMatch,
        SelectionStrategy::SkipTillNextMatch,
        SelectionStrategy::StrictContiguity,
        SelectionStrategy::PartitionContiguity,
    ] {
        let mut pattern = base.clone();
        pattern.strategy = strategy;
        let mut engine = cep::engine(&pattern)
            .backend(Backend::Nfa(OrderAlgorithm::DpLd))
            .stats(&generated)
            .build()
            .unwrap();
        let r = run_to_completion(engine.as_mut(), &generated.stream, true);
        match strategy {
            SelectionStrategy::SkipTillAnyMatch => any_match_count = r.match_count,
            SelectionStrategy::SkipTillNextMatch => {
                next_match_count = r.match_count;
                let mut used = std::collections::HashSet::new();
                for m in &r.matches {
                    for e in m.events() {
                        assert!(used.insert(e.seq), "next-match events are single-use");
                    }
                }
            }
            SelectionStrategy::StrictContiguity => {
                for m in &r.matches {
                    let mut seqs: Vec<u64> = m.events().map(|e| e.seq).collect();
                    seqs.sort_unstable();
                    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
                }
            }
            SelectionStrategy::PartitionContiguity => {
                assert_eq!(
                    r.match_count, 0,
                    "cross-symbol patterns cannot be partition-contiguous"
                );
            }
        }
    }
    assert!(any_match_count >= 1, "any-match must find matches");
    assert!(next_match_count >= 1, "next-match must find matches");
    assert!(
        next_match_count <= any_match_count,
        "consuming events cannot increase the match count"
    );
}

/// `examples/adaptive_replanning.rs`: on a drifting-rate stream whose
/// frequent and rare types flip, the `AdaptiveEngine` swaps plans at least
/// once, does measurably less work than the static engine, and its output
/// stays byte-identical under every exact selection strategy.
#[test]
fn adaptive_replanning_core_path_swaps_and_stays_exact() {
    use cep::core::engine::Engine;
    use cep::core::matches::Match;
    use cep::shard::canonical_sort;
    use cep::streamgen::{generate_drifting, DriftPhase, StockConfig};

    let spec = |name: &str, rate: f64, drift: f64| SymbolSpec {
        name: name.into(),
        rate_per_sec: rate,
        start_price: 100.0,
        drift,
        volatility: 1.0,
    };
    // Milder drift separation than the example: at this scale the very
    // selective predicates would leave the fixture matchless.
    let base = StockConfig {
        symbols: vec![
            spec("AAA", 20.0, 0.5),
            spec("BBB", 4.0, 0.0),
            spec("CCC", 1.0, -0.5),
        ],
        duration_ms: 0,
        seed: 0xADA,
    };
    // Shorter phases than the example so this stays fast in debug builds.
    let phases = vec![
        DriftPhase::new(8_000, vec![1.0, 1.0, 1.0]),
        DriftPhase::new(8_000, vec![0.05, 1.0, 20.0]),
    ];
    let mut catalog = Catalog::new();
    let gen = generate_drifting(&base, &phases, &mut catalog).unwrap();
    let pattern = parse_pattern(
        "PATTERN SEQ(AAA a, BBB b, CCC c)
         WHERE (a.difference < b.difference AND b.difference < c.difference)
         WITHIN 2 s",
        &catalog,
    )
    .unwrap();
    let sels = vec![
        base.symbols[0].lt_selectivity(&base.symbols[1]),
        base.symbols[1].lt_selectivity(&base.symbols[2]),
    ];

    let run = |engine: &mut dyn Engine| -> Vec<Match> {
        let mut matches = run_to_completion(engine, &gen.stream, true).matches;
        canonical_sort(&mut matches);
        matches
    };
    for strategy in [
        SelectionStrategy::SkipTillAnyMatch,
        SelectionStrategy::StrictContiguity,
        SelectionStrategy::PartitionContiguity,
    ] {
        let mut p = pattern.clone();
        p.strategy = strategy;
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let replanner = PlanReplanner::new(
            vec![(cp, sels.clone())],
            &gen.initial_stats(),
            Planner::default(),
            Backend::Nfa(OrderAlgorithm::DpLd),
            EngineConfig::default(),
        )
        .unwrap();
        let initial_plan = replanner.describe();
        let mut static_engine = replanner.build();
        let expected = run(static_engine.as_mut());
        let mut adaptive = AdaptiveEngine::new(
            replanner,
            p.window,
            AdaptiveConfig {
                horizon_ms: 2_000,
                drift_threshold: 0.5,
                check_every: 16,
                cooldown_events: 32,
                ..AdaptiveConfig::default()
            },
        );
        let got = run(&mut adaptive);
        assert_eq!(got, expected, "{strategy}: swapped output diverged");
        if strategy == SelectionStrategy::SkipTillAnyMatch {
            assert!(!expected.is_empty(), "fixture should produce matches");
            assert!(adaptive.swaps() >= 1, "the rate flip must trigger a swap");
            assert_ne!(adaptive.replanner().describe(), initial_plan);
            assert!(
                adaptive.metrics().partial_matches_created
                    < static_engine.metrics().partial_matches_created,
                "the swapped plan must do less work after the drift"
            );
        }
    }
}

/// The facade's adaptive factories: engines stamped out by the builder's
/// `.adaptive(..)` chain agree byte for byte with the static factories'
/// engines on a stationary stream (where calibration may swap, but the
/// result set cannot change).
#[test]
fn adaptive_factories_agree_with_static_factories() {
    use cep::core::matches::Match;
    use cep::shard::canonical_sort;

    let config = StockConfig::nasdaq_like(8, 10_000, 0.5, 21);
    let mut catalog = Catalog::new();
    let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    let pattern = parse_pattern(
        "PATTERN SEQ(S0000 a, S0002 b)
         WHERE a.difference < b.difference
         WITHIN 4 s",
        &catalog,
    )
    .unwrap();
    let adaptive_cfg = AdaptiveConfig {
        horizon_ms: 2_000,
        drift_threshold: 0.5,
        check_every: 32,
        cooldown_events: 64,
        ..AdaptiveConfig::default()
    };
    let run = |factory: &dyn cep::core::engine::EngineFactory| -> Vec<Match> {
        let mut engine = factory.build();
        let mut matches = run_to_completion(engine.as_mut(), &generated.stream, true).matches;
        canonical_sort(&mut matches);
        matches
    };
    let nfa_static = run(cep::engine(&pattern)
        .backend(Backend::Nfa(OrderAlgorithm::DpLd))
        .stats(&generated)
        .factory()
        .unwrap()
        .as_ref());
    assert!(!nfa_static.is_empty(), "fixture should produce matches");
    let nfa_adaptive = run(cep::engine(&pattern)
        .backend(Backend::Nfa(OrderAlgorithm::DpLd))
        .stats(&generated)
        .adaptive(adaptive_cfg.clone())
        .factory()
        .unwrap()
        .as_ref());
    assert_eq!(nfa_adaptive, nfa_static);
    let tree_static = run(cep::engine(&pattern)
        .backend(Backend::Tree(TreeAlgorithm::DpB))
        .stats(&generated)
        .factory()
        .unwrap()
        .as_ref());
    let tree_adaptive = run(cep::engine(&pattern)
        .backend(Backend::Tree(TreeAlgorithm::DpB))
        .stats(&generated)
        .adaptive(adaptive_cfg)
        .factory()
        .unwrap()
        .as_ref());
    assert_eq!(tree_adaptive, tree_static);
    assert_eq!(
        nfa_adaptive.len(),
        tree_adaptive.len(),
        "engine families agree on the match count"
    );
}

/// The facade's *full*-adaptive factories (online selectivity
/// re-estimation on top of rate monitoring): on a stationary stream their
/// engines agree byte for byte with the static factories' — re-estimated
/// selectivities may refine the plan, never the result set.
#[test]
fn full_adaptive_factories_agree_with_static_factories() {
    use cep::core::matches::Match;
    use cep::shard::canonical_sort;

    let config = StockConfig::nasdaq_like(8, 10_000, 0.5, 21);
    let mut catalog = Catalog::new();
    let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    let pattern = parse_pattern(
        "PATTERN SEQ(S0000 a, S0002 b)
         WHERE a.difference < b.difference
         WITHIN 4 s",
        &catalog,
    )
    .unwrap();
    let adaptive_cfg = AdaptiveConfig {
        horizon_ms: 2_000,
        drift_threshold: 0.5,
        check_every: 32,
        cooldown_events: 64,
        ..AdaptiveConfig::default()
    };
    let run = |factory: &dyn cep::core::engine::EngineFactory| -> Vec<Match> {
        let mut engine = factory.build();
        let mut matches = run_to_completion(engine.as_mut(), &generated.stream, true).matches;
        canonical_sort(&mut matches);
        matches
    };
    let nfa_static = run(cep::engine(&pattern)
        .backend(Backend::Nfa(OrderAlgorithm::DpLd))
        .stats(&generated)
        .factory()
        .unwrap()
        .as_ref());
    assert!(!nfa_static.is_empty(), "fixture should produce matches");
    let nfa_full = run(cep::engine(&pattern)
        .backend(Backend::Nfa(OrderAlgorithm::DpLd))
        .stats(&generated)
        .full_adaptive(adaptive_cfg.clone())
        .factory()
        .unwrap()
        .as_ref());
    assert_eq!(nfa_full, nfa_static);
    let tree_static = run(cep::engine(&pattern)
        .backend(Backend::Tree(TreeAlgorithm::DpB))
        .stats(&generated)
        .factory()
        .unwrap()
        .as_ref());
    let tree_full = run(cep::engine(&pattern)
        .backend(Backend::Tree(TreeAlgorithm::DpB))
        .stats(&generated)
        .full_adaptive(adaptive_cfg)
        .factory()
        .unwrap()
        .as_ref());
    assert_eq!(tree_full, tree_static);
}
