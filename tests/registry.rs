//! Multi-query registry conformance: a [`cep::core::registry::QueryRegistry`]
//! evaluating N overlapping queries must be *invisible* — each query's
//! output byte-identical (`(signature, emitted_at)`, in emission order)
//! to an independent engine evaluating that query alone — while shared
//! fragments execute once. The property sweep draws random query sets through
//! [`cep::conformance`]; the acceptance fixture pins the headline claim:
//! 32 overlapping queries, three backends, byte-identity per query, and
//! sub-linear predicate work.

use cep::conformance::{check_registry_equivalence_under, in_order, PatternSpec};
use cep::core::engine::run_to_completion;
use cep::core::selection::SelectionStrategy;
use cep::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 100,
    })]

    /// Random query sets (with deliberate duplicates, so fragment sharing
    /// actually triggers) agree per-query with independent engines across
    /// every backend, interpreted and compiled predicate paths both.
    #[test]
    fn registry_matches_independent_engines(
        seqs in prop::collection::vec(any::<bool>(), 2..=3),
        types in prop::collection::vec(prop::collection::vec(0u32..4, 2..=3), 2..=3),
        preds in prop::collection::vec((0usize..3, 0usize..3, 0u8..8), 0..=2),
        raw in prop::collection::vec((0u32..5, 0u8..4, -3i8..4), 10..=40),
        seed in any::<u64>(),
        window in 4u64..12,
        duplicate in any::<bool>(),
    ) {
        let mut specs: Vec<PatternSpec> = seqs
            .iter()
            .zip(&types)
            .map(|(&is_seq, ts)| PatternSpec {
                is_seq,
                elements: ts.iter().map(|&t| (t, 0)).collect(),
                predicates: preds.clone(),
                filters: vec![],
                window,
            })
            .collect();
        if duplicate {
            // Register the first query twice: identical branches must
            // share one fragment yet both queries must see every match.
            specs.push(specs[0].clone());
        }
        check_registry_equivalence_under(
            specs,
            raw,
            seed,
            SelectionStrategy::SkipTillAnyMatch,
        );
    }

    /// The same property under the stricter exact strategies.
    #[test]
    fn registry_matches_independent_engines_strict(
        types in prop::collection::vec(prop::collection::vec(0u32..4, 2..=3), 2..=2),
        raw in prop::collection::vec((0u32..5, 0u8..4, -3i8..4), 10..=35),
        seed in any::<u64>(),
        window in 4u64..12,
        strict in any::<bool>(),
    ) {
        let specs: Vec<PatternSpec> = types
            .iter()
            .map(|ts| PatternSpec {
                is_seq: true,
                elements: ts.iter().map(|&t| (t, 0)).collect(),
                predicates: vec![],
                filters: vec![],
                window,
            })
            .collect();
        let strategy = if strict {
            SelectionStrategy::StrictContiguity
        } else {
            SelectionStrategy::PartitionContiguity
        };
        check_registry_equivalence_under(specs, raw, seed, strategy);
    }
}

/// The patterns for the 32-query acceptance fixture: 8 distinct queries
/// over a NASDAQ-like stream, registered 4 times each.
fn acceptance_pool(catalog: &cep::core::schema::Catalog) -> Vec<cep::core::pattern::Pattern> {
    let specs = [
        "PATTERN SEQ(S0000 a, S0001 b) WHERE a.difference < b.difference WITHIN 4 s",
        "PATTERN SEQ(S0000 a, S0002 b) WHERE a.difference < b.difference WITHIN 4 s",
        "PATTERN SEQ(S0001 a, S0003 b) WHERE a.difference > b.difference WITHIN 3 s",
        "PATTERN SEQ(S0002 a, S0004 b, S0005 c)
         WHERE (a.difference < b.difference AND c.difference > 0) WITHIN 5 s",
        "PATTERN AND(S0003 a, S0006 b) WHERE a.difference < b.difference WITHIN 3 s",
        "PATTERN SEQ(S0004 a, S0007 b) WHERE a.difference <= b.difference WITHIN 4 s",
        "PATTERN SEQ(S0005 a, S0006 b) WHERE a.difference != b.difference WITHIN 2 s",
        "PATTERN SEQ(S0001 a, S0005 b, S0007 c)
         WHERE (a.difference < c.difference) WITHIN 6 s",
    ];
    specs
        .iter()
        .map(|s| parse_pattern(s, catalog).expect("valid acceptance pattern"))
        .collect()
}

/// The headline acceptance check: 32 overlapping queries (8 distinct × 4)
/// in one registry, per-query byte-identical to 32 independent engines,
/// across all three backends — while evaluating each shared fragment
/// once (fragments < queries, sub-linear predicate evaluations).
#[test]
fn registry_32_overlapping_queries_match_independent_engines() {
    let config = StockConfig::nasdaq_like(8, 15_000, 0.5, 42);
    let mut catalog = cep::core::schema::Catalog::new();
    let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    let pool = acceptance_pool(&catalog);
    let queries: Vec<_> = (0..32).map(|i| pool[i % pool.len()].clone()).collect();

    for backend in [
        Backend::Nfa(OrderAlgorithm::DpLd),
        Backend::Tree(TreeAlgorithm::DpB),
        Backend::Delta,
    ] {
        // The registry: all 32 queries, one fragment per distinct branch.
        let mut registry = cep::registry()
            .backend(backend)
            .stats(&generated)
            .build()
            .unwrap();
        let ids: Vec<QueryId> = queries
            .iter()
            .map(|p| registry.register(p).unwrap())
            .collect();
        assert_eq!(registry.len(), 32);
        assert_eq!(
            registry.fragment_count(),
            pool.len(),
            "{backend:?}: 32 queries over {} distinct patterns must share fragments",
            pool.len()
        );
        let result = registry.run(&generated.stream);
        let metrics = registry.metrics();
        assert_eq!(metrics.registered_queries, 32);
        // 24 of the 32 subscriptions were served by an existing fragment.
        assert_eq!(metrics.shared_fragments, (32 - pool.len()) as u64);

        // The baselines: one independent engine per query.
        let mut independent_predicate_evals = 0u64;
        let mut any_matches = false;
        for (pattern, id) in queries.iter().zip(&ids) {
            let mut engine = cep::engine(pattern)
                .backend(backend)
                .stats(&generated)
                .build()
                .unwrap();
            let r = run_to_completion(engine.as_mut(), &generated.stream, true);
            independent_predicate_evals += r.metrics.predicate_evaluations;
            any_matches |= r.match_count > 0;
            assert_eq!(
                in_order(&result.per_query[id]),
                in_order(&r.matches),
                "{backend:?}: query {id} diverged from its independent engine"
            );
        }
        assert!(any_matches, "{backend:?}: fixture must produce matches");

        // Shared fragments ran once: with 4× duplication the registry
        // does at most half (actually a quarter) of the independent
        // engines' predicate work.
        if independent_predicate_evals > 0 {
            assert!(
                metrics.predicate_evaluations * 2 <= independent_predicate_evals,
                "{backend:?}: registry predicate work must be sub-linear \
                 ({} vs {} independent)",
                metrics.predicate_evaluations,
                independent_predicate_evals
            );
        }
    }
}

/// The set-level plan report surfaces the sharing the acceptance fixture
/// relies on: 32 queries, 8 distinct fragments, sharing ratio 4.
#[test]
fn registry_set_plan_reports_sharing() {
    let config = StockConfig::nasdaq_like(8, 2_000, 0.5, 42);
    let mut catalog = cep::core::schema::Catalog::new();
    let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    let pool = acceptance_pool(&catalog);
    let mut registry = cep::registry().build().unwrap();
    for i in 0..32 {
        registry.register(&pool[i % pool.len()]).unwrap();
    }
    let report = registry.set_plan();
    assert_eq!(report.queries, 32);
    assert_eq!(report.distinct_fragments, pool.len());
    assert!(
        (report.sharing_ratio() - 4.0).abs() < 1e-9,
        "8 distinct patterns registered 4x each share at ratio 4, got {}",
        report.sharing_ratio()
    );
    let _ = generated; // stream only needed to build the catalog types
}
