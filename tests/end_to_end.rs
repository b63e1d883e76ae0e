//! End-to-end pipeline tests: SASE text → parser → compiler → planner →
//! engines over generated stock streams, with every algorithm agreeing on
//! the detected matches and the strategy semantics holding.

use cep::conformance::signatures;
use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, EngineConfig};
use cep::core::schema::Catalog;
use cep::core::selection::SelectionStrategy;
use cep::prelude::*;
use cep::streamgen::{generate_set, GeneratedStream, WorkloadConfig};

fn setup(seed: u64) -> (Catalog, GeneratedStream) {
    let config = StockConfig::nasdaq_like(12, 60_000, 0.2, seed);
    let mut catalog = Catalog::new();
    let gen = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    (catalog, gen)
}

#[test]
fn sase_to_engines_all_algorithms_agree() {
    let (catalog, gen) = setup(31);
    let pattern = parse_pattern(
        "PATTERN SEQ(S0001 a, S0004 b, S0007 c)
         WHERE (a.difference < b.difference AND b.difference < c.difference)
         WITHIN 8 s",
        &catalog,
    )
    .unwrap();
    let cfg = EngineConfig::default();
    let mut reference: Option<Vec<_>> = None;
    for algo in [
        OrderAlgorithm::Trivial,
        OrderAlgorithm::EFreq,
        OrderAlgorithm::Greedy,
        OrderAlgorithm::IIRandom {
            restarts: 5,
            seed: 1,
        },
        OrderAlgorithm::IIGreedy,
        OrderAlgorithm::DpLd,
        OrderAlgorithm::Kbz,
    ] {
        let mut engine = cep::engine(&pattern)
            .backend(Backend::Nfa(algo))
            .stats(&gen)
            .config(cfg.clone())
            .build()
            .unwrap();
        let r = run_to_completion(engine.as_mut(), &gen.stream, true);
        let sigs = signatures(&r.matches);
        match &reference {
            None => reference = Some(sigs),
            Some(expected) => assert_eq!(&sigs, expected, "{algo} disagrees"),
        }
    }
    for algo in [
        TreeAlgorithm::ZStream,
        TreeAlgorithm::ZStreamOrd,
        TreeAlgorithm::DpB,
    ] {
        let mut engine = cep::engine(&pattern)
            .backend(Backend::Tree(algo))
            .stats(&gen)
            .config(cfg.clone())
            .build()
            .unwrap();
        let r = run_to_completion(engine.as_mut(), &gen.stream, true);
        assert_eq!(
            &signatures(&r.matches),
            reference.as_ref().unwrap(),
            "{algo} disagrees"
        );
    }
    assert!(
        !reference.unwrap().is_empty(),
        "fixture should detect at least one match"
    );
}

#[test]
fn disjunction_equals_union_of_branches() {
    let (catalog, gen) = setup(37);
    let pattern = parse_pattern(
        "PATTERN OR(SEQ(S0000 a, S0002 b), SEQ(S0005 c, S0008 d)) WITHIN 5 s",
        &catalog,
    )
    .unwrap();
    // Multi-engine result.
    let mut engine = cep::engine(&pattern)
        .backend(Backend::Nfa(OrderAlgorithm::Greedy))
        .stats(&gen)
        .build()
        .unwrap();
    let combined = run_to_completion(engine.as_mut(), &gen.stream, true);
    // Branches evaluated individually.
    let branches = CompiledPattern::compile(&pattern).unwrap();
    assert_eq!(branches.len(), 2);
    let mut union = 0u64;
    for cp in branches {
        let mut e = cep::tree::TreeEngine::with_trivial_plan(cp, EngineConfig::default());
        union += run_to_completion(&mut e, &gen.stream, true).match_count;
    }
    assert_eq!(combined.match_count, union);
    assert!(union > 0, "fixture should match");
}

#[test]
fn next_match_is_disjoint_and_any_match_is_superset() {
    let (catalog, gen) = setup(41);
    let any = parse_pattern("PATTERN SEQ(S0001 a, S0003 b) WITHIN 4 s", &catalog).unwrap();
    let mut next = any.clone();
    next.strategy = SelectionStrategy::SkipTillNextMatch;

    let mut e_any = cep::engine(&any)
        .backend(Backend::Nfa(OrderAlgorithm::DpLd))
        .stats(&gen)
        .build()
        .unwrap();
    let r_any = run_to_completion(e_any.as_mut(), &gen.stream, true);
    let mut e_next = cep::engine(&next)
        .backend(Backend::Nfa(OrderAlgorithm::DpLd))
        .stats(&gen)
        .build()
        .unwrap();
    let r_next = run_to_completion(e_next.as_mut(), &gen.stream, true);

    // Next-match: disjoint events, and no more matches than any-match.
    let mut used = std::collections::HashSet::new();
    for m in &r_next.matches {
        for e in m.events() {
            assert!(used.insert(e.seq), "event reused under next-match");
        }
    }
    assert!(r_next.match_count <= r_any.match_count);
    // Every next-match is also an any-match.
    let any_sigs: std::collections::HashSet<_> =
        r_any.matches.iter().map(|m| m.signature()).collect();
    for m in &r_next.matches {
        assert!(any_sigs.contains(&m.signature()));
    }
}

#[test]
fn partition_contiguity_on_partitioned_stream() {
    // The stock generator partitions by symbol, so a cross-symbol pattern
    // can never satisfy partition contiguity, while a same-symbol pair
    // pattern can.
    let (catalog, gen) = setup(43);
    let cross = parse_pattern(
        "PATTERN SEQ(S0001 a, S0003 b) WITHIN 4 s STRATEGY partition",
        &catalog,
    )
    .unwrap();
    let mut engine = cep::engine(&cross)
        .backend(Backend::Nfa(OrderAlgorithm::Trivial))
        .stats(&gen)
        .build()
        .unwrap();
    let r = run_to_completion(engine.as_mut(), &gen.stream, true);
    assert_eq!(
        r.match_count, 0,
        "different symbols live in different partitions"
    );

    let same = parse_pattern(
        "PATTERN SEQ(S0001 a, S0001 b) WITHIN 60 s STRATEGY partition",
        &catalog,
    )
    .unwrap();
    let mut engine = cep::engine(&same)
        .backend(Backend::Nfa(OrderAlgorithm::Trivial))
        .stats(&gen)
        .build()
        .unwrap();
    let r = run_to_completion(engine.as_mut(), &gen.stream, true);
    assert!(
        r.match_count > 0,
        "consecutive updates of one symbol are partition-adjacent"
    );
}

#[test]
fn workload_sets_run_under_both_engines() {
    let (_, gen) = setup(47);
    let wl = WorkloadConfig {
        window_ms: 4_000,
        seed: 5,
    };
    let cfg = EngineConfig {
        max_kleene_events: 5,
        ..Default::default()
    };
    for kind in PatternSetKind::all() {
        let set = generate_set(kind, 3..=3, 2, &gen, &wl).unwrap();
        for gp in &set {
            let mut nfa = cep::engine(&gp.pattern)
                .backend(Backend::Nfa(OrderAlgorithm::Greedy))
                .stats(&gen)
                .config(cfg.clone())
                .build()
                .unwrap();
            let rn = run_to_completion(nfa.as_mut(), &gen.stream, true);
            let mut tree = cep::engine(&gp.pattern)
                .backend(Backend::Tree(TreeAlgorithm::ZStreamOrd))
                .stats(&gen)
                .config(cfg.clone())
                .build()
                .unwrap();
            let rt = run_to_completion(tree.as_mut(), &gen.stream, true);
            assert_eq!(
                signatures(&rn.matches),
                signatures(&rt.matches),
                "{kind} pattern disagrees between engines: {}",
                gp.pattern
            );
        }
    }
}

#[test]
fn latency_plans_shift_work_before_the_last_event() {
    // With a large latency weight, the planner schedules the temporally
    // last element last, so detection work after its arrival is minimal.
    use cep::optimizer::{Planner, PlannerConfig};
    let (catalog, gen) = setup(53);
    let pattern = parse_pattern(
        "PATTERN SEQ(S0002 a, S0004 b, S0006 c) WITHIN 8 s",
        &catalog,
    )
    .unwrap();
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let measured = cep::streamgen::analytic_measured_stats(&gen);
    let sels = cep::streamgen::analytic_selectivities(&cp, &gen);
    let high_alpha = Planner::new(PlannerConfig {
        alpha: 1e9,
        ..Default::default()
    });
    let stats = high_alpha.stats_for(&cp, &measured, &sels).unwrap();
    let plan = high_alpha
        .plan_order(&cp, &stats, OrderAlgorithm::DpLd)
        .unwrap();
    assert_eq!(
        *plan.order().last().unwrap(),
        2,
        "latency-dominated plan must finish with the last sequence element"
    );
}
