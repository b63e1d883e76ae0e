//! Live plan swap (the detect → replan → swap loop the paper's Section 6.3
//! defers to companion work), running end to end: an `AdaptiveEngine`
//! monitors arrival-rate drift, rebuilds its evaluation plan from live
//! estimates, and hot-swaps engines mid-stream — replaying the retained
//! pattern window into the fresh engine and deduplicating re-detections so
//! the output is **byte-identical** to a never-swapped engine.
//!
//! The stream starts with AAA frequent and CCC rare; halfway through, the
//! rates flip. The initial plan (wait for rare CCC, then join backwards)
//! becomes the worst order in phase 2; the adaptive engine detects the
//! drift and swaps to the inverted plan, which a side-by-side static
//! engine never does.
//!
//! Run with `cargo run --release --example adaptive_replanning`.

use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, Engine};
use cep::core::matches::Match;
use cep::core::schema::Catalog;
use cep::core::selection::SelectionStrategy;
use cep::prelude::*;
use cep::shard::canonical_sort;
use cep::streamgen::{generate_drifting, DriftPhase, StockConfig, SymbolSpec};

fn main() {
    // Three symbols: AAA frequent, BBB steady, CCC rare — until the flip.
    let spec = |name: &str, rate: f64, drift: f64| SymbolSpec {
        name: name.into(),
        rate_per_sec: rate,
        start_price: 100.0,
        drift,
        volatility: 1.0,
    };
    let base = StockConfig {
        symbols: vec![
            spec("AAA", 20.0, 2.0),
            spec("BBB", 4.0, 0.0),
            spec("CCC", 1.0, -2.0),
        ],
        duration_ms: 0, // per-phase durations below
        seed: 0xADA,
    };
    let phases = vec![
        DriftPhase::new(30_000, vec![1.0, 1.0, 1.0]),
        DriftPhase::new(30_000, vec![0.05, 1.0, 20.0]),
    ];
    let mut catalog = Catalog::new();
    let gen = generate_drifting(&base, &phases, &mut catalog).unwrap();
    println!(
        "drifting stream: {} events, rates flip at {} ms",
        gen.stream.len(),
        gen.drift_start_ms()
    );

    let pattern = parse_pattern(
        "PATTERN SEQ(AAA a, BBB b, CCC c)
         WHERE (a.difference < b.difference AND b.difference < c.difference)
         WITHIN 3 s",
        &catalog,
    )
    .unwrap();
    let sels = vec![
        base.symbols[0].lt_selectivity(&base.symbols[1]),
        base.symbols[1].lt_selectivity(&base.symbols[2]),
    ];
    let adaptive_cfg = AdaptiveConfig {
        horizon_ms: 3_000,
        drift_threshold: 0.5,
        check_every: 32,
        cooldown_events: 128,
        ..AdaptiveConfig::default()
    };

    let run = |engine: &mut dyn Engine, stream| -> (Vec<Match>, u64) {
        let r = run_to_completion(engine, stream, true);
        let mut matches = r.matches;
        canonical_sort(&mut matches);
        (matches, r.metrics.partial_matches_created)
    };

    // The exactness guarantee: under every exact selection strategy, the
    // swapping engine's output is byte-identical to the static engine's.
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
            Default::default(),
        )
        .unwrap();
        let initial_plan = replanner.describe();
        let mut static_engine = replanner.build();
        let (expected, static_partials) = run(static_engine.as_mut(), &gen.stream);
        let mut adaptive = AdaptiveEngine::new(replanner, p.window, adaptive_cfg.clone());
        let (got, adaptive_partials) = run(&mut adaptive, &gen.stream);
        assert_eq!(
            got, expected,
            "{strategy}: the swapped output must be byte-identical"
        );
        println!(
            "\n[{strategy}] {} matches, byte-identical with and without swaps",
            got.len()
        );
        if strategy == SelectionStrategy::SkipTillAnyMatch {
            let m = adaptive.metrics();
            println!("  initial plan : {initial_plan}");
            println!("  final plan   : {}", adaptive.replanner().describe());
            println!(
                "  plan swaps   : {} ({} events replayed, {:.2} ms replay time)",
                m.plan_swaps,
                m.replayed_events,
                m.replay_time_ns as f64 / 1e6
            );
            println!("  partial matches: static {static_partials} vs adaptive {adaptive_partials}");
            assert!(m.plan_swaps >= 1, "the rate flip must trigger a swap");
            assert_ne!(
                adaptive.replanner().describe(),
                initial_plan,
                "the swap must adopt a different plan"
            );
            assert!(
                adaptive_partials < static_partials,
                "the swapped plan must do less work after the drift"
            );
        }
    }
    println!("\nadaptivity: detected drift, swapped plans, output provably unchanged");
}
