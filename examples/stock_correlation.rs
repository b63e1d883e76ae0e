//! The paper's Section 7.2 workload in miniature: relative-change patterns
//! over stock price updates, comparing every plan-generation algorithm on
//! the same conjunction pattern (the MSFT/GOOG/INTC example).
//!
//! Run with `cargo run --release --example stock_correlation`.

use cep::core::compile::CompiledPattern;
use cep::core::engine::run_to_completion;
use cep::prelude::*;
use cep::streamgen::{analytic_measured_stats, analytic_selectivities, SymbolSpec};

fn main() {
    // Three named stocks with distinct rates and drifts.
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
        duration_ms: 120_000,
        seed: 2024,
    };
    let mut catalog = cep::core::schema::Catalog::new();
    let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    println!("stream: {} price updates", generated.stream.len());

    // The paper's example conjunction (Section 7.2): examine INTC whenever
    // GOOG's price change exceeds MSFT's, within a 5-second window (the
    // extra filter on INTC keeps the demo's match count readable).
    let pattern = parse_pattern(
        "PATTERN AND(MSFT m, GOOG g, INTC i)
         WHERE (m.difference < g.difference AND i.difference > 0.3)
         WITHIN 5 s",
        &catalog,
    )
    .unwrap();
    println!("pattern: {pattern}\n");

    // Show what each algorithm plans and how the plans perform.
    let planner = Planner::default();
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let measured = analytic_measured_stats(&generated);
    let sels = analytic_selectivities(&cp, &generated);
    let stats = planner.stats_for(&cp, &measured, &sels).unwrap();
    let cm = planner.cost_model(&cp);

    println!("order-based algorithms (left-deep trees):");
    for algo in [
        OrderAlgorithm::Trivial,
        OrderAlgorithm::EFreq,
        OrderAlgorithm::Greedy,
        OrderAlgorithm::IIGreedy,
        OrderAlgorithm::DpLd,
        OrderAlgorithm::Kbz,
    ] {
        let plan = planner.plan_order(&cp, &stats, algo).unwrap();
        let cost = cm.order_plan_cost(&stats, &plan);
        let mut engine = cep::engine(&pattern)
            .backend(Backend::Nfa(algo))
            .stats(&generated)
            .build()
            .unwrap();
        let r = run_to_completion(engine.as_mut(), &generated.stream, false);
        println!(
            "  {algo:>10} plan {plan:<22} cost {cost:>10.1}  -> {:>7.0} events/s, {} matches",
            r.metrics.throughput_eps(),
            r.match_count
        );
    }

    println!("tree-based algorithms (ZStream-style):");
    for algo in [
        TreeAlgorithm::ZStream,
        TreeAlgorithm::ZStreamOrd,
        TreeAlgorithm::DpB,
    ] {
        let plan = planner.plan_tree(&cp, &stats, algo).unwrap();
        let cost = cm.tree_plan_cost(&stats, &plan);
        let mut engine = cep::engine(&pattern)
            .backend(Backend::Tree(algo))
            .stats(&generated)
            .build()
            .unwrap();
        let r = run_to_completion(engine.as_mut(), &generated.stream, false);
        println!(
            "  {algo:>11} plan {plan:<22} cost {cost:>10.1}  -> {:>7.0} events/s, {} matches",
            r.metrics.throughput_eps(),
            r.match_count
        );
    }
}
