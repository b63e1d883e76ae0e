//! `multi-query-fanout`: the many-overlapping-queries regime of
//! Dossinger & Michel (arXiv:2104.07742). Twelve distinct short, loose
//! stock patterns, each registered four times, in one registry: state is
//! small and matches are plentiful, so match construction, signature
//! dedup across `OR` branches and per-query fan-out are where time goes.

use super::stock::{market_config, split};
use super::{every_nth, Property, Query, Shape, Workload};
use cep::core::engine::EngineConfig;
use cep::core::error::CepError;
use cep::core::schema::Catalog;
use cep::optimizer::OrderAlgorithm;
use cep::streamgen::StockStreamGenerator;
use cep::Backend;

const SYMBOLS: usize = 12;
const DURATION_MS: u64 = 1_400_000;
const RATE_SCALE: f64 = 1.0;
const WINDOW_MS: u64 = 100;
const COPIES: usize = 4;

/// The twelve distinct queries: six two-step and two three-step
/// sequences, and four disjunctions whose two branches start at the same
/// symbol (overlapping inputs, distinct fragments — so the sharing ratio
/// comes from the four copies alone and is exactly 4).
fn distinct_queries() -> Vec<String> {
    let s = |i: usize| format!("S{:04}", i % SYMBOLS);
    let mut out = Vec::new();
    for i in 0..6 {
        out.push(format!(
            "PATTERN SEQ({} a, {} b) WHERE (a.difference < b.difference) WITHIN {WINDOW_MS} ms",
            s(i),
            s(i + 1)
        ));
    }
    for i in [6, 8] {
        out.push(format!(
            "PATTERN SEQ({} a, {} b, {} c) WHERE (a.difference < c.difference) WITHIN {WINDOW_MS} ms",
            s(i),
            s(i + 1),
            s(i + 2)
        ));
    }
    for i in [0, 3, 6, 9] {
        out.push(format!(
            "PATTERN OR(SEQ({} a, {} b), SEQ({} c, {} d)) \
             WHERE (a.difference < b.difference AND c.difference < d.difference) WITHIN {WINDOW_MS} ms",
            s(i),
            s(i + 2),
            s(i),
            s(i + 3)
        ));
    }
    out
}

pub fn build(seed: u64) -> Result<Workload, CepError> {
    let mut catalog = Catalog::new();
    let gen = StockStreamGenerator::generate(
        &market_config(SYMBOLS, DURATION_MS, RATE_SCALE, seed),
        &mut catalog,
    )?;
    let distinct = distinct_queries();
    let queries = (0..COPIES)
        .flat_map(|_| distinct.iter())
        .map(Query::new)
        .collect();
    let (stream, stats) = split(gen);
    let oracle = every_nth(&stream, 0, 1, 20_000);
    Ok(Workload {
        name: "multi-query-fanout",
        catalog,
        stream,
        stats: Some(stats),
        queries,
        backend: Backend::Nfa(OrderAlgorithm::Greedy),
        config: EngineConfig::default(),
        shape: Shape::Registry,
        oracle,
        setup_batch: 20,
        properties: vec![
            Property::at_least("bench.completing_calls", 20_000.0),
            Property::exactly("registry.sharing_ratio", COPIES as f64),
            // at least one match per 20 events
            Property::at_least("engine.matches_per_kevent", 50.0),
        ],
    })
}
