//! `stock-join-nfa` / `stock-join-tree`: the paper's §7.2 set-up — a
//! NASDAQ-like stream and one pattern of each evaluated category — at a
//! rate × window where an arriving event meets many live partial matches.
//!
//! The seven patterns are written out here, not drawn by
//! `streamgen::generate_set`: that generator puts `size / 2` predicates
//! on a pattern, which leaves positions unconstrained, so at any window
//! wide enough to keep a thousand partial matches alive the output is
//! larger than the join state and match construction, not the join, is
//! what a run measures. These chain a `difference` comparison through
//! every positive position, against the symbols' drifts, so most partial
//! matches die at a predicate and few complete.

use super::{every_nth, Property, Query, Shape, Workload};
use cep::core::engine::EngineConfig;
use cep::core::error::CepError;
use cep::core::schema::Catalog;
use cep::core::stream::EventStream;
use cep::optimizer::{OrderAlgorithm, TreeAlgorithm};
use cep::streamgen::{GeneratedStream, StockConfig, StockStreamGenerator};
use cep::Backend;

/// Fixes every symbol's rate, drift and volatility (see the module docs
/// of `workloads`: the market is part of the workload, not of the seed).
const MARKET_SEED: u64 = 0x4D4B_5431;

const SYMBOLS: usize = 12;
const DURATION_MS: u64 = 300_000;
const RATE_SCALE: f64 = 1.0;

/// seq-4, seq-5, conj-3, conj-4, neg-4, kleene-3, disj-3. Symbol rates
/// (events/s) under `MARKET_SEED`: S0000 28, S0001 11, S0002 35, S0003 3,
/// S0004 16, S0005 2.4, S0006 37, S0007 36, S0009 29, S0010 15, S0011 32;
/// the windows hold 10 to 25 events of each referenced type. The Kleene
/// element sits on the rarest symbol (its subsets are a power set) and
/// has the widest window so that it binds at all.
const QUERIES: [&str; 7] = [
    "PATTERN SEQ(S0009 a, S0006 b, S0002 c, S0000 d)
     WHERE (a.difference < b.difference AND b.difference < c.difference
            AND c.difference < d.difference)
     WITHIN 700 ms",
    "PATTERN SEQ(S0011 a, S0009 b, S0006 c, S0002 d, S0000 e)
     WHERE (a.difference < b.difference AND b.difference < c.difference
            AND c.difference < d.difference AND d.difference < e.difference)
     WITHIN 700 ms",
    "PATTERN AND(S0009 a, S0007 b, S0004 c)
     WHERE (a.difference < b.difference AND b.difference < c.difference)
     WITHIN 700 ms",
    "PATTERN AND(S0011 a, S0006 b, S0001 c, S0010 d)
     WHERE (a.difference < b.difference AND b.difference < c.difference
            AND c.difference < d.difference)
     WITHIN 400 ms",
    "PATTERN SEQ(S0009 a, NOT(S0003 n), S0006 b, S0000 c)
     WHERE (a.difference < b.difference AND b.difference < c.difference)
     WITHIN 700 ms",
    "PATTERN SEQ(S0011 a, KL(S0005 k), S0000 b)
     WHERE (a.difference < b.difference)
     WITHIN 1200 ms",
    "PATTERN OR(SEQ(S0009 a, S0006 b, S0000 c), SEQ(S0011 d, S0007 e, S0010 f),
                SEQ(S0002 g, S0001 h, S0004 i))
     WHERE (a.difference < b.difference AND b.difference < c.difference
            AND d.difference < e.difference AND e.difference < f.difference
            AND g.difference < h.difference AND h.difference < i.difference)
     WITHIN 700 ms",
];

pub fn nfa_backend() -> Backend {
    Backend::Nfa(OrderAlgorithm::DpLd)
}

pub fn tree_backend() -> Backend {
    Backend::Tree(TreeAlgorithm::DpB)
}

/// A stock stream over the fixed market whose events are drawn from
/// `seed`.
pub(super) fn market_config(
    symbols: usize,
    duration_ms: u64,
    rate_scale: f64,
    seed: u64,
) -> StockConfig {
    let mut config = StockConfig::nasdaq_like(symbols, duration_ms, rate_scale, MARKET_SEED);
    config.seed = seed;
    config
}

/// Splits a generated stream into its events and the event-free
/// metadata the facade's `.stats()` reads.
pub(super) fn split(mut gen: GeneratedStream) -> (EventStream, GeneratedStream) {
    let stream = std::mem::take(&mut gen.stream);
    (stream, gen)
}

pub fn build(name: &'static str, backend: Backend, seed: u64) -> Result<Workload, CepError> {
    let mut catalog = Catalog::new();
    let gen = StockStreamGenerator::generate(
        &market_config(SYMBOLS, DURATION_MS, RATE_SCALE, seed),
        &mut catalog,
    )?;
    let (stream, stats) = split(gen);
    let oracle = every_nth(&stream, 0, 8, 8_000);
    Ok(Workload {
        name,
        catalog,
        stream,
        stats: Some(stats),
        queries: QUERIES.iter().copied().map(Query::new).collect(),
        backend,
        config: EngineConfig {
            max_kleene_events: 6,
            ..EngineConfig::default()
        },
        shape: Shape::Engines,
        oracle,
        setup_batch: 40,
        properties: vec![
            Property::at_least("bench.completing_calls", 15_000.0),
            Property::at_least("engine.pred_evals_per_relevant", 20.0),
            Property::at_least("engine.peak_partials", 1_000.0),
        ],
    })
}
