//! `sharded-keyed`: 64 interleaved replicas of a four-symbol market and
//! a sequence that equates `replica` across its positions, so every
//! match lies inside one partition and partition routing is exact. The
//! only workload that crosses route → channel → worker → merge.

use super::stock::{market_config, split};
use super::{Property, Query, Shape, Workload};
use cep::core::engine::EngineConfig;
use cep::core::error::CepError;
use cep::core::schema::Catalog;
use cep::optimizer::OrderAlgorithm;
use cep::streamgen::StockStreamGenerator;
use cep::Backend;

const SYMBOLS: usize = 4;
const REPLICAS: u32 = 64;
const DURATION_MS: u64 = 160_000;
const RATE_SCALE: f64 = 0.25;
const WINDOW_MS: u64 = 600;
const ORACLE_REPLICA_STRIDE: u32 = 16;
const ORACLE_STRIDE: usize = 2;

pub fn build(seed: u64) -> Result<Workload, CepError> {
    let mut catalog = Catalog::new();
    let gen = StockStreamGenerator::generate_replicated(
        &market_config(SYMBOLS, DURATION_MS, RATE_SCALE, seed),
        REPLICAS,
        &mut catalog,
    )?;
    let text = format!(
        "PATTERN SEQ(S0000 a, S0001 b, S0002 c)\n\
         WHERE (a.replica == b.replica AND b.replica == c.replica\n\
                AND a.difference < b.difference AND b.difference < c.difference)\n\
         WITHIN {WINDOW_MS} ms"
    );
    let (stream, stats) = split(gen);
    // The oracle does not know that matches are partition-local: it
    // would pair every replica's events with every other's. It gets every
    // second event of two replicas, so both the `replica` equalities and
    // the `difference` chain still decide matches.
    let oracle = stream
        .iter()
        .filter(|e| e.partition % ORACLE_REPLICA_STRIDE == 0)
        .step_by(ORACLE_STRIDE)
        .cloned()
        .collect();
    Ok(Workload {
        name: "sharded-keyed",
        catalog,
        stream,
        stats: Some(stats),
        queries: vec![Query::new(text)],
        backend: Backend::Nfa(OrderAlgorithm::Greedy),
        config: EngineConfig::default(),
        shape: Shape::Sharded,
        oracle,
        setup_batch: 400,
        properties: vec![Property::at_least("bench.completing_calls", 20_000.0)],
    })
}
