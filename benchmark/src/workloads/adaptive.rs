//! `adaptive-drift`: three symbols whose frequent and rare members swap
//! roles, then swap back. The DP-LD order planned for phase 1 starts at
//! the symbol that is rarest then and most frequent in phase 2 — the
//! worst order for phase 2 — so a run that never replans pays for it,
//! and one that does must detect, replan, replay and swap, twice.

use super::{every_nth, Property, Query, Shape, Workload};
use cep::adaptive::AdaptiveConfig;
use cep::core::engine::EngineConfig;
use cep::core::error::CepError;
use cep::core::schema::Catalog;
use cep::optimizer::OrderAlgorithm;
use cep::streamgen::{generate_drifting, DriftPhase, GeneratedStream, StockConfig, SymbolSpec};
use cep::Backend;

const PHASE_MS: u64 = 150_000;
const WINDOW_MS: u64 = 1_000;
const ORACLE_EVENTS: usize = 5_000;
const ORACLE_STRIDE: usize = 5;

pub fn build(seed: u64) -> Result<Workload, CepError> {
    let spec = |name: &str, rate: f64, drift: f64| SymbolSpec {
        name: name.into(),
        rate_per_sec: rate,
        start_price: 100.0,
        drift,
        volatility: 1.0,
    };
    let base = StockConfig {
        symbols: vec![
            spec("AAA", 300.0, 1.5),
            spec("BBB", 60.0, 0.0),
            spec("CCC", 15.0, -1.5),
        ],
        duration_ms: 0, // each phase carries its own
        seed,
    };
    let phases = [
        DriftPhase::new(PHASE_MS, vec![1.0, 1.0, 1.0]),
        DriftPhase::new(PHASE_MS, vec![0.05, 1.0, 20.0]),
        DriftPhase::new(PHASE_MS, vec![1.0, 1.0, 1.0]),
    ];
    let mut catalog = Catalog::new();
    let gen = generate_drifting(&base, &phases, &mut catalog)?;
    let text = format!(
        "PATTERN SEQ(AAA a, BBB b, CCC c)\n\
         WHERE (a.difference < b.difference AND b.difference < c.difference)\n\
         WITHIN {WINDOW_MS} ms"
    );
    // The oracle slice straddles the first rate flip, so the naive
    // reference also covers output produced across a plan swap.
    let flip = gen.stream.partition_point(|e| e.ts < PHASE_MS);
    let oracle = every_nth(
        &gen.stream,
        flip.saturating_sub(ORACLE_EVENTS * ORACLE_STRIDE / 2),
        ORACLE_STRIDE,
        ORACLE_EVENTS,
    );
    Ok(Workload {
        name: "adaptive-drift",
        catalog,
        stream: gen.stream,
        // Phase-1 rates: what a bootstrap measurement would have seen.
        stats: Some(GeneratedStream {
            stream: Vec::new(),
            type_ids: gen.type_ids,
            symbols: gen.symbols,
            replicas: 1,
        }),
        queries: vec![Query::new(text)],
        backend: Backend::Nfa(OrderAlgorithm::DpLd),
        config: EngineConfig::default(),
        shape: Shape::Adaptive(AdaptiveConfig {
            horizon_ms: WINDOW_MS,
            drift_threshold: 0.5,
            check_every: 256,
            cooldown_events: 1_024,
            ..AdaptiveConfig::default()
        }),
        oracle,
        setup_batch: 400,
        properties: vec![
            Property::at_least("bench.completing_calls", 5_000.0),
            Property::at_least("adaptive.plan_swaps", 1.0),
        ],
    })
}
