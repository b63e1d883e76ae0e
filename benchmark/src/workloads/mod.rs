//! The six workloads: what each feeds the system and why.
//!
//! A workload is data — a seeded stream, query texts, a backend and the
//! runtime shape they run under — plus the input properties it was
//! chosen for. Sizes are constants in each definition, calibrated once
//! on the 2-core reference container so one throughput rep lasts about a
//! second, then frozen: `--seconds` selects how many reps run, never how
//! much work a rep does, so two commits always do identical work.
//!
//! `--seed` draws the *events* (arrivals, prices, keys). The market
//! (symbol rates and drifts) and the query set are part of the workload
//! definition and fixed: plan cost depends on them so strongly that a
//! run on another seed would otherwise be another workload.

mod adaptive;
mod fanout;
mod sharded;
mod sparse;
mod stock;

use cep::core::compile::CompiledPattern;
use cep::core::engine::EngineConfig;
use cep::core::error::CepError;
use cep::core::event::{Event, EventRef, TypeId};
use cep::core::pattern::Pattern;
use cep::core::schema::Catalog;
use cep::core::stream::EventStream;
use cep::sase::parse_pattern;
use cep::streamgen::GeneratedStream;
use cep::Backend;
use std::collections::HashSet;

/// The runtime wrapper a workload's queries run under.
pub enum Shape {
    /// One bare engine per query, from `cep::engine()`.
    Engines,
    /// One `AdaptiveEngine<PlanReplanner>` per query, selectivity
    /// monitoring on, from `cep::engine().full_adaptive()`.
    Adaptive(cep::adaptive::AdaptiveConfig),
    /// Every query registered in one `cep::registry()`.
    Registry,
    /// One query under `ShardedRuntime::run` with partition routing.
    Sharded,
}

/// A unary filter the generator planted: events of `type_id` pass the
/// query's gate only when integer attribute `attr` is below `below`.
#[derive(Debug, Clone, Copy)]
pub struct UnaryFilter {
    pub type_id: TypeId,
    pub attr: usize,
    pub below: i64,
}

pub struct Query {
    /// SASE text, parsed anew by every set-up.
    pub text: String,
    pub filter: Option<UnaryFilter>,
}

impl Query {
    pub fn new(text: impl Into<String>) -> Query {
        Query {
            text: text.into(),
            filter: None,
        }
    }
}

/// An exact-count input property: metric `name` must lie in
/// `[min, max]`, or the run aborts. Never a time or a time share, so a
/// legitimate speed-up cannot trip one.
pub struct Property {
    pub name: &'static str,
    pub min: f64,
    pub max: f64,
}

impl Property {
    pub fn at_least(name: &'static str, min: f64) -> Property {
        Property {
            name,
            min,
            max: f64::INFINITY,
        }
    }

    pub fn at_most(name: &'static str, max: f64) -> Property {
        Property {
            name,
            min: f64::NEG_INFINITY,
            max,
        }
    }

    pub fn exactly(name: &'static str, value: f64) -> Property {
        Property {
            name,
            min: value,
            max: value,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub catalog: Catalog,
    pub stream: EventStream,
    /// Analytic metadata for the planned backends' `.stats()`; its own
    /// `stream` field is empty (the events live in `self.stream`).
    pub stats: Option<GeneratedStream>,
    pub queries: Vec<Query>,
    pub backend: Backend,
    pub config: EngineConfig,
    pub shape: Shape,
    /// The events the naive oracle is run on: a thinned part of `stream`.
    /// `cep_core::naive` enumerates the cross product of its per-type
    /// window buffers on every arrival, so at a workload's real window
    /// occupancy even a few hundred events take minutes. Thinning keeps
    /// the timestamps — and with them window expiry, negation scopes and
    /// emission times — while a window holds far fewer events; each
    /// workload thins so that the slice spans many windows, still holds
    /// matches, and costs the oracle at most about a second.
    pub oracle: EventStream,
    /// Set-ups per timed batch, fixed so the batches of a run total at
    /// least 0.2 s.
    pub setup_batch: usize,
    pub properties: Vec<Property>,
}

/// Name and one-line rationale of every workload, in run order; the
/// same lines `BENCHMARK.json` carries.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "stock-join-nfa",
        "paper 7.2: seven stock patterns on the NFA backend, join-bound (partial-match creation and predicate checks dominate)",
    ),
    (
        "stock-join-tree",
        "the same stream, patterns and seed on the tree backend: a core gain moves both, an NFA-only gain leaves this flat",
    ),
    (
        "sparse-window-delta",
        "64 types, 3 per query, 20k-event window, rare completion: over 90% of events leave at the gate, the rest is index write work",
    ),
    (
        "multi-query-fanout",
        "48 loose queries (12 distinct x 4) in one registry: match construction, dedup and per-query fan-out dominate; set-up is planning",
    ),
    (
        "sharded-keyed",
        "partition-local SEQ over 64 replicas under ShardedRuntime: the only workload where route, channel, workers and merge run",
    ),
    (
        "adaptive-drift",
        "rate flip makes the initial DP-LD order the worst: the only workload where monitor, retained window, replan and replay run",
    ),
];

/// `events` events of `stream`, every `stride`-th from `start` on.
fn every_nth(stream: &[EventRef], start: usize, stride: usize, events: usize) -> EventStream {
    stream
        .iter()
        .skip(start)
        .step_by(stride)
        .take(events)
        .cloned()
        .collect()
}

/// Generates the named workload's inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Result<Workload, CepError> {
    match name {
        "stock-join-nfa" => stock::build("stock-join-nfa", stock::nfa_backend(), seed),
        "stock-join-tree" => stock::build("stock-join-tree", stock::tree_backend(), seed),
        "sparse-window-delta" => sparse::build(seed),
        "multi-query-fanout" => fanout::build(seed),
        "sharded-keyed" => sharded::build(seed),
        "adaptive-drift" => adaptive::build(seed),
        other => Err(CepError::Pattern(format!("unknown workload {other:?}"))),
    }
}

impl Workload {
    pub fn parse(&self, query: usize) -> Result<Pattern, CepError> {
        parse_pattern(&self.queries[query].text, &self.catalog)
    }

    /// Per event: does query `query` drop it at its type/filter gate?
    /// An event is *gate* class when no branch of the query references
    /// its type, or when it fails the filter the generator planted.
    pub fn gate_mask(&self, query: usize) -> Result<Vec<bool>, CepError> {
        let pattern = self.parse(query)?;
        let mut used: HashSet<TypeId> = HashSet::new();
        for cp in CompiledPattern::compile(&pattern)? {
            used.extend(cp.elements.iter().map(|e| e.event_type));
            used.extend(cp.negated.iter().map(|n| n.event_type));
        }
        let filter = self.queries[query].filter;
        let gated = |e: &Event| {
            !used.contains(&e.type_id)
                || filter.is_some_and(|f| {
                    e.type_id == f.type_id
                        && e.attrs[f.attr]
                            .as_f64()
                            .is_some_and(|v| v >= f.below as f64)
                })
        };
        Ok(self.stream.iter().map(|e| gated(e)).collect())
    }

    /// The gate masks the drivers of a rep see: one per query, or for a
    /// registry (one driver for all queries) the events no query wants.
    pub fn driver_gate_masks(&self) -> Result<Vec<Vec<bool>>, CepError> {
        let per_query: Vec<Vec<bool>> = (0..self.queries.len())
            .map(|q| self.gate_mask(q))
            .collect::<Result<_, _>>()?;
        match self.shape {
            Shape::Registry => {
                let all = (0..self.stream.len())
                    .map(|i| per_query.iter().all(|m| m[i]))
                    .collect();
                Ok(vec![all])
            }
            _ => Ok(per_query),
        }
    }
}
