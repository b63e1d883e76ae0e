//! # cep
//!
//! A complex event processing (CEP) stack with join-query-optimization-based
//! plan generation — a from-scratch Rust implementation of Kolchinsky &
//! Schuster, *Join Query Optimization Techniques for Complex Event
//! Processing Applications* (VLDB 2018, arXiv:1801.09413).
//!
//! ## Crates
//!
//! * [`core`] (`cep-core`) — events, patterns, predicates, evaluation
//!   plans, cost models, statistics, the naive oracle engine, and the
//!   multi-query [`core::registry::QueryRegistry`] with shared-fragment
//!   execution.
//! * [`tree`] (`cep-tree`) — the join executor (ZStream-style tree):
//!   a tree plan runs as given, an order plan as its left-deep tree.
//! * [`delta`] (`cep-delta`) — the delta-indexed, non-materializing
//!   engine: windowed equality-join indexes instead of partial matches,
//!   with on-demand match enumeration.
//! * [`optimizer`] (`cep-optimizer`) — TRIVIAL/EFREQ (native CPG) and
//!   GREEDY/II/DP/KBZ/ZSTREAM (adapted JQPG) plan generation.
//! * [`sase`] (`cep-sase`) — parser for SASE-style pattern specifications.
//! * [`shard`] (`cep-shard`) — partitioned parallel runtime with a
//!   deterministic, dedup-aware merge; cross-partition queries run under
//!   replicate-join routing, and registered query *sets* run under the
//!   multi-query layout ([`shard::ShardedRuntime::run_registry`]).
//! * [`adaptive`] (`cep-adaptive`) — live plan swap: rate- and
//!   selectivity-drift-triggered replanning with swap-cost amortization
//!   and retained-window state migration.
//! * [`streamgen`] (`cep-streamgen`) — synthetic stock streams (plain,
//!   partition-replicated, drifting-rate, and drifting-selectivity) and
//!   the paper's five-category workloads.
//! * [`analyze`] (`cep-analyze`) — static query and plan analysis:
//!   satisfiability linting (`A001`), schema checks, redundant-predicate
//!   and dead-negation detection, Kleene state-blowup warnings, and the
//!   plan-invariant verifier (`A010`) the planner (so every adaptive
//!   swap candidate) and the sharded runtime run in debug builds. Ships the `cep-lint` tool.
//! * [`obs`] (`cep-obs`) — observability: structured trace records
//!   (plan-swap decisions, replay windows, shard routing and queue
//!   depths, match emissions, query registrations) behind a
//!   near-zero-cost [`obs::Tracer`], log₂-bucketed latency histograms
//!   with p50/p95/p99, and a [`obs::MetricsRegistry`] rendering
//!   Prometheus text exposition and JSON. Tracing only observes: traced
//!   runs are byte-identical to untraced ones.
//!
//! ## Quick start
//!
//! Engines are constructed through the fluent [`EngineBuilder`]
//! (see [`engine`]); multi-query execution through the
//! [`RegistryBuilder`] (see [`registry`]).
//!
//! ```
//! use cep::prelude::*;
//! use cep::core::engine::run_to_completion;
//!
//! // Catalog and stream (synthetic stock updates).
//! let config = StockConfig::nasdaq_like(8, 30_000, 0.5, 42);
//! let mut catalog = cep::core::schema::Catalog::new();
//! let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
//!
//! // A pattern in SASE syntax.
//! let pattern = parse_pattern(
//!     "PATTERN SEQ(S0000 a, S0001 b) WHERE a.difference < b.difference WITHIN 5 s",
//!     &catalog,
//! ).unwrap();
//!
//! // Plan an order with an adapted join algorithm and run it.
//! let mut engine = cep::engine(&pattern)
//!     .backend(Backend::Nfa(OrderAlgorithm::DpLd))
//!     .stats(&generated)
//!     .build()
//!     .unwrap();
//! let result = run_to_completion(engine.as_mut(), &generated.stream, true);
//! println!("{} matches", result.match_count);
//! ```

#![warn(missing_docs)]

pub use cep_adaptive as adaptive;
pub use cep_analyze as analyze;
pub use cep_core as core;
pub use cep_delta as delta;
pub use cep_obs as obs;
pub use cep_optimizer as optimizer;
pub use cep_sase as sase;
pub use cep_shard as shard;
pub use cep_streamgen as streamgen;
pub use cep_tree as tree;

pub mod builder;
pub mod conformance;
#[cfg(test)]
mod tests;

pub use builder::{engine, registry, Backend, BranchFactory, EngineBuilder, RegistryBuilder};

/// Commonly used items, re-exported for `use cep::prelude::*`. The plan
/// types ([`Plan`](cep_core::plan::Plan), `OrderPlan`, `TreePlan`) come
/// through `cep_core::prelude`; the algorithm choice is the one
/// [`Backend`], which
/// [`PlanReplanner::new`](cep_adaptive::PlanReplanner::new) takes as well.
pub mod prelude {
    pub use crate::builder::{Backend, EngineBuilder, RegistryBuilder};
    pub use cep_adaptive::{
        AdaptiveConfig, AdaptiveEngine, AdaptiveFactory, PlanReplanner, ReplanVerdict, Replanner,
        SwapCost,
    };
    pub use cep_analyze::{
        analyze_pattern, analyze_query_file, Code, Diagnostic, Report, Severity,
    };
    pub use cep_core::prelude::*;
    pub use cep_delta::DeltaEngine;
    pub use cep_obs::{RingSink, TraceSink};
    pub use cep_optimizer::planner::{LatencyAnchor, Planner, PlannerConfig};
    pub use cep_optimizer::{
        EventWindow, OrderAlgorithm, SelectivityMonitor, StatsMonitor, TreeAlgorithm,
    };
    pub use cep_sase::{parse_pattern, pretty_pattern};
    pub use cep_shard::{
        MultiQueryRunResult, RouteTarget, RoutingPolicy, ShardConfig, ShardedRuntime,
    };
    pub use cep_streamgen::{PatternSetKind, StockConfig, StockStreamGenerator};
    pub use cep_tree::TreeEngine;
}
