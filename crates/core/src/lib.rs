//! # cep-core
//!
//! Core data model for the CEP stack reproducing Kolchinsky & Schuster,
//! *Join Query Optimization Techniques for Complex Event Processing
//! Applications* (VLDB 2018).
//!
//! This crate defines everything that is shared between the evaluation
//! engines (`cep-tree`, `cep-delta`) and the plan-generation
//! algorithms (`cep-optimizer`):
//!
//! * the event and stream model ([`event`], [`schema`], [`stream`]),
//! * the pattern language of Section 2.1 ([`pattern`], [`predicate`],
//!   [`selection`]),
//! * the Section 5 transformations to pure conjunctive form ([`compile`]),
//! * the compiled predicate pipeline — fused evaluators and the
//!   signature-keyed plan cache ([`compiled`]),
//! * order-based and tree-based evaluation plans ([`plan`]),
//! * the cost models of Sections 3, 4 and 6 ([`cost`]),
//! * statistics acquisition ([`stats`]), the query graph ([`query_graph`])
//!   and its equality part, built once per compiled branch ([`join_graph`]),
//! * replicate-join partition analysis for sharded execution ([`partition`]),
//! * runtime support shared by engines: matches ([`mod@matches`]), negation
//!   intervals ([`negation`]), metrics ([`metrics`]), the [`engine`] trait,
//!   and the [`shell`] every backend runs its join inside,
//! * and a [`naive`] exhaustive oracle used as the semantic ground truth in
//!   tests.

#![warn(missing_docs)]

pub mod buffer;
pub mod compile;
pub mod compiled;
pub mod cost;
mod dedup;
pub mod engine;
pub mod error;
pub mod event;
pub mod instance;
pub mod join_graph;
pub mod keyed;
pub mod matches;
pub mod metrics;
pub mod naive;
pub mod negation;
pub mod partition;
pub mod pattern;
pub mod plan;
pub mod predicate;
pub mod query_graph;
pub mod registry;
pub mod schema;
pub mod selection;
pub mod shell;
pub mod span;
pub mod stats;
pub mod stream;
pub mod union_find;
pub mod value;

/// Commonly used items, re-exported for `use cep_core::prelude::*`.
pub mod prelude {
    pub use crate::compile::{CompiledPattern, Element, NaryOp, NegatedElement};
    pub use crate::compiled::{
        shared_plan_cache, CompiledPredicate, PlanCache, PredicateProgram, SharedPlanCache,
    };
    pub use crate::cost::CostModel;
    pub use crate::engine::{
        run_to_completion, run_traced, Engine, EngineConfig, EngineFactory, RunResult,
    };
    pub use crate::error::CepError;
    pub use crate::event::{Event, Timestamp, TypeId};
    pub use crate::matches::{Binding, Match};
    pub use crate::metrics::EngineMetrics;
    pub use crate::partition::{PartitionSpec, QueryPartitioner, TypeDisposition};
    pub use crate::pattern::{Pattern, PatternBuilder, PatternExpr};
    pub use crate::plan::{OrderPlan, Plan, TreeNode, TreePlan};
    pub use crate::predicate::{CmpOp, Operand, Predicate};
    pub use crate::registry::{
        FragmentBuilder, QueryId, QueryRegistry, RegistrySpec, SetPlanReport,
    };
    pub use crate::schema::{Catalog, EventSchema, ValueKind};
    pub use crate::selection::SelectionStrategy;
    pub use crate::span::Span;
    pub use crate::stats::{MeasuredStats, PatternStats};
    pub use crate::stream::{EventStream, StreamBuilder};
    pub use crate::value::Value;
    pub use cep_obs::{LatencyHistogram, MetricsRegistry, TraceRecord, Tracer};
}
