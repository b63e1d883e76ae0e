//! # cep-streamgen
//!
//! Synthetic substrate for the Section 7 experiments of Kolchinsky &
//! Schuster (VLDB 2018): a NASDAQ-like stock-update stream generator
//! ([`stock`]) and the five-category pattern workload generator
//! ([`workload`]).
//!
//! The real dataset (eoddata.com NASDAQ dump) is not redistributable. The
//! substitution preserves the evaluated behaviour: the optimizer consumes
//! only arrival rates and predicate selectivities, both of which the
//! generator reproduces (with closed-form ground truth) over the paper's
//! measured ranges.

#![warn(missing_docs)]

pub mod drift;
pub mod stock;
pub mod workload;

pub use drift::{
    generate_drifting, generate_selectivity_drifting, DriftPhase, DriftingStream,
    SelectivityDriftStream, SelectivityPhase,
};
pub use stock::{
    GeneratedStream, StockConfig, StockStreamGenerator, SymbolSpec, ATTR_ACCOUNT, ATTR_DIFFERENCE,
    ATTR_PRICE, ATTR_REPLICA,
};
pub use workload::{
    analytic_measured_stats, analytic_selectivities, generate_pattern, generate_set,
    GeneratedPattern, PatternSetKind, WorkloadConfig,
};
