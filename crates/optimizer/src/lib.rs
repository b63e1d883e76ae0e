//! # cep-optimizer
//!
//! CEP Plan Generation: the full algorithm suite evaluated in Section 7.1
//! of *Join Query Optimization Techniques for CEP Applications*
//! (Kolchinsky & Schuster, VLDB 2018):
//!
//! | Name (paper)  | Kind  | Origin | Function |
//! |---------------|-------|--------|----------|
//! | TRIVIAL       | order | native CPG (SASE, Cayuga) | [`order::trivial_order`] |
//! | EFREQ         | order | native CPG (PB-CED, lazy NFA) | [`order::efreq_order`] |
//! | GREEDY        | order | JQPG, Swami \[47\] | [`order::greedy_order`] |
//! | II-RANDOM     | order | JQPG, Swami \[47\] | [`order::ii_random_order`] |
//! | II-GREEDY     | order | JQPG, Swami \[47\] | [`order::ii_greedy_order`] |
//! | DP-LD         | order | JQPG, Selinger \[45\] | [`dp::dp_left_deep_order`] |
//! | KBZ (ext.)    | order | JQPG, IK/KBZ [24, 31] (Section 4.3) | [`kbz::kbz_order`] |
//! | ZSTREAM       | tree  | native CPG, Mei & Madden \[35\] | [`zstream::zstream_native`] |
//! | ZSTREAM-ORD   | tree  | hybrid (Section 7.1) | [`zstream::zstream_ordered`] |
//! | DP-B          | tree  | JQPG, Selinger \[45\] | [`dp::dp_bushy_tree`] |
//!
//! All algorithms optimize the same [`CostModel`](cep_core::cost::CostModel)
//! objective — strategy-aware throughput cost plus `α ×` latency cost — so
//! results are directly comparable. The [`planner`] module provides the
//! facade, [`profiler`] the Section 6.1 output profiler, and [`adaptive`]
//! the Section 6.3 statistics monitor.

#![warn(missing_docs)]

pub mod adaptive;
pub mod dp;
pub mod kbz;
pub mod masks;
pub mod order;
pub mod planner;
pub mod profiler;
pub mod zstream;

use std::fmt;

/// Order-based plan generation algorithms (Section 7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderAlgorithm {
    /// Specification order (native CPG baseline).
    Trivial,
    /// Ascending event frequency (native CPG baseline).
    EFreq,
    /// Greedy cost-based construction \[47\].
    Greedy,
    /// Iterative improvement from random starts \[47\].
    IIRandom {
        /// Number of random restarts.
        restarts: usize,
        /// RNG seed (plans are deterministic per seed).
        seed: u64,
    },
    /// Iterative improvement seeded by GREEDY \[47\].
    IIGreedy,
    /// Exhaustive left-deep dynamic programming \[45\].
    DpLd,
    /// IK/KBZ rank-based ordering for acyclic graphs (Section 4.3
    /// extension); falls back to GREEDY outside its preconditions.
    Kbz,
}

impl OrderAlgorithm {
    /// The paper's set, in presentation order (II variants with defaults).
    pub fn paper_set() -> Vec<OrderAlgorithm> {
        vec![
            OrderAlgorithm::Trivial,
            OrderAlgorithm::EFreq,
            OrderAlgorithm::Greedy,
            OrderAlgorithm::IIRandom {
                restarts: 10,
                seed: 0xCEB,
            },
            OrderAlgorithm::IIGreedy,
            OrderAlgorithm::DpLd,
        ]
    }

    /// Whether the algorithm is an adapted JQPG method (vs native CPG).
    pub fn is_jqpg(&self) -> bool {
        !matches!(self, OrderAlgorithm::Trivial | OrderAlgorithm::EFreq)
    }
}

impl fmt::Display for OrderAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OrderAlgorithm::Trivial => "TRIVIAL",
            OrderAlgorithm::EFreq => "EFREQ",
            OrderAlgorithm::Greedy => "GREEDY",
            OrderAlgorithm::IIRandom { .. } => "II-RANDOM",
            OrderAlgorithm::IIGreedy => "II-GREEDY",
            OrderAlgorithm::DpLd => "DP-LD",
            OrderAlgorithm::Kbz => "KBZ",
        };
        f.write_str(s)
    }
}

/// Tree-based plan generation algorithms (Section 7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeAlgorithm {
    /// ZStream's native interval DP over the specification leaf order \[35\].
    ZStream,
    /// GREEDY leaf ordering followed by the interval DP (Section 7.1).
    ZStreamOrd,
    /// Exhaustive bushy dynamic programming \[45\].
    DpB,
}

impl TreeAlgorithm {
    /// The paper's set, in presentation order.
    pub fn paper_set() -> Vec<TreeAlgorithm> {
        vec![
            TreeAlgorithm::ZStream,
            TreeAlgorithm::ZStreamOrd,
            TreeAlgorithm::DpB,
        ]
    }

    /// Whether the algorithm is an adapted JQPG method (vs native CPG).
    pub fn is_jqpg(&self) -> bool {
        !matches!(self, TreeAlgorithm::ZStream)
    }
}

impl fmt::Display for TreeAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TreeAlgorithm::ZStream => "ZSTREAM",
            TreeAlgorithm::ZStreamOrd => "ZSTREAM-ORD",
            TreeAlgorithm::DpB => "DP-B",
        };
        f.write_str(s)
    }
}

/// The evaluation engine family, and for the planned ones the algorithm
/// that plans it: the one "which algorithm" choice every construction
/// path (facade builders, adaptive replanner, experiment runner) shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Order-based (lazy chain NFA) evaluation, planned with the given
    /// order algorithm from stream statistics.
    Nfa(OrderAlgorithm),
    /// Tree-based (ZStream-style) evaluation, planned with the given tree
    /// algorithm from stream statistics.
    Tree(TreeAlgorithm),
    /// Delta-indexed, non-materializing evaluation. Needs no plan and no
    /// statistics — join order is chosen per probe from live index
    /// sizes — and is therefore the facade builders' default.
    Delta,
}

impl fmt::Display for Backend {
    /// The algorithm name (`DP-LD`, `ZSTREAM`, ...), or `DELTA`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Nfa(a) => a.fmt(f),
            Backend::Tree(a) => a.fmt(f),
            Backend::Delta => f.write_str("DELTA"),
        }
    }
}

pub use adaptive::{EventWindow, SelectivityMonitor, StatsMonitor};
pub use planner::{LatencyAnchor, Planner, PlannerConfig, DELTA_HAS_NO_PLAN};
pub use profiler::OutputProfiler;
