//! Planner facade: one entry point turning (compiled pattern, statistics,
//! algorithm) into an evaluation plan, with the Section 6 adaptations
//! (strategy-aware cost model, hybrid latency objective, output-profiler
//! anchors) applied uniformly.

use crate::dp::{dp_bushy_tree, dp_left_deep_order};
use crate::kbz::kbz_order;
use crate::order::{efreq_order, greedy_order, ii_greedy_order, ii_random_order, trivial_order};
use crate::zstream::{zstream_native, zstream_ordered};
use crate::{Backend, OrderAlgorithm, TreeAlgorithm};
use cep_core::compile::CompiledPattern;
use cep_core::cost::CostModel;
use cep_core::error::CepError;
use cep_core::plan::{OrderPlan, Plan, TreePlan};
use cep_core::stats::{MeasuredStats, PatternStats, StatsOptions};

/// The [`CepError::Plan`] message for a plan requested of
/// [`Backend::Delta`] — by [`Planner::plan`], an adaptive replanner, or
/// the facade's adaptive builders.
pub const DELTA_HAS_NO_PLAN: &str = "the delta backend picks its join order per probe and has \
     no plan to replan; use Backend::Nfa or Backend::Tree for adaptive engines";

/// Where the latency anchor (the temporally last element, Section 6.1)
/// comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyAnchor {
    /// Sequences: the statically known last element; conjunctions: none.
    #[default]
    Auto,
    /// No latency term regardless of `alpha`.
    Disabled,
    /// Fixed element index (e.g., from the output profiler).
    Element(usize),
}

/// Planner configuration.
#[derive(Debug, Clone, Default)]
pub struct PlannerConfig {
    /// Throughput/latency trade-off `α` (Section 6.1); 0 = pure throughput.
    pub alpha: f64,
    /// Latency anchor source.
    pub anchor: LatencyAnchor,
    /// Statistics transform options (temporal selectivity, Kleene cap).
    pub stats_options: StatsOptions,
}

/// Facade over all plan-generation algorithms.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    /// Configuration used for every planning call.
    pub config: PlannerConfig,
}

impl Planner {
    /// Planner with default configuration (pure throughput objective).
    pub fn new(config: PlannerConfig) -> Planner {
        Planner { config }
    }

    /// The cost model used for a compiled pattern under this configuration.
    pub fn cost_model(&self, cp: &CompiledPattern) -> CostModel {
        let anchor = match self.config.anchor {
            LatencyAnchor::Auto => cp.last_element(),
            LatencyAnchor::Disabled => None,
            LatencyAnchor::Element(e) => Some(e),
        };
        CostModel::for_pattern(cp)
            .with_alpha(self.config.alpha)
            .with_latency_last(anchor)
    }

    /// Builds [`PatternStats`] for a compiled pattern from measured type
    /// rates and per-predicate selectivities, applying the Section 5
    /// transforms configured in [`PlannerConfig::stats_options`].
    pub fn stats_for(
        &self,
        cp: &CompiledPattern,
        measured: &MeasuredStats,
        pred_sel: &[f64],
    ) -> Result<PatternStats, CepError> {
        PatternStats::build(cp, measured, pred_sel, &self.config.stats_options)
    }

    /// Generates an order-based plan.
    pub fn plan_order(
        &self,
        cp: &CompiledPattern,
        stats: &PatternStats,
        algorithm: OrderAlgorithm,
    ) -> Result<OrderPlan, CepError> {
        if stats.n() != cp.n() {
            return Err(CepError::Stats(format!(
                "statistics cover {} elements, pattern has {}",
                stats.n(),
                cp.n()
            )));
        }
        let cm = self.cost_model(cp);
        let order = match algorithm {
            OrderAlgorithm::Trivial => trivial_order(cp.n()),
            OrderAlgorithm::EFreq => efreq_order(stats),
            OrderAlgorithm::Greedy => greedy_order(stats, &cm),
            OrderAlgorithm::IIRandom { restarts, seed } => {
                ii_random_order(stats, &cm, restarts, seed)
            }
            OrderAlgorithm::IIGreedy => ii_greedy_order(stats, &cm),
            OrderAlgorithm::DpLd => dp_left_deep_order(stats, &cm)?,
            // KBZ falls back to GREEDY outside its preconditions
            // (Section 4.3: it is a heuristic from the CPG standpoint).
            OrderAlgorithm::Kbz => {
                kbz_order(stats, &cm).unwrap_or_else(|| greedy_order(stats, &cm))
            }
        };
        let plan = OrderPlan::new(order)?;
        // Debug builds lint every plan they emit: a planner bug that
        // drops predicates or breaks negation anchoring fails fast here
        // instead of silently changing match semantics downstream.
        if cfg!(debug_assertions) {
            cep_analyze::verify_order_plan(cp, &plan)?;
        }
        Ok(plan)
    }

    /// Generates a tree-based plan.
    pub fn plan_tree(
        &self,
        cp: &CompiledPattern,
        stats: &PatternStats,
        algorithm: TreeAlgorithm,
    ) -> Result<TreePlan, CepError> {
        if stats.n() != cp.n() {
            return Err(CepError::Stats(format!(
                "statistics cover {} elements, pattern has {}",
                stats.n(),
                cp.n()
            )));
        }
        let cm = self.cost_model(cp);
        let root = match algorithm {
            TreeAlgorithm::ZStream => zstream_native(stats, &cm)?,
            TreeAlgorithm::ZStreamOrd => zstream_ordered(stats, &cm)?,
            TreeAlgorithm::DpB => dp_bushy_tree(stats, &cm)?,
        };
        let plan = TreePlan::new(root)?;
        if cfg!(debug_assertions) {
            cep_analyze::verify_tree_plan(cp, &plan)?;
        }
        Ok(plan)
    }

    /// Generates the plan `backend` evaluates: [`plan_order`](Self::plan_order)
    /// for [`Backend::Nfa`], [`plan_tree`](Self::plan_tree) for
    /// [`Backend::Tree`].
    /// [`Backend::Delta`] has no plan and fails with [`CepError::Plan`]
    /// ([`DELTA_HAS_NO_PLAN`]).
    pub fn plan(
        &self,
        cp: &CompiledPattern,
        stats: &PatternStats,
        backend: Backend,
    ) -> Result<Plan, CepError> {
        match backend {
            Backend::Nfa(algorithm) => self.plan_order(cp, stats, algorithm).map(Plan::Order),
            Backend::Tree(algorithm) => self.plan_tree(cp, stats, algorithm).map(Plan::Tree),
            Backend::Delta => Err(CepError::Plan(DELTA_HAS_NO_PLAN.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::event::TypeId;
    use cep_core::pattern::PatternBuilder;
    use cep_core::predicate::{CmpOp, Predicate};

    fn fixture() -> (CompiledPattern, PatternStats) {
        let mut b = PatternBuilder::new(10);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "c");
        let d = b.event(TypeId(2), "d");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, d.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, c, d]).unwrap()).unwrap();
        let mut m = MeasuredStats::default();
        m.set_rate(TypeId(0), 2.0);
        m.set_rate(TypeId(1), 1.0);
        m.set_rate(TypeId(2), 0.1);
        let planner = Planner::default();
        let stats = planner.stats_for(&cp, &m, &[0.1]).unwrap();
        (cp, stats)
    }

    #[test]
    fn all_order_algorithms_produce_valid_plans() {
        let (cp, stats) = fixture();
        let planner = Planner::default();
        for algo in [
            OrderAlgorithm::Trivial,
            OrderAlgorithm::EFreq,
            OrderAlgorithm::Greedy,
            OrderAlgorithm::IIRandom {
                restarts: 4,
                seed: 1,
            },
            OrderAlgorithm::IIGreedy,
            OrderAlgorithm::DpLd,
            OrderAlgorithm::Kbz,
        ] {
            let plan = planner.plan_order(&cp, &stats, algo).unwrap();
            plan.validate(&cp).unwrap();
        }
    }

    #[test]
    fn all_tree_algorithms_produce_valid_plans() {
        let (cp, stats) = fixture();
        let planner = Planner::default();
        for algo in [
            TreeAlgorithm::ZStream,
            TreeAlgorithm::ZStreamOrd,
            TreeAlgorithm::DpB,
        ] {
            let plan = planner.plan_tree(&cp, &stats, algo).unwrap();
            plan.validate(&cp).unwrap();
        }
    }

    #[test]
    fn dp_ld_dominates_all_order_algorithms() {
        let (cp, stats) = fixture();
        let planner = Planner::default();
        let cm = planner.cost_model(&cp);
        let dp = planner
            .plan_order(&cp, &stats, OrderAlgorithm::DpLd)
            .unwrap();
        let dp_cost = cm.order_plan_cost(&stats, &dp);
        for algo in [
            OrderAlgorithm::Trivial,
            OrderAlgorithm::EFreq,
            OrderAlgorithm::Greedy,
            OrderAlgorithm::IIRandom {
                restarts: 4,
                seed: 1,
            },
            OrderAlgorithm::IIGreedy,
            OrderAlgorithm::Kbz,
        ] {
            let plan = planner.plan_order(&cp, &stats, algo).unwrap();
            assert!(
                dp_cost <= cm.order_plan_cost(&stats, &plan) + 1e-9,
                "{algo} beat DP-LD"
            );
        }
    }

    #[test]
    fn dp_b_dominates_all_tree_algorithms() {
        let (cp, stats) = fixture();
        let planner = Planner::default();
        let cm = planner.cost_model(&cp);
        let dp = planner.plan_tree(&cp, &stats, TreeAlgorithm::DpB).unwrap();
        let dp_cost = cm.tree_plan_cost(&stats, &dp);
        for algo in [TreeAlgorithm::ZStream, TreeAlgorithm::ZStreamOrd] {
            let plan = planner.plan_tree(&cp, &stats, algo).unwrap();
            assert!(
                dp_cost <= cm.tree_plan_cost(&stats, &plan) + 1e-9,
                "{algo} beat DP-B"
            );
        }
    }

    #[test]
    fn plan_dispatches_on_the_backend() {
        let (cp, stats) = fixture();
        let planner = Planner::default();
        let order = planner.plan_order(&cp, &stats, OrderAlgorithm::DpLd);
        let nfa = planner.plan(&cp, &stats, Backend::Nfa(OrderAlgorithm::DpLd));
        assert_eq!(nfa.unwrap(), Plan::Order(order.unwrap()));
        let tree = planner.plan_tree(&cp, &stats, TreeAlgorithm::DpB);
        let planned = planner.plan(&cp, &stats, Backend::Tree(TreeAlgorithm::DpB));
        assert_eq!(planned.unwrap(), Plan::Tree(tree.unwrap()));
        let err = planner.plan(&cp, &stats, Backend::Delta).unwrap_err();
        assert!(matches!(err, CepError::Plan(m) if m == DELTA_HAS_NO_PLAN));
    }

    #[test]
    fn anchor_auto_uses_last_sequence_element() {
        let (cp, _) = fixture();
        let planner = Planner::new(PlannerConfig {
            alpha: 0.5,
            ..Default::default()
        });
        let cm = planner.cost_model(&cp);
        assert_eq!(cm.latency_last, Some(2));
        assert_eq!(cm.alpha, 0.5);
        let disabled = Planner::new(PlannerConfig {
            alpha: 0.5,
            anchor: LatencyAnchor::Disabled,
            ..Default::default()
        });
        assert_eq!(disabled.cost_model(&cp).latency_last, None);
    }

    #[test]
    fn alpha_zero_reduces_to_throughput_objective() {
        let (cp, stats) = fixture();
        let p0 = Planner::default();
        let p1 = Planner::new(PlannerConfig {
            alpha: 0.0,
            anchor: LatencyAnchor::Disabled,
            ..Default::default()
        });
        let a = p0.plan_order(&cp, &stats, OrderAlgorithm::DpLd).unwrap();
        let b = p1.plan_order(&cp, &stats, OrderAlgorithm::DpLd).unwrap();
        let cm = CostModel::throughput();
        assert!((cm.order_plan_cost(&stats, &a) - cm.order_plan_cost(&stats, &b)).abs() < 1e-9);
    }

    #[test]
    fn mismatched_stats_rejected() {
        let (cp, _) = fixture();
        let planner = Planner::default();
        let bad = PatternStats::synthetic(1.0, vec![1.0], vec![vec![1.0]]);
        assert!(planner
            .plan_order(&cp, &bad, OrderAlgorithm::Trivial)
            .is_err());
        assert!(planner
            .plan_tree(&cp, &bad, TreeAlgorithm::ZStream)
            .is_err());
    }
}
