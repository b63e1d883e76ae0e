//! Plan + execute machinery shared by all figures.

use crate::env::ExperimentEnv;
use cep::BranchFactory;
use cep_core::compile::CompiledPattern;
use cep_core::engine::{run_to_completion, EngineConfig, EngineFactory};
use cep_core::error::CepError;
use cep_core::pattern::Pattern;
use cep_core::plan::Plan;
use cep_optimizer::{Backend, Planner, PlannerConfig};
use cep_streamgen::{analytic_measured_stats, analytic_selectivities};
use std::time::Instant;

/// A fully planned pattern, ready to execute.
pub struct PlannedPattern {
    /// `(compiled branch, its plan)`, one per DNF conjunct.
    pub branches: Vec<(CompiledPattern, Plan)>,
    /// Wall time spent generating the plans (the paper's Figure 17(b)).
    pub plan_time_s: f64,
    /// Summed plan cost across branches, under the planner's cost model.
    pub plan_cost: f64,
    /// Pattern window (for multi-engine dedup).
    pub window: u64,
}

/// Plans every DNF branch of `pattern` with one planned backend's
/// algorithm.
pub fn plan_pattern(
    pattern: &Pattern,
    env: &ExperimentEnv,
    backend: Backend,
    alpha: f64,
) -> Result<PlannedPattern, CepError> {
    let branches = CompiledPattern::compile(pattern)?;
    let measured = analytic_measured_stats(&env.gen);
    let planner = Planner::new(PlannerConfig {
        alpha,
        ..Default::default()
    });
    let mut planned = Vec::with_capacity(branches.len());
    let mut plan_cost = 0.0;
    let start = Instant::now();
    for cp in branches {
        let sels = analytic_selectivities(&cp, &env.gen);
        let stats = planner.stats_for(&cp, &measured, &sels)?;
        let cm = planner.cost_model(&cp);
        let plan = planner.plan(&cp, &stats, backend)?;
        plan_cost += cm.plan_cost(&stats, &plan);
        planned.push((cp, plan));
    }
    let plan_time_s = start.elapsed().as_secs_f64();
    Ok(PlannedPattern {
        branches: planned,
        plan_time_s,
        plan_cost,
        window: pattern.window,
    })
}

/// Execution measurements for one (pattern, algorithm) pair.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Events per second of engine wall time.
    pub throughput_eps: f64,
    /// Peak estimated memory (bytes) of partial matches + buffers.
    pub peak_memory_bytes: usize,
    /// Mean detection latency (ms of processing after the completing
    /// event's arrival).
    pub avg_latency_ms: f64,
    /// Matches detected.
    pub matches: u64,
    /// Plan cost (from planning).
    pub plan_cost: f64,
    /// Plan generation time in seconds.
    pub plan_time_s: f64,
}

/// Builds the engine(s) for a planned pattern through the facade's
/// [`BranchFactory`] and drives the stream through them.
pub fn execute(
    planned: &PlannedPattern,
    env: &ExperimentEnv,
    cfg: &EngineConfig,
) -> Result<RunOutcome, CepError> {
    let branches = planned
        .branches
        .iter()
        .map(|(cp, plan)| (cp.clone(), Some(plan.clone())))
        .collect();
    let mut engine = BranchFactory::new(branches, planned.window, cfg.clone())?.build();
    let result = run_to_completion(engine.as_mut(), env.stream(), false);
    Ok(RunOutcome {
        throughput_eps: result.metrics.throughput_eps(),
        peak_memory_bytes: result.metrics.peak_memory_bytes,
        avg_latency_ms: result.metrics.avg_latency_ms(),
        matches: result.match_count,
        plan_cost: planned.plan_cost,
        plan_time_s: planned.plan_time_s,
    })
}

/// Convenience: plan then execute.
pub fn plan_and_run(
    pattern: &Pattern,
    env: &ExperimentEnv,
    backend: Backend,
    alpha: f64,
    cfg: &EngineConfig,
) -> Result<RunOutcome, CepError> {
    let planned = plan_pattern(pattern, env, backend, alpha)?;
    execute(&planned, env, cfg)
}

/// Geometric-mean helper for throughput aggregation (robust to the heavy
/// right tail of per-pattern throughputs).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Scale;
    use cep_optimizer::{OrderAlgorithm, TreeAlgorithm};
    use cep_streamgen::PatternSetKind;

    fn tiny_env() -> ExperimentEnv {
        let mut s = Scale::quick();
        s.duration_ms = 20_000;
        s.per_size = 1;
        s.sizes = 3..=4;
        ExperimentEnv::setup(s)
    }

    #[test]
    fn plan_and_run_all_algorithms_on_a_sequence() {
        let env = tiny_env();
        let set = env.pattern_set(PatternSetKind::Sequence);
        let cfg = EngineConfig::default();
        let mut match_counts = Vec::new();
        for backend in [
            Backend::Nfa(OrderAlgorithm::Trivial),
            Backend::Nfa(OrderAlgorithm::EFreq),
            Backend::Nfa(OrderAlgorithm::Greedy),
            Backend::Nfa(OrderAlgorithm::DpLd),
            Backend::Tree(TreeAlgorithm::ZStream),
            Backend::Tree(TreeAlgorithm::DpB),
        ] {
            let out = plan_and_run(&set[0].pattern, &env, backend, 0.0, &cfg).unwrap();
            assert!(out.throughput_eps > 0.0, "{backend}: no throughput");
            match_counts.push(out.matches);
        }
        // Every algorithm must detect the same matches.
        assert!(
            match_counts.windows(2).all(|w| w[0] == w[1]),
            "{match_counts:?}"
        );
    }

    #[test]
    fn disjunction_uses_multi_engine() {
        let env = tiny_env();
        let set = env.pattern_set(PatternSetKind::Disjunction);
        let planned = plan_pattern(
            &set[0].pattern,
            &env,
            Backend::Nfa(OrderAlgorithm::Greedy),
            0.0,
        )
        .unwrap();
        assert_eq!(planned.branches.len(), 3);
        let out = execute(&planned, &env, &EngineConfig::default()).unwrap();
        assert!(out.throughput_eps > 0.0);
    }

    #[test]
    fn aggregation_helpers() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
