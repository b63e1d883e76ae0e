//! The planner-backed [`Replanner`]: closes the `StatsMonitor` → planner
//! loop with any order- or tree-based plan-generation algorithm, optionally
//! anchoring the latency objective with the Section 6.1 output profiler.

use crate::engine::{ReplanCosts, ReplanVerdict, Replanner, SwapCost};
use cep_core::compile::CompiledPattern;
use cep_core::compiled::{shared_plan_cache, SharedPlanCache};
use cep_core::engine::{Engine, EngineConfig, MultiEngine};
use cep_core::error::CepError;
use cep_core::event::{EventRef, TypeId};
use cep_core::matches::Match;
use cep_core::plan::{Plan, TreePlan};
use cep_core::stats::{MeasuredStats, PatternStats};
use cep_optimizer::planner::LatencyAnchor;
use cep_optimizer::OutputProfiler;
use cep_optimizer::{Backend, EventWindow, Planner, SelectivityMonitor};
use cep_tree::TreeEngine;

/// Matches a replan is based on before the output profiler may override
/// the latency anchor (Section 6.1's "enough evidence" knob).
const PROFILER_MIN_SAMPLES: u64 = 64;

/// Capacity of the default per-replanner compiled-plan cache. Replans keep
/// the pattern structure fixed and only reorder evaluation, so each branch
/// occupies one slot and every post-swap rebuild is a hit; the headroom
/// covers multi-branch patterns.
const DEFAULT_PLAN_CACHE_CAP: usize = 64;

/// Default hysteresis of [`PlanReplanner`]: a candidate plan must predict
/// at least this relative cost improvement over the incumbent (under the
/// *same* fresh statistics) before a swap is worth its replay. Rate
/// estimates from a sliding horizon are noisy — for rare types a handful
/// of events move the estimate by tens of percent — and without a margin
/// the planner flaps between near-tied orders, paying a full window replay
/// for each flip.
pub const DEFAULT_MIN_IMPROVEMENT: f64 = 0.2;

#[derive(Clone)]
struct Branch {
    cp: CompiledPattern,
    /// Per-predicate selectivities the current plan was built with;
    /// refreshed from the selectivity monitor when monitoring is enabled.
    sels: Vec<f64>,
    plan: Plan,
    /// Cached statistics, rebuilt **in place** on every replan
    /// ([`PatternStats::update`]) so the hot loop never reallocates the
    /// rate vector or selectivity matrix.
    stats: PatternStats,
    /// Live selectivity re-estimation for this branch, when enabled.
    monitor: Option<SelectivityMonitor>,
    /// The monitor's estimates from the last drift check, stamped with the
    /// window's [`pushed`](EventWindow::pushed) count: a replan over the
    /// same window reuses them instead of sampling it again.
    checked: Option<(u64, Option<Vec<f64>>)>,
}

/// A [`Replanner`] that regenerates evaluation plans with a
/// [`Planner`] whenever the adaptive loop hands it fresh rate estimates.
///
/// One instance covers every DNF branch of a pattern (multi-branch builds
/// produce a [`MultiEngine`], exactly like the facade's static factories).
/// Per-predicate selectivities are supplied at construction; with
/// [`with_selectivity_monitoring`](Self::with_selectivity_monitoring) they
/// are additionally **re-estimated online** from sampled event pairs over
/// a sliding horizon, so replans see fresh *rates and selectivities* — a
/// stream whose correlations shift while its rates stay flat still
/// triggers a plan change.
///
/// For single-branch patterns an [`OutputProfiler`] observes every emitted
/// match; once it has seen enough samples, replans anchor
/// the latency term of the cost objective on the element that empirically
/// arrives last (only meaningful when the planner's `alpha > 0`).
#[derive(Clone)]
pub struct PlanReplanner {
    planner: Planner,
    backend: Backend,
    engine_config: EngineConfig,
    window: u64,
    branches: Vec<Branch>,
    profiler: OutputProfiler,
    min_improvement: f64,
    /// Signature-keyed compiled-program cache shared by every engine this
    /// replanner builds (including across hot swaps and factory clones):
    /// the pattern's predicates are lowered once, and every rebuild for an
    /// unchanged pattern reuses the compiled program.
    plan_cache: SharedPlanCache,
    /// Cost pair of the widest-improvement branch in the last replan
    /// attempt (see [`Replanner::last_costs`]); `None` until the first
    /// attempt or after one that errored before costing.
    last_costs: Option<ReplanCosts>,
}

impl PlanReplanner {
    /// Plans every branch against `initial` statistics with `backend`'s
    /// algorithm and returns a replanner holding those plans as current.
    /// `branches` pairs each compiled DNF branch with the selectivity of
    /// each of its predicates. [`Backend::Delta`] has no plan to replan and
    /// fails with [`CepError::Plan`]
    /// ([`DELTA_HAS_NO_PLAN`](cep_optimizer::DELTA_HAS_NO_PLAN)).
    pub fn new(
        branches: Vec<(CompiledPattern, Vec<f64>)>,
        initial: &MeasuredStats,
        planner: Planner,
        backend: Backend,
        engine_config: EngineConfig,
    ) -> Result<PlanReplanner, CepError> {
        if branches.is_empty() {
            return Err(CepError::Pattern("replanner needs >= 1 branch".into()));
        }
        let window = branches[0].0.window;
        let n0 = branches[0].0.n();
        let mut replanner = PlanReplanner {
            planner,
            backend,
            engine_config,
            window,
            branches: Vec::with_capacity(branches.len()),
            profiler: OutputProfiler::new(n0, PROFILER_MIN_SAMPLES),
            min_improvement: DEFAULT_MIN_IMPROVEMENT,
            plan_cache: shared_plan_cache(DEFAULT_PLAN_CACHE_CAP),
            last_costs: None,
        };
        for (cp, sels) in branches {
            let (plan, stats) = replanner.plan_branch(&cp, &sels, initial)?;
            replanner.branches.push(Branch {
                cp,
                sels,
                plan,
                stats,
                monitor: None,
                checked: None,
            });
        }
        Ok(replanner)
    }

    /// Enables online selectivity re-estimation: every branch gets a
    /// [`SelectivityMonitor`] seeded with its construction-time
    /// selectivities as baseline, reading the last `horizon_ms` of the
    /// adaptive engine's event window and sampling up to `max_pairs` event
    /// pairs per estimate.
    /// `threshold` is the relative deviation that counts as selectivity
    /// drift. Replans then use the monitor's fresh estimates (once warmed
    /// up) instead of the frozen construction-time values.
    pub fn with_selectivity_monitoring(
        mut self,
        horizon_ms: u64,
        threshold: f64,
        max_pairs: usize,
    ) -> PlanReplanner {
        for b in &mut self.branches {
            b.monitor = Some(SelectivityMonitor::new(
                b.cp.clone(),
                b.sels.clone(),
                horizon_ms,
                threshold,
                max_pairs,
            ));
        }
        self
    }

    /// Overrides the warm-up threshold of every selectivity monitor (the
    /// relevant-event count inside the horizon below which estimates are
    /// not acted on).
    /// No-op unless
    /// [`with_selectivity_monitoring`](Self::with_selectivity_monitoring)
    /// was called first.
    pub fn with_selectivity_min_events(mut self, min_events: usize) -> PlanReplanner {
        for b in &mut self.branches {
            b.monitor = b.monitor.take().map(|m| m.with_min_events(min_events));
        }
        self
    }

    /// Plans one branch under the current planner configuration, with the
    /// profiler's anchor substituted when it has enough evidence.
    fn plan_branch(
        &self,
        cp: &CompiledPattern,
        sels: &[f64],
        measured: &MeasuredStats,
    ) -> Result<(Plan, PatternStats), CepError> {
        let planner = self.anchored_planner();
        let stats = planner.stats_for(cp, measured, sels)?;
        let plan = planner.plan(cp, &stats, self.backend)?;
        Ok((plan, stats))
    }

    /// The planner to use right now: the configured one, with the latency
    /// anchor overridden by the output profiler for single-branch patterns
    /// once enough matches were observed.
    fn anchored_planner(&self) -> Planner {
        let mut planner = self.planner.clone();
        if self.branches.len() <= 1 {
            if let Some(anchor) = self.profiler.anchor() {
                planner.config.anchor = LatencyAnchor::Element(anchor);
            }
        }
        planner
    }

    /// Overrides the swap hysteresis (see [`DEFAULT_MIN_IMPROVEMENT`]);
    /// 0.0 swaps on any strict cost improvement.
    pub fn with_min_improvement(mut self, min_improvement: f64) -> PlanReplanner {
        assert!(min_improvement >= 0.0, "improvement margin must be >= 0");
        self.min_improvement = min_improvement;
        self
    }

    /// Replaces the compiled-plan cache, e.g. with a traced one
    /// ([`cep_core::compiled::PlanCache::with_tracer`]) or one shared with
    /// other replanners or static factories.
    pub fn with_plan_cache(mut self, cache: SharedPlanCache) -> PlanReplanner {
        self.plan_cache = cache;
        self
    }

    /// The compiled-plan cache engines built by this replanner draw from.
    pub fn plan_cache(&self) -> &SharedPlanCache {
        &self.plan_cache
    }

    /// Human-readable rendering of the current plan(s), for logs and
    /// examples.
    pub fn describe(&self) -> String {
        self.branches
            .iter()
            .map(|b| b.plan.to_string())
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// One replan attempt: plans every branch under `rates` and the fresh
    /// selectivity estimates over `window` (the current baselines when a
    /// branch has no monitor or its monitor is not warmed up yet), and adopts
    /// what beats the incumbents by the margin and amortizes `swap`.
    fn replan_from(
        &mut self,
        rates: &MeasuredStats,
        swap: &SwapCost,
        window: &EventWindow,
    ) -> ReplanVerdict {
        // Plan all branches first: a planning failure on any branch keeps
        // the engine on its current (complete) plan set. A branch only
        // adopts a candidate that (a) predicts a cost improvement beyond
        // the hysteresis margin under the same fresh statistics and
        // (b) whose improvement amortizes the replay bill in `swap`.
        self.last_costs = None;
        let planner = self.anchored_planner();
        struct Candidacy {
            /// A candidate beating the incumbent by the hysteresis margin.
            better: Option<Plan>,
            /// Whether that candidate's improvement amortizes the replay.
            amortizes: bool,
            /// The estimates the decision was costed with, if any.
            fresh_sels: Option<Vec<f64>>,
        }
        let mut candidacies = Vec::with_capacity(self.branches.len());
        for b in &mut self.branches {
            // Fresh selectivities: the monitor's live estimates once it has
            // seen enough events, the construction-time values otherwise.
            // Taken from this event's drift check when it sampled the same
            // window, sampled here otherwise, and reused for the baseline
            // below.
            let checked = b.checked.take();
            let fresh_sels = b.monitor.as_ref().and_then(|m| match checked {
                Some((stamp, fresh)) if stamp == window.pushed() => fresh,
                _ => m.estimates(window),
            });
            let sels = fresh_sels.as_deref().unwrap_or(&b.sels);
            // Incremental statistics rebuild: rates + selectivities are
            // re-derived in place, no reallocation.
            if b.stats
                .update(&b.cp, rates, sels, &planner.config.stats_options)
                .is_err()
            {
                return ReplanVerdict::Keep;
            }
            match planner.plan(&b.cp, &b.stats, self.backend) {
                Ok(candidate) => {
                    let cm = planner.cost_model(&b.cp);
                    let current_cost = cm.plan_cost(&b.stats, &b.plan);
                    let candidate_cost = cm.plan_cost(&b.stats, &candidate);
                    // Surface the widest-improvement branch's arithmetic
                    // (ties and non-improvements included, so even a Keep
                    // verdict shows the costs it was judged on).
                    if self
                        .last_costs
                        .is_none_or(|c| current_cost - candidate_cost > c.current - c.candidate)
                    {
                        self.last_costs = Some(ReplanCosts {
                            current: current_cost,
                            candidate: candidate_cost,
                        });
                    }
                    let improves = candidate_cost.is_finite()
                        && candidate_cost < current_cost * (1.0 - self.min_improvement);
                    let differs = improves && b.plan != candidate;
                    candidacies.push(Candidacy {
                        amortizes: differs && swap.amortizes(current_cost, candidate_cost),
                        better: differs.then_some(candidate),
                        fresh_sels,
                    });
                }
                Err(_) => return ReplanVerdict::Keep,
            }
        }
        // The replay bill is paid once for the whole engine, so the gate is
        // engine-level: swap as soon as *any* branch's improvement
        // amortizes it — and then adopt *every* branch's better plan, the
        // marginal cost of riding along is zero. Only when no branch can
        // justify the replay on its own is the whole attempt suppressed.
        let any_amortizes = candidacies.iter().any(|c| c.amortizes);
        let any_better = candidacies.iter().any(|c| c.better.is_some());
        if any_better && !any_amortizes {
            // Suppressed: keep every incumbent plan AND baseline, so the
            // pending drift re-fires and the swap is retried once it
            // amortizes (or the regime changes again).
            return ReplanVerdict::Suppressed;
        }
        for (b, c) in self.branches.iter_mut().zip(candidacies) {
            if let Some(plan) = c.better {
                b.plan = plan;
            }
            // The decision (adopt or keep) was costed under `fresh_sels`
            // when the monitor had them: make those the branch's reference
            // point — plan description *and* drift baseline — without
            // re-sampling. Before warm-up `fresh_sels` is `None` and the
            // construction-time baseline is preserved: an early
            // calibration replan must not overwrite supplied
            // selectivities with defaults estimated from too few events.
            if let (Some(m), Some(fresh)) = (&mut b.monitor, c.fresh_sels) {
                m.set_baseline(fresh.clone());
                b.sels = fresh;
            }
        }
        if any_better {
            ReplanVerdict::Swap
        } else {
            ReplanVerdict::Keep
        }
    }
}

impl Replanner for PlanReplanner {
    fn build(&self) -> Box<dyn Engine> {
        // Plans were produced by the planner for these very compiled
        // patterns, so engine construction cannot fail (the same argument
        // as the facade's static factories).
        let mut engines: Vec<Box<dyn Engine>> = self
            .branches
            .iter()
            .map(|b| {
                // Signature-keyed program reuse: across hot swaps the
                // pattern (and so its signature) is unchanged, so every
                // rebuild after the first is a cache hit.
                let (program, _, _) = self
                    .plan_cache
                    .lock()
                    .expect("plan cache poisoned")
                    .get_or_compile(&b.cp);
                // An order plan runs as its left-deep tree (§4).
                let tree = match &b.plan {
                    Plan::Order(plan) => TreePlan::left_deep(plan),
                    Plan::Tree(plan) => plan.clone(),
                };
                let (cp, config) = (b.cp.clone(), self.engine_config.clone());
                let engine = TreeEngine::with_program(cp, tree, config, program);
                Box::new(engine.expect("pre-validated plan")) as Box<dyn Engine>
            })
            .collect();
        if engines.len() == 1 {
            engines.pop().expect("one engine")
        } else {
            Box::new(MultiEngine::new(engines, self.window))
        }
    }

    fn replan_amortized(
        &mut self,
        rates: &MeasuredStats,
        swap: &SwapCost,
        window: &EventWindow,
    ) -> ReplanVerdict {
        self.replan_from(rates, swap, window)
    }

    fn history_ms(&self) -> u64 {
        self.branches
            .iter()
            .filter_map(|b| b.monitor.as_ref().map(SelectivityMonitor::horizon_ms))
            .max()
            .unwrap_or(0)
    }

    fn last_costs(&self) -> Option<ReplanCosts> {
        self.last_costs
    }

    fn observe_event(&mut self, e: &EventRef) {
        for b in &mut self.branches {
            if let Some(m) = &mut b.monitor {
                m.observe(e);
            }
        }
    }

    fn stats_drifted(&mut self, window: &EventWindow) -> bool {
        let stamp = window.pushed();
        self.branches.iter_mut().any(|b| {
            let Some(m) = &b.monitor else { return false };
            if m.baseline().is_empty() {
                return false;
            }
            let fresh = m.estimates(window);
            let drifted = fresh.as_deref().is_some_and(|f| m.deviates(f));
            b.checked = Some((stamp, fresh));
            drifted
        })
    }

    fn selectivity_samples(&self) -> u64 {
        // Branch monitors all observe the same input stream; report the
        // widest branch's absorption rather than double-counting.
        self.branches
            .iter()
            .filter_map(|b| b.monitor.as_ref().map(|m| m.samples()))
            .max()
            .unwrap_or(0)
    }

    fn plan_cache_hits(&self) -> u64 {
        self.plan_cache.lock().expect("plan cache poisoned").hits()
    }

    fn plan_cache_misses(&self) -> u64 {
        self.plan_cache
            .lock()
            .expect("plan cache poisoned")
            .misses()
    }

    fn observe_match(&mut self, m: &Match) {
        if self.branches.len() == 1 && m.bindings.len() == self.branches[0].cp.n() {
            self.profiler.observe(&self.branches[0].cp, m);
        }
    }

    fn consumes(&self) -> bool {
        self.branches.iter().any(|b| b.cp.strategy.consumes())
    }

    fn negated_types(&self) -> Vec<TypeId> {
        self.branches
            .iter()
            .flat_map(|b| b.cp.negated.iter().map(|ne| ne.event_type))
            .collect()
    }
}
