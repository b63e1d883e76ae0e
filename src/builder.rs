//! The unified construction API for the facade: [`EngineBuilder`] turns
//! one pattern into an engine or an [`EngineFactory`], [`RegistryBuilder`]
//! sets up multi-query execution ([`QueryRegistry`] / [`RegistrySpec`]),
//! and [`Backend`] names the evaluation engine family either builds on.
//!
//! # Migration from the constructor functions
//!
//! The twelve per-shape constructors of earlier releases have been
//! removed; replace them as follows:
//!
//! | Old constructor | Builder chain |
//! |---|---|
//! | `build_nfa_engine(p, g, alg, c)` | `engine(p).backend(Backend::Nfa(alg)).stats(g).config(c).build()` |
//! | `build_tree_engine(p, g, alg, c)` | `engine(p).backend(Backend::Tree(alg)).stats(g).config(c).build()` |
//! | `build_delta_engine(p, c)` | `engine(p).config(c).build()` (delta is the default backend) |
//! | `nfa_engine_factory(p, g, alg, c)` | `engine(p).backend(Backend::Nfa(alg)).stats(g).config(c).factory()` |
//! | `tree_engine_factory(p, g, alg, c)` | `engine(p).backend(Backend::Tree(alg)).stats(g).config(c).factory()` |
//! | `delta_engine_factory(p, c)` | `engine(p).config(c).factory()` |
//! | `adaptive_nfa_engine_factory(p, g, alg, c, a)` | `engine(p).backend(Backend::Nfa(alg)).stats(g).config(c).adaptive(a).factory()` |
//! | `adaptive_tree_engine_factory(p, g, alg, c, a)` | `engine(p).backend(Backend::Tree(alg)).stats(g).config(c).adaptive(a).factory()` |
//! | `full_adaptive_nfa_engine_factory(p, g, alg, c, a)` | `engine(p).backend(Backend::Nfa(alg)).stats(g).config(c).full_adaptive(a).factory()` |
//! | `full_adaptive_tree_engine_factory(p, g, alg, c, a)` | `engine(p).backend(Backend::Tree(alg)).stats(g).config(c).full_adaptive(a).factory()` |
//! | `replicate_join_nfa_engine_factory(p, g, alg, c)` | `engine(p).backend(Backend::Nfa(alg)).stats(g).config(c).replicate_join().factory_and_policy()` |
//! | `replicate_join_tree_engine_factory(p, g, alg, c)` | `engine(p).backend(Backend::Tree(alg)).stats(g).config(c).replicate_join().factory_and_policy()` |
//!
//! Misuse is reported up front with typed errors:
//! [`CepError::Stats`] when the NFA/tree planner (or adaptive replanning,
//! or a replicate-join policy) is requested without
//! [`stats`](EngineBuilder::stats), and [`CepError::Plan`] when adaptive
//! replanning is combined with the plan-free delta backend or a
//! [`replicate_join`](EngineBuilder::replicate_join) engine is built
//! without collecting its routing policy.

use cep_core::compile::{CompiledPattern, NaryOp};
use cep_core::compiled::{shared_plan_cache, PredicateProgram, SharedPlanCache};
use cep_core::engine::{Engine, EngineConfig, EngineFactory, MultiEngine};
use cep_core::error::CepError;
use cep_core::pattern::Pattern;
use cep_core::plan::{OrderPlan, Plan};
use cep_core::registry::{prefix_signature, FragmentBuilder, QueryRegistry, RegistrySpec};
use cep_core::stats::MeasuredStats;
use cep_core::stream::StreamBuilder;
use cep_delta::DeltaEngine;
use cep_nfa::NfaEngine;
use cep_optimizer::{Planner, DELTA_HAS_NO_PLAN};
use cep_streamgen::{analytic_measured_stats, analytic_selectivities, GeneratedStream};
use cep_tree::TreeEngine;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub use cep_optimizer::Backend;

/// Capacity of a [`BranchFactory`]'s compiled-plan cache: one slot per DNF
/// branch is enough (builds reuse identical patterns), with headroom for
/// wide disjunctions.
const PLAN_CACHE_CAP: usize = 64;

/// Event pairs the full-adaptive factories' selectivity monitors sample
/// per estimate.
const SELECTIVITY_MAX_PAIRS: usize = 512;

/// Starts a fluent [`EngineBuilder`] for `pattern`.
///
/// ```
/// # use cep::prelude::*;
/// # let config = StockConfig::nasdaq_like(2, 200, 0.5, 7);
/// # let mut catalog = cep::core::schema::Catalog::new();
/// # let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
/// # let pattern = parse_pattern(
/// #     "PATTERN SEQ(S0000 a, S0001 b) WHERE a.difference < b.difference WITHIN 5 s",
/// #     &catalog,
/// # ).unwrap();
/// let mut engine = cep::engine(&pattern)
///     .backend(Backend::Nfa(OrderAlgorithm::DpLd))
///     .stats(&generated)
///     .build()
///     .unwrap();
/// ```
pub fn engine(pattern: &Pattern) -> EngineBuilder<'_> {
    EngineBuilder {
        pattern,
        backend: Backend::Delta,
        stats: None,
        config: EngineConfig::default(),
        adaptive: None,
        replicate_join: false,
    }
}

/// Fluent single-query construction: pick a [`Backend`], optionally
/// attach stream statistics, engine configuration, adaptive replanning,
/// or replicate-join routing, then terminate with
/// [`build`](EngineBuilder::build) (one engine),
/// [`factory`](EngineBuilder::factory) (an [`EngineFactory`] stamping
/// out identical engines, e.g. one per worker shard), or
/// [`factory_and_policy`](EngineBuilder::factory_and_policy) (factory
/// plus the replicate-join [`cep_shard::RoutingPolicy`] for
/// cross-partition sharding). Created by [`engine`].
pub struct EngineBuilder<'a> {
    pattern: &'a Pattern,
    backend: Backend,
    stats: Option<&'a GeneratedStream>,
    config: EngineConfig,
    adaptive: Option<(cep_adaptive::AdaptiveConfig, bool)>,
    replicate_join: bool,
}

impl<'a> EngineBuilder<'a> {
    /// Selects the evaluation backend (default: [`Backend::Delta`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a generated stream whose analytic statistics drive plan
    /// generation. Required by the NFA/tree backends, by adaptive
    /// replanning (initial plan + monitors), and by
    /// [`factory_and_policy`](EngineBuilder::factory_and_policy);
    /// ignored by a plain delta build.
    pub fn stats(mut self, gen: &'a GeneratedStream) -> Self {
        self.stats = Some(gen);
        self
    }

    /// Sets the engine configuration (default: [`EngineConfig::default`]).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Wraps every constructed engine in a
    /// [`cep_adaptive::AdaptiveEngine`] monitoring arrival-rate drift on
    /// its own input, replanning from live estimates and hot-swapping
    /// with retained-window state migration. Incompatible with
    /// [`Backend::Delta`] (which has no plan to swap).
    pub fn adaptive(mut self, adaptive: cep_adaptive::AdaptiveConfig) -> Self {
        self.adaptive = Some((adaptive, false));
        self
    }

    /// [`adaptive`](EngineBuilder::adaptive) plus online selectivity
    /// re-estimation: correlation drift that leaves arrival rates flat —
    /// invisible to the rate-only monitor — still triggers a replan. The
    /// selectivities are sampled over the rate horizon of the wrapper's
    /// own event window, so monitoring adds no buffer.
    pub fn full_adaptive(mut self, adaptive: cep_adaptive::AdaptiveConfig) -> Self {
        self.adaptive = Some((adaptive, true));
        self
    }

    /// Marks this engine for cross-partition sharding under
    /// replicate-join routing: the terminal must be
    /// [`factory_and_policy`](EngineBuilder::factory_and_policy), which
    /// returns the derived [`cep_shard::RoutingPolicy`] alongside the
    /// factory — [`build`](EngineBuilder::build) and
    /// [`factory`](EngineBuilder::factory) fail rather than silently
    /// dropping the policy the engines must run under.
    pub fn replicate_join(mut self) -> Self {
        self.replicate_join = true;
        self
    }

    /// Builds one engine. Disjunctions produce a [`MultiEngine`] over
    /// the DNF branches internally.
    pub fn build(self) -> Result<Box<dyn Engine>, CepError> {
        Ok(self.factory()?.build())
    }

    /// Builds an [`EngineFactory`] stamping out identical engines —
    /// the input a [`cep_shard::ShardedRuntime`] needs, where each
    /// worker builds its own engine from the shared plan. Every engine
    /// from one factory shares a signature-keyed compiled-predicate
    /// cache, so each branch's predicates are lowered once.
    pub fn factory(self) -> Result<Box<dyn EngineFactory>, CepError> {
        if self.replicate_join {
            return Err(CepError::Plan(
                "replicate-join engines ship with a routing policy: terminate the \
                 builder with factory_and_policy() instead of build()/factory()"
                    .into(),
            ));
        }
        self.factory_inner()
    }

    /// Builds the factory *plus* the
    /// [`cep_shard::RoutingPolicy::ReplicateJoin`] policy to run it
    /// under: a [`cep_core::partition::PartitionSpec`] derived from the
    /// pattern's equality predicates and the stream's analytic rates —
    /// key-linked types hashed by their join key, the (low-rate)
    /// remainder broadcast. Hand both to
    /// [`cep_shard::ShardedRuntime::run`] (or `run_query`) and the
    /// merged output is byte-identical to the single-threaded engine
    /// for any shard count, under the three exact selection strategies.
    pub fn factory_and_policy(
        mut self,
    ) -> Result<(Box<dyn EngineFactory>, cep_shard::RoutingPolicy), CepError> {
        let gen = self.stats.ok_or_else(|| {
            CepError::Stats(
                "deriving a replicate-join policy needs stream statistics: \
                 call .stats(&generated) before .factory_and_policy()"
                    .into(),
            )
        })?;
        let policy = replicate_join_policy(self.pattern, gen)?;
        self.replicate_join = false;
        Ok((self.factory_inner()?, policy))
    }

    fn require_stats(&self, what: &str) -> Result<&'a GeneratedStream, CepError> {
        self.stats.ok_or_else(|| {
            CepError::Stats(format!(
                "{what} needs stream statistics: call .stats(&generated) first, \
                 or use Backend::Delta which plans per probe without them"
            ))
        })
    }

    fn factory_inner(&self) -> Result<Box<dyn EngineFactory>, CepError> {
        if let Some((adaptive, full)) = &self.adaptive {
            if self.backend == Backend::Delta {
                return Err(CepError::Plan(DELTA_HAS_NO_PLAN.into()));
            }
            let gen = self.require_stats("adaptive replanning")?;
            return adaptive_factory(
                self.pattern,
                gen,
                self.backend,
                self.config.clone(),
                adaptive.clone(),
                *full,
            );
        }
        let planning = match self.backend {
            Backend::Delta => None,
            backend => {
                let gen = self.require_stats(&format!("planning with {backend}"))?;
                Some((analytic_measured_stats(gen), gen))
            }
        };
        let planner = Planner::default();
        let branches = CompiledPattern::compile(self.pattern)?
            .into_iter()
            .map(|cp| {
                let plan = planning
                    .as_ref()
                    .map(|(measured, gen)| plan_branch(&planner, self.backend, &cp, measured, gen))
                    .transpose()?;
                Ok((cp, plan))
            })
            .collect::<Result<_, CepError>>()?;
        Ok(Box::new(BranchFactory::new(
            branches,
            self.pattern.window,
            self.config.clone(),
        )?))
    }
}

/// Starts a fluent [`RegistryBuilder`] for multi-query execution.
///
/// ```
/// # use cep::prelude::*;
/// # let config = StockConfig::nasdaq_like(2, 200, 0.5, 7);
/// # let mut catalog = cep::core::schema::Catalog::new();
/// # let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
/// # let pattern = parse_pattern(
/// #     "PATTERN SEQ(S0000 a, S0001 b) WHERE a.difference < b.difference WITHIN 5 s",
/// #     &catalog,
/// # ).unwrap();
/// let mut registry = cep::registry().build().unwrap(); // delta backend
/// let q0 = registry.register(&pattern).unwrap();
/// let q1 = registry.register(&pattern).unwrap(); // shares q0's fragment
/// let result = registry.run(&generated.stream);
/// assert_eq!(result.per_query[&q0], result.per_query[&q1]);
/// ```
pub fn registry() -> RegistryBuilder {
    RegistryBuilder {
        backend: Backend::Delta,
        stats: None,
        config: EngineConfig::default(),
    }
}

/// Statistics snapshot a [`RegistryBuilder`] carries: the analytic
/// measured stats plus a stream-less copy of the generated stream's
/// metadata (`analytic_selectivities` only reads type ids and symbol
/// specs, so the events themselves need not be retained).
struct StatsSnapshot {
    measured: MeasuredStats,
    meta: GeneratedStream,
}

impl StatsSnapshot {
    fn capture(gen: &GeneratedStream) -> StatsSnapshot {
        StatsSnapshot {
            measured: analytic_measured_stats(gen),
            meta: GeneratedStream {
                stream: StreamBuilder::new().build(),
                type_ids: gen.type_ids.clone(),
                symbols: gen.symbols.clone(),
                replicas: gen.replicas,
            },
        }
    }
}

/// Fluent multi-query construction: pick a [`Backend`] (and statistics,
/// for the planned ones), then terminate with
/// [`build`](RegistryBuilder::build) (a live [`QueryRegistry`] to
/// register queries against) or [`spec`](RegistryBuilder::spec) (a
/// [`RegistrySpec`] for [`cep_shard::ShardedRuntime::run_registry`],
/// which stamps one registry per worker shard). Created by [`registry`].
pub struct RegistryBuilder {
    backend: Backend,
    stats: Option<StatsSnapshot>,
    config: EngineConfig,
}

impl RegistryBuilder {
    /// Selects the evaluation backend every registered query's fragments
    /// run on (default: [`Backend::Delta`], which needs no statistics).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches stream statistics for the planned (NFA/tree) backends;
    /// only the analytic metadata is retained, not the events.
    pub fn stats(mut self, gen: &GeneratedStream) -> Self {
        self.stats = Some(StatsSnapshot::capture(gen));
        self
    }

    /// Sets the engine configuration shared by every fragment.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds an empty [`QueryRegistry`]; register queries with
    /// [`QueryRegistry::register`].
    pub fn build(self) -> Result<QueryRegistry, CepError> {
        Ok(QueryRegistry::new(self.fragment_builder()?))
    }

    /// Builds an empty [`RegistrySpec`]; add queries with
    /// [`RegistrySpec::add`] and hand it to
    /// [`cep_shard::ShardedRuntime::run_registry`].
    pub fn spec(self) -> Result<RegistrySpec, CepError> {
        Ok(RegistrySpec::new(self.fragment_builder()?))
    }

    fn fragment_builder(self) -> Result<Arc<dyn FragmentBuilder>, CepError> {
        let planning = match self.backend {
            Backend::Delta => None,
            Backend::Nfa(_) | Backend::Tree(_) => {
                let snapshot = self.stats.ok_or_else(|| {
                    CepError::Stats(
                        "the NFA/tree registry backends plan each fragment from stream \
                         statistics: call .stats(&generated) first, or use \
                         Backend::Delta which plans per probe without them"
                            .into(),
                    )
                })?;
                Some(snapshot)
            }
        };
        Ok(Arc::new(FacadeFragmentBuilder {
            backend: self.backend,
            config: self.config,
            planner: Planner::default(),
            planning,
            prefix_orders: Mutex::new(HashMap::new()),
        }))
    }
}

/// The planner-backed [`FragmentBuilder`] behind [`RegistryBuilder`]:
/// each distinct DNF-branch fragment is planned once (NFA/tree) or built
/// plan-free (delta), with the registry-cached predicate program threaded
/// through. Order plans are **prefix-aligned** across fragments: when a
/// new fragment shares a maximal SEQ prefix
/// ([`prefix_signature`]) with an earlier one, its plan
/// evaluates the shared prefix in the earlier fragment's order followed
/// by its own residual — the set-level planning pass. Plans never affect
/// *what* is matched, only evaluation cost, so alignment preserves
/// byte-identity.
struct FacadeFragmentBuilder {
    backend: Backend,
    config: EngineConfig,
    planner: Planner,
    /// `None` only for [`Backend::Delta`].
    planning: Option<StatsSnapshot>,
    /// Leader prefix orders by `(prefix length, prefix signature)`.
    prefix_orders: Mutex<HashMap<(usize, u64), Vec<usize>>>,
}

impl FacadeFragmentBuilder {
    /// Aligns `base` to an earlier fragment's shared-prefix order when
    /// one exists, otherwise records `base`'s own prefix orders as the
    /// leaders for later fragments.
    fn align_order(&self, cp: &CompiledPattern, base: OrderPlan) -> OrderPlan {
        if cp.op != NaryOp::Seq || !cp.negated.is_empty() || cp.n() < 3 {
            return base;
        }
        let mut leaders = self.prefix_orders.lock().expect("prefix orders poisoned");
        for k in (2..cp.n()).rev() {
            let Some(sig) = prefix_signature(cp, k) else {
                continue;
            };
            match leaders.entry((k, sig)) {
                Entry::Occupied(leader) => {
                    let aligned = align_prefix_order(base.order(), k, leader.get());
                    return OrderPlan::new(aligned).expect("aligned order is a permutation");
                }
                Entry::Vacant(slot) => {
                    slot.insert(base.order().iter().copied().filter(|&p| p < k).collect());
                }
            }
        }
        base
    }
}

/// The leader's prefix order (a permutation of `0..k`) followed by the
/// follower's residual positions in the follower's own relative order.
fn align_prefix_order(base: &[usize], k: usize, leader: &[usize]) -> Vec<usize> {
    let mut order = leader.to_vec();
    order.extend(base.iter().copied().filter(|&p| p >= k));
    order
}

impl FragmentBuilder for FacadeFragmentBuilder {
    fn build_fragment(
        &self,
        cp: &CompiledPattern,
        program: Arc<PredicateProgram>,
    ) -> Result<Box<dyn Engine>, CepError> {
        let plan = match &self.planning {
            None => None,
            Some(ctx) => Some(
                match plan_branch(&self.planner, self.backend, cp, &ctx.measured, &ctx.meta)? {
                    Plan::Order(order) => Plan::Order(self.align_order(cp, order)),
                    tree => tree,
                },
            ),
        };
        branch_engine(cp, plan.as_ref(), &self.config, program)
    }
}

/// Plans one DNF branch for a planned `backend` from the analytic
/// statistics of a generated stream.
fn plan_branch(
    planner: &Planner,
    backend: Backend,
    cp: &CompiledPattern,
    measured: &MeasuredStats,
    gen: &GeneratedStream,
) -> Result<Plan, CepError> {
    let sels = analytic_selectivities(cp, gen);
    let stats = planner.stats_for(cp, measured, &sels)?;
    planner.plan(cp, &stats, backend)
}

/// Builds the engine for one compiled branch — the one place a plan
/// becomes an engine: an order plan runs on the [`NfaEngine`], a tree plan
/// on the [`TreeEngine`], and `None` on the plan-free [`DeltaEngine`].
/// `program` is the branch's lowered predicate program (typically from a
/// [`cep_core::compiled::PlanCache`]). Fails only when the plan does not
/// fit the pattern ([`Plan::validate`]).
pub(crate) fn branch_engine(
    cp: &CompiledPattern,
    plan: Option<&Plan>,
    config: &EngineConfig,
    program: Arc<PredicateProgram>,
) -> Result<Box<dyn Engine>, CepError> {
    let (cp, config) = (cp.clone(), config.clone());
    Ok(match plan {
        Some(Plan::Order(p)) => Box::new(NfaEngine::with_program(cp, p.clone(), config, program)?),
        Some(Plan::Tree(p)) => Box::new(TreeEngine::with_program(cp, p.clone(), config, program)?),
        None => Box::new(DeltaEngine::with_program(cp, config, program)),
    })
}

/// An [`EngineFactory`] over planned DNF branches: plan once, build fresh
/// engines any number of times (one per worker shard, typically). Each
/// branch pairs its compiled pattern with its plan: an order plan runs on
/// the [`NfaEngine`], a tree plan on the [`TreeEngine`], and `None` on the
/// [`DeltaEngine`]. Disjunctions build a [`MultiEngine`] over the branches.
pub struct BranchFactory {
    branches: Vec<(CompiledPattern, Option<Plan>)>,
    window: u64,
    config: EngineConfig,
    /// Signature-keyed compiled-program cache shared by every engine this
    /// factory stamps out: each DNF branch's predicates are lowered once
    /// (on the first build) and every further build reuses the cached
    /// program.
    plan_cache: SharedPlanCache,
}

impl BranchFactory {
    /// A factory over `branches` of a pattern with the given `window`,
    /// building every engine under `config`. Fails when a plan does not
    /// fit its branch, so [`build`](EngineFactory::build) cannot.
    pub fn new(
        branches: Vec<(CompiledPattern, Option<Plan>)>,
        window: u64,
        config: EngineConfig,
    ) -> Result<BranchFactory, CepError> {
        for (cp, plan) in &branches {
            if let Some(plan) = plan {
                plan.validate(cp)?;
            }
        }
        Ok(BranchFactory {
            branches,
            window,
            config,
            plan_cache: shared_plan_cache(PLAN_CACHE_CAP),
        })
    }
}

impl EngineFactory for BranchFactory {
    fn build(&self) -> Box<dyn Engine> {
        // Each branch's cache hit/miss is stamped onto its freshly built
        // engine's metrics, so cache effectiveness surfaces through the
        // normal metrics pipeline (a [`MultiEngine`] absorbs branch
        // counters into its aggregate view).
        let mut engines: Vec<Box<dyn Engine>> = self
            .branches
            .iter()
            .map(|(cp, plan)| {
                let (program, hits, misses) = self
                    .plan_cache
                    .lock()
                    .expect("plan cache poisoned")
                    .get_or_compile(cp);
                let mut engine = branch_engine(cp, plan.as_ref(), &self.config, program)
                    .expect("plans validated in BranchFactory::new");
                engine.metrics_mut().plan_cache_hits = hits;
                engine.metrics_mut().plan_cache_misses = misses;
                engine
            })
            .collect();
        if engines.len() == 1 {
            engines.pop().expect("one engine")
        } else {
            Box::new(MultiEngine::new(engines, self.window))
        }
    }
}

/// Compiles `pattern` and pairs each DNF branch with its analytic
/// selectivities over the generated stream.
fn compiled_branches(
    pattern: &Pattern,
    gen: &GeneratedStream,
) -> Result<Vec<(CompiledPattern, Vec<f64>)>, CepError> {
    Ok(CompiledPattern::compile(pattern)?
        .into_iter()
        .map(|cp| {
            let sels = analytic_selectivities(&cp, gen);
            (cp, sels)
        })
        .collect())
}

/// Shared construction site of the adaptive engine shapes: a
/// [`cep_adaptive::PlanReplanner`] over the pattern's DNF branches and the
/// generated stream's analytic statistics, optionally with online
/// selectivity monitoring, wrapped in an [`cep_adaptive::AdaptiveFactory`].
fn adaptive_factory(
    pattern: &Pattern,
    gen: &GeneratedStream,
    backend: Backend,
    config: EngineConfig,
    adaptive: cep_adaptive::AdaptiveConfig,
    monitor_selectivities: bool,
) -> Result<Box<dyn EngineFactory>, CepError> {
    let mut replanner = cep_adaptive::PlanReplanner::new(
        compiled_branches(pattern, gen)?,
        &analytic_measured_stats(gen),
        Planner::default(),
        backend,
        config,
    )?;
    if monitor_selectivities {
        replanner = replanner.with_selectivity_monitoring(
            adaptive.horizon_ms,
            adaptive.drift_threshold,
            SELECTIVITY_MAX_PAIRS,
        );
    }
    Ok(Box::new(cep_adaptive::AdaptiveFactory::new(
        replanner,
        pattern.window,
        adaptive,
    )))
}

/// The replicate-join routing policy for `pattern` over the generated
/// stream's analytic statistics.
fn replicate_join_policy(
    pattern: &Pattern,
    gen: &GeneratedStream,
) -> Result<cep_shard::RoutingPolicy, CepError> {
    let branches = CompiledPattern::compile(pattern)?;
    let spec = cep_core::partition::QueryPartitioner::analyze_measured(
        &branches,
        &analytic_measured_stats(gen),
    )?;
    Ok(cep_shard::RoutingPolicy::ReplicateJoin(Arc::new(spec)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_prefix_order_keeps_leader_prefix_and_follower_residual() {
        // Leader evaluated the shared 3-element prefix as [2, 0, 1];
        // the follower's own plan was [3, 1, 0, 2, 4].
        let aligned = align_prefix_order(&[3, 1, 0, 2, 4], 3, &[2, 0, 1]);
        assert_eq!(aligned, vec![2, 0, 1, 3, 4]);
        // Degenerate: leader covers everything (no residual).
        let aligned = align_prefix_order(&[1, 0], 2, &[0, 1]);
        assert_eq!(aligned, vec![0, 1]);
    }
}
