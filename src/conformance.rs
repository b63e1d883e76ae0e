//! Backend-parametric conformance harness: differential testing of any
//! [`Engine`] backend, and of every wrapper layered over one, against the
//! naive exhaustive oracle.
//!
//! This is the load-bearing correctness property behind the whole
//! evaluation — Section 2.2's claim that "all (n!) NFAs track the exact
//! same pattern", extended to tree plans and the delta-indexed backend.
//! The harness owns the random-pattern/random-stream machinery the
//! `engine_equivalence` integration suite draws from, plus the backend
//! registry: a [`SeededBackend`] is a named constructor from a compiled
//! pattern (and a plan seed) to a boxed engine, and
//! [`check_stream_under`] runs every registered backend over the same
//! stream, asserting output *byte-identical* to the oracle: canonical
//! `(signature, last_ts, emitted_at)` digests, not just match sets. New
//! backends get the full differential sweep by adding one entry to
//! [`standard_backends`].
//!
//! The same claim must survive every wrapper: [`check`] runs one
//! [`Composition`] (bare engine, `MultiEngine`, registry, shards, adaptive
//! swaps) and holds it to the oracle's matches and to the bare engine's
//! metrics ([`comparable`], less the [`LAYER_FIELDS`]).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use cep_adaptive::{
    AdaptiveConfig, AdaptiveEngine, AdaptiveFactory, PlanReplanner, ReplanVerdict, Replanner,
    SwapCost,
};
use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{run_to_completion, Engine, EngineConfig, MultiEngine};
use cep_core::event::{Event, EventRef, TypeId};
use cep_core::matches::{validate_match, Match};
use cep_core::metrics::{Combine, EngineMetrics};
use cep_core::naive::NaiveEngine;
use cep_core::partition::QueryPartitioner;
use cep_core::pattern::{Pattern, PatternBuilder, PatternExpr};
use cep_core::plan::{OrderPlan, Plan, TreeNode, TreePlan};
use cep_core::predicate::{CmpOp, Predicate};
use cep_core::registry::{FragmentBuilder, QueryRegistry, RegistrySpec};
use cep_core::selection::SelectionStrategy;
use cep_core::stats::MeasuredStats;
use cep_core::stream::{EventStream, StreamBuilder};
use cep_core::value::Value;
use cep_obs::json::Json;
use cep_obs::MetricsRegistry;
use cep_optimizer::{EventWindow, Planner};
use cep_shard::{RouteTarget, RoutingPolicy, ShardRouter, ShardedRuntime};

use crate::builder::{branch_engine, Backend};

/// Random pattern description, typically drawn by proptest.
#[derive(Debug, Clone)]
pub struct PatternSpec {
    /// SEQ (true) or AND (false).
    pub is_seq: bool,
    /// Per element: event type, and a flag — 0 plain, 1 negated, 2 Kleene.
    pub elements: Vec<(u32, u8)>,
    /// Predicates between element indices: `(i, j, op-code)`, indices
    /// taken modulo the element count, self-pairs and negated endpoints
    /// skipped.
    pub predicates: Vec<(usize, usize, u8)>,
    /// Single-element filters `e_i.attr0 OP const`: `(i, op-code, const)`,
    /// the index taken modulo the element count and the operator by
    /// [`filter_op_of`]. Negated and Kleene elements may be filtered too.
    pub filters: Vec<(usize, u8, i8)>,
    /// Pattern window.
    pub window: u64,
}

/// Maps a raw op-code to a comparison operator (`Eq` is excluded here:
/// equality joins get dedicated fixtures where hits are likely).
pub fn op_of(code: u8) -> CmpOp {
    match code % 4 {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Ne,
        _ => CmpOp::Gt,
    }
}

/// Maps a raw op-code to a filter's comparison operator (all six).
pub fn filter_op_of(code: u8) -> CmpOp {
    match code % 6 {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Eq,
        3 => CmpOp::Ne,
        4 => CmpOp::Ge,
        _ => CmpOp::Gt,
    }
}

/// Materializes a [`PatternSpec`], or `None` for structurally degenerate
/// draws (e.g. no positive element).
pub fn build_pattern(spec: &PatternSpec) -> Option<Pattern> {
    let mut b = PatternBuilder::new(spec.window);
    let evs: Vec<_> = spec
        .elements
        .iter()
        .enumerate()
        .map(|(i, (t, _))| b.event(TypeId(*t), &format!("e{i}")))
        .collect();
    for &(i, j, opc) in &spec.predicates {
        let (i, j) = (i % evs.len(), j % evs.len());
        if i == j {
            continue;
        }
        // Predicates only between non-negated elements (negated predicates
        // are exercised separately).
        if spec.elements[i].1 == 1 || spec.elements[j].1 == 1 {
            continue;
        }
        b.predicate(Predicate::attr_cmp(
            evs[i].pos(),
            0,
            op_of(opc),
            evs[j].pos(),
            0,
        ));
    }
    for &(i, opc, c) in &spec.filters {
        b.predicate(Predicate::attr_const(
            evs[i % evs.len()].pos(),
            0,
            filter_op_of(opc),
            Value::Int(c as i64),
        ));
    }
    let exprs: Vec<PatternExpr> = evs
        .iter()
        .zip(&spec.elements)
        .map(|(&e, (_, flag))| match flag {
            1 => b.not(e),
            2 => b.kleene(e),
            _ => b.expr(e),
        })
        .collect();
    let result = if spec.is_seq {
        b.seq_exprs(exprs)
    } else {
        b.and_exprs(exprs)
    };
    result.ok().filter(|p| {
        // Need at least one positive element.
        p.primitives().iter().any(|pr| !pr.negated)
    })
}

/// Materializes a raw `(type, Δts, attr)` tuple list as a stream (types
/// modulo 5, Δts modulo 4 — ties included).
pub fn build_stream(raw: &[(u32, u8, i8)]) -> Vec<EventRef> {
    let mut sb = StreamBuilder::new();
    let mut ts = 0u64;
    for &(tid, dt, x) in raw {
        ts += (dt % 4) as u64;
        sb.push(Event::new(TypeId(tid % 5), ts, vec![Value::Int(x as i64)]));
    }
    sb.build()
}

/// Adversarial equality-join values by code: cross-kind numeric equality
/// (`Int`/`Float`), both zeros, content-equal strings behind distinct
/// allocations, `NaN` (equal to nothing, itself included) and `None` (the
/// attribute is missing). Codes repeat the joinable classes so `==` hits
/// stay likely.
pub fn join_value(code: u8) -> Option<Value> {
    match code % 10 {
        0 | 9 => Some(Value::Int(0)),
        1 => Some(Value::Float(-0.0)),
        2 => Some(Value::Float(0.0)),
        3 => Some(Value::Int(1)),
        4 => Some(Value::Float(1.0)),
        5 | 6 => Some(Value::from("k")),
        7 => Some(Value::Float(f64::NAN)),
        _ => None,
    }
}

/// Materializes a raw `(type, Δts, key0, key1)` tuple list as a stream
/// whose events carry two [`join_value`] attributes (types modulo 4, Δts
/// modulo 3 — ties included). A missing `key0` yields an event without
/// attributes, a missing `key1` one with `key0` only.
pub fn build_join_stream(raw: &[(u32, u8, u8, u8)]) -> Vec<EventRef> {
    let mut sb = StreamBuilder::new();
    let mut ts = 0u64;
    for &(tid, dt, k0, k1) in raw {
        ts += (dt % 3) as u64;
        let attrs = match (join_value(k0), join_value(k1)) {
            (Some(a), Some(b)) => vec![a, b],
            (Some(a), None) => vec![a],
            (None, _) => vec![],
        };
        sb.push(Event::new(TypeId(tid % 4), ts, attrs));
    }
    sb.build()
}

/// Sorted match signatures — the set-identity key.
pub fn signatures(ms: &[Match]) -> Vec<Vec<(usize, Vec<u64>)>> {
    let mut sigs: Vec<_> = ms.iter().map(|m| m.signature()).collect();
    sigs.sort();
    sigs
}

/// A match's byte-identity key: its signature paired with `emitted_at`.
pub type MatchKey = (Vec<(usize, Vec<u64>)>, u64);

/// Sorted `(signature, emitted_at)` pairs — the byte-identity key: two
/// engines agreeing here emit the same matches *at the same watermarks*.
pub fn keyed(ms: &[Match]) -> Vec<MatchKey> {
    let mut ks: Vec<_> = ms.iter().map(|m| (m.signature(), m.emitted_at)).collect();
    ks.sort();
    ks
}

/// `(signature, emitted_at)` pairs in emission order — the stricter key
/// for comparisons where the order is part of the contract (a registry
/// query against its independent engine).
pub fn in_order(ms: &[Match]) -> Vec<MatchKey> {
    ms.iter().map(|m| (m.signature(), m.emitted_at)).collect()
}

/// Deterministic "random" permutation of `0..n` derived from a seed.
pub fn order_from_seed(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Deterministic random binary tree over the given leaf order.
pub fn tree_from_order(order: &[usize], seed: u64) -> TreeNode {
    fn rec(leaves: &[usize], s: &mut u64) -> TreeNode {
        if leaves.len() == 1 {
            return TreeNode::Leaf(leaves[0]);
        }
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let split = 1 + ((*s >> 33) as usize % (leaves.len() - 1));
        TreeNode::join(rec(&leaves[..split], s), rec(&leaves[split..], s))
    }
    let mut s = seed | 1;
    rec(order, &mut s)
}

/// A backend constructor: compiled pattern + plan seed + config → engine.
/// Shared and `Send + Sync`, so a [`SeededBackend`] clones into a registry
/// [`FragmentBuilder`] or a replanner.
type BackendCtor =
    Arc<dyn Fn(&CompiledPattern, u64, &EngineConfig) -> Box<dyn Engine> + Send + Sync>;

/// A named engine backend under conformance test: a constructor from a
/// compiled pattern, a plan seed (backends that need an evaluation plan
/// derive a deterministic random one from it), and an engine config.
#[derive(Clone)]
pub struct SeededBackend {
    /// Backend name, used in assertion messages.
    pub name: &'static str,
    build: BackendCtor,
}

impl SeededBackend {
    /// Creates a backend from a name and a constructor.
    pub fn new(
        name: &'static str,
        build: impl Fn(&CompiledPattern, u64, &EngineConfig) -> Box<dyn Engine> + Send + Sync + 'static,
    ) -> SeededBackend {
        SeededBackend {
            name,
            build: Arc::new(build),
        }
    }

    /// Builds a fresh engine for `cp` under plan seed `seed`.
    pub fn build(&self, cp: &CompiledPattern, seed: u64, cfg: &EngineConfig) -> Box<dyn Engine> {
        (self.build)(cp, seed, cfg)
    }
}

/// Builds `cp`'s engine through the facade's one branch-engine
/// constructor (`builder::branch_engine`).
fn build(cp: &CompiledPattern, plan: Option<Plan>, cfg: &EngineConfig) -> Box<dyn Engine> {
    let program = Arc::new(PredicateProgram::compile(cp));
    branch_engine(cp, plan.as_ref(), cfg, program).expect("valid plan")
}

/// The three production backends: an order plan (run as its left-deep
/// tree) drawn at random from the seed, a random tree plan drawn from the
/// seed, and the (plan-free) delta-indexed engine.
pub fn standard_backends() -> Vec<SeededBackend> {
    vec![
        SeededBackend::new("nfa", |cp, seed, cfg| {
            let order = order_from_seed(cp.n(), seed);
            let plan = OrderPlan::new(order).expect("permutation");
            build(cp, Some(Plan::Order(plan)), cfg)
        }),
        SeededBackend::new("tree", |cp, seed, cfg| {
            let order = order_from_seed(cp.n(), seed);
            let tree = TreePlan::new(tree_from_order(&order, seed ^ 0xABCD)).expect("valid tree");
            build(cp, Some(Plan::Tree(tree)), cfg)
        }),
        SeededBackend::new("delta", |cp, _seed, cfg| build(cp, None, cfg)),
    ]
}

/// The order-plan backend under the `seed`-th permutation of the
/// elements (the seed's mixed-radix digits pick them one by one), so seeds
/// `0..n!` run every order plan exactly once.
pub fn every_order() -> SeededBackend {
    SeededBackend::new("order", |cp, seed, cfg| {
        let (mut rest, mut k): (Vec<usize>, _) = ((0..cp.n()).collect(), seed as usize);
        let order = (1..=cp.n()).rev().map(|n| {
            let i = k % n;
            k /= n;
            rest.remove(i)
        });
        let plan = OrderPlan::new(order.collect()).expect("permutation");
        build(cp, Some(Plan::Order(plan)), cfg)
    })
}

/// [`check`] of the bare engine under every order plan ([`every_order`])
/// over the one-branch pattern `p` under its own strategy and stream `s`,
/// engines under `cfg`. Returns the oracle's match count.
pub fn check_every_order(p: &Pattern, s: &EventStream, cfg: &EngineConfig) -> u64 {
    let (bare, backend) = (Composition::Bare, every_order());
    let orders = (1..=CompiledPattern::compile_single(p).expect("one branch").n() as u64).product();
    let run = |seed| check(&bare, &backend, seed, cfg, p.strategy, p, s).matches;
    (0..orders).map(run).max().unwrap_or(0)
}

/// Every [`standard_backends`] engine for `cp`, plans from seed 0.
pub fn standard_engines(cp: &CompiledPattern, cfg: &EngineConfig) -> Vec<Box<dyn Engine>> {
    standard_backends()
        .iter()
        .map(|b| b.build(cp, 0, cfg))
        .collect()
}

/// Runs every [`standard_backends`] backend over the spec'd pattern and
/// stream under `strategy` through [`check_stream_under`]. Degenerate
/// draws (unbuildable patterns) are silently skipped, matching proptest
/// usage.
pub fn check_equivalence_under(
    spec: PatternSpec,
    raw_stream: Vec<(u32, u8, i8)>,
    seed: u64,
    strategy: SelectionStrategy,
) {
    let Some(mut pattern) = build_pattern(&spec) else {
        return; // structurally degenerate draw
    };
    pattern.strategy = strategy;
    if CompiledPattern::compile_single(&pattern).is_ok() {
        check_stream_under(&pattern, &build_stream(&raw_stream), &check_config(), seed);
    }
}

/// [`check`] of the bare engine of every [`standard_backends`] backend
/// (plans from `seed`, engines under `cfg`) over pattern `p` under its own
/// strategy and stream `s`: every match valid, byte-identical to the
/// oracle's, and the shell's bookkeeping (matches, processed and relevant
/// events) the oracle's too. Returns the oracle's match count.
pub fn check_stream_under(p: &Pattern, s: &EventStream, cfg: &EngineConfig, seed: u64) -> u64 {
    let (bare, strategy) = (Composition::Bare, p.strategy);
    let run = |b: &SeededBackend| check(&bare, b, seed, cfg, strategy, p, s).matches;
    standard_backends().iter().map(run).max().unwrap_or(0)
}

/// Multi-query conformance over proptest-drawn specs: every buildable
/// spec becomes one query (degenerate draws skipped) under `strategy`,
/// and [`check`] runs them all in one [`Composition::Registry`] per
/// standard backend. This is the registry's core contract: sharing
/// fragments across queries must be invisible in every query's output.
pub fn check_registry_equivalence_under(
    specs: Vec<PatternSpec>,
    raw_stream: Vec<(u32, u8, i8)>,
    seed: u64,
    strategy: SelectionStrategy,
) {
    let mut patterns: Vec<Pattern> = (specs.iter().filter_map(build_pattern))
        .filter(|p| CompiledPattern::compile(p).is_ok())
        .collect();
    if patterns.is_empty() {
        return;
    }
    let first = patterns.remove(0);
    let c = Composition::Registry { others: patterns };
    let (stream, cfg) = (build_stream(&raw_stream), check_config());
    for backend in standard_backends() {
        check(&c, &backend, seed, &cfg, strategy, &first, &stream);
    }
}

/// A registry fragment builder over `backend` under plan seed `seed`.
fn fragment_builder(
    backend: &SeededBackend,
    seed: u64,
    cfg: &EngineConfig,
) -> Arc<dyn FragmentBuilder> {
    let (backend, cfg) = (backend.clone(), cfg.clone());
    let build = move |cp: &CompiledPattern| Ok(backend.build(cp, seed, &cfg));
    Arc::new(move |cp: &CompiledPattern, _: Arc<PredicateProgram>| build(cp))
}

/// Materializes a raw `(type, Δts, attr, lag)` tuple list like
/// [`build_stream`], except that an event arrives `lag % 4` ms behind the
/// stream's clock: some such events are late, others land on a tie.
/// Events are partitioned by their attribute. Built without
/// [`StreamBuilder`], which rejects late events.
pub fn build_late_stream(raw: &[(u32, u8, i8, u8)]) -> EventStream {
    let mut ts = 0u64;
    let mut part_seqs = std::collections::HashMap::new();
    let events = raw.iter().enumerate().map(|(i, &(tid, dt, x, lag))| {
        ts += (dt % 4) as u64;
        let at = ts.saturating_sub((lag % 4) as u64);
        let mut e = Event::new(TypeId(tid % 5), at, vec![Value::Int(x as i64)]);
        (e.seq, e.partition) = (i as u64, x as u8 as u32);
        let part_seq = part_seqs.entry(e.partition).or_insert(0);
        (e.part_seq, *part_seq) = (*part_seq, *part_seq + 1);
        Arc::new(e)
    });
    events.collect()
}

/// `stream` without its late events (those below a timestamp before
/// them), and how many there were.
pub fn split_late(stream: &EventStream) -> (EventStream, u64) {
    let mut watermark = 0;
    let in_order: EventStream = (stream.iter())
        .filter(|e| {
            let keep = e.ts >= watermark;
            watermark = watermark.max(e.ts);
            keep
        })
        .cloned()
        .collect();
    let late = (stream.len() - in_order.len()) as u64;
    (in_order, late)
}

/// A match's canonical digest: signature, `last_ts`, `emitted_at`.
pub type Digest = (Vec<(usize, Vec<u64>)>, u64, u64);

/// The matches' digests in canonical order ([`Match::canonical_cmp`]):
/// the sharded merge's order, in which every composition is compared
/// (emission order within one `emitted_at` is not part of the contract).
pub fn digests(ms: &[Match]) -> Vec<Digest> {
    let mut sorted: Vec<&Match> = ms.iter().collect();
    sorted.sort_by(|a, b| a.canonical_cmp(b));
    (sorted.iter())
        .map(|m| (m.signature(), m.last_ts, m.emitted_at))
        .collect()
}

/// Every deterministic [`EngineMetrics`] field by name, read through
/// [`EngineMetrics::FIELDS`] and each row's exported family: a measured
/// time (the [`Combine::Elapsed`] kind, and `replay_time_ns`, a counter of
/// nanoseconds) is left out, a histogram reads as its sample count, and
/// every other row as its value. A new row is compared by default.
pub fn comparable(m: &EngineMetrics) -> Vec<(&'static str, u64)> {
    let mut reg = MetricsRegistry::new();
    m.export(&mut reg, &[]);
    let doc = cep_obs::json::parse(&reg.render_json()).expect("registry JSON parses");
    let Some(Json::Arr(families)) = doc.get("metrics") else {
        panic!("registry JSON lists its families")
    };
    let sample = |family: &str| match families
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some(family))?
        .get("samples")?
    {
        Json::Arr(samples) => samples.first().cloned(),
        _ => None,
    };
    (EngineMetrics::FIELDS.iter())
        .filter(|f| f.combine != Combine::Elapsed && f.name != "replay_time_ns")
        .map(|f| {
            let key = match f.combine {
                Combine::Histogram => "count",
                _ => "value",
            };
            let value = sample(&f.family()).and_then(|s| s.get(key)?.as_u64());
            (f.name, value.expect("every field exports a count"))
        })
        .collect()
}

/// The fields a wrapper layer counts itself and the bare engine under it
/// does not: the registry's counters, the plan-cache lookups and the
/// adaptive wrapper's swap counters. [`check`] compares every other
/// [`comparable`] field against the bare engine's.
#[rustfmt::skip]
pub const LAYER_FIELDS: &[&str] = &[
    "registered_queries", "shared_fragments", "fanout_emits",
    "plan_cache_hits", "plan_cache_misses",
    "plan_swaps", "replayed_events", "replay_ns", "retained_events", "peak_retained_events",
    "selectivity_samples", "suppressed_swaps",
];

/// How a sharded composition routes: [`RoutingPolicy::Partition`],
/// [`RoutingPolicy::HashAttr`], [`RoutingPolicy::RoundRobin`], or
/// [`RoutingPolicy::ReplicateJoin`] under the pattern's
/// [`QueryPartitioner::analyze`] spec at uniform rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Route {
    Partition,
    HashAttr(usize),
    RoundRobin,
    ReplicateJoin,
}

/// The [`ShardedRuntime`] entry point a sharded composition runs through:
/// `run`, `run_query` (the policy checked against the branches first),
/// `run_registry` over a spec holding the pattern and then `others` (each
/// query held to its own oracle; a copy of the pattern shares its
/// fragments), or `run` over an [`AdaptiveFactory`] of `replanner` per
/// worker (held to the oracle only, as [`Replan::Planned`] is).
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum Entry {
    Run,
    RunQuery,
    RunRegistry {
        others: Vec<Pattern>,
    },
    RunAdaptive {
        replanner: fn(&[CompiledPattern]) -> PlanReplanner,
        config: AdaptiveConfig,
    },
}

/// How an adaptive composition replans.
#[derive(Debug, Clone, Copy)]
pub enum Replan {
    /// Drift reported at every check, and every replan swaps between the
    /// backend's plans under the seed and the seed + 1 (a delta backend
    /// swaps to an identical engine); the replanner reads `history_ms` of
    /// the stream.
    Forced {
        /// The replanner's history horizon, in ms.
        history_ms: u64,
    },
    /// A [`PlanReplanner`] built from the compiled branches (see
    /// [`skewed_replanner`]). It builds its own engines, so the backend,
    /// seed and config handed to [`check`] are unused and no bare engine
    /// stands for them: its run is held to the oracle only.
    Planned(fn(&[CompiledPattern]) -> PlanReplanner),
}

/// One way to run a pattern: the wrappers its engines run under.
#[derive(Debug, Clone)]
pub enum Composition {
    /// The bare engine (a `MultiEngine` for a pattern of several branches).
    Bare,
    /// The pattern's branch engines in a [`MultiEngine`].
    Multi,
    /// A [`QueryRegistry`] holding the pattern and then `others`, each
    /// query read through `per_query` (in emission order, its bare
    /// engine's) and [`QueryRegistry::query_metrics`], and held to its own
    /// oracle.
    Registry {
        /// The queries registered after the pattern (a copy of the pattern
        /// shares its fragments).
        others: Vec<Pattern>,
    },
    /// A [`ShardedRuntime`] run at `shards` workers.
    #[allow(missing_docs)]
    Sharded {
        shards: usize,
        route: Route,
        entry: Entry,
        /// Whether the run collects its matches or only counts them.
        collect: bool,
    },
    /// An [`AdaptiveEngine`].
    #[allow(missing_docs)]
    Adaptive {
        replan: Replan,
        config: AdaptiveConfig,
    },
}

impl Composition {
    /// [`Composition::Sharded`] at `shards` workers.
    pub fn sharded(shards: usize, route: Route, entry: Entry, collect: bool) -> Composition {
        Composition::Sharded {
            shards,
            route,
            entry,
            collect,
        }
    }
}

/// What [`check`] saw, for the caller's own assertions (a fixture that
/// matches, a run that swapped): the oracle's match count and the
/// composition's whole-run metrics.
#[derive(Debug)]
#[allow(missing_docs)]
pub struct Checked {
    pub matches: u64,
    pub metrics: EngineMetrics,
}

/// The engine config every [`check`] runs under (Kleene sets capped at 4
/// events).
pub fn check_config() -> EngineConfig {
    EngineConfig {
        max_kleene_events: 4,
        ..Default::default()
    }
}

/// An eager adaptive configuration: a `horizon_ms` rate horizon, a
/// hair-trigger drift threshold, a check every 4 events, no cooldown.
pub fn eager(horizon_ms: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        horizon_ms,
        drift_threshold: 1e-6,
        check_every: 4,
        cooldown_events: 0,
        ..AdaptiveConfig::default()
    }
}

/// A [`PlanReplanner`] planning `branches` with `algorithm` from skewed
/// bootstrap rates (the elements' types at 5, 1 and 0.01 events per ms,
/// cycling) and selectivity 0.5, so that the even rates of a drawn stream
/// make it swap under an [`eager`] configuration.
pub fn skewed_replanner(branches: &[CompiledPattern], algorithm: Backend) -> PlanReplanner {
    let mut skewed = MeasuredStats::default();
    for cp in branches {
        for (e, rate) in cp.elements.iter().zip([5.0, 1.0, 0.01].iter().cycle()) {
            skewed.set_rate(e.event_type, *rate);
        }
    }
    let branches = (branches.iter())
        .map(|cp| (cp.clone(), vec![0.5; cp.predicates.len()]))
        .collect();
    let planner = Planner::default();
    PlanReplanner::new(branches, &skewed, planner, algorithm, check_config()).expect("a plan")
}

/// One engine over every branch: the backend's engine for a one-branch
/// pattern, a [`MultiEngine`] over them otherwise.
fn bare_engine(
    backend: &SeededBackend,
    branches: &[CompiledPattern],
    seed: u64,
    cfg: &EngineConfig,
    window: u64,
) -> Box<dyn Engine> {
    let mut engines: Vec<_> = (branches.iter())
        .map(|cp| backend.build(cp, seed, cfg))
        .collect();
    match engines.len() {
        1 => engines.pop().expect("one engine"),
        _ => Box::new(MultiEngine::new(engines, window)),
    }
}

/// The engine work of a registry's fragments for `branches`: each
/// branch's bare engine over what the registry dispatches to it (its
/// types; every event if it negates one), absorbed as the registry's
/// views absorb them. With `shared`, a branch whose signature came before
/// is the same fragment and counts once, as in the registry-wide view.
fn fragments<'a>(
    backend: &SeededBackend,
    branches: impl IntoIterator<Item = &'a CompiledPattern>,
    shared: bool,
    seed: u64,
    cfg: &EngineConfig,
    stream: &EventStream,
) -> EngineMetrics {
    let (mut m, mut seen) = (EngineMetrics::new(), HashSet::new());
    for cp in branches {
        if shared && !seen.insert(cp.signature()) {
            continue;
        }
        let types: Vec<_> = cp.elements.iter().map(|e| e.event_type).collect();
        let dispatched: EventStream = (stream.iter())
            .filter(|e| !cp.negated.is_empty() || types.contains(&e.type_id))
            .cloned()
            .collect();
        let mut engine = backend.build(cp, seed, cfg);
        drive(engine.as_mut(), &dispatched);
        m.absorb(engine.metrics());
    }
    m
}

/// Offers every event, then flushes: no driver-side timing, so every
/// histogram sample comes from the engines and wrappers themselves.
fn drive(engine: &mut dyn Engine, stream: &EventStream) -> Vec<Match> {
    let mut out = Vec::new();
    for e in stream {
        engine.process(e, &mut out);
    }
    engine.flush(&mut out);
    out
}

/// One query of a composition: its pattern (under the checked strategy),
/// its branches, and the oracle's digests and relevant events for it.
struct Query {
    pattern: Pattern,
    branches: Vec<CompiledPattern>,
    want: Vec<Digest>,
    relevant: u64,
}

/// Runs `pattern` under `strategy` (one of the three exact strategies)
/// through `composition` over `backend` (plans from `seed`, engines under
/// `cfg`), and holds it to three things:
///
/// * its matches (for a registry, each query's) are valid, and as
///   canonical [`digests`] (or, uncollected, their count) equal the
///   oracle's over the stream's in-order subsequence ([`split_late`]):
///   every branch's naive engine, duplicates removed. A sharded output is
///   in canonical order, a registry query's in its bare engine's emission
///   order;
/// * it drops the stream's late events and processes the rest (sharded:
///   plus the replicated deliveries); a bare engine counts the oracle's
///   relevant events;
/// * every [`comparable`] field but the [`LAYER_FIELDS`] equals the bare
///   engine's, built from the same backend and seed: over the whole
///   stream, over what a registry dispatches to each fragment, per shard
///   over the slice the router hands it (merged, the extra deliveries and
///   the deduplicated copies counted), or, under forced swaps, every
///   engine the adaptive wrapper built, folded as its view folds them.
///
/// A [`Replan::Planned`] or [`Entry::RunAdaptive`] replanner builds its
/// own engines, under [`check_config`]: check it under that config.
///
/// Panics with the composition, backend, seed and pattern on the first
/// difference.
pub fn check(
    composition: &Composition,
    backend: &SeededBackend,
    seed: u64,
    cfg: &EngineConfig,
    strategy: SelectionStrategy,
    pattern: &Pattern,
    stream: &EventStream,
) -> Checked {
    let name = backend.name;
    let ctx = format!("{composition:?} over {name}(seed {seed}), {strategy}: {pattern}");
    let (on_time, late) = split_late(stream);
    let others: &[Pattern] = match composition {
        Composition::Registry { others }
        | Composition::Sharded {
            entry: Entry::RunRegistry { others },
            ..
        } => others,
        _ => &[],
    };
    let queries: Vec<Query> = (std::iter::once(pattern).chain(others))
        .map(|p| {
            let mut pattern = p.clone();
            pattern.strategy = strategy;
            let branches = CompiledPattern::compile(&pattern).expect("a compilable pattern");
            let (mut matches, mut relevant) = (Vec::new(), 0);
            for cp in &branches {
                let mut naive = NaiveEngine::new(cp.clone(), cfg.clone());
                matches.extend(drive(&mut naive, &on_time));
                relevant += naive.metrics().events_relevant;
            }
            let (mut want, mut seen) = (digests(&matches), HashSet::new());
            want.retain(|d| seen.insert(d.0.clone()));
            Query {
                pattern,
                branches,
                want,
                relevant,
            }
        })
        .collect();
    let (branches, window) = (&queries[0].branches, pattern.window);
    let bare_of = |q: &Query| bare_engine(backend, &q.branches, seed, cfg, q.pattern.window);
    let bare = || bare_of(&queries[0]);
    // Each output as (its query, its matches or `None` uncollected, its
    // count), and the (view, its metrics, the bare engine's) triples
    // compared field by field; the arm yields the whole-run metrics.
    let mut outputs: Vec<(usize, Option<Vec<Match>>, u64)> = Vec::new();
    let mut views: Vec<(String, EngineMetrics, EngineMetrics)> = Vec::new();
    let metrics = match composition {
        Composition::Bare => {
            let mut engine = bare();
            let ms = drive(engine.as_mut(), stream);
            let m = engine.metrics().clone();
            // Its own match counter is held to the oracle as an output too.
            outputs.push((0, None, m.matches_emitted));
            outputs.push((0, Some(ms), 0));
            assert_eq!(m.events_relevant, queries[0].relevant, "{ctx}: relevant");
            m
        }
        Composition::Multi => {
            let engines = branches.iter().map(|cp| backend.build(cp, seed, cfg));
            let mut multi = MultiEngine::new(engines.collect(), window);
            outputs.push((0, Some(drive(&mut multi, stream)), 0));
            let mut engine = bare();
            drive(engine.as_mut(), stream);
            let m = multi.metrics().clone();
            views.push(("multi".into(), m.clone(), engine.metrics().clone()));
            m
        }
        Composition::Registry { .. } => {
            let mut registry = QueryRegistry::new(fragment_builder(backend, seed, cfg));
            let ids: Vec<_> = (queries.iter())
                .map(|q| registry.register(&q.pattern).expect("registration"))
                .collect();
            let mut run = registry.run(stream);
            for (i, (id, q)) in ids.into_iter().zip(&queries).enumerate() {
                let ms = run.per_query.remove(&id).expect("an entry per query");
                let alone = drive(bare_of(q).as_mut(), stream);
                let at = format!("query {id}");
                assert_eq!(in_order(&ms), in_order(&alone), "{ctx}: {at} order");
                outputs.push((i, Some(ms), 0));
                // A query's own counts stand in its view.
                let view = registry.query_metrics(id).expect("a live query");
                let mut base = fragments(backend, &q.branches, false, seed, cfg, &on_time);
                base.events_processed = on_time.len() as u64;
                base.matches_emitted = q.want.len() as u64;
                base.late_events_dropped = late;
                views.push((at, view, base));
            }
            // Shared work counts once in the registry-wide view.
            let all = queries.iter().flat_map(|q| &q.branches);
            let mut base = fragments(backend, all, true, seed, cfg, &on_time);
            base.events_processed = on_time.len() as u64;
            base.late_events_dropped = late;
            views.push(("registry".into(), run.metrics.clone(), base));
            run.metrics
        }
        Composition::Sharded {
            shards,
            route,
            entry,
            collect,
        } => {
            let all: Vec<CompiledPattern> = (queries.iter())
                .flat_map(|q| q.branches.iter().cloned())
                .collect();
            let policy = match route {
                Route::Partition => RoutingPolicy::Partition,
                Route::HashAttr(attr) => RoutingPolicy::HashAttr(*attr),
                Route::RoundRobin => RoutingPolicy::RoundRobin,
                Route::ReplicateJoin => RoutingPolicy::ReplicateJoin(Arc::new(
                    QueryPartitioner::analyze(&all, |_| 1.0).expect("a partition spec"),
                )),
            };
            let runtime = ShardedRuntime::with_shards(*shards);
            let keep = |ms: Vec<Match>| collect.then_some(ms);
            let (metrics, per_shard) = match entry {
                Entry::Run | Entry::RunQuery => {
                    let r = match entry {
                        Entry::Run => runtime.run(&bare, stream, policy.clone(), *collect),
                        _ => (runtime.run_query(&bare, stream, policy.clone(), branches, *collect))
                            .unwrap_or_else(|e| panic!("{ctx}: {e}")),
                    };
                    outputs.push((0, keep(r.matches), r.match_count));
                    (r.metrics, r.per_shard)
                }
                Entry::RunRegistry { .. } => {
                    let mut spec = RegistrySpec::new(fragment_builder(backend, seed, cfg));
                    let ids: Vec<_> = (queries.iter())
                        .map(|q| spec.add(&q.pattern).expect("registration"))
                        .collect();
                    let mut r = (runtime.run_registry(&spec, stream, policy.clone(), *collect))
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let total: usize = queries.iter().map(|q| q.want.len()).sum();
                    assert_eq!(r.match_count, total as u64, "{ctx}: matches of all queries");
                    for (i, id) in ids.into_iter().enumerate() {
                        let ms = r.per_query.remove(&id).expect("an entry per query");
                        outputs.push((i, keep(ms), r.match_counts[&id]));
                    }
                    (r.metrics, r.per_shard)
                }
                Entry::RunAdaptive { replanner, config } => {
                    // The workers' replanners build their own engines: no
                    // bare engine stands for them.
                    let factory = AdaptiveFactory::new(replanner(branches), window, config.clone());
                    let r = runtime.run(&factory, stream, policy.clone(), *collect);
                    outputs.push((0, keep(r.matches), r.match_count));
                    (r.metrics, vec![])
                }
            };
            // Per shard, the bare engine over its slice, sampled as a worker
            // samples (as `run_to_completion` does, one latency per delivered
            // match); a registry worker's fragments see what it dispatches
            // and it delivers each query's matches.
            let mut router = ShardRouter::new(*shards, policy);
            let mut slices: Vec<EventStream> = vec![Vec::new(); *shards];
            for e in &on_time {
                match router.route_target(e) {
                    RouteTarget::One(i) => slices[i].push(e.clone()),
                    RouteTarget::All => slices.iter_mut().for_each(|s| s.push(e.clone())),
                }
            }
            let registry = matches!(entry, Entry::RunRegistry { .. });
            let (mut merged, mut delivered) = (EngineMetrics::new(), 0);
            for (s, slice) in per_shard.iter().zip(&slices) {
                let mut base = run_to_completion(bare().as_mut(), slice, false).metrics;
                let mut shard_delivered = base.matches_emitted;
                if registry {
                    shard_delivered = (queries.iter())
                        .map(|q| drive(bare_of(q).as_mut(), slice).len() as u64)
                        .sum();
                    let all = queries.iter().flat_map(|q| &q.branches);
                    let mut frags = fragments(backend, all, true, seed, cfg, slice);
                    frags.events_processed = base.events_processed;
                    frags.event_ns = base.event_ns;
                    frags.match_latency_ns.record_n(0, shard_delivered);
                    base = frags;
                }
                let at = format!("shard {}", s.shard);
                assert_eq!(s.events_routed, slice.len() as u64, "{ctx}: {at}");
                assert_eq!(s.match_count, shard_delivered, "{ctx}: {at}");
                merged.merge(&base);
                delivered += shard_delivered;
                views.push((at, s.metrics.clone(), base));
            }
            if !matches!(entry, Entry::RunAdaptive { .. }) {
                assert_eq!(per_shard.len(), *shards, "{ctx}: a result per shard");
                let distinct: usize = queries.iter().map(|q| q.want.len()).sum();
                merged.replicated_events = merged.events_processed - on_time.len() as u64;
                merged.dedup_hits = delivered - distinct as u64;
                merged.late_events_dropped = late;
                views.push(("merged".into(), metrics.clone(), merged));
            }
            metrics
        }
        Composition::Adaptive { replan, config } => {
            let built = Arc::new(Mutex::new(Vec::new()));
            let config = config.clone();
            let mut adaptive: Box<dyn Engine> = match replan {
                Replan::Forced { history_ms } => {
                    let forced = Forced {
                        backend: backend.clone(),
                        branches: branches.clone(),
                        seeds: [seed, seed + 1],
                        cfg: cfg.clone(),
                        window,
                        history_ms: *history_ms,
                        built: Arc::clone(&built),
                    };
                    Box::new(AdaptiveEngine::new(forced, window, config))
                }
                Replan::Planned(planned) => {
                    Box::new(AdaptiveEngine::new(planned(branches), window, config))
                }
            };
            let ms = drive(adaptive.as_mut(), stream);
            // Read before the lock: a view read publishes the active engine.
            let metrics = adaptive.metrics().clone();
            let built = built.lock().expect("unpoisoned");
            if let Replan::Forced { .. } = replan {
                let swaps = metrics.plan_swaps;
                assert_eq!(built.len() as u64, swaps + 1, "{ctx}: an engine per swap");
                // The engines one after another, the retired ones holding
                // no live state; the wrapper's own counts stand.
                let mut base = EngineMetrics::new();
                for (i, engine) in built.iter().enumerate() {
                    let mut engine = engine.clone();
                    if i + 1 < built.len() {
                        engine.clear_live();
                    }
                    base.merge(&engine);
                }
                base.events_processed = on_time.len() as u64;
                base.matches_emitted = ms.len() as u64;
                base.late_events_dropped = late;
                views.push(("adaptive".into(), metrics.clone(), base));
            }
            outputs.push((0, Some(ms), 0));
            metrics
        }
    };
    // A shard's watermark follows its own slice, so it may release a
    // deferred match (emitted after its last event) later than the unsplit
    // stream does, never earlier (see the cep-shard crate docs).
    let sharded = matches!(composition, Composition::Sharded { .. });
    for (i, (query, ms, count)) in outputs.iter().enumerate() {
        let q = &queries[*query];
        let Some(ms) = ms else {
            assert_eq!(*count, q.want.len() as u64, "{ctx}: output {i} count");
            continue;
        };
        for m in ms {
            let mut verdicts = q.branches.iter().map(|cp| validate_match(cp, m));
            let first = verdicts.next().expect("a branch");
            if let (Err(e), false) = (&first, verdicts.any(|v| v.is_ok())) {
                panic!("{ctx}: output {i} holds an invalid match: {e}");
            }
        }
        let (mut got, mut exp) = (digests(ms), q.want.clone());
        if sharded {
            let canonical = ms.is_sorted_by(|a, b| a.canonical_cmp(b).is_le());
            assert!(canonical, "{ctx}: output {i} out of canonical order");
            got.sort();
            exp.sort();
            for (g, w) in got.iter_mut().zip(&exp) {
                if (&g.0, g.1) == (&w.0, w.1) && w.2 > w.1 && g.2 > w.2 {
                    g.2 = w.2;
                }
            }
        }
        assert_eq!(got, exp, "{ctx}: output {i}");
    }
    assert_eq!(metrics.late_events_dropped, late, "{ctx}: late events");
    let processed = metrics.events_processed - metrics.replicated_events;
    assert_eq!(processed, on_time.len() as u64, "{ctx}: events processed");
    let owned = |&(name, _): &(&str, u64)| !LAYER_FIELDS.contains(&name);
    for (view, got, base) in views {
        let got: Vec<_> = comparable(&got).into_iter().filter(owned).collect();
        let base: Vec<_> = comparable(&base).into_iter().filter(owned).collect();
        assert_eq!(got, base, "{ctx}: {view} metrics against the bare engine's");
    }
    let matches = queries[0].want.len() as u64;
    Checked { matches, metrics }
}

/// [`Replan::Forced`]. It records the final metrics of every engine it
/// builds, so [`check`] can fold the ones the wrapper swapped out and
/// dropped.
struct Forced {
    backend: SeededBackend,
    branches: Vec<CompiledPattern>,
    seeds: [u64; 2],
    cfg: EngineConfig,
    window: u64,
    history_ms: u64,
    built: Arc<Mutex<Vec<EngineMetrics>>>,
}

impl Replanner for Forced {
    fn build(&self) -> Box<dyn Engine> {
        let (seed, cfg) = (self.seeds[0], &self.cfg);
        let inner = bare_engine(&self.backend, &self.branches, seed, cfg, self.window);
        let mut built = self.built.lock().expect("unpoisoned");
        built.push(EngineMetrics::new());
        let (built, slot) = (Arc::clone(&self.built), built.len() - 1);
        Box::new(Published { inner, built, slot })
    }

    fn replan_amortized(
        &mut self,
        _: &MeasuredStats,
        _: &SwapCost,
        _: &EventWindow,
    ) -> ReplanVerdict {
        self.seeds.swap(0, 1);
        ReplanVerdict::Swap
    }

    fn history_ms(&self) -> u64 {
        self.history_ms
    }

    fn stats_drifted(&mut self, _: &EventWindow) -> bool {
        true
    }

    fn consumes(&self) -> bool {
        self.branches[0].strategy.consumes()
    }

    fn negated_types(&self) -> Vec<TypeId> {
        let negated = self.branches.iter().flat_map(|cp| &cp.negated);
        negated.map(|ne| ne.event_type).collect()
    }
}

/// An engine that copies its metrics into its [`Forced`] slot after every
/// call.
struct Published {
    inner: Box<dyn Engine>,
    built: Arc<Mutex<Vec<EngineMetrics>>>,
    slot: usize,
}

impl Published {
    fn publish(&self) {
        self.built.lock().expect("unpoisoned")[self.slot] = self.inner.metrics().clone();
    }
}

impl Engine for Published {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        self.inner.process(event, out);
        self.publish();
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        self.inner.flush(out);
        self.publish();
    }

    fn metrics(&self) -> &EngineMetrics {
        self.publish();
        self.inner.metrics()
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        self.inner.metrics_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
