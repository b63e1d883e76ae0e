//! Backend-parametric conformance harness: differential testing of any
//! [`Engine`] backend against the naive exhaustive oracle.
//!
//! This is the load-bearing correctness property behind the whole
//! evaluation — Section 2.2's claim that "all (n!) NFAs track the exact
//! same pattern", extended to tree plans and the delta-indexed backend.
//! The harness owns the random-pattern/random-stream machinery the
//! `engine_equivalence` integration suite draws from, plus the backend
//! registry: a [`Backend`] is a named constructor from a compiled pattern
//! (and a plan seed) to a boxed engine, and [`check_equivalence_under`]
//! runs every registered backend over the same stream, asserting output
//! *byte-identical*
//! to the oracle: sorted `(signature, emitted_at)` pairs, not just match
//! sets. New backends get the full differential sweep by adding one entry
//! to [`standard_backends`].

use std::sync::Arc;

use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{run_to_completion, Engine, EngineConfig, MultiEngine};
use cep_core::event::{Event, EventRef, TypeId};
use cep_core::matches::{validate_match, Match};
use cep_core::naive::NaiveEngine;
use cep_core::pattern::{Pattern, PatternBuilder, PatternExpr};
use cep_core::plan::{OrderPlan, Plan, TreeNode, TreePlan};
use cep_core::predicate::{CmpOp, Predicate};
use cep_core::registry::{FragmentBuilder, QueryRegistry};
use cep_core::selection::SelectionStrategy;
use cep_core::stream::{EventStream, StreamBuilder};
use cep_core::value::Value;

use crate::builder::branch_engine;

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
/// `Send + Sync` so a [`Backend`] can double as a registry
/// [`FragmentBuilder`] in the multi-query conformance check.
type BackendCtor =
    Box<dyn Fn(&CompiledPattern, u64, &EngineConfig) -> Box<dyn Engine> + Send + Sync>;

/// A named engine backend under conformance test: a constructor from a
/// compiled pattern, a plan seed (backends that need an evaluation plan
/// derive a deterministic random one from it), and an engine config.
pub struct Backend {
    /// Backend name, used in assertion messages.
    pub name: &'static str,
    build: BackendCtor,
}

impl Backend {
    /// Creates a backend from a name and a constructor.
    pub fn new(
        name: &'static str,
        build: impl Fn(&CompiledPattern, u64, &EngineConfig) -> Box<dyn Engine> + Send + Sync + 'static,
    ) -> Backend {
        Backend {
            name,
            build: Box::new(build),
        }
    }

    /// Builds a fresh engine for `cp` under plan seed `seed`.
    pub fn build(&self, cp: &CompiledPattern, seed: u64, cfg: &EngineConfig) -> Box<dyn Engine> {
        (self.build)(cp, seed, cfg)
    }
}

/// The three production backends, built through the facade's one
/// branch-engine constructor (`builder::branch_engine`): the lazy NFA
/// under a seed-derived random order plan, the tree engine under a
/// seed-derived random tree plan, and the (plan-free) delta-indexed engine.
pub fn standard_backends() -> Vec<Backend> {
    fn build(cp: &CompiledPattern, plan: Option<Plan>, cfg: &EngineConfig) -> Box<dyn Engine> {
        let program = Arc::new(PredicateProgram::compile(cp));
        branch_engine(cp, plan.as_ref(), cfg, program).expect("valid plan")
    }
    vec![
        Backend::new("nfa", |cp, seed, cfg| {
            let order = order_from_seed(cp.n(), seed);
            let plan = OrderPlan::new(order).expect("permutation");
            build(cp, Some(Plan::Order(plan)), cfg)
        }),
        Backend::new("tree", |cp, seed, cfg| {
            let order = order_from_seed(cp.n(), seed);
            let tree = TreePlan::new(tree_from_order(&order, seed ^ 0xABCD)).expect("valid tree");
            build(cp, Some(Plan::Tree(tree)), cfg)
        }),
        Backend::new("delta", |cp, _seed, cfg| build(cp, None, cfg)),
    ]
}

/// [`check_equivalence_under`] with skip-till-any-match.
pub fn check_equivalence(spec: PatternSpec, raw_stream: Vec<(u32, u8, i8)>, seed: u64) {
    check_equivalence_under(spec, raw_stream, seed, SelectionStrategy::SkipTillAnyMatch);
}

/// Runs every [`standard_backends`] backend over the spec'd pattern and
/// stream under `strategy`, asserting each backend's output byte-identical
/// (`(signature, emitted_at)`, see [`keyed`]) to the naive oracle's.
/// Degenerate draws (unbuildable patterns) are silently skipped, matching
/// proptest usage.
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
    let Ok(cp) = CompiledPattern::compile_single(&pattern) else {
        return;
    };
    let stream = build_stream(&raw_stream);
    let base_cfg = EngineConfig {
        max_kleene_events: 4,
        ..Default::default()
    };
    check_stream_under(&cp, &stream, &base_cfg, seed, &format!("{pattern}"));
}

/// The core differential check over an already-compiled pattern and
/// stream: oracle once, then every backend, every emitted match
/// structurally validated, outputs compared with [`keyed`]. The backends
/// share one engine shell, so its bookkeeping must agree too: each counts
/// exactly the matches it emitted, and all count the same processed and
/// relevant events. `context` names the query in assertion messages.
#[allow(clippy::ptr_arg)] // `EventStream` is `Vec<EventRef>`; callers hold one.
pub fn check_stream_under(
    cp: &CompiledPattern,
    stream: &EventStream,
    cfg: &EngineConfig,
    seed: u64,
    context: &str,
) {
    let mut oracle = NaiveEngine::new(cp.clone(), cfg.clone());
    let expected = keyed(&run_to_completion(&mut oracle, stream, true).matches);
    let mut events_seen = None;
    for backend in standard_backends() {
        let mut engine = backend.build(cp, seed, cfg);
        let run = run_to_completion(engine.as_mut(), stream, true);
        for m in &run.matches {
            validate_match(cp, m)
                .unwrap_or_else(|e| panic!("{} emitted an invalid match: {e}", backend.name));
        }
        assert_eq!(
            keyed(&run.matches),
            expected,
            "{}(seed {seed}) disagrees with oracle for {context}",
            backend.name
        );
        let m = &run.metrics;
        assert_eq!(
            m.matches_emitted,
            run.matches.len() as u64,
            "{}(seed {seed}) miscounts its matches for {context}",
            backend.name
        );
        let seen = (m.events_processed, m.events_relevant);
        assert_eq!(
            *events_seen.get_or_insert(seen),
            seen,
            "{}(seed {seed}) counts other (processed, relevant) events for {context}",
            backend.name
        );
    }
}

/// Multi-query conformance: registers every pattern in one
/// [`QueryRegistry`] per standard backend and asserts each query's
/// collected output byte-identical and in the same order ([`in_order`])
/// to an independent per-query [`MultiEngine`] over the same backend's
/// branch engines, built under the same plan seed. This is the
/// registry's core contract: sharing fragments across queries must be
/// invisible in every query's output.
#[allow(clippy::ptr_arg)] // `EventStream` is `Vec<EventRef>`; callers hold one.
pub fn check_registry_stream(
    patterns: &[Pattern],
    stream: &EventStream,
    cfg: &EngineConfig,
    seed: u64,
) {
    for backend in standard_backends() {
        let backend = Arc::new(backend);
        // Independent baselines: a fresh MultiEngine per query (one
        // branch engine per DNF branch, registry-style dedup).
        let mut expected = Vec::new();
        for pattern in patterns {
            let branches = CompiledPattern::compile(pattern).expect("compilable pattern");
            let engines: Vec<Box<dyn Engine>> = branches
                .iter()
                .map(|cp| backend.build(cp, seed, cfg))
                .collect();
            let mut multi = MultiEngine::new(engines, pattern.window);
            expected.push(in_order(
                &run_to_completion(&mut multi, stream, true).matches,
            ));
        }
        // One registry over all the queries, same builder and seed.
        let b = Arc::clone(&backend);
        let bcfg = cfg.clone();
        let builder: Arc<dyn FragmentBuilder> = Arc::new(
            move |cp: &CompiledPattern, _program: Arc<PredicateProgram>| {
                Ok(b.build(cp, seed, &bcfg))
            },
        );
        let mut registry = QueryRegistry::new(builder);
        let ids: Vec<_> = patterns
            .iter()
            .map(|p| registry.register(p).expect("registration"))
            .collect();
        let result = registry.run(stream);
        for (id, want) in ids.iter().zip(&expected) {
            let got = in_order(result.per_query.get(id).map_or(&[][..], Vec::as_slice));
            assert_eq!(
                &got, want,
                "{}(seed {seed}): registry query {id} diverged from its independent engine",
                backend.name
            );
        }
    }
}

/// [`check_registry_equivalence_under`] with skip-till-any-match.
pub fn check_registry_equivalence(
    specs: Vec<PatternSpec>,
    raw_stream: Vec<(u32, u8, i8)>,
    seed: u64,
) {
    check_registry_equivalence_under(specs, raw_stream, seed, SelectionStrategy::SkipTillAnyMatch);
}

/// [`check_registry_stream`] over proptest-drawn specs: every buildable
/// spec becomes one registered query (degenerate draws skipped), all
/// evaluated under `strategy` over one shared stream.
pub fn check_registry_equivalence_under(
    specs: Vec<PatternSpec>,
    raw_stream: Vec<(u32, u8, i8)>,
    seed: u64,
    strategy: SelectionStrategy,
) {
    let patterns: Vec<Pattern> = specs
        .iter()
        .filter_map(build_pattern)
        .map(|mut p| {
            p.strategy = strategy;
            p
        })
        .filter(|p| CompiledPattern::compile(p).is_ok())
        .collect();
    if patterns.is_empty() {
        return;
    }
    let stream = build_stream(&raw_stream);
    let base_cfg = EngineConfig {
        max_kleene_events: 4,
        ..Default::default()
    };
    check_registry_stream(&patterns, &stream, &base_cfg, seed);
}
