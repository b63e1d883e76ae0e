//! Exactness and protocol tests for the adaptive runtime, following the
//! naive-oracle / canonical-sort harness pattern of `cep-shard`: the
//! never-swapped engine (and, for skip-till-any-match, the naive oracle)
//! is the ground truth a swapping engine must reproduce byte-identically.

use crate::{AdaptiveConfig, AdaptiveEngine, AdaptiveFactory, PlanReplanner, Replanner, SwapCost};
use cep_core::compile::CompiledPattern;
use cep_core::engine::{run_to_completion, Engine, EngineConfig, EngineFactory, MultiEngine};
use cep_core::error::CepError;
use cep_core::event::{Event, EventRef, TypeId};
use cep_core::matches::{validate_match, Match};
use cep_core::metrics::EngineMetrics;
use cep_core::naive::NaiveEngine;
use cep_core::pattern::{Pattern, PatternBuilder, PatternExpr};
use cep_core::plan::{OrderPlan, TreePlan};
use cep_core::predicate::{CmpOp, Predicate};
use cep_core::registry::QueryRegistry;
use cep_core::selection::SelectionStrategy;
use cep_core::stats::MeasuredStats;
use cep_core::stream::{EventStream, StreamBuilder};
use cep_core::value::Value;
use cep_nfa::NfaEngine;
use cep_optimizer::{Backend, EventWindow, OrderAlgorithm, Planner, SelectivityMonitor};
use cep_tree::TreeEngine;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

fn t(i: u32) -> TypeId {
    TypeId(i)
}

/// `SEQ` of `n` distinct types, no predicates.
fn seq_pattern(n: usize, window: u64, strategy: SelectionStrategy) -> Pattern {
    let mut b = PatternBuilder::new(window);
    b.strategy(strategy);
    let evs: Vec<_> = (0..n)
        .map(|i| b.event(t(i as u32), &format!("e{i}")))
        .collect();
    b.seq(evs).unwrap()
}

/// `SEQ` (or `AND`) of types 0, 1, 2 with `NOT` type 3 inserted at
/// `neg_at` (0 leading, 1 and 2 internal, 3 trailing), and the element of
/// type `kleene` (if any) under `KL`. No predicates.
fn negation_pattern(
    is_seq: bool,
    neg_at: usize,
    kleene: Option<usize>,
    window: u64,
    strategy: SelectionStrategy,
) -> Pattern {
    let mut b = PatternBuilder::new(window);
    b.strategy(strategy);
    let mut exprs: Vec<PatternExpr> = (0..3)
        .map(|i| {
            let e = b.event(t(i as u32), &format!("e{i}"));
            if kleene == Some(i) {
                b.kleene(e)
            } else {
                b.expr(e)
            }
        })
        .collect();
    let n = b.event(t(3), "n");
    exprs.insert(neg_at, b.not(n));
    if is_seq {
        b.seq_exprs(exprs)
    } else {
        b.and_exprs(exprs)
    }
    .unwrap()
}

/// Deterministic pseudo-random workload (the LCG of the shard tests).
fn lcg_stream(len: u64, types: u32, seed: u64) -> EventStream {
    let mut state = seed;
    let mut ts = 0u64;
    let mut b = StreamBuilder::new();
    for _ in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let tid = ((state >> 33) % types as u64) as u32;
        ts += (state >> 50) % 3;
        b.push(Event::new(t(tid), ts, vec![]));
    }
    b.build()
}

/// Two-phase stream: type 0 frequent / type 2 rare, flipping halfway.
/// Type 1 is steady. Rates per ms are phase-dependent integers so drift is
/// unambiguous.
fn two_phase_stream(phase_ms: u64) -> EventStream {
    let mut b = StreamBuilder::new();
    for phase in 0..2u64 {
        let (every_a, every_c) = if phase == 0 { (2, 40) } else { (40, 2) };
        let base = phase * phase_ms;
        for i in 0..phase_ms {
            let ts = base + i;
            if i % every_a == 0 {
                b.push(Event::new(t(0), ts, vec![]));
            }
            if i % 10 == 0 {
                b.push(Event::new(t(1), ts, vec![]));
            }
            if i % every_c == 0 {
                b.push(Event::new(t(2), ts, vec![]));
            }
        }
    }
    b.build()
}

/// Phase-1 statistics of [`two_phase_stream`].
fn phase1_stats() -> MeasuredStats {
    let mut m = MeasuredStats::default();
    m.set_rate(t(0), 0.5);
    m.set_rate(t(1), 0.1);
    m.set_rate(t(2), 0.025);
    m
}

/// An eager configuration: tiny horizon, hair-trigger threshold, frequent
/// checks, no cooldown — maximizes swap pressure for protocol tests.
fn eager(horizon_ms: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        horizon_ms,
        drift_threshold: 1e-6,
        check_every: 4,
        cooldown_events: 0,
        ..AdaptiveConfig::default()
    }
}

/// A test replanner that alternates between two fixed plans on every
/// replan call, reporting a change each time: guarantees swaps regardless
/// of what the statistics say, isolating the swap/replay machinery
/// from drift detection.
#[derive(Clone)]
struct FlipFlop {
    cp: CompiledPattern,
    orders: [OrderPlan; 2],
    active: usize,
    tree: bool,
    /// Selectivity monitoring over the engine's window: once warmed up it
    /// reports drift at every check, so swaps also come through
    /// [`Replanner::stats_drifted`], and its horizon widens the window.
    monitor: Option<SelectivityMonitor>,
    /// When set, every built engine publishes its metrics here (see
    /// [`Published`]).
    published: Option<Arc<Mutex<Vec<EngineMetrics>>>>,
}

impl FlipFlop {
    fn new(cp: CompiledPattern, tree: bool) -> FlipFlop {
        let n = cp.n();
        let fwd = OrderPlan::new((0..n).collect()).unwrap();
        let rev = OrderPlan::new((0..n).rev().collect()).unwrap();
        FlipFlop {
            cp,
            orders: [fwd, rev],
            active: 0,
            tree,
            monitor: None,
            published: None,
        }
    }

    /// Adds a selectivity monitor reading `horizon_ms` of the window.
    fn monitored(mut self, horizon_ms: u64) -> FlipFlop {
        let sels = vec![1.0; self.cp.predicates.len()];
        let monitor = SelectivityMonitor::new(self.cp.clone(), sels, horizon_ms, 0.5, 16);
        self.monitor = Some(monitor.with_min_events(1));
        self
    }
}

/// An NFA engine over `plan`, or a tree engine over its left-deep tree.
fn order_engine(cp: &CompiledPattern, plan: &OrderPlan, tree: bool) -> Box<dyn Engine> {
    if tree {
        Box::new(
            TreeEngine::new(
                cp.clone(),
                TreePlan::left_deep(plan),
                EngineConfig::default(),
            )
            .unwrap(),
        )
    } else {
        Box::new(NfaEngine::new(cp.clone(), plan.clone(), EngineConfig::default()).unwrap())
    }
}

/// An engine that copies its metrics to a shared slot after every call,
/// so a test can read the counters of engines the adaptive wrapper has
/// swapped out and dropped.
struct Published {
    inner: Box<dyn Engine>,
    all: Arc<Mutex<Vec<EngineMetrics>>>,
    slot: usize,
}

impl Published {
    fn publish(&self) {
        self.all.lock().unwrap()[self.slot] = self.inner.metrics().clone();
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
        self.inner.metrics()
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        self.inner.metrics_mut()
    }

    fn name(&self) -> &'static str {
        "published"
    }
}

impl Replanner for FlipFlop {
    fn build(&self) -> Box<dyn Engine> {
        let engine = order_engine(&self.cp, &self.orders[self.active], self.tree);
        let Some(all) = &self.published else {
            return engine;
        };
        let slot = {
            let mut all = all.lock().unwrap();
            all.push(EngineMetrics::new());
            all.len() - 1
        };
        Box::new(Published {
            inner: engine,
            all: all.clone(),
            slot,
        })
    }

    fn replan(&mut self, _rates: &MeasuredStats) -> bool {
        self.active = 1 - self.active;
        true
    }

    fn history_ms(&self) -> u64 {
        self.monitor
            .as_ref()
            .map_or(0, SelectivityMonitor::horizon_ms)
    }

    fn observe_event(&mut self, e: &EventRef) {
        if let Some(m) = &mut self.monitor {
            m.observe(e);
        }
    }

    fn stats_drifted(&mut self, window: &EventWindow) -> bool {
        self.monitor
            .as_ref()
            .is_some_and(|m| m.estimates(window).is_some())
    }

    fn selectivity_samples(&self) -> u64 {
        self.monitor.as_ref().map_or(0, SelectivityMonitor::samples)
    }

    fn consumes(&self) -> bool {
        self.cp.strategy.consumes()
    }

    fn negated_types(&self) -> Vec<TypeId> {
        self.cp.negated.iter().map(|ne| ne.event_type).collect()
    }
}

/// Canonical ground-truth order shared with `cep_shard::canonical_sort`.
fn canonical(mut matches: Vec<Match>) -> Vec<Match> {
    matches.sort_by(Match::canonical_cmp);
    matches
}

fn run_engine(engine: &mut dyn Engine, stream: &EventStream) -> Vec<Match> {
    canonical(run_to_completion(engine, stream, true).matches)
}

#[test]
fn real_replanner_swaps_on_drift_and_output_is_byte_identical() {
    let stream = two_phase_stream(4_000);
    for strategy in [
        SelectionStrategy::SkipTillAnyMatch,
        SelectionStrategy::StrictContiguity,
        SelectionStrategy::PartitionContiguity,
    ] {
        let cp = CompiledPattern::compile_single(&seq_pattern(3, 50, strategy)).unwrap();
        let replanner = PlanReplanner::new(
            vec![(cp, vec![])],
            &phase1_stats(),
            Planner::default(),
            Backend::Nfa(OrderAlgorithm::DpLd),
            EngineConfig::default(),
        )
        .unwrap();
        let mut static_engine = replanner.build();
        let expected = run_engine(static_engine.as_mut(), &stream);
        let mut adaptive = AdaptiveEngine::new(
            replanner,
            50,
            AdaptiveConfig {
                horizon_ms: 500,
                drift_threshold: 0.5,
                check_every: 64,
                cooldown_events: 128,
                ..AdaptiveConfig::default()
            },
        );
        let got = run_engine(&mut adaptive, &stream);
        assert_eq!(got, expected, "{strategy}: swapped output diverged");
        if strategy == SelectionStrategy::SkipTillAnyMatch {
            assert!(!expected.is_empty(), "fixture should produce matches");
            assert!(
                adaptive.swaps() >= 1,
                "the rate flip must trigger at least one swap"
            );
            assert!(adaptive.metrics().replayed_events > 0);
        }
    }
}

#[test]
fn adaptive_replans_hit_the_compiled_plan_cache() {
    use cep_optimizer::TreeAlgorithm;
    let stream = two_phase_stream(4_000);
    for backend in [
        Backend::Nfa(OrderAlgorithm::DpLd),
        Backend::Tree(TreeAlgorithm::DpB),
    ] {
        let cp = CompiledPattern::compile_single(&seq_pattern(
            3,
            50,
            SelectionStrategy::SkipTillAnyMatch,
        ))
        .unwrap();
        let replanner = PlanReplanner::new(
            vec![(cp, vec![])],
            &phase1_stats(),
            Planner::default(),
            backend,
            EngineConfig::default(),
        )
        .unwrap();
        let cache = replanner.plan_cache().clone();
        let mut adaptive = AdaptiveEngine::new(
            replanner,
            50,
            AdaptiveConfig {
                horizon_ms: 500,
                drift_threshold: 0.5,
                check_every: 64,
                cooldown_events: 128,
                ..AdaptiveConfig::default()
            },
        );
        run_engine(&mut adaptive, &stream);
        let swaps = adaptive.swaps();
        assert!(swaps >= 1, "the rate flip must trigger at least one swap");
        // The pattern is unchanged across swaps, so its predicates are
        // lowered exactly once (the initial build) and every post-swap
        // rebuild reuses the cached program.
        let c = cache.lock().unwrap();
        assert_eq!(c.misses(), 1, "one branch compiles once");
        assert_eq!(c.hits(), swaps, "every swap rebuild must be a cache hit");
        // The counters surface through the adaptive engine's metrics.
        assert_eq!(adaptive.metrics().plan_cache_hits, swaps);
        assert_eq!(adaptive.metrics().plan_cache_misses, 1);
    }
}

/// The delta backend has no plan to replan: asking for a delta replanner
/// is a typed error carrying the facade's message, not a panic later.
#[test]
fn delta_replanner_is_a_typed_plan_error() {
    let cp =
        CompiledPattern::compile_single(&seq_pattern(3, 50, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let result = PlanReplanner::new(
        vec![(cp, vec![])],
        &phase1_stats(),
        Planner::default(),
        Backend::Delta,
        EngineConfig::default(),
    );
    match result {
        Err(CepError::Plan(message)) => {
            assert_eq!(message, cep_optimizer::DELTA_HAS_NO_PLAN)
        }
        Err(e) => panic!("expected CepError::Plan, got {e:?}"),
        Ok(_) => panic!("a delta replanner must not be constructed"),
    }
}

#[test]
fn forced_swaps_are_exact_for_both_engine_families() {
    let stream = lcg_stream(300, 3, 0xADA971);
    for strategy in [
        SelectionStrategy::SkipTillAnyMatch,
        SelectionStrategy::StrictContiguity,
        SelectionStrategy::PartitionContiguity,
    ] {
        let cp = CompiledPattern::compile_single(&seq_pattern(3, 12, strategy)).unwrap();
        for tree in [false, true] {
            let replanner = FlipFlop::new(cp.clone(), tree);
            let mut static_engine = replanner.build();
            let expected = run_engine(static_engine.as_mut(), &stream);
            let mut adaptive = AdaptiveEngine::new(replanner, 12, eager(50));
            let got = run_engine(&mut adaptive, &stream);
            assert!(
                adaptive.swaps() >= 2,
                "eager flip-flop must swap repeatedly, got {}",
                adaptive.swaps()
            );
            assert_eq!(
                got, expected,
                "{strategy} (tree={tree}): forced swaps changed the output"
            );
        }
    }
}

#[test]
fn replayed_window_matches_are_never_emitted_twice() {
    // Dense single-key stream: plenty of matches complete right before each
    // swap, so every replay re-detects recently emitted matches.
    let stream = lcg_stream(400, 3, 7);
    let cp =
        CompiledPattern::compile_single(&seq_pattern(3, 15, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let mut adaptive = AdaptiveEngine::new(FlipFlop::new(cp.clone(), false), 15, eager(60));
    let got = run_to_completion(&mut adaptive, &stream, true).matches;
    assert!(!got.is_empty());
    assert!(adaptive.swaps() >= 2);
    assert!(adaptive.metrics().replayed_events > 0);
    let mut sigs = std::collections::HashSet::new();
    for m in &got {
        validate_match(&cp, m).unwrap();
        assert!(
            sigs.insert(m.signature()),
            "duplicate emission of {m} after a swap replay"
        );
    }
}

/// Next-match `SEQ(NOT T1, KL(T0 k), NOT T0) WITHIN 4`: type 0 is both
/// bound and negated, so the negated tail replays events a match can bind.
fn bound_and_negated_pattern() -> Pattern {
    let mut b = PatternBuilder::new(4);
    b.strategy(SelectionStrategy::SkipTillNextMatch);
    let (n1, k, n0) = (b.event(t(1), "n1"), b.event(t(0), "k"), b.event(t(0), "n0"));
    let exprs = [b.not(n1), b.kleene(k), b.not(n0)];
    b.seq_exprs(exprs).unwrap()
}

#[test]
fn next_match_swaps_stay_valid_disjoint_and_deterministic() {
    let stream = lcg_stream(250, 3, 0xBEEF);
    for pattern in [
        seq_pattern(3, 12, SelectionStrategy::SkipTillNextMatch),
        bound_and_negated_pattern(),
    ] {
        let cp = CompiledPattern::compile_single(&pattern).unwrap();
        let run = || {
            let mut adaptive =
                AdaptiveEngine::new(FlipFlop::new(cp.clone(), false), cp.window, eager(50));
            let matches = run_to_completion(&mut adaptive, &stream, true).matches;
            (matches, adaptive.swaps())
        };
        // Every next-match emission is also an any-match one: in particular
        // no negation forbids it.
        let mut any_match = pattern.clone();
        any_match.strategy = SelectionStrategy::SkipTillAnyMatch;
        let any_cp = CompiledPattern::compile_single(&any_match).unwrap();
        let mut static_engine = FlipFlop::new(any_cp, false).build();
        let allowed: std::collections::HashSet<_> = run_engine(static_engine.as_mut(), &stream)
            .iter()
            .map(Match::signature)
            .collect();
        let (matches, swaps) = run();
        assert!(swaps >= 1);
        assert!(!matches.is_empty(), "fixture should produce matches");
        let mut used = std::collections::HashSet::new();
        for m in &matches {
            validate_match(&cp, m).unwrap();
            assert!(
                allowed.contains(&m.signature()),
                "{pattern}: {m} is forbidden"
            );
            for e in m.events() {
                assert!(used.insert(e.seq), "{pattern}: event reused across a swap");
            }
        }
        let (again, _) = run();
        assert_eq!(matches, again, "repeat runs must be identical");
    }
}

#[test]
fn retained_buffer_is_window_bounded() {
    let window = 20u64;
    let cp = CompiledPattern::compile_single(&negation_pattern(
        true,
        1,
        None,
        window,
        SelectionStrategy::SkipTillAnyMatch,
    ))
    .unwrap();
    let mut adaptive = AdaptiveEngine::new(FlipFlop::new(cp, false), window, eager(50));
    // One event per ms for 300 ms, types cycling 0..4: the buffer must
    // plateau at ~window+1 events instead of growing with the stream, and
    // the negated tail at the type-3 events of the window before it.
    let mut b = StreamBuilder::new();
    for ts in 0..300u64 {
        b.push(Event::new(t(ts as u32 % 4), ts, vec![]));
    }
    let stream = b.build();
    let mut out = Vec::new();
    for e in &stream {
        adaptive.process(e, &mut out);
        assert!(
            adaptive.retained_len() as u64 <= window + 1,
            "retained buffer exceeded the window bound"
        );
        assert!(
            adaptive.negated_tail_len() as u64 <= window / 4,
            "negated tail exceeded the two-window bound"
        );
    }
    assert_eq!(adaptive.negated_tail_len() as u64, window / 4);
    let m = adaptive.metrics();
    assert_eq!(m.retained_events, adaptive.retained_len());
    assert!(m.peak_retained_events as u64 <= window + 1);
    assert!(m.peak_retained_events > 0);
    assert_eq!(m.events_processed, stream.len() as u64);
    assert!(
        m.replayed_events > m.plan_swaps,
        "replays should re-process multiple events per swap"
    );
}

/// `SEQ(T0 a, NOT T3 n, T1 b, T2 c) WHERE a.x < b.x`: a pairwise predicate
/// for the selectivity sample and a negated element for the tail.
fn negated_join_pattern(window: u64) -> Pattern {
    let mut b = PatternBuilder::new(window);
    let (a, n, bb, c) = (
        b.event(t(0), "a"),
        b.event(t(3), "n"),
        b.event(t(1), "b"),
        b.event(t(2), "c"),
    );
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, bb.pos(), 0));
    let exprs = [b.expr(a), b.not(n), b.expr(bb), b.expr(c)];
    b.seq_exprs(exprs).unwrap()
}

#[test]
fn shared_window_equals_brute_force_suffixes() {
    use cep_core::stats::estimate_selectivities;
    let window = 20u64;
    // Types 0..3 are the pattern's, type 4 is not; mostly dense arrivals
    // with gaps longer than every span, so whole windows empty at once.
    let mut state = 0x5EED_u64;
    let mut draw = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let mut sb = StreamBuilder::new();
    let mut ts = 0u64;
    for _ in 0..700 {
        ts += if draw(60) == 0 { 70 } else { draw(3) };
        sb.push(Event::new(
            t(draw(5) as u32),
            ts,
            vec![Value::Int(draw(10) as i64)],
        ));
    }
    let stream = sb.build();
    let cp = CompiledPattern::compile_single(&negated_join_pattern(window)).unwrap();
    let suffix = |prefix: &[EventRef], from: u64| -> Vec<EventRef> {
        prefix.iter().filter(|e| e.ts >= from).cloned().collect()
    };
    let seqs = |events: &[EventRef]| events.iter().map(|e| e.seq).collect::<Vec<_>>();
    // The rate horizon below, at and above the window and above two
    // windows, with the selectivity horizon equal to it (as the facade
    // wires them) or, last, longer than both it and the window.
    for (horizon, sel_horizon) in [(8u64, 8u64), (20, 20), (30, 30), (50, 50), (8, 50)] {
        let mut rates = MeasuredStats::default();
        for ty in 0..5 {
            rates.set_rate(t(ty), 0.25);
        }
        let replanner = PlanReplanner::new(
            vec![(cp.clone(), vec![0.5])],
            &rates,
            Planner::default(),
            Backend::Nfa(OrderAlgorithm::DpLd),
            EngineConfig::default(),
        )
        .unwrap()
        .with_selectivity_monitoring(sel_horizon, 0.5, 64)
        .with_selectivity_min_events(8);
        let mut static_engine = replanner.build();
        let expected = run_engine(static_engine.as_mut(), &stream);
        let cfg = AdaptiveConfig {
            horizon_ms: horizon,
            drift_threshold: 0.5,
            check_every: 16,
            cooldown_events: 32,
            ..AdaptiveConfig::default()
        };
        let mut adaptive = AdaptiveEngine::new(replanner, window, cfg);
        let sampler =
            SelectivityMonitor::new(cp.clone(), vec![0.5], sel_horizon, 0.5, 64).with_min_events(0);
        let mut out = Vec::new();
        let mut longest_tail = 0;
        for (i, e) in stream.iter().enumerate() {
            adaptive.process(e, &mut out);
            let prefix = &stream[..=i];
            let wm = e.ts;
            // The one buffer spans max(window, horizon, selectivity horizon).
            let held: Vec<EventRef> = adaptive.event_window().iter().cloned().collect();
            let span = window.max(horizon).max(sel_horizon);
            assert_eq!(seqs(&held), seqs(&suffix(prefix, wm.saturating_sub(span))));
            // Rate counts cover the horizon.
            let in_horizon = suffix(prefix, wm.saturating_sub(horizon));
            let elapsed = horizon.min(wm.max(1)).max(1) as f64;
            for ty in 0..5 {
                let n = in_horizon.iter().filter(|e| e.type_id == t(ty)).count();
                assert_eq!(
                    adaptive.rate_monitor().rate(t(ty)).to_bits(),
                    (n as f64 / elapsed).to_bits(),
                    "horizon {horizon}, event {i}, type {ty}"
                );
            }
            // The replay: negated events of the window before, then the
            // window.
            let keep_from = wm.saturating_sub(window);
            let tail_from = keep_from.saturating_sub(window);
            let retained = suffix(prefix, keep_from);
            let mut replay: Vec<EventRef> = prefix
                .iter()
                .filter(|e| e.type_id == t(3) && e.ts >= tail_from && e.ts < keep_from)
                .cloned()
                .collect();
            assert_eq!(adaptive.negated_tail_len(), replay.len());
            longest_tail = longest_tail.max(replay.len());
            replay.extend(retained.iter().cloned());
            assert_eq!(adaptive.retained_len(), retained.len());
            assert_eq!(seqs(&adaptive.replay_events()), seqs(&replay));
            // The selectivity sample is its horizon's suffix.
            let got = sampler.estimates(adaptive.event_window()).unwrap();
            let sample = suffix(prefix, wm.saturating_sub(sel_horizon));
            let want = estimate_selectivities(&sample, &cp, 64);
            assert_eq!(got[0].to_bits(), want[0].to_bits());
        }
        adaptive.flush(&mut out);
        assert!(
            longest_tail > 0,
            "the stream must exercise the negated tail"
        );
        assert!(adaptive.swaps() >= 1, "horizon {horizon}: no swap replayed");
        assert_eq!(canonical(out), expected, "horizon {horizon}");
        let relevant = stream.iter().filter(|e| e.type_id != t(4)).count();
        assert_eq!(adaptive.metrics().selectivity_samples, relevant as u64);
    }
}

#[test]
fn swap_keeps_negated_events_older_than_the_retained_window() {
    // Window 100. C@60 forbids {A@100, B@150} under a leading or a
    // conjunctive NOT C, but the swap at D@170 (watermark 170, the first
    // eager check) retains only ts >= 70. Replaying without C, a fresh
    // engine emits the SEQ match during the replay and parks the AND
    // match until D@400.
    let (a, b, c, d) = (t(0), t(1), t(2), t(3));
    let mut sb = StreamBuilder::new();
    for (ty, ts) in [(c, 60), (a, 100), (b, 150), (d, 170), (d, 400)] {
        sb.push(Event::new(ty, ts, vec![]));
    }
    let stream = sb.build();
    for is_seq in [true, false] {
        let mut pb = PatternBuilder::new(100);
        let (ea, eb, ec) = (pb.event(a, "a"), pb.event(b, "b"), pb.event(c, "c"));
        let pattern = if is_seq {
            let exprs = [pb.not(ec), pb.expr(ea), pb.expr(eb)];
            pb.seq_exprs(exprs)
        } else {
            let exprs = [pb.expr(ea), pb.not(ec), pb.expr(eb)];
            pb.and_exprs(exprs)
        }
        .unwrap();
        let cp = CompiledPattern::compile_single(&pattern).unwrap();
        let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
        assert!(run_engine(&mut oracle, &stream).is_empty());
        for tree in [false, true] {
            let replanner = FlipFlop::new(cp.clone(), tree);
            let mut static_engine = replanner.build();
            assert!(run_engine(static_engine.as_mut(), &stream).is_empty());
            let mut adaptive = AdaptiveEngine::new(replanner, 100, eager(50));
            let got = run_engine(&mut adaptive, &stream);
            assert_eq!(adaptive.swaps(), 1);
            assert!(
                got.is_empty(),
                "{pattern} (tree={tree}): the swap emitted {got:?}"
            );
        }
    }
}

#[test]
fn calibration_replans_away_from_wrong_bootstrap_statistics() {
    // Bootstrap the plan from statistics claiming type 2 is frequent and
    // type 0 rare — the opposite of the stream. The first drift check has
    // no baseline, so the engine must calibrate: replan from measured
    // rates and swap to the correct order.
    let mut wrong = MeasuredStats::default();
    wrong.set_rate(t(0), 0.001);
    wrong.set_rate(t(1), 0.1);
    wrong.set_rate(t(2), 1.0);
    let cp =
        CompiledPattern::compile_single(&seq_pattern(3, 50, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let replanner = PlanReplanner::new(
        vec![(cp, vec![])],
        &wrong,
        Planner::default(),
        Backend::Nfa(OrderAlgorithm::DpLd),
        EngineConfig::default(),
    )
    .unwrap();
    let before = replanner.describe();
    let mut static_engine = replanner.build();
    // Phase 1 of the two-phase stream alone: stationary, but unlike the
    // bootstrap statistics.
    let stream: EventStream = two_phase_stream(2_000)
        .into_iter()
        .filter(|e| e.ts < 2_000)
        .collect();
    let expected = run_engine(static_engine.as_mut(), &stream);
    let mut adaptive = AdaptiveEngine::new(
        replanner,
        50,
        AdaptiveConfig {
            horizon_ms: 500,
            drift_threshold: 0.5,
            check_every: 64,
            cooldown_events: 64,
            ..AdaptiveConfig::default()
        },
    );
    let got = run_engine(&mut adaptive, &stream);
    assert_eq!(got, expected);
    assert!(adaptive.swaps() >= 1, "calibration must swap");
    assert_ne!(
        adaptive.replanner().describe(),
        before,
        "the calibrated plan must differ from the bootstrap plan"
    );
}

/// `SEQ(T0 a, T1 b, T2 c)` with `a.x < b.x` and `a.x < c.x`: the
/// correlation-drift fixture. Which of the two predicates is selective
/// decides whether the cheap evaluation order starts with `c` or `b`.
fn correlation_pattern(window: u64, strategy: SelectionStrategy) -> Pattern {
    let mut b = PatternBuilder::new(window);
    b.strategy(strategy);
    let a = b.event(t(0), "a");
    let bb = b.event(t(1), "b");
    let c = b.event(t(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, bb.pos(), 0));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
    b.seq([a, bb, c]).unwrap()
}

/// Two-phase stream whose arrival rates are **identical in both phases**
/// (type 0 every ms, types 1 and 2 every 4 ms) while the correlations
/// flip: `a.x` cycles 0..100; in phase 1 `b.x = 95` (so `a.x < b.x`
/// passes 95% of the time) and `c.x = 5` (5%); phase 2 swaps the two.
/// A rate monitor is blind to the change by construction.
fn correlation_flip_stream(phase_ms: u64) -> EventStream {
    let mut b = StreamBuilder::new();
    for phase in 0..2u64 {
        let (bx, cx) = if phase == 0 { (95, 5) } else { (5, 95) };
        let base = phase * phase_ms;
        for i in 0..phase_ms {
            let ts = base + i;
            b.push(Event::new(t(0), ts, vec![Value::Int((i % 100) as i64)]));
            if i % 4 == 1 {
                b.push(Event::new(t(1), ts, vec![Value::Int(bx)]));
            }
            if i % 4 == 3 {
                b.push(Event::new(t(2), ts, vec![Value::Int(cx)]));
            }
        }
    }
    b.build()
}

/// Exact phase-1 statistics of [`correlation_flip_stream`] (also exact for
/// phase 2: the rates never change).
fn correlation_stats() -> MeasuredStats {
    let mut m = MeasuredStats::default();
    m.set_rate(t(0), 1.0);
    m.set_rate(t(1), 0.25);
    m.set_rate(t(2), 0.25);
    m
}

/// Phase-1 selectivities of the two predicates of
/// [`correlation_pattern`] over [`correlation_flip_stream`].
const CORRELATION_PHASE1_SELS: [f64; 2] = [0.95, 0.05];

fn correlation_replanner(strategy: SelectionStrategy) -> PlanReplanner {
    let cp = CompiledPattern::compile_single(&correlation_pattern(100, strategy)).unwrap();
    PlanReplanner::new(
        vec![(cp, CORRELATION_PHASE1_SELS.to_vec())],
        &correlation_stats(),
        Planner::default(),
        Backend::Nfa(OrderAlgorithm::DpLd),
        EngineConfig::default(),
    )
    .unwrap()
}

fn correlation_config() -> AdaptiveConfig {
    AdaptiveConfig {
        horizon_ms: 400,
        drift_threshold: 0.5,
        check_every: 64,
        cooldown_events: 128,
        ..AdaptiveConfig::default()
    }
}

#[test]
fn selectivity_drift_swaps_only_with_monitoring_and_stays_exact() {
    let stream = correlation_flip_stream(1_000);
    for strategy in [
        SelectionStrategy::SkipTillAnyMatch,
        SelectionStrategy::StrictContiguity,
        SelectionStrategy::PartitionContiguity,
    ] {
        let replanner = correlation_replanner(strategy);
        let mut static_engine = replanner.build();
        let expected = run_engine(static_engine.as_mut(), &stream);

        // Rate-only adaptivity: the rates are flat, so the monitor never
        // reports drift and the stale plan is kept for the whole stream.
        let mut rate_only = AdaptiveEngine::new(replanner.clone(), 100, correlation_config());
        let got = run_engine(&mut rate_only, &stream);
        assert_eq!(got, expected, "{strategy}: rate-only output diverged");
        assert_eq!(
            rate_only.swaps(),
            0,
            "{strategy}: constant rates must not trigger a rate-driven swap"
        );

        // Full adaptivity: the selectivity monitor sees the pass-rate flip
        // and replans from fresh rates *and* selectivities.
        let full_replanner = replanner
            .with_selectivity_monitoring(400, 0.5, 256)
            .with_selectivity_min_events(32);
        let mut full = AdaptiveEngine::new(full_replanner, 100, correlation_config());
        let got = run_engine(&mut full, &stream);
        assert_eq!(got, expected, "{strategy}: full-adaptive output diverged");
        assert!(
            full.swaps() >= 1,
            "{strategy}: the correlation flip must trigger a swap (got {})",
            full.swaps()
        );
        let m = full.metrics();
        assert!(m.selectivity_samples > 0, "monitor must absorb samples");
        assert!(m.replayed_events > 0, "a swap must replay retained state");
        if strategy == SelectionStrategy::SkipTillAnyMatch {
            assert!(!expected.is_empty(), "fixture should produce matches");
        }
    }
}

#[test]
fn selectivity_swapped_run_agrees_with_naive_oracle() {
    // A smaller instance of the correlation flip (the oracle is
    // exponential in live subsets, so the full fixture is out of reach):
    // the swapping engine must still agree with the exhaustive baseline.
    let stream: EventStream = correlation_flip_stream(360)
        .into_iter()
        .filter(|e| e.ts % 2 == 0 || e.type_id != t(0))
        .collect();
    let cp = CompiledPattern::compile_single(&correlation_pattern(
        60,
        SelectionStrategy::SkipTillAnyMatch,
    ))
    .unwrap();
    let replanner = PlanReplanner::new(
        vec![(cp.clone(), CORRELATION_PHASE1_SELS.to_vec())],
        &correlation_stats(),
        Planner::default(),
        Backend::Nfa(OrderAlgorithm::DpLd),
        EngineConfig::default(),
    )
    .unwrap()
    .with_selectivity_monitoring(200, 0.5, 128)
    .with_selectivity_min_events(16);
    let mut adaptive = AdaptiveEngine::new(
        replanner,
        60,
        AdaptiveConfig {
            horizon_ms: 200,
            drift_threshold: 0.5,
            check_every: 16,
            cooldown_events: 32,
            ..AdaptiveConfig::default()
        },
    );
    let got = run_engine(&mut adaptive, &stream);
    let mut oracle = NaiveEngine::new(cp, EngineConfig::default());
    let oracle_matches = run_engine(&mut oracle, &stream);
    assert!(!oracle_matches.is_empty(), "fixture should produce matches");
    assert_eq!(
        got.iter().map(|m| m.signature()).collect::<Vec<_>>(),
        oracle_matches
            .iter()
            .map(|m| m.signature())
            .collect::<Vec<_>>()
    );
}

#[test]
fn early_replan_does_not_corrupt_the_selectivity_baseline() {
    use std::sync::Arc;
    // A replan that fires before the selectivity monitor is warmed up
    // (e.g. the engine's calibration pass) must preserve the supplied
    // baseline: the monitor has only seen types 0 and 1, so re-estimating
    // now would default the a<c predicate to 1.0 — overwriting the real
    // 0.05 and making the later, fully warmed estimates look like drift.
    let mut replanner = correlation_replanner(SelectionStrategy::SkipTillAnyMatch)
        .with_selectivity_monitoring(400, 0.5, 256)
        .with_selectivity_min_events(150);
    let mut window = EventWindow::new(400);
    let mut seq = 0u64;
    let mut feed = |r: &mut PlanReplanner, w: &mut EventWindow, ty: u32, ts: u64, v: i64| {
        let mut e = Event::new(t(ty), ts, vec![Value::Int(v)]);
        e.seq = seq;
        seq += 1;
        let e = Arc::new(e);
        r.observe_event(&e);
        w.push(&e);
    };
    for i in 0..40u64 {
        feed(&mut replanner, &mut window, 0, i, (i % 100) as i64);
        feed(&mut replanner, &mut window, 1, i, 95);
    }
    replanner.replan_amortized(&correlation_stats(), &SwapCost::IGNORE, &window);
    // Finish warming up under the *original* phase-1 correlations.
    for i in 40..200u64 {
        feed(&mut replanner, &mut window, 0, i, (i % 100) as i64);
        if i % 4 == 1 {
            feed(&mut replanner, &mut window, 1, i, 95);
        }
        if i % 4 == 3 {
            feed(&mut replanner, &mut window, 2, i, 5);
        }
    }
    assert!(
        !replanner.stats_drifted(&window),
        "stationary correlations reported as drift: the pre-warm-up \
         replan corrupted the baseline"
    );
}

#[test]
fn drift_check_estimates_are_reused_only_for_the_same_window() {
    use std::sync::Arc;
    // SEQ(T0 a, T1 b) WHERE a.x < b.x, planned for a pass rate of 1.0.
    let mut b = PatternBuilder::new(50);
    let (a, bb) = (b.event(t(0), "a"), b.event(t(1), "b"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, bb.pos(), 0));
    let cp = CompiledPattern::compile_single(&b.seq([a, bb]).unwrap()).unwrap();
    let mut rates = MeasuredStats::default();
    rates.set_rate(t(0), 0.5);
    rates.set_rate(t(1), 0.5);
    let mut replanner = PlanReplanner::new(
        vec![(cp, vec![1.0])],
        &rates,
        Planner::default(),
        Backend::Nfa(OrderAlgorithm::DpLd),
        EngineConfig::default(),
    )
    .unwrap()
    .with_selectivity_monitoring(100, 0.5, 64)
    .with_selectivity_min_events(8);
    let mut window = EventWindow::new(100);
    let mut seq = 0u64;
    // 40 events from `ts0` on whose predicate always (or never) passes.
    let mut feed = |r: &mut PlanReplanner, w: &mut EventWindow, ts0: u64, passes: bool| {
        for i in 0..20u64 {
            for (ty, x) in [(0, 1), (1, if passes { 2 } else { 0 })] {
                let mut e = Event::new(t(ty), ts0 + 2 * i + ty as u64, vec![Value::Int(x)]);
                e.seq = seq;
                seq += 1;
                let e = Arc::new(e);
                r.observe_event(&e);
                w.push(&e);
            }
        }
    };
    feed(&mut replanner, &mut window, 0, true);
    assert!(!replanner.stats_drifted(&window));
    // The pass rate collapses: the check fires and keeps its estimates.
    feed(&mut replanner, &mut window, 1_000, false);
    assert!(replanner.stats_drifted(&window));
    // The window moves on before the replan: the kept estimates are stale,
    // so the replan samples again and its baseline matches the window.
    feed(&mut replanner, &mut window, 2_000, true);
    replanner.replan_amortized(&rates, &SwapCost::IGNORE, &window);
    assert!(
        !replanner.stats_drifted(&window),
        "the replan adopted estimates of an older window"
    );
    // A replan over the window its firing check saw adopts that check's
    // estimates: afterwards the same window shows no drift.
    feed(&mut replanner, &mut window, 3_000, false);
    assert!(replanner.stats_drifted(&window));
    replanner.replan_amortized(&rates, &SwapCost::IGNORE, &window);
    assert!(!replanner.stats_drifted(&window));
}

#[test]
fn non_amortized_swap_is_suppressed_with_output_unchanged() {
    let stream = correlation_flip_stream(2_000);
    let replanner = correlation_replanner(SelectionStrategy::SkipTillAnyMatch);
    let mut static_engine = replanner.build();
    let expected = run_engine(static_engine.as_mut(), &stream);
    let before = replanner.describe();
    // An amortization horizon of zero windows means no replay can ever pay
    // for itself: the monitor keeps reporting drift, the replanner keeps
    // finding the better plan, and the gate keeps declining it.
    let cfg = AdaptiveConfig {
        amortize_windows: 0.0,
        ..correlation_config()
    };
    let full_replanner = replanner
        .with_selectivity_monitoring(400, 0.5, 256)
        .with_selectivity_min_events(32);
    let mut engine = AdaptiveEngine::new(full_replanner, 100, cfg);
    let got = run_engine(&mut engine, &stream);
    assert_eq!(got, expected, "suppressed swaps must not change the output");
    assert_eq!(engine.swaps(), 0, "every swap must have been suppressed");
    let m = engine.metrics();
    assert!(
        m.suppressed_swaps >= 1,
        "the gate must have declined at least one beneficial swap"
    );
    assert_eq!(m.replayed_events, 0, "no swap, no replay");
    assert_eq!(
        engine.replanner().describe(),
        before,
        "the incumbent plan must survive suppression"
    );
}

#[test]
fn swap_cost_amortization_arithmetic() {
    let gate = SwapCost {
        replay_fraction: 1.0,
        amortize_windows: 8.0,
    };
    // Savings of 5/window over 8 windows (40) beat a replay bill of ~5.
    assert!(gate.amortizes(10.0, 5.0));
    // A 1% improvement cannot pay a full-window replay within 8 windows.
    assert!(!gate.amortizes(10.0, 9.9));
    // Non-improvements never amortize, under any horizon.
    assert!(!gate.amortizes(5.0, 5.0));
    assert!(!SwapCost::IGNORE.amortizes(5.0, 5.0));
    // The IGNORE context adopts any strict improvement.
    assert!(SwapCost::IGNORE.amortizes(5.0, 4.999));
    // A zero horizon suppresses everything.
    let never = SwapCost {
        replay_fraction: 0.0,
        amortize_windows: 0.0,
    };
    assert!(!never.amortizes(10.0, 1.0));
}

#[test]
fn factory_builds_independent_adaptive_engines() {
    let cp =
        CompiledPattern::compile_single(&seq_pattern(2, 10, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let factory = AdaptiveFactory::new(FlipFlop::new(cp, false), 10, eager(50));
    let f: &dyn EngineFactory = &factory;
    let mut a = f.build();
    let b = f.build();
    let mut out = Vec::new();
    a.process(&std::sync::Arc::new(Event::new(t(0), 1, vec![])), &mut out);
    assert_eq!(a.metrics().events_processed, 1);
    assert_eq!(b.metrics().events_processed, 0, "engines are independent");
    assert_eq!(a.name(), "adaptive");
}

proptest! {
    /// The tentpole property: on random workloads, a swapping engine —
    /// forced to swap as aggressively as the protocol allows — emits
    /// exactly what the never-swapped engine emits, for all three exact
    /// selection strategies and both engine families, and exactly what the
    /// naive oracle emits under skip-till-any-match. Patterns are `SEQ` or
    /// `AND` with a leading, internal or trailing `NOT` and an optional
    /// Kleene element; windows are short, so negated events leave the
    /// retained window while they still forbid matches. The rate horizon
    /// and the selectivity monitor's horizon (none, or drawn) fall below,
    /// at and above the window, so the shared event window spans either.
    #[test]
    fn swapped_output_equals_static_on_random_workloads(
        raw in prop::collection::vec((0u32..4, 0u64..3), 1..80),
        strategy_idx in 0usize..3,
        tree in any::<bool>(),
        is_seq in any::<bool>(),
        neg_at in 0usize..4,
        kleene in 0usize..4,
        window in 2u64..9,
        horizon in 1u64..20,
        sel_horizon in 0u64..20,
    ) {
        let strategy = [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ][strategy_idx];
        let mut ts = 0u64;
        let mut b = StreamBuilder::new();
        for (tid, dt) in raw {
            ts += dt;
            b.push(Event::new(t(tid), ts, vec![]));
        }
        let stream = b.build();
        let kleene = (kleene < 3).then_some(kleene);
        let pattern = negation_pattern(is_seq, neg_at, kleene, window, strategy);
        let cp = CompiledPattern::compile_single(&pattern).unwrap();
        let mut replanner = FlipFlop::new(cp.clone(), tree);
        if sel_horizon > 0 {
            replanner = replanner.monitored(sel_horizon);
        }
        let mut static_engine = replanner.build();
        let expected = run_engine(static_engine.as_mut(), &stream);
        let mut adaptive = AdaptiveEngine::new(replanner, window, eager(horizon));
        let got = run_engine(&mut adaptive, &stream);
        prop_assert_eq!(&got, &expected);
        if strategy == SelectionStrategy::SkipTillAnyMatch {
            let mut oracle = NaiveEngine::new(cp, EngineConfig::default());
            let oracle_matches = run_engine(&mut oracle, &stream);
            prop_assert_eq!(
                got.iter().map(|m| m.signature()).collect::<Vec<_>>(),
                oracle_matches.iter().map(|m| m.signature()).collect::<Vec<_>>()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Observability: tracing must observe without perturbing.

proptest! {
    /// A traced adaptive run — ring sink attached, decisions and matches
    /// recorded — emits byte-identical matches to the untraced run, for
    /// all three exact strategies and both engine families.
    #[test]
    fn traced_adaptive_run_is_byte_identical_to_untraced(
        raw in prop::collection::vec((0u32..3, 0u64..3), 1..80),
        strategy_idx in 0usize..3,
        tree in any::<bool>(),
    ) {
        let strategy = [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ][strategy_idx];
        let mut ts = 0u64;
        let mut b = StreamBuilder::new();
        for (tid, dt) in raw {
            ts += dt;
            b.push(Event::new(t(tid), ts, vec![]));
        }
        let stream = b.build();
        let cp = CompiledPattern::compile_single(&seq_pattern(3, 10, strategy)).unwrap();
        let replanner = FlipFlop::new(cp, tree);
        let mut plain = AdaptiveEngine::new(replanner.clone(), 10, eager(30));
        let expected = run_engine(&mut plain, &stream);
        let ring = std::sync::Arc::new(cep_obs::RingSink::new(1 << 16));
        let tracer = cep_obs::Tracer::to_sink(ring.clone());
        let mut traced =
            AdaptiveEngine::new(replanner, 10, eager(30)).with_tracer(tracer.clone());
        let got = canonical(
            cep_core::engine::run_traced(&mut traced, &stream, true, &tracer).matches,
        );
        prop_assert_eq!(&got, &expected);
        // Every emitted match produced one MatchEmitted record.
        let records = ring.snapshot();
        let emitted = records
            .iter()
            .filter(|r| matches!(r, cep_obs::TraceRecord::MatchEmitted { .. }))
            .count();
        prop_assert_eq!(emitted, got.len());
        // And every record survives a JSONL round trip byte-for-byte.
        for r in &records {
            let line = r.to_json();
            prop_assert_eq!(&cep_obs::TraceRecord::from_json(&line).unwrap(), r);
            prop_assert_eq!(
                cep_obs::TraceRecord::from_json(&line).unwrap().to_json(),
                line
            );
        }
    }
}

#[test]
fn replan_decisions_are_traced_with_cost_arithmetic() {
    let stream = two_phase_stream(4_000);
    let cp =
        CompiledPattern::compile_single(&seq_pattern(3, 50, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let replanner = PlanReplanner::new(
        vec![(cp, vec![])],
        &phase1_stats(),
        Planner::default(),
        Backend::Nfa(OrderAlgorithm::DpLd),
        EngineConfig::default(),
    )
    .unwrap();
    let ring = std::sync::Arc::new(cep_obs::RingSink::new(1 << 14));
    let tracer = cep_obs::Tracer::to_sink(ring.clone());
    let mut adaptive = AdaptiveEngine::new(
        replanner,
        50,
        AdaptiveConfig {
            horizon_ms: 500,
            drift_threshold: 0.5,
            check_every: 64,
            cooldown_events: 0,
            ..AdaptiveConfig::default()
        },
    )
    .with_tracer(tracer.clone());
    let result = cep_core::engine::run_traced(&mut adaptive, &stream, false, &tracer);
    assert!(result.metrics.plan_swaps >= 1, "drift must trigger a swap");
    let records = ring.snapshot();
    let mut swap_decisions = 0u64;
    let mut replays = 0u64;
    for r in &records {
        match r {
            cep_obs::TraceRecord::PlanSwapDecision {
                verdict,
                current_cost,
                candidate_cost,
                amortize_windows,
                ..
            } => {
                assert!(["swap", "keep", "suppressed"].contains(&verdict.as_str()));
                if verdict == "swap" {
                    swap_decisions += 1;
                    // The real replanner always reports the arithmetic it
                    // decided on: a swap needs a strictly better candidate.
                    assert!(*current_cost > *candidate_cost, "{r:?}");
                    assert!(*candidate_cost >= 0.0, "{r:?}");
                }
                assert_eq!(*amortize_windows, crate::DEFAULT_AMORTIZE_WINDOWS);
            }
            cep_obs::TraceRecord::ReplayWindow { replay_ns, .. } => {
                replays += 1;
                assert!(*replay_ns > 0);
            }
            _ => {}
        }
    }
    assert_eq!(swap_decisions, result.metrics.plan_swaps);
    assert_eq!(replays, result.metrics.plan_swaps, "one replay per swap");
    // The replay histogram saw exactly one sample per swap, summing to the
    // replay-time counter.
    assert_eq!(result.metrics.replay_ns.count(), result.metrics.plan_swaps);
    assert_eq!(
        result.metrics.replay_ns.sum(),
        result.metrics.replay_time_ns
    );
}

#[test]
fn default_replanner_reports_no_costs_and_flipflop_uses_sentinel() {
    let cp =
        CompiledPattern::compile_single(&seq_pattern(2, 10, SelectionStrategy::SkipTillAnyMatch))
            .unwrap();
    let flip = FlipFlop::new(cp, false);
    assert_eq!(flip.last_costs(), None, "default impl tracks nothing");
    // A traced engine over such a replanner emits the −1 sentinel.
    let ring = std::sync::Arc::new(cep_obs::RingSink::new(64));
    let tracer = cep_obs::Tracer::to_sink(ring.clone());
    let mut adaptive = AdaptiveEngine::new(flip, 10, eager(50)).with_tracer(tracer);
    let stream = lcg_stream(300, 2, 0xBEEF);
    let mut out = Vec::new();
    for e in &stream {
        adaptive.process(e, &mut out);
    }
    let decision = ring
        .snapshot()
        .into_iter()
        .find(|r| matches!(r, cep_obs::TraceRecord::PlanSwapDecision { .. }))
        .expect("eager config must produce a decision");
    if let cep_obs::TraceRecord::PlanSwapDecision {
        current_cost,
        candidate_cost,
        ..
    } = decision
    {
        assert_eq!(current_cost, -1.0);
        assert_eq!(candidate_cost, -1.0);
    }
}

/// Keyed `SEQ(a, b, c)` with `a.k == b.k AND b.k == c.k`: every join step
/// of the NFA and tree engines probes key buckets.
fn keyed_seq_pattern(window: u64) -> Pattern {
    let mut b = PatternBuilder::new(window);
    let (a, bb, c) = (b.event(t(0), "a"), b.event(t(1), "b"), b.event(t(2), "c"));
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
    b.predicate(Predicate::attr_cmp(bb.pos(), 0, CmpOp::Eq, c.pos(), 0));
    b.seq([a, bb, c]).unwrap()
}

/// Deterministic stream of types 0–2 with one key attribute in 0–3.
fn keyed_stream(len: u64, seed: u64) -> EventStream {
    let mut state = seed;
    let mut ts = 0u64;
    let mut b = StreamBuilder::new();
    for _ in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ts += (state >> 50) % 3;
        let key = Value::Int(((state >> 40) % 4) as i64);
        b.push(Event::new(t(((state >> 33) % 3) as u32), ts, vec![key]));
    }
    b.build()
}

/// The deterministic engine-layer fields a wrapper reports from the
/// engines it wraps, plus the two it counts itself.
fn engine_layer(m: &EngineMetrics) -> Vec<(&'static str, u64)> {
    vec![
        ("events_processed", m.events_processed),
        ("matches_emitted", m.matches_emitted),
        ("events_relevant", m.events_relevant),
        ("partial_matches_created", m.partial_matches_created),
        ("predicate_evaluations", m.predicate_evaluations),
        ("index_probes", m.index_probes),
        ("delta_updates", m.delta_updates),
        ("live_partial_matches", m.live_partial_matches as u64),
        ("buffered_events", m.buffered_events as u64),
        ("peak_partial_matches", m.peak_partial_matches as u64),
        ("peak_buffered_events", m.peak_buffered_events as u64),
        ("peak_memory_bytes", m.peak_memory_bytes as u64),
    ]
}

#[test]
fn wrappers_pass_engine_counters_through() {
    let window = 20;
    let pattern = keyed_seq_pattern(window);
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let stream = keyed_stream(400, 7);
    let order = OrderPlan::new(vec![1, 2, 0]).unwrap();
    for tree in [false, true] {
        let mut bare = order_engine(&cp, &order, tree);
        run_to_completion(bare.as_mut(), &stream, false);
        let expected = engine_layer(bare.metrics());
        assert!(bare.metrics().index_probes > 0, "the joins must probe");
        assert!(bare.metrics().matches_emitted > 0, "the fixture must match");

        // An adaptive wrapper that never checks, so never swaps.
        let mut never = FlipFlop::new(cp.clone(), tree);
        never.orders = [order.clone(), order.clone()];
        let quiet = AdaptiveConfig {
            check_every: u64::MAX,
            ..AdaptiveConfig::default()
        };
        let mut adaptive = AdaptiveEngine::new(never, window, quiet);
        run_to_completion(&mut adaptive, &stream, false);
        assert_eq!(adaptive.swaps(), 0);
        assert_eq!(
            engine_layer(adaptive.metrics()),
            expected,
            "adaptive, tree {tree}"
        );

        let mut multi = MultiEngine::new(vec![order_engine(&cp, &order, tree)], window);
        run_to_completion(&mut multi, &stream, false);
        assert_eq!(
            engine_layer(multi.metrics()),
            expected,
            "multi, tree {tree}"
        );

        let plan = order.clone();
        let mut registry = QueryRegistry::new(Arc::new(
            move |cp: &CompiledPattern, program| -> Result<Box<dyn Engine>, CepError> {
                Ok(if tree {
                    let plan = TreePlan::left_deep(&plan);
                    Box::new(TreeEngine::with_program(
                        cp.clone(),
                        plan,
                        EngineConfig::default(),
                        program,
                    )?)
                } else {
                    Box::new(NfaEngine::with_program(
                        cp.clone(),
                        plan.clone(),
                        EngineConfig::default(),
                        program,
                    )?)
                })
            },
        ));
        let id = registry.register(&pattern).unwrap();
        let run = registry.run(&stream);
        assert_eq!(
            engine_layer(&run.metrics),
            expected,
            "registry, tree {tree}"
        );
        let query = registry.query_metrics(id).unwrap();
        assert_eq!(engine_layer(&query), expected, "query view, tree {tree}");
    }
}

#[test]
fn swapped_engines_fold_into_the_adaptive_view() {
    let window = 20;
    let cp = CompiledPattern::compile_single(&keyed_seq_pattern(window)).unwrap();
    let stream = keyed_stream(400, 7);
    for tree in [false, true] {
        let built = Arc::new(Mutex::new(Vec::new()));
        let mut flip = FlipFlop::new(cp.clone(), tree);
        flip.orders = [
            OrderPlan::new(vec![1, 2, 0]).unwrap(),
            OrderPlan::new(vec![0, 1, 2]).unwrap(),
        ];
        flip.published = Some(built.clone());
        let config = AdaptiveConfig {
            check_every: 50,
            ..eager(100)
        };
        let mut adaptive = AdaptiveEngine::new(flip, window, config);
        run_to_completion(&mut adaptive, &stream, false);
        let engines = built.lock().unwrap();
        assert!(adaptive.swaps() >= 2, "tree {tree}");
        assert_eq!(engines.len() as u64, adaptive.swaps() + 1);
        // Retired engines and the active one ran one after another:
        // counters add, peaks take the maximum.
        let m = adaptive.metrics();
        let sum = |f: fn(&EngineMetrics) -> u64| engines.iter().map(f).sum::<u64>();
        let max = |f: fn(&EngineMetrics) -> usize| engines.iter().map(f).max().unwrap();
        assert!(sum(|e| e.index_probes) > 0);
        assert_eq!(m.index_probes, sum(|e| e.index_probes), "tree {tree}");
        assert_eq!(m.predicate_evaluations, sum(|e| e.predicate_evaluations));
        assert_eq!(
            m.partial_matches_created,
            sum(|e| e.partial_matches_created)
        );
        assert_eq!(m.events_relevant, sum(|e| e.events_relevant));
        assert_eq!(m.peak_partial_matches, max(|e| e.peak_partial_matches));
        assert_eq!(m.peak_buffered_events, max(|e| e.peak_buffered_events));
        assert_eq!(m.peak_memory_bytes, max(|e| e.peak_memory_bytes));
        // Only the active engine still holds live state.
        let active = engines.last().unwrap();
        assert_eq!(m.live_partial_matches, active.live_partial_matches);
        assert_eq!(m.buffered_events, active.buffered_events);
    }
}
