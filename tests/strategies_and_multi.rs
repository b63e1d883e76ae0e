//! Deeper coverage of the selection strategies, multi-engine disjunction
//! handling, and engine lifecycle edge cases.

use cep::conformance::{check, standard_backends, standard_engines, Composition, SeededBackend};
use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, Engine, EngineConfig, MultiEngine};
use cep::core::event::{Event, TypeId};
use cep::core::naive::NaiveEngine;
use cep::core::pattern::{Pattern, PatternBuilder};
use cep::core::plan::{TreeNode, TreePlan};
use cep::core::predicate::{CmpOp, Predicate};
use cep::core::selection::SelectionStrategy;
use cep::core::stream::{EventStream, StreamBuilder};
use cep::core::value::Value;
use cep::tree::TreeEngine;

fn t(i: u32) -> TypeId {
    TypeId(i)
}

fn ev(tid: u32, ts: u64, x: i64) -> Event {
    Event::new(t(tid), ts, vec![Value::Int(x)])
}

fn stream(events: Vec<Event>) -> Vec<cep::core::event::EventRef> {
    let mut b = StreamBuilder::new();
    for e in events {
        b.push(e);
    }
    b.build()
}

/// [`check`] of the bare engine of every standard backend (plans from seed
/// 0) under the pattern's own strategy; the oracle's match count.
fn bare(pattern: &Pattern, s: &EventStream) -> u64 {
    let (cfg, strategy) = (EngineConfig::default(), pattern.strategy);
    let run = |b: &SeededBackend| check(&Composition::Bare, b, 0, &cfg, strategy, pattern, s);
    standard_backends()
        .iter()
        .map(|b| run(b).matches)
        .max()
        .unwrap_or(0)
}

#[test]
fn empty_stream_produces_no_matches() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    assert_eq!(bare(&b.seq([a, c]).unwrap(), &vec![]), 0);
}

#[test]
fn single_element_pattern_matches_every_event() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let s = stream(vec![ev(0, 1, 0), ev(1, 2, 0), ev(0, 3, 0)]);
    assert_eq!(bare(&b.seq([a]).unwrap(), &s), 2);
}

#[test]
fn flush_without_events_is_harmless() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let cp = CompiledPattern::compile_single(&b.seq([a]).unwrap()).unwrap();
    for mut engine in standard_engines(&cp, &EngineConfig::default()) {
        let mut out = Vec::new();
        engine.flush(&mut out);
        engine.flush(&mut out);
        assert!(out.is_empty(), "{}", engine.name());
    }
}

#[test]
fn next_match_greedy_takes_earliest_pairs_in_order_plans() {
    // Stream: a1 a2 c1 c2. Trivial plan consumes (a1, c1) then (a2, c2).
    let mut b = PatternBuilder::new(20);
    b.strategy(SelectionStrategy::SkipTillNextMatch);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
    let s = stream(vec![ev(0, 1, 0), ev(0, 2, 0), ev(1, 3, 0), ev(1, 4, 0)]);
    let mut engine = TreeEngine::with_trivial_plan(cp, EngineConfig::default());
    let r = run_to_completion(&mut engine, &s, true);
    assert_eq!(r.match_count, 2);
    let sigs: Vec<_> = r.matches.iter().map(|m| m.signature()).collect();
    assert!(sigs.contains(&vec![(0, vec![0]), (1, vec![2])]));
    assert!(sigs.contains(&vec![(0, vec![1]), (1, vec![3])]));
}

#[test]
fn next_match_under_negation_consumes_only_emitted() {
    // SEQ(A, NOT(B), C) under next-match: a blocked match must not consume
    // its events.
    let mut b = PatternBuilder::new(20);
    b.strategy(SelectionStrategy::SkipTillNextMatch);
    let a = b.event(t(0), "a");
    let nb = b.event(t(1), "n");
    let c = b.event(t(2), "c");
    let ae = b.expr(a);
    let ne = b.not(nb);
    let ce = b.expr(c);
    let p = b.seq_exprs([ae, ne, ce]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    // a@1, b@2 (kills a@1..c@3), c@3; then c@4 also blocked (b still
    // between a and it); fresh a@5, c@6 succeeds.
    let s = stream(vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(2, 3, 0),
        ev(2, 4, 0),
        ev(0, 5, 0),
        ev(2, 6, 0),
    ]);
    let mut engine = TreeEngine::with_trivial_plan(cp, EngineConfig::default());
    let r = run_to_completion(&mut engine, &s, true);
    assert_eq!(r.match_count, 1);
    assert_eq!(r.matches[0].signature(), vec![(0, vec![4]), (2, vec![5])]);
}

#[test]
fn next_match_stays_disjoint_after_consuming_a_hundred_thousand_events() {
    // AND(A, B) and AND(A, NOT(C), B) under next-match over alternating
    // A/B events, one per tick, no C. A consumed event stays in the window
    // for a few ticks: buffered, where a later A catches up on it, and, in
    // the negated pattern, in overlapping matches parked until the window
    // closes. The engines consume one event pair per tick and must keep
    // every consumed event for as long as it can bind, however many there
    // are.
    let s = stream((0..120_000).map(|i| ev((i % 2) as u32, i, 0)).collect());
    // Pruning after every event prunes right after every emission.
    let cfg = EngineConfig {
        prune_every: 1,
        ..EngineConfig::default()
    };
    for negated in [false, true] {
        let mut b = PatternBuilder::new(4);
        b.strategy(SelectionStrategy::SkipTillNextMatch);
        let a = b.event(t(0), "a");
        let nc = b.event(t(2), "c");
        let bb = b.event(t(1), "b");
        let mut exprs = vec![b.expr(a), b.expr(bb)];
        if negated {
            exprs.insert(1, b.not(nc));
        }
        let cp = CompiledPattern::compile_single(&b.and_exprs(exprs).unwrap()).unwrap();
        for mut engine in standard_engines(&cp, &cfg) {
            let r = run_to_completion(engine.as_mut(), &s, true);
            let name = engine.name();
            let mut used = std::collections::HashSet::new();
            for m in &r.matches {
                for e in m.events() {
                    assert!(
                        used.insert(e.seq),
                        "{name} (negated {negated}): {e:?} reused"
                    );
                }
            }
            assert!(used.len() > 100_000, "{name}: {} consumed", used.len());
        }
    }
}

#[test]
fn multi_engine_prunes_dedup_memory() {
    // Two identical branches; the dedup table must not grow with the
    // stream (signatures older than the window are evicted).
    let mut b1 = PatternBuilder::new(5);
    let a1 = b1.event(t(0), "a");
    let cp1 = CompiledPattern::compile_single(&b1.seq([a1]).unwrap()).unwrap();
    let mut b2 = PatternBuilder::new(5);
    let a2 = b2.event(t(0), "a");
    let cp2 = CompiledPattern::compile_single(&b2.seq([a2]).unwrap()).unwrap();
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(TreeEngine::with_trivial_plan(cp1, EngineConfig::default())),
        Box::new(TreeEngine::with_trivial_plan(cp2, EngineConfig::default())),
    ];
    let mut me = MultiEngine::new(engines, 5);
    let mut events = Vec::new();
    for i in 0..3000u64 {
        events.push(ev(0, i * 2, 0));
    }
    let s = stream(events);
    let r = run_to_completion(&mut me, &s, true);
    // Identical branches: each event matches once (deduped).
    assert_eq!(r.match_count, 3000);
}

#[test]
fn tree_engine_negation_matches_oracle_under_all_tree_shapes() {
    // AND with NOT: windowed negation semantics across tree shapes.
    let mut b = PatternBuilder::new(6);
    let a = b.event(t(0), "a");
    let nb = b.event(t(1), "n");
    let c = b.event(t(2), "c");
    let d = b.event(t(3), "d");
    let ae = b.expr(a);
    let ne = b.not(nb);
    let ce = b.expr(c);
    let de = b.expr(d);
    let p = b.and_exprs([ae, ne, ce, de]).unwrap();
    let s = stream(vec![
        ev(2, 1, 0),
        ev(0, 2, 0),
        ev(3, 3, 0),
        ev(1, 9, 0), // within window of nothing that matters? ts 9 vs span 1..3 + W 6
        ev(0, 12, 0),
        ev(2, 13, 0),
        ev(3, 14, 0),
    ]);
    // The tree engine under the seed-th shape.
    let shapes = SeededBackend::new("tree", |cp, seed, cfg| {
        let (leaf, join) = (TreeNode::Leaf, TreeNode::join);
        let tree = match seed {
            0 => join(join(leaf(0), leaf(1)), leaf(2)),
            _ => join(leaf(2), join(leaf(1), leaf(0))),
        };
        Box::new(TreeEngine::new(cp.clone(), TreePlan::new(tree).unwrap(), cfg.clone()).unwrap())
    });
    let (cfg, any) = (EngineConfig::default(), SelectionStrategy::SkipTillAnyMatch);
    for seed in 0..2 {
        check(&Composition::Bare, &shapes, seed, &cfg, any, &p, &s);
    }
}

#[test]
fn metrics_are_populated_consistently() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Le, c.pos(), 0));
    let pattern = b.seq([a, c]).unwrap();
    let s = stream(vec![ev(0, 1, 0), ev(1, 2, 0), ev(0, 3, 0), ev(1, 4, 1)]);
    // `check` holds each backend's processed, relevant and emitted counts
    // to the oracle's.
    assert_eq!(bare(&pattern, &s), 3);
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    for mut engine in standard_engines(&cp, &EngineConfig::default()) {
        let r = run_to_completion(engine.as_mut(), &s, true);
        assert!(r.metrics.wall_time_ns > 0, "{}", engine.name());
    }
}

#[test]
fn kleene_under_contiguity_validates_exactly() {
    // KL inside a strict-contiguity sequence: the whole match (set members
    // included) must be stream-adjacent.
    let mut b = PatternBuilder::new(20);
    b.strategy(SelectionStrategy::StrictContiguity);
    let a = b.event(t(0), "a");
    let k = b.event(t(1), "k");
    let c = b.event(t(2), "c");
    let ae = b.expr(a);
    let ke = b.kleene(k);
    let ce = b.expr(c);
    let p = b.seq_exprs([ae, ke, ce]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    // a k k c -> matches must use both k's (a k1 k2 c) for adjacency; the
    // subset {k1} would leave a gap.
    let s = stream(vec![ev(0, 1, 0), ev(1, 2, 0), ev(1, 3, 0), ev(2, 4, 0)]);
    let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
    let expected: Vec<_> = run_to_completion(&mut oracle, &s, true)
        .matches
        .iter()
        .map(|m| m.signature())
        .collect();
    assert_eq!(expected.len(), 1);
    assert_eq!(
        expected[0],
        vec![(0, vec![0]), (1, vec![1, 2]), (2, vec![3])]
    );
    bare(&p, &s);
}
