//! Oracle-equivalence and plan-quality tests for the tree engine.

use crate::TreeEngine;
use cep_core::compile::CompiledPattern;
use cep_core::engine::{run_to_completion, EngineConfig};
use cep_core::event::{Event, TypeId};
use cep_core::matches::{validate_match, Match};
use cep_core::naive::NaiveEngine;
use cep_core::pattern::{Pattern, PatternBuilder};
use cep_core::plan::{OrderPlan, TreeNode, TreePlan};
use cep_core::predicate::{CmpOp, Predicate};
use cep_core::selection::SelectionStrategy;
use cep_core::stream::StreamBuilder;
use cep_core::value::Value;

fn t(i: u32) -> TypeId {
    TypeId(i)
}

fn ev(tid: u32, ts: u64, x: i64) -> Event {
    Event::new(t(tid), ts, vec![Value::Int(x)])
}

fn stream(events: Vec<Event>) -> Vec<cep_core::event::EventRef> {
    let mut b = StreamBuilder::new();
    for e in events {
        b.push(e);
    }
    b.build()
}

fn signatures(ms: &[Match]) -> Vec<Vec<(usize, Vec<u64>)>> {
    let mut sigs: Vec<_> = ms.iter().map(|m| m.signature()).collect();
    sigs.sort();
    sigs
}

/// Every binary tree shape over every leaf permutation of `n` elements.
fn all_trees(n: usize) -> Vec<TreeNode> {
    fn shapes(leaves: &[usize]) -> Vec<TreeNode> {
        if leaves.len() == 1 {
            return vec![TreeNode::Leaf(leaves[0])];
        }
        let mut out = Vec::new();
        for split in 1..leaves.len() {
            for l in shapes(&leaves[..split]) {
                for r in shapes(&leaves[split..]) {
                    out.push(TreeNode::join(l.clone(), r));
                }
            }
        }
        out
    }
    fn perms(n: usize) -> Vec<Vec<usize>> {
        fn rec(rest: Vec<usize>, acc: Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if rest.is_empty() {
                out.push(acc);
                return;
            }
            for (i, &x) in rest.iter().enumerate() {
                let mut rest2 = rest.clone();
                rest2.remove(i);
                let mut acc2 = acc.clone();
                acc2.push(x);
                rec(rest2, acc2, out);
            }
        }
        let mut out = Vec::new();
        rec((0..n).collect(), Vec::new(), &mut out);
        out
    }
    let mut out = Vec::new();
    for p in perms(n) {
        out.extend(shapes(&p));
    }
    out
}

/// Runs the tree engine under every tree plan and asserts identical
/// results to the naive oracle.
fn assert_all_trees_match_oracle(pattern: &Pattern, events: Vec<Event>) {
    let cp = CompiledPattern::compile_single(pattern).unwrap();
    let s = stream(events);
    let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
    let expected = signatures(&run_to_completion(&mut oracle, &s, true).matches);
    for tree in all_trees(cp.n()) {
        let plan = TreePlan::new(tree.clone()).unwrap();
        let mut engine = TreeEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &s, true);
        for m in &r.matches {
            validate_match(&cp, m).unwrap();
        }
        assert_eq!(
            signatures(&r.matches),
            expected,
            "tree {tree} disagrees with oracle"
        );
    }
}

#[test]
fn sequence_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let d = b.event(t(2), "d");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, d.pos(), 0));
    let p = b.seq([a, c, d]).unwrap();
    let events = vec![
        ev(0, 1, 3),
        ev(1, 2, 0),
        ev(0, 3, 7),
        ev(2, 4, 5),
        ev(1, 5, 0),
        ev(2, 6, 9),
        ev(0, 7, 1),
        ev(2, 8, 2),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn conjunction_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(6);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let d = b.event(t(2), "d");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Le, c.pos(), 0));
    let p = b.and([a, c, d]).unwrap();
    let events = vec![
        ev(2, 1, 0),
        ev(1, 2, 4),
        ev(0, 3, 4),
        ev(1, 4, 1),
        ev(0, 5, 9),
        ev(2, 6, 0),
        ev(0, 7, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn duplicate_types_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let a1 = b.event(t(0), "a1");
    let a2 = b.event(t(0), "a2");
    let p = b.seq([a1, a2]).unwrap();
    assert_all_trees_match_oracle(&p, vec![ev(0, 1, 0), ev(0, 2, 0), ev(0, 3, 0)]);
}

#[test]
fn negation_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let nb = b.event(t(1), "nb");
    let c = b.event(t(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, nb.pos(), 0));
    let ae = b.expr(a);
    let ne = b.not(nb);
    let ce = b.expr(c);
    let p = b.seq_exprs([ae, ne, ce]).unwrap();
    let events = vec![
        ev(0, 1, 1),
        ev(1, 2, 1),
        ev(0, 3, 2),
        ev(2, 4, 0),
        ev(1, 5, 2),
        ev(2, 6, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn trailing_negation_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(5);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let nb = b.event(t(2), "nb");
    let ae = b.expr(a);
    let ce = b.expr(c);
    let ne = b.not(nb);
    let p = b.seq_exprs([ae, ce, ne]).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(2, 3, 0),
        ev(0, 10, 0),
        ev(1, 11, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn kleene_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let k = b.event(t(1), "k");
    let c = b.event(t(2), "c");
    let ae = b.expr(a);
    let ke = b.kleene(k);
    let ce = b.expr(c);
    let p = b.seq_exprs([ae, ke, ce]).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(1, 3, 0),
        ev(2, 4, 0),
        ev(1, 5, 0),
        ev(2, 6, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn strict_contiguity_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    b.strategy(SelectionStrategy::StrictContiguity);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let p = b.seq([a, c]).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(0, 3, 0),
        ev(2, 4, 0),
        ev(1, 5, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn next_match_matches_are_disjoint() {
    let mut b = PatternBuilder::new(10);
    b.strategy(SelectionStrategy::SkipTillNextMatch);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let p = b.seq([a, c]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let s = stream(vec![ev(0, 1, 0), ev(0, 2, 0), ev(1, 3, 0), ev(1, 4, 0)]);
    let mut engine = TreeEngine::with_trivial_plan(cp.clone(), EngineConfig::default());
    let r = run_to_completion(&mut engine, &s, true);
    let mut used = std::collections::HashSet::new();
    for m in &r.matches {
        for e in m.events() {
            assert!(used.insert(e.seq), "event reused under next-match");
        }
        validate_match(&cp, m).unwrap();
    }
    assert!(!r.matches.is_empty());
}

#[test]
fn window_pruning_bounds_state() {
    let mut b = PatternBuilder::new(5);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let p = b.seq([a, c]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let mut events = Vec::new();
    for i in 0..2000u64 {
        events.push(ev(0, i * 3, 0));
    }
    let s = stream(events);
    let mut engine = TreeEngine::with_trivial_plan(cp, EngineConfig::default());
    let r = run_to_completion(&mut engine, &s, true);
    // The a events wait at their leaf as events, and the leaf is pruned
    // every `prune_every` (64) events.
    assert_eq!(r.metrics.peak_partial_matches, 0);
    assert!(
        r.metrics.peak_buffered_events < 70,
        "{}",
        r.metrics.peak_buffered_events
    );
    assert!(r.matches.is_empty());
}

#[test]
fn plain_leaves_hold_events_and_build_instances_only_on_a_join() {
    // SEQ(a, c, d) over ((a c) d): the a, c and d leaves hold events. Only
    // the (a, c) pairs that join become instances; the full matches climb
    // from there.
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let d = b.event(t(2), "d");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
    let cp = CompiledPattern::compile_single(&b.seq([a, c, d]).unwrap()).unwrap();
    // a@1 (x 5), a@2 (x 0), c@3 (x 3): only (a@2, c@3) joins; d@4 completes it.
    let s = stream(vec![ev(0, 1, 5), ev(0, 2, 0), ev(1, 3, 3), ev(2, 4, 0)]);
    let mut engine = TreeEngine::with_trivial_plan(cp, EngineConfig::default());
    let r = run_to_completion(&mut engine, &s, true);
    assert_eq!(r.matches.len(), 1);
    let m = &r.metrics;
    assert_eq!(
        m.partial_matches_created, 2,
        "(a c) at the inner node, then the root"
    );
    assert_eq!(
        m.peak_partial_matches, 1,
        "only the (a c) instance is stored"
    );
    assert_eq!(
        m.peak_buffered_events, 4,
        "every admitted event waits at its leaf"
    );
}

#[test]
fn consumed_events_at_a_leaf_never_join_again() {
    // SEQ(a, c, d) over ((a c) d) under skip-till-next-match: the first
    // match consumes a@1, c@2 and d@3. The a leaf still holds a@1 until it
    // expires, so c@4 finds it there and must skip it rather than build an
    // (a c) instance that can never complete.
    let mut b = PatternBuilder::new(10);
    b.strategy(SelectionStrategy::SkipTillNextMatch);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let d = b.event(t(2), "d");
    let cp = CompiledPattern::compile_single(&b.seq([a, c, d]).unwrap()).unwrap();
    let s = stream(vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(2, 3, 0),
        ev(1, 4, 0),
        ev(2, 5, 0),
    ]);
    let mut engine = TreeEngine::with_trivial_plan(cp, EngineConfig::default());
    let r = run_to_completion(&mut engine, &s, true);
    assert_eq!(r.matches.len(), 1, "a@1 binds once");
    assert_eq!(
        r.metrics.partial_matches_created, 2,
        "(a@1 c@2) and the match; no (a@1 c@4)"
    );
    assert_eq!(r.metrics.peak_buffered_events, 5);
}

#[test]
fn bushy_tree_beats_left_deep_on_selective_outer_pair() {
    // Figure 3's scenario: SEQ(A,B,C) with a highly selective predicate
    // between A and C. The ((A C) B) tree stores far fewer partial
    // matches than left-deep ((A B) C).
    let mut b = PatternBuilder::new(1000);
    let a = b.event(t(0), "a");
    let bb = b.event(t(1), "b");
    let c = b.event(t(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let p = b.seq([a, bb, c]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let mut events = Vec::new();
    let mut ts = 0u64;
    for i in 0..100i64 {
        events.push(ev(0, ts, i));
        ts += 1;
        events.push(ev(1, ts, i));
        ts += 1;
        events.push(ev(2, ts, i + 1_000_000)); // never equal to any a.x
        ts += 1;
    }
    let s = stream(events);
    let left_deep = TreePlan::new(TreeNode::join(
        TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(1)),
        TreeNode::Leaf(2),
    ))
    .unwrap();
    let bushy_ac = TreePlan::new(TreeNode::join(
        TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(2)),
        TreeNode::Leaf(1),
    ))
    .unwrap();
    let mut e1 = TreeEngine::new(cp.clone(), left_deep, EngineConfig::default()).unwrap();
    let r1 = run_to_completion(&mut e1, &s, true);
    let mut e2 = TreeEngine::new(cp.clone(), bushy_ac, EngineConfig::default()).unwrap();
    let r2 = run_to_completion(&mut e2, &s, true);
    assert_eq!(signatures(&r1.matches), signatures(&r2.matches));
    assert!(
        r2.metrics.partial_matches_created < r1.metrics.partial_matches_created,
        "(a c) first: {} vs left-deep: {}",
        r2.metrics.partial_matches_created,
        r1.metrics.partial_matches_created
    );
}

/// `SEQ(A a, B b, C c)` equating attribute 0 along the chain, over `keys`
/// interleaved copies of one event sequence (copy `r` carries key `r`,
/// all copies of an event share its timestamp).
fn keyed_chain(keys: i64, kleene_b: bool) -> (Pattern, Vec<Event>) {
    let mut b = PatternBuilder::new(6);
    let a = b.event(t(0), "a");
    let bb = b.event(t(1), "b");
    let c = b.event(t(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
    b.predicate(Predicate::attr_cmp(bb.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let (ae, ce) = (b.expr(a), b.expr(c));
    let be = if kleene_b { b.kleene(bb) } else { b.expr(bb) };
    let p = b.seq_exprs([ae, be, ce]).unwrap();
    let mut events = Vec::new();
    for i in 0..30u64 {
        for r in 0..keys {
            events.push(ev((i * 7 % 3) as u32, i, r));
        }
    }
    (p, events)
}

#[test]
fn equality_nodes_probe_one_bucket_and_scale_flat_in_keys() {
    let run = |keys: i64| {
        let (p, events) = keyed_chain(keys, false);
        let cp = CompiledPattern::compile_single(&p).unwrap();
        // ((b c) a): b == c crosses the inner join, a == b the outer one.
        let plan = TreePlan::new(TreeNode::join(
            TreeNode::join(TreeNode::Leaf(1), TreeNode::Leaf(2)),
            TreeNode::Leaf(0),
        ))
        .unwrap();
        let mut engine = TreeEngine::new(cp, plan, EngineConfig::default()).unwrap();
        run_to_completion(&mut engine, &stream(events), true)
    };
    let (one, many) = (run(1), run(16));
    assert!(!one.matches.is_empty(), "fixture must produce matches");
    assert_eq!(many.matches.len(), 16 * one.matches.len());
    assert_eq!(
        many.metrics.predicate_evaluations,
        16 * one.metrics.predicate_evaluations,
        "per-key work must not depend on how many other keys are live"
    );
    assert_eq!(
        many.metrics.partial_matches_created,
        16 * one.metrics.partial_matches_created
    );
    assert!(many.metrics.index_probes > 0);
}

#[test]
fn keyed_nodes_match_oracle_in_every_tree() {
    let (p, events) = keyed_chain(3, false);
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn kleene_partner_falls_back_to_one_bucket() {
    // b is Kleene: neither equality has two plain sides, nothing is keyed.
    let (p, events) = keyed_chain(3, true);
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let s = stream(events);
    let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
    let expected = signatures(&run_to_completion(&mut oracle, &s, true).matches);
    assert!(!expected.is_empty(), "fixture must produce matches");
    for root in all_trees(3) {
        let plan = TreePlan::new(root).unwrap();
        let mut engine = TreeEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &s, true);
        assert_eq!(signatures(&r.matches), expected);
        assert_eq!(r.metrics.index_probes, 0);
    }
}

#[test]
fn kleene_partner_and_next_match_fall_back_to_one_bucket() {
    // The same Kleene fixture through every order plan, run left-deep.
    let (p, events) = keyed_chain(3, true);
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let s = stream(events);
    let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
    let expected = signatures(&run_to_completion(&mut oracle, &s, true).matches);
    for order in [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        let plan = TreePlan::left_deep(&OrderPlan::new(order.to_vec()).unwrap());
        let mut engine = TreeEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &s, true);
        assert_eq!(signatures(&r.matches), expected);
        assert_eq!(r.metrics.index_probes, 0);
    }
    // Skip-till-next-match keys no join (`CompiledPattern::join_key`): the
    // stores stay one bucket.
    let (mut p, events) = keyed_chain(3, false);
    p.strategy = SelectionStrategy::SkipTillNextMatch;
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let mut engine = TreeEngine::with_trivial_plan(cp, EngineConfig::default());
    let r = run_to_completion(&mut engine, &stream(events), true);
    assert!(!r.matches.is_empty());
    assert_eq!(r.metrics.index_probes, 0);
}

#[test]
fn rare_last_plan_creates_fewer_instances() {
    // The intro's four-cameras effect: putting the rare type first
    // creates fewer partial matches than the trivial order.
    let mut b = PatternBuilder::new(1000);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let d = b.event(t(2), "d");
    let p = b.seq([a, c, d]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let mut events = Vec::new();
    // a, c frequent; d rare (every 10th round).
    for i in 0..200u64 {
        events.push(ev(0, i * 5, 0));
        events.push(ev(1, i * 5 + 1, 0));
        if i % 10 == 0 {
            events.push(ev(2, i * 5 + 2, 0));
        }
    }
    let s = stream(events);
    let run = |order: Vec<usize>| {
        let plan = TreePlan::left_deep(&OrderPlan::new(order).unwrap());
        let mut e = TreeEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap();
        run_to_completion(&mut e, &s, true)
    };
    let (trivial, lazy) = (run(vec![0, 1, 2]), run(vec![2, 0, 1]));
    assert_eq!(
        signatures(&trivial.matches),
        signatures(&lazy.matches),
        "plans must agree on results"
    );
    assert!(
        lazy.metrics.peak_partial_matches < trivial.metrics.peak_partial_matches,
        "lazy {} vs trivial {}",
        lazy.metrics.peak_partial_matches,
        trivial.metrics.peak_partial_matches
    );
}

#[test]
fn equality_steps_probe_one_bucket_and_scale_flat_in_keys() {
    let run = |keys: i64| {
        let (p, events) = keyed_chain(keys, false);
        let cp = CompiledPattern::compile_single(&p).unwrap();
        // b first: both later joins carry an equality against it.
        let plan = TreePlan::left_deep(&OrderPlan::new(vec![1, 2, 0]).unwrap());
        let mut engine = TreeEngine::new(cp, plan, EngineConfig::default()).unwrap();
        run_to_completion(&mut engine, &stream(events), true)
    };
    let (one, many) = (run(1), run(16));
    assert!(!one.matches.is_empty(), "fixture must produce matches");
    assert_eq!(many.matches.len(), 16 * one.matches.len());
    assert_eq!(
        many.metrics.predicate_evaluations,
        16 * one.metrics.predicate_evaluations,
        "per-key work must not depend on how many other keys are live"
    );
    assert_eq!(
        many.metrics.partial_matches_created,
        16 * one.metrics.partial_matches_created
    );
    assert!(many.metrics.index_probes > 0);
}

#[test]
fn unkeyable_join_values_are_parked_until_expiry() {
    // Every a carries NaN: no c can ever equal it, so each a waits at its
    // leaf unprobed (`Slot::Never`) until the window drops it.
    let mut b = PatternBuilder::new(4);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let p = b.seq([a, c]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let mut events = Vec::new();
    for i in 0..200u64 {
        let x = if i % 2 == 0 { f64::NAN } else { 0.5 };
        events.push(Event::new(t((i % 2) as u32), i, vec![Value::Float(x)]));
    }
    let cfg = EngineConfig {
        prune_every: 1,
        ..EngineConfig::default()
    };
    let mut engine = TreeEngine::with_trivial_plan(cp, cfg);
    let r = run_to_completion(&mut engine, &stream(events), true);
    assert!(r.matches.is_empty());
    assert_eq!(r.metrics.predicate_evaluations, 0, "parked, never probed");
    assert_eq!(r.metrics.partial_matches_created, 0);
    assert_eq!(
        r.metrics.peak_buffered_events, 5,
        "the window's five events (ts w - 4 ..= w), parked ones included: \
         parked events expire with the window"
    );
}
