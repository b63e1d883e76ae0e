//! # cep-nfa
//!
//! Order-based CEP evaluation: a lazy chain NFA with out-of-order plan
//! support, after Kolchinsky et al. [28, 29] as used in Section 2.2 of
//! *Join Query Optimization Techniques for CEP Applications* (VLDB 2018).
//!
//! The engine follows an [`OrderPlan`](cep_core::plan::OrderPlan): a chain
//! of states, one per positive pattern element, in an arbitrary
//! user-supplied order. Events arriving before their state is reached are
//! buffered; instances entering a state catch up from the buffer. All four
//! selection strategies of Section 6.2 are supported:
//!
//! * **skip-till-any-match** — full forking semantics;
//! * **skip-till-next-match** — non-forking advancement plus event
//!   consumption on emission (an event joins at most one match). Kleene
//!   elements take the greedy singleton set under this strategy;
//! * **strict / partition contiguity** — serial-number adjacency enforced
//!   incrementally (span feasibility) and exactly at completion.
//!
//! This crate keeps only the chain: states, buffers, delivery, catch-up and
//! Kleene growth. The filter gate, negation (checked at the earliest
//! decidable point, deferred past the window end for trailing negations),
//! emission and pruning of the states are the shared
//! [`cep_core::shell::EngineShell`].

#![warn(missing_docs)]

mod engine;

pub use cep_core::instance::Instance;
pub use engine::NfaEngine;

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::compile::CompiledPattern;
    use cep_core::engine::{run_to_completion, EngineConfig};
    use cep_core::event::{Event, TypeId};
    use cep_core::matches::{validate_match, Match};
    use cep_core::naive::NaiveEngine;
    use cep_core::pattern::{Pattern, PatternBuilder};
    use cep_core::plan::OrderPlan;
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

    /// Runs the NFA under every possible plan order and asserts identical
    /// results to the naive oracle.
    fn assert_all_orders_match_oracle(pattern: &Pattern, events: Vec<Event>) {
        let cp = CompiledPattern::compile_single(pattern).unwrap();
        let s = stream(events);
        let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
        let expected = signatures(&run_to_completion(&mut oracle, &s, true).matches);
        let n = cp.n();
        for order in permutations(n) {
            let plan = OrderPlan::new(order.clone()).unwrap();
            let mut engine = NfaEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap();
            let r = run_to_completion(&mut engine, &s, true);
            for m in &r.matches {
                validate_match(&cp, m).unwrap();
            }
            assert_eq!(
                signatures(&r.matches),
                expected,
                "order {order:?} disagrees with oracle"
            );
        }
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
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

    #[test]
    fn sequence_all_orders_match_oracle() {
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
        assert_all_orders_match_oracle(&p, events);
    }

    #[test]
    fn conjunction_all_orders_match_oracle() {
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
        assert_all_orders_match_oracle(&p, events);
    }

    #[test]
    fn duplicate_types_all_orders_match_oracle() {
        // SEQ(A a1, A a2) — same type at two positions.
        let mut b = PatternBuilder::new(10);
        let a1 = b.event(t(0), "a1");
        let a2 = b.event(t(0), "a2");
        let p = b.seq([a1, a2]).unwrap();
        let events = vec![ev(0, 1, 0), ev(0, 2, 0), ev(0, 3, 0)];
        assert_all_orders_match_oracle(&p, events);
    }

    #[test]
    fn negation_all_orders_match_oracle() {
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
            ev(1, 2, 1), // kills matches of a@1
            ev(0, 3, 2),
            ev(2, 4, 0),
            ev(1, 5, 2), // after c: harmless for (a@3, c@4)
            ev(2, 6, 0),
        ];
        assert_all_orders_match_oracle(&p, events);
    }

    #[test]
    fn trailing_negation_all_orders_match_oracle() {
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
            ev(2, 3, 0), // kills (a@1, c@2)
            ev(0, 10, 0),
            ev(1, 11, 0), // survives: no later nb within window
        ];
        assert_all_orders_match_oracle(&p, events);
    }

    #[test]
    fn kleene_all_orders_match_oracle() {
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
        assert_all_orders_match_oracle(&p, events);
    }

    #[test]
    fn kleene_first_element_in_plan() {
        // KL(B) ordered first by the plan exercises virtual-state seeding.
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let k = b.event(t(1), "k");
        let ae = b.expr(a);
        let ke = b.kleene(k);
        let p = b.seq_exprs([ae, ke]).unwrap();
        assert_all_orders_match_oracle(
            &p,
            vec![
                ev(0, 1, 0),
                ev(1, 2, 0),
                ev(1, 3, 0),
                ev(0, 4, 0),
                ev(1, 5, 0),
            ],
        );
    }

    #[test]
    fn consecutive_kleene_steps_all_orders_match_oracle() {
        // An order that closes KL(C) straight into KL(B) must not filter B's
        // candidates by the serial-number gate C's accumulator left behind.
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let kb = b.event(t(1), "kb");
        let kc = b.event(t(2), "kc");
        let d = b.event(t(3), "d");
        let exprs = [b.expr(a), b.kleene(kb), b.kleene(kc), b.expr(d)];
        let p = b.seq_exprs(exprs).unwrap();
        assert_all_orders_match_oracle(
            &p,
            vec![
                ev(0, 1, 0),
                ev(1, 2, 0),
                ev(1, 3, 0),
                ev(2, 4, 0),
                ev(2, 5, 0),
                ev(3, 6, 0),
            ],
        );
    }

    #[test]
    fn strict_contiguity_all_orders_match_oracle() {
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::StrictContiguity);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let p = b.seq([a, c]).unwrap();
        let events = vec![
            ev(0, 1, 0),
            ev(1, 2, 0), // adjacent: match
            ev(0, 3, 0),
            ev(2, 4, 0), // irrelevant type still breaks contiguity
            ev(1, 5, 0),
        ];
        assert_all_orders_match_oracle(&p, events);
    }

    #[test]
    fn next_match_consumes_and_is_disjoint() {
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::SkipTillNextMatch);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let p = b.seq([a, c]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let s = stream(vec![ev(0, 1, 0), ev(0, 2, 0), ev(1, 3, 0), ev(1, 4, 0)]);
        let mut engine =
            NfaEngine::new(cp.clone(), OrderPlan::trivial(&cp), EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &s, true);
        // Events must be disjoint across matches.
        let mut used = std::collections::HashSet::new();
        for m in &r.matches {
            for e in m.events() {
                assert!(used.insert(e.seq), "event reused under next-match");
            }
            validate_match(&cp, m).unwrap();
        }
        assert_eq!(r.matches.len(), 2);
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
        let mut engine =
            NfaEngine::new(cp.clone(), OrderPlan::trivial(&cp), EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &s, true);
        // Only ~2 events fit a window; peaks must stay tiny, not O(stream).
        assert!(
            r.metrics.peak_partial_matches < 70,
            "{}",
            r.metrics.peak_partial_matches
        );
        assert!(r.metrics.peak_buffered_events < 70);
        assert!(r.matches.is_empty());
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
        let trivial = {
            let mut e =
                NfaEngine::new(cp.clone(), OrderPlan::trivial(&cp), EngineConfig::default())
                    .unwrap();
            run_to_completion(&mut e, &s, true)
        };
        let lazy = {
            let plan = OrderPlan::new(vec![2, 0, 1]).unwrap();
            let mut e = NfaEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap();
            run_to_completion(&mut e, &s, true)
        };
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
    fn irrelevant_types_are_skipped_cheaply() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let p = b.seq([a, c]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let s = stream(vec![ev(7, 1, 0), ev(8, 2, 0), ev(0, 3, 0), ev(1, 4, 0)]);
        let mut engine =
            NfaEngine::new(cp.clone(), OrderPlan::trivial(&cp), EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &s, true);
        assert_eq!(r.metrics.events_processed, 4);
        assert_eq!(r.metrics.events_relevant, 2);
        assert_eq!(r.matches.len(), 1);
    }

    /// `SEQ(A a, B b, C c)` equating attribute 0 along the chain, over
    /// `keys` interleaved copies of one event sequence (copy `r` carries
    /// key `r`, all copies of an event share its timestamp).
    fn keyed_chain(
        keys: i64,
        kleene_b: bool,
        strategy: SelectionStrategy,
    ) -> (Pattern, Vec<Event>) {
        let mut b = PatternBuilder::new(6);
        b.strategy(strategy);
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
    fn equality_steps_probe_one_bucket_and_scale_flat_in_keys() {
        let run = |keys: i64| {
            let (p, events) = keyed_chain(keys, false, SelectionStrategy::SkipTillAnyMatch);
            let cp = CompiledPattern::compile_single(&p).unwrap();
            // b first: both later steps carry an equality against it.
            let plan = OrderPlan::new(vec![1, 2, 0]).unwrap();
            let mut engine = NfaEngine::new(cp, plan, EngineConfig::default()).unwrap();
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
    fn keyed_steps_match_oracle_in_every_order() {
        let (p, events) = keyed_chain(3, false, SelectionStrategy::SkipTillAnyMatch);
        assert_all_orders_match_oracle(&p, events);
    }

    #[test]
    fn kleene_partner_and_next_match_fall_back_to_one_bucket() {
        // b is Kleene: neither equality has two plain sides, nothing is keyed.
        let (p, events) = keyed_chain(3, true, SelectionStrategy::SkipTillAnyMatch);
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let s = stream(events);
        let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
        let expected = signatures(&run_to_completion(&mut oracle, &s, true).matches);
        assert!(!expected.is_empty(), "fixture must produce matches");
        for order in permutations(3) {
            let plan = OrderPlan::new(order).unwrap();
            let mut engine = NfaEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap();
            let r = run_to_completion(&mut engine, &s, true);
            assert_eq!(signatures(&r.matches), expected);
            assert_eq!(r.metrics.index_probes, 0);
        }
        // Skip-till-next-match: the greedy removal order spans the whole
        // state, so the store stays one bucket.
        let (p, events) = keyed_chain(3, false, SelectionStrategy::SkipTillNextMatch);
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut engine =
            NfaEngine::new(cp.clone(), OrderPlan::trivial(&cp), EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &stream(events), true);
        assert!(!r.matches.is_empty());
        assert_eq!(r.metrics.index_probes, 0);
    }

    #[test]
    fn unkeyable_join_values_are_parked_until_expiry() {
        // Every a carries NaN: no b can ever equal it, yet each a is a live
        // partial match until the window drops it.
        let mut b = PatternBuilder::new(4);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
        let p = b.seq([a, c]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut events = Vec::new();
        for i in 0..200u64 {
            let x = if i % 2 == 0 {
                Value::Float(f64::NAN)
            } else {
                Value::Float(0.5)
            };
            events.push(Event::new(t((i % 2) as u32), i, vec![x]));
        }
        let cfg = EngineConfig {
            prune_every: 1,
            ..EngineConfig::default()
        };
        let mut engine = NfaEngine::new(cp.clone(), OrderPlan::trivial(&cp), cfg).unwrap();
        let r = run_to_completion(&mut engine, &stream(events), true);
        assert!(r.matches.is_empty());
        assert_eq!(r.metrics.partial_matches_created, 100);
        assert_eq!(r.metrics.predicate_evaluations, 0, "parked, never probed");
        assert!(
            (2..=4).contains(&r.metrics.peak_partial_matches),
            "parked instances count as live and expire with the window, peak {}",
            r.metrics.peak_partial_matches
        );
    }
}
