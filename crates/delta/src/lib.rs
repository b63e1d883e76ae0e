//! # cep-delta
//!
//! Delta-indexed CEP evaluation: a non-materializing second backend next
//! to the tree engine, in the style of dynamic query evaluation for
//! theta joins under updates (Idris et al., arXiv:1905.09848).
//!
//! ## Index layout
//!
//! The materializing engines store *partial matches* — binding vectors
//! that grow multiplicatively with window size on correlated streams. The
//! [`DeltaEngine`] stores none. Its only windowed state is a
//! [`WindowIndex`]: one arrival-ordered deque per event type, plus
//! `(type, attr) → key → events` posting lists over the equality-join
//! attributes extracted from the compiled pattern's `==` predicates. Each
//! arriving event is one *delta* — an amortized-O(1) append per list —
//! and each expiration is the inverse delta, popping the same entries
//! back off the list fronts (arrival order is timestamp order, so the
//! expiring event is always at every front).
//!
//! ## Enumeration delay
//!
//! Matches are enumerated on demand when the event completing them
//! arrives: the newest event is pinned at each pattern element of its
//! type, and the remaining elements are bound by a backtracking search
//! that at every node picks the unbound element with the smallest live
//! candidate pool — an equality-join index probe when a bound partner
//! supplies a key, a type scan otherwise — narrowed by binary-searched
//! timestamp ranges from the window and SEQ precedence constraints.
//! Between two reported matches the search backtracks through at most
//! `n` levels whose sibling candidates are pruned by necessary
//! conditions of match validity, so the delay between consecutive
//! results is bounded by the probe work, not by window size.
//!
//! The filter gate, negation, emission and the consumed set are the shared
//! [`cep_core::shell::EngineShell`]; this crate keeps only the index and
//! the search. The index expires on every event, because the pool sizes
//! that pick the search order must count live events only.
//!
//! ## Kleene fallback
//!
//! Kleene closures have no constant-delay enumeration: one pinned event
//! can close exponentially many accumulator subsets. For Kleene elements
//! the search therefore falls back per-branch to the materializing
//! engines' semantics — capped subset enumeration in serial order
//! (`max_kleene_events`), with the pinned event always a member — which
//! keeps output byte-identical to the oracle at the oracle's cost for
//! those branches only.
//!
//! ## Guarantee
//!
//! Under the three exact selection strategies (skip-till-any-match and
//! both contiguity modes), output is byte-identical — signatures *and*
//! `emitted_at` — to the naive oracle and hence to the tree engine under
//! every plan, negation and Kleene included. Under skip-till-next-match the
//! engine is greedy like the others, but enumeration order may choose a
//! different witness set than the oracle, so byte-identity is not
//! guaranteed there.

#![deny(missing_docs)]

mod engine;
mod index;

pub use engine::DeltaEngine;
pub use index::{ts_span, WindowIndex};

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::compile::CompiledPattern;
    use cep_core::engine::{run_to_completion, Engine, EngineConfig};
    use cep_core::event::{Event, TypeId};
    use cep_core::matches::{validate_match, Match};
    use cep_core::naive::NaiveEngine;
    use cep_core::pattern::{Pattern, PatternBuilder};
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

    /// A match's byte-identity key: its signature paired with `emitted_at`.
    type MatchKey = (Vec<(usize, Vec<u64>)>, u64);

    /// Sorted `(signature, emitted_at)` pairs: the byte-identity key.
    fn keyed(ms: &[Match]) -> Vec<MatchKey> {
        let mut ks: Vec<_> = ms.iter().map(|m| (m.signature(), m.emitted_at)).collect();
        ks.sort();
        ks
    }

    fn assert_matches_oracle(pattern: &Pattern, events: Vec<Event>) {
        let cp = CompiledPattern::compile_single(pattern).unwrap();
        let s = stream(events);
        let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
        let expected = keyed(&run_to_completion(&mut oracle, &s, true).matches);
        let mut engine = DeltaEngine::new(cp.clone(), EngineConfig::default());
        let r = run_to_completion(&mut engine, &s, true);
        for m in &r.matches {
            validate_match(&cp, m).unwrap();
        }
        assert_eq!(keyed(&r.matches), expected, "delta disagrees with oracle");
        assert_eq!(
            r.metrics.partial_matches_created, 0,
            "delta must not materialize partial matches"
        );
    }

    #[test]
    fn sequence_matches_oracle() {
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
        assert_matches_oracle(&p, events);
    }

    #[test]
    fn eq_join_sequence_matches_oracle_and_probes_index() {
        let mut b = PatternBuilder::new(20);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
        let p = b.seq([a, c]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push(ev((i % 2) as u32, i, (i % 5) as i64));
        }
        let s = stream(events.clone());
        let mut engine = DeltaEngine::new(cp.clone(), EngineConfig::default());
        let r = run_to_completion(&mut engine, &s, true);
        let mut oracle = NaiveEngine::new(cp, EngineConfig::default());
        let expected = run_to_completion(&mut oracle, &s, true);
        assert_eq!(keyed(&r.matches), keyed(&expected.matches));
        assert!(
            r.metrics.index_probes > 0,
            "eq-join pattern must drive posting-list probes"
        );
        assert!(r.metrics.delta_updates > 0);
    }

    #[test]
    fn duplicate_types_match_oracle() {
        // SEQ(A a1, A a2): the pin must partition correctly when the
        // newest event can sit at either element.
        let mut b = PatternBuilder::new(10);
        let a1 = b.event(t(0), "a1");
        let a2 = b.event(t(0), "a2");
        let p = b.seq([a1, a2]).unwrap();
        let events = vec![ev(0, 1, 0), ev(0, 2, 0), ev(0, 3, 0)];
        assert_matches_oracle(&p, events);
    }

    #[test]
    fn conjunction_matches_oracle() {
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
        assert_matches_oracle(&p, events);
    }

    #[test]
    fn negation_matches_oracle() {
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
        assert_matches_oracle(&p, events);
    }

    #[test]
    fn trailing_negation_defers_and_matches_oracle() {
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
        assert_matches_oracle(&p, events);
    }

    #[test]
    fn kleene_fallback_matches_oracle() {
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
        assert_matches_oracle(&p, events);
    }

    #[test]
    fn strict_contiguity_matches_oracle() {
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
        assert_matches_oracle(&p, events);
    }

    #[test]
    fn partition_contiguity_matches_oracle() {
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::PartitionContiguity);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let p = b.seq([a, c]).unwrap();
        let mut sb = StreamBuilder::new();
        for (tid, ts, part) in [
            (0u32, 1u64, 0u32),
            (0, 2, 1),
            (1, 3, 0),
            (1, 4, 1),
            (0, 5, 0),
            (1, 6, 0),
        ] {
            sb.push_partitioned(ev(tid, ts, 0), part);
        }
        let s = sb.build();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
        let expected = keyed(&run_to_completion(&mut oracle, &s, true).matches);
        let mut engine = DeltaEngine::new(cp, EngineConfig::default());
        let r = run_to_completion(&mut engine, &s, true);
        assert_eq!(keyed(&r.matches), expected);
        assert!(!r.matches.is_empty(), "fixture should produce matches");
    }

    #[test]
    fn next_match_consumes_and_is_disjoint() {
        // Byte-identity is not guaranteed under skip-till-next-match, but
        // the greedy invariants are.
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::SkipTillNextMatch);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let p = b.seq([a, c]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let s = stream(vec![ev(0, 1, 0), ev(0, 2, 0), ev(1, 3, 0), ev(1, 4, 0)]);
        let mut engine = DeltaEngine::new(cp.clone(), EngineConfig::default());
        let r = run_to_completion(&mut engine, &s, true);
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
    fn window_expiry_bounds_index_size() {
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
        let mut engine = DeltaEngine::new(cp, EngineConfig::default());
        let r = run_to_completion(&mut engine, &s, true);
        assert_eq!(r.metrics.partial_matches_created, 0);
        assert!(
            r.metrics.peak_buffered_events < 10,
            "index must evict expired events, peak was {}",
            r.metrics.peak_buffered_events
        );
        assert!(r.matches.is_empty());
    }

    #[test]
    fn filtered_out_events_stay_out_of_the_index_but_reach_negation() {
        let events = vec![
            ev(0, 1, 9),
            ev(0, 2, 0),
            ev(0, 3, 1),
            ev(1, 4, 0),
            ev(0, 5, 2),
        ];
        // SEQ(A a, C c) WHERE a.x > 5: only the first A can ever bind.
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_const(a.pos(), 0, CmpOp::Gt, Value::Int(5)));
        let p = b.seq([a, c]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut engine = DeltaEngine::new(cp, EngineConfig::default());
        let r = run_to_completion(&mut engine, &stream(events.clone()), true);
        assert_eq!(r.matches.len(), 1);
        assert_eq!(r.metrics.events_relevant, 5);
        assert_eq!(
            r.metrics.peak_buffered_events, 2,
            "only a@1 and c@4 may enter the index"
        );
        assert_eq!(r.metrics.delta_updates, 2, "two inserts, nothing expires");

        // SEQ(A a, NOT A n, C c) WHERE a.x > 5: A events failing `a`'s
        // filter still forbid the match as `n`.
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let n = b.event(t(0), "n");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_const(a.pos(), 0, CmpOp::Gt, Value::Int(5)));
        let exprs = [b.expr(a), b.not(n), b.expr(c)];
        let p = b.seq_exprs(exprs).unwrap();
        assert_matches_oracle(&p, events.clone());
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut engine = DeltaEngine::new(cp, EngineConfig::default());
        let r = run_to_completion(&mut engine, &stream(events), true);
        assert!(r.matches.is_empty(), "a@2 and a@3 sit between a@1 and c@4");
        assert!(r.metrics.peak_buffered_events > 2);
    }

    #[test]
    fn irrelevant_types_are_skipped_cheaply() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let p = b.seq([a, c]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let s = stream(vec![ev(7, 1, 0), ev(8, 2, 0), ev(0, 3, 0), ev(1, 4, 0)]);
        let mut engine = DeltaEngine::new(cp, EngineConfig::default());
        let r = run_to_completion(&mut engine, &s, true);
        assert_eq!(r.metrics.events_processed, 4);
        assert_eq!(r.metrics.events_relevant, 2);
        assert_eq!(r.matches.len(), 1);
    }

    #[test]
    fn engine_reports_name_and_enumeration_histogram() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let p = b.seq([a, c]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut engine = DeltaEngine::new(cp, EngineConfig::default());
        assert_eq!(engine.name(), "delta");
        let s = stream(vec![ev(0, 1, 0), ev(1, 2, 0)]);
        let r = run_to_completion(&mut engine, &s, true);
        assert_eq!(r.matches.len(), 1);
        assert!(
            r.metrics.enumeration_ns.count() > 0,
            "enumeration delay must be recorded"
        );
    }
}
