//! Exhaustive reference engine (test oracle).
//!
//! Evaluates a [`CompiledPattern`] by brute-force enumeration over the
//! window buffer: every arriving event triggers enumeration of all matches
//! in which it is the latest event. Runtime is exponential, but the engine
//! is *obviously correct*, which makes it the semantic ground truth for the
//! tree and delta engines in equivalence tests. It shares the negation and
//! buffering infrastructure with the real engines so all three implement
//! identical semantics.

use crate::buffer::TypeBuffers;
use crate::compile::CompiledPattern;
use crate::engine::{Engine, EngineConfig};
use crate::event::{advance_watermark, EventRef, Timestamp};
use crate::matches::{validate_match, Binding, Match};
use crate::metrics::EngineMetrics;
use crate::negation::DeferredStore;
use std::collections::HashSet;

/// The brute-force oracle engine.
pub struct NaiveEngine {
    cp: CompiledPattern,
    cfg: EngineConfig,
    buffers: TypeBuffers,
    deferred: DeferredStore,
    watermark: Timestamp,
    metrics: EngineMetrics,
    consumed: HashSet<u64>,
}

impl NaiveEngine {
    /// Creates an oracle for one compiled pattern branch.
    pub fn new(cp: CompiledPattern, cfg: EngineConfig) -> NaiveEngine {
        NaiveEngine {
            cp,
            cfg,
            buffers: TypeBuffers::new(),
            deferred: DeferredStore::new(),
            watermark: 0,
            metrics: EngineMetrics::new(),
            consumed: HashSet::new(),
        }
    }

    fn emit(&mut self, m: Match, out: &mut Vec<Match>) {
        if self.cp.strategy.consumes() {
            if m.events().any(|e| self.consumed.contains(&e.seq)) {
                return;
            }
            for e in m.events() {
                self.consumed.insert(e.seq);
            }
        }
        self.metrics.matches_emitted += 1;
        out.push(m);
    }

    fn release_deferred(&mut self, watermark: Timestamp, out: &mut Vec<Match>) {
        let mut ready = Vec::new();
        self.deferred.drain_ready(watermark, &mut ready);
        for m in ready {
            self.emit(m, out);
        }
    }

    /// Enumerates all matches whose latest (max-seq) event is `newest`.
    fn enumerate(&mut self, newest: &EventRef, out: &mut Vec<Match>) {
        let n = self.cp.n();
        let mut bindings: Vec<Option<Binding>> = vec![None; n];
        let mut found = Vec::new();
        self.assign(0, newest, &mut bindings, &mut found);
        for m in found {
            if let Some(m) = self
                .deferred
                .admit(&self.cp, m, self.watermark, &self.buffers)
            {
                self.emit(m, out)
            }
        }
    }

    fn assign(
        &self,
        elem: usize,
        newest: &EventRef,
        bindings: &mut Vec<Option<Binding>>,
        found: &mut Vec<Match>,
    ) {
        let n = self.cp.n();
        if elem == n {
            // The newest event must participate, making it the unique
            // enumeration point of this match.
            let uses_newest = bindings
                .iter()
                .flatten()
                .flat_map(|b| b.events())
                .any(|e| e.seq == newest.seq);
            if !uses_newest {
                return;
            }
            let m = Match {
                bindings: bindings
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        (
                            self.cp.elements[i].position,
                            b.clone().expect("all elements bound"),
                        )
                    })
                    .collect(),
                last_ts: newest.ts,
                emitted_at: newest.ts,
            };
            if validate_match(&self.cp, &m).is_ok() {
                found.push(m);
            }
            return;
        }
        let ty = self.cp.elements[elem].event_type;
        let candidates: Vec<EventRef> = self
            .buffers
            .iter_type(ty)
            .filter(|e| e.seq <= newest.seq)
            .filter(|e| !self.consumed.contains(&e.seq))
            .filter(|e| !bound_seq(bindings, e.seq))
            .cloned()
            .collect();
        if self.cp.elements[elem].kleene {
            // Enumerate non-empty subsets in seq order, capped.
            let cap = self.cfg.max_kleene_events;
            let mut subset: Vec<EventRef> = Vec::new();
            self.kleene_subsets(
                elem,
                newest,
                &candidates,
                0,
                &mut subset,
                bindings,
                found,
                cap,
            );
        } else {
            for c in candidates {
                bindings[elem] = Some(Binding::One(c));
                self.assign(elem + 1, newest, bindings, found);
                bindings[elem] = None;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn kleene_subsets(
        &self,
        elem: usize,
        newest: &EventRef,
        candidates: &[EventRef],
        from: usize,
        subset: &mut Vec<EventRef>,
        bindings: &mut Vec<Option<Binding>>,
        found: &mut Vec<Match>,
        cap: usize,
    ) {
        if !subset.is_empty() {
            bindings[elem] = Some(Binding::Many(subset.clone()));
            self.assign(elem + 1, newest, bindings, found);
            bindings[elem] = None;
        }
        if subset.len() >= cap {
            return;
        }
        for i in from..candidates.len() {
            subset.push(candidates[i].clone());
            self.kleene_subsets(
                elem,
                newest,
                candidates,
                i + 1,
                subset,
                bindings,
                found,
                cap,
            );
            subset.pop();
        }
    }
}

fn bound_seq(bindings: &[Option<Binding>], seq: u64) -> bool {
    bindings
        .iter()
        .flatten()
        .flat_map(|b| b.events())
        .any(|e| e.seq == seq)
}

impl Engine for NaiveEngine {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        if !advance_watermark(&mut self.watermark, event.ts) {
            self.metrics.late_events_dropped += 1;
            return;
        }
        self.metrics.events_processed += 1;
        let watermark = self.watermark;
        self.release_deferred(watermark, out);
        self.deferred.on_event(&self.cp, event);
        self.buffers.prune(watermark, self.cp.window);
        if !self.cp.uses_type(event.type_id) {
            return;
        }
        self.metrics.events_relevant += 1;
        self.buffers.push(event.clone());
        if self.cp.elements_of_type(event.type_id).next().is_some() {
            self.enumerate(event, out);
        }
        self.metrics
            .record_live(self.deferred.len(), self.buffers.len());
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        self.release_deferred(Timestamp::MAX, out);
    }

    fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.metrics
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TypeId};
    use crate::pattern::PatternBuilder;
    use crate::predicate::{CmpOp, Predicate};
    use crate::selection::SelectionStrategy;
    use crate::stream::StreamBuilder;
    use crate::value::Value;

    fn t(i: u32) -> TypeId {
        TypeId(i)
    }

    fn run(cp: CompiledPattern, events: Vec<Event>) -> Vec<Match> {
        let mut b = StreamBuilder::new();
        for e in events {
            b.push(e);
        }
        let stream = b.build();
        let mut engine = NaiveEngine::new(cp, EngineConfig::default());
        let r = crate::engine::run_to_completion(&mut engine, &stream, true);
        r.matches
    }

    fn ev(tid: u32, ts: u64, x: i64) -> Event {
        Event::new(t(tid), ts, vec![Value::Int(x)])
    }

    #[test]
    fn simple_sequence_detection() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let ms = run(cp, vec![ev(0, 1, 0), ev(1, 2, 0), ev(0, 3, 0), ev(1, 4, 0)]);
        // (a@1,c@2), (a@1,c@4), (a@3,c@4).
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn window_limits_matches() {
        let mut b = PatternBuilder::new(2);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let ms = run(cp, vec![ev(0, 1, 0), ev(1, 10, 0)]);
        assert!(ms.is_empty());
    }

    #[test]
    fn sequence_requires_order() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let ms = run(cp, vec![ev(1, 1, 0), ev(0, 2, 0)]);
        assert!(ms.is_empty());
    }

    #[test]
    fn conjunction_ignores_order() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let cp = CompiledPattern::compile_single(&b.and([a, c]).unwrap()).unwrap();
        let ms = run(cp, vec![ev(1, 1, 0), ev(0, 2, 0)]);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn predicates_filter_matches() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let ms = run(cp, vec![ev(0, 1, 5), ev(1, 2, 3), ev(1, 3, 9)]);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].bindings[1].1.events().next().unwrap().ts, 3);
    }

    #[test]
    fn negation_blocks_match() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let nb = b.event(t(1), "n");
        let c = b.event(t(2), "c");
        let ae = b.expr(a);
        let ne = b.not(nb);
        let ce = b.expr(c);
        let p = b.seq_exprs([ae, ne, ce]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        // B between A and C kills it; B outside does not.
        let ms = run(cp.clone(), vec![ev(0, 1, 0), ev(1, 2, 0), ev(2, 3, 0)]);
        assert!(ms.is_empty());
        let ms = run(cp, vec![ev(1, 0, 0), ev(0, 1, 0), ev(2, 3, 0)]);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn trailing_negation_defers_until_window_end() {
        let mut b = PatternBuilder::new(5);
        let a = b.event(t(0), "a");
        let nb = b.event(t(1), "n");
        let ae = b.expr(a);
        let ne = b.not(nb);
        let p = b.seq_exprs([ae, ne]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        // No B afterwards: emitted at flush (window end).
        let ms = run(cp.clone(), vec![ev(0, 1, 0)]);
        assert_eq!(ms.len(), 1);
        // B afterwards within window: suppressed.
        let ms = run(cp, vec![ev(0, 1, 0), ev(1, 3, 0)]);
        assert!(ms.is_empty());
    }

    #[test]
    fn kleene_enumerates_subsets() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let k = b.event(t(1), "k");
        let ae = b.expr(a);
        let ke = b.kleene(k);
        let p = b.seq_exprs([ae, ke]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        // a then 3 k's: 2^3 - 1 = 7 subset matches.
        let ms = run(cp, vec![ev(0, 1, 0), ev(1, 2, 0), ev(1, 3, 0), ev(1, 4, 0)]);
        assert_eq!(ms.len(), 7);
    }

    #[test]
    fn kleene_cap_limits_subsets() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let k = b.event(t(1), "k");
        let ae = b.expr(a);
        let ke = b.kleene(k);
        let p = b.seq_exprs([ae, ke]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut engine = NaiveEngine::new(
            cp,
            EngineConfig {
                max_kleene_events: 1,
                ..Default::default()
            },
        );
        let mut sb = StreamBuilder::new();
        for e in [ev(0, 1, 0), ev(1, 2, 0), ev(1, 3, 0)] {
            sb.push(e);
        }
        let r = crate::engine::run_to_completion(&mut engine, &sb.build(), true);
        // Only singleton subsets: {k@2}, {k@3}.
        assert_eq!(r.matches.len(), 2);
    }

    #[test]
    fn skip_till_next_match_consumes_events() {
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::SkipTillNextMatch);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        // Two a's, one c: only one match (c consumed).
        let ms = run(cp, vec![ev(0, 1, 0), ev(0, 2, 0), ev(1, 3, 0)]);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn strict_contiguity_requires_adjacent_events() {
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::StrictContiguity);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        // a (#0), noise (#1), c (#2): not adjacent -> no match.
        let ms = run(cp.clone(), vec![ev(0, 1, 0), ev(2, 2, 0), ev(1, 3, 0)]);
        assert!(ms.is_empty());
        // a (#0), c (#1): adjacent -> match.
        let ms = run(cp, vec![ev(0, 1, 0), ev(1, 2, 0)]);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn disjunction_branches_union() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let e1 = b.expr(a);
        let e2 = b.expr(c);
        let p = b.or_exprs([e1, e2]).unwrap();
        let cps = CompiledPattern::compile(&p).unwrap();
        assert_eq!(cps.len(), 2);
        let engines: Vec<Box<dyn Engine>> = cps
            .into_iter()
            .map(|cp| Box::new(NaiveEngine::new(cp, EngineConfig::default())) as Box<dyn Engine>)
            .collect();
        let mut me = crate::engine::MultiEngine::new(engines, 10);
        let mut sb = StreamBuilder::new();
        sb.push(ev(0, 1, 0));
        sb.push(ev(1, 2, 0));
        let r = crate::engine::run_to_completion(&mut me, &sb.build(), true);
        assert_eq!(r.matches.len(), 2);
    }
}
