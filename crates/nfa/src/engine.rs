//! The lazy chain NFA engine (Section 2.2, after [28, 29]).
//!
//! Given an [`OrderPlan`] `O` over the positive elements of a
//! [`CompiledPattern`], the engine maintains a chain of `n + 1` states.
//! An instance at state `k` has bound the first `k` elements of `O` and
//! waits for element `O[k]`. Out-of-order processing is achieved by
//! buffering: every participating event is appended to the buffer of each
//! step accepting its type; an instance *entering* state `k` performs a
//! catch-up scan over the step's buffer, while events arriving later are
//! *delivered* to the instances already waiting at the state. Together
//! these consider every (instance, event) pair exactly once — the
//! invariant that makes the NFA results identical to the naive oracle.
//!
//! Both the waiting instances and the buffered events of a step are
//! [`KeyedStore`]s: when the step carries an equality join against an
//! earlier step ([`CompiledPattern::join_key`]), delivery and catch-up
//! visit only the bucket of the arriving event's (entering instance's)
//! join value instead of the whole state.
//!
//! Both are also sorted by time — buffers by `ts` (events arrive in order,
//! pruning drops a prefix), states by `max_ts` (every instance is created
//! while its newest event is processed, pruning is stable) — so a scan
//! starts and stops where [`partner_ts_range`] says window and precedence
//! allow. Skip-till-next-match delivery is the one exception: its
//! `swap_remove` reorders a state, so it scans the whole bucket.

use cep_core::buffer::TypeBuffers;
use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{Engine, EngineConfig};
use cep_core::error::CepError;
use cep_core::event::{expired_at, EventRef, Timestamp};
use cep_core::instance::{
    compatible_with, contiguity_ok, partner_ts_range, sorted_span, Instance, InstanceArena,
};
use cep_core::keyed::{BucketId, EqJoin, KeyedStore, Slot};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::negation::DeferredStore;
use cep_core::plan::OrderPlan;
use cep_core::selection::ConsumedSet;
use std::ops::Range;
use std::sync::Arc;

/// Order-based (lazy NFA) evaluation engine.
pub struct NfaEngine {
    cp: CompiledPattern,
    order: Vec<usize>,
    cfg: EngineConfig,
    /// Compiled predicate program.
    program: Arc<PredicateProgram>,
    /// `keys[k]`: the equality join of `order[k]` against an element of
    /// `order[..k]` that buckets step `k`'s state, if there is one.
    keys: Vec<Option<EqJoin>>,
    /// `states[k]`: instances waiting for element `order[k]`.
    states: Vec<KeyedStore<Instance>>,
    /// `buffers[k]`: buffered events of `order[k]`'s type, in arrival order.
    buffers: Vec<KeyedStore<EventRef>>,
    arena: InstanceArena,
    /// The empty instance every event of the first plan element starts
    /// from.
    root: Instance,
    /// Buffered events of negated types, for negation checks only.
    neg_buffers: TypeBuffers,
    deferred: DeferredStore,
    consumed: ConsumedSet,
    watermark: Timestamp,
    events_since_prune: u64,
    metrics: EngineMetrics,
}

impl NfaEngine {
    /// Builds an engine for one compiled pattern branch and an order plan,
    /// lowering the pattern's predicates into a [`PredicateProgram`]; use
    /// [`NfaEngine::with_program`] to supply an already-compiled (cached)
    /// program instead.
    pub fn new(
        cp: CompiledPattern,
        plan: OrderPlan,
        cfg: EngineConfig,
    ) -> Result<NfaEngine, CepError> {
        let program = Arc::new(PredicateProgram::compile(&cp));
        NfaEngine::with_program(cp, plan, cfg, program)
    }

    /// [`NfaEngine::new`] with a pre-compiled program (typically from a
    /// [`cep_core::compiled::PlanCache`]), avoiding recompilation.
    pub fn with_program(
        cp: CompiledPattern,
        plan: OrderPlan,
        cfg: EngineConfig,
        program: Arc<PredicateProgram>,
    ) -> Result<NfaEngine, CepError> {
        plan.validate(&cp)?;
        let order = plan.order().to_vec();
        let keys = (0..order.len())
            .map(|k| cp.join_key(&order[k..=k], &order[..k]).cloned())
            .collect();
        Ok(NfaEngine {
            states: order.iter().map(|_| KeyedStore::new()).collect(),
            buffers: order.iter().map(|_| KeyedStore::new()).collect(),
            root: Instance::empty(cp.n()),
            cp,
            order,
            cfg,
            program,
            keys,
            arena: InstanceArena::new(),
            neg_buffers: TypeBuffers::new(),
            deferred: DeferredStore::new(),
            consumed: ConsumedSet::new(),
            watermark: 0,
            events_since_prune: 0,
            metrics: EngineMetrics::new(),
        })
    }

    /// The compiled predicate program driving this engine.
    pub fn program(&self) -> &Arc<PredicateProgram> {
        &self.program
    }

    /// Arena statistics: `(instances derived, shells reused)`.
    pub fn arena_stats(&self) -> (u64, u64) {
        (self.arena.allocs(), self.arena.reuses())
    }

    /// Convenience constructor with the trivial (specification-order) plan.
    pub fn with_trivial_plan(cp: CompiledPattern, cfg: EngineConfig) -> NfaEngine {
        let plan = OrderPlan::trivial(&cp);
        NfaEngine::new(cp, plan, cfg).expect("trivial plan always fits")
    }

    /// The plan order driving this engine.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    fn record_live(&mut self) {
        let live = self.states.iter().map(KeyedStore::len).sum::<usize>() + self.deferred.len();
        let buffered =
            self.buffers.iter().map(KeyedStore::len).sum::<usize>() + self.neg_buffers.len();
        self.metrics.record_live(live, buffered);
    }

    /// Where an event lives in (and which bucket it probes at) step `k`.
    fn event_slot(&self, k: usize, event: &EventRef) -> Slot {
        match &self.keys[k] {
            Some(join) => Slot::of(event.attr(join.attr)),
            None => Slot::All,
        }
    }

    /// Where an instance that bound `order[..k]` lives in (and which
    /// bucket it probes at) step `k`.
    fn instance_slot(&self, k: usize, inst: &Instance) -> Slot {
        match &self.keys[k] {
            Some(join) => inst.join_slot(join.other, join.other_attr),
            None => Slot::All,
        }
    }

    /// Registers `inst` as waiting at state `k`.
    fn wait(&mut self, k: usize, inst: Instance) {
        let slot = self.instance_slot(k, &inst);
        self.states[k].push_in_order(slot, inst, |i| i.max_ts);
    }

    /// The bucket of step `k`'s buffer an instance entering the state
    /// catches up on, and the slice of it the instance can bind by window
    /// and precedence (`None`: nothing to visit).
    fn catch_up(&mut self, k: usize, inst: &Instance) -> Option<(BucketId, Range<usize>)> {
        self.metrics.index_probes += u64::from(self.keys[k].is_some());
        let bucket = self.buffers[k].probe(&self.instance_slot(k, inst))?;
        let range = partner_ts_range(&self.cp, inst.extents(), &self.order[k..=k])?;
        let span = sorted_span(self.buffers[k].bucket(bucket), &range, |e| e.ts);
        Some((bucket, span))
    }

    fn emit(&mut self, m: Match, out: &mut Vec<Match>) {
        if self.cp.strategy.consumes() {
            if !self.consumed.consume(&m) {
                return;
            }
            // Kill partial matches that used now-consumed events; their
            // shells go back to the arena.
            let (consumed, arena) = (&self.consumed, &mut self.arena);
            for state in &mut self.states {
                state.retain(|i| !i.intersects(consumed), |i| arena.retire(i));
            }
        }
        self.metrics.matches_emitted += 1;
        out.push(m);
    }

    fn release_deferred(&mut self, watermark: Timestamp, out: &mut Vec<Match>) {
        if self.cp.negated.is_empty() {
            return;
        }
        let mut ready = Vec::new();
        self.deferred.drain_ready(watermark, &mut ready);
        for m in ready {
            self.emit(m, out);
        }
    }

    fn finalize(&mut self, mut inst: Instance, out: &mut Vec<Match>) {
        if !contiguity_ok(&self.cp, &inst)
            || (self.cp.strategy.consumes() && inst.intersects(&self.consumed))
        {
            self.arena.recycle(inst);
            return;
        }
        let m = Match {
            bindings: inst
                .bindings
                .drain(..)
                .enumerate()
                .map(|(i, b)| {
                    (
                        self.cp.elements[i].position,
                        b.expect("finalize requires all elements bound"),
                    )
                })
                .collect(),
            last_ts: inst.max_ts,
            emitted_at: self.watermark,
        };
        self.arena.recycle(inst);
        if self.cp.negated.is_empty() {
            self.emit(m, out);
            return;
        }
        if let Some(m) = self
            .deferred
            .admit(&self.cp, m, self.watermark, &self.neg_buffers)
        {
            self.emit(m, out);
        }
    }

    /// Instance enters state `k`: register it and catch up on the buffer.
    fn enter(&mut self, inst: Instance, k: usize, out: &mut Vec<Match>) {
        if k == self.order.len() {
            self.finalize(inst, out);
            return;
        }
        self.metrics.partial_matches_created += 1;
        let elem = self.order[k];
        if self.cp.elements[elem].kleene {
            self.enter_kleene(inst, k, out);
        } else {
            self.enter_single(inst, k, out);
        }
    }

    fn enter_single(&mut self, inst: Instance, k: usize, out: &mut Vec<Match>) {
        let elem = self.order[k];
        // Buffers are never mutated while an event is being processed, so
        // the bucket is walked by index and only a binding event is cloned.
        if let Some((bucket, span)) = self.catch_up(k, &inst) {
            for idx in span {
                let c = &self.buffers[k].bucket(bucket)[idx];
                if !compatible_with(
                    &self.cp,
                    &self.program,
                    &inst,
                    elem,
                    c,
                    &self.consumed,
                    &mut self.metrics,
                ) {
                    continue;
                }
                let advanced = self.arena.with_single(&inst, elem, c.clone());
                self.enter(advanced, k + 1, out);
                if !self.cp.strategy.forks() {
                    // Non-forking: take the first match and leave this state.
                    self.arena.retire(inst);
                    return;
                }
            }
        }
        self.wait(k, inst);
    }

    /// Kleene state entry: the instance waits with an empty accumulator and
    /// every buffered candidate spawns subset growth (each non-empty
    /// accumulator also forks a closed copy that advances).
    fn enter_kleene(&mut self, mut inst: Instance, k: usize, out: &mut Vec<Match>) {
        // The gate orders one element's accumulator; a gate left by the
        // previous step's Kleene element must not filter this one.
        inst.kl_gate = 0;
        if self.cp.strategy.forks() {
            self.kleene_grow(&inst, k, out);
            self.wait(k, inst);
        } else {
            // Non-forking strategies: greedy singleton set (see crate docs).
            let elem = self.order[k];
            if let Some((bucket, span)) = self.catch_up(k, &inst) {
                for idx in span {
                    let c = &self.buffers[k].bucket(bucket)[idx];
                    if compatible_with(
                        &self.cp,
                        &self.program,
                        &inst,
                        elem,
                        c,
                        &self.consumed,
                        &mut self.metrics,
                    ) {
                        let advanced = self.arena.with_kleene(&inst, elem, c.clone());
                        self.enter(advanced, k + 1, out);
                        self.arena.retire(inst);
                        return;
                    }
                }
            }
            self.wait(k, inst);
        }
    }

    /// Recursively grows `base`'s accumulator with buffered events newer
    /// than its gate. Every grown accumulator is (a) kept waiting at state
    /// `k` and (b) closed into state `k + 1`.
    fn kleene_grow(&mut self, base: &Instance, k: usize, out: &mut Vec<Match>) {
        let elem = self.order[k];
        if base.kleene_len(elem) >= self.cfg.max_kleene_events {
            return;
        }
        let Some((bucket, span)) = self.catch_up(k, base) else {
            return;
        };
        for idx in span {
            let c = &self.buffers[k].bucket(bucket)[idx];
            if c.seq < base.kl_gate {
                continue;
            }
            if !compatible_with(
                &self.cp,
                &self.program,
                base,
                elem,
                c,
                &self.consumed,
                &mut self.metrics,
            ) {
                continue;
            }
            let grown = self.arena.with_kleene(base, elem, c.clone());
            self.metrics.partial_matches_created += 1;
            self.enter(grown.clone(), k + 1, out);
            self.kleene_grow(&grown, k, out);
            self.wait(k, grown);
        }
    }

    /// Delivers a fresh event to the instances already waiting at state
    /// `k` in the bucket `slot` addresses.
    fn deliver(&mut self, k: usize, slot: &Slot, event: &EventRef, out: &mut Vec<Match>) {
        let elem = self.order[k];
        self.metrics.index_probes += u64::from(self.keys[k].is_some());
        let Some(bucket) = self.states[k].probe(slot) else {
            return;
        };
        let kleene = self.cp.elements[elem].kleene;
        let forks = self.cp.strategy.forks();
        // Forking strategies never reorder a bucket, so only the slice of
        // instances the event can extend by window and precedence is
        // visited (a waiting Kleene instance may already hold members of
        // `elem`). Skip-till-next-match's `swap_remove` does reorder it.
        let span = if forks {
            let partner = &self.order[..k + usize::from(kleene)];
            let bound = std::iter::once((elem, event.ts, event.ts));
            let Some(range) = partner_ts_range(&self.cp, bound, partner) else {
                return;
            };
            sorted_span(self.states[k].bucket(bucket), &range, |i| i.max_ts)
        } else {
            0..self.states[k].bucket(bucket).len()
        };
        let len = span.len();
        let mut idx = span.start;
        let mut visited = 0;
        // Kills on emission (consuming strategies) can shrink the bucket
        // under the loop, hence the re-checked length; instances appended
        // while delivering (Kleene growth) lie past the span.
        while visited < len && idx < self.states[k].bucket(bucket).len() {
            let inst = &self.states[k].bucket(bucket)[idx];
            let ok = (!kleene
                || (event.seq >= inst.kl_gate
                    && inst.kleene_len(elem) < self.cfg.max_kleene_events))
                && compatible_with(
                    &self.cp,
                    &self.program,
                    inst,
                    elem,
                    event,
                    &self.consumed,
                    &mut self.metrics,
                );
            if ok {
                let next = if kleene {
                    self.metrics.partial_matches_created += 1;
                    self.arena.with_kleene(inst, elem, event.clone())
                } else {
                    self.arena.with_single(inst, elem, event.clone())
                };
                if !forks {
                    let old = self.states[k].swap_remove(bucket, idx);
                    self.arena.retire(old);
                    self.enter(next, k + 1, out);
                    visited += 1;
                    continue; // swap_remove moved a new element to idx
                }
                if kleene {
                    self.enter(next.clone(), k + 1, out);
                    self.wait(k, next);
                } else {
                    self.enter(next, k + 1, out);
                }
            }
            idx += 1;
            visited += 1;
        }
    }

    fn prune(&mut self) {
        let watermark = self.watermark;
        let window = self.cp.window;
        self.neg_buffers.prune(watermark, window);
        for buffer in &mut self.buffers {
            buffer.drain_front_while(|e| expired_at(e.ts, window, watermark));
        }
        let arena = &mut self.arena;
        for state in &mut self.states {
            state.retain(|i| !i.expired(watermark, window), |i| arena.retire(i));
        }
        self.consumed.retain_window(watermark, window);
    }
}

impl Engine for NfaEngine {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        debug_assert!(event.ts >= self.watermark, "events arrive in ts order");
        self.metrics.events_processed += 1;
        self.watermark = self.watermark.max(event.ts);
        let watermark = self.watermark;
        self.release_deferred(watermark, out);
        if !self.cp.negated.is_empty() {
            self.deferred.on_event(&self.cp, event);
        }
        self.events_since_prune += 1;
        if self.events_since_prune >= self.cfg.prune_every {
            self.events_since_prune = 0;
            self.prune();
        }
        if !self.cp.uses_type(event.type_id) {
            return;
        }
        self.metrics.events_relevant += 1;
        // Eager buffer pruning: a relevant-typed event that fails the
        // compiled single-element filters of *every* positive element of its
        // type (and whose type has no negated element) can never bind —
        // `compatible_with` would reject it at the filter stage everywhere.
        // Skipping it entirely keeps the buffers and state sets lean.
        if !self
            .program
            .can_ever_bind(event, &mut self.metrics.predicate_evaluations)
        {
            self.record_live();
            return;
        }
        if self.cp.negated_of_type(event.type_id).next().is_some() {
            self.neg_buffers.push(event.clone());
        }
        // Deliver and buffer, deepest state first: instances created while
        // processing this event only ever enter deeper states, whose
        // buffers already hold the event (their entry scans see it) and
        // whose deliveries are already done (they are not handed it again).
        for k in (0..self.order.len()).rev() {
            if self.cp.elements[self.order[k]].event_type != event.type_id {
                continue;
            }
            let slot = self.event_slot(k, event);
            self.deliver(k, &slot, event, out);
            self.buffers[k].push_in_order(slot, event.clone(), |e| e.ts);
        }
        // Virtual initial state: the first plan element starts instances.
        let first = self.order[0];
        if self.cp.elements[first].event_type == event.type_id {
            let root = &self.root;
            if self.cp.elements[first].kleene {
                if compatible_with(
                    &self.cp,
                    &self.program,
                    root,
                    first,
                    event,
                    &self.consumed,
                    &mut self.metrics,
                ) {
                    let seeded = self.arena.with_kleene(root, first, event.clone());
                    self.metrics.partial_matches_created += 1;
                    if self.cp.strategy.forks() {
                        self.enter(seeded.clone(), 1, out);
                        self.wait(0, seeded);
                    } else {
                        self.enter(seeded, 1, out);
                    }
                }
            } else if compatible_with(
                &self.cp,
                &self.program,
                root,
                first,
                event,
                &self.consumed,
                &mut self.metrics,
            ) {
                let seeded = self.arena.with_single(root, first, event.clone());
                self.enter(seeded, 1, out);
            }
        }
        self.record_live();
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
        "nfa"
    }
}
