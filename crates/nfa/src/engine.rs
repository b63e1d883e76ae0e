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
//!
//! Everything around the chain — gate, negation, emission, pruning of the
//! states — is the shared [`EngineShell`].

use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{Engine, EngineConfig};
use cep_core::error::CepError;
use cep_core::event::{expired_at, EventRef, Timestamp};
use cep_core::instance::{partner_ts_range, sorted_span, Instance};
use cep_core::join_graph::EqJoin;
use cep_core::keyed::{BucketId, KeyedStore, Slot};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::plan::OrderPlan;
use cep_core::shell::{EngineShell, Join};
use std::ops::Range;
use std::sync::Arc;

/// Order-based (lazy NFA) evaluation engine.
pub struct NfaEngine {
    shell: EngineShell,
    chain: Chain,
}

/// The NFA's join state: one state and one event buffer per plan step.
struct Chain {
    order: Vec<usize>,
    /// `keys[k]`: the equality join of `order[k]` against an element of
    /// `order[..k]` that buckets step `k`'s state, if there is one.
    keys: Vec<Option<EqJoin>>,
    /// `states[k]`: instances waiting for element `order[k]`.
    states: Vec<KeyedStore<Instance>>,
    /// `buffers[k]`: buffered events of `order[k]`'s type, in arrival order.
    buffers: Vec<KeyedStore<EventRef>>,
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
        let chain = Chain {
            keys: (0..order.len())
                .map(|k| cp.join_key(&order[k..=k], &order[..k]).cloned())
                .collect(),
            states: order.iter().map(|_| KeyedStore::new()).collect(),
            buffers: order.iter().map(|_| KeyedStore::new()).collect(),
            order,
        };
        Ok(NfaEngine {
            shell: EngineShell::new(cp, cfg, program),
            chain,
        })
    }

    /// The compiled predicate program driving this engine.
    pub fn program(&self) -> &Arc<PredicateProgram> {
        self.shell.program()
    }

    /// Convenience constructor with the trivial (specification-order) plan.
    pub fn with_trivial_plan(cp: CompiledPattern, cfg: EngineConfig) -> NfaEngine {
        let plan = OrderPlan::trivial(&cp);
        NfaEngine::new(cp, plan, cfg).expect("trivial plan always fits")
    }

    /// The plan order driving this engine.
    pub fn order(&self) -> &[usize] {
        &self.chain.order
    }
}

impl Chain {
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
    fn catch_up(
        &self,
        sh: &mut EngineShell,
        k: usize,
        inst: &Instance,
    ) -> Option<(BucketId, Range<usize>)> {
        sh.metrics.index_probes += u64::from(self.keys[k].is_some());
        let bucket = self.buffers[k].probe(&self.instance_slot(k, inst))?;
        let range = partner_ts_range(sh.pattern(), inst.extents(), &self.order[k..=k])?;
        let span = sorted_span(self.buffers[k].bucket(bucket), &range, |e| e.ts);
        Some((bucket, span))
    }

    /// Instance enters state `k`: register it and catch up on the buffer.
    fn enter(&mut self, sh: &mut EngineShell, mut inst: Instance, k: usize, out: &mut Vec<Match>) {
        if k == self.order.len() {
            sh.finalize(inst, &mut self.states, out);
            return;
        }
        sh.metrics.partial_matches_created += 1;
        let elem = self.order[k];
        let forks = sh.pattern().strategy.forks();
        if sh.pattern().elements[elem].kleene {
            // The gate orders one element's accumulator; a gate left by the
            // previous step's Kleene element must not filter this one.
            inst.kl_gate = 0;
            if forks {
                // The instance waits with an empty accumulator and every
                // buffered candidate spawns subset growth.
                self.kleene_grow(sh, &inst, k, out);
                self.wait(k, inst);
                return;
            }
        }
        // Forking strategies advance with every compatible buffered event;
        // skip-till-next-match takes the first one and leaves the state (a
        // Kleene element takes the greedy singleton set, see crate docs).
        // Buffers are never mutated while an event is being processed, so
        // the bucket is walked by index and only a binding event is cloned.
        if sh.has_room(&inst, elem) {
            if let Some((bucket, span)) = self.catch_up(sh, k, &inst) {
                for idx in span {
                    let c = &self.buffers[k].bucket(bucket)[idx];
                    if !sh.compatible(&inst, elem, c) {
                        continue;
                    }
                    let advanced = sh.bind(&inst, elem, c.clone());
                    self.enter(sh, advanced, k + 1, out);
                    if !forks {
                        return;
                    }
                }
            }
        }
        self.wait(k, inst);
    }

    /// Recursively grows `base`'s accumulator with buffered events newer
    /// than its gate. Every grown accumulator is (a) kept waiting at state
    /// `k` and (b) closed into state `k + 1`.
    fn kleene_grow(
        &mut self,
        sh: &mut EngineShell,
        base: &Instance,
        k: usize,
        out: &mut Vec<Match>,
    ) {
        let elem = self.order[k];
        if !sh.has_room(base, elem) {
            return;
        }
        let Some((bucket, span)) = self.catch_up(sh, k, base) else {
            return;
        };
        for idx in span {
            let c = &self.buffers[k].bucket(bucket)[idx];
            if c.seq < base.kl_gate || !sh.compatible(base, elem, c) {
                continue;
            }
            let grown = base.with_kleene(elem, c.clone());
            sh.metrics.partial_matches_created += 1;
            self.enter(sh, grown.clone(), k + 1, out);
            self.kleene_grow(sh, &grown, k, out);
            self.wait(k, grown);
        }
    }

    /// Delivers a fresh event to the instances already waiting at state
    /// `k` in the bucket `slot` addresses.
    fn deliver(
        &mut self,
        sh: &mut EngineShell,
        k: usize,
        slot: &Slot,
        event: &EventRef,
        out: &mut Vec<Match>,
    ) {
        let elem = self.order[k];
        sh.metrics.index_probes += u64::from(self.keys[k].is_some());
        let Some(bucket) = self.states[k].probe(slot) else {
            return;
        };
        let kleene = sh.pattern().elements[elem].kleene;
        let forks = sh.pattern().strategy.forks();
        // Forking strategies never reorder a bucket, so only the slice of
        // instances the event can extend by window and precedence is
        // visited (a waiting Kleene instance may already hold members of
        // `elem`). Skip-till-next-match's `swap_remove` does reorder it.
        let span = if forks {
            let partner = &self.order[..k + usize::from(kleene)];
            let bound = std::iter::once((elem, event.ts, event.ts));
            let Some(range) = partner_ts_range(sh.pattern(), bound, partner) else {
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
            if (!kleene || event.seq >= inst.kl_gate)
                && sh.has_room(inst, elem)
                && sh.compatible(inst, elem, event)
            {
                sh.metrics.partial_matches_created += u64::from(kleene);
                let next = sh.bind(inst, elem, event.clone());
                if !forks {
                    self.states[k].swap_remove(bucket, idx);
                    self.enter(sh, next, k + 1, out);
                    visited += 1;
                    continue; // swap_remove moved a new element to idx
                }
                if kleene {
                    self.enter(sh, next.clone(), k + 1, out);
                    self.wait(k, next);
                } else {
                    self.enter(sh, next, k + 1, out);
                }
            }
            idx += 1;
            visited += 1;
        }
    }
}

impl Join for Chain {
    fn arrive(&mut self, sh: &mut EngineShell, event: &EventRef, out: &mut Vec<Match>) {
        // Deliver and buffer, deepest state first: instances created while
        // processing this event only ever enter deeper states, whose
        // buffers already hold the event (their entry scans see it) and
        // whose deliveries are already done (they are not handed it again).
        for k in (0..self.order.len()).rev() {
            if sh.pattern().elements[self.order[k]].event_type != event.type_id {
                continue;
            }
            let slot = self.event_slot(k, event);
            self.deliver(sh, k, &slot, event, out);
            self.buffers[k].push_in_order(slot, event.clone(), |e| e.ts);
        }
        // Virtual initial state: the first plan element starts instances.
        let first = self.order[0];
        if sh.pattern().elements[first].event_type != event.type_id {
            return;
        }
        let Some(seeded) = sh.seed(first, event) else {
            return;
        };
        if sh.pattern().elements[first].kleene {
            sh.metrics.partial_matches_created += 1;
            if sh.pattern().strategy.forks() {
                self.enter(sh, seeded.clone(), 1, out);
                self.wait(0, seeded);
                return;
            }
        }
        self.enter(sh, seeded, 1, out);
    }

    fn partials(&mut self) -> &mut [KeyedStore<Instance>] {
        &mut self.states
    }

    fn buffered(&self) -> usize {
        self.buffers.iter().map(KeyedStore::len).sum()
    }

    fn prune(&mut self, watermark: Timestamp, window: u64, due: bool, _: &mut EngineMetrics) {
        if due {
            for buffer in &mut self.buffers {
                buffer.drain_front_while(|e| expired_at(e.ts, window, watermark));
            }
        }
    }
}

impl Engine for NfaEngine {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        self.shell.process(&mut self.chain, event, out);
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        self.shell.flush(&mut self.chain, out);
    }

    fn metrics(&self) -> &EngineMetrics {
        &self.shell.metrics
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.shell.metrics
    }

    fn name(&self) -> &'static str {
        "nfa"
    }
}
