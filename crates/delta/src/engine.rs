//! The delta-indexed evaluation engine.

use crate::index::{ts_range, WindowIndex};
use cep_core::buffer::TypeBuffers;
use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{Engine, EngineConfig};
use cep_core::event::{EventRef, Timestamp};
use cep_core::instance::{compatible_with, partner_ts_range, Instance};
use cep_core::keyed::index_key;
use cep_core::matches::{validate_match, Match};
use cep_core::metrics::EngineMetrics;
use cep_core::negation::DeferredStore;
use cep_core::selection::ConsumedSet;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// The delta-indexed (non-materializing) evaluation engine.
///
/// Semantically a drop-in third backend next to the NFA and tree engines:
/// byte-identical match output (signatures *and* `emitted_at`) to the
/// naive oracle under the three exact selection strategies. Instead of
/// materializing partial matches it keeps only a [`WindowIndex`] of the
/// live events that can bind — per-type deques plus equality-key posting
/// lists — and enumerates the matches completed by each arriving event on
/// demand, by a backtracking search that picks the cheapest index probe
/// first. An event that fails every filter of its type never enters the
/// index.
///
/// Under `SkipTillNextMatch` (the only non-exact strategy) the engine is
/// greedy like the NFA/tree engines, but its enumeration order may pick a
/// different witness than the oracle's, so only the three exact
/// strategies carry the byte-identity guarantee.
pub struct DeltaEngine {
    cp: CompiledPattern,
    cfg: EngineConfig,
    program: Arc<PredicateProgram>,
    index: WindowIndex,
    /// Negated-type events for the anchored anti-join scan performed by
    /// [`DeferredStore::admit`]; pruned in lockstep with the index.
    neg_buffers: TypeBuffers,
    deferred: DeferredStore,
    consumed: ConsumedSet,
    watermark: Timestamp,
    metrics: EngineMetrics,
}

impl DeltaEngine {
    /// Creates a delta engine for one compiled pattern branch. Unlike the
    /// NFA/tree constructors this is infallible: the delta engine needs no
    /// evaluation plan — its join order is chosen per search node from
    /// live posting-list sizes.
    pub fn new(cp: CompiledPattern, cfg: EngineConfig) -> DeltaEngine {
        let program = Arc::new(PredicateProgram::compile(&cp));
        DeltaEngine::with_program(cp, cfg, program)
    }

    /// [`DeltaEngine::new`] with a pre-lowered [`PredicateProgram`] (e.g.
    /// from a shared [`cep_core::compiled::PlanCache`]).
    pub fn with_program(
        cp: CompiledPattern,
        cfg: EngineConfig,
        program: Arc<PredicateProgram>,
    ) -> DeltaEngine {
        let keys = (0..cp.n()).flat_map(|elem| {
            let ty = cp.elements[elem].event_type;
            cp.eq_joins(elem).iter().map(move |j| (ty, j.attr))
        });
        let index = WindowIndex::new(keys);
        DeltaEngine {
            cp,
            cfg,
            program,
            index,
            neg_buffers: TypeBuffers::new(),
            deferred: DeferredStore::new(),
            consumed: ConsumedSet::new(),
            watermark: 0,
            metrics: EngineMetrics::new(),
        }
    }

    /// The compiled predicate program in use.
    pub fn program(&self) -> &Arc<PredicateProgram> {
        &self.program
    }

    /// The compiled pattern this engine evaluates.
    pub fn pattern(&self) -> &CompiledPattern {
        &self.cp
    }

    fn emit(&mut self, m: Match, out: &mut Vec<Match>) {
        if self.cp.strategy.consumes() && !self.consumed.consume(&m) {
            return;
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

    /// Enumerates all matches whose latest event is `newest`, then routes
    /// them through negation admission. The search pins `newest` at each
    /// element of its type in turn (every match contains it at exactly one
    /// element, so the pins partition the result set) and completes the
    /// remaining elements by index probes.
    fn enumerate(&mut self, newest: &EventRef, out: &mut Vec<Match>) {
        let t0 = Instant::now();
        let mut found = Vec::new();
        for j in 0..self.cp.n() {
            if self.cp.elements[j].event_type != newest.type_id {
                continue;
            }
            let inst = Instance::empty(self.cp.n());
            if self.cp.elements[j].kleene {
                self.pinned_kleene(j, newest, &inst, &mut found);
            } else if compatible_with(
                &self.cp,
                &self.program,
                &inst,
                j,
                newest,
                &self.consumed,
                &mut self.metrics,
            ) {
                let inst = inst.with_single(j, newest.clone());
                self.extend(newest, &inst, &mut found);
            }
        }
        self.metrics
            .enumeration_ns
            .record(t0.elapsed().as_nanos() as u64);
        for m in found {
            if let Some(m) = self
                .deferred
                .admit(&self.cp, m, self.watermark, &self.neg_buffers)
            {
                self.emit(m, out);
            }
        }
    }

    /// Pins `newest` inside the Kleene accumulator of element `j`: every
    /// subset bound at `j` must contain it, so the search enumerates
    /// subsets of *older* candidates (in serial order, like the oracle)
    /// and closes each — including the empty one — with `newest`.
    fn pinned_kleene(
        &mut self,
        j: usize,
        newest: &EventRef,
        inst: &Instance,
        found: &mut Vec<Match>,
    ) {
        if self.cfg.max_kleene_events == 0 {
            return;
        }
        let candidates: Vec<EventRef> = self
            .candidates_for(j, inst)
            .into_iter()
            .filter(|e| e.seq < newest.seq)
            .collect();
        self.pinned_kleene_rec(j, newest, &candidates, 0, inst, 0, found);
    }

    #[allow(clippy::too_many_arguments)]
    fn pinned_kleene_rec(
        &mut self,
        j: usize,
        newest: &EventRef,
        candidates: &[EventRef],
        from: usize,
        inst: &Instance,
        depth: usize,
        found: &mut Vec<Match>,
    ) {
        if compatible_with(
            &self.cp,
            &self.program,
            inst,
            j,
            newest,
            &self.consumed,
            &mut self.metrics,
        ) {
            let closed = inst.with_kleene(j, newest.clone());
            self.extend(newest, &closed, found);
        }
        // `newest` always occupies one slot, so older members may fill at
        // most `max_kleene_events - 1`.
        if depth + 1 >= self.cfg.max_kleene_events {
            return;
        }
        for i in from..candidates.len() {
            if !compatible_with(
                &self.cp,
                &self.program,
                inst,
                j,
                &candidates[i],
                &self.consumed,
                &mut self.metrics,
            ) {
                continue;
            }
            let grown = inst.with_kleene(j, candidates[i].clone());
            self.pinned_kleene_rec(j, newest, candidates, i + 1, &grown, depth + 1, found);
        }
    }

    /// Binds the remaining elements of `inst`, cheapest live pool first;
    /// emits into `found` at full assignments that validate.
    fn extend(&mut self, newest: &EventRef, inst: &Instance, found: &mut Vec<Match>) {
        let Some(elem) = self.next_element(inst) else {
            let m = Match {
                bindings: inst
                    .bindings
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
        };
        let candidates = self.candidates_for(elem, inst);
        if self.cp.elements[elem].kleene {
            self.kleene_subsets(elem, newest, &candidates, 0, inst, 0, found);
        } else {
            for c in candidates {
                if !compatible_with(
                    &self.cp,
                    &self.program,
                    inst,
                    elem,
                    &c,
                    &self.consumed,
                    &mut self.metrics,
                ) {
                    continue;
                }
                let bound = inst.with_single(elem, c);
                self.extend(newest, &bound, found);
            }
        }
    }

    /// Enumerates non-empty, capped subsets of `candidates` (in serial
    /// order, mirroring the oracle) as the Kleene accumulator of `elem`,
    /// recursing into [`DeltaEngine::extend`] for each.
    #[allow(clippy::too_many_arguments)]
    fn kleene_subsets(
        &mut self,
        elem: usize,
        newest: &EventRef,
        candidates: &[EventRef],
        from: usize,
        inst: &Instance,
        depth: usize,
        found: &mut Vec<Match>,
    ) {
        if depth > 0 {
            self.extend(newest, inst, found);
        }
        if depth >= self.cfg.max_kleene_events {
            return;
        }
        for i in from..candidates.len() {
            if !compatible_with(
                &self.cp,
                &self.program,
                inst,
                elem,
                &candidates[i],
                &self.consumed,
                &mut self.metrics,
            ) {
                continue;
            }
            let grown = inst.with_kleene(elem, candidates[i].clone());
            self.kleene_subsets(elem, newest, candidates, i + 1, &grown, depth + 1, found);
        }
    }

    /// The unbound element with the smallest live candidate pool (ties by
    /// element index), or `None` when every element is bound.
    fn next_element(&self, inst: &Instance) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for elem in 0..self.cp.n() {
            if inst.bindings[elem].is_some() {
                continue;
            }
            let est = self.pool_estimate(elem, inst);
            if best.is_none_or(|(b, _)| est < b) {
                best = Some((est, elem));
            }
        }
        best.map(|(_, elem)| elem)
    }

    /// Upper bound on `elem`'s candidate pool: the smallest posting list
    /// reachable through an equality join to a bound partner, else the
    /// whole type store (0 when a partner's key is unkeyable — `==` can
    /// never hold, so the branch is dead).
    fn pool_estimate(&self, elem: usize, inst: &Instance) -> usize {
        let ty = self.cp.elements[elem].event_type;
        let mut best = self.index.type_len(ty);
        for join in self.cp.eq_joins(elem) {
            let Some(b) = &inst.bindings[join.other] else {
                continue;
            };
            let partner = b.events().next().expect("bindings are non-empty");
            match partner.attr(join.other_attr).and_then(index_key) {
                None => return 0,
                Some(key) => best = best.min(self.index.posting_len(ty, join.attr, &key)),
            }
        }
        best
    }

    /// Materializes the candidate pool for `elem` under `inst`: the best
    /// equality-join probe (or full type scan), narrowed to the timestamp
    /// range that window and precedence constraints against the bound
    /// elements allow. A superset of the events `compatible_with` accepts,
    /// so shrinking the pool never loses a match.
    fn candidates_for(&mut self, elem: usize, inst: &Instance) -> Vec<EventRef> {
        let ty = self.cp.elements[elem].event_type;
        // Timestamp bounds: window span against the bound extents, strict
        // precedence against each bound element.
        let Some(range) = partner_ts_range(&self.cp, inst.extents(), &[elem]) else {
            return Vec::new();
        };
        // Pool: cheapest equality-join probe over bound partners, else the
        // whole type store.
        let mut pool = self.index.of_type(ty);
        let mut probed = false;
        for join in self.cp.eq_joins(elem) {
            let Some(b) = &inst.bindings[join.other] else {
                continue;
            };
            let partner = b.events().next().expect("bindings are non-empty");
            let Some(key) = partner.attr(join.other_attr).and_then(index_key) else {
                // `==` against an unkeyable value (missing attribute or
                // NaN) holds for no event.
                return Vec::new();
            };
            let list = self.index.posting(ty, join.attr, &key);
            if list.map_or(0, VecDeque::len) <= pool.map_or(0, VecDeque::len) {
                pool = list;
                probed = true;
            }
        }
        let out = pool.map_or_else(Vec::new, |d| ts_range(d, &range).cloned().collect());
        if probed {
            self.metrics.index_probes += 1;
        }
        out
    }
}

impl Engine for DeltaEngine {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        debug_assert!(event.ts >= self.watermark, "events arrive in ts order");
        self.metrics.events_processed += 1;
        self.watermark = self.watermark.max(event.ts);
        let watermark = self.watermark;
        self.release_deferred(watermark, out);
        self.deferred.on_event(&self.cp, event);
        // Expire every event: the inverse delta is amortized O(1), and the
        // negation buffer must match the oracle's view exactly.
        let expired = self.index.expire(watermark, self.cp.window);
        self.metrics.delta_updates += expired;
        self.neg_buffers.prune(watermark, self.cp.window);
        if self
            .metrics
            .events_processed
            .is_multiple_of(self.cfg.prune_every)
        {
            self.consumed.retain_window(watermark, self.cp.window);
        }
        if !self.cp.uses_type(event.type_id) {
            return;
        }
        self.metrics.events_relevant += 1;
        // Eager pruning, as in the NFA: an event that fails the filters of
        // every positive element of its type (and whose type has no negated
        // element) would be rejected by `compatible_with` at every bind
        // attempt, so it is neither indexed nor enumerated.
        if self
            .program
            .can_ever_bind(event, &mut self.metrics.predicate_evaluations)
        {
            let positive = self.cp.elements_of_type(event.type_id).next().is_some();
            if positive {
                let inserted = self.index.insert(event.clone());
                self.metrics.delta_updates += inserted;
            }
            if self.cp.negated_of_type(event.type_id).next().is_some() {
                self.neg_buffers.push(event.clone());
            }
            if positive {
                self.enumerate(event, out);
            }
        }
        self.metrics.record_live(
            self.deferred.len(),
            self.index.len() + self.neg_buffers.len(),
        );
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
        "delta"
    }
}
