//! The engine shell: everything the tree and delta backends do around
//! their join.
//!
//! The paper treats every CEP plan as a join plan (§4–5), so the backends
//! differ only in how they join. The rest is one [`EngineShell`]:
//!
//! * **State.** The compiled pattern, the predicate program, the shared
//!   empty instance, the watermark, the deferred negation store, the
//!   negated-type buffers, the consumed set, the prune cadence and the
//!   metrics. Partial matches are plain values: a derivation clones its
//!   source, and a dead instance is dropped where it dies, so the heap
//!   holds live join state only.
//! * **Prologue** ([`EngineShell::process`]). Advance the watermark
//!   (dropping a late event), release deferred matches, test the event
//!   against parked ones, prune, skip irrelevant types, gate through
//!   [`PredicateProgram::can_ever_bind`], buffer negated types, and only
//!   then hand the event to the backend's [`Join::arrive`].
//! * **Emission** ([`EngineShell::finalize`]). Contiguity and consumed
//!   checks, build the [`Match`], admit it through the negation check,
//!   consume its events and kill the partial matches that hold one.
//!
//! A backend implements [`Join`] and forwards its [`Engine`] methods to
//! [`EngineShell::process`] and [`EngineShell::flush`]. The calls are
//! generic, so the per-event path dispatches statically.
//!
//! [`Engine`]: crate::engine::Engine

use crate::buffer::TypeBuffers;
use crate::compile::CompiledPattern;
use crate::compiled::PredicateProgram;
use crate::engine::EngineConfig;
use crate::event::{advance_watermark, EventRef, Timestamp};
use crate::instance::{
    compatible_with, contiguity_ok, events_join, joins_event, merge_compatible_with, Instance,
};
use crate::keyed::KeyedStore;
use crate::matches::Match;
use crate::metrics::EngineMetrics;
use crate::negation::DeferredStore;
use crate::selection::ConsumedSet;
use std::sync::Arc;

/// A backend's join: the state and code that differ between the tree and
/// delta engines.
pub trait Join {
    /// Binds `event` into the join state. The shell calls it only for an
    /// event of a pattern type that passed the gate; an event of a negated
    /// type is already buffered. Every instance that binds all positive
    /// elements goes to [`EngineShell::finalize`].
    fn arrive(&mut self, shell: &mut EngineShell, event: &EventRef, out: &mut Vec<Match>);

    /// The stores of partial matches. On emission under a consuming
    /// strategy the shell kills the instances that hold a consumed event,
    /// and every `prune_every` events the expired ones.
    fn partials(&mut self) -> &mut [KeyedStore<Instance>];

    /// Events held in the backend's own stores, for the memory metric.
    fn buffered(&self) -> usize;

    /// Drops what expired at `watermark` from the backend's event stores.
    /// The shell calls it on every event; `due` is set every `prune_every`
    /// events, when it prunes [`partials`](Join::partials) too.
    fn prune(
        &mut self,
        _watermark: Timestamp,
        _window: u64,
        _due: bool,
        _metrics: &mut EngineMetrics,
    ) {
    }
}

/// The state and per-event work every backend shares (see the module
/// docs).
pub struct EngineShell {
    /// Runtime metrics.
    pub metrics: EngineMetrics,
    cp: CompiledPattern,
    cfg: EngineConfig,
    /// Compiled from `cp`.
    program: Arc<PredicateProgram>,
    /// The instance of `cp.n()` unbound elements every seed is checked
    /// against and derived from.
    empty: Instance,
    watermark: Timestamp,
    deferred: DeferredStore,
    /// Buffered events of negated types, for negation checks only.
    negated: TypeBuffers,
    consumed: ConsumedSet,
    events_since_prune: u64,
}

impl EngineShell {
    /// A shell for one compiled pattern branch.
    pub fn new(cp: CompiledPattern, cfg: EngineConfig, program: Arc<PredicateProgram>) -> Self {
        EngineShell {
            empty: Instance::empty(cp.n()),
            cp,
            cfg,
            program,
            metrics: EngineMetrics::new(),
            watermark: 0,
            deferred: DeferredStore::new(),
            negated: TypeBuffers::new(),
            consumed: ConsumedSet::new(),
            events_since_prune: 0,
        }
    }

    /// The compiled pattern branch.
    #[inline]
    pub fn pattern(&self) -> &CompiledPattern {
        &self.cp
    }

    /// Runtime knobs.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The compiled predicate program.
    pub fn program(&self) -> &Arc<PredicateProgram> {
        &self.program
    }

    /// Processes one event: the shared prologue, then `join`'s
    /// [`arrive`](Join::arrive) for a relevant event that passes the gate.
    pub fn process<J: Join>(&mut self, join: &mut J, event: &EventRef, out: &mut Vec<Match>) {
        if !advance_watermark(&mut self.watermark, event.ts) {
            self.metrics.late_events_dropped += 1;
            return;
        }
        self.metrics.events_processed += 1;
        let (watermark, window) = (self.watermark, self.cp.window);
        self.release_deferred(join.partials(), watermark, out);
        if !self.cp.negated.is_empty() {
            self.deferred.on_event(&self.cp, event);
        }
        // Every event, not only when pruning is due: the buffered-event peak
        // then counts only events a negation check can still see.
        self.negated.prune(watermark, window);
        self.events_since_prune += 1;
        let due = self.events_since_prune >= self.cfg.prune_every;
        if due {
            self.events_since_prune = 0;
            for store in join.partials() {
                store.retain(|i| !i.expired(watermark, window));
            }
            self.consumed.retain_window(watermark, window);
        }
        join.prune(watermark, window, due, &mut self.metrics);
        if !self.cp.uses_type(event.type_id) {
            return;
        }
        self.metrics.events_relevant += 1;
        // Eager pruning: an event that fails the filters of every positive
        // element of its type (and whose type has no negated element) would
        // be rejected by `compatible_with` at every bind attempt, so it
        // never enters the join state.
        if self
            .program
            .can_ever_bind(event, &mut self.metrics.predicate_evaluations)
        {
            if self.cp.negated_of_type(event.type_id).next().is_some() {
                self.negated.push(event.clone());
            }
            join.arrive(self, event, out);
        }
        let partials = join.partials().iter().map(KeyedStore::len).sum::<usize>();
        self.metrics.record_live(
            partials + self.deferred.len(),
            join.buffered() + self.negated.len(),
        );
    }

    /// Signals end-of-stream: releases every deferred match.
    pub fn flush<J: Join>(&mut self, join: &mut J, out: &mut Vec<Match>) {
        self.release_deferred(join.partials(), Timestamp::MAX, out);
    }

    /// Whether `event` can bind at `elem` of `inst` ([`compatible_with`]).
    #[inline]
    pub fn compatible(&mut self, inst: &Instance, elem: usize, event: &EventRef) -> bool {
        compatible_with(
            &self.cp,
            &self.program,
            inst,
            elem,
            event,
            &self.consumed,
            &mut self.metrics,
        )
    }

    /// Whether two instances over disjoint element sets can merge
    /// ([`merge_compatible_with`]).
    #[inline]
    pub fn merge_compatible(&mut self, left: &Instance, right: &Instance) -> bool {
        merge_compatible_with(
            &self.cp,
            &self.program,
            left,
            right,
            &self.consumed,
            &mut self.metrics,
        )
    }

    /// Whether `inst` may take one more member at `elem`: always at a plain
    /// element, below `max_kleene_events` members at a Kleene one.
    #[inline]
    pub fn has_room(&self, inst: &Instance, elem: usize) -> bool {
        !self.cp.elements[elem].kleene || inst.kleene_len(elem) < self.cfg.max_kleene_events
    }

    /// Whether `event` may bind alone at `elem`: it has room there and is
    /// compatible with the empty instance (not consumed, passes the
    /// element's filters).
    pub fn admits(&mut self, elem: usize, event: &EventRef) -> bool {
        self.has_room(&self.empty, elem)
            && compatible_with(
                &self.cp,
                &self.program,
                &self.empty,
                elem,
                event,
                &self.consumed,
                &mut self.metrics,
            )
    }

    /// Whether `event`, admitted at `elem`, joins `inst`: the verdict and
    /// evaluations of [`merge_compatible`](Self::merge_compatible) against
    /// the event's one-element instance, without building it
    /// ([`joins_event`]).
    #[inline]
    pub fn joins(&mut self, inst: &Instance, elem: usize, event: &EventRef) -> bool {
        !(self.cp.strategy.consumes()
            && (self.consumed.contains(event.seq) || inst.intersects(&self.consumed)))
            && joins_event(
                &self.cp,
                &self.program,
                inst,
                elem,
                event,
                &mut self.metrics,
            )
    }

    /// Whether events admitted at plain elements `a.0` and `b.0` bind
    /// together: [`merge_compatible`](Self::merge_compatible) of their
    /// one-element instances, without building either ([`events_join`]).
    #[inline]
    pub fn events_join(&mut self, a: (usize, &EventRef), b: (usize, &EventRef)) -> bool {
        !(self.cp.strategy.consumes()
            && (self.consumed.contains(a.1.seq) || self.consumed.contains(b.1.seq)))
            && events_join(&self.cp, &self.program, a, b, &mut self.metrics)
    }

    /// The instance binding event `a.1` at plain element `a.0` and `b.1` at
    /// `b.0`.
    pub fn pair(&self, a: (usize, &EventRef), b: (usize, &EventRef)) -> Instance {
        let mut inst = self.empty.with_single(a.0, a.1.clone());
        inst.bind_single(b.0, b.1.clone());
        inst
    }

    /// The instance that binds `event` alone at `elem`, if the shell
    /// [`admits`](Self::admits) it there: set at a plain element, the
    /// first member of a Kleene element's accumulator.
    pub fn seed(&mut self, elem: usize, event: &EventRef) -> Option<Instance> {
        if !self.admits(elem, event) {
            return None;
        }
        let event = event.clone();
        Some(if self.cp.elements[elem].kleene {
            self.empty.with_kleene(elem, event)
        } else {
            self.empty.with_single(elem, event)
        })
    }

    /// Completes `inst`, which binds every positive element: drops it if
    /// it breaks contiguity or holds a consumed event, otherwise builds
    /// the match and admits it through the negation check, emitting it now or parking it until its
    /// forbidden intervals close.
    pub fn finalize(
        &mut self,
        mut inst: Instance,
        partials: &mut [KeyedStore<Instance>],
        out: &mut Vec<Match>,
    ) {
        if !contiguity_ok(&self.cp, &inst)
            || (self.cp.strategy.consumes() && inst.intersects(&self.consumed))
        {
            return;
        }
        let elements = &self.cp.elements;
        let m = Match {
            bindings: inst
                .bindings
                .iter_mut()
                .map(Option::take)
                .enumerate()
                .map(|(i, b)| {
                    let b = b.expect("finalize requires all elements bound");
                    (elements[i].position, b)
                })
                .collect(),
            last_ts: inst.max_ts,
            emitted_at: self.watermark,
        };
        if let Some(m) = self
            .deferred
            .admit(&self.cp, m, self.watermark, &self.negated)
        {
            self.emit(m, partials, out);
        }
    }

    /// Emits `m`. Under a consuming strategy it first consumes the match's
    /// events, dropping the match if one is consumed already, and kills
    /// the partial matches that hold a consumed event.
    fn emit(&mut self, m: Match, partials: &mut [KeyedStore<Instance>], out: &mut Vec<Match>) {
        if self.cp.strategy.consumes() {
            if !self.consumed.consume(&m) {
                return;
            }
            let consumed = &self.consumed;
            for store in partials {
                store.retain(|i| !i.intersects(consumed));
            }
        }
        self.metrics.matches_emitted += 1;
        out.push(m);
    }

    fn release_deferred(
        &mut self,
        partials: &mut [KeyedStore<Instance>],
        watermark: Timestamp,
        out: &mut Vec<Match>,
    ) {
        if self.cp.negated.is_empty() {
            return;
        }
        let mut ready = Vec::new();
        self.deferred.drain_ready(watermark, &mut ready);
        for m in ready {
            self.emit(m, partials, out);
        }
    }
}
