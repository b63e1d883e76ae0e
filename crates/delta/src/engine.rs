//! The delta-indexed evaluation engine.

use crate::index::{ts_span, WindowIndex};
use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{Engine, EngineConfig};
use cep_core::event::{EventRef, Timestamp};
use cep_core::instance::{partner_ts_range, Instance};
use cep_core::keyed::{index_key, KeyedStore};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::shell::{EngineShell, Join};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The delta-indexed (non-materializing) evaluation engine.
///
/// Semantically a drop-in second backend next to the tree engine:
/// byte-identical match output (signatures *and* `emitted_at`) to the
/// naive oracle under the three exact selection strategies. Instead of
/// materializing partial matches it keeps only a [`WindowIndex`] of the
/// live events that can bind — per-type deques plus equality-key posting
/// lists — and enumerates the matches completed by each arriving event on
/// demand, by a backtracking search that picks the cheapest index probe
/// first. Gate, negation and emission are the shared [`EngineShell`].
///
/// Under `SkipTillNextMatch` (the only non-exact strategy) the engine is
/// consuming like the tree engine, but its enumeration order may pick a
/// different witness than the oracle's, so only the three exact
/// strategies carry the byte-identity guarantee.
pub struct DeltaEngine {
    shell: EngineShell,
    search: Search,
}

/// The delta engine's join: the window index and the search over it.
struct Search {
    index: WindowIndex,
}

/// A search node's candidates: a ts-ordered index list and the index
/// range of the members window and precedence let it bind.
type Pool<'a> = (&'a VecDeque<EventRef>, Range<usize>);

impl DeltaEngine {
    /// Creates a delta engine for one compiled pattern branch. Unlike the
    /// tree constructors this is infallible: the delta engine needs no
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
        let graph = cp.join_graph();
        let keys = (0..cp.n()).flat_map(|elem| {
            let ty = cp.elements[elem].event_type;
            graph.edges(elem).iter().map(move |j| (ty, j.attr))
        });
        let search = Search {
            index: WindowIndex::new(keys),
        };
        DeltaEngine {
            shell: EngineShell::new(cp, cfg, program),
            search,
        }
    }

    /// The compiled predicate program in use.
    pub fn program(&self) -> &Arc<PredicateProgram> {
        self.shell.program()
    }

    /// The compiled pattern this engine evaluates.
    pub fn pattern(&self) -> &CompiledPattern {
        self.shell.pattern()
    }
}

impl Search {
    /// Enumerates all matches whose latest event is `newest` and finalizes
    /// them. The search pins `newest` at each element of its type in turn
    /// (every match contains it at exactly one element, so the pins
    /// partition the result set) and completes the remaining elements by
    /// index probes.
    fn enumerate(&self, sh: &mut EngineShell, newest: &EventRef, out: &mut Vec<Match>) {
        let t0 = Instant::now();
        let mut found = Vec::new();
        for j in 0..sh.pattern().n() {
            if sh.pattern().elements[j].event_type != newest.type_id {
                continue;
            }
            if sh.pattern().elements[j].kleene {
                self.pinned_kleene(sh, j, newest, &mut found);
            } else if let Some(inst) = sh.seed(j, newest) {
                self.extend(sh, newest, &inst, &mut found);
            }
        }
        sh.metrics
            .enumeration_ns
            .record(t0.elapsed().as_nanos() as u64);
        for inst in found {
            sh.finalize(inst, &mut [], out);
        }
    }

    /// Pins `newest` inside the Kleene accumulator of element `j`: every
    /// subset bound at `j` must contain it, so the search enumerates
    /// subsets of *older* candidates (in serial order, like the oracle)
    /// and closes each — including the empty one — with `newest`.
    fn pinned_kleene(
        &self,
        sh: &mut EngineShell,
        j: usize,
        newest: &EventRef,
        found: &mut Vec<Instance>,
    ) {
        if sh.config().max_kleene_events == 0 {
            return;
        }
        let empty = Instance::empty(sh.pattern().n());
        // With no candidate, `newest` still closes the empty subset.
        let no_candidates = VecDeque::new();
        let (pool, span) = self
            .candidates_for(sh, j, &empty)
            .unwrap_or((&no_candidates, 0..0));
        self.pinned_kleene_rec(sh, j, newest, pool, span, &empty, 0, found);
    }

    #[allow(clippy::too_many_arguments)]
    fn pinned_kleene_rec(
        &self,
        sh: &mut EngineShell,
        j: usize,
        newest: &EventRef,
        pool: &VecDeque<EventRef>,
        span: Range<usize>,
        inst: &Instance,
        depth: usize,
        found: &mut Vec<Instance>,
    ) {
        if sh.compatible(inst, j, newest) {
            let closed = inst.with_kleene(j, newest.clone());
            self.extend(sh, newest, &closed, found);
        }
        // `newest` always occupies one slot, so older members may fill at
        // most `max_kleene_events - 1`.
        if depth + 1 >= sh.config().max_kleene_events {
            return;
        }
        for i in span.clone() {
            let c = &pool[i];
            // Only older candidates: `newest` closes every subset.
            if c.seq >= newest.seq || !sh.compatible(inst, j, c) {
                continue;
            }
            let grown = inst.with_kleene(j, c.clone());
            self.pinned_kleene_rec(
                sh,
                j,
                newest,
                pool,
                i + 1..span.end,
                &grown,
                depth + 1,
                found,
            );
        }
    }

    /// Binds the remaining elements of `inst`, cheapest live pool first;
    /// collects full assignments into `found`.
    fn extend(
        &self,
        sh: &mut EngineShell,
        newest: &EventRef,
        inst: &Instance,
        found: &mut Vec<Instance>,
    ) {
        let Some(elem) = self.next_element(sh.pattern(), inst) else {
            found.push(inst.clone());
            return;
        };
        let Some((pool, span)) = self.candidates_for(sh, elem, inst) else {
            return;
        };
        if sh.pattern().elements[elem].kleene {
            self.kleene_subsets(sh, elem, newest, pool, span, inst, found);
        } else {
            for c in pool.range(span) {
                if !sh.compatible(inst, elem, c) {
                    continue;
                }
                let bound = inst.with_single(elem, c.clone());
                self.extend(sh, newest, &bound, found);
            }
        }
    }

    /// Enumerates non-empty, capped subsets of `pool[span]` (in serial
    /// order, mirroring the oracle) as the Kleene accumulator of `elem`,
    /// recursing into [`Search::extend`] for each.
    #[allow(clippy::too_many_arguments)]
    fn kleene_subsets(
        &self,
        sh: &mut EngineShell,
        elem: usize,
        newest: &EventRef,
        pool: &VecDeque<EventRef>,
        span: Range<usize>,
        inst: &Instance,
        found: &mut Vec<Instance>,
    ) {
        if inst.kleene_len(elem) > 0 {
            self.extend(sh, newest, inst, found);
        }
        if !sh.has_room(inst, elem) {
            return;
        }
        for i in span.clone() {
            if !sh.compatible(inst, elem, &pool[i]) {
                continue;
            }
            let grown = inst.with_kleene(elem, pool[i].clone());
            self.kleene_subsets(sh, elem, newest, pool, i + 1..span.end, &grown, found);
        }
    }

    /// The unbound element with the smallest live candidate pool (ties by
    /// element index), or `None` when every element is bound.
    fn next_element(&self, cp: &CompiledPattern, inst: &Instance) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for elem in 0..cp.n() {
            if inst.bindings[elem].is_some() {
                continue;
            }
            let est = self.pool_estimate(cp, elem, inst);
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
    fn pool_estimate(&self, cp: &CompiledPattern, elem: usize, inst: &Instance) -> usize {
        let ty = cp.elements[elem].event_type;
        let mut best = self.index.type_len(ty);
        for join in cp.join_graph().edges(elem) {
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

    /// The candidate pool for `elem` under `inst`: the best equality-join
    /// probe (or full type scan), cut to the timestamp range that window
    /// and precedence constraints against the bound elements allow
    /// (`None`: no candidate). A superset of the events `compatible_with`
    /// accepts, so shrinking the pool never loses a match.
    fn candidates_for(
        &self,
        sh: &mut EngineShell,
        elem: usize,
        inst: &Instance,
    ) -> Option<Pool<'_>> {
        let cp = sh.pattern();
        let ty = cp.elements[elem].event_type;
        // Timestamp bounds: window span against the bound extents, strict
        // precedence against each bound element.
        let range = partner_ts_range(cp, inst.extents(), &[elem])?;
        // Pool: cheapest equality-join probe over bound partners, else the
        // whole type store.
        let mut pool = self.index.of_type(ty);
        let mut probed = false;
        for join in cp.join_graph().edges(elem) {
            let Some(b) = &inst.bindings[join.other] else {
                continue;
            };
            let partner = b.events().next().expect("bindings are non-empty");
            let Some(key) = partner.attr(join.other_attr).and_then(index_key) else {
                // `==` against an unkeyable value (missing attribute or
                // NaN) holds for no event.
                return None;
            };
            let list = self.index.posting(ty, join.attr, &key);
            if list.map_or(0, VecDeque::len) <= pool.map_or(0, VecDeque::len) {
                pool = list;
                probed = true;
            }
        }
        sh.metrics.index_probes += u64::from(probed);
        pool.map(|d| (d, ts_span(d, &range)))
    }
}

impl Join for Search {
    fn arrive(&mut self, sh: &mut EngineShell, event: &EventRef, out: &mut Vec<Match>) {
        if sh
            .pattern()
            .elements_of_type(event.type_id)
            .next()
            .is_none()
        {
            return; // a negated type only
        }
        sh.metrics.delta_updates += self.index.insert(event.clone());
        self.enumerate(sh, event, out);
    }

    fn partials(&mut self) -> &mut [KeyedStore<Instance>] {
        &mut []
    }

    fn buffered(&self) -> usize {
        self.index.len()
    }

    /// Expires on every event, not only when pruning is due: the pool
    /// sizes that pick the search order count live events only.
    fn prune(&mut self, watermark: Timestamp, window: u64, _: bool, metrics: &mut EngineMetrics) {
        metrics.delta_updates += self.index.expire(watermark, window);
    }
}

impl Engine for DeltaEngine {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        self.shell.process(&mut self.search, event, out);
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        self.shell.flush(&mut self.search, out);
    }

    fn metrics(&self) -> &EngineMetrics {
        &self.shell.metrics
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.shell.metrics
    }

    fn name(&self) -> &'static str {
        "delta"
    }
}
