//! Multi-query execution: a [`QueryRegistry`] runs many registered
//! queries over one stream, executing shared work once.
//!
//! Production CEP serves many users registering patterns over the *same*
//! streams. Registering N queries as N independent engines re-evaluates
//! every shared sub-pattern N times; the registry instead canonicalizes
//! each query's DNF branches by [`CompiledPattern::signature`] and keeps
//! one **fragment** (one engine) per distinct branch. A fragment shared
//! by several queries is evaluated once per event, and its matches fan
//! out to every subscribed query with per-query [`QueryId`] tagging —
//! the operator-sharing idea of Dossinger & Michel (arXiv:2104.07742)
//! and Valluri et al. (arXiv:cs/0202035) applied to compiled DNF
//! branches.
//!
//! Correctness contract: for every registered query, the registry's
//! tagged output is **byte-identical** — `(signature, emitted_at)` pairs
//! — to what an independent engine built from the same fragments would
//! emit. Two mechanisms preserve it:
//!
//! * **Type routing.** A `type → [fragment]` table, maintained
//!   incrementally by [`register`](QueryRegistry::register) and
//!   [`unregister`](QueryRegistry::unregister) and keyed by hash (never
//!   sized by the raw type id), offers an event only to fragments whose
//!   pattern uses its type — *except* fragments with negated elements,
//!   which sit in every list: deferred (trailing-negation) emission
//!   stamps `emitted_at` with the engine's watermark, which advances on
//!   every processed event, so those fragments receive the full stream.
//! * **Subscriber fan-out.** Each fragment lists its subscribed queries;
//!   only subscribers of fragments that staged matches are visited, in
//!   [`QueryId`] order and each in branch order. A staged match is moved
//!   to its fragment's last subscription and cloned for the others. The
//!   per-event cost is the fragments of the event's type plus the
//!   subscribers of the fragments that matched, not the registry's size.
//! * **Per-query fan-out dedup, only where branches can collide.** A
//!   query whose branches can report the same match deduplicates exactly
//!   like [`crate::engine::MultiEngine`], through the same dedup core:
//!   first branch in branch order wins, signature memory pruned on the
//!   same 256-event cadence. Signatures list bound positions, so only
//!   branches over the same positive position set can collide; every
//!   other query skips the signature work with identical output.
//!
//! Set-level planning: fragments are deduplicated by signature before
//! any engine is built (shared fragments are planned once), lowered
//! predicate programs are shared through the PR 8
//! [`PlanCache`](crate::compiled::PlanCache), and
//! [`QueryRegistry::set_plan`] reports the sharing structure —
//! including maximal shared SEQ prefixes detected by
//! [`prefix_signature`] — so a planner-backed [`FragmentBuilder`] can
//! align evaluation orders across fragments that share a prefix.

use crate::compile::CompiledPattern;
use crate::compiled::{shared_plan_cache, PredicateProgram, SharedPlanCache};
use crate::dedup::{branches_can_collide, BranchDedup};
use crate::engine::Engine;
use crate::error::CepError;
use crate::event::{EventRef, TypeId};
use crate::matches::Match;
use crate::metrics::EngineMetrics;
use crate::pattern::Pattern;
use cep_obs::{TraceRecord, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Identifies a query registered with a [`QueryRegistry`]. Ids are
/// assigned sequentially and never reused, so an id stays unambiguous
/// across unregistrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Builds the engine for one distinct fragment (DNF branch).
///
/// The registry calls this exactly once per *distinct* branch signature
/// — this is where "shared fragments are planned once" lands: a
/// planner-backed implementation pays the planning cost once no matter
/// how many queries subscribe. `program` is the branch's lowered
/// predicate program from the registry's shared [`PlanCache`];
/// implementations thread it into the engine's `with_program`
/// constructor.
///
/// [`PlanCache`]: crate::compiled::PlanCache
pub trait FragmentBuilder: Send + Sync {
    /// Builds a fresh engine evaluating `cp`.
    fn build_fragment(
        &self,
        cp: &CompiledPattern,
        program: Arc<PredicateProgram>,
    ) -> Result<Box<dyn Engine>, CepError>;
}

impl<F> FragmentBuilder for F
where
    F: Fn(&CompiledPattern, Arc<PredicateProgram>) -> Result<Box<dyn Engine>, CepError>
        + Send
        + Sync,
{
    fn build_fragment(
        &self,
        cp: &CompiledPattern,
        program: Arc<PredicateProgram>,
    ) -> Result<Box<dyn Engine>, CepError> {
        self(cp, program)
    }
}

/// Default capacity of a registry's shared predicate-program cache.
/// Larger than the facade's per-factory cache: a registry holds many
/// distinct fragments, not one pattern's branches.
const REGISTRY_PLAN_CACHE_CAP: usize = 256;

/// One distinct DNF branch under evaluation: one engine, shared by every
/// subscribed (query, branch) pair.
struct Fragment {
    cp: CompiledPattern,
    engine: Box<dyn Engine>,
    /// Subscribed queries, ascending, once per subscribed branch; the
    /// fragment is torn down when this empties.
    subscribers: Vec<QueryId>,
    /// Subscriptions still to be served the current `staged` batch: the
    /// last one takes the matches by move, the others get clones.
    pending: usize,
    /// Per-event scratch buffer of freshly detected matches.
    staged: Vec<Match>,
}

impl Fragment {
    /// Whether the fragment must see every event regardless of type:
    /// true for patterns with negated elements, whose deferred-emission
    /// watermark advances on every processed event.
    fn route_all(&self) -> bool {
        !self.cp.negated.is_empty()
    }
}

/// One registered query: its branch subscriptions in branch order plus
/// cross-branch dedup state when its branches can collide.
struct QueryEntry {
    /// Fragment slot per DNF branch, in the pattern's branch order
    /// (duplicates allowed: identical branches subscribe twice).
    fragments: Vec<usize>,
    /// The registry's `events_processed` when this query registered.
    registered_at: u64,
    /// Signature memory, present only when two branches bind the same
    /// positions (`branches_can_collide`).
    dedup: Option<BranchDedup>,
    /// Matches delivered to this query (post-dedup).
    matches_emitted: u64,
}

/// A multi-query engine: many registered queries over one stream, with
/// signature-deduplicated shared fragments executed once and per-query
/// fan-out. See the [module docs](self) for the sharing model and the
/// byte-identity contract.
pub struct QueryRegistry {
    builder: Arc<dyn FragmentBuilder>,
    plan_cache: SharedPlanCache,
    tracer: Tracer,
    /// Fragment slots; `None` marks a retired slot (kept so stored slot
    /// indices stay stable).
    slots: Vec<Option<Fragment>>,
    by_sig: HashMap<u64, usize>,
    /// The slots offered an event, per type some non-route-all fragment
    /// uses; every list also holds the route-all slots.
    by_type: HashMap<TypeId, Vec<usize>>,
    /// Route-all slots: the dispatch list of every type `by_type` lacks.
    route_all: Vec<usize>,
    queries: BTreeMap<QueryId, QueryEntry>,
    /// Queries holding a `BranchDedup`, whose prune cadence runs on
    /// every event whether or not they receive matches.
    deduping: Vec<QueryId>,
    /// Per-event scratch: slots that staged matches, and the queries
    /// subscribed to them.
    hit: Vec<usize>,
    visit: Vec<QueryId>,
    next_id: u64,
    /// Registry-owned counters (`events_processed`, `wall_time_ns`,
    /// `registered_queries`, `shared_fragments`, `fanout_emits`); the
    /// rest of the exported view is absorbed from fragment engines.
    own: EngineMetrics,
    /// Final metrics of torn-down fragments (live-state gauges zeroed),
    /// so the aggregate view stays monotone across unregistrations.
    retired: EngineMetrics,
}

impl QueryRegistry {
    /// A registry building fragments with `builder`, with a fresh shared
    /// predicate-program cache.
    pub fn new(builder: Arc<dyn FragmentBuilder>) -> QueryRegistry {
        Self::with_plan_cache(builder, shared_plan_cache(REGISTRY_PLAN_CACHE_CAP))
    }

    /// Like [`new`](QueryRegistry::new) but sharing an external plan
    /// cache — per-shard registry instances instantiated from one
    /// [`RegistrySpec`] lower each fragment's predicates only once
    /// across the whole fleet.
    pub fn with_plan_cache(
        builder: Arc<dyn FragmentBuilder>,
        plan_cache: SharedPlanCache,
    ) -> QueryRegistry {
        QueryRegistry {
            builder,
            plan_cache,
            tracer: Tracer::disabled(),
            slots: Vec::new(),
            by_sig: HashMap::new(),
            by_type: HashMap::new(),
            route_all: Vec::new(),
            queries: BTreeMap::new(),
            deduping: Vec::new(),
            hit: Vec::new(),
            visit: Vec::new(),
            next_id: 0,
            own: EngineMetrics::new(),
            retired: EngineMetrics::new(),
        }
    }

    /// Routes registration/unregistration trace records to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Registers a pattern, compiling it to DNF branches first.
    pub fn register(&mut self, pattern: &Pattern) -> Result<QueryId, CepError> {
        let branches = CompiledPattern::compile(pattern)?;
        self.register_compiled(branches, pattern.window)
    }

    /// Registers a query from pre-compiled DNF branches sharing `window`.
    ///
    /// Branches that match an already-running fragment's signature
    /// subscribe to it; the rest get fresh engines from the
    /// [`FragmentBuilder`]. On error nothing is registered (engine
    /// builds happen before any registry state changes).
    pub fn register_compiled(
        &mut self,
        branches: Vec<CompiledPattern>,
        window: u64,
    ) -> Result<QueryId, CepError> {
        if branches.is_empty() {
            return Err(CepError::Pattern(
                "cannot register a query with no DNF branches".into(),
            ));
        }
        // Phase 1 (fallible, no state changes): resolve each branch to an
        // existing slot or a freshly built engine. Duplicate branches
        // *within* this registration must also share one engine.
        enum Resolved {
            Existing(usize),
            New(usize /* index into `built` */),
        }
        let mut built: Vec<(CompiledPattern, Box<dyn Engine>)> = Vec::new();
        let mut new_sigs: HashMap<u64, usize> = HashMap::new();
        let mut resolved = Vec::with_capacity(branches.len());
        let mut shared = 0u64;
        for cp in &branches {
            let sig = cp.signature();
            if let Some(&slot) = self.by_sig.get(&sig) {
                resolved.push(Resolved::Existing(slot));
                shared += 1;
            } else if let Some(&bi) = new_sigs.get(&sig) {
                resolved.push(Resolved::New(bi));
                shared += 1;
            } else {
                // One lowering per branch, warm for every later
                // subscriber and sibling registry.
                let (program, hits, misses) = self
                    .plan_cache
                    .lock()
                    .expect("plan cache poisoned")
                    .get_or_compile(cp);
                let mut engine = self.builder.build_fragment(cp, program)?;
                // Surface cache effectiveness through the normal metrics
                // pipeline, exactly as the facade factories do.
                engine.metrics_mut().plan_cache_hits = hits;
                engine.metrics_mut().plan_cache_misses = misses;
                new_sigs.insert(sig, built.len());
                resolved.push(Resolved::New(built.len()));
                built.push((cp.clone(), engine));
            }
        }
        // Phase 2 (infallible): commit fragments and the query entry.
        let mut slot_of_built = vec![usize::MAX; built.len()];
        for (bi, (cp, engine)) in built.into_iter().enumerate() {
            let fragment = Fragment {
                cp,
                engine,
                subscribers: Vec::new(),
                pending: 0,
                staged: Vec::new(),
            };
            let slot = match self.slots.iter().position(Option::is_none) {
                Some(free) => {
                    self.slots[free] = Some(fragment);
                    free
                }
                None => {
                    self.slots.push(Some(fragment));
                    self.slots.len() - 1
                }
            };
            self.by_sig.insert(
                self.slots[slot]
                    .as_ref()
                    .expect("just placed")
                    .cp
                    .signature(),
                slot,
            );
            self.dispatch_add(slot);
            slot_of_built[bi] = slot;
        }
        let fragments: Vec<usize> = resolved
            .iter()
            .map(|r| match r {
                Resolved::Existing(slot) => *slot,
                Resolved::New(bi) => slot_of_built[*bi],
            })
            .collect();
        let id = QueryId(self.next_id);
        self.next_id += 1;
        // Ids only grow, so pushing keeps every subscriber list ascending.
        for &slot in &fragments {
            self.slots[slot]
                .as_mut()
                .expect("live slot")
                .subscribers
                .push(id);
        }
        let dedup = branches_can_collide(&branches).then(|| BranchDedup::new(window));
        if dedup.is_some() {
            self.deduping.push(id);
        }
        let branch_count = fragments.len() as u64;
        self.queries.insert(
            id,
            QueryEntry {
                fragments,
                registered_at: self.own.events_processed,
                dedup,
                matches_emitted: 0,
            },
        );
        self.own.registered_queries += 1;
        self.own.shared_fragments += shared;
        let live = self.fragment_count() as u64;
        self.tracer.emit_with(|| TraceRecord::QueryRegistered {
            query_id: id.0,
            branches: branch_count,
            shared,
            fragments: live,
        });
        Ok(id)
    }

    /// Unregisters a query; fragments it was the last subscriber of are
    /// torn down (their final counters are folded into the registry
    /// aggregate). Returns `false` for unknown ids.
    pub fn unregister(&mut self, id: QueryId) -> bool {
        let Some(mut entry) = self.queries.remove(&id) else {
            return false;
        };
        self.deduping.retain(|&q| q != id);
        let mut retired = 0u64;
        entry.fragments.sort_unstable();
        entry.fragments.dedup();
        for slot in entry.fragments {
            let frag = self.slots[slot].as_mut().expect("subscribed slot is live");
            frag.subscribers.retain(|&q| q != id);
            if frag.subscribers.is_empty() {
                self.dispatch_remove(slot);
                let frag = self.slots[slot].take().expect("live slot");
                self.by_sig.remove(&frag.cp.signature());
                let mut last = frag.engine.metrics().clone();
                // The engine is gone: its live-state gauges must not
                // linger in the monotone aggregate.
                last.clear_live();
                self.retired.absorb(&last);
                retired += 1;
            }
        }
        let live = self.fragment_count() as u64;
        self.tracer.emit_with(|| TraceRecord::QueryUnregistered {
            query_id: id.0,
            retired_fragments: retired,
            fragments: live,
        });
        true
    }

    /// Offers one event to the live fragments its type dispatches to
    /// (each evaluated at most once — see the [module docs](self)) and
    /// fans freshly detected matches out to the subscribed queries,
    /// tagged with their [`QueryId`].
    pub fn process(&mut self, event: &EventRef, out: &mut Vec<(QueryId, Match)>) {
        self.own.events_processed += 1;
        let targets = self.by_type.get(&event.type_id).unwrap_or(&self.route_all);
        for &slot in targets {
            let frag = self.slots[slot].as_mut().expect("dispatched slot is live");
            frag.engine.process(event, &mut frag.staged);
            if !frag.staged.is_empty() {
                self.hit.push(slot);
            }
        }
        self.fan_out(out);
        for id in &self.deduping {
            let q = self.queries.get_mut(id).expect("deduping query is live");
            let nth = self.own.events_processed - q.registered_at;
            if let Some(dedup) = &mut q.dedup {
                dedup.end_event(nth, event.ts);
            }
        }
    }

    /// Flushes every fragment (releasing deferred trailing-negation
    /// matches) and fans the results out like
    /// [`process`](QueryRegistry::process).
    pub fn flush(&mut self, out: &mut Vec<(QueryId, Match)>) {
        for (slot, frag) in self.slots.iter_mut().enumerate() {
            let Some(frag) = frag else { continue };
            frag.engine.flush(&mut frag.staged);
            if !frag.staged.is_empty() {
                self.hit.push(slot);
            }
        }
        self.fan_out(out);
    }

    /// Hands the staged matches of the `hit` fragments to their
    /// subscribers: queries in [`QueryId`] order, each query's branches
    /// in branch order, deduplicated where the query keeps a
    /// `BranchDedup`. Every staged match is moved to its fragment's
    /// last subscription and cloned for the others.
    fn fan_out(&mut self, out: &mut Vec<(QueryId, Match)>) {
        if self.hit.is_empty() {
            return;
        }
        let visit = &mut self.visit;
        visit.clear();
        for &slot in &self.hit {
            let frag = self.slots[slot].as_mut().expect("hit slot is live");
            frag.pending = frag.subscribers.len();
            visit.extend_from_slice(&frag.subscribers);
        }
        // One fragment's list is already ascending; it repeats a query
        // that subscribed twice.
        if self.hit.len() > 1 {
            visit.sort_unstable();
        }
        visit.dedup();
        self.hit.clear();
        for &id in visit.iter() {
            let q = self.queries.get_mut(&id).expect("subscriber is live");
            let before = out.len();
            for &slot in &q.fragments {
                let frag = self.slots[slot].as_mut().expect("live slot");
                if frag.staged.is_empty() {
                    continue;
                }
                frag.pending -= 1;
                let staged = &mut frag.staged;
                match (&mut q.dedup, frag.pending == 0) {
                    (None, true) => out.extend(staged.drain(..).map(|m| (id, m))),
                    (None, false) => out.extend(staged.iter().map(|m| (id, m.clone()))),
                    (Some(d), true) => {
                        out.extend(staged.drain(..).filter(|m| d.admit(m)).map(|m| (id, m)))
                    }
                    (Some(d), false) => out.extend(
                        staged
                            .iter()
                            .filter(|m| d.admit(m))
                            .map(|m| (id, m.clone())),
                    ),
                }
            }
            let emitted = (out.len() - before) as u64;
            q.matches_emitted += emitted;
            self.own.fanout_emits += emitted;
        }
    }

    /// Adds live slot `slot` to the type dispatch table.
    fn dispatch_add(&mut self, slot: usize) {
        let frag = self.slots[slot].as_ref().expect("live slot");
        if frag.route_all() {
            self.route_all.push(slot);
            for list in self.by_type.values_mut() {
                list.push(slot);
            }
            return;
        }
        for e in &frag.cp.elements {
            let list = self
                .by_type
                .entry(e.event_type)
                .or_insert_with(|| self.route_all.clone());
            if !list.contains(&slot) {
                list.push(slot);
            }
        }
    }

    /// Removes live slot `slot` from the type dispatch table, dropping
    /// lists left holding route-all slots only.
    fn dispatch_remove(&mut self, slot: usize) {
        let frag = self.slots[slot].as_ref().expect("live slot");
        if frag.route_all() {
            self.route_all.retain(|&s| s != slot);
            for list in self.by_type.values_mut() {
                list.retain(|&s| s != slot);
            }
            return;
        }
        for e in &frag.cp.elements {
            if let Some(list) = self.by_type.get_mut(&e.event_type) {
                list.retain(|&s| s != slot);
                if list.len() == self.route_all.len() {
                    self.by_type.remove(&e.event_type);
                }
            }
        }
    }

    /// Processes a whole stream then flushes, collecting each query's
    /// matches in emission order.
    pub fn run(&mut self, stream: &[EventRef]) -> RegistryRunResult {
        let start = Instant::now();
        let mut per_query: BTreeMap<QueryId, Vec<Match>> =
            self.queries.keys().map(|&id| (id, Vec::new())).collect();
        let mut out = Vec::new();
        for event in stream {
            self.process(event, &mut out);
            for (id, m) in out.drain(..) {
                per_query.entry(id).or_default().push(m);
            }
        }
        self.flush(&mut out);
        for (id, m) in out.drain(..) {
            per_query.entry(id).or_default().push(m);
        }
        self.own.wall_time_ns += start.elapsed().as_nanos() as u64;
        RegistryRunResult {
            per_query,
            metrics: self.metrics(),
        }
    }

    /// The registry-wide metrics view: the registry-owned counters
    /// (`events_processed`, `wall_time_ns`, `registered_queries`,
    /// `shared_fragments`, `fanout_emits`) with retired fragments' final
    /// counters and every live fragment engine absorbed **once each**
    /// (shared work counts once, however many queries subscribe).
    pub fn metrics(&self) -> EngineMetrics {
        let mut agg = self.own.clone();
        agg.absorb(&self.retired);
        for frag in self.slots.iter().flatten() {
            agg.absorb(frag.engine.metrics());
        }
        agg
    }

    /// One query's metrics view, mirroring what a `MultiEngine` over the
    /// query's branch engines would report: subscribed fragments'
    /// counters absorbed (shared work appears in *every* subscriber's
    /// view), `events_processed` and post-dedup `matches_emitted` the
    /// query's own. `None` for unknown ids.
    pub fn query_metrics(&self, id: QueryId) -> Option<EngineMetrics> {
        let q = self.queries.get(&id)?;
        let mut agg = EngineMetrics::new();
        for &slot in &q.fragments {
            let frag = self.slots[slot].as_ref().expect("live slot");
            agg.absorb(frag.engine.metrics());
        }
        // Counted by both layers; the query's own counts stand: events
        // since it registered, and matches after its dedup.
        agg.events_processed = self.own.events_processed - q.registered_at;
        agg.matches_emitted = q.matches_emitted;
        Some(agg)
    }

    /// Live registered query ids, ascending.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.keys().copied().collect()
    }

    /// Whether `id` is currently registered.
    pub fn contains(&self, id: QueryId) -> bool {
        self.queries.contains_key(&id)
    }

    /// Number of live registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Number of distinct live fragments (shared engines).
    pub fn fragment_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// The set-level plan report for the currently registered queries:
    /// sharing counts plus maximal shared SEQ prefixes across distinct
    /// fragments. See [`SetPlanReport`].
    pub fn set_plan(&self) -> SetPlanReport {
        let branch_subscriptions: usize = self.queries.values().map(|q| q.fragments.len()).sum();
        let live: Vec<&CompiledPattern> = self.slots.iter().flatten().map(|f| &f.cp).collect();
        SetPlanReport {
            queries: self.queries.len(),
            branch_subscriptions,
            distinct_fragments: live.len(),
            shared_subscriptions: branch_subscriptions - live.len().min(branch_subscriptions),
            prefix_groups: shared_prefix_groups(&live),
        }
    }
}

/// The outcome of [`QueryRegistry::run`].
pub struct RegistryRunResult {
    /// Matches per query in emission order (every registered query has
    /// an entry, possibly empty).
    pub per_query: BTreeMap<QueryId, Vec<Match>>,
    /// The registry-wide metrics snapshot ([`QueryRegistry::metrics`]).
    pub metrics: EngineMetrics,
}

/// A serializable-enough description of a query set: compiled branches
/// plus the fragment builder, from which identical
/// [`QueryRegistry`] instances can be stamped out — the multi-query
/// analogue of [`crate::engine::EngineFactory`], consumed by
/// `cep-shard`'s multi-query layout (one registry per worker). All
/// instances share one predicate-program cache, so each fragment's
/// predicates are lowered once across the fleet.
pub struct RegistrySpec {
    queries: Vec<(Vec<CompiledPattern>, u64)>,
    builder: Arc<dyn FragmentBuilder>,
    plan_cache: SharedPlanCache,
}

impl RegistrySpec {
    /// An empty spec building fragments with `builder`.
    pub fn new(builder: Arc<dyn FragmentBuilder>) -> RegistrySpec {
        RegistrySpec {
            queries: Vec::new(),
            builder,
            plan_cache: shared_plan_cache(REGISTRY_PLAN_CACHE_CAP),
        }
    }

    /// Adds a pattern (compiled to DNF branches). The returned id is the
    /// one every instantiated registry assigns this query.
    pub fn add(&mut self, pattern: &Pattern) -> Result<QueryId, CepError> {
        let branches = CompiledPattern::compile(pattern)?;
        Ok(self.add_compiled(branches, pattern.window))
    }

    /// Adds a query from pre-compiled branches sharing `window`.
    pub fn add_compiled(&mut self, branches: Vec<CompiledPattern>, window: u64) -> QueryId {
        let id = QueryId(self.queries.len() as u64);
        self.queries.push((branches, window));
        id
    }

    /// Number of queries in the spec.
    pub fn queries(&self) -> usize {
        self.queries.len()
    }

    /// Every branch of every query (with repetition), for routing-policy
    /// soundness validation.
    pub fn branches(&self) -> impl Iterator<Item = &CompiledPattern> {
        self.queries.iter().flat_map(|(bs, _)| bs.iter())
    }

    /// The widest query window in the spec (0 when empty).
    pub fn max_window(&self) -> u64 {
        self.queries.iter().map(|&(_, w)| w).max().unwrap_or(0)
    }

    /// Builds a fresh registry with every query registered, in spec
    /// order (so ids match the ones [`add`](RegistrySpec::add)
    /// returned).
    pub fn instantiate(&self) -> Result<QueryRegistry, CepError> {
        let mut registry =
            QueryRegistry::with_plan_cache(self.builder.clone(), self.plan_cache.clone());
        for (branches, window) in &self.queries {
            registry.register_compiled(branches.clone(), *window)?;
        }
        Ok(registry)
    }
}

/// Stable signature of the first `k` elements of a SEQ branch: the
/// sub-pattern hash behind shared-prefix detection. Two branches with
/// equal `prefix_signature(_, k)` have identical first-`k` elements
/// (positions, types, Kleene flags), identical predicates *within* those
/// elements, and the same window and selection strategy — so a planner
/// may evaluate the shared prefix in the same order for both.
///
/// `None` for non-SEQ branches, branches with negated elements, or
/// `k` outside `2..=n` (prefixes shorter than 2 share nothing worth
/// aligning; `k == n` is the whole branch, which fragment signatures
/// already canonicalize).
pub fn prefix_signature(cp: &CompiledPattern, k: usize) -> Option<u64> {
    use crate::compile::NaryOp;
    use crate::compiled::{cmp_op_tag, write_operand, SigHasher};
    if cp.op != NaryOp::Seq || !cp.negated.is_empty() || k < 2 || k >= cp.n() {
        return None;
    }
    let prefix = &cp.elements[..k];
    let positions: Vec<usize> = prefix.iter().map(|e| e.position).collect();
    let contained = |pos: usize| positions.contains(&pos);
    let mut h = SigHasher::new();
    h.write_u8(0xF1); // prefix-hash domain tag, disjoint from signature()'s op byte

    h.write_u64(k as u64);
    for e in prefix {
        h.write_u64(e.position as u64);
        h.write_u64(e.event_type.0 as u64);
        h.write_u8(e.kleene as u8);
    }
    for p in &cp.predicates {
        let inside = [p.left.position(), p.right.position()]
            .into_iter()
            .flatten()
            .all(contained);
        if !inside {
            continue;
        }
        write_operand(&mut h, &p.left);
        h.write_u8(cmp_op_tag(p.op));
        write_operand(&mut h, &p.right);
    }
    h.write_u64(cp.window);
    h.write_u8(match cp.strategy {
        crate::selection::SelectionStrategy::SkipTillAnyMatch => 0,
        crate::selection::SelectionStrategy::SkipTillNextMatch => 1,
        crate::selection::SelectionStrategy::StrictContiguity => 2,
        crate::selection::SelectionStrategy::PartitionContiguity => 3,
    });
    Some(h.finish())
}

/// A group of distinct fragments sharing a maximal SEQ prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixGroup {
    /// Shared prefix length in elements (≥ 2).
    pub len: usize,
    /// The shared [`prefix_signature`].
    pub signature: u64,
    /// Distinct fragments in the group (≥ 2).
    pub fragments: usize,
}

/// The set-level plan report: how much of the registered query set is
/// shared, produced by [`QueryRegistry::set_plan`].
#[derive(Debug, Clone)]
pub struct SetPlanReport {
    /// Live registered queries.
    pub queries: usize,
    /// Total branch subscriptions across queries (with repetition).
    pub branch_subscriptions: usize,
    /// Distinct fragments actually executing.
    pub distinct_fragments: usize,
    /// Subscriptions served by an already-shared fragment
    /// (`branch_subscriptions - distinct_fragments`).
    pub shared_subscriptions: usize,
    /// Maximal shared SEQ prefixes across *distinct* fragments, longest
    /// first: sharing below full-fragment granularity that a
    /// planner-backed builder can exploit by aligning prefix evaluation
    /// orders.
    pub prefix_groups: Vec<PrefixGroup>,
}

impl SetPlanReport {
    /// Branch subscriptions per executing fragment — 1.0 for a
    /// zero-overlap query set, growing with sharing.
    pub fn sharing_ratio(&self) -> f64 {
        if self.distinct_fragments == 0 {
            return 1.0;
        }
        self.branch_subscriptions as f64 / self.distinct_fragments as f64
    }
}

/// Maximal shared-prefix groups among distinct fragments: all `(k,
/// signature)` groups with ≥ 2 members, minus those whose member set is
/// identical to a longer group's (they add no information — sharing a
/// `k+1`-prefix implies sharing the `k`-prefix). Sorted longest first,
/// then by signature for determinism.
fn shared_prefix_groups(fragments: &[&CompiledPattern]) -> Vec<PrefixGroup> {
    let mut groups: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for (idx, cp) in fragments.iter().enumerate() {
        for k in 2..cp.n() {
            if let Some(sig) = prefix_signature(cp, k) {
                groups.entry((k, sig)).or_default().push(idx);
            }
        }
    }
    let mut shared: Vec<((usize, u64), Vec<usize>)> = groups
        .into_iter()
        .filter(|(_, members)| members.len() >= 2)
        .collect();
    shared.sort_by(|a, b| b.0 .0.cmp(&a.0 .0).then(a.0 .1.cmp(&b.0 .1)));
    let mut kept: Vec<PrefixGroup> = Vec::new();
    let mut kept_members: Vec<(usize, Vec<usize>)> = Vec::new();
    for ((k, sig), mut members) in shared {
        members.sort_unstable();
        let dominated = kept_members
            .iter()
            .any(|(kk, mm)| *kk > k && *mm == members);
        if dominated {
            continue;
        }
        kept.push(PrefixGroup {
            len: k,
            signature: sig,
            fragments: members.len(),
        });
        kept_members.push((k, members));
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_to_completion, EngineConfig};
    use crate::event::{Event, TypeId};
    use crate::naive::NaiveEngine;
    use crate::pattern::PatternBuilder;
    use crate::predicate::{CmpOp, Predicate};
    use crate::stream::StreamBuilder;
    use crate::value::Value;

    /// Fragment builder over the naive oracle (the only engine cep-core
    /// itself ships).
    fn naive_builder(cfg: &EngineConfig) -> Arc<dyn FragmentBuilder> {
        let cfg = cfg.clone();
        Arc::new(
            move |cp: &CompiledPattern, _program: Arc<PredicateProgram>| {
                Ok(Box::new(NaiveEngine::new(cp.clone(), cfg.clone())) as Box<dyn Engine>)
            },
        )
    }

    fn t(i: u32) -> TypeId {
        TypeId(i)
    }

    /// SEQ(a, b) within `window`, optionally with an a.0 < b.0 predicate.
    fn seq_ab(window: u64, ta: u32, tb: u32, pred: bool) -> Pattern {
        let mut b = PatternBuilder::new(window);
        let a = b.event(t(ta), "a");
        let c = b.event(t(tb), "b");
        if pred {
            b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        }
        b.seq([a, c]).unwrap()
    }

    /// SEQ(a, b, c) over types `(ta, tb, tc)` with a.0 < b.0.
    fn seq_abc(window: u64, ta: u32, tb: u32, tc: u32) -> Pattern {
        let mut b = PatternBuilder::new(window);
        let a = b.event(t(ta), "a");
        let x = b.event(t(tb), "b");
        let c = b.event(t(tc), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, x.pos(), 0));
        b.seq([a, x, c]).unwrap()
    }

    /// SEQ(a, NOT n, b): trailing-interval negation exercising deferred
    /// emission (and thus route-all delivery).
    fn seq_with_not(window: u64, ta: u32, tn: u32, tb: u32) -> Pattern {
        let mut b = PatternBuilder::new(window);
        let a = b.event(t(ta), "a");
        let n = b.event(t(tn), "n");
        let c = b.event(t(tb), "b");
        let exprs = vec![b.expr(a), b.not(n), b.expr(c)];
        b.seq_exprs(exprs).unwrap()
    }

    /// SEQ(a, OR(NOT x, NOT y), b): two DNF branches, both over `{a, b}`.
    fn seq_or_nots(window: u64, ta: u32, tx: u32, ty: u32, tb: u32) -> Pattern {
        let mut b = PatternBuilder::new(window);
        let a = b.event(t(ta), "a");
        let x = b.event(t(tx), "x");
        let y = b.event(t(ty), "y");
        let c = b.event(t(tb), "b");
        let exprs = vec![
            b.expr(a),
            crate::pattern::PatternExpr::Or(vec![b.not(x), b.not(y)]),
            b.expr(c),
        ];
        b.seq_exprs(exprs).unwrap()
    }

    /// OR(SEQ(a, b), SEQ(c, d)): two branches over disjoint positions.
    fn or_of_seqs(window: u64) -> Pattern {
        let mut b = PatternBuilder::new(window);
        let a = b.event(t(0), "a");
        let x = b.event(t(1), "b");
        let c = b.event(t(1), "c");
        let d = b.event(t(2), "d");
        let left = PatternExprHelpers::seq2(&b, a, x);
        let right = PatternExprHelpers::seq2(&b, c, d);
        b.or_exprs(vec![left, right]).unwrap()
    }

    fn stream(raw: &[(u32, u64, i64)]) -> Vec<EventRef> {
        let mut sb = StreamBuilder::new();
        for &(tid, ts, x) in raw {
            sb.push(Event::new(t(tid), ts, vec![Value::Int(x)]));
        }
        sb.build()
    }

    fn mixed_stream() -> Vec<EventRef> {
        mixed_stream_of(200)
    }

    fn mixed_stream_of(len: i64) -> Vec<EventRef> {
        // Types 0..4, some ts ties, varying attribute values.
        let mut raw = Vec::new();
        let mut ts = 0;
        for i in 0..len {
            ts += (i % 3) as u64;
            raw.push(((i % 5) as u32, ts, (i * 7) % 13 - 6));
        }
        stream(&raw)
    }

    type MatchKey = (Vec<(usize, Vec<u64>)>, u64);

    /// `(signature, emitted_at)` per match, in emission order: the
    /// registry must reproduce each query's sequence, not just its set.
    fn keyed(ms: &[Match]) -> Vec<MatchKey> {
        ms.iter().map(|m| (m.signature(), m.emitted_at)).collect()
    }

    /// Registry output per query must be byte-identical, in order, to
    /// independent naive engines over the same branches.
    fn assert_registry_matches_independent(patterns: &[Pattern]) {
        let cfg = EngineConfig::default();
        let mut registry = QueryRegistry::new(naive_builder(&cfg));
        let ids: Vec<QueryId> = patterns
            .iter()
            .map(|p| registry.register(p).unwrap())
            .collect();
        let stream = mixed_stream();
        let result = registry.run(&stream);
        for (p, id) in patterns.iter().zip(&ids) {
            let branches = CompiledPattern::compile(p).unwrap();
            let expected = if branches.len() == 1 {
                let mut e = NaiveEngine::new(branches[0].clone(), cfg.clone());
                run_to_completion(&mut e, &stream, true).matches
            } else {
                let engines: Vec<Box<dyn Engine>> = branches
                    .into_iter()
                    .map(|cp| Box::new(NaiveEngine::new(cp, cfg.clone())) as Box<dyn Engine>)
                    .collect();
                let mut multi = crate::engine::MultiEngine::new(engines, p.window);
                run_to_completion(&mut multi, &stream, true).matches
            };
            assert_eq!(
                keyed(&result.per_query[id]),
                keyed(&expected),
                "query {id} diverged from its independent engine"
            );
        }
    }

    #[test]
    fn duplicate_registration_shares_one_fragment() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        let p = seq_ab(10, 0, 1, true);
        let q1 = reg.register(&p).unwrap();
        let q2 = reg.register(&p).unwrap();
        assert_ne!(q1, q2, "same pattern twice still gets distinct ids");
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.fragment_count(), 1, "identical branches share");
        let m = reg.metrics();
        assert_eq!(m.registered_queries, 2);
        assert_eq!(m.shared_fragments, 1);
        // Both queries receive every match of the shared fragment.
        let result = reg.run(&mixed_stream());
        assert!(!result.per_query[&q1].is_empty());
        assert_eq!(keyed(&result.per_query[&q1]), keyed(&result.per_query[&q2]));
        assert_eq!(
            result.metrics.fanout_emits,
            2 * result.per_query[&q1].len() as u64
        );
    }

    #[test]
    fn zero_overlap_set_degrades_to_independent_execution() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        reg.register(&seq_ab(10, 0, 1, true)).unwrap();
        reg.register(&seq_ab(10, 2, 3, false)).unwrap();
        reg.register(&seq_ab(7, 1, 4, true)).unwrap();
        assert_eq!(reg.fragment_count(), 3, "no sharing possible");
        let report = reg.set_plan();
        assert_eq!(report.shared_subscriptions, 0);
        assert!((report.sharing_ratio() - 1.0).abs() < 1e-12);
        assert_registry_matches_independent(&[
            seq_ab(10, 0, 1, true),
            seq_ab(10, 2, 3, false),
            seq_ab(7, 1, 4, true),
        ]);
    }

    #[test]
    fn overlapping_set_is_byte_identical_per_query() {
        // 10 registrations over 5 distinct patterns, including negation
        // (deferred emission), a disjunction over disjoint positions (no
        // dedup needed) and one whose branches share positions (dedup).
        let patterns = vec![
            seq_ab(10, 0, 1, true),
            seq_ab(10, 0, 1, true), // duplicate
            seq_with_not(8, 0, 2, 1),
            or_of_seqs(9),
            seq_abc(10, 0, 1, 2),
            seq_or_nots(8, 0, 2, 3, 1),
            seq_ab(10, 0, 1, false),
            or_of_seqs(9),
            seq_with_not(8, 0, 2, 1),   // duplicate
            seq_or_nots(8, 0, 2, 3, 1), // duplicate
        ];
        assert_registry_matches_independent(&patterns);
    }

    #[test]
    fn dedup_is_kept_only_where_branches_share_positions() {
        let cfg = EngineConfig::default();
        let shared = seq_or_nots(8, 0, 2, 3, 1);
        let stream = mixed_stream();
        // Alone, the two branches report some of the same matches: the
        // registry has real duplicates to suppress.
        let per_branch: Vec<Vec<MatchKey>> = CompiledPattern::compile(&shared)
            .unwrap()
            .into_iter()
            .map(|cp| {
                let mut e = NaiveEngine::new(cp, cfg.clone());
                keyed(&run_to_completion(&mut e, &stream, true).matches)
            })
            .collect();
        assert_eq!(per_branch.len(), 2);
        assert!(
            per_branch[0].iter().any(|k| per_branch[1].contains(k)),
            "fixture must make the branches collide"
        );
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        let q_shared = reg.register(&shared).unwrap();
        let q_disjoint = reg.register(&or_of_seqs(9)).unwrap();
        let q_single = reg.register(&seq_ab(10, 0, 1, true)).unwrap();
        assert!(reg.queries[&q_shared].dedup.is_some());
        assert!(reg.queries[&q_disjoint].dedup.is_none());
        assert!(reg.queries[&q_single].dedup.is_none());
        assert_eq!(reg.deduping, vec![q_shared]);
        let result = reg.run(&stream);
        let sigs: Vec<_> = result.per_query[&q_shared]
            .iter()
            .map(Match::signature)
            .collect();
        let distinct: std::collections::HashSet<_> = sigs.iter().collect();
        assert!(!sigs.is_empty());
        assert_eq!(distinct.len(), sigs.len(), "a signature repeated");
        assert!(reg.unregister(q_shared));
        assert!(reg.deduping.is_empty());
    }

    #[test]
    fn mid_stream_registration_counts_and_matches_from_registration_on() {
        let cfg = EngineConfig::default();
        // Long enough for the dedup memory's 256-event prune cadence.
        let stream = mixed_stream_of(900);
        let (join_at, leave_at) = (stream.len() / 3, 2 * stream.len() / 3);
        let late_pattern = seq_or_nots(8, 0, 2, 3, 1);
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        let early = reg.register(&seq_ab(10, 0, 1, true)).unwrap();
        let mut late = None;
        let mut late_matches = Vec::new();
        let mut out = Vec::new();
        for (i, e) in stream.iter().enumerate() {
            if i == join_at {
                let id = reg.register(&late_pattern).unwrap();
                assert_eq!(reg.query_metrics(id).unwrap().events_processed, 0);
                late = Some(id);
            }
            if i == leave_at {
                let m = reg.query_metrics(early).unwrap();
                assert_eq!(m.events_processed, leave_at as u64);
                assert!(reg.unregister(early));
                assert!(reg.query_metrics(early).is_none());
            }
            reg.process(e, &mut out);
            late_matches.extend(
                out.drain(..)
                    .filter(|(id, _)| Some(*id) == late)
                    .map(|(_, m)| m),
            );
        }
        reg.flush(&mut out);
        late_matches.extend(out.drain(..).map(|(_, m)| m));
        let late = late.unwrap();
        assert_eq!(
            reg.query_metrics(late).unwrap().events_processed,
            (stream.len() - join_at) as u64
        );
        assert_eq!(reg.metrics().events_processed, stream.len() as u64);
        // Identical, in order, to a MultiEngine started at the same event.
        let engines: Vec<Box<dyn Engine>> = CompiledPattern::compile(&late_pattern)
            .unwrap()
            .into_iter()
            .map(|cp| Box::new(NaiveEngine::new(cp, cfg.clone())) as Box<dyn Engine>)
            .collect();
        let mut multi = crate::engine::MultiEngine::new(engines, late_pattern.window);
        let expected = run_to_completion(&mut multi, &stream[join_at..].to_vec(), true).matches;
        assert!(!expected.is_empty());
        assert_eq!(keyed(&late_matches), keyed(&expected));
    }

    #[test]
    fn type_ids_at_the_top_of_the_range_dispatch_without_a_dense_table() {
        // A table indexed by raw type id would need 2^32 lists here.
        let top = u32::MAX;
        let cfg = EngineConfig::default();
        let raw: Vec<(u32, u64, i64)> = (0..90u32)
            .map(|i| {
                let ty = if i % 3 == 0 { top } else { i % 2 };
                (ty, u64::from(i / 2), i64::from(i * 5 % 7))
            })
            .collect();
        let stream = stream(&raw);
        let patterns = [seq_ab(10, top, 0, true), seq_with_not(6, top, 1, 0)];
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        let ids: Vec<QueryId> = patterns.iter().map(|p| reg.register(p).unwrap()).collect();
        let result = reg.run(&stream);
        for (p, id) in patterns.iter().zip(&ids) {
            let cp = CompiledPattern::compile_single(p).unwrap();
            let mut oracle = NaiveEngine::new(cp, cfg.clone());
            let expected = run_to_completion(&mut oracle, &stream, true).matches;
            assert!(!expected.is_empty(), "{p} must match");
            assert_eq!(keyed(&result.per_query[id]), keyed(&expected), "{p}");
        }
    }

    /// Helper for building SEQ sub-expressions inside an OR.
    struct PatternExprHelpers;
    impl PatternExprHelpers {
        fn seq2(
            b: &PatternBuilder,
            x: crate::pattern::Ev,
            y: crate::pattern::Ev,
        ) -> crate::pattern::PatternExpr {
            crate::pattern::PatternExpr::Seq(vec![b.expr(x), b.expr(y)])
        }
    }

    #[test]
    fn unregister_mid_stream_leaves_remaining_queries_byte_identical() {
        let cfg = EngineConfig::default();
        let p_keep = seq_ab(10, 0, 1, true);
        let p_drop = seq_ab(10, 0, 1, false);
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        let keep = reg.register(&p_keep).unwrap();
        let drop_id = reg.register(&p_drop).unwrap();
        let stream = mixed_stream();
        let mut out = Vec::new();
        let mut kept_matches = Vec::new();
        for (i, e) in stream.iter().enumerate() {
            if i == stream.len() / 2 {
                assert!(reg.unregister(drop_id));
                assert!(!reg.contains(drop_id));
            }
            reg.process(e, &mut out);
            for (id, m) in out.drain(..) {
                if id == keep {
                    kept_matches.push(m);
                }
            }
        }
        reg.flush(&mut out);
        for (id, m) in out.drain(..) {
            if id == keep {
                kept_matches.push(m);
            }
        }
        let cp = CompiledPattern::compile_single(&p_keep).unwrap();
        let mut independent = NaiveEngine::new(cp, cfg);
        let expected = run_to_completion(&mut independent, &stream, true).matches;
        assert_eq!(keyed(&kept_matches), keyed(&expected));
    }

    #[test]
    fn unregister_retires_exclusive_fragments_only() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        let shared = seq_ab(10, 0, 1, true);
        let q1 = reg.register(&shared).unwrap();
        let _q2 = reg.register(&shared).unwrap();
        let q3 = reg.register(&seq_ab(10, 2, 3, false)).unwrap();
        assert_eq!(reg.fragment_count(), 2);
        // q1 leaves: the shared fragment survives (q2 still subscribed).
        assert!(reg.unregister(q1));
        assert_eq!(reg.fragment_count(), 2);
        // q3 leaves: its exclusive fragment is retired.
        let before = reg.metrics();
        assert!(reg.unregister(q3));
        assert_eq!(reg.fragment_count(), 1);
        let after = reg.metrics();
        assert!(
            after.events_relevant >= before.events_relevant
                && after.predicate_evaluations >= before.predicate_evaluations,
            "retired fragment counters stay in the aggregate"
        );
        assert!(!reg.unregister(q3), "double unregister is a no-op");
    }

    #[test]
    fn register_failure_leaves_registry_unchanged() {
        let cfg = EngineConfig::default();
        let flaky: Arc<dyn FragmentBuilder> = {
            let cfg = cfg.clone();
            Arc::new(move |cp: &CompiledPattern, _p: Arc<PredicateProgram>| {
                if cp.n() >= 3 {
                    return Err(CepError::Plan("no engine for wide branches".into()));
                }
                Ok(Box::new(NaiveEngine::new(cp.clone(), cfg.clone())) as Box<dyn Engine>)
            })
        };
        let mut reg = QueryRegistry::new(flaky);
        reg.register(&seq_ab(10, 0, 1, true)).unwrap();
        assert_eq!(reg.fragment_count(), 1);
        let err = reg.register(&seq_abc(10, 0, 1, 2));
        assert!(err.is_err());
        assert_eq!(reg.len(), 1, "failed registration left no query behind");
        assert_eq!(reg.fragment_count(), 1, "and no orphan fragment");
    }

    #[test]
    fn per_query_metrics_mirror_subscriptions() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        let p = seq_ab(10, 0, 1, true);
        let q1 = reg.register(&p).unwrap();
        let q2 = reg.register(&p).unwrap();
        let stream = mixed_stream();
        let result = reg.run(&stream);
        let m1 = reg.query_metrics(q1).unwrap();
        let m2 = reg.query_metrics(q2).unwrap();
        assert_eq!(m1.events_processed, stream.len() as u64);
        assert_eq!(m1.matches_emitted, result.per_query[&q1].len() as u64);
        // Shared fragment: both views absorb the same engine counters.
        assert_eq!(m1.predicate_evaluations, m2.predicate_evaluations);
        // Registry-level view counts the shared work once.
        let total = reg.metrics();
        assert_eq!(total.predicate_evaluations, m1.predicate_evaluations);
        assert!(reg.query_metrics(QueryId(999)).is_none());
    }

    #[test]
    fn type_routing_skips_irrelevant_fragments() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        let q = reg.register(&seq_ab(10, 0, 1, true)).unwrap();
        let stream = mixed_stream(); // types 0..4; only 0 and 1 relevant
        let result = reg.run(&stream);
        let qm = reg.query_metrics(q).unwrap();
        assert!(
            qm.events_relevant < stream.len() as u64,
            "fragment only saw its own types"
        );
        // Output still identical to an engine fed the full stream.
        let cp = CompiledPattern::compile_single(&seq_ab(10, 0, 1, true)).unwrap();
        let mut ind = NaiveEngine::new(cp, cfg);
        let expected = run_to_completion(&mut ind, &stream, true).matches;
        assert_eq!(keyed(&result.per_query[&q]), keyed(&expected));
    }

    #[test]
    fn set_plan_detects_shared_prefixes() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        // Same (a, b) prefix with predicate, different third element.
        reg.register(&seq_abc(10, 0, 1, 2)).unwrap();
        reg.register(&seq_abc(10, 0, 1, 3)).unwrap();
        reg.register(&seq_ab(10, 4, 2, false)).unwrap();
        let report = reg.set_plan();
        assert_eq!(report.queries, 3);
        assert_eq!(report.distinct_fragments, 3);
        assert_eq!(report.prefix_groups.len(), 1, "{:?}", report.prefix_groups);
        assert_eq!(report.prefix_groups[0].len, 2);
        assert_eq!(report.prefix_groups[0].fragments, 2);
    }

    #[test]
    fn prefix_signature_contract() {
        let p1 = CompiledPattern::compile_single(&seq_abc(10, 0, 1, 2)).unwrap();
        let p2 = CompiledPattern::compile_single(&seq_abc(10, 0, 1, 3)).unwrap();
        let p3 = CompiledPattern::compile_single(&seq_abc(11, 0, 1, 2)).unwrap();
        assert_eq!(prefix_signature(&p1, 2), prefix_signature(&p2, 2));
        assert_ne!(
            prefix_signature(&p1, 2),
            prefix_signature(&p3, 2),
            "window differences break prefix sharing"
        );
        assert_eq!(prefix_signature(&p1, 1), None, "k < 2 is not a prefix");
        assert_eq!(prefix_signature(&p1, 3), None, "k == n is the whole branch");
        let neg = CompiledPattern::compile_single(&seq_with_not(8, 0, 2, 1)).unwrap();
        assert_eq!(prefix_signature(&neg, 2), None, "negated branches excluded");
    }

    #[test]
    fn registry_spec_instantiates_identical_registries() {
        let cfg = EngineConfig::default();
        let mut spec = RegistrySpec::new(naive_builder(&cfg));
        let a = spec.add(&seq_ab(10, 0, 1, true)).unwrap();
        let b = spec.add(&seq_abc(10, 0, 1, 2)).unwrap();
        assert_eq!(spec.queries(), 2);
        assert_eq!(spec.max_window(), 10);
        assert!(spec.branches().count() >= 2);
        let stream = mixed_stream();
        let r1 = spec.instantiate().unwrap().run(&stream);
        let r2 = spec.instantiate().unwrap().run(&stream);
        for id in [a, b] {
            assert_eq!(keyed(&r1.per_query[&id]), keyed(&r2.per_query[&id]));
        }
        // The second instantiation reused every lowered program.
        assert_eq!(r2.metrics.plan_cache_misses, 0);
        assert!(r2.metrics.plan_cache_hits >= 2);
    }

    #[test]
    fn tracer_sees_registrations_and_unregistrations() {
        let ring = Arc::new(cep_obs::RingSink::new(16));
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg));
        reg.set_tracer(Tracer::to_sink(ring.clone()));
        let p = seq_ab(10, 0, 1, true);
        let q1 = reg.register(&p).unwrap();
        let _q2 = reg.register(&p).unwrap();
        reg.unregister(q1);
        let records = ring.snapshot();
        assert_eq!(records.len(), 3);
        match &records[1] {
            TraceRecord::QueryRegistered {
                branches, shared, ..
            } => {
                assert_eq!(*branches, 1);
                assert_eq!(*shared, 1);
            }
            other => panic!("expected QueryRegistered, got {other:?}"),
        }
        match &records[2] {
            TraceRecord::QueryUnregistered {
                retired_fragments,
                fragments,
                ..
            } => {
                assert_eq!(*retired_fragments, 0, "fragment still shared");
                assert_eq!(*fragments, 1);
            }
            other => panic!("expected QueryUnregistered, got {other:?}"),
        }
    }
}
