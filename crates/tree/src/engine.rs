//! The instance-based tree engine (Section 2.3, after ZStream [35]).
//!
//! The engine follows a [`TreePlan`]: events are routed to the leaves, and
//! partial matches climb towards the root. Per the paper's modification of
//! ZStream from batch iteration to arbitrary time windows, a separate
//! instance is kept for every currently viable partial match: whenever a
//! new instance is created at a node, it is combined with the instances
//! stored at the *sibling* node, producing new instances at the parent —
//! a symmetric-join discipline that counts every pair exactly once.
//!
//! Node stores are [`KeyedStore`]s: when an equality join crosses a node's
//! and its sibling's element sets ([`CompiledPattern::join_key`]), both
//! stores are bucketed by the join value and a new instance meets only the
//! sibling bucket of its own value instead of the whole store.
//!
//! Every bucket is also sorted by `max_ts`: each instance is created while
//! its newest event is processed, and pruning is stable. A new instance
//! therefore meets only the slice of the sibling bucket that window and
//! precedence allow ([`partner_ts_range`] over the sibling's elements).

use cep_core::buffer::TypeBuffers;
use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{Engine, EngineConfig};
use cep_core::error::CepError;
use cep_core::event::{EventRef, Timestamp, TypeId};
use cep_core::instance::{
    compatible_with, contiguity_ok, merge_compatible_with, partner_ts_range, sorted_span, Instance,
    InstanceArena,
};
use cep_core::keyed::{EqJoin, KeyedStore, Slot};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::negation::DeferredStore;
use cep_core::plan::{TreeNode, TreePlan};
use cep_core::selection::ConsumedSet;
use std::sync::Arc;

/// A flattened tree-plan node.
#[derive(Debug, Clone)]
enum NodeKind {
    Leaf { elem: usize },
    Internal { left: usize, right: usize },
}

#[derive(Debug, Clone)]
struct NodeSpec {
    kind: NodeKind,
    parent: Option<usize>,
    sibling: Option<usize>,
    /// The equality join from this node's elements to its sibling's that
    /// buckets this node's store (the sibling holds the mirrored entry).
    key: Option<EqJoin>,
    /// The elements every instance stored at the sibling binds.
    sibling_elems: Vec<usize>,
}

/// Tree-based (ZStream-style) evaluation engine.
pub struct TreeEngine {
    cp: CompiledPattern,
    cfg: EngineConfig,
    /// Compiled predicate program.
    program: Arc<PredicateProgram>,
    nodes: Vec<NodeSpec>,
    root: usize,
    /// `(accepted type, leaf node)` per leaf, in node order.
    leaves: Vec<(TypeId, usize)>,
    /// Instances stored at each node, within the window.
    stores: Vec<KeyedStore<Instance>>,
    arena: InstanceArena,
    /// The empty instance every leaf arrival is checked against and seeded
    /// from.
    empty: Instance,
    /// Buffered events of negated types (for negation checks only; positive
    /// events live in the leaf stores).
    buffers: TypeBuffers,
    deferred: DeferredStore,
    consumed: ConsumedSet,
    watermark: Timestamp,
    events_since_prune: u64,
    metrics: EngineMetrics,
}

impl TreeEngine {
    /// Builds an engine for one compiled pattern branch and a tree plan,
    /// lowering the pattern's predicates into a [`PredicateProgram`]; use
    /// [`TreeEngine::with_program`] to supply an already-compiled (cached)
    /// program instead.
    pub fn new(
        cp: CompiledPattern,
        plan: TreePlan,
        cfg: EngineConfig,
    ) -> Result<TreeEngine, CepError> {
        let program = Arc::new(PredicateProgram::compile(&cp));
        TreeEngine::with_program(cp, plan, cfg, program)
    }

    /// [`TreeEngine::new`] with a pre-compiled program (typically from a
    /// [`cep_core::compiled::PlanCache`]), avoiding recompilation.
    pub fn with_program(
        cp: CompiledPattern,
        plan: TreePlan,
        cfg: EngineConfig,
        program: Arc<PredicateProgram>,
    ) -> Result<TreeEngine, CepError> {
        plan.validate(&cp)?;
        let mut nodes = Vec::new();
        let mut elems = Vec::new();
        let root = flatten(&plan.root, &mut nodes, &mut elems);
        // Fill parent/sibling links and the join keys crossing each pair.
        for i in 0..nodes.len() {
            if let NodeKind::Internal { left, right } = nodes[i].kind {
                for (node, sibling) in [(left, right), (right, left)] {
                    nodes[node].parent = Some(i);
                    nodes[node].sibling = Some(sibling);
                    nodes[node].key = cp.join_key(&elems[node], &elems[sibling]).cloned();
                    nodes[node].sibling_elems = elems[sibling].clone();
                }
            }
        }
        let leaves = nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.kind {
                NodeKind::Leaf { elem } => Some((cp.elements[elem].event_type, i)),
                NodeKind::Internal { .. } => None,
            })
            .collect();
        let stores = nodes.iter().map(|_| KeyedStore::new()).collect();
        Ok(TreeEngine {
            empty: Instance::empty(cp.n()),
            cp,
            cfg,
            program,
            nodes,
            root,
            leaves,
            stores,
            arena: InstanceArena::new(),
            buffers: TypeBuffers::new(),
            deferred: DeferredStore::new(),
            consumed: ConsumedSet::new(),
            watermark: 0,
            events_since_prune: 0,
            metrics: EngineMetrics::new(),
        })
    }

    /// Convenience constructor using the left-deep tree over specification
    /// order.
    pub fn with_trivial_plan(cp: CompiledPattern, cfg: EngineConfig) -> TreeEngine {
        let plan = TreePlan::left_deep(&cep_core::plan::OrderPlan::trivial(&cp));
        TreeEngine::new(cp, plan, cfg).expect("trivial plan always fits")
    }

    fn live_instances(&self) -> usize {
        self.stores.iter().map(KeyedStore::len).sum::<usize>() + self.deferred.len()
    }

    /// The compiled predicate program driving this engine.
    pub fn program(&self) -> &Arc<PredicateProgram> {
        &self.program
    }

    /// Arena statistics: `(instances derived, shells reused)`.
    pub fn arena_stats(&self) -> (u64, u64) {
        (self.arena.allocs(), self.arena.reuses())
    }

    fn emit(&mut self, m: Match, out: &mut Vec<Match>) {
        if self.cp.strategy.consumes() {
            if !self.consumed.consume(&m) {
                return;
            }
            let (consumed, arena) = (&self.consumed, &mut self.arena);
            for store in &mut self.stores {
                store.retain(|i| !i.intersects(consumed), |i| arena.retire(i));
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
        if !contiguity_ok(&self.cp, &inst) {
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
                        b.expect("root instances bind every element"),
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
            .admit(&self.cp, m, self.watermark, &self.buffers)
        {
            self.emit(m, out);
        }
    }

    /// A freshly created instance at `node` combines with the sibling store
    /// and recurses upward; at the root it becomes a match.
    fn propagate(&mut self, node: usize, inst: Instance, out: &mut Vec<Match>) {
        self.metrics.partial_matches_created += 1;
        if node == self.root {
            // Root instances are full matches; nothing joins against them.
            // A Kleene leaf at the root still keeps its accumulators: later
            // events of its type grow them in `leaf_arrival`.
            if let NodeKind::Leaf { elem } = self.nodes[node].kind {
                if self.cp.elements[elem].kleene {
                    self.stores[node].push_in_order(Slot::All, inst.clone(), |i| i.max_ts);
                }
            }
            self.finalize(inst, out);
            return;
        }
        let parent = self.nodes[node].parent.expect("non-root has a parent");
        let sibling = self.nodes[node].sibling.expect("non-root has a sibling");
        // The instance lives in its own store under the same join value it
        // probes the sibling's with.
        let slot = match &self.nodes[node].key {
            Some(join) => {
                self.metrics.index_probes += 1;
                inst.join_slot(join.elem, join.attr)
            }
            None => Slot::All,
        };
        // Symmetric join with the sibling's current store: every (new, old)
        // pair is considered exactly once, at the newer side's creation.
        // Members outside the window/precedence slice could not merge.
        let merged: Vec<Instance> = {
            let cp = &self.cp;
            let prog: &PredicateProgram = &self.program;
            let consumed = &self.consumed;
            let metrics = &mut self.metrics;
            let arena = &mut self.arena;
            let members = self.stores[sibling].visit(&slot);
            let span = partner_ts_range(cp, inst.extents(), &self.nodes[node].sibling_elems)
                .map_or(0..0, |range| sorted_span(members, &range, |s| s.max_ts));
            members[span]
                .iter()
                .filter(|s| merge_compatible_with(cp, prog, &inst, s, consumed, metrics))
                .map(|s| arena.merge(&inst, s))
                .collect()
        };
        self.stores[node].push_in_order(slot, inst, |i| i.max_ts);
        for m in merged {
            self.propagate(parent, m, out);
        }
    }

    /// Handles an event arriving at a leaf.
    fn leaf_arrival(&mut self, leaf: usize, event: &EventRef, out: &mut Vec<Match>) {
        let elem = match self.nodes[leaf].kind {
            NodeKind::Leaf { elem } => elem,
            NodeKind::Internal { .. } => unreachable!("leaf_arrival on internal node"),
        };
        if !compatible_with(
            &self.cp,
            &self.program,
            &self.empty,
            elem,
            event,
            &self.consumed,
            &mut self.metrics,
        ) {
            return;
        }
        if self.cp.elements[elem].kleene {
            // Grow every stored accumulator (gated by serial number so each
            // subset appears exactly once), then seed the singleton set.
            // (A Kleene leaf is never keyed: its store is one bucket.)
            let grown: Vec<Instance> = {
                let cp = &self.cp;
                let prog: &PredicateProgram = &self.program;
                let cfg = &self.cfg;
                let consumed = &self.consumed;
                let metrics = &mut self.metrics;
                let arena = &mut self.arena;
                self.stores[leaf]
                    .visit(&Slot::All)
                    .iter()
                    .filter(|i| {
                        event.seq >= i.kl_gate
                            && i.kleene_len(elem) < cfg.max_kleene_events
                            && compatible_with(cp, prog, i, elem, event, consumed, metrics)
                    })
                    .map(|i| arena.with_kleene(i, elem, event.clone()))
                    .collect()
            };
            for g in grown {
                self.propagate(leaf, g, out);
            }
            let seed = self.arena.with_kleene(&self.empty, elem, event.clone());
            self.propagate(leaf, seed, out);
        } else {
            let seed = self.arena.with_single(&self.empty, elem, event.clone());
            self.propagate(leaf, seed, out);
        }
    }

    fn prune(&mut self) {
        let watermark = self.watermark;
        let window = self.cp.window;
        self.buffers.prune(watermark, window);
        let arena = &mut self.arena;
        for store in &mut self.stores {
            store.retain(|i| !i.expired(watermark, window), |i| arena.retire(i));
        }
        self.consumed.retain_window(watermark, window);
    }
}

/// Flattens `node` into `out` (children before parents), recording each
/// flattened node's element set in `elems`; returns the node's index.
fn flatten(node: &TreeNode, out: &mut Vec<NodeSpec>, elems: &mut Vec<Vec<usize>>) -> usize {
    let (kind, covered) = match node {
        TreeNode::Leaf(elem) => (NodeKind::Leaf { elem: *elem }, vec![*elem]),
        TreeNode::Node(l, r) => {
            let left = flatten(l, out, elems);
            let right = flatten(r, out, elems);
            let covered = [elems[left].as_slice(), elems[right].as_slice()].concat();
            (NodeKind::Internal { left, right }, covered)
        }
    };
    out.push(NodeSpec {
        kind,
        parent: None,
        sibling: None,
        key: None,
        sibling_elems: Vec::new(),
    });
    elems.push(covered);
    out.len() - 1
}

impl Engine for TreeEngine {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        debug_assert!(event.ts >= self.watermark, "events arrive in ts order");
        self.metrics.events_processed += 1;
        self.watermark = self.watermark.max(event.ts);
        let watermark = self.watermark;
        self.release_deferred(watermark, out);
        if !self.cp.negated.is_empty() {
            self.deferred.on_event(&self.cp, event);
            if self.cp.negated_of_type(event.type_id).next().is_some() {
                self.buffers.push(event.clone());
            }
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
        // Route to every leaf accepting this type.
        for i in 0..self.leaves.len() {
            let (accepts, leaf) = self.leaves[i];
            if accepts == event.type_id {
                self.leaf_arrival(leaf, event, out);
            }
        }
        self.metrics
            .record_live(self.live_instances(), self.buffers.len());
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
        "tree"
    }
}
