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
//! As in ZStream, a plain leaf holds events, not partial matches: an event
//! that passes its element's filters waits in the leaf's store as an
//! [`EventRef`], and an [`Instance`] is built only when it joins the
//! sibling. A Kleene leaf holds instances, because its sets grow, and so
//! does the leaf of a one-element pattern, which completes on arrival.
//!
//! Node stores are [`KeyedStore`]s: when an equality join crosses a node's
//! and its sibling's element sets ([`CompiledPattern::join_key`]), both
//! stores are bucketed by the join value and a new arrival meets only the
//! sibling bucket of its own value instead of the whole store.
//!
//! Every bucket is also sorted by time (an instance's `max_ts`, an event's
//! `ts`): each instance is created while its newest event is processed,
//! events arrive in order, and pruning is stable. A new arrival therefore
//! meets only the slice of the sibling bucket that window and precedence
//! allow ([`partner_ts_range`] over the sibling's elements).
//!
//! Everything around the tree — gate, negation, emission, pruning of the
//! node stores — is the shared [`EngineShell`].

use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{Engine, EngineConfig};
use cep_core::error::CepError;
use cep_core::event::{expired_at, EventRef, Timestamp, TypeId};
use cep_core::instance::{partner_ts_range, sorted_span, Instance};
use cep_core::join_graph::EqJoin;
use cep_core::keyed::{KeyedStore, Slot};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::plan::{TreeNode, TreePlan};
use cep_core::shell::{EngineShell, Join};
use std::ops::Range;
use std::sync::Arc;

/// A flattened tree-plan node. The store of a plain leaf below the root
/// (`Events`) holds events; that of a Kleene or root leaf (`Leaf`) and of
/// an internal node holds instances.
#[derive(Debug, Clone, Copy)]
enum NodeKind {
    Events { elem: usize },
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
    /// The elements every member of this node's store binds: a run of the
    /// plan's in-order leaf sequence ([`Tree::elems`]).
    span: Range<usize>,
}

/// What joins a node's sibling: a new instance at the node, or an event
/// admitted at a plain leaf.
#[derive(Clone, Copy)]
enum Arrival<'a> {
    Instance(&'a Instance),
    Event(usize, &'a EventRef),
}

/// Tree-based (ZStream-style) evaluation engine.
pub struct TreeEngine {
    shell: EngineShell,
    tree: Tree,
}

/// The tree's join state: the flattened plan and one store per node.
struct Tree {
    nodes: Vec<NodeSpec>,
    /// The leaves' elements, left to right: each node covers a run of it.
    elems: Vec<usize>,
    root: usize,
    /// `(accepted type, leaf node)` per leaf, in node order.
    leaves: Vec<(TypeId, usize)>,
    stores: Stores,
    /// Instances created but not yet propagated: one stack for all the
    /// nested joins of an event, so that no join allocates a list.
    pending: Vec<Instance>,
}

/// One store per node, holding what arrived there within the window.
struct Stores {
    /// Instances at each internal node and instance leaf.
    instances: Vec<KeyedStore<Instance>>,
    /// Events at each plain leaf.
    events: Vec<KeyedStore<EventRef>>,
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
        let mut nodes = Vec::with_capacity(2 * cp.n() - 1);
        let mut elems = Vec::with_capacity(cp.n());
        let root = flatten(&plan.root, &mut nodes, &mut elems);
        // Fill parent/sibling links and the join keys crossing each pair.
        for i in 0..nodes.len() {
            if let NodeKind::Internal { left, right } = nodes[i].kind {
                for (node, sibling) in [(left, right), (right, left)] {
                    let (own, other) = (nodes[node].span.clone(), nodes[sibling].span.clone());
                    nodes[node].parent = Some(i);
                    nodes[node].sibling = Some(sibling);
                    nodes[node].key = cp.join_key(&elems[own], &elems[other]).cloned();
                }
            }
        }
        let mut leaves = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            if let NodeKind::Leaf { elem } = node.kind {
                if i != root && !cp.elements[elem].kleene {
                    node.kind = NodeKind::Events { elem };
                }
                leaves.push((cp.elements[elem].event_type, i));
            }
        }
        let tree = Tree {
            stores: Stores {
                instances: nodes.iter().map(|_| KeyedStore::new()).collect(),
                events: nodes.iter().map(|_| KeyedStore::new()).collect(),
            },
            nodes,
            elems,
            root,
            leaves,
            pending: Vec::new(),
        };
        Ok(TreeEngine {
            shell: EngineShell::new(cp, cfg, program),
            tree,
        })
    }

    /// Convenience constructor using the left-deep tree over specification
    /// order.
    pub fn with_trivial_plan(cp: CompiledPattern, cfg: EngineConfig) -> TreeEngine {
        let plan = TreePlan::left_deep(&cep_core::plan::OrderPlan::trivial(&cp));
        TreeEngine::new(cp, plan, cfg).expect("trivial plan always fits")
    }

    /// The compiled predicate program driving this engine.
    pub fn program(&self) -> &Arc<PredicateProgram> {
        self.shell.program()
    }
}

impl Tree {
    /// A freshly created instance at `node` joins the sibling's store and
    /// waits in its own; at the root it becomes a match.
    fn propagate(
        &mut self,
        sh: &mut EngineShell,
        node: usize,
        inst: Instance,
        out: &mut Vec<Match>,
    ) {
        sh.metrics.partial_matches_created += 1;
        if node == self.root {
            // Root instances are full matches; nothing joins against them.
            // A Kleene leaf at the root still keeps its accumulators: later
            // events of its type grow them in `leaf_arrival`.
            let instances = &mut self.stores.instances;
            if let NodeKind::Leaf { elem } = self.nodes[node].kind {
                if sh.pattern().elements[elem].kleene {
                    instances[node].push_in_order(Slot::All, inst.clone(), |i| i.max_ts);
                }
            }
            sh.finalize(inst, instances, out);
            return;
        }
        let base = self.pending.len();
        let (nodes, elems, created) = (&self.nodes, &self.elems, &mut self.pending);
        let slot = (self.stores).join(sh, nodes, elems, node, Arrival::Instance(&inst), created);
        self.stores.instances[node].push_in_order(slot, inst, |i| i.max_ts);
        self.propagate_pending(sh, self.parent(node), base, out);
    }

    /// An event at the plain leaf of `elem`: once admitted, it joins the
    /// sibling's store and waits in the leaf's own.
    fn event_arrival(
        &mut self,
        sh: &mut EngineShell,
        leaf: usize,
        elem: usize,
        event: &EventRef,
        out: &mut Vec<Match>,
    ) {
        if !sh.admits(elem, event) {
            return;
        }
        let base = self.pending.len();
        let (nodes, elems, created) = (&self.nodes, &self.elems, &mut self.pending);
        let arrival = Arrival::Event(elem, event);
        let slot = (self.stores).join(sh, nodes, elems, leaf, arrival, created);
        self.stores.events[leaf].push_in_order(slot, event.clone(), |e| e.ts);
        self.propagate_pending(sh, self.parent(leaf), base, out);
    }

    /// Handles an event arriving at the instance leaf of element `elem`.
    fn leaf_arrival(
        &mut self,
        sh: &mut EngineShell,
        leaf: usize,
        elem: usize,
        event: &EventRef,
        out: &mut Vec<Match>,
    ) {
        let Some(seed) = sh.seed(elem, event) else {
            return;
        };
        if sh.pattern().elements[elem].kleene {
            // Grow every stored accumulator (gated by serial number so each
            // subset appears exactly once) before the singleton set joins
            // them. (A Kleene leaf is never keyed: its store is one bucket.)
            let base = self.pending.len();
            for i in self.stores.instances[leaf].visit(&Slot::All) {
                if event.seq >= i.kl_gate && sh.has_room(i, elem) && sh.compatible(i, elem, event) {
                    self.pending.push(i.with_kleene(elem, event.clone()));
                }
            }
            self.propagate_pending(sh, leaf, base, out);
        }
        self.propagate(sh, leaf, seed, out);
    }

    fn parent(&self, node: usize) -> usize {
        self.nodes[node].parent.expect("non-root has a parent")
    }

    /// Propagates `pending[base..]` at `node`, in creation order. Each
    /// propagation pops what it pushes, so the stack is back at `base`.
    fn propagate_pending(
        &mut self,
        sh: &mut EngineShell,
        node: usize,
        base: usize,
        out: &mut Vec<Match>,
    ) {
        self.pending[base..].reverse();
        while self.pending.len() > base {
            let inst = self.pending.pop().expect("above base");
            self.propagate(sh, node, inst, out);
        }
    }
}

impl Stores {
    /// Symmetric join of an arrival at `node` with the sibling's store:
    /// every (new, old) pair is considered exactly once, at the newer
    /// side's creation. Pushes the instances it creates at the parent onto
    /// `created` and returns the slot the arrival lives under in its own
    /// store, the same join value it probes the sibling's with. Members
    /// outside the window/precedence slice could not join and are not
    /// visited.
    fn join(
        &self,
        sh: &mut EngineShell,
        nodes: &[NodeSpec],
        elems: &[usize],
        node: usize,
        arrival: Arrival,
        created: &mut Vec<Instance>,
    ) -> Slot {
        let spec = &nodes[node];
        let sibling = spec.sibling.expect("non-root has a sibling");
        let slot = match (&spec.key, arrival) {
            (None, _) => Slot::All,
            (Some(join), Arrival::Instance(inst)) => {
                sh.metrics.index_probes += 1;
                inst.join_slot(join.elem, join.attr)
            }
            (Some(join), Arrival::Event(_, event)) => {
                sh.metrics.index_probes += 1;
                Slot::of(event.attr(join.attr))
            }
        };
        let partner = &elems[nodes[sibling].span.clone()];
        let range = match arrival {
            Arrival::Instance(inst) => partner_ts_range(sh.pattern(), inst.extents(), partner),
            Arrival::Event(elem, event) => {
                let bound = std::iter::once((elem, event.ts, event.ts));
                partner_ts_range(sh.pattern(), bound, partner)
            }
        };
        let Some(range) = range else {
            return slot;
        };
        match nodes[sibling].kind {
            NodeKind::Events { elem: other } => {
                let members = self.events[sibling].visit(&slot);
                for e in &members[sorted_span(members, &range, |e| e.ts)] {
                    match arrival {
                        Arrival::Instance(inst) => {
                            if sh.joins(inst, other, e) {
                                created.push(inst.with_single(other, e.clone()));
                            }
                        }
                        Arrival::Event(elem, event) => {
                            if sh.events_join((elem, event), (other, e)) {
                                created.push(sh.pair((elem, event), (other, e)));
                            }
                        }
                    }
                }
            }
            NodeKind::Leaf { .. } | NodeKind::Internal { .. } => {
                let members = self.instances[sibling].visit(&slot);
                for s in &members[sorted_span(members, &range, |s| s.max_ts)] {
                    match arrival {
                        Arrival::Instance(inst) => {
                            if sh.merge_compatible(inst, s) {
                                created.push(inst.merge(s));
                            }
                        }
                        Arrival::Event(elem, event) => {
                            if sh.joins(s, elem, event) {
                                created.push(s.with_single(elem, event.clone()));
                            }
                        }
                    }
                }
            }
        }
        slot
    }
}

impl Join for Tree {
    fn arrive(&mut self, sh: &mut EngineShell, event: &EventRef, out: &mut Vec<Match>) {
        // Route to every leaf accepting this type.
        for i in 0..self.leaves.len() {
            let (accepts, leaf) = self.leaves[i];
            if accepts != event.type_id {
                continue;
            }
            match self.nodes[leaf].kind {
                NodeKind::Events { elem } => self.event_arrival(sh, leaf, elem, event, out),
                NodeKind::Leaf { elem } => self.leaf_arrival(sh, leaf, elem, event, out),
                NodeKind::Internal { .. } => unreachable!("leaves are leaf nodes"),
            }
        }
    }

    fn partials(&mut self) -> &mut [KeyedStore<Instance>] {
        &mut self.stores.instances
    }

    fn buffered(&self) -> usize {
        self.stores.events.iter().map(KeyedStore::len).sum()
    }

    fn prune(&mut self, watermark: Timestamp, window: u64, due: bool, _: &mut EngineMetrics) {
        if due {
            for store in &mut self.stores.events {
                store.drain_front_while(|e| expired_at(e.ts, window, watermark));
            }
        }
    }
}

/// Flattens `node` into `out` (children before parents), appending its
/// leaves' elements to `elems` left to right; returns the node's index.
fn flatten(node: &TreeNode, out: &mut Vec<NodeSpec>, elems: &mut Vec<usize>) -> usize {
    let start = elems.len();
    let kind = match node {
        TreeNode::Leaf(elem) => {
            elems.push(*elem);
            NodeKind::Leaf { elem: *elem }
        }
        TreeNode::Node(l, r) => {
            let left = flatten(l, out, elems);
            let right = flatten(r, out, elems);
            NodeKind::Internal { left, right }
        }
    };
    out.push(NodeSpec {
        kind,
        parent: None,
        sibling: None,
        key: None,
        span: start..elems.len(),
    });
    out.len() - 1
}

impl Engine for TreeEngine {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        self.shell.process(&mut self.tree, event, out);
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        self.shell.flush(&mut self.tree, out);
    }

    fn metrics(&self) -> &EngineMetrics {
        &self.shell.metrics
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.shell.metrics
    }

    fn name(&self) -> &'static str {
        "tree"
    }
}
