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
//!
//! Everything around the tree — gate, negation, emission, pruning of the
//! node stores — is the shared [`EngineShell`].

use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{Engine, EngineConfig};
use cep_core::error::CepError;
use cep_core::event::{EventRef, TypeId};
use cep_core::instance::{partner_ts_range, sorted_span, Instance};
use cep_core::keyed::{EqJoin, KeyedStore, Slot};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::plan::{TreeNode, TreePlan};
use cep_core::shell::{EngineShell, Join};
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
    shell: EngineShell,
    tree: Tree,
}

/// The tree's join state: the flattened plan and one store per node.
struct Tree {
    nodes: Vec<NodeSpec>,
    root: usize,
    /// `(accepted type, leaf node, element)` per leaf, in node order.
    leaves: Vec<(TypeId, usize, usize)>,
    /// Instances stored at each node, within the window.
    stores: Vec<KeyedStore<Instance>>,
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
                NodeKind::Leaf { elem } => Some((cp.elements[elem].event_type, i, elem)),
                NodeKind::Internal { .. } => None,
            })
            .collect();
        let tree = Tree {
            stores: nodes.iter().map(|_| KeyedStore::new()).collect(),
            nodes,
            root,
            leaves,
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

    /// Arena statistics: `(instances derived, shells reused)`.
    pub fn arena_stats(&self) -> (u64, u64) {
        self.shell.arena_stats()
    }
}

impl Tree {
    /// A freshly created instance at `node` combines with the sibling store
    /// and recurses upward; at the root it becomes a match.
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
            if let NodeKind::Leaf { elem } = self.nodes[node].kind {
                if sh.pattern().elements[elem].kleene {
                    self.stores[node].push_in_order(Slot::All, inst.clone(), |i| i.max_ts);
                }
            }
            sh.finalize(inst, &mut self.stores, out);
            return;
        }
        let parent = self.nodes[node].parent.expect("non-root has a parent");
        let sibling = self.nodes[node].sibling.expect("non-root has a sibling");
        // The instance lives in its own store under the same join value it
        // probes the sibling's with.
        let slot = match &self.nodes[node].key {
            Some(join) => {
                sh.metrics.index_probes += 1;
                inst.join_slot(join.elem, join.attr)
            }
            None => Slot::All,
        };
        // Symmetric join with the sibling's current store: every (new, old)
        // pair is considered exactly once, at the newer side's creation.
        // Members outside the window/precedence slice could not merge.
        let members = self.stores[sibling].visit(&slot);
        let span = partner_ts_range(
            sh.pattern(),
            inst.extents(),
            &self.nodes[node].sibling_elems,
        )
        .map_or(0..0, |range| sorted_span(members, &range, |s| s.max_ts));
        let mut merged = Vec::new();
        for s in &members[span] {
            if sh.merge_compatible(&inst, s) {
                merged.push(sh.arena.merge(&inst, s));
            }
        }
        self.stores[node].push_in_order(slot, inst, |i| i.max_ts);
        for m in merged {
            self.propagate(sh, parent, m, out);
        }
    }

    /// Handles an event arriving at the leaf of element `elem`.
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
            let mut grown = Vec::new();
            for i in self.stores[leaf].visit(&Slot::All) {
                if event.seq >= i.kl_gate && sh.has_room(i, elem) && sh.compatible(i, elem, event) {
                    grown.push(sh.arena.with_kleene(i, elem, event.clone()));
                }
            }
            for g in grown {
                self.propagate(sh, leaf, g, out);
            }
        }
        self.propagate(sh, leaf, seed, out);
    }
}

impl Join for Tree {
    fn arrive(&mut self, sh: &mut EngineShell, event: &EventRef, out: &mut Vec<Match>) {
        // Route to every leaf accepting this type.
        for i in 0..self.leaves.len() {
            let (accepts, leaf, elem) = self.leaves[i];
            if accepts == event.type_id {
                self.leaf_arrival(sh, leaf, elem, event, out);
            }
        }
    }

    fn partials(&mut self) -> &mut [KeyedStore<Instance>] {
        &mut self.stores
    }

    fn buffered(&self) -> usize {
        0
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
