//! The equality part of a compiled pattern's query graph (Sections 3–4),
//! built once per branch ([`CompiledPattern::join_graph`]). Every key,
//! bucket and partition decision reads it: the tree's join keys
//! ([`CompiledPattern::join_key`]), delta's index keys and the
//! replicate-join partitioner.
//!
//! **Soundness rule.** Only an `==` between two *positive* elements holds
//! on the bound events of every match, so only such predicates are
//! [direct edges](JoinGraph::edges) and merge `(element, attribute)` nodes
//! into one [equality class](JoinGraph::class_of), Kleene elements
//! included. An `==` between a positive and a negated element is checked
//! against candidate negation events only: it is kept apart as a
//! [negated link](JoinGraph::negated_links) and never bridges two
//! classes, because a constraint on an *absent* event says nothing about
//! the positives' values. An `==` between two negated elements is never
//! checked against a single candidate and adds nothing.
//!
//! [`CompiledPattern::join_graph`]: crate::compile::CompiledPattern::join_graph
//! [`CompiledPattern::join_key`]: crate::compile::CompiledPattern::join_key

use crate::predicate::{CmpOp, Predicate};
use crate::union_find::UnionFind;
use std::collections::BTreeMap;

/// A direct `elem.attr == other.other_attr` edge, owned by `elem`. An `==`
/// between two positive elements yields two mirrored edges, one owned by
/// each side ([`JoinGraph::edges`]); one between a positive and a negated
/// element yields one, owned by the negated side
/// ([`JoinGraph::negated_links`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqJoin {
    /// Index of the `==` predicate in the pattern's predicate list.
    pub pred: usize,
    /// Owning element index (into `CompiledPattern::negated` for a
    /// negated link).
    pub elem: usize,
    /// Join attribute of the owning element.
    pub attr: usize,
    /// Partner element index, always a positive element.
    pub other: usize,
    /// Join attribute of the partner element.
    pub other_attr: usize,
}

/// What a pattern position binds in one compiled branch: a positive or a
/// negated element, by index.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Binder {
    Positive(usize),
    Negated(usize),
}

/// The equality graph of one compiled branch (see the module docs).
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// Direct edges owned by each positive element, in predicate order.
    edges: Vec<Vec<EqJoin>>,
    /// Links owned by each negated element, in predicate order.
    negated_links: Vec<Vec<EqJoin>>,
    /// Positive `(element, attr)` node → its id in `classes`.
    nodes: BTreeMap<(usize, usize), usize>,
    classes: UnionFind,
}

impl JoinGraph {
    /// An empty graph over `n` positive and `negated` negated elements;
    /// predicates arrive through [`add`](JoinGraph::add).
    pub(crate) fn new(n: usize, negated: usize) -> JoinGraph {
        JoinGraph {
            edges: vec![Vec::new(); n],
            negated_links: vec![Vec::new(); negated],
            nodes: BTreeMap::new(),
            classes: UnionFind::default(),
        }
    }

    /// Records predicate `pred`, which references two distinct positions,
    /// if it is an `==` between their attributes. This is the one place
    /// `==` predicates become graph structure.
    pub(crate) fn add(
        &mut self,
        pred: usize,
        p: &Predicate,
        binder: impl Fn(usize) -> Option<Binder>,
    ) {
        let (CmpOp::Eq, Some((pa, aa)), Some((pb, ab))) =
            (p.op, p.left.as_attr(), p.right.as_attr())
        else {
            return;
        };
        let edge = |elem, attr, other, other_attr| EqJoin {
            pred,
            elem,
            attr,
            other,
            other_attr,
        };
        match (binder(pa), binder(pb)) {
            (Some(Binder::Positive(i)), Some(Binder::Positive(j))) => {
                self.edges[i].push(edge(i, aa, j, ab));
                self.edges[j].push(edge(j, ab, i, aa));
                let (x, y) = (self.node(i, aa), self.node(j, ab));
                self.classes.union(x, y);
            }
            (Some(Binder::Positive(i)), Some(Binder::Negated(k))) => {
                self.node(i, aa);
                self.negated_links[k].push(edge(k, ab, i, aa));
            }
            (Some(Binder::Negated(k)), Some(Binder::Positive(j))) => {
                self.node(j, ab);
                self.negated_links[k].push(edge(k, aa, j, ab));
            }
            _ => {}
        }
    }

    fn node(&mut self, elem: usize, attr: usize) -> usize {
        let classes = &mut self.classes;
        *self
            .nodes
            .entry((elem, attr))
            .or_insert_with(|| classes.make())
    }

    /// The direct edges owned by positive element `i`, in predicate order.
    pub fn edges(&self, i: usize) -> &[EqJoin] {
        &self.edges[i]
    }

    /// The direct links of negated element `k` to positive nodes, in
    /// predicate order, owned by `k`.
    pub fn negated_links(&self, k: usize) -> &[EqJoin] {
        &self.negated_links[k]
    }

    /// Every positive `(element, attr)` node an `==` names, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.nodes.keys().copied()
    }

    /// The equality class of the positive node `(elem, attr)`, or `None`
    /// when no `==` names it.
    pub fn class_of(&self, elem: usize, attr: usize) -> Option<usize> {
        (self.nodes.get(&(elem, attr))).map(|&id| self.classes.find(id))
    }
}

#[cfg(test)]
mod tests {
    use crate::compile::CompiledPattern;
    use crate::event::TypeId;
    use crate::pattern::{Pattern, PatternBuilder, PatternExpr};
    use crate::predicate::{CmpOp, Predicate};
    use std::collections::BTreeSet;

    type Node = (usize, usize);

    /// Positive nodes and their classes by brute force: the positive ends
    /// of every `==` that names a positive element and a different
    /// element, and the transitive closure of the positive–positive ones
    /// as node pairs, grown to a fixpoint without a union-find.
    fn reference(cp: &CompiledPattern) -> (BTreeSet<Node>, BTreeSet<[Node; 2]>) {
        let elem = |pos: usize| cp.elements.iter().position(|e| e.position == pos);
        let is_negated = |pos: usize| cp.negated.iter().any(|ne| ne.position == pos);
        let (mut nodes, mut same) = (BTreeSet::new(), BTreeSet::new());
        for p in &cp.predicates {
            let (CmpOp::Eq, Some((pa, aa)), Some((pb, ab))) =
                (p.op, p.left.as_attr(), p.right.as_attr())
            else {
                continue;
            };
            match (elem(pa), elem(pb)) {
                (Some(i), Some(j)) if i != j => {
                    let (x, y) = ((i, aa), (j, ab));
                    nodes.extend([x, y]);
                    same.extend([[x, y], [y, x]]);
                }
                (Some(i), None) if is_negated(pb) => {
                    nodes.insert((i, aa));
                }
                (None, Some(j)) if is_negated(pa) => {
                    nodes.insert((j, ab));
                }
                _ => {}
            }
        }
        same.extend(nodes.iter().map(|&x| [x, x]));
        loop {
            let implied: Vec<[Node; 2]> = same
                .iter()
                .flat_map(|&[x, y]| {
                    same.iter()
                        .filter(move |&&[y2, _]| y2 == y)
                        .map(move |&[_, z]| [x, z])
                })
                .filter(|pair| !same.contains(pair))
                .collect();
            if implied.is_empty() {
                return (nodes, same);
            }
            same.extend(implied);
        }
    }

    fn assert_matches_reference(cp: &CompiledPattern, ctx: &str) {
        let graph = cp.join_graph();
        let (nodes, same) = reference(cp);
        assert_eq!(graph.nodes().collect::<BTreeSet<_>>(), nodes, "{ctx}");
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(
                    graph.class_of(x.0, x.1) == graph.class_of(y.0, y.1),
                    same.contains(&[x, y]),
                    "{ctx}: nodes {x:?} and {y:?}"
                );
            }
        }
    }

    fn compile(p: &Pattern) -> CompiledPattern {
        CompiledPattern::compile_single(p).unwrap()
    }

    #[test]
    fn classes_match_a_brute_force_closure_over_drawn_patterns() {
        let mut s = 0x1D3Au64;
        let mut below = |n: usize| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % n
        };
        let mut checked = 0;
        for round in 0..3_000 {
            let mut b = PatternBuilder::new(10);
            let n = 2 + below(5);
            let evs: Vec<_> = (0..n)
                .map(|i| b.event(TypeId(below(3) as u32), &format!("e{i}")))
                .collect();
            for _ in 0..below(7) {
                let (i, j) = (evs[below(n)].pos(), evs[below(n)].pos());
                let op = [CmpOp::Eq, CmpOp::Eq, CmpOp::Lt][below(3)];
                b.predicate(Predicate::attr_cmp(i, below(2), op, j, below(2)));
            }
            // 0..=5 plain, 6..=7 negated, 8..=9 Kleene
            let exprs: Vec<PatternExpr> = evs
                .iter()
                .map(|&e| match below(10) {
                    6 | 7 => b.not(e),
                    8 | 9 => b.kleene(e),
                    _ => b.expr(e),
                })
                .collect();
            let pattern = match below(3) {
                0 => b.seq_exprs(exprs),
                1 => b.and_exprs(exprs),
                _ => {
                    let (l, r) = exprs.split_at(1 + below(n - 1));
                    let branches = [PatternExpr::Seq(l.to_vec()), PatternExpr::And(r.to_vec())];
                    b.or_exprs(branches)
                }
            };
            let Ok(branches) = pattern.and_then(|p| CompiledPattern::compile(&p)) else {
                continue;
            };
            for (bi, cp) in branches.iter().enumerate() {
                assert_matches_reference(cp, &format!("round {round}, branch {bi}"));
                checked += 1;
            }
        }
        assert!(checked > 2_000, "only {checked} branches compiled");
    }

    #[test]
    fn a_three_way_chain_is_one_class() {
        let mut b = PatternBuilder::new(10);
        let [a, bb, c] = [0, 1, 2].map(|t| b.event(TypeId(t), "e"));
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
        b.predicate(Predicate::attr_cmp(bb.pos(), 0, CmpOp::Eq, c.pos(), 0));
        let cp = compile(&b.seq([a, bb, c]).unwrap());
        let graph = cp.join_graph();
        assert!(graph.class_of(0, 0).is_some());
        assert_eq!(graph.class_of(0, 0), graph.class_of(2, 0));
        // `a` and `c` share a class, but no predicate joins them directly.
        assert!(graph.edges(0).iter().all(|e| e.other != 2));
        assert_matches_reference(&cp, "chain");
    }

    #[test]
    fn a_chain_through_a_negated_element_merges_nothing() {
        let mut b = PatternBuilder::new(10);
        let [a, n, c] = [0, 1, 2].map(|t| b.event(TypeId(t), "e"));
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, n.pos(), 0));
        b.predicate(Predicate::attr_cmp(n.pos(), 0, CmpOp::Eq, c.pos(), 0));
        let exprs = [b.expr(a), b.not(n), b.expr(c)];
        let cp = compile(&b.seq_exprs(exprs).unwrap());
        let graph = cp.join_graph();
        assert!(graph.class_of(0, 0).is_some() && graph.class_of(1, 0).is_some());
        assert_ne!(graph.class_of(0, 0), graph.class_of(1, 0));
        assert!(graph.edges(0).is_empty() && graph.edges(1).is_empty());
        assert_eq!(graph.negated_links(0).len(), 2);
        assert_matches_reference(&cp, "negated chain");
    }

    #[test]
    fn negated_negated_equality_adds_no_link() {
        let mut b = PatternBuilder::new(10);
        let [a, n1, n2, c] = [0, 1, 2, 3].map(|t| b.event(TypeId(t), "e"));
        b.predicate(Predicate::attr_cmp(n1.pos(), 0, CmpOp::Eq, n2.pos(), 0));
        let exprs = [b.expr(a), b.not(n1), b.not(n2), b.expr(c)];
        let cp = compile(&b.seq_exprs(exprs).unwrap());
        let graph = cp.join_graph();
        assert!(graph.negated_links(0).is_empty() && graph.negated_links(1).is_empty());
        assert_eq!(graph.nodes().count(), 0);
        assert_matches_reference(&cp, "negated pair");
    }
}
