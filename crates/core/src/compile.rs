//! Compilation of patterns into the engine- and planner-facing form.
//!
//! Implements the Section 5 reductions: nested patterns are decomposed into
//! DNF (Section 5.4), sequence operators become conjunctions plus temporal
//! order constraints (Section 5.1), and negated events are extracted with
//! their temporal bounds (Section 5.3). Kleene closure elements are kept as
//! flagged elements; their power-set *rate* transform (Section 5.2) is
//! applied when building [`crate::stats::PatternStats`], not here, because —
//! as the paper notes — the rewriting is "only applied for the purpose of
//! plan generation".
//!
//! A [`CompiledPattern`] is one conjunctive branch: a set of positive
//! [`Element`]s (possibly Kleene), a set of [`NegatedElement`]s with bound
//! references, a temporal-precedence closure, and the applicable predicates.
//! Nested patterns compile to several `CompiledPattern`s whose detected
//! matches are unioned.

use crate::error::CepError;
use crate::event::TypeId;
use crate::join_graph::{Binder, EqJoin, JoinGraph};
use crate::pattern::{Pattern, PatternExpr};
use crate::predicate::Predicate;
use crate::selection::SelectionStrategy;
use std::collections::HashMap;

/// The n-ary operator of a compiled (simple) pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaryOp {
    /// Total temporal order over the positive elements.
    Seq,
    /// No (or partial) temporal order.
    And,
}

/// A positive primitive element of a compiled pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Original pattern position (stable across DNF branches).
    pub position: usize,
    /// Accepted event type.
    pub event_type: TypeId,
    /// Variable name from the specification.
    pub name: String,
    /// Whether this element is under Kleene closure: it binds a non-empty
    /// *set* of events rather than a single event.
    pub kleene: bool,
}

/// A negated primitive element with its temporal bounds.
///
/// The forbidden interval for a candidate event `b` given a positive match
/// `M` is `(L, U)` (open) where:
///
/// * `L = max ts of the elements in `before`` (or `min_ts(M)` if `before`
///   is empty and `after` is empty — the AND "span" semantics; or
///   `min ts(after) − W` for a leading NOT in a sequence);
/// * `U = min ts of the elements in `after`` (or `max_ts(M)` for the AND
///   span semantics; or `min_ts(M) + W` for a trailing NOT, in which case
///   emission is deferred until the watermark passes `U`).
#[derive(Debug, Clone, PartialEq)]
pub struct NegatedElement {
    /// Original pattern position.
    pub position: usize,
    /// Event type whose absence is asserted.
    pub event_type: TypeId,
    /// Variable name from the specification.
    pub name: String,
    /// Indices (into [`CompiledPattern::elements`]) of positive elements
    /// that temporally precede the forbidden interval.
    pub before: Vec<usize>,
    /// Indices of positive elements that temporally succeed the interval.
    pub after: Vec<usize>,
}

/// One conjunctive branch of a pattern, ready for planning and evaluation.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    /// `Seq` if the precedence relation totally orders the positive
    /// elements, otherwise `And`.
    pub op: NaryOp,
    /// Positive elements in specification order. For `Seq` patterns this is
    /// also the temporal order.
    pub elements: Vec<Element>,
    /// Negated elements.
    pub negated: Vec<NegatedElement>,
    /// All predicates applicable to this branch (positions refer to the
    /// original pattern).
    pub predicates: Vec<Predicate>,
    /// Time window in milliseconds.
    pub window: u64,
    /// Selection strategy.
    pub strategy: SelectionStrategy,
    /// `precedes[i][j]` — element `i` must occur strictly before element `j`
    /// (transitive closure).
    pub precedes: Vec<Vec<bool>>,
    /// Predicate indices between each pair of positive elements:
    /// `pred_pairs[i][j]` for `i != j` (symmetric).
    pred_pairs: Vec<Vec<Vec<usize>>>,
    /// Unary predicate indices per positive element.
    filters: Vec<Vec<usize>>,
    /// Predicate indices involving each negated element (unary filters and
    /// pairs with positive elements).
    neg_preds: Vec<Vec<usize>>,
    /// position -> positive element index.
    pos_to_elem: HashMap<usize, usize>,
    /// The `==` part of the query graph.
    join_graph: JoinGraph,
}

impl CompiledPattern {
    /// Compiles a pattern into its DNF branches.
    ///
    /// Simple patterns yield exactly one branch; nested patterns yield one
    /// branch per DNF conjunct (Section 5.4). The union of the branches'
    /// matches equals the pattern's matches.
    pub fn compile(pattern: &Pattern) -> Result<Vec<CompiledPattern>, CepError> {
        pattern.validate()?;
        let conjuncts = dnf(&pattern.expr);
        conjuncts
            .into_iter()
            .map(|c| CompiledPattern::from_conjunct(c, pattern))
            .collect()
    }

    /// Compiles a pattern that must have a single branch (no `OR`).
    ///
    /// # Errors
    /// Returns [`CepError::Pattern`] if DNF decomposition yields more than
    /// one branch; use [`CompiledPattern::compile`] plus a multi-engine for
    /// those.
    pub fn compile_single(pattern: &Pattern) -> Result<CompiledPattern, CepError> {
        let mut branches = Self::compile(pattern)?;
        if branches.len() != 1 {
            return Err(CepError::Pattern(format!(
                "pattern has {} DNF branches; evaluate each branch separately",
                branches.len()
            )));
        }
        Ok(branches.pop().expect("length checked"))
    }

    fn from_conjunct(c: Conjunct, pattern: &Pattern) -> Result<CompiledPattern, CepError> {
        let mut elements = Vec::new();
        let mut negated_raw = Vec::new();
        for a in &c.atoms {
            if a.negated {
                if a.kleene {
                    return Err(CepError::Pattern(format!(
                        "position {} is both negated and Kleene-closed",
                        a.position
                    )));
                }
                negated_raw.push(a.clone());
            } else {
                elements.push(Element {
                    position: a.position,
                    event_type: a.event_type,
                    name: a.name.clone(),
                    kleene: a.kleene,
                });
            }
        }
        if elements.is_empty() {
            return Err(CepError::Pattern(
                "a pattern branch must contain at least one positive event".into(),
            ));
        }
        let n = elements.len();
        let pos_to_elem: HashMap<usize, usize> = elements
            .iter()
            .enumerate()
            .map(|(i, e)| (e.position, i))
            .collect();

        // Precedence closure over positive elements.
        let mut precedes = vec![vec![false; n]; n];
        for &(pa, pb) in &c.order_pairs {
            if let (Some(&i), Some(&j)) = (pos_to_elem.get(&pa), pos_to_elem.get(&pb)) {
                precedes[i][j] = true;
            }
        }
        #[allow(clippy::needless_range_loop)] // Warshall closure: index form is clearest
        for k in 0..n {
            for i in 0..n {
                if precedes[i][k] {
                    for j in 0..n {
                        if precedes[k][j] {
                            precedes[i][j] = true;
                        }
                    }
                }
            }
        }
        for (i, row) in precedes.iter().enumerate() {
            if row[i] {
                return Err(CepError::Pattern(
                    "cyclic temporal ordering constraints".into(),
                ));
            }
        }
        let total_order =
            (0..n).all(|i| (0..n).all(|j| i == j || precedes[i][j] || precedes[j][i]));
        let op = if total_order && n > 0 {
            NaryOp::Seq
        } else {
            NaryOp::And
        };

        // Keep elements sorted so that for Seq patterns index order equals
        // temporal order (stable for And patterns).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            if precedes[a][b] {
                std::cmp::Ordering::Less
            } else if precedes[b][a] {
                std::cmp::Ordering::Greater
            } else {
                a.cmp(&b)
            }
        });
        let elements: Vec<Element> = order.iter().map(|&i| elements[i].clone()).collect();
        let remap: HashMap<usize, usize> = order
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let mut precedes2 = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                if precedes[i][j] {
                    precedes2[remap[&i]][remap[&j]] = true;
                }
            }
        }
        let precedes = precedes2;
        let pos_to_elem: HashMap<usize, usize> = elements
            .iter()
            .enumerate()
            .map(|(i, e)| (e.position, i))
            .collect();

        // Negated elements with bounds mapped to element indices.
        let branch_positions: std::collections::HashSet<usize> =
            c.atoms.iter().map(|a| a.position).collect();
        let negated: Vec<NegatedElement> = negated_raw
            .iter()
            .map(|a| NegatedElement {
                position: a.position,
                event_type: a.event_type,
                name: a.name.clone(),
                before: a
                    .before
                    .iter()
                    .filter_map(|p| pos_to_elem.get(p).copied())
                    .collect(),
                after: a
                    .after
                    .iter()
                    .filter_map(|p| pos_to_elem.get(p).copied())
                    .collect(),
            })
            .collect();

        // Predicates restricted to this branch's positions.
        let predicates: Vec<Predicate> = pattern
            .predicates
            .iter()
            .filter(|p| {
                let (a, b) = p.position_pair();
                (a == usize::MAX || branch_positions.contains(&a))
                    && b.is_none_or(|b| branch_positions.contains(&b))
            })
            .cloned()
            .collect();

        // Index predicates by element pairs / filters / negated involvement,
        // and build the equality graph in the same pass.
        let binder = |pos: usize| match pos_to_elem.get(&pos) {
            Some(&i) => Some(Binder::Positive(i)),
            None => (negated.iter().position(|ne| ne.position == pos)).map(Binder::Negated),
        };
        let mut pred_pairs = vec![vec![Vec::new(); n]; n];
        let mut filters = vec![Vec::new(); n];
        let mut neg_preds = vec![Vec::new(); negated.len()];
        let mut join_graph = JoinGraph::new(n, negated.len());
        for (pi, p) in predicates.iter().enumerate() {
            let (a, b) = p.position_pair();
            if a == usize::MAX {
                continue; // constant-only predicate: ignored
            }
            match b {
                None => match binder(a) {
                    Some(Binder::Positive(e)) => filters[e].push(pi),
                    Some(Binder::Negated(k)) => neg_preds[k].push(pi),
                    None => {}
                },
                Some(b) => {
                    match (binder(a), binder(b)) {
                        (Some(Binder::Positive(ea)), Some(Binder::Positive(eb))) => {
                            pred_pairs[ea][eb].push(pi);
                            pred_pairs[eb][ea].push(pi);
                        }
                        // At least one side is a negated position.
                        sides => {
                            for side in [sides.0, sides.1] {
                                if let Some(Binder::Negated(k)) = side {
                                    neg_preds[k].push(pi);
                                }
                            }
                        }
                    }
                    join_graph.add(pi, p, binder);
                }
            }
        }

        Ok(CompiledPattern {
            op,
            elements,
            negated,
            predicates,
            window: pattern.window,
            strategy: pattern.strategy,
            precedes,
            pred_pairs,
            filters,
            neg_preds,
            pos_to_elem,
            join_graph,
        })
    }

    /// Number of positive elements.
    pub fn n(&self) -> usize {
        self.elements.len()
    }

    /// Positive element index for a pattern position.
    pub fn elem_index(&self, position: usize) -> Option<usize> {
        self.pos_to_elem.get(&position).copied()
    }

    /// Indices of predicates between two distinct positive elements.
    pub fn predicates_between(&self, i: usize, j: usize) -> &[usize] {
        &self.pred_pairs[i][j]
    }

    /// Indices of unary predicates (filters) on a positive element.
    pub fn filters_of(&self, i: usize) -> &[usize] {
        &self.filters[i]
    }

    /// Indices of predicates involving negated element `k`.
    pub fn negated_predicates(&self, k: usize) -> &[usize] {
        &self.neg_preds[k]
    }

    /// The `==` part of this branch's query graph: direct edges, positive
    /// equality classes and negated links, built once at compile.
    pub fn join_graph(&self) -> &JoinGraph {
        &self.join_graph
    }

    /// The equality key of a join step between the element sets `own` and
    /// `partners`: the earliest direct edge of the join graph crossing
    /// them with both sides non-Kleene, from `own`'s point of view — so the
    /// call with the sets swapped returns the mirrored edge of the same
    /// predicate. `None` (one unkeyed bucket) when there is no such edge,
    /// and under skip-till-next-match, whose stores stay one bucket.
    pub fn join_key(&self, own: &[usize], partners: &[usize]) -> Option<&EqJoin> {
        if self.strategy.consumes() {
            return None;
        }
        own.iter()
            .flat_map(|&i| self.join_graph.edges(i))
            .filter(|j| {
                partners.contains(&j.other)
                    && !self.elements[j.elem].kleene
                    && !self.elements[j.other].kleene
            })
            .min_by_key(|j| j.pred)
    }

    /// Whether element `i` must occur strictly before element `j`.
    pub fn must_precede(&self, i: usize, j: usize) -> bool {
        self.precedes[i][j]
    }

    /// Indices of positive elements accepting `type_id` (types may repeat).
    pub fn elements_of_type(&self, type_id: TypeId) -> impl Iterator<Item = usize> + '_ {
        self.elements
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.event_type == type_id)
            .map(|(i, _)| i)
    }

    /// Indices of negated elements with `type_id`.
    pub fn negated_of_type(&self, type_id: TypeId) -> impl Iterator<Item = usize> + '_ {
        self.negated
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.event_type == type_id)
            .map(|(i, _)| i)
    }

    /// Whether any element (positive or negated) accepts `type_id`.
    pub fn uses_type(&self, type_id: TypeId) -> bool {
        self.elements.iter().any(|e| e.event_type == type_id)
            || self.negated.iter().any(|e| e.event_type == type_id)
    }

    /// Whether the pattern has Kleene elements.
    pub fn has_kleene(&self) -> bool {
        self.elements.iter().any(|e| e.kleene)
    }

    /// The positive element that is temporally last, if one is statically
    /// known (i.e., the pattern is a sequence). Used by the latency cost
    /// model (Section 6.1).
    pub fn last_element(&self) -> Option<usize> {
        let n = self.n();
        (0..n).find(|&i| (0..n).all(|j| j == i || self.precedes[j][i]))
    }

    /// Canonical signature of this branch: a stable (cross-run,
    /// cross-platform) hash over the pattern structure — operator, element
    /// positions/types/Kleene flags, negated elements with their bounds,
    /// the full predicate set, window, selection strategy, and the
    /// precedence closure. Two branches with equal signatures compile to
    /// interchangeable evaluator programs, which is what keys the
    /// [`PlanCache`](crate::compiled::PlanCache).
    pub fn signature(&self) -> u64 {
        use crate::compiled::{cmp_op_tag, write_operand, SigHasher};
        let mut h = SigHasher::new();
        h.write_u8(match self.op {
            NaryOp::Seq => 0,
            NaryOp::And => 1,
        });
        h.write_u64(self.elements.len() as u64);
        for e in &self.elements {
            h.write_u64(e.position as u64);
            h.write_u64(e.event_type.0 as u64);
            h.write_u8(e.kleene as u8);
        }
        h.write_u64(self.negated.len() as u64);
        for ne in &self.negated {
            h.write_u64(ne.position as u64);
            h.write_u64(ne.event_type.0 as u64);
            h.write_u64(ne.before.len() as u64);
            for &b in &ne.before {
                h.write_u64(b as u64);
            }
            h.write_u64(ne.after.len() as u64);
            for &a in &ne.after {
                h.write_u64(a as u64);
            }
        }
        h.write_u64(self.predicates.len() as u64);
        for p in &self.predicates {
            write_operand(&mut h, &p.left);
            h.write_u8(cmp_op_tag(p.op));
            write_operand(&mut h, &p.right);
        }
        h.write_u64(self.window);
        h.write_u8(match self.strategy {
            crate::selection::SelectionStrategy::SkipTillAnyMatch => 0,
            crate::selection::SelectionStrategy::SkipTillNextMatch => 1,
            crate::selection::SelectionStrategy::StrictContiguity => 2,
            crate::selection::SelectionStrategy::PartitionContiguity => 3,
        });
        for row in &self.precedes {
            for &b in row {
                h.write_u8(b as u8);
            }
        }
        h.finish()
    }
}

/// A DNF atom.
#[derive(Debug, Clone)]
struct Atom {
    position: usize,
    event_type: TypeId,
    name: String,
    negated: bool,
    kleene: bool,
    before: Vec<usize>,
    after: Vec<usize>,
}

/// A DNF conjunct: atoms plus temporal order pairs between *positions*.
#[derive(Debug, Clone, Default)]
struct Conjunct {
    atoms: Vec<Atom>,
    order_pairs: Vec<(usize, usize)>,
}

impl Conjunct {
    fn positive_positions(&self) -> Vec<usize> {
        self.atoms
            .iter()
            .filter(|a| !a.negated)
            .map(|a| a.position)
            .collect()
    }
}

/// Decomposes an expression into DNF conjuncts (Section 5.4).
fn dnf(expr: &PatternExpr) -> Vec<Conjunct> {
    match expr {
        PatternExpr::Event {
            position,
            event_type,
            name,
        } => vec![Conjunct {
            atoms: vec![Atom {
                position: *position,
                event_type: *event_type,
                name: name.clone(),
                negated: false,
                kleene: false,
                before: Vec::new(),
                after: Vec::new(),
            }],
            order_pairs: Vec::new(),
        }],
        PatternExpr::Not(inner) => {
            let mut cs = dnf(inner);
            for c in &mut cs {
                for a in &mut c.atoms {
                    a.negated = true;
                }
            }
            cs
        }
        PatternExpr::Kleene(inner) => {
            let mut cs = dnf(inner);
            for c in &mut cs {
                for a in &mut c.atoms {
                    a.kleene = true;
                }
            }
            cs
        }
        PatternExpr::Or(children) => children.iter().flat_map(dnf).collect(),
        PatternExpr::And(children) => cross_product(children, false),
        PatternExpr::Seq(children) => cross_product(children, true),
    }
}

/// Cross product of children conjunct lists. For `ordered` (SEQ) parents,
/// adds precedence pairs between positives of earlier and later children and
/// extends negated atoms' bounds with surrounding positives.
fn cross_product(children: &[PatternExpr], ordered: bool) -> Vec<Conjunct> {
    let lists: Vec<Vec<Conjunct>> = children.iter().map(dnf).collect();
    let mut acc: Vec<Conjunct> = vec![Conjunct::default()];
    for list in lists {
        let mut next = Vec::with_capacity(acc.len() * list.len());
        for base in &acc {
            for item in &list {
                let mut c = base.clone();
                let prev_positives = c.positive_positions();
                let item_positives = item.positive_positions();
                if ordered {
                    for &p in &prev_positives {
                        for &q in &item_positives {
                            c.order_pairs.push((p, q));
                        }
                    }
                }
                // Extend bounds: new negated atoms are preceded by all
                // existing positives; existing negated atoms are succeeded
                // by the new positives.
                let mut item_atoms = item.atoms.clone();
                if ordered {
                    for a in &mut item_atoms {
                        if a.negated {
                            a.before.extend(prev_positives.iter().copied());
                        }
                    }
                    for a in &mut c.atoms {
                        if a.negated {
                            a.after.extend(item_positives.iter().copied());
                        }
                    }
                }
                c.atoms.extend(item_atoms);
                c.order_pairs.extend(item.order_pairs.iter().copied());
                next.push(c);
            }
        }
        acc = next;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use crate::predicate::{CmpOp, Predicate};

    fn t(i: u32) -> TypeId {
        TypeId(i)
    }

    fn seq3() -> Pattern {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "b");
        let d = b.event(t(2), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, d.pos(), 0));
        b.seq([a, c, d]).unwrap()
    }

    #[test]
    fn pure_sequence_compiles_to_single_branch() {
        let cps = CompiledPattern::compile(&seq3()).unwrap();
        assert_eq!(cps.len(), 1);
        let cp = &cps[0];
        assert_eq!(cp.op, NaryOp::Seq);
        assert_eq!(cp.n(), 3);
        assert!(cp.must_precede(0, 1));
        assert!(cp.must_precede(0, 2)); // transitive closure
        assert!(!cp.must_precede(2, 0));
        assert_eq!(cp.predicates_between(0, 2).len(), 1);
        assert_eq!(cp.predicates_between(0, 1).len(), 0);
        assert_eq!(cp.last_element(), Some(2));
    }

    #[test]
    fn conjunction_has_no_order() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "b");
        let p = b.and([a, c]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        assert_eq!(cp.op, NaryOp::And);
        assert!(!cp.must_precede(0, 1));
        assert!(!cp.must_precede(1, 0));
        assert_eq!(cp.last_element(), None);
    }

    #[test]
    fn negation_bounds_in_sequence() {
        // SEQ(A, NOT(B), C): B bounded by A (before) and C (after).
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let nb = b.event(t(1), "nb");
        let c = b.event(t(2), "c");
        let ae = b.expr(a);
        let ne = b.not(nb);
        let ce = b.expr(c);
        let p = b.seq_exprs([ae, ne, ce]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        assert_eq!(cp.n(), 2);
        assert_eq!(cp.negated.len(), 1);
        let ne = &cp.negated[0];
        assert_eq!(ne.before, vec![cp.elem_index(a.pos()).unwrap()]);
        assert_eq!(ne.after, vec![cp.elem_index(c.pos()).unwrap()]);
    }

    #[test]
    fn trailing_negation_has_open_upper_bound() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let nb = b.event(t(1), "nb");
        let ae = b.expr(a);
        let ne = b.not(nb);
        let p = b.seq_exprs([ae, ne]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let ne = &cp.negated[0];
        assert_eq!(ne.before.len(), 1);
        assert!(ne.after.is_empty());
    }

    #[test]
    fn negation_in_conjunction_has_no_bounds() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let nb = b.event(t(1), "nb");
        let c = b.event(t(2), "c");
        let ae = b.expr(a);
        let ne = b.not(nb);
        let ce = b.expr(c);
        let p = b.and_exprs([ae, ne, ce]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let ne = &cp.negated[0];
        assert!(ne.before.is_empty());
        assert!(ne.after.is_empty());
    }

    #[test]
    fn disjunction_of_conjunctions_dnf() {
        // AND(A, B, OR(C, D)) -> AND(A,B,C), AND(A,B,D) (the paper's
        // Section 5.4 example).
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let b_ = b.event(t(1), "b");
        let c = b.event(t(2), "c");
        let d = b.event(t(3), "d");
        let or = PatternExpr::Or(vec![b.expr(c), b.expr(d)]);
        let ae = b.expr(a);
        let be = b.expr(b_);
        let p = b.and_exprs([ae, be, or]).unwrap();
        let cps = CompiledPattern::compile(&p).unwrap();
        assert_eq!(cps.len(), 2);
        assert_eq!(cps[0].n(), 3);
        assert!(cps[0].uses_type(t(2)));
        assert!(!cps[0].uses_type(t(3)));
        assert!(cps[1].uses_type(t(3)));
    }

    #[test]
    fn disjunction_of_sequences_dnf() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let d = b.event(t(2), "d");
        let e = b.event(t(3), "e");
        let s1 = PatternExpr::Seq(vec![b.expr(a), b.expr(c)]);
        let s2 = PatternExpr::Seq(vec![b.expr(d), b.expr(e)]);
        let p = b.or_exprs([s1, s2]).unwrap();
        let cps = CompiledPattern::compile(&p).unwrap();
        assert_eq!(cps.len(), 2);
        assert_eq!(cps[0].op, NaryOp::Seq);
        assert_eq!(cps[1].op, NaryOp::Seq);
    }

    #[test]
    fn seq_nested_in_and_yields_partial_order() {
        // AND(A, SEQ(B, C)): B<C but A unordered.
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let bb = b.event(t(1), "b");
        let c = b.event(t(2), "c");
        let s = PatternExpr::Seq(vec![b.expr(bb), b.expr(c)]);
        let ae = b.expr(a);
        let p = b.and_exprs([ae, s]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        assert_eq!(cp.op, NaryOp::And); // not a total order
        let bi = cp.elem_index(bb.pos()).unwrap();
        let ci = cp.elem_index(c.pos()).unwrap();
        let ai = cp.elem_index(a.pos()).unwrap();
        assert!(cp.must_precede(bi, ci));
        assert!(!cp.must_precede(ai, bi));
        assert!(!cp.must_precede(bi, ai));
    }

    #[test]
    fn kleene_flag_propagates() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let k = b.event(t(1), "k");
        let ae = b.expr(a);
        let ke = b.kleene(k);
        let p = b.seq_exprs([ae, ke]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        assert!(cp.has_kleene());
        assert!(cp.elements[1].kleene);
    }

    #[test]
    fn negated_kleene_rejected() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let k = b.event(t(1), "k");
        let ae = b.expr(a);
        let nk = PatternExpr::Not(Box::new(b.kleene(k)));
        // NOT over KL(Event) is structurally invalid already at validate.
        assert!(b.seq_exprs([ae, nk]).is_err());
    }

    #[test]
    fn all_negative_branch_rejected() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let ne = b.not(a);
        assert!(matches!(
            b.seq_exprs([ne]).map(|p| CompiledPattern::compile(&p)),
            Ok(Err(_))
        ));
    }

    #[test]
    fn elements_sorted_in_temporal_order_for_seq_in_or() {
        // OR(SEQ(A,B), SEQ(B,A)) keeps each branch's own order.
        let mut b = PatternBuilder::new(100);
        let a1 = b.event(t(0), "a1");
        let b1 = b.event(t(1), "b1");
        let b2 = b.event(t(1), "b2");
        let a2 = b.event(t(0), "a2");
        let s1 = PatternExpr::Seq(vec![b.expr(a1), b.expr(b1)]);
        let s2 = PatternExpr::Seq(vec![b.expr(b2), b.expr(a2)]);
        let p = b.or_exprs([s1, s2]).unwrap();
        let cps = CompiledPattern::compile(&p).unwrap();
        assert_eq!(cps[0].elements[0].event_type, t(0));
        assert_eq!(cps[1].elements[0].event_type, t(1));
    }

    #[test]
    fn duplicate_types_allowed() {
        let mut b = PatternBuilder::new(100);
        let a1 = b.event(t(0), "a1");
        let a2 = b.event(t(0), "a2");
        let p = b.seq([a1, a2]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        assert_eq!(cp.elements_of_type(t(0)).count(), 2);
    }
}
