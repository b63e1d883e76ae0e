//! Plan-invariant verification: lints planner output against the
//! compiled pattern it claims to evaluate.
//!
//! Every check returns `Err(CepError::Plan("A010: ..."))` on violation so
//! debug builds of the planner (every adaptive swap candidate included)
//! and the sharded runtime can fail fast on a plan that would silently drop predicates,
//! mis-anchor a negation, or route events unsoundly.

use cep_core::compile::{CompiledPattern, NaryOp};
use cep_core::error::CepError;
use cep_core::join_graph::EqJoin;
use cep_core::partition::PartitionSpec;
use cep_core::plan::{OrderPlan, TreePlan};
use cep_core::predicate::CmpOp;
use std::collections::{BTreeSet, HashMap};

fn a010(message: impl std::fmt::Display) -> CepError {
    CepError::Plan(format!("A010: {message}"))
}

/// Verifies the structural invariants every compiled branch must uphold,
/// independent of any particular evaluation order:
///
/// 1. **Predicate multiset preservation** — each predicate is reachable
///    from the evaluation indexes exactly as often as its position
///    profile demands (constant-only predicates are skipped; a predicate
///    between two negated elements appears in both negations' lists).
/// 2. **Negation anchoring** — every negated element's `before`/`after`
///    anchors are in range, disjoint, and consistent with the precedence
///    relation.
/// 3. **Precedence sanity** — irreflexive, antisymmetric, and total for
///    `SEQ` branches.
/// 4. **Join-graph fidelity** — every `==` between attributes of two
///    distinct positive elements is exactly its two mirrored edges of
///    [`CompiledPattern::join_graph`], every positive–negated one exactly
///    one negated link, and the graph holds no other edge, link or node.
pub fn verify_pattern_invariants(cp: &CompiledPattern) -> Result<(), CepError> {
    let n = cp.n();
    let pos_to_elem: HashMap<usize, usize> = cp
        .elements
        .iter()
        .enumerate()
        .map(|(i, e)| (e.position, i))
        .collect();
    let pos_to_neg: HashMap<usize, usize> = cp
        .negated
        .iter()
        .enumerate()
        .map(|(k, ne)| (ne.position, k))
        .collect();

    // Expected reachability count per predicate, and the expected join
    // graph as (is_link, pred, owner, elem, attr, other, other_attr).
    let mut expected = vec![0usize; cp.predicates.len()];
    let mut want_graph = Vec::new();
    for (pi, p) in cp.predicates.iter().enumerate() {
        let (a, b) = p.position_pair();
        if a == usize::MAX {
            continue; // constant-only: engines skip it
        }
        let resolve = |pos: usize| -> Result<bool, CepError> {
            if pos_to_elem.contains_key(&pos) {
                Ok(false)
            } else if pos_to_neg.contains_key(&pos) {
                Ok(true)
            } else {
                Err(a010(format!(
                    "predicate #{pi} `{p}` references position {pos}, which is neither a \
                     positive nor a negated element of the branch"
                )))
            }
        };
        let a_neg = resolve(a)?;
        expected[pi] = match b {
            None => 1,
            Some(b) => {
                let b_neg = resolve(b)?;
                if a_neg && b_neg {
                    2 // indexed under both negations
                } else {
                    1
                }
            }
        };
        if let (CmpOp::Eq, Some((pa, aa)), Some((pb, ab))) =
            (p.op, p.left.as_attr(), p.right.as_attr())
        {
            let (ea, eb) = (pos_to_elem.get(&pa), pos_to_elem.get(&pb));
            match (ea, eb, pos_to_neg.get(&pa), pos_to_neg.get(&pb)) {
                (Some(&i), Some(&j), ..) if i != j => {
                    want_graph.extend([(false, pi, i, i, aa, j, ab), (false, pi, j, j, ab, i, aa)])
                }
                (Some(&i), _, _, Some(&k)) => want_graph.push((true, pi, k, k, ab, i, aa)),
                (_, Some(&j), Some(&k), _) => want_graph.push((true, pi, k, k, aa, j, ab)),
                _ => {}
            }
        }
    }

    // Actual reachability from the evaluation indexes.
    let mut actual = vec![0usize; cp.predicates.len()];
    let mut bump = |pi: usize| -> Result<(), CepError> {
        match actual.get_mut(pi) {
            Some(c) => {
                *c += 1;
                Ok(())
            }
            None => Err(a010(format!(
                "evaluation index references predicate #{pi}, but the branch has only {} \
                 predicates",
                cp.predicates.len()
            ))),
        }
    };
    for i in 0..n {
        for &pi in cp.filters_of(i) {
            bump(pi)?;
        }
        for j in (i + 1)..n {
            for &pi in cp.predicates_between(i, j) {
                bump(pi)?;
            }
        }
    }
    for k in 0..cp.negated.len() {
        for &pi in cp.negated_predicates(k) {
            bump(pi)?;
        }
    }
    for (pi, (&exp, &act)) in expected.iter().zip(actual.iter()).enumerate() {
        if exp != act {
            return Err(a010(format!(
                "predicate multiset not preserved: predicate #{pi} `{}` should be reachable \
                 {exp} time(s) from the evaluation indexes but is reachable {act} time(s)",
                cp.predicates[pi]
            )));
        }
    }

    // Negation anchoring.
    for (k, ne) in cp.negated.iter().enumerate() {
        for &i in ne.before.iter().chain(ne.after.iter()) {
            if i >= n {
                return Err(a010(format!(
                    "negated element {:?} anchors on element index {i}, but the branch has \
                     only {n} positive elements",
                    ne.name
                )));
            }
        }
        if let Some(&i) = ne.before.iter().find(|i| ne.after.contains(i)) {
            return Err(a010(format!(
                "negated element {:?} lists element {i} both before and after the forbidden \
                 interval",
                ne.name
            )));
        }
        for &b in &ne.before {
            for &a in &ne.after {
                if !cp.must_precede(b, a) {
                    return Err(a010(format!(
                        "negated element {:?} is anchored between elements {b} and {a}, but \
                         the precedence relation does not order them",
                        ne.name
                    )));
                }
            }
        }
        let _ = k;
    }

    // Precedence relation sanity.
    for i in 0..n {
        if cp.must_precede(i, i) {
            return Err(a010(format!(
                "precedence relation is reflexive at element {i}"
            )));
        }
        for j in (i + 1)..n {
            if cp.must_precede(i, j) && cp.must_precede(j, i) {
                return Err(a010(format!(
                    "precedence relation orders elements {i} and {j} both ways"
                )));
            }
            if cp.op == NaryOp::Seq && !(cp.must_precede(i, j) || cp.must_precede(j, i)) {
                return Err(a010(format!(
                    "SEQ branch leaves elements {i} and {j} unordered"
                )));
            }
        }
    }

    // Join-graph fidelity.
    let graph = cp.join_graph();
    let owned = |link: bool, owner: usize, e: &EqJoin| {
        (link, e.pred, owner, e.elem, e.attr, e.other, e.other_attr)
    };
    let mut have_graph: Vec<_> = (0..n)
        .flat_map(|i| graph.edges(i).iter().map(move |e| owned(false, i, e)))
        .chain(
            (0..cp.negated.len())
                .flat_map(|k| (graph.negated_links(k).iter()).map(move |e| owned(true, k, e))),
        )
        .collect();
    let want_nodes: BTreeSet<(usize, usize)> = want_graph.iter().map(|e| (e.5, e.6)).collect();
    have_graph.sort_unstable();
    want_graph.sort_unstable();
    if have_graph != want_graph || graph.nodes().ne(want_nodes.iter().copied()) {
        return Err(a010(format!(
            "join graph does not match the `==` predicates: it holds edges and links \
             {have_graph:?} and nodes {:?}, the predicates give {want_graph:?} and \
             {want_nodes:?}",
            graph.nodes().collect::<Vec<_>>()
        )));
    }

    Ok(())
}

/// Verifies an order-based plan against its compiled branch: the
/// plan must be a permutation of the branch's elements, and the branch
/// itself must satisfy [`verify_pattern_invariants`].
pub fn verify_order_plan(cp: &CompiledPattern, plan: &OrderPlan) -> Result<(), CepError> {
    plan.validate(cp)?;
    let mut seen = vec![false; cp.n()];
    for &i in plan.order() {
        match seen.get_mut(i) {
            Some(s) if !*s => *s = true,
            Some(_) => {
                return Err(a010(format!("order plan visits element {i} twice")));
            }
            None => {
                return Err(a010(format!(
                    "order plan references element {i}, but the branch has only {} elements",
                    cp.n()
                )));
            }
        }
    }
    verify_pattern_invariants(cp)
}

/// Verifies a tree plan against its compiled branch: the leaves must be
/// exactly the branch's elements (each once), and the branch must
/// satisfy [`verify_pattern_invariants`].
pub fn verify_tree_plan(cp: &CompiledPattern, plan: &TreePlan) -> Result<(), CepError> {
    plan.validate(cp)?;
    let mut leaves = plan.root.leaves();
    leaves.sort_unstable();
    let expect: Vec<usize> = (0..cp.n()).collect();
    if leaves != expect {
        return Err(a010(format!(
            "tree plan leaves {leaves:?} are not a permutation of the branch's {} elements",
            cp.n()
        )));
    }
    verify_pattern_invariants(cp)
}

/// Verifies a partition spec against the branches it will route for:
/// the spec's own validation (join-key closure over the branch's
/// equivalence classes) plus every branch's structural invariants.
pub fn verify_partition_spec(
    spec: &PartitionSpec,
    branches: &[CompiledPattern],
) -> Result<(), CepError> {
    spec.validate(branches)
        .map_err(|e| a010(format!("partition spec rejected: {e}")))?;
    for cp in branches {
        verify_pattern_invariants(cp)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::event::TypeId;
    use cep_core::pattern::PatternBuilder;
    use cep_core::predicate::{Operand, Predicate};
    use cep_core::value::Value;

    fn sample() -> CompiledPattern {
        let mut b = PatternBuilder::new(5_000);
        let a = b.event(TypeId(0), "a");
        let x = b.event(TypeId(1), "x");
        let c = b.event(TypeId(2), "c");
        b.predicate(Predicate {
            left: Operand::Attr {
                position: a.pos(),
                attr: 0,
            },
            op: CmpOp::Eq,
            right: Operand::Attr {
                position: c.pos(),
                attr: 0,
            },
        });
        b.predicate(Predicate {
            left: Operand::Attr {
                position: x.pos(),
                attr: 0,
            },
            op: CmpOp::Gt,
            right: Operand::Const(Value::Int(3)),
        });
        let exprs = vec![b.expr(a), b.not(x), b.expr(c)];
        let pat = b.seq_exprs(exprs).unwrap();
        CompiledPattern::compile_single(&pat).unwrap()
    }

    #[test]
    fn intact_branch_passes() {
        let cp = sample();
        verify_pattern_invariants(&cp).unwrap();
    }

    #[test]
    fn dropped_predicate_is_detected() {
        let mut cp = sample();
        // Appending a predicate after compilation leaves it unreachable
        // from the evaluation indexes: the multiset check must notice.
        cp.predicates.push(Predicate {
            left: Operand::Attr {
                position: 0,
                attr: 1,
            },
            op: CmpOp::Lt,
            right: Operand::Const(Value::Int(9)),
        });
        let err = verify_pattern_invariants(&cp).unwrap_err();
        assert!(err.to_string().contains("A010"), "{err}");
        assert!(err.to_string().contains("multiset"), "{err}");
    }

    #[test]
    fn equality_missing_from_the_join_graph_is_detected() {
        let mut b = PatternBuilder::new(5_000);
        let a = b.event(TypeId(0), "a");
        let x = b.event(TypeId(1), "x");
        let c = b.event(TypeId(2), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
        b.predicate(Predicate::attr_cmp(a.pos(), 1, CmpOp::Lt, c.pos(), 1));
        b.predicate(Predicate::attr_cmp(x.pos(), 0, CmpOp::Eq, c.pos(), 0));
        let exprs = vec![b.expr(a), b.not(x), b.expr(c)];
        let mut cp = CompiledPattern::compile_single(&b.seq_exprs(exprs).unwrap()).unwrap();
        verify_pattern_invariants(&cp).unwrap();
        // `a.1 < c.1` becomes `a.1 == c.1` after compilation: the same
        // positions, so every predicate index still holds it, but the join
        // graph has no edge for it.
        cp.predicates[1].op = CmpOp::Eq;
        let err = verify_pattern_invariants(&cp).unwrap_err().to_string();
        assert!(err.contains("A010") && err.contains("join graph"), "{err}");
        assert!(!err.contains("multiset"), "{err}");
    }

    #[test]
    fn order_plan_permutation_is_checked() {
        let cp = sample();
        let good = OrderPlan::new(vec![1, 0]).unwrap();
        verify_order_plan(&cp, &good).unwrap();
        let bad = OrderPlan::new(vec![0]).unwrap();
        let err = verify_order_plan(&cp, &bad).unwrap_err();
        assert!(err.to_string().contains("plan"), "{err}");
    }

    #[test]
    fn tree_plan_leaves_are_checked() {
        use cep_core::plan::TreeNode;
        let cp = sample();
        let good = TreePlan::new(TreeNode::Node(
            Box::new(TreeNode::Leaf(0)),
            Box::new(TreeNode::Leaf(1)),
        ))
        .unwrap();
        verify_tree_plan(&cp, &good).unwrap();
        let bad = TreePlan::new(TreeNode::Node(
            Box::new(TreeNode::Leaf(0)),
            Box::new(TreeNode::Leaf(0)),
        ));
        match bad {
            // Either construction already rejects the duplicate leaf, or
            // verification must.
            Err(_) => {}
            Ok(plan) => {
                assert!(verify_tree_plan(&cp, &plan).is_err());
            }
        }
    }
}
