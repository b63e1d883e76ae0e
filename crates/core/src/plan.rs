//! Evaluation plans (Section 3.1).
//!
//! An [`OrderPlan`] is a permutation of the positive elements giving the
//! order in which events are matched; it runs as its left-deep tree
//! ([`TreePlan::left_deep`], Section 4's reduction). A [`TreePlan`] drives
//! the tree-based engine: a binary tree whose leaves
//! are the positive elements and whose internal nodes combine partial
//! matches. Both reference elements of a [`CompiledPattern`] by index.
//! A [`Plan`] is either one: the type every construction path plans into.

use crate::compile::CompiledPattern;
use crate::error::CepError;
use std::fmt;

/// An order-based evaluation plan: a permutation of element indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderPlan {
    order: Vec<usize>,
}

impl OrderPlan {
    /// Creates a plan from a permutation of `0..n`.
    pub fn new(order: Vec<usize>) -> Result<OrderPlan, CepError> {
        let n = order.len();
        let mut seen = vec![false; n];
        for &i in &order {
            if i >= n || seen[i] {
                return Err(CepError::Plan(format!(
                    "order {order:?} is not a permutation of 0..{n}"
                )));
            }
            seen[i] = true;
        }
        Ok(OrderPlan { order })
    }

    /// The trivial plan: elements in specification order (for sequences,
    /// the temporal order). This is the paper's TRIVIAL baseline.
    pub fn trivial(cp: &CompiledPattern) -> OrderPlan {
        OrderPlan {
            order: (0..cp.n()).collect(),
        }
    }

    /// Validates that the plan fits a compiled pattern.
    pub fn validate(&self, cp: &CompiledPattern) -> Result<(), CepError> {
        if self.order.len() != cp.n() {
            return Err(CepError::Plan(format!(
                "plan covers {} elements, pattern has {}",
                self.order.len(),
                cp.n()
            )));
        }
        Ok(())
    }

    /// The processing order (element indices).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Step (state index) at which element `elem` is matched.
    pub fn step_of(&self, elem: usize) -> Option<usize> {
        self.order.iter().position(|&e| e == elem)
    }

    /// Canonical signature of this plan *for the given pattern*: folds the
    /// pattern's [`CompiledPattern::signature`] with the processing order,
    /// so two equal signatures denote the same pattern evaluated in the
    /// same order.
    pub fn signature(&self, cp: &CompiledPattern) -> u64 {
        let mut h = crate::compiled::SigHasher::new();
        h.write_u64(cp.signature());
        h.write_u8(0); // plan-kind tag: order
        for &e in &self.order {
            h.write_u64(e as u64);
        }
        h.finish()
    }
}

impl fmt::Display for OrderPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, e) in self.order.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "e{e}")?;
        }
        f.write_str("]")
    }
}

/// A node of a tree plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeNode {
    /// A leaf accepting one positive element.
    Leaf(usize),
    /// An internal node joining two subtrees.
    Node(Box<TreeNode>, Box<TreeNode>),
}

impl TreeNode {
    /// Convenience constructor for an internal node.
    pub fn join(left: TreeNode, right: TreeNode) -> TreeNode {
        TreeNode::Node(Box::new(left), Box::new(right))
    }

    /// Element indices of the leaves, left to right.
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            TreeNode::Leaf(i) => out.push(*i),
            TreeNode::Node(l, r) => {
                l.collect_leaves(out);
                r.collect_leaves(out);
            }
        }
    }

    /// Bitmask of the leaves under this node (element indices < 64).
    pub fn leaf_mask(&self) -> u64 {
        match self {
            TreeNode::Leaf(i) => 1u64 << i,
            TreeNode::Node(l, r) => l.leaf_mask() | r.leaf_mask(),
        }
    }

    /// Total node count (leaves + internal).
    pub fn node_count(&self) -> usize {
        match self {
            TreeNode::Leaf(_) => 1,
            TreeNode::Node(l, r) => 1 + l.node_count() + r.node_count(),
        }
    }

    /// Height of the tree (a single leaf has height 1).
    pub fn height(&self) -> usize {
        match self {
            TreeNode::Leaf(_) => 1,
            TreeNode::Node(l, r) => 1 + l.height().max(r.height()),
        }
    }

    /// Whether the tree is left-deep: every right child is a leaf.
    pub fn is_left_deep(&self) -> bool {
        match self {
            TreeNode::Leaf(_) => true,
            TreeNode::Node(l, r) => matches!(**r, TreeNode::Leaf(_)) && l.is_left_deep(),
        }
    }

    /// Builds the left-deep tree that joins elements in the given order
    /// (the shape equivalence of Figure 2(a) to an order plan).
    pub fn left_deep(order: &[usize]) -> TreeNode {
        assert!(!order.is_empty(), "left-deep tree needs >= 1 leaf");
        let mut it = order.iter();
        let mut node = TreeNode::Leaf(*it.next().expect("non-empty"));
        for &e in it {
            node = TreeNode::join(node, TreeNode::Leaf(e));
        }
        node
    }
}

impl fmt::Display for TreeNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeNode::Leaf(i) => write!(f, "e{i}"),
            TreeNode::Node(l, r) => write!(f, "({l} {r})"),
        }
    }
}

/// A tree-based evaluation plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlan {
    /// Root of the plan tree.
    pub root: TreeNode,
}

impl TreePlan {
    /// Creates a plan, checking that leaves form a permutation of `0..n`
    /// for some `n`.
    pub fn new(root: TreeNode) -> Result<TreePlan, CepError> {
        let leaves = root.leaves();
        let n = leaves.len();
        let mut seen = vec![false; n];
        for &i in &leaves {
            if i >= n || seen[i] {
                return Err(CepError::Plan(format!(
                    "tree leaves {leaves:?} are not a permutation of 0..{n}"
                )));
            }
            seen[i] = true;
        }
        Ok(TreePlan { root })
    }

    /// Left-deep plan following an order (used to compare order-based and
    /// tree-based algorithms on equal footing).
    pub fn left_deep(plan: &OrderPlan) -> TreePlan {
        TreePlan {
            root: TreeNode::left_deep(plan.order()),
        }
    }

    /// Validates that the plan fits a compiled pattern.
    pub fn validate(&self, cp: &CompiledPattern) -> Result<(), CepError> {
        let leaves = self.root.leaves();
        if leaves.len() != cp.n() {
            return Err(CepError::Plan(format!(
                "tree covers {} elements, pattern has {}",
                leaves.len(),
                cp.n()
            )));
        }
        Ok(())
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.root.leaves().len()
    }

    /// Whether the plan has no leaves (never true for valid plans).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical signature of this plan *for the given pattern*: folds the
    /// pattern's [`CompiledPattern::signature`] with a pre-order encoding
    /// of the tree shape and its leaf assignment.
    pub fn signature(&self, cp: &CompiledPattern) -> u64 {
        fn walk(h: &mut crate::compiled::SigHasher, node: &TreeNode) {
            match node {
                TreeNode::Leaf(i) => {
                    h.write_u8(0);
                    h.write_u64(*i as u64);
                }
                TreeNode::Node(l, r) => {
                    h.write_u8(1);
                    walk(h, l);
                    walk(h, r);
                }
            }
        }
        let mut h = crate::compiled::SigHasher::new();
        h.write_u64(cp.signature());
        h.write_u8(1); // plan-kind tag: tree
        walk(&mut h, &self.root);
        h.finish()
    }
}

impl fmt::Display for TreePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)
    }
}

/// An evaluation plan of either family. An order plan is a left-deep
/// tree plan (Section 4–5), so "plan a branch, then build its engine" is
/// one decision over this one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// An order plan, evaluated by the tree engine over its left-deep tree.
    Order(OrderPlan),
    /// A tree plan, evaluated by the tree-based engine.
    Tree(TreePlan),
}

impl Plan {
    /// Validates that the plan fits a compiled pattern.
    pub fn validate(&self, cp: &CompiledPattern) -> Result<(), CepError> {
        match self {
            Plan::Order(p) => p.validate(cp),
            Plan::Tree(p) => p.validate(cp),
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Order(p) => p.fmt(f),
            Plan::Tree(p) => p.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TypeId;
    use crate::pattern::PatternBuilder;

    fn cp3() -> CompiledPattern {
        let mut b = PatternBuilder::new(10);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "b");
        let d = b.event(TypeId(2), "c");
        CompiledPattern::compile_single(&b.seq([a, c, d]).unwrap()).unwrap()
    }

    #[test]
    fn order_plan_validation() {
        assert!(OrderPlan::new(vec![2, 0, 1]).is_ok());
        assert!(OrderPlan::new(vec![0, 0, 1]).is_err());
        assert!(OrderPlan::new(vec![0, 3, 1]).is_err());
    }

    #[test]
    fn trivial_plan_is_identity() {
        let cp = cp3();
        let p = OrderPlan::trivial(&cp);
        assert_eq!(p.order(), &[0, 1, 2]);
        assert!(p.validate(&cp).is_ok());
        assert_eq!(p.step_of(1), Some(1));
    }

    #[test]
    fn mismatched_plan_rejected() {
        let cp = cp3();
        let p = OrderPlan::new(vec![1, 0]).unwrap();
        assert!(p.validate(&cp).is_err());
    }

    #[test]
    fn tree_plan_leaves_must_be_permutation() {
        let t = TreeNode::join(
            TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(1)),
            TreeNode::Leaf(2),
        );
        assert!(TreePlan::new(t).is_ok());
        let dup = TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(0));
        assert!(TreePlan::new(dup).is_err());
    }

    #[test]
    fn left_deep_shape() {
        let t = TreeNode::left_deep(&[2, 0, 1]);
        assert!(t.is_left_deep());
        assert_eq!(t.leaves(), vec![2, 0, 1]);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.height(), 3);
        let bushy = TreeNode::join(
            TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(1)),
            TreeNode::join(TreeNode::Leaf(2), TreeNode::Leaf(3)),
        );
        assert!(!bushy.is_left_deep());
        assert_eq!(bushy.height(), 3);
    }

    #[test]
    fn leaf_mask_is_set_of_leaves() {
        let t = TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(3));
        assert_eq!(t.leaf_mask(), 0b1001);
    }

    #[test]
    fn plan_signatures_fold_pattern_and_shape() {
        let cp = cp3();
        let a = OrderPlan::new(vec![0, 1, 2]).unwrap();
        let b = OrderPlan::new(vec![0, 1, 2]).unwrap();
        let c = OrderPlan::new(vec![2, 0, 1]).unwrap();
        assert_eq!(a.signature(&cp), b.signature(&cp));
        assert_ne!(a.signature(&cp), c.signature(&cp));
        let left = TreePlan::left_deep(&a);
        let bushy = TreePlan::new(TreeNode::join(
            TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(1)),
            TreeNode::Leaf(2),
        ))
        .unwrap();
        // A left-deep 3-leaf tree in 0,1,2 order IS ((0 1) 2): same shape,
        // same signature; a different leaf order differs.
        assert_eq!(left.signature(&cp), bushy.signature(&cp));
        let other = TreePlan::left_deep(&c);
        assert_ne!(left.signature(&cp), other.signature(&cp));
        // Order and tree plans never collide (kind tag).
        assert_ne!(a.signature(&cp), left.signature(&cp));
    }

    #[test]
    fn display_formats() {
        let p = OrderPlan::new(vec![1, 0]).unwrap();
        assert_eq!(p.to_string(), "[e1 -> e0]");
        let t = TreeNode::join(TreeNode::Leaf(1), TreeNode::Leaf(0));
        assert_eq!(t.to_string(), "(e1 e0)");
    }
}
