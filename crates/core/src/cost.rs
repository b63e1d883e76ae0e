//! Cost models (Sections 3.2, 4.1, 4.2, 6.1, 6.2).
//!
//! All CPG cost functions estimate the number of partial matches coexisting
//! within the time window, the paper's primary cost target:
//!
//! * [`cost_ord`] — order-based plans under skip-till-any-match
//!   (`Cost_ord`, Section 4.1);
//! * [`cost_ord_next`] — order-based plans under skip-till-next-match and
//!   the contiguity strategies (`Cost_next_ord`, Section 6.2);
//! * [`cost_tree`] / [`cost_tree_next`] — tree-based plans (`Cost_tree`,
//!   Sections 4.2 and 6.2);
//! * [`cost_lat_ord`] / [`cost_lat_tree`] — expected detection latency
//!   (`Cost_lat`, Section 6.1);
//! * [`CostModel`] — the hybrid objective
//!   `Cost_trpt(Plan) + α·Cost_lat(Plan)` used in the experiments.
//!
//! The JQPG-side functions [`cost_ldj`] and [`cost_bj`] (Section 3.2)
//! operate on a [`JoinInstance`]; [`reduce_to_join`] implements the
//! Theorem 1 reduction (`|R_i| = W·r_i`), so the equivalences of
//! Theorems 1 and 2 can be verified numerically.
//!
//! Conventions, following the paper's formulas exactly:
//!
//! * order-based costs include filter selectivities (`sel_ii`) at every
//!   step, mirroring `Π_{i,j≤k; i≤j} sel` in `PM(k)`;
//! * tree-based costs use `PM(leaf) = W·r_i` and cross-subtree
//!   selectivities only — filters do not appear, mirroring `C(N) = |R_i|`
//!   for leaves in `Cost_BJ`;
//! * `Cost_next_ord` is `Σ_k W·m[k]`, keeping the printed extra `W`
//!   factor (a monotone transform that does not affect plan choice).

use crate::plan::{OrderPlan, Plan, TreeNode, TreePlan};
use crate::selection::SelectionStrategy;
use crate::stats::PatternStats;

/// `Cost_ord` (Section 4.1): sum over plan prefixes of the expected number
/// of coexisting partial matches under skip-till-any-match.
pub fn cost_ord(stats: &PatternStats, order: &[usize]) -> f64 {
    let mut total = 0.0;
    let mut pm = 1.0;
    for (k, &i) in order.iter().enumerate() {
        pm *= stats.count_in_window(i) * stats.sel[i][i];
        for &j in &order[..k] {
            pm *= stats.sel[i][j];
        }
        total += pm;
    }
    total
}

/// `Cost_next_ord` (Section 6.2): skip-till-next-match variant, with
/// `m[k] = W·min(r_{p_1..p_k})·Π sel` and cost `Σ_k W·m[k]`.
pub fn cost_ord_next(stats: &PatternStats, order: &[usize]) -> f64 {
    let mut total = 0.0;
    let mut min_rate = f64::INFINITY;
    let mut sel_product = 1.0;
    for (k, &i) in order.iter().enumerate() {
        min_rate = min_rate.min(stats.rates[i]);
        sel_product *= stats.sel[i][i];
        for &j in &order[..k] {
            sel_product *= stats.sel[i][j];
        }
        let m_k = stats.window_ms * min_rate * sel_product;
        total += stats.window_ms * m_k;
    }
    total
}

/// `Cost_lat_ord` (Section 6.1): worst-case work remaining after the
/// temporally last event (`last_elem`) arrives — the buffered events of all
/// elements scheduled after it in the plan.
///
/// Partial prefixes that do not (yet) schedule `last_elem` have zero
/// latency cost: every element placed before `last_elem` is processed
/// before the match can complete. This makes the function usable for the
/// incremental evaluation done by greedy construction.
pub fn cost_lat_ord(stats: &PatternStats, order: &[usize], last_elem: usize) -> f64 {
    let Some(pos) = order.iter().position(|&e| e == last_elem) else {
        return 0.0;
    };
    order[pos + 1..]
        .iter()
        .map(|&i| stats.count_in_window(i))
        .sum()
}

/// Expected partial matches stored at a tree node covering `set`, under the
/// given strategy (tree convention: no filter selectivities).
fn pm_tree_set(stats: &PatternStats, set: &[usize], strategy: SelectionStrategy) -> f64 {
    match strategy {
        SelectionStrategy::SkipTillAnyMatch => {
            let mut pm = 1.0;
            for (a, &i) in set.iter().enumerate() {
                pm *= stats.count_in_window(i);
                for &j in &set[..a] {
                    pm *= stats.sel[i][j];
                }
            }
            pm
        }
        _ => {
            let min_rate = set
                .iter()
                .map(|&i| stats.rates[i])
                .fold(f64::INFINITY, f64::min);
            let mut pm = stats.window_ms * min_rate;
            for (a, &i) in set.iter().enumerate() {
                for &j in &set[..a] {
                    pm *= stats.sel[i][j];
                }
            }
            pm
        }
    }
}

fn cost_tree_rec(
    stats: &PatternStats,
    node: &TreeNode,
    strategy: SelectionStrategy,
    total: &mut f64,
) -> Vec<usize> {
    let set = match node {
        TreeNode::Leaf(i) => vec![*i],
        TreeNode::Node(l, r) => {
            let mut sl = cost_tree_rec(stats, l, strategy, total);
            let sr = cost_tree_rec(stats, r, strategy, total);
            sl.extend(sr);
            sl
        }
    };
    *total += pm_tree_set(stats, &set, strategy);
    set
}

/// `Cost_tree` (Section 4.2): sum of expected partial matches over all tree
/// nodes under skip-till-any-match.
pub fn cost_tree(stats: &PatternStats, tree: &TreeNode) -> f64 {
    let mut total = 0.0;
    cost_tree_rec(stats, tree, SelectionStrategy::SkipTillAnyMatch, &mut total);
    total
}

/// `Cost_next_tree` (Section 6.2): tree variant of the skip-till-next-match
/// model.
pub fn cost_tree_next(stats: &PatternStats, tree: &TreeNode) -> f64 {
    let mut total = 0.0;
    cost_tree_rec(
        stats,
        tree,
        SelectionStrategy::SkipTillNextMatch,
        &mut total,
    );
    total
}

/// `Cost_lat_tree` (Section 6.1): partial matches buffered on the siblings
/// of the nodes on the path from `last_elem`'s leaf to the root (root
/// excluded).
pub fn cost_lat_tree(
    stats: &PatternStats,
    tree: &TreeNode,
    last_elem: usize,
    strategy: SelectionStrategy,
) -> f64 {
    fn walk(
        stats: &PatternStats,
        node: &TreeNode,
        target: usize,
        strategy: SelectionStrategy,
    ) -> Option<f64> {
        match node {
            TreeNode::Leaf(i) => (*i == target).then_some(0.0),
            TreeNode::Node(l, r) => {
                if let Some(acc) = walk(stats, l, target, strategy) {
                    Some(acc + pm_tree_set(stats, &r.leaves(), strategy))
                } else {
                    walk(stats, r, target, strategy)
                        .map(|acc| acc + pm_tree_set(stats, &l.leaves(), strategy))
                }
            }
        }
    }
    walk(stats, tree, last_elem, strategy).expect("last_elem must be a leaf of the tree")
}

/// A join-query instance: relation cardinalities plus a selectivity matrix
/// (`sel[i][i]` holds filter selectivities).
#[derive(Debug, Clone)]
pub struct JoinInstance {
    /// Relation cardinalities `|R_i|`.
    pub cards: Vec<f64>,
    /// Pairwise selectivities `f_{i,j}` (symmetric; `f_{i,j} = 1` when no
    /// predicate links `R_i` and `R_j`).
    pub sel: Vec<Vec<f64>>,
}

/// The Theorem 1 reduction: event type `T_i` with rate `r_i` becomes a
/// relation of cardinality `W·r_i`, keeping selectivities.
pub fn reduce_to_join(stats: &PatternStats) -> JoinInstance {
    JoinInstance {
        cards: (0..stats.n()).map(|i| stats.count_in_window(i)).collect(),
        sel: stats.sel.clone(),
    }
}

/// `Cost_LDJ` (Section 3.2 / 4.1): intermediate-result sizes of the
/// left-deep join tree that joins relations in `order`.
pub fn cost_ldj(join: &JoinInstance, order: &[usize]) -> f64 {
    let mut total = 0.0;
    let mut inter = 1.0;
    for (k, &i) in order.iter().enumerate() {
        // Joining R_i onto the intermediate result applies its filter and
        // its predicates against every relation already joined.
        let mut factor = join.cards[i] * join.sel[i][i];
        for &j in &order[..k] {
            factor *= join.sel[i][j];
        }
        inter *= factor;
        total += inter;
    }
    total
}

/// `Cost_BJ` (Section 4.2): sum of node costs of a bushy join tree, with
/// `C(leaf) = |R_i|` and `C(node) = |L|·|R|·f_{L,R}`.
pub fn cost_bj(join: &JoinInstance, tree: &TreeNode) -> f64 {
    fn rec(join: &JoinInstance, node: &TreeNode, total: &mut f64) -> (f64, Vec<usize>) {
        match node {
            TreeNode::Leaf(i) => {
                *total += join.cards[*i];
                (join.cards[*i], vec![*i])
            }
            TreeNode::Node(l, r) => {
                let (sl, setl) = rec(join, l, total);
                let (sr, setr) = rec(join, r, total);
                let mut f = 1.0;
                for &i in &setl {
                    for &j in &setr {
                        f *= join.sel[i][j];
                    }
                }
                let size = sl * sr * f;
                *total += size;
                let mut set = setl;
                set.extend(setr);
                (size, set)
            }
        }
    }
    let mut total = 0.0;
    rec(join, tree, &mut total);
    total
}

/// The plan objective used by the optimizer: a throughput cost chosen by
/// selection strategy, optionally blended with the latency cost
/// (`Cost = Cost_trpt + α·Cost_lat`, Section 6.1).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Selection strategy: picks the any-match or next-match formulas
    /// (contiguity strategies use the next-match model, per Section 6.2).
    pub strategy: SelectionStrategy,
    /// Latency weight `α` (0 disables the latency term).
    pub alpha: f64,
    /// The element known to arrive temporally last (sequences: the last
    /// element; conjunctions: supplied by the output profiler of
    /// Section 6.1). `None` disables the latency term.
    pub latency_last: Option<usize>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            strategy: SelectionStrategy::SkipTillAnyMatch,
            alpha: 0.0,
            latency_last: None,
        }
    }
}

impl CostModel {
    /// Pure-throughput model under skip-till-any-match.
    pub fn throughput() -> CostModel {
        CostModel::default()
    }

    /// Model matching a compiled pattern: its strategy, with the latency
    /// anchor set for sequences.
    pub fn for_pattern(cp: &crate::compile::CompiledPattern) -> CostModel {
        CostModel {
            strategy: cp.strategy,
            alpha: 0.0,
            latency_last: cp.last_element(),
        }
    }

    /// Sets the latency weight `α`.
    pub fn with_alpha(mut self, alpha: f64) -> CostModel {
        self.alpha = alpha;
        self
    }

    /// Sets the latency anchor element.
    pub fn with_latency_last(mut self, elem: Option<usize>) -> CostModel {
        self.latency_last = elem;
        self
    }

    /// Throughput component for an order.
    pub fn order_throughput(&self, stats: &PatternStats, order: &[usize]) -> f64 {
        match self.strategy {
            SelectionStrategy::SkipTillAnyMatch => cost_ord(stats, order),
            _ => cost_ord_next(stats, order),
        }
    }

    /// Latency component for an order (0 without an anchor).
    pub fn order_latency(&self, stats: &PatternStats, order: &[usize]) -> f64 {
        match self.latency_last {
            Some(last) => cost_lat_ord(stats, order, last),
            None => 0.0,
        }
    }

    /// Full objective for an order plan.
    pub fn order_cost(&self, stats: &PatternStats, order: &[usize]) -> f64 {
        let trpt = self.order_throughput(stats, order);
        if self.alpha == 0.0 {
            return trpt;
        }
        trpt + self.alpha * self.order_latency(stats, order)
    }

    /// Full objective for an [`OrderPlan`].
    pub fn order_plan_cost(&self, stats: &PatternStats, plan: &OrderPlan) -> f64 {
        self.order_cost(stats, plan.order())
    }

    /// Throughput component for a tree.
    pub fn tree_throughput(&self, stats: &PatternStats, tree: &TreeNode) -> f64 {
        match self.strategy {
            SelectionStrategy::SkipTillAnyMatch => cost_tree(stats, tree),
            _ => cost_tree_next(stats, tree),
        }
    }

    /// Latency component for a tree (0 without an anchor).
    pub fn tree_latency(&self, stats: &PatternStats, tree: &TreeNode) -> f64 {
        match self.latency_last {
            Some(last) => cost_lat_tree(stats, tree, last, self.strategy),
            None => 0.0,
        }
    }

    /// Full objective for a tree.
    pub fn tree_cost(&self, stats: &PatternStats, tree: &TreeNode) -> f64 {
        let trpt = self.tree_throughput(stats, tree);
        if self.alpha == 0.0 {
            return trpt;
        }
        trpt + self.alpha * self.tree_latency(stats, tree)
    }

    /// Full objective for a [`TreePlan`].
    pub fn tree_plan_cost(&self, stats: &PatternStats, plan: &TreePlan) -> f64 {
        self.tree_cost(stats, &plan.root)
    }

    /// Full objective for a [`Plan`] of either family.
    pub fn plan_cost(&self, stats: &PatternStats, plan: &Plan) -> f64 {
        match plan {
            Plan::Order(p) => self.order_plan_cost(stats, p),
            Plan::Tree(p) => self.tree_plan_cost(stats, p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 elements: rates 1, 2, 0.1 per ms; W = 10 ms; one selective
    /// predicate between 0 and 2.
    fn stats3() -> PatternStats {
        PatternStats::synthetic(
            10.0,
            vec![1.0, 2.0, 0.1],
            vec![
                vec![1.0, 1.0, 0.1],
                vec![1.0, 1.0, 1.0],
                vec![0.1, 1.0, 1.0],
            ],
        )
    }

    #[test]
    fn cost_ord_hand_computed() {
        let s = stats3();
        // Order [0,1,2]: PM1 = 10, PM2 = 10*20 = 200,
        // PM3 = 200 * 1 * 0.1*1 = 20. Total = 230.
        assert!((cost_ord(&s, &[0, 1, 2]) - 230.0).abs() < 1e-9);
        // Order [2,0,1]: PM1 = 1, PM2 = 1*10*0.1 = 1, PM3 = 1*20 = 20 -> 22.
        assert!((cost_ord(&s, &[2, 0, 1]) - 22.0).abs() < 1e-9);
    }

    #[test]
    fn rare_first_order_is_cheaper() {
        let s = stats3();
        assert!(cost_ord(&s, &[2, 0, 1]) < cost_ord(&s, &[0, 1, 2]));
    }

    #[test]
    fn cost_next_hand_computed() {
        let s = stats3();
        // Order [0,1,2]: m1 = 10*1, m2 = 10*1, m3 = 10*0.1*0.1 = 0.1.
        // cost = 10*(10 + 10 + 0.1) = 201.
        assert!((cost_ord_next(&s, &[0, 1, 2]) - 201.0).abs() < 1e-9);
    }

    #[test]
    fn next_cost_below_any_cost_for_skewed_rates() {
        let s = stats3();
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
            assert!(cost_ord_next(&s, &order) <= stats_any_upper(&s, &order));
        }
    }

    fn stats_any_upper(s: &PatternStats, order: &[usize; 3]) -> f64 {
        // W * Cost_ord is an upper bound for Cost_next_ord term by term
        // since min(r) <= Π(W r)/W ... use direct comparison of m[k] to PM(k).
        s.window_ms * cost_ord(s, order)
    }

    #[test]
    fn latency_cost_counts_successors() {
        let s = stats3();
        // last element is 2; order [2,0,1] leaves 0 and 1 after it.
        assert!((cost_lat_ord(&s, &[2, 0, 1], 2) - 30.0).abs() < 1e-9);
        // order [0,1,2] has nothing after 2.
        assert!((cost_lat_ord(&s, &[0, 1, 2], 2) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn tree_cost_hand_computed() {
        let s = stats3();
        // ((0 2) 1): leaves 10 + 1 + 20 = 31; node(0,2) = 10*1*0.1 = 1;
        // root = 1 * 20 * 1 = 20. total = 31 + 1 + 20 = 52.
        let t = TreeNode::join(
            TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(2)),
            TreeNode::Leaf(1),
        );
        assert!((cost_tree(&s, &t) - 52.0).abs() < 1e-9);
    }

    #[test]
    fn tree_latency_sums_sibling_pms() {
        let s = stats3();
        let t = TreeNode::join(
            TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(2)),
            TreeNode::Leaf(1),
        );
        // Path from leaf 2: sibling(leaf 2) = leaf 0 (PM 10);
        // sibling(node{0,2}) = leaf 1 (PM 20). Total 30.
        let lat = cost_lat_tree(&s, &t, 2, SelectionStrategy::SkipTillAnyMatch);
        assert!((lat - 30.0).abs() < 1e-9);
        // Last leaf on its own path: only the sibling subtree counts.
        let lat1 = cost_lat_tree(&s, &t, 1, SelectionStrategy::SkipTillAnyMatch);
        assert!((lat1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn theorem1_ldj_equals_cost_ord() {
        let s = stats3();
        let join = reduce_to_join(&s);
        for order in [
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ] {
            let a = cost_ord(&s, &order);
            let b = cost_ldj(&join, &order);
            assert!(
                (a - b).abs() <= 1e-9 * a.max(1.0),
                "order {order:?}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn theorem2_bj_equals_cost_tree() {
        let s = stats3();
        let join = reduce_to_join(&s);
        let trees = [
            TreeNode::join(
                TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(1)),
                TreeNode::Leaf(2),
            ),
            TreeNode::join(
                TreeNode::Leaf(1),
                TreeNode::join(TreeNode::Leaf(2), TreeNode::Leaf(0)),
            ),
        ];
        for t in trees {
            let a = cost_tree(&s, &t);
            let b = cost_bj(&join, &t);
            assert!((a - b).abs() <= 1e-9 * a.max(1.0), "{t}: {a} vs {b}");
        }
    }

    #[test]
    fn hybrid_model_blends_costs() {
        let s = stats3();
        let order = [2, 0, 1];
        let m0 = CostModel::throughput().with_latency_last(Some(2));
        let m1 = m0.clone().with_alpha(1.0);
        let trpt = m0.order_cost(&s, &order);
        let full = m1.order_cost(&s, &order);
        assert!((full - (trpt + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn strategy_switches_formula() {
        let s = stats3();
        let any = CostModel::throughput();
        let next = CostModel {
            strategy: SelectionStrategy::SkipTillNextMatch,
            ..Default::default()
        };
        let contiguity = CostModel {
            strategy: SelectionStrategy::StrictContiguity,
            ..Default::default()
        };
        let order = [0, 1, 2];
        assert!((any.order_cost(&s, &order) - cost_ord(&s, &order)).abs() < 1e-12);
        assert!((next.order_cost(&s, &order) - cost_ord_next(&s, &order)).abs() < 1e-12);
        assert!(
            (contiguity.order_cost(&s, &order) - cost_ord_next(&s, &order)).abs() < 1e-12,
            "contiguity uses the next-match model"
        );
    }

    #[test]
    fn left_deep_tree_orders_match_plan_costs() {
        // Cost_tree of a left-deep tree and Cost_ord of the same order rank
        // plans identically when there are no filters (tree convention).
        let s = stats3();
        let o1 = OrderPlan::new(vec![2, 0, 1]).unwrap();
        let o2 = OrderPlan::new(vec![0, 1, 2]).unwrap();
        let t1 = TreePlan::left_deep(&o1);
        let t2 = TreePlan::left_deep(&o2);
        let m = CostModel::throughput();
        let better_order = m.order_plan_cost(&s, &o1) < m.order_plan_cost(&s, &o2);
        let better_tree = m.tree_plan_cost(&s, &t1) < m.tree_plan_cost(&s, &t2);
        assert_eq!(better_order, better_tree);
    }
}
