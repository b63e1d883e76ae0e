//! Incremental subset tables used by the dynamic-programming planners.
//!
//! The DP algorithms need, for every subset `S` of pattern elements, the
//! expected partial-match count `PM(S)` (Sections 4.1/4.2) under either
//! selection model. Computing each from scratch costs `O(n²)` per subset;
//! these tables build all `2^n` values incrementally in `O(2^n · n)`.

use cep_core::selection::SelectionStrategy;
use cep_core::stats::PatternStats;

/// Hard limit on elements for subset DP (`2^n` tables).
pub const MAX_DP_ELEMENTS: usize = 26;

/// Subset tables of partial-match counts.
pub struct SubsetTables {
    /// `PM(S)` under the order-based convention (filters included).
    pub pm_order: Vec<f64>,
    /// `PM(S)` under the tree convention (no filters).
    pub pm_tree: Vec<f64>,
}

impl SubsetTables {
    /// Builds the tables for all subsets of `stats.n()` elements.
    ///
    /// # Panics
    /// Panics if `stats.n() > MAX_DP_ELEMENTS`; every planner in this crate
    /// returns a typed error before calling it with more.
    pub fn build(stats: &PatternStats, strategy: SelectionStrategy) -> SubsetTables {
        let n = stats.n();
        assert!(
            n <= MAX_DP_ELEMENTS,
            "subset DP supports at most {MAX_DP_ELEMENTS} elements, got {n}"
        );
        let size = 1usize << n;
        // prod_sel[S]: product of sel[i][j] over i<j in S (cross pairs).
        // filt[S]: product of sel[i][i] over i in S.
        // count_prod[S]: product of W·r_i over i in S.
        // min_rate[S]: min rate over i in S.
        let mut prod_sel = vec![1.0f64; size];
        let mut filt = vec![1.0f64; size];
        let mut count_prod = vec![1.0f64; size];
        let mut min_rate = vec![f64::INFINITY; size];
        for s in 1..size {
            let low = s.trailing_zeros() as usize;
            let rest = s & (s - 1);
            let mut cross = 1.0;
            let mut r = rest;
            while r != 0 {
                let j = r.trailing_zeros() as usize;
                cross *= stats.sel[low][j];
                r &= r - 1;
            }
            prod_sel[s] = prod_sel[rest] * cross;
            filt[s] = filt[rest] * stats.sel[low][low];
            count_prod[s] = count_prod[rest] * stats.count_in_window(low);
            min_rate[s] = min_rate[rest].min(stats.rates[low]);
        }
        let any = strategy == SelectionStrategy::SkipTillAnyMatch;
        let mut pm_order = vec![0.0f64; size];
        let mut pm_tree = vec![0.0f64; size];
        for s in 1..size {
            if any {
                pm_order[s] = count_prod[s] * prod_sel[s] * filt[s];
                pm_tree[s] = count_prod[s] * prod_sel[s];
            } else {
                // Next-match model: W·min(r)·Πsel. The order flavour also
                // carries the extra W factor of Cost_next_ord's summation
                // (Σ_k W·m[k]).
                let m = stats.window_ms * min_rate[s] * prod_sel[s];
                pm_order[s] = stats.window_ms * m * filt[s];
                pm_tree[s] = m;
            }
        }
        pm_order[0] = 0.0;
        pm_tree[0] = 0.0;
        SubsetTables { pm_order, pm_tree }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::cost::{cost_ord, cost_tree};
    use cep_core::plan::TreeNode;

    fn stats3() -> PatternStats {
        PatternStats::synthetic(
            10.0,
            vec![1.0, 2.0, 0.1],
            vec![
                vec![0.9, 1.0, 0.1],
                vec![1.0, 1.0, 0.5],
                vec![0.1, 0.5, 0.8],
            ],
        )
    }

    #[test]
    fn pm_order_matches_direct_computation() {
        let s = stats3();
        let t = SubsetTables::build(&s, SelectionStrategy::SkipTillAnyMatch);
        for (mask, set) in [
            (0b001usize, vec![0usize]),
            (0b011, vec![0, 1]),
            (0b101, vec![0, 2]),
            (0b111, vec![0, 1, 2]),
        ] {
            let direct = s.pm_of_set(&set);
            assert!(
                (t.pm_order[mask] - direct).abs() <= 1e-9 * direct.max(1.0),
                "mask {mask:#b}: {} vs {}",
                t.pm_order[mask],
                direct
            );
        }
    }

    #[test]
    fn prefix_sums_reproduce_cost_ord() {
        let s = stats3();
        let t = SubsetTables::build(&s, SelectionStrategy::SkipTillAnyMatch);
        let order = [2usize, 0, 1];
        let mut mask = 0usize;
        let mut total = 0.0;
        for &e in &order {
            mask |= 1 << e;
            total += t.pm_order[mask];
        }
        let direct = cost_ord(&s, &order);
        assert!((total - direct).abs() <= 1e-9 * direct.max(1.0));
    }

    #[test]
    fn tree_pm_matches_cost_tree_node_sums() {
        let s = stats3();
        let t = SubsetTables::build(&s, SelectionStrategy::SkipTillAnyMatch);
        // ((0 1) 2): nodes {0},{1},{0,1},{2},{0,1,2}.
        let tree = TreeNode::join(
            TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(1)),
            TreeNode::Leaf(2),
        );
        let total = t.pm_tree[0b001]
            + t.pm_tree[0b010]
            + t.pm_tree[0b011]
            + t.pm_tree[0b100]
            + t.pm_tree[0b111];
        let direct = cost_tree(&s, &tree);
        assert!((total - direct).abs() <= 1e-9 * direct.max(1.0));
    }

    #[test]
    fn next_model_uses_min_rate() {
        let s = stats3();
        let t = SubsetTables::build(&s, SelectionStrategy::SkipTillNextMatch);
        // {0,1}: W² · min(1,2) · sel(0,1)=1 · filters 0.9·1.
        let expect = 10.0 * 10.0 * 1.0 * 1.0 * 0.9;
        assert!((t.pm_order[0b011] - expect).abs() < 1e-9);
    }
}
