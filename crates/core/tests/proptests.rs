//! Property-based tests on the core data structures and invariants.

use cep_core::buffer::TypeBuffers;
use cep_core::compile::CompiledPattern;
use cep_core::event::{Event, TypeId};
use cep_core::keyed::{KeyedStore, Slot};
use cep_core::pattern::{PatternBuilder, PatternExpr};
use cep_core::plan::{OrderPlan, TreeNode, TreePlan};
use cep_core::predicate::{CmpOp, Predicate};
use cep_core::stats::PatternStats;
use cep_core::value::Value;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

/// Join values that stress key canonicalization: cross-kind numeric
/// equality, both zeros, `NaN`, a missing attribute (`None`), strings,
/// booleans, and two integers sharing one `f64` image (a key collision
/// that only the residual predicate tells apart).
fn join_value(code: u8) -> Option<Value> {
    match code % 12 {
        0 => Some(Value::Int(0)),
        1 => Some(Value::Float(-0.0)),
        2 => Some(Value::Float(0.0)),
        3 => Some(Value::Int(1)),
        4 => Some(Value::Float(1.0)),
        5 => Some(Value::Float(f64::NAN)),
        6 => None,
        7 => Some(Value::from("a")),
        8 => Some(Value::from("b")),
        9 => Some(Value::Bool(true)),
        10 => Some(Value::Int(1 << 53)),
        _ => Some(Value::Int((1 << 53) + 1)),
    }
}

fn joins(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.partial_cmp_value(b) == Some(Ordering::Equal),
        _ => false,
    }
}

proptest! {
    /// A keyed store visits, in the same order, exactly the members a flat
    /// insertion-ordered scan filtered by the join equality would — across
    /// pushes, stable `retain` kills and front-drain expiry — and its
    /// maintained `len` never drifts.
    #[test]
    fn keyed_store_visits_what_a_filtered_scan_would(
        ops in prop::collection::vec((0u8..8, 0u8..12, 0u32..5), 1..120),
    ) {
        let mut store: KeyedStore<(Option<Value>, u32)> = KeyedStore::new();
        let mut flat: Vec<(Option<Value>, u32)> = Vec::new();
        let mut next_id = 0u32;
        for (op, code, arg) in ops {
            match op {
                // Mostly pushes, so buckets fill up between prunes.
                0..=4 => {
                    let value = join_value(code);
                    store.push(Slot::of(value.as_ref()), (value.clone(), next_id));
                    flat.push((value, next_id));
                    next_id += 1;
                }
                5 => {
                    let modulus = arg + 2;
                    store.retain(|(_, id)| id % modulus != 0);
                    flat.retain(|(_, id)| id % modulus != 0);
                }
                6 => {
                    // Ids are insertion-ordered, like event timestamps.
                    let cutoff = next_id.saturating_sub(arg * 4);
                    store.drain_front_while(|(_, id)| *id < cutoff);
                    flat.retain(|(_, id)| *id >= cutoff);
                }
                _ => {}
            }
            prop_assert_eq!(store.len(), flat.len());
            let probe = join_value(code);
            let visited: Vec<u32> = store
                .visit(&Slot::of(probe.as_ref()))
                .iter()
                .filter(|(v, _)| joins(v, &probe))
                .map(|(_, id)| *id)
                .collect();
            let scanned: Vec<u32> = flat
                .iter()
                .filter(|(v, _)| joins(v, &probe))
                .map(|(_, id)| *id)
                .collect();
            prop_assert_eq!(visited, scanned);
        }
    }

    /// Buffer pruning keeps exactly the events still inside the window and
    /// `len()` stays consistent with per-type contents.
    #[test]
    fn buffer_prune_invariant(
        events in prop::collection::vec((0u32..4, 0u64..100), 0..60),
        window in 1u64..30,
    ) {
        let mut sorted = events.clone();
        sorted.sort_by_key(|&(_, ts)| ts);
        let mut buf = TypeBuffers::new();
        let mut watermark = 0;
        for (i, &(ty, ts)) in sorted.iter().enumerate() {
            let mut e = Event::new(TypeId(ty), ts, vec![]);
            e.seq = i as u64;
            buf.push(Arc::new(e));
            watermark = ts;
        }
        buf.prune(watermark, window);
        let mut remaining = 0;
        for ty in 0..4u32 {
            for e in buf.iter_type(TypeId(ty)) {
                prop_assert!(e.ts + window >= watermark);
                remaining += 1;
            }
        }
        prop_assert_eq!(remaining, buf.len());
        let expected = sorted
            .iter()
            .filter(|&&(_, ts)| ts + window >= watermark)
            .count();
        prop_assert_eq!(buf.len(), expected);
    }

    /// DNF decomposition yields one branch per combination of OR operands:
    /// `AND(e, OR(k of them), OR(m of them))` has `k · m` branches, each
    /// covering one element from every OR.
    #[test]
    fn dnf_branch_count(k in 1usize..4, m in 1usize..4) {
        let mut b = PatternBuilder::new(10);
        let head = b.event(TypeId(0), "h");
        let or1: Vec<PatternExpr> = (0..k)
            .map(|i| {
                let e = b.event(TypeId(1 + i as u32), &format!("x{i}"));
                b.expr(e)
            })
            .collect();
        let or2: Vec<PatternExpr> = (0..m)
            .map(|i| {
                let e = b.event(TypeId(10 + i as u32), &format!("y{i}"));
                b.expr(e)
            })
            .collect();
        let he = b.expr(head);
        let p = b
            .and_exprs([he, PatternExpr::Or(or1), PatternExpr::Or(or2)])
            .unwrap();
        let branches = CompiledPattern::compile(&p).unwrap();
        prop_assert_eq!(branches.len(), k * m);
        for cp in &branches {
            prop_assert_eq!(cp.n(), 3);
            prop_assert!(cp.uses_type(TypeId(0)));
        }
    }

    /// An order plan accepts exactly the permutations of `0..n`.
    #[test]
    fn order_plan_permutation_check(order in prop::collection::vec(0usize..6, 1..6)) {
        let n = order.len();
        let mut seen = vec![false; n];
        let is_perm = order.iter().all(|&i| {
            if i < n && !seen[i] {
                seen[i] = true;
                true
            } else {
                false
            }
        });
        prop_assert_eq!(OrderPlan::new(order).is_ok(), is_perm);
    }

    /// Flipping a comparison operator and swapping its operands preserves
    /// the predicate's value.
    #[test]
    fn predicate_flip_symmetry(
        a in -50i64..50,
        bval in -50i64..50,
        opc in 0u8..6,
    ) {
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt][opc as usize];
        let ea = Event::new(TypeId(0), 0, vec![Value::Int(a)]);
        let mut eb = Event::new(TypeId(1), 1, vec![Value::Int(bval)]);
        eb.seq = 1;
        let p = Predicate::attr_cmp(0, 0, op, 1, 0);
        let q = Predicate::attr_cmp(1, 0, op.flip(), 0, 0);
        prop_assert_eq!(p.eval_pair(0, &ea, 1, &eb), q.eval_pair(0, &ea, 1, &eb));
    }

    /// `pm_of_set` is permutation-invariant (the property the DP planners
    /// rely on) and monotonically shrinks under sub-unit selectivities.
    #[test]
    fn pm_of_set_is_order_free(
        rates in prop::collection::vec(0.1f64..3.0, 4..=4),
        sel_raw in prop::collection::vec(0.05f64..1.0, 16..=16),
        w in 1.0f64..20.0,
    ) {
        let n = 4;
        let mut sel = vec![vec![1.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                sel[i][j] = sel_raw[i * n + j];
                sel[j][i] = sel_raw[i * n + j];
            }
        }
        let stats = PatternStats::synthetic(w, rates, sel);
        let a = stats.pm_of_set(&[0, 1, 2, 3]);
        let b = stats.pm_of_set(&[3, 1, 0, 2]);
        prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        // Supersets with sel <= 1 and W·r >= threshold grow or shrink
        // consistently with the added factor.
        let sub = stats.pm_of_set(&[0, 1]);
        let factor = stats.count_in_window(2)
            * stats.sel[2][2]
            * stats.sel[2][0]
            * stats.sel[2][1];
        let sup = stats.pm_of_set(&[0, 1, 2]);
        prop_assert!((sup - sub * factor).abs() <= 1e-9 * sup.abs().max(1.0));
    }

    /// Tree plans expose their leaves in order and left-deep construction
    /// round-trips through `OrderPlan`.
    #[test]
    fn left_deep_tree_roundtrip(order in prop::collection::vec(0usize..8, 1..8)) {
        // Make a permutation out of the raw draw.
        let n = order.len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&i| (order[i], i));
        let plan = OrderPlan::new(perm.clone()).unwrap();
        let tree = TreePlan::left_deep(&plan);
        prop_assert!(tree.root.is_left_deep());
        prop_assert_eq!(tree.root.leaves(), perm);
        prop_assert_eq!(tree.len(), n);
    }

    /// `TreeNode::leaf_mask` is consistent with `leaves()`.
    #[test]
    fn leaf_mask_matches_leaves(split in 1usize..5) {
        let n = 6;
        let leaves: Vec<usize> = (0..n).collect();
        let tree = TreeNode::join(
            TreeNode::left_deep(&leaves[..split]),
            TreeNode::left_deep(&leaves[split..]),
        );
        let mask = tree.leaf_mask();
        for &l in &tree.leaves() {
            prop_assert!(mask & (1 << l) != 0);
        }
        prop_assert_eq!(mask.count_ones() as usize, n);
    }
}
