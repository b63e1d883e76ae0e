//! Soundness of the time-bounded join probes: every join partner whose
//! `max_ts` lies outside the range [`partner_ts_range`] returns must fail
//! the full check — [`compatible_with`] for (instance, event) pairs in
//! both directions (NFA catch-up and delivery), [`merge_compatible_with`]
//! for (instance, sibling instance) pairs (tree joins). Only then can the
//! engines cut their time-sorted stores to that range without changing a
//! match.
//!
//! Instances are drawn over random element subsets of SEQ, AND, nested
//! and Kleene patterns, bound to arbitrary events of a stream in which
//! about a third of consecutive events share a timestamp — soundness may
//! not depend on the instances being ones an engine would build.

use std::iter;
use std::ops::RangeInclusive;

use cep::conformance::{build_stream, op_of};
use cep::core::compile::CompiledPattern;
use cep::core::compiled::PredicateProgram;
use cep::core::event::{EventRef, Timestamp, TypeId};
use cep::core::instance::{compatible_with, merge_compatible_with, partner_ts_range, Instance};
use cep::core::metrics::EngineMetrics;
use cep::core::pattern::{Pattern, PatternBuilder, PatternExpr};
use cep::core::predicate::Predicate;
use cep::core::selection::ConsumedSet;
use proptest::prelude::*;

/// A pattern over `types` in one of four shapes — flat `SEQ`, flat `AND`,
/// `SEQ(first, AND(middle), last)` and `AND(SEQ(front), SEQ(back))` —
/// with an optional Kleene element and random pairwise predicates.
fn shaped_pattern(
    shape: u8,
    types: &[u32],
    kleene_at: usize,
    preds: &[(usize, usize, u8)],
    window: u64,
) -> Option<Pattern> {
    let mut b = PatternBuilder::new(window);
    let evs: Vec<_> = types
        .iter()
        .enumerate()
        .map(|(i, &t)| b.event(TypeId(t), &format!("e{i}")))
        .collect();
    let n = evs.len();
    for &(i, j, opc) in preds {
        let (i, j) = (i % n, j % n);
        if i != j {
            b.predicate(Predicate::attr_cmp(
                evs[i].pos(),
                0,
                op_of(opc),
                evs[j].pos(),
                0,
            ));
        }
    }
    let mut exprs: Vec<PatternExpr> = evs
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            if i == kleene_at {
                b.kleene(e)
            } else {
                b.expr(e)
            }
        })
        .collect();
    let expr = match shape % 4 {
        0 => PatternExpr::Seq(exprs),
        1 => PatternExpr::And(exprs),
        2 => {
            let last = exprs.pop()?;
            let first = exprs.remove(0);
            PatternExpr::Seq(vec![first, PatternExpr::And(exprs), last])
        }
        _ => {
            let back = exprs.split_off(n / 2);
            PatternExpr::And(vec![PatternExpr::Seq(exprs), PatternExpr::Seq(back)])
        }
    };
    b.finish(expr).ok()
}

/// An instance binding every element of `elems` to stream events picked
/// by `pick` (one or two events for a Kleene element).
fn instance(cp: &CompiledPattern, stream: &[EventRef], elems: &[usize], pick: u64) -> Instance {
    let mut s = pick | 1;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        &stream[(s >> 33) as usize % stream.len()]
    };
    let mut inst = Instance::empty(cp.n());
    for &elem in elems {
        if cp.elements[elem].kleene {
            for _ in 0..1 + (pick & 1) {
                inst = inst.with_kleene(elem, next().clone());
            }
        } else {
            inst = inst.with_single(elem, next().clone());
        }
    }
    inst
}

/// Partners a probe skipped (each asserted to fail the full check) and
/// partners it kept.
#[derive(Debug, Default)]
struct Tally {
    skipped: usize,
    kept: usize,
}

impl Tally {
    fn check(
        &mut self,
        range: Option<RangeInclusive<Timestamp>>,
        partner_max_ts: Timestamp,
        passes: impl Fn() -> bool,
        what: &str,
    ) {
        if range.is_some_and(|r| r.contains(&partner_max_ts)) {
            self.kept += 1;
            return;
        }
        self.skipped += 1;
        assert!(
            !passes(),
            "{what}: a partner at ts {partner_max_ts} outside the probe range passes"
        );
    }
}

/// Checks every (instance, event) pair in both directions and every
/// (instance, disjoint instance) pair over the drawn element subsets.
fn check_pairs(cp: &CompiledPattern, stream: &[EventRef], draws: &[(u8, u64)]) -> Tally {
    let n = cp.n();
    let prog = PredicateProgram::compile(cp);
    let consumed = ConsumedSet::new();
    let mut tally = Tally::default();
    let drawn: Vec<(Vec<usize>, Instance)> = draws
        .iter()
        .map(|&(mask, pick)| {
            let elems: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
            let inst = instance(cp, stream, &elems, pick);
            (elems, inst)
        })
        .collect();
    for (elems, inst) in &drawn {
        for elem in 0..n {
            let kleene = cp.elements[elem].kleene;
            if elems.contains(&elem) && !kleene {
                continue;
            }
            // Catch-up: the instance probes the events buffered for `elem`.
            for e in stream {
                tally.check(
                    partner_ts_range(cp, inst.extents(), &[elem]),
                    e.ts,
                    || {
                        compatible_with(
                            cp,
                            &prog,
                            inst,
                            elem,
                            e,
                            &consumed,
                            &mut EngineMetrics::new(),
                        )
                    },
                    "catch-up",
                );
            }
            // Delivery: an event at `elem` probes the instances waiting for
            // it, which may already hold members of a Kleene `elem`.
            if elems.is_empty() {
                continue;
            }
            let mut partner: Vec<usize> = elems.clone();
            if kleene && !partner.contains(&elem) {
                partner.push(elem);
            }
            for e in stream {
                tally.check(
                    partner_ts_range(cp, iter::once((elem, e.ts, e.ts)), &partner),
                    inst.max_ts,
                    || {
                        compatible_with(
                            cp,
                            &prog,
                            inst,
                            elem,
                            e,
                            &consumed,
                            &mut EngineMetrics::new(),
                        )
                    },
                    "delivery",
                );
            }
        }
    }
    // Tree joins: a new instance probes its sibling's store.
    for (left_elems, left) in &drawn {
        for (right_elems, right) in &drawn {
            let disjoint = left_elems.iter().all(|e| !right_elems.contains(e));
            if left_elems.is_empty() || right_elems.is_empty() || !disjoint {
                continue;
            }
            tally.check(
                partner_ts_range(cp, left.extents(), right_elems),
                right.max_ts,
                || {
                    merge_compatible_with(
                        cp,
                        &prog,
                        left,
                        right,
                        &consumed,
                        &mut EngineMetrics::new(),
                    )
                },
                "merge",
            );
        }
    }
    tally
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        max_shrink_iters: 200,
    })]

    #[test]
    fn partners_outside_the_probe_range_never_pass(
        shape in 0u8..4,
        types in prop::collection::vec(0u32..4, 3..=5),
        kleene_at in 0usize..8,
        preds in prop::collection::vec((0usize..5, 0usize..5, 0u8..8), 0..=3),
        // Δts in 0..3: about a third of consecutive events share a timestamp.
        raw in prop::collection::vec((0u32..5, 0u8..3, -3i8..4), 6..=24),
        draws in prop::collection::vec((any::<u8>(), any::<u64>()), 2..=6),
        window in 1u64..9,
    ) {
        let Some(pattern) = shaped_pattern(shape, &types, kleene_at, &preds, window) else {
            return Ok(());
        };
        let Ok(cp) = CompiledPattern::compile_single(&pattern) else {
            return Ok(());
        };
        check_pairs(&cp, &build_stream(&raw), &draws);
    }
}

/// The property is not vacuous: on a fixed SEQ-with-Kleene case the probes
/// skip partners in all three roles and keep others.
#[test]
fn probe_ranges_skip_and_keep_partners() {
    let raw: Vec<(u32, u8, i8)> = (0..24u32)
        .map(|i| (i % 4, (i * 7 % 3) as u8, (i % 5) as i8 - 2))
        .collect();
    let stream = build_stream(&raw);
    let draws: Vec<(u8, u64)> = (0..6u64).map(|i| ((i * 5 % 15) as u8 + 1, i + 3)).collect();
    for shape in 0..4 {
        let pattern = shaped_pattern(shape, &[0, 1, 2, 3], 1, &[(0, 3, 0)], 4).unwrap();
        let cp = CompiledPattern::compile_single(&pattern).unwrap();
        let tally = check_pairs(&cp, &stream, &draws);
        assert!(
            tally.skipped > 0 && tally.kept > 0,
            "shape {shape}: {tally:?}"
        );
    }
}
