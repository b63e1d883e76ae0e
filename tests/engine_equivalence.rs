//! Property-based cross-backend conformance: for random patterns and
//! random streams, every production backend — an order plan (run as its
//! left-deep tree), the tree engine under a random tree plan, and
//! the delta-indexed engine — must emit output byte-identical
//! (signatures *and* `emitted_at`) to the naive exhaustive oracle. This
//! is the load-bearing correctness property behind the whole evaluation —
//! Section 2.2's claim that "all (n!) NFAs track the exact same
//! pattern", extended to tree plans and the non-materializing backend.
//!
//! The harness itself lives in [`cep::conformance`]; this suite draws the
//! random cases and fixtures through it, so a `SeededBackend` added to
//! [`cep::conformance::standard_backends`] inherits the full sweep.

use std::collections::HashSet;

use cep::conformance::{
    build_pattern, build_stream, check, check_equivalence_under, check_every_order,
    check_stream_under, in_order, keyed, standard_backends, Composition, PatternSpec,
    SeededBackend,
};
use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, EngineConfig};
use cep::core::event::{Event, TypeId};
use cep::core::matches::validate_match;
use cep::core::naive::NaiveEngine;
use cep::core::pattern::PatternBuilder;
use cep::core::plan::{TreeNode, TreePlan};
use cep::core::predicate::{CmpOp, Predicate};
use cep::core::selection::SelectionStrategy;
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::tree::TreeEngine;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
    })]

    #[test]
    fn pure_patterns_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 2..=4),
        preds in prop::collection::vec((0usize..4, 0usize..4, 0u8..8), 0..=3),
        raw in prop::collection::vec((0u32..5, 0u8..4, -3i8..4), 10..=45),
        seed in any::<u64>(),
        window in 4u64..14,
    ) {
        let spec = PatternSpec {
            is_seq,
            elements: types.into_iter().map(|t| (t, 0)).collect(),
            predicates: preds,
            filters: vec![],
            window,
        };
        check_equivalence_under(spec, raw, seed, SelectionStrategy::SkipTillAnyMatch);
    }

    #[test]
    fn negation_patterns_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 3..=4),
        neg_at in 0usize..4,
        raw in prop::collection::vec((0u32..5, 0u8..4, -3i8..4), 10..=35),
        seed in any::<u64>(),
        window in 4u64..12,
    ) {
        let mut elements: Vec<(u32, u8)> = types.into_iter().map(|t| (t, 0)).collect();
        let k = neg_at % elements.len();
        elements[k].1 = 1;
        let spec = PatternSpec { is_seq, elements, predicates: vec![], filters: vec![], window };
        check_equivalence_under(spec, raw, seed, SelectionStrategy::SkipTillAnyMatch);
    }

    #[test]
    fn kleene_patterns_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 2..=3),
        kl_at in 0usize..3,
        preds in prop::collection::vec((0usize..3, 0usize..3, 0u8..8), 0..=2),
        raw in prop::collection::vec((0u32..5, 1u8..4, -3i8..4), 8..=25),
        seed in any::<u64>(),
        window in 4u64..10,
    ) {
        let mut elements: Vec<(u32, u8)> = types.into_iter().map(|t| (t, 0)).collect();
        let k = kl_at % elements.len();
        elements[k].1 = 2;
        let spec = PatternSpec { is_seq, elements, predicates: preds, filters: vec![], window };
        check_equivalence_under(spec, raw, seed, SelectionStrategy::SkipTillAnyMatch);
    }

    #[test]
    fn contiguity_patterns_equivalent(
        types in prop::collection::vec(0u32..3, 2..=3),
        raw in prop::collection::vec((0u32..4, 0u8..3, -3i8..4), 10..=30),
        seed in any::<u64>(),
    ) {
        let spec = PatternSpec {
            is_seq: true,
            elements: types.into_iter().map(|t| (t, 0)).collect(),
            predicates: vec![],
            filters: vec![],
            window: 8,
        };
        check_equivalence_under(spec, raw, seed, SelectionStrategy::StrictContiguity);
    }

    /// Equality-join sweep over adversarial join values
    /// ([`cep::conformance::join_value`]): every draw runs under all three
    /// exact strategies, and `check_stream_under` runs NFA (random order),
    /// tree (random shape) and delta. Draws
    /// cover a Kleene join partner (the step must fall back to one
    /// bucket), several `==` predicates on one step, `==` on either of two
    /// attributes, and one type at several positions.
    #[test]
    fn eq_join_patterns_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..3, 2..=4),
        kleene_at in 0usize..8,
        joins in prop::collection::vec((0usize..4, 0usize..4, 0usize..2, 0usize..2), 1..=2),
        others in prop::collection::vec((0usize..4, 0usize..4, 0u8..8), 0..=1),
        raw in prop::collection::vec((0u32..3, 0u8..3, 0u8..10, 0u8..10), 14..=30),
        seed in any::<u64>(),
        window in 5u64..12,
    ) {
        let n = types.len();
        let Some(mut pattern) = build_pattern(&PatternSpec {
            is_seq,
            // `kleene_at >= n` draws no Kleene element.
            elements: types
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, if i == kleene_at { 2 } else { 0 }))
                .collect(),
            predicates: others,
            filters: vec![],
            window,
        }) else { return Ok(()); };
        let prims = pattern.primitives();
        for (i, j, attr_i, attr_j) in joins {
            let (i, j) = (i % n, j % n);
            if i != j {
                pattern.predicates.push(Predicate::attr_cmp(
                    prims[i].position,
                    attr_i,
                    CmpOp::Eq,
                    prims[j].position,
                    attr_j,
                ));
            }
        }
        let stream = cep::conformance::build_join_stream(&raw);
        let cfg = EngineConfig { max_kleene_events: 4, ..Default::default() };
        for strategy in [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ] {
            pattern.strategy = strategy;
            if CompiledPattern::compile_single(&pattern).is_err() { return Ok(()); }
            check_stream_under(&pattern, &stream, &cfg, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 200,
    })]

    /// The randomized differential sweep: queries drawn with negation and
    /// Kleene operators (possibly both), random predicates, and random
    /// windows, checked under **all three exact selection strategies** —
    /// 64 cases × 3 strategies = 192 query evaluations per run, each
    /// asserting NFA (random order plan), tree (random tree plan), the
    /// delta-indexed engine, and the naive exhaustive oracle emit
    /// byte-identical match streams.
    #[test]
    fn mixed_negation_kleene_equivalent_under_all_exact_strategies(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 3..=4),
        neg_at in 0usize..4,
        kl_at in 0usize..4,
        with_neg in any::<bool>(),
        with_kl in any::<bool>(),
        preds in prop::collection::vec((0usize..4, 0usize..4, 0u8..8), 0..=2),
        raw in prop::collection::vec((0u32..5, 1u8..4, -3i8..4), 8..=28),
        seed in any::<u64>(),
        window in 4u64..10,
    ) {
        let mut elements: Vec<(u32, u8)> = types.into_iter().map(|t| (t, 0)).collect();
        if with_neg {
            let k = neg_at % elements.len();
            elements[k].1 = 1;
        }
        if with_kl {
            let k = kl_at % elements.len();
            if elements[k].1 == 0 {
                elements[k].1 = 2;
            }
        }
        let spec = PatternSpec { is_seq, elements, predicates: preds, filters: vec![], window };
        for strategy in [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ] {
            check_equivalence_under(spec.clone(), raw.clone(), seed, strategy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 200,
    })]

    /// Unary filters (`e_i.attr0 OP const`) on plain, Kleene and negated
    /// elements: the sweep behind the engine shell's eager gate
    /// (`PredicateProgram::can_ever_bind`), which drops an event
    /// failing every filter of its type before it is buffered. With
    /// `share`, the negated element takes the type of a filtered positive
    /// element, so an event the positive filter rejects must still reach
    /// the negation check. Three exact strategies; `prune_every: 1` in half
    /// the cases.
    #[test]
    fn filtered_patterns_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..3, 2..=4),
        neg_at in 0usize..6,
        kl_at in 0usize..6,
        share in any::<bool>(),
        filters in prop::collection::vec((0usize..4, 0u8..6, -3i8..4), 1..=2),
        preds in prop::collection::vec((0usize..4, 0usize..4, 0u8..8), 0..=1),
        raw in prop::collection::vec((0u32..4, 1u8..3, -3i8..4), 12..=32),
        seed in any::<u64>(),
        window in 4u64..10,
        eager_prune in any::<bool>(),
    ) {
        // `neg_at` / `kl_at` past the end draw no negated / Kleene element.
        let n = types.len();
        let mut elements: Vec<(u32, u8)> = types.into_iter().map(|t| (t, 0)).collect();
        let mut filters = filters;
        if neg_at < n {
            elements[neg_at].1 = 1;
            if share {
                let pos = (neg_at + 1) % n;
                elements[neg_at].0 = elements[pos].0;
                filters.push((pos, 5, 0)); // e_pos.attr0 > 0
            }
        }
        if kl_at < n && elements[kl_at].1 == 0 {
            elements[kl_at].1 = 2;
        }
        let spec = PatternSpec { is_seq, elements, predicates: preds, filters, window };
        let Some(mut pattern) = build_pattern(&spec) else { return Ok(()); };
        let stream = build_stream(&raw);
        let cfg = EngineConfig {
            max_kleene_events: 4,
            prune_every: if eager_prune { 1 } else { 64 },
        };
        for strategy in [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ] {
            pattern.strategy = strategy;
            if CompiledPattern::compile_single(&pattern).is_err() { return Ok(()); }
            check_stream_under(&pattern, &stream, &cfg, seed);
        }
    }

    /// Tie-heavy sweep for the time-bounded probes: about half of the
    /// consecutive events share a timestamp, so equal-`ts` partners sit on
    /// both edges of every probe's slice, where an off-by-one in a
    /// `partition_point` bound would drop or admit one. Random plans
    /// (NFA orders, tree shapes), both predicate paths, optional negation
    /// and Kleene; byte-identical to the oracle under the three exact
    /// strategies, and [`check_next_match`] under skip-till-next-match.
    #[test]
    fn tie_heavy_streams_equivalent_under_every_strategy(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 2..=4),
        flag_at in 0usize..6,
        flag_draw in 0u8..3,
        preds in prop::collection::vec((0usize..4, 0usize..4, 0u8..8), 0..=3),
        raw in prop::collection::vec((0u32..5, 0u8..2, -3i8..4), 10..=36),
        seed in any::<u64>(),
        window in 1u64..8,
    ) {
        // `flag_at` past the end draws a pure pattern; the flagged element
        // is negated or, twice as often, Kleene.
        let flag = if flag_draw == 0 { 1 } else { 2 };
        let elements = types
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, if i == flag_at { flag } else { 0 }))
            .collect();
        let spec = PatternSpec { is_seq, elements, predicates: preds, filters: vec![], window };
        for strategy in [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ] {
            check_equivalence_under(spec.clone(), raw.clone(), seed, strategy);
        }
        check_next_match(&spec, &raw, seed);
    }
}

/// Skip-till-next-match is greedy, so no backend reproduces the oracle's
/// output under it. What holds instead, checked for every standard
/// backend: each emitted match is valid, no event is in two matches,
/// and every `(signature, emitted_at)` is one the skip-till-any-match
/// oracle emits.
fn check_next_match(spec: &PatternSpec, raw: &[(u32, u8, i8)], seed: u64) {
    let Some(mut pattern) = build_pattern(spec) else {
        return;
    };
    let stream = build_stream(raw);
    let cfg = EngineConfig {
        max_kleene_events: 4,
        ..Default::default()
    };
    let Ok(any_cp) = CompiledPattern::compile_single(&pattern) else {
        return;
    };
    let mut oracle = NaiveEngine::new(any_cp, cfg.clone());
    let all: HashSet<_> = keyed(&run_to_completion(&mut oracle, &stream, true).matches)
        .into_iter()
        .collect();
    pattern.strategy = SelectionStrategy::SkipTillNextMatch;
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    for backend in standard_backends() {
        let mut engine = backend.build(&cp, seed, &cfg);
        let matches = run_to_completion(engine.as_mut(), &stream, true).matches;
        let mut used = HashSet::new();
        for m in &matches {
            validate_match(&cp, m).unwrap_or_else(|e| panic!("{}: {e}", backend.name));
            assert!(
                m.events().all(|e| used.insert(e.seq)),
                "{}: next-match output shares an event, {pattern}",
                backend.name
            );
        }
        for key in in_order(&matches) {
            assert!(
                all.contains(&key),
                "{}(seed {seed}) emitted {key:?}, not an any-match result, for {pattern}",
                backend.name
            );
        }
    }
}

/// Regression fixture: the paper's four-camera pattern on a crafted stream,
/// checked across all 24 plan orders, a bushy tree, and the delta engine.
#[test]
fn four_cameras_all_plans_agree() {
    let mut b = PatternBuilder::new(50);
    let a = b.event(TypeId(0), "a");
    let bb = b.event(TypeId(1), "b");
    let c = b.event(TypeId(2), "c");
    let d = b.event(TypeId(3), "d");
    for (x, y) in [(a, bb), (bb, c), (c, d)] {
        b.predicate(Predicate::attr_cmp(x.pos(), 0, CmpOp::Eq, y.pos(), 0));
    }
    let pattern = b.seq([a, bb, c, d]).unwrap();

    let mut sb = StreamBuilder::new();
    let mut ts = 0;
    for vehicle in 0..6i64 {
        for cam in 0..4u32 {
            ts += 2;
            if cam < 3 || vehicle % 2 == 0 {
                sb.push(Event::new(TypeId(cam), ts, vec![Value::Int(vehicle)]));
            }
        }
    }
    let stream = sb.build();
    let bushy = SeededBackend::new("tree-bushy", |cp, _, cfg| {
        let (leaf, join) = (TreeNode::Leaf, TreeNode::join);
        let tree = join(join(leaf(3), leaf(2)), join(leaf(1), leaf(0)));
        Box::new(TreeEngine::new(cp.clone(), TreePlan::new(tree).unwrap(), cfg.clone()).unwrap())
    });
    let (cfg, any) = (EngineConfig::default(), SelectionStrategy::SkipTillAnyMatch);
    let run =
        |b: &SeededBackend, seed| check(&Composition::Bare, b, seed, &cfg, any, &pattern, &stream);
    assert!(
        check_every_order(&pattern, &stream, &cfg) > 0,
        "fixture must produce matches"
    );
    run(&bushy, 0);
    // The plan-free delta backend.
    let delta = run(&standard_backends()[2], 0).metrics;
    assert_eq!(
        delta.partial_matches_created, 0,
        "delta must not materialize partial matches"
    );
}

/// Regression fixture for hash-partitioned join state: every adversarial
/// join value of [`cep::conformance::join_value`] meets every other, on
/// patterns with one type at two positions, two `==` predicates on one
/// step, `==` on a second attribute, and a Kleene join partner — under
/// all three exact strategies and eight plan seeds each (NFA orders and
/// tree shapes).
#[test]
fn eq_join_adversarial_keys_fixture() {
    let seq3 = |kleene_mid: bool| {
        let mut b = PatternBuilder::new(9);
        let a = b.event(TypeId(0), "a");
        let m = b.event(TypeId(1), "m");
        let c = b.event(TypeId(0), "c"); // same type as `a`
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, m.pos(), 0));
        b.predicate(Predicate::attr_cmp(m.pos(), 0, CmpOp::Eq, c.pos(), 0));
        b.predicate(Predicate::attr_cmp(a.pos(), 1, CmpOp::Eq, c.pos(), 1));
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
        let (ae, ce) = (b.expr(a), b.expr(c));
        let me = if kleene_mid { b.kleene(m) } else { b.expr(m) };
        b.seq_exprs([ae, me, ce]).unwrap()
    };
    // Key codes walk the whole value pool against itself (7 and 10 are
    // coprime); the second attribute alternates between two joinable codes
    // and the unkeyable ones.
    let raw: Vec<(u32, u8, u8, u8)> = (0..60u32)
        .map(|i| {
            (
                i % 2,
                1,
                (i * 7 % 10) as u8,
                [0, 9, 7, 8, 2][(i % 5) as usize],
            )
        })
        .collect();
    let stream = cep::conformance::build_join_stream(&raw);
    let cfg = EngineConfig {
        max_kleene_events: 3,
        ..Default::default()
    };
    for kleene_mid in [false, true] {
        let mut pattern = seq3(kleene_mid);
        for strategy in [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ] {
            pattern.strategy = strategy;
            let matched = (0..8).map(|seed| check_stream_under(&pattern, &stream, &cfg, seed));
            let any = strategy == SelectionStrategy::SkipTillAnyMatch;
            assert!(matched.max() > Some(0) || !any, "a vacuous fixture");
        }
    }
}

/// A Kleene element that is the pattern's only positive element is the
/// tree plan's root leaf: its accumulators must still be stored and grown,
/// or only singleton sets come out. `KL(B)`, `SEQ(NOT A, KL(B))` and
/// `AND(KL(B), NOT A)` under the three exact strategies.
#[test]
fn lone_kleene_root_grows_like_the_oracle() {
    let mut sb = StreamBuilder::new();
    for (tid, ts) in [
        (1, 1),
        (1, 2),
        (0, 3),
        (1, 4),
        (1, 4),
        (2, 5),
        (1, 6),
        (1, 9),
    ] {
        sb.push(Event::new(TypeId(tid), ts, vec![Value::Int(ts as i64 % 3)]));
    }
    let stream = sb.build();
    let cfg = EngineConfig {
        max_kleene_events: 3,
        ..Default::default()
    };
    for shape in 0..3 {
        let mut b = PatternBuilder::new(4);
        let a = b.event(TypeId(0), "a");
        let k = b.event(TypeId(1), "k");
        let ke = b.kleene(k);
        let mut pattern = match shape {
            0 => b.seq_exprs([ke]),
            1 => {
                let ne = b.not(a);
                b.seq_exprs([ne, ke])
            }
            _ => {
                let ne = b.not(a);
                b.and_exprs([ke, ne])
            }
        }
        .unwrap();
        for strategy in [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ] {
            pattern.strategy = strategy;
            let cp = CompiledPattern::compile_single(&pattern).unwrap();
            let mut oracle = NaiveEngine::new(cp.clone(), cfg.clone());
            let expected = run_to_completion(&mut oracle, &stream, true).matches;
            assert!(
                expected.iter().any(|m| m.events().count() > 1),
                "fixture must produce a multi-event set for {pattern} [{strategy}]"
            );
            for seed in 0..2 {
                check_stream_under(&pattern, &stream, &cfg, seed);
            }
        }
    }
}

/// `max_kleene_events: 0` admits no Kleene set, so a pattern with a Kleene
/// element matches nothing: `KL(K)` first or last, under SEQ and AND, on
/// `A K K A K`, under the three exact strategies and eight plan seeds (NFA
/// orders and tree shapes). Each backend must apply the cap where it seeds
/// a Kleene element, not only where it grows one.
#[test]
fn kleene_cap_zero_emits_nothing_on_every_backend() {
    let mut sb = StreamBuilder::new();
    for (tid, ts) in [(0, 1), (1, 2), (1, 3), (0, 4), (1, 5)] {
        sb.push(Event::new(TypeId(tid), ts, vec![Value::Int(0)]));
    }
    let stream = sb.build();
    let cfg = EngineConfig {
        max_kleene_events: 0,
        ..Default::default()
    };
    for (is_seq, kleene_first) in [(true, true), (true, false), (false, true), (false, false)] {
        let mut b = PatternBuilder::new(10);
        let a = b.event(TypeId(0), "a");
        let k = b.event(TypeId(1), "k");
        let (ae, ke) = (b.expr(a), b.kleene(k));
        let exprs = if kleene_first { [ke, ae] } else { [ae, ke] };
        let mut pattern = if is_seq {
            b.seq_exprs(exprs)
        } else {
            b.and_exprs(exprs)
        }
        .unwrap();
        for strategy in [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ] {
            pattern.strategy = strategy;
            let cp = CompiledPattern::compile_single(&pattern).unwrap();
            let mut uncapped = NaiveEngine::new(cp.clone(), EngineConfig::default());
            assert!(
                !run_to_completion(&mut uncapped, &stream, true)
                    .matches
                    .is_empty(),
                "fixture must match without the cap: {pattern} [{strategy}]"
            );
            for seed in 0..8 {
                check_stream_under(&pattern, &stream, &cfg, seed);
            }
        }
    }
}

/// Window expiry at the timestamp extremes: `ts = 0`, all-equal
/// timestamps, the smallest and the largest window, and events at the
/// very top of the `u64` range, where an unchecked `ts + window` would
/// overflow. Pruning runs on every event so each backend's expiry rule is
/// exercised at each step. (Patterns reject `window = 0`; the helper's own
/// tests cover it.)
#[test]
fn timestamp_extremes_match_oracle() {
    let top = u64::MAX;
    let times = [
        0,
        0,
        0,
        0,
        3,
        3,
        top - 6,
        top - 6,
        top - 2,
        top - 1,
        top,
        top,
        top,
    ];
    let mut sb = StreamBuilder::new();
    for (i, &ts) in times.iter().enumerate() {
        sb.push(Event::new(
            TypeId(i as u32 % 2),
            ts,
            vec![Value::Int(i as i64 % 3 / 2)],
        ));
    }
    let stream = sb.build();
    let cfg = EngineConfig {
        prune_every: 1,
        ..Default::default()
    };
    for window in [1, 5, top] {
        for is_seq in [true, false] {
            let mut b = PatternBuilder::new(window);
            let a = b.event(TypeId(0), "a");
            let c = b.event(TypeId(1), "c");
            b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
            let pattern = if is_seq { b.seq([a, c]) } else { b.and([a, c]) }.unwrap();
            for seed in 0..2 {
                check_stream_under(&pattern, &stream, &cfg, seed);
            }
        }
    }
}

/// Hand-checked trailing negation at the top of the timestamp range: in
/// `SEQ(a, NOT n) WITHIN 10` with `a` at `MAX-5`, the forbidden interval
/// runs to `MAX-5+10`, saturated to `MAX`, so `n` at `MAX-3` kills the
/// match. An unchecked sum panics in debug builds and wraps in release,
/// forbidding nothing. The oracle shares the negation code, so the
/// expected output here is written down, not computed.
#[test]
fn trailing_negation_near_timestamp_top_forbids() {
    let top = u64::MAX;
    let mut b = PatternBuilder::new(10);
    let a = b.event(TypeId(0), "a");
    let n = b.event(TypeId(1), "n");
    let exprs = [b.expr(a), b.not(n)];
    let pattern = b.seq_exprs(exprs).unwrap();
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let mut sb = StreamBuilder::new();
    sb.push(Event::new(TypeId(0), top - 5, vec![]));
    sb.push(Event::new(TypeId(1), top - 3, vec![]));
    let stream = sb.build();
    let cfg = EngineConfig::default();
    for backend in cep::conformance::standard_backends() {
        let mut engine = backend.build(&cp, 0, &cfg);
        let r = run_to_completion(engine.as_mut(), &stream, true);
        assert!(
            r.matches.is_empty(),
            "{}: `n` inside the saturated interval must forbid the match, got {:?}",
            backend.name,
            r.matches
        );
    }
}
