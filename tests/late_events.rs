//! Late events: an event whose timestamp is below one already processed
//! is dropped and counted in `late_events_dropped` by whichever entry
//! point sees it first — an engine, a `MultiEngine`, a registry, the shard
//! router or an adaptive wrapper — in release builds as in debug ones.
//! A dropped event counts in no other field, `events_processed` included.
//! Every entry point then answers as the naive oracle does on the same
//! stream with its late events left out: each test runs its compositions
//! through `cep::conformance::check`.

use cep::adaptive::PlanReplanner;
use cep::conformance::{
    build_late_stream, build_pattern, check, check_config, eager, skewed_replanner, split_late,
    standard_backends, Composition, Entry, PatternSpec, Replan, Route, SeededBackend,
};
use cep::core::compile::CompiledPattern;
use cep::core::event::{Event, TypeId};
use cep::core::naive::NaiveEngine;
use cep::core::partition::partition_local_on;
use cep::core::pattern::{Pattern, PatternBuilder, PatternExpr};
use cep::core::predicate::{CmpOp, Predicate};
use cep::core::selection::SelectionStrategy;
use cep::core::stream::EventStream;
use cep::core::value::Value;
use cep::optimizer::{OrderAlgorithm, TreeAlgorithm};
use cep::Backend;
use proptest::prelude::*;
use std::sync::Arc;

const WINDOW: u64 = 12;

/// `SEQ(a, b, c)` over types 0, 1, 2 with `a.0 == b.0 AND b.0 == c.0`, so
/// hashing attribute 0 shards it exactly.
fn pattern() -> Pattern {
    let mut b = PatternBuilder::new(WINDOW);
    let a = b.event(TypeId(0), "a");
    let m = b.event(TypeId(1), "b");
    let c = b.event(TypeId(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, m.pos(), 0));
    b.predicate(Predicate::attr_cmp(m.pos(), 0, CmpOp::Eq, c.pos(), 0));
    b.seq([a, m, c]).unwrap()
}

/// Types cycle 0, 1, 2, 3 (type 3 is no element's, so a fragment of the
/// pattern never sees it and its watermark lags); keys alternate in
/// pairs. Every seventh event arrives up to five ms behind the stream's
/// clock, so some are late and some, landing on a tie, are not.
fn stream() -> EventStream {
    let mut ts = 0u64;
    (0..96u64)
        .map(|i| {
            ts += i % 3;
            let at = if i % 7 == 6 {
                ts.saturating_sub(i % 6)
            } else {
                ts
            };
            let mut e = Event::new(
                TypeId((i % 4) as u32),
                at,
                vec![Value::Int((i / 4 % 2) as i64)],
            );
            e.seq = i;
            Arc::new(e)
        })
        .collect()
}

/// Plans with DP-LD or ZStream-Ord from skewed bootstrap rates.
const PLANNED: [fn(&[CompiledPattern]) -> PlanReplanner; 2] = [
    |b| skewed_replanner(b, Backend::Nfa(OrderAlgorithm::DpLd)),
    |b| skewed_replanner(b, Backend::Tree(TreeAlgorithm::ZStreamOrd)),
];

/// `SEQ(b, c)` over types 1 and 2 with `b.0 == c.0`: a second query for
/// the registries, keyed on attribute 0 like the routes they run under.
fn other_query(window: u64) -> Pattern {
    let mut b = PatternBuilder::new(window);
    let (m, c) = (b.event(TypeId(1), "b"), b.event(TypeId(2), "c"));
    b.predicate(Predicate::attr_cmp(m.pos(), 0, CmpOp::Eq, c.pos(), 0));
    b.seq([m, c]).unwrap()
}

/// Every composition of `pattern` in the matrix: the bare engine, a
/// `MultiEngine`, a registry, the adaptive wrapper under forced swaps and
/// under a DP-LD replanner, and each shard entry point at 1 and 2 shards
/// under `route`. The registries also hold a copy of the pattern and
/// [`other_query`].
fn compositions(pattern: &Pattern, route: Route, collect: bool) -> Vec<Composition> {
    let window = pattern.window;
    let others = vec![pattern.clone(), other_query(window)];
    let config = eager(window);
    let adaptive = |replan| Composition::Adaptive {
        replan,
        config: eager(window),
    };
    let replanner = PLANNED[0];
    let entries = [
        Entry::Run,
        Entry::RunQuery,
        Entry::RunRegistry {
            others: others.clone(),
        },
        Entry::RunAdaptive { replanner, config },
    ];
    let sharded = (1..=2).flat_map(|n| {
        entries
            .clone()
            .map(|e| Composition::sharded(n, route, e, collect))
    });
    let wrapped = [
        Composition::Bare,
        Composition::Multi,
        Composition::Registry { others },
        adaptive(Replan::Forced { history_ms: 0 }),
        adaptive(Replan::Planned(replanner)),
    ];
    wrapped.into_iter().chain(sharded).collect()
}

/// The naive engine as a backend: late events reach it as they reach any
/// other engine.
fn naive() -> SeededBackend {
    SeededBackend::new("naive", |cp, _, cfg| {
        Box::new(NaiveEngine::new(cp.clone(), cfg.clone()))
    })
}

#[test]
fn every_entry_point_drops_and_counts_late_events() {
    let (pattern, stream) = (pattern(), stream());
    let (_, late) = split_late(&stream);
    assert!(late >= 5, "the fixture has late events ({late})");
    let any = SelectionStrategy::SkipTillAnyMatch;
    for backend in std::iter::once(naive()).chain(standard_backends()) {
        for seed in 0..3 {
            for c in compositions(&pattern, Route::HashAttr(0), true) {
                let checked = check(&c, &backend, seed, &check_config(), any, &pattern, &stream);
                assert!(checked.matches >= 5, "the fixture has matches");
                if let Composition::Adaptive { .. } = c {
                    assert!(checked.metrics.plan_swaps >= 1, "{c:?} swaps plans");
                }
            }
        }
    }
}

proptest! {
    /// Drawn patterns over drawn streams with late events, through every
    /// composition, backend and exact strategy (an adaptive one may replan
    /// with DP-LD, ZStream-Ord or forced swaps). A drawn pattern may join
    /// its positive elements on attribute 0 and may turn its second and
    /// third elements into an `OR`. Sharded runs hash attribute 0 where
    /// that is exact for the pattern, and replicate joins elsewhere.
    #[test]
    fn drawn_out_of_order_streams_agree_with_the_oracle_everywhere(
        elements in prop::collection::vec((0u32..4, 0u8..4), 1..5),
        predicates in prop::collection::vec((0usize..4, 0usize..4, 0u8..4), 0..3),
        flags in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        tree_planned in any::<bool>(),
        window in 2u64..8,
        raw in prop::collection::vec((0u32..5, 0u8..4, 0i8..3, 0u8..8), 0..40),
        composition_idx in 0usize..13,
        backend_idx in 0usize..3,
        strategy_idx in 0usize..3,
        seed in 0u64..4,
    ) {
        let (is_seq, keyed, disjoin, collect) = flags;
        let spec = PatternSpec {
            is_seq,
            // Flags 0 plain, 1 negated, 2 Kleene; 3 reads as plain.
            elements: elements.into_iter().map(|(t, f)| (t, f % 3)).collect(),
            predicates,
            filters: vec![],
            window,
        };
        let Some(mut pattern) = build_pattern(&spec) else { return Ok(()) };
        if keyed {
            let positive: Vec<_> = pattern.primitives().into_iter().filter(|p| !p.negated).collect();
            for w in positive.windows(2) {
                let eq = Predicate::attr_cmp(w[0].position, 0, CmpOp::Eq, w[1].position, 0);
                pattern.predicates.push(eq);
            }
        }
        if let (true, PatternExpr::Seq(children) | PatternExpr::And(children)) = (disjoin, &mut pattern.expr) {
            if children.len() >= 3 {
                let pair = children.drain(1..3).collect();
                children.insert(1, PatternExpr::Or(pair));
            }
        }
        let Ok(branches) = CompiledPattern::compile(&pattern) else { return Ok(()) };
        let route = match partition_local_on(&branches, 0) {
            Ok(()) => Route::HashAttr(0),
            Err(_) => Route::ReplicateJoin,
        };
        let mut c = compositions(&pattern, route, collect).swap_remove(composition_idx);
        if let (true, Composition::Adaptive { replan: replan @ Replan::Planned(_), .. }) =
            (tree_planned, &mut c)
        {
            *replan = Replan::Planned(PLANNED[1]);
        }
        let strategy = [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ][strategy_idx];
        let backend = &standard_backends()[backend_idx];
        check(&c, backend, seed, &check_config(), strategy, &pattern, &build_late_stream(&raw));
    }
}
