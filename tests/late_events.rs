//! Late events: an event whose timestamp is below one already processed
//! is dropped and counted in `late_events_dropped` by whichever entry
//! point sees it first — an engine, a `MultiEngine`, a registry, the shard
//! router or an adaptive wrapper — in release builds as in debug ones.
//! A dropped event counts in no other field, `events_processed` included.
//! Every entry point then answers as the naive oracle does on the same
//! stream with its late events left out.

use cep::adaptive::{AdaptiveConfig, AdaptiveEngine, PlanReplanner};
use cep::conformance::{keyed, standard_backends, MatchKey};
use cep::core::compile::CompiledPattern;
use cep::core::compiled::PredicateProgram;
use cep::core::engine::{run_to_completion, Engine, EngineConfig, MultiEngine};
use cep::core::event::{Event, TypeId};
use cep::core::matches::Match;
use cep::core::metrics::EngineMetrics;
use cep::core::naive::NaiveEngine;
use cep::core::pattern::{Pattern, PatternBuilder};
use cep::core::predicate::{CmpOp, Predicate};
use cep::core::registry::{FragmentBuilder, QueryRegistry};
use cep::core::stats::MeasuredStats;
use cep::core::stream::EventStream;
use cep::core::value::Value;
use cep::nfa::NfaEngine;
use cep::optimizer::planner::Planner;
use cep::optimizer::OrderAlgorithm;
use cep::shard::{RoutingPolicy, ShardedRuntime};
use cep::Backend;
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

/// The stream's late events: those below the largest timestamp before
/// them.
fn late_count(stream: &EventStream) -> u64 {
    let mut watermark = 0;
    let mut late = 0;
    for e in stream {
        if e.ts < watermark {
            late += 1;
        }
        watermark = watermark.max(e.ts);
    }
    late
}

/// What a run answers: its matches, and the events it dropped as late and
/// the ones it processed.
type Answer = (Vec<MatchKey>, u64, u64);

fn answer(matches: &[Match], metrics: &EngineMetrics) -> Answer {
    let counts = (metrics.late_events_dropped, metrics.events_processed);
    (keyed(matches), counts.0, counts.1)
}

fn run(engine: &mut dyn Engine, stream: &EventStream) -> Answer {
    let result = run_to_completion(engine, stream, true);
    answer(&result.matches, &result.metrics)
}

/// The oracle's answer: the naive engine's matches over the stream
/// without its late events.
fn expected(cp: &CompiledPattern, stream: &EventStream) -> Vec<MatchKey> {
    let mut watermark = 0;
    let in_order: EventStream = stream
        .iter()
        .filter(|e| {
            let keep = e.ts >= watermark;
            watermark = watermark.max(e.ts);
            keep
        })
        .cloned()
        .collect();
    let mut naive = NaiveEngine::new(cp.clone(), EngineConfig::default());
    run(&mut naive, &in_order).0
}

#[test]
fn every_entry_point_drops_and_counts_late_events() {
    let pattern = pattern();
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let stream = stream();
    let late = late_count(&stream);
    let matches = expected(&cp, &stream);
    assert!(late >= 5, "the fixture has late events ({late})");
    assert!(
        matches.len() >= 5,
        "the fixture has matches ({})",
        matches.len()
    );
    let want = (matches, late, stream.len() as u64 - late);
    let cfg = EngineConfig::default();

    let mut naive = NaiveEngine::new(cp.clone(), cfg.clone());
    assert_eq!(run(&mut naive, &stream), want, "naive");

    let backends = standard_backends();
    for backend in &backends {
        for seed in 0..3 {
            let mut engine = backend.build(&cp, seed, &cfg);
            let got = run(engine.as_mut(), &stream);
            assert_eq!(got, want, "{}(seed {seed})", backend.name);
        }
    }

    // Two branches of one pattern: the wrapper drops a late event once,
    // not once per branch, and dedups the shared matches.
    let branches = backends.iter().map(|b| b.build(&cp, 1, &cfg)).collect();
    let mut multi = MultiEngine::new(branches, WINDOW);
    assert_eq!(run(&mut multi, &stream), want, "multi");

    // A one-query registry drops against its own watermark: the type-3
    // events advance it, not the fragment's.
    let nfa = Arc::new(backends.into_iter().next().unwrap());
    let fcfg = cfg.clone();
    let builder: Arc<dyn FragmentBuilder> =
        Arc::new(move |cp: &CompiledPattern, _: Arc<PredicateProgram>| Ok(nfa.build(cp, 0, &fcfg)));
    let mut registry = QueryRegistry::new(builder);
    let id = registry.register(&pattern).unwrap();
    let result = registry.run(&stream);
    let got = answer(&result.per_query[&id], &result.metrics);
    assert_eq!(got, want, "registry");

    // The shard router drops against the whole stream's watermark, before
    // routing.
    let factory_cp = cp.clone();
    let factory = move || -> Box<dyn Engine> {
        Box::new(NfaEngine::with_trivial_plan(
            factory_cp.clone(),
            EngineConfig::default(),
        ))
    };
    for shards in [1, 2] {
        let result = ShardedRuntime::with_shards(shards).run(
            &factory,
            &stream,
            RoutingPolicy::HashAttr(0),
            true,
        );
        let got = answer(&result.matches, &result.metrics);
        assert_eq!(got, want, "{shards} shards");
    }

    // The adaptive wrapper drops before its event window. Its initial
    // plan is built for skewed rates, so the even ones it sees make it
    // swap plans and replay its window into the new engine.
    let mut skewed = MeasuredStats::default();
    for (ty, rate) in [(0, 5.0), (1, 1.0), (2, 0.01)] {
        skewed.set_rate(TypeId(ty), rate);
    }
    let replanner = PlanReplanner::new(
        vec![(cp.clone(), vec![0.5; cp.predicates.len()])],
        &skewed,
        Planner::default(),
        Backend::Nfa(OrderAlgorithm::DpLd),
        cfg.clone(),
    )
    .unwrap();
    let mut adaptive = AdaptiveEngine::new(
        replanner,
        WINDOW,
        AdaptiveConfig {
            horizon_ms: WINDOW,
            drift_threshold: 1e-6,
            check_every: 4,
            cooldown_events: 0,
            ..AdaptiveConfig::default()
        },
    );
    assert_eq!(run(&mut adaptive, &stream), want, "adaptive");
    assert!(adaptive.swaps() >= 1, "the adaptive run swaps plans");
}
