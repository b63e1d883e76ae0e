//! Window-expiration correctness under adversarial timestamp ties.
//!
//! Random streams are drawn with zero inter-arrival deltas allowed, so
//! runs of equal timestamps pile up exactly at window boundaries — the
//! regime where an off-by-one in the expiration rule (`ts + window <
//! watermark`, boundary events survive) flips match sets. Each case
//! holds the delta engine to the naive oracle through
//! `cep::conformance::check` (signatures, `last_ts` *and* `emitted_at`),
//! and checks that expired events are *actually evicted*: the engine's
//! peak live-event count must equal an independently simulated bound,
//! catching the unbounded-growth failure mode where matches stay correct
//! but the index silently retains the whole stream.

use cep::conformance::{check, standard_backends, Checked, Composition};
use cep::core::engine::EngineConfig;
use cep::core::event::{Event, EventRef, TypeId};
use cep::core::pattern::{Pattern, PatternBuilder};
use cep::core::predicate::{CmpOp, Predicate};
use cep::core::selection::SelectionStrategy;
use cep::core::stream::{EventStream, StreamBuilder};
use cep::core::value::Value;
use proptest::prelude::*;

/// [`check`] of the bare delta engine.
fn delta(pattern: &Pattern, stream: &EventStream, cfg: &EngineConfig) -> Checked {
    let (bare, any) = (Composition::Bare, SelectionStrategy::SkipTillAnyMatch);
    check(&bare, &standard_backends()[2], 0, cfg, any, pattern, stream)
}

/// Builds a tie-heavy stream: `dt` is taken modulo 3, so about a third of
/// consecutive events share a timestamp.
fn tie_stream(raw: &[(u32, u8, i8)]) -> Vec<EventRef> {
    let mut sb = StreamBuilder::new();
    let mut ts = 0u64;
    for &(tid, dt, x) in raw {
        ts += (dt % 3) as u64;
        sb.push(Event::new(TypeId(tid % 3), ts, vec![Value::Int(x as i64)]));
    }
    sb.build()
}

/// Independently simulates the oracle's retention rule over the stream:
/// the maximum number of simultaneously live events of the given positive
/// types, sampled after each relevant arrival (exactly when the engine
/// samples `record_live`).
fn simulated_peak(stream: &[EventRef], positive_types: &[u32], window: u64) -> usize {
    let mut live: Vec<u64> = Vec::new();
    let mut watermark = 0u64;
    let mut peak = 0usize;
    for e in stream {
        watermark = watermark.max(e.ts);
        live.retain(|&ts| ts + window >= watermark);
        if positive_types.contains(&e.type_id.0) {
            live.push(e.ts);
            peak = peak.max(live.len());
        }
    }
    peak
}

fn seq_eq_pattern(window: u64) -> Pattern {
    let mut b = PatternBuilder::new(window);
    let a = b.event(TypeId(0), "a");
    let c = b.event(TypeId(1), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
    b.seq([a, c]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
    })]

    #[test]
    fn expiry_is_byte_identical_and_evicts(
        raw in prop::collection::vec((0u32..3, 0u8..3, 0i8..3), 10..=60),
        window in 1u64..6,
    ) {
        let stream = tie_stream(&raw);
        let m = delta(&seq_eq_pattern(window), &stream, &EngineConfig::default()).metrics;
        // Eviction actually happened: the engine's peak equals the
        // simulated retention bound (type 2 is stream noise — it
        // advances the watermark but is never stored).
        let bound = simulated_peak(&stream, &[0, 1], window);
        prop_assert_eq!(
            m.peak_buffered_events, bound,
            "index retention diverged from the window rule (peak {} vs bound {})",
            m.peak_buffered_events, bound
        );
        prop_assert_eq!(m.partial_matches_created, 0);
    }

    #[test]
    fn expiry_with_negation_is_byte_identical(
        raw in prop::collection::vec((0u32..3, 0u8..3, 0i8..3), 10..=50),
        window in 1u64..6,
    ) {
        // SEQ(A a, NOT B nb, C c): the negation buffer must prune in
        // lockstep with the index, or tie-boundary violators are kept or
        // dropped one event too long and admission flips.
        let mut b = PatternBuilder::new(window);
        let a = b.event(TypeId(0), "a");
        let nb = b.event(TypeId(2), "nb");
        let c = b.event(TypeId(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, nb.pos(), 0));
        let ae = b.expr(a);
        let ne = b.not(nb);
        let ce = b.expr(c);
        let p = b.seq_exprs([ae, ne, ce]).unwrap();
        delta(&p, &tie_stream(&raw), &EngineConfig::default());
    }

    #[test]
    fn expiry_with_kleene_ties_is_byte_identical(
        raw in prop::collection::vec((0u32..3, 0u8..2, 0i8..2), 8..=30),
        window in 1u64..5,
    ) {
        // SEQ(A a, KL(B) k): zero deltas make whole Kleene accumulators
        // straddle window boundaries.
        let mut b = PatternBuilder::new(window);
        let a = b.event(TypeId(0), "a");
        let k = b.event(TypeId(1), "k");
        let ae = b.expr(a);
        let ke = b.kleene(k);
        let p = b.seq_exprs([ae, ke]).unwrap();
        let cfg = EngineConfig { max_kleene_events: 4, ..Default::default() };
        delta(&p, &tie_stream(&raw), &cfg);
    }
}

/// Deterministic boundary fixture: events exactly at `ts + window ==
/// watermark` must survive (they are still joinable), one tick further
/// must not.
#[test]
fn boundary_event_survives_exactly_to_the_window_edge() {
    let mut sb = StreamBuilder::new();
    sb.push(Event::new(TypeId(0), 0, vec![Value::Int(1)]));
    // Exactly at the edge: 0 + 5 == 5 → still live, match expected.
    sb.push(Event::new(TypeId(1), 5, vec![Value::Int(1)]));
    // One past the edge relative to the first event: no second match.
    sb.push(Event::new(TypeId(1), 6, vec![Value::Int(1)]));
    let checked = delta(&seq_eq_pattern(5), &sb.build(), &EngineConfig::default());
    assert_eq!(checked.matches, 1, "only the edge event pairs up");
}
