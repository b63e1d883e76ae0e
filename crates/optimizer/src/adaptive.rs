//! Lightweight adaptivity hooks (Section 6.3).
//!
//! The paper defers full adaptive CEP to its companion work \[27\]; what plan
//! generation needs from the runtime is (a) fresh arrival-rate estimates
//! and (b) a signal that the statistics have drifted far enough from the
//! ones the current plan was built with. [`StatsMonitor`] provides both
//! over a sliding horizon; callers re-plan when [`StatsMonitor::drifted`]
//! fires (see the `adaptive_replanning` example in the repository root).
//!
//! The monitor keeps the events themselves in an [`EventWindow`], which it
//! can be asked to keep for longer than its horizon
//! ([`StatsMonitor::retaining`]): an adaptive engine reads its replay
//! window and its selectivity sample from that one buffer.
//!
//! Rates are only half of the cost model, though: plan choice is equally
//! driven by predicate *selectivities*, and a stream whose correlations
//! shift while its rates stay flat leaves `StatsMonitor` blind.
//! [`SelectivityMonitor`] covers that axis — it re-estimates per-predicate
//! pass rates by pair sampling over the last horizon of an [`EventWindow`]
//! (with [`cep_core::stats::SelectivitySampler`], the sampler of the
//! offline [`cep_core::stats::estimate_selectivities`]), and reports drift
//! against the selectivities the active plan was built with.

use cep_core::compile::CompiledPattern;
use cep_core::event::{EventRef, Timestamp, TypeId};
use cep_core::stats::SelectivitySampler;
use std::collections::vec_deque::{Drain, Iter};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// The events of the last `span_ms` of a ts-ordered stream, in arrival
/// order: every event with `ts ≥ watermark − span_ms`, where the watermark
/// is the largest timestamp pushed so far.
///
/// Events are addressed by *stream index* (the number of events pushed
/// before them), which stays valid while the front is evicted.
#[derive(Debug, Clone)]
pub struct EventWindow {
    events: VecDeque<EventRef>,
    span_ms: u64,
    watermark: Timestamp,
    /// Stream index of `events[0]`: the number of events evicted so far.
    first: u64,
}

impl EventWindow {
    /// An empty window keeping `span_ms` of history.
    pub fn new(span_ms: u64) -> EventWindow {
        EventWindow {
            events: VecDeque::new(),
            span_ms,
            watermark: 0,
            first: 0,
        }
    }

    /// Appends `e` and evicts the events that fell out of the span, which
    /// the returned drain yields oldest first (dropping it discards them).
    pub fn push(&mut self, e: &EventRef) -> Drain<'_, EventRef> {
        self.append(e);
        self.evict(u64::MAX)
    }

    fn append(&mut self, e: &EventRef) {
        self.watermark = self.watermark.max(e.ts);
        self.events.push_back(EventRef::clone(e));
    }

    /// Evicts leading events older than the span, but none at or after
    /// stream index `before`.
    fn evict(&mut self, before: u64) -> Drain<'_, EventRef> {
        let from = self.watermark.saturating_sub(self.span_ms);
        let n = self
            .events
            .iter()
            .zip(self.first..before)
            .take_while(|(e, _)| e.ts < from)
            .count();
        self.first += n as u64;
        self.events.drain(..n)
    }

    /// The largest timestamp pushed so far (0 before the first push).
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Stream index of the oldest held event.
    pub fn first_index(&self) -> u64 {
        self.first
    }

    /// Events ever pushed: the stream index the next push gets. Every push
    /// changes it, so it stamps the window's contents.
    pub fn pushed(&self) -> u64 {
        self.first + self.events.len() as u64
    }

    /// The event at stream index `index`, if still held.
    pub fn get(&self, index: u64) -> Option<&EventRef> {
        let i = index.checked_sub(self.first)?;
        self.events.get(usize::try_from(i).ok()?)
    }

    /// Held events, oldest first.
    pub fn iter(&self) -> Iter<'_, EventRef> {
        self.events.iter()
    }

    /// Held events with `ts ≥ from`: a suffix, because the window is
    /// ts-ordered.
    pub fn since(&self, from: Timestamp) -> Iter<'_, EventRef> {
        let start = self.events.partition_point(|e| e.ts < from);
        self.events.range(start..)
    }
}

/// Multiplicative (Fibonacci) hashing of a [`TypeId`]: one multiply per
/// lookup instead of SipHash rounds, for the per-event count update. Type
/// ids are catalog indices the program assigns, not keys an outside party
/// picks, so the map needs no collision-attack resistance.
#[derive(Default)]
struct TypeIdHasher(u64);

impl Hasher for TypeIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Sliding-horizon arrival-rate monitor with drift detection.
///
/// The events themselves live in the monitor's [`EventWindow`]; the rate
/// counts cover its last `horizon_ms`, from a cursor that advances as the
/// watermark does.
#[derive(Debug, Clone)]
pub struct StatsMonitor {
    horizon_ms: u64,
    threshold: f64,
    window: EventWindow,
    /// Stream index of the first event inside the horizon.
    horizon_start: u64,
    /// Events per type inside the horizon; types at zero are removed.
    counts: HashMap<TypeId, u64, BuildHasherDefault<TypeIdHasher>>,
    baseline: HashMap<TypeId, f64>,
}

impl StatsMonitor {
    /// Creates a monitor keeping `horizon_ms` of history; `threshold` is
    /// the relative rate deviation that counts as drift (e.g. 0.5 = ±50%).
    pub fn new(horizon_ms: u64, threshold: f64) -> StatsMonitor {
        assert!(horizon_ms > 0, "horizon must be positive");
        assert!(threshold > 0.0, "threshold must be positive");
        StatsMonitor {
            horizon_ms,
            threshold,
            window: EventWindow::new(horizon_ms),
            horizon_start: 0,
            counts: HashMap::default(),
            baseline: HashMap::new(),
        }
    }

    /// Keeps `span_ms` of events in [`Self::window`] (never less than the
    /// horizon), for callers that read more history than the rates do.
    pub fn retaining(mut self, span_ms: u64) -> StatsMonitor {
        self.window.span_ms = span_ms.max(self.horizon_ms);
        self
    }

    /// Feeds one stream event. Returns the events that left the window,
    /// oldest first.
    pub fn observe(&mut self, e: &EventRef) -> Drain<'_, EventRef> {
        self.window.append(e);
        *self.counts.entry(e.type_id).or_insert(0) += 1;
        let horizon_from = self.window.watermark.saturating_sub(self.horizon_ms);
        while let Some(old) = self
            .window
            .get(self.horizon_start)
            .filter(|old| old.ts < horizon_from)
        {
            // Drop entries that reach zero so `counts` only holds types
            // alive inside the horizon: `rates()` / `drifted()` stay
            // proportional to the live type set instead of scanning every
            // type id ever observed.
            if let Some(c) = self.counts.get_mut(&old.type_id) {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&old.type_id);
                }
            }
            self.horizon_start += 1;
        }
        self.window.evict(self.horizon_start)
    }

    /// The retained events: the horizon, or the longer span set by
    /// [`Self::retaining`].
    pub fn window(&self) -> &EventWindow {
        &self.window
    }

    /// Current rate estimate for a type, in events per millisecond.
    pub fn rate(&self, ty: TypeId) -> f64 {
        let span = self.horizon_ms.min(self.window.watermark.max(1)).max(1) as f64;
        *self.counts.get(&ty).unwrap_or(&0) as f64 / span
    }

    /// Snapshot of all current rates.
    pub fn rates(&self) -> HashMap<TypeId, f64> {
        self.counts.keys().map(|&ty| (ty, self.rate(ty))).collect()
    }

    /// Freezes the current rates as the baseline the active plan was built
    /// with.
    pub fn rebaseline(&mut self) {
        self.baseline = self.rates();
    }

    /// Whether a baseline has been frozen yet. Adaptive runtimes use this
    /// to distinguish "no reference point yet" (calibrate: adopt the
    /// current rates, replan once) from genuine drift.
    pub fn has_baseline(&self) -> bool {
        !self.baseline.is_empty()
    }

    /// Whether any observed type's rate deviates from the baseline by more
    /// than the threshold (relative). Types absent from the baseline count
    /// as drifted once seen, and a type whose rate collapsed to zero from a
    /// positive baseline (its last event slid out of the horizon) counts as
    /// drifted regardless of the threshold — a rate of 0 invalidates any
    /// plan ordered around that type being present.
    pub fn drifted(&self) -> bool {
        for &ty in self.counts.keys() {
            let now = self.rate(ty);
            match self.baseline.get(&ty) {
                Some(&base) if base > 0.0 => {
                    if (now - base).abs() / base > self.threshold {
                        return true;
                    }
                }
                Some(_) | None => {
                    if now > 0.0 && !self.baseline.contains_key(&ty) {
                        return true;
                    }
                }
            }
        }
        // Types that vanished entirely: present in the baseline with a
        // positive rate but no longer in `counts` (eviction removed them).
        self.baseline
            .iter()
            .any(|(ty, &base)| base > 0.0 && !self.counts.contains_key(ty))
    }

    /// Replicate-join partition spec for a sharded deployment of `branches`,
    /// derived from this monitor's *live* rate estimates
    /// ([`cep_core::partition::QueryPartitioner::analyze`]): the
    /// highest-rate key component stays partitioned, the low-rate
    /// remainder is replicated. Re-derive after drift to let the
    /// replicated side follow the rates.
    pub fn partition_spec(
        &self,
        branches: &[CompiledPattern],
    ) -> Result<cep_core::partition::PartitionSpec, cep_core::error::CepError> {
        cep_core::partition::QueryPartitioner::analyze(branches, |ty| self.rate(ty))
    }
}

/// Relative-deviation floor for selectivity drift: deviations are measured
/// against `max(baseline, floor)` so near-zero baselines do not turn
/// sampling noise into infinite relative drift.
const SELECTIVITY_FLOOR: f64 = 0.05;

/// Default number of retained relevant events before drift may fire;
/// pair-sampled estimates over fewer events are too noisy to act on.
const DEFAULT_MIN_EVENTS: usize = 64;

/// Sliding-horizon predicate-selectivity monitor with drift detection —
/// the selectivity sibling of [`StatsMonitor`].
///
/// The monitor holds no events: it estimates each predicate's selectivity
/// from the last `horizon_ms` of an [`EventWindow`] the caller keeps,
/// striding sampled event pairs through it with the same
/// [`SelectivitySampler`] as the offline
/// [`cep_core::stats::estimate_selectivities`] bootstrap. Its baseline
/// starts as the selectivities the initial plan was built with, so drift
/// is always "relative to what the active plan assumes".
#[derive(Debug, Clone)]
pub struct SelectivityMonitor {
    sampler: SelectivitySampler,
    horizon_ms: u64,
    threshold: f64,
    min_events: usize,
    baseline: Vec<f64>,
    samples: u64,
}

impl SelectivityMonitor {
    /// Creates a monitor for one compiled pattern. `initial` is the
    /// per-predicate selectivity vector the current plan was built with
    /// (the starting baseline); `threshold` is the relative deviation that
    /// counts as drift (e.g. 0.5 = ±50%); `max_pairs` bounds the sampling
    /// work per estimate.
    pub fn new(
        cp: CompiledPattern,
        initial: Vec<f64>,
        horizon_ms: u64,
        threshold: f64,
        max_pairs: usize,
    ) -> SelectivityMonitor {
        assert!(horizon_ms > 0, "horizon must be positive");
        assert!(threshold > 0.0, "threshold must be positive");
        assert_eq!(
            initial.len(),
            cp.predicates.len(),
            "one baseline selectivity per predicate"
        );
        SelectivityMonitor {
            sampler: SelectivitySampler::new(&cp, max_pairs.max(1)),
            horizon_ms,
            threshold,
            min_events: DEFAULT_MIN_EVENTS,
            baseline: initial,
            samples: 0,
        }
    }

    /// Overrides the minimum number of relevant events inside the horizon
    /// before [`Self::estimates`] are produced and [`Self::drifted`] may
    /// fire (default 64). Tests use small values.
    pub fn with_min_events(mut self, min_events: usize) -> SelectivityMonitor {
        self.min_events = min_events;
        self
    }

    /// How much history, in stream milliseconds, the monitor reads from a
    /// window.
    pub fn horizon_ms(&self) -> u64 {
        self.horizon_ms
    }

    /// Counts one stream event as a sample when the pattern references its
    /// type.
    pub fn observe(&mut self, e: &EventRef) {
        if self.sampler.uses_type(e.type_id) {
            self.samples += 1;
        }
    }

    /// The events of `window` inside the horizon.
    fn horizon<'a>(&self, window: &'a EventWindow) -> Iter<'a, EventRef> {
        window.since(window.watermark().saturating_sub(self.horizon_ms))
    }

    /// Fresh per-predicate selectivity estimates over the horizon of
    /// `window`, or `None` before the monitor is
    /// [warmed up](Self::warmed_up). Predicates whose types have no events
    /// there default to 1.0, mirroring the offline estimator.
    pub fn estimates(&self, window: &EventWindow) -> Option<Vec<f64>> {
        self.sampler.estimate(self.horizon(window), self.min_events)
    }

    /// The baseline selectivities the active plan was built with.
    pub fn baseline(&self) -> &[f64] {
        &self.baseline
    }

    /// Total relevant events ever observed (the `selectivity_samples`
    /// metric of adaptive wrappers).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Relevant events of `window` inside the horizon.
    pub fn retained_len(&self, window: &EventWindow) -> usize {
        self.horizon(window)
            .filter(|e| self.sampler.uses_type(e.type_id))
            .count()
    }

    /// Whether enough evidence has accumulated in `window` for
    /// [`Self::drifted`] and [`Self::estimates`] to be meaningful.
    pub fn warmed_up(&self, window: &EventWindow) -> bool {
        self.retained_len(window) >= self.min_events
    }

    /// Adopts estimates over `window` as the new baseline, warmed up or
    /// not, and returns them.
    pub fn rebaseline(&mut self, window: &EventWindow) -> Vec<f64> {
        let fresh = self
            .sampler
            .estimate(self.horizon(window), 0)
            .expect("no minimum sample size");
        self.set_baseline(fresh.clone());
        fresh
    }

    /// Replaces the baseline with selectivities the caller already has —
    /// typically the estimates a replan was just costed with, so the
    /// baseline adopts them without paying for a second sampling pass.
    pub fn set_baseline(&mut self, sels: Vec<f64>) {
        assert_eq!(
            sels.len(),
            self.baseline.len(),
            "one baseline selectivity per predicate"
        );
        self.baseline = sels;
    }

    /// Whether any of `estimates` deviates from the baseline by more than
    /// the threshold, relative to `max(baseline, 0.05)`.
    pub fn deviates(&self, estimates: &[f64]) -> bool {
        estimates
            .iter()
            .zip(&self.baseline)
            .any(|(&now, &base)| (now - base).abs() / base.max(SELECTIVITY_FLOOR) > self.threshold)
    }

    /// Whether the estimates over `window` [deviate](Self::deviates) from
    /// the baseline. Always `false` before the monitor is
    /// [warmed up](Self::warmed_up), and for patterns without predicates.
    pub fn drifted(&self, window: &EventWindow) -> bool {
        !self.baseline.is_empty()
            && self
                .estimates(window)
                .is_some_and(|fresh| self.deviates(&fresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::event::Event;
    use std::sync::Arc;

    fn ev(ty: u32, ts: u64) -> EventRef {
        Arc::new(Event::new(TypeId(ty), ts, vec![]))
    }

    #[test]
    fn rates_track_sliding_horizon() {
        let mut m = StatsMonitor::new(100, 0.5);
        for ts in 0..100u64 {
            m.observe(&ev(0, ts));
        }
        let dense = m.rate(TypeId(0));
        assert!(dense > 0.9, "{dense}");
        // Go quiet: rate must fall as the horizon slides.
        for ts in (200..400u64).step_by(50) {
            m.observe(&ev(1, ts));
        }
        assert!(m.rate(TypeId(0)) < 0.1);
    }

    #[test]
    fn drift_detection_after_rate_change() {
        let mut m = StatsMonitor::new(100, 0.5);
        for ts in 0..100u64 {
            m.observe(&ev(0, ts)); // 1 event/ms
        }
        m.rebaseline();
        assert!(!m.drifted(), "no drift right after rebaseline");
        // Rate collapses to 0.1/ms.
        for ts in (100..300u64).step_by(10) {
            m.observe(&ev(0, ts));
        }
        assert!(m.drifted());
        m.rebaseline();
        assert!(!m.drifted());
    }

    #[test]
    fn new_type_counts_as_drift() {
        let mut m = StatsMonitor::new(100, 0.5);
        for ts in 0..50u64 {
            m.observe(&ev(0, ts));
        }
        m.rebaseline();
        for ts in 50..60u64 {
            m.observe(&ev(7, ts));
        }
        assert!(m.drifted());
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        StatsMonitor::new(0, 0.5);
    }

    #[test]
    fn dead_types_are_evicted_from_counts() {
        let mut m = StatsMonitor::new(100, 0.5);
        for ts in 0..50u64 {
            m.observe(&ev(0, ts));
        }
        assert!(m.rates().contains_key(&TypeId(0)));
        // Slide the horizon entirely past type 0 with a different type.
        for ts in (300..500u64).step_by(25) {
            m.observe(&ev(1, ts));
        }
        let rates = m.rates();
        assert!(
            !rates.contains_key(&TypeId(0)),
            "zero-count type must be evicted, got {rates:?}"
        );
        assert_eq!(m.rate(TypeId(0)), 0.0);
        assert!(rates.contains_key(&TypeId(1)));
    }

    #[test]
    fn rate_collapse_to_zero_counts_as_drift() {
        // Threshold 2.0: the relative check alone would never fire for a
        // rate that merely halves — only the vanished-type rule can.
        let mut m = StatsMonitor::new(100, 2.0);
        for ts in 0..100u64 {
            m.observe(&ev(0, ts));
        }
        m.rebaseline();
        assert!(!m.drifted());
        for ts in (300..500u64).step_by(25) {
            m.observe(&ev(1, ts)); // type 1 is new AND type 0 vanished
        }
        assert!(m.drifted(), "vanished type must register as drift");
        m.rebaseline();
        assert!(!m.drifted(), "rebaseline adopts the new regime");
    }

    #[test]
    fn watermark_ties_keep_boundary_events() {
        let mut m = StatsMonitor::new(10, 0.5);
        m.observe(&ev(0, 0));
        m.observe(&ev(0, 10));
        // horizon_start = 0: the ts-0 event sits exactly on the boundary
        // and must still be counted (eviction is strictly `ts < start`).
        assert_eq!(*m.rates().get(&TypeId(0)).unwrap(), 0.2);
        // A tied watermark (same max ts again) must not evict it either.
        m.observe(&ev(1, 10));
        assert_eq!(*m.rates().get(&TypeId(0)).unwrap(), 0.2);
        // One tick further and the ts-0 event falls out.
        m.observe(&ev(1, 11));
        assert_eq!(*m.rates().get(&TypeId(0)).unwrap(), 0.1);
    }

    #[test]
    fn single_event_horizon() {
        let mut m = StatsMonitor::new(1, 0.5);
        m.observe(&ev(0, 5));
        assert_eq!(m.rate(TypeId(0)), 1.0);
        m.observe(&ev(1, 7));
        // The horizon is one ms: only the newest event survives.
        assert_eq!(m.rate(TypeId(0)), 0.0);
        assert_eq!(m.rate(TypeId(1)), 1.0);
        assert_eq!(m.rates().len(), 1);
    }

    use cep_core::pattern::PatternBuilder;
    use cep_core::predicate::{CmpOp, Predicate};
    use cep_core::value::Value;

    /// `SEQ(T0 a, T1 b)` with `a.x < b.x`.
    fn lt_pattern() -> CompiledPattern {
        let mut b = PatternBuilder::new(1_000);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "b");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap()
    }

    /// Event with distinct stream coordinates (the estimator skips
    /// same-`seq` pairs, so seqs must differ as they do in real streams).
    fn vev(ty: u32, ts: u64, x: i64) -> EventRef {
        let mut e = Event::new(TypeId(ty), ts, vec![Value::Int(x)]);
        e.seq = ts;
        Arc::new(e)
    }

    /// Feeds one event to the monitor and the window it samples.
    fn observe(m: &mut SelectivityMonitor, w: &mut EventWindow, e: EventRef) {
        m.observe(&e);
        w.push(&e);
    }

    /// Interleaved T0/T1 events with the given attribute values.
    fn feed(m: &mut SelectivityMonitor, w: &mut EventWindow, ts0: u64, n: u64, x_a: i64, x_b: i64) {
        for i in 0..n {
            observe(m, w, vev(0, ts0 + 2 * i, x_a));
            observe(m, w, vev(1, ts0 + 2 * i + 1, x_b));
        }
    }

    #[test]
    fn selectivity_monitor_tracks_pass_rate_flip() {
        let cp = lt_pattern();
        // Baseline: the predicate always passes (a.x=1 < b.x=2).
        let mut m = SelectivityMonitor::new(cp, vec![1.0], 500, 0.5, 256).with_min_events(16);
        let mut w = EventWindow::new(500);
        feed(&mut m, &mut w, 0, 100, 1, 2);
        assert!(m.warmed_up(&w));
        let est = m.estimates(&w).unwrap();
        assert!((est[0] - 1.0).abs() < 1e-9, "estimated {est:?}");
        assert!(!m.drifted(&w), "estimates match the baseline");
        // Correlation flips while both rates stay identical: the predicate
        // now never passes, which must register as drift.
        feed(&mut m, &mut w, 1_000, 100, 3, 2);
        assert!((m.estimates(&w).unwrap()[0]).abs() < 1e-9);
        assert!(m.drifted(&w), "pass-rate collapse must count as drift");
        let adopted = m.rebaseline(&w);
        assert!((adopted[0]).abs() < 1e-9);
        assert!(!m.drifted(&w), "rebaseline adopts the new correlation");
    }

    #[test]
    fn selectivity_monitor_is_horizon_bounded_and_counts_samples() {
        let cp = lt_pattern();
        let mut m = SelectivityMonitor::new(cp, vec![0.5], 100, 0.5, 64).with_min_events(8);
        let mut w = EventWindow::new(100);
        feed(&mut m, &mut w, 0, 50, 1, 2);
        // Irrelevant types are ignored entirely.
        observe(&mut m, &mut w, vev(7, 99, 0));
        assert_eq!(m.samples(), 100);
        // Events slide out with the horizon: retained length is bounded.
        feed(&mut m, &mut w, 10_000, 30, 1, 2);
        assert_eq!(m.samples(), 160);
        assert!(
            m.retained_len(&w) <= 102,
            "horizon must bound the buffer, got {}",
            m.retained_len(&w)
        );
    }

    #[test]
    fn selectivity_monitor_needs_warmup_and_predicates() {
        let cp = lt_pattern();
        // Far from warmed up: even a flagrant mismatch must not fire.
        let mut m = SelectivityMonitor::new(cp, vec![1.0], 500, 0.5, 64).with_min_events(1_000);
        let mut w = EventWindow::new(500);
        feed(&mut m, &mut w, 0, 20, 3, 2);
        assert!(!m.drifted(&w), "below min_events the monitor stays quiet");
        // A predicate-free pattern has nothing to drift on.
        let mut b = PatternBuilder::new(100);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "b");
        let plain = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let mut m = SelectivityMonitor::new(plain, vec![], 500, 0.5, 64).with_min_events(1);
        let mut w = EventWindow::new(500);
        feed(&mut m, &mut w, 0, 20, 1, 2);
        assert!(!m.drifted(&w));
        assert!(m.estimates(&w).unwrap().is_empty());
    }

    #[test]
    fn partition_spec_follows_live_rates() {
        use cep_core::partition::TypeDisposition;
        use cep_core::predicate::{CmpOp, Predicate};

        // Two disjoint key components — (T0, T1) and (T2, T3) — so the
        // monitor's live rates decide which side stays partitioned.
        let branch = || {
            let mut b = cep_core::pattern::PatternBuilder::new(100);
            let a = b.event(TypeId(0), "a");
            let bb = b.event(TypeId(1), "b");
            let c = b.event(TypeId(2), "c");
            let d = b.event(TypeId(3), "d");
            b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
            b.predicate(Predicate::attr_cmp(c.pos(), 0, CmpOp::Eq, d.pos(), 0));
            CompiledPattern::compile_single(&b.seq([a, bb, c, d]).unwrap()).unwrap()
        };
        let mut m = StatsMonitor::new(1_000, 0.5);
        for ts in 0..500u64 {
            m.observe(&ev(0, ts));
            m.observe(&ev(1, ts));
            if ts % 50 == 0 {
                m.observe(&ev(2, ts));
                m.observe(&ev(3, ts));
            }
        }
        let spec = m.partition_spec(&[branch()]).unwrap();
        assert_eq!(
            spec.disposition(TypeId(0)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
        assert_eq!(
            spec.disposition(TypeId(2)),
            Some(TypeDisposition::Replicated),
            "the low-rate component is the replicated side"
        );
        // Flip the rates: the spec follows.
        for ts in 1_500..2_000u64 {
            m.observe(&ev(2, ts));
            m.observe(&ev(3, ts));
            if ts % 50 == 0 {
                m.observe(&ev(0, ts));
                m.observe(&ev(1, ts));
            }
        }
        let spec = m.partition_spec(&[branch()]).unwrap();
        assert_eq!(
            spec.disposition(TypeId(0)),
            Some(TypeDisposition::Replicated)
        );
        assert_eq!(
            spec.disposition(TypeId(2)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
    }

    #[test]
    fn rebaseline_after_quiet_restarts_detection() {
        let mut m = StatsMonitor::new(100, 0.5);
        for ts in 0..100u64 {
            m.observe(&ev(0, ts));
        }
        m.rebaseline();
        // Quiet period: everything slides out.
        for ts in (500..700u64).step_by(50) {
            m.observe(&ev(1, ts));
        }
        assert!(m.drifted());
        m.rebaseline();
        assert!(!m.drifted(), "baseline now matches the quiet regime");
        // The old type coming back is drift again relative to the quiet
        // baseline (type 0 is no longer in the rebaselined map).
        for ts in 700..750u64 {
            m.observe(&ev(0, ts));
        }
        assert!(m.drifted());
    }
}
