//! Engine runtime metrics: the measurement side of Section 7.2.
//!
//! Every [`EngineMetrics`] field is one row of the table at the bottom of
//! this module: name, type, doc, Prometheus help text and a [`Combine`]
//! kind. The struct, [`merge`](EngineMetrics::merge),
//! [`absorb`](EngineMetrics::absorb),
//! [`clear_live`](EngineMetrics::clear_live),
//! [`export`](EngineMetrics::export) and [`EngineMetrics::FIELDS`] are all
//! generated from it, so a new field is a one-row change.

use cep_obs::{LatencyHistogram, MetricsRegistry};

/// How an [`EngineMetrics`] field folds when metrics combine, and how it
/// exports.
///
/// | kind | [`merge`](EngineMetrics::merge): parallel shards | [`absorb`](EngineMetrics::absorb): engines sharing a thread | [`clear_live`](EngineMetrics::clear_live) | exported as |
/// |---|---|---|---|---|
/// | `Counter` | sum | sum | kept | counter `cep_<field>_total` |
/// | `Peak` | max | sum | kept | gauge `cep_<field>` |
/// | `Live` | sum | sum | 0 | gauge `cep_<field>` |
/// | `Total` | sum | left alone | kept | counter `cep_<field>_total` |
/// | `Elapsed` | max | left alone | kept | counter `cep_<field>_total` |
/// | `Histogram` | buckets add | buckets add | kept | histogram `cep_<field>` |
///
/// An engine that ran before another on the same thread and is gone (a
/// retired adaptive engine) folds in like a sequential shard:
/// `clear_live`, then `merge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Work done, counted by the engine that did it.
    Counter,
    /// A high-water mark of live state. Shards, and engines that ran one
    /// after another, never hold their peaks at once (max); engines
    /// sharing one thread do (sum).
    Peak,
    /// Live state now; an engine that is gone holds none.
    Live,
    /// A count the driver keeps for the whole unit (`events_processed`):
    /// a wrapper counts it itself, so absorbing a child leaves it alone.
    Total,
    /// Elapsed time the driver measures (`wall_time_ns`): shards overlap
    /// (max), and absorbing a child leaves it alone, as for `Total`.
    Elapsed,
    /// A log₂ histogram.
    Histogram,
}

impl Combine {
    /// Whether fields of this kind export as Prometheus counters (the
    /// rest export as gauges, histograms as histograms).
    fn is_counter(self) -> bool {
        matches!(self, Combine::Counter | Combine::Total | Combine::Elapsed)
    }
}

/// One row of the [`EngineMetrics`] field table, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricField {
    /// The field's name.
    pub name: &'static str,
    /// How the field folds and exports.
    pub combine: Combine,
    /// The exported family's Prometheus help text.
    pub help: &'static str,
}

impl MetricField {
    /// The exported family: `cep_<name>_total` for counters, `cep_<name>`
    /// for gauges and histograms.
    pub fn family(&self) -> String {
        if self.combine.is_counter() {
            format!("cep_{}_total", self.name)
        } else {
            format!("cep_{}", self.name)
        }
    }

    /// Records one scalar sample of this field.
    fn export_scalar(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)], value: u64) {
        if self.combine.is_counter() {
            reg.counter(&self.family(), self.help, labels, value);
        } else {
            reg.gauge(&self.family(), self.help, labels, value as f64);
        }
    }
}

/// Applies one fold to one field: one arm per (fold, kind) rule of the
/// [`Combine`] table. A kind whose rule does not fit the field's type
/// (a peak over a histogram, say) fails to compile.
macro_rules! rule {
    (merge, Peak, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
    (merge, Elapsed, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
    (merge, Histogram, $a:expr, $b:expr) => {
        $a.merge(&$b)
    };
    (merge, $kind:ident, $a:expr, $b:expr) => {
        $a += $b
    };
    (absorb, Total, $a:expr, $b:expr) => {};
    (absorb, Elapsed, $a:expr, $b:expr) => {};
    (absorb, Peak, $a:expr, $b:expr) => {
        $a += $b
    };
    (absorb, $kind:ident, $a:expr, $b:expr) => {
        rule!(merge, $kind, $a, $b)
    };
    (clear_live, Live, $a:expr) => {
        $a = 0
    };
    (clear_live, $kind:ident, $a:expr) => {};
    (export, Histogram, $f:expr, $v:expr, $reg:expr, $labels:expr) => {
        $reg.histogram(&$f.family(), $f.help, $labels, &$v)
    };
    (export, $kind:ident, $f:expr, $v:expr, $reg:expr, $labels:expr) => {
        $f.export_scalar($reg, $labels, $v as u64)
    };
}

/// Generates [`EngineMetrics`] and its folds from the field table.
macro_rules! engine_metrics {
    (
        $(#[$struct_attr:meta])*
        pub struct EngineMetrics {
            $(
                $(#[$attr:meta])*
                $name:ident: $ty:ty = $kind:ident($help:literal),
            )*
        }
    ) => {
        $(#[$struct_attr])*
        pub struct EngineMetrics {
            $( $(#[$attr])* pub $name: $ty, )*
        }

        impl EngineMetrics {
            /// The field table, one row per field in declaration order.
            pub const FIELDS: &'static [MetricField] = &[
                $( MetricField { name: stringify!($name), combine: Combine::$kind, help: $help }, )*
            ];

            /// Merges counters from a *concurrently* executed engine (a
            /// parallel shard) into `self`.
            ///
            /// Contrast with [`absorb`](EngineMetrics::absorb), which
            /// combines engines sharing one thread and therefore *sums*
            /// live/peak state: shards run side by side on disjoint slices
            /// of the stream, so counters and latency sums add, peaks take
            /// the per-shard maximum (the honest per-worker bound — summing
            /// would claim a simultaneous peak that never has to occur),
            /// and wall time takes the maximum (overlapping execution, not
            /// sequential). See [`Combine`] for the rule of each kind.
            pub fn merge(&mut self, other: &EngineMetrics) {
                $( rule!(merge, $kind, self.$name, other.$name); )*
            }

            /// Merges counters from another engine running on the same
            /// thread (a branch of a multi-plan evaluation, a registry
            /// fragment): everything adds, peaks too, except the
            /// driver-owned `events_processed` and `wall_time_ns`, which
            /// stay `self`'s. See [`Combine`].
            pub fn absorb(&mut self, other: &EngineMetrics) {
                $( rule!(absorb, $kind, self.$name, other.$name); )*
            }

            /// Zeroes the live-state gauges ([`Combine::Live`]) and keeps
            /// everything else: the final metrics of an engine that is
            /// gone, ready to fold into a wrapper's view.
            pub fn clear_live(&mut self) {
                $( rule!(clear_live, $kind, self.$name); )*
            }

            /// Writes this snapshot into a [`MetricsRegistry`] under
            /// `labels` (e.g. `[("engine", "adaptive")]` or
            /// `[("shard", "3")]`): one family per field, named by
            /// [`MetricField::family`], plus the derived
            /// `cep_throughput_eps` gauge. Repeated calls with distinct
            /// labels append samples to the same families, so one registry
            /// can hold per-engine and per-shard series side by side.
            pub fn export(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
                let mut fields = Self::FIELDS.iter();
                $(
                    let field = fields.next().expect("a row per field");
                    rule!(export, $kind, field, self.$name, reg, labels);
                )*
                // Derived from two fields, not a field itself.
                reg.gauge(
                    "cep_throughput_eps",
                    "Events per second of engine wall time",
                    labels,
                    self.throughput_eps(),
                );
            }
        }

        /// Every field set to a distinct value: `base + i` for the `i`-th
        /// row (1-based), histograms holding one sample of that value.
        #[cfg(test)]
        fn filled(base: u64) -> EngineMetrics {
            let mut v = base;
            EngineMetrics {
                $( $name: { v += 1; <$ty as tests::Seeded>::seeded(v) }, )*
            }
        }
    };
}

/// Assumed bytes per live partial match (bindings vector + bookkeeping)
/// in the coarse [`EngineMetrics::peak_memory_bytes`] estimate: a fixed
/// guess, not a measured size.
pub const PARTIAL_MATCH_BYTES: usize = 96;
/// Assumed bytes per buffered event (Arc + shared payload share) in the
/// same coarse estimate.
pub const BUFFERED_EVENT_BYTES: usize = 72;

engine_metrics! {
    /// Counters collected by an engine while processing a stream.
    ///
    /// * **Throughput** is primitive events processed per second of engine
    ///   wall time.
    /// * **Memory** is the peak of live partial matches plus buffered
    ///   events, with a coarse byte estimate (a fixed size per object,
    ///   [`PARTIAL_MATCH_BYTES`] and [`BUFFERED_EVENT_BYTES`]). It is not a
    ///   heap measurement: against measured heap bytes it has read from
    ///   under 1 % to about 70 %. It is kept because the benchmark harness
    ///   reads it.
    /// * **Latency** records, per emitted match, the wall time between the
    ///   start of processing of the event that completed the match and its
    ///   emission (deferred emissions add the deferral processing time) —
    ///   as a log₂ histogram
    ///   ([`match_latency_ns`](EngineMetrics::match_latency_ns)) so tail
    ///   percentiles survive aggregation, not just the mean.
    ///
    /// Each field's [`Combine`] kind fixes how it folds and exports; see
    /// [`EngineMetrics::FIELDS`].
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct EngineMetrics {
        /// Total events offered to the engine.
        events_processed: u64 = Total("Events offered to the engine"),
        /// Events of types that participate in the pattern.
        events_relevant: u64 = Counter("Events of pattern-participating types"),
        /// Full matches emitted.
        matches_emitted: u64 = Counter("Full matches emitted"),
        /// Partial matches (instances) ever created.
        partial_matches_created: u64 = Counter("Partial matches ever created"),
        /// Currently live partial matches.
        live_partial_matches: usize = Live("Live partial matches"),
        /// Peak of live partial matches.
        peak_partial_matches: usize = Peak("Peak live partial matches"),
        /// Currently buffered events.
        buffered_events: usize = Live("Buffered events"),
        /// Peak of buffered events.
        peak_buffered_events: usize = Peak("Peak buffered events"),
        /// Peak of the coarse byte estimate of (partial matches + buffers): live counts times
        /// [`PARTIAL_MATCH_BYTES`] and [`BUFFERED_EVENT_BYTES`]. Not a heap measurement; kept
        /// because the benchmark harness reads it.
        peak_memory_bytes: usize = Peak("Peak estimated bytes of partial matches + buffers"),
        /// Predicate evaluations performed.
        predicate_evaluations: u64 = Counter("Predicate evaluations performed"),
        /// Total wall time spent inside the engine, in nanoseconds (set by
        /// [`crate::engine::run_to_completion`]).
        wall_time_ns: u64 = Elapsed("Wall time spent inside the engine (ns)"),
        /// Log₂ histogram of per-event processing time in nanoseconds, sampled (every 8th event) by
        /// [`crate::engine::run_to_completion`] to keep the hot loop cheap.
        event_ns: LatencyHistogram = Histogram("Per-event processing time (ns, sampled)"),
        /// Log₂ histogram of per-match detection latency in nanoseconds; its
        /// [`sum`](LatencyHistogram::sum) is the former `match_latency_ns_total` counter (see
        /// [`match_latency_ns_total`](EngineMetrics::match_latency_ns_total)).
        match_latency_ns: LatencyHistogram = Histogram("Per-match detection latency (ns)"),
        /// Plan swaps performed by an adaptive wrapper (0 for static engines).
        plan_swaps: u64 = Counter("Plan swaps performed by an adaptive wrapper"),
        /// Events re-processed from the retained window and its negated tail across all plan swaps
        /// (the replay cost of adaptivity, in events).
        replayed_events: u64 = Counter("Events re-processed during plan swaps"),
        /// Nanoseconds spent replaying retained events during plan swaps.
        replay_time_ns: u64 = Counter("Time spent replaying retained events during plan swaps (ns)"),
        /// Log₂ histogram of per-swap replay time in nanoseconds (one sample per plan swap; its sum
        /// tracks [`replay_time_ns`](EngineMetrics::replay_time_ns)).
        replay_ns: LatencyHistogram = Histogram("Per-swap replay time (ns)"),
        /// Events currently held in an adaptive wrapper's retained replay window (0 for static
        /// engines).
        retained_events: usize = Live("Events held in an adaptive wrapper's retained replay window"),
        /// Peak of the retained replay window.
        peak_retained_events: usize = Peak("Peak of the retained replay window"),
        /// Events absorbed by an adaptive wrapper's selectivity monitor (0 when selectivity
        /// re-estimation is disabled or for static engines).
        selectivity_samples: u64 = Counter("Events absorbed by an adaptive wrapper's selectivity monitor"),
        /// Plan swaps an adaptive wrapper declined because the predicted savings over the
        /// amortization horizon would not pay for the replay (a cheaper plan existed, but switching
        /// to it was not worth it yet).
        suppressed_swaps: u64 = Counter("Plan swaps declined as not amortizable"),
        /// Extra event deliveries created by replicate-join broadcast routing: each event fanned
        /// out to all `N` shards adds `N − 1` here, so `events_processed == stream length +
        /// replicated_events` for a sharded run (0 for single-shard, non-replicating, or unsharded
        /// runs).
        replicated_events: u64 = Counter("Extra deliveries from replicate-join broadcast routing"),
        /// Duplicate matches suppressed by a sharded merge's signature dedup (a match with no
        /// partitioned event is detected by every shard; all copies beyond the first count here).
        dedup_hits: u64 = Counter("Duplicate matches suppressed by sharded-merge dedup"),
        /// Compiled-plan cache hits: engine builds (or adaptive replans) that reused a
        /// [`crate::compiled::PredicateProgram`] from a [`crate::compiled::PlanCache`] instead of
        /// recompiling (0 when no cache is in play).
        plan_cache_hits: u64 = Counter("Compiled-plan cache hits (program reused without recompiling)"),
        /// Compiled-plan cache misses: engine builds that had to lower the pattern's predicates
        /// from scratch (0 when no cache is in play).
        plan_cache_misses: u64 = Counter("Compiled-plan cache misses (program lowered from scratch)"),
        /// Equality-join probes: posting-list probes of a delta-indexed engine, key-bucket probes
        /// of the NFA/tree engines' join state ([`crate::keyed::KeyedStore`]); 0 when no join step
        /// carries a usable `==` predicate.
        index_probes: u64 = Counter("Equality-join probes (delta posting lists, NFA/tree key buckets)"),
        /// Index list operations (inserts + expirations, across the type store and every posting
        /// list) performed by a delta-indexed engine — the amortized-constant per-event maintenance
        /// work (0 for materializing engines).
        delta_updates: u64 = Counter("Index list inserts + expirations (delta engine)"),
        /// Log₂ histogram of per-event on-demand match-enumeration time in nanoseconds (one sample
        /// per enumerated delta; empty for materializing engines).
        enumeration_ns: LatencyHistogram = Histogram("Per-delta on-demand match-enumeration time (ns)"),
        /// Query registrations accepted by a multi-query registry (0 outside registry execution).
        /// Counts registrations, not live queries: unregistering does not decrement.
        registered_queries: u64 = Counter("Query registrations accepted by a multi-query registry"),
        /// Branch subscriptions that landed on an already-running fragment instead of building a
        /// new engine — the registry's sharing win (0 outside registry execution).
        shared_fragments: u64 = Counter("Branch subscriptions that reused an already-running fragment"),
        /// Matches fanned out from shared fragments to subscribed queries: one per (query, match)
        /// delivery, so a fragment shared by three queries adds three per detected match (0 outside
        /// registry execution).
        fanout_emits: u64 = Counter("Matches fanned out from shared fragments to subscribed queries"),
    }
}

impl EngineMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the current live object counts, updating the peaks.
    pub fn record_live(&mut self, partial_matches: usize, buffered_events: usize) {
        self.live_partial_matches = partial_matches;
        self.buffered_events = buffered_events;
        self.peak_partial_matches = self.peak_partial_matches.max(partial_matches);
        self.peak_buffered_events = self.peak_buffered_events.max(buffered_events);
        let bytes = partial_matches * PARTIAL_MATCH_BYTES + buffered_events * BUFFERED_EVENT_BYTES;
        self.peak_memory_bytes = self.peak_memory_bytes.max(bytes);
    }

    /// Records the current size of an adaptive wrapper's retained replay
    /// window, updating its peak.
    pub fn record_retained(&mut self, retained: usize) {
        self.retained_events = retained;
        self.peak_retained_events = self.peak_retained_events.max(retained);
    }

    /// Events per second of engine wall time; 0 before any timing.
    pub fn throughput_eps(&self) -> f64 {
        if self.wall_time_ns == 0 {
            return 0.0;
        }
        self.events_processed as f64 / (self.wall_time_ns as f64 / 1e9)
    }

    /// Summed per-match detection latency in nanoseconds — the view the
    /// retired `match_latency_ns_total` counter used to provide, now
    /// derived from the histogram.
    pub fn match_latency_ns_total(&self) -> u64 {
        self.match_latency_ns.sum()
    }

    /// Mean per-match detection latency in milliseconds.
    pub fn avg_latency_ms(&self) -> f64 {
        if self.matches_emitted == 0 {
            return 0.0;
        }
        self.match_latency_ns.sum() as f64 / self.matches_emitted as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_are_monotone() {
        let mut m = EngineMetrics::new();
        m.record_live(5, 10);
        m.record_live(2, 3);
        assert_eq!(m.live_partial_matches, 2);
        assert_eq!(m.peak_partial_matches, 5);
        assert_eq!(m.peak_buffered_events, 10);
        assert!(m.peak_memory_bytes >= 5 * PARTIAL_MATCH_BYTES);
    }

    #[test]
    fn throughput_computation() {
        let mut m = EngineMetrics::new();
        m.events_processed = 1000;
        m.wall_time_ns = 500_000_000; // 0.5 s
        assert!((m.throughput_eps() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_guards() {
        let m = EngineMetrics::new();
        assert_eq!(m.throughput_eps(), 0.0);
        assert_eq!(m.avg_latency_ms(), 0.0);
    }

    #[test]
    fn latency_average() {
        let mut m = EngineMetrics::new();
        m.matches_emitted = 4;
        m.match_latency_ns.record_n(2_000_000, 4); // 8 ms total
        assert_eq!(m.match_latency_ns_total(), 8_000_000);
        assert!((m.avg_latency_ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles_survive_aggregation() {
        // One fast engine, one slow engine: the merged histogram keeps the
        // tail visible where the old summed counter flattened it.
        let mut fast = EngineMetrics::new();
        fast.match_latency_ns.record_n(1_000, 98);
        let mut slow = EngineMetrics::new();
        slow.match_latency_ns.record_n(40_000_000, 2);
        fast.merge(&slow);
        assert!(fast.match_latency_ns.p50() < 2_048);
        assert!(fast.match_latency_ns.p99() >= 40_000_000);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut a = EngineMetrics::new();
        a.events_processed = 100;
        a.matches_emitted = 3;
        a.partial_matches_created = 40;
        a.predicate_evaluations = 70;
        a.peak_partial_matches = 9;
        a.peak_buffered_events = 20;
        a.peak_memory_bytes = 4000;
        a.wall_time_ns = 1_000;
        a.match_latency_ns.record(500);
        let mut b = EngineMetrics::new();
        b.events_processed = 50;
        b.matches_emitted = 2;
        b.partial_matches_created = 10;
        b.predicate_evaluations = 30;
        b.peak_partial_matches = 4;
        b.peak_buffered_events = 33;
        b.peak_memory_bytes = 2500;
        b.wall_time_ns = 3_000;
        b.match_latency_ns.record(700);
        a.plan_swaps = 1;
        a.replayed_events = 20;
        a.replay_time_ns = 111;
        a.peak_retained_events = 12;
        a.selectivity_samples = 9;
        a.suppressed_swaps = 1;
        b.plan_swaps = 2;
        b.replayed_events = 30;
        b.replay_time_ns = 222;
        b.peak_retained_events = 40;
        b.selectivity_samples = 11;
        b.suppressed_swaps = 2;
        a.merge(&b);
        // Counters and latency sums add across shards.
        assert_eq!(a.events_processed, 150);
        assert_eq!(a.matches_emitted, 5);
        assert_eq!(a.partial_matches_created, 50);
        assert_eq!(a.predicate_evaluations, 100);
        assert_eq!(a.match_latency_ns_total(), 1_200);
        assert_eq!(a.match_latency_ns.count(), 2);
        // Adaptivity counters add too; the retained-window peak is a
        // per-shard maximum like the other peaks.
        assert_eq!(a.plan_swaps, 3);
        assert_eq!(a.replayed_events, 50);
        assert_eq!(a.replay_time_ns, 333);
        assert_eq!(a.peak_retained_events, 40);
        assert_eq!(a.selectivity_samples, 20);
        assert_eq!(a.suppressed_swaps, 3);
        // Peaks and wall time take the per-shard maximum.
        assert_eq!(a.peak_partial_matches, 9);
        assert_eq!(a.peak_buffered_events, 33);
        assert_eq!(a.peak_memory_bytes, 4000);
        assert_eq!(a.wall_time_ns, 3_000);
    }

    #[test]
    fn merge_with_zeroed_is_identity_on_counters() {
        // Every field, not a sample: zero is the identity of every rule.
        let a = filled(0);
        let mut merged = a.clone();
        merged.merge(&EngineMetrics::new());
        assert_eq!(merged, a);
        let mut absorbed = a.clone();
        absorbed.absorb(&EngineMetrics::new());
        assert_eq!(absorbed, a);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (a, b, c) = (filled(0), filled(1000), filled(50));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn clear_live_zeroes_live_gauges_only() {
        let mut m = filled(0);
        m.clear_live();
        let mut expected = filled(0);
        expected.live_partial_matches = 0;
        expected.buffered_events = 0;
        expected.retained_events = 0;
        assert_eq!(m, expected);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = EngineMetrics::new();
        a.matches_emitted = 1;
        let mut b = EngineMetrics::new();
        b.matches_emitted = 2;
        b.peak_partial_matches = 7;
        b.plan_swaps = 1;
        b.replayed_events = 5;
        b.selectivity_samples = 4;
        b.suppressed_swaps = 2;
        a.absorb(&b);
        assert_eq!(a.matches_emitted, 3);
        assert_eq!(a.peak_partial_matches, 7);
        assert_eq!(a.plan_swaps, 1);
        assert_eq!(a.replayed_events, 5);
        assert_eq!(a.selectivity_samples, 4);
        assert_eq!(a.suppressed_swaps, 2);
    }

    #[test]
    fn record_retained_tracks_peak() {
        let mut m = EngineMetrics::new();
        m.record_retained(8);
        m.record_retained(3);
        assert_eq!(m.retained_events, 3);
        assert_eq!(m.peak_retained_events, 8);
    }

    /// A field value derived from one number, for [`filled`]: scalars
    /// take it as is, histograms hold one sample of it (so a merged
    /// histogram's `sum()` is as checkable as a plain counter).
    pub(super) trait Seeded {
        fn seeded(v: u64) -> Self;
    }

    impl Seeded for u64 {
        fn seeded(v: u64) -> Self {
            v
        }
    }

    impl Seeded for usize {
        fn seeded(v: u64) -> Self {
            v as usize
        }
    }

    impl Seeded for LatencyHistogram {
        fn seeded(v: u64) -> Self {
            let mut h = LatencyHistogram::new();
            h.record(v);
            h
        }
    }

    #[test]
    fn merge_covers_every_field() {
        let mut a = filled(0);
        a.merge(&filled(1000));
        // Counters and latency sums add across shards...
        assert_eq!(a.events_processed, 1002);
        assert_eq!(a.events_relevant, 1004);
        assert_eq!(a.matches_emitted, 1006);
        assert_eq!(a.partial_matches_created, 1008);
        assert_eq!(a.live_partial_matches, 1010);
        assert_eq!(a.buffered_events, 1014);
        assert_eq!(a.predicate_evaluations, 1020);
        assert_eq!(a.plan_swaps, 1028);
        assert_eq!(a.replayed_events, 1030);
        assert_eq!(a.replay_time_ns, 1032);
        assert_eq!(a.retained_events, 1036);
        assert_eq!(a.selectivity_samples, 1040);
        assert_eq!(a.suppressed_swaps, 1042);
        assert_eq!(a.replicated_events, 1044);
        assert_eq!(a.dedup_hits, 1046);
        assert_eq!(a.plan_cache_hits, 1048);
        assert_eq!(a.plan_cache_misses, 1050);
        assert_eq!(a.index_probes, 1052);
        assert_eq!(a.delta_updates, 1054);
        assert_eq!(a.registered_queries, 1058);
        assert_eq!(a.shared_fragments, 1060);
        assert_eq!(a.fanout_emits, 1062);
        // ...histograms merge bucket-wise (both samples survive)...
        assert_eq!(a.event_ns.count(), 2);
        assert_eq!(a.event_ns.sum(), 1024);
        assert_eq!(a.match_latency_ns.count(), 2);
        assert_eq!(a.match_latency_ns.sum(), 1026);
        assert_eq!(a.replay_ns.count(), 2);
        assert_eq!(a.replay_ns.sum(), 1034);
        assert_eq!(a.enumeration_ns.count(), 2);
        assert_eq!(a.enumeration_ns.sum(), 1056);
        // ...peaks and wall time take the per-shard maximum.
        assert_eq!(a.peak_partial_matches, 1006);
        assert_eq!(a.peak_buffered_events, 1008);
        assert_eq!(a.peak_memory_bytes, 1009);
        assert_eq!(a.wall_time_ns, 1011);
        assert_eq!(a.peak_retained_events, 1019);
    }

    #[test]
    fn absorb_covers_every_field() {
        let mut a = filled(0);
        a.absorb(&filled(1000));
        // Same-thread combination: everything sums, including peaks...
        assert_eq!(a.events_relevant, 1004);
        assert_eq!(a.matches_emitted, 1006);
        assert_eq!(a.partial_matches_created, 1008);
        assert_eq!(a.live_partial_matches, 1010);
        assert_eq!(a.peak_partial_matches, 1012);
        assert_eq!(a.buffered_events, 1014);
        assert_eq!(a.peak_buffered_events, 1016);
        assert_eq!(a.peak_memory_bytes, 1018);
        assert_eq!(a.predicate_evaluations, 1020);
        assert_eq!(a.plan_swaps, 1028);
        assert_eq!(a.replayed_events, 1030);
        assert_eq!(a.replay_time_ns, 1032);
        assert_eq!(a.retained_events, 1036);
        assert_eq!(a.peak_retained_events, 1038);
        assert_eq!(a.selectivity_samples, 1040);
        assert_eq!(a.suppressed_swaps, 1042);
        assert_eq!(a.replicated_events, 1044);
        assert_eq!(a.dedup_hits, 1046);
        assert_eq!(a.plan_cache_hits, 1048);
        assert_eq!(a.plan_cache_misses, 1050);
        assert_eq!(a.index_probes, 1052);
        assert_eq!(a.delta_updates, 1054);
        assert_eq!(a.registered_queries, 1058);
        assert_eq!(a.shared_fragments, 1060);
        assert_eq!(a.fanout_emits, 1062);
        // ...histograms merge bucket-wise...
        assert_eq!(a.event_ns.count(), 2);
        assert_eq!(a.event_ns.sum(), 1024);
        assert_eq!(a.match_latency_ns.count(), 2);
        assert_eq!(a.match_latency_ns.sum(), 1026);
        assert_eq!(a.replay_ns.count(), 2);
        assert_eq!(a.replay_ns.sum(), 1034);
        assert_eq!(a.enumeration_ns.count(), 2);
        assert_eq!(a.enumeration_ns.sum(), 1056);
        // ...except the harness-owned totals, which stay the caller's.
        assert_eq!(a.events_processed, 1);
        assert_eq!(a.wall_time_ns, 11);
    }

    #[test]
    fn export_renders_valid_prometheus_and_json() {
        let mut reg = MetricsRegistry::new();
        filled(0).export(&mut reg, &[("engine", "a")]);
        filled(1000).export(&mut reg, &[("engine", "b")]);
        let text = reg.render_prometheus();
        cep_obs::validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert!(text.contains("cep_events_processed_total{engine=\"a\"} 1"));
        assert!(text.contains("cep_events_processed_total{engine=\"b\"} 1001"));
        assert!(text.contains("cep_match_latency_ns_count{engine=\"a\"} 1"));
        assert!(text.contains("cep_index_probes_total{engine=\"a\"} 26"));
        assert!(text.contains("cep_delta_updates_total{engine=\"b\"} 1027"));
        assert!(text.contains("cep_enumeration_ns_count{engine=\"a\"} 1"));
        assert!(text.contains("cep_registered_queries_total{engine=\"a\"} 29"));
        assert!(text.contains("cep_shared_fragments_total{engine=\"b\"} 1030"));
        assert!(text.contains("cep_fanout_emits_total{engine=\"a\"} 31"));
        // One family per field plus the derived throughput gauge, each
        // carrying its row's value (`filled(0)` gives the i-th row i + 1).
        assert_eq!(reg.len(), EngineMetrics::FIELDS.len() + 1);
        assert!(text.contains("# TYPE cep_throughput_eps gauge\n"));
        for (i, field) in EngineMetrics::FIELDS.iter().enumerate() {
            let (family, value) = (field.family(), i + 1);
            let (kind, sample) = match field.combine {
                Combine::Histogram => (
                    "histogram",
                    format!("{family}_sum{{engine=\"a\"}} {value}\n"),
                ),
                c if c.is_counter() => ("counter", format!("{family}{{engine=\"a\"}} {value}\n")),
                _ => ("gauge", format!("{family}{{engine=\"a\"}} {value}\n")),
            };
            assert!(
                text.contains(&format!("# TYPE {family} {kind}\n")),
                "{} has no {kind} family {family}",
                field.name
            );
            assert!(text.contains(&sample), "missing {sample:?}");
        }
        // The six series the hand-written export used to skip.
        for line in [
            "cep_live_partial_matches{engine=\"b\"} 1005",
            "cep_buffered_events{engine=\"b\"} 1007",
            "cep_replay_time_ns_total{engine=\"b\"} 1016",
            "cep_retained_events{engine=\"b\"} 1018",
            "cep_peak_retained_events{engine=\"b\"} 1019",
            "cep_selectivity_samples_total{engine=\"b\"} 1020",
        ] {
            assert!(text.contains(line), "missing {line:?}");
        }
        // The JSON rendering parses back with the obs-side codec.
        cep_obs::json::parse(&reg.render_json()).expect("registry JSON parses");
    }
}
