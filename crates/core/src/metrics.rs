//! Engine runtime metrics: the measurement side of Section 7.2.

use cep_obs::{LatencyHistogram, MetricsRegistry};

/// Counters collected by an engine while processing a stream.
///
/// * **Throughput** is primitive events processed per second of engine wall
///   time.
/// * **Memory** is the peak of live partial matches plus buffered events,
///   with a byte estimate — the harness's robust analogue of the paper's
///   peak-RSS measurement.
/// * **Latency** records, per emitted match, the wall time between the
///   start of processing of the event that completed the match and its
///   emission (deferred emissions add the deferral processing time) — as a
///   log₂ histogram ([`match_latency_ns`](EngineMetrics::match_latency_ns))
///   so tail percentiles survive aggregation, not just the mean.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Total events offered to the engine.
    pub events_processed: u64,
    /// Events of types that participate in the pattern.
    pub events_relevant: u64,
    /// Full matches emitted.
    pub matches_emitted: u64,
    /// Partial matches (instances) ever created.
    pub partial_matches_created: u64,
    /// Currently live partial matches.
    pub live_partial_matches: usize,
    /// Peak of live partial matches.
    pub peak_partial_matches: usize,
    /// Currently buffered events.
    pub buffered_events: usize,
    /// Peak of buffered events.
    pub peak_buffered_events: usize,
    /// Peak estimated bytes of (partial matches + buffers).
    pub peak_memory_bytes: usize,
    /// Predicate evaluations performed.
    pub predicate_evaluations: u64,
    /// Total wall time spent inside the engine, in nanoseconds (set by
    /// [`crate::engine::run_to_completion`]).
    pub wall_time_ns: u64,
    /// Log₂ histogram of per-event processing time in nanoseconds, sampled
    /// (every 8th event) by [`crate::engine::run_to_completion`] to keep
    /// the hot loop cheap.
    pub event_ns: LatencyHistogram,
    /// Log₂ histogram of per-match detection latency in nanoseconds; its
    /// [`sum`](LatencyHistogram::sum) is the former
    /// `match_latency_ns_total` counter (see
    /// [`match_latency_ns_total`](EngineMetrics::match_latency_ns_total)).
    pub match_latency_ns: LatencyHistogram,
    /// Plan swaps performed by an adaptive wrapper (0 for static engines).
    pub plan_swaps: u64,
    /// Events re-processed from the retained window and its negated tail
    /// across all plan swaps (the replay cost of adaptivity, in events).
    pub replayed_events: u64,
    /// Nanoseconds spent replaying retained events during plan swaps.
    pub replay_time_ns: u64,
    /// Log₂ histogram of per-swap replay time in nanoseconds (one sample
    /// per plan swap; its sum tracks
    /// [`replay_time_ns`](EngineMetrics::replay_time_ns)).
    pub replay_ns: LatencyHistogram,
    /// Events currently held in an adaptive wrapper's retained replay
    /// window (0 for static engines).
    pub retained_events: usize,
    /// Peak of the retained replay window.
    pub peak_retained_events: usize,
    /// Events absorbed by an adaptive wrapper's selectivity monitor (0
    /// when selectivity re-estimation is disabled or for static engines).
    pub selectivity_samples: u64,
    /// Plan swaps an adaptive wrapper declined because the predicted
    /// savings over the amortization horizon would not pay for the replay
    /// (a cheaper plan existed, but switching to it was not worth it yet).
    pub suppressed_swaps: u64,
    /// Extra event deliveries created by replicate-join broadcast routing:
    /// each event fanned out to all `N` shards adds `N − 1` here, so
    /// `events_processed == stream length + replicated_events` for a
    /// sharded run (0 for single-shard, non-replicating, or unsharded
    /// runs).
    pub replicated_events: u64,
    /// Duplicate matches suppressed by a sharded merge's signature dedup
    /// (a match with no partitioned event is detected by every shard; all
    /// copies beyond the first count here).
    pub dedup_hits: u64,
    /// Compiled-plan cache hits: engine builds (or adaptive replans) that
    /// reused a [`crate::compiled::PredicateProgram`] from a
    /// [`crate::compiled::PlanCache`] instead of recompiling (0 when no
    /// cache is in play).
    pub plan_cache_hits: u64,
    /// Compiled-plan cache misses: engine builds that had to lower the
    /// pattern's predicates from scratch (0 when no cache is in play).
    pub plan_cache_misses: u64,
    /// Equality-join probes: posting-list probes of a delta-indexed
    /// engine, key-bucket probes of the NFA/tree engines' join state
    /// ([`crate::keyed::KeyedStore`]); 0 when no join step carries a
    /// usable `==` predicate.
    pub index_probes: u64,
    /// Index list operations (inserts + expirations, across the type
    /// store and every posting list) performed by a delta-indexed engine
    /// — the amortized-constant per-event maintenance work (0 for
    /// materializing engines).
    pub delta_updates: u64,
    /// Log₂ histogram of per-event on-demand match-enumeration time in
    /// nanoseconds (one sample per enumerated delta; empty for
    /// materializing engines).
    pub enumeration_ns: LatencyHistogram,
    /// Query registrations accepted by a multi-query registry (0 outside
    /// registry execution). Counts registrations, not live queries:
    /// unregistering does not decrement.
    pub registered_queries: u64,
    /// Branch subscriptions that landed on an already-running fragment
    /// instead of building a new engine — the registry's sharing win
    /// (0 outside registry execution).
    pub shared_fragments: u64,
    /// Matches fanned out from shared fragments to subscribed queries:
    /// one per (query, match) delivery, so a fragment shared by three
    /// queries adds three per detected match (0 outside registry
    /// execution).
    pub fanout_emits: u64,
}

/// Estimated bytes per live partial match (bindings vector + bookkeeping).
pub const PARTIAL_MATCH_BYTES: usize = 96;
/// Estimated bytes per buffered event (Arc + shared payload share).
pub const BUFFERED_EVENT_BYTES: usize = 72;

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

    /// Merges counters from a *concurrently* executed engine (a parallel
    /// shard) into `self`.
    ///
    /// Contrast with [`absorb`](EngineMetrics::absorb), which combines
    /// engines sharing one thread and therefore *sums* live/peak state:
    /// shards run side by side on disjoint slices of the stream, so
    /// counters and latency sums add, peaks take the per-shard maximum
    /// (the honest per-worker bound — summing would claim a simultaneous
    /// peak that never has to occur), and wall time takes the maximum
    /// (overlapping execution, not sequential).
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.events_processed += other.events_processed;
        self.events_relevant += other.events_relevant;
        self.matches_emitted += other.matches_emitted;
        self.partial_matches_created += other.partial_matches_created;
        self.live_partial_matches += other.live_partial_matches;
        self.peak_partial_matches = self.peak_partial_matches.max(other.peak_partial_matches);
        self.buffered_events += other.buffered_events;
        self.peak_buffered_events = self.peak_buffered_events.max(other.peak_buffered_events);
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
        self.predicate_evaluations += other.predicate_evaluations;
        self.wall_time_ns = self.wall_time_ns.max(other.wall_time_ns);
        self.event_ns.merge(&other.event_ns);
        self.match_latency_ns.merge(&other.match_latency_ns);
        self.plan_swaps += other.plan_swaps;
        self.replayed_events += other.replayed_events;
        self.replay_time_ns += other.replay_time_ns;
        self.replay_ns.merge(&other.replay_ns);
        self.retained_events += other.retained_events;
        self.peak_retained_events = self.peak_retained_events.max(other.peak_retained_events);
        self.selectivity_samples += other.selectivity_samples;
        self.suppressed_swaps += other.suppressed_swaps;
        self.replicated_events += other.replicated_events;
        self.dedup_hits += other.dedup_hits;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.index_probes += other.index_probes;
        self.delta_updates += other.delta_updates;
        self.enumeration_ns.merge(&other.enumeration_ns);
        self.registered_queries += other.registered_queries;
        self.shared_fragments += other.shared_fragments;
        self.fanout_emits += other.fanout_emits;
    }

    /// Merges counters from another engine (used by multi-plan evaluation).
    pub fn absorb(&mut self, other: &EngineMetrics) {
        self.events_relevant += other.events_relevant;
        self.matches_emitted += other.matches_emitted;
        self.partial_matches_created += other.partial_matches_created;
        self.live_partial_matches += other.live_partial_matches;
        self.peak_partial_matches += other.peak_partial_matches;
        self.buffered_events += other.buffered_events;
        self.peak_buffered_events += other.peak_buffered_events;
        self.peak_memory_bytes += other.peak_memory_bytes;
        self.predicate_evaluations += other.predicate_evaluations;
        self.event_ns.merge(&other.event_ns);
        self.match_latency_ns.merge(&other.match_latency_ns);
        self.plan_swaps += other.plan_swaps;
        self.replayed_events += other.replayed_events;
        self.replay_time_ns += other.replay_time_ns;
        self.replay_ns.merge(&other.replay_ns);
        self.retained_events += other.retained_events;
        self.peak_retained_events += other.peak_retained_events;
        self.selectivity_samples += other.selectivity_samples;
        self.suppressed_swaps += other.suppressed_swaps;
        self.replicated_events += other.replicated_events;
        self.dedup_hits += other.dedup_hits;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.index_probes += other.index_probes;
        self.delta_updates += other.delta_updates;
        self.enumeration_ns.merge(&other.enumeration_ns);
        self.registered_queries += other.registered_queries;
        self.shared_fragments += other.shared_fragments;
        self.fanout_emits += other.fanout_emits;
    }

    /// Writes this snapshot into a [`MetricsRegistry`] under `labels`
    /// (e.g. `[("engine", "adaptive")]` or `[("shard", "3")]`). Repeated
    /// calls with distinct labels append samples to the same families, so
    /// one registry can hold per-engine and per-shard series side by side.
    pub fn export(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        reg.counter(
            "cep_events_processed_total",
            "Events offered to the engine",
            labels,
            self.events_processed,
        );
        reg.counter(
            "cep_events_relevant_total",
            "Events of pattern-participating types",
            labels,
            self.events_relevant,
        );
        reg.counter(
            "cep_matches_emitted_total",
            "Full matches emitted",
            labels,
            self.matches_emitted,
        );
        reg.counter(
            "cep_partial_matches_created_total",
            "Partial matches ever created",
            labels,
            self.partial_matches_created,
        );
        reg.counter(
            "cep_predicate_evaluations_total",
            "Predicate evaluations performed",
            labels,
            self.predicate_evaluations,
        );
        reg.counter(
            "cep_wall_time_ns_total",
            "Wall time spent inside the engine (ns)",
            labels,
            self.wall_time_ns,
        );
        reg.gauge(
            "cep_peak_partial_matches",
            "Peak live partial matches",
            labels,
            self.peak_partial_matches as f64,
        );
        reg.gauge(
            "cep_peak_buffered_events",
            "Peak buffered events",
            labels,
            self.peak_buffered_events as f64,
        );
        reg.gauge(
            "cep_peak_memory_bytes",
            "Peak estimated bytes of partial matches + buffers",
            labels,
            self.peak_memory_bytes as f64,
        );
        reg.gauge(
            "cep_throughput_eps",
            "Events per second of engine wall time",
            labels,
            self.throughput_eps(),
        );
        reg.counter(
            "cep_plan_swaps_total",
            "Plan swaps performed by an adaptive wrapper",
            labels,
            self.plan_swaps,
        );
        reg.counter(
            "cep_suppressed_swaps_total",
            "Plan swaps declined as not amortizable",
            labels,
            self.suppressed_swaps,
        );
        reg.counter(
            "cep_replayed_events_total",
            "Events re-processed during plan swaps",
            labels,
            self.replayed_events,
        );
        reg.counter(
            "cep_replicated_events_total",
            "Extra deliveries from replicate-join broadcast routing",
            labels,
            self.replicated_events,
        );
        reg.counter(
            "cep_dedup_hits_total",
            "Duplicate matches suppressed by sharded-merge dedup",
            labels,
            self.dedup_hits,
        );
        reg.counter(
            "cep_plan_cache_hits_total",
            "Compiled-plan cache hits (program reused without recompiling)",
            labels,
            self.plan_cache_hits,
        );
        reg.counter(
            "cep_plan_cache_misses_total",
            "Compiled-plan cache misses (program lowered from scratch)",
            labels,
            self.plan_cache_misses,
        );
        reg.counter(
            "cep_index_probes_total",
            "Equality-join probes (delta posting lists, NFA/tree key buckets)",
            labels,
            self.index_probes,
        );
        reg.counter(
            "cep_delta_updates_total",
            "Index list inserts + expirations (delta engine)",
            labels,
            self.delta_updates,
        );
        reg.counter(
            "cep_registered_queries_total",
            "Query registrations accepted by a multi-query registry",
            labels,
            self.registered_queries,
        );
        reg.counter(
            "cep_shared_fragments_total",
            "Branch subscriptions that reused an already-running fragment",
            labels,
            self.shared_fragments,
        );
        reg.counter(
            "cep_fanout_emits_total",
            "Matches fanned out from shared fragments to subscribed queries",
            labels,
            self.fanout_emits,
        );
        reg.histogram(
            "cep_event_ns",
            "Per-event processing time (ns, sampled)",
            labels,
            &self.event_ns,
        );
        reg.histogram(
            "cep_match_latency_ns",
            "Per-match detection latency (ns)",
            labels,
            &self.match_latency_ns,
        );
        reg.histogram(
            "cep_replay_ns",
            "Per-swap replay time (ns)",
            labels,
            &self.replay_ns,
        );
        reg.histogram(
            "cep_enumeration_ns",
            "Per-delta on-demand match-enumeration time (ns)",
            labels,
            &self.enumeration_ns,
        );
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
        let mut a = EngineMetrics::new();
        a.events_processed = 7;
        a.peak_partial_matches = 2;
        a.wall_time_ns = 10;
        a.plan_swaps = 4;
        a.replayed_events = 9;
        a.peak_retained_events = 3;
        let before = a.clone();
        a.merge(&EngineMetrics::new());
        assert_eq!(a.events_processed, before.events_processed);
        assert_eq!(a.peak_partial_matches, before.peak_partial_matches);
        assert_eq!(a.wall_time_ns, before.wall_time_ns);
        assert_eq!(a.plan_swaps, before.plan_swaps);
        assert_eq!(a.replayed_events, before.replayed_events);
        assert_eq!(a.peak_retained_events, before.peak_retained_events);
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

    /// A histogram holding one sample of value `v` (so its post-merge
    /// `sum()` is as checkable as a plain counter).
    fn hist1(v: u64) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        h.record(v);
        h
    }

    /// Every field set to a distinct value derived from `base`. Written as
    /// a full struct literal on purpose: adding a field to
    /// [`EngineMetrics`] breaks this helper until the merge/absorb
    /// coverage tests below are extended to the new counter — which is
    /// exactly when `merge`/`absorb` themselves must be extended too.
    fn filled(base: u64) -> EngineMetrics {
        EngineMetrics {
            events_processed: base + 1,
            events_relevant: base + 2,
            matches_emitted: base + 3,
            partial_matches_created: base + 4,
            live_partial_matches: (base + 5) as usize,
            peak_partial_matches: (base + 6) as usize,
            buffered_events: (base + 7) as usize,
            peak_buffered_events: (base + 8) as usize,
            peak_memory_bytes: (base + 9) as usize,
            predicate_evaluations: base + 10,
            wall_time_ns: base + 11,
            event_ns: hist1(base + 12),
            match_latency_ns: hist1(base + 13),
            plan_swaps: base + 14,
            replayed_events: base + 15,
            replay_time_ns: base + 16,
            replay_ns: hist1(base + 17),
            retained_events: (base + 18) as usize,
            peak_retained_events: (base + 19) as usize,
            selectivity_samples: base + 20,
            suppressed_swaps: base + 21,
            replicated_events: base + 22,
            dedup_hits: base + 23,
            plan_cache_hits: base + 24,
            plan_cache_misses: base + 25,
            index_probes: base + 26,
            delta_updates: base + 27,
            enumeration_ns: hist1(base + 28),
            registered_queries: base + 29,
            shared_fragments: base + 30,
            fanout_emits: base + 31,
        }
    }

    /// Number of fields `filled` covers; the canary below cross-checks it
    /// against the struct itself via its Debug rendering. The histogram
    /// fields count too: `LatencyHistogram`'s Debug is a single token
    /// without `": "`, so each one contributes exactly one pair.
    const FIELD_COUNT: usize = 31;

    #[test]
    fn debug_field_count_matches_coverage() {
        // `{:?}` renders one `name: value` pair per field and the values
        // are plain integers, so counting ": " occurrences counts fields.
        let rendered = format!("{:?}", EngineMetrics::new());
        assert_eq!(
            rendered.matches(": ").count(),
            FIELD_COUNT,
            "EngineMetrics gained or lost a field; update filled() and the \
             merge/absorb coverage tests: {rendered}"
        );
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
        // The JSON rendering parses back with the obs-side codec.
        cep_obs::json::parse(&reg.render_json()).expect("registry JSON parses");
    }
}
