//! The engine abstraction shared by the NFA, tree, and naive evaluators.

use crate::dedup::BranchDedup;
use crate::matches::Match;
use crate::metrics::EngineMetrics;
use crate::stream::EventStream;
use cep_obs::{TraceRecord, Tracer};
use std::cell::OnceCell;
use std::time::Instant;

/// Runtime knobs common to all engines.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Upper bound on the number of events a single Kleene element may
    /// accumulate per partial match. The power-set semantics of Section 5.2
    /// is exponential by design; this cap keeps pathological inputs from
    /// exhausting memory. Matches the naive oracle's cap so equivalence
    /// tests remain exact.
    pub max_kleene_events: usize,
    /// Prune window-expired state every `prune_every` events.
    pub prune_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_kleene_events: 16,
            prune_every: 64,
        }
    }
}

/// A pattern evaluation engine.
///
/// Engines consume a ts-ordered stream one event at a time and append
/// detected matches to `out`. [`Engine::flush`] signals end-of-stream,
/// releasing matches whose emission was deferred (trailing negations).
pub trait Engine {
    /// Processes one event, appending any matches it completes.
    ///
    /// Precondition: `event.ts` is at or above every timestamp processed
    /// before (streams are ts-ordered; [`StreamBuilder`] enforces it). The
    /// NFA, tree and delta backends rely on it: their join stores are then
    /// sorted by time, and a probe visits only the slice that window and
    /// precedence allow
    /// ([`partner_ts_range`](crate::instance::partner_ts_range)). A late
    /// event trips a `debug_assert!` there; release builds may miss
    /// matches.
    ///
    /// [`StreamBuilder`]: crate::stream::StreamBuilder
    fn process(&mut self, event: &crate::event::EventRef, out: &mut Vec<Match>);

    /// Signals end-of-stream; releases deferred matches.
    fn flush(&mut self, out: &mut Vec<Match>);

    /// Runtime metrics collected so far.
    fn metrics(&self) -> &EngineMetrics;

    /// Mutable access for the harness (timing is recorded externally).
    fn metrics_mut(&mut self) -> &mut EngineMetrics;

    /// Engine kind, for reports.
    fn name(&self) -> &'static str;
}

/// Builds fresh engine instances from a shared, already-compiled plan.
///
/// A factory is the unit of work handed to parallel runtimes such as
/// `cep-shard`: one factory is shared (by reference) across worker threads
/// and each worker builds and exclusively owns its private engine, so the
/// engines themselves never cross a thread boundary. Pattern and plan data
/// in this workspace is immutable after planning, which is why `Send +
/// Sync` on the factory suffices.
pub trait EngineFactory: Send + Sync {
    /// Builds a fresh engine positioned at stream start.
    fn build(&self) -> Box<dyn Engine>;
}

impl<F> EngineFactory for F
where
    F: Fn() -> Box<dyn Engine> + Send + Sync,
{
    fn build(&self) -> Box<dyn Engine> {
        self()
    }
}

/// Result of driving an engine over a complete stream.
#[derive(Debug)]
pub struct RunResult {
    /// Detected matches (empty when `collect_matches` was false).
    pub matches: Vec<Match>,
    /// Number of matches detected (tracked even when not collected).
    pub match_count: u64,
    /// Final metrics snapshot.
    pub metrics: EngineMetrics,
}

/// One event in every `2^EVENT_SAMPLE_SHIFT` gets its processing time
/// recorded into [`EngineMetrics::event_ns`]. Sampling keeps the hot loop
/// at one extra clock read per 8 events while still filling the histogram
/// with thousands of samples on any realistic stream.
const EVENT_SAMPLE_SHIFT: u32 = 3;

/// Drives `engine` over `stream`, recording wall time and per-match
/// latency. With `collect_matches == false` matches are counted and
/// discarded, keeping harness memory flat on large runs.
pub fn run_to_completion(
    engine: &mut dyn Engine,
    stream: &EventStream,
    collect_matches: bool,
) -> RunResult {
    run_traced(engine, stream, collect_matches, &Tracer::disabled())
}

/// [`run_to_completion`] with a [`Tracer`]: emits a
/// [`TraceRecord::MatchEmitted`] per detected match. Tracing only
/// observes — match content, order, and metrics are identical to an
/// untraced run.
pub fn run_traced(
    engine: &mut dyn Engine,
    stream: &EventStream,
    collect_matches: bool,
    tracer: &Tracer,
) -> RunResult {
    let mut matches = Vec::new();
    let mut scratch = Vec::new();
    let mut match_count = 0u64;
    let mut seen = 0u64;
    let start = Instant::now();
    for event in stream {
        let ev_start = Instant::now();
        engine.process(event, &mut scratch);
        seen += 1;
        if seen & ((1 << EVENT_SAMPLE_SHIFT) - 1) == 0 {
            let dt = ev_start.elapsed().as_nanos() as u64;
            engine.metrics_mut().event_ns.record(dt);
        }
        if !scratch.is_empty() {
            let latency = ev_start.elapsed().as_nanos() as u64;
            let m = engine.metrics_mut();
            m.match_latency_ns.record_n(latency, scratch.len() as u64);
            match_count += scratch.len() as u64;
            for mt in &scratch {
                tracer.emit_with(|| TraceRecord::MatchEmitted {
                    emitted_at: mt.emitted_at,
                    last_ts: mt.last_ts,
                    latency_ns: latency,
                });
            }
            if collect_matches {
                matches.append(&mut scratch);
            } else {
                scratch.clear();
            }
        }
    }
    let flush_start = Instant::now();
    engine.flush(&mut scratch);
    if !scratch.is_empty() {
        let latency = flush_start.elapsed().as_nanos() as u64;
        let m = engine.metrics_mut();
        m.match_latency_ns.record_n(latency, scratch.len() as u64);
        match_count += scratch.len() as u64;
        for mt in &scratch {
            tracer.emit_with(|| TraceRecord::MatchEmitted {
                emitted_at: mt.emitted_at,
                last_ts: mt.last_ts,
                latency_ns: latency,
            });
        }
        if collect_matches {
            matches.append(&mut scratch);
        } else {
            scratch.clear();
        }
    }
    let wall = start.elapsed().as_nanos() as u64;
    engine.metrics_mut().wall_time_ns += wall;
    RunResult {
        matches,
        match_count,
        metrics: engine.metrics().clone(),
    }
}

/// Evaluates several engines (one per DNF branch of a nested pattern) as a
/// unit, returning the union of their matches (Section 5.4).
///
/// Duplicate matches — possible when branches overlap — are suppressed by
/// the same signature memory the registry's fan-out uses (first branch
/// wins, signatures forgotten a window later). The wrapper does not know
/// its branches' patterns, so unlike the registry it cannot rule
/// collisions out statically and always deduplicates.
pub struct MultiEngine {
    engines: Vec<Box<dyn Engine>>,
    dedup: BranchDedup,
    /// Per-event scratch buffer of the branches' matches.
    staged: Vec<Match>,
    /// The wrapper's own counters (`events_processed`, `matches_emitted`)
    /// plus whatever the harness records through
    /// [`metrics_mut`](Engine::metrics_mut) (wall time, histograms).
    own: EngineMetrics,
    /// The aggregate view [`metrics`](Engine::metrics) returns, computed on
    /// first read after any change.
    view: OnceCell<EngineMetrics>,
    /// Whether any event or flush has been processed; before that the view
    /// is the wrapper's own counters alone.
    started: bool,
}

impl MultiEngine {
    /// Wraps a set of branch engines sharing one pattern window.
    pub fn new(engines: Vec<Box<dyn Engine>>, window: u64) -> MultiEngine {
        assert!(!engines.is_empty(), "MultiEngine needs >= 1 branch engine");
        MultiEngine {
            engines,
            dedup: BranchDedup::new(window),
            staged: Vec::new(),
            own: EngineMetrics::new(),
            view: OnceCell::new(),
            started: false,
        }
    }

    /// Number of branch engines.
    pub fn branches(&self) -> usize {
        self.engines.len()
    }

    /// Moves the branches' staged matches to `out`, first sighting of each
    /// signature only.
    fn emit_staged(&mut self, out: &mut Vec<Match>) {
        self.started = true;
        self.view.take();
        let before = out.len();
        for m in self.staged.drain(..) {
            if self.dedup.admit(&m) {
                out.push(m);
            }
        }
        self.own.matches_emitted += (out.len() - before) as u64;
    }

    fn aggregate(&self) -> EngineMetrics {
        if !self.started {
            return self.own.clone();
        }
        // The branches share this thread: absorb them into our own
        // counters (which hold what the harness records, e.g. wall time
        // and the latency histograms).
        let mut agg = self.own.clone();
        for e in &self.engines {
            agg.absorb(e.metrics());
        }
        // Counted by both layers: deduplication may have dropped some
        // branch emissions, so our own count stands.
        agg.matches_emitted = self.own.matches_emitted;
        agg
    }
}

impl Engine for MultiEngine {
    fn process(&mut self, event: &crate::event::EventRef, out: &mut Vec<Match>) {
        self.own.events_processed += 1;
        for e in &mut self.engines {
            e.process(event, &mut self.staged);
        }
        self.emit_staged(out);
        self.dedup.end_event(self.own.events_processed, event.ts);
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        for e in &mut self.engines {
            e.flush(&mut self.staged);
        }
        self.emit_staged(out);
    }

    fn metrics(&self) -> &EngineMetrics {
        self.view.get_or_init(|| self.aggregate())
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        self.view.take();
        &mut self.own
    }

    fn name(&self) -> &'static str {
        "multi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventRef, TypeId};
    use crate::matches::Binding;
    use std::sync::Arc;

    /// Emits a fixed match whenever it sees type 0.
    struct StubEngine {
        metrics: EngineMetrics,
        sig_seq: u64,
    }

    impl StubEngine {
        fn new(sig_seq: u64) -> Self {
            StubEngine {
                metrics: EngineMetrics::new(),
                sig_seq,
            }
        }
    }

    impl Engine for StubEngine {
        fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
            self.metrics.events_processed += 1;
            if event.type_id == TypeId(0) {
                let mut e = Event::new(TypeId(0), event.ts, vec![]);
                e.seq = self.sig_seq;
                out.push(Match {
                    bindings: vec![(0, Binding::One(Arc::new(e)))],
                    last_ts: event.ts,
                    emitted_at: event.ts,
                });
                self.metrics.matches_emitted += 1;
            }
        }
        fn flush(&mut self, _out: &mut Vec<Match>) {}
        fn metrics(&self) -> &EngineMetrics {
            &self.metrics
        }
        fn metrics_mut(&mut self) -> &mut EngineMetrics {
            &mut self.metrics
        }
        fn name(&self) -> &'static str {
            "stub"
        }
    }

    fn ev(tid: u32, ts: u64) -> EventRef {
        Arc::new(Event::new(TypeId(tid), ts, vec![]))
    }

    #[test]
    fn run_to_completion_times_and_counts() {
        let mut e = StubEngine::new(0);
        let stream = vec![ev(0, 1), ev(1, 2), ev(0, 3)];
        let r = run_to_completion(&mut e, &stream, true);
        assert_eq!(r.match_count, 2);
        assert_eq!(r.matches.len(), 2);
        assert_eq!(r.metrics.events_processed, 3);
        assert!(r.metrics.throughput_eps() > 0.0);
    }

    #[test]
    fn run_without_collection_still_counts() {
        let mut e = StubEngine::new(0);
        let stream = vec![ev(0, 1), ev(0, 2)];
        let r = run_to_completion(&mut e, &stream, false);
        assert_eq!(r.match_count, 2);
        assert!(r.matches.is_empty());
    }

    #[test]
    fn closure_factories_build_independent_engines() {
        let factory = || Box::new(StubEngine::new(0)) as Box<dyn Engine>;
        let f: &dyn EngineFactory = &factory;
        let mut a = f.build();
        let b = f.build();
        let mut out = Vec::new();
        a.process(&ev(0, 1), &mut out);
        assert_eq!(a.metrics().events_processed, 1);
        assert_eq!(b.metrics().events_processed, 0, "engines are independent");
    }

    #[test]
    fn multi_engine_dedups_identical_matches() {
        // Two branches emitting the same signature: only one survives.
        let me = MultiEngine::new(
            vec![Box::new(StubEngine::new(7)), Box::new(StubEngine::new(7))],
            10,
        );
        let mut me = me;
        let mut out = Vec::new();
        me.process(&ev(0, 1), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(me.branches(), 2);
    }

    #[test]
    fn multi_engine_unions_distinct_matches() {
        let mut me = MultiEngine::new(
            vec![Box::new(StubEngine::new(1)), Box::new(StubEngine::new(2))],
            10,
        );
        let mut out = Vec::new();
        me.process(&ev(0, 1), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(me.metrics().matches_emitted, 2);
    }

    #[test]
    fn multi_engine_metrics_view_is_computed_on_read() {
        let mut branch = StubEngine::new(1);
        branch.metrics.plan_cache_hits = 3;
        let mut me = MultiEngine::new(vec![Box::new(branch), Box::new(StubEngine::new(2))], 10);
        // Before any event the view is the wrapper's own counters alone.
        assert_eq!(me.metrics().plan_cache_hits, 0);
        let mut out = Vec::new();
        me.process(&ev(0, 1), &mut out);
        let m = me.metrics();
        assert_eq!(
            (m.events_processed, m.matches_emitted, m.plan_cache_hits),
            (1, 2, 3)
        );
        me.metrics_mut().wall_time_ns += 7;
        assert_eq!(me.metrics().wall_time_ns, 7, "harness writes show on read");
        me.process(&ev(1, 2), &mut out);
        assert_eq!(me.metrics().events_processed, 2);
        assert_eq!(me.metrics().wall_time_ns, 7);
    }
}
