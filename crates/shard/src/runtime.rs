//! The sharded worker-pool runtime and its deterministic, dedup-aware
//! merge. One driver serves every entry point: a single-query run
//! ([`ShardedRuntime::run`], [`ShardedRuntime::run_query`]) is the
//! one-query case of a registry run ([`ShardedRuntime::run_registry`]),
//! with one worker loop, one per-query merge and one failure policy (a
//! worker panic is a [`CepError::Worker`]).

use crate::router::{RouteTarget, RoutingPolicy, ShardRouter};
use cep_core::compile::CompiledPattern;
use cep_core::engine::{Engine, EngineFactory};
use cep_core::error::CepError;
use cep_core::event::{advance_watermark, EventRef};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::registry::{QueryId, QueryRegistry, RegistrySpec};
use cep_core::stream::EventStream;
use cep_obs::{MetricsRegistry, TraceRecord, Tracer};
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Every `ROUTE_SAMPLE_MASK + 1`-th event's routing decision is traced as a
/// [`TraceRecord::ShardRoute`]; sampling keeps trace volume proportional to
/// the stream without touching the per-event routing cost when disabled.
const ROUTE_SAMPLE_MASK: u64 = 63;

/// Workers sample one event in eight into
/// [`EngineMetrics::event_ns`], mirroring
/// [`run_to_completion`](cep_core::engine::run_to_completion)'s cadence.
const EVENT_SAMPLE_MASK: u64 = 7;

/// Worker-pool knobs.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of worker shards (each owns one engine on one thread).
    pub shards: usize,
    /// Events per channel message. Batching amortizes the per-send
    /// synchronization cost; 1 degenerates to an event-at-a-time pipeline.
    pub batch_size: usize,
    /// Bound of each worker's input queue, in batches. A full queue blocks
    /// the router (backpressure) instead of buffering without limit.
    pub queue_batches: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            batch_size: 256,
            queue_batches: 4,
        }
    }
}

impl ShardConfig {
    /// Default configuration with an explicit shard count.
    pub fn with_shards(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            ..Default::default()
        }
    }
}

/// One shard's slice of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Events routed to this shard (under replicate-join routing,
    /// broadcast events count once per receiving shard).
    pub events_routed: u64,
    /// Matches this shard's engine emitted. Under replicate-join routing a
    /// match without partitioned events is emitted by *every* shard, so
    /// these raw per-shard counts may sum to more than the merged
    /// [`ShardedRunResult::match_count`] (the difference is
    /// [`EngineMetrics::dedup_hits`]).
    pub match_count: u64,
    /// The shard engine's final metrics; `wall_time_ns` is the shard's
    /// *busy* time (processing only, excluding waits on the input queue).
    /// `plan_cache_hits` / `plan_cache_misses` read 0: workers share one
    /// plan cache, so the run reports those lookups once, merged.
    pub metrics: EngineMetrics,
}

/// Result of a sharded run.
#[derive(Debug)]
pub struct ShardedRunResult {
    /// Merged matches in [`canonical_sort`] order (empty when
    /// `collect_matches` was false), with cross-shard duplicates removed
    /// under replicate-join routing.
    pub matches: Vec<Match>,
    /// Distinct matches across shards (tracked even when not collected;
    /// duplicates from replicated-only matches are already subtracted).
    pub match_count: u64,
    /// Aggregated metrics: per-shard metrics combined with
    /// [`EngineMetrics::merge`], with `wall_time_ns` replaced by the whole
    /// run's wall time (routing included), so
    /// [`throughput_eps`](EngineMetrics::throughput_eps) reports end-to-end
    /// parallel throughput.
    pub metrics: EngineMetrics,
    /// Per-shard breakdown, indexed by shard.
    pub per_shard: Vec<ShardStats>,
}

impl ShardedRunResult {
    /// Load imbalance across workers: the maximum per-shard busy time
    /// divided by the mean. `1.0` means perfectly balanced; `shards as
    /// f64` means one worker did all the work. Returns `1.0` for runs
    /// with no recorded busy time.
    pub fn imbalance_ratio(&self) -> f64 {
        let total: u64 = self.per_shard.iter().map(|s| s.metrics.wall_time_ns).sum();
        if total == 0 {
            return 1.0;
        }
        let max = self
            .per_shard
            .iter()
            .map(|s| s.metrics.wall_time_ns)
            .max()
            .unwrap_or(0);
        max as f64 * self.per_shard.len() as f64 / total as f64
    }

    /// Exports the merged metrics plus the per-shard series the merge
    /// collapses: `cep_shard_busy_ns_total`,
    /// `cep_shard_events_routed_total`, and `cep_shard_matches_total` get
    /// one sample per shard (labelled `shard="<index>"`), and
    /// `cep_shard_imbalance_ratio` summarizes the busy-time skew. The
    /// merged snapshot alone cannot answer "which worker was hot" — its
    /// wall time is the whole run's and the per-shard busy times are
    /// summed away — so imbalance is only measurable from these series.
    pub fn export(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        self.metrics.export(reg, labels);
        reg.gauge(
            "cep_shard_imbalance_ratio",
            "Max over mean per-shard busy time (1.0 = balanced)",
            labels,
            self.imbalance_ratio(),
        );
        for s in &self.per_shard {
            let idx = s.shard.to_string();
            let mut with_shard: Vec<(&str, &str)> = labels.to_vec();
            with_shard.push(("shard", idx.as_str()));
            reg.counter(
                "cep_shard_busy_ns_total",
                "Per-shard busy time in ns (processing only, queue waits excluded)",
                &with_shard,
                s.metrics.wall_time_ns,
            );
            reg.counter(
                "cep_shard_events_routed_total",
                "Events delivered to this shard (broadcasts count per copy)",
                &with_shard,
                s.events_routed,
            );
            reg.counter(
                "cep_shard_matches_total",
                "Raw matches this shard emitted (before cross-shard dedup)",
                &with_shard,
                s.match_count,
            );
        }
    }
}

/// Runs any [`EngineFactory`]'s engines across a pool of worker shards.
///
/// The calling thread routes and batches events; each worker thread builds
/// a private engine from the shared factory and processes its slice in
/// stream order (routing preserves the relative order of the events a
/// shard receives, so every shard still sees a ts-ordered stream).
#[derive(Debug, Clone, Default)]
pub struct ShardedRuntime {
    config: ShardConfig,
    tracer: Tracer,
}

impl ShardedRuntime {
    /// Runtime with explicit configuration.
    pub fn new(config: ShardConfig) -> ShardedRuntime {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.batch_size >= 1, "batch size must be positive");
        assert!(config.queue_batches >= 1, "queue bound must be positive");
        ShardedRuntime {
            config,
            tracer: Tracer::disabled(),
        }
    }

    /// Runtime with `shards` workers and default batching.
    pub fn with_shards(shards: usize) -> ShardedRuntime {
        ShardedRuntime::new(ShardConfig::with_shards(shards))
    }

    /// The active configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Attaches a tracer: runs then emit sampled
    /// [`TraceRecord::ShardRoute`] records (one per
    /// `ROUTE_SAMPLE_MASK + 1` events) and a [`TraceRecord::ShardBatch`]
    /// per batch send carrying the receiving worker's queue depth.
    /// Tracing only observes — matches, merge order, and metrics are
    /// byte-identical to an untraced run, and a disabled tracer costs one
    /// branch per batch.
    pub fn with_tracer(mut self, tracer: Tracer) -> ShardedRuntime {
        self.tracer = tracer;
        self
    }

    /// Drives `stream` through `self.config.shards` workers, each running a
    /// fresh engine from `factory`, and merges the results
    /// deterministically: each worker [`canonical_sort`]s its own
    /// emission-ordered output, and the caller k-way merges those runs
    /// (a single worker's run is moved through as is). With
    /// `collect_matches == false`, matches are counted and discarded
    /// shard-side, keeping memory flat on large runs.
    ///
    /// Under [`RoutingPolicy::ReplicateJoin`], replicated event types are
    /// broadcast to every worker (the extra deliveries are counted in the
    /// merged metrics' [`EngineMetrics::replicated_events`]) and the merge
    /// suppresses cross-shard duplicate matches by signature, keeping the
    /// first occurrence in canonical order ([`EngineMetrics::dedup_hits`]
    /// counts the rest). Duplicates only arise for matches that bind no
    /// partitioned event, which every shard detects; keeping the
    /// canonically first copy reproduces the single-threaded engine's
    /// emission exactly. Deduplication needs the matches themselves, so
    /// replicate-join runs buffer matches shard-side even when
    /// `collect_matches` is false (they are dropped after counting).
    ///
    /// See the crate docs for when the merged output is exactly the
    /// single-threaded result — the merge order itself is deterministic
    /// for any query and any shard count.
    ///
    /// # Panics
    /// When a worker's engine panics, with the text of the
    /// [`CepError::Worker`] that [`run_query`](ShardedRuntime::run_query)
    /// returns for it.
    pub fn run(
        &self,
        factory: &dyn EngineFactory,
        stream: &EventStream,
        policy: RoutingPolicy,
        collect_matches: bool,
    ) -> ShardedRunResult {
        let router = ShardRouter::new(self.config.shards, policy);
        self.run_engines(factory, router, stream, collect_matches)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](ShardedRuntime::run) with the routing policy first checked
    /// against the compiled query it routes for
    /// ([`ShardRouter::for_query`]): unsound combinations — e.g. hash
    /// routing a query whose correlation attribute does not key every
    /// element — fail with [`CepError::Routing`] instead of silently
    /// losing cross-shard matches.
    ///
    /// # Errors
    /// [`CepError::Routing`] for a policy unsound for some branch; a
    /// worker whose engine panics surfaces as [`CepError::Worker`] naming
    /// the lowest such shard.
    pub fn run_query(
        &self,
        factory: &dyn EngineFactory,
        stream: &EventStream,
        policy: RoutingPolicy,
        branches: &[CompiledPattern],
        collect_matches: bool,
    ) -> Result<ShardedRunResult, CepError> {
        let router = self.checked_router(&policy, branches)?;
        self.run_engines(factory, router, stream, collect_matches)
    }

    /// The one-query case of [`drive`](ShardedRuntime::drive): one engine
    /// per worker, its run the single query's.
    fn run_engines(
        &self,
        factory: &dyn EngineFactory,
        router: ShardRouter,
        stream: &EventStream,
        collect_matches: bool,
    ) -> Result<ShardedRunResult, CepError> {
        let r = self.drive(&|| Ok(factory.build()), 1, router, stream, collect_matches)?;
        Ok(ShardedRunResult {
            matches: r.per_query.into_values().next().unwrap_or_default(),
            match_count: r.match_count,
            metrics: r.metrics,
            per_shard: r.per_shard,
        })
    }

    /// The router for `policy` over `branches`, once
    /// [`ShardRouter::for_query`] has found the policy sound for every
    /// branch. Debug builds additionally lint the branches and (for
    /// replicate-join) the partition spec against them (A010).
    fn checked_router(
        &self,
        policy: &RoutingPolicy,
        branches: &[CompiledPattern],
    ) -> Result<ShardRouter, CepError> {
        let router = ShardRouter::for_query(self.config.shards, policy.clone(), branches)?;
        if cfg!(debug_assertions) {
            for cp in branches {
                cep_analyze::verify_pattern_invariants(cp)?;
            }
            if let RoutingPolicy::ReplicateJoin(spec) = policy {
                cep_analyze::verify_partition_spec(spec, branches)?;
            }
        }
        Ok(router)
    }

    /// Drives `stream` through the worker pool with **every query of
    /// `spec` evaluated on every shard**: each stream partition is routed
    /// once, each worker owns a private [`QueryRegistry`] stamped from
    /// the spec ([`RegistrySpec::instantiate`] — all workers share the
    /// spec's predicate-program cache), and shared fragments are
    /// evaluated once per shard however many queries subscribe to them.
    /// Per-query outputs are merged exactly like
    /// [`run`](ShardedRuntime::run) merges a single query's — per query:
    /// worker-side [`canonical_sort`] and a k-way merge, then (under
    /// non-fully-partitioned replicate-join routing) cross-shard duplicate
    /// suppression by signature.
    ///
    /// The routing policy is validated against **every branch of every
    /// registered query** ([`ShardRouter::for_query`]): the stream is
    /// split once for the whole set, so the policy must be sound for
    /// each member, and unsound combinations fail with
    /// [`CepError::Routing`] up front instead of silently losing one
    /// query's cross-shard matches.
    ///
    /// Merged-metrics caveat: every worker registry registers the full
    /// query set, so the merged
    /// [`registered_queries`](EngineMetrics::registered_queries) /
    /// `shared_fragments` counters scale with the shard count, exactly
    /// like `events_processed` under broadcast routing.
    ///
    /// # Errors
    /// [`CepError::Routing`] for an empty spec or a policy unsound for
    /// some branch; fragment-builder errors surface from
    /// [`RegistrySpec::instantiate`]; a worker that panics (in a fragment
    /// builder or an engine) surfaces as [`CepError::Worker`] naming the
    /// lowest such shard.
    pub fn run_registry(
        &self,
        spec: &RegistrySpec,
        stream: &EventStream,
        policy: RoutingPolicy,
        collect_matches: bool,
    ) -> Result<MultiQueryRunResult, CepError> {
        if spec.queries() == 0 {
            return Err(CepError::Routing(
                "cannot shard an empty registry spec: add at least one query".into(),
            ));
        }
        let branches: Vec<CompiledPattern> = spec.branches().cloned().collect();
        let router = self.checked_router(&policy, &branches)?;
        self.drive(
            &|| spec.instantiate(),
            spec.queries(),
            router,
            stream,
            collect_matches,
        )
    }

    /// The one driver behind every run: spawns one worker per shard,
    /// routes `stream` into their queues, joins them and merges their
    /// output per query (query `i` is [`QueryId`]`(i)`).
    ///
    /// Each worker builds what it runs itself (engines are not `Send`, so
    /// they cannot be built here and moved in). A build error or a panic
    /// aborts that worker, whose queue then drains into a closed channel;
    /// after the join, the lowest failing shard's error is returned, a
    /// panic as [`CepError::Worker`].
    fn drive<W: ShardWork>(
        &self,
        build: &(dyn Fn() -> Result<W, CepError> + Sync),
        queries: usize,
        mut router: ShardRouter,
        stream: &EventStream,
        collect_matches: bool,
    ) -> Result<MultiQueryRunResult, CepError> {
        let shards = self.config.shards;
        // Replicated-only matches surface on every shard; merging must
        // dedup them, which requires seeing the matches. A spec with no
        // replicated types broadcasts nothing and cannot duplicate, so it
        // keeps the flat-memory count-and-discard path.
        let dedup = shards > 1
            && matches!(router.policy(), RoutingPolicy::ReplicateJoin(spec)
                if !spec.is_fully_partitioned());
        let collect_in_workers = collect_matches || dedup;
        let tracer = &self.tracer;
        let traced = tracer.is_enabled();
        // In-flight batches per worker queue, maintained (and read) only
        // when tracing: the router increments at send, the worker
        // decrements at receive, so each ShardBatch record carries the
        // receiver's queue depth at the moment the batch was enqueued.
        let depths: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
        let start = Instant::now();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards)
            .map(|_| sync_channel(self.config.queue_batches))
            .unzip();
        let (mut replicated_extra, mut late) = (0u64, 0u64);
        let results: Vec<Result<ShardOutcome, CepError>> = std::thread::scope(|s| {
            let handles: Vec<_> = rxs
                .into_iter()
                .enumerate()
                .map(|(i, rx)| {
                    let depth = traced.then(|| &depths[i]);
                    s.spawn(move || worker(build, queries, rx, collect_in_workers, depth))
                })
                .collect();
            (replicated_extra, late) = route_and_feed(
                tracer,
                &mut router,
                stream,
                txs,
                &depths,
                self.config.batch_size,
            );
            handles
                .into_iter()
                .enumerate()
                .map(|(shard, h)| {
                    h.join().unwrap_or_else(|panic| {
                        Err(CepError::Worker {
                            shard,
                            message: panic_message(panic.as_ref()),
                        })
                    })
                })
                .collect()
        });
        let outcomes: Vec<ShardOutcome> = results.into_iter().collect::<Result<_, _>>()?;
        let wall = start.elapsed().as_nanos() as u64;
        let mut metrics = EngineMetrics::new();
        let mut runs: Vec<Vec<Vec<Match>>> =
            (0..queries).map(|_| Vec::with_capacity(shards)).collect();
        let mut counts = vec![0u64; queries];
        let mut per_shard = Vec::with_capacity(shards);
        for (shard, mut o) in outcomes.into_iter().enumerate() {
            metrics.merge(&o.metrics);
            // Which worker misses the shared plan cache is a race.
            o.metrics.plan_cache_hits = 0;
            o.metrics.plan_cache_misses = 0;
            for (q, run) in o.runs.into_iter().enumerate() {
                runs[q].push(run);
                counts[q] += o.counts[q];
            }
            per_shard.push(ShardStats {
                shard,
                events_routed: o.events_routed,
                match_count: o.counts.iter().sum(),
                metrics: o.metrics,
            });
        }
        metrics.wall_time_ns = wall;
        metrics.replicated_events = replicated_extra;
        metrics.late_events_dropped = late;
        let mut per_query = BTreeMap::new();
        let mut match_counts = BTreeMap::new();
        for (q, (shard_runs, mut count)) in runs.into_iter().zip(counts).enumerate() {
            let mut ms = merge_runs(shard_runs);
            if dedup {
                metrics.dedup_hits += dedup_by_signature(&mut ms);
                count = ms.len() as u64;
                if !collect_matches {
                    ms.clear();
                }
            }
            per_query.insert(QueryId(q as u64), ms);
            match_counts.insert(QueryId(q as u64), count);
        }
        Ok(MultiQueryRunResult {
            per_query,
            match_count: match_counts.values().sum(),
            match_counts,
            metrics,
            per_shard,
        })
    }
}

/// Result of a multi-query sharded run
/// ([`ShardedRuntime::run_registry`]).
#[derive(Debug)]
pub struct MultiQueryRunResult {
    /// Per-query merged matches in [`canonical_sort`] order (vectors are
    /// empty when `collect_matches` was false), with cross-shard
    /// duplicates removed per query under replicate-join routing. Every
    /// registered query has an entry.
    pub per_query: BTreeMap<QueryId, Vec<Match>>,
    /// Distinct matches per query across shards (tracked even when not
    /// collected).
    pub match_counts: BTreeMap<QueryId, u64>,
    /// Total distinct matches across all queries.
    pub match_count: u64,
    /// Aggregated metrics: per-worker registry metrics combined with
    /// [`EngineMetrics::merge`], `wall_time_ns` replaced by the whole
    /// run's wall time. Shared-fragment work is counted once per shard,
    /// not once per subscribing query.
    pub metrics: EngineMetrics,
    /// Per-shard breakdown; `match_count` is the shard's total fan-out
    /// emissions across all queries (before cross-shard dedup).
    pub per_shard: Vec<ShardStats>,
}

/// What a worker runs: one engine (a single query) or one registry (a
/// query set, whose emissions carry their [`QueryId`]).
trait ShardWork {
    /// One emission.
    type Emitted;

    /// Offers one event, appending what it emits to `out`.
    fn process(&mut self, event: &EventRef, out: &mut Vec<Self::Emitted>);

    /// Signals end-of-stream, appending deferred emissions to `out`.
    fn flush(&mut self, out: &mut Vec<Self::Emitted>);

    /// Empties `out` into the per-query match counts and, when `keep`,
    /// the per-query runs.
    fn deliver(
        out: &mut Vec<Self::Emitted>,
        runs: &mut [Vec<Match>],
        counts: &mut [u64],
        keep: bool,
    );

    /// The final metrics snapshot.
    fn metrics(&self) -> EngineMetrics;
}

impl ShardWork for Box<dyn Engine> {
    type Emitted = Match;

    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        Engine::process(self.as_mut(), event, out);
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        Engine::flush(self.as_mut(), out);
    }

    fn deliver(out: &mut Vec<Match>, runs: &mut [Vec<Match>], counts: &mut [u64], keep: bool) {
        counts[0] += out.len() as u64;
        if keep {
            runs[0].append(out);
        } else {
            out.clear();
        }
    }

    fn metrics(&self) -> EngineMetrics {
        Engine::metrics(self.as_ref()).clone()
    }
}

impl ShardWork for QueryRegistry {
    type Emitted = (QueryId, Match);

    fn process(&mut self, event: &EventRef, out: &mut Vec<(QueryId, Match)>) {
        QueryRegistry::process(self, event, out);
    }

    fn flush(&mut self, out: &mut Vec<(QueryId, Match)>) {
        QueryRegistry::flush(self, out);
    }

    fn deliver(
        out: &mut Vec<(QueryId, Match)>,
        runs: &mut [Vec<Match>],
        counts: &mut [u64],
        keep: bool,
    ) {
        for (id, m) in out.drain(..) {
            counts[id.0 as usize] += 1;
            if keep {
                runs[id.0 as usize].push(m);
            }
        }
    }

    fn metrics(&self) -> EngineMetrics {
        QueryRegistry::metrics(self)
    }
}

/// One worker's output: per query, a [`canonical_sort`]ed run and a
/// match count.
struct ShardOutcome {
    runs: Vec<Vec<Match>>,
    counts: Vec<u64>,
    events_routed: u64,
    metrics: EngineMetrics,
}

/// One worker: builds what it runs, drains its queue batch by batch,
/// flushes on channel close, and hands back one [`canonical_sort`]ed run
/// per query for the merge. Latency accounting mirrors
/// [`run_to_completion`](cep_core::engine::run_to_completion); the samples
/// land in a local snapshot absorbed into the final metrics once (absorb
/// leaves `events_processed` / `wall_time_ns` untouched), which works for
/// any engine, wrappers that fold their view on read included.
fn worker<W: ShardWork>(
    build: &(dyn Fn() -> Result<W, CepError> + Sync),
    queries: usize,
    rx: Receiver<Vec<&EventRef>>,
    collect_matches: bool,
    queue_depth: Option<&AtomicU64>,
) -> Result<ShardOutcome, CepError> {
    let mut work = build()?;
    let mut runs: Vec<Vec<Match>> = (0..queries).map(|_| Vec::new()).collect();
    let mut counts = vec![0u64; queries];
    let mut scratch = Vec::new();
    let mut sampled = EngineMetrics::new();
    let mut events_routed = 0u64;
    let mut busy_ns = 0u64;
    let mut drain = |scratch: &mut Vec<W::Emitted>, sampled: &mut EngineMetrics, since: Instant| {
        if scratch.is_empty() {
            return;
        }
        let latency = since.elapsed().as_nanos() as u64;
        sampled
            .match_latency_ns
            .record_n(latency, scratch.len() as u64);
        W::deliver(scratch, &mut runs, &mut counts, collect_matches);
    };
    while let Ok(batch) = rx.recv() {
        if let Some(d) = queue_depth {
            d.fetch_sub(1, Ordering::Relaxed);
        }
        let batch_start = Instant::now();
        for &event in &batch {
            let ev_start = Instant::now();
            work.process(event, &mut scratch);
            events_routed += 1;
            if events_routed & EVENT_SAMPLE_MASK == 0 {
                let dt = ev_start.elapsed().as_nanos() as u64;
                sampled.event_ns.record(dt);
            }
            drain(&mut scratch, &mut sampled, ev_start);
        }
        busy_ns += batch_start.elapsed().as_nanos() as u64;
    }
    let flush_start = Instant::now();
    work.flush(&mut scratch);
    drain(&mut scratch, &mut sampled, flush_start);
    busy_ns += flush_start.elapsed().as_nanos() as u64;
    runs.iter_mut().for_each(|run| canonical_sort(run));
    let mut metrics = work.metrics();
    metrics.wall_time_ns += busy_ns;
    metrics.absorb(&sampled);
    Ok(ShardOutcome {
        runs,
        counts,
        events_routed,
        metrics,
    })
}

/// The message of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Routes and batches the whole stream into the worker channels,
/// consuming — and thereby closing — the senders so workers flush and
/// return. Returns the number of extra broadcast deliveries
/// ([`EngineMetrics::replicated_events`]) and of late events
/// ([`EngineMetrics::late_events_dropped`]). A late event is dropped here,
/// against the whole stream's watermark and before routing: a shard sees
/// only its slice of the stream, so its own watermark lags.
///
/// Batches carry references into `stream`, not `Arc` clones: the workers
/// are scoped threads that end before the caller's borrow of the stream
/// does, so routing and broadcast cost no refcount traffic.
fn route_and_feed<'s>(
    tracer: &Tracer,
    router: &mut ShardRouter,
    stream: &'s EventStream,
    txs: Vec<SyncSender<Vec<&'s EventRef>>>,
    depths: &[AtomicU64],
    batch_size: usize,
) -> (u64, u64) {
    let shards = txs.len();
    let traced = tracer.is_enabled();
    let (mut replicated_extra, mut late, mut watermark) = (0u64, 0u64, 0);
    let mut batches: Vec<Vec<&EventRef>> = (0..shards)
        .map(|_| Vec::with_capacity(batch_size))
        .collect();
    let send_batch = |shard: usize, full: Vec<&'s EventRef>| {
        if traced {
            let queue_depth = depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
            let len = full.len() as u64;
            tracer.emit_with(|| TraceRecord::ShardBatch {
                shard: shard as u64,
                len,
                queue_depth,
            });
        }
        // A send only fails if the worker died; its error resurfaces at
        // the caller's join.
        let _ = txs[shard].send(full);
    };
    let push = |shard: usize, event: &'s EventRef, batches: &mut Vec<Vec<&'s EventRef>>| {
        batches[shard].push(event);
        if batches[shard].len() >= batch_size {
            let full = std::mem::replace(&mut batches[shard], Vec::with_capacity(batch_size));
            send_batch(shard, full);
        }
    };
    for event in stream {
        if !advance_watermark(&mut watermark, event.ts) {
            late += 1;
            continue;
        }
        let target = router.route_target(event);
        if traced && event.seq & ROUTE_SAMPLE_MASK == 0 {
            tracer.emit_with(|| TraceRecord::ShardRoute {
                seq: event.seq,
                ts: event.ts,
                shard: match target {
                    RouteTarget::One(s) => s as u64,
                    RouteTarget::All => 0,
                },
                broadcast: matches!(target, RouteTarget::All),
            });
        }
        match target {
            RouteTarget::One(shard) => push(shard, event, &mut batches),
            RouteTarget::All => {
                replicated_extra += shards as u64 - 1;
                for shard in 0..shards {
                    push(shard, event, &mut batches);
                }
            }
        }
    }
    for (shard, batch) in batches.into_iter().enumerate() {
        if !batch.is_empty() {
            send_batch(shard, batch);
        }
    }
    drop(txs); // close the channels: workers flush and return
    (replicated_extra, late)
}

/// Sorts matches into the canonical deterministic order used to merge
/// per-shard outputs ([`Match::canonical_cmp`]): by emission watermark,
/// then by the timestamp of the last contributing event, then by the bound
/// `(position, serial numbers)` signature. The key identifies a match
/// completely, so the order is total and independent of shard count —
/// applying this sort to a single-threaded engine's output yields exactly
/// what a sharded run returns whenever the query is partition-local.
///
/// Input already in emission order (`emitted_at` non-decreasing, as every
/// engine emits) costs O(n): only the runs of equal `emitted_at` are
/// sorted. Any other input is sorted whole in O(n log n). Neither
/// allocates.
pub fn canonical_sort(matches: &mut [Match]) {
    if matches.is_sorted_by_key(|m| m.emitted_at) {
        for run in matches.chunk_by_mut(|a, b| a.emitted_at == b.emitted_at) {
            run.sort_unstable_by(Match::canonical_cmp);
        }
    } else {
        matches.sort_unstable_by(Match::canonical_cmp);
    }
}

/// Merges per-shard runs, each already in [`canonical_sort`] order, into
/// one canonically ordered vector; equal matches keep shard order. A lone
/// non-empty run is moved, not copied.
fn merge_runs(runs: Vec<Vec<Match>>) -> Vec<Match> {
    let mut runs: Vec<_> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut runs: Vec<_> = runs.into_iter().map(|r| r.into_iter().peekable()).collect();
    // `min_by` keeps the first of equal heads: the lower shard index.
    while let Some((i, _)) = runs
        .iter_mut()
        .enumerate()
        .filter_map(|(i, r)| Some(i).zip(r.peek()))
        .min_by(|(_, a), (_, b)| a.canonical_cmp(b))
    {
        out.extend(runs[i].next());
    }
    out
}

/// A match keyed by its signature alone: hashing and equality walk the
/// bindings in place and ignore `last_ts` / `emitted_at`.
struct BySignature<'a>(&'a Match);

impl Hash for BySignature<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash_signature(state);
    }
}

impl PartialEq for BySignature<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.signature_cmp(other.0).is_eq()
    }
}

impl Eq for BySignature<'_> {}

/// Drops every match whose signature already occurred earlier in
/// `matches` (so the canonically first copy survives when `matches` is
/// canonically sorted) and returns how many were dropped.
fn dedup_by_signature(matches: &mut Vec<Match>) -> u64 {
    let mut seen = HashSet::with_capacity(matches.len());
    let keep: Vec<bool> = matches
        .iter()
        .map(|m| seen.insert(BySignature(m)))
        .collect();
    drop(seen); // releases the borrow of `matches`
    let mut keep = keep.into_iter();
    let before = matches.len();
    matches.retain(|_| keep.next() == Some(true));
    (before - matches.len()) as u64
}
