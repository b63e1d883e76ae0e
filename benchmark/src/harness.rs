//! The passes of one workload invocation, in order:
//!
//! with `--trace 1`, staged set-up → oracle slice → 1 memory rep
//! (counting allocator on; it doubles as the warm-up) → throughput reps
//! (bare loop, a clock pair per leg, counting allocator off) → per-call
//! reps (one clock reading per call into a pre-allocated `Vec`; this is
//! the traced run) → with `--trace 1`, the runtime wrapper's baseline
//! (serial engine for the sharded workload, never-swapped engine for the
//! adaptive one). A few *side rounds* at the start and one after every
//! rep take the short measurements: a reading of the machine's speed,
//! set-up batches, an ingest rep.
//!
//! Load model: closed loop, one caller. The library's API is a
//! synchronous push and has no ingest queue, so the stream is built
//! first and replayed as fast as the system accepts it; throughput is
//! events offered ÷ wall at a fixed event count. A rep is: for each
//! query of the workload, a fresh system over the whole stream, then
//! `flush`.

use crate::alloc;
use crate::driver::{Counters, Digest, Driver, EngineDriver, RegistryDriver};
use crate::hist::Histogram;
use crate::refkernel::RefKernel;
use crate::report::{Row, DEFAULT_SEED, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::trace::{Spans, CHUNK};
use crate::workloads::{Shape, Workload};
use cep::analyze::analyze_pattern;
use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, Engine, EngineFactory, MultiEngine};
use cep::core::error::CepError;
use cep::core::event::{Event, EventRef, TypeId};
use cep::core::matches::Match;
use cep::core::naive::NaiveEngine;
use cep::core::pattern::Pattern;
use cep::core::stream::{EventStream, StreamBuilder};
use cep::core::value::Value;
use cep::optimizer::Planner;
use cep::sase::parse_pattern;
use cep::shard::{canonical_sort, RoutingPolicy, ShardRouter, ShardedRuntime};
use cep::streamgen::{analytic_measured_stats, analytic_selectivities};
use cep::{Backend, EngineBuilder, RegistryBuilder};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Options {
    pub seed: u64,
    /// Nominal measuring time; selects rep counts (see [`rep_counts`]).
    pub seconds: u32,
    pub trace: bool,
    pub trace_file: Option<PathBuf>,
}

const SIDE_ROUNDS_AT_START: usize = 3;
const SETUP_BATCHES_PER_ROUND: usize = 2;
/// Events one ingest rep builds streams from.
const INGEST_EVENTS: usize = 300_000;
/// A throughput rep is timed in about this many legs. The machine
/// changes speed from one second to the next; a leg of a tenth of a
/// second mostly sees one speed, and the rep's wall is rebuilt from
/// each leg's best time over the reps.
const LEGS_PER_REP: usize = 24;
const STAGED_REPS: usize = 9;
const BASELINE_REPS: usize = 2;

/// `(throughput reps, per-call reps)` for a nominal `--seconds`: 4 and 3
/// at the benchmark's own 10 s. A rep's work is a constant of the
/// workload, so the count of reps is the only thing time can buy. A
/// traced invocation gives one throughput rep to the baseline pass, so
/// both kinds take about as long.
pub fn rep_counts(seconds: u32, trace: bool) -> (usize, usize) {
    let s = seconds.max(1) as usize;
    let throughput = (s * 2 / 5).max(3) - usize::from(trace && s >= 10);
    (throughput, (s * 3).div_ceil(10).max(2))
}

/// Worker shards of the sharded workload: one thread stays free for the
/// routing caller, and never more threads than processors.
pub fn shard_workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    nproc.saturating_sub(1).clamp(1, 3)
}

/// Readings of the machine's slowness (see [`RefKernel`]), taken between
/// the passes and reps of a run.
///
/// The machine flips between a few discrete speeds from one second to
/// the next. Pairing a timed leg with the reading next to it would pair
/// speeds that often differ; instead every timed quantity is taken at
/// its best over its repetitions and divided by the *best* reading of
/// the run — both then belong to the fastest speed the run saw.
struct Machine {
    kernel: RefKernel,
    /// The run's slowness: its lowest reading so far.
    slowness: f64,
}

impl Machine {
    fn new() -> Machine {
        Machine {
            kernel: RefKernel::new(),
            slowness: f64::INFINITY,
        }
    }

    fn read(&mut self) {
        self.slowness = self.slowness.min(self.kernel.slowness());
    }
}

/// A set-up system: one driver per query (one in all for a registry),
/// and for the sharded shape the factory its workers build from.
pub struct Ready {
    pub drivers: Vec<Box<dyn Driver>>,
    pub factory: Option<Box<dyn EngineFactory>>,
}

fn builder<'a>(w: &'a Workload, pattern: &'a Pattern, adaptive: bool) -> EngineBuilder<'a> {
    let mut b = cep::engine(pattern)
        .backend(w.backend)
        .config(w.config.clone());
    if let Some(stats) = &w.stats {
        b = b.stats(stats);
    }
    match &w.shape {
        Shape::Adaptive(cfg) if adaptive => b.full_adaptive(cfg.clone()),
        _ => b,
    }
}

fn registry_builder(w: &Workload) -> RegistryBuilder {
    let rb = cep::registry().backend(w.backend).config(w.config.clone());
    match &w.stats {
        Some(stats) => rb.stats(stats),
        None => rb,
    }
}

fn lint(w: &Workload, pattern: &Pattern) -> Result<(), CepError> {
    let report = analyze_pattern(pattern, &w.catalog)?;
    if report.has_errors() {
        return Err(CepError::Pattern(format!(
            "{}: a workload query fails the linter",
            w.name
        )));
    }
    Ok(())
}

/// Query text → ready system through the facade builders, as a user
/// would: parse → lint → (compile → stats → plan → lower → construct
/// inside `build`). Every call starts from cold plan caches.
pub fn setup(w: &Workload, adaptive: bool) -> Result<Ready, CepError> {
    let mut patterns = Vec::with_capacity(w.queries.len());
    for q in &w.queries {
        let p = parse_pattern(&q.text, &w.catalog)?;
        lint(w, &p)?;
        patterns.push(p);
    }
    match w.shape {
        Shape::Engines | Shape::Adaptive(_) => Ok(Ready {
            drivers: patterns
                .iter()
                .map(|p| {
                    let engine = builder(w, p, adaptive).build()?;
                    Ok(Box::new(EngineDriver::new(engine)) as Box<dyn Driver>)
                })
                .collect::<Result<_, CepError>>()?,
            factory: None,
        }),
        Shape::Registry => {
            let mut registry = registry_builder(w).build()?;
            for p in &patterns {
                registry.register(p)?;
            }
            Ok(Ready {
                drivers: vec![Box::new(RegistryDriver::new(registry))],
                factory: None,
            })
        }
        Shape::Sharded => {
            let factory = builder(w, &patterns[0], adaptive).factory()?;
            Ok(Ready {
                drivers: vec![Box::new(EngineDriver::new(factory.build()))],
                factory: Some(factory),
            })
        }
    }
}

/// Set-up again, one public call at a time, each under its own clock
/// pair. The facade's `build` repeats compile/stats/plan inside; what is
/// timed here is each layer's public entry point on its own.
#[derive(Default, Clone, Copy)]
struct Staged {
    parse: Duration,
    lint: Duration,
    compile: Duration,
    stats: Duration,
    plan: Duration,
    build: Duration,
    register: Duration,
    plan_cost: f64,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

fn staged_setup(w: &Workload) -> Result<Staged, CepError> {
    let mut s = Staged::default();
    let planner = Planner::default();
    let mut patterns = Vec::with_capacity(w.queries.len());
    for q in &w.queries {
        let p = timed(&mut s.parse, || parse_pattern(&q.text, &w.catalog))?;
        timed(&mut s.lint, || lint(w, &p))?;
        let branches = timed(&mut s.compile, || CompiledPattern::compile(&p))?;
        if let (Some(gen), false) = (&w.stats, w.backend == Backend::Delta) {
            let stats = timed(&mut s.stats, || {
                let measured = analytic_measured_stats(gen);
                branches
                    .iter()
                    .map(|cp| planner.stats_for(cp, &measured, &analytic_selectivities(cp, gen)))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            for (cp, st) in branches.iter().zip(&stats) {
                let cm = planner.cost_model(cp);
                s.plan_cost += match w.backend {
                    Backend::Nfa(alg) => {
                        let plan = timed(&mut s.plan, || planner.plan_order(cp, st, alg))?;
                        cm.order_plan_cost(st, &plan)
                    }
                    Backend::Tree(alg) => {
                        let plan = timed(&mut s.plan, || planner.plan_tree(cp, st, alg))?;
                        cm.tree_plan_cost(st, &plan)
                    }
                    Backend::Delta => 0.0,
                };
            }
        }
        patterns.push(p);
    }
    match w.shape {
        Shape::Registry => {
            let mut registry = timed(&mut s.build, || registry_builder(w).build())?;
            timed(&mut s.register, || {
                patterns
                    .iter()
                    .try_for_each(|p| registry.register(p).map(drop))
            })?;
        }
        _ => {
            for p in &patterns {
                black_box(timed(&mut s.build, || builder(w, p, true).build())?);
            }
        }
    }
    Ok(s)
}

type RawRow = (TypeId, u64, u32, Vec<Value>);

/// The events the ingest pass rebuilds streams from.
fn ingest_slice(w: &Workload) -> &[EventRef] {
    &w.stream[..w.stream.len().min(INGEST_EVENTS)]
}

fn raw_rows(events: &[EventRef]) -> Vec<RawRow> {
    events
        .iter()
        .map(|e| (e.type_id, e.ts, e.partition, e.attrs.clone()))
        .collect()
}

/// Owned raw rows → `Event::new` → `StreamBuilder` → `build()`.
fn ingest(rows: Vec<RawRow>) -> Result<EventStream, CepError> {
    let mut b = StreamBuilder::new();
    for (ty, ts, partition, attrs) in rows {
        b.try_push_partitioned(Event::new(ty, ts, attrs), partition)?;
    }
    Ok(b.build())
}

type MatchKey = (Vec<(usize, Vec<u64>)>, u64);

fn key_of(m: &Match) -> MatchKey {
    (m.signature(), m.emitted_at)
}

/// Naive-oracle comparison on the workload's oracle slice, by signature
/// and `emitted_at`: `(reference matches, missing + extra)`.
fn oracle_check(w: &Workload) -> Result<(u64, u64), CepError> {
    let slice = &w.oracle;
    let mut reference_by_text: HashMap<&str, Vec<MatchKey>> = HashMap::new();
    for (q, query) in w.queries.iter().enumerate() {
        if reference_by_text.contains_key(query.text.as_str()) {
            continue;
        }
        let pattern = w.parse(q)?;
        let mut naive: Vec<Box<dyn Engine>> = CompiledPattern::compile(&pattern)?
            .into_iter()
            .map(|cp| Box::new(NaiveEngine::new(cp, w.config.clone())) as Box<dyn Engine>)
            .collect();
        let mut oracle: Box<dyn Engine> = if naive.len() == 1 {
            naive.pop().expect("one branch")
        } else {
            Box::new(MultiEngine::new(naive, pattern.window))
        };
        let mut keys: Vec<MatchKey> = run_to_completion(oracle.as_mut(), slice, true)
            .matches
            .iter()
            .map(key_of)
            .collect();
        keys.sort();
        reference_by_text.insert(&query.text, keys);
    }

    // The system's output on the same slice, per query.
    let mut system: Vec<Vec<MatchKey>> = vec![Vec::new(); w.queries.len()];
    let ready = setup(w, true)?;
    if let Some(factory) = &ready.factory {
        let run = ShardedRuntime::with_shards(shard_workers()).run(
            factory.as_ref(),
            slice,
            RoutingPolicy::Partition,
            true,
        );
        system[0] = run.matches.iter().map(key_of).collect();
    } else {
        for (d, mut driver) in ready.drivers.into_iter().enumerate() {
            for e in slice {
                driver.process(e);
            }
            driver.flush();
            // A registry tags matches with query id + 1 (ids count up
            // from 0 in registration order); a bare engine tags 0.
            driver.visit(&mut |tag, m| {
                let q = if tag == 0 { d } else { tag as usize - 1 };
                system[q].push(key_of(m));
            });
        }
    }

    let (mut reference, mut wrong) = (0u64, 0u64);
    for (q, mut got) in system.into_iter().enumerate() {
        got.sort();
        let want = &reference_by_text[w.queries[q].text.as_str()];
        reference += want.len() as u64;
        // Multiset symmetric difference of two sorted lists.
        let (mut i, mut j) = (0, 0);
        while i < want.len() && j < got.len() {
            match want[i].cmp(&got[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    wrong += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    wrong += 1;
                    j += 1;
                }
            }
        }
        wrong += (want.len() - i + got.len() - j) as u64;
    }
    Ok((reference, wrong))
}

/// Events per leg of a rep of `drivers` queries over `events` events: a
/// whole number of span chunks, so that a per-call rep can sum its legs
/// chunk by chunk.
fn leg_len(events: usize, drivers: usize) -> usize {
    let legs_per_driver = (LEGS_PER_REP / drivers).max(1);
    events.div_ceil(legs_per_driver).next_multiple_of(CHUNK)
}

/// What a rep without per-call clocks yields.
struct BareRep {
    /// Wall of every leg, in ns: query after query, leg after leg.
    legs_ns: Vec<f64>,
    events: u64,
    matches: u64,
    /// Set when the whole output was at hand after the clock stopped
    /// (sharded runs collect it anyway).
    digest: Option<Digest>,
    /// Σ worker busy ns, workers, imbalance and routed skew, for the
    /// sharded shape.
    shard: Option<(u64, usize, f64, f64)>,
}

impl BareRep {
    fn wall_ns(&self) -> f64 {
        self.legs_ns.iter().sum()
    }
}

/// Events offered per second with every leg at its best over `reps`.
fn best_legs_eps(reps: &[BareRep]) -> f64 {
    let wall_ns: f64 = (0..reps[0].legs_ns.len())
        .map(|l| {
            reps.iter()
                .map(|r| r.legs_ns[l])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    reps[0].events as f64 / (wall_ns / 1e9)
}

fn bare_rep(w: &Workload, ready: Ready) -> BareRep {
    if let Some(factory) = &ready.factory {
        let workers = shard_workers();
        let runtime = ShardedRuntime::with_shards(workers);
        let t = Instant::now();
        let run = runtime.run(factory.as_ref(), &w.stream, RoutingPolicy::Partition, true);
        let wall_ns = t.elapsed().as_nanos() as f64;
        let mut digest = Digest::default();
        run.matches.iter().for_each(|m| digest.add(0, m));
        let busy: u64 = run.per_shard.iter().map(|s| s.metrics.wall_time_ns).sum();
        let routed: Vec<u64> = run.per_shard.iter().map(|s| s.events_routed).collect();
        let mean = routed.iter().sum::<u64>() as f64 / routed.len() as f64;
        let skew = routed.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
        return BareRep {
            legs_ns: vec![wall_ns],
            events: w.stream.len() as u64,
            matches: run.match_count,
            digest: Some(digest),
            shard: Some((busy, workers, run.imbalance_ratio(), skew)),
        };
    }
    let leg_len = leg_len(w.stream.len(), ready.drivers.len());
    let last_leg = w.stream.chunks(leg_len).count() - 1;
    let mut legs_ns = Vec::with_capacity(LEGS_PER_REP + ready.drivers.len());
    let (mut events, mut matches) = (0u64, 0u64);
    for mut driver in ready.drivers {
        for (l, leg) in w.stream.chunks(leg_len).enumerate() {
            let t = Instant::now();
            for e in leg {
                let n = driver.process(e);
                if n > 0 {
                    matches += n as u64;
                    driver.discard();
                }
            }
            if l == last_leg {
                matches += driver.flush() as u64;
                driver.discard();
            }
            legs_ns.push(t.elapsed().as_nanos() as f64);
        }
        events += w.stream.len() as u64;
    }
    BareRep {
        legs_ns,
        events,
        matches,
        digest: None,
        shard: None,
    }
}

/// Top bit of a per-call duration: the call handed back ≥ 1 match.
const COMPLETING: u32 = 1 << 31;

/// What the per-call reps accumulate, across reps.
#[derive(Default)]
struct PerCall {
    gate: Histogram,
    join: Histogram,
    emit: Histogram,
    /// Every completing call, `flush` included — the detection latency:
    /// per rep, per (query, leg), the Σ duration of the leg's calls and
    /// the histogram of its completing ones.
    detect_legs: Vec<Vec<(u64, Histogram)>>,
    all: Histogram,
    walls_ns: Vec<f64>,
    flush_ns: Vec<f64>,
    calls: u64,
    gate_calls: u64,
    completing_calls: u64,
    matches: u64,
    counters: Counters,
    digests: Vec<Digest>,
    sharing: Option<(usize, f64)>,
}

fn percall_rep(
    w: &Workload,
    ready: Ready,
    masks: &[Vec<bool>],
    dur: &mut Vec<u32>,
    pc: &mut PerCall,
    spans: &mut Spans,
    root: usize,
) {
    let rep_span = spans.open("rep", Some(root));
    let n = w.stream.len();
    let (mut wall, mut flush_total) = (0u64, 0u64);
    let mut digest = Digest::default();
    let mut counters = Counters::default();
    let mut detect_legs: Vec<(u64, Histogram)> = Vec::new();
    let leg_len = leg_len(n, ready.drivers.len());
    let mut chunk_starts: Vec<Instant> = Vec::with_capacity(n / CHUNK + 2);
    for (mut driver, mask) in ready.drivers.into_iter().zip(masks) {
        dur.clear();
        dur.resize(n, 0);
        chunk_starts.clear();
        let mut add = |tag: u64, m: &Match| digest.add(tag, m);
        let q_start = Instant::now();
        let mut t = q_start;
        for (i, e) in w.stream.iter().enumerate() {
            if i % CHUNK == 0 {
                chunk_starts.push(t);
            }
            let got = driver.process(e);
            let t1 = Instant::now();
            let ns = (t1 - t).as_nanos().min((COMPLETING - 1) as u128) as u32;
            if got == 0 {
                dur[i] = ns;
                t = t1;
            } else {
                dur[i] = ns | COMPLETING;
                pc.matches += got as u64;
                driver.visit(&mut add);
                t = Instant::now();
            }
        }
        let flush_start = t;
        let got = driver.flush();
        let flush_end = Instant::now();
        let flush_ns = (flush_end - flush_start).as_nanos() as u64;
        driver.visit(&mut add);
        let q_end = Instant::now();
        wall += (q_end - q_start).as_nanos() as u64;
        flush_total += flush_ns;
        counters.add(&driver.counters());
        pc.sharing = pc.sharing.or(driver.sharing());

        let q_span = spans.add("query", Some(rep_span), spans.at(q_start), spans.at(q_end));
        for (c, calls) in dur.chunks(CHUNK).enumerate() {
            if (c * CHUNK).is_multiple_of(leg_len) {
                detect_legs.push((0, Histogram::default()));
            }
            let leg = detect_legs.last_mut().expect("a leg was opened");
            let (mut gate_ns, mut join_ns, mut emit_ns) = (0u64, 0u64, 0u64);
            for (&d, &gated) in calls.iter().zip(&mask[c * CHUNK..]) {
                let ns = (d & !COMPLETING) as u64;
                pc.all.record(ns);
                leg.0 += ns;
                if d & COMPLETING != 0 {
                    pc.emit.record(ns);
                    leg.1.record(ns);
                    pc.completing_calls += 1;
                    emit_ns += ns;
                } else if gated {
                    pc.gate.record(ns);
                    pc.gate_calls += 1;
                    gate_ns += ns;
                } else {
                    pc.join.record(ns);
                    join_ns += ns;
                }
            }
            let mut at = spans.at(chunk_starts[c]);
            for (name, ns) in [
                ("process[gate]", gate_ns),
                ("process[join]", join_ns),
                ("process[emit]", emit_ns),
            ] {
                if ns > 0 {
                    spans.add(name, Some(q_span), at, at + ns);
                    at += ns;
                }
            }
        }
        spans.add(
            "flush",
            Some(q_span),
            spans.at(flush_start),
            spans.at(flush_end),
        );
        if got > 0 {
            pc.matches += got as u64;
            pc.completing_calls += 1;
            let leg = detect_legs.last_mut().expect("a leg was opened");
            leg.0 += flush_ns;
            leg.1.record(flush_ns);
        }
        pc.calls += n as u64;
    }
    spans.close(rep_span);
    pc.walls_ns.push(wall as f64);
    pc.flush_ns.push(flush_total as f64);
    pc.counters = counters;
    pc.digests.push(digest);
    pc.detect_legs.push(detect_legs);
}

/// The detection latencies of one rep put together from every leg's
/// fastest run over the reps. The machine flips between a few speeds and
/// a slow leg's calls are all slow; a percentile over every call of one
/// rep mixes speeds in proportions that differ from run to run. Leg by
/// leg, the fastest of the reps finds the fast speed, as
/// [`best_legs_eps`] does for throughput, and every leg still counts
/// once.
fn best_legs_detect(reps: &[Vec<(u64, Histogram)>]) -> Histogram {
    pooled((0..reps[0].len()).map(|l| {
        let fastest = reps.iter().map(|r| &r[l]).min_by_key(|leg| leg.0);
        &fastest.expect("at least one rep").1
    }))
}

fn pooled<'a>(histograms: impl Iterator<Item = &'a Histogram>) -> Histogram {
    let mut all = Histogram::default();
    histograms.for_each(|h| all.merge(h));
    all
}

/// What the memory rep yields.
#[derive(Default)]
struct MemoryRep {
    peak: u64,
    allocs: u64,
    bytes: u64,
    gate_allocs: u64,
    gate_events: u64,
    emit_allocs: u64,
    events: u64,
    matches: u64,
    digest: Digest,
    est_peak_bytes: u64,
}

fn memory_rep(w: &Workload, ready: Ready, masks: &[Vec<bool>]) -> MemoryRep {
    let mut out = MemoryRep::default();
    if let Some(factory) = &ready.factory {
        let runtime = ShardedRuntime::with_shards(shard_workers());
        alloc::start();
        let run = runtime.run(factory.as_ref(), &w.stream, RoutingPolicy::Partition, true);
        let heap = alloc::stop();
        run.matches.iter().for_each(|m| out.digest.add(0, m));
        out.peak = heap.peak;
        out.allocs = heap.allocs;
        out.bytes = heap.bytes;
        out.events = w.stream.len() as u64;
        out.matches = run.match_count;
        out.est_peak_bytes = run.metrics.peak_memory_bytes as u64;
        return out;
    }
    for (mut driver, mask) in ready.drivers.into_iter().zip(masks) {
        let digest = &mut out.digest;
        let mut add = |tag: u64, m: &Match| digest.add(tag, m);
        alloc::start();
        for (e, &gated) in w.stream.iter().zip(mask) {
            let before = alloc::thread_allocs();
            let got = driver.process(e);
            let allocs = alloc::thread_allocs() - before;
            if got > 0 {
                out.emit_allocs += allocs;
                out.matches += got as u64;
                driver.visit(&mut add);
            } else if gated {
                out.gate_allocs += allocs;
                out.gate_events += 1;
            }
        }
        out.matches += driver.flush() as u64;
        driver.visit(&mut add);
        // Peaks add over the queries of a rep: they run one after the
        // other here, and a deployment would hold them all at once.
        let heap = alloc::stop();
        out.peak += heap.peak;
        out.allocs += heap.allocs;
        out.bytes += heap.bytes;
        out.events += w.stream.len() as u64;
        out.est_peak_bytes += driver.counters().est_peak_bytes;
    }
    out
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Throughput of [`BASELINE_REPS`] reps of the runtime wrapper's
/// baseline, estimated the way the throughput reps' is; not normalised.
fn baseline_eps(
    machine: &mut Machine,
    mut rep: impl FnMut() -> Result<BareRep, CepError>,
) -> Result<f64, CepError> {
    let mut reps = Vec::with_capacity(BASELINE_REPS);
    for _ in 0..BASELINE_REPS {
        reps.push(rep()?);
        machine.read();
    }
    Ok(best_legs_eps(&reps))
}

/// The short measurements taken in rounds between the reps.
struct Side {
    machine: Machine,
    /// Seconds per set-up of the whole query set, one per batch.
    setup_s: Vec<f64>,
    ingest_eps: Vec<f64>,
}

impl Side {
    fn new() -> Side {
        Side {
            machine: Machine::new(),
            setup_s: Vec::new(),
            ingest_eps: Vec::new(),
        }
    }

    /// One reading of the machine, [`SETUP_BATCHES_PER_ROUND`] set-up
    /// batches and one ingest rep.
    fn round(&mut self, w: &Workload) -> Result<(), CepError> {
        self.machine.read();
        // Set-up, cold caches each time. One set-up lasts well under a
        // millisecond on most workloads, so the clock goes around a
        // batch of them.
        for _ in 0..SETUP_BATCHES_PER_ROUND {
            let t = Instant::now();
            for _ in 0..w.setup_batch {
                black_box(setup(w, true)?);
            }
            self.setup_s
                .push(t.elapsed().as_secs_f64() / w.setup_batch as f64);
        }
        // A short stream's slice is built several times over, to make
        // the rep [`INGEST_EVENTS`] long.
        let slice = ingest_slice(w);
        let copies = INGEST_EVENTS.div_ceil(slice.len());
        let rows: Vec<Vec<RawRow>> = (0..copies).map(|_| raw_rows(slice)).collect();
        let t = Instant::now();
        for rows in rows {
            assert_eq!(ingest(rows)?.len(), slice.len());
        }
        let events = (copies * slice.len()) as f64;
        self.ingest_eps.push(events / t.elapsed().as_secs_f64());
        Ok(())
    }
}

/// Runs every pass of one workload and assembles its row.
pub fn run(
    name: &str,
    opts: &Options,
    expected: Option<(u64, u64)>,
) -> Result<Row, Box<dyn std::error::Error>> {
    let (throughput_reps, percall_reps) = rep_counts(opts.seconds, opts.trace);
    let mut pass_clock = Instant::now();
    let mut pass = |what: &str| {
        eprintln!("[pass] {what}: {:.3} s", pass_clock.elapsed().as_secs_f64());
        pass_clock = Instant::now();
    };
    let gen_start = Instant::now();
    let w = crate::workloads::build(name, opts.seed)?;
    let gen_s = gen_start.elapsed().as_secs_f64();
    let masks = w.driver_gate_masks()?;
    // Memory is a function of program and input alone, and the height of
    // a run's largest burst of partial matches moves by 15–40 % from
    // seed to seed: the memory rep always runs the default seed's
    // stream, so that its numbers move only when the program does.
    let memory_workload = if opts.seed == DEFAULT_SEED {
        None
    } else {
        Some(crate::workloads::build(name, DEFAULT_SEED)?)
    };
    let memory_masks = match &memory_workload {
        Some(mw) => Some(mw.driver_gate_masks()?),
        None => None,
    };
    let (mw, memory_masks) = match (&memory_workload, &memory_masks) {
        (Some(mw), Some(masks)) => (mw, masks),
        _ => (&w, &masks),
    };
    pass(&format!("generate {} events", w.stream.len()));
    let mut spans = Spans::new(format!("{name}#{:x}", opts.seed));
    let root = spans.open("workload", None);
    let mut layer: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|p| (p.name, 0.0)).collect();

    // Set-up batches, ingest reps and readings of the machine's speed
    // are spread over the whole run, a few after every rep: taken back
    // to back they would all see the one speed of that half second.
    let mut side = Side::new();
    for _ in 0..SIDE_ROUNDS_AT_START {
        side.round(&w)?;
    }
    pass("set-up batches, ingest reps");

    // the same, one public call at a time
    if opts.trace {
        let setup_span = spans.open("setup", Some(root));
        let staged: Vec<Staged> = (0..STAGED_REPS)
            .map(|_| staged_setup(&w))
            .collect::<Result<_, _>>()?;
        spans.close(setup_span);
        // Children of the `setup` span: each stage's total over the
        // STAGED_REPS repetitions, laid end to end from the span's start.
        let mut at = spans.start_of(setup_span);
        type Stage = (&'static str, &'static str, fn(&Staged) -> Duration);
        let stages: [Stage; 7] = [
            ("sase.parse_us", "setup.parse", |s| s.parse),
            ("analyze.lint_us", "setup.lint", |s| s.lint),
            ("core.compile_us", "setup.compile", |s| s.compile),
            ("optimizer.stats_us", "setup.stats", |s| s.stats),
            ("optimizer.plan_us", "setup.plan", |s| s.plan),
            ("facade.build_us", "setup.build", |s| s.build),
            ("registry.register_us", "setup.register", |s| s.register),
        ];
        for (metric, span_name, stage) in stages {
            let each: Vec<f64> = staged.iter().map(|s| us(stage(s))).collect();
            layer.insert(metric, median(&each));
            let total: u64 = staged.iter().map(|s| stage(s).as_nanos() as u64).sum();
            spans.add(span_name, Some(setup_span), at, at + total);
            at += total;
        }
        layer.insert("optimizer.plan_cost", staged[0].plan_cost);
        pass("staged set-up");
    }

    let rows = raw_rows(ingest_slice(&w));
    alloc::start();
    let built = ingest(rows)?;
    let heap = alloc::stop();
    layer.insert(
        "core.ingest_allocs_per_event",
        ratio(heap.allocs as f64, built.len() as f64),
    );
    drop(built);

    // oracle slice
    let (reference_matches, mut failed) = oracle_check(&w)?;
    pass(&format!("oracle, {reference_matches} reference matches"));

    // memory rep; the first pass over a whole stream, so also the warm-up
    let mem = memory_rep(mw, setup(mw, true)?, memory_masks);
    side.round(&w)?;
    pass(&format!("memory rep, {} matches", mem.matches));

    // throughput reps
    let mut bare: Vec<BareRep> = Vec::with_capacity(throughput_reps);
    for _ in 0..throughput_reps {
        bare.push(bare_rep(&w, setup(&w, true)?));
        side.round(&w)?;
    }
    pass("throughput reps");

    // per-call reps: the traced run
    let mut pc = PerCall::default();
    let mut dur: Vec<u32> = Vec::with_capacity(w.stream.len());
    for _ in 0..percall_reps {
        percall_rep(
            &w,
            setup(&w, true)?,
            &masks,
            &mut dur,
            &mut pc,
            &mut spans,
            root,
        );
        side.round(&w)?;
    }
    drop(dur);
    pass("per-call reps");

    // Every rep over the seed's stream must have produced the same
    // output as the first per-call rep: count always, digest wherever
    // one was taken. The memory rep answers to `expected.json`, as do
    // the others when the seed is the default one.
    let reference = pc.digests[0];
    let expected = expected.map(|(count, sum)| Digest { count, sum });
    let mut reps_checked = 0u64;
    let mut check = |matches: u64, digest: Option<Digest>, against: Digest| {
        reps_checked += 1;
        if matches != against.count || digest.is_some_and(|d| d != against) {
            failed += 1;
        }
    };
    bare.iter()
        .for_each(|r| check(r.matches, r.digest, reference));
    pc.digests
        .iter()
        .for_each(|d| check(d.count, Some(*d), reference));
    match (expected, &memory_workload) {
        (Some(expected), _) => check(mem.matches, Some(mem.digest), expected),
        (None, None) => check(mem.matches, Some(mem.digest), reference),
        (None, Some(_)) => {}
    }
    if let (Some(expected), None) = (expected, &memory_workload) {
        check(reference.count, Some(reference), expected);
    }

    // the runtime wrapper's baseline
    if opts.trace {
        match w.shape {
            Shape::Sharded => {
                let serial = baseline_eps(&mut side.machine, || {
                    let mut ready = setup(&w, true)?;
                    ready.factory = None; // drive the one bare engine
                    let r = bare_rep(&w, ready);
                    check(r.matches, None, reference);
                    Ok(r)
                })?;
                layer.insert("shard.vs_serial_ratio", ratio(best_legs_eps(&bare), serial));
                let workers = shard_workers();
                let mut router = ShardRouter::new(workers, RoutingPolicy::Partition);
                let rep_span = spans.open("rep", Some(root));
                let q_span = spans.open("query", Some(rep_span));
                let route_span = spans.open("route", Some(q_span));
                let t = Instant::now();
                for e in &w.stream {
                    black_box(router.route(e));
                }
                let route_ns = t.elapsed().as_nanos() as f64;
                spans.close(route_span);
                layer.insert("shard.route_ns_per_event", route_ns / w.stream.len() as f64);
                // `canonical_sort` on what the merge is handed: each
                // worker's emission-ordered output, one after the other.
                let mut per_shard: Vec<Vec<Match>> = vec![Vec::new(); workers];
                let mut serial = setup(&w, true)?.drivers.pop().expect("one driver");
                let mut router = ShardRouter::new(workers, RoutingPolicy::Partition);
                for e in &w.stream {
                    serial.process(e);
                }
                serial.flush();
                serial.visit(&mut |_, m| {
                    let first = m.events().next().expect("matches bind events");
                    per_shard[router.route(first)].push(m.clone());
                });
                let mut collected: Vec<Match> = per_shard.into_iter().flatten().collect();
                let merge_span = spans.open("merge", Some(q_span));
                let t = Instant::now();
                canonical_sort(&mut collected);
                layer.insert("shard.merge_ms", t.elapsed().as_secs_f64() * 1e3);
                spans.close(merge_span);
                spans.close(q_span);
                spans.close(rep_span);
            }
            Shape::Adaptive(_) => {
                let never_swapped = baseline_eps(&mut side.machine, || {
                    let r = bare_rep(&w, setup(&w, false)?);
                    check(r.matches, None, reference);
                    Ok(r)
                })?;
                layer.insert(
                    "adaptive.vs_static_ratio",
                    ratio(best_legs_eps(&bare), never_swapped),
                );
            }
            _ => {}
        }
        pass("baseline");
    }
    spans.close(root);

    // assemble
    let calls = pc.calls as f64;
    let reps = percall_reps as f64;
    let percall_wall: f64 = pc.walls_ns.iter().sum();
    let c = pc.counters; // of one rep: exact, the same in every rep
    let events_per_rep = calls / reps;
    let relevant_per_rep = (pc.calls - pc.gate_calls) as f64 / reps;
    let matches_per_rep = pc.matches as f64 / reps;
    layer.insert("engine.gate_ns_p50", pc.gate.quantile(0.5));
    layer.insert(
        "engine.gate_share",
        ratio(pc.gate.sum() as f64, percall_wall),
    );
    layer.insert("engine.join_ns_p50", pc.join.quantile(0.5));
    layer.insert("engine.join_ns_p99", pc.join.quantile(0.99));
    layer.insert(
        "engine.join_share",
        ratio(pc.join.sum() as f64, percall_wall),
    );
    layer.insert("engine.emit_ns_p50", pc.emit.quantile(0.5));
    layer.insert(
        "engine.emit_ns_per_match",
        ratio(pc.emit.sum() as f64, pc.matches as f64),
    );
    layer.insert(
        "engine.emit_share",
        ratio(pc.emit.sum() as f64, percall_wall),
    );
    layer.insert("engine.event_p999_us", pc.all.quantile(0.999) / 1e3);
    layer.insert("engine.flush_us", median(&pc.flush_ns) / 1e3);
    layer.insert(
        "engine.pred_evals_per_event",
        ratio(c.pred_evals as f64, events_per_rep),
    );
    layer.insert(
        "engine.pred_evals_per_relevant",
        ratio(c.pred_evals as f64, relevant_per_rep),
    );
    layer.insert(
        "engine.partials_per_event",
        ratio(c.partials_created as f64, events_per_rep),
    );
    layer.insert("engine.peak_partials", c.peak_partials as f64);
    layer.insert("engine.peak_buffered", c.peak_buffered as f64);
    layer.insert(
        "engine.match_yield",
        ratio(c.matches as f64, c.partials_created as f64),
    );
    layer.insert(
        "engine.matches_per_kevent",
        ratio(matches_per_rep * 1e3, events_per_rep),
    );
    layer.insert(
        "delta.index_probes_per_event",
        ratio(c.index_probes as f64, events_per_rep),
    );
    layer.insert(
        "delta.updates_per_event",
        ratio(c.delta_updates as f64, events_per_rep),
    );
    layer.insert(
        "core.plan_cache_hit_ratio",
        ratio(
            c.plan_cache_hits as f64,
            (c.plan_cache_hits + c.plan_cache_misses) as f64,
        ),
    );
    layer.insert(
        "heap.allocs_per_event",
        ratio(mem.allocs as f64, mem.events as f64),
    );
    layer.insert(
        "heap.bytes_per_event",
        ratio(mem.bytes as f64, mem.events as f64),
    );
    layer.insert(
        "heap.allocs_per_gate_event",
        ratio(mem.gate_allocs as f64, mem.gate_events as f64),
    );
    layer.insert(
        "heap.allocs_per_match",
        ratio(mem.emit_allocs as f64, mem.matches as f64),
    );
    layer.insert(
        "heap.est_vs_real_ratio",
        ratio(mem.est_peak_bytes as f64, mem.peak as f64),
    );
    if let Some((fragments, sharing)) = pc.sharing {
        layer.insert("registry.process_ns_p50", pc.all.quantile(0.5));
        layer.insert("registry.fragments", fragments as f64);
        layer.insert("registry.sharing_ratio", sharing);
        layer.insert(
            "registry.fanout_per_match",
            ratio(c.fanout_emits as f64, c.matches as f64),
        );
        layer.insert(
            "registry.pred_evals_per_event",
            ratio(c.pred_evals as f64, events_per_rep),
        );
    }
    if let Some((_, workers, _, _)) = bare[0].shard {
        let shard = |f: fn(&(u64, usize, f64, f64), &BareRep) -> f64| {
            median(
                &bare
                    .iter()
                    .map(|r| f(r.shard.as_ref().expect("sharded rep"), r))
                    .collect::<Vec<_>>(),
            )
        };
        layer.insert("shard.workers", workers as f64);
        layer.insert(
            "shard.busy_share",
            shard(|s, r| s.0 as f64 / (s.1 as f64 * r.wall_ns())),
        );
        layer.insert("shard.imbalance_ratio", shard(|s, _| s.2));
        layer.insert("shard.routed_skew", shard(|s, _| s.3));
    }
    if let Shape::Adaptive(_) = w.shape {
        layer.insert("adaptive.plan_swaps", c.plan_swaps as f64);
        layer.insert("adaptive.suppressed_swaps", c.suppressed_swaps as f64);
        layer.insert("adaptive.replayed_events", c.replayed_events as f64);
        layer.insert("adaptive.peak_retained", c.peak_retained as f64);
        layer.insert(
            "adaptive.replay_share",
            ratio(c.replay_ns as f64, percall_wall / reps),
        );
        layer.insert("adaptive.swap_stall_ms_max", pc.all.max() as f64 / 1e6);
    }
    // Every time below is divided, every rate multiplied, by the run's
    // slowness; `value` is the best over the repetitions.
    let slowness = side.machine.slowness;
    let normalised = |values: &[f64], higher_is_better: bool| {
        let scale = |v: f64| {
            if higher_is_better {
                v * slowness
            } else {
                v / slowness
            }
        };
        Summary::of(
            &values.iter().map(|&v| scale(v)).collect::<Vec<_>>(),
            higher_is_better,
        )
    };
    let raw_eps: Vec<f64> = bare
        .iter()
        .map(|r| r.events as f64 / (r.wall_ns() / 1e9))
        .collect();
    let mut throughput = normalised(&raw_eps, true);
    throughput.best = best_legs_eps(&bare) * slowness;
    layer.insert("streamgen.gen_s", gen_s);
    layer.insert("streamgen.events", w.stream.len() as f64);
    layer.insert(
        "streamgen.relevant_share",
        ratio(relevant_per_rep, events_per_rep),
    );
    layer.insert(
        "streamgen.completing_share",
        ratio(pc.completing_calls as f64, calls),
    );
    layer.insert("bench.completing_calls", pc.completing_calls as f64 / reps);
    if bare[0].shard.is_none() {
        // Sharded throughput reps and serial per-call reps do different
        // work; their ratio is not a tracing overhead.
        let fastest = |walls: &mut dyn Iterator<Item = f64>| walls.fold(f64::INFINITY, f64::min);
        layer.insert(
            "bench.percall_overhead_pct",
            (ratio(
                fastest(&mut pc.walls_ns.iter().copied()),
                fastest(&mut bare.iter().map(BareRep::wall_ns)),
            ) - 1.0)
                * 100.0,
        );
    }
    layer.insert("bench.rep_spread_pct", throughput.spread() * 100.0);
    layer.insert("bench.machine_slowness", slowness);
    layer.insert("bench.raw_throughput_eps", best_legs_eps(&bare));
    let (self_times, self_total) = spans.self_times();
    let root_ns = spans.total_of("workload") as f64;
    let system_ns: u64 = [
        "process[gate]",
        "process[join]",
        "process[emit]",
        "flush",
        "route",
        "merge",
    ]
    .iter()
    .map(|n| spans.total_of(n))
    .sum();
    let rep_ns = spans.total_of("rep") as f64;
    layer.insert(
        "bench.trace_harness_share",
        1.0 - ratio(system_ns as f64, rep_ns),
    );
    layer.insert("bench.trace_self_cover", ratio(self_total as f64, root_ns));

    // input properties, as exact counts
    for p in &w.properties {
        let v = layer[p.name];
        if !(p.min..=p.max).contains(&v) {
            return Err(format!(
                "{name}: input property {} = {v} is outside [{}, {}]; the workload no longer \
                 exercises what it was chosen for",
                p.name, p.min, p.max
            )
            .into());
        }
    }
    let cover = layer["bench.trace_self_cover"];
    if !(0.95..=1.05).contains(&cover) {
        return Err(format!("{name}: span self times sum to {cover} of the traced wall").into());
    }
    if let Some((k, _)) = layer.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{name}: {k} is not finite").into());
    }

    if let Some(path) = &opts.trace_file {
        spans.write_jsonl(path)?;
    }

    let best_legs = best_legs_detect(&pc.detect_legs);
    let whole_reps: Vec<Histogram> = pc
        .detect_legs
        .iter()
        .map(|legs| pooled(legs.iter().map(|leg| &leg.1)))
        .collect();
    let detect = |q: f64| {
        let per_rep: Vec<f64> = whole_reps.iter().map(|h| h.quantile(q) / 1e3).collect();
        let mut summary = normalised(&per_rep, false);
        summary.best = best_legs.quantile(q) / 1e3 / slowness;
        summary
    };
    layer.insert("engine.detect_p99_us", detect(0.99).best);
    let end_to_end: Vec<(&'static str, Summary)> = END_TO_END
        .iter()
        .map(|e| e.name)
        .zip([
            throughput,
            detect(0.5),
            Summary::of(&[mem.peak as f64], false),
            normalised(&side.ingest_eps, true),
            normalised(&side.setup_s, false),
        ])
        .collect();
    Ok(Row {
        workload: name.to_string(),
        seed: opts.seed,
        reference_matches,
        reps_checked,
        failed,
        matches: reference.count,
        digest: reference.sum,
        end_to_end,
        per_layer: layer,
        self_times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(legs_ns: &[f64]) -> BareRep {
        BareRep {
            legs_ns: legs_ns.to_vec(),
            events: 1_000,
            matches: 0,
            digest: None,
            shard: None,
        }
    }

    #[test]
    fn rep_counts_at_the_benchmarks_own_length() {
        assert_eq!(rep_counts(10, false), (4, 3));
        assert_eq!(rep_counts(10, true), (3, 3));
        assert_eq!(rep_counts(1, false), (3, 2));
    }

    #[test]
    fn throughput_takes_every_leg_at_its_best() {
        // No rep is fast throughout; leg by leg the best are 10, 10, 20 ns.
        let reps = [rep(&[10.0, 30.0, 20.0]), rep(&[25.0, 10.0, 40.0])];
        assert_eq!(best_legs_eps(&reps), 1_000.0 / (40.0 / 1e9));
        assert_eq!(best_legs_eps(&reps[..1]), 1_000.0 / (60.0 / 1e9));
    }

    #[test]
    fn latency_pools_every_legs_fastest_run() {
        let leg = |wall: u64, latency: u64| {
            let mut h = Histogram::default();
            (0..100).for_each(|_| h.record(latency));
            (wall, h)
        };
        let reps = [
            vec![leg(1_000, 8), leg(1_400, 15)],
            vec![leg(1_040, 9), leg(1_000, 10)],
        ];
        let pooled = best_legs_detect(&reps);
        assert_eq!(pooled.sum(), 100 * (8 + 10), "one run of each leg");
        assert_eq!(pooled.max(), 10, "the slow run of leg 1 stays out");
    }

    #[test]
    fn legs_are_whole_chunks() {
        assert_eq!(leg_len(100_000, 1) % CHUNK, 0);
        assert!(leg_len(100_000, 1) * LEGS_PER_REP >= 100_000);
        assert_eq!(
            leg_len(76_028, 7),
            25 * CHUNK,
            "three legs per query, rounded up"
        );
        assert_eq!(leg_len(10, 48), CHUNK, "never less than one chunk");
    }
}
