//! The `experiments observe` subcommand and its CI sibling `check-obs`.
//!
//! `observe` runs two traced workloads end to end — a drifting-rate
//! adaptive run (every replan decision and replay window traced) and a
//! cross-partition sharded run (sampled routing decisions, per-batch
//! queue depths) — plus the static analyzer over a seeded-defect demo
//! query, then dumps:
//!
//! * the **decision timeline**: plan-swap verdicts with their cost
//!   arithmetic, replay windows, and shard-batch/queue-depth summaries,
//!   straight from the in-memory ring;
//! * a **latency percentile table** (p50/p95/p99) from the log₂
//!   histograms the engines fill as they run;
//! * a [`MetricsRegistry`] snapshot in both Prometheus text exposition
//!   and JSON, self-validated before it is written;
//! * the raw JSONL trace, one canonical line per record.
//!
//! `check-obs` is the read-back half CI runs against those artifacts: it
//! re-validates the Prometheus text, parses every trace line back through
//! [`TraceRecord::from_json`], asserts the canonical re-encoding is
//! byte-identical, and requires at least one record of each kind the
//! workloads are guaranteed to produce and one `run="adaptive"` family per
//! [`EngineMetrics`] field.

use crate::env::{cross_key_stock_workload, drifting_stock_workload};
use cep_adaptive::{AdaptiveConfig, AdaptiveEngine, PlanReplanner};
use cep_core::compiled::PlanCache;
use cep_core::engine::{run_traced, Engine, EngineConfig};
use cep_core::metrics::{Combine, EngineMetrics};
use cep_core::partition::QueryPartitioner;
use cep_core::stats::MeasuredStats;
use cep_nfa::NfaEngine;
use cep_obs::{
    validate_prometheus, JsonlSink, LatencyHistogram, MetricsRegistry, RingSink, TraceRecord,
    Tracer,
};
use cep_optimizer::{Backend, OrderAlgorithm, Planner};
use cep_shard::{RoutingPolicy, ShardedRuntime};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A demo query carrying a deliberate defect (a transitively redundant
/// predicate, `A006`), so the diagnostic path of the trace always has
/// something to emit.
const DEMO_QUERY: &str = "TYPE Tick(v int)\n\
                          PATTERN SEQ(Tick a, Tick b, Tick c)\n\
                          WHERE (a.v < b.v AND b.v < c.v AND a.v < c.v)\n\
                          WITHIN 5 s\n";

fn engine_config() -> EngineConfig {
    EngineConfig {
        max_kleene_events: 6,
        ..Default::default()
    }
}

/// Runs the traced workloads and writes the three artifacts. `prom_path`
/// gets the Prometheus text exposition, `json_path` the same snapshot as
/// JSON, `trace_path` the JSONL trace.
pub fn run(
    prom_path: &str,
    json_path: &str,
    trace_path: &str,
    out: &mut dyn Write,
) -> Result<(), String> {
    let ring = Arc::new(RingSink::new(1 << 16));
    let jsonl =
        JsonlSink::create(trace_path).map_err(|e| format!("cannot create {trace_path}: {e}"))?;
    let tracer = Tracer::new(vec![Box::new(ring.clone()), Box::new(jsonl)]);
    let mut reg = MetricsRegistry::new();
    let mut table: Vec<(String, LatencyHistogram)> = Vec::new();

    writeln!(out, "# observe: traced adaptive + sharded runs").ok();

    // --- Static analysis: diagnostics become trace records too. ---------
    let (_, report) = cep_analyze::analyze_query_file(DEMO_QUERY)
        .map_err(|e| format!("demo query fails to analyze: {e}"))?;
    for d in report.iter() {
        tracer.emit_with(|| TraceRecord::DiagnosticEmitted {
            code: d.code.as_str().to_string(),
            severity: d.severity.to_string(),
            message: d.message.clone(),
        });
    }
    writeln!(
        out,
        "\nanalyzer diagnostics traced: {}",
        report.iter().count()
    )
    .ok();

    // --- Adaptive run: every replan decision and replay window traced. --
    let window_ms = 3_000;
    let (gen, _, cp, sels) = drifting_stock_workload(4_000, 12_000, 0xCE9, window_ms);
    // The replanner compiles predicate programs through a traced plan
    // cache: the first build records a miss, every post-swap rebuild a hit,
    // all visible as `plan_cache_lookup` records in the timeline below.
    let plan_cache = Arc::new(Mutex::new(PlanCache::new(64).with_tracer(tracer.clone())));
    let replanner = PlanReplanner::new(
        vec![(cp, sels)],
        &gen.initial_stats(),
        Planner::default(),
        Backend::Nfa(OrderAlgorithm::DpLd),
        engine_config(),
    )
    .map_err(|e| format!("replanner setup failed: {e}"))?
    .with_plan_cache(plan_cache.clone());
    let mut adaptive = AdaptiveEngine::new(
        replanner,
        window_ms,
        AdaptiveConfig {
            horizon_ms: window_ms,
            drift_threshold: 0.5,
            check_every: 32,
            cooldown_events: 128,
            ..AdaptiveConfig::default()
        },
    )
    .with_tracer(tracer.clone());
    let r = run_traced(&mut adaptive, &gen.stream, false, &tracer);
    let m = adaptive.metrics();
    writeln!(
        out,
        "\nadaptive run: {} events, {} matches, {} plan swaps, \
         plan cache {}/{} hits/misses",
        m.events_processed,
        r.match_count,
        adaptive.swaps(),
        m.plan_cache_hits,
        m.plan_cache_misses,
    )
    .ok();
    m.export(&mut reg, &[("run", "adaptive")]);
    table.push(("adaptive event_ns".into(), m.event_ns.clone()));
    table.push((
        "adaptive match_latency_ns".into(),
        m.match_latency_ns.clone(),
    ));
    table.push(("adaptive replay_ns".into(), m.replay_ns.clone()));

    // --- Sharded run: routing + queue depths traced. ---------------------
    let (gen, cp) = cross_key_stock_workload(8_000, 0.5, 0xC0A, 32, 2_000);
    let stats = MeasuredStats::measure(&gen.stream);
    let spec = QueryPartitioner::analyze_measured(std::slice::from_ref(&cp), &stats)
        .map_err(|e| format!("cross-key query fails to partition: {e}"))?;
    let factory = move || {
        Box::new(NfaEngine::with_trivial_plan(cp.clone(), engine_config())) as Box<dyn Engine>
    };
    let sharded = ShardedRuntime::with_shards(4)
        .with_tracer(tracer.clone())
        .run(
            &factory,
            &gen.stream,
            RoutingPolicy::ReplicateJoin(Arc::new(spec)),
            false,
        );
    writeln!(
        out,
        "sharded run: {} events, {} matches, imbalance ratio {:.3}",
        sharded.metrics.events_processed,
        sharded.match_count,
        sharded.imbalance_ratio()
    )
    .ok();
    sharded.export(&mut reg, &[("run", "sharded")]);
    table.push(("sharded event_ns".into(), sharded.metrics.event_ns.clone()));
    table.push((
        "sharded match_latency_ns".into(),
        sharded.metrics.match_latency_ns.clone(),
    ));

    tracer.flush();

    // --- Decision timeline from the ring. --------------------------------
    writeln!(out, "\n## decision timeline\n").ok();
    let records = ring.snapshot();
    let mut kind_counts: Vec<(&'static str, u64)> = Vec::new();
    let mut max_queue_depth = 0u64;
    for rec in &records {
        match kind_counts.iter_mut().find(|(k, _)| *k == rec.kind()) {
            Some((_, n)) => *n += 1,
            None => kind_counts.push((rec.kind(), 1)),
        }
        match rec {
            TraceRecord::PlanSwapDecision {
                at_event,
                verdict,
                current_cost,
                candidate_cost,
                replay_fraction,
                amortize_windows,
                retained_events,
            } => {
                writeln!(
                    out,
                    "event {at_event:>7}  {verdict:<10}  cost {current_cost:.1} -> \
                     {candidate_cost:.1}  replay_fraction {replay_fraction:.3}  \
                     amortize_windows {amortize_windows}  retained {retained_events}"
                )
                .ok();
            }
            TraceRecord::ReplayWindow {
                at_event,
                replayed_events,
                replay_ns,
                suppressed_matches,
            } => {
                writeln!(
                    out,
                    "event {at_event:>7}  replay      {replayed_events} events in \
                     {replay_ns} ns, {suppressed_matches} replayed re-detections dropped"
                )
                .ok();
            }
            TraceRecord::ShardBatch { queue_depth, .. } => {
                max_queue_depth = max_queue_depth.max(*queue_depth);
            }
            TraceRecord::PlanCacheLookup {
                signature,
                hit,
                size,
            } => {
                writeln!(
                    out,
                    "plan cache     {}  signature {signature:#018x}  {size} cached",
                    if *hit { "hit " } else { "miss" },
                )
                .ok();
            }
            TraceRecord::DiagnosticEmitted {
                code,
                severity,
                message,
            } => {
                writeln!(out, "diagnostic     {code} ({severity}): {message}").ok();
            }
            _ => {}
        }
    }
    writeln!(out, "\ntrace records by kind:").ok();
    for (k, n) in &kind_counts {
        writeln!(out, "    {k:<20} {n}").ok();
    }
    writeln!(out, "max observed shard queue depth: {max_queue_depth}").ok();

    // --- Percentile table. ------------------------------------------------
    writeln!(out, "\n## latency percentiles (ns)\n").ok();
    writeln!(
        out,
        "{:<26} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "histogram", "count", "p50", "p95", "p99", "mean"
    )
    .ok();
    for (label, hist) in &table {
        let [p50, p95, p99] = hist.percentiles();
        writeln!(
            out,
            "{:<26} {:>9} {:>12} {:>12} {:>12} {:>12.0}",
            label,
            hist.count(),
            p50,
            p95,
            p99,
            hist.mean()
        )
        .ok();
    }

    // --- Registry export, self-validated before writing. ------------------
    let prom = reg.render_prometheus();
    validate_prometheus(&prom).map_err(|e| format!("registry rendered invalid exposition: {e}"))?;
    std::fs::write(prom_path, &prom).map_err(|e| format!("cannot write {prom_path}: {e}"))?;
    let json = reg.render_json();
    cep_obs::json::parse(&json).map_err(|e| format!("registry rendered invalid JSON: {e}"))?;
    std::fs::write(json_path, &json).map_err(|e| format!("cannot write {json_path}: {e}"))?;
    writeln!(
        out,
        "\nwrote {prom_path} ({} families), {json_path}, {trace_path} ({} records)",
        reg.len(),
        records.len()
    )
    .ok();
    Ok(())
}

/// The kinds `observe`'s workloads always produce at least once; missing
/// ones mean an instrumentation site regressed silently.
const REQUIRED_KINDS: &[&str] = &[
    "plan_swap_decision",
    "plan_cache_lookup",
    "replay_window",
    "shard_route",
    "shard_batch",
    "match_emitted",
    "diagnostic",
];

/// Checks that `prom` holds a `run="adaptive"` sample of every
/// [`EngineMetrics`] field under the family the field table names, so an
/// export that drops a field fails.
fn check_field_families(prom: &str) -> Result<(), String> {
    let missing: Vec<String> = EngineMetrics::FIELDS
        .iter()
        .map(|field| match field.combine {
            // A histogram's samples are its `_bucket`/`_sum`/`_count` series.
            Combine::Histogram => format!("{}_count", field.family()),
            _ => field.family(),
        })
        .filter(|series| {
            let sample = format!("{series}{{");
            !prom
                .lines()
                .any(|l| l.starts_with(&sample) && l.contains("run=\"adaptive\""))
        })
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    Err(format!(
        "no run=\"adaptive\" sample of {}",
        missing.join(", ")
    ))
}

/// The `check-obs` gate: validates a Prometheus artifact and round-trips a
/// JSONL trace produced by [`run`].
pub fn check(prom_path: &str, trace_path: &str, out: &mut dyn Write) -> Result<(), String> {
    let prom =
        std::fs::read_to_string(prom_path).map_err(|e| format!("cannot read {prom_path}: {e}"))?;
    validate_prometheus(&prom).map_err(|e| format!("{prom_path}: {e}"))?;
    writeln!(out, "{prom_path}: valid Prometheus exposition").ok();
    check_field_families(&prom).map_err(|e| format!("{prom_path}: {e}"))?;
    let fields = EngineMetrics::FIELDS.len();
    writeln!(
        out,
        "{prom_path}: run=\"adaptive\" exports all {fields} fields"
    )
    .ok();

    let trace = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let mut kind_counts: Vec<(&'static str, u64)> = Vec::new();
    for (i, line) in trace.lines().enumerate() {
        let rec =
            TraceRecord::from_json(line).map_err(|e| format!("{trace_path}:{}: {e}", i + 1))?;
        if rec.to_json() != line {
            return Err(format!(
                "{trace_path}:{}: line is not canonical JSON\n  read:  {line}\n  canon: {}",
                i + 1,
                rec.to_json()
            ));
        }
        match kind_counts.iter_mut().find(|(k, _)| *k == rec.kind()) {
            Some((_, n)) => *n += 1,
            None => kind_counts.push((rec.kind(), 1)),
        }
    }
    let total: u64 = kind_counts.iter().map(|(_, n)| n).sum();
    writeln!(
        out,
        "{trace_path}: {total} records round-trip byte-identically"
    )
    .ok();
    for required in REQUIRED_KINDS {
        let n = kind_counts
            .iter()
            .find(|(k, _)| k == required)
            .map_or(0, |(_, n)| *n);
        if n == 0 {
            return Err(format!(
                "{trace_path}: no {required:?} record — an instrumentation site went silent"
            ));
        }
        writeln!(out, "    {required:<20} {n}").ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end over temp files: observe writes artifacts check accepts.
    #[test]
    fn observe_then_check_round_trips() {
        let dir = std::env::temp_dir().join("cep_observe_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (prom, json, trace) = (p("obs.prom"), p("obs.json"), p("obs_trace.jsonl"));
        let mut log = Vec::new();
        run(&prom, &json, &trace, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(
            text.contains("plan swaps"),
            "missing adaptive summary:\n{text}"
        );
        assert!(text.contains("p99"), "missing percentile table:\n{text}");
        let mut log = Vec::new();
        check(&prom, &trace, &mut log).unwrap();
        let text = String::from_utf8(log).unwrap();
        assert!(text.contains("round-trip byte-identically"));
        assert!(text.contains("plan_swap_decision"));
        assert!(text.contains("plan_cache_lookup"));
    }

    #[test]
    fn check_rejects_corrupt_artifacts() {
        let dir = std::env::temp_dir().join("cep_observe_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let prom = dir.join("bad.prom");
        let trace = dir.join("bad.jsonl");
        std::fs::write(&prom, "foo 1\n# TYPE foo counter\n").unwrap();
        std::fs::write(&trace, "{\"type\":\"match_emitted\"}\n").unwrap();
        let mut log = Vec::new();
        assert!(check(prom.to_str().unwrap(), trace.to_str().unwrap(), &mut log).is_err());
    }

    #[test]
    fn check_requires_a_family_per_metrics_field() {
        let mut reg = MetricsRegistry::new();
        EngineMetrics::new().export(&mut reg, &[("run", "adaptive")]);
        let prom = reg.render_prometheus();
        check_field_families(&prom).unwrap();
        for dropped in ["cep_selectivity_samples_total", "cep_enumeration_ns"] {
            let without: String = prom
                .lines()
                .filter(|l| !l.contains(dropped))
                .map(|l| format!("{l}\n"))
                .collect();
            let err = check_field_families(&without).unwrap_err();
            assert!(err.contains(dropped), "{err}");
        }
        // Samples of another run do not count.
        let other = prom.replace("run=\"adaptive\"", "run=\"sharded\"");
        assert!(check_field_families(&other).is_err());
    }
}
