//! The metric tables — names, units, directions and bounds, the same
//! ones `BENCHMARK.json` lists — and how a result row is printed and
//! stored.

use crate::stats::Summary;
use cep::obs::json::Json;
use std::collections::BTreeMap;

/// The seed `expected.json` was recorded at.
pub const DEFAULT_SEED: u64 = 0xCE9;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before `compare` calls it a regression. The timed metrics sit at
    /// the cap of 0.25: over sets of ten runs on the reference machine
    /// their interquartile range was 3–22 % of the median, and a bound
    /// below a set's own spread would reject the parent against itself.
    pub bound: f64,
}

/// The end-to-end metrics, in print order. `error_rate` travels beside
/// them as `failed / attempted`: it must be 0, which no relative bound
/// can say. The 99th percentile of the detection latency is a per-layer
/// metric (`engine.detect_p99_us`): over sets of ten runs its
/// interquartile range reached 28 % of the median, more than any bound
/// the driver accepts.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_eps",
        unit: "events/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "detect_latency_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_bytes",
        unit: "bytes",
        higher_is_better: false,
        bound: 0.08,
    },
    EndToEnd {
        name: "ingest_eps",
        unit: "events/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The per-layer metrics, grouped by the layer (crate or module) they
/// observe. A layer a workload does not run reports 0.
pub const PER_LAYER: [PerLayer; 65] = [
    // set-up, each public call timed on its own
    lower("sase.parse_us", "us"),
    lower("analyze.lint_us", "us"),
    lower("core.compile_us", "us"),
    lower("optimizer.stats_us", "us"),
    lower("optimizer.plan_us", "us"),
    lower("facade.build_us", "us"),
    lower("registry.register_us", "us"),
    lower("optimizer.plan_cost", "cost"),
    higher("core.plan_cache_hit_ratio", "ratio"),
    // engine, timed from outside
    lower("engine.gate_ns_p50", "ns"),
    lower("engine.gate_share", "ratio"),
    lower("engine.join_ns_p50", "ns"),
    lower("engine.join_ns_p99", "ns"),
    lower("engine.join_share", "ratio"),
    lower("engine.emit_ns_p50", "ns"),
    lower("engine.emit_ns_per_match", "ns"),
    lower("engine.emit_share", "ratio"),
    lower("engine.detect_p99_us", "us"),
    lower("engine.event_p999_us", "us"),
    lower("engine.flush_us", "us"),
    // engine, its own counters
    lower("engine.pred_evals_per_event", "count"),
    lower("engine.pred_evals_per_relevant", "count"),
    lower("engine.partials_per_event", "count"),
    lower("engine.peak_partials", "count"),
    lower("engine.peak_buffered", "count"),
    higher("engine.match_yield", "ratio"),
    higher("engine.matches_per_kevent", "count"),
    lower("delta.index_probes_per_event", "count"),
    lower("delta.updates_per_event", "count"),
    // heap, from the counting allocator
    lower("heap.allocs_per_event", "count"),
    lower("heap.bytes_per_event", "bytes"),
    lower("heap.allocs_per_gate_event", "count"),
    lower("heap.allocs_per_match", "count"),
    higher("heap.est_vs_real_ratio", "ratio"),
    lower("core.ingest_allocs_per_event", "count"),
    // registry
    lower("registry.process_ns_p50", "ns"),
    lower("registry.fragments", "count"),
    higher("registry.sharing_ratio", "ratio"),
    lower("registry.fanout_per_match", "count"),
    lower("registry.pred_evals_per_event", "count"),
    // shard
    higher("shard.workers", "count"),
    lower("shard.route_ns_per_event", "ns"),
    higher("shard.busy_share", "ratio"),
    lower("shard.imbalance_ratio", "ratio"),
    lower("shard.routed_skew", "ratio"),
    lower("shard.merge_ms", "ms"),
    higher("shard.vs_serial_ratio", "ratio"),
    // adaptive
    higher("adaptive.plan_swaps", "count"),
    lower("adaptive.suppressed_swaps", "count"),
    lower("adaptive.replayed_events", "count"),
    lower("adaptive.peak_retained", "count"),
    lower("adaptive.replay_share", "ratio"),
    higher("adaptive.vs_static_ratio", "ratio"),
    lower("adaptive.swap_stall_ms_max", "ms"),
    // the generator and the harness themselves
    lower("streamgen.gen_s", "s"),
    higher("streamgen.events", "count"),
    lower("streamgen.relevant_share", "ratio"),
    higher("streamgen.completing_share", "ratio"),
    higher("bench.completing_calls", "count"),
    lower("bench.percall_overhead_pct", "pct"),
    lower("bench.rep_spread_pct", "pct"),
    lower("bench.machine_slowness", "ratio"),
    higher("bench.raw_throughput_eps", "events/s"),
    lower("bench.trace_harness_share", "ratio"),
    higher("bench.trace_self_cover", "ratio"),
];

/// One workload's result.
pub struct Row {
    pub workload: String,
    pub seed: u64,
    pub reference_matches: u64,
    pub reps_checked: u64,
    pub failed: u64,
    /// Matches and digest of one full rep (for `expected.json`).
    pub matches: u64,
    pub digest: u64,
    pub end_to_end: Vec<(&'static str, Summary)>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Self time per span name of the traced reps, in ns.
    pub self_times: Vec<(String, u64)>,
}

impl Row {
    pub fn attempted(&self) -> u64 {
        self.reference_matches + self.reps_checked
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted().max(1) as f64
    }

    /// `name value unit` lines for a person to read.
    pub fn print(&self, traced: bool) {
        println!("== {} (seed {:#x}) ==", self.workload, self.seed);
        for (e, (name, s)) in END_TO_END.iter().zip(&self.end_to_end) {
            debug_assert_eq!(e.name, *name);
            println!(
                "{name} {} {}   [median {} q1 {} q3 {} min {} max {} n {}]",
                s.best, e.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
            );
        }
        println!(
            "error_rate {} ratio   [{} failed of {} reference matches + {} reps]",
            self.error_rate(),
            self.failed,
            self.reference_matches,
            self.reps_checked
        );
        for p in &PER_LAYER {
            let better = if p.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "{} {} {}   [{better} is better]",
                p.name, self.per_layer[p.name], p.unit
            );
        }
        if traced {
            println!("-- self time by span, traced reps --");
            for (name, ns) in &self.self_times {
                println!("self[{name}] {ns} ns");
            }
        }
    }

    /// The last line of standard output: the object the driver reads.
    pub fn driver_line(&self, traced: bool) -> String {
        let metric = |value: f64, unit: &str| {
            Json::Obj(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(unit.into())),
            ])
        };
        let metrics: Vec<(String, Json)> = if traced {
            PER_LAYER
                .iter()
                .map(|p| (p.name.to_string(), metric(self.per_layer[p.name], p.unit)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(e, (_, s))| (e.name.to_string(), metric(s.best, e.unit)))
                .collect()
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::UInt(self.attempted().max(1))),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .encode()
    }

    /// The row as stored by `--out` and read back by `compare`.
    pub fn to_json(&self) -> Json {
        let end_to_end = END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .map(|(e, (_, s))| {
                (
                    e.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(s.best)),
                        ("unit".into(), Json::Str(e.unit.into())),
                        ("median".into(), Json::Float(s.median)),
                        ("q1".into(), Json::Float(s.q1)),
                        ("q3".into(), Json::Float(s.q3)),
                        ("min".into(), Json::Float(s.min)),
                        ("max".into(), Json::Float(s.max)),
                        ("n".into(), Json::UInt(s.n as u64)),
                    ]),
                )
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|p| {
                (
                    p.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(self.per_layer[p.name])),
                        ("unit".into(), Json::Str(p.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::UInt(self.attempted())),
            ("failed".into(), Json::UInt(self.failed)),
            ("error_rate".into(), Json::Float(self.error_rate())),
            ("matches".into(), Json::UInt(self.matches)),
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            ("end_to_end".into(), Json::Obj(end_to_end)),
            ("per_layer".into(), Json::Obj(per_layer)),
        ])
    }
}

/// A result file: run settings plus one row per workload. No gain is
/// claimed by a run of the benchmark itself, hence `"claim": null`.
pub fn result_file(seed: u64, seconds: u32, rows: Vec<Json>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("schema".into(), Json::UInt(1)),
        ("claim".into(), Json::Null),
        ("seed".into(), Json::UInt(seed)),
        ("seconds".into(), Json::UInt(seconds as u64)),
        ("nproc".into(), Json::UInt(nproc as u64)),
        ("rows".into(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints. They must name the same metrics.
    #[test]
    fn manifest_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let manifest = cep::obs::json::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Json::Arr(items)) = manifest.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let dir = |h: bool| if h { "higher" } else { "lower" }.to_string();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|e| {
                (
                    e.name.to_string(),
                    e.unit.to_string(),
                    dir(e.higher_is_better),
                    Some(e.bound),
                )
            })
            .collect();
        assert_eq!(list("end_to_end"), ours);
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|p| {
                (
                    p.name.to_string(),
                    p.unit.to_string(),
                    dir(p.higher_is_better),
                    None,
                )
            })
            .collect();
        assert_eq!(list("per_layer"), ours);
        let Some(Json::Arr(workloads)) = manifest.get("workloads") else {
            panic!("workloads missing");
        };
        let named: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).expect("name"),
                    w.get("why").and_then(Json::as_str).expect("why"),
                )
            })
            .collect();
        assert_eq!(named, crate::workloads::WORKLOADS.to_vec());
    }
}
