//! Experiment harness CLI: regenerates the figures of Section 7.3.
//!
//! ```text
//! experiments <subcommand> [--full] [--seed N] [--per-size N] [--duration-ms N] [--shards N]
//!
//! subcommands:
//!   pattern-types          Figures 4 & 5
//!   by-size --set <kind>   Figures 6..15 (kind: sequence|negation|conjunction|kleene|disjunction)
//!   cost-validation        Figure 16
//!   large-patterns         Figure 17 (planning only)
//!   latency-tradeoff       Figure 18
//!   selection-strategies   Figure 19
//!   sharded-scaling        beyond the paper: cep-shard worker sweep (1..=--shards)
//!   adaptive-drift         beyond the paper: live plan swap vs static plans on a rate flip
//!   selectivity-drift      beyond the paper: selectivity re-estimation on a correlation flip
//!   cross-partition        beyond the paper: replicate-join sharding on a cross-key workload
//!   all                    everything above
//!   analyze                static-analysis demo: lint demo queries, verify plan invariants
//!   bench-smoke            CI gate: quick deterministic scenario counts vs a committed
//!                          baseline [--out PATH] [--baseline PATH] [--write-baseline]
//!   observe                traced adaptive + sharded runs: decision timeline, latency
//!                          percentiles, Prometheus/JSON registry snapshot, JSONL trace
//!                          [--prom PATH] [--json PATH] [--trace PATH]
//!   check-obs              CI gate over observe's artifacts: validate the exposition
//!                          format, round-trip the trace [--prom PATH] [--trace PATH]
//! ```

use cep_bench::env::{ExperimentEnv, Scale};
use cep_bench::figures;
use cep_streamgen::PatternSetKind;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: experiments <pattern-types|by-size|cost-validation|large-patterns|\
         latency-tradeoff|selection-strategies|sharded-scaling|adaptive-drift|\
         selectivity-drift|cross-partition|all|analyze|bench-smoke|observe|check-obs> \
         [--set KIND] [--full] [--seed N] [--per-size N] [--duration-ms N] [--shards N] \
         [--out PATH] [--baseline PATH] [--write-baseline] \
         [--prom PATH] [--json PATH] [--trace PATH]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_kind(s: &str) -> PatternSetKind {
    match s {
        "sequence" => PatternSetKind::Sequence,
        "negation" => PatternSetKind::Negation,
        "conjunction" => PatternSetKind::Conjunction,
        "kleene" | "iteration" => PatternSetKind::Kleene,
        "disjunction" | "composite" => PatternSetKind::Disjunction,
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cmd = args[0].clone();
    if cmd == "bench-smoke" {
        return bench_smoke(&args[1..]);
    }
    if cmd == "observe" || cmd == "check-obs" {
        return observe(&cmd, &args[1..]);
    }
    if cmd == "analyze" {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        return match cep_bench::analyze_demo::run(&mut out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("analyze demo failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut scale = Scale::quick();
    let mut set: Option<PatternSetKind> = None;
    let mut shards = 8usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => scale = Scale::full(),
            "--set" => {
                i += 1;
                set = Some(parse_kind(args.get(i).map(String::as_str).unwrap_or("")));
            }
            "--seed" => {
                i += 1;
                scale.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--per-size" => {
                i += 1;
                scale.per_size = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--duration-ms" => {
                i += 1;
                scale.duration_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "# CEP join-optimization experiments (seed {}, {} symbols, {} ms stream)",
        scale.seed, scale.symbols, scale.duration_ms
    )
    .ok();
    let env = ExperimentEnv::setup(scale);
    let result = match cmd.as_str() {
        "pattern-types" => figures::pattern_types(&env, &mut out),
        "by-size" => figures::by_size(&env, set.unwrap_or(PatternSetKind::Sequence), &mut out),
        "cost-validation" => figures::cost_validation(&env, &mut out),
        "large-patterns" => figures::large_patterns(&env, 22, 3, &mut out),
        "latency-tradeoff" => figures::latency_tradeoff(&env, &mut out),
        "selection-strategies" => figures::selection_strategies(&env, &mut out),
        "sharded-scaling" => figures::sharded_scaling(&env, shards, &mut out),
        "adaptive-drift" => figures::adaptive_drift(&env, &mut out),
        "selectivity-drift" => figures::selectivity_drift(&env, &mut out),
        "cross-partition" => figures::cross_partition(&env, shards, &mut out),
        "all" => figures::pattern_types(&env, &mut out)
            .and_then(|_| {
                for kind in PatternSetKind::all() {
                    figures::by_size(&env, kind, &mut out)?;
                }
                Ok(())
            })
            .and_then(|_| figures::cost_validation(&env, &mut out))
            .and_then(|_| figures::large_patterns(&env, 22, 3, &mut out))
            .and_then(|_| figures::latency_tradeoff(&env, &mut out))
            .and_then(|_| figures::selection_strategies(&env, &mut out))
            .and_then(|_| figures::sharded_scaling(&env, shards, &mut out))
            .and_then(|_| figures::adaptive_drift(&env, &mut out))
            .and_then(|_| figures::selectivity_drift(&env, &mut out))
            .and_then(|_| figures::cross_partition(&env, shards, &mut out)),
        _ => usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The observability demo and its artifact gate (see
/// [`cep_bench::observe`]): `observe` runs the traced workloads and dumps
/// the timeline, percentile table, and registry snapshot; `check-obs`
/// re-validates artifacts a previous `observe` wrote.
fn observe(cmd: &str, args: &[String]) -> ExitCode {
    let mut prom_path = "OBS_PR7.prom".to_string();
    let mut json_path = "OBS_PR7.json".to_string();
    let mut trace_path = "OBS_PR7_trace.jsonl".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--prom" => {
                i += 1;
                prom_path = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--trace" => {
                i += 1;
                trace_path = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let result = if cmd == "observe" {
        cep_bench::observe::run(&prom_path, &json_path, &trace_path, &mut out)
    } else {
        cep_bench::observe::check(&prom_path, &trace_path, &mut out)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{cmd} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The CI bench-regression gate (see [`cep_bench::smoke`]): run the quick
/// deterministic scenarios, write the full report, and fail on any count
/// divergence from the committed baseline.
fn bench_smoke(args: &[String]) -> ExitCode {
    let mut out_path = "bench_smoke.json".to_string();
    let mut baseline_path = "ci/bench_baseline.json".to_string();
    let mut write_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--baseline" => {
                i += 1;
                baseline_path = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--write-baseline" => write_baseline = true,
            _ => usage(),
        }
        i += 1;
    }
    let stdout = std::io::stdout();
    let mut log = stdout.lock();
    writeln!(log, "# bench-smoke gate (deterministic quick scenarios)").ok();
    match cep_bench::smoke::run(&out_path, &baseline_path, write_baseline, &mut log) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
