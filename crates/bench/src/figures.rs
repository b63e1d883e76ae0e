//! Experiment drivers regenerating every figure of Section 7.3.
//!
//! Each function prints the same rows/series as the corresponding paper
//! figure (absolute numbers differ — synthetic stream, different hardware —
//! but the comparative shape is the deliverable).

use crate::env::ExperimentEnv;
use crate::report::{bytes, si, Table};
use crate::runner::{geometric_mean, mean, plan_and_run, plan_pattern, RunOutcome};
use cep_core::engine::EngineConfig;
use cep_core::selection::SelectionStrategy;
use cep_optimizer::{Backend, OrderAlgorithm, TreeAlgorithm};
use cep_streamgen::{generate_pattern, PatternSetKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// The paper's order-based algorithm set (Section 7.1).
pub fn order_algos() -> Vec<Backend> {
    OrderAlgorithm::paper_set()
        .into_iter()
        .map(Backend::Nfa)
        .collect()
}

/// The paper's tree-based algorithm set (Section 7.1).
pub fn tree_algos() -> Vec<Backend> {
    TreeAlgorithm::paper_set()
        .into_iter()
        .map(Backend::Tree)
        .collect()
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        // Power-set semantics is exponential by design; the cap bounds the
        // per-accumulator set size identically for every plan under test.
        max_kleene_events: 6,
        ..Default::default()
    }
}

/// Runs one pattern set under one algorithm; returns `(size, outcome)` per
/// pattern (failed plans — e.g. DP beyond its size cap — are skipped).
fn run_set(
    env: &ExperimentEnv,
    kind: PatternSetKind,
    algo: Backend,
    alpha: f64,
) -> Vec<(usize, RunOutcome)> {
    let cfg = engine_config();
    env.pattern_set(kind)
        .iter()
        .filter_map(|gp| {
            plan_and_run(&gp.pattern, env, algo, alpha, &cfg)
                .ok()
                .map(|o| (gp.size, o))
        })
        .collect()
}

/// Figures 4 and 5: mean throughput and peak memory per pattern category,
/// for the order-based and tree-based algorithm families.
pub fn pattern_types(env: &ExperimentEnv, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "== Figures 4 & 5: throughput and memory by pattern type =="
    )?;
    writeln!(
        out,
        "(streams: {} events; {} patterns per category)",
        env.stream().len(),
        env.pattern_set(PatternSetKind::Sequence).len()
    )?;
    let kinds = PatternSetKind::all();
    for (family, algos) in [
        ("order-based (Fig 4a/5a)", order_algos()),
        ("tree-based (Fig 4b/5b)", tree_algos()),
    ] {
        let mut header = vec!["algorithm".to_string()];
        header.extend(kinds.iter().map(|k| k.to_string()));
        let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut tput = Table::new(&hdr);
        let mut mem = Table::new(&hdr);
        for &algo in &algos {
            let mut trow = vec![algo.to_string()];
            let mut mrow = vec![algo.to_string()];
            for &kind in &kinds {
                let results = run_set(env, kind, algo, 0.0);
                let th: Vec<f64> = results.iter().map(|(_, o)| o.throughput_eps).collect();
                let mb: Vec<f64> = results
                    .iter()
                    .map(|(_, o)| o.peak_memory_bytes as f64)
                    .collect();
                trow.push(si(geometric_mean(&th)));
                mrow.push(bytes(mean(&mb) as usize));
            }
            tput.row(trow);
            mem.row(mrow);
        }
        writeln!(
            out,
            "\n-- {family}: throughput (events/s, higher is better)"
        )?;
        write!(out, "{}", tput.render())?;
        writeln!(out, "\n-- {family}: peak memory (lower is better)")?;
        write!(out, "{}", mem.render())?;
    }
    Ok(())
}

/// Figures 6–15: throughput and memory as a function of pattern size, for
/// one category (sequence -> Fig 6/7, negation -> 8/9, conjunction -> 10/11,
/// kleene -> 12/13, disjunction -> 14/15).
pub fn by_size(
    env: &ExperimentEnv,
    kind: PatternSetKind,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let fig = match kind {
        PatternSetKind::Sequence => "6/7",
        PatternSetKind::Negation => "8/9",
        PatternSetKind::Conjunction => "10/11",
        PatternSetKind::Kleene => "12/13",
        PatternSetKind::Disjunction => "14/15",
    };
    writeln!(out, "== Figures {fig}: {kind} patterns by size ==")?;
    let sizes: Vec<usize> = env.scale.sizes.clone().collect();
    for (family, algos) in [("order-based", order_algos()), ("tree-based", tree_algos())] {
        let mut header = vec!["algorithm".to_string()];
        header.extend(sizes.iter().map(|s| format!("n={s}")));
        let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut tput = Table::new(&hdr);
        let mut mem = Table::new(&hdr);
        for &algo in &algos {
            let results = run_set(env, kind, algo, 0.0);
            let mut trow = vec![algo.to_string()];
            let mut mrow = vec![algo.to_string()];
            for &s in &sizes {
                let th: Vec<f64> = results
                    .iter()
                    .filter(|(sz, _)| *sz == s)
                    .map(|(_, o)| o.throughput_eps)
                    .collect();
                let mb: Vec<f64> = results
                    .iter()
                    .filter(|(sz, _)| *sz == s)
                    .map(|(_, o)| o.peak_memory_bytes as f64)
                    .collect();
                trow.push(si(geometric_mean(&th)));
                mrow.push(bytes(mean(&mb) as usize));
            }
            tput.row(trow);
            mem.row(mrow);
        }
        writeln!(out, "\n-- {family}: throughput (events/s)")?;
        write!(out, "{}", tput.render())?;
        writeln!(out, "\n-- {family}: peak memory")?;
        write!(out, "{}", mem.render())?;
    }
    Ok(())
}

/// Figure 16: throughput and memory as functions of the plan cost computed
/// by `Cost_ord` / `Cost_tree`, over a mixed bag of plans; reports the
/// fitted relationships (throughput ≈ k / cost^c, memory ≈ linear).
pub fn cost_validation(env: &ExperimentEnv, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "== Figure 16: metrics vs plan cost ==")?;
    let kinds = [
        PatternSetKind::Sequence,
        PatternSetKind::Conjunction,
        PatternSetKind::Negation,
    ];
    for (family, algos) in [
        (
            "order-based plans",
            vec![
                Backend::Nfa(OrderAlgorithm::Trivial),
                Backend::Nfa(OrderAlgorithm::EFreq),
                Backend::Nfa(OrderAlgorithm::Greedy),
                Backend::Nfa(OrderAlgorithm::DpLd),
            ],
        ),
        (
            "tree-based plans",
            vec![
                Backend::Tree(TreeAlgorithm::ZStream),
                Backend::Tree(TreeAlgorithm::ZStreamOrd),
                Backend::Tree(TreeAlgorithm::DpB),
            ],
        ),
    ] {
        let mut samples: Vec<(f64, f64, f64)> = Vec::new(); // (cost, tput, mem)
        for &kind in &kinds {
            for &algo in &algos {
                for (_, o) in run_set(env, kind, algo, 0.0) {
                    if o.plan_cost > 0.0 && o.throughput_eps > 0.0 {
                        samples.push((o.plan_cost, o.throughput_eps, o.peak_memory_bytes as f64));
                    }
                }
            }
        }
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let shown = samples.len().min(20);
        let stride = (samples.len() / shown.max(1)).max(1);
        let mut t = Table::new(&["plan cost", "throughput (e/s)", "peak memory"]);
        for s in samples.iter().step_by(stride) {
            t.row(vec![si(s.0), si(s.1), bytes(s.2 as usize)]);
        }
        // Fit log(tput) = a - c*log(cost).
        let logs: Vec<(f64, f64)> = samples.iter().map(|(c, t, _)| (c.ln(), t.ln())).collect();
        let c_exp = -linear_slope(&logs);
        // Memory-vs-cost monotonicity (rank correlation).
        let mem_corr = rank_correlation(
            &samples.iter().map(|s| s.0).collect::<Vec<_>>(),
            &samples.iter().map(|s| s.2).collect::<Vec<_>>(),
        );
        writeln!(
            out,
            "\n-- {family} ({} plans, subsampled below)",
            samples.len()
        )?;
        write!(out, "{}", t.render())?;
        writeln!(
            out,
            "fit: throughput ~ 1/cost^c with c = {c_exp:.2}  (paper: c >= 1)"
        )?;
        writeln!(
            out,
            "memory-vs-cost Spearman correlation = {mem_corr:.2}  (paper: ~linear, positive)"
        )?;
    }
    Ok(())
}

fn linear_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let var: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if var == 0.0 {
        0.0
    } else {
        cov / var
    }
}

fn rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].partial_cmp(&v[j]).unwrap_or(std::cmp::Ordering::Equal));
        let mut r = vec![0.0; v.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    let ra = ranks(a);
    let rb = ranks(b);
    let pts: Vec<(f64, f64)> = ra.into_iter().zip(rb).collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let va: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let vb: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Figure 17: (a) normalized plan cost vs EFREQ and (b) plan-generation
/// time, for large sequence patterns (planning only, no execution).
pub fn large_patterns(
    env: &ExperimentEnv,
    max_size: usize,
    per_size: usize,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    writeln!(
        out,
        "== Figure 17: large-pattern plan quality and planning time =="
    )?;
    let sizes: Vec<usize> = [3usize, 6, 9, 12, 15, 18, 20, 22]
        .into_iter()
        .filter(|&s| s <= max_size && s <= env.gen.type_ids.len())
        .collect();
    let algos: Vec<Backend> = vec![
        Backend::Nfa(OrderAlgorithm::Greedy),
        Backend::Nfa(OrderAlgorithm::IIRandom {
            restarts: 10,
            seed: 0xCEB,
        }),
        Backend::Nfa(OrderAlgorithm::IIGreedy),
        Backend::Nfa(OrderAlgorithm::DpLd),
        Backend::Tree(TreeAlgorithm::ZStream),
        Backend::Tree(TreeAlgorithm::ZStreamOrd),
        Backend::Tree(TreeAlgorithm::DpB),
    ];
    let mut header = vec!["algorithm".to_string()];
    header.extend(sizes.iter().map(|s| format!("n={s}")));
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut cost_table = Table::new(&hdr);
    let mut time_table = Table::new(&hdr);
    let mut rng = StdRng::seed_from_u64(env.scale.seed ^ 0xF16);
    // Pre-generate patterns per size so every algorithm sees the same ones.
    let mut patterns: Vec<(usize, Vec<cep_core::pattern::Pattern>)> = Vec::new();
    for &s in &sizes {
        let ps = (0..per_size)
            .map(|_| {
                generate_pattern(
                    PatternSetKind::Sequence,
                    s,
                    &env.gen,
                    &env.workload,
                    &mut rng,
                )
                .expect("generation fits symbol count")
                .pattern
            })
            .collect();
        patterns.push((s, ps));
    }
    // Baseline: EFREQ cost per pattern (order model; tree algorithms are
    // normalized against EFREQ's left-deep tree).
    for &algo in &algos {
        let mut crow = vec![algo.to_string()];
        let mut trow = vec![algo.to_string()];
        for (_, ps) in &patterns {
            let mut ratios = Vec::new();
            let mut times = Vec::new();
            for p in ps {
                let base = match algo {
                    Backend::Tree(_) => {
                        // EFREQ leaf order as a left-deep tree: ZStream over
                        // the EFREQ order degenerate case is not directly
                        // expressible; use ZStream native as the tree
                        // baseline (the empirically worst tree method).
                        plan_pattern(p, env, Backend::Tree(TreeAlgorithm::ZStream), 0.0)
                    }
                    _ => plan_pattern(p, env, Backend::Nfa(OrderAlgorithm::EFreq), 0.0),
                };
                let Ok(base) = base else { continue };
                // Planning can fail when the size exceeds an algorithm's cap.
                if let Ok(planned) = plan_pattern(p, env, algo, 0.0) {
                    if planned.plan_cost > 0.0 {
                        ratios.push(base.plan_cost / planned.plan_cost);
                    }
                    times.push(planned.plan_time_s);
                }
            }
            if ratios.is_empty() {
                crow.push("-".into());
                trow.push("-".into());
            } else {
                crow.push(format!("{:.2}x", geometric_mean(&ratios)));
                trow.push(format!("{:.2}ms", mean(&times) * 1e3));
            }
        }
        cost_table.row(crow);
        time_table.row(trow);
    }
    writeln!(
        out,
        "\n-- Fig 17(a): normalized plan cost (baseline / algorithm; higher is better)"
    )?;
    writeln!(
        out,
        "   order algorithms vs EFREQ, tree algorithms vs ZSTREAM; '-' = beyond size cap"
    )?;
    write!(out, "{}", cost_table.render())?;
    writeln!(out, "\n-- Fig 17(b): mean plan-generation time")?;
    write!(out, "{}", time_table.render())?;
    Ok(())
}

/// Figure 18: throughput vs latency for the 6 JQPG algorithms under
/// α ∈ {0, 0.5, 1}.
pub fn latency_tradeoff(env: &ExperimentEnv, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "== Figure 18: throughput vs latency (alpha sweep) ==")?;
    let algos: Vec<Backend> = vec![
        Backend::Nfa(OrderAlgorithm::Greedy),
        Backend::Nfa(OrderAlgorithm::IIRandom {
            restarts: 10,
            seed: 0xCEB,
        }),
        Backend::Nfa(OrderAlgorithm::IIGreedy),
        Backend::Nfa(OrderAlgorithm::DpLd),
        Backend::Tree(TreeAlgorithm::ZStreamOrd),
        Backend::Tree(TreeAlgorithm::DpB),
    ];
    let mut t = Table::new(&["algorithm", "alpha", "throughput (e/s)", "avg latency (ms)"]);
    for &algo in &algos {
        for alpha in [0.0, 0.5, 1.0] {
            let results = run_set(env, PatternSetKind::Sequence, algo, alpha);
            let th: Vec<f64> = results.iter().map(|(_, o)| o.throughput_eps).collect();
            let lat: Vec<f64> = results.iter().map(|(_, o)| o.avg_latency_ms).collect();
            t.row(vec![
                algo.to_string(),
                format!("{alpha}"),
                si(geometric_mean(&th)),
                format!("{:.4}", mean(&lat)),
            ]);
        }
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "(expected shape: higher alpha lowers latency at some throughput cost)"
    )?;
    Ok(())
}

/// Figure 19: throughput under the three selection-strategy regimes.
pub fn selection_strategies(env: &ExperimentEnv, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "== Figure 19: selection strategies (sequence set) ==")?;
    let strategies = [
        SelectionStrategy::SkipTillAnyMatch,
        SelectionStrategy::SkipTillNextMatch,
        SelectionStrategy::StrictContiguity,
    ];
    for (family, algos) in [
        ("order-based (Fig 19a)", order_algos()),
        ("tree-based (Fig 19b)", tree_algos()),
    ] {
        let mut header = vec!["algorithm".to_string()];
        header.extend(strategies.iter().map(|s| s.to_string()));
        let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&hdr);
        for &algo in &algos {
            let mut row = vec![algo.to_string()];
            for &strategy in &strategies {
                let cfg = engine_config();
                let set = env.pattern_set(PatternSetKind::Sequence);
                let mut th = Vec::new();
                for gp in &set {
                    let mut p = gp.pattern.clone();
                    p.strategy = strategy;
                    if let Ok(o) = plan_and_run(&p, env, algo, 0.0, &cfg) {
                        th.push(o.throughput_eps);
                    }
                }
                row.push(si(geometric_mean(&th)));
            }
            t.row(row);
        }
        writeln!(
            out,
            "\n-- {family}: throughput (events/s, log-scale in the paper)"
        )?;
        write!(out, "{}", t.render())?;
    }
    Ok(())
}

/// Sharded scaling (beyond the paper; the ROADMAP's scale-out direction):
/// end-to-end throughput of `cep_shard`'s worker-pool runtime over a
/// partition-replicated stock stream, sweeping the shard count in powers of
/// two up to `max_shards`.
///
/// The query equates the `replica` attribute across all positions, so it is
/// partition-local: every shard count — including the single-threaded
/// baseline — must detect the identical match set, which this driver
/// asserts while measuring.
pub fn sharded_scaling(
    env: &ExperimentEnv,
    max_shards: usize,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    use crate::env::replicated_stock_workload;
    use cep_core::engine::{run_to_completion, Engine};
    use cep_shard::{RoutingPolicy, ShardedRuntime};
    use cep_tree::TreeEngine;

    writeln!(
        out,
        "== Sharded scaling: worker shards over a partition-replicated stock stream =="
    )?;
    let replicas = (max_shards.max(8)) as u32;
    let (gen, cp) = replicated_stock_workload(
        env.scale.duration_ms,
        env.scale.rate_scale,
        env.scale.seed ^ 0x5AD,
        replicas,
        env.scale.window_ms,
    );
    let factory = {
        move || {
            Box::new(TreeEngine::with_trivial_plan(cp.clone(), engine_config())) as Box<dyn Engine>
        }
    };
    writeln!(
        out,
        "({} events, {} replicas, window {} ms)",
        gen.stream.len(),
        replicas,
        env.scale.window_ms
    )?;
    let mut engine = factory();
    let base = run_to_completion(engine.as_mut(), &gen.stream, false);
    let base_eps = base.metrics.throughput_eps();
    let mut t = Table::new(&["shards", "throughput (e/s)", "speedup", "matches"]);
    t.row(vec![
        "serial".into(),
        si(base_eps),
        "1.00x".into(),
        base.match_count.to_string(),
    ]);
    // Powers of two up to the requested count, always ending exactly on
    // it (so `--shards 6` really measures 6 shards).
    let mut sweep = Vec::new();
    let mut s = 1;
    while s < max_shards {
        sweep.push(s);
        s *= 2;
    }
    sweep.push(max_shards);
    for shards in sweep {
        let r = ShardedRuntime::with_shards(shards).run(
            &factory,
            &gen.stream,
            RoutingPolicy::Partition,
            false,
        );
        assert_eq!(
            r.match_count, base.match_count,
            "partition-local query must be exact under sharding"
        );
        let eps = r.metrics.throughput_eps();
        t.row(vec![
            shards.to_string(),
            si(eps),
            format!("{:.2}x", eps / base_eps),
            r.match_count.to_string(),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "(identical match counts per row: the deterministic-merge guarantee)"
    )?;
    Ok(())
}

/// Cross-partition scaling (beyond the paper; the ROADMAP's replicate-join
/// direction): end-to-end throughput of replicate-join sharding on a
/// workload whose **correlation attribute is not the partition
/// attribute** — accounts correlate stock updates that are partitioned by
/// symbol. Split-only routing is rejected for this query
/// (`ShardRouter::for_query`); the replicate-join policy hashes the two
/// high-rate account-keyed symbols and broadcasts the rare unkeyed one,
/// and every shard count must reproduce the serial match set exactly
/// (asserted while measuring).
pub fn cross_partition(
    env: &ExperimentEnv,
    max_shards: usize,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    use crate::env::cross_key_stock_workload;
    use cep_core::engine::{run_to_completion, Engine};
    use cep_core::partition::QueryPartitioner;
    use cep_core::stats::MeasuredStats;
    use cep_shard::{RoutingPolicy, ShardedRuntime};
    use cep_tree::TreeEngine;
    use std::sync::Arc;

    writeln!(
        out,
        "== Cross-partition scaling: replicate-join over an account-correlated, \
         symbol-partitioned stock stream =="
    )?;
    let accounts = 64;
    // The workload's symbol rates are absolute (25/20/2 events/s); the
    // scale's rate multiplier is tuned for 30-symbol figure sweeps, so
    // lift it here to keep the 3-symbol stream meaningfully loaded.
    let rate_scale = (env.scale.rate_scale * 16.0).min(1.0);
    let (gen, cp) = cross_key_stock_workload(
        env.scale.duration_ms,
        rate_scale,
        env.scale.seed ^ 0xC0A,
        accounts,
        env.scale.window_ms,
    );
    let stats = MeasuredStats::measure(&gen.stream);
    let spec = QueryPartitioner::analyze_measured(std::slice::from_ref(&cp), &stats)
        .expect("cross-key query partitions");
    writeln!(
        out,
        "({} events, {accounts} accounts, window {} ms, spec {spec})",
        gen.stream.len(),
        env.scale.window_ms
    )?;
    let factory = {
        let cp = cp.clone();
        move || {
            Box::new(TreeEngine::with_trivial_plan(cp.clone(), engine_config())) as Box<dyn Engine>
        }
    };
    // The routing guard: split-only policies are rejected for this query.
    let branches = std::slice::from_ref(&cp);
    let rejected = ShardedRuntime::with_shards(2)
        .run_query(
            &factory,
            &gen.stream,
            RoutingPolicy::Partition,
            branches,
            false,
        )
        .expect_err("partition routing must be rejected for cross-key queries");
    writeln!(out, "split-only routing rejected: {rejected}")?;
    let mut engine = factory();
    let base = run_to_completion(engine.as_mut(), &gen.stream, false);
    let base_eps = base.metrics.throughput_eps();
    let mut t = Table::new(&[
        "shards",
        "throughput (e/s)",
        "speedup",
        "matches",
        "replicated",
        "dedup hits",
    ]);
    t.row(vec![
        "serial".into(),
        si(base_eps),
        "1.00x".into(),
        base.match_count.to_string(),
        "0".into(),
        "0".into(),
    ]);
    let mut sweep = Vec::new();
    let mut s = 1;
    while s < max_shards {
        sweep.push(s);
        s *= 2;
    }
    sweep.push(max_shards);
    let policy = RoutingPolicy::ReplicateJoin(Arc::new(spec));
    for shards in sweep {
        let r = ShardedRuntime::with_shards(shards)
            .run_query(&factory, &gen.stream, policy.clone(), branches, false)
            .expect("replicate-join policy is sound for this query");
        assert_eq!(
            r.match_count, base.match_count,
            "replicate-join must be exact at {shards} shards"
        );
        let eps = r.metrics.throughput_eps();
        t.row(vec![
            shards.to_string(),
            si(eps),
            format!("{:.2}x", eps / base_eps),
            r.match_count.to_string(),
            r.metrics.replicated_events.to_string(),
            r.metrics.dedup_hits.to_string(),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "(identical match counts per row: cross-partition exactness via \
         replicate-join + signature dedup)"
    )?;
    Ok(())
}

/// Adaptive drift (beyond the paper; the ROADMAP's adaptivity direction):
/// on a drifting-rate stock workload whose frequent and rare types swap
/// roles mid-stream, compares
///
/// * **static-initial** — the phase-1 plan, kept forever (what a
///   non-adaptive deployment runs);
/// * **adaptive** — `cep_adaptive::AdaptiveEngine` over the same initial
///   plan, hot-swapping on detected rate drift;
/// * **full-adaptive** — the engine `cep::engine().full_adaptive()`
///   builds (rate and selectivity monitoring, the configuration the
///   benchmark's `adaptive-drift` workload runs);
/// * **static-oracle** — the phase-2 plan from the start (the hindsight
///   bound on what adaptivity can recover).
///
/// All four must emit byte-identical match vectors (asserted); the
/// interesting numbers are post-drift throughput and partial matches
/// created, where the adaptive engine must beat the static initial plan.
/// The `vs oracle` column is the wrapper's cost: post-drift throughput
/// against the never-swapped engine on the post-drift plan.
pub fn adaptive_drift(env: &ExperimentEnv, out: &mut dyn Write) -> std::io::Result<()> {
    use crate::env::drifting_stock_workload;
    use cep_adaptive::{AdaptiveConfig, AdaptiveEngine, PlanReplanner, Replanner};
    use cep_core::engine::Engine;
    use cep_core::matches::Match;
    use cep_core::stream::EventStream;
    use cep_optimizer::Planner;
    use cep_shard::canonical_sort;
    use cep_streamgen::GeneratedStream;
    use std::time::Instant;

    writeln!(
        out,
        "== Adaptive drift: live plan swap vs static plans on a rate flip =="
    )?;
    let phase_ms = env.scale.duration_ms.clamp(5_000, 30_000);
    let window_ms = 3_000.min(phase_ms / 2);
    let (gen, pattern, cp, sels) =
        drifting_stock_workload(phase_ms, phase_ms, env.scale.seed ^ 0xADA, window_ms);
    let split_ts = gen.drift_start_ms();
    writeln!(
        out,
        "({} events, drift at {split_ts} ms, window {window_ms} ms)",
        gen.stream.len()
    )?;
    let replanner_for = |stats: &cep_core::stats::MeasuredStats| {
        PlanReplanner::new(
            vec![(cp.clone(), sels.clone())],
            stats,
            Planner::default(),
            Backend::Nfa(OrderAlgorithm::DpLd),
            engine_config(),
        )
        .expect("selectivities match the pattern's predicates")
    };
    let initial = replanner_for(&gen.initial_stats());
    let oracle = replanner_for(&gen.final_stats());
    writeln!(
        out,
        "initial plan {}, oracle plan {}",
        initial.describe(),
        oracle.describe()
    )?;

    /// Drives a full stream, timing the pre- and post-drift segments
    /// separately; returns (canonical matches, post-drift ns, post-drift
    /// events).
    fn drive(
        engine: &mut dyn Engine,
        stream: &EventStream,
        split_ts: u64,
    ) -> (Vec<Match>, u64, u64) {
        let mut matches = Vec::new();
        let mut post_ns = 0u64;
        let mut post_events = 0u64;
        for event in stream {
            let start = Instant::now();
            engine.process(event, &mut matches);
            let ns = start.elapsed().as_nanos() as u64;
            if event.ts >= split_ts {
                post_ns += ns;
                post_events += 1;
            }
        }
        let start = Instant::now();
        engine.flush(&mut matches);
        post_ns += start.elapsed().as_nanos() as u64;
        canonical_sort(&mut matches);
        (matches, post_ns, post_events)
    }

    let adaptive_cfg = AdaptiveConfig {
        horizon_ms: window_ms,
        drift_threshold: 0.5,
        check_every: 32,
        cooldown_events: 128,
        ..AdaptiveConfig::default()
    };
    // The facade plans from a generated stream's analytic statistics:
    // hand it the phase-1 rates, as a bootstrap measurement would see them.
    let phase1 = GeneratedStream {
        stream: Vec::new(),
        type_ids: gen.type_ids.clone(),
        symbols: gen.symbols.clone(),
        replicas: 1,
    };
    let full_adaptive = cep::engine(&pattern)
        .backend(Backend::Nfa(OrderAlgorithm::DpLd))
        .stats(&phase1)
        .config(engine_config())
        .full_adaptive(adaptive_cfg.clone())
        .build()
        .expect("the drifting pattern plans on the NFA backend");
    let mut engines: Vec<(&str, Box<dyn Engine>)> = vec![
        ("static-initial", initial.build()),
        (
            "adaptive",
            Box::new(AdaptiveEngine::new(
                initial.clone(),
                cp.window,
                adaptive_cfg,
            )),
        ),
        ("full-adaptive", full_adaptive),
        ("static-oracle", oracle.build()),
    ];
    struct Row {
        name: &'static str,
        eps: f64,
        partials: u64,
        swaps: u64,
        replayed: u64,
        matches: usize,
    }
    let mut rows = Vec::new();
    let mut post_drift_events = 0u64;
    let mut reference: Option<Vec<Match>> = None;
    for (name, engine) in &mut engines {
        let (matches, post_ns, post_events) = drive(engine.as_mut(), &gen.stream, split_ts);
        post_drift_events = post_events;
        let m = engine.metrics();
        rows.push(Row {
            name,
            eps: if post_ns == 0 {
                0.0
            } else {
                post_events as f64 / (post_ns as f64 / 1e9)
            },
            partials: m.partial_matches_created,
            swaps: m.plan_swaps,
            replayed: m.replayed_events,
            matches: matches.len(),
        });
        match &reference {
            None => reference = Some(matches),
            Some(r) => assert_eq!(
                &matches, r,
                "{name} diverged: every configuration must emit identical matches"
            ),
        }
    }
    let row = |name: &str| rows.iter().find(|r| r.name == name).expect("row exists");
    let (baseline, adaptive, full, oracle_row) = (
        row("static-initial"),
        row("adaptive"),
        row("full-adaptive"),
        row("static-oracle"),
    );
    let ratio = |a: f64, b: f64| a / b.max(f64::MIN_POSITIVE);
    let mut table = Table::new(&[
        "plan",
        "post-drift e/s",
        "vs initial",
        "vs oracle",
        "partials",
        "swaps",
        "replayed",
        "matches",
    ]);
    for r in &rows {
        table.row(vec![
            r.name.to_string(),
            si(r.eps),
            format!("{:.2}x", ratio(r.eps, baseline.eps)),
            format!("{:.2}x", ratio(r.eps, oracle_row.eps)),
            r.partials.to_string(),
            r.swaps.to_string(),
            r.replayed.to_string(),
            r.matches.to_string(),
        ]);
    }
    write!(out, "{}", table.render())?;
    for r in [adaptive, full] {
        assert!(
            r.swaps >= 1,
            "{}: the rate flip must trigger at least one plan swap",
            r.name
        );
        assert!(
            r.partials < baseline.partials,
            "{} ({} partial matches) must beat the static initial plan ({}) \
             after the drift point",
            r.name,
            r.partials,
            baseline.partials
        );
    }
    // The partial-match assert above is the deterministic form of the
    // throughput claim; wall-clock timing on a loaded machine can still
    // wobble, so an inversion is reported rather than aborting the run.
    if post_drift_events >= 500 && adaptive.eps <= baseline.eps {
        writeln!(
            out,
            "WARNING: adaptive ({:.0} e/s) did not beat the static initial \
             plan ({:.0} e/s) on wall clock despite doing less work — likely \
             scheduler noise; rerun",
            adaptive.eps, baseline.eps
        )?;
    }
    writeln!(
        out,
        "(identical match vectors asserted; adaptive created {:.1}% of the \
         static-initial partial matches and ran {:.2}x its post-drift \
         throughput; full-adaptive ran {:.2}x the never-swapped oracle plan)",
        100.0 * adaptive.partials as f64 / baseline.partials as f64,
        ratio(adaptive.eps, baseline.eps),
        ratio(full.eps, oracle_row.eps)
    )?;
    Ok(())
}

/// Beyond the paper: selectivity-drift experiment — correlations shift
/// while arrival rates stay flat, the blind spot of rate-only adaptivity.
///
/// Four configurations over one drifting stream:
///
/// * **static-initial** — the phase-1 plan, never revisited;
/// * **rate-adaptive** — `AdaptiveEngine` monitoring arrival rates only
///   (the PR-3 loop): by construction it cannot see the flip, so it must
///   not swap after the drift point (stream-start calibration churn on
///   Poisson noise is possible and reported separately);
/// * **full-adaptive** — the same engine with online selectivity
///   re-estimation: it must detect the flip and swap;
/// * **static-oracle** — the phase-2 plan from the start (the hindsight
///   bound).
///
/// All four must emit byte-identical match vectors (asserted); the
/// deliverable is the full-adaptive engine recovering the oracle's
/// partial-match footprint after the drift point while the two rate-bound
/// configurations stay stuck with the stale plan.
pub fn selectivity_drift(env: &ExperimentEnv, out: &mut dyn Write) -> std::io::Result<()> {
    use crate::env::selectivity_drift_workload;
    use cep_adaptive::{AdaptiveConfig, AdaptiveEngine, PlanReplanner, Replanner};
    use cep_core::engine::Engine;
    use cep_core::matches::Match;
    use cep_optimizer::Planner;
    use cep_shard::canonical_sort;

    writeln!(
        out,
        "== Selectivity drift: correlations shift, rates stay flat =="
    )?;
    let phase_ms = env.scale.duration_ms.clamp(5_000, 30_000);
    let window_ms = 3_000.min(phase_ms / 2);
    let (gen, cp, initial_sels, oracle_sels) =
        selectivity_drift_workload(phase_ms, phase_ms, env.scale.seed ^ 0x5E1, window_ms);
    writeln!(
        out,
        "({} events, drift at {} ms, window {window_ms} ms, \
         phase-1 sels {:.3}/{:.3}, phase-2 sels {:.3}/{:.3})",
        gen.stream.len(),
        gen.drift_start_ms(),
        initial_sels[0],
        initial_sels[1],
        oracle_sels[0],
        oracle_sels[1],
    )?;
    let stats = gen.stats();
    let replanner_for = |sels: &[f64]| {
        PlanReplanner::new(
            vec![(cp.clone(), sels.to_vec())],
            &stats,
            Planner::default(),
            Backend::Nfa(OrderAlgorithm::DpLd),
            engine_config(),
        )
        .expect("selectivities match the pattern's predicates")
    };
    let initial = replanner_for(&initial_sels);
    let oracle = replanner_for(&oracle_sels);
    writeln!(
        out,
        "initial plan {}, oracle plan {}",
        initial.describe(),
        oracle.describe()
    )?;
    let adaptive_cfg = AdaptiveConfig {
        horizon_ms: window_ms,
        drift_threshold: 0.5,
        check_every: 32,
        cooldown_events: 128,
        ..AdaptiveConfig::default()
    };
    let full = initial
        .clone()
        .with_selectivity_monitoring(window_ms, 0.5, 512);
    let mut engines: Vec<(&str, Box<dyn Engine>)> = vec![
        ("static-initial", initial.build()),
        (
            "rate-adaptive",
            Box::new(AdaptiveEngine::new(
                initial.clone(),
                cp.window,
                adaptive_cfg.clone(),
            )),
        ),
        (
            "full-adaptive",
            Box::new(AdaptiveEngine::new(full, cp.window, adaptive_cfg)),
        ),
        ("static-oracle", oracle.build()),
    ];
    let mut table = Table::new(&[
        "plan",
        "partials",
        "swaps",
        "post-drift swaps",
        "suppressed",
        "sel samples",
        "replayed",
        "matches",
    ]);
    let mut partials = std::collections::HashMap::new();
    let mut reference: Option<Vec<Match>> = None;
    let mut full_post_swaps = 0;
    let mut rate_post_swaps = 0;
    let drift_ts = gen.drift_start_ms();
    for (name, engine) in &mut engines {
        let mut matches = Vec::new();
        // Swaps before the drift point are stream-start calibration churn
        // (the rate monitor warming up on Poisson noise); the claim under
        // test is about the *response to the correlation flip*, so swap
        // counts are split at the drift timestamp.
        let mut swaps_at_drift = 0;
        for event in &gen.stream {
            if event.ts < drift_ts {
                swaps_at_drift = engine.metrics().plan_swaps;
            }
            engine.process(event, &mut matches);
        }
        engine.flush(&mut matches);
        canonical_sort(&mut matches);
        let m = engine.metrics();
        let post_swaps = m.plan_swaps - swaps_at_drift;
        partials.insert(*name, m.partial_matches_created);
        if *name == "full-adaptive" {
            full_post_swaps = post_swaps;
        }
        if *name == "rate-adaptive" {
            rate_post_swaps = post_swaps;
        }
        table.row(vec![
            name.to_string(),
            m.partial_matches_created.to_string(),
            m.plan_swaps.to_string(),
            post_swaps.to_string(),
            m.suppressed_swaps.to_string(),
            si(m.selectivity_samples as f64),
            m.replayed_events.to_string(),
            matches.len().to_string(),
        ]);
        match &reference {
            None => reference = Some(matches),
            Some(r) => assert_eq!(
                &matches, r,
                "{name} diverged: every configuration must emit identical matches"
            ),
        }
    }
    write!(out, "{}", table.render())?;
    assert_eq!(
        rate_post_swaps, 0,
        "rates are flat across the drift: the rate-only monitor must not \
         react to the correlation flip"
    );
    assert!(
        full_post_swaps >= 1,
        "the correlation flip must trigger a selectivity-driven swap"
    );
    let stale = partials["static-initial"];
    let adapted = partials["full-adaptive"];
    let ideal = partials["static-oracle"];
    assert!(
        adapted < stale,
        "full-adaptive ({adapted} partial matches) must beat the stale \
         plan ({stale})"
    );
    writeln!(
        out,
        "(identical match vectors asserted; full-adaptive created {:.1}% of \
         the stale plan's partial matches, vs {:.1}% for the oracle bound)",
        100.0 * adapted as f64 / stale as f64,
        100.0 * ideal as f64 / stale as f64,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Scale;

    fn micro_env() -> ExperimentEnv {
        let mut s = Scale::quick();
        s.duration_ms = 6_000;
        s.window_ms = 2_500;
        s.per_size = 1;
        s.sizes = 3..=3;
        ExperimentEnv::setup(s)
    }

    #[test]
    fn pattern_types_runs_and_prints() {
        let env = micro_env();
        let mut buf = Vec::new();
        pattern_types(&env, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Figures 4 & 5"));
        assert!(s.contains("TRIVIAL"));
        assert!(s.contains("DP-B"));
    }

    #[test]
    fn by_size_runs_for_every_category() {
        let env = micro_env();
        for kind in PatternSetKind::all() {
            let mut buf = Vec::new();
            by_size(&env, kind, &mut buf).unwrap();
            assert!(!buf.is_empty());
        }
    }

    #[test]
    fn cost_validation_reports_fit() {
        let env = micro_env();
        let mut buf = Vec::new();
        cost_validation(&env, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("throughput ~ 1/cost^c"));
    }

    #[test]
    fn large_patterns_skips_over_cap_sizes() {
        let env = micro_env();
        let mut buf = Vec::new();
        large_patterns(&env, 20, 1, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Fig 17(a)"));
        // DP-B is capped at 18: the n=20 cell must be '-'.
        let dpb_line = s
            .lines()
            .find(|l| l.trim_start().starts_with("DP-B"))
            .unwrap();
        assert!(dpb_line.contains('-'));
    }

    #[test]
    fn latency_tradeoff_prints_alpha_rows() {
        let env = micro_env();
        let mut buf = Vec::new();
        latency_tradeoff(&env, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.matches("DP-LD").count(), 3, "one row per alpha");
    }

    #[test]
    fn strategies_prints_all_three() {
        let env = micro_env();
        let mut buf = Vec::new();
        selection_strategies(&env, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("skip-till-any-match"));
        assert!(s.contains("skip-till-next-match"));
        assert!(s.contains("strict-contiguity"));
    }

    #[test]
    fn sharded_scaling_prints_equal_match_counts() {
        let env = micro_env();
        let mut buf = Vec::new();
        sharded_scaling(&env, 4, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Sharded scaling"));
        assert!(s.contains("speedup"));
        assert!(s.contains("serial"));
    }

    #[test]
    fn adaptive_drift_swaps_and_stays_exact() {
        let env = micro_env();
        let mut buf = Vec::new();
        adaptive_drift(&env, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Adaptive drift"));
        assert!(s.contains("static-initial"));
        assert!(s.contains("static-oracle"));
        assert!(s.contains("full-adaptive"));
        assert!(s.contains("vs oracle"));
        assert!(s.contains("identical match vectors asserted"));
    }

    #[test]
    fn selectivity_drift_swaps_only_with_monitoring() {
        let env = micro_env();
        let mut buf = Vec::new();
        selectivity_drift(&env, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Selectivity drift"));
        assert!(s.contains("rate-adaptive"));
        assert!(s.contains("full-adaptive"));
        assert!(s.contains("identical match vectors asserted"));
    }

    #[test]
    fn rank_correlation_detects_monotone() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 9.0, 100.0];
        assert!((rank_correlation(&a, &b) - 1.0).abs() < 1e-9);
        let c = [100.0, 9.0, 4.0, 2.0];
        assert!((rank_correlation(&a, &c) + 1.0).abs() < 1e-9);
    }
}
