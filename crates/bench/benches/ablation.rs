//! Ablation benchmarks for the design choices called out in `DESIGN.md` §7:
//!
//! * **II seeding** — iterative improvement from random starts vs the
//!   greedy seed (plan quality is asserted equal-or-better elsewhere; here
//!   we measure the planning-time cost of restarts).
//! * **Kleene cap sensitivity** — engine runtime as the per-accumulator
//!   cap grows (the power-set semantics is exponential by design;
//!   the cap trades recall of long iterations for bounded work).
//! * **Temporal-selectivity constant** — cost-model sensitivity to the
//!   SEQ→AND rewrite's 0.5-per-pair assumption.

use cep_bench::env::{ExperimentEnv, Scale};
use cep_core::compile::CompiledPattern;
use cep_core::engine::{run_to_completion, EngineConfig};
use cep_core::stats::{PatternStats, StatsOptions};
use cep_nfa::NfaEngine;
use cep_optimizer::{OrderAlgorithm, Planner, PlannerConfig};
use cep_streamgen::{
    analytic_measured_stats, analytic_selectivities, generate_pattern, PatternSetKind,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn ablation_env() -> ExperimentEnv {
    let mut scale = Scale::quick();
    scale.duration_ms = 30_000;
    ExperimentEnv::setup(scale)
}

fn ii_seeding(c: &mut Criterion) {
    let env = ablation_env();
    let planner = Planner::default();
    let measured = analytic_measured_stats(&env.gen);
    let mut rng = StdRng::seed_from_u64(3);
    let pattern = generate_pattern(
        PatternSetKind::Sequence,
        10,
        &env.gen,
        &env.workload,
        &mut rng,
    )
    .unwrap()
    .pattern;
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let sels = analytic_selectivities(&cp, &env.gen);
    let stats = planner.stats_for(&cp, &measured, &sels).unwrap();
    let mut group = c.benchmark_group("ablation_ii_seeding");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for restarts in [1usize, 5, 10, 20] {
        group.bench_with_input(
            BenchmarkId::new("II-RANDOM", restarts),
            &restarts,
            |b, &r| {
                b.iter(|| {
                    black_box(planner.plan_order(
                        &cp,
                        &stats,
                        OrderAlgorithm::IIRandom {
                            restarts: r,
                            seed: 7,
                        },
                    ))
                })
            },
        );
    }
    group.bench_function("II-GREEDY (seeded)", |b| {
        b.iter(|| black_box(planner.plan_order(&cp, &stats, OrderAlgorithm::IIGreedy)))
    });
    group.finish();
}

fn kleene_cap(c: &mut Criterion) {
    let env = ablation_env();
    let mut rng = StdRng::seed_from_u64(11);
    let pattern = generate_pattern(PatternSetKind::Kleene, 4, &env.gen, &env.workload, &mut rng)
        .unwrap()
        .pattern;
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let run_once = |cap: usize| {
        let cfg = EngineConfig {
            max_kleene_events: cap,
            ..Default::default()
        };
        let mut engine = NfaEngine::with_trivial_plan(cp.clone(), cfg);
        run_to_completion(&mut engine, env.stream(), false).match_count
    };
    let mut group = c.benchmark_group("ablation_kleene_cap");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for cap in [2usize, 4, 8, 12] {
        group.bench_with_input(BenchmarkId::new("nfa", cap), &cap, |b, &cap| {
            b.iter(|| black_box(run_once(cap)))
        });
    }
    group.finish();
}

/// Sensitivity of the planner to the bounded-Kleene rate refinement
/// (`StatsOptions::max_kleene_events`): planning time and the chosen
/// order as the cost model moves from power-set semantics (no cap) to the
/// Σ C(m, j) subset count a capped engine can actually materialize.
fn kleene_cost_refinement(c: &mut Criterion) {
    let env = ablation_env();
    let measured = analytic_measured_stats(&env.gen);
    let mut rng = StdRng::seed_from_u64(11);
    let pattern = generate_pattern(PatternSetKind::Kleene, 5, &env.gen, &env.workload, &mut rng)
        .unwrap()
        .pattern;
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let sels = analytic_selectivities(&cp, &env.gen);
    let mut group = c.benchmark_group("ablation_kleene_cost_refinement");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for cap in [None, Some(2usize), Some(4), Some(8), Some(12)] {
        let planner = match cap {
            None => Planner::default(),
            Some(k) => Planner::default().with_max_kleene_events(k),
        };
        let stats = planner.stats_for(&cp, &measured, &sels).unwrap();
        let label = cap.map_or("unbounded".to_string(), |k| k.to_string());
        let order = planner
            .plan_order(&cp, &stats, OrderAlgorithm::DpLd)
            .unwrap();
        eprintln!(
            "kleene cost refinement cap={label}: DP-LD order {:?}",
            order.order()
        );
        group.bench_with_input(BenchmarkId::new("DP-LD", &label), &cap, |b, _| {
            b.iter(|| black_box(planner.plan_order(&cp, &stats, OrderAlgorithm::DpLd)))
        });
    }
    group.finish();
}

fn temporal_selectivity(c: &mut Criterion) {
    // Not a timing question but a stability one: measure the planning time
    // while recording (via eprintln at setup) how the chosen plan reacts to
    // the temporal-selectivity constant.
    let env = ablation_env();
    let measured = analytic_measured_stats(&env.gen);
    let mut rng = StdRng::seed_from_u64(19);
    let pattern = generate_pattern(
        PatternSetKind::Sequence,
        7,
        &env.gen,
        &env.workload,
        &mut rng,
    )
    .unwrap()
    .pattern;
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let mut group = c.benchmark_group("ablation_temporal_selectivity");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for ts in [0.25f64, 0.5, 0.75, 1.0] {
        let planner = Planner::new(PlannerConfig {
            stats_options: StatsOptions {
                temporal_selectivity: ts,
                ..Default::default()
            },
            ..Default::default()
        });
        let sels = analytic_selectivities(&cp, &env.gen);
        let stats: PatternStats = planner.stats_for(&cp, &measured, &sels).unwrap();
        group.bench_with_input(BenchmarkId::new("DP-LD", format!("{ts}")), &ts, |b, _| {
            b.iter(|| black_box(planner.plan_order(&cp, &stats, OrderAlgorithm::DpLd)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ii_seeding,
    kleene_cap,
    kleene_cost_refinement,
    temporal_selectivity
);
criterion_main!(benches);
