//! Experiment environment: stream, catalog, workload and statistics.

use cep_core::schema::Catalog;
use cep_core::stream::EventStream;
use cep_streamgen::{
    GeneratedStream, PatternSetKind, StockConfig, StockStreamGenerator, WorkloadConfig,
};

/// Scale knobs for an experiment run.
///
/// `quick()` finishes every figure in seconds-to-minutes on a laptop;
/// `full()` approaches the paper's scale structure (the paper's absolute
/// scale — 80.5M events, 500 patterns per set, 1.5 CPU-months — is not the
/// target; shapes are).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Number of stock symbols.
    pub symbols: usize,
    /// Stream duration (ms).
    pub duration_ms: u64,
    /// Rate multiplier over the paper's 1–45 events/s range.
    pub rate_scale: f64,
    /// Patterns per size per category.
    pub per_size: usize,
    /// Pattern sizes (the paper: 3..=7).
    pub sizes: std::ops::RangeInclusive<usize>,
    /// Pattern window (ms) (the paper: 20 minutes).
    pub window_ms: u64,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Small but shape-preserving scale.
    ///
    /// The binding constraint is the size-7 skip-till-any-match
    /// conjunction: its live partial matches scale with
    /// `Π (W·r_i · sel)` , so `window × rate_scale` is kept low enough that
    /// the *worst* plans stay measurable rather than explosive.
    pub fn quick() -> Scale {
        Scale {
            symbols: 30,
            duration_ms: 120_000, // 2 minutes
            rate_scale: 0.03,     // 0.03–1.35 events/s per symbol
            per_size: 3,
            sizes: 3..=7,
            window_ms: 5_000,
            seed: 0xCE9,
        }
    }

    /// Larger runs (tens of minutes per figure).
    pub fn full() -> Scale {
        Scale {
            symbols: 60,
            duration_ms: 600_000, // 10 minutes
            rate_scale: 0.05,
            per_size: 10,
            sizes: 3..=7,
            window_ms: 8_000,
            seed: 0xCE9,
        }
    }

    /// Applies a seed override.
    pub fn with_seed(mut self, seed: u64) -> Scale {
        self.seed = seed;
        self
    }
}

/// Shared state for one experiment: the generated stream, the catalog, and
/// the workload configuration.
pub struct ExperimentEnv {
    /// Scale used.
    pub scale: Scale,
    /// Event type catalog.
    pub catalog: Catalog,
    /// Generated stream plus symbol ground truth.
    pub gen: GeneratedStream,
    /// Workload (pattern generation) configuration.
    pub workload: WorkloadConfig,
}

impl ExperimentEnv {
    /// Generates the stream and workload configuration for a scale.
    pub fn setup(scale: Scale) -> ExperimentEnv {
        let cfg = StockConfig::nasdaq_like(
            scale.symbols,
            scale.duration_ms,
            scale.rate_scale,
            scale.seed,
        );
        let mut catalog = Catalog::new();
        let gen = StockStreamGenerator::generate(&cfg, &mut catalog)
            .expect("fresh catalog accepts all symbols");
        let workload = WorkloadConfig {
            window_ms: scale.window_ms,
            seed: scale.seed ^ 0xABCD,
        };
        ExperimentEnv {
            scale,
            catalog,
            gen,
            workload,
        }
    }

    /// The event stream.
    pub fn stream(&self) -> &EventStream {
        &self.gen.stream
    }

    /// Generates the pattern set of one category at this scale.
    pub fn pattern_set(&self, kind: PatternSetKind) -> Vec<cep_streamgen::GeneratedPattern> {
        cep_streamgen::generate_set(
            kind,
            self.scale.sizes.clone(),
            self.scale.per_size,
            &self.gen,
            &self.workload,
        )
        .expect("workload generation is infallible at sane scales")
    }
}

/// Partition-replicated stock workload shared by the sharded-scaling
/// surfaces (`figures::sharded_scaling`, the `bench-smoke` gate):
/// `replicas` decorrelated copies of a 4-symbol stock stream, plus the
/// partition-local `SEQ` query that equates `replica` across all
/// positions — the shape for which sharded evaluation is exact.
pub fn replicated_stock_workload(
    duration_ms: u64,
    rate_scale: f64,
    seed: u64,
    replicas: u32,
    window_ms: u64,
) -> (GeneratedStream, cep_core::compile::CompiledPattern) {
    let cfg = StockConfig::nasdaq_like(4, duration_ms, rate_scale, seed);
    let mut catalog = Catalog::new();
    let gen = StockStreamGenerator::generate_replicated(&cfg, replicas, &mut catalog)
        .expect("fresh catalog accepts all symbols");
    let pattern = cep_sase::parse_pattern(
        &format!(
            "PATTERN SEQ(S0000 a, S0001 b, S0002 c)
             WHERE (a.replica == b.replica AND b.replica == c.replica
                    AND a.difference < b.difference)
             WITHIN {window_ms} ms"
        ),
        &catalog,
    )
    .expect("pattern parses against the replicated catalog");
    let cp = cep_core::compile::CompiledPattern::compile_single(&pattern)
        .expect("pure conjunctive pattern");
    (gen, cp)
}

/// Cross-key stock workload shared by the cross-partition surfaces
/// (`figures::cross_partition`, the `bench-smoke` gate): stock updates
/// over `accounts` trading accounts where the stream is partitioned by
/// *symbol* but the query correlates by *account* — the shape split-only
/// routing silently gets wrong.
/// The query joins the two high-rate symbols on `account` and compares
/// against the rare third symbol without any key, so a
/// `QueryPartitioner` hashes S0000/S0001 by account and replicates the
/// low-rate S0002 to every shard.
pub fn cross_key_stock_workload(
    duration_ms: u64,
    rate_scale: f64,
    seed: u64,
    accounts: u32,
    window_ms: u64,
) -> (GeneratedStream, cep_core::compile::CompiledPattern) {
    let spec = |name: &str, rate: f64, drift: f64| cep_streamgen::SymbolSpec {
        name: name.into(),
        rate_per_sec: rate * rate_scale,
        start_price: 100.0,
        drift,
        volatility: 1.0,
    };
    let cfg = StockConfig {
        symbols: vec![
            spec("S0000", 25.0, 0.4),
            spec("S0001", 20.0, 0.0),
            spec("S0002", 2.0, -0.4),
        ],
        duration_ms,
        seed,
    };
    let mut catalog = Catalog::new();
    let gen = StockStreamGenerator::generate_cross_key(&cfg, accounts, &mut catalog)
        .expect("fresh catalog accepts all symbols");
    let pattern = cep_sase::parse_pattern(
        &format!(
            "PATTERN SEQ(S0000 a, S0001 b, S0002 c)
             WHERE (a.account == b.account AND a.difference < c.difference)
             WITHIN {window_ms} ms"
        ),
        &catalog,
    )
    .expect("pattern parses against the cross-key catalog");
    let cp = cep_core::compile::CompiledPattern::compile_single(&pattern)
        .expect("pure conjunctive pattern");
    (gen, cp)
}

/// Drifting stock workload shared by the adaptive surfaces
/// (`figures::adaptive_drift`, the `bench-smoke` gate): three symbols
/// where the frequent (AAA) and rare (CCC) types swap roles after
/// `phase1_ms`, plus the `SEQ` query whose cheap evaluation order inverts
/// with them. Returns the stream, the compiled pattern, and its
/// per-predicate analytic selectivities.
pub fn drifting_stock_workload(
    phase1_ms: u64,
    phase2_ms: u64,
    seed: u64,
    window_ms: u64,
) -> (
    cep_streamgen::DriftingStream,
    cep_core::compile::CompiledPattern,
    Vec<f64>,
) {
    use cep_streamgen::{generate_drifting, DriftPhase, SymbolSpec};
    let spec = |name: &str, rate: f64, drift: f64| SymbolSpec {
        name: name.into(),
        rate_per_sec: rate,
        start_price: 100.0,
        drift,
        volatility: 1.0,
    };
    // Widely separated drifts make the difference-comparison predicates
    // selective (~0.08 each): the engines' work is dominated by partial-
    // match maintenance — what the plan order controls — rather than by
    // emitting a flood of matches.
    let base = StockConfig {
        symbols: vec![
            spec("AAA", 20.0, 2.0),
            spec("BBB", 4.0, 0.0),
            spec("CCC", 1.0, -2.0),
        ],
        duration_ms: 0, // per-phase durations below
        seed,
    };
    let phases = vec![
        DriftPhase::new(phase1_ms, vec![1.0, 1.0, 1.0]),
        DriftPhase::new(phase2_ms, vec![0.05, 1.0, 20.0]),
    ];
    let mut catalog = Catalog::new();
    let gen =
        generate_drifting(&base, &phases, &mut catalog).expect("fresh catalog accepts all symbols");
    let pattern = cep_sase::parse_pattern(
        &format!(
            "PATTERN SEQ(AAA a, BBB b, CCC c)
             WHERE (a.difference < b.difference AND b.difference < c.difference)
             WITHIN {window_ms} ms"
        ),
        &catalog,
    )
    .expect("pattern parses against the drifting catalog");
    let cp = cep_core::compile::CompiledPattern::compile_single(&pattern)
        .expect("pure conjunctive pattern");
    let sels = vec![
        base.symbols[0].lt_selectivity(&base.symbols[1]),
        base.symbols[1].lt_selectivity(&base.symbols[2]),
    ];
    (gen, cp, sels)
}

/// Selectivity-drifting stock workload shared by the selectivity-adaptive
/// surfaces (`figures::selectivity_drift`, the `bench-smoke` gate):
/// three symbols whose arrival rates never change, but whose difference
/// drifts swap after `phase1_ms` so the selective predicate moves from
/// `a.difference < c.difference` (phase 1, ~0.05) to
/// `a.difference < b.difference` (phase 2) — flipping the cheap evaluation
/// order while a rate monitor sees nothing. Returns the stream, the
/// compiled pattern, its phase-1 (bootstrap) selectivities, and its
/// phase-2 (oracle) selectivities.
pub fn selectivity_drift_workload(
    phase1_ms: u64,
    phase2_ms: u64,
    seed: u64,
    window_ms: u64,
) -> (
    cep_streamgen::SelectivityDriftStream,
    cep_core::compile::CompiledPattern,
    Vec<f64>,
    Vec<f64>,
) {
    use cep_streamgen::{generate_selectivity_drifting, SelectivityPhase, SymbolSpec};
    let spec = |name: &str, rate: f64| SymbolSpec {
        name: name.into(),
        rate_per_sec: rate,
        start_price: 100.0,
        drift: 0.0, // per-phase drifts below
        volatility: 1.0,
    };
    let base = StockConfig {
        symbols: vec![spec("AAA", 20.0), spec("BBB", 5.0), spec("CCC", 5.0)],
        duration_ms: 0, // per-phase durations below
        seed,
    };
    // Drift separation 2.33 over a pair volatility of √2 puts each
    // selectivity at ~0.05 on the tight side and ~0.95 on the loose side.
    let phases = vec![
        SelectivityPhase::new(phase1_ms, vec![0.0, 2.33, -2.33]),
        SelectivityPhase::new(phase2_ms, vec![0.0, -2.33, 2.33]),
    ];
    let mut catalog = Catalog::new();
    let gen = generate_selectivity_drifting(&base, &phases, &mut catalog)
        .expect("fresh catalog accepts all symbols");
    let pattern = cep_sase::parse_pattern(
        &format!(
            "PATTERN SEQ(AAA a, BBB b, CCC c)
             WHERE (a.difference < b.difference AND a.difference < c.difference)
             WITHIN {window_ms} ms"
        ),
        &catalog,
    )
    .expect("pattern parses against the drifting catalog");
    let cp = cep_core::compile::CompiledPattern::compile_single(&pattern)
        .expect("pure conjunctive pattern");
    let initial_sels = vec![
        gen.phase_lt_selectivity(0, 0, 1),
        gen.phase_lt_selectivity(0, 0, 2),
    ];
    let oracle_sels = vec![
        gen.phase_lt_selectivity(1, 0, 1),
        gen.phase_lt_selectivity(1, 0, 2),
    ];
    (gen, cp, initial_sels, oracle_sels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_workload_flips_the_selective_predicate() {
        let (gen, cp, initial, oracle) = selectivity_drift_workload(3_000, 3_000, 7, 1_500);
        assert!(!gen.stream.is_empty());
        assert_eq!(cp.predicates.len(), 2);
        assert!(initial[0] > 0.9 && initial[1] < 0.1, "{initial:?}");
        assert!(oracle[0] < 0.1 && oracle[1] > 0.9, "{oracle:?}");
    }

    #[test]
    fn cross_key_workload_partitions_the_high_rate_side() {
        use cep_core::partition::{QueryPartitioner, TypeDisposition};
        let (gen, cp) = cross_key_stock_workload(5_000, 0.5, 7, 8, 1_000);
        assert!(!gen.stream.is_empty());
        let stats = cep_core::stats::MeasuredStats::measure(&gen.stream);
        let spec = QueryPartitioner::analyze_measured(std::slice::from_ref(&cp), &stats).unwrap();
        assert_eq!(
            spec.disposition(gen.type_ids[0]),
            Some(TypeDisposition::Partitioned {
                attr: cep_streamgen::ATTR_ACCOUNT
            })
        );
        assert_eq!(
            spec.disposition(gen.type_ids[1]),
            Some(TypeDisposition::Partitioned {
                attr: cep_streamgen::ATTR_ACCOUNT
            })
        );
        assert_eq!(
            spec.disposition(gen.type_ids[2]),
            Some(TypeDisposition::Replicated),
            "the rare unkeyed symbol is the broadcast side"
        );
    }

    #[test]
    fn quick_env_sets_up() {
        let mut scale = Scale::quick();
        scale.duration_ms = 5_000;
        let env = ExperimentEnv::setup(scale);
        assert!(!env.stream().is_empty());
        assert_eq!(env.catalog.len(), 30);
        let set = env.pattern_set(PatternSetKind::Sequence);
        let sizes = env.scale.sizes.clone().count();
        assert_eq!(set.len(), sizes * env.scale.per_size);
    }

    #[test]
    fn seeded_envs_are_reproducible() {
        let mut scale = Scale::quick();
        scale.duration_ms = 3_000;
        let a = ExperimentEnv::setup(scale.clone());
        let b = ExperimentEnv::setup(scale);
        assert_eq!(a.stream().len(), b.stream().len());
    }
}
