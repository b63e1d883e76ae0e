//! The facade's `EngineBuilder`: builder misuse fails with typed errors
//! instead of panicking, and the registry backends agree.

use cep::conformance::keyed;
use cep::core::error::CepError;
use cep::prelude::*;
use cep::streamgen::GeneratedStream;

/// `unwrap_err` for results whose `Ok` type has no `Debug` impl.
fn expect_err<T>(r: Result<T, CepError>) -> CepError {
    match r {
        Ok(_) => panic!("expected a builder error"),
        Err(e) => e,
    }
}

fn fixture() -> (cep::core::pattern::Pattern, GeneratedStream) {
    let config = StockConfig::nasdaq_like(6, 8_000, 0.5, 11);
    let mut catalog = cep::core::schema::Catalog::new();
    let generated = StockStreamGenerator::generate(&config, &mut catalog).unwrap();
    let pattern = parse_pattern(
        "PATTERN SEQ(S0000 a, S0002 b)
         WHERE a.difference < b.difference
         WITHIN 4 s",
        &catalog,
    )
    .unwrap();
    (pattern, generated)
}

/// Builder misuse fails with typed errors, never panics: stats-needing
/// backends without `.stats()`, adaptive planning on the plan-free delta
/// backend, and a `.replicate_join()` chain terminated with the wrong
/// finisher (which would silently drop the routing policy).
#[test]
fn builder_misuse_is_a_typed_error() {
    let (pattern, generated) = fixture();

    let err = expect_err(
        cep::engine(&pattern)
            .backend(Backend::Nfa(OrderAlgorithm::DpLd))
            .build(),
    );
    assert!(matches!(err, CepError::Stats(_)), "got {err:?}");

    let err = expect_err(
        cep::engine(&pattern)
            .backend(Backend::Tree(TreeAlgorithm::DpB))
            .factory(),
    );
    assert!(matches!(err, CepError::Stats(_)), "got {err:?}");

    let err = expect_err(
        cep::engine(&pattern)
            .adaptive(AdaptiveConfig::default())
            .stats(&generated)
            .build(),
    );
    // The same message `PlanReplanner::new` gives for a delta replanner.
    assert!(
        matches!(&err, CepError::Plan(m) if m == cep::optimizer::DELTA_HAS_NO_PLAN),
        "got {err:?}"
    );

    let err = expect_err(
        cep::engine(&pattern)
            .backend(Backend::Nfa(OrderAlgorithm::DpLd))
            .stats(&generated)
            .replicate_join()
            .build(),
    );
    assert!(matches!(err, CepError::Plan(_)), "got {err:?}");

    let err = expect_err(
        cep::registry()
            .backend(Backend::Nfa(OrderAlgorithm::DpLd))
            .build(),
    );
    assert!(matches!(err, CepError::Stats(_)), "got {err:?}");
}

/// The facade registry builder wires the planner in: an NFA-backed
/// registry emits the same matches as a delta-backed one on the same
/// query set.
#[test]
fn facade_registry_backends_agree() {
    let (pattern, generated) = fixture();
    let mut results = Vec::new();
    for (name, builder) in [
        ("delta", cep::registry()),
        (
            "nfa",
            cep::registry()
                .backend(Backend::Nfa(OrderAlgorithm::DpLd))
                .stats(&generated),
        ),
        (
            "tree",
            cep::registry()
                .backend(Backend::Tree(TreeAlgorithm::DpB))
                .stats(&generated),
        ),
    ] {
        let mut registry = builder.build().unwrap();
        let q0 = registry.register(&pattern).unwrap();
        let q1 = registry.register(&pattern).unwrap();
        assert_eq!(registry.fragment_count(), 1, "identical queries share");
        let r = registry.run(&generated.stream);
        assert_eq!(
            keyed(&r.per_query[&q0]),
            keyed(&r.per_query[&q1]),
            "{name}: duplicate registrations must see identical output"
        );
        results.push((name, keyed(&r.per_query[&q0])));
    }
    assert!(!results[0].1.is_empty(), "fixture must produce matches");
    for (name, ks) in &results[1..] {
        assert_eq!(ks, &results[0].1, "{name} disagrees with delta");
    }
}
