//! Parser-to-engine pipeline coverage: every operator and clause of the
//! SASE surface syntax, evaluated end to end on crafted streams.

use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, EngineConfig};
use cep::core::event::Event;
use cep::core::schema::{Catalog, ValueKind};
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::prelude::*;
use cep::tree::TreeEngine;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    for name in ["A", "B", "C", "D"] {
        cat.add_type(name, &[("x", ValueKind::Int), ("y", ValueKind::Float)])
            .unwrap();
    }
    cat
}

fn run(spec: &str, events: Vec<(u32, u64, i64, f64)>) -> u64 {
    let cat = catalog();
    let pattern = parse_pattern(spec, &cat).expect("spec parses");
    let mut sb = StreamBuilder::new();
    for (tid, ts, x, y) in events {
        sb.push(Event::new(
            cep::core::event::TypeId(tid),
            ts,
            vec![Value::Int(x), Value::Float(y)],
        ));
    }
    let stream = sb.build();
    let cfg = EngineConfig {
        max_kleene_events: 6,
        ..Default::default()
    };
    let branches = CompiledPattern::compile(&pattern).unwrap();
    let mut total = 0;
    for cp in branches {
        let mut tree = TreeEngine::with_trivial_plan(cp, cfg.clone());
        total += run_to_completion(&mut tree, &stream, true).match_count;
    }
    total
}

#[test]
fn seq_with_where_and_constants() {
    let n = run(
        "PATTERN SEQ(A a, B b) WHERE a.x < b.x AND b.y >= 1.5 WITHIN 10",
        vec![
            (0, 1, 1, 0.0),
            (1, 2, 2, 2.0), // matches (1 < 2, 2.0 >= 1.5)
            (1, 3, 0, 9.0), // x too small
            (1, 4, 5, 1.0), // y too small
        ],
    );
    assert_eq!(n, 1);
}

#[test]
fn and_is_order_insensitive() {
    let n = run(
        "PATTERN AND(A a, B b) WITHIN 10",
        vec![(1, 1, 0, 0.0), (0, 2, 0, 0.0)],
    );
    assert_eq!(n, 1);
}

#[test]
fn or_branches_union() {
    let n = run(
        "PATTERN OR(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 10",
        vec![
            (0, 1, 0, 0.0),
            (1, 2, 0, 0.0),
            (2, 3, 0, 0.0),
            (3, 4, 0, 0.0),
        ],
    );
    assert_eq!(n, 2);
}

#[test]
fn not_with_linked_predicate() {
    let n = run(
        "PATTERN SEQ(A a, NOT(B b), C c) WHERE b.x == a.x WITHIN 10",
        vec![
            (0, 1, 7, 0.0),
            (1, 2, 7, 0.0), // kills the a(x=7)..c chain
            (2, 3, 0, 0.0),
            (0, 4, 8, 0.0),
            (1, 5, 9, 0.0), // x differs: harmless
            (2, 6, 0, 0.0),
        ],
    );
    // (a@1, c@3) killed; (a@1, c@6) killed (same b between);
    // (a@4, c@6) survives.
    assert_eq!(n, 1);
}

#[test]
fn kleene_counts_subsets() {
    let n = run(
        "PATTERN SEQ(A a, KL(B b)) WITHIN 10",
        vec![(0, 1, 0, 0.0), (1, 2, 0, 0.0), (1, 3, 0, 0.0)],
    );
    // Subsets of {b@2, b@3}: 3 non-empty.
    assert_eq!(n, 3);
}

#[test]
fn ts_operands_enforce_extra_ordering() {
    // AND with an explicit a.ts < b.ts condition behaves like SEQ.
    let n = run(
        "PATTERN AND(A a, B b) WHERE a.ts < b.ts WITHIN 10",
        vec![(1, 1, 0, 0.0), (0, 2, 0, 0.0), (1, 3, 0, 0.0)],
    );
    // Only (a@2, b@3) respects a.ts < b.ts.
    assert_eq!(n, 1);
}

#[test]
fn strategy_clause_changes_results() {
    let spec_any = "PATTERN SEQ(A a, B b) WITHIN 10";
    let spec_next = "PATTERN SEQ(A a, B b) WITHIN 10 STRATEGY next";
    let events = vec![(0u32, 1u64, 0i64, 0.0f64), (0, 2, 0, 0.0), (1, 3, 0, 0.0)];
    let any_n = run(spec_any, events.clone());
    let next_n = run(spec_next, events);
    assert_eq!(any_n, 2);
    assert_eq!(next_n, 1);
}

#[test]
fn deeply_nested_specification() {
    let n = run(
        "PATTERN OR(AND(A a, OR(B b, C c)), SEQ(D d1, D d2)) WITHIN 10",
        vec![
            (0, 1, 0, 0.0), // a
            (2, 2, 0, 0.0), // c -> AND(a, c) via branch 2
            (3, 3, 0, 0.0),
            (3, 4, 0, 0.0), // d,d -> SEQ(d,d)
        ],
    );
    // Branches: AND(A,B): 0; AND(A,C): 1; SEQ(D,D): 1.
    assert_eq!(n, 2);
}
