//! Fraud detection with negation and Kleene closure: a burst of small card
//! transactions (KL) followed by a large withdrawal, with no intervening
//! identity re-verification (NOT) — the kind of security-monitoring pattern
//! the paper's introduction motivates.
//!
//! Run with `cargo run --release --example fraud_detection`.

use cep::analyze::parse_query_file;
use cep::core::engine::{run_to_completion, EngineConfig};
use cep::core::event::Event;
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // One or more small transactions on the same account, no verification
    // in between, then a big withdrawal — all within 30 seconds. The types
    // and the pattern come from the query file `cep-lint` checks.
    let query = parse_query_file(include_str!("../queries/fraud_detection.sase")).unwrap();
    let id = |name| query.catalog.type_id(name).unwrap();
    let (small, verify, withdraw) = (id("SmallTxn"), id("Verify"), id("Withdrawal"));
    let pattern = query.pattern;
    println!("pattern: {pattern}\n");

    // Simulate activity on a handful of accounts. Account 1 shows the
    // fraudulent shape; account 2 has the same shape but re-verifies.
    let mut rng = StdRng::seed_from_u64(5);
    let mut sb = StreamBuilder::new();
    let mut ts = 0u64;
    let mut push = |sb: &mut StreamBuilder, ts: &mut u64, ty, attrs: Vec<Value>| {
        *ts += rng.gen_range(100..800);
        sb.push(Event::new(ty, *ts, attrs));
    };
    // Background noise on account 0.
    for _ in 0..20 {
        push(
            &mut sb,
            &mut ts,
            small,
            vec![Value::Int(0), Value::Float(25.0)],
        );
    }
    // Fraud shape on account 1: probes then a big withdrawal.
    for _ in 0..3 {
        push(
            &mut sb,
            &mut ts,
            small,
            vec![Value::Int(1), Value::Float(9.99)],
        );
    }
    push(
        &mut sb,
        &mut ts,
        withdraw,
        vec![Value::Int(1), Value::Float(900.0)],
    );
    // Legitimate shape on account 2: probes, re-verification, withdrawal.
    for _ in 0..3 {
        push(
            &mut sb,
            &mut ts,
            small,
            vec![Value::Int(2), Value::Float(12.0)],
        );
    }
    push(&mut sb, &mut ts, verify, vec![Value::Int(2)]);
    push(
        &mut sb,
        &mut ts,
        withdraw,
        vec![Value::Int(2), Value::Float(800.0)],
    );
    let stream = sb.build();
    println!("transaction stream: {} events", stream.len());

    // Evaluate in specification order; the engine handles NOT placement
    // and Kleene growth internally.
    let cp = cep::core::compile::CompiledPattern::compile_single(&pattern).unwrap();
    let cfg = EngineConfig {
        max_kleene_events: 8,
        ..Default::default()
    };
    let mut tree = TreeEngine::with_trivial_plan(cp, cfg);
    let result = run_to_completion(&mut tree, &stream, true);

    println!("{} alerts", result.match_count);
    for m in result.matches.iter().take(5) {
        let account = m
            .bindings
            .last()
            .and_then(|(_, b)| b.events().next())
            .and_then(|e| e.attr(0).cloned());
        println!("  alert on account {:?}: {m}", account.unwrap());
    }
    // Every alert is on account 1 (account 2 re-verified).
    let all_on_account_1 = result.matches.iter().all(|m| {
        m.events()
            .all(|e| e.attr(0) == Some(&Value::Int(1)) || e.attr(0).is_none())
    });
    println!("all alerts on the fraudulent account: {all_on_account_1}");
}
