//! Cross-partition fraud detection: the correlation attribute is **not**
//! the partition attribute, so split-only routing cannot shard this query
//! — replicate-join can.
//!
//! The stream is partitioned by *terminal* (the channel an event arrives
//! on), but fraud correlates by *account*: after a high-severity fraud
//! bulletin (a rare, account-less broadcast event), a card swipe followed
//! by a large withdrawal on the same account — typically through two
//! different terminals — must alert within the window.
//!
//! A `QueryPartitioner` classifies the event types from the query's
//! equality predicates and the measured rates: `CardSwipe` and
//! `Withdrawal` are key-linked on `account` (partitioned — the high-rate
//! side scales across shards), while `Bulletin` has no key and is
//! replicated to every worker. The sharded run is then byte-identical to
//! the single-threaded engine for any shard count, and the old
//! silent-wrong-answer policies are *rejected* with a typed error.
//!
//! Run with `cargo run --release --example cross_partition_fraud [-- --shards N]`.

use cep::analyze::parse_query_file;
use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, Engine, EngineConfig};
use cep::core::event::Event;
use cep::core::stats::MeasuredStats;
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::prelude::*;
use cep::shard::{canonical_sort, ShardRouter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    let shards_flag = parse_shards_flag();

    // Swipe and withdrawal correlate on `account`; the bulletin is global
    // (no account at all) — the unkeyed side replicate-join broadcasts. The
    // types and the pattern come from the query file `cep-lint` checks.
    let query = parse_query_file(include_str!("../queries/cross_partition_fraud.sase")).unwrap();
    let id = |name| query.catalog.type_id(name).unwrap();
    let (swipe, withdraw, bulletin) = (id("CardSwipe"), id("Withdrawal"), id("Bulletin"));
    let pattern = query.pattern;
    println!("pattern: {pattern}\n");

    // Activity on 48 accounts spread over 16 terminals: every event lands
    // on a random terminal, so one account's events straddle partitions —
    // the stream partition (terminal) is NOT the correlation key (account).
    let mut rng = StdRng::seed_from_u64(17);
    let terminals = 16u32;
    let mut timeline: Vec<(u64, u32, Event)> = Vec::new();
    let mut ts = 0u64;
    for burst in 0..48i64 {
        let account = burst % 24;
        ts += rng.gen_range(500..3_000);
        // A bulletin every few bursts; only high-severity ones arm alerts.
        if burst % 5 == 0 {
            let level = if burst % 10 == 0 { 4 } else { 1 };
            timeline.push((
                ts,
                rng.gen_range(0..terminals),
                Event::new(bulletin, ts, vec![Value::Int(level)]),
            ));
        }
        ts += rng.gen_range(200..2_000);
        timeline.push((
            ts,
            rng.gen_range(0..terminals),
            Event::new(
                swipe,
                ts,
                vec![Value::Int(account), Value::Float(rng.gen_range(5.0..80.0))],
            ),
        ));
        ts += rng.gen_range(200..2_000);
        let amount = if burst % 3 == 0 { 900.0 } else { 40.0 };
        timeline.push((
            ts,
            rng.gen_range(0..terminals),
            Event::new(
                withdraw,
                ts,
                vec![Value::Int(account), Value::Float(amount)],
            ),
        ));
    }
    let mut sb = StreamBuilder::new();
    for (_, terminal, event) in timeline {
        sb.push_partitioned(event, terminal);
    }
    let stream = sb.build();
    println!(
        "transaction stream: {} events over {terminals} terminals \
         (partition = terminal, correlation = account)\n",
        stream.len()
    );

    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let branches = std::slice::from_ref(&cp);
    let factory = {
        let cp = cp.clone();
        move || {
            Box::new(TreeEngine::with_trivial_plan(
                cp.clone(),
                EngineConfig::default(),
            )) as Box<dyn Engine>
        }
    };

    // The guard rail first: the split-only policies PR 2 shipped are now
    // *rejected* for this query instead of silently losing matches.
    for policy in [RoutingPolicy::HashAttr(0), RoutingPolicy::Partition] {
        let err = ShardRouter::for_query(4, policy.clone(), branches)
            .expect_err("split-only routing must be rejected for cross-key queries");
        println!("{policy} rejected:\n  {err}\n");
    }

    // Replicate-join: partitioned/replicated classification from the
    // query's equality predicates plus measured rates.
    let spec =
        QueryPartitioner::analyze_measured(branches, &MeasuredStats::measure(&stream)).unwrap();
    println!("partition spec: {spec}");
    let policy = RoutingPolicy::ReplicateJoin(Arc::new(spec));

    // Single-threaded ground truth, in the runtime's canonical merge order.
    let mut engine = (factory)();
    let mut baseline = run_to_completion(engine.as_mut(), &stream, true);
    canonical_sort(&mut baseline.matches);
    println!(
        "single-threaded baseline: {} alerts ({:.0} events/s)\n",
        baseline.match_count,
        baseline.metrics.throughput_eps()
    );

    let sweep: Vec<usize> = match shards_flag {
        Some(n) => vec![n],
        None => vec![1, 2, 4, 8],
    };
    for &shards in &sweep {
        let r = ShardedRuntime::with_shards(shards)
            .run_query(&factory, &stream, policy.clone(), branches, true)
            .expect("replicate-join policy is sound for this query");
        println!(
            "--shards {shards}: {} alerts ({:.0} events/s; +{} replicated \
             deliveries, {} duplicates suppressed)",
            r.match_count,
            r.metrics.throughput_eps(),
            r.metrics.replicated_events,
            r.metrics.dedup_hits,
        );
        assert_eq!(
            r.matches, baseline.matches,
            "replicate-join alerts must be identical to the single-threaded run"
        );
    }
    assert!(baseline.match_count >= 1, "the fraud shape must alert");
    println!(
        "\nall shard counts agree with the single-threaded engine: \
         {} alerts, byte-identical match vectors",
        baseline.match_count
    );
    for m in baseline.matches.iter().take(3) {
        let account = m
            .bindings
            .last()
            .and_then(|(_, b)| b.events().next())
            .and_then(|e| e.attr(0).cloned());
        println!("  e.g. alert on account {:?}: {m}", account.unwrap());
    }
}

fn parse_shards_flag() -> Option<usize> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().position(|a| a == "--shards") {
        Some(i) => match args.get(i + 1).and_then(|s| s.parse().ok()) {
            Some(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("usage: cross_partition_fraud [--shards N]");
                std::process::exit(2);
            }
        },
        None => None,
    }
}
