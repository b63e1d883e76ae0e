//! Sharded fraud detection: the `fraud_detection` pattern (a burst of
//! small card transactions, no identity re-verification, then a large
//! withdrawal) scaled out across worker shards with `cep_shard`.
//!
//! The query is *partition-keyed*: every pattern position carries the
//! `account` attribute and the predicates equate it, so all events of a
//! match share one account. Routing by that key (hash routing, or
//! partition passthrough since the stream is partitioned by account)
//! keeps each account's events on one shard, which makes the sharded run
//! **exact**: identical matches, in identical order, for any shard count.
//!
//! Run with `cargo run --release --example sharded_fraud [-- --shards N]`.
//! Without a flag it sweeps 1/2/4/8 shards and checks the counts agree.

use cep::analyze::parse_query_file;
use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, Engine, EngineConfig};
use cep::core::event::Event;
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::prelude::*;
use cep::shard::canonical_sort;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let shards_flag = parse_shards_flag();

    // Same shape as examples/fraud_detection.rs, but every position is
    // keyed by account — the property that makes sharding exact. The types
    // and the pattern come from the query file `cep-lint` checks.
    let query = parse_query_file(include_str!("../queries/sharded_fraud.sase")).unwrap();
    let id = |name| query.catalog.type_id(name).unwrap();
    let (small, verify, withdraw) = (id("SmallTxn"), id("Verify"), id("Withdrawal"));
    let pattern = query.pattern;
    println!("pattern: {pattern}\n");

    // Activity on many accounts; partition = account. Every third account
    // shows the fraudulent shape (probes, then a big withdrawal with no
    // re-verification in between). Account bursts are staggered so only a
    // couple of accounts overlap inside any 30 s window: the Kleene element
    // accumulates *candidate* small transactions before the withdrawal pins
    // the account, so its power-set cost is exponential in the small
    // transactions per window, whatever account they belong to.
    fn at(
        rng: &mut StdRng,
        timeline: &mut Vec<(u64, Event)>,
        ts: &mut u64,
        ty: cep::core::event::TypeId,
        attrs: Vec<Value>,
    ) {
        *ts += rng.gen_range(200..2_000);
        timeline.push((*ts, Event::new(ty, *ts, attrs)));
    }
    let mut rng = StdRng::seed_from_u64(41);
    let accounts = 64i64;
    let mut timeline: Vec<(u64, Event)> = Vec::new();
    for account in 0..accounts {
        let fraudulent = account % 3 == 0;
        let mut ts = account as u64 * 20_000 + rng.gen_range(0..5_000u64);
        for _ in 0..rng.gen_range(2..4u32) {
            let amount = Value::Float(rng.gen_range(5.0..45.0));
            at(
                &mut rng,
                &mut timeline,
                &mut ts,
                small,
                vec![Value::Int(account), amount],
            );
        }
        if !fraudulent {
            at(
                &mut rng,
                &mut timeline,
                &mut ts,
                verify,
                vec![Value::Int(account)],
            );
        }
        let amount = Value::Float(rng.gen_range(500.0..2_000.0));
        at(
            &mut rng,
            &mut timeline,
            &mut ts,
            withdraw,
            vec![Value::Int(account), amount],
        );
    }
    timeline.sort_by_key(|(ts, _)| *ts);
    let mut sb = StreamBuilder::new();
    for (_, event) in timeline {
        let account = match event.attr(0) {
            Some(Value::Int(a)) => *a as u32,
            _ => unreachable!("every type carries the account key"),
        };
        sb.push_partitioned(event, account);
    }
    let stream = sb.build();
    println!(
        "transaction stream: {} events across {accounts} accounts\n",
        stream.len()
    );

    // One shared plan; each worker shard builds its own engine from it.
    let cp = CompiledPattern::compile_single(&pattern).unwrap();
    let cfg = EngineConfig {
        max_kleene_events: 8,
        ..Default::default()
    };
    let factory =
        move || Box::new(TreeEngine::with_trivial_plan(cp.clone(), cfg.clone())) as Box<dyn Engine>;

    // Single-threaded ground truth, in the runtime's canonical merge order.
    let mut engine = (factory)();
    let mut baseline = run_to_completion(engine.as_mut(), &stream, true);
    canonical_sort(&mut baseline.matches);
    println!(
        "single-threaded baseline: {} alerts ({:.0} events/s)",
        baseline.match_count,
        baseline.metrics.throughput_eps()
    );

    let sweep: Vec<usize> = match shards_flag {
        Some(n) => vec![n],
        None => vec![1, 2, 4, 8],
    };
    let mut counts = Vec::new();
    for &shards in &sweep {
        let runtime = ShardedRuntime::with_shards(shards);
        // Hash routing on the account attribute; `RoutingPolicy::Partition`
        // is equivalent here because the stream is partitioned by account.
        let r = runtime.run(&factory, &stream, RoutingPolicy::HashAttr(0), true);
        println!(
            "--shards {shards}: {} alerts ({:.0} events/s; per-shard events: {:?})",
            r.match_count,
            r.metrics.throughput_eps(),
            r.per_shard
                .iter()
                .map(|s| s.events_routed)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            r.matches, baseline.matches,
            "sharded alerts must be identical to the single-threaded run"
        );
        counts.push(r.match_count);
    }
    assert!(counts.iter().all(|&c| c == counts[0]));
    assert!(counts[0] >= 1, "the fraudulent accounts must alert");
    println!(
        "\nall shard counts agree with the single-threaded engine: \
         {} alerts, byte-identical match vectors",
        counts[0]
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
                eprintln!("usage: sharded_fraud [--shards N]");
                std::process::exit(2);
            }
        },
        None => None,
    }
}
