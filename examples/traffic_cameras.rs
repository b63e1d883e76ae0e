//! The paper's introductory example (Section 1, Figure 1): four traffic
//! cameras A → B → C → D report sightings of vehicles; camera D is
//! malfunctioning and transmits only one frame for every ten from the
//! others. Detecting SEQ(A, B, C, D) in the trivial order creates a partial
//! match for every prefix; the lazy (out-of-order) plan waits for the rare
//! D first — same matches, far fewer partial matches.
//!
//! Run with `cargo run --release --example traffic_cameras`.

use cep::analyze::parse_query_file;
use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, EngineConfig};
use cep::core::event::Event;
use cep::core::plan::OrderPlan;
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Camera reading types, each with the spotted vehicle id, and the
    // pattern from the paper, in SASE syntax: both come from the query
    // file `cep-lint` checks.
    let query = parse_query_file(include_str!("../queries/traffic_cameras.sase")).unwrap();
    let cams: Vec<_> = ["A", "B", "C", "D"]
        .iter()
        .map(|n| query.catalog.type_id(n).unwrap())
        .collect();
    let pattern = query.pattern;

    // Simulate the road: vehicles pass every camera in order; camera D
    // only transmits 1 of 10 frames.
    let mut rng = StdRng::seed_from_u64(99);
    let mut sb = StreamBuilder::new();
    let mut ts = 0u64;
    for vehicle in 0..400i64 {
        for (i, &cam) in cams.iter().enumerate() {
            ts += rng.gen_range(20..120);
            let transmits = i < 3 || vehicle % 10 == 0;
            if transmits {
                sb.push(Event::new(cam, ts, vec![Value::Int(vehicle)]));
            }
        }
    }
    let stream = sb.build();
    println!("camera stream: {} readings", stream.len());

    let cp = CompiledPattern::compile_single(&pattern).unwrap();

    // Figure 1(a): the trivial in-order plan.
    let trivial = OrderPlan::trivial(&cp);
    // Figure 1(b): the lazy plan that waits for the rare D first, then
    // walks the equality chain backwards (d=c, c=b, b=a) so every step is
    // constrained by a predicate.
    let lazy = OrderPlan::new(vec![3, 2, 1, 0]).unwrap();

    // An order plan runs as its left-deep join tree (Section 4).
    for (name, plan) in [
        ("in-order plan (Fig 1a)", trivial),
        ("lazy plan (Fig 1b)", lazy),
    ] {
        let tree = TreePlan::left_deep(&plan);
        let mut engine = TreeEngine::new(cp.clone(), tree, EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &stream, false);
        println!(
            "{name:>22} plan {plan}: {} matches, {:>6} partial matches created, peak {:>4}",
            r.match_count, r.metrics.partial_matches_created, r.metrics.peak_partial_matches,
        );
    }
    println!("(same matches; the reordered plan is the cheapest of all 4! orders — Section 1)");
}
