//! `sparse-window-delta`: the wide-window, rare-completion regime of
//! Idris et al. (arXiv:1905.09848). 64 event types, each query touches
//! three; nine events in ten of its first type fail a range filter; the
//! window spans 20 000 events. Almost every call ends at the type or
//! filter gate, and most of the rest only inserts into or expires from
//! the windowed indexes.

use super::{Property, Query, Shape, UnaryFilter, Workload};
use cep::core::engine::EngineConfig;
use cep::core::error::CepError;
use cep::core::event::{Event, TypeId};
use cep::core::schema::{Catalog, ValueKind};
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::Backend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TYPES: usize = 64;
const QUERIES: usize = 6;
const EVENTS: usize = 1_000_000;
/// One event per millisecond, so the window below spans 20 000 events.
const WINDOW_MS: u64 = 20_000;
const KEYS: i64 = 4_096;
/// Keys in use at one time: a band of this many consecutive keys that
/// slides over the key space as the stream advances (sessions come and
/// go). With keys uniform over all 4 096 at once, a 20 000-event window
/// would complete so rarely that no latency percentile could be read.
const ACTIVE_KEYS: i64 = 128;
const KEY_SLIDE_EVENTS: usize = 2_000;
const STR_VALUES: usize = 16;
const V_RANGE: i64 = 1_000;
/// `a.v < 100` over `v` uniform in `0..1000` rejects 90 % of `A`.
const V_BELOW: i64 = 100;
/// Share of the stream, in 1/10 000, of each query's `A`, `B` and `C`
/// type; `C` is the rare one. The 46 unreferenced types split the rest.
const SHARE_A: u32 = 700;
const SHARE_B: u32 = 250;
const SHARE_C: u32 = 120;
const ATTR_K: usize = 0;
const ATTR_V: usize = 2;
const ORACLE_KEY_STRIDE: i64 = 80;

pub fn build(seed: u64) -> Result<Workload, CepError> {
    let mut catalog = Catalog::new();
    let types: Vec<TypeId> = (0..TYPES)
        .map(|i| {
            catalog.add_type(
                &format!("T{i:02}"),
                &[
                    ("k", ValueKind::Int),
                    ("s", ValueKind::Str),
                    ("v", ValueKind::Int),
                ],
            )
        })
        .collect::<Result<_, _>>()?;

    // Cumulative type distribution over 0..10_000.
    let referenced = QUERIES * 3;
    let used: u32 = QUERIES as u32 * (SHARE_A + SHARE_B + SHARE_C);
    let rest = (10_000 - used) / (TYPES - referenced) as u32;
    let mut cumulative = Vec::with_capacity(TYPES);
    let mut acc = 0u32;
    for i in 0..TYPES {
        acc += match (i < referenced, i % 3) {
            (true, 0) => SHARE_A,
            (true, 1) => SHARE_B,
            (true, _) => SHARE_C,
            (false, _) => rest,
        };
        cumulative.push(acc);
    }
    let total = acc;

    let strs: Vec<String> = (0..STR_VALUES).map(|i| format!("s{i:02}")).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AA5_5AA5);
    let mut builder = StreamBuilder::new();
    for i in 0..EVENTS {
        let draw = rng.gen_range(0..total);
        let ty = cumulative.partition_point(|&c| c <= draw);
        let band_start = (i / KEY_SLIDE_EVENTS) as i64;
        let key = (band_start + rng.gen_range(0..ACTIVE_KEYS)) % KEYS;
        // A fresh `Arc<str>` per event, as a reader of outside input
        // would produce: equal strings, distinct allocations.
        let s = if rng.gen_range(0..4) < 3 {
            key as usize % STR_VALUES
        } else {
            rng.gen_range(0..STR_VALUES)
        };
        let s = Value::from(strs[s].as_str());
        let v = rng.gen_range(0..V_RANGE);
        builder.try_push(Event::new(
            types[ty],
            i as u64,
            vec![Value::Int(key), s, Value::Int(v)],
        ))?;
    }

    // Six variants, one per type triple; odd ones move the string
    // equality to the (b, c) pair so both probe directions are indexed.
    let queries = (0..QUERIES)
        .map(|j| {
            let (a, b, c) = (3 * j, 3 * j + 1, 3 * j + 2);
            let str_eq = if j % 2 == 0 {
                "a.s == b.s"
            } else {
                "b.s == c.s"
            };
            Query {
                text: format!(
                    "PATTERN SEQ(T{a:02} a, T{b:02} b, T{c:02} c)\n\
                     WHERE (a.k == b.k AND b.k == c.k AND {str_eq} AND a.v < {V_BELOW})\n\
                     WITHIN {WINDOW_MS} ms"
                ),
                filter: Some(UnaryFilter {
                    type_id: types[a],
                    attr: ATTR_V,
                    below: V_BELOW,
                }),
            }
        })
        .collect();

    // Every equality of a query runs through the key, so thinning by key
    // keeps each kept key's matches whole.
    let stream = builder.build();
    let oracle = stream
        .iter()
        .filter(|e| matches!(e.attrs[ATTR_K], Value::Int(k) if k % ORACLE_KEY_STRIDE == 0))
        .cloned()
        .collect();
    Ok(Workload {
        name: "sparse-window-delta",
        catalog,
        stream,
        stats: None,
        queries,
        backend: Backend::Delta,
        config: EngineConfig::default(),
        shape: Shape::Engines,
        oracle,
        setup_batch: 100,
        properties: vec![
            Property::at_least("bench.completing_calls", 20_000.0),
            Property::at_most("streamgen.relevant_share", 0.1),
        ],
    })
}
