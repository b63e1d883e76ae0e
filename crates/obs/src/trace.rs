//! Structured runtime tracing: typed records, cheap-when-disabled
//! emission, and pluggable sinks.
//!
//! The engine/adaptive/shard stack makes runtime decisions — plan swaps,
//! suppressed swaps, replicate-join routing — that are invisible as summed
//! counters. A [`Tracer`] makes them visible as typed [`TraceRecord`]s
//! without taxing the hot path: every instrumentation site goes through
//! [`Tracer::emit_with`], whose disabled cost is a single branch (for the
//! global [`Tracer::disabled`] handle) or one relaxed atomic load (for a
//! constructed tracer that is switched off), and whose record-construction
//! closure only runs when tracing is live.
//!
//! Two sinks ship with the crate: [`RingSink`], a bounded in-memory ring
//! for live inspection (the `experiments observe` decision timeline), and
//! [`JsonlSink`], which appends one canonical JSON object per record to a
//! writer — the interchange format the CI smoke step parses back and
//! round-trips.

use crate::json::{parse, Json};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One structured trace event.
///
/// Variants mirror the decision points of the stack: plan-swap verdicts
/// with their amortization arithmetic, replay windows, shard routing and
/// batch queueing, match emission, and analyzer diagnostics. All fields
/// are plain scalars so records serialize canonically
/// ([`TraceRecord::to_json`]) and parse back losslessly
/// ([`TraceRecord::from_json`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// An adaptive replan attempt and its verdict. The swap inequality is
    /// `(current_cost − candidate_cost) · amortize_windows >
    /// candidate_cost · replay_fraction`; `verdict` is `"swap"`, `"keep"`,
    /// or `"suppressed"`.
    PlanSwapDecision {
        /// Events processed by the engine when the decision was taken.
        at_event: u64,
        /// `"swap"`, `"keep"`, or `"suppressed"`.
        verdict: String,
        /// Per-window cost of the incumbent plan under fresh statistics
        /// (negative when the replanner produced no cost breakdown).
        current_cost: f64,
        /// Per-window cost of the best candidate under the same
        /// statistics (negative when unavailable).
        candidate_cost: f64,
        /// Retained replay buffer as a fraction of one window's expected
        /// events.
        replay_fraction: f64,
        /// Amortization horizon in pattern windows.
        amortize_windows: f64,
        /// Events in the retained replay buffer.
        retained_events: u64,
    },
    /// A hot swap's replay of the retained window.
    ReplayWindow {
        /// Events processed when the swap ran.
        at_event: u64,
        /// Events replayed into the fresh engine.
        replayed_events: u64,
        /// Wall time of the replay in nanoseconds.
        replay_ns: u64,
        /// Replayed re-detections dropped: matches the replay completed
        /// that the old engine had already decided.
        suppressed_matches: u64,
    },
    /// A routing decision (sampled — one in every
    /// `cep-shard`'s sampling interval). `shard` is the target worker, or
    /// `broadcast == true` for a replicated fan-out to every worker.
    ShardRoute {
        /// Serial number of the routed event.
        seq: u64,
        /// Timestamp of the routed event.
        ts: u64,
        /// Target shard (the lowest one for broadcasts).
        shard: u64,
        /// Whether the event was broadcast to every shard.
        broadcast: bool,
    },
    /// A batch handed to a worker queue.
    ShardBatch {
        /// Receiving shard.
        shard: u64,
        /// Events in the batch.
        len: u64,
        /// Batches resident in the shard's queue right after the send
        /// (including this one) — the backpressure signal.
        queue_depth: u64,
    },
    /// A match leaving the engine.
    MatchEmitted {
        /// Emission watermark of the match.
        emitted_at: u64,
        /// Timestamp of the last contributing event.
        last_ts: u64,
        /// Detection latency in nanoseconds (shared by all matches the
        /// same event completed).
        latency_ns: u64,
    },
    /// A static-analysis diagnostic surfaced at runtime.
    DiagnosticEmitted {
        /// Stable diagnostic code, e.g. `"A006"`.
        code: String,
        /// `"error"` or `"warning"`.
        severity: String,
        /// Human-readable message.
        message: String,
    },
    /// A compiled-plan cache lookup (`cep-core`'s `PlanCache`): a replan or
    /// factory build asked for the compiled program of a pattern signature.
    PlanCacheLookup {
        /// Stable pattern signature that keyed the lookup.
        signature: u64,
        /// Whether a previously compiled program was reused.
        hit: bool,
        /// Programs resident in the cache after the lookup.
        size: u64,
    },
    /// A query registered with a multi-query registry: how many of its DNF
    /// branches landed on already-running shared fragments versus built
    /// fresh engines.
    QueryRegistered {
        /// The registry-assigned query id.
        query_id: u64,
        /// DNF branches of the registered pattern.
        branches: u64,
        /// Branches that subscribed to an existing shared fragment.
        shared: u64,
        /// Distinct fragments live in the registry after registration.
        fragments: u64,
    },
    /// A query unregistered from a multi-query registry.
    QueryUnregistered {
        /// The retired query id.
        query_id: u64,
        /// Fragments torn down because this query was their last
        /// subscriber.
        retired_fragments: u64,
        /// Distinct fragments still live after the unregistration.
        fragments: u64,
    },
}

/// Encodes a float that may be non-finite: JSON numbers cannot carry
/// `inf`/`nan`, so those become the strings `"inf"`, `"-inf"`, `"nan"`.
fn f64_to_json(v: f64) -> Json {
    if v.is_finite() {
        Json::Float(v)
    } else if v.is_nan() {
        Json::Str("nan".into())
    } else if v > 0.0 {
        Json::Str("inf".into())
    } else {
        Json::Str("-inf".into())
    }
}

fn f64_from_json(v: &Json, field: &'static str) -> Result<f64, String> {
    match v {
        Json::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(format!("field {field}: invalid float string {other:?}")),
        },
        other => other
            .as_f64()
            .ok_or_else(|| format!("field {field}: expected a number")),
    }
}

fn u64_field(obj: &Json, field: &'static str) -> Result<u64, String> {
    obj.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("field {field}: expected a u64"))
}

fn f64_field(obj: &Json, field: &'static str) -> Result<f64, String> {
    f64_from_json(
        obj.get(field)
            .ok_or_else(|| format!("field {field}: missing"))?,
        field,
    )
}

fn str_field(obj: &Json, field: &'static str) -> Result<String, String> {
    obj.get(field)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("field {field}: expected a string"))
}

fn bool_field(obj: &Json, field: &'static str) -> Result<bool, String> {
    match obj.get(field) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("field {field}: expected a bool")),
    }
}

impl TraceRecord {
    /// The record's type tag as serialized (`"plan_swap_decision"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::PlanSwapDecision { .. } => "plan_swap_decision",
            TraceRecord::ReplayWindow { .. } => "replay_window",
            TraceRecord::ShardRoute { .. } => "shard_route",
            TraceRecord::ShardBatch { .. } => "shard_batch",
            TraceRecord::MatchEmitted { .. } => "match_emitted",
            TraceRecord::DiagnosticEmitted { .. } => "diagnostic",
            TraceRecord::PlanCacheLookup { .. } => "plan_cache_lookup",
            TraceRecord::QueryRegistered { .. } => "query_registered",
            TraceRecord::QueryUnregistered { .. } => "query_unregistered",
        }
    }

    /// Canonical single-line JSON encoding. Field order is fixed, floats
    /// use shortest round-trip formatting, non-finite floats encode as
    /// strings — so `from_json(to_json(r))` is the identity and
    /// `to_json(from_json(line))` reproduces `line` byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut pairs: Vec<(String, Json)> = vec![("type".into(), Json::Str(self.kind().into()))];
        match self {
            TraceRecord::PlanSwapDecision {
                at_event,
                verdict,
                current_cost,
                candidate_cost,
                replay_fraction,
                amortize_windows,
                retained_events,
            } => {
                pairs.push(("at_event".into(), Json::UInt(*at_event)));
                pairs.push(("verdict".into(), Json::Str(verdict.clone())));
                pairs.push(("current_cost".into(), f64_to_json(*current_cost)));
                pairs.push(("candidate_cost".into(), f64_to_json(*candidate_cost)));
                pairs.push(("replay_fraction".into(), f64_to_json(*replay_fraction)));
                pairs.push(("amortize_windows".into(), f64_to_json(*amortize_windows)));
                pairs.push(("retained_events".into(), Json::UInt(*retained_events)));
            }
            TraceRecord::ReplayWindow {
                at_event,
                replayed_events,
                replay_ns,
                suppressed_matches,
            } => {
                pairs.push(("at_event".into(), Json::UInt(*at_event)));
                pairs.push(("replayed_events".into(), Json::UInt(*replayed_events)));
                pairs.push(("replay_ns".into(), Json::UInt(*replay_ns)));
                pairs.push(("suppressed_matches".into(), Json::UInt(*suppressed_matches)));
            }
            TraceRecord::ShardRoute {
                seq,
                ts,
                shard,
                broadcast,
            } => {
                pairs.push(("seq".into(), Json::UInt(*seq)));
                pairs.push(("ts".into(), Json::UInt(*ts)));
                pairs.push(("shard".into(), Json::UInt(*shard)));
                pairs.push(("broadcast".into(), Json::Bool(*broadcast)));
            }
            TraceRecord::ShardBatch {
                shard,
                len,
                queue_depth,
            } => {
                pairs.push(("shard".into(), Json::UInt(*shard)));
                pairs.push(("len".into(), Json::UInt(*len)));
                pairs.push(("queue_depth".into(), Json::UInt(*queue_depth)));
            }
            TraceRecord::MatchEmitted {
                emitted_at,
                last_ts,
                latency_ns,
            } => {
                pairs.push(("emitted_at".into(), Json::UInt(*emitted_at)));
                pairs.push(("last_ts".into(), Json::UInt(*last_ts)));
                pairs.push(("latency_ns".into(), Json::UInt(*latency_ns)));
            }
            TraceRecord::DiagnosticEmitted {
                code,
                severity,
                message,
            } => {
                pairs.push(("code".into(), Json::Str(code.clone())));
                pairs.push(("severity".into(), Json::Str(severity.clone())));
                pairs.push(("message".into(), Json::Str(message.clone())));
            }
            TraceRecord::PlanCacheLookup {
                signature,
                hit,
                size,
            } => {
                pairs.push(("signature".into(), Json::UInt(*signature)));
                pairs.push(("hit".into(), Json::Bool(*hit)));
                pairs.push(("size".into(), Json::UInt(*size)));
            }
            TraceRecord::QueryRegistered {
                query_id,
                branches,
                shared,
                fragments,
            } => {
                pairs.push(("query_id".into(), Json::UInt(*query_id)));
                pairs.push(("branches".into(), Json::UInt(*branches)));
                pairs.push(("shared".into(), Json::UInt(*shared)));
                pairs.push(("fragments".into(), Json::UInt(*fragments)));
            }
            TraceRecord::QueryUnregistered {
                query_id,
                retired_fragments,
                fragments,
            } => {
                pairs.push(("query_id".into(), Json::UInt(*query_id)));
                pairs.push(("retired_fragments".into(), Json::UInt(*retired_fragments)));
                pairs.push(("fragments".into(), Json::UInt(*fragments)));
            }
        }
        Json::Obj(pairs).encode()
    }

    /// Parses one canonical JSON line back into a record.
    pub fn from_json(line: &str) -> Result<TraceRecord, String> {
        let v = parse(line.trim())?;
        let kind = str_field(&v, "type")?;
        match kind.as_str() {
            "plan_swap_decision" => Ok(TraceRecord::PlanSwapDecision {
                at_event: u64_field(&v, "at_event")?,
                verdict: str_field(&v, "verdict")?,
                current_cost: f64_field(&v, "current_cost")?,
                candidate_cost: f64_field(&v, "candidate_cost")?,
                replay_fraction: f64_field(&v, "replay_fraction")?,
                amortize_windows: f64_field(&v, "amortize_windows")?,
                retained_events: u64_field(&v, "retained_events")?,
            }),
            "replay_window" => Ok(TraceRecord::ReplayWindow {
                at_event: u64_field(&v, "at_event")?,
                replayed_events: u64_field(&v, "replayed_events")?,
                replay_ns: u64_field(&v, "replay_ns")?,
                suppressed_matches: u64_field(&v, "suppressed_matches")?,
            }),
            "shard_route" => Ok(TraceRecord::ShardRoute {
                seq: u64_field(&v, "seq")?,
                ts: u64_field(&v, "ts")?,
                shard: u64_field(&v, "shard")?,
                broadcast: bool_field(&v, "broadcast")?,
            }),
            "shard_batch" => Ok(TraceRecord::ShardBatch {
                shard: u64_field(&v, "shard")?,
                len: u64_field(&v, "len")?,
                queue_depth: u64_field(&v, "queue_depth")?,
            }),
            "match_emitted" => Ok(TraceRecord::MatchEmitted {
                emitted_at: u64_field(&v, "emitted_at")?,
                last_ts: u64_field(&v, "last_ts")?,
                latency_ns: u64_field(&v, "latency_ns")?,
            }),
            "diagnostic" => Ok(TraceRecord::DiagnosticEmitted {
                code: str_field(&v, "code")?,
                severity: str_field(&v, "severity")?,
                message: str_field(&v, "message")?,
            }),
            "plan_cache_lookup" => Ok(TraceRecord::PlanCacheLookup {
                signature: u64_field(&v, "signature")?,
                hit: bool_field(&v, "hit")?,
                size: u64_field(&v, "size")?,
            }),
            "query_registered" => Ok(TraceRecord::QueryRegistered {
                query_id: u64_field(&v, "query_id")?,
                branches: u64_field(&v, "branches")?,
                shared: u64_field(&v, "shared")?,
                fragments: u64_field(&v, "fragments")?,
            }),
            "query_unregistered" => Ok(TraceRecord::QueryUnregistered {
                query_id: u64_field(&v, "query_id")?,
                retired_fragments: u64_field(&v, "retired_fragments")?,
                fragments: u64_field(&v, "fragments")?,
            }),
            other => Err(format!("unknown record type {other:?}")),
        }
    }
}

/// A destination for trace records. Sinks must tolerate concurrent
/// emission — workers on different shards share one tracer.
pub trait TraceSink: Send + Sync {
    /// Accepts one record.
    fn emit(&self, record: &TraceRecord);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Sinks behind `Arc` are sinks too — the pattern for keeping a reading
/// handle (e.g. on a [`RingSink`]) while the tracer owns an emitting one.
impl<S: TraceSink> TraceSink for Arc<S> {
    fn emit(&self, record: &TraceRecord) {
        (**self).emit(record);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

struct TracerInner {
    enabled: AtomicBool,
    sinks: Vec<Box<dyn TraceSink>>,
}

/// A cheap, cloneable handle instrumentation sites emit through.
///
/// [`Tracer::disabled`] carries no allocation at all: its enabled check is
/// a branch on a constant `None`. A constructed tracer's check is one
/// relaxed atomic load. Record construction is wrapped in a closure
/// ([`Tracer::emit_with`]) so the disabled path never materializes a
/// record.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(i) => write!(
                f,
                "Tracer(enabled={}, sinks={})",
                i.enabled.load(Ordering::Relaxed),
                i.sinks.len()
            ),
        }
    }
}

impl Tracer {
    /// The permanently disabled tracer (the default everywhere).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer emitting to `sinks`, initially enabled.
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                enabled: AtomicBool::new(true),
                sinks,
            })),
        }
    }

    /// A tracer over a single sink.
    pub fn to_sink(sink: impl TraceSink + 'static) -> Tracer {
        Tracer::new(vec![Box::new(sink)])
    }

    /// Whether records would currently be emitted.
    pub fn is_enabled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(i) => i.enabled.load(Ordering::Relaxed),
        }
    }

    /// Switches emission on or off (no-op on the disabled tracer).
    pub fn set_enabled(&self, on: bool) {
        if let Some(i) = &self.inner {
            i.enabled.store(on, Ordering::Relaxed);
        }
    }

    /// Emits the record produced by `f`, if enabled. The closure only
    /// runs when tracing is live, so call sites may freely capture
    /// whatever the record needs.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> TraceRecord) {
        if let Some(i) = &self.inner {
            if i.enabled.load(Ordering::Relaxed) {
                let record = f();
                for sink in &i.sinks {
                    sink.emit(&record);
                }
            }
        }
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        if let Some(i) = &self.inner {
            for sink in &i.sinks {
                sink.flush();
            }
        }
    }
}

/// A bounded in-memory ring of the most recent records.
///
/// Writers claim a slot with one atomic `fetch_add` (lock-free) and then
/// take that slot's private mutex — uncontended unless two writers lap
/// each other on the same slot, so emission never serializes across
/// shards the way one global buffer lock would.
pub struct RingSink {
    slots: Vec<Mutex<Option<TraceRecord>>>,
    next: AtomicU64,
}

impl RingSink {
    /// A ring keeping the most recent `capacity` records.
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity >= 1, "ring capacity must be positive");
        RingSink {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Total records ever emitted (including overwritten ones).
    pub fn total_emitted(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Records currently held, oldest first. Concurrent emission during a
    /// snapshot may skip a slot mid-write; quiesce writers for an exact
    /// picture.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let total = self.next.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = total.saturating_sub(cap);
        let mut out = Vec::with_capacity((total - start) as usize);
        for idx in start..total {
            let slot = self.slots[(idx % cap) as usize].lock().expect("ring slot");
            if let Some(r) = slot.as_ref() {
                out.push(r.clone());
            }
        }
        out
    }
}

impl TraceSink for RingSink {
    fn emit(&self, record: &TraceRecord) {
        let idx = self.next.fetch_add(1, Ordering::AcqRel);
        let cap = self.slots.len() as u64;
        *self.slots[(idx % cap) as usize].lock().expect("ring slot") = Some(record.clone());
    }
}

/// Appends one canonical JSON line per record to a writer (JSONL).
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// A sink over any writer (e.g. a `Vec<u8>` in tests).
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// A sink writing to a freshly created (truncated) file, buffered.
    pub fn create(path: &str) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, record: &TraceRecord) {
        let mut out = self.out.lock().expect("jsonl writer");
        // Serialization happens under the lock so lines never interleave.
        let _ = writeln!(out, "{}", record.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl writer").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceRecord> {
        vec![
            TraceRecord::PlanSwapDecision {
                at_event: 512,
                verdict: "suppressed".into(),
                current_cost: 123.5,
                candidate_cost: 77.25,
                replay_fraction: 0.4,
                amortize_windows: f64::INFINITY,
                retained_events: 321,
            },
            TraceRecord::ReplayWindow {
                at_event: 513,
                replayed_events: 321,
                replay_ns: 44_000,
                suppressed_matches: 7,
            },
            TraceRecord::ShardRoute {
                seq: 99,
                ts: 1234,
                shard: 3,
                broadcast: false,
            },
            TraceRecord::ShardBatch {
                shard: 1,
                len: 256,
                queue_depth: 4,
            },
            TraceRecord::MatchEmitted {
                emitted_at: 5000,
                last_ts: 4999,
                latency_ns: 812,
            },
            TraceRecord::DiagnosticEmitted {
                code: "A006".into(),
                severity: "warning".into(),
                message: "redundant \"quoted\" predicate\nsecond line".into(),
            },
            TraceRecord::PlanCacheLookup {
                signature: 0xdead_beef_cafe_f00d,
                hit: true,
                size: 12,
            },
            TraceRecord::QueryRegistered {
                query_id: 17,
                branches: 3,
                shared: 2,
                fragments: 9,
            },
            TraceRecord::QueryUnregistered {
                query_id: 17,
                retired_fragments: 1,
                fragments: 8,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips_through_json() {
        for r in samples() {
            let line = r.to_json();
            let back = TraceRecord::from_json(&line).expect(&line);
            assert_eq!(back, r, "{line}");
            // Canonical: re-encoding the parsed record reproduces the line.
            assert_eq!(back.to_json(), line);
        }
    }

    #[test]
    fn non_finite_floats_survive() {
        let r = TraceRecord::PlanSwapDecision {
            at_event: 1,
            verdict: "keep".into(),
            current_cost: f64::NEG_INFINITY,
            candidate_cost: -1.0,
            replay_fraction: 0.0,
            amortize_windows: f64::INFINITY,
            retained_events: 0,
        };
        let line = r.to_json();
        assert!(line.contains("\"-inf\"") && line.contains("\"inf\""));
        assert_eq!(TraceRecord::from_json(&line).unwrap(), r);
    }

    #[test]
    fn from_json_rejects_malformed_records() {
        for bad in [
            "{}",
            "{\"type\":\"no_such_type\"}",
            "{\"type\":\"shard_batch\",\"shard\":1,\"len\":2}",
            "{\"type\":\"shard_route\",\"seq\":1,\"ts\":2,\"shard\":0,\"broadcast\":3}",
            "not json",
        ] {
            assert!(TraceRecord::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit_with(|| unreachable!("closure must not run when disabled"));
        t.set_enabled(true); // no-op on the disabled tracer
        assert!(!t.is_enabled());
        t.flush();
    }

    #[test]
    fn tracer_toggles_and_fans_out() {
        let ring_a = Arc::new(RingSink::new(8));
        let ring_b = Arc::new(RingSink::new(8));
        let t = Tracer::new(vec![Box::new(ring_a.clone()), Box::new(ring_b.clone())]);
        assert!(t.is_enabled());
        t.emit_with(|| samples()[3].clone());
        t.set_enabled(false);
        t.emit_with(|| unreachable!("disabled"));
        t.set_enabled(true);
        t.emit_with(|| samples()[4].clone());
        assert_eq!(ring_a.snapshot().len(), 2);
        assert_eq!(ring_b.snapshot().len(), 2);
        assert_eq!(ring_a.total_emitted(), 2);
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let ring = RingSink::new(3);
        for i in 0..5u64 {
            ring.emit(&TraceRecord::ShardBatch {
                shard: i,
                len: 1,
                queue_depth: 1,
            });
        }
        let shards: Vec<u64> = ring
            .snapshot()
            .iter()
            .map(|r| match r {
                TraceRecord::ShardBatch { shard, .. } => *shard,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(shards, vec![2, 3, 4], "oldest two were overwritten");
        assert_eq!(ring.total_emitted(), 5);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        use std::sync::OnceLock;
        // Shared buffer observable after the sink is dropped.
        static BUF: OnceLock<Arc<Mutex<Vec<u8>>>> = OnceLock::new();
        let buf = BUF.get_or_init(|| Arc::new(Mutex::new(Vec::new()))).clone();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        {
            let sink = JsonlSink::new(Box::new(Shared(buf.clone())));
            for r in samples() {
                sink.emit(&r);
            }
        } // drop flushes
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), samples().len());
        for (line, expected) in lines.iter().zip(samples()) {
            assert_eq!(TraceRecord::from_json(line).unwrap(), expected);
        }
    }
}
