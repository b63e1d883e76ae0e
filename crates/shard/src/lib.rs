//! # cep-shard
//!
//! Sharded / partitioned parallel evaluation for the CEP engines, in the
//! spirit of multi-way stream-join scale-out (Dossinger & Michel,
//! arXiv:2104.07742): a [`ShardRouter`] assigns each input event to one of
//! `N` worker shards, every worker owns a private engine built from a
//! shared compiled plan (any [`cep_core::engine::EngineFactory`] — the
//! tree or delta engine, a `MultiEngine` over DNF branches, or the naive
//! oracle), and per-shard outputs are combined by a deterministic merge.
//!
//! ## Semantics and the determinism guarantee
//!
//! Routing *splits* the stream, so a shard only detects matches whose
//! events all landed on it. Sharded evaluation is therefore **exact** —
//! equal to the single-threaded engine on the unsplit stream, for *any*
//! shard count — in two regimes:
//!
//! * **partition-local queries** under the split-only policies:
//!   every match's events share one routing key (all pattern positions
//!   linked by key-equality predicates, the classic per-account /
//!   per-vehicle / per-session CEP query), routed with
//!   [`RoutingPolicy::HashAttr`] on that key or
//!   [`RoutingPolicy::Partition`] when the key is the partition id; or a
//!   pattern under
//!   [`SelectionStrategy::PartitionContiguity`](cep_core::selection::SelectionStrategy),
//!   which *by definition* confines matches to one partition.
//! * **arbitrary (cross-partition) queries** under
//!   [`RoutingPolicy::ReplicateJoin`]: a
//!   [`QueryPartitioner`](cep_core::partition::QueryPartitioner) analyzes
//!   the query's equality predicates and classifies each event type as
//!   *partitioned* (hashed by its join-key attribute — kept for the
//!   high-rate side) or *replicated* (broadcast to every shard — the
//!   low-rate side), so every match is complete on the shard its key
//!   hashes to. Matches binding no partitioned event are detected by all
//!   shards; the merge deduplicates them by signature, keeping the
//!   canonically first copy ([`cep_core::metrics::EngineMetrics`] reports
//!   the broadcast overhead as `replicated_events` and the suppressed
//!   duplicates as `dedup_hits`).
//!
//! Under those conditions — and under the three *exact* selection
//! strategies (skip-till-any-match, strict contiguity, partition
//! contiguity) — the merged output of [`ShardedRuntime::run`] is the
//! single-threaded result vector in [`canonical_sort`] order: same
//! `Match` values, same order, whether it ran on 1 shard or 16.
//! Skip-till-next-match is excluded from the exactness guarantee: an
//! emission consumes its events for every later candidate of *any* key,
//! so which matches survive depends on how partitions interleave (the
//! strategy is already plan-dependent single-threaded). A sharded next-match run
//! is still deterministic per configuration, its matches valid and
//! event-disjoint across all shards, but bindings may differ from the
//! global greedy run's. [`RoutingPolicy::RoundRobin`] offers no exactness
//! for multi-element patterns (it splits key groups); it is exact only
//! for single-element (filter) patterns and otherwise serves as a
//! raw-throughput upper bound. One caveat applies to *mid-stream deferred*
//! emissions (trailing negations, negation inside conjunctions): their
//! `emitted_at` watermark is taken from the emitting engine's own input,
//! which under split routing can lag the unsplit stream's — bindings and
//! match sets are still exact, end-of-stream flushes included.
//!
//! [`ShardRouter::for_query`] (and [`ShardedRuntime::run_query`]) check a
//! policy against the compiled query and reject combinations they cannot
//! prove sound with a typed
//! [`CepError::Routing`](cep_core::error::CepError) — hash-routing a
//! query whose correlation attribute does not key every element used to
//! silently drop cross-shard matches; now it points at the replicate-join
//! policy instead. [`RoutingPolicy::Partition`] passes the check only for
//! partition-contiguity queries: whether a key-linked query's key mirrors
//! the partition id is a *stream* property no query analysis can see, so
//! key-partitioned deployments should hash the key explicitly
//! ([`RoutingPolicy::HashAttr`], which is verified) or opt out via the
//! unchecked [`ShardRouter::new`] / [`ShardedRuntime::run`] path.
//!
//! Workers communicate over bounded [`std::sync::mpsc`] channels carrying
//! event *batches*: batching amortizes the per-send synchronization, and
//! the bound applies backpressure to the router instead of letting queues
//! grow without limit.
//!
//! One driver serves every entry point: [`ShardedRuntime::run`] and
//! [`ShardedRuntime::run_query`] are the one-query case of
//! [`ShardedRuntime::run_registry`] (a `QueryRegistry` per worker), with
//! one worker loop, one per-query merge and one failure policy. A worker
//! that panics surfaces as
//! [`CepError::Worker`](cep_core::error::CepError) naming the lowest
//! failing shard; only `run`, whose signature returns no `Result`, panics
//! instead, with that error's text.
//!
//! Because workers accept *any* factory, they compose with the adaptive
//! runtime: hand [`ShardedRuntime::run`] a `cep_adaptive::AdaptiveFactory`
//! and every worker owns a self-replanning engine that monitors, replans,
//! and hot-swaps on the statistics of its own slice of the stream — the
//! sharded and adaptive exactness guarantees stack (tested in
//! `src/tests.rs`).

#![warn(missing_docs)]

mod router;
mod runtime;

pub use router::{hash_value, RouteTarget, RoutingPolicy, ShardRouter};
pub use runtime::{
    canonical_sort, MultiQueryRunResult, ShardConfig, ShardStats, ShardedRunResult, ShardedRuntime,
};

#[cfg(test)]
mod tests;
