//! # cep-adaptive
//!
//! Live plan swap with state migration: the detect → replan → swap loop
//! the paper defers to its companion work (Section 6.3), closed inside a
//! running engine. This is the adaptive direction of the streaming-join
//! optimizers in the related work (Dossinger & Michel, arXiv:2104.07742,
//! re-optimize join orders online; Idris et al., arXiv:1905.09848,
//! maintain results under updates without recomputation).
//!
//! ## The protocol
//!
//! [`AdaptiveEngine`] wraps any plan-built engine and, per input event:
//!
//! 1. feeds a [`StatsMonitor`](cep_optimizer::StatsMonitor) (sliding-horizon
//!    arrival rates + drift detection) and a **retained-event buffer**
//!    holding exactly the last pattern window of the stream, plus a
//!    **negated tail**: the events of negated types
//!    ([`Replanner::negated_types`]) from the window before it;
//! 2. forwards the event to the active engine and its emissions downstream
//!    — no emitted match is remembered;
//! 3. every `check_every` events, if the monitor reports drift, asks its
//!    [`Replanner`] to rebuild the evaluation plan from the live rate
//!    estimates. If the plan changed, the engine **hot-swaps**: a fresh
//!    engine is built from the new plan, the negated tail and then the
//!    retained window are replayed into it, and the old engine is dropped
//!    *without flushing* (its deferred state — e.g. matches pending a
//!    trailing-negation watermark — is reconstructed exactly by the
//!    replay).
//!
//! ## Exactness
//!
//! Under the three *exact* selection strategies (skip-till-any-match,
//! strict contiguity, partition contiguity) the merged output is
//! **byte-identical** to a never-swapped engine's, for any swap schedule:
//!
//! * any match emitted after a swap at watermark `w` only binds events with
//!   `ts ≥ w − window` (its last event has `ts ≥ w` and the pattern window
//!   bounds the span), and the retained buffer holds every such event — the
//!   new engine misses nothing;
//! * the swap runs after the old engine has processed the current event,
//!   so every match the replay completes is decided at a watermark the old
//!   engine already reached, and the old engine, being exact, has already
//!   emitted it: the wrapper drops every replayed emission by construction;
//! * a negated element forbids events above `max_ts − window`; a match the
//!   replay parks can have `max_ts` a window before `w`, so the events that
//!   forbid it reach two windows back. The negated tail holds them, so the
//!   new engine rejects exactly the matches the old one did;
//! * match *content* is plan-independent for the exact strategies
//!   (the plan changes cost, never the result set — the paper's Section 3
//!   semantics), so swapping plans mid-stream cannot change the output.
//!
//! Skip-till-next-match is excluded, exactly as in `cep-shard`: its greedy
//! binding choices depend on the consumption state accumulated under the
//! old plan, which a swap rebuilds from the retained window only. The
//! wrapper *does* migrate consumption state — events bound by emitted
//! matches are remembered for one window, and post-swap emissions reusing
//! them, replayed re-detections included, are suppressed — so swapped
//! next-match runs remain valid, event-disjoint, and deterministic per
//! configuration, but bindings may differ from a never-swapped run's.
//!
//! ## The planner-backed replanner
//!
//! [`PlanReplanner`] regenerates each DNF branch's plan with a
//! [`Planner`](cep_optimizer::Planner) for the
//! [`Backend`](cep_optimizer::Backend) it was built with — the same
//! algorithm choice the facade builders take — and keeps each branch's
//! current [`Plan`](cep_core::plan::Plan). A candidate replaces it when
//! [`CostModel::plan_cost`](cep_core::cost::CostModel::plan_cost) predicts
//! an improvement beyond the hysteresis margin.
//! [`Backend::Delta`](cep_optimizer::Backend::Delta) picks its join order
//! per probe and has no plan, so [`PlanReplanner::new`] rejects it with a
//! [`CepError::Plan`](cep_core::error::CepError::Plan).
//!
//! Every shard of a `cep-shard`-style worker pool can own its own
//! `AdaptiveEngine` (via [`AdaptiveFactory`]): each worker then replans
//! independently on the statistics of its slice of the stream.

#![warn(missing_docs)]

pub mod engine;
pub mod replanner;

pub use engine::{
    AdaptiveConfig, AdaptiveEngine, AdaptiveFactory, ReplanCosts, ReplanVerdict, Replanner,
    SwapCost, DEFAULT_AMORTIZE_WINDOWS,
};
pub use replanner::PlanReplanner;

#[cfg(test)]
mod tests;
