//! The adaptive engine wrapper: drift detection, exact hot swap, replay.

use cep_core::engine::{Engine, EngineFactory};
use cep_core::event::{EventRef, Timestamp, TypeId};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::selection::ConsumedSet;
use cep_core::stats::MeasuredStats;
use cep_obs::{TraceRecord, Tracer};
use cep_optimizer::{EventWindow, StatsMonitor};
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::time::Instant;

/// How often (in processed events) consumption marks older than the
/// window are pruned.
const PRUNE_EVERY: u64 = 64;

/// Knobs of the detect → replan → swap loop.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Sliding horizon of the arrival-rate monitor, in stream milliseconds.
    pub horizon_ms: u64,
    /// Relative rate deviation that counts as drift (0.5 = ±50%).
    pub drift_threshold: f64,
    /// Drift is checked every `check_every` processed events. A check
    /// compares every live type's rate with its baseline and, with
    /// selectivity monitoring, samples up to `max_pairs` event pairs per
    /// predicate from the event window; doing that per event would buy
    /// nothing — rates and selectivities move on window timescales, not
    /// event timescales.
    pub check_every: u64,
    /// Minimum number of events between two swaps. A swap replays up to a
    /// full window of events; the cooldown keeps a noisy boundary from
    /// thrashing plan builds faster than they can pay off.
    pub cooldown_events: u64,
    /// Amortization horizon of the swap-cost gate, in pattern windows: a
    /// candidate plan is only adopted when its predicted per-window savings
    /// over this many windows exceed the predicted cost of replaying the
    /// retained buffer under the new plan. Larger values swap more eagerly
    /// (the regime is assumed to persist longer); `f64::INFINITY` disables
    /// the gate, `0.0` suppresses every swap.
    pub amortize_windows: f64,
}

/// Default [`AdaptiveConfig::amortize_windows`]: assume a fresh regime
/// persists for at least this many pattern windows. With the default 20%
/// cost hysteresis this gate only bites when the replay buffer is large
/// relative to the predicted improvement.
pub const DEFAULT_AMORTIZE_WINDOWS: f64 = 8.0;

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            horizon_ms: 10_000,
            drift_threshold: 0.5,
            check_every: 256,
            cooldown_events: 1024,
            amortize_windows: DEFAULT_AMORTIZE_WINDOWS,
        }
    }
}

/// How expensive an immediate hot swap would be, handed by the adaptive
/// engine to [`Replanner::replan_amortized`] so plan adoption can weigh
/// predicted savings against the replay bill.
///
/// Plan costs approximate per-window evaluation work, so both sides of the
/// comparison live in the same unit: replaying the retained buffer under a
/// candidate plan costs about `replay_fraction ×` the candidate's
/// per-window cost, while switching saves
/// `(current − candidate) × amortize_windows` over the horizon the new
/// statistics are assumed to persist.
#[derive(Debug, Clone, Copy)]
pub struct SwapCost {
    /// Retained replay buffer size as a fraction of the events expected in
    /// one pattern window at current rates (clamped by the caller).
    pub replay_fraction: f64,
    /// Amortization horizon in pattern windows
    /// (see [`AdaptiveConfig::amortize_windows`]).
    pub amortize_windows: f64,
}

impl SwapCost {
    /// A context that never suppresses a strictly better plan — the
    /// pre-gating behaviour.
    pub const IGNORE: SwapCost = SwapCost {
        replay_fraction: 0.0,
        amortize_windows: f64::INFINITY,
    };

    /// Whether switching from a plan costing `current` to one costing
    /// `candidate` (per window, under the same statistics) pays for its
    /// replay within the amortization horizon. Non-improvements never
    /// amortize.
    pub fn amortizes(&self, current: f64, candidate: f64) -> bool {
        if candidate.partial_cmp(&current) != Some(std::cmp::Ordering::Less) {
            return false;
        }
        (current - candidate) * self.amortize_windows > candidate * self.replay_fraction
    }
}

/// Per-window cost breakdown of the last replan attempt: the incumbent
/// plan versus the best candidate, both costed under the same fresh
/// statistics. Surfaced through [`Replanner::last_costs`] so a traced run
/// can show the arithmetic behind every [`ReplanVerdict`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanCosts {
    /// Predicted per-window cost of the incumbent plan.
    pub current: f64,
    /// Predicted per-window cost of the best candidate plan.
    pub candidate: f64,
}

/// Outcome of a gated replan attempt (see [`Replanner::replan_amortized`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanVerdict {
    /// A better plan was adopted; the caller must hot-swap engines.
    Swap,
    /// No plan change (no candidate beat the incumbent by the margin).
    Keep,
    /// A better plan exists but its predicted savings do not amortize the
    /// replay cost yet; the incumbent plan stays and the caller counts a
    /// suppressed swap.
    Suppressed,
}

/// Rebuilds evaluation plans from live rate estimates and stamps out
/// engines for the current plan — the planning half of the adaptive loop.
///
/// [`AdaptiveEngine`] is generic over this trait rather than over a
/// concrete engine type: what varies per deployment is not the engine
/// (always a `Box<dyn Engine>` so order- and tree-based evaluators swap
/// uniformly) but *how plans are rebuilt* — which algorithm, which
/// selectivities, whether an output profiler feeds the latency anchor.
/// See [`crate::PlanReplanner`] for the full planner-backed implementation.
///
/// Implementations that estimate more than rates read the engine's event
/// buffer: [`Self::stats_drifted`] and [`Self::replan_amortized`] receive
/// it as an [`EventWindow`] holding at least the last
/// [`Self::history_ms`] of the stream.
pub trait Replanner: Send {
    /// Builds a fresh engine, positioned at stream start, from the current
    /// plan.
    fn build(&self) -> Box<dyn Engine>;

    /// Re-derives the plan from fresh arrival-rate estimates. Returns
    /// `true` when the plan changed (the caller then hot-swaps engines).
    /// Implementations must keep the previous plan on planning errors —
    /// a live engine never goes down because one replan failed.
    fn replan(&mut self, rates: &MeasuredStats) -> bool;

    /// Swap-cost-aware replan: like [`Self::replan`], but the caller also
    /// supplies how expensive the resulting hot swap would be, so an
    /// implementation can decline a better-but-not-better-enough plan
    /// ([`ReplanVerdict::Suppressed`]) instead of forcing a replay that
    /// will not pay for itself, and the recent events to re-estimate
    /// statistics from. The default ignores both and delegates to
    /// `replan`.
    fn replan_amortized(
        &mut self,
        rates: &MeasuredStats,
        swap: &SwapCost,
        window: &EventWindow,
    ) -> ReplanVerdict {
        let _ = (swap, window);
        if self.replan(rates) {
            ReplanVerdict::Swap
        } else {
            ReplanVerdict::Keep
        }
    }

    /// How much stream history, in milliseconds, the implementation reads
    /// from the window it is handed; the engine retains at least this
    /// much. Default: 0 (nothing beyond the pattern window and the rate
    /// horizon).
    fn history_ms(&self) -> u64 {
        0
    }

    /// Observes one input event *before* it reaches the engine — e.g. to
    /// count selectivity samples (see
    /// [`crate::PlanReplanner::with_selectivity_monitoring`]). Default:
    /// no-op.
    fn observe_event(&mut self, _e: &EventRef) {}

    /// Whether statistics beyond arrival rates (e.g. predicate
    /// selectivities, estimated over `window`) have drifted from what the
    /// current plan assumes. The adaptive engine attempts a replan when
    /// *either* this or its own rate monitor fires; a firing check is
    /// followed by [`Self::replan_amortized`] over the same window.
    /// Default: `false` (rates are the only signal).
    fn stats_drifted(&mut self, _window: &EventWindow) -> bool {
        false
    }

    /// Events absorbed by the implementation's selectivity monitoring so
    /// far (surfaced as [`EngineMetrics::selectivity_samples`]). Default 0.
    fn selectivity_samples(&self) -> u64 {
        0
    }

    /// Compiled-plan cache hits of the implementation's program cache so
    /// far (surfaced as [`EngineMetrics::plan_cache_hits`]). Default 0 (no
    /// cache in play).
    fn plan_cache_hits(&self) -> u64 {
        0
    }

    /// Compiled-plan cache misses of the implementation's program cache so
    /// far (surfaced as [`EngineMetrics::plan_cache_misses`]). Default 0.
    fn plan_cache_misses(&self) -> u64 {
        0
    }

    /// Cost breakdown of the most recent `replan`/`replan_amortized`
    /// call, for tracing: incumbent vs best candidate, per window, under
    /// the statistics of that call. `None` when the last attempt bailed
    /// out before costing anything (e.g. a planning error) or when the
    /// implementation does not track costs. Default: `None`.
    fn last_costs(&self) -> Option<ReplanCosts> {
        None
    }

    /// Observes an emitted match (e.g. to feed an output profiler).
    fn observe_match(&mut self, _m: &Match) {}

    /// Whether the pattern's selection strategy consumes events on
    /// emission (skip-till-next-match). When true, the adaptive wrapper
    /// migrates consumption state across swaps: events bound by an emitted
    /// match are remembered for one window and later emissions reusing
    /// them are suppressed, keeping the output event-disjoint even though
    /// a freshly swapped engine starts with no consumption memory.
    fn consumes(&self) -> bool {
        false
    }

    /// The event types some branch of the pattern negates. A negated
    /// element can forbid a match over an interval reaching two windows
    /// back from the watermark, so the wrapper keeps events of these types
    /// one window longer than the rest of its replay buffer. There is no
    /// default: a replanner that under-reports them lets a swap emit
    /// matches the never-swapped engine suppresses.
    fn negated_types(&self) -> Vec<TypeId>;
}

/// The adaptive wrapper's one event buffer: the rate monitor's window,
/// kept for max(pattern window, rate horizon, [`Replanner::history_ms`]),
/// plus the negated-type events that outlive it.
struct Retained {
    /// Rate counts over the horizon, and the window every other reader
    /// shares.
    monitor: StatsMonitor,
    /// The pattern window.
    window: u64,
    /// Stream index of the first event of the replay window: every later
    /// event has `ts ≥ watermark − window`.
    replay_from: u64,
    /// Event types some branch negates (see [`Replanner::negated_types`]).
    negated: Vec<TypeId>,
    /// Events of [`Self::negated`] types that left the monitor's window
    /// and are at most two pattern windows old, in arrival order.
    negated_tail: VecDeque<EventRef>,
}

impl Retained {
    fn push(&mut self, event: &EventRef) {
        for old in self.monitor.observe(event) {
            if self.negated.contains(&old.type_id) {
                self.negated_tail.push_back(old);
            }
        }
        let window = self.monitor.window();
        // Evict strictly below `watermark − window`: an event exactly one
        // window old can still share a match with an event at the
        // watermark (span == window is within the pattern window).
        let keep_from = window.watermark().saturating_sub(self.window);
        self.replay_from = self.replay_from.max(window.first_index());
        while window
            .get(self.replay_from)
            .is_some_and(|e| e.ts < keep_from)
        {
            self.replay_from += 1;
        }
        // Every match a replay can still emit or park has
        // `max_ts ≥ keep_from`, and a negated element forbids events only
        // above `max_ts − window`.
        let tail_from = keep_from.saturating_sub(self.window);
        while self.negated_tail.front().is_some_and(|e| e.ts < tail_from) {
            self.negated_tail.pop_front();
        }
    }

    /// Events in the replay window.
    fn len(&self) -> usize {
        (self.monitor.window().pushed() - self.replay_from) as usize
    }

    /// What a swap replays, oldest first: the negated-type events of the
    /// window before the replay window (those that left the shared window,
    /// then those still in it), then the replay window.
    fn replay(&self) -> impl Iterator<Item = &EventRef> {
        let window = self.monitor.window();
        let keep_from = window.watermark().saturating_sub(self.window);
        let tail_from = keep_from.saturating_sub(self.window);
        let before = (self.replay_from - window.first_index()) as usize;
        let tail = window
            .iter()
            .take(before)
            .filter(move |e| e.ts >= tail_from && self.negated.contains(&e.type_id));
        self.negated_tail
            .iter()
            .chain(tail)
            .chain(window.iter().skip(before))
    }
}

/// Keeps the matches of `out[start..]` that pass `keep`, in order.
fn retain_from(out: &mut Vec<Match>, start: usize, mut keep: impl FnMut(&Match) -> bool) {
    let mut kept = start;
    for i in start..out.len() {
        if keep(&out[i]) {
            out.swap(kept, i);
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// An [`Engine`] that replans itself while running.
///
/// See the crate docs for the swap protocol and the exactness guarantee.
/// The wrapper retains the last pattern window of input events, plus the
/// negated-type events of the window before it; on drift it builds a fresh
/// engine from the replanner's new plan and replays both into it. The swap
/// runs after the old engine has processed the current event, so every
/// match the replay completes was already decided by the old engine and is
/// dropped (exact strategies) or rejected by the consumed set
/// (skip-till-next-match). No emitted match is remembered.
///
/// Those events live in one buffer, the rate monitor's window, which also
/// feeds the rate counts and the replanner's selectivity sample. The
/// active engine emits straight into the caller's vector.
pub struct AdaptiveEngine<R: Replanner> {
    inner: Box<dyn Engine>,
    replanner: R,
    retained: Retained,
    /// Whether the replanner's strategy consumes events (cached).
    consumes: bool,
    /// Events consumed by emitted matches, remembered for one window; only
    /// populated when [`Self::consumes`] is set (see
    /// [`Replanner::consumes`]).
    consumed: ConsumedSet,
    window: u64,
    cfg: AdaptiveConfig,
    /// Combined counters of engines retired by past swaps.
    retired: EngineMetrics,
    /// This wrapper's own counters (events, emissions, swap/replay
    /// accounting, the retained window) plus whatever the harness records
    /// through [`metrics_mut`](Engine::metrics_mut) (wall time,
    /// histograms).
    own: EngineMetrics,
    /// The aggregate view [`metrics`](Engine::metrics) returns, folded on
    /// first read after any change.
    view: OnceCell<EngineMetrics>,
    events_since_swap: u64,
    /// Trace destination for replan decisions and replay windows; the
    /// disabled default costs one branch per decision point.
    tracer: Tracer,
}

impl<R: Replanner> AdaptiveEngine<R> {
    /// Wraps the replanner's current-plan engine; `window` is the pattern
    /// window in stream milliseconds (bounds the retained replay buffer).
    pub fn new(replanner: R, window: u64, cfg: AdaptiveConfig) -> AdaptiveEngine<R> {
        assert!(cfg.check_every >= 1, "check_every must be positive");
        let inner = replanner.build();
        let consumes = replanner.consumes();
        let retained = Retained {
            monitor: StatsMonitor::new(cfg.horizon_ms, cfg.drift_threshold)
                .retaining(window.max(replanner.history_ms())),
            window,
            replay_from: 0,
            negated: replanner.negated_types(),
            negated_tail: VecDeque::new(),
        };
        let events_since_swap = cfg.cooldown_events; // first swap is not throttled
        AdaptiveEngine {
            inner,
            replanner,
            retained,
            consumes,
            consumed: ConsumedSet::new(),
            window,
            cfg,
            retired: EngineMetrics::new(),
            own: EngineMetrics::new(),
            view: OnceCell::new(),
            events_since_swap,
            tracer: Tracer::disabled(),
        }
    }

    /// Routes this engine's [`TraceRecord::PlanSwapDecision`] and
    /// [`TraceRecord::ReplayWindow`] records to `tracer`. Tracing is
    /// observational: the match output of a traced run is byte-identical
    /// to an untraced one.
    pub fn with_tracer(mut self, tracer: Tracer) -> AdaptiveEngine<R> {
        self.tracer = tracer;
        self
    }

    /// The replanner (e.g. to inspect the current plan).
    pub fn replanner(&self) -> &R {
        &self.replanner
    }

    /// Plan swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.own.plan_swaps
    }

    /// Events currently held in the retained replay window.
    pub fn retained_len(&self) -> usize {
        self.retained.len()
    }

    /// The event buffer: the rate monitor's window.
    #[cfg(test)]
    pub(crate) fn event_window(&self) -> &EventWindow {
        self.retained.monitor.window()
    }

    /// The rate monitor.
    #[cfg(test)]
    pub(crate) fn rate_monitor(&self) -> &StatsMonitor {
        &self.retained.monitor
    }

    /// The events a swap would replay now, oldest first.
    #[cfg(test)]
    pub(crate) fn replay_events(&self) -> Vec<EventRef> {
        self.retained.replay().cloned().collect()
    }

    /// Negated-type events held beyond the retained window.
    #[cfg(test)]
    pub(crate) fn negated_tail_len(&self) -> usize {
        self.retained.replay().count() - self.retained.len()
    }

    /// Records consumption state for consuming strategies and counts the
    /// emissions the active engine appended to `out` from `start` on.
    fn emit(&mut self, out: &mut Vec<Match>, start: usize) {
        if self.consumes {
            // A freshly swapped engine has no memory of what its
            // predecessor consumed; suppress emissions that would re-bind
            // a consumed event and record the rest.
            retain_from(out, start, |m| self.consumed.consume(m));
        }
        for m in &out[start..] {
            self.replanner.observe_match(m);
        }
        self.own.matches_emitted += (out.len() - start) as u64;
    }

    /// Folds a swapped-out engine into the retired accumulator. Retired
    /// engines and the active one run one after another on the same
    /// thread, so they merge like sequential shards: counters add, peaks
    /// take the maximum (they never coexist), and a gone engine's live
    /// gauges count as 0.
    fn retire(&mut self, m: &EngineMetrics) {
        let mut done = m.clone();
        done.clear_live();
        self.retired.merge(&done);
    }

    /// The aggregate view: the engines (retired ones, then the active one)
    /// folded sequentially, absorbed into this wrapper's own counters,
    /// with which they share the thread.
    fn aggregate(&self) -> EngineMetrics {
        let mut engines = self.retired.clone();
        engines.merge(self.inner.metrics());
        let mut agg = self.own.clone();
        // Ours too, kept by the replanner's monitors.
        agg.selectivity_samples = self.replanner.selectivity_samples();
        agg.absorb(&engines);
        // Counted by both layers, so ours stand: matches after consumption
        // and replay suppression, and the replanner's plan-cache lookups,
        // which cover every build (an engine's own build may stamp some).
        agg.matches_emitted = self.own.matches_emitted;
        agg.plan_cache_hits = self.replanner.plan_cache_hits();
        agg.plan_cache_misses = self.replanner.plan_cache_misses();
        agg
    }

    /// Hot swap: build a fresh engine from the replanner's new plan and
    /// replay the negated tail, then the retained window. The old engine is
    /// dropped **without flushing**: anything it still held deferred (e.g.
    /// matches awaiting a trailing-negation watermark) is reconstructed —
    /// and still correctly gated by future events — inside the new engine,
    /// whereas flushing would emit those matches as if the stream ended.
    ///
    /// Every match the replay completes was decided by the old engine (see
    /// the type docs). The exact strategies drop them all, event by event.
    /// Under skip-till-next-match they pass through [`Self::emit`], except
    /// those binding a tail event: those were decided a window before
    /// anything retained, against negated events and consumption marks the
    /// wrapper no longer holds.
    fn swap(&mut self, out: &mut Vec<Match>) {
        let fresh = self.replanner.build();
        let old = std::mem::replace(&mut self.inner, fresh);
        self.retire(old.metrics());
        drop(old);
        let replay_start = Instant::now();
        let start = out.len();
        let mut replayed_events = 0u64;
        let mut replayed_matches = 0u64;
        for event in self.retained.replay() {
            replayed_events += 1;
            self.inner.process(event, out);
            if !self.consumes {
                replayed_matches += (out.len() - start) as u64;
                out.truncate(start);
            }
        }
        let replay_ns = replay_start.elapsed().as_nanos() as u64;
        self.own.replay_time_ns += replay_ns;
        self.own.replay_ns.record(replay_ns);
        self.own.replayed_events += replayed_events;
        self.own.plan_swaps += 1;
        self.events_since_swap = 0;
        if self.consumes {
            replayed_matches = (out.len() - start) as u64;
            let keep_from = self.watermark().saturating_sub(self.window);
            retain_from(out, start, |m| m.min_ts() >= keep_from);
            self.emit(out, start);
        }
        let suppressed_matches = replayed_matches - (out.len() - start) as u64;
        self.tracer.emit_with(|| TraceRecord::ReplayWindow {
            at_event: self.own.events_processed,
            replayed_events,
            replay_ns,
            suppressed_matches,
        });
    }

    fn watermark(&self) -> Timestamp {
        self.retained.monitor.window().watermark()
    }

    /// Periodic drift check; replans and swaps when warranted. Without a
    /// baseline yet (first check), calibrates instead: adopts the measured
    /// rates and replans once, so an engine bootstrapped from wrong a
    /// priori statistics corrects itself within `check_every` events.
    ///
    /// A replan is attempted when the *rate* monitor reports drift **or**
    /// the replanner's own statistics monitoring
    /// ([`Replanner::stats_drifted`], e.g. selectivity re-estimation) does.
    /// Adoption is swap-cost-aware: the replanner receives the predicted
    /// replay bill and may suppress a swap whose savings would not amortize
    /// it ([`ReplanVerdict::Suppressed`]); suppressed attempts leave every
    /// baseline in place so the pending drift retries at the next check.
    fn maybe_replan(&mut self, out: &mut Vec<Match>) {
        if !self
            .own
            .events_processed
            .is_multiple_of(self.cfg.check_every)
            || self.events_since_swap < self.cfg.cooldown_events
        {
            return;
        }
        let monitor = &self.retained.monitor;
        if monitor.has_baseline()
            && !monitor.drifted()
            && !self.replanner.stats_drifted(monitor.window())
        {
            return;
        }
        // Ascending type order keeps the summed window estimate (and so
        // the replay fraction) independent of hash-map iteration order.
        let mut live: Vec<(TypeId, f64)> = monitor.rates().into_iter().collect();
        live.sort_unstable_by_key(|&(ty, _)| ty);
        let mut rates = MeasuredStats::default();
        let mut expected_window_events = 0.0;
        for (ty, rate) in live {
            rates.set_rate(ty, rate);
            expected_window_events += rate * self.window as f64;
        }
        let retained = self.retained.len();
        let replay_fraction = if expected_window_events > 0.0 {
            // Clamped: a rate estimate collapsing to near zero must not
            // turn a window-bounded buffer into an unbounded bill.
            (retained as f64 / expected_window_events).min(4.0)
        } else {
            1.0
        };
        let swap_cost = SwapCost {
            replay_fraction,
            amortize_windows: self.cfg.amortize_windows,
        };
        let verdict = self
            .replanner
            .replan_amortized(&rates, &swap_cost, monitor.window());
        self.tracer.emit_with(|| {
            // A replanner that bailed before costing (or one that does not
            // track costs) reports the sentinel −1 on both sides.
            let (current_cost, candidate_cost) = self
                .replanner
                .last_costs()
                .map_or((-1.0, -1.0), |c| (c.current, c.candidate));
            TraceRecord::PlanSwapDecision {
                at_event: self.own.events_processed,
                verdict: match verdict {
                    ReplanVerdict::Swap => "swap",
                    ReplanVerdict::Keep => "keep",
                    ReplanVerdict::Suppressed => "suppressed",
                }
                .into(),
                current_cost,
                candidate_cost,
                replay_fraction,
                amortize_windows: self.cfg.amortize_windows,
                retained_events: retained as u64,
            }
        });
        match verdict {
            ReplanVerdict::Swap => {
                self.retained.monitor.rebaseline();
                self.swap(out);
            }
            ReplanVerdict::Keep => self.retained.monitor.rebaseline(),
            ReplanVerdict::Suppressed => {
                self.own.suppressed_swaps += 1;
            }
        }
    }
}

impl<R: Replanner> Engine for AdaptiveEngine<R> {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        self.view.take();
        self.own.events_processed += 1;
        self.events_since_swap = self.events_since_swap.saturating_add(1);
        self.replanner.observe_event(event);
        self.retained.push(event);
        self.own.record_retained(self.retained.len());
        let start = out.len();
        self.inner.process(event, out);
        self.emit(out, start);
        if self.consumes && self.own.events_processed.is_multiple_of(PRUNE_EVERY) {
            // Consumption marks on events older than the window can never
            // be re-bound by a replay.
            self.consumed.retain_window(self.watermark(), self.window);
        }
        self.maybe_replan(out);
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        self.view.take();
        let start = out.len();
        self.inner.flush(out);
        self.emit(out, start);
    }

    fn metrics(&self) -> &EngineMetrics {
        self.view.get_or_init(|| self.aggregate())
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        self.view.take();
        &mut self.own
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

/// Stamps out independent [`AdaptiveEngine`]s from a shared replanner
/// prototype — the input a sharded runtime needs: each worker's engine
/// clones the replanner and thereafter monitors, replans, and swaps on its
/// *own* slice of the stream, entirely independently of its siblings.
pub struct AdaptiveFactory<R: Replanner + Clone + Sync> {
    replanner: R,
    window: u64,
    config: AdaptiveConfig,
    tracer: Tracer,
}

impl<R: Replanner + Clone + Sync> AdaptiveFactory<R> {
    /// Factory over a replanner prototype; see [`AdaptiveEngine::new`] for
    /// the parameters.
    pub fn new(replanner: R, window: u64, config: AdaptiveConfig) -> AdaptiveFactory<R> {
        AdaptiveFactory {
            replanner,
            window,
            config,
            tracer: Tracer::disabled(),
        }
    }

    /// Every engine built by this factory traces its replan decisions to
    /// (a clone of) `tracer` — so all shards of a sharded adaptive run
    /// fan into the same sinks.
    pub fn with_tracer(mut self, tracer: Tracer) -> AdaptiveFactory<R> {
        self.tracer = tracer;
        self
    }
}

impl<R: Replanner + Clone + Sync + 'static> EngineFactory for AdaptiveFactory<R> {
    fn build(&self) -> Box<dyn Engine> {
        Box::new(
            AdaptiveEngine::new(self.replanner.clone(), self.window, self.config.clone())
                .with_tracer(self.tracer.clone()),
        )
    }
}
