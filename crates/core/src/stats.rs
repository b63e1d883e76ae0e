//! Statistics: arrival rates and predicate selectivities (Sections 4.1, 6.3).
//!
//! Plan generation consumes a [`PatternStats`]: per-element arrival rates
//! and a pairwise selectivity matrix for one [`CompiledPattern`]. It is
//! built from type-level [`MeasuredStats`] plus per-predicate selectivities,
//! applying the Section 5 planning transforms:
//!
//! * Kleene elements get the power-set rate `r' = 2^{rW}/W` (Section 5.2);
//! * each temporal precedence constraint contributes selectivity 0.5 (the
//!   SEQ→AND rewrite of Section 5.1, under pairwise independence).

use crate::compile::CompiledPattern;
use crate::compiled::{CompiledPair, CompiledPredicate};
use crate::error::CepError;
use crate::event::{EventRef, TypeId};
use std::collections::HashMap;

/// Options controlling the statistics transforms.
#[derive(Debug, Clone)]
pub struct StatsOptions {
    /// Selectivity assigned to each pairwise temporal-order constraint
    /// introduced by the SEQ→AND rewrite. 0.5 models uniformly random
    /// arrival order.
    pub temporal_selectivity: f64,
    /// Cap on the exponent of the Kleene rate transform `2^{rW}`; keeps the
    /// cost arithmetic inside `f64` range while preserving the "enormous
    /// rate" effect the transform is designed to have.
    pub kleene_exponent_cap: f64,
    /// Refines the Section 5.2 power-set rate for engines that cap Kleene
    /// accumulators at `k` events (see
    /// [`EngineConfig::max_kleene_events`](crate::engine::EngineConfig::max_kleene_events)):
    /// instead of all `2^{rW}` subsets, only the `Σ_{j≤k} C(rW, j)` subsets
    /// of size at most `k` can materialize, so the transformed rate is that
    /// bounded subset count divided by `W`. `None` (the default) keeps the
    /// paper's unbounded `2^{rW}` transform.
    pub max_kleene_events: Option<usize>,
}

impl Default for StatsOptions {
    fn default() -> Self {
        StatsOptions {
            temporal_selectivity: 0.5,
            kleene_exponent_cap: 100.0,
            max_kleene_events: None,
        }
    }
}

/// Number of subsets of size at most `k` of an expected population of `m`
/// events: `Σ_{j=0..k} C(m, j)`, evaluated via the term recurrence
/// `C(m, j+1) = C(m, j)·(m−j)/(j+1)` (valid for fractional `m`), and
/// clamped to `2^exponent_cap`. For integer `m` and `k ≥ m` this is exactly
/// `2^m`, so the bounded transform degrades gracefully to the unbounded one.
fn bounded_subset_count(m: f64, k: usize, exponent_cap: f64) -> f64 {
    let cap = exponent_cap.exp2();
    let mut sum = 1.0; // C(m, 0)
    let mut term = 1.0;
    for j in 0..k {
        let factor = (m - j as f64) / (j as f64 + 1.0);
        if factor <= 0.0 {
            break; // j ≥ m: every subset is already counted
        }
        term *= factor;
        sum += term;
        if sum >= cap {
            return cap;
        }
    }
    sum
}

/// Type-level statistics measured from a stream.
#[derive(Debug, Clone, Default)]
pub struct MeasuredStats {
    /// Observed stream duration in milliseconds.
    pub duration_ms: u64,
    /// Event counts per type.
    pub type_counts: HashMap<TypeId, u64>,
}

impl MeasuredStats {
    /// Measures arrival rates over a ts-ordered stream.
    pub fn measure(stream: &[EventRef]) -> MeasuredStats {
        let mut type_counts: HashMap<TypeId, u64> = HashMap::new();
        for e in stream {
            *type_counts.entry(e.type_id).or_insert(0) += 1;
        }
        let duration_ms = match (stream.first(), stream.last()) {
            (Some(f), Some(l)) => (l.ts - f.ts).max(1),
            _ => 1,
        };
        MeasuredStats {
            duration_ms,
            type_counts,
        }
    }

    /// Arrival rate of a type in events per millisecond.
    ///
    /// A default-constructed (or otherwise empty-window) instance has
    /// `duration_ms == 0`; the duration is clamped to one millisecond so
    /// unknown types report a rate of `0.0` instead of `NaN` (`0/0`) and
    /// counted types stay finite.
    pub fn rate(&self, type_id: TypeId) -> f64 {
        *self.type_counts.get(&type_id).unwrap_or(&0) as f64 / self.duration_ms.max(1) as f64
    }

    /// Overrides the rate of a type (events per millisecond). Useful when
    /// rates are known analytically (e.g., from a generator spec).
    pub fn set_rate(&mut self, type_id: TypeId, rate_per_ms: f64) {
        self.duration_ms = self.duration_ms.max(1_000_000);
        self.type_counts.insert(
            type_id,
            (rate_per_ms * self.duration_ms as f64).round() as u64,
        );
    }
}

/// Estimates the selectivity of each predicate by sampling event pairs.
///
/// For a binary predicate between types `A` and `B`, up to
/// `max_pairs` pairs are drawn from the stream's events of those types by
/// striding; the estimate is the fraction of satisfying pairs. Unary
/// predicates use per-event evaluation. Predicates whose types have no
/// events default to selectivity 1.0 (no information, per the paper's
/// `f_{i,j} = 1` convention). See [`SelectivitySampler`].
pub fn estimate_selectivities(
    stream: &[EventRef],
    cp: &CompiledPattern,
    max_pairs: usize,
) -> Vec<f64> {
    SelectivitySampler::new(cp, max_pairs)
        .estimate(stream, 0)
        .expect("no minimum sample size")
}

/// How one predicate is sampled: its compiled evaluator and the type
/// slots of the positions it references.
#[derive(Debug, Clone)]
enum Recipe {
    /// A constant predicate, or one referencing a position without an
    /// element: no information, selectivity 1.0.
    Unknown,
    /// A filter over the events of one type.
    Unary {
        slot: usize,
        pred: CompiledPredicate,
    },
    /// A pairwise predicate over events of types `a` × `b`.
    Pair {
        a: usize,
        b: usize,
        pred: CompiledPair,
    },
}

/// The pair sampler behind [`estimate_selectivities`] and the online
/// selectivity monitor, compiled once per pattern.
///
/// Every predicate is lowered at construction to a [`CompiledPredicate`]
/// (filters) or [`CompiledPair`] (pairwise) evaluator over the type slots
/// of its positions. An estimate counts the events of each slot in one
/// pass, then reads the strided sample of each side straight from the
/// events: a filter evaluates every `max(n / max_pairs, 1)`-th event of
/// its type; a pairwise predicate crosses every `max(n_a / ⌈√max_pairs⌉, 1)`-th
/// event of one side with every `max(n_b / ⌈√max_pairs⌉, 1)`-th of the
/// other, skipping pairs of one event (same `seq`), which cannot bind two
/// positions.
#[derive(Debug, Clone)]
pub struct SelectivitySampler {
    /// Distinct event types of the pattern (elements and negated
    /// elements), one slot each.
    types: Vec<TypeId>,
    /// One recipe per predicate of the pattern, in predicate order.
    recipes: Vec<Recipe>,
    max_pairs: usize,
}

impl SelectivitySampler {
    /// Compiles the sampling recipe of every predicate of `cp`;
    /// `max_pairs` bounds the evaluations per predicate and estimate.
    pub fn new(cp: &CompiledPattern, max_pairs: usize) -> SelectivitySampler {
        let mut types: Vec<TypeId> = Vec::new();
        let positions = cp
            .elements
            .iter()
            .map(|e| (e.position, e.event_type))
            .chain(cp.negated.iter().map(|n| (n.position, n.event_type)));
        for (_, ty) in positions.clone() {
            if !types.contains(&ty) {
                types.push(ty);
            }
        }
        let slot_of = |pos: usize| {
            let ty = positions.clone().find(|&(p, _)| p == pos)?.1;
            types.iter().position(|&t| t == ty)
        };
        let recipes = cp
            .predicates
            .iter()
            .map(|p| match p.position_pair() {
                (a, _) if a == usize::MAX => Recipe::Unknown,
                (a, None) => match slot_of(a) {
                    Some(slot) => Recipe::Unary {
                        slot,
                        pred: CompiledPredicate::compile(p, a),
                    },
                    None => Recipe::Unknown,
                },
                (a, Some(b)) => match (slot_of(a), slot_of(b)) {
                    (Some(sa), Some(sb)) => Recipe::Pair {
                        a: sa,
                        b: sb,
                        pred: CompiledPair::compile(p, a, b),
                    },
                    _ => Recipe::Unknown,
                },
            })
            .collect();
        SelectivitySampler {
            types,
            recipes,
            max_pairs,
        }
    }

    /// Whether the pattern references events of type `ty` (as an element
    /// or a negated element).
    pub fn uses_type(&self, ty: TypeId) -> bool {
        self.types.contains(&ty)
    }

    /// Per-predicate selectivity estimates over `events` (in stream
    /// order), or `None` when fewer than `min_relevant` of them have a
    /// type the pattern uses. Predicates whose types have no events
    /// default to 1.0.
    pub fn estimate<'a, I>(&self, events: I, min_relevant: usize) -> Option<Vec<f64>>
    where
        I: IntoIterator<Item = &'a EventRef>,
        I::IntoIter: Clone,
    {
        let events = events.into_iter();
        let mut counts = vec![0usize; self.types.len()];
        for e in events.clone() {
            if let Some(slot) = self.types.iter().position(|&t| t == e.type_id) {
                counts[slot] += 1;
            }
        }
        if counts.iter().sum::<usize>() < min_relevant {
            return None;
        }
        // The events of one slot, every `step`-th one.
        let strided = |slot: usize, step: usize| {
            let ty = self.types[slot];
            events
                .clone()
                .filter(move |e| e.type_id == ty)
                .step_by(step)
        };
        let estimates = self.recipes.iter().map(|recipe| match recipe {
            Recipe::Unknown => 1.0,
            Recipe::Unary { slot, pred } => {
                let n = counts[*slot];
                if n == 0 {
                    return 1.0;
                }
                let (mut total, mut hits) = (0usize, 0usize);
                for e in strided(*slot, (n / self.max_pairs.max(1)).max(1)) {
                    total += 1;
                    hits += usize::from(pred.eval(e));
                }
                hits as f64 / total as f64
            }
            Recipe::Pair { a, b, pred } => {
                let (na, nb) = (counts[*a], counts[*b]);
                if na == 0 || nb == 0 {
                    return 1.0;
                }
                // Stride both sides so the pair count stays near max_pairs.
                let budget = ((self.max_pairs as f64).sqrt().ceil() as usize).max(1);
                let side_b: Vec<&EventRef> = strided(*b, (nb / budget).max(1)).collect();
                let (mut total, mut hits) = (0usize, 0usize);
                for ea in strided(*a, (na / budget).max(1)) {
                    for eb in &side_b {
                        if ea.seq == eb.seq {
                            continue; // same event cannot bind two positions
                        }
                        total += 1;
                        hits += usize::from(pred.eval(ea, eb));
                    }
                }
                if total == 0 {
                    1.0
                } else {
                    hits as f64 / total as f64
                }
            }
        });
        Some(estimates.collect())
    }
}

/// Per-pattern statistics consumed by cost models and plan generators.
#[derive(Debug, Clone)]
pub struct PatternStats {
    /// Window length in milliseconds.
    pub window_ms: f64,
    /// Arrival rate per positive element (events per millisecond), with the
    /// Kleene transform already applied.
    pub rates: Vec<f64>,
    /// Symmetric selectivity matrix; `sel[i][i]` is the product of filter
    /// selectivities of element `i`.
    pub sel: Vec<Vec<f64>>,
    /// Whether a *real* (non-temporal) predicate links elements `i` and `j`;
    /// used for query-graph topology detection (Section 4.3).
    pub explicit_pair: Vec<Vec<bool>>,
}

impl PatternStats {
    /// Builds statistics for a compiled pattern.
    ///
    /// `pred_sel[i]` is the selectivity of `cp.predicates[i]`; rates come
    /// from `measured`.
    pub fn build(
        cp: &CompiledPattern,
        measured: &MeasuredStats,
        pred_sel: &[f64],
        opts: &StatsOptions,
    ) -> Result<PatternStats, CepError> {
        let n = cp.n();
        let mut stats = PatternStats {
            window_ms: cp.window as f64,
            rates: vec![0.0; n],
            sel: vec![vec![1.0; n]; n],
            explicit_pair: vec![vec![false; n]; n],
        };
        stats.update(cp, measured, pred_sel, opts)?;
        Ok(stats)
    }

    /// Rebuilds these statistics **in place** from fresh measurements: the
    /// incremental path of the adaptive loop, which re-derives rates and
    /// selectivities every drift check without reallocating the matrices.
    /// `self` must have been built for a pattern of the same arity.
    pub fn update(
        &mut self,
        cp: &CompiledPattern,
        measured: &MeasuredStats,
        pred_sel: &[f64],
        opts: &StatsOptions,
    ) -> Result<(), CepError> {
        if pred_sel.len() != cp.predicates.len() {
            return Err(CepError::Stats(format!(
                "{} selectivities supplied for {} predicates",
                pred_sel.len(),
                cp.predicates.len()
            )));
        }
        let n = cp.n();
        if self.rates.len() != n {
            return Err(CepError::Stats(format!(
                "statistics were built for {} elements, pattern has {n}",
                self.rates.len()
            )));
        }
        let w = cp.window as f64;
        self.window_ms = w;
        for (slot, e) in self.rates.iter_mut().zip(&cp.elements) {
            let r = measured.rate(e.event_type);
            *slot = if e.kleene {
                match opts.max_kleene_events {
                    // Section 5.2: the power-set type T' has rate 2^{rW}/W.
                    None => {
                        let exponent = (r * w).min(opts.kleene_exponent_cap);
                        exponent.exp2() / w
                    }
                    // Engine-capped accumulators: only subsets of size ≤ k
                    // materialize.
                    Some(k) => bounded_subset_count(r * w, k, opts.kleene_exponent_cap) / w,
                }
            } else {
                r
            };
        }
        for i in 0..n {
            self.sel[i][i] = 1.0;
            for &pi in cp.filters_of(i) {
                self.sel[i][i] *= pred_sel[pi];
            }
            for j in (i + 1)..n {
                let mut s = 1.0;
                let mut explicit = false;
                for &pi in cp.predicates_between(i, j) {
                    s *= pred_sel[pi];
                    explicit = true;
                }
                if cp.must_precede(i, j) || cp.must_precede(j, i) {
                    s *= opts.temporal_selectivity;
                }
                self.sel[i][j] = s;
                self.sel[j][i] = s;
                self.explicit_pair[i][j] = explicit;
                self.explicit_pair[j][i] = explicit;
            }
        }
        Ok(())
    }

    /// Synthetic statistics, mostly for tests and planning-only experiments:
    /// `rates[i]` in events/ms and an explicit selectivity matrix.
    pub fn synthetic(window_ms: f64, rates: Vec<f64>, sel: Vec<Vec<f64>>) -> PatternStats {
        let n = rates.len();
        assert_eq!(sel.len(), n, "selectivity matrix must be n x n");
        let explicit_pair = (0..n)
            .map(|i| (0..n).map(|j| i != j && sel[i][j] < 1.0).collect())
            .collect();
        PatternStats {
            window_ms,
            rates,
            sel,
            explicit_pair,
        }
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        self.rates.len()
    }

    /// Expected number of events of element `i` inside a window (`W·r_i`).
    pub fn count_in_window(&self, i: usize) -> f64 {
        self.window_ms * self.rates[i]
    }

    /// Expected number of coexisting partial matches over an element set
    /// under skip-till-any-match (Section 4.1):
    /// `Π_i (W·r_i·sel_ii) · Π_{i<j} sel_ij`.
    pub fn pm_of_set(&self, set: &[usize]) -> f64 {
        let mut pm = 1.0;
        for (a, &i) in set.iter().enumerate() {
            pm *= self.count_in_window(i) * self.sel[i][i];
            for &j in &set[..a] {
                pm *= self.sel[i][j];
            }
        }
        pm
    }

    /// Expected number of coexisting partial matches over an element set
    /// under skip-till-next-match (Section 6.2):
    /// `W·min_i r_i · Π_{i<=j} sel_ij`.
    pub fn pm_next_of_set(&self, set: &[usize]) -> f64 {
        let min_rate = set
            .iter()
            .map(|&i| self.rates[i])
            .fold(f64::INFINITY, f64::min);
        if !min_rate.is_finite() {
            return 0.0;
        }
        let mut pm = self.window_ms * min_rate;
        for (a, &i) in set.iter().enumerate() {
            pm *= self.sel[i][i];
            for &j in &set[..a] {
                pm *= self.sel[i][j];
            }
        }
        pm
    }

    /// Product of selectivities between two disjoint element sets
    /// (`SEL_LR` of Section 4.2).
    pub fn cross_sel(&self, left: &[usize], right: &[usize]) -> f64 {
        let mut s = 1.0;
        for &i in left {
            for &j in right {
                s *= self.sel[i][j];
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::pattern::PatternBuilder;
    use crate::predicate::{CmpOp, Operand, Predicate};
    use crate::value::Value;
    use proptest::prelude::*;

    fn t(i: u32) -> TypeId {
        TypeId(i)
    }

    fn stream_ab() -> Vec<EventRef> {
        // Type 0 at every ms (x = ts), type 1 every 2 ms (x = ts/2).
        let mut b = crate::stream::StreamBuilder::new();
        for ts in 0..1000u64 {
            b.push(Event::new(t(0), ts, vec![Value::Int(ts as i64)]));
            if ts % 2 == 0 {
                b.push(Event::new(t(1), ts, vec![Value::Int((ts / 2) as i64)]));
            }
        }
        b.build()
    }

    #[test]
    fn measured_rates() {
        let s = stream_ab();
        let m = MeasuredStats::measure(&s);
        assert!((m.rate(t(0)) - 1.0).abs() < 0.01);
        assert!((m.rate(t(1)) - 0.5).abs() < 0.01);
        assert_eq!(m.rate(t(9)), 0.0);
    }

    #[test]
    fn selectivity_estimation_half() {
        // P(a.x < b.x) with a.x ~ U(0,1000), b.x ~ U(0,500) is ~0.25.
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let s = stream_ab();
        let sel = estimate_selectivities(&s, &cp, 10_000);
        assert_eq!(sel.len(), 1);
        assert!((sel[0] - 0.25).abs() < 0.05, "estimated {}", sel[0]);
    }

    #[test]
    fn pattern_stats_sequence_applies_temporal_selectivity() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let mut m = MeasuredStats::default();
        m.set_rate(t(0), 1.0);
        m.set_rate(t(1), 2.0);
        let st = PatternStats::build(&cp, &m, &[], &StatsOptions::default()).unwrap();
        assert!((st.sel[0][1] - 0.5).abs() < 1e-12);
        assert!((st.count_in_window(0) - 10.0).abs() < 1e-9);
        assert!((st.count_in_window(1) - 20.0).abs() < 1e-9);
        // PM over both: 10 * 20 * 0.5 = 100.
        assert!((st.pm_of_set(&[0, 1]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn kleene_rate_transform() {
        // Paper example (Section 5.2): rate 5 events/s = 0.5/ms over a
        // 10-second window gives r' = 2^{rW}/W per ms.
        let mut b = PatternBuilder::new(10_000);
        let a = b.event(t(0), "a");
        let k = b.event(t(1), "k");
        let ae = b.expr(a);
        let ke = b.kleene(k);
        let p = b.and_exprs([ae, ke]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut m = MeasuredStats::default();
        m.set_rate(t(0), 0.005);
        m.set_rate(t(1), 0.005);
        let opts = StatsOptions {
            kleene_exponent_cap: 60.0,
            ..Default::default()
        };
        let st = PatternStats::build(&cp, &m, &[], &opts).unwrap();
        // rW = 50 -> 2^50 / 10000 per ms.
        let expect = 50f64.exp2() / 10_000.0;
        assert!((st.rates[1] - expect).abs() / expect < 1e-9);
        // The cap kicks in for huge exponents.
        let opts_capped = StatsOptions {
            kleene_exponent_cap: 10.0,
            ..Default::default()
        };
        let st2 = PatternStats::build(&cp, &m, &[], &opts_capped).unwrap();
        assert!(st2.rates[1] < st.rates[1]);
    }

    #[test]
    fn bounded_kleene_transform_refines_the_power_set_rate() {
        let mut b = PatternBuilder::new(10_000);
        let a = b.event(t(0), "a");
        let k = b.event(t(1), "k");
        let ae = b.expr(a);
        let ke = b.kleene(k);
        let p = b.and_exprs([ae, ke]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let mut m = MeasuredStats::default();
        m.set_rate(t(0), 0.005);
        m.set_rate(t(1), 0.002); // rW = 20 expected Kleene events
        let unbounded = PatternStats::build(&cp, &m, &[], &StatsOptions::default()).unwrap();
        // The bounded rate grows monotonically in the cap and stays below
        // the unbounded power-set rate while k < rW.
        let mut prev = 0.0;
        for k_cap in [1usize, 2, 4, 8, 16] {
            let opts = StatsOptions {
                max_kleene_events: Some(k_cap),
                ..Default::default()
            };
            let st = PatternStats::build(&cp, &m, &[], &opts).unwrap();
            assert!(st.rates[1] > prev, "not monotone at k={k_cap}");
            assert!(
                st.rates[1] < unbounded.rates[1],
                "k={k_cap} not a refinement"
            );
            prev = st.rates[1];
        }
        // With k >= rW the bounded count is exactly the full power set.
        let opts = StatsOptions {
            max_kleene_events: Some(20),
            ..Default::default()
        };
        let st = PatternStats::build(&cp, &m, &[], &opts).unwrap();
        let expect = 20f64.exp2() / 10_000.0;
        assert!((st.rates[1] - expect).abs() / expect < 1e-9);
        // Non-Kleene rates are untouched by the option.
        assert_eq!(st.rates[0], unbounded.rates[0]);
    }

    #[test]
    fn bounded_subset_count_respects_the_exponent_cap() {
        // 2^300 overflows nothing: the cap clamps the count.
        let capped = bounded_subset_count(300.0, 300, 100.0);
        assert_eq!(capped, 100f64.exp2());
        assert!(capped.is_finite());
        // Zero expected events: only the empty subset.
        assert_eq!(bounded_subset_count(0.0, 8, 100.0), 1.0);
    }

    #[test]
    fn pm_next_uses_min_rate() {
        let st =
            PatternStats::synthetic(10.0, vec![1.0, 3.0], vec![vec![1.0, 0.5], vec![0.5, 1.0]]);
        // min rate 1.0 => 10 * 1.0 * 0.5.
        assert!((st.pm_next_of_set(&[0, 1]) - 5.0).abs() < 1e-12);
        assert!(st.pm_next_of_set(&[0, 1]) <= st.pm_of_set(&[0, 1]));
    }

    #[test]
    fn cross_sel_multiplies_pairs() {
        let st = PatternStats::synthetic(
            1.0,
            vec![1.0, 1.0, 1.0],
            vec![
                vec![1.0, 0.5, 0.2],
                vec![0.5, 1.0, 1.0],
                vec![0.2, 1.0, 1.0],
            ],
        );
        assert!((st.cross_sel(&[0], &[1, 2]) - 0.1).abs() < 1e-12);
        assert!((st.cross_sel(&[1], &[2]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_selectivity_count_rejected() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let m = MeasuredStats::default();
        assert!(PatternStats::build(&cp, &m, &[], &StatsOptions::default()).is_err());
    }

    #[test]
    fn empty_window_rates_default_to_zero_not_nan() {
        // A default-constructed MeasuredStats has duration 0: every rate —
        // known or unknown type — must come back 0.0, never NaN or inf.
        let m = MeasuredStats::default();
        assert_eq!(m.rate(t(0)), 0.0);
        assert_eq!(m.rate(t(999)), 0.0);
        // Same for a measurement over an empty stream.
        let empty = MeasuredStats::measure(&[]);
        assert_eq!(empty.rate(t(0)), 0.0);
        assert!(empty.rate(t(0)).is_finite());
        // A nonzero count with a zero duration (hand-assembled) stays
        // finite too.
        let mut degenerate = MeasuredStats::default();
        degenerate.type_counts.insert(t(1), 5);
        assert!(degenerate.rate(t(1)).is_finite());
        assert_eq!(degenerate.rate(t(1)), 5.0);
    }

    #[test]
    fn selectivity_estimation_defaults_on_empty_and_unknown_inputs() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        b.predicate(Predicate::attr_const(a.pos(), 0, CmpOp::Ge, Value::Int(0)));
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        // Empty stream: no information, every predicate defaults to 1.0.
        let sels = estimate_selectivities(&[], &cp, 100);
        assert_eq!(sels, vec![1.0, 1.0]);
        // Stream with only one of the two referenced types: the pairwise
        // predicate still defaults to 1.0, the unary one is measurable.
        let mut sb = crate::stream::StreamBuilder::new();
        for ts in 0..10u64 {
            sb.push(Event::new(t(0), ts, vec![Value::Int(ts as i64)]));
        }
        let partial = sb.build();
        let sels = estimate_selectivities(&partial, &cp, 100);
        assert_eq!(sels[0], 1.0, "pair with an absent type defaults to 1.0");
        assert_eq!(sels[1], 1.0, "x >= 0 holds for every sampled event");
        // A zero pair budget must not divide by zero: estimates stay
        // finite probabilities.
        let full = stream_ab();
        for s in estimate_selectivities(&full, &cp, 0) {
            assert!(s.is_finite());
            assert!((0.0..=1.0).contains(&s), "selectivity {s} out of range");
        }
    }

    #[test]
    fn update_rebuilds_in_place_and_matches_build() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let d = b.event(t(2), "d");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, c, d]).unwrap()).unwrap();
        let opts = StatsOptions::default();
        let mut m1 = MeasuredStats::default();
        for i in 0..3 {
            m1.set_rate(t(i), 1.0 + i as f64);
        }
        let mut st = PatternStats::build(&cp, &m1, &[0.3], &opts).unwrap();
        // Fresh measurements and selectivities: the in-place update must
        // produce exactly what a fresh build produces.
        let mut m2 = MeasuredStats::default();
        for i in 0..3 {
            m2.set_rate(t(i), 5.0 - i as f64);
        }
        st.update(&cp, &m2, &[0.9], &opts).unwrap();
        let fresh = PatternStats::build(&cp, &m2, &[0.9], &opts).unwrap();
        assert_eq!(st.rates, fresh.rates);
        assert_eq!(st.sel, fresh.sel);
        assert_eq!(st.explicit_pair, fresh.explicit_pair);
        assert_eq!(st.window_ms, fresh.window_ms);
        // Updating back recovers the original values (no residue from the
        // in-place multiply-accumulate).
        st.update(&cp, &m1, &[0.3], &opts).unwrap();
        let original = PatternStats::build(&cp, &m1, &[0.3], &opts).unwrap();
        assert_eq!(st.sel, original.sel);
        assert_eq!(st.rates, original.rates);
        // Arity and selectivity-count mismatches are rejected.
        assert!(st.update(&cp, &m1, &[], &opts).is_err());
        let mut wrong = PatternStats::synthetic(1.0, vec![1.0], vec![vec![1.0]]);
        assert!(wrong.update(&cp, &m1, &[0.3], &opts).is_err());
    }

    #[test]
    fn explicit_pair_tracks_real_predicates_only() {
        let mut b = PatternBuilder::new(10);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let d = b.event(t(2), "d");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, c, d]).unwrap()).unwrap();
        let mut m = MeasuredStats::default();
        for i in 0..3 {
            m.set_rate(t(i), 1.0);
        }
        let st = PatternStats::build(&cp, &m, &[0.3], &StatsOptions::default()).unwrap();
        assert!(st.explicit_pair[0][1]);
        assert!(!st.explicit_pair[1][2]); // only temporal
        assert!((st.sel[1][2] - 0.5).abs() < 1e-12);
        assert!((st.sel[0][1] - 0.15).abs() < 1e-12);
    }

    /// The interpreted sampler [`SelectivitySampler`] replaced, kept as the
    /// reference it must reproduce bit for bit: events bucketed by type,
    /// every predicate evaluated through [`Predicate::eval_pair`] /
    /// [`Predicate::eval_single`].
    fn interpreted_estimates(
        events: &[EventRef],
        cp: &CompiledPattern,
        max_pairs: usize,
    ) -> Vec<f64> {
        let mut by_type: HashMap<TypeId, Vec<&EventRef>> = HashMap::new();
        for e in events {
            if cp.uses_type(e.type_id) {
                by_type.entry(e.type_id).or_default().push(e);
            }
        }
        let pos_type = |pos: usize| {
            cp.elements
                .iter()
                .find(|e| e.position == pos)
                .map(|e| e.event_type)
                .or_else(|| {
                    cp.negated
                        .iter()
                        .find(|n| n.position == pos)
                        .map(|n| n.event_type)
                })
        };
        let empty = Vec::new();
        let of = |ty: TypeId| by_type.get(&ty).unwrap_or(&empty);
        cp.predicates
            .iter()
            .map(|p| {
                let (a, b) = p.position_pair();
                if a == usize::MAX {
                    return 1.0;
                }
                let Some(ta) = pos_type(a) else { return 1.0 };
                let eva = of(ta);
                if eva.is_empty() {
                    return 1.0;
                }
                let Some(b) = b else {
                    let step = (eva.len() / max_pairs.max(1)).max(1);
                    let sample: Vec<_> = eva.iter().step_by(step).collect();
                    let hits = sample.iter().filter(|e| p.eval_single(a, e)).count();
                    return hits as f64 / sample.len() as f64;
                };
                let Some(tb) = pos_type(b) else { return 1.0 };
                let evb = of(tb);
                if evb.is_empty() {
                    return 1.0;
                }
                let budget = (max_pairs as f64).sqrt().ceil() as usize;
                let sa = (eva.len() / budget.max(1)).max(1);
                let sb = (evb.len() / budget.max(1)).max(1);
                let (mut total, mut hits) = (0usize, 0usize);
                for ea in eva.iter().step_by(sa) {
                    for eb in evb.iter().step_by(sb) {
                        if ea.seq == eb.seq {
                            continue;
                        }
                        total += 1;
                        if p.eval_pair(a, ea, b, eb) {
                            hits += 1;
                        }
                    }
                }
                if total == 0 {
                    1.0
                } else {
                    hits as f64 / total as f64
                }
            })
            .collect()
    }

    /// A deterministic draw source for the sampler property (the vendored
    /// proptest has no composite strategies).
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }

        /// Values that stress the comparison rules: NaN, signed zeros,
        /// `Int` vs `Float` across 2^53, strings and booleans.
        fn value(&mut self) -> Value {
            match self.below(12) {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(-0.0),
                2 => Value::Float(0.0),
                3 => Value::Int(0),
                4 => Value::Int((1 << 53) + 1),
                5 => Value::Float((1u64 << 53) as f64),
                6 => Value::from("a"),
                7 => Value::from("b"),
                8 => Value::Bool(self.below(2) == 0),
                9 => Value::Int(self.below(5) as i64 - 2),
                10 => Value::Float(self.below(5) as f64 - 1.5),
                _ => Value::Int(self.below(3) as i64),
            }
        }

        /// An operand over `positions`: an attribute (index 3 is never
        /// present), a timestamp, or a constant.
        fn operand(&mut self, positions: &[usize]) -> Operand {
            let position = positions[self.below(positions.len() as u64) as usize];
            match self.below(5) {
                0 => Operand::Ts { position },
                1 => Operand::Const(self.value()),
                _ => Operand::Attr {
                    position,
                    attr: self.below(4) as usize,
                },
            }
        }

        fn op(&mut self) -> CmpOp {
            [
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Ge,
                CmpOp::Gt,
            ][self.below(6) as usize]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The compiled sampler reproduces the interpreted one bit for bit
        /// (`f64::to_bits`) over patterns with filters, pairwise, constant
        /// and timestamp predicates, negated positions and one type at two
        /// positions, on streams with missing attributes and mixed value
        /// kinds, for pair budgets 0, 1, 7 and 512.
        #[test]
        fn compiled_sampler_matches_interpreted_reference(
            seed in any::<u64>(),
            budget_idx in 0usize..4,
            len in 0usize..160,
        ) {
            let max_pairs = [0usize, 1, 7, 512][budget_idx];
            let mut d = Draw(seed);
            let mut b = PatternBuilder::new(10);
            let positives = 2 + d.below(3) as usize;
            let mut exprs: Vec<_> = (0..positives)
                .map(|i| {
                    let ev = b.event(t(d.below(3) as u32), &format!("e{i}"));
                    b.expr(ev)
                })
                .collect();
            if d.below(2) == 0 {
                let n = b.event(t(d.below(4) as u32), "n");
                let at = d.below(exprs.len() as u64 + 1) as usize;
                exprs.insert(at, b.not(n));
            }
            let positions: Vec<usize> = (0..exprs.len()).collect();
            for _ in 0..1 + d.below(5) {
                let left = d.operand(&positions);
                let right = d.operand(&positions);
                let op = d.op();
                b.predicate(Predicate { left, op, right });
            }
            let pattern = if d.below(2) == 0 {
                b.seq_exprs(exprs)
            } else {
                b.and_exprs(exprs)
            }
            .unwrap();
            let cp = CompiledPattern::compile_single(&pattern).unwrap();
            let mut sb = crate::stream::StreamBuilder::new();
            let mut ts = 0u64;
            for _ in 0..len {
                ts += d.below(3);
                let attrs = (0..d.below(4)).map(|_| d.value()).collect();
                sb.push(Event::new(t(d.below(5) as u32), ts, attrs));
            }
            let events = sb.build();
            let sampler = SelectivitySampler::new(&cp, max_pairs);
            let got = sampler.estimate(&events, 0).unwrap();
            let want = interpreted_estimates(&events, &cp, max_pairs);
            prop_assert_eq!(
                got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{} over {} events", pattern, events.len()
            );
            // The minimum sample size counts events of the pattern's types.
            let relevant = events.iter().filter(|e| cp.uses_type(e.type_id)).count();
            prop_assert!(sampler.estimate(&events, relevant).is_some());
            prop_assert!(sampler.estimate(&events, relevant + 1).is_none());
        }
    }
}
