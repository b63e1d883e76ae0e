//! Partial-match instances and extension/merge compatibility checks of
//! the tree engine.

use crate::compile::CompiledPattern;
use crate::compiled::PredicateProgram;
use crate::event::{expired_at, EventRef, Timestamp};
use crate::keyed::Slot;
use crate::matches::Binding;
use crate::metrics::EngineMetrics;
use crate::selection::{ConsumedSet, SelectionStrategy};
use std::ops::{Range, RangeInclusive};

/// A partial match climbing the plan tree.
///
/// `bindings` is indexed by *element index* of the compiled pattern (not by
/// plan step), so predicate checks can address elements directly.
///
/// The four extents `min_ts`, `max_ts`, `min_seq` and `max_seq` must cover
/// every bound event: [`compatible_with`] and [`merge_compatible_with`]
/// decide distinctness and precedence from them before they walk the
/// bindings, and debug builds assert it. Every constructor and derivation
/// here keeps them exact.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Bindings per element; `None` until the element is bound.
    /// An exact-size slice: instances are derived by cloning, never grown.
    pub bindings: Box<[Option<Binding>]>,
    /// Minimum bound timestamp (`u64::MAX` while empty); at most the `ts`
    /// of every bound event.
    pub min_ts: Timestamp,
    /// Maximum bound timestamp (0 while empty); at least the `ts` of every
    /// bound event.
    pub max_ts: Timestamp,
    /// Minimum bound serial number (`u64::MAX` while empty); at most the
    /// `seq` of every bound event.
    pub min_seq: u64,
    /// Maximum bound serial number (0 while empty); at least the `seq` of
    /// every bound event.
    pub max_seq: u64,
    /// Partition of the first bound event (partition contiguity).
    pub partition: Option<u32>,
    /// Number of bound events (Kleene sets count their members).
    pub event_count: usize,
    /// For an instance at a Kleene leaf: the smallest serial number
    /// the accumulator may take next. Enumerates each subset exactly once.
    pub kl_gate: u64,
}

impl Instance {
    /// Fresh empty instance for a pattern of `n` elements.
    pub fn empty(n: usize) -> Instance {
        Instance {
            bindings: vec![None; n].into_boxed_slice(),
            min_ts: Timestamp::MAX,
            max_ts: 0,
            min_seq: u64::MAX,
            max_seq: 0,
            partition: None,
            event_count: 0,
            kl_gate: 0,
        }
    }

    /// Whether `seq` is already bound somewhere in this instance.
    pub fn contains_seq(&self, seq: u64) -> bool {
        self.bindings
            .iter()
            .flatten()
            .flat_map(|b| b.events())
            .any(|e| e.seq == seq)
    }

    /// Whether any bound event was consumed (skip-till-next-match kill).
    pub fn intersects(&self, consumed: &ConsumedSet) -> bool {
        self.bindings
            .iter()
            .flatten()
            .flat_map(|b| b.events())
            .any(|e| consumed.contains(e.seq))
    }

    /// Whether the extents cover every bound event (the invariant the
    /// cheap checks of [`compatible_with`] and [`merge_compatible_with`]
    /// rely on).
    fn extents_cover_bindings(&self) -> bool {
        self.bindings
            .iter()
            .flatten()
            .flat_map(|b| b.events())
            .all(|e| {
                (self.min_ts..=self.max_ts).contains(&e.ts)
                    && (self.min_seq..=self.max_seq).contains(&e.seq)
            })
    }

    fn absorb_event_extents(&mut self, e: &EventRef) {
        self.min_ts = self.min_ts.min(e.ts);
        self.max_ts = self.max_ts.max(e.ts);
        self.min_seq = self.min_seq.min(e.seq);
        self.max_seq = self.max_seq.max(e.seq);
        self.partition.get_or_insert(e.partition);
        self.event_count += 1;
    }

    /// Binds `event` at non-Kleene element `elem`, in place.
    pub(crate) fn bind_single(&mut self, elem: usize, event: EventRef) {
        self.absorb_event_extents(&event);
        self.bindings[elem] = Some(Binding::One(event));
        self.kl_gate = 0;
    }

    /// Appends `event` to the Kleene accumulator of `elem`, in place.
    fn bind_kleene(&mut self, elem: usize, event: EventRef) {
        let gate = event.seq + 1;
        self.absorb_event_extents(&event);
        match &mut self.bindings[elem] {
            Some(Binding::Many(es)) => es.push(event),
            slot @ None => *slot = Some(Binding::Many(vec![event])),
            Some(Binding::One(_)) => unreachable!("Kleene element bound as single"),
        }
        self.kl_gate = gate;
    }

    /// Clone with `event` bound at non-Kleene element `elem`.
    pub fn with_single(&self, elem: usize, event: EventRef) -> Instance {
        let mut inst = self.clone();
        inst.bind_single(elem, event);
        inst
    }

    /// Clone with `event` appended to the Kleene accumulator of `elem`.
    pub fn with_kleene(&self, elem: usize, event: EventRef) -> Instance {
        let mut inst = self.clone();
        inst.bind_kleene(elem, event);
        inst
    }

    /// Size of the Kleene accumulator at `elem` (0 when unbound).
    pub fn kleene_len(&self, elem: usize) -> usize {
        match &self.bindings[elem] {
            Some(Binding::Many(es)) => es.len(),
            _ => 0,
        }
    }

    /// The [`Slot`] this instance occupies (and probes) under an equality
    /// key on attribute `attr` of the event bound at non-Kleene element
    /// `elem`.
    #[inline]
    pub fn join_slot(&self, elem: usize, attr: usize) -> Slot {
        match &self.bindings[elem] {
            Some(Binding::One(e)) => Slot::of(e.attr(attr)),
            _ => unreachable!("join keys are derived over bound, non-Kleene elements"),
        }
    }

    /// Whether the instance has expired: nothing arriving at or after the
    /// watermark can complete it inside the window.
    pub fn expired(&self, watermark: Timestamp, window: u64) -> bool {
        self.event_count > 0 && expired_at(self.min_ts, window, watermark)
    }

    /// `(element, min_ts, max_ts)` of every bound element: the bound side
    /// of [`partner_ts_range`].
    pub fn extents(&self) -> impl Iterator<Item = (usize, Timestamp, Timestamp)> + Clone + '_ {
        self.bindings
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|b| (i, b.min_ts(), b.max_ts())))
    }
}

/// The inclusive range of `max_ts` a join partner may have and still pass
/// the window and strict-precedence checks of [`compatible_with`] and
/// [`merge_compatible_with`] against one side, or `None` when no partner
/// can pass them.
///
/// `bound` lists the side's bound elements with their extents
/// `(element, min_ts, max_ts)` — [`Instance::extents`] for an instance, a
/// single `(elem, ts, ts)` for an event. `partner` lists the elements a
/// partner binds; a partner may leave one of them unbound only when no
/// bound element is ordered against it (a Kleene accumulator that both
/// sides may hold).
///
/// * The lower bound is the side's `max_ts − window`, raised to
///   `max_ts(i) + 1` for every bound `i` that must precede a partner
///   element.
/// * The upper bound is the side's `min_ts + window`. A partner's `max_ts`
///   is that of its latest element, so the `min_ts(i) − 1` precedence
///   bounds lower it only when *every* partner element must precede some
///   bound element.
///
/// The window bounds saturate; a precedence bound outside the `u64` range
/// (`u64::MAX + 1`, `0 − 1`) admits no partner. Every partner outside the
/// range fails the full check, so a store sorted by `max_ts` can be cut
/// to the range with [`sorted_span`] without changing which members pass.
pub fn partner_ts_range<I>(
    cp: &CompiledPattern,
    bound: I,
    partner: &[usize],
) -> Option<RangeInclusive<Timestamp>>
where
    I: Iterator<Item = (usize, Timestamp, Timestamp)> + Clone,
{
    let (mut side_min, mut side_max) = (Timestamp::MAX, 0);
    let mut lo = 0;
    for (i, min_ts, max_ts) in bound.clone() {
        side_min = side_min.min(min_ts);
        side_max = side_max.max(max_ts);
        if partner.iter().any(|&p| cp.must_precede(i, p)) {
            lo = lo.max(max_ts.checked_add(1)?);
        }
    }
    let mut hi = Timestamp::MAX;
    if side_min <= side_max {
        lo = lo.max(side_max.saturating_sub(cp.window));
        hi = side_min.saturating_add(cp.window);
    }
    // The latest timestamp every partner element may take, while each one
    // must precede some bound element.
    let mut latest = (!partner.is_empty()).then_some(0);
    for &p in partner {
        let mut before: Option<Timestamp> = None;
        for (i, min_ts, _) in bound.clone() {
            if cp.must_precede(p, i) {
                let b = min_ts.checked_sub(1)?;
                before = Some(before.map_or(b, |t| t.min(b)));
            }
        }
        latest = latest.zip(before).map(|(l, b)| l.max(b));
    }
    if let Some(latest) = latest {
        hi = hi.min(latest);
    }
    (lo <= hi).then_some(lo..=hi)
}

/// The index range of the members of `items`, sorted by `key`, whose key
/// lies in `range`.
pub fn sorted_span<T>(
    items: &[T],
    range: &RangeInclusive<Timestamp>,
    key: impl Fn(&T) -> Timestamp,
) -> Range<usize> {
    let start = items.partition_point(|x| key(x) < *range.start());
    let end = items.partition_point(|x| key(x) <= *range.end());
    start..end.max(start)
}

/// Checks whether `event` can bind at `elem` given the instance's current
/// bindings: distinctness, filters, pairwise predicates, temporal
/// precedence, window, and selection-strategy feasibility.
///
/// Filters and pairwise predicates evaluate through `prog`'s pre-lowered
/// (and fused) evaluators; `metrics` counts predicate evaluations.
///
/// Cheap checks come first: the instance's extents decide distinctness
/// for an event outside `[min_seq, max_seq]` and every precedence test
/// against an event later (earlier) than everything bound, so those walk
/// no binding. Predicates are evaluated in the same order either way.
pub fn compatible_with(
    cp: &CompiledPattern,
    prog: &PredicateProgram,
    inst: &Instance,
    elem: usize,
    event: &EventRef,
    consumed: &ConsumedSet,
    metrics: &mut EngineMetrics,
) -> bool {
    !(cp.strategy.consumes() && consumed.contains(event.seq))
        && extends(cp, prog, inst, elem, event, true, metrics)
}

/// Whether an event that already passed `elem`'s filters and the consumed
/// check joins `inst` at `elem`: [`compatible_with`] without those two.
///
/// For a non-empty `inst` over elements other than `elem` this is also
/// [`merge_compatible_with`] of `inst` and the event's one-element
/// instance, less the consumed check, with the same verdict and the same
/// predicate evaluations (the pair evaluators of `(i, j)` and `(j, i)`
/// list the same predicates in the same order). The tree's event leaves
/// join through it without building that instance.
pub fn joins_event(
    cp: &CompiledPattern,
    prog: &PredicateProgram,
    inst: &Instance,
    elem: usize,
    event: &EventRef,
    metrics: &mut EngineMetrics,
) -> bool {
    extends(cp, prog, inst, elem, event, false, metrics)
}

/// [`compatible_with`] after its consumed check; `filters` says whether
/// `elem`'s filters still have to run. (`#[inline(always)]`: each caller
/// gets its own copy with `filters` folded, so neither variant pays a
/// branch for the other.)
#[inline(always)]
fn extends(
    cp: &CompiledPattern,
    prog: &PredicateProgram,
    inst: &Instance,
    elem: usize,
    event: &EventRef,
    filters: bool,
    metrics: &mut EngineMetrics,
) -> bool {
    debug_assert!(inst.extents_cover_bindings(), "extents cover the bindings");
    if (inst.min_seq..=inst.max_seq).contains(&event.seq) && inst.contains_seq(event.seq) {
        return false;
    }
    // Window feasibility.
    if inst.event_count > 0 {
        let lo = inst.min_ts.min(event.ts);
        let hi = inst.max_ts.max(event.ts);
        if hi - lo > cp.window {
            return false;
        }
    }
    // Filters.
    if filters && !prog.element_passes(elem, event, &mut metrics.predicate_evaluations) {
        return false;
    }
    // Pairwise predicates and precedence against bound elements. An event
    // after (before) everything bound follows (precedes) every binding.
    let after_all = event.ts > inst.max_ts;
    let before_all = event.ts < inst.min_ts;
    for (j, binding) in inst.bindings.iter().enumerate() {
        let Some(binding) = binding else { continue };
        if j != elem {
            if !before_all && cp.must_precede(elem, j) && event.ts >= binding.min_ts() {
                return false;
            }
            if !after_all && cp.must_precede(j, elem) && binding.max_ts() >= event.ts {
                return false;
            }
        }
        for pair in prog.pairs_between(elem, j) {
            for other in binding.events() {
                metrics.predicate_evaluations += 1;
                if !pair.eval(event, other) {
                    return false;
                }
            }
        }
    }
    // Kleene self-consistency: the new member must respect precedence and
    // window against the accumulator it joins (already covered: the
    // accumulator is part of `bindings[elem]`, and elem vs elem precedence
    // never holds). Nothing further to check.

    // Selection strategies: span feasibility and partition pinning.
    match cp.strategy {
        SelectionStrategy::StrictContiguity if !cp.has_kleene() => {
            let span = inst.max_seq.max(event.seq) - inst.min_seq.min(event.seq);
            if inst.event_count > 0 && span as usize >= cp.n() {
                return false;
            }
        }
        SelectionStrategy::PartitionContiguity => {
            if let Some(p) = inst.partition {
                if p != event.partition {
                    return false;
                }
            }
        }
        _ => {}
    }
    true
}

/// Checks whether two instances over *disjoint element sets* (sibling
/// subtrees of a tree plan) can merge: distinct events, window, temporal
/// precedence, cross predicates (through `prog`), and selection-strategy
/// feasibility.
///
/// As in [`compatible_with`], the extents come first: sides whose seq
/// ranges do not overlap share no event, and a side entirely before the
/// other passes every precedence test in that direction without a walk.
pub fn merge_compatible_with(
    cp: &CompiledPattern,
    prog: &PredicateProgram,
    left: &Instance,
    right: &Instance,
    consumed: &ConsumedSet,
    metrics: &mut EngineMetrics,
) -> bool {
    debug_assert!(
        left.extents_cover_bindings() && right.extents_cover_bindings(),
        "extents cover the bindings"
    );
    // Window over the union.
    let lo = left.min_ts.min(right.min_ts);
    let hi = left.max_ts.max(right.max_ts);
    if left.event_count > 0 && right.event_count > 0 && hi - lo > cp.window {
        return false;
    }
    if cp.strategy.consumes() && (left.intersects(consumed) || right.intersects(consumed)) {
        return false;
    }
    // Event distinctness across the two sides.
    if left.min_seq <= right.max_seq && right.min_seq <= left.max_seq {
        for b in right.bindings.iter().flatten() {
            for e in b.events() {
                if left.contains_seq(e.seq) {
                    return false;
                }
            }
        }
    }
    // Precedence and predicates between every bound pair across sides.
    let left_first = left.max_ts < right.min_ts;
    let right_first = right.max_ts < left.min_ts;
    for (i, bi) in left.bindings.iter().enumerate() {
        let Some(bi) = bi else { continue };
        for (j, bj) in right.bindings.iter().enumerate() {
            let Some(bj) = bj else { continue };
            if !left_first && cp.must_precede(i, j) && bi.max_ts() >= bj.min_ts() {
                return false;
            }
            if !right_first && cp.must_precede(j, i) && bj.max_ts() >= bi.min_ts() {
                return false;
            }
            for pair in prog.pairs_between(i, j) {
                for x in bi.events() {
                    for y in bj.events() {
                        metrics.predicate_evaluations += 1;
                        if !pair.eval(x, y) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    // Strategy feasibility.
    match cp.strategy {
        SelectionStrategy::StrictContiguity if !cp.has_kleene() => {
            let span = left.max_seq.max(right.max_seq) - left.min_seq.min(right.min_seq);
            if span as usize >= cp.n() {
                return false;
            }
        }
        SelectionStrategy::PartitionContiguity => {
            if let (Some(a), Some(b)) = (left.partition, right.partition) {
                if a != b {
                    return false;
                }
            }
        }
        _ => {}
    }
    true
}

/// Whether event `a` at element `i` and event `b` at element `j`, two plain
/// elements whose filters and consumed checks both events already passed,
/// can bind together: [`merge_compatible_with`] of their one-element
/// instances less the consumed check, with the same verdict and predicate
/// evaluations, built without either instance.
pub fn events_join(
    cp: &CompiledPattern,
    prog: &PredicateProgram,
    (i, a): (usize, &EventRef),
    (j, b): (usize, &EventRef),
    metrics: &mut EngineMetrics,
) -> bool {
    if a.ts.abs_diff(b.ts) > cp.window || a.seq == b.seq {
        return false;
    }
    if (cp.must_precede(i, j) && a.ts >= b.ts) || (cp.must_precede(j, i) && b.ts >= a.ts) {
        return false;
    }
    for pair in prog.pairs_between(i, j) {
        metrics.predicate_evaluations += 1;
        if !pair.eval(a, b) {
            return false;
        }
    }
    match cp.strategy {
        SelectionStrategy::StrictContiguity if !cp.has_kleene() => {
            (a.seq.abs_diff(b.seq) as usize) < cp.n()
        }
        SelectionStrategy::PartitionContiguity => a.partition == b.partition,
        _ => true,
    }
}

impl Instance {
    /// Merges two instances over disjoint element sets (no compatibility
    /// checks — call [`merge_compatible_with`] first).
    pub fn merge(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        for (i, b) in other.bindings.iter().enumerate() {
            if let Some(b) = b {
                debug_assert!(out.bindings[i].is_none(), "element bound on both sides");
                out.bindings[i] = Some(b.clone());
            }
        }
        out.min_ts = self.min_ts.min(other.min_ts);
        out.max_ts = self.max_ts.max(other.max_ts);
        out.min_seq = self.min_seq.min(other.min_seq);
        out.max_seq = self.max_seq.max(other.max_seq);
        out.partition = self.partition.or(other.partition);
        out.event_count = self.event_count + other.event_count;
        out.kl_gate = 0;
        out
    }
}

/// Exact contiguity validation at completion time (the incremental span
/// check is only a feasibility filter).
pub fn contiguity_ok(cp: &CompiledPattern, inst: &Instance) -> bool {
    if !cp.strategy.contiguous() {
        return true;
    }
    let mut events: Vec<&EventRef> = inst
        .bindings
        .iter()
        .flatten()
        .flat_map(|b| b.events())
        .collect();
    events.sort_by_key(|e| e.seq);
    events
        .windows(2)
        .all(|w| cp.strategy.neighbours_ok(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TypeId};
    use crate::matches::Match;
    use crate::pattern::{PatternBuilder, PatternExpr};
    use crate::predicate::{CmpOp, Predicate};
    use crate::value::Value;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn ev(tid: u32, ts: u64, seq: u64, x: i64) -> EventRef {
        let mut e = Event::new(TypeId(tid), ts, vec![Value::Int(x)]);
        e.seq = seq;
        Arc::new(e)
    }

    fn cp_seq2() -> CompiledPattern {
        let mut b = PatternBuilder::new(10);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap()
    }

    /// [`compatible_with`] through `cp`'s freshly compiled program.
    fn compatible(
        cp: &CompiledPattern,
        inst: &Instance,
        elem: usize,
        event: &EventRef,
        consumed: &ConsumedSet,
        metrics: &mut EngineMetrics,
    ) -> bool {
        let prog = PredicateProgram::compile(cp);
        compatible_with(cp, &prog, inst, elem, event, consumed, metrics)
    }

    /// [`merge_compatible_with`] through `cp`'s freshly compiled program.
    fn merge_compatible(
        cp: &CompiledPattern,
        left: &Instance,
        right: &Instance,
        consumed: &ConsumedSet,
        metrics: &mut EngineMetrics,
    ) -> bool {
        let prog = PredicateProgram::compile(cp);
        merge_compatible_with(cp, &prog, left, right, consumed, metrics)
    }

    #[test]
    fn single_binding_updates_extents() {
        let i = Instance::empty(2).with_single(0, ev(0, 5, 3, 1));
        assert_eq!(i.min_ts, 5);
        assert_eq!(i.max_ts, 5);
        assert_eq!(i.event_count, 1);
        assert!(i.contains_seq(3));
        assert!(!i.contains_seq(4));
    }

    #[test]
    fn compatibility_respects_predicates_and_order() {
        let cp = cp_seq2();
        let mut m = EngineMetrics::new();
        let consumed = ConsumedSet::new();
        let i = Instance::empty(2).with_single(0, ev(0, 5, 0, 10));
        // c later with bigger x: ok.
        assert!(compatible(&cp, &i, 1, &ev(1, 6, 1, 20), &consumed, &mut m));
        // c later with smaller x: predicate fails.
        assert!(!compatible(&cp, &i, 1, &ev(1, 6, 1, 5), &consumed, &mut m));
        // c earlier: precedence fails.
        assert!(!compatible(&cp, &i, 1, &ev(1, 4, 1, 20), &consumed, &mut m));
        // c too late: window fails.
        assert!(!compatible(
            &cp,
            &i,
            1,
            &ev(1, 16, 1, 20),
            &consumed,
            &mut m
        ));
        assert!(m.predicate_evaluations > 0);
    }

    #[test]
    fn distinctness_blocks_same_event() {
        // Same seq at both positions is rejected even with matching types.
        let mut b = PatternBuilder::new(10);
        let a1 = b.event(TypeId(0), "a1");
        let a2 = b.event(TypeId(0), "a2");
        let cp = CompiledPattern::compile_single(&b.and([a1, a2]).unwrap()).unwrap();
        let mut m = EngineMetrics::new();
        let consumed = ConsumedSet::new();
        let e = ev(0, 5, 7, 0);
        let i = Instance::empty(2).with_single(0, e.clone());
        assert!(!compatible(&cp, &i, 1, &e, &consumed, &mut m));
    }

    #[test]
    fn consumed_events_rejected_under_next_match() {
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::SkipTillNextMatch);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let mut m = EngineMetrics::new();
        let mut consumed = ConsumedSet::new();
        let c = ev(1, 6, 1, 0);
        assert!(consumed.consume(&Match {
            bindings: vec![(1, Binding::One(c.clone()))],
            last_ts: 6,
            emitted_at: 6,
        }));
        let i = Instance::empty(2).with_single(0, ev(0, 5, 0, 0));
        assert!(!compatible(&cp, &i, 1, &c, &consumed, &mut m));
    }

    #[test]
    fn kleene_accumulator_grows_with_gate() {
        let i = Instance::empty(2);
        let i1 = i.with_kleene(1, ev(1, 2, 4, 0));
        assert_eq!(i1.kl_gate, 5);
        assert_eq!(i1.kleene_len(1), 1);
        let i2 = i1.with_kleene(1, ev(1, 3, 9, 0));
        assert_eq!(i2.kl_gate, 10);
        assert_eq!(i2.kleene_len(1), 2);
        assert_eq!(i2.event_count, 2);
    }

    #[test]
    fn expiry_is_window_relative() {
        let i = Instance::empty(1).with_single(0, ev(0, 100, 0, 0));
        assert!(!i.expired(105, 10));
        assert!(!i.expired(110, 10));
        assert!(i.expired(111, 10));
        assert!(!Instance::empty(1).expired(1000, 10)); // empty never expires

        // Saturating at the top of the timestamp range.
        let late = Instance::empty(1).with_single(0, ev(0, u64::MAX - 1, 0, 0));
        assert!(!late.expired(u64::MAX, 10));
        assert!(!late.expired(u64::MAX, 1));
        assert!(late.expired(u64::MAX, 0));
    }

    #[test]
    fn strict_span_feasibility() {
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::StrictContiguity);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let mut m = EngineMetrics::new();
        let consumed = ConsumedSet::new();
        let i = Instance::empty(2).with_single(0, ev(0, 1, 0, 0));
        // seq 1 adjacent: feasible; seq 5 leaves an unfillable gap.
        assert!(compatible(&cp, &i, 1, &ev(1, 2, 1, 0), &consumed, &mut m));
        assert!(!compatible(&cp, &i, 1, &ev(1, 2, 5, 0), &consumed, &mut m));
    }

    #[test]
    fn partition_pinning() {
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::PartitionContiguity);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let mut m = EngineMetrics::new();
        let consumed = ConsumedSet::new();
        let mut e0 = Event::new(TypeId(0), 1, vec![Value::Int(0)]);
        e0.partition = 3;
        let i = Instance::empty(2).with_single(0, Arc::new(e0));
        let mut e1 = Event::new(TypeId(1), 2, vec![Value::Int(0)]);
        e1.seq = 1;
        e1.partition = 4;
        assert!(!compatible(&cp, &i, 1, &Arc::new(e1), &consumed, &mut m));
    }

    #[test]
    fn merge_combines_disjoint_sides() {
        let cp = cp_seq2();
        let mut m = EngineMetrics::new();
        let consumed = ConsumedSet::new();
        let left = Instance::empty(2).with_single(0, ev(0, 1, 0, 1));
        let right = Instance::empty(2).with_single(1, ev(1, 2, 1, 9));
        assert!(merge_compatible(&cp, &left, &right, &consumed, &mut m));
        let merged = left.merge(&right);
        assert_eq!(merged.event_count, 2);
        assert_eq!(merged.min_ts, 1);
        assert_eq!(merged.max_ts, 2);
        assert!(merged.bindings.iter().all(|b| b.is_some()));
    }

    #[test]
    fn merge_rejects_order_violation() {
        let cp = cp_seq2();
        let mut m = EngineMetrics::new();
        let consumed = ConsumedSet::new();
        let left = Instance::empty(2).with_single(0, ev(0, 5, 1, 1));
        let right = Instance::empty(2).with_single(1, ev(1, 2, 0, 9));
        assert!(!merge_compatible(&cp, &left, &right, &consumed, &mut m));
    }

    #[test]
    fn merge_rejects_cross_predicate_violation() {
        let cp = cp_seq2();
        let mut m = EngineMetrics::new();
        let consumed = ConsumedSet::new();
        let left = Instance::empty(2).with_single(0, ev(0, 1, 0, 9));
        let right = Instance::empty(2).with_single(1, ev(1, 2, 1, 1));
        assert!(!merge_compatible(&cp, &left, &right, &consumed, &mut m));
    }

    #[test]
    fn merge_rejects_shared_event() {
        let mut b = PatternBuilder::new(10);
        let a1 = b.event(TypeId(0), "a1");
        let a2 = b.event(TypeId(0), "a2");
        let cp = CompiledPattern::compile_single(&b.and([a1, a2]).unwrap()).unwrap();
        let mut m = EngineMetrics::new();
        let consumed = ConsumedSet::new();
        let e = ev(0, 1, 7, 0);
        let left = Instance::empty(2).with_single(0, e.clone());
        let right = Instance::empty(2).with_single(1, e);
        assert!(!merge_compatible(&cp, &left, &right, &consumed, &mut m));
    }

    #[test]
    fn merge_rejects_window_violation() {
        let cp = cp_seq2();
        let mut m = EngineMetrics::new();
        let consumed = ConsumedSet::new();
        let left = Instance::empty(2).with_single(0, ev(0, 1, 0, 1));
        let right = Instance::empty(2).with_single(1, ev(1, 50, 1, 9));
        assert!(!merge_compatible(&cp, &left, &right, &consumed, &mut m));
    }

    /// `SEQ(a, b, c)` (or `AND` when `seq` is false) over types 0, 1, 2.
    fn cp3(seq: bool, window: u64) -> CompiledPattern {
        let mut b = PatternBuilder::new(window);
        let evs = [b.event(TypeId(0), "a"), b.event(TypeId(1), "b")];
        let c = b.event(TypeId(2), "c");
        let p = if seq {
            b.seq([evs[0], evs[1], c])
        } else {
            b.and([evs[0], evs[1], c])
        };
        CompiledPattern::compile_single(&p.unwrap()).unwrap()
    }

    fn at(elem: usize, ts: u64) -> std::iter::Once<(usize, u64, u64)> {
        std::iter::once((elem, ts, ts))
    }

    #[test]
    fn partner_range_applies_window_and_precedence() {
        let cp = cp3(true, 10);
        // An instance holding `a`@5 catches up on `b`: after 5, within 15.
        let i = Instance::empty(3).with_single(0, ev(0, 5, 0, 0));
        assert_eq!(partner_ts_range(&cp, i.extents(), &[1]), Some(6..=15));
        // `c`@20 delivered to instances over {a, b}: both precede it.
        assert_eq!(partner_ts_range(&cp, at(2, 20), &[0, 1]), Some(10..=19));
        // `b`@10 against {a, c}: `c` must follow (lower bound), but `a`
        // alone preceding `b` does not cap the partner's latest element.
        assert_eq!(partner_ts_range(&cp, at(1, 10), &[0, 2]), Some(11..=20));
        // Unordered elements: the window alone.
        let and = cp3(false, 10);
        assert_eq!(partner_ts_range(&and, at(1, 10), &[0, 2]), Some(0..=20));
        // No bound side, no partner: everything.
        let none = std::iter::empty();
        assert_eq!(partner_ts_range(&cp, none, &[1]), Some(0..=u64::MAX));
        assert_eq!(partner_ts_range(&cp, at(1, 10), &[]), Some(0..=20));
    }

    #[test]
    fn partner_range_at_the_timestamp_extremes() {
        let cp = cp3(true, 10);
        let top = u64::MAX;
        // A partner that must precede an element bound at ts 0: `0 - 1`.
        assert_eq!(partner_ts_range(&cp, at(1, 0), &[0]), None);
        assert_eq!(partner_ts_range(&cp, at(2, 0), &[0, 1]), None);
        // A partner that must follow an element bound at the top: `MAX + 1`.
        assert_eq!(partner_ts_range(&cp, at(0, top), &[1]), None);
        // The window bounds saturate instead.
        assert_eq!(
            partner_ts_range(&cp, at(0, top - 3), &[1]),
            Some(top - 2..=top)
        );
        assert_eq!(partner_ts_range(&cp, at(2, 3), &[0, 1]), Some(0..=2));
        // Following ts 0 and preceding the top are fine.
        assert_eq!(partner_ts_range(&cp, at(0, 0), &[1]), Some(1..=10));
        assert_eq!(
            partner_ts_range(&cp, at(1, top), &[0]),
            Some(top - 10..=top - 1)
        );
    }

    #[test]
    fn partner_range_with_a_zero_window() {
        let mut and = cp3(false, 10);
        and.window = 0;
        assert_eq!(partner_ts_range(&and, at(0, 7), &[1]), Some(7..=7));
        let mut seq = cp3(true, 10);
        seq.window = 0;
        assert_eq!(partner_ts_range(&seq, at(0, 7), &[1]), None);
        assert_eq!(partner_ts_range(&seq, at(1, 7), &[0]), None);
    }

    #[test]
    fn partner_range_on_all_equal_timestamps() {
        // Equal timestamps never satisfy strict precedence, and the window
        // never excludes them: the span is empty under SEQ, whole under AND.
        let bucket: Vec<EventRef> = (0..6).map(|s| ev(1, 4, s + 1, 0)).collect();
        let inst = Instance::empty(3).with_single(0, ev(0, 4, 0, 0));
        let by_ts = |e: &EventRef| e.ts;
        for (seq, want) in [(true, 0), (false, 6)] {
            let cp = cp3(seq, 10);
            let range = partner_ts_range(&cp, inst.extents(), &[1]);
            let span = range.map_or(0..0, |r| sorted_span(&bucket, &r, by_ts));
            assert_eq!(span.len(), want, "seq {seq}");
            let mut m = EngineMetrics::new();
            let passing = bucket
                .iter()
                .filter(|e| compatible(&cp, &inst, 1, e, &ConsumedSet::new(), &mut m))
                .count();
            assert_eq!(passing, want, "the span is exactly the passing set");
        }
    }

    #[test]
    fn sorted_span_is_inclusive_at_both_ends() {
        let ts = [1u64, 2, 2, 2, 3, 5, 5, 8];
        let span = |lo, hi| sorted_span(&ts, &(lo..=hi), |&t| t);
        assert_eq!(span(2, 5), 1..7);
        assert_eq!(span(2, 2), 1..4);
        assert_eq!(span(4, 4), 5..5);
        assert_eq!(span(0, 0), 0..0);
        assert_eq!(span(9, u64::MAX), 8..8);
        assert_eq!(span(0, u64::MAX), 0..8);
    }

    #[test]
    fn contiguity_final_check() {
        let mut b = PatternBuilder::new(10);
        b.strategy(SelectionStrategy::StrictContiguity);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let good = Instance::empty(2)
            .with_single(0, ev(0, 1, 0, 0))
            .with_single(1, ev(1, 2, 1, 0));
        assert!(contiguity_ok(&cp, &good));
        let bad = Instance::empty(2)
            .with_single(0, ev(0, 1, 0, 0))
            .with_single(1, ev(1, 2, 2, 0));
        assert!(!contiguity_ok(&cp, &bad));
    }

    /// The full-walk [`compatible_with`] the extent guards must agree with:
    /// distinctness and precedence visit every binding.
    fn full_walk_compatible_with(
        cp: &CompiledPattern,
        prog: &PredicateProgram,
        inst: &Instance,
        elem: usize,
        event: &EventRef,
        consumed: &ConsumedSet,
        metrics: &mut EngineMetrics,
    ) -> bool {
        if cp.strategy.consumes() && consumed.contains(event.seq) {
            return false;
        }
        if inst.contains_seq(event.seq) {
            return false;
        }
        if inst.event_count > 0 {
            let lo = inst.min_ts.min(event.ts);
            let hi = inst.max_ts.max(event.ts);
            if hi - lo > cp.window {
                return false;
            }
        }
        if !prog.element_passes(elem, event, &mut metrics.predicate_evaluations) {
            return false;
        }
        for (j, binding) in inst.bindings.iter().enumerate() {
            let Some(binding) = binding else { continue };
            if j != elem {
                if cp.must_precede(elem, j) && event.ts >= binding.min_ts() {
                    return false;
                }
                if cp.must_precede(j, elem) && binding.max_ts() >= event.ts {
                    return false;
                }
            }
            for pair in prog.pairs_between(elem, j) {
                for other in binding.events() {
                    metrics.predicate_evaluations += 1;
                    if !pair.eval(event, other) {
                        return false;
                    }
                }
            }
        }
        match cp.strategy {
            SelectionStrategy::StrictContiguity if !cp.has_kleene() => {
                let span = inst.max_seq.max(event.seq) - inst.min_seq.min(event.seq);
                if inst.event_count > 0 && span as usize >= cp.n() {
                    return false;
                }
            }
            SelectionStrategy::PartitionContiguity => {
                if let Some(p) = inst.partition {
                    if p != event.partition {
                        return false;
                    }
                }
            }
            _ => {}
        }
        true
    }

    /// The full-walk [`merge_compatible_with`]: the cross-side
    /// distinctness walk and every precedence test always run.
    fn full_walk_merge_compatible_with(
        cp: &CompiledPattern,
        prog: &PredicateProgram,
        left: &Instance,
        right: &Instance,
        consumed: &ConsumedSet,
        metrics: &mut EngineMetrics,
    ) -> bool {
        let lo = left.min_ts.min(right.min_ts);
        let hi = left.max_ts.max(right.max_ts);
        if left.event_count > 0 && right.event_count > 0 && hi - lo > cp.window {
            return false;
        }
        if cp.strategy.consumes() && (left.intersects(consumed) || right.intersects(consumed)) {
            return false;
        }
        for b in right.bindings.iter().flatten() {
            for e in b.events() {
                if left.contains_seq(e.seq) {
                    return false;
                }
            }
        }
        for (i, bi) in left.bindings.iter().enumerate() {
            let Some(bi) = bi else { continue };
            for (j, bj) in right.bindings.iter().enumerate() {
                let Some(bj) = bj else { continue };
                if cp.must_precede(i, j) && bi.max_ts() >= bj.min_ts() {
                    return false;
                }
                if cp.must_precede(j, i) && bj.max_ts() >= bi.min_ts() {
                    return false;
                }
                for pair in prog.pairs_between(i, j) {
                    for x in bi.events() {
                        for y in bj.events() {
                            metrics.predicate_evaluations += 1;
                            if !pair.eval(x, y) {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        match cp.strategy {
            SelectionStrategy::StrictContiguity if !cp.has_kleene() => {
                let span = left.max_seq.max(right.max_seq) - left.min_seq.min(right.min_seq);
                if span as usize >= cp.n() {
                    return false;
                }
            }
            SelectionStrategy::PartitionContiguity => {
                if let (Some(a), Some(b)) = (left.partition, right.partition) {
                    if a != b {
                        return false;
                    }
                }
            }
            _ => {}
        }
        true
    }

    /// `SEQ` or `AND` over `types` (two elements may share a type) with an
    /// optional Kleene element, drawn filters and pairwise predicates on
    /// attribute 0, under one of the four strategies.
    fn drawn_pattern(
        seq: bool,
        types: &[u32],
        kleene_at: usize,
        preds: &[(usize, usize, u8)],
        strategy: u8,
        window: u64,
    ) -> Option<CompiledPattern> {
        const OPS: [CmpOp; 6] = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ];
        const STRATEGIES: [SelectionStrategy; 4] = [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::SkipTillNextMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ];
        let mut b = PatternBuilder::new(window);
        b.strategy(STRATEGIES[strategy as usize % 4]);
        let evs: Vec<_> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| b.event(TypeId(t), &format!("e{i}")))
            .collect();
        let n = evs.len();
        for &(i, j, opc) in preds {
            let (i, j, op) = (i % n, j % n, OPS[opc as usize % 6]);
            b.predicate(if i == j {
                Predicate::attr_const(evs[i].pos(), 0, op, Value::Int(opc as i64 % 3))
            } else {
                Predicate::attr_cmp(evs[i].pos(), 0, op, evs[j].pos(), 0)
            });
        }
        let exprs: Vec<PatternExpr> = evs
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                if i == kleene_at {
                    b.kleene(e)
                } else {
                    b.expr(e)
                }
            })
            .collect();
        let expr = if seq {
            PatternExpr::Seq(exprs)
        } else {
            PatternExpr::And(exprs)
        };
        CompiledPattern::compile_single(&b.finish(expr).ok()?).ok()
    }

    /// Events with tie-heavy timestamps (`Δts` in 0..3), serial numbers in
    /// stream order, two partitions, and attribute 0 an `Int`, a `Float`,
    /// `NaN` or missing.
    fn drawn_stream(raw: &[(u32, u8, i8, u8)]) -> Vec<EventRef> {
        let mut ts = 0;
        raw.iter()
            .enumerate()
            .map(|(seq, &(ty, dts, x, kind))| {
                ts += u64::from(dts);
                let attrs = match kind {
                    0..=2 => vec![Value::Int(x.into())],
                    3 | 4 => vec![Value::Float(f64::from(x) / 2.0)],
                    5 => vec![Value::Float(f64::NAN)],
                    _ => vec![],
                };
                let mut e = Event::new(TypeId(ty), ts, attrs);
                e.seq = seq as u64;
                e.partition = u32::from(x.unsigned_abs() % 2);
                Arc::new(e)
            })
            .collect()
    }

    /// An instance binding every element in `mask` to stream events picked
    /// by `pick`, possibly one bound elsewhere too (one or two events for a
    /// Kleene element).
    fn drawn_instance(cp: &CompiledPattern, stream: &[EventRef], mask: u8, pick: u64) -> Instance {
        let mut s = pick | 1;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            stream[(s >> 33) as usize % stream.len()].clone()
        };
        let mut inst = Instance::empty(cp.n());
        for elem in (0..cp.n()).filter(|i| mask >> i & 1 == 1) {
            if cp.elements[elem].kleene {
                for _ in 0..1 + (pick & 1) {
                    inst = inst.with_kleene(elem, next());
                }
            } else {
                inst = inst.with_single(elem, next());
            }
        }
        inst
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            max_shrink_iters: 200,
        })]

        /// The extent guards change no verdict and no predicate count:
        /// every (instance, event) and (instance, instance) pair over
        /// drawn SEQ/AND patterns, with repeated types, Kleene sets, tied
        /// timestamps and empty instances, under every strategy, agrees
        /// with the full walk.
        #[test]
        fn extent_guards_agree_with_the_full_walk(
            seq in any::<bool>(),
            types in prop::collection::vec(0u32..3, 2..=4),
            kleene_at in 0usize..6,
            preds in prop::collection::vec((0usize..4, 0usize..4, 0u8..12), 0..=4),
            strategy in 0u8..4,
            window in 0u64..8,
            raw in prop::collection::vec((0u32..3, 0u8..3, -3i8..4, 0u8..7), 4..=16),
            draws in prop::collection::vec((any::<u8>(), any::<u64>()), 1..=6),
            consumed_mask in any::<u32>(),
        ) {
            let Some(cp) = drawn_pattern(seq, &types, kleene_at, &preds, strategy, window) else {
                return Ok(());
            };
            let prog = PredicateProgram::compile(&cp);
            let stream = drawn_stream(&raw);
            let mut consumed = ConsumedSet::new();
            let bindings = stream
                .iter()
                .filter(|e| consumed_mask >> e.seq & 1 == 1)
                .map(|e| (0, Binding::One(e.clone())))
                .collect();
            consumed.consume(&Match { bindings, last_ts: 0, emitted_at: 0 });
            let mut instances: Vec<Instance> = draws
                .iter()
                .map(|&(mask, pick)| drawn_instance(&cp, &stream, mask, pick))
                .collect();
            instances.push(Instance::empty(cp.n()));
            for inst in &instances {
                for elem in 0..cp.n() {
                    for e in &stream {
                        let (mut fast, mut full) = (EngineMetrics::new(), EngineMetrics::new());
                        let got = compatible_with(&cp, &prog, inst, elem, e, &consumed, &mut fast);
                        let want = full_walk_compatible_with(
                            &cp, &prog, inst, elem, e, &consumed, &mut full,
                        );
                        prop_assert_eq!(got, want, "elem {} event {:?}", elem, e);
                        prop_assert_eq!(fast.predicate_evaluations, full.predicate_evaluations);
                    }
                }
                // Engines merge only non-empty sides; an empty one is the
                // extreme of the extents, so one side may be empty here.
                for other in instances.iter().filter(|o| o.event_count + inst.event_count > 0) {
                    let (mut fast, mut full) = (EngineMetrics::new(), EngineMetrics::new());
                    let got = merge_compatible_with(&cp, &prog, inst, other, &consumed, &mut fast);
                    let want = full_walk_merge_compatible_with(
                        &cp, &prog, inst, other, &consumed, &mut full,
                    );
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(fast.predicate_evaluations, full.predicate_evaluations);
                }
            }
        }

        /// The tree's event-leaf checks agree with merging the event's
        /// one-element instance, from either side: [`joins_event`] for an
        /// instance and an event at an element it leaves unbound,
        /// [`events_join`] for two events. Same verdicts, same predicate
        /// evaluations.
        #[test]
        fn event_checks_agree_with_merging_one_element_instances(
            seq in any::<bool>(),
            types in prop::collection::vec(0u32..3, 2..=4),
            kleene_at in 0usize..6,
            preds in prop::collection::vec((0usize..4, 0usize..4, 0u8..12), 0..=4),
            strategy in 0u8..4,
            window in 0u64..8,
            raw in prop::collection::vec((0u32..3, 0u8..3, -3i8..4, 0u8..7), 4..=12),
            draws in prop::collection::vec((any::<u8>(), any::<u64>()), 1..=5),
        ) {
            let Some(cp) = drawn_pattern(seq, &types, kleene_at, &preds, strategy, window) else {
                return Ok(());
            };
            let prog = PredicateProgram::compile(&cp);
            let stream = drawn_stream(&raw);
            let none = ConsumedSet::new();
            let instances: Vec<Instance> = draws
                .iter()
                .map(|&(mask, pick)| drawn_instance(&cp, &stream, mask, pick))
                .filter(|i| i.event_count > 0)
                .collect();
            let plain: Vec<usize> = (0..cp.n()).filter(|&i| !cp.elements[i].kleene).collect();
            let seed = |elem: usize, e: &EventRef| Instance::empty(cp.n()).with_single(elem, e.clone());
            for &elem in &plain {
                for e in &stream {
                    for inst in instances.iter().filter(|i| i.bindings[elem].is_none()) {
                        let mut got = EngineMetrics::new();
                        let verdict = joins_event(&cp, &prog, inst, elem, e, &mut got);
                        for (left, right) in [(&seed(elem, e), inst), (inst, &seed(elem, e))] {
                            let mut want = EngineMetrics::new();
                            let merged = merge_compatible_with(&cp, &prog, left, right, &none, &mut want);
                            prop_assert_eq!(verdict, merged);
                            prop_assert_eq!(got.predicate_evaluations, want.predicate_evaluations);
                        }
                    }
                    for &other in plain.iter().filter(|&&o| o != elem) {
                        for f in &stream {
                            let (mut got, mut want) = (EngineMetrics::new(), EngineMetrics::new());
                            let verdict = events_join(&cp, &prog, (elem, e), (other, f), &mut got);
                            let merged = merge_compatible_with(
                                &cp, &prog, &seed(elem, e), &seed(other, f), &none, &mut want,
                            );
                            prop_assert_eq!(verdict, merged);
                            prop_assert_eq!(got.predicate_evaluations, want.predicate_evaluations);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "extents cover the bindings")]
    fn stale_extents_fail_the_extension_check_in_debug_builds() {
        let cp = cp_seq2();
        let mut inst = Instance::empty(2).with_single(0, ev(0, 5, 3, 1));
        inst.max_ts = 4;
        let mut m = EngineMetrics::new();
        compatible(&cp, &inst, 1, &ev(1, 6, 4, 2), &ConsumedSet::new(), &mut m);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "extents cover the bindings")]
    fn stale_extents_fail_the_merge_check_in_debug_builds() {
        let cp = cp_seq2();
        let left = Instance::empty(2).with_single(0, ev(0, 5, 3, 1));
        let mut right = Instance::empty(2).with_single(1, ev(1, 6, 4, 2));
        right.min_seq = 5;
        let mut m = EngineMetrics::new();
        merge_compatible(&cp, &left, &right, &ConsumedSet::new(), &mut m);
    }
}
