//! Compiled predicate pipeline: fused evaluators and the plan cache.
//!
//! The interpreted path ([`crate::predicate::Predicate::eval`]) re-walks the
//! operand AST per evaluation, re-resolving attribute indices, comparison
//! kinds, and constants that were all fixed at pattern-compile time. This
//! module lowers each compiled pattern's predicate set once, at plan-build
//! time, into a [`PredicateProgram`]:
//!
//! * unary filters become [`CompiledPredicate`] evaluators with operand
//!   sources pre-resolved ([`Src`]); chains of conjunctive attribute-vs-
//!   constant filters over the same `(element, attr)` pair are *fused* into a
//!   single [`FusedRange`] interval test via
//!   [`CompiledPredicate::can_fuse_with`] / [`CompiledPredicate::fuse_with`],
//! * pairwise predicates become [`CompiledPair`] evaluators addressed by
//!   ordered element pair, so engines index them directly instead of
//!   re-matching positions per call.
//!
//! Programs are cached in a bounded, signature-keyed [`PlanCache`] so
//! adaptive replans and repeated factory builds that land on a previously
//! seen pattern reuse the compiled form ([`PlanCache::get_or_compile`]).
//! Cache lookups are traced via [`TraceRecord::PlanCacheLookup`].
//!
//! Compiled evaluation is semantically byte-identical to the interpreted
//! path: missing attributes and cross-kind incomparable values fail every
//! operator (including `!=`), exactly as in
//! [`CmpOp::test`](crate::predicate::CmpOp::test). The only observable
//! difference is the
//! [`predicate_evaluations`](crate::metrics::EngineMetrics::predicate_evaluations)
//! counter, which counts *evaluator invocations*: a fused range test counts
//! once where the interpreted path would count each collapsed conjunct.

use crate::compile::CompiledPattern;
use crate::event::{Event, TypeId};
use crate::predicate::{CmpOp, Operand, Predicate};
use crate::value::Value;
use cep_obs::{TraceRecord, Tracer};
use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// FNV-1a streaming hasher used for plan signatures.
///
/// Deliberately not `std::hash::Hasher`: signatures must be stable across
/// runs and platforms (they key the plan cache and appear in trace records),
/// whereas `DefaultHasher` is explicitly unstable.
#[derive(Debug, Clone)]
pub(crate) struct SigHasher {
    state: u64,
}

impl SigHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> SigHasher {
        SigHasher {
            state: Self::OFFSET,
        }
    }

    pub(crate) fn write_u8(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(Self::PRIME);
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &b in bytes {
            self.write_u8(b);
        }
    }

    pub(crate) fn write_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.write_u8(0);
                self.write_u64(*i as u64);
            }
            Value::Float(f) => {
                self.write_u8(1);
                self.write_u64(f.to_bits());
            }
            Value::Bool(b) => {
                self.write_u8(2);
                self.write_u8(*b as u8);
            }
            Value::Str(s) => {
                self.write_u8(3);
                self.write_bytes(s.as_bytes());
            }
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.state
    }
}

pub(crate) fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => 0,
        CmpOp::Le => 1,
        CmpOp::Eq => 2,
        CmpOp::Ne => 3,
        CmpOp::Ge => 4,
        CmpOp::Gt => 5,
    }
}

pub(crate) fn write_operand(h: &mut SigHasher, o: &Operand) {
    match o {
        Operand::Attr { position, attr } => {
            h.write_u8(0);
            h.write_u64(*position as u64);
            h.write_u64(*attr as u64);
        }
        Operand::Ts { position } => {
            h.write_u8(1);
            h.write_u64(*position as u64);
        }
        Operand::Const(v) => {
            h.write_u8(2);
            h.write_value(v);
        }
    }
}

/// A pre-resolved operand source for a unary (single-event) evaluator.
#[derive(Debug, Clone, PartialEq)]
pub enum Src {
    /// Attribute at this index of the candidate event.
    Attr(usize),
    /// Occurrence timestamp of the candidate event, viewed as `Int`.
    Ts,
    /// Literal constant, resolved at compile time.
    Const(Value),
}

/// A resolved operand at evaluation time.
enum Resolved<'a> {
    Val(&'a Value),
    Ts(i64),
    Missing,
}

impl Src {
    fn resolve<'a>(&'a self, ev: &'a Event) -> Resolved<'a> {
        match self {
            Src::Attr(i) => match ev.attr(*i) {
                Some(v) => Resolved::Val(v),
                None => Resolved::Missing,
            },
            Src::Ts => Resolved::Ts(ev.ts as i64),
            Src::Const(v) => Resolved::Val(v),
        }
    }
}

/// Compares two resolved operands with the interpreted path's semantics:
/// a missing attribute is incomparable to everything (so every operator,
/// including `!=`, fails), and timestamps compare as `Value::Int`.
fn cmp_resolved(a: &Resolved<'_>, b: &Resolved<'_>) -> Option<Ordering> {
    match (a, b) {
        (Resolved::Missing, _) | (_, Resolved::Missing) => None,
        (Resolved::Val(x), Resolved::Val(y)) => x.partial_cmp_value(y),
        (Resolved::Ts(x), Resolved::Ts(y)) => Some(x.cmp(y)),
        (Resolved::Ts(x), Resolved::Val(y)) => Value::Int(*x).partial_cmp_value(y),
        (Resolved::Val(x), Resolved::Ts(y)) => x.partial_cmp_value(&Value::Int(*y)),
    }
}

/// A general compiled unary evaluator: `left op right` over one event.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledUnary {
    /// Left operand source.
    pub left: Src,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand source.
    pub right: Src,
}

impl CompiledUnary {
    /// Evaluates against one candidate event.
    pub fn eval(&self, ev: &Event) -> bool {
        self.op.test(cmp_resolved(
            &self.left.resolve(ev),
            &self.right.resolve(ev),
        ))
    }
}

/// A fused interval test over a single attribute: `lo < v < hi` with each
/// bound independently optional and independently strict.
///
/// Built from attribute-vs-constant filters with operators in
/// `{<, <=, ==, >=, >}` (equality becomes the point range `lo = hi`;
/// `!=` is not range-expressible because it *passes* on both orderings).
/// A missing or incomparable attribute fails the test, matching the
/// interpreted semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedRange {
    /// Attribute index tested.
    pub attr: usize,
    /// Lower bound `(constant, strict)`; `None` means unbounded below.
    pub lo: Option<(Value, bool)>,
    /// Upper bound `(constant, strict)`; `None` means unbounded above.
    pub hi: Option<(Value, bool)>,
    /// Number of original predicates collapsed into this range.
    pub fused: u32,
}

impl FusedRange {
    /// Evaluates the interval test against one candidate event.
    pub fn eval(&self, ev: &Event) -> bool {
        let Some(v) = ev.attr(self.attr) else {
            return false;
        };
        if let Some((lo, strict)) = &self.lo {
            match v.partial_cmp_value(lo) {
                Some(Ordering::Greater) => {}
                Some(Ordering::Equal) if !*strict => {}
                _ => return false,
            }
        }
        if let Some((hi, strict)) = &self.hi {
            match v.partial_cmp_value(hi) {
                Some(Ordering::Less) => {}
                Some(Ordering::Equal) if !*strict => {}
                _ => return false,
            }
        }
        true
    }

    fn from_op(attr: usize, op: CmpOp, c: Value) -> Option<FusedRange> {
        let (lo, hi) = match op {
            CmpOp::Lt => (None, Some((c, true))),
            CmpOp::Le => (None, Some((c, false))),
            CmpOp::Eq => (Some((c.clone(), false)), Some((c, false))),
            CmpOp::Ge => (Some((c, false)), None),
            CmpOp::Gt => (Some((c, true)), None),
            CmpOp::Ne => return None,
        };
        Some(FusedRange {
            attr,
            lo,
            hi,
            fused: 1,
        })
    }

    fn bounds(&self) -> impl Iterator<Item = &Value> {
        self.lo
            .iter()
            .map(|(v, _)| v)
            .chain(self.hi.iter().map(|(v, _)| v))
    }
}

/// Picks the tighter of two optional lower bounds (greater constant wins;
/// on equal constants, strict wins). Call only when the constants compare.
fn tighter_lo(a: Option<(Value, bool)>, b: Option<(Value, bool)>) -> Option<(Value, bool)> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some((x, xs)), Some((y, ys))) => match x.partial_cmp_value(&y) {
            Some(Ordering::Greater) => Some((x, xs)),
            Some(Ordering::Less) => Some((y, ys)),
            _ => Some((x, xs || ys)),
        },
    }
}

/// Picks the tighter of two optional upper bounds (smaller constant wins;
/// on equal constants, strict wins). Call only when the constants compare.
fn tighter_hi(a: Option<(Value, bool)>, b: Option<(Value, bool)>) -> Option<(Value, bool)> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some((x, xs)), Some((y, ys))) => match x.partial_cmp_value(&y) {
            Some(Ordering::Less) => Some((x, xs)),
            Some(Ordering::Greater) => Some((y, ys)),
            _ => Some((x, xs || ys)),
        },
    }
}

/// One compiled unary evaluator: either a fused interval test or a general
/// comparison kept in residual form.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledPredicate {
    /// Fused attribute interval test.
    Range(FusedRange),
    /// General comparison (attribute-vs-attribute, timestamp-involving, or
    /// `!=` — anything not range-expressible).
    General(CompiledUnary),
}

impl CompiledPredicate {
    /// Lowers a unary predicate whose referenced position is `position`.
    ///
    /// Attribute-vs-constant comparisons with a range-expressible operator
    /// become [`CompiledPredicate::Range`]; everything else stays
    /// [`CompiledPredicate::General`].
    pub fn compile(p: &Predicate, position: usize) -> CompiledPredicate {
        debug_assert!(
            p.position_pair() == (position, None),
            "filter must reference exactly the given position"
        );
        let as_range = match (&p.left, &p.right) {
            (Operand::Attr { attr, .. }, Operand::Const(c)) => {
                FusedRange::from_op(*attr, p.op, c.clone())
            }
            (Operand::Const(c), Operand::Attr { attr, .. }) => {
                FusedRange::from_op(*attr, p.op.flip(), c.clone())
            }
            _ => None,
        };
        match as_range {
            Some(r) => CompiledPredicate::Range(r),
            None => {
                let src = |o: &Operand| match o {
                    Operand::Attr { attr, .. } => Src::Attr(*attr),
                    Operand::Ts { .. } => Src::Ts,
                    Operand::Const(v) => Src::Const(v.clone()),
                };
                CompiledPredicate::General(CompiledUnary {
                    left: src(&p.left),
                    op: p.op,
                    right: src(&p.right),
                })
            }
        }
    }

    /// Evaluates against one candidate event.
    pub fn eval(&self, ev: &Event) -> bool {
        match self {
            CompiledPredicate::Range(r) => r.eval(ev),
            CompiledPredicate::General(g) => g.eval(ev),
        }
    }

    /// Whether `self` and `other` may be fused into a single evaluator.
    ///
    /// Requires both to be interval tests over the same attribute whose
    /// bound constants are mutually comparable (same comparability class —
    /// numeric, boolean, or string — and no `NaN`). Comparability makes
    /// dropping the looser of two same-side bounds exactly equivalent to
    /// testing both: any event value comparable to the tighter bound is,
    /// by class-transitivity, comparable to the dropped one.
    pub fn can_fuse_with(&self, other: &CompiledPredicate) -> bool {
        let (CompiledPredicate::Range(a), CompiledPredicate::Range(b)) = (self, other) else {
            return false;
        };
        a.attr == b.attr
            && a.bounds()
                .all(|x| b.bounds().all(|y| x.partial_cmp_value(y).is_some()))
    }

    /// Fuses two interval tests into one, keeping the tighter bound on each
    /// side. Returns `None` when [`CompiledPredicate::can_fuse_with`] does
    /// not hold.
    pub fn fuse_with(self, other: CompiledPredicate) -> Option<CompiledPredicate> {
        if !self.can_fuse_with(&other) {
            return None;
        }
        let (CompiledPredicate::Range(a), CompiledPredicate::Range(b)) = (self, other) else {
            unreachable!("can_fuse_with admitted only ranges");
        };
        Some(CompiledPredicate::Range(FusedRange {
            attr: a.attr,
            lo: tighter_lo(a.lo, b.lo),
            hi: tighter_hi(a.hi, b.hi),
            fused: a.fused + b.fused,
        }))
    }
}

/// A pre-resolved operand source for a pairwise evaluator over events
/// `(a, b)`.
#[derive(Debug, Clone, PartialEq)]
pub enum PairSrc {
    /// Attribute of event `a`.
    AAttr(usize),
    /// Timestamp of event `a`.
    ATs,
    /// Attribute of event `b`.
    BAttr(usize),
    /// Timestamp of event `b`.
    BTs,
    /// Literal constant.
    Const(Value),
}

impl PairSrc {
    fn resolve<'a>(&'a self, a: &'a Event, b: &'a Event) -> Resolved<'a> {
        match self {
            PairSrc::AAttr(i) => match a.attr(*i) {
                Some(v) => Resolved::Val(v),
                None => Resolved::Missing,
            },
            PairSrc::ATs => Resolved::Ts(a.ts as i64),
            PairSrc::BAttr(i) => match b.attr(*i) {
                Some(v) => Resolved::Val(v),
                None => Resolved::Missing,
            },
            PairSrc::BTs => Resolved::Ts(b.ts as i64),
            PairSrc::Const(v) => Resolved::Val(v),
        }
    }
}

/// A compiled pairwise evaluator: `left op right` over an event pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPair {
    /// Left operand source.
    pub left: PairSrc,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand source.
    pub right: PairSrc,
}

impl CompiledPair {
    /// Lowers a pairwise predicate for the ordered element pair whose
    /// pattern positions are `pos_a` (the `a` side) and `pos_b` (`b`).
    pub fn compile(p: &Predicate, pos_a: usize, pos_b: usize) -> CompiledPair {
        let src = |o: &Operand| match o {
            Operand::Attr { position, attr } if *position == pos_a => PairSrc::AAttr(*attr),
            Operand::Attr { position, attr } if *position == pos_b => PairSrc::BAttr(*attr),
            Operand::Ts { position } if *position == pos_a => PairSrc::ATs,
            Operand::Ts { position } if *position == pos_b => PairSrc::BTs,
            Operand::Const(v) => PairSrc::Const(v.clone()),
            other => unreachable!("pair predicate references foreign position {other:?}"),
        };
        CompiledPair {
            left: src(&p.left),
            op: p.op,
            right: src(&p.right),
        }
    }

    /// Evaluates against the ordered event pair `(a, b)`. An attribute of
    /// one event against an attribute of the other, the common join, is
    /// compared directly; a missing attribute fails every operator.
    pub fn eval(&self, a: &Event, b: &Event) -> bool {
        let (x, y) = match (&self.left, &self.right) {
            (PairSrc::AAttr(i), PairSrc::BAttr(j)) => (a.attr(*i), b.attr(*j)),
            (PairSrc::BAttr(j), PairSrc::AAttr(i)) => (b.attr(*j), a.attr(*i)),
            (left, right) => {
                return self
                    .op
                    .test(cmp_resolved(&left.resolve(a, b), &right.resolve(a, b)))
            }
        };
        self.op
            .test(x.zip(y).and_then(|(x, y)| x.partial_cmp_value(y)))
    }
}

/// Per-type lookup entry: positive element indices plus whether the type
/// also appears negated (negated types must always be buffered).
#[derive(Debug, Clone)]
struct TypeEntry {
    elems: Vec<usize>,
    has_negated: bool,
}

/// The compiled evaluator set for one [`CompiledPattern`]: fused unary
/// filters per element and pairwise evaluators per ordered element pair.
///
/// Built once at plan-build time (directly or via [`PlanCache`]) and shared
/// by reference across engine instances; evaluation never re-walks the
/// predicate AST.
#[derive(Debug, Clone)]
pub struct PredicateProgram {
    /// Fused filters per positive element index.
    filters: Vec<Vec<CompiledPredicate>>,
    /// Pairwise evaluators per ordered element pair `[i][j]`, compiled with
    /// element `i` on the `a` side.
    pairs: Vec<Vec<Vec<CompiledPair>>>,
    /// Per-type entry for eager buffer pruning, one per type the pattern
    /// names (at most n + |negated|, so a scan beats hashing).
    by_type: Vec<(TypeId, TypeEntry)>,
    /// Signature of the source pattern.
    signature: u64,
    /// Number of original filter predicates collapsed away by fusion.
    fused_away: u32,
}

impl PredicateProgram {
    /// Lowers a compiled pattern's predicate set into evaluator form.
    pub fn compile(cp: &CompiledPattern) -> PredicateProgram {
        let n = cp.n();
        let mut fused_away = 0u32;
        let mut filters: Vec<Vec<CompiledPredicate>> = Vec::with_capacity(n);
        for i in 0..n {
            let pos = cp.elements[i].position;
            let mut list: Vec<CompiledPredicate> = Vec::new();
            for &pi in cp.filters_of(i) {
                let next = CompiledPredicate::compile(&cp.predicates[pi], pos);
                match list.iter().position(|slot| slot.can_fuse_with(&next)) {
                    Some(at) => {
                        list[at] = list[at]
                            .clone()
                            .fuse_with(next)
                            .expect("can_fuse_with admitted the pair");
                        fused_away += 1;
                    }
                    None => list.push(next),
                }
            }
            filters.push(list);
        }

        let mut pairs: Vec<Vec<Vec<CompiledPair>>> = vec![vec![Vec::new(); n]; n];
        for (i, row) in pairs.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i == j {
                    continue;
                }
                let pos_i = cp.elements[i].position;
                let pos_j = cp.elements[j].position;
                for &pi in cp.predicates_between(i, j) {
                    cell.push(CompiledPair::compile(&cp.predicates[pi], pos_i, pos_j));
                }
            }
        }

        let mut by_type: Vec<(TypeId, TypeEntry)> = Vec::new();
        let types = cp.elements.iter().map(|e| e.event_type);
        for ty in types.chain(cp.negated.iter().map(|ne| ne.event_type)) {
            if by_type.iter().all(|(t, _)| *t != ty) {
                let entry = TypeEntry {
                    elems: cp.elements_of_type(ty).collect(),
                    has_negated: cp.negated_of_type(ty).next().is_some(),
                };
                by_type.push((ty, entry));
            }
        }

        PredicateProgram {
            filters,
            pairs,
            by_type,
            signature: cp.signature(),
            fused_away,
        }
    }

    /// Whether `ev` passes every (fused) filter of element `elem`.
    /// Each evaluator invocation increments `evals`.
    pub fn element_passes(&self, elem: usize, ev: &Event, evals: &mut u64) -> bool {
        for f in &self.filters[elem] {
            *evals += 1;
            if !f.eval(ev) {
                return false;
            }
        }
        true
    }

    /// Compiled pairwise evaluators for the ordered element pair `(i, j)`,
    /// with element `i`'s event passed as the `a` argument.
    pub fn pairs_between(&self, i: usize, j: usize) -> &[CompiledPair] {
        &self.pairs[i][j]
    }

    /// Whether `ev` could ever bind anywhere in the pattern: it either has a
    /// type with negated elements (always relevant) or passes the filters of
    /// at least one positive element of its type. Events failing this can be
    /// dropped before buffering (eager pruning) without changing the match
    /// set, because [`element_passes`](Self::element_passes) would reject
    /// them at every bind attempt.
    pub fn can_ever_bind(&self, ev: &Event, evals: &mut u64) -> bool {
        match self.by_type.iter().find(|(t, _)| *t == ev.type_id) {
            None => false,
            Some((_, entry)) => {
                entry.has_negated
                    || entry
                        .elems
                        .iter()
                        .any(|&i| self.element_passes(i, ev, evals))
            }
        }
    }

    /// Signature of the pattern this program was compiled from.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Number of original filter predicates collapsed away by fusion.
    pub fn fused_predicates(&self) -> u32 {
        self.fused_away
    }

    /// Compiled filters of one element (inspection / tests).
    pub fn filters_of(&self, elem: usize) -> &[CompiledPredicate] {
        &self.filters[elem]
    }
}

/// A bounded, signature-keyed cache of compiled [`PredicateProgram`]s.
///
/// Keys are [`CompiledPattern::signature`] values, so a replan or factory
/// build that lands on a previously seen pattern (same structure, predicate
/// set, window, and strategy) reuses the compiled program instead of
/// lowering it again. Eviction is FIFO by first insertion. Every lookup can
/// be traced as a [`TraceRecord::PlanCacheLookup`].
#[derive(Debug)]
pub struct PlanCache {
    map: HashMap<u64, Arc<PredicateProgram>>,
    fifo: VecDeque<u64>,
    cap: usize,
    hits: u64,
    misses: u64,
    tracer: Tracer,
}

impl PlanCache {
    /// Creates a cache holding at most `cap` compiled programs.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> PlanCache {
        assert!(cap >= 1, "PlanCache capacity must be >= 1");
        PlanCache {
            map: HashMap::new(),
            fifo: VecDeque::new(),
            cap,
            hits: 0,
            misses: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer; every subsequent lookup emits a
    /// `PlanCacheLookup` record.
    pub fn with_tracer(mut self, tracer: Tracer) -> PlanCache {
        self.tracer = tracer;
        self
    }

    /// Returns the compiled program for `cp`, compiling and caching it on a
    /// miss, plus this lookup's hit and miss counts (`(1, 0)` or `(0, 1)`)
    /// for stamping onto the engine built from it.
    pub fn get_or_compile(&mut self, cp: &CompiledPattern) -> (Arc<PredicateProgram>, u64, u64) {
        let signature = cp.signature();
        let (program, hit) = match self.map.get(&signature) {
            Some(p) => (p.clone(), true),
            None => {
                let p = Arc::new(PredicateProgram::compile(cp));
                if self.map.len() >= self.cap {
                    if let Some(old) = self.fifo.pop_front() {
                        self.map.remove(&old);
                    }
                }
                self.map.insert(signature, p.clone());
                self.fifo.push_back(signature);
                (p, false)
            }
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        let size = self.map.len() as u64;
        self.tracer.emit_with(|| TraceRecord::PlanCacheLookup {
            signature,
            hit,
            size,
        });
        (program, u64::from(hit), u64::from(!hit))
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses (compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A plan cache shared across threads (factories are `Send + Sync`).
pub type SharedPlanCache = Arc<Mutex<PlanCache>>;

/// Creates a [`SharedPlanCache`] with the given capacity.
pub fn shared_plan_cache(cap: usize) -> SharedPlanCache {
    Arc::new(Mutex::new(PlanCache::new(cap)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use crate::selection::SelectionStrategy;
    use std::sync::Arc as StdArc;

    fn t(i: u32) -> TypeId {
        TypeId(i)
    }

    fn ev_x(x: i64) -> Event {
        Event::new(t(0), 5, vec![Value::Int(x)])
    }

    fn filter_pattern(preds: Vec<Predicate>) -> CompiledPattern {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        for p in preds {
            b.predicate(p);
        }
        let _ = a;
        let _ = c;
        CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap()
    }

    #[test]
    fn interval_filters_fuse_to_one_range() {
        let cp = filter_pattern(vec![
            Predicate::attr_const(0, 0, CmpOp::Ge, Value::Int(3)),
            Predicate::attr_const(0, 0, CmpOp::Lt, Value::Int(10)),
            Predicate::attr_const(0, 0, CmpOp::Gt, Value::Int(1)),
        ]);
        let prog = PredicateProgram::compile(&cp);
        assert_eq!(prog.filters_of(0).len(), 1, "three filters fused into one");
        assert_eq!(prog.fused_predicates(), 2);
        let CompiledPredicate::Range(r) = &prog.filters_of(0)[0] else {
            panic!("expected fused range");
        };
        assert_eq!(r.lo, Some((Value::Int(3), false)), "Ge 3 beats Gt 1");
        assert_eq!(r.hi, Some((Value::Int(10), true)));
        assert_eq!(r.fused, 3);
        let mut evals = 0u64;
        assert!(prog.element_passes(0, &ev_x(3), &mut evals));
        assert!(prog.element_passes(0, &ev_x(9), &mut evals));
        assert!(!prog.element_passes(0, &ev_x(2), &mut evals));
        assert!(!prog.element_passes(0, &ev_x(10), &mut evals));
        assert_eq!(evals, 4, "one evaluator invocation per event");
    }

    #[test]
    fn equal_constants_tie_break_to_strict() {
        let cp = filter_pattern(vec![
            Predicate::attr_const(0, 0, CmpOp::Gt, Value::Int(3)),
            Predicate::attr_const(0, 0, CmpOp::Ge, Value::Int(3)),
        ]);
        let prog = PredicateProgram::compile(&cp);
        let CompiledPredicate::Range(r) = &prog.filters_of(0)[0] else {
            panic!("expected fused range");
        };
        assert_eq!(r.lo, Some((Value::Int(3), true)), "x>3 AND x>=3 is x>3");
    }

    #[test]
    fn eq_becomes_point_range_and_contradictions_reject_everything() {
        let cp = filter_pattern(vec![
            Predicate::attr_const(0, 0, CmpOp::Eq, Value::Int(5)),
            Predicate::attr_const(0, 0, CmpOp::Eq, Value::Int(7)),
        ]);
        let prog = PredicateProgram::compile(&cp);
        assert_eq!(prog.filters_of(0).len(), 1);
        let mut evals = 0u64;
        for x in [4, 5, 6, 7, 8] {
            assert!(!prog.element_passes(0, &ev_x(x), &mut evals));
        }
    }

    #[test]
    fn ne_stays_general_and_matches_interpreted_semantics() {
        let p = Predicate::attr_const(0, 0, CmpOp::Ne, Value::Int(5));
        let c = CompiledPredicate::compile(&p, 0);
        assert!(matches!(c, CompiledPredicate::General(_)));
        assert!(c.eval(&ev_x(4)));
        assert!(!c.eval(&ev_x(5)));
        // Ne on an incomparable value fails, like the interpreted path.
        let s = Event::new(t(0), 0, vec![Value::from("s")]);
        assert!(!c.eval(&s));
        assert_eq!(p.eval_single(0, &s), c.eval(&s));
    }

    #[test]
    fn incomparable_constants_refuse_fusion() {
        let a =
            CompiledPredicate::compile(&Predicate::attr_const(0, 0, CmpOp::Ge, Value::Int(3)), 0);
        let b = CompiledPredicate::compile(
            &Predicate::attr_const(0, 0, CmpOp::Le, Value::from("zz")),
            0,
        );
        assert!(!a.can_fuse_with(&b));
        let nan = CompiledPredicate::compile(
            &Predicate::attr_const(0, 0, CmpOp::Le, Value::Float(f64::NAN)),
            0,
        );
        assert!(!a.can_fuse_with(&nan), "NaN bounds never fuse");
        // Different attributes never fuse either.
        let other_attr =
            CompiledPredicate::compile(&Predicate::attr_const(0, 1, CmpOp::Le, Value::Int(9)), 0);
        assert!(!a.can_fuse_with(&other_attr));
    }

    #[test]
    fn const_on_left_flips_into_range() {
        let p = Predicate {
            left: Operand::Const(Value::Int(3)),
            op: CmpOp::Lt,
            right: Operand::Attr {
                position: 0,
                attr: 0,
            },
        };
        let c = CompiledPredicate::compile(&p, 0);
        let CompiledPredicate::Range(r) = &c else {
            panic!("expected range");
        };
        assert_eq!(r.lo, Some((Value::Int(3), true)), "3 < x means x > 3");
        assert!(c.eval(&ev_x(4)));
        assert!(!c.eval(&ev_x(3)));
    }

    #[test]
    fn compiled_pair_matches_interpreted_on_grid() {
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ];
        for op in ops {
            let p = Predicate::attr_cmp(0, 0, op, 1, 0);
            let c = CompiledPair::compile(&p, 0, 1);
            for x in -2..=2i64 {
                for y in -2..=2i64 {
                    let a = ev_x(x);
                    let b = ev_x(y);
                    assert_eq!(
                        p.eval_pair(0, &a, 1, &b),
                        c.eval(&a, &b),
                        "op {op:?} x {x} y {y}"
                    );
                }
            }
        }
        // Timestamp operands.
        let p = Predicate::ts_before(0, 1);
        let c = CompiledPair::compile(&p, 0, 1);
        let mk = |ts| Event::new(t(0), ts, vec![]);
        assert_eq!(p.eval_pair(0, &mk(3), 1, &mk(5)), c.eval(&mk(3), &mk(5)));
        assert_eq!(p.eval_pair(0, &mk(5), 1, &mk(5)), c.eval(&mk(5), &mk(5)));
    }

    #[test]
    fn direct_attribute_pairs_agree_with_the_resolver() {
        let values = [
            None,
            Some(Value::Int(1)),
            Some(Value::Int(2)),
            Some(Value::Float(1.0)),
            Some(Value::Float(-0.0)),
            Some(Value::Float(f64::NAN)),
            Some(Value::Bool(true)),
            Some(Value::from("s")),
        ];
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ];
        // `None` is an event without the attribute.
        let mk = |v: &Option<Value>| Event::new(t(0), 5, v.iter().cloned().collect());
        for op in ops {
            for (left, right) in [
                (PairSrc::AAttr(0), PairSrc::BAttr(0)),
                (PairSrc::BAttr(0), PairSrc::AAttr(0)),
            ] {
                let c = CompiledPair { left, op, right };
                for x in &values {
                    for y in &values {
                        let (a, b) = (mk(x), mk(y));
                        let resolved = c.op.test(cmp_resolved(
                            &c.left.resolve(&a, &b),
                            &c.right.resolve(&a, &b),
                        ));
                        assert_eq!(c.eval(&a, &b), resolved, "{c:?} on {x:?}, {y:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn missing_attribute_fails_compiled_like_interpreted() {
        let p = Predicate::attr_const(0, 3, CmpOp::Ge, Value::Int(0));
        let c = CompiledPredicate::compile(&p, 0);
        let e = ev_x(1); // only attr 0 exists
        assert!(!c.eval(&e));
        assert_eq!(p.eval_single(0, &e), c.eval(&e));
    }

    #[test]
    fn program_respects_pair_orientation() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let prog = PredicateProgram::compile(&cp);
        assert_eq!(prog.pairs_between(0, 1).len(), 1);
        assert_eq!(prog.pairs_between(1, 0).len(), 1);
        let small = ev_x(1);
        let big = ev_x(9);
        // a.x < c.x: (a=small, c=big) passes from both orientations.
        assert!(prog.pairs_between(0, 1)[0].eval(&small, &big));
        assert!(prog.pairs_between(1, 0)[0].eval(&big, &small));
        assert!(!prog.pairs_between(0, 1)[0].eval(&big, &small));
    }

    #[test]
    fn can_ever_bind_prunes_only_filter_rejected_types() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_const(a.pos(), 0, CmpOp::Ge, Value::Int(10)));
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let prog = PredicateProgram::compile(&cp);
        let mut evals = 0;
        assert!(prog.can_ever_bind(&Event::new(t(0), 0, vec![Value::Int(10)]), &mut evals));
        assert!(!prog.can_ever_bind(&Event::new(t(0), 0, vec![Value::Int(9)]), &mut evals));
        // Type 1 has no filters: always bindable.
        assert!(prog.can_ever_bind(&Event::new(t(1), 0, vec![]), &mut evals));
        // Unused type.
        assert!(!prog.can_ever_bind(&Event::new(t(9), 0, vec![]), &mut evals));
    }

    #[test]
    fn negated_types_always_buffered() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let nb = b.event(t(1), "nb");
        let c = b.event(t(2), "c");
        b.predicate(Predicate::attr_const(
            nb.pos(),
            0,
            CmpOp::Ge,
            Value::Int(100),
        ));
        let ae = b.expr(a);
        let ne = b.not(nb);
        let ce = b.expr(c);
        let p = b.seq_exprs([ae, ne, ce]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let prog = PredicateProgram::compile(&cp);
        let mut evals = 0;
        // Negated type events must never be pruned, even filter-failing ones.
        assert!(prog.can_ever_bind(&Event::new(t(1), 0, vec![Value::Int(0)]), &mut evals));
    }

    #[test]
    fn cache_hits_on_identical_pattern_and_evicts_fifo() {
        let mk = |tid: u32, window: u64| {
            let mut b = PatternBuilder::new(window);
            let a = b.event(t(tid), "a");
            let c = b.event(t(tid + 1), "c");
            CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap()
        };
        let mut cache = PlanCache::new(2);
        let (p1, h, m) = cache.get_or_compile(&mk(0, 100));
        assert_eq!((h, m), (0, 1), "per-lookup delta");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let (p1b, h, m) = cache.get_or_compile(&mk(0, 100));
        assert_eq!((h, m), (1, 0));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(StdArc::ptr_eq(&p1, &p1b), "hit returns the same program");
        cache.get_or_compile(&mk(2, 100));
        cache.get_or_compile(&mk(4, 100)); // evicts mk(0, 100)
        assert_eq!(cache.len(), 2);
        cache.get_or_compile(&mk(0, 100));
        assert_eq!(cache.misses(), 4, "evicted entry recompiles");
    }

    #[test]
    fn cache_lookup_emits_trace_records() {
        use cep_obs::{RingSink, TraceRecord, Tracer};
        let ring = StdArc::new(RingSink::new(8));
        let tracer = Tracer::to_sink(ring.clone());
        let mut cache = PlanCache::new(4).with_tracer(tracer);
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        cache.get_or_compile(&cp);
        cache.get_or_compile(&cp);
        let recs = ring.snapshot();
        assert_eq!(recs.len(), 2);
        let TraceRecord::PlanCacheLookup {
            hit: h0,
            size: s0,
            signature: g0,
        } = &recs[0]
        else {
            panic!("expected PlanCacheLookup");
        };
        let TraceRecord::PlanCacheLookup {
            hit: h1,
            signature: g1,
            ..
        } = &recs[1]
        else {
            panic!("expected PlanCacheLookup");
        };
        assert!(!h0 && *s0 == 1);
        assert!(*h1);
        assert_eq!(g0, g1);
        assert_eq!(*g0, cp.signature());
    }

    #[test]
    fn signatures_distinguish_structure_predicates_window_strategy() {
        let base = |f: &dyn Fn(&mut PatternBuilder)| {
            let mut b = PatternBuilder::new(100);
            f(&mut b);
            let a = b.event(t(0), "a");
            let c = b.event(t(1), "c");
            CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap()
        };
        let plain = base(&|_| {});
        let plain2 = base(&|_| {});
        assert_eq!(plain.signature(), plain2.signature(), "deterministic");
        let strat = base(&|b| {
            b.strategy(SelectionStrategy::SkipTillNextMatch);
        });
        assert_ne!(plain.signature(), strat.signature());
        let with_pred = base(&|b| {
            b.predicate(Predicate::attr_const(0, 0, CmpOp::Ge, Value::Int(1)));
        });
        assert_ne!(plain.signature(), with_pred.signature());
        let mut bw = PatternBuilder::new(200);
        let a = bw.event(t(0), "a");
        let c = bw.event(t(1), "c");
        let windowed = CompiledPattern::compile_single(&bw.seq([a, c]).unwrap()).unwrap();
        assert_ne!(plain.signature(), windowed.signature());
    }
}
