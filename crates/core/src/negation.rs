//! Negation semantics shared by all engines (Section 5.3).
//!
//! A negated element forbids matching events inside an *open* time interval
//! `(L, U)` determined by the positive match `M` and the window `W`:
//!
//! * `L = max ts(before)` if the negated element has preceding positives,
//!   else `max_ts(M) − W` (any earlier event cannot share the window);
//! * `U = min ts(after)` if it has succeeding positives, else
//!   `min_ts(M) + W` (saturating at the top of the timestamp range, like
//!   `L` at the bottom).
//!
//! When `U` lies beyond the current watermark (a *trailing* negation, or
//! negation inside a conjunction), the decision is deferred: the match is
//! parked until the watermark passes `U`, and arriving events of the negated
//! type are tested against parked matches. This realizes the paper's
//! "check ... added at the earliest point possible" strategy while staying
//! correct for windows that are still open.

use crate::buffer::TypeBuffers;
use crate::compile::CompiledPattern;
use crate::event::{Event, EventRef, Timestamp};
use crate::matches::Match;

/// The forbidden open interval `(lo, hi)` for negated element `k` of `cp`,
/// given the positive match `m`.
pub fn forbidden_interval(cp: &CompiledPattern, k: usize, m: &Match) -> (Timestamp, Timestamp) {
    let ne = &cp.negated[k];
    let lo = if ne.before.is_empty() {
        m.max_ts().saturating_sub(cp.window)
    } else {
        ne.before
            .iter()
            .map(|&ei| m.bindings[ei].1.max_ts())
            .max()
            .expect("non-empty before")
    };
    let hi = if ne.after.is_empty() {
        m.min_ts().saturating_add(cp.window)
    } else {
        ne.after
            .iter()
            .map(|&ei| m.bindings[ei].1.min_ts())
            .min()
            .expect("non-empty after")
    };
    (lo, hi)
}

/// Whether `candidate` invalidates match `m` via negated element `k`:
/// right type, inside the forbidden interval, and satisfying every
/// predicate that links the negated position to the match.
pub fn violates(cp: &CompiledPattern, k: usize, m: &Match, candidate: &Event) -> bool {
    let ne = &cp.negated[k];
    if candidate.type_id != ne.event_type {
        return false;
    }
    let (lo, hi) = forbidden_interval(cp, k, m);
    if !(candidate.ts > lo && candidate.ts < hi) {
        return false;
    }
    // Predicates involving the negated position must all hold for the
    // candidate to count as a forbidden occurrence. Predicates against a
    // Kleene element hold iff they hold for every member event.
    for &pi in cp.negated_predicates(k) {
        let p = &cp.predicates[pi];
        let (a, b) = p.position_pair();
        let other = match b {
            None => None,
            Some(b) if a == ne.position => Some(b),
            Some(_) => Some(a),
        };
        match other {
            None => {
                if !p.eval_single(ne.position, candidate) {
                    return false;
                }
            }
            Some(opos) => match cp.elem_index(opos) {
                Some(ei) => {
                    let all = m.bindings[ei].1.events().all(|e| {
                        p.eval(|pos| {
                            if pos == ne.position {
                                Some(candidate)
                            } else if pos == opos {
                                Some(e)
                            } else {
                                None
                            }
                        })
                    });
                    if !all {
                        return false;
                    }
                }
                // Predicate between two negated positions: each negated
                // element is checked independently, so ignore here.
                None => continue,
            },
        }
    }
    true
}

/// The watermark at which all negation checks for `m` become decidable.
pub fn decidable_at(cp: &CompiledPattern, m: &Match) -> Timestamp {
    (0..cp.negated.len())
        .map(|k| forbidden_interval(cp, k, m).1)
        .max()
        .unwrap_or(0)
}

/// Parked matches awaiting negation upper bounds.
#[derive(Debug, Default)]
pub struct DeferredStore {
    parked: Vec<Deferred>,
}

#[derive(Debug)]
struct Deferred {
    m: Match,
    decidable_at: Timestamp,
    dead: bool,
}

impl DeferredStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a freshly completed positive match.
    ///
    /// Scans already-buffered events of the negated types; if a violator
    /// exists the match is dropped. If every forbidden interval is already
    /// closed (watermark past its upper bound) the match is returned for
    /// immediate emission, otherwise it is parked.
    pub fn admit(
        &mut self,
        cp: &CompiledPattern,
        m: Match,
        watermark: Timestamp,
        buffers: &TypeBuffers,
    ) -> Option<Match> {
        for k in 0..cp.negated.len() {
            let ty = cp.negated[k].event_type;
            for e in buffers.iter_type(ty) {
                if violates(cp, k, &m, e) {
                    return None;
                }
            }
        }
        let at = decidable_at(cp, &m);
        if at <= watermark {
            Some(m)
        } else {
            self.parked.push(Deferred {
                m,
                decidable_at: at,
                dead: false,
            });
            None
        }
    }

    /// Tests an arriving event against parked matches, killing violated ones.
    pub fn on_event(&mut self, cp: &CompiledPattern, e: &EventRef) {
        if cp.negated.iter().all(|ne| ne.event_type != e.type_id) {
            return;
        }
        for d in &mut self.parked {
            if d.dead {
                continue;
            }
            for k in 0..cp.negated.len() {
                if violates(cp, k, &d.m, e) {
                    d.dead = true;
                    break;
                }
            }
        }
    }

    /// Releases matches whose forbidden intervals have closed; sets their
    /// emission watermark.
    pub fn drain_ready(&mut self, watermark: Timestamp, out: &mut Vec<Match>) {
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].dead {
                self.parked.swap_remove(i);
            } else if self.parked[i].decidable_at <= watermark {
                let mut d = self.parked.swap_remove(i);
                d.m.emitted_at = watermark;
                out.push(d.m);
            } else {
                i += 1;
            }
        }
    }

    /// Number of parked matches (alive), for the memory metric.
    pub fn len(&self) -> usize {
        self.parked.iter().filter(|d| !d.dead).count()
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TypeId;
    use crate::matches::Binding;
    use crate::pattern::PatternBuilder;
    use crate::predicate::{CmpOp, Predicate};
    use crate::value::Value;
    use std::sync::Arc;

    fn ev(tid: u32, ts: u64, seq: u64, x: i64) -> EventRef {
        let mut e = Event::new(TypeId(tid), ts, vec![Value::Int(x)]);
        e.seq = seq;
        Arc::new(e)
    }

    fn mk(bindings: Vec<(usize, Binding)>) -> Match {
        let last_ts = bindings
            .iter()
            .flat_map(|(_, b)| b.events().map(|e| e.ts).collect::<Vec<_>>())
            .max()
            .unwrap();
        Match {
            bindings,
            last_ts,
            emitted_at: last_ts,
        }
    }

    /// SEQ(A, NOT(B), C) WITHIN 100, with a.x == b.x required for violation.
    fn cp_internal_not() -> (CompiledPattern, usize, usize) {
        let mut b = PatternBuilder::new(100);
        let a = b.event(TypeId(0), "a");
        let nb = b.event(TypeId(1), "b");
        let c = b.event(TypeId(2), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, nb.pos(), 0));
        let ae = b.expr(a);
        let ne = b.not(nb);
        let ce = b.expr(c);
        let p = b.seq_exprs([ae, ne, ce]).unwrap();
        (
            CompiledPattern::compile_single(&p).unwrap(),
            a.pos(),
            c.pos(),
        )
    }

    #[test]
    fn internal_interval_is_between_neighbours() {
        let (cp, _, _) = cp_internal_not();
        let m = mk(vec![
            (0, Binding::One(ev(0, 10, 0, 7))),
            (2, Binding::One(ev(2, 50, 2, 0))),
        ]);
        assert_eq!(forbidden_interval(&cp, 0, &m), (10, 50));
        assert_eq!(decidable_at(&cp, &m), 50);
    }

    #[test]
    fn violation_requires_predicates() {
        let (cp, _, _) = cp_internal_not();
        let m = mk(vec![
            (0, Binding::One(ev(0, 10, 0, 7))),
            (2, Binding::One(ev(2, 50, 2, 0))),
        ]);
        // Right type + interval + matching attribute => violation.
        assert!(violates(&cp, 0, &m, &ev(1, 30, 1, 7)));
        // Wrong attribute value => no violation.
        assert!(!violates(&cp, 0, &m, &ev(1, 30, 1, 8)));
        // Outside the interval => no violation.
        assert!(!violates(&cp, 0, &m, &ev(1, 50, 3, 7)));
        assert!(!violates(&cp, 0, &m, &ev(1, 10, 4, 7)));
        // Wrong type => no violation.
        assert!(!violates(&cp, 0, &m, &ev(2, 30, 5, 7)));
    }

    #[test]
    fn admit_drops_on_buffered_violator() {
        let (cp, _, _) = cp_internal_not();
        let mut buffers = TypeBuffers::new();
        buffers.push(ev(1, 30, 1, 7));
        let mut store = DeferredStore::new();
        let m = mk(vec![
            (0, Binding::One(ev(0, 10, 0, 7))),
            (2, Binding::One(ev(2, 50, 2, 0))),
        ]);
        assert_eq!(store.admit(&cp, m, 50, &buffers), None);
        assert!(store.is_empty());
    }

    #[test]
    fn admit_emits_when_decidable() {
        let (cp, _, _) = cp_internal_not();
        let buffers = TypeBuffers::new();
        let mut store = DeferredStore::new();
        let m = mk(vec![
            (0, Binding::One(ev(0, 10, 0, 7))),
            (2, Binding::One(ev(2, 50, 2, 0))),
        ]);
        assert!(store.admit(&cp, m, 50, &buffers).is_some());
    }

    /// SEQ(A, NOT(B)) WITHIN 100: trailing negation defers.
    fn cp_trailing_not() -> CompiledPattern {
        let mut b = PatternBuilder::new(100);
        let a = b.event(TypeId(0), "a");
        let nb = b.event(TypeId(1), "b");
        let ae = b.expr(a);
        let ne = b.not(nb);
        let p = b.seq_exprs([ae, ne]).unwrap();
        CompiledPattern::compile_single(&p).unwrap()
    }

    #[test]
    fn trailing_negation_defers_and_releases() {
        let cp = cp_trailing_not();
        let buffers = TypeBuffers::new();
        let mut store = DeferredStore::new();
        let m = mk(vec![(0, Binding::One(ev(0, 10, 0, 0)))]);
        // Interval is (10, 110): undecidable at watermark 10.
        assert_eq!(store.admit(&cp, m, 10, &buffers), None);
        assert_eq!(store.len(), 1);
        let mut out = Vec::new();
        store.drain_ready(109, &mut out);
        assert!(out.is_empty());
        store.drain_ready(110, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].emitted_at, 110);
        assert!(store.is_empty());
    }

    #[test]
    fn trailing_interval_saturates_at_timestamp_top() {
        let cp = cp_trailing_not();
        let top = u64::MAX;
        let m = mk(vec![(0, Binding::One(ev(0, top - 5, 0, 0)))]);
        assert_eq!(forbidden_interval(&cp, 0, &m), (top - 5, top));
        assert!(violates(&cp, 0, &m, &ev(1, top - 3, 1, 0)));
    }

    #[test]
    fn parked_match_killed_by_late_violator() {
        let cp = cp_trailing_not();
        let buffers = TypeBuffers::new();
        let mut store = DeferredStore::new();
        let m = mk(vec![(0, Binding::One(ev(0, 10, 0, 0)))]);
        store.admit(&cp, m, 10, &buffers);
        store.on_event(&cp, &ev(1, 60, 1, 0));
        let mut out = Vec::new();
        store.drain_ready(200, &mut out);
        assert!(out.is_empty());
        assert!(store.is_empty());
    }

    #[test]
    fn conjunction_negation_is_windowed() {
        // AND(A, NOT(B), C) WITHIN 100: interval (max_ts-100, min_ts+100).
        let mut b = PatternBuilder::new(100);
        let a = b.event(TypeId(0), "a");
        let nb = b.event(TypeId(1), "b");
        let c = b.event(TypeId(2), "c");
        let ae = b.expr(a);
        let ne = b.not(nb);
        let ce = b.expr(c);
        let p = b.and_exprs([ae, ne, ce]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let m = mk(vec![
            (0, Binding::One(ev(0, 150, 0, 0))),
            (2, Binding::One(ev(2, 180, 2, 0))),
        ]);
        assert_eq!(forbidden_interval(&cp, 0, &m), (80, 250));
        // A B before the span still violates (shared window).
        assert!(violates(&cp, 0, &m, &ev(1, 100, 1, 0)));
        assert!(violates(&cp, 0, &m, &ev(1, 200, 3, 0)));
        assert!(!violates(&cp, 0, &m, &ev(1, 80, 4, 0)));
    }
}
