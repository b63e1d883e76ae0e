//! Matches and partial-match bindings shared by all engines.

use crate::compile::CompiledPattern;
use crate::event::{EventRef, Timestamp};
use crate::selection::SelectionStrategy;
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;

/// The event(s) bound at one pattern position.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// A single event (ordinary element).
    One(EventRef),
    /// A non-empty event set (Kleene element), in serial-number order.
    Many(Vec<EventRef>),
}

impl Binding {
    /// Iterates over the bound events.
    pub fn events(&self) -> impl Iterator<Item = &EventRef> {
        match self {
            Binding::One(e) => std::slice::from_ref(e).iter(),
            Binding::Many(es) => es.iter(),
        }
    }

    /// Number of bound events.
    pub fn len(&self) -> usize {
        match self {
            Binding::One(_) => 1,
            Binding::Many(es) => es.len(),
        }
    }

    /// Whether no events are bound (only possible for an empty `Many`,
    /// which engines never emit).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum timestamp among bound events.
    pub fn min_ts(&self) -> Timestamp {
        self.events()
            .map(|e| e.ts)
            .min()
            .expect("non-empty binding")
    }

    /// Maximum timestamp among bound events.
    pub fn max_ts(&self) -> Timestamp {
        self.events()
            .map(|e| e.ts)
            .max()
            .expect("non-empty binding")
    }
}

/// A detected full match.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// `(pattern position, binding)` per positive element, in the compiled
    /// pattern's element order.
    pub bindings: Vec<(usize, Binding)>,
    /// Timestamp of the temporally last contributing event.
    pub last_ts: Timestamp,
    /// Watermark at emission time (differs from `last_ts` when emission was
    /// deferred for a trailing negation).
    pub emitted_at: Timestamp,
}

impl Match {
    /// Minimum timestamp over all bound events.
    pub fn min_ts(&self) -> Timestamp {
        self.bindings
            .iter()
            .map(|(_, b)| b.min_ts())
            .min()
            .expect("matches are non-empty")
    }

    /// Maximum timestamp over all bound events.
    pub fn max_ts(&self) -> Timestamp {
        self.bindings
            .iter()
            .map(|(_, b)| b.max_ts())
            .max()
            .expect("matches are non-empty")
    }

    /// All bound events, across positions.
    pub fn events(&self) -> impl Iterator<Item = &EventRef> {
        self.bindings.iter().flat_map(|(_, b)| b.events())
    }

    /// Canonical identity of the match: sorted `(position, sorted event
    /// serial numbers)`. Two matches with equal signatures bind the same
    /// events to the same positions. Used for result comparison in tests
    /// and duplicate suppression across DNF branches.
    pub fn signature(&self) -> Vec<(usize, Vec<u64>)> {
        let mut sig: Vec<(usize, Vec<u64>)> = self
            .bindings
            .iter()
            .map(|(pos, b)| {
                let mut seqs: Vec<u64> = b.events().map(|e| e.seq).collect();
                seqs.sort_unstable();
                (*pos, seqs)
            })
            .collect();
        sig.sort();
        sig
    }

    /// The canonical order of matches: exactly `(emitted_at, last_ts,
    /// signature())`, compared without allocating. This is the order the
    /// sharded merge produces and every equivalence test compares in.
    pub fn canonical_cmp(&self, other: &Match) -> Ordering {
        (self.emitted_at, self.last_ts)
            .cmp(&(other.emitted_at, other.last_ts))
            .then_with(|| self.signature_cmp(other))
    }

    /// `self.signature().cmp(&other.signature())`, walked in place when
    /// both matches already list their bindings in signature order (what
    /// every engine emits); otherwise the signatures are built.
    pub fn signature_cmp(&self, other: &Match) -> Ordering {
        if !(self.in_signature_order() && other.in_signature_order()) {
            return self.signature().cmp(&other.signature());
        }
        for ((pa, ba), (pb, bb)) in self.bindings.iter().zip(&other.bindings) {
            let ord = pa
                .cmp(pb)
                .then_with(|| ba.events().map(|e| e.seq).cmp(bb.events().map(|e| e.seq)));
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.bindings.len().cmp(&other.bindings.len())
    }

    /// Feeds the signature's serial numbers, in signature order, to
    /// `state`: matches with equal signatures hash equally. The hash
    /// counterpart of [`signature_cmp`](Match::signature_cmp), in place
    /// under the same condition.
    pub fn hash_signature<H: Hasher>(&self, state: &mut H) {
        if self.in_signature_order() {
            self.events().for_each(|e| state.write_u64(e.seq));
        } else {
            let sig = self.signature();
            sig.iter()
                .flat_map(|(_, seqs)| seqs)
                .for_each(|&s| state.write_u64(s));
        }
    }

    /// Whether the bindings already are the signature: positions strictly
    /// ascending and every Kleene set in serial-number order.
    fn in_signature_order(&self) -> bool {
        self.bindings.windows(2).all(|w| w[0].0 < w[1].0)
            && self
                .bindings
                .iter()
                .all(|(_, b)| b.events().is_sorted_by_key(|e| e.seq))
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (pos, b)) in self.bindings.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "e{pos}=[")?;
            for (j, e) in b.events().enumerate() {
                if j > 0 {
                    f.write_str(" ")?;
                }
                write!(f, "#{}", e.seq)?;
            }
            f.write_str("]")?;
        }
        f.write_str("}")
    }
}

/// Validates that a match satisfies the positive constraints of a compiled
/// pattern: distinct events, window, temporal order, predicates, and the
/// selection strategy's contiguity requirements.
///
/// Negation cannot be validated from the match alone (it asserts the
/// *absence* of stream events); use the naive oracle for that.
pub fn validate_match(cp: &CompiledPattern, m: &Match) -> Result<(), String> {
    if m.bindings.len() != cp.n() {
        return Err(format!(
            "expected {} bindings, got {}",
            cp.n(),
            m.bindings.len()
        ));
    }
    // Positions must correspond to elements; Kleene-ness must agree.
    for (i, (pos, b)) in m.bindings.iter().enumerate() {
        let Some(ei) = cp.elem_index(*pos) else {
            return Err(format!("binding references unknown position {pos}"));
        };
        if ei != i {
            return Err(format!("bindings out of element order at {i}"));
        }
        let elem = &cp.elements[ei];
        match b {
            Binding::One(e) => {
                if elem.kleene {
                    return Err(format!("element {ei} is Kleene but bound once"));
                }
                if e.type_id != elem.event_type {
                    return Err(format!("element {ei} bound to wrong type"));
                }
            }
            Binding::Many(es) => {
                if !elem.kleene {
                    return Err(format!("element {ei} is not Kleene but bound to a set"));
                }
                if es.is_empty() {
                    return Err(format!("element {ei} bound to an empty set"));
                }
                if es.iter().any(|e| e.type_id != elem.event_type) {
                    return Err(format!("element {ei} set contains wrong type"));
                }
            }
        }
    }
    // Distinctness.
    let mut seqs: Vec<u64> = m.events().map(|e| e.seq).collect();
    seqs.sort_unstable();
    if seqs.windows(2).any(|w| w[0] == w[1]) {
        return Err("an event is bound to two positions".into());
    }
    // Window.
    if m.max_ts() - m.min_ts() > cp.window {
        return Err(format!(
            "window violated: span {} > {}",
            m.max_ts() - m.min_ts(),
            cp.window
        ));
    }
    // Temporal order: every event of element i strictly before every event
    // of element j whenever i must precede j.
    for i in 0..cp.n() {
        for j in 0..cp.n() {
            if i != j && cp.must_precede(i, j) {
                let bi = &m.bindings[i].1;
                let bj = &m.bindings[j].1;
                if bi.max_ts() >= bj.min_ts() {
                    return Err(format!("temporal order violated between {i} and {j}"));
                }
            }
        }
    }
    // Predicates (Kleene positions: every member event must satisfy).
    for p in &cp.predicates {
        let (a, b) = p.position_pair();
        if a == usize::MAX {
            continue;
        }
        let Some(ea) = cp.elem_index(a) else {
            continue; // involves a negated position: not checkable here
        };
        match b {
            None => {
                for e in m.bindings[ea].1.events() {
                    if !p.eval_single(a, e) {
                        return Err(format!("filter {p} violated"));
                    }
                }
            }
            Some(bpos) => {
                let Some(eb) = cp.elem_index(bpos) else {
                    continue;
                };
                for x in m.bindings[ea].1.events() {
                    for y in m.bindings[eb].1.events() {
                        if !p.eval_pair(a, x, bpos, y) {
                            return Err(format!("predicate {p} violated"));
                        }
                    }
                }
            }
        }
    }
    // Contiguity.
    if cp.strategy.contiguous() {
        let mut evs: Vec<&EventRef> = m.events().collect();
        evs.sort_by_key(|e| e.seq);
        for w in evs.windows(2) {
            if !cp.strategy.neighbours_ok(w[0], w[1]) {
                return Err(format!(
                    "{} violated between #{} and #{}",
                    cp.strategy, w[0].seq, w[1].seq
                ));
            }
        }
        if cp.strategy == SelectionStrategy::PartitionContiguity {
            let p0 = evs[0].partition;
            if evs.iter().any(|e| e.partition != p0) {
                return Err("partition contiguity across partitions".into());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TypeId};
    use crate::pattern::PatternBuilder;
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

    #[test]
    fn valid_match_passes() {
        let cp = cp_seq2();
        let m = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 1))),
            (1, Binding::One(ev(1, 2, 1, 5))),
        ]);
        assert_eq!(validate_match(&cp, &m), Ok(()));
    }

    #[test]
    fn window_violation_detected() {
        let cp = cp_seq2();
        let m = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 1))),
            (1, Binding::One(ev(1, 50, 1, 5))),
        ]);
        assert!(validate_match(&cp, &m).unwrap_err().contains("window"));
    }

    #[test]
    fn order_violation_detected() {
        let cp = cp_seq2();
        let m = mk(vec![
            (0, Binding::One(ev(0, 5, 1, 1))),
            (1, Binding::One(ev(1, 2, 0, 5))),
        ]);
        assert!(validate_match(&cp, &m).unwrap_err().contains("order"));
    }

    #[test]
    fn predicate_violation_detected() {
        let cp = cp_seq2();
        let m = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 9))),
            (1, Binding::One(ev(1, 2, 1, 5))),
        ]);
        assert!(validate_match(&cp, &m).unwrap_err().contains("predicate"));
    }

    #[test]
    fn duplicate_event_detected() {
        let cp = cp_seq2();
        let e = ev(0, 1, 0, 1);
        let mut e2 = (*e).clone();
        e2.type_id = TypeId(1);
        e2.ts = 2;
        // Same seq bound twice.
        let m = mk(vec![(0, Binding::One(e)), (1, Binding::One(Arc::new(e2)))]);
        assert!(validate_match(&cp, &m)
            .unwrap_err()
            .contains("two positions"));
    }

    #[test]
    fn signature_is_canonical() {
        let m1 = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 1))),
            (1, Binding::One(ev(1, 2, 1, 5))),
        ]);
        let m2 = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 7))),
            (1, Binding::One(ev(1, 2, 1, 9))),
        ]);
        assert_eq!(m1.signature(), m2.signature()); // same (pos, seq) shape
        assert_eq!(m1.signature(), vec![(0, vec![0]), (1, vec![1])]);
    }

    #[test]
    fn binding_extremes() {
        let b = Binding::Many(vec![ev(0, 3, 0, 0), ev(0, 7, 1, 0)]);
        assert_eq!(b.min_ts(), 3);
        assert_eq!(b.max_ts(), 7);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn display_compact() {
        let m = mk(vec![(0, Binding::One(ev(0, 1, 4, 1)))]);
        assert_eq!(m.to_string(), "{e0=[#4]}");
    }

    /// A `(position, seqs, kleene)` binding draw.
    type BindingDraw = (usize, Vec<u64>, bool);

    /// Builds a match from a draw: a one-seq non-Kleene binding is
    /// `One`, anything else `Many`; `sorted` puts positions strictly
    /// ascending and every Kleene set in serial-number order, as engines
    /// emit them. Also returns the match with its last binding cut by one
    /// event (when it has more), so one seq list is a prefix of the other.
    fn drawn(
        (emitted_at, last_ts, bindings, sorted): (u64, u64, Vec<BindingDraw>, bool),
    ) -> [Match; 2] {
        let mut bindings = bindings;
        if sorted {
            bindings.sort_by_key(|b| b.0);
            bindings.dedup_by_key(|b| b.0);
            bindings.iter_mut().for_each(|b| b.1.sort_unstable());
        }
        let build = |draws: &[BindingDraw]| Match {
            bindings: draws
                .iter()
                .map(|(pos, seqs, kleene)| {
                    let mut events: Vec<EventRef> = seqs.iter().map(|&s| ev(0, s, s, 0)).collect();
                    let b = if events.len() == 1 && !kleene {
                        Binding::One(events.pop().expect("one seq"))
                    } else {
                        Binding::Many(events)
                    };
                    (*pos, b)
                })
                .collect(),
            last_ts,
            emitted_at,
        };
        let whole = build(&bindings);
        if let Some(last) = bindings.last_mut().filter(|b| b.1.len() > 1) {
            last.1.pop();
        }
        [whole, build(&bindings)]
    }

    fn signature_hash(m: &Match) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        m.hash_signature(&mut h);
        h.finish()
    }

    proptest! {
        /// `canonical_cmp` is exactly the order of `(emitted_at, last_ts,
        /// signature())`, and `hash_signature` agrees with signature
        /// equality, on random matches with Kleene sets, out-of-order
        /// positions, tied keys, prefix seq lists and identical copies.
        #[test]
        fn canonical_cmp_is_the_signature_key_order(
            draws in prop::collection::vec(
                (
                    0u64..3,
                    0u64..3,
                    prop::collection::vec(
                        (0usize..4, prop::collection::vec(0u64..5, 1..4), any::<bool>()),
                        1..4,
                    ),
                    any::<bool>(),
                ),
                1..8,
            ),
        ) {
            let mut ms: Vec<Match> = draws.into_iter().flat_map(drawn).collect();
            ms.push(ms[0].clone());
            let key = |m: &Match| (m.emitted_at, m.last_ts, m.signature());
            for a in &ms {
                for b in &ms {
                    prop_assert_eq!(a.canonical_cmp(b), key(a).cmp(&key(b)), "{} vs {}", a, b);
                    prop_assert_eq!(a.signature_cmp(b), a.signature().cmp(&b.signature()));
                    if a.signature() == b.signature() {
                        prop_assert_eq!(signature_hash(a), signature_hash(b));
                    }
                }
            }
        }
    }
}
