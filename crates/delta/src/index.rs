//! Windowed per-type event store with equality-key posting lists.
//!
//! The [`WindowIndex`] is the only state a [`crate::DeltaEngine`] keeps per
//! window (besides parked negation matches): each arriving event is one
//! *insert delta* (append to its type's deque plus one posting-list append
//! per indexed join attribute), and each expiration is the *inverse delta*
//! (pop the same entries back off the fronts). Both are amortized O(1) per
//! event per indexed attribute, because arrival order is timestamp order —
//! the expiring event is always at the front of every list it is in.
//!
//! A pattern names at most n positive types, so the index is a short `Vec`
//! of per-type slots found by a linear scan, not a hash lookup. Each slot
//! owns one `key → events` map per indexed attribute, so an insert, an
//! expiration or a probe hashes once per attribute.

use cep_core::event::{expired_at, EventRef, Timestamp, TypeId};
use cep_core::keyed::{index_key, IndexKey};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::{Range, RangeInclusive};

/// Posting lists of one indexed attribute: join key → events, in arrival
/// order. Emptied lists are removed, so key churn cannot grow the map.
type Postings = HashMap<IndexKey, VecDeque<EventRef>>;

/// One event type's live events and its posting lists.
#[derive(Debug)]
struct TypeSlot {
    ty: TypeId,
    /// Every live event of `ty`, in arrival order.
    events: VecDeque<EventRef>,
    /// One entry per indexed attribute (deduplicated).
    postings: Vec<(usize, Postings)>,
}

/// Per-type windowed event store plus `(type, attr) → key → events`
/// posting lists over the pattern's equality-join attributes.
///
/// All deques hold events in arrival order, which the engine's stream
/// contract guarantees is non-decreasing timestamp (and strictly
/// increasing serial-number) order — so range scans are binary-searchable
/// and expiration only ever pops fronts.
#[derive(Debug, Default)]
pub struct WindowIndex {
    slots: Vec<TypeSlot>,
    total: usize,
}

impl WindowIndex {
    /// Creates an index over the given `(type, attr)` equality-join keys.
    /// Events of a type without keys get a slot on their first insert.
    pub fn new(keys: impl IntoIterator<Item = (TypeId, usize)>) -> WindowIndex {
        let mut index = WindowIndex::default();
        for (ty, attr) in keys {
            let slot = index.slot_mut(ty);
            if slot.postings.iter().all(|(a, _)| *a != attr) {
                slot.postings.push((attr, Postings::new()));
            }
        }
        index
    }

    fn slot(&self, ty: TypeId) -> Option<&TypeSlot> {
        self.slots.iter().find(|s| s.ty == ty)
    }

    fn slot_mut(&mut self, ty: TypeId) -> &mut TypeSlot {
        let at = match self.slots.iter().position(|s| s.ty == ty) {
            Some(at) => at,
            None => {
                self.slots.push(TypeSlot {
                    ty,
                    events: VecDeque::new(),
                    postings: Vec::new(),
                });
                self.slots.len() - 1
            }
        };
        &mut self.slots[at]
    }

    /// Inserts `event` (the positive delta). Returns the number of list
    /// appends performed (1 for the store + 1 per indexed attribute with a
    /// hashable value).
    pub fn insert(&mut self, event: EventRef) -> u64 {
        let slot = self.slot_mut(event.type_id);
        let mut ops = 1;
        for (attr, lists) in &mut slot.postings {
            if let Some(key) = event.attr(*attr).and_then(index_key) {
                lists.entry(key).or_default().push_back(event.clone());
                ops += 1;
            }
        }
        slot.events.push_back(event);
        self.total += 1;
        ops
    }

    /// Expires every event the window rule [`expired_at`] drops (the
    /// inverse delta — events with `ts + window == watermark` survive).
    /// Returns the number of list removals performed.
    pub fn expire(&mut self, watermark: Timestamp, window: u64) -> u64 {
        let mut ops = 0;
        for slot in &mut self.slots {
            while let Some(front) = slot.events.front() {
                if !expired_at(front.ts, window, watermark) {
                    break;
                }
                let ev = slot.events.pop_front().expect("checked front");
                self.total -= 1;
                ops += 1;
                for (attr, lists) in &mut slot.postings {
                    let Some(key) = ev.attr(*attr).and_then(index_key) else {
                        continue;
                    };
                    let Entry::Occupied(mut list) = lists.entry(key) else {
                        unreachable!("every keyable event was inserted under its key");
                    };
                    let popped = list.get_mut().pop_front().expect("non-empty posting");
                    debug_assert_eq!(
                        popped.seq, ev.seq,
                        "posting lists must expire in arrival order"
                    );
                    ops += 1;
                    if list.get().is_empty() {
                        list.remove();
                    }
                }
            }
        }
        ops
    }

    /// The posting list for `(ty, attr) == key`, in arrival order.
    pub fn posting(&self, ty: TypeId, attr: usize, key: &IndexKey) -> Option<&VecDeque<EventRef>> {
        let slot = self.slot(ty)?;
        let (_, lists) = slot.postings.iter().find(|(a, _)| *a == attr)?;
        lists.get(key)
    }

    /// Length of the posting list for `(ty, attr) == key` (0 when absent).
    pub fn posting_len(&self, ty: TypeId, attr: usize, key: &IndexKey) -> usize {
        self.posting(ty, attr, key).map_or(0, VecDeque::len)
    }

    /// All live events of `ty`, in arrival order.
    pub fn of_type(&self, ty: TypeId) -> Option<&VecDeque<EventRef>> {
        self.slot(ty).map(|s| &s.events)
    }

    /// Number of live events of `ty`.
    pub fn type_len(&self, ty: TypeId) -> usize {
        self.of_type(ty).map_or(0, VecDeque::len)
    }

    /// Total live events across all types.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether no events are live.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// The index range of the events of a ts-ordered deque whose timestamps
/// fall in `range` (inclusive bounds), found by binary search.
pub fn ts_span(deque: &VecDeque<EventRef>, range: &RangeInclusive<Timestamp>) -> Range<usize> {
    let start = deque.partition_point(|e| e.ts < *range.start());
    let end = deque.partition_point(|e| e.ts <= *range.end());
    start..end.max(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::event::Event;
    use cep_core::value::Value;
    use proptest::prelude::*;

    fn ev(tid: u32, ts: u64, seq: u64, x: i64) -> EventRef {
        let mut e = Event::new(TypeId(tid), ts, vec![Value::Int(x)]);
        e.seq = seq;
        std::sync::Arc::new(e)
    }

    #[test]
    fn insert_probe_expire_roundtrip() {
        let mut idx = WindowIndex::new([(TypeId(0), 0)]);
        idx.insert(ev(0, 1, 0, 7));
        idx.insert(ev(0, 2, 1, 7));
        idx.insert(ev(0, 3, 2, 8));
        assert_eq!(idx.len(), 3);
        let key = index_key(&Value::Int(7)).unwrap();
        assert_eq!(idx.posting_len(TypeId(0), 0, &key), 2);
        // Expire ts=1 (window 5, watermark 7: 1 + 5 < 7).
        idx.expire(7, 5);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.posting_len(TypeId(0), 0, &key), 1);
        // Boundary event (ts + window == watermark) survives.
        idx.expire(7, 5);
        assert_eq!(idx.len(), 2);
        // Expire everything; empty keys are dropped.
        idx.expire(100, 5);
        assert!(idx.is_empty());
        assert_eq!(idx.posting_len(TypeId(0), 0, &key), 0);
    }

    #[test]
    fn expiry_saturates_at_timestamp_extremes() {
        let mut idx = WindowIndex::new([(TypeId(0), 0)]);
        idx.insert(ev(0, 0, 0, 7));
        idx.insert(ev(0, u64::MAX - 1, 1, 7));
        idx.insert(ev(0, u64::MAX, 2, 7));
        idx.expire(u64::MAX, 5); // only ts = 0 is out of reach
        assert_eq!(idx.len(), 2);
        idx.expire(u64::MAX, 0); // equal timestamps survive a zero window
        assert_eq!(idx.len(), 1);
        let key = index_key(&Value::Int(7)).unwrap();
        assert_eq!(idx.posting_len(TypeId(0), 0, &key), 1);
    }

    #[test]
    fn ts_range_respects_bounds_across_ring_wrap() {
        let mut d: VecDeque<EventRef> = VecDeque::with_capacity(4);
        // Force a wrapped ring: push, pop, push more.
        d.push_back(ev(0, 1, 0, 0));
        d.push_back(ev(0, 2, 1, 0));
        d.pop_front();
        d.push_back(ev(0, 3, 2, 0));
        d.push_back(ev(0, 4, 3, 0));
        let ts: Vec<u64> = d.range(ts_span(&d, &(2..=3))).map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3]);
        assert_eq!(ts_span(&d, &(5..=10)).len(), 0);
        assert_eq!(ts_span(&d, &(0..=10)), 0..3);
        let empty = RangeInclusive::new(3, 2);
        assert_eq!(ts_span(&d, &empty).len(), 0, "an empty range");
    }

    /// Adversarial attribute values: `Int`/`Float` images of one number,
    /// both zeros, content-equal strings behind distinct allocations, and
    /// `NaN` and `None` (missing), which have no key.
    fn value(code: u8) -> Option<Value> {
        match code % 8 {
            0 => Some(Value::Int(0)),
            1 => Some(Value::Float(-0.0)),
            2 => Some(Value::Float(0.0)),
            3 => Some(Value::Int(1)),
            4 => Some(Value::Float(1.0)),
            5 => Some(Value::from("k")),
            6 => Some(Value::Float(f64::NAN)),
            _ => None,
        }
    }

    /// Every key [`value`] can produce.
    fn key_pool() -> Vec<IndexKey> {
        let mut keys: Vec<IndexKey> = (0..8)
            .filter_map(value)
            .filter_map(|v| index_key(&v))
            .collect();
        keys.dedup();
        keys
    }

    fn seqs<'a>(events: impl IntoIterator<Item = &'a EventRef>) -> Vec<u64> {
        events.into_iter().map(|e| e.seq).collect()
    }

    /// Type 0 is indexed on two attributes, and `(0, 0)` is listed twice,
    /// as for one type at two pattern elements; type 1 on one attribute;
    /// type 2 is scan-only.
    const KEYS: [(u32, usize); 4] = [(0, 0), (0, 1), (1, 0), (0, 0)];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, max_shrink_iters: 0 })]

        /// The index against a flat list of live events: after every step,
        /// each type deque, each posting list (by filtering the flat list on
        /// the key) and each time slice must agree with it, emptied posting
        /// lists must be gone, and `insert`/`expire` must report the list
        /// operations they performed.
        #[test]
        fn index_agrees_with_a_flat_reference(
            steps in prop::collection::vec((0u32..4, 0u8..3, 0u8..8, 0u8..8), 1..=80),
            window in 0u64..6,
            lo in 0u64..40,
            span in 0u64..10,
        ) {
            let mut idx = WindowIndex::new(KEYS.iter().map(|&(t, a)| (TypeId(t), a)));
            let mut live: Vec<EventRef> = Vec::new();
            let mut ts = 0u64;
            for (seq, &(tid, dt, a0, a1)) in steps.iter().enumerate() {
                ts += dt as u64;
                let before = live.len();
                let removed_postings: u64 = live
                    .iter()
                    .filter(|e| expired_at(e.ts, window, ts))
                    .map(|e| indexed_attrs(e).filter(|&a| keyable(e, a)).count() as u64)
                    .sum();
                live.retain(|e| !expired_at(e.ts, window, ts));
                let expected_ops = (before - live.len()) as u64 + removed_postings;
                prop_assert_eq!(idx.expire(ts, window), expected_ops);
                // Type 3 stands for "no event this step".
                if tid < 3 {
                    let attrs = match (value(a0), value(a1)) {
                        (Some(x), Some(y)) => vec![x, y],
                        (Some(x), None) => vec![x],
                        (None, _) => vec![],
                    };
                    let mut e = Event::new(TypeId(tid), ts, attrs);
                    e.seq = seq as u64;
                    let e = std::sync::Arc::new(e);
                    let appends = 1 + indexed_attrs(&e).filter(|&a| keyable(&e, a)).count() as u64;
                    prop_assert_eq!(idx.insert(e.clone()), appends);
                    live.push(e);
                }
                prop_assert_eq!(idx.len(), live.len());
                prop_assert_eq!(idx.is_empty(), live.is_empty());
                for t in 0..3u32 {
                    let of_t: Vec<&EventRef> = live.iter().filter(|e| e.type_id.0 == t).collect();
                    let got = idx.of_type(TypeId(t)).map(seqs).unwrap_or_default();
                    prop_assert_eq!(got, seqs(of_t.iter().copied()));
                    prop_assert_eq!(idx.type_len(TypeId(t)), of_t.len());
                    let range = lo..=lo + span;
                    let sliced = idx.of_type(TypeId(t)).map(|d| seqs(d.range(ts_span(d, &range))));
                    let want = seqs(of_t.iter().copied().filter(|e| range.contains(&e.ts)));
                    prop_assert_eq!(sliced.unwrap_or_default(), want);
                    for attr in 0..2 {
                        let indexed = KEYS.contains(&(t, attr));
                        for key in key_pool() {
                            let want: Vec<u64> = if indexed {
                                seqs(of_t.iter().copied().filter(|e| {
                                    e.attr(attr).and_then(index_key).as_ref() == Some(&key)
                                }))
                            } else {
                                Vec::new()
                            };
                            let got = idx.posting(TypeId(t), attr, &key);
                            // An emptied list is removed, not left behind.
                            prop_assert_eq!(got.is_none(), want.is_empty());
                            prop_assert_eq!(got.map(seqs).unwrap_or_default(), want.clone());
                            prop_assert_eq!(idx.posting_len(TypeId(t), attr, &key), want.len());
                        }
                    }
                }
            }
        }
    }

    /// The distinct indexed attributes of `e`'s type.
    fn indexed_attrs(e: &EventRef) -> impl Iterator<Item = usize> + '_ {
        (0..2).filter(move |&a| KEYS.contains(&(e.type_id.0, a)))
    }

    fn keyable(e: &EventRef, attr: usize) -> bool {
        e.attr(attr).and_then(index_key).is_some()
    }
}
