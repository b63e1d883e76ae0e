//! Windowed per-type event store with equality-key posting lists.
//!
//! The [`WindowIndex`] is the only state a [`crate::DeltaEngine`] keeps per
//! window (besides parked negation matches): each arriving event is one
//! *insert delta* (append to its type's deque plus one posting-list append
//! per indexed join attribute), and each expiration is the *inverse delta*
//! (pop the same entries back off the fronts). Both are amortized O(1) per
//! event per indexed attribute, because arrival order is timestamp order —
//! the expiring event is always at the front of every list it is in.

use cep_core::event::{expired_at, EventRef, Timestamp, TypeId};
use cep_core::instance::sorted_span;
use cep_core::keyed::{index_key, IndexKey};
use std::collections::{HashMap, VecDeque};
use std::ops::RangeInclusive;

/// Per-type windowed event store plus `(type, attr) → key → events`
/// posting lists over the pattern's equality-join attributes.
///
/// All deques hold events in arrival order, which the engine's stream
/// contract guarantees is non-decreasing timestamp (and strictly
/// increasing serial-number) order — so range scans are binary-searchable
/// and expiration only ever pops fronts.
#[derive(Debug, Default)]
pub struct WindowIndex {
    store: HashMap<TypeId, VecDeque<EventRef>>,
    postings: HashMap<(TypeId, usize), HashMap<IndexKey, VecDeque<EventRef>>>,
    /// Which attributes are indexed per type (deduplicated).
    indexed: HashMap<TypeId, Vec<usize>>,
    total: usize,
}

impl WindowIndex {
    /// Creates an index over the given `(type, attr)` equality-join keys.
    pub fn new(keys: impl IntoIterator<Item = (TypeId, usize)>) -> WindowIndex {
        let mut indexed: HashMap<TypeId, Vec<usize>> = HashMap::new();
        for (ty, attr) in keys {
            let attrs = indexed.entry(ty).or_default();
            if !attrs.contains(&attr) {
                attrs.push(attr);
            }
        }
        WindowIndex {
            indexed,
            ..WindowIndex::default()
        }
    }

    /// Inserts `event` (the positive delta). Returns the number of list
    /// appends performed (1 for the store + 1 per indexed attribute with a
    /// hashable value).
    pub fn insert(&mut self, event: EventRef) -> u64 {
        let ty = event.type_id;
        let mut ops = 1;
        if let Some(attrs) = self.indexed.get(&ty) {
            for &attr in attrs {
                if let Some(key) = event.attr(attr).and_then(index_key) {
                    self.postings
                        .entry((ty, attr))
                        .or_default()
                        .entry(key)
                        .or_default()
                        .push_back(event.clone());
                    ops += 1;
                }
            }
        }
        self.store.entry(ty).or_default().push_back(event);
        self.total += 1;
        ops
    }

    /// Expires every event the window rule [`expired_at`] drops (the
    /// inverse delta — events with `ts + window == watermark` survive).
    /// Returns the number of list removals performed.
    pub fn expire(&mut self, watermark: Timestamp, window: u64) -> u64 {
        let mut ops = 0;
        for (&ty, deque) in &mut self.store {
            while let Some(front) = deque.front() {
                if !expired_at(front.ts, window, watermark) {
                    break;
                }
                let ev = deque.pop_front().expect("checked front");
                self.total -= 1;
                ops += 1;
                if let Some(attrs) = self.indexed.get(&ty) {
                    for &attr in attrs {
                        if let Some(key) = ev.attr(attr).and_then(index_key) {
                            let lists = self
                                .postings
                                .get_mut(&(ty, attr))
                                .expect("indexed attr has postings");
                            let list = lists.get_mut(&key).expect("inserted under this key");
                            let popped = list.pop_front().expect("non-empty posting");
                            debug_assert_eq!(
                                popped.seq, ev.seq,
                                "posting lists must expire in arrival order"
                            );
                            ops += 1;
                            if list.is_empty() {
                                lists.remove(&key);
                            }
                        }
                    }
                }
            }
        }
        ops
    }

    /// The posting list for `(ty, attr) == key`, in arrival order.
    pub fn posting(&self, ty: TypeId, attr: usize, key: &IndexKey) -> Option<&VecDeque<EventRef>> {
        self.postings.get(&(ty, attr)).and_then(|m| m.get(key))
    }

    /// Length of the posting list for `(ty, attr) == key` (0 when absent).
    pub fn posting_len(&self, ty: TypeId, attr: usize, key: &IndexKey) -> usize {
        self.posting(ty, attr, key).map_or(0, |d| d.len())
    }

    /// All live events of `ty`, in arrival order.
    pub fn of_type(&self, ty: TypeId) -> Option<&VecDeque<EventRef>> {
        self.store.get(&ty)
    }

    /// Number of live events of `ty`.
    pub fn type_len(&self, ty: TypeId) -> usize {
        self.store.get(&ty).map_or(0, |d| d.len())
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

/// Iterates the events of a ts-ordered deque whose timestamps fall in
/// `range`, locating the boundaries by binary search on both halves of
/// the deque's ring buffer.
pub fn ts_range<'a>(
    deque: &'a VecDeque<EventRef>,
    range: &RangeInclusive<Timestamp>,
) -> impl Iterator<Item = &'a EventRef> {
    let (a, b) = deque.as_slices();
    let in_range = |half: &'a [EventRef]| half[sorted_span(half, range, |e| e.ts)].iter();
    in_range(a).chain(in_range(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::event::Event;
    use cep_core::value::Value;

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
        let ts: Vec<u64> = ts_range(&d, &(2..=3)).map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3]);
        assert_eq!(ts_range(&d, &(5..=10)).count(), 0);
        assert_eq!(ts_range(&d, &(0..=10)).count(), 3);
    }
}
