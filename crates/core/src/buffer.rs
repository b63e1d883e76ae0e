//! Per-type sliding-window event buffers shared by the engines.

use crate::event::{expired_at, EventRef, Timestamp, TypeId};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Buffers events per type, retaining only those inside the time window
/// relative to the stream watermark.
///
/// The naive oracle buffers every participating event here; the engines
/// buffer the events of negated types (the anti-join scan of
/// [`DeferredStore::admit`](crate::negation::DeferredStore::admit)). The
/// tree's leaf stores are [`KeyedStore`](crate::keyed::KeyedStore)s.
#[derive(Debug, Default)]
pub struct TypeBuffers {
    buffers: HashMap<TypeId, VecDeque<EventRef>>,
    total: usize,
}

impl TypeBuffers {
    /// Creates empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event (must arrive in non-decreasing ts order).
    pub fn push(&mut self, e: EventRef) {
        self.buffers.entry(e.type_id).or_default().push_back(e);
        self.total += 1;
    }

    /// Drops events that can no longer participate in any match
    /// ([`expired_at`]).
    pub fn prune(&mut self, watermark: Timestamp, window: u64) {
        for buf in self.buffers.values_mut() {
            while buf
                .front()
                .is_some_and(|e| expired_at(e.ts, window, watermark))
            {
                buf.pop_front();
                self.total -= 1;
            }
        }
    }

    /// Iterates over buffered events of one type, oldest first.
    pub fn iter_type(&self, type_id: TypeId) -> impl Iterator<Item = &EventRef> {
        self.buffers.get(&type_id).into_iter().flatten()
    }

    /// Total number of buffered events, for the memory metric.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether all buffers are empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use std::sync::Arc;

    fn ev(tid: u32, ts: u64) -> EventRef {
        Arc::new(Event::new(TypeId(tid), ts, vec![]))
    }

    #[test]
    fn push_and_iterate_by_type() {
        let mut b = TypeBuffers::new();
        b.push(ev(0, 1));
        b.push(ev(1, 2));
        b.push(ev(0, 3));
        assert_eq!(b.iter_type(TypeId(0)).count(), 2);
        assert_eq!(b.iter_type(TypeId(1)).count(), 1);
        assert_eq!(b.iter_type(TypeId(9)).count(), 0);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn pruning_respects_window() {
        let mut b = TypeBuffers::new();
        b.push(ev(0, 1));
        b.push(ev(0, 5));
        b.push(ev(0, 10));
        b.prune(12, 5); // keep ts + 5 >= 12, i.e. ts >= 7
        let ts: Vec<u64> = b.iter_type(TypeId(0)).map(|e| e.ts).collect();
        assert_eq!(ts, vec![10]);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn pruning_saturates_at_timestamp_extremes() {
        let mut b = TypeBuffers::new();
        b.push(ev(0, 0));
        b.push(ev(0, u64::MAX - 1));
        b.push(ev(0, u64::MAX));
        b.prune(u64::MAX, 5); // only ts = 0 is out of reach
        assert_eq!(b.len(), 2);
        b.prune(u64::MAX, 0); // window 0: equal timestamps still survive
        let ts: Vec<u64> = b.iter_type(TypeId(0)).map(|e| e.ts).collect();
        assert_eq!(ts, vec![u64::MAX]);
    }

    #[test]
    fn boundary_event_is_kept() {
        let mut b = TypeBuffers::new();
        b.push(ev(0, 5));
        b.prune(10, 5); // 5 + 5 == 10: still usable
        assert_eq!(b.len(), 1);
        b.prune(11, 5);
        assert!(b.is_empty());
    }
}
