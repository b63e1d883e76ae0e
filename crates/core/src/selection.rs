//! Event selection strategies (Section 6.2 of the paper).

use crate::event::{expired_at, Timestamp};
use crate::matches::Match;
use std::collections::HashMap;
use std::fmt;

/// How events are selected from the input stream into matches.
///
/// The paper discusses four strategies (after \[5\]):
///
/// * [`SkipTillAnyMatch`](SelectionStrategy::SkipTillAnyMatch) — an event may
///   participate in arbitrarily many matches; all combinations are detected.
///   This is the default throughout the paper and the only strategy with a
///   plan-independent result set.
/// * [`SkipTillNextMatch`](SelectionStrategy::SkipTillNextMatch) — an event
///   appears in at most one full match; partial matches advance with the
///   next matching event instead of forking, and events are consumed when a
///   full match is emitted.
/// * [`StrictContiguity`](SelectionStrategy::StrictContiguity) — matched
///   events must be adjacent in the input stream (adjacent global serial
///   numbers, in temporal-order succession).
/// * [`PartitionContiguity`](SelectionStrategy::PartitionContiguity) —
///   matched events must lie in the same partition and be adjacent within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionStrategy {
    /// Every combination of matching events is detected.
    #[default]
    SkipTillAnyMatch,
    /// Each event participates in at most one full match.
    SkipTillNextMatch,
    /// Matched events must be contiguous in the stream.
    StrictContiguity,
    /// Matched events must be contiguous within their partition.
    PartitionContiguity,
}

impl SelectionStrategy {
    /// Whether events are consumed (removed from further consideration) when
    /// a full match is emitted.
    pub fn consumes(self) -> bool {
        matches!(self, SelectionStrategy::SkipTillNextMatch)
    }

    /// Whether this strategy imposes a contiguity constraint between
    /// temporally adjacent matched events.
    pub fn contiguous(self) -> bool {
        matches!(
            self,
            SelectionStrategy::StrictContiguity | SelectionStrategy::PartitionContiguity
        )
    }

    /// Checks the contiguity constraint between two events that must be
    /// temporal neighbours in a match (`a` strictly before `b`).
    ///
    /// For [`StrictContiguity`](SelectionStrategy::StrictContiguity) the
    /// events must have adjacent global serial numbers; for
    /// [`PartitionContiguity`](SelectionStrategy::PartitionContiguity) they
    /// must share a partition and have adjacent per-partition serial numbers.
    /// Other strategies impose no constraint.
    pub fn neighbours_ok(self, a: &crate::event::Event, b: &crate::event::Event) -> bool {
        match self {
            SelectionStrategy::SkipTillAnyMatch | SelectionStrategy::SkipTillNextMatch => true,
            SelectionStrategy::StrictContiguity => b.seq == a.seq + 1,
            SelectionStrategy::PartitionContiguity => {
                a.partition == b.partition && b.part_seq == a.part_seq + 1
            }
        }
    }
}

/// The events consumed by emitted matches under a consuming strategy
/// ([`SelectionStrategy::consumes`]), each remembered with its timestamp
/// until it leaves the window.
///
/// Forgetting an event is safe once it has expired: every match completed
/// from then on contains an event at or after the watermark, so it cannot
/// also contain the expired one, and a match parked for a negation check is
/// released no later than `min_ts + window`, before any of its events
/// expires.
#[derive(Debug, Clone, Default)]
pub struct ConsumedSet {
    seqs: HashMap<u64, Timestamp>,
}

impl ConsumedSet {
    /// An empty set.
    pub fn new() -> ConsumedSet {
        ConsumedSet::default()
    }

    /// Whether the event with serial number `seq` is consumed.
    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        self.seqs.contains_key(&seq)
    }

    /// Consumes the events of `m`, unless one of them is consumed already.
    /// Returns whether it did, that is whether `m` may be emitted.
    pub fn consume(&mut self, m: &Match) -> bool {
        if m.events().any(|e| self.contains(e.seq)) {
            return false;
        }
        self.seqs.extend(m.events().map(|e| (e.seq, e.ts)));
        true
    }

    /// Forgets every event that has expired at `watermark`.
    pub fn retain_window(&mut self, watermark: Timestamp, window: u64) {
        self.seqs
            .retain(|_, &mut ts| !expired_at(ts, window, watermark));
    }
}

impl fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SelectionStrategy::SkipTillAnyMatch => "skip-till-any-match",
            SelectionStrategy::SkipTillNextMatch => "skip-till-next-match",
            SelectionStrategy::StrictContiguity => "strict-contiguity",
            SelectionStrategy::PartitionContiguity => "partition-contiguity",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TypeId};

    fn ev(seq: u64, partition: u32, part_seq: u64) -> Event {
        let mut e = Event::new(TypeId(0), seq, vec![]);
        e.seq = seq;
        e.partition = partition;
        e.part_seq = part_seq;
        e
    }

    #[test]
    fn default_is_any_match() {
        assert_eq!(
            SelectionStrategy::default(),
            SelectionStrategy::SkipTillAnyMatch
        );
    }

    #[test]
    fn strict_contiguity_requires_adjacent_seq() {
        let s = SelectionStrategy::StrictContiguity;
        assert!(s.neighbours_ok(&ev(4, 0, 4), &ev(5, 0, 5)));
        assert!(!s.neighbours_ok(&ev(4, 0, 4), &ev(6, 0, 6)));
        assert!(!s.neighbours_ok(&ev(5, 0, 5), &ev(5, 0, 5)));
    }

    #[test]
    fn partition_contiguity_requires_same_partition() {
        let s = SelectionStrategy::PartitionContiguity;
        assert!(s.neighbours_ok(&ev(10, 2, 0), &ev(14, 2, 1)));
        assert!(!s.neighbours_ok(&ev(10, 2, 0), &ev(14, 3, 1)));
        assert!(!s.neighbours_ok(&ev(10, 2, 0), &ev(14, 2, 2)));
    }

    #[test]
    fn consumed_events_are_forgotten_only_once_expired() {
        use crate::matches::Binding;
        use std::sync::Arc;
        let m = |seqs: &[u64]| Match {
            bindings: seqs
                .iter()
                .map(|&s| (s as usize, Binding::One(Arc::new(ev(s, 0, s)))))
                .collect(),
            last_ts: 0,
            emitted_at: 0,
        };
        let mut consumed = ConsumedSet::new();
        assert!(consumed.consume(&m(&[2, 5])));
        assert!(!consumed.consume(&m(&[5, 7])), "shares event 5");
        assert!(!consumed.contains(7), "a refused match consumes nothing");
        assert!(consumed.consume(&m(&[7])));
        // `ev` stamps ts = seq: at watermark 12 and window 5 only ts < 7
        // has expired.
        consumed.retain_window(12, 5);
        assert!(consumed.contains(7) && !consumed.contains(5) && !consumed.contains(2));
        consumed.retain_window(u64::MAX, u64::MAX);
        assert!(consumed.contains(7), "the window saturates");
    }

    #[test]
    fn any_and_next_unconstrained() {
        assert!(SelectionStrategy::SkipTillAnyMatch.neighbours_ok(&ev(0, 0, 0), &ev(9, 5, 3)));
        assert!(SelectionStrategy::SkipTillNextMatch.neighbours_ok(&ev(0, 0, 0), &ev(9, 5, 3)));
        assert!(SelectionStrategy::SkipTillNextMatch.consumes());
        assert!(!SelectionStrategy::StrictContiguity.consumes());
        assert!(SelectionStrategy::StrictContiguity.contiguous());
        assert!(SelectionStrategy::PartitionContiguity.contiguous());
    }
}
