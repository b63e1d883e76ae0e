//! Primitive events.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Identifier of an event type, assigned by [`crate::schema::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// Logical occurrence timestamp, in milliseconds.
pub type Timestamp = u64;

/// The window-expiry rule every engine and buffer shares: state whose
/// earliest event occurred at `ts` can no longer join anything arriving at
/// or after `watermark` once `ts + window < watermark`. The sum saturates,
/// so timestamps near `u64::MAX` never expire early (or panic).
/// (`#[inline]`: every engine calls this per event from another crate.)
#[inline]
pub fn expired_at(ts: Timestamp, window: u64, watermark: Timestamp) -> bool {
    ts.saturating_add(window) < watermark
}

/// The late-event rule every entry point shares: advances `watermark`,
/// the largest timestamp accepted so far, to `ts` and returns `true`, or
/// returns `false` for an event behind it. The caller drops a late event
/// before it touches any state and counts it in
/// [`late_events_dropped`](crate::metrics::EngineMetrics::late_events_dropped),
/// so the join stores stay sorted by time and every engine, wrapper and
/// runtime gives the same answer on an out-of-order stream.
#[inline]
pub fn advance_watermark(watermark: &mut Timestamp, ts: Timestamp) -> bool {
    let in_order = ts >= *watermark;
    if in_order {
        *watermark = ts;
    }
    in_order
}

/// A primitive event: one data item of the input stream.
///
/// Besides the schema-declared attribute tuple, every event carries:
///
/// * `ts` — the occurrence timestamp (streams are ordered by it),
/// * `seq` — a global serial number reflecting stream position, used by the
///   strict-contiguity selection strategy (Section 6.2 of the paper augments
///   events with exactly this attribute) and to give events a total identity,
/// * `partition` / `part_seq` — the partition id and the per-partition serial
///   number used by the partition-contiguity strategy.
///
/// Engines hold events behind [`Arc`], so partial matches share them.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event type.
    pub type_id: TypeId,
    /// Occurrence timestamp (ms).
    pub ts: Timestamp,
    /// Global serial number in the stream (0-based, strictly increasing).
    pub seq: u64,
    /// Partition identifier (for partition contiguity); 0 if unused.
    pub partition: u32,
    /// Serial number within the partition (0-based, strictly increasing).
    pub part_seq: u64,
    /// Attribute values, positionally matching the type's schema.
    pub attrs: Vec<Value>,
}

impl Event {
    /// Creates an event with unassigned stream coordinates (`seq`,
    /// `partition`, `part_seq` all zero). Use
    /// [`StreamBuilder`](crate::stream::StreamBuilder) to assign them.
    pub fn new(type_id: TypeId, ts: Timestamp, attrs: Vec<Value>) -> Self {
        Event {
            type_id,
            ts,
            seq: 0,
            partition: 0,
            part_seq: 0,
            attrs,
        }
    }

    /// Attribute by index, if present.
    pub fn attr(&self, idx: usize) -> Option<&Value> {
        self.attrs.get(idx)
    }

    /// Rough in-memory footprint of the event, used for the memory metric.
    pub fn estimated_size_bytes(&self) -> usize {
        std::mem::size_of::<Event>() + self.attrs.len() * std::mem::size_of::<Value>()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}@{}#{}(", self.type_id.0, self.ts, self.seq)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

/// Shared handle to an event, as stored in buffers and partial matches.
pub type EventRef = Arc<Event>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_access() {
        let e = Event::new(TypeId(1), 10, vec![Value::Int(5), Value::Float(1.5)]);
        assert_eq!(e.attr(0), Some(&Value::Int(5)));
        assert_eq!(e.attr(2), None);
    }

    #[test]
    fn display_is_compact() {
        let e = Event::new(TypeId(3), 42, vec![Value::Int(1)]);
        assert_eq!(e.to_string(), "T3@42#0(1)");
    }

    #[test]
    fn expiry_boundaries() {
        // ts + window == watermark is still usable; one past is not.
        assert!(!expired_at(5, 5, 10));
        assert!(expired_at(5, 5, 11));
        // ts = 0 and window = 0.
        assert!(!expired_at(0, 0, 0));
        assert!(expired_at(0, 0, 1));
        assert!(!expired_at(0, 10, 10));
        // All-equal timestamps never expire each other, whatever the window.
        for w in [0, 1, u64::MAX] {
            assert!(!expired_at(7, w, 7));
            assert!(!expired_at(u64::MAX, w, u64::MAX));
        }
        // The sum saturates instead of wrapping (or panicking in debug).
        assert!(!expired_at(u64::MAX, 1, u64::MAX));
        assert!(!expired_at(u64::MAX - 1, 5, u64::MAX));
        assert!(!expired_at(1, u64::MAX, u64::MAX));
        assert!(expired_at(0, u64::MAX - 1, u64::MAX));
    }

    #[test]
    fn size_estimate_scales_with_attrs() {
        let small = Event::new(TypeId(0), 0, vec![]);
        let big = Event::new(TypeId(0), 0, vec![Value::Int(0); 8]);
        assert!(big.estimated_size_bytes() > small.estimated_size_bytes());
    }
}
