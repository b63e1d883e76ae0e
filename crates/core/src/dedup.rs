//! Duplicate suppression across the DNF branches of one query — the
//! union-with-duplicate-elimination of Section 5.4, shared by
//! [`MultiEngine`](crate::engine::MultiEngine) and the
//! [`QueryRegistry`](crate::registry::QueryRegistry)'s per-query fan-out.

use crate::compile::CompiledPattern;
use crate::event::Timestamp;
use crate::matches::Match;
use std::collections::HashMap;

/// Remembers the signatures of matches already emitted by a query's
/// branches: the first branch (in branch order) to report a signature
/// wins, later copies are dropped. Signatures are forgotten once their
/// newest event is a window behind the stream, checked every
/// [`PRUNE_EVERY`](BranchDedup::PRUNE_EVERY) events.
#[derive(Debug)]
pub(crate) struct BranchDedup {
    window: u64,
    seen: HashMap<Vec<(usize, Vec<u64>)>, Timestamp>,
}

impl BranchDedup {
    /// Event cadence of signature pruning.
    const PRUNE_EVERY: u64 = 256;

    /// An empty memory for a query with window `window`.
    pub(crate) fn new(window: u64) -> BranchDedup {
        BranchDedup {
            window,
            seen: HashMap::new(),
        }
    }

    /// Whether `m` is the first match with its signature (and remembers
    /// it).
    pub(crate) fn admit(&mut self, m: &Match) -> bool {
        self.seen.insert(m.signature(), m.max_ts()).is_none()
    }

    /// Closes the `nth` event (counted from 1 since this memory started)
    /// at timestamp `ts`: every [`PRUNE_EVERY`](BranchDedup::PRUNE_EVERY)th
    /// event forgets signatures that can no longer recur.
    pub(crate) fn end_event(&mut self, nth: u64, ts: Timestamp) {
        if nth.is_multiple_of(Self::PRUNE_EVERY) {
            let horizon = ts.saturating_sub(self.window);
            self.seen.retain(|_, &mut last| last >= horizon);
        }
    }
}

/// Whether two of `branches` can ever emit matches with equal signatures
/// — the static rule deciding if a query needs a [`BranchDedup`] at all.
///
/// A branch's matches bind exactly its positive positions, and a
/// signature lists the positions it binds, so branches over different
/// position sets never collide. Only two branches over the *same* set
/// (e.g. `SEQ(a, OR(NOT x, NOT y), b)`, two branches over `{a, b}`, or
/// a branch repeated verbatim) can report the same match twice.
pub(crate) fn branches_can_collide(branches: &[CompiledPattern]) -> bool {
    let mut sets: Vec<Vec<usize>> = branches
        .iter()
        .map(|cp| {
            let mut positions: Vec<usize> = cp.elements.iter().map(|e| e.position).collect();
            positions.sort_unstable();
            positions
        })
        .collect();
    sets.sort_unstable();
    sets.windows(2).any(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventRef, TypeId};
    use crate::matches::Binding;
    use crate::pattern::{PatternBuilder, PatternExpr};
    use std::sync::Arc;

    fn ev(ts: u64, seq: u64) -> EventRef {
        let mut e = Event::new(TypeId(0), ts, vec![]);
        e.seq = seq;
        Arc::new(e)
    }

    fn m(pos: usize, ts: u64, seq: u64) -> Match {
        Match {
            bindings: vec![(pos, Binding::One(ev(ts, seq)))],
            last_ts: ts,
            emitted_at: ts,
        }
    }

    #[test]
    fn first_sighting_wins_until_pruned() {
        let mut d = BranchDedup::new(10);
        assert!(d.admit(&m(0, 5, 1)));
        assert!(!d.admit(&m(0, 5, 1)), "same signature again");
        assert!(d.admit(&m(1, 5, 1)), "other position, other signature");
        // Not a prune point: nothing forgotten however late the stream is.
        d.end_event(255, 1_000);
        assert!(!d.admit(&m(0, 5, 1)));
        // A prune point still inside the window of ts 5.
        d.end_event(256, 15);
        assert!(!d.admit(&m(0, 5, 1)));
        // A prune point past it: forgotten, so admitted again.
        d.end_event(512, 16);
        assert!(d.admit(&m(0, 5, 1)));
    }

    #[test]
    fn collisions_need_equal_position_sets() {
        let compile = |p| CompiledPattern::compile(&p).unwrap();
        // OR(SEQ(a, b), SEQ(c, d)): {0, 1} vs {2, 3}.
        let mut b = PatternBuilder::new(10);
        let [a, x, c, y] = ["a", "b", "c", "d"].map(|n| b.event(TypeId(0), n));
        let exprs = vec![
            PatternExpr::Seq(vec![b.expr(a), b.expr(x)]),
            PatternExpr::Seq(vec![b.expr(c), b.expr(y)]),
        ];
        assert!(!branches_can_collide(&compile(b.or_exprs(exprs).unwrap())));
        // SEQ(a, OR(NOT x, NOT y), b): two branches over {a, b}.
        let mut b = PatternBuilder::new(10);
        let [a, nx, ny, c] = ["a", "x", "y", "b"].map(|n| b.event(TypeId(0), n));
        let exprs = vec![
            b.expr(a),
            PatternExpr::Or(vec![b.not(nx), b.not(ny)]),
            b.expr(c),
        ];
        let branches = compile(b.seq_exprs(exprs).unwrap());
        assert_eq!(branches.len(), 2);
        assert!(branches_can_collide(&branches));
        // One branch, or the same branch twice.
        assert!(!branches_can_collide(&branches[..1]));
        assert!(branches_can_collide(&[
            branches[0].clone(),
            branches[0].clone()
        ]));
    }
}
