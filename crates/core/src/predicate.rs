//! Pairwise predicates between pattern positions.
//!
//! The paper assumes all inter-event constraints are at most pairwise
//! (Section 2.1); a [`Predicate`] therefore references at most two pattern
//! positions. Predicates are plain data (no closures) so they can be
//! inspected by the optimizer (query-graph construction, selectivity
//! bookkeeping) and evaluated identically by every engine.

use crate::event::Event;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Attribute `attr` of the event bound at pattern position `position`.
    Attr {
        /// Pattern position (unique index of a primitive event).
        position: usize,
        /// Attribute index within the event's schema.
        attr: usize,
    },
    /// Occurrence timestamp of the event bound at `position`. Used by the
    /// SEQ→AND rewriting of Section 5.1.
    Ts {
        /// Pattern position.
        position: usize,
    },
    /// A literal constant.
    Const(Value),
}

impl Operand {
    /// The pattern position this operand references, if any.
    pub fn position(&self) -> Option<usize> {
        match self {
            Operand::Attr { position, .. } | Operand::Ts { position } => Some(*position),
            Operand::Const(_) => None,
        }
    }

    /// `(position, attr)` of an attribute operand.
    pub fn as_attr(&self) -> Option<(usize, usize)> {
        match *self {
            Operand::Attr { position, attr } => Some((position, attr)),
            _ => None,
        }
    }

    fn resolve<'a>(&self, lookup: &impl Fn(usize) -> Option<&'a Event>) -> Option<Value> {
        match self {
            Operand::Attr { position, attr } => lookup(*position)?.attr(*attr).cloned(),
            Operand::Ts { position } => Some(Value::Int(lookup(*position)?.ts as i64)),
            Operand::Const(v) => Some(v.clone()),
        }
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// Applies the operator to a comparison result. Incomparable operands
    /// (`None`) fail every operator, including `!=`.
    pub fn test(self, ord: Option<Ordering>) -> bool {
        match ord {
            None => false,
            Some(o) => match self {
                CmpOp::Lt => o == Ordering::Less,
                CmpOp::Le => o != Ordering::Greater,
                CmpOp::Eq => o == Ordering::Equal,
                CmpOp::Ne => o != Ordering::Equal,
                CmpOp::Ge => o != Ordering::Less,
                CmpOp::Gt => o == Ordering::Greater,
            },
        }
    }

    /// The operator with its arguments swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Gt => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        };
        f.write_str(s)
    }
}

/// A (at most) pairwise condition `left op right`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Left operand.
    pub left: Operand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: Operand,
}

impl Predicate {
    /// Attribute-vs-attribute predicate between two positions.
    pub fn attr_cmp(
        pos_a: usize,
        attr_a: usize,
        op: CmpOp,
        pos_b: usize,
        attr_b: usize,
    ) -> Predicate {
        Predicate {
            left: Operand::Attr {
                position: pos_a,
                attr: attr_a,
            },
            op,
            right: Operand::Attr {
                position: pos_b,
                attr: attr_b,
            },
        }
    }

    /// Attribute-vs-constant filter on a single position.
    pub fn attr_const(pos: usize, attr: usize, op: CmpOp, value: Value) -> Predicate {
        Predicate {
            left: Operand::Attr {
                position: pos,
                attr,
            },
            op,
            right: Operand::Const(value),
        }
    }

    /// Temporal-order predicate `ts(pos_a) < ts(pos_b)` (the SEQ→AND
    /// rewriting of Section 5.1).
    pub fn ts_before(pos_a: usize, pos_b: usize) -> Predicate {
        Predicate {
            left: Operand::Ts { position: pos_a },
            op: CmpOp::Lt,
            right: Operand::Ts { position: pos_b },
        }
    }

    /// The set of positions this predicate references: `(lo, hi)` where
    /// `hi` is `None` for unary (filter) predicates. `lo <= hi` always.
    pub fn position_pair(&self) -> (usize, Option<usize>) {
        match (self.left.position(), self.right.position()) {
            (Some(a), Some(b)) if a != b => (a.min(b), Some(a.max(b))),
            (Some(a), Some(_)) => (a, None), // both sides same position: filter
            (Some(a), None) | (None, Some(a)) => (a, None),
            (None, None) => (usize::MAX, None), // constant predicate; degenerate
        }
    }

    /// Whether this predicate references only one position (a filter).
    pub fn is_unary(&self) -> bool {
        self.position_pair().1.is_none()
    }

    /// Whether this predicate references `position`.
    pub fn references(&self, position: usize) -> bool {
        self.left.position() == Some(position) || self.right.position() == Some(position)
    }

    /// Evaluates the predicate with `lookup` resolving positions to events.
    ///
    /// Engines must only call this when every referenced position is bound;
    /// unresolvable operands make the predicate evaluate to `false`.
    pub fn eval<'a>(&self, lookup: impl Fn(usize) -> Option<&'a Event>) -> bool {
        let (Some(l), Some(r)) = (self.left.resolve(&lookup), self.right.resolve(&lookup)) else {
            return false;
        };
        self.op.test(l.partial_cmp_value(&r))
    }

    /// Fast path: evaluates a binary predicate given the two bound events.
    pub fn eval_pair(&self, pos_a: usize, ev_a: &Event, pos_b: usize, ev_b: &Event) -> bool {
        self.eval(|p| {
            if p == pos_a {
                Some(ev_a)
            } else if p == pos_b {
                Some(ev_b)
            } else {
                None
            }
        })
    }

    /// Fast path: evaluates a unary predicate against one event.
    pub fn eval_single(&self, pos: usize, ev: &Event) -> bool {
        self.eval(|p| if p == pos { Some(ev) } else { None })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_op = |o: &Operand, f: &mut fmt::Formatter<'_>| match o {
            Operand::Attr { position, attr } => write!(f, "e{position}.a{attr}"),
            Operand::Ts { position } => write!(f, "e{position}.ts"),
            Operand::Const(v) => write!(f, "{v}"),
        };
        fmt_op(&self.left, f)?;
        write!(f, " {} ", self.op)?;
        fmt_op(&self.right, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TypeId;

    fn ev(ts: u64, x: i64) -> Event {
        Event::new(TypeId(0), ts, vec![Value::Int(x)])
    }

    #[test]
    fn attr_comparison() {
        let p = Predicate::attr_cmp(0, 0, CmpOp::Lt, 1, 0);
        assert!(p.eval_pair(0, &ev(0, 1), 1, &ev(0, 2)));
        assert!(!p.eval_pair(0, &ev(0, 2), 1, &ev(0, 2)));
    }

    #[test]
    fn const_filter() {
        let p = Predicate::attr_const(0, 0, CmpOp::Ge, Value::Int(10));
        assert!(p.eval_single(0, &ev(0, 10)));
        assert!(!p.eval_single(0, &ev(0, 9)));
        assert!(p.is_unary());
    }

    #[test]
    fn temporal_predicate() {
        let p = Predicate::ts_before(0, 1);
        assert!(p.eval_pair(0, &ev(5, 0), 1, &ev(6, 0)));
        assert!(!p.eval_pair(0, &ev(6, 0), 1, &ev(6, 0)));
    }

    #[test]
    fn position_pair_normalization() {
        let p = Predicate::attr_cmp(3, 0, CmpOp::Eq, 1, 0);
        assert_eq!(p.position_pair(), (1, Some(3)));
        assert!(!p.is_unary());
        assert!(p.references(3));
        assert!(p.references(1));
        assert!(!p.references(0));
    }

    #[test]
    fn same_position_both_sides_is_filter() {
        let p = Predicate::attr_cmp(2, 0, CmpOp::Lt, 2, 1);
        assert_eq!(p.position_pair(), (2, None));
        assert!(p.is_unary());
    }

    #[test]
    fn unresolvable_operand_fails() {
        let p = Predicate::attr_cmp(0, 5, CmpOp::Eq, 1, 0); // attr 5 missing
        assert!(!p.eval_pair(0, &ev(0, 1), 1, &ev(0, 1)));
    }

    #[test]
    fn op_flip_roundtrip() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
        // a < b  ⇔  b > a
        let a = ev(0, 1);
        let b = ev(0, 2);
        let p = Predicate::attr_cmp(0, 0, CmpOp::Lt, 1, 0);
        let q = Predicate::attr_cmp(1, 0, CmpOp::Lt.flip(), 0, 0);
        assert_eq!(p.eval_pair(0, &a, 1, &b), q.eval_pair(0, &a, 1, &b));
    }

    #[test]
    fn incomparable_fails_all_ops() {
        let mixed = Event::new(TypeId(0), 0, vec![Value::from("s")]);
        let num = ev(0, 1);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt] {
            let p = Predicate::attr_cmp(0, 0, op, 1, 0);
            assert!(!p.eval_pair(0, &mixed, 1, &num));
        }
    }

    #[test]
    fn display_renders() {
        let p = Predicate::attr_cmp(0, 1, CmpOp::Le, 2, 3);
        assert_eq!(p.to_string(), "e0.a1 <= e2.a3");
    }
}
