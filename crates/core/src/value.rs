//! Attribute values carried by events.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A dynamically typed attribute value.
///
/// Events carry a fixed-arity tuple of `Value`s whose kinds are declared by
/// the [`EventSchema`](crate::schema::EventSchema) of their type. Comparisons
/// between `Int` and `Float` are performed numerically, mirroring the loose
/// typing of CEP specification languages such as SASE.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Interned string (cheap to clone).
    Str(Arc<str>),
}

impl Value {
    /// Kind of this value, for schema validation.
    pub fn kind(&self) -> crate::schema::ValueKind {
        use crate::schema::ValueKind;
        match self {
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Bool(_) => ValueKind::Bool,
            Value::Str(_) => ValueKind::Str,
        }
    }

    /// Numeric view of the value, if it is `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Total comparison used by predicate evaluation.
    ///
    /// Numeric values compare numerically across `Int`/`Float`; other kinds
    /// compare only within the same kind. Cross-kind non-numeric comparisons
    /// return `None` and the enclosing predicate evaluates to `false`.
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_kind_comparison() {
        assert_eq!(
            Value::Int(2).partial_cmp_value(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).partial_cmp_value(&Value::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn float_pairs_compare_like_the_numeric_view() {
        let floats = [
            f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -2.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        let ints = [
            Value::Int(0),
            Value::Int(-2),
            Value::Int(1),
            Value::Int(i64::MAX),
        ];
        let values: Vec<Value> = floats.map(Value::Float).into_iter().chain(ints).collect();
        for a in &values {
            for b in &values {
                if let (Value::Int(_), Value::Int(_)) = (a, b) {
                    continue; // exact, never through f64
                }
                let numeric = a
                    .as_f64()
                    .zip(b.as_f64())
                    .and_then(|(x, y)| x.partial_cmp(&y));
                assert_eq!(a.partial_cmp_value(b), numeric, "{a} vs {b}");
            }
        }
        assert_eq!(
            Value::Float(-0.0).partial_cmp_value(&Value::Float(0.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(f64::NAN).partial_cmp_value(&Value::Float(f64::NAN)),
            None
        );
    }

    #[test]
    fn string_comparison() {
        assert_eq!(
            Value::from("abc").partial_cmp_value(&Value::from("abd")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incompatible_kinds_do_not_compare() {
        assert_eq!(Value::from("abc").partial_cmp_value(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).partial_cmp_value(&Value::Int(1)), None);
    }

    #[test]
    fn kind_reporting() {
        use crate::schema::ValueKind;
        assert_eq!(Value::Int(1).kind(), ValueKind::Int);
        assert_eq!(Value::Float(1.0).kind(), ValueKind::Float);
        assert_eq!(Value::Bool(true).kind(), ValueKind::Bool);
        assert_eq!(Value::from("x").kind(), ValueKind::Str);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
    }
}
