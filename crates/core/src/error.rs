//! Error type shared across the CEP stack.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing schemas, patterns, plans, or parsing
/// pattern specifications.
///
/// Runtime event processing is infallible by design: malformed inputs are
/// rejected at construction time, so engines never need error paths on the
/// hot per-event code path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CepError {
    /// Invalid schema or catalog operation.
    Schema(String),
    /// Structurally invalid pattern (e.g., NOT applied to a composite).
    Pattern(String),
    /// Invalid evaluation plan for the given pattern.
    Plan(String),
    /// Pattern-specification parse error with position information.
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset in the input where the error was detected.
        offset: usize,
        /// 1-based line of the error (0 when the source is unavailable).
        line: u32,
        /// 1-based column of the error (0 when the source is unavailable).
        column: u32,
    },
    /// Missing or inconsistent statistics for plan generation.
    Stats(String),
    /// An event was pushed into a stream builder behind its watermark.
    ///
    /// Streams are ordered by occurrence time; routing layers that feed a
    /// builder from multiple sources surface their misuse through this
    /// variant (see [`crate::stream::StreamBuilder::try_push_partitioned`]).
    OutOfOrder {
        /// Timestamp of the offending event.
        ts: u64,
        /// The builder's watermark (largest timestamp accepted so far).
        last_ts: u64,
    },
    /// A sharded routing policy that would lose or duplicate matches for
    /// the given query (e.g. hash routing a query whose correlation
    /// attribute is not the routing attribute). The message points at the
    /// sound alternative — usually the replicate-join policy.
    Routing(String),
    /// A worker thread of a sharded run died (its engine or fragment
    /// builder panicked); the run's results are incomplete.
    Worker {
        /// Index of the shard whose worker died.
        shard: usize,
        /// The panic message, when it was a string.
        message: String,
    },
}

impl fmt::Display for CepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CepError::Schema(m) => write!(f, "schema error: {m}"),
            CepError::Pattern(m) => write!(f, "pattern error: {m}"),
            CepError::Plan(m) => write!(f, "plan error: {m}"),
            CepError::Parse {
                message,
                offset,
                line,
                column,
            } => {
                if *line > 0 {
                    write!(
                        f,
                        "parse error at line {line}, column {column} (byte {offset}): {message}"
                    )
                } else {
                    write!(f, "parse error at byte {offset}: {message}")
                }
            }
            CepError::Stats(m) => write!(f, "statistics error: {m}"),
            CepError::OutOfOrder { ts, last_ts } => write!(
                f,
                "out-of-order push: event ts {ts} is behind watermark {last_ts}; \
                 streams must be pushed in non-decreasing ts order"
            ),
            CepError::Routing(m) => write!(f, "routing error: {m}"),
            CepError::Worker { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
        }
    }
}

impl Error for CepError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CepError::Schema("x".into()).to_string().contains("schema"));
        assert!(CepError::Pattern("x".into())
            .to_string()
            .contains("pattern"));
        assert!(CepError::Plan("x".into()).to_string().contains("plan"));
        assert!(CepError::Stats("x".into())
            .to_string()
            .contains("statistics"));
        let p = CepError::Parse {
            message: "bad token".into(),
            offset: 17,
            line: 2,
            column: 4,
        };
        assert!(p.to_string().contains("17"));
        assert!(p.to_string().contains("line 2"));
        assert!(p.to_string().contains("column 4"));
        let p0 = CepError::Parse {
            message: "bad token".into(),
            offset: 17,
            line: 0,
            column: 0,
        };
        assert!(p0.to_string().contains("byte 17"));
        assert!(!p0.to_string().contains("line"));
        assert!(CepError::Routing("x".into())
            .to_string()
            .contains("routing"));
        let w = CepError::Worker {
            shard: 2,
            message: "boom".into(),
        };
        assert_eq!(w.to_string(), "shard 2 worker panicked: boom");
        let o = CepError::OutOfOrder { ts: 3, last_ts: 9 };
        let s = o.to_string();
        assert!(s.contains("ts 3"));
        assert!(s.contains("watermark 9"));
        assert!(s.contains("non-decreasing ts order"));
    }
}
