#![deny(missing_docs)]
//! Static query and plan analysis for the CEP stack.
//!
//! The crate lints queries **before** they run and verifies planner
//! output **as** it is produced:
//!
//! * [`semantic`] — schema-level checks against a
//!   [`Catalog`]: unknown event types (`A002`),
//!   out-of-bounds attributes (`A003`), type-incompatible comparisons
//!   (`A004`), timestamp-shadowing attributes (`A005`).
//! * [`absint`] — abstract interpretation over compiled branches:
//!   congruence closure over `==`, an interval domain, and an order
//!   digraph that also folds in `SEQ` precedence and the time window.
//!   Detects unsatisfiable queries (`A001`), redundant (`A006`) and
//!   constant-only (`A007`) predicates, dead negations (`A008`), and
//!   Kleene/window state blowup (`A009`).
//! * [`plan_verify`] — plan-invariant verification (`A010`): predicate
//!   multiset preservation, negation anchoring, precedence sanity, and
//!   partition-spec soundness. The optimizer (every adaptive swap
//!   candidate included) and the sharded runtime call these in debug
//!   builds.
//! * [`query_file`] — self-contained `.sase` files (`TYPE` header plus
//!   pattern), the input format of the `cep-lint` binary.
//!
//! The analyzer is conservative by construction: it reports `A001`/`A006`
//! only when the verdict is provable under engine semantics, so
//! "unsatisfiable" really means *zero matches on every stream* — the
//! property the differential test sweep enforces against the naive
//! oracle engine.

pub mod absint;
pub mod diagnostic;
pub mod plan_verify;
pub mod query_file;
pub mod semantic;

pub use absint::{analyze_branch, check_state_blowup, BlowupOptions, BranchAnalysis};
pub use diagnostic::{Code, Diagnostic, Report, Severity, ALL_CODES};
pub use plan_verify::{
    verify_order_plan, verify_partition_spec, verify_pattern_invariants, verify_tree_plan,
};
pub use query_file::{parse_query_file, QueryFile};
pub use semantic::check_pattern;

use cep_core::compile::CompiledPattern;
use cep_core::error::CepError;
use cep_core::pattern::Pattern;
use cep_core::schema::Catalog;

/// Runs the full analysis pipeline on a pattern: semantic checks, then —
/// when the pattern is semantically sound — per-branch abstract
/// interpretation and compile-output invariant verification.
///
/// Returns `Err` only when the pattern is structurally invalid (it does
/// not even compile); lint findings, including fatal ones, come back as
/// diagnostics in the [`Report`].
///
/// `A001` grading: for a single-branch query an unsatisfiable branch is
/// an error (the query can never match); for a multi-branch `OR`, one
/// dead branch is a warning and the error fires only when *every*
/// branch is dead.
pub fn analyze_pattern(pattern: &Pattern, catalog: &Catalog) -> Result<Report, CepError> {
    let mut report = semantic::check_pattern(pattern, catalog);
    if report.has_errors() {
        // Deeper analysis of a semantically broken pattern would lint
        // predicates that cannot mean what they say; stop here.
        return Ok(report);
    }
    let branches = CompiledPattern::compile(pattern)?;
    let mut dead: Vec<(usize, String)> = Vec::new();
    for (bi, cp) in branches.iter().enumerate() {
        let analysis = absint::analyze_branch(cp);
        report.merge(analysis.report);
        if let Some(reason) = analysis.unsat {
            dead.push((bi, reason));
        }
        if let Err(e) = plan_verify::verify_pattern_invariants(cp) {
            report.push(Diagnostic::new(
                Code::A010,
                format!("compiled branch #{bi} violates pattern invariants: {e}"),
            ));
        }
    }
    if dead.len() == branches.len() {
        for (bi, reason) in &dead {
            let msg = if branches.len() == 1 {
                format!("the query can never match: {reason}")
            } else {
                format!("branch #{bi} can never match: {reason}")
            };
            report.push(Diagnostic::new(Code::A001, msg));
        }
    } else {
        for (bi, reason) in &dead {
            report.push(
                Diagnostic::new(
                    Code::A001,
                    format!("branch #{bi} of the OR can never match ({reason}); it is dead weight"),
                )
                .as_warning(),
            );
        }
    }
    Ok(report)
}

/// Parses and analyzes a `.sase` query file in one step.
///
/// Returns the parsed [`QueryFile`] and its lint [`Report`]; `Err` means
/// the file itself does not parse.
pub fn analyze_query_file(source: &str) -> Result<(QueryFile, Report), CepError> {
    let qf = query_file::parse_query_file(source)?;
    let report = analyze_pattern(&qf.pattern, &qf.catalog)?;
    Ok((qf, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep_core::event::TypeId;
    use cep_core::pattern::PatternBuilder;
    use cep_core::predicate::{CmpOp, Operand, Predicate};
    use cep_core::schema::ValueKind;
    use cep_core::value::Value;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_type("A", &[("x", ValueKind::Int)]).unwrap();
        cat.add_type("B", &[("x", ValueKind::Int)]).unwrap();
        cat
    }

    fn contradiction(position: usize) -> [Predicate; 2] {
        let attr = |position, attr| Operand::Attr { position, attr };
        [
            Predicate {
                left: attr(position, 0),
                op: CmpOp::Lt,
                right: Operand::Const(Value::Int(0)),
            },
            Predicate {
                left: attr(position, 0),
                op: CmpOp::Gt,
                right: Operand::Const(Value::Int(0)),
            },
        ]
    }

    #[test]
    fn unsat_single_branch_is_an_error() {
        let cat = catalog();
        let mut b = PatternBuilder::new(1000);
        let a = b.event(cat.type_id("A").unwrap(), "a");
        let c = b.event(cat.type_id("B").unwrap(), "b");
        for p in contradiction(a.pos()) {
            b.predicate(p);
        }
        let p = b.seq([a, c]).unwrap();
        let r = analyze_pattern(&p, &cat).unwrap();
        assert!(r.has_code(Code::A001));
        assert!(r.has_errors());
    }

    #[test]
    fn one_dead_or_branch_is_a_warning() {
        let cat = catalog();
        let mut b = PatternBuilder::new(1000);
        let a = b.event(cat.type_id("A").unwrap(), "a");
        let c = b.event(cat.type_id("B").unwrap(), "b");
        // The contradiction only binds inside the branch containing `a`.
        for p in contradiction(a.pos()) {
            b.predicate(p);
        }
        let exprs = vec![b.expr(a), b.expr(c)];
        let p = b.or_exprs(exprs).unwrap();
        let r = analyze_pattern(&p, &cat).unwrap();
        assert!(r.has_code(Code::A001), "{r}");
        assert!(!r.has_errors(), "{r}");
    }

    #[test]
    fn clean_query_lints_clean() {
        let cat = catalog();
        let mut b = PatternBuilder::new(1000);
        let a = b.event(cat.type_id("A").unwrap(), "a");
        let c = b.event(cat.type_id("B").unwrap(), "b");
        b.predicate(Predicate {
            left: Operand::Attr {
                position: a.pos(),
                attr: 0,
            },
            op: CmpOp::Lt,
            right: Operand::Attr {
                position: c.pos(),
                attr: 0,
            },
        });
        let p = b.seq([a, c]).unwrap();
        let r = analyze_pattern(&p, &cat).unwrap();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn semantic_errors_short_circuit_deep_analysis() {
        let cat = catalog();
        let mut b = PatternBuilder::new(1000);
        let a = b.event(TypeId(42), "a"); // unknown type
        let c = b.event(cat.type_id("B").unwrap(), "b");
        for p in contradiction(a.pos()) {
            b.predicate(p);
        }
        let p = b.seq([a, c]).unwrap();
        let r = analyze_pattern(&p, &cat).unwrap();
        assert!(r.has_code(Code::A002));
        assert!(!r.has_code(Code::A001));
    }

    #[test]
    fn query_file_pipeline_works_end_to_end() {
        let src = "TYPE A(x int)\nTYPE B(x int)\n\
                   PATTERN SEQ(A a, B b)\nWHERE (a.x < 0 AND a.x > 0)\nWITHIN 1 s\n";
        let (_qf, report) = analyze_query_file(src).unwrap();
        assert!(report.has_code(Code::A001), "{report}");
    }
}
