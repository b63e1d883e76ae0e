//! # cep-bench
//!
//! Benchmark harness regenerating every table and figure of Section 7 of
//! *Join Query Optimization Techniques for CEP Applications* (Kolchinsky &
//! Schuster, VLDB 2018). The README's *Paper mapping* table indexes the
//! figures against the code.
//!
//! * [`mod@env`] — stream/workload setup at configurable [`env::Scale`]s;
//! * [`runner`] — plan-then-execute machinery over both engines;
//! * [`figures`] — one driver per paper figure;
//! * [`smoke`] — the CI bench-regression gate (`bench_smoke.json`);
//! * [`analyze_demo`] — the `experiments analyze` static-analysis demo;
//! * [`observe`] — the `experiments observe` traced-run demo and the
//!   `check-obs` artifact gate.
//!
//! CLI: `cargo run --release -p cep-bench --bin experiments -- all`.

#![warn(missing_docs)]

pub mod analyze_demo;
pub mod env;
pub mod figures;
pub mod observe;
pub mod report;
pub mod runner;
pub mod smoke;
