//! # cep-tree
//!
//! Tree-based CEP evaluation after ZStream (Mei & Madden \[35\]), modified —
//! as in Section 2.3 of *Join Query Optimization Techniques for CEP
//! Applications* (VLDB 2018) — from a batch-iterator design to an
//! instance-based design supporting arbitrary time windows.
//!
//! The engine follows a [`TreePlan`](cep_core::plan::TreePlan): primitive
//! events wait at the leaves as events, a partial match is built only when
//! two children's members join, and full matches surface at the root.
//! (A Kleene leaf keeps partial matches, because its sets grow.) Unlike
//! the NFA, no single processing order is imposed: any arrival order is
//! handled by the symmetric join at each node.
//!
//! Strategy support mirrors `cep-nfa` with one documented difference:
//! under skip-till-next-match the tree engine realizes single-use events
//! by consumption alone (matches stay disjoint, but intermediate instances
//! may still fork before the first emission claims their events).
//!
//! This crate keeps only the tree: node stores, leaf arrival and the
//! symmetric join. The filter gate, negation, emission and pruning of the
//! partial-match stores are the shared [`cep_core::shell::EngineShell`].

#![warn(missing_docs)]

mod engine;

pub use engine::TreeEngine;

#[cfg(test)]
mod tests;
