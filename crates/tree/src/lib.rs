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
//! (A Kleene leaf keeps partial matches, because its sets grow.) No
//! single processing order is imposed: any arrival order is handled by the
//! symmetric join at each node.
//!
//! This is the one join executor. An order plan (Section 3.1) runs as
//! its left-deep tree, [`TreePlan::left_deep`](cep_core::plan::TreePlan::left_deep):
//! Section 4 reduces order-based evaluation to exactly that tree.
//!
//! All four selection strategies of Section 6.2 are supported. Under
//! skip-till-next-match the engine realizes single-use events by
//! consumption alone: intermediate instances may fork before the first
//! emission claims their events, and an emission kills every partial
//! match holding one of them. The output is valid, event-disjoint, a
//! subset of the skip-till-any-match output and deterministic per
//! configuration, but the oracle defines no next-match witnesses to be
//! byte-identical to.
//!
//! This crate keeps only the tree: node stores, leaf arrival and the
//! symmetric join. The filter gate, negation, emission and pruning of the
//! partial-match stores are the shared [`cep_core::shell::EngineShell`].

#![warn(missing_docs)]

mod engine;

pub use engine::TreeEngine;

#[cfg(test)]
mod tests;
