//! Replicate-join partition analysis for cross-partition sharded execution.
//!
//! A sharded runtime that *splits* the stream is exact only when every
//! match's events land on one shard. Partition-local queries (all elements
//! linked by key-equality predicates on the routing attribute) have that
//! property under plain hash routing; arbitrary queries do not. Following
//! the replicated-join construction of Dossinger & Michel (*Optimizing
//! Multiple Multi-Way Stream Joins*, arXiv:2104.07742), exactness is
//! recovered for any query by splitting its event types into two classes:
//!
//! * **partitioned** types are hashed by a join-key attribute, so all
//!   key-linked events of a match share a shard — this side stays scaled;
//! * **replicated** types are broadcast to *every* shard, so whatever a
//!   match needs beyond the key group is present wherever the match lands.
//!
//! The [`QueryPartitioner`] computes that classification from each
//! branch's equality graph ([`CompiledPattern::join_graph`], whose module
//! states which `==` predicates may link what), and searches for the
//! assignment of key attributes that keeps the largest estimated event
//! rate partitioned (replicating the low-rate side). Types that cannot be
//! proven key-linked in every branch are replicated.
//!
//! Soundness rules encoded here (see `valid_for`):
//!
//! * within a branch, all *positive* elements of partitioned types must
//!   sit in **one** equality class of the graph through their assigned
//!   key attributes — otherwise one match could span several keys and
//!   therefore several shards;
//! * a negated element of a partitioned type requires a positive
//!   partitioned element in the same branch and a *direct* negated link
//!   into that key class — otherwise shards that never see the forbidding
//!   events would emit false matches;
//! * a branch whose only partitioned element is a single positive,
//!   non-Kleene element needs no equality link at all (its own key
//!   attribute routes the match).
//!
//! Matches containing no partitioned event are detected by *every* shard;
//! the sharded merge deduplicates them by signature (exactly like
//! [`crate::engine::MultiEngine`] deduplicates across DNF branches).

use crate::compile::CompiledPattern;
use crate::error::CepError;
use crate::event::TypeId;
use crate::stats::MeasuredStats;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How a sharded router treats events of one type under replicate-join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeDisposition {
    /// Hash the attribute at this index; key-equal events share a shard.
    Partitioned {
        /// Attribute index carrying the join key.
        attr: usize,
    },
    /// Broadcast every event of this type to all shards.
    Replicated,
}

impl fmt::Display for TypeDisposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeDisposition::Partitioned { attr } => write!(f, "partitioned(a{attr})"),
            TypeDisposition::Replicated => f.write_str("replicated"),
        }
    }
}

/// A per-type routing classification produced by [`QueryPartitioner`].
///
/// Covers exactly the event types the analyzed query uses; a sharded
/// router treats types outside the spec as irrelevant to the query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionSpec {
    dispositions: BTreeMap<TypeId, TypeDisposition>,
}

impl PartitionSpec {
    /// Builds a spec from explicit per-type dispositions. Prefer
    /// [`QueryPartitioner::analyze`], which derives a sound spec from the
    /// query; hand-built specs should be checked with
    /// [`PartitionSpec::validate`].
    pub fn new(dispositions: impl IntoIterator<Item = (TypeId, TypeDisposition)>) -> PartitionSpec {
        PartitionSpec {
            dispositions: dispositions.into_iter().collect(),
        }
    }

    /// The disposition of a type, or `None` if the query does not use it.
    pub fn disposition(&self, ty: TypeId) -> Option<TypeDisposition> {
        self.dispositions.get(&ty).copied()
    }

    /// Iterates `(type, disposition)` in type-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, TypeDisposition)> + '_ {
        self.dispositions.iter().map(|(&t, &d)| (t, d))
    }

    /// Types hashed by a key attribute, in type-id order.
    pub fn partitioned_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.iter().filter_map(|(t, d)| match d {
            TypeDisposition::Partitioned { .. } => Some(t),
            TypeDisposition::Replicated => None,
        })
    }

    /// Types broadcast to every shard, in type-id order.
    pub fn replicated_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.iter().filter_map(|(t, d)| match d {
            TypeDisposition::Replicated => Some(t),
            TypeDisposition::Partitioned { .. } => None,
        })
    }

    /// Whether every type is partitioned (the query is partition-local on
    /// the assigned key attributes: no replication overhead at all).
    pub fn is_fully_partitioned(&self) -> bool {
        !self.dispositions.is_empty() && self.replicated_types().next().is_none()
    }

    /// Whether every type is replicated (each shard sees the whole stream;
    /// exact, but without scale-out for this query).
    pub fn is_fully_replicated(&self) -> bool {
        self.partitioned_types().next().is_none()
    }

    /// Checks that this spec is sound for the given compiled branches:
    /// every used type has a disposition and the partitioned types satisfy
    /// the key-connectivity rules (see the module docs).
    pub fn validate(&self, branches: &[CompiledPattern]) -> Result<(), CepError> {
        if branches.is_empty() {
            return Err(CepError::Routing(
                "partition spec validated against zero pattern branches".into(),
            ));
        }
        for ty in used_types(branches) {
            if self.disposition(ty).is_none() {
                return Err(CepError::Routing(format!(
                    "partition spec has no disposition for event type {}; \
                     every type the query uses must be partitioned or replicated",
                    ty.0
                )));
            }
        }
        let attrs: BTreeMap<TypeId, usize> = self
            .iter()
            .filter_map(|(t, d)| match d {
                TypeDisposition::Partitioned { attr } => Some((t, attr)),
                TypeDisposition::Replicated => None,
            })
            .collect();
        for (bi, branch) in branches.iter().enumerate() {
            valid_for(branch, &attrs).map_err(|why| {
                CepError::Routing(format!(
                    "partition spec is unsound for branch {bi}: {why}; \
                     replicate the offending type or re-run QueryPartitioner::analyze"
                ))
            })?;
        }
        Ok(())
    }
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (t, d)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "T{}: {d}", t.0)?;
        }
        f.write_str("}")
    }
}

/// Derives a [`PartitionSpec`] from a query's equality predicates and
/// per-type rate estimates.
pub struct QueryPartitioner;

impl QueryPartitioner {
    /// Classifies every event type the query uses, choosing the key
    /// assignment that keeps the largest total estimated rate partitioned
    /// (the low-rate remainder is replicated, following Dossinger &
    /// Michel's replicated-join heuristic). `rate` supplies events/ms
    /// estimates — [`MeasuredStats::rate`], live
    /// `StatsMonitor` rates, or any other source; unknown types may
    /// return `0.0`.
    ///
    /// The result is always sound: if no equality structure is usable, all
    /// types are replicated (exact on any shard count, no scale-out).
    ///
    /// # Errors
    /// Returns [`CepError::Plan`] if `branches` is empty.
    pub fn analyze(
        branches: &[CompiledPattern],
        rate: impl Fn(TypeId) -> f64,
    ) -> Result<PartitionSpec, CepError> {
        if branches.is_empty() {
            return Err(CepError::Plan(
                "cannot partition a query with zero branches".into(),
            ));
        }
        let used: Vec<TypeId> = used_types(branches).into_iter().collect();
        let rate_of = |ty: TypeId| {
            let r = rate(ty);
            if r.is_finite() && r > 0.0 {
                r
            } else {
                0.0
            }
        };
        // Types in descending-rate order (deterministic tie-break on id):
        // greedy growth tries to keep the expensive types partitioned.
        let mut by_rate = used.clone();
        by_rate.sort_by(|&a, &b| {
            rate_of(b)
                .total_cmp(&rate_of(a))
                .then_with(|| a.0.cmp(&b.0))
        });
        // Candidate key attributes per type: every attribute that appears
        // in an equality-graph node or negated link of one of the type's
        // elements.
        let mut candidate_attrs: BTreeMap<TypeId, BTreeSet<usize>> = BTreeMap::new();
        for cp in branches {
            let graph = cp.join_graph();
            let positive = graph
                .nodes()
                .map(|(elem, attr)| (cp.elements[elem].event_type, attr));
            let negated = (cp.negated.iter().enumerate()).flat_map(|(k, ne)| {
                graph
                    .negated_links(k)
                    .iter()
                    .map(|l| (ne.event_type, l.attr))
            });
            for (ty, attr) in positive.chain(negated) {
                candidate_attrs.entry(ty).or_default().insert(attr);
            }
        }
        let valid =
            |attrs: &BTreeMap<TypeId, usize>| branches.iter().all(|b| valid_for(b, attrs).is_ok());
        // Try each candidate anchor (type, attr); grow greedily; keep the
        // assignment with the largest partitioned rate mass, summed in
        // type-id order so a tie cannot be broken by hash order.
        let mut best: Option<(f64, usize, BTreeMap<TypeId, usize>)> = None;
        for &anchor_ty in &by_rate {
            for &anchor_attr in candidate_attrs.get(&anchor_ty).into_iter().flatten() {
                let mut attrs = BTreeMap::from([(anchor_ty, anchor_attr)]);
                if !valid(&attrs) {
                    continue;
                }
                for &ty in by_rate.iter().filter(|&&t| t != anchor_ty) {
                    for &attr in candidate_attrs.get(&ty).into_iter().flatten() {
                        attrs.insert(ty, attr);
                        if valid(&attrs) {
                            break;
                        }
                        attrs.remove(&ty);
                    }
                }
                let score: f64 = attrs.keys().map(|&t| rate_of(t)).sum();
                let count = attrs.len();
                let better = match &best {
                    None => true,
                    Some((s, c, _)) => {
                        score.total_cmp(s).then_with(|| count.cmp(c)) == std::cmp::Ordering::Greater
                    }
                };
                if better {
                    best = Some((score, count, attrs));
                }
            }
        }
        let attrs = best.map(|(_, _, a)| a).unwrap_or_default();
        Ok(PartitionSpec {
            dispositions: used
                .into_iter()
                .map(|ty| {
                    let d = match attrs.get(&ty) {
                        Some(&attr) => TypeDisposition::Partitioned { attr },
                        None => TypeDisposition::Replicated,
                    };
                    (ty, d)
                })
                .collect(),
        })
    }

    /// [`analyze`](QueryPartitioner::analyze) with rates taken from
    /// measured statistics.
    pub fn analyze_measured(
        branches: &[CompiledPattern],
        stats: &MeasuredStats,
    ) -> Result<PartitionSpec, CepError> {
        Self::analyze(branches, |ty| stats.rate(ty))
    }
}

/// Checks whether every branch of the query is partition-local on the
/// *single* attribute `attr` — the condition under which plain
/// hash-by-attribute routing (every type hashed on the same attribute
/// index) is exact. This is what legacy `HashAttr` routing assumes.
pub fn partition_local_on(branches: &[CompiledPattern], attr: usize) -> Result<(), CepError> {
    if branches.is_empty() {
        return Err(CepError::Routing(
            "cannot check partition-locality of zero branches".into(),
        ));
    }
    for (bi, branch) in branches.iter().enumerate() {
        let attrs: BTreeMap<TypeId, usize> = used_types(std::slice::from_ref(branch))
            .into_iter()
            .map(|t| (t, attr))
            .collect();
        valid_for(branch, &attrs).map_err(|why| {
            CepError::Routing(format!(
                "query is not partition-local on attribute {attr} (branch {bi}: {why})"
            ))
        })?;
    }
    Ok(())
}

/// All event types referenced by any positive or negated element.
fn used_types(branches: &[CompiledPattern]) -> BTreeSet<TypeId> {
    branches
        .iter()
        .flat_map(|cp| {
            cp.elements
                .iter()
                .map(|e| e.event_type)
                .chain(cp.negated.iter().map(|n| n.event_type))
        })
        .collect()
}

/// The soundness check: with `attrs` assigning a key attribute to each
/// partitioned type, are all of this branch's partitioned elements
/// guaranteed to share one key value in every match?
fn valid_for(cp: &CompiledPattern, attrs: &BTreeMap<TypeId, usize>) -> Result<(), String> {
    let graph = cp.join_graph();
    // (element index, type, key attribute) of each partitioned element.
    let positive: Vec<(usize, TypeId, usize)> = cp
        .elements
        .iter()
        .enumerate()
        .filter_map(|(i, e)| Some((i, e.event_type, *attrs.get(&e.event_type)?)))
        .collect();
    let negated: Vec<(usize, TypeId, usize)> = cp
        .negated
        .iter()
        .enumerate()
        .filter_map(|(k, ne)| Some((k, ne.event_type, *attrs.get(&ne.event_type)?)))
        .collect();
    if positive.is_empty() {
        return match negated.first() {
            None => Ok(()), // replicated-only branch: every shard detects it
            Some(&(_, ty, _)) => Err(format!(
                "type {} appears only negated with no positive key anchor",
                ty.0
            )),
        };
    }
    // A single plain positive element keys the match by itself; a Kleene
    // one binds several events, which only an equality link keys alike.
    if positive.len() + negated.len() == 1 && !cp.elements[positive[0].0].kleene {
        return Ok(());
    }
    // Positive elements must share one equality class — the predicates
    // every match is guaranteed to satisfy.
    let mut root = None;
    for &(i, ty, attr) in &positive {
        let Some(r) = graph.class_of(i, attr) else {
            return Err(format!(
                "element of type {} is not equality-linked on attribute {attr}",
                ty.0
            ));
        };
        if *root.get_or_insert(r) != r {
            return Err(format!(
                "partitioned elements split into disconnected key groups \
                 (type {} links to a different component)",
                ty.0
            ));
        }
    }
    // Negated elements must be *directly* linked to a positive in that
    // class: only a negated link is evaluated against candidate negation
    // events, so only it pins their key.
    for &(k, ty, attr) in &negated {
        let anchored = (graph.negated_links(k).iter())
            .any(|l| l.attr == attr && graph.class_of(l.other, l.other_attr) == root);
        if !anchored {
            return Err(format!(
                "negated element of type {} is not directly key-linked to the \
                 partitioned component on attribute {attr}",
                ty.0
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use crate::predicate::{CmpOp, Predicate};

    fn t(i: u32) -> TypeId {
        TypeId(i)
    }

    /// SEQ(A a, B b, C c) with a.0 == b.0 — C is unkeyed.
    fn cross_key_branch() -> CompiledPattern {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let bb = b.event(t(1), "b");
        let c = b.event(t(2), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
        CompiledPattern::compile_single(&b.seq([a, bb, c]).unwrap()).unwrap()
    }

    fn rates(pairs: &[(u32, f64)]) -> impl Fn(TypeId) -> f64 + '_ {
        move |ty| {
            pairs
                .iter()
                .find(|(i, _)| TypeId(*i) == ty)
                .map(|&(_, r)| r)
                .unwrap_or(0.0)
        }
    }

    #[test]
    fn unkeyed_type_is_replicated() {
        let cp = cross_key_branch();
        let spec =
            QueryPartitioner::analyze(&[cp], rates(&[(0, 1.0), (1, 0.5), (2, 0.01)])).unwrap();
        assert_eq!(
            spec.disposition(t(0)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
        assert_eq!(
            spec.disposition(t(1)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
        assert_eq!(spec.disposition(t(2)), Some(TypeDisposition::Replicated));
        assert!(!spec.is_fully_partitioned());
        assert!(!spec.is_fully_replicated());
        assert_eq!(spec.partitioned_types().count(), 2);
        assert_eq!(spec.replicated_types().collect::<Vec<_>>(), vec![t(2)]);
    }

    #[test]
    fn fully_keyed_query_is_fully_partitioned() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let bb = b.event(t(1), "b");
        let c = b.event(t(2), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
        b.predicate(Predicate::attr_cmp(bb.pos(), 0, CmpOp::Eq, c.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, bb, c]).unwrap()).unwrap();
        let spec = QueryPartitioner::analyze(std::slice::from_ref(&cp), |_| 1.0).unwrap();
        assert!(spec.is_fully_partitioned());
        assert!(partition_local_on(&[cp], 0).is_ok());
    }

    #[test]
    fn key_may_cross_attribute_indices() {
        // a.1 == b.0: different attribute per type, one key.
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let bb = b.event(t(1), "b");
        b.predicate(Predicate::attr_cmp(a.pos(), 1, CmpOp::Eq, bb.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, bb]).unwrap()).unwrap();
        let spec = QueryPartitioner::analyze(std::slice::from_ref(&cp), |_| 1.0).unwrap();
        assert_eq!(
            spec.disposition(t(0)),
            Some(TypeDisposition::Partitioned { attr: 1 })
        );
        assert_eq!(
            spec.disposition(t(1)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
        // ...but it is NOT partition-local on any single attribute index.
        assert!(partition_local_on(std::slice::from_ref(&cp), 0).is_err());
        assert!(partition_local_on(std::slice::from_ref(&cp), 1).is_err());
    }

    #[test]
    fn no_equality_structure_replicates_everything() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let c = b.event(t(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        let spec = QueryPartitioner::analyze(&[cp], |_| 1.0).unwrap();
        assert!(spec.is_fully_replicated());
    }

    #[test]
    fn single_element_pattern_is_partitioned_without_links() {
        // One positive element: the match is keyed by its own event; any
        // candidate attribute routes it wholly.
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let a2 = b.event(t(0), "a2");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, a2.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a, a2]).unwrap()).unwrap();
        let spec = QueryPartitioner::analyze(&[cp], |_| 1.0).unwrap();
        assert_eq!(
            spec.disposition(t(0)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
    }

    #[test]
    fn a_lone_kleene_element_is_not_keyed_by_itself() {
        // SEQ(KL(A a)): one match binds several A events, of any keys.
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let kleene = b.kleene(a);
        let cp = CompiledPattern::compile_single(&b.seq_exprs(vec![kleene]).unwrap()).unwrap();
        assert!(partition_local_on(std::slice::from_ref(&cp), 0).is_err());
        let spec = QueryPartitioner::analyze(&[cp], |_| 1.0).unwrap();
        assert_eq!(spec.disposition(t(0)), Some(TypeDisposition::Replicated));
    }

    #[test]
    fn same_type_with_unkeyed_second_occurrence_is_replicated() {
        // SEQ(A a1, A a2, B b) with a1.0 == b.0 but a2 free: routing A by
        // attribute 0 would strand a2 events of other keys, so A must be
        // replicated; B keeps no partner and collapses to replicated too
        // (a single partitioned type with one element per match is still
        // fine, so B stays partitioned).
        let mut b = PatternBuilder::new(100);
        let a1 = b.event(t(0), "a1");
        let a2 = b.event(t(0), "a2");
        let bb = b.event(t(1), "b");
        b.predicate(Predicate::attr_cmp(a1.pos(), 0, CmpOp::Eq, bb.pos(), 0));
        let cp = CompiledPattern::compile_single(&b.seq([a1, a2, bb]).unwrap()).unwrap();
        let spec = QueryPartitioner::analyze(&[cp], rates(&[(0, 1.0), (1, 0.5)])).unwrap();
        assert_eq!(spec.disposition(t(0)), Some(TypeDisposition::Replicated));
        assert_eq!(
            spec.disposition(t(1)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
    }

    #[test]
    fn rate_mass_picks_the_partitioned_component() {
        // Two disjoint key components: (A,B) on attr 0 and (C,D) on attr 1.
        // Only one can be partitioned; the rate mass decides which.
        let build = || {
            let mut b = PatternBuilder::new(100);
            let a = b.event(t(0), "a");
            let bb = b.event(t(1), "b");
            let c = b.event(t(2), "c");
            let d = b.event(t(3), "d");
            b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
            b.predicate(Predicate::attr_cmp(c.pos(), 1, CmpOp::Eq, d.pos(), 1));
            CompiledPattern::compile_single(&b.seq([a, bb, c, d]).unwrap()).unwrap()
        };
        let heavy_ab =
            QueryPartitioner::analyze(&[build()], rates(&[(0, 5.0), (1, 5.0), (2, 0.1), (3, 0.1)]))
                .unwrap();
        assert_eq!(
            heavy_ab.partitioned_types().collect::<Vec<_>>(),
            vec![t(0), t(1)]
        );
        let heavy_cd =
            QueryPartitioner::analyze(&[build()], rates(&[(0, 0.1), (1, 0.1), (2, 5.0), (3, 5.0)]))
                .unwrap();
        assert_eq!(
            heavy_cd.partitioned_types().collect::<Vec<_>>(),
            vec![t(2), t(3)]
        );
    }

    #[test]
    fn negated_type_keyed_through_positive_stays_partitioned() {
        // SEQ(A a, NOT(N n), B b) with a.0 == b.0 and n.0 == a.0: the
        // negated type is pinned to the key through a positive element.
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let n = b.event(t(1), "n");
        let c = b.event(t(2), "b");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
        b.predicate(Predicate::attr_cmp(n.pos(), 0, CmpOp::Eq, a.pos(), 0));
        let ae = b.expr(a);
        let ne = b.not(n);
        let ce = b.expr(c);
        let p = b.seq_exprs([ae, ne, ce]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let spec = QueryPartitioner::analyze(&[cp], |_| 1.0).unwrap();
        assert!(spec.is_fully_partitioned());
    }

    #[test]
    fn unkeyed_negated_type_is_replicated() {
        // NOT(N) with no equality link: any shard missing an N event would
        // emit a false match, so N must be broadcast.
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let n = b.event(t(1), "n");
        let c = b.event(t(2), "b");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
        let ae = b.expr(a);
        let ne = b.not(n);
        let ce = b.expr(c);
        let p = b.seq_exprs([ae, ne, ce]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let spec = QueryPartitioner::analyze(&[cp], |_| 1.0).unwrap();
        assert_eq!(spec.disposition(t(1)), Some(TypeDisposition::Replicated));
        assert_eq!(spec.partitioned_types().count(), 2);
    }

    /// Regression: `a.0 == n.0` and `n.0 == c.0` with NOT(N) must **not**
    /// place A and C in one key component — those predicates are only
    /// evaluated against candidate negation events, so a match may bind
    /// `a.0 != c.0` (whenever no violating N exists). Treating them as
    /// key-equal produced an unsound spec that lost cross-shard matches.
    #[test]
    fn positives_bridged_only_through_a_negated_element_are_not_key_linked() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let n = b.event(t(1), "n");
        let c = b.event(t(2), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, n.pos(), 0));
        b.predicate(Predicate::attr_cmp(n.pos(), 0, CmpOp::Eq, c.pos(), 0));
        let ae = b.expr(a);
        let ne = b.not(n);
        let ce = b.expr(c);
        let p = b.seq_exprs([ae, ne, ce]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let spec = QueryPartitioner::analyze(std::slice::from_ref(&cp), |_| 1.0).unwrap();
        assert!(
            !spec.is_fully_partitioned(),
            "A and C are not key-equal; partitioning both is unsound: {spec}"
        );
        // The anchor keeps one positive side plus the negated type (still
        // pinned to that side's key); the other positive side replicates.
        assert_eq!(
            spec.disposition(t(0)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
        assert_eq!(
            spec.disposition(t(1)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
        assert_eq!(spec.disposition(t(2)), Some(TypeDisposition::Replicated));
        spec.validate(std::slice::from_ref(&cp)).unwrap();
        // A hand-built spec partitioning all three must be rejected.
        let bad = PartitionSpec::new([
            (t(0), TypeDisposition::Partitioned { attr: 0 }),
            (t(1), TypeDisposition::Partitioned { attr: 0 }),
            (t(2), TypeDisposition::Partitioned { attr: 0 }),
        ]);
        assert!(bad.validate(std::slice::from_ref(&cp)).is_err());
        assert!(partition_local_on(std::slice::from_ref(&cp), 0).is_err());
    }

    #[test]
    fn negated_negated_equality_pins_no_key() {
        // n1.0 == n2.0 with n2.0 == a.0: engines check each negated
        // element against positives only, so the n1–n2 edge must not count
        // — n1 has no positive-mediated link and must be replicated.
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let n1 = b.event(t(1), "n1");
        let n2 = b.event(t(2), "n2");
        let c = b.event(t(3), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
        b.predicate(Predicate::attr_cmp(n1.pos(), 0, CmpOp::Eq, n2.pos(), 0));
        b.predicate(Predicate::attr_cmp(n2.pos(), 0, CmpOp::Eq, a.pos(), 0));
        let ae = b.expr(a);
        let n1e = b.not(n1);
        let n2e = b.not(n2);
        let ce = b.expr(c);
        let p = b.seq_exprs([ae, n1e, n2e, ce]).unwrap();
        let cp = CompiledPattern::compile_single(&p).unwrap();
        let spec = QueryPartitioner::analyze(&[cp], |_| 1.0).unwrap();
        assert_eq!(spec.disposition(t(1)), Some(TypeDisposition::Replicated));
        assert_eq!(
            spec.disposition(t(2)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
    }

    #[test]
    fn multi_branch_single_element_rule_keeps_type_partitioned() {
        // Branch 1 keys A–B on attr 0; branch 2 uses a *single* A with C:
        // the lone A keys its branch by itself, so A may stay partitioned
        // even though branch 2 carries no equality for it.
        let mut b = PatternBuilder::new(100);
        let a1 = b.event(t(0), "a1");
        let bb = b.event(t(1), "b");
        let a2 = b.event(t(0), "a2");
        let c = b.event(t(2), "c");
        b.predicate(Predicate::attr_cmp(a1.pos(), 0, CmpOp::Eq, bb.pos(), 0));
        let s1 = crate::pattern::PatternExpr::Seq(vec![b.expr(a1), b.expr(bb)]);
        let s2 = crate::pattern::PatternExpr::Seq(vec![b.expr(a2), b.expr(c)]);
        let p = b.or_exprs([s1, s2]).unwrap();
        let branches = CompiledPattern::compile(&p).unwrap();
        assert_eq!(branches.len(), 2);
        let spec = QueryPartitioner::analyze(&branches, rates(&[(0, 1.0), (1, 2.0)])).unwrap();
        assert_eq!(
            spec.disposition(t(0)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
        assert_eq!(
            spec.disposition(t(1)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
        assert_eq!(spec.disposition(t(2)), Some(TypeDisposition::Replicated));
        spec.validate(&branches).unwrap();
    }

    #[test]
    fn multi_branch_unlinked_pair_forces_replication() {
        // Branch 2 binds *two* unlinked A events: no key can hold them on
        // one shard, so A must be replicated globally — classification is
        // per type, and the weakest branch wins.
        let mut b = PatternBuilder::new(100);
        let a1 = b.event(t(0), "a1");
        let bb = b.event(t(1), "b");
        let a2 = b.event(t(0), "a2");
        let a3 = b.event(t(0), "a3");
        b.predicate(Predicate::attr_cmp(a1.pos(), 0, CmpOp::Eq, bb.pos(), 0));
        let s1 = crate::pattern::PatternExpr::Seq(vec![b.expr(a1), b.expr(bb)]);
        let s2 = crate::pattern::PatternExpr::Seq(vec![b.expr(a2), b.expr(a3)]);
        let p = b.or_exprs([s1, s2]).unwrap();
        let branches = CompiledPattern::compile(&p).unwrap();
        let spec = QueryPartitioner::analyze(&branches, rates(&[(0, 1.0), (1, 2.0)])).unwrap();
        assert_eq!(spec.disposition(t(0)), Some(TypeDisposition::Replicated));
        assert_eq!(
            spec.disposition(t(1)),
            Some(TypeDisposition::Partitioned { attr: 0 })
        );
        spec.validate(&branches).unwrap();
    }

    #[test]
    fn validate_rejects_unsound_hand_built_specs() {
        let cp = cross_key_branch();
        // Partitioning the unkeyed type C is unsound.
        let bad = PartitionSpec::new([
            (t(0), TypeDisposition::Partitioned { attr: 0 }),
            (t(1), TypeDisposition::Partitioned { attr: 0 }),
            (t(2), TypeDisposition::Partitioned { attr: 0 }),
        ]);
        let err = bad.validate(std::slice::from_ref(&cp)).unwrap_err();
        assert!(matches!(err, CepError::Routing(_)), "{err}");
        // Missing coverage is rejected too.
        let partial = PartitionSpec::new([(t(0), TypeDisposition::Partitioned { attr: 0 })]);
        assert!(partial.validate(std::slice::from_ref(&cp)).is_err());
        // The analyzer's own output validates.
        QueryPartitioner::analyze(std::slice::from_ref(&cp), |_| 1.0)
            .unwrap()
            .validate(std::slice::from_ref(&cp))
            .unwrap();
    }

    /// Regression: the rate mass was summed in `HashMap` order, so two
    /// assignments of equal mass (here all-`a0` and all-`a1`) could swap
    /// places from one call to the next by an ulp of the float sum.
    #[test]
    fn equal_mass_ties_break_the_same_way_every_call() {
        let mut b = PatternBuilder::new(100);
        let a = b.event(t(0), "a");
        let bb = b.event(t(1), "b");
        let c = b.event(t(2), "c");
        for attr in [0, 1] {
            b.predicate(Predicate::attr_cmp(
                a.pos(),
                attr,
                CmpOp::Eq,
                bb.pos(),
                attr,
            ));
            b.predicate(Predicate::attr_cmp(
                bb.pos(),
                attr,
                CmpOp::Eq,
                c.pos(),
                attr,
            ));
        }
        let cp = CompiledPattern::compile_single(&b.seq([a, bb, c]).unwrap()).unwrap();
        for _ in 0..64 {
            let spec = QueryPartitioner::analyze(std::slice::from_ref(&cp), |ty| {
                10.0 / (1.0 + ty.0 as f64)
            })
            .unwrap();
            assert_eq!(
                spec.to_string(),
                "{T0: partitioned(a0), T1: partitioned(a0), T2: partitioned(a0)}"
            );
        }
    }

    #[test]
    fn empty_branches_rejected() {
        assert!(QueryPartitioner::analyze(&[], |_| 1.0).is_err());
        assert!(partition_local_on(&[], 0).is_err());
        assert!(PartitionSpec::default().validate(&[]).is_err());
    }

    #[test]
    fn display_renders_dispositions() {
        let spec = PartitionSpec::new([
            (t(0), TypeDisposition::Partitioned { attr: 2 }),
            (t(1), TypeDisposition::Replicated),
        ]);
        assert_eq!(spec.to_string(), "{T0: partitioned(a2), T1: replicated}");
    }
}
