//! Hash-partitioned join state of the tree engine.
//!
//! A join step that carries an `a.x == b.y` predicate between two
//! non-Kleene elements (an [`EqJoin`](crate::join_graph::EqJoin)) keeps
//! its state — waiting instances, buffered events — in a [`KeyedStore`]
//! bucketed by the canonical [`IndexKey`] of the join attribute. An
//! arriving event or entering instance then visits only the bucket of its
//! own key: members of every other bucket could never have passed the
//! equality, so the successes, and the order they occur in, are exactly
//! those of a scan over the whole store. A step without a usable key puts
//! everything in the store's one unkeyed bucket ([`Slot::All`]) and runs
//! the same code.

use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Hashable canonical form of a [`Value`] for equality-join probes.
///
/// Numeric values hash by their `f64` image (with `-0.0` folded into
/// `+0.0`) so `Int(1)` and `Float(1.0)` land in the same bucket, matching
/// [`Value::partial_cmp_value`]'s cross-kind equality. `NaN` has no key at
/// all — `==` never holds for it. Collisions are harmless (bucket members
/// are re-checked by the full predicate evaluator); missed candidates are
/// impossible by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexKey {
    /// Canonicalized bit pattern of the value's `f64` image.
    Num(u64),
    /// Boolean values hash as themselves.
    Bool(bool),
    /// String values hash by content.
    Str(Arc<str>),
}

/// The canonical equality key of `value`, or `None` when no event can ever
/// compare `==` to it (`NaN`). (`#[inline]`: called per probe and per
/// index write from the engine crates.)
#[inline]
pub fn index_key(value: &Value) -> Option<IndexKey> {
    fn canon(f: f64) -> u64 {
        if f == 0.0 {
            0.0f64.to_bits()
        } else {
            f.to_bits()
        }
    }
    match value {
        Value::Int(i) => Some(IndexKey::Num(canon(*i as f64))),
        Value::Float(f) => {
            if f.is_nan() {
                None
            } else {
                Some(IndexKey::Num(canon(*f)))
            }
        }
        Value::Bool(b) => Some(IndexKey::Bool(*b)),
        Value::Str(s) => Some(IndexKey::Str(s.clone())),
    }
}

/// The bucket address of one member, or of one probe, of a [`KeyedStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// The step has no equality key: every member lives in, and every
    /// probe visits, the store's one unkeyed bucket.
    All,
    /// Keyed step, hashable join value.
    Key(IndexKey),
    /// Keyed step whose join value compares `==` to nothing (`NaN`, missing
    /// attribute): as a member it is parked unprobed until it expires, as
    /// a probe it visits nothing.
    Never,
}

impl Slot {
    /// The slot of a keyed step's join value.
    #[inline]
    pub fn of(value: Option<&Value>) -> Slot {
        value.and_then(index_key).map_or(Slot::Never, Slot::Key)
    }
}

/// Insertion-ordered buckets under a hash map of [`IndexKey`]s, plus one
/// unkeyed bucket holding the [`Slot::All`] and [`Slot::Never`] members.
///
/// One store only ever sees `All` (unkeyed step) or `Key`/`Never` (keyed
/// step), so the unkeyed bucket is either the whole store or its parked
/// members. Nothing is allocated before the first push, and pruning drops
/// emptied keyed buckets, so key churn cannot grow the map without bound.
#[derive(Debug)]
pub struct KeyedStore<T> {
    /// `buckets[0]` is the unkeyed bucket.
    buckets: Vec<Vec<T>>,
    by_key: HashMap<IndexKey, usize>,
    /// Emptied keyed buckets awaiting reuse.
    free: Vec<usize>,
    len: usize,
}

impl<T> Default for KeyedStore<T> {
    fn default() -> Self {
        KeyedStore {
            buckets: Vec::new(),
            by_key: HashMap::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

impl<T> KeyedStore<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members across all buckets, maintained on push and removal.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `item` to the bucket `slot` addresses.
    pub fn push(&mut self, slot: Slot, item: T) {
        if self.buckets.is_empty() {
            self.buckets.push(Vec::new());
        }
        let id = match slot {
            Slot::All | Slot::Never => 0,
            Slot::Key(key) => *self.by_key.entry(key).or_insert_with(|| {
                self.free.pop().unwrap_or_else(|| {
                    self.buckets.push(Vec::new());
                    self.buckets.len() - 1
                })
            }),
        };
        self.buckets[id].push(item);
        self.len += 1;
    }

    /// [`push`](Self::push) into a store whose buckets are filled in
    /// `key` order (the engines' time-sorted join state); debug builds
    /// check that `item` sorts at or after the bucket's last member.
    pub fn push_in_order(&mut self, slot: Slot, item: T, key: impl Fn(&T) -> u64) {
        debug_assert!(
            self.visit(&slot)
                .last()
                .is_none_or(|last| key(last) <= key(&item)),
            "bucket members are pushed in key order"
        );
        self.push(slot, item);
    }

    /// The members a probe with `slot` visits, in insertion order: the
    /// bucket of its key, the unkeyed bucket for [`Slot::All`], and none
    /// for [`Slot::Never`].
    pub fn visit(&self, slot: &Slot) -> &[T] {
        let id = match slot {
            Slot::All => Some(0),
            Slot::Key(key) => self.by_key.get(key).copied(),
            Slot::Never => None,
        };
        id.and_then(|id| self.buckets.get(id))
            .map_or(&[], Vec::as_slice)
    }

    /// Stable in-place retain: members failing `keep` are dropped, kept
    /// members preserve their relative order within their bucket (engines
    /// emit matches in bucket order, so order stability is load-bearing for
    /// byte-identical output). Emptied keyed buckets are dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for bucket in &mut self.buckets {
            let before = bucket.len();
            bucket.retain(&mut keep);
            self.len -= before - bucket.len();
        }
        self.drop_empty_buckets();
    }

    /// Removes from the front of every bucket the members `expired` holds
    /// for, stopping at the first it does not: the prune of a store whose
    /// buckets are in expiry order (events in arrival order). Emptied
    /// keyed buckets are dropped.
    pub fn drain_front_while(&mut self, mut expired: impl FnMut(&T) -> bool) {
        for bucket in &mut self.buckets {
            let n = bucket.iter().take_while(|item| expired(item)).count();
            bucket.drain(..n);
            self.len -= n;
        }
        self.drop_empty_buckets();
    }

    fn drop_empty_buckets(&mut self) {
        let (buckets, free) = (&mut self.buckets, &mut self.free);
        self.by_key.retain(|_, id| {
            let live = !buckets[*id].is_empty();
            if !live {
                buckets[*id] = Vec::new();
                free.push(*id);
            }
            live
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: i64) -> Slot {
        Slot::of(Some(&Value::Int(i)))
    }

    #[test]
    fn numeric_keys_unify_int_and_float() {
        assert_eq!(
            index_key(&Value::Int(1)),
            index_key(&Value::Float(1.0)),
            "Int/Float equality must share a bucket"
        );
        assert_eq!(index_key(&Value::Float(-0.0)), index_key(&Value::Int(0)));
        assert_eq!(index_key(&Value::Float(f64::NAN)), None);
        assert_ne!(index_key(&Value::Bool(true)), index_key(&Value::Int(1)));
    }

    #[test]
    fn unkeyable_values_are_parked_and_probe_nothing() {
        assert_eq!(Slot::of(None), Slot::Never);
        assert_eq!(Slot::of(Some(&Value::Float(f64::NAN))), Slot::Never);
        let mut store = KeyedStore::new();
        store.push(key(7), 1u32);
        store.push(Slot::Never, 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.visit(&key(7)), vec![1]);
        assert_eq!(store.visit(&Slot::Never), Vec::<u32>::new());
        assert_eq!(store.visit(&key(8)), Vec::<u32>::new());
    }

    #[test]
    fn unkeyed_store_is_one_insertion_ordered_bucket() {
        let mut store = KeyedStore::new();
        assert_eq!(store.visit(&Slot::All), Vec::<u32>::new());
        for i in 0..5u32 {
            store.push(Slot::All, i);
        }
        assert_eq!(store.visit(&Slot::All), vec![0, 1, 2, 3, 4]);
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn retain_is_stable_retires_removed_and_drops_empty_buckets() {
        // Each member holds a reference count, so a removed member that is
        // still held anywhere shows up in the count.
        let live = std::rc::Rc::new(());
        let mut store = KeyedStore::new();
        for i in 0..12u32 {
            store.push(key((i % 3) as i64), (i, live.clone()));
        }
        store.retain(|(i, _)| i % 3 != 0 && i % 2 == 1);
        fn ids<T>(store: &KeyedStore<(u32, T)>, slot: Slot) -> Vec<u32> {
            store.visit(&slot).iter().map(|m| m.0).collect()
        }
        assert_eq!(ids(&store, key(0)), Vec::<u32>::new());
        assert_eq!(ids(&store, key(1)), vec![1, 7]);
        assert_eq!(ids(&store, key(2)), vec![5, 11]);
        assert_eq!(store.len(), 4);
        assert_eq!(
            std::rc::Rc::strong_count(&live),
            1 + 4,
            "removed members dropped"
        );
        assert_eq!(store.by_key.len(), 2, "emptied bucket dropped");
        // The freed slot is reused by the next new key.
        let slots = store.buckets.len();
        store.push(key(9), (99, live.clone()));
        assert_eq!(store.buckets.len(), slots);
        assert_eq!(ids(&store, key(9)), vec![99]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pushed in key order")]
    fn push_in_order_checks_each_bucket_in_debug_builds() {
        let mut store = KeyedStore::new();
        store.push_in_order(key(1), 5u64, |&t| t);
        store.push_in_order(key(2), 3, |&t| t); // another bucket: fine
        store.push_in_order(key(1), 5, |&t| t); // a tie: fine
        store.push_in_order(key(1), 4, |&t| t);
    }

    #[test]
    fn drain_front_while_pops_expired_prefixes_only() {
        let mut store = KeyedStore::new();
        for ts in 0..10u32 {
            store.push(key((ts % 2) as i64), ts);
        }
        store.push(Slot::Never, 3);
        store.drain_front_while(|&ts| ts < 5);
        assert_eq!(store.visit(&key(0)), vec![6, 8]);
        assert_eq!(store.visit(&key(1)), vec![5, 7, 9]);
        assert_eq!(store.len(), 5, "the parked member expired too");
        store.drain_front_while(|_| true);
        assert!(store.is_empty());
        assert!(store.by_key.is_empty());
    }
}
