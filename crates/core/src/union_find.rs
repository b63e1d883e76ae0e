//! A small union-find (disjoint-set) structure, shared by the equality
//! classes of [`crate::join_graph`] and the congruence-closure pass in
//! `cep-analyze`.

/// Disjoint-set forest over dense `usize` ids.
///
/// Starts empty ([`Default`]); ids are allocated with [`UnionFind::make`]
/// and merged with [`UnionFind::union`]. The representative of a class is
/// always the smallest id that was merged into it, which keeps results
/// deterministic regardless of union order.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// Allocates a fresh singleton class and returns its id.
    pub fn make(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        id
    }

    /// Returns the representative of `id`'s class.
    ///
    /// Takes `&self` (no path compression) so lookups work on shared
    /// references; chains stay short because unions always point the
    /// larger root at the smaller one.
    pub fn find(&self, mut id: usize) -> usize {
        while self.parent[id] != id {
            id = self.parent[id];
        }
        id
    }

    /// Merges the classes of `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_their_own_roots() {
        let mut uf = UnionFind::default();
        let a = uf.make();
        let b = uf.make();
        assert_eq!(uf.find(a), a);
        assert_eq!(uf.find(b), b);
        assert_ne!(uf.find(a), uf.find(b));
        assert_eq!(uf.make(), 2);
    }

    #[test]
    fn union_uses_smallest_id_as_representative() {
        let mut uf = UnionFind::default();
        let ids: Vec<usize> = (0..5).map(|_| uf.make()).collect();
        uf.union(ids[3], ids[4]);
        uf.union(ids[4], ids[1]);
        assert_eq!(uf.find(ids[3]), ids[1]);
        assert_eq!(uf.find(ids[4]), ids[1]);
        assert_ne!(uf.find(ids[0]), uf.find(ids[1]));
        uf.union(ids[0], ids[3]);
        assert_eq!(uf.find(ids[4]), ids[0]);
    }

    #[test]
    fn union_is_idempotent() {
        let mut uf = UnionFind::default();
        let a = uf.make();
        let b = uf.make();
        uf.union(a, b);
        uf.union(a, b);
        uf.union(b, a);
        assert_eq!(uf.find(a), uf.find(b));
    }
}
