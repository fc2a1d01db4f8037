//! A copy-on-write ordered map: sorted leaves of at most [`LEAF_CAP`]
//! entries behind `Arc`, under one `Vec` of leaf pointers and the
//! separator keys that route to them.
//!
//! It is the ordered map of every structure a commit writes — the
//! per-path value counts of the storage statistics and the postings of
//! each physical index. The server is snapshot-isolated: a group commit
//! clones the collection it writes while readers keep the old one. With
//! a `BTreeMap` that clone deep-copied every entry, once per commit;
//! here [`Clone`] copies the leaf pointers and separators only, and a
//! mutation copies (`Arc::make_mut`) the one leaf it lands in and
//! nothing else — the in-memory form of a paged B-tree whose update
//! rewrites one page.
//!
//! Invariants: every leaf is non-empty and sorted by key, and
//! `seps[i]` is above every key of leaf `i` and at most every key of
//! leaf `i + 1` (a B+-tree separator: set from the right half's first
//! key when a leaf splits, and never updated, since removals keep it a
//! valid bound). A leaf emptied by removals is dropped with its
//! separator; underfull leaves are not merged. Keys are cloned into
//! separators, so they should be cheap to clone (`Arc<str>`, numbers).

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Entries per leaf before it splits: the unit a mutation copies.
pub const LEAF_CAP: usize = 64;

type Leaf<K, V> = Arc<Vec<(K, V)>>;

/// An ordered map whose clone shares every leaf (see the module docs).
#[derive(Clone)]
pub struct CowMap<K, V> {
    /// `seps[i]` routes between leaf `i` and leaf `i + 1`.
    seps: Vec<K>,
    leaves: Vec<Leaf<K, V>>,
    len: usize,
}

impl<K, V> Default for CowMap<K, V> {
    fn default() -> Self {
        CowMap {
            seps: Vec::new(),
            leaves: Vec::new(),
            len: 0,
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for CowMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                self.leaves
                    .iter()
                    .flat_map(|l| l.iter().map(|(k, v)| (k, v))),
            )
            .finish()
    }
}

impl<K: Ord + Clone, V: Clone> CowMap<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaf that holds `key`, or would receive it.
    fn leaf_for<Q: Ord + ?Sized>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
    {
        partition_point(&self.seps, |s| s.borrow() <= key)
    }

    /// First position `(leaf, offset)` whose key is not `before`; every
    /// earlier key is. `before` must be monotone in key order. The
    /// offset may equal the leaf's length (the position is then the
    /// start of the next leaf).
    fn seek(&self, before: impl Fn(&K) -> bool) -> (usize, usize) {
        // Leaf `i`'s keys are below `seps[i]`, so a separator that is
        // `before` puts its whole left leaf before.
        let leaf = partition_point(&self.seps, &before);
        let offset = self
            .leaves
            .get(leaf)
            .map_or(0, |l| partition_point(l, |(k, _)| before(k)));
        (leaf, offset)
    }

    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let leaf = self.leaves.get(self.leaf_for(key))?;
        let pos = search(leaf, key).ok()?;
        Some(&leaf[pos].1)
    }

    /// The value under `key`, first inserting `V::default()` under
    /// `make_key()` if absent (the key is built only on a miss). Copies
    /// at most the one leaf the key lands in, splitting it when full.
    pub fn upsert<Q: Ord + ?Sized>(&mut self, key: &Q, make_key: impl FnOnce() -> K) -> &mut V
    where
        K: Borrow<Q>,
        V: Default,
    {
        if self.leaves.is_empty() {
            self.len = 1;
            self.leaves.push(Arc::new(vec![(make_key(), V::default())]));
            return &mut Arc::make_mut(&mut self.leaves[0])[0].1;
        }
        let mut li = self.leaf_for(key);
        let mut pos = match search(&self.leaves[li], key) {
            Ok(pos) => return &mut Arc::make_mut(&mut self.leaves[li])[pos].1,
            Err(pos) => pos,
        };
        if self.leaves[li].len() >= LEAF_CAP {
            let right = Arc::make_mut(&mut self.leaves[li]).split_off(LEAF_CAP / 2);
            self.seps.insert(li, right[0].0.clone());
            self.leaves.insert(li + 1, Arc::new(right));
            if pos > LEAF_CAP / 2 {
                li += 1;
                pos -= LEAF_CAP / 2;
            }
        }
        let leaf = Arc::make_mut(&mut self.leaves[li]);
        leaf.insert(pos, (make_key(), V::default()));
        self.len += 1;
        &mut leaf[pos].1
    }

    /// Apply `f` to the value under `key` and remove the entry when `f`
    /// returns false (decrement-and-remove). Absent keys are left alone
    /// and copy nothing.
    pub fn update_or_remove<Q: Ord + ?Sized>(&mut self, key: &Q, f: impl FnOnce(&mut V) -> bool)
    where
        K: Borrow<Q>,
    {
        let li = self.leaf_for(key);
        let Some(leaf) = self.leaves.get(li) else {
            return;
        };
        let Ok(pos) = search(leaf, key) else {
            return;
        };
        let leaf = Arc::make_mut(&mut self.leaves[li]);
        if !f(&mut leaf[pos].1) {
            leaf.remove(pos);
            self.len -= 1;
            if leaf.is_empty() {
                self.remove_leaf(li);
            }
        }
    }

    /// Keep the entries `f` returns true for, letting it edit each
    /// value. `f` may change any entry, so every shared leaf is copied:
    /// O(n), for bulk edits off the commit path.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        for leaf in &mut self.leaves {
            Arc::make_mut(leaf).retain_mut(|(k, v)| f(k, v));
        }
        for li in (0..self.leaves.len()).rev() {
            if self.leaves[li].is_empty() {
                self.remove_leaf(li);
            }
        }
        self.len = self.leaves.iter().map(|l| l.len()).sum();
    }

    /// Drop an emptied leaf and the separator below it (the one above
    /// it for the first leaf): the neighbours' bounds stay valid.
    fn remove_leaf(&mut self, li: usize) {
        self.leaves.remove(li);
        if !self.seps.is_empty() {
            self.seps.remove(li.saturating_sub(1));
        }
    }

    /// Entries with keys between `lo` and `hi`, in key order.
    pub fn range<Q: Ord + ?Sized>(
        &self,
        lo: Bound<&Q>,
        hi: Bound<&Q>,
    ) -> impl Iterator<Item = (&K, &V)> + '_
    where
        K: Borrow<Q>,
    {
        let (first, from) = self.seek(|k| match lo {
            Bound::Included(q) => k.borrow() < q,
            Bound::Excluded(q) => k.borrow() <= q,
            Bound::Unbounded => false,
        });
        let (last, to) = self.seek(|k| match hi {
            Bound::Included(q) => k.borrow() <= q,
            Bound::Excluded(q) => k.borrow() < q,
            Bound::Unbounded => true,
        });
        (first..self.leaves.len().min(last + 1)).flat_map(move |i| {
            let leaf = &self.leaves[i];
            let start = if i == first { from } else { 0 };
            let end = if i == last { to } else { leaf.len() };
            leaf[start..end.max(start)].iter().map(|(k, v)| (k, v))
        })
    }

    /// Every entry, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.leaves
            .iter()
            .flat_map(|l| l.iter().map(|(k, v)| (k, v)))
    }

    /// Every value, in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// The largest key.
    pub fn last_key(&self) -> Option<&K> {
        let leaf = self.leaves.last()?;
        Some(&leaf.last().expect("leaves are never empty").0)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Leaves of `self` that are not the same allocation as any leaf of
    /// `base`: what writing to a clone of `base` has copied.
    pub fn unshared_leaves(&self, base: &Self) -> usize {
        let shared: HashSet<*const Vec<(K, V)>> = base.leaves.iter().map(Arc::as_ptr).collect();
        self.leaves
            .iter()
            .filter(|l| !shared.contains(&Arc::as_ptr(l)))
            .count()
    }
}

/// `key`'s position in a leaf, or where it would go.
fn search<K: Borrow<Q>, V, Q: Ord + ?Sized>(leaf: &[(K, V)], key: &Q) -> Result<usize, usize> {
    let pos = partition_point(leaf, |(k, _)| k.borrow() < key);
    match leaf.get(pos) {
        Some((k, _)) if k.borrow() == key => Ok(pos),
        _ => Err(pos),
    }
}

/// `slice::partition_point`, finishing with a linear scan once 16 or
/// fewer items remain. A scan's comparisons are independent and
/// predicted, while each step of a binary search waits on the last: over
/// `Arc<str>` keys a lookup among 300 took 118 ns as a binary search,
/// 36 ns in a `BTreeMap`.
fn partition_point<T>(items: &[T], before: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut hi) = (0, items.len());
    while hi - lo > 16 {
        let mid = lo + (hi - lo) / 2;
        if before(&items[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo + items[lo..hi].iter().take_while(|t| before(t)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u32) -> CowMap<u32, u32> {
        let mut m = CowMap::new();
        for k in 0..n {
            *m.upsert(&(k * 2), || k * 2) += k;
        }
        m
    }

    #[test]
    fn splits_keep_order_and_len() {
        let m = filled(1000);
        assert_eq!(m.len(), 1000);
        assert!(m.leaf_count() > 1000 / LEAF_CAP);
        assert_eq!(m.seps.len(), m.leaf_count() - 1);
        let keys: Vec<u32> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..1000).map(|k| k * 2).collect::<Vec<_>>());
        assert_eq!(m.last_key(), Some(&1998));
        assert_eq!(m.get(&500), Some(&250));
        assert_eq!(m.get(&501), None);
    }

    #[test]
    fn range_bounds() {
        let m = filled(200);
        let keys = |lo, hi| m.range(lo, hi).map(|(k, _)| *k).collect::<Vec<u32>>();
        assert_eq!(
            keys(Bound::Excluded(&10), Bound::Included(&16)),
            [12, 14, 16]
        );
        assert_eq!(keys(Bound::Included(&11), Bound::Excluded(&16)), [12, 14]);
        assert_eq!(keys(Bound::Included(&397), Bound::Unbounded), [398]);
        assert!(keys(Bound::Included(&20), Bound::Excluded(&10)).is_empty());
        assert_eq!(keys(Bound::Unbounded, Bound::Unbounded).len(), 200);
    }

    #[test]
    fn a_write_copies_one_leaf_of_a_clone() {
        let base = filled(1000);
        let mut m = base.clone();
        assert_eq!(m.unshared_leaves(&base), 0);
        *m.upsert(&500, || 500) += 1;
        m.update_or_remove(&502, |_| false);
        assert_eq!(m.unshared_leaves(&base), 1);
        assert_eq!(base.get(&500), Some(&250));
        assert_eq!(base.get(&502), Some(&251));
        assert_eq!(m.get(&502), None);
    }

    #[test]
    fn emptied_leaves_are_dropped() {
        let mut m = filled(100);
        for k in 0..100 {
            m.update_or_remove(&(k * 2), |_| false);
        }
        assert!(m.is_empty());
        assert_eq!(m.leaf_count(), 0);
        assert!(m.seps.is_empty());
        assert_eq!(m.last_key(), None);
        *m.upsert(&7, || 7) += 1;
        assert_eq!(m.iter().collect::<Vec<_>>(), [(&7, &1)]);
    }
}
