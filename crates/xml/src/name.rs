//! Per-document name interning.
//!
//! Element and attribute names repeat heavily in XML data; every distinct
//! name is stored once in a [`NameTable`] and nodes carry a 4-byte
//! [`NameId`]. Name-test comparisons during XPath evaluation then reduce
//! to integer equality after a single per-document lookup.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Interned name handle, valid only within the [`NameTable`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub(crate) u32);

impl NameId {
    /// Sentinel used by nodes that have no name (text nodes).
    pub const NONE: NameId = NameId(u32::MAX);

    /// Raw index into the table. `NONE` maps to `u32::MAX`.
    #[inline]
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

/// Append-only string interner for element and attribute names.
///
/// A few flat blocks hold the whole table, each name exactly once: the
/// names concatenated in interning order, where each one starts, and an
/// open-addressed hash index of the ids for [`get`](Self::get) and
/// [`intern`](Self::intern). A document keeps its table for as long as
/// a database keeps the document, so the table holds no per-name
/// allocation.
#[derive(Debug, Clone)]
pub struct NameTable {
    /// Every name, concatenated in interning order.
    text: String,
    /// Name `i` is `text[bounds[i]..bounds[i + 1]]`; `bounds[0]` is 0.
    /// Every bound is where a whole `&str` was appended to `text`, so
    /// every bound lies on a char boundary.
    bounds: Vec<u32>,
    /// `slots[h]` holds `id + 1` of a name whose probe sequence passes
    /// `h`, or 0 when free. Its length is a power of two at least twice
    /// the name count, so probe sequences stay short.
    slots: Vec<u32>,
    /// A keyed hash: names come from documents, and a fixed hash would
    /// let a document choose names whose probe sequences all collide.
    hasher: RandomState,
}

impl Default for NameTable {
    fn default() -> Self {
        NameTable {
            text: String::new(),
            bounds: vec![0],
            slots: Vec::new(),
            hasher: RandomState::new(),
        }
    }
}

impl NameTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `name`, or the free slot where it would go. The table
    /// must have slots.
    fn find(&self, name: &str) -> Result<NameId, usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[at] {
                0 => return Err(at),
                s if self.resolve(NameId(s - 1)) == name => return Ok(NameId(s - 1)),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Double the hash index (at least 8 slots) and re-place every id.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(8);
        self.slots = vec![0; len];
        for i in 0..self.len() as u32 {
            let Err(at) = self.find(self.resolve(NameId(i))) else {
                unreachable!("interned names are distinct");
            };
            self.slots[at] = i + 1;
        }
    }

    /// Intern `name`, returning the existing id if already present.
    pub fn intern(&mut self, name: &str) -> NameId {
        if self.slots.len() < 2 * (self.len() + 1) {
            self.grow();
        }
        match self.find(name) {
            Ok(id) => id,
            Err(at) => {
                let id = NameId(self.len() as u32);
                self.text.push_str(name);
                let end = u32::try_from(self.text.len()).expect("a document's names exceed 4 GiB");
                self.bounds.push(end);
                self.slots[at] = id.0 + 1;
                id
            }
        }
    }

    /// Look up a name without interning it. Returns `None` for unseen names,
    /// which callers use to short-circuit name tests that can never match.
    pub fn get(&self, name: &str) -> Option<NameId> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(name).ok()
    }

    /// Resolve an id back to its string. Panics on `NameId::NONE` or a
    /// foreign id; both indicate a logic error.
    #[inline]
    pub fn resolve(&self, id: NameId) -> &str {
        let i = id.0 as usize;
        let (start, end) = (self.bounds[i] as usize, self.bounds[i + 1] as usize);
        // Name tests compare a resolved name per node, so this skips the
        // char-boundary checks of `&self.text[start..end]`.
        debug_assert!(self.text.is_char_boundary(start) && self.text.is_char_boundary(end));
        // SAFETY: `bounds` is private and only `intern` extends it, with
        // the length of `text` right after appending a whole `&str`;
        // `text` is only ever appended to. So `start <= end <= len` and
        // both lie on char boundaries.
        unsafe { self.text.get_unchecked(start..end) }
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &str)> {
        (0..self.len() as u32).map(|i| (NameId(i), self.resolve(NameId(i))))
    }

    /// Drop the growth slack of a finished table.
    pub(crate) fn seal(&mut self) {
        self.text.shrink_to_fit();
        self.bounds.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = NameTable::new();
        let a = t.intern("item");
        let b = t.intern("item");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let mut t = NameTable::new();
        let a = t.intern("item");
        let b = t.intern("price");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "item");
        assert_eq!(t.resolve(b), "price");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = NameTable::new();
        assert_eq!(t.get("missing"), None);
        let id = t.intern("present");
        assert_eq!(t.get("present"), Some(id));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_yields_in_order() {
        let mut t = NameTable::new();
        t.intern("a");
        t.intern("b");
        let names: Vec<_> = t.iter().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn get_and_intern_agree_in_any_order() {
        let mut t = NameTable::new();
        let words = ["price", "item", "a", "zeta", "item", "b", "", "price"];
        let ids: Vec<NameId> = words.iter().map(|w| t.intern(w)).collect();
        assert_eq!(t.len(), 6);
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(t.get(w), Some(*id));
            assert_eq!(t.resolve(*id), *w);
        }
        assert_eq!(t.get("pric"), None);
    }
}
