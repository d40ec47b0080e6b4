//! String interning for node values, edge predicates, and node types.
//!
//! The ontology stores each distinct string once and refers to it by a
//! dense `u32` index. Interning keeps the hot matching loops of the query
//! engine free of string comparisons: label equality is integer equality.
//!
//! Two storage modes share one type:
//!
//! * **Dynamic** — one shared `Arc<str>` per label plus a hash index;
//!   what the incremental [`intern`](Interner::intern) path produces.
//! * **Sorted arena** — all labels concatenated in one allocation with an
//!   offset table, built by [`Interner::from_sorted_labels`] from an
//!   already-sorted unique label set (the persistent store's dictionary
//!   order). Lookup is a binary search over the arena — no hash map is
//!   ever built, which is what makes snapshot cold-start O(bytes copied)
//!   instead of O(labels hashed). Labels interned *after* arena
//!   construction (live ontology updates) go to a dynamic overflow
//!   section with ids continuing past the arena, so an arena-backed
//!   interner still supports `intern`.
//!
//! Label bytes are immutable and shared (`Arc`) in both modes, so every
//! ontology version [`Ontology::apply_delta`](crate::Ontology::apply_delta)
//! derives reuses its predecessor's labels instead of copying them.

use std::collections::HashMap;
use std::sync::Arc;

use crate::delta::retained_capacity;

/// Sorted label arena: `text[offs[i]..offs[i+1]]` is label `i`, labels
/// strictly ascending.
#[derive(Debug, Clone)]
struct SortedArena {
    text: Box<str>,
    offs: Vec<u32>,
}

impl SortedArena {
    fn len(&self) -> usize {
        self.offs.len() - 1
    }

    #[inline]
    fn label(&self, i: usize) -> &str {
        &self.text[self.offs[i] as usize..self.offs[i + 1] as usize]
    }

    fn lookup(&self, s: &str) -> Option<u32> {
        let n = self.len();
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.label(mid).cmp(s) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }
}

/// A dense string interner.
///
/// Strings are assigned consecutive `u32` indexes in insertion order.
/// Lookup by string is `O(1)` average (hash map) or `O(log n)` (sorted
/// arena mode); lookup by index is a direct array access either way.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Arena-backed prefix: ids `0..arena.len()` resolve here.
    arena: Option<Arc<SortedArena>>,
    /// Dynamic labels; ids continue after the arena prefix.
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner with capacity for `cap` strings.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            arena: None,
            strings: Vec::with_capacity(cap),
            index: HashMap::with_capacity(cap),
        }
    }

    /// Builds an interner whose index assignment is exactly the order of
    /// `labels` (label `i` gets index `i`).
    ///
    /// This is the bulk-construction path used when decoding a persistent
    /// store snapshot, where the label set is already deduplicated and
    /// id-stable (sorted), so per-string `intern` probing is wasted work.
    /// Returns `None` if any label repeats.
    pub fn from_unique_labels<I>(labels: I) -> Option<Self>
    where
        I: IntoIterator<Item = Box<str>>,
    {
        let iter = labels.into_iter();
        let (lo, _) = iter.size_hint();
        let mut strings: Vec<Arc<str>> = Vec::with_capacity(lo);
        let mut index: HashMap<Arc<str>, u32> = HashMap::with_capacity(lo);
        for s in iter {
            let s: Arc<str> = s.into();
            let i = u32::try_from(strings.len()).ok()?;
            if index.insert(s.clone(), i).is_some() {
                return None;
            }
            strings.push(s);
        }
        Some(Self {
            arena: None,
            strings,
            index,
        })
    }

    /// Builds an arena-backed interner from labels in **strictly
    /// ascending** order (label `i` gets index `i`).
    ///
    /// One allocation for all label bytes, one for the offset table, no
    /// hash map: this is the snapshot cold-start fast path — the store's
    /// dictionaries are sorted on disk, so handing them over costs a
    /// memcpy instead of a per-label hash build. `byte_hint` sizes the
    /// arena up front. Returns `None` if the labels are not strictly
    /// ascending (which also guarantees uniqueness) or overflow `u32`
    /// ids/offsets.
    pub fn from_sorted_labels<'a, I>(labels: I, byte_hint: usize) -> Option<Self>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut text = String::with_capacity(byte_hint);
        let mut offs: Vec<u32> = vec![0];
        let mut prev_start = 0usize;
        let mut first = true;
        for s in labels {
            if !first && &text[prev_start..] >= s {
                return None;
            }
            first = false;
            prev_start = text.len();
            text.push_str(s);
            offs.push(u32::try_from(text.len()).ok()?);
            u32::try_from(offs.len() - 1).ok()?;
        }
        Some(Self {
            arena: Some(Arc::new(SortedArena {
                text: text.into_boxed_str(),
                offs,
            })),
            strings: Vec::new(),
            index: HashMap::new(),
        })
    }

    #[inline]
    fn arena_len(&self) -> usize {
        self.arena.as_ref().map_or(0, |a| a.len())
    }

    /// A copy for the next ontology version with room for `additional`
    /// new labels: label bytes are shared, not copied, and the overflow
    /// table keeps its capacity (see [`retained_capacity`]).
    pub(crate) fn fork(&self, additional: usize) -> Self {
        let len = self.strings.len();
        let mut strings =
            Vec::with_capacity(retained_capacity(self.strings.capacity(), len + additional));
        strings.extend(self.strings.iter().cloned());
        Self {
            arena: self.arena.clone(),
            strings,
            index: self.index.clone(),
        }
    }

    /// Interns `s`, returning its index; re-interning returns the same
    /// index without allocating.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(i) = self.get(s) {
            return i;
        }
        let i = u32::try_from(self.arena_len() + self.strings.len()).expect("interner overflow");
        let label: Arc<str> = s.into();
        self.strings.push(Arc::clone(&label));
        self.index.insert(label, i);
        i
    }

    /// Returns the index of `s` if it was interned before.
    pub fn get(&self, s: &str) -> Option<u32> {
        if let Some(arena) = &self.arena {
            if let Some(i) = arena.lookup(s) {
                return Some(i);
            }
        }
        self.index.get(s).copied()
    }

    /// Resolves an index back to its string.
    ///
    /// # Panics
    /// Panics if `i` was not produced by this interner.
    pub fn resolve(&self, i: u32) -> &str {
        let base = self.arena_len();
        if (i as usize) < base {
            self.arena.as_ref().expect("arena prefix").label(i as usize)
        } else {
            &self.strings[i as usize - base]
        }
    }

    /// Resolves an index if it is in range.
    pub fn try_resolve(&self, i: u32) -> Option<&str> {
        let base = self.arena_len();
        if (i as usize) < base {
            return Some(self.arena.as_ref()?.label(i as usize));
        }
        self.strings.get(i as usize - base).map(|s| &**s)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.arena_len() + self.strings.len()
    }

    /// Whether the interner holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(index, string)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        let base = self.arena_len();
        let arena = self
            .arena
            .as_ref()
            .into_iter()
            .flat_map(|a| (0..a.len()).map(move |i| (i as u32, a.label(i))));
        arena.chain(
            self.strings
                .iter()
                .enumerate()
                .map(move |(i, s)| ((base + i) as u32, &**s)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut it = Interner::new();
        let a = it.intern("wb");
        let b = it.intern("cites");
        let a2 = it.intern("wb");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut it = Interner::new();
        let i = it.intern("Erdos");
        assert_eq!(it.resolve(i), "Erdos");
        assert_eq!(it.get("Erdos"), Some(i));
        assert_eq!(it.get("Alice"), None);
        assert_eq!(it.try_resolve(i), Some("Erdos"));
        assert_eq!(it.try_resolve(i + 1), None);
    }

    #[test]
    fn indexes_are_dense_and_ordered() {
        let mut it = Interner::new();
        for (expect, s) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(it.intern(s), expect as u32);
        }
        let collected: Vec<_> = it.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }

    #[test]
    fn from_unique_labels_preserves_order_and_rejects_duplicates() {
        let it =
            Interner::from_unique_labels(["a", "b", "c"].map(Box::<str>::from)).expect("unique");
        assert_eq!(it.len(), 3);
        assert_eq!(it.get("b"), Some(1));
        assert_eq!(it.resolve(2), "c");
        assert!(Interner::from_unique_labels(["a", "b", "a"].map(Box::<str>::from)).is_none());
    }

    #[test]
    fn empty_interner_reports_empty() {
        let it = Interner::new();
        assert!(it.is_empty());
        assert_eq!(it.len(), 0);
    }

    #[test]
    fn sorted_arena_matches_dynamic_behaviour() {
        let labels = ["Alice", "Bob", "paper1", "paper2", "zeta"];
        let arena = Interner::from_sorted_labels(labels.iter().copied(), 32).expect("sorted");
        let mut dynamic = Interner::new();
        for s in labels {
            dynamic.intern(s);
        }
        assert_eq!(arena.len(), dynamic.len());
        for (i, s) in labels.iter().enumerate() {
            assert_eq!(arena.get(s), Some(i as u32));
            assert_eq!(arena.resolve(i as u32), *s);
            assert_eq!(arena.try_resolve(i as u32), Some(*s));
        }
        assert_eq!(arena.get("nope"), None);
        assert_eq!(arena.try_resolve(labels.len() as u32), None);
        let collected: Vec<_> = arena.iter().map(|(i, s)| (i, s.to_string())).collect();
        let expect: Vec<_> = labels
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.to_string()))
            .collect();
        assert_eq!(collected, expect);
    }

    #[test]
    fn sorted_arena_rejects_unsorted_and_duplicate_labels() {
        assert!(Interner::from_sorted_labels(["b", "a"], 8).is_none());
        assert!(Interner::from_sorted_labels(["a", "a"], 8).is_none());
        assert!(Interner::from_sorted_labels(std::iter::empty(), 0).is_some());
    }

    #[test]
    fn arena_overflow_section_keeps_interning() {
        let mut it = Interner::from_sorted_labels(["a", "c"], 4).expect("sorted");
        assert_eq!(it.intern("a"), 0);
        let b = it.intern("b"); // unsorted append lands in the overflow
        assert_eq!(b, 2);
        assert_eq!(it.intern("b"), 2);
        assert_eq!(it.resolve(2), "b");
        assert_eq!(it.get("b"), Some(2));
        assert_eq!(it.len(), 3);
        let collected: Vec<_> = it.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, vec!["a", "c", "b"]);
    }
}
