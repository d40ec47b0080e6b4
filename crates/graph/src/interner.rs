//! String interning for node values, edge predicates, and node types.
//!
//! The ontology stores each distinct string once and refers to it by a
//! dense `u32` index. Interning keeps the hot matching loops of the query
//! engine free of string comparisons: label equality is integer equality.
//!
//! Ids `0..` resolve, in order, through up to three parts:
//!
//! * **Sorted arena** — all labels concatenated in one allocation with an
//!   offset table, built by [`Interner::from_sorted_labels`] from an
//!   already-sorted unique label set (the persistent store's dictionary
//!   order). Lookup is a binary search over the arena — no hash map is
//!   ever built, which is what makes snapshot cold-start O(bytes copied)
//!   instead of O(labels hashed).
//! * **Overflow base** — labels interned past the arena (the builder's
//!   labels, or a live ontology's updates): one `Arc<str>` per label plus
//!   a hash index, behind an `Arc` that every ontology version
//!   [`Ontology::apply_delta`](crate::Ontology::apply_delta) derives
//!   shares with its predecessor. A base no other version holds grows in
//!   place; a shared one is frozen.
//! * **Recent overflow** — this version's labels since the base was last
//!   flattened. Forking a version copies only this part. When it
//!   outgrows an eighth of the base the two are flattened into a new
//!   base, so a fork copies at most an eighth of the base plus one
//!   batch's labels, and flattening costs O(1) amortized per label.
//!
//! Label bytes are immutable and shared (`Arc`) everywhere, so a new
//! version never re-copies a label, and dropping a version frees only its
//! recent part.

use std::collections::HashMap;
use std::sync::Arc;

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

/// Overflow labels in id order, with their hash index.
#[derive(Debug, Default, Clone)]
struct Overflow {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl Overflow {
    fn with_capacity(cap: usize) -> Self {
        Self {
            strings: Vec::with_capacity(cap),
            index: HashMap::with_capacity(cap),
        }
    }

    fn len(&self) -> usize {
        self.strings.len()
    }

    fn push(&mut self, label: Arc<str>, i: u32) {
        self.strings.push(Arc::clone(&label));
        self.index.insert(label, i);
    }
}

/// A dense string interner.
///
/// Strings are assigned consecutive `u32` indexes in insertion order.
/// Lookup by string is `O(1)` average (hash map) or `O(log n)` (sorted
/// arena); lookup by index is a direct array access either way.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Arena-backed prefix: ids `0..arena.len()` resolve here.
    arena: Option<Arc<SortedArena>>,
    /// Overflow shared between versions; ids continue after the arena.
    base: Arc<Overflow>,
    /// This version's overflow since the last flatten; ids continue
    /// after the base. Never longer than an eighth of the base.
    recent: Overflow,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner with capacity for `cap` strings.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            base: Arc::new(Overflow::with_capacity(cap)),
            ..Self::default()
        }
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
            ..Self::default()
        })
    }

    #[inline]
    fn arena_len(&self) -> usize {
        self.arena.as_ref().map_or(0, |a| a.len())
    }

    /// A copy for the next ontology version with room for `additional`
    /// new labels: the arena and the overflow base are shared, only the
    /// recent overflow is copied.
    pub(crate) fn fork(&self, additional: usize) -> Self {
        let mut recent = Overflow {
            strings: Vec::with_capacity(self.recent.len() + additional),
            index: self.recent.index.clone(),
        };
        recent.strings.extend_from_slice(&self.recent.strings);
        recent.index.reserve(additional);
        Self {
            arena: self.arena.clone(),
            base: Arc::clone(&self.base),
            recent,
        }
    }

    /// Moves the recent overflow into the base, copying the base first
    /// if another version shares it.
    fn flatten(&mut self) {
        let recent = std::mem::take(&mut self.recent);
        let base = Arc::make_mut(&mut self.base);
        base.strings.extend(recent.strings);
        base.index.extend(recent.index);
    }

    /// Interns `s`, returning its index; re-interning returns the same
    /// index without allocating.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(i) = self.get(s) {
            return i;
        }
        let i = u32::try_from(self.len()).expect("interner overflow");
        let label: Arc<str> = s.into();
        match Arc::get_mut(&mut self.base) {
            Some(base) if self.recent.strings.is_empty() => base.push(label, i),
            _ => {
                self.recent.push(label, i);
                if self.recent.len() > self.base.len() / 8 {
                    self.flatten();
                }
            }
        }
        i
    }

    /// Returns the index of `s` if it was interned before.
    pub fn get(&self, s: &str) -> Option<u32> {
        if let Some(arena) = &self.arena {
            if let Some(i) = arena.lookup(s) {
                return Some(i);
            }
        }
        self.base
            .index
            .get(s)
            .or_else(|| self.recent.index.get(s))
            .copied()
    }

    /// Resolves an index back to its string.
    ///
    /// # Panics
    /// Panics if `i` was not produced by this interner.
    pub fn resolve(&self, i: u32) -> &str {
        self.try_resolve(i).expect("interned id")
    }

    /// Resolves an index if it is in range.
    pub fn try_resolve(&self, i: u32) -> Option<&str> {
        let arena = self.arena_len();
        let i = i as usize;
        if i < arena {
            return Some(self.arena.as_ref()?.label(i));
        }
        let i = i - arena;
        match self.base.strings.get(i) {
            Some(s) => Some(s),
            None => self.recent.strings.get(i - self.base.len()).map(|s| &**s),
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.arena_len() + self.base.len() + self.recent.len()
    }

    /// Whether the interner holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(index, string)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        let arena = self
            .arena
            .as_ref()
            .into_iter()
            .flat_map(|a| (0..a.len()).map(move |i| a.label(i)));
        let overflow = self.base.strings.iter().chain(&self.recent.strings);
        arena
            .chain(overflow.map(|s| &**s))
            .enumerate()
            .map(|(i, s)| (i as u32, s))
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

    /// A chain of versions the way `Ontology::apply_delta` makes them:
    /// each fork interns one batch of fresh labels (and re-interns an
    /// old one). Returns every version, oldest first.
    fn version_chain(start: Interner, batches: usize, batch: usize) -> Vec<Interner> {
        let mut versions = vec![start];
        for b in 0..batches {
            let prev = versions.last().unwrap();
            let mut next = prev.fork(batch);
            for i in 0..batch {
                next.intern(&format!("label{b}_{i}"));
            }
            next.intern("a");
            versions.push(next);
        }
        versions
    }

    #[test]
    fn forks_share_the_base_and_copy_only_the_recent_part() {
        let start = Interner::from_sorted_labels(["a", "b", "c"], 8).expect("sorted");
        let versions = version_chain(start, 400, 4);
        let mut shared = 0;
        for pair in versions.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            let fork = prev.fork(4);
            assert!(
                Arc::ptr_eq(&fork.base, &prev.base),
                "a fork shares its base"
            );
            assert!(Arc::ptr_eq(
                fork.arena.as_ref().unwrap(),
                prev.arena.as_ref().unwrap()
            ));
            assert!(
                fork.recent.len() <= fork.base.len() / 8 + 4,
                "a fork copied {} labels over a base of {}",
                fork.recent.len(),
                fork.base.len()
            );
            assert!(next.recent.len() <= next.base.len() / 8);
            if Arc::ptr_eq(&next.base, &prev.base) {
                shared += 1;
            }
        }
        // Most versions reuse their predecessor's base outright.
        assert!(shared > 300, "only {shared} of 400 versions share a base");
    }

    #[test]
    fn a_dropped_fork_leaves_its_parent_unchanged() {
        let start = Interner::from_sorted_labels(["a", "b"], 4).expect("sorted");
        let parent = version_chain(start, 50, 4).pop().unwrap();
        let before: Vec<(u32, String)> = parent.iter().map(|(i, s)| (i, s.to_string())).collect();
        let base = Arc::clone(&parent.base);
        {
            // Enough labels to flatten inside the fork more than once.
            let mut fork = parent.fork(4);
            for i in 0..500 {
                fork.intern(&format!("rejected{i}"));
            }
            assert!(!Arc::ptr_eq(&fork.base, &parent.base));
        }
        let after: Vec<(u32, String)> = parent.iter().map(|(i, s)| (i, s.to_string())).collect();
        assert_eq!(before, after);
        assert!(Arc::ptr_eq(&base, &parent.base));
        assert_eq!(parent.get("rejected0"), None);
        assert_eq!(parent.try_resolve(parent.len() as u32), None);
    }

    #[test]
    fn ids_across_flattens_equal_sequential_interning() {
        for start in [
            Interner::new(),
            Interner::from_sorted_labels(["a", "m", "z"], 4).expect("sorted"),
        ] {
            let versions = version_chain(start.clone(), 300, 4);
            let flattens = versions
                .windows(2)
                .filter(|w| !Arc::ptr_eq(&w[0].base, &w[1].base))
                .count();
            assert!(flattens >= 3, "only {flattens} flattens");
            let mut plain = start;
            for b in 0..300 {
                for i in 0..4 {
                    plain.intern(&format!("label{b}_{i}"));
                }
                plain.intern("a");
            }
            let last = versions.last().unwrap();
            assert_eq!(last.len(), plain.len());
            let got: Vec<(u32, &str)> = last.iter().collect();
            let want: Vec<(u32, &str)> = plain.iter().collect();
            assert_eq!(got, want);
            for (i, s) in want {
                assert_eq!(last.get(s), Some(i));
                assert_eq!(last.resolve(i), s);
            }
            // Every older version still resolves exactly its own prefix.
            for v in &versions {
                let n = v.len();
                assert!(v.iter().zip(plain.iter()).all(|(a, b)| a == b));
                assert_eq!(v.try_resolve(n as u32), None);
            }
        }
    }
}
