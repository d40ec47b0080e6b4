//! The dictionary-encoded triple store and its streaming builder.
//!
//! A [`TripleStore`] is the persistent, id-encoded image of an ontology:
//! three sorted label dictionaries (nodes, predicates, types), a triple
//! table `[s, p, o]` in ascending **SPO** order, and two permutation
//! columns giving the same triples in **POS** and **OSP** order. Those
//! are exactly the orientations the matcher's candidate filtering needs
//! ("outgoing `p`-edges of `s`", "incoming `p`-edges of `o`", "all
//! `p`-triples"), each answerable by binary search over a contiguous
//! span — and they map 1:1 onto `questpro-graph`'s columnar CSR arrays,
//! so [`TripleStore::to_ontology`] assembles a full engine-facing
//! `Ontology` without re-sorting anything.
//!
//! Id assignment is **stable**: ids are sorted-label ranks (see
//! [`Dict`]), so the encoded form depends only on the triple *set*.
//! Feeding the same data in any order yields byte-identical snapshots.

use questpro_graph::fxhash::FxHashMap;
use questpro_graph::{EdgeData, EdgeId, Interner, NodeId, Ontology, PredId, SortedSpans, TypeId};

use crate::dict::Dict;
use crate::error::StoreError;

/// Sentinel in the builder's per-node type column: "no type declared".
const NO_TYPE: u32 = u32::MAX;

/// Size/count summary printed by `questpro store inspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct node labels.
    pub nodes: usize,
    /// Distinct predicate labels.
    pub preds: usize,
    /// Distinct type labels.
    pub types: usize,
    /// Triples (edges).
    pub triples: usize,
    /// Nodes carrying a type declaration.
    pub typed_nodes: usize,
    /// Total bytes of label text across the three dictionaries.
    pub label_bytes: usize,
}

/// An immutable dictionary-encoded triple store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TripleStore {
    pub(crate) nodes: Dict,
    pub(crate) preds: Dict,
    pub(crate) types: Dict,
    /// `[s, p, o]` rows in strictly ascending lexicographic order.
    pub(crate) triples: Vec<[u32; 3]>,
    /// `[node, type]` rows, strictly ascending by node (one type each).
    pub(crate) node_types: Vec<[u32; 2]>,
    /// Triple indexes in ascending `(p, o, s)` order.
    pub(crate) pos: Vec<u32>,
    /// Triple indexes in ascending `(o, p, s)` order.
    pub(crate) osp: Vec<u32>,
}

impl TripleStore {
    /// The node-label dictionary.
    pub fn nodes(&self) -> &Dict {
        &self.nodes
    }

    /// The predicate-label dictionary.
    pub fn preds(&self) -> &Dict {
        &self.preds
    }

    /// The type-label dictionary.
    pub fn types(&self) -> &Dict {
        &self.types
    }

    /// The SPO-ordered triple table.
    pub fn triples(&self) -> &[[u32; 3]] {
        &self.triples
    }

    /// `[node, type]` declarations, ascending by node id.
    pub fn node_types(&self) -> &[[u32; 2]] {
        &self.node_types
    }

    /// Triple indexes in `(p, o, s)` order.
    pub fn pos(&self) -> &[u32] {
        &self.pos
    }

    /// Triple indexes in `(o, p, s)` order.
    pub fn osp(&self) -> &[u32] {
        &self.osp
    }

    /// Number of triples.
    pub fn triple_count(&self) -> usize {
        self.triples.len()
    }

    /// Count/size summary for `store inspect`.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            nodes: self.nodes.len(),
            preds: self.preds.len(),
            types: self.types.len(),
            triples: self.triples.len(),
            typed_nodes: self.node_types.len(),
            label_bytes: self.nodes.arena_bytes()
                + self.preds.arena_bytes()
                + self.types.arena_bytes(),
        }
    }

    /// All triples `(s, p, *)` — the matcher's "outgoing `p`-edges of
    /// `s`" question — as a contiguous SPO span found by binary search.
    pub fn out_span(&self, s: u32, p: u32) -> &[[u32; 3]] {
        let lo = self.triples.partition_point(|t| (t[0], t[1]) < (s, p));
        let hi = self.triples.partition_point(|t| (t[0], t[1]) <= (s, p));
        &self.triples[lo..hi]
    }

    /// All triples `(*, p, o)` — "incoming `p`-edges of `o`" — via the
    /// OSP permutation, in ascending subject order.
    pub fn in_span(&self, o: u32, p: u32) -> impl Iterator<Item = [u32; 3]> + '_ {
        let key = move |e: u32| {
            let t = self.triples[e as usize];
            (t[2], t[1])
        };
        let lo = self.osp.partition_point(|&e| key(e) < (o, p));
        let hi = self.osp.partition_point(|&e| key(e) <= (o, p));
        self.osp[lo..hi].iter().map(|&e| self.triples[e as usize])
    }

    /// Number of `p`-triples, from the POS permutation span.
    pub fn pred_cardinality(&self, p: u32) -> usize {
        let key = |e: u32| self.triples[e as usize][1];
        let lo = self.pos.partition_point(|&e| key(e) < p);
        let hi = self.pos.partition_point(|&e| key(e) <= p);
        hi - lo
    }

    /// The declared type of node `n`, if any.
    pub fn node_type(&self, n: u32) -> Option<u32> {
        let i = self.node_types.partition_point(|r| r[0] < n);
        match self.node_types.get(i) {
            Some(&[node, ty]) if node == n => Some(ty),
            _ => None,
        }
    }

    /// Encodes an existing interned ontology into a store.
    ///
    /// # Errors
    /// Fails only if the ontology outgrows the u32 id space.
    pub fn from_ontology(o: &Ontology) -> Result<Self, StoreError> {
        let mut b = StoreBuilder::new();
        for n in o.node_ids() {
            b.add_node(o.value_str(n));
            if let Some(t) = o.node_type(n) {
                b.add_type(o.value_str(n), o.type_str(t))?;
            }
        }
        for e in o.edge_ids() {
            let d = o.edge(e);
            b.add_triple(o.value_str(d.src), o.pred_str(d.pred), o.value_str(d.dst));
        }
        b.build()
    }

    /// Assembles a full engine-facing [`Ontology`] from the store.
    ///
    /// This is the snapshot fast path: the SPO table *is* the edge table
    /// (edge id = SPO rank), so the out spans are the edge ids in order
    /// and the in spans the OSP permutation, and
    /// [`Ontology::from_sorted_parts`] writes each page straight from
    /// them. Nothing is re-sorted and no label is hashed: the sorted
    /// dictionaries hand their arenas to [`Interner::from_sorted_labels`]
    /// in one copy.
    ///
    /// # Errors
    /// Fails only on invariant violations, which validated stores
    /// (builder- or snapshot-produced) cannot exhibit.
    pub fn to_ontology(&self) -> Result<Ontology, StoreError> {
        let values = Interner::from_sorted_labels(self.nodes.iter(), self.nodes.arena_bytes())
            .ok_or(StoreError::BadSection {
                section: "nodes",
                reason: "labels not strictly ascending".into(),
            })?;
        let preds = Interner::from_sorted_labels(self.preds.iter(), self.preds.arena_bytes())
            .ok_or(StoreError::BadSection {
                section: "preds",
                reason: "labels not strictly ascending".into(),
            })?;
        let types = Interner::from_sorted_labels(self.types.iter(), self.types.arena_bytes())
            .ok_or(StoreError::BadSection {
                section: "types",
                reason: "labels not strictly ascending".into(),
            })?;
        let n = self.nodes.len();
        // SPO order groups edges by subject and sorts each span by
        // (pred, object) = (pred, edge id): the out entries are the edge
        // ids in order. OSP order groups by object and sorts by (pred,
        // subject) = (pred, edge id): the permutation is the in column.
        let offsets = |end: usize| {
            let mut off = vec![0u32; n + 1];
            for t in &self.triples {
                off[t[end] as usize + 1] += 1;
            }
            for i in 0..n {
                off[i + 1] += off[i];
            }
            off
        };
        let out = SortedSpans {
            off: offsets(0),
            ids: (0..self.triples.len() as u32).map(EdgeId::new),
            preds: self.triples.iter().map(|t| PredId::new(t[1])),
        };
        let in_ = SortedSpans {
            off: offsets(2),
            ids: self.osp.iter().map(|&e| EdgeId::new(e)),
            preds: self
                .osp
                .iter()
                .map(|&e| PredId::new(self.triples[e as usize][1])),
        };
        let node_types = self
            .node_types
            .iter()
            .map(|&[node, ty]| (NodeId::new(node), TypeId::new(ty)));
        let edges = self.triples.iter().map(|t| EdgeData {
            src: NodeId::new(t[0]),
            dst: NodeId::new(t[2]),
            pred: PredId::new(t[1]),
        });
        Ontology::from_sorted_parts(values, preds, types, node_types, edges, out, in_)
            .map_err(StoreError::Graph)
    }

    /// Internal constructor for the snapshot decoder; every field must
    /// already satisfy the store invariants.
    pub(crate) fn from_validated_parts(
        nodes: Dict,
        preds: Dict,
        types: Dict,
        triples: Vec<[u32; 3]>,
        node_types: Vec<[u32; 2]>,
        pos: Vec<u32>,
        osp: Vec<u32>,
    ) -> Self {
        Self {
            nodes,
            preds,
            types,
            triples,
            node_types,
            pos,
            osp,
        }
    }
}

/// Streaming construction of a [`TripleStore`].
///
/// Labels are interned with provisional insertion-order ids; [`build`]
/// remaps everything to stable sorted-rank ids, sorts and deduplicates
/// the triple table, and derives the POS/OSP permutations. Feed order is
/// therefore irrelevant to the output — the property the scale
/// generators and snapshot diffing rely on.
///
/// [`build`]: StoreBuilder::build
#[derive(Debug, Default)]
pub struct StoreBuilder {
    node_ids: FxHashMap<Box<str>, u32>,
    node_labels: Vec<Box<str>>,
    node_type: Vec<u32>,
    pred_ids: FxHashMap<Box<str>, u32>,
    pred_labels: Vec<Box<str>>,
    type_ids: FxHashMap<Box<str>, u32>,
    type_labels: Vec<Box<str>>,
    triples: Vec<[u32; 3]>,
}

fn intern(ids: &mut FxHashMap<Box<str>, u32>, labels: &mut Vec<Box<str>>, s: &str) -> u32 {
    if let Some(&i) = ids.get(s) {
        return i;
    }
    // One below the NO_TYPE sentinel so the type column stays unambiguous.
    let i = u32::try_from(labels.len()).expect("store dictionary overflow");
    assert!(i < NO_TYPE, "store dictionary overflow");
    let boxed: Box<str> = s.into();
    labels.push(boxed.clone());
    ids.insert(boxed, i);
    i
}

impl StoreBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `label` as a node (needed explicitly only for isolated
    /// nodes; triple endpoints are added automatically).
    pub fn add_node(&mut self, label: &str) -> u32 {
        let i = intern(&mut self.node_ids, &mut self.node_labels, label);
        if self.node_type.len() <= i as usize {
            self.node_type.push(NO_TYPE);
        }
        i
    }

    /// Adds the triple `(s, p, o)`; duplicates are deduplicated at
    /// [`build`](StoreBuilder::build) time.
    pub fn add_triple(&mut self, s: &str, p: &str, o: &str) {
        let si = self.add_node(s);
        let oi = self.add_node(o);
        let pi = intern(&mut self.pred_ids, &mut self.pred_labels, p);
        self.triples.push([si, pi, oi]);
    }

    /// Declares `node` to have type `ty`.
    ///
    /// # Errors
    /// Fails if the node already carries a different type.
    pub fn add_type(&mut self, node: &str, ty: &str) -> Result<(), StoreError> {
        let n = self.add_node(node);
        let t = intern(&mut self.type_ids, &mut self.type_labels, ty);
        match self.node_type[n as usize] {
            NO_TYPE => {
                self.node_type[n as usize] = t;
                Ok(())
            }
            existing if existing == t => Ok(()),
            existing => Err(StoreError::ConflictingType {
                node: node.to_string(),
                existing: self.type_labels[existing as usize].to_string(),
                requested: ty.to_string(),
            }),
        }
    }

    /// Triples fed so far (before deduplication).
    pub fn triple_count(&self) -> usize {
        self.triples.len()
    }

    /// Finalizes the store: remaps to sorted-rank ids, sorts and
    /// deduplicates the triple table, derives POS/OSP.
    ///
    /// # Errors
    /// Fails if the triple table outgrows the u32 index space.
    pub fn build(self) -> Result<TripleStore, StoreError> {
        fn rank_map(labels: &[Box<str>]) -> (Vec<u32>, Vec<&str>) {
            let mut perm: Vec<u32> = (0..labels.len() as u32).collect();
            perm.sort_unstable_by(|&a, &b| labels[a as usize].cmp(&labels[b as usize]));
            let mut rank = vec![0u32; labels.len()];
            let mut sorted = Vec::with_capacity(labels.len());
            for (new, &old) in perm.iter().enumerate() {
                rank[old as usize] = new as u32;
                sorted.push(&*labels[old as usize]);
            }
            (rank, sorted)
        }
        let (node_rank, node_sorted) = rank_map(&self.node_labels);
        let (pred_rank, pred_sorted) = rank_map(&self.pred_labels);
        let (type_rank, type_sorted) = rank_map(&self.type_labels);
        let nodes = Dict::from_sorted(node_sorted).ok_or(StoreError::TooLarge {
            what: "node dictionary",
        })?;
        let preds = Dict::from_sorted(pred_sorted).ok_or(StoreError::TooLarge {
            what: "predicate dictionary",
        })?;
        let types = Dict::from_sorted(type_sorted).ok_or(StoreError::TooLarge {
            what: "type dictionary",
        })?;

        let mut triples: Vec<[u32; 3]> = self
            .triples
            .iter()
            .map(|t| {
                [
                    node_rank[t[0] as usize],
                    pred_rank[t[1] as usize],
                    node_rank[t[2] as usize],
                ]
            })
            .collect();
        triples.sort_unstable();
        triples.dedup();
        let m = u32::try_from(triples.len()).map_err(|_| StoreError::TooLarge {
            what: "triple table",
        })?;

        let mut node_types: Vec<[u32; 2]> = self
            .node_type
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != NO_TYPE)
            .map(|(n, &t)| [node_rank[n], type_rank[t as usize]])
            .collect();
        node_types.sort_unstable();

        let mut pos: Vec<u32> = (0..m).collect();
        pos.sort_unstable_by_key(|&e| {
            let t = triples[e as usize];
            (t[1], t[2], t[0])
        });
        let mut osp: Vec<u32> = (0..m).collect();
        osp.sort_unstable_by_key(|&e| {
            let t = triples[e as usize];
            (t[2], t[1], t[0])
        });

        Ok(TripleStore {
            nodes,
            preds,
            types,
            triples,
            node_types,
            pos,
            osp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TripleStore {
        let mut b = StoreBuilder::new();
        b.add_triple("paper1", "wb", "Alice");
        b.add_triple("paper1", "wb", "Bob");
        b.add_triple("paper2", "wb", "Bob");
        b.add_triple("paper2", "cites", "paper1");
        b.add_type("Alice", "Author").unwrap();
        b.add_type("paper1", "Paper").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn ids_are_stable_under_insertion_order() {
        let a = tiny();
        let mut b = StoreBuilder::new();
        // Same data, different feed order, plus a duplicate triple.
        b.add_type("paper1", "Paper").unwrap();
        b.add_triple("paper2", "cites", "paper1");
        b.add_triple("paper2", "wb", "Bob");
        b.add_triple("paper1", "wb", "Bob");
        b.add_triple("paper1", "wb", "Alice");
        b.add_triple("paper1", "wb", "Alice");
        b.add_type("Alice", "Author").unwrap();
        let b = b.build().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn triples_are_sorted_and_permutations_cover() {
        let s = tiny();
        assert!(s.triples.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.pos.len(), s.triples.len());
        assert_eq!(s.osp.len(), s.triples.len());
        let key_pos = |e: u32| {
            let t = s.triples[e as usize];
            (t[1], t[2], t[0])
        };
        assert!(s.pos.windows(2).all(|w| key_pos(w[0]) < key_pos(w[1])));
        let key_osp = |e: u32| {
            let t = s.triples[e as usize];
            (t[2], t[1], t[0])
        };
        assert!(s.osp.windows(2).all(|w| key_osp(w[0]) < key_osp(w[1])));
    }

    #[test]
    fn spans_answer_the_matcher_questions() {
        let s = tiny();
        let paper1 = s.nodes.lookup("paper1").unwrap();
        let bob = s.nodes.lookup("Bob").unwrap();
        let wb = s.preds.lookup("wb").unwrap();
        let cites = s.preds.lookup("cites").unwrap();
        assert_eq!(s.out_span(paper1, wb).len(), 2);
        assert_eq!(s.out_span(paper1, cites).len(), 0);
        assert_eq!(s.in_span(bob, wb).count(), 2);
        assert_eq!(s.in_span(paper1, cites).count(), 1);
        assert_eq!(s.pred_cardinality(wb), 3);
        assert_eq!(s.pred_cardinality(cites), 1);
        let alice = s.nodes.lookup("Alice").unwrap();
        let author = s.types.lookup("Author").unwrap();
        assert_eq!(s.node_type(alice), Some(author));
        assert_eq!(s.node_type(bob), None);
    }

    #[test]
    fn conflicting_types_are_rejected() {
        let mut b = StoreBuilder::new();
        b.add_type("Alice", "Author").unwrap();
        b.add_type("Alice", "Author").unwrap();
        let err = b.add_type("Alice", "Paper").unwrap_err();
        assert!(matches!(err, StoreError::ConflictingType { .. }));
    }

    #[test]
    fn ontology_round_trip_preserves_structure() {
        let mut b = Ontology::builder();
        b.edge("paper1", "wb", "Alice").unwrap();
        b.edge("paper1", "wb", "Bob").unwrap();
        b.edge("paper2", "cites", "paper1").unwrap();
        b.typed_node("Alice", "Author").unwrap();
        b.node("lonely");
        let o = b.build();
        let s = TripleStore::from_ontology(&o).unwrap();
        let o2 = s.to_ontology().unwrap();
        assert_eq!(o2.node_count(), o.node_count());
        assert_eq!(o2.edge_count(), o.edge_count());
        assert!(o2.validate().is_ok());
        // Isolated nodes and types survive.
        assert!(o2.node_by_value("lonely").is_some());
        let alice = o2.node_by_value("Alice").unwrap();
        assert_eq!(o2.type_str(o2.node_type(alice).unwrap()), "Author");
        // Re-encoding the assembled ontology reproduces the same store.
        assert_eq!(TripleStore::from_ontology(&o2).unwrap(), s);
    }

    #[test]
    fn to_ontology_columnar_matches_rebuilt_columnar() {
        let s = tiny();
        let o = s.to_ontology().unwrap();
        // The pages written from the handed-over columns must agree with
        // a from-scratch build: spans, signatures and statistics.
        assert_eq!(o.pages(), &o.rebuild_pages());
    }

    #[test]
    fn empty_store_round_trips() {
        let s = StoreBuilder::new().build().unwrap();
        assert_eq!(s.triple_count(), 0);
        let o = s.to_ontology().unwrap();
        assert_eq!(o.node_count(), 0);
        assert_eq!(o.edge_count(), 0);
    }

    #[test]
    fn stats_summarize_counts() {
        let st = tiny().stats();
        assert_eq!(st.nodes, 4);
        assert_eq!(st.preds, 2);
        assert_eq!(st.types, 2);
        assert_eq!(st.triples, 4);
        assert_eq!(st.typed_nodes, 2);
        assert!(st.label_bytes > 0);
    }
}
