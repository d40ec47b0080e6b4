//! The ontology database: an immutable, index-rich labeled multigraph.
//!
//! Construction goes through [`OntologyBuilder`], which enforces the two
//! model invariants of Section II-A:
//!
//! 1. node values are globally unique (`L_V` is one-to-one);
//! 2. parallel edges between the same ordered node pair carry distinct
//!    predicates.
//!
//! Once built, an [`Ontology`] is immutable and exposes the indexes the
//! query engine needs: per-node in/out adjacency (the columnar SPO/OPS
//! spans), a per-predicate edge list, and value→node lookup. The rows and
//! indexes live in fixed-size copy-on-write pages ([`Pages`]): node pages
//! hold a run of nodes with their spans, edge pages a run of edges with
//! their per-predicate grouping. Every construction path writes the pages
//! directly in linear counting passes — no comparison sort and no flat
//! array split afterwards, which keeps snapshot cold-start at copy speed
//! (see `questpro-store`). Point-in-time copies with batched triple
//! inserts/deletes are produced by [`Ontology::apply_delta`](crate::delta)
//! without re-interning, and share every page the batch leaves alone.

use std::collections::HashMap;

use crate::columnar::{edge_pages, Pages, PredEdges, PredStats, SortedSpans, IN, OUT};
use crate::error::GraphError;
use crate::fxhash::FxHashMap;
use crate::ids::{EdgeId, NodeId, PredId, TypeId, ValueId};
use crate::interner::Interner;

/// Per-node payload: the node's unique value and optional type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeData {
    /// Interned node value (the image of `L_V`).
    pub value: ValueId,
    /// Optional node type (used for disequality inference, Section V).
    pub ty: Option<TypeId>,
}

/// Per-edge payload: source, target, and predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeData {
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub dst: NodeId,
    /// Interned edge predicate (the image of `L_E`).
    pub pred: PredId,
}

/// Value → node lookup.
///
/// The builder and snapshot paths both assign node `i` the value id `i`
/// (values and nodes are appended in lockstep), so the common case needs
/// no map at all: the lookup *is* the id. The `Map` arm covers
/// hand-assembled tables where the correspondence was permuted.
#[derive(Debug, Clone)]
pub(crate) enum ValueLookup {
    /// `value id v ↔ node id v` for every node; requires
    /// `values.len() == nodes.len()`.
    Identity,
    /// Explicit mapping for permuted tables.
    Map(FxHashMap<ValueId, NodeId>),
}

impl ValueLookup {
    #[inline]
    fn node_of(&self, v: ValueId, node_count: usize) -> Option<NodeId> {
        match self {
            ValueLookup::Identity => {
                if (v.raw() as usize) < node_count {
                    Some(NodeId::new(v.raw()))
                } else {
                    None
                }
            }
            ValueLookup::Map(m) => m.get(&v).copied(),
        }
    }
}

/// An immutable ontology graph with lookup indexes.
///
/// ```
/// use questpro_graph::Ontology;
///
/// let mut b = Ontology::builder();
/// b.edge("paper1", "wb", "Alice")?;
/// b.typed_node("Alice", "Author")?;
/// let ont = b.build();
///
/// let alice = ont.node_by_value("Alice").unwrap();
/// assert_eq!(ont.value_str(alice), "Alice");
/// assert_eq!(ont.type_str(ont.node_type(alice).unwrap()), "Author");
/// assert_eq!(ont.in_edges(alice).len(), 1);
/// # Ok::<(), questpro_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ontology {
    pub(crate) values: Interner,
    pub(crate) preds: Interner,
    pub(crate) types: Interner,
    pub(crate) value_to_node: ValueLookup,
    pub(crate) pages: Pages,
}

/// Checks that edge `i` references nodes below `n` and a predicate
/// below `pred_count`.
fn check_edge(i: usize, d: &EdgeData, n: usize, pred_count: usize) -> Result<(), GraphError> {
    if d.src.index() >= n || d.dst.index() >= n {
        return Err(GraphError::UnknownNode {
            what: format!("edge {i} references a node id out of range"),
        });
    }
    if d.pred.index() >= pred_count {
        return Err(GraphError::UnknownNode {
            what: format!("edge {i} references pred id {} out of range", d.pred.raw()),
        });
    }
    Ok(())
}

impl Ontology {
    /// Starts building an ontology.
    pub fn builder() -> OntologyBuilder {
        OntologyBuilder::new()
    }

    /// Assembles an ontology directly from pre-encoded tables, bypassing
    /// the string-interning builder path.
    ///
    /// This is the snapshot fast path: `questpro-store` already holds
    /// deduplicated label dictionaries and an id-encoded edge table, so
    /// re-driving [`OntologyBuilder`] would re-hash every label and
    /// re-check invariants the store format enforces on disk. The caller
    /// must guarantee edge uniqueness (no two edges with the same
    /// `(src, pred, dst)`); everything else — id ranges and value
    /// uniqueness — is validated here. When node `i` holds value id `i`
    /// for every node (true for all snapshot and builder tables), no
    /// value→node map is materialized at all.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownNode`] when any node/pred/type/value
    /// id is out of range and [`GraphError::DuplicateValue`] when two
    /// nodes share a value.
    pub fn assemble(
        values: Interner,
        preds: Interner,
        types: Interner,
        nodes: Vec<NodeData>,
        edges: Vec<EdgeData>,
    ) -> Result<Self, GraphError> {
        let n = nodes.len();
        for (i, d) in nodes.iter().enumerate() {
            if d.value.index() >= values.len() {
                return Err(GraphError::UnknownNode {
                    what: format!(
                        "node {i} references value id {} out of range",
                        d.value.raw()
                    ),
                });
            }
            if let Some(t) = d.ty {
                if t.index() >= types.len() {
                    return Err(GraphError::UnknownNode {
                        what: format!("node {i} references type id {} out of range", t.raw()),
                    });
                }
            }
        }
        let identity =
            values.len() == n && nodes.iter().enumerate().all(|(i, d)| d.value.index() == i);
        let value_to_node = if identity {
            // Distinct indices imply distinct values: uniqueness holds
            // without a map.
            ValueLookup::Identity
        } else {
            let mut map: FxHashMap<ValueId, NodeId> = FxHashMap::default();
            map.reserve(n);
            for (i, d) in nodes.iter().enumerate() {
                if map.insert(d.value, NodeId::from_usize(i)).is_some() {
                    return Err(GraphError::DuplicateValue {
                        value: values.resolve(d.value.raw()).to_string(),
                    });
                }
            }
            ValueLookup::Map(map)
        };
        for (i, d) in edges.iter().enumerate() {
            check_edge(i, d, n, preds.len())?;
        }
        let pages = Pages::from_rows(&nodes, &edges, preds.len());
        Ok(Self {
            values,
            preds,
            types,
            value_to_node,
            pages,
        })
    }

    /// Assembles an ontology whose adjacency arrives already sorted, and
    /// writes every page in one pass over its inputs.
    ///
    /// This is the snapshot path: `questpro-store` keeps its triple table
    /// in SPO order and its OSP permutation on disk, and both map 1:1
    /// onto the node spans, so nothing is re-sorted. Node `i` holds value
    /// id `i` (one node per value); `node_types` names the typed nodes in
    /// ascending node order, and `edges` is the edge table in id order.
    /// Id ranges are validated here. The spans are trusted in release
    /// builds and checked in debug builds — snapshot decoding validates
    /// the on-disk form before calling this:
    ///
    /// * `out.off` / `in_.off` are monotone CSR offsets, one per node plus
    ///   one, ending at the edge count;
    /// * each node's entries in `out` / `in_` are its outgoing / incoming
    ///   edges, sorted by (pred, edge id), with their predicates beside
    ///   them.
    ///
    /// # Errors
    /// [`GraphError::UnknownNode`] when a node, predicate or type id is
    /// out of range, the typed nodes are not strictly ascending, or the
    /// edge count disagrees with the offsets.
    pub fn from_sorted_parts(
        values: Interner,
        preds: Interner,
        types: Interner,
        node_types: impl IntoIterator<Item = (NodeId, TypeId)>,
        edges: impl IntoIterator<Item = EdgeData>,
        out: SortedSpans<impl Iterator<Item = EdgeId>, impl Iterator<Item = PredId>>,
        in_: SortedSpans<impl Iterator<Item = EdgeId>, impl Iterator<Item = PredId>>,
    ) -> Result<Self, GraphError> {
        let n = values.len();
        let bad = |what: String| GraphError::UnknownNode { what };
        let edge_pages = edge_pages(edges, preds.len(), |i, d| check_edge(i, d, n, preds.len()))?;
        let m = edge_pages.iter().map(|p| p.rows().len()).sum::<usize>();
        for s in [&out.off, &in_.off] {
            if s.len() != n + 1 || s[n] as usize != m {
                return Err(bad(format!(
                    "{m} edges over {n} nodes disagree with the span offsets"
                )));
            }
            debug_assert!(s.windows(2).all(|w| w[0] <= w[1]));
        }
        let mut typed = node_types.into_iter().peekable();
        let mut bad_type = None;
        let nodes = (0..n).map(|i| {
            let ty = typed.next_if(|&(v, _)| v.index() == i).map(|(_, t)| t);
            if ty.is_some_and(|t| t.index() >= types.len()) {
                bad_type = Some(i);
            }
            NodeData {
                value: ValueId::from_usize(i),
                ty,
            }
        });
        let pages = Pages::from_sorted(nodes, n, edge_pages, m, out, in_, preds.len());
        if let Some(i) = bad_type {
            return Err(bad(format!("node {i} references a type id out of range")));
        }
        if let Some((v, _)) = typed.next() {
            return Err(bad(format!(
                "typed node {} is out of range or out of order",
                v.raw()
            )));
        }
        let o = Self {
            values,
            preds,
            types,
            value_to_node: ValueLookup::Identity,
            pages,
        };
        debug_assert!(
            o.pages == o.rebuild_pages(),
            "sorted parts disagree with the edges"
        );
        Ok(o)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.pages.node_count
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.pages.edge_count
    }

    /// Number of distinct predicates.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count() as u32).map(EdgeId::new)
    }

    /// Payload of node `n`.
    #[inline]
    pub fn node(&self, n: NodeId) -> NodeData {
        self.pages.node(n)
    }

    /// Payload of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> EdgeData {
        self.pages.edge(e)
    }

    /// The value string of node `n`.
    pub fn value_str(&self, n: NodeId) -> &str {
        self.values.resolve(self.node(n).value.raw())
    }

    /// The predicate string of edge `e`.
    pub fn pred_str_of(&self, e: EdgeId) -> &str {
        self.preds.resolve(self.edge(e).pred.raw())
    }

    /// Resolves a predicate id to its string.
    pub fn pred_str(&self, p: PredId) -> &str {
        self.preds.resolve(p.raw())
    }

    /// Resolves a type id to its string.
    pub fn type_str(&self, t: TypeId) -> &str {
        self.types.resolve(t.raw())
    }

    /// Resolves a value id to its string.
    pub fn value_of(&self, v: ValueId) -> &str {
        self.values.resolve(v.raw())
    }

    /// The type of node `n`, if declared.
    pub fn node_type(&self, n: NodeId) -> Option<TypeId> {
        self.node(n).ty
    }

    /// Finds the node holding `value`, if any (values are unique).
    pub fn node_by_value(&self, value: &str) -> Option<NodeId> {
        let v = self.values.get(value)?;
        self.value_to_node
            .node_of(ValueId::new(v), self.node_count())
    }

    /// Finds the predicate id of `pred`, if any edge uses it.
    pub fn pred_by_name(&self, pred: &str) -> Option<PredId> {
        self.preds.get(pred).map(PredId::new)
    }

    /// Finds the type id of `ty`, if declared on any node.
    pub fn type_by_name(&self, ty: &str) -> Option<TypeId> {
        self.types.get(ty).map(TypeId::new)
    }

    /// Outgoing edges of node `n`, sorted by (pred, edge id): edges of
    /// one predicate are contiguous and in ascending edge-id order, but
    /// the whole span is not edge-id ordered. Callers that show or
    /// sample the adjacency in edge-id order must sort it.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        self.pages.span(OUT, n)
    }

    /// Incoming edges of node `n`, sorted by (pred, edge id) like
    /// [`Ontology::out_edges`].
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        self.pages.span(IN, n)
    }

    /// All edges labeled with predicate `p`, in ascending edge-id order.
    /// Its length is `pred_stats(p).cardinality`.
    #[inline]
    pub fn edges_with_pred(&self, p: PredId) -> PredEdges<'_> {
        self.pages.edges_with_pred(p)
    }

    /// Degree (in + out) of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.out_edges(n).len() + self.in_edges(n).len()
    }

    /// Finds the unique edge `src -pred-> dst`, if present.
    ///
    /// Binary-searches the columnar out-span for `pred`, then scans that
    /// (typically tiny) span for `dst`.
    pub fn find_edge(&self, src: NodeId, pred: PredId, dst: NodeId) -> Option<EdgeId> {
        self.pages
            .with_pred(OUT, src, pred)
            .iter()
            .copied()
            .find(|&e| self.edge(e).dst == dst)
    }

    /// Outgoing edges of `n` labeled `pred`, in ascending edge-id order
    /// (the `pred` sub-span of [`Ontology::out_edges`]).
    #[inline]
    pub fn out_edges_with_pred(&self, n: NodeId, pred: PredId) -> &[EdgeId] {
        self.pages.with_pred(OUT, n, pred)
    }

    /// Incoming edges of `n` labeled `pred`, in ascending edge-id order
    /// (the `pred` sub-span of [`Ontology::in_edges`]).
    #[inline]
    pub fn in_edges_with_pred(&self, n: NodeId, pred: PredId) -> &[EdgeId] {
        self.pages.with_pred(IN, n, pred)
    }

    /// Per-predicate cardinality and distinct-count statistics.
    #[inline]
    pub fn pred_stats(&self, p: PredId) -> PredStats {
        self.pages.pred_stats(p)
    }

    /// The paged rows and indexes of this version.
    pub fn pages(&self) -> &Pages {
        &self.pages
    }

    /// Rebuilds every page from this version's node and edge rows.
    ///
    /// Used by benchmarks to time a warm index build and by the delta
    /// tests as the from-scratch oracle for the incremental maintenance
    /// path; the result is identical to the pages built in
    /// [`OntologyBuilder::build`].
    pub fn rebuild_pages(&self) -> Pages {
        let nodes: Vec<NodeData> = self.node_ids().map(|n| self.node(n)).collect();
        let edges: Vec<EdgeData> = self.edge_ids().map(|e| self.edge(e)).collect();
        Pages::from_rows(&nodes, &edges, self.pred_count())
    }

    /// The signature bit predicate `p` folds to (predicates are hashed
    /// into 64 buckets, so distinct predicates may share a bit).
    #[inline]
    pub fn pred_bit(&self, p: PredId) -> u64 {
        1u64 << (p.raw() & 63)
    }

    /// Bitset of predicates appearing on outgoing edges of `n`.
    ///
    /// A query node that still needs an outgoing `p`-edge can only map
    /// to `n` if `pred_bit(p) & out_signature(n) != 0` — a one-word
    /// 1-hop pruning test the matcher applies before backtracking. The
    /// test is *necessary, not sufficient*: bits may collide (>64
    /// predicates) and edge endpoints still have to line up.
    #[inline]
    pub fn out_signature(&self, n: NodeId) -> u64 {
        self.pages.sig(OUT, n)
    }

    /// Bitset of predicates appearing on incoming edges of `n`.
    ///
    /// See [`Ontology::out_signature`] for the pruning contract.
    #[inline]
    pub fn in_signature(&self, n: NodeId) -> u64 {
        self.pages.sig(IN, n)
    }

    /// Access to the value interner (read-only).
    pub fn values(&self) -> &Interner {
        &self.values
    }

    /// Access to the predicate interner (read-only).
    pub fn preds(&self) -> &Interner {
        &self.preds
    }

    /// Access to the type interner (read-only).
    pub fn types(&self) -> &Interner {
        &self.types
    }

    /// Per-type node counts, sorted descending (untyped nodes under
    /// `(none)`); the summary the CLI prints after `generate`.
    pub fn type_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for n in self.node_ids() {
            let key = match self.node_type(n) {
                Some(t) => self.type_str(t).to_string(),
                None => "(none)".to_string(),
            };
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut out: Vec<(String, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Renders edge `e` as `src -pred-> dst` with value strings.
    pub fn describe_edge(&self, e: EdgeId) -> String {
        let d = self.edge(e);
        format!(
            "{} -{}-> {}",
            self.value_str(d.src),
            self.pred_str(d.pred),
            self.value_str(d.dst)
        )
    }

    /// Verifies the structural invariants; used by tests and debug builds.
    ///
    /// Returns the first violated invariant, if any.
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut seen_values: HashMap<ValueId, NodeId> = HashMap::new();
        for n in self.node_ids() {
            let v = self.node(n).value;
            if let Some(prev) = seen_values.insert(v, n) {
                let _ = prev;
                return Err(GraphError::DuplicateValue {
                    value: self.value_of(v).to_string(),
                });
            }
        }
        let mut seen_edges: HashMap<(NodeId, PredId, NodeId), EdgeId> = HashMap::new();
        for e in self.edge_ids() {
            let d = self.edge(e);
            if seen_edges.insert((d.src, d.pred, d.dst), e).is_some() {
                return Err(GraphError::DuplicateEdge {
                    src: self.value_str(d.src).to_string(),
                    pred: self.pred_str(d.pred).to_string(),
                    dst: self.value_str(d.dst).to_string(),
                });
            }
        }
        Ok(())
    }
}

/// Incrementally constructs an [`Ontology`] while enforcing its invariants.
///
/// Nodes are created on demand by [`OntologyBuilder::node`] /
/// [`OntologyBuilder::edge`]; declaring the same value twice returns the
/// same node. Types may be attached at any time before [`build`].
///
/// [`build`]: OntologyBuilder::build
#[derive(Debug, Default)]
pub struct OntologyBuilder {
    values: Interner,
    preds: Interner,
    types: Interner,
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    edge_set: FxHashMap<(NodeId, PredId, NodeId), EdgeId>,
    value_to_node: FxHashMap<ValueId, NodeId>,
}

impl OntologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the node holding `value`, creating it if needed.
    pub fn node(&mut self, value: &str) -> NodeId {
        let v = ValueId::new(self.values.intern(value));
        if let Some(&n) = self.value_to_node.get(&v) {
            return n;
        }
        let n = NodeId::from_usize(self.nodes.len());
        self.nodes.push(NodeData { value: v, ty: None });
        self.value_to_node.insert(v, n);
        n
    }

    /// Returns the node holding `value` and tags it with type `ty`.
    ///
    /// # Errors
    /// Fails if the node already carries a different type.
    pub fn typed_node(&mut self, value: &str, ty: &str) -> Result<NodeId, GraphError> {
        let n = self.node(value);
        let t = TypeId::new(self.types.intern(ty));
        match self.nodes[n.index()].ty {
            None => {
                self.nodes[n.index()].ty = Some(t);
                Ok(n)
            }
            Some(existing) if existing == t => Ok(n),
            Some(existing) => Err(GraphError::ConflictingType {
                value: value.to_string(),
                existing: self.types.resolve(existing.raw()).to_string(),
                requested: ty.to_string(),
            }),
        }
    }

    /// Adds the edge `src -pred-> dst` (creating missing nodes), returning
    /// its id.
    ///
    /// # Errors
    /// Fails if an identical edge already exists (parallel edges must have
    /// distinct predicates).
    pub fn edge(&mut self, src: &str, pred: &str, dst: &str) -> Result<EdgeId, GraphError> {
        let s = self.node(src);
        let d = self.node(dst);
        self.edge_ids_internal(s, pred, d)
    }

    /// Adds an edge between existing node ids.
    ///
    /// # Errors
    /// Fails on duplicate edges.
    pub fn edge_between(
        &mut self,
        src: NodeId,
        pred: &str,
        dst: NodeId,
    ) -> Result<EdgeId, GraphError> {
        self.edge_ids_internal(src, pred, dst)
    }

    fn edge_ids_internal(
        &mut self,
        src: NodeId,
        pred: &str,
        dst: NodeId,
    ) -> Result<EdgeId, GraphError> {
        let p = PredId::new(self.preds.intern(pred));
        if self.edge_set.contains_key(&(src, p, dst)) {
            return Err(GraphError::DuplicateEdge {
                src: self
                    .values
                    .resolve(self.nodes[src.index()].value.raw())
                    .to_string(),
                pred: pred.to_string(),
                dst: self
                    .values
                    .resolve(self.nodes[dst.index()].value.raw())
                    .to_string(),
            });
        }
        let e = EdgeId::from_usize(self.edges.len());
        self.edges.push(EdgeData { src, dst, pred: p });
        self.edge_set.insert((src, p, dst), e);
        Ok(e)
    }

    /// Adds an edge if it is not already present, returning its id either
    /// way. Convenient for generators that may emit duplicates.
    pub fn edge_idempotent(&mut self, src: &str, pred: &str, dst: &str) -> EdgeId {
        let s = self.node(src);
        let d = self.node(dst);
        let p = PredId::new(self.preds.intern(pred));
        if let Some(&e) = self.edge_set.get(&(s, p, d)) {
            return e;
        }
        let e = EdgeId::from_usize(self.edges.len());
        self.edges.push(EdgeData {
            src: s,
            dst: d,
            pred: p,
        });
        self.edge_set.insert((s, p, d), e);
        e
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the ontology, computing all indexes.
    pub fn build(self) -> Ontology {
        let n = self.nodes.len();
        let pages = Pages::from_rows(&self.nodes, &self.edges, self.preds.len());
        // The builder appends values and nodes in lockstep, so identity
        // normally holds; keep the map only for the degenerate case.
        let identity = self.values.len() == n
            && self
                .nodes
                .iter()
                .enumerate()
                .all(|(i, d)| d.value.index() == i);
        let value_to_node = if identity {
            ValueLookup::Identity
        } else {
            ValueLookup::Map(self.value_to_node)
        };
        Ontology {
            values: self.values,
            preds: self.preds,
            types: self.types,
            value_to_node,
            pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Ontology {
        let mut b = Ontology::builder();
        b.edge("paper1", "wb", "Alice").unwrap();
        b.edge("paper1", "wb", "Bob").unwrap();
        b.edge("paper2", "wb", "Bob").unwrap();
        b.edge("paper2", "cites", "paper1").unwrap();
        b.build()
    }

    #[test]
    fn builder_dedupes_nodes_by_value() {
        let o = tiny();
        assert_eq!(o.node_count(), 4);
        assert_eq!(o.edge_count(), 4);
        assert_eq!(o.pred_count(), 2);
    }

    #[test]
    fn duplicate_edges_are_rejected() {
        let mut b = Ontology::builder();
        b.edge("a", "p", "b").unwrap();
        let err = b.edge("a", "p", "b").unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }));
        // Distinct predicate between the same nodes is fine.
        b.edge("a", "q", "b").unwrap();
    }

    #[test]
    fn edge_idempotent_returns_existing_id() {
        let mut b = Ontology::builder();
        let e1 = b.edge_idempotent("a", "p", "b");
        let e2 = b.edge_idempotent("a", "p", "b");
        assert_eq!(e1, e2);
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn adjacency_indexes_are_consistent() {
        let o = tiny();
        let paper1 = o.node_by_value("paper1").unwrap();
        let bob = o.node_by_value("Bob").unwrap();
        assert_eq!(o.out_edges(paper1).len(), 2);
        assert_eq!(o.in_edges(paper1).len(), 1); // cites
        assert_eq!(o.in_edges(bob).len(), 2);
        assert_eq!(o.degree(bob), 2);
        let wb = o.pred_by_name("wb").unwrap();
        assert_eq!(o.edges_with_pred(wb).len(), 3);
    }

    #[test]
    fn find_edge_locates_unique_edge() {
        let o = tiny();
        let paper2 = o.node_by_value("paper2").unwrap();
        let paper1 = o.node_by_value("paper1").unwrap();
        let cites = o.pred_by_name("cites").unwrap();
        let e = o.find_edge(paper2, cites, paper1).unwrap();
        assert_eq!(o.describe_edge(e), "paper2 -cites-> paper1");
        let wb = o.pred_by_name("wb").unwrap();
        assert!(o.find_edge(paper2, wb, paper1).is_none());
    }

    #[test]
    fn typed_nodes_enforce_single_type() {
        let mut b = Ontology::builder();
        b.typed_node("Alice", "Author").unwrap();
        b.typed_node("Alice", "Author").unwrap(); // same type ok
        let err = b.typed_node("Alice", "Paper").unwrap_err();
        assert!(matches!(err, GraphError::ConflictingType { .. }));
        let o = b.build();
        let alice = o.node_by_value("Alice").unwrap();
        let t = o.node_type(alice).unwrap();
        assert_eq!(o.type_str(t), "Author");
    }

    #[test]
    fn validate_accepts_well_formed_graph() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn type_histogram_counts_types() {
        let mut b = Ontology::builder();
        b.typed_node("Alice", "Author").unwrap();
        b.typed_node("Bob", "Author").unwrap();
        b.typed_node("paper1", "Paper").unwrap();
        b.node("untyped");
        let o = b.build();
        let hist = o.type_histogram();
        assert_eq!(
            hist,
            vec![
                ("Author".to_string(), 2),
                ("(none)".to_string(), 1),
                ("Paper".to_string(), 1),
            ]
        );
    }

    #[test]
    fn predicate_signatures_reflect_incident_edges() {
        let o = tiny();
        let paper1 = o.node_by_value("paper1").unwrap();
        let paper2 = o.node_by_value("paper2").unwrap();
        let alice = o.node_by_value("Alice").unwrap();
        let wb = o.pred_by_name("wb").unwrap();
        let cites = o.pred_by_name("cites").unwrap();
        // paper1 writes (out: wb) and is cited (in: cites).
        assert_ne!(o.out_signature(paper1) & o.pred_bit(wb), 0);
        assert_ne!(o.in_signature(paper1) & o.pred_bit(cites), 0);
        assert_eq!(o.in_signature(paper1) & o.pred_bit(wb), 0);
        // paper2 cites but is never cited.
        assert_ne!(o.out_signature(paper2) & o.pred_bit(cites), 0);
        assert_eq!(o.in_signature(paper2), 0);
        // Alice only receives wb edges.
        assert_eq!(o.out_signature(alice), 0);
        assert_eq!(o.in_signature(alice), o.pred_bit(wb));
    }

    #[test]
    fn assemble_matches_builder_path() {
        let via_builder = tiny();
        let values = via_builder.values().clone();
        let preds = via_builder.preds().clone();
        let types = via_builder.types().clone();
        let nodes: Vec<NodeData> = via_builder
            .node_ids()
            .map(|n| via_builder.node(n))
            .collect();
        let edges: Vec<EdgeData> = via_builder
            .edge_ids()
            .map(|e| via_builder.edge(e))
            .collect();
        let o = Ontology::assemble(values, preds, types, nodes, edges).unwrap();
        assert_eq!(o.node_count(), via_builder.node_count());
        assert_eq!(o.edge_count(), via_builder.edge_count());
        for n in o.node_ids() {
            assert_eq!(o.out_edges(n), via_builder.out_edges(n));
            assert_eq!(o.in_edges(n), via_builder.in_edges(n));
            assert_eq!(o.out_signature(n), via_builder.out_signature(n));
        }
        let wb = o.pred_by_name("wb").unwrap();
        assert_eq!(o.pred_stats(wb), via_builder.pred_stats(wb));
        assert_eq!(o.node_by_value("Bob"), via_builder.node_by_value("Bob"));
        assert!(o.validate().is_ok());
    }

    #[test]
    fn assemble_rejects_bad_tables() {
        let o = tiny();
        let nodes: Vec<NodeData> = o.node_ids().map(|n| o.node(n)).collect();
        let edges: Vec<EdgeData> = o.edge_ids().map(|e| o.edge(e)).collect();
        // Out-of-range value id.
        let mut bad = nodes.clone();
        bad[0].value = ValueId::new(99);
        let err = Ontology::assemble(
            o.values().clone(),
            o.preds().clone(),
            o.types().clone(),
            bad,
            edges.clone(),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::UnknownNode { .. }));
        // Duplicate value.
        let mut dup = nodes.clone();
        dup[1].value = dup[0].value;
        let err = Ontology::assemble(
            o.values().clone(),
            o.preds().clone(),
            o.types().clone(),
            dup,
            edges.clone(),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::DuplicateValue { .. }));
        // Edge pointing past the node table.
        let mut bad_edges = edges;
        bad_edges[0].dst = NodeId::new(u32::MAX);
        let err = Ontology::assemble(
            o.values().clone(),
            o.preds().clone(),
            o.types().clone(),
            nodes,
            bad_edges,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::UnknownNode { .. }));
    }

    #[test]
    fn lookups_fail_gracefully() {
        let o = tiny();
        assert!(o.node_by_value("nobody").is_none());
        assert!(o.pred_by_name("nope").is_none());
        assert!(o.type_by_name("nope").is_none());
    }

    #[test]
    fn permuted_assemble_tables_fall_back_to_the_value_map() {
        // Swap the value ids of two nodes: identity no longer holds, so
        // the Map arm must carry the lookup.
        let o = tiny();
        let mut nodes: Vec<NodeData> = o.node_ids().map(|n| o.node(n)).collect();
        let edges: Vec<EdgeData> = o.edge_ids().map(|e| o.edge(e)).collect();
        nodes.swap(0, 1);
        let v0 = o.value_of(nodes[0].value).to_string();
        let v1 = o.value_of(nodes[1].value).to_string();
        let p = Ontology::assemble(
            o.values().clone(),
            o.preds().clone(),
            o.types().clone(),
            nodes,
            edges,
        )
        .unwrap();
        assert_eq!(p.node_by_value(&v0), Some(NodeId::new(0)));
        assert_eq!(p.node_by_value(&v1), Some(NodeId::new(1)));
        assert!(p.node_by_value("nobody").is_none());
    }
}
