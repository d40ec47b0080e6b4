//! Batched triple inserts/deletes over an immutable [`Ontology`].
//!
//! The ontology stays immutable: [`Ontology::apply_delta`] produces a
//! **new** point-in-time copy, which is what lets in-flight inference
//! sessions keep reading the version they pinned while new sessions see
//! the head (copy-on-write versioning in `questpro-server`).
//!
//! A new version costs a verbatim copy of every index the batch leaves
//! untouched plus work proportional to the batch. What that means, versus
//! rebuilding from text:
//!
//! * the three label interners are reused append-only — no label is
//!   re-hashed or re-copied: the arena and the overflow base are
//!   `Arc`-shared between versions, only the recent overflow (at most an
//!   eighth of the base plus one batch) is copied;
//! * node ids are stable: nodes are never deleted (a triple delete can
//!   leave an isolated node, which keeps its id), inserts append;
//! * edge ids are **stable for insert-only deltas**. A batch with `k`
//!   deletes shrinks the surviving table to `new_len = old_len − k`:
//!   each deleted id below `new_len` is a *hole*, and the holes are
//!   filled, in ascending order, with the surviving edges of
//!   `[new_len, old_len)`, also ascending. Inserts append from
//!   `new_len`. So at most `k` edges change id, and every other survivor
//!   keeps its id, wherever in the edge table the deletes fall;
//! * every index is spliced, never recounted, and nothing is renumbered.
//!   A moved edge is spliced as if its old id were deleted and its new id
//!   inserted, so its endpoints count as touched. Each columnar SPO/OPS
//!   orientation copies each run of untouched nodes with `memcpy` and
//!   merges kept entries with moved and inserted ones only on touched
//!   nodes. `by_pred` copies a predicate no deleted, moved or inserted
//!   edge carries whole, and rebuilds a touched one from bulk-copied
//!   segments around binary-searched positions (spans are ascending).
//!   Signature words are copied, and only touched nodes are recomputed
//!   from their new span. Per-predicate statistics are adjusted from the
//!   touched `(node, pred)` pairs;
//! * per-version node-indexed arrays keep their predecessor's capacity
//!   (`retained_capacity`), so consecutive versions request identical
//!   allocation sizes and reuse the blocks of evicted versions.
//!
//! Debug builds assert after every delta that the spliced columnar
//! block, `by_pred` and signature words equal a from-scratch build.
//!
//! The correctness oracle for all of this is differential: after any
//! update sequence the incremental ontology must behave identically to
//! one rebuilt from scratch from the post-update triple set (pinned by
//! unit tests here and fuzzed end-to-end by the `update` surface in
//! `questpro-fuzz`).

use crate::error::GraphError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{EdgeId, NodeId, PredId, ValueId};
use crate::interner::Interner;
use crate::ontology::{index_edges, EdgeCsr, EdgeData, NodeData, Ontology, ValueLookup};

/// A batch of triple updates: deletes are applied first, then inserts.
///
/// Validation is strict — deleting an absent triple, deleting the same
/// triple twice, inserting an edge that already exists (and survives the
/// batch's deletes), or inserting the same edge twice are all named
/// errors, so a rejected batch never half-applies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TripleDelta {
    /// Triples to add, as `[src, pred, dst]` value/label strings.
    pub inserts: Vec<[String; 3]>,
    /// Triples to remove, same shape.
    pub deletes: Vec<[String; 3]>,
}

impl TripleDelta {
    /// Whether the batch carries no work.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of triples touched.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// What an applied delta did, for cache invalidation and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Edges inserted.
    pub inserted: usize,
    /// Edges deleted.
    pub deleted: usize,
    /// Nodes created by inserts referencing new values.
    pub nodes_added: usize,
    /// OR of [`Ontology::pred_bit`] over every touched predicate: an
    /// entry whose own predicate signature is disjoint from this word
    /// provably saw no relevant change (modulo the 64-bit fold, which
    /// only ever over-approximates — safe direction).
    pub pred_sig: u64,
    /// True iff the delta had no deletes, in which case every
    /// pre-existing [`EdgeId`] is still valid in the new version.
    /// A batch with `k` deletes moves at most `k` surviving edges from
    /// the end of the table into the deleted slots (see the module
    /// docs), so anything holding old edge ids (explanations, cached
    /// matches) must be dropped or remapped.
    pub edge_ids_stable: bool,
}

/// Resolves `label` to a node in the new tables, appending a fresh
/// untyped node if the value is new.
fn node_of(
    values: &mut Interner,
    nodes: &mut Vec<NodeData>,
    map: &mut Option<FxHashMap<ValueId, NodeId>>,
    label: &str,
) -> NodeId {
    let v = ValueId::new(values.intern(label));
    let existing = match map {
        None => {
            if v.index() < nodes.len() {
                Some(NodeId::new(v.raw()))
            } else {
                None
            }
        }
        Some(m) => m.get(&v).copied(),
    };
    if let Some(n) = existing {
        return n;
    }
    let n = NodeId::from_usize(nodes.len());
    nodes.push(NodeData { value: v, ty: None });
    match map {
        Some(m) => {
            m.insert(v, n);
        }
        None if v.index() == n.index() => {} // identity preserved
        None => {
            // Identity broke (values interner held labels with no node);
            // materialize the map once and carry on.
            let mut m: FxHashMap<ValueId, NodeId> = nodes[..n.index()]
                .iter()
                .enumerate()
                .map(|(i, d)| (d.value, NodeId::from_usize(i)))
                .collect();
            m.insert(v, n);
            *map = Some(m);
        }
    }
    n
}

/// Capacity policy for the per-version node-indexed arrays (node table,
/// signature words, columnar offsets): a copy keeps its predecessor's
/// capacity and grows by an eighth only when full.
/// Consecutive versions then request identical allocation sizes, so the
/// allocator can hand each new version the blocks of the version the
/// registry just evicted instead of fragmenting the heap.
pub(crate) fn retained_capacity(prev_cap: usize, len: usize) -> usize {
    if len <= prev_cap {
        prev_cap
    } else {
        len + len / 8
    }
}

/// What a validated delta does to the edge table, shared by every index
/// splice. With `k` deletes the new survivor count is `first_insert =
/// old_len − k`: surviving ids below it keep their id, each deleted id
/// below it (a *hole*) takes, in order, the next surviving edge from
/// `[first_insert, old_len)`, and inserts append from `first_insert` on.
/// Every index treats a moved edge as deleted at its old id and inserted
/// at its hole.
pub(crate) struct Splice<'a> {
    /// The previous version's edge table.
    old_edges: &'a [EdgeData],
    /// The new edge table: survivors with the holes filled, then inserts.
    pub(crate) new_edges: &'a [EdgeData],
    /// Deleted old edge ids, ascending.
    dels: &'a [u32],
    /// The holes: the prefix of `dels` below `first_insert`.
    holes: &'a [u32],
    /// New id of the first inserted edge (= the survivor count).
    first_insert: usize,
    /// Nodes incident to a deleted, moved or inserted edge as its source
    /// (`touched_out`) or target (`touched_in`), ascending: the only
    /// nodes whose spans and signature words change.
    pub(crate) touched_out: Vec<u32>,
    pub(crate) touched_in: Vec<u32>,
    /// Node and predicate counts of the new version.
    pub(crate) node_count: usize,
    pub(crate) pred_count: usize,
}

impl<'a> Splice<'a> {
    fn new(
        old_edges: &'a [EdgeData],
        new_edges: &'a [EdgeData],
        dels: &'a [u32],
        node_count: usize,
        pred_count: usize,
    ) -> Self {
        let first_insert = old_edges.len() - dels.len();
        let mut s = Splice {
            old_edges,
            new_edges,
            dels,
            holes: &dels[..dels.partition_point(|&d| (d as usize) < first_insert)],
            first_insert,
            touched_out: Vec::new(),
            touched_in: Vec::new(),
            node_count,
            pred_count,
        };
        s.touched_out = s.touched(|d| d.src);
        s.touched_in = s.touched(|d| d.dst);
        s
    }

    /// The endpoints `end` of every deleted and placed edge, ascending.
    /// A moved edge has the same endpoints at both ids, so its placement
    /// covers its removal too.
    fn touched(&self, end: fn(&EdgeData) -> NodeId) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .deleted_edges()
            .chain(self.placed().map(|(_, d)| d))
            .map(|d| end(d).raw())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The inserted edges (ids `first_insert..`).
    pub(crate) fn inserted(&self) -> &'a [EdgeData] {
        &self.new_edges[self.first_insert..]
    }

    /// The deleted edges, by ascending old id.
    pub(crate) fn deleted_edges(&self) -> impl Iterator<Item = &'a EdgeData> + '_ {
        self.dels.iter().map(|&e| &self.old_edges[e as usize])
    }

    /// Every edge at a new id, with that id: the moved edges at their
    /// holes, then the inserts.
    pub(crate) fn placed(&self) -> impl Iterator<Item = (EdgeId, &'a EdgeData)> + '_ {
        let new_edges = self.new_edges;
        self.holes
            .iter()
            .map(move |&h| (EdgeId::new(h), &new_edges[h as usize]))
            .chain(
                self.inserted()
                    .iter()
                    .enumerate()
                    .map(|(i, d)| (EdgeId::from_usize(self.first_insert + i), d)),
            )
    }

    /// Whether old edge `e` keeps its id: it is below `first_insert` and
    /// not deleted. Every other old edge was deleted or moved.
    #[inline]
    pub(crate) fn keeps(&self, e: EdgeId) -> bool {
        e.index() < self.first_insert && self.holes.binary_search(&e.raw()).is_err()
    }

    /// `by_pred` after the delta. A predicate no deleted, moved or
    /// inserted edge carries is copied whole. Otherwise its old span
    /// (ascending) is cut at `first_insert` — everything past it was
    /// deleted or moved — each hole is removed from its old edge's
    /// predicate and added to its filler's at a binary-searched
    /// position, with the segments between copied in bulk, and the
    /// inserts are appended.
    fn by_pred(&self, old: &EdgeCsr) -> EdgeCsr {
        // (pred, id, added), so at one id a removal precedes an addition.
        let mut edits: Vec<(PredId, u32, bool)> = Vec::with_capacity(2 * self.holes.len());
        for &h in self.holes {
            edits.push((self.old_edges[h as usize].pred, h, false));
            edits.push((self.new_edges[h as usize].pred, h, true));
        }
        edits.sort_unstable();
        let mut inserts: Vec<(PredId, EdgeId)> = self
            .inserted()
            .iter()
            .enumerate()
            .map(|(i, d)| (d.pred, EdgeId::from_usize(self.first_insert + i)))
            .collect();
        inserts.sort_unstable();
        let mut off = Vec::with_capacity(self.pred_count + 1);
        let mut ids = Vec::with_capacity(self.new_edges.len());
        off.push(0);
        let old_pred_count = old.off.len() - 1;
        let cut = self.first_insert as u32;
        let (mut j, mut k) = (0, 0);
        for p in 0..self.pred_count {
            let mut span = if p < old_pred_count { old.span(p) } else { &[] };
            if span.last().is_some_and(|e| e.raw() >= cut) {
                span = &span[..span.partition_point(|e| e.raw() < cut)];
            }
            while j < edits.len() && edits[j].0.index() == p {
                let (_, id, added) = edits[j];
                let at = span.partition_point(|e| e.raw() < id);
                ids.extend_from_slice(&span[..at]);
                if added {
                    ids.push(EdgeId::new(id));
                    span = &span[at..];
                } else {
                    debug_assert_eq!(span.get(at).map(|e| e.raw()), Some(id));
                    span = &span[at + 1..];
                }
                j += 1;
            }
            ids.extend_from_slice(span);
            while k < inserts.len() && inserts[k].0.index() == p {
                ids.push(inserts[k].1);
                k += 1;
            }
            off.push(ids.len() as u32);
        }
        EdgeCsr { off, ids }
    }

    /// A signature vector after the delta: the old words copied, new
    /// nodes zeroed, touched nodes recomputed from their new span.
    fn signatures(
        &self,
        old: &Vec<u64>,
        touched: &[u32],
        bits: impl Fn(NodeId) -> u64,
    ) -> Vec<u64> {
        let mut sig = Vec::with_capacity(retained_capacity(old.capacity(), self.node_count));
        sig.extend_from_slice(old);
        sig.resize(self.node_count, 0);
        for &n in touched {
            sig[n as usize] = bits(NodeId::new(n));
        }
        sig
    }
}

impl Ontology {
    /// Applies a batch of triple deletes-then-inserts, returning the new
    /// ontology version and a summary of what changed.
    ///
    /// The receiver is untouched (copy-on-write). See the module docs
    /// for the id-stability contract and what is maintained
    /// incrementally.
    ///
    /// # Errors
    /// [`GraphError::MissingTriple`] when a delete names an absent
    /// triple (unknown value/predicate included) or repeats within the
    /// batch; [`GraphError::DuplicateEdge`] when an insert duplicates a
    /// surviving edge or another insert in the batch. On error, nothing
    /// is applied.
    pub fn apply_delta(&self, delta: &TripleDelta) -> Result<(Ontology, DeltaSummary), GraphError> {
        let old_node_count = self.nodes.len();
        // Deleted edge ids, in batch order until sorted below.
        let mut dels: Vec<u32> = Vec::with_capacity(delta.deletes.len());
        let mut deleted: FxHashSet<EdgeId> = FxHashSet::default();
        let mut pred_sig = 0u64;
        for [s, p, o] in &delta.deletes {
            let missing = || GraphError::MissingTriple {
                src: s.clone(),
                pred: p.clone(),
                dst: o.clone(),
            };
            let sn = self.node_by_value(s).ok_or_else(missing)?;
            let pid = self.pred_by_name(p).ok_or_else(missing)?;
            let on = self.node_by_value(o).ok_or_else(missing)?;
            let e = self.find_edge(sn, pid, on).ok_or_else(missing)?;
            if !deleted.insert(e) {
                return Err(missing());
            }
            dels.push(e.raw());
            pred_sig |= self.pred_bit(pid);
        }
        dels.sort_unstable();
        // Append-only reuse of the interners and node table. An insert
        // names at most two new values and one new predicate.
        let new_values = 2 * delta.inserts.len();
        let mut values = self.values.fork(new_values);
        let mut preds = self.preds.fork(delta.inserts.len());
        let types = self.types.clone();
        let mut nodes = Vec::with_capacity(retained_capacity(
            self.nodes.capacity(),
            old_node_count + new_values,
        ));
        nodes.extend_from_slice(&self.nodes);
        let mut value_map: Option<FxHashMap<ValueId, NodeId>> = match &self.value_to_node {
            ValueLookup::Identity => None,
            ValueLookup::Map(m) => Some(m.clone()),
        };
        let mut batch_set: FxHashSet<(NodeId, PredId, NodeId)> = FxHashSet::default();
        let mut inserted: Vec<EdgeData> = Vec::with_capacity(delta.inserts.len());
        for [s, p, o] in &delta.inserts {
            let sn = node_of(&mut values, &mut nodes, &mut value_map, s);
            let on = node_of(&mut values, &mut nodes, &mut value_map, o);
            let pid = PredId::new(preds.intern(p));
            let duplicate = || GraphError::DuplicateEdge {
                src: s.clone(),
                pred: p.clone(),
                dst: o.clone(),
            };
            // Against surviving old edges (only old ids can collide).
            if sn.index() < old_node_count
                && on.index() < old_node_count
                && pid.index() < self.preds.len()
            {
                if let Some(e) = self.find_edge(sn, pid, on) {
                    if !deleted.contains(&e) {
                        return Err(duplicate());
                    }
                }
            }
            // Against the batch itself.
            if !batch_set.insert((sn, pid, on)) {
                return Err(duplicate());
            }
            inserted.push(EdgeData {
                src: sn,
                dst: on,
                pred: pid,
            });
            pred_sig |= 1u64 << (pid.raw() & 63);
        }
        // Survivors keep their slots; the surviving edges past the new
        // length fill the holes in order; inserts append.
        let new_len = self.edges.len() - dels.len();
        let holes = dels.partition_point(|&d| (d as usize) < new_len);
        let mut edges: Vec<EdgeData> = Vec::with_capacity(new_len + inserted.len());
        edges.extend_from_slice(&self.edges[..new_len]);
        let tail_dels = &dels[holes..];
        let fillers =
            (new_len..self.edges.len()).filter(|&e| tail_dels.binary_search(&(e as u32)).is_err());
        for (&h, f) in dels[..holes].iter().zip(fillers) {
            edges[h as usize] = self.edges[f];
        }
        edges.extend_from_slice(&inserted);
        let splice = Splice::new(&self.edges, &edges, &dels, nodes.len(), preds.len());
        let columnar = self.columnar.apply_delta(&splice);
        let by_pred_csr = splice.by_pred(&self.by_pred_csr);
        let out_sig = splice.signatures(&self.out_sig, &splice.touched_out, |n| {
            columnar.out_pred_bits(n)
        });
        let in_sig = splice.signatures(&self.in_sig, &splice.touched_in, |n| {
            columnar.in_pred_bits(n)
        });
        let summary = DeltaSummary {
            inserted: inserted.len(),
            deleted: dels.len(),
            nodes_added: nodes.len() - old_node_count,
            pred_sig,
            edge_ids_stable: dels.is_empty(),
        };
        let next = Ontology {
            values,
            preds,
            types,
            nodes,
            edges,
            by_pred_csr,
            value_to_node: match value_map {
                None => ValueLookup::Identity,
                Some(m) => ValueLookup::Map(m),
            },
            out_sig,
            in_sig,
            columnar,
        };
        debug_assert_eq!(next.columnar, next.rebuild_columnar());
        debug_assert!(
            index_edges(next.nodes.len(), next.preds.len(), &next.edges)
                == (
                    next.by_pred_csr.clone(),
                    next.out_sig.clone(),
                    next.in_sig.clone()
                ),
            "spliced by_pred/signature indexes drifted from a rebuild"
        );
        Ok((next, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EdgeId;
    use crate::rng::{Rng, SplitMix64};
    use crate::triples;

    fn base() -> Ontology {
        let mut b = Ontology::builder();
        b.edge("paper1", "wb", "Alice").unwrap();
        b.edge("paper1", "wb", "Bob").unwrap();
        b.edge("paper2", "wb", "Bob").unwrap();
        b.edge("paper2", "cites", "paper1").unwrap();
        b.typed_node("Alice", "Author").unwrap();
        b.build()
    }

    fn delta(inserts: &[[&str; 3]], deletes: &[[&str; 3]]) -> TripleDelta {
        let own = |t: &[&str; 3]| [t[0].to_string(), t[1].to_string(), t[2].to_string()];
        TripleDelta {
            inserts: inserts.iter().map(own).collect(),
            deletes: deletes.iter().map(own).collect(),
        }
    }

    /// From-scratch oracle: serialize the incremental result and re-parse
    /// it; every index and statistic must agree with the rebuilt graph.
    fn assert_matches_scratch(inc: &Ontology) {
        inc.validate().expect("incremental result validates");
        assert_eq!(
            inc.columnar,
            inc.rebuild_columnar(),
            "columnar delta drifted"
        );
        let scratch = triples::parse(&triples::serialize(inc)).expect("reparse");
        // The text format cannot carry isolated untyped nodes (a delete
        // may strand one); everything else must agree.
        let isolated = |o: &Ontology| {
            o.node_ids()
                .filter(|&n| o.degree(n) == 0 && o.node_type(n).is_none())
                .count()
        };
        assert_eq!(inc.node_count() - isolated(inc), scratch.node_count());
        assert_eq!(inc.edge_count(), scratch.edge_count());
        // Compare as rendered triple sets (ids may differ between the
        // incremental and scratch paths).
        let render = |o: &Ontology| {
            let mut v: Vec<String> = o.edge_ids().map(|e| o.describe_edge(e)).collect();
            v.sort();
            v
        };
        assert_eq!(render(inc), render(&scratch));
    }

    /// Every spliced index equals its from-scratch build, and the
    /// adjacency spans hold exactly the edge table's incident edges.
    fn assert_spliced_indexes_match_rebuild(o: &Ontology) {
        assert_eq!(o.columnar, o.rebuild_columnar(), "columnar splice drifted");
        assert!(
            index_edges(o.nodes.len(), o.preds.len(), &o.edges)
                == (o.by_pred_csr.clone(), o.out_sig.clone(), o.in_sig.clone()),
            "by_pred/signature splice drifted"
        );
        let mut outs = vec![Vec::new(); o.node_count()];
        let mut ins = vec![Vec::new(); o.node_count()];
        for e in o.edge_ids() {
            let d = o.edge(e);
            outs[d.src.index()].push(e);
            ins[d.dst.index()].push(e);
        }
        for n in o.node_ids() {
            let mut out = o.out_edges(n).to_vec();
            let mut inc = o.in_edges(n).to_vec();
            out.sort_unstable();
            inc.sort_unstable();
            assert_eq!(out, outs[n.index()], "out_edges({n})");
            assert_eq!(inc, ins[n.index()], "in_edges({n})");
        }
    }

    #[test]
    fn insert_only_delta_keeps_edge_ids_stable() {
        let o = base();
        let (next, sum) = o
            .apply_delta(&delta(
                &[["paper3", "wb", "Alice"], ["paper3", "cites", "paper1"]],
                &[],
            ))
            .unwrap();
        assert!(sum.edge_ids_stable);
        assert_eq!(sum.inserted, 2);
        assert_eq!(sum.nodes_added, 1);
        assert_eq!(next.edge_count(), 6);
        // Old edge ids resolve to the same triples.
        for e in o.edge_ids() {
            assert_eq!(o.describe_edge(e), next.describe_edge(e));
        }
        // Old ontology untouched (copy-on-write).
        assert_eq!(o.edge_count(), 4);
        assert!(o.node_by_value("paper3").is_none());
        assert_matches_scratch(&next);
    }

    #[test]
    fn delete_delta_reports_instability() {
        let o = base();
        let (next, sum) = o
            .apply_delta(&delta(&[], &[["paper1", "wb", "Bob"]]))
            .unwrap();
        assert!(!sum.edge_ids_stable);
        assert_eq!(sum.deleted, 1);
        assert_eq!(next.edge_count(), 3);
        // Node survives deletion of its only edge context.
        assert!(next.node_by_value("Bob").is_some());
        assert_matches_scratch(&next);
    }

    /// The triple of edge `e`, as a delta names it.
    fn triple_of(o: &Ontology, e: usize) -> [String; 3] {
        let d = o.edge(EdgeId::from_usize(e));
        [
            o.value_str(d.src).to_string(),
            o.pred_str(d.pred).to_string(),
            o.value_str(d.dst).to_string(),
        ]
    }

    /// Applies `d` and checks the id contract against `o`: every survivor
    /// below `new_len` that is not a hole keeps its id, the surviving
    /// edges past `new_len` fill the holes in order, exactly as many
    /// edges move as there are holes, inserts follow in batch order, and
    /// every spliced index equals a rebuild.
    fn assert_id_contract(case: &str, o: &Ontology, d: &TripleDelta) -> Ontology {
        let (next, sum) = o.apply_delta(d).expect("valid batch");
        let id_of = |o: &Ontology, [s, p, t]: &[String; 3]| {
            o.find_edge(o.node_by_value(s)?, o.pred_by_name(p)?, o.node_by_value(t)?)
        };
        let mut dels: Vec<usize> = d
            .deletes
            .iter()
            .map(|t| id_of(o, t).expect("deleted triple exists").index())
            .collect();
        dels.sort_unstable();
        let new_len = o.edge_count() - dels.len();
        let holes: Vec<usize> = dels.iter().copied().filter(|&e| e < new_len).collect();
        let fillers: Vec<usize> = (new_len..o.edge_count())
            .filter(|e| !dels.contains(e))
            .collect();
        assert_eq!(holes.len(), fillers.len());
        let at = |o: &Ontology, e: usize| o.edge(EdgeId::from_usize(e));
        for e in (0..new_len).filter(|e| !dels.contains(e)) {
            assert_eq!(at(&next, e), at(o, e), "{case}: survivor {e} kept its id");
        }
        for (&h, &f) in holes.iter().zip(&fillers) {
            assert_eq!(at(&next, h), at(o, f), "{case}: hole {h} holds edge {f}");
        }
        let moved = o
            .edge_ids()
            .filter(|e| !dels.contains(&e.index()))
            .filter(|&e| id_of(&next, &triple_of(o, e.index())) != Some(e))
            .count();
        assert_eq!(moved, holes.len(), "{case}: moved edges");
        for (i, t) in d.inserts.iter().enumerate() {
            assert_eq!(id_of(&next, t), Some(EdgeId::from_usize(new_len + i)));
        }
        assert_eq!(sum.edge_ids_stable, dels.is_empty());
        assert_eq!(next.edge_count(), new_len + d.inserts.len());
        assert_spliced_indexes_match_rebuild(&next);
        assert_matches_scratch(&next);
        next
    }

    #[test]
    fn deletes_anywhere_move_at_most_k_edges() {
        let o = {
            let mut b = Ontology::builder();
            for i in 0..48 {
                let s = format!("n{}", i % 9);
                let t = format!("n{}", (i * 7 + 3) % 11);
                b.edge_idempotent(&s, &format!("p{}", i % 3), &t);
            }
            b.build()
        };
        let m = o.edge_count();
        let batch = |ids: &[usize], inserts: Vec<[String; 3]>| TripleDelta {
            inserts,
            deletes: ids.iter().map(|&e| triple_of(&o, e)).collect(),
        };
        let fresh = || vec![["n0".to_string(), "p9".to_string(), "new".to_string()]];
        let all: Vec<usize> = (0..m).collect();
        let cases: Vec<(&str, TripleDelta)> = vec![
            ("head", batch(&[0, 1, 2], fresh())),
            ("middle", batch(&[m / 2 - 1, m / 2, m / 2 + 3], fresh())),
            ("tail", batch(&[m - 3, m - 2, m - 1], fresh())),
            ("every edge", batch(&all, fresh())),
            (
                "every edge, reinserted",
                batch(&all, all.iter().map(|&e| triple_of(&o, e)).collect()),
            ),
            // The triple of id 5 leaves and comes back at the end.
            (
                "delete and reinsert",
                batch(&[0, 5, m - 1], vec![triple_of(&o, 5)]),
            ),
            // Fillers past new_len that are themselves deleted are skipped.
            (
                "deleted fillers",
                batch(&[0, 1, m - 4, m - 3, m - 1], fresh()),
            ),
            ("scattered", batch(&[3, 11, 12, 30, m - 2], Vec::new())),
        ];
        for (case, d) in cases {
            let next = assert_id_contract(case, &o, &d);
            // A second batch on the result moves edges a second time.
            let d2 = TripleDelta {
                inserts: Vec::new(),
                deletes: (0..next.edge_count())
                    .step_by(4)
                    .map(|e| triple_of(&next, e))
                    .collect(),
            };
            assert_id_contract(case, &next, &d2);
        }
    }

    #[test]
    fn mixed_delta_delete_then_reinsert_same_triple() {
        let o = base();
        let (next, _) = o
            .apply_delta(&delta(
                &[["paper1", "wb", "Bob"], ["Bob", "knows", "Alice"]],
                &[["paper1", "wb", "Bob"], ["paper2", "cites", "paper1"]],
            ))
            .unwrap();
        assert_eq!(next.edge_count(), 4);
        let bob = next.node_by_value("Bob").unwrap();
        let knows = next.pred_by_name("knows").unwrap();
        let alice = next.node_by_value("Alice").unwrap();
        assert!(next.find_edge(bob, knows, alice).is_some());
        assert_matches_scratch(&next);
    }

    #[test]
    fn types_survive_deltas() {
        let o = base();
        let (next, _) = o
            .apply_delta(&delta(&[["Alice", "knows", "Bob"]], &[]))
            .unwrap();
        let alice = next.node_by_value("Alice").unwrap();
        assert_eq!(next.type_str(next.node_type(alice).unwrap()), "Author");
    }

    #[test]
    fn missing_deletes_are_named_errors() {
        let o = base();
        for bad in [
            ["nobody", "wb", "Alice"],   // unknown src
            ["paper1", "nope", "Alice"], // unknown pred
            ["paper1", "wb", "nobody"],  // unknown dst
            ["paper2", "wb", "Alice"],   // absent triple
        ] {
            let err = o.apply_delta(&delta(&[], &[bad])).unwrap_err();
            assert!(matches!(err, GraphError::MissingTriple { .. }), "{err}");
        }
        // Same triple twice in one batch.
        let err = o
            .apply_delta(&delta(
                &[],
                &[["paper1", "wb", "Bob"], ["paper1", "wb", "Bob"]],
            ))
            .unwrap_err();
        assert!(matches!(err, GraphError::MissingTriple { .. }));
    }

    #[test]
    fn duplicate_inserts_are_named_errors() {
        let o = base();
        let err = o
            .apply_delta(&delta(&[["paper1", "wb", "Alice"]], &[]))
            .unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }));
        let err = o
            .apply_delta(&delta(&[["x", "p", "y"], ["x", "p", "y"]], &[]))
            .unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }));
        // Failed batches apply nothing.
        assert!(o.node_by_value("x").is_none());
    }

    #[test]
    fn empty_delta_is_a_noop_version() {
        let o = base();
        let (next, sum) = o.apply_delta(&TripleDelta::default()).unwrap();
        assert_eq!(sum.pred_sig, 0);
        assert!(sum.edge_ids_stable);
        assert_eq!(next.edge_count(), o.edge_count());
        assert_matches_scratch(&next);
    }

    #[test]
    fn pred_sig_covers_touched_predicates_only() {
        let o = base();
        let wb = o.pred_by_name("wb").unwrap();
        let cites = o.pred_by_name("cites").unwrap();
        let (_, sum) = o
            .apply_delta(&delta(&[], &[["paper1", "wb", "Bob"]]))
            .unwrap();
        assert_ne!(sum.pred_sig & o.pred_bit(wb), 0);
        assert_eq!(sum.pred_sig & !o.pred_bit(wb), 0);
        let _ = cites;
    }

    #[test]
    fn randomized_update_sequences_match_scratch() {
        // A miniature version of the fuzz oracle: drive a few hundred
        // random deltas over a growing world and check every version
        // against the from-scratch rebuild.
        let mut rng = SplitMix64::seed_from_u64(0x9_e37);
        let mut o = {
            let mut b = Ontology::builder();
            b.edge("n0", "p0", "n1").unwrap();
            b.build()
        };
        for round in 0..60 {
            let mut d = TripleDelta::default();
            // A couple of random inserts over a small id universe so
            // collisions and new nodes both happen.
            for _ in 0..(1 + rng.next_u64() % 3) {
                let s = format!("n{}", rng.next_u64() % 24);
                let p = format!("p{}", rng.next_u64() % 4);
                let t = format!("n{}", rng.next_u64() % 24);
                let triple = [s, p, t];
                let have = {
                    let [s, p, t] = &triple;
                    match (o.node_by_value(s), o.pred_by_name(p), o.node_by_value(t)) {
                        (Some(a), Some(pp), Some(b)) => o.find_edge(a, pp, b).is_some(),
                        _ => false,
                    }
                };
                if !have && !d.inserts.contains(&triple) {
                    d.inserts.push(triple);
                }
            }
            // Sometimes delete a random existing edge.
            if round % 3 == 0 && o.edge_count() > 0 {
                let e = EdgeId::from_usize((rng.next_u64() % o.edge_count() as u64) as usize);
                let ed = o.edge(e);
                d.deletes.push([
                    o.value_str(ed.src).to_string(),
                    o.pred_str(ed.pred).to_string(),
                    o.value_str(ed.dst).to_string(),
                ]);
            }
            let (next, _) = o.apply_delta(&d).expect("valid generated delta");
            assert_matches_scratch(&next);
            o = next;
        }
        assert!(o.edge_count() > 10);
    }

    #[test]
    fn spliced_indexes_match_rebuild_on_a_large_world() {
        // ~2k nodes, so most nodes are untouched by any one batch and the
        // bulk-copy runs between touched nodes carry the splice.
        let mut rng = SplitMix64::seed_from_u64(0x5_11ce);
        let mut o = {
            let mut b = Ontology::builder();
            for i in 0..2000u64 {
                b.typed_node(&format!("n{i}"), "T").unwrap();
            }
            for _ in 0..6000 {
                let s = format!("n{}", rng.next_u64() % 2000);
                let p = format!("p{}", rng.next_u64() % 6);
                let t = format!("n{}", rng.next_u64() % 2000);
                b.edge_idempotent(&s, &p, &t);
            }
            b.build()
        };
        let triple = |o: &Ontology, e: EdgeId| {
            let d = o.edge(e);
            [
                o.value_str(d.src).to_string(),
                o.pred_str(d.pred).to_string(),
                o.value_str(d.dst).to_string(),
            ]
        };
        let own = |t: [&str; 3]| t.map(str::to_string);
        let (mut new_pred, mut same_batch_node, mut stranded) = (false, false, false);
        for round in 0..120 {
            let mut d = TripleDelta::default();
            for _ in 0..(1 + rng.next_u64() % 8) {
                let e = EdgeId::from_usize((rng.next_u64() % o.edge_count() as u64) as usize);
                let t = triple(&o, e);
                if !d.deletes.contains(&t) {
                    d.deletes.push(t);
                }
            }
            for _ in 0..(1 + rng.next_u64() % 8) {
                let t = [
                    format!("n{}", rng.next_u64() % 2000),
                    format!("p{}", rng.next_u64() % 6),
                    format!("n{}", rng.next_u64() % 2000),
                ];
                let have = match (
                    o.node_by_value(&t[0]),
                    o.pred_by_name(&t[1]),
                    o.node_by_value(&t[2]),
                ) {
                    (Some(a), Some(p), Some(b)) => o.find_edge(a, p, b).is_some(),
                    _ => false,
                };
                if !have && !d.inserts.contains(&t) {
                    d.inserts.push(t);
                }
            }
            match round {
                // A predicate the world has never seen.
                10 => {
                    d.inserts.push(own(["n1", &format!("fresh{round}"), "n2"]));
                    new_pred = true;
                }
                // The second insert hits the node the first one creates.
                20 => {
                    d.inserts.push(own(["new20", "p0", "n3"]));
                    d.inserts.push(own(["n4", "p1", "new20"]));
                    same_batch_node = true;
                }
                // Delete every edge of one node, stranding it.
                30 => {
                    let n = o.node_by_value("n5").unwrap();
                    for &e in o.out_edges(n).iter().chain(o.in_edges(n)) {
                        let t = triple(&o, e);
                        if !d.deletes.contains(&t) {
                            d.deletes.push(t);
                        }
                    }
                    d.inserts.retain(|t| t[0] != "n5" && t[2] != "n5");
                    stranded = true;
                }
                _ => {}
            }
            assert!(!d.inserts.is_empty() && !d.deletes.is_empty());
            let (next, sum) = o.apply_delta(&d).expect("valid generated delta");
            assert_eq!(sum.deleted, d.deletes.len());
            assert_eq!(sum.inserted, d.inserts.len());
            assert_spliced_indexes_match_rebuild(&next);
            if round == 30 {
                assert_eq!(next.degree(next.node_by_value("n5").unwrap()), 0);
            }
            if round % 20 == 0 {
                assert_matches_scratch(&next);
            }
            o = next;
        }
        assert!(new_pred && same_batch_node && stranded);
        assert!(o.pred_by_name("fresh10").is_some());
        assert!(o.node_by_value("new20").is_some());
    }

    #[test]
    fn one_batch_of_thousands_of_deletes_splices_and_validates() {
        let mut rng = SplitMix64::seed_from_u64(0xde1_e7e);
        let o = {
            let mut b = Ontology::builder();
            for _ in 0..8000 {
                let s = format!("n{}", rng.next_u64() % 3000);
                let p = format!("p{}", rng.next_u64() % 5);
                let t = format!("n{}", rng.next_u64() % 3000);
                b.edge_idempotent(&s, &p, &t);
            }
            b.build()
        };
        let triple = |e: usize| {
            let d = o.edge(EdgeId::from_usize(e));
            [
                o.value_str(d.src).to_string(),
                o.pred_str(d.pred).to_string(),
                o.value_str(d.dst).to_string(),
            ]
        };
        // Delete every other edge, spread over the whole table and named
        // in shuffled order, so the deletes reach far below the newest ids.
        let mut ids: Vec<usize> = (0..o.edge_count()).step_by(2).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut d = TripleDelta {
            inserts: vec![["n0".into(), "fresh".into(), "n1".into()]],
            deletes: ids.iter().map(|&e| triple(e)).collect(),
        };
        assert!(d.deletes.len() > 3000);
        // A deleted triple may be re-inserted in the same batch.
        d.inserts.push(triple(ids[0]));
        let (next, sum) = o.apply_delta(&d).expect("valid large batch");
        assert_eq!(sum.deleted, ids.len());
        assert_eq!(next.edge_count(), o.edge_count() - ids.len() + 2);
        assert_spliced_indexes_match_rebuild(&next);
        assert_matches_scratch(&next);
        // Re-inserting a surviving edge in the same large batch is a
        // duplicate; repeating a delete at its end is a missing triple.
        let mut dup = d.clone();
        dup.inserts.push(triple(1));
        let err = o.apply_delta(&dup).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }), "{err}");
        let mut repeat = d.clone();
        repeat.deletes.push(triple(ids[ids.len() / 2]));
        let err = o.apply_delta(&repeat).unwrap_err();
        assert!(matches!(err, GraphError::MissingTriple { .. }), "{err}");
    }
}
