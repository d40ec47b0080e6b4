//! Batched triple inserts/deletes over an immutable [`Ontology`].
//!
//! The ontology stays immutable: [`Ontology::apply_delta`] produces a
//! **new** point-in-time copy, which is what lets in-flight inference
//! sessions keep reading the version they pinned while new sessions see
//! the head (copy-on-write versioning in `questpro-server`).
//!
//! A new version costs one sequential copy of the previous one plus work
//! on the nodes the batch touches. What that means, versus rebuilding
//! from text:
//!
//! * the three label interners are reused append-only — no label is
//!   re-hashed or re-copied: label bytes are `Arc`-shared between
//!   versions, only the overflow id table is copied;
//! * node ids are stable: nodes are never deleted (a triple delete can
//!   leave an isolated node, which keeps its id), inserts append;
//! * edge ids are **stable for insert-only deltas**; deletes compact the
//!   edge table run by run between the sorted deleted ids, a monotone
//!   old→new remap (relative order kept), so sorted spans remain sorted
//!   after remapping. Every surviving id in every index goes through
//!   that one table, wherever in the edge table the deletes fall;
//! * every index is spliced, never recounted. Each columnar SPO/OPS
//!   orientation copies each run of untouched nodes in bulk (a memcpy of
//!   the preds, a remap of the ids) and merges survivors with inserts
//!   only on touched nodes — those incident to a deleted or inserted
//!   edge. `by_pred` copies each predicate's survivors, then its
//!   inserts. Signature words are copied, and only touched nodes are
//!   recomputed from their new span. Per-predicate statistics are
//!   adjusted from the touched `(node, pred)` pairs;
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
    /// Deletes compact edge ids, so anything holding old edge ids
    /// (explanations, cached matches) must be dropped or remapped.
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
/// signature words, columnar offsets, interner overflow): a copy keeps
/// its predecessor's capacity and grows by an eighth only when full.
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
/// splice: survivors keep their relative order and are compacted past
/// the deleted ids, inserts append from `first_insert` on.
pub(crate) struct Splice<'a> {
    /// The previous version's edge table.
    old_edges: &'a [EdgeData],
    /// The new edge table: survivors, then inserts.
    pub(crate) new_edges: &'a [EdgeData],
    /// Deleted old edge ids, ascending.
    dels: &'a [u32],
    /// New id of the first inserted edge (= the survivor count).
    pub(crate) first_insert: usize,
    /// `remap[e]` is the new id of old edge `e`, `u32::MAX` if deleted.
    remap: Vec<u32>,
    /// Nodes incident to a deleted or inserted edge as its source
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
        // Each run of survivors between deleted ids shifts down by the
        // number of deletes below it.
        let mut remap = Vec::with_capacity(old_edges.len());
        let mut run_start = 0u32;
        for (below, &d) in (0u32..).zip(dels) {
            remap.extend(run_start - below..d - below);
            remap.push(u32::MAX);
            run_start = d + 1;
        }
        let next = (old_edges.len() - dels.len()) as u32;
        remap.extend(run_start - dels.len() as u32..next);
        let touched = |end: fn(&EdgeData) -> NodeId| {
            let mut v: Vec<u32> = dels
                .iter()
                .map(|&e| end(&old_edges[e as usize]))
                .chain(new_edges[next as usize..].iter().map(end))
                .map(NodeId::raw)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        Splice {
            old_edges,
            new_edges,
            dels,
            first_insert: next as usize,
            remap,
            touched_out: touched(|d| d.src),
            touched_in: touched(|d| d.dst),
            node_count,
            pred_count,
        }
    }

    /// The inserted edges (ids `first_insert..`).
    pub(crate) fn inserted(&self) -> &'a [EdgeData] {
        &self.new_edges[self.first_insert..]
    }

    /// The deleted edges, by ascending old id.
    pub(crate) fn deleted_edges(&self) -> impl Iterator<Item = &'a EdgeData> + '_ {
        self.dels.iter().map(|&e| &self.old_edges[e as usize])
    }

    /// New id of old edge `e`, `None` if the delta deleted it.
    #[inline]
    pub(crate) fn new_id(&self, e: EdgeId) -> Option<EdgeId> {
        let id = self.survivor(e);
        (id.raw() != u32::MAX).then_some(id)
    }

    /// New id of an old edge known to survive.
    #[inline]
    pub(crate) fn survivor(&self, e: EdgeId) -> EdgeId {
        EdgeId::new(self.remap[e.index()])
    }

    /// `by_pred` after the delta: each predicate's remapped survivors
    /// (ascending, since the remap is monotone) followed by its inserts.
    fn by_pred(&self, old: &EdgeCsr) -> EdgeCsr {
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
        let mut k = 0;
        for p in 0..self.pred_count {
            if p < old_pred_count {
                ids.extend(old.span(p).iter().filter_map(|&e| self.new_id(e)));
            }
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
        // Compact survivors run by run between the deleted ids, then
        // append the inserts.
        let mut edges: Vec<EdgeData> =
            Vec::with_capacity(self.edges.len() - dels.len() + inserted.len());
        let mut run_start = 0usize;
        for &d in &dels {
            edges.extend_from_slice(&self.edges[run_start..d as usize]);
            run_start = d as usize + 1;
        }
        edges.extend_from_slice(&self.edges[run_start..]);
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
    fn delete_delta_compacts_ids_and_reports_instability() {
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
