//! Batched triple inserts/deletes over an immutable [`Ontology`].
//!
//! The ontology stays immutable: [`Ontology::apply_delta`] produces a
//! **new** point-in-time copy, which is what lets in-flight inference
//! sessions keep reading the version they pinned while new sessions see
//! the head (copy-on-write versioning in `questpro-server`).
//!
//! A version is two tables of `Arc`-shared pages (see
//! [`columnar`](crate::columnar)), so a new version costs one reference
//! count per page plus a rebuild of the pages the batch touches — work
//! proportional to the batch, not to the graph. What that means, versus
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
//! * only touched pages are rebuilt, and every other page is shared with
//!   the parent. A moved edge counts as deleted at its old id and
//!   inserted at its hole, so its endpoints are touched too. An edge page
//!   is rebuilt when it holds a hole or lies at or past `new_len` (the
//!   tail); a node page when it holds an endpoint of a deleted, moved or
//!   inserted edge, or a new node. A rebuilt node page merges each node's
//!   kept entries with its moved and inserted ones; a rebuilt edge page
//!   regroups its run by predicate. Per-predicate statistics are
//!   adjusted from the touched `(node, pred)` pairs.
//!
//! [`DeltaSummary::pages_copied`] counts the rebuilt pages. Debug builds
//! assert after every delta that the pages equal a from-scratch build.
//!
//! The correctness oracle for all of this is differential: after any
//! update sequence the incremental ontology must behave identically to
//! one rebuilt from scratch from the post-update triple set (pinned by
//! unit tests here and fuzzed end-to-end by the `update` surface in
//! `questpro-fuzz`).

use crate::columnar::{EdgePage, NodePage, EDGE_PAGE, IN, NODE_PAGE, OUT};
use std::sync::Arc;

use crate::error::GraphError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{EdgeId, NodeId, PredId, ValueId};
use crate::interner::Interner;
use crate::ontology::{EdgeData, NodeData, Ontology, ValueLookup};

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
    /// Node and edge pages the new version built afresh; it shares every
    /// other page with the version it came from.
    pub pages_copied: usize,
}

/// Resolves `label` to a node of the new version, appending a fresh
/// untyped node to `added` if the value is new.
fn node_of(
    values: &mut Interner,
    old: &Ontology,
    added: &mut Vec<NodeData>,
    map: &mut Option<FxHashMap<ValueId, NodeId>>,
    label: &str,
) -> NodeId {
    let v = ValueId::new(values.intern(label));
    let count = old.node_count() + added.len();
    let existing = match map {
        None => (v.index() < count).then(|| NodeId::new(v.raw())),
        Some(m) => m.get(&v).copied(),
    };
    if let Some(n) = existing {
        return n;
    }
    let n = NodeId::from_usize(count);
    added.push(NodeData { value: v, ty: None });
    match map {
        Some(m) => {
            m.insert(v, n);
        }
        None if v.index() == n.index() => {} // identity preserved
        None => {
            // Identity broke (values interner held labels with no node);
            // materialize the map once and carry on.
            let mut m: FxHashMap<ValueId, NodeId> = (0..n.index())
                .map(NodeId::from_usize)
                .map(|i| {
                    let d = match i.index().checked_sub(old.node_count()) {
                        None => old.node(i),
                        Some(k) => added[k],
                    };
                    (d.value, i)
                })
                .collect();
            m.insert(v, n);
            *map = Some(m);
        }
    }
    n
}

/// What a validated delta does to the edge table, shared by every page
/// rebuild. With `k` deletes the new survivor count is `first_insert =
/// old_len − k`: surviving ids below it keep their id, each deleted id
/// below it (a *hole*) takes, in order, the next surviving edge from
/// `[first_insert, old_len)` (its *filler*), and inserts append from
/// `first_insert` on. Every index treats a moved edge as deleted at its
/// old id and inserted at its hole.
struct Splice<'a> {
    /// The previous version.
    old: &'a Ontology,
    /// Deleted old edge ids, ascending.
    dels: &'a [u32],
    /// The holes: the prefix of `dels` below `first_insert`.
    holes: &'a [u32],
    /// `fillers[i]` is the old id of the edge that moves into `holes[i]`.
    fillers: Vec<u32>,
    /// New id of the first inserted edge (= the survivor count).
    first_insert: usize,
    /// The inserted edges, in batch order.
    inserted: Vec<EdgeData>,
}

impl<'a> Splice<'a> {
    fn new(old: &'a Ontology, dels: &'a [u32], inserted: Vec<EdgeData>) -> Self {
        let old_len = old.edge_count();
        let first_insert = old_len - dels.len();
        let split = dels.partition_point(|&d| (d as usize) < first_insert);
        let (holes, tail_dels) = dels.split_at(split);
        let fillers: Vec<u32> = (first_insert as u32..old_len as u32)
            .filter(|e| tail_dels.binary_search(e).is_err())
            .collect();
        debug_assert_eq!(fillers.len(), holes.len());
        Splice {
            old,
            dels,
            holes,
            fillers,
            first_insert,
            inserted,
        }
    }

    /// Number of edges in the new version.
    fn edge_count(&self) -> usize {
        self.first_insert + self.inserted.len()
    }

    /// The deleted edges, by ascending old id.
    fn deleted_edges(&self) -> impl Iterator<Item = EdgeData> + '_ {
        self.dels.iter().map(|&e| self.old.edge(EdgeId::new(e)))
    }

    /// Every edge at a new id, with that id: the moved edges at their
    /// holes, then the inserts.
    fn placed(&self) -> impl Iterator<Item = (EdgeId, EdgeData)> + '_ {
        let moved = self
            .holes
            .iter()
            .zip(&self.fillers)
            .map(|(&h, &f)| (EdgeId::new(h), self.old.edge(EdgeId::new(f))));
        let inserts = self
            .inserted
            .iter()
            .enumerate()
            .map(|(i, &d)| (EdgeId::from_usize(self.first_insert + i), d));
        moved.chain(inserts)
    }

    /// Whether old edge `e` keeps its id: it is below `first_insert` and
    /// not deleted. Every other old edge was deleted or moved.
    #[inline]
    fn keeps(&self, e: EdgeId) -> bool {
        e.index() < self.first_insert && self.holes.binary_search(&e.raw()).is_err()
    }

    /// Indexes of the edge pages the delta rewrites, ascending: each page
    /// holding a hole, and every page from the survivor count on.
    fn edge_pages(&self) -> Vec<usize> {
        let mut pages: Vec<usize> = self.holes.iter().map(|&h| h as usize / EDGE_PAGE).collect();
        pages.extend(self.first_insert / EDGE_PAGE..self.edge_count().div_ceil(EDGE_PAGE));
        pages.dedup();
        pages
    }

    /// Edge page `j` of the new version: the old page's survivors with
    /// its holes filled, then the inserts that land in it.
    fn edge_page(&self, j: usize, count: &mut [u32]) -> Arc<EdgePage> {
        let lo = j * EDGE_PAGE;
        let hi = (lo + EDGE_PAGE).min(self.edge_count());
        let kept = hi.min(self.first_insert);
        let mut rows: Vec<EdgeData> = Vec::with_capacity(hi - lo);
        if lo < kept {
            rows.extend_from_slice(&self.old.pages.edges[j].rows()[..kept - lo]);
            let at = |e: usize| self.holes.partition_point(|&h| (h as usize) < e);
            let (a, b) = (at(lo), at(kept));
            for (&h, &f) in self.holes[a..b].iter().zip(&self.fillers[a..b]) {
                rows[h as usize - lo] = self.old.edge(EdgeId::new(f));
            }
        }
        if hi > self.first_insert {
            let from = lo.max(self.first_insert) - self.first_insert;
            rows.extend_from_slice(&self.inserted[from..hi - self.first_insert]);
        }
        EdgePage::new(lo, &rows, count)
    }

    /// Node page `k` of the new version, which holds `node_count` nodes
    /// (`added` are the new ones). Untouched nodes keep their rows, spans
    /// and signature words verbatim, runs of them copied in bulk; a
    /// touched node merges its kept old entries by (pred, edge id) with
    /// its placed ones and has its signature word recomputed. A moved
    /// edge's hole lies among the kept ids, so the merge compares full
    /// (pred, id) keys.
    fn node_page(
        &self,
        k: usize,
        node_count: usize,
        added: &[NodeData],
        touched: [Touched<'_>; 2],
    ) -> Arc<NodePage> {
        let (lo, hi) = (k * NODE_PAGE, ((k + 1) * NODE_PAGE).min(node_count));
        let old = self.old.pages.nodes.get(k).map(|p| &**p);
        let placed = touched[OUT].placed.len() + touched[IN].placed.len();
        let entries = old.map_or(0, NodePage::entries_len) + placed;
        let mut page = NodePage::blank(old.map_or(&[], NodePage::rows), entries);
        let old_count = self.old.node_count();
        if hi > old_count {
            page.add_nodes(&added[lo.max(old_count) - old_count..hi - old_count]);
        }
        if let Some(old) = old {
            page.copy_sigs(old);
        }
        for (d, Touched { nodes, placed }) in touched.into_iter().enumerate() {
            let below = |n: usize| move |&x: &u32| (x as usize) < n;
            let nodes = &nodes[nodes.partition_point(below(lo))..nodes.partition_point(below(hi))];
            let mut placed = &placed[placed.partition_point(|x| (x.0 as usize) < lo)..];
            page.open(d);
            let mut from = 0;
            for &n in nodes {
                let i = n as usize - lo;
                page.copy_slots(old, d, from..i);
                let (mine, rest) = placed.split_at(placed.iter().take_while(|x| x.0 == n).count());
                placed = rest;
                let mut mine = mine.iter().map(|&(_, p, e)| (p, e)).peekable();
                let kept = old
                    .filter(|o| i < o.len())
                    .into_iter()
                    .flat_map(|o| o.entries(d, i))
                    .filter(|&(_, e)| self.keeps(e));
                for (p, e) in kept {
                    while let Some((q, f)) = mine.next_if(|&x| x < (p, e)) {
                        page.push(q, f);
                    }
                    page.push(p, e);
                }
                for (q, f) in mine {
                    page.push(q, f);
                }
                page.close(d, i);
                page.seal_sig(d, i);
                from = i + 1;
            }
            page.copy_slots(old, d, from..hi - lo);
        }
        Arc::new(page)
    }
}

/// One orientation's view of a delta: the nodes whose spans change
/// (endpoints of deleted and placed edges), ascending, and every placed
/// edge as `(node, pred, new id)`, sorted.
#[derive(Clone, Copy)]
struct Touched<'a> {
    nodes: &'a [u32],
    placed: &'a [(u32, PredId, EdgeId)],
}

impl Ontology {
    /// Applies a batch of triple deletes-then-inserts, returning the new
    /// ontology version and a summary of what changed.
    ///
    /// The receiver is untouched (copy-on-write). See the module docs
    /// for the id-stability contract and what is shared with the
    /// receiver.
    ///
    /// # Errors
    /// [`GraphError::MissingTriple`] when a delete names an absent
    /// triple (unknown value/predicate included) or repeats within the
    /// batch; [`GraphError::DuplicateEdge`] when an insert duplicates a
    /// surviving edge or another insert in the batch. On error, nothing
    /// is applied.
    pub fn apply_delta(&self, delta: &TripleDelta) -> Result<(Ontology, DeltaSummary), GraphError> {
        let old_node_count = self.node_count();
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
        // Append-only reuse of the interners. An insert names at most two
        // new values and one new predicate.
        let mut values = self.values.fork(2 * delta.inserts.len());
        let mut preds = self.preds.fork(delta.inserts.len());
        let types = self.types.clone();
        let mut added: Vec<NodeData> = Vec::new();
        let mut value_map: Option<FxHashMap<ValueId, NodeId>> = match &self.value_to_node {
            ValueLookup::Identity => None,
            ValueLookup::Map(m) => Some(m.clone()),
        };
        let mut batch_set: FxHashSet<(NodeId, PredId, NodeId)> = FxHashSet::default();
        let mut inserted: Vec<EdgeData> = Vec::with_capacity(delta.inserts.len());
        for [s, p, o] in &delta.inserts {
            let sn = node_of(&mut values, self, &mut added, &mut value_map, s);
            let on = node_of(&mut values, self, &mut added, &mut value_map, o);
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
        let splice = Splice::new(self, &dels, inserted);
        let node_count = old_node_count + added.len();
        let mut pages = self.pages.clone();
        pages.node_count = node_count;
        pages.edge_count = splice.edge_count();

        // Edge pages: the tail is cut at the new length, then every
        // page holding a hole or lying past the survivor count is rebuilt.
        let mut count = vec![0u32; preds.len()];
        let edge_pages = splice.edge_pages();
        pages
            .edges
            .truncate(splice.edge_count().div_ceil(EDGE_PAGE));
        for &j in &edge_pages {
            let page = splice.edge_page(j, &mut count);
            match pages.edges.get_mut(j) {
                Some(slot) => *slot = page,
                None => pages.edges.push(page),
            }
        }

        // Node pages: every page holding an endpoint of a deleted or
        // placed edge, and the pages new nodes land in.
        let (mut placed_out, mut placed_in): (Vec<_>, Vec<_>) = splice
            .placed()
            .map(|(e, d)| ((d.src.raw(), d.pred, e), (d.dst.raw(), d.pred, e)))
            .unzip();
        placed_out.sort_unstable();
        placed_in.sort_unstable();
        let touched = |end: fn(&EdgeData) -> NodeId| {
            let mut v: Vec<u32> = splice
                .deleted_edges()
                .chain(splice.placed().map(|(_, d)| d))
                .map(|d| end(&d).raw())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let (touched_out, touched_in) = (touched(|d| d.src), touched(|d| d.dst));
        let mut node_pages: Vec<usize> = touched_out
            .iter()
            .chain(&touched_in)
            .map(|&n| n as usize / NODE_PAGE)
            .chain(old_node_count / NODE_PAGE..node_count.div_ceil(NODE_PAGE))
            .collect();
        node_pages.sort_unstable();
        node_pages.dedup();
        let touched = [
            Touched {
                nodes: &touched_out,
                placed: &placed_out,
            },
            Touched {
                nodes: &touched_in,
                placed: &placed_in,
            },
        ];
        for &k in &node_pages {
            let page = splice.node_page(k, node_count, &added, touched);
            match pages.nodes.get_mut(k) {
                Some(slot) => *slot = page,
                None => pages.nodes.push(page),
            }
        }

        // Statistics: cardinality by signed per-pred counts; distinct
        // subject/object counts by re-testing span emptiness for the
        // touched (node, pred) pairs only.
        pages.stats.resize(preds.len(), Default::default());
        let mut pairs: [Vec<(NodeId, PredId)>; 2] = Default::default();
        for d in splice.deleted_edges() {
            pages.stats[d.pred.index()].cardinality -= 1;
            pairs[OUT].push((d.src, d.pred));
            pairs[IN].push((d.dst, d.pred));
        }
        for &d in &splice.inserted {
            pages.stats[d.pred.index()].cardinality += 1;
            pairs[OUT].push((d.src, d.pred));
            pairs[IN].push((d.dst, d.pred));
        }
        for (d, pairs) in pairs.iter_mut().enumerate() {
            pairs.sort_unstable();
            pairs.dedup();
            for &(n, p) in pairs.iter() {
                let was = n.index() < old_node_count && !self.pages.with_pred(d, n, p).is_empty();
                let now = !pages.with_pred(d, n, p).is_empty();
                let st = &mut pages.stats[p.index()];
                let count = if d == OUT {
                    &mut st.distinct_subjects
                } else {
                    &mut st.distinct_objects
                };
                match (was, now) {
                    (false, true) => *count += 1,
                    (true, false) => *count -= 1,
                    _ => {}
                }
            }
        }

        let summary = DeltaSummary {
            inserted: splice.inserted.len(),
            deleted: dels.len(),
            nodes_added: added.len(),
            pred_sig,
            edge_ids_stable: dels.is_empty(),
            pages_copied: edge_pages.len() + node_pages.len(),
        };
        let next = Ontology {
            values,
            preds,
            types,
            value_to_node: match value_map {
                None => ValueLookup::Identity,
                Some(m) => ValueLookup::Map(m),
            },
            pages,
        };
        debug_assert!(
            next.pages == next.rebuild_pages(),
            "spliced pages drifted from a rebuild"
        );
        Ok((next, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(inc.pages, inc.rebuild_pages(), "paged delta drifted");
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
        assert_eq!(o.pages, o.rebuild_pages(), "page splice drifted");
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

    /// A live-shaped chain over a world of ~10⁴ nodes: each batch adds
    /// four papers (sixteen triples) and deletes what the batch three
    /// places earlier added. A page that holds no touched node or edge
    /// must be the parent's page itself, the fresh pages are bounded by
    /// the touched ones, and dropping the parent frees exactly its
    /// private pages.
    #[test]
    fn live_batches_share_every_untouched_page_with_the_parent() {
        use std::sync::{Arc, Weak};
        /// Per page of `b`: whether it is `a`'s page at the same index.
        fn shared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> Vec<bool> {
            (0..b.len())
                .map(|i| a.get(i).is_some_and(|p| Arc::ptr_eq(p, &b[i])))
                .collect()
        }
        fn weak<T>(ps: &[Arc<T>]) -> Vec<Weak<T>> {
            ps.iter().map(Arc::downgrade).collect()
        }
        /// Whether `w` is still page `i` of `ps`.
        fn kept<T>(ps: &[Arc<T>], i: usize, w: &Weak<T>) -> bool {
            ps.get(i)
                .is_some_and(|p| std::ptr::eq(Arc::as_ptr(p), w.as_ptr()))
        }
        let mut rng = SplitMix64::seed_from_u64(0x9a6e);
        let mut b = Ontology::builder();
        for i in 0..6000u64 {
            let paper = format!("paper{i}");
            let a1 = rng.next_u64() % 4000;
            let a2 = (a1 + 1 + rng.next_u64() % 3999) % 4000;
            b.edge(&paper, "creator", &format!("author{a1}")).unwrap();
            b.edge(&paper, "creator", &format!("author{a2}")).unwrap();
            b.edge(&paper, "year", &format!("y{}", rng.next_u64() % 70))
                .unwrap();
            b.edge(&paper, "journal", &format!("j{}", rng.next_u64() % 400))
                .unwrap();
        }
        let mut o = b.build();
        assert!(o.node_count() >= 10_000);
        let batch_inserts = |k: u64| -> Vec<[String; 3]> {
            let mut rng = SplitMix64::seed_from_u64(k);
            (0..4)
                .flat_map(|j| {
                    let paper = format!("live{k}x{j}");
                    let a = rng.next_u64() % 4000;
                    [
                        ("creator", format!("author{a}")),
                        ("creator", format!("author{}", (a + 1) % 4000)),
                        ("year", format!("y{}", rng.next_u64() % 70)),
                        ("journal", format!("j{}", rng.next_u64() % 400)),
                    ]
                    .map(|(p, t)| [paper.clone(), p.to_string(), t])
                })
                .collect()
        };
        for k in 0..12u64 {
            let d = TripleDelta {
                inserts: batch_inserts(k),
                deletes: if k >= 3 {
                    batch_inserts(k - 3)
                } else {
                    Vec::new()
                },
            };
            let (next, sum) = o.apply_delta(&d).unwrap();
            assert_eq!(
                (sum.inserted, sum.deleted),
                (16, if k >= 3 { 16 } else { 0 })
            );
            // Touched, independently of the implementation: edge slots
            // whose row differs between the versions, their endpoints in
            // either version, and the new nodes.
            let (old_m, new_m) = (o.edge_count(), next.edge_count());
            let mut edge_pages = std::collections::BTreeSet::new();
            let mut node_pages = std::collections::BTreeSet::new();
            for e in (0..old_m.max(new_m)).map(EdgeId::from_usize) {
                let before = (e.index() < old_m).then(|| o.edge(e));
                let after = (e.index() < new_m).then(|| next.edge(e));
                if before != after {
                    edge_pages.insert(e.index() / EDGE_PAGE);
                    for d in before.into_iter().chain(after) {
                        node_pages.insert(d.src.index() / NODE_PAGE);
                        node_pages.insert(d.dst.index() / NODE_PAGE);
                    }
                }
            }
            node_pages.extend((o.node_count()..next.node_count()).map(|n| n / NODE_PAGE));
            let node_shared = shared(&o.pages.nodes, &next.pages.nodes);
            let edge_shared = shared(&o.pages.edges, &next.pages.edges);
            for (k, &s) in node_shared.iter().enumerate() {
                assert!(
                    s || node_pages.contains(&k),
                    "node page {k} copied untouched"
                );
            }
            for (j, &s) in edge_shared.iter().enumerate() {
                assert!(
                    s || edge_pages.contains(&j),
                    "edge page {j} copied untouched"
                );
            }
            let fresh = node_shared
                .iter()
                .chain(&edge_shared)
                .filter(|&&s| !s)
                .count();
            assert_eq!(sum.pages_copied, fresh);
            assert!(fresh <= node_pages.len() + edge_pages.len());
            assert!(
                2 * fresh < node_shared.len() + edge_shared.len(),
                "{fresh} fresh pages"
            );
            // Dropping the parent frees its private pages and nothing else.
            let (old_nodes, old_edges) = (weak(&o.pages.nodes), weak(&o.pages.edges));
            drop(o);
            for (i, w) in old_nodes.iter().enumerate() {
                assert_eq!(
                    w.upgrade().is_some(),
                    kept(&next.pages.nodes, i, w),
                    "node page {i}"
                );
            }
            for (j, w) in old_edges.iter().enumerate() {
                assert_eq!(
                    w.upgrade().is_some(),
                    kept(&next.pages.edges, j, w),
                    "edge page {j}"
                );
            }
            o = next;
        }
        assert_matches_scratch(&o);
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
