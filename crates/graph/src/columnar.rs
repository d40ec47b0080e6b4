//! Columnar adjacency indexes and per-predicate statistics.
//!
//! These columns are the ontology's only per-node adjacency: the SPO
//! orientation groups edges by source node, the OPS orientation by
//! target node, and each node's span is **sorted by predicate** in flat
//! u32 columns. "All edges at `n`" is the whole span
//! ([`Ontology::out_edges`](crate::Ontology::out_edges) /
//! [`in_edges`](crate::Ontology::in_edges)); the matcher's hottest
//! question — "edges at `n` labeled `p`" — is a binary search for a
//! contiguous sub-span. Per-predicate cardinality / distinct-count
//! statistics feed the engine's cost estimator.
//!
//! Layout (CSR-style):
//!
//! ```text
//! out_sorted: [e0 e3 e7 | e1 e2 | ...]   edge ids, grouped by src node,
//! out_preds:  [p0 p0 p1 | p0 p2 | ...]   sorted by (pred, edge id)
//! out_off:    [0, 3, 5, ...]             node i owns out_sorted[off[i]..off[i+1]]
//! ```
//!
//! Within one node's span the edge ids for a given predicate appear in
//! **ascending edge-id order** — exactly the order a filter scan of the
//! edge table would produce, so every downstream sample and provenance
//! set enumerates in edge-id order within a predicate.

use crate::delta::{retained_capacity, Splice};
use crate::ids::{EdgeId, NodeId, PredId};
use crate::ontology::{EdgeCsr, EdgeData};

/// Per-predicate statistics for cost estimation.
///
/// For predicate `p`: `cardinality` is the number of `p`-edges,
/// `distinct_subjects` / `distinct_objects` the number of distinct
/// source / target nodes among them. A Volcano-style estimator derives
/// expected scan sizes from these (see `questpro-engine::cost`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredStats {
    /// Total number of edges labeled with this predicate.
    pub cardinality: u32,
    /// Distinct source nodes among those edges.
    pub distinct_subjects: u32,
    /// Distinct target nodes among those edges.
    pub distinct_objects: u32,
}

impl PredStats {
    /// Average out-fanout `cardinality / distinct_subjects` (0 if unused).
    pub fn avg_out_fanout(&self) -> f64 {
        if self.distinct_subjects == 0 {
            0.0
        } else {
            f64::from(self.cardinality) / f64::from(self.distinct_subjects)
        }
    }

    /// Average in-fanout `cardinality / distinct_objects` (0 if unused).
    pub fn avg_in_fanout(&self) -> f64 {
        if self.distinct_objects == 0 {
            0.0
        } else {
            f64::from(self.cardinality) / f64::from(self.distinct_objects)
        }
    }
}

/// One orientation of the columnar adjacency: node `i` owns
/// `sorted[off[i]..off[i+1]]`, with `preds` mirroring `sorted` so the
/// predicate binary search touches one flat u32 column. Each node span
/// is sorted by (pred, edge id).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Spans {
    sorted: Vec<EdgeId>,
    preds: Vec<PredId>,
    off: Vec<u32>,
}

impl Spans {
    fn node_count(&self) -> usize {
        self.off.len() - 1
    }

    #[inline]
    fn range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.off[n.index()] as usize..self.off[n.index() + 1] as usize
    }

    #[inline]
    fn span(&self, n: NodeId) -> &[EdgeId] {
        &self.sorted[self.range(n)]
    }

    #[inline]
    fn with_pred(&self, n: NodeId, p: PredId) -> &[EdgeId] {
        let r = self.range(n);
        let span = &self.preds[r.clone()];
        let a = r.start + span.partition_point(|&q| q.raw() < p.raw());
        let b = r.start + span.partition_point(|&q| q.raw() <= p.raw());
        &self.sorted[a..b]
    }

    /// OR of the signature bits of the predicates in `n`'s span.
    fn pred_bits(&self, n: NodeId) -> u64 {
        self.preds[self.range(n)]
            .iter()
            .fold(0, |acc, p| acc | 1u64 << (p.raw() & 63))
    }

    /// This orientation after the delta `s`. `touched` lists the nodes
    /// incident to a deleted, moved or inserted edge (ascending) and
    /// `placed` the moved and inserted edges as `(node, pred, new id)`,
    /// sorted. Every other node keeps its span verbatim: consecutive
    /// untouched nodes are copied as one run (a memcpy of the ids and the
    /// preds, a shift of the offsets); only touched nodes are merged
    /// entry by entry.
    fn splice(&self, s: &Splice<'_>, touched: &[u32], placed: &[(u32, PredId, EdgeId)]) -> Spans {
        let m = s.new_edges.len();
        let mut next = Spans {
            sorted: Vec::with_capacity(m),
            preds: Vec::with_capacity(m),
            off: Vec::with_capacity(retained_capacity(self.off.capacity(), s.node_count + 1)),
        };
        next.off.push(0);
        let (mut from, mut k) = (0usize, 0usize);
        for &t in touched {
            let t = t as usize;
            next.copy_untouched(self, from, t);
            let k_hi = k + placed[k..].iter().take_while(|i| i.0 as usize == t).count();
            next.merge_touched(self, s, t, &placed[k..k_hi]);
            (from, k) = (t + 1, k_hi);
        }
        next.copy_untouched(self, from, s.node_count);
        debug_assert_eq!(next.off.len(), s.node_count + 1);
        next
    }

    /// Appends the spans of untouched nodes `from..to`: old nodes keep
    /// their entries (all of which keep their ids), new nodes are empty.
    fn copy_untouched(&mut self, old: &Spans, from: usize, to: usize) {
        let old_to = to.min(old.node_count());
        if from < old_to {
            let (lo, hi) = (old.off[from], old.off[old_to]);
            let base = self.sorted.len() as u32;
            let run = lo as usize..hi as usize;
            self.preds.extend_from_slice(&old.preds[run.clone()]);
            self.sorted.extend_from_slice(&old.sorted[run]);
            self.off
                .extend(old.off[from + 1..=old_to].iter().map(|&o| o - lo + base));
        }
        let end = self.sorted.len() as u32;
        self.off
            .resize(self.off.len() + (to - from.max(old_to)), end);
    }

    /// Appends node `t`'s span: a two-pointer merge by (pred, edge id)
    /// of the entries that keep their ids with its sorted placed edges.
    /// A moved edge's hole lies among the kept ids, so the merge compares
    /// full (pred, id) keys.
    fn merge_touched(
        &mut self,
        old: &Spans,
        s: &Splice<'_>,
        t: usize,
        placed: &[(u32, PredId, EdgeId)],
    ) {
        let range = if t < old.node_count() {
            old.range(NodeId::from_usize(t))
        } else {
            0..0
        };
        let mut j = 0;
        for a in range {
            let e = old.sorted[a];
            if !s.keeps(e) {
                continue;
            }
            let p = old.preds[a];
            while j < placed.len() && (placed[j].1, placed[j].2) < (p, e) {
                self.sorted.push(placed[j].2);
                self.preds.push(placed[j].1);
                j += 1;
            }
            self.sorted.push(e);
            self.preds.push(p);
        }
        for &(_, p, e) in &placed[j..] {
            self.sorted.push(e);
            self.preds.push(p);
        }
        self.off.push(self.sorted.len() as u32);
    }
}

/// Sorted columnar adjacency (SPO / OPS orientations) plus statistics.
///
/// Built once in [`OntologyBuilder::build`](crate::OntologyBuilder::build)
/// and owned by the [`Ontology`](crate::Ontology); the POS orientation is
/// the ontology's `by_pred` edge list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnarIndexes {
    // SPO orientation: out-adjacency grouped by source node.
    out: Spans,
    // OPS orientation: in-adjacency grouped by target node.
    in_: Spans,
    stats: Vec<PredStats>,
}

impl ColumnarIndexes {
    /// Builds the columnar indexes from the edge table.
    ///
    /// `by_pred` groups the edge table by predicate with ids ascending
    /// within each group (as the ontology's CSR indexer produces).
    /// Iterating predicates in id order and appending each bucket yields
    /// every node span already sorted by (pred, edge id) — a two-pass
    /// counting sort, no comparison sort needed.
    pub(crate) fn build(node_count: usize, edges: &[EdgeData], by_pred: &EdgeCsr) -> Self {
        let m = edges.len();
        let pred_count = by_pred.off.len() - 1;
        let mut out_off = vec![0u32; node_count + 1];
        let mut in_off = vec![0u32; node_count + 1];
        for d in edges {
            out_off[d.src.index() + 1] += 1;
            in_off[d.dst.index() + 1] += 1;
        }
        for i in 0..node_count {
            out_off[i + 1] += out_off[i];
            in_off[i + 1] += in_off[i];
        }
        let mut out_sorted = vec![EdgeId::new(0); m];
        let mut out_preds = vec![PredId::new(0); m];
        let mut in_sorted = vec![EdgeId::new(0); m];
        let mut in_preds = vec![PredId::new(0); m];
        // Write cursors, consumed as spans fill left to right.
        let mut out_cur: Vec<u32> = out_off[..node_count].to_vec();
        let mut in_cur: Vec<u32> = in_off[..node_count].to_vec();
        let mut stats = vec![PredStats::default(); pred_count];
        // Stamp arrays for distinct counts: stamp[n] == p+1 iff node n was
        // already seen for predicate p. O(E) overall, no hashing.
        let mut src_stamp = vec![0u32; node_count];
        let mut dst_stamp = vec![0u32; node_count];
        for (pi, st) in stats.iter_mut().enumerate() {
            let bucket = by_pred.span(pi);
            let p = PredId::from_usize(pi);
            st.cardinality = bucket.len() as u32;
            for &e in bucket {
                let d = edges[e.index()];
                let oc = &mut out_cur[d.src.index()];
                out_sorted[*oc as usize] = e;
                out_preds[*oc as usize] = p;
                *oc += 1;
                let ic = &mut in_cur[d.dst.index()];
                in_sorted[*ic as usize] = e;
                in_preds[*ic as usize] = p;
                *ic += 1;
                let stamp = pi as u32 + 1;
                if src_stamp[d.src.index()] != stamp {
                    src_stamp[d.src.index()] = stamp;
                    st.distinct_subjects += 1;
                }
                if dst_stamp[d.dst.index()] != stamp {
                    dst_stamp[d.dst.index()] = stamp;
                    st.distinct_objects += 1;
                }
            }
        }
        Self::from_sorted_parts(
            out_sorted, out_preds, out_off, in_sorted, in_preds, in_off, stats,
        )
    }

    /// Assembles columnar indexes from pre-sorted parts without a
    /// counting-sort pass.
    ///
    /// The persistent store (`questpro-store`) keeps its triple table in
    /// SPO order and its OSP permutation on disk; both map 1:1 onto these
    /// columns, so a snapshot load can hand the arrays over instead of
    /// re-deriving them edge by edge. The contract (checked in debug
    /// builds, trusted in release — snapshot decoding validates the
    /// on-disk form before calling this):
    ///
    /// * `out_off` / `in_off` are monotone CSR offsets of length
    ///   `node_count + 1` ending at `edge_count`;
    /// * each node span of `out_*` / `in_*` is sorted by (pred, edge id),
    ///   matching what the counting-sort builder produces;
    /// * `stats[p]` holds the per-predicate aggregates for predicate `p`.
    pub fn from_sorted_parts(
        out_sorted: Vec<EdgeId>,
        out_preds: Vec<PredId>,
        out_off: Vec<u32>,
        in_sorted: Vec<EdgeId>,
        in_preds: Vec<PredId>,
        in_off: Vec<u32>,
        stats: Vec<PredStats>,
    ) -> Self {
        debug_assert_eq!(out_sorted.len(), out_preds.len());
        debug_assert_eq!(in_sorted.len(), in_preds.len());
        debug_assert_eq!(out_sorted.len(), in_sorted.len());
        debug_assert_eq!(out_off.len(), in_off.len());
        debug_assert_eq!(out_off.last().copied(), Some(out_sorted.len() as u32));
        debug_assert_eq!(in_off.last().copied(), Some(in_sorted.len() as u32));
        debug_assert!(out_off.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(in_off.windows(2).all(|w| w[0] <= w[1]));
        Self {
            out: Spans {
                sorted: out_sorted,
                preds: out_preds,
                off: out_off,
            },
            in_: Spans {
                sorted: in_sorted,
                preds: in_preds,
                off: in_off,
            },
            stats,
        }
    }

    /// Maintains the columnar block across the delta `s` instead of
    /// rebuilding it from scratch.
    ///
    /// Each orientation is spliced (see the module docs of
    /// [`delta`](crate::delta)): untouched nodes are copied verbatim,
    /// touched nodes merge the entries that keep their ids with their
    /// sorted moved and inserted edges. Per-predicate statistics are
    /// adjusted from the affected `(node, pred)` pairs only — moved edges
    /// change neither — `cardinality` by signed
    /// counts, the distinct counts by comparing old-span/new-span
    /// emptiness. The result is bit-identical to a from-scratch
    /// [`ColumnarIndexes`] build over the new edge table (asserted in
    /// debug builds and pinned by the delta differential tests).
    pub(crate) fn apply_delta(&self, s: &Splice<'_>) -> Self {
        let (mut placed_out, mut placed_in): (Vec<_>, Vec<_>) = s
            .placed()
            .map(|(e, d)| ((d.src.raw(), d.pred, e), (d.dst.raw(), d.pred, e)))
            .unzip();
        placed_out.sort_unstable();
        placed_in.sort_unstable();
        let out = self.out.splice(s, &s.touched_out, &placed_out);
        let in_ = self.in_.splice(s, &s.touched_in, &placed_in);
        // Statistics: cardinality by signed per-pred counts; distinct
        // subject/object counts by re-testing span emptiness for the
        // touched (node, pred) pairs only.
        let mut stats = self.stats.clone();
        stats.resize(s.pred_count, PredStats::default());
        let mut pairs_out: Vec<(u32, PredId)> = Vec::new();
        let mut pairs_in: Vec<(u32, PredId)> = Vec::new();
        for d in s.deleted_edges() {
            stats[d.pred.index()].cardinality -= 1;
            pairs_out.push((d.src.raw(), d.pred));
            pairs_in.push((d.dst.raw(), d.pred));
        }
        for d in s.inserted() {
            stats[d.pred.index()].cardinality += 1;
            pairs_out.push((d.src.raw(), d.pred));
            pairs_in.push((d.dst.raw(), d.pred));
        }
        let adjust = |pairs: &mut Vec<(u32, PredId)>,
                      old: &Spans,
                      new: &Spans,
                      stats: &mut [PredStats],
                      count: fn(&mut PredStats) -> &mut u32| {
            pairs.sort_unstable();
            pairs.dedup();
            for &(n, p) in pairs.iter() {
                let node = NodeId::new(n);
                let was = node.index() < old.node_count() && !old.with_pred(node, p).is_empty();
                let now = !new.with_pred(node, p).is_empty();
                match (was, now) {
                    (false, true) => *count(&mut stats[p.index()]) += 1,
                    (true, false) => *count(&mut stats[p.index()]) -= 1,
                    _ => {}
                }
            }
        };
        adjust(&mut pairs_out, &self.out, &out, &mut stats, |st| {
            &mut st.distinct_subjects
        });
        adjust(&mut pairs_in, &self.in_, &in_, &mut stats, |st| {
            &mut st.distinct_objects
        });
        Self { out, in_, stats }
    }

    /// All outgoing edges of `n`, sorted by (pred, edge id).
    #[inline]
    pub fn out_span(&self, n: NodeId) -> &[EdgeId] {
        self.out.span(n)
    }

    /// All incoming edges of `n`, sorted by (pred, edge id).
    #[inline]
    pub fn in_span(&self, n: NodeId) -> &[EdgeId] {
        self.in_.span(n)
    }

    /// Outgoing edges of `n` labeled `p`, in ascending edge-id order.
    #[inline]
    pub fn out_with_pred(&self, n: NodeId, p: PredId) -> &[EdgeId] {
        self.out.with_pred(n, p)
    }

    /// Incoming edges of `n` labeled `p`, in ascending edge-id order.
    #[inline]
    pub fn in_with_pred(&self, n: NodeId, p: PredId) -> &[EdgeId] {
        self.in_.with_pred(n, p)
    }

    /// Signature word of `n`'s outgoing predicates (see
    /// [`Ontology::out_signature`](crate::Ontology::out_signature)).
    pub(crate) fn out_pred_bits(&self, n: NodeId) -> u64 {
        self.out.pred_bits(n)
    }

    /// Signature word of `n`'s incoming predicates.
    pub(crate) fn in_pred_bits(&self, n: NodeId) -> u64 {
        self.in_.pred_bits(n)
    }

    /// Statistics for predicate `p` (zeroed if out of range).
    #[inline]
    pub fn pred_stats(&self, p: PredId) -> PredStats {
        self.stats.get(p.index()).copied().unwrap_or_default()
    }

    /// All per-predicate statistics, indexed by predicate id.
    pub fn all_stats(&self) -> &[PredStats] {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use crate::Ontology;

    #[test]
    fn spans_agree_with_filter_scan_in_order() {
        let mut b = Ontology::builder();
        b.edge("paper1", "wb", "Alice").unwrap();
        b.edge("paper1", "wb", "Bob").unwrap();
        b.edge("paper2", "wb", "Bob").unwrap();
        b.edge("paper2", "cites", "paper1").unwrap();
        b.edge("paper1", "cites", "paper2").unwrap();
        let o = b.build();
        // The oracle is the edge table itself, filtered in ascending id
        // order — independent of the columnar block under test.
        let scan = |keep: &dyn Fn(crate::EdgeData) -> bool| -> Vec<_> {
            o.edge_ids().filter(|&e| keep(o.edge(e))).collect()
        };
        for n in o.node_ids() {
            for praw in 0..o.pred_count() {
                let p = crate::ids::PredId::from_usize(praw);
                let scan_out = scan(&|d| d.src == n && d.pred == p);
                assert_eq!(o.out_edges_with_pred(n, p), scan_out.as_slice());
                let scan_in = scan(&|d| d.dst == n && d.pred == p);
                assert_eq!(o.in_edges_with_pred(n, p), scan_in.as_slice());
            }
        }
    }

    #[test]
    fn stats_count_cardinality_and_distincts() {
        let mut b = Ontology::builder();
        b.edge("paper1", "wb", "Alice").unwrap();
        b.edge("paper1", "wb", "Bob").unwrap();
        b.edge("paper2", "wb", "Bob").unwrap();
        b.edge("paper2", "cites", "paper1").unwrap();
        let o = b.build();
        let wb = o.pred_by_name("wb").unwrap();
        let st = o.pred_stats(wb);
        assert_eq!(st.cardinality, 3);
        assert_eq!(st.distinct_subjects, 2); // paper1, paper2
        assert_eq!(st.distinct_objects, 2); // Alice, Bob
        let cites = o.pred_by_name("cites").unwrap();
        let st = o.pred_stats(cites);
        assert_eq!(
            (st.cardinality, st.distinct_subjects, st.distinct_objects),
            (1, 1, 1)
        );
        assert!((o.pred_stats(wb).avg_out_fanout() - 1.5).abs() < 1e-12);
        assert!((o.pred_stats(wb).avg_in_fanout() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_and_missing_predicates_yield_empty_spans() {
        let mut b = Ontology::builder();
        b.node("lonely");
        b.edge("a", "p", "b").unwrap();
        let o = b.build();
        let lonely = o.node_by_value("lonely").unwrap();
        let p = o.pred_by_name("p").unwrap();
        assert!(o.out_edges_with_pred(lonely, p).is_empty());
        assert!(o.in_edges_with_pred(lonely, p).is_empty());
    }
}
