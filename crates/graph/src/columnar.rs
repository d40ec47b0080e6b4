//! Paged storage of an ontology version: node pages, edge pages and
//! per-predicate statistics.
//!
//! An [`Ontology`](crate::Ontology) keeps no flat per-node or per-edge
//! array. Node ids are cut into runs of [`NODE_PAGE`] consecutive ids and
//! edge ids into runs of [`EDGE_PAGE`]; each run is one immutable page
//! behind an `Arc`, and a version is the two page tables plus the
//! statistics ([`Pages`]). [`Ontology::apply_delta`](crate::Ontology::apply_delta)
//! clones both tables (one reference count per page), rebuilds only the
//! pages a batch touches, and shares every other page with its parent.
//!
//! A node page holds, for its run of nodes, the node rows, the out/in
//! signature words and both orientations of the columnar adjacency: the
//! SPO orientation groups edges by source node, the OPS orientation by
//! target node, and each node's span is **sorted by predicate**. Spans
//! never cross a page, so "all edges at `n`" is one slice
//! ([`Ontology::out_edges`](crate::Ontology::out_edges) /
//! [`in_edges`](crate::Ontology::in_edges)), and the matcher's hottest
//! question — "edges at `n` labeled `p`" — a binary search for a
//! contiguous sub-span. The node-indexed parts are fixed arrays inside
//! the page, so a lookup costs one pointer hop more than a flat array.
//! An edge page holds its run's edge rows and the same run grouped by
//! predicate, so "all `p`-edges" visits each page's `p`-group in page
//! order.
//!
//! Layout (node page `k` owns nodes `k·NODE_PAGE ..`, edge page `j` owns
//! edges `j·EDGE_PAGE ..`):
//!
//! ```text
//! node page k   nodes:   [d0 d1 d2 ...]              value / type rows (inline)
//!               sig:     [out: s0 s1 ...][in: ...]   signature words (inline)
//!               off:     [out: 0 3 5 ...][in: 9 ...] slot i owns ids[off[i]..off[i+1]] (inline)
//!               ids:     [e0 e3 e7 | e1 e2 | ... || e4 | ...]  out spans, then in spans,
//!               preds:   [p0 p0 p1 | p0 p2 | ... || p1 | ...]  each sorted by (pred, edge id)
//! edge page j   edges:   [row j·E, row j·E+1, ...]   src / dst / pred rows (inline)
//!               by_pred: [e.. of p0 | e.. of p2 | ...] the run's ids by (pred, edge id)
//!               groups:  [(p0, 0), (p2, 7), ...]     where each predicate's ids start
//! ```
//!
//! Within one node's span the edge ids for a given predicate appear in
//! **ascending edge-id order** — exactly the order a filter scan of the
//! edge table would produce, so every downstream sample and provenance
//! set enumerates in edge-id order within a predicate. Per-predicate
//! cardinality / distinct-count statistics feed the engine's cost
//! estimator.

use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

use crate::ids::{EdgeId, NodeId, PredId, ValueId};
use crate::ontology::{EdgeData, NodeData};

/// log2 of [`NODE_PAGE`].
const NODE_PAGE_BITS: u32 = 6;
/// Nodes per node page. A live-update batch touches a few dozen nodes
/// scattered over the id space, so a page is small: copying 64 nodes'
/// rows and spans is cheap, and the page table stays short enough to
/// clone per version. On the 10⁵-triple live world, 16 and 32 measured
/// no faster per batch.
pub const NODE_PAGE: usize = 1 << NODE_PAGE_BITS;
/// log2 of [`EDGE_PAGE`].
const EDGE_PAGE_BITS: u32 = 10;
/// Edges per edge page. A batch rewrites the edge table only at its
/// holes and its tail, so edge pages can be larger than node pages,
/// which keeps a full "all `p`-edges" scan to few page switches; 512
/// and 2048 measured no faster per batch.
pub const EDGE_PAGE: usize = 1 << EDGE_PAGE_BITS;

/// The node page holding `n` and `n`'s slot in it.
#[inline]
fn node_slot(n: NodeId) -> (usize, usize) {
    (n.index() >> NODE_PAGE_BITS, n.index() & (NODE_PAGE - 1))
}

/// The edge page holding `e` and `e`'s slot in it.
#[inline]
fn edge_slot(e: EdgeId) -> (usize, usize) {
    (e.index() >> EDGE_PAGE_BITS, e.index() & (EDGE_PAGE - 1))
}

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

/// Orientation of a node page's spans and signature words: outgoing
/// (SPO, grouped by source node).
pub(crate) const OUT: usize = 0;
/// Orientation of a node page's spans and signature words: incoming
/// (OPS, grouped by target node).
pub(crate) const IN: usize = 1;

const BLANK_NODE: NodeData = NodeData {
    value: ValueId::new(0),
    ty: None,
};
const BLANK_EDGE: EdgeData = EdgeData {
    src: NodeId::new(0),
    dst: NodeId::new(0),
    pred: PredId::new(0),
};

/// A run of [`NODE_PAGE`] consecutive nodes (fewer in the last page):
/// their rows, signature words and both orientations' spans. The
/// node-indexed parts are fixed arrays inside the page, so a lookup goes
/// from the page table straight to the node's slot; slots past `len`
/// stay blank.
#[derive(Debug, Clone)]
pub(crate) struct NodePage {
    len: usize,
    nodes: [NodeData; NODE_PAGE],
    // Per-node predicate signatures, per orientation: bit `pred_bit(p)`
    // is set iff the node has an incident out/in edge labeled `p`
    // (modulo the 64-bit fold, so the test is a sound necessary
    // condition only).
    sig: [[u64; NODE_PAGE]; 2],
    // Orientation `d`'s slot `i` owns `ids[off[d][i]..off[d][i + 1]]`,
    // sorted by (pred, edge id), with `preds` mirroring `ids`. The out
    // spans come first: `off[IN][0] == off[OUT][len]`.
    off: [[u32; NODE_PAGE + 1]; 2],
    ids: Vec<EdgeId>,
    preds: Vec<PredId>,
}

impl PartialEq for NodePage {
    fn eq(&self, other: &Self) -> bool {
        let n = self.len;
        n == other.len
            && self.nodes[..n] == other.nodes[..n]
            && (0..2).all(|d| {
                self.sig[d][..n] == other.sig[d][..n] && self.off[d][..=n] == other.off[d][..=n]
            })
            && self.ids == other.ids
            && self.preds == other.preds
    }
}

impl Eq for NodePage {}

impl NodePage {
    /// A page of `nodes` with room for `entries` span entries and no
    /// spans yet.
    pub(crate) fn blank(nodes: &[NodeData], entries: usize) -> NodePage {
        let mut page = NodePage {
            len: 0,
            nodes: [BLANK_NODE; NODE_PAGE],
            sig: [[0; NODE_PAGE]; 2],
            off: [[0; NODE_PAGE + 1]; 2],
            ids: Vec::with_capacity(entries),
            preds: Vec::with_capacity(entries),
        };
        page.add_nodes(nodes);
        page
    }

    /// Appends node rows to the page.
    pub(crate) fn add_nodes(&mut self, nodes: &[NodeData]) {
        self.nodes[self.len..self.len + nodes.len()].copy_from_slice(nodes);
        self.len += nodes.len();
    }

    /// A page of `nodes` whose slot `i` of orientation `d` holds
    /// `deg[d][i]` zeroed entries; each `deg[d][i]` becomes that slot's
    /// write cursor (see [`NodePage::place`]).
    fn sized(nodes: &[NodeData], deg: [&mut [u32]; 2]) -> NodePage {
        let mut page = NodePage::blank(nodes, 0);
        let mut at = 0u32;
        for (d, deg) in deg.into_iter().enumerate() {
            page.off[d][0] = at;
            for (i, c) in deg.iter_mut().enumerate() {
                at += std::mem::replace(c, at);
                page.off[d][i + 1] = at;
            }
        }
        page.ids = vec![EdgeId::new(0); at as usize];
        page.preds = vec![PredId::new(0); at as usize];
        page
    }

    /// Writes `(p, e)` at `cursor` and advances it.
    #[inline]
    fn place(&mut self, cursor: &mut u32, p: PredId, e: EdgeId) {
        self.ids[*cursor as usize] = e;
        self.preds[*cursor as usize] = p;
        *cursor += 1;
    }

    /// Starts orientation `d`'s spans at the entries pushed so far.
    pub(crate) fn open(&mut self, d: usize) {
        self.off[d][0] = self.ids.len() as u32;
    }

    /// Appends an entry to the open span.
    #[inline]
    pub(crate) fn push(&mut self, p: PredId, e: EdgeId) {
        self.ids.push(e);
        self.preds.push(p);
    }

    /// Ends orientation `d`'s slot `i` at the entries pushed so far.
    #[inline]
    pub(crate) fn close(&mut self, d: usize, i: usize) {
        self.off[d][i + 1] = self.ids.len() as u32;
    }

    /// Appends `old`'s orientation-`d` spans of slots `slots` verbatim,
    /// in one bulk copy, closing each slot; slots `old` lacks (new nodes)
    /// are closed empty. Slot `slots.start` must be the open one.
    pub(crate) fn copy_slots(&mut self, old: Option<&NodePage>, d: usize, slots: Range<usize>) {
        let have = old.map_or(0, |o| o.len).clamp(slots.start, slots.end);
        if let Some(old) = old.filter(|_| slots.start < have) {
            let (a, b) = (old.off[d][slots.start], old.off[d][have]);
            let base = self.ids.len() as u32;
            self.ids.extend_from_slice(&old.ids[a as usize..b as usize]);
            self.preds
                .extend_from_slice(&old.preds[a as usize..b as usize]);
            for i in slots.start..have {
                self.off[d][i + 1] = old.off[d][i + 1] - a + base;
            }
        }
        for i in have..slots.end {
            self.close(d, i);
        }
    }

    /// Number of nodes in the page.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of span entries over both orientations.
    pub(crate) fn entries_len(&self) -> usize {
        self.ids.len()
    }

    /// The node rows.
    pub(crate) fn rows(&self) -> &[NodeData] {
        &self.nodes[..self.len]
    }

    /// Computes every signature word from the spans, counts the page
    /// into `stats`, and shares the page. Each run of one predicate in a
    /// node's out span is one distinct subject, in its in span one
    /// distinct object.
    fn sealed(mut self, stats: &mut [PredStats]) -> Arc<Self> {
        for d in [OUT, IN] {
            for i in 0..self.len {
                let mut sig = 0;
                for (p, len) in self.pred_runs(d, i) {
                    sig |= 1u64 << (p.raw() & 63);
                    let st = &mut stats[p.index()];
                    if d == OUT {
                        st.cardinality += len;
                        st.distinct_subjects += 1;
                    } else {
                        st.distinct_objects += 1;
                    }
                }
                self.sig[d][i] = sig;
            }
        }
        Arc::new(self)
    }

    /// Copies every signature word of `old`.
    pub(crate) fn copy_sigs(&mut self, old: &NodePage) {
        self.sig = old.sig;
    }

    /// Recomputes slot `i`'s orientation-`d` signature word from its span.
    pub(crate) fn seal_sig(&mut self, d: usize, i: usize) {
        self.sig[d][i] = self.preds[self.range(d, i)]
            .iter()
            .fold(0, |acc, p| acc | 1u64 << (p.raw() & 63));
    }

    #[inline]
    fn range(&self, d: usize, i: usize) -> Range<usize> {
        self.off[d][i] as usize..self.off[d][i + 1] as usize
    }

    #[inline]
    fn span(&self, d: usize, i: usize) -> &[EdgeId] {
        &self.ids[self.range(d, i)]
    }

    #[inline]
    fn with_pred(&self, d: usize, i: usize, p: PredId) -> &[EdgeId] {
        let r = self.range(d, i);
        let span = &self.preds[r.clone()];
        let a = r.start + span.partition_point(|&q| q.raw() < p.raw());
        let b = r.start + span.partition_point(|&q| q.raw() <= p.raw());
        &self.ids[a..b]
    }

    /// Orientation `d`'s slot `i` as `(pred, edge id)` entries, in span
    /// order.
    pub(crate) fn entries(
        &self,
        d: usize,
        i: usize,
    ) -> impl Iterator<Item = (PredId, EdgeId)> + '_ {
        let r = self.range(d, i);
        self.preds[r.clone()]
            .iter()
            .copied()
            .zip(self.ids[r].iter().copied())
    }

    /// Orientation `d`'s slot `i` as runs of one predicate, `(pred, run
    /// length)`.
    fn pred_runs(&self, d: usize, i: usize) -> impl Iterator<Item = (PredId, u32)> + '_ {
        self.preds[self.range(d, i)]
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u32))
    }
}

/// A run of [`EDGE_PAGE`] consecutive edges (fewer in the last page):
/// their rows and the run grouped by predicate, all fixed arrays inside
/// the page; slots past `len` stay blank.
#[derive(Debug, Clone)]
pub(crate) struct EdgePage {
    len: usize,
    edges: [EdgeData; EDGE_PAGE],
    // The run's edge ids sorted by (pred, edge id); `groups` lists each
    // predicate the run holds with the start of its ids, ascending.
    by_pred: [EdgeId; EDGE_PAGE],
    groups: Vec<(PredId, u32)>,
}

impl PartialEq for EdgePage {
    fn eq(&self, other: &Self) -> bool {
        let n = self.len;
        n == other.len
            && self.edges[..n] == other.edges[..n]
            && self.by_pred[..n] == other.by_pred[..n]
            && self.groups == other.groups
    }
}

impl Eq for EdgePage {}

impl EdgePage {
    /// The page of edges `first..first + edges.len()`, grouped by a
    /// counting sort over the predicates it holds. `count` is zeroed
    /// scratch with one slot per predicate and is left zeroed.
    pub(crate) fn new(first: usize, edges: &[EdgeData], count: &mut [u32]) -> Arc<Self> {
        let mut groups: Vec<(PredId, u32)> = Vec::new();
        for d in edges {
            let c = &mut count[d.pred.index()];
            if *c == 0 {
                groups.push((d.pred, 0));
            }
            *c += 1;
        }
        groups.sort_unstable();
        let mut at = 0u32;
        for (p, start) in &mut groups {
            *start = at;
            at += std::mem::replace(&mut count[p.index()], at);
        }
        let mut page = Arc::new(EdgePage {
            len: edges.len(),
            edges: [BLANK_EDGE; EDGE_PAGE],
            by_pred: [EdgeId::new(0); EDGE_PAGE],
            groups,
        });
        let fill = Arc::get_mut(&mut page).expect("a fresh page is unshared");
        fill.edges[..edges.len()].copy_from_slice(edges);
        for (i, d) in edges.iter().enumerate() {
            let c = &mut count[d.pred.index()];
            fill.by_pred[*c as usize] = EdgeId::from_usize(first + i);
            *c += 1;
        }
        for &(p, _) in &fill.groups {
            count[p.index()] = 0;
        }
        page
    }

    /// The edge rows.
    pub(crate) fn rows(&self) -> &[EdgeData] {
        &self.edges[..self.len]
    }

    #[inline]
    fn with_pred(&self, p: PredId) -> &[EdgeId] {
        let Ok(g) = self.groups.binary_search_by_key(&p, |&(q, _)| q) else {
            return &[];
        };
        let end = self
            .groups
            .get(g + 1)
            .map_or(self.len, |&(_, b)| b as usize);
        &self.by_pred[self.groups[g].1 as usize..end]
    }
}

/// One orientation of an adjacency, already sorted the way node spans
/// are: node `i` owns entries `off[i]..off[i + 1]` of `ids` and of
/// `preds` (each edge's predicate), each node's entries ordered by
/// (pred, edge id).
#[derive(Debug, Clone)]
pub struct SortedSpans<I, P> {
    /// Monotone CSR offsets, one per node plus one, ending at the edge
    /// count.
    pub off: Vec<u32>,
    /// Edge ids, node after node.
    pub ids: I,
    /// The predicate of each entry of `ids`.
    pub preds: P,
}

impl<I: Iterator<Item = EdgeId>, P: Iterator<Item = PredId>> SortedSpans<I, P> {
    /// Writes the orientation-`d` spans of nodes `lo..hi` into `page`,
    /// taken off the front of `ids` and `preds`.
    fn take_into(&mut self, page: &mut NodePage, d: usize, (lo, hi): (usize, usize)) {
        let (a, base) = (self.off[lo], page.ids.len() as u32);
        let len = (self.off[hi] - a) as usize;
        page.ids.extend(self.ids.by_ref().take(len));
        page.preds.extend(self.preds.by_ref().take(len));
        for (slot, &o) in page.off[d].iter_mut().zip(&self.off[lo..=hi]) {
            *slot = o - a + base;
        }
    }
}

/// One ontology version's storage: both page tables, the node and edge
/// counts, and the per-predicate statistics. Cloning it clones the page
/// tables only; the pages themselves are shared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pages {
    pub(crate) node_count: usize,
    pub(crate) edge_count: usize,
    pub(crate) nodes: Vec<Arc<NodePage>>,
    pub(crate) edges: Vec<Arc<EdgePage>>,
    pub(crate) stats: Vec<PredStats>,
}

/// Groups `edges` into pages in id order, checking each edge with
/// `check` first.
pub(crate) fn edge_pages<E>(
    edges: impl IntoIterator<Item = EdgeData>,
    pred_count: usize,
    mut check: impl FnMut(usize, &EdgeData) -> Result<(), E>,
) -> Result<Vec<Arc<EdgePage>>, E> {
    let mut count = vec![0u32; pred_count];
    let mut pages = Vec::new();
    let mut run = Vec::with_capacity(EDGE_PAGE);
    for (i, d) in edges.into_iter().enumerate() {
        check(i, &d)?;
        run.push(d);
        if run.len() == EDGE_PAGE {
            pages.push(EdgePage::new(i + 1 - EDGE_PAGE, &run, &mut count));
            run.clear();
        }
    }
    if !run.is_empty() {
        pages.push(EdgePage::new(pages.len() * EDGE_PAGE, &run, &mut count));
    }
    Ok(pages)
}

impl Pages {
    /// Pages over plain node and edge tables (the builder and
    /// `assemble` path), whose ids must already be in range.
    ///
    /// Degree counts give every span its place in its page; the edges
    /// are then scattered in (pred, edge id) order — a counting sort by
    /// predicate — so each span fills already sorted. No comparison sort.
    pub(crate) fn from_rows(nodes: &[NodeData], edges: &[EdgeData], pred_count: usize) -> Pages {
        let Ok(edge_pages) = edge_pages(edges.iter().copied(), pred_count, |_, _| {
            Ok::<_, Infallible>(())
        });
        let mut deg = [vec![0u32; nodes.len()], vec![0u32; nodes.len()]];
        for d in edges {
            deg[OUT][d.src.index()] += 1;
            deg[IN][d.dst.index()] += 1;
        }
        let [out_at, in_at] = &mut deg;
        let mut pages: Vec<NodePage> = nodes
            .chunks(NODE_PAGE)
            .zip(
                out_at
                    .chunks_mut(NODE_PAGE)
                    .zip(in_at.chunks_mut(NODE_PAGE)),
            )
            .map(|(rows, (o, i))| NodePage::sized(rows, [o, i]))
            .collect();
        let mut by_pred = vec![0u32; pred_count + 1];
        for d in edges {
            by_pred[d.pred.index() + 1] += 1;
        }
        for p in 0..pred_count {
            by_pred[p + 1] += by_pred[p];
        }
        let mut order = vec![EdgeId::new(0); edges.len()];
        for (i, d) in edges.iter().enumerate() {
            let c = &mut by_pred[d.pred.index()];
            order[*c as usize] = EdgeId::from_usize(i);
            *c += 1;
        }
        for e in order {
            let d = edges[e.index()];
            pages[node_slot(d.src).0].place(&mut deg[OUT][d.src.index()], d.pred, e);
            pages[node_slot(d.dst).0].place(&mut deg[IN][d.dst.index()], d.pred, e);
        }
        let mut stats = vec![PredStats::default(); pred_count];
        let node_pages = pages.into_iter().map(|p| p.sealed(&mut stats)).collect();
        Pages {
            node_count: nodes.len(),
            edge_count: edges.len(),
            nodes: node_pages,
            edges: edge_pages,
            stats,
        }
    }

    /// Pages over node rows and edge pages written elsewhere, with spans
    /// handed over already sorted (the snapshot path): every node page
    /// takes its run of entries from each orientation in one pass.
    pub(crate) fn from_sorted(
        nodes: impl Iterator<Item = NodeData>,
        node_count: usize,
        edge_pages: Vec<Arc<EdgePage>>,
        edge_count: usize,
        mut out: SortedSpans<impl Iterator<Item = EdgeId>, impl Iterator<Item = PredId>>,
        mut in_: SortedSpans<impl Iterator<Item = EdgeId>, impl Iterator<Item = PredId>>,
        pred_count: usize,
    ) -> Pages {
        let mut nodes = nodes.fuse();
        let mut rows = Vec::with_capacity(NODE_PAGE);
        let mut stats = vec![PredStats::default(); pred_count];
        let node_pages = (0..node_count)
            .step_by(NODE_PAGE)
            .map(|lo| {
                let hi = (lo + NODE_PAGE).min(node_count);
                rows.clear();
                rows.extend(nodes.by_ref().take(hi - lo));
                let entries = out.off[hi] - out.off[lo] + in_.off[hi] - in_.off[lo];
                let mut page = NodePage::blank(&rows, entries as usize);
                out.take_into(&mut page, OUT, (lo, hi));
                in_.take_into(&mut page, IN, (lo, hi));
                page.sealed(&mut stats)
            })
            .collect();
        Pages {
            node_count,
            edge_count,
            nodes: node_pages,
            edges: edge_pages,
            stats,
        }
    }

    #[inline]
    fn node_page(&self, n: NodeId) -> (&NodePage, usize) {
        let (page, slot) = node_slot(n);
        (&self.nodes[page], slot)
    }

    /// Payload of node `n`.
    #[inline]
    pub(crate) fn node(&self, n: NodeId) -> NodeData {
        let (page, slot) = self.node_page(n);
        page.rows()[slot]
    }

    /// Payload of edge `e`.
    #[inline]
    pub(crate) fn edge(&self, e: EdgeId) -> EdgeData {
        let (page, slot) = edge_slot(e);
        self.edges[page].rows()[slot]
    }

    /// All edges at `n` in orientation `d` ([`OUT`] or [`IN`]), sorted by
    /// (pred, edge id).
    #[inline]
    pub(crate) fn span(&self, d: usize, n: NodeId) -> &[EdgeId] {
        let (page, slot) = self.node_page(n);
        page.span(d, slot)
    }

    /// Edges at `n` labeled `p` in orientation `d` ([`OUT`] or [`IN`]),
    /// in ascending edge-id order.
    #[inline]
    pub(crate) fn with_pred(&self, d: usize, n: NodeId, p: PredId) -> &[EdgeId] {
        let (page, slot) = self.node_page(n);
        page.with_pred(d, slot, p)
    }

    /// Signature word of `n`'s predicates in orientation `d`.
    #[inline]
    pub(crate) fn sig(&self, d: usize, n: NodeId) -> u64 {
        let (page, slot) = self.node_page(n);
        page.sig[d][slot]
    }

    /// All edges labeled `p`, in ascending edge-id order.
    pub(crate) fn edges_with_pred(&self, p: PredId) -> PredEdges<'_> {
        PredEdges {
            pages: self.edges.iter(),
            span: [].iter(),
            pred: p,
            left: self.pred_stats(p).cardinality as usize,
        }
    }

    /// Statistics for predicate `p` (zeroed if out of range).
    #[inline]
    pub(crate) fn pred_stats(&self, p: PredId) -> PredStats {
        self.stats.get(p.index()).copied().unwrap_or_default()
    }

    /// Number of node pages and of edge pages.
    pub fn page_counts(&self) -> (usize, usize) {
        (self.nodes.len(), self.edges.len())
    }
}

/// The edges labeled with one predicate, in ascending edge-id order:
/// each edge page's group for it, page after page. Its length is the
/// predicate's cardinality, and it stops at the last such edge without
/// visiting the pages past it.
#[derive(Debug, Clone)]
pub struct PredEdges<'a> {
    pages: std::slice::Iter<'a, Arc<EdgePage>>,
    span: std::slice::Iter<'a, EdgeId>,
    pred: PredId,
    left: usize,
}

impl Iterator for PredEdges<'_> {
    type Item = EdgeId;

    #[inline]
    fn next(&mut self) -> Option<EdgeId> {
        loop {
            if let Some(&e) = self.span.next() {
                self.left -= 1;
                return Some(e);
            }
            if self.left == 0 {
                return None;
            }
            self.span = self.pages.next()?.with_pred(self.pred).iter();
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for PredEdges<'_> {}

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
        // order — independent of the columnar spans under test.
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
        let missing = crate::ids::PredId::new(7);
        assert_eq!(o.edges_with_pred(missing).len(), 0);
        assert_eq!(o.edges_with_pred(missing).next(), None);
    }

    #[test]
    fn pages_cut_ids_at_page_boundaries() {
        use super::{EDGE_PAGE, NODE_PAGE};
        // Three node pages and two edge pages, the last of each partial;
        // predicates interleave so every page groups several of them.
        let mut b = Ontology::builder();
        let n = 2 * NODE_PAGE + 5;
        for i in 0..EDGE_PAGE + 9 {
            let s = format!("n{}", i % n);
            let t = format!("n{}", (i % n + i / n + 1) % n);
            b.edge(&s, &format!("p{}", i % 3), &t).unwrap();
        }
        let o = b.build();
        assert_eq!(o.pages().page_counts(), (3, 2));
        for praw in 0..o.pred_count() {
            let p = crate::ids::PredId::from_usize(praw);
            let scan: Vec<_> = o.edge_ids().filter(|&e| o.edge(e).pred == p).collect();
            let it = o.edges_with_pred(p);
            assert_eq!(it.len(), scan.len());
            assert_eq!(it.collect::<Vec<_>>(), scan);
        }
        for v in o.node_ids() {
            let mut out: Vec<_> = o.out_edges(v).to_vec();
            out.sort_unstable();
            let scan: Vec<_> = o.edge_ids().filter(|&e| o.edge(e).src == v).collect();
            assert_eq!(out, scan, "out span of {v}");
        }
    }
}
