//! Backtracking enumeration of query matches (Definition 2.2).
//!
//! A *match* of a simple query `Q` into an ontology `O` is a pair of
//! functions — on nodes and on edges — such that constants map to the
//! node holding the same value, edges map to edges with the same
//! predicate and compatible endpoints, and disequality constraints hold.
//! Matches are **homomorphisms**: two query nodes may map to the same
//! ontology node (the paper's Example 2.7 relies on this).
//!
//! [`Matcher`] resolves a query against an ontology once (constants →
//! node ids, predicates → pred ids), orders the pattern edges by
//! estimated scan cost (see [`crate::cost`]), and then backtracks. It
//! supports four orthogonal refinements used across the system:
//!
//! * **bindings** ([`Matcher::bind`]) — pre-assign query nodes, used to
//!   anchor evaluation at a candidate result and to compute the
//!   provenance of one result (Section V's `bind(Q, res)`);
//! * **restriction** ([`Matcher::restrict`]) — only edges of a given
//!   subgraph may be used, which turns the ontology matcher into an
//!   explanation matcher;
//! * **onto tracking** ([`Matcher::onto`]) — require the image to cover
//!   the restriction subgraph entirely, yielding the *onto* homomorphisms
//!   that define consistency (Def. 2.6);
//! * **OPTIONAL edges** (the paper's future-work operator) — required
//!   edges are matched first and determine the result; each optional
//!   edge then extends the match in every possible way, and is skipped
//!   when it cannot match (in onto mode a skip branch is always
//!   explored, since covering one part of an explanation can require
//!   *not* extending into another). [`Matcher::skip_optionals`] turns
//!   the extension phase off for result-only evaluation, where it is
//!   semantically irrelevant.
//!
//! Performance layers on top of the plain backtracking search:
//!
//! * **predicate-signature pruning** — before a query node is bound to
//!   an ontology node, the required incident predicates of the query
//!   node (a 64-bit mask) are tested against the node's precomputed
//!   [`Ontology::out_signature`] / [`Ontology::in_signature`]. A failed
//!   subset test proves no match can extend the binding, cutting the
//!   branch in one AND/compare;
//! * **the probe driver** ([`Matcher::anchored`]) — result-anchored
//!   evaluation asks, for each candidate `v`, whether a match binds a
//!   node to `v`. The driver does the per-query work (edge order, the
//!   constants' checks, the search state) once and then binds, searches
//!   and unbinds per candidate, stopping at the first match without
//!   building a [`Match`]. Its edge order reads a bound constant's true
//!   span length instead of the per-predicate average; the other drivers
//!   keep the average-based order, so the first match and the image
//!   enumeration order do not move;
//! * **domain pruning** ([`Matcher::within`]) — evaluation passes the
//!   semi-join domain of each node, and a bind outside its node's domain
//!   is rejected next to the signature test;
//! * **sharded parallel search** ([`Matcher::parallel`]) — the candidate
//!   pool of the first (most-constrained) required edge is materialized
//!   and split into contiguous chunks, one `std::thread::scope` worker
//!   per chunk, each running the identical sequential search over its
//!   chunk. Concatenating per-chunk outputs in chunk order reproduces
//!   the sequential enumeration order exactly, so parallel results are
//!   bit-identical to sequential ones — a workspace-wide invariant that
//!   the determinism test suite enforces.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};

use questpro_graph::{EdgeId, NodeId, Ontology, PredId, Subgraph};
use questpro_query::{QueryNodeId, SimpleQuery};

use crate::metrics;
use crate::par::map_chunked;

/// A match: images of the matched query nodes and edges.
///
/// Required edges and their endpoints are always matched; OPTIONAL edges
/// (and nodes appearing only on skipped optional edges) may be `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Image of each query node, indexed by query node id; `None` for
    /// nodes bound only by skipped optional edges.
    pub nodes: Vec<Option<NodeId>>,
    /// Image of each query edge, indexed by query edge position; `None`
    /// for skipped optional edges.
    pub edges: Vec<Option<EdgeId>>,
}

impl Match {
    /// The ontology node a query node is mapped to, if it was bound.
    pub fn node_image(&self, n: QueryNodeId) -> Option<NodeId> {
        self.nodes[n.index()]
    }

    /// The result this match yields: the image of the projected node
    /// (always bound — a query's projected node is never optional-only).
    pub fn result(&self, q: &SimpleQuery) -> NodeId {
        self.nodes[q.projected().index()].expect("projected node is always bound")
    }

    /// The provenance graph of this match: the image `μ(Q')` of the
    /// matched sub-query (Def. 2.4), including images of isolated query
    /// nodes.
    pub fn image(&self, ont: &Ontology) -> Subgraph {
        Subgraph::from_parts(
            ont,
            self.edges.iter().flatten().copied(),
            self.nodes.iter().flatten().copied(),
        )
    }
}

/// Configurable backtracking matcher for one (query, ontology) pair.
///
/// ```
/// use questpro_engine::Matcher;
/// use questpro_graph::Ontology;
/// use questpro_query::SimpleQuery;
///
/// let mut b = Ontology::builder();
/// b.edge("paper1", "wb", "Alice")?;
/// b.edge("paper1", "wb", "Bob")?;
/// let ont = b.build();
///
/// let mut qb = SimpleQuery::builder();
/// let a = qb.var("a");
/// let p = qb.var("p");
/// qb.edge(p, "wb", a).project(a);
/// let q = qb.build().unwrap();
///
/// // Two homomorphisms: one per wb edge.
/// assert_eq!(Matcher::new(&ont, &q).count(), 2);
/// // Anchored at Alice there is exactly one.
/// let alice = ont.node_by_value("Alice").unwrap();
/// let m = Matcher::new(&ont, &q).bind(q.projected(), alice).first().unwrap();
/// assert_eq!(m.result(&q), alice);
/// # Ok::<(), questpro_graph::GraphError>(())
/// ```
pub struct Matcher<'a> {
    ont: &'a Ontology,
    q: &'a SimpleQuery,
    /// `Some(v)` for constant query nodes resolved to an ontology node.
    const_assign: Vec<Option<NodeId>>,
    /// Resolved predicate of each query edge.
    preds: Vec<PredId>,
    /// False when a constant or a *required* predicate does not exist in
    /// the ontology (the query then has no matches at all).
    resolvable: bool,
    /// Indexes of required edges.
    required: Vec<usize>,
    /// Indexes of optional edges with a resolvable predicate.
    optionals: Vec<usize>,
    /// Whether the optional extension phase runs.
    include_optionals: bool,
    /// Nodes with no incident edges at all (enumerated at the end).
    enumerable: Vec<bool>,
    /// Nodes that are always part of a match: endpoints of required
    /// edges plus edge-free nodes. Nodes outside this set enter a match
    /// only when one of their optional edges is matched.
    required_scope: Vec<bool>,
    /// Caller-provided bindings applied before the search.
    pre_bound: Vec<(usize, NodeId)>,
    /// Per-node supersets of the images (sorted), `None` for a node
    /// without one; see [`Matcher::within`].
    domains: Option<&'a [Option<Vec<NodeId>>]>,
    /// Only edges/nodes of this subgraph may be used as images.
    restrict: Option<&'a Subgraph>,
    /// Require the image to cover the restriction subgraph (onto).
    onto: bool,
    /// Use plain declaration order instead of the cost-based order
    /// (see `sequential_order`).
    sequential: bool,
    /// Disequality partners per query node.
    diseq_partners: Vec<Vec<usize>>,
    /// Per-query-node masks of predicates on *required* incident edges,
    /// for 1-hop signature pruning against the ontology's signatures.
    req_out_mask: Vec<u64>,
    req_in_mask: Vec<u64>,
    /// Worker count for the sharded drivers (`collect`, `count`,
    /// `exists`, image enumeration); 1 = fully sequential.
    threads: usize,
}

/// One materialized top-level candidate: target edge plus the node
/// bindings it would introduce (at most two).
type TopCandidate = (EdgeId, [(usize, NodeId); 2], usize);

impl<'a> Matcher<'a> {
    /// Resolves `q` against `ont` and prepares a matcher.
    pub fn new(ont: &'a Ontology, q: &'a SimpleQuery) -> Self {
        let mut resolvable = true;
        let mut const_assign = vec![None; q.node_count()];
        for n in q.node_ids() {
            if let Some(value) = q.label(n).as_const() {
                match ont.node_by_value(value) {
                    Some(v) => const_assign[n.index()] = Some(v),
                    None => resolvable = false,
                }
            }
        }
        let mut preds = Vec::with_capacity(q.edge_count());
        let mut required = Vec::new();
        let mut optionals = Vec::new();
        let mut req_out_mask = vec![0u64; q.node_count()];
        let mut req_in_mask = vec![0u64; q.node_count()];
        for (i, e) in q.edges().iter().enumerate() {
            match ont.pred_by_name(&e.pred) {
                Some(p) => {
                    preds.push(p);
                    if e.optional {
                        optionals.push(i);
                    } else {
                        required.push(i);
                        let bit = ont.pred_bit(p);
                        req_out_mask[e.src.index()] |= bit;
                        req_in_mask[e.dst.index()] |= bit;
                    }
                }
                None => {
                    preds.push(PredId::new(0));
                    if e.optional {
                        // An unresolvable optional edge simply never
                        // matches; drop it from the extension phase.
                    } else {
                        resolvable = false;
                        required.push(i);
                    }
                }
            }
        }
        let mut enumerable = vec![true; q.node_count()];
        let mut required_scope = vec![false; q.node_count()];
        for e in q.edges() {
            enumerable[e.src.index()] = false;
            enumerable[e.dst.index()] = false;
            if !e.optional {
                required_scope[e.src.index()] = true;
                required_scope[e.dst.index()] = true;
            }
        }
        for (i, e) in enumerable.iter().enumerate() {
            if *e {
                required_scope[i] = true;
            }
        }
        let mut diseq_partners = vec![Vec::new(); q.node_count()];
        for &(a, b) in q.diseqs() {
            diseq_partners[a.index()].push(b.index());
            diseq_partners[b.index()].push(a.index());
        }
        Self {
            ont,
            q,
            const_assign,
            preds,
            resolvable,
            required,
            optionals,
            include_optionals: true,
            enumerable,
            required_scope,
            pre_bound: Vec::new(),
            domains: None,
            restrict: None,
            onto: false,
            sequential: false,
            diseq_partners,
            req_out_mask,
            req_in_mask,
            threads: 1,
        }
    }

    /// Pre-binds query node `n` to ontology node `v`.
    pub fn bind(mut self, n: QueryNodeId, v: NodeId) -> Self {
        self.pre_bound.push((n.index(), v));
        self
    }

    /// Rejects any bind of a query node outside its domain:
    /// `domains[n]`, when `Some`, holds a sorted superset of node `n`'s
    /// images over all matches (the semi-join domains of result-anchored
    /// evaluation). Matches are unchanged, since no match binds a node
    /// outside a superset of its images; only the search shrinks.
    pub fn within(mut self, domains: &'a [Option<Vec<NodeId>>]) -> Self {
        debug_assert_eq!(domains.len(), self.q.node_count());
        self.domains = Some(domains);
        self
    }

    /// Restricts images to the edges and nodes of `sub`.
    pub fn restrict(mut self, sub: &'a Subgraph) -> Self {
        self.restrict = Some(sub);
        self
    }

    /// Restricts to `sub` *and* requires the match image to cover every
    /// edge and node of `sub` (an onto homomorphism).
    pub fn onto(mut self, sub: &'a Subgraph) -> Self {
        self.restrict = Some(sub);
        self.onto = true;
        self
    }

    /// Disables the OPTIONAL extension phase. Result sets are unchanged
    /// (results are determined by the required part); only provenance
    /// and onto checks need the extension.
    pub fn skip_optionals(mut self) -> Self {
        self.include_optionals = false;
        self
    }

    /// Matches required edges in declaration order instead of the
    /// cost-based order. Results are identical; only the search cost
    /// changes — this exists so the ordering can be measured (bench
    /// `matching/ordering`) and checked (`tests/cost_ordering.rs`).
    pub fn sequential_order(mut self) -> Self {
        self.sequential = true;
        self
    }

    /// Shards the search across up to `threads` scoped workers by the
    /// candidate pool of the first (most-constrained) required edge.
    ///
    /// Affects [`Matcher::collect`], [`Matcher::count`],
    /// [`Matcher::exists`], the image enumeration used by provenance,
    /// and [`Matcher::anchored`] (which shards its candidates instead);
    /// `for_each` and `first` always run sequentially.
    /// Outputs are **bit-identical** to the sequential search: chunks
    /// are contiguous slices of the candidate pool, merged in order.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enumerates matches, invoking `f` on each; stop early by returning
    /// [`ControlFlow::Break`]. Always sequential (see
    /// [`Matcher::parallel`] for the sharded drivers).
    pub fn for_each(&self, mut f: impl FnMut(&Match) -> ControlFlow<()>) {
        self.drive(|st| self.emit(st, &mut f));
    }

    /// The first match, if any (sequential enumeration order).
    pub fn first(&self) -> Option<Match> {
        let mut found = None;
        self.drive(|st| match self.emit_match(st) {
            Some(m) => {
                found = Some(m);
                ControlFlow::Break(())
            }
            None => ControlFlow::Continue(()),
        });
        found
    }

    /// Whether any match exists. With [`Matcher::parallel`], shards
    /// race with a shared early-stop flag — the boolean outcome is
    /// identical either way. No [`Match`] is built.
    pub fn exists(&self) -> bool {
        if self.threads > 1 {
            let stop = AtomicBool::new(false);
            if let Some(found) = self.map_chunks(|chunk, order, proto| {
                self.run_chunk(chunk, order, proto, Some(&stop), |st| {
                    let r = self.stop_at_match(st);
                    if r.is_break() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    r
                })
            }) {
                return found.contains(&true);
            }
        }
        self.drive(|st| self.stop_at_match(st))
    }

    /// Counts all matches (use with care on large ontologies).
    pub fn count(&self) -> u64 {
        let tally = |n: &mut u64, st: &mut State| {
            if self.accept(st) {
                *n += 1;
            }
            ControlFlow::Continue(())
        };
        if self.threads > 1 {
            if let Some(counts) = self.map_chunks(|chunk, order, proto| {
                let mut n = 0u64;
                self.run_chunk(chunk, order, proto, None, |st| tally(&mut n, st));
                n
            }) {
                return counts.iter().sum();
            }
        }
        let mut n = 0u64;
        self.drive(|st| tally(&mut n, st));
        n
    }

    /// All matches, in deterministic sequential enumeration order
    /// (parallel sharding merges chunk outputs in chunk order, so the
    /// result is identical for every thread count).
    pub fn collect(&self) -> Vec<Match> {
        let gather = |out: &mut Vec<Match>, st: &mut State| {
            out.extend(self.emit_match(st));
            ControlFlow::Continue(())
        };
        if self.threads > 1 {
            if let Some(per_chunk) = self.map_chunks(|chunk, order, proto| {
                let mut out = Vec::new();
                self.run_chunk(chunk, order, proto, None, |st| gather(&mut out, st));
                out
            }) {
                return per_chunk.concat();
            }
        }
        let mut out = Vec::new();
        self.drive(|st| gather(&mut out, st));
        out
    }

    /// The candidates `v` of `candidates`, in input order, for which a
    /// match binding query node `n` to `v` exists — the probe driver of
    /// result-anchored evaluation.
    ///
    /// The outcome equals filtering by `self.bind(n, v).exists()` one
    /// candidate at a time, but the per-query work runs once: the query
    /// is resolved when the matcher is built, the edge order is computed
    /// once for the shape "`n` bound", and one search state is reused —
    /// each candidate binds `n`, searches up to its first match, and
    /// unbinds. No [`Match`] is built.
    ///
    /// With [`Matcher::parallel`], the candidates split into at most
    /// `threads` contiguous chunks, one probe per chunk, so the output
    /// is identical at every thread count. Every probed candidate counts
    /// as one search in [`metrics`], as a matcher per candidate would; a
    /// candidate that a constant, a disequality or a signature rules out
    /// before the search counts none.
    pub fn anchored(&self, n: QueryNodeId, candidates: &[NodeId]) -> Vec<NodeId> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let n = n.index();
        let Some((order, proto)) = self.prepare(Some(n)) else {
            return Vec::new();
        };
        let workers = crate::par::effective_threads(self.threads).min(candidates.len());
        let chunks: Vec<&[NodeId]> = candidates
            .chunks(candidates.len().div_ceil(workers))
            .collect();
        map_chunked(&chunks, workers, |chunk| {
            self.probe_chunk(n, chunk, &order, &proto)
        })
        .concat()
    }

    /// Distinct match images (Def. 2.4) in first-encountered order,
    /// stopping after `limit` when given. Equals the sequential
    /// "enumerate matches, dedupe images, stop at limit" fold for every
    /// thread count: each shard keeps at most `limit` distinct images
    /// (a global prefix can draw at most that many from one shard) and
    /// the merge walks shards in chunk order.
    pub fn images(&self, limit: Option<usize>) -> Vec<Subgraph> {
        if limit == Some(0) {
            return Vec::new();
        }
        // Folds one match into a first-encountered distinct-image list,
        // breaking once `cap` images are held.
        let fold = |seen: &mut std::collections::BTreeSet<Subgraph>,
                    ordered: &mut Vec<Subgraph>,
                    cap: Option<usize>,
                    st: &mut State| {
            self.emit(st, &mut |m| {
                let img = m.image(self.ont);
                if seen.insert(img.clone()) {
                    ordered.push(img);
                    if cap.is_some_and(|l| ordered.len() >= l) {
                        return ControlFlow::Break(());
                    }
                }
                ControlFlow::Continue(())
            })
        };
        let per_chunk = if self.threads > 1 {
            self.map_chunks(|chunk, order, proto| {
                let mut seen = std::collections::BTreeSet::new();
                let mut ordered = Vec::new();
                self.run_chunk(chunk, order, proto, None, |st| {
                    fold(&mut seen, &mut ordered, limit, st)
                });
                ordered
            })
        } else {
            None
        };
        let mut seen = std::collections::BTreeSet::new();
        let mut ordered = Vec::new();
        let Some(chunks) = per_chunk else {
            // Sequential fallback: one "chunk" spanning everything.
            self.drive(|st| fold(&mut seen, &mut ordered, limit, st));
            return ordered;
        };
        'merge: for chunk in chunks {
            for img in chunk {
                if seen.insert(img.clone()) {
                    ordered.push(img);
                    if limit.is_some_and(|l| ordered.len() >= l) {
                        break 'merge;
                    }
                }
            }
        }
        ordered
    }

    // -- internals ----------------------------------------------------

    /// The sequential search: hands every complete assignment to
    /// `on_complete` (which decides whether it is a match, see
    /// [`Matcher::accept`]) until it breaks. Returns whether it broke.
    fn drive(&self, mut on_complete: impl FnMut(&mut State) -> ControlFlow<()>) -> bool {
        let Some((order, mut state)) = self.prepare(None) else {
            return false;
        };
        let broke = self.recurse(&order, 0, &mut state, &mut on_complete);
        metrics::flush_search(state.expanded, state.matched);
        broke.is_break()
    }

    /// Resolves pre-bindings and constants, checks initial constraints,
    /// and computes the edge order. `None` means the query provably has
    /// no matches (or violates a pre-binding). A probe passes the node
    /// it binds per candidate as `anchor`: the order then assumes it
    /// bound.
    fn prepare(&self, anchor: Option<usize>) -> Option<(Vec<usize>, State)> {
        let state = self.initial_state()?;
        let mut bound: Vec<bool> = state.node_assign.iter().map(Option::is_some).collect();
        if let Some(n) = anchor {
            bound[n] = true;
        }
        Some((self.edge_order(bound, anchor.is_some()), state))
    }

    /// The search state before the first edge: constants and
    /// pre-bindings assigned and checked. `None` means the query
    /// provably has no matches (or violates a pre-binding).
    fn initial_state(&self) -> Option<State> {
        if !self.resolvable {
            return None;
        }
        // If onto is requested, a homomorphism can cover at most one
        // restriction edge per query edge.
        if self.onto {
            let sub = self.restrict.expect("onto implies restrict");
            if self.q.edge_count() < sub.edge_count() {
                return None;
            }
        }
        let mut node_assign: Vec<Option<NodeId>> = self.const_assign.clone();
        // Constants in required scope must lie inside the restriction;
        // a constant reachable only through optional edges merely makes
        // those optional edges unmatchable here.
        if let Some(sub) = self.restrict {
            for (n, v) in node_assign.iter().enumerate() {
                if let Some(v) = v {
                    if self.required_scope[n] && !sub.contains_node(*v) {
                        return None;
                    }
                }
            }
        }
        for &(n, v) in &self.pre_bound {
            match node_assign[n] {
                Some(existing) if existing != v => return None,
                _ => {}
            }
            if !self.node_allowed(v) {
                return None;
            }
            node_assign[n] = Some(v);
        }
        for (n, v) in node_assign.iter().enumerate() {
            if let Some(v) = v {
                if !self.diseqs_ok(&node_assign, n) || !self.sig_ok(n, *v) || !self.in_domain(n, *v)
                {
                    return None;
                }
            }
        }
        Some(State {
            node_assign,
            edge_assign: vec![None; self.q.edge_count()],
            cover: CoverTracker::new(self.restrict.filter(|_| self.onto)),
            expanded: 0,
            matched: 0,
        })
    }

    /// Probes each candidate of `chunk` for query node `n` on one reused
    /// state (see [`Matcher::anchored`]), returning the hits in order.
    fn probe_chunk(
        &self,
        n: usize,
        chunk: &[NodeId],
        order: &[usize],
        proto: &State,
    ) -> Vec<NodeId> {
        let mut state = proto.clone();
        let prior = state.node_assign[n];
        let mut searches = 0u64;
        let mut hits = Vec::new();
        for &v in chunk {
            // The checks `initial_state` would add for the binding
            // `n ↦ v`; every other node's were done once, for all
            // candidates. Diseqs are symmetric, so checking `n`'s
            // partners covers the pairs that involve `n`.
            let admitted = match prior {
                Some(existing) => existing == v && self.node_allowed(v),
                None => {
                    state.node_assign[n] = Some(v);
                    self.node_allowed(v)
                        && self.sig_ok(n, v)
                        && self.in_domain(n, v)
                        && self.diseqs_ok(&state.node_assign, n)
                }
            };
            if admitted {
                searches += 1;
                let found = self.recurse(order, 0, &mut state, &mut |st| self.stop_at_match(st));
                if found.is_break() {
                    hits.push(v);
                }
            }
            state.node_assign[n] = prior;
        }
        metrics::flush_searches(searches, state.expanded, state.matched);
        hits
    }

    /// 1-hop signature test: can ontology node `v` support every
    /// required incident edge of query node `n`? Sound (never prunes a
    /// real match), not complete.
    #[inline]
    fn sig_ok(&self, n: usize, v: NodeId) -> bool {
        self.req_out_mask[n] & !self.ont.out_signature(v) == 0
            && self.req_in_mask[n] & !self.ont.in_signature(v) == 0
    }

    /// Domain test: whether `v` lies in query node `n`'s domain (see
    /// [`Matcher::within`]; always true for a node without one). Sound
    /// for the same reason as [`Matcher::sig_ok`]: a domain holds every
    /// image the node takes in any match.
    #[inline]
    fn in_domain(&self, n: usize, v: NodeId) -> bool {
        self.domains
            .and_then(|d| d[n].as_deref())
            .is_none_or(|d| d.binary_search(&v).is_ok())
    }

    /// Materializes the candidate pool of the top-level edge `ei`
    /// (structural filters only; conflict/diseq/signature checks run in
    /// `try_bind` per shard).
    fn top_candidates(&self, ei: usize, state: &State) -> Vec<TopCandidate> {
        let qe = &self.q.edges()[ei];
        let (s, d) = (qe.src.index(), qe.dst.index());
        let p = self.preds[ei];
        let nil = (usize::MAX, NodeId::new(0));
        let mut out = Vec::new();
        match (state.node_assign[s], state.node_assign[d]) {
            (Some(ms), Some(md)) => {
                if let Some(te) = self.ont.find_edge(ms, p, md) {
                    if self.edge_allowed(te) {
                        out.push((te, [nil, nil], 0));
                    }
                }
            }
            (Some(ms), None) => {
                for &te in self.ont.out_edges_with_pred(ms, p) {
                    if self.edge_allowed(te) {
                        out.push((te, [(d, self.ont.edge(te).dst), nil], 1));
                    }
                }
            }
            (None, Some(md)) => {
                for &te in self.ont.in_edges_with_pred(md, p) {
                    if self.edge_allowed(te) {
                        out.push((te, [(s, self.ont.edge(te).src), nil], 1));
                    }
                }
            }
            (None, None) => {
                for te in self.ont.edges_with_pred(p) {
                    if !self.edge_allowed(te) {
                        continue;
                    }
                    let ted = self.ont.edge(te);
                    if s == d {
                        if ted.src == ted.dst {
                            out.push((te, [(s, ted.src), nil], 1));
                        }
                    } else {
                        out.push((te, [(s, ted.src), (d, ted.dst)], 2));
                    }
                }
            }
        }
        out
    }

    /// Runs `worker` over contiguous chunks of the top-level candidate
    /// pool on scoped workers, returning per-chunk outputs in chunk
    /// order. `None` when the search is not shardable (no required
    /// edges, a tiny pool, or an impossible query — callers fall back to
    /// the sequential driver).
    fn map_chunks<T: Send>(
        &self,
        worker: impl Fn(&[TopCandidate], &[usize], &State) -> T + Sync,
    ) -> Option<Vec<T>> {
        let (order, proto) = self.prepare(None)?;
        if order.is_empty() {
            return None;
        }
        let cands = self.top_candidates(order[0], &proto);
        let threads = crate::par::effective_threads(self.threads);
        if cands.len() < 2 || threads < 2 {
            return None;
        }
        let workers = threads.min(cands.len());
        let chunks: Vec<&[TopCandidate]> = cands.chunks(cands.len().div_ceil(workers)).collect();
        Some(map_chunked(&chunks, workers, |chunk| {
            worker(chunk, &order, &proto)
        }))
    }

    /// Sequentially searches one candidate chunk: binds each top-level
    /// candidate and recurses over the remaining edge order, exactly as
    /// the unsharded search would for that slice of the pool. Returns
    /// whether `on_complete` broke (a raised `stop` flag is no break).
    fn run_chunk(
        &self,
        chunk: &[TopCandidate],
        order: &[usize],
        proto: &State,
        stop: Option<&AtomicBool>,
        mut on_complete: impl FnMut(&mut State) -> ControlFlow<()>,
    ) -> bool {
        let mut state = proto.clone();
        let mut broke = false;
        for &(te, binds, blen) in chunk {
            if stop.is_some_and(|stop| stop.load(Ordering::Relaxed)) {
                break;
            }
            let r = self.try_bind(
                &mut state,
                &mut |st| self.recurse(order, 1, st, &mut on_complete),
                order[0],
                te,
                &binds[..blen],
            );
            if r.is_break() {
                broke = true;
                break;
            }
        }
        metrics::flush_search(state.expanded, state.matched);
        broke
    }

    /// Static order over the *required* edges: greedily pick the edge
    /// with the smallest estimated candidate scan under the current
    /// binding state (see [`Matcher::scan_estimate`]). Ties break toward
    /// more bound endpoints, then lowest edge index, so the order is
    /// fully deterministic. The *match set* does not depend on the
    /// order — ordering only moves search effort.
    fn edge_order(&self, mut bound: Vec<bool>, constant_degrees: bool) -> Vec<usize> {
        if self.sequential {
            return self.required.clone();
        }
        let mut remaining: Vec<usize> = self.required.clone();
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let key = |ei: usize| {
                let e = &self.q.edges()[ei];
                let sb = bound[e.src.index()];
                let db = bound[e.dst.index()];
                let mut est = self.scan_estimate(ei, sb, db, constant_degrees);
                // A restriction caps every scan at its edge count.
                if let Some(sub) = self.restrict {
                    est = est.min(sub.edge_count() as f64);
                }
                // Lower is better: cheaper scan, more bound endpoints,
                // then declaration order.
                (est, 2 - (sb as usize + db as usize), ei)
            };
            let pos = remaining
                .iter()
                .enumerate()
                .min_by(|(_, &ea), (_, &eb)| {
                    let (ca, ba, ia) = key(ea);
                    let (cb, bb, ib) = key(eb);
                    ca.total_cmp(&cb).then(ba.cmp(&bb)).then(ia.cmp(&ib))
                })
                .map(|(pos, _)| pos)
                .expect("remaining is non-empty");
            let best = remaining[pos];
            order.push(best);
            let e = &self.q.edges()[best];
            bound[e.src.index()] = true;
            bound[e.dst.index()] = true;
            remaining.swap_remove(pos);
        }
        order
    }

    /// Expected scan to match edge `ei` with the given endpoints bound:
    /// the Volcano-style estimate over columnar predicate statistics
    /// (`crate::cost`). With `constant_degrees`, an edge whose only
    /// bound endpoint is a constant reads that constant's true span
    /// length instead of the per-predicate average, so a hub constant
    /// is not planned as if it had the average fan-out. Only the
    /// set-valued probe driver asks for it: the drivers that return the
    /// first match or enumerate images keep the average-based order, so
    /// their enumeration order — which disequality inference reads
    /// through the first onto match — stays as it was.
    fn scan_estimate(&self, ei: usize, sb: bool, db: bool, constant_degrees: bool) -> f64 {
        let e = &self.q.edges()[ei];
        let p = self.preds[ei];
        if constant_degrees && sb != db {
            let (n, out) = if sb {
                (e.src.index(), true)
            } else {
                (e.dst.index(), false)
            };
            if let Some(c) = self.const_assign[n] {
                let span = if out {
                    self.ont.out_edges_with_pred(c, p)
                } else {
                    self.ont.in_edges_with_pred(c, p)
                };
                return span.len() as f64;
            }
        }
        crate::cost::edge_cost(self.ont, p, sb, db)
    }

    fn edge_allowed(&self, e: EdgeId) -> bool {
        match self.restrict {
            Some(sub) => sub.contains_edge(e),
            None => true,
        }
    }

    fn node_allowed(&self, v: NodeId) -> bool {
        self.restrict.is_none_or(|sub| sub.contains_node(v))
    }

    fn diseqs_ok(&self, node_assign: &[Option<NodeId>], n: usize) -> bool {
        let v = node_assign[n].expect("checked after assignment");
        self.diseq_partners[n]
            .iter()
            .all(|&m| node_assign[m] != Some(v))
    }

    /// Candidate target edges for query edge `ei` under the current
    /// assignment, passed to `try_edge` one by one; returns `true` if at
    /// least one candidate was structurally applicable.
    fn recurse(
        &self,
        order: &[usize],
        depth: usize,
        state: &mut State,
        f: &mut impl FnMut(&mut State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if depth == order.len() {
            return self.finish_isolated(0, state, f);
        }
        // Onto pruning: every remaining query edge (required or optional)
        // can cover at most one still-uncovered restriction edge.
        if let Some(uncovered) = state.cover.uncovered() {
            let budget = (order.len() - depth)
                + if self.include_optionals {
                    self.optionals.len()
                } else {
                    0
                };
            if uncovered > budget {
                return ControlFlow::Continue(());
            }
        }
        let ei = order[depth];
        self.match_edge(ei, state, &mut |s| self.recurse(order, depth + 1, s, f))
    }

    /// Tries every image of edge `ei` consistent with the current
    /// assignment, invoking `k` for each; does not include a skip branch.
    fn match_edge(
        &self,
        ei: usize,
        state: &mut State,
        k: &mut impl FnMut(&mut State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let qe = &self.q.edges()[ei];
        let (s, d) = (qe.src.index(), qe.dst.index());
        let p = self.preds[ei];
        match (state.node_assign[s], state.node_assign[d]) {
            (Some(ms), Some(md)) => {
                if let Some(te) = self.ont.find_edge(ms, p, md) {
                    if self.edge_allowed(te) {
                        state.push_edge(ei, te);
                        let r = k(state);
                        state.pop_edge(ei, te);
                        r?;
                    }
                }
            }
            (Some(ms), None) => {
                // Columnar span: exactly the `p`-labeled out edges, in
                // the order the old filter scan produced them.
                for &te in self.ont.out_edges_with_pred(ms, p) {
                    if !self.edge_allowed(te) {
                        continue;
                    }
                    let dst = self.ont.edge(te).dst;
                    self.try_bind(state, k, ei, te, &[(d, dst)])?;
                }
            }
            (None, Some(md)) => {
                for &te in self.ont.in_edges_with_pred(md, p) {
                    if !self.edge_allowed(te) {
                        continue;
                    }
                    let src = self.ont.edge(te).src;
                    self.try_bind(state, k, ei, te, &[(s, src)])?;
                }
            }
            (None, None) => {
                for te in self.ont.edges_with_pred(p) {
                    if !self.edge_allowed(te) {
                        continue;
                    }
                    let ted = self.ont.edge(te);
                    if s == d {
                        if ted.src != ted.dst {
                            continue;
                        }
                        self.try_bind(state, k, ei, te, &[(s, ted.src)])?;
                    } else {
                        self.try_bind(state, k, ei, te, &[(s, ted.src), (d, ted.dst)])?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn try_bind(
        &self,
        state: &mut State,
        k: &mut impl FnMut(&mut State) -> ControlFlow<()>,
        ei: usize,
        te: EdgeId,
        binds: &[(usize, NodeId)],
    ) -> ControlFlow<()> {
        // At most two nodes bind per edge; keep the undo list on the
        // stack (this runs in the innermost search loop).
        state.expanded += 1;
        let mut bound_here = [usize::MAX; 2];
        let mut bound_len = 0usize;
        let mut ok = true;
        for &(n, v) in binds {
            match state.node_assign[n] {
                Some(existing) => {
                    if existing != v {
                        ok = false;
                        break;
                    }
                }
                None => {
                    if !self.sig_ok(n, v) || !self.in_domain(n, v) {
                        ok = false;
                        break;
                    }
                    state.node_assign[n] = Some(v);
                    bound_here[bound_len] = n;
                    bound_len += 1;
                    if !self.diseqs_ok(&state.node_assign, n) {
                        ok = false;
                        break;
                    }
                }
            }
        }
        let undo = |state: &mut State| {
            for &n in &bound_here[..bound_len] {
                state.node_assign[n] = None;
            }
        };
        if ok {
            state.push_edge(ei, te);
            let r = k(state);
            state.pop_edge(ei, te);
            undo(state);
            r?;
        } else {
            undo(state);
        }
        ControlFlow::Continue(())
    }

    /// Assigns edge-free variable nodes, then runs the optional phase.
    fn finish_isolated(
        &self,
        from: usize,
        state: &mut State,
        f: &mut impl FnMut(&mut State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let next = (from..self.q.node_count())
            .find(|&n| self.enumerable[n] && state.node_assign[n].is_none());
        let Some(n) = next else {
            return self.extend_optionals(0, state, f);
        };
        match self.restrict {
            Some(sub) => {
                for i in 0..sub.nodes().len() {
                    let v = sub.nodes()[i];
                    self.bind_isolated_and_continue(n, v, state, f)?;
                }
            }
            None => {
                for v in self.ont.node_ids() {
                    self.bind_isolated_and_continue(n, v, state, f)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    fn bind_isolated_and_continue(
        &self,
        n: usize,
        v: NodeId,
        state: &mut State,
        f: &mut impl FnMut(&mut State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        state.expanded += 1;
        state.node_assign[n] = Some(v);
        let r = if self.diseqs_ok(&state.node_assign, n) {
            self.finish_isolated(n + 1, state, f)
        } else {
            ControlFlow::Continue(())
        };
        state.node_assign[n] = None;
        r
    }

    /// The OPTIONAL extension phase: each optional edge is matched in
    /// every possible way; when nothing matches it is skipped. In onto
    /// mode a skip branch is explored even when matches exist. Each
    /// complete assignment goes to `f`.
    fn extend_optionals(
        &self,
        oi: usize,
        state: &mut State,
        f: &mut impl FnMut(&mut State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !self.include_optionals || oi >= self.optionals.len() {
            return f(state);
        }
        let ei = self.optionals[oi];
        let mut matched_any = false;
        self.match_edge(ei, state, &mut |s| {
            matched_any = true;
            self.extend_optionals(oi + 1, s, f)
        })?;
        if !matched_any || self.onto {
            // Skip branch: the optional edge stays unmatched.
            self.extend_optionals(oi + 1, state, f)?;
        }
        ControlFlow::Continue(())
    }

    /// The images of the nodes in the match: a node is in it exactly
    /// when it is in required scope or one of its optional edges was
    /// matched; constants pre-assigned for skipped optional edges are
    /// dropped from the image.
    fn scoped_nodes(&self, state: &State) -> Vec<Option<NodeId>> {
        let mut in_scope = self.required_scope.clone();
        for (ei, te) in state.edge_assign.iter().enumerate() {
            if te.is_some() {
                let e = &self.q.edges()[ei];
                in_scope[e.src.index()] = true;
                in_scope[e.dst.index()] = true;
            }
        }
        state
            .node_assign
            .iter()
            .zip(in_scope)
            .map(|(v, scoped)| if scoped { *v } else { None })
            .collect()
    }

    /// Whether a complete assignment with node images `nodes` covers the
    /// whole restriction (always true outside onto mode).
    fn covers(&self, state: &State, nodes: &[Option<NodeId>]) -> bool {
        if !self.onto {
            return true;
        }
        let sub = self.restrict.expect("onto implies restrict");
        // Every restriction edge and node must be some in-scope image.
        state.cover.uncovered() == Some(0) && sub.nodes().iter().all(|&n| nodes.contains(&Some(n)))
    }

    /// Whether a complete assignment is a match, counting it if so. In
    /// onto mode it must cover the restriction; otherwise every
    /// complete assignment is one.
    fn accept(&self, state: &mut State) -> bool {
        let ok = !self.onto || self.covers(state, &self.scoped_nodes(state));
        state.matched += u64::from(ok);
        ok
    }

    /// Terminal of the existence drivers: breaks at the first match.
    fn stop_at_match(&self, state: &mut State) -> ControlFlow<()> {
        if self.accept(state) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// The match a complete assignment forms, if it is one (counted as
    /// by [`Matcher::accept`]).
    fn emit_match(&self, state: &mut State) -> Option<Match> {
        let nodes = self.scoped_nodes(state);
        if !self.covers(state, &nodes) {
            return None;
        }
        let m = Match {
            nodes,
            edges: state.edge_assign.clone(),
        };
        debug_assert!(
            self.required.iter().all(|&ei| m.edges[ei].is_some()),
            "required edges are always matched at emit"
        );
        state.matched += 1;
        Some(m)
    }

    /// Hands the match a complete assignment forms, if any, to `f`.
    fn emit(
        &self,
        state: &mut State,
        f: &mut impl FnMut(&Match) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match self.emit_match(state) {
            Some(m) => f(&m),
            None => ControlFlow::Continue(()),
        }
    }
}

#[derive(Clone)]
struct State {
    node_assign: Vec<Option<NodeId>>,
    edge_assign: Vec<Option<EdgeId>>,
    cover: CoverTracker,
    /// Search-tree nodes expanded (candidate bindings tried); flushed
    /// into [`metrics`] when the search (or shard) finishes.
    expanded: u64,
    /// Matches emitted; flushed alongside `expanded`.
    matched: u64,
}

impl State {
    fn push_edge(&mut self, ei: usize, te: EdgeId) {
        self.edge_assign[ei] = Some(te);
        self.cover.add(te);
    }

    fn pop_edge(&mut self, ei: usize, te: EdgeId) {
        self.edge_assign[ei] = None;
        self.cover.remove(te);
    }
}

/// Tracks how many times each restriction edge is covered, for onto
/// pruning. Inactive (all no-ops) when onto mode is off.
#[derive(Clone)]
struct CoverTracker {
    /// Sorted restriction edges (binary-searchable), empty when inactive.
    edges: Vec<EdgeId>,
    counts: Vec<u32>,
    covered: usize,
    active: bool,
}

impl CoverTracker {
    fn new(sub: Option<&Subgraph>) -> Self {
        match sub {
            Some(s) => Self {
                edges: s.edges().to_vec(),
                counts: vec![0; s.edge_count()],
                covered: 0,
                active: true,
            },
            None => Self {
                edges: Vec::new(),
                counts: Vec::new(),
                covered: 0,
                active: false,
            },
        }
    }

    fn uncovered(&self) -> Option<usize> {
        self.active.then(|| self.edges.len() - self.covered)
    }

    fn add(&mut self, e: EdgeId) {
        if !self.active {
            return;
        }
        if let Ok(i) = self.edges.binary_search(&e) {
            if self.counts[i] == 0 {
                self.covered += 1;
            }
            self.counts[i] += 1;
        }
    }

    fn remove(&mut self, e: EdgeId) {
        if !self.active {
            return;
        }
        if let Ok(i) = self.edges.binary_search(&e) {
            self.counts[i] -= 1;
            if self.counts[i] == 0 {
                self.covered -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_query::fixtures::erdos_q1;

    /// The running-example ontology of Figure 1a plus enough structure
    /// for interesting matches: Alice—Bob—Carol—Erdős chains.
    fn erdos_ontology() -> Ontology {
        let mut b = Ontology::builder();
        for (p, a) in [
            ("paper1", "Alice"),
            ("paper1", "Bob"),
            ("paper2", "Bob"),
            ("paper2", "Carol"),
            ("paper3", "Carol"),
            ("paper3", "Erdos"),
        ] {
            b.edge(p, "wb", a).unwrap();
        }
        b.build()
    }

    #[test]
    fn q1_matches_the_erdos_chain() {
        let o = erdos_ontology();
        let q = erdos_q1();
        let m = Matcher::new(&o, &q).first().expect("Q1 matches");
        let alice = o.node_by_value("Alice").unwrap();
        let mut saw_alice = false;
        Matcher::new(&o, &q).for_each(|m| {
            if m.result(&q) == alice {
                saw_alice = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        assert!(saw_alice);
        assert_eq!(m.nodes.len(), q.node_count());
        assert_eq!(m.edges.len(), q.edge_count());
        assert!(m.nodes.iter().all(Option::is_some));
        assert!(m.edges.iter().all(Option::is_some));
    }

    #[test]
    fn homomorphisms_may_fold_nodes() {
        let mut b = SimpleQuery::builder();
        let a1 = b.var("a1");
        let p1 = b.var("p1");
        let p2 = b.var("p2");
        b.edge(p1, "wb", a1).edge(p2, "wb", a1).project(a1);
        let q = b.build().unwrap();
        let mut o = Ontology::builder();
        o.edge("paperX", "wb", "Zoe").unwrap();
        let o = o.build();
        let m = Matcher::new(&o, &q).first().expect("folding match exists");
        assert_eq!(m.nodes[p1.index()], m.nodes[p2.index()]);
    }

    #[test]
    fn constants_anchor_the_search() {
        let o = erdos_ontology();
        let mut b = SimpleQuery::builder();
        let a = b.var("a");
        let p = b.var("p");
        let erdos = b.constant("Erdos");
        b.edge(p, "wb", a).edge(p, "wb", erdos).project(a);
        let q = b.build().unwrap();
        let mut results = Vec::new();
        Matcher::new(&o, &q).for_each(|m| {
            results.push(m.result(&q));
            ControlFlow::Continue(())
        });
        let mut names: Vec<_> = results.iter().map(|&n| o.value_str(n)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names, vec!["Carol", "Erdos"]);
    }

    #[test]
    fn missing_constant_or_predicate_yields_no_matches() {
        let o = erdos_ontology();
        let mut b = SimpleQuery::builder();
        let a = b.var("a");
        let ghost = b.constant("Ghost");
        b.edge(ghost, "wb", a).project(a);
        let q = b.build().unwrap();
        assert!(!Matcher::new(&o, &q).exists());

        let mut b = SimpleQuery::builder();
        let a = b.var("a");
        let x = b.var("x");
        b.edge(x, "unknown_pred", a).project(a);
        let q = b.build().unwrap();
        assert!(!Matcher::new(&o, &q).exists());
    }

    #[test]
    fn diseq_rules_out_equal_assignments() {
        let mut ob = Ontology::builder();
        ob.edge("paper1", "wb", "Alice").unwrap();
        let o = ob.build();
        let mut b = SimpleQuery::builder();
        let a1 = b.var("a1");
        let a2 = b.var("a2");
        let p = b.var("p");
        b.edge(p, "wb", a1).edge(p, "wb", a2).project(a1);
        let without = b.build().unwrap();
        assert!(Matcher::new(&o, &without).exists());
        let a1n = without.node_of_var("a1").unwrap();
        let a2n = without.node_of_var("a2").unwrap();
        let with = without.with_diseqs([(a1n, a2n)]).unwrap();
        assert!(!Matcher::new(&o, &with).exists());
    }

    #[test]
    fn bindings_filter_results() {
        let o = erdos_ontology();
        let q = erdos_q1();
        let alice = o.node_by_value("Alice").unwrap();
        let anchored = Matcher::new(&o, &q).bind(q.projected(), alice);
        assert!(anchored.exists());
        let paper1 = o.node_by_value("paper1").unwrap();
        assert!(!Matcher::new(&o, &q).bind(q.projected(), paper1).exists());
    }

    #[test]
    fn conflicting_bindings_yield_nothing() {
        let o = erdos_ontology();
        let q = erdos_q1();
        let alice = o.node_by_value("Alice").unwrap();
        let bob = o.node_by_value("Bob").unwrap();
        let m = Matcher::new(&o, &q)
            .bind(q.projected(), alice)
            .bind(q.projected(), bob);
        assert!(!m.exists());
    }

    #[test]
    fn restriction_limits_images() {
        let o = erdos_ontology();
        let mut b = SimpleQuery::builder();
        let a = b.var("a");
        let p = b.var("p");
        b.edge(p, "wb", a).project(a);
        let q = b.build().unwrap();
        let alice = o.node_by_value("Alice").unwrap();
        let paper1 = o.node_by_value("paper1").unwrap();
        let wb = o.pred_by_name("wb").unwrap();
        let e = o.find_edge(paper1, wb, alice).unwrap();
        let sub = Subgraph::from_edges(&o, [e]);
        let mut results = Vec::new();
        Matcher::new(&o, &q).restrict(&sub).for_each(|m| {
            results.push(m.result(&q));
            ControlFlow::Continue(())
        });
        assert_eq!(results, vec![alice]);
    }

    #[test]
    fn onto_requires_full_coverage() {
        let o = erdos_ontology();
        let alice = o.node_by_value("Alice").unwrap();
        let paper1 = o.node_by_value("paper1").unwrap();
        let bob = o.node_by_value("Bob").unwrap();
        let wb = o.pred_by_name("wb").unwrap();
        let e1 = o.find_edge(paper1, wb, alice).unwrap();
        let e2 = o.find_edge(paper1, wb, bob).unwrap();
        let sub = Subgraph::from_edges(&o, [e1, e2]);

        let mut b = SimpleQuery::builder();
        let a = b.var("a");
        let p = b.var("p");
        b.edge(p, "wb", a).project(a);
        let one = b.build().unwrap();
        assert!(!Matcher::new(&o, &one).onto(&sub).exists());
        assert!(Matcher::new(&o, &one).restrict(&sub).exists());

        let mut b = SimpleQuery::builder();
        let a1 = b.var("a1");
        let a2 = b.var("a2");
        let p = b.var("p");
        b.edge(p, "wb", a1).edge(p, "wb", a2).project(a1);
        let two = b.build().unwrap();
        let m = Matcher::new(&o, &two)
            .onto(&sub)
            .first()
            .expect("onto match");
        let img = m.image(&o);
        assert_eq!(img, sub);
    }

    #[test]
    fn isolated_projected_node_scans_all_nodes() {
        let o = erdos_ontology();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        b.project(x);
        let q = b.build().unwrap();
        assert_eq!(Matcher::new(&o, &q).count(), o.node_count() as u64);
    }

    #[test]
    fn self_loop_queries_match_self_loop_edges() {
        let mut ob = Ontology::builder();
        ob.edge("n", "self", "n").unwrap();
        ob.edge("n", "p", "m").unwrap();
        let o = ob.build();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        b.edge(x, "self", x).project(x);
        let q = b.build().unwrap();
        let m = Matcher::new(&o, &q).first().expect("self loop matches");
        assert_eq!(o.value_str(m.result(&q)), "n");
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        b.edge(x, "p", x).project(x);
        let q = b.build().unwrap();
        assert!(!Matcher::new(&o, &q).exists());
    }

    #[test]
    fn sequential_order_agrees_with_heuristic_order() {
        let o = erdos_ontology();
        let q = erdos_q1();
        assert_eq!(
            Matcher::new(&o, &q).count(),
            Matcher::new(&o, &q).sequential_order().count()
        );
    }

    #[test]
    fn count_enumerates_all_homomorphisms() {
        let mut ob = Ontology::builder();
        ob.edge("p1", "wb", "a1").unwrap();
        ob.edge("p1", "wb", "a2").unwrap();
        ob.edge("p2", "wb", "a1").unwrap();
        let o = ob.build();
        let mut b = SimpleQuery::builder();
        let a = b.var("a");
        let p = b.var("p");
        b.edge(p, "wb", a).project(a);
        let q = b.build().unwrap();
        assert_eq!(Matcher::new(&o, &q).count(), 3);
    }

    #[test]
    fn parallel_drivers_match_sequential_exactly() {
        // A denser world so the top-level pool has enough candidates to
        // actually shard.
        let mut b = Ontology::builder();
        for i in 0..12 {
            for j in 0..4 {
                b.edge(&format!("p{i}"), "wb", &format!("a{}", (i + j) % 9))
                    .unwrap();
            }
        }
        let o = b.build();
        let mut qb = SimpleQuery::builder();
        let a1 = qb.var("a1");
        let a2 = qb.var("a2");
        let p1 = qb.var("p1");
        let p2 = qb.var("p2");
        qb.edge(p1, "wb", a1)
            .edge(p1, "wb", a2)
            .edge(p2, "wb", a2)
            .project(a1);
        let q = qb.build().unwrap();
        let seq = Matcher::new(&o, &q).collect();
        assert!(!seq.is_empty());
        for threads in [2, 3, 8] {
            let par = Matcher::new(&o, &q).parallel(threads).collect();
            assert_eq!(par, seq, "collect diverged at threads={threads}");
            assert_eq!(
                Matcher::new(&o, &q).parallel(threads).count(),
                seq.len() as u64
            );
            assert!(Matcher::new(&o, &q).parallel(threads).exists());
            assert_eq!(
                Matcher::new(&o, &q).parallel(threads).images(Some(5)),
                Matcher::new(&o, &q).images(Some(5)),
                "limited images diverged at threads={threads}"
            );
            assert_eq!(
                Matcher::new(&o, &q).parallel(threads).images(None),
                Matcher::new(&o, &q).images(None)
            );
        }
    }

    #[test]
    fn signature_pruning_never_changes_results() {
        // Mixed-predicate world where pruning actually fires: nodes with
        // only `cites` edges can never host a `wb` pattern node.
        let mut b = Ontology::builder();
        for i in 0..6 {
            b.edge(&format!("p{i}"), "wb", &format!("a{i}")).unwrap();
            b.edge(&format!("p{i}"), "cites", &format!("p{}", (i + 1) % 6))
                .unwrap();
        }
        let o = b.build();
        let mut qb = SimpleQuery::builder();
        let p = qb.var("p");
        let a = qb.var("a");
        let c = qb.var("c");
        qb.edge(p, "wb", a).edge(p, "cites", c).project(a);
        let q = qb.build().unwrap();
        // Brute-force expectation: for each wb edge and cites edge with a
        // shared paper, one match.
        let mut expect = 0u64;
        for e1 in o.edge_ids() {
            for e2 in o.edge_ids() {
                let (d1, d2) = (o.edge(e1), o.edge(e2));
                if o.pred_str(d1.pred) == "wb" && o.pred_str(d2.pred) == "cites" && d1.src == d2.src
                {
                    expect += 1;
                }
            }
        }
        assert_eq!(Matcher::new(&o, &q).count(), expect);
    }

    // ---- OPTIONAL edges ------------------------------------------------

    /// Films with and without genre edges, for optional matching.
    fn film_world() -> Ontology {
        let mut b = Ontology::builder();
        b.edge("film1", "starring", "Ann").unwrap();
        b.edge("film1", "genre", "Crime").unwrap();
        b.edge("film2", "starring", "Ben").unwrap();
        b.build()
    }

    fn starring_with_optional_genre() -> SimpleQuery {
        let mut b = SimpleQuery::builder();
        let f = b.var("f");
        let a = b.var("a");
        let g = b.var("g");
        b.edge(f, "starring", a)
            .optional_edge(f, "genre", g)
            .project(a);
        b.build().unwrap()
    }

    #[test]
    fn optional_edges_do_not_change_results() {
        let o = film_world();
        let q = starring_with_optional_genre();
        let mut results = Vec::new();
        Matcher::new(&o, &q).for_each(|m| {
            results.push(o.value_str(m.result(&q)).to_string());
            ControlFlow::Continue(())
        });
        results.sort();
        assert_eq!(results, vec!["Ann", "Ben"]);
    }

    #[test]
    fn optional_edges_extend_matches_when_possible() {
        let o = film_world();
        let q = starring_with_optional_genre();
        let g = q.node_of_var("g").unwrap();
        let crime = o.node_by_value("Crime").unwrap();
        let ann = o.node_by_value("Ann").unwrap();
        let ben = o.node_by_value("Ben").unwrap();
        Matcher::new(&o, &q).for_each(|m| {
            if m.result(&q) == ann {
                // film1 has a genre: the optional edge must be matched.
                assert_eq!(m.node_image(g), Some(crime));
                assert_eq!(m.edges.iter().flatten().count(), 2);
            } else {
                assert_eq!(m.result(&q), ben);
                // film2 has no genre: skipped, ?g unbound.
                assert_eq!(m.node_image(g), None);
                assert_eq!(m.edges.iter().flatten().count(), 1);
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn skip_optionals_ignores_the_extension_phase() {
        let o = film_world();
        let q = starring_with_optional_genre();
        let mut count = 0;
        Matcher::new(&o, &q).skip_optionals().for_each(|m| {
            count += 1;
            assert!(m.edges[1].is_none());
            ControlFlow::Continue(())
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn unresolvable_optional_predicate_is_just_skipped() {
        let o = film_world();
        let mut b = SimpleQuery::builder();
        let f = b.var("f");
        let a = b.var("a");
        let x = b.var("x");
        b.edge(f, "starring", a)
            .optional_edge(f, "no_such_pred", x)
            .project(a);
        let q = b.build().unwrap();
        assert_eq!(Matcher::new(&o, &q).count(), 2);
    }

    #[test]
    fn onto_with_optionals_covers_via_extension() {
        // Explanation: film1's two edges. Query: required starring +
        // optional genre. The optional edge must match to cover the
        // genre edge of the explanation.
        let o = film_world();
        let q = starring_with_optional_genre();
        let sub = Subgraph::from_edges(
            &o,
            o.edge_ids()
                .filter(|&e| o.value_str(o.edge(e).src) == "film1"),
        );
        let m = Matcher::new(&o, &q)
            .onto(&sub)
            .first()
            .expect("onto via optional");
        assert_eq!(m.image(&o), sub);
        // And a one-edge explanation (film2) is covered with the
        // optional edge skipped.
        let sub2 = Subgraph::from_edges(
            &o,
            o.edge_ids()
                .filter(|&e| o.value_str(o.edge(e).src) == "film2"),
        );
        let m2 = Matcher::new(&o, &q)
            .onto(&sub2)
            .first()
            .expect("onto via skip");
        assert_eq!(m2.image(&o), sub2);
    }
}
