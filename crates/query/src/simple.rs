//! Simple SPARQL queries: basic graph patterns with one projected node.

use std::fmt;
use std::sync::Arc;

use questpro_graph::fxhash::FxHasher;
use questpro_graph::{Explanation, Ontology};

use crate::error::QueryError;

/// Index of a node within one [`SimpleQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryNodeId(pub(crate) u32);

impl QueryNodeId {
    /// The node index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from an index; only meaningful for indexes
    /// obtained from the same query.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        Self(i as u32)
    }
}

impl fmt::Display for QueryNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The label of a query node: an ontology value or a variable name.
///
/// Variable names are stored without the leading `?`; rendering adds it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeLabel {
    /// A constant — must equal the value of the matched ontology node.
    Const(Arc<str>),
    /// A variable — matches any ontology node (consistently).
    Var(Arc<str>),
}

impl NodeLabel {
    /// Whether this label is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, NodeLabel::Var(_))
    }

    /// Whether this label is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, NodeLabel::Const(_))
    }

    /// The constant value, if any.
    pub fn as_const(&self) -> Option<&str> {
        match self {
            NodeLabel::Const(c) => Some(c),
            NodeLabel::Var(_) => None,
        }
    }

    /// The variable name (without `?`), if any.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            NodeLabel::Var(v) => Some(v),
            NodeLabel::Const(_) => None,
        }
    }
}

impl fmt::Display for NodeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeLabel::Const(c) => write!(f, ":{c}"),
            NodeLabel::Var(v) => write!(f, "?{v}"),
        }
    }
}

/// A directed, predicate-labeled edge between two query nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryEdge {
    /// Source node.
    pub src: QueryNodeId,
    /// Target node.
    pub dst: QueryNodeId,
    /// Predicate label.
    pub pred: Arc<str>,
    /// Whether this edge is OPTIONAL (the paper's future-work operator):
    /// required edges define the result set; optional edges extend
    /// matches — and therefore provenance — where they can, and are
    /// skipped where they cannot.
    pub optional: bool,
}

/// A basic graph pattern with a single projected (variable) node and
/// optional disequality constraints.
///
/// Immutable after construction; build with [`QueryBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleQuery {
    nodes: Vec<NodeLabel>,
    edges: Vec<QueryEdge>,
    projected: QueryNodeId,
    diseqs: Vec<(QueryNodeId, QueryNodeId)>,
    out: Vec<Vec<u32>>,
    inc: Vec<Vec<u32>>,
}

impl SimpleQuery {
    /// Starts building a query.
    pub fn builder() -> QueryBuilder {
        QueryBuilder::new()
    }

    /// The *trivial branch* for an explanation (Section IV): every
    /// explanation node becomes a constant except the distinguished node,
    /// which becomes the projected variable `?x`; edges are copied.
    ///
    /// Its generalization cost is zero variables, matching the paper's
    /// accounting for `Union(Ex)`.
    pub fn from_explanation(ont: &Ontology, ex: &Explanation) -> SimpleQuery {
        let mut b = QueryBuilder::new();
        let dis = ex.distinguished();
        let proj = b.var("x");
        b.project(proj);
        let node_of = |b: &mut QueryBuilder, n| {
            if n == dis {
                proj
            } else {
                b.constant(ont.value_str(n))
            }
        };
        for &e in ex.edges() {
            let d = ont.edge(e);
            let s = node_of(&mut b, d.src);
            let t = node_of(&mut b, d.dst);
            b.edge(s, ont.pred_str(d.pred), t);
        }
        // Isolated explanation nodes (including a bare distinguished node)
        // still need to appear in the pattern.
        for &n in ex.nodes() {
            let _ = node_of(&mut b, n);
        }
        b.build().expect("trivial branch is always well-formed")
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = QueryNodeId> + '_ {
        (0..self.nodes.len() as u32).map(QueryNodeId)
    }

    /// The label of node `n`.
    #[inline]
    pub fn label(&self, n: QueryNodeId) -> &NodeLabel {
        &self.nodes[n.index()]
    }

    /// All node labels, indexed by node id.
    pub fn labels(&self) -> &[NodeLabel] {
        &self.nodes
    }

    /// The edges, in insertion order.
    pub fn edges(&self) -> &[QueryEdge] {
        &self.edges
    }

    /// The projected node (always a variable).
    pub fn projected(&self) -> QueryNodeId {
        self.projected
    }

    /// Disequality constraints as sorted node-id pairs.
    pub fn diseqs(&self) -> &[(QueryNodeId, QueryNodeId)] {
        &self.diseqs
    }

    /// Indexes (into [`edges`](Self::edges)) of edges leaving `n`.
    #[inline]
    pub fn out_edges(&self, n: QueryNodeId) -> &[u32] {
        &self.out[n.index()]
    }

    /// Indexes of edges entering `n`.
    #[inline]
    pub fn in_edges(&self, n: QueryNodeId) -> &[u32] {
        &self.inc[n.index()]
    }

    /// Degree (in + out) of `n`.
    pub fn degree(&self, n: QueryNodeId) -> usize {
        self.out[n.index()].len() + self.inc[n.index()].len()
    }

    /// Number of required (non-optional) edges.
    pub fn required_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.optional).count()
    }

    /// Number of OPTIONAL edges.
    pub fn optional_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.optional).count()
    }

    /// Whether the query has any OPTIONAL edges.
    pub fn has_optional(&self) -> bool {
        self.edges.iter().any(|e| e.optional)
    }

    /// Number of variable-labeled nodes (including the projected one).
    pub fn var_count(&self) -> usize {
        self.nodes.iter().filter(|l| l.is_var()).count()
    }

    /// The paper's variable count for the generalization cost function:
    /// all variables except the projected node. Worked examples 4.2/4.3
    /// show that the trivial constants-only branch counts as zero, so the
    /// always-variable projected node is excluded.
    pub fn generalization_vars(&self) -> usize {
        self.var_count() - 1
    }

    /// Iterates over the variable-labeled nodes.
    pub fn var_nodes(&self) -> impl Iterator<Item = QueryNodeId> + '_ {
        self.node_ids().filter(|&n| self.label(n).is_var())
    }

    /// Finds the node carrying variable `name` (without `?`).
    pub fn node_of_var(&self, name: &str) -> Option<QueryNodeId> {
        self.node_ids()
            .find(|&n| self.label(n).as_var() == Some(name))
    }

    /// Finds the node carrying constant `value`.
    pub fn node_of_const(&self, value: &str) -> Option<QueryNodeId> {
        self.node_ids()
            .find(|&n| self.label(n).as_const() == Some(value))
    }

    /// A copy of this query with `diseqs` as its disequality set
    /// (validated and canonicalized).
    ///
    /// # Errors
    /// Fails if a pair references a non-variable or out-of-range node.
    pub fn with_diseqs(
        &self,
        diseqs: impl IntoIterator<Item = (QueryNodeId, QueryNodeId)>,
    ) -> Result<SimpleQuery, QueryError> {
        let mut q = self.clone();
        q.diseqs.clear();
        for (a, b) in diseqs {
            q.diseqs.push(validate_diseq(&q.nodes, a, b)?);
        }
        q.diseqs.sort_unstable();
        q.diseqs.dedup();
        Ok(q)
    }

    /// A copy of this query with no disequalities (the paper's `Q^no`).
    pub fn without_diseqs(&self) -> SimpleQuery {
        let mut q = self.clone();
        q.diseqs.clear();
        q
    }

    /// Whether the pattern graph is weakly connected (ignoring isolated
    /// check for the single-node query, which counts as connected).
    pub fn is_connected(&self) -> bool {
        if self.nodes.len() <= 1 {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            let nid = QueryNodeId(n as u32);
            for &ei in self.out[n].iter().chain(self.inc[n].iter()) {
                let e = &self.edges[ei as usize];
                let other = if e.src == nid { e.dst } else { e.src };
                if !seen[other.index()] {
                    seen[other.index()] = true;
                    count += 1;
                    stack.push(other.index());
                }
            }
        }
        count == self.nodes.len()
    }

    /// A multiset fingerprint of the query's shape, invariant under
    /// variable renaming and under the order in which nodes and edges
    /// were declared. Used as a cheap pre-filter before the full
    /// isomorphism test in [`crate::iso`]: isomorphic queries always
    /// hash equal, so unequal hashes prove non-isomorphism.
    ///
    /// Each edge is FxHashed straight from its labels (endpoint kinds,
    /// predicate, endpoint constants, OPTIONAL flag); the sorted edge
    /// hashes, the node count and the disequality count are hashed
    /// together. Nothing is allocated beyond the one `u64` per edge.
    pub fn shape_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut sigs: Vec<u64> = self
            .edges
            .iter()
            .map(|e| {
                let (ls, ld) = (&self.nodes[e.src.index()], &self.nodes[e.dst.index()]);
                let mut h = FxHasher::default();
                label_kind(ls, e.src == self.projected).hash(&mut h);
                e.pred.hash(&mut h);
                ls.as_const().unwrap_or("").hash(&mut h);
                ld.as_const().unwrap_or("").hash(&mut h);
                label_kind(ld, e.dst == self.projected).hash(&mut h);
                e.optional.hash(&mut h);
                h.finish()
            })
            .collect();
        sigs.sort_unstable();
        let mut h = FxHasher::default();
        sigs.hash(&mut h);
        self.nodes.len().hash(&mut h);
        self.diseqs.len().hash(&mut h);
        h.finish()
    }

    /// An injective serialization of the query that ignores variable
    /// *names*: the projected node, every node label by index, every
    /// edge in order with its OPTIONAL flag, and the disequality pairs.
    /// Constants and predicates are length-prefixed, so no choice of
    /// label text can collide with the structure of the encoding.
    ///
    /// Two queries share a key exactly when they are equal node for node
    /// and edge for edge up to how their variables are spelled. Anything
    /// computed without reading variable names can be memoized under it:
    /// inference keys its merge cache with it (`merge_pair` sees only
    /// the pattern graph) and the consistency cache with its hash (an
    /// onto match records images by node and edge index).
    pub fn canonical_key(&self) -> String {
        let mut s = String::with_capacity(16 + 16 * self.edges.len());
        s.push('d');
        push_uint(&mut s, self.projected.index());
        for l in &self.nodes {
            match l {
                NodeLabel::Const(c) => {
                    s.push('C');
                    push_uint(&mut s, c.len());
                    s.push(':');
                    s.push_str(c);
                }
                NodeLabel::Var(_) => s.push('V'),
            }
        }
        for e in &self.edges {
            s.push(if e.optional { 'o' } else { 'e' });
            push_uint(&mut s, e.src.index());
            s.push(',');
            push_uint(&mut s, e.dst.index());
            s.push(',');
            push_uint(&mut s, e.pred.len());
            s.push(':');
            s.push_str(&e.pred);
        }
        for (a, b) in &self.diseqs {
            s.push('!');
            push_uint(&mut s, a.index());
            s.push(',');
            push_uint(&mut s, b.index());
        }
        s
    }
}

fn label_kind(l: &NodeLabel, projected: bool) -> u8 {
    match (l, projected) {
        (NodeLabel::Const(_), _) => 0,
        (NodeLabel::Var(_), false) => 1,
        (NodeLabel::Var(_), true) => 2,
    }
}

/// Appends the decimal digits of `n`.
fn push_uint(s: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    s.extend(digits[at..].iter().map(|&d| char::from(d)));
}

fn validate_diseq(
    nodes: &[NodeLabel],
    a: QueryNodeId,
    b: QueryNodeId,
) -> Result<(QueryNodeId, QueryNodeId), QueryError> {
    if a.index() >= nodes.len() || b.index() >= nodes.len() {
        return Err(QueryError::InvalidDisequality {
            message: format!("node pair ({a}, {b}) out of range"),
        });
    }
    if a == b {
        return Err(QueryError::InvalidDisequality {
            message: format!("disequality of node {a} with itself"),
        });
    }
    if !nodes[a.index()].is_var() && !nodes[b.index()].is_var() {
        return Err(QueryError::InvalidDisequality {
            message: format!("disequality ({a}, {b}) between two constants is vacuous or absurd"),
        });
    }
    Ok(if a < b { (a, b) } else { (b, a) })
}

/// Incremental builder for [`SimpleQuery`].
///
/// Constants and variable names each label at most one node; repeated
/// declarations return the existing node.
#[derive(Debug, Default)]
pub struct QueryBuilder {
    nodes: Vec<NodeLabel>,
    edges: Vec<QueryEdge>,
    projected: Option<QueryNodeId>,
    diseqs: Vec<(QueryNodeId, QueryNodeId)>,
    fresh: u32,
}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the node labeled with variable `name` (without `?`),
    /// creating it if needed.
    pub fn var(&mut self, name: &str) -> QueryNodeId {
        if let Some(i) = self.nodes.iter().position(|l| l.as_var() == Some(name)) {
            return QueryNodeId(i as u32);
        }
        self.push(NodeLabel::Var(name.into()))
    }

    /// Creates a fresh variable node with an auto-generated name
    /// (`v0`, `v1`, … skipping collisions).
    pub fn fresh_var(&mut self) -> QueryNodeId {
        loop {
            let name = format!("v{}", self.fresh);
            self.fresh += 1;
            if !self.nodes.iter().any(|l| l.as_var() == Some(&name)) {
                return self.push(NodeLabel::Var(name.into()));
            }
        }
    }

    /// Returns the node labeled with constant `value`, creating it if
    /// needed.
    pub fn constant(&mut self, value: &str) -> QueryNodeId {
        if let Some(i) = self.nodes.iter().position(|l| l.as_const() == Some(value)) {
            return QueryNodeId(i as u32);
        }
        self.push(NodeLabel::Const(value.into()))
    }

    fn push(&mut self, label: NodeLabel) -> QueryNodeId {
        let id = QueryNodeId(self.nodes.len() as u32);
        self.nodes.push(label);
        id
    }

    /// Adds the edge `src -pred-> dst`; duplicate edges are ignored.
    pub fn edge(&mut self, src: QueryNodeId, pred: &str, dst: QueryNodeId) -> &mut Self {
        self.push_edge(src, pred, dst, false)
    }

    /// Adds an OPTIONAL edge `src -pred-> dst`; duplicate edges are
    /// ignored (a required duplicate subsumes an optional one).
    pub fn optional_edge(&mut self, src: QueryNodeId, pred: &str, dst: QueryNodeId) -> &mut Self {
        self.push_edge(src, pred, dst, true)
    }

    fn push_edge(
        &mut self,
        src: QueryNodeId,
        pred: &str,
        dst: QueryNodeId,
        optional: bool,
    ) -> &mut Self {
        let same_triple = |e: &QueryEdge| e.src == src && e.dst == dst && &*e.pred == pred;
        if let Some(existing) = self.edges.iter_mut().find(|e| same_triple(e)) {
            // A required declaration wins over an optional one.
            existing.optional &= optional;
            return self;
        }
        self.edges.push(QueryEdge {
            src,
            dst,
            pred: pred.into(),
            optional,
        });
        self
    }

    /// Marks `n` as the projected node.
    pub fn project(&mut self, n: QueryNodeId) -> &mut Self {
        self.projected = Some(n);
        self
    }

    /// Adds a disequality between two variable nodes.
    pub fn diseq(&mut self, a: QueryNodeId, b: QueryNodeId) -> &mut Self {
        self.diseqs.push((a, b));
        self
    }

    /// Finalizes the query.
    ///
    /// # Errors
    /// Fails if no projected node was set, the projected node is not a
    /// variable, or a disequality is malformed.
    pub fn build(self) -> Result<SimpleQuery, QueryError> {
        let projected = self
            .projected
            .ok_or_else(|| QueryError::InvalidProjection {
                message: "no projected node set".to_string(),
            })?;
        if projected.index() >= self.nodes.len() {
            return Err(QueryError::InvalidProjection {
                message: format!("projected node {projected} out of range"),
            });
        }
        if !self.nodes[projected.index()].is_var() {
            return Err(QueryError::InvalidProjection {
                message: "the projected node must be a variable".to_string(),
            });
        }
        // The projected node must always be bound by a match: it may not
        // appear exclusively on OPTIONAL edges.
        let touching: Vec<&QueryEdge> = self
            .edges
            .iter()
            .filter(|e| e.src == projected || e.dst == projected)
            .collect();
        if !touching.is_empty() && touching.iter().all(|e| e.optional) {
            return Err(QueryError::InvalidProjection {
                message: "the projected node may not be optional-only".to_string(),
            });
        }
        for e in &self.edges {
            if e.src.index() >= self.nodes.len() || e.dst.index() >= self.nodes.len() {
                return Err(QueryError::UnknownNode {
                    message: format!("edge endpoint out of range ({} -> {})", e.src, e.dst),
                });
            }
        }
        let mut diseqs = Vec::with_capacity(self.diseqs.len());
        for (a, b) in self.diseqs {
            diseqs.push(validate_diseq(&self.nodes, a, b)?);
        }
        diseqs.sort_unstable();
        diseqs.dedup();
        let mut out = vec![Vec::new(); self.nodes.len()];
        let mut inc = vec![Vec::new(); self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            out[e.src.index()].push(i as u32);
            inc[e.dst.index()].push(i as u32);
        }
        Ok(SimpleQuery {
            nodes: self.nodes,
            edges: self.edges,
            projected,
            diseqs,
            out,
            inc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Q1 from Figure 2a of the paper: the Erdős-number-2 chain.
    pub(crate) fn erdos_q1() -> SimpleQuery {
        let mut b = SimpleQuery::builder();
        let a1 = b.var("a1");
        let a2 = b.var("a2");
        let a3 = b.var("a3");
        let a4 = b.var("a4");
        let p1 = b.var("p1");
        let p2 = b.var("p2");
        let p3 = b.var("p3");
        b.edge(p1, "wb", a1)
            .edge(p1, "wb", a2)
            .edge(p2, "wb", a2)
            .edge(p2, "wb", a3)
            .edge(p3, "wb", a3)
            .edge(p3, "wb", a4)
            .project(a1);
        b.build().unwrap()
    }

    #[test]
    fn builder_dedupes_vars_and_constants() {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let x2 = b.var("x");
        assert_eq!(x, x2);
        let c = b.constant("Erdos");
        let c2 = b.constant("Erdos");
        assert_eq!(c, c2);
        b.edge(x, "wb", c).edge(x, "wb", c); // duplicate edge ignored
        b.project(x);
        let q = b.build().unwrap();
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 1);
    }

    #[test]
    fn q1_has_expected_shape_and_costs() {
        let q = erdos_q1();
        assert_eq!(q.node_count(), 7);
        assert_eq!(q.edge_count(), 6);
        assert_eq!(q.var_count(), 7);
        // Examples 4.2/4.3 count Q1 as 6 variables.
        assert_eq!(q.generalization_vars(), 6);
        assert!(q.is_connected());
    }

    #[test]
    fn projection_must_be_a_variable() {
        let mut b = SimpleQuery::builder();
        let c = b.constant("Erdos");
        b.project(c);
        assert!(matches!(
            b.build(),
            Err(QueryError::InvalidProjection { .. })
        ));

        let b = SimpleQuery::builder();
        assert!(matches!(
            b.build(),
            Err(QueryError::InvalidProjection { .. })
        ));
    }

    #[test]
    fn diseqs_are_canonicalized_and_validated() {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.edge(x, "wb", y).project(x);
        b.diseq(y, x).diseq(x, y); // unordered + duplicate
        let q = b.build().unwrap();
        assert_eq!(q.diseqs(), &[(x, y)]);

        let q2 = q.without_diseqs();
        assert!(q2.diseqs().is_empty());
        let q3 = q2.with_diseqs([(y, x)]).unwrap();
        assert_eq!(q3.diseqs(), &[(x, y)]);
    }

    #[test]
    fn diseq_allows_var_const_but_rejects_const_const_and_self() {
        // Example 5.1 of the paper uses disequalities like `?a1 != Bob`,
        // i.e. between a variable and a constant node.
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let c = b.constant("Erdos");
        b.edge(x, "wb", c).project(x);
        b.diseq(x, c);
        let q = b.build().unwrap();
        assert_eq!(q.diseqs().len(), 1);

        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let c1 = b.constant("Erdos");
        let c2 = b.constant("Bob");
        b.edge(x, "wb", c1).edge(x, "wb", c2).project(x);
        b.diseq(c1, c2);
        assert!(matches!(
            b.build(),
            Err(QueryError::InvalidDisequality { .. })
        ));

        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        b.project(x).diseq(x, x);
        assert!(matches!(
            b.build(),
            Err(QueryError::InvalidDisequality { .. })
        ));
    }

    #[test]
    fn fresh_vars_avoid_collisions() {
        let mut b = SimpleQuery::builder();
        let v0 = b.var("v0");
        let f = b.fresh_var(); // must skip v0
        assert_ne!(v0, f);
        b.edge(v0, "p", f).project(v0);
        let q = b.build().unwrap();
        assert_eq!(q.var_count(), 2);
        assert!(q.node_of_var("v1").is_some());
    }

    #[test]
    fn adjacency_reflects_edges() {
        let q = erdos_q1();
        let p1 = q.node_of_var("p1").unwrap();
        let a2 = q.node_of_var("a2").unwrap();
        assert_eq!(q.out_edges(p1).len(), 2);
        assert_eq!(q.in_edges(a2).len(), 2);
        assert_eq!(q.degree(a2), 2);
    }

    #[test]
    fn disconnected_query_is_detected() {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        let w = b.var("w");
        b.edge(x, "p", y).edge(z, "p", w).project(x);
        let q = b.build().unwrap();
        assert!(!q.is_connected());
    }

    #[test]
    fn from_explanation_builds_trivial_branch() {
        let mut b = questpro_graph::Ontology::builder();
        b.edge("p1", "wb", "Alice").unwrap();
        b.edge("p1", "wb", "Bob").unwrap();
        let o = b.build();
        let ex =
            Explanation::from_triples(&o, &[("p1", "wb", "Alice"), ("p1", "wb", "Bob")], "Alice")
                .unwrap();
        let q = SimpleQuery::from_explanation(&o, &ex);
        assert_eq!(q.edge_count(), 2);
        assert_eq!(q.var_count(), 1);
        assert_eq!(q.generalization_vars(), 0);
        assert!(q.label(q.projected()).is_var());
        assert!(q.node_of_const("p1").is_some());
        assert!(q.node_of_const("Bob").is_some());
        assert!(q.node_of_const("Alice").is_none()); // it is the variable
    }

    #[test]
    fn from_explanation_handles_isolated_distinguished_node() {
        let mut b = questpro_graph::Ontology::builder();
        b.edge("p1", "wb", "Alice").unwrap();
        let o = b.build();
        let ex = Explanation::from_edges(&o, [], "Alice").unwrap();
        let q = SimpleQuery::from_explanation(&o, &ex);
        assert_eq!(q.node_count(), 1);
        assert_eq!(q.edge_count(), 0);
    }

    #[test]
    fn optional_edges_are_tracked_and_required_wins() {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        let g = b.var("g");
        b.edge(x, "starring", y)
            .optional_edge(x, "genre", g)
            .project(y);
        let q = b.build().unwrap();
        assert_eq!(q.required_edge_count(), 1);
        assert_eq!(q.optional_edge_count(), 1);
        assert!(q.has_optional());

        // Declaring the same triple required after optional upgrades it.
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.optional_edge(x, "p", y).edge(x, "p", y).project(x);
        let q = b.build().unwrap();
        assert_eq!(q.optional_edge_count(), 0);
        assert_eq!(q.edge_count(), 1);
    }

    #[test]
    fn optional_only_projection_is_rejected() {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.optional_edge(y, "p", x).project(x);
        assert!(matches!(
            b.build(),
            Err(QueryError::InvalidProjection { .. })
        ));
    }

    #[test]
    fn shape_hash_is_renaming_invariant() {
        let q1 = erdos_q1();
        // Same query with different variable names.
        let mut b = SimpleQuery::builder();
        let a1 = b.var("x1");
        let a2 = b.var("x2");
        let a3 = b.var("x3");
        let a4 = b.var("x4");
        let p1 = b.var("y1");
        let p2 = b.var("y2");
        let p3 = b.var("y3");
        b.edge(p1, "wb", a1)
            .edge(p1, "wb", a2)
            .edge(p2, "wb", a2)
            .edge(p2, "wb", a3)
            .edge(p3, "wb", a3)
            .edge(p3, "wb", a4)
            .project(a1);
        let q2 = b.build().unwrap();
        assert_eq!(q1.shape_hash(), q2.shape_hash());

        // Same shape again, with nodes declared in another order and
        // edges in reverse: the hash pre-filters isomorphism, so it may
        // not depend on declaration order.
        let mut b = SimpleQuery::builder();
        let p3 = b.var("p3");
        let a4 = b.var("a4");
        let p1 = b.var("p1");
        let a2 = b.var("a2");
        let a3 = b.var("a3");
        let p2 = b.var("p2");
        let a1 = b.var("a1");
        b.edge(p3, "wb", a4)
            .edge(p3, "wb", a3)
            .edge(p2, "wb", a3)
            .edge(p2, "wb", a2)
            .edge(p1, "wb", a2)
            .edge(p1, "wb", a1)
            .project(a1);
        let q3 = b.build().unwrap();
        assert_eq!(q1.shape_hash(), q3.shape_hash());

        // Constants, OPTIONAL edges and disequalities, declared in two
        // orders; changing any one of them changes the hash here.
        let build = |reverse: bool, optional: bool, erdos: &str| {
            let mut b = SimpleQuery::builder();
            let nodes = if reverse {
                let e = b.constant(erdos);
                let y = b.var("y");
                let p = b.var("p");
                let x = b.var("x");
                [x, p, y, e]
            } else {
                let x = b.var("x");
                let p = b.var("p");
                let y = b.var("y");
                let e = b.constant(erdos);
                [x, p, y, e]
            };
            let [x, p, y, e] = nodes;
            let mut edges = vec![
                (p, "wb", x, false),
                (p, "wb", y, false),
                (p, "wb", e, optional),
            ];
            if reverse {
                edges.reverse();
            }
            for (s, pred, d, opt) in edges {
                if opt {
                    b.optional_edge(s, pred, d);
                } else {
                    b.edge(s, pred, d);
                }
            }
            b.diseq(x, y).project(x);
            b.build().unwrap()
        };
        let base = build(false, true, "Erdos");
        assert_eq!(base.shape_hash(), build(true, true, "Erdos").shape_hash());
        assert!(crate::iso::isomorphic(&base, &build(true, true, "Erdos")));
        assert_ne!(base.shape_hash(), build(false, false, "Erdos").shape_hash());
        assert_ne!(base.shape_hash(), build(false, true, "Bob").shape_hash());
    }

    #[test]
    fn canonical_key_ignores_names_and_nothing_else() {
        let build = |x: &str, p: &str, optional: bool, diseq: bool, erdos: &str| {
            let mut b = SimpleQuery::builder();
            let x = b.var(x);
            let p = b.var(p);
            let e = b.constant(erdos);
            b.edge(p, "wb", x);
            if optional {
                b.optional_edge(p, "wb", e);
            } else {
                b.edge(p, "wb", e);
            }
            if diseq {
                b.diseq(x, e);
            }
            b.project(x);
            b.build().unwrap()
        };
        let key = build("x", "p", false, true, "Erdos").canonical_key();
        assert_eq!(
            key,
            build("a", "paper", false, true, "Erdos").canonical_key()
        );
        for other in [
            build("x", "p", true, true, "Erdos"),
            build("x", "p", false, false, "Erdos"),
            build("x", "p", false, true, "Erdős"),
        ] {
            assert_ne!(key, other.canonical_key(), "{other}");
        }
        // Length prefixes keep label text from forging structure.
        let a = build("x", "p", false, false, "Erdos");
        let b = build("x", "p", false, false, "Erdos!1,2");
        assert_ne!(a.canonical_key(), b.canonical_key());
    }
}
