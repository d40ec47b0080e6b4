//! Pattern graphs: the common shape of explanations and queries.
//!
//! Section III's extension to `n` explanations "generalizes pairs of
//! graphs which are not necessarily explanations but also intermediate
//! queries". [`PatternGraph`] is that common currency: a directed,
//! predicate-labeled graph whose nodes are constants or (anonymous)
//! variables, plus one distinguished node. Explanations lower to
//! all-constant pattern graphs; simple queries keep their labels and use
//! the projected node as distinguished.

use std::collections::BTreeSet;
use std::sync::Arc;

use questpro_graph::{Explanation, Ontology};
use questpro_query::{NodeLabel, SimpleQuery};

/// Label of a pattern-graph node. Variables are anonymous: variable
/// *identity* is node identity, names are irrelevant to merging.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PLabel {
    /// An ontology value.
    Const(Arc<str>),
    /// An anonymous variable.
    Var,
}

impl PLabel {
    /// The constant value, if this label is one.
    pub fn as_const(&self) -> Option<&str> {
        match self {
            PLabel::Const(c) => Some(c),
            PLabel::Var => None,
        }
    }
}

/// An edge of a pattern graph (indexes into the node vector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PEdge {
    /// Source node index.
    pub src: u32,
    /// Target node index.
    pub dst: u32,
    /// Predicate label.
    pub pred: Arc<str>,
    /// Whether the edge is OPTIONAL (always false for explanations;
    /// carried over from intermediate queries produced by
    /// optional-tolerant merging).
    pub optional: bool,
}

/// A labeled graph with a distinguished node — the shared representation
/// of explanations and intermediate queries during inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternGraph {
    labels: Vec<PLabel>,
    edges: Vec<PEdge>,
    dis: u32,
}

impl PatternGraph {
    /// Lowers an explanation: every node becomes its constant value, the
    /// distinguished node stays distinguished.
    pub fn from_explanation(ont: &Ontology, ex: &Explanation) -> Self {
        let nodes = ex.nodes();
        let index_of = |n| {
            nodes
                .binary_search(&n)
                .expect("edge endpoint belongs to the explanation") as u32
        };
        let labels = nodes
            .iter()
            .map(|&n| PLabel::Const(ont.value_str(n).into()))
            .collect();
        let edges = ex
            .edges()
            .iter()
            .map(|&e| {
                let d = ont.edge(e);
                PEdge {
                    src: index_of(d.src),
                    dst: index_of(d.dst),
                    pred: ont.pred_str(d.pred).into(),
                    optional: false,
                }
            })
            .collect();
        Self {
            labels,
            edges,
            dis: index_of(ex.distinguished()),
        }
    }

    /// Lowers a simple query: labels carry over (variable names are
    /// dropped), the projected node becomes the distinguished node.
    /// Disequalities are not represented — they are re-inferred after
    /// merging (Section V).
    pub fn from_query(q: &SimpleQuery) -> Self {
        let labels = q
            .labels()
            .iter()
            .map(|l| match l {
                NodeLabel::Const(c) => PLabel::Const(c.clone()),
                NodeLabel::Var(_) => PLabel::Var,
            })
            .collect();
        let edges = q
            .edges()
            .iter()
            .map(|e| PEdge {
                src: e.src.index() as u32,
                dst: e.dst.index() as u32,
                pred: e.pred.clone(),
                optional: e.optional,
            })
            .collect();
        Self {
            labels,
            edges,
            dis: q.projected().index() as u32,
        }
    }

    /// Node labels, by node index.
    pub fn labels(&self) -> &[PLabel] {
        &self.labels
    }

    /// The label of node `n`.
    pub fn label(&self, n: u32) -> &PLabel {
        &self.labels[n as usize]
    }

    /// The edges.
    pub fn edges(&self) -> &[PEdge] {
        &self.edges
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The distinguished node index.
    pub fn dis(&self) -> u32 {
        self.dis
    }

    /// The set of distinct edge predicates (required and optional).
    pub fn edge_label_set(&self) -> BTreeSet<Arc<str>> {
        self.edges.iter().map(|e| e.pred.clone()).collect()
    }

    /// Whether any edge is OPTIONAL.
    pub fn has_optional(&self) -> bool {
        self.edges.iter().any(|e| e.optional)
    }

    /// Number of required (non-optional) edges.
    pub fn required_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.optional).count()
    }

    /// How many edges carry predicate `pred`.
    pub fn count_label(&self, pred: &str) -> usize {
        self.edges.iter().filter(|e| &*e.pred == pred).count()
    }

    /// Predicates of edges whose **source** is the distinguished node.
    pub fn dis_source_labels(&self) -> BTreeSet<Arc<str>> {
        self.edges
            .iter()
            .filter(|e| e.src == self.dis)
            .map(|e| e.pred.clone())
            .collect()
    }

    /// Predicates of edges whose **target** is the distinguished node.
    pub fn dis_target_labels(&self) -> BTreeSet<Arc<str>> {
        self.edges
            .iter()
            .filter(|e| e.dst == self.dis)
            .map(|e| e.pred.clone())
            .collect()
    }

    /// Whether edge `e`'s source (resp. target, per `source`) is the
    /// distinguished node.
    pub fn edge_touches_dis(&self, e: usize, source: bool) -> bool {
        let edge = &self.edges[e];
        if source {
            edge.src == self.dis
        } else {
            edge.dst == self.dis
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_graph::Explanation;
    use questpro_query::fixtures::erdos_q1;

    fn world() -> (Ontology, Explanation) {
        let mut b = Ontology::builder();
        b.edge("paper1", "wb", "Alice").unwrap();
        b.edge("paper1", "wb", "Bob").unwrap();
        b.edge("paper2", "cites", "paper1").unwrap();
        let o = b.build();
        let ex = Explanation::from_triples(
            &o,
            &[("paper1", "wb", "Alice"), ("paper2", "cites", "paper1")],
            "Alice",
        )
        .unwrap();
        (o, ex)
    }

    #[test]
    fn explanations_lower_to_constant_graphs() {
        let (o, ex) = world();
        let g = PatternGraph::from_explanation(&o, &ex);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.labels().iter().all(|l| l.as_const().is_some()));
        assert_eq!(g.label(g.dis()).as_const(), Some("Alice"));
        assert_eq!(
            g.edge_label_set().into_iter().collect::<Vec<_>>(),
            vec!["cites".into(), "wb".into()] as Vec<Arc<str>>
        );
    }

    #[test]
    fn queries_lower_with_projected_as_dis() {
        let q = erdos_q1();
        let g = PatternGraph::from_query(&q);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6);
        assert!(g.labels().iter().all(|l| l.as_const().is_none()));
        assert_eq!(g.dis(), q.projected().index() as u32);
        assert_eq!(g.count_label("wb"), 6);
    }

    #[test]
    fn dis_incidence_helpers() {
        let (o, ex) = world();
        let g = PatternGraph::from_explanation(&o, &ex);
        // Alice is only a target (of wb).
        assert!(g.dis_source_labels().is_empty());
        assert_eq!(g.dis_target_labels().len(), 1);
        let wb_edge = g.edges().iter().position(|e| &*e.pred == "wb").unwrap();
        assert!(g.edge_touches_dis(wb_edge, false));
        assert!(!g.edge_touches_dis(wb_edge, true));
    }
}
