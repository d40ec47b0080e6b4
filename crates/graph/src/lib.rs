//! Ontology graph model for QuestPro-RS.
//!
//! This crate implements the data model of Section II-A of *Interactive
//! Inference of SPARQL Queries Using Provenance* (ICDE 2018): an **ontology
//! database** is a directed labeled multigraph `O = (V, E, L_V, L_E)` where
//!
//! * `L_V : V -> Values` maps every node to a **value** and is one-to-one
//!   (at most one node per value in the whole ontology);
//! * `L_E : E -> Predicates` maps every edge to a **predicate**; parallel
//!   edges between the same ordered node pair must carry distinct
//!   predicates;
//! * nodes may additionally carry a **type** (e.g. `Author`, `Paper`),
//!   which Section V of the paper uses to decide which variable pairs are
//!   candidates for disequality constraints.
//!
//! The crate provides:
//!
//! * compact integer identifiers and string interners ([`ids`],
//!   [`interner`]);
//! * the immutable, index-rich [`Ontology`] and its [`OntologyBuilder`];
//! * [`Subgraph`] — a canonical set of edges/nodes of an ontology, used
//!   both for provenance images (Def. 2.4) and for explanations;
//! * [`Explanation`] and [`ExampleSet`] — a subgraph plus a distinguished
//!   node (Def. 2.5), the input to query inference;
//! * a line-oriented text format for ontologies ([`triples`]).
//!
//! All structures are plain data with `O(1)` id-based access so that the
//! matcher in `questpro-engine` can run tight backtracking loops without
//! hashing strings.

pub mod columnar;
pub mod delta;
pub mod error;
pub mod exformat;
pub mod explanation;
pub mod fxhash;
pub mod ids;
pub mod interner;
pub mod ontology;
pub mod rng;
pub mod subgraph;
pub mod triples;

pub use columnar::{Pages, PredEdges, PredStats, SortedSpans};
pub use delta::{DeltaSummary, TripleDelta};
pub use error::GraphError;
pub use explanation::{ExampleSet, Explanation};
pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{EdgeId, NodeId, PredId, TypeId, ValueId};
pub use interner::Interner;
pub use ontology::{EdgeData, NodeData, Ontology, OntologyBuilder};
pub use subgraph::Subgraph;
