//! Provenance-aware query engine for QuestPro-RS.
//!
//! This crate is the Rust replacement for the Jena ARQ substrate the
//! paper's implementation relied on. It implements:
//!
//! * **match enumeration** (Def. 2.2) — homomorphisms from a simple query
//!   into an ontology, found by backtracking with candidate filtering and
//!   most-constrained-first edge ordering ([`matcher`]);
//! * **evaluation** — result sets `Q(O)` for simple and union queries,
//!   with the result-anchored strategy that binds the projected node to
//!   each candidate and checks for an extension ([`eval`]);
//! * **provenance** (Def. 2.4) — the set of match images `μ(Q)` for a
//!   given result, deduplicated as canonical [`questpro_graph::Subgraph`]s
//!   ([`eval::provenance_of`]);
//! * **consistency** (Def. 2.6) — does a query admit an *onto*
//!   homomorphism onto each explanation, mapping the projected node to the
//!   distinguished node ([`consistency`]);
//! * **difference queries** (Section V) — `Q_i − Q_j` evaluated without
//!   provenance tracking, with provenance recovered afterwards by binding
//!   a sampled result ([`difference()`]);
//! * **containment and equivalence** of conjunctive queries and their
//!   unions via the frozen-instance homomorphism test ([`contain`]),
//!   used to decide when inference has reconstructed the target query.

pub mod consistency;
pub mod contain;
pub mod cost;
pub mod difference;
pub mod eval;
pub mod matcher;
pub mod metrics;
pub mod minimize;
pub mod par;
pub mod semiring;

pub use consistency::{
    consistent_with_examples, consistent_with_explanation, find_onto_match, ConsistencyCache,
};
pub use contain::{contained_in, equivalent, union_contained_in, union_equivalent};
pub use cost::{edge_cost, estimate_scan, merge_pair_cost};
pub use difference::{difference, difference_with_witness};
pub use eval::{
    evaluate, evaluate_union, evaluate_union_with, evaluate_with, exists_match, provenance_of,
    provenance_of_union, provenance_of_union_with, provenance_of_with, sample_example_set,
    sample_result_with_provenance,
};
pub use matcher::{Match, Matcher};
pub use minimize::minimize;
pub use semiring::{polynomial_of, polynomial_of_union, Monomial, Polynomial};
