//! Query-by-provenance inference — the core contribution of
//! *Interactive Inference of SPARQL Queries Using Provenance* (ICDE 2018).
//!
//! Given an **example-set** (explanations: ontology subgraphs with a
//! distinguished output node, Def. 2.5), this crate infers SPARQL queries
//! — simple graph patterns and unions thereof — that are **consistent**
//! with every explanation (Def. 2.6), while heuristically minimizing the
//! paper's generalization cost.
//!
//! Pipeline, module by module:
//!
//! * [`pattern`] — the shared *pattern graph* representation that both
//!   explanations and intermediate queries are lowered to, so the same
//!   merging machinery serves Section III's "extending to n explanations"
//!   composition;
//! * [`trivial`] — the PTIME existence test and disjoint-edges consistent
//!   query of Proposition 3.1 / Lemma 3.2;
//! * [`relation`] — complete relations between the edge sets of two
//!   pattern graphs (Def. 3.6) and their validation;
//! * [`gain`] — the dynamic gain function of Def. 3.11 (weights
//!   `w1=3, w2=15, w3=1` as fixed in Section VI);
//! * [`assemble`] — `BuildQuery`: turning a complete relation into the
//!   consistent simple query with minimum variables w.r.t. that relation
//!   (Prop. 3.10, applying Def. 3.7's optional operations maximally);
//! * [`greedy`] — Algorithm 1 (`FindRelationGreedy`) with the `numIter`
//!   diversification loop;
//! * [`merge`] — the pairwise extension to `n` explanations;
//! * [`union`] — Algorithm 2 (`FindConsistentUnion`), minimizing
//!   `f(Q) = w1·Σvars + w2·|Q|` (Def. 4.1);
//! * [`topk`] — the beam-search top-k variant of Algorithm 2;
//! * [`diseq`] — disequality inference from explanation matches
//!   (Section V);
//! * [`stats`] — instrumentation counters (the "number of intermediate
//!   queries" metric of Figure 6).

pub mod assemble;
pub mod diagnose;
pub mod diseq;
pub mod exact;
pub mod gain;
pub mod greedy;
pub mod merge;
pub mod pattern;
pub mod relation;
pub mod stats;
pub mod topk;
pub mod trivial;
pub mod union;

pub use diagnose::{diagnose_examples, infer_top_k_robust, ExampleDiagnosis, Suspicion};
pub use diseq::{
    covered_explanations, covered_explanations_cached, infer_diseqs, infer_diseqs_cached,
    with_all_diseqs, with_all_diseqs_cached,
};
pub use exact::{exact_merge_pair, ExactOutcome};
pub use gain::GainWeights;
pub use greedy::{merge_pair, GreedyConfig, MergeOutcome};
pub use pattern::PatternGraph;
pub use stats::{global_stats, GlobalStats, InferenceStats};
pub use topk::{infer_top_k, infer_top_k_cached, TopKConfig};
pub use trivial::{trivial_consistent_query, TrivialOutcome};
pub use union::{find_consistent_union, UnionConfig};
