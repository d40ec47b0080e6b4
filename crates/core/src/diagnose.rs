//! Diagnosing suspect explanations (the paper's last future-work item:
//! "dealing with incorrect provenance provided by users").
//!
//! A wrong explanation — a reversed relation, a forgotten edge, a
//! mis-clicked neighbor — poisons inference: Algorithm 1 either fails
//! outright (predicate shapes stop matching) or absorbs the error into
//! an over-general pattern. This module scores each explanation by how
//! well it merges with the rest of the example-set:
//!
//! * **shape mismatch** — the explanation merges (strictly) with *no*
//!   other explanation: its predicate shape is foreign to the set, the
//!   signature of a wrong-relation error;
//! * **outlier** — it merges, but only into queries with far more
//!   variables than the set's typical pairwise merge, the signature of
//!   an explanation that structurally disagrees with the others;
//! * **clean** — everything else.
//!
//! [`infer_top_k_robust`] filters shape-mismatch suspects before running
//! the standard top-k inference and reports which explanations were set
//! aside, so an interactive front-end can ask the user to re-draw them.

use questpro_engine::ConsistencyCache;
use questpro_graph::{ExampleSet, Ontology};
use questpro_query::UnionQuery;

use crate::greedy::{merge_pair, GreedyConfig};
use crate::pattern::PatternGraph;
use crate::stats::InferenceStats;
use crate::topk::{infer_top_k_cached, TopKConfig};

/// How suspicious an explanation looks within its example-set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suspicion {
    /// Merges normally with the rest of the set.
    Clean,
    /// Merges with no other explanation (foreign predicate shape).
    ShapeMismatch,
    /// Merges only into unusually variable-heavy queries.
    Outlier,
}

/// Diagnosis of one explanation.
#[derive(Debug, Clone)]
pub struct ExampleDiagnosis {
    /// Index of the explanation in the example-set.
    pub index: usize,
    /// Number of other explanations it pairwise-merges with.
    pub mergeable_with: usize,
    /// Fewest generalization variables over its successful merges
    /// (`None` when nothing merges).
    pub best_merge_vars: Option<usize>,
    /// The verdict.
    pub suspicion: Suspicion,
}

/// Scores every explanation of the set. With fewer than two
/// explanations everything is trivially [`Suspicion::Clean`].
///
/// Mergeability is judged with the **optional-tolerant** merge
/// regardless of `cfg.allow_optional`: legitimately varied explanations
/// (one mentions a genre, another does not) must not be flagged — only
/// explanations that cannot be reconciled at all are suspect.
pub fn diagnose_examples(
    ont: &Ontology,
    examples: &ExampleSet,
    cfg: &GreedyConfig,
) -> Vec<ExampleDiagnosis> {
    let cfg = &GreedyConfig {
        allow_optional: true,
        ..*cfg
    };
    let n = examples.len();
    let graphs: Vec<PatternGraph> = examples
        .iter()
        .map(|e| PatternGraph::from_explanation(ont, e))
        .collect();
    let mut mergeable = vec![0usize; n];
    let mut best_vars: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(out) = merge_pair(&graphs[i], &graphs[j], cfg) {
                mergeable[i] += 1;
                mergeable[j] += 1;
                let v = out.query.generalization_vars();
                for idx in [i, j] {
                    best_vars[idx] = Some(best_vars[idx].map_or(v, |b: usize| b.min(v)));
                }
            }
        }
    }
    // Median of the best-merge variable counts over explanations that
    // merge at all, as the set's notion of a "normal" fit.
    let mut merged_vars: Vec<usize> = best_vars.iter().flatten().copied().collect();
    merged_vars.sort_unstable();
    let median = merged_vars.get(merged_vars.len() / 2).copied();

    (0..n)
        .map(|i| {
            let suspicion = if n <= 1 {
                Suspicion::Clean
            } else if mergeable[i] == 0 {
                Suspicion::ShapeMismatch
            } else {
                match (best_vars[i], median) {
                    // An explanation whose *best* merge needs more than
                    // twice the median variables (plus slack for tiny
                    // medians) structurally disagrees with the set.
                    (Some(v), Some(m)) if v > 2 * m + 1 => Suspicion::Outlier,
                    _ => Suspicion::Clean,
                }
            };
            ExampleDiagnosis {
                index: i,
                mergeable_with: mergeable[i],
                best_merge_vars: best_vars[i],
                suspicion,
            }
        })
        .collect()
}

/// Top-k inference that sets shape-mismatch suspects aside first.
///
/// Returns the candidates inferred from the clean subset, the indexes of
/// the explanations that were set aside, and the inference stats. When
/// filtering would leave fewer than two explanations (or nothing is
/// suspect), the full set is used unchanged. Inference runs on `cache`
/// ([`infer_top_k_cached`]), so its onto matches stay available to the
/// caller.
pub fn infer_top_k_robust(
    ont: &Ontology,
    examples: &ExampleSet,
    cfg: &TopKConfig,
    cache: &mut ConsistencyCache,
) -> (Vec<UnionQuery>, Vec<usize>, InferenceStats) {
    let diagnoses = diagnose_examples(ont, examples, &cfg.greedy);
    let suspects: Vec<usize> = diagnoses
        .iter()
        .filter(|d| d.suspicion == Suspicion::ShapeMismatch)
        .map(|d| d.index)
        .collect();
    let clean_count = examples.len() - suspects.len();
    if suspects.is_empty() || clean_count < 2 {
        let (candidates, stats) = infer_top_k_cached(ont, examples, cfg, cache);
        return (candidates, Vec::new(), stats);
    }
    let kept: ExampleSet = examples
        .iter()
        .enumerate()
        .filter(|(i, _)| !suspects.contains(i))
        .map(|(_, e)| e.clone())
        .collect();
    let (candidates, stats) = infer_top_k_cached(ont, &kept, cfg, cache);
    (candidates, suspects, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_engine::consistent_with_explanation;
    use questpro_graph::Explanation;

    /// Three clean co-author explanations plus one wrong-relation one
    /// (a `cites` edge instead of `wb`).
    fn world() -> (Ontology, ExampleSet) {
        let mut b = Ontology::builder();
        for (p, a) in [
            ("paper3", "Carol"),
            ("paper3", "Erdos"),
            ("paper4", "Dave"),
            ("paper4", "Erdos"),
            ("paper5", "Iris"),
            ("paper5", "Erdos"),
        ] {
            b.edge(p, "wb", a).unwrap();
        }
        b.edge("paper6", "cites", "paper3").unwrap();
        let o = b.build();
        let mk = |p: &str, a: &str| {
            Explanation::from_triples(&o, &[(p, "wb", a), (p, "wb", "Erdos")], a).unwrap()
        };
        let wrong =
            Explanation::from_triples(&o, &[("paper6", "cites", "paper3")], "paper3").unwrap();
        let set = ExampleSet::from_explanations(vec![
            mk("paper3", "Carol"),
            mk("paper4", "Dave"),
            mk("paper5", "Iris"),
            wrong,
        ]);
        (o, set)
    }

    #[test]
    fn wrong_relation_is_flagged_as_shape_mismatch() {
        let (o, set) = world();
        let d = diagnose_examples(&o, &set, &GreedyConfig::default());
        assert_eq!(d.len(), 4);
        assert_eq!(d[0].suspicion, Suspicion::Clean);
        assert_eq!(d[1].suspicion, Suspicion::Clean);
        assert_eq!(d[2].suspicion, Suspicion::Clean);
        assert_eq!(d[3].suspicion, Suspicion::ShapeMismatch);
        assert_eq!(d[3].mergeable_with, 0);
        assert!(d[3].best_merge_vars.is_none());
        assert_eq!(d[0].mergeable_with, 2);
    }

    #[test]
    fn robust_inference_sets_the_suspect_aside() {
        let (o, set) = world();
        let (candidates, suspects, _) = infer_top_k_robust(
            &o,
            &set,
            &TopKConfig::default(),
            &mut ConsistencyCache::new(),
        );
        assert_eq!(suspects, vec![3]);
        // The clean subset fuses into one co-author-of-Erdos pattern.
        let best = &candidates[0];
        assert_eq!(best.len(), 1);
        for (i, ex) in set.iter().enumerate() {
            if i != 3 {
                assert!(consistent_with_explanation(&o, &best.branches()[0], ex));
            }
        }
    }

    #[test]
    fn clean_sets_are_untouched() {
        let (o, set) = world();
        let clean: ExampleSet = set.iter().take(3).cloned().collect();
        let d = diagnose_examples(&o, &clean, &GreedyConfig::default());
        assert!(d.iter().all(|x| x.suspicion == Suspicion::Clean));
        let (_, suspects, _) = infer_top_k_robust(
            &o,
            &clean,
            &TopKConfig::default(),
            &mut ConsistencyCache::new(),
        );
        assert!(suspects.is_empty());
    }

    #[test]
    fn single_explanation_is_clean() {
        let (o, set) = world();
        let one: ExampleSet = set.iter().take(1).cloned().collect();
        let d = diagnose_examples(&o, &one, &GreedyConfig::default());
        assert_eq!(d[0].suspicion, Suspicion::Clean);
    }

    #[test]
    fn all_mutually_foreign_sets_fall_back_to_full_inference() {
        // Two explanations, mutually unmergeable: filtering would leave
        // fewer than two, so the full set is used (trivial union).
        let (o, set) = world();
        let pair: ExampleSet = set
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || *i == 3)
            .map(|(_, e)| e.clone())
            .collect();
        let (candidates, suspects, _) = infer_top_k_robust(
            &o,
            &pair,
            &TopKConfig::default(),
            &mut ConsistencyCache::new(),
        );
        assert!(suspects.is_empty());
        assert_eq!(candidates[0].len(), 2);
    }
}
