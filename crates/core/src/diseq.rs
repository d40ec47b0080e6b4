//! Disequality inference (Section V).
//!
//! For an inferred branch `q` and the explanations it covers, we read off
//! the value each query node took in each explanation (via the onto
//! matches that witness consistency). A disequality may be added between
//! two nodes when
//!
//! * at least one of them is a variable (a constant pair is vacuous),
//! * their matched ontology nodes have the **same type** in every
//!   covered explanation (the paper uses type information from the
//!   ontology to scope candidate pairs; untyped nodes only pair with
//!   untyped nodes), and
//! * in **every** covered explanation the two nodes took **different**
//!   values — a single explanation assigning the same value to both
//!   (the paper's Dave example, 5.1) forbids the disequality.
//!
//! `Q^all` — the query with every possible disequality — is what the
//! feedback loop runs on the "kept" side of difference queries, so that
//! users never disqualify a query because of an over-strict disequality.

use questpro_engine::consistency::explanation_key;
use questpro_engine::ConsistencyCache;
use questpro_graph::{ExampleSet, Explanation, Ontology};
use questpro_query::{QueryNodeId, SimpleQuery, UnionQuery};

/// Infers every admissible disequality for `q` over the explanations it
/// covers (inconsistent explanations are skipped).
///
/// Returns canonicalized node-id pairs; empty when `q` covers no
/// explanation or no pair qualifies.
pub fn infer_diseqs(
    ont: &Ontology,
    q: &SimpleQuery,
    examples: &ExampleSet,
) -> Vec<(QueryNodeId, QueryNodeId)> {
    infer_diseqs_cached(ont, q, examples, &mut ConsistencyCache::new())
}

/// [`infer_diseqs`] with a shared [`ConsistencyCache`]: top-k candidates
/// share branches, and a session start passes the cache inference
/// filled, so most `(branch, explanation)` onto matches are looked up,
/// not searched for again.
pub fn infer_diseqs_cached(
    ont: &Ontology,
    q: &SimpleQuery,
    examples: &ExampleSet,
    cache: &mut ConsistencyCache,
) -> Vec<(QueryNodeId, QueryNodeId)> {
    let qkey = questpro_engine::consistency::query_key(q);
    // The pairs with at least one variable, narrowed by the onto match
    // of each covered explanation in turn.
    let n = q.node_count();
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .filter(|&(a, b)| {
            let var = |i| q.label(QueryNodeId::from_index(i)).is_var();
            var(a) || var(b)
        })
        .collect();
    let mut covered = false;
    for ex in examples.iter() {
        let Some(m) = cache.find_onto_match_keyed(qkey, explanation_key(ex), ont, q, ex) else {
            continue;
        };
        covered = true;
        pairs.retain(|&(a, b)| {
            // A node left unbound in some explanation (skipped OPTIONAL
            // edge) cannot certify the disequality there.
            let (Some(va), Some(vb)) = (m.nodes[a], m.nodes[b]) else {
                return false;
            };
            va != vb && ont.node_type(va) == ont.node_type(vb)
        });
    }
    if !covered {
        return Vec::new();
    }
    pairs
        .into_iter()
        .map(|(a, b)| (QueryNodeId::from_index(a), QueryNodeId::from_index(b)))
        .collect()
}

/// The paper's `Q^all`: every branch of `u` augmented with all its
/// admissible disequalities.
pub fn with_all_diseqs(ont: &Ontology, u: &UnionQuery, examples: &ExampleSet) -> UnionQuery {
    with_all_diseqs_cached(ont, u, examples, &mut ConsistencyCache::new())
}

/// [`with_all_diseqs`] with a shared [`ConsistencyCache`].
pub fn with_all_diseqs_cached(
    ont: &Ontology,
    u: &UnionQuery,
    examples: &ExampleSet,
    cache: &mut ConsistencyCache,
) -> UnionQuery {
    let branches = u
        .branches()
        .iter()
        .map(|q| {
            let d = infer_diseqs_cached(ont, q, examples, cache);
            q.with_diseqs(d)
                .expect("inferred disequalities are valid by construction")
        })
        .collect();
    UnionQuery::new(branches).expect("branch count unchanged")
}

/// Convenience: the explanations of `examples` that `q` covers.
pub fn covered_explanations<'e>(
    ont: &Ontology,
    q: &SimpleQuery,
    examples: &'e ExampleSet,
) -> Vec<&'e Explanation> {
    covered_explanations_cached(ont, q, examples, &mut ConsistencyCache::new())
}

/// [`covered_explanations`] with a shared [`ConsistencyCache`].
pub fn covered_explanations_cached<'e>(
    ont: &Ontology,
    q: &SimpleQuery,
    examples: &'e ExampleSet,
    cache: &mut ConsistencyCache,
) -> Vec<&'e Explanation> {
    let qkey = questpro_engine::consistency::query_key(q);
    examples
        .iter()
        .filter(|ex| {
            cache
                .find_onto_match_keyed(qkey, explanation_key(ex), ont, q, ex)
                .is_some()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_engine::{consistent_with_explanation, evaluate};
    use questpro_graph::Explanation;

    /// Typed running example: authors and papers. Dave co-authors with
    /// himself-only paper (models Example 5.1's "Dave appears for both
    /// variables" case).
    fn world() -> (Ontology, ExampleSet) {
        let mut b = Ontology::builder();
        for (p, a) in [
            ("paper1", "Alice"),
            ("paper1", "Bob"),
            ("paper2", "Bob"),
            ("paper2", "Carol"),
            ("paper3", "Carol"),
            ("paper3", "Erdos"),
            ("paper4", "Dave"),
            ("paper4", "Erdos"),
        ] {
            b.edge(p, "wb", a).unwrap();
        }
        for a in ["Alice", "Bob", "Carol", "Erdos", "Dave"] {
            b.typed_node(a, "Author").unwrap();
        }
        for p in ["paper1", "paper2", "paper3", "paper4"] {
            b.typed_node(p, "Paper").unwrap();
        }
        let o = b.build();
        let e1 = Explanation::from_triples(
            &o,
            &[("paper3", "wb", "Carol"), ("paper3", "wb", "Erdos")],
            "Carol",
        )
        .unwrap();
        let e2 = Explanation::from_triples(
            &o,
            &[("paper4", "wb", "Dave"), ("paper4", "wb", "Erdos")],
            "Dave",
        )
        .unwrap();
        (o, ExampleSet::from_explanations(vec![e1, e2]))
    }

    /// `?p wb ?x . ?p wb ?other` — co-authorship without constants.
    fn coauthor_query() -> SimpleQuery {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let other = b.var("other");
        b.edge(p, "wb", x).edge(p, "wb", other).project(x);
        b.build().unwrap()
    }

    #[test]
    fn same_type_distinct_values_admit_diseq() {
        let (o, examples) = world();
        let q = coauthor_query();
        assert!(examples
            .iter()
            .all(|e| consistent_with_explanation(&o, &q, e)));
        let d = infer_diseqs(&o, &q, &examples);
        // ?x vs ?other: Carol≠Erdos and Dave≠Erdos → admissible.
        let x = q.node_of_var("x").unwrap();
        let other = q.node_of_var("other").unwrap();
        assert!(d.contains(&(x.min(other), x.max(other))));
        // ?p is a Paper; it never pairs with the Author variables.
        let p = q.node_of_var("p").unwrap();
        assert!(!d.iter().any(|&(a, b)| a == p || b == p));
    }

    #[test]
    fn shared_value_in_one_explanation_blocks_diseq() {
        // Add an explanation where ?x and ?other both map to Dave (the
        // onto match must fold them): paper4 with only Dave as author.
        let mut b = Ontology::builder();
        b.edge("paperD", "wb", "Dave").unwrap();
        b.edge("paper3", "wb", "Carol").unwrap();
        b.edge("paper3", "wb", "Erdos").unwrap();
        for a in ["Carol", "Erdos", "Dave"] {
            b.typed_node(a, "Author").unwrap();
        }
        for p in ["paperD", "paper3"] {
            b.typed_node(p, "Paper").unwrap();
        }
        let o = b.build();
        let fold = Explanation::from_triples(&o, &[("paperD", "wb", "Dave")], "Dave").unwrap();
        let normal = Explanation::from_triples(
            &o,
            &[("paper3", "wb", "Carol"), ("paper3", "wb", "Erdos")],
            "Carol",
        )
        .unwrap();
        let examples = ExampleSet::from_explanations(vec![fold, normal]);
        let q = coauthor_query();
        let d = infer_diseqs(&o, &q, &examples);
        let x = q.node_of_var("x").unwrap();
        let other = q.node_of_var("other").unwrap();
        assert!(!d.contains(&(x.min(other), x.max(other))));
    }

    #[test]
    fn diseq_changes_query_semantics() {
        let (o, examples) = world();
        let q = coauthor_query();
        let u = UnionQuery::single(q.clone());
        let u_all = with_all_diseqs(&o, &u, &examples);
        assert!(u_all.diseq_count() > 0);
        let plain = evaluate(&o, &q);
        let strict = evaluate(&o, &u_all.branches()[0]);
        // With ?x != ?other, sole-author matches disappear; here everyone
        // has a distinct co-author so the sets coincide on authors with
        // co-authors, but strict ⊆ plain always.
        assert!(strict.is_subset(&plain));
    }

    #[test]
    fn var_const_diseqs_are_inferred() {
        // Query with the Erdos constant: ?p wb ?x . ?p wb :Erdos.
        let (o, examples) = world();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let e = b.constant("Erdos");
        b.edge(p, "wb", x).edge(p, "wb", e).project(x);
        let q = b.build().unwrap();
        let d = infer_diseqs(&o, &q, &examples);
        // ?x is Carol/Dave, both ≠ Erdos and same type → (x, :Erdos)
        // admissible (the paper's `?a1 != Bob` pattern).
        let en = q.node_of_const("Erdos").unwrap();
        let x = q.node_of_var("x").unwrap();
        assert!(d.contains(&(x.min(en), x.max(en))));
    }

    #[test]
    fn inconsistent_branch_yields_no_diseqs() {
        let (o, examples) = world();
        // A query over a predicate absent from the explanations covers
        // nothing (note: the diseq-free Q1 chain *does* fold onto short
        // chains, so it would not do here).
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.edge(y, "cites", x).project(x);
        let q = b.build().unwrap();
        assert!(infer_diseqs(&o, &q, &examples).is_empty());
        assert!(covered_explanations(&o, &q, &examples).is_empty());
    }

    #[test]
    fn covered_explanations_filters_correctly() {
        let (o, examples) = world();
        let q = coauthor_query();
        assert_eq!(covered_explanations(&o, &q, &examples).len(), 2);
    }

    #[test]
    fn cached_variants_agree_and_share_lookups() {
        let (o, examples) = world();
        let q = coauthor_query();
        let u = UnionQuery::single(q.clone());
        let mut cache = ConsistencyCache::new();
        assert_eq!(
            infer_diseqs_cached(&o, &q, &examples, &mut cache),
            infer_diseqs(&o, &q, &examples)
        );
        assert_eq!(cache.hits(), 0);
        // Re-deriving over the same branches hits the cache every time.
        let u_all = with_all_diseqs_cached(&o, &u, &examples, &mut cache);
        assert_eq!(
            u_all.diseq_count(),
            with_all_diseqs(&o, &u, &examples).diseq_count()
        );
        assert_eq!(cache.hits(), examples.len() as u64);
        let covered = covered_explanations_cached(&o, &q, &examples, &mut cache);
        assert_eq!(covered.len(), covered_explanations(&o, &q, &examples).len());
        assert_eq!(cache.hits(), 2 * examples.len() as u64);
        // One key scheme: the same pattern spelled with other variable
        // names reuses every entry.
        let mut b = SimpleQuery::builder();
        let (x, p, other) = (b.var("a"), b.var("paper"), b.var("b"));
        b.edge(p, "wb", x).edge(p, "wb", other).project(x);
        let renamed = b.build().unwrap();
        assert_ne!(renamed.to_string(), q.to_string());
        assert_eq!(
            infer_diseqs_cached(&o, &renamed, &examples, &mut cache),
            infer_diseqs(&o, &q, &examples)
        );
        assert_eq!(cache.hits(), 3 * examples.len() as u64);
        assert_eq!(cache.len(), examples.len());
    }

    #[test]
    fn inference_cache_serves_the_candidates_diseqs() {
        let (o, examples) = world();
        let cfg = crate::TopKConfig::default();
        let mut cache = ConsistencyCache::new();
        let (candidates, stats) = crate::infer_top_k_cached(&o, &examples, &cfg, &mut cache);
        let (fresh, fresh_stats) = crate::infer_top_k(&o, &examples, &cfg);
        assert_eq!(candidates, fresh);
        assert_eq!(stats.consistency_checks, fresh_stats.consistency_checks);
        assert_eq!(
            stats.consistency_cache_hits,
            fresh_stats.consistency_cache_hits
        );
        let (lookups, hits) = (cache.lookups(), cache.hits());
        for c in &candidates {
            assert_eq!(
                with_all_diseqs_cached(&o, c, &examples, &mut cache),
                with_all_diseqs(&o, c, &examples)
            );
        }
        assert!(cache.lookups() > lookups);
        assert!(cache.hits() > hits, "inference's matches must serve Q^all");
    }
}
