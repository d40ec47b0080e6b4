//! Consistency of queries with example-sets (Definition 2.6).
//!
//! A query `Q` is consistent with an explanation `E` (with distinguished
//! node `res`) when `res ∈ Q(O)` **and** `E` is isomorphic to some graph
//! in the provenance of `res`. Because node values are unique in the
//! ontology, "isomorphic to a provenance graph" collapses to "equal to a
//! match image", so the check becomes: *does an onto homomorphism from
//! `Q` to `E` exist that maps the projected node to `res`?* — exactly
//! the observation the paper makes at the start of Section III.
//!
//! The check is NP-complete in the query size in general; the matcher's
//! coverage pruning keeps it fast at the sizes inference produces.
//!
//! Inference re-runs the same checks constantly: Algorithm 2 / top-k
//! beam search carry the same branches across states and rounds, and
//! disequality inference revisits every `(branch, explanation)` pair.
//! [`ConsistencyCache`] memoizes `find_onto_match` results under a
//! `(query-canonical-hash, explanation-hash)` key so each distinct pair
//! is solved once per inference run. A session start hands inference's
//! cache on to disequality inference, so the pairs inference already
//! verified are not solved again.

use std::collections::hash_map::Entry;

use questpro_graph::fxhash::{fx_hash_one, FxHashMap};
use questpro_graph::{DeltaSummary, ExampleSet, Explanation, Ontology};
use questpro_query::{SimpleQuery, UnionQuery};

use crate::matcher::{Match, Matcher};

/// Finds an onto homomorphism from `q` onto `ex` mapping the projected
/// node to the distinguished node, if one exists.
///
/// The returned [`Match`] records the image of every query node — the
/// assignment used by disequality inference (Section V) to read off which
/// values each variable took in each explanation.
pub fn find_onto_match(ont: &Ontology, q: &SimpleQuery, ex: &Explanation) -> Option<Match> {
    Matcher::new(ont, q)
        .bind(q.projected(), ex.distinguished())
        .onto(ex.subgraph())
        .first()
}

/// Whether a simple query is consistent with a single explanation.
pub fn consistent_with_explanation(ont: &Ontology, q: &SimpleQuery, ex: &Explanation) -> bool {
    find_onto_match(ont, q, ex).is_some()
}

/// Whether a union query is consistent with an example-set: every
/// explanation must be covered by at least one branch (Def. 4.1
/// condition 1).
pub fn consistent_with_examples(ont: &Ontology, q: &UnionQuery, examples: &ExampleSet) -> bool {
    examples.iter().all(|ex| {
        q.branches()
            .iter()
            .any(|branch| consistent_with_explanation(ont, branch, ex))
    })
}

/// Cache key of a query: the FxHash of [`SimpleQuery::canonical_key`].
/// Inference memoizes the same hash on each of its branches, so
/// α-equivalent queries share consistency results, and a cache that
/// inference filled answers the disequality lookups for its candidates.
pub fn query_key(q: &SimpleQuery) -> u64 {
    fx_hash_one(q.canonical_key().as_str())
}

/// Cache key of an explanation: the FxHash of its distinguished node
/// and canonical edge set.
pub fn explanation_key(ex: &Explanation) -> u64 {
    fx_hash_one(&(ex.distinguished(), ex.subgraph().edges()))
}

/// Predicate signature of a `(query, explanation)` pair: the OR of
/// [`Ontology::pred_bit`] over the query's predicates and the
/// explanation subgraph's predicates. A cached consistency result can
/// only change when a live update touches one of those predicates (the
/// match image is exactly the explanation subgraph, and the matcher's
/// candidate ordering reads only the pair's own predicate statistics),
/// so this signature is what [`ConsistencyCache::invalidate_delta`]
/// intersects against [`DeltaSummary::pred_sig`]. A query predicate
/// absent from the ontology yields the all-ones signature: a later
/// update could introduce it, and the 64-bit fold cannot name a bit for
/// a predicate that has no id yet.
fn pair_sig(ont: &Ontology, q: &SimpleQuery, ex: &Explanation) -> u64 {
    let mut sig = 0u64;
    for e in q.edges() {
        match ont.pred_by_name(&e.pred) {
            Some(p) => sig |= ont.pred_bit(p),
            None => return u64::MAX,
        }
    }
    for &e in ex.subgraph().edges() {
        sig |= ont.pred_bit(ont.edge(e).pred);
    }
    sig
}

/// Memoizes [`find_onto_match`] under `(query_key, explanation_key)`.
///
/// Scope contract: one cache per ontology/world — keys do not include
/// the ontology, so reusing a cache across worlds returns stale
/// results. Across *versions* of the same world the cache stays usable:
/// call [`ConsistencyCache::invalidate_delta`] with the update's
/// [`DeltaSummary`] and only the entries whose predicate signature
/// intersects the delta are dropped. Counters feed `InferenceStats`
/// (consistency calls and cache hit rate) in `questpro-core`.
#[derive(Debug, Default)]
pub struct ConsistencyCache {
    map: FxHashMap<(u64, u64), Cached>,
    lookups: u64,
    hits: u64,
    /// Misses before the last [`ConsistencyCache::mark`]: an entry with
    /// a lower ordinal was cached before it.
    mark: u64,
    /// Hits since the last mark on entries cached before it.
    reused: u64,
}

/// One solved `(query, explanation)` pair.
#[derive(Debug)]
struct Cached {
    /// Predicate signature ([`pair_sig`]).
    sig: u64,
    /// How many misses preceded this one.
    ordinal: u64,
    result: Option<Match>,
}

impl ConsistencyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached [`find_onto_match`], deriving the query key from `q`.
    pub fn find_onto_match(
        &mut self,
        ont: &Ontology,
        q: &SimpleQuery,
        ex: &Explanation,
    ) -> Option<&Match> {
        self.find_onto_match_keyed(query_key(q), explanation_key(ex), ont, q, ex)
    }

    /// Cached [`find_onto_match`] with a precomputed [`query_key`] and
    /// [`explanation_key`] (hot paths that already hold them, e.g. union
    /// branches checked against every explanation of a run). The keys
    /// must be those of `q` and `ex`. A hit lends the cached match out
    /// instead of copying it.
    pub fn find_onto_match_keyed(
        &mut self,
        qkey: u64,
        xkey: u64,
        ont: &Ontology,
        q: &SimpleQuery,
        ex: &Explanation,
    ) -> Option<&Match> {
        self.lookups += 1;
        let cached = match self.map.entry((qkey, xkey)) {
            Entry::Occupied(hit) => {
                self.hits += 1;
                crate::metrics::add_consistency_lookup(true);
                let hit = hit.into_mut();
                self.reused += u64::from(hit.ordinal < self.mark);
                hit
            }
            Entry::Vacant(miss) => {
                crate::metrics::add_consistency_lookup(false);
                miss.insert(Cached {
                    sig: pair_sig(ont, q, ex),
                    ordinal: self.lookups - self.hits - 1,
                    result: find_onto_match(ont, q, ex),
                })
            }
        };
        cached.result.as_ref()
    }

    /// Starts counting [`ConsistencyCache::reused`] afresh: from now on
    /// it counts the hits on entries cached before this call — e.g. the
    /// disequality lookups of a session start that inference's onto
    /// matches answer.
    pub fn mark(&mut self) {
        self.mark = self.misses();
        self.reused = 0;
    }

    /// Hits since the last [`ConsistencyCache::mark`] on entries cached
    /// before it (0 before any mark).
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Drops exactly the entries a live ontology update can have
    /// changed, keeping the rest warm.
    ///
    /// * When the update kept edge ids stable (insert-only), an entry
    ///   survives iff its predicate signature is disjoint from
    ///   [`DeltaSummary::pred_sig`]: its explanation subgraph is
    ///   untouched and the matcher's candidate ordering reads only the
    ///   statistics of its own predicates, so the memoized search is
    ///   bit-identical on the new version.
    /// * When the update deleted triples, up to that many surviving
    ///   edges moved into the freed ids, and the `explanation_key` side
    ///   of every key — a hash over [`questpro_graph::EdgeId`]s — may
    ///   alias a different subgraph on the new version, so the whole
    ///   cache is dropped.
    ///
    /// Returns the number of entries evicted.
    pub fn invalidate_delta(&mut self, summary: &DeltaSummary) -> usize {
        let before = self.map.len();
        if summary.edge_ids_stable {
            let sig = summary.pred_sig;
            self.map.retain(|_, c| c.sig & sig == 0);
        } else {
            self.map.clear();
        }
        before - self.map.len()
    }

    /// Cached [`consistent_with_explanation`].
    pub fn consistent(&mut self, ont: &Ontology, q: &SimpleQuery, ex: &Explanation) -> bool {
        self.find_onto_match(ont, q, ex).is_some()
    }

    /// Total lookups since construction.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to run the matcher.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// `hits / lookups`, or 0 when never used.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Number of distinct `(query, explanation)` pairs solved.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache has solved no pair yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_graph::ExampleSet;
    use questpro_query::fixtures::{erdos_q1, erdos_q2};

    /// Figure 1 of the paper, E1 and E2: Alice's and Dave's chains.
    fn world() -> (Ontology, Explanation, Explanation) {
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
            ("paper5", "Dave"),
            ("paper5", "Eve"),
        ] {
            b.edge(p, "wb", a).unwrap();
        }
        let o = b.build();
        let e1 = Explanation::from_triples(
            &o,
            &[
                ("paper1", "wb", "Alice"),
                ("paper1", "wb", "Bob"),
                ("paper2", "wb", "Bob"),
                ("paper2", "wb", "Carol"),
                ("paper3", "wb", "Carol"),
                ("paper3", "wb", "Erdos"),
            ],
            "Alice",
        )
        .unwrap();
        // Dave's chain: Dave -p5- Eve ... shorter: use the Dave–Erdos
        // chain of length 1 for a contrasting shape.
        let e2 = Explanation::from_triples(
            &o,
            &[("paper4", "wb", "Dave"), ("paper4", "wb", "Erdos")],
            "Dave",
        )
        .unwrap();
        (o, e1, e2)
    }

    #[test]
    fn q1_is_consistent_with_the_full_chain() {
        let (o, e1, _) = world();
        assert!(consistent_with_explanation(&o, &erdos_q1(), &e1));
    }

    #[test]
    fn q1_is_not_consistent_with_a_shorter_chain() {
        // Q1 has 6 edges; E2 has 2 — an onto match exists only if Q1 can
        // fold onto the 2-edge graph while hitting the distinguished
        // node. Folding ?p1=?p2=?p3=paper4 works only if each edge of Q1
        // maps to an edge of E2 — possible! But ?a1 must be Dave and the
        // chain alternation must hold. Verify what the checker says and
        // that it agrees with a brute-force expectation.
        let (o, _, e2) = world();
        // Q1 CAN fold: a1=Dave, a2=Erdos (paper1=paper4), a3=Dave, …
        // Both edges of E2 are then covered, so Q1 is consistent with E2.
        assert!(consistent_with_explanation(&o, &erdos_q1(), &e2));
    }

    #[test]
    fn q2_disjoint_edges_is_consistent_with_both() {
        // Proposition 3.1's trivial query: 6 disjoint wb edges. Onto E1
        // (6 edges): yes. Onto E2 (2 edges): also yes, by folding.
        let (o, e1, e2) = world();
        assert!(consistent_with_explanation(&o, &erdos_q2(), &e1));
        assert!(consistent_with_explanation(&o, &erdos_q2(), &e2));
    }

    #[test]
    fn projection_must_hit_the_distinguished_node() {
        let (o, e1, _) = world();
        // Same pattern as a 1-edge query but projected on the paper —
        // papers are never the distinguished author node of E1.
        let mut b = SimpleQuery::builder();
        let p = b.var("p");
        let a = b.var("a");
        b.edge(p, "wb", a).project(p);
        let q = b.build().unwrap();
        assert!(!consistent_with_explanation(&o, &q, &e1));
    }

    #[test]
    fn under_covering_queries_are_rejected() {
        let (o, e1, _) = world();
        // A 1-edge query cannot cover E1's 6 edges.
        let mut b = SimpleQuery::builder();
        let p = b.var("p");
        let a = b.var("a");
        b.edge(p, "wb", a).project(a);
        let q = b.build().unwrap();
        assert!(!consistent_with_explanation(&o, &q, &e1));
    }

    #[test]
    fn constants_in_query_must_appear_in_explanation() {
        let (o, _, e2) = world();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let eve = b.constant("Eve");
        b.edge(p, "wb", x).edge(p, "wb", eve).project(x);
        let q = b.build().unwrap();
        // Eve is not in E2, so no match into E2 exists.
        assert!(!consistent_with_explanation(&o, &q, &e2));
    }

    #[test]
    fn union_consistency_requires_every_explanation_covered() {
        let (o, e1, e2) = world();
        let examples = ExampleSet::from_explanations(vec![e1.clone(), e2.clone()]);
        // Branch tailored to E2 only.
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let e = b.constant("Erdos");
        b.edge(p, "wb", x).edge(p, "wb", e).project(x);
        let q_short = b.build().unwrap();
        let only_short = UnionQuery::single(q_short.clone());
        assert!(!consistent_with_examples(&o, &only_short, &examples));
        let both = UnionQuery::new(vec![q_short, erdos_q1()]).unwrap();
        assert!(consistent_with_examples(&o, &both, &examples));
    }

    #[test]
    fn trivial_union_is_always_consistent() {
        let (o, e1, e2) = world();
        let examples = ExampleSet::from_explanations(vec![e1, e2]);
        let trivial = UnionQuery::trivial(&o, &examples).unwrap();
        assert!(consistent_with_examples(&o, &trivial, &examples));
    }

    #[test]
    fn onto_match_exposes_variable_assignments() {
        let (o, e1, _) = world();
        let q = erdos_q1();
        let m = find_onto_match(&o, &q, &e1).expect("Q1 onto E1");
        let a1 = q.node_of_var("a1").unwrap();
        let a4 = q.node_of_var("a4").unwrap();
        assert_eq!(o.value_str(m.node_image(a1).unwrap()), "Alice");
        assert_eq!(o.value_str(m.node_image(a4).unwrap()), "Erdos");
    }

    #[test]
    fn cache_agrees_with_uncached_and_counts_hits() {
        let (o, e1, e2) = world();
        let mut cache = ConsistencyCache::new();
        for q in [erdos_q1(), erdos_q2()] {
            for ex in [&e1, &e2] {
                assert_eq!(
                    cache.find_onto_match(&o, &q, ex).cloned(),
                    find_onto_match(&o, &q, ex)
                );
            }
        }
        assert_eq!(cache.lookups(), 4);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 4);
        // Second pass: all hits, same answers.
        for q in [erdos_q1(), erdos_q2()] {
            for ex in [&e1, &e2] {
                assert_eq!(
                    cache.consistent(&o, &q, ex),
                    find_onto_match(&o, &q, ex).is_some()
                );
            }
        }
        assert_eq!(cache.lookups(), 8);
        assert_eq!(cache.hits(), 4);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn renamed_queries_share_an_entry() {
        let (o, _, e2) = world();
        let coauthor = |x: &str, p: &str, y: &str| {
            let mut b = SimpleQuery::builder();
            let (x, p, y) = (b.var(x), b.var(p), b.var(y));
            b.edge(p, "wb", x).edge(p, "wb", y).project(x);
            b.build().unwrap()
        };
        let (q, renamed) = (coauthor("x", "p", "y"), coauthor("a", "paper", "b"));
        assert_eq!(query_key(&q), query_key(&renamed));
        let mut cache = ConsistencyCache::new();
        let first = cache.find_onto_match(&o, &q, &e2).cloned();
        assert!(first.is_some());
        assert_eq!(cache.find_onto_match(&o, &renamed, &e2).cloned(), first);
        assert_eq!((cache.lookups(), cache.hits(), cache.len()), (2, 1, 1));
    }

    #[test]
    fn reused_counts_hits_on_entries_cached_before_the_mark() {
        let (o, e1, e2) = world();
        let mut cache = ConsistencyCache::new();
        cache.consistent(&o, &erdos_q1(), &e1);
        cache.consistent(&o, &erdos_q1(), &e1);
        assert_eq!(cache.reused(), 0, "nothing is older than no mark");
        cache.mark();
        cache.consistent(&o, &erdos_q1(), &e1);
        cache.consistent(&o, &erdos_q2(), &e2);
        cache.consistent(&o, &erdos_q2(), &e2);
        cache.consistent(&o, &erdos_q1(), &e1);
        // Two hits on the entry from before the mark, one on the new one.
        assert_eq!((cache.hits(), cache.reused()), (4, 2));
        cache.mark();
        assert_eq!(cache.reused(), 0);
        cache.consistent(&o, &erdos_q2(), &e2);
        assert_eq!(cache.reused(), 1);
    }

    #[test]
    fn invalidate_delta_keeps_disjoint_predicates_warm() {
        use questpro_graph::TripleDelta;
        let mut b = Ontology::builder();
        b.edge("paper1", "wb", "Alice").unwrap();
        b.edge("paper1", "cites", "paper2").unwrap();
        b.edge("paper2", "wb", "Bob").unwrap();
        let o = b.build();
        let ex_wb = Explanation::from_triples(&o, &[("paper1", "wb", "Alice")], "Alice").unwrap();
        let ex_cites =
            Explanation::from_triples(&o, &[("paper1", "cites", "paper2")], "paper2").unwrap();
        let mut qb = SimpleQuery::builder();
        let (p, a) = (qb.var("p"), qb.var("a"));
        qb.edge(p, "wb", a).project(a);
        let q_wb = qb.build().unwrap();
        let mut qb = SimpleQuery::builder();
        let (p, c) = (qb.var("p"), qb.var("c"));
        qb.edge(p, "cites", c).project(c);
        let q_cites = qb.build().unwrap();

        let mut cache = ConsistencyCache::new();
        assert!(cache.consistent(&o, &q_wb, &ex_wb));
        assert!(cache.consistent(&o, &q_cites, &ex_cites));
        assert_eq!(cache.len(), 2);

        // Insert-only delta touching only `cites`: the wb entry must
        // stay warm, the cites entry must go.
        let delta = TripleDelta {
            inserts: vec![[
                "paper2".to_string(),
                "cites".to_string(),
                "paper3".to_string(),
            ]],
            deletes: vec![],
        };
        let (next, summary) = o.apply_delta(&delta).unwrap();
        assert!(summary.edge_ids_stable);
        assert_eq!(cache.invalidate_delta(&summary), 1);
        assert_eq!(cache.len(), 1);

        // The surviving entry answers from cache and agrees with a
        // fresh search on the updated version.
        let hits_before = cache.hits();
        assert_eq!(
            cache.find_onto_match(&next, &q_wb, &ex_wb).cloned(),
            find_onto_match(&next, &q_wb, &ex_wb)
        );
        assert_eq!(cache.hits(), hits_before + 1, "wb entry must stay warm");
        // The evicted pair recomputes against the new version.
        assert!(cache.consistent(&next, &q_cites, &ex_cites));
    }

    #[test]
    fn deletes_clear_the_whole_cache() {
        use questpro_graph::TripleDelta;
        let (o, e1, e2) = world();
        let mut cache = ConsistencyCache::new();
        cache.consistent(&o, &erdos_q1(), &e1);
        cache.consistent(&o, &erdos_q2(), &e2);
        assert_eq!(cache.len(), 2);
        // Deleting any triple can move edge ids, so explanation keys
        // (hashes over edge ids) may alias: everything must go, even
        // though the deleted predicate is the only one in the world.
        let delta = TripleDelta {
            inserts: vec![],
            deletes: vec![["paper5".to_string(), "wb".to_string(), "Eve".to_string()]],
        };
        let (_, summary) = o.apply_delta(&delta).unwrap();
        assert!(!summary.edge_ids_stable);
        assert_eq!(cache.invalidate_delta(&summary), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn unknown_query_predicates_invalidate_on_any_delta() {
        use questpro_graph::TripleDelta;
        let (o, e1, _) = world();
        // A query using a predicate the ontology has never seen: its
        // signature cannot name a bit, so it must pin to every delta —
        // a later update could introduce the predicate.
        let mut b = SimpleQuery::builder();
        let (p, a) = (b.var("p"), b.var("a"));
        b.edge(p, "reviewedBy", a).project(a);
        let q = b.build().unwrap();
        let mut cache = ConsistencyCache::new();
        assert!(!cache.consistent(&o, &q, &e1));
        let delta = TripleDelta {
            inserts: vec![[
                "paper9".to_string(),
                "reviewedBy".to_string(),
                "Eve".to_string(),
            ]],
            deletes: vec![],
        };
        let (next, summary) = o.apply_delta(&delta).unwrap();
        assert_eq!(cache.invalidate_delta(&summary), 1, "pinned entry goes");
        // And the recomputed answer reflects the new predicate.
        let ex =
            Explanation::from_triples(&next, &[("paper9", "reviewedBy", "Eve")], "Eve").unwrap();
        assert!(cache.consistent(&next, &q, &ex));
    }

    #[test]
    fn single_node_explanation_needs_edge_free_query() {
        let (o, _, _) = world();
        let ex = Explanation::from_edges(&o, [], "Alice").unwrap();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        b.project(x);
        let q = b.build().unwrap();
        assert!(consistent_with_explanation(&o, &q, &ex));
        // Any query with an edge cannot map into an edge-less subgraph.
        assert!(!consistent_with_explanation(&o, &erdos_q1(), &ex));
    }
}
