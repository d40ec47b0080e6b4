//! Top-k beam-search variant of Algorithm 2 (end of Section IV).
//!
//! Instead of committing to the single best merge at each round, the
//! beam keeps the `k` lowest-cost candidate states. The first round
//! expands the initial state into its top-k merge successors; every
//! subsequent round expands each beam state into its top-k successors
//! (up to `k²` candidates), pools them with the surviving parents — the
//! paper's Example 4.4 explicitly keeps the un-mergeable
//! `Union({Q4,E1,E3})` around — deduplicates up to isomorphism, and
//! keeps the `k` cheapest. The loop stops when a round adds nothing new.
//!
//! As the paper notes, this is still a heuristic: filtering to top-k at
//! every round does not guarantee the global top-k (the `k = 1` case is
//! already NP-hard).

use std::sync::Arc;

use questpro_engine::{metrics, ConsistencyCache};
use questpro_graph::{ExampleSet, Ontology};
use questpro_query::iso::shaped_union_isomorphic;
use questpro_query::{GeneralizationWeights, SimpleQuery, UnionQuery};

use crate::greedy::GreedyConfig;
use crate::stats::InferenceStats;
use crate::union::{
    apply_merge, branches_cost, initial_branches, keyed_examples, merge_candidates,
    union_consistent_cached, Branch, MergeCache,
};

/// Configuration of the top-k inference.
#[derive(Debug, Clone, Copy)]
pub struct TopKConfig {
    /// Beam width / number of queries to return.
    pub k: usize,
    /// Weights of the generalization cost function `f`.
    pub weights: GeneralizationWeights,
    /// Configuration of the inner Algorithm 1 runs.
    pub greedy: GreedyConfig,
    /// Worker threads for the `MergeBestTwo` pair scans (1 = sequential;
    /// results and stats are identical at every value).
    pub threads: usize,
}

impl Default for TopKConfig {
    fn default() -> Self {
        Self {
            k: 3,
            weights: GeneralizationWeights::default(),
            greedy: GreedyConfig::default(),
            threads: 1,
        }
    }
}

/// A beam state: a branch list and the values its comparisons read.
/// The `UnionQuery` is assembled only for the states the run returns.
struct State {
    branches: Vec<Branch>,
    cost: f64,
    /// Sorted multiset of branch shape hashes. Shape hashes are
    /// isomorphism-invariant, so unequal fingerprints mean the states
    /// cannot be union-isomorphic.
    fingerprint: Vec<u64>,
    /// Branch indexes sorted by `(key_hash, key)`: equal states list
    /// equal canonical keys in this order.
    by_key: Vec<usize>,
    /// Whether this state has already been expanded in a previous round.
    expanded: bool,
}

fn make_state(branches: Vec<Branch>, w: GeneralizationWeights) -> State {
    let cost = branches_cost(&branches, w);
    let mut fingerprint: Vec<u64> = branches.iter().map(|b| b.shape).collect();
    fingerprint.sort_unstable();
    let mut by_key: Vec<usize> = (0..branches.len()).collect();
    by_key.sort_unstable_by(|&x, &y| {
        let (a, b) = (&branches[x], &branches[y]);
        (a.key_hash, &*a.key).cmp(&(b.key_hash, &*b.key))
    });
    State {
        branches,
        cost,
        fingerprint,
        by_key,
        expanded: false,
    }
}

impl State {
    /// Whether the two states are isomorphic unions — exactly
    /// `union_isomorphic` on their assembled queries — settled from
    /// memoized values where possible: unequal shape fingerprints rule
    /// isomorphism out; equal canonical-key multisets mean the unions
    /// are identical up to variable names; only states that pass the
    /// first test and fail the second run the branch isomorphism
    /// search, pairing branches by their memoized shapes.
    fn isomorphic(&self, other: &State) -> bool {
        if self.fingerprint != other.fingerprint {
            return false;
        }
        let same_keys = self.by_key.iter().zip(&other.by_key).all(|(&x, &y)| {
            let (a, b) = (&self.branches[x], &other.branches[y]);
            a.key_hash == b.key_hash && (Arc::ptr_eq(&a.key, &b.key) || a.key == b.key)
        });
        if same_keys {
            return true;
        }
        fn shaped(s: &State) -> Vec<(&SimpleQuery, u64)> {
            s.branches.iter().map(|b| (&*b.query, b.shape)).collect()
        }
        shaped_union_isomorphic(&shaped(self), &shaped(other))
    }

    /// The state's union, its branches in state order.
    fn query(&self) -> UnionQuery {
        UnionQuery::new(
            self.branches
                .iter()
                .map(|b| b.query.as_ref().clone())
                .collect(),
        )
        .expect("states always have at least one branch")
    }
}

/// Runs the top-k inference, returning up to `k` candidate union queries
/// ranked by ascending generalization cost, plus instrumentation.
///
/// Every returned query is consistent with the example-set.
///
/// ```
/// use questpro_core::{infer_top_k, TopKConfig};
/// use questpro_graph::{ExampleSet, Explanation, Ontology};
///
/// let mut b = Ontology::builder();
/// b.edge("paper3", "wb", "Carol")?;
/// b.edge("paper3", "wb", "Erdos")?;
/// b.edge("paper4", "wb", "Dave")?;
/// b.edge("paper4", "wb", "Erdos")?;
/// let ont = b.build();
/// let e1 = Explanation::from_triples(
///     &ont, &[("paper3", "wb", "Carol"), ("paper3", "wb", "Erdos")], "Carol")?;
/// let e2 = Explanation::from_triples(
///     &ont, &[("paper4", "wb", "Dave"), ("paper4", "wb", "Erdos")], "Dave")?;
/// let examples = ExampleSet::from_explanations(vec![e1, e2]);
///
/// let (candidates, stats) = infer_top_k(&ont, &examples, &TopKConfig::default());
/// assert!(!candidates.is_empty());
/// assert!(stats.algorithm1_calls > 0);
/// // The best candidate fuses both explanations into one pattern.
/// assert_eq!(candidates[0].len(), 1);
/// # Ok::<(), questpro_graph::GraphError>(())
/// ```
pub fn infer_top_k(
    ont: &Ontology,
    examples: &ExampleSet,
    cfg: &TopKConfig,
) -> (Vec<UnionQuery>, InferenceStats) {
    infer_top_k_cached(ont, examples, cfg, &mut ConsistencyCache::new())
}

/// [`infer_top_k`] on a caller's [`ConsistencyCache`]: the onto matches
/// that verify the beam states stay in it, so a caller that goes on to
/// infer the candidates' disequalities (`with_all_diseqs_cached`) finds
/// them instead of searching again. The stats count this run's lookups
/// only; on a fresh cache they equal [`infer_top_k`]'s.
pub fn infer_top_k_cached(
    ont: &Ontology,
    examples: &ExampleSet,
    cfg: &TopKConfig,
    ccache: &mut ConsistencyCache,
) -> (Vec<UnionQuery>, InferenceStats) {
    assert!(cfg.k >= 1, "k must be at least 1");
    assert!(!examples.is_empty(), "example-set must be non-empty");
    let t_span = questpro_trace::span("infer.topk");
    let t_total = std::time::Instant::now();
    let nodes0 = metrics::nodes_expanded();
    let mut stats = InferenceStats::default();
    let mut cache = MergeCache::default();
    let (lookups0, hits0) = (ccache.lookups(), ccache.hits());
    let keyed = keyed_examples(examples);
    let mut beam: Vec<State> = vec![make_state(initial_branches(ont, examples), cfg.weights)];

    // Each merge reduces a state's branch count by one, so chains of
    // merges are bounded by the number of explanations.
    for _round in 0..=examples.len() {
        let _r = questpro_trace::span("infer.round");
        stats.rounds += 1;
        let mut pool: Vec<State> = Vec::new();
        let mut any_new = false;
        let mut successors: Vec<State> = Vec::new();
        for state in &mut beam {
            if state.expanded || state.branches.len() == 1 {
                continue;
            }
            state.expanded = true;
            stats.states_examined += 1;
            let candidates = merge_candidates(
                &state.branches,
                &cfg.greedy,
                cfg.k,
                cfg.threads,
                &mut stats,
                &mut cache,
            );
            for cand in candidates {
                let next = apply_merge(&state.branches, &cand);
                successors.push(make_state(next, cfg.weights));
            }
        }
        pool.append(&mut beam);
        for s in successors {
            if !pool.iter().any(|p| p.isomorphic(&s)) {
                // Re-verify the admitted successor (memoized: beam states
                // share most branches across rounds, so almost every
                // lookup after round one is a cache hit).
                let t_c = std::time::Instant::now();
                let c_span = questpro_trace::span("infer.consistency");
                let ok = union_consistent_cached(ont, &s.branches, &keyed, ccache);
                drop(c_span);
                stats.consistency_nanos += t_c.elapsed().as_nanos();
                assert!(
                    ok,
                    "successor state must stay consistent with the example-set"
                );
                stats.merges_applied += 1;
                any_new = true;
                pool.push(s);
            }
        }
        pool.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"));
        pool.truncate(cfg.k);
        beam = pool;
        if !any_new {
            break;
        }
    }

    let queries = beam.iter().map(State::query).collect();
    stats.consistency_checks = (ccache.lookups() - lookups0) as usize;
    stats.consistency_cache_hits = (ccache.hits() - hits0) as usize;
    stats.matcher_nodes_expanded = metrics::nodes_expanded().wrapping_sub(nodes0);
    stats.total_nanos = t_total.elapsed().as_nanos();
    crate::stats::record_global(&stats);
    questpro_trace::add("rounds", stats.rounds as u64);
    questpro_trace::add("algorithm1_calls", stats.algorithm1_calls as u64);
    questpro_trace::add("consistency_checks", stats.consistency_checks as u64);
    drop(t_span);
    if questpro_log::enabled(questpro_log::Level::Debug) {
        questpro_log::emit(
            questpro_log::Level::Debug,
            "core.topk",
            "top-k inference finished",
            vec![
                ("k", cfg.k.into()),
                ("rounds", stats.rounds.into()),
                ("algorithm1_calls", stats.algorithm1_calls.into()),
                ("states_examined", stats.states_examined.into()),
                ("consistency_checks", stats.consistency_checks.into()),
                ("total_ns", (stats.total_nanos as u64).into()),
            ],
        );
    }
    (queries, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_engine::consistent_with_examples;
    use questpro_graph::Explanation;
    use questpro_query::iso::union_isomorphic;

    /// The four Figure 1 explanations (as in `union::tests`).
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
            ("paper5", "Felix"),
            ("paper5", "Gina"),
            ("paper6", "Gina"),
            ("paper6", "Hank"),
            ("paper7", "Hank"),
            ("paper7", "Erdos"),
        ] {
            b.edge(p, "wb", a).unwrap();
        }
        let o = b.build();
        let chain3 = |p1: &str, a1: &str, a2: &str, p2: &str, a3: &str, p3: &str, a4: &str| {
            Explanation::from_triples(
                &o,
                &[
                    (p1, "wb", a1),
                    (p1, "wb", a2),
                    (p2, "wb", a2),
                    (p2, "wb", a3),
                    (p3, "wb", a3),
                    (p3, "wb", a4),
                ],
                a1,
            )
            .unwrap()
        };
        let chain1 = |p: &str, a: &str| {
            Explanation::from_triples(&o, &[(p, "wb", a), (p, "wb", "Erdos")], a).unwrap()
        };
        let e1 = chain3(
            "paper1", "Alice", "Bob", "paper2", "Carol", "paper3", "Erdos",
        );
        let e2 = chain1("paper3", "Carol");
        let e3 = chain1("paper4", "Dave");
        let e4 = chain3(
            "paper5", "Felix", "Gina", "paper6", "Hank", "paper7", "Erdos",
        );
        (o, ExampleSet::from_explanations(vec![e1, e2, e3, e4]))
    }

    #[test]
    fn returns_at_most_k_distinct_consistent_queries() {
        let (o, examples) = world();
        let cfg = TopKConfig {
            k: 3,
            weights: GeneralizationWeights::example_4_4(),
            ..Default::default()
        };
        let (queries, stats) = infer_top_k(&o, &examples, &cfg);
        assert!(!queries.is_empty());
        assert!(queries.len() <= 3);
        for q in &queries {
            assert!(consistent_with_examples(&o, q, &examples));
        }
        // No two returned queries are isomorphic.
        for i in 0..queries.len() {
            for j in (i + 1)..queries.len() {
                assert!(!union_isomorphic(&queries[i], &queries[j]));
            }
        }
        assert!(stats.algorithm1_calls > 0);
    }

    #[test]
    fn results_are_sorted_by_cost() {
        let (o, examples) = world();
        let cfg = TopKConfig {
            k: 4,
            weights: GeneralizationWeights::example_4_4(),
            ..Default::default()
        };
        let (queries, _) = infer_top_k(&o, &examples, &cfg);
        let costs: Vec<f64> = queries.iter().map(|q| q.cost(cfg.weights)).collect();
        for w in costs.windows(2) {
            assert!(w[0] <= w[1], "costs must be ascending: {costs:?}");
        }
    }

    #[test]
    fn k1_matches_algorithm_2_cost_or_better() {
        use crate::union::{find_consistent_union, UnionConfig};
        let (o, examples) = world();
        let weights = GeneralizationWeights::example_4_3();
        let (single, _) = find_consistent_union(
            &o,
            &examples,
            &UnionConfig {
                weights,
                ..Default::default()
            },
        );
        let (top1, _) = infer_top_k(
            &o,
            &examples,
            &TopKConfig {
                k: 1,
                weights,
                ..Default::default()
            },
        );
        assert!(top1[0].cost(weights) <= single.cost(weights));
    }

    #[test]
    fn larger_k_examines_more_intermediate_queries() {
        let (o, examples) = world();
        let weights = GeneralizationWeights::example_4_4();
        let calls_for = |k: usize| {
            let (_, stats) = infer_top_k(
                &o,
                &examples,
                &TopKConfig {
                    k,
                    weights,
                    ..Default::default()
                },
            );
            stats.algorithm1_calls
        };
        // The Figure 6c/6d trend: more candidates with larger k
        // (monotone here because expansion work only grows with beam
        // width on this fixture).
        assert!(calls_for(5) >= calls_for(1));
    }

    #[test]
    fn threads_do_not_change_beam_or_stats() {
        let (o, examples) = world();
        let base = TopKConfig {
            k: 4,
            weights: GeneralizationWeights::example_4_4(),
            ..Default::default()
        };
        let (q1, s1) = infer_top_k(&o, &examples, &base);
        for threads in [2, 8] {
            let cfg = TopKConfig { threads, ..base };
            let (qn, sn) = infer_top_k(&o, &examples, &cfg);
            let render = |qs: &[UnionQuery]| qs.iter().map(|q| q.to_string()).collect::<Vec<_>>();
            assert_eq!(render(&qn), render(&q1));
            assert_eq!(sn, s1, "stats must be thread-count invariant");
        }
        assert!(s1.consistency_checks > 0);
        assert!(
            s1.consistency_cache_hits > 0,
            "beam states share branches, so the consistency cache must hit"
        );
    }

    #[test]
    fn beam_keeps_unmergeable_parents() {
        // With one explanation the initial state is terminal and must be
        // returned as-is.
        let (o, examples) = world();
        let one = ExampleSet::from_explanations(vec![examples.explanations()[0].clone()]);
        let (queries, _) = infer_top_k(&o, &one, &TopKConfig::default());
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].len(), 1);
        assert_eq!(queries[0].total_vars(), 0);
    }

    /// `q` with its nodes declared in reverse order and its edges
    /// reversed: isomorphic to `q`, but with another canonical key
    /// whenever the order shows in it.
    fn reordered(q: &SimpleQuery) -> SimpleQuery {
        use questpro_query::{NodeLabel, QueryNodeId};
        let mut b = SimpleQuery::builder();
        let mut map = vec![None; q.node_count()];
        for n in (0..q.node_count()).rev().map(QueryNodeId::from_index) {
            map[n.index()] = Some(match q.label(n) {
                NodeLabel::Const(c) => b.constant(c),
                NodeLabel::Var(v) => b.var(v),
            });
        }
        let id = |n: QueryNodeId| map[n.index()].expect("every node declared");
        for e in q.edges().iter().rev() {
            if e.optional {
                b.optional_edge(id(e.src), &e.pred, id(e.dst));
            } else {
                b.edge(id(e.src), &e.pred, id(e.dst));
            }
        }
        for &(x, y) in q.diseqs() {
            b.diseq(id(x), id(y));
        }
        b.project(id(q.projected()));
        b.build().expect("a reordering of a valid query is valid")
    }

    fn sorted_keys(s: &State) -> Vec<&str> {
        let mut keys: Vec<&str> = s.branches.iter().map(|b| &*b.key).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn dedup_decision_is_union_isomorphism() {
        use questpro_data::{
            bsbm_workload, generate_bsbm, generate_movies, generate_sp2b, movie_workload,
            sp2b_workload, BsbmConfig, MoviesConfig, Sp2bConfig,
        };
        use questpro_graph::rng::{Rng, StdRng};
        let worlds = [
            (generate_sp2b(&Sp2bConfig::default()), sp2b_workload()),
            (generate_bsbm(&BsbmConfig::default()), bsbm_workload()),
            (generate_movies(&MoviesConfig::default()), movie_workload()),
        ];
        let cfg = TopKConfig::default();
        let mut rng = StdRng::seed_from_u64(0xdd0b);
        let (mut pairs, mut by_keys, mut by_search) = (0usize, 0usize, 0usize);
        for (ont, catalog) in &worlds {
            for target in catalog {
                let examples = loop {
                    let count = rng.random_range(2..=7usize);
                    let ex =
                        questpro_engine::sample_example_set(ont, &target.query, count, &mut rng, 6);
                    if ex.len() >= 2 {
                        break ex;
                    }
                };
                // Every successor the beam's rounds generate, before any
                // dedup, plus a copy of each with one branch reordered.
                let mut stats = InferenceStats::default();
                let mut cache = MergeCache::default();
                let mut states = vec![make_state(initial_branches(ont, &examples), cfg.weights)];
                let mut frontier = 0;
                while frontier < states.len() && states.len() < 40 {
                    let branches = states[frontier].branches.clone();
                    frontier += 1;
                    if branches.len() == 1 {
                        continue;
                    }
                    let merges =
                        merge_candidates(&branches, &cfg.greedy, cfg.k, 1, &mut stats, &mut cache);
                    for m in merges {
                        let next = apply_merge(&branches, &m);
                        let mut twin = next.clone();
                        let last = twin.len() - 1;
                        twin[last] = Branch::from_query(reordered(&twin[last].query));
                        states.push(make_state(next, cfg.weights));
                        states.push(make_state(twin, cfg.weights));
                    }
                }
                let queries: Vec<UnionQuery> = states.iter().map(State::query).collect();
                for i in 0..states.len() {
                    for j in 0..states.len() {
                        let (a, b) = (&states[i], &states[j]);
                        let want = union_isomorphic(&queries[i], &queries[j]);
                        assert_eq!(
                            a.isomorphic(b),
                            want,
                            "{}: states {i} and {j} ({} / {})",
                            target.id,
                            queries[i],
                            queries[j]
                        );
                        pairs += 1;
                        if want {
                            if sorted_keys(a) == sorted_keys(b) {
                                by_keys += 1;
                            } else {
                                by_search += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(pairs > 10_000, "only {pairs} state pairs compared");
        assert!(by_keys > pairs / 100, "{by_keys} key-settled duplicates");
        assert!(by_search > 100, "{by_search} search-settled duplicates");
    }
}
