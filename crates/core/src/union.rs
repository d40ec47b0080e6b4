//! Algorithm 2: `FindConsistentUnion` (Section IV).
//!
//! Starts from the trivial over-fit union — one constants-only branch per
//! explanation — and repeatedly merges the two branches whose merged
//! query has the fewest variables (`MergeBestTwo`), as long as the
//! generalization cost `f(Q) = w1·Σvars + w2·|Q|` (Def. 4.1) keeps
//! decreasing.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use questpro_engine::consistency::explanation_key;
use questpro_engine::par::map_stealing;
use questpro_engine::{merge_pair_cost, metrics, ConsistencyCache};
use questpro_graph::fxhash::{fx_hash_one, FxHashMap, FxHashSet};
use questpro_graph::{ExampleSet, Explanation, Ontology};
use questpro_query::{GeneralizationWeights, SimpleQuery, UnionQuery};

use crate::greedy::{merge_pair, GreedyConfig};
use crate::pattern::PatternGraph;
use crate::stats::InferenceStats;

/// Configuration of Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct UnionConfig {
    /// Weights of the generalization cost function `f`.
    pub weights: GeneralizationWeights,
    /// Configuration of the inner Algorithm 1 runs.
    pub greedy: GreedyConfig,
    /// Worker threads for the `MergeBestTwo` pair scan (1 = sequential;
    /// results and stats are identical at every value).
    pub threads: usize,
}

impl Default for UnionConfig {
    fn default() -> Self {
        Self {
            weights: GeneralizationWeights::default(),
            greedy: GreedyConfig::default(),
            threads: 1,
        }
    }
}

/// One branch of the evolving union: the query, its pattern graph, and
/// a canonical key used for merge- and consistency-caching.
///
/// The key is [`SimpleQuery::canonical_key`]: α-invariant, with the
/// disequality pairs. Branches that differ only in variable *names*
/// share a key, which is sound for both caches: `merge_pair` sees only
/// the pattern graphs, and an onto match records images by node and
/// edge index. Its hash is [`questpro_engine::consistency::query_key`],
/// so a session's `Q^all` derivation finds inference's onto matches.
#[derive(Debug, Clone)]
pub(crate) struct Branch {
    pub(crate) graph: Arc<PatternGraph>,
    pub(crate) query: Arc<SimpleQuery>,
    pub(crate) key: Arc<str>,
    /// `fx_hash_one(&*key)`, memoized: consistency-cache lookups happen
    /// per (branch, example) every round and must not re-hash the key.
    pub(crate) key_hash: u64,
    /// `query.shape_hash()`, memoized for the beam's state fingerprints
    /// and its isomorphism checks.
    pub(crate) shape: u64,
    /// `query.generalization_vars()`, memoized for state costs and the
    /// merge ranking.
    pub(crate) vars: usize,
}

impl Branch {
    pub(crate) fn from_query(query: SimpleQuery) -> Self {
        let graph = PatternGraph::from_query(&query);
        let key: Arc<str> = query.canonical_key().into();
        let key_hash = fx_hash_one(&*key);
        let shape = query.shape_hash();
        let vars = query.generalization_vars();
        Self {
            graph: Arc::new(graph),
            query: Arc::new(query),
            key,
            key_hash,
            shape,
            vars,
        }
    }
}

/// Merge-cache key of an unordered branch pair: the two canonical keys,
/// ordered by `(key_hash, key)`, and one hash combining the two
/// memoized `key_hash`es. Hashing writes only that `u64`; equality
/// compares the hash, then each key by pointer and, failing that, by
/// text, so the cache stays exact and no lookup re-hashes a key text.
#[derive(Debug, Clone)]
struct BranchPairKey {
    hash: u64,
    lo: Arc<str>,
    hi: Arc<str>,
}

impl BranchPairKey {
    fn new(a: &Branch, b: &Branch) -> Self {
        let (lo, hi) = if (a.key_hash, &*a.key) <= (b.key_hash, &*b.key) {
            (a, b)
        } else {
            (b, a)
        };
        Self {
            hash: fx_hash_one(&(lo.key_hash, hi.key_hash)),
            lo: lo.key.clone(),
            hi: hi.key.clone(),
        }
    }
}

impl Hash for BranchPairKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for BranchPairKey {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &Arc<str>, b: &Arc<str>| Arc::ptr_eq(a, b) || a == b;
        self.hash == other.hash && same(&self.lo, &other.lo) && same(&self.hi, &other.hi)
    }
}

impl Eq for BranchPairKey {}

/// Cached outcome: the merged query as a finished [`Branch`] and its
/// gain, or `None` for unmergeable pairs. Storing the branch means a
/// successor state shares the pattern graph, query and key of every
/// earlier state that applied the same merge instead of rebuilding them.
type CachedMerge = Option<(Branch, f64)>;

/// Memo of pairwise Algorithm 1 outcomes across MergeBestTwo rounds:
/// the branch pool barely changes between rounds (one merge replaces
/// two branches), so most pairs recur. Failures are cached too. Cache
/// hits still count as "intermediate queries considered" in the stats,
/// preserving the Figure 6 metric. Keyed by [`BranchPairKey`].
///
/// Live-update note: unlike `ConsistencyCache`, these entries survive
/// any ontology delta. `merge_pair` is a pure function of the two
/// pattern graphs and the greedy config — it never reads the ontology —
/// so a cached merge (query, gain) is identical on every ontology
/// version and needs no predicate-signature invalidation.
#[derive(Debug, Default)]
pub(crate) struct MergeCache {
    map: FxHashMap<BranchPairKey, CachedMerge>,
    /// Every key ever installed, kept even if `map` were to evict: lets
    /// the accounting pass split misses into *true* (first computation)
    /// and *capacity* (eviction re-compute) in the stats.
    ever: FxHashSet<BranchPairKey>,
}

/// The generalization cost of a set of branches.
pub(crate) fn branches_cost(branches: &[Branch], w: GeneralizationWeights) -> f64 {
    let vars: usize = branches.iter().map(|b| b.vars).sum();
    w.cost(vars, branches.len())
}

/// The initial state: one trivial constants-only branch per explanation.
pub(crate) fn initial_branches(ont: &Ontology, examples: &ExampleSet) -> Vec<Branch> {
    examples
        .iter()
        .map(|ex| Branch::from_query(SimpleQuery::from_explanation(ont, ex)))
        .collect()
}

/// Result of a `MergeBestTwo` scan: the best pair and its merged branch.
pub(crate) struct BestMerge {
    pub(crate) i: usize,
    pub(crate) j: usize,
    pub(crate) branch: Branch,
}

/// Scans all branch pairs with Algorithm 1 and returns the candidates
/// sorted best-first (fewest merged-query variables, then highest gain),
/// up to `take` of them. Increments `stats.algorithm1_calls` per pair.
///
/// The pairwise merges are independent, so cache misses run on up to
/// `threads` scoped workers through the cost-aware work-stealing
/// scheduler ([`map_stealing`], items sized by [`merge_pair_cost`]), so
/// one oversized pair cannot serialize the batch. Accounting is done in
/// a sequential pass over the pairs in `i < j` order *before*
/// dispatching, so `algorithm1_calls` and the cache counters are
/// bit-identical to the sequential scan at every thread count: a pair
/// whose key is already cached — or whose key first occurred earlier in
/// this same scan — is a hit; the first occurrence of a missing key is
/// the one miss (split into true vs. capacity misses in the stats).
pub(crate) fn merge_candidates(
    branches: &[Branch],
    cfg: &GreedyConfig,
    take: usize,
    threads: usize,
    stats: &mut InferenceStats,
    cache: &mut MergeCache,
) -> Vec<BestMerge> {
    // Opened on the calling thread; the `map_stealing` workers below
    // record nothing, so the span structure is thread-count invariant.
    let _t = questpro_trace::span("infer.merge_candidates");
    let t0 = std::time::Instant::now();
    let mut pairs: Vec<(usize, usize, BranchPairKey)> = Vec::new();
    for i in 0..branches.len() {
        for j in (i + 1)..branches.len() {
            pairs.push((i, j, BranchPairKey::new(&branches[i], &branches[j])));
        }
    }
    questpro_trace::add("pairs", pairs.len() as u64);
    // Sequential accounting pass + work-list of distinct missing keys.
    let mut scheduled: FxHashSet<&BranchPairKey> = Default::default();
    let mut missing: Vec<&(usize, usize, BranchPairKey)> = Vec::new();
    for pair in &pairs {
        let key = &pair.2;
        stats.algorithm1_calls += 1;
        if cache.map.contains_key(key) || scheduled.contains(key) {
            stats.merge_cache_hits += 1;
        } else {
            if cache.ever.contains(key) {
                stats.merge_cache_capacity_misses += 1;
            } else {
                stats.merge_cache_true_misses += 1;
            }
            scheduled.insert(key);
            missing.push(pair);
        }
    }
    // Solve the misses (possibly in parallel; `merge_pair` is a pure
    // deterministic function) and install them in scan order. Work items
    // are cost-sized by the graphs' edge counts and stolen by idle
    // workers; results land in indexed slots, so the outcome vector is
    // identical at every thread count.
    let outcomes = {
        let _d = questpro_trace::span("infer.merge_dispatch");
        map_stealing(
            &missing,
            |k| {
                let (i, j, _) = *missing[k];
                merge_pair_cost(
                    branches[i].graph.edge_count(),
                    branches[j].graph.edge_count(),
                )
            },
            threads,
            |&&(i, j, _)| {
                merge_pair(&branches[i].graph, &branches[j].graph, cfg)
                    .map(|o| (Branch::from_query(o.query), o.gain))
            },
        )
    };
    for ((_, _, key), outcome) in missing.iter().zip(outcomes) {
        cache.ever.insert(key.clone());
        cache.map.insert(key.clone(), outcome);
    }
    // Collect results in pair order, exactly as the sequential scan did.
    // Branches are cloned (`Arc` bumps) only for the `take` survivors,
    // after the sort.
    let mut all: Vec<(&Branch, f64, usize, usize)> = Vec::new();
    for (i, j, key) in &pairs {
        if let Some(Some((branch, gain))) = cache.map.get(key) {
            all.push((branch, *gain, *i, *j));
        }
    }
    all.sort_by(|a, b| {
        a.0.vars
            .cmp(&b.0.vars)
            .then(b.1.partial_cmp(&a.1).expect("finite gains"))
    });
    let picked = all
        .into_iter()
        .take(take)
        .map(|(branch, _, i, j)| BestMerge {
            i,
            j,
            branch: branch.clone(),
        })
        .collect();
    stats.merge_nanos += t0.elapsed().as_nanos();
    questpro_trace::add("cache_misses", missing.len() as u64);
    picked
}

/// The explanations of a run, each with its [`explanation_key`],
/// computed once so per-branch consistency lookups do not re-hash the
/// explanation subgraphs.
pub(crate) fn keyed_examples(examples: &ExampleSet) -> Vec<(&Explanation, u64)> {
    examples
        .iter()
        .map(|ex| (ex, explanation_key(ex)))
        .collect()
}

/// Whether every explanation is covered by at least one branch, checked
/// through the shared [`ConsistencyCache`]. Branch keys double as the
/// canonical query hashes and the explanations come with their keys
/// ([`keyed_examples`]), so no lookup re-hashes either side.
pub(crate) fn union_consistent_cached(
    ont: &Ontology,
    branches: &[Branch],
    examples: &[(&Explanation, u64)],
    cache: &mut ConsistencyCache,
) -> bool {
    examples.iter().all(|&(ex, xkey)| {
        branches.iter().any(|b| {
            cache
                .find_onto_match_keyed(b.key_hash, xkey, ont, &b.query, ex)
                .is_some()
        })
    })
}

/// Applies a merge to a branch vector, producing the successor state.
pub(crate) fn apply_merge(branches: &[Branch], m: &BestMerge) -> Vec<Branch> {
    let mut next: Vec<Branch> = Vec::with_capacity(branches.len() - 1);
    for (idx, b) in branches.iter().enumerate() {
        if idx != m.i && idx != m.j {
            next.push(b.clone());
        }
    }
    next.push(m.branch.clone());
    next
}

/// Runs Algorithm 2 on an example-set, returning the inferred union and
/// the instrumentation counters.
///
/// The result is always consistent with the example-set: the trivial
/// union is, and every applied merge preserves consistency
/// (Prop. 3.13 + the composition argument of Section III).
///
/// ```
/// use questpro_core::{find_consistent_union, UnionConfig};
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
/// let (query, _stats) = find_consistent_union(&ont, &examples, &UnionConfig::default());
/// // One branch: ?x and :Erdos share a paper.
/// assert_eq!(query.len(), 1);
/// assert!(query.to_string().contains(":Erdos"));
/// # Ok::<(), questpro_graph::GraphError>(())
/// ```
pub fn find_consistent_union(
    ont: &Ontology,
    examples: &ExampleSet,
    cfg: &UnionConfig,
) -> (UnionQuery, InferenceStats) {
    assert!(!examples.is_empty(), "example-set must be non-empty");
    let t_total = std::time::Instant::now();
    let nodes0 = metrics::nodes_expanded();
    let mut stats = InferenceStats::default();
    let mut cache = MergeCache::default();
    let mut ccache = ConsistencyCache::new();
    let keyed = keyed_examples(examples);
    let mut branches = initial_branches(ont, examples);
    let mut cost = branches_cost(&branches, cfg.weights);
    loop {
        stats.rounds += 1;
        let candidates = merge_candidates(
            &branches,
            &cfg.greedy,
            1,
            cfg.threads,
            &mut stats,
            &mut cache,
        );
        let Some(best) = candidates.into_iter().next() else {
            break;
        };
        let next = apply_merge(&branches, &best);
        let next_cost = branches_cost(&next, cfg.weights);
        if next_cost < cost {
            // Re-verify the accepted state (memoized: only the freshly
            // merged branch triggers new onto-match searches).
            let t_c = std::time::Instant::now();
            let ok = union_consistent_cached(ont, &next, &keyed, &mut ccache);
            stats.consistency_nanos += t_c.elapsed().as_nanos();
            assert!(ok, "applied merge must preserve consistency (Prop. 3.13)");
            branches = next;
            cost = next_cost;
            stats.merges_applied += 1;
        } else {
            break;
        }
    }
    let union = UnionQuery::new(
        branches
            .into_iter()
            .map(|b| Arc::try_unwrap(b.query).unwrap_or_else(|q| (*q).clone()))
            .collect(),
    )
    .expect("non-empty example-set yields non-empty union");
    stats.consistency_checks = ccache.lookups() as usize;
    stats.consistency_cache_hits = ccache.hits() as usize;
    stats.matcher_nodes_expanded = metrics::nodes_expanded().wrapping_sub(nodes0);
    stats.total_nanos = t_total.elapsed().as_nanos();
    (union, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_engine::consistent_with_examples;
    use questpro_graph::Explanation;

    /// The four explanations of Figure 1 (structurally): two 1-chains to
    /// Erdos (Carol-like, Dave-like) and two 3-chains (Alice, Felix).
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
        let e2 = Explanation::from_triples(
            &o,
            &[("paper3", "wb", "Carol"), ("paper3", "wb", "Erdos")],
            "Carol",
        )
        .unwrap();
        let e3 = Explanation::from_triples(
            &o,
            &[("paper4", "wb", "Dave"), ("paper4", "wb", "Erdos")],
            "Dave",
        )
        .unwrap();
        let e4 = Explanation::from_triples(
            &o,
            &[
                ("paper5", "wb", "Felix"),
                ("paper5", "wb", "Gina"),
                ("paper6", "wb", "Gina"),
                ("paper6", "wb", "Hank"),
                ("paper7", "wb", "Hank"),
                ("paper7", "wb", "Erdos"),
            ],
            "Felix",
        )
        .unwrap();
        (o, ExampleSet::from_explanations(vec![e1, e2, e3, e4]))
    }

    #[test]
    fn inferred_union_is_consistent() {
        let (o, examples) = world();
        let (q, stats) = find_consistent_union(&o, &examples, &UnionConfig::default());
        assert!(consistent_with_examples(&o, &q, &examples));
        assert!(stats.algorithm1_calls > 0);
        assert!(stats.rounds >= 1);
    }

    #[test]
    fn example_4_3_merges_the_two_short_chains() {
        // With w1=2, w2=5 and explanations {E1, E2, E3} the paper merges
        // the two short chains into Q3 (cost 15 → 14) and then stops
        // (merging the long chain in would cost 17).
        let (o, examples) = world();
        let three = ExampleSet::from_explanations(examples.explanations()[..3].to_vec());
        let cfg = UnionConfig {
            weights: GeneralizationWeights::example_4_3(),
            ..Default::default()
        };
        let (q, _) = find_consistent_union(&o, &three, &cfg);
        assert_eq!(q.len(), 2);
        // One branch is the merged Q3 with the Erdos constant; the other
        // is E1's trivial branch (0 extra variables).
        assert_eq!(q.total_vars(), 1);
        assert!(consistent_with_examples(&o, &q, &three));
    }

    #[test]
    fn heavy_branch_weight_forces_full_merge() {
        // With a huge w2 the algorithm merges everything into one simple
        // query (unions are expensive).
        let (o, examples) = world();
        let cfg = UnionConfig {
            weights: GeneralizationWeights::new(1.0, 1000.0),
            ..Default::default()
        };
        let (q, _) = find_consistent_union(&o, &examples, &cfg);
        assert_eq!(q.len(), 1);
        assert!(consistent_with_examples(&o, &q, &examples));
    }

    #[test]
    fn heavy_var_weight_keeps_trivial_union() {
        // With w1 enormous any variable is too expensive: stay trivial.
        let (o, examples) = world();
        let cfg = UnionConfig {
            weights: GeneralizationWeights::new(1000.0, 1.0),
            ..Default::default()
        };
        let (q, stats) = find_consistent_union(&o, &examples, &cfg);
        assert_eq!(q.len(), examples.len());
        assert_eq!(q.total_vars(), 0);
        assert_eq!(stats.merges_applied, 0);
    }

    #[test]
    fn threads_do_not_change_result_or_stats() {
        let (o, examples) = world();
        let (q1, s1) = find_consistent_union(&o, &examples, &UnionConfig::default());
        for threads in [2, 4, 8] {
            let cfg = UnionConfig {
                threads,
                ..Default::default()
            };
            let (qn, sn) = find_consistent_union(&o, &examples, &cfg);
            assert_eq!(qn.to_string(), q1.to_string());
            assert_eq!(sn, s1, "stats must be thread-count invariant");
        }
        assert!(s1.consistency_checks > 0);
        assert!(s1.total_nanos > 0);
    }

    #[test]
    fn single_explanation_yields_its_trivial_branch() {
        let (o, examples) = world();
        let one = ExampleSet::from_explanations(vec![examples.explanations()[1].clone()]);
        let (q, _) = find_consistent_union(&o, &one, &UnionConfig::default());
        assert_eq!(q.len(), 1);
        assert_eq!(q.total_vars(), 0);
        assert!(consistent_with_examples(&o, &q, &one));
    }

    #[test]
    fn branch_keys_are_the_consistency_cache_keys() {
        let (o, examples) = world();
        for ex in examples.iter() {
            let q = SimpleQuery::from_explanation(&o, ex);
            let b = Branch::from_query(q.clone());
            assert_eq!(&*b.key, q.canonical_key());
            assert_eq!(b.key_hash, questpro_engine::consistency::query_key(&q));
        }
    }
}
