//! Query evaluation: result sets and provenance (Definitions 2.2–2.4).
//!
//! Result-set evaluation is *result-anchored*: instead of enumerating all
//! homomorphisms (whose count can be exponential in the pattern size), we
//! enumerate candidate images of the projected node and run an
//! existence-check for each. Candidates come from a semi-join domain
//! pass over the required edges: every constant seeds its node's domain
//! with the one node holding its value, and domains spread along the
//! required edges through the per-node predicate slices. A query
//! anchored by a constant anywhere in its pattern therefore checks only
//! the handful of nodes reachable from that constant. A constant-free
//! query falls back to the projected node's cheapest incident predicate
//! pool, and the pass never scans more index entries than that pool
//! holds (DESIGN.md §9, "Candidate domains").
//!
//! Provenance evaluation enumerates homomorphisms for a *bound* result
//! only (the paper's Section V optimization: run differences without
//! provenance, then bind one result and track provenance just for it).

use std::collections::{BTreeSet, VecDeque};

use questpro_graph::rng::{IteratorRandom, Rng, SliceRandom};
use questpro_graph::{NodeId, Ontology, PredId, Subgraph};
use questpro_query::{SimpleQuery, UnionQuery};

use crate::matcher::Matcher;
use crate::par::map_chunked;

/// Candidate images of the projected node, sorted and distinct: a
/// superset of `Q(O)` (only **required** edges constrain results).
///
/// Every homomorphism maps each required edge onto an ontology edge, so
/// the nodes one edge away from a node's possible images are a superset
/// of its neighbour's possible images. The pass seeds each constant with
/// its own node and walks outward from the seeds, relaxing each required
/// edge once, in either direction: the far endpoint's domain becomes
/// (or is intersected with) the near endpoint's neighbours. Every domain
/// therefore stays a superset of the node's images, and an empty domain
/// proves the query has no match.
///
/// Work cap: no domain may grow past the projected node's cheapest
/// incident pool (the whole node table when it has no required edge).
/// The first relaxation that would read more index entries than that
/// stops the pass, keeping the domains reached so far; the pass reads at
/// most one pool per required edge. The projected node's domain, when
/// one was reached, is the candidate set; otherwise — the unseeded case
/// — the cheapest pool's endpoints are.
fn projected_candidates(ont: &Ontology, q: &SimpleQuery) -> Vec<NodeId> {
    let mut edges: Vec<(usize, PredId, usize)> = Vec::new();
    for e in q.edges().iter().filter(|e| !e.optional) {
        let Some(p) = ont.pred_by_name(&e.pred) else {
            return Vec::new();
        };
        edges.push((e.src.index(), p, e.dst.index()));
    }
    let mut domains: Vec<Option<Vec<NodeId>>> = vec![None; q.node_count()];
    let mut queue = VecDeque::new();
    for n in q.node_ids() {
        if let Some(value) = q.label(n).as_const() {
            let Some(v) = ont.node_by_value(value) else {
                return Vec::new();
            };
            domains[n.index()] = Some(vec![v]);
            queue.push_back(n.index());
        }
    }
    let proj = q.projected().index();
    let pool = edges
        .iter()
        .filter(|&&(s, _, d)| s == proj || d == proj)
        .min_by_key(|&&(_, p, _)| ont.edges_with_pred(p).len());
    let cap = pool.map_or(ont.node_count(), |&(_, p, _)| ont.edges_with_pred(p).len());
    let mut relaxed = vec![false; edges.len()];
    'propagate: while let Some(n) = queue.pop_front() {
        for (i, &(s, p, d)) in edges.iter().enumerate() {
            let (m, forward) = match (s == n, d == n) {
                (true, false) => (d, true),
                (false, true) => (s, false),
                _ => continue,
            };
            if std::mem::replace(&mut relaxed[i], true) {
                continue;
            }
            let from = domains[n].as_deref().expect("queued nodes have a domain");
            let Some(image) = neighbours(ont, from, p, forward, cap) else {
                break 'propagate;
            };
            let dom = match domains[m].take() {
                Some(mut dom) => {
                    dom.retain(|v| image.binary_search(v).is_ok());
                    dom
                }
                None => {
                    queue.push_back(m);
                    image
                }
            };
            if dom.is_empty() {
                return Vec::new();
            }
            domains[m] = Some(dom);
        }
    }
    if let Some(dom) = domains[proj].take() {
        return dom;
    }
    let Some(&(s, p, _)) = pool else {
        return ont.node_ids().collect();
    };
    let mut cands: Vec<NodeId> = ont
        .edges_with_pred(p)
        .iter()
        .map(|&te| {
            let e = ont.edge(te);
            if s == proj {
                e.src
            } else {
                e.dst
            }
        })
        .collect();
    cands.sort_unstable();
    cands.dedup();
    cands
}

/// The nodes one `p`-edge away from `from` (along the edge when
/// `forward`, against it otherwise), sorted and distinct; `None` when
/// that reads more than `cap` index entries.
fn neighbours(
    ont: &Ontology,
    from: &[NodeId],
    p: PredId,
    forward: bool,
    cap: usize,
) -> Option<Vec<NodeId>> {
    let mut out = Vec::new();
    for &v in from {
        let hop = if forward {
            ont.out_edges_with_pred(v, p)
        } else {
            ont.in_edges_with_pred(v, p)
        };
        if out.len() + hop.len() > cap {
            return None;
        }
        out.extend(hop.iter().map(|&te| {
            let e = ont.edge(te);
            if forward {
                e.dst
            } else {
                e.src
            }
        }));
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

/// Evaluates a simple query: the set of nodes `Q(O)`.
///
/// ```
/// use questpro_engine::{evaluate, provenance_of};
/// use questpro_graph::Ontology;
/// use questpro_query::SimpleQuery;
///
/// let mut b = Ontology::builder();
/// b.edge("paper3", "wb", "Carol")?;
/// b.edge("paper3", "wb", "Erdos")?;
/// let ont = b.build();
/// let mut qb = SimpleQuery::builder();
/// let x = qb.var("x");
/// let p = qb.var("p");
/// let e = qb.constant("Erdos");
/// qb.edge(p, "wb", x).edge(p, "wb", e).project(x);
/// let q = qb.build().unwrap();
///
/// let results = evaluate(&ont, &q);
/// let carol = ont.node_by_value("Carol").unwrap();
/// assert!(results.contains(&carol));
/// // Why Carol? The paper3 co-authorship, as a provenance graph.
/// let images = provenance_of(&ont, &q, carol, None);
/// assert_eq!(images.len(), 1);
/// assert!(images[0].describe(&ont).contains("paper3 -wb-> Erdos"));
/// # Ok::<(), questpro_graph::GraphError>(())
/// ```
pub fn evaluate(ont: &Ontology, q: &SimpleQuery) -> BTreeSet<NodeId> {
    evaluate_with(ont, q, 1)
}

/// [`evaluate`] with the per-candidate existence checks spread over up
/// to `threads` scoped workers. The result is a set, and every check is
/// independent, so the output is identical for every thread count.
pub fn evaluate_with(ont: &Ontology, q: &SimpleQuery, threads: usize) -> BTreeSet<NodeId> {
    evaluate_counted(ont, q, threads).0
}

/// [`evaluate_with`] plus the number of candidates it checked (one
/// existence check each).
fn evaluate_counted(ont: &Ontology, q: &SimpleQuery, threads: usize) -> (BTreeSet<NodeId>, usize) {
    // Result sets are determined by the required pattern; skipping the
    // OPTIONAL extension phase makes the existence checks cheaper.
    // Diseqs may couple the projected node to the rest of the pattern,
    // so every candidate is bound and checked, even when the projected
    // node has no required edge.
    let cands = projected_candidates(ont, q);
    let hits = map_chunked(&cands, threads, |&v| {
        Matcher::new(ont, q)
            .bind(q.projected(), v)
            .skip_optionals()
            .exists()
    });
    let checked = cands.len();
    let results = cands
        .into_iter()
        .zip(hits)
        .filter_map(|(v, hit)| hit.then_some(v))
        .collect();
    (results, checked)
}

/// Evaluates a union query: `q1(O) ∪ … ∪ qn(O)`.
pub fn evaluate_union(ont: &Ontology, q: &UnionQuery) -> BTreeSet<NodeId> {
    evaluate_union_with(ont, q, 1)
}

/// [`evaluate_union`] with branches evaluated concurrently (a union is
/// a set union of independent branch evaluations, so the output is
/// identical for every thread count). A single-branch union falls back
/// to per-candidate parallelism instead.
pub fn evaluate_union_with(ont: &Ontology, q: &UnionQuery, threads: usize) -> BTreeSet<NodeId> {
    // Spans stay on the calling thread: the per-branch workers below
    // record nothing, so the trace shape is thread-count invariant.
    let _t = questpro_trace::span("engine.evaluate_union");
    let branches = q.branches();
    let (out, candidates) = if branches.len() == 1 {
        evaluate_counted(ont, &branches[0], threads)
    } else {
        let per_branch = map_chunked(branches, threads, |b| evaluate_counted(ont, b, 1));
        let mut out = BTreeSet::new();
        let mut candidates = 0;
        for (set, checked) in per_branch {
            out.extend(set);
            candidates += checked;
        }
        (out, candidates)
    };
    questpro_trace::add("branches", branches.len() as u64);
    questpro_trace::add("candidates", candidates as u64);
    questpro_trace::add("results", out.len() as u64);
    if questpro_log::enabled(questpro_log::Level::Trace) {
        questpro_log::emit(
            questpro_log::Level::Trace,
            "engine.eval",
            "union query evaluated",
            vec![
                ("branches", branches.len().into()),
                ("candidates", candidates.into()),
                ("results", out.len().into()),
                ("threads", threads.into()),
            ],
        );
    }
    out
}

/// Whether the query has at least one match (i.e. a non-empty result).
pub fn exists_match(ont: &Ontology, q: &SimpleQuery) -> bool {
    Matcher::new(ont, q).exists()
}

/// The provenance of `res` w.r.t. a simple query: all distinct match
/// images `μ(Q)` with `μ(projected) = res` (Def. 2.4), up to `limit`
/// graphs if given.
pub fn provenance_of(
    ont: &Ontology,
    q: &SimpleQuery,
    res: NodeId,
    limit: Option<usize>,
) -> Vec<Subgraph> {
    provenance_of_with(ont, q, res, limit, 1)
}

/// [`provenance_of`] with the match enumeration sharded over up to
/// `threads` workers ([`Matcher::parallel`]). The `limit`-truncated
/// image set equals the sequential one for every thread count: shards
/// are contiguous slices of the enumeration, merged in order.
pub fn provenance_of_with(
    ont: &Ontology,
    q: &SimpleQuery,
    res: NodeId,
    limit: Option<usize>,
    threads: usize,
) -> Vec<Subgraph> {
    let mut images = Matcher::new(ont, q)
        .bind(q.projected(), res)
        .parallel(threads)
        .images(limit);
    // Public contract (and the sequential implementation before
    // sharding): images come back in canonical sorted order.
    images.sort();
    images
}

/// The provenance of `res` w.r.t. a union query: the union of its
/// provenance sets over all branches that produce `res` (Section II-B).
pub fn provenance_of_union(
    ont: &Ontology,
    q: &UnionQuery,
    res: NodeId,
    limit: Option<usize>,
) -> Vec<Subgraph> {
    provenance_of_union_with(ont, q, res, limit, 1)
}

/// [`provenance_of_union`] with each branch's enumeration sharded over
/// up to `threads` workers (branches stay sequential so the early exit
/// at `limit` keeps its left-to-right semantics).
pub fn provenance_of_union_with(
    ont: &Ontology,
    q: &UnionQuery,
    res: NodeId,
    limit: Option<usize>,
    threads: usize,
) -> Vec<Subgraph> {
    let _t = questpro_trace::span("engine.provenance_union");
    let mut images: BTreeSet<Subgraph> = BTreeSet::new();
    'branches: for branch in q.branches() {
        for g in provenance_of_with(ont, branch, res, limit, threads) {
            images.insert(g);
            if let Some(l) = limit {
                if images.len() >= l {
                    break 'branches;
                }
            }
        }
    }
    questpro_trace::add("images", images.len() as u64);
    images.into_iter().collect()
}

/// Samples one `(result, provenance-graph)` pair of a simple query — the
/// generative model of the paper's automatic experiments, where sampled
/// results with their provenance serve as explanations.
///
/// Returns `None` when the query has no results. The provenance graph is
/// drawn uniformly from the first `prov_limit` distinct images of the
/// chosen result.
pub fn sample_result_with_provenance<R: Rng>(
    ont: &Ontology,
    q: &SimpleQuery,
    rng: &mut R,
    prov_limit: usize,
) -> Option<(NodeId, Subgraph)> {
    let results = evaluate(ont, q);
    let res = results.into_iter().choose(rng)?;
    let images = provenance_of(ont, q, res, Some(prov_limit.max(1)));
    let img = images.into_iter().choose(rng)?;
    Some((res, img))
}

/// Samples an example-set for a (hidden) target union query: the
/// generative model of the paper's automatic experiments (Section VI-B),
/// where each explanation is a sampled result together with one of its
/// provenance graphs.
///
/// Results are drawn without replacement while possible (then with
/// replacement), so up to `count` *distinct* output examples are used.
/// Returns fewer explanations (possibly zero) when the query has fewer
/// results.
pub fn sample_example_set<R: Rng>(
    ont: &Ontology,
    target: &UnionQuery,
    count: usize,
    rng: &mut R,
    prov_limit: usize,
) -> questpro_graph::ExampleSet {
    let _t = questpro_trace::span("engine.sample_examples");
    let results: Vec<NodeId> = evaluate_union(ont, target).into_iter().collect();
    let mut order: Vec<NodeId> = results.clone();
    order.shuffle(rng);
    let mut set = questpro_graph::ExampleSet::new();
    let max_attempts = count.saturating_mul(4).max(4);
    let mut attempt = 0usize;
    while set.len() < count && !order.is_empty() && attempt < max_attempts {
        let res = if attempt < order.len() {
            order[attempt]
        } else {
            // With replacement once distinct results are exhausted.
            order[rng.random_range(0..order.len())]
        };
        attempt += 1;
        let imgs = provenance_of_union(ont, target, res, Some(prov_limit.max(1)));
        let Some(img) = imgs.into_iter().choose(rng) else {
            continue;
        };
        let ex = questpro_graph::Explanation::new(img, res)
            .expect("a provenance image always contains its result node");
        set.push(ex);
    }
    questpro_trace::add("examples", set.len() as u64);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_graph::rng::StdRng;
    use questpro_query::fixtures::{erdos_q1, erdos_q2};

    /// Figure 1's four-explanation world: two 2-chains and two 3-chains
    /// to Erdős (shapes simplified but structurally faithful).
    fn ontology() -> Ontology {
        let mut b = Ontology::builder();
        for (p, a) in [
            // E1: Alice -p1- Bob -p2- Carol -p3- Erdos
            ("paper1", "Alice"),
            ("paper1", "Bob"),
            ("paper2", "Bob"),
            ("paper2", "Carol"),
            ("paper3", "Carol"),
            ("paper3", "Erdos"),
            // E2: Dave -p4- Erdos (a 1-chain, used for contrast)
            ("paper4", "Dave"),
            ("paper4", "Erdos"),
        ] {
            b.edge(p, "wb", a).unwrap();
        }
        b.build()
    }

    #[test]
    fn evaluate_returns_distinct_results() {
        let o = ontology();
        let q = erdos_q1();
        let res = evaluate(&o, &q);
        // Every author and paper participating as a1 of some chain.
        assert!(!res.is_empty());
        let names: Vec<_> = res.iter().map(|&n| o.value_str(n)).collect();
        assert!(names.contains(&"Alice"));
    }

    #[test]
    fn union_evaluation_is_set_union() {
        let o = ontology();
        let u = UnionQuery::new(vec![erdos_q1(), erdos_q2()]).unwrap();
        let a = evaluate(&o, &erdos_q1());
        let b = evaluate(&o, &erdos_q2());
        let both = evaluate_union(&o, &u);
        assert!(a.is_subset(&both));
        assert!(b.is_subset(&both));
        assert_eq!(both.len(), a.union(&b).count());
    }

    #[test]
    fn provenance_images_are_distinct_subgraphs() {
        let o = ontology();
        let mut b = SimpleQuery::builder();
        let a = b.var("a");
        let p = b.var("p");
        let erdos = b.constant("Erdos");
        b.edge(p, "wb", a).edge(p, "wb", erdos).project(a);
        let q = b.build().unwrap();
        let carol = o.node_by_value("Carol").unwrap();
        let imgs = provenance_of(&o, &q, carol, None);
        assert_eq!(imgs.len(), 1);
        let img = &imgs[0];
        assert_eq!(img.edge_count(), 2); // paper3's two wb edges
        assert!(img.describe(&o).contains("paper3 -wb-> Carol"));
    }

    #[test]
    fn provenance_respects_limit() {
        let o = ontology();
        let q = erdos_q2(); // six disjoint edges — many images
        let alice = o.node_by_value("Alice").unwrap();
        let imgs = provenance_of(&o, &q, alice, Some(3));
        assert!(imgs.len() <= 3);
        assert!(!imgs.is_empty());
    }

    #[test]
    fn provenance_of_missing_result_is_empty() {
        let o = ontology();
        let q = erdos_q1();
        let paper1 = o.node_by_value("paper1").unwrap();
        // A paper is never the image of ?a1 (targets of wb).
        assert!(provenance_of(&o, &q, paper1, None).is_empty());
    }

    #[test]
    fn union_provenance_merges_branch_images() {
        let o = ontology();
        // Branch A: authors of paper4; Branch B: co-authors of Erdos.
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p4 = b.constant("paper4");
        b.edge(p4, "wb", x).project(x);
        let qa = b.build().unwrap();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let e = b.constant("Erdos");
        b.edge(p, "wb", x).edge(p, "wb", e).project(x);
        let qb = b.build().unwrap();
        let u = UnionQuery::new(vec![qa, qb]).unwrap();
        let dave = o.node_by_value("Dave").unwrap();
        let imgs = provenance_of_union(&o, &u, dave, None);
        // Dave via branch A (1 edge) and via branch B (2 edges of paper4).
        assert_eq!(imgs.len(), 2);
    }

    #[test]
    fn sampling_is_deterministic_under_a_seed() {
        let o = ontology();
        let q = erdos_q1();
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let s1 = sample_result_with_provenance(&o, &q, &mut r1, 8);
        let s2 = sample_result_with_provenance(&o, &q, &mut r2, 8);
        assert_eq!(s1, s2);
        assert!(s1.is_some());
    }

    #[test]
    fn sampling_empty_query_returns_none() {
        let o = ontology();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let ghost = b.constant("Ghost");
        b.edge(ghost, "wb", x).project(x);
        let q = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_result_with_provenance(&o, &q, &mut rng, 4).is_none());
    }

    #[test]
    fn isolated_projected_query_returns_all_nodes() {
        let o = ontology();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        b.project(x);
        let q = b.build().unwrap();
        assert_eq!(evaluate(&o, &q).len(), o.node_count());
    }

    /// A co-authorship world: `papers` papers, each with two distinct
    /// creators drawn from `authors` authors.
    fn coauthor_world(authors: usize, papers: usize) -> Ontology {
        let mut rng = StdRng::seed_from_u64(13);
        let mut b = Ontology::builder();
        for p in 0..papers {
            let a1 = rng.random_range(0..authors);
            let a2 = (a1 + rng.random_range(1..authors)) % authors;
            for a in [a1, a2] {
                b.edge_idempotent(&format!("paper{p}"), "creator", &format!("author{a}"));
            }
        }
        b.build()
    }

    #[test]
    fn anchor_query_checks_only_the_anchors_coauthors() {
        let o = coauthor_world(400, 3000);
        let creator = o.pred_by_name("creator").unwrap();
        let anchor = o.node_by_value("author7").unwrap();
        let coauthors: BTreeSet<NodeId> = o
            .in_edges_with_pred(anchor, creator)
            .iter()
            .flat_map(|&te| o.out_edges_with_pred(o.edge(te).src, creator))
            .map(|&te| o.edge(te).dst)
            .collect();
        let pool = o.edges_with_pred(creator).len();
        assert!(coauthors.len() * 20 < pool, "the anchor must be selective");

        // ?p :creator ?x . ?p :creator :author7
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let a = b.constant("author7");
        b.edge(p, "creator", x).edge(p, "creator", a).project(x);
        let q = b.build().unwrap();
        let cands = projected_candidates(&o, &q);
        assert_eq!(cands, coauthors.iter().copied().collect::<Vec<_>>());
        assert_eq!(evaluate(&o, &q), coauthors);
        // One existence check per co-author, not one per creator edge.
        // Tests in this binary run concurrently and bump the same
        // process-wide counter, so take the least delta of a few runs.
        let checks = (0..50)
            .map(|_| {
                let before = crate::metrics::searches_total();
                evaluate(&o, &q);
                crate::metrics::searches_total() - before
            })
            .min()
            .unwrap();
        assert_eq!(checks, coauthors.len() as u64);
    }

    #[test]
    fn constant_free_query_takes_the_cheapest_one_hop_pool() {
        let mut b = Ontology::builder();
        for i in 0..3 {
            b.edge(&format!("x{i}"), "a", &format!("y{i}")).unwrap();
        }
        for i in 0..40 {
            b.edge(&format!("z{i}"), "b", &format!("x{}", i % 5))
                .unwrap();
        }
        let o = b.build();
        let mut qb = SimpleQuery::builder();
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        qb.edge(x, "a", y).edge(z, "b", x).project(x);
        let q = qb.build().unwrap();
        let a = o.pred_by_name("a").unwrap();
        let mut pool: Vec<NodeId> = o
            .edges_with_pred(a)
            .iter()
            .map(|&te| o.edge(te).src)
            .collect();
        pool.sort_unstable();
        assert_eq!(projected_candidates(&o, &q), pool);
        assert_eq!(evaluate(&o, &q).len(), 3);
    }

    #[test]
    fn propagation_stops_at_the_pool_size_work_cap() {
        // `hub` has 30 incoming `b` edges; the projected node's `a` pool
        // holds 3, so spreading from the constant would read more index
        // entries than the pool and the pass keeps the pool instead.
        let mut b = Ontology::builder();
        for i in 0..3 {
            b.edge(&format!("x{i}"), "a", &format!("y{i}")).unwrap();
        }
        for i in 0..30 {
            b.edge(&format!("x{i}"), "b", "hub").unwrap();
        }
        let o = b.build();
        let mut qb = SimpleQuery::builder();
        let x = qb.var("x");
        let y = qb.var("y");
        let hub = qb.constant("hub");
        qb.edge(x, "a", y).edge(x, "b", hub).project(x);
        let q = qb.build().unwrap();
        assert_eq!(projected_candidates(&o, &q).len(), 3);
        assert_eq!(evaluate(&o, &q).len(), 3);
    }

    #[test]
    fn constants_two_hops_away_seed_the_projected_domain() {
        // ?x is a co-author of a co-author ?y of Erdos.
        let o = ontology();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let y = b.var("y");
        let p2 = b.var("p2");
        let e = b.constant("Erdos");
        b.edge(p, "wb", x)
            .edge(p, "wb", y)
            .edge(p2, "wb", y)
            .edge(p2, "wb", e)
            .project(x);
        let q = b.build().unwrap();
        let names = |ns: &[NodeId]| ns.iter().map(|&n| o.value_str(n)).collect::<Vec<_>>();
        let cands = projected_candidates(&o, &q);
        // Authors within two co-authorships of Erdos: everyone but Alice.
        let mut got = names(&cands);
        got.sort_unstable();
        assert_eq!(got, ["Bob", "Carol", "Dave", "Erdos"]);
        let results: Vec<NodeId> = evaluate(&o, &q).into_iter().collect();
        assert_eq!(results, cands);
    }

    #[test]
    fn unknown_constant_or_predicate_gives_no_candidates() {
        let o = ontology();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let ghost = b.constant("Ghost");
        b.edge(p, "wb", x).edge(p, "wb", ghost).project(x);
        assert!(projected_candidates(&o, &b.build().unwrap()).is_empty());
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        b.edge(p, "wb", x).edge(p, "nope", x).project(x);
        assert!(projected_candidates(&o, &b.build().unwrap()).is_empty());
    }
}
