//! Cross-validation of the backtracking matcher against a brute-force
//! reference: enumerate *all* node assignments naively and check edge
//! constraints last. The optimized engine must produce exactly the same
//! result sets and match counts. Driven by the workspace's internal
//! seeded RNG.

use std::collections::BTreeSet;

use questpro::prelude::*;
use questpro::query::QueryNodeId;
use questpro::rng::{Rng, SliceRandom, StdRng};

const CASES: usize = 192;

fn arb_edges<R: Rng>(rng: &mut R) -> Vec<(u8, u8, u8)> {
    arb_edges_on(rng, 6)
}

/// Random distinct edges over the nodes `n0..n{nodes - 1}`, at most 13.
fn arb_edges_on<R: Rng>(rng: &mut R, nodes: u32) -> Vec<(u8, u8, u8)> {
    let most = (2 * nodes * nodes).min(13) as usize;
    let want = rng.random_range(1..most + 1);
    let mut set = BTreeSet::new();
    // Rejection-sample distinct triples, mirroring a btree_set strategy.
    while set.len() < want {
        set.insert((
            rng.random_range(0..nodes) as u8,
            rng.random_range(0..2u32) as u8,
            rng.random_range(0..nodes) as u8,
        ));
    }
    set.into_iter().collect()
}

fn build_ontology(edges: &[(u8, u8, u8)]) -> Ontology {
    let mut b = Ontology::builder();
    for &(s, p, d) in edges {
        let pred = if p == 0 { "p" } else { "q" };
        b.edge(&format!("n{s}"), pred, &format!("n{d}"))
            .expect("unique edges");
    }
    b.build()
}

/// A small query over node slots: variables `x0..` first, then up to
/// two constants (values `n{c}`); edge endpoints index the slots modulo
/// their count. Optional edges join endpoints of required edges only,
/// so every node is required or isolated; optional-only variables come
/// from [`with_optional_leaf`].
#[derive(Debug, Clone)]
struct QuerySpec {
    nodes: usize,
    constants: Vec<u8>,
    edges: Vec<(u8, u8, u8)>,
    optionals: Vec<(u8, u8, u8)>,
    diseq: Option<(u8, u8)>,
    projected: u8,
}

/// Random edges between random slots; the projected slot may land on a
/// constant, which the query builder must reject.
fn arb_query_spec<R: Rng>(rng: &mut R) -> QuerySpec {
    let nodes = rng.random_range(2..5usize);
    let constants = (0..rng.random_range(0..3usize))
        .map(|_| rng.random_range(0..6u32) as u8)
        .collect();
    let n_edges = rng.random_range(1..5usize);
    let edges = (0..n_edges)
        .map(|_| {
            (
                rng.random_range(0..5u32) as u8,
                rng.random_range(0..2u32) as u8,
                rng.random_range(0..5u32) as u8,
            )
        })
        .collect();
    let diseq = rng.random_bool(0.5).then(|| {
        (
            rng.random_range(0..5u32) as u8,
            rng.random_range(0..5u32) as u8,
        )
    });
    let projected = rng.random_range(0..5u32) as u8;
    let mut spec = QuerySpec {
        nodes,
        constants,
        edges,
        optionals: Vec::new(),
        diseq,
        projected,
    };
    arb_optionals(rng, &mut spec);
    spec
}

/// A path from the projected `x0` to a constant two to four hops away,
/// each hop in a random direction, optionally with a second constant
/// hanging off the path and optional edges along it.
fn arb_chain_spec<R: Rng>(rng: &mut R) -> QuerySpec {
    let hops = rng.random_range(2..5usize);
    let pred = |rng: &mut R| rng.random_range(0..2u32) as u8;
    let mut edges: Vec<(u8, u8, u8)> = (0..hops as u8)
        .map(|i| {
            let p = pred(rng);
            if rng.random_bool(0.5) {
                (i, p, i + 1)
            } else {
                (i + 1, p, i)
            }
        })
        .collect();
    let mut constants = vec![rng.random_range(0..6u32) as u8];
    if rng.random_bool(0.5) {
        constants.push(rng.random_range(0..6u32) as u8);
        let at = rng.random_range(0..hops as u32) as u8;
        let p = pred(rng);
        edges.push((at, p, hops as u8 + 1));
    }
    let diseq = rng.random_bool(0.3).then(|| {
        (
            rng.random_range(0..hops as u32) as u8,
            rng.random_range(0..hops as u32) as u8,
        )
    });
    let mut spec = QuerySpec {
        nodes: hops,
        constants,
        edges,
        optionals: Vec::new(),
        diseq,
        projected: 0,
    };
    arb_optionals(rng, &mut spec);
    spec
}

/// Adds zero to two optional edges between endpoints of required edges
/// (on a chain, these run along the constant's path).
fn arb_optionals<R: Rng>(rng: &mut R, spec: &mut QuerySpec) {
    let ends: Vec<u8> = spec.edges.iter().flat_map(|&(s, _, d)| [s, d]).collect();
    for _ in 0..rng.random_range(0..3usize) {
        let s = ends[rng.random_range(0..ends.len())];
        let d = ends[rng.random_range(0..ends.len())];
        let p = rng.random_range(0..2u32) as u8;
        spec.optionals.push((s, p, d));
    }
}

/// Builds the query; `None` when the projected slot is a constant,
/// which the builder must refuse.
fn build_query(spec: &QuerySpec) -> Option<SimpleQuery> {
    let mut b = QueryBuilder::new();
    let total = spec.nodes + spec.constants.len();
    let mut ids = Vec::new();
    for i in 0..spec.nodes {
        ids.push(b.var(&format!("x{i}")));
    }
    for c in &spec.constants {
        ids.push(b.constant(&format!("n{c}")));
    }
    let pick = |i: u8| ids[i as usize % total];
    let pred = |p: u8| if p == 0 { "p" } else { "q" };
    for &(s, p, d) in &spec.edges {
        b.edge(pick(s), pred(p), pick(d));
    }
    for &(s, p, d) in &spec.optionals {
        b.optional_edge(pick(s), pred(p), pick(d));
    }
    b.project(pick(spec.projected));
    if let Some((x, y)) = spec.diseq {
        if pick(x) != pick(y) {
            b.diseq(pick(x), pick(y));
        }
    }
    let projects_constant = spec.projected as usize % total >= spec.nodes;
    let built = b.build();
    assert_eq!(
        built.is_err(),
        projects_constant,
        "a query must build exactly when it projects a variable: {spec:?}"
    );
    built.ok()
}

/// Reference semantics: try every total assignment of the bound nodes
/// (those on a required edge or on no edge) against the required edges.
/// A node only on OPTIONAL edges may stay unbound, so it is not
/// enumerated and a disequality touching it filters nothing: an optional
/// edge never filters results. Generators make such nodes variables
/// only; the matcher pre-binds constants, so an optional-only constant
/// is outside this reference.
fn brute_force(
    ont: &Ontology,
    q: &SimpleQuery,
) -> (std::collections::BTreeSet<questpro::graph::NodeId>, u64) {
    let nodes: Vec<_> = ont.node_ids().collect();
    let k = q.node_count();
    let bound: Vec<bool> = q
        .node_ids()
        .map(|n| {
            let mut touching = q.edges().iter().filter(|e| e.src == n || e.dst == n);
            touching.clone().next().is_none() || touching.any(|e| !e.optional)
        })
        .collect();
    let mut results = std::collections::BTreeSet::new();
    let mut count = 0u64;
    let mut assign = vec![0usize; k];
    'outer: loop {
        // Check the assignment.
        let ok = (0..k).filter(|&i| bound[i]).all(|i| {
            let qi = QueryNodeId::from_index(i);
            match q.label(qi).as_const() {
                Some(c) => ont.value_str(nodes[assign[i]]) == c,
                None => true,
            }
        }) && q.edges().iter().filter(|e| !e.optional).all(|e| {
            let s = nodes[assign[e.src.index()]];
            let d = nodes[assign[e.dst.index()]];
            ont.pred_by_name(&e.pred)
                .and_then(|p| ont.find_edge(s, p, d))
                .is_some()
        }) && q.diseqs().iter().all(|&(a, bnode)| {
            let (a, bnode) = (a.index(), bnode.index());
            !(bound[a] && bound[bnode]) || nodes[assign[a]] != nodes[assign[bnode]]
        });
        if ok {
            count += 1;
            results.insert(nodes[assign[q.projected().index()]]);
        }
        // Next assignment (odometer over the bound nodes).
        for slot in (0..k).rev().filter(|&i| bound[i]) {
            assign[slot] += 1;
            if assign[slot] < nodes.len() {
                continue 'outer;
            }
            assign[slot] = 0;
        }
        break;
    }
    (results, count)
}

/// The optimized matcher agrees with the brute-force reference on
/// result sets and on the number of homomorphisms of the required
/// pattern — and the sharded parallel evaluator agrees with both. Half
/// the cases are constant-anchored chains, so the candidate-domain pass
/// is checked on constants several hops from the projected node, and a
/// third carry an optional leaf whose disequality must filter nothing.
#[test]
fn matcher_matches_bruteforce() {
    let mut rng = StdRng::seed_from_u64(0xb1);
    for case in 0..CASES {
        let edges = arb_edges(&mut rng);
        let spec = if case % 2 == 0 {
            arb_query_spec(&mut rng)
        } else {
            arb_chain_spec(&mut rng)
        };
        let o = build_ontology(&edges);
        let Some(mut q) = build_query(&spec) else {
            continue;
        };
        if case % 3 == 2 {
            q = with_optional_leaf(&mut rng, &q).unwrap_or(q);
        }
        let (expected_results, expected_count) = brute_force(&o, &q);
        let got_results = evaluate(&o, &q);
        assert_eq!(
            &got_results, &expected_results,
            "result sets differ for {q}"
        );
        // Optional edges extend matches; the reference counts
        // homomorphisms of the required pattern.
        let got_count = Matcher::new(&o, &q).skip_optionals().count();
        assert_eq!(got_count, expected_count, "match counts differ for {q}");
        for threads in [2usize, 4] {
            let par = questpro::engine::evaluate_with(&o, &q, threads);
            assert_eq!(
                &par, &expected_results,
                "{threads}-thread eval differs for {q}"
            );
        }
    }
}

/// A world around a hub: `n0` takes a `p`-edge from most other nodes,
/// on top of random edges over `n0..n{nodes - 1}`.
fn hub_world<R: Rng>(rng: &mut R, nodes: u32) -> Ontology {
    let mut edges: BTreeSet<(u8, u8, u8)> = arb_edges_on(rng, nodes).into_iter().collect();
    for v in 1..nodes as u8 {
        if rng.random_bool(0.8) {
            edges.insert((v, 0, 0));
        }
    }
    build_ontology(&edges.into_iter().collect::<Vec<_>>())
}

/// A chain from the projected `x0` to a constant two to four hops away
/// ([`arb_chain_spec`]), where the constant is mostly the hub `n0` and
/// the last hop mostly one of the hub's `p` in-edges, with a
/// disequality between two of the chain's variables.
fn hub_chain_spec<R: Rng>(rng: &mut R, nodes: u32) -> QuerySpec {
    let mut spec = arb_chain_spec(rng);
    let hops = spec.nodes as u8;
    spec.constants[0] = if rng.random_bool(0.75) {
        0
    } else {
        rng.random_range(0..nodes) as u8
    };
    if rng.random_bool(2.0 / 3.0) {
        spec.edges[hops as usize - 1] = (hops - 1, 0, hops);
    }
    let a = rng.random_range(0..hops as u32) as u8;
    let b = (a + rng.random_range(1..hops as u32) as u8) % hops;
    spec.diseq = Some((a, b));
    spec
}

/// Result probes prune with every node's semi-join domain and plan
/// around a bound constant's true degree; neither may change a result.
/// Worlds carry a hub constant (many same-predicate in-edges), queries
/// reach it two to four hops from the projected node with a var–var
/// disequality, and half of them add an optional leaf. `evaluate` must
/// equal brute force at every thread count.
#[test]
fn hub_anchored_chains_match_bruteforce() {
    let mut rng = StdRng::seed_from_u64(0xe7);
    let mut nonempty = 0usize;
    for case in 0..96 {
        let nodes = rng.random_range(5..8u32);
        let o = hub_world(&mut rng, nodes);
        let spec = hub_chain_spec(&mut rng, nodes);
        let Some(mut q) = build_query(&spec) else {
            unreachable!("chains project the variable x0");
        };
        if case % 2 == 1 {
            q = with_optional_leaf(&mut rng, &q).unwrap_or(q);
        }
        let (expected, _) = brute_force(&o, &q);
        nonempty += usize::from(!expected.is_empty());
        for threads in [1usize, 2, 4] {
            let got = questpro::engine::evaluate_with(&o, &q, threads);
            assert_eq!(got, expected, "{threads}-thread eval differs for {q}");
        }
    }
    assert!(
        nonempty >= 24,
        "only {nonempty} non-empty cases: the oracle is too sparse"
    );
}

/// Hand-built shapes for the probe driver: a constant on the probed
/// node (probed at every node, constants included), disequalities that
/// touch the projected node, a projected node with no required edge,
/// unresolvable predicates and constants, self-loops and OPTIONAL edges.
fn probe_shapes() -> Vec<SimpleQuery> {
    let mut out = Vec::new();
    let mut add = |f: &dyn Fn(&mut QueryBuilder)| {
        let mut b = QueryBuilder::new();
        f(&mut b);
        out.push(b.build().expect("hand-built shape"));
    };
    // A constant next to the projected node (and probed itself).
    add(&|b| {
        let x = b.var("x");
        let c = b.constant("n0");
        b.edge(c, "p", x).project(x);
    });
    // Disequalities on the projected node: to a variable and a constant.
    add(&|b| {
        let x = b.var("x");
        let y = b.var("y");
        b.edge(x, "p", y).diseq(x, y).project(x);
    });
    add(&|b| {
        let x = b.var("x");
        let y = b.var("y");
        let c = b.constant("n1");
        b.edge(x, "q", y).edge(y, "p", c).diseq(x, c).project(x);
    });
    // A projected node on no edge, kept apart from a bound node; and one
    // whose only required edge is a self-loop, with an optional edge.
    add(&|b| {
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        b.edge(y, "p", z).diseq(x, y).project(x);
    });
    add(&|b| {
        let x = b.var("x");
        let y = b.var("y");
        b.edge(x, "p", x).optional_edge(x, "q", y).project(x);
    });
    // Self-loops further out, one of them optional.
    add(&|b| {
        let x = b.var("x");
        let y = b.var("y");
        b.edge(x, "q", y)
            .edge(y, "p", y)
            .optional_edge(x, "p", x)
            .project(x);
    });
    // Unresolvable: a required predicate, a constant, and an optional
    // predicate (which must filter nothing).
    add(&|b| {
        let x = b.var("x");
        let y = b.var("y");
        b.edge(x, "r", y).project(x);
    });
    add(&|b| {
        let x = b.var("x");
        let g = b.constant("ghost");
        b.edge(x, "p", g).project(x);
    });
    add(&|b| {
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        b.edge(x, "p", y).optional_edge(y, "r", z).project(x);
    });
    out
}

/// The probe driver ([`Matcher::anchored`]) equals one matcher per
/// candidate, `Matcher::new(..).bind(n, v).skip_optionals().exists()`,
/// at every probed node (constants included), for every thread count,
/// with and without a pre-binding, and with the OPTIONAL phase on too.
/// Candidates are every node in a shuffled order plus a repeat, so the
/// driver must keep input order. At the projected node it also equals
/// the brute-force result set.
#[test]
fn probe_driver_matches_a_matcher_per_candidate() {
    let mut rng = StdRng::seed_from_u64(0xa9);
    let shapes = probe_shapes();
    let mut hits = 0usize;
    for case in 0..CASES + shapes.len() {
        let edges = arb_edges(&mut rng);
        let o = build_ontology(&edges);
        let q = match shapes.get(case) {
            Some(q) => q.clone(),
            None => arb_query(&mut rng),
        };
        let mut cands: Vec<_> = o.node_ids().collect();
        cands.shuffle(&mut rng);
        cands.push(cands[0]);
        let pin = cands[rng.random_range(0..cands.len() as u32) as usize];
        for n in q.node_ids() {
            let other = QueryNodeId::from_index((n.index() + 1) % q.node_count());
            for skip in [true, false] {
                for pinned in [false, true] {
                    let base = || {
                        let m = Matcher::new(&o, &q);
                        let m = if skip { m.skip_optionals() } else { m };
                        if pinned {
                            m.bind(other, pin)
                        } else {
                            m
                        }
                    };
                    let expected: Vec<_> = cands
                        .iter()
                        .copied()
                        .filter(|&v| base().bind(n, v).exists())
                        .collect();
                    hits += expected.len();
                    for threads in [1usize, 2, 8] {
                        let got = base().parallel(threads).anchored(n, &cands);
                        assert_eq!(
                            got, expected,
                            "probe of node {n} differs for {q} (threads {threads}, \
                             skip_optionals {skip}, pinned {pinned})"
                        );
                    }
                }
            }
        }
        let at_projected: BTreeSet<_> = Matcher::new(&o, &q)
            .skip_optionals()
            .anchored(q.projected(), &cands)
            .into_iter()
            .collect();
        assert_eq!(
            at_projected,
            brute_force(&o, &q).0,
            "results differ for {q}"
        );
    }
    assert!(hits >= CASES, "only {hits} hits: the oracle is too sparse");
}

/// Brute-force result set of a union: the union of its branches'.
fn brute_union(ont: &Ontology, u: &UnionQuery) -> BTreeSet<questpro::graph::NodeId> {
    u.branches()
        .iter()
        .flat_map(|q| brute_force(ont, q).0)
        .collect()
}

/// A random generalization of `q`: each constant may become a fresh
/// variable, each required edge may be dropped, and each disequality may
/// be dropped. An OPTIONAL edge is kept between endpoints that stay on
/// required edges; one whose other endpoint is a variable left on no
/// required edge is kept half the time, so that variable is either
/// optional-only or isolated. The result usually contains `q`, but the
/// containment test decides.
fn generalize<R: Rng>(rng: &mut R, q: &SimpleQuery) -> Option<SimpleQuery> {
    let mut b = QueryBuilder::new();
    let mut is_const = vec![false; q.node_count()];
    let ids: Vec<QueryNodeId> = q
        .node_ids()
        .map(|n| match q.label(n).as_const() {
            Some(c) if rng.random_bool(0.6) => {
                is_const[n.index()] = true;
                b.constant(c)
            }
            _ => b.var(&format!("g{}", n.index())),
        })
        .collect();
    let mut on_required = vec![false; q.node_count()];
    for e in q.edges().iter().filter(|e| !e.optional) {
        if rng.random_bool(0.7) {
            b.edge(ids[e.src.index()], &e.pred, ids[e.dst.index()]);
            on_required[e.src.index()] = true;
            on_required[e.dst.index()] = true;
        }
    }
    for e in q.edges().iter().filter(|e| e.optional) {
        let (s, d) = (e.src.index(), e.dst.index());
        let keep = match (on_required[s], on_required[d]) {
            (true, true) => true,
            (true, false) => !is_const[d] && rng.random_bool(0.5),
            (false, true) => !is_const[s] && rng.random_bool(0.5),
            (false, false) => false,
        };
        if keep {
            b.optional_edge(ids[s], &e.pred, ids[d]);
        }
    }
    for &(x, y) in q.diseqs() {
        if rng.random_bool(0.5) {
            b.diseq(ids[x.index()], ids[y.index()]);
        }
    }
    b.project(ids[q.projected().index()]);
    b.build().ok()
}

/// `q` with one more disequality between two random nodes, at least one
/// a variable: the shape of a refinement step, where the current query
/// carries a disequality the candidate lacks.
fn with_extra_diseq<R: Rng>(rng: &mut R, q: &SimpleQuery) -> Option<SimpleQuery> {
    let n = q.node_count() as u32;
    let x = QueryNodeId::from_index(rng.random_range(0..n) as usize);
    let y = QueryNodeId::from_index(rng.random_range(0..n) as usize);
    if x == y {
        return None;
    }
    q.with_diseqs(q.diseqs().iter().copied().chain([(x, y)]))
        .ok()
}

/// `q` plus a twin of one endpoint of a random required edge: a fresh
/// variable on a copy of that edge, kept apart from the original
/// endpoint by a disequality. Without the disequality the twin folds
/// back onto the original, so only the disequality separates the two
/// queries.
fn with_twin<R: Rng>(rng: &mut R, q: &SimpleQuery) -> Option<SimpleQuery> {
    let required: Vec<_> = q.edges().iter().filter(|e| !e.optional).collect();
    if required.is_empty() {
        return None;
    }
    let (mut b, ids) = copy_of(q);
    let e = required[rng.random_range(0..required.len() as u32) as usize];
    let twin = b.var("twin");
    let (s, d) = (ids[e.src.index()], ids[e.dst.index()]);
    if rng.random_bool(0.5) {
        b.edge(s, &e.pred, twin).diseq(d, twin);
    } else {
        b.edge(twin, &e.pred, d).diseq(s, twin);
    }
    b.project(ids[q.projected().index()]);
    b.build().ok()
}

/// A builder holding a copy of `q`'s nodes, edges and disequalities
/// (not its projection), with the new id of each node of `q`.
fn copy_of(q: &SimpleQuery) -> (QueryBuilder, Vec<QueryNodeId>) {
    let mut b = QueryBuilder::new();
    let ids: Vec<QueryNodeId> = q
        .node_ids()
        .map(|n| match q.label(n).as_const() {
            Some(c) => b.constant(c),
            None => b.var(&format!("x{}", n.index())),
        })
        .collect();
    for e in q.edges() {
        let (s, d) = (ids[e.src.index()], ids[e.dst.index()]);
        if e.optional {
            b.optional_edge(s, &e.pred, d);
        } else {
            b.edge(s, &e.pred, d);
        }
    }
    for &(x, y) in q.diseqs() {
        b.diseq(ids[x.index()], ids[y.index()]);
    }
    (b, ids)
}

/// `q` plus a fresh variable reached only by an OPTIONAL edge from an
/// endpoint of a random required edge, kept apart from a random node of
/// `q` by a disequality. The variable may stay unbound, so that
/// disequality filters nothing: the shape `allow_optional` inference
/// produces.
fn with_optional_leaf<R: Rng>(rng: &mut R, q: &SimpleQuery) -> Option<SimpleQuery> {
    let ends: Vec<QueryNodeId> = q
        .edges()
        .iter()
        .filter(|e| !e.optional)
        .flat_map(|e| [e.src, e.dst])
        .collect();
    let &at = ends.choose(rng)?;
    let (mut b, ids) = copy_of(q);
    let leaf = b.var("leaf");
    let pred = if rng.random_bool(0.5) { "p" } else { "q" };
    if rng.random_bool(0.5) {
        b.optional_edge(ids[at.index()], pred, leaf);
    } else {
        b.optional_edge(leaf, pred, ids[at.index()]);
    }
    let other = rng.random_range(0..q.node_count() as u32) as usize;
    b.diseq(leaf, ids[other]);
    b.project(ids[q.projected().index()]);
    b.build().ok()
}

/// A random buildable query from either spec generator, a third of the
/// time with an optional leaf ([`with_optional_leaf`]). Specs with a
/// disequality between two constants are drawn again: the builder
/// rejects those.
fn arb_query<R: Rng>(rng: &mut R) -> SimpleQuery {
    loop {
        let spec = if rng.random_bool(0.5) {
            arb_query_spec(rng)
        } else {
            arb_chain_spec(rng)
        };
        let total = spec.nodes + spec.constants.len();
        let is_const = |slot: u8| slot as usize % total >= spec.nodes;
        if spec.diseq.is_some_and(|(x, y)| is_const(x) && is_const(y)) {
            continue;
        }
        if let Some(q) = build_query(&spec) {
            if rng.random_bool(1.0 / 3.0) {
                return with_optional_leaf(rng, &q).unwrap_or(q);
            }
            return q;
        }
    }
}

/// A pair of unions `(a, b)` where `b` mostly generalizes branches of
/// `a` or separates them with one more disequality, sometimes plus an
/// unrelated branch, so containment holds often but not always.
fn arb_union_pair<R: Rng>(rng: &mut R) -> (UnionQuery, UnionQuery) {
    let a: Vec<SimpleQuery> = (0..rng.random_range(1..3usize))
        .map(|_| arb_query(rng))
        .collect();
    let mut b: Vec<SimpleQuery> = a
        .iter()
        .filter_map(|q| match rng.random_range(0..10u32) {
            0..=5 => generalize(rng, q),
            6 | 7 => with_extra_diseq(rng, q),
            _ => with_twin(rng, q),
        })
        .collect();
    if b.is_empty() || rng.random_bool(0.3) {
        b.push(arb_query(rng));
    }
    (
        UnionQuery::new(a).expect("non-empty"),
        UnionQuery::new(b).expect("non-empty"),
    )
}

/// Whether some branch of `u` has a disequality on a node that lies
/// only on OPTIONAL edges.
fn has_optional_only_diseq(u: &UnionQuery) -> bool {
    u.branches().iter().any(|q| {
        q.diseqs().iter().any(|&(x, y)| {
            [x, y].into_iter().any(|n| {
                let mut touching = q.edges().iter().filter(|e| e.src == n || e.dst == n);
                touching.clone().next().is_some() && touching.all(|e| e.optional)
            })
        })
    })
}

/// Soundness of the containment test the feedback loop uses to skip
/// difference queries: whenever `union_contained_in(a, b)` holds, every
/// brute-force result of `a` is one of `b`, on every random ontology.
/// One world in four has one or two nodes: there an isolated variable
/// kept apart from a bound node may find no value, which is what refutes
/// certifying a disequality through one on an optional-only node.
#[test]
fn union_containment_is_sound() {
    let mut rng = StdRng::seed_from_u64(0xc0);
    let (mut held, mut nonvacuous, mut optional_only) = (0usize, 0usize, 0usize);
    for _ in 0..CASES {
        let (a, b) = arb_union_pair(&mut rng);
        for (a, b) in [(&a, &b), (&b, &a)] {
            if !questpro::engine::union_contained_in(a, b) {
                continue;
            }
            held += 1;
            optional_only += usize::from(has_optional_only_diseq(a));
            for world in 0..4 {
                let edges = if world == 0 {
                    let nodes = rng.random_range(1..3u32);
                    arb_edges_on(&mut rng, nodes)
                } else {
                    arb_edges(&mut rng)
                };
                let o = build_ontology(&edges);
                let ra = brute_union(&o, a);
                let rb = brute_union(&o, b);
                assert!(ra.is_subset(&rb), "{a} ⊑ {b} claimed, refuted on {edges:?}");
                nonvacuous += usize::from(!ra.is_empty());
            }
        }
    }
    // The oracle must actually exercise the guard.
    assert!(held >= CASES / 4, "containment held in only {held} cases");
    assert!(
        nonvacuous >= CASES / 8,
        "only {nonvacuous} non-empty checks"
    );
    assert!(
        optional_only >= CASES / 16,
        "only {optional_only} contained sides with an optional-only disequality"
    );
}

/// Witness sampling, with and without the static guard: a sampled
/// witness lies in the brute-force difference, and it is `None` exactly
/// when that difference is empty — for the engine's
/// `difference_with_witness` and for the feedback loop's
/// `CandidateForms::witness` (`Q^all − Q^no`).
#[test]
fn witness_is_in_the_difference_and_none_iff_empty() {
    let mut rng = StdRng::seed_from_u64(0xd1);
    let (mut some, mut none) = (0usize, 0usize);
    for case in 0..CASES {
        // `b` mostly generalizes `a`, so test both directions.
        let (a, b) = match arb_union_pair(&mut rng) {
            (a, b) if case % 2 == 0 => (a, b),
            (a, b) => (b, a),
        };
        let edges = arb_edges(&mut rng);
        let o = build_ontology(&edges);
        let expected: BTreeSet<_> = brute_union(&o, &a)
            .difference(&brute_union(&o, &b))
            .copied()
            .collect();
        match questpro::engine::difference_with_witness(&o, &a, &b, &mut rng, 8) {
            None => {
                assert!(expected.is_empty(), "missed witness of {a} − {b}");
                none += 1;
            }
            Some((res, img)) => {
                assert!(expected.contains(&res), "{res:?} is not in {a} − {b}");
                assert!(provenance_of_union(&o, &a, res, None).contains(&img));
                some += 1;
            }
        }

        let candidates = [a, b];
        let mut forms = questpro::feedback::CandidateForms::new(
            &o,
            &candidates,
            &ExampleSet::new(),
            &mut questpro::engine::ConsistencyCache::new(),
        );
        for (i, j) in [(0, 1), (1, 0)] {
            let expected: BTreeSet<_> = brute_union(&o, forms.all(i))
                .difference(&brute_union(&o, &candidates[j].without_diseqs()))
                .copied()
                .collect();
            match forms.witness(&o, i, j, &mut rng, 8) {
                None => assert!(expected.is_empty(), "missed witness for ({i}, {j})"),
                Some((res, _)) => assert!(expected.contains(&res)),
            }
        }
    }
    assert!(
        some > 0 && none > 0,
        "both outcomes must occur: {some} / {none}"
    );
}
