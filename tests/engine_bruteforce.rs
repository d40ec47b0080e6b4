//! Cross-validation of the backtracking matcher against a brute-force
//! reference: enumerate *all* node assignments naively and check edge
//! constraints last. The optimized engine must produce exactly the same
//! result sets and match counts. Driven by the workspace's internal
//! seeded RNG.

use std::collections::BTreeSet;

use questpro::prelude::*;
use questpro::query::QueryNodeId;
use questpro::rng::{Rng, StdRng};

const CASES: usize = 192;

fn arb_edges<R: Rng>(rng: &mut R) -> Vec<(u8, u8, u8)> {
    let want = rng.random_range(1..14usize);
    let mut set = BTreeSet::new();
    // Rejection-sample distinct triples, mirroring a btree_set strategy.
    while set.len() < want {
        set.insert((
            rng.random_range(0..6u32) as u8,
            rng.random_range(0..2u32) as u8,
            rng.random_range(0..6u32) as u8,
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
/// so every node is either required or isolated and the brute-force
/// reference can ignore them.
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

/// Reference semantics: try every total node assignment against the
/// required edges.
fn brute_force(
    ont: &Ontology,
    q: &SimpleQuery,
) -> (std::collections::BTreeSet<questpro::graph::NodeId>, u64) {
    let nodes: Vec<_> = ont.node_ids().collect();
    let k = q.node_count();
    let mut results = std::collections::BTreeSet::new();
    let mut count = 0u64;
    let mut assign = vec![0usize; k];
    'outer: loop {
        // Check the assignment.
        let ok = (0..k).all(|i| {
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
        }) && q
            .diseqs()
            .iter()
            .all(|&(a, bnode)| nodes[assign[a.index()]] != nodes[assign[bnode.index()]]);
        if ok {
            count += 1;
            results.insert(nodes[assign[q.projected().index()]]);
        }
        // Next assignment (odometer).
        for slot in (0..k).rev() {
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
/// is checked on constants several hops from the projected node.
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
        let Some(q) = build_query(&spec) else {
            continue;
        };
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
