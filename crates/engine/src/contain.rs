//! Containment and equivalence of queries via the frozen-instance test.
//!
//! For plain conjunctive queries, `a ⊑ b` (every result of `a` on every
//! ontology is a result of `b`) holds iff there is a homomorphism from
//! `b` into `a` viewed as a *frozen instance* — constants keep their
//! values, variables become fresh distinct values — that maps `b`'s
//! projected node to `a`'s projected node (the classical Chandra–Merlin
//! argument, restated for graph patterns).
//!
//! Disequalities make containment Π₂ᵖ-hard in general, so this module
//! uses a **sound, incomplete** extension: a disequality `(x, y)` of `b`
//! is accepted only if the images are distinct constants or are
//! themselves constrained apart by a disequality of `a`. When the test
//! answers `true`, containment genuinely holds; a `false` may be a false
//! negative only for diseq-carrying queries.
//!
//! These tests are how the experiment harness decides that inference has
//! *reconstructed* a target query (the paper's success criterion).
//!
//! **Soundness is load-bearing.** The feedback loop skips evaluating a
//! difference query `a − b` whenever [`union_contained_in`]`(a, b)`
//! holds (`questpro-feedback`'s `CandidateForms::witness`). A false
//! `true` here would silently drop a question the user should have been
//! asked, so any change to this module must keep the randomized
//! soundness oracle in `tests/engine_bruteforce.rs` green.
//! Incompleteness only costs an evaluation.

use questpro_query::{NodeLabel, QueryNodeId, SimpleQuery, UnionQuery};

/// Whether `a ⊑ b`: every result of `a` is a result of `b`, on every
/// ontology. Sound; complete for disequality-free queries.
///
/// OPTIONAL edges never constrain the result set (they only extend
/// provenance), so containment is decided on the required parts alone.
pub fn contained_in(a: &SimpleQuery, b: &SimpleQuery) -> bool {
    // Search for a homomorphism from b's required part into frozen(a)'s
    // required part.
    let mut map = vec![u32::MAX; b.node_count()];
    if !try_map(b, a, b.projected(), a.projected(), &mut map) {
        return false;
    }
    extend(b, a, &mut map, 0)
}

/// Whether two simple queries are semantically equivalent (mutual
/// containment).
pub fn equivalent(a: &SimpleQuery, b: &SimpleQuery) -> bool {
    contained_in(a, b) && contained_in(b, a)
}

/// Whether `a ⊑ b` for unions: every branch of `a` must be contained in
/// some branch of `b` (complete for unions of diseq-free CQs).
pub fn union_contained_in(a: &UnionQuery, b: &UnionQuery) -> bool {
    a.branches()
        .iter()
        .all(|qa| b.branches().iter().any(|qb| contained_in(qa, qb)))
}

/// Whether two union queries are semantically equivalent.
pub fn union_equivalent(a: &UnionQuery, b: &UnionQuery) -> bool {
    union_contained_in(a, b) && union_contained_in(b, a)
}

/// Attempts `bn ↦ an`; label compatibility only (constants must match a
/// constant of the same value, variables map anywhere).
fn try_map(
    b: &SimpleQuery,
    a: &SimpleQuery,
    bn: QueryNodeId,
    an: QueryNodeId,
    map: &mut [u32],
) -> bool {
    let compatible = match (b.label(bn), a.label(an)) {
        (NodeLabel::Const(x), NodeLabel::Const(y)) => x == y,
        (NodeLabel::Const(_), NodeLabel::Var(_)) => false,
        (NodeLabel::Var(_), _) => true,
    };
    if !compatible {
        return false;
    }
    match map[bn.index()] {
        u32::MAX => {
            map[bn.index()] = an.index() as u32;
            true
        }
        existing => existing == an.index() as u32,
    }
}

fn extend(b: &SimpleQuery, a: &SimpleQuery, map: &mut Vec<u32>, depth: usize) -> bool {
    if depth == b.edge_count() {
        return finish_isolated(b, a, map, 0);
    }
    let be = &b.edges()[depth];
    if be.optional {
        // Optional edges of `b` do not constrain results.
        return extend(b, a, map, depth + 1);
    }
    for ae in a.edges() {
        if ae.optional || ae.pred != be.pred {
            continue;
        }
        let saved = map.clone();
        if try_map(b, a, be.src, ae.src, map)
            && try_map(b, a, be.dst, ae.dst, map)
            && extend(b, a, map, depth + 1)
        {
            return true;
        }
        *map = saved;
    }
    false
}

fn finish_isolated(b: &SimpleQuery, a: &SimpleQuery, map: &mut Vec<u32>, from: usize) -> bool {
    let next = (from..b.node_count()).find(|&i| map[i] == u32::MAX);
    let Some(bi) = next else {
        return diseqs_sound(b, a, map);
    };
    let bn = QueryNodeId::from_index(bi);
    for an in a.node_ids() {
        let saved = map[bi];
        if try_map(b, a, bn, an, map) && finish_isolated(b, a, map, bi + 1) {
            return true;
        }
        map[bi] = saved;
    }
    false
}

/// Sound acceptance of `b`'s disequalities under the mapping: images must
/// be distinct constants, or distinct nodes tied apart by a disequality
/// of `a` that every match of `a` enforces (both nodes always bound).
fn diseqs_sound(b: &SimpleQuery, a: &SimpleQuery, map: &[u32]) -> bool {
    b.diseqs().iter().all(|&(x, y)| {
        let ax = QueryNodeId::from_index(map[x.index()] as usize);
        let ay = QueryNodeId::from_index(map[y.index()] as usize);
        if ax == ay {
            return false;
        }
        match (a.label(ax).as_const(), a.label(ay).as_const()) {
            (Some(cx), Some(cy)) => cx != cy,
            _ => {
                let pair = if ax < ay { (ax, ay) } else { (ay, ax) };
                a.diseqs().contains(&pair) && always_bound(a, ax) && always_bound(a, ay)
            }
        }
    })
}

/// Whether every match of `q` binds `n`: it lies on a required edge or on
/// no edge at all. A node only on OPTIONAL edges may stay unbound, and a
/// disequality on it then constrains nothing.
fn always_bound(q: &SimpleQuery, n: QueryNodeId) -> bool {
    let touching = || q.edges().iter().filter(move |e| e.src == n || e.dst == n);
    touching().next().is_none() || touching().any(|e| !e.optional)
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_query::fixtures::{erdos_q1, erdos_q2};

    fn coauthor_query(name: Option<&str>) -> SimpleQuery {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let other = match name {
            Some(n) => b.constant(n),
            None => b.var("other"),
        };
        b.edge(p, "wb", x).edge(p, "wb", other).project(x);
        b.build().unwrap()
    }

    #[test]
    fn specialization_is_contained_in_generalization() {
        let erdos = coauthor_query(Some("Erdos"));
        let anyone = coauthor_query(None);
        assert!(contained_in(&erdos, &anyone));
        assert!(!contained_in(&anyone, &erdos));
        assert!(!equivalent(&erdos, &anyone));
    }

    #[test]
    fn renamed_queries_are_equivalent() {
        let q1 = erdos_q1();
        let mut b = SimpleQuery::builder();
        let a1 = b.var("z1");
        let a2 = b.var("z2");
        let a3 = b.var("z3");
        let a4 = b.var("z4");
        let p1 = b.var("w1");
        let p2 = b.var("w2");
        let p3 = b.var("w3");
        b.edge(p1, "wb", a1)
            .edge(p1, "wb", a2)
            .edge(p2, "wb", a2)
            .edge(p2, "wb", a3)
            .edge(p3, "wb", a3)
            .edge(p3, "wb", a4)
            .project(a1);
        let renamed = b.build().unwrap();
        assert!(equivalent(&q1, &renamed));
    }

    #[test]
    fn diseq_free_chain_folds_to_a_single_edge() {
        // Under homomorphism semantics the diseq-free Q1 chain folds onto
        // one wb edge, so Q1, Q2 and the single-edge query are mutually
        // equivalent — the very over-generalization that motivates the
        // paper's disequality constraints (Section V).
        assert!(contained_in(&erdos_q1(), &erdos_q2()));
        assert!(contained_in(&erdos_q2(), &erdos_q1()));
        assert!(equivalent(&erdos_q1(), &erdos_q2()));
        // Adding a disequality ?a1 != ?a2 to Q1 blocks the fold: the
        // disjoint-edge Q2 is then no longer contained in Q1.
        let q1 = erdos_q1();
        let a1 = q1.node_of_var("a1").unwrap();
        let a2 = q1.node_of_var("a2").unwrap();
        let q1d = q1.with_diseqs([(a1, a2)]).unwrap();
        assert!(!contained_in(&erdos_q2(), &q1d));
        // And constants block folding too: anchoring the chain end at
        // Erdos separates it from the unconstrained disjoint edges.
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let e = b.constant("Erdos");
        b.edge(p, "wb", x).edge(p, "wb", e).project(x);
        let anchored = b.build().unwrap();
        assert!(!contained_in(&erdos_q2(), &anchored));
        assert!(contained_in(&anchored, &erdos_q2()));
    }

    #[test]
    fn longer_chain_is_contained_in_shorter() {
        // "Erdős number ≤ 2 path" vs "co-author": a 2-chain folds onto a
        // 1-chain? From shorter INTO longer: hom from 1-edge pattern into
        // 2-chain exists (map onto first edge), so 2-chain ⊑ 1-edge.
        let one = coauthor_query(None);
        let q1 = erdos_q1();
        assert!(contained_in(&q1, &one));
    }

    #[test]
    fn different_predicates_are_incomparable() {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.edge(y, "cites", x).project(x);
        let cites = b.build().unwrap();
        let wb = coauthor_query(None);
        assert!(!contained_in(&cites, &wb));
        assert!(!contained_in(&wb, &cites));
    }

    #[test]
    fn projection_anchors_the_homomorphism() {
        // Same single-edge pattern projected on source vs target.
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.edge(x, "wb", y).project(x);
        let src_proj = b.build().unwrap();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.edge(x, "wb", y).project(y);
        let dst_proj = b.build().unwrap();
        assert!(!contained_in(&src_proj, &dst_proj));
        assert!(!contained_in(&dst_proj, &src_proj));
    }

    #[test]
    fn diseq_containment_is_sound() {
        // b = co-authors that are distinct (?x != ?other); a = the same
        // with matching diseq → contained. Without a's diseq → rejected.
        let plain = coauthor_query(None);
        let x = plain.node_of_var("x").unwrap();
        let other = plain.node_of_var("other").unwrap();
        let with_diseq = plain.with_diseqs([(x, other)]).unwrap();
        assert!(contained_in(&with_diseq, &with_diseq));
        // a=plain has no diseq, so mapping b=with_diseq's diseq cannot be
        // certified.
        assert!(!contained_in(&plain, &with_diseq));
        // The other direction holds: dropping a diseq only widens b.
        assert!(contained_in(&with_diseq, &plain));
    }

    #[test]
    fn union_containment_per_branch() {
        let erdos = coauthor_query(Some("Erdos"));
        let bob = coauthor_query(Some("Bob"));
        let anyone = coauthor_query(None);
        let u_spec = UnionQuery::new(vec![erdos.clone(), bob.clone()]).unwrap();
        let u_gen = UnionQuery::single(anyone);
        assert!(union_contained_in(&u_spec, &u_gen));
        assert!(!union_contained_in(&u_gen, &u_spec));
        let u_same = UnionQuery::new(vec![bob, erdos]).unwrap();
        assert!(union_equivalent(&u_spec, &u_same));
    }

    #[test]
    fn optional_only_diseq_certifies_nothing() {
        // a: `?x p ?y`, OPTIONAL `?x q ?w`, `?x != ?w`. Its disequality
        // binds nothing when the optional edge is skipped.
        let mut qb = SimpleQuery::builder();
        let (x, y, w) = (qb.var("x"), qb.var("y"), qb.var("w"));
        qb.edge(x, "p", y)
            .optional_edge(x, "q", w)
            .diseq(x, w)
            .project(x);
        let a = qb.build().unwrap();
        // b: `?x p ?y` plus an edge-free `?z != ?x`: some other node must
        // exist.
        let mut qb = SimpleQuery::builder();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        qb.edge(x, "p", y).diseq(x, z).project(x);
        let b = qb.build().unwrap();
        assert!(!contained_in(&a, &b));
        // On a one-node world, a has a result and b has none.
        let mut ob = questpro_graph::Ontology::builder();
        ob.edge("n", "p", "n").unwrap();
        let o = ob.build();
        assert_eq!(crate::evaluate(&o, &a).len(), 1);
        assert!(crate::evaluate(&o, &b).is_empty());
    }

    #[test]
    fn constant_must_map_to_equal_constant() {
        let erdos = coauthor_query(Some("Erdos"));
        let bob = coauthor_query(Some("Bob"));
        assert!(!contained_in(&erdos, &bob));
        assert!(!contained_in(&bob, &erdos));
        assert!(equivalent(&erdos, &erdos));
    }
}
