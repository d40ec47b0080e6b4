//! Structural isomorphism of queries.
//!
//! Two simple queries are isomorphic when a bijection between their nodes
//! preserves constants exactly, maps variables to variables (names are
//! immaterial), maps the projected node to the projected node, induces a
//! bijection between the edge sets (same predicate and direction), and
//! preserves the disequality sets.
//!
//! Isomorphism is the right notion of "the same candidate" when
//! deduplicating top-k inference outputs: semantically equivalent but
//! structurally different queries are deliberately kept distinct, since
//! the paper's feedback stage (Section V) may separate them by
//! provenance. Semantic (homomorphic) equivalence lives in
//! `questpro-engine::contain`.

use std::collections::HashSet;

use crate::simple::{NodeLabel, QueryNodeId, SimpleQuery};
use crate::union::UnionQuery;

/// Whether `a` and `b` are isomorphic simple queries.
pub fn isomorphic(a: &SimpleQuery, b: &SimpleQuery) -> bool {
    if a.node_count() != b.node_count()
        || a.edge_count() != b.edge_count()
        || a.diseqs().len() != b.diseqs().len()
        || a.var_count() != b.var_count()
    {
        return false;
    }
    let mut map = vec![u32::MAX; a.node_count()];
    let mut used = vec![false; b.node_count()];
    // Anchor: projections must correspond.
    if !compatible(a, b, a.projected(), b.projected()) {
        return false;
    }
    assign(&mut map, &mut used, a.projected(), b.projected());
    if extend(a, b, &mut map, &mut used, 0) {
        // Node bijection found with all edges of `a` present in `b`;
        // equal edge counts plus injectivity make it an edge bijection.
        // Disequalities are checked last over the complete mapping.
        return true;
    }
    false
}

/// Whether two union queries are isomorphic: a bijection between their
/// branch multisets such that paired branches are isomorphic.
pub fn union_isomorphic(a: &UnionQuery, b: &UnionQuery) -> bool {
    fn shaped(u: &UnionQuery) -> Vec<(&SimpleQuery, u64)> {
        u.branches().iter().map(|q| (q, q.shape_hash())).collect()
    }
    a.len() == b.len() && shaped_union_isomorphic(&shaped(a), &shaped(b))
}

/// [`union_isomorphic`] over branch lists that carry each branch's
/// [`SimpleQuery::shape_hash`], for callers that have it memoized.
/// Branches pair only where their shape hashes agree.
pub fn shaped_union_isomorphic(a: &[(&SimpleQuery, u64)], b: &[(&SimpleQuery, u64)]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut taken = vec![false; b.len()];
    match_branches(a, b, 0, &mut taken)
}

fn match_branches(
    a: &[(&SimpleQuery, u64)],
    b: &[(&SimpleQuery, u64)],
    i: usize,
    taken: &mut [bool],
) -> bool {
    let Some(&(qa, ha)) = a.get(i) else {
        return true;
    };
    for (j, &(qb, hb)) in b.iter().enumerate() {
        if taken[j] || ha != hb || !isomorphic(qa, qb) {
            continue;
        }
        taken[j] = true;
        if match_branches(a, b, i + 1, taken) {
            return true;
        }
        taken[j] = false;
    }
    false
}

fn compatible(a: &SimpleQuery, b: &SimpleQuery, u: QueryNodeId, v: QueryNodeId) -> bool {
    if a.degree(u) != b.degree(v)
        || a.out_edges(u).len() != b.out_edges(v).len()
        || (u == a.projected()) != (v == b.projected())
    {
        return false;
    }
    match (a.label(u), b.label(v)) {
        (NodeLabel::Const(x), NodeLabel::Const(y)) => x == y,
        (NodeLabel::Var(_), NodeLabel::Var(_)) => true,
        _ => false,
    }
}

fn assign(map: &mut [u32], used: &mut [bool], u: QueryNodeId, v: QueryNodeId) {
    map[u.index()] = v.index() as u32;
    used[v.index()] = true;
}

fn unassign(map: &mut [u32], used: &mut [bool], u: QueryNodeId, v: QueryNodeId) {
    map[u.index()] = u32::MAX;
    used[v.index()] = false;
}

/// Checks that every edge of `a` incident to `u` whose other endpoint is
/// already mapped has a matching edge in `b`.
fn edges_consistent(a: &SimpleQuery, b: &SimpleQuery, map: &[u32], u: QueryNodeId) -> bool {
    let v = QueryNodeId(map[u.index()]);
    for &ei in a.out_edges(u) {
        let e = &a.edges()[ei as usize];
        let w = map[e.dst.index()];
        if w != u32::MAX && !has_edge(b, v, &e.pred, QueryNodeId(w), e.optional) {
            return false;
        }
    }
    for &ei in a.in_edges(u) {
        let e = &a.edges()[ei as usize];
        let w = map[e.src.index()];
        if w != u32::MAX && !has_edge(b, QueryNodeId(w), &e.pred, v, e.optional) {
            return false;
        }
    }
    true
}

fn has_edge(
    q: &SimpleQuery,
    src: QueryNodeId,
    pred: &str,
    dst: QueryNodeId,
    optional: bool,
) -> bool {
    q.out_edges(src).iter().any(|&ei| {
        let e = &q.edges()[ei as usize];
        e.dst == dst && &*e.pred == pred && e.optional == optional
    })
}

fn extend(
    a: &SimpleQuery,
    b: &SimpleQuery,
    map: &mut Vec<u32>,
    used: &mut Vec<bool>,
    from: usize,
) -> bool {
    // Find the next unmapped node of `a`.
    let next = (from..a.node_count()).find(|&i| map[i] == u32::MAX);
    let Some(ui) = next else {
        return diseqs_match(a, b, map);
    };
    let u = QueryNodeId(ui as u32);
    for vi in 0..b.node_count() {
        if used[vi] {
            continue;
        }
        let v = QueryNodeId(vi as u32);
        if !compatible(a, b, u, v) {
            continue;
        }
        assign(map, used, u, v);
        if edges_consistent(a, b, map, u) && extend(a, b, map, used, ui + 1) {
            return true;
        }
        unassign(map, used, u, v);
    }
    false
}

fn diseqs_match(a: &SimpleQuery, b: &SimpleQuery, map: &[u32]) -> bool {
    let expected: HashSet<(u32, u32)> = a
        .diseqs()
        .iter()
        .map(|&(x, y)| {
            let mx = map[x.index()];
            let my = map[y.index()];
            (mx.min(my), mx.max(my))
        })
        .collect();
    let actual: HashSet<(u32, u32)> = b
        .diseqs()
        .iter()
        .map(|&(x, y)| (x.0.min(y.0), x.0.max(y.0)))
        .collect();
    expected == actual
}

/// Deduplicates a list of union queries up to isomorphism, preserving the
/// first occurrence order.
pub fn dedup_unions(mut queries: Vec<UnionQuery>) -> Vec<UnionQuery> {
    let mut kept: Vec<UnionQuery> = Vec::with_capacity(queries.len());
    for q in queries.drain(..) {
        if !kept.iter().any(|k| union_isomorphic(k, &q)) {
            kept.push(q);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{erdos_q1, erdos_q2};
    use crate::simple::SimpleQuery;

    fn renamed_q1() -> SimpleQuery {
        let mut b = SimpleQuery::builder();
        let a1 = b.var("out");
        let a2 = b.var("mid1");
        let a3 = b.var("mid2");
        let a4 = b.var("erdos");
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
        b.build().unwrap()
    }

    #[test]
    fn q1_isomorphic_to_its_renaming() {
        assert!(isomorphic(&erdos_q1(), &renamed_q1()));
    }

    #[test]
    fn q1_not_isomorphic_to_q2() {
        assert!(!isomorphic(&erdos_q1(), &erdos_q2()));
    }

    #[test]
    fn projection_position_matters() {
        // Same chain but projected on the far end (?a4 instead of ?a1):
        // the chain is symmetric, so projecting the mirror node keeps it
        // isomorphic; projecting a middle node breaks it.
        let mut b = SimpleQuery::builder();
        let a1 = b.var("a1");
        let a2 = b.var("a2");
        let a3 = b.var("a3");
        let a4 = b.var("a4");
        let p1 = b.var("p1");
        let p2 = b.var("p2");
        let p3 = b.var("p3");
        b.edge(p1, "wb", a1)
            .edge(p1, "wb", a2)
            .edge(p2, "wb", a2)
            .edge(p2, "wb", a3)
            .edge(p3, "wb", a3)
            .edge(p3, "wb", a4)
            .project(a2);
        let mid_projected = b.build().unwrap();
        assert!(!isomorphic(&erdos_q1(), &mid_projected));
    }

    #[test]
    fn constants_must_match_exactly() {
        let mk = |name: &str| {
            let mut b = SimpleQuery::builder();
            let x = b.var("x");
            let c = b.constant(name);
            b.edge(x, "wb", c).project(x);
            b.build().unwrap()
        };
        assert!(isomorphic(&mk("Erdos"), &mk("Erdos")));
        assert!(!isomorphic(&mk("Erdos"), &mk("Bob")));
    }

    #[test]
    fn var_never_matches_const() {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let y = b.var("y");
        b.edge(x, "wb", y).project(x);
        let vars = b.build().unwrap();
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let c = b.constant("Erdos");
        b.edge(x, "wb", c).project(x);
        let konst = b.build().unwrap();
        assert!(!isomorphic(&vars, &konst));
    }

    #[test]
    fn diseqs_distinguish_queries() {
        let mk = |with_diseq: bool| {
            let mut b = SimpleQuery::builder();
            let x = b.var("x");
            let y = b.var("y");
            let p = b.var("p");
            b.edge(p, "wb", x).edge(p, "wb", y).project(x);
            if with_diseq {
                b.diseq(x, y);
            }
            b.build().unwrap()
        };
        assert!(!isomorphic(&mk(true), &mk(false)));
        assert!(isomorphic(&mk(true), &mk(true)));
    }

    #[test]
    fn union_iso_is_order_insensitive() {
        let u1 = UnionQuery::new(vec![erdos_q1(), erdos_q2()]).unwrap();
        let u2 = UnionQuery::new(vec![erdos_q2(), renamed_q1()]).unwrap();
        assert!(union_isomorphic(&u1, &u2));
        let u3 = UnionQuery::new(vec![erdos_q2()]).unwrap();
        assert!(!union_isomorphic(&u1, &u3));
    }

    #[test]
    fn dedup_keeps_first_of_each_class() {
        let out = dedup_unions(vec![
            UnionQuery::single(erdos_q1()),
            UnionQuery::single(renamed_q1()),
            UnionQuery::single(erdos_q2()),
        ]);
        assert_eq!(out.len(), 2);
    }
}
