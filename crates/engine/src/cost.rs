//! Volcano-style cost estimation over columnar predicate statistics.
//!
//! The matcher must pick, at each step, which pattern edge to match
//! next. The classic heuristic ("most bound endpoints, then smallest
//! predicate pool") ignores how *selective* a predicate actually is: a
//! predicate with a million edges but a single distinct subject is
//! nearly free once its source is bound. This module derives expected
//! candidate counts from the [`PredStats`] kept by
//! `questpro-graph::columnar` — the classic System R / Volcano
//! uniformity assumption:
//!
//! * both endpoints bound — expected matches `card / (ds · do)`
//!   (uniform and independent subject/object choice);
//! * source bound — expected scan `card / ds` (average out-fanout);
//! * target bound — expected scan `card / do` (average in-fanout);
//! * neither bound — full predicate scan, `card`.
//!
//! Estimates are plain finite `f64`s (never NaN), so "order by cost" is
//! a total order, and they depend only on per-predicate statistics —
//! never on node or edge *ids* — so any id remapping that preserves the
//! graph structure leaves every estimate unchanged. Both properties are
//! locked in by tests (here and in the repo-level property suite).
//!
//! Cost-based ordering changes only *search effort*, never the match
//! set: the matcher's result semantics are order-independent, which
//! `tests/cost_ordering.rs` checks against declaration-order matching.

use questpro_graph::{Ontology, PredId, PredStats};

/// Expected number of candidate edges scanned to match one pattern edge
/// with the given endpoint binding state, from predicate statistics.
///
/// Always finite and non-negative; 0 for a predicate with no edges.
#[inline]
pub fn estimate_scan(st: PredStats, src_bound: bool, dst_bound: bool) -> f64 {
    let card = f64::from(st.cardinality);
    if st.cardinality == 0 {
        return 0.0;
    }
    let ds = f64::from(st.distinct_subjects.max(1));
    let dobj = f64::from(st.distinct_objects.max(1));
    match (src_bound, dst_bound) {
        (true, true) => card / (ds * dobj),
        (true, false) => card / ds,
        (false, true) => card / dobj,
        (false, false) => card,
    }
}

/// [`estimate_scan`] looked up through the ontology's statistics.
#[inline]
pub fn edge_cost(ont: &Ontology, p: PredId, src_bound: bool, dst_bound: bool) -> f64 {
    estimate_scan(ont.pred_stats(p), src_bound, dst_bound)
}

/// Estimated work of merging two explanation pattern graphs with `m1`
/// and `m2` edges: the greedy pairing examines candidate pairs from the
/// `m1 × m2` cross product per iteration, up to `min(m1, m2)` times.
///
/// Used to size work items for the work-stealing dispatcher and to
/// order explanation pairs largest-first (LPT scheduling), which bounds
/// makespan regardless of which worker steals what.
#[inline]
pub fn merge_pair_cost(m1: usize, m2: usize) -> u64 {
    let pairs = (m1 as u64).saturating_mul(m2 as u64);
    pairs.saturating_mul(m1.min(m2).max(1) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_graph::Ontology;

    fn world() -> Ontology {
        let mut b = Ontology::builder();
        b.edge("p1", "wb", "a1").unwrap();
        b.edge("p1", "wb", "a2").unwrap();
        b.edge("p2", "wb", "a1").unwrap();
        b.edge("p2", "cites", "p1").unwrap();
        b.build()
    }

    #[test]
    fn estimates_follow_the_uniformity_formulas() {
        let o = world();
        let wb = o.pred_by_name("wb").unwrap();
        // wb: card 3, 2 distinct subjects, 2 distinct objects.
        assert_eq!(edge_cost(&o, wb, false, false), 3.0);
        assert_eq!(edge_cost(&o, wb, true, false), 1.5);
        assert_eq!(edge_cost(&o, wb, false, true), 1.5);
        assert_eq!(edge_cost(&o, wb, true, true), 0.75);
    }

    #[test]
    fn estimates_are_finite_and_total() {
        let o = world();
        let mut costs = Vec::new();
        for praw in 0..o.pred_count() {
            let p = questpro_graph::PredId::from_usize(praw);
            for (sb, db) in [(false, false), (true, false), (false, true), (true, true)] {
                let c = edge_cost(&o, p, sb, db);
                assert!(c.is_finite() && c >= 0.0);
                costs.push(c);
            }
        }
        // total_cmp never panics and sorts them totally.
        costs.sort_by(f64::total_cmp);
    }

    #[test]
    fn zero_cardinality_is_zero_cost() {
        assert_eq!(estimate_scan(PredStats::default(), false, false), 0.0);
        assert_eq!(estimate_scan(PredStats::default(), true, true), 0.0);
    }

    #[test]
    fn merge_pair_cost_is_positive_and_monotone() {
        assert_eq!(merge_pair_cost(0, 0), 1);
        assert!(merge_pair_cost(3, 4) <= merge_pair_cost(4, 4));
        assert!(merge_pair_cost(2, 2) < merge_pair_cost(8, 8));
    }
}
