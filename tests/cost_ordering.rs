//! Property and differential tests for the Volcano-style cost
//! estimator behind the matcher's edge ordering (DESIGN.md §9).
//!
//! Three contracts:
//!
//! 1. **Total ordering** — every estimate is a finite, non-negative
//!    `f64`, so sorting candidate edges by cost (via `total_cmp`) is a
//!    total order on any mix of predicates and binding states.
//! 2. **Stability under id remapping** — estimates depend only on
//!    per-predicate statistics (cardinality, distinct subjects/objects),
//!    never on interned ids, so re-inserting the same triples in a
//!    different order leaves every per-predicate estimate unchanged.
//! 3. **Ordering differential** — the cost-based edge order is a pure
//!    search-effort knob: it finds exactly the matches that plain
//!    declaration order finds, for every workload query of all three
//!    benchmark worlds. The same holds for the result probes' plan,
//!    which reads a bound constant's true degree, and for evaluation,
//!    which adds the semi-join domains to it.

use questpro::data::*;
use questpro::engine::edge_cost;
use questpro::graph::{Ontology, PredId};
use questpro::prelude::*;

fn small_worlds() -> Vec<(&'static str, Ontology)> {
    vec![
        (
            "sp2b",
            generate_sp2b(&Sp2bConfig {
                authors: 120,
                articles: 220,
                inproceedings: 140,
                ..Default::default()
            }),
        ),
        (
            "bsbm",
            generate_bsbm(&BsbmConfig {
                products: 120,
                offers: 220,
                reviews: 220,
                ..Default::default()
            }),
        ),
        ("movies", generate_movies(&MoviesConfig::default())),
    ]
}

const BINDINGS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// Every estimate over every (predicate, binding) combination of every
/// world is finite and non-negative, so `total_cmp` sorting is a total
/// order with no NaN poison values.
#[test]
fn cost_ordering_is_total_over_all_worlds() {
    for (name, ont) in small_worlds() {
        let mut costs = Vec::new();
        for praw in 0..ont.pred_count() {
            let p = PredId::from_usize(praw);
            for (sb, db) in BINDINGS {
                let c = edge_cost(&ont, p, sb, db);
                assert!(
                    c.is_finite() && c >= 0.0,
                    "{name}: pred {praw} ({sb},{db}) produced {c}"
                );
                costs.push(c);
            }
        }
        costs.sort_by(f64::total_cmp);
        // Antisymmetry + transitivity spot-check on the sorted run.
        for w in costs.windows(2) {
            assert_ne!(w[0].total_cmp(&w[1]), std::cmp::Ordering::Greater);
        }
    }
}

/// More-bound never costs more: binding an extra endpoint can only
/// shrink the expected scan (the estimator divides by distinct counts).
#[test]
fn binding_an_endpoint_never_increases_cost() {
    for (name, ont) in small_worlds() {
        for praw in 0..ont.pred_count() {
            let p = PredId::from_usize(praw);
            let free = edge_cost(&ont, p, false, false);
            for (sb, db) in [(true, false), (false, true)] {
                let one = edge_cost(&ont, p, sb, db);
                let both = edge_cost(&ont, p, true, true);
                assert!(one <= free, "{name}: pred {praw} one-bound > free");
                assert!(both <= one, "{name}: pred {praw} both-bound > one-bound");
            }
        }
    }
}

/// Re-inserting the same triples in reversed order gives every node and
/// edge a different interned id, but the per-predicate-name estimates
/// must be bit-identical: the estimator reads only statistics.
#[test]
fn estimates_are_stable_under_id_remapping() {
    for (name, ont) in small_worlds() {
        // Collect the triples, then rebuild in reverse insertion order.
        let mut triples: Vec<(String, String, String)> = ont
            .edge_ids()
            .map(|e| {
                let ed = ont.edge(e);
                (
                    ont.value_str(ed.src).to_string(),
                    ont.pred_str_of(e).to_string(),
                    ont.value_str(ed.dst).to_string(),
                )
            })
            .collect();
        triples.reverse();
        let mut b = Ontology::builder();
        for (s, p, d) in &triples {
            b.edge(s, p, d).expect("round-tripped triple");
        }
        let remapped = b.build();
        assert_eq!(remapped.edge_count(), ont.edge_count(), "{name}: lossless");

        for praw in 0..ont.pred_count() {
            let p = PredId::from_usize(praw);
            let p2 = remapped
                .pred_by_name(ont.pred_str(p))
                .expect("same predicate set");
            for (sb, db) in BINDINGS {
                assert_eq!(
                    edge_cost(&ont, p, sb, db).to_bits(),
                    edge_cost(&remapped, p2, sb, db).to_bits(),
                    "{name}: pred {:?} estimate moved under id remapping",
                    ont.pred_str(p)
                );
            }
        }
    }
}

/// Cost-based vs declaration order: every workload query of SP2B, BSBM
/// and movies has the same match set under both orders.
#[test]
fn cost_order_is_match_set_invariant() {
    let worlds = small_worlds();
    let workload: Vec<(&str, _)> = vec![
        ("sp2b", sp2b_workload()),
        ("bsbm", bsbm_workload()),
        ("movies", movie_workload()),
    ];
    let sorted = |mut ms: Vec<Match>| {
        ms.sort_by(|a, b| (&a.nodes, &a.edges).cmp(&(&b.nodes, &b.edges)));
        ms
    };
    for (name, queries) in workload {
        let ont = &worlds.iter().find(|(n, _)| *n == name).expect("world").1;
        for w in &queries {
            for (i, q) in w.query.branches().iter().enumerate() {
                let cost = sorted(Matcher::new(ont, q).collect());
                let declared = sorted(Matcher::new(ont, q).sequential_order().collect());
                assert!(!cost.is_empty(), "{name}/{} branch {i}: no matches", w.id);
                assert_eq!(
                    cost, declared,
                    "{name}/{} branch {i}: the cost-based order changed the match set",
                    w.id
                );
            }
        }
    }
}

/// Degree-aware probe plan vs declaration order: probing every node of
/// the world at the projected node gives the same hits in the same
/// order, and `evaluate` (the probe plan plus semi-join domains) gives
/// them as its result set, for every workload query of all three worlds.
#[test]
fn probe_plan_is_result_invariant() {
    let worlds = small_worlds();
    let workload: Vec<(&str, _)> = vec![
        ("sp2b", sp2b_workload()),
        ("bsbm", bsbm_workload()),
        ("movies", movie_workload()),
    ];
    for (name, queries) in workload {
        let ont = &worlds.iter().find(|(n, _)| *n == name).expect("world").1;
        let every: Vec<_> = ont.node_ids().collect();
        for w in &queries {
            for (i, q) in w.query.branches().iter().enumerate() {
                let probe = || Matcher::new(ont, q).skip_optionals();
                let planned = probe().anchored(q.projected(), &every);
                let declared = probe().sequential_order().anchored(q.projected(), &every);
                assert!(
                    !declared.is_empty(),
                    "{name}/{} branch {i}: no results",
                    w.id
                );
                assert_eq!(
                    planned, declared,
                    "{name}/{} branch {i}: the probe plan changed the hits",
                    w.id
                );
                assert_eq!(
                    evaluate(ont, q),
                    declared.into_iter().collect(),
                    "{name}/{} branch {i}: evaluation differs from the probes",
                    w.id
                );
            }
        }
    }
}
