//! A session start builds its candidates' `Q^all` forms on the onto
//! matches inference already found. That must not change a single
//! disequality: forms built on inference's cache render exactly as forms
//! built on a fresh one, for every catalog target of the three default
//! worlds with two to seven sampled explanations.

use questpro_core::{infer_top_k_cached, GreedyConfig, TopKConfig};
use questpro_data::{
    bsbm_workload, generate_bsbm, generate_movies, generate_sp2b, movie_workload, sp2b_workload,
    BsbmConfig, MoviesConfig, Sp2bConfig, WorkloadQuery,
};
use questpro_engine::{sample_example_set, ConsistencyCache};
use questpro_feedback::CandidateForms;
use questpro_graph::rng::{Rng, StdRng};
use questpro_graph::Ontology;
use questpro_query::sparql;

#[test]
fn forms_on_inference_cache_render_like_fresh_ones() {
    let worlds: [(Ontology, Vec<WorkloadQuery>); 3] = [
        (generate_sp2b(&Sp2bConfig::default()), sp2b_workload()),
        (generate_bsbm(&BsbmConfig::default()), bsbm_workload()),
        (generate_movies(&MoviesConfig::default()), movie_workload()),
    ];
    // The server's inference configuration: no OPTIONAL edges.
    let cfg = TopKConfig {
        greedy: GreedyConfig {
            allow_optional: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(0x0e70);
    let (mut targets, mut reused) = (0, 0);
    for (ont, catalog) in &worlds {
        for target in catalog {
            let examples = loop {
                let count = rng.random_range(2..=7usize);
                let ex = sample_example_set(ont, &target.query, count, &mut rng, 6);
                if ex.len() >= 2 {
                    break ex;
                }
            };
            let mut onto = ConsistencyCache::new();
            let (candidates, _) = infer_top_k_cached(ont, &examples, &cfg, &mut onto);
            let shared = CandidateForms::new(ont, &candidates, &examples, &mut onto);
            let fresh =
                CandidateForms::new(ont, &candidates, &examples, &mut ConsistencyCache::new());
            for i in 0..candidates.len() {
                assert_eq!(
                    sparql::format_union(shared.all(i)),
                    sparql::format_union(fresh.all(i)),
                    "{}: candidate {i} differs",
                    target.id
                );
            }
            assert_eq!(fresh.onto_reused(), 0, "a fresh cache has nothing to reuse");
            targets += 1;
            reused += shared.onto_reused();
        }
    }
    assert!(targets >= 20, "only {targets} catalog targets");
    assert!(
        reused >= targets,
        "inference's matches must serve Q^all lookups ({reused} over {targets} starts)"
    );
}
