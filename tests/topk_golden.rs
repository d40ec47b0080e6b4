//! Golden file pinning the top-k beam's output.
//!
//! For every catalog target of the three default worlds, two seeded
//! example-sets of two to seven explanations are inferred under two
//! configurations: the server's (k = 3, strict Algorithm 1) and a wider
//! beam that may carry OPTIONAL edges (k = 5). The golden records each
//! run's candidates, rendered with `format_union` in rank order, and
//! every deterministic `InferenceStats` counter. Wall-clock fields are
//! left out. A change to the beam's bookkeeping must leave this file
//! byte for byte as it is.
//!
//! `matcher_nodes_expanded` reads a process-wide counter, so this file
//! holds a single test: no other test of the binary drives a matcher
//! while it runs.
//!
//! To intentionally change the beam's output, update the golden with:
//! `UPDATE_GOLDEN=1 cargo test --test topk_golden`.

use std::fmt::Write;

use questpro_core::{infer_top_k, GreedyConfig, TopKConfig};
use questpro_data::{
    bsbm_workload, generate_bsbm, generate_movies, generate_sp2b, movie_workload, sp2b_workload,
    BsbmConfig, MoviesConfig, Sp2bConfig, WorkloadQuery,
};
use questpro_engine::sample_example_set;
use questpro_graph::rng::{Rng, StdRng};
use questpro_graph::Ontology;
use questpro_query::sparql;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/topk.golden")
}

fn render() -> String {
    let worlds: [(&str, Ontology, Vec<WorkloadQuery>); 3] = [
        (
            "sp2b",
            generate_sp2b(&Sp2bConfig::default()),
            sp2b_workload(),
        ),
        (
            "bsbm",
            generate_bsbm(&BsbmConfig::default()),
            bsbm_workload(),
        ),
        (
            "movies",
            generate_movies(&MoviesConfig::default()),
            movie_workload(),
        ),
    ];
    let configs = [
        ("k3", TopKConfig::default()),
        (
            "k5-optional",
            TopKConfig {
                k: 5,
                greedy: GreedyConfig {
                    allow_optional: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        ),
    ];
    let mut rng = StdRng::seed_from_u64(0x70b6);
    let mut out = String::new();
    for (world, ont, catalog) in &worlds {
        for target in catalog {
            for set in 0..2 {
                let examples = loop {
                    let count = rng.random_range(2..=7usize);
                    let ex = sample_example_set(ont, &target.query, count, &mut rng, 6);
                    if ex.len() >= 2 {
                        break ex;
                    }
                };
                for (name, cfg) in &configs {
                    let (candidates, s) = infer_top_k(ont, &examples, cfg);
                    let _ = writeln!(
                        out,
                        "## {world}/{} set {set} explanations {} {name}",
                        target.id,
                        examples.len()
                    );
                    let _ = writeln!(
                        out,
                        "stats algorithm1_calls={} merges_applied={} states_examined={} \
                         rounds={} merge_cache_hits={} merge_cache_true_misses={} \
                         merge_cache_capacity_misses={} consistency_checks={} \
                         consistency_cache_hits={} matcher_nodes_expanded={}",
                        s.algorithm1_calls,
                        s.merges_applied,
                        s.states_examined,
                        s.rounds,
                        s.merge_cache_hits,
                        s.merge_cache_true_misses,
                        s.merge_cache_capacity_misses,
                        s.consistency_checks,
                        s.consistency_cache_hits,
                        s.matcher_nodes_expanded,
                    );
                    for (rank, q) in candidates.iter().enumerate() {
                        let _ = writeln!(out, "candidate {rank}:\n{}", sparql::format_union(q));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn topk_output_is_frozen() {
    let got = render();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "top-k output differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
