//! The implemented future-work extensions of the paper's Section VIII:
//!
//! 1. **OPTIONAL patterns** — explanations of *different shapes* (one
//!    justifies a film with its genre, another has no genre to show)
//!    fuse into a single pattern with an OPTIONAL edge instead of an
//!    awkward two-branch union;
//! 2. **incorrect provenance** — a wrong explanation is diagnosed as a
//!    shape mismatch and set aside before inference.
//!
//! Run with: `cargo run --example extensions`

use questpro::core::GreedyConfig;
use questpro::engine::ConsistencyCache;
use questpro::prelude::*;

fn main() {
    // A small film world where film2 has no genre annotation.
    let mut b = Ontology::builder();
    for (s, p, d) in [
        ("film1", "starring", "Ann"),
        ("film1", "genre", "Crime"),
        ("film2", "starring", "Ann"),
        ("film3", "starring", "Zoe"),
        ("film3", "genre", "Drama"),
        ("studio", "produced", "film3"),
    ] {
        b.edge(s, p, d).expect("unique edges");
    }
    let ont = b.build();

    // The user wants "films starring Ann" and explains both films —
    // naturally including film1's genre, because the UI shows it.
    let e1 = Explanation::from_triples(
        &ont,
        &[("film1", "starring", "Ann"), ("film1", "genre", "Crime")],
        "film1",
    )
    .expect("valid");
    let e2 =
        Explanation::from_triples(&ont, &[("film2", "starring", "Ann")], "film2").expect("valid");
    let examples = ExampleSet::from_explanations(vec![e1.clone(), e2.clone()]);

    println!("== 1. OPTIONAL fusion ==\n");
    let strict = infer_top_k(&ont, &examples, &TopKConfig::default()).0;
    println!("strict inference (paper's Algorithm 2):\n{}\n", strict[0]);
    let optional_cfg = TopKConfig {
        greedy: GreedyConfig {
            allow_optional: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let tolerant = infer_top_k(&ont, &examples, &optional_cfg).0;
    let fused = tolerant
        .iter()
        .find(|c| c.len() == 1)
        .expect("optional mode fuses the shapes");
    println!("optional-tolerant inference:\n{fused}");

    println!("\n== 2. Diagnosing incorrect provenance ==\n");
    // A third, wrong explanation: the user mis-clicked and justified
    // film3 by its production edge instead of its cast.
    let wrong = Explanation::from_triples(&ont, &[("studio", "produced", "film3")], "film3")
        .expect("valid");
    let poisoned = ExampleSet::from_explanations(vec![e1, e2, wrong]);
    for d in diagnose_examples(&ont, &poisoned, &GreedyConfig::default()) {
        println!(
            "explanation {} → {:?} (merges with {} others)",
            d.index + 1,
            d.suspicion,
            d.mergeable_with
        );
    }
    let (candidates, suspects, _) = infer_top_k_robust(
        &ont,
        &poisoned,
        &TopKConfig::default(),
        &mut ConsistencyCache::new(),
    );
    println!(
        "\nrobust inference set aside {suspects:?} and inferred:\n{}",
        candidates[0]
    );
}
