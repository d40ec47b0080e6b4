//! The feedback loop decides candidate pairs statically when containment
//! proves their difference empty.
//!
//! Top-k inference on target m9 ("films by directors of Uma Thurman
//! films") of the movies world returns unions whose extra branch is a
//! constant specialization of the bare pattern. Every such pair is
//! indistinguishable on every ontology, so a session over them must
//! finish without evaluating a single difference query.

use std::sync::Mutex;

use questpro_core::{infer_top_k_cached, GreedyConfig, TopKConfig};
use questpro_engine::metrics::searches_total;
use questpro_engine::ConsistencyCache;
use questpro_feedback::{CandidateForms, InteractiveSession, PendingQuestion, SessionConfig};
use questpro_graph::rng::{Rng, StdRng};
use questpro_graph::{ExampleSet, Ontology};
use questpro_query::UnionQuery;

/// `searches_total` is process-wide: tests reading it run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The server's session configuration: no OPTIONAL edges, one thread.
fn config() -> SessionConfig {
    SessionConfig {
        topk: TopKConfig {
            greedy: GreedyConfig {
                allow_optional: false,
                ..Default::default()
            },
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The movies world and two to four explanations sampled from m9's
/// results.
fn m9_examples(seed: u64) -> (Ontology, ExampleSet) {
    let ont = questpro_data::generate_movies(&questpro_data::MoviesConfig::default());
    let m9 = questpro_data::movie_workload()
        .into_iter()
        .find(|w| w.id == "m9")
        .expect("m9 is in the movie catalog")
        .query;
    let mut rng = StdRng::seed_from_u64(seed);
    let count = rng.random_range(2..=4usize);
    let examples = questpro_engine::sample_example_set(&ont, &m9, count, &mut rng, 6);
    (ont, examples)
}

/// Starts a session and returns it with the number of matcher searches
/// its witness phase ran: the searches of the whole start minus those of
/// inference and of building the candidate forms on inference's onto
/// matches, replayed separately. Both are exact, since every search here is sequential.
fn start_counting(ont: &Ontology, examples: &ExampleSet, seed: u64) -> (InteractiveSession, u64) {
    let cfg = config();
    let before = searches_total();
    let mut onto = ConsistencyCache::new();
    let (candidates, _) = infer_top_k_cached(ont, examples, &cfg.topk, &mut onto);
    CandidateForms::new(ont, &candidates, examples, &mut onto);
    let setup = searches_total() - before;
    let before = searches_total();
    let session = InteractiveSession::start(ont, examples, &cfg, seed).expect("session starts");
    (session, searches_total() - before - setup)
}

/// Whether some branch of `u` carries a constant.
fn has_constant_branch(u: &UnionQuery) -> bool {
    u.branches()
        .iter()
        .any(|q| q.node_ids().any(|n| q.label(n).as_const().is_some()))
}

#[test]
fn specialized_unions_finish_without_evaluation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (ont, examples) = m9_examples(1);
    let (session, witness_searches) = start_counting(&ont, &examples, 7);
    // The m9 shape: the bare pattern first, then unions of the bare
    // pattern and one constant specialization of it.
    let candidates = session.candidates();
    assert!(candidates.len() >= 2, "{candidates:?}");
    let bare = &candidates[0];
    assert_eq!(bare.len(), 1);
    for u in &candidates[1..] {
        assert!(has_constant_branch(u), "{u}");
        assert!(u.branches().iter().any(|b| b == &bare.branches()[0]), "{u}");
    }
    assert!(session.is_done());
    assert!(session.pending().is_none());
    assert!(session.transcript().is_empty());
    assert_eq!(witness_searches, 0, "a difference query was evaluated");
}

#[test]
fn distinguishable_pair_still_asks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Two explanations with different directors: the bare pattern
    // against a union of two constant-anchored patterns.
    let (ont, examples) = m9_examples(0);
    let (session, witness_searches) = start_counting(&ont, &examples, 7);
    assert_eq!(session.candidates().len(), 2);
    assert!(
        matches!(session.pending(), Some(PendingQuestion::Select { .. })),
        "a distinguishable pair must be asked about"
    );
    assert!(witness_searches > 0);
}
