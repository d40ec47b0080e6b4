//! Algorithm 3: choosing one query via provenance-backed questions.
//!
//! Candidates are compared pairwise. For a pair `(Q_i, Q_j)` we evaluate
//! the difference `Q_i^all − Q_j^no` — `Q_i` with **all** its inferred
//! disequalities against `Q_j` with **none** — so that a user answer
//! disqualifies every disequality-form of the losing pattern at once
//! (Section V, "we want to ensure that users do not disqualify a query
//! because of extra disequalities"). A sampled difference result is
//! bound back into `Q_i^all` to obtain its provenance, and the user's
//! yes/no removes `Q_j` or `Q_i` respectively. Pairs whose differences
//! are empty both ways are *indistinguishable on this ontology* and are
//! merged by keeping the earlier-ranked candidate. [`CandidateForms`]
//! decides a difference statically, without evaluating it, when
//! containment proves it empty on every ontology. It reads the `Q^all`
//! disequalities off onto matches in a [`ConsistencyCache`]; a session
//! start passes the one its inference filled, so the matches that
//! verified the candidates are not searched for again.

use std::collections::BTreeSet;

use questpro_graph::rng::{IteratorRandom, Rng};

use questpro_core::with_all_diseqs_cached;
use questpro_engine::{evaluate_union, provenance_of_union, union_contained_in, ConsistencyCache};
use questpro_graph::{ExampleSet, NodeId, Ontology, Subgraph};
use questpro_query::UnionQuery;

use crate::oracle::Oracle;

/// Configuration of the feedback loop.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackConfig {
    /// How many distinct provenance graphs to enumerate when sampling a
    /// witness.
    pub prov_limit: usize,
    /// Hard cap on the number of questions asked.
    pub max_questions: usize,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        Self {
            prov_limit: 8,
            max_questions: 64,
        }
    }
}

/// One asked question and its answer.
#[derive(Debug, Clone)]
pub struct QuestionRecord {
    /// The sampled difference result shown to the user.
    pub result: NodeId,
    /// The provenance graph shown alongside it.
    pub provenance: Subgraph,
    /// Index (into the original candidate list) of the query whose
    /// difference produced the witness.
    pub kept_candidate: usize,
    /// Index of the candidate that was eliminated by the answer.
    pub eliminated_candidate: usize,
    /// The user's answer.
    pub answer: bool,
}

/// Outcome of the feedback loop.
#[derive(Debug, Clone)]
pub struct FeedbackOutcome {
    /// The surviving query, in its all-disequalities form.
    pub chosen: UnionQuery,
    /// Index of the survivor in the original candidate list.
    pub chosen_index: usize,
    /// Transcript of the questions asked.
    pub transcript: Vec<QuestionRecord>,
}

/// Runs Algorithm 3 over ranked candidates (best first).
///
/// `examples` is the example-set the candidates were inferred from; it
/// drives disequality inference for the `Q^all` forms.
///
/// # Panics
/// Panics if `candidates` is empty.
pub fn choose_query<O: Oracle, R: Rng>(
    ont: &Ontology,
    candidates: &[UnionQuery],
    examples: &ExampleSet,
    oracle: &mut O,
    rng: &mut R,
    cfg: &FeedbackConfig,
) -> FeedbackOutcome {
    let mut cache = ConsistencyCache::new();
    choose_query_cached(ont, candidates, examples, oracle, rng, cfg, &mut cache)
}

/// [`choose_query`] with the `Q^all` forms built on `cache`
/// ([`CandidateForms::new`]): a session passes the cache its inference
/// ran on, so the onto matches inference found are not searched again.
pub(crate) fn choose_query_cached<O: Oracle, R: Rng>(
    ont: &Ontology,
    candidates: &[UnionQuery],
    examples: &ExampleSet,
    oracle: &mut O,
    rng: &mut R,
    cfg: &FeedbackConfig,
    cache: &mut ConsistencyCache,
) -> FeedbackOutcome {
    assert!(!candidates.is_empty(), "need at least one candidate");
    let _t = questpro_trace::span("feedback.choose_query");
    let mut forms = CandidateForms::new(ont, candidates, examples, cache);

    // Live candidate indexes, best-ranked first.
    let mut live: Vec<usize> = (0..candidates.len()).collect();
    let mut transcript = Vec::new();

    while live.len() > 1 && transcript.len() < cfg.max_questions {
        // Take the two best-ranked live candidates.
        match forms.question(ont, live[0], live[1], rng, cfg.prov_limit) {
            Some((keep, other, res, prov)) => {
                let answer = oracle.accept(ont, res, &prov);
                let eliminated = if answer { other } else { keep };
                transcript.push(QuestionRecord {
                    result: res,
                    provenance: prov,
                    kept_candidate: if answer { keep } else { other },
                    eliminated_candidate: eliminated,
                    answer,
                });
                live.retain(|&c| c != eliminated);
            }
            None => {
                // Indistinguishable on this ontology: keep the
                // better-ranked candidate.
                live.remove(1);
            }
        }
    }

    questpro_trace::add("questions", transcript.len() as u64);
    let chosen_index = live[0];
    FeedbackOutcome {
        chosen: forms.all(chosen_index).clone(),
        chosen_index,
        transcript,
    }
}

/// Both difference-query forms of every candidate — `Q^all` and `Q^no`
/// — with their result sets evaluated lazily, each at most once across
/// all questions (the paper's Section V concern about not re-running
/// full evaluations, taken one step further).
///
/// Before any evaluation, a pair is decided statically when
/// `Q_i^all ⊑ Q_j^no` holds by the frozen-instance containment test: the
/// difference is then empty on every ontology. Top-k unions often carry
/// a branch that is a constant specialization of another branch, so
/// most candidate pairs are decided this way. The skip is exact: an
/// empty difference draws nothing from the RNG, so questions, answers
/// and the random-draw sequence are the same as with evaluation.
#[derive(Debug, Clone)]
pub struct CandidateForms {
    alls: Vec<UnionQuery>,
    nones: Vec<UnionQuery>,
    all_results: Vec<Option<BTreeSet<NodeId>>>,
    none_results: Vec<Option<BTreeSet<NodeId>>>,
    static_empty: usize,
    onto_reused: u64,
}

impl CandidateForms {
    /// Builds `Q^all` (all admissible disequalities, inferred from
    /// `examples`) and `Q^no` (none) for every candidate. The
    /// disequalities are read off onto matches looked up in `cache`:
    /// candidates share branches, and a session start passes the cache
    /// its inference filled, so most matches are found, not searched.
    pub fn new(
        ont: &Ontology,
        candidates: &[UnionQuery],
        examples: &ExampleSet,
        cache: &mut ConsistencyCache,
    ) -> Self {
        cache.mark();
        let alls: Vec<UnionQuery> = candidates
            .iter()
            .map(|q| with_all_diseqs_cached(ont, q, examples, cache))
            .collect();
        let nones = candidates.iter().map(UnionQuery::without_diseqs).collect();
        let n = candidates.len();
        Self {
            alls,
            nones,
            all_results: vec![None; n],
            none_results: vec![None; n],
            static_empty: 0,
            onto_reused: cache.reused(),
        }
    }

    /// Candidate `i` with all its admissible disequalities.
    pub fn all(&self, i: usize) -> &UnionQuery {
        &self.alls[i]
    }

    /// How many [`CandidateForms::witness`] calls containment decided
    /// without evaluating either side.
    pub fn static_empty(&self) -> usize {
        self.static_empty
    }

    /// How many of [`CandidateForms::new`]'s onto-match lookups an entry
    /// already in the cache it was given answered: on a session start,
    /// the disequality lookups served from inference's matches.
    pub fn onto_reused(&self) -> u64 {
        self.onto_reused
    }

    /// Samples a witness of `Q_i^all − Q_j^no` with one provenance graph
    /// w.r.t. `Q_i^all` (sampled among the first `prov_limit` images);
    /// `None` when the difference is empty.
    pub fn witness<R: Rng>(
        &mut self,
        ont: &Ontology,
        i: usize,
        j: usize,
        rng: &mut R,
        prov_limit: usize,
    ) -> Option<(NodeId, Subgraph)> {
        if union_contained_in(&self.alls[i], &self.nones[j]) {
            self.static_empty += 1;
            questpro_trace::add("static_empty", 1);
            return None;
        }
        let ra = self.all_results[i].get_or_insert_with(|| evaluate_union(ont, &self.alls[i]));
        let rb = self.none_results[j].get_or_insert_with(|| evaluate_union(ont, &self.nones[j]));
        let res = ra.difference(rb).copied().choose(rng)?;
        let img = provenance_of_union(ont, &self.alls[i], res, Some(prov_limit.max(1)))
            .into_iter()
            .choose(rng)
            .expect("a result of Q^all has provenance w.r.t. Q^all");
        Some((res, img))
    }

    /// One Algorithm 3 question for the live pair `(i, j)`: a witness of
    /// `Q_i^all − Q_j^no`, else of `Q_j^all − Q_i^no`. Returns
    /// `(keep, other, result, provenance)` — *yes* eliminates `other`,
    /// *no* eliminates `keep` — or `None` when the pair is
    /// indistinguishable on this ontology.
    pub fn question<R: Rng>(
        &mut self,
        ont: &Ontology,
        i: usize,
        j: usize,
        rng: &mut R,
        prov_limit: usize,
    ) -> Option<(usize, usize, NodeId, Subgraph)> {
        let _q = questpro_trace::span("feedback.question");
        if let Some((res, prov)) = self.witness(ont, i, j, rng, prov_limit) {
            return Some((i, j, res, prov));
        }
        let (res, prov) = self.witness(ont, j, i, rng, prov_limit)?;
        Some((j, i, res, prov))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ScriptedOracle, TargetOracle};
    use questpro_graph::rng::StdRng;
    use questpro_graph::Explanation;
    use questpro_query::SimpleQuery;

    /// Ontology with Erdos co-authors and unrelated authors, plus types.
    fn world() -> (Ontology, ExampleSet) {
        let mut b = Ontology::builder();
        for (p, a) in [
            ("paper3", "Carol"),
            ("paper3", "Erdos"),
            ("paper4", "Dave"),
            ("paper4", "Erdos"),
            ("paper5", "Frank"),
            ("paper5", "Gina"),
        ] {
            b.edge(p, "wb", a).unwrap();
        }
        for a in ["Carol", "Erdos", "Dave", "Frank", "Gina"] {
            b.typed_node(a, "Author").unwrap();
        }
        for p in ["paper3", "paper4", "paper5"] {
            b.typed_node(p, "Paper").unwrap();
        }
        let o = b.build();
        let e1 = Explanation::from_triples(
            &o,
            &[("paper3", "wb", "Carol"), ("paper3", "wb", "Erdos")],
            "Carol",
        )
        .unwrap();
        let e2 = Explanation::from_triples(
            &o,
            &[("paper4", "wb", "Dave"), ("paper4", "wb", "Erdos")],
            "Dave",
        )
        .unwrap();
        (o, ExampleSet::from_explanations(vec![e1, e2]))
    }

    fn coauthors_of_erdos() -> UnionQuery {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let e = b.constant("Erdos");
        b.edge(p, "wb", x).edge(p, "wb", e).project(x);
        UnionQuery::single(b.build().unwrap())
    }

    fn coauthors_of_anyone() -> UnionQuery {
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let other = b.var("other");
        b.edge(p, "wb", x).edge(p, "wb", other).project(x);
        UnionQuery::single(b.build().unwrap())
    }

    #[test]
    fn oracle_steers_to_the_intended_query() {
        let (o, examples) = world();
        let candidates = vec![coauthors_of_anyone(), coauthors_of_erdos()];
        // The intended query: co-authors of Erdos specifically.
        let mut oracle = TargetOracle::new(coauthors_of_erdos());
        let mut rng = StdRng::seed_from_u64(5);
        let out = choose_query(
            &o,
            &candidates,
            &examples,
            &mut oracle,
            &mut rng,
            &FeedbackConfig::default(),
        );
        assert_eq!(out.chosen_index, 1);
        assert_eq!(out.transcript.len(), 1);
        // The question showed some result of "co-authors of anyone" that
        // is not a co-author of Erdos (Frank or Gina), and the oracle
        // said no.
        let rec = &out.transcript[0];
        assert!(!rec.answer);
        let name = o.value_str(rec.result);
        assert!(["Frank", "Gina"].contains(&name));
    }

    #[test]
    fn yes_answer_keeps_the_broader_query() {
        let (o, examples) = world();
        let candidates = vec![coauthors_of_anyone(), coauthors_of_erdos()];
        // Intended: all co-authors — the broader candidate.
        let mut oracle = TargetOracle::new(coauthors_of_anyone());
        let mut rng = StdRng::seed_from_u64(5);
        let out = choose_query(
            &o,
            &candidates,
            &examples,
            &mut oracle,
            &mut rng,
            &FeedbackConfig::default(),
        );
        assert_eq!(out.chosen_index, 0);
        assert!(out.transcript[0].answer);
    }

    #[test]
    fn indistinguishable_candidates_default_to_rank() {
        let (o, examples) = world();
        // Two copies of the same query: both differences are empty.
        let candidates = vec![coauthors_of_erdos(), coauthors_of_erdos()];
        let mut oracle = ScriptedOracle::new(vec![]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = choose_query(
            &o,
            &candidates,
            &examples,
            &mut oracle,
            &mut rng,
            &FeedbackConfig::default(),
        );
        assert_eq!(out.chosen_index, 0);
        assert!(out.transcript.is_empty());
    }

    #[test]
    fn single_candidate_needs_no_questions() {
        let (o, examples) = world();
        let candidates = vec![coauthors_of_erdos()];
        let mut oracle = ScriptedOracle::new(vec![]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = choose_query(
            &o,
            &candidates,
            &examples,
            &mut oracle,
            &mut rng,
            &FeedbackConfig::default(),
        );
        assert_eq!(out.chosen_index, 0);
        assert!(out.transcript.is_empty());
        // The chosen form carries the inferred disequalities.
        assert!(out.chosen.diseq_count() > 0);
    }

    #[test]
    fn question_cap_is_respected() {
        let (o, examples) = world();
        let candidates = vec![
            coauthors_of_anyone(),
            coauthors_of_erdos(),
            UnionQuery::new(vec![
                coauthors_of_anyone().into_branches().remove(0),
                coauthors_of_erdos().into_branches().remove(0),
            ])
            .unwrap(),
        ];
        let mut oracle = TargetOracle::new(coauthors_of_erdos());
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = FeedbackConfig {
            max_questions: 1,
            ..Default::default()
        };
        let out = choose_query(&o, &candidates, &examples, &mut oracle, &mut rng, &cfg);
        assert!(out.transcript.len() <= 1);
    }
}
