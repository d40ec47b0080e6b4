//! End-to-end inference sessions: explanations in, one query out.
//!
//! A session chains the full QuestPro pipeline of Figure 5:
//!
//! 1. top-k inference over the example-set (`questpro-core`);
//! 2. augmentation of every candidate with all admissible disequalities;
//! 3. Algorithm 3's provenance-backed elimination down to one query;
//! 4. optionally, disequality refinement of the survivor.

use std::collections::BTreeSet;
use std::fmt;

use questpro_graph::rng::{Rng, StdRng};

use questpro_core::{infer_top_k_cached, infer_top_k_robust, InferenceStats, TopKConfig};
use questpro_engine::ConsistencyCache;
use questpro_graph::{exformat, ExampleSet, NodeId, Ontology, Subgraph};
use questpro_query::{sparql, QueryNodeId, UnionQuery};
use questpro_wire::Json;

use crate::algorithm3::{choose_query_cached, CandidateForms, FeedbackConfig, QuestionRecord};
use crate::oracle::Oracle;
use crate::refine::{drop_diseq, refine_diseqs};

/// Configuration of a full session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionConfig {
    /// Top-k inference parameters.
    pub topk: TopKConfig,
    /// Feedback-loop parameters.
    pub feedback: FeedbackConfig,
    /// Whether to run disequality refinement after candidate selection.
    pub refine: bool,
    /// Whether to diagnose and set aside suspect explanations (wrong
    /// provenance, Section VIII future work) before inference.
    pub robust: bool,
}

/// Result of a full session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The final query (with the user-approved disequalities).
    pub query: UnionQuery,
    /// The candidates that were produced by top-k inference.
    pub candidates: Vec<UnionQuery>,
    /// Inference instrumentation.
    pub stats: InferenceStats,
    /// Questions asked while choosing between candidates.
    pub selection_transcript: Vec<QuestionRecord>,
    /// Questions asked during disequality refinement.
    pub refinement_questions: usize,
    /// Indexes of explanations set aside as suspect (empty unless
    /// [`SessionConfig::robust`] is on and something was filtered).
    pub suspect_examples: Vec<usize>,
}

/// Runs the full pipeline.
///
/// # Panics
/// Panics if `examples` is empty.
pub fn run_session<O: Oracle, R: Rng>(
    ont: &Ontology,
    examples: &ExampleSet,
    oracle: &mut O,
    rng: &mut R,
    cfg: &SessionConfig,
) -> SessionResult {
    // One onto-match cache: the matches that verify inference's beam
    // states serve `Q^all` in the feedback loop.
    let mut onto = ConsistencyCache::new();
    let (candidates, suspect_examples, stats) = if cfg.robust {
        infer_top_k_robust(ont, examples, &cfg.topk, &mut onto)
    } else {
        let (c, s) = infer_top_k_cached(ont, examples, &cfg.topk, &mut onto);
        (c, Vec::new(), s)
    };
    // Disequality inference and feedback run against the explanations
    // that were actually used.
    let kept: questpro_graph::ExampleSet = examples
        .iter()
        .enumerate()
        .filter(|(i, _)| !suspect_examples.contains(i))
        .map(|(_, e)| e.clone())
        .collect();
    let outcome = choose_query_cached(
        ont,
        &candidates,
        &kept,
        oracle,
        rng,
        &cfg.feedback,
        &mut onto,
    );
    let (query, refinement_questions) = if cfg.refine {
        refine_diseqs(ont, &outcome.chosen, oracle, rng, &cfg.feedback)
    } else {
        (outcome.chosen, 0)
    };
    SessionResult {
        query,
        candidates,
        stats,
        selection_transcript: outcome.transcript,
        refinement_questions,
        suspect_examples,
    }
}

// ---------------------------------------------------------------------
// Incremental sessions
// ---------------------------------------------------------------------

/// Errors of the incremental session API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The example-set was empty (inference needs at least one).
    EmptyExamples,
    /// Inference produced no candidate (robust mode set every
    /// explanation aside).
    NoCandidates,
    /// `answer` was called with no question pending.
    NothingPending,
    /// A snapshot could not be decoded against this ontology.
    BadSnapshot(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::EmptyExamples => write!(f, "the example-set is empty"),
            SessionError::NoCandidates => write!(f, "inference produced no candidate query"),
            SessionError::NothingPending => write!(f, "no question is pending"),
            SessionError::BadSnapshot(m) => write!(f, "bad session snapshot: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Where an [`InteractiveSession`] stands in the Figure 5 pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Algorithm 3: eliminating candidates pairwise.
    Selecting,
    /// Disequality refinement of the surviving query.
    Refining,
    /// Finished; [`InteractiveSession::final_query`] is available.
    Done,
}

/// A question awaiting the user's yes/no answer.
#[derive(Debug, Clone)]
pub enum PendingQuestion {
    /// An Algorithm 3 elimination question: "should `result`, justified
    /// by `provenance`, be in the output?" — *yes* eliminates `other`,
    /// *no* eliminates `keep`.
    Select {
        /// The sampled difference result shown to the user.
        result: NodeId,
        /// Its provenance w.r.t. the `keep` candidate's `Q^all` form.
        provenance: Subgraph,
        /// Candidate whose difference produced the witness.
        keep: usize,
        /// The candidate eliminated on *yes*.
        other: usize,
    },
    /// A refinement question: "should the extra results admitted by
    /// dropping this disequality be included?" — *yes* drops the
    /// disequality, *no* approves (keeps) it.
    Refine {
        /// The sampled extra result.
        result: NodeId,
        /// Its provenance w.r.t. the diseq-free candidate.
        provenance: Subgraph,
        /// Branch index of the disequality under question.
        branch: usize,
        /// The disequality pair inside that branch.
        pair: (QueryNodeId, QueryNodeId),
    },
}

impl PendingQuestion {
    /// The result the user is asked about.
    pub fn result(&self) -> NodeId {
        match self {
            PendingQuestion::Select { result, .. } | PendingQuestion::Refine { result, .. } => {
                *result
            }
        }
    }

    /// The provenance graph shown alongside the result.
    pub fn provenance(&self) -> &Subgraph {
        match self {
            PendingQuestion::Select { provenance, .. }
            | PendingQuestion::Refine { provenance, .. } => provenance,
        }
    }
}

/// One answered question, as telemetry sees it.
///
/// Everything here except `wall_ns` is deterministic for a fixed seed
/// and answer sequence; wall clocks are telemetry only and never enter
/// a determinism oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundLog {
    /// True for a refinement question, false for a selection one.
    pub refine: bool,
    /// The user's verdict.
    pub answer: bool,
    /// Live candidate-pool size after the answer was applied.
    pub pool: usize,
    /// Wall nanoseconds spent applying the answer (including advancing
    /// to the next question).
    pub wall_ns: u64,
}

/// The paper's feedback loop as a resumable state machine.
///
/// [`run_session`] drives the whole pipeline against an [`Oracle`] in
/// one call — the right shape for a CLI process that owns its user. A
/// server cannot block a worker thread on a human: `questpro-server`
/// holds one `InteractiveSession` per remote user and feeds answers in
/// as they arrive over HTTP. The machine replays **exactly** the
/// random-draw sequence of `choose_query` + `refine_diseqs`, so a
/// session driven step-by-step produces byte-identical output to the
/// one-shot path under the same seed and answers (asserted by the
/// `interactive_matches_one_shot` test).
///
/// Sessions survive process restarts: [`InteractiveSession::snapshot`]
/// serializes the full state (including the RNG position) to wire JSON
/// and [`InteractiveSession::restore`] resumes it against the same
/// ontology.
#[derive(Debug, Clone)]
pub struct InteractiveSession {
    cfg: SessionConfig,
    seed: u64,
    /// The explanations actually used (post robust filtering).
    examples: ExampleSet,
    suspect: Vec<usize>,
    candidates: Vec<UnionQuery>,
    /// The candidates' `Q^all`/`Q^no` forms and their lazy result sets.
    /// Rebuilt by `restore`, so its `static_empty` count (log-only)
    /// restarts there and snapshots stay unchanged.
    forms: CandidateForms,
    live: Vec<usize>,
    transcript: Vec<QuestionRecord>,
    stats: InferenceStats,
    rng: StdRng,
    phase: Phase,
    pending: Option<PendingQuestion>,
    chosen_index: Option<usize>,
    /// Refinement working query (`Some` while refining and when done
    /// after a refining phase).
    current: Option<UnionQuery>,
    approved: Vec<(usize, (QueryNodeId, QueryNodeId))>,
    refine_questions: usize,
    final_query: Option<UnionQuery>,
    /// Telemetry: one entry per answered question.
    rounds_log: Vec<RoundLog>,
    /// Telemetry: cumulative wall nanoseconds across `start` and every
    /// `answer` (survives snapshot/restore; restore itself is unpaid).
    wall_ns: u64,
}

impl InteractiveSession {
    /// Runs top-k inference and advances to the first question (or all
    /// the way to `Done` when one candidate wins outright).
    ///
    /// # Errors
    /// [`SessionError::EmptyExamples`] when `examples` is empty,
    /// [`SessionError::NoCandidates`] when inference returns nothing.
    pub fn start(
        ont: &Ontology,
        examples: &ExampleSet,
        cfg: &SessionConfig,
        seed: u64,
    ) -> Result<Self, SessionError> {
        let _t = questpro_trace::span("feedback.session.start");
        let t0 = std::time::Instant::now();
        if examples.is_empty() {
            return Err(SessionError::EmptyExamples);
        }
        // One onto-match cache for the whole start: the matches that
        // verify inference's beam states serve `Q^all` below.
        let mut onto = ConsistencyCache::new();
        let (candidates, suspect, stats) = if cfg.robust {
            infer_top_k_robust(ont, examples, &cfg.topk, &mut onto)
        } else {
            let (c, s) = infer_top_k_cached(ont, examples, &cfg.topk, &mut onto);
            (c, Vec::new(), s)
        };
        if candidates.is_empty() {
            return Err(SessionError::NoCandidates);
        }
        let kept: ExampleSet = examples
            .iter()
            .enumerate()
            .filter(|(i, _)| !suspect.contains(i))
            .map(|(_, e)| e.clone())
            .collect();
        let forms = CandidateForms::new(ont, &candidates, &kept, &mut onto);
        let mut s = Self {
            cfg: *cfg,
            seed,
            examples: kept,
            suspect,
            live: (0..candidates.len()).collect(),
            candidates,
            forms,
            transcript: Vec::new(),
            stats,
            rng: StdRng::seed_from_u64(seed),
            phase: Phase::Selecting,
            pending: None,
            chosen_index: None,
            current: None,
            approved: Vec::new(),
            refine_questions: 0,
            final_query: None,
            rounds_log: Vec::new(),
            wall_ns: 0,
        };
        s.advance(ont);
        s.wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if s.is_done() {
            s.log_session_summary();
        }
        if questpro_log::enabled(questpro_log::Level::Info) {
            questpro_log::emit(
                questpro_log::Level::Info,
                "feedback.session",
                "interactive session started",
                vec![
                    ("candidates", s.candidates.len().into()),
                    ("examples", s.examples.len().into()),
                    ("suspect_examples", s.suspect.len().into()),
                    ("static_empty", s.forms.static_empty().into()),
                    ("onto_reused", s.forms.onto_reused().into()),
                    ("seed", seed.into()),
                ],
            );
        }
        Ok(s)
    }

    /// Answers the pending question and advances to the next one (or to
    /// `Done`).
    ///
    /// # Errors
    /// [`SessionError::NothingPending`] when no question is pending.
    pub fn answer(&mut self, ont: &Ontology, answer: bool) -> Result<(), SessionError> {
        let _t = questpro_trace::span("feedback.session.answer");
        let t0 = std::time::Instant::now();
        let Some(pending) = self.pending.take() else {
            return Err(SessionError::NothingPending);
        };
        let kind = match pending {
            PendingQuestion::Select { .. } => "select",
            PendingQuestion::Refine { .. } => "refine",
        };
        match pending {
            PendingQuestion::Select {
                result,
                provenance,
                keep,
                other,
            } => {
                let eliminated = if answer { other } else { keep };
                self.transcript.push(QuestionRecord {
                    result,
                    provenance,
                    kept_candidate: if answer { keep } else { other },
                    eliminated_candidate: eliminated,
                    answer,
                });
                self.live.retain(|&c| c != eliminated);
            }
            PendingQuestion::Refine { branch, pair, .. } => {
                let current = self.current.as_ref().expect("refining implies current");
                if answer {
                    self.current = Some(drop_diseq(current, branch, pair));
                } else {
                    self.approved.push((branch, pair));
                }
            }
        }
        self.advance(ont);
        let round_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wall_ns = self.wall_ns.saturating_add(round_ns);
        self.rounds_log.push(RoundLog {
            refine: kind == "refine",
            answer,
            pool: self.live.len(),
            wall_ns: round_ns,
        });
        if self.is_done() {
            self.log_session_summary();
        }
        if questpro_log::enabled(questpro_log::Level::Info) {
            questpro_log::emit(
                questpro_log::Level::Info,
                "feedback.session",
                "feedback answer applied",
                vec![
                    ("question", kind.into()),
                    ("answer", answer.into()),
                    ("live_candidates", self.live.len().into()),
                    ("done", matches!(self.phase, Phase::Done).into()),
                ],
            );
        }
        Ok(())
    }

    /// Drives the state machine forward until a question blocks or the
    /// pipeline finishes; mirrors `choose_query` / `refine_diseqs` draw
    /// for draw.
    fn advance(&mut self, ont: &Ontology) {
        self.pending = None;
        loop {
            match self.phase {
                Phase::Selecting => {
                    if self.live.len() > 1
                        && self.transcript.len() < self.cfg.feedback.max_questions
                    {
                        match self.forms.question(
                            ont,
                            self.live[0],
                            self.live[1],
                            &mut self.rng,
                            self.cfg.feedback.prov_limit,
                        ) {
                            Some((keep, other, result, provenance)) => {
                                self.pending = Some(PendingQuestion::Select {
                                    result,
                                    provenance,
                                    keep,
                                    other,
                                });
                                return;
                            }
                            None => {
                                // Indistinguishable on this ontology.
                                self.live.remove(1);
                            }
                        }
                    } else {
                        let chosen = self.live[0];
                        self.chosen_index = Some(chosen);
                        let q = self.forms.all(chosen).clone();
                        if self.cfg.refine {
                            self.current = Some(q);
                            self.phase = Phase::Refining;
                        } else {
                            self.final_query = Some(q);
                            self.phase = Phase::Done;
                            return;
                        }
                    }
                }
                Phase::Refining => {
                    let current = self.current.clone().expect("refining implies current");
                    if self.refine_questions >= self.cfg.feedback.max_questions {
                        self.final_query = Some(current);
                        self.phase = Phase::Done;
                        return;
                    }
                    let mut asked = false;
                    'scan: for b in 0..current.len() {
                        let diseqs: Vec<_> = current.branches()[b].diseqs().to_vec();
                        for &pair in &diseqs {
                            if self.approved.contains(&(b, pair)) {
                                continue;
                            }
                            let candidate = drop_diseq(&current, b, pair);
                            match questpro_engine::difference_with_witness(
                                ont,
                                &candidate,
                                &current,
                                &mut self.rng,
                                self.cfg.feedback.prov_limit,
                            ) {
                                Some((result, provenance)) => {
                                    self.refine_questions += 1;
                                    self.pending = Some(PendingQuestion::Refine {
                                        result,
                                        provenance,
                                        branch: b,
                                        pair,
                                    });
                                    asked = true;
                                    break 'scan;
                                }
                                None => {
                                    // Unobservable on this ontology.
                                    self.approved.push((b, pair));
                                }
                            }
                        }
                    }
                    if asked {
                        return;
                    }
                    self.final_query = Some(current);
                    self.phase = Phase::Done;
                    return;
                }
                Phase::Done => return,
            }
        }
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether the pipeline has finished.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The question awaiting an answer, if any.
    pub fn pending(&self) -> Option<&PendingQuestion> {
        self.pending.as_ref()
    }

    /// The candidates produced by top-k inference, in rank order.
    pub fn candidates(&self) -> &[UnionQuery] {
        &self.candidates
    }

    /// Indexes of candidates still alive in the elimination.
    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// The questions asked and answered so far (selection phase).
    pub fn transcript(&self) -> &[QuestionRecord] {
        &self.transcript
    }

    /// Number of refinement questions asked so far.
    pub fn refine_questions(&self) -> usize {
        self.refine_questions
    }

    /// Inference instrumentation of the top-k run.
    pub fn stats(&self) -> &InferenceStats {
        &self.stats
    }

    /// Explanations set aside as suspect (robust mode).
    pub fn suspect_examples(&self) -> &[usize] {
        &self.suspect
    }

    /// Telemetry round log: one entry per answered question.
    pub fn rounds_log(&self) -> &[RoundLog] {
        &self.rounds_log
    }

    /// Cumulative wall nanoseconds spent in `start` and `answer`.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// The info-level session summary, emitted exactly once: on the
    /// transition to [`Phase::Done`].
    fn log_session_summary(&self) {
        if !questpro_log::enabled(questpro_log::Level::Info) {
            return;
        }
        let yes = self.rounds_log.iter().filter(|r| r.answer).count();
        questpro_log::emit(
            questpro_log::Level::Info,
            "feedback.session",
            "session converged",
            vec![
                ("rounds", self.rounds_log.len().into()),
                (
                    "questions",
                    (self.transcript.len() + self.refine_questions).into(),
                ),
                ("yes", yes.into()),
                ("no", (self.rounds_log.len() - yes).into()),
                ("candidates", self.candidates.len().into()),
                ("static_empty", self.forms.static_empty().into()),
                ("wall_us", (self.wall_ns / 1_000).into()),
            ],
        );
    }

    /// Packages this session as a [`questpro_telemetry::SessionRecord`]
    /// for the aggregator. The session does not know its own pin or
    /// trace — the caller (server, CLI, bench) supplies the ontology
    /// name, pinned version, terminal outcome, and trace ID.
    pub fn telemetry_record(
        &self,
        ontology: &str,
        version: u64,
        outcome: questpro_telemetry::Outcome,
        trace_id: u64,
    ) -> questpro_telemetry::SessionRecord {
        let yes = self.rounds_log.iter().filter(|r| r.answer).count() as u64;
        questpro_telemetry::SessionRecord {
            trace_id,
            ontology: ontology.to_string(),
            version,
            outcome,
            rounds: self.rounds_log.len() as u64,
            questions: (self.transcript.len() + self.refine_questions) as u64,
            yes,
            no: self.rounds_log.len() as u64 - yes,
            pool_sizes: self.rounds_log.iter().map(|r| r.pool as u64).collect(),
            round_wall_ns: self.rounds_log.iter().map(|r| r.wall_ns).collect(),
            wall_ns: self.wall_ns,
            consistency_checks: self.stats.consistency_checks as u64,
            consistency_hits: self.stats.consistency_cache_hits as u64,
            merge_lookups: self.stats.merge_cache_lookups() as u64,
            merge_hits: self.stats.merge_cache_hits as u64,
        }
    }

    /// The final query, once [`InteractiveSession::is_done`].
    pub fn final_query(&self) -> Option<&UnionQuery> {
        self.final_query.as_ref()
    }

    /// Packages the finished session as a [`SessionResult`]; `None`
    /// until done.
    pub fn into_result(self) -> Option<SessionResult> {
        Some(SessionResult {
            query: self.final_query?,
            candidates: self.candidates,
            stats: self.stats,
            selection_transcript: self.transcript,
            refinement_questions: self.refine_questions,
            suspect_examples: self.suspect,
        })
    }

    // -- persistence --------------------------------------------------

    /// Serializes the full session state — configuration, RNG position,
    /// candidates, elimination progress, pending question — to wire
    /// JSON. [`InteractiveSession::restore`] resumes it exactly.
    pub fn snapshot(&self, ont: &Ontology) -> Json {
        let queries = |qs: &[UnionQuery]| {
            Json::Arr(
                qs.iter()
                    .map(|q| Json::str(sparql::format_union(q)))
                    .collect(),
            )
        };
        let pending = match &self.pending {
            None => Json::Null,
            Some(PendingQuestion::Select {
                result,
                provenance,
                keep,
                other,
            }) => Json::obj([
                ("kind", Json::str("select")),
                ("result", Json::str(ont.value_str(*result))),
                ("provenance", subgraph_to_json(ont, provenance)),
                ("keep", Json::from(*keep)),
                ("other", Json::from(*other)),
            ]),
            Some(PendingQuestion::Refine {
                result,
                provenance,
                branch,
                pair,
            }) => Json::obj([
                ("kind", Json::str("refine")),
                ("result", Json::str(ont.value_str(*result))),
                ("provenance", subgraph_to_json(ont, provenance)),
                ("branch", Json::from(*branch)),
                (
                    "pair",
                    diseq_pair_to_json(
                        self.current.as_ref().expect("refining implies current"),
                        *branch,
                        *pair,
                    ),
                ),
            ]),
        };
        Json::obj([
            ("version", Json::from(1u64)),
            (
                "config",
                Json::obj([
                    ("k", Json::from(self.cfg.topk.k)),
                    ("w1", Json::Num(self.cfg.topk.weights.w1)),
                    ("w2", Json::Num(self.cfg.topk.weights.w2)),
                    ("g1", Json::Num(self.cfg.topk.greedy.weights.w1)),
                    ("g2", Json::Num(self.cfg.topk.greedy.weights.w2)),
                    ("g3", Json::Num(self.cfg.topk.greedy.weights.w3)),
                    ("num_iter", Json::from(self.cfg.topk.greedy.num_iter)),
                    (
                        "allow_optional",
                        Json::Bool(self.cfg.topk.greedy.allow_optional),
                    ),
                    ("threads", Json::from(self.cfg.topk.threads)),
                    ("refine", Json::Bool(self.cfg.refine)),
                    ("robust", Json::Bool(self.cfg.robust)),
                    ("prov_limit", Json::from(self.cfg.feedback.prov_limit)),
                    ("max_questions", Json::from(self.cfg.feedback.max_questions)),
                ]),
            ),
            ("seed", Json::str(self.seed.to_string())),
            (
                "rng",
                Json::Arr(
                    self.rng
                        .state()
                        .iter()
                        .map(|w| Json::str(w.to_string()))
                        .collect(),
                ),
            ),
            (
                "examples",
                Json::str(exformat::serialize_examples(ont, &self.examples)),
            ),
            (
                "suspect",
                Json::Arr(self.suspect.iter().map(|&i| Json::from(i)).collect()),
            ),
            ("candidates", queries(&self.candidates)),
            (
                "live",
                Json::Arr(self.live.iter().map(|&i| Json::from(i)).collect()),
            ),
            (
                "transcript",
                Json::Arr(
                    self.transcript
                        .iter()
                        .map(|rec| {
                            Json::obj([
                                ("result", Json::str(ont.value_str(rec.result))),
                                ("provenance", subgraph_to_json(ont, &rec.provenance)),
                                ("kept", Json::from(rec.kept_candidate)),
                                ("eliminated", Json::from(rec.eliminated_candidate)),
                                ("answer", Json::Bool(rec.answer)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "phase",
                Json::str(match self.phase {
                    Phase::Selecting => "selecting",
                    Phase::Refining => "refining",
                    Phase::Done => "done",
                }),
            ),
            ("pending", pending),
            (
                "chosen_index",
                self.chosen_index.map_or(Json::Null, Json::from),
            ),
            (
                "current",
                self.current
                    .as_ref()
                    .map_or(Json::Null, |q| Json::str(sparql::format_union(q))),
            ),
            (
                "approved",
                Json::Arr(
                    self.approved
                        .iter()
                        .map(|&(b, pair)| {
                            Json::Arr(vec![
                                Json::from(b),
                                diseq_pair_to_json(
                                    self.current.as_ref().expect("approved implies current"),
                                    b,
                                    pair,
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("refine_questions", Json::from(self.refine_questions)),
            // Telemetry round log: additive under snapshot version 1
            // (restore ignores unknown keys, so old readers skip it and
            // old snapshots restore with an empty log).
            (
                "rounds_log",
                Json::Arr(
                    self.rounds_log
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("refine", Json::Bool(r.refine)),
                                ("answer", Json::Bool(r.answer)),
                                ("pool", Json::from(r.pool)),
                                ("wall_ns", Json::str(r.wall_ns.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("wall_ns", Json::str(self.wall_ns.to_string())),
            (
                "final",
                self.final_query
                    .as_ref()
                    .map_or(Json::Null, |q| Json::str(sparql::format_union(q))),
            ),
            (
                "stats",
                Json::obj([
                    ("algorithm1_calls", Json::from(self.stats.algorithm1_calls)),
                    ("merges_applied", Json::from(self.stats.merges_applied)),
                    ("states_examined", Json::from(self.stats.states_examined)),
                    ("rounds", Json::from(self.stats.rounds)),
                    ("merge_cache_hits", Json::from(self.stats.merge_cache_hits)),
                    (
                        "consistency_checks",
                        Json::from(self.stats.consistency_checks),
                    ),
                    (
                        "consistency_cache_hits",
                        Json::from(self.stats.consistency_cache_hits),
                    ),
                ]),
            ),
        ])
    }

    /// Rebuilds a session from a [`InteractiveSession::snapshot`] taken
    /// against the same ontology.
    ///
    /// # Errors
    /// [`SessionError::BadSnapshot`] on any missing field, malformed
    /// query text, or value unknown to `ont`.
    pub fn restore(ont: &Ontology, snap: &Json) -> Result<Self, SessionError> {
        let bad = |m: &str| SessionError::BadSnapshot(m.to_string());
        let version = snap
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing version"))?;
        if version != 1 {
            return Err(SessionError::BadSnapshot(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let cfg_j = snap.get("config").ok_or_else(|| bad("missing config"))?;
        let field = |key: &str| {
            cfg_j
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| SessionError::BadSnapshot(format!("missing config.{key}")))
        };
        let fieldf = |key: &str| {
            cfg_j
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| SessionError::BadSnapshot(format!("missing config.{key}")))
        };
        let fieldb = |key: &str| {
            cfg_j
                .get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| SessionError::BadSnapshot(format!("missing config.{key}")))
        };
        let cfg = SessionConfig {
            topk: TopKConfig {
                k: field("k")?,
                weights: questpro_query::GeneralizationWeights::new(fieldf("w1")?, fieldf("w2")?),
                greedy: questpro_core::GreedyConfig {
                    weights: questpro_core::GainWeights::new(
                        fieldf("g1")?,
                        fieldf("g2")?,
                        fieldf("g3")?,
                    ),
                    num_iter: field("num_iter")?,
                    allow_optional: fieldb("allow_optional")?,
                },
                threads: field("threads")?,
            },
            feedback: FeedbackConfig {
                prov_limit: field("prov_limit")?,
                max_questions: field("max_questions")?,
            },
            refine: fieldb("refine")?,
            robust: fieldb("robust")?,
        };
        let seed: u64 = snap
            .get("seed")
            .and_then(Json::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("missing seed"))?;
        let rng_words = snap
            .get("rng")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing rng"))?;
        if rng_words.len() != 4 {
            return Err(bad("rng state must have 4 words"));
        }
        let mut state = [0u64; 4];
        for (i, w) in rng_words.iter().enumerate() {
            state[i] = w
                .as_str()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("malformed rng word"))?;
        }
        let examples_text = snap
            .get("examples")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing examples"))?;
        let examples = exformat::parse_examples(ont, examples_text)
            .map_err(|e| SessionError::BadSnapshot(format!("examples: {e}")))?;
        let parse_query = |j: &Json| -> Result<UnionQuery, SessionError> {
            let text = j
                .as_str()
                .ok_or_else(|| bad("query field must be a string"))?;
            sparql::parse_union(text).map_err(|e| SessionError::BadSnapshot(format!("query: {e}")))
        };
        let candidates: Vec<UnionQuery> = snap
            .get("candidates")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing candidates"))?
            .iter()
            .map(parse_query)
            .collect::<Result<_, _>>()?;
        if candidates.is_empty() {
            return Err(bad("snapshot has no candidates"));
        }
        let usize_arr = |key: &str| -> Result<Vec<usize>, SessionError> {
            snap.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| SessionError::BadSnapshot(format!("missing {key}")))?
                .iter()
                .map(|j| {
                    j.as_usize()
                        .ok_or_else(|| SessionError::BadSnapshot(format!("malformed {key}")))
                })
                .collect()
        };
        let live = usize_arr("live")?;
        if live.is_empty() || live.iter().any(|&i| i >= candidates.len()) {
            return Err(bad("live indexes out of range"));
        }
        let suspect = usize_arr("suspect")?;
        let node_of = |j: Option<&Json>| -> Result<NodeId, SessionError> {
            let v = j
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing result value"))?;
            ont.node_by_value(v)
                .ok_or_else(|| SessionError::BadSnapshot(format!("unknown value {v:?}")))
        };
        let transcript = snap
            .get("transcript")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing transcript"))?
            .iter()
            .map(|rec| {
                Ok(QuestionRecord {
                    result: node_of(rec.get("result"))?,
                    provenance: subgraph_from_json(
                        ont,
                        rec.get("provenance")
                            .ok_or_else(|| bad("missing provenance"))?,
                    )?,
                    kept_candidate: rec
                        .get("kept")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| bad("missing kept"))?,
                    eliminated_candidate: rec
                        .get("eliminated")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| bad("missing eliminated"))?,
                    answer: rec
                        .get("answer")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| bad("missing answer"))?,
                })
            })
            .collect::<Result<Vec<_>, SessionError>>()?;
        let phase = match snap.get("phase").and_then(Json::as_str) {
            Some("selecting") => Phase::Selecting,
            Some("refining") => Phase::Refining,
            Some("done") => Phase::Done,
            _ => return Err(bad("missing or unknown phase")),
        };
        let current = match snap.get("current") {
            None | Some(Json::Null) => None,
            Some(j) => Some(parse_query(j)?),
        };
        if phase == Phase::Refining && current.is_none() {
            return Err(bad("refining phase requires a current query"));
        }
        let approved = snap
            .get("approved")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing approved"))?
            .iter()
            .map(|j| {
                let items = j.as_arr().ok_or_else(|| bad("malformed approved entry"))?;
                let (b_j, pair_j) = match items {
                    [b, p] => (b, p),
                    _ => return Err(bad("malformed approved entry")),
                };
                let b = b_j
                    .as_usize()
                    .ok_or_else(|| bad("malformed approved entry"))?;
                let q = current
                    .as_ref()
                    .ok_or_else(|| bad("approved without current"))?;
                Ok((b, diseq_pair_from_json(q, b, pair_j)?))
            })
            .collect::<Result<Vec<_>, SessionError>>()?;
        let pending = match snap.get("pending") {
            None | Some(Json::Null) => None,
            Some(p) => {
                let result = node_of(p.get("result"))?;
                let provenance = subgraph_from_json(
                    ont,
                    p.get("provenance")
                        .ok_or_else(|| bad("missing provenance"))?,
                )?;
                match p.get("kind").and_then(Json::as_str) {
                    Some("select") => Some(PendingQuestion::Select {
                        result,
                        provenance,
                        keep: p
                            .get("keep")
                            .and_then(Json::as_usize)
                            .ok_or_else(|| bad("missing keep"))?,
                        other: p
                            .get("other")
                            .and_then(Json::as_usize)
                            .ok_or_else(|| bad("missing other"))?,
                    }),
                    Some("refine") => {
                        let branch = p
                            .get("branch")
                            .and_then(Json::as_usize)
                            .ok_or_else(|| bad("missing branch"))?;
                        let q = current
                            .as_ref()
                            .ok_or_else(|| bad("refine pending without current"))?;
                        let pair = diseq_pair_from_json(
                            q,
                            branch,
                            p.get("pair").ok_or_else(|| bad("missing pair"))?,
                        )?;
                        Some(PendingQuestion::Refine {
                            result,
                            provenance,
                            branch,
                            pair,
                        })
                    }
                    _ => return Err(bad("unknown pending kind")),
                }
            }
        };
        let final_query = match snap.get("final") {
            None | Some(Json::Null) => None,
            Some(j) => Some(parse_query(j)?),
        };
        if phase == Phase::Done && final_query.is_none() {
            return Err(bad("done phase requires a final query"));
        }
        let stats_j = snap.get("stats").ok_or_else(|| bad("missing stats"))?;
        let stat = |key: &str| stats_j.get(key).and_then(Json::as_usize).unwrap_or(0);
        let stats = InferenceStats {
            algorithm1_calls: stat("algorithm1_calls"),
            merges_applied: stat("merges_applied"),
            states_examined: stat("states_examined"),
            rounds: stat("rounds"),
            merge_cache_hits: stat("merge_cache_hits"),
            consistency_checks: stat("consistency_checks"),
            consistency_cache_hits: stat("consistency_cache_hits"),
            ..Default::default()
        };
        let forms = CandidateForms::new(ont, &candidates, &examples, &mut ConsistencyCache::new());
        Ok(Self {
            cfg,
            seed,
            examples,
            suspect,
            candidates,
            forms,
            live,
            transcript,
            stats,
            rng: StdRng::from_state(state),
            phase,
            pending,
            chosen_index: snap.get("chosen_index").and_then(Json::as_usize),
            current,
            approved,
            refine_questions: snap
                .get("refine_questions")
                .and_then(Json::as_usize)
                .unwrap_or(0),
            final_query,
            // Telemetry-only fields: lenient (absent in pre-PR-10
            // snapshots; a malformed entry degrades to zeros rather
            // than rejecting an otherwise valid session).
            rounds_log: snap
                .get("rounds_log")
                .and_then(Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .map(|r| RoundLog {
                            refine: r.get("refine").and_then(Json::as_bool).unwrap_or(false),
                            answer: r.get("answer").and_then(Json::as_bool).unwrap_or(false),
                            pool: r.get("pool").and_then(Json::as_usize).unwrap_or(0),
                            wall_ns: r
                                .get("wall_ns")
                                .and_then(Json::as_str)
                                .and_then(|s| s.parse().ok())
                                .unwrap_or(0),
                        })
                        .collect()
                })
                .unwrap_or_default(),
            wall_ns: snap
                .get("wall_ns")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
        })
    }
}

/// Serializes a subgraph as `{edges: [[src,pred,dst]...], nodes: [v...]}`
/// (nodes lists only the isolated ones; endpoints are implied).
fn subgraph_to_json(ont: &Ontology, sub: &Subgraph) -> Json {
    let edges: Vec<Json> = sub
        .edges()
        .iter()
        .map(|&e| {
            let d = ont.edge(e);
            Json::Arr(vec![
                Json::str(ont.value_str(d.src)),
                Json::str(ont.pred_str(d.pred)),
                Json::str(ont.value_str(d.dst)),
            ])
        })
        .collect();
    let endpoint: BTreeSet<NodeId> = sub
        .edges()
        .iter()
        .flat_map(|&e| {
            let d = ont.edge(e);
            [d.src, d.dst]
        })
        .collect();
    let isolated: Vec<Json> = sub
        .nodes()
        .iter()
        .filter(|n| !endpoint.contains(n))
        .map(|&n| Json::str(ont.value_str(n)))
        .collect();
    Json::obj([("edges", Json::Arr(edges)), ("nodes", Json::Arr(isolated))])
}

/// Inverse of [`subgraph_to_json`].
fn subgraph_from_json(ont: &Ontology, j: &Json) -> Result<Subgraph, SessionError> {
    let bad = |m: String| SessionError::BadSnapshot(m);
    let mut edges = Vec::new();
    for e in j.get("edges").and_then(Json::as_arr).unwrap_or(&[]) {
        let items = e
            .as_arr()
            .ok_or_else(|| bad("edge must be a triple".into()))?;
        let [s, p, d] = items else {
            return Err(bad("edge must be a triple".into()));
        };
        let (s, p, d) = (
            s.as_str().ok_or_else(|| bad("edge field".into()))?,
            p.as_str().ok_or_else(|| bad("edge field".into()))?,
            d.as_str().ok_or_else(|| bad("edge field".into()))?,
        );
        let src = ont
            .node_by_value(s)
            .ok_or_else(|| bad(format!("unknown value {s:?}")))?;
        let dst = ont
            .node_by_value(d)
            .ok_or_else(|| bad(format!("unknown value {d:?}")))?;
        let pred = ont
            .pred_by_name(p)
            .ok_or_else(|| bad(format!("unknown predicate {p:?}")))?;
        edges.push(
            ont.find_edge(src, pred, dst)
                .ok_or_else(|| bad(format!("no edge {s} {p} {d}")))?,
        );
    }
    let mut nodes = Vec::new();
    for n in j.get("nodes").and_then(Json::as_arr).unwrap_or(&[]) {
        let v = n.as_str().ok_or_else(|| bad("node field".into()))?;
        nodes.push(
            ont.node_by_value(v)
                .ok_or_else(|| bad(format!("unknown value {v:?}")))?,
        );
    }
    Ok(Subgraph::from_parts(ont, edges, nodes))
}

/// Serializes a disequality pair of `q`'s branch `b` as tagged labels —
/// `["var", name]` or `["const", value]` per endpoint — stable across
/// SPARQL round-trips, unlike raw node indexes.
fn diseq_pair_to_json(q: &UnionQuery, b: usize, pair: (QueryNodeId, QueryNodeId)) -> Json {
    let branch = &q.branches()[b];
    let endpoint = |n: QueryNodeId| match branch.label(n) {
        questpro_query::NodeLabel::Var(v) => {
            Json::Arr(vec![Json::str("var"), Json::str(v.as_ref())])
        }
        questpro_query::NodeLabel::Const(c) => {
            Json::Arr(vec![Json::str("const"), Json::str(c.as_ref())])
        }
    };
    Json::Arr(vec![endpoint(pair.0), endpoint(pair.1)])
}

/// Inverse of [`diseq_pair_to_json`] against branch `b` of `q`.
fn diseq_pair_from_json(
    q: &UnionQuery,
    b: usize,
    j: &Json,
) -> Result<(QueryNodeId, QueryNodeId), SessionError> {
    let bad = |m: String| SessionError::BadSnapshot(m);
    let items = j
        .as_arr()
        .ok_or_else(|| bad("diseq pair must be an array".into()))?;
    let [a, c] = items else {
        return Err(bad("diseq pair must have two entries".into()));
    };
    let branch = q
        .branches()
        .get(b)
        .ok_or_else(|| bad(format!("branch {b} out of range")))?;
    let find = |j: &Json| -> Result<QueryNodeId, SessionError> {
        let parts = j
            .as_arr()
            .ok_or_else(|| bad("diseq endpoint must be [kind, label]".into()))?;
        let [kind, label] = parts else {
            return Err(bad("diseq endpoint must be [kind, label]".into()));
        };
        let label = label
            .as_str()
            .ok_or_else(|| bad("diseq endpoint label".into()))?;
        match kind.as_str() {
            Some("var") => branch
                .node_of_var(label)
                .ok_or_else(|| bad(format!("no variable ?{label} in branch {b}"))),
            Some("const") => branch
                .node_ids()
                .find(|&n| branch.label(n).as_const() == Some(label))
                .ok_or_else(|| bad(format!("no constant :{label} in branch {b}"))),
            _ => Err(bad("unknown diseq endpoint kind".into())),
        }
    };
    Ok((find(a)?, find(c)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TargetOracle;
    use questpro_engine::{consistent_with_examples, evaluate_union};
    use questpro_graph::rng::StdRng;
    use questpro_graph::Explanation;
    use questpro_query::{GeneralizationWeights, SimpleQuery};

    /// A small co-authorship world where "co-author of Erdos" is
    /// learnable from two explanations.
    fn world() -> (Ontology, ExampleSet, UnionQuery) {
        let mut b = Ontology::builder();
        for (p, a) in [
            ("paper3", "Carol"),
            ("paper3", "Erdos"),
            ("paper4", "Dave"),
            ("paper4", "Erdos"),
            ("paper5", "Frank"),
            ("paper5", "Gina"),
            ("paper6", "Hank"),
            ("paper6", "Erdos"),
        ] {
            b.edge(p, "wb", a).unwrap();
        }
        for a in ["Carol", "Erdos", "Dave", "Frank", "Gina", "Hank"] {
            b.typed_node(a, "Author").unwrap();
        }
        for p in ["paper3", "paper4", "paper5", "paper6"] {
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
        let examples = ExampleSet::from_explanations(vec![e1, e2]);
        let mut b = SimpleQuery::builder();
        let x = b.var("x");
        let p = b.var("p");
        let e = b.constant("Erdos");
        b.edge(p, "wb", x).edge(p, "wb", e).project(x);
        let target = UnionQuery::single(b.build().unwrap());
        (o, examples, target)
    }

    #[test]
    fn session_reconstructs_the_target_semantics() {
        let (o, examples, target) = world();
        let mut oracle = TargetOracle::new(target.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = SessionConfig {
            topk: TopKConfig {
                k: 3,
                weights: GeneralizationWeights::example_4_4(),
                ..Default::default()
            },
            refine: true,
            ..Default::default()
        };
        let result = run_session(&o, &examples, &mut oracle, &mut rng, &cfg);
        assert!(consistent_with_examples(&o, &result.query, &examples));
        // The final query returns exactly the target's results.
        assert_eq!(
            evaluate_union(&o, &result.query),
            evaluate_union(&o, &target)
        );
        assert!(result.stats.algorithm1_calls > 0);
        assert!(!result.candidates.is_empty());
    }

    #[test]
    fn robust_session_survives_a_wrong_explanation() {
        let (o, examples, target) = world();
        // A wrong explanation: Frank justified by an unrelated paper —
        // right predicate shape is impossible here, so use a bare-node
        // explanation (edge-free: foreign to the co-author shape).
        let wrong = Explanation::from_edges(&o, [], "Frank").unwrap();
        let mut poisoned: Vec<Explanation> = examples.iter().cloned().collect();
        poisoned.push(wrong);
        let poisoned = ExampleSet::from_explanations(poisoned);

        let mut oracle = TargetOracle::new(target.clone());
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = SessionConfig {
            refine: true,
            robust: true,
            ..Default::default()
        };
        let result = run_session(&o, &poisoned, &mut oracle, &mut rng, &cfg);
        assert_eq!(result.suspect_examples, vec![2]);
        assert_eq!(
            evaluate_union(&o, &result.query),
            evaluate_union(&o, &target),
            "robust session still reaches the target: {}",
            result.query
        );
        // Without robustness the poisoned set forces an extra union
        // branch for the bare node.
        let mut oracle = TargetOracle::new(target.clone());
        let mut rng = StdRng::seed_from_u64(13);
        let cfg_plain = SessionConfig {
            refine: true,
            robust: false,
            ..Default::default()
        };
        let plain = run_session(&o, &poisoned, &mut oracle, &mut rng, &cfg_plain);
        assert!(plain.suspect_examples.is_empty());
        assert_ne!(
            evaluate_union(&o, &plain.query),
            evaluate_union(&o, &target),
            "the poisoned branch changes the semantics without robust mode"
        );
    }

    #[test]
    fn session_without_refinement_keeps_all_diseqs() {
        let (o, examples, target) = world();
        let mut oracle = TargetOracle::new(target);
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = SessionConfig {
            refine: false,
            ..Default::default()
        };
        let result = run_session(&o, &examples, &mut oracle, &mut rng, &cfg);
        assert_eq!(result.refinement_questions, 0);
    }

    fn demo_cfg() -> SessionConfig {
        SessionConfig {
            topk: TopKConfig {
                k: 3,
                weights: GeneralizationWeights::example_4_4(),
                ..Default::default()
            },
            refine: true,
            ..Default::default()
        }
    }

    /// Drives an interactive session to completion with an oracle.
    fn drive(sess: &mut InteractiveSession, ont: &Ontology, oracle: &mut TargetOracle) {
        while let Some(p) = sess.pending() {
            let (res, prov) = (p.result(), p.provenance().clone());
            let ans = oracle.accept(ont, res, &prov);
            sess.answer(ont, ans).unwrap();
        }
        assert!(sess.is_done());
    }

    #[test]
    fn interactive_matches_one_shot() {
        let (o, examples, target) = world();
        let cfg = demo_cfg();
        let mut oracle = TargetOracle::new(target.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let one_shot = run_session(&o, &examples, &mut oracle, &mut rng, &cfg);

        let mut sess = InteractiveSession::start(&o, &examples, &cfg, 11).unwrap();
        let mut oracle = TargetOracle::new(target);
        drive(&mut sess, &o, &mut oracle);

        assert_eq!(
            sparql::format_union(sess.final_query().unwrap()),
            sparql::format_union(&one_shot.query),
            "step-by-step and one-shot sessions must agree byte-for-byte"
        );
        assert_eq!(sess.transcript().len(), one_shot.selection_transcript.len());
        for (a, b) in sess.transcript().iter().zip(&one_shot.selection_transcript) {
            assert_eq!(a.result, b.result);
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.eliminated_candidate, b.eliminated_candidate);
        }
        assert_eq!(sess.refine_questions(), one_shot.refinement_questions);
        assert_eq!(sess.stats(), &one_shot.stats);
        let result = sess.into_result().unwrap();
        assert_eq!(
            sparql::format_union(&result.query),
            sparql::format_union(&one_shot.query)
        );
    }

    #[test]
    fn snapshot_round_trips_at_every_step() {
        let (o, examples, target) = world();
        let cfg = demo_cfg();
        let mut oracle = TargetOracle::new(target.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let one_shot = run_session(&o, &examples, &mut oracle, &mut rng, &cfg);

        // Serialize + restore through wire text before *every* answer;
        // the restored session must still end up exactly where the
        // one-shot pipeline does.
        let mut sess = InteractiveSession::start(&o, &examples, &cfg, 11).unwrap();
        let mut oracle = TargetOracle::new(target);
        let mut questions = 0usize;
        while let Some(p) = sess.pending() {
            let (res, prov) = (p.result(), p.provenance().clone());
            let text = sess.snapshot(&o).to_text();
            let parsed = questpro_wire::parse(&text).unwrap();
            sess = InteractiveSession::restore(&o, &parsed).unwrap();
            let p2 = sess.pending().expect("restore keeps the pending question");
            assert_eq!(p2.result(), res, "pending question survives the round-trip");
            assert_eq!(p2.provenance(), &prov);
            let ans = oracle.accept(&o, res, &prov);
            sess.answer(&o, ans).unwrap();
            questions += 1;
        }
        assert!(sess.is_done());
        assert!(questions > 0, "the demo world asks at least one question");
        assert_eq!(
            sparql::format_union(sess.final_query().unwrap()),
            sparql::format_union(&one_shot.query)
        );
        assert_eq!(sess.refine_questions(), one_shot.refinement_questions);

        // A finished session round-trips too.
        let text = sess.snapshot(&o).to_text();
        let back = InteractiveSession::restore(&o, &questpro_wire::parse(&text).unwrap()).unwrap();
        assert!(back.is_done());
        assert_eq!(
            sparql::format_union(back.final_query().unwrap()),
            sparql::format_union(&one_shot.query)
        );
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let (o, examples, _) = world();
        assert!(matches!(
            InteractiveSession::restore(&o, &Json::Null),
            Err(SessionError::BadSnapshot(_))
        ));
        let sess = InteractiveSession::start(&o, &examples, &demo_cfg(), 11).unwrap();
        let snap = sess.snapshot(&o);
        // Flip the version: must be rejected, not misinterpreted.
        let mut doctored = snap.clone();
        if let Json::Obj(pairs) = &mut doctored {
            for (k, v) in pairs.iter_mut() {
                if k == "version" {
                    *v = Json::from(2u64);
                }
            }
        }
        assert!(matches!(
            InteractiveSession::restore(&o, &doctored),
            Err(SessionError::BadSnapshot(_))
        ));
    }

    #[test]
    fn answer_without_pending_is_an_error() {
        let (o, examples, target) = world();
        let mut sess = InteractiveSession::start(&o, &examples, &demo_cfg(), 11).unwrap();
        let mut oracle = TargetOracle::new(target);
        drive(&mut sess, &o, &mut oracle);
        assert_eq!(sess.answer(&o, true), Err(SessionError::NothingPending));
    }

    #[test]
    fn empty_examples_are_rejected() {
        let (o, _, _) = world();
        let empty = ExampleSet::from_explanations(vec![]);
        assert_eq!(
            InteractiveSession::start(&o, &empty, &demo_cfg(), 11).err(),
            Some(SessionError::EmptyExamples)
        );
    }
}
