//! Interactive feedback for query inference (Section V of the paper).
//!
//! After the top-k inference of `questpro-core` produces candidate
//! queries, this crate drives the paper's feedback loop:
//!
//! * [`oracle`] — the *user* abstraction: something that answers "should
//!   this result, with this provenance, be in your query's output?".
//!   [`oracle::TargetOracle`] simulates a correct user holding a hidden
//!   target query (how the paper's automatic experiments validate the
//!   loop); [`oracle::NoisyOracle`] flips answers with a configured
//!   probability; [`oracle::ScriptedOracle`] replays fixed answers.
//! * [`algorithm3`] — Algorithm 3: repeatedly evaluate the difference
//!   `Q_i^all − Q_j^no` between a candidate with **all** disequalities
//!   and one with **none** (so an answer disqualifies every disequality
//!   form of the loser at once), show a sampled result *with its
//!   provenance*, and eliminate candidates until one remains. A
//!   difference that containment proves empty is never evaluated
//!   ([`algorithm3::CandidateForms`]).
//! * [`refine`] — the disequality refinement loop run on the surviving
//!   query pattern: drop disequalities the user does not actually want.
//! * [`session`] — the end-to-end pipeline: explanations → top-k →
//!   `Q^all` → feedback → refinement.
//! * [`study`] — a simulation of the paper's Section VI-C user study,
//!   with the error modes the paper reports (incomplete explanations,
//!   over-specific explanations, reversed edges, redos).

pub mod algorithm3;
pub mod oracle;
pub mod refine;
pub mod session;
pub mod study;

pub use algorithm3::{
    choose_query, CandidateForms, FeedbackConfig, FeedbackOutcome, QuestionRecord,
};
pub use oracle::{NoisyOracle, Oracle, ScriptedOracle, TargetOracle};
pub use refine::refine_diseqs;
pub use session::{
    run_session, InteractiveSession, PendingQuestion, Phase, RoundLog, SessionConfig, SessionError,
    SessionResult,
};
pub use study::{simulate_study, StudyConfig, StudyOutcome, StudyReport};
