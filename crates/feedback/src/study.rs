//! Simulation of the paper's user study (Section VI-C, Figure 8).
//!
//! The paper had 9 SPARQL-proficient users formulate examples and
//! explanations for movie queries through the QuestPro UI; most
//! interactions succeeded, a few failed or had to be redone. The failure
//! causes the paper reports are modeled here as injectable error modes:
//!
//! * **incomplete explanation** — the user forgets part of the
//!   explanation (an edge is dropped from the sampled provenance; the
//!   paper's query-9 case);
//! * **over-specific examples** — the user picks examples whose
//!   explanations share identical parts, so the inferred query carries an
//!   extra constant (the Tarantino case);
//! * **reversed relation** — the user confuses the direction of an edge
//!   and selects a different relation than intended (the arrows case);
//! * **UI confusion** — the user starts over; the interaction is
//!   recorded as a *redo* and then proceeds correctly.
//!
//! A simulated interaction samples explanations from the hidden target
//! query, optionally corrupts them, runs the full inference + feedback
//! session with a correct [`TargetOracle`], and compares the final query
//! against the target. When an injected error leads to the wrong query,
//! the user notices and redoes the interaction once with clean
//! explanations — matching the paper's "redone interactions that were
//! successful after redo".

use questpro_graph::rng::{IteratorRandom, Rng};

use questpro_engine::{evaluate_union, sample_example_set, union_equivalent};
use questpro_graph::{ExampleSet, Explanation, Ontology, Subgraph};
use questpro_query::UnionQuery;

use crate::oracle::TargetOracle;
use crate::session::{run_session, SessionConfig};

/// Probabilities of each user error mode, per interaction.
#[derive(Debug, Clone, Copy)]
pub struct ErrorRates {
    /// Dropping an edge from one explanation.
    pub incomplete: f64,
    /// Formulating explanations with identical parts.
    pub over_specific: f64,
    /// Selecting a wrong/reversed relation in one explanation.
    pub reversed: f64,
    /// Starting over due to UI confusion (records a redo upfront).
    pub ui_confusion: f64,
    /// Probability that a user who made an error *notices* the wrong
    /// inferred query and redoes the interaction; otherwise the wrong
    /// query stands and the interaction is a failure (the paper's
    /// "London" and incomplete-explanation cases).
    pub notice: f64,
}

impl Default for ErrorRates {
    /// Rates calibrated to reproduce Figure 8's proportions: 36
    /// interactions with roughly 4 problematic ones.
    fn default() -> Self {
        Self {
            incomplete: 0.05,
            over_specific: 0.04,
            reversed: 0.03,
            ui_confusion: 0.03,
            notice: 0.5,
        }
    }
}

/// Configuration of a simulated study.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Number of simulated users (the paper had 9).
    pub users: usize,
    /// Interactions per user (the paper: 2 basic + 2 challenging).
    pub interactions_per_user: usize,
    /// Explanations a user formulates per interaction.
    pub explanations: usize,
    /// Error-mode probabilities.
    pub errors: ErrorRates,
    /// Session (inference + feedback) parameters.
    pub session: SessionConfig,
    /// Provenance sampling bound.
    pub prov_limit: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            users: 9,
            interactions_per_user: 4,
            explanations: 2,
            errors: ErrorRates::default(),
            session: SessionConfig {
                refine: true,
                ..SessionConfig::default()
            },
            prov_limit: 8,
        }
    }
}

/// Outcome of one interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyOutcome {
    /// The intended query was inferred on the first attempt.
    Success,
    /// A first attempt failed (user error) but a redo succeeded.
    RedoSuccess,
    /// The intended query was not inferred.
    Failure,
}

/// The error injected into an interaction, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedError {
    /// An edge was dropped from an explanation.
    Incomplete,
    /// Two explanations shared identical parts.
    OverSpecific,
    /// An edge was replaced by a wrong relation.
    Reversed,
    /// The user restarted before providing examples.
    UiConfusion,
}

/// One simulated interaction.
#[derive(Debug, Clone)]
pub struct InteractionRecord {
    /// Simulated user index.
    pub user: usize,
    /// Index of the target query in the study pool.
    pub query: usize,
    /// Final outcome.
    pub outcome: StudyOutcome,
    /// The error injected, if any.
    pub error: Option<InjectedError>,
}

/// Aggregated study results (the Figure 8 histogram).
#[derive(Debug, Clone, Default)]
pub struct StudyReport {
    /// Every simulated interaction.
    pub interactions: Vec<InteractionRecord>,
}

impl StudyReport {
    /// Number of first-attempt successes.
    pub fn successes(&self) -> usize {
        self.count(StudyOutcome::Success)
    }

    /// Number of redo-then-success interactions.
    pub fn redo_successes(&self) -> usize {
        self.count(StudyOutcome::RedoSuccess)
    }

    /// Number of failures.
    pub fn failures(&self) -> usize {
        self.count(StudyOutcome::Failure)
    }

    fn count(&self, o: StudyOutcome) -> usize {
        self.interactions.iter().filter(|r| r.outcome == o).count()
    }
}

/// Whether two queries "have the same semantics" for study purposes:
/// semantically equivalent, or returning identical result sets on the
/// study ontology (the observable criterion a user can verify).
pub fn same_semantics(ont: &Ontology, a: &UnionQuery, b: &UnionQuery) -> bool {
    union_equivalent(a, b) || evaluate_union(ont, a) == evaluate_union(ont, b)
}

/// Runs a simulated user study over a pool of target queries.
pub fn simulate_study<R: Rng>(
    ont: &Ontology,
    targets: &[UnionQuery],
    cfg: &StudyConfig,
    rng: &mut R,
) -> StudyReport {
    assert!(!targets.is_empty(), "study needs at least one target query");
    let mut report = StudyReport::default();
    for user in 0..cfg.users {
        for round in 0..cfg.interactions_per_user {
            let query = (user + round * 3) % targets.len();
            let target = &targets[query];
            let record = simulate_interaction(ont, target, user, query, cfg, rng);
            report.interactions.push(record);
        }
    }
    report
}

fn simulate_interaction<R: Rng>(
    ont: &Ontology,
    target: &UnionQuery,
    user: usize,
    query: usize,
    cfg: &StudyConfig,
    rng: &mut R,
) -> InteractionRecord {
    let error = draw_error(&cfg.errors, rng);
    // UI confusion: the user restarts immediately, then works correctly.
    if error == Some(InjectedError::UiConfusion) {
        let outcome = if attempt(ont, target, None, cfg, rng) {
            StudyOutcome::RedoSuccess
        } else {
            StudyOutcome::Failure
        };
        return InteractionRecord {
            user,
            query,
            outcome,
            error,
        };
    }
    if attempt(ont, target, error, cfg, rng) {
        return InteractionRecord {
            user,
            query,
            outcome: StudyOutcome::Success,
            error,
        };
    }
    // Wrong query obtained. An erring user notices only with probability
    // `notice` — unnoticed wrong queries stand as failures (the paper's
    // extra-union and incomplete-explanation cases). Error-free failures
    // stand as well.
    let noticed = error.is_some() && rng.random_bool(cfg.errors.notice.clamp(0.0, 1.0));
    let outcome = if noticed && attempt(ont, target, None, cfg, rng) {
        StudyOutcome::RedoSuccess
    } else {
        StudyOutcome::Failure
    };
    InteractionRecord {
        user,
        query,
        outcome,
        error,
    }
}

fn draw_error<R: Rng>(rates: &ErrorRates, rng: &mut R) -> Option<InjectedError> {
    let r: f64 = rng.random_f64();
    let mut acc = rates.incomplete;
    if r < acc {
        return Some(InjectedError::Incomplete);
    }
    acc += rates.over_specific;
    if r < acc {
        return Some(InjectedError::OverSpecific);
    }
    acc += rates.reversed;
    if r < acc {
        return Some(InjectedError::Reversed);
    }
    acc += rates.ui_confusion;
    if r < acc {
        return Some(InjectedError::UiConfusion);
    }
    None
}

/// One inference attempt; returns whether the final query matches the
/// target's semantics.
///
/// An error-free user behaves like the paper's study participants: when
/// the inferred query visibly returns the wrong results they provide a
/// couple more explanations before giving up. A user who made an
/// (unnoticed) formulation error is confident and stops after the first
/// try.
fn attempt<R: Rng>(
    ont: &Ontology,
    target: &UnionQuery,
    error: Option<InjectedError>,
    cfg: &StudyConfig,
    rng: &mut R,
) -> bool {
    let tries = if error.is_some() { 1 } else { 3 };
    for extra in 0..tries {
        let mut examples =
            sample_example_set(ont, target, cfg.explanations + extra, rng, cfg.prov_limit);
        if examples.is_empty() {
            return false;
        }
        if let Some(e) = error {
            examples = corrupt(ont, examples, e, rng);
        }
        let mut oracle = TargetOracle::new(target.clone());
        let result = run_session(ont, &examples, &mut oracle, rng, &cfg.session);
        if same_semantics(ont, &result.query, target) {
            return true;
        }
    }
    false
}

/// Applies an error mode to a sampled example-set.
fn corrupt<R: Rng>(
    ont: &Ontology,
    examples: ExampleSet,
    error: InjectedError,
    rng: &mut R,
) -> ExampleSet {
    let mut list: Vec<Explanation> = examples.into_iter().collect();
    match error {
        InjectedError::Incomplete => {
            // Drop a random non-essential edge from the first multi-edge
            // explanation.
            if let Some(ex) = list.iter_mut().find(|e| e.edge_count() > 1) {
                let drop_idx = rng.random_range(0..ex.edge_count());
                let kept = ex
                    .edges()
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop_idx)
                    .map(|(_, &e)| e);
                let sub = Subgraph::from_parts(ont, kept, [ex.distinguished()]);
                if let Ok(smaller) = Explanation::new(sub, ex.distinguished()) {
                    *ex = smaller;
                }
            }
        }
        InjectedError::OverSpecific => {
            // All explanations become copies of the first: identical
            // parts everywhere, so the inferred query keeps constants it
            // should not.
            if let Some(first) = list.first().cloned() {
                for ex in list.iter_mut().skip(1) {
                    *ex = first.clone();
                }
            }
        }
        InjectedError::Reversed => {
            // Replace one edge of the first explanation with a random
            // different edge incident to the same node (a wrong relation
            // selection in the neighborhood browser).
            if let Some(ex) = list.first_mut() {
                if let Some(&victim) = ex.edges().first() {
                    let d = ont.edge(victim);
                    // Adjacency spans are (pred, edge id)-ordered; the
                    // sample draws from each side in edge-id order.
                    let mut outs = ont.out_edges(d.src).to_vec();
                    let mut ins = ont.in_edges(d.src).to_vec();
                    outs.sort_unstable();
                    ins.sort_unstable();
                    let replacement = outs
                        .into_iter()
                        .chain(ins)
                        .filter(|&e| e != victim)
                        .choose(rng);
                    if let Some(r) = replacement {
                        let edges = ex.edges().iter().map(|&e| if e == victim { r } else { e });
                        let sub = Subgraph::from_parts(ont, edges, [ex.distinguished()]);
                        if let Ok(changed) = Explanation::new(sub, ex.distinguished()) {
                            *ex = changed;
                        }
                    }
                }
            }
        }
        InjectedError::UiConfusion => unreachable!("handled before sampling"),
    }
    ExampleSet::from_explanations(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_graph::rng::StdRng;
    use questpro_query::SimpleQuery;

    fn world() -> (Ontology, Vec<UnionQuery>) {
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
        let mut qb = SimpleQuery::builder();
        let x = qb.var("x");
        let p = qb.var("p");
        let e = qb.constant("Erdos");
        qb.edge(p, "wb", x).edge(p, "wb", e).project(x);
        let coauthor_erdos = UnionQuery::single(qb.build().unwrap());
        (o, vec![coauthor_erdos])
    }

    #[test]
    fn error_free_study_succeeds() {
        let (o, targets) = world();
        let cfg = StudyConfig {
            users: 3,
            interactions_per_user: 2,
            errors: ErrorRates {
                incomplete: 0.0,
                over_specific: 0.0,
                reversed: 0.0,
                ui_confusion: 0.0,
                notice: 1.0,
            },
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(21);
        let report = simulate_study(&o, &targets, &cfg, &mut rng);
        assert_eq!(report.interactions.len(), 6);
        assert_eq!(report.successes(), 6);
        assert_eq!(report.failures(), 0);
    }

    #[test]
    fn ui_confusion_records_redo() {
        let (o, targets) = world();
        let cfg = StudyConfig {
            users: 1,
            interactions_per_user: 1,
            errors: ErrorRates {
                incomplete: 0.0,
                over_specific: 0.0,
                reversed: 0.0,
                ui_confusion: 1.0,
                notice: 1.0,
            },
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let report = simulate_study(&o, &targets, &cfg, &mut rng);
        assert_eq!(report.redo_successes() + report.failures(), 1);
        assert_eq!(
            report.interactions[0].error,
            Some(InjectedError::UiConfusion)
        );
    }

    #[test]
    fn same_semantics_accepts_equal_result_sets() {
        let (o, targets) = world();
        let t = &targets[0];
        assert!(same_semantics(&o, t, t));
        let broad = {
            let mut b = SimpleQuery::builder();
            let x = b.var("x");
            let p = b.var("p");
            let y = b.var("y");
            b.edge(p, "wb", x).edge(p, "wb", y).project(x);
            UnionQuery::single(b.build().unwrap())
        };
        assert!(!same_semantics(&o, t, &broad));
    }

    #[test]
    fn corruption_modes_change_example_sets() {
        let (o, targets) = world();
        let mut rng = StdRng::seed_from_u64(9);
        let examples = sample_example_set(&o, &targets[0], 2, &mut rng, 8);
        assert_eq!(examples.len(), 2);
        let dropped = corrupt(&o, examples.clone(), InjectedError::Incomplete, &mut rng);
        let total = |s: &ExampleSet| s.iter().map(Explanation::edge_count).sum::<usize>();
        assert!(total(&dropped) < total(&examples));
        let cloned = corrupt(&o, examples.clone(), InjectedError::OverSpecific, &mut rng);
        assert_eq!(cloned.explanations()[0], cloned.explanations()[1]);
    }
}
