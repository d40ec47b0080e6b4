//! Shared infrastructure for the experiment harness.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of
//! the paper's Section VI (see `DESIGN.md` §3 for the experiment index).
//! This library holds what they share: the benchmark worlds, the
//! Section VI-B reconstruction loop, markdown table rendering, and a
//! scoped-thread parallel map for per-query sweeps.

pub mod drive;
pub mod microbench;

use std::fmt::Write as _;

use questpro_graph::rng::StdRng;

use questpro_core::{infer_top_k_cached, with_all_diseqs_cached, InferenceStats, TopKConfig};
use questpro_data::{
    bsbm_workload, generate_bsbm, generate_movies, generate_sp2b, movie_workload, sp2b_workload,
    BsbmConfig, MoviesConfig, OntologyKind, Sp2bConfig, WorkloadQuery,
};
use questpro_engine::{evaluate_union, sample_example_set, union_equivalent, ConsistencyCache};
use questpro_graph::{ExampleSet, Ontology};
use questpro_query::UnionQuery;

/// The three benchmark worlds, generated once at default scale.
pub struct Worlds {
    /// SP2B-like publications ontology.
    pub sp2b: Ontology,
    /// BSBM-like e-commerce ontology.
    pub bsbm: Ontology,
    /// DBpedia-movies-like ontology.
    pub movies: Ontology,
}

impl Worlds {
    /// Generates all three worlds at their default scales.
    pub fn generate() -> Self {
        Self {
            sp2b: generate_sp2b(&Sp2bConfig::default()),
            bsbm: generate_bsbm(&BsbmConfig::default()),
            movies: generate_movies(&MoviesConfig::default()),
        }
    }

    /// The ontology a workload query runs against.
    pub fn for_kind(&self, kind: OntologyKind) -> &Ontology {
        match kind {
            OntologyKind::Sp2b => &self.sp2b,
            OntologyKind::Bsbm => &self.bsbm,
            OntologyKind::Movies => &self.movies,
        }
    }
}

/// The full automatic workload: SP2B + BSBM analogs (15 queries, as in
/// the paper's Section VI-B).
pub fn automatic_workload() -> Vec<WorkloadQuery> {
    sp2b_workload().into_iter().chain(bsbm_workload()).collect()
}

/// Everything, including the Table I movie queries.
pub fn full_workload() -> Vec<WorkloadQuery> {
    automatic_workload()
        .into_iter()
        .chain(movie_workload())
        .collect()
}

/// Whether some candidate (in plain or all-disequalities form) matches
/// the target query's semantics. The disequalities are read off onto
/// matches looked up in `cache`; pass the one inference ran on
/// ([`infer_top_k_cached`]) to reuse its matches.
pub fn reconstructed(
    ont: &Ontology,
    candidates: &[UnionQuery],
    target: &UnionQuery,
    examples: &ExampleSet,
    cache: &mut ConsistencyCache,
) -> bool {
    let target_results = evaluate_union(ont, target);
    candidates.iter().any(|c| {
        let c_all = with_all_diseqs_cached(ont, c, examples, cache);
        union_equivalent(c, target)
            || union_equivalent(&c_all, target)
            || evaluate_union(ont, c) == target_results
            || evaluate_union(ont, &c_all) == target_results
    })
}

/// Outcome of one Section VI-B reconstruction run.
#[derive(Debug, Clone, Copy)]
pub struct ReconstructionRun {
    /// Explanations needed, or `None` if the cap was hit.
    pub explanations: Option<usize>,
    /// Inference stats accumulated over all attempts of the run.
    pub stats: InferenceStats,
}

/// The reconstruction loop: sample `n = 2, 3, …, cap` explanations of
/// `target` (fresh each round, as the paper's repeated trials do) until
/// some top-k candidate reproduces its semantics.
pub fn reconstruct(
    ont: &Ontology,
    target: &UnionQuery,
    cfg: &TopKConfig,
    seed: u64,
    cap: usize,
) -> ReconstructionRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = InferenceStats::default();
    for n in 2..=cap {
        let examples = sample_example_set(ont, target, n, &mut rng, 6);
        if examples.len() < 2 {
            break;
        }
        let mut cache = ConsistencyCache::new();
        let (candidates, stats) = infer_top_k_cached(ont, &examples, cfg, &mut cache);
        total.absorb(stats);
        if reconstructed(ont, &candidates, target, &examples, &mut cache) {
            return ReconstructionRun {
                explanations: Some(n),
                stats: total,
            };
        }
    }
    ReconstructionRun {
        explanations: None,
        stats: total,
    }
}

/// A printable experiment table (markdown and TSV).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (printed as a heading).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }

    /// Renders the table as TSV (no title).
    pub fn to_tsv(&self) -> String {
        let mut out = self.headers.join("\t");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Maps `f` over `items` on scoped threads (one per item), preserving
/// order.
pub fn parallel_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    })
}

/// Returns the value following `--name` (or embedded as `--name=value`)
/// on the command line, if present.
pub fn cli_value(name: &str) -> Option<String> {
    let prefix = format!("{name}=");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

/// Whether the bare switch `--name` appears on the command line.
pub fn cli_switch(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

/// The `--threads N` knob shared by the experiment binaries (default 1,
/// clamped to at least 1).
pub fn cli_threads() -> usize {
    cli_value("--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1usize)
        .max(1)
}

/// Median of a (small) sample; panics on empty input.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown_and_tsv() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert_eq!(t.to_tsv(), "a\tb\n1\t2\n");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..16).collect(), |i| i * 2);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn workload_counts_match_the_paper() {
        // 8 SP2B + 7 BSBM = the 15 automatic queries; +10 movie queries.
        assert_eq!(automatic_workload().len(), 15);
        assert_eq!(full_workload().len(), 25);
    }

    #[test]
    fn reconstruction_smoke() {
        let worlds = Worlds::generate();
        let w = &automatic_workload()[4]; // q8a: co-authors of Erdos
        let run = reconstruct(
            worlds.for_kind(w.kind),
            &w.query,
            &TopKConfig::default(),
            1,
            6,
        );
        assert!(run.explanations.is_some());
        assert!(run.stats.algorithm1_calls > 0);
    }
}
