//! Implementations of the CLI subcommands.
//!
//! Every command is a pure function from parsed arguments to output
//! text; file IO goes through the [`io`] helpers so failures carry their
//! paths.

pub mod io {
    //! File-reading helpers shared by the subcommands.

    use questpro_graph::{triples, ExampleSet, Ontology};
    use questpro_query::{sparql, UnionQuery};

    use crate::error::CliError;

    /// Reads an ontology from either the triple text format or a binary
    /// snapshot (`questpro store build`), sniffed by the 4-byte magic —
    /// so every `--ontology FILE` flag accepts both transparently.
    pub fn load_ontology(path: &str) -> Result<Ontology, CliError> {
        let bytes = std::fs::read(path).map_err(|e| CliError::io(path, e))?;
        if bytes.starts_with(&questpro_store::MAGIC) {
            let store = questpro_store::decode(&bytes).map_err(CliError::input)?;
            return store.to_ontology().map_err(CliError::input);
        }
        let text = String::from_utf8(bytes).map_err(|_| {
            CliError::Input(format!(
                "{path} is neither UTF-8 triple text nor a questpro snapshot"
            ))
        })?;
        triples::parse(&text).map_err(CliError::input)
    }

    /// Reads and parses a (union) query in the SPARQL dialect.
    pub fn load_query(path: &str) -> Result<UnionQuery, CliError> {
        let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
        sparql::parse_union(&text).map_err(CliError::input)
    }

    /// Reads and parses an example-set against an ontology.
    pub fn load_examples(path: &str, ont: &Ontology) -> Result<ExampleSet, CliError> {
        let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
        let set = questpro_graph::exformat::parse_examples(ont, &text).map_err(CliError::input)?;
        if set.is_empty() {
            return Err(CliError::Input(format!("{path} contains no explanations")));
        }
        Ok(set)
    }
}

pub mod generate {
    //! `questpro generate` — write a synthetic world to disk.

    use questpro_data::{
        generate_bsbm, generate_movies, generate_sp2b, scale_stream, BsbmConfig, MoviesConfig,
        ScaleConfig, ScaleItem, ScaleWorld, Sp2bConfig,
    };
    use questpro_graph::triples;

    use crate::args::GenerateArgs;
    use crate::error::CliError;

    /// Streams a `--scale N` world to disk item by item — the triple
    /// text never exists in memory, so 10⁷-triple files are fine.
    /// Scale-world labels are `snake_case` identifiers, which need no
    /// percent-escaping in the text format.
    fn run_scaled(args: &GenerateArgs, target: u64) -> Result<String, CliError> {
        use std::io::Write as _;
        let world = ScaleWorld::from_name(&args.world).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown world {:?} (expected erdos|sp2b|bsbm|movies)",
                args.world
            ))
        })?;
        let cfg = ScaleConfig {
            world,
            triples: target,
            seed: args.seed,
        };
        let file = std::fs::File::create(&args.out).map_err(|e| CliError::io(&args.out, e))?;
        let mut w = std::io::BufWriter::new(file);
        let (mut triples, mut types) = (0u64, 0u64);
        for item in scale_stream(&cfg) {
            match item {
                ScaleItem::Triple { s, p, o } => {
                    triples += 1;
                    writeln!(w, "{s} {p} {o}").map_err(|e| CliError::io(&args.out, e))?;
                }
                ScaleItem::Type { node, ty } => {
                    types += 1;
                    writeln!(w, "@type {node} {ty}").map_err(|e| CliError::io(&args.out, e))?;
                }
            }
        }
        w.flush().map_err(|e| CliError::io(&args.out, e))?;
        Ok(format!(
            "wrote {} ({triples} triple(s), {types} type declaration(s), streamed)\n",
            args.out
        ))
    }

    /// Runs the command.
    pub fn run(args: &GenerateArgs) -> Result<String, CliError> {
        if let Some(target) = args.scale {
            return run_scaled(args, target);
        }
        let ont = match args.world.as_str() {
            "erdos" => questpro_data::erdos_ontology(),
            "sp2b" => generate_sp2b(&Sp2bConfig {
                seed: args.seed,
                ..Default::default()
            }),
            "bsbm" => generate_bsbm(&BsbmConfig {
                seed: args.seed,
                ..Default::default()
            }),
            "movies" => generate_movies(&MoviesConfig {
                seed: args.seed,
                ..Default::default()
            }),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown world {other:?} (expected erdos|sp2b|bsbm|movies)"
                )))
            }
        };
        let text = triples::serialize(&ont);
        std::fs::write(&args.out, text).map_err(|e| CliError::io(&args.out, e))?;
        let mut out = format!(
            "wrote {} ({} nodes, {} edges)\n",
            args.out,
            ont.node_count(),
            ont.edge_count()
        );
        for (ty, count) in ont.type_histogram() {
            out.push_str(&format!("  {count:>6}  {ty}\n"));
        }
        Ok(out)
    }
}

pub mod eval {
    //! `questpro eval` — evaluate a query, optionally with provenance.

    use std::fmt::Write as _;

    use questpro_engine::{evaluate_union_with, polynomial_of_union, provenance_of_union_with};

    use crate::args::EvalArgs;
    use crate::commands::io;
    use crate::error::CliError;

    /// Runs the command.
    pub fn run(args: &EvalArgs) -> Result<String, CliError> {
        let ont = io::load_ontology(&args.ontology)?;
        let query = io::load_query(&args.query)?;
        let mut out = String::new();
        let results = evaluate_union_with(&ont, &query, args.threads);
        let _ = writeln!(out, "{} result(s):", results.len());
        for &r in &results {
            let _ = writeln!(out, "  {}", ont.value_str(r));
        }
        if let Some(value) = &args.provenance {
            let node = ont
                .node_by_value(value)
                .ok_or_else(|| CliError::Input(format!("no node with value {value:?}")))?;
            if !results.contains(&node) {
                return Err(CliError::Unsatisfiable(format!(
                    "{value} is not a result of the query"
                )));
            }
            if args.polynomial {
                let p = polynomial_of_union(&ont, &query, node, Some(args.limit.max(1)));
                let _ = writeln!(
                    out,
                    "\nprovenance polynomial of {value} ({} monomial(s), limit {}):",
                    p.len(),
                    args.limit
                );
                let _ = writeln!(out, "{}", p.describe(&ont));
            } else {
                let graphs = provenance_of_union_with(
                    &ont,
                    &query,
                    node,
                    Some(args.limit.max(1)),
                    args.threads,
                );
                let _ = writeln!(
                    out,
                    "\nprovenance of {value} ({} graph(s), limit {}):",
                    graphs.len(),
                    args.limit
                );
                for (i, g) in graphs.iter().enumerate() {
                    let _ = writeln!(out, "--- graph {} ---", i + 1);
                    let _ = writeln!(out, "{}", g.describe(&ont));
                }
            }
        }
        Ok(out)
    }
}

pub mod infer {
    //! `questpro infer` — top-k query inference from explanations.

    use std::fmt::Write as _;

    use questpro_core::{infer_top_k_cached, with_all_diseqs_cached, GreedyConfig, TopKConfig};
    use questpro_engine::ConsistencyCache;
    use questpro_query::GeneralizationWeights;

    use crate::args::InferArgs;
    use crate::commands::io;
    use crate::error::CliError;

    /// Runs the command.
    pub fn run(args: &InferArgs) -> Result<String, CliError> {
        let ont = io::load_ontology(&args.ontology)?;
        let examples = io::load_examples(&args.examples, &ont)?;
        let weights = GeneralizationWeights::new(args.w1, args.w2);
        let cfg = TopKConfig {
            k: args.k.max(1),
            weights,
            greedy: GreedyConfig {
                allow_optional: args.optional,
                ..Default::default()
            },
            threads: args.threads.max(1),
        };
        // One onto-match cache: `Q^all` reuses the matches inference found.
        let mut onto = ConsistencyCache::new();
        let (mut candidates, stats) = infer_top_k_cached(&ont, &examples, &cfg, &mut onto);
        if args.minimize {
            use questpro_query::UnionQuery;
            candidates = candidates
                .into_iter()
                .map(|u| {
                    UnionQuery::new(u.branches().iter().map(questpro_engine::minimize).collect())
                        .expect("branch count unchanged")
                })
                .collect();
        }
        if candidates.is_empty() {
            return Err(CliError::Unsatisfiable(
                "no consistent query found for the example-set".to_string(),
            ));
        }
        let mut out = String::new();
        for (i, q) in candidates.iter().enumerate() {
            let q = if args.diseqs {
                with_all_diseqs_cached(&ont, q, &examples, &mut onto)
            } else {
                q.clone()
            };
            let _ = writeln!(
                out,
                "# candidate {} — cost {:.1} ({} branch(es), {} var(s){})",
                i + 1,
                q.cost(weights),
                q.len(),
                q.total_vars(),
                if args.diseqs {
                    format!(", {} diseq(s)", q.diseq_count())
                } else {
                    String::new()
                }
            );
            let _ = writeln!(out, "{q}\n");
        }
        let _ = writeln!(
            out,
            "# explored {} intermediate queries in {} round(s)",
            stats.algorithm1_calls, stats.rounds
        );
        Ok(out)
    }
}

pub mod sample {
    //! `questpro sample` — draw an example-set from a target query.

    use questpro_engine::sample_example_set;
    use questpro_graph::exformat;
    use questpro_graph::rng::StdRng;

    use crate::args::SampleArgs;
    use crate::commands::io;
    use crate::error::CliError;

    /// Runs the command.
    pub fn run(args: &SampleArgs) -> Result<String, CliError> {
        let ont = io::load_ontology(&args.ontology)?;
        let query = io::load_query(&args.query)?;
        if let Some(value) = &args.result {
            // Compile explanations for one chosen output example (the
            // paper's user flow through the ontology visualizer).
            let node = ont
                .node_by_value(value)
                .ok_or_else(|| CliError::Input(format!("no node with value {value:?}")))?;
            let graphs =
                questpro_engine::provenance_of_union(&ont, &query, node, Some(args.n.max(1)));
            if graphs.is_empty() {
                return Err(CliError::Unsatisfiable(format!(
                    "{value} is not a result of the query (no explanations to compile)"
                )));
            }
            let set: questpro_graph::ExampleSet = graphs
                .into_iter()
                .map(|g| {
                    questpro_graph::Explanation::new(g, node)
                        .expect("a provenance image contains its result")
                })
                .collect();
            return Ok(exformat::serialize_examples(&ont, &set));
        }
        let mut rng = StdRng::seed_from_u64(args.seed);
        let set = sample_example_set(&ont, &query, args.n.max(1), &mut rng, 8);
        if set.is_empty() {
            return Err(CliError::Unsatisfiable(
                "the query has no results to sample from".to_string(),
            ));
        }
        Ok(exformat::serialize_examples(&ont, &set))
    }
}

pub mod session {
    //! `questpro session` — the full pipeline, with either a simulated
    //! oracle (from a `--target` query file) or an interactive user
    //! answering yes/no questions on the terminal.

    use std::fmt::Write as _;
    use std::io::{BufRead, Write};

    use questpro_core::TopKConfig;
    use questpro_engine::evaluate_union;
    use questpro_feedback::{run_session, Oracle, SessionConfig, TargetOracle};
    use questpro_graph::rng::StdRng;
    use questpro_graph::{NodeId, Ontology, Subgraph};

    use crate::args::SessionArgs;
    use crate::commands::io;
    use crate::error::CliError;

    /// An oracle that asks a human: prints the question to `prompt` and
    /// reads `y`/`n` answers from `answers` (empty input counts as no).
    pub struct PromptOracle<'a> {
        answers: &'a mut dyn BufRead,
        prompt: &'a mut dyn Write,
    }

    impl<'a> PromptOracle<'a> {
        /// Creates a prompt-backed oracle.
        pub fn new(answers: &'a mut dyn BufRead, prompt: &'a mut dyn Write) -> Self {
            Self { answers, prompt }
        }
    }

    impl Oracle for PromptOracle<'_> {
        fn accept(&mut self, ont: &Ontology, res: NodeId, provenance: &Subgraph) -> bool {
            let _ = writeln!(
                self.prompt,
                "\nShould {} be in your results? Because:\n{}\n[y/N] ",
                ont.value_str(res),
                provenance.describe(ont)
            );
            let _ = self.prompt.flush();
            let mut line = String::new();
            if self.answers.read_line(&mut line).is_err() {
                return false;
            }
            matches!(line.trim(), "y" | "Y" | "yes" | "Yes")
        }
    }

    /// Runs the command against stdin/stderr for interactive questions.
    pub fn run(args: &SessionArgs) -> Result<String, CliError> {
        let stdin = std::io::stdin();
        let mut answers = stdin.lock();
        let mut prompt = std::io::stderr();
        run_with_io(args, &mut answers, &mut prompt)
    }

    /// Runs the command with explicit question/answer streams (used by
    /// tests; `run` wires stdin/stderr).
    pub fn run_with_io(
        args: &SessionArgs,
        answers: &mut dyn BufRead,
        prompt: &mut dyn Write,
    ) -> Result<String, CliError> {
        let ont = io::load_ontology(&args.ontology)?;
        let examples = io::load_examples(&args.examples, &ont)?;
        let target = args.target.as_deref().map(io::load_query).transpose()?;
        let mut rng = StdRng::seed_from_u64(args.seed);
        let cfg = SessionConfig {
            topk: TopKConfig {
                k: args.k.max(1),
                threads: args.threads.max(1),
                ..Default::default()
            },
            refine: args.refine,
            ..Default::default()
        };
        let result = match &target {
            Some(t) => {
                let mut oracle = TargetOracle::new(t.clone());
                run_session(&ont, &examples, &mut oracle, &mut rng, &cfg)
            }
            None => {
                let mut oracle = PromptOracle::new(answers, prompt);
                run_session(&ont, &examples, &mut oracle, &mut rng, &cfg)
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "# {} candidate(s) inferred", result.candidates.len());
        for rec in &result.selection_transcript {
            let _ = writeln!(
                out,
                "\nquestion: include {}?\n{}\nanswer: {}",
                ont.value_str(rec.result),
                rec.provenance.describe(&ont),
                if rec.answer { "yes" } else { "no" }
            );
        }
        let _ = writeln!(
            out,
            "\n# {} selection question(s), {} refinement question(s)",
            result.selection_transcript.len(),
            result.refinement_questions
        );
        let _ = writeln!(out, "\n{}", result.query);
        if let Some(t) = &target {
            let same = evaluate_union(&ont, &result.query) == evaluate_union(&ont, t);
            let _ = writeln!(
                out,
                "\n# target semantics {}",
                if same {
                    "REACHED"
                } else {
                    "NOT reached (try more examples)"
                }
            );
        }
        Ok(out)
    }
}

pub mod diagnose {
    //! `questpro diagnose` — flag suspect explanations.

    use std::fmt::Write as _;

    use questpro_core::{diagnose_examples, GreedyConfig, Suspicion};

    use crate::args::DiagnoseArgs;
    use crate::commands::io;
    use crate::error::CliError;

    /// Runs the command.
    pub fn run(args: &DiagnoseArgs) -> Result<String, CliError> {
        let ont = io::load_ontology(&args.ontology)?;
        let examples = io::load_examples(&args.examples, &ont)?;
        let diagnoses = diagnose_examples(&ont, &examples, &GreedyConfig::default());
        let mut out = String::new();
        for d in &diagnoses {
            let ex = &examples.explanations()[d.index];
            let _ = writeln!(
                out,
                "explanation {} (dis {}): {:?} — merges with {} other(s){}",
                d.index + 1,
                ont.value_str(ex.distinguished()),
                d.suspicion,
                d.mergeable_with,
                d.best_merge_vars
                    .map(|v| format!(", best merge uses {v} var(s)"))
                    .unwrap_or_default()
            );
        }
        let suspects = diagnoses
            .iter()
            .filter(|d| d.suspicion != Suspicion::Clean)
            .count();
        let _ = writeln!(
            out,
            "\n{} suspect explanation(s) out of {}",
            suspects,
            diagnoses.len()
        );
        Ok(out)
    }
}

pub mod explore {
    //! `questpro explore` — the terminal rendition of the paper's
    //! ontology visualizer: print a node's k-neighborhood so users can
    //! formulate explanation files by hand.

    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    use questpro_graph::NodeId;

    use crate::args::ExploreArgs;
    use crate::commands::io;
    use crate::error::CliError;

    /// Runs the command.
    pub fn run(args: &ExploreArgs) -> Result<String, CliError> {
        let ont = io::load_ontology(&args.ontology)?;
        let start = ont
            .node_by_value(&args.node)
            .ok_or_else(|| CliError::Input(format!("no node with value {:?}", args.node)))?;
        let mut out = String::new();
        let ty = ont
            .node_type(start)
            .map(|t| format!(" ({})", ont.type_str(t)))
            .unwrap_or_default();
        let _ = writeln!(out, "{}{}", args.node, ty);
        let mut frontier: BTreeSet<NodeId> = BTreeSet::from([start]);
        let mut seen = frontier.clone();
        for depth in 1..=args.depth.max(1) {
            let mut next: BTreeSet<NodeId> = BTreeSet::new();
            let mut lines: Vec<String> = Vec::new();
            for &n in &frontier {
                for &e in ont.out_edges(n) {
                    let d = ont.edge(e);
                    lines.push(format!(
                        "  {} -{}-> {}",
                        ont.value_str(d.src),
                        ont.pred_str(d.pred),
                        ont.value_str(d.dst)
                    ));
                    next.insert(d.dst);
                }
                for &e in ont.in_edges(n) {
                    let d = ont.edge(e);
                    lines.push(format!(
                        "  {} -{}-> {}",
                        ont.value_str(d.src),
                        ont.pred_str(d.pred),
                        ont.value_str(d.dst)
                    ));
                    next.insert(d.src);
                }
            }
            lines.sort();
            lines.dedup();
            let _ = writeln!(out, "-- depth {depth} ({} edge(s)) --", lines.len());
            for l in lines {
                let _ = writeln!(out, "{l}");
            }
            next.retain(|n| !seen.contains(n));
            seen.extend(next.iter().copied());
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        Ok(out)
    }
}

pub mod trace {
    //! `questpro trace` — profile one full inference run and print the
    //! recorded span tree plus a per-stage self-time breakdown.
    //!
    //! The pipeline mirrors `questpro session --target`: sample an
    //! example-set from the target query, infer top-k candidates, and
    //! let the simulated oracle answer the selection (and optionally
    //! refinement) questions — all under one enabled trace.

    use std::fmt::Write as _;

    use questpro_core::TopKConfig;
    use questpro_data::{
        bsbm_workload, generate_bsbm, generate_movies, generate_sp2b, movie_workload,
        sp2b_workload, BsbmConfig, MoviesConfig, Sp2bConfig,
    };
    use questpro_engine::sample_example_set;
    use questpro_feedback::{run_session, SessionConfig, TargetOracle};
    use questpro_graph::rng::StdRng;
    use questpro_graph::Ontology;
    use questpro_query::UnionQuery;

    use crate::args::TraceArgs;
    use crate::commands::io;
    use crate::error::CliError;

    /// Resolves the ontology, target query, and trace label from either
    /// a built-in world (+ workload query ID) or a file pair.
    fn load(args: &TraceArgs) -> Result<(Ontology, UnionQuery, String), CliError> {
        if let Some(world) = &args.world {
            let (ont, workload) = match world.as_str() {
                "sp2b" => (
                    generate_sp2b(&Sp2bConfig {
                        seed: args.seed,
                        ..Default::default()
                    }),
                    sp2b_workload(),
                ),
                "bsbm" => (
                    generate_bsbm(&BsbmConfig {
                        seed: args.seed,
                        ..Default::default()
                    }),
                    bsbm_workload(),
                ),
                "movies" => (
                    generate_movies(&MoviesConfig {
                        seed: args.seed,
                        ..Default::default()
                    }),
                    movie_workload(),
                ),
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown world {other:?} (expected sp2b|bsbm|movies)"
                    )))
                }
            };
            let chosen = match &args.query_id {
                Some(id) => workload.into_iter().find(|w| w.id == *id).ok_or_else(|| {
                    CliError::Input(format!("no workload query {id:?} in world {world}"))
                })?,
                None => workload
                    .into_iter()
                    .next()
                    .expect("built-in workloads are non-empty"),
            };
            let label = format!("trace {world}/{}", chosen.id);
            Ok((ont, chosen.query, label))
        } else {
            let (Some(ontology), Some(query)) = (&args.ontology, &args.query) else {
                return Err(CliError::Usage(
                    "trace needs either --world or both --ontology and --query".into(),
                ));
            };
            let ont = io::load_ontology(ontology)?;
            let q = io::load_query(query)?;
            Ok((ont, q, format!("trace {query}")))
        }
    }

    /// Runs the command.
    pub fn run(args: &TraceArgs) -> Result<String, CliError> {
        let (ont, target, label) = load(args)?;
        let chrome = args.chrome.clone();
        questpro_trace::set_enabled(true);
        let trace = questpro_trace::begin(label)
            .ok_or_else(|| CliError::Input("a trace is already active on this thread".into()))?;
        let mut rng = StdRng::seed_from_u64(args.seed);
        let examples = sample_example_set(&ont, &target, args.examples, &mut rng, 8);
        if examples.is_empty() {
            drop(trace);
            return Err(CliError::Unsatisfiable(
                "the target query has no results to sample from".to_string(),
            ));
        }
        let cfg = SessionConfig {
            topk: TopKConfig {
                k: args.k,
                threads: args.threads,
                ..Default::default()
            },
            refine: args.refine,
            ..Default::default()
        };
        let mut oracle = TargetOracle::new(target.clone());
        let result = run_session(&ont, &examples, &mut oracle, &mut rng, &cfg);
        let rec = trace.finish();

        let mut out = rec.render_tree();
        if let Some(path) = &chrome {
            std::fs::write(path, rec.to_chrome_json()).map_err(|e| CliError::io(path, e))?;
            let _ = writeln!(
                out,
                "\nwrote Chrome trace-event JSON to {path} (load in chrome://tracing or Perfetto)"
            );
        }
        let _ = writeln!(out, "\nstage totals (by self time):");
        for (name, calls, ns) in rec.stage_totals() {
            let _ = writeln!(
                out,
                "  {name:<28} {calls:>5} call(s)  {:>10.3} ms",
                ns as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "\n# {} selection question(s), {} refinement question(s); inferred:\n{}",
            result.selection_transcript.len(),
            result.refinement_questions,
            result.query
        );
        Ok(out)
    }
}

pub mod logs {
    //! `questpro logs` — tail and filter a structured JSON-lines event
    //! log (the file written by `questpro serve --log-file`).
    //!
    //! Every line is parsed with the wire-format parser; lines that are
    //! not valid JSON are counted and reported rather than crashing the
    //! tail, so a log truncated mid-write is still readable.

    use std::fmt::Write as _;

    use questpro_log::Level;
    use questpro_wire::Json;

    use crate::args::LogsArgs;
    use crate::error::CliError;

    /// Does one parsed event pass the requested filters?
    fn keep(
        event: &Json,
        min_level: Option<Level>,
        target: Option<&str>,
        trace_id: Option<u64>,
    ) -> bool {
        if let Some(min) = min_level {
            let level = event
                .get("level")
                .and_then(Json::as_str)
                .and_then(Level::parse);
            if level.is_none_or(|l| l < min) {
                return false;
            }
        }
        if let Some(want) = target {
            if event.get("target").and_then(Json::as_str) != Some(want) {
                return false;
            }
        }
        if let Some(id) = trace_id {
            if event.get("trace_id").and_then(Json::as_u64) != Some(id) {
                return false;
            }
        }
        true
    }

    /// Runs the command.
    pub fn run(args: &LogsArgs) -> Result<String, CliError> {
        let min_level = match &args.level {
            None => None,
            Some(s) => Some(Level::parse(s).ok_or_else(|| {
                CliError::Usage(format!(
                    "--level expects trace|debug|info|warn|error, got {s:?}"
                ))
            })?),
        };
        let text = std::fs::read_to_string(&args.file).map_err(|e| CliError::io(&args.file, e))?;
        let mut kept: Vec<&str> = Vec::new();
        let mut malformed = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match questpro_wire::parse(line) {
                Ok(ev) if keep(&ev, min_level, args.target.as_deref(), args.trace_id) => {
                    kept.push(line);
                }
                Ok(_) => {}
                Err(_) => malformed += 1,
            }
        }
        let mut out = String::new();
        // Tail semantics: the LAST `limit` matching events, oldest first.
        let matched = kept.len();
        for line in kept.into_iter().skip(matched.saturating_sub(args.limit)) {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "# {matched} matching event(s){}",
            if malformed > 0 {
                format!(", {malformed} malformed line(s) skipped")
            } else {
                String::new()
            }
        );
        Ok(out)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Writes `lines` to a unique temp file and returns its path.
        fn log_file(name: &str, lines: &str) -> String {
            let path = std::env::temp_dir().join(format!("questpro-logs-test-{name}.jsonl"));
            std::fs::write(&path, lines).unwrap();
            path.to_string_lossy().into_owned()
        }

        fn event(seq: u64, level: &str, target: &str, trace_id: Option<u64>) -> String {
            let mut pairs = vec![
                ("seq", Json::Num(seq as f64)),
                ("ts_ms", Json::Num(1.0)),
                ("level", Json::str(level)),
                ("target", Json::str(target)),
                ("msg", Json::str("m")),
            ];
            if let Some(id) = trace_id {
                pairs.push(("trace_id", Json::Num(id as f64)));
            }
            Json::obj(pairs).to_text()
        }

        #[test]
        fn filters_by_level_target_and_trace_id() {
            let lines = [
                event(1, "info", "server.access", Some(7)),
                event(2, "warn", "server.slow", Some(7)),
                event(3, "error", "server.panic", Some(9)),
                event(4, "debug", "engine.match", None),
            ]
            .join("\n");
            let file = log_file("filters", &lines);
            let base = LogsArgs {
                file: file.clone(),
                level: None,
                target: None,
                trace_id: None,
                limit: 64,
            };

            let out = run(&base).unwrap();
            assert!(out.contains("# 4 matching event(s)"), "{out}");

            let out = run(&LogsArgs {
                level: Some("warn".into()),
                ..base.clone()
            })
            .unwrap();
            assert!(out.contains("server.slow") && out.contains("server.panic"));
            assert!(!out.contains("server.access"), "{out}");

            let out = run(&LogsArgs {
                target: Some("server.access".into()),
                ..base.clone()
            })
            .unwrap();
            assert!(out.contains("# 1 matching event(s)"), "{out}");

            let out = run(&LogsArgs {
                trace_id: Some(7),
                ..base
            })
            .unwrap();
            assert!(out.contains("# 2 matching event(s)"), "{out}");
            assert!(!out.contains("server.panic"), "{out}");
        }

        #[test]
        fn tails_the_last_limit_events_and_counts_malformed() {
            let mut lines: Vec<String> = (0..10)
                .map(|i| event(i, "info", "server.access", None))
                .collect();
            lines.push("{not json".to_string());
            let file = log_file("tail", &lines.join("\n"));
            let out = run(&LogsArgs {
                file,
                level: None,
                target: None,
                trace_id: None,
                limit: 3,
            })
            .unwrap();
            // Only the last 3 of the 10 matches are printed.
            assert!(!out.contains("\"seq\":6"), "{out}");
            for seq in 7..10 {
                assert!(out.contains(&format!("\"seq\":{seq}")), "{out}");
            }
            assert!(out.contains("# 10 matching event(s), 1 malformed line(s) skipped"));
        }

        #[test]
        fn bad_level_and_missing_file_are_reported() {
            let err = run(&LogsArgs {
                file: "irrelevant".into(),
                level: Some("loud".into()),
                target: None,
                trace_id: None,
                limit: 1,
            })
            .unwrap_err();
            assert!(err.to_string().contains("--level expects"), "{err}");

            let err = run(&LogsArgs {
                file: "/nonexistent/questpro.log".into(),
                level: None,
                target: None,
                trace_id: None,
                limit: 1,
            })
            .unwrap_err();
            assert!(
                err.to_string().contains("/nonexistent/questpro.log"),
                "{err}"
            );
        }
    }
}

pub mod serve {
    //! `questpro serve` — the HTTP/JSON session service.

    use std::net::SocketAddr;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    use questpro_server::{ServerConfig, ServerHandle};

    use crate::args::ServeArgs;
    use crate::error::CliError;

    /// Runs the command: serve until `POST /shutdown` or stdin EOF.
    pub fn run(args: &ServeArgs) -> Result<String, CliError> {
        run_with_ready(args, |addr| {
            eprintln!("questpro-server listening on http://{addr}");
        })
    }

    /// [`run`] with a hook observing the bound address (tests bind
    /// `:0` and need the real port before the call blocks).
    pub fn run_with_ready(
        args: &ServeArgs,
        on_ready: impl FnOnce(SocketAddr),
    ) -> Result<String, CliError> {
        let log_level = match &args.log_level {
            None => questpro_log::Level::Info,
            Some(s) => questpro_log::Level::parse(s).ok_or_else(|| {
                CliError::Usage(format!(
                    "--log-level expects trace|debug|info|warn|error, got {s:?}"
                ))
            })?,
        };
        let handle = questpro_server::start(&ServerConfig {
            addr: args.addr.clone(),
            workers: args.workers,
            queue: args.queue,
            max_conns: args.max_conns,
            read_timeout_ms: args.read_timeout_ms,
            threads: args.threads,
            max_sessions: args.max_sessions,
            session_idle_secs: args.idle_secs,
            log_level,
            log_file: args.log_file.clone(),
            slow_query_ms: args.slow_ms,
            stores: args.store.clone().into_iter().collect(),
            ..ServerConfig::default()
        })
        .map_err(|e| CliError::io(&args.addr, e))?;
        let addr = handle.addr();
        on_ready(addr);
        watch_stdin(&handle);
        while !handle.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(50));
        }
        handle.join();
        Ok(format!("server on {addr} shut down cleanly\n"))
    }

    /// An operator closing the pipe (Ctrl-D, or the parent process
    /// exiting) is the local counterpart of `POST /shutdown`. The
    /// watcher thread blocks on a read and is leaked on shutdown-by-
    /// endpoint — acceptable: the process is about to exit.
    ///
    /// Only an interactive stdin is watched: a daemonized
    /// `questpro serve </dev/null &` would otherwise see instant EOF
    /// and shut down before serving anything.
    fn watch_stdin(handle: &ServerHandle) {
        use std::io::IsTerminal;
        if !std::io::stdin().is_terminal() {
            return;
        }
        let flag = std::sync::Arc::clone(&handle.state().shutdown);
        let _ = std::thread::Builder::new()
            .name("questpro-stdin-watch".into())
            .spawn(move || {
                use std::io::BufRead;
                let stdin = std::io::stdin();
                let mut line = String::new();
                loop {
                    line.clear();
                    match stdin.lock().read_line(&mut line) {
                        Ok(0) | Err(_) => break, // EOF or a broken pipe
                        Ok(_) => {}
                    }
                }
                flag.store(true, Ordering::SeqCst);
            });
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::args::ServeArgs;
        use std::io::Write;

        #[test]
        fn serves_until_shutdown_endpoint_fires() {
            let args = ServeArgs {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue: 8,
                max_conns: 64,
                read_timeout_ms: 5_000,
                threads: 1,
                max_sessions: 4,
                idle_secs: 60,
                log_file: None,
                log_level: None,
                slow_ms: 500,
                store: None,
            };
            let out = run_with_ready(&args, |addr| {
                // Shut the server down from a client thread as soon as
                // it is up; run() then unblocks and reports.
                std::thread::spawn(move || {
                    let mut s = std::net::TcpStream::connect(addr).unwrap();
                    write!(
                        s,
                        "POST /shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                    )
                    .unwrap();
                    let _ = std::io::Read::read_to_end(&mut s, &mut Vec::new());
                });
            })
            .unwrap();
            assert!(out.contains("shut down cleanly"));
        }
    }
}

pub mod store {
    //! `questpro store` — build and inspect binary snapshots.
    //!
    //! `build` encodes a world (streamed at `--scale`, or a fixed-size
    //! generator) or a triple-text file into the versioned snapshot
    //! format; `inspect` validates a snapshot's header/section table and
    //! prints its counts without assembling an ontology.

    use std::fmt::Write as _;

    use questpro_data::{scale_stream, ScaleConfig, ScaleItem, ScaleWorld};
    use questpro_store::{decode, encode, snapshot, StoreBuilder, TripleStore};

    use crate::args::{StoreBuildArgs, StoreCommand, StoreInspectArgs};
    use crate::commands::io;
    use crate::error::CliError;

    /// Runs the command.
    pub fn run(cmd: &StoreCommand) -> Result<String, CliError> {
        match cmd {
            StoreCommand::Build(b) => build(b),
            StoreCommand::Inspect(i) => inspect(i),
        }
    }

    /// Builds a [`TripleStore`] by streaming a scale world into the
    /// dictionary encoder — no triple text is ever materialized.
    fn stream_world(world: ScaleWorld, triples: u64, seed: u64) -> Result<TripleStore, CliError> {
        let mut b = StoreBuilder::new();
        for item in scale_stream(&ScaleConfig {
            world,
            triples,
            seed,
        }) {
            match item {
                ScaleItem::Triple { s, p, o } => b.add_triple(&s, &p, &o),
                ScaleItem::Type { node, ty } => {
                    b.add_type(&node, &ty).map_err(CliError::input)?;
                }
            }
        }
        b.build().map_err(CliError::input)
    }

    fn build(args: &StoreBuildArgs) -> Result<String, CliError> {
        let store = if let Some(path) = &args.ontology {
            let ont = io::load_ontology(path)?;
            TripleStore::from_ontology(&ont).map_err(CliError::input)?
        } else {
            let name = args.world.as_deref().unwrap_or_default();
            let world = ScaleWorld::from_name(name).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown world {name:?} (expected erdos|sp2b|bsbm|movies)"
                ))
            })?;
            if args.scale > 0 {
                stream_world(world, args.scale, args.seed)?
            } else {
                // No --scale: encode the world's fixed-size generator.
                let ont = match world {
                    ScaleWorld::Erdos => questpro_data::erdos_ontology(),
                    ScaleWorld::Sp2b => questpro_data::generate_sp2b(&questpro_data::Sp2bConfig {
                        seed: args.seed,
                        ..Default::default()
                    }),
                    ScaleWorld::Bsbm => questpro_data::generate_bsbm(&questpro_data::BsbmConfig {
                        seed: args.seed,
                        ..Default::default()
                    }),
                    ScaleWorld::Movies => {
                        questpro_data::generate_movies(&questpro_data::MoviesConfig {
                            seed: args.seed,
                            ..Default::default()
                        })
                    }
                };
                TripleStore::from_ontology(&ont).map_err(CliError::input)?
            }
        };
        let bytes = encode(&store);
        std::fs::write(&args.out, &bytes).map_err(|e| CliError::io(&args.out, e))?;
        let s = store.stats();
        Ok(format!(
            "wrote {} ({} bytes): {} triple(s), {} node(s), {} pred(s), {} type(s)\n",
            args.out,
            bytes.len(),
            s.triples,
            s.nodes,
            s.preds,
            s.types
        ))
    }

    fn inspect(args: &StoreInspectArgs) -> Result<String, CliError> {
        let bytes = std::fs::read(&args.file).map_err(|e| CliError::io(&args.file, e))?;
        let sections = snapshot::sections(&bytes).map_err(CliError::input)?;
        let store = decode(&bytes).map_err(CliError::input)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: questpro snapshot v{} ({} bytes, checksum ok)",
            args.file,
            snapshot::FORMAT_VERSION,
            bytes.len()
        );
        let _ = writeln!(out, "\nsections:");
        for s in sections {
            let _ = writeln!(
                out,
                "  {:>2}  {:<11} {:>12} byte(s) at {:>8}",
                s.id, s.name, s.len, s.offset
            );
        }
        let st = store.stats();
        let _ = writeln!(
            out,
            "\ncounts: {} triple(s), {} node(s), {} pred(s), {} type(s), \
             {} typed node(s), {} label byte(s)",
            st.triples, st.nodes, st.preds, st.types, st.typed_nodes, st.label_bytes
        );
        Ok(out)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn tmp(name: &str) -> String {
            std::env::temp_dir()
                .join(format!("questpro-store-cmd-{name}"))
                .to_string_lossy()
                .into_owned()
        }

        #[test]
        fn builds_inspects_and_reloads_a_scaled_snapshot() {
            let out = tmp("scaled.qps");
            let msg = build(&StoreBuildArgs {
                world: Some("sp2b".into()),
                scale: 2_000,
                seed: 7,
                ontology: None,
                out: out.clone(),
            })
            .unwrap();
            assert!(msg.contains("triple(s)"), "{msg}");

            let report = inspect(&StoreInspectArgs { file: out.clone() }).unwrap();
            assert!(report.contains("questpro snapshot v1"), "{report}");
            assert!(report.contains("checksum ok"), "{report}");
            for name in ["nodes", "preds", "types", "triples", "pos", "osp"] {
                assert!(report.contains(name), "{report}");
            }

            // Every --ontology flag accepts the snapshot transparently.
            let ont = io::load_ontology(&out).unwrap();
            assert!(ont.edge_count() >= 2_000, "{}", ont.edge_count());
            let _ = std::fs::remove_file(&out);
        }

        #[test]
        fn snapshot_of_text_file_round_trips_the_ontology() {
            let text = tmp("tiny.triples");
            std::fs::write(&text, "a p b\nb p c\n@type a T\n").unwrap();
            let out = tmp("tiny.qps");
            build(&StoreBuildArgs {
                world: None,
                scale: 0,
                seed: 0,
                ontology: Some(text.clone()),
                out: out.clone(),
            })
            .unwrap();
            let ont = io::load_ontology(&out).unwrap();
            assert_eq!(ont.edge_count(), 2);
            assert_eq!(ont.node_count(), 3);
            let a = ont.node_by_value("a").unwrap();
            assert_eq!(ont.type_str(ont.node_type(a).unwrap()), "T");
            let _ = std::fs::remove_file(&text);
            let _ = std::fs::remove_file(&out);
        }

        #[test]
        fn corrupted_snapshot_is_a_named_error() {
            let out = tmp("corrupt.qps");
            build(&StoreBuildArgs {
                world: Some("erdos".into()),
                scale: 0,
                seed: 0,
                ontology: None,
                out: out.clone(),
            })
            .unwrap();
            let mut bytes = std::fs::read(&out).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&out, &bytes).unwrap();
            let err = inspect(&StoreInspectArgs { file: out.clone() }).unwrap_err();
            // The last byte lands in the osp permutation, validated
            // structurally rather than by checksum (the checksum stops
            // at the pos section); either named rejection counts.
            let msg = err.to_string();
            assert!(
                msg.contains("checksum mismatch") || msg.contains("bad osp section"),
                "{msg}"
            );
            let _ = std::fs::remove_file(&out);
        }

        #[test]
        fn unknown_world_is_a_usage_error() {
            let err = build(&StoreBuildArgs {
                world: Some("atlantis".into()),
                scale: 0,
                seed: 0,
                ontology: None,
                out: tmp("never.qps"),
            })
            .unwrap_err();
            assert!(err.to_string().contains("unknown world"), "{err}");
        }
    }
}

pub mod fuzz {
    //! `questpro fuzz` — deterministic fuzzing of every input parser.

    use std::fmt::Write as _;

    use questpro_fuzz::{run_all, run_surface, FuzzConfig, Surface};

    use crate::args::FuzzArgs;
    use crate::error::CliError;

    /// Runs the command: fuzz the selected surface(s) and report.
    ///
    /// A clean run returns the per-surface summary lines; any panic or
    /// oracle violation becomes a [`CliError::Input`] carrying the full
    /// report (reproducers included), so scripts and CI fail on it.
    pub fn run(args: &FuzzArgs) -> Result<String, CliError> {
        let cfg = FuzzConfig {
            seed: args.seed,
            iters: args.iters,
            ..FuzzConfig::default()
        };
        let reports = match &args.surface {
            Some(name) => {
                let surface = Surface::from_name(name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown surface {name:?}; expected wire, sparql, triples, http, or store"
                    ))
                })?;
                vec![run_surface(surface, &cfg)]
            }
            None => run_all(&cfg),
        };
        let mut out = String::new();
        for report in &reports {
            let _ = write!(out, "{report}");
        }
        if reports.iter().all(|r| r.clean()) {
            Ok(out)
        } else {
            Err(CliError::Input(format!(
                "fuzzing found failures (replay with --seed {}):\n{out}",
                args.seed
            )))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn args(surface: Option<&str>, all: bool) -> FuzzArgs {
            FuzzArgs {
                surface: surface.map(String::from),
                all,
                seed: 4,
                iters: 50,
            }
        }

        #[test]
        fn single_surface_runs_clean() {
            let out = run(&args(Some("wire"), false)).unwrap();
            assert!(out.contains("surface wire: 50 iters, 0 panics, 0 violations"));
        }

        #[test]
        fn all_surfaces_run_clean() {
            let out = run(&args(None, true)).unwrap();
            for name in ["wire", "sparql", "triples", "http", "store", "update"] {
                assert!(out.contains(&format!("surface {name}:")), "{out}");
            }
        }

        #[test]
        fn unknown_surface_is_a_usage_error() {
            let err = run(&args(Some("nope"), false)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)));
        }
    }
}

pub mod top {
    //! `questpro top` — a live terminal dashboard over a running
    //! server's `/metrics` scrape.
    //!
    //! The dashboard is a pure function of two consecutive scrapes
    //! (rates come from counter diffs, latency quantiles from the
    //! cumulative log2 histogram buckets), so everything below the
    //! polling loop is unit-testable on canned scrape text. Live mode
    //! redraws with plain ANSI (clear + home) every `--interval-ms` and
    //! exits cleanly when the server goes away; `--once` prints a
    //! single snapshot without touching the terminal state.

    use std::collections::HashMap;
    use std::fmt::Write as _;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    use crate::args::TopArgs;
    use crate::error::CliError;

    /// One parsed `/metrics` scrape: every sample keyed by its full
    /// series name (family plus rendered label set).
    struct Scrape {
        series: HashMap<String, f64>,
    }

    impl Scrape {
        /// Parses Prometheus text exposition: `name{labels} value`
        /// lines, comments skipped. Unparsable values are dropped
        /// rather than failing the whole scrape.
        fn parse(text: &str) -> Self {
            let mut series = HashMap::new();
            for line in text.lines() {
                if line.starts_with('#') || line.trim().is_empty() {
                    continue;
                }
                if let Some((key, value)) = line.rsplit_once(' ') {
                    if let Ok(v) = value.parse::<f64>() {
                        series.insert(key.to_string(), v);
                    }
                }
            }
            Self { series }
        }

        /// Value of one exact series, 0 when absent.
        fn get(&self, key: &str) -> f64 {
            self.series.get(key).copied().unwrap_or(0.0)
        }

        /// Sums every series of `family` (all label combinations).
        fn sum(&self, family: &str) -> f64 {
            let braced = format!("{family}{{");
            self.series
                .iter()
                .filter(|(k, _)| *k == family || k.starts_with(&braced))
                .map(|(_, v)| v)
                .sum()
        }

        /// Cumulative histogram points `(le, count)` for one labeled
        /// family, sorted by bound; `+Inf` maps to `f64::INFINITY`.
        fn buckets(&self, family: &str, selector: &str) -> Vec<(f64, f64)> {
            let prefix = format!("{family}_bucket{{");
            let mut points: Vec<(f64, f64)> = self
                .series
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix) && k.contains(selector))
                .filter_map(|(k, &v)| {
                    let le = k.split("le=\"").nth(1)?.split('"').next()?;
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().ok()?
                    };
                    Some((le, v))
                })
                .collect();
            points.sort_by(|a, b| a.0.total_cmp(&b.0));
            points
        }

        /// Every distinct value of `label` across one family's
        /// `_count` series (used to enumerate routes from the scrape
        /// itself, so the dashboard needs no route table of its own).
        fn label_values(&self, family: &str, label: &str) -> Vec<String> {
            let prefix = format!("{family}_count{{{label}=\"");
            let mut values: Vec<String> = self
                .series
                .keys()
                .filter_map(|k| k.strip_prefix(&prefix))
                .filter_map(|rest| rest.split('"').next())
                .map(String::from)
                .collect();
            values.sort();
            values
        }
    }

    /// Quantile of a cumulative histogram by linear interpolation
    /// within the owning bucket (the `histogram_quantile` rule). An
    /// empty histogram yields `None`; a quantile landing in the `+Inf`
    /// bucket reports the last finite bound.
    fn quantile(points: &[(f64, f64)], q: f64) -> Option<f64> {
        let count = points.last().map(|&(_, c)| c)?;
        if count <= 0.0 {
            return None;
        }
        let target = q * count;
        let mut lower_bound = 0.0;
        let mut lower_count = 0.0;
        for &(le, cum) in points {
            if cum >= target {
                if le.is_infinite() {
                    return Some(lower_bound);
                }
                let span = cum - lower_count;
                let frac = if span > 0.0 {
                    (target - lower_count) / span
                } else {
                    1.0
                };
                return Some(lower_bound + frac * (le - lower_bound));
            }
            lower_bound = le;
            lower_count = cum;
        }
        points.iter().rev().find(|p| p.0.is_finite()).map(|p| p.0)
    }

    /// Formats nanoseconds at human scale (`870ns`, `13.1µs`, `2.4ms`,
    /// `1.7s`).
    fn fmt_ns(ns: f64) -> String {
        if ns < 1_000.0 {
            format!("{ns:.0}ns")
        } else if ns < 1_000_000.0 {
            format!("{:.1}µs", ns / 1_000.0)
        } else if ns < 1_000_000_000.0 {
            format!("{:.1}ms", ns / 1_000_000.0)
        } else {
            format!("{:.2}s", ns / 1_000_000_000.0)
        }
    }

    /// `hits/lookups` as a percentage, `-` when nothing was looked up.
    fn hit_rate(hits: f64, lookups: f64) -> String {
        if lookups <= 0.0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * hits / lookups)
        }
    }

    /// The three quantiles of one labeled histogram as one cell each.
    fn quantile_cells(scrape: &Scrape, family: &str, selector: &str) -> [String; 3] {
        let points = scrape.buckets(family, selector);
        [0.50, 0.95, 0.99].map(|q| quantile(&points, q).map_or_else(|| "-".to_string(), fmt_ns))
    }

    /// Renders one dashboard frame. `prev` (with the elapsed seconds
    /// since it) turns monotonic counters into rates; without it the
    /// rate column shows `-`.
    fn render(addr: &str, prev: Option<(&Scrape, f64)>, cur: &Scrape) -> String {
        let mut out = String::new();
        let rate = |family: &str| -> String {
            match prev {
                Some((p, secs)) if secs > 0.0 => {
                    format!("{:.1}/s", (cur.sum(family) - p.sum(family)).max(0.0) / secs)
                }
                _ => "-".to_string(),
            }
        };
        let _ = writeln!(out, "questpro top — {addr}");
        let _ = writeln!(
            out,
            "\ntraffic   requests {:>10}   rps {:>9}   open conns {:>5}   sessions live {:>4}",
            cur.get("questpro_http_requests_total"),
            rate("questpro_http_requests_total"),
            cur.get("questpro_http_connections_open"),
            cur.get("questpro_sessions_live"),
        );
        let _ = writeln!(
            out,
            "status    2xx {:>10}   4xx {:>8}   5xx {:>8}   overload {:>6}   timeouts {:>6}",
            cur.get("questpro_http_responses_2xx_total"),
            cur.get("questpro_http_responses_4xx_total"),
            cur.get("questpro_http_responses_5xx_total"),
            cur.get("questpro_http_overload_rejections_total"),
            cur.get("questpro_http_request_timeouts_total"),
        );

        let _ = writeln!(
            out,
            "\nroutes                          count        p50        p95        p99"
        );
        let mut routes: Vec<(String, f64)> = cur
            .label_values("questpro_route_duration_ns", "route")
            .into_iter()
            .map(|r| {
                let count = cur.get(&format!(
                    "questpro_route_duration_ns_count{{route=\"{r}\"}}"
                ));
                (r, count)
            })
            .filter(|(_, c)| *c > 0.0)
            .collect();
        routes.sort_by(|a, b| b.1.total_cmp(&a.1));
        if routes.is_empty() {
            let _ = writeln!(out, "  (no requests served yet)");
        }
        for (route, count) in routes.iter().take(10) {
            let [p50, p95, p99] = quantile_cells(
                cur,
                "questpro_route_duration_ns",
                &format!("route=\"{route}\""),
            );
            let _ = writeln!(
                out,
                "  {route:<28} {count:>7} {p50:>10} {p95:>10} {p99:>10}"
            );
        }

        let _ = writeln!(
            out,
            "\nsessions  outcome     finished  questions   rounds p50/p95/p99      wall p95"
        );
        for outcome in ["converged", "abandoned", "evicted"] {
            let selector = format!("outcome=\"{outcome}\"");
            let finished = cur.get(&format!("questpro_session_outcomes_total{{{selector}}}"));
            let questions = cur.get(&format!("questpro_session_questions_total{{{selector}}}"));
            let rounds = cur.buckets("questpro_session_rounds", &selector);
            let rq = [0.50, 0.95, 0.99].map(|q| {
                quantile(&rounds, q).map_or_else(|| "-".to_string(), |v| format!("{v:.1}"))
            });
            let wall = quantile(
                &cur.buckets("questpro_session_duration_ns", &selector),
                0.95,
            )
            .map_or_else(|| "-".to_string(), fmt_ns);
            let _ = writeln!(
                out,
                "          {outcome:<10} {finished:>8} {questions:>10}   {:>17} {wall:>13}",
                rq.join("/")
            );
        }

        let session_merge_hits = cur.sum("questpro_session_merge_hits_total");
        let session_merge_lookups = cur.sum("questpro_session_merge_lookups_total");
        let _ = writeln!(
            out,
            "\ncaches    consistency hit {:>7}   session merge hit {:>7}",
            hit_rate(
                cur.get("questpro_consistency_hits_total"),
                cur.get("questpro_consistency_lookups_total"),
            ),
            hit_rate(session_merge_hits, session_merge_lookups),
        );
        let _ = writeln!(
            out,
            "telemetry records {:>8} (dropped {})   keys {:>3}   traces {:>5} held/{} dropped\n\
             log       emitted {:>8}   drained {:>8}   dropped {:>6}   retained {:>6}",
            cur.get("questpro_session_records_total"),
            cur.get("questpro_session_records_dropped_total"),
            cur.get("questpro_session_keys_live"),
            cur.get("questpro_traces_retained"),
            cur.get("questpro_traces_dropped_total"),
            cur.get("questpro_log_events_total"),
            cur.get("questpro_log_drained_total"),
            cur.get("questpro_log_dropped_total"),
            cur.get("questpro_log_retained"),
        );
        out
    }

    /// Fetches `/metrics` from `addr` over a fresh connection.
    fn fetch(addr: &str) -> Result<Scrape, CliError> {
        let mut stream = TcpStream::connect(addr).map_err(|e| CliError::io(addr, e))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| CliError::io(addr, e))?;
        write!(
            stream,
            "GET /metrics HTTP/1.1\r\nHost: top\r\nConnection: close\r\n\r\n"
        )
        .map_err(|e| CliError::io(addr, e))?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| CliError::io(addr, e))?;
        let status = line.split_whitespace().nth(1).unwrap_or("");
        if status != "200" {
            return Err(CliError::Input(format!(
                "{addr} answered {} to GET /metrics",
                status.trim()
            )));
        }
        let mut content_length = 0usize;
        loop {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| CliError::io(addr, e))?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(v) = trimmed
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = v
                    .parse()
                    .map_err(|_| CliError::Input(format!("{addr}: bad content-length")))?;
            }
        }
        let mut body = vec![0u8; content_length];
        reader
            .read_exact(&mut body)
            .map_err(|e| CliError::io(addr, e))?;
        let text = String::from_utf8(body)
            .map_err(|_| CliError::Input(format!("{addr}: non-UTF-8 scrape")))?;
        Ok(Scrape::parse(&text))
    }

    /// Runs the command. `--once` returns a single frame; live mode
    /// redraws until the server becomes unreachable (the first scrape
    /// must succeed so a wrong address still fails loudly).
    pub fn run(args: &TopArgs) -> Result<String, CliError> {
        let first = fetch(&args.addr)?;
        if args.once {
            return Ok(render(&args.addr, None, &first));
        }
        let interval = Duration::from_millis(args.interval_ms);
        let mut prev = first;
        let mut stdout = std::io::stdout();
        let _ = write!(stdout, "\x1b[2J\x1b[H{}", render(&args.addr, None, &prev));
        let _ = stdout.flush();
        loop {
            std::thread::sleep(interval);
            let Ok(cur) = fetch(&args.addr) else {
                return Ok(format!("\nserver at {} is gone; exiting\n", args.addr));
            };
            let elapsed = interval.as_secs_f64();
            let frame = render(&args.addr, Some((&prev, elapsed)), &cur);
            let _ = write!(stdout, "\x1b[2J\x1b[H{frame}");
            let _ = stdout.flush();
            prev = cur;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn hist(family: &str, label: &str, counts: &[(u64, u64)], total: u64) -> String {
            let mut out = String::new();
            for (le, cum) in counts {
                let _ = writeln!(out, "{family}_bucket{{{label},le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{family}_bucket{{{label},le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "{family}_sum{{{label}}} 0");
            let _ = writeln!(out, "{family}_count{{{label}}} {total}");
            out
        }

        #[test]
        fn quantiles_interpolate_within_the_owning_bucket() {
            // 10 samples: 5 at ≤1024, all 10 at ≤2048.
            let points = vec![(1024.0, 5.0), (2048.0, 10.0), (f64::INFINITY, 10.0)];
            assert_eq!(quantile(&points, 0.5), Some(1024.0));
            let p99 = quantile(&points, 0.99).unwrap();
            assert!((2027.0..=2048.0).contains(&p99), "{p99}");
            // Everything in the overflow bucket reports the last
            // finite bound rather than infinity.
            let overflow = vec![(1024.0, 0.0), (f64::INFINITY, 3.0)];
            assert_eq!(quantile(&overflow, 0.95), Some(1024.0));
            assert_eq!(quantile(&[], 0.5), None);
            assert_eq!(quantile(&[(1024.0, 0.0), (f64::INFINITY, 0.0)], 0.5), None);
        }

        #[test]
        fn renders_a_frame_from_canned_scrape_text() {
            let mut scrape = String::from(
                "# HELP questpro_http_requests_total Requests.\n\
                 # TYPE questpro_http_requests_total counter\n\
                 questpro_http_requests_total 120\n\
                 questpro_http_responses_2xx_total 100\n\
                 questpro_http_connections_open 3\n\
                 questpro_sessions_live 2\n\
                 questpro_session_outcomes_total{outcome=\"converged\"} 4\n\
                 questpro_session_outcomes_total{outcome=\"abandoned\"} 1\n\
                 questpro_session_outcomes_total{outcome=\"evicted\"} 0\n\
                 questpro_session_questions_total{outcome=\"converged\"} 12\n\
                 questpro_consistency_lookups_total 200\n\
                 questpro_consistency_hits_total 150\n\
                 questpro_session_merge_lookups_total{outcome=\"converged\"} 40\n\
                 questpro_session_merge_hits_total{outcome=\"converged\"} 10\n\
                 questpro_session_records_total 5\n",
            );
            scrape.push_str(&hist(
                "questpro_route_duration_ns",
                "route=\"GET /healthz\"",
                &[(1024, 90), (2048, 100)],
                100,
            ));
            scrape.push_str(&hist(
                "questpro_session_rounds",
                "outcome=\"converged\"",
                &[(1, 0), (2, 1), (4, 4)],
                4,
            ));
            let cur = Scrape::parse(&scrape);

            let frame = render("127.0.0.1:7474", None, &cur);
            assert!(frame.contains("questpro top — 127.0.0.1:7474"), "{frame}");
            assert!(frame.contains("GET /healthz"), "{frame}");
            assert!(frame.contains("converged"), "{frame}");
            assert!(frame.contains("75.0%"), "consistency hit rate: {frame}");
            assert!(frame.contains("25.0%"), "merge hit rate: {frame}");
            // No previous sample: the rate column is a placeholder.
            assert!(frame.contains("rps         -"), "{frame}");

            // With a 2s-older scrape at 100 requests, rps = 10.0.
            let old = Scrape::parse("questpro_http_requests_total 100\n");
            let frame = render("127.0.0.1:7474", Some((&old, 2.0)), &cur);
            assert!(frame.contains("10.0/s"), "{frame}");
        }

        #[test]
        fn once_mode_snapshots_a_live_server() {
            let server = questpro_server::start(&questpro_server::ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue: 8,
                ..questpro_server::ServerConfig::default()
            })
            .expect("an ephemeral server");
            let addr = server.addr().to_string();
            // One request so the route table is non-empty.
            let _ = fetch(&addr).unwrap();
            let out = run(&TopArgs {
                addr: addr.clone(),
                interval_ms: 1_000,
                once: true,
            })
            .unwrap();
            assert!(out.contains(&format!("questpro top — {addr}")), "{out}");
            assert!(out.contains("GET /metrics"), "{out}");
            assert!(out.contains("telemetry records"), "{out}");
            server.join();
        }

        #[test]
        fn unreachable_server_is_a_named_error() {
            // A port from the ephemeral range with nothing bound.
            let err = run(&TopArgs {
                addr: "127.0.0.1:1".into(),
                interval_ms: 1_000,
                once: true,
            })
            .unwrap_err();
            assert!(err.to_string().contains("127.0.0.1:1"), "{err}");
        }
    }
}

pub mod update {
    //! `questpro update` — apply a batched triple update to a binary
    //! snapshot, copy-on-write.
    //!
    //! The batch file is the same JSON shape the server's
    //! `POST /ontologies/:name/update` endpoint accepts
    //! (`{"insert": [[s,p,o]...], "delete": [...]}`), so a batch can be
    //! rehearsed offline against a snapshot and then replayed against a
    //! live server — or vice versa. The incremental apply is guaranteed
    //! byte-identical to rebuilding the snapshot from scratch, and the
    //! input file is never touched until the new snapshot is fully
    //! encoded, so `--out` may safely equal `--store`.

    use questpro_store::{decode, encode};

    use crate::args::UpdateArgs;
    use crate::error::CliError;

    /// Runs the command.
    pub fn run(args: &UpdateArgs) -> Result<String, CliError> {
        let bytes = std::fs::read(&args.store).map_err(|e| CliError::io(&args.store, e))?;
        let store = decode(&bytes).map_err(CliError::input)?;
        let text =
            std::fs::read_to_string(&args.batch).map_err(|e| CliError::io(&args.batch, e))?;
        let body = questpro_wire::parse(&text)
            .map_err(|e| CliError::Input(format!("{}: invalid JSON: {e}", args.batch)))?;
        let delta = questpro_wire::update::parse_update(&body)
            .map_err(|e| CliError::Input(format!("{}: {e}", args.batch)))?;
        let updated = store.apply_update(&delta).map_err(CliError::input)?;
        let out_bytes = encode(&updated);
        std::fs::write(&args.out, &out_bytes).map_err(|e| CliError::io(&args.out, e))?;
        let s = updated.stats();
        Ok(format!(
            "applied {} insert(s), {} delete(s); wrote {} ({} bytes): \
             {} triple(s), {} node(s), {} pred(s)\n",
            delta.inserts.len(),
            delta.deletes.len(),
            args.out,
            out_bytes.len(),
            s.triples,
            s.nodes,
            s.preds
        ))
    }

    #[cfg(test)]
    mod tests {
        use questpro_store::{decode, encode, TripleStore};

        use super::*;

        fn tmp(name: &str) -> String {
            let dir = std::env::temp_dir().join(format!("questpro-update-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            dir.join(name).to_string_lossy().into_owned()
        }

        fn seed_snapshot(path: &str) {
            let ont = questpro_graph::triples::parse("a knows b\nb knows c\n").unwrap();
            let store = TripleStore::from_ontology(&ont).unwrap();
            std::fs::write(path, encode(&store)).unwrap();
        }

        #[test]
        fn updates_a_snapshot_in_place_and_matches_a_scratch_build() {
            let store_path = tmp("world.qps");
            let batch_path = tmp("batch.json");
            seed_snapshot(&store_path);
            std::fs::write(
                &batch_path,
                r#"{"insert": [["c", "knows", "a"]], "delete": [["a", "knows", "b"]]}"#,
            )
            .unwrap();
            let out = run(&UpdateArgs {
                store: store_path.clone(),
                batch: batch_path,
                out: store_path.clone(),
            })
            .unwrap();
            assert!(out.contains("applied 1 insert(s), 1 delete(s)"), "{out}");

            // The in-place result is byte-identical to building the
            // post-update world from scratch.
            let want = encode(
                &TripleStore::from_ontology(
                    &questpro_graph::triples::parse("b knows c\nc knows a\n").unwrap(),
                )
                .unwrap(),
            );
            let got = std::fs::read(&store_path).unwrap();
            assert_eq!(got, want, "incremental and scratch snapshots diverge");
            assert_eq!(decode(&got).unwrap().stats().triples, 2);
        }

        #[test]
        fn rejected_batches_leave_the_input_untouched() {
            let store_path = tmp("keep.qps");
            let batch_path = tmp("bad.json");
            seed_snapshot(&store_path);
            let before = std::fs::read(&store_path).unwrap();
            for (bad, needle) in [
                (r#"{"delete": [["x", "y", "z"]]}"#, "no such triple"),
                (r#"{}"#, "update batch is empty"),
                (r#"{"insert": [["a", "b"]]}"#, "exactly 3"),
                ("not json", "invalid JSON"),
            ] {
                std::fs::write(&batch_path, bad).unwrap();
                let err = run(&UpdateArgs {
                    store: store_path.clone(),
                    batch: batch_path.clone(),
                    out: store_path.clone(),
                })
                .unwrap_err()
                .to_string();
                assert!(err.contains(needle), "{bad}: {err}");
                assert_eq!(
                    std::fs::read(&store_path).unwrap(),
                    before,
                    "a rejected batch must not touch the snapshot"
                );
            }
        }

        #[test]
        fn missing_files_carry_their_paths() {
            let err = run(&UpdateArgs {
                store: "/no/such/file.qps".into(),
                batch: "/no/such/batch.json".into(),
                out: "/no/such/out.qps".into(),
            })
            .unwrap_err()
            .to_string();
            assert!(err.contains("/no/such/file.qps"), "{err}");
        }
    }
}
