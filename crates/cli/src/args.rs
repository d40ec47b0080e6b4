//! Hand-rolled argument parsing (no external dependencies).
//!
//! Grammar: `questpro <subcommand> [--flag value]...`. Every flag takes
//! exactly one value except boolean switches (`--diseqs`, `--refine`).

use crate::error::CliError;

/// Top-level usage text.
pub const USAGE: &str = "\
questpro — interactive inference of SPARQL queries using provenance

USAGE:
  questpro generate --world <erdos|sp2b|bsbm|movies> --out FILE [--seed N]
                    [--scale N]   (stream a ~N-triple world instead of the
                    fixed-size generator)
  questpro eval     --ontology FILE --query FILE [--provenance VALUE]
                    [--polynomial] [--limit N] [--threads N|auto]
  questpro infer    --ontology FILE --examples FILE [--k N] [--w1 F] [--w2 F]
                    [--diseqs] [--optional] [--minimize] [--threads N|auto]
  questpro sample   --ontology FILE --query FILE [-n N] [--seed N]
                    [--result VALUE]   (explanations for one chosen result)
  questpro explore  --ontology FILE --node VALUE [--depth N]
  questpro session  --ontology FILE --examples FILE [--target FILE]
                    [--k N] [--seed N] [--refine] [--threads N|auto]
                    (without --target the questions are asked on stdin)
  questpro diagnose --ontology FILE --examples FILE
  questpro serve    [--port N | --addr HOST:PORT] [--workers N] [--queue N]
                    [--max-conns N] [--read-timeout-ms N] [--threads N|auto]
                    [--max-sessions N] [--idle-secs N] [--log-file FILE]
                    [--log-level LEVEL] [--slow-ms N] [--store FILE]
                    (HTTP/JSON service; stops on POST /shutdown or terminal EOF;
                    --store preloads a binary snapshot into the registry)
  questpro store    build (--world <erdos|sp2b|bsbm|movies> [--scale N] [--seed N]
                    | --ontology FILE) --out FILE
                    (encode a world or triple file as a binary snapshot;
                    --scale streams triples straight into the encoder)
  questpro store    inspect --file FILE
                    (print snapshot version, section table, and store counts)
  questpro update   --store IN.qps --batch FILE.json --out OUT.qps
                    (apply a batched triple update — JSON {\"insert\": [[s,p,o]...],
                    \"delete\": [...]} — to a binary snapshot, copy-on-write;
                    the result is byte-identical to a from-scratch build)
  questpro trace    (--world <sp2b|bsbm|movies> [--query-id ID]
                    | --ontology FILE --query FILE)
                    [--examples N] [--k N] [--seed N] [--threads N|auto] [--refine]
                    [--chrome FILE]
                    (profile one full inference run; prints the span tree;
                    --chrome also writes Chrome trace-event JSON for
                    chrome://tracing / Perfetto)
  questpro logs     --file FILE [--level LEVEL] [--target T] [--trace-id N]
                    [--limit N]
                    (tail/filter a JSON-lines event log written by
                    `serve --log-file`; LEVEL is trace|debug|info|warn|error)
  questpro fuzz     (--surface <wire|sparql|triples|http|store|update> | --all)
                    [--seed N] [--iters N]
                    (deterministic fuzzing of the input parsers; exits
                    non-zero on any panic or oracle violation)
  questpro top      [--addr HOST:PORT | --port N] [--interval-ms N] [--once]
                    (live terminal dashboard over a running server's
                    /metrics: rps, open connections, per-route latency
                    quantiles, session outcomes and convergence rounds,
                    cache hit rates; --once prints one snapshot and exits)

FILES:
  ontology  — triple text format (`src pred dst`, `@type value Type`), or a
              binary snapshot built by `questpro store build` (auto-detected)
  examples  — explanation blocks (`dis <value>` + edges, blank-line separated)
  query     — SPARQL dialect (`SELECT ?x WHERE { ... }` [UNION ...])
";

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `questpro generate`.
    Generate(GenerateArgs),
    /// `questpro eval`.
    Eval(EvalArgs),
    /// `questpro infer`.
    Infer(InferArgs),
    /// `questpro sample`.
    Sample(SampleArgs),
    /// `questpro session`.
    Session(SessionArgs),
    /// `questpro diagnose`.
    Diagnose(DiagnoseArgs),
    /// `questpro explore`.
    Explore(ExploreArgs),
    /// `questpro serve`.
    Serve(ServeArgs),
    /// `questpro trace`.
    Trace(TraceArgs),
    /// `questpro logs`.
    Logs(LogsArgs),
    /// `questpro fuzz`.
    Fuzz(FuzzArgs),
    /// `questpro store` (build or inspect a binary snapshot).
    Store(StoreCommand),
    /// `questpro update` (apply a triple batch to a snapshot).
    Update(UpdateArgs),
    /// `questpro top` (live dashboard over a server's `/metrics`).
    Top(TopArgs),
}

/// Arguments of `questpro top`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopArgs {
    /// Scrape address (`HOST:PORT`) of the running server.
    pub addr: String,
    /// Milliseconds between scrapes in live mode.
    pub interval_ms: u64,
    /// Print one snapshot and exit instead of looping.
    pub once: bool,
}

/// Arguments of `questpro update`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateArgs {
    /// Input binary snapshot path.
    pub store: String,
    /// JSON batch file (`{"insert": [[s,p,o]...], "delete": [...]}` —
    /// the same shape `POST /ontologies/:name/update` accepts).
    pub batch: String,
    /// Output snapshot path (may equal `store`; the input is fully
    /// validated and the new snapshot fully encoded before anything is
    /// written).
    pub out: String,
}

/// The verb of `questpro store`.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreCommand {
    /// `questpro store build`.
    Build(StoreBuildArgs),
    /// `questpro store inspect`.
    Inspect(StoreInspectArgs),
}

/// Arguments of `questpro store build`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreBuildArgs {
    /// Built-in world to stream into the encoder (mutually exclusive
    /// with `ontology`).
    pub world: Option<String>,
    /// Approximate triple count for world mode (0 = the world's
    /// fixed-size generator).
    pub scale: u64,
    /// Generator seed (world mode).
    pub seed: u64,
    /// Triple-text ontology file to encode (file mode).
    pub ontology: Option<String>,
    /// Snapshot output path.
    pub out: String,
}

/// Arguments of `questpro store inspect`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreInspectArgs {
    /// Snapshot path to inspect.
    pub file: String,
}

/// Arguments of `questpro generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Which world to generate.
    pub world: String,
    /// Output path.
    pub out: String,
    /// Generator seed.
    pub seed: u64,
    /// Approximate triple count to stream (None = the world's
    /// fixed-size generator).
    pub scale: Option<u64>,
}

/// Arguments of `questpro eval`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalArgs {
    /// Ontology path.
    pub ontology: String,
    /// Query path.
    pub query: String,
    /// Value whose provenance should be printed, if any.
    pub provenance: Option<String>,
    /// Bound on the number of provenance graphs printed.
    pub limit: usize,
    /// Print semiring provenance polynomials instead of graphs.
    pub polynomial: bool,
    /// Worker threads for evaluation / provenance enumeration.
    pub threads: usize,
}

/// Arguments of `questpro infer`.
#[derive(Debug, Clone, PartialEq)]
pub struct InferArgs {
    /// Ontology path.
    pub ontology: String,
    /// Examples path.
    pub examples: String,
    /// Beam width / number of candidates.
    pub k: usize,
    /// Generalization weight w1 (variables).
    pub w1: f64,
    /// Generalization weight w2 (branches).
    pub w2: f64,
    /// Whether to augment candidates with inferred disequalities.
    pub diseqs: bool,
    /// Whether to tolerate shape mismatches via OPTIONAL edges.
    pub optional: bool,
    /// Whether to core-minimize candidates before printing.
    pub minimize: bool,
    /// Worker threads for the inference hot path.
    pub threads: usize,
}

/// Arguments of `questpro sample`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleArgs {
    /// Ontology path.
    pub ontology: String,
    /// Target query path.
    pub query: String,
    /// Number of explanations to sample.
    pub n: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Compile explanations for this specific result value instead of
    /// sampling results (the paper's user flow: pick the output example,
    /// let the system offer its possible explanations).
    pub result: Option<String>,
}

/// Arguments of `questpro explore`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreArgs {
    /// Ontology path.
    pub ontology: String,
    /// Value of the node whose neighborhood to display.
    pub node: String,
    /// Neighborhood radius (the paper's 1-neighborhood browser).
    pub depth: usize,
}

/// Arguments of `questpro session`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionArgs {
    /// Ontology path.
    pub ontology: String,
    /// Examples path.
    pub examples: String,
    /// Target query path (drives the simulated oracle); `None` means
    /// interactive: questions are asked on the terminal.
    pub target: Option<String>,
    /// Beam width.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
    /// Whether to run disequality refinement.
    pub refine: bool,
    /// Worker threads for the inference hot path.
    pub threads: usize,
}

/// Arguments of `questpro serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address (`HOST:PORT`).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded backlog of requests waiting for a busy worker.
    pub queue: usize,
    /// Maximum concurrently open connections.
    pub max_conns: usize,
    /// Socket read timeout, ms; also caps keep-alive idle time.
    pub read_timeout_ms: u64,
    /// Default inference threads per request.
    pub threads: usize,
    /// Maximum live interactive sessions.
    pub max_sessions: usize,
    /// Idle-session eviction window, seconds.
    pub idle_secs: u64,
    /// JSON-lines sink path for the structured event log, if any.
    pub log_file: Option<String>,
    /// Minimum level kept by the event log (default `info`).
    pub log_level: Option<String>,
    /// Slow-query log threshold in milliseconds (0 disables it).
    pub slow_ms: u64,
    /// Binary snapshot to preload into the ontology registry, if any.
    pub store: Option<String>,
}

/// Arguments of `questpro trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Built-in world to generate (`sp2b`, `bsbm`, `movies`); mutually
    /// exclusive with `ontology`.
    pub world: Option<String>,
    /// Workload query ID within the world (defaults to the first).
    pub query_id: Option<String>,
    /// Ontology path (file mode).
    pub ontology: Option<String>,
    /// Target query path (file mode).
    pub query: Option<String>,
    /// Number of explanations to sample as the example-set.
    pub examples: usize,
    /// Beam width.
    pub k: usize,
    /// RNG seed (sampling and world generation).
    pub seed: u64,
    /// Worker threads for the inference hot path.
    pub threads: usize,
    /// Whether to run disequality refinement.
    pub refine: bool,
    /// Path for a Chrome trace-event JSON export, if any.
    pub chrome: Option<String>,
}

/// Arguments of `questpro logs`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogsArgs {
    /// JSON-lines log file to read (written by `serve --log-file`).
    pub file: String,
    /// Minimum level to keep (`trace|debug|info|warn|error`).
    pub level: Option<String>,
    /// Keep only events with this exact target.
    pub target: Option<String>,
    /// Keep only events joined to this trace ID.
    pub trace_id: Option<u64>,
    /// Print at most the last N matching events.
    pub limit: usize,
}

/// Arguments of `questpro fuzz`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArgs {
    /// Surface to fuzz (`wire`, `sparql`, `triples`, `http`, `store`,
    /// `update`); `None` with `all` set means every surface.
    pub surface: Option<String>,
    /// Fuzz all surfaces.
    pub all: bool,
    /// Master seed.
    pub seed: u64,
    /// Iterations per surface.
    pub iters: u64,
}

/// Arguments of `questpro diagnose`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseArgs {
    /// Ontology path.
    pub ontology: String,
    /// Examples path.
    pub examples: String,
}

/// Parses a full argument vector (excluding the program name).
///
/// # Errors
/// Returns [`CliError::Usage`] with a helpful message on any problem.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some((sub, rest)) = argv.split_first() else {
        return Err(CliError::Usage(format!("missing subcommand\n\n{USAGE}")));
    };
    if sub == "store" {
        // `store` takes a verb positional before its flags.
        return parse_store(rest);
    }
    let flags = Flags::parse(rest)?;
    if let Some((_, allowed)) = KNOWN_FLAGS.iter().find(|(name, _)| name == sub) {
        flags.check(sub, allowed)?;
    }
    match sub.as_str() {
        "generate" => Ok(Command::Generate(GenerateArgs {
            world: flags.require("world")?,
            out: flags.require("out")?,
            seed: flags.num("seed", 0)?,
            scale: match flags.get("scale") {
                None => None,
                Some(_) => Some(flags.num("scale", 0)?.max(1)),
            },
        })),
        "eval" => Ok(Command::Eval(EvalArgs {
            ontology: flags.require("ontology")?,
            query: flags.require("query")?,
            provenance: flags.get("provenance"),
            limit: flags.num("limit", 8)? as usize,
            polynomial: flags.switch("polynomial"),
            threads: flags.threads("threads")?,
        })),
        "infer" => Ok(Command::Infer(InferArgs {
            ontology: flags.require("ontology")?,
            examples: flags.require("examples")?,
            k: flags.num("k", 3)? as usize,
            w1: flags.float("w1", 2.0)?,
            w2: flags.float("w2", 5.0)?,
            diseqs: flags.switch("diseqs"),
            optional: flags.switch("optional"),
            minimize: flags.switch("minimize"),
            threads: flags.threads("threads")?,
        })),
        "sample" => Ok(Command::Sample(SampleArgs {
            ontology: flags.require("ontology")?,
            query: flags.require("query")?,
            n: flags.num("n", 3)? as usize,
            seed: flags.num("seed", 0)?,
            result: flags.get("result"),
        })),
        "session" => Ok(Command::Session(SessionArgs {
            ontology: flags.require("ontology")?,
            examples: flags.require("examples")?,
            target: flags.get("target"),
            k: flags.num("k", 3)? as usize,
            seed: flags.num("seed", 0)?,
            refine: flags.switch("refine"),
            threads: flags.threads("threads")?,
        })),
        "diagnose" => Ok(Command::Diagnose(DiagnoseArgs {
            ontology: flags.require("ontology")?,
            examples: flags.require("examples")?,
        })),
        "serve" => {
            let port = flags.num("port", 7474)?;
            Ok(Command::Serve(ServeArgs {
                addr: flags
                    .get("addr")
                    .unwrap_or_else(|| format!("127.0.0.1:{port}")),
                workers: flags.num("workers", 8)?.max(1) as usize,
                queue: flags.num("queue", 64)?.max(1) as usize,
                max_conns: flags.num("max-conns", 10_240)?.max(1) as usize,
                read_timeout_ms: flags.num("read-timeout-ms", 5_000)?.max(1),
                threads: flags.threads("threads")?,
                max_sessions: flags.num("max-sessions", 64)?.max(1) as usize,
                idle_secs: flags.num("idle-secs", 1_800)?.max(1),
                log_file: flags.get("log-file"),
                log_level: flags.get("log-level"),
                slow_ms: flags.num("slow-ms", 500)?,
                store: flags.get("store"),
            }))
        }
        "explore" => Ok(Command::Explore(ExploreArgs {
            ontology: flags.require("ontology")?,
            node: flags.require("node")?,
            depth: flags.num("depth", 1)? as usize,
        })),
        "trace" => Ok(Command::Trace(TraceArgs {
            world: flags.get("world"),
            query_id: flags.get("query-id"),
            ontology: flags.get("ontology"),
            query: flags.get("query"),
            examples: flags.num("examples", 4)?.max(1) as usize,
            k: flags.num("k", 3)?.max(1) as usize,
            seed: flags.num("seed", 0)?,
            threads: flags.threads("threads")?,
            refine: flags.switch("refine"),
            chrome: flags.get("chrome"),
        })),
        "logs" => Ok(Command::Logs(LogsArgs {
            file: flags.require("file")?,
            level: flags.get("level"),
            target: flags.get("target"),
            trace_id: flags
                .get("trace-id")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| CliError::Usage("--trace-id expects an integer".to_string()))?,
            limit: flags.num("limit", 64)?.max(1) as usize,
        })),
        "fuzz" => {
            let args = FuzzArgs {
                surface: flags.get("surface"),
                all: flags.switch("all"),
                seed: flags.num("seed", 0)?,
                iters: flags.num("iters", 10_000)?.max(1),
            };
            if args.surface.is_none() && !args.all {
                return Err(CliError::Usage(
                    "fuzz needs --surface <wire|sparql|triples|http|store|update> or --all"
                        .to_string(),
                ));
            }
            Ok(Command::Fuzz(args))
        }
        "update" => Ok(Command::Update(UpdateArgs {
            store: flags.require("store")?,
            batch: flags.require("batch")?,
            out: flags.require("out")?,
        })),
        "top" => {
            let port = flags.num("port", 7474)?;
            Ok(Command::Top(TopArgs {
                addr: flags
                    .get("addr")
                    .unwrap_or_else(|| format!("127.0.0.1:{port}")),
                interval_ms: flags.num("interval-ms", 2_000)?.max(100),
                once: flags.switch("once"),
            }))
        }
        "help" | "--help" | "-h" => Err(CliError::Usage(USAGE.to_string())),
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other:?}\n\n{USAGE}"
        ))),
    }
}

/// Parses `questpro store <verb> [--flags]`.
fn parse_store(rest: &[String]) -> Result<Command, CliError> {
    let Some((verb, rest)) = rest.split_first() else {
        return Err(CliError::Usage(
            "store needs a verb: `questpro store build ...` or `questpro store inspect ...`"
                .to_string(),
        ));
    };
    let flags = Flags::parse(rest)?;
    match verb.as_str() {
        "build" => {
            flags.check(
                "store build",
                &["world", "scale", "seed", "ontology", "out"],
            )?;
            let args = StoreBuildArgs {
                world: flags.get("world"),
                scale: flags.num("scale", 0)?,
                seed: flags.num("seed", 0)?,
                ontology: flags.get("ontology"),
                out: flags.require("out")?,
            };
            match (&args.world, &args.ontology) {
                (Some(_), Some(_)) => Err(CliError::Usage(
                    "store build takes --world or --ontology, not both".to_string(),
                )),
                (None, None) => Err(CliError::Usage(
                    "store build needs --world <erdos|sp2b|bsbm|movies> or --ontology FILE"
                        .to_string(),
                )),
                _ => Ok(Command::Store(StoreCommand::Build(args))),
            }
        }
        "inspect" => {
            flags.check("store inspect", &["file"])?;
            Ok(Command::Store(StoreCommand::Inspect(StoreInspectArgs {
                file: flags.require("file")?,
            })))
        }
        other => Err(CliError::Usage(format!(
            "unknown store verb {other:?} (expected build or inspect)"
        ))),
    }
}

/// Flag map with typed accessors.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

/// Boolean switches that take no value.
const SWITCHES: &[&str] = &[
    "diseqs",
    "refine",
    "optional",
    "minimize",
    "polynomial",
    "all",
    "once",
];

/// Per-subcommand flag allowlists. A flag outside its subcommand's list
/// — or any flag given twice — is a hard usage error, never silently
/// ignored.
const KNOWN_FLAGS: &[(&str, &[&str])] = &[
    ("generate", &["world", "out", "seed", "scale"]),
    (
        "eval",
        &[
            "ontology",
            "query",
            "provenance",
            "limit",
            "polynomial",
            "threads",
        ],
    ),
    (
        "infer",
        &[
            "ontology", "examples", "k", "w1", "w2", "diseqs", "optional", "minimize", "threads",
        ],
    ),
    ("sample", &["ontology", "query", "n", "seed", "result"]),
    (
        "session",
        &[
            "ontology", "examples", "target", "k", "seed", "refine", "threads",
        ],
    ),
    ("diagnose", &["ontology", "examples"]),
    (
        "serve",
        &[
            "port",
            "addr",
            "workers",
            "queue",
            "max-conns",
            "read-timeout-ms",
            "threads",
            "max-sessions",
            "idle-secs",
            "log-file",
            "log-level",
            "slow-ms",
            "store",
        ],
    ),
    ("explore", &["ontology", "node", "depth"]),
    (
        "trace",
        &[
            "world", "query-id", "ontology", "query", "examples", "k", "seed", "threads", "refine",
            "chrome",
        ],
    ),
    ("logs", &["file", "level", "target", "trace-id", "limit"]),
    ("fuzz", &["surface", "all", "seed", "iters"]),
    ("update", &["store", "batch", "out"]),
    ("top", &["addr", "port", "interval-ms", "once"]),
];

impl Flags {
    fn parse(rest: &[String]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut it = rest.iter().peekable();
        while let Some(tok) = it.next() {
            let name = tok
                .strip_prefix("--")
                .or_else(|| tok.strip_prefix('-').filter(|s| !s.is_empty()))
                .ok_or_else(|| CliError::Usage(format!("expected a --flag, found {tok:?}")))?;
            if SWITCHES.contains(&name) {
                pairs.push((name.to_string(), None));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
                pairs.push((name.to_string(), Some(value.clone())));
            }
        }
        Ok(Self { pairs })
    }

    /// Rejects unknown and duplicated flags for `sub` against its
    /// allowlist.
    fn check(&self, sub: &str, allowed: &[&str]) -> Result<(), CliError> {
        for (i, (name, _)) in self.pairs.iter().enumerate() {
            if !allowed.contains(&name.as_str()) {
                let expected: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
                return Err(CliError::Usage(format!(
                    "unknown flag --{name} for `questpro {sub}` (expected one of: {})\n\n\
                     run `questpro help` for the full usage",
                    expected.join(", ")
                )));
            }
            if self.pairs[..i].iter().any(|(n, _)| n == name) {
                return Err(CliError::Usage(format!(
                    "flag --{name} given more than once for `questpro {sub}`\n\n\
                     run `questpro help` for the full usage"
                )));
            }
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Option<String> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.clone())
    }

    fn switch(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn require(&self, name: &str) -> Result<String, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got {v:?}"))),
        }
    }

    fn float(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects a number, got {v:?}"))),
        }
    }

    /// Thread-count flag: an integer, or `auto` for the host's available
    /// parallelism. `0` and `auto`-on-a-degraded-host clamp to 1.
    fn threads(&self, name: &str) -> Result<usize, CliError> {
        match self.get(name) {
            None => Ok(1),
            Some(v) if v == "auto" => {
                Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
            }
            Some(v) => v.parse::<usize>().map(|n| n.max(1)).map_err(|_| {
                CliError::Usage(format!("--{name} expects an integer or `auto`, got {v:?}"))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&argv("generate --world sp2b --out w.triples --seed 7")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate(GenerateArgs {
                world: "sp2b".into(),
                out: "w.triples".into(),
                seed: 7,
                scale: None,
            })
        );
        let cmd = parse(&argv("generate --world sp2b --out w --scale 100000")).unwrap();
        match cmd {
            Command::Generate(g) => assert_eq!(g.scale, Some(100_000)),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_store_build_and_inspect() {
        let cmd = parse(&argv(
            "store build --world bsbm --scale 50000 --seed 3 --out w.qps",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Store(StoreCommand::Build(StoreBuildArgs {
                world: Some("bsbm".into()),
                scale: 50_000,
                seed: 3,
                ontology: None,
                out: "w.qps".into(),
            }))
        );
        let cmd = parse(&argv("store build --ontology o.triples --out o.qps")).unwrap();
        match cmd {
            Command::Store(StoreCommand::Build(b)) => {
                assert_eq!(b.ontology.as_deref(), Some("o.triples"));
                assert!(b.world.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse(&argv("store inspect --file w.qps")).unwrap();
        assert_eq!(
            cmd,
            Command::Store(StoreCommand::Inspect(StoreInspectArgs {
                file: "w.qps".into(),
            }))
        );
    }

    #[test]
    fn store_argument_errors_are_reported() {
        let err = parse(&argv("store")).unwrap_err();
        assert!(err.to_string().contains("store needs a verb"), "{err}");
        let err = parse(&argv("store frobnicate --out x")).unwrap_err();
        assert!(err.to_string().contains("unknown store verb"), "{err}");
        let err = parse(&argv("store build --out x")).unwrap_err();
        assert!(err.to_string().contains("--world"), "{err}");
        let err = parse(&argv("store build --world sp2b --ontology o --out x")).unwrap_err();
        assert!(err.to_string().contains("not both"), "{err}");
        let err = parse(&argv("store build --world sp2b")).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        let err = parse(&argv("store build --world sp2b --out x --bogus y")).unwrap_err();
        assert!(err.to_string().contains("unknown flag --bogus"), "{err}");
        let err = parse(&argv("store inspect --file a --file b")).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn parses_serve_with_store_preload() {
        let cmd = parse(&argv("serve --store w.qps")).unwrap();
        match cmd {
            Command::Serve(s) => assert_eq!(s.store.as_deref(), Some("w.qps")),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_infer_with_defaults_and_switch() {
        let cmd = parse(&argv("infer --ontology o --examples e --diseqs")).unwrap();
        match cmd {
            Command::Infer(i) => {
                assert_eq!(i.k, 3);
                assert_eq!(i.w1, 2.0);
                assert!(i.diseqs);
                assert!(!i.optional);
                assert_eq!(i.threads, 1);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn missing_required_flag_is_reported() {
        let err = parse(&argv("eval --ontology o")).unwrap_err();
        assert!(err.to_string().contains("--query"));
    }

    #[test]
    fn update_requires_all_three_paths() {
        match parse(&argv("update --store in.qps --batch b.json --out out.qps")).unwrap() {
            Command::Update(u) => {
                assert_eq!(u.store, "in.qps");
                assert_eq!(u.batch, "b.json");
                assert_eq!(u.out, "out.qps");
            }
            other => panic!("parsed {other:?}"),
        }
        for missing in [
            "update --batch b.json --out o.qps",
            "update --store i.qps --out o.qps",
            "update --store i.qps --batch b.json",
        ] {
            assert!(parse(&argv(missing)).is_err(), "{missing}");
        }
        // Unknown flags are rejected, not ignored.
        assert!(parse(&argv("update --store i --batch b --out o --k 3")).is_err());
    }

    #[test]
    fn parses_top_with_defaults_and_overrides() {
        let cmd = parse(&argv("top")).unwrap();
        assert_eq!(
            cmd,
            Command::Top(TopArgs {
                addr: "127.0.0.1:7474".into(),
                interval_ms: 2_000,
                once: false,
            })
        );
        let cmd = parse(&argv("top --addr 10.0.0.1:9999 --interval-ms 50 --once")).unwrap();
        match cmd {
            Command::Top(t) => {
                assert_eq!(t.addr, "10.0.0.1:9999");
                assert_eq!(t.interval_ms, 100, "interval clamps to 100ms");
                assert!(t.once);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse(&argv("top --port 8080 --once")).unwrap();
        match cmd {
            Command::Top(t) => assert_eq!(t.addr, "127.0.0.1:8080"),
            other => panic!("wrong command {other:?}"),
        }
        let err = parse(&argv("top --bogus x")).unwrap_err();
        assert!(err.to_string().contains("unknown flag --bogus"), "{err}");
    }

    #[test]
    fn unknown_subcommand_shows_usage() {
        let err = parse(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn flag_without_value_is_reported() {
        let err = parse(&argv("eval --ontology")).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn bad_number_is_reported() {
        let err = parse(&argv("infer --ontology o --examples e --k many")).unwrap_err();
        assert!(err.to_string().contains("integer"));
    }

    #[test]
    fn parses_threads_flag() {
        let cmd = parse(&argv("infer --ontology o --examples e --threads 8")).unwrap();
        match cmd {
            Command::Infer(i) => assert_eq!(i.threads, 8),
            other => panic!("wrong command {other:?}"),
        }
        // 0 is clamped to 1 (sequential).
        let cmd = parse(&argv("eval --ontology o --query q --threads 0")).unwrap();
        match cmd {
            Command::Eval(e) => assert_eq!(e.threads, 1),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_threads_auto() {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        for cmd in [
            "eval --ontology o --query q --threads auto",
            "infer --ontology o --examples e --threads auto",
            "session --ontology o --examples e --threads auto",
            "serve --threads auto",
            "trace --world sp2b --threads auto",
        ] {
            let threads = match parse(&argv(cmd)).unwrap() {
                Command::Eval(a) => a.threads,
                Command::Infer(a) => a.threads,
                Command::Session(a) => a.threads,
                Command::Serve(a) => a.threads,
                Command::Trace(a) => a.threads,
                other => panic!("wrong command {other:?}"),
            };
            assert_eq!(threads, hw, "{cmd}");
        }
        // Anything else non-numeric is still an error, with `auto` in the hint.
        let err = parse(&argv("infer --ontology o --examples e --threads both")).unwrap_err();
        assert!(err.to_string().contains("`auto`"), "{err}");
    }

    #[test]
    fn parses_serve_with_port_and_addr_override() {
        let cmd = parse(&argv("serve --port 9000 --workers 4")).unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.addr, "127.0.0.1:9000");
                assert_eq!(s.workers, 4);
                assert_eq!(s.queue, 64);
                assert_eq!(s.max_conns, 10_240);
                assert_eq!(s.read_timeout_ms, 5_000);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse(&argv("serve --addr 0.0.0.0:80 --port 9000")).unwrap();
        match cmd {
            Command::Serve(s) => assert_eq!(s.addr, "0.0.0.0:80", "--addr wins"),
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse(&argv("serve --max-conns 20000 --read-timeout-ms 60000")).unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.max_conns, 20_000);
                assert_eq!(s.read_timeout_ms, 60_000);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_trace_in_both_modes() {
        let cmd = parse(&argv("trace --world sp2b --query-id q8a --threads 8")).unwrap();
        match cmd {
            Command::Trace(t) => {
                assert_eq!(t.world.as_deref(), Some("sp2b"));
                assert_eq!(t.query_id.as_deref(), Some("q8a"));
                assert_eq!(t.examples, 4);
                assert_eq!(t.threads, 8);
                assert!(!t.refine);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse(&argv("trace --ontology o --query q --refine")).unwrap();
        match cmd {
            Command::Trace(t) => {
                assert!(t.world.is_none());
                assert_eq!(t.ontology.as_deref(), Some("o"));
                assert_eq!(t.query.as_deref(), Some("q"));
                assert!(t.refine);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn help_prints_usage() {
        let err = parse(&argv("help")).unwrap_err();
        assert!(err.to_string().contains("questpro generate"));
    }

    #[test]
    fn unknown_flag_is_a_hard_error_with_a_hint() {
        let err = parse(&argv("trace --world sp2b --frobnicate 3")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown flag --frobnicate"), "{msg}");
        assert!(
            msg.contains("--query-id"),
            "hint lists the real flags: {msg}"
        );
        assert!(msg.contains("questpro help"), "{msg}");

        let err = parse(&argv("fuzz --all --sneed 7")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown flag --sneed"), "{msg}");
        assert!(msg.contains("`questpro fuzz`"), "{msg}");

        // Every subcommand is covered, not just trace/fuzz.
        for cmd in [
            "generate --world sp2b --out w --bogus x",
            "eval --ontology o --query q --bogus x",
            "infer --ontology o --examples e --bogus x",
            "sample --ontology o --query q --bogus x",
            "session --ontology o --examples e --bogus x",
            "diagnose --ontology o --examples e --bogus x",
            "serve --bogus x",
            "explore --ontology o --node n --bogus x",
            "logs --file f --bogus x",
        ] {
            let err = parse(&argv(cmd)).unwrap_err();
            assert!(
                err.to_string().contains("unknown flag --bogus"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn duplicated_flag_is_a_hard_error() {
        let err = parse(&argv("trace --world sp2b --seed 1 --seed 2")).unwrap_err();
        assert!(
            err.to_string().contains("--seed given more than once"),
            "{err}"
        );
        let err = parse(&argv("fuzz --all --iters 5 --iters 9")).unwrap_err();
        assert!(
            err.to_string().contains("--iters given more than once"),
            "{err}"
        );
        // Repeated switches count too.
        let err = parse(&argv("fuzz --all --all")).unwrap_err();
        assert!(
            err.to_string().contains("--all given more than once"),
            "{err}"
        );
    }

    #[test]
    fn parses_trace_with_chrome_export() {
        let cmd = parse(&argv("trace --world sp2b --chrome out.json")).unwrap();
        match cmd {
            Command::Trace(t) => assert_eq!(t.chrome.as_deref(), Some("out.json")),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_logs_with_filters() {
        let cmd = parse(&argv(
            "logs --file app.log --level warn --target server.access --trace-id 42 --limit 5",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Logs(LogsArgs {
                file: "app.log".into(),
                level: Some("warn".into()),
                target: Some("server.access".into()),
                trace_id: Some(42),
                limit: 5,
            })
        );
        // --file is required; --trace-id must be numeric.
        let err = parse(&argv("logs --level warn")).unwrap_err();
        assert!(err.to_string().contains("--file"), "{err}");
        let err = parse(&argv("logs --file f --trace-id abc")).unwrap_err();
        assert!(err.to_string().contains("integer"), "{err}");
    }

    #[test]
    fn parses_serve_logging_flags() {
        let cmd = parse(&argv(
            "serve --log-file s.log --log-level debug --slow-ms 250",
        ))
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.log_file.as_deref(), Some("s.log"));
                assert_eq!(s.log_level.as_deref(), Some("debug"));
                assert_eq!(s.slow_ms, 250);
            }
            other => panic!("wrong command {other:?}"),
        }
    }
}
