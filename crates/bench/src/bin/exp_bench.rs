//! **B1** — hot-path benchmark for the parallel, cache-aware inference
//! pipeline: runs top-k inference (k = 3, 7 explanations) on the
//! heaviest workload queries at several thread counts, checks that
//! every parallel run reproduces the sequential output byte-for-byte,
//! and reports per-stage timings plus the consistency-cache hit rate.
//!
//! Run with: `cargo run --release -p questpro-bench --bin exp_bench`
//!
//! Flags:
//!
//! * `--threads N` — largest thread count to sweep to (default 8; the
//!   sweep is {1, 2, 4, …, N}).
//! * `--json PATH` — also write the results as a JSON document (this is
//!   what `scripts/bench.sh` uses to produce `BENCH_1.json`).
//! * `--tiny` — 1 trial and only the single heaviest query (CI smoke).
//! * `--trace-json PATH` — also run each query once under an enabled
//!   `questpro-trace` trace and write the per-stage self-time breakdown
//!   (this is what `scripts/bench.sh` uses to produce `BENCH_3.json`).
//! * `--trace-overhead` — measure the cost of a *disabled* span and
//!   assert the instrumentation adds < 5% to the 1-thread wall time
//!   (the CI `trace-overhead` smoke gate).
//! * `--log-overhead` — measure the cost of a *disabled* structured-log
//!   `emit` and assert the event instrumentation adds < 1% to the
//!   1-thread wall time (the CI `log-overhead` smoke gate).
//! * `--bench6 PATH` — write the B6 report: per-query wall times with
//!   validity-annotated parallelism, cold/warm columnar index-build
//!   times per world, and (with `--baseline BENCH_1.json`) the
//!   improvement factor over the committed pre-optimization walls (this
//!   is what `scripts/bench.sh` uses to produce `BENCH_6.json`).
//! * `--baseline PATH` — committed `BENCH_1.json` to diff `--bench6`
//!   runs against.
//! * `--bench7 PATH` — write the B7 report and exit: snapshot cold-start
//!   of a million-triple scale world (store build, encode, decode,
//!   ontology assembly) against the text re-parse path, with the ≥ 50x
//!   decode-vs-parse gate asserted, matcher throughput on the world's
//!   anchor query, and a corruption sweep proving the loader never
//!   panics (this is what `scripts/bench.sh` uses to produce
//!   `BENCH_7.json`; `--tiny` drops the scale to 10⁵ triples and the
//!   gate to a sanity threshold, since fixed per-process costs dominate
//!   a millisecond decode).
//! * `--bench7-decode-child FILE` / `--bench7-parse-child FILE` —
//!   internal timing children for `--bench7`: decode a snapshot file /
//!   run the full text-to-store path, printing
//!   `"<milliseconds> <rows>"`. Each B7 measurement re-execs this
//!   binary in one of these modes so it pays true cold-start costs.
//! * `--telemetry-overhead` — drive one real interactive session per
//!   heavy query with telemetry disabled, measure the cost of building
//!   and offering its `SessionRecord` on the disabled path, and assert
//!   the one record a session lifecycle pays adds < 1% to the 1-thread
//!   inference wall (the CI `telemetry-overhead` smoke gate).
//! * `--bench10 PATH` — write the B10 report and exit: interactive
//!   sessions driven to convergence on three seeded worlds twice with
//!   identical seeds — telemetry disabled, then enabled — with median
//!   session walls per mode, the per-world convergence-round
//!   distribution plus the aggregator's marginal histogram, and the
//!   disabled-path record cost gated < 1% of the median session wall
//!   (this is what `scripts/bench.sh` uses to produce `BENCH_10.json`;
//!   `--tiny` drops to 2 sessions per world).

use std::fmt::Write as _;
use std::time::Instant;

use questpro_bench::{cli_switch, cli_threads, cli_value, full_workload, median, Table};
use questpro_core::{infer_top_k, InferenceStats, TopKConfig};
use questpro_data::WorkloadQuery;
use questpro_engine::sample_example_set;
use questpro_graph::rng::StdRng;
use questpro_graph::Ontology;

const EXPLANATIONS: usize = 7;

/// One (query, threads) measurement cell.
struct Cell {
    query: String,
    threads: usize,
    wall_ms: f64,
    stats: InferenceStats,
    /// Canonical SPARQL of every returned candidate, in rank order.
    output: Vec<String>,
}

fn run_one(ont: &Ontology, w: &WorkloadQuery, threads: usize, trials: u64) -> Option<Cell> {
    let cfg = TopKConfig {
        k: 3,
        threads,
        ..Default::default()
    };
    let mut walls = Vec::new();
    let mut last = None;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(0xb1 + t);
        let examples = sample_example_set(ont, &w.query, EXPLANATIONS, &mut rng, 6);
        if examples.len() < 2 {
            return None;
        }
        let start = Instant::now();
        let (candidates, stats) = infer_top_k(ont, &examples, &cfg);
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some((candidates, stats));
    }
    let (candidates, stats) = last?;
    Some(Cell {
        query: w.id.to_string(),
        threads,
        wall_ms: median(walls),
        stats,
        output: candidates.iter().map(|c| c.to_string()).collect(),
    })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn main() {
    let tiny = cli_switch("--tiny");
    // Timing children for the B7 cold-start gate: each measurement runs
    // in a fresh process, so it pays true cold-start costs (first-touch
    // page faults, allocator growth) and allocator state from earlier
    // phases cannot skew it. Each prints "<milliseconds> <row count>"
    // on stdout.
    if let Some(path) = cli_value("--bench7-decode-child") {
        let bytes = std::fs::read(&path).expect("read snapshot file");
        let t0 = Instant::now();
        let store = questpro_store::decode(&bytes).expect("snapshot decodes");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{ms} {}", std::hint::black_box(store).triple_count());
        return;
    }
    if let Some(path) = cli_value("--bench7-parse-child") {
        // The full text-to-store path (`questpro store build --ontology`):
        // parse, then dictionary + index construction — the per-load
        // work a snapshot persists.
        let text = std::fs::read_to_string(&path).expect("read triples file");
        let t0 = Instant::now();
        let ont = questpro_graph::triples::parse(&text).expect("triples parse");
        let store = questpro_store::TripleStore::from_ontology(&ont).expect("store builds");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{ms} {}", std::hint::black_box(store).triple_count());
        return;
    }
    if let Some(path) = cli_value("--bench7") {
        bench7_section(&path, tiny);
        return;
    }
    if let Some(path) = cli_value("--bench10") {
        bench10_section(&path, tiny);
        return;
    }
    let max_threads = if cli_value("--threads").is_some() {
        cli_threads()
    } else {
        8
    };
    let trials = if tiny { 1 } else { 3 };

    // The heaviest patterns of the workload: BSBM q2v0 (11 edges, the
    // paper's 5.8 s outlier), SP2B q12a and q2.
    let heavy_ids: &[&str] = if tiny {
        &["q2v0"]
    } else {
        &["q2v0", "q12a", "q2"]
    };
    let workload = full_workload();
    let picked: Vec<&WorkloadQuery> = heavy_ids
        .iter()
        .map(|id| {
            workload
                .iter()
                .find(|w| w.id == *id)
                .expect("heavy query in catalog")
        })
        .collect();
    let worlds = questpro_bench::Worlds::generate();

    let mut sweep = vec![1usize];
    while *sweep.last().expect("non-empty") * 2 <= max_threads {
        sweep.push(sweep.last().expect("non-empty") * 2);
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep_max = *sweep.last().expect("non-empty");
    // A thread-sweep row only measures real parallelism when the host
    // can actually run that many workers at once. On a smaller host the
    // row still checks output identity, but its wall time is a
    // scheduling artifact, not a speedup — mark it invalid.
    let valid_parallel = |t: usize| t <= host_cpus;
    if host_cpus < sweep_max {
        eprintln!(
            "WARNING: thread sweep reaches {sweep_max} but this host exposes only \
             {host_cpus} CPU(s); rows above {host_cpus} thread(s) are marked \
             \"valid_parallel\": false and must not be read as speedup data."
        );
    }

    let mut cells: Vec<Cell> = Vec::new();
    for w in &picked {
        let ont = worlds.for_kind(w.kind);
        let mut base: Option<(Vec<String>, InferenceStats)> = None;
        for &t in &sweep {
            let Some(cell) = run_one(ont, w, t, trials) else {
                eprintln!("skipping {}: too few explanations sampled", w.id);
                break;
            };
            match &base {
                None => base = Some((cell.output.clone(), cell.stats)),
                Some((bout, bstats)) => {
                    assert_eq!(
                        bout, &cell.output,
                        "{} at {t} threads diverged from the sequential output",
                        w.id
                    );
                    assert_eq!(
                        *bstats, cell.stats,
                        "{} at {t} threads diverged on deterministic counters",
                        w.id
                    );
                }
            }
            cells.push(cell);
        }
    }

    let mut t = Table::new(
        format!("B1 — parallel top-k hot path (k=3, {EXPLANATIONS} explanations, median of {trials} trial(s))"),
        &[
            "query",
            "threads",
            "wall ms",
            "merge ms",
            "consistency ms",
            "cache hit rate",
            "nodes expanded",
            "speedup vs 1T",
        ],
    );
    for c in &cells {
        let base = cells
            .iter()
            .find(|b| b.query == c.query && b.threads == 1)
            .expect("1-thread baseline present");
        t.row(vec![
            c.query.clone(),
            c.threads.to_string(),
            format!("{:.2}", c.wall_ms),
            format!("{:.2}", c.stats.merge_nanos as f64 / 1e6),
            format!("{:.2}", c.stats.consistency_nanos as f64 / 1e6),
            format!("{:.3}", c.stats.consistency_hit_rate()),
            c.stats.matcher_nodes_expanded.to_string(),
            format!("{:.2}x", base.wall_ms / c.wall_ms),
        ]);
    }
    println!("{}", t.to_markdown());
    println!(
        "All parallel runs asserted byte-identical to the 1-thread outputs \
         (candidate SPARQL text and deterministic counters)."
    );
    if host_cpus < 2 {
        println!(
            "NOTE: this host exposes {host_cpus} CPU(s); wall-clock speedup from \
             threading requires a multi-core host (workers are clamped to the \
             available parallelism, outputs are identical either way)."
        );
    }

    if let Some(path) = cli_value("--json") {
        let mut out = String::from("{\n  \"bench\": \"B1 parallel top-k hot path\",\n");
        let _ = writeln!(
            out,
            "  \"config\": {{\"k\": 3, \"explanations\": {EXPLANATIONS}, \"trials\": {trials}, \"thread_sweep\": [{}], \"host_cpus\": {host_cpus}}},",
            sweep
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str("  \"runs\": [\n");
        for (i, c) in cells.iter().enumerate() {
            let base = cells
                .iter()
                .find(|b| b.query == c.query && b.threads == 1)
                .expect("1-thread baseline present");
            let _ = write!(
                out,
                "    {{\"query\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \
                 \"merge_ms\": {:.3}, \"consistency_ms\": {:.3}, \"total_ms\": {:.3}, \
                 \"consistency_checks\": {}, \"consistency_cache_hits\": {}, \
                 \"consistency_cache_hit_rate\": {:.4}, \"merge_cache_hit_rate\": {:.4}, \
                 \"merge_cache_true_misses\": {}, \"merge_cache_capacity_misses\": {}, \
                 \"matcher_nodes_expanded\": {}, \"speedup_vs_1_thread\": {:.3}, \
                 \"effective_threads\": {}, \"valid_parallel\": {}, \
                 \"output_identical_to_sequential\": true}}",
                json_escape(&c.query),
                c.threads,
                c.wall_ms,
                c.stats.merge_nanos as f64 / 1e6,
                c.stats.consistency_nanos as f64 / 1e6,
                c.stats.total_nanos as f64 / 1e6,
                c.stats.consistency_checks,
                c.stats.consistency_cache_hits,
                c.stats.consistency_hit_rate(),
                c.stats.merge_hit_rate(),
                c.stats.merge_cache_true_misses,
                c.stats.merge_cache_capacity_misses,
                c.stats.matcher_nodes_expanded,
                base.wall_ms / c.wall_ms,
                questpro_engine::par::effective_threads(c.threads),
                valid_parallel(c.threads),
            );
            out.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write json report");
        eprintln!("wrote {path}");
    }

    if let Some(path) = cli_value("--bench6") {
        bench6_section(
            &worlds,
            &cells,
            trials,
            host_cpus,
            &sweep,
            &path,
            cli_value("--baseline").as_deref(),
        );
    }

    let trace_json = cli_value("--trace-json");
    let trace_overhead = cli_switch("--trace-overhead");
    if trace_json.is_some() || trace_overhead {
        trace_section(&picked, &worlds, &cells, trials, trace_json, trace_overhead);
    }
    if cli_switch("--log-overhead") {
        log_section(&picked, &worlds, &cells, trials);
    }
    if cli_switch("--telemetry-overhead") {
        telemetry_section(&picked, &worlds, &cells);
    }
}

/// Drives one interactive session to `Done` against the target oracle
/// (1 inference thread, refinement on) and returns the finished session
/// with its wall time in milliseconds. `None` when the seed samples too
/// few explanations to start a session.
fn drive_session(
    ont: &Ontology,
    target: &questpro_query::UnionQuery,
    seed: u64,
) -> Option<(questpro_feedback::InteractiveSession, f64)> {
    use questpro_feedback::{InteractiveSession, Oracle, SessionConfig, TargetOracle};

    let mut rng = StdRng::seed_from_u64(seed);
    let examples = sample_example_set(ont, target, 5, &mut rng, 6);
    if examples.len() < 2 {
        return None;
    }
    let cfg = SessionConfig {
        topk: TopKConfig {
            threads: 1,
            ..Default::default()
        },
        refine: true,
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut session = InteractiveSession::start(ont, &examples, &cfg, seed).expect("a session");
    let mut oracle = TargetOracle::new(target.clone());
    let mut rounds = 0u32;
    while !session.is_done() {
        let q = session.pending().expect("an undone session has a question");
        let verdict = oracle.accept(ont, q.result(), q.provenance());
        session.answer(ont, verdict).expect("answering");
        rounds += 1;
        assert!(rounds < 500, "a driven session must converge");
    }
    Some((session, t0.elapsed().as_secs_f64() * 1e3))
}

/// Disabled-telemetry overhead gate: a session lifecycle pays exactly
/// one `SessionRecord` build + one `questpro_telemetry::record` offer,
/// and when telemetry is off the offer drops the record after one
/// relaxed atomic load. Measure that whole disabled path on a *real*
/// finished session (so the record carries representative pool-size and
/// round-wall vectors) and assert it stays under 1% of the 1-thread
/// inference wall — tighter than the log budget's per-site math because
/// the site count here is one.
fn telemetry_section(picked: &[&WorkloadQuery], worlds: &questpro_bench::Worlds, cells: &[Cell]) {
    use questpro_telemetry::Outcome;

    questpro_telemetry::set_enabled(false);
    const ITERS: u32 = 100_000;
    let mut worst_pct = 0.0f64;
    let mut worst_ns = 0.0f64;
    let mut measured = 0u32;
    for w in picked {
        let ont = worlds.for_kind(w.kind);
        let Some((session, _)) = drive_session(ont, &w.query, 0xd15) else {
            eprintln!("skipping {}: too few explanations sampled", w.id);
            continue;
        };
        let t0 = Instant::now();
        for _ in 0..ITERS {
            questpro_telemetry::record(std::hint::black_box(&session).telemetry_record(
                w.id,
                1,
                Outcome::Converged,
                0,
            ));
        }
        let ns_per_record = t0.elapsed().as_nanos() as f64 / f64::from(ITERS);
        let Some(wall_ms) = cells
            .iter()
            .find(|c| c.query == w.id && c.threads == 1)
            .map(|c| c.wall_ms)
        else {
            continue;
        };
        measured += 1;
        let pct = 100.0 * (ns_per_record / 1e6) / wall_ms.max(0.001);
        if pct > worst_pct {
            worst_pct = pct;
            worst_ns = ns_per_record;
        }
    }
    assert!(measured > 0, "at least one query must yield a session");
    println!(
        "Disabled-telemetry overhead: worst {worst_ns:.0} ns per session record \
         (build + dropped offer) = {worst_pct:.4}% of the 1-thread wall."
    );
    assert!(
        worst_pct < 1.0,
        "disabled-telemetry overhead {worst_pct:.4}% breaches the 1% budget \
         ({worst_ns:.0} ns per record)"
    );
    println!("Telemetry-overhead gate passed (< 1%).");
}

/// The B10 report: session telemetry overhead and convergence analytics.
///
/// Drives interactive sessions to convergence on three seeded worlds
/// twice with identical seeds — first with telemetry disabled, then
/// enabled with every finished session offered to the global aggregator.
/// The enabled pass must converge in exactly the same number of rounds
/// per seed (telemetry must not perturb inference), and the report
/// records median walls for both modes side by side. The asserted gate
/// is the *disabled* path (the default-on server pays the enabled path
/// by choice; the contract is that opting out is free): one
/// record-build + dropped offer per session, < 1% of the median session
/// wall. The enabled-vs-disabled wall delta is reported but not gated —
/// at millisecond session walls it is scheduler noise, not signal.
fn bench10_section(path: &str, tiny: bool) {
    use questpro_data::{
        bsbm_workload, generate_bsbm, generate_movies, generate_sp2b, movie_workload,
        sp2b_workload, BsbmConfig, MoviesConfig, Sp2bConfig,
    };
    use questpro_telemetry::Outcome;

    let sessions_per_world: u64 = if tiny { 2 } else { 8 };
    let seed = 0xd15u64;

    let sp2b = generate_sp2b(&Sp2bConfig {
        authors: 80,
        articles: 120,
        inproceedings: 60,
        ..Default::default()
    });
    let bsbm = generate_bsbm(&BsbmConfig::default());
    let movies = generate_movies(&MoviesConfig::default());
    let pick = |mut ws: Vec<WorkloadQuery>, id: &str| {
        ws.iter()
            .position(|w| w.id == id)
            .map(|i| ws.swap_remove(i).query)
            .expect("workload query in catalog")
    };
    let worlds = vec![
        ("sp2b", "q8a", sp2b, pick(sp2b_workload(), "q8a")),
        ("bsbm", "q2v0", bsbm, pick(bsbm_workload(), "q2v0")),
        ("movies", "m1", movies, pick(movie_workload(), "m1")),
    ];

    struct WorldRow {
        world: &'static str,
        query: &'static str,
        sessions: u64,
        rounds: Vec<u64>,
        disabled_median_ms: f64,
        enabled_median_ms: f64,
    }

    questpro_telemetry::set_enabled(false);
    let mut rows = Vec::new();
    for (world, query_id, ont, target) in &worlds {
        // Pass 1: telemetry disabled. Skipped seeds (too few sampled
        // explanations) are skipped identically in pass 2, so the
        // walls compare session-for-session.
        let mut disabled_walls = Vec::new();
        let mut rounds = Vec::new();
        for i in 0..sessions_per_world {
            let Some((session, wall_ms)) = drive_session(ont, target, seed + i) else {
                continue;
            };
            let rec = session.telemetry_record(world, 1, Outcome::Converged, 0);
            rounds.push(rec.rounds);
            disabled_walls.push(wall_ms);
        }
        // Pass 2: telemetry enabled, same seeds, records offered to the
        // global aggregator — the exact server lifecycle path.
        questpro_telemetry::set_enabled(true);
        let mut enabled_walls = Vec::new();
        let mut enabled_rounds = Vec::new();
        for i in 0..sessions_per_world {
            let Some((session, wall_ms)) = drive_session(ont, target, seed + i) else {
                continue;
            };
            let rec = session.telemetry_record(world, 1, Outcome::Converged, 0);
            enabled_rounds.push(rec.rounds);
            questpro_telemetry::record(rec);
            enabled_walls.push(wall_ms);
        }
        questpro_telemetry::set_enabled(false);
        assert_eq!(
            rounds, enabled_rounds,
            "{world}: enabling telemetry changed convergence rounds"
        );
        if disabled_walls.is_empty() {
            eprintln!("skipping {world}: too few explanations sampled");
            continue;
        }
        rows.push(WorldRow {
            world,
            query: query_id,
            sessions: disabled_walls.len() as u64,
            rounds,
            disabled_median_ms: median(disabled_walls),
            enabled_median_ms: median(enabled_walls),
        });
    }
    assert!(!rows.is_empty(), "at least one world must drive sessions");

    // The disabled path, measured on a real finished session from the
    // first world: record build + dropped offer.
    let (world, _, ont, target) = &worlds[0];
    let (session, _) = drive_session(ont, target, seed).expect("the first world drives");
    const ITERS: u32 = 100_000;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        questpro_telemetry::record(std::hint::black_box(&session).telemetry_record(
            world,
            1,
            Outcome::Converged,
            0,
        ));
    }
    let ns_per_record = t0.elapsed().as_nanos() as f64 / f64::from(ITERS);
    let worst_pct = rows
        .iter()
        .map(|r| 100.0 * (ns_per_record / 1e6) / r.disabled_median_ms.max(0.001))
        .fold(0.0f64, f64::max);
    println!(
        "B10 disabled-telemetry cost: {ns_per_record:.0} ns per session record = \
         {worst_pct:.4}% of the smallest median session wall."
    );
    assert!(
        worst_pct < 1.0,
        "disabled-telemetry overhead {worst_pct:.4}% breaches the 1% budget \
         ({ns_per_record:.0} ns per record)"
    );

    // Aggregator accounting over the enabled pass: every offered record
    // is either bucketed or counted dropped.
    let (recorded, dropped, keys) = questpro_telemetry::counters();
    let offered: u64 = rows.iter().map(|r| r.sessions).sum();
    assert_eq!(recorded, offered, "every enabled session was offered");
    assert_eq!(dropped, 0, "three worlds fit the key budget");
    let marginals = questpro_telemetry::marginals();
    let converged = marginals
        .iter()
        .find(|m| m.outcome == Outcome::Converged)
        .expect("a converged marginal");
    assert_eq!(converged.rounds.count, offered, "every session bucketed");

    for r in &rows {
        println!(
            "B10 {}/{}: {} session(s), rounds {:?}, median wall disabled \
             {:.2} ms / enabled {:.2} ms",
            r.world, r.query, r.sessions, r.rounds, r.disabled_median_ms, r.enabled_median_ms
        );
    }

    let mut out =
        String::from("{\n  \"bench\": \"B10 session telemetry overhead and convergence\",\n");
    let _ = writeln!(
        out,
        "  \"config\": {{\"sessions_per_world\": {sessions_per_world}, \"seed\": {seed}, \
         \"threads\": 1, \"tiny\": {tiny}}},"
    );
    out.push_str("  \"worlds\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let delta_pct =
            100.0 * (r.enabled_median_ms - r.disabled_median_ms) / r.disabled_median_ms.max(0.001);
        let _ = write!(
            out,
            "    {{\"world\": \"{}\", \"query\": \"{}\", \"sessions\": {}, \
             \"rounds\": [{}], \"median_wall_ms_disabled\": {:.3}, \
             \"median_wall_ms_enabled\": {:.3}, \"enabled_delta_pct_unguarded\": {delta_pct:.2}}}",
            r.world,
            json_escape(r.query),
            r.sessions,
            r.rounds
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            r.disabled_median_ms,
            r.enabled_median_ms,
        );
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"convergence\": {{\"outcome\": \"converged\", \"sessions\": {}, \
         \"questions\": {}, \"yes\": {}, \"no\": {}, \"rounds_hist\": {{\"le\": [{}], \
         \"cumulative\": [{}], \"count\": {}, \"sum\": {}}}, \"keys_live\": {keys}}},",
        converged.sessions,
        converged.questions,
        converged.yes,
        converged.no,
        (0..converged.rounds.buckets.len())
            .map(|i| (1u64 << i).to_string())
            .collect::<Vec<_>>()
            .join(", "),
        converged
            .rounds
            .buckets
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        converged.rounds.count,
        converged.rounds.sum,
    );
    let _ = writeln!(
        out,
        "  \"overhead\": {{\"ns_per_disabled_record\": {ns_per_record:.0}, \
         \"records_per_session\": 1, \"worst_pct_of_session_wall\": {worst_pct:.4}, \
         \"budget_pct\": 1.0, \"within_budget\": {}}}",
        worst_pct < 1.0
    );
    out.push_str("}\n");
    std::fs::write(path, out).expect("write bench10 json report");
    eprintln!("wrote {path}");
}

/// The B7 report: the persistent-store cold-start story at scale.
///
/// Streams a million-triple SP2B-shaped world straight into a
/// `StoreBuilder` (no text form), encodes it to snapshot bytes, then
/// measures the two cold-start paths side by side — strict snapshot
/// `decode` + `to_ontology` assembly versus serializing the triples to
/// text and re-parsing them, the load every pre-store `questpro serve`
/// paid. The headline gate (decode ≥ 50x faster than text re-parse) is
/// asserted, matcher throughput on the world's anchor query is recorded,
/// and a byte-flip + truncation sweep over a small snapshot proves the
/// loader answers every corruption with a named error, never a panic.
/// Runs this binary in a B7 timing-child mode against `path` and
/// returns the `(milliseconds, row count)` pair it printed.
fn child_wall_ms(mode: &str, path: &std::path::Path) -> (f64, u64) {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .arg(mode)
        .arg(path)
        .output()
        .expect("spawn timing child");
    assert!(
        out.status.success(),
        "timing child {mode} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("child prints UTF-8");
    let mut parts = text.split_whitespace();
    let ms = parts
        .next()
        .and_then(|w| w.parse().ok())
        .expect("child prints milliseconds");
    let rows = parts
        .next()
        .and_then(|w| w.parse().ok())
        .expect("child prints row count");
    (ms, rows)
}

fn bench7_section(path: &str, tiny: bool) {
    use questpro_data::scale::{
        anchor_entity, anchor_pred, scale_stream, ScaleConfig, ScaleItem, ScaleWorld,
    };
    use questpro_query::{QueryBuilder, UnionQuery};
    use questpro_store::{decode, encode, StoreBuilder};

    let world = ScaleWorld::Sp2b;
    let scale: u64 = if tiny { 100_000 } else { 1_000_000 };
    let seed = 7u64;
    let cfg = ScaleConfig {
        world,
        triples: scale,
        seed,
    };

    // Store build: stream items straight into the builder — the path
    // `questpro store build --world sp2b --scale N` takes.
    let t0 = Instant::now();
    let mut b = StoreBuilder::new();
    for item in scale_stream(&cfg) {
        match item {
            ScaleItem::Triple { s, p, o } => b.add_triple(&s, &p, &o),
            ScaleItem::Type { node, ty } => {
                b.add_type(&node, &ty)
                    .expect("scale worlds type consistently");
            }
        }
    }
    let store = b.build().expect("scale world fits the u32 id space");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let triples = store.triple_count();

    let t0 = Instant::now();
    let snapshot = encode(&store);
    let encode_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Text cold start comparator: the same items as triple text.
    let mut text = String::new();
    for item in scale_stream(&cfg) {
        match item {
            ScaleItem::Triple { s, p, o } => {
                let _ = writeln!(text, "{s} {p} {o}");
            }
            ScaleItem::Type { node, ty } => {
                let _ = writeln!(text, "@type {node} {ty}");
            }
        }
    }
    let text_bytes = text.len();

    // Snapshot cold start vs text re-parse, both best-of-6. Each
    // measurement runs in a fresh child process (this binary re-exec'd
    // in a timing-child mode): in-process repeats understate a cold
    // start badly — the allocator reuses the previous round's freed
    // blocks and a re-parse comes out twice as fast as a true first
    // parse. The child rounds are interleaved decode/parse so machine
    // drift lands on both sides, and each side takes its fastest round:
    // on a shared box a neighbor burst inflates the short memory-bound
    // decode far more than the long compute-bound parse, so the minimum
    // is the estimator that reflects the machine, not the neighbors.
    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("questpro_bench7_{}.qps", std::process::id()));
    let text_path = dir.join(format!("questpro_bench7_{}.triples", std::process::id()));
    std::fs::write(&snap_path, &snapshot).expect("write snapshot temp file");
    std::fs::write(&text_path, &text).expect("write text temp file");
    let mut decode_walls = Vec::new();
    let mut parse_walls = Vec::new();
    for _ in 0..6 {
        let (ms, rows) = child_wall_ms("--bench7-decode-child", &snap_path);
        assert_eq!(rows, triples as u64, "child decoded the same world");
        decode_walls.push(ms);
        let (ms, rows) = child_wall_ms("--bench7-parse-child", &text_path);
        assert_eq!(rows, triples as u64, "child parsed the same world");
        parse_walls.push(ms);
    }
    let _ = std::fs::remove_file(&snap_path);
    let _ = std::fs::remove_file(&text_path);
    let best = |walls: Vec<f64>| walls.into_iter().fold(f64::INFINITY, f64::min);
    let decode_ms = best(decode_walls);
    let text_parse_ms = best(parse_walls);
    let t0 = Instant::now();
    let ont = store.to_ontology().expect("validated store assembles");
    let assemble_ms = t0.elapsed().as_secs_f64() * 1e3;
    let speedup = text_parse_ms / decode_ms.max(1e-6);
    println!(
        "B7 cold start at {triples} triples: decode {decode_ms:.1} ms + assemble \
         {assemble_ms:.1} ms vs text parse {text_parse_ms:.1} ms ({speedup:.0}x)"
    );
    // The 50x acceptance gate is defined at the full 10^6-triple scale;
    // at the tiny CI scale fixed per-process costs (spawn, first-touch
    // faults) dominate a millisecond decode, so only sanity is asserted.
    let min_speedup = if tiny { 10.0 } else { 50.0 };
    assert!(
        speedup >= min_speedup,
        "snapshot decode ({decode_ms:.1} ms) must be >= {min_speedup}x faster than \
         text re-parse ({text_parse_ms:.1} ms), got {speedup:.1}x"
    );

    // Matcher throughput on the anchor query: co-authors of the hub
    // entity, the guaranteed scale-proportional join.
    let query = {
        let mut qb = QueryBuilder::new();
        let x = qb.var("x");
        let p = qb.var("p");
        let a = qb.constant(anchor_entity(world));
        qb.edge(p, anchor_pred(world), x)
            .edge(p, anchor_pred(world), a)
            .project(x);
        UnionQuery::single(qb.build().expect("anchor query is well-formed"))
    };
    let mut eval_walls = Vec::new();
    let mut results = 0usize;
    for _ in 0..3 {
        let t0 = Instant::now();
        results = questpro_engine::evaluate_union_with(&ont, &query, 1).len();
        eval_walls.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let eval_ms = median(eval_walls);
    let triples_per_sec = triples as f64 / (eval_ms / 1e3).max(1e-9);
    println!(
        "B7 matcher: anchor query over {triples} triples -> {results} results in \
         {eval_ms:.1} ms ({:.1}M triples/s)",
        triples_per_sec / 1e6
    );
    assert!(results > 0, "the anchor hub must have co-members");

    // Corruption sweep on a small snapshot: every single-byte flip and
    // every truncation must come back as a named error under
    // catch_unwind — zero panics, zero accepted corruptions.
    let small = {
        let mut b = StoreBuilder::new();
        for item in scale_stream(&ScaleConfig {
            world,
            triples: 1_000,
            seed,
        }) {
            match item {
                ScaleItem::Triple { s, p, o } => b.add_triple(&s, &p, &o),
                ScaleItem::Type { node, ty } => {
                    b.add_type(&node, &ty)
                        .expect("scale worlds type consistently");
                }
            }
        }
        encode(&b.build().expect("small world builds"))
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut named_errors = 0u64;
    let mut panics = 0u64;
    let mut accepted = 0u64;
    for i in 0..small.len() {
        let mut m = small.clone();
        m[i] ^= 0x01;
        match std::panic::catch_unwind(|| decode(&m).map(|_| ())) {
            Ok(Err(e)) => {
                let _ = e.to_string();
                named_errors += 1;
            }
            Ok(Ok(())) => accepted += 1,
            Err(_) => panics += 1,
        }
    }
    let flips = small.len() as u64;
    for cut in 0..small.len() {
        match std::panic::catch_unwind(|| decode(&small[..cut]).map(|_| ())) {
            Ok(Err(e)) => {
                let _ = e.to_string();
                named_errors += 1;
            }
            Ok(Ok(())) => accepted += 1,
            Err(_) => panics += 1,
        }
    }
    std::panic::set_hook(hook);
    let truncations = small.len() as u64;
    println!(
        "B7 corruption sweep: {flips} byte flips + {truncations} truncations -> \
         {named_errors} named errors, {accepted} accepted, {panics} panics"
    );
    assert_eq!(panics, 0, "the snapshot loader must never panic");
    assert_eq!(accepted, 0, "every corruption must be rejected");

    let mut out = String::from(
        "{\n  \"bench\": \"B7 persistent store: snapshot cold start vs text re-parse\",\n",
    );
    let _ = writeln!(
        out,
        "  \"config\": {{\"world\": \"{}\", \"scale\": {scale}, \"seed\": {seed}, \"tiny\": {tiny}}},",
        world.name()
    );
    let _ = writeln!(
        out,
        "  \"store_build\": {{\"triples\": {triples}, \"stream_build_ms\": {build_ms:.3}, \
         \"encode_ms\": {encode_ms:.3}, \"snapshot_bytes\": {}}},",
        snapshot.len()
    );
    let _ = writeln!(
        out,
        "  \"cold_start\": {{\"decode_ms_best_of_6\": {decode_ms:.3}, \
         \"assemble_ms\": {assemble_ms:.3}, \"text_bytes\": {text_bytes}, \
         \"text_parse_ms_best_of_6\": {text_parse_ms:.3}, \
         \"speedup_decode_vs_text_parse\": {speedup:.1}, \"required_min_speedup\": {min_speedup:.1}}},"
    );
    let _ = writeln!(
        out,
        "  \"matcher\": {{\"anchor_entity\": \"{}\", \"anchor_pred\": \"{}\", \
         \"results\": {results}, \"eval_ms_median_of_3\": {eval_ms:.3}, \
         \"triples_per_sec\": {triples_per_sec:.0}}},",
        anchor_entity(world),
        anchor_pred(world)
    );
    let _ = writeln!(
        out,
        "  \"corruption\": {{\"snapshot_bytes\": {}, \"byte_flips\": {flips}, \
         \"truncations\": {truncations}, \"named_errors\": {named_errors}, \
         \"accepted\": {accepted}, \"panics\": {panics}}}",
        small.len()
    );
    out.push_str("}\n");
    std::fs::write(path, out).expect("write bench7 json report");
    eprintln!("wrote {path}");
}

/// Disabled-logging overhead gate: cost of one level-gated `emit` that
/// loses the threshold check, scaled by how many events a fully enabled
/// `trace`-level run of the same query would emit, against the untraced
/// 1-thread wall from the sweep. The PR contract is < 1% — tighter than
/// the 5% tracing budget because every emit site is a single relaxed
/// atomic load when logging is off.
fn log_section(
    picked: &[&WorkloadQuery],
    worlds: &questpro_bench::Worlds,
    cells: &[Cell],
    trials: u64,
) {
    use questpro_log::Level;

    // How chatty is a fully enabled run? Count real accepted events at
    // the most verbose level, per query.
    questpro_log::set_level(Some(Level::Trace));
    let mut counts: Vec<(String, f64)> = Vec::new();
    for w in picked {
        let ont = worlds.for_kind(w.kind);
        let before = questpro_log::emitted_total();
        let _ = run_one(ont, w, 1, trials);
        questpro_log::flush();
        let events = questpro_log::emitted_total() - before;
        counts.push((w.id.to_string(), events as f64 / trials as f64));
    }
    questpro_log::set_level(None);

    // The inert path: level below threshold, so emit returns after one
    // relaxed load without formatting, allocating, or locking.
    const ITERS: u32 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        questpro_log::emit(
            Level::Trace,
            "bench.overhead",
            std::hint::black_box("inert"),
            Vec::new(),
        );
    }
    let ns_per_emit = t0.elapsed().as_nanos() as f64 / f64::from(ITERS);

    let mut worst_pct = 0.0f64;
    let mut worst_events = 0.0f64;
    for (id, events_per_run) in &counts {
        let Some(wall_ms) = cells
            .iter()
            .find(|c| &c.query == id && c.threads == 1)
            .map(|c| c.wall_ms)
        else {
            continue;
        };
        let pct = 100.0 * (events_per_run * ns_per_emit / 1e6) / wall_ms.max(0.001);
        if pct > worst_pct {
            worst_pct = pct;
            worst_events = *events_per_run;
        }
    }
    println!(
        "Disabled-logging overhead: {ns_per_emit:.2} ns/emit, worst case \
         {worst_events:.0} event site(s) per run = {worst_pct:.4}% of wall."
    );
    assert!(
        worst_pct < 1.0,
        "disabled-logging overhead {worst_pct:.4}% breaches the 1% budget \
         ({ns_per_emit:.2} ns/emit x {worst_events:.0} events)"
    );
    println!("Log-overhead gate passed (< 1%).");
}

/// Pulls the 1-thread wall of every query out of a committed
/// `BENCH_1.json`. The file is machine-written by this binary (one run
/// object per line), so a line scan is exact — no JSON parser needed.
fn baseline_walls(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if !line.contains("\"threads\": 1,") {
            continue;
        }
        let Some(q) = line
            .split("\"query\": \"")
            .nth(1)
            .and_then(|s| s.split('"').next())
        else {
            continue;
        };
        let Some(wall) = line
            .split("\"wall_ms\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse::<f64>().ok())
        else {
            continue;
        };
        out.push((q.to_string(), wall));
    }
    out
}

/// Cold and warm columnar index-build times for one world, in ms.
///
/// *Cold* re-inserts every triple into a fresh `OntologyBuilder` and
/// times `build()` alone — interning, row tables, adjacency, and the
/// columnar SPO/POS/OSP block, exactly what a fresh ontology load pays.
/// *Warm* times [`Ontology::rebuild_pages`] — just the paged rows, sorted
/// spans and per-predicate statistics over already-interned ids.
fn index_build_times(ont: &Ontology) -> (f64, f64) {
    let mut b = Ontology::builder();
    for e in ont.edge_ids() {
        let ed = ont.edge(e);
        b.edge(
            ont.value_str(ed.src),
            ont.pred_str_of(e),
            ont.value_str(ed.dst),
        )
        .expect("round-tripped triples are well-formed");
    }
    let t0 = Instant::now();
    let rebuilt = b.build();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        rebuilt.edge_count(),
        ont.edge_count(),
        "lossless round-trip"
    );

    let mut warm = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        std::hint::black_box(ont.rebuild_pages());
        warm.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (cold_ms, median(warm))
}

/// The B6 report: per-query walls with parallel-validity annotations,
/// cold/warm index-build costs, and the improvement factor against the
/// committed pre-optimization baseline.
#[allow(clippy::too_many_arguments)]
fn bench6_section(
    worlds: &questpro_bench::Worlds,
    cells: &[Cell],
    trials: u64,
    host_cpus: usize,
    sweep: &[usize],
    path: &str,
    baseline: Option<&str>,
) {
    let baseline = baseline.map(|p| {
        let text = std::fs::read_to_string(p).expect("read --baseline json");
        baseline_walls(&text)
    });

    let mut out = String::from(
        "{\n  \"bench\": \"B6 cost-based hot path: wall time and columnar index build\",\n",
    );
    let _ = writeln!(
        out,
        "  \"config\": {{\"k\": 3, \"explanations\": {EXPLANATIONS}, \"trials\": {trials}, \
         \"thread_sweep\": [{}], \"host_cpus\": {host_cpus}}},",
        sweep
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    out.push_str("  \"index_build\": [\n");
    let named: &[(&str, &Ontology)] = &[
        ("sp2b", &worlds.sp2b),
        ("bsbm", &worlds.bsbm),
        ("movies", &worlds.movies),
    ];
    for (i, (name, ont)) in named.iter().enumerate() {
        let (cold_ms, warm_ms) = index_build_times(ont);
        let _ = write!(
            out,
            "    {{\"world\": \"{name}\", \"nodes\": {}, \"edges\": {}, \
             \"cold_build_ms\": {cold_ms:.3}, \"warm_columnar_rebuild_ms\": {warm_ms:.3}}}",
            ont.node_count(),
            ont.edge_count(),
        );
        out.push_str(if i + 1 == named.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");

    out.push_str("  \"runs\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let before = baseline
            .as_ref()
            .and_then(|b| b.iter().find(|(q, _)| *q == c.query).map(|&(_, wall)| wall));
        let _ = write!(
            out,
            "    {{\"query\": \"{}\", \"threads\": {}, \"effective_threads\": {}, \
             \"wall_ms\": {:.3}, \"valid_parallel\": {}, \
             \"output_identical_to_sequential\": true",
            json_escape(&c.query),
            c.threads,
            questpro_engine::par::effective_threads(c.threads),
            c.wall_ms,
            c.threads <= host_cpus,
        );
        if let (1, Some(before)) = (c.threads, before) {
            let _ = write!(
                out,
                ", \"baseline_wall_ms\": {before:.3}, \"improvement_vs_baseline\": {:.3}",
                before / c.wall_ms
            );
        }
        out.push('}');
        out.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write bench6 json report");
    eprintln!("wrote {path}");
}

/// One traced run per query (B3): per-stage self-time breakdowns, plus
/// the disabled-instrumentation overhead gate.
///
/// Traced runs use 1 thread — the span *structure* is thread-invariant
/// by design (spans only open on the orchestrating thread; DESIGN.md
/// §6), and single-thread self-times are the cleanest stage breakdown.
fn trace_section(
    picked: &[&WorkloadQuery],
    worlds: &questpro_bench::Worlds,
    cells: &[Cell],
    trials: u64,
    trace_json: Option<String>,
    assert_overhead: bool,
) {
    questpro_trace::set_enabled(true);
    let mut traced: Vec<(String, Cell, questpro_trace::TraceRecord)> = Vec::new();
    for w in picked {
        let ont = worlds.for_kind(w.kind);
        let trace =
            questpro_trace::begin(format!("exp_bench {}", w.id)).expect("no trace is active");
        let cell = run_one(ont, w, 1, trials);
        let rec = trace.finish();
        if let Some(cell) = cell {
            traced.push((w.id.to_string(), cell, rec));
        }
    }
    questpro_trace::set_enabled(false);

    // The overhead of compiled-in-but-disabled instrumentation: cost of
    // one inert span, scaled by how many spans + counters a real run
    // records, against the *untraced* 1-thread wall from the sweep.
    const ITERS: u32 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let guard = std::hint::black_box(questpro_trace::span("request"));
        drop(guard);
    }
    let ns_per_span = t0.elapsed().as_nanos() as f64 / f64::from(ITERS);

    let mut worst_pct = 0.0f64;
    let mut worst_calls = 0u64;
    for (id, traced_cell, rec) in &traced {
        let counter_adds: usize = rec.spans.iter().map(|s| s.counters.len()).sum();
        let calls = (rec.spans.len() + counter_adds) as u64;
        let wall_ms = cells
            .iter()
            .find(|c| &c.query == id && c.threads == 1)
            .map_or(traced_cell.wall_ms, |c| c.wall_ms);
        let pct = 100.0 * (calls as f64 * ns_per_span / 1e6) / wall_ms.max(0.001);
        if pct > worst_pct {
            worst_pct = pct;
            worst_calls = calls;
        }
    }
    println!(
        "Disabled-tracing overhead: {ns_per_span:.1} ns/span, worst case \
         {worst_calls} instrumentation call(s) per run = {worst_pct:.3}% of wall."
    );
    if assert_overhead {
        assert!(
            worst_pct < 5.0,
            "disabled-tracing overhead {worst_pct:.3}% breaches the 5% budget \
             ({ns_per_span:.1} ns/span x {worst_calls} calls)"
        );
        println!("Overhead gate passed (< 5%).");
    }

    let Some(path) = trace_json else { return };
    let mut out = String::from("{\n  \"bench\": \"B3 per-stage trace breakdown\",\n");
    let _ = writeln!(
        out,
        "  \"config\": {{\"k\": 3, \"explanations\": {EXPLANATIONS}, \"threads\": 1, \"host_cpus\": {}}},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    out.push_str("  \"runs\": [\n");
    for (i, (id, _, rec)) in traced.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"query\": \"{}\", \"trace_id\": {}, \"total_ms\": {:.3}, \"spans\": {}, \"stages\": [",
            json_escape(id),
            rec.id,
            rec.total_ns as f64 / 1e6,
            rec.spans.len()
        );
        let totals = rec.stage_totals();
        for (j, (name, calls, self_ns)) in totals.iter().enumerate() {
            let _ = write!(
                out,
                "      {{\"stage\": \"{}\", \"calls\": {calls}, \"self_ms\": {:.3}}}",
                json_escape(name),
                *self_ns as f64 / 1e6
            );
            out.push_str(if j + 1 == totals.len() { "\n" } else { ",\n" });
        }
        out.push_str("    ]}");
        out.push_str(if i + 1 == traced.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"overhead\": {{\"disabled_span_ns\": {ns_per_span:.1}, \
         \"worst_case_calls\": {worst_calls}, \"worst_case_pct_of_wall\": {worst_pct:.3}, \
         \"budget_pct\": 5.0, \"within_budget\": {}}}",
        worst_pct < 5.0
    );
    out.push_str("}\n");
    std::fs::write(&path, out).expect("write trace json report");
    eprintln!("wrote {path}");
}
