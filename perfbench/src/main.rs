//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <session_replay|eval_scale|live_update|all> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Builds the release `questpro` binary,
//! cold-starts `questpro serve` several times (setup time is the median),
//! drives the workload's seeded operation list in a closed loop over two
//! keep-alive connections on several fresh server processes in turn,
//! verifies every answer against the library, and prints the metrics.
//! The last stdout line is the JSON result; `--trace 1` reports the
//! per-layer metrics of an in-process replay instead of the end-to-end
//! ones. `BENCHMARK.json` fixes `--seconds` for comparisons. See
//! `perfbench/README.md`.

mod drive;
mod http;
mod ops;
mod proc;
mod scale;
mod session;
mod stats;
mod traced;
mod verify;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use questpro_graph::Ontology;
use questpro_query::sparql;
use questpro_wire::Json;

use crate::drive::{drive, Drive, Pop, Sample, Unit};
use crate::http::{fetch, request, Scrape};
use crate::ops::{
    eval_scale_op, live_op, Op, ScaleData, EVAL_SCALE_TRIPLES, LIVE_TRIPLES, WORKLOADS,
};
use crate::proc::{build_server, git_rev, host_cpus, loadavg_1m, Server};
use crate::stats::{mean, median, percentiles, Percentiles};

/// Fresh server processes a run measures on. The window is split evenly
/// among them, each replays the operation list from its start, and their
/// samples are pooled, so no one process's luck (address layout,
/// allocator state, neighbours) sets a run's figures.
const SEGMENTS: u32 = 4;
/// Cold starts per run, the segments' included; `setup_s` is their
/// median.
const COLD_STARTS: usize = 9;
/// Where generated snapshots live while a run uses them.
const WORK_DIR: &str = "perfbench/work";

/// The end-to-end metrics every untraced run reports, with their units,
/// in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    /// The measured window.
    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut seed = None;
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    a.seed = seed.ok_or("--seed is required")?;
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds is required, in (0, 600]".into());
    }
    Ok(a)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    attempted: usize,
    failed: usize,
    /// Operation kinds with at least one failed operation.
    failed_kinds: Vec<&'static str>,
    metrics: Vec<Metric>,
    meta: Vec<(&'static str, Json)>,
}

/// A generated file that is removed however the run ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let bin = build_server()?;
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = (0usize, 0usize);
    let mut failed_kinds = Vec::new();
    let mut all_metrics = Vec::new();
    for name in &names {
        let load_start = loadavg_1m();
        let t_run = Instant::now();
        let out = run_workload(name, &bin, args)?;
        let mut meta = vec![
            ("workload", Json::str(*name)),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("host_cpus", Json::from(host_cpus())),
            ("loadavg_1m_start", Json::Num(load_start)),
            ("loadavg_1m_end", Json::Num(loadavg_1m())),
            ("git_rev", Json::str(git_rev())),
            ("run_s", Json::Num(t_run.elapsed().as_secs_f64())),
        ];
        meta.extend(out.meta);
        println!("{}", Json::obj([("meta", Json::obj(meta))]).to_text());
        eprintln!("\n{name} (seed {}):", args.seed);
        for m in &out.metrics {
            eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        eprintln!("  attempted {} failed {}", out.attempted, out.failed);
        total.0 += out.attempted;
        total.1 += out.failed;
        failed_kinds.extend(out.failed_kinds.iter().map(|k| format!("{name}/{k}")));
        for m in out.metrics {
            let name = if names.len() > 1 {
                format!("{name}.{}", m.name)
            } else {
                m.name
            };
            all_metrics.push(Metric { name, ..m });
        }
    }
    let metrics = metrics_json(&all_metrics);
    let result = Json::obj([
        ("correct", Json::Bool(total.1 == 0)),
        ("attempted", Json::from(total.0)),
        ("failed", Json::from(total.1)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_text());
    if total.1 > 0 {
        return Err(format!(
            "{} of {} operations failed or did not match the library ({})",
            total.1,
            total.0,
            failed_kinds.join(", ")
        ));
    }
    Ok(())
}

/// `{name: {value, unit}}` for a metric list.
fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

fn run_workload(name: &str, bin: &Path, args: &Args) -> Result<Outcome, String> {
    match name {
        "session_replay" => session_replay(bin, args),
        "eval_scale" => {
            let d = ScaleData::build("scale", EVAL_SCALE_TRIPLES, args.seed)?;
            scale_workload(bin, args, &d, eval_scale_op)
        }
        "live_update" => {
            let d = ScaleData::build("live", LIVE_TRIPLES, args.seed)?;
            scale_workload(bin, args, &d, live_op)
        }
        _ => unreachable!("validated in parse_args"),
    }
}

/// Spawns the server and times its cold start: from spawn until `ready`
/// (load every world, verify a first answer) returns.
fn cold_start(
    bin: &Path,
    store: Option<&Path>,
    ready: &dyn Fn(SocketAddr) -> Result<(), String>,
) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(bin, store)?;
    ready(server.addr)?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// The cold starts that are not followed by a segment.
fn extra_cold_starts(
    bin: &Path,
    store: Option<&Path>,
    ready: &dyn Fn(SocketAddr) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    (SEGMENTS as usize..COLD_STARTS)
        .map(|_| {
            let (server, t) = cold_start(bin, store, ready)?;
            server.shutdown();
            Ok(t)
        })
        .collect()
}

/// One segment: a fresh server's share of the window.
struct Measured<R> {
    drive: Drive<R>,
    /// `/metrics` change over the segment.
    delta: Scrape,
    /// `/metrics` at the segment's end.
    end: Scrape,
    rss_kib: Option<u64>,
    cpu_s: f64,
}

/// Drives `unit` on `server` for one segment.
fn measure<U: Unit>(server: &Server, unit: &U, args: &Args) -> Result<Measured<U::Record>, String> {
    let before = Scrape::take(server.addr).map_err(|e| format!("scrape: {e}"))?;
    let cpu0 = server.cpu_s();
    let drive = drive(server.addr, unit, args.window() / SEGMENTS)?;
    let cpu_s = server.cpu_s().zip(cpu0).map_or(f64::NAN, |(b, a)| b - a);
    let end = Scrape::take(server.addr).map_err(|e| format!("scrape: {e}"))?;
    Ok(Measured {
        drive,
        delta: end.since(&before),
        end,
        rss_kib: server.peak_rss_kib(),
        cpu_s,
    })
}

/// Shuts `server` down and appends its stderr to a failure.
fn with_log(e: String, server: Server) -> String {
    format!("{e}\nserver stderr:\n{}", server.shutdown())
}

/// All segments of a run as one window.
struct Pooled<R> {
    /// Every segment's units, in segment order.
    drive: Drive<R>,
    /// Units per segment.
    lens: Vec<usize>,
    window: Window,
    rss_kib: Option<Vec<u64>>,
    cpu_s: f64,
}

fn pool<R>(segments: Vec<Measured<R>>) -> Pooled<R> {
    let mut p = Pooled {
        drive: Drive {
            units: Vec::new(),
            wall: Duration::ZERO,
        },
        lens: Vec::new(),
        window: Window {
            samples: Vec::new(),
            delta: Scrape::default(),
            end: Scrape::default(),
        },
        rss_kib: Some(Vec::new()),
        cpu_s: 0.0,
    };
    for m in segments {
        p.lens.push(m.drive.units.len());
        p.window.samples.extend(m.drive.samples());
        p.drive.units.extend(m.drive.units);
        p.drive.wall += m.drive.wall;
        p.window.delta.add(&m.delta);
        p.window.end = m.end;
        p.rss_kib = p.rss_kib.zip(m.rss_kib).map(|(mut v, r)| {
            v.push(r);
            v
        });
        p.cpu_s += m.cpu_s;
    }
    p
}

/// `GET` each world (materializing lazy built-ins), then `POST` the
/// probe and compare it with the precomputed library answer.
fn ready_check(
    addr: SocketAddr,
    worlds: &[&str],
    probe: &http::Req,
    expected: &[u8],
) -> Result<(), String> {
    for w in worlds {
        let r = fetch(addr, &request("GET", &format!("/ontologies/{w}"), ""))
            .map_err(|e| format!("loading {w}: {e}"))?;
        if r.status != 200 {
            return Err(format!("loading {w}: status {}", r.status));
        }
    }
    let r = fetch(addr, probe).map_err(|e| format!("probe: {e}"))?;
    if r.status != 200 || r.body != expected {
        return Err(format!(
            "the first answer does not match the library (status {})",
            r.status
        ));
    }
    Ok(())
}

/// What [`summarize`] makes of one window.
struct Summary {
    metrics: Vec<Metric>,
    meta: Vec<(&'static str, Json)>,
    failed: usize,
    failed_kinds: Vec<&'static str>,
    /// Update-batch latencies, when the workload sends updates.
    updates: Option<Percentiles>,
}

/// Per-kind accounting and the end-to-end metrics from one window.
/// `p50_ms` and `p90_ms` come from the read population only; update
/// batches get percentiles of their own, and clean-up exchanges none.
/// Goodput counts verified exchanges that are not clean-up.
fn summarize(
    samples: &[Sample],
    good: &[bool],
    wall: Duration,
    setup: &[f64],
    peak_rss_kib: Option<Vec<u64>>,
) -> Result<Summary, String> {
    let failed = good.iter().filter(|g| !**g).count();
    let mut kinds: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for (s, g) in samples.iter().zip(good) {
        let e = kinds.entry(s.kind).or_default();
        e.0 += 1;
        e.1 += usize::from(!g);
    }
    let pop = |p: Pop| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.pop == p)
            .map(|s| s.ms)
            .collect()
    };
    let reads = percentiles(&pop(Pop::Read)).ok_or("no read samples")?;
    let Some(r90) = reads.p90 else {
        return Err(format!(
            "{} read samples in {wall:?} are too few for a p90",
            reads.n
        ));
    };
    let updates = percentiles(&pop(Pop::Update));
    let verified = samples
        .iter()
        .zip(good)
        .filter(|(s, g)| **g && s.pop != Pop::Cleanup)
        .count();
    let metrics = vec![
        metric("setup_s", median(setup), "s"),
        metric("p50_ms", reads.p50, "ms"),
        metric("p90_ms", r90, "ms"),
        metric("goodput_per_s", verified as f64 / wall.as_secs_f64(), "1/s"),
        metric(
            "peak_rss_mb",
            median(
                &peak_rss_kib
                    .ok_or("no VmHWM for the server")?
                    .iter()
                    .map(|&k| k as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
            "MiB",
        ),
    ];
    let ops = Json::Obj(
        kinds
            .iter()
            .map(|(k, (a, f))| {
                (
                    k.to_string(),
                    Json::obj([("attempted", Json::from(*a)), ("failed", Json::from(*f))]),
                )
            })
            .collect(),
    );
    let mut counts = vec![
        ("setup_s", Json::from(setup.len())),
        ("p50_ms", Json::from(reads.n)),
        ("p90_ms", Json::from(reads.n)),
    ];
    if let Some(u) = &updates {
        counts.push(("update_p50_ms", Json::from(u.n)));
        counts.push(("update_p90_ms", Json::from(u.n)));
    }
    let meta = vec![
        ("wall_s", Json::Num(wall.as_secs_f64())),
        ("ops", ops),
        ("samples", Json::obj(counts)),
    ];
    Ok(Summary {
        metrics,
        meta,
        failed,
        failed_kinds: kinds
            .iter()
            .filter(|(_, (_, f))| *f > 0)
            .map(|(k, _)| *k)
            .collect(),
        updates,
    })
}

/// The update-latency metrics a traced run adds from its untraced
/// window. Zero stands for "no such population": a workload that sends
/// no updates, or too few for a p90.
fn update_metrics(u: Option<&Percentiles>) -> [Metric; 2] {
    [
        metric("update_p50_ms", u.map_or(0.0, |u| u.p50), "ms"),
        metric("update_p90_ms", u.and_then(|u| u.p90).unwrap_or(0.0), "ms"),
    ]
}

/// What the untraced window measured, for the traced run's
/// reconciliation.
pub struct Window {
    /// Every timed exchange.
    pub samples: Vec<Sample>,
    /// `/metrics` change over the window, summed over segments.
    pub delta: Scrape,
    /// `/metrics` at the end of the last segment.
    pub end: Scrape,
}

fn session_replay(bin: &Path, args: &Args) -> Result<Outcome, String> {
    let sessions = session::Sessions::new(args.seed);
    let first = sessions.spec(0);
    let (_, ont) = sessions.worlds.world_of(first.target);
    let query = sparql::format_union(&sessions.worlds.catalog[first.target].query);
    let probe = Op::Eval {
        world: first.world,
        query: query.clone(),
        provenance: None,
    }
    .request();
    let expected = verify::eval_body(ont, &query, None);
    let ready = |addr| ready_check(addr, &["sp2b", "bsbm", "movies"], &probe, &expected);
    let mut setup = extra_cold_starts(bin, None, &ready)?;
    let mut segments = Vec::new();
    for _ in 0..SEGMENTS {
        let (server, t) = cold_start(bin, None, &ready)?;
        setup.push(t);
        let m = match measure(&server, &sessions, args) {
            Ok(m) => m,
            Err(e) => return Err(with_log(e, server)),
        };
        server.shutdown();
        segments.push(m);
    }
    let p = pool(segments);
    let runs: Vec<&session::SessionRun> = p.drive.units.iter().map(|u| &u.record).collect();
    let t_verify = Instant::now();
    let verdicts = session::verify_all(&sessions.worlds, &runs);
    let verify_s = t_verify.elapsed().as_secs_f64();
    let good = p.drive.per_sample(&verdicts);
    let mut sum = summarize(&p.window.samples, &good, p.drive.wall, &setup, p.rss_kib)?;
    sum.meta.push(("verify_s", Json::Num(verify_s)));
    sum.meta.push(("server_cpu_s", Json::Num(p.cpu_s)));
    sum.meta.push(("sessions", Json::from(runs.len())));
    sum.meta.push((
        "sessions_verified",
        Json::from(verdicts.iter().filter(|v| **v).count()),
    ));
    if args.trace {
        sum.metrics = traced::session_replay(&sessions, &runs, &p.window)?;
        sum.metrics.extend(update_metrics(sum.updates.as_ref()));
    }
    Ok(Outcome {
        attempted: good.len(),
        failed: sum.failed,
        failed_kinds: sum.failed_kinds,
        metrics: sum.metrics,
        meta: sum.meta,
    })
}

fn scale_workload(
    bin: &Path,
    args: &Args,
    data: &ScaleData,
    op: scale::OpFn,
) -> Result<Outcome, String> {
    let store_path = TempFile(PathBuf::from(WORK_DIR).join(format!("{}.qps", data.name)));
    std::fs::write(&store_path.0, &data.snapshot)
        .map_err(|e| format!("{}: {e}", store_path.0.display()))?;
    let first = op(data, args.seed, 0);
    let Op::Eval {
        query, provenance, ..
    } = &first
    else {
        return Err("the first operation must be a read".into());
    };
    let expected = verify::eval_body(&data.ont, query, provenance.as_deref());
    let probe = first.request();
    let ready = |addr| ready_check(addr, &[data.name], &probe, &expected);
    let store = Some(store_path.0.as_path());
    // Re-asked on the last segment's final head, to compare with a
    // scratch build of the model, when the list writes.
    let writes = (0..16).any(|i| op(data, args.seed, i).is_write());
    let checks: Vec<Op> = (0..16)
        .map(|i| op(data, args.seed, i))
        .filter(|o| writes && matches!(o, Op::Eval { .. }))
        .take(4)
        .collect();
    let mut setup = extra_cold_starts(bin, store, &ready)?;
    let mut segments = Vec::new();
    let mut heads = Vec::new();
    let mut check_bodies = Vec::new();
    for g in 0..SEGMENTS {
        let (server, t) = cold_start(bin, store, &ready)?;
        setup.push(t);
        let unit = scale::Scale::new(data, op, args.seed);
        let m = match measure(&server, &unit, args) {
            Ok(m) => m,
            Err(e) => return Err(with_log(e, server)),
        };
        let head = fetch(
            server.addr,
            &request("GET", &format!("/ontologies/{}", data.name), ""),
        );
        heads.push(head.ok().map(|r| r.body));
        if g + 1 == SEGMENTS {
            check_bodies = checks
                .iter()
                .map(|o| fetch(server.addr, &o.request()).ok().map(|r| r.body))
                .collect();
        }
        server.shutdown();
        segments.push(m);
    }
    drop(store_path);
    let p = pool(segments);
    let mut runs: Vec<Vec<&scale::OpRun>> = Vec::new();
    let mut at = 0;
    for len in &p.lens {
        runs.push(
            p.drive.units[at..at + len]
                .iter()
                .map(|u| &u.record)
                .collect(),
        );
        at += len;
    }
    let t_verify = Instant::now();
    let (verdicts, model) = scale::verify(&data.ont, &runs);
    let verify_s = t_verify.elapsed().as_secs_f64();
    for (g, (head, seg)) in heads.into_iter().zip(&runs).enumerate() {
        let last = g + 1 == runs.len();
        let (ops, bodies) = if last {
            (&checks[..], &check_bodies[..])
        } else {
            (&[][..], &[][..])
        };
        if !head_matches(head, &data.ont, &model, seg, (ops, bodies)) {
            return Err(format!(
                "the server's final head of {} in segment {g} disagrees with the benchmark's model",
                data.name
            ));
        }
    }
    let good = p.drive.per_sample(&verdicts.concat());
    let mut sum = summarize(&p.window.samples, &good, p.drive.wall, &setup, p.rss_kib)?;
    sum.meta.push(("verify_s", Json::Num(verify_s)));
    sum.meta.push(("server_cpu_s", Json::Num(p.cpu_s)));
    if args.trace {
        let indices: Vec<u64> = runs[0].iter().map(|r| r.index).collect();
        sum.metrics = traced::scale(data, op, args.seed, &indices, &p.window)?;
        sum.metrics.extend(update_metrics(sum.updates.as_ref()));
    }
    Ok(Outcome {
        attempted: good.len(),
        failed: sum.failed,
        failed_kinds: sum.failed_kinds,
        metrics: sum.metrics,
        meta: sum.meta,
    })
}

/// A segment's final head matches the model: same version, node and
/// edge count as the model after the segment's acknowledged batches,
/// and a scratch build of the model answers the check reads exactly as
/// the server's head did.
fn head_matches(
    head_body: Option<Vec<u8>>,
    base: &Ontology,
    model: &scale::Model,
    runs: &[&scale::OpRun],
    (ops, bodies): (&[Op], &[Option<Vec<u8>>]),
) -> bool {
    let Some(j) = head_body
        .as_deref()
        .and_then(|b| std::str::from_utf8(b).ok())
        .and_then(|t| questpro_wire::parse(t).ok())
    else {
        return false;
    };
    let mut deltas: Vec<(u64, &questpro_graph::TripleDelta)> = runs
        .iter()
        .filter_map(|r| match &r.op {
            Op::Update { batch, delta, .. } if r.status == 200 => Some((*batch, delta)),
            _ => None,
        })
        .collect();
    deltas.sort_by_key(|(b, _)| *b);
    let Some(&(nodes, edges)) = model.sizes.get(deltas.len()) else {
        return false;
    };
    if j.get("version").and_then(Json::as_u64) != Some(1 + deltas.len() as u64)
        || j.get("edges").and_then(Json::as_usize) != Some(edges)
        || j.get("nodes").and_then(Json::as_usize) != Some(nodes)
    {
        return false;
    }
    if ops.is_empty() {
        return true;
    }
    let scratch = scratch_build(base, &deltas);
    if scratch.edge_count() != edges {
        return false;
    }
    ops.iter().zip(bodies).all(|(op, body)| match op {
        Op::Eval {
            query, provenance, ..
        } => {
            body.as_deref() == Some(&verify::eval_body(&scratch, query, provenance.as_deref())[..])
        }
        _ => true,
    })
}

/// Builds the model head from scratch: the base world's typed nodes and
/// triples, with every acknowledged batch's deletes and inserts applied
/// to the triple set, assembled by a fresh builder.
fn scratch_build(base: &Ontology, deltas: &[(u64, &questpro_graph::TripleDelta)]) -> Ontology {
    let mut triples: std::collections::BTreeSet<[String; 3]> = base
        .edge_ids()
        .map(|e| {
            let d = base.edge(e);
            [
                base.value_str(d.src).to_string(),
                base.pred_str(d.pred).to_string(),
                base.value_str(d.dst).to_string(),
            ]
        })
        .collect();
    for (_, d) in deltas {
        for t in &d.deletes {
            triples.remove(t);
        }
        for t in &d.inserts {
            triples.insert(t.clone());
        }
    }
    let mut b = Ontology::builder();
    for n in base.node_ids() {
        if let Some(ty) = base.node_type(n) {
            let _ = b.typed_node(base.value_str(n), base.type_str(ty));
        }
    }
    for [s, p, o] in &triples {
        let _ = b.edge(s, p, o);
    }
    b.build()
}

/// Means of a sample list by route, for reconciliation.
pub fn client_mean_ms(samples: &[Sample], route: &str) -> Option<f64> {
    let v: Vec<f64> = samples
        .iter()
        .filter(|s| s.route == route)
        .map(|s| s.ms)
        .collect();
    (!v.is_empty()).then(|| mean(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pop: Pop, ms: f64) -> Sample {
        Sample {
            kind: if pop == Pop::Update { "update" } else { "eval" },
            route: "POST /eval",
            pop,
            status: 200,
            ms,
            sent: Instant::now(),
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .expect("metric present")
            .value
    }

    #[test]
    fn reads_and_updates_never_share_a_percentile() {
        // 300 reads of 1..=300 ms; 100 updates far slower; 50 clean-up
        // exchanges and 50 reads of another kind far faster, interleaved.
        let mut samples = Vec::new();
        for i in 1..=300 {
            samples.push(sample(Pop::Read, f64::from(i)));
            if i % 3 == 0 {
                samples.push(sample(Pop::Update, 10_000.0));
            }
            if i % 6 == 0 {
                samples.push(sample(Pop::Cleanup, 0.001));
                samples.push(sample(Pop::Other, 0.002));
            }
        }
        let good = vec![true; samples.len()];
        let s = summarize(
            &samples,
            &good,
            Duration::from_secs(1),
            &[0.5],
            Some(vec![1024]),
        )
        .unwrap();
        assert_eq!(value(&s.metrics, "p50_ms"), 150.5);
        assert_eq!(value(&s.metrics, "p90_ms"), 270.0);
        assert_eq!(
            value(&s.metrics, "goodput_per_s"),
            450.0,
            "clean-up is not goodput"
        );
        let u = s.updates.expect("updates have their own population");
        assert_eq!((u.n, u.p50), (100, 10_000.0));
        let names: Vec<&str> = s.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn too_few_reads_for_a_p90_fail_the_run() {
        let samples: Vec<Sample> = (0..99).map(|i| sample(Pop::Read, f64::from(i))).collect();
        let good = vec![true; samples.len()];
        assert!(summarize(
            &samples,
            &good,
            Duration::from_secs(1),
            &[0.5],
            Some(vec![1])
        )
        .is_err());
    }

    #[test]
    fn live_update_list_writes_and_eval_scale_list_does_not() {
        let d = ScaleData::build("live", 20_000, 1).unwrap();
        assert!((0..16).any(|i| live_op(&d, 1, i).is_write()));
        assert!((0..400).all(|i| !eval_scale_op(&d, 1, i).is_write()));
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics the
    /// benchmark prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_names() {
        let manifest = questpro_wire::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let mut layers: Vec<(String, String)> = traced::metric_names()
            .into_iter()
            .chain(update_metrics(None).into_iter().map(|m| (m.name, m.unit)))
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        let mut listed = names("per_layer");
        layers.sort();
        listed.sort();
        assert_eq!(listed, layers);
    }
}
