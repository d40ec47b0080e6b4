//! The traced run: replays the untraced window's operations in-process
//! on one thread, under spans owned by this file.
//!
//! Each operation runs twice. First as the server runs it: the request
//! bytes through `http::parse_request`, the whole handler through
//! `route()`, the response through `http::encode_response`. Then as its
//! layers: the same public calls the handler makes, in order, each in a
//! span of its own, on a second state so side effects never apply twice.
//! A span records name, start, end, parent and operation id; spans stay
//! in memory and are folded into self times when the replay ends.
//!
//! End-to-end numbers never come from here. The untraced window's
//! client latencies and `/metrics` handler histograms are read back for
//! the reconciliation, and the gap between the traced `route()` time and
//! the untraced handler time is reported as tracing overhead.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use questpro_engine::{evaluate_union_with, metrics, provenance_of_union_with, union_equivalent};
use questpro_feedback::InteractiveSession;
use questpro_graph::{exformat, Ontology};
use questpro_query::sparql;
use questpro_server::http::{encode_response, parse_request, Request, Response};
use questpro_server::{route, AppState, Registry};
use questpro_wire::Json;

use crate::ops::{Op, ScaleData};
use crate::scale::OpFn;
use crate::session::{SessionRun, Sessions};
use crate::stats::mean;
use crate::verify::{server_session_config, server_topk, subgraph_json};
use crate::{client_mean_ms, metric, Metric, Window};

/// Wall-clock budget of one traced replay; whole units are replayed in
/// list order until it is spent.
const BUDGET: Duration = Duration::from_secs(8);
/// The server's default body cap (`ServerConfig::default`).
const MAX_BODY: usize = 1 << 20;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        let i = self.stack.pop().expect("end without begin");
        self.spans[i].end_ns = self.now();
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Duration of the most recently closed span named `name`, ns.
    fn last(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// `(calls, mean self time ms)` per span name. A span's self time is
    /// its duration minus the part of it its children cover.
    fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut acc: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child[i]);
        }
        acc.into_iter()
            .map(|(k, (n, ns))| (k, (n, ns as f64 / n as f64 / 1e6)))
            .collect()
    }

    /// Distinct operations replayed.
    fn ops(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.op).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Whether span `i` sits below a `layers` span.
    fn under_layers(&self, i: usize) -> bool {
        let mut p = self.spans[i].parent;
        while let Some(j) = p {
            if self.spans[j].name == "layers" {
                return true;
            }
            p = self.spans[j].parent;
        }
        false
    }

    /// Mean over `ops` of the summed self times of every span below a
    /// `layers` span, ms: the part of the handler's work the public
    /// calls account for.
    fn layer_sum_ms(&self, ops: &[u64]) -> f64 {
        if ops.is_empty() {
            return 0.0;
        }
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let total: u64 = (0..self.spans.len())
            .filter(|&i| ops.contains(&self.spans[i].op) && self.under_layers(i))
            .map(|i| {
                let s = &self.spans[i];
                (s.end_ns - s.start_ns).saturating_sub(child[i])
            })
            .sum();
        total as f64 / ops.len() as f64 / 1e6
    }
}

/// Engine counters snapshotted around `route()` calls.
#[derive(Default, Clone, Copy)]
struct EngineCounts {
    nodes: u64,
    matches: u64,
    searches: u64,
    lookups: u64,
    hits: u64,
}

impl EngineCounts {
    fn now() -> EngineCounts {
        EngineCounts {
            nodes: metrics::nodes_expanded(),
            matches: metrics::matches_total(),
            searches: metrics::searches_total(),
            lookups: metrics::consistency_lookups_total(),
            hits: metrics::consistency_hits_total(),
        }
    }

    fn add_delta(&mut self, before: EngineCounts) {
        let after = EngineCounts::now();
        self.nodes += after.nodes - before.nodes;
        self.matches += after.matches - before.matches;
        self.searches += after.searches - before.searches;
        self.lookups += after.lookups - before.lookups;
        self.hits += after.hits - before.hits;
    }
}

/// One inference's `InferenceStats`: total, merge and consistency ns;
/// algorithm-1 calls, merge-cache hits, states examined.
type InferRow = (f64, f64, f64, f64, f64, f64);

/// Everything the replay accumulates besides spans.
#[derive(Default)]
struct Acc {
    engine: EngineCounts,
    bytes_in: Vec<f64>,
    bytes_out: Vec<f64>,
    infers: Vec<InferRow>,
    /// `feedback.start` self time net of its inference, ms.
    start_net_ms: Vec<f64>,
    rounds: Vec<f64>,
    questions: Vec<f64>,
    converged: Vec<f64>,
    /// Operation ids per route label.
    ops_by_route: BTreeMap<&'static str, Vec<u64>>,
    /// Traced `route()` ms per route label.
    route_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Acc {
    fn infer(&mut self, s: &questpro_core::InferenceStats) {
        self.infers.push((
            s.total_nanos as f64,
            s.merge_nanos as f64,
            s.consistency_nanos as f64,
            s.algorithm1_calls as f64,
            s.merge_cache_hits as f64,
            s.states_examined as f64,
        ));
    }
}

/// Runs one request the way the server does, under spans.
fn serve(
    tr: &mut Tracer,
    acc: &mut Acc,
    state: &AppState,
    bytes: &[u8],
    label: &'static str,
) -> Response {
    let req: Request = tr.span("server.http_parse", || {
        parse_request(bytes, MAX_BODY)
            .ok()
            .flatten()
            .map(|(r, _)| r)
            .expect("the benchmark sends well-formed requests")
    });
    let before = EngineCounts::now();
    let resp = tr.span("server.route", || route(state, &req));
    acc.engine.add_delta(before);
    acc.route_ms
        .entry(label)
        .or_default()
        .push(tr.last("server.route") as f64 / 1e6);
    acc.ops_by_route.entry(label).or_default().push(tr.op);
    tr.span("server.http_encode", || encode_response(&resp));
    acc.bytes_in.push(req.body.len() as f64);
    acc.bytes_out.push(resp.body.len() as f64);
    resp
}

/// A request's body as text.
fn body_text(req: &crate::http::Req) -> &str {
    std::str::from_utf8(&req.bytes[req.bytes.len() - req.body_len..]).unwrap_or_default()
}

fn wire_parse(tr: &mut Tracer, body: &str) -> Json {
    tr.span("wire.parse", || questpro_wire::parse(body))
        .expect("the benchmark sends valid JSON")
}

/// `session_replay`'s traced run.
pub fn session_replay(
    sessions: &Sessions,
    runs: &[&SessionRun],
    w: &Window,
) -> Result<Vec<Metric>, String> {
    let state = shipped_state();
    let mut tr = Tracer::new();
    let mut acc = Acc::default();
    let deadline = Instant::now() + BUDGET;
    let cfg = server_session_config();
    for run in runs.iter().filter(|r| r.http_ok) {
        if Instant::now() >= deadline {
            break;
        }
        let spec = &run.spec;
        let (_, ont) = sessions.worlds.world_of(spec.target);
        tr.op += 1;
        tr.begin("op");
        let create = spec.create();
        let resp = serve(&mut tr, &mut acc, &state, &create.bytes, "POST /sessions");
        let id = questpro_wire::parse(&String::from_utf8_lossy(&resp.body))
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_u64))
            .ok_or("in-process session create failed")?;
        tr.begin("layers");
        let body = wire_parse(&mut tr, body_text(&create));
        let text = body
            .get("examples")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let examples = tr
            .span("graph.examples_parse", || {
                exformat::parse_examples(ont, text)
            })
            .map_err(|e| e.to_string())?;
        let mut session = tr
            .span("feedback.start", || {
                InteractiveSession::start(ont, &examples, &cfg, spec.seed)
            })
            .map_err(|e| e.to_string())?;
        acc.infer(session.stats());
        acc.start_net_ms
            .push((tr.last("feedback.start") as f64 - session.stats().total_nanos as f64) / 1e6);
        render_state(&mut tr, ont, &session);
        tr.end();
        tr.end();
        for &answer in &run.answers {
            tr.op += 1;
            tr.begin("op");
            let fb = crate::ops::feedback(id, answer);
            serve(
                &mut tr,
                &mut acc,
                &state,
                &fb.bytes,
                "POST /sessions/:id/feedback",
            );
            tr.begin("layers");
            wire_parse(&mut tr, body_text(&fb));
            tr.span("feedback.answer", || session.answer(ont, answer))
                .map_err(|e| e.to_string())?;
            render_state(&mut tr, ont, &session);
            tr.end();
            tr.end();
        }
        tr.op += 1;
        tr.begin("op");
        serve(
            &mut tr,
            &mut acc,
            &state,
            &crate::ops::delete(id).bytes,
            "DELETE /sessions/:id",
        );
        tr.end();
        acc.rounds.push(session.rounds_log().len() as f64);
        acc.questions
            .push((session.transcript().len() + session.refine_questions()) as f64);
        let target = &sessions.worlds.catalog[spec.target].query;
        acc.converged.push(f64::from(u8::from(
            session
                .final_query()
                .is_some_and(|q| union_equivalent(q, target)),
        )));
    }
    Ok(report(&tr, &acc, w))
}

/// Renders a session's state the way the handler does: the pending
/// question's provenance graph, the final query, and the JSON text.
fn render_state(tr: &mut Tracer, ont: &Ontology, s: &InteractiveSession) {
    let pending = s.pending().map_or(Json::Null, |p| {
        Json::obj([
            ("result", Json::str(ont.value_str(p.result()))),
            ("provenance", subgraph_json(ont, p.provenance())),
        ])
    });
    let fin = s.final_query().map_or(Json::Null, |q| {
        Json::str(tr.span("query.format", || sparql::format_union(q)))
    });
    let j = Json::obj([("pending", pending), ("final", fin)]);
    tr.span("wire.to_text", || j.to_text());
}

/// The shipped server's handler state (`ServerConfig::default` limits).
fn shipped_state() -> AppState {
    AppState::new(1, MAX_BODY, Duration::from_secs(1_800), 64)
}

/// `eval_scale`'s and `live_update`'s traced run.
pub fn scale(
    data: &ScaleData,
    op: OpFn,
    seed: u64,
    indices: &[u64],
    w: &Window,
) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer::new();
    let mut acc = Acc::default();
    // Cold start, by layer.
    let store = tr
        .span("store.decode", || questpro_store::decode(&data.snapshot))
        .map_err(|e| e.to_string())?;
    let assembled = tr
        .span("store.to_ontology", || store.to_ontology())
        .map_err(|e| e.to_string())?;
    drop((store, assembled));
    let state = shipped_state();
    state.registry.insert_snapshot(data.name, &data.snapshot)?;
    // The layer path's own registry takes the updates, so they never
    // apply twice to the served state.
    let layer_registry = Registry::with_builtins();
    layer_registry.insert_snapshot(data.name, &data.snapshot)?;
    let mut model = Arc::clone(&data.ont);
    let cfg = server_topk();
    let deadline = Instant::now() + BUDGET;
    // Replay the window's operations in list order, through the first
    // gap: later updates assume every earlier one applied.
    for (n, &i) in indices.iter().enumerate() {
        if Instant::now() >= deadline || i != n as u64 {
            break;
        }
        let o = op(data, seed, i);
        let req = o.request();
        let label = match &o {
            Op::Eval { .. } => "POST /eval",
            Op::Infer { .. } => "POST /infer",
            Op::Update { .. } => "POST /ontologies/:name/update",
        };
        tr.op = i + 1;
        tr.begin("op");
        serve(&mut tr, &mut acc, &state, &req.bytes, label);
        tr.begin("layers");
        let body = wire_parse(&mut tr, body_text(&req));
        let mut applied = None;
        match &o {
            Op::Eval {
                world,
                query,
                provenance,
            } => {
                let ont = state.registry.get(world).ok_or("world vanished")?;
                let q = tr
                    .span("query.parse", || sparql::parse_union(query))
                    .map_err(|e| e.to_string())?;
                let results = tr.span("engine.eval", || evaluate_union_with(&ont, &q, 1));
                let mut pairs = vec![(
                    "results",
                    Json::Arr(
                        results
                            .iter()
                            .map(|&r| Json::str(ont.value_str(r)))
                            .collect(),
                    ),
                )];
                if let Some(node) = provenance.as_deref().and_then(|v| ont.node_by_value(v)) {
                    let graphs = tr.span("engine.provenance", || {
                        provenance_of_union_with(&ont, &q, node, Some(8), 1)
                    });
                    pairs.push((
                        "provenance",
                        Json::Arr(graphs.iter().map(|g| subgraph_json(&ont, g)).collect()),
                    ));
                }
                let j = Json::obj(pairs);
                tr.span("wire.to_text", || j.to_text());
            }
            Op::Infer { world, examples } => {
                let ont = state.registry.get(world).ok_or("world vanished")?;
                let ex = tr
                    .span("graph.examples_parse", || {
                        exformat::parse_examples(&ont, examples)
                    })
                    .map_err(|e| e.to_string())?;
                let (cands, stats) =
                    tr.span("core.infer", || questpro_core::infer_top_k(&ont, &ex, &cfg));
                acc.infer(&stats);
                let texts: Vec<Json> = tr.span("query.format", || {
                    cands
                        .iter()
                        .map(|q| Json::str(sparql::format_union(q)))
                        .collect()
                });
                let j = Json::obj([("candidates", Json::Arr(texts))]);
                tr.span("wire.to_text", || j.to_text());
            }
            Op::Update { world, .. } => {
                let delta = tr
                    .span("wire.parse", || questpro_wire::update::parse_update(&body))
                    .map_err(|e| e.to_string())?;
                tr.span("server.registry_update", || {
                    layer_registry.update(world, &delta)
                })
                .map_err(|(s, m)| format!("{s}: {m}"))?;
                let head = layer_registry.get(world).ok_or("world vanished")?;
                let j = Json::obj([("edges", Json::from(head.edge_count()))]);
                tr.span("wire.to_text", || j.to_text());
                applied = Some(delta);
            }
        }
        tr.end();
        // `Registry::update` applies the delta itself, so the graph
        // layer's own `apply_delta` is timed outside the layer sum.
        if let Some(delta) = applied {
            let (next, _) = tr
                .span("graph.apply_delta", || model.apply_delta(&delta))
                .map_err(|e| e.to_string())?;
            model = Arc::new(next);
        }
        tr.end();
    }
    Ok(report(&tr, &acc, w))
}

/// Folds the replay and the untraced window into the per-layer metrics,
/// and prints the reconciliation.
fn report(tr: &Tracer, acc: &Acc, w: &Window) -> Vec<Metric> {
    let st = tr.self_times();
    let ms = |name: &str| st.get(name).map_or(0.0, |&(_, v)| v);
    let us = |name: &str| ms(name) * 1e3;
    let ops = tr.ops().max(1) as f64;
    let route_ops = acc.route_ms.values().map(Vec::len).sum::<usize>().max(1) as f64;

    // Untraced side: client means and /metrics handler means per route.
    let mut routes: Vec<&'static str> = w.samples.iter().map(|s| s.route).collect();
    routes.sort_unstable();
    routes.dedup();
    let (mut h_ns, mut h_n, mut c_ms) = (0.0, 0.0, 0.0);
    eprintln!(
        "\nreconciliation (ms per request; client and handler from the untraced window, \
         route and layers from the traced replay):"
    );
    eprintln!(
        "  {:<32} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "route",
        "n",
        "client",
        "handler",
        "residual",
        "route()",
        "layers",
        "unattributed",
        "overhead"
    );
    for r in &routes {
        let (sum, n) = w.delta.route(r);
        let handler = if n > 0.0 { sum / n / 1e6 } else { 0.0 };
        let client = client_mean_ms(&w.samples, r).unwrap_or(0.0);
        let count = w.samples.iter().filter(|s| s.route == *r).count() as f64;
        h_ns += sum;
        h_n += n;
        c_ms += client * count;
        let traced = acc.route_ms.get(r).map_or(0.0, |v| mean(v));
        let layers = acc
            .ops_by_route
            .get(r)
            .map_or(0.0, |ids| tr.layer_sum_ms(ids));
        eprintln!(
            "  {:<32} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>12.4} {:>10.4}",
            r,
            count,
            client,
            handler,
            client - handler,
            traced,
            layers,
            traced - layers,
            traced - handler
        );
    }
    let handler_ms = if h_n > 0.0 { h_ns / h_n / 1e6 } else { 0.0 };
    let client_ms = c_ms / w.samples.len().max(1) as f64;
    let traced_route = ms("server.route");
    let all_ops: Vec<u64> = acc.ops_by_route.values().flatten().copied().collect();
    let layers = tr.layer_sum_ms(&all_ops);

    let window_ops = w.samples.len().max(1) as f64;
    let scraped = |series: &str| w.delta.get(series) / window_ops;
    let e = acc.engine;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let infers = &acc.infers;
    let col = |f: fn(&InferRow) -> f64| -> f64 { mean(&infers.iter().map(f).collect::<Vec<_>>()) };
    let merge_hits: f64 = infers.iter().map(|t| t.4).sum();
    let a1: f64 = infers.iter().map(|t| t.3).sum();
    vec![
        metric("server.handler_ms", handler_ms, "ms"),
        metric("server.residual_ms", client_ms - handler_ms, "ms"),
        metric("server.route_ms", traced_route, "ms"),
        metric("server.unattributed_ms", traced_route - layers, "ms"),
        metric("server.http_parse_us", us("server.http_parse"), "us"),
        metric("server.http_encode_us", us("server.http_encode"), "us"),
        metric(
            "server.registry_update_ms",
            ms("server.registry_update"),
            "ms",
        ),
        metric(
            "server.versions_open",
            w.end.get("questpro_ontology_versions_open"),
            "count",
        ),
        metric("wire.parse_us", us("wire.parse"), "us"),
        metric("wire.to_text_us", us("wire.to_text"), "us"),
        metric("wire.bytes_in", mean(&acc.bytes_in), "bytes"),
        metric("wire.bytes_out", mean(&acc.bytes_out), "bytes"),
        metric("query.parse_us", us("query.parse"), "us"),
        metric("query.format_us", us("query.format"), "us"),
        metric("graph.examples_parse_us", us("graph.examples_parse"), "us"),
        metric("graph.apply_delta_ms", ms("graph.apply_delta"), "ms"),
        metric("store.decode_ms", ms("store.decode"), "ms"),
        metric("store.to_ontology_ms", ms("store.to_ontology"), "ms"),
        metric("engine.eval_ms", ms("engine.eval"), "ms"),
        metric("engine.provenance_ms", ms("engine.provenance"), "ms"),
        metric("engine.nodes_expanded", e.nodes as f64 / route_ops, "count"),
        metric("engine.matches", e.matches as f64 / route_ops, "count"),
        metric("engine.searches", e.searches as f64 / route_ops, "count"),
        metric("engine.match_yield", ratio(e.matches, e.nodes), "ratio"),
        metric(
            "engine.consistency_lookups",
            e.lookups as f64 / route_ops,
            "count",
        ),
        metric(
            "engine.consistency_hit_rate",
            ratio(e.hits, e.lookups),
            "ratio",
        ),
        metric("core.infer_ms", col(|t| t.0) / 1e6, "ms"),
        metric("core.merge_ms", col(|t| t.1) / 1e6, "ms"),
        metric("core.consistency_ms", col(|t| t.2) / 1e6, "ms"),
        metric("core.algorithm1_calls", col(|t| t.3), "count"),
        metric(
            "core.merge_hit_rate",
            if a1 > 0.0 { merge_hits / a1 } else { 0.0 },
            "ratio",
        ),
        metric("core.states_examined", col(|t| t.5), "count"),
        metric("feedback.start_ms", mean(&acc.start_net_ms), "ms"),
        metric("feedback.answer_ms", ms("feedback.answer"), "ms"),
        metric("feedback.rounds", mean(&acc.rounds), "count"),
        metric("feedback.questions", mean(&acc.questions), "count"),
        metric("feedback.converged_frac", mean(&acc.converged), "ratio"),
        metric(
            "telemetry.records",
            scraped("questpro_session_records_total"),
            "count",
        ),
        metric(
            "telemetry.dropped",
            scraped("questpro_session_records_dropped_total"),
            "count",
        ),
        metric(
            "trace.dropped",
            scraped("questpro_traces_dropped_total"),
            "count",
        ),
        metric(
            "log.dropped",
            scraped("questpro_log_dropped_total"),
            "count",
        ),
        metric("trace.overhead_ms", traced_route - handler_ms, "ms"),
        metric("trace.ops_replayed", ops, "count"),
    ]
}

/// Every per-layer metric a traced run reports, with its unit.
#[cfg(test)]
pub fn metric_names() -> Vec<(String, &'static str)> {
    let w = Window {
        samples: Vec::new(),
        delta: Default::default(),
        end: Default::default(),
    };
    report(&Tracer::new(), &Acc::default(), &w)
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}
