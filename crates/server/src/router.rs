//! Request routing and JSON endpoint handlers.
//!
//! Routes are dispatched on `(method, path segments)`. Handlers are
//! pure functions from parsed wire JSON to a [`Response`]; every error
//! path returns a `{"error": ...}` envelope with a 4xx/5xx status —
//! malformed input must never panic a worker (the connection loop
//! additionally wraps handlers in `catch_unwind` as a last line of
//! defense).
//!
//! Endpoint map:
//!
//! | Method & path                  | Action                              |
//! |--------------------------------|-------------------------------------|
//! | `GET  /healthz`                | liveness probe                      |
//! | `GET  /metrics`                | Prometheus-style counters           |
//! | `GET  /debug/traces`           | recent request traces (JSON)        |
//! | `GET  /debug/logs`             | recent structured log events (JSON) |
//! | `GET  /debug/sessions`         | recent session telemetry (JSON)     |
//! | `GET  /ontologies`             | list registered worlds              |
//! | `POST /ontologies`             | register a world (triple text, or a |
//! |                                | base64 binary snapshot)             |
//! | `GET  /ontologies/:name`       | materialize + describe one world    |
//! | `POST /ontologies/:name/update`| batched triple inserts/deletes      |
//! | `POST /eval`                   | evaluate a SPARQL union             |
//! | `POST /infer`                  | one-shot top-k inference            |
//! | `POST /sessions`               | start an interactive session        |
//! | `GET  /sessions`               | list live sessions                  |
//! | `GET  /sessions/:id`           | session state + pending question    |
//! | `DELETE /sessions/:id`         | drop a session                      |
//! | `POST /sessions/:id/infer`     | current inference step (question)   |
//! | `POST /sessions/:id/feedback`  | answer the pending question         |
//! | `GET  /sessions/:id/candidates`| the ranked candidate queries        |
//! | `GET  /sessions/:id/snapshot`  | serialized session state            |
//! | `POST /sessions/restore`       | resume a session from a snapshot    |
//! | `POST /shutdown`               | begin graceful shutdown             |
//!
//! Live updates and sessions: every session is pinned to the ontology
//! *version* it started on (its candidates and provenance reference
//! that version's ids). `POST /ontologies/:name/update` installs a new
//! head version without touching pinned ones; once a pinned version
//! falls off the registry's bounded history, requests against that
//! session — and restores of its snapshots — fail with a named `410`
//! instead of silently answering from the wrong graph.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use questpro_core::{GreedyConfig, TopKConfig};
use questpro_engine::{evaluate_union_with, provenance_of_union_with};
use questpro_feedback::{
    FeedbackConfig, InteractiveSession, PendingQuestion, Phase, SessionConfig, SessionError,
};
use questpro_graph::{exformat, ExampleSet, Ontology, Subgraph};
use questpro_query::{sparql, GeneralizationWeights, UnionQuery};
use questpro_wire::{Json, Limits};

use crate::http::{Request, Response};
use crate::metrics::{render, HttpCounters, OntologyCounters};
use crate::registry::{Registry, VersionLookup};
use crate::sessions::{lock, SessionEntry, SessionManager};

/// Everything the handlers share; one per server, behind an `Arc`.
pub struct AppState {
    /// Named ontologies.
    pub registry: Registry,
    /// Live interactive sessions.
    pub sessions: SessionManager,
    /// Monotonic HTTP counters for `/metrics`.
    pub http: HttpCounters,
    /// Monotonic live-update counters for `/metrics`.
    pub ontology_updates: OntologyCounters,
    /// Set by `POST /shutdown`; the accept loop polls it.
    pub shutdown: Arc<AtomicBool>,
    /// Default `--threads` for inference when a request omits it.
    pub default_threads: usize,
    /// Cap on request bodies, bytes (shared with the HTTP reader).
    pub max_body: usize,
    /// Requests slower than this (on routes that run inference) produce
    /// a warn-level slow-query log event; 0 disables the slow log.
    pub slow_query_ns: u64,
}

impl AppState {
    /// A state with the built-in worlds and the given limits.
    pub fn new(
        default_threads: usize,
        max_body: usize,
        session_idle: Duration,
        max_sessions: usize,
    ) -> AppState {
        AppState {
            registry: Registry::with_builtins(),
            sessions: SessionManager::new(session_idle, max_sessions),
            http: HttpCounters::default(),
            ontology_updates: OntologyCounters::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
            default_threads: default_threads.max(1),
            max_body,
            slow_query_ns: 500_000_000,
        }
    }
}

/// The fixed list of normalized route labels exported as the
/// `questpro_route_duration_ns` histogram family. Every label always
/// appears in `/metrics` (zero-filled when never hit); requests that
/// match no route — including 405s — land under `"other"`.
pub const ROUTES: &[&str] = &[
    "GET /healthz",
    "GET /metrics",
    "GET /debug/traces",
    "GET /debug/logs",
    "GET /debug/sessions",
    "GET /ontologies",
    "POST /ontologies",
    "GET /ontologies/:name",
    "POST /ontologies/:name/update",
    "POST /eval",
    "POST /infer",
    "POST /sessions",
    "GET /sessions",
    "GET /sessions/:id",
    "DELETE /sessions/:id",
    "POST /sessions/:id/infer",
    "POST /sessions/:id/feedback",
    "GET /sessions/:id/candidates",
    "GET /sessions/:id/snapshot",
    "POST /sessions/restore",
    "POST /shutdown",
    "other",
];

/// Whether a route is cheap enough to serve on any thread, including
/// the loop thread while every worker is busy: constant-time probes,
/// metric/debug scrapes, and the shutdown flag flip. Everything that can
/// run inference, materialize an ontology, or parse a client body is
/// CPU-bound: it passes admission, runs only on a worker, and so never
/// blocks the loop thread.
/// Unmatched requests (`"other"`, i.e. 404/405) are inline too — their
/// cost is one small error envelope.
pub fn is_inline(label: &str) -> bool {
    matches!(
        label,
        "GET /healthz"
            | "GET /metrics"
            | "GET /debug/traces"
            | "GET /debug/logs"
            | "GET /debug/sessions"
            | "POST /shutdown"
            | "other"
    )
}

/// Maps a request to its [`ROUTES`] label: the dispatch arms of
/// [`route`] with path parameters collapsed, or `"other"`.
pub fn route_label(method: &str, path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => "GET /healthz",
        ("GET", ["metrics"]) => "GET /metrics",
        ("GET", ["debug", "traces"]) => "GET /debug/traces",
        ("GET", ["debug", "logs"]) => "GET /debug/logs",
        ("GET", ["debug", "sessions"]) => "GET /debug/sessions",
        ("GET", ["ontologies"]) => "GET /ontologies",
        ("POST", ["ontologies"]) => "POST /ontologies",
        ("GET", ["ontologies", _]) => "GET /ontologies/:name",
        ("POST", ["ontologies", _, "update"]) => "POST /ontologies/:name/update",
        ("POST", ["eval"]) => "POST /eval",
        ("POST", ["infer"]) => "POST /infer",
        ("POST", ["sessions"]) => "POST /sessions",
        ("POST", ["sessions", "restore"]) => "POST /sessions/restore",
        ("GET", ["sessions"]) => "GET /sessions",
        ("GET", ["sessions", _]) => "GET /sessions/:id",
        ("DELETE", ["sessions", _]) => "DELETE /sessions/:id",
        ("POST", ["sessions", _, "infer"]) => "POST /sessions/:id/infer",
        ("POST", ["sessions", _, "feedback"]) => "POST /sessions/:id/feedback",
        ("GET", ["sessions", _, "candidates"]) => "GET /sessions/:id/candidates",
        ("GET", ["sessions", _, "snapshot"]) => "GET /sessions/:id/snapshot",
        ("POST", ["shutdown"]) => "POST /shutdown",
        _ => "other",
    }
}

/// Dispatches one request to its handler.
pub fn route(state: &AppState, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("GET", ["metrics"]) => Response::text(
            200,
            render(
                &state.http,
                state.sessions.count(),
                &state.ontology_updates,
                state.registry.versions_open(),
            ),
        ),
        ("GET", ["debug", "traces"]) => debug_traces(req),
        ("GET", ["debug", "logs"]) => debug_logs(req),
        ("GET", ["debug", "sessions"]) => debug_sessions(req),
        ("GET", ["ontologies"]) => list_ontologies(state),
        ("POST", ["ontologies"]) => create_ontology(state, req),
        ("GET", ["ontologies", name]) => describe_ontology(state, name),
        ("POST", ["ontologies", name, "update"]) => update_ontology(state, name, req),
        ("POST", ["eval"]) => eval_query(state, req),
        ("POST", ["infer"]) => one_shot_infer(state, req),
        ("POST", ["sessions"]) => create_session(state, req),
        ("POST", ["sessions", "restore"]) => restore_session(state, req),
        ("GET", ["sessions"]) => list_sessions(state),
        ("GET", ["sessions", id]) => with_session(state, id, session_state_json),
        ("DELETE", ["sessions", id]) => delete_session(state, id),
        ("POST", ["sessions", id, "infer"]) => with_session(state, id, session_state_json),
        ("POST", ["sessions", id, "feedback"]) => session_feedback(state, id, req),
        ("GET", ["sessions", id, "candidates"]) => with_session(state, id, |_, entry| {
            Response::json(
                200,
                Json::obj([(
                    "candidates",
                    Json::Arr(
                        entry
                            .session
                            .candidates()
                            .iter()
                            .map(|q| Json::str(sparql::format_union(q)))
                            .collect(),
                    ),
                )])
                .to_text(),
            )
        }),
        ("GET", ["sessions", id, "snapshot"]) => with_session(state, id, |ont, entry| {
            // Embed the ontology pin so the snapshot is self-contained:
            // `POST /sessions/restore` refuses version mismatches by name.
            let mut snap = entry.session.snapshot(ont);
            if let Json::Obj(pairs) = &mut snap {
                pairs.push(("ontology".to_string(), Json::str(entry.ontology.clone())));
                pairs.push(("ontology_version".to_string(), Json::from(entry.version)));
            }
            Response::json(200, snap.to_text())
        }),
        ("POST", ["shutdown"]) => {
            state.shutdown.store(true, Ordering::SeqCst);
            let mut resp = Response::json(
                200,
                Json::obj([("status", Json::str("shutting down"))]).to_text(),
            );
            resp.close = true;
            resp
        }
        (
            _,
            ["healthz" | "metrics" | "debug" | "ontologies" | "eval" | "infer" | "sessions"
            | "shutdown", ..],
        ) => Response::error(405, "method not allowed for this path"),
        _ => Response::error(404, "no such route"),
    }
}

// ---------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------

/// Parses the request body as JSON within the configured limits.
fn body_json(state: &AppState, req: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "request body must be UTF-8 JSON"))?;
    questpro_wire::parse_with(
        text,
        Limits {
            max_bytes: state.max_body,
            ..Limits::default()
        },
    )
    .map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))
}

/// Strict non-negative decimal parse for untrusted path/query text.
///
/// Unlike `str::parse`, this rejects a leading `+`, surrounding
/// whitespace, and non-ASCII digits, so `+7` or `٧` never aliases a
/// session id or limit.
fn strict_decimal(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// A required string field of a JSON object body.
fn str_field<'a>(body: &'a Json, key: &str) -> Result<&'a str, Response> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| Response::error(422, &format!("missing string field {key:?}")))
}

fn ontology_of(state: &AppState, name: &str) -> Result<Arc<Ontology>, Response> {
    state
        .registry
        .get(name)
        .ok_or_else(|| Response::error(404, &format!("no ontology named {name:?}")))
}

fn examples_of(ont: &Ontology, text: &str) -> Result<ExampleSet, Response> {
    let set = exformat::parse_examples(ont, text)
        .map_err(|e| Response::error(422, &format!("bad examples: {e}")))?;
    if set.is_empty() {
        return Err(Response::error(422, "the example-set is empty"));
    }
    Ok(set)
}

fn query_of(text: &str) -> Result<UnionQuery, Response> {
    sparql::parse_union(text).map_err(|e| Response::error(422, &format!("bad query: {e}")))
}

/// Extracts the shared inference knobs (`k`, `w1`, `w2`, `threads`,
/// `optional`) with the same defaults the CLI uses.
fn topk_config(state: &AppState, body: &Json) -> TopKConfig {
    let defaults = TopKConfig::default();
    let num = |key: &str, dflt: f64| body.get(key).and_then(Json::as_f64).unwrap_or(dflt);
    TopKConfig {
        k: body
            .get("k")
            .and_then(Json::as_usize)
            .unwrap_or(defaults.k)
            .max(1),
        weights: GeneralizationWeights::new(
            num("w1", defaults.weights.w1),
            num("w2", defaults.weights.w2),
        ),
        greedy: GreedyConfig {
            allow_optional: body
                .get("optional")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            ..Default::default()
        },
        threads: body
            .get("threads")
            .and_then(Json::as_usize)
            .unwrap_or(state.default_threads)
            .max(1),
    }
}

/// `{edges: [[s,p,o]...], nodes: [v...], text: human description}`.
fn subgraph_json(ont: &Ontology, g: &Subgraph) -> Json {
    Json::obj([
        (
            "edges",
            Json::Arr(
                g.edges()
                    .iter()
                    .map(|&e| {
                        let d = ont.edge(e);
                        Json::Arr(vec![
                            Json::str(ont.value_str(d.src)),
                            Json::str(ont.pred_str(d.pred)),
                            Json::str(ont.value_str(d.dst)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "nodes",
            Json::Arr(
                g.nodes()
                    .iter()
                    .map(|&n| Json::str(ont.value_str(n)))
                    .collect(),
            ),
        ),
        ("text", Json::str(g.describe(ont))),
    ])
}

// ---------------------------------------------------------------------
// Ontologies
// ---------------------------------------------------------------------

fn list_ontologies(state: &AppState) -> Response {
    let items: Vec<Json> = state
        .registry
        .list()
        .into_iter()
        .map(|(name, loaded)| {
            Json::obj([("name", Json::str(name)), ("loaded", Json::Bool(loaded))])
        })
        .collect();
    Response::json(200, Json::obj([("ontologies", Json::Arr(items))]).to_text())
}

fn create_ontology(state: &AppState, req: &Request) -> Response {
    let body = match body_json(state, req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let name = match str_field(&body, "name") {
        Ok(n) => n,
        Err(resp) => return resp,
    };
    // A world arrives either as triple text or as a base64-encoded
    // binary snapshot (`questpro store build`); snapshot wins if both
    // fields are present.
    let result = if let Some(b64) = body.get("snapshot_b64").and_then(Json::as_str) {
        let bytes = match questpro_wire::base64::decode(b64) {
            Ok(b) => b,
            Err(e) => return Response::error(422, &format!("snapshot_b64: {e}")),
        };
        state.registry.insert_snapshot(name, &bytes)
    } else {
        match str_field(&body, "triples") {
            Ok(t) => state.registry.insert(name, t),
            Err(resp) => return resp,
        }
    };
    match result {
        Ok(ont) => Response::json(
            201,
            Json::obj([
                ("name", Json::str(name)),
                ("nodes", Json::from(ont.node_count())),
                ("edges", Json::from(ont.edge_count())),
            ])
            .to_text(),
        ),
        Err(e) => Response::error(409, &e),
    }
}

fn describe_ontology(state: &AppState, name: &str) -> Response {
    match state.registry.get_versioned(name) {
        Some((version, ont)) => Response::json(
            200,
            Json::obj([
                ("name", Json::str(name)),
                ("version", Json::from(version)),
                ("nodes", Json::from(ont.node_count())),
                ("edges", Json::from(ont.edge_count())),
            ])
            .to_text(),
        ),
        None => Response::error(404, &format!("no ontology named {name:?}")),
    }
}

/// `POST /ontologies/:name/update` — applies a batched insert/delete
/// to the named world's head and installs the result as a new version.
/// Sessions pinned to older versions are untouched until their version
/// falls off the bounded history. Every rejection is a 4xx with a
/// named reason and bumps the rejection counter; the head is never
/// left half-updated (the registry validates the whole batch before
/// installing anything).
fn update_ontology(state: &AppState, name: &str, req: &Request) -> Response {
    let reject = |resp: Response| {
        state.ontology_updates.record_rejection();
        resp
    };
    let body = match body_json(state, req) {
        Ok(b) => b,
        Err(resp) => return reject(resp),
    };
    let delta = match questpro_wire::update::parse_update(&body) {
        Ok(d) => d,
        Err(e) => return reject(Response::error(422, &format!("bad update: {e}"))),
    };
    match state.registry.update(name, &delta) {
        Ok((version, ont, summary)) => {
            state.ontology_updates.record_update(summary.pages_copied);
            Response::json(
                200,
                Json::obj([
                    ("name", Json::str(name)),
                    ("version", Json::from(version)),
                    ("inserted", Json::from(summary.inserted)),
                    ("deleted", Json::from(summary.deleted)),
                    ("nodes", Json::from(ont.node_count())),
                    ("edges", Json::from(ont.edge_count())),
                    ("edge_ids_stable", Json::Bool(summary.edge_ids_stable)),
                ])
                .to_text(),
            )
        }
        Err((status, msg)) => reject(Response::error(status, &msg)),
    }
}

// ---------------------------------------------------------------------
// One-shot inference and evaluation
// ---------------------------------------------------------------------

fn eval_query(state: &AppState, req: &Request) -> Response {
    let body = match body_json(state, req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let parsed = (|| {
        let ont = ontology_of(state, str_field(&body, "ontology")?)?;
        let query = query_of(str_field(&body, "query")?)?;
        Ok::<_, Response>((ont, query))
    })();
    let (ont, query) = match parsed {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let threads = body
        .get("threads")
        .and_then(Json::as_usize)
        .unwrap_or(state.default_threads)
        .max(1);
    let results = evaluate_union_with(&ont, &query, threads);
    let mut pairs = vec![(
        "results",
        Json::Arr(
            results
                .iter()
                .map(|&r| Json::str(ont.value_str(r)))
                .collect(),
        ),
    )];
    if let Some(value) = body.get("provenance").and_then(Json::as_str) {
        let Some(node) = ont.node_by_value(value) else {
            return Response::error(422, &format!("no node with value {value:?}"));
        };
        if !results.contains(&node) {
            return Response::error(422, &format!("{value} is not a result of the query"));
        }
        let limit = body
            .get("limit")
            .and_then(Json::as_usize)
            .unwrap_or(8)
            .max(1);
        let graphs = provenance_of_union_with(&ont, &query, node, Some(limit), threads);
        pairs.push((
            "provenance",
            Json::Arr(graphs.iter().map(|g| subgraph_json(&ont, g)).collect()),
        ));
    }
    Response::json(200, Json::obj(pairs).to_text())
}

fn one_shot_infer(state: &AppState, req: &Request) -> Response {
    let body = match body_json(state, req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let parsed = (|| {
        let ont = ontology_of(state, str_field(&body, "ontology")?)?;
        let examples = examples_of(&ont, str_field(&body, "examples")?)?;
        Ok::<_, Response>((ont, examples))
    })();
    let (ont, examples) = match parsed {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let cfg = topk_config(state, &body);
    let with_diseqs = body.get("diseqs").and_then(Json::as_bool).unwrap_or(false);
    // One onto-match cache: `Q^all` reuses the matches inference found.
    let mut onto = questpro_engine::ConsistencyCache::new();
    let (candidates, stats) = questpro_core::infer_top_k_cached(&ont, &examples, &cfg, &mut onto);
    if candidates.is_empty() {
        return Response::error(422, "no consistent query found for the example-set");
    }
    let rendered: Vec<Json> = candidates
        .iter()
        .map(|q| {
            let q = if with_diseqs {
                questpro_core::with_all_diseqs_cached(&ont, q, &examples, &mut onto)
            } else {
                q.clone()
            };
            Json::obj([
                ("query", Json::str(sparql::format_union(&q))),
                ("cost", Json::Num(q.cost(cfg.weights))),
                ("branches", Json::from(q.len())),
                ("vars", Json::from(q.total_vars())),
                ("diseqs", Json::from(q.diseq_count())),
            ])
        })
        .collect();
    Response::json(
        200,
        Json::obj([
            ("candidates", Json::Arr(rendered)),
            (
                "stats",
                Json::obj([
                    ("algorithm1_calls", Json::from(stats.algorithm1_calls)),
                    ("rounds", Json::from(stats.rounds)),
                    ("merges_applied", Json::from(stats.merges_applied)),
                    ("states_examined", Json::from(stats.states_examined)),
                    ("merge_cache_hits", Json::from(stats.merge_cache_hits)),
                    ("consistency_checks", Json::from(stats.consistency_checks)),
                    (
                        "consistency_cache_hits",
                        Json::from(stats.consistency_cache_hits),
                    ),
                    (
                        "total_nanos",
                        Json::from(u64::try_from(stats.total_nanos).unwrap_or(u64::MAX)),
                    ),
                ]),
            ),
        ])
        .to_text(),
    )
}

// ---------------------------------------------------------------------
// Interactive sessions
// ---------------------------------------------------------------------

fn create_session(state: &AppState, req: &Request) -> Response {
    let body = match body_json(state, req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let ont_name = match str_field(&body, "ontology") {
        Ok(n) => n.to_string(),
        Err(resp) => return resp,
    };
    let parsed = (|| {
        // Pin the session to the head version it starts on: its
        // candidates and provenance will reference this exact graph.
        let (version, ont) = state
            .registry
            .get_versioned(&ont_name)
            .ok_or_else(|| Response::error(404, &format!("no ontology named {ont_name:?}")))?;
        let examples = examples_of(&ont, str_field(&body, "examples")?)?;
        Ok::<_, Response>((version, ont, examples))
    })();
    let (version, ont, examples) = match parsed {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let feedback_defaults = FeedbackConfig::default();
    let cfg = SessionConfig {
        topk: topk_config(state, &body),
        feedback: FeedbackConfig {
            prov_limit: body
                .get("prov_limit")
                .and_then(Json::as_usize)
                .unwrap_or(feedback_defaults.prov_limit)
                .max(1),
            max_questions: body
                .get("max_questions")
                .and_then(Json::as_usize)
                .unwrap_or(feedback_defaults.max_questions),
        },
        // Defaults mirror the CLI `session` flags: refinement and
        // robust diagnosis are opt-in.
        refine: body.get("refine").and_then(Json::as_bool).unwrap_or(false),
        robust: body.get("robust").and_then(Json::as_bool).unwrap_or(false),
    };
    let seed = body.get("seed").and_then(Json::as_u64).unwrap_or(0);
    let session = match InteractiveSession::start(&ont, &examples, &cfg, seed) {
        Ok(s) => s,
        Err(e @ (SessionError::EmptyExamples | SessionError::NoCandidates)) => {
            return Response::error(422, &e.to_string())
        }
        Err(e) => return Response::error(500, &e.to_string()),
    };
    match state.sessions.create(session, ont_name, version, seed) {
        Ok(id) => match state.sessions.get(id) {
            Some(entry) => {
                let mut entry = lock(&entry);
                // Cold-start convergence: a session whose candidate set
                // collapses to one during start never sees feedback.
                if entry.session.is_done() {
                    entry.finish(questpro_telemetry::Outcome::Converged);
                }
                let mut resp = entry_json(&ont, id, &entry);
                resp.status = 201;
                resp
            }
            None => Response::error(500, "session vanished during creation"),
        },
        Err(e) => Response::error(429, &e),
    }
}

/// `POST /sessions/restore` — resumes a session from a snapshot taken
/// by `GET /sessions/:id/snapshot`. The snapshot carries its ontology
/// pin (`ontology` + `ontology_version`); restoring against an evicted
/// version is a named `410`, and a snapshot whose internal state fails
/// validation is a `422` — never a silent answer from the wrong graph.
fn restore_session(state: &AppState, req: &Request) -> Response {
    let body = match body_json(state, req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let name = match str_field(&body, "ontology") {
        Ok(n) => n.to_string(),
        Err(resp) => return resp,
    };
    let Some(version) = body.get("ontology_version").and_then(Json::as_u64) else {
        return Response::error(422, "missing integer field \"ontology_version\"");
    };
    let ont = match pinned_ontology(state, &name, version, "snapshot") {
        Ok(o) => o,
        Err(resp) => return resp,
    };
    let session = match InteractiveSession::restore(&ont, &body) {
        Ok(s) => s,
        Err(e @ SessionError::BadSnapshot(_)) => return Response::error(422, &e.to_string()),
        Err(e) => return Response::error(500, &e.to_string()),
    };
    let seed = body
        .get("seed")
        .and_then(Json::as_str)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    match state.sessions.create(session, name, version, seed) {
        Ok(id) => match state.sessions.get(id) {
            Some(entry) => {
                let mut entry = lock(&entry);
                if entry.session.is_done() {
                    entry.finish(questpro_telemetry::Outcome::Converged);
                }
                let mut resp = entry_json(&ont, id, &entry);
                resp.status = 201;
                resp
            }
            None => Response::error(500, "session vanished during creation"),
        },
        Err(e) => Response::error(429, &e),
    }
}

fn list_sessions(state: &AppState) -> Response {
    let items: Vec<Json> = state
        .sessions
        .list()
        .into_iter()
        .map(|(id, entry)| {
            let entry = lock(&entry);
            Json::obj([
                ("id", Json::from(id)),
                ("ontology", Json::str(entry.ontology.clone())),
                ("phase", Json::str(phase_str(entry.session.phase()))),
                (
                    "questions_asked",
                    Json::from(entry.session.transcript().len() + entry.session.refine_questions()),
                ),
            ])
        })
        .collect();
    Response::json(200, Json::obj([("sessions", Json::Arr(items))]).to_text())
}

/// `GET /debug/traces?limit=N` — the most recent request traces, newest
/// first, with per-span self/total times. A malformed or out-of-range
/// `limit` is a 400, never a panic.
fn debug_traces(req: &Request) -> Response {
    let mut limit = 16usize;
    for pair in req.query.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == "limit" {
            match strict_decimal(v) {
                Some(n) if (1..=1024).contains(&n) => limit = n as usize,
                _ => return Response::error(400, "limit must be an integer in 1..=1024"),
            }
        }
    }
    let traces = questpro_trace::registry::recent(limit);
    Response::json(
        200,
        Json::obj([
            ("enabled", Json::Bool(questpro_trace::enabled())),
            (
                "dropped",
                Json::num(questpro_trace::registry::dropped_total() as f64),
            ),
            ("traces", Json::Arr(traces.iter().map(trace_json).collect())),
        ])
        .to_text(),
    )
}

/// `GET /debug/logs?limit=N&level=L` — the most recent structured log
/// events, newest first, as JSON. `limit` is validated exactly like
/// `/debug/traces` (1..=1024 → 400 otherwise); `level` filters to
/// events at or above the named level and unknown names are a 400.
fn debug_logs(req: &Request) -> Response {
    let mut limit = 64usize;
    let mut min_level = questpro_log::Level::Trace;
    for pair in req.query.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "limit" => match strict_decimal(v) {
                Some(n) if (1..=1024).contains(&n) => limit = n as usize,
                _ => return Response::error(400, "limit must be an integer in 1..=1024"),
            },
            "level" => match questpro_log::Level::parse(v) {
                Some(l) => min_level = l,
                None => {
                    return Response::error(
                        400,
                        "level must be one of trace, debug, info, warn, error",
                    )
                }
            },
            _ => {}
        }
    }
    // Surface whatever this worker thread still holds buffered, so a
    // scrape immediately after a request sees that request's events.
    questpro_log::flush();
    let events = questpro_log::recent(limit, min_level);
    Response::json(
        200,
        Json::obj([
            ("enabled", Json::Bool(questpro_log::level().is_some())),
            (
                "level",
                questpro_log::level().map_or(Json::Null, |l| Json::str(l.as_str())),
            ),
            ("emitted", Json::num(questpro_log::emitted_total() as f64)),
            ("dropped", Json::num(questpro_log::dropped_total() as f64)),
            (
                "events",
                Json::Arr(events.iter().map(questpro_log::Event::to_json).collect()),
            ),
        ])
        .to_text(),
    )
}

/// `GET /debug/sessions?limit=N&outcome=O` — the most recent finished
/// sessions' telemetry records, newest first, plus the aggregator's
/// exact drop accounting. `limit` is validated like `/debug/traces`
/// (1..=1024 → 400 otherwise); `outcome` filters to one terminal
/// outcome and unknown names are a 400. Unknown query keys are
/// ignored, matching the other debug endpoints.
fn debug_sessions(req: &Request) -> Response {
    let mut limit = 32usize;
    let mut outcome = None;
    for pair in req.query.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "limit" => match strict_decimal(v) {
                Some(n) if (1..=1024).contains(&n) => limit = n as usize,
                _ => return Response::error(400, "limit must be an integer in 1..=1024"),
            },
            "outcome" => match questpro_telemetry::Outcome::parse(v) {
                Some(o) => outcome = Some(o),
                None => {
                    return Response::error(
                        400,
                        "outcome must be one of converged, abandoned, evicted",
                    )
                }
            },
            _ => {}
        }
    }
    let (records_total, records_dropped, keys_live) = questpro_telemetry::counters();
    let sessions = questpro_telemetry::recent(limit, outcome);
    Response::json(
        200,
        Json::obj([
            ("enabled", Json::Bool(questpro_telemetry::enabled())),
            ("records_total", Json::num(records_total as f64)),
            ("records_dropped", Json::num(records_dropped as f64)),
            ("keys_live", Json::from(keys_live)),
            (
                "sessions",
                Json::Arr(sessions.iter().map(session_record_json).collect()),
            ),
        ])
        .to_text(),
    )
}

/// Serializes one telemetry record for `GET /debug/sessions`.
fn session_record_json(r: &questpro_telemetry::SessionRecord) -> Json {
    Json::obj([
        ("trace_id", Json::from(r.trace_id)),
        ("ontology", Json::str(r.ontology.clone())),
        ("version", Json::from(r.version)),
        ("outcome", Json::str(r.outcome.as_str())),
        ("rounds", Json::from(r.rounds)),
        ("questions", Json::from(r.questions)),
        ("yes", Json::from(r.yes)),
        ("no", Json::from(r.no)),
        (
            "pool_sizes",
            Json::Arr(r.pool_sizes.iter().map(|&p| Json::from(p)).collect()),
        ),
        (
            "round_wall_ns",
            Json::Arr(r.round_wall_ns.iter().map(|&n| Json::from(n)).collect()),
        ),
        ("wall_ns", Json::from(r.wall_ns)),
        ("consistency_checks", Json::from(r.consistency_checks)),
        ("consistency_hits", Json::from(r.consistency_hits)),
        ("merge_lookups", Json::from(r.merge_lookups)),
        ("merge_hits", Json::from(r.merge_hits)),
    ])
}

/// Serializes one finished trace: spans come flat in pre-order with
/// their depth, so clients can rebuild the tree without recursion.
fn trace_json(t: &questpro_trace::TraceRecord) -> Json {
    let spans: Vec<Json> = t
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("depth", Json::num(s.depth as f64)),
                ("start_ns", Json::num(s.start_ns as f64)),
                ("total_ns", Json::num(s.total_ns as f64)),
                ("self_ns", Json::num(t.self_ns(i) as f64)),
                (
                    "counters",
                    Json::Obj(
                        s.counters
                            .iter()
                            .map(|&(k, v)| (k.to_string(), Json::num(v as f64)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("id", Json::num(t.id as f64)),
        ("label", Json::str(&t.label)),
        ("total_ns", Json::num(t.total_ns as f64)),
        ("spans", Json::Arr(spans)),
    ])
}

fn delete_session(state: &AppState, id: &str) -> Response {
    match strict_decimal(id).and_then(|id| state.sessions.remove(id)) {
        Some(entry) => {
            // An already-converged session latched its outcome when it
            // finished; deleting an unfinished one abandons it.
            lock(&entry).finish(questpro_telemetry::Outcome::Abandoned);
            Response {
                status: 204,
                content_type: "application/json",
                body: Vec::new(),
                close: false,
                trace_id: None,
            }
        }
        None => Response::error(404, "no such session"),
    }
}

/// Resolves a `(name, version)` ontology pin, materializing a built-in
/// world's head first so a snapshot restored against a fresh server
/// still finds version 1. `what` names the pin holder in error
/// messages (`"session"` / `"snapshot"`). An evicted pin is a `410`
/// naming the stale version — the one outcome live updates must never
/// produce is a silent answer from the wrong graph.
fn pinned_ontology(
    state: &AppState,
    name: &str,
    version: u64,
    what: &str,
) -> Result<Arc<Ontology>, Response> {
    if state.registry.get_versioned(name).is_none() {
        return Err(Response::error(404, &format!("no ontology named {name:?}")));
    }
    match state.registry.get_version(name, version) {
        VersionLookup::Found(o) => Ok(o),
        VersionLookup::Evicted { head } => Err(Response::error(
            410,
            &format!(
                "{what} is pinned to {name:?} version {version}, which live updates have \
                 evicted (head is now {head}); its cached state cannot be answered safely"
            ),
        )),
        VersionLookup::Unknown => Err(Response::error(
            404,
            &format!(
                "{what} is pinned to {name:?} version {version}, which this server has never held"
            ),
        )),
    }
}

/// Looks a session up and runs `f` under its lock, with the session's
/// *pinned* ontology version resolved alongside (never the head — the
/// session's cached state references the pinned version's ids).
fn with_session(
    state: &AppState,
    id: &str,
    f: impl FnOnce(&Ontology, &mut SessionEntry) -> Response,
) -> Response {
    let Some(id_num) = strict_decimal(id) else {
        return Response::error(404, "session ids are integers");
    };
    let Some(entry) = state.sessions.get(id_num) else {
        return Response::error(404, "no such session");
    };
    let mut entry = lock(&entry);
    let (name, version) = (entry.ontology.clone(), entry.version);
    let ont = match pinned_ontology(state, &name, version, "session") {
        Ok(o) => o,
        Err(resp) => {
            if resp.status == 410 {
                // The pin fell off the bounded history: the session is
                // terminally unanswerable. First 410 latches it.
                entry.finish(questpro_telemetry::Outcome::Evicted);
            }
            return resp;
        }
    };
    f(&ont, &mut entry)
}

fn session_feedback(state: &AppState, id: &str, req: &Request) -> Response {
    let body = match body_json(state, req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let Some(answer) = body.get("answer").and_then(Json::as_bool) else {
        return Response::error(422, "missing boolean field \"answer\"");
    };
    let Some(id_num) = strict_decimal(id) else {
        return Response::error(404, "session ids are integers");
    };
    with_session(state, id, |ont, entry| {
        match entry.session.answer(ont, answer) {
            Ok(()) => {
                if entry.session.is_done() {
                    entry.finish(questpro_telemetry::Outcome::Converged);
                }
                let mut resp = entry_json(ont, id_num, entry);
                resp.status = 200;
                resp
            }
            Err(SessionError::NothingPending) => {
                Response::error(409, "no question is pending (session is done)")
            }
            Err(e) => Response::error(500, &e.to_string()),
        }
    })
}

fn session_state_json(ont: &Ontology, entry: &mut SessionEntry) -> Response {
    // The id is not stored inside the entry; reuse entry_json via a
    // wrapper that omits it would complicate callers — the id the
    // client used is echoed from the path, so 0 is never exposed: all
    // `with_session` callers route through here only after resolving
    // the entry by that id. Render without the id field instead.
    let mut pairs = entry_pairs(ont, entry);
    pairs.retain(|(k, _)| *k != "id");
    Response::json(
        200,
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_text(),
    )
}

fn entry_json(ont: &Ontology, id: u64, entry: &SessionEntry) -> Response {
    let mut pairs = entry_pairs(ont, entry);
    pairs[0] = ("id", Json::from(id));
    Response::json(
        200,
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_text(),
    )
}

fn entry_pairs(ont: &Ontology, entry: &SessionEntry) -> Vec<(&'static str, Json)> {
    let s = &entry.session;
    let pending = match s.pending() {
        None => Json::Null,
        Some(PendingQuestion::Select {
            result, provenance, ..
        }) => Json::obj([
            ("kind", Json::str("select")),
            ("result", Json::str(ont.value_str(*result))),
            ("provenance", subgraph_json(ont, provenance)),
        ]),
        Some(PendingQuestion::Refine {
            result, provenance, ..
        }) => Json::obj([
            ("kind", Json::str("refine")),
            ("result", Json::str(ont.value_str(*result))),
            ("provenance", subgraph_json(ont, provenance)),
        ]),
    };
    vec![
        ("id", Json::Null),
        ("ontology", Json::str(entry.ontology.clone())),
        ("ontology_version", Json::from(entry.version)),
        ("seed", Json::from(entry.seed)),
        ("phase", Json::str(phase_str(s.phase()))),
        (
            "live",
            Json::Arr(s.live().iter().map(|&i| Json::from(i)).collect()),
        ),
        (
            "questions_asked",
            Json::from(s.transcript().len() + s.refine_questions()),
        ),
        ("pending", pending),
        (
            "final",
            s.final_query()
                .map_or(Json::Null, |q| Json::str(sparql::format_union(q))),
        ),
        (
            "suspect_examples",
            Json::Arr(
                s.suspect_examples()
                    .iter()
                    .map(|&i| Json::from(i))
                    .collect(),
            ),
        ),
    ]
}

fn phase_str(p: Phase) -> &'static str {
    match p {
        Phase::Selecting => "selecting",
        Phase::Refining => "refining",
        Phase::Done => "done",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> AppState {
        AppState::new(1, 1 << 20, Duration::from_secs(60), 4)
    }

    fn get(path: &str, query: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn strict_decimal_rejects_lenient_integer_forms() {
        assert_eq!(strict_decimal("7"), Some(7));
        assert_eq!(strict_decimal("0"), Some(0));
        for bad in ["+7", "-7", " 7", "7 ", "", "٧", "7a", "0x7"] {
            assert_eq!(strict_decimal(bad), None, "{bad:?}");
        }
        // Overflow is a rejection, not a wrap.
        assert_eq!(strict_decimal("18446744073709551616"), None);
    }

    #[test]
    fn plus_prefixed_trace_limits_are_400() {
        let st = state();
        for q in ["limit=+5", "limit=%", "limit= 5", "limit=0", "limit=1025"] {
            let resp = route(&st, &get("/debug/traces", q));
            assert_eq!(resp.status, 400, "{q}");
        }
        let resp = route(&st, &get("/debug/traces", "limit=5"));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn malformed_log_limits_and_levels_are_400() {
        let st = state();
        for q in [
            "limit=+5",
            "limit=0",
            "limit=1025",
            "limit=",
            "level=loud",
            "level=",
            "level=+info",
        ] {
            let resp = route(&st, &get("/debug/logs", q));
            assert_eq!(resp.status, 400, "{q}");
        }
        for q in ["", "limit=5", "level=warn", "limit=1&level=ERROR"] {
            let resp = route(&st, &get("/debug/logs", q));
            assert_eq!(resp.status, 200, "{q}");
        }
    }

    #[test]
    fn malformed_session_telemetry_queries_are_400() {
        let st = state();
        for q in [
            "limit=+5",
            "limit=0",
            "limit=1025",
            "limit=",
            "outcome=done",
            "outcome=",
            "outcome=Converged",
        ] {
            let resp = route(&st, &get("/debug/sessions", q));
            assert_eq!(resp.status, 400, "{q}");
        }
        for q in [
            "",
            "limit=5",
            "outcome=converged",
            "outcome=abandoned",
            "outcome=evicted",
            "limit=1&outcome=evicted",
            "unknown=ignored",
        ] {
            let resp = route(&st, &get("/debug/sessions", q));
            assert_eq!(resp.status, 200, "{q}");
        }
    }

    #[test]
    fn route_labels_cover_the_dispatch_table() {
        // Every label produced is in ROUTES (the histogram ignores
        // anything else), and every concrete path maps as documented.
        for (method, path, want) in [
            ("GET", "/healthz", "GET /healthz"),
            ("GET", "/metrics", "GET /metrics"),
            ("GET", "/debug/traces", "GET /debug/traces"),
            ("GET", "/debug/logs", "GET /debug/logs"),
            ("GET", "/debug/sessions", "GET /debug/sessions"),
            ("GET", "/ontologies", "GET /ontologies"),
            ("POST", "/ontologies", "POST /ontologies"),
            ("GET", "/ontologies/movies", "GET /ontologies/:name"),
            (
                "POST",
                "/ontologies/movies/update",
                "POST /ontologies/:name/update",
            ),
            ("POST", "/eval", "POST /eval"),
            ("POST", "/infer", "POST /infer"),
            ("POST", "/sessions", "POST /sessions"),
            ("GET", "/sessions", "GET /sessions"),
            ("GET", "/sessions/7", "GET /sessions/:id"),
            ("DELETE", "/sessions/7", "DELETE /sessions/:id"),
            ("POST", "/sessions/7/infer", "POST /sessions/:id/infer"),
            (
                "POST",
                "/sessions/7/feedback",
                "POST /sessions/:id/feedback",
            ),
            (
                "GET",
                "/sessions/7/candidates",
                "GET /sessions/:id/candidates",
            ),
            ("GET", "/sessions/7/snapshot", "GET /sessions/:id/snapshot"),
            ("POST", "/sessions/restore", "POST /sessions/restore"),
            ("POST", "/shutdown", "POST /shutdown"),
            ("GET", "/no-such", "other"),
            ("PATCH", "/eval", "other"),
            ("GET", "/sessions/7/extra/deep", "other"),
        ] {
            let got = route_label(method, path);
            assert_eq!(got, want, "{method} {path}");
            assert!(ROUTES.contains(&got), "{got} must be a fixed label");
        }
    }

    #[test]
    fn plus_prefixed_session_ids_are_404_not_aliases() {
        let st = state();
        for id in ["+1", " 1", "1 ", "-1", "0x1"] {
            let resp = route(&st, &get(&format!("/sessions/{id}"), ""));
            assert_eq!(resp.status, 404, "{id}");
            let del = Request {
                method: "DELETE".to_string(),
                ..get(&format!("/sessions/{id}"), "")
            };
            assert_eq!(route(&st, &del).status, 404, "{id}");
        }
    }
}
