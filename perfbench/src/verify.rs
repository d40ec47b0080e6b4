//! Library answers: what the server must have said, computed in-process
//! through the crates' public functions and rendered in the server's
//! wire shape, so responses compare byte-for-byte.

use questpro_core::{GreedyConfig, TopKConfig};
use questpro_engine::{evaluate_union_with, provenance_of_union_with};
use questpro_feedback::SessionConfig;
use questpro_graph::{exformat, DeltaSummary, Ontology, Subgraph};
use questpro_query::sparql;
use questpro_wire::Json;

/// The inference configuration the server derives from a request body
/// that sets no knobs (its shipped defaults, one inference thread).
pub fn server_topk() -> TopKConfig {
    TopKConfig {
        greedy: GreedyConfig {
            allow_optional: false,
            ..Default::default()
        },
        threads: 1,
        ..Default::default()
    }
}

/// The session configuration `POST /sessions` uses without knobs.
pub fn server_session_config() -> SessionConfig {
    SessionConfig {
        topk: server_topk(),
        ..Default::default()
    }
}

/// `{edges, nodes, text}`, as the server renders a provenance graph.
pub fn subgraph_json(ont: &Ontology, g: &Subgraph) -> Json {
    let s = |t: &str| Json::str(t);
    Json::obj([
        (
            "edges",
            Json::Arr(
                g.edges()
                    .iter()
                    .map(|&e| {
                        let d = ont.edge(e);
                        Json::Arr(vec![
                            s(ont.value_str(d.src)),
                            s(ont.pred_str(d.pred)),
                            s(ont.value_str(d.dst)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "nodes",
            Json::Arr(g.nodes().iter().map(|&n| s(ont.value_str(n))).collect()),
        ),
        ("text", Json::str(g.describe(ont))),
    ])
}

/// The `POST /eval` body for `query` (and the provenance of one result).
pub fn eval_body(ont: &Ontology, query: &str, provenance: Option<&str>) -> Vec<u8> {
    let Ok(q) = sparql::parse_union(query) else {
        return b"unparseable query".to_vec();
    };
    let results = evaluate_union_with(ont, &q, 1);
    let mut pairs = vec![(
        "results",
        Json::Arr(
            results
                .iter()
                .map(|&r| Json::str(ont.value_str(r)))
                .collect(),
        ),
    )];
    if let Some(value) = provenance {
        let Some(node) = ont.node_by_value(value).filter(|n| results.contains(n)) else {
            return b"provenance target is not a result".to_vec();
        };
        let graphs = provenance_of_union_with(ont, &q, node, Some(8), 1);
        pairs.push((
            "provenance",
            Json::Arr(graphs.iter().map(|g| subgraph_json(ont, g)).collect()),
        ));
    }
    Json::obj(pairs).to_text().into_bytes()
}

/// The deterministic part of a `POST /infer` body: the candidates and
/// every statistic except the wall clock.
pub fn infer_canonical(ont: &Ontology, examples: &str) -> String {
    let Ok(ex) = exformat::parse_examples(ont, examples) else {
        return "unparseable examples".into();
    };
    let cfg = server_topk();
    let (candidates, stats) = questpro_core::infer_top_k(ont, &ex, &cfg);
    let rendered = Json::Arr(
        candidates
            .iter()
            .map(|q| {
                Json::obj([
                    ("query", Json::str(sparql::format_union(q))),
                    ("cost", Json::Num(q.cost(cfg.weights))),
                    ("branches", Json::from(q.len())),
                    ("vars", Json::from(q.total_vars())),
                    ("diseqs", Json::from(q.diseq_count())),
                ])
            })
            .collect(),
    );
    let stats = Json::obj([
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
    ]);
    Json::obj([("candidates", rendered), ("stats", stats)]).to_text()
}

/// The same canonical form of a server `POST /infer` response.
pub fn infer_canonical_of(body: &[u8]) -> String {
    let Some(j) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| questpro_wire::parse(t).ok())
    else {
        return "unparseable response".into();
    };
    let stat = |k: &'static str| {
        (
            k,
            j.get("stats")
                .and_then(|s| s.get(k))
                .cloned()
                .unwrap_or(Json::Null),
        )
    };
    let stats = Json::obj([
        stat("algorithm1_calls"),
        stat("rounds"),
        stat("merges_applied"),
        stat("states_examined"),
        stat("merge_cache_hits"),
        stat("consistency_checks"),
        stat("consistency_cache_hits"),
    ]);
    Json::obj([
        (
            "candidates",
            j.get("candidates").cloned().unwrap_or(Json::Null),
        ),
        ("stats", stats),
    ])
    .to_text()
}

/// The acknowledgement `POST /ontologies/:name/update` sends for an
/// update that produced `next` as version `version`.
pub fn update_ack(name: &str, version: u64, next: &Ontology, s: &DeltaSummary) -> Vec<u8> {
    Json::obj([
        ("name", Json::str(name)),
        ("version", Json::from(version)),
        ("inserted", Json::from(s.inserted)),
        ("deleted", Json::from(s.deleted)),
        ("nodes", Json::from(next.node_count())),
        ("edges", Json::from(next.edge_count())),
        ("edge_ids_stable", Json::Bool(s.edge_ids_stable)),
    ])
    .to_text()
    .into_bytes()
}

/// Runs `f` over `items` on two threads, preserving order.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let mid = items.len().div_ceil(2);
    let (a, b) = items.split_at(mid);
    std::thread::scope(|s| {
        let h = s.spawn(|| b.iter().map(&f).collect::<Vec<U>>());
        let mut out: Vec<U> = a.iter().map(&f).collect();
        out.extend(h.join().expect("verification thread panicked"));
        out
    })
}
