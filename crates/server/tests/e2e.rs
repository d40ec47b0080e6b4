//! End-to-end tests over real sockets.
//!
//! Everything here talks to a live `questpro-server` through
//! `TcpStream` — no handler is called directly — so the full stack
//! (accept loop, pool, HTTP parser, router, session manager) is under
//! test. The two core claims of the server: its answers are
//! byte-identical to the library one-shot path the CLI uses, and no
//! malformed input can take the process down.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use questpro_feedback::{InteractiveSession, SessionConfig};
use questpro_query::sparql;
use questpro_server::{start, ServerConfig, ServerHandle};
use questpro_wire::Json;

fn boot() -> ServerHandle {
    start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue: 32,
        max_body: 64 * 1024,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port")
}

/// One request on a fresh connection; returns `(status, body)`.
fn call(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to the server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("writing the request");
    read_response(&mut BufReader::new(stream))
}

fn read_response(reader: &mut impl BufRead) -> (u16, String) {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("reading the status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .expect("a status code")
        .parse()
        .expect("a numeric status");
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("reading a header");
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some(v) = trimmed
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().expect("a numeric content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("reading the body");
    (status, String::from_utf8(body).expect("a UTF-8 body"))
}

fn erdos_examples_text() -> String {
    let ont = questpro_data::erdos_ontology();
    let examples = questpro_data::erdos_example_set(&ont);
    questpro_graph::exformat::serialize_examples(&ont, &examples)
}

fn json(body: &str) -> Json {
    questpro_wire::parse(body).expect("a JSON response body")
}

#[test]
fn health_metrics_and_unknown_routes() {
    let server = boot();
    let addr = server.addr();
    assert_eq!(call(addr, "GET", "/healthz", None), (200, "ok\n".into()));

    let (status, scrape) = call(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(scrape.contains("questpro_http_requests_total"));
    assert!(scrape.contains("questpro_sessions_live 0"));

    assert_eq!(call(addr, "GET", "/no/such/route", None).0, 404);
    assert_eq!(call(addr, "DELETE", "/healthz", None).0, 405);

    // The scrape counters are cumulative across requests.
    let first = json_metric(&scrape, "questpro_http_requests_total");
    let (_, scrape2) = call(addr, "GET", "/metrics", None);
    let second = json_metric(&scrape2, "questpro_http_requests_total");
    assert!(second > first, "request counter must be monotonic");
    server.join();
}

fn json_metric(scrape: &str, name: &str) -> u64 {
    scrape
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn interactive_session_over_http_matches_the_library_path() {
    let server = boot();
    let addr = server.addr();
    let examples = erdos_examples_text();

    // Reference: the in-process session the CLI `session` command uses,
    // answering `true` to every question.
    let ont = questpro_data::erdos_ontology();
    let example_set = questpro_data::erdos_example_set(&ont);
    let cfg = SessionConfig {
        refine: true,
        ..SessionConfig::default()
    };
    let mut reference =
        InteractiveSession::start(&ont, &example_set, &cfg, 7).expect("reference session");
    while !reference.is_done() {
        reference
            .answer(&ont, true)
            .expect("answering the reference");
    }
    let want_final = sparql::format_union(reference.final_query().expect("a final query"));

    // The same dialogue over HTTP: create, then feed back `true` until
    // the phase reaches `done`.
    let body = Json::obj([
        ("ontology", Json::str("erdos")),
        ("examples", Json::str(examples)),
        ("seed", Json::from(7u64)),
        ("refine", Json::Bool(true)),
    ])
    .to_text();
    let (status, created) = call(addr, "POST", "/sessions", Some(&body));
    assert_eq!(status, 201, "create failed: {created}");
    let created = json(&created);
    let id = created.get("id").and_then(Json::as_u64).expect("an id");

    let mut rounds = 0;
    loop {
        let (status, state) = call(addr, "POST", &format!("/sessions/{id}/infer"), Some("{}"));
        assert_eq!(status, 200, "infer failed: {state}");
        let state = json(&state);
        let phase = state.get("phase").and_then(Json::as_str).expect("a phase");
        if phase == "done" {
            let got_final = state
                .get("final")
                .and_then(Json::as_str)
                .expect("a final query");
            assert_eq!(got_final, want_final, "HTTP and library answers diverge");
            break;
        }
        let pending = state.get("pending").expect("a pending question");
        assert!(
            pending.get("provenance").is_some(),
            "questions carry provenance: {state:?}"
        );
        let (status, after) = call(
            addr,
            "POST",
            &format!("/sessions/{id}/feedback"),
            Some("{\"answer\": true}"),
        );
        assert_eq!(status, 200, "feedback failed: {after}");
        rounds += 1;
        assert!(rounds < 200, "session must converge");
    }

    // The snapshot endpoint round-trips through the library restore.
    let (status, snap) = call(addr, "GET", &format!("/sessions/{id}/snapshot"), None);
    assert_eq!(status, 200);
    let restored = InteractiveSession::restore(&ont, &json(&snap)).expect("a restorable snapshot");
    assert_eq!(
        sparql::format_union(restored.final_query().expect("final in snapshot")),
        want_final
    );

    // Feedback after completion is a clean conflict, not a panic.
    let (status, _) = call(
        addr,
        "POST",
        &format!("/sessions/{id}/feedback"),
        Some("{\"answer\": true}"),
    );
    assert_eq!(status, 409);

    assert_eq!(
        call(addr, "DELETE", &format!("/sessions/{id}"), None).0,
        204
    );
    assert_eq!(call(addr, "GET", &format!("/sessions/{id}"), None).0, 404);
    server.join();
}

#[test]
fn concurrent_clients_get_identical_one_shot_answers() {
    let server = boot();
    let addr = server.addr();
    let examples = erdos_examples_text();

    let ont = questpro_data::erdos_ontology();
    let example_set = questpro_data::erdos_example_set(&ont);
    let (reference, _) =
        questpro_core::infer_top_k(&ont, &example_set, &questpro_core::TopKConfig::default());
    let want: Vec<String> = reference.iter().map(sparql::format_union).collect();

    let body = Json::obj([
        ("ontology", Json::str("erdos")),
        ("examples", Json::str(examples)),
    ])
    .to_text();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || call(addr, "POST", "/infer", Some(&body)))
        })
        .collect();
    for c in clients {
        let (status, resp) = c.join().expect("client thread");
        assert_eq!(status, 200, "infer failed: {resp}");
        let got: Vec<String> = json(&resp)
            .get("candidates")
            .and_then(|c| c.as_arr().map(|a| a.to_vec()))
            .expect("candidates")
            .iter()
            .map(|c| {
                c.get("query")
                    .and_then(Json::as_str)
                    .expect("a query text")
                    .to_string()
            })
            .collect();
        assert_eq!(got, want, "every client must see the one-shot answer");
    }
    server.join();
}

#[test]
fn malformed_input_yields_4xx_never_a_crash() {
    let server = boot();
    let addr = server.addr();

    // Truncated JSON body.
    assert_eq!(
        call(addr, "POST", "/infer", Some("{\"ontology\": \"er")).0,
        400
    );
    // Wrong shape.
    assert_eq!(call(addr, "POST", "/infer", Some("{}")).0, 422);
    assert_eq!(call(addr, "POST", "/sessions", Some("[1, 2]")).0, 422);
    // Unknown world.
    assert_eq!(
        call(
            addr,
            "POST",
            "/infer",
            Some("{\"ontology\": \"narnia\", \"examples\": \"x\"}")
        )
        .0,
        404
    );
    // Unparsable examples.
    assert_eq!(
        call(
            addr,
            "POST",
            "/infer",
            Some("{\"ontology\": \"erdos\", \"examples\": \"not an example block\"}")
        )
        .0,
        422
    );
    // Oversized body (server cap is 64 KiB here).
    let huge = format!(
        "{{\"ontology\": \"erdos\", \"examples\": \"{}\"}}",
        "x".repeat(80 * 1024)
    );
    assert_eq!(call(addr, "POST", "/infer", Some(&huge)).0, 413);
    // Garbage on the wire.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "NOT-HTTP\r\n\r\n").unwrap();
        let mut buf = String::new();
        let _ = s.read_to_string(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "got: {buf:?}");
    }
    // Bad session ids.
    assert_eq!(call(addr, "GET", "/sessions/not-a-number", None).0, 404);
    assert_eq!(call(addr, "GET", "/sessions/999999", None).0, 404);

    // After all of that the server still answers.
    assert_eq!(call(addr, "GET", "/healthz", None).0, 200);
    server.join();
}

#[test]
fn user_posted_worlds_and_eval_round_trip() {
    let server = boot();
    let addr = server.addr();
    let body = Json::obj([
        ("name", Json::str("tiny")),
        ("triples", Json::str("a knows b\nb knows c\n")),
    ])
    .to_text();
    let (status, created) = call(addr, "POST", "/ontologies", Some(&body));
    assert_eq!(status, 201, "create failed: {created}");
    assert_eq!(json(&created).get("nodes").and_then(Json::as_u64), Some(3));
    // Duplicate names collide loudly.
    assert_eq!(call(addr, "POST", "/ontologies", Some(&body)).0, 409);

    let eval = Json::obj([
        ("ontology", Json::str("tiny")),
        ("query", Json::str("SELECT ?x WHERE { ?x :knows ?y . }")),
    ])
    .to_text();
    let (status, resp) = call(addr, "POST", "/eval", Some(&eval));
    assert_eq!(status, 200, "eval failed: {resp}");
    let results: Vec<String> = json(&resp)
        .get("results")
        .and_then(|r| r.as_arr().map(|a| a.to_vec()))
        .expect("results")
        .iter()
        .map(|v| v.as_str().expect("a value").to_string())
        .collect();
    assert_eq!(results, ["a", "b"]);
    server.join();
}

#[test]
fn post_shutdown_drains_gracefully() {
    let server = boot();
    let addr = server.addr();
    let (status, body) = call(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"));
    // join() returns promptly because the accept loop saw the flag.
    server.join();
    // And the port stops answering new work.
    let gone = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let _ = write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = [0u8; 1];
            !matches!(s.read(&mut buf), Ok(n) if n > 0)
        }
    };
    assert!(gone, "a shut-down server must not serve new requests");
}

/// Like [`call`], but also returns the response headers (lower-cased
/// names) so tests can assert on them.
fn call_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to the server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("writing the request");
    parse_response_with_headers(BufReader::new(stream))
}

/// Writes `raw` verbatim on a fresh connection — for requests that are
/// deliberately not valid HTTP — and parses whatever comes back.
fn raw_call_with_headers(addr: SocketAddr, raw: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to the server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("writing raw bytes");
    parse_response_with_headers(BufReader::new(stream))
}

fn parse_response_with_headers(
    mut reader: BufReader<TcpStream>,
) -> (u16, Vec<(String, String)>, String) {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("reading the status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .expect("a status code")
        .parse()
        .expect("a numeric status");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("reading a header");
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed.split_once(':').expect("a `Name: value` header");
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().expect("a numeric content-length");
        }
        headers.push((name, value));
    }
    let mut resp_body = vec![0u8; content_length];
    reader.read_exact(&mut resp_body).expect("reading the body");
    (
        status,
        headers,
        String::from_utf8(resp_body).expect("a UTF-8 body"),
    )
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn every_response_carries_a_trace_id_resolvable_in_debug_traces() {
    let server = boot();
    let addr = server.addr();

    // 200s and 404s alike are traced and echo the trace ID.
    let (status, headers, _) = call_with_headers(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let id: u64 = header_value(&headers, "x-questpro-trace-id")
        .expect("a trace ID header on every traced response")
        .parse()
        .expect("a numeric trace ID");
    let (status, headers, _) = call_with_headers(addr, "GET", "/no/such/route", None);
    assert_eq!(status, 404);
    let not_found_id: u64 = header_value(&headers, "x-questpro-trace-id")
        .expect("error responses are traced too")
        .parse()
        .expect("a numeric trace ID");
    assert_ne!(id, not_found_id, "every request gets its own trace");

    // The trace named by the header is already in the registry (the
    // server publishes before writing the response).
    let (status, body) = call(addr, "GET", "/debug/traces?limit=64", None);
    assert_eq!(status, 200);
    let doc = json(&body);
    assert_eq!(doc.get("enabled").and_then(Json::as_bool), Some(true));
    let traces = doc
        .get("traces")
        .and_then(Json::as_arr)
        .expect("a traces array");
    let find = |want: u64| {
        traces
            .iter()
            .find(|t| t.get("id").and_then(Json::as_u64) == Some(want))
    };
    let healthz = find(id).expect("the /healthz trace is retained");
    assert_eq!(
        healthz.get("label").and_then(Json::as_str),
        Some("GET /healthz")
    );
    assert!(
        healthz.get("total_ns").and_then(Json::as_u64).is_some(),
        "traces carry a wall-clock total"
    );
    assert!(find(not_found_id).is_some(), "404 traces are retained");

    server.join();
}

/// Extracts the value of the first sample line starting with `prefix`.
/// Unlike [`json_metric`], handles labeled names with spaces inside the
/// label value (e.g. `..._count{route="POST /eval"} 3`).
fn labeled_metric(scrape: &str, prefix: &str) -> u64 {
    scrape
        .lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {prefix} missing"))
}

#[test]
fn one_id_joins_access_log_trace_and_route_metrics() {
    let server = boot();
    let addr = server.addr();

    let route_count = "questpro_route_duration_ns_count{route=\"POST /eval\"}";
    let (_, scrape) = call(addr, "GET", "/metrics", None);
    let count_before = labeled_metric(&scrape, route_count);

    // A world plus one /eval against it; the response names its trace.
    let world = Json::obj([
        ("name", Json::str("joinworld")),
        ("triples", Json::str("a knows b\nb knows c\n")),
    ])
    .to_text();
    assert_eq!(call(addr, "POST", "/ontologies", Some(&world)).0, 201);
    let eval = Json::obj([
        ("ontology", Json::str("joinworld")),
        ("query", Json::str("SELECT ?x WHERE { ?x :knows ?y . }")),
    ])
    .to_text();
    let (status, headers, _) = call_with_headers(addr, "POST", "/eval", Some(&eval));
    assert_eq!(status, 200);
    let id: u64 = header_value(&headers, "x-questpro-trace-id")
        .expect("a trace ID header")
        .parse()
        .expect("a numeric trace ID");

    // Pillar 1: the access log carries the same ID.
    let (status, body) = call(addr, "GET", "/debug/logs?limit=1024", None);
    assert_eq!(status, 200);
    let doc = json(&body);
    assert_eq!(doc.get("enabled").and_then(Json::as_bool), Some(true));
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .expect("an events array");
    let access = events
        .iter()
        .find(|e| {
            e.get("trace_id").and_then(Json::as_u64) == Some(id)
                && e.get("target").and_then(Json::as_str) == Some("server.access")
        })
        .expect("the /eval access-log event, joined by trace ID");
    assert_eq!(access.get("msg").and_then(Json::as_str), Some("POST /eval"));
    let fields = access.get("fields").expect("access-log fields");
    assert_eq!(
        fields.get("route").and_then(Json::as_str),
        Some("POST /eval")
    );
    assert_eq!(fields.get("status").and_then(Json::as_u64), Some(200));
    assert!(fields.get("latency_ns").and_then(Json::as_u64).is_some());
    assert!(fields.get("bytes").and_then(Json::as_u64).is_some());

    // Pillar 2: the trace registry resolves the same ID.
    let (status, body) = call(addr, "GET", "/debug/traces?limit=1024", None);
    assert_eq!(status, 200);
    let traces = json(&body);
    let trace = traces
        .get("traces")
        .and_then(Json::as_arr)
        .expect("a traces array")
        .iter()
        .find(|t| t.get("id").and_then(Json::as_u64) == Some(id))
        .cloned()
        .expect("the /eval trace, joined by trace ID");
    assert_eq!(
        trace.get("label").and_then(Json::as_str),
        Some("POST /eval")
    );

    // Pillar 3: the per-route histogram counted the same request.
    let (_, scrape) = call(addr, "GET", "/metrics", None);
    let count_after = labeled_metric(&scrape, route_count);
    assert!(
        count_after > count_before,
        "route histogram must count the /eval ({count_before} -> {count_after})"
    );
    server.join();
}

#[test]
fn malformed_debug_logs_params_are_rejected_without_panic() {
    let server = boot();
    let addr = server.addr();

    for bad in [
        "/debug/logs?limit=abc",
        "/debug/logs?limit=+5",
        "/debug/logs?limit=0",
        "/debug/logs?limit=99999",
        "/debug/logs?level=loud",
        "/debug/logs?level=",
    ] {
        let (status, body) = call(addr, "GET", bad, None);
        assert_eq!(status, 400, "{bad} must be a client error, got {body}");
        assert!(
            json(&body).get("error").is_some(),
            "{bad} must carry a JSON error envelope"
        );
    }
    assert_eq!(call(addr, "POST", "/debug/logs", None).0, 405);
    assert_eq!(call(addr, "GET", "/debug/logs?level=WARN", None).0, 200);
    assert_eq!(call(addr, "GET", "/healthz", None).0, 200);
    server.join();
}

#[test]
fn overload_sheds_and_keepalive_timeouts_hit_their_counters() {
    // One worker, a queue of one: of a simultaneous burst of CPU-bound
    // /infer requests, one runs, one queues, and the event loop sheds
    // the rest with 503 (the pool refused them). Idle connections are a
    // separate fate entirely — the loop closes them silently at the
    // read timeout without ever involving the pool, which is the point
    // of the readiness architecture: idle sockets cost no worker.
    let server = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue: 1,
        read_timeout_ms: 300,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = server.addr();

    // Phase 1: overload. A barrier lines the clients up so their
    // requests land while the single worker is still busy.
    let body = Json::obj([
        ("ontology", Json::str("erdos")),
        ("examples", Json::str(erdos_examples_text())),
    ])
    .to_text();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(12));
    let clients: Vec<_> = (0..12)
        .map(|_| {
            let body = body.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                call(addr, "POST", "/infer", Some(&body))
            })
        })
        .collect();
    let mut shed = 0u64;
    for c in clients {
        let (status, resp) = c.join().expect("client thread");
        match status {
            200 => {}
            503 => shed += 1,
            other => panic!("unexpected status under overload: {other} {resp}"),
        }
    }
    assert!(shed >= 1, "at least one request must be shed with 503");

    // Phase 2: idle keep-alive connections are reclaimed silently at
    // the read timeout (no 4xx, no response bytes at all).
    let conns: Vec<TcpStream> = (0..5)
        .map(|_| TcpStream::connect(addr).expect("connecting"))
        .collect();
    let mut closed_idle = 0u64;
    for mut c in conns {
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = String::new();
        if c.read_to_string(&mut buf).is_ok() && buf.is_empty() {
            closed_idle += 1;
        }
    }
    assert!(
        closed_idle >= 1,
        "at least one idle connection must be timed out"
    );

    // Both fates are first-class counters now.
    let (status, scrape) = call(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        json_metric(&scrape, "questpro_http_overload_rejections_total") >= shed,
        "all observed 503s must be counted: {scrape}"
    );
    assert!(
        json_metric(&scrape, "questpro_http_keepalive_timeouts_total") >= closed_idle,
        "all observed idle closures must be counted"
    );
    server.join();
}

#[test]
fn malformed_debug_traces_limits_are_rejected_without_panic() {
    let server = boot();
    let addr = server.addr();

    for bad in [
        "/debug/traces?limit=abc",
        "/debug/traces?limit=",
        "/debug/traces?limit=0",
        "/debug/traces?limit=99999",
        "/debug/traces?limit=-3",
    ] {
        let (status, body) = call(addr, "GET", bad, None);
        assert_eq!(status, 400, "{bad} must be a client error, got {body}");
        assert!(
            json(&body).get("error").is_some(),
            "{bad} must carry a JSON error envelope"
        );
    }
    // Wrong method on the route is a 405, and the server is still up.
    assert_eq!(call(addr, "POST", "/debug/traces", None).0, 405);
    assert_eq!(call(addr, "GET", "/healthz", None).0, 200);

    server.join();
}

#[test]
fn serves_from_a_preloaded_snapshot_and_accepts_snapshot_uploads() {
    // Build a small snapshot on disk the way `questpro store build` does.
    let ont = questpro_graph::triples::parse(
        "paper1 wb alice\npaper1 wb bob\npaper2 wb bob\n@type alice Author\n@type bob Author\n",
    )
    .unwrap();
    let store = questpro_store::TripleStore::from_ontology(&ont).unwrap();
    let bytes = questpro_store::encode(&store);
    let path = std::env::temp_dir().join("questpro-e2e-preload.qps");
    std::fs::write(&path, &bytes).unwrap();

    let server = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 8,
        stores: vec![path.to_string_lossy().into_owned()],
        ..ServerConfig::default()
    })
    .expect("binding with a snapshot preload");
    let addr = server.addr();

    // The preloaded world is registered under its file stem, already
    // materialized, and evaluable.
    let (status, body) = call(addr, "GET", "/ontologies", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("questpro-e2e-preload"), "{body}");
    let (status, body) = call(
        addr,
        "POST",
        "/eval",
        Some(
            &Json::obj([
                ("ontology", Json::str("questpro-e2e-preload")),
                (
                    "query",
                    Json::str("SELECT ?x WHERE { ?p :wb ?x . ?p :wb :bob . }"),
                ),
            ])
            .to_text(),
        ),
    );
    assert_eq!(status, 200, "{body}");
    let results = json(&body);
    let names: Vec<&str> = results
        .get("results")
        .and_then(|r| match r {
            Json::Arr(items) => Some(items.iter().filter_map(Json::as_str).collect()),
            _ => None,
        })
        .unwrap_or_default();
    assert!(names.contains(&"alice") && names.contains(&"bob"), "{body}");

    // Uploading the same snapshot as base64 registers a second world...
    let b64 = questpro_wire::base64::encode(&bytes);
    let (status, body) = call(
        addr,
        "POST",
        "/ontologies",
        Some(
            &Json::obj([
                ("name", Json::str("uploaded")),
                ("snapshot_b64", Json::str(b64.clone())),
            ])
            .to_text(),
        ),
    );
    assert_eq!(status, 201, "{body}");
    let desc = json(&body);
    assert_eq!(desc.get("edges").and_then(Json::as_u64), Some(3), "{body}");

    // ...while corrupted bytes and bad base64 are rejected with named
    // errors, and the server stays healthy.
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 1;
    let (status, body) = call(
        addr,
        "POST",
        "/ontologies",
        Some(
            &Json::obj([
                ("name", Json::str("corrupt")),
                (
                    "snapshot_b64",
                    Json::str(questpro_wire::base64::encode(&corrupt)),
                ),
            ])
            .to_text(),
        ),
    );
    assert_eq!(status, 409, "{body}");
    // A last-byte flip lands in the osp permutation, validated
    // structurally (the snapshot checksum deliberately stops at the
    // pos section); either named rejection is a correct refusal.
    assert!(
        body.contains("checksum mismatch") || body.contains("bad osp section"),
        "{body}"
    );
    let (status, body) = call(
        addr,
        "POST",
        "/ontologies",
        Some(
            &Json::obj([
                ("name", Json::str("badb64")),
                ("snapshot_b64", Json::str("not base64!")),
            ])
            .to_text(),
        ),
    );
    assert_eq!(status, 422, "{body}");
    assert_eq!(call(addr, "GET", "/healthz", None).0, 200);

    server.join();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn startup_fails_loudly_on_a_bad_snapshot_preload() {
    let path = std::env::temp_dir().join("questpro-e2e-bad-preload.qps");
    std::fs::write(&path, b"QPSTgarbage").unwrap();
    let err = match start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        stores: vec![path.to_string_lossy().into_owned()],
        ..ServerConfig::default()
    }) {
        Ok(server) => {
            server.join();
            panic!("a corrupt preload must refuse to start");
        }
        Err(e) => e,
    };
    assert!(err.to_string().contains("bad-preload"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn live_updates_version_worlds_and_count_rejections() {
    let server = boot();
    let addr = server.addr();
    let body = Json::obj([
        ("name", Json::str("live")),
        ("triples", Json::str("a knows b\nb knows c\n")),
    ])
    .to_text();
    assert_eq!(call(addr, "POST", "/ontologies", Some(&body)).0, 201);
    let (_, desc) = call(addr, "GET", "/ontologies/live", None);
    assert_eq!(json(&desc).get("version").and_then(Json::as_u64), Some(1));

    // A batched insert installs a new head version; eval sees it.
    let batch = r#"{"insert": [["c", "knows", "a"]]}"#;
    let (status, updated) = call(addr, "POST", "/ontologies/live/update", Some(batch));
    assert_eq!(status, 200, "update failed: {updated}");
    let updated = json(&updated);
    assert_eq!(updated.get("version").and_then(Json::as_u64), Some(2));
    assert_eq!(updated.get("inserted").and_then(Json::as_u64), Some(1));
    assert_eq!(
        updated.get("edge_ids_stable").and_then(Json::as_bool),
        Some(true)
    );
    let eval = Json::obj([
        ("ontology", Json::str("live")),
        ("query", Json::str("SELECT ?x WHERE { ?x :knows ?y . }")),
    ])
    .to_text();
    let (_, resp) = call(addr, "POST", "/eval", Some(&eval));
    let results: Vec<String> = json(&resp)
        .get("results")
        .and_then(Json::as_arr)
        .expect("results")
        .iter()
        .filter_map(Json::as_str)
        .map(str::to_string)
        .collect();
    assert_eq!(results, ["a", "b", "c"], "eval must see the new head");

    // Every malformed or impossible batch is a named 4xx, never a 500,
    // and the head stays where the last good update put it.
    for (path, bad, want) in [
        (
            "/ontologies/live/update",
            r#"{"delete": [["x", "y", "z"]]}"#,
            409,
        ),
        (
            "/ontologies/live/update",
            r#"{"insert": [["c", "knows", "a"]]}"#,
            409,
        ),
        ("/ontologies/live/update", r#"{}"#, 422),
        (
            "/ontologies/live/update",
            r#"{"insert": [["a", "b"]]}"#,
            422,
        ),
        ("/ontologies/live/update", "not json", 400),
        (
            "/ontologies/ghost/update",
            r#"{"insert": [["a", "b", "c"]]}"#,
            404,
        ),
    ] {
        let (status, resp) = call(addr, "POST", path, Some(bad));
        assert_eq!(status, want, "{bad} -> {resp}");
    }
    let (_, desc) = call(addr, "GET", "/ontologies/live", None);
    assert_eq!(json(&desc).get("version").and_then(Json::as_u64), Some(2));

    // The scrape reflects exactly what happened above.
    let (_, scrape) = call(addr, "GET", "/metrics", None);
    assert_eq!(json_metric(&scrape, "questpro_ontology_updates_total"), 1);
    assert_eq!(
        json_metric(&scrape, "questpro_ontology_update_rejections_total"),
        6
    );
    // The one applied batch rebuilt at least the tail edge page.
    assert!(json_metric(&scrape, "questpro_ontology_update_pages_copied_total") >= 1);
    assert!(json_metric(&scrape, "questpro_ontology_versions_open") >= 2);
    server.join();
}

#[test]
fn sessions_stay_pinned_across_updates_and_evicted_pins_fail_named() {
    let server = boot();
    let addr = server.addr();
    let create = Json::obj([
        ("ontology", Json::str("erdos")),
        ("examples", Json::str(erdos_examples_text())),
        ("seed", Json::from(7u64)),
    ])
    .to_text();
    let (status, created) = call(addr, "POST", "/sessions", Some(&create));
    assert_eq!(status, 201, "create failed: {created}");
    let created = json(&created);
    let id = created.get("id").and_then(Json::as_u64).expect("an id");
    assert_eq!(
        created.get("ontology_version").and_then(Json::as_u64),
        Some(1),
        "sessions pin the version they start on"
    );
    let (status, snap_v1) = call(addr, "GET", &format!("/sessions/{id}/snapshot"), None);
    assert_eq!(status, 200);
    assert_eq!(
        json(&snap_v1)
            .get("ontology_version")
            .and_then(Json::as_u64),
        Some(1),
        "snapshots carry the pin"
    );

    // One update: the pinned session keeps answering from version 1.
    let batch = |i: usize| format!(r#"{{"insert": [["zz_{i}", "zz_knows", "zz_other_{i}"]]}}"#);
    assert_eq!(
        call(addr, "POST", "/ontologies/erdos/update", Some(&batch(0))).0,
        200
    );
    let (status, state) = call(addr, "GET", &format!("/sessions/{id}"), None);
    assert_eq!(status, 200, "pinned session must survive a head update");
    assert_eq!(
        json(&state).get("ontology_version").and_then(Json::as_u64),
        Some(1)
    );

    // Enough further updates to push version 1 off the bounded history:
    // now every request against the session is a named 410, and so is
    // restoring its snapshot — never a silent answer from version 5.
    for i in 1..questpro_server::registry::HISTORY {
        assert_eq!(
            call(addr, "POST", "/ontologies/erdos/update", Some(&batch(i))).0,
            200
        );
    }
    for path in [
        format!("/sessions/{id}"),
        format!("/sessions/{id}/candidates"),
        format!("/sessions/{id}/snapshot"),
    ] {
        let (status, resp) = call(addr, "GET", &path, None);
        assert_eq!(status, 410, "{path}: {resp}");
        assert!(
            resp.contains("version 1") && resp.contains("evicted"),
            "the failure must name the stale pin: {resp}"
        );
    }
    let (status, resp) = call(addr, "POST", "/sessions/restore", Some(&snap_v1));
    assert_eq!(status, 410, "restore of an evicted pin: {resp}");
    assert!(
        resp.contains("snapshot") && resp.contains("evicted"),
        "{resp}"
    );

    // A fresh session pins the current head, and its snapshot restores
    // into a *new* session that picks up exactly where it left off.
    let (status, created) = call(addr, "POST", "/sessions", Some(&create));
    assert_eq!(status, 201, "create at head failed: {created}");
    let created = json(&created);
    let head_id = created.get("id").and_then(Json::as_u64).expect("an id");
    let head_version = created
        .get("ontology_version")
        .and_then(Json::as_u64)
        .expect("a version");
    assert_eq!(head_version, 1 + questpro_server::registry::HISTORY as u64);
    let (_, head_snap) = call(addr, "GET", &format!("/sessions/{head_id}/snapshot"), None);
    let (status, restored) = call(addr, "POST", "/sessions/restore", Some(&head_snap));
    assert_eq!(status, 201, "restore failed: {restored}");
    let restored = json(&restored);
    assert_ne!(
        restored.get("id").and_then(Json::as_u64),
        Some(head_id),
        "restore creates a new session"
    );
    assert_eq!(
        restored.get("ontology_version").and_then(Json::as_u64),
        Some(head_version)
    );
    assert_eq!(
        restored.get("phase").and_then(Json::as_str),
        json(&head_snap).get("phase").and_then(Json::as_str)
    );

    // Malformed restores are named 4xx, never a panic.
    for (bad, want) in [
        (r#"{"ontology_version": 1}"#.to_string(), 422),
        (r#"{"ontology": "erdos"}"#.to_string(), 422),
        (
            r#"{"ontology": "erdos", "ontology_version": 99}"#.to_string(),
            404,
        ),
        (
            r#"{"ontology": "ghost", "ontology_version": 1}"#.to_string(),
            404,
        ),
        (
            format!(r#"{{"ontology": "erdos", "ontology_version": {head_version}}}"#),
            422,
        ),
    ] {
        let (status, resp) = call(addr, "POST", "/sessions/restore", Some(&bad));
        assert_eq!(status, want, "{bad} -> {resp}");
    }
    server.join();
}

#[test]
fn error_responses_echo_a_trace_id_on_every_reject_path() {
    let server = boot();
    let addr = server.addr();
    let trace_id = |headers: &[(String, String)], what: &str| -> u64 {
        header_value(headers, "x-questpro-trace-id")
            .unwrap_or_else(|| panic!("{what} must echo X-Questpro-Trace-Id"))
            .parse()
            .expect("a numeric trace ID")
    };
    let mut seen = Vec::new();

    // 400: bytes that never parse into a request.
    let (status, headers, _) = raw_call_with_headers(addr, "NOT-HTTP\r\n\r\n");
    assert_eq!(status, 400);
    seen.push(trace_id(&headers, "400"));

    // 404: a routed miss.
    let (status, headers, _) = call_with_headers(addr, "GET", "/no/such/route", None);
    assert_eq!(status, 404);
    seen.push(trace_id(&headers, "404"));

    // 413: an oversized body, rejected before routing.
    let huge = format!(
        "{{\"ontology\": \"erdos\", \"examples\": \"{}\"}}",
        "x".repeat(80 * 1024)
    );
    let (status, headers, _) = call_with_headers(addr, "POST", "/infer", Some(&huge));
    assert_eq!(status, 413);
    seen.push(trace_id(&headers, "413"));

    // 410: a session whose pinned version fell off the history.
    let create = Json::obj([
        ("ontology", Json::str("erdos")),
        ("examples", Json::str(erdos_examples_text())),
    ])
    .to_text();
    let (status, created) = call(addr, "POST", "/sessions", Some(&create));
    assert_eq!(status, 201, "create failed: {created}");
    let id = json(&created)
        .get("id")
        .and_then(Json::as_u64)
        .expect("an id");
    for i in 0..questpro_server::registry::HISTORY {
        let batch = format!(r#"{{"insert": [["zz_{i}", "zz_knows", "zz_other_{i}"]]}}"#);
        assert_eq!(
            call(addr, "POST", "/ontologies/erdos/update", Some(&batch)).0,
            200
        );
    }
    let (status, headers, _) = call_with_headers(addr, "GET", &format!("/sessions/{id}"), None);
    assert_eq!(status, 410);
    seen.push(trace_id(&headers, "410"));

    // 503: a dedicated server with a cap of one connection
    // sheds the second concurrent connection at accept time, before any
    // request parses.
    let tiny = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 8,
        max_conns: 1,
        ..ServerConfig::default()
    })
    .expect("binding the capped server");
    let held = TcpStream::connect(tiny.addr()).expect("holding a connection open");
    // The held connection counts only once the loop sees the accept;
    // poll until the overflow connection is refused.
    let mut shed = None;
    for _ in 0..100 {
        let (status, headers, _) = call_with_headers(tiny.addr(), "GET", "/healthz", None);
        if status == 503 {
            shed = Some(headers);
            break;
        }
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(10));
    }
    let headers = shed.expect("the connection cap must shed with 503");
    seen.push(trace_id(&headers, "503"));
    drop(held);
    tiny.join();

    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 5, "every rejection gets its own trace ID");
    server.join();
}

#[test]
fn debug_sessions_exposes_lifecycle_telemetry_and_metrics_marginals() {
    let server = boot();
    let addr = server.addr();
    let create = Json::obj([
        ("ontology", Json::str("erdos")),
        ("examples", Json::str(erdos_examples_text())),
        ("seed", Json::from(7u64)),
    ])
    .to_text();

    // One session driven to convergence...
    let (status, created) = call(addr, "POST", "/sessions", Some(&create));
    assert_eq!(status, 201, "create failed: {created}");
    let id = json(&created)
        .get("id")
        .and_then(Json::as_u64)
        .expect("an id");
    let mut rounds = 0u64;
    loop {
        let (status, state) = call(addr, "GET", &format!("/sessions/{id}"), None);
        assert_eq!(status, 200, "state failed: {state}");
        if json(&state).get("phase").and_then(Json::as_str) == Some("done") {
            break;
        }
        let (status, after) = call(
            addr,
            "POST",
            &format!("/sessions/{id}/feedback"),
            Some("{\"answer\": true}"),
        );
        assert_eq!(status, 200, "feedback failed: {after}");
        rounds += 1;
        assert!(rounds < 200, "session must converge");
    }
    // ...and one deleted mid-flight.
    let (status, created) = call(addr, "POST", "/sessions", Some(&create));
    assert_eq!(status, 201);
    let doomed = json(&created)
        .get("id")
        .and_then(Json::as_u64)
        .expect("an id");
    assert_eq!(
        call(addr, "DELETE", &format!("/sessions/{doomed}"), None).0,
        204
    );

    let (status, body) = call(addr, "GET", "/debug/sessions?limit=16", None);
    assert_eq!(status, 200, "{body}");
    let doc = json(&body);
    assert_eq!(doc.get("enabled").and_then(Json::as_bool), Some(true));
    assert!(
        doc.get("records_total").and_then(Json::as_u64) >= Some(2),
        "both sessions recorded: {body}"
    );
    let sessions = doc
        .get("sessions")
        .and_then(Json::as_arr)
        .expect("a sessions array");
    let by_outcome = |want: &str| {
        sessions
            .iter()
            .find(|s| s.get("outcome").and_then(Json::as_str) == Some(want))
            .unwrap_or_else(|| panic!("no {want} record in {body}"))
    };
    let converged = by_outcome("converged");
    assert_eq!(
        converged.get("ontology").and_then(Json::as_str),
        Some("erdos")
    );
    assert_eq!(converged.get("rounds").and_then(Json::as_u64), Some(rounds));
    assert_eq!(converged.get("yes").and_then(Json::as_u64), Some(rounds));
    assert_eq!(converged.get("no").and_then(Json::as_u64), Some(0));
    assert_eq!(
        converged
            .get("pool_sizes")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(rounds as usize),
        "one pool size per answered round"
    );
    assert!(
        converged.get("trace_id").and_then(Json::as_u64) > Some(0),
        "session telemetry joins back to traces"
    );
    let abandoned = by_outcome("abandoned");
    assert!(abandoned.get("wall_ns").and_then(Json::as_u64).is_some());

    // The outcome filter narrows; the marginals reach /metrics.
    let (status, body) = call(addr, "GET", "/debug/sessions?outcome=abandoned", None);
    assert_eq!(status, 200);
    let only = json(&body);
    let only = only
        .get("sessions")
        .and_then(Json::as_arr)
        .expect("sessions");
    assert!(!only.is_empty());
    assert!(only
        .iter()
        .all(|s| s.get("outcome").and_then(Json::as_str) == Some("abandoned")));
    assert_eq!(call(addr, "GET", "/debug/sessions?limit=0", None).0, 400);
    assert_eq!(
        call(addr, "GET", "/debug/sessions?outcome=bogus", None).0,
        400
    );

    let (_, scrape) = call(addr, "GET", "/metrics", None);
    assert!(
        labeled_metric(
            &scrape,
            "questpro_session_outcomes_total{outcome=\"converged\"}"
        ) >= 1
    );
    assert!(
        labeled_metric(
            &scrape,
            "questpro_session_outcomes_total{outcome=\"abandoned\"}"
        ) >= 1
    );
    assert!(
        labeled_metric(&scrape, "questpro_session_records_total") >= 2,
        "record counters reach the scrape"
    );
    assert!(
        labeled_metric(
            &scrape,
            "questpro_session_rounds_bucket{outcome=\"converged\",le=\"+Inf\"}"
        ) >= 1,
        "convergence rounds land in the histogram"
    );
    server.join();
}

/// Posts a complete `parts`-partite world (`size` nodes per part, edges
/// both ways between parts) under `name`, and returns an eval body that
/// asks for a clique one larger than any the world has: it finds
/// nothing, and only after an exhaustive search.
fn post_dense_world(addr: SocketAddr, name: &str, parts: usize, size: usize) -> String {
    let nodes: Vec<(usize, usize)> = (0..parts)
        .flat_map(|p| (0..size).map(move |i| (p, i)))
        .collect();
    let mut triples = String::new();
    for &(p, i) in &nodes {
        for &(q, j) in &nodes {
            if p != q {
                triples.push_str(&format!("n{p}_{i} e n{q}_{j}\n"));
            }
        }
    }
    let body = Json::obj([("name", Json::str(name)), ("triples", Json::str(triples))]).to_text();
    let (status, resp) = call(addr, "POST", "/ontologies", Some(&body));
    assert_eq!(status, 201, "posting the dense world: {resp}");
    let mut pattern = String::new();
    for i in 0..=parts {
        for j in i + 1..=parts {
            pattern.push_str(&format!("?v{i} :e ?v{j} . "));
        }
    }
    Json::obj([
        ("ontology", Json::str(name)),
        (
            "query",
            Json::str(format!("SELECT ?v0 WHERE {{ {pattern}}}")),
        ),
    ])
    .to_text()
}

/// An eval body whose answer takes at least `floor` on this build and
/// host: the dense world grows until it does.
fn slow_eval(addr: SocketAddr, floor: Duration) -> String {
    for size in 3..40 {
        let body = post_dense_world(addr, &format!("dense{size}"), 4, size);
        let started = std::time::Instant::now();
        let (status, resp) = call(addr, "POST", "/eval", Some(&body));
        assert_eq!(status, 200, "clique eval: {resp}");
        if started.elapsed() >= floor {
            return body;
        }
    }
    panic!("no dense world took {floor:?} to search");
}

/// Sends one request on a fresh connection without reading the answer.
fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connecting to the server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("writing the request");
    BufReader::new(stream)
}

/// Blocks until every worker of a fresh server has started a handler:
/// each handler bumps the request counter, and so does each scrape.
fn await_handlers_started(addr: SocketAddr, baseline: u64, handlers: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    for scrapes in 1.. {
        let (_, scrape) = call(addr, "GET", "/metrics", None);
        if json_metric(&scrape, "questpro_http_requests_total") >= baseline + scrapes + handlers {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the slow handlers never started"
        );
        // Paced, so the scrapes' own traces do not crowd other tests'
        // out of the shared trace registry.
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_saturated_server_answers_probes_queues_one_and_sheds_the_next() {
    let server = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue: 1,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = server.addr();
    let slow = slow_eval(addr, Duration::from_millis(200));

    // A holds the only worker.
    let (_, scrape) = call(addr, "GET", "/metrics", None);
    let baseline = json_metric(&scrape, "questpro_http_requests_total");
    let mut a = send(addr, "POST", "/eval", &slow);
    await_handlers_started(addr, baseline, 1);
    // B waits in the queue of one.
    let mut b = send(addr, "POST", "/eval", &slow);

    // Probes on other connections are not held behind A.
    for path in ["/healthz", "/metrics"] {
        let fastest = (0..3)
            .map(|_| {
                let started = std::time::Instant::now();
                assert_eq!(call(addr, "GET", path, None).0, 200, "{path}");
                started.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            fastest < Duration::from_millis(50),
            "{path} took {fastest:?} while the worker was busy"
        );
    }
    // C finds the worker busy and the queue full.
    assert_eq!(call(addr, "POST", "/eval", Some(&slow)).0, 503);

    assert_eq!(read_response(&mut a).0, 200, "the running request");
    assert_eq!(read_response(&mut b).0, 200, "the queued request");
    server.join();
}

#[test]
fn a_fast_request_is_answered_while_a_slow_one_runs() {
    let server = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 4,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = server.addr();
    let slow = slow_eval(addr, Duration::from_millis(200));
    let body = Json::obj([
        ("name", Json::str("tiny")),
        ("triples", Json::str("a knows b\n")),
    ])
    .to_text();
    assert_eq!(call(addr, "POST", "/ontologies", Some(&body)).0, 201);
    let fast = Json::obj([
        ("ontology", Json::str("tiny")),
        ("query", Json::str("SELECT ?x WHERE { ?x :knows ?y . }")),
    ])
    .to_text();

    let (_, scrape) = call(addr, "GET", "/metrics", None);
    let baseline = json_metric(&scrape, "questpro_http_requests_total");
    let a = std::thread::spawn(move || {
        let mut a = send(addr, "POST", "/eval", &slow);
        let status = read_response(&mut a).0;
        (status, std::time::Instant::now())
    });
    await_handlers_started(addr, baseline, 1);
    let (status, resp) = call(addr, "POST", "/eval", Some(&fast));
    let fast_done = std::time::Instant::now();
    assert_eq!((status, resp.as_str()), (200, r#"{"results":["a"]}"#));
    let (slow_status, slow_done) = a.join().expect("slow client");
    assert_eq!(slow_status, 200);
    assert!(
        fast_done < slow_done,
        "the fast request waited for the slow one"
    );
    server.join();
}
