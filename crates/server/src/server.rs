//! Server lifecycle: configuration, startup, graceful shutdown.
//!
//! The serving machinery itself lives in [`crate::eventloop`]: worker
//! threads that each read, run and answer the requests they take from
//! one shared poller, plus one loop thread for timeouts, overflow and
//! drain. This module binds the listener, builds the shared state,
//! starts those threads, and exposes the [`ServerHandle`] that joins
//! them back.
//!
//! Shutdown is cooperative — there is no signal handling in a
//! zero-dependency workspace — via [`ServerHandle::shutdown`] or
//! `POST /shutdown`: the flag flips, the loop thread stops accepting,
//! idle connections close immediately, in-flight requests (running or
//! queued for a worker) finish and flush under a drain deadline, and the
//! workers exit last.

use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use questpro_log::Level;

use crate::eventloop::{Core, LoopConfig};
use crate::http::{Request, Response};
use crate::metrics::record_route;
use crate::router::{route, route_label, AppState};
use crate::sys;

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7474` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads: each serves the connections it takes, and at
    /// most this many CPU-bound handlers run at once.
    pub workers: usize,
    /// Bounded backlog of CPU-bound requests waiting for a busy worker;
    /// beyond it requests shed with `503`.
    pub queue: usize,
    /// Cap on request bodies, bytes.
    pub max_body: usize,
    /// Socket read timeout (also bounds keep-alive idle time), ms.
    pub read_timeout_ms: u64,
    /// Socket write timeout, ms.
    pub write_timeout_ms: u64,
    /// Sessions idle longer than this are evicted, seconds.
    pub session_idle_secs: u64,
    /// Maximum live interactive sessions.
    pub max_sessions: usize,
    /// Default inference threads per request (`threads` in bodies wins).
    pub threads: usize,
    /// Record one trace per HTTP request (`questpro-trace`); the trace
    /// ID is echoed in an `X-Questpro-Trace-Id` response header.
    pub tracing: bool,
    /// How many finished traces the global registry retains for
    /// `GET /debug/traces` (oldest dropped first).
    pub trace_capacity: usize,
    /// Record structured log events (`questpro-log`): one access-log
    /// event per request, slow-query events, and the panic flight
    /// recorder. Served at `GET /debug/logs`.
    pub logging: bool,
    /// Record one `questpro-telemetry` session record per finished
    /// interactive session (convergence rounds, verdicts, cache hit
    /// rates, outcome), aggregated for `/metrics` and served raw at
    /// `GET /debug/sessions`.
    pub telemetry: bool,
    /// Minimum level retained when logging is on.
    pub log_level: questpro_log::Level,
    /// How many log events the global ring retains (oldest dropped
    /// first).
    pub log_capacity: usize,
    /// Also append every event as one JSON line to this file.
    pub log_file: Option<String>,
    /// Requests on inference routes slower than this produce a
    /// warn-level slow-query event carrying per-stage self-times;
    /// 0 disables the slow log.
    pub slow_query_ms: u64,
    /// Binary snapshot files (`questpro store build`) to preload into
    /// the ontology registry before accepting connections, each
    /// registered under its file stem. A snapshot cold-load is
    /// milliseconds even at 10⁶–10⁷ triples, so startup stays fast.
    pub stores: Vec<String>,
    /// Maximum concurrently open connections; accepts beyond it shed
    /// with `503`.
    pub max_conns: usize,
    /// How long shutdown waits for in-flight exchanges before
    /// force-closing, ms.
    pub drain_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7474".into(),
            workers: 8,
            queue: 64,
            max_body: 1 << 20,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            session_idle_secs: 1_800,
            max_sessions: 64,
            threads: 1,
            tracing: true,
            trace_capacity: questpro_trace::registry::DEFAULT_CAPACITY,
            logging: true,
            telemetry: true,
            log_level: questpro_log::Level::Info,
            log_capacity: questpro_log::DEFAULT_CAPACITY,
            log_file: None,
            slow_query_ms: 500,
            stores: Vec::new(),
            max_conns: 10_240,
            drain_ms: 5_000,
        }
    }
}

/// A running server; dropping it without [`ServerHandle::join`] leaves
/// the serving threads running detached until shutdown is requested.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    core: Core,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (registry, sessions, counters).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Whether shutdown has been requested (by this handle or by
    /// `POST /shutdown`).
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Requests graceful shutdown without waiting for it, waking the
    /// loop thread so it starts the drain immediately.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.core.wake();
    }

    /// Requests shutdown and waits for the drain and the serving
    /// threads.
    pub fn join(self) {
        self.shutdown();
        self.core.join();
    }
}

/// Binds, starts the serving threads, and returns immediately.
///
/// # Errors
/// Propagates the bind failure.
pub fn start(cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    if cfg.tracing {
        questpro_trace::registry::set_capacity(cfg.trace_capacity);
        questpro_trace::set_enabled(true);
    }
    questpro_telemetry::set_enabled(cfg.telemetry);
    if cfg.logging {
        questpro_log::set_capacity(cfg.log_capacity);
        questpro_log::set_level(Some(cfg.log_level));
        if let Some(path) = &cfg.log_file {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            questpro_log::set_sink(Some(Box::new(file)));
        }
        questpro_log::flight::install();
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    // std listens with a backlog of 128; a fleet connecting in one
    // burst overflows that, drops SYNs, and stalls each dropped client
    // ~1s on retransmit — long enough for the first accepted
    // connections to hit the idle read timeout before the fleet is up.
    // Widen to the connection cap (kernel-clamped to somaxconn) so
    // handshake bursts queue instead of stalling; best-effort, since a
    // narrow backlog only degrades connect latency, not correctness.
    {
        use std::os::unix::io::AsRawFd;
        let _ = sys::widen_listen_backlog(listener.as_raw_fd(), cfg.max_conns.max(128));
    }
    let addr = listener.local_addr()?;
    let mut state = AppState::new(
        cfg.threads,
        cfg.max_body,
        Duration::from_secs(cfg.session_idle_secs),
        cfg.max_sessions,
    );
    state.slow_query_ns = cfg.slow_query_ms.saturating_mul(1_000_000);
    let state = Arc::new(state);
    // Preload snapshots before serving starts: a client that
    // connects right after bind must already see the worlds.
    for path in &cfg.stores {
        let bytes = std::fs::read(path)?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("snapshot");
        state.registry.insert_snapshot(name, &bytes).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}"))
        })?;
    }
    let core = Core::start(
        listener,
        Arc::clone(&state),
        LoopConfig {
            max_body: cfg.max_body,
            read_timeout: Duration::from_millis(cfg.read_timeout_ms.max(1)),
            write_timeout: Duration::from_millis(cfg.write_timeout_ms.max(1)),
            drain: Duration::from_millis(cfg.drain_ms),
            max_conns: cfg.max_conns.max(1),
            workers: cfg.workers,
            queue: cfg.queue,
        },
    )?;
    Ok(ServerHandle { addr, state, core })
}

/// Routes one parsed request with tracing, per-route latency metrics,
/// and the access/slow-query logs. Runs on the thread that read the
/// request: a worker, or the loop thread for an inline route while
/// every worker is busy.
pub(crate) fn serve_request(state: &Arc<AppState>, req: &Request) -> Response {
    state.http.record_request();
    let started = Instant::now();
    let label = route_label(&req.method, &req.path);
    // One trace per request, on the thread serving it; the guard
    // publishes even when the handler panics.
    let trace = questpro_trace::begin(format!("{} {}", req.method, req.path));
    let trace_id = trace.as_ref().map(questpro_trace::ActiveTrace::id);
    // A panicking handler must cost exactly one response.
    let mut resp = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        if req.header("x-test-panic").is_some() {
            panic!("handler panic requested by a unit test");
        }
        route(state, req)
    }))
    .unwrap_or_else(|_| {
        // The flight recorder already dumped context to stderr from
        // inside the panic hook; leave one correlatable event too.
        questpro_log::emit_traced(
            trace_id,
            Level::Error,
            "server.panic",
            format!("handler panicked: {} {}", req.method, req.path),
            vec![("route", label.into())],
        );
        Response::error(500, "request handler panicked")
    });
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    record_route(label, elapsed_ns);
    if let Some(t) = trace {
        resp.trace_id = Some(t.id());
        let rec = t.finish();
        slow_query_log(state, label, &rec);
    }
    // The access log: one event per request, carrying the same ID the
    // response echoes as X-Questpro-Trace-Id.
    if questpro_log::enabled(Level::Info) {
        questpro_log::emit_traced(
            trace_id,
            Level::Info,
            "server.access",
            format!("{} {}", req.method, req.path),
            vec![
                ("route", label.into()),
                ("status", resp.status.into()),
                ("bytes", resp.body.len().into()),
                ("latency_ns", elapsed_ns.into()),
            ],
        );
    }
    if req.wants_close() {
        resp.close = true;
    }
    resp
}

/// Routes eligible for the slow-query log: the ones that run inference
/// or feedback rounds (the paper's Section VI latency subjects).
const SLOW_ROUTES: &[&str] = &[
    "POST /eval",
    "POST /infer",
    "POST /sessions",
    "POST /sessions/:id/infer",
    "POST /sessions/:id/feedback",
];

/// Emits one warn event with per-stage self-times when an inference
/// route exceeded the configured threshold.
fn slow_query_log(state: &AppState, label: &'static str, rec: &questpro_trace::TraceRecord) {
    if state.slow_query_ns == 0
        || rec.total_ns < state.slow_query_ns
        || !SLOW_ROUTES.contains(&label)
        || !questpro_log::enabled(Level::Warn)
    {
        return;
    }
    let mut fields: Vec<(&'static str, questpro_log::Value)> = vec![
        ("route", label.into()),
        ("total_ns", rec.total_ns.into()),
        ("spans", rec.spans.len().into()),
    ];
    // Stage names are dotted (`infer.topk`), so they can never collide
    // with the envelope keys above.
    for (stage, _calls, self_ns) in rec.stage_totals() {
        fields.push((stage, self_ns.into()));
    }
    // Candidates checked against results found: a candidate scan that
    // outgrows its results shows here without a profiler.
    let evals: Vec<_> = rec
        .spans
        .iter()
        .filter(|s| s.name == "engine.evaluate_union")
        .collect();
    if !evals.is_empty() {
        for key in ["candidates", "results"] {
            let n: u64 = evals
                .iter()
                .flat_map(|s| &s.counters)
                .filter(|(k, _)| *k == key)
                .map(|(_, n)| n)
                .sum();
            fields.push((key, n.into()));
        }
    }
    questpro_log::emit_traced(
        Some(rec.id),
        Level::Warn,
        "server.slow",
        format!("slow request: {}", rec.label),
        fields,
    );
}

/// Counts and logs a request that could not be parsed off the wire
/// (or, for `408`, one whose bytes stalled past the read timeout).
pub(crate) fn unreadable(state: &Arc<AppState>, status: u16, msg: &str) -> Response {
    state.http.record_request();
    // No parsed request means no recorded trace, but the rejection must
    // still be correlatable: mint an ID from the same sequence, echo it
    // on the response, and stamp the log event with it.
    let trace_id = questpro_trace::enabled().then(questpro_trace::mint_id);
    if questpro_log::enabled(Level::Warn) {
        questpro_log::emit_traced(
            trace_id,
            Level::Warn,
            "server.http",
            format!("unreadable request: {msg}"),
            vec![("status", status.into())],
        );
    }
    let mut resp = Response::error(status, msg);
    resp.trace_id = trace_id;
    resp.close = true;
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(&mut s);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        let body = rest.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn serves_healthz_and_shuts_down_cleanly() {
        let handle = start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 8,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        let (status, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _) = get(addr, "/no-such-route");
        assert_eq!(status, 404);
        assert!(!handle.is_shutting_down());
        handle.join();
        // The port is released: either connect fails or the request
        // goes unanswered by our (now gone) acceptor.
        assert!(
            TcpStream::connect(addr).is_err() || get_after_shutdown(addr),
            "server must stop serving after join()"
        );
    }

    #[test]
    fn a_panicking_handler_costs_only_its_own_request() {
        // One worker: if the panic killed it, nothing CPU-bound would be
        // answered afterwards.
        let handle = start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // A panicking CPU-bound request pipelined ahead of a sound one
        // on the same connection.
        write!(
            s,
            "GET /ontologies HTTP/1.1\r\nHost: t\r\nX-Test-Panic: 1\r\n\r\n\
             GET /ontologies HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut answers = String::new();
        s.read_to_string(&mut answers).unwrap();
        let statuses: Vec<&str> = answers
            .match_indices("HTTP/1.1 ")
            .map(|(i, _)| &answers[i + 9..i + 12])
            .collect();
        assert_eq!(statuses, ["500", "200"], "{answers}");
        // The worker that caught the panic keeps serving.
        for _ in 0..3 {
            assert_eq!(get(handle.addr(), "/ontologies").0, 200);
        }
        handle.join();
    }

    fn get_after_shutdown(addr: SocketAddr) -> bool {
        // A connect may still succeed briefly (listen backlog); a full
        // exchange must not.
        let Ok(mut s) = TcpStream::connect(addr) else {
            return true;
        };
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let _ = write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        let mut buf = [0u8; 1];
        !matches!(s.read(&mut buf), Ok(n) if n > 0)
    }
}
