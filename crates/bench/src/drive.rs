//! Nonblocking multi-connection HTTP load driver.
//!
//! `loadgen`'s original closed-loop mode holds one OS thread per
//! client, which tops out around a few hundred connections. This
//! driver multiplexes *thousands* of keep-alive connections on a
//! single thread over [`questpro_server::sys::Poller`] — the same
//! readiness facade the server's event loop runs on — so one loadgen
//! process can hold 10k sockets against a server process on the same
//! host.
//!
//! Two arrival disciplines:
//!
//! * **closed loop** (`rate: None`) — every connection keeps exactly
//!   one request in flight; the next request leaves the moment the
//!   response lands. Throughput is whatever the server sustains.
//! * **open loop** (`rate: Some(rps)`) — requests are *scheduled* on a
//!   fixed global timetable (`i / rate` after start) independent of
//!   how fast the server answers, and each latency is measured from
//!   the request's **scheduled** time, not its send time. A request
//!   whose turn arrives while every connection is busy waits in a
//!   backlog and its queueing delay counts against the server — the
//!   standard guard against coordinated omission.
//!
//! Every response can be checked byte-for-byte against a reference
//! body (`expect_body`), carrying the repo's equivalence discipline
//! (server answers ≡ library one-shot answers) into the load path.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use questpro_server::sys::{Event, Interest, Poller};

/// Readiness events taken per poller wait.
const EVENTS_PER_WAIT: usize = 256;

/// What to run; see the module docs for the two disciplines.
pub struct DriveConfig {
    /// Server to hammer.
    pub addr: SocketAddr,
    /// Concurrent keep-alive connections to hold open.
    pub connections: usize,
    /// One pre-serialized keep-alive HTTP/1.1 request, reused verbatim
    /// on every send.
    pub request: Vec<u8>,
    /// Total requests across all connections.
    pub total_requests: usize,
    /// Open-loop arrival rate in requests/second; `None` = closed loop.
    pub rate: Option<f64>,
    /// Reference body every `200` response must match byte-for-byte;
    /// `None` skips the check.
    pub expect_body: Option<Vec<u8>>,
    /// Hard wall-clock cap on the whole run; anything unanswered at
    /// the deadline is counted as an error, never waited for.
    pub timeout: Duration,
}

/// What happened; quantiles are the caller's job (`latencies_us` is
/// raw and unsorted).
#[derive(Debug, Default)]
pub struct DriveReport {
    /// Connections that finished the handshake.
    pub connected: usize,
    /// Requests that left the socket (or were scheduled and then
    /// abandoned at the deadline).
    pub sent: usize,
    /// `200` responses.
    pub ok: usize,
    /// Non-200s, dead connections with a request in flight, and
    /// requests still unanswered at the deadline.
    pub errors: usize,
    /// `200` responses whose body differed from `expect_body`.
    pub mismatches: usize,
    /// Per-request latency, µs, measured from the scheduled time
    /// (open loop) or the send time (closed loop).
    pub latencies_us: Vec<u64>,
    /// Total run duration.
    pub wall: Duration,
}

/// One multiplexed connection. At most one request is in flight per
/// connection; `wpos` indexes into the shared request bytes.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Bytes of the shared request already written; `None` when not
    /// currently writing.
    wpos: Option<usize>,
    /// Scheduled-or-send instant of the in-flight request.
    t0: Option<Instant>,
    /// What the poller registration is armed for; `None` once an event
    /// for it was reported (registrations are one-shot).
    interest: Option<Interest>,
    dead: bool,
}

impl Conn {
    fn in_flight(&self) -> bool {
        self.t0.is_some()
    }
}

/// Runs the configured load and blocks until every scheduled request
/// is resolved (answered, failed, or abandoned at the deadline).
///
/// # Errors
/// Setup failures only — binding the poller or failing to establish
/// *any* connection. Once the run starts, per-connection trouble is
/// reported in the [`DriveReport`], not as an `Err`.
pub fn run(cfg: &DriveConfig) -> io::Result<DriveReport> {
    let mut report = DriveReport::default();
    let poller = Poller::new()?;

    // Establish every connection up front, blocking: loopback
    // handshakes complete in the kernel's accept backlog long before
    // the server's userspace accept runs, so sequential connects are
    // fast even at 10k. The measured window only starts afterwards.
    let mut conns: Vec<Conn> = Vec::with_capacity(cfg.connections);
    for i in 0..cfg.connections {
        let stream = match TcpStream::connect(cfg.addr) {
            Ok(s) => s,
            Err(e) if conns.is_empty() => return Err(e),
            Err(_) => break, // partial fleet: report what we got
        };
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        poller.add(stream.as_raw_fd(), Interest::READ, i)?;
        conns.push(Conn {
            stream,
            rbuf: Vec::new(),
            wpos: None,
            t0: None,
            interest: Some(Interest::READ),
            dead: false,
        });
    }
    report.connected = conns.len();

    let started = Instant::now();
    let deadline = started + cfg.timeout;
    let rate = cfg.rate.filter(|r| *r > 0.0);
    // Open loop: requests whose scheduled instant has passed but for
    // which no connection was idle yet. Closed loop leaves this empty.
    let mut backlog: VecDeque<Instant> = VecDeque::new();
    let mut scheduled = 0usize; // open-loop requests released so far
    let mut dispatched = 0usize; // requests handed to a connection
    let mut resolved = 0usize; // ok + errors + mismatch-200s
    let mut idle: Vec<usize> = (0..conns.len()).rev().collect();
    let mut events: Vec<Event> = Vec::new();

    // Closed loop starts saturated: one request per connection.
    if rate.is_none() {
        while dispatched < cfg.total_requests {
            let Some(i) = idle.pop() else { break };
            start_request(&mut conns[i], i, Instant::now(), &poller, cfg);
            dispatched += 1;
        }
    }

    while resolved < cfg.total_requests && Instant::now() < deadline {
        // Release open-loop arrivals that are due, then drain the
        // backlog onto idle connections (oldest scheduled first).
        if let Some(rate) = rate {
            let now = Instant::now();
            while scheduled < cfg.total_requests {
                let due = started + Duration::from_secs_f64(scheduled as f64 / rate);
                if due > now {
                    break;
                }
                backlog.push_back(due);
                scheduled += 1;
            }
            while let Some(&due) = backlog.front() {
                let Some(i) = idle.pop() else { break };
                backlog.pop_front();
                start_request(&mut conns[i], i, due, &poller, cfg);
                dispatched += 1;
            }
        }

        // Park until the next arrival is due or a socket turns over.
        let wait_ms = match rate {
            _ if !backlog.is_empty() => 1,
            None => 50,
            Some(rate) => {
                let next = started + Duration::from_secs_f64(scheduled as f64 / rate);
                let ms = next
                    .saturating_duration_since(Instant::now())
                    .as_millis()
                    .min(50) as i32;
                ms.max(if scheduled < cfg.total_requests {
                    1
                } else {
                    50
                })
            }
        };
        events.clear();
        poller.wait(wait_ms, EVENTS_PER_WAIT, &mut events)?;

        for ev in &events {
            let i = ev.token;
            let Some(conn) = conns.get_mut(i) else {
                continue;
            };
            if conn.dead {
                continue;
            }
            conn.interest = None;
            if ev.error {
                kill(conn, i, &mut idle, &poller, &mut report, &mut resolved);
                continue;
            }
            if ev.writable && conn.wpos.is_some() {
                flush_write(conn, i, &poller, cfg);
            }
            if ev.readable {
                match drain_read(conn) {
                    Ok(eof) => {
                        settle_responses(conn, i, cfg, &mut report, &mut resolved, &mut idle);
                        if eof {
                            kill(conn, i, &mut idle, &poller, &mut report, &mut resolved);
                            continue;
                        }
                    }
                    Err(_) => {
                        kill(conn, i, &mut idle, &poller, &mut report, &mut resolved);
                        continue;
                    }
                }
            }
            // A freed closed-loop connection immediately takes the
            // next request; open-loop idlers wait for the timetable.
            if rate.is_none() && !conn.dead && !conn.in_flight() && dispatched < cfg.total_requests
            {
                if let Some(pos) = idle.iter().rposition(|&x| x == i) {
                    idle.swap_remove(pos);
                    start_request(&mut conns[i], i, Instant::now(), &poller, cfg);
                    dispatched += 1;
                }
            }
            let conn = &mut conns[i];
            if !conn.dead {
                let want = Interest {
                    read: true,
                    write: conn.wpos.is_some(),
                };
                rearm(conn, i, want, &poller);
            }
        }

        if conns.iter().all(|c| c.dead) {
            break; // nobody left to carry the remaining requests
        }
    }

    // Anything still unresolved — in flight at the deadline, backlog
    // never dispatched, or stranded by dead connections — is an error.
    report.sent = dispatched;
    report.errors += cfg.total_requests - resolved;
    report.wall = started.elapsed();
    Ok(report)
}

/// Arms `conn` with one copy of the shared request; `t0` is the
/// latency clock (scheduled time under open loop).
fn start_request(conn: &mut Conn, token: usize, t0: Instant, poller: &Poller, cfg: &DriveConfig) {
    conn.t0 = Some(t0);
    conn.wpos = Some(0);
    flush_write(conn, token, poller, cfg);
}

/// Writes as much of the pending request as the socket takes; arms
/// write interest only when the kernel buffer pushes back.
fn flush_write(conn: &mut Conn, token: usize, poller: &Poller, cfg: &DriveConfig) {
    let Some(mut pos) = conn.wpos else { return };
    while pos < cfg.request.len() {
        match conn.stream.write(&cfg.request[pos..]) {
            Ok(0) => break,
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // The read path will surface the failure as EOF/error.
                pos = cfg.request.len();
                break;
            }
        }
    }
    conn.wpos = (pos < cfg.request.len()).then_some(pos);
    let want = Interest {
        read: true,
        write: conn.wpos.is_some(),
    };
    rearm(conn, token, want, poller);
}

/// Reads everything currently available; `Ok(true)` on EOF.
fn drain_read(conn: &mut Conn) -> io::Result<bool> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Ok(true),
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Consumes every complete response in `conn.rbuf`; each one resolves
/// the in-flight request and returns the connection to the idle pool.
fn settle_responses(
    conn: &mut Conn,
    token: usize,
    cfg: &DriveConfig,
    report: &mut DriveReport,
    resolved: &mut usize,
    idle: &mut Vec<usize>,
) {
    while let Some((status, body_start, body_len)) = parse_response(&conn.rbuf) {
        if conn.rbuf.len() < body_start + body_len {
            break; // head complete, body still arriving
        }
        let Some(t0) = conn.t0.take() else {
            conn.rbuf.clear(); // unsolicited bytes: drop and move on
            break;
        };
        report
            .latencies_us
            .push(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        if status == 200 {
            report.ok += 1;
            if let Some(want) = &cfg.expect_body {
                if &conn.rbuf[body_start..body_start + body_len] != want.as_slice() {
                    report.mismatches += 1;
                }
            }
        } else {
            report.errors += 1;
        }
        *resolved += 1;
        conn.rbuf.drain(..body_start + body_len);
        idle.push(token);
    }
}

/// Parses one response head: `(status, body_start, content_length)`;
/// `None` while the head terminator has not arrived.
fn parse_response(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    Some((status, head_end, content_length))
}

fn rearm(conn: &mut Conn, token: usize, want: Interest, poller: &Poller) {
    if conn.interest != Some(want) && poller.rearm(conn.stream.as_raw_fd(), want, token).is_ok() {
        conn.interest = Some(want);
    }
}

/// Retires a connection: deregisters it, purges it from the idle pool,
/// and charges any in-flight request as an error.
fn kill(
    conn: &mut Conn,
    token: usize,
    idle: &mut Vec<usize>,
    poller: &Poller,
    report: &mut DriveReport,
    resolved: &mut usize,
) {
    if conn.dead {
        return;
    }
    conn.dead = true;
    poller.remove(conn.stream.as_raw_fd()).ok();
    // When a response and the peer's FIN arrive in one event batch,
    // settle_responses has already returned this token to the idle
    // pool; left there, a dispatcher would arm a request on the dead
    // socket — a request that can never resolve — and stall the run
    // to its wall-clock deadline.
    if let Some(pos) = idle.iter().position(|&x| x == token) {
        idle.swap_remove(pos);
    }
    if conn.t0.take().is_some() {
        report.errors += 1;
        *resolved += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Serves one stub connection: every request gets `body`, except
    /// the `die_after`-th request, after which the stub hangs up
    /// without answering.
    fn serve_stub_conn(
        stream: TcpStream,
        body: &'static str,
        die_after: Option<usize>,
        counter: &AtomicUsize,
    ) {
        let mut writer = stream.try_clone().expect("cloning the stub socket");
        let mut reader = BufReader::new(stream);
        let mut answered = 0usize;
        loop {
            // Read one request head + declared body.
            let mut line = String::new();
            if reader.read_line(&mut line).map_or(true, |n| n == 0) {
                return;
            }
            let mut content_length = 0usize;
            loop {
                let mut header = String::new();
                if reader.read_line(&mut header).map_or(true, |n| n == 0) {
                    return;
                }
                let header = header.trim_end();
                if header.is_empty() {
                    break;
                }
                if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().unwrap_or(0);
                }
            }
            let mut body_buf = vec![0u8; content_length];
            if reader.read_exact(&mut body_buf).is_err() {
                return;
            }
            if die_after.is_some_and(|n| answered >= n) {
                return; // hang up with the request unanswered
            }
            let resp = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            if writer.write_all(resp.as_bytes()).is_err() {
                return;
            }
            answered += 1;
            counter.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A keep-alive stub server; `die_after` applies per connection.
    fn stub(body: &'static str, die_after: Option<usize>) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding the stub");
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&served);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || serve_stub_conn(stream, body, die_after, &counter));
            }
        });
        (addr, served)
    }

    fn a_request() -> Vec<u8> {
        b"GET /x HTTP/1.1\r\nHost: t\r\n\r\n".to_vec()
    }

    #[test]
    fn closed_loop_answers_everything_byte_identically() {
        let (addr, served) = stub("pong-body", None);
        let report = run(&DriveConfig {
            addr,
            connections: 8,
            request: a_request(),
            total_requests: 48,
            rate: None,
            expect_body: Some(b"pong-body".to_vec()),
            timeout: Duration::from_secs(20),
        })
        .expect("driving the stub");
        assert_eq!(report.connected, 8);
        assert_eq!(report.ok, 48, "errors={}", report.errors);
        assert_eq!(report.errors, 0);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.latencies_us.len(), 48);
        assert_eq!(served.load(Ordering::SeqCst), 48);
    }

    #[test]
    fn body_divergence_is_counted_not_hidden() {
        let (addr, _) = stub("actual", None);
        let report = run(&DriveConfig {
            addr,
            connections: 2,
            request: a_request(),
            total_requests: 6,
            rate: None,
            expect_body: Some(b"expected".to_vec()),
            timeout: Duration::from_secs(20),
        })
        .expect("driving the stub");
        assert_eq!(report.ok, 6, "divergent 200s still count as answered");
        assert_eq!(report.mismatches, 6, "every body diverged");
    }

    #[test]
    fn open_loop_paces_arrivals_and_finishes() {
        let (addr, _) = stub("ok", None);
        let started = Instant::now();
        let report = run(&DriveConfig {
            addr,
            connections: 4,
            request: a_request(),
            total_requests: 100,
            rate: Some(1000.0),
            expect_body: Some(b"ok".to_vec()),
            timeout: Duration::from_secs(20),
        })
        .expect("driving the stub");
        assert_eq!(report.ok, 100, "errors={}", report.errors);
        assert_eq!(report.mismatches, 0);
        // 100 arrivals at 1000/s occupy ≥ ~100ms of timetable: the
        // open loop must actually pace, not blast.
        assert!(
            started.elapsed() >= Duration::from_millis(80),
            "open loop finished implausibly fast: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn open_loop_purges_dead_connections_from_the_idle_pool() {
        // The first accepted connection answers one request and closes
        // immediately, so its response and FIN reach the driver in one
        // event batch: settle_responses returns the token to the idle
        // pool, then the EOF kills the connection. The second
        // connection serves forever. If the kill leaves the stale
        // token in the pool, the next open-loop arrival is armed on
        // the dead socket and can never resolve, and — with a live
        // peer still around — the run rides the full wall-clock
        // deadline instead of finishing in milliseconds.
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding the stub");
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut first = true;
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                if first {
                    first = false;
                    std::thread::spawn(move || {
                        let mut seen = Vec::new();
                        let mut buf = [0u8; 1024];
                        while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                            match stream.read(&mut buf) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => seen.extend_from_slice(&buf[..n]),
                            }
                        }
                        let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
                        // drop closes: the FIN rides right behind the
                        // response bytes
                    });
                } else {
                    std::thread::spawn(move || {
                        serve_stub_conn(stream, "ok", None, &AtomicUsize::new(0));
                    });
                }
            }
        });
        let started = Instant::now();
        let report = run(&DriveConfig {
            addr,
            connections: 2,
            request: a_request(),
            total_requests: 8,
            rate: Some(100.0),
            expect_body: None,
            timeout: Duration::from_secs(10),
        })
        .expect("driving the stub");
        assert_eq!(
            report.ok + report.errors,
            8,
            "every request must resolve: {report:?}"
        );
        assert!(
            report.ok >= 7,
            "the surviving connection carries the load: {report:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(6),
            "a dead idle-pool entry must not stall the run: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn dead_connections_become_errors_not_hangs() {
        // Every connection answers exactly one request, then hangs up
        // mid-conversation; the driver must charge errors and return
        // well before the safety deadline.
        let (addr, _) = stub("once", Some(1));
        let started = Instant::now();
        let report = run(&DriveConfig {
            addr,
            connections: 3,
            request: a_request(),
            total_requests: 12,
            rate: None,
            expect_body: None,
            timeout: Duration::from_secs(8),
        })
        .expect("driving the stub");
        assert_eq!(report.ok, 3, "one answer per connection");
        assert_eq!(report.errors, 9, "the rest must be charged as errors");
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "dead fleet must short-circuit, not ride the deadline"
        );
    }
}
