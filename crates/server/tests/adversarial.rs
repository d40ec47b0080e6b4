//! Adversarial socket battery.
//!
//! Every test here plays a hostile or broken client against a live
//! server over raw `TcpStream`s: slow-loris trickles, mid-request
//! disconnects, deep pipelines, oversized heads, and silent idlers.
//! The contract under test is uniform — each abuse ends in a *named*
//! 4xx or a classified timeout close, the connection slot is
//! reclaimed, and the server keeps answering `/healthz` afterwards.
//! Nothing here may panic the process or wedge the event loop.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use questpro_server::{start, ServerConfig, ServerHandle};

/// A server with deliberately twitchy timeouts so loris/idle tests
/// run in milliseconds, not the production five seconds.
fn boot_twitchy() -> ServerHandle {
    start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 16,
        max_body: 64 * 1024,
        read_timeout_ms: 300,
        write_timeout_ms: 1_000,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port")
}

/// One request on a fresh connection; returns `(status, body)`.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: adv\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("writing the request");
    read_response(&mut BufReader::new(stream)).expect("a parseable response")
}

/// Parses one `(status, body)` response off the reader; `None` when
/// the peer closed before a status line arrived.
fn read_response(reader: &mut impl BufRead) -> Option<(u16, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let status: u16 = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).ok()?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some(v) = trimmed
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().ok()?;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, String::from_utf8(body).ok()?))
}

/// The server must still answer cleanly on a *fresh* connection —
/// the after-every-abuse invariant.
fn assert_healthy(addr: SocketAddr) {
    let (status, body) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "server must stay healthy, got {body}");
}

/// Scrapes one counter/gauge value off `/metrics`.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, scrape) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from scrape"))
}

/// Polls a metric until it reaches at least `want` (event-loop ticks
/// run every 50ms; deadlines are not instant).
fn await_metric_at_least(addr: SocketAddr, name: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = metric(addr, name);
        if got >= want || Instant::now() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn slow_loris_gets_a_named_408_not_a_held_slot() {
    let server = boot_twitchy();
    let addr = server.addr();
    let before = metric(addr, "questpro_http_request_timeouts_total");

    // Trickle a valid request one byte at a time, always staying
    // inside the per-byte pace a naive "reset on every byte" timeout
    // would tolerate. The deadline is pinned to the *first* byte, so
    // the trickle must still die with a named 408.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = b"GET /healthz HTTP/1.1\r\nHost: loris\r\n";
    let started = Instant::now();
    let mut sent_all = true;
    for &b in head.iter() {
        if stream.write_all(&[b]).is_err() {
            sent_all = false; // server already gave up on us — fine
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
        if started.elapsed() > Duration::from_secs(5) {
            break; // safety valve; the 300ms deadline fired long ago
        }
    }
    let response = read_response(&mut BufReader::new(&mut stream));
    if let Some((status, body)) = response {
        assert_eq!(status, 408, "a loris earns a named timeout: {body}");
        assert!(body.contains("timed out"), "{body}");
    } else {
        // The 408 write can race the close; the RST eating the
        // response is acceptable only if the timeout was counted.
        assert!(!sent_all || started.elapsed() > Duration::from_millis(300));
    }
    let after = await_metric_at_least(addr, "questpro_http_request_timeouts_total", before + 1);
    assert!(after > before, "the loris must hit the 408 counter");
    assert_healthy(addr);
    server.shutdown();
    server.join();
}

#[test]
fn mid_request_disconnect_reclaims_the_connection() {
    let server = boot_twitchy();
    let addr = server.addr();

    for _ in 0..8 {
        // Half a request head, then vanish. Repeatedly, so a leaked
        // slot or a panicking reaper would compound and show up.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /infer HTTP/1.1\r\nContent-Length: 5000\r\n\r\npartial")
            .unwrap();
        stream.shutdown(Shutdown::Both).unwrap();
        drop(stream);
    }
    // Every aborted connection must be reclaimed: the open-connection
    // gauge converges to just the scraping connection itself.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = metric(addr, "questpro_http_connections_open");
        if open <= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "aborted connections leaked: {open} still open"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_healthy(addr);
    server.shutdown();
    server.join();
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let server = boot_twitchy();
    let addr = server.addr();

    // Ten requests in one write, no waiting: responses must come back
    // strictly in request order, on the same connection, including an
    // inline route sandwiched between pooled ones.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut burst = String::new();
    for i in 0..10 {
        let path = if i % 2 == 0 {
            "/healthz"
        } else {
            "/ontologies"
        };
        burst.push_str(&format!("GET {path} HTTP/1.1\r\nHost: pipe\r\n\r\n"));
    }
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..10 {
        let (status, body) = read_response(&mut reader).expect("one response per request");
        assert_eq!(status, 200, "pipelined response {i}");
        if i % 2 == 0 {
            assert!(body.contains("ok"), "response {i} out of order: {body}");
        } else {
            assert!(
                body.contains("ontologies"),
                "response {i} out of order: {body}"
            );
        }
    }
    assert_healthy(addr);
    server.shutdown();
    server.join();
}

#[test]
fn oversized_head_is_rejected_with_431() {
    let server = boot_twitchy();
    let addr = server.addr();

    // A single header far past MAX_HEAD_BYTES (16 KiB). The server
    // must refuse with a named 431 without buffering forever — and it
    // may close mid-upload, so the client must tolerate a broken pipe.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nHost: big\r\nX-Flood: {}\r\n\r\n",
        "a".repeat(64 * 1024)
    );
    match stream.write_all(huge.as_bytes()) {
        Ok(()) => {}
        Err(e) if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) => {}
        Err(e) => panic!("unexpected write error: {e}"),
    }
    if let Some((status, body)) = read_response(&mut BufReader::new(stream)) {
        assert_eq!(status, 431, "{body}");
        assert!(body.contains("head too large"), "{body}");
    }
    assert_healthy(addr);
    server.shutdown();
    server.join();
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let server = boot_twitchy();
    let addr = server.addr();
    // Declared length over max_body: rejected from the *header* alone,
    // before any body bytes arrive.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /infer HTTP/1.1\r\nHost: big\r\nContent-Length: 10000000\r\n\r\n")
        .unwrap();
    let (status, body) =
        read_response(&mut BufReader::new(stream)).expect("a rejection, not a hang");
    assert_eq!(status, 413, "{body}");
    assert_healthy(addr);
    server.shutdown();
    server.join();
}

#[test]
fn idle_keepalive_connections_are_silently_expired() {
    let server = boot_twitchy();
    let addr = server.addr();
    let before = metric(addr, "questpro_http_keepalive_timeouts_total");

    // Connect-and-say-nothing, five times over. Idle expiry is
    // *silent*: the socket just closes, with no response bytes — an
    // idle peer has no outstanding request to answer.
    let mut idlers: Vec<TcpStream> = (0..5)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    for s in &mut idlers {
        let mut buf = Vec::new();
        s.read_to_end(&mut buf)
            .expect("a clean close, not an error");
        assert!(buf.is_empty(), "idle close must not write bytes: {buf:?}");
    }
    let after = await_metric_at_least(addr, "questpro_http_keepalive_timeouts_total", before + 5);
    assert!(
        after >= before + 5,
        "all five idlers must hit the keepalive counter ({before} -> {after})"
    );
    assert_healthy(addr);
    server.shutdown();
    server.join();
}

#[test]
fn garbage_bytes_get_a_400_and_never_crash() {
    let server = boot_twitchy();
    let addr = server.addr();
    for garbage in [
        &b"\x00\x01\x02\x03\x04garbage\r\n\r\n"[..],
        &b"GET\r\n\r\n"[..],
        &b"GET /healthz HTTP/9.9\r\n\r\n"[..],
        &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(garbage).unwrap();
        let (status, _) =
            read_response(&mut BufReader::new(stream)).expect("a named rejection, not a hang");
        assert_eq!(status, 400, "garbage {garbage:?}");
    }
    assert_healthy(addr);
    server.shutdown();
    server.join();
}

#[test]
fn connection_cap_sheds_with_503_and_recovers() {
    let server = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 16,
        max_conns: 8,
        read_timeout_ms: 60_000, // idlers must survive the test window
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = server.addr();

    // Fill the table with idle keep-alive connections, then one more:
    // the surplus connection gets an eager 503 and a close instead of
    // an accept — shed at the door, not queued into oblivion.
    let held: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut shed = 0;
    for _ in 0..5 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        if let Some((status, _)) = read_response(&mut BufReader::new(&mut s)) {
            assert_eq!(status, 503, "over-cap connections are shed with 503");
            shed += 1;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(shed >= 1, "at least one over-cap connection must see a 503");
    // Releasing capacity must make the server reachable again.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n");
        if let Some((200, _)) = read_response(&mut BufReader::new(s)) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never recovered from shed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    server.join();
}

/// Gate for the two-worker battery: with a single host CPU two workers
/// never actually interleave, so the tests below would pass
/// vacuously. Report the skip honestly (the same policy as bench.sh's
/// monotone-speedup assert) instead of pretending coverage.
fn host_has_two_cpus() -> bool {
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cpus < 2 {
        eprintln!(
            "skip — the two-worker battery needs >1 CPU (host has {cpus}); \
             rerun on a multi-core host for real multi-worker coverage"
        );
        return false;
    }
    true
}

#[test]
fn pipelined_requests_answer_in_order_on_two_workers() {
    if !host_has_two_cpus() {
        return;
    }
    let server = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 16,
        read_timeout_ms: 10_000,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = server.addr();

    // Four concurrent connections on two workers, so ordering is
    // exercised on each worker while the other is busy and requests
    // queue behind both. Each connection fires a ten-deep pipeline of
    // inline and CPU-bound routes in one write and must get its
    // responses back strictly in order.
    let handles: Vec<_> = (0..4)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut burst = String::new();
                for i in 0..10 {
                    let path = if i % 2 == 0 {
                        "/healthz"
                    } else {
                        "/ontologies"
                    };
                    burst.push_str(&format!("GET {path} HTTP/1.1\r\nHost: pipe2\r\n\r\n"));
                }
                stream.write_all(burst.as_bytes()).unwrap();
                let mut reader = BufReader::new(stream);
                for i in 0..10 {
                    let (status, body) =
                        read_response(&mut reader).expect("one response per request");
                    assert_eq!(status, 200, "conn {conn} pipelined response {i}");
                    if i % 2 == 0 {
                        assert!(body.contains("ok"), "conn {conn} response {i}: {body}");
                    } else {
                        assert!(
                            body.contains("ontologies"),
                            "conn {conn} response {i} out of order: {body}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("pipeline thread");
    }
    assert_healthy(addr);
    server.shutdown();
    server.join();
}

#[test]
fn connection_cap_sheds_with_503_on_two_workers() {
    if !host_has_two_cpus() {
        return;
    }
    // The cap is global: whichever worker accepts the surplus
    // connection sheds it.
    let server = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 16,
        max_conns: 8,
        read_timeout_ms: 60_000, // idlers must survive the test window
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = server.addr();

    let held: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut shed = 0;
    for _ in 0..6 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        if let Some((status, _)) = read_response(&mut BufReader::new(&mut s)) {
            assert_eq!(status, 503, "over-cap connections are shed with 503");
            shed += 1;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(shed >= 1, "at least one over-cap connection must see a 503");
    // Releasing capacity makes the server reachable again.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut recovered = 0;
    while recovered < 6 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n");
        if let Some((200, _)) = read_response(&mut BufReader::new(s)) {
            recovered += 1;
        } else {
            assert!(
                Instant::now() < deadline,
                "server never recovered from shed (got {recovered} healthy answers)"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    server.shutdown();
    server.join();
}
