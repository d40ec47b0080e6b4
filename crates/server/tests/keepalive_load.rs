//! The equivalence claim under connection load, in a process of its
//! own: its 312 traced requests would otherwise evict other tests'
//! traces from the process-wide trace registry (256 by default) while
//! those tests look them up.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use questpro_server::{start, ServerConfig};
use questpro_wire::Json;

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

fn json_metric(scrape: &str, name: &str) -> u64 {
    scrape
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn eval_is_byte_identical_under_keepalive_concurrency() {
    // The equivalence claim at scale: with 100+ keep-alive connections
    // hammering `/eval` concurrently through the shared poller and the
    // workers, every response body is byte-for-byte the reference answer.
    // The queue is sized above the connection count so nothing sheds —
    // shedding is exercised elsewhere; this test isolates equivalence.
    let server = start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue: 1024,
        max_body: 64 * 1024,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = server.addr();

    let world = Json::obj([
        ("name", Json::str("diffworld")),
        ("triples", Json::str("a knows b\nb knows c\nc knows a\n")),
    ])
    .to_text();
    assert_eq!(call(addr, "POST", "/ontologies", Some(&world)).0, 201);
    let eval = Json::obj([
        ("ontology", Json::str("diffworld")),
        ("query", Json::str("SELECT ?x WHERE { ?x :knows ?y . }")),
    ])
    .to_text();
    let (status, reference) = call(addr, "POST", "/eval", Some(&eval));
    assert_eq!(status, 200, "reference eval failed: {reference}");

    const CONNS: usize = 104;
    const REQS_PER_CONN: usize = 3;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(CONNS));
    let workers: Vec<_> = (0..CONNS)
        .map(|_| {
            let eval = eval.clone();
            let reference = reference.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connecting");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                // All connections are open before any request flows:
                // the server genuinely holds CONNS sockets at once.
                barrier.wait();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for i in 0..REQS_PER_CONN {
                    write!(
                        stream,
                        "POST /eval HTTP/1.1\r\nHost: diff\r\nContent-Length: {}\r\n\r\n{eval}",
                        eval.len()
                    )
                    .expect("writing a keep-alive request");
                    let (status, body) = read_response(&mut reader);
                    assert_eq!(status, 200, "request {i}: {body}");
                    assert_eq!(body, reference, "request {i} diverged from reference");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no client thread may panic");
    }

    // The scrape proves the load was real: every connection accepted,
    // every request answered.
    let (status, scrape) = call(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        json_metric(&scrape, "questpro_http_connections_accepted_total") >= CONNS as u64,
        "all keep-alive connections must be accepted"
    );
    server.join();
}
