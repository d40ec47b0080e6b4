//! The benchmark's HTTP/1.1 client: one blocking keep-alive connection
//! per driver thread, plus the `/metrics` text parser.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One serialized request, ready to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Full request bytes (head and body).
    pub bytes: Vec<u8>,
    /// Body length, for the `wire.bytes_in` counter.
    pub body_len: usize,
}

/// Builds a keep-alive request with an optional JSON body.
pub fn request(method: &str, path: &str, body: &str) -> Req {
    let mut bytes = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n").into_bytes();
    if !body.is_empty() {
        bytes.extend_from_slice(
            format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            )
            .as_bytes(),
        );
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(body.as_bytes());
    Req {
        bytes,
        body_len: body.len(),
    }
}

/// A response as the client saw it.
#[derive(Debug, Clone)]
pub struct Resp {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Send-to-last-byte latency.
    pub latency: Duration,
}

/// A keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout, so a
    /// wedged server fails the run instead of hanging it.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Writes `req` and reads exactly one response.
    pub fn exchange(&mut self, req: &Req) -> io::Result<Resp> {
        let t0 = Instant::now();
        self.stream.write_all(&req.bytes)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((status, start, len)) = parse_head(&self.buf)? {
                if self.buf.len() >= start + len {
                    let latency = t0.elapsed();
                    let body = self.buf[start..start + len].to_vec();
                    self.buf.drain(..start + len);
                    return Ok(Resp {
                        status,
                        body,
                        latency,
                    });
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// `(status, body_start, content_length)` once the head has arrived.
fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut len = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    Ok(Some((status, end + 4, len)))
}

/// One-shot request on a fresh connection.
pub fn fetch(addr: SocketAddr, req: &Req) -> io::Result<Resp> {
    Conn::connect(addr)?.exchange(req)
}

/// A `/metrics` scrape: every unlabelled or labelled sample line keyed
/// by its full series name (`name{labels}`).
#[derive(Debug, Clone, Default)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    /// Parses Prometheus text exposition.
    pub fn parse(text: &str) -> Scrape {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(series.to_string(), v);
                }
            }
        }
        Scrape(map)
    }

    /// Scrapes a running server.
    pub fn take(addr: SocketAddr) -> io::Result<Scrape> {
        let resp = fetch(addr, &request("GET", "/metrics", ""))?;
        Ok(Scrape::parse(&String::from_utf8_lossy(&resp.body)))
    }

    /// Every series' change from `before` to `self`.
    pub fn since(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// Adds `other`'s values series by series.
    pub fn add(&mut self, other: &Scrape) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// One series' value (0 when absent).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `(sum_ns, count)` of one route's handler-duration histogram.
    pub fn route(&self, label: &str) -> (f64, f64) {
        (
            self.get(&format!(
                "questpro_route_duration_ns_sum{{route=\"{label}\"}}"
            )),
            self.get(&format!(
                "questpro_route_duration_ns_count{{route=\"{label}\"}}"
            )),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_frame_their_bodies() {
        let r = request("POST", "/eval", "{}");
        let text = String::from_utf8(r.bytes).unwrap();
        assert!(text.starts_with("POST /eval HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let g = String::from_utf8(request("DELETE", "/sessions/3", "").bytes).unwrap();
        assert!(!g.contains("Content-Length"));
    }

    #[test]
    fn heads_parse_only_when_complete() {
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Le")
            .unwrap()
            .is_none());
        let buf = b"HTTP/1.1 201 Created\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse_head(buf).unwrap(), Some((201, buf.len() - 3, 3)));
    }

    #[test]
    fn scrapes_parse_labelled_series() {
        let s = Scrape::parse(
            "# HELP x y\nquestpro_route_duration_ns_sum{route=\"POST /eval\"} 1500\n\
             questpro_route_duration_ns_count{route=\"POST /eval\"} 3\nplain_total 7\n",
        );
        assert_eq!(s.route("POST /eval"), (1500.0, 3.0));
        assert_eq!(s.get("plain_total"), 7.0);
        assert_eq!(s.get("absent"), 0.0);
    }
}
