//! Per-connection state for the event loop.
//!
//! A [`Conn`] owns one nonblocking [`TcpStream`] plus the byte buffers
//! and flags that turn readiness events into HTTP/1.1 keep-alive
//! exchanges:
//!
//! * bytes arrive into `rbuf` on readable events; the incremental
//!   parser ([`crate::http::parse_request`]) carves complete requests
//!   off its front, leaving pipelined followers in place;
//! * while a request is **in flight** — its handler running, or its
//!   request waiting for a free worker — the serving thread holds the
//!   connection and its poller registration stays disarmed: unread
//!   bytes stay in the kernel socket buffer, which is TCP backpressure
//!   for free, and no timeout runs, so a legitimately slow inference
//!   never kills its connection;
//! * responses serialize into `wbuf` and drain on writable events;
//!   responses are queued strictly in request order, so pipelining
//!   cannot reorder.
//!
//! Timeouts are classified rather than uniform (the adversarial battery
//! pins each one):
//!
//! * **idle** — an empty connection between requests outlives the read
//!   timeout: closed silently and counted as a keep-alive timeout,
//!   exactly like the blocking server did;
//! * **partial** — a request started but its bytes stalled (slow-loris):
//!   a named `408` response, counted separately. The clock runs from
//!   the *first* byte of the request, not the latest one, so trickling
//!   one header byte per interval cannot hold a connection open. For a
//!   pipelined tail buffered behind an in-flight request the clock
//!   re-bases when that request is answered — time spent waiting on our
//!   own workers is never charged to the peer;
//! * **write-stall** — the peer stopped draining our response: closed
//!   silently once the write timeout elapses.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::http::{encode_response, parse_request, ReadError, Request, Response};
use crate::sys::Interest;

/// Bytes read from the socket per readable event, to bound the time one
/// connection can monopolize its thread. A re-armed registration
/// re-reports any leftover immediately, so fairness costs no
/// correctness.
const READ_BURST: usize = 64 * 1024;

/// Which timeout a [`Conn::deadline`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineKind {
    /// Idle keep-alive connection between requests → silent close.
    Idle,
    /// A request's bytes stalled mid-parse → named `408`.
    Partial,
    /// The peer stopped draining our response → silent close.
    WriteStall,
}

/// What a readable event produced.
#[derive(Debug, Clone, Copy)]
pub struct ReadStatus {
    /// Bytes appended to the read buffer.
    pub bytes: usize,
    /// The peer half-closed (or closed) its sending side.
    pub eof: bool,
}

/// One live connection; see the module docs.
pub struct Conn {
    /// The nonblocking socket (owned: dropping the `Conn` closes it).
    pub stream: TcpStream,
    /// Received-but-unparsed bytes (partial request + pipelined tail).
    rbuf: Vec<u8>,
    /// Serialized-but-unsent response bytes.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has already been written.
    wpos: usize,
    /// Close once `wbuf` fully drains.
    pub close_after_write: bool,
    /// The peer's sending side reported EOF.
    pub peer_closed: bool,
    /// When the connection last became idle (created, or finished an
    /// exchange with nothing buffered).
    idle_since: Instant,
    /// When `rbuf` last went from empty to non-empty — the start of the
    /// current request's arrival, never reset by later bytes.
    request_started: Option<Instant>,
    /// When the current `wbuf` backlog started draining.
    write_started: Option<Instant>,
}

impl Conn {
    /// Wraps a freshly accepted (already nonblocking) socket.
    pub fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            close_after_write: false,
            peer_closed: false,
            idle_since: now,
            request_started: None,
            write_started: None,
        }
    }

    /// Pulls available bytes into the read buffer (bounded by
    /// `READ_BURST` per call).
    ///
    /// # Errors
    /// A hard socket error; the caller closes the connection.
    pub fn on_readable(&mut self, now: Instant) -> io::Result<ReadStatus> {
        let mut total = 0;
        let mut eof = false;
        let mut chunk = [0u8; 8192];
        while total < READ_BURST {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    if self.rbuf.is_empty() && self.request_started.is_none() {
                        self.request_started = Some(now);
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if n < chunk.len() {
                        // Drained for now; anything that arrives later
                        // re-reports on the re-armed registration.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if eof {
            self.peer_closed = true;
        }
        Ok(ReadStatus { bytes: total, eof })
    }

    /// Carves the next complete request off the front of the read
    /// buffer, if one has fully arrived.
    ///
    /// # Errors
    /// The request is malformed or over a limit; see
    /// [`crate::http::parse_request`].
    pub fn take_request(&mut self, max_body: usize) -> Result<Option<Request>, ReadError> {
        match parse_request(&self.rbuf, max_body)? {
            Some((req, consumed)) => {
                self.rbuf.drain(..consumed);
                // The partial-request clock restarts only when the next
                // request's first byte arrives (or is already pipelined).
                self.request_started = if self.rbuf.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
                Ok(Some(req))
            }
            None => Ok(None),
        }
    }

    /// Re-bases the partial-request clock for any buffered follow-up
    /// bytes once the in-flight request is answered: nothing reads the
    /// socket while a request runs, so a pipelined tail could not make
    /// parse progress no matter how fast the peer sent it. Counting
    /// that span against the peer would 408 a connection whose only sin
    /// was waiting on a slow inference; the slow-loris guarantee still
    /// holds because the re-based clock never refreshes on later
    /// trickled bytes.
    pub fn complete_in_flight(&mut self, now: Instant) {
        if !self.rbuf.is_empty() {
            self.request_started = Some(now);
        }
    }

    /// Appends a serialized response to the write buffer (in request
    /// order) and records the close-after flag.
    pub fn queue_response(&mut self, resp: &Response) {
        if self.wbuf.is_empty() {
            self.write_started = Some(Instant::now());
        }
        self.wbuf.extend_from_slice(&encode_response(resp));
        if resp.close {
            self.close_after_write = true;
        }
    }

    /// Writes as much buffered response as the socket accepts.
    ///
    /// Returns `true` when the write buffer fully drained.
    ///
    /// # Errors
    /// A hard socket error (e.g. `EPIPE`); the caller closes.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        self.write_started = None;
        if self.rbuf.is_empty() {
            self.idle_since = Instant::now();
        }
        Ok(true)
    }

    /// Whether response bytes are waiting to be written.
    pub fn has_pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Whether unparsed request bytes are buffered.
    pub fn has_buffered_bytes(&self) -> bool {
        !self.rbuf.is_empty()
    }

    /// Idle: nothing buffered either way — the connection is purely
    /// waiting for the peer's next request.
    pub fn is_idle(&self) -> bool {
        self.rbuf.is_empty() && !self.has_pending_write()
    }

    /// The readiness interest this state wants: read until the peer
    /// closes its side, write only while response bytes are pending.
    /// Hang-up/error notifications are delivered regardless.
    pub fn wants(&self) -> Interest {
        Interest {
            read: !self.peer_closed,
            write: self.has_pending_write(),
        }
    }

    /// The earliest timeout applicable to the current state. Only
    /// connections parked in the poller are scanned: an in-flight
    /// request has no deadline, since a slow inference is bounded by
    /// the workers, not by its connection.
    pub fn deadline(
        &self,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> (Instant, DeadlineKind) {
        if let Some(started) = self.write_started {
            return (started + write_timeout, DeadlineKind::WriteStall);
        }
        if let Some(started) = self.request_started {
            if !self.rbuf.is_empty() {
                return (started + read_timeout, DeadlineKind::Partial);
            }
        }
        (self.idle_since + read_timeout, DeadlineKind::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn reads_parse_and_pipelined_requests_stay_buffered() {
        let (mut client, server) = pair();
        let now = Instant::now();
        let mut conn = Conn::new(server, now);
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let status = conn.on_readable(Instant::now()).unwrap();
        assert!(status.bytes > 0);
        let a = conn.take_request(1024).unwrap().expect("first request");
        assert_eq!(a.path, "/a");
        assert!(conn.has_buffered_bytes(), "pipelined /b stays buffered");
        let b = conn.take_request(1024).unwrap().expect("second request");
        assert_eq!(b.path, "/b");
        assert!(!conn.has_buffered_bytes());
    }

    #[test]
    fn deadline_classification_follows_state() {
        let (mut client, server) = pair();
        let t0 = Instant::now();
        let mut conn = Conn::new(server, t0);
        let rt = Duration::from_secs(5);
        let wt = Duration::from_secs(7);

        // Fresh connection: idle clock from creation.
        let (_, kind) = conn.deadline(rt, wt);
        assert_eq!(kind, DeadlineKind::Idle);

        // Partial bytes: the clock pins to the first byte's arrival.
        client.write_all(b"GET /x HT").unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let arrival = Instant::now();
        conn.on_readable(arrival).unwrap();
        assert!(conn.take_request(1024).unwrap().is_none());
        let (dl, kind) = conn.deadline(rt, wt);
        assert_eq!(kind, DeadlineKind::Partial);
        assert!(dl <= arrival + rt + Duration::from_millis(1));

        // More trickled bytes do NOT push the deadline out.
        client.write_all(b"TP/1.").unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        conn.on_readable(Instant::now()).unwrap();
        let (dl2, kind2) = conn.deadline(rt, wt);
        assert_eq!(kind2, DeadlineKind::Partial);
        assert_eq!(dl, dl2, "slow-loris cannot refresh its own deadline");

        // Pending write: write-stall clock.
        conn.queue_response(&Response::text(200, "ok"));
        let (_, kind) = conn.deadline(rt, wt);
        assert_eq!(kind, DeadlineKind::WriteStall);
    }

    #[test]
    fn completing_in_flight_rebases_the_pipelined_tail_clock() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, Instant::now());
        let rt = Duration::from_secs(5);
        let wt = Duration::from_secs(7);

        // A full request plus a pipelined partial tail arrive together.
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HT")
            .unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        conn.on_readable(Instant::now()).unwrap();
        let dispatch = Instant::now();
        let req = conn.take_request(1024).unwrap().expect("first request");
        assert_eq!(req.path, "/a");

        // The request runs a while (a slow inference is explicitly
        // supported), then completes: the tail's partial clock must
        // start at completion, not at dispatch, or the follow-up would
        // be 408'd instantly at the next deadline scan.
        std::thread::sleep(Duration::from_millis(30));
        let completion = Instant::now();
        conn.complete_in_flight(completion);
        let (dl, kind) = conn.deadline(rt, wt);
        assert_eq!(kind, DeadlineKind::Partial);
        assert!(
            dl >= completion + rt,
            "partial deadline must be measured from completion"
        );
        assert!(dl >= dispatch + rt);

        // With nothing buffered, completion leaves no partial clock.
        client.write_all(b"TP/1.1\r\n\r\n").unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        conn.on_readable(Instant::now()).unwrap();
        let req = conn.take_request(1024).unwrap().expect("second request");
        assert_eq!(req.path, "/b");
        conn.complete_in_flight(Instant::now());
        let (_, kind) = conn.deadline(rt, wt);
        assert_eq!(kind, DeadlineKind::Idle, "empty buffer means idle");
    }

    #[test]
    fn interest_tracks_pending_writes_and_peer_close() {
        let (_client, server) = pair();
        let mut conn = Conn::new(server, Instant::now());
        assert_eq!(conn.wants(), Interest::READ);
        conn.queue_response(&Response::text(200, "ok"));
        assert_eq!(conn.wants(), Interest::BOTH);
        conn.peer_closed = true;
        assert_eq!(conn.wants(), Interest::WRITE);
        conn.peer_closed = false;
        assert!(conn.flush().unwrap(), "a fresh socket drains immediately");
        assert_eq!(conn.wants(), Interest::READ);
        assert!(conn.is_idle());
    }
}
