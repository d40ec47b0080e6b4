//! Structured, leveled event logging for QuestPro-RS, on `std` alone.
//!
//! The third observability pillar next to `/metrics` counters (PR 2)
//! and `questpro-trace` span trees (PR 3): a per-process record of
//! *what happened*, one JSON-lines event at a time, cheap enough to
//! leave compiled into every layer.
//!
//! * **Events.** [`emit`] records a leveled [`Event`] — timestamp,
//!   target, message, free-form key/value [`Value`] fields — and
//!   automatically attaches the current trace ID and innermost span
//!   name from `questpro-trace`, so a log line, a trace, and a metrics
//!   bucket join on one ID.
//! * **Cheap when off.** A single relaxed `AtomicU8` threshold gates
//!   every entry point: a disabled [`emit`] is one load and a compare.
//!   The bench harness (`exp_bench --log-overhead`) asserts the
//!   end-to-end overhead of disabled logging stays under 1%.
//! * **Lock-cheap when on.** Events buffer in a thread-local `Vec` and
//!   move to the global bounded ring in batches — one mutex touch per
//!   [`FLUSH_AT`] events (or per explicit [`flush`]), never per event.
//!   The ring evicts oldest-first with exact drop accounting, exactly
//!   like the trace registry: `emitted == drained + retained +
//!   dropped` at every quiescent point, a contract the concurrency
//!   battery asserts.
//! * **Sinks.** Besides the in-memory ring (served at
//!   `GET /debug/logs` and by `questpro logs`), an optional
//!   line-buffered writer ([`set_sink`]) receives every flushed event
//!   as one JSON line.
//! * **Flight recorder.** [`flight::install`] chains a panic hook that
//!   dumps the last events and currently open spans to stderr before
//!   unwinding.

pub mod flight;

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use questpro_trace::ring::Ring;
use questpro_wire::Json;

/// Event severity, ordered: `Trace < Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Per-operation detail (engine internals); high volume.
    Trace = 1,
    /// Per-stage summaries useful when debugging.
    Debug = 2,
    /// Request-level milestones; the default server threshold.
    Info = 3,
    /// Something degraded (slow query, shed load) but handled.
    Warn = 4,
    /// A request failed or a handler panicked.
    Error = 5,
}

impl Level {
    /// All levels, ascending.
    pub const ALL: [Level; 5] = [
        Level::Trace,
        Level::Debug,
        Level::Info,
        Level::Warn,
        Level::Error,
    ];

    /// Canonical lowercase name, as serialized in events.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level name, case-insensitively. `None` for unknown
    /// names — callers decide whether that is a 400 or a usage error.
    pub fn parse(s: &str) -> Option<Level> {
        Level::ALL
            .into_iter()
            .find(|l| l.as_str().eq_ignore_ascii_case(s))
    }
}

/// Threshold sentinel meaning "logging disabled".
const OFF: u8 = u8::MAX;

/// Minimum level recorded; `OFF` disables logging entirely. Relaxed
/// ordering is sufficient: the flag only gates best-effort recording.
static MIN_LEVEL: AtomicU8 = AtomicU8::new(OFF);

/// Total events accepted by [`emit`]/[`emit_traced`] since process
/// start (counted before buffering, so it is exact even when the ring
/// later drops events).
static EMITTED: AtomicU64 = AtomicU64::new(0);

/// Monotonic event sequence source; 0 is never issued.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// Sets the minimum recorded level; `None` disables logging.
pub fn set_level(level: Option<Level>) {
    MIN_LEVEL.store(level.map(|l| l as u8).unwrap_or(OFF), Ordering::Relaxed);
}

/// The current minimum recorded level; `None` when disabled.
pub fn level() -> Option<Level> {
    match MIN_LEVEL.load(Ordering::Relaxed) {
        OFF => None,
        raw => Level::ALL.into_iter().find(|l| *l as u8 == raw),
    }
}

/// Whether an event at `level` would be recorded. One relaxed load —
/// this is the whole cost of a disabled log statement, and call sites
/// that build fields eagerly should check it first.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 >= MIN_LEVEL.load(Ordering::Relaxed)
}

/// A typed field value. Conversions exist for the obvious Rust types
/// so call sites write `("rounds", n.into())`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// UTF-8 text.
    Str(String),
    /// Unsigned integer. Values above 2^53 lose precision in JSON.
    U64(u64),
    /// Signed integer. Values beyond ±2^53 lose precision in JSON.
    I64(i64),
    /// IEEE double; non-finite values serialize as `null`.
    F64(f64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Str(s) => Json::Str(s.clone()),
            Value::U64(n) => Json::Num(*n as f64),
            Value::I64(n) => Json::Num(*n as f64),
            Value::F64(n) if n.is_finite() => Json::Num(*n),
            Value::F64(_) => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::U64(n)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::U64(n.into())
    }
}
impl From<u16> for Value {
    fn from(n: u16) -> Value {
        Value::U64(n.into())
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::U64(n as u64)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::I64(n)
    }
}
impl From<i32> for Value {
    fn from(n: i32) -> Value {
        Value::I64(n.into())
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::F64(n)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

/// One structured log event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process-unique, monotonically increasing sequence number.
    pub seq: u64,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem, e.g. `"server.access"` or `"core.topk"`.
    pub target: &'static str,
    /// Human-readable message.
    pub msg: String,
    /// Trace active on the emitting thread, for cross-pillar joins.
    pub trace_id: Option<u64>,
    /// Innermost open span at emit time, if any.
    pub span: Option<&'static str>,
    /// Free-form key/value fields, in call-site order. Duplicate keys
    /// are dropped (first wins) at serialization time, because the
    /// wire parser rejects duplicate object keys.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// The event as a wire JSON object. Optional parts (`trace_id`,
    /// `span`) are omitted when absent; `fields` is a nested object so
    /// free-form keys can never collide with the envelope.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq", Json::Num(self.seq as f64)),
            ("ts_ms", Json::Num(self.ts_ms as f64)),
            ("level", Json::str(self.level.as_str())),
            ("target", Json::str(self.target)),
            ("msg", Json::str(self.msg.clone())),
        ];
        if let Some(id) = self.trace_id {
            pairs.push(("trace_id", Json::Num(id as f64)));
        }
        if let Some(span) = self.span {
            pairs.push(("span", Json::str(span)));
        }
        let mut fields: Vec<(&'static str, Json)> = Vec::with_capacity(self.fields.len());
        for (k, v) in &self.fields {
            if !fields.iter().any(|(fk, _)| fk == k) {
                fields.push((k, v.to_json()));
            }
        }
        pairs.push(("fields", Json::obj(fields)));
        Json::obj(pairs)
    }

    /// The event as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_text()
    }
}

/// Default number of events retained by the global ring.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Thread-local buffer size; a full buffer flushes to the global ring.
pub const FLUSH_AT: usize = 32;

static RING: OnceLock<Mutex<Ring<Event>>> = OnceLock::new();

fn ring() -> &'static Mutex<Ring<Event>> {
    RING.get_or_init(|| Mutex::new(Ring::new(DEFAULT_CAPACITY)))
}

fn lock_ring() -> MutexGuard<'static, Ring<Event>> {
    // Log data is advisory; poisoning is ignored like the trace
    // registry's ring.
    ring().lock().unwrap_or_else(|e| e.into_inner())
}

type Sink = Box<dyn Write + Send>;

static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();

fn sink() -> &'static Mutex<Option<Sink>> {
    SINK.get_or_init(|| Mutex::new(None))
}

/// Installs (or with `None`, removes) a writer that receives every
/// flushed event as one JSON line. Writes are line-buffered by
/// construction — one `write_all` per event — and write errors are
/// ignored (logging must never take the process down).
pub fn set_sink(writer: Option<Sink>) {
    let mut guard = sink().lock().unwrap_or_else(|e| e.into_inner());
    *guard = writer;
}

/// Thread-local pending events. The wrapper's `Drop` flushes whatever
/// is left when the thread exits, so short-lived worker threads never
/// lose events.
struct LocalBuf {
    events: Vec<Event>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        flush_events(std::mem::take(&mut self.events));
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = const { RefCell::new(LocalBuf { events: Vec::new() }) };
}

fn flush_events(events: Vec<Event>) {
    if events.is_empty() {
        return;
    }
    {
        let mut guard = sink().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = guard.as_mut() {
            for ev in &events {
                let mut line = ev.to_line();
                line.push('\n');
                let _ = w.write_all(line.as_bytes());
            }
            let _ = w.flush();
        }
    }
    let mut ring = lock_ring();
    for ev in events {
        ring.push(ev);
    }
}

/// Moves this thread's buffered events into the global ring (and sink).
///
/// The server calls this before writing a response so `/debug/logs`
/// reflects the request that produced it; it is also safe from a panic
/// hook (non-panicking borrows — a busy buffer is simply skipped).
pub fn flush() {
    let events = BUF
        .try_with(|b| {
            b.try_borrow_mut()
                .map(|mut b| std::mem::take(&mut b.events))
                .unwrap_or_default()
        })
        .unwrap_or_default();
    flush_events(events);
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Records an event, attaching the calling thread's current trace ID
/// and innermost span automatically. A no-op (one relaxed load) when
/// `level` is below the configured threshold.
#[inline]
pub fn emit(
    level: Level,
    target: &'static str,
    msg: impl Into<String>,
    fields: Vec<(&'static str, Value)>,
) {
    if !enabled(level) {
        return;
    }
    record(
        questpro_trace::current_trace_id(),
        level,
        target,
        msg.into(),
        fields,
    );
}

/// Like [`emit`] but with an explicit trace ID — for events produced
/// after the trace has finished (e.g. the access log writes one event
/// per request once the response status is known).
#[inline]
pub fn emit_traced(
    trace_id: Option<u64>,
    level: Level,
    target: &'static str,
    msg: impl Into<String>,
    fields: Vec<(&'static str, Value)>,
) {
    if !enabled(level) {
        return;
    }
    record(trace_id, level, target, msg.into(), fields);
}

fn record(
    trace_id: Option<u64>,
    level: Level,
    target: &'static str,
    msg: String,
    fields: Vec<(&'static str, Value)>,
) {
    let ev = Event {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        ts_ms: now_ms(),
        level,
        target,
        msg,
        trace_id,
        span: questpro_trace::current_span_name(),
        fields,
    };
    EMITTED.fetch_add(1, Ordering::Relaxed);
    let overflow = BUF
        .try_with(|b| match b.try_borrow_mut() {
            Ok(mut buf) => {
                buf.events.push(ev.clone());
                if buf.events.len() >= FLUSH_AT || level >= Level::Warn {
                    Some(std::mem::take(&mut buf.events))
                } else {
                    None
                }
            }
            // Re-entrant emit (e.g. from a panic hook interrupting an
            // emit): bypass the buffer rather than lose the event.
            Err(_) => Some(vec![ev.clone()]),
        })
        .unwrap_or_else(|_| Some(vec![ev]));
    if let Some(events) = overflow {
        flush_events(events);
    }
}

/// Replaces the ring with an empty one of capacity `cap` (min 1).
/// Retained events and the drop counter are reset; used at server
/// start-up to apply the configured retention.
pub fn set_capacity(cap: usize) {
    *lock_ring() = Ring::new(cap);
}

/// Returns up to `limit` of the most recent *flushed* events at or
/// above `min_level`, newest (highest `seq`) first. Call [`flush`]
/// first to include this thread's pending events.
///
/// Threads flush their buffers into the ring in batches, so ring order
/// is not `seq` order; the matching events are sorted before the cut.
pub fn recent(limit: usize, min_level: Level) -> Vec<Event> {
    let ring = lock_ring();
    let mut events: Vec<&Event> = ring
        .latest(ring.len())
        .into_iter()
        .filter(|e| e.level >= min_level)
        .collect();
    events.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
    events.into_iter().take(limit).cloned().collect()
}

/// Removes and returns every retained event, oldest (lowest `seq`)
/// first. The drop counter is untouched, so `emitted == drained +
/// retained + dropped` stays exact across interleaved emits and drains.
pub fn take_all() -> Vec<Event> {
    let mut events = lock_ring().drain();
    events.sort_unstable_by_key(|e| e.seq);
    events
}

/// Total events evicted from the ring since the last [`set_capacity`]
/// (or process start).
pub fn dropped_total() -> u64 {
    lock_ring().dropped()
}

/// Number of events currently retained in the ring.
pub fn retained() -> usize {
    lock_ring().len()
}

/// Total events accepted since process start (exact; counted before
/// buffering, unaffected by ring eviction or [`set_capacity`]).
pub fn emitted_total() -> u64 {
    EMITTED.load(Ordering::Relaxed)
}

/// Serializes tests that touch the global level, ring, or sink.
#[cfg(test)]
pub(crate) fn test_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_logging<T>(min: Level, f: impl FnOnce() -> T) -> T {
        let _g = test_gate();
        set_capacity(DEFAULT_CAPACITY);
        set_level(Some(min));
        let out = f();
        set_level(None);
        flush();
        set_capacity(DEFAULT_CAPACITY);
        out
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("warn"), Some(Level::Warn));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Trace < Level::Debug && Level::Warn < Level::Error);
        for l in Level::ALL {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
    }

    #[test]
    fn disabled_emit_records_nothing() {
        let _g = test_gate();
        set_level(None);
        let before = emitted_total();
        emit(Level::Error, "test", "dropped", vec![]);
        assert!(!enabled(Level::Error));
        assert_eq!(emitted_total(), before);
    }

    #[test]
    fn threshold_filters_lower_levels() {
        with_logging(Level::Warn, || {
            assert!(!enabled(Level::Info));
            assert!(enabled(Level::Warn));
            let before = emitted_total();
            emit(Level::Info, "test", "below threshold", vec![]);
            emit(Level::Warn, "test", "at threshold", vec![]);
            assert_eq!(emitted_total() - before, 1);
        });
    }

    #[test]
    fn events_flush_and_filter_by_level() {
        with_logging(Level::Trace, || {
            set_capacity(64);
            emit(Level::Debug, "test.a", "one", vec![("k", 1u64.into())]);
            emit(Level::Info, "test.b", "two", vec![]);
            flush();
            let all = recent(10, Level::Trace);
            assert_eq!(all.len(), 2);
            assert_eq!(all[0].msg, "two", "newest first");
            assert_eq!(all[1].target, "test.a");
            assert!(all[1].seq < all[0].seq);
            let info = recent(10, Level::Info);
            assert_eq!(info.len(), 1);
            assert_eq!(info[0].msg, "two");
        });
    }

    #[test]
    fn warn_and_above_flush_eagerly() {
        with_logging(Level::Trace, || {
            set_capacity(64);
            emit(Level::Info, "test", "buffered", vec![]);
            emit(Level::Error, "test", "eager", vec![]);
            // No explicit flush: the error event forced the batch out.
            let all = recent(10, Level::Trace);
            assert_eq!(all.len(), 2);
        });
    }

    #[test]
    fn drop_accounting_is_exact() {
        with_logging(Level::Trace, || {
            set_capacity(4);
            let emitted_before = emitted_total();
            for i in 0..10u64 {
                emit(Level::Info, "test", format!("e{i}"), vec![]);
            }
            flush();
            let emitted = emitted_total() - emitted_before;
            assert_eq!(emitted, 10);
            assert_eq!(retained(), 4);
            assert_eq!(dropped_total(), 6);
            let drained = take_all();
            assert_eq!(drained.len(), 4);
            assert_eq!(drained[0].msg, "e6", "oldest-first drain");
            assert_eq!(dropped_total(), 6, "drains are not drops");
        });
    }

    #[test]
    fn event_serializes_expected_envelope() {
        let ev = Event {
            seq: 7,
            ts_ms: 1000,
            level: Level::Info,
            target: "server.access",
            msg: "GET /healthz".to_string(),
            trace_id: Some(42),
            span: Some("request"),
            fields: vec![
                ("status", 200u64.into()),
                ("dup", 1u64.into()),
                ("dup", 2u64.into()),
                ("nan", f64::NAN.into()),
            ],
        };
        let json = questpro_wire::parse(&ev.to_line()).expect("parseable line");
        assert_eq!(json.get("seq").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(json.get("level").and_then(|v| v.as_str()), Some("info"));
        assert_eq!(json.get("trace_id").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(json.get("span").and_then(|v| v.as_str()), Some("request"));
        let fields = json.get("fields").expect("fields object");
        assert_eq!(
            fields.get("status").and_then(|v| v.as_u64()),
            Some(200),
            "typed fields survive"
        );
        assert_eq!(
            fields.get("dup").and_then(|v| v.as_u64()),
            Some(1),
            "duplicate keys: first wins"
        );
        assert_eq!(fields.get("nan"), Some(&Json::Null));
        // Optional parts are omitted, not null.
        let bare = Event {
            trace_id: None,
            span: None,
            ..ev
        };
        let json = questpro_wire::parse(&bare.to_line()).expect("parseable");
        assert_eq!(json.get("trace_id"), None);
        assert_eq!(json.get("span"), None);
    }

    #[test]
    fn emit_attaches_active_trace_and_span() {
        with_logging(Level::Trace, || {
            set_capacity(16);
            questpro_trace::set_enabled(true);
            let t = questpro_trace::begin("log-unit").expect("tracing on");
            let id = t.id();
            {
                let _s = questpro_trace::span("infer.topk");
                emit(Level::Info, "test", "inside", vec![]);
            }
            t.finish();
            questpro_trace::set_enabled(false);
            flush();
            let ev = &recent(1, Level::Trace)[0];
            assert_eq!(ev.trace_id, Some(id));
            assert_eq!(ev.span, Some("infer.topk"));
        });
    }

    #[test]
    fn sink_receives_json_lines() {
        use std::sync::Arc;

        /// Shared in-memory writer for asserting sink output.
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        with_logging(Level::Trace, || {
            let buf = Shared(Arc::new(Mutex::new(Vec::new())));
            set_sink(Some(Box::new(buf.clone())));
            emit(Level::Info, "test.sink", "hello", vec![("n", 3u64.into())]);
            flush();
            set_sink(None);
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            let line = text.lines().next().expect("one line");
            let json = questpro_wire::parse(line).expect("line is JSON");
            assert_eq!(
                json.get("target").and_then(|v| v.as_str()),
                Some("test.sink")
            );
        });
    }
}
