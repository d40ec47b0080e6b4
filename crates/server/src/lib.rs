//! `questpro-server`: a zero-dependency HTTP service for interactive
//! query inference.
//!
//! The paper's workflow — infer candidate SPARQL queries from examples,
//! then converge on the user's intent by asking provenance-backed
//! yes/no questions — is inherently a long-lived dialogue, which this
//! crate exposes as a JSON-over-HTTP session API on nothing but
//! `std::net`:
//!
//! * [`http`] — a minimal, limit-guarded HTTP/1.1 reader/writer, with
//!   both a blocking reader and an incremental in-buffer parser;
//! * [`sys`] — the readiness-notification facade (`epoll` on Linux,
//!   `poll` elsewhere on Unix) behind a safe `Poller`/`Waker` API; the
//!   crate's only `unsafe` lives here, in the raw syscall shims;
//! * [`conn`] — the per-connection keep-alive state machine driven by
//!   readiness events;
//! * [`eventloop`] — the serving threads: workers that read, run and
//!   answer the requests they take from one shared one-shot poller, and
//!   a loop thread for timeouts, drain and overflow; a bounded admission
//!   queue sheds overload as `503`, never as unbounded memory;
//! * [`registry`] — named ontologies: lazily built benchmark worlds
//!   plus user-posted triple text;
//! * [`sessions`] — concurrent [`questpro_feedback::InteractiveSession`]
//!   ownership with sharded per-session locks and idle eviction;
//! * [`router`] — the endpoint handlers (one-shot `/infer` and `/eval`,
//!   session CRUD + `/feedback`, `/metrics`, `/shutdown`);
//! * [`server`] — configuration, startup, and graceful shutdown;
//! * [`metrics`] — Prometheus-style text rendering of the process-wide
//!   monotonic counters.
//!
//! Design constraints inherited from the workspace: no external crates,
//! `unsafe` confined to the audited syscall shims in [`sys`], and a
//! failure in any single request (malformed bytes, a panicking handler,
//! a dropped socket, a poisoned lock) must degrade that request only —
//! the process keeps serving.

pub mod conn;
pub mod eventloop;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod router;
pub mod server;
pub mod sessions;
pub mod sys;

pub use http::{Request, Response};
pub use registry::Registry;
pub use router::{route, AppState};
pub use server::{start, ServerConfig, ServerHandle};
pub use sessions::{SessionEntry, SessionManager};
