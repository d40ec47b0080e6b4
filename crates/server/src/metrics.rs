//! Prometheus-style text export of process metrics.
//!
//! Everything rendered here is **cumulative** (monotonic counters) or
//! an instantaneous gauge — never a per-run value that resets — so a
//! scraper can diff consecutive snapshots for rates. Sources:
//!
//! * HTTP counters owned by this module (requests, responses by class);
//! * `questpro_engine::metrics` — matcher searches/matches/expansions
//!   and consistency-cache totals;
//! * `questpro_core::global_stats()` — cumulative inference totals;
//! * the session manager's live-session gauge.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use questpro_telemetry::OutcomeMarginal;
use questpro_trace::hist::{HistSnapshot, HistogramSet, FIRST_BUCKET_LOG2};

use crate::router::ROUTES;

/// Monotonic HTTP traffic counters.
#[derive(Default)]
pub struct HttpCounters {
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    rejected_overload: AtomicU64,
    keepalive_timeouts: AtomicU64,
    request_timeouts: AtomicU64,
    connections_accepted: AtomicU64,
    connections_open: AtomicU64,
}

impl HttpCounters {
    /// Records one request received.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one response by status class.
    pub fn record_response(&self, status: u16) {
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection rejected because the worker queue was
    /// full.
    pub fn record_overload(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one keep-alive connection closed by the read timeout.
    pub fn record_keepalive_timeout(&self) {
        self.keepalive_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one partial request that stalled past the read timeout
    /// (answered with a named `408`, unlike the silent idle close).
    pub fn record_request_timeout(&self) {
        self.request_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection registered with an event loop.
    pub fn record_conn_opened(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection closed (any reason).
    pub fn record_conn_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently registered (the live gauge).
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// Total requests received so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

/// Monotonic counters for the live-ontology update path.
#[derive(Default)]
pub struct OntologyCounters {
    updates: AtomicU64,
    rejections: AtomicU64,
    pages_copied: AtomicU64,
}

impl OntologyCounters {
    /// Records one update batch applied (a new head version installed)
    /// that built `pages_copied` pages afresh
    /// ([`DeltaSummary::pages_copied`](questpro_graph::DeltaSummary::pages_copied)).
    pub fn record_update(&self, pages_copied: usize) {
        self.updates.fetch_add(1, Ordering::Relaxed);
        self.pages_copied
            .fetch_add(pages_copied as u64, Ordering::Relaxed);
    }

    /// Records one update batch rejected (malformed body, unknown
    /// world, missing delete, duplicate insert — any 4xx outcome).
    pub fn record_rejection(&self) {
        self.rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Total update batches applied.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Total update batches rejected.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// Total pages the applied batches built afresh.
    pub fn pages_copied(&self) -> u64 {
        self.pages_copied.load(Ordering::Relaxed)
    }
}

/// Per-route latency histograms (the route label list is fixed in
/// [`ROUTES`], so the exposition format is traffic-independent).
fn route_hists() -> &'static HistogramSet {
    static HISTS: OnceLock<HistogramSet> = OnceLock::new();
    HISTS.get_or_init(|| HistogramSet::new(ROUTES))
}

/// Records one served request under its normalized route label.
pub fn record_route(label: &str, ns: u64) {
    route_hists().record(label, ns);
}

/// Renders one labeled log2 histogram family in Prometheus text format.
fn write_hist(out: &mut String, name: &str, help: &str, label: &str, snaps: &[HistSnapshot]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for h in snaps {
        for (i, cum) in h.buckets.iter().enumerate() {
            let le = 1u64 << (FIRST_BUCKET_LOG2 + i as u32);
            let _ = writeln!(
                out,
                "{name}_bucket{{{label}=\"{}\",le=\"{le}\"}} {cum}",
                h.stage
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{label}=\"{}\",le=\"+Inf\"}} {}",
            h.stage, h.count
        );
        let _ = writeln!(out, "{name}_sum{{{label}=\"{}\"}} {}", h.stage, h.sum_ns);
        let _ = writeln!(out, "{name}_count{{{label}=\"{}\"}} {}", h.stage, h.count);
    }
}

/// Renders the full scrape document.
pub fn render(
    http: &HttpCounters,
    live_sessions: usize,
    ontology: &OntologyCounters,
    versions_open: usize,
) -> String {
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    };
    counter(
        "questpro_http_requests_total",
        "HTTP requests parsed off the wire.",
        http.requests.load(Ordering::Relaxed),
    );
    counter(
        "questpro_http_responses_2xx_total",
        "Successful responses.",
        http.responses_2xx.load(Ordering::Relaxed),
    );
    counter(
        "questpro_http_responses_4xx_total",
        "Client-error responses.",
        http.responses_4xx.load(Ordering::Relaxed),
    );
    counter(
        "questpro_http_responses_5xx_total",
        "Server-error responses.",
        http.responses_5xx.load(Ordering::Relaxed),
    );
    counter(
        "questpro_http_overload_rejections_total",
        "Connections rejected with 503 because the worker queue was full.",
        http.rejected_overload.load(Ordering::Relaxed),
    );
    counter(
        "questpro_http_keepalive_timeouts_total",
        "Keep-alive connections closed by the idle read timeout.",
        http.keepalive_timeouts.load(Ordering::Relaxed),
    );
    counter(
        "questpro_http_request_timeouts_total",
        "Partial requests that stalled past the read timeout (408).",
        http.request_timeouts.load(Ordering::Relaxed),
    );
    counter(
        "questpro_http_connections_accepted_total",
        "Connections registered with the event loop.",
        http.connections_accepted.load(Ordering::Relaxed),
    );

    counter(
        "questpro_ontology_updates_total",
        "Live ontology update batches applied (new head versions).",
        ontology.updates(),
    );
    counter(
        "questpro_ontology_update_rejections_total",
        "Live ontology update batches rejected with a 4xx.",
        ontology.rejections(),
    );
    counter(
        "questpro_ontology_update_pages_copied_total",
        "Node and edge pages live updates built afresh; every other page is shared with the previous version.",
        ontology.pages_copied(),
    );

    let inference = questpro_core::global_stats();
    counter(
        "questpro_inference_runs_total",
        "Completed top-k inference runs.",
        inference.runs,
    );
    counter(
        "questpro_inference_algorithm1_calls_total",
        "Algorithm 1 invocations (the paper's Figure 6 metric), cumulative.",
        inference.algorithm1_calls,
    );
    counter(
        "questpro_inference_states_examined_total",
        "Beam states examined, cumulative.",
        inference.states_examined,
    );
    counter(
        "questpro_inference_merge_cache_hits_total",
        "Pairwise merge-cache hits, cumulative.",
        inference.merge_cache_hits,
    );
    counter(
        "questpro_inference_nanos_total",
        "Wall-clock nanoseconds inside inference entry points, cumulative.",
        inference.total_nanos,
    );

    counter(
        "questpro_engine_searches_total",
        "Matcher search drives finished (sequential searches and parallel shards).",
        questpro_engine::metrics::searches_total(),
    );
    counter(
        "questpro_engine_matches_total",
        "Matches emitted by the matcher.",
        questpro_engine::metrics::matches_total(),
    );
    counter(
        "questpro_engine_nodes_expanded_total",
        "Matcher search-tree nodes expanded.",
        questpro_engine::metrics::nodes_expanded(),
    );
    counter(
        "questpro_consistency_lookups_total",
        "Consistency-cache lookups.",
        questpro_engine::metrics::consistency_lookups_total(),
    );
    counter(
        "questpro_consistency_hits_total",
        "Consistency-cache lookups answered without a matcher run.",
        questpro_engine::metrics::consistency_hits_total(),
    );

    counter(
        "questpro_traces_dropped_total",
        "Finished traces evicted from the bounded trace registry.",
        questpro_trace::registry::dropped_total(),
    );
    counter(
        "questpro_log_events_total",
        "Structured log events accepted (before any ring eviction).",
        questpro_log::emitted_total(),
    );
    counter(
        "questpro_log_dropped_total",
        "Structured log events evicted from the bounded log ring.",
        questpro_log::dropped_total(),
    );
    counter(
        "questpro_log_drained_total",
        "Structured log events no longer in the ring for any reason other \
         than eviction (accepted minus retained minus dropped).",
        questpro_log::emitted_total()
            .saturating_sub(questpro_log::dropped_total())
            .saturating_sub(questpro_log::retained() as u64),
    );

    let (session_records, session_records_dropped, session_keys) = questpro_telemetry::counters();
    counter(
        "questpro_session_records_total",
        "Finished-session telemetry records offered to the aggregator.",
        session_records,
    );
    counter(
        "questpro_session_records_dropped_total",
        "Session records dropped by the dimensional-key cardinality cap.",
        session_records_dropped,
    );

    // Session telemetry marginals: the full dimensional breakdown by
    // (ontology, version, outcome) lives at GET /debug/sessions; the
    // scrape exposes only the outcome marginals so the label set (and
    // with it the exposition shape) never depends on traffic.
    let marginals = questpro_telemetry::marginals();
    let mut outcome_counter = |name: &str, help: &str, pick: &dyn Fn(&OutcomeMarginal) -> u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for m in &marginals {
            let _ = writeln!(
                out,
                "{name}{{outcome=\"{}\"}} {}",
                m.outcome.as_str(),
                pick(m)
            );
        }
    };
    outcome_counter(
        "questpro_session_outcomes_total",
        "Finished interactive sessions by terminal outcome.",
        &|m| m.sessions,
    );
    outcome_counter(
        "questpro_session_questions_total",
        "Feedback questions asked across finished sessions.",
        &|m| m.questions,
    );
    outcome_counter(
        "questpro_session_consistency_lookups_total",
        "Consistency-cache lookups during finished sessions' inference.",
        &|m| m.consistency_checks,
    );
    outcome_counter(
        "questpro_session_consistency_hits_total",
        "Consistency-cache hits during finished sessions' inference.",
        &|m| m.consistency_hits,
    );
    outcome_counter(
        "questpro_session_merge_lookups_total",
        "Pairwise merge-cache lookups during finished sessions' inference.",
        &|m| m.merge_lookups,
    );
    outcome_counter(
        "questpro_session_merge_hits_total",
        "Pairwise merge-cache hits during finished sessions' inference.",
        &|m| m.merge_hits,
    );
    let _ = writeln!(
        out,
        "# HELP questpro_session_verdicts_total User verdicts given across finished sessions.\n\
         # TYPE questpro_session_verdicts_total counter"
    );
    for m in &marginals {
        for (verdict, n) in [("yes", m.yes), ("no", m.no)] {
            let _ = writeln!(
                out,
                "questpro_session_verdicts_total{{outcome=\"{}\",verdict=\"{verdict}\"}} {n}",
                m.outcome.as_str()
            );
        }
    }

    let _ = writeln!(
        out,
        "# HELP questpro_http_connections_open Connections currently registered.\n\
         # TYPE questpro_http_connections_open gauge\n\
         questpro_http_connections_open {}",
        http.connections_open.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        out,
        "# HELP questpro_sessions_live Interactive sessions currently held.\n\
         # TYPE questpro_sessions_live gauge\n\
         questpro_sessions_live {live_sessions}"
    );
    let _ = writeln!(
        out,
        "# HELP questpro_ontology_versions_open Ontology versions retained for pinned readers.\n\
         # TYPE questpro_ontology_versions_open gauge\n\
         questpro_ontology_versions_open {versions_open}"
    );
    let _ = writeln!(
        out,
        "# HELP questpro_session_keys_live Live (ontology, version, outcome) telemetry keys.\n\
         # TYPE questpro_session_keys_live gauge\n\
         questpro_session_keys_live {session_keys}"
    );
    let _ = writeln!(
        out,
        "# HELP questpro_traces_retained Finished traces currently held by the trace registry.\n\
         # TYPE questpro_traces_retained gauge\n\
         questpro_traces_retained {}",
        questpro_trace::registry::retained()
    );
    let _ = writeln!(
        out,
        "# HELP questpro_log_retained Structured log events currently held by the log ring.\n\
         # TYPE questpro_log_retained gauge\n\
         questpro_log_retained {}",
        questpro_log::retained()
    );

    // Dimensional latency histograms. Both label lists (traced stages,
    // normalized routes) and the log2 bucket layout are fixed at
    // compile time and zero-filled, so the exposition format never
    // depends on traffic (frozen by the golden-file test).
    write_hist(
        &mut out,
        "questpro_stage_duration_ns",
        "Wall-clock nanoseconds per traced stage (log2 buckets).",
        "stage",
        &questpro_trace::hist::snapshot(),
    );
    write_hist(
        &mut out,
        "questpro_route_duration_ns",
        "Wall-clock nanoseconds per served request by normalized route (log2 buckets).",
        "route",
        &route_hists().snapshot(),
    );
    // Session telemetry histograms, labeled by the fixed outcome set.
    // The ns-valued pair shares the trace bucket layout, so the common
    // writer renders them; the rounds histogram has its own (smaller,
    // 2^0-based) layout.
    write_round_hist(
        &mut out,
        "questpro_session_rounds",
        "Feedback rounds per finished session (log2 buckets).",
        &marginals,
    );
    let ns_snaps = |pick: &dyn Fn(&OutcomeMarginal) -> &questpro_telemetry::Hist| {
        marginals
            .iter()
            .map(|m| {
                let h = pick(m);
                HistSnapshot {
                    stage: m.outcome.as_str(),
                    buckets: h.buckets.clone(),
                    count: h.count,
                    sum_ns: h.sum,
                }
            })
            .collect::<Vec<_>>()
    };
    write_hist(
        &mut out,
        "questpro_session_duration_ns",
        "Total wall-clock nanoseconds per finished session (log2 buckets).",
        "outcome",
        &ns_snaps(&|m| &m.wall_ns),
    );
    write_hist(
        &mut out,
        "questpro_session_round_duration_ns",
        "Wall-clock nanoseconds per answered feedback round (log2 buckets).",
        "outcome",
        &ns_snaps(&|m| &m.round_wall_ns),
    );
    out
}

/// Renders the rounds histogram family: same shape as [`write_hist`]
/// but with upper bounds starting at `2^0` (a session takes ones of
/// rounds, not thousands of nanoseconds).
fn write_round_hist(out: &mut String, name: &str, help: &str, marginals: &[OutcomeMarginal]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for m in marginals {
        let outcome = m.outcome.as_str();
        for (i, cum) in m.rounds.buckets.iter().enumerate() {
            let le = 1u64 << i;
            let _ = writeln!(
                out,
                "{name}_bucket{{outcome=\"{outcome}\",le=\"{le}\"}} {cum}"
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{outcome=\"{outcome}\",le=\"+Inf\"}} {}",
            m.rounds.count
        );
        let _ = writeln!(out, "{name}_sum{{outcome=\"{outcome}\"}} {}", m.rounds.sum);
        let _ = writeln!(
            out,
            "{name}_count{{outcome=\"{outcome}\"}} {}",
            m.rounds.count
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_families_and_counts_classes() {
        let http = HttpCounters::default();
        http.record_request();
        http.record_response(200);
        http.record_response(404);
        http.record_response(500);
        http.record_overload();
        http.record_keepalive_timeout();
        http.record_request_timeout();
        http.record_conn_opened();
        http.record_conn_opened();
        http.record_conn_closed();
        let onto = OntologyCounters::default();
        onto.record_update(7);
        onto.record_rejection();
        onto.record_rejection();
        let text = render(&http, 3, &onto, 5);
        assert!(text.contains("questpro_http_requests_total 1"));
        assert!(text.contains("questpro_http_responses_2xx_total 1"));
        assert!(text.contains("questpro_http_responses_4xx_total 1"));
        assert!(text.contains("questpro_http_responses_5xx_total 1"));
        assert!(text.contains("questpro_http_overload_rejections_total 1"));
        assert!(text.contains("questpro_http_keepalive_timeouts_total 1"));
        assert!(text.contains("questpro_http_request_timeouts_total 1"));
        assert!(text.contains("questpro_http_connections_accepted_total 2"));
        assert!(text.contains("questpro_http_connections_open 1"));
        assert!(text.contains("questpro_sessions_live 3"));
        assert!(text.contains("questpro_ontology_updates_total 1"));
        assert!(text.contains("questpro_ontology_update_rejections_total 2"));
        assert!(text.contains("questpro_ontology_update_pages_copied_total 7"));
        assert!(text.contains("questpro_ontology_versions_open 5"));
        assert!(text.contains("questpro_engine_searches_total"));
        assert!(text.contains("questpro_inference_runs_total"));
        assert!(text.contains("questpro_log_events_total"));
        assert!(text.contains("questpro_log_dropped_total"));
        // Prometheus text format: every unlabeled counter/gauge sample
        // has its own HELP/TYPE pair; the five histogram families and
        // the seven outcome-labeled counter families share one each.
        let sample_lines = |prefix: &str| {
            text.lines()
                .filter(|l| !l.starts_with('#') && l.starts_with(prefix))
                .count()
        };
        let hist_prefixes = [
            "questpro_stage_duration_ns",
            "questpro_route_duration_ns",
            "questpro_session_rounds",
            "questpro_session_duration_ns",
            "questpro_session_round_duration_ns",
        ];
        let labeled_prefixes = [
            "questpro_session_outcomes_total",
            "questpro_session_questions_total",
            "questpro_session_verdicts_total",
            "questpro_session_consistency_lookups_total",
            "questpro_session_consistency_hits_total",
            "questpro_session_merge_lookups_total",
            "questpro_session_merge_hits_total",
        ];
        let hist_samples: usize = hist_prefixes.iter().map(|p| sample_lines(p)).sum();
        let labeled_samples: usize = labeled_prefixes.iter().map(|p| sample_lines(p)).sum();
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count();
        let types = text.lines().filter(|l| l.starts_with("# TYPE")).count();
        assert_eq!(
            samples - hist_samples - labeled_samples,
            types - hist_prefixes.len() - labeled_prefixes.len()
        );
        // Fixed exposition: every label always renders every bucket
        // plus +Inf, _sum and _count, and the outcome label set is the
        // fixed three regardless of traffic.
        let per_label = questpro_trace::hist::BUCKETS + 3;
        assert_eq!(
            sample_lines("questpro_stage_duration_ns"),
            questpro_trace::STAGES.len() * per_label
        );
        assert_eq!(
            sample_lines("questpro_route_duration_ns"),
            ROUTES.len() * per_label
        );
        assert_eq!(sample_lines("questpro_session_duration_ns"), 3 * per_label);
        assert_eq!(
            sample_lines("questpro_session_round_duration_ns"),
            3 * per_label
        );
        assert_eq!(
            sample_lines("questpro_session_rounds"),
            3 * (questpro_telemetry::ROUND_BUCKETS + 3)
        );
        // 6 single-label families x 3 outcomes + verdicts x 3 x 2.
        assert_eq!(labeled_samples, 6 * 3 + 6);
        assert!(text.contains("questpro_traces_dropped_total"));
        assert!(text.contains("questpro_traces_retained"));
        assert!(text.contains("questpro_log_retained"));
        assert!(text.contains("questpro_log_drained_total"));
        assert!(text.contains("questpro_session_records_total"));
        assert!(text.contains("questpro_session_records_dropped_total"));
        assert!(text.contains("questpro_session_keys_live"));
        assert!(text.contains("stage=\"infer.topk\",le=\"+Inf\""));
        assert!(text.contains("route=\"POST /eval\",le=\"+Inf\""));
        assert!(text.contains("route=\"other\""));
        assert!(text.contains("questpro_session_rounds_bucket{outcome=\"converged\",le=\"1\"}"));
        assert!(text.contains("outcome=\"abandoned\",verdict=\"no\""));
        assert!(text.contains("outcome=\"evicted\",le=\"+Inf\""));
        // Dimensional (ontology, version) labels belong to
        // /debug/sessions only; the scrape shape must never leak them.
        assert!(!text.contains("ontology=\""));
        assert!(!text.contains("version=\""));
    }

    #[test]
    fn route_observations_land_under_their_label() {
        record_route("GET /healthz", 1);
        record_route("not a route", 1); // ignored, not a new label
        let snap = route_hists().snapshot();
        assert_eq!(snap.len(), ROUTES.len());
        let health = snap
            .iter()
            .find(|h| h.stage == "GET /healthz")
            .expect("labeled");
        assert!(health.count >= 1);
    }
}
