//! Global engine instrumentation counters.
//!
//! The matcher counts the search-tree nodes it expands (candidate
//! bindings tried) and flushes the per-search total into a process-wide
//! relaxed atomic when each search — or each parallel shard — finishes.
//! Callers snapshot the counter around a region of work and report the
//! delta (see `InferenceStats` in `questpro-core` and the experiment
//! binaries).
//!
//! Determinism: for complete enumerations (collect/count/images) and
//! sequential searches the flushed totals are identical across thread
//! counts, because every shard does exactly the work the sequential
//! search would do for its slice. The one exception is a *parallel*
//! `exists()` — its early-stop race means shards may expand a few more
//! or fewer nodes between runs — so treat the counter as exact for
//! deterministic drivers and indicative otherwise.

use std::sync::atomic::{AtomicU64, Ordering};

static NODES_EXPANDED: AtomicU64 = AtomicU64::new(0);
static SEARCHES: AtomicU64 = AtomicU64::new(0);
static MATCHES: AtomicU64 = AtomicU64::new(0);
static CONSISTENCY_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static CONSISTENCY_HITS: AtomicU64 = AtomicU64::new(0);

/// Total search-tree nodes expanded by all matcher searches in this
/// process since start (or the last [`reset_nodes_expanded`]).
pub fn nodes_expanded() -> u64 {
    NODES_EXPANDED.load(Ordering::Relaxed)
}

/// Total matcher search drives finished in this process: one per
/// sequential search, one per shard of a parallel search, and one per
/// candidate a probe driver (`Matcher::anchored`) searches. **Monotonic**
/// — never reset; scrape endpoints can export it as a counter.
pub fn searches_total() -> u64 {
    SEARCHES.load(Ordering::Relaxed)
}

/// Total matches emitted by all matcher searches in this process.
/// **Monotonic** — never reset.
pub fn matches_total() -> u64 {
    MATCHES.load(Ordering::Relaxed)
}

/// Total `ConsistencyCache` lookups in this process. **Monotonic.**
pub fn consistency_lookups_total() -> u64 {
    CONSISTENCY_LOOKUPS.load(Ordering::Relaxed)
}

/// `ConsistencyCache` lookups answered from a cache (no matcher run).
/// **Monotonic.**
pub fn consistency_hits_total() -> u64 {
    CONSISTENCY_HITS.load(Ordering::Relaxed)
}

/// Resets the process-wide expansion counter (tests and experiment
/// harnesses that want absolute rather than delta readings). The
/// monotonic scrape counters ([`searches_total`] and friends) are
/// deliberately *not* resettable: consumers export them cumulatively
/// and compute rates from deltas.
pub fn reset_nodes_expanded() {
    NODES_EXPANDED.store(0, Ordering::Relaxed);
}

pub(crate) fn add_nodes_expanded(n: u64) {
    if n > 0 {
        NODES_EXPANDED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Flushes one finished search drive: its expansion and emission totals.
pub(crate) fn flush_search(expanded: u64, matched: u64) {
    flush_searches(1, expanded, matched);
}

/// Flushes `searches` finished search drives at once (a probe driver's
/// per-candidate searches): their summed expansion and emission totals.
pub(crate) fn flush_searches(searches: u64, expanded: u64, matched: u64) {
    if searches > 0 {
        SEARCHES.fetch_add(searches, Ordering::Relaxed);
    }
    add_nodes_expanded(expanded);
    if matched > 0 {
        MATCHES.fetch_add(matched, Ordering::Relaxed);
    }
}

pub(crate) fn add_consistency_lookup(hit: bool) {
    CONSISTENCY_LOOKUPS.fetch_add(1, Ordering::Relaxed);
    if hit {
        CONSISTENCY_HITS.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_counters_are_monotonic() {
        let (s0, m0) = (searches_total(), matches_total());
        let (l0, h0) = (consistency_lookups_total(), consistency_hits_total());
        flush_search(5, 2);
        add_consistency_lookup(true);
        add_consistency_lookup(false);
        // Other tests run concurrently, so assert lower bounds only.
        assert!(searches_total() > s0);
        assert!(matches_total() >= m0 + 2);
        assert!(consistency_lookups_total() >= l0 + 2);
        assert!(consistency_hits_total() > h0);
    }
}
