//! Per-surface fuzzing drivers: one `iterate` = generate → oracle →
//! mutate → oracle.
//!
//! Every iteration of every surface runs two stages:
//!
//! 1. **structure stage** — a generator-built valid instance is
//!    formatted and re-parsed; the round-trip oracle compares the
//!    result with the original (value equality for JSON, isomorphism
//!    for queries, sorted serialized lines for ontologies, field
//!    equality for HTTP requests, store equality plus byte-identical
//!    re-encoding for snapshots);
//! 2. **mutation stage** — the formatted text is byte-mutated and
//!    re-parsed; the no-panic oracle applies, and *accepted* mutants
//!    must themselves round-trip (idempotence: whatever the parser
//!    builds, the formatter must be able to reproduce).
//!
//! The HTTP surface additionally runs the differential oracle: a
//! `POST /eval` through the in-process router must byte-agree with the
//! library one-shot path, and mutated bodies must always come back as
//! well-formed JSON envelopes. It also pins the *staged* parser the
//! event loop uses (`parse_request`): on a well-formed request it must
//! agree with the blocking reader, and it must be chunking-invariant —
//! every prefix shorter than what it consumed parses as "incomplete",
//! and every prefix at or past that point yields the identical request
//! (the event loop may hand it any byte boundary the kernel produces).

use std::io::Cursor;
use std::sync::Arc;
use std::time::Duration;

use questpro_engine::evaluate_union_with;
use questpro_graph::rng::{Rng, StdRng};
use questpro_graph::{triples, EdgeId, Ontology, PredId};
use questpro_query::iso::union_isomorphic;
use questpro_query::sparql;
use questpro_server::http::{parse_request, read_request};
use questpro_server::{route, AppState, Request};
use questpro_wire::Json;

use crate::{catching, gen, minimize, mutate, Failure, FailureKind, Surface};

/// Body cap handed to `read_request` during head fuzzing — small enough
/// that a hostile `Content-Length` can never make the fuzzer allocate
/// seriously, large enough that no generated request trips it.
const MAX_FUZZ_BODY: usize = 1 << 16;

/// Per-surface state that persists across iterations (only the HTTP
/// surface needs any: the in-process server `AppState`).
pub struct Ctx {
    surface: Surface,
    http: Option<HttpState>,
}

struct HttpState {
    state: AppState,
    ont: Arc<Ontology>,
}

impl Ctx {
    /// Creates the state for one surface's run.
    pub fn new(surface: Surface) -> Ctx {
        let http = (surface == Surface::Http).then(|| {
            let state = AppState::new(1, 1 << 20, Duration::from_secs(60), 4);
            let ont = state
                .registry
                .insert("fuzz", gen::tiny_ontology_text())
                .expect("the fuzz world registers exactly once");
            HttpState { state, ont }
        });
        Ctx { surface, http }
    }

    /// Runs one iteration, returning any oracle violations found.
    pub fn iterate(&mut self, rng: &mut StdRng) -> Vec<Failure> {
        match self.surface {
            Surface::Wire => wire_iter(rng),
            Surface::Sparql => sparql_iter(rng),
            Surface::Triples => triples_iter(rng),
            Surface::Http => {
                let http = self.http.as_ref().expect("constructed in Ctx::new");
                http_iter(rng, http)
            }
            Surface::Store => store_iter(rng),
            Surface::Update => update_iter(rng),
        }
    }
}

/// Shrinks a panicking input with [`minimize::minimize`] and wraps it.
fn panic_failure(bytes: &[u8], msg: String, mut panics: impl FnMut(&[u8]) -> bool) -> Failure {
    let min = minimize::minimize(bytes, |b| catching(|| panics(b)).unwrap_or(true));
    Failure::new(FailureKind::Panic, min, format!("parser panicked: {msg}"))
}

// ---------------------------------------------------------------------
// wire — JSON
// ---------------------------------------------------------------------

fn wire_panics(b: &[u8]) -> bool {
    let text = String::from_utf8_lossy(b);
    catching(|| {
        let _ = questpro_wire::parse(&text);
    })
    .is_err()
}

fn wire_iter(rng: &mut StdRng) -> Vec<Failure> {
    let mut out = Vec::new();
    // Structure stage: value → text → value must be the identity.
    let v = gen::json_value(rng, 0);
    let text = v.to_text();
    match catching(|| questpro_wire::parse(&text)) {
        Err(msg) => out.push(panic_failure(text.as_bytes(), msg, wire_panics)),
        Ok(Err(e)) => out.push(Failure::new(
            FailureKind::RoundTrip,
            text.as_bytes(),
            format!("serializer output rejected by the parser: {e}"),
        )),
        Ok(Ok(back)) => {
            if back != v {
                out.push(Failure::new(
                    FailureKind::RoundTrip,
                    text.as_bytes(),
                    format!("parse(serialize(v)) != v (got {})", back.to_text()),
                ));
            }
        }
    }
    // Mutation stage: no-panic, and accepted mutants must round-trip.
    let mut bytes = text.into_bytes();
    mutate::mutate(rng, &mut bytes);
    let mutated = String::from_utf8_lossy(&bytes).into_owned();
    match catching(|| questpro_wire::parse(&mutated)) {
        Err(msg) => out.push(panic_failure(&bytes, msg, wire_panics)),
        Ok(Ok(v2)) => {
            let t2 = v2.to_text();
            match questpro_wire::parse(&t2) {
                Ok(v3) if v3 == v2 => {}
                Ok(_) => out.push(Failure::new(
                    FailureKind::RoundTrip,
                    t2.as_bytes(),
                    "reserializing an accepted mutant changed its value",
                )),
                Err(e) => out.push(Failure::new(
                    FailureKind::RoundTrip,
                    t2.as_bytes(),
                    format!("reserialized mutant no longer parses: {e}"),
                )),
            }
        }
        Ok(Err(_)) => {}
    }
    out
}

// ---------------------------------------------------------------------
// sparql — query text
// ---------------------------------------------------------------------

fn sparql_panics(b: &[u8]) -> bool {
    let text = String::from_utf8_lossy(b);
    catching(|| {
        let _ = sparql::parse_union(&text);
    })
    .is_err()
}

fn sparql_iter(rng: &mut StdRng) -> Vec<Failure> {
    let mut out = Vec::new();
    let q = gen::union_query(rng);
    let text = sparql::format_union(&q);
    match catching(|| sparql::parse_union(&text)) {
        Err(msg) => out.push(panic_failure(text.as_bytes(), msg, sparql_panics)),
        Ok(Err(e)) => out.push(Failure::new(
            FailureKind::RoundTrip,
            text.as_bytes(),
            format!("formatted query rejected by the parser: {e}"),
        )),
        Ok(Ok(back)) => {
            if !union_isomorphic(&q, &back) {
                out.push(Failure::new(
                    FailureKind::RoundTrip,
                    text.as_bytes(),
                    "parse(format(q)) is not isomorphic to q",
                ));
            }
        }
    }
    let mut bytes = text.into_bytes();
    mutate::mutate(rng, &mut bytes);
    let mutated = String::from_utf8_lossy(&bytes).into_owned();
    match catching(|| sparql::parse_union(&mutated)) {
        Err(msg) => out.push(panic_failure(&bytes, msg, sparql_panics)),
        Ok(Ok(q2)) => {
            let t2 = sparql::format_union(&q2);
            match sparql::parse_union(&t2) {
                Ok(q3) if union_isomorphic(&q2, &q3) => {}
                Ok(_) => out.push(Failure::new(
                    FailureKind::RoundTrip,
                    t2.as_bytes(),
                    "reformatting an accepted mutant changed the query",
                )),
                Err(e) => out.push(Failure::new(
                    FailureKind::RoundTrip,
                    t2.as_bytes(),
                    format!("reformatted mutant no longer parses: {e}"),
                )),
            }
        }
        Ok(Err(_)) => {}
    }
    out
}

// ---------------------------------------------------------------------
// triples — ontology text
// ---------------------------------------------------------------------

fn triples_panics(b: &[u8]) -> bool {
    let text = String::from_utf8_lossy(b);
    catching(|| {
        let _ = triples::parse(&text);
    })
    .is_err()
}

/// Ontology equality up to node-id renumbering: the serialized lines as
/// a sorted multiset. (`parse` may renumber nodes that only appear in
/// `@type` declarations, so byte equality would be too strict.)
fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

fn triples_iter(rng: &mut StdRng) -> Vec<Failure> {
    let mut out = Vec::new();
    let o = gen::ontology(rng);
    let text = triples::serialize(&o);
    match catching(|| triples::parse(&text)) {
        Err(msg) => out.push(panic_failure(text.as_bytes(), msg, triples_panics)),
        Ok(Err(e)) => out.push(Failure::new(
            FailureKind::RoundTrip,
            text.as_bytes(),
            format!("serialized ontology rejected by the parser: {e}"),
        )),
        Ok(Ok(o2)) => {
            let text2 = triples::serialize(&o2);
            if sorted_lines(&text) != sorted_lines(&text2) {
                out.push(Failure::new(
                    FailureKind::RoundTrip,
                    text.as_bytes(),
                    "parse(serialize(o)) lost or changed triples",
                ));
            }
        }
    }
    let mut bytes = text.into_bytes();
    mutate::mutate(rng, &mut bytes);
    let mutated = String::from_utf8_lossy(&bytes).into_owned();
    match catching(|| triples::parse(&mutated)) {
        Err(msg) => out.push(panic_failure(&bytes, msg, triples_panics)),
        Ok(Ok(o3)) => {
            let t3 = triples::serialize(&o3);
            match triples::parse(&t3) {
                Ok(o4) if sorted_lines(&triples::serialize(&o4)) == sorted_lines(&t3) => {}
                Ok(_) => out.push(Failure::new(
                    FailureKind::RoundTrip,
                    t3.as_bytes(),
                    "reserializing an accepted mutant changed the ontology",
                )),
                Err(e) => out.push(Failure::new(
                    FailureKind::RoundTrip,
                    t3.as_bytes(),
                    format!("reserialized mutant no longer parses: {e}"),
                )),
            }
        }
        Ok(Err(_)) => {}
    }
    out
}

// ---------------------------------------------------------------------
// store — binary snapshot decoding
// ---------------------------------------------------------------------

fn store_panics(b: &[u8]) -> bool {
    catching(|| {
        let _ = questpro_store::decode(b);
    })
    .is_err()
}

fn store_iter(rng: &mut StdRng) -> Vec<Failure> {
    let mut out = Vec::new();
    // Structure stage: decode(encode(s)) must reproduce the store, and
    // re-encoding the decoded store must be byte-identical (snapshots
    // of the same data are diffable by contract).
    let s = gen::store(rng);
    let bytes = questpro_store::encode(&s);
    match catching(|| questpro_store::decode(&bytes)) {
        Err(msg) => out.push(panic_failure(&bytes, msg, store_panics)),
        Ok(Err(e)) => out.push(Failure::new(
            FailureKind::RoundTrip,
            &bytes[..],
            format!("encoder output rejected by the decoder: {e}"),
        )),
        Ok(Ok(back)) => {
            if back != s {
                out.push(Failure::new(
                    FailureKind::RoundTrip,
                    &bytes[..],
                    "decode(encode(s)) != s",
                ));
            } else if questpro_store::encode(&back) != bytes {
                out.push(Failure::new(
                    FailureKind::RoundTrip,
                    &bytes[..],
                    "re-encoding a decoded snapshot changed its bytes",
                ));
            }
        }
    }
    // Mutation stage: arbitrary bytes must decode to Ok or a named
    // error, never a panic; accepted mutants must round-trip.
    let mut mutated = bytes;
    mutate::mutate(rng, &mut mutated);
    match catching(|| questpro_store::decode(&mutated)) {
        Err(msg) => out.push(panic_failure(&mutated, msg, store_panics)),
        Ok(Ok(s2)) => {
            let bytes2 = questpro_store::encode(&s2);
            match questpro_store::decode(&bytes2) {
                Ok(s3) if s3 == s2 => {}
                Ok(_) => out.push(Failure::new(
                    FailureKind::RoundTrip,
                    &bytes2[..],
                    "re-encoding an accepted mutant changed the store",
                )),
                Err(e) => out.push(Failure::new(
                    FailureKind::RoundTrip,
                    &bytes2[..],
                    format!("re-encoded mutant no longer decodes: {e}"),
                )),
            }
        }
        Ok(Err(_)) => {}
    }
    out
}

// ---------------------------------------------------------------------
// update — batched triple updates, incremental vs from-scratch
// ---------------------------------------------------------------------

fn update_panics(b: &[u8]) -> bool {
    let text = String::from_utf8_lossy(b);
    catching(|| {
        if let Ok(v) = questpro_wire::parse(&text) {
            let _ = questpro_wire::update::parse_update(&v);
        }
    })
    .is_err()
}

/// Checks a chained ontology version against the version it came from
/// and against `scratch`, a from-scratch build of the same triples:
///
/// * every page equals a rebuild, `edges_with_pred` walks the
///   ascending edge-table filter, each signature word is the OR of its
///   span's predicates, and each predicate's statistics equal the
///   scratch build's;
/// * the id contract: every edge of `prev` below the new survivor count
///   that the batch did not delete keeps its id.
fn chained_matches_scratch(
    prev: &Ontology,
    delta: &questpro_graph::TripleDelta,
    next: &Ontology,
    scratch: &Ontology,
) -> Result<(), String> {
    if next.pages() != &next.rebuild_pages() {
        return Err("spliced pages != rebuild".into());
    }
    for p in (0..next.pred_count()).map(PredId::from_usize) {
        let scan: Vec<EdgeId> = next
            .edge_ids()
            .filter(|&e| next.edge(e).pred == p)
            .collect();
        if !next.edges_with_pred(p).eq(scan.iter().copied()) {
            return Err(format!(
                "by_pred span of {} != edge-table filter",
                next.pred_str(p)
            ));
        }
        let stats = next.pred_stats(p);
        let want = scratch
            .pred_by_name(next.pred_str(p))
            .map_or_else(Default::default, |q| scratch.pred_stats(q));
        if stats != want {
            return Err(format!(
                "pred_stats of {} != scratch build",
                next.pred_str(p)
            ));
        }
    }
    for n in next.node_ids() {
        let bits = |es: &[EdgeId]| {
            es.iter()
                .fold(0, |acc, &e| acc | next.pred_bit(next.edge(e).pred))
        };
        if next.out_signature(n) != bits(next.out_edges(n))
            || next.in_signature(n) != bits(next.in_edges(n))
        {
            return Err(format!("signature of {} != its spans", next.value_str(n)));
        }
    }
    let deleted: Vec<EdgeId> = delta
        .deletes
        .iter()
        .filter_map(|[s, p, o]| {
            prev.find_edge(
                prev.node_by_value(s)?,
                prev.pred_by_name(p)?,
                prev.node_by_value(o)?,
            )
        })
        .collect();
    let new_len = prev.edge_count() - deleted.len();
    if let Some(e) = prev
        .edge_ids()
        .take(new_len)
        .find(|&e| !deleted.contains(&e) && next.edge(e) != prev.edge(e))
    {
        return Err(format!(
            "surviving edge {e} below the new length changed id"
        ));
    }
    Ok(())
}

/// One update iteration: a chain of random batches against a random
/// store — one time in eight a store spanning several node and edge
/// pages, with batches aimed at page boundaries — applied both to the
/// store and to one chained ontology. After
/// every *accepted* batch the incremental store must be byte-identical
/// to a from-scratch rebuild of the chained ontology, the chained
/// ontology's spliced indexes must equal a from-scratch build (see
/// [`chained_matches_scratch`]), and both apply paths (columnar store
/// overlay, graph delta) must agree on acceptance. The wire encoding
/// round-trips each batch, and the mutation stage throws damaged batch
/// JSON at the whole pipeline.
fn update_iter(rng: &mut StdRng) -> Vec<Failure> {
    let mut out = Vec::new();
    // One iteration in eight runs on a world spanning several pages,
    // with batches aimed at page boundaries.
    let paged = rng.random_bool(0.125);
    let mut store = if paged {
        gen::paged_store(rng)
    } else {
        gen::store(rng)
    };
    let mut ont = store
        .to_ontology()
        .expect("a generated store always materializes");
    let mut last_body = None;
    for _ in 0..rng.random_range(1..4usize) {
        let delta = if paged && rng.random_bool(0.75) {
            gen::boundary_batch(rng, &ont)
        } else {
            gen::update_batch(rng, &store)
        };
        // Wire round-trip: render -> parse must be the identity (the
        // server and the CLI both speak this encoding).
        let body = questpro_wire::update::render_update(&delta);
        match questpro_wire::update::parse_update(&body) {
            Ok(back) if back == delta => {}
            Ok(_) => out.push(Failure::new(
                FailureKind::RoundTrip,
                body.to_text().into_bytes(),
                "parse(render(delta)) != delta",
            )),
            Err(e) => out.push(Failure::new(
                FailureKind::RoundTrip,
                body.to_text().into_bytes(),
                format!("rendered batch rejected by parse_update: {e}"),
            )),
        }
        last_body = Some(body.to_text());
        // Differential: the incremental columnar overlay vs the chained
        // ontology, and both vs rebuilding from scratch.
        let inc = match catching(|| store.apply_update(&delta)) {
            Ok(r) => r,
            Err(msg) => {
                out.push(panic_failure(body.to_text().as_bytes(), msg, update_panics));
                return out;
            }
        };
        let chained = match catching(|| ont.apply_delta(&delta)) {
            Ok(r) => r,
            Err(msg) => {
                out.push(panic_failure(body.to_text().as_bytes(), msg, update_panics));
                return out;
            }
        };
        let differential =
            |msg: String| Failure::new(FailureKind::Differential, body.to_text().into_bytes(), msg);
        match (inc, chained) {
            (Ok(inc), Ok((next, _))) => {
                let scratch_store = questpro_store::TripleStore::from_ontology(&next)
                    .expect("an updated ontology always re-encodes");
                if questpro_store::encode(&inc) != questpro_store::encode(&scratch_store) {
                    out.push(differential(
                        "incremental store != from-scratch rebuild after update".into(),
                    ));
                    return out;
                }
                let Ok(scratch) = inc.to_ontology() else {
                    out.push(differential(
                        "incrementally updated store no longer materializes".into(),
                    ));
                    return out;
                };
                if let Err(msg) = chained_matches_scratch(&ont, &delta, &next, &scratch) {
                    out.push(differential(format!("chained apply_delta: {msg}")));
                    return out;
                }
                store = inc;
                ont = next;
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                out.push(differential(format!(
                    "store accepted a batch the graph rejects: {e}"
                )));
                return out;
            }
            (Err(e), Ok(_)) => {
                out.push(differential(format!(
                    "graph accepted a batch the store rejects: {e}"
                )));
                return out;
            }
        }
    }
    // Mutation stage: damaged batch JSON must parse to Ok or a named
    // error — and an *accepted* mutant must apply without panicking on
    // either path.
    let mut bytes = last_body.expect("at least one round ran").into_bytes();
    mutate::mutate(rng, &mut bytes);
    let mutated = String::from_utf8_lossy(&bytes).into_owned();
    match catching(|| {
        if let Ok(v) = questpro_wire::parse(&mutated) {
            if let Ok(delta) = questpro_wire::update::parse_update(&v) {
                let inc_ok = store.apply_update(&delta).is_ok();
                let graph_ok = ont.apply_delta(&delta).is_ok();
                return Some((inc_ok, graph_ok));
            }
        }
        None
    }) {
        Err(msg) => out.push(panic_failure(&bytes, msg, update_panics)),
        Ok(Some((inc_ok, graph_ok))) if inc_ok != graph_ok => {
            out.push(Failure::new(
                FailureKind::Differential,
                &bytes[..],
                format!(
                    "mutant batch splits the paths: store {}, graph {}",
                    if inc_ok { "accepts" } else { "rejects" },
                    if graph_ok { "accepts" } else { "rejects" }
                ),
            ));
        }
        Ok(_) => {}
    }
    out
}

// ---------------------------------------------------------------------
// http — head parsing + /eval differential
// ---------------------------------------------------------------------

fn http_panics(b: &[u8]) -> bool {
    catching(|| {
        let _ = read_request(&mut Cursor::new(b), MAX_FUZZ_BODY);
    })
    .is_err()
}

fn parse_panics(b: &[u8]) -> bool {
    catching(|| {
        let _ = parse_request(b, MAX_FUZZ_BODY);
    })
    .is_err()
}

fn http_iter(rng: &mut StdRng, http: &HttpState) -> Vec<Failure> {
    let mut out = Vec::new();
    // Head parsing: structure + mutation.
    let (bytes, expected) = gen::http_request(rng);
    match catching(|| read_request(&mut Cursor::new(&bytes[..]), MAX_FUZZ_BODY)) {
        Err(msg) => out.push(panic_failure(&bytes, msg, http_panics)),
        Ok(Ok(req)) => {
            if let Some(exp) = &expected {
                if req.method != exp.method || req.path != exp.path || req.body != exp.body {
                    out.push(Failure::new(
                        FailureKind::RoundTrip,
                        &bytes[..],
                        format!(
                            "well-formed request parsed to {} {} ({}B body), expected {} {} ({}B)",
                            req.method,
                            req.path,
                            req.body.len(),
                            exp.method,
                            exp.path,
                            exp.body.len()
                        ),
                    ));
                }
            }
        }
        Ok(Err(e)) => {
            if expected.is_some() {
                out.push(Failure::new(
                    FailureKind::RoundTrip,
                    &bytes[..],
                    format!("well-formed request rejected: {e:?}"),
                ));
            }
        }
    }
    // Staged parser (the event-loop path): must agree with the blocking
    // reader on well-formed input, and must be chunking-invariant.
    match catching(|| parse_request(&bytes, MAX_FUZZ_BODY)) {
        Err(msg) => out.push(panic_failure(&bytes, msg, parse_panics)),
        Ok(Ok(Some((req, consumed)))) => {
            if let Some(exp) = &expected {
                if req.method != exp.method || req.path != exp.path || req.body != exp.body {
                    out.push(Failure::new(
                        FailureKind::RoundTrip,
                        &bytes[..],
                        format!(
                            "staged parser read {} {} ({}B body), expected {} {} ({}B)",
                            req.method,
                            req.path,
                            req.body.len(),
                            exp.method,
                            exp.path,
                            exp.body.len()
                        ),
                    ));
                }
            }
            // Chunking invariance at random split points. A full-buffer
            // success implies the head fits MAX_HEAD_BYTES, so no prefix
            // can spuriously trip the head cap: every prefix must be
            // either "incomplete" or the exact same parse.
            for _ in 0..4 {
                let split = rng.random_range(0..=bytes.len());
                match catching(|| parse_request(&bytes[..split], MAX_FUZZ_BODY)) {
                    Err(msg) => {
                        out.push(panic_failure(&bytes[..split], msg, parse_panics));
                    }
                    Ok(Ok(None)) if split < consumed => {}
                    Ok(Ok(Some((p, c))))
                        if split >= consumed
                            && c == consumed
                            && p.method == req.method
                            && p.path == req.path
                            && p.body == req.body => {}
                    Ok(verdict) => {
                        let shape = match verdict {
                            Ok(Some((_, c))) => format!("parsed (consumed {c})"),
                            Ok(None) => "incomplete".to_string(),
                            Err(e) => format!("rejected: {e:?}"),
                        };
                        out.push(Failure::new(
                            FailureKind::RoundTrip,
                            &bytes[..],
                            format!(
                                "staged parser is chunking-variant: full buffer consumed \
                                 {consumed}B but the {split}B prefix came back {shape}"
                            ),
                        ));
                    }
                }
            }
        }
        Ok(Ok(None)) => {
            if expected.is_some() {
                out.push(Failure::new(
                    FailureKind::RoundTrip,
                    &bytes[..],
                    "staged parser left a complete well-formed request as incomplete".to_string(),
                ));
            }
        }
        Ok(Err(e)) => {
            if expected.is_some() {
                out.push(Failure::new(
                    FailureKind::RoundTrip,
                    &bytes[..],
                    format!("staged parser rejected a well-formed request: {e:?}"),
                ));
            }
        }
    }
    let mut mutated = bytes;
    mutate::mutate(rng, &mut mutated);
    if let Err(msg) = catching(|| {
        let _ = read_request(&mut Cursor::new(&mutated[..]), MAX_FUZZ_BODY);
    }) {
        out.push(panic_failure(&mutated, msg, http_panics));
    }
    // The staged parser sees mutants too — both whole and mid-buffer
    // truncated, since the event loop feeds it arbitrary partial reads.
    if let Err(msg) = catching(|| {
        let _ = parse_request(&mutated, MAX_FUZZ_BODY);
        let _ = parse_request(&mutated[..mutated.len() / 2], MAX_FUZZ_BODY);
    }) {
        out.push(panic_failure(&mutated, msg, parse_panics));
    }
    // Differential: the router's /eval answer must byte-agree with the
    // library path on the same textual query.
    let q = gen::vocab_query(rng);
    let text = sparql::format_union(&q);
    let body = Json::obj([
        ("ontology", Json::str("fuzz")),
        ("query", Json::str(text.clone())),
    ])
    .to_text();
    let request = eval_request(body.clone().into_bytes());
    match catching(|| route(&http.state, &request)) {
        Err(msg) => out.push(Failure::new(
            FailureKind::Panic,
            body.as_bytes(),
            format!("router panicked on a valid /eval body: {msg}"),
        )),
        Ok(resp) => {
            let reparsed = sparql::parse_union(&text).expect("formatted query parses");
            let results = evaluate_union_with(&http.ont, &reparsed, 1);
            let expected_body = Json::obj([(
                "results",
                Json::Arr(
                    results
                        .iter()
                        .map(|&r| Json::str(http.ont.value_str(r)))
                        .collect(),
                ),
            )])
            .to_text();
            if resp.status != 200 || resp.body != expected_body.as_bytes() {
                out.push(Failure::new(
                    FailureKind::Differential,
                    body.as_bytes(),
                    format!(
                        "server /eval diverged from the library path: status {}, body {:?}, expected {:?}",
                        resp.status,
                        String::from_utf8_lossy(&resp.body),
                        expected_body
                    ),
                ));
            }
        }
    }
    // Mutated bodies: never a panic, always a well-formed JSON envelope.
    let mut mutated_body = body.into_bytes();
    mutate::mutate(rng, &mut mutated_body);
    let request = eval_request(mutated_body.clone());
    match catching(|| route(&http.state, &request)) {
        Err(msg) => out.push(Failure::new(
            FailureKind::Panic,
            &mutated_body[..],
            format!("router panicked on a mutated /eval body: {msg}"),
        )),
        Ok(resp) => {
            let ok = std::str::from_utf8(&resp.body)
                .ok()
                .is_some_and(|t| questpro_wire::parse(t).is_ok());
            if !ok {
                out.push(Failure::new(
                    FailureKind::Differential,
                    &mutated_body[..],
                    format!(
                        "response to a mutated body is not well-formed JSON (status {})",
                        resp.status
                    ),
                ));
            }
        }
    }
    out
}

fn eval_request(body: Vec<u8>) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/eval".to_string(),
        query: String::new(),
        headers: vec![("content-type".to_string(), "application/json".to_string())],
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_ctx_registers_the_fuzz_world() {
        let ctx = Ctx::new(Surface::Http);
        let http = ctx.http.as_ref().unwrap();
        assert_eq!(http.ont.edge_count(), 6);
        assert!(http.state.registry.get("fuzz").is_some());
    }

    #[test]
    fn every_surface_iterates_without_failures() {
        for surface in Surface::ALL {
            let mut ctx = Ctx::new(surface);
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..25 {
                let fails = ctx.iterate(&mut rng);
                assert!(fails.is_empty(), "{surface}: {:?}", fails);
            }
        }
    }
}
