//! Structure-aware input generators.
//!
//! Each generator produces *valid* instances of its surface's model —
//! a JSON value, a union query, an ontology, an HTTP request — so the
//! round-trip and differential oracles have something meaningful to
//! check; the byte-level [`crate::mutate`] pass then degrades those
//! valid inputs into hostile ones for the no-panic oracle.
//!
//! Labels are deliberately nasty: the pools below mix plain `snake_case`
//! identifiers with every metacharacter class that has ever broken a
//! hand-rolled parser — quotes, backslashes, newlines, the formats' own
//! delimiters, `%`, directives, and non-ASCII text.

use questpro_graph::columnar::{EDGE_PAGE, NODE_PAGE};
use questpro_graph::rng::Rng;
use questpro_graph::{EdgeId, NodeId, Ontology, OntologyBuilder};
use questpro_query::{QueryBuilder, SimpleQuery, UnionQuery};
use questpro_wire::Json;

/// Metacharacter-rich labels every textual surface must survive.
pub const NASTY_LABELS: &[&str] = &[
    "plain",
    "wb",
    "author_1",
    "paper 1",
    "line\nbreak",
    "tab\there",
    "carriage\rreturn",
    "@type",
    "#comment",
    "percent%40",
    "%",
    "quote\"mark",
    "back\\slash",
    "dot.label",
    "brace}close",
    "brace{open",
    "question?mark",
    "colon:sep",
    "bang!=neq",
    "emoji\u{1F600}",
    "na\u{EF}ve",
    "UNION",
    "SELECT",
];

/// A random label: usually from [`NASTY_LABELS`], sometimes a fresh
/// random string over an alphabet that includes the metacharacters.
/// Always non-empty (empty labels are not representable in either
/// textual format, by design).
pub fn label(rng: &mut impl Rng) -> String {
    if rng.random_bool(0.7) {
        NASTY_LABELS[rng.random_range(0..NASTY_LABELS.len())].to_string()
    } else {
        const ALPHABET: &[char] = &[
            'a',
            'b',
            'z',
            '0',
            '_',
            '-',
            ' ',
            '"',
            '\\',
            '\n',
            '%',
            '#',
            '@',
            '.',
            '}',
            '?',
            ':',
            '\u{1F600}',
        ];
        let len = rng.random_range(1..9usize);
        (0..len)
            .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
            .collect()
    }
}

// ---------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------

/// A random JSON value, depth-bounded. All numbers are finite (the
/// serializer maps non-finite to `null` by design, which would be a
/// false round-trip failure).
pub fn json_value(rng: &mut impl Rng, depth: usize) -> Json {
    let scalar_only = depth >= 4;
    match rng.random_range(0..if scalar_only { 4u32 } else { 6u32 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_bool(0.5)),
        2 => Json::Num(finite_f64(rng)),
        3 => Json::Str(label(rng)),
        4 => {
            let n = rng.random_range(0..4usize);
            Json::Arr((0..n).map(|_| json_value(rng, depth + 1)).collect())
        }
        _ => {
            let n = rng.random_range(0..4usize);
            let mut pairs: Vec<(String, Json)> = Vec::with_capacity(n);
            for _ in 0..n {
                let key = label(rng);
                // Duplicate keys are legal JSON but not value-preserving
                // under any reading; keep generated objects unambiguous.
                if pairs.iter().all(|(k, _)| *k != key) {
                    pairs.push((key, json_value(rng, depth + 1)));
                }
            }
            Json::Obj(pairs)
        }
    }
}

/// A finite `f64` spanning integers, small fractions, and raw-bit
/// patterns (subnormals included).
fn finite_f64(rng: &mut impl Rng) -> f64 {
    match rng.random_range(0..4u32) {
        0 => rng.random_range(0..2_000u64) as f64 - 1_000.0,
        1 => (rng.random_range(0..2_000u64) as f64 - 1_000.0) / 64.0,
        2 => 1.0 / (rng.random_range(1..1_000u64) as f64),
        _ => {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                v
            } else {
                0.5
            }
        }
    }
}

// ---------------------------------------------------------------------
// Union queries
// ---------------------------------------------------------------------

/// Constant / predicate pools a query generator draws from; `None`
/// pools fall back to [`label`]'s metacharacter-rich stream.
#[derive(Debug, Clone, Copy)]
struct Vocab {
    consts: Option<&'static [&'static str]>,
    preds: Option<&'static [&'static str]>,
}

impl Vocab {
    fn constant(self, rng: &mut impl Rng) -> String {
        match self.consts {
            Some(pool) => pool[rng.random_range(0..pool.len())].to_string(),
            None => label(rng),
        }
    }

    fn pred(self, rng: &mut impl Rng) -> String {
        match self.preds {
            Some(pool) => pool[rng.random_range(0..pool.len())].to_string(),
            None => label(rng),
        }
    }
}

/// A random union query over metacharacter-rich labels.
pub fn union_query(rng: &mut impl Rng) -> UnionQuery {
    let vocab = Vocab {
        consts: None,
        preds: None,
    };
    let branches = rng.random_range(1..3usize);
    let qs: Vec<SimpleQuery> = (0..branches).map(|_| branch(rng, vocab)).collect();
    UnionQuery::new(qs).expect("at least one branch was generated")
}

/// A random union query over the differential-oracle vocabulary, so
/// evaluation against [`tiny_ontology_text`] yields meaningful results.
pub fn vocab_query(rng: &mut impl Rng) -> UnionQuery {
    let vocab = Vocab {
        consts: Some(&["alice", "bob", "carol", "paper1", "paper2"]),
        preds: Some(&["wb", "cite"]),
    };
    let branches = rng.random_range(1..3usize);
    let qs: Vec<SimpleQuery> = (0..branches).map(|_| branch(rng, vocab)).collect();
    UnionQuery::new(qs).expect("at least one branch was generated")
}

/// One valid `SimpleQuery`: the projected variable always touches a
/// required edge (or is the lone isolated node — the only isolated-node
/// shape the concrete syntax can express), every other node is an edge
/// endpoint, and disequalities link distinct variables.
fn branch(rng: &mut impl Rng, vocab: Vocab) -> SimpleQuery {
    let mut b = QueryBuilder::new();
    let proj = b.var("x0");
    if rng.random_bool(0.05) {
        b.project(proj);
        return b.build().expect("isolated projected variable is valid");
    }
    let mut vars = vec![proj];
    let mut nodes = vec![proj];
    let edge_count = rng.random_range(1..6usize);
    for i in 0..edge_count {
        // First edge anchors the projection with a required edge.
        let src = if i == 0 {
            proj
        } else {
            pick_or_new(rng, &mut b, &mut vars, &mut nodes, vocab)
        };
        let dst = pick_or_new(rng, &mut b, &mut vars, &mut nodes, vocab);
        let pred = vocab.pred(rng);
        if i > 0 && rng.random_bool(0.2) {
            b.optional_edge(src, &pred, dst);
        } else {
            b.edge(src, &pred, dst);
        }
    }
    if vars.len() >= 2 && rng.random_bool(0.3) {
        let a = vars[rng.random_range(0..vars.len())];
        let c = vars[rng.random_range(0..vars.len())];
        if a != c {
            b.diseq(a, c);
        }
    }
    b.project(proj);
    b.build()
        .expect("generated branch satisfies the invariants")
}

/// An existing node (60%), or a fresh variable / constant.
fn pick_or_new(
    rng: &mut impl Rng,
    b: &mut QueryBuilder,
    vars: &mut Vec<questpro_query::QueryNodeId>,
    nodes: &mut Vec<questpro_query::QueryNodeId>,
    vocab: Vocab,
) -> questpro_query::QueryNodeId {
    if rng.random_bool(0.6) {
        return nodes[rng.random_range(0..nodes.len())];
    }
    let id = if rng.random_bool(0.6) {
        let name = format!("x{}", nodes.len());
        let id = b.var(&name);
        if !vars.contains(&id) {
            vars.push(id);
        }
        id
    } else {
        b.constant(&vocab.constant(rng))
    };
    if !nodes.contains(&id) {
        nodes.push(id);
    }
    id
}

// ---------------------------------------------------------------------
// Ontologies
// ---------------------------------------------------------------------

/// A random small ontology with metacharacter-rich labels; duplicate
/// triples and conflicting types are avoided so construction cannot
/// fail.
pub fn ontology(rng: &mut impl Rng) -> Ontology {
    let mut b = OntologyBuilder::new();
    let edge_count = rng.random_range(1..9usize);
    let mut seen = Vec::new();
    let mut values = Vec::new();
    for _ in 0..edge_count {
        let (s, p, d) = (label(rng), label(rng), label(rng));
        if seen.contains(&(s.clone(), p.clone(), d.clone())) {
            continue;
        }
        seen.push((s.clone(), p.clone(), d.clone()));
        b.edge(&s, &p, &d).expect("triple was deduplicated");
        values.push(s);
        values.push(d);
    }
    let mut typed = Vec::new();
    for _ in 0..rng.random_range(0..3usize) {
        let v = values[rng.random_range(0..values.len())].clone();
        if typed.contains(&v) {
            continue;
        }
        typed.push(v.clone());
        b.typed_node(&v, &label(rng))
            .expect("value typed only once");
    }
    b.build()
}

/// A random dictionary-encoded store with metacharacter-rich labels:
/// triples, isolated nodes, and type declarations. Each label is typed
/// at most once so construction cannot fail.
pub fn store(rng: &mut impl Rng) -> questpro_store::TripleStore {
    let mut b = questpro_store::StoreBuilder::new();
    let mut values = Vec::new();
    for _ in 0..rng.random_range(0..9usize) {
        let (s, p, o) = (label(rng), label(rng), label(rng));
        b.add_triple(&s, &p, &o);
        values.push(s);
        values.push(o);
    }
    for _ in 0..rng.random_range(0..3usize) {
        let v = label(rng);
        b.add_node(&v);
        values.push(v);
    }
    let mut typed = Vec::new();
    for _ in 0..rng.random_range(0..3usize) {
        if values.is_empty() {
            break;
        }
        let v = values[rng.random_range(0..values.len())].clone();
        if typed.contains(&v) {
            continue;
        }
        b.add_type(&v, &label(rng)).expect("value typed only once");
        typed.push(v);
    }
    b.build().expect("generated stores satisfy the invariants")
}

/// A store whose graph spans four to six node pages and one to three
/// edge pages of the paged layout (see `questpro_graph::columnar`), so
/// [`boundary_batch`] can aim at page boundaries. Triples are distinct by
/// construction: edge `i` links node `i mod n` to the node `i div n + 1`
/// places after it.
pub fn paged_store(rng: &mut impl Rng) -> questpro_store::TripleStore {
    let nodes = rng.random_range(4 * NODE_PAGE + 1..6 * NODE_PAGE);
    let edges = rng.random_range(EDGE_PAGE + 1..3 * EDGE_PAGE);
    let mut b = questpro_store::StoreBuilder::new();
    for i in 0..edges {
        let (s, t) = (i % nodes, (i % nodes + i / nodes + 1) % nodes);
        let p = PAGED_PREDS[rng.random_range(0..PAGED_PREDS.len())];
        b.add_triple(&format!("n{s}"), p, &format!("n{t}"));
    }
    b.build().expect("generated stores satisfy the invariants")
}

/// Predicates of [`paged_store`] worlds.
const PAGED_PREDS: [&str; 3] = ["p0", "p1", "p2"];

/// A batch against the paged world `ont` aimed at page boundaries: it
/// joins the last node of a node page to the first of the next (after
/// deleting one edge at each), deletes the edges on both sides of an
/// edge-page boundary, and sometimes inserts enough fresh nodes to open
/// a new node page or deletes enough edges to shrink the edge table
/// across a page boundary. Inserts may collide with surviving edges;
/// the oracle only asks both update paths to agree.
pub fn boundary_batch(rng: &mut impl Rng, ont: &Ontology) -> questpro_graph::TripleDelta {
    let triple = |e: EdgeId| {
        let d = ont.edge(e);
        [
            ont.value_str(d.src).to_string(),
            ont.pred_str(d.pred).to_string(),
            ont.value_str(d.dst).to_string(),
        ]
    };
    let mut delta = questpro_graph::TripleDelta::default();
    let delete = |e: EdgeId, delta: &mut questpro_graph::TripleDelta| {
        let t = triple(e);
        if !delta.deletes.contains(&t) {
            delta.deletes.push(t);
        }
    };
    let (n, m) = (ont.node_count(), ont.edge_count());
    let k = rng.random_range(1..n.div_ceil(NODE_PAGE).max(2)) * NODE_PAGE;
    if k < n {
        let (last, first) = (NodeId::from_usize(k - 1), NodeId::from_usize(k));
        for &e in ont
            .out_edges(last)
            .iter()
            .chain(ont.in_edges(first))
            .take(2)
        {
            delete(e, &mut delta);
        }
        let p = PAGED_PREDS[rng.random_range(0..PAGED_PREDS.len())];
        delta.inserts.push([
            ont.value_str(last).to_string(),
            p.to_string(),
            ont.value_str(first).to_string(),
        ]);
    }
    let j = rng.random_range(1..m.div_ceil(EDGE_PAGE).max(2)) * EDGE_PAGE;
    for e in j.saturating_sub(2)..(j + 2).min(m) {
        delete(EdgeId::from_usize(e), &mut delta);
    }
    if rng.random_bool(0.3) {
        // Fresh pairs until the node table crosses into a new page.
        let fresh = (NODE_PAGE - n % NODE_PAGE).div_ceil(2) + 1;
        let tag = rng.random_range(0..u32::MAX);
        for i in 0..fresh {
            delta
                .inserts
                .push([format!("f{tag}_{i}"), "p0".into(), format!("g{tag}_{i}")]);
        }
    }
    if rng.random_bool(0.3) {
        // Enough tail deletes to end the edge table one page earlier.
        for e in (m.saturating_sub(m % EDGE_PAGE + 1)..m).rev() {
            delete(EdgeId::from_usize(e), &mut delta);
        }
    }
    if delta.is_empty() {
        delta.inserts.push(["f".into(), "p0".into(), "g".into()]);
    }
    delta
}

/// A random triple-update batch against `store`.
///
/// Deletes are mostly drawn from the store's own rows (so chains of
/// valid updates make progress), occasionally a fabricated missing
/// triple; inserts are mostly fresh rows, occasionally a deliberate
/// collision with an existing one. Invalid batches are the point: the
/// update differential oracle requires the incremental and the
/// from-scratch paths to *agree* on acceptance, and on the result when
/// accepted. Never empty (the wire layer rejects empty batches by
/// design, which would make the round-trip stage vacuous).
pub fn update_batch(
    rng: &mut impl Rng,
    store: &questpro_store::TripleStore,
) -> questpro_graph::TripleDelta {
    let mut delta = questpro_graph::TripleDelta {
        inserts: Vec::new(),
        deletes: Vec::new(),
    };
    let row_labels = |store: &questpro_store::TripleStore, row: usize| {
        let t = store.triples()[row];
        [
            store.nodes().label(t[0]).to_string(),
            store.preds().label(t[1]).to_string(),
            store.nodes().label(t[2]).to_string(),
        ]
    };
    let rows = store.triple_count();
    for _ in 0..rng.random_range(0..3usize) {
        if rows > 0 && !rng.random_bool(0.15) {
            delta
                .deletes
                .push(row_labels(store, rng.random_range(0..rows)));
        } else {
            delta.deletes.push([label(rng), label(rng), label(rng)]);
        }
    }
    for _ in 0..rng.random_range(0..4usize) {
        if rows > 0 && rng.random_bool(0.15) {
            delta
                .inserts
                .push(row_labels(store, rng.random_range(0..rows)));
        } else {
            delta.inserts.push([label(rng), label(rng), label(rng)]);
        }
    }
    if delta.inserts.is_empty() && delta.deletes.is_empty() {
        delta.inserts.push([label(rng), label(rng), label(rng)]);
    }
    delta
}

/// The fixed six-edge world the `/eval` differential oracle queries.
pub fn tiny_ontology_text() -> &'static str {
    "alice wb paper1\n\
     bob wb paper1\n\
     bob wb paper2\n\
     carol cite paper2\n\
     paper1 cite paper2\n\
     carol wb paper2\n\
     @type alice Author\n\
     @type paper1 Paper\n"
}

// ---------------------------------------------------------------------
// HTTP requests
// ---------------------------------------------------------------------

/// The parsed shape a well-formed generated request must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedRequest {
    /// Uppercased method.
    pub method: String,
    /// Path portion of the target.
    pub path: String,
    /// Exact body bytes.
    pub body: Vec<u8>,
}

/// A random HTTP/1.1 request.
///
/// Returns the wire bytes plus, for well-formed requests, the shape
/// `read_request` must parse them into (`None` means the request is
/// hostile on purpose and only the no-panic oracle applies).
pub fn http_request(rng: &mut impl Rng) -> (Vec<u8>, Option<ExpectedRequest>) {
    if rng.random_bool(0.5) {
        let method = ["GET", "POST", "DELETE", "PUT"][rng.random_range(0..4usize)];
        let path = [
            "/healthz",
            "/metrics",
            "/eval",
            "/ontologies",
            "/sessions/1",
            "/debug/traces",
        ][rng.random_range(0..6usize)];
        let body: Vec<u8> = (0..rng.random_range(0..40usize))
            .map(|_| rng.random_range(0..256u64) as u8)
            .collect();
        let mut text = format!("{method} {path} HTTP/1.1\r\nHost: fuzz\r\n");
        if !body.is_empty() || rng.random_bool(0.5) {
            text.push_str(&format!("Content-Length: {}\r\n", body.len()));
            if rng.random_bool(0.2) {
                // An identical repeat is legal framing (RFC 9110 §8.6).
                text.push_str(&format!("Content-Length: {}\r\n", body.len()));
            }
        }
        text.push_str("\r\n");
        let mut bytes = text.into_bytes();
        bytes.extend_from_slice(&body);
        let expected = ExpectedRequest {
            method: method.to_string(),
            path: path.to_string(),
            body,
        };
        (bytes, Some(expected))
    } else {
        (hostile_request(rng), None)
    }
}

/// A request drawn from the smuggling/malformed corpus of shapes: bad
/// methods and versions, conflicting or non-digit or overflowing
/// `Content-Length`, headers without colons, truncated heads.
fn hostile_request(rng: &mut impl Rng) -> Vec<u8> {
    let method = ["GET", "BOGUS", "get", "", "P\u{d6}ST"][rng.random_range(0..5usize)];
    let target =
        ["/eval", "/sessions/+1", "/%2e%2e", "/a?limit=+5", "*"][rng.random_range(0..5usize)];
    let version = ["HTTP/1.1", "HTTP/1.0", "HTTP/2", "ICY", ""][rng.random_range(0..5usize)];
    let mut text = format!("{method} {target} {version}\r\n");
    for _ in 0..rng.random_range(0..4usize) {
        let header = [
            "Content-Length: 4",
            "Content-Length: 5",
            "Content-Length: +4",
            "Content-Length: -4",
            "Content-Length: 4 4",
            "Content-Length: 0x10",
            "Content-Length: 18446744073709551616",
            "Content-Length:",
            "Content-Length: \u{664}",
            "Transfer-Encoding: chunked",
            "Host fuzz",
            ": empty-name",
            "X-Junk: \"quoted\\value\"",
        ][rng.random_range(0..13usize)];
        text.push_str(header);
        text.push_str("\r\n");
    }
    if rng.random_bool(0.8) {
        text.push_str("\r\n");
    }
    let mut bytes = text.into_bytes();
    for _ in 0..rng.random_range(0..10usize) {
        bytes.push(rng.random_range(0..256u64) as u8);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use questpro_graph::rng::StdRng;

    #[test]
    fn generated_queries_are_valid_and_formattable() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let q = union_query(&mut rng);
            assert!(!questpro_query::sparql::format_union(&q).is_empty());
        }
    }

    #[test]
    fn generated_ontologies_serialize() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let o = ontology(&mut rng);
            assert!(o.edge_count() >= 1);
        }
    }

    #[test]
    fn boundary_batches_cross_page_boundaries_and_mostly_apply() {
        let mut rng = StdRng::seed_from_u64(9);
        let (mut applied, mut new_node_page, mut fewer_edge_pages) = (0, false, false);
        for _ in 0..40 {
            let ont = paged_store(&mut rng)
                .to_ontology()
                .expect("paged stores assemble");
            let (nodes, edges) = ont.pages().page_counts();
            assert!(
                nodes >= 4 && edges >= 2,
                "{nodes} node pages, {edges} edge pages"
            );
            let delta = boundary_batch(&mut rng, &ont);
            if let Ok((next, _)) = ont.apply_delta(&delta) {
                applied += 1;
                new_node_page |= next.pages().page_counts().0 > nodes;
                fewer_edge_pages |= next.pages().page_counts().1 < edges;
            }
        }
        assert!(
            applied >= 30,
            "only {applied} of 40 boundary batches applied"
        );
        assert!(new_node_page && fewer_edge_pages);
    }

    #[test]
    fn generated_stores_encode_and_decode() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut saw_empty = false;
        let mut saw_typed = false;
        for _ in 0..200 {
            let s = store(&mut rng);
            saw_empty |= s.triple_count() == 0;
            saw_typed |= !s.node_types().is_empty();
            let bytes = questpro_store::encode(&s);
            assert_eq!(questpro_store::decode(&bytes).unwrap(), s);
        }
        assert!(saw_empty && saw_typed);
    }

    #[test]
    fn tiny_ontology_parses() {
        let o = questpro_graph::triples::parse(tiny_ontology_text()).unwrap();
        assert_eq!(o.edge_count(), 6);
    }

    #[test]
    fn well_formed_requests_label_their_expectation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut saw_valid = false;
        let mut saw_hostile = false;
        for _ in 0..50 {
            let (bytes, expected) = http_request(&mut rng);
            assert!(!bytes.is_empty());
            saw_valid |= expected.is_some();
            saw_hostile |= expected.is_none();
        }
        assert!(saw_valid && saw_hostile);
    }
}
