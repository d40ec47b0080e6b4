//! Seeded inputs: the worlds each workload serves and its fixed
//! operation list.
//!
//! Every operation is a pure function of `(seed, index)`, so the list is
//! unbounded — a faster server simply gets further down the same list —
//! and two runs with one seed send byte-identical requests no matter how
//! far each one gets. (`session_replay` cycles through a fixed number of
//! distinct sessions, generated before the window.) Only the generated
//! inputs reach the server; the seed itself never does.

use std::sync::Arc;

use questpro_data::{
    bsbm_workload, generate_bsbm, generate_movies, generate_sp2b, movie_workload, scale_stream,
    sp2b_workload, BsbmConfig, MoviesConfig, OntologyKind, ScaleConfig, ScaleItem, ScaleWorld,
    Sp2bConfig, WorkloadQuery,
};
use questpro_engine::sample_example_set;
use questpro_graph::rng::{Rng, SliceRandom, StdRng};
use questpro_graph::{exformat, NodeId, Ontology, TripleDelta};
use questpro_store::{encode, StoreBuilder};
use questpro_wire::Json;

use crate::http::{request, Req};

/// The three workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["session_replay", "eval_scale", "live_update"];

/// Triples in the `eval_scale` snapshot. At 10⁶ an anchor query took
/// up to 0.4 s on a 2-vCPU host, too few for a p90 in a 20 s window.
pub const EVAL_SCALE_TRIPLES: u64 = 500_000;
/// Triples in the `live_update` snapshot.
pub const LIVE_TRIPLES: u64 = 100_000;
/// `live_update` reads between two update batches.
pub const LIVE_READS_PER_UPDATE: u64 = 4;
/// Papers inserted per `live_update` batch (four triples each).
const LIVE_PAPERS_PER_BATCH: u64 = 4;
/// A batch deletes what the batch this many places earlier inserted, so
/// the head keeps a bounded size while every batch both inserts and
/// deletes.
const DELETE_LAG: u64 = 3;

/// SplitMix64 finaliser over `(seed, index)`: the per-operation stream.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// session_replay
// ---------------------------------------------------------------------

/// The paper's default-scale worlds (the server's built-ins, generated
/// identically in-process) and the 25-query target catalog.
pub struct SessionWorlds {
    /// `(name, world)` for sp2b, bsbm, movies.
    pub worlds: Vec<(&'static str, Arc<Ontology>)>,
    /// SP2B, BSBM and movie catalog queries.
    pub catalog: Vec<WorkloadQuery>,
}

impl SessionWorlds {
    /// Generates the worlds exactly as the server's registry does.
    pub fn build() -> SessionWorlds {
        let mut catalog = sp2b_workload();
        catalog.extend(bsbm_workload());
        catalog.extend(movie_workload());
        SessionWorlds {
            worlds: vec![
                ("sp2b", Arc::new(generate_sp2b(&Sp2bConfig::default()))),
                ("bsbm", Arc::new(generate_bsbm(&BsbmConfig::default()))),
                (
                    "movies",
                    Arc::new(generate_movies(&MoviesConfig::default())),
                ),
            ],
            catalog,
        }
    }

    /// The world a catalog query targets.
    pub fn world_of(&self, target: usize) -> (&'static str, &Arc<Ontology>) {
        let i = match self.catalog[target].kind {
            OntologyKind::Sp2b => 0,
            OntologyKind::Bsbm => 1,
            OntologyKind::Movies => 2,
        };
        let (name, ont) = &self.worlds[i];
        (name, ont)
    }
}

/// One interactive session: a target drawn from the catalog, the
/// explanations sampled from it, and the session seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Index into [`SessionWorlds::catalog`].
    pub target: usize,
    /// World name.
    pub world: &'static str,
    /// Example-set in the `exformat` text form.
    pub examples: String,
    /// Session seed (below 2^53, so it survives a JSON number).
    pub seed: u64,
}

impl SessionSpec {
    /// `POST /sessions` request.
    pub fn create(&self) -> Req {
        let body = Json::obj([
            ("ontology", Json::str(self.world)),
            ("examples", Json::str(self.examples.clone())),
            ("seed", Json::from(self.seed)),
        ]);
        request("POST", "/sessions", &body.to_text())
    }
}

/// `POST /sessions/:id/feedback` request.
pub fn feedback(id: u64, answer: bool) -> Req {
    let body = Json::obj([("answer", Json::Bool(answer))]).to_text();
    request("POST", &format!("/sessions/{id}/feedback"), &body)
}

/// `DELETE /sessions/:id` request.
pub fn delete(id: u64) -> Req {
    request("DELETE", &format!("/sessions/{id}"), "")
}

/// Distinct sessions in one seed's list. The list replays them in a
/// cycle, so a run never generates inputs while it measures.
pub const SESSIONS: u64 = 500;

/// The `i`-th session of the list (`i < SESSIONS`): every consecutive
/// block of catalog-size sessions covers each target once, in a seeded
/// order, so every seed's list has the same target mix; the 2–7
/// explanations are sampled from the target's results.
pub fn session_spec(w: &SessionWorlds, seed: u64, i: u64) -> SessionSpec {
    let n = w.catalog.len() as u64;
    let mut order: Vec<usize> = (0..w.catalog.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(mix(seed ^ 0x5E55, i / n)));
    let target = order[(i % n) as usize];
    let mut rng = StdRng::seed_from_u64(mix(seed, i));
    loop {
        let count = rng.random_range(2..=7usize);
        let (world, ont) = w.world_of(target);
        let examples = sample_example_set(ont, &w.catalog[target].query, count, &mut rng, 6);
        if examples.len() >= 2 {
            return SessionSpec {
                target,
                world,
                examples: exformat::serialize_examples(ont, &examples),
                seed: rng.next_u64() >> 11,
            };
        }
    }
}

// ---------------------------------------------------------------------
// Scale worlds: eval_scale and live_update
// ---------------------------------------------------------------------

/// A seeded sp2b-shaped scale world: its snapshot bytes (what the
/// server preloads with `--store`) and the same world in-process.
pub struct ScaleData {
    /// Registry name (the snapshot file stem).
    pub name: &'static str,
    /// Encoded snapshot.
    pub snapshot: Vec<u8>,
    /// The world as the library assembles it from the snapshot.
    pub ont: Arc<Ontology>,
    /// Authors with at least one paper, in seeded order: the fresh
    /// anchors, one per eval request.
    pub anchors: Vec<String>,
    /// Size of the author pool (`author0..`).
    pub authors: u64,
    /// Size of the journal pool (`journal0..`).
    pub journals: u64,
    /// Seeded example-sets for `live_update`'s `POST /infer` reads.
    pub infer_examples: Vec<String>,
}

impl ScaleData {
    /// Streams the world into a snapshot and assembles it in-process.
    pub fn build(name: &'static str, triples: u64, seed: u64) -> Result<ScaleData, String> {
        let mut b = StoreBuilder::new();
        for item in scale_stream(&ScaleConfig {
            world: ScaleWorld::Sp2b,
            triples,
            seed,
        }) {
            match item {
                ScaleItem::Triple { s, p, o } => b.add_triple(&s, &p, &o),
                ScaleItem::Type { node, ty } => {
                    b.add_type(&node, &ty).map_err(|e| e.to_string())?
                }
            }
        }
        let store = b.build().map_err(|e| e.to_string())?;
        let snapshot = encode(&store);
        let ont = Arc::new(store.to_ontology().map_err(|e| e.to_string())?);
        drop(store);
        // Pool sizes mirror `scale_stream`'s sp2b pools.
        let authors = (triples / 5).max(8);
        let journals = (triples / 50).max(4);
        let creator = ont.pred_by_name("creator").ok_or("no creator predicate")?;
        let mut rng = StdRng::seed_from_u64(mix(seed, u64::MAX));
        let papers_of = |a: NodeId| ont.in_edges_with_pred(a, creator);
        let mut anchors = Vec::new();
        let mut infer_examples = Vec::new();
        for i in 0..authors {
            let label = format!("author{i}");
            let Some(a) = ont.node_by_value(&label) else {
                continue;
            };
            if papers_of(a).is_empty() {
                continue;
            }
            // Co-authorship explanations: (paper, co-author) pairs on
            // distinct papers with distinct co-authors.
            let mut blocks = Vec::new();
            let mut seen = Vec::new();
            for &e in papers_of(a) {
                let paper = ont.edge(e).src;
                let Some(&x) = ont
                    .out_edges_with_pred(paper, creator)
                    .iter()
                    .map(|&c| ont.edge(c).dst)
                    .filter(|&x| x != a && !seen.contains(&x))
                    .collect::<Vec<_>>()
                    .first()
                else {
                    continue;
                };
                seen.push(x);
                let (p, x) = (ont.value_str(paper), ont.value_str(x));
                blocks.push(format!("dis {x}\n{p} creator {x}\n{p} creator {label}\n"));
                if blocks.len() == 3 {
                    break;
                }
            }
            if blocks.len() >= 2 {
                infer_examples.push(blocks.join("\n"));
            }
            anchors.push(label);
        }
        anchors.shuffle(&mut rng);
        infer_examples.shuffle(&mut rng);
        if anchors.is_empty() || infer_examples.is_empty() {
            return Err("the scale world has no usable anchors".into());
        }
        Ok(ScaleData {
            name,
            snapshot,
            ont,
            anchors,
            authors,
            journals,
            infer_examples,
        })
    }
}

/// A read or write against a scale world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `POST /eval` of an anchor query, optionally with the provenance
    /// of one result (the anchor itself, always a result).
    Eval {
        /// World name.
        world: &'static str,
        /// SPARQL text.
        query: String,
        /// Result whose provenance is requested.
        provenance: Option<String>,
    },
    /// `POST /infer` over an example-set.
    Infer {
        /// World name.
        world: &'static str,
        /// Example-set text.
        examples: String,
    },
    /// `POST /ontologies/:world/update`: the `batch`-th batch.
    Update {
        /// World name.
        world: &'static str,
        /// Batch number (0-based); batches apply in this order.
        batch: u64,
        /// The batch.
        delta: TripleDelta,
    },
}

impl Op {
    /// The request this operation sends.
    pub fn request(&self) -> Req {
        match self {
            Op::Eval {
                world,
                query,
                provenance,
            } => {
                let mut pairs = vec![
                    ("ontology", Json::str(*world)),
                    ("query", Json::str(query.clone())),
                ];
                if let Some(p) = provenance {
                    pairs.push(("provenance", Json::str(p.clone())));
                }
                request("POST", "/eval", &Json::obj(pairs).to_text())
            }
            Op::Infer { world, examples } => {
                let body = Json::obj([
                    ("ontology", Json::str(*world)),
                    ("examples", Json::str(examples.clone())),
                ]);
                request("POST", "/infer", &body.to_text())
            }
            Op::Update { world, delta, .. } => {
                let triples = |ts: &[[String; 3]]| {
                    Json::Arr(
                        ts.iter()
                            .map(|t| Json::Arr(t.iter().map(|s| Json::str(s.clone())).collect()))
                            .collect(),
                    )
                };
                let mut pairs = vec![("insert", triples(&delta.inserts))];
                if !delta.deletes.is_empty() {
                    pairs.push(("delete", triples(&delta.deletes)));
                }
                request(
                    "POST",
                    &format!("/ontologies/{world}/update"),
                    &Json::obj(pairs).to_text(),
                )
            }
        }
    }

    /// Operation kind label (for per-kind accounting).
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Eval {
                provenance: None, ..
            } => "eval",
            Op::Eval { .. } => "eval.provenance",
            Op::Infer { .. } => "infer",
            Op::Update { .. } => "update",
        }
    }

    /// Whether the operation writes (kept in its own percentile).
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Update { .. })
    }
}

/// Co-authors of `anchor`: the scale world's anchor-query shape.
pub fn anchor_query(anchor: &str) -> String {
    format!("SELECT ?x WHERE {{ ?p :creator ?x . ?p :creator :{anchor} . }}")
}

/// Inserts of `live_update` batch `k`: fresh papers wired to existing
/// authors, years and journals.
fn live_inserts(d: &ScaleData, seed: u64, k: u64) -> Vec<[String; 3]> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x11FE, k));
    let mut out = Vec::new();
    for j in 0..LIVE_PAPERS_PER_BATCH {
        let paper = format!("upaper{k}x{j}");
        let a1 = rng.random_range(0..d.authors);
        let a2 = (a1 + 1 + rng.random_range(0..d.authors - 1)) % d.authors;
        let year = 1950 + rng.random_range(0..70u64);
        let journal = rng.random_range(0..d.journals);
        for (p, o) in [
            ("creator", format!("author{a1}")),
            ("creator", format!("author{a2}")),
            ("year", format!("y{year}")),
            ("journal", format!("journal{journal}")),
        ] {
            out.push([paper.clone(), p.to_string(), o]);
        }
    }
    out
}

/// Batch `k` given its insert generator: its own inserts, and the
/// deletion of what batch `k - DELETE_LAG` inserted.
fn batch(k: u64, inserts: impl Fn(u64) -> Vec<[String; 3]>) -> TripleDelta {
    TripleDelta {
        inserts: inserts(k),
        deletes: if k >= DELETE_LAG {
            inserts(k - DELETE_LAG)
        } else {
            Vec::new()
        },
    }
}

/// The `i`-th `eval_scale` operation: a fresh-anchor read over the scale
/// world, one in four with provenance. The list never writes.
pub fn eval_scale_op(d: &ScaleData, seed: u64, i: u64) -> Op {
    let anchor = &d.anchors[(i % d.anchors.len() as u64) as usize];
    Op::Eval {
        world: d.name,
        query: anchor_query(anchor),
        provenance: mix(seed, i).is_multiple_of(4).then(|| anchor.clone()),
    }
}

/// The `i`-th `live_update` operation: [`LIVE_READS_PER_UPDATE`] reads
/// (alternating `POST /eval` with provenance and `POST /infer`), then
/// one update batch.
pub fn live_op(d: &ScaleData, seed: u64, i: u64) -> Op {
    let period = LIVE_READS_PER_UPDATE + 1;
    let (round, r) = (i / period, i % period);
    if r == LIVE_READS_PER_UPDATE {
        return Op::Update {
            world: d.name,
            batch: round,
            delta: batch(round, |k| live_inserts(d, seed, k)),
        };
    }
    // Evals outnumber infers three to one, so the read median sits inside
    // the eval mode; with an even mix it would fall in the gap between
    // the two modes and be set by the slowest infer and the fastest eval.
    if r + 1 < LIVE_READS_PER_UPDATE {
        let k = round * (LIVE_READS_PER_UPDATE - 1) + r;
        let anchor = &d.anchors[(k % d.anchors.len() as u64) as usize];
        Op::Eval {
            world: d.name,
            query: anchor_query(anchor),
            provenance: Some(anchor.clone()),
        }
    } else {
        let ex = &d.infer_examples[(round % d.infer_examples.len() as u64) as usize];
        Op::Infer {
            world: d.name,
            examples: ex.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(ops: impl Iterator<Item = Req>) -> Vec<u8> {
        ops.flat_map(|r| r.bytes).collect()
    }

    #[test]
    fn session_lists_are_seed_determined() {
        let w = SessionWorlds::build();
        let list = |seed| bytes_of((0..12).map(|i| session_spec(&w, seed, i).create()));
        assert_eq!(list(5), list(5), "same seed, same bytes");
        assert_ne!(list(5), list(6), "different seed, different list");
        for i in 0..12 {
            let s = session_spec(&w, 5, i);
            let n = s.examples.matches("dis ").count();
            assert!((2..=7).contains(&n), "{n} explanations");
        }
        let n = w.catalog.len() as u64;
        let mut block: Vec<usize> = (n..2 * n).map(|i| session_spec(&w, 5, i).target).collect();
        block.sort_unstable();
        assert_eq!(
            block,
            (0..n as usize).collect::<Vec<_>>(),
            "a block covers the catalog"
        );
    }

    #[test]
    fn scale_lists_are_seed_determined_and_anchors_fresh() {
        let a = ScaleData::build("scale", 20_000, 1).unwrap();
        let b = ScaleData::build("scale", 20_000, 1).unwrap();
        let c = ScaleData::build("scale", 20_000, 2).unwrap();
        assert_eq!(a.snapshot, b.snapshot);
        for (f, n) in [
            (eval_scale_op as fn(&ScaleData, u64, u64) -> Op, 200),
            (live_op, 200),
        ] {
            let list = |d: &ScaleData, seed| bytes_of((0..n).map(|i| f(d, seed, i).request()));
            assert_eq!(list(&a, 1), list(&b, 1), "same seed, same bytes");
            assert_ne!(list(&a, 1), list(&c, 2), "different seed, different list");
        }
        let queries: Vec<String> = (0..400)
            .map(|i| match eval_scale_op(&a, 1, i) {
                Op::Eval { query, .. } => query,
                other => panic!("eval_scale only reads, got {other:?}"),
            })
            .collect();
        let mut uniq = queries.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), queries.len(), "no eval_scale request repeats");
    }

    #[test]
    fn batches_apply_in_order_and_bound_the_head() {
        let d = ScaleData::build("live", 20_000, 3).unwrap();
        let mut ont = (*d.ont).clone();
        let edges = ont.edge_count();
        for k in 0..8 {
            let Op::Update { delta, batch, .. } = live_op(&d, 3, k * 5 + 4) else {
                panic!("every fifth live op is an update");
            };
            assert_eq!(batch, k);
            assert!(!delta.inserts.is_empty());
            assert_eq!(delta.deletes.is_empty(), k < DELETE_LAG);
            ont = ont
                .apply_delta(&delta)
                .expect("batches apply in list order")
                .0;
        }
        let per = (LIVE_PAPERS_PER_BATCH * 4) as usize;
        assert_eq!(ont.edge_count(), edges + per * DELETE_LAG as usize);
    }
}
