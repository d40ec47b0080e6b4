//! `session_replay`: full interactive sessions over HTTP, answered by a
//! target oracle in the client, each verified afterwards against an
//! in-process session given the same seed and answers.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use questpro_feedback::{InteractiveSession, Oracle, TargetOracle};
use questpro_graph::{exformat, Ontology, Subgraph};
use questpro_query::sparql;
use questpro_wire::Json;

use crate::drive::{Pop, Sample, Unit};
use crate::http::Conn;
use crate::ops::{delete, feedback, session_spec, SessionSpec, SessionWorlds, SESSIONS};
use crate::verify::{par_map, server_session_config};

/// The session driver.
pub struct Sessions {
    /// The worlds and catalog.
    pub worlds: SessionWorlds,
    /// The seed's [`SESSIONS`] distinct sessions, generated before the
    /// measured window.
    list: Vec<SessionSpec>,
    /// One oracle per catalog target, its result set already computed.
    oracles: Vec<TargetOracle>,
}

/// What one session did over the wire.
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// Position in the cyclic list, modulo [`SESSIONS`].
    pub slot: u64,
    /// The session's inputs.
    pub spec: SessionSpec,
    /// The oracle's answers, in order.
    pub answers: Vec<bool>,
    /// The `result` of each question the server asked.
    pub questions: Vec<String>,
    /// The server's final query, when it reported one.
    pub final_query: Option<String>,
    /// Every exchange returned the expected 2xx status.
    pub http_ok: bool,
    /// Exchanges made (create + feedback + delete).
    pub exchanges: usize,
}

impl Sessions {
    /// Builds the worlds, generates the seed's sessions and warms one
    /// oracle per target.
    pub fn new(seed: u64) -> Sessions {
        let worlds = SessionWorlds::build();
        let slots: Vec<u64> = (0..SESSIONS).collect();
        let list = par_map(&slots, |&i| session_spec(&worlds, seed, i));
        let oracles = (0..worlds.catalog.len())
            .map(|t| {
                let (_, ont) = worlds.world_of(t);
                let mut o = TargetOracle::new(worlds.catalog[t].query.clone());
                let any = ont.node_ids().next().expect("worlds are non-empty");
                o.accept(ont, any, &Subgraph::single_node(any));
                o
            })
            .collect();
        Sessions {
            worlds,
            list,
            oracles,
        }
    }

    /// The `i`-th session's inputs.
    pub fn spec(&self, i: u64) -> &SessionSpec {
        &self.list[(i % SESSIONS) as usize]
    }

    /// The target oracle's verdict on a server question.
    pub fn answer(&self, target: usize, ont: &Ontology, pending: &Json) -> Option<bool> {
        let result = ont.node_by_value(pending.get("result")?.as_str()?)?;
        let prov = pending.get("provenance")?;
        let mut edges = Vec::new();
        for e in prov.get("edges")?.as_arr()? {
            let t = e.as_arr()?;
            let (s, p, o) = (
                t.first()?.as_str()?,
                t.get(1)?.as_str()?,
                t.get(2)?.as_str()?,
            );
            edges.push(ont.find_edge(
                ont.node_by_value(s)?,
                ont.pred_by_name(p)?,
                ont.node_by_value(o)?,
            )?);
        }
        let mut nodes = Vec::new();
        for n in prov.get("nodes")?.as_arr()? {
            nodes.push(ont.node_by_value(n.as_str()?)?);
        }
        let sub = Subgraph::from_parts(ont, edges, nodes);
        Some(self.oracles[target].clone().accept(ont, result, &sub))
    }
}

fn parse(body: &[u8]) -> Option<Json> {
    questpro_wire::parse(std::str::from_utf8(body).ok()?).ok()
}

impl Unit for Sessions {
    type Record = SessionRun;

    fn run(&self, conn: &mut Conn, i: u64, samples: &mut Vec<Sample>) -> io::Result<SessionRun> {
        let spec = self.spec(i);
        let (_, ont) = self.worlds.world_of(spec.target);
        let mut run = SessionRun {
            slot: i % SESSIONS,
            spec: spec.clone(),
            answers: Vec::new(),
            questions: Vec::new(),
            final_query: None,
            http_ok: false,
            exchanges: 1,
        };
        let (s, resp) = Sample::exchange(
            conn,
            &spec.create(),
            "session.create",
            "POST /sessions",
            Pop::Read,
        )?;
        samples.push(s);
        let Some(mut state) = (resp.status == 201).then(|| parse(&resp.body)).flatten() else {
            return Ok(run);
        };
        let Some(id) = state.get("id").and_then(Json::as_u64) else {
            return Ok(run);
        };
        let mut ok = true;
        loop {
            if let Some(q) = state.get("final").and_then(Json::as_str) {
                run.final_query = Some(q.to_string());
                break;
            }
            let Some(pending) = state.get("pending").filter(|p| !matches!(p, Json::Null)) else {
                ok = false;
                break;
            };
            let Some(verdict) = self.answer(spec.target, ont, pending) else {
                ok = false;
                break;
            };
            run.questions.push(
                pending
                    .get("result")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            );
            run.answers.push(verdict);
            let (s, resp) = Sample::exchange(
                conn,
                &feedback(id, verdict),
                "session.feedback",
                "POST /sessions/:id/feedback",
                Pop::Read,
            )?;
            samples.push(s);
            run.exchanges += 1;
            match (resp.status == 200).then(|| parse(&resp.body)).flatten() {
                Some(next) => state = next,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        let (s, resp) = Sample::exchange(
            conn,
            &delete(id),
            "session.delete",
            "DELETE /sessions/:id",
            Pop::Cleanup,
        )?;
        samples.push(s);
        run.exchanges += 1;
        run.http_ok = ok && resp.status == 204 && resp.body.is_empty();
        Ok(run)
    }
}

/// Verdicts for every run, in order. The list repeats, so runs of one
/// slot with one transcript are replayed in-process once and share the
/// verdict.
pub fn verify_all<'a>(worlds: &SessionWorlds, runs: &[&'a SessionRun]) -> Vec<bool> {
    type Key<'a> = (u64, bool, &'a [bool], &'a [String], Option<&'a str>);
    let key = |r: &'a SessionRun| -> Key<'a> {
        (
            r.slot,
            r.http_ok,
            &r.answers,
            &r.questions,
            r.final_query.as_deref(),
        )
    };
    let mut distinct: BTreeMap<Key, usize> = BTreeMap::new();
    for (i, r) in runs.iter().enumerate() {
        distinct.entry(key(r)).or_insert(i);
    }
    let firsts: Vec<usize> = distinct.values().copied().collect();
    let verdicts = par_map(&firsts, |&i| verify(worlds, runs[i]));
    let by_key: BTreeMap<Key, bool> = distinct.into_keys().zip(verdicts).collect();
    runs.iter().map(|r| by_key[&key(r)]).collect()
}

/// Replays `run` in-process: same examples, seed and answers. True when
/// the library asks the same questions and ends on the same final query.
fn verify(worlds: &SessionWorlds, run: &SessionRun) -> bool {
    if !run.http_ok {
        return false;
    }
    let (_, ont): (_, &Arc<Ontology>) = worlds.world_of(run.spec.target);
    let Ok(examples) = exformat::parse_examples(ont, &run.spec.examples) else {
        return false;
    };
    let Ok(mut session) =
        InteractiveSession::start(ont, &examples, &server_session_config(), run.spec.seed)
    else {
        return false;
    };
    for (q, &a) in run.questions.iter().zip(&run.answers) {
        let Some(p) = session.pending() else {
            return false;
        };
        if ont.value_str(p.result()) != q || session.answer(ont, a).is_err() {
            return false;
        }
    }
    session.is_done()
        && session.final_query().map(sparql::format_union).as_deref() == run.final_query.as_deref()
}
