//! `eval_scale` and `live_update`: single-request operations over a
//! preloaded scale snapshot, with update batches applied strictly in
//! list order and reads verified on the version that served them.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use questpro_graph::{Ontology, TripleDelta};

use crate::drive::{Pop, Sample, Unit};
use crate::http::Conn;
use crate::ops::{Op, ScaleData};
use crate::verify::{eval_body, infer_canonical, infer_canonical_of, par_map, update_ack};

/// Operation-list generator: `(world, seed, index) -> op`.
pub type OpFn = fn(&ScaleData, u64, u64) -> Op;

/// The driver for one scale workload.
pub struct Scale<'a> {
    /// The world and anchors.
    pub data: &'a ScaleData,
    /// The workload's operation list.
    pub op: OpFn,
    seed: u64,
    /// Update batches acknowledged so far (the turnstile: batch `k`
    /// is sent only once `k` batches are acknowledged).
    acked: Mutex<u64>,
    turn: Condvar,
    /// Update batches written so far.
    sent: AtomicU64,
}

/// One operation's outcome.
#[derive(Debug, Clone)]
pub struct OpRun {
    /// Index in the operation list.
    pub index: u64,
    /// The operation.
    pub op: Op,
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// For reads: `(acked before send, sent after receive)` update
    /// counts, bracketing the version that served the read.
    pub window: (u64, u64),
}

impl<'a> Scale<'a> {
    /// A driver for `op` over `data`.
    pub fn new(data: &'a ScaleData, op: OpFn, seed: u64) -> Scale<'a> {
        Scale {
            data,
            op,
            seed,
            acked: Mutex::new(0),
            turn: Condvar::new(),
            sent: AtomicU64::new(0),
        }
    }

    fn release(&self, batch: u64) {
        let mut a = self.acked.lock().expect("turnstile poisoned");
        *a = (*a).max(batch + 1);
        self.turn.notify_all();
    }
}

fn route_of(op: &Op) -> &'static str {
    match op {
        Op::Eval { .. } => "POST /eval",
        Op::Infer { .. } => "POST /infer",
        Op::Update { .. } => "POST /ontologies/:name/update",
    }
}

impl Unit for Scale<'_> {
    type Record = OpRun;

    fn run(&self, conn: &mut Conn, i: u64, samples: &mut Vec<Sample>) -> io::Result<OpRun> {
        let op = (self.op)(self.data, self.seed, i);
        let req = op.request();
        let pop = match op {
            Op::Eval { .. } => Pop::Read,
            Op::Infer { .. } => Pop::Other,
            Op::Update { .. } => Pop::Update,
        };
        let (kind, route) = (op.kind(), route_of(&op));
        if let Op::Update { batch, .. } = op {
            let mut a = self.acked.lock().expect("turnstile poisoned");
            while *a < batch {
                a = self.turn.wait(a).expect("turnstile poisoned");
            }
            drop(a);
            self.sent.store(batch + 1, Ordering::SeqCst);
            let result = Sample::exchange(conn, &req, kind, route, pop);
            self.release(batch);
            let (s, resp) = result?;
            samples.push(s);
            return Ok(OpRun {
                index: i,
                op,
                status: resp.status,
                body: resp.body,
                window: (batch, batch),
            });
        }
        let lo = *self.acked.lock().expect("turnstile poisoned");
        let (s, resp) = Sample::exchange(conn, &req, kind, route, pop)?;
        let hi = self.sent.load(Ordering::SeqCst);
        samples.push(s);
        Ok(OpRun {
            index: i,
            op,
            status: resp.status,
            body: resp.body,
            window: (lo, hi),
        })
    }

    fn abandon(&self, i: u64) {
        if let Op::Update { batch, .. } = (self.op)(self.data, self.seed, i) {
            self.release(batch);
        }
    }
}

/// The library's answer to a read on `ont`, in the form [`served`]
/// gives the server's.
fn expected(ont: &Ontology, op: &Op) -> Vec<u8> {
    match op {
        Op::Eval {
            query, provenance, ..
        } => eval_body(ont, query, provenance.as_deref()),
        Op::Infer { examples, .. } => infer_canonical(ont, examples).into_bytes(),
        Op::Update { .. } => Vec::new(),
    }
}

/// The comparable part of the server's answer to a read.
fn served(run: &OpRun) -> Vec<u8> {
    match run.op {
        Op::Infer { .. } => infer_canonical_of(&run.body).into_bytes(),
        _ => run.body.clone(),
    }
}

/// The benchmark's model of the head after each acknowledged batch.
pub struct Model {
    /// `(nodes, edges)` of each version, indexed by batches applied.
    pub sizes: Vec<(usize, usize)>,
}

/// Verifies every record of every segment (each segment ran on a fresh
/// server from the snapshot, so all share one version chain). The model
/// advances batch by batch with the library's `apply_delta`; update
/// acknowledgements must equal the model's, and each read must equal the
/// library's answer on some version its window allows. A read is
/// answered in-process once per `(index, version)`, however many
/// segments sent it. Returns per-record verdicts in segment order.
pub fn verify(base: &Arc<Ontology>, segments: &[Vec<&OpRun>]) -> (Vec<Vec<bool>>, Model) {
    let mut ok: Vec<Vec<bool>> = segments.iter().map(|s| vec![false; s.len()]).collect();
    let all = || {
        segments
            .iter()
            .enumerate()
            .flat_map(|(g, s)| s.iter().enumerate().map(move |(r, run)| (g, r, *run)))
    };
    let mut deltas: BTreeMap<u64, &TripleDelta> = BTreeMap::new();
    for (_, _, run) in all() {
        if let Op::Update { batch, delta, .. } = &run.op {
            deltas.entry(*batch).or_insert(delta);
        }
    }
    let mut head = Arc::clone(base);
    let mut model = Model {
        sizes: vec![(head.node_count(), head.edge_count())],
    };
    let mut applied = 0u64;
    loop {
        // Reads the current version may have served, still unmatched,
        // grouped by operation so each is answered once.
        let mut due: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
        for (g, r, run) in all() {
            let (lo, hi) = run.window;
            if !run.op.is_write()
                && !ok[g][r]
                && run.status == 200
                && lo <= applied
                && applied <= hi
            {
                due.entry(run.index).or_default().push((g, r));
            }
        }
        let groups: Vec<(&u64, &Vec<(usize, usize)>)> = due.iter().collect();
        let answers = par_map(&groups, |(_, at)| {
            let (g, r) = at[0];
            expected(&head, &segments[g][r].op)
        });
        for ((_, at), want) in groups.iter().zip(answers) {
            for &(g, r) in at.iter() {
                ok[g][r] = served(segments[g][r]) == want;
            }
        }
        let Some(delta) = deltas.get(&applied) else {
            break;
        };
        let Ok((next, summary)) = head.apply_delta(delta) else {
            break;
        };
        applied += 1;
        for (g, r, run) in all() {
            if let Op::Update { world, batch, .. } = &run.op {
                if *batch + 1 == applied {
                    ok[g][r] = run.status == 200
                        && update_ack(world, applied + 1, &next, &summary) == run.body;
                }
            }
        }
        head = Arc::new(next);
        model.sizes.push((head.node_count(), head.edge_count()));
    }
    (ok, model)
}
