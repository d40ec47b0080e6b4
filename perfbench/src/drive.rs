//! The closed-loop driver: a fixed number of keep-alive connections,
//! each sending its next operation the moment the previous one returns,
//! with no think time. Throughput is whatever the server sustains, so
//! goodput moves when per-operation cost moves.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::{Conn, Req, Resp};

/// Connections held open by the client process.
pub const CONNECTIONS: usize = 2;

/// The latency population an exchange belongs to. Reads and updates
/// never share a percentile; clean-up exchanges are in none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// The workload's user-facing operation (`p50_ms`, `p90_ms`).
    Read,
    /// An update batch (`update_p50_ms`, `update_p90_ms`).
    Update,
    /// A user-facing operation of another kind than the timed one, such
    /// as `live_update`'s infer reads, which take a hundredth of an eval:
    /// one percentile over both would sit wherever their mix put it. It
    /// counts as goodput but is in no percentile.
    Other,
    /// Clean-up, such as ending a session: timed and verified, but in
    /// no percentile and not counted as goodput.
    Cleanup,
}

/// One timed exchange.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Operation kind (`session.create`, `eval`, `update`, ...).
    pub kind: &'static str,
    /// Server route label the exchange hits (for reconciliation).
    pub route: &'static str,
    /// Latency population.
    pub pop: Pop,
    /// HTTP status.
    pub status: u16,
    /// Client-observed latency, send to last byte, ms.
    pub ms: f64,
    /// When the request was sent.
    pub sent: Instant,
    /// Request body bytes.
    pub bytes_in: usize,
    /// Response body bytes.
    pub bytes_out: usize,
}

impl Sample {
    /// Times `req` on `conn`.
    pub fn exchange(
        conn: &mut Conn,
        req: &Req,
        kind: &'static str,
        route: &'static str,
        pop: Pop,
    ) -> io::Result<(Sample, Resp)> {
        let sent = Instant::now();
        let resp = conn.exchange(req)?;
        let s = Sample {
            kind,
            route,
            pop,
            status: resp.status,
            ms: resp.latency.as_secs_f64() * 1e3,
            sent,
            bytes_in: req.body_len,
            bytes_out: resp.body.len(),
        };
        Ok((s, resp))
    }
}

/// What one workload does with one unit of the operation list (one
/// request, or one whole session).
pub trait Unit: Sync {
    /// Per-unit record kept for verification after the run.
    type Record: Send;
    /// Runs unit `i` on `conn`, appending its timed exchanges.
    fn run(&self, conn: &mut Conn, i: u64, samples: &mut Vec<Sample>) -> io::Result<Self::Record>;
    /// Called when a unit failed at the socket level, so a unit that
    /// others wait on can release them.
    fn abandon(&self, _i: u64) {}
}

/// One completed unit of the operation list.
pub struct Done<R> {
    /// Index in the operation list.
    pub index: u64,
    /// The workload's record of it.
    pub record: R,
    /// Its timed exchanges, in order.
    pub samples: Vec<Sample>,
}

/// The measured window's outcome.
pub struct Drive<R> {
    /// Completed units, by index.
    pub units: Vec<Done<R>>,
    /// First send to last completion.
    pub wall: Duration,
}

impl<R> Drive<R> {
    /// Every timed exchange, in unit order.
    pub fn samples(&self) -> Vec<Sample> {
        self.units
            .iter()
            .flat_map(|u| u.samples.iter().cloned())
            .collect()
    }

    /// Expands a per-unit verdict to one verdict per exchange.
    pub fn per_sample(&self, unit_ok: &[bool]) -> Vec<bool> {
        self.units
            .iter()
            .zip(unit_ok)
            .flat_map(|(u, ok)| std::iter::repeat_n(*ok, u.samples.len()))
            .collect()
    }
}

/// Runs `w` from the start of its list over [`CONNECTIONS`] connections
/// until `window` has elapsed. Units in flight at the deadline always
/// finish, so every started unit is accounted for.
pub fn drive<W: Unit>(
    addr: SocketAddr,
    w: &W,
    window: Duration,
) -> Result<Drive<W::Record>, String> {
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let out: Mutex<Drive<W::Record>> = Mutex::new(Drive {
        units: Vec::new(),
        wall: Duration::ZERO,
    });
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(Conn::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?);
    }
    let t0 = Instant::now();
    let (next_ref, stop, out_ref, failure_ref) = (&next, &stop, &out, &failure);
    std::thread::scope(|s| {
        for mut conn in conns {
            s.spawn(move || {
                let mut local = Vec::new();
                loop {
                    if stop.load(Ordering::Relaxed) || t0.elapsed() >= window {
                        break;
                    }
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    let mut samples = Vec::new();
                    match w.run(&mut conn, i, &mut samples) {
                        Ok(record) => {
                            local.push(Done {
                                index: i,
                                record,
                                samples,
                            });
                        }
                        Err(e) => {
                            w.abandon(i);
                            stop.store(true, Ordering::Relaxed);
                            failure_ref
                                .lock()
                                .expect("failure slot poisoned")
                                .get_or_insert(format!("unit {i}: {e}"));
                            break;
                        }
                    }
                }
                let mut o = out_ref.lock().expect("driver output poisoned");
                o.units.append(&mut local);
                o.wall = o.wall.max(t0.elapsed());
            });
        }
    });
    if let Some(f) = failure.into_inner().expect("failure slot poisoned") {
        return Err(f);
    }
    let mut d = out.into_inner().expect("driver output poisoned");
    d.units.sort_by_key(|u| u.index);
    Ok(d)
}
