//! The serving core: one shared one-shot poller, the worker threads
//! that wait on it, and one loop thread for timers and overflow.
//!
//! Every socket — the listener, each connection, and a doorbell — is
//! registered one-shot in a single [`Poller`], so exactly one thread
//! owns a connection from its readiness event until it re-arms it:
//!
//! * **the `workers` threads** wait on the poller and take one event
//!   per wait, so a thread running a handler never holds another
//!   connection's readiness. The thread that takes a connection reads
//!   it, parses its requests, runs each one — inline routes
//!   ([`crate::router::is_inline`]) and CPU-bound handlers alike —
//!   writes the responses and re-arms the connection. No channel,
//!   completion queue or doorbell sits on that path;
//! * **the loop thread** runs the deadline scan (idle close, named
//!   `408`, write stall) and the shutdown drain. It never runs a
//!   CPU-bound handler. While every worker is busy in one, it also
//!   reads from the shared poller, so other connections are still
//!   served: it answers the inline routes itself, and queues or sheds
//!   CPU-bound requests. The last worker to go busy wakes it. If a
//!   worker frees up before the loop reads the event it took, the loop
//!   re-arms that connection for the worker and stays out of the poller
//!   for `QUIET` (5 ms), so short handlers do not pull it in on every
//!   request.
//!
//! **Admission.** At most `workers` CPU-bound handlers run at once and
//! up to `queue` more wait; beyond that a request gets a `503` plus a
//! connection-close. One lock guards both the busy count and the FIFO of
//! parked requests, so no queued request is stranded: a worker that
//! finishes a handler runs queued requests before it waits again, and a
//! request the loop queues while a worker is free rings the doorbell,
//! which is registered in the shared poller like any socket. While a
//! request is in flight — queued or running — its connection stays
//! disarmed: kernel socket buffers provide backpressure.
//!
//! Connections live in a slab whose tokens carry a slot
//! **generation**, so a stale readiness event for a connection that has
//! since closed and had its slot reused is dropped on the floor by a
//! generation mismatch. A connection is either parked in its slot (and
//! armed in the poller) or checked out by the one thread serving it.
//!
//! A full connection slab sheds the *connection* with a `503` at accept
//! time. An accept error other than a transient one (fd exhaustion,
//! typically) pauses accepting until a connection closes or the next
//! deadline tick, instead of spinning on a listener that stays ready.
//! Graceful drain on shutdown: stop accepting, close idle connections
//! immediately, let in-flight requests finish and flush, and force-close
//! whatever remains at the drain deadline.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use questpro_log::Level;

use crate::conn::{Conn, DeadlineKind};
use crate::http::{encode_response, ReadError, Request, Response};
use crate::router::{is_inline, route_label, AppState};
use crate::server::{serve_request, unreadable};
use crate::sessions::lock;
use crate::sys::{Event, Interest, Poller, Waker};

/// Poller token of the listening socket.
const TOKEN_LISTENER: usize = 0;
/// Poller token of the doorbell that announces queued requests.
const TOKEN_DOORBELL: usize = 1;
/// Low bits of a connection token hold the slot generation.
const GEN_BITS: u32 = 14;
const GEN_MASK: usize = (1 << GEN_BITS) - 1;
/// Deadline-scan cadence and upper bound on every poll wait, so
/// shutdown and timeouts are noticed within one tick.
const TICK: Duration = Duration::from_millis(50);
/// Accepts per listener event; the re-armed listener reports a
/// still-nonempty backlog immediately.
const ACCEPT_BURST: usize = 256;
/// How long the loop thread stays out of the poller after every worker
/// being busy turned out to be a blip: it had to hand a connection back
/// to a worker that freed up. Short handlers make such blips thousands
/// of times a second; a saturation that lasts is still noticed within
/// this delay.
const QUIET: Duration = Duration::from_millis(5);

fn encode_token(idx: usize, gen: usize) -> usize {
    ((idx + 1) << GEN_BITS) | (gen & GEN_MASK)
}

fn decode_token(token: usize) -> Option<(usize, usize)> {
    let idx = token >> GEN_BITS;
    if idx == 0 {
        return None; // TOKEN_LISTENER / TOKEN_DOORBELL
    }
    Some((idx - 1, token & GEN_MASK))
}

/// Serving knobs, derived from [`crate::server::ServerConfig`].
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Cap on request bodies, bytes.
    pub max_body: usize,
    /// Idle keep-alive *and* partial-request (slow-loris) timeout.
    pub read_timeout: Duration,
    /// Write-stall timeout.
    pub write_timeout: Duration,
    /// How long shutdown waits for in-flight exchanges to finish.
    pub drain: Duration,
    /// Cap on open connections; beyond it accepts shed with `503`.
    pub max_conns: usize,
    /// Worker threads: the cap on concurrently running CPU-bound
    /// handlers.
    pub workers: usize,
    /// Requests that may wait for a free worker; beyond it requests
    /// shed with `503`.
    pub queue: usize,
}

/// Slot-reuse-safe connection storage. A slot holds its connection
/// while it is parked (armed in the poller); it is empty while vacant or
/// while the connection is checked out by the thread serving it.
struct Slab {
    slots: Vec<(usize, Option<Box<Conn>>)>, // (generation, parked occupant)
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Parks a new connection and returns its token.
    fn insert(&mut self, conn: Box<Conn>) -> usize {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            self.slots.len() - 1
        });
        self.slots[idx].1 = Some(conn);
        self.live += 1;
        encode_token(idx, self.slots[idx].0)
    }

    /// Takes a parked connection out of its slot, if `token` still
    /// names it.
    fn check_out(&mut self, token: usize) -> Option<Box<Conn>> {
        let (idx, gen) = decode_token(token)?;
        let slot = self.slots.get_mut(idx)?;
        if slot.0 & GEN_MASK != gen {
            return None;
        }
        slot.1.take()
    }

    /// Parks a checked-out connection back in its slot.
    fn check_in(&mut self, token: usize, conn: Box<Conn>) {
        if let Some((idx, _)) = decode_token(token) {
            self.slots[idx].1 = Some(conn);
        }
    }

    /// Frees the slot of a checked-out connection that is closing.
    fn release(&mut self, token: usize) {
        if let Some((idx, _)) = decode_token(token) {
            self.slots[idx].0 = self.slots[idx].0.wrapping_add(1);
            self.free.push(idx);
            self.live -= 1;
        }
    }

    /// Checks out every parked connection `pick` selects, with its
    /// token and whatever `pick` returned.
    fn check_out_where<K>(
        &mut self,
        mut pick: impl FnMut(&Conn) -> Option<K>,
    ) -> Vec<(usize, Box<Conn>, K)> {
        let mut taken = Vec::new();
        for (idx, (gen, held)) in self.slots.iter_mut().enumerate() {
            if let Some(kind) = held.as_deref().and_then(&mut pick) {
                taken.extend(
                    held.take()
                        .map(|conn| (encode_token(idx, *gen), conn, kind)),
                );
            }
        }
        taken
    }
}

/// What admission decided for a CPU-bound request.
#[derive(Debug, PartialEq, Eq)]
enum Admit<T> {
    /// A worker slot was free: the caller runs it now.
    Run(T),
    /// Every worker is busy; it waits in the queue.
    Queued,
    /// Workers and queue are full: the caller answers `503`.
    Shed(T),
}

/// The busy count and FIFO of parked requests, guarded together.
struct Admission<T> {
    workers: usize,
    capacity: usize,
    busy: usize,
    queue: VecDeque<T>,
    /// The loop thread is parked until every worker is busy.
    loop_parked: bool,
}

impl<T> Admission<T> {
    fn new(workers: usize, capacity: usize) -> Admission<T> {
        Admission {
            workers: workers.max(1),
            capacity: capacity.max(1),
            busy: 0,
            queue: VecDeque::new(),
            loop_parked: false,
        }
    }

    /// A worker's request: run it now if a worker slot is free and
    /// nothing is queued ahead of it, else queue or shed it.
    fn admit(&mut self, job: T) -> Admit<T> {
        if self.busy < self.workers && self.queue.is_empty() {
            self.busy += 1;
            return Admit::Run(job);
        }
        self.enqueue(job)
    }

    /// The loop thread's request: it never runs a handler, so the
    /// request waits in the queue or is shed.
    fn enqueue(&mut self, job: T) -> Admit<T> {
        if self.queue.len() < self.capacity {
            self.queue.push_back(job);
            Admit::Queued
        } else {
            Admit::Shed(job)
        }
    }

    /// The oldest queued request, if a worker slot is free to run it.
    fn next(&mut self) -> Option<T> {
        if self.busy >= self.workers {
            return None;
        }
        let job = self.queue.pop_front()?;
        self.busy += 1;
        Some(job)
    }

    /// A running handler finished.
    fn finish(&mut self) {
        self.busy -= 1;
    }

    fn all_busy(&self) -> bool {
        self.busy >= self.workers
    }

    /// Queued requests wait while a worker slot is free: a worker must
    /// be told.
    fn has_work_for_a_free_worker(&self) -> bool {
        self.busy < self.workers && !self.queue.is_empty()
    }
}

/// A CPU-bound request with the connection it came from.
struct Job {
    token: usize,
    conn: Box<Conn>,
    req: Request,
}

/// Which kind of thread took an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Worker,
    Loop,
}

/// Everything the serving threads share.
struct Shared {
    state: Arc<AppState>,
    cfg: LoopConfig,
    poller: Poller,
    doorbell: Waker,
    /// `None` once shutdown stopped accepting.
    listener: Mutex<Option<TcpListener>>,
    /// An accept error paused the listener (left disarmed).
    accept_paused: AtomicBool,
    slab: Mutex<Slab>,
    admission: Mutex<Admission<Job>>,
    /// Signalled when the last free worker goes busy, to wake a parked
    /// loop thread.
    all_busy: Condvar,
    /// The drain is over: workers exit.
    stop: AtomicBool,
}

/// The running serving threads; see the module docs.
pub struct Core {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Core {
    /// Registers `listener` and spawns the worker threads and the loop
    /// thread. Internal failures (poller breakage) are logged and end
    /// the thread that met them rather than panicking.
    ///
    /// # Errors
    /// Propagates poller, doorbell or thread creation failure.
    pub fn start(
        listener: TcpListener,
        state: Arc<AppState>,
        cfg: LoopConfig,
    ) -> std::io::Result<Core> {
        let poller = Poller::new()?;
        let doorbell = Waker::new()?;
        poller.add(doorbell.raw_fd(), Interest::READ, TOKEN_DOORBELL)?;
        poller.add(listener.as_raw_fd(), Interest::READ, TOKEN_LISTENER)?;
        let shared = Arc::new(Shared {
            state,
            admission: Mutex::new(Admission::new(cfg.workers, cfg.queue)),
            cfg,
            poller,
            doorbell,
            listener: Mutex::new(Some(listener)),
            accept_paused: AtomicBool::new(false),
            slab: Mutex::new(Slab::new()),
            all_busy: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let workers = shared.cfg.workers.max(1);
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..=workers {
            let (name, body): (String, fn(&Shared)) = if i < workers {
                (format!("questpro-worker-{i}"), Shared::run_worker)
            } else {
                ("questpro-loop".into(), Shared::run_loop)
            };
            let sh = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(name)
                .spawn(move || body(&sh))
            {
                Ok(h) => threads.push(h),
                Err(e) => {
                    // The threads already running exit within a tick.
                    shared.stop.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            }
        }
        Ok(Core { shared, threads })
    }

    /// Pulls a parked loop thread out of its wait, so a shutdown
    /// request starts draining at once.
    pub fn wake(&self) {
        let _adm = lock(&self.shared.admission);
        self.shared.all_busy.notify_all();
    }

    /// Waits for the loop thread to finish the drain and for the
    /// workers to finish what they hold.
    pub fn join(self) {
        for h in self.threads {
            let _ = h.join();
        }
    }
}

impl Shared {
    fn run_worker(&self) {
        let mut events = Vec::with_capacity(1);
        loop {
            self.run_queued();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            if let Err(e) = self.poller.wait(tick_ms(TICK), 1, &mut events) {
                return self.fail("worker", &e);
            }
            for ev in events.drain(..) {
                // A panic outside a handler (handlers catch their own)
                // costs this event, never the thread.
                let _ = catch_unwind(AssertUnwindSafe(|| self.dispatch(ev, Role::Worker)));
            }
        }
    }

    fn run_loop(&self) {
        let mut next_tick = Instant::now();
        let mut drain_deadline: Option<Instant> = None;
        let mut quiet_until = next_tick;
        let mut events = Vec::with_capacity(1);
        loop {
            let now = Instant::now();
            if now >= next_tick {
                next_tick = now + TICK;
                self.resume_accepting();
                self.expire_deadlines(now);
            }
            if self.state.shutdown.load(Ordering::SeqCst) {
                let deadline = *drain_deadline.get_or_insert_with(|| {
                    self.stop_accepting();
                    now + self.cfg.drain
                });
                // Idle connections have nothing to finish; everything
                // else completes its current exchange (responses during
                // shutdown carry `Connection: close`).
                let idle = lock(&self.slab).check_out_where(|c| c.is_idle().then_some(()));
                for (token, conn, ()) in idle {
                    self.close(token, conn);
                }
                if lock(&self.slab).live == 0 || now >= deadline {
                    let rest = lock(&self.slab).check_out_where(|_| Some(()));
                    for (token, conn, ()) in rest {
                        self.close(token, conn);
                    }
                    break;
                }
            }
            if self.wait_until_all_busy(next_tick, quiet_until) {
                let timeout = next_tick.saturating_duration_since(Instant::now());
                if let Err(e) = self.poller.wait(tick_ms(timeout), 1, &mut events) {
                    self.fail("loop", &e);
                    break;
                }
                for ev in events.drain(..) {
                    if decode_token(ev.token).is_some() && !lock(&self.admission).all_busy() {
                        // A worker freed up while the loop waited: leave
                        // the connection to it rather than reading it
                        // here and handing the request over.
                        self.hand_back(ev.token);
                        quiet_until = Instant::now() + QUIET;
                        continue;
                    }
                    let _ = catch_unwind(AssertUnwindSafe(|| self.dispatch(ev, Role::Loop)));
                }
            }
        }
        self.stop.store(true, Ordering::SeqCst);
        self.doorbell.wake();
    }

    /// Parks the loop thread until every worker is busy or `until`
    /// passes, unnoticed by the workers before `quiet_until`; returns
    /// whether every worker is busy.
    fn wait_until_all_busy(&self, until: Instant, quiet_until: Instant) -> bool {
        let mut adm = lock(&self.admission);
        let now = Instant::now();
        if quiet_until > now {
            let quiet = quiet_until.min(until) - now;
            adm = self
                .all_busy
                .wait_timeout(adm, quiet)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        } else if !adm.all_busy() {
            adm.loop_parked = true;
            adm = self
                .all_busy
                .wait_timeout(adm, until.saturating_duration_since(now))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            adm.loop_parked = false;
        }
        adm.all_busy()
    }

    /// Re-arms a parked connection whose event the loop took, so a
    /// worker takes it instead.
    fn hand_back(&self, token: usize) {
        let mut slab = lock(&self.slab);
        if let Some(conn) = slab.check_out(token) {
            let (fd, interest) = (conn.stream.as_raw_fd(), conn.wants());
            slab.check_in(token, conn);
            // Under the slab lock, like every re-arm.
            let _ = self.poller.rearm(fd, interest, token);
        }
    }

    fn fail(&self, thread: &str, e: &std::io::Error) {
        if questpro_log::enabled(Level::Error) {
            questpro_log::emit(
                Level::Error,
                "server.eventloop",
                format!("{thread} thread failed: {e}"),
                vec![("thread", thread.into())],
            );
        }
    }

    fn dispatch(&self, ev: Event, role: Role) {
        match ev.token {
            TOKEN_LISTENER => self.accept_burst(),
            TOKEN_DOORBELL => self.answer_doorbell(role),
            token => self.serve_event(token, ev, role),
        }
    }

    /// The doorbell says requests are queued. Workers run them before
    /// their next wait; the loop hands the ring on to a worker. On stop
    /// it stays rung, so every waiting worker sees it in turn.
    fn answer_doorbell(&self, role: Role) {
        let stopping = self.stop.load(Ordering::SeqCst);
        if !stopping {
            self.doorbell.drain();
        }
        let _ = self
            .poller
            .rearm(self.doorbell.raw_fd(), Interest::READ, TOKEN_DOORBELL);
        if role == Role::Loop && !stopping && lock(&self.admission).has_work_for_a_free_worker() {
            self.doorbell.wake();
        }
    }

    /// Runs queued requests while a worker slot is free.
    fn run_queued(&self) {
        loop {
            let job = {
                let mut adm = lock(&self.admission);
                let job = adm.next();
                if job.is_some() {
                    self.note_busy(&adm);
                    if adm.has_work_for_a_free_worker() {
                        self.doorbell.wake(); // more for an idle worker
                    }
                }
                job
            };
            let Some(job) = job else {
                return;
            };
            let token = job.token;
            let conn = self.run(job);
            self.pump(token, conn, Role::Worker);
        }
    }

    /// Called with the admission lock held after `busy` went up: the
    /// last free worker going busy wakes a parked loop thread.
    fn note_busy(&self, adm: &Admission<Job>) {
        if adm.all_busy() && adm.loop_parked {
            self.all_busy.notify_one();
        }
    }

    /// Accepts a burst from the listener and re-arms it, or pauses it
    /// on an accept error that would otherwise report ready forever.
    fn accept_burst(&self) {
        let listener = lock(&self.listener);
        let Some(l) = listener.as_ref() else {
            return;
        };
        for _ in 0..ACCEPT_BURST {
            match l.accept() {
                Ok((stream, _)) => self.register(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(e) => {
                    // Out of fds (or memory): the pending connection
                    // stays in the backlog, so a re-armed listener would
                    // report ready again at once. Leave it disarmed until
                    // a connection closes or the next tick.
                    self.accept_paused.store(true, Ordering::SeqCst);
                    if questpro_log::enabled(Level::Warn) {
                        questpro_log::emit(
                            Level::Warn,
                            "server.accept",
                            format!("accepting paused: {e}"),
                            vec![("live", lock(&self.slab).live.into())],
                        );
                    }
                    return;
                }
            }
        }
        let _ = self
            .poller
            .rearm(l.as_raw_fd(), Interest::READ, TOKEN_LISTENER);
    }

    /// Re-arms a paused listener.
    fn resume_accepting(&self) {
        if self.accept_paused.swap(false, Ordering::SeqCst) {
            if let Some(l) = lock(&self.listener).as_ref() {
                let _ = self
                    .poller
                    .rearm(l.as_raw_fd(), Interest::READ, TOKEN_LISTENER);
            }
        }
    }

    /// Drops the listener so new connects are refused instead of parked
    /// in the backlog.
    fn stop_accepting(&self) {
        if let Some(l) = lock(&self.listener).take() {
            let _ = self.poller.remove(l.as_raw_fd());
        }
    }

    /// Registers an accepted socket, or sheds it with a `503` when the
    /// connection cap is reached.
    fn register(&self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return; // a dropped socket degrades this connection only
        }
        let _ = stream.set_nodelay(true);
        let mut slab = lock(&self.slab);
        if slab.live >= self.cfg.max_conns {
            drop(slab);
            self.shed_connection(stream);
            return;
        }
        self.state.http.record_conn_opened();
        let fd = stream.as_raw_fd();
        let token = slab.insert(Box::new(Conn::new(stream, Instant::now())));
        if self.poller.add(fd, Interest::READ, token).is_err() && slab.check_out(token).is_some() {
            slab.release(token);
            self.state.http.record_conn_closed();
        }
    }

    fn shed_connection(&self, mut stream: TcpStream) {
        self.state.http.record_overload();
        self.state.http.record_response(503);
        if questpro_log::enabled(Level::Warn) {
            questpro_log::emit(
                Level::Warn,
                "server.overload",
                "connection shed with 503: connection limit reached",
                vec![("max_conns", self.cfg.max_conns.into())],
            );
        }
        let mut resp = Response::error(503, "server overloaded; retry later");
        resp.trace_id = questpro_trace::enabled().then(questpro_trace::mint_id);
        resp.close = true;
        let _ = std::io::Write::write_all(&mut stream, &encode_response(&resp));
    }

    /// Serves one readiness event for a connection.
    fn serve_event(&self, token: usize, ev: Event, role: Role) {
        let Some(mut conn) = lock(&self.slab).check_out(token) else {
            return; // stale event for a closed or expired connection
        };
        if ev.readable && !conn.peer_closed && conn.on_readable(Instant::now()).is_err() {
            return self.close(token, conn);
        }
        if ev.error {
            // Hang-up or socket error: nothing more will arrive, and
            // any answer is best effort.
            conn.peer_closed = true;
        }
        self.pump(token, conn, role);
    }

    /// Answers every complete request buffered on `conn`, then parks or
    /// closes it — unless a request had to wait in the queue, which
    /// then owns the connection.
    fn pump(&self, token: usize, mut conn: Box<Conn>, role: Role) {
        while !conn.close_after_write {
            let req = match conn.take_request(self.cfg.max_body) {
                Ok(Some(req)) => req,
                Ok(None) => break,
                Err(e) => {
                    let resp = match e {
                        ReadError::BadRequest(msg) => unreadable(&self.state, 400, &msg),
                        ReadError::HeadTooLarge => {
                            unreadable(&self.state, 431, "request head too large")
                        }
                        ReadError::BodyTooLarge => {
                            unreadable(&self.state, 413, "request body too large")
                        }
                        // parse_request never reports connection-level
                        // outcomes; stay defensive anyway.
                        ReadError::Closed | ReadError::IdleTimeout | ReadError::Disconnected(_) => {
                            unreadable(&self.state, 400, "unreadable request")
                        }
                    };
                    self.finalize_response(&mut conn, resp); // close=true: stop here
                    break;
                }
            };
            if is_inline(route_label(&req.method, &req.path)) {
                let resp = serve_request(&self.state, &req);
                // A follow-up /debug/logs scrape must find this
                // request's access event.
                questpro_log::flush();
                self.finalize_response(&mut conn, resp);
                continue;
            }
            // Answers already queued go out before a handler that may
            // run long.
            if conn.has_pending_write() {
                let _ = conn.flush();
            }
            let job = Job { token, conn, req };
            let admitted = {
                let mut adm = lock(&self.admission);
                let admitted = match role {
                    Role::Worker => adm.admit(job),
                    Role::Loop => adm.enqueue(job),
                };
                match admitted {
                    Admit::Run(_) => self.note_busy(&adm),
                    Admit::Queued if !adm.all_busy() => self.doorbell.wake(),
                    _ => {}
                }
                admitted
            };
            conn = match admitted {
                Admit::Run(job) => self.run(job),
                Admit::Queued => return,
                Admit::Shed(job) => {
                    let mut conn = job.conn;
                    self.shed_request(&mut conn);
                    conn
                }
            };
        }
        self.settle(token, conn);
    }

    /// Runs an admitted request's handler and queues its response.
    fn run(&self, job: Job) -> Box<Conn> {
        /// Returns the worker slot even if something below unwinds.
        struct Permit<'a>(&'a Mutex<Admission<Job>>);
        impl Drop for Permit<'_> {
            fn drop(&mut self) {
                lock(self.0).finish();
            }
        }
        let Job { mut conn, req, .. } = job;
        let resp = {
            let _permit = Permit(&self.admission);
            let resp = serve_request(&self.state, &req);
            questpro_log::flush();
            resp
        };
        conn.complete_in_flight(Instant::now());
        self.finalize_response(&mut conn, resp);
        conn
    }

    /// Queues a `503` for a request neither a worker nor the queue could
    /// take.
    fn shed_request(&self, conn: &mut Conn) {
        self.state.http.record_overload();
        if questpro_log::enabled(Level::Warn) {
            questpro_log::emit(
                Level::Warn,
                "server.overload",
                "request shed with 503: worker queue full",
                vec![
                    ("workers", self.cfg.workers.into()),
                    ("queue", self.cfg.queue.into()),
                ],
            );
        }
        let mut resp = Response::error(503, "server overloaded; retry later");
        resp.trace_id = questpro_trace::enabled().then(questpro_trace::mint_id);
        resp.close = true;
        self.finalize_response(conn, resp);
    }

    /// Counts and queues a response; during shutdown every response
    /// becomes the connection's last (`Connection: close`), which is how
    /// drain converges.
    fn finalize_response(&self, conn: &mut Conn, mut resp: Response) {
        if self.state.shutdown.load(Ordering::SeqCst) {
            resp.close = true;
        }
        self.state.http.record_response(resp.status);
        conn.queue_response(&resp);
    }

    /// Flushes what the socket will take, then closes the connection or
    /// parks it re-armed for what it wants next.
    fn settle(&self, token: usize, mut conn: Box<Conn>) {
        let done = if conn.has_pending_write() {
            conn.flush()
                .map_or(true, |drained| drained && conn.close_after_write)
        } else {
            conn.close_after_write
        };
        if done || (conn.peer_closed && !conn.has_pending_write()) {
            return self.close(token, conn);
        }
        let fd = conn.stream.as_raw_fd();
        let interest = conn.wants();
        let mut slab = lock(&self.slab);
        slab.check_in(token, conn);
        // Re-armed under the slab lock: the deadline scan cannot close
        // the fd (and accept cannot reuse its number) in between.
        if self.poller.rearm(fd, interest, token).is_err() {
            if let Some(conn) = slab.check_out(token) {
                drop(slab);
                self.close(token, conn);
            }
        }
    }

    /// Scans every parked connection's deadline, closing expired ones
    /// with the classified behavior (silent idle close, named `408`,
    /// write-stall close).
    fn expire_deadlines(&self, now: Instant) {
        let (rt, wt) = (self.cfg.read_timeout, self.cfg.write_timeout);
        let expired = lock(&self.slab).check_out_where(|c| {
            let (deadline, kind) = c.deadline(rt, wt);
            (now >= deadline).then_some(kind)
        });
        for (token, mut conn, kind) in expired {
            match kind {
                DeadlineKind::Idle => self.state.http.record_keepalive_timeout(),
                DeadlineKind::WriteStall => {}
                DeadlineKind::Partial => {
                    self.state.http.record_request_timeout();
                    let resp = unreadable(&self.state, 408, "timed out reading request");
                    self.state.http.record_response(resp.status);
                    conn.queue_response(&resp);
                    let _ = conn.flush(); // best effort: the peer stalled
                }
            }
            self.close(token, conn);
        }
    }

    /// Unregisters and drops a checked-out connection (closing its fd)
    /// and frees its slot.
    fn close(&self, token: usize, conn: Box<Conn>) {
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        drop(conn);
        lock(&self.slab).release(token);
        self.state.http.record_conn_closed();
        self.resume_accepting();
    }
}

/// `d` in whole milliseconds, rounded up: a wait truncated to 0 ms
/// would return at once and spin until the deadline.
fn tick_ms(d: Duration) -> i32 {
    i32::try_from(d.as_micros().div_ceil(1000)).unwrap_or(i32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_when_queue_is_full() {
        // One worker, a queue of one: the running request and one
        // waiting request are taken; the next is shed, not buffered.
        let mut adm = Admission::new(1, 1);
        assert_eq!(adm.admit(1), Admit::Run(1));
        assert_eq!(adm.enqueue(2), Admit::Queued);
        assert_eq!(adm.enqueue(3), Admit::Shed(3));
        assert_eq!(adm.admit(4), Admit::Shed(4));
        assert!(adm.all_busy());
        assert_eq!(adm.next(), None, "no free worker slot yet");
        adm.finish();
        assert_eq!(adm.next(), Some(2));
        assert_eq!(adm.enqueue(5), Admit::Queued, "room again");
    }

    #[test]
    fn queued_requests_run_in_order_and_drain() {
        // Four workers busy, sixteen queued: each finished handler frees
        // a slot for the oldest waiter, and all of them run.
        let mut adm = Admission::new(4, 16);
        for i in 0..4 {
            assert_eq!(adm.admit(i), Admit::Run(i));
        }
        for i in 4..20 {
            assert_eq!(adm.admit(i), Admit::Queued);
        }
        let mut ran = Vec::new();
        for _ in 0..20 {
            adm.finish();
            if let Some(job) = adm.next() {
                ran.push(job);
            }
        }
        assert_eq!(ran, (4..20).collect::<Vec<_>>());
        assert!(!adm.has_work_for_a_free_worker());
        assert_eq!(adm.busy, 0);
    }

    #[test]
    fn a_request_queued_while_a_worker_is_free_is_announced() {
        let mut adm = Admission::new(2, 4);
        assert_eq!(adm.admit(1), Admit::Run(1));
        // The loop thread queued this while one worker was free.
        assert_eq!(adm.enqueue(2), Admit::Queued);
        assert!(adm.has_work_for_a_free_worker());
        // A worker's own request waits behind it rather than jumping it.
        assert_eq!(adm.admit(3), Admit::Queued);
        assert_eq!(adm.next(), Some(2));
        assert!(adm.all_busy());
        assert!(!adm.has_work_for_a_free_worker());
    }
}
