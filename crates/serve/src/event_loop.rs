//! The readiness-based transport: one reactor thread multiplexing every connection over
//! `surf_reactor::Poller`, feeding a handler pool through a [`crate::queue::WorkQueue`].
//!
//! Division of labor:
//!
//! * The **reactor thread** owns the listener and every connection socket. It accepts,
//!   reads, writes and times out connections — all non-blocking — and runs *cheap* routes
//!   (`/models`, `/healthz`, `/metrics`, `/trace`, errors) inline: their handlers touch
//!   only instruments and the registry index, so a thread hop would cost more than the
//!   work.
//! * **Heavy** routes (`POST /predict`, `POST /mine` — the ones that walk ensembles) are
//!   pushed as [`HandlerJob`]s to the handler pool and their responses come back over a
//!   completion channel; the reactor is woken by a [`Waker`] and attaches each response to
//!   its connection. Per connection at most one request is in flight (`Connection`'s
//!   `busy` gate), which is exactly the ordering HTTP/1.1 pipelining demands.
//! * **Admission control**: when the job queue already holds `max_pending_requests`
//!   entries — or the connection count reaches `max_connections` — the request is answered
//!   immediately with a structured `503` carrying `Retry-After`, instead of queueing
//!   without bound. Overload degrades into explicit, fast back-pressure.
//!
//! Shutdown closes the job queue (pending jobs still complete), then drains: buffered
//! responses are flushed and in-flight handler results attached for up to
//! [`DRAIN_DEADLINE`], so no accepted request is abandoned mid-write.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use surf_obs::Trace;
use surf_reactor::{Event, Poller, Waker};

use crate::conn::Connection;
use crate::error::ServeError;
use crate::http::{render_response, Request, CONTENT_TYPE_JSON};
use crate::obs::ServeObs;
use crate::routes::handle_request;
use crate::server::ServeContext;

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Poll tick: the upper bound on how late a shutdown flag or idle-timeout check can be
/// observed. Completions do not wait on this — the waker interrupts the poll.
const POLL_TICK: Duration = Duration::from_millis(100);
/// How often the reactor walks the full connection table for idle expiry and leftover
/// closes. Event-driven work only ever touches the connections an event named (the
/// "dirty" set), so the per-wake cost is `O(events)`, not `O(connections)` — at hundreds
/// of mostly-idle keep-alive connections the difference is the serving capacity.
const SWEEP_INTERVAL: Duration = POLL_TICK;
const READ_CHUNK: usize = 16 * 1024;
/// How long shutdown waits for in-flight handlers and unflushed responses.
const DRAIN_DEADLINE: Duration = Duration::from_secs(3);

/// A parsed heavy request handed to the handler pool.
pub(crate) struct HandlerJob {
    token: u64,
    request: Request,
    /// When the request was parsed; the route latency includes the queue wait.
    accepted: Instant,
    /// The flight-recorder trace riding with this request, if it was sampled.
    trace: Option<Trace>,
}

/// A handler's finished response, addressed back to its connection.
struct Completion {
    token: u64,
    status: u16,
    body: String,
    content_type: &'static str,
    retry_after: Option<u64>,
}

/// Tunables the event transport needs out of `ServerConfig`.
pub(crate) struct EventLoopSettings {
    pub(crate) workers: usize,
    pub(crate) max_body_bytes: usize,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_connections: usize,
    pub(crate) max_pending_requests: u64,
}

struct ConnEntry {
    stream: TcpStream,
    conn: Connection,
    /// The (readable, writable) interest currently registered, to skip no-op `modify`s.
    interest: (bool, bool),
    /// Set on a socket error; the connection is closed on the next pump pass.
    dead: bool,
}

/// Builds the poller + waker, spawns the reactor thread and `workers` handler threads.
/// Returns the waker (to interrupt the final poll on shutdown) and every spawned thread.
pub(crate) fn spawn_event_transport(
    listener: TcpListener,
    context: Arc<ServeContext>,
    shutdown: Arc<AtomicBool>,
    settings: EventLoopSettings,
) -> Result<(Arc<Waker>, Vec<std::thread::JoinHandle<()>>), ServeError> {
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new()?);
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
    poller.register(waker.fd(), WAKER_TOKEN, true, false)?;

    let (done_sender, done_receiver) = mpsc::channel::<Completion>();
    let mut threads = Vec::with_capacity(settings.workers + 1);
    for _ in 0..settings.workers {
        let context = Arc::clone(&context);
        let done = done_sender.clone();
        let waker = Arc::clone(&waker);
        threads.push(std::thread::spawn(move || {
            handler_worker(&context, &done, &waker);
        }));
    }
    drop(done_sender); // only handlers hold senders; try_recv disconnects when they exit

    let reactor = Reactor {
        poller,
        waker: Arc::clone(&waker),
        listener,
        context,
        shutdown,
        completions: done_receiver,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        settings,
        dirty: Vec::new(),
    };
    threads.push(std::thread::spawn(move || reactor.run()));
    Ok((waker, threads))
}

fn handler_worker(context: &ServeContext, completions: &mpsc::Sender<Completion>, waker: &Waker) {
    while let Some(mut job) = context.jobs.pop() {
        // Time between the reactor parsing the request and a handler picking it up.
        context
            .obs
            .observe_since(&context.obs.queue_wait, job.accepted);
        if let Some(trace) = &mut job.trace {
            trace.record_span("queue_wait", job.accepted);
        }
        if let Some(trace) = job.trace.take() {
            let _ = surf_obs::trace::install(trace);
        }
        let reply = handle_request(context, &job.request);
        context.obs.finish_trace(surf_obs::trace::take());
        context
            .stats_for(&job.request.path)
            .record(reply.status, job.accepted.elapsed());
        let sent = completions.send(Completion {
            token: job.token,
            status: reply.status,
            body: reply.body,
            content_type: reply.content_type,
            retry_after: (reply.status == 503).then_some(1),
        });
        if sent.is_err() {
            return; // reactor gone: shutdown already past the drain
        }
        let _ = waker.wake();
    }
}

struct Reactor {
    poller: Poller,
    waker: Arc<Waker>,
    listener: TcpListener,
    context: Arc<ServeContext>,
    shutdown: Arc<AtomicBool>,
    completions: mpsc::Receiver<Completion>,
    conns: HashMap<u64, ConnEntry>,
    next_token: u64,
    settings: EventLoopSettings,
    /// Tokens touched since the last pump (events, accepts, completions); reused across
    /// wakes to avoid per-wake allocation.
    dirty: Vec<u64>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        while !self.shutdown.load(Ordering::SeqCst) {
            if self.poller.wait(&mut events, Some(POLL_TICK)).is_err() {
                // epoll itself failing (EBADF, ENOMEM) is unrecoverable for this
                // transport; fall through to the drain so buffered responses still go out.
                break;
            }
            for event in &events {
                match event.token {
                    LISTENER_TOKEN => {}
                    WAKER_TOKEN => self.waker.drain(),
                    token => {
                        if let Some(entry) = self.conns.get_mut(&token) {
                            if event.readable {
                                fill_read(entry, self.settings.max_body_bytes);
                            }
                            if event.writable {
                                flush_write(entry, &self.context.obs);
                            }
                            self.dirty.push(token);
                        }
                    }
                }
            }
            // Accept every tick (not only on listener readiness): a connection slot freed
            // by a close must be re-offered to a backlog the level-triggered event for
            // which was consumed while the table was full.
            self.accept_ready();
            self.attach_completions();
            self.pump_dirty();
            let now = Instant::now();
            if now.duration_since(last_sweep) >= SWEEP_INTERVAL {
                last_sweep = now;
                self.sweep(now);
            }
        }
        self.drain_gracefully();
    }

    /// Accepts until the listener would block, rejecting accepts past the connection cap
    /// with a best-effort `503` (the response is a few hundred bytes going into an empty
    /// socket buffer — it will not block the reactor).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    if self.conns.len() >= self.settings.max_connections {
                        let e = ServeError::Overloaded {
                            retry_after_secs: 1,
                        };
                        let _ = stream.write(
                            render_response(
                                e.status(),
                                &e.to_body(),
                                false,
                                e.retry_after(),
                                CONTENT_TYPE_JSON,
                            )
                            .as_bytes(),
                        );
                        self.context.obs.rejects_connections.inc();
                        continue; // drop the stream: connection refused under load
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        ConnEntry {
                            stream,
                            conn: Connection::new(Instant::now()),
                            interest: (true, false),
                            dead: false,
                        },
                    );
                    self.dirty.push(token);
                    self.context.obs.open_connections.inc();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Attaches every finished handler response to its connection. A missing token means
    /// the connection died while its request was being handled; the response is dropped.
    fn attach_completions(&mut self) {
        while let Ok(done) = self.completions.try_recv() {
            if let Some(entry) = self.conns.get_mut(&done.token) {
                entry.conn.queue_response(
                    done.status,
                    &done.body,
                    done.retry_after,
                    done.content_type,
                );
                self.dirty.push(done.token);
            }
        }
    }

    /// One pass over the connections touched since the last wake: parse + dispatch
    /// whatever is parseable, flush, reconcile poll interest, and close finished / dead
    /// connections. Untouched connections cannot have new work (level-triggered polling
    /// re-announces anything unconsumed), so skipping them is safe — idle expiry for them
    /// is [`Reactor::sweep`]'s job.
    fn pump_dirty(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        let now = Instant::now();
        let mut closed: Vec<u64> = Vec::new();
        for &token in &dirty {
            let Some(entry) = self.conns.get_mut(&token) else {
                continue;
            };
            if !entry.dead {
                process_requests(
                    token,
                    entry,
                    &self.context,
                    self.settings.max_body_bytes,
                    self.settings.max_pending_requests,
                );
                flush_write(entry, &self.context.obs);
            }
            if entry.dead
                || entry.conn.finished()
                || entry.conn.idle_expired(now, self.settings.idle_timeout)
            {
                closed.push(token);
                continue;
            }
            let want = (
                entry.conn.wants_read(self.settings.max_body_bytes),
                entry.conn.wants_write(),
            );
            if want != entry.interest {
                if self
                    .poller
                    .modify(entry.stream.as_raw_fd(), token, want.0, want.1)
                    .is_err()
                {
                    closed.push(token);
                    continue;
                }
                entry.interest = want;
            }
        }
        for token in closed {
            self.close(token);
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// Periodic full-table walk closing idle-expired connections (and any dead/finished
    /// stragglers). Runs every [`SWEEP_INTERVAL`], so an idle timeout is enforced within
    /// `idle_timeout + SWEEP_INTERVAL` of the last byte.
    fn sweep(&mut self, now: Instant) {
        let mut closed: Vec<u64> = Vec::new();
        for (&token, entry) in self.conns.iter_mut() {
            if entry.dead
                || entry.conn.finished()
                || entry.conn.idle_expired(now, self.settings.idle_timeout)
            {
                closed.push(token);
            }
        }
        for token in closed {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            let _ = self.poller.deregister(entry.stream.as_raw_fd());
            self.context.obs.open_connections.dec();
        }
    }

    /// Post-shutdown: stop admitting work, let in-flight handlers finish, flush what is
    /// buffered — bounded by [`DRAIN_DEADLINE`].
    fn drain_gracefully(&mut self) {
        self.context.jobs.close();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            self.attach_completions();
            let mut waiting = false;
            for entry in self.conns.values_mut() {
                if entry.dead {
                    continue;
                }
                flush_write(entry, &self.context.obs);
                if entry.conn.busy() || entry.conn.wants_write() {
                    waiting = true;
                }
            }
            if !waiting || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Drains parseable requests off a connection: heavy routes go to the handler pool (or
/// bounce with a `503` when the queue is at capacity), everything else is answered inline.
fn process_requests(
    token: u64,
    entry: &mut ConnEntry,
    context: &ServeContext,
    max_body_bytes: usize,
    max_pending: u64,
) {
    loop {
        let request = entry.conn.next_request(max_body_bytes);
        // Protocol-level failures (400 framing errors, 413 oversized bodies) are answered
        // by the state machine itself and never reach dispatch; count them here.
        for status in entry.conn.take_errors() {
            context.obs.other.record(status, Duration::ZERO);
        }
        let Some(request) = request else { break };
        if entry.conn.requests_parsed() > 1 {
            context.obs.keepalive_reuses.inc();
        }
        // Time from the first byte of this request arriving to the parse completing,
        // recorded here (the reactor) — the only thread that sees both ends.
        let recv_started = entry.conn.take_recv_started();
        if let Some(started) = recv_started {
            context.obs.observe_since(&context.obs.recv_parse, started);
        }
        let mut trace = context
            .obs
            .begin_trace(&format!("{} {}", request.method, request.path));
        if let (Some(trace), Some(started)) = (&mut trace, recv_started) {
            trace.record_span("recv_parse", started);
        }
        let heavy =
            request.method == "POST" && matches!(request.path.as_str(), "/predict" | "/mine");
        if heavy {
            let path = request.path.clone();
            let accepted = Instant::now();
            let admitted = context.jobs.len() < max_pending
                && context.jobs.push(HandlerJob {
                    token,
                    request,
                    accepted,
                    trace: trace.take(),
                });
            if !admitted {
                let e = ServeError::Overloaded {
                    retry_after_secs: 1,
                };
                context.obs.rejects_queue.inc();
                context.obs.finish_trace(trace.take());
                context
                    .stats_for(&path)
                    .record(e.status(), accepted.elapsed());
                entry.conn.queue_response(
                    e.status(),
                    &e.to_body(),
                    e.retry_after(),
                    CONTENT_TYPE_JSON,
                );
            }
        } else {
            let started = Instant::now();
            if let Some(trace) = trace.take() {
                let _ = surf_obs::trace::install(trace);
            }
            let reply = handle_request(context, &request);
            context.obs.finish_trace(surf_obs::trace::take());
            context
                .stats_for(&request.path)
                .record(reply.status, started.elapsed());
            entry
                .conn
                .queue_response(reply.status, &reply.body, None, reply.content_type);
        }
    }
}

/// Reads until the socket would block, the peer closes, or the connection's buffer cap is
/// reached (back-pressure: the bytes wait in the kernel until parsing catches up).
fn fill_read(entry: &mut ConnEntry, max_body_bytes: usize) {
    let mut buf = [0u8; READ_CHUNK];
    while entry.conn.wants_read(max_body_bytes) {
        match entry.stream.read(&mut buf) {
            Ok(0) => {
                entry.conn.mark_peer_closed();
                break;
            }
            Ok(n) => entry.conn.ingest(&buf[..n], Instant::now()),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                entry.dead = true;
                break;
            }
        }
    }
}

/// Writes buffered response bytes until drained or the socket would block. Each pass with
/// bytes to move lands one observation in the `write_flush` histogram (an aggregate of
/// flush passes, not a per-response figure — one response can take several passes).
fn flush_write(entry: &mut ConnEntry, obs: &ServeObs) {
    if !entry.conn.wants_write() {
        return;
    }
    let started = Instant::now();
    while entry.conn.wants_write() {
        match entry.stream.write(entry.conn.pending_write()) {
            Ok(0) => {
                entry.dead = true;
                break;
            }
            Ok(n) => entry.conn.advance_write(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                entry.dead = true;
                break;
            }
        }
    }
    obs.observe_since(&obs.write_flush, started);
}
