//! The event-driven serving core: one owner thread runs a nonblocking,
//! readiness-driven **event loop** (accept + parse + flush over the
//! [`crate::poll`] readiness shim and a generation-tagged connection slab),
//! and a fixed scoring **worker pool** (`std::thread::scope`, the same
//! scoped-pool discipline as `evalcluster::run_jobs_stream`) handles the slow
//! endpoints, re-arming connections through a completion channel.
//! Thread count is `workers + 1` regardless of how many connections are
//! open — thousands of idle keep-alive connections cost slab slots, not
//! threads.
//!
//! Life of a request:
//!
//! 1. the event loop accepts the connection nonblocking and parks it in
//!    the slab (beyond [`ServerConfig::max_connections`] it sheds with a
//!    typed `503`);
//! 2. socket bytes are drained into the connection's incremental
//!    [`RequestParser`](crate::http::RequestParser) as they arrive —
//!    pipelined or one byte at a time, no thread ever blocks on a read;
//!    draining stops while more than [`MAX_IN_BUFFER`] bytes sit
//!    unparsed, so a client that pipelines faster than its requests are
//!    served is bounded by TCP backpressure, not by server heap;
//! 3. a completed `GET` (problems/stats) or any protocol error is
//!    answered inline — stats stay responsive even when every worker is
//!    busy scoring; a completed `POST` (evaluate/batch) is dispatched to
//!    the worker pool over a **bounded** job queue (full ⇒ typed `503`);
//! 4. workers push framed response bytes (whole responses, or chunk by
//!    chunk for `/v1/batch`) through the completion channel; the event
//!    loop buffers them per connection and flushes as the socket
//!    accepts — a slow reader stalls only its own buffer (and is dropped
//!    past [`MAX_OUT_BUFFER`]; inline responses instead pause parsing at
//!    the same bound until the backlog drains), never a thread;
//! 5. timeouts are tiered: an *idle* keep-alive connection is closed
//!    silently, a *started* request that stalls mid-head or mid-body is
//!    answered `408 Request Timeout`, and a write-side stall past
//!    [`ServerConfig::write_timeout`] drops the connection.
//!
//! Persistence: when [`ServerConfig::memo_path`] is set, the verdict
//! store is loaded before the first request and saved as JSONL on
//! shutdown, so repeat submissions across restarts are served from cache
//! without touching a substrate.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cedataset::Dataset;
use cloudeval_core::harness::default_workers;
use evalcluster::memo::{self, ScoreMemo};

use crate::api::{self, ResponseSink, Service};
use crate::http::{self, RequestError};
use crate::poll::{self, ReadStep, Slab, Token, WriteStep};

/// Per-read scratch size; also the per-connection fairness cap on how
/// many bytes one tick will drain from a single socket.
const READ_CHUNK: usize = 16 * 1024;

/// Largest buffered-but-unflushed response backlog per connection. A
/// `/v1/batch` client that stops reading mid-stream accumulates chunks
/// here instead of wedging a worker; past this bound the connection is
/// dropped (scoring continues — verdicts still land in the shared memo).
/// The inline path enforces the same bound by *pausing* rather than
/// dropping: the parse loop stops routing pipelined requests while the
/// backlog is at the cap and resumes as the socket drains it (one
/// response may overshoot the cap, never more).
pub const MAX_OUT_BUFFER: usize = 8 << 20;

/// Largest parser-buffered request backlog per connection: one maximal
/// request (head + body) plus a pipeline allowance. The read phase stops
/// draining the socket once this much is buffered unparsed — because a
/// request is at a worker, or because [`MAX_OUT_BUFFER`] paused the
/// parse loop — so a client that pipelines at line rate is bounded by
/// TCP backpressure (as the old blocking design was), not by the
/// server's heap. One `READ_CHUNK` may overshoot the bound, never
/// more.
pub const MAX_IN_BUFFER: usize = http::MAX_BODY_BYTES + http::MAX_HEADER_BYTES + READ_CHUNK;

/// Idle-tick sleep bounds: the loop parks briefly when a tick made no
/// progress, backing off toward the max while the server stays quiet.
const TICK_MIN: Duration = Duration::from_micros(200);
const TICK_MAX: Duration = Duration::from_millis(2);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (scoring pool width; also the `/v1/batch` stage
    /// width). Defaults to the hardware width, clamped like
    /// [`default_workers`]. The process runs exactly `workers + 1`
    /// server threads no matter how many connections are open.
    pub workers: usize,
    /// Bounded dispatch-queue depth: scoring requests parsed but not yet
    /// claimed by a worker. When it is full new scoring requests get a
    /// typed `503` instead of queueing unboundedly.
    pub accept_queue: usize,
    /// Most simultaneously-open connections; beyond it new connections
    /// are shed with a typed `503`.
    pub max_connections: usize,
    /// When set, the verdict store is loaded from (and saved to) this
    /// JSONL file.
    pub memo_path: Option<PathBuf>,
    /// Read deadline, applied in two tiers: an idle keep-alive
    /// connection is closed silently after this long, while a
    /// *started* request (head or body partially arrived) is answered
    /// `408 Request Timeout`.
    pub read_timeout: Duration,
    /// Write-stall deadline. A client that stops reading while response
    /// bytes are pending is dropped once the socket accepts nothing for
    /// this long.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: default_workers(),
            accept_queue: 64,
            max_connections: 4096,
            memo_path: None,
            read_timeout: Duration::from_millis(1000),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// A running server; dropping (or calling [`ServerHandle::shutdown`])
/// stops it and joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    owner: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (query it after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (stats, memo, dataset).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Requests shutdown, waits for every worker to finish, and persists
    /// the memo when a path was configured.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.owner.take() {
            Some(owner) => owner
                .join()
                .map_err(|_| io::Error::other("server owner thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(owner) = self.owner.take() {
            let _ = owner.join();
        }
    }
}

/// Binds and starts a server over the given problem corpus.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// let dataset = Arc::new(cedataset::Dataset::generate());
/// let handle = ceserve::spawn("127.0.0.1:0", dataset, ceserve::ServerConfig::default()).unwrap();
/// assert_ne!(handle.addr().port(), 0);
/// handle.shutdown().unwrap();
/// ```
pub fn spawn(
    addr: impl ToSocketAddrs,
    dataset: Arc<Dataset>,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let memo = Arc::new(ScoreMemo::new());
    if let Some(path) = &config.memo_path {
        if path.exists() {
            memo::load_into(&memo, path)?;
        }
    }
    let service = Arc::new(Service::new(dataset, Arc::clone(&memo), config.workers));
    let shutdown = Arc::new(AtomicBool::new(false));

    let owner = {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let config = config.clone();
        std::thread::Builder::new()
            .name("ceserve-owner".into())
            .spawn(move || run(listener, &service, &shutdown, &config))?
    };
    Ok(ServerHandle {
        addr,
        service,
        shutdown,
        owner: Some(owner),
    })
}

/// A scoring request dispatched from the event loop to the worker pool.
struct Job {
    token: Token,
    request: http::Request,
    /// When the event loop enqueued it, for `http_phase_us{phase="queue_wait"}`.
    queued_at: Instant,
}

/// What workers push back through the completion channel.
enum Completion {
    /// Framed response bytes for a connection (whole responses, or one
    /// chunk of a `/v1/batch` stream).
    Data(Token, Vec<u8>),
    /// The job finished; `bool` is whether the connection may serve
    /// another request.
    Done(Token, bool),
}

/// The worker-side [`ResponseSink`]: framed bytes ride the completion
/// channel back to the event loop, which re-arms the connection for
/// writing. A send error means the event loop is gone (shutdown) — the
/// sink goes dead and further writes are dropped.
struct CompletionSink<'a> {
    tx: &'a Sender<Completion>,
    token: Token,
    alive: bool,
}

impl ResponseSink for CompletionSink<'_> {
    fn send(&mut self, bytes: Vec<u8>) -> bool {
        if self.alive && self.tx.send(Completion::Data(self.token, bytes)).is_err() {
            self.alive = false;
        }
        self.alive
    }
}

/// The owner thread: scoped worker pool + the event loop.
fn run(
    listener: TcpListener,
    service: &Service,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) -> io::Result<()> {
    let workers = config.workers.max(1);
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.accept_queue.max(1));
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let job_rx = Mutex::new(job_rx);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = &job_rx;
            let done_tx = done_tx.clone();
            scope.spawn(move || worker_loop(service, job_rx, done_tx));
        }
        drop(done_tx);
        let result = event_loop(&listener, service, shutdown, config, job_tx, done_rx);
        // `event_loop` dropped the job sender on exit; workers drain the
        // jobs already queued (decrementing the queue-depth gauge for
        // each — nothing leaks into `/v1/stats` phantom depth) and exit.
        result
    })?;
    if let Some(path) = &config.memo_path {
        memo::save(service.memo(), path)?;
    }
    Ok(())
}

/// One scoring worker: claim parsed requests off the bounded dispatch
/// queue, run the API handler with a completion-channel sink, report
/// done.
///
/// The claim blocks in `recv` **while holding the lock** — by design:
/// exactly one idle worker waits on the channel, the rest block on the
/// mutex (no polling). Workers exit when the event loop drops the
/// sender *and* the queue is drained, so a request that was queued at
/// shutdown is still accounted (gauge decremented) rather than leaked.
fn worker_loop(service: &Service, job_rx: &Mutex<Receiver<Job>>, done_tx: Sender<Completion>) {
    loop {
        let claimed = job_rx.lock().expect("dispatch queue poisoned").recv();
        let Ok(job) = claimed else { return };
        service.stats().queue_depth.fetch_sub(1, Ordering::Relaxed);
        service
            .metrics()
            .queue_wait_us
            .record(job.queued_at.elapsed());
        service.stats().busy_workers.fetch_add(1, Ordering::Relaxed);
        let mut sink = CompletionSink {
            tx: &done_tx,
            token: job.token,
            alive: true,
        };
        let handler_started = Instant::now();
        let keep = api::handle(service, &job.request, &mut sink);
        service
            .metrics()
            .handler_us
            .record(handler_started.elapsed());
        service.stats().busy_workers.fetch_sub(1, Ordering::Relaxed);
        let _ = done_tx.send(Completion::Done(job.token, keep));
    }
}

/// One connection's state in the slab.
struct Conn {
    stream: TcpStream,
    parser: http::RequestParser,
    /// Buffered response bytes not yet accepted by the socket…
    out: Vec<u8>,
    /// …up to this cursor, which have been.
    written: usize,
    /// A request is at a worker; responses for it are still arriving, so
    /// parsing of pipelined successors is paused (responses must leave
    /// in request order).
    awaiting: bool,
    /// Flush what is buffered, then close.
    close_after_flush: bool,
    /// The peer half-closed its write side: no more requests will
    /// arrive, finish the in-flight one and close.
    peer_closed: bool,
    /// Last moment bytes moved on this socket (either direction).
    last_activity: Instant,
    /// When the socket first refused pending writes, for the
    /// write-stall deadline.
    write_stalled_since: Option<Instant>,
    /// When the connection was accepted, for
    /// `http_phase_us{phase="accept_to_first_byte"}`.
    accepted: Instant,
    /// The first request byte has arrived (accept-to-first-byte has been
    /// recorded; it is a per-connection phase, not per-request).
    first_byte_seen: bool,
    /// When the in-flight request's first bytes arrived, for
    /// `http_phase_us{phase="assembly"}`. Taken when the request
    /// completes; pipelined successors parsed from the same tick's bytes
    /// contribute no sample.
    request_started: Option<Instant>,
    /// When the current response backlog first waited on the socket, for
    /// `http_phase_us{phase="write_drain"}`.
    drain_started: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            parser: http::RequestParser::new(),
            out: Vec::new(),
            written: 0,
            awaiting: false,
            close_after_flush: false,
            peer_closed: false,
            last_activity: now,
            write_stalled_since: None,
            accepted: now,
            first_byte_seen: false,
            request_started: None,
            drain_started: None,
        }
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.written
    }
}

/// The readiness-driven core: accepts, reads, parses, dispatches,
/// flushes — all nonblocking, all on one thread.
fn event_loop(
    listener: &TcpListener,
    service: &Service,
    shutdown: &AtomicBool,
    config: &ServerConfig,
    job_tx: SyncSender<Job>,
    done_rx: Receiver<Completion>,
) -> io::Result<()> {
    let mut conns: Slab<Conn> = Slab::new();
    let mut idle_sleep = TICK_MIN;
    while !shutdown.load(Ordering::SeqCst) {
        let mut progress = false;
        let now = Instant::now();

        // Accept burst.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progress = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if conns.len() >= config.max_connections.max(1) {
                        shed(service, stream);
                        continue;
                    }
                    service.stats().connections.fetch_add(1, Ordering::Relaxed);
                    conns.insert(Conn::new(stream, now));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    drain_conns(service, &mut conns);
                    return Err(e);
                }
            }
        }

        // Worker completions: buffer response bytes, re-arm connections.
        // Generation-tagged tokens make completions for connections that
        // died (or whose slot was recycled) harmless no-ops.
        while let Ok(completion) = done_rx.try_recv() {
            progress = true;
            match completion {
                Completion::Data(token, bytes) => {
                    let overflow = match conns.get_mut(token) {
                        Some(conn) => {
                            if conn.pending_out() + bytes.len() > MAX_OUT_BUFFER {
                                true
                            } else {
                                conn.out.extend_from_slice(&bytes);
                                false
                            }
                        }
                        None => false,
                    };
                    if overflow {
                        // Slow reader: drop the connection, let the
                        // stream's remaining chunks no-op on the stale
                        // token.
                        close_conn(service, &mut conns, token);
                    }
                }
                Completion::Done(token, keep) => {
                    if let Some(conn) = conns.get_mut(token) {
                        conn.awaiting = false;
                        if !keep {
                            conn.close_after_flush = true;
                        }
                    }
                }
            }
        }

        // Per-connection I/O scan (the "poll"): each live socket gets
        // one nonblocking read/parse/flush pass, plus deadline checks.
        for slot in 0..conns.slots() {
            let Some(token) = conns.token_at(slot) else {
                continue;
            };
            let conn = conns.get_mut(token).expect("token_at returned live token");
            match pump_conn(service, conn, token, &job_tx, now, config) {
                Ok(made_progress) => progress |= made_progress,
                Err(()) => close_conn(service, &mut conns, token),
            }
        }

        if progress {
            idle_sleep = TICK_MIN;
        } else {
            // Nothing moved: park briefly, backing off while quiet so an
            // idle server costs ~nothing and a busy one stays snappy.
            std::thread::sleep(idle_sleep);
            idle_sleep = (idle_sleep * 2).min(TICK_MAX);
        }
    }
    drain_conns(service, &mut conns);
    Ok(())
}

/// Removes a connection and keeps the gauge honest.
fn close_conn(service: &Service, conns: &mut Slab<Conn>, token: Token) {
    if conns.remove(token).is_some() {
        service.stats().connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Drops every remaining connection on loop exit (shutdown or accept
/// failure), decrementing the gauge for each.
fn drain_conns(service: &Service, conns: &mut Slab<Conn>) {
    for slot in 0..conns.slots() {
        if let Some(token) = conns.token_at(slot) {
            close_conn(service, conns, token);
        }
    }
}

/// One tick of one connection: drain readable bytes into the parser,
/// complete and route requests, flush pending writes, enforce deadlines.
/// `Err(())` means the connection is done (error, EOF, timeout) and must
/// be removed.
fn pump_conn(
    service: &Service,
    conn: &mut Conn,
    token: Token,
    job_tx: &SyncSender<Job>,
    now: Instant,
    config: &ServerConfig,
) -> Result<bool, ()> {
    let mut progress = false;

    // Read phase: drain what the socket has (bounded per tick for
    // fairness across connections, and gated on [`MAX_IN_BUFFER`] so a
    // paused parse loop — request at a worker, or response backlog at
    // the cap — cannot be exploited to buffer unbounded pipelined bytes;
    // the unread bytes stay in the kernel and TCP backpressure reaches
    // the client).
    if !conn.close_after_flush && !conn.peer_closed && conn.parser.buffered() < MAX_IN_BUFFER {
        let mut chunk = [0u8; READ_CHUNK];
        match poll::read_step(&mut conn.stream, &mut chunk) {
            Ok(ReadStep::Data(n)) => {
                if !conn.first_byte_seen {
                    conn.first_byte_seen = true;
                    service
                        .metrics()
                        .accept_to_first_byte_us
                        .record(now.duration_since(conn.accepted));
                }
                conn.request_started.get_or_insert(now);
                conn.parser.feed(&chunk[..n]);
                conn.last_activity = now;
                progress = true;
            }
            Ok(ReadStep::Closed) => {
                conn.peer_closed = true;
                progress = true;
            }
            Ok(ReadStep::NotReady) => {}
            Err(_) => return Err(()),
        }
    }

    // Parse-and-route phase. Paused while a request is at a worker so
    // pipelined responses leave in request order, and while the response
    // backlog is at [`MAX_OUT_BUFFER`] so a non-reading client that
    // pipelines cheap requests with large responses (inline writes skip
    // the completion channel and its overflow check) stalls instead of
    // growing `out` without bound; flushing below the cap resumes it.
    while !conn.awaiting && !conn.close_after_flush && conn.pending_out() < MAX_OUT_BUFFER {
        match conn.parser.try_next() {
            Ok(Some(request)) => {
                progress = true;
                if let Some(started) = conn.request_started.take() {
                    service
                        .metrics()
                        .assembly_us
                        .record(now.duration_since(started));
                }
                route(service, conn, token, request, job_tx);
            }
            Ok(None) => break,
            Err(error) => {
                progress = true;
                respond_parse_error(service, conn, &error);
                break;
            }
        }
    }

    // Flush phase.
    if conn.pending_out() > 0 {
        conn.drain_started.get_or_insert(now);
        loop {
            match poll::write_step(&mut conn.stream, &conn.out[conn.written..]) {
                Ok(WriteStep::Wrote(n)) => {
                    conn.written += n;
                    conn.last_activity = now;
                    conn.write_stalled_since = None;
                    progress = true;
                    if conn.written == conn.out.len() {
                        conn.out.clear();
                        conn.written = 0;
                        if let Some(started) = conn.drain_started.take() {
                            service
                                .metrics()
                                .write_drain_us
                                .record(now.duration_since(started));
                        }
                        break;
                    }
                }
                Ok(WriteStep::NotReady) => {
                    let stalled = conn.write_stalled_since.get_or_insert(now);
                    if now.duration_since(*stalled) > config.write_timeout {
                        return Err(());
                    }
                    break;
                }
                Err(_) => return Err(()),
            }
        }
    }

    let flushed = conn.pending_out() == 0;
    if conn.close_after_flush && flushed {
        return Err(());
    }
    // EOF: once nothing is in flight and nothing is pending, close.
    if conn.peer_closed && flushed && !conn.awaiting && !conn.parser.mid_request() {
        return Err(());
    }

    // Read deadlines (never while a worker owns the in-flight request —
    // scoring may legitimately take longer than the read timeout).
    if !conn.awaiting && !conn.close_after_flush {
        let idle_for = now.duration_since(conn.last_activity);
        if idle_for > config.read_timeout {
            if conn.parser.mid_request() {
                // A started request stalled mid-head or mid-body: that
                // is a client defect, answer it as one. (Silently
                // dropping, as the blocking server did, left the client
                // unable to tell a crash from its own half-sent
                // request.)
                service.stats().requests.fetch_add(1, Ordering::Relaxed);
                service
                    .stats()
                    .client_errors
                    .fetch_add(1, Ordering::Relaxed);
                // The request never completed, so scan the raw buffered
                // head for an x-request-id to echo: the timeout stays
                // attributable client-side.
                let id = api::scan_request_id(conn.parser.buffered_bytes());
                let extra: Vec<(&str, &str)> = id
                    .as_deref()
                    .map(|v| ("x-request-id", v))
                    .into_iter()
                    .collect();
                let bytes = http::encode_response_with(
                    408,
                    "application/json",
                    &api::timeout_body(),
                    false,
                    &extra,
                );
                service.metrics().bytes_out.add(bytes.len() as u64);
                conn.out.extend_from_slice(&bytes);
                conn.close_after_flush = true;
            } else if flushed {
                // Idle keep-alive connection: close silently.
                return Err(());
            }
        }
    }
    Ok(progress)
}

/// Routes one completed request: scoring `POST`s go to the worker pool,
/// everything else is answered inline into the connection's buffer.
fn route(
    service: &Service,
    conn: &mut Conn,
    token: Token,
    request: http::Request,
    job_tx: &SyncSender<Job>,
) {
    if api::needs_worker(&request) {
        service.stats().queue_depth.fetch_add(1, Ordering::Relaxed);
        match job_tx.try_send(Job {
            token,
            request,
            queued_at: Instant::now(),
        }) {
            Ok(()) => conn.awaiting = true,
            Err(TrySendError::Full(job)) => {
                // Bounded dispatch queue full: shed load with a typed 503.
                service.stats().queue_depth.fetch_sub(1, Ordering::Relaxed);
                service
                    .stats()
                    .rejected_busy
                    .fetch_add(1, Ordering::Relaxed);
                let extra: Vec<(&str, &str)> = api::request_id(&job.request)
                    .map(|v| ("x-request-id", v))
                    .into_iter()
                    .collect();
                let bytes = http::encode_response_with(
                    503,
                    "application/json",
                    &api::busy_body(),
                    false,
                    &extra,
                );
                service.metrics().bytes_out.add(bytes.len() as u64);
                conn.out.extend_from_slice(&bytes);
                conn.close_after_flush = true;
            }
            Err(TrySendError::Disconnected(_job)) => {
                service.stats().queue_depth.fetch_sub(1, Ordering::Relaxed);
                conn.close_after_flush = true;
            }
        }
    } else {
        let handler_started = Instant::now();
        let keep = {
            let mut sink = api::BufSink(&mut conn.out);
            api::handle(service, &request, &mut sink)
        };
        service
            .metrics()
            .handler_us
            .record(handler_started.elapsed());
        if !keep {
            conn.close_after_flush = true;
        }
    }
}

/// Answers a request-parse error with its typed status and marks the
/// connection for close (the byte stream is unsynchronized past the
/// error).
fn respond_parse_error(service: &Service, conn: &mut Conn, error: &RequestError) {
    let (status, body) = match error {
        RequestError::LengthRequired => (411, api::length_required_body()),
        RequestError::BodyTooLarge(declared) => (413, api::oversized_body(*declared)),
        RequestError::Malformed(message) => (400, api::malformed_body(message)),
        // The incremental parser does no I/O; these variants belong to
        // the client-side reader. Treat them as a dead connection.
        RequestError::Closed | RequestError::Timeout | RequestError::Io(_) => {
            conn.close_after_flush = true;
            return;
        }
    };
    service.stats().requests.fetch_add(1, Ordering::Relaxed);
    service
        .stats()
        .client_errors
        .fetch_add(1, Ordering::Relaxed);
    // No parsed request to consult; scan the raw bytes for the id echo.
    let id = api::scan_request_id(conn.parser.buffered_bytes());
    let extra: Vec<(&str, &str)> = id
        .as_deref()
        .map(|v| ("x-request-id", v))
        .into_iter()
        .collect();
    let bytes = http::encode_response_with(status, "application/json", &body, false, &extra);
    service.metrics().bytes_out.add(bytes.len() as u64);
    conn.out.extend_from_slice(&bytes);
    conn.close_after_flush = true;
}

/// Best-effort `503` to a connection shed at the `max_connections`
/// bound: nonblocking writes looped while they make progress (short
/// writes happen even for a ~150-byte response), abandoned at the first
/// refusal — the event loop never parks for a connection it is
/// rejecting.
fn shed(service: &Service, mut stream: TcpStream) {
    service
        .stats()
        .rejected_busy
        .fetch_add(1, Ordering::Relaxed);
    let id = scan_shed_request_id(&mut stream);
    let extra: Vec<(&str, &str)> = id
        .as_deref()
        .map(|v| ("x-request-id", v))
        .into_iter()
        .collect();
    let bytes =
        http::encode_response_with(503, "application/json", &api::busy_body(), false, &extra);
    let mut written = 0;
    while written < bytes.len() {
        match poll::write_step(&mut stream, &bytes[written..]) {
            Ok(WriteStep::Wrote(n)) => written += n,
            Ok(WriteStep::NotReady) | Err(_) => break,
        }
    }
    service.metrics().bytes_out.add(written as u64);
}

/// Best-effort `x-request-id` recovery on a connection being shed: the
/// client usually sent its request head before the accept, so a short
/// bounded read (≤ 25 ms, ≤ 4 KiB, stopping at end-of-head) recovers the
/// id for the `503` echo. The stall is a deliberate tradeoff — the loop
/// is already rejecting under overload, and a rejection the client can
/// correlate beats an anonymous one; the bound keeps it from becoming a
/// slowloris lever.
fn scan_shed_request_id(stream: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + Duration::from_millis(25);
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match poll::read_step(stream, &mut chunk) {
            Ok(ReadStep::Data(n)) => {
                head.extend_from_slice(&chunk[..n]);
                if head.len() >= 4096 || head.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Ok(ReadStep::NotReady) => {
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(ReadStep::Closed) | Err(_) => break,
        }
    }
    api::scan_request_id(&head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// A connected socket pair, the server side nonblocking (as the
    /// accept path would leave it) and the client side nonblocking so a
    /// single-threaded test can probe backpressure without deadlocking.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).unwrap();
        client.set_nonblocking(true).unwrap();
        (server_side, client)
    }

    fn test_service() -> Service {
        Service::new(Arc::new(Dataset::generate()), Arc::new(ScoreMemo::new()), 1)
    }

    /// Any generation-tagged token works for a connection pumped outside
    /// the event loop's slab — it is only consulted on worker dispatch.
    fn test_token() -> Token {
        Slab::<u8>::new().insert(0)
    }

    /// Regression (review): while a request is at a worker the parse
    /// loop is paused — the read phase must then stop feeding the
    /// parser at [`MAX_IN_BUFFER`] and leave further pipelined bytes to
    /// TCP backpressure, instead of buffering a line-rate client on the
    /// heap for as long as a slow `/v1/batch` scores.
    #[test]
    fn read_buffering_is_bounded_while_a_request_is_at_a_worker() {
        let (server_side, mut client) = socket_pair();
        let service = test_service();
        let (job_tx, _job_rx) = mpsc::sync_channel::<Job>(1);
        let config = ServerConfig::default();
        let token = test_token();
        let mut conn = Conn::new(server_side, Instant::now());
        conn.awaiting = true; // the in-flight request is "at a worker"

        let payload = vec![b'x'; 64 * 1024];
        let mut sent = 0usize;
        let mut stalled_rounds = 0;
        while sent < 2 * MAX_IN_BUFFER && stalled_rounds < 64 {
            match client.write(&payload) {
                Ok(n) => {
                    sent += n;
                    stalled_rounds = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => stalled_rounds += 1,
                Err(e) => panic!("client write failed: {e}"),
            }
            for _ in 0..8 {
                pump_conn(&service, &mut conn, token, &job_tx, Instant::now(), &config)
                    .expect("connection stays alive");
            }
        }
        assert!(
            conn.parser.buffered() <= MAX_IN_BUFFER + READ_CHUNK,
            "parser buffered {} bytes with the parse loop paused (bound {MAX_IN_BUFFER})",
            conn.parser.buffered(),
        );
    }

    /// Regression (review): inline responses bypass the completion
    /// channel's overflow check — the parse loop itself must stop
    /// routing pipelined requests once [`MAX_OUT_BUFFER`] bytes are
    /// pending, so a non-reading client pipelining cheap `GET`s cannot
    /// grow the backlog without bound; and it must resume as the client
    /// drains, with nothing dropped.
    #[test]
    fn inline_response_backlog_is_capped_and_resumes() {
        let (server_side, mut client) = socket_pair();
        let service = test_service();
        let (job_tx, _job_rx) = mpsc::sync_channel::<Job>(1);
        let config = ServerConfig::default();
        let token = test_token();
        let mut conn = Conn::new(server_side, Instant::now());

        // Size one inline response, then pipeline enough of them that
        // even generous kernel socket buffering cannot mask an uncapped
        // backlog (responses drift a few bytes as counters grow, hence
        // the margins below).
        let request_bytes: &[u8] = b"GET /v1/stats HTTP/1.1\r\n\r\n";
        let one = {
            let mut out = Vec::new();
            let mut parser = http::RequestParser::new();
            parser.feed(request_bytes);
            let request = parser.try_next().unwrap().expect("complete request");
            api::handle(&service, &request, &mut api::BufSink(&mut out));
            out.len()
        };
        let total = 2 * MAX_OUT_BUFFER / one + 16;
        for _ in 0..total {
            conn.parser.feed(request_bytes);
        }

        // The client reads nothing: one pump must stop at the cap.
        pump_conn(&service, &mut conn, token, &job_tx, Instant::now(), &config)
            .expect("connection stays alive");
        assert!(
            conn.pending_out() <= MAX_OUT_BUFFER + one + 1024,
            "pending backlog {} with a non-reading client (cap {MAX_OUT_BUFFER})",
            conn.pending_out(),
        );

        // Drain from the client side: parsing resumes below the cap and
        // every pipelined request is eventually answered.
        let mut sink = vec![0u8; 1 << 20];
        let mut received = 0usize;
        let mut quiet = 0;
        while quiet < 50 {
            let moved = pump_conn(&service, &mut conn, token, &job_tx, Instant::now(), &config)
                .expect("connection stays alive");
            match client.read(&mut sink) {
                Ok(n) if n > 0 => {
                    received += n;
                    quiet = 0;
                }
                _ if moved => quiet = 0,
                _ => quiet += 1,
            }
        }
        assert_eq!(
            conn.parser.buffered(),
            0,
            "every pipelined request must parse"
        );
        assert_eq!(conn.pending_out(), 0, "the backlog must drain");
        assert!(
            received > MAX_OUT_BUFFER,
            "only {received} response bytes reached the client"
        );
    }
}
