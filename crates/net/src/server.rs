//! The firehose network front end: one event loop, many connections.
//!
//! [`Server`] owns a non-blocking [`TcpListener`] and runs an epoll-style
//! readiness loop over non-blocking connection sockets: every socket is
//! polled for readable/writable progress each iteration, connection state
//! machines advance as bytes arrive, and the loop parks briefly only when a
//! full pass makes no progress. The [`FirehoseService`] lives *inside* the
//! loop thread — requests mutate it directly, so the wire path adds no
//! locking, no cross-thread handoff, and no decision divergence versus
//! calling the facade in process.
//!
//! ## Endpoints
//!
//! | Endpoint | Method | Body / response |
//! |---|---|---|
//! | `/ingest` (alias `/ingest/batch`) | POST | corpus TSV post lines in; one `<post_id>\t<u1,u2,...|->` decision line out per admitted post |
//! | `/churn` | POST | [`ChurnOp`] text lines in; `ok[\t<detail>]` or `err\t<reason>` per line out |
//! | `/stream/<user>` | GET | chunked long-poll of `<seq>\t<id>\t<author>\t<ts>\t<text>` delivery lines; `?from=<seq>&max=<n>&wait_ms=<t>` |
//! | `/metrics` | GET | Prometheus text exposition (engine + guard + connection instruments) |
//! | `/healthz` | GET | JSON health document |
//! | `/shutdown` | POST | stops the server (only with [`ServerConfig::allow_shutdown`]) |
//!
//! ## Backpressure
//!
//! Admission control composes three layers. The service's own overload
//! machinery ([`OverloadPolicy`](firehose_core::service::OverloadPolicy)
//! queue + per-author token buckets) decides per *post*; `Reject` surfaces
//! as HTTP 503 with `Retry-After`, shed and rate-limited posts are counted
//! in `/healthz` and `/metrics`. Per *connection*, the listener refuses
//! sockets beyond [`ServerConfig::max_connections`] with an immediate 503,
//! and request header/body caps bound memory per connection. Per *reader*,
//! each user's delivery ring holds the last [`ServerConfig::stream_buffer`]
//! emitted posts — a reader that cannot keep up loses the oldest deliveries
//! (counted, never blocking ingest), which is the same freshness-first
//! stance as [`OverloadPolicy::ShedOldest`](firehose_core::service::OverloadPolicy::ShedOldest).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use firehose_core::service::{ChurnOp, FirehoseService, ServiceError};
use firehose_obs::{labels, Counter, Gauge, Registry};
use firehose_stream::{corpus, Post};

use crate::http::{
    parse_request, push_chunk, response_head, Method, ParseLimits, ParseOutcome, Request,
    TERMINAL_CHUNK,
};

// ---------------------------------------------------------------------
// Wire-format helpers (shared with tests and the load generator).
// ---------------------------------------------------------------------

/// The `/ingest` response line for one sink callback: the post id and the
/// ascending user ids it was delivered to (`-` when suppressed everywhere).
pub fn decision_line(post_id: u64, delivered_to: &[u32]) -> String {
    use std::fmt::Write as _;
    let mut line = format!("{post_id}\t");
    if delivered_to.is_empty() {
        line.push('-');
    } else {
        for (i, user) in delivered_to.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "{user}");
        }
    }
    line.push('\n');
    line
}

/// One `/stream/<user>` delivery line: the per-user sequence number followed
/// by the corpus TSV form of the post.
pub fn delivery_line(seq: u64, post: &Post) -> Vec<u8> {
    let mut line = format!("{seq}\t").into_bytes();
    // write_posts to a Vec never fails.
    let _ = corpus::write_posts(std::slice::from_ref(post), &mut line);
    line
}

// ---------------------------------------------------------------------
// Errors and configuration.
// ---------------------------------------------------------------------

/// Server-fatal failures. Per-connection I/O problems are *not* here — a
/// misbehaving peer only ever loses its own connection.
#[derive(Debug)]
pub enum NetError {
    /// Binding or configuring the listener failed.
    Bind {
        /// The address that could not be bound.
        addr: String,
        /// The underlying error.
        source: io::Error,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bind { addr, source } => write!(f, "cannot listen on {addr}: {source}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Tunables for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections accepted; excess sockets get an immediate 503.
    pub max_connections: usize,
    /// Cap on one request body (`/ingest` batches bound ingest burst size).
    pub max_body_bytes: usize,
    /// Cap on one request's header section.
    pub max_header_bytes: usize,
    /// Per-user delivery ring: readers lagging more than this many emitted
    /// posts lose the oldest (counted in `firehose_net_deliveries_dropped`).
    pub stream_buffer: usize,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout: Duration,
    /// Honor `POST /shutdown` (tests, benches, supervised deployments).
    pub allow_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 1024,
            max_body_bytes: 4 * 1024 * 1024,
            max_header_bytes: 16 * 1024,
            stream_buffer: 1024,
            idle_timeout: Duration::from_secs(60),
            allow_shutdown: false,
        }
    }
}

/// Counters describing one completed [`Server::serve`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeReport {
    /// Connections accepted (including later-rejected ones).
    pub connections_accepted: u64,
    /// Connections refused by the `max_connections` cap.
    pub connections_rejected: u64,
    /// Requests handled.
    pub requests: u64,
    /// Posts admitted into the service via `/ingest`.
    pub posts_ingested: u64,
    /// Delivery lines written to `/stream` readers.
    pub deliveries_streamed: u64,
    /// Deliveries dropped from full per-user rings.
    pub deliveries_dropped: u64,
    /// Malformed requests answered with a 4xx/5xx protocol error.
    pub protocol_errors: u64,
}

/// Signals a running [`Server::serve`] loop to stop.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Ask the serve loop to exit; it flushes pending writes and returns.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Connection instruments.
// ---------------------------------------------------------------------

/// Connection-level instruments, registered under `firehose_net_*`.
struct ServerObs {
    connections: Gauge,
    connections_total: Counter,
    connections_rejected: Counter,
    requests: Counter,
    protocol_errors: Counter,
    posts_ingested: Counter,
    deliveries_streamed: Counter,
    deliveries_dropped: Counter,
    streams_parked: Gauge,
}

impl ServerObs {
    fn register(registry: &Registry) -> Self {
        let l = labels(&[]);
        Self {
            connections: registry.gauge(
                "firehose_net_connections",
                "Connections currently open",
                l.clone(),
            ),
            connections_total: registry.counter(
                "firehose_net_connections_total",
                "Connections accepted since start",
                l.clone(),
            ),
            connections_rejected: registry.counter(
                "firehose_net_connections_rejected_total",
                "Connections refused by the max_connections cap",
                l.clone(),
            ),
            requests: registry.counter(
                "firehose_net_requests_total",
                "HTTP requests handled",
                l.clone(),
            ),
            protocol_errors: registry.counter(
                "firehose_net_protocol_errors_total",
                "Malformed requests answered with a protocol error",
                l.clone(),
            ),
            posts_ingested: registry.counter(
                "firehose_net_posts_ingested_total",
                "Posts admitted into the service over the wire",
                l.clone(),
            ),
            deliveries_streamed: registry.counter(
                "firehose_net_deliveries_streamed_total",
                "Delivery lines written to stream readers",
                l.clone(),
            ),
            deliveries_dropped: registry.counter(
                "firehose_net_deliveries_dropped_total",
                "Deliveries evicted from full per-user rings",
                l.clone(),
            ),
            streams_parked: registry.gauge(
                "firehose_net_streams_parked",
                "Long-poll stream requests currently parked",
                l,
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Per-user delivery rings.
// ---------------------------------------------------------------------

/// Recent deliveries for one user: contiguous sequence numbers, bounded
/// length, shared formatted lines.
#[derive(Default)]
struct UserRing {
    /// Sequence number the *next* delivery will get.
    next_seq: u64,
    /// `(seq, corpus line)` pairs, seq strictly ascending and contiguous.
    items: VecDeque<(u64, Arc<Vec<u8>>)>,
}

// ---------------------------------------------------------------------
// Connection state machine.
// ---------------------------------------------------------------------

/// A parked or draining `/stream` long-poll.
struct StreamState {
    user: u32,
    next_seq: u64,
    remaining: usize,
    deadline: Instant,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    streaming: Option<StreamState>,
    close_after_flush: bool,
    last_activity: Instant,
    dead: bool,
    /// Whether this connection incremented the open-connections gauge
    /// (over-capacity rejects never do).
    counted: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            streaming: None,
            close_after_flush: false,
            last_activity: Instant::now(),
            dead: false,
            counted: false,
        }
    }

    fn has_pending_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Flush as much pending output as the socket accepts. Returns whether
    /// any bytes moved.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.has_pending_write() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if !self.has_pending_write() {
            self.out.clear();
            self.out_pos = 0;
            if self.close_after_flush {
                self.dead = true;
            }
        }
        progressed
    }

    /// Read whatever is available. Returns whether any bytes arrived.
    fn fill(&mut self) -> bool {
        let mut progressed = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed its write side; once our output drains
                    // there is nothing left to do with this socket.
                    if !self.has_pending_write() {
                        self.dead = true;
                    }
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progressed
    }
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// A bound, not-yet-serving firehose front end. Bind first (so tests can
/// learn the ephemeral port), then [`serve`](Server::serve).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

/// Everything the request handlers mutate. Kept separate from the
/// connection list so a handler can borrow the service and the rings while
/// the loop holds the connection.
struct ServiceState {
    service: FirehoseService,
    rings: Vec<UserRing>,
    ring_cap: usize,
    registry: Arc<Registry>,
    obs: ServerObs,
    started: Instant,
    allow_shutdown: bool,
    /// Users `/churn` removed during the current loop turn, until
    /// [`retire_removed`](Self::retire_removed) has dealt with them.
    removed: Vec<u32>,
}

enum Handled {
    /// A complete response body.
    Respond {
        status: u16,
        content_type: &'static str,
        body: Vec<u8>,
        extra_headers: Vec<(&'static str, String)>,
    },
    /// Begin a chunked long-poll stream.
    StartStream {
        user: u32,
        from: Option<u64>,
        max: usize,
        wait: Duration,
    },
    /// Respond 200 and stop the server.
    Shutdown,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(
        addr: impl ToSocketAddrs + std::fmt::Display,
        config: ServerConfig,
    ) -> Result<Self, NetError> {
        let fail = |source| NetError::Bind {
            addr: addr.to_string(),
            source,
        };
        let listener = TcpListener::bind(&addr).map_err(fail)?;
        listener.set_nonblocking(true).map_err(fail)?;
        let local = listener.local_addr().map_err(fail)?;
        Ok(Self {
            listener,
            addr: local,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that stops [`serve`](Server::serve) from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Run the event loop until shut down (via [`ShutdownHandle`] or an
    /// authorized `POST /shutdown`). Consumes the service: all ingest,
    /// churn, and streaming flows through this loop's thread.
    pub fn serve(
        self,
        service: FirehoseService,
        registry: Arc<Registry>,
    ) -> Result<ServeReport, NetError> {
        let limits = ParseLimits {
            max_header_bytes: self.config.max_header_bytes,
            max_body_bytes: self.config.max_body_bytes,
        };
        let user_count = service.subscriptions().user_count();
        let mut state = ServiceState {
            service,
            rings: Vec::new(),
            ring_cap: self.config.stream_buffer.max(1),
            registry: Arc::clone(&registry),
            obs: ServerObs::register(&registry),
            started: Instant::now(),
            allow_shutdown: self.config.allow_shutdown,
            removed: Vec::new(),
        };
        state.ensure_user_rings(user_count);
        let mut conns: Vec<Conn> = Vec::new();

        loop {
            let mut progressed = false;

            // Accept everything pending (unless shutting down).
            if !self.shutdown.load(Ordering::Acquire) {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            progressed = true;
                            state.obs.connections_total.inc();
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let mut conn = Conn::new(stream);
                            if conns.len() >= self.config.max_connections {
                                state.obs.connections_rejected.inc();
                                let body = b"connection limit reached\n";
                                conn.out.extend_from_slice(
                                    response_head(
                                        503,
                                        "text/plain; charset=utf-8",
                                        Some(body.len()),
                                        false,
                                        &[("Retry-After", "1")],
                                    )
                                    .as_bytes(),
                                );
                                conn.out.extend_from_slice(body);
                                conn.close_after_flush = true;
                            } else {
                                state.obs.connections.inc();
                                conn.counted = true;
                            }
                            conns.push(conn);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        // Transient accept failures (EMFILE under load)
                        // must not kill the serving loop.
                        Err(_) => break,
                    }
                }
            }

            // Advance every connection's state machine.
            for conn in conns.iter_mut() {
                if conn.dead {
                    continue;
                }
                progressed |= conn.flush();
                if conn.dead || conn.close_after_flush {
                    continue;
                }
                progressed |= conn.fill();
                if conn.dead {
                    continue;
                }
                // Parse pipelined requests, but never mid-stream: a parked
                // long-poll owns the response channel until it terminates.
                while conn.streaming.is_none() && !conn.close_after_flush {
                    match parse_request(&conn.rbuf, limits) {
                        Ok(ParseOutcome::Incomplete) => break,
                        Ok(ParseOutcome::Complete(req, consumed)) => {
                            conn.rbuf.drain(..consumed);
                            progressed = true;
                            state.obs.requests.inc();
                            let keep_alive = req.keep_alive;
                            match state.handle(&req) {
                                Handled::Respond {
                                    status,
                                    content_type,
                                    body,
                                    extra_headers,
                                } => {
                                    let extras: Vec<(&str, &str)> = extra_headers
                                        .iter()
                                        .map(|(n, v)| (*n, v.as_str()))
                                        .collect();
                                    conn.out.extend_from_slice(
                                        response_head(
                                            status,
                                            content_type,
                                            Some(body.len()),
                                            keep_alive,
                                            &extras,
                                        )
                                        .as_bytes(),
                                    );
                                    conn.out.extend_from_slice(&body);
                                    if !keep_alive {
                                        conn.close_after_flush = true;
                                    }
                                }
                                Handled::StartStream {
                                    user,
                                    from,
                                    max,
                                    wait,
                                } => {
                                    conn.out.extend_from_slice(
                                        response_head(
                                            200,
                                            "text/plain; charset=utf-8",
                                            None,
                                            keep_alive,
                                            &[],
                                        )
                                        .as_bytes(),
                                    );
                                    let ring = &state.rings[user as usize];
                                    let oldest =
                                        ring.items.front().map_or(ring.next_seq, |(s, _)| *s);
                                    conn.streaming = Some(StreamState {
                                        user,
                                        next_seq: from.unwrap_or(oldest),
                                        remaining: max,
                                        deadline: Instant::now() + wait,
                                    });
                                    state.obs.streams_parked.inc();
                                    if !keep_alive {
                                        conn.close_after_flush = true;
                                    }
                                }
                                Handled::Shutdown => {
                                    let body = b"shutting down\n";
                                    conn.out.extend_from_slice(
                                        response_head(
                                            200,
                                            "text/plain; charset=utf-8",
                                            Some(body.len()),
                                            false,
                                            &[],
                                        )
                                        .as_bytes(),
                                    );
                                    conn.out.extend_from_slice(body);
                                    conn.close_after_flush = true;
                                    self.shutdown.store(true, Ordering::Release);
                                }
                            }
                        }
                        Err(e) => {
                            // Malformed request: answer with the typed
                            // protocol error and close. The acceptor and
                            // the service never see it.
                            state.obs.protocol_errors.inc();
                            let body = format!("{e}\n");
                            conn.out.extend_from_slice(
                                response_head(
                                    e.status(),
                                    "text/plain; charset=utf-8",
                                    Some(body.len()),
                                    false,
                                    &[],
                                )
                                .as_bytes(),
                            );
                            conn.out.extend_from_slice(body.as_bytes());
                            conn.close_after_flush = true;
                            conn.rbuf.clear();
                            progressed = true;
                        }
                    }
                }
                // Drain new deliveries into a parked stream.
                progressed |= state.pump_stream(conn);
                progressed |= conn.flush();
            }
            state.retire_removed(&mut conns);

            // Reap finished connections and enforce the idle timeout.
            let now = Instant::now();
            let idle_timeout = self.config.idle_timeout;
            let obs = &state.obs;
            conns.retain_mut(|c| {
                let idle = c.streaming.is_none()
                    && !c.has_pending_write()
                    && now.duration_since(c.last_activity) > idle_timeout;
                if c.dead || idle {
                    if c.streaming.take().is_some() {
                        obs.streams_parked.dec();
                    }
                    if c.counted {
                        obs.connections.dec();
                    }
                    false
                } else {
                    true
                }
            });

            if self.shutdown.load(Ordering::Acquire) {
                // Grace period: flush whatever is still buffered.
                let grace = Instant::now() + Duration::from_millis(250);
                while conns.iter().any(|c| c.has_pending_write()) && Instant::now() < grace {
                    for conn in conns.iter_mut() {
                        conn.flush();
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                break;
            }

            if !progressed {
                // Nothing moved: park briefly. Long-poll deadlines bound
                // the acceptable wake-up latency, so keep it well under a
                // millisecond.
                std::thread::sleep(Duration::from_micros(300));
            }
        }

        Ok(ServeReport {
            connections_accepted: state.obs.connections_total.get(),
            connections_rejected: state.obs.connections_rejected.get(),
            requests: state.obs.requests.get(),
            posts_ingested: state.obs.posts_ingested.get(),
            deliveries_streamed: state.obs.deliveries_streamed.get(),
            deliveries_dropped: state.obs.deliveries_dropped.get(),
            protocol_errors: state.obs.protocol_errors.get(),
        })
    }
}

impl ServiceState {
    fn ensure_user_rings(&mut self, user_count: usize) {
        if self.rings.len() < user_count {
            self.rings.resize_with(user_count, UserRing::default);
        }
    }

    /// Route one parsed request.
    fn handle(&mut self, req: &Request) -> Handled {
        match (req.method, req.path.as_str()) {
            (Method::Post, "/ingest") | (Method::Post, "/ingest/batch") => self.handle_ingest(req),
            (Method::Post, "/churn") => self.handle_churn(req),
            (Method::Get, "/metrics") => self.handle_metrics(),
            (Method::Get, "/healthz") => self.handle_healthz(),
            (Method::Post, "/shutdown") => {
                if self.allow_shutdown {
                    Handled::Shutdown
                } else {
                    respond(403, "shutdown is not enabled on this server\n")
                }
            }
            (method, path) => {
                if let Some(user) = path.strip_prefix("/stream/") {
                    if method == Method::Get {
                        return self.handle_stream(user, req);
                    }
                }
                respond(404, &format!("no such endpoint: {method} {path}\n"))
            }
        }
    }

    /// `POST /ingest`: corpus TSV lines in, one decision line per sink
    /// callback out. Decisions come from the same `process_batch` call the
    /// in-process facade exposes, so they are byte-identical to it. A line
    /// that does not parse, or names an author outside the graph, refuses
    /// the whole request with 400 before any post is decided.
    fn handle_ingest(&mut self, req: &Request) -> Handled {
        let posts = match corpus::read_posts(&mut &req.body[..]) {
            Ok(posts) => posts,
            Err(e) => return respond(400, &format!("bad post line: {e}\n")),
        };
        let authors = self.service.subscriptions().author_count();
        if let Some(i) = posts.iter().position(|p| p.author as usize >= authors) {
            return respond(
                400,
                &format!(
                    "bad post line: line {}: unknown author {} (the graph has {authors} authors)\n",
                    post_line(&req.body, i),
                    posts[i].author
                ),
            );
        }
        let n_in = posts.len() as u64;
        let mut body = Vec::new();
        // Split borrows: the sink mutates the rings and counters while
        // `process_batch` holds the service.
        let Self {
            service,
            rings,
            ring_cap,
            obs,
            ..
        } = self;
        let ring_cap = *ring_cap;
        let result = service.process_batch(posts, |post, decision| {
            body.extend_from_slice(decision_line(post.id, &decision.delivered_to).as_bytes());
            if decision.delivered_to.is_empty() {
                return;
            }
            for &user in &decision.delivered_to {
                if rings.len() <= user as usize {
                    rings.resize_with(user as usize + 1, UserRing::default);
                }
                let ring = &mut rings[user as usize];
                let seq = ring.next_seq;
                ring.next_seq += 1;
                ring.items
                    .push_back((seq, Arc::new(delivery_line(seq, post))));
                if ring.items.len() > ring_cap {
                    ring.items.pop_front();
                    obs.deliveries_dropped.inc();
                }
            }
        });
        match result {
            Ok(()) => {
                self.obs.posts_ingested.add(n_in);
                Handled::Respond {
                    status: 200,
                    content_type: "text/plain; charset=utf-8",
                    body,
                    extra_headers: Vec::new(),
                }
            }
            Err(ServiceError::Overloaded { capacity }) => {
                // The posts before the refusal were still processed; their
                // decision lines ride along so the client can account for
                // them before retrying the rest, and they count as ingested
                // (one line per decided post).
                let decided = body.iter().filter(|&&b| b == b'\n').count();
                self.obs.posts_ingested.add(decided as u64);
                Handled::Respond {
                    status: 503,
                    content_type: "text/plain; charset=utf-8",
                    body,
                    extra_headers: vec![
                        ("Retry-After", "1".to_string()),
                        (
                            "X-Firehose-Error",
                            format!("overloaded capacity={capacity}"),
                        ),
                    ],
                }
            }
            Err(e) => respond(500, &format!("service error: {e}\n")),
        }
    }

    /// `POST /churn`: one [`ChurnOp`] text line per op. Syntax errors fail
    /// the whole request (400); per-op subscription errors answer per line.
    fn handle_churn(&mut self, req: &Request) -> Handled {
        let text = match std::str::from_utf8(&req.body) {
            Ok(t) => t,
            Err(e) => return respond(400, &format!("churn body is not UTF-8: {e}\n")),
        };
        let mut ops = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.parse::<ChurnOp>() {
                Ok(op) => ops.push(op),
                Err(e) => return respond(400, &format!("churn line {}: {e}\n", lineno + 1)),
            }
        }
        let mut body = String::new();
        for op in &ops {
            use std::fmt::Write as _;
            let outcome = match op {
                ChurnOp::Subscribe(u, a) => self
                    .service
                    .subscribe(*u, *a)
                    .map(|changed| format!("ok\t{changed}")),
                ChurnOp::Unsubscribe(u, a) => self
                    .service
                    .unsubscribe(*u, *a)
                    .map(|changed| format!("ok\t{changed}")),
                ChurnOp::AddUser(authors) => self
                    .service
                    .add_user(authors.iter().copied())
                    .map(|uid| format!("ok\t{uid}")),
                ChurnOp::RemoveUser(u) => self.service.remove_user(*u).map(|()| {
                    self.removed.push(*u);
                    "ok".to_string()
                }),
            };
            match outcome {
                Ok(line) => {
                    let _ = writeln!(body, "{line}");
                }
                Err(e) => {
                    let _ = writeln!(body, "err\t{e}");
                }
            }
        }
        self.ensure_user_rings(self.service.subscriptions().user_count());
        respond(200, &body)
    }

    /// `GET /stream/<user>`: begin a chunked long-poll.
    fn handle_stream(&mut self, user: &str, req: &Request) -> Handled {
        let Ok(user) = user.parse::<u32>() else {
            return respond(400, &format!("bad user id {user:?}\n"));
        };
        let subs = self.service.subscriptions();
        if (user as usize) >= subs.user_count() {
            return respond(404, &format!("no such user {user}\n"));
        }
        if !subs.is_active(user) {
            return respond(404, &format!("user {user} was removed\n"));
        }
        let from = match req.query_value("from") {
            None => None,
            Some(v) => match v.parse::<u64>() {
                Ok(n) => Some(n),
                Err(e) => return respond(400, &format!("bad from={v:?}: {e}\n")),
            },
        };
        let max = match req.query_parse_or("max", 100usize) {
            Ok(v) => v.max(1),
            Err(e) => return respond(e.status(), &format!("{e}\n")),
        };
        let wait_ms = match req.query_parse_or("wait_ms", 0u64) {
            Ok(v) => v.min(60_000),
            Err(e) => return respond(e.status(), &format!("{e}\n")),
        };
        self.ensure_user_rings(user as usize + 1);
        Handled::StartStream {
            user,
            from,
            max,
            wait: Duration::from_millis(wait_ms),
        }
    }

    /// `GET /metrics`: refresh the exported snapshots and render.
    fn handle_metrics(&mut self) -> Handled {
        firehose_core::export_kernel_info(&self.registry);
        // The multi-user engine runs exact memory only.
        firehose_core::export_memory_mode(&self.registry, &firehose_core::MemoryMode::Exact, None);
        firehose_core::export_engine_metrics(
            &self.registry,
            &self.service.name(),
            &self.service.metrics(),
        );
        if let Some(stats) = self.service.guard_stats() {
            firehose_core::export_guard_stats(&self.registry, "serve", stats);
        }
        let text = self.registry.render_prometheus();
        Handled::Respond {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: text.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// `GET /healthz`: a JSON health document.
    fn handle_healthz(&mut self) -> Handled {
        let o = self.service.overload_stats();
        let c = self.service.churn_stats();
        let body = format!(
            "{{\"status\":\"ok\",\"strategy\":{},\"users\":{},\"active_users\":{},\
             \"uptime_ms\":{},\"connections\":{},\"shed\":{},\"rejected\":{},\
             \"rate_limited\":{},\"churn_ops\":{},\"posts_ingested\":{}}}\n",
            json_str(&self.service.name()),
            self.service.subscriptions().user_count(),
            self.service.subscriptions().active_user_count(),
            self.started.elapsed().as_millis(),
            self.obs.connections.get(),
            o.shed,
            o.rejected,
            o.rate_limited,
            c.ops_total(),
            self.obs.posts_ingested.get(),
        );
        Handled::Respond {
            status: 200,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// A removed user never gets another delivery: hand its parked readers
    /// what is already queued, end those streams now rather than at their
    /// deadline, and free the ring.
    fn retire_removed(&mut self, conns: &mut [Conn]) {
        for user in std::mem::take(&mut self.removed) {
            for conn in conns.iter_mut() {
                match &mut conn.streaming {
                    Some(ss) if ss.user == user => ss.deadline = Instant::now(),
                    _ => continue,
                }
                self.pump_stream(conn);
                conn.flush();
            }
            if let Some(ring) = self.rings.get_mut(user as usize) {
                ring.items = VecDeque::new();
            }
        }
    }

    /// Move ready deliveries into a parked stream; terminate it when the
    /// item budget or the deadline runs out.
    fn pump_stream(&mut self, conn: &mut Conn) -> bool {
        let Some(ss) = &mut conn.streaming else {
            return false;
        };
        let mut progressed = false;
        if let Some(ring) = self.rings.get(ss.user as usize) {
            // Readers that fell behind the ring restart at the oldest
            // retained delivery (the skip is visible in the seq column).
            if let Some((oldest, _)) = ring.items.front() {
                if ss.next_seq < *oldest {
                    ss.next_seq = *oldest;
                }
            }
            while ss.remaining > 0 {
                let Some((front_seq, _)) = ring.items.front() else {
                    break;
                };
                let idx = (ss.next_seq - front_seq) as usize;
                let Some((seq, line)) = ring.items.get(idx) else {
                    break;
                };
                debug_assert_eq!(*seq, ss.next_seq);
                push_chunk(&mut conn.out, line);
                self.obs.deliveries_streamed.inc();
                ss.next_seq += 1;
                ss.remaining -= 1;
                progressed = true;
            }
        }
        if ss.remaining == 0 || Instant::now() >= ss.deadline {
            conn.out.extend_from_slice(TERMINAL_CHUNK);
            conn.streaming = None;
            self.obs.streams_parked.dec();
            progressed = true;
        }
        progressed
    }
}

fn respond(status: u16, body: &str) -> Handled {
    Handled::Respond {
        status,
        content_type: if body.starts_with('{') {
            "application/json"
        } else {
            "text/plain; charset=utf-8"
        },
        body: body.as_bytes().to_vec(),
        extra_headers: Vec::new(),
    }
}

/// The 1-based body line that held the `index`-th post `corpus::read_posts`
/// returned: it skips the same empty and `#` lines.
fn post_line(body: &[u8], index: usize) -> usize {
    body.split(|&b| b == b'\n')
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .enumerate()
        .filter(|(_, line)| !line.is_empty() && !line.starts_with(b"#"))
        .nth(index)
        .map_or(0, |(i, _)| i + 1)
}

/// Minimal JSON string literal (the health document embeds strategy names).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
