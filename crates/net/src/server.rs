//! The firehose network front end: blocking sockets on plain threads, one
//! thread deciding.
//!
//! - **The acceptor** blocks in `accept` and starts a thread per
//!   connection, or answers 503 past [`ServerConfig::max_connections`].
//! - **A connection thread** blocks on its socket (read timeout
//!   [`ServerConfig::idle_timeout`] while it waits for a request), answers
//!   protocol errors itself, and hands each complete request to the decide
//!   thread with a reply channel. It writes the whole reply before it parses
//!   the next pipelined request.
//! - **The decide thread**, the caller of [`Server::serve`], owns the
//!   [`FirehoseService`], the rings and the parked streams (the `state`
//!   module) and no socket. It blocks until the next request or the
//!   earliest stream deadline, and decides requests one at a time in
//!   arrival order through the same `process_batch` call as in process, so
//!   wire decisions are byte-identical to the facade's.
//!
//! ## Endpoints
//!
//! | Endpoint | Method | Body / response |
//! |---|---|---|
//! | `/ingest` (alias `/ingest/batch`) | POST | corpus TSV post lines in; one `<post_id>\t<u1,u2,...|->` decision line out per admitted post |
//! | `/churn` | POST | [`ChurnOp`](firehose_core::service::ChurnOp) text lines in; `ok[\t<detail>]` or `err\t<reason>` per line out |
//! | `/stream/<user>` | GET | chunked long-poll of `<seq>\t<id>\t<author>\t<ts>\t<text>` delivery lines; `?from=<seq>&max=<n>&wait_ms=<t>` |
//! | `/metrics` | GET | Prometheus text exposition (engine + guard + connection instruments) |
//! | `/healthz` | GET | JSON health document |
//! | `/shutdown` | POST | stops the server (only with [`ServerConfig::allow_shutdown`]) |
//!
//! Backpressure: the service's per-author rate limiter per post, the
//! connection cap and request size caps per connection, and ring eviction
//! per reader ([`ServerConfig`]; DESIGN.md §12).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use firehose_core::service::{FirehoseService, ServiceError};
use firehose_obs::{Counter, Registry};
use firehose_stream::{corpus, Post};

use crate::http::{parse_request, response, ParseLimits, ParseOutcome, Request, TEXT};
use crate::state::{Reply, ServerObs, ServiceState};

/// How long connection threads get to finish their writes once the server
/// stops, before their sockets are shut down.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(250);

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
    /// The checkpoint taken on graceful shutdown failed.
    FinalCheckpoint(ServiceError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bind { addr, source } => write!(f, "cannot listen on {addr}: {source}"),
            Self::FinalCheckpoint(e) => write!(f, "final checkpoint failed: {e}"),
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
    /// A connection waiting this long for its next request is closed.
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

/// Stops a running [`Server::serve`].
#[derive(Clone)]
pub struct ShutdownHandle(Sender<Msg>);

impl ShutdownHandle {
    /// Ask `serve` to stop. It lets connections finish their writes for a
    /// short grace, closes them, and returns.
    pub fn shutdown(&self) {
        let _ = self.0.send(Msg::Shutdown);
    }
}

/// What the decide thread receives.
enum Msg {
    /// A complete request from a connection thread, and where its response
    /// goes.
    Request(Request, Reply),
    /// [`ShutdownHandle::shutdown`].
    Shutdown,
}

/// A bound, not-yet-serving firehose front end. Bind first (so tests can
/// learn the ephemeral port), then [`serve`](Server::serve).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    requests: Sender<Msg>,
    inbox: Receiver<Msg>,
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
        let local = listener.local_addr().map_err(fail)?;
        let (requests, inbox) = mpsc::channel();
        Ok(Self {
            listener,
            addr: local,
            config,
            requests,
            inbox,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that stops [`serve`](Server::serve) from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(self.requests.clone())
    }

    /// Serve until shut down (via [`ShutdownHandle`] or an authorized
    /// `POST /shutdown`). The calling thread becomes the decide thread and
    /// consumes the service: all ingest, churn and streaming flows through
    /// it. On the way out it decides what the service's guard still holds
    /// and, when the service has a checkpoint directory, takes a final
    /// checkpoint. Every thread `serve` started has ended when it returns.
    pub fn serve(
        self,
        service: FirehoseService,
        registry: Arc<Registry>,
    ) -> Result<ServeReport, NetError> {
        let obs = ServerObs::register(&registry);
        let conns = Arc::new(Conns::default());
        let acceptor = {
            let (obs, conns, requests) = (obs.clone(), Arc::clone(&conns), self.requests);
            let (listener, config) = (self.listener, self.config.clone());
            thread::spawn(move || accept_loop(&listener, &config, &obs, &conns, &requests))
        };

        let mut state = ServiceState::new(service, registry, obs.clone(), &self.config);
        decide(&mut state, &self.inbox);
        // Requests still queued, and the parked streams, are dropped with
        // their reply channels: their connections close unanswered.
        drop(self.inbox);
        let finished = state.finish();

        conns.lock().stopping = true;
        conns.changed.notify_all();
        // Wake the acceptor out of `accept`.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            let loopback: IpAddr = match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            wake.set_ip(loopback);
        }
        let _ = TcpStream::connect(wake);
        join(acceptor);

        finished.map_err(NetError::FinalCheckpoint)?;
        Ok(obs.report())
    }
}

/// The decide loop: answer requests in arrival order; between them, end
/// parked streams at their deadlines. Returns when told to stop.
fn decide(state: &mut ServiceState, inbox: &Receiver<Msg>) {
    loop {
        let msg = match state.next_deadline() {
            Some(deadline) => {
                inbox.recv_timeout(deadline.saturating_duration_since(Instant::now()))
            }
            None => inbox.recv().map_err(RecvTimeoutError::from),
        };
        match msg {
            Ok(Msg::Request(req, reply)) => {
                if !state.handle(&req, reply, Instant::now()) {
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => state.pump(Instant::now()),
            Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The open connections' sockets, shared by the acceptor, the connection
/// threads and `serve`; `changed` is signalled when a connection closes
/// and when the server stops.
#[derive(Default)]
struct Conns {
    state: Mutex<Open>,
    changed: Condvar,
}

#[derive(Default)]
struct Open {
    sockets: HashMap<u64, Arc<TcpStream>>,
    next_id: u64,
    stopping: bool,
}

impl Conns {
    /// Every update of [`Open`] is one step that leaves it valid, so a
    /// guard poisoned by a panicking thread is still good to use.
    fn lock(&self) -> MutexGuard<'_, Open> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Join a thread `serve` started. A panic there is a bug in this crate, so
/// it carries on in the joining thread.
fn join(thread: JoinHandle<()>) {
    if let Err(panic) = thread.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Accept until `serve` stops, then close every connection: shut the read
/// sides so idle readers wake, give writers [`SHUTDOWN_GRACE`] to finish,
/// shut the sockets down and join the threads.
fn accept_loop(
    listener: &TcpListener,
    config: &ServerConfig,
    obs: &ServerObs,
    conns: &Arc<Conns>,
    requests: &Sender<Msg>,
) {
    let limits = ParseLimits {
        max_header_bytes: config.max_header_bytes,
        max_body_bytes: config.max_body_bytes,
    };
    // The socket refuses a zero read timeout; the smallest one closes an
    // idle connection at once.
    let idle_timeout = config.idle_timeout.max(Duration::from_nanos(1));
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        let mut open = conns.lock();
        if open.stopping {
            break;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            // Out of descriptors (EMFILE): accepting again at once would
            // spin, so wait until one of ours closes.
            Err(_) => {
                let n = open.sockets.len();
                drop(
                    conns
                        .changed
                        .wait_while(open, |o| o.sockets.len() == n && n > 0 && !o.stopping),
                );
                continue;
            }
        };
        obs.connections_total.inc();
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(idle_timeout));
        if open.sockets.len() >= config.max_connections {
            drop(open);
            obs.connections_rejected.inc();
            let body = b"connection limit reached\n";
            let retry = [("Retry-After", "1")];
            let _ = (&stream).write_all(&response(503, TEXT, Some(body), false, &retry));
            continue;
        }
        let stream = Arc::new(stream);
        let id = open.next_id;
        open.next_id += 1;
        open.sockets.insert(id, Arc::clone(&stream));
        drop(open);
        obs.connections.inc();
        let (conns, obs, requests) = (Arc::clone(conns), obs.clone(), requests.clone());
        threads.extract_if(.., |t| t.is_finished()).for_each(join);
        threads.push(thread::spawn(move || {
            connection(&stream, &requests, limits, &obs.protocol_errors);
            // Dropping the last handle on the socket closes it.
            conns.lock().sockets.remove(&id);
            obs.connections.dec();
            conns.changed.notify_all();
        }));
    }

    let open = conns.lock();
    for socket in open.sockets.values() {
        let _ = socket.shutdown(Shutdown::Read);
    }
    let open = conns
        .changed
        .wait_timeout_while(open, SHUTDOWN_GRACE, |o| !o.sockets.is_empty())
        .map_or_else(|e| e.into_inner().0, |(open, _)| open);
    for socket in open.sockets.values() {
        let _ = socket.shutdown(Shutdown::Both);
    }
    drop(open);
    threads.into_iter().for_each(join);
}

/// One connection: read a request, hand it to the decide thread, write
/// what comes back, repeat. Protocol errors are answered here and close the
/// connection; the service never sees them.
fn connection(
    mut stream: &TcpStream,
    requests: &Sender<Msg>,
    limits: ParseLimits,
    protocol_errors: &Counter,
) {
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    loop {
        let (req, consumed) = match parse_request(&buf, limits) {
            Ok(ParseOutcome::Complete(req, consumed)) => (req, consumed),
            Ok(ParseOutcome::Incomplete) => match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Idle timeout, reset, or the server shutting down.
                Err(_) => return,
            },
            Err(e) => {
                protocol_errors.inc();
                let body = format!("{e}\n");
                let _ = stream.write_all(&response(
                    e.status(),
                    TEXT,
                    Some(body.as_bytes()),
                    false,
                    &[],
                ));
                return;
            }
        };
        buf.drain(..consumed);
        let keep_alive = req.keep_alive;
        let (reply, replies) = mpsc::channel();
        if requests.send(Msg::Request(req, reply)).is_err() {
            return;
        }
        for bytes in replies {
            if stream.write_all(&bytes).is_err() {
                return;
            }
        }
        if !keep_alive {
            return;
        }
    }
}
