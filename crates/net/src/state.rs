//! The decide thread's state, with no sockets: the service, the per-user
//! delivery rings and the parked `/stream` long-polls. A response goes out
//! as bytes on the request's reply channel, for the connection thread to
//! write: one message, or a stream's head, delivery batches and terminal
//! chunk, after which the channel is dropped.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use firehose_core::service::{ChurnOp, FirehoseService, ServiceError};
use firehose_obs::{labels, Counter, Gauge, Registry};

use crate::http::{push_chunk, response, Method, Request, TERMINAL_CHUNK, TEXT};
use crate::server::{decision_line, delivery_line, ServeReport, ServerConfig};

/// Where one request's response goes: each message is written to the
/// connection as is, and dropping the sender ends the response.
pub(crate) type Reply = Sender<Vec<u8>>;

/// Serving instruments, registered under `firehose_net_*`. Every field is
/// a shared handle, so the acceptor and the connection threads update the
/// connection counters directly.
#[derive(Clone)]
pub(crate) struct ServerObs {
    pub(crate) connections: Gauge,
    pub(crate) connections_total: Counter,
    pub(crate) connections_rejected: Counter,
    requests: Counter,
    pub(crate) protocol_errors: Counter,
    posts_ingested: Counter,
    deliveries_streamed: Counter,
    deliveries_dropped: Counter,
    streams_parked: Gauge,
}

impl ServerObs {
    pub(crate) fn register(registry: &Registry) -> Self {
        let counter = |name, help| registry.counter(name, help, labels(&[]));
        let gauge = |name, help| registry.gauge(name, help, labels(&[]));
        Self {
            connections: gauge("firehose_net_connections", "Connections currently open"),
            connections_total: counter(
                "firehose_net_connections_total",
                "Connections accepted since start",
            ),
            connections_rejected: counter(
                "firehose_net_connections_rejected_total",
                "Connections refused by the max_connections cap",
            ),
            requests: counter("firehose_net_requests_total", "HTTP requests handled"),
            protocol_errors: counter(
                "firehose_net_protocol_errors_total",
                "Malformed requests answered with a protocol error",
            ),
            posts_ingested: counter(
                "firehose_net_posts_ingested_total",
                "Posts admitted into the service over the wire",
            ),
            deliveries_streamed: counter(
                "firehose_net_deliveries_streamed_total",
                "Delivery lines written to stream readers",
            ),
            deliveries_dropped: counter(
                "firehose_net_deliveries_dropped_total",
                "Deliveries evicted from full per-user rings",
            ),
            streams_parked: gauge(
                "firehose_net_streams_parked",
                "Long-poll stream requests currently parked",
            ),
        }
    }

    /// The run's totals.
    pub(crate) fn report(&self) -> ServeReport {
        ServeReport {
            connections_accepted: self.connections_total.get(),
            connections_rejected: self.connections_rejected.get(),
            requests: self.requests.get(),
            posts_ingested: self.posts_ingested.get(),
            deliveries_streamed: self.deliveries_streamed.get(),
            deliveries_dropped: self.deliveries_dropped.get(),
            protocol_errors: self.protocol_errors.get(),
        }
    }
}

/// Recent deliveries for one user: contiguous sequence numbers, bounded
/// length, shared formatted lines.
#[derive(Default)]
struct UserRing {
    /// Sequence number the *next* delivery will get.
    next_seq: u64,
    /// `(seq, corpus line)` pairs, seq strictly ascending and contiguous.
    items: VecDeque<(u64, Arc<Vec<u8>>)>,
}

/// A `/stream` long-poll waiting for deliveries.
struct Parked {
    user: u32,
    next_seq: u64,
    remaining: usize,
    deadline: Instant,
    reply: Reply,
}

impl Parked {
    /// Send `out` followed by the ring's ready deliveries, and the terminal
    /// chunk once the item budget or the deadline has run out. Returns
    /// whether the stream stays parked: not when it ended, nor when its
    /// connection is gone.
    fn advance(
        &mut self,
        mut out: Vec<u8>,
        ring: &UserRing,
        obs: &ServerObs,
        now: Instant,
    ) -> bool {
        // Readers that fell behind the ring restart at the oldest retained
        // delivery (the skip is visible in the seq column).
        if let Some((oldest, _)) = ring.items.front() {
            self.next_seq = self.next_seq.max(*oldest);
            while self.remaining > 0 {
                let idx = (self.next_seq - oldest) as usize;
                let Some((seq, line)) = ring.items.get(idx) else {
                    break;
                };
                debug_assert_eq!(*seq, self.next_seq);
                push_chunk(&mut out, line);
                obs.deliveries_streamed.inc();
                self.next_seq += 1;
                self.remaining -= 1;
            }
        }
        let ended = self.remaining == 0 || now >= self.deadline;
        if ended {
            out.extend_from_slice(TERMINAL_CHUNK);
        }
        let connected = out.is_empty() || self.reply.send(out).is_ok();
        let parked = connected && !ended;
        if !parked {
            obs.streams_parked.dec();
        }
        parked
    }
}

/// Everything the decide thread owns.
pub(crate) struct ServiceState {
    service: FirehoseService,
    rings: Vec<UserRing>,
    ring_cap: usize,
    parked: Vec<Parked>,
    registry: Arc<Registry>,
    obs: ServerObs,
    started: Instant,
    allow_shutdown: bool,
}

/// A complete response: status, content type, body.
type Response = (u16, &'static str, Vec<u8>);

impl ServiceState {
    pub(crate) fn new(
        service: FirehoseService,
        registry: Arc<Registry>,
        obs: ServerObs,
        config: &ServerConfig,
    ) -> Self {
        let mut state = Self {
            service,
            rings: Vec::new(),
            ring_cap: config.stream_buffer.max(1),
            parked: Vec::new(),
            registry,
            obs,
            started: Instant::now(),
            allow_shutdown: config.allow_shutdown,
        };
        state.ensure_user_rings(state.service.subscriptions().user_count());
        state
    }

    /// Answer one request on `reply`, at time `now`. Returns `false` when
    /// the request stops the server.
    pub(crate) fn handle(&mut self, req: &Request, reply: Reply, now: Instant) -> bool {
        self.obs.requests.inc();
        let (status, content_type, body) = match (req.method, req.path.as_str()) {
            (Method::Post, "/ingest" | "/ingest/batch") => self.handle_ingest(req),
            (Method::Post, "/churn") => self.handle_churn(req, now),
            (Method::Get, "/metrics") => self.handle_metrics(),
            (Method::Get, "/healthz") => self.handle_healthz(),
            (Method::Post, "/shutdown") if self.allow_shutdown => {
                let _ = reply.send(response(200, TEXT, Some(b"shutting down\n"), false, &[]));
                return false;
            }
            (Method::Post, "/shutdown") => respond(403, "shutdown is not enabled on this server\n"),
            (Method::Get, path) if path.starts_with("/stream/") => {
                match self.handle_stream(&path["/stream/".len()..], req, &reply, now) {
                    Ok(()) => return true,
                    Err(refused) => refused,
                }
            }
            (method, path) => respond(404, &format!("no such endpoint: {method} {path}\n")),
        };
        let _ = reply.send(response(
            status,
            content_type,
            Some(&body),
            req.keep_alive,
            &[],
        ));
        // The response is complete: let its connection move on at once.
        drop(reply);
        // New deliveries, and deadlines that passed while requests kept
        // the decide thread busy.
        self.pump(now);
        true
    }

    /// The earliest parked-stream deadline, if any stream is parked.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.parked.iter().map(|p| p.deadline).min()
    }

    /// Send every parked stream what its ring holds, and end the streams
    /// whose budget or deadline ran out or whose connection is gone.
    pub(crate) fn pump(&mut self, now: Instant) {
        let Self {
            parked, rings, obs, ..
        } = self;
        parked.retain_mut(|p| p.advance(Vec::new(), &rings[p.user as usize], obs, now));
    }

    /// Graceful stop: decide what the guard still holds and take a final
    /// checkpoint when the service has a checkpoint directory. The parked
    /// streams are dropped: their connections close without a terminal
    /// chunk.
    pub(crate) fn finish(mut self) -> Result<(), ServiceError> {
        self.service.flush(|_, _| {})?;
        match self.service.checkpoint_now() {
            Ok(_) | Err(ServiceError::NoCheckpointDir) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn ensure_user_rings(&mut self, user_count: usize) {
        if self.rings.len() < user_count {
            self.rings.resize_with(user_count, UserRing::default);
        }
    }

    /// `POST /ingest`: corpus TSV lines in, one decision line per sink
    /// callback out. Decisions come from the same `process_batch` call the
    /// in-process facade exposes, so they are byte-identical to it. A line
    /// that does not parse, or names an author outside the graph, refuses
    /// the whole request with 400 before any post is decided.
    fn handle_ingest(&mut self, req: &Request) -> Response {
        let posts = match firehose_stream::corpus::read_posts(&mut &req.body[..]) {
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
                (200, TEXT, body)
            }
            Err(e) => respond(500, &format!("service error: {e}\n")),
        }
    }

    /// `POST /churn`: one [`ChurnOp`] text line per op. Syntax errors fail
    /// the whole request (400); per-op subscription errors answer per line.
    fn handle_churn(&mut self, req: &Request, now: Instant) -> Response {
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
        let mut removed = Vec::new();
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
                    removed.push(*u);
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
        self.retire(&removed, now);
        respond(200, &body)
    }

    /// Removed users never get another delivery: hand their parked readers
    /// what is already queued, end those streams now rather than at their
    /// deadline, and free the rings.
    fn retire(&mut self, removed: &[u32], now: Instant) {
        if removed.is_empty() {
            return;
        }
        for stream in &mut self.parked {
            if removed.contains(&stream.user) {
                stream.deadline = now;
            }
        }
        self.pump(now);
        for &user in removed {
            self.rings[user as usize].items = VecDeque::new();
        }
    }

    /// `GET /stream/<user>`: begin a chunked long-poll on `reply`, or
    /// refuse it.
    fn handle_stream(
        &mut self,
        user: &str,
        req: &Request,
        reply: &Reply,
        now: Instant,
    ) -> Result<(), Response> {
        let Ok(user) = user.parse::<u32>() else {
            return Err(respond(400, &format!("bad user id {user:?}\n")));
        };
        let subs = self.service.subscriptions();
        if (user as usize) >= subs.user_count() {
            return Err(respond(404, &format!("no such user {user}\n")));
        }
        if !subs.is_active(user) {
            return Err(respond(404, &format!("user {user} was removed\n")));
        }
        let from = match req.query_value("from") {
            None => None,
            Some(v) => match v.parse::<u64>() {
                Ok(n) => Some(n),
                Err(e) => return Err(respond(400, &format!("bad from={v:?}: {e}\n"))),
            },
        };
        let max = match req.query_parse_or("max", 100usize) {
            Ok(v) => v.max(1),
            Err(e) => return Err(respond(e.status(), &format!("{e}\n"))),
        };
        let wait_ms = match req.query_parse_or("wait_ms", 0u64) {
            Ok(v) => v.min(60_000),
            Err(e) => return Err(respond(e.status(), &format!("{e}\n"))),
        };
        self.ensure_user_rings(user as usize + 1);
        let ring = &self.rings[user as usize];
        let mut stream = Parked {
            user,
            next_seq: from.unwrap_or(ring.items.front().map_or(ring.next_seq, |(s, _)| *s)),
            remaining: max,
            deadline: now + Duration::from_millis(wait_ms),
            reply: reply.clone(),
        };
        self.obs.streams_parked.inc();
        let head = response(200, TEXT, None, req.keep_alive, &[]);
        if stream.advance(head, ring, &self.obs, now) {
            self.parked.push(stream);
        }
        Ok(())
    }

    /// `GET /metrics`: refresh the exported snapshots and render.
    fn handle_metrics(&mut self) -> Response {
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
        let content_type = "text/plain; version=0.0.4; charset=utf-8";
        (200, content_type, text.into_bytes())
    }

    /// `GET /healthz`: a JSON health document.
    fn handle_healthz(&mut self) -> Response {
        let c = self.service.churn_stats();
        let body = format!(
            "{{\"status\":\"ok\",\"strategy\":{},\"users\":{},\"active_users\":{},\
             \"uptime_ms\":{},\"connections\":{},\"rate_limited\":{},\
             \"churn_ops\":{},\"posts_ingested\":{}}}\n",
            json_str(&self.service.name()),
            self.service.subscriptions().user_count(),
            self.service.subscriptions().active_user_count(),
            self.started.elapsed().as_millis(),
            self.obs.connections.get(),
            self.service.rate_limited(),
            c.ops_total(),
            self.obs.posts_ingested.get(),
        );
        (200, "application/json", body.into_bytes())
    }
}

fn respond(status: u16, body: &str) -> Response {
    let content_type = if body.starts_with('{') {
        "application/json"
    } else {
        TEXT
    };
    (status, content_type, body.as_bytes().to_vec())
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Receiver};

    use firehose_core::multi::Subscriptions;
    use firehose_core::{EngineConfig, Thresholds};
    use firehose_graph::UndirectedGraph;
    use firehose_stream::{corpus, Post};

    use crate::http::{parse_request, ParseLimits, ParseOutcome};

    /// Two unrelated authors; user 0 follows author 0, user 1 author 1.
    fn state(stream_buffer: usize) -> ServiceState {
        let graph = UndirectedGraph::from_edges(2, []);
        let subs = Subscriptions::new(2, [vec![0], vec![1]]).unwrap();
        let service = FirehoseService::builder(&graph, subs)
            .engine_config(EngineConfig::new(Thresholds::new(18, 30_000, 0.7).unwrap()))
            .build()
            .unwrap();
        let registry = Arc::new(Registry::new());
        let obs = ServerObs::register(&registry);
        let config = ServerConfig {
            stream_buffer,
            ..ServerConfig::default()
        };
        ServiceState::new(service, registry, obs, &config)
    }

    fn request(head: &str, body: &[u8]) -> Request {
        let mut raw =
            format!("{head} HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
        raw.extend_from_slice(body);
        match parse_request(&raw, ParseLimits::default()).unwrap() {
            ParseOutcome::Complete(req, _) => req,
            ParseOutcome::Incomplete => panic!("incomplete: {head}"),
        }
    }

    /// Answer `head` at `now`; the receiver sees the response's messages.
    fn send(state: &mut ServiceState, head: &str, body: &[u8], now: Instant) -> Receiver<Vec<u8>> {
        let (reply, replies) = mpsc::channel();
        assert!(state.handle(&request(head, body), reply, now));
        replies
    }

    /// `n` posts by author 0, a minute apart (beyond λt), so each is
    /// delivered to user 0.
    fn ingest(state: &mut ServiceState, first_id: u64, n: u64, now: Instant) {
        let posts: Vec<Post> = (first_id..first_id + n)
            .map(|id| Post::new(id, 0, id * 60_000, format!("post {id}")))
            .collect();
        let mut body = Vec::new();
        corpus::write_posts(&posts, &mut body).unwrap();
        let resp = send(state, "POST /ingest", &body, now).recv().unwrap();
        assert!(resp.starts_with(b"HTTP/1.1 200"), "{resp:?}");
    }

    /// The sequence numbers of the delivery chunks in `bytes`.
    fn seqs(bytes: &[u8]) -> Vec<u64> {
        String::from_utf8_lossy(bytes)
            .split("\r\n")
            .filter_map(|part| part.split_once('\t')?.0.parse().ok())
            .collect()
    }

    #[test]
    fn ring_overflow_drops_the_oldest_delivery() {
        let now = Instant::now();
        let mut state = state(2);
        ingest(&mut state, 1, 3, now);
        let ring = &state.rings[0];
        assert_eq!(ring.next_seq, 3);
        assert_eq!(
            ring.items.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(state.obs.deliveries_dropped.get(), 1);
        assert!(state.rings[1].items.is_empty(), "user 1 follows author 1");
    }

    #[test]
    fn lagging_reader_restarts_at_the_oldest_retained_seq() {
        let now = Instant::now();
        let mut state = state(2);
        ingest(&mut state, 1, 3, now);
        let replies = send(&mut state, "GET /stream/0?from=0", b"", now);
        let bytes: Vec<u8> = replies.iter().flatten().collect();
        assert!(bytes.ends_with(TERMINAL_CHUNK));
        assert_eq!(seqs(&bytes), [1, 2]);
        assert_eq!(state.obs.deliveries_streamed.get(), 2);
    }

    #[test]
    fn from_beyond_next_seq_waits() {
        let now = Instant::now();
        let mut state = state(8);
        ingest(&mut state, 1, 1, now);
        let replies = send(&mut state, "GET /stream/0?from=3&wait_ms=1000", b"", now);
        let head = replies.try_recv().unwrap();
        assert!(head.starts_with(b"HTTP/1.1 200"));
        assert!(replies.try_recv().is_err(), "seq 3 does not exist yet");
        assert_eq!(state.obs.streams_parked.get(), 1);

        ingest(&mut state, 2, 2, now);
        assert!(
            replies.try_recv().is_err(),
            "seqs 1 and 2 are before from=3"
        );
        ingest(&mut state, 4, 1, now);
        assert_eq!(seqs(&replies.try_recv().unwrap()), [3]);
        assert_eq!(state.obs.streams_parked.get(), 1, "still within wait_ms");
    }

    #[test]
    fn parked_stream_ends_at_its_deadline_with_the_terminal_chunk() {
        let now = Instant::now();
        let mut state = state(8);
        let replies = send(&mut state, "GET /stream/1?wait_ms=100", b"", now);
        assert!(replies.try_recv().unwrap().starts_with(b"HTTP/1.1 200"));
        let deadline = now + Duration::from_millis(100);
        assert_eq!(state.next_deadline(), Some(deadline));
        assert_eq!(state.obs.streams_parked.get(), 1);

        state.pump(deadline - Duration::from_millis(1));
        assert!(
            replies.try_recv().is_err(),
            "still parked before the deadline"
        );
        state.pump(deadline);
        assert_eq!(replies.try_recv().unwrap(), TERMINAL_CHUNK);
        assert!(
            replies.recv().is_err(),
            "the reply channel closes after the terminal chunk"
        );
        assert_eq!(state.obs.streams_parked.get(), 0);
        assert_eq!(state.next_deadline(), None);
    }
}
