//! Loopback integration tests for the TCP/HTTP serving layer.
//!
//! The load-bearing assertion: the decision stream a client reads over a
//! **real socket** is byte-identical to what an identically-configured
//! in-process [`FirehoseService`] emits for the same trace — ingest, churn
//! ops, and per-user streamed deliveries included, against `shared` and its
//! `sharded:2` spelling. Plus a fuzz case: malformed, truncated, and
//! oversized requests get typed protocol errors and cost the peer its
//! connection, never the server; an `/ingest` naming an author outside the
//! graph is refused whole; a rate-limited `/ingest` burst answers 200 and
//! drops exactly what the in-process limiter drops; and the shedding paths:
//! the connection cap and a user removed under a parked reader.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use firehose::core::multi::Subscriptions;
use firehose::core::service::{FirehoseService, StrategyKind};
use firehose::core::{EngineConfig, Thresholds};
use firehose::graph::UndirectedGraph;
use firehose::net::server::{decision_line, delivery_line};
use firehose::net::{HttpClient, Server, ServerConfig};
use firehose::obs::Registry;
use firehose::stream::{corpus, Post};

const AUTHORS: usize = 10;

fn graph() -> UndirectedGraph {
    UndirectedGraph::from_edges(AUTHORS, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)])
}

fn subscriptions() -> Subscriptions {
    Subscriptions::new(
        AUTHORS,
        [vec![0, 1, 2], vec![2, 3, 4], vec![5, 6, 7, 8], vec![0, 9]],
    )
    .unwrap()
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(Thresholds::new(18, 30_000, 0.7).unwrap())
}

fn service(strategy: StrategyKind) -> FirehoseService {
    let graph = graph();
    FirehoseService::builder(&graph, subscriptions())
        .strategy(strategy)
        .engine_config(engine_config())
        .build()
        .unwrap()
}

/// A deterministic little trace: enough text variety that some posts are
/// suppressed as near-duplicates and some delivered, across all users.
fn posts() -> Vec<Post> {
    let texts = [
        "breaking news about the big game tonight",
        "breaking news about the big game tonight!!",
        "my cat discovered a sunbeam this morning",
        "thoughts on the new compiler release candidate",
        "the big game tonight was truly something else",
        "a completely unrelated musing on sourdough starters",
        "my cat discovered a sunbeam this morning again",
        "compiler release candidate notes, part two",
    ];
    (0..32u64)
        .map(|i| {
            Post::new(
                i + 1,
                (i % AUTHORS as u64) as u32,
                i * 2_000,
                texts[i as usize % texts.len()].to_string(),
            )
        })
        .collect()
}

/// Churn applied mid-trace, in `ChurnOp` text form (`POST /churn` body).
const CHURN: &str = "subscribe\t3\t5\nadd-user\t1,4,9\nunsubscribe\t0\t1\n";

fn boot(strategy: StrategyKind) -> (SocketAddr, firehose::net::ShutdownHandle, ServerJoin) {
    boot_with(
        ServerConfig {
            allow_shutdown: true,
            ..ServerConfig::default()
        },
        service(strategy),
    )
}

fn boot_with(
    config: ServerConfig,
    svc: FirehoseService,
) -> (SocketAddr, firehose::net::ShutdownHandle, ServerJoin) {
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let registry = Arc::new(Registry::new());
    let join = std::thread::spawn(move || server.serve(svc, registry));
    (addr, handle, join)
}

/// The current value of an unlabelled series on `/metrics`.
fn metric(client: &mut HttpClient, name: &str) -> u64 {
    let text = client.request("GET", "/metrics", b"").unwrap().text();
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no series {name} in:\n{text}"))
}

type ServerJoin =
    std::thread::JoinHandle<Result<firehose::net::ServeReport, firehose::net::NetError>>;

/// Drive the full wire session against `strategy` and assert byte-identity
/// with the in-process facade on the same trace.
fn assert_wire_matches_in_process(strategy: StrategyKind) {
    let posts = posts();
    let split = posts.len() / 2;

    // In-process reference: same batches, same churn position.
    let mut reference = service(strategy);
    let mut expected_decisions = String::new();
    let mut expected_deliveries: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 8];
    let mut sink = |post: &Post, d: &firehose::core::multi::MultiDecision| {
        expected_decisions.push_str(&decision_line(post.id, &d.delivered_to));
        for &u in &d.delivered_to {
            let ring = &mut expected_deliveries[u as usize];
            ring.push(delivery_line(ring.len() as u64, post));
        }
    };
    reference
        .process_batch(posts[..split].iter().cloned(), &mut sink)
        .unwrap();
    for line in CHURN.lines() {
        reference.apply(&line.parse().unwrap()).unwrap();
    }
    reference
        .process_batch(posts[split..].iter().cloned(), &mut sink)
        .unwrap();

    // The same session over the wire.
    let (addr, _handle, join) = boot(strategy);
    let mut client = HttpClient::connect(addr).unwrap();

    let mut body = Vec::new();
    corpus::write_posts(&posts[..split], &mut body).unwrap();
    let first = client.request("POST", "/ingest", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());

    let churn = client.request("POST", "/churn", CHURN.as_bytes()).unwrap();
    assert_eq!(churn.status, 200, "{}", churn.text());
    let churn_lines: Vec<&str> = churn.text().lines().map(|_| "").collect();
    assert_eq!(churn_lines.len(), 3, "one response line per churn op");
    assert!(
        churn.text().lines().all(|l| l.starts_with("ok")),
        "all churn ops valid: {}",
        churn.text()
    );
    // add-user allocated user id 4 on both sides.
    assert!(
        churn.text().lines().any(|l| l == "ok\t4"),
        "{}",
        churn.text()
    );

    let mut body = Vec::new();
    corpus::write_posts(&posts[split..], &mut body).unwrap();
    let second = client.request("POST", "/ingest", &body).unwrap();
    assert_eq!(second.status, 200, "{}", second.text());

    let wire_decisions = format!("{}{}", first.text(), second.text());
    assert_eq!(
        wire_decisions, expected_decisions,
        "wire decisions must be byte-identical to the in-process facade ({strategy:?})"
    );

    // Per-user streams replay the exact delivery lines, seq-prefixed.
    for user in 0..5u32 {
        let expected: Vec<u8> = expected_deliveries[user as usize].concat();
        let resp = client
            .request("GET", &format!("/stream/{user}?from=0&max=1000"), b"")
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body, expected,
            "user {user} stream bytes ({strategy:?})"
        );
    }

    // /metrics exposes engine + serving instruments over the wire.
    let metrics = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("firehose_net_posts_ingested_total"), "{text}");
    assert!(text.contains("firehose_posts_processed_total"), "{text}");

    // /healthz reports a healthy serving state.
    let health = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert!(
        health.text().contains("\"status\":\"ok\""),
        "{}",
        health.text()
    );
    assert!(
        health.text().contains("\"churn_ops\":3"),
        "{}",
        health.text()
    );

    let shutdown = client.request("POST", "/shutdown", b"").unwrap();
    assert_eq!(shutdown.status, 200);
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.posts_ingested, posts.len() as u64);
}

#[test]
fn wire_decisions_match_in_process_shared() {
    assert_wire_matches_in_process(StrategyKind::Shared);
}

#[test]
fn wire_decisions_match_in_process_sharded() {
    assert_wire_matches_in_process(StrategyKind::Sharded { shards: 2 });
}

#[test]
fn malformed_and_short_read_requests_never_kill_the_server() {
    let (addr, handle, join) = boot(StrategyKind::Shared);

    // 1. Garbage request line → 400, typed error, connection closed.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    // 2. Unsupported method → 405.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"DELETE /ingest HTTP/1.1\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");

    // 3. Oversized headers → 431 without buffering forever.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let junk = vec![b'x'; 64 * 1024];
    let _ = s.write_all(&junk); // server may close mid-write; either is fine
    let mut resp = String::new();
    let _ = s.read_to_string(&mut resp);
    assert!(resp.starts_with("HTTP/1.1 431"), "{resp}");

    // 4. Short read: a request truncated mid-body, then the peer vanishes.
    //    The server must just drop the connection.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /ingest HTTP/1.1\r\nContent-Length: 50\r\n\r\nonly-a-fragment")
        .unwrap();
    drop(s);

    // 5. Declared body over the cap → 413 before any buffering.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /ingest HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    let _ = s.read_to_string(&mut resp);
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

    // 6. A syntactically valid request with a malformed corpus body → 400,
    //    and the connection stays usable (keep-alive preserved).
    let mut client = HttpClient::connect(addr).unwrap();
    let bad = client
        .request(
            "POST",
            "/ingest",
            b"not\ta\tvalid\tpost\tline\twith\textras\n",
        )
        .unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    let unknown = client.request("GET", "/no/such/route", b"").unwrap();
    assert_eq!(unknown.status, 404);

    // After all that abuse the server still serves normal traffic.
    let posts = posts();
    let mut body = Vec::new();
    corpus::write_posts(&posts[..4], &mut body).unwrap();
    let ok = client.request("POST", "/ingest", &body).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());
    assert_eq!(ok.text().lines().count(), 4);
    let health = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);

    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert!(
        report.protocol_errors >= 4,
        "typed protocol errors were counted: {report:?}"
    );
}

#[test]
fn unknown_author_on_ingest_is_refused_and_decides_nothing() {
    let posts = posts();
    let (addr, handle, join) = boot(StrategyKind::Shared);
    let mut client = HttpClient::connect(addr).unwrap();

    // A good line, then an author past the 10-author graph: the whole
    // request is refused, naming the body line (comments count) and
    // the author.
    for author in [500u64, u32::MAX as u64] {
        let body = format!("# trace\n1\t0\t0\thello\n2\t{author}\t10\thello\n");
        let bad = client.request("POST", "/ingest", body.as_bytes()).unwrap();
        assert_eq!(bad.status, 400, "{}", bad.text());
        assert!(
            bad.text().contains("line 3") && bad.text().contains(&author.to_string()),
            "{}",
            bad.text()
        );
    }
    let health = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200, "{}", health.text());
    assert_eq!(metric(&mut client, "firehose_net_posts_ingested_total"), 0);

    // No post of the refused requests was decided: a good request now
    // decides exactly as a fresh in-process service does.
    let mut expected = String::new();
    service(StrategyKind::Shared)
        .process_batch(posts[..8].iter().cloned(), |p, d| {
            expected.push_str(&decision_line(p.id, &d.delivered_to));
        })
        .unwrap();
    let mut body = Vec::new();
    corpus::write_posts(&posts[..8], &mut body).unwrap();
    let ok = client.request("POST", "/ingest", &body).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());
    assert_eq!(ok.text(), expected);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn stream_long_poll_parks_until_data_arrives() {
    let (addr, handle, join) = boot(StrategyKind::Shared);
    let posts = posts();

    // Reader parked with a wait budget before any posts exist.
    let reader = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.set_read_timeout(Duration::from_secs(10)).unwrap();
        client
            .request("GET", "/stream/0?from=0&max=2&wait_ms=5000", b"")
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));

    let mut ingest = HttpClient::connect(addr).unwrap();
    let mut body = Vec::new();
    corpus::write_posts(&posts[..6], &mut body).unwrap();
    let resp = ingest.request("POST", "/ingest", &body).unwrap();
    assert_eq!(resp.status, 200);

    let streamed = reader.join().unwrap();
    assert_eq!(streamed.status, 200);
    let text = streamed.text();
    assert!(
        !text.is_empty(),
        "parked long-poll received deliveries once ingest ran"
    );
    for line in text.lines() {
        let seq: u64 = line.split('\t').next().unwrap().parse().unwrap();
        assert!(seq < 2, "seq-prefixed delivery lines, max=2 honored");
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn connection_cap_answers_503_and_recovers_when_sockets_close() {
    const CAP: usize = 3;
    let (addr, handle, join) = boot_with(
        ServerConfig {
            max_connections: CAP,
            ..ServerConfig::default()
        },
        service(StrategyKind::Shared),
    );

    // Fill the cap with connections that have each been answered, so the
    // loop has accepted and counted every one of them.
    let mut held: Vec<HttpClient> = (0..CAP)
        .map(|_| {
            let mut c = HttpClient::connect(addr).unwrap();
            assert_eq!(c.request("GET", "/healthz", b"").unwrap().status, 200);
            c
        })
        .collect();

    // The next socket is refused on accept, before it sends anything.
    let mut extra = TcpStream::connect(addr).unwrap();
    let mut resp = String::new();
    extra.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
    assert!(resp.contains("Retry-After: 1\r\n"), "{resp}");
    assert_eq!(
        metric(&mut held[0], "firehose_net_connections_rejected_total"),
        1
    );

    // Once the held sockets close and the loop has reaped them, a new
    // connection is served again.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let served = HttpClient::connect(addr)
            .unwrap()
            .request("GET", "/healthz", b"")
            .is_ok_and(|r| r.status == 200);
        if served {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "still refusing after the cap cleared"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert!(report.connections_rejected >= 1, "{report:?}");
}

/// Per-post admission on the wire is the rate limiter alone: a burst over
/// the limit answers 200 with the decision lines an in-process service with
/// the same limit emits, and `/healthz` counts the same drops.
#[test]
fn rate_limited_ingest_answers_200_and_counts_in_healthz() {
    const POSTS_PER_SEC: f64 = 1.0;
    let limited = || {
        FirehoseService::builder(&graph(), subscriptions())
            .engine_config(engine_config())
            .rate_limit(POSTS_PER_SEC)
            .build()
            .unwrap()
    };
    // Four authors, one post every 100 ms between them: each author posts
    // 2.5 times a second, so the limiter drops some of each author's posts.
    let burst: Vec<Post> = posts()
        .into_iter()
        .enumerate()
        .map(|(i, p)| Post::new(p.id, (i % 4) as u32, i as u64 * 100, p.text))
        .collect();

    let mut reference = limited();
    let mut expected = String::new();
    reference
        .process_batch(burst.iter().cloned(), |p, d| {
            expected.push_str(&decision_line(p.id, &d.delivered_to));
        })
        .unwrap();
    assert!(
        reference.rate_limited() > 0,
        "the burst must trip the limit"
    );

    let (addr, handle, join) = boot_with(ServerConfig::default(), limited());
    let mut client = HttpClient::connect(addr).unwrap();
    let mut body = Vec::new();
    corpus::write_posts(&burst, &mut body).unwrap();
    let resp = client.request("POST", "/ingest", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.text(), expected);

    let health = client.request("GET", "/healthz", b"").unwrap().text();
    let rate_limited = format!("\"rate_limited\":{},", reference.rate_limited());
    assert!(health.contains(&rate_limited), "{health}");
    assert_eq!(
        metric(&mut client, "firehose_net_posts_ingested_total"),
        burst.len() as u64
    );

    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.posts_ingested, burst.len() as u64);
}

#[test]
fn removing_a_user_ends_its_parked_stream() {
    let (addr, handle, join) = boot(StrategyKind::Shared);

    let reader = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.set_read_timeout(Duration::from_secs(10)).unwrap();
        let parked_at = Instant::now();
        let resp = client
            .request("GET", "/stream/0?wait_ms=5000", b"")
            .unwrap();
        (resp, parked_at.elapsed())
    });

    // Remove the user only once the server reports the reader parked.
    let mut control = HttpClient::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while metric(&mut control, "firehose_net_streams_parked") != 1 {
        assert!(Instant::now() < deadline, "reader never parked");
        std::thread::sleep(Duration::from_millis(5));
    }
    let churn = control
        .request("POST", "/churn", b"remove-user\t0\n")
        .unwrap();
    assert_eq!(churn.text(), "ok\n");

    let (resp, waited) = reader.join().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.is_empty(), "{}", resp.text());
    assert!(
        waited < Duration::from_millis(2_500),
        "reader sat out its wait_ms after the user was removed: {waited:?}"
    );
    assert_eq!(metric(&mut control, "firehose_net_streams_parked"), 0);
    let gone = control.request("GET", "/stream/0", b"").unwrap();
    assert_eq!(gone.status, 404, "{}", gone.text());

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Bytes from `stream` until the peer closes, and when the first byte and
/// the close arrived (measured from `since`).
fn read_until_close(stream: &mut TcpStream, since: Instant) -> (Vec<u8>, Duration) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    (bytes, since.elapsed())
}

/// The status codes of consecutive responses in `text`, in order.
fn statuses(text: &str) -> Vec<&str> {
    text.match_indices("HTTP/1.1 ")
        .map(|(i, _)| &text[i + 9..i + 12])
        .collect()
}

/// Two requests written in one `write` get two responses, in order: the
/// health document already counts the posts the first request ingested.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let posts = posts();
    let mut expected = String::new();
    service(StrategyKind::Shared)
        .process_batch(posts[..2].iter().cloned(), |p, d| {
            expected.push_str(&decision_line(p.id, &d.delivered_to));
        })
        .unwrap();
    let (addr, handle, join) = boot(StrategyKind::Shared);
    let mut body = Vec::new();
    corpus::write_posts(&posts[..2], &mut body).unwrap();
    let mut both = format!(
        "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    both.extend_from_slice(&body);
    both.extend_from_slice(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&both).unwrap();
    let (bytes, _) = read_until_close(&mut s, Instant::now());
    let text = String::from_utf8_lossy(&bytes);
    assert_eq!(statuses(&text), ["200", "200"], "{text}");
    let (ingest, health) = text.split_at(text.rfind("HTTP/1.1 ").unwrap());
    assert!(ingest.ends_with(&format!("\r\n\r\n{expected}")), "{ingest}");
    assert!(health.contains("\"posts_ingested\":2}"), "{health}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A request pipelined behind a parked long-poll waits for that stream's
/// terminal chunk: a connection answers one request at a time.
#[test]
fn request_behind_a_parked_stream_waits_for_its_terminal_chunk() {
    let (addr, handle, join) = boot(StrategyKind::Shared);
    let mut s = TcpStream::connect(addr).unwrap();
    let sent = Instant::now();
    s.write_all(
        b"GET /stream/0?wait_ms=300 HTTP/1.1\r\n\r\n\
          GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let (bytes, closed_after) = read_until_close(&mut s, sent);
    let text = String::from_utf8_lossy(&bytes);
    assert_eq!(statuses(&text), ["200", "200"], "{text}");
    let (stream, health) = text.split_at(text.rfind("HTTP/1.1 ").unwrap());
    assert!(stream.contains("Transfer-Encoding: chunked"), "{stream}");
    assert!(
        stream.ends_with("\r\n\r\n0\r\n\r\n"),
        "no delivery, then the terminal chunk: {stream}"
    );
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(
        closed_after >= Duration::from_millis(300),
        "the pipelined request was answered before the stream's deadline: {closed_after:?}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `idle_timeout` closes a keep-alive connection that sends nothing, but
/// never a connection whose long-poll is parked: that one ends at its own
/// deadline, with the terminal chunk.
#[test]
fn idle_timeout_closes_idle_connections_but_not_parked_streams() {
    let (addr, handle, join) = boot_with(
        ServerConfig {
            idle_timeout: Duration::from_secs(1),
            ..ServerConfig::default()
        },
        service(StrategyKind::Shared),
    );
    let parked = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        let asked = Instant::now();
        let resp = client
            .request("GET", "/stream/0?wait_ms=3000", b"")
            .unwrap();
        (resp, asked.elapsed())
    });

    let mut idle = TcpStream::connect(addr).unwrap();
    let (bytes, closed_after) = read_until_close(&mut idle, Instant::now());
    assert!(bytes.is_empty(), "{}", String::from_utf8_lossy(&bytes));
    assert!(
        closed_after >= Duration::from_millis(900) && closed_after < Duration::from_secs(5),
        "idle connection closed after {closed_after:?}"
    );

    let (resp, waited) = parked.join().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.is_empty(), "{}", resp.text());
    assert!(
        waited >= Duration::from_millis(2_900),
        "the parked stream ended early: {waited:?}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `ShutdownHandle::shutdown` returns `serve` promptly while one
/// connection sits idle and another holds a parked long-poll, and the
/// report counts both connections.
#[test]
fn shutdown_returns_promptly_with_idle_and_parked_connections() {
    let (addr, handle, join) = boot(StrategyKind::Shared);
    let mut idle = HttpClient::connect(addr).unwrap();
    let parked = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.set_read_timeout(Duration::from_secs(30)).unwrap();
        client.request("GET", "/stream/0?wait_ms=60000", b"")
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while metric(&mut idle, "firehose_net_streams_parked") != 1 {
        assert!(Instant::now() < deadline, "reader never parked");
        std::thread::sleep(Duration::from_millis(5));
    }

    let asked = Instant::now();
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "serve took {:?} to return",
        asked.elapsed()
    );
    assert_eq!(report.connections_accepted, 2, "{report:?}");
    assert!(
        parked.join().unwrap().is_err(),
        "the parked stream is cut, not completed"
    );
}
