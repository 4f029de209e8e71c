//! # firehose-net — the wire in front of the firehose
//!
//! A zero-dependency TCP/HTTP serving layer for
//! [`FirehoseService`](firehose_core::service::FirehoseService). Like
//! `firehose-obs`, this crate deliberately pulls nothing from the registry:
//! the server runs blocking `std::net` sockets, a thread per connection,
//! around one decide thread, and the HTTP/1.1 subset it speaks
//! (Content-Length request bodies, keep-alive, pipelining, chunked
//! responses) is implemented in-tree with typed protocol errors — a
//! malformed or truncated request costs the peer its connection, never the
//! server.
//!
//! The load-bearing property is *decision fidelity*: requests are handled
//! in arrival order on the one thread that owns the service, calling the
//! same `process_batch` entry point as in-process embedding, so the
//! decision stream a client reads over the wire is byte-identical to what
//! the facade would have emitted for the same trace (asserted by
//! `tests/serving.rs`).
//!
//! - [`server`] — the acceptor, connection and decide threads.
//! - `state` — the router, per-user delivery rings and parked long-polls.
//! - [`http`] — incremental request parsing and response formatting.
//! - [`HttpClient`] — a minimal blocking client used by the loopback tests and
//!   `benchmark/`'s wire workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod http;
pub mod server;
mod state;

pub use client::{ClientError, HttpClient, Response};
pub use http::{Method, ParseLimits, ProtoError, Request};
pub use server::{NetError, ServeReport, Server, ServerConfig, ShutdownHandle};
