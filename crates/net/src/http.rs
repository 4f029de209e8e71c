//! Incremental HTTP/1.1 request parsing and response formatting.
//!
//! The server speaks the small, boring subset of HTTP/1.1 the firehose wire
//! protocol needs: `GET`/`POST`, `Content-Length` request bodies, keep-alive
//! connections, and chunked transfer encoding on responses (the per-user
//! streaming endpoint). A connection's bytes arrive in pieces, so the
//! parser is incremental: [`parse_request`] either consumes one complete
//! request from the front of the buffer, reports that more bytes are needed,
//! or returns a typed [`ProtoError`] — it never panics on malformed or
//! truncated input.

use std::fmt;

/// Request method. Everything else is rejected with
/// [`ProtoError::UnsupportedMethod`] (the wire protocol is GET/POST only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Reads: streams, metrics, health.
    Get,
    /// Writes: ingest, churn, shutdown.
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Get => "GET",
            Self::Post => "POST",
        })
    }
}

/// One parsed request: method, decoded path, decoded query pairs, body.
#[derive(Debug)]
pub struct Request {
    /// GET or POST.
    pub method: Method,
    /// Percent-decoded path, query string stripped (e.g. `/stream/7`).
    pub path: String,
    /// Percent-decoded `?key=value` pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub(crate) fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parse the query value for `key`, falling back to `default` when the
    /// key is absent. A present-but-unparsable value is a protocol error.
    pub(crate) fn query_parse_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ProtoError>
    where
        T::Err: fmt::Display,
    {
        match self.query_value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| ProtoError::BadQuery {
                key: key.to_string(),
                reason: format!("{e}"),
            }),
        }
    }
}

/// Typed protocol failures. Each maps to one HTTP status via
/// `ProtoError::status`; none of them tears down the server.
#[derive(Debug)]
pub enum ProtoError {
    /// The request line was not `METHOD target HTTP/1.x`.
    BadRequestLine(String),
    /// A header line had no `:` separator.
    BadHeader(String),
    /// A method other than GET/POST.
    UnsupportedMethod(String),
    /// `Transfer-Encoding` on a request (only `Content-Length` bodies are
    /// accepted).
    UnsupportedTransferEncoding(String),
    /// `Content-Length` was not a number.
    BadContentLength(String),
    /// The declared body exceeds the configured cap.
    BodyTooLarge {
        /// Configured maximum body size.
        limit: usize,
        /// Declared `Content-Length`.
        declared: usize,
    },
    /// The header section exceeds the configured cap without terminating.
    HeadersTooLarge {
        /// Configured maximum header-section size.
        limit: usize,
    },
    /// A malformed `?key=value` pair (reported by the endpoint handlers).
    BadQuery {
        /// The offending key.
        key: String,
        /// Why the value did not parse.
        reason: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadRequestLine(line) => write!(f, "malformed request line {line:?}"),
            Self::BadHeader(line) => write!(f, "malformed header {line:?}"),
            Self::UnsupportedMethod(m) => write!(f, "unsupported method {m:?}"),
            Self::UnsupportedTransferEncoding(te) => {
                write!(
                    f,
                    "unsupported transfer-encoding {te:?} (use Content-Length)"
                )
            }
            Self::BadContentLength(v) => write!(f, "bad Content-Length {v:?}"),
            Self::BodyTooLarge { limit, declared } => {
                write!(
                    f,
                    "request body of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            Self::HeadersTooLarge { limit } => {
                write!(f, "header section exceeds the {limit}-byte limit")
            }
            Self::BadQuery { key, reason } => write!(f, "bad query value for {key:?}: {reason}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The HTTP status this error answers with.
    pub(crate) fn status(&self) -> u16 {
        match self {
            Self::BodyTooLarge { .. } => 413,
            Self::HeadersTooLarge { .. } => 431,
            Self::UnsupportedMethod(_) => 405,
            Self::UnsupportedTransferEncoding(_) => 501,
            _ => 400,
        }
    }
}

/// Result of feeding the accumulated read buffer to the parser.
#[derive(Debug)]
pub enum ParseOutcome {
    /// The buffer does not yet hold one complete request; read more.
    Incomplete,
    /// One complete request, plus how many buffer bytes it consumed (the
    /// caller drains them; anything left is the next pipelined request).
    Complete(Request, usize),
}

/// Limits applied while parsing (both are enforced incrementally, so a
/// hostile peer cannot balloon the buffer before the error fires).
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Maximum header-section bytes (request line + headers + blank line).
    pub max_header_bytes: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        Self {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Try to parse one request from the front of `buf`.
pub fn parse_request(buf: &[u8], limits: ParseLimits) -> Result<ParseOutcome, ProtoError> {
    let Some(header_end) = find_header_end(buf) else {
        if buf.len() > limits.max_header_bytes {
            return Err(ProtoError::HeadersTooLarge {
                limit: limits.max_header_bytes,
            });
        }
        return Ok(ParseOutcome::Incomplete);
    };
    if header_end > limits.max_header_bytes {
        return Err(ProtoError::HeadersTooLarge {
            limit: limits.max_header_bytes,
        });
    }
    let head = &buf[..header_end];
    let head_text = String::from_utf8_lossy(head);
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();

    let mut parts = request_line.split(' ');
    let (method_s, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ProtoError::BadRequestLine(clip(request_line))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ProtoError::BadRequestLine(clip(request_line)));
    }
    let method = match method_s {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(ProtoError::UnsupportedMethod(clip(other))),
    };

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; `Connection: close` opts out.
    let mut keep_alive = !version.ends_with("1.0");
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ProtoError::BadHeader(clip(line)));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ProtoError::BadContentLength(clip(value)))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ProtoError::UnsupportedTransferEncoding(clip(value)));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(ProtoError::BodyTooLarge {
            limit: limits.max_body_bytes,
            declared: content_length,
        });
    }
    let body_start = header_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(ParseOutcome::Incomplete);
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path);
    let query = raw_query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();

    Ok(ParseOutcome::Complete(
        Request {
            method,
            path,
            query,
            body: buf[body_start..total].to_vec(),
            keep_alive,
        },
        total,
    ))
}

/// Offset of the `\r\n\r\n` header terminator, if present.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decode `%XX` escapes and `+`-as-space; invalid escapes pass through
/// literally (lenient, like every server in practice).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => match hex_pair(bytes[i + 1], bytes[i + 2]) {
                Some(b) => {
                    out.push(b);
                    i += 3;
                }
                None => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_pair(hi: u8, lo: u8) -> Option<u8> {
    let d = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    };
    Some(d(hi)? * 16 + d(lo)?)
}

/// Truncate hostile input before embedding it in an error message.
fn clip(s: &str) -> String {
    const MAX: usize = 80;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Standard reason phrase for the statuses the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The content type of every plain-text response.
pub(crate) const TEXT: &str = "text/plain; charset=utf-8";

/// Format a response in one buffer, so it goes out in one write.
/// `body: None` formats only the head of a chunked response (the streaming
/// endpoint).
pub(crate) fn response(
    status: u16,
    content_type: &str,
    body: Option<&[u8]>,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    let _ = write!(head, "Content-Type: {content_type}\r\n");
    match body {
        Some(body) => {
            let _ = write!(head, "Content-Length: {}\r\n", body.len());
        }
        None => head.push_str("Transfer-Encoding: chunked\r\n"),
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n"
    } else {
        "Connection: close\r\n"
    });
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.unwrap_or_default());
    out
}

/// Append one chunked-transfer chunk (`<hex len>\r\n<data>\r\n`) to `out`.
/// Empty data is skipped — a zero-length chunk would terminate the stream.
pub(crate) fn push_chunk(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// The terminal chunk closing a chunked response body.
pub(crate) const TERMINAL_CHUNK: &[u8] = b"0\r\n\r\n";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(buf: &[u8]) -> Result<ParseOutcome, ProtoError> {
        parse_request(buf, ParseLimits::default())
    }

    #[test]
    fn complete_get_round_trips() {
        let raw = b"GET /stream/7?from=3&max=10 HTTP/1.1\r\nHost: x\r\n\r\n";
        match parse(raw).unwrap() {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(consumed, raw.len());
                assert_eq!(req.method, Method::Get);
                assert_eq!(req.path, "/stream/7");
                assert_eq!(req.query_value("from"), Some("3"));
                assert_eq!(req.query_parse_or("max", 0usize).unwrap(), 10);
                assert_eq!(req.query_parse_or("wait_ms", 250u64).unwrap(), 250);
                assert!(req.keep_alive);
                assert!(req.body.is_empty());
            }
            other => panic!("wanted complete, got {other:?}"),
        }
    }

    #[test]
    fn post_body_by_content_length() {
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello extra";
        match parse(raw).unwrap() {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(req.body, b"hello");
                // The trailing " extra" belongs to the next pipelined request.
                assert_eq!(consumed, raw.len() - " extra".len());
            }
            other => panic!("wanted complete, got {other:?}"),
        }
    }

    #[test]
    fn short_reads_are_incomplete_not_errors() {
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-a-bit";
        assert!(matches!(parse(raw).unwrap(), ParseOutcome::Incomplete));
        // Truncated mid-header, too.
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nHos").unwrap(),
            ParseOutcome::Incomplete
        ));
        assert!(matches!(parse(b"").unwrap(), ParseOutcome::Incomplete));
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let garbage = b"GARBAGE\r\n\r\n";
        assert!(matches!(parse(garbage), Err(ProtoError::BadRequestLine(_))));
        assert!(matches!(
            parse(b"PUT /x HTTP/1.1\r\n\r\n"),
            Err(ProtoError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n"),
            Err(ProtoError::BadHeader(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(ProtoError::BadContentLength(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ProtoError::UnsupportedTransferEncoding(_))
        ));
        assert!(matches!(
            parse(b"GET /x SMTP\r\n\r\n"),
            Err(ProtoError::BadRequestLine(_))
        ));
    }

    #[test]
    fn limits_are_enforced() {
        let limits = ParseLimits {
            max_header_bytes: 64,
            max_body_bytes: 8,
        };
        // Headers that never terminate blow the cap instead of buffering.
        let long = vec![b'a'; 128];
        assert!(matches!(
            parse_request(&long, limits),
            Err(ProtoError::HeadersTooLarge { .. })
        ));
        let big_body = b"POST /i HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
        assert!(matches!(
            parse_request(big_body, limits),
            Err(ProtoError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        match parse(close).unwrap() {
            ParseOutcome::Complete(req, _) => assert!(!req.keep_alive),
            other => panic!("{other:?}"),
        }
        let http10 = b"GET /healthz HTTP/1.0\r\n\r\n";
        match parse(http10).unwrap() {
            ParseOutcome::Complete(req, _) => assert!(!req.keep_alive),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn percent_decoding_is_lenient() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn chunk_framing() {
        let mut out = Vec::new();
        push_chunk(&mut out, b"hello");
        push_chunk(&mut out, b"");
        out.extend_from_slice(TERMINAL_CHUNK);
        assert_eq!(out, b"5\r\nhello\r\n0\r\n\r\n");
    }

    #[test]
    fn error_statuses() {
        assert_eq!(ProtoError::BadRequestLine(String::new()).status(), 400);
        assert_eq!(
            ProtoError::BodyTooLarge {
                limit: 1,
                declared: 2
            }
            .status(),
            413
        );
        assert_eq!(ProtoError::HeadersTooLarge { limit: 1 }.status(), 431);
        assert_eq!(ProtoError::UnsupportedMethod(String::new()).status(), 405);
    }
}
