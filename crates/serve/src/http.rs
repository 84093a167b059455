//! A minimal HTTP/1.1 wire layer over `std::net`, shared by the server,
//! the load generator, and the examples.
//!
//! Scope is deliberately narrow — exactly what the service needs and
//! nothing more: one incremental request parser
//! ([`parse_request_bytes`]) that the server re-runs over a
//! connection's buffered bytes, `Content-Length`-framed bodies, chunked
//! transfer-encoding for the one streaming endpoint (`/v1/whatif`
//! responses, framed by [`ChunkedWriter`] and decoded transparently by
//! [`HttpClient`]), no TLS. Connections follow HTTP/1.1
//! persistence semantics: requests default to keep-alive unless the
//! client sends `Connection: close` (HTTP/1.0 defaults to close unless
//! it asks for `keep-alive`), so the load generator and the examples
//! reuse one socket per thread instead of paying a TCP handshake per
//! request ([`HttpClient`]). One response reader serves every client
//! here: [`HttpClient`], [`http_request`] and the load generator.
//! Framing violations surface as [`AcsError::Protocol`] so the handler
//! layer can map them to a 400 with the standard error envelope.

use crate::chaos::{FaultPlan, FaultStream};
use acs_errors::AcsError;
use acs_llm::rng::SplitMix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request line or header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// Maximum number of request headers.
const MAX_HEADERS: usize = 100;

/// A parsed request: method, percent-encoded path, and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path + optional query, still encoded).
    pub path: String,
    /// Request body (empty when no `Content-Length`).
    pub body: String,
}

fn protocol(reason: impl Into<String>) -> AcsError {
    AcsError::Protocol { reason: reason.into() }
}

fn read_line(reader: &mut impl BufRead) -> Result<String, AcsError> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) => return Err(protocol(format!("connection ended mid-line: {e}"))),
        }
        if byte[0] == b'\n' {
            break;
        }
        buf.push(byte[0]);
        if buf.len() > MAX_LINE_BYTES {
            return Err(protocol("header line exceeds 8 KiB"));
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| protocol("header line is not UTF-8"))
}

/// Whether a `Connection` header value (comma-separated tokens) asks to
/// keep the connection open, given the version's default.
fn wants_keep_alive(connection: Option<&str>, default: bool) -> bool {
    match connection {
        None => default,
        Some(value) => {
            let mut keep = default;
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    return false;
                }
                if token.eq_ignore_ascii_case("keep-alive") {
                    keep = true;
                }
            }
            keep
        }
    }
}

/// Result of incrementally parsing one request from a byte buffer
/// ([`parse_request_bytes`]).
#[derive(Debug)]
pub enum Parsed {
    /// The buffer does not yet hold a complete request; read more bytes
    /// and try again.
    NeedMore,
    /// One complete request occupying the first `consumed` bytes of the
    /// buffer.
    Complete {
        /// The framed request.
        request: HttpRequest,
        /// Bytes of the buffer this request consumed (drain before the
        /// next parse).
        consumed: usize,
        /// Whether the client wants the connection kept open afterwards.
        keep_alive: bool,
    },
    /// The buffer prefix can never become a valid request.
    Invalid(AcsError),
}

/// Pull one complete line (up to `\n`, `\r` stripped) out of `buf`
/// starting at `at`. `Ok(None)` means the line is still incomplete.
/// Limits and error strings match the client's [`read_line`].
fn take_line(buf: &[u8], at: usize) -> Result<Option<(String, usize)>, AcsError> {
    let rest = &buf[at..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(nl) => {
            if nl > MAX_LINE_BYTES {
                return Err(protocol("header line exceeds 8 KiB"));
            }
            let mut line = &rest[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            let text =
                std::str::from_utf8(line).map_err(|_| protocol("header line is not UTF-8"))?;
            Ok(Some((text.to_owned(), at + nl + 1)))
        }
        None if rest.len() > MAX_LINE_BYTES => Err(protocol("header line exceeds 8 KiB")),
        None => Ok(None),
    }
}

/// Incrementally frame one request from an in-memory buffer, returning
/// whether the client wants the connection kept open afterwards
/// (HTTP/1.1 defaults to keep-alive unless it sends `Connection: close`;
/// HTTP/1.0 defaults to close unless it sends `Connection:
/// keep-alive`). The connection state machine appends whatever bytes
/// the socket had, calls this, and either waits for more
/// ([`Parsed::NeedMore`]), dispatches and drains ([`Parsed::Complete`]),
/// or answers 400 and closes ([`Parsed::Invalid`]).
///
/// The outcome depends only on the bytes, not on how they arrived: once
/// a prefix of the buffer gives a result other than `NeedMore`, every
/// longer buffer gives the same one (the fuzz harness asserts this
/// under seeded chunked arrival). Framing violations — malformed
/// request lines, non-UTF-8 headers or bodies, oversized
/// lines/bodies/header counts — are [`AcsError::Protocol`].
#[must_use]
pub fn parse_request_bytes(buf: &[u8]) -> Parsed {
    fn parse(buf: &[u8]) -> Result<Option<(HttpRequest, usize, bool)>, AcsError> {
        let Some((request_line, mut at)) = take_line(buf, 0)? else {
            return Ok(None);
        };
        let mut parts = request_line.split_whitespace();
        let method = parts.next().ok_or_else(|| protocol("empty request line"))?.to_owned();
        let path =
            parts.next().ok_or_else(|| protocol("request line missing target"))?.to_owned();
        let version = parts.next().ok_or_else(|| protocol("request line missing version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(protocol(format!("unsupported protocol version {version}")));
        }
        let keep_alive_default = version != "HTTP/1.0";

        let mut content_length: Option<usize> = None;
        let mut connection: Option<String> = None;
        for i in 0.. {
            if i >= MAX_HEADERS {
                return Err(protocol("too many headers"));
            }
            let Some((line, next)) = take_line(buf, at)? else {
                return Ok(None);
            };
            at = next;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(protocol(format!("malformed header line {line:?}")));
            };
            if name.trim().eq_ignore_ascii_case("content-length") {
                if content_length.is_some() {
                    return Err(protocol("duplicate Content-Length header"));
                }
                let length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| protocol(format!("unparseable Content-Length {value:?}")))?;
                if length > MAX_BODY_BYTES {
                    return Err(protocol(format!(
                        "body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                    )));
                }
                content_length = Some(length);
            } else if name.trim().eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_owned());
            }
        }
        let keep_alive = wants_keep_alive(connection.as_deref(), keep_alive_default);

        let length = content_length.unwrap_or(0);
        let Some(raw) = buf.get(at..at + length) else {
            return Ok(None);
        };
        let body = std::str::from_utf8(raw)
            .map_err(|_| protocol("request body is not UTF-8"))?
            .to_owned();
        Ok(Some((HttpRequest { method, path, body }, at + length, keep_alive)))
    }
    match parse(buf) {
        Ok(None) => Parsed::NeedMore,
        Ok(Some((request, consumed, keep_alive))) => {
            Parsed::Complete { request, consumed, keep_alive }
        }
        Err(e) => Parsed::Invalid(e),
    }
}

/// Canonical reason phrase for the statuses the service emits.
#[must_use]
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Append one JSON response to `out`, head then body, announcing
/// whether the server will keep the connection open (`Connection:
/// keep-alive`) or close it afterwards (`Connection: close`). The server
/// frames every response straight into a connection's output buffer
/// through this. `extra` headers (e.g. `Retry-After` on a priority shed)
/// are spliced in before the blank line.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    body: &str,
    keep_alive: bool,
    extra: &[(&str, &str)],
) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason_phrase(status),
        body.len(),
    );
    for (name, value) in extra {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
}

/// [`write_response`] into a fresh byte vector.
#[must_use]
pub fn response_bytes(
    status: u16,
    body: &str,
    keep_alive: bool,
    extra: &[(&str, &str)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    write_response(&mut out, status, body, keep_alive, extra);
    out
}

/// A `Transfer-Encoding: chunked` NDJSON response appended to an output
/// buffer: the head on construction, one `size-hex CRLF line LF CRLF`
/// frame per [`ChunkedWriter::write_line`], and the zero-length
/// terminator on [`ChunkedWriter::finish`]. The server streams one
/// `/v1/whatif` record per chunk through this.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> ChunkedWriter<'a> {
    /// Append the response head to `out`.
    pub fn new(out: &'a mut Vec<u8>, keep_alive: bool) -> Self {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        out.extend_from_slice(
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: {connection}\r\n\r\n",
            )
            .as_bytes(),
        );
        ChunkedWriter { out }
    }

    /// Append one chunk holding `line` and its terminating newline.
    pub fn write_line(&mut self, line: &str) {
        self.out.extend_from_slice(format!("{:x}\r\n", line.len() + 1).as_bytes());
        self.out.extend_from_slice(line.as_bytes());
        self.out.extend_from_slice(b"\n\r\n");
    }

    /// Terminate the stream with the zero-length chunk.
    pub fn finish(self) {
        self.out.extend_from_slice(b"0\r\n\r\n");
    }
}

/// One-shot HTTP client: connect, send `method path` with `body` and
/// `Connection: close`, return `(status, response body)`. The response
/// is read by the same framing code as [`HttpClient`]'s.
///
/// # Errors
///
/// [`AcsError::Io`] on connect/write failures and [`AcsError::Protocol`]
/// on a response that ends early or is not well framed.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<(u16, String), AcsError> {
    let io_err = |e: std::io::Error| AcsError::Io { path: addr.to_string(), reason: e.to_string() };
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(io_err)?;
    stream.set_read_timeout(Some(timeout)).map_err(io_err)?;
    stream.set_write_timeout(Some(timeout)).map_err(io_err)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(request.as_bytes()).map_err(io_err)?;
    let (status, body, _) = read_framed_response(&mut BufReader::new(stream))?;
    Ok((status, body))
}

/// Largest accepted response body on the client side, in bytes.
const MAX_RESPONSE_BYTES: usize = 16 << 20;

/// Decode a `Transfer-Encoding: chunked` body: `size-hex CRLF data
/// CRLF` frames until the zero-length terminator, then any trailer
/// lines up to the blank line. The concatenated chunk data is the body.
fn read_chunked_body(reader: &mut impl BufRead) -> Result<String, AcsError> {
    let mut body = Vec::new();
    loop {
        let size_line = read_line(reader)?;
        // Chunk extensions (`size;ext=val`) are legal; we ignore them.
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| protocol(format!("unparseable chunk size {size_line:?}")))?;
        if size == 0 {
            break;
        }
        if body.len() + size > MAX_RESPONSE_BYTES {
            return Err(protocol(format!(
                "chunked response exceeds {MAX_RESPONSE_BYTES} bytes"
            )));
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader
            .read_exact(&mut body[start..])
            .map_err(|e| protocol(format!("connection ended mid-chunk: {e}")))?;
        let mut crlf = [0u8; 2];
        reader
            .read_exact(&mut crlf)
            .map_err(|e| protocol(format!("connection ended after chunk: {e}")))?;
        if &crlf != b"\r\n" {
            return Err(protocol("chunk data not terminated by CRLF"));
        }
    }
    // Trailer section: header lines until the blank line.
    for i in 0.. {
        if i >= MAX_HEADERS {
            return Err(protocol("too many chunked-trailer lines"));
        }
        if read_line(reader)?.is_empty() {
            break;
        }
    }
    String::from_utf8(body).map_err(|_| protocol("chunked response body is not UTF-8"))
}

/// Read one framed response from a persistent connection: `(status,
/// body, server keeps the connection open)`. Framing is
/// `Content-Length` or `Transfer-Encoding: chunked` (the streaming
/// `/v1/whatif` endpoint); a response with neither is read to EOF and
/// marks the connection closed.
pub(crate) fn read_framed_response(
    reader: &mut impl BufRead,
) -> Result<(u16, String, bool), AcsError> {
    let status_line = read_line(reader)?;
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| status_line.strip_prefix("HTTP/1.0 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| protocol(format!("unparsable status line {status_line:?}")))?;
    let keep_alive_default = !status_line.starts_with("HTTP/1.0 ");
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut connection: Option<String> = None;
    for i in 0.. {
        if i >= MAX_HEADERS {
            return Err(protocol("too many response headers"));
        }
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(protocol(format!("malformed response header {line:?}")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| protocol(format!("unparseable Content-Length {value:?}")))?;
            if length > MAX_RESPONSE_BYTES {
                return Err(protocol(format!("response of {length} bytes is too large")));
            }
            content_length = Some(length);
        } else if name.trim().eq_ignore_ascii_case("transfer-encoding") {
            if !value.trim().eq_ignore_ascii_case("chunked") {
                return Err(protocol(format!("unsupported transfer encoding {value:?}")));
            }
            chunked = true;
        } else if name.trim().eq_ignore_ascii_case("connection") {
            connection = Some(value.trim().to_owned());
        }
    }
    if chunked {
        // Chunked framing wins over any Content-Length (RFC 9112 §6.3).
        let body = read_chunked_body(reader)?;
        let keep = wants_keep_alive(connection.as_deref(), keep_alive_default);
        return Ok((status, body, keep));
    }
    match content_length {
        Some(length) => {
            let mut body = vec![0u8; length];
            reader
                .read_exact(&mut body)
                .map_err(|e| protocol(format!("connection ended mid-response: {e}")))?;
            let body =
                String::from_utf8(body).map_err(|_| protocol("response body is not UTF-8"))?;
            let keep = wants_keep_alive(connection.as_deref(), keep_alive_default);
            Ok((status, body, keep))
        }
        None => {
            // Unframed legacy response: the connection is the frame.
            let mut body = String::new();
            reader
                .read_to_string(&mut body)
                .map_err(|e| protocol(format!("connection ended mid-response: {e}")))?;
            Ok((status, body, false))
        }
    }
}

/// Transport tuning for [`HttpClient`]: explicit connect/read/write
/// timeouts and a bounded retry schedule with jittered exponential
/// backoff. The service's endpoints are pure queries, so replaying a
/// request after a transport failure is always safe; retrying distinguishes
/// a transient fault (stale keep-alive socket, torn write, brief stall)
/// from a dead server without letting a dead server consume unbounded
/// attempts.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Budget for `TcpStream::connect_timeout` on each dial.
    pub connect_timeout: Duration,
    /// Per-operation socket read timeout.
    pub read_timeout: Duration,
    /// Per-operation socket write timeout.
    pub write_timeout: Duration,
    /// Additional fresh-dial attempts after the first fails (0 disables
    /// retries; stale keep-alive redials are free and not counted).
    pub retries: u32,
    /// Backoff before retry `k` is `backoff_base * 2^k` plus a uniform
    /// jitter in `[0, backoff_base)`, capped at [`ClientConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Ceiling on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for the jitter schedule (deterministic per client).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
            jitter_seed: 0xacc5_0ff5_9e37_79b9,
        }
    }
}

impl ClientConfig {
    /// A config with every timeout set to `timeout` and default retry
    /// behaviour — the shape [`HttpClient::new`] builds.
    #[must_use]
    pub fn uniform(timeout: Duration) -> Self {
        ClientConfig {
            connect_timeout: timeout,
            read_timeout: timeout,
            write_timeout: timeout,
            ..ClientConfig::default()
        }
    }
}

/// The client's wire: a plain socket, or one wrapped in the chaos shim.
#[derive(Debug)]
enum ClientStream {
    Plain(TcpStream),
    Fault(FaultStream<TcpStream>),
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Plain(s) => s.read(buf),
            ClientStream::Fault(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Plain(s) => s.write(buf),
            ClientStream::Fault(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Plain(s) => s.flush(),
            ClientStream::Fault(s) => s.flush(),
        }
    }
}

/// A persistent HTTP/1.1 client: sends `Connection: keep-alive` and
/// reuses one socket across sequential requests, falling back to a
/// fresh dial when the server closed the idle connection (a stale
/// keep-alive redial is free). Fresh-dial failures are retried a bounded
/// number of times with jittered exponential backoff
/// ([`ClientConfig::retries`]), which the load generator and the
/// examples inherit. The load generator holds one client per worker
/// thread and the examples one per process, so steady-state traffic pays
/// zero TCP handshakes.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    config: ClientConfig,
    jitter: SplitMix64,
    fault: Option<FaultPlan>,
    conn: Option<BufReader<ClientStream>>,
}

impl HttpClient {
    /// A client for `addr` with `timeout` applied to connect, read, and
    /// write, and the default bounded-retry schedule. No I/O happens
    /// until the first request.
    #[must_use]
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self::with_config(addr, ClientConfig::uniform(timeout))
    }

    /// A client with explicit transport tuning.
    #[must_use]
    pub fn with_config(addr: SocketAddr, config: ClientConfig) -> Self {
        let jitter = SplitMix64::new(config.jitter_seed ^ u64::from(addr.port()));
        HttpClient { addr, config, jitter, fault: None, conn: None }
    }

    /// Inject deterministic socket faults into every connection this
    /// client dials (chaos testing: the retry/backoff path is the system
    /// under test).
    #[must_use]
    pub fn with_fault_injection(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Send `method path` with `body`, returning `(status, body)`. The
    /// service's endpoints are pure queries, so replaying a request on a
    /// stale reused connection — or after a transport failure — is safe.
    ///
    /// # Errors
    ///
    /// [`AcsError::Io`] on connect/read/write failures that survive the
    /// retry budget and [`AcsError::Protocol`] on response-framing
    /// violations.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), AcsError> {
        if self.conn.is_some() {
            // A reused socket may have been closed by the server since
            // the last exchange; one redial distinguishes a stale
            // connection from a dead server and does not consume the
            // retry budget.
            if let Ok(response) = self.round_trip(method, path, body) {
                return Ok(response);
            }
            self.conn = None;
        }
        let mut attempt = 0u32;
        loop {
            match self.round_trip(method, path, body) {
                Ok(response) => return Ok(response),
                Err(e) if attempt < self.config.retries => {
                    let _ = e; // every transport error is retryable: queries are pure
                    std::thread::sleep(self.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Backoff before retry `attempt`: `base * 2^attempt` plus uniform
    /// jitter in `[0, base)`, capped. Jitter decorrelates concurrent
    /// clients hammering a shedding server.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.config.backoff_base;
        let exp = base.saturating_mul(1u32 << attempt.min(16));
        let jitter = base.mul_f64(self.jitter.next_f64());
        (exp + jitter).min(self.config.backoff_cap)
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), AcsError> {
        let io_err =
            |e: std::io::Error| AcsError::Io { path: self.addr.to_string(), reason: e.to_string() };
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
                .map_err(io_err)?;
            stream.set_read_timeout(Some(self.config.read_timeout)).map_err(io_err)?;
            stream.set_write_timeout(Some(self.config.write_timeout)).map_err(io_err)?;
            // Without this, Nagle holds each request back until the
            // previous response's delayed ACK (~40 ms) — fatal to a
            // persistent connection trading small messages.
            let _ = stream.set_nodelay(true);
            let stream = match &self.fault {
                None => ClientStream::Plain(stream),
                Some(plan) => ClientStream::Fault(FaultStream::new(
                    stream,
                    plan.reseeded(plan.seed ^ self.jitter.next_u64()),
                )),
            };
            self.conn = Some(BufReader::new(stream));
        }
        let Some(reader) = self.conn.as_mut() else {
            return Err(protocol("client connection vanished before use"));
        };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            self.addr,
            body.len(),
        );
        let outcome = reader
            .get_mut()
            .write_all(request.as_bytes())
            .map_err(io_err)
            .and_then(|()| read_framed_response(reader));
        match outcome {
            Ok((status, body, server_keeps)) => {
                if !server_keeps {
                    self.conn = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                // Never reuse a connection in an unknown framing state.
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Decode `%XX` escapes in a path segment (`+` is left alone: these are
/// path segments, not form data). Operates on raw bytes — a `%` followed
/// by a multibyte UTF-8 sequence must not be treated as a string slice
/// boundary.
#[must_use]
pub fn percent_decode(s: &str) -> String {
    fn hex_val(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                out.push((hi << 4) | lo);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_spaces_and_literals() {
        assert_eq!(percent_decode("A100%2080GB"), "A100 80GB");
        assert_eq!(percent_decode("H100%20SXM"), "H100 SXM");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("trailing%2"), "trailing%2");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn percent_decoding_never_panics_on_multibyte_input() {
        // A '%' directly followed by a multibyte UTF-8 char is valid UTF-8
        // on the wire; slicing the &str two bytes past the '%' would land
        // inside the char and panic. Decode must stay byte-oriented.
        assert_eq!(percent_decode("%aé"), "%aé");
        assert_eq!(percent_decode("%é"), "%é");
        assert_eq!(percent_decode("é%20è"), "é è");
        // Escaped multibyte sequences still decode.
        assert_eq!(percent_decode("caf%C3%A9"), "café");
        // An escape decoding to invalid UTF-8 is replaced, not panicked on.
        assert_eq!(percent_decode("%ff"), "\u{fffd}");
    }

    /// What [`parse_request_bytes`] made of one whole buffer: `Ok(None)`
    /// for `NeedMore`, the framed `(method, path, body, keep_alive)`, or
    /// the error text.
    type Outcome = Result<Option<(String, String, String, bool)>, String>;

    fn outcome(wire: &[u8]) -> Outcome {
        match parse_request_bytes(wire) {
            Parsed::NeedMore => Ok(None),
            Parsed::Complete { request, consumed, keep_alive } => {
                assert_eq!(consumed, wire.len(), "{:?}", String::from_utf8_lossy(wire));
                Ok(Some((request.method, request.path, request.body, keep_alive)))
            }
            Parsed::Invalid(e) => Err(e.to_string()),
        }
    }

    #[test]
    fn incremental_parser_frames_and_rejects_the_wire_table() {
        let ok = |method: &str, path: &str, body: &str, keep_alive: bool| -> Outcome {
            Ok(Some((method.to_owned(), path.to_owned(), body.to_owned(), keep_alive)))
        };
        let bad = |reason: &str| -> Outcome { Err(protocol(reason).to_string()) };
        let mut too_many_headers = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            too_many_headers.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        too_many_headers.extend_from_slice(b"\r\n");
        let table: Vec<(Vec<u8>, Outcome)> = vec![
            (
                b"GET /v1/devices HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
                ok("GET", "/v1/devices", "", true),
            ),
            (
                b"POST /v1/screen HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}".to_vec(),
                ok("POST", "/v1/screen", "{}", true),
            ),
            (b"GET /v1/devices HTTP/1.0\r\n\r\n".to_vec(), ok("GET", "/v1/devices", "", false)),
            (
                b"GET /v1/devices HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
                ok("GET", "/v1/devices", "", false),
            ),
            (
                b"GET /v1/devices HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec(),
                ok("GET", "/v1/devices", "", true),
            ),
            (b"\r\n".to_vec(), bad("empty request line")),
            (b"GET\r\n\r\n".to_vec(), bad("request line missing target")),
            (b"GET /x\r\n\r\n".to_vec(), bad("request line missing version")),
            (b"GET /x SPDY/9\r\n\r\n".to_vec(), bad("unsupported protocol version SPDY/9")),
            (
                b"GET /x HTTP/1.1\r\nbogus header\r\n\r\n".to_vec(),
                bad("malformed header line \"bogus header\""),
            ),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx".to_vec(),
                bad("duplicate Content-Length header"),
            ),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
                bad("unparseable Content-Length \" nope\""),
            ),
            (
                format!("GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1)
                    .into_bytes(),
                bad("body of 1048577 bytes exceeds the 1048576-byte limit"),
            ),
            (
                [b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n".as_slice(), &[0xff, 0xfe]]
                    .concat(),
                bad("request body is not UTF-8"),
            ),
            (
                [b"GET /x HTTP/1.1\r\nX: ".as_slice(), &vec![b'a'; MAX_LINE_BYTES + 2], b"\r\n\r\n"]
                    .concat(),
                bad("header line exceeds 8 KiB"),
            ),
            (too_many_headers, bad("too many headers")),
            // Truncations of a valid request wait for more bytes.
            (b"POST /v1/screen HTTP/1.1\r\nContent-Length: 2\r\n\r\n{".to_vec(), Ok(None)),
            (b"POST /v1/screen HTTP/1.1\r\nContent-Le".to_vec(), Ok(None)),
            (b"POST /v1/scr".to_vec(), Ok(None)),
        ];
        for (wire, expected) in &table {
            assert_eq!(&outcome(wire), expected, "wire {:?}", String::from_utf8_lossy(wire));
        }
    }

    #[test]
    fn incremental_parser_frames_pipelined_requests_in_order() {
        let wire = b"POST /v1/screen HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /v1/devices HTTP/1.1\r\n\r\nGET /v1/metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut at = 0usize;
        let mut seen = Vec::new();
        loop {
            match parse_request_bytes(&wire[at..]) {
                Parsed::Complete { request, consumed, keep_alive } => {
                    at += consumed;
                    seen.push((request.method, request.path, request.body, keep_alive));
                }
                Parsed::NeedMore => break,
                Parsed::Invalid(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(at, wire.len(), "pipelined parse must consume the buffer exactly");
        assert_eq!(
            seen,
            vec![
                ("POST".into(), "/v1/screen".into(), "abc".into(), true),
                ("GET".into(), "/v1/devices".into(), String::new(), true),
                ("GET".into(), "/v1/metrics".into(), String::new(), false),
            ]
        );
    }

    #[test]
    fn incremental_parser_survives_byte_at_a_time_arrival() {
        // FaultStream tears reads into 1-3 byte fragments; the state
        // machine re-parses the accumulated buffer after each. Every
        // proper prefix must be NeedMore, the full buffer Complete.
        let wire = b"POST /v1/simulate HTTP/1.1\r\nHost: a\r\nContent-Length: 4\r\n\r\n{\"a\"";
        for cut in 0..wire.len() {
            match parse_request_bytes(&wire[..cut]) {
                Parsed::NeedMore => {}
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
        match parse_request_bytes(wire) {
            Parsed::Complete { request, consumed, keep_alive } => {
                assert_eq!(consumed, wire.len());
                assert!(keep_alive);
                assert_eq!(request.body, "{\"a\"");
            }
            other => panic!("full wire: {other:?}"),
        }
    }

    #[test]
    fn response_bytes_frame_head_extras_and_body() {
        let wire = response_bytes(200, "{\"ok\":true}", true, &[]);
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: keep-alive\r\n\r\n{\"ok\":true}"
        );
        let shed = response_bytes(503, "{}", false, &[("Retry-After", "1")]);
        let text = String::from_utf8(shed.clone()).unwrap();
        assert!(text.contains("\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{}"), "{text}");
        // Framing into a connection's buffer appends after what it holds.
        let mut out = b"queued".to_vec();
        write_response(&mut out, 503, "{}", false, &[("Retry-After", "1")]);
        assert_eq!(out[..6], *b"queued");
        assert_eq!(out[6..], shed);
    }

    #[test]
    fn reason_phrases_cover_the_emitted_statuses() {
        for s in [200, 400, 404, 405, 422, 500, 503] {
            assert!(!reason_phrase(s).is_empty());
        }
    }

    #[test]
    fn chunked_responses_round_trip_through_the_client_decoder() {
        let mut wire = Vec::new();
        let mut writer = ChunkedWriter::new(&mut wire, true);
        writer.write_line("{\"variant\":0}");
        writer.write_line("{\"variant\":1}");
        writer.write_line("{\"summary\":true}");
        writer.finish();
        // One chunk per line, the line's newline inside the chunk.
        assert!(wire.starts_with(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
              Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n\
              e\r\n{\"variant\":0}\n\r\n"
        ));
        assert!(wire.ends_with(b"11\r\n{\"summary\":true}\n\r\n0\r\n\r\n"));
        let mut reader = std::io::BufReader::new(&wire[..]);
        let (status, body, keep) = read_framed_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(keep, "chunked responses are framed, so keep-alive survives");
        assert_eq!(body, "{\"variant\":0}\n{\"variant\":1}\n{\"summary\":true}\n");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "decoder must consume the terminator exactly");
    }

    #[test]
    fn chunk_extensions_and_trailers_are_tolerated() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     5;ext=1\r\nhello\r\n0\r\nX-Trailer: 1\r\n\r\n";
        let mut reader = std::io::BufReader::new(&wire[..]);
        let (status, body, _) = read_framed_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "hello");
    }

    #[test]
    fn torn_chunked_streams_are_protocol_errors() {
        for wire in [
            // Truncated mid-chunk-data.
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\nhal"[..],
            // Missing terminator after the last chunk.
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n"[..],
            // Garbage chunk size.
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"[..],
            // Chunk data not CRLF-terminated.
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhelloXX0\r\n\r\n"[..],
        ] {
            let mut reader = std::io::BufReader::new(wire);
            let err = read_framed_response(&mut reader).unwrap_err();
            assert_eq!(err.kind(), "protocol", "wire {:?}", String::from_utf8_lossy(wire));
        }
    }

    #[test]
    fn oversized_chunked_responses_are_bounded() {
        // A chunk claiming more than MAX_RESPONSE_BYTES must be rejected
        // before the decoder tries to materialise it.
        let wire = format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n",
            MAX_RESPONSE_BYTES + 1
        );
        let mut reader = std::io::BufReader::new(wire.as_bytes());
        let err = read_framed_response(&mut reader).unwrap_err();
        assert_eq!(err.kind(), "protocol");
    }

    #[test]
    fn body_limit_json_of_multibyte_strings_parses_in_linear_time() {
        // Every POST handler parses its body first. The string scanner
        // once re-validated the rest of the input per character, so a
        // 256 KiB body of multibyte text pinned a worker for ~34 s.
        use acs_errors::json::{parse, Value};
        let pieces = ["plain ascii run ", "héllo – ✓ 漢字 🚀 ", "quote \" back\\slash\n", "ü"];
        let mut items = Vec::new();
        let mut len = 2; // the array's brackets
        for i in 0.. {
            let item = Value::String(pieces[i % pieces.len()].repeat(1 + i % 7));
            len += item.to_json().len() + 1;
            if len > MAX_BODY_BYTES - 512 {
                break;
            }
            items.push(item);
        }
        let short = MAX_BODY_BYTES - Value::Array(items.clone()).to_json().len();
        // `,"x…x"` fills the body to exactly the limit.
        items.push(Value::String("x".repeat(short - 3)));
        let doc = Value::Array(items).to_json();
        assert_eq!(doc.len(), MAX_BODY_BYTES);

        let started = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.to_json(), doc, "the body round-trips byte for byte");
        assert!(elapsed < Duration::from_secs(5), "1 MiB body parsed in {elapsed:?}");
    }
}
