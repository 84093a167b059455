//! The benchmark's own closed-loop HTTP/1.1 client. It shares no code
//! with the server crate, so a change to the server cannot move the
//! yardstick. Requests arrive pre-encoded; responses are framed in place
//! in one reusable buffer per connection (Content-Length and chunked),
//! so the timed loop allocates nothing per request.

use crate::gen::Request;
use crate::Sample;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// FNV-1a, streamed over a body's parts.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.eat(bytes);
    h.finish()
}

/// One complete response at the front of a connection's buffer.
#[derive(Debug, Clone, Copy)]
pub struct Framed {
    pub status: u16,
    /// Bytes of the buffer the response occupies.
    pub consumed: usize,
    body_start: usize,
    /// `Some(len)` for a Content-Length body, `None` for a chunked one.
    body_len: Option<usize>,
}

fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    hay.get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

fn parse_usize(digits: &[u8], radix: u32) -> Result<usize, String> {
    let text = std::str::from_utf8(digits).map_err(|_| "non-ASCII length".to_owned())?;
    usize::from_str_radix(text.trim(), radix).map_err(|e| format!("bad length {text:?}: {e}"))
}

/// Frame one response at the start of `buf`: `Ok(None)` while it is
/// still incomplete.
pub fn frame(buf: &[u8]) -> Result<Option<Framed>, String> {
    let Some(head_end) = find(buf, b"\r\n\r\n", 0) else {
        return Ok(None);
    };
    let head = &buf[..head_end];
    if head.len() < 12 || !head.starts_with(b"HTTP/1.1 ") {
        return Err("malformed status line".to_owned());
    }
    let status = parse_usize(&head[9..12], 10)? as u16;
    let mut body_len = None;
    let mut chunked = false;
    for line in head.split(|&b| b == b'\n').skip(1) {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let (name, value) = (&line[..colon], &line[colon + 1..]);
        if name.eq_ignore_ascii_case(b"content-length") {
            body_len = Some(parse_usize(value, 10)?);
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            chunked = value.trim_ascii().eq_ignore_ascii_case(b"chunked");
        }
    }
    let body_start = head_end + 4;
    if chunked {
        let mut at = body_start;
        loop {
            let Some(eol) = find(buf, b"\r\n", at) else {
                return Ok(None);
            };
            let size_field = buf[at..eol].split(|&b| b == b';').next().unwrap_or(&[]);
            let size = parse_usize(size_field, 16)?;
            let next = eol + 2 + size + 2;
            if buf.len() < next {
                return Ok(None);
            }
            if size == 0 {
                return Ok(Some(Framed {
                    status,
                    consumed: next,
                    body_start,
                    body_len: None,
                }));
            }
            at = next;
        }
    }
    let len = body_len.ok_or("response has neither Content-Length nor chunked framing")?;
    if buf.len() < body_start + len {
        return Ok(None);
    }
    Ok(Some(Framed {
        status,
        consumed: body_start + len,
        body_start,
        body_len: Some(len),
    }))
}

impl Framed {
    /// Visit the body's bytes in order, de-chunked.
    pub fn for_each_part(&self, buf: &[u8], mut f: impl FnMut(&[u8])) {
        if let Some(len) = self.body_len {
            f(&buf[self.body_start..self.body_start + len]);
            return;
        }
        let mut at = self.body_start;
        while let Some(eol) = find(buf, b"\r\n", at) {
            let size_field = buf[at..eol].split(|&b| b == b';').next().unwrap_or(&[]);
            let size = parse_usize(size_field, 16).unwrap_or(0);
            if size == 0 {
                return;
            }
            f(&buf[eol + 2..eol + 2 + size]);
            at = eol + 2 + size + 2;
        }
    }

    pub fn body_hash(&self, buf: &[u8]) -> u64 {
        let mut h = Fnv::new();
        self.for_each_part(buf, |part| h.eat(part));
        h.finish()
    }

    pub fn body(&self, buf: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.for_each_part(buf, |part| out.extend_from_slice(part));
        out
    }
}

/// One keep-alive connection with its receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 20],
            start: 0,
            end: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// A response already complete in the buffer, if any.
    pub fn buffered(&self) -> Result<Option<Framed>, String> {
        frame(&self.buf[self.start..self.end])
    }

    /// Block until one complete response is buffered.
    pub fn next(&mut self) -> Result<Framed, String> {
        loop {
            if let Some(f) = self.buffered()? {
                return Ok(f);
            }
            if self.end == self.buf.len() {
                if self.start > 0 {
                    self.buf.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                } else {
                    let grown = self.buf.len() * 2;
                    self.buf.resize(grown, 0);
                }
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err("connection closed by server".to_owned()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// The bytes a framed response was framed against.
    pub fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    pub fn consume(&mut self, f: &Framed) {
        self.start += f.consumed;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// One request, one response body (for set-up and checks).
    pub fn exchange(&mut self, wire: &[u8]) -> Result<(u16, Vec<u8>), String> {
        self.send(wire)?;
        let f = self.next()?;
        let out = (f.status, f.body(self.data()));
        self.consume(&f);
        Ok(out)
    }
}

/// Where a connection's next request comes from.
pub enum Source<'a> {
    /// Cycle through this connection's own order of request indices.
    Cyclic(&'a [u32]),
    /// Take the next index of a stream shared by every connection, up
    /// to `limit`.
    Shared(&'a AtomicUsize, usize),
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// One per successful response completed inside the window.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// `(request index, body hash)` for requests marked for hashing.
    pub hashes: Vec<(u32, u64)>,
    /// `(request index, body)` for requests marked for capture (each
    /// captured once).
    pub captures: Vec<(u32, Vec<u8>)>,
    pub errors: Vec<String>,
}

/// Per-index marks: hash the body, capture the body.
pub struct Marks<'a> {
    pub hash: &'a [bool],
    pub capture: &'a [bool],
}

/// Drive one connection as a closed loop: keep `depth` requests in
/// flight, send the next only when a response completes, stop sending
/// when the `window` (start, deadline) closes or the source runs dry,
/// and drain what is in flight. Latency runs from writing a request to
/// its last byte.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    mut source: Source<'_>,
    depth: usize,
    window: Option<(Instant, Instant)>,
    marks: &Marks<'_>,
) -> Tally {
    let deadline = window.map(|w| w.1);
    let mut tally = Tally::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.failed += 1;
            tally.errors.push(e);
            return tally;
        }
    };
    let mut captured = vec![false; requests.len()];
    let mut inflight: VecDeque<(u32, Instant)> = VecDeque::with_capacity(depth);
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut position = 0usize;
    let mut stopping = false;
    let placeholder = Instant::now();
    loop {
        if !stopping {
            let fill_from = inflight.len();
            while inflight.len() < depth {
                let index = match &mut source {
                    Source::Cyclic(order) => {
                        let i = order[position % order.len()];
                        position += 1;
                        i
                    }
                    Source::Shared(next, limit) => {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= *limit {
                            stopping = true;
                            break;
                        }
                        i as u32
                    }
                };
                out.extend_from_slice(&requests[index as usize].wire);
                inflight.push_back((index, placeholder));
            }
            if !out.is_empty() {
                let sent = Instant::now();
                for slot in inflight.iter_mut().skip(fill_from) {
                    slot.1 = sent;
                }
                if let Err(e) = conn.send(&out) {
                    tally.failed += inflight.len() as u64;
                    tally.attempted += inflight.len() as u64;
                    tally.errors.push(e);
                    return tally;
                }
                out.clear();
            }
        }
        if inflight.is_empty() {
            return tally;
        }
        let mut framed = match conn.next() {
            Ok(f) => Some(f),
            Err(e) => {
                tally.failed += inflight.len() as u64;
                tally.attempted += inflight.len() as u64;
                tally.errors.push(e);
                return tally;
            }
        };
        let now = Instant::now();
        while let Some(f) = framed {
            let Some((index, sent)) = inflight.pop_front() else {
                tally.failed += 1;
                tally.errors.push("response without a request".to_owned());
                return tally;
            };
            let request = &requests[index as usize];
            tally.attempted += 1;
            if f.status != 200 {
                tally.failed += 1;
                if tally.errors.len() < 8 {
                    let body = String::from_utf8_lossy(&f.body(conn.data())).into_owned();
                    tally.errors.push(format!(
                        "status {} for {} {}: {body}",
                        f.status, request.method, request.path
                    ));
                }
            } else {
                if let Some((start, _)) = window.filter(|w| now <= w.1) {
                    tally.samples.push(Sample {
                        class: request.class.index() as u8,
                        latency_ns: u32::try_from(now.duration_since(sent).as_nanos())
                            .unwrap_or(u32::MAX),
                        at_ms: now.duration_since(start).as_millis() as u32,
                        points: request.points as u32,
                    });
                }
                let i = index as usize;
                if marks.hash[i] {
                    tally.hashes.push((index, f.body_hash(conn.data())));
                }
                if marks.capture[i] && !captured[i] {
                    captured[i] = true;
                    tally.captures.push((index, f.body(conn.data())));
                }
            }
            conn.consume(&f);
            framed = match conn.buffered() {
                Ok(next) => next,
                Err(e) => {
                    tally.failed += 1;
                    tally.errors.push(e);
                    return tally;
                }
            };
        }
        if deadline.is_some_and(|d| now >= d) {
            stopping = true;
        }
    }
}
