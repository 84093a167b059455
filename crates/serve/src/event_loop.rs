//! The serve tier: N shard workers, each owning a readiness loop, a raw
//! front cache of byte-identical `/v1/screen` and `/v1/simulate`
//! repeats, and a private slice of the what-if response cache.
//!
//! Connections are hashed to workers by a digest of their peer address,
//! so a client's keep-alive session stays on one worker and its repeated
//! queries hit that worker's caches without any cross-shard locking.
//! Each connection is a small state machine: bytes accumulate in an
//! input buffer, complete requests are peeled off by the incremental
//! parser ([`crate::http::parse_request_bytes`]) — several per readiness
//! event when the client pipelines — and responses are appended to an
//! output buffer drained on write-readiness, which keeps them in
//! arrival order by construction. Chunked `/v1/whatif` streams are
//! written into the same output buffer and drained the same way, so a
//! slow reader never blocks the worker.
//!
//! Admission control sheds by priority, not arrival order: GETs and
//! raw-front-cache hits always go through (they cost microseconds),
//! while expensive unique POST work beyond a per-poll-round budget is
//! turned away with `503` + `Retry-After` so cached traffic survives
//! overload.
//!
//! Only the readiness source varies by platform ([`crate::reactor`]):
//! `epoll` where it exists, a scan poller elsewhere. Both drive this
//! same state machine.

use crate::chaos::{FaultPlan, FaultStream};
use crate::handlers::{self, AppState};
use crate::http::{self, HttpRequest, Parsed};
use crate::reactor::{
    EpollEvent, Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::ServeConfig;
use acs_cache::CacheLane;
use acs_errors::AcsError;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Token reserved for the acceptor's wake pipe.
const WAKE: u64 = u64::MAX;

/// Poll timeout: bounds how stale the deadline/idle sweeps can get and
/// how long shutdown takes to observe the stop flag without a wake.
const POLL_MS: i32 = 50;

/// Per-worker raw front-cache entry ceiling; at capacity the map is
/// cleared wholesale, and a cleared entry's next request recomputes
/// its answer from the lattice, plan and step-cost tables.
const RAW_CACHE_CAP: usize = 4096;

/// Backpressure high-water mark: while a connection has this much
/// response data buffered, further pipelined requests stay unparsed in
/// its input buffer until the client drains some of it.
const OUT_HIGH_WATER: usize = 4 << 20;

/// Stop reading from a connection whose input buffer is already this
/// large; the level-triggered readiness source re-delivers the
/// readiness once the parser has caught up.
const IN_HIGH_WATER: usize = 8 << 20;

/// FNV-1a over length-prefixed parts (so `("a","bc")` and `("ab","c")`
/// cannot collide structurally).
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part);
    }
    h
}

/// Timing policy + shed budget, cloned from [`ServeConfig`].
#[derive(Clone)]
struct LoopPolicy {
    io_timeout: Duration,
    request_deadline: Duration,
    keepalive_idle: Duration,
    /// Expensive-request admissions per poll round; beyond it, unique
    /// POST work is shed with `Retry-After` while cheap traffic flows.
    expensive_budget: usize,
}

/// Every shard worker, built but not yet running, plus the acceptor's
/// route to each: the write end of its wake pipe and its inbox.
pub(crate) struct EventLoop {
    workers: Vec<Worker>,
    routes: Vec<(UnixStream, Arc<Mutex<Vec<TcpStream>>>)>,
}

impl EventLoop {
    /// Build every worker's poller and wake pipe, so a setup failure
    /// surfaces before anything is served.
    pub(crate) fn new(
        config: &ServeConfig,
        state: &Arc<AppState>,
        stop: &Arc<AtomicBool>,
    ) -> io::Result<Self> {
        let count = config.workers.max(1);
        let policy = LoopPolicy {
            io_timeout: config.io_timeout,
            request_deadline: config.request_deadline,
            keepalive_idle: config.keepalive_idle,
            expensive_budget: config.queue_depth.max(1),
        };
        let chaos = config.chaos_seed.map(FaultPlan::gentle);
        let conn_seq = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::with_capacity(count);
        let mut routes = Vec::with_capacity(count);
        for index in 0..count {
            let poller = Poller::new()?;
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            poller.add(rx.as_raw_fd(), EPOLLIN, WAKE)?;
            let inbox = Arc::new(Mutex::new(Vec::new()));
            routes.push((tx, Arc::clone(&inbox)));
            workers.push(Worker {
                poller,
                wake: rx,
                inbox,
                state: Arc::clone(state),
                stop: Arc::clone(stop),
                lane: CacheLane::new(index, count),
                policy: policy.clone(),
                chaos: chaos.clone(),
                conn_seq: Arc::clone(&conn_seq),
                conns: Vec::new(),
                free: Vec::new(),
                raw: HashMap::new(),
                budget: policy.expensive_budget,
            });
        }
        Ok(EventLoop { workers, routes })
    }

    /// Accept on the calling thread and serve on the workers until
    /// `stop` is set; every worker is joined before returning.
    pub(crate) fn run(self, listener: &TcpListener, stop: &AtomicBool) {
        let handles: Vec<_> = self
            .workers
            .into_iter()
            .map(|mut worker| std::thread::spawn(move || worker.run()))
            .collect();
        loop {
            let (stream, peer) = match listener.accept() {
                Ok(pair) => pair,
                Err(_) => {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
            };
            if stop.load(Ordering::SeqCst) {
                break; // the wake-up connection, or a straggler: drop it
            }
            // Keep-alive makes Nagle hostile: a small response followed
            // by the client's next small request deadlocks against
            // delayed ACKs for ~40 ms per round trip.
            let _ = stream.set_nodelay(true);
            // Shard by peer-address digest: one client session, one
            // worker, one cache lane.
            let shard = (fnv1a(&[peer.to_string().as_bytes()]) as usize) % self.routes.len();
            let (waker, inbox) = &self.routes[shard];
            inbox.lock().unwrap_or_else(PoisonError::into_inner).push(stream);
            // A full pipe already means a pending wake; losing this byte
            // is harmless (workers also drain their inbox every round).
            let _ = (&*waker).write(&[1]);
        }

        for (waker, _) in &self.routes {
            let _ = (&*waker).write(&[1]);
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// A connection's transport: bare socket, or the chaos shim around one.
enum Wire {
    Plain(TcpStream),
    Chaos(FaultStream<TcpStream>),
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Wire::Plain(s) => s.read(buf),
            Wire::Chaos(s) => s.read(buf),
        }
    }
}

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Wire::Plain(s) => s.write(buf),
            Wire::Chaos(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Wire::Plain(s) => s.flush(),
            Wire::Chaos(s) => s.flush(),
        }
    }
}

/// One connection's state machine.
struct Conn {
    wire: Wire,
    fd: i32,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_at: usize,
    /// False once this session must end (Connection: close, protocol
    /// error, panic response): the connection closes when `outbuf`
    /// drains.
    keep_open: bool,
    /// Peer sent EOF; drain what's buffered, then close.
    eof: bool,
    /// Wall-clock bound on the partial request in `inbuf` (the
    /// slow-loris defence): armed when its first bytes are buffered,
    /// cleared when it is consumed.
    deadline: Option<Instant>,
    idle_since: Instant,
    /// Set while `outbuf` has undrained bytes; refreshed on every write
    /// that makes progress. Exceeding `io_timeout` without progress
    /// closes the connection (the non-blocking analogue of a socket
    /// write timeout).
    write_since: Option<Instant>,
    interest: u32,
    /// Chaos fault tally, reported to telemetry when the connection
    /// closes.
    tally: Option<Arc<AtomicU64>>,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_at
    }
}

/// A cached `(status, body)` for one exact request byte-string.
struct RawEntry {
    method: String,
    path: String,
    body: String,
    status: u16,
    response: String,
}

struct Worker {
    poller: Poller,
    wake: UnixStream,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    lane: CacheLane,
    policy: LoopPolicy,
    chaos: Option<FaultPlan>,
    conn_seq: Arc<AtomicU64>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    raw: HashMap<u64, RawEntry>,
    budget: usize,
}

impl Worker {
    fn run(&mut self) {
        let mut events = [EpollEvent::default(); 128];
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let n = self.poller.wait(&mut events, POLL_MS).unwrap_or(0);
            if n > 0 {
                self.state.record_reactor_events(n as u64);
            }
            // The shed budget is per poll round: a busy loop iterates
            // fast, so the budget only binds when one readiness burst
            // carries more unique work than a round can admit.
            self.budget = self.policy.expensive_budget;
            self.accept_pending();
            for event in &events[..n] {
                if event.data == WAKE {
                    self.drain_wake();
                } else {
                    self.handle_event(event.data as usize, event.events);
                }
            }
            self.sweep();
        }
        for index in 0..self.conns.len() {
            if let Some(conn) = self.conns[index].take() {
                self.close(conn);
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake.read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Install every connection the acceptor has routed to this worker.
    fn accept_pending(&mut self) {
        let streams: Vec<TcpStream> = {
            let mut inbox = self.inbox.lock().unwrap_or_else(PoisonError::into_inner);
            inbox.drain(..).collect()
        };
        for stream in streams {
            self.install(stream);
        }
    }

    fn install(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        let (wire, tally) = match &self.chaos {
            None => (Wire::Plain(stream), None),
            Some(plan) => {
                // Each connection replays its own schedule: seed mixed
                // with a global ordinal via the SplitMix64 increment.
                let n = self.conn_seq.fetch_add(1, Ordering::Relaxed);
                let per_conn =
                    plan.reseeded(plan.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let tally = Arc::new(AtomicU64::new(0));
                (
                    Wire::Chaos(FaultStream::new(stream, per_conn).with_tally(Arc::clone(&tally))),
                    Some(tally),
                )
            }
        };
        let index = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.poller.add(fd, interest, index as u64).is_err() {
            self.free.push(index);
            return;
        }
        self.conns[index] = Some(Conn {
            wire,
            fd,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_at: 0,
            keep_open: true,
            eof: false,
            deadline: None,
            idle_since: Instant::now(),
            write_since: None,
            interest,
            tally,
        });
    }

    fn handle_event(&mut self, index: usize, mask: u32) {
        // Stale events for a slot already closed this round are possible;
        // ignore them.
        let Some(mut conn) = self.conns.get_mut(index).and_then(Option::take) else {
            return;
        };
        let mut close = mask & (EPOLLERR | EPOLLHUP) != 0 && conn.pending_out() == 0;
        if !close && mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            close = self.read_and_process(&mut conn);
        }
        if !close && conn.pending_out() > 0 {
            close = drive_write(&mut conn);
        }
        if !close && conn.pending_out() == 0 && (!conn.keep_open || conn.eof) {
            close = true;
        }
        if close {
            self.close(conn);
            self.free.push(index);
        } else {
            self.update_interest(index, &mut conn);
            self.conns[index] = Some(conn);
        }
    }

    /// Drain the socket into the input buffer, peel off every complete
    /// request, dispatch each, and append the responses in order.
    /// Returns true when the connection should close immediately.
    fn read_and_process(&mut self, conn: &mut Conn) -> bool {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if conn.inbuf.len() >= IN_HIGH_WATER {
                break;
            }
            match conn.wire.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    conn.idle_since = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
        while conn.keep_open && !conn.inbuf.is_empty() && conn.pending_out() < OUT_HIGH_WATER {
            match http::parse_request_bytes(&conn.inbuf) {
                Parsed::NeedMore => break,
                Parsed::Invalid(e) => {
                    // The connection's framing state is unknown after a
                    // malformed request; answer and hang up.
                    http::write_response(
                        &mut conn.outbuf,
                        handlers::status_for(&e),
                        &handlers::error_body(&e),
                        false,
                        &[],
                    );
                    conn.keep_open = false;
                    conn.inbuf.clear();
                }
                Parsed::Complete { request, consumed, keep_alive } => {
                    conn.inbuf.drain(..consumed);
                    // Each request gets its own deadline: bytes of the
                    // next one that rode in with this one re-arm it below.
                    conn.deadline = None;
                    if !self.dispatch(&request, keep_alive, &mut conn.outbuf) {
                        conn.keep_open = false;
                        conn.inbuf.clear();
                    }
                }
            }
        }
        if conn.inbuf.is_empty() {
            conn.deadline = None;
        } else if conn.deadline.is_none() {
            // A request's first bytes are buffered: its wall clock
            // starts (the slow-loris defence).
            conn.deadline = Some(Instant::now() + self.policy.request_deadline);
        }
        // EOF with half a request buffered: nothing further can arrive,
        // so once the buffered responses drain the session is over.
        conn.eof && conn.pending_out() == 0
    }

    /// Answer one parsed request into `outbuf`. Returns whether the
    /// session may continue (`false` after `Connection: close` or a
    /// panic response).
    fn dispatch(&mut self, request: &HttpRequest, keep_alive: bool, outbuf: &mut Vec<u8>) -> bool {
        let t0 = Instant::now();
        let path = request.path.split('?').next().unwrap_or("").to_owned();
        let expensive = request.method == "POST";
        let raw_key = (expensive && matches!(path.as_str(), "/v1/screen" | "/v1/simulate"))
            .then(|| {
                fnv1a(&[request.method.as_bytes(), path.as_bytes(), request.body.as_bytes()])
            });
        if let Some(key) = raw_key {
            if let Some(entry) = self.raw.get(&key) {
                if entry.method == request.method
                    && entry.path == path
                    && entry.body == request.body
                {
                    http::write_response(outbuf, entry.status, &entry.response, keep_alive, &[]);
                    self.state.record_raw_hit(
                        handlers::endpoint_index(&path),
                        t0.elapsed().as_secs_f64() * 1e6,
                    );
                    return keep_alive;
                }
            }
        }
        if expensive {
            if self.budget == 0 {
                // Priority shed: unique expensive work is turned away
                // with backoff guidance while cheap cached traffic keeps
                // flowing — the inverse of a FIFO 503.
                let e = AcsError::Overloaded {
                    reason: "expensive request shed under load; retry with backoff".to_owned(),
                };
                http::write_response(
                    outbuf,
                    handlers::status_for(&e),
                    &handlers::error_body(&e),
                    keep_alive,
                    &[("Retry-After", "1")],
                );
                self.state.record_shed_expensive();
                return keep_alive;
            }
            self.budget -= 1;
        }
        // A panic anywhere in handling must not kill the worker: contain
        // the unwind, drop whatever the handler had appended, and answer
        // with a taxonomy-tagged 500.
        let state = Arc::clone(&self.state);
        let lane = self.lane;
        let response_start = outbuf.len();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if request.method == "POST" && path == "/v1/whatif" {
                // Streamed: the handler frames the chunked response
                // itself, straight into the output buffer; the drain to
                // the socket is driven by write-readiness.
                handlers::handle_whatif_streaming_lane(
                    &state,
                    request,
                    outbuf,
                    keep_alive,
                    Some(lane),
                )
                .err()
            } else {
                Some(handlers::handle_lane(&state, request, Some(lane)))
            }
        }));
        match outcome {
            Ok(Some((status, mut body))) => {
                http::write_response(outbuf, status, &body, keep_alive, &[]);
                if let (Some(key), 200) = (raw_key, status) {
                    if self.raw.len() >= RAW_CACHE_CAP {
                        self.raw.clear();
                    }
                    // Bodies are built with spare capacity; the cache
                    // keeps only their bytes (a shrink, not a copy).
                    body.shrink_to_fit();
                    self.raw.insert(
                        key,
                        RawEntry {
                            method: request.method.clone(),
                            path,
                            body: request.body.clone(),
                            status,
                            response: body,
                        },
                    );
                }
                keep_alive
            }
            Ok(None) => keep_alive,
            Err(payload) => {
                outbuf.truncate(response_start);
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                let e = AcsError::EvaluationPanic {
                    design: "request-handler".to_owned(),
                    message,
                };
                http::write_response(
                    outbuf,
                    handlers::status_for(&e),
                    &handlers::error_body(&e),
                    false,
                    &[],
                );
                false
            }
        }
    }

    fn update_interest(&mut self, index: usize, conn: &mut Conn) {
        let mut want = EPOLLIN | EPOLLRDHUP;
        if conn.pending_out() > 0 {
            want |= EPOLLOUT;
            if conn.write_since.is_none() {
                conn.write_since = Some(Instant::now());
            }
        }
        if want != conn.interest && self.poller.modify(conn.fd, want, index as u64).is_ok() {
            conn.interest = want;
        }
    }

    /// Close connections that ran out a timer: the request read
    /// deadline (counted as a shed), a stalled write (`io_timeout`
    /// without progress), or the keep-alive idle budget (silent reap).
    fn sweep(&mut self) {
        let now = Instant::now();
        for index in 0..self.conns.len() {
            let Some(conn) = &self.conns[index] else { continue };
            let expired = if conn.deadline.is_some_and(|d| now >= d) {
                self.state.record_deadline_close();
                true
            } else if conn.pending_out() > 0 {
                conn.write_since
                    .is_some_and(|t| now.duration_since(t) > self.policy.io_timeout)
            } else {
                conn.inbuf.is_empty()
                    && now.duration_since(conn.idle_since) > self.policy.keepalive_idle
            };
            if expired {
                if let Some(conn) = self.conns[index].take() {
                    self.close(conn);
                    self.free.push(index);
                }
            }
        }
    }

    fn close(&self, conn: Conn) {
        let _ = self.poller.delete(conn.fd);
        if let Some(tally) = &conn.tally {
            self.state.record_chaos(tally.load(Ordering::Relaxed));
        }
        // Dropping `conn.wire` closes the socket.
    }
}

/// Write as much buffered response data as the socket accepts. Returns
/// true when the connection should close (peer gone or hard error).
fn drive_write(conn: &mut Conn) -> bool {
    loop {
        if conn.out_at >= conn.outbuf.len() {
            conn.outbuf.clear();
            conn.out_at = 0;
            conn.write_since = None;
            return false;
        }
        match conn.wire.write(&conn.outbuf[conn.out_at..]) {
            Ok(0) => return true,
            Ok(n) => {
                conn.out_at += n;
                conn.write_since = Some(Instant::now());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if conn.write_since.is_none() {
                    conn.write_since = Some(Instant::now());
                }
                return false;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}
