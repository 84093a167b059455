//! `acs-serve`: a zero-dependency HTTP/1.1 query service over the
//! reproduction's policy and simulation engines.
//!
//! The service turns the library pipeline into an interactive tool: an
//! analyst posts an accelerator description and gets back its export
//! classification under each Advanced Computing Rule vintage
//! (`POST /v1/screen`) or its simulated per-phase latency and serving
//! percentiles (`POST /v1/simulate`), without writing Rust. Repeated
//! queries, the common case when a dashboard polls a fixed set of
//! designs, are answered byte for byte from each worker's raw front
//! cache; `GET /v1/metrics` exposes the hit counter that proves it.
//!
//! Built entirely on `std::net`: no async runtime, no HTTP framework.
//! One acceptor thread routes connections to shard workers, each a
//! non-blocking connection state machine driven by a readiness source
//! (`epoll` on Linux x86-64/aarch64, a scan poller elsewhere). Unique
//! expensive work beyond a per-round budget is shed with a 503
//! (`overloaded` in the error taxonomy) while cached traffic keeps
//! flowing, and per-request read deadlines, write-stall timeouts and
//! idle reaping bound the damage a slow client can do.
//!
//! # Example
//!
//! ```
//! use acs_serve::{http, Server, ServeConfig};
//! use std::time::Duration;
//!
//! let server = Server::bind(ServeConfig::default())?;
//! let addr = server.local_addr();
//! let (handle, thread) = server.spawn();
//! let (status, body) = http::http_request(
//!     addr, "POST", "/v1/screen", "{\"device\":\"H100 SXM\"}", Duration::from_secs(5))?;
//! assert_eq!(status, 200);
//! assert!(body.contains("license_required"));
//! handle.shutdown();
//! thread.join().unwrap();
//! # Ok::<(), acs_errors::AcsError>(())
//! ```

pub mod chaos;
mod event_loop;
pub mod handlers;
pub mod http;
pub mod loadgen;
pub mod reactor;

pub use chaos::{FaultPlan, FaultStream};
pub use handlers::{error_body, handle_lane, status_for, AppState};
pub use http::{ClientConfig, HttpClient};
pub use loadgen::{run_loadgen, LoadMode, LoadgenConfig, LoadgenReport};

use acs_errors::AcsError;
use event_loop::EventLoop;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard workers serving connections, each with its own cache lane.
    pub workers: usize,
    /// Expensive requests (unique POST work) each worker admits per poll
    /// round; beyond it they are shed with `503` + `Retry-After` while
    /// GETs and raw-front-cache hits keep flowing.
    pub queue_depth: usize,
    /// Write-stall timeout: a connection whose buffered response makes
    /// no write progress for this long is closed.
    pub io_timeout: Duration,
    /// Total wall-clock budget for reading one request once its first
    /// byte has arrived. A per-operation timeout alone cannot stop a
    /// slow-loris client that drips one byte per interval. The deadline
    /// bounds the whole request instead; on expiry the connection is
    /// closed and counted in `connections.deadline_closed`.
    pub request_deadline: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the worker reclaims it.
    pub keepalive_idle: Duration,
    /// When set, every accepted socket is wrapped in a [`FaultStream`]
    /// whose per-connection schedule derives from this seed: torn
    /// reads, partial writes, stalls, and mid-message disconnects are
    /// injected server-side. Chaos-testing only; `None` in production.
    pub chaos_seed: Option<u64>,
    /// Capacity of the what-if response cache; the step-cost cache holds
    /// at least 1024 entries.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            io_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            keepalive_idle: Duration::from_secs(5),
            chaos_seed: None,
            cache_capacity: 4096,
        }
    }
}

/// Requests a running server stop accepting and drain. Cloneable and
/// sendable across threads; `shutdown` is idempotent.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Signal shutdown and wake the accept loop. Returns once the signal
    /// is delivered; use the join handle from [`Server::spawn`] to wait
    /// for the drain.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept()`; a throwaway local
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// The bound-but-not-yet-running service.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    workers: EventLoop,
    addr: SocketAddr,
}

impl Server {
    /// Bind the listener, build the shared state, and set up every
    /// worker's poller and wake pipe.
    ///
    /// # Errors
    ///
    /// [`AcsError::Io`] when the address cannot be bound or a worker's
    /// readiness source cannot be set up.
    pub fn bind(config: ServeConfig) -> Result<Self, AcsError> {
        let io_err = |e: std::io::Error| AcsError::Io {
            path: config.addr.clone(),
            reason: e.to_string(),
        };
        let listener = TcpListener::bind(&config.addr).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let state = Arc::new(AppState::new(config.cache_capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let workers = EventLoop::new(&config, &state, &stop).map_err(io_err)?;
        Ok(Server { listener, state, stop, workers, addr })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop the server from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { stop: Arc::clone(&self.stop), addr: self.addr }
    }

    /// The shared application state (for in-process metrics inspection).
    #[must_use]
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Accept and serve until [`ServerHandle::shutdown`] is called.
    /// Blocks the calling thread; worker threads are joined before
    /// returning, so all in-flight requests finish.
    pub fn run(self) {
        self.workers.run(&self.listener, &self.stop);
    }

    /// [`Server::run`] on a new thread; returns the shutdown handle and
    /// the join handle.
    #[must_use]
    pub fn spawn(self) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let handle = self.handle();
        let thread = std::thread::spawn(move || self.run());
        (handle, thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_errors::json::parse;
    use std::io::{BufRead, Write};
    use std::time::Instant;

    fn start() -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>, Arc<AppState>) {
        let server = Server::bind(ServeConfig { workers: 2, ..ServeConfig::default() })
            .expect("bind ephemeral port");
        let addr = server.local_addr();
        let state = server.state();
        let (handle, thread) = server.spawn();
        (addr, handle, thread, state)
    }

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        http::http_request(addr, method, path, body, Duration::from_secs(10))
            .expect("request round-trips")
    }

    #[test]
    fn serves_all_endpoints_over_loopback() {
        let (addr, handle, thread, _) = start();
        let (status, body) = request(addr, "POST", "/v1/screen", "{\"device\":\"H100 SXM\"}");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("license_required"));

        let (status, body) = request(
            addr,
            "POST",
            "/v1/simulate",
            "{\"model\":\"llama3-8b\",\"trace\":{\"duration_s\":5}}",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("p99_ttft_s"));

        let (status, body) = request(addr, "GET", "/v1/devices/H100%20SXM", "");
        assert_eq!(status, 200, "{body}");

        let (status, body) = request(addr, "GET", "/v1/metrics", "");
        assert_eq!(status, 200, "{body}");
        let m = parse(&body).unwrap();
        assert_eq!(m.get("requests").unwrap().get("screen").unwrap().as_u64(), Some(1));

        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn repeated_simulate_requests_hit_the_cache_over_the_wire() {
        // One worker pins both connections to one cache lane and one
        // raw front cache, making the hit accounting exact.
        let server =
            Server::bind(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
        let (addr, state) = (server.local_addr(), server.state());
        let (handle, thread) = server.spawn();
        let body = "{\"trace\":{\"duration_s\":5},\"workload\":{\"batch\":8,\"input_len\":512,\"output_len\":64}}";
        let (_, first) = request(addr, "POST", "/v1/simulate", body);
        let (_, second) = request(addr, "POST", "/v1/simulate", body);
        assert_eq!(first, second, "cached response must be byte-identical");
        // The byte-identical repeat short-circuits in the worker's raw
        // front cache.
        assert_eq!(state.raw_hit_count(), 1);
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn repeated_screens_are_raw_hits_and_reordered_bodies_recompute() {
        // One worker and one keep-alive connection: every repeat meets
        // the same raw front cache, so the hit count is exact.
        let server =
            Server::bind(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
        let (addr, state) = (server.local_addr(), server.state());
        let (handle, thread) = server.spawn();
        let mut client = http::HttpClient::new(addr, Duration::from_secs(10));
        let mut screen = |body: &str| {
            let (status, response) = client.request("POST", "/v1/screen", body).unwrap();
            assert_eq!(status, 200, "{response}");
            response
        };
        let grid = "{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[4],\
                    \"l1_kib\":[192,1024],\"l2_mib\":[40],\"hbm_tb_s\":[2.0,3.2],\
                    \"device_bw_gb_s\":[600.0],\"tpp_target\":4800}}";
        let config = "{\"config\":{\"core_count\":96,\"hbm_tb_s\":3.2}}";
        let first_grid = screen(grid);
        assert_eq!(screen(grid), first_grid);
        let first_config = screen(config);
        assert_eq!(screen(config), first_config);
        assert_eq!(state.raw_hit_count(), 2, "each byte-identical repeat is a raw hit");
        // The same members in another order mean the same request: the
        // answers are byte-identical, but the bodies differ, so the raw
        // cache misses and the handler recomputes.
        let grid_reordered = "{\"grid\":{\"tpp_target\":4800,\"device_bw_gb_s\":[600.0],\
                              \"hbm_tb_s\":[2.0,3.2],\"l2_mib\":[40],\"l1_kib\":[192,1024],\
                              \"lanes_per_core\":[4],\"systolic_dims\":[16]}}";
        let config_reordered = "{\"config\":{\"hbm_tb_s\":3.2,\"core_count\":96}}";
        assert_eq!(screen(grid_reordered), first_grid);
        assert_eq!(screen(config_reordered), first_config);
        assert_eq!(state.raw_hit_count(), 2, "a reordered body is not a raw hit");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn garbage_on_the_wire_yields_a_protocol_error_not_a_hang() {
        let (addr, handle, thread, _) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut response = String::new();
        use std::io::Read;
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("protocol"), "{response}");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn multibyte_paths_do_not_kill_the_worker_pool() {
        let (addr, handle, thread, _) = start();
        // '%' followed by a multibyte UTF-8 char once panicked inside
        // percent_decode; with the default 4 workers, a handful of such
        // requests permanently killed the pool. Send more than that, then
        // prove the server still answers.
        for _ in 0..6 {
            let (status, _) =
                request(addr, "GET", "/v1/devices/%aé", "");
            assert_eq!(status, 404, "undecodable name is a lookup miss, not a crash");
        }
        let (status, _) = request(addr, "GET", "/v1/metrics", "");
        assert_eq!(status, 200, "workers must survive multibyte paths");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn duplicate_content_length_headers_are_rejected() {
        let (addr, handle, thread, _) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"POST /v1/screen HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{}",
            )
            .unwrap();
        let mut response = String::new();
        use std::io::Read;
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("duplicate Content-Length"), "{response}");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let (addr, handle, thread, _) = start();
        // Raw socket (not HttpClient, whose stale-connection retry could
        // mask a broken keep-alive): two requests down one pipe, two
        // well-framed responses back.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        for _ in 0..2 {
            reader
                .get_mut()
                .write_all(b"GET /v1/devices HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("HTTP/1.1 200"), "{line}");
            let mut content_length = 0usize;
            loop {
                let mut header = String::new();
                reader.read_line(&mut header).unwrap();
                if header == "\r\n" {
                    break;
                }
                if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; content_length];
            std::io::Read::read_exact(&mut reader, &mut body).unwrap();
            assert!(String::from_utf8(body).unwrap().contains("devices"));
        }
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn the_client_reuses_its_connection_across_requests() {
        let (addr, handle, thread, _) = start();
        let mut client = http::HttpClient::new(addr, Duration::from_secs(10));
        let (status, body) = client.request("GET", "/v1/devices", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, body) =
            client.request("POST", "/v1/screen", "{\"device\":\"H100 SXM\"}").unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, body) = client.request("GET", "/v1/metrics", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let m = parse(&body).unwrap();
        assert_eq!(m.get("requests").unwrap().get("screen").unwrap().as_u64(), Some(1));
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn connection_close_still_closes_the_socket() {
        let (addr, handle, thread, _) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"GET /v1/devices HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
            )
            .unwrap();
        let mut response = String::new();
        use std::io::Read;
        // read_to_string returning means the server closed its end.
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn http_1_0_requests_default_to_close() {
        let (addr, handle, thread, _) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /v1/devices HTTP/1.0\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        use std::io::Read;
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn slow_loris_is_shed_by_the_request_deadline() {
        // One worker, so a pinned connection would starve the whole
        // service. The per-op io_timeout alone cannot catch this client:
        // it drips a byte every 50 ms, well inside the 2 s op timeout.
        let server = Server::bind(ServeConfig {
            workers: 1,
            io_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_millis(300),
            keepalive_idle: Duration::from_secs(2),
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let (handle, thread) = server.spawn();

        let mut loris = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let mut shed = false;
        for byte in b"GET /v1/devices HTTP/1.1\r\nHost: x\r\nX-Drip: aaaaaaaaaaaaaaaa" {
            if loris.write_all(&[*byte]).is_err() {
                shed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
            if started.elapsed() > Duration::from_secs(5) {
                break;
            }
        }
        if !shed {
            // Writes can succeed into the kernel buffer after the server
            // hangs up; the read side is definitive.
            let _ = loris.set_read_timeout(Some(Duration::from_secs(5)));
            let mut buf = [0u8; 64];
            use std::io::Read;
            shed = matches!(loris.read(&mut buf), Ok(0) | Err(_));
        }
        assert!(shed, "server kept reading a dripping request past its deadline");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline shed should happen in ~300ms, took {:?}",
            started.elapsed()
        );

        // The lone worker must be free again — and the shed counted.
        let (status, body) = request(addr, "GET", "/v1/metrics", "");
        assert_eq!(status, 200, "{body}");
        let m = parse(&body).unwrap();
        let closed = m
            .get("connections")
            .and_then(|c| c.get("deadline_closed"))
            .and_then(acs_errors::json::Value::as_u64);
        assert_eq!(closed, Some(1), "{body}");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn each_pipelined_request_gets_its_own_read_deadline() {
        // A and B are each read within the 600 ms deadline, but B's first
        // bytes ride in with A's tail: B's clock starts then, not when A's
        // first byte arrived.
        let server = Server::bind(ServeConfig {
            workers: 1,
            request_deadline: Duration::from_millis(600),
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let (handle, thread) = server.spawn();

        let a = b"GET /v1/devices HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let b = b"GET /v1/devices/H100%20SXM HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let pause = Duration::from_millis(400);
        let mut reader = std::io::BufReader::new(TcpStream::connect(addr).unwrap());
        reader.get_mut().write_all(&a[..10]).unwrap();
        std::thread::sleep(pause);
        reader.get_mut().write_all(&[&a[10..], &b[..10]].concat()).unwrap();
        std::thread::sleep(pause);
        reader.get_mut().write_all(&b[10..]).unwrap();
        let (status, _, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("devices"), "{body}");
        let (status, _, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "B must be answered, not cut off by A's deadline: {body}");
        assert!(body.contains("H100"), "{body}");

        let (status, body) = request(addr, "GET", "/v1/metrics", "");
        assert_eq!(status, 200, "{body}");
        let m = parse(&body).unwrap();
        let closed = m
            .get("connections")
            .and_then(|c| c.get("deadline_closed"))
            .and_then(acs_errors::json::Value::as_u64);
        assert_eq!(closed, Some(0), "{body}");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn idle_keepalive_reaping_is_not_counted_as_a_deadline_shed() {
        let server = Server::bind(ServeConfig {
            workers: 1,
            keepalive_idle: Duration::from_millis(150),
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let (handle, thread) = server.spawn();

        // Connect, complete one request, then go silent: the worker
        // should reap the idle connection without counting a shed.
        let mut client = http::HttpClient::new(addr, Duration::from_secs(5));
        let (status, _) = client.request("GET", "/v1/devices", "").unwrap();
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(400));

        let (status, body) = request(addr, "GET", "/v1/metrics", "");
        assert_eq!(status, 200, "{body}");
        let m = parse(&body).unwrap();
        let closed = m
            .get("connections")
            .and_then(|c| c.get("deadline_closed"))
            .and_then(acs_errors::json::Value::as_u64);
        assert_eq!(closed, Some(0), "{body}");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn chaos_server_survives_faulted_connections_and_counts_them() {
        let server = Server::bind(ServeConfig {
            workers: 2,
            chaos_seed: Some(0xC4A05),
            io_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_secs(2),
            keepalive_idle: Duration::from_millis(500),
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let state = server.state();
        let (handle, thread) = server.spawn();

        // Many short-lived clients against a fault-injecting server: some
        // requests fail (torn frames, disconnects) — none may wedge a
        // worker or panic the process.
        let mut completed = 0u32;
        for i in 0..40 {
            let mut client = http::HttpClient::with_config(
                addr,
                http::ClientConfig {
                    retries: 1,
                    jitter_seed: 1000 + i,
                    ..http::ClientConfig::uniform(Duration::from_secs(2))
                },
            );
            if let Ok((status, _)) = client.request("GET", "/v1/devices", "") {
                if status == 200 {
                    completed += 1;
                }
            }
        }
        assert!(completed > 0, "no request survived gentle chaos");

        // Both workers must still answer cleanly; the chaos tally proves
        // faults actually fired.
        let (status, body) = request(addr, "GET", "/v1/metrics", "");
        assert_eq!(status, 200, "{body}");
        let m = parse(&body).unwrap();
        let faults = m
            .get("connections")
            .and_then(|c| c.get("chaos_faults"))
            .and_then(acs_errors::json::Value::as_u64)
            .unwrap_or(0);
        assert!(faults > 0, "chaos seed set but no faults injected: {body}");
        drop(state);
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn client_retries_recover_from_a_flaky_wire() {
        let (addr, handle, thread, _) = start();
        // Client-side fault injection: a gentle plan tears most frames
        // but the bounded retry path re-dials and gets through.
        let mut client = http::HttpClient::with_config(
            addr,
            http::ClientConfig { retries: 4, ..http::ClientConfig::uniform(Duration::from_secs(2)) },
        )
        .with_fault_injection(FaultPlan::gentle(0xF1A7));
        let mut ok = 0u32;
        for _ in 0..20 {
            if let Ok((200, _)) = client.request("GET", "/v1/devices", "") {
                ok += 1;
            }
        }
        assert!(ok >= 10, "retries should carry most requests through gentle faults, got {ok}/20");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn whatif_streams_chunked_ndjson_the_client_decodes() {
        // One worker: both connections share a cache lane, so the
        // second what-if is a what-if response-cache hit with exact
        // counts.
        let server =
            Server::bind(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
        let (addr, state) = (server.local_addr(), server.state());
        let (handle, thread) = server.spawn();
        // Raw socket first: the response must actually be chunked on the
        // wire (HttpClient would hide the framing).
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = "{\"grid\":{\"tpp_license\":[2400,4800]}}";
        stream
            .write_all(
                format!(
                    "POST /v1/whatif HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut raw = String::new();
        use std::io::Read;
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(raw.contains("Transfer-Encoding: chunked"), "{raw}");
        assert!(raw.trim_end().ends_with("0"), "stream must end with the zero chunk: {raw}");

        // The persistent client decodes the same stream into NDJSON and
        // keeps the connection alive for the next request.
        let mut client = http::HttpClient::new(addr, Duration::from_secs(30));
        let (status, ndjson) = client.request("POST", "/v1/whatif", body).unwrap();
        assert_eq!(status, 200, "{ndjson}");
        let lines: Vec<&str> = ndjson.lines().collect();
        assert_eq!(lines.len(), 3, "2 records + summary trailer: {ndjson}");
        for (i, line) in lines[..2].iter().enumerate() {
            let record = parse(line).expect("each streamed line is one JSON record");
            assert_eq!(record.get("variant").unwrap().as_u64(), Some(i as u64));
        }
        let summary = parse(lines[2]).unwrap();
        assert_eq!(summary.get("variants").unwrap().as_u64(), Some(2));
        assert_eq!(summary.get("fleet_designs").unwrap().as_u64(), Some(4096));
        let (status, _) = client.request("GET", "/v1/devices", "").unwrap();
        assert_eq!(status, 200, "keep-alive must survive a chunked response");

        // Bad bodies still get plain framed errors, not streams.
        let (status, error) = client.request("POST", "/v1/whatif", "{\"rule\":[]}").unwrap();
        assert_eq!(status, 400, "{error}");
        assert!(error.contains("invalid_config"), "{error}");

        // The whatif counters and cache surfaced in /v1/metrics.
        let (_, metrics) = client.request("GET", "/v1/metrics", "").unwrap();
        let m = parse(&metrics).unwrap();
        assert_eq!(m.get("requests").unwrap().get("whatif").unwrap().as_u64(), Some(3));
        let cache = m.get("caches").unwrap().get("whatif").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1), "{metrics}");
        drop(state);
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn client_retries_reassemble_whatif_streams_across_torn_chunks() {
        let (addr, handle, thread, _) = start();
        // Client-side fault injection tears reads and writes at arbitrary
        // byte boundaries — including mid-chunk-header and mid-chunk-data.
        // The decoder must never mis-frame a torn chunk (no partial line
        // accepted as a record); the retry path re-dials and replays.
        let mut client = http::HttpClient::with_config(
            addr,
            http::ClientConfig {
                retries: 4,
                ..http::ClientConfig::uniform(Duration::from_secs(5))
            },
        )
        .with_fault_injection(FaultPlan::gentle(0xF1A7));
        let body = "{\"rule\":{\"tpp_license\":2400}}";
        let mut ok = 0u32;
        for _ in 0..20 {
            if let Ok((200, ndjson)) = client.request("POST", "/v1/whatif", body) {
                // A response that survived must be complete and
                // well-formed — torn frames may only surface as errors.
                let lines: Vec<&str> = ndjson.lines().collect();
                assert_eq!(lines.len(), 2, "1 record + trailer: {ndjson}");
                for line in &lines {
                    parse(line).expect("every surviving line parses");
                }
                ok += 1;
            }
        }
        assert!(ok >= 10, "retries should carry most streams through gentle faults, got {ok}/20");
        handle.shutdown();
        thread.join().unwrap();
    }

    /// Read one full response off `reader`: status, headers, and the
    /// body (chunked bodies are reassembled). A plain parser with no
    /// retry machinery, so pipelining tests see the wire as-is.
    fn read_one_response<R: std::io::BufRead>(
        reader: &mut R,
    ) -> (u16, Vec<(String, String)>, String) {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let status: u16 =
            line.split_whitespace().nth(1).unwrap_or("0").parse().expect("status code");
        let mut headers = Vec::new();
        let (mut content_length, mut chunked) = (0usize, false);
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            let (name, value) = trimmed.split_once(':').expect("header line");
            let (name, value) = (name.to_owned(), value.trim().to_owned());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap();
            } else if name.eq_ignore_ascii_case("transfer-encoding") && value == "chunked" {
                chunked = true;
            }
            headers.push((name, value));
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                line.clear();
                reader.read_line(&mut line).unwrap();
                let size = usize::from_str_radix(line.trim_end(), 16).expect("chunk size");
                let mut chunk = vec![0u8; size + 2];
                reader.read_exact(&mut chunk).unwrap();
                if size == 0 {
                    break;
                }
                body.extend_from_slice(&chunk[..size]);
            }
        } else {
            body.resize(content_length, 0);
            reader.read_exact(&mut body).unwrap();
        }
        (status, headers, String::from_utf8(body).expect("utf-8 body"))
    }

    #[test]
    fn pipelined_requests_are_answered_in_request_order() {
        let (addr, handle, thread, _) = start();
        // Six requests down the pipe in ONE write, each with a
        // distinguishable answer: the unknown-device 404 echoes the
        // queried name, the known device echoes its own.
        let mut wire = Vec::new();
        for i in 0..3 {
            wire.extend_from_slice(
                format!("GET /v1/devices/pipe-{i} HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                    .as_bytes(),
            );
            wire.extend_from_slice(
                b"GET /v1/devices/H100%20SXM HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            );
        }
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        reader.get_mut().write_all(&wire).unwrap();
        for i in 0..3 {
            let (status, _, body) = read_one_response(&mut reader);
            assert_eq!(status, 404, "{body}");
            assert!(body.contains(&format!("pipe-{i}")), "response out of order: {body}");
            let (status, _, body) = read_one_response(&mut reader);
            assert_eq!(status, 200, "{body}");
            assert!(body.contains("H100"), "response out of order: {body}");
        }
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn torn_byte_dribble_requests_still_parse_and_answer() {
        let (addr, handle, thread, _) = start();
        // Feed two back-to-back requests 1–3 bytes at a time — the
        // incremental parser must buffer partial heads and partial
        // bodies across reads without corrupting the frame boundary.
        let wire = b"POST /v1/screen HTTP/1.1\r\nContent-Length: 21\r\n\r\n{\"device\":\"H100 SXM\"}GET /v1/metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut at = 0;
        let mut step = 1;
        while at < wire.len() {
            let end = (at + step).min(wire.len());
            reader.get_mut().write_all(&wire[at..end]).unwrap();
            reader.get_mut().flush().unwrap();
            at = end;
            step = step % 3 + 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        let (status, _, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("license_required"), "{body}");
        let (status, _, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("requests"), "{body}");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn pipelined_chunked_whatif_is_followed_by_the_next_response() {
        let (addr, handle, thread, _) = start();
        // A chunked streaming response and a plain GET pipelined behind
        // it: the chunked frame must terminate cleanly (0-chunk) before
        // the next response starts, all on one connection.
        let whatif_body = "{\"grid\":{\"tpp_license\":[2400,4800]}}";
        let mut wire = Vec::new();
        wire.extend_from_slice(
            format!(
                "POST /v1/whatif HTTP/1.1\r\nContent-Length: {}\r\n\r\n{whatif_body}",
                whatif_body.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(b"GET /v1/devices HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        reader.get_mut().write_all(&wire).unwrap();
        let (status, headers, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(
            headers.iter().any(|(n, v)| n == "Transfer-Encoding" && v == "chunked"),
            "whatif must stream chunked: {headers:?}"
        );
        for line in body.lines() {
            parse(line).expect("every NDJSON line parses");
        }
        let (status, _, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("H100"), "{body}");
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn overload_sheds_expensive_posts_but_answers_cheap_gets() {
        // queue_depth 1 makes the per-poll-round expensive budget 1: a
        // single burst of unique POSTs overcommits it immediately.
        let server = Server::bind(ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let (addr, state) = (server.local_addr(), server.state());
        let (handle, thread) = server.spawn();
        let mut wire = Vec::new();
        for i in 0..24 {
            let body = format!("{{\"config\":{{\"name\":\"shed-{i}\"}}}}");
            wire.extend_from_slice(
                format!(
                    "POST /v1/screen HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
        wire.extend_from_slice(b"GET /v1/metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        reader.get_mut().write_all(&wire).unwrap();
        let (mut served, mut shed) = (0u32, 0u32);
        for _ in 0..24 {
            let (status, headers, body) = read_one_response(&mut reader);
            match status {
                200 => served += 1,
                503 => {
                    shed += 1;
                    assert!(
                        headers.iter().any(|(n, v)| n == "Retry-After" && v == "1"),
                        "shed responses carry backoff guidance: {headers:?}"
                    );
                    assert!(body.contains("overloaded"), "{body}");
                }
                other => panic!("unexpected status {other}: {body}"),
            }
        }
        // The cheap GET at the back of the burst is served, not shed.
        let (status, _, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "cheap GET must survive overload: {body}");
        assert!(served >= 1, "at least the in-budget POST is served");
        assert!(shed >= 1, "the overcommitted burst must shed");
        assert_eq!(state.shed_expensive_count(), u64::from(shed));
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn shutdown_is_idempotent_and_graceful() {
        let (addr, handle, thread, _) = start();
        let (status, _) = request(addr, "GET", "/v1/devices", "");
        assert_eq!(status, 200);
        handle.shutdown();
        handle.shutdown();
        thread.join().unwrap();
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || http::http_request(addr, "GET", "/v1/metrics", "", Duration::from_millis(200))
                    .is_err(),
            "server should no longer answer after shutdown"
        );
    }
}
