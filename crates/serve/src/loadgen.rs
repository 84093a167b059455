//! A multi-connection, pipelined load generator for the service.
//!
//! The original closed-loop single-in-flight client could not saturate
//! the server: with one request on the wire per connection,
//! measured QPS is bounded by round-trip latency, not by the server.
//! This driver opens a configurable number of connections and keeps a
//! configurable number of requests in flight on each (HTTP/1.1
//! pipelining), so the server-side limit is what gets measured. Latency
//! percentiles are reported overall and per request class (repeated vs
//! unique), since under priority shedding the two classes see very
//! different service.

use crate::http::read_framed_response;
use acs_errors::AcsError;
use acs_telemetry::Histogram;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which request stream to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Every `/v1/simulate` body is distinct (unique trace seeds): all
    /// misses, every request pays a full simulation.
    Unique,
    /// Every body is identical: all hits after the first.
    Repeated,
    /// Every `/v1/screen` body is a distinct config: all misses, but
    /// each miss is a cheap policy screening rather than a simulation —
    /// the server's cheap unique-throughput shape.
    UniqueScreen,
}

impl LoadMode {
    /// Parse the CLI spelling.
    ///
    /// # Errors
    ///
    /// [`AcsError::InvalidConfig`] on an unknown mode name.
    pub fn parse(s: &str) -> Result<Self, AcsError> {
        match s {
            "unique" => Ok(LoadMode::Unique),
            "repeated" => Ok(LoadMode::Repeated),
            "unique-screen" | "unique_screen" => Ok(LoadMode::UniqueScreen),
            other => Err(AcsError::InvalidConfig {
                field: "mode".to_owned(),
                reason: format!(
                    "unknown mode {other:?} (expected unique, repeated, or unique-screen)"
                ),
            }),
        }
    }
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total requests to issue.
    pub requests: usize,
    /// Client connections to open, each on its own thread (at least one,
    /// at most one per request).
    pub connections: usize,
    /// Requests in flight per connection (HTTP/1.1 pipelining depth);
    /// values below one mean a single request in flight.
    pub pipeline: usize,
    /// Request stream shape.
    pub mode: LoadMode,
    /// Per-request timeout (applied to the socket reads).
    pub timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 200,
            connections: 4,
            pipeline: 1,
            mode: LoadMode::Repeated,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Latency summary for one request class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLatency {
    /// Class label (`repeated` or `unique`).
    pub class: String,
    /// Successful requests in the class.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
}

/// Aggregate results of one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Requests issued.
    pub requests: usize,
    /// Requests that returned HTTP 200.
    pub succeeded: usize,
    /// Requests that failed (transport error or non-200).
    pub failed: usize,
    /// Sustained queries per second over the run.
    pub qps: f64,
    /// Mean request latency in milliseconds.
    pub mean_ms: f64,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_s: f64,
    /// Per-class latency percentiles (repeated vs unique bodies).
    pub per_class: Vec<ClassLatency>,
}

/// The request path for `mode` (`/v1/screen` for the cheap unique-work
/// stream, `/v1/simulate` otherwise).
#[must_use]
pub fn request_path(mode: LoadMode) -> &'static str {
    match mode {
        LoadMode::UniqueScreen => "/v1/screen",
        _ => "/v1/simulate",
    }
}

/// The request body for request number `i` under `mode`. Unique
/// simulate bodies vary the trace seed, which changes the arrival
/// pattern and so defeats the response cache; unique screen bodies vary
/// the config name, making every request a distinct (but cheap) policy
/// screening.
#[must_use]
pub fn request_body(mode: LoadMode, i: usize) -> String {
    if mode == LoadMode::UniqueScreen {
        return format!("{{\"config\":{{\"name\":\"loadgen-{i}\"}}}}");
    }
    let seed = if mode == LoadMode::Repeated { 7 } else { 1000 + i as u64 };
    format!(
        "{{\"model\":\"llama3-8b\",\"workload\":{{\"batch\":8,\"input_len\":512,\"output_len\":64}},\
         \"trace\":{{\"rate_rps\":4,\"duration_s\":5,\"seed\":{seed}}}}}"
    )
}

/// One connection's worth of the drive: claim request indices from the
/// shared counter, pipeline each burst in one write, read the responses
/// back in order. Returns the number of failed requests.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    addr: SocketAddr,
    config: &LoadgenConfig,
    next: &AtomicUsize,
    overall: &Histogram,
    repeated: &Histogram,
    unique: &Histogram,
) -> usize {
    let depth = config.pipeline.max(1);
    let path = request_path(config.mode);
    // A stream's bodies are all repeats or all unique.
    let class = if config.mode == LoadMode::Repeated { repeated } else { unique };
    let mut failures = 0usize;
    let mut redials = 0usize;
    'reconnect: loop {
        let stream = match TcpStream::connect_timeout(&addr, config.timeout) {
            Ok(s) => s,
            Err(_) => {
                // Whatever quota this connection would have claimed is
                // picked up by the other connections; report nothing.
                return failures;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(config.timeout));
        let _ = stream.set_write_timeout(Some(config.timeout));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return failures,
        };
        let mut reader = BufReader::new(stream);
        let mut wire = Vec::with_capacity(depth * 256);
        loop {
            let mut burst = 0usize;
            wire.clear();
            for _ in 0..depth {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= config.requests {
                    break;
                }
                let body = request_body(config.mode, i);
                wire.extend_from_slice(
                    format!(
                        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
                burst += 1;
            }
            if burst == 0 {
                return failures;
            }
            let sent = Instant::now();
            if writer.write_all(&wire).is_err() {
                failures += burst;
                redials += 1;
                if redials > 3 {
                    return failures;
                }
                continue 'reconnect;
            }
            for _ in 0..burst {
                match read_framed_response(&mut reader) {
                    Ok((200, _, _)) => {
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        overall.record(ms);
                        class.record(ms);
                    }
                    Ok(_) => failures += 1,
                    Err(_) => {
                        failures += 1;
                        redials += 1;
                        if redials > 3 {
                            return failures;
                        }
                        continue 'reconnect;
                    }
                }
            }
        }
    }
}

/// Issue `config.requests` POSTs against `addr` from
/// `max(connections, 1)` pipelined connections (one thread each) and
/// aggregate latencies, overall and per request class.
///
/// # Errors
///
/// [`AcsError::Infeasible`] when zero requests were configured.
pub fn run_loadgen(addr: SocketAddr, config: &LoadgenConfig) -> Result<LoadgenReport, AcsError> {
    if config.requests == 0 {
        return Err(AcsError::Infeasible {
            reason: "loadgen needs at least one request".to_owned(),
        });
    }
    let conns = config.connections.max(1).min(config.requests);
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    // Merge-safe telemetry histograms shared by every connection
    // thread, so the report's p50/p99 come from the same quantile logic
    // as the rest of the stack.
    let overall = Histogram::standalone();
    let repeated = Histogram::standalone();
    let unique = Histogram::standalone();
    let failures: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let (next, overall, repeated, unique) = (&next, &overall, &repeated, &unique);
                scope.spawn(move || {
                    drive_connection(addr, config, next, overall, repeated, unique)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let sample = overall.snapshot();
    let succeeded = usize::try_from(sample.count).unwrap_or(usize::MAX);
    let failed: usize = failures.iter().sum();
    let per_class = [("repeated", &repeated), ("unique", &unique)]
        .into_iter()
        .filter_map(|(class, histogram)| {
            let s = histogram.snapshot();
            (s.count > 0).then(|| ClassLatency {
                class: class.to_owned(),
                count: s.count,
                mean_ms: s.mean(),
                p50_ms: s.p50(),
                p99_ms: s.p99(),
            })
        })
        .collect();
    Ok(LoadgenReport {
        requests: config.requests,
        succeeded,
        failed,
        qps: if elapsed_s > 0.0 { config.requests as f64 / elapsed_s } else { 0.0 },
        mean_ms: sample.mean(),
        p50_ms: sample.p50(),
        p99_ms: sample.p99(),
        elapsed_s,
        per_class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_repeat_or_differ_as_the_mode_demands() {
        assert_eq!(request_body(LoadMode::Repeated, 0), request_body(LoadMode::Repeated, 9));
        assert_ne!(request_body(LoadMode::Unique, 0), request_body(LoadMode::Unique, 1));
        assert_ne!(
            request_body(LoadMode::UniqueScreen, 0),
            request_body(LoadMode::UniqueScreen, 1)
        );
        assert_eq!(request_path(LoadMode::UniqueScreen), "/v1/screen");
        assert_eq!(request_path(LoadMode::Repeated), "/v1/simulate");
    }

    #[test]
    fn mode_parsing_accepts_the_cli_spellings() {
        assert_eq!(LoadMode::parse("unique").unwrap(), LoadMode::Unique);
        assert_eq!(LoadMode::parse("repeated").unwrap(), LoadMode::Repeated);
        assert_eq!(LoadMode::parse("mixed").unwrap_err().kind(), "invalid_config");
        assert_eq!(LoadMode::parse("unique-screen").unwrap(), LoadMode::UniqueScreen);
        assert_eq!(LoadMode::parse("chaos").unwrap_err().kind(), "invalid_config");
    }

    #[test]
    fn zero_requests_is_a_typed_error() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let err = run_loadgen(addr, &LoadgenConfig { requests: 0, ..LoadgenConfig::default() });
        assert_eq!(err.unwrap_err().kind(), "infeasible");
    }

    #[test]
    fn loadgen_measures_a_live_server_and_repeats_hit_cache() {
        let server = crate::Server::bind(crate::ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let state = server.state();
        let (handle, thread) = server.spawn();
        let report = run_loadgen(
            addr,
            &LoadgenConfig {
                requests: 20,
                connections: 2,
                pipeline: 4,
                ..LoadgenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.succeeded, 20);
        assert_eq!(report.failed, 0);
        assert!(report.qps > 0.0);
        assert!(report.p50_ms > 0.0 && report.p50_ms <= report.p99_ms);
        assert_eq!(report.per_class.len(), 1, "all-repeated stream has one class");
        assert_eq!(report.per_class[0].class, "repeated");
        // Repeats land in the workers' raw front caches: all but each
        // connection's first identical request is a hit.
        assert!(
            state.raw_hit_count() >= 18,
            "all but the first identical request should hit: raw {}",
            state.raw_hit_count(),
        );
        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn pipelined_unique_screen_drive_is_all_misses_but_succeeds() {
        let server = crate::Server::bind(crate::ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let state = server.state();
        let (handle, thread) = server.spawn();
        let report = run_loadgen(
            addr,
            &LoadgenConfig {
                requests: 24,
                connections: 3,
                pipeline: 8,
                mode: LoadMode::UniqueScreen,
                ..LoadgenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.succeeded, 24, "{report:?}");
        assert_eq!(report.per_class[0].class, "unique");
        assert_eq!(state.raw_hit_count(), 0);
        let handled = state.telemetry().counter("serve.requests.screen").get();
        assert_eq!(handled, 24, "every unique screen reaches the handler");
        handle.shutdown();
        thread.join().unwrap();
    }
}
