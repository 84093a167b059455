//! The chaos round: a live server and hostile clients, both wired
//! through the socket-fault shim, with liveness asserted afterwards.
//!
//! One round boots a real `acs-serve` server with server-side fault
//! injection enabled ([`acs_serve::ServeConfig::chaos_seed`]), then
//! fires a batch of requests from clients that are themselves injecting
//! faults into their sockets. Individual requests are allowed — indeed
//! expected — to fail; the system-level invariants are:
//!
//! - the process never panics (handler panics are contained by the
//!   event loop's dispatch, and the final health check would catch a
//!   dead worker);
//! - no worker wedges: after the storm, a *clean* client must get a
//!   `200` from `/v1/metrics` within a bounded timeout;
//! - the fault machinery actually fired: the server's chaos tally and
//!   the clients' retry counters are reported so a silently-disabled
//!   shim cannot masquerade as a pass.

use acs_errors::json::parse;
use acs_errors::AcsError;
use acs_serve::http::{ClientConfig, HttpClient};
use acs_serve::{FaultPlan, ServeConfig, Server};
use std::time::Duration;

/// Tuning for [`run_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; every per-connection schedule derives from it.
    pub seed: u64,
    /// Rounds to run (each round is an independent server).
    pub rounds: u32,
    /// Requests fired per round.
    pub requests: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { seed: 1, rounds: 1, requests: 60 }
    }
}

/// What one round observed.
#[derive(Debug, Clone)]
pub struct ChaosRound {
    /// The round's derived seed.
    pub seed: u64,
    /// Requests attempted.
    pub requests: u32,
    /// Requests that completed with HTTP 200.
    pub ok: u32,
    /// Requests that failed (transport error or non-200) — expected
    /// under fault injection, bounded only by the liveness checks.
    pub failed: u32,
    /// Faults the server-side shim injected (from `/v1/metrics`).
    pub server_faults: u64,
    /// Whether the post-storm clean health check got its 200.
    pub healthy_after: bool,
}

/// Run the configured chaos rounds.
///
/// # Errors
///
/// [`AcsError::Io`] when a server cannot be bound, and
/// [`AcsError::Overloaded`] when a round ends with the server unable to
/// answer a clean health check — the hung-worker signature.
pub fn run_chaos(config: &ChaosConfig) -> Result<Vec<ChaosRound>, AcsError> {
    let mut rounds = Vec::with_capacity(config.rounds as usize);
    for round in 0..config.rounds {
        let seed = config.seed.wrapping_add(u64::from(round).wrapping_mul(0x9E37_79B9));
        rounds.push(run_round(seed, config.requests)?);
    }
    Ok(rounds)
}

fn run_round(seed: u64, requests: u32) -> Result<ChaosRound, AcsError> {
    let server = Server::bind(ServeConfig {
        workers: 2,
        chaos_seed: Some(seed),
        io_timeout: Duration::from_secs(2),
        request_deadline: Duration::from_secs(3),
        keepalive_idle: Duration::from_millis(500),
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr();
    let (handle, thread) = server.spawn();

    let endpoints: [(&str, &str, &str); 3] = [
        ("GET", "/v1/devices", ""),
        ("POST", "/v1/screen", "{\"device\":\"H100 SXM\"}"),
        ("GET", "/v1/devices/H100%20SXM", ""),
    ];
    let (mut ok, mut failed) = (0u32, 0u32);
    for i in 0..requests {
        let client_config = ClientConfig {
            retries: 2,
            jitter_seed: seed ^ u64::from(i),
            ..ClientConfig::uniform(Duration::from_secs(2))
        };
        let mut client = HttpClient::with_config(addr, client_config);
        if i % 2 == 0 {
            // Half the clients also tear their own side of the wire.
            client = client.with_fault_injection(FaultPlan::gentle(seed ^ (u64::from(i) << 17)));
        }
        let (method, path, body) = endpoints[(i as usize) % endpoints.len()];
        match client.request(method, path, body) {
            Ok((200, _)) => ok += 1,
            _ => failed += 1,
        }
    }

    // The decisive probe: a clean client with a bounded timeout. If the
    // storm wedged both workers, this cannot succeed.
    let mut clean = HttpClient::with_config(
        addr,
        ClientConfig { retries: 3, ..ClientConfig::uniform(Duration::from_secs(5)) },
    );
    let health = clean.request("GET", "/v1/metrics", "");
    let (healthy_after, server_faults) = match &health {
        Ok((200, body)) => {
            let faults = parse(body)
                .ok()
                .and_then(|m| {
                    m.get("connections")
                        .and_then(|c| c.get("chaos_faults"))
                        .and_then(acs_errors::json::Value::as_u64)
                })
                .unwrap_or(0);
            (true, faults)
        }
        _ => (false, 0),
    };

    handle.shutdown();
    let joined = thread.join().is_ok();

    if !healthy_after || !joined {
        return Err(AcsError::Overloaded {
            reason: format!(
                "chaos round seed={seed}: server unhealthy after storm \
                 (metrics={health:?}, joined={joined})"
            ),
        });
    }
    Ok(ChaosRound { seed, requests, ok, failed, server_faults, healthy_after })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_leaves_the_server_healthy_and_injects_faults() {
        let rounds =
            run_chaos(&ChaosConfig { seed: 0xBAD5EED, rounds: 1, requests: 30 }).expect("round");
        let round = &rounds[0];
        assert!(round.healthy_after);
        assert_eq!(round.ok + round.failed, 30);
        assert!(round.ok > 0, "gentle chaos should let some requests through");
        assert!(round.server_faults > 0, "the server-side shim must actually fire");
    }
}
