//! End-to-end client for the `acs-serve` query service: screen a
//! compliant design, simulate it, repeat the simulation to demonstrate
//! the raw front cache, stream a policy what-if rule grid over chunked
//! transfer-encoding, and verify the cache hits through
//! `GET /v1/metrics`.
//!
//! ```text
//! cargo run --release --example serve_client              # in-process server
//! cargo run --release --example serve_client -- --addr 127.0.0.1:8737
//! ```
//!
//! Exits nonzero if any endpoint misbehaves or the repeated simulation
//! does not hit the cache.

use acs::serve::{http::HttpClient, ServeConfig, Server};
use acs_errors::json::parse;
use acs_errors::AcsError;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn call(
    client: &mut HttpClient,
    method: &str,
    path: &str,
    body: &str,
) -> Result<String, AcsError> {
    let (status, response) = client.request(method, path, body)?;
    if status != 200 {
        return Err(AcsError::Protocol {
            reason: format!("{method} {path} returned {status}: {response}"),
        });
    }
    Ok(response)
}

fn run(addr: SocketAddr) -> Result<(), AcsError> {
    // One keep-alive connection carries the whole conversation.
    let client = &mut HttpClient::new(addr, TIMEOUT);
    // 1. Screen a TPP-capped, bandwidth-rich design — the paper's §4
    //    compliant-architecture shape. The oversized L1 lowers performance
    //    density below the Oct-2023 threshold, so no export license applies.
    let screen_body = "{\"config\":{\"name\":\"compliant-3.2tb\",\"core_count\":96,\
                       \"l1_kib\":1024,\"hbm_tb_s\":3.2,\"device_bw_gb_s\":599.0}}";
    let screening = call(client, "POST", "/v1/screen", screen_body)?;
    let parsed = parse(&screening)?;
    let strictest = parsed
        .require("screening")?
        .require_str("strictest_acr")?
        .to_owned();
    println!("compliant design screens as: {strictest}");
    if strictest == "license_required" {
        return Err(AcsError::Protocol {
            reason: "the compliant design should not need an export license".to_owned(),
        });
    }

    // 2. Compare with a known restricted device from the database.
    let h100 = call(client, "POST", "/v1/screen", "{\"device\":\"H100 SXM\"}")?;
    let h100_class = parse(&h100)?
        .require("screening")?
        .require_str("strictest_acr")?
        .to_owned();
    println!("H100 SXM screens as: {h100_class}");
    if h100_class != "license_required" {
        return Err(AcsError::Protocol {
            reason: format!("H100 should be license_required, got {h100_class}"),
        });
    }

    // 3. Device lookup with a percent-encoded name.
    let detail = call(client, "GET", "/v1/devices/A800%2080GB", "")?;
    let name = parse(&detail)?.require("device")?.require_str("name")?.to_owned();
    println!("device lookup: {name}");

    // 4. Simulate the compliant design twice; the second run must be a
    //    raw front-cache hit (verified through the service's own metrics).
    let simulate_body = "{\"config\":{\"name\":\"compliant-3.2tb\",\"core_count\":96,\
                         \"l1_kib\":1024,\"hbm_tb_s\":3.2,\"device_bw_gb_s\":599.0},\
                         \"model\":\"llama3-8b\",\"trace\":{\"duration_s\":5}}";
    // A byte-identical repeat on the same keep-alive connection
    // short-circuits in its worker's raw front cache.
    let simulate_hits = |client: &mut HttpClient| -> Result<f64, AcsError> {
        let metrics = parse(&call(client, "GET", "/v1/metrics", "")?)?;
        metrics.require("caches")?.require("raw")?.require_f64("hits")
    };
    let before = simulate_hits(client)?;
    let first = call(client, "POST", "/v1/simulate", simulate_body)?;
    let second = call(client, "POST", "/v1/simulate", simulate_body)?;
    if first != second {
        return Err(AcsError::Protocol {
            reason: "repeated simulation returned a different body".to_owned(),
        });
    }
    let serving = parse(&first)?;
    let p50 = serving.require("serving")?.require_f64("p50_ttft_s")?;
    let p99 = serving.require("serving")?.require_f64("p99_ttft_s")?;
    println!("serving percentiles: p50 TTFT {:.1} ms, p99 TTFT {:.1} ms", p50 * 1e3, p99 * 1e3);

    let after = simulate_hits(client)?;
    if after < before + 1.0 {
        return Err(AcsError::Protocol {
            reason: format!(
                "repeated POST /v1/simulate did not hit the cache (hits {before} -> {after})"
            ),
        });
    }
    println!("cache verified: raw hits {before} -> {after}");

    // 5. Policy what-if: a 4-variant rule grid streamed back as chunked
    //    NDJSON (the client reassembles the frames transparently), then
    //    repeated to verify the what-if response cache through metrics.
    let whatif_body = "{\"grid\":{\"tpp_license\":[2400,4800],\"mem_bw_license\":[0,800]}}";
    let whatif_before = parse(&call(client, "GET", "/v1/metrics", "")?)?
        .require("caches")?
        .require("whatif")?
        .require_f64("hits")?;
    let stream = call(client, "POST", "/v1/whatif", whatif_body)?;
    let lines: Vec<&str> = stream.lines().collect();
    let Some((trailer_line, records)) = lines.split_last() else {
        return Err(AcsError::Protocol { reason: "empty what-if stream".to_owned() });
    };
    if records.len() != 4 {
        return Err(AcsError::Protocol {
            reason: format!("what-if stream should carry 4 records, got {}", records.len()),
        });
    }
    let trailer = parse(trailer_line)?;
    let variants = trailer.require_f64("variants")?;
    let fleet_designs = trailer.require_f64("fleet_designs")?;
    println!("what-if grid: {variants} rule variants over a {fleet_designs}-design fleet");
    let repeat = call(client, "POST", "/v1/whatif", whatif_body)?;
    if repeat != stream {
        return Err(AcsError::Protocol {
            reason: "repeated what-if returned a different stream".to_owned(),
        });
    }
    let whatif_after = parse(&call(client, "GET", "/v1/metrics", "")?)?
        .require("caches")?
        .require("whatif")?
        .require_f64("hits")?;
    if whatif_after < whatif_before + 1.0 {
        return Err(AcsError::Protocol {
            reason: format!(
                "repeated POST /v1/whatif did not hit the cache (hits {whatif_before} -> {whatif_after})"
            ),
        });
    }
    println!("cache verified: what-if hits {whatif_before} -> {whatif_after}");
    Ok(())
}

fn main() -> ExitCode {
    // With --addr, talk to an already-running service (the CI smoke test
    // does this); otherwise bring one up in-process.
    let mut args = std::env::args().skip(1);
    let external = match (args.next().as_deref(), args.next()) {
        (Some("--addr"), Some(addr)) => match addr.parse::<SocketAddr>() {
            Ok(addr) => Some(addr),
            Err(e) => {
                eprintln!("serve_client: bad --addr {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, _) => None,
        _ => {
            eprintln!("usage: serve_client [--addr HOST:PORT]");
            return ExitCode::FAILURE;
        }
    };

    let outcome = match external {
        Some(addr) => run(addr),
        None => match Server::bind(ServeConfig::default()) {
            Ok(server) => {
                let addr = server.local_addr();
                println!("serve_client: in-process server on http://{addr}");
                let (handle, thread) = server.spawn();
                let outcome = run(addr);
                handle.shutdown();
                let _ = thread.join();
                outcome
            }
            Err(e) => Err(e),
        },
    };
    match outcome {
        Ok(()) => {
            println!("serve_client: all checks passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve_client: {e}");
            ExitCode::FAILURE
        }
    }
}
