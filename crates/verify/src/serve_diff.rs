//! The serve-tier oracle: answers over the wire vs the handler in
//! process.
//!
//! One server (event loop, raw front cache, pipelining-capable
//! connection state machine) answers a replayed request corpus over one
//! keep-alive connection; the same requests, in the same order, go to
//! [`handle_lane`] on a fresh [`AppState`]. Every answer must match byte
//! for byte, so nothing the transport adds — parsing, caching, framing —
//! may change a response.
//!
//! Two deliberate exclusions:
//!
//! - `/v1/metrics` is compared on status only: the server counts its
//!   raw front-cache hits, which never happen in process, so the bodies
//!   legitimately diverge.
//! - `/v1/whatif` streams arrive as chunked NDJSON (the [`HttpClient`]
//!   decodes the framing); the buffered `{"summary":..,"records":[..]}`
//!   document is rebuilt from the lines before comparing.

use acs_errors::AcsError;
use acs_serve::handlers::{handle_lane, AppState};
use acs_serve::http::{HttpClient, HttpRequest};
use acs_serve::{ServeConfig, Server};
use std::time::Duration;

/// What one serve-tier oracle run observed.
#[derive(Debug, Clone)]
pub struct ServeDiffReport {
    /// Case label (`wire_vs_handler`).
    pub label: String,
    /// Requests replayed.
    pub requests: usize,
    /// Requests whose responses matched.
    pub ok: usize,
    /// Human-readable divergences (empty on a clean run).
    pub mismatches: Vec<String>,
}

impl ServeDiffReport {
    /// True when every response matched.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The replay corpus: every endpoint, hits and misses, streamed and
/// plain, valid and malformed. `(method, path, body)` triples issued in
/// order on one keep-alive connection.
fn corpus() -> Vec<(&'static str, String, String)> {
    let sim = |seed: u64| {
        format!(
            "{{\"model\":\"llama3-8b\",\"workload\":{{\"batch\":8,\"input_len\":512,\
             \"output_len\":64}},\"trace\":{{\"rate_rps\":4,\"duration_s\":5,\"seed\":{seed}}}}}"
        )
    };
    let grid = "{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[2,4],\"l1_kib\":[192],\
                \"l2_mib\":[40],\"hbm_tb_s\":[0.0,3.2],\"device_bw_gb_s\":[600.0],\
                \"tpp_target\":4800}}"
        .to_owned();
    let mut cases: Vec<(&str, String, String)> = vec![
        ("GET", "/v1/devices".into(), String::new()),
        ("GET", "/v1/devices/H100%20SXM".into(), String::new()),
        ("GET", "/v1/devices/no-such-device".into(), String::new()),
        ("GET", "/v1/nowhere".into(), String::new()),
        ("POST", "/v1/screen".into(), "{\"device\":\"H100 SXM\"}".into()),
        ("POST", "/v1/screen".into(), "not json at all".into()),
        ("POST", "/v1/simulate".into(), sim(7)),
        // The byte-identical repeat: a raw front-cache hit on the wire,
        // recomputed in process — same bytes back either way.
        ("POST", "/v1/simulate".into(), sim(7)),
        ("POST", "/v1/simulate".into(), sim(11)),
        // A grid (one zero-HBM point fails) and its repeat: the body is
        // framed into the connection buffer on the miss and served from
        // the raw front cache on the hit.
        ("POST", "/v1/screen".into(), grid.clone()),
        ("POST", "/v1/screen".into(), grid),
        ("POST", "/v1/whatif".into(), "{\"grid\":{\"tpp_license\":[2400,4800]}}".into()),
        ("POST", "/v1/whatif".into(), "{}".into()),
        ("GET", "/v1/metrics".into(), String::new()),
    ];
    for i in 0..8 {
        cases.push(("POST", "/v1/screen".into(), format!("{{\"config\":{{\"name\":\"sd-{i}\"}}}}")));
    }
    cases
}

/// The buffered `/v1/whatif` document [`handle_lane`] returns, rebuilt
/// from the de-chunked NDJSON stream: every line a record, the last the
/// summary.
fn whatif_document(ndjson: &str) -> String {
    let mut lines: Vec<&str> = ndjson.lines().collect();
    let summary = lines.pop().unwrap_or("");
    format!("{{\"summary\":{summary},\"records\":[{}]}}", lines.join(","))
}

/// A case's label for mismatch reports: method, path, and the body's
/// first 40 characters, quoted. (`Debug` for `str` ignores a precision,
/// so the body is cut before it is formatted.)
fn case_tag(method: &str, path: &str, body: &str) -> String {
    let cut = body.char_indices().nth(40).map_or(body.len(), |(at, _)| at);
    format!("{method} {path} body={:?}", &body[..cut])
}

/// Replay the corpus over the wire and through [`handle_lane`] on a
/// fresh [`AppState`], comparing every answer.
///
/// # Errors
///
/// [`AcsError::Io`] when the server cannot be bound.
pub fn wire_vs_handler() -> Result<ServeDiffReport, AcsError> {
    let config = ServeConfig { workers: 2, ..ServeConfig::default() };
    let fresh = AppState::new(config.cache_capacity);
    let server = Server::bind(config)?;
    let mut client = HttpClient::new(server.local_addr(), Duration::from_secs(10));
    let (handle, thread) = server.spawn();

    let cases = corpus();
    let requests = cases.len();
    let mut ok = 0usize;
    let mut mismatches = Vec::new();
    for (method, path, body) in cases {
        let tag = case_tag(method, &path, &body);
        let request = HttpRequest { method: method.to_owned(), path, body };
        let (status, expected) = handle_lane(&fresh, &request, None);
        match client.request(method, &request.path, &request.body) {
            Ok((wire_status, _)) if wire_status != status => {
                mismatches.push(format!("{tag}: status {wire_status} (wire) vs {status} (handler)"));
            }
            Ok((_, wire)) => {
                let got = if request.path == "/v1/whatif" && status == 200 {
                    whatif_document(&wire)
                } else {
                    wire
                };
                if got != expected && request.path != "/v1/metrics" {
                    let at = got.bytes().zip(expected.bytes()).take_while(|(x, y)| x == y).count();
                    mismatches.push(format!(
                        "{tag}: bodies diverge at byte {at} (wire {}B, handler {}B)",
                        got.len(),
                        expected.len()
                    ));
                } else {
                    ok += 1;
                }
            }
            Err(e) => mismatches.push(format!("{tag}: transport error {e}")),
        }
    }

    handle.shutdown();
    let _ = thread.join();
    Ok(ServeDiffReport { label: "wire_vs_handler".to_owned(), requests, ok, mismatches })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_tags_quote_at_most_forty_body_characters() {
        let body = "é".repeat(30) + &"x".repeat(30);
        let want = format!("POST /v1/screen body={:?}", "é".repeat(30) + &"x".repeat(10));
        assert_eq!(case_tag("POST", "/v1/screen", &body), want);
        assert_eq!(case_tag("GET", "/v1/devices", ""), "GET /v1/devices body=\"\"");
    }

    #[test]
    fn wire_answers_match_the_in_process_handler() {
        let report = wire_vs_handler().expect("server binds");
        assert!(
            report.is_clean(),
            "wire and handler diverged:\n{}",
            report.mismatches.join("\n")
        );
        assert_eq!(report.ok, report.requests);
    }
}
