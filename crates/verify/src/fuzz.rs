//! SplitMix64-seeded structured fuzzing of the parse boundaries: the
//! acs-serve HTTP surface, the hand-rolled JSON codec, and the device
//! CSV codec.
//!
//! Each iteration takes a valid base input, applies a seeded stack of
//! structural mutations (byte flips, truncation, slice duplication,
//! percent-encoding abuse, header and Content-Length tampering, what-if
//! rule-grid axis bombs, scenario-axis bombs against `/v1/screen`), and
//! drives the target under `catch_unwind`.
//! The invariants are:
//!
//! - **no panic, ever** — a parse boundary answers hostile bytes with a
//!   typed error, never an unwind (and never a stack overflow, which
//!   `catch_unwind` cannot contain — the JSON depth guard exists
//!   because this fuzzer's nesting mutation found its absence);
//! - **round-trip** — anything that *does* parse must re-serialize and
//!   re-parse to the same value (JSON `Value`s, `DeviceRecord`s);
//! - **arrival-order independence** — HTTP inputs delivered in seeded
//!   1–5-byte chunks, re-parsed after each chunk the way the server's
//!   connection state machine does, frame exactly as the whole buffer
//!   does;
//! - **no worker death** — HTTP inputs that parse are additionally run
//!   through the real request handler against live [`AppState`].
//!
//! Every finding carries its input hex-encoded so it can be checked
//! into `crates/verify/corpus/regressions/` and replayed forever.

use acs_devices::{DeviceRecord, GpuDatabase};
use acs_errors::json::parse;
use acs_llm::rng::SplitMix64;
use acs_serve::handlers::{self, AppState};
use acs_serve::http::{parse_request_bytes, Parsed};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which parse boundary an input targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzTarget {
    /// `parse_request_bytes` (whole and chunk by chunk) + the request
    /// handler.
    Http,
    /// `acs_errors::json::parse` + `to_json` round-trip.
    Json,
    /// `DeviceRecord::from_csv_line` + `to_csv_line` round-trip.
    Csv,
}

impl FuzzTarget {
    /// Stable lowercase tag (used in regression files).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            FuzzTarget::Http => "http",
            FuzzTarget::Json => "json",
            FuzzTarget::Csv => "csv",
        }
    }

    /// Parse the stable tag.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "http" => Some(FuzzTarget::Http),
            "json" => Some(FuzzTarget::Json),
            "csv" => Some(FuzzTarget::Csv),
            _ => None,
        }
    }
}

impl fmt::Display for FuzzTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// What one input did at its parse boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetOutcome {
    /// Parsed and honoured every invariant.
    Accepted,
    /// Rejected with a typed error (the normal fate of mutated input).
    Rejected,
    /// Panicked, or parsed but broke a round-trip invariant — a bug.
    Violated(String),
}

/// A violated invariant, with the offending input preserved.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which boundary broke.
    pub target: FuzzTarget,
    /// The input, hex-encoded (inputs are arbitrary bytes).
    pub input_hex: String,
    /// The panic message or broken invariant.
    pub message: String,
}

/// Aggregate results of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// Inputs that parsed and honoured all invariants.
    pub accepted: u64,
    /// Inputs rejected with typed errors.
    pub rejected: u64,
    /// Invariant violations (must be empty for a passing run).
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Whether the run found nothing.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Hex-encode bytes for regression storage.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decode regression hex. `None` on odd length or non-hex digits.
#[must_use]
pub fn from_hex(hex: &str) -> Option<Vec<u8>> {
    if hex.len() % 2 != 0 {
        return None;
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok())
        .collect()
}

/// Why a parse of a buffer prefix disagrees with the parse of the whole
/// buffer, if it does. `NeedMore` on a prefix never disagrees.
fn prefix_disagreement(prefix: &Parsed, whole: &Parsed) -> Option<String> {
    match (prefix, whole) {
        (Parsed::NeedMore, _) => None,
        (
            Parsed::Complete { request: a, consumed: ca, keep_alive: ka },
            Parsed::Complete { request: b, consumed: cb, keep_alive: kb },
        ) if a == b && ca == cb && ka == kb => None,
        (Parsed::Invalid(a), Parsed::Invalid(b)) if a.to_string() == b.to_string() => None,
        (prefix, whole) => Some(format!(
            "chunked arrival parsed {prefix:?} where the whole buffer parses {whole:?}"
        )),
    }
}

/// Drive one input through its target's full invariant check. Used both
/// by the fuzz loop and by regression replay. When `chunk_seed` is set,
/// HTTP inputs also arrive in seeded 1–5-byte chunks, the accumulated
/// buffer re-parsed after each.
#[must_use]
pub fn run_target(
    target: FuzzTarget,
    input: &[u8],
    state: &AppState,
    chunk_seed: Option<u64>,
) -> TargetOutcome {
    let outcome = catch_unwind(AssertUnwindSafe(|| match target {
        FuzzTarget::Http => {
            let whole = parse_request_bytes(input);
            if let Some(seed) = chunk_seed {
                let mut rng = SplitMix64::new(seed);
                let mut at = 0;
                while at < input.len() {
                    #[allow(clippy::cast_possible_truncation)]
                    let chunk = 1 + (rng.next_u64() % 5) as usize;
                    at = (at + chunk).min(input.len());
                    if let Some(why) = prefix_disagreement(&parse_request_bytes(&input[..at]), &whole)
                    {
                        return TargetOutcome::Violated(why);
                    }
                }
            }
            match whole {
                Parsed::NeedMore | Parsed::Invalid(_) => TargetOutcome::Rejected,
                Parsed::Complete { request, .. } => {
                    let (status, body) = handlers::handle_lane(state, &request, None);
                    if !matches!(status, 200 | 400 | 404 | 405 | 422 | 500 | 503) {
                        return TargetOutcome::Violated(format!(
                            "handler produced unknown status {status}"
                        ));
                    }
                    if parse(&body).is_err() {
                        return TargetOutcome::Violated(format!(
                            "handler body for status {status} is not valid JSON"
                        ));
                    }
                    TargetOutcome::Accepted
                }
            }
        }
        FuzzTarget::Json => {
            let text = String::from_utf8_lossy(input);
            match parse(&text) {
                Err(_) => TargetOutcome::Rejected,
                Ok(value) => match parse(&value.to_json()) {
                    Ok(again) if again == value => TargetOutcome::Accepted,
                    Ok(_) => TargetOutcome::Violated(
                        "JSON round-trip produced a different value".to_owned(),
                    ),
                    Err(e) => TargetOutcome::Violated(format!(
                        "emitted JSON does not re-parse: {e}"
                    )),
                },
            }
        }
        FuzzTarget::Csv => {
            let text = String::from_utf8_lossy(input);
            match DeviceRecord::from_csv_line(&text, "fuzz") {
                Err(_) => TargetOutcome::Rejected,
                Ok(record) => {
                    match DeviceRecord::from_csv_line(&record.to_csv_line(), "fuzz-roundtrip") {
                        Ok(again) if again == record => TargetOutcome::Accepted,
                        Ok(_) => TargetOutcome::Violated(
                            "CSV round-trip produced a different record".to_owned(),
                        ),
                        Err(e) => TargetOutcome::Violated(format!(
                            "emitted CSV does not re-parse: {e}"
                        )),
                    }
                }
            }
        }
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            TargetOutcome::Violated(format!("panicked: {message}"))
        }
    }
}

fn http_bases() -> Vec<Vec<u8>> {
    let post = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    let get = |path: &str| {
        format!("GET {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 0\r\n\r\n").into_bytes()
    };
    vec![
        get("/v1/devices"),
        get("/v1/devices/H100%20SXM"),
        get("/v1/metrics"),
        post("/v1/screen", "{\"device\":\"H100 SXM\"}"),
        post("/v1/screen", "{\"tpp\":4500,\"device_bw_gb_s\":600,\"die_area_mm2\":814}"),
        // Scenario-axis grids: a registered name and an inline MoE spec.
        // Tiny hardware grids keep each accepted iteration to a few
        // lattice points while the mutation stack attacks the scenario
        // member (unknown names, expert bombs, zero-stage pipelines —
        // all of which must come back as typed 400s, never panics).
        post(
            "/v1/screen",
            "{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[2],\
             \"l1_kib\":[192],\"l2_mib\":[40],\"hbm_tb_s\":[2.0],\
             \"device_bw_gb_s\":[600.0],\
             \"scenario\":[\"moe-mixtral-fp16-tp4-ep4\"]}}",
        ),
        post(
            "/v1/screen",
            "{\"grid\":{\"systolic_dims\":[16],\"lanes_per_core\":[2],\
             \"l1_kib\":[192],\"l2_mib\":[40],\"hbm_tb_s\":[2.0],\
             \"device_bw_gb_s\":[600.0],\
             \"scenario\":[{\"model\":\"mixtral_8x7b\",\"expert\":4}]}}",
        ),
        post("/v1/simulate", "{\"model\":\"llama3-8b\",\"trace\":{\"duration_s\":1}}"),
        // The what-if surface: baseline, single-rule, and rule-grid
        // request shapes (all at the default TPP target, so the synthetic
        // fleet is priced once per fuzz state and reused from the memo).
        post("/v1/whatif", "{}"),
        post("/v1/whatif", "{\"rule\":{\"tpp_license\":2400,\"mem_bw_license\":800}}"),
        post(
            "/v1/whatif",
            "{\"grid\":{\"tpp_license\":[2400,4800],\"mem_bw_license\":[0,800]}}",
        ),
    ]
}

fn json_bases() -> Vec<Vec<u8>> {
    vec![
        b"{}".to_vec(),
        b"[1,2.5,-3e-4,\"s\",true,null]".to_vec(),
        b"{\"device\":\"H100 SXM\",\"nested\":{\"a\":[1,2],\"b\":\"\\u00e9\"}}".to_vec(),
        b"{\"tpp\":4800.0,\"mem\":[{\"gib\":80,\"bw\":3350.0}]}".to_vec(),
    ]
}

fn csv_bases() -> Vec<Vec<u8>> {
    // Real records from the curated database keep the mutation space
    // anchored to inputs that actually parse.
    let db = GpuDatabase::curated_65();
    db.iter().take(4).map(|r| r.to_csv_line().into_bytes()).collect()
}

/// Apply one seeded structural mutation in place.
fn mutate(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    if input.is_empty() {
        input.push((rng.next_u64() & 0xff) as u8);
        return;
    }
    #[allow(clippy::cast_possible_truncation)]
    let at = (rng.next_u64() % input.len() as u64) as usize;
    match rng.next_u64() % 9 {
        // Flip one byte.
        0 => input[at] ^= (1 << (rng.next_u64() % 8)) as u8,
        // Truncate.
        1 => input.truncate(at),
        // Insert a random byte (often a delimiter the grammar cares about).
        2 => {
            let meaningful = [b'%', b'\r', b'\n', b',', b'"', b'{', b'[', b':', b' ', 0xff, 0x00];
            #[allow(clippy::cast_possible_truncation)]
            let b = meaningful[(rng.next_u64() % meaningful.len() as u64) as usize];
            input.insert(at, b);
        }
        // Duplicate a slice (repeated headers, repeated JSON members).
        3 => {
            #[allow(clippy::cast_possible_truncation)]
            let len = (1 + rng.next_u64() % 16) as usize;
            let end = (at + len).min(input.len());
            let slice = input[at..end].to_vec();
            input.splice(at..at, slice);
        }
        // Percent-encoding abuse: dangling '%', bad hex, multibyte tails.
        4 => {
            let abuses: [&[u8]; 4] = [b"%", b"%zz", b"%a\xc3\xa9", b"%25%"];
            #[allow(clippy::cast_possible_truncation)]
            let abuse = abuses[(rng.next_u64() % abuses.len() as u64) as usize];
            input.splice(at..at, abuse.iter().copied());
        }
        // Numeric tampering: splice in a huge or hostile number.
        5 => {
            let numbers: [&[u8]; 4] = [b"99999999999999999999", b"-0", b"1e999", b"NaN"];
            #[allow(clippy::cast_possible_truncation)]
            let n = numbers[(rng.next_u64() % numbers.len() as u64) as usize];
            input.splice(at..at, n.iter().copied());
        }
        // Nesting bomb: a run of open brackets (the JSON depth guard's
        // reason to exist — bounded here so a missing guard shows up as
        // a finding, not a harness abort).
        6 => {
            let run = vec![b'['; 300];
            input.splice(at..at, run);
        }
        // Rule-grid axis bombs: splice in what-if grid members —
        // duplicated axes, negative thresholds, and a wide axis whose
        // cartesian product must trip the variant ceiling, never an
        // allocation storm.
        7 => {
            let wide = format!("\"tpp_nac\":[{}],", vec!["1"; 96].join(","));
            let bombs: [&[u8]; 7] = [
                wide.as_bytes(),
                b"\"grid\":{\"tpp_license\":[0]},",
                b"\"mem_bw_license\":[-1,1e99],",
                b"\"tpp_target\":1e308,",
                // Scenario-axis bombs: unknown names, expert-count bombs,
                // and zero-stage pipelines must all die as typed 400s.
                b"\"scenario\":[\"no-such-scenario\"],",
                b"\"scenario\":[{\"model\":\"llama3_8b\",\"experts\":99999999,\"top_k\":1}],",
                b"\"scenario\":[{\"model\":\"mixtral_8x7b\",\"pipeline_stages\":0}],",
            ];
            #[allow(clippy::cast_possible_truncation)]
            let bomb = bombs[(rng.next_u64() % bombs.len() as u64) as usize];
            input.splice(at..at, bomb.iter().copied());
        }
        // Byte noise: overwrite a few bytes with raw randomness.
        _ => {
            for offset in 0..4 {
                if let Some(b) = input.get_mut(at + offset) {
                    *b = (rng.next_u64() & 0xff) as u8;
                }
            }
        }
    }
}

/// Run `iters` seeded mutations across all three targets.
///
/// Deterministic in `seed`: the same seed replays the same inputs, so a
/// CI failure reproduces locally from its seed alone.
#[must_use]
pub fn run_fuzz(seed: u64, iters: u64) -> FuzzReport {
    let mut rng = SplitMix64::new(seed);
    // One shared state: the fuzzer doubles as a soak test of handler
    // statefulness (caches, counters) under hostile traffic.
    let state = AppState::new(256);
    let bases = [http_bases(), json_bases(), csv_bases()];
    let mut report = FuzzReport::default();
    for _ in 0..iters {
        let target = match rng.next_u64() % 3 {
            0 => FuzzTarget::Http,
            1 => FuzzTarget::Json,
            _ => FuzzTarget::Csv,
        };
        let pool = &bases[match target {
            FuzzTarget::Http => 0,
            FuzzTarget::Json => 1,
            FuzzTarget::Csv => 2,
        }];
        #[allow(clippy::cast_possible_truncation)]
        let mut input = pool[(rng.next_u64() % pool.len() as u64) as usize].clone();
        // 0–3 stacked mutations; zero keeps pristine inputs in the mix,
        // asserting the bases themselves stay accepted.
        for _ in 0..rng.next_u64() % 4 {
            mutate(&mut input, &mut rng);
        }
        let chunk_seed = (rng.next_u64() % 2 == 0).then(|| rng.next_u64());
        match run_target(target, &input, &state, chunk_seed) {
            TargetOutcome::Accepted => report.accepted += 1,
            TargetOutcome::Rejected => report.rejected += 1,
            TargetOutcome::Violated(message) => {
                report.findings.push(Finding { target, input_hex: to_hex(&input), message });
            }
        }
        report.iters += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_arbitrary_bytes() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("0"), None);
        assert_eq!(from_hex("zz"), None);
    }

    #[test]
    fn pristine_bases_are_accepted() {
        let state = AppState::new(64);
        for base in http_bases() {
            assert_eq!(run_target(FuzzTarget::Http, &base, &state, None), TargetOutcome::Accepted);
            assert_eq!(
                run_target(FuzzTarget::Http, &base, &state, Some(3)),
                TargetOutcome::Accepted,
                "chunked delivery must not change the parse"
            );
        }
        for base in json_bases() {
            assert_eq!(run_target(FuzzTarget::Json, &base, &state, None), TargetOutcome::Accepted);
        }
        for base in csv_bases() {
            assert_eq!(run_target(FuzzTarget::Csv, &base, &state, None), TargetOutcome::Accepted);
        }
    }

    #[test]
    fn a_thousand_seeded_mutations_find_nothing() {
        let report = run_fuzz(0xF0CC, 1000);
        assert_eq!(report.iters, 1000);
        assert!(report.rejected > 0, "mutations should break some inputs");
        assert!(report.accepted > 0, "pristine inputs should survive");
        assert!(
            report.is_clean(),
            "findings: {:?}",
            report.findings.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fuzz_runs_replay_from_their_seed() {
        let (a, b) = (run_fuzz(42, 200), run_fuzz(42, 200));
        assert_eq!((a.accepted, a.rejected), (b.accepted, b.rejected));
        let c = run_fuzz(43, 200);
        assert_ne!((a.accepted, a.rejected), (c.accepted, c.rejected));
    }
}
