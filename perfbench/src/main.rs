//! The repository benchmark.
//!
//! ```text
//! perfbench --workload serve-hot|serve-cold|sweep --seed N --seconds S --trace 0|1 \
//!           --server PATH/TO/acs-serve --out DIR
//! ```
//!
//! One run generates its inputs from the seed, sets up, measures for the
//! given seconds, checks the outputs, and prints one JSON object as its
//! last line of standard output: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. See README.md
//! for what each workload loads and what each metric means.

mod client;
mod gen;
mod serve;
mod sweep;
mod trace;

use acs_errors::json::{object, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Length of the slices each timed window is cut into. The host's CPU
/// steal is read at every slice boundary, and the window's end-to-end
/// figures are taken over the quieter half of the slices: interference
/// from other tenants only ever slows a run down, and it comes and goes
/// within seconds, so those slices measure the program rather than its
/// neighbours. Which slices count is decided by steal alone, never by
/// the figures themselves.
const SLICE_S: f64 = 0.1;

/// Slices in a window of `seconds`.
pub fn slices(seconds: f64) -> usize {
    ((seconds / SLICE_S).round() as usize).max(2)
}

/// One operation completed inside the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: u8,
    pub latency_ns: u32,
    /// Completion time, ms after the window opened.
    pub at_ms: u32,
    /// Design points the operation priced or returned.
    pub points: u32,
}

/// Read the host's CPU steal at each slice boundary of the window that
/// opens at `start`; returns the steal share (%) of every slice.
pub fn slice_steal(start: Instant, seconds: f64) -> Vec<f64> {
    let count = slices(seconds);
    let mut readings = vec![host_ticks()];
    for k in 1..=count {
        let boundary = start + Duration::from_secs_f64(seconds * k as f64 / count as f64);
        std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
        readings.push(host_ticks());
    }
    readings.windows(2).map(|w| steal_pct(w[0], w[1])).collect()
}

/// The window's end-to-end figures over its quieter half of slices:
/// throughput, latency p50 and p99, p50 of the given simulate, grid and
/// what-if classes, and points per second.
pub fn window_metrics(
    samples: &[Sample],
    seconds: f64,
    steal: &[f64],
    classes: [u8; 3],
) -> Metrics {
    let count = steal.len();
    let slice_s = seconds / count as f64;
    // Equal steal is broken by alternating slices, so a quiet host keeps
    // slices from the whole window rather than from its first half.
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by(|a, b| {
        steal[*a]
            .total_cmp(&steal[*b])
            .then((a % 2, a).cmp(&(b % 2, b)))
    });
    let mut quiet = vec![false; count];
    for &k in &order[..count / 2] {
        quiet[k] = true;
    }
    let kept: Vec<&Sample> = samples
        .iter()
        .filter(|s| quiet[((f64::from(s.at_ms) / 1e3 / slice_s) as usize).min(count - 1)])
        .collect();
    let span = slice_s * (count / 2) as f64;
    let latencies = |class: Option<u8>| {
        let mut v: Vec<f64> = kept
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| f64::from(s.latency_ns) / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = latencies(None);
    let mut m = Metrics::default();
    m.set("requests_per_s", kept.len() as f64 / span, "req/s");
    m.set("latency_p50_ms", quantile(&all, 0.5), "ms");
    m.set("latency_p99_ms", quantile(&all, 0.99), "ms");
    m.set(
        "simulate_p50_ms",
        quantile(&latencies(Some(classes[0])), 0.5),
        "ms",
    );
    m.set(
        "grid_p50_ms",
        quantile(&latencies(Some(classes[1])), 0.5),
        "ms",
    );
    m.set(
        "whatif_p50_ms",
        quantile(&latencies(Some(classes[2])), 0.5),
        "ms",
    );
    m.set(
        "points_per_s",
        kept.iter().map(|s| f64::from(s.points)).sum::<f64>() / span,
        "points/s",
    );
    m
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: PathBuf::from("target/release/acs-serve"),
        out: PathBuf::from("perfbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--server" => args.server = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(
            name.to_owned(),
            (if value.is_finite() { value } else { 0.0 }, unit),
        );
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, (value, unit))| {
                    (
                        name.clone(),
                        object(vec![
                            ("value", Value::Number(*value)),
                            ("unit", Value::String((*unit).to_owned())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What one run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks_ok: bool,
    pub digest: u64,
    pub metrics: Metrics,
    /// Free-form lines for standard error (per-class shares, answers).
    pub notes: Vec<String>,
}

/// Order-independent digest: a sum of mixed item hashes.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn add(&mut self, parts: &[u64]) {
        let mut h = client::Fnv::new();
        for p in parts {
            h.eat(&p.to_le_bytes());
        }
        let mut z = h.finish().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = self.0.wrapping_add(z ^ (z >> 31));
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Nearest-rank quantile of a sorted slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// CPU seconds (user + system, all threads) of a process so far.
pub fn cpu_seconds(pid: &str) -> f64 {
    // Linux reports these in USER_HZ ticks, 100 per second on every
    // mainstream kernel configuration.
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Host CPU ticks so far: (all, stolen by the hypervisor).
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Share of CPU time stolen by the hypervisor between two readings, in %.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.0.saturating_sub(before.0);
    if all == 0 {
        0.0
    } else {
        100.0 * after.1.saturating_sub(before.1) as f64 / all as f64
    }
}

/// Peak resident set (VmHWM) of a process in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-hot" | "serve-cold" => serve::run(&args),
        "sweep" => sweep::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (serve-hot, serve-cold, sweep)"
        )),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    eprintln!("perfbench: digest {:016x}", outcome.digest);
    let result = object(vec![
        (
            "correct",
            Value::Bool(outcome.checks_ok && outcome.failed == 0),
        ),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", outcome.metrics.to_value()),
    ]);
    println!("digest {:016x}", outcome.digest);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
