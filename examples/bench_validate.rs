//! Validate `BENCH_*.json` artefacts against the `acs-bench-v1` schema.
//!
//! `scripts/ci.sh` runs this after the smoke benches to guarantee the
//! benchmark output stays machine-readable: the perf trajectory across
//! commits is only useful if every artefact parses the same way.
//!
//! ```text
//! cargo run --example bench_validate -- BENCH_dse.json BENCH_serve.json
//! ```
//!
//! Each file must be a canonical-JSON object with `schema` equal to
//! `"acs-bench-v1"`, a non-empty string `suite`, and a non-empty `metrics`
//! object whose members are all finite numbers. Exits non-zero with a
//! per-file message on the first violation.
//!
//! Every floor is an absolute budget:
//!
//! - `--min-dse-points-per-sec <rate>` floors the `dse` suite's
//!   `points_per_sec`: the sweep driver (`run_report`) on a fresh runner
//!   over the 1536-point reference sweep.
//! - `--min-lattice-points-per-sec <rate>` floors the `lattice` suite's
//!   `points_per_sec_lattice`: the same driver on a warm runner over the
//!   same sweep.
//! - `--min-whatif-variants-per-sec <rate>` floors the `whatif` suite's
//!   `variants_per_sec_warm`: the what-if engine screening a 64-variant
//!   rule grid over the 4096-design fleet, warm fleet pricing included.
//! - `--min-serve-cached-qps <qps>` and `--min-serve-unique-qps <qps>`
//!   floor the `serve` suite's `repeated_qps` and `unique_qps`: the
//!   server's cached and unique-work throughput under the pipelined
//!   load generator.
//! - `--min-grid-points-per-sec <rate>` floors the `serve` suite's
//!   `grid_points_per_sec`: a warm 1536-point Table 3 grid answered by
//!   the request handler in process, response body included.
//! - `--min-served-whatif-per-sec <rate>` floors the `serve` suite's
//!   `whatif_per_sec`: uncached 16-variant what-ifs answered by the
//!   request handler in process over the fleet the service keeps.

use acs_errors::json::{parse, Value};
use std::process::ExitCode;

/// Require `metrics[name] >= floor` for a suite artefact.
fn check_floor(metrics: &[(String, Value)], name: &str, floor: f64) -> Result<(), String> {
    match metrics.iter().find(|(metric, _)| metric == name) {
        Some((_, Value::Number(v))) if *v >= floor => Ok(()),
        Some((_, Value::Number(v))) => Err(format!("{name} {v:.2} below the required {floor:.2}")),
        _ => Err(format!("suite is missing the {name} metric")),
    }
}

fn validate(path: &str, floors: &Floors) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let doc = parse(text.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = doc.require_str("schema").map_err(|e| e.to_string())?;
    if schema != "acs-bench-v1" {
        return Err(format!("schema {schema:?}, expected \"acs-bench-v1\""));
    }
    let suite = doc.require_str("suite").map_err(|e| e.to_string())?;
    if suite.is_empty() {
        return Err("empty suite name".to_owned());
    }
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err("missing or non-object \"metrics\"".to_owned());
    };
    if metrics.is_empty() {
        return Err("empty \"metrics\" object".to_owned());
    }
    for (name, value) in metrics {
        match value {
            Value::Number(v) if v.is_finite() => {}
            other => return Err(format!("metric {name:?} is not a finite number: {other:?}")),
        }
    }
    if suite == "dse" {
        if let Some(floor) = floors.dse_points_per_sec {
            check_floor(metrics, "points_per_sec", floor)?;
        }
    }
    if suite == "lattice" {
        if let Some(floor) = floors.lattice_points_per_sec {
            check_floor(metrics, "points_per_sec_lattice", floor)?;
        }
    }
    if suite == "whatif" {
        if let Some(floor) = floors.whatif_variants_per_sec {
            check_floor(metrics, "variants_per_sec_warm", floor)?;
        }
    }
    if suite == "serve" {
        if let Some(floor) = floors.serve_cached_qps {
            check_floor(metrics, "repeated_qps", floor)?;
        }
        if let Some(floor) = floors.serve_unique_qps {
            check_floor(metrics, "unique_qps", floor)?;
        }
        if let Some(floor) = floors.grid_points_per_sec {
            check_floor(metrics, "grid_points_per_sec", floor)?;
        }
        if let Some(floor) = floors.served_whatif_per_sec {
            check_floor(metrics, "whatif_per_sec", floor)?;
        }
    }
    Ok(metrics.len())
}

#[derive(Default)]
struct Floors {
    dse_points_per_sec: Option<f64>,
    lattice_points_per_sec: Option<f64>,
    whatif_variants_per_sec: Option<f64>,
    serve_cached_qps: Option<f64>,
    serve_unique_qps: Option<f64>,
    grid_points_per_sec: Option<f64>,
    served_whatif_per_sec: Option<f64>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut floors = Floors::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let slot = match arg.as_str() {
            "--min-dse-points-per-sec" => &mut floors.dse_points_per_sec,
            "--min-lattice-points-per-sec" => &mut floors.lattice_points_per_sec,
            "--min-whatif-variants-per-sec" => &mut floors.whatif_variants_per_sec,
            "--min-serve-cached-qps" => &mut floors.serve_cached_qps,
            "--min-serve-unique-qps" => &mut floors.serve_unique_qps,
            "--min-grid-points-per-sec" => &mut floors.grid_points_per_sec,
            "--min-served-whatif-per-sec" => &mut floors.served_whatif_per_sec,
            _ => {
                paths.push(arg);
                continue;
            }
        };
        match iter.next().as_deref().map(str::parse::<f64>) {
            Some(Ok(v)) if v.is_finite() && v > 0.0 => *slot = Some(v),
            _ => {
                eprintln!("{arg} requires a positive number");
                return ExitCode::FAILURE;
            }
        }
    }
    if paths.is_empty() {
        eprintln!(
            "usage: bench_validate [--min-dse-points-per-sec <rate>] \
             [--min-lattice-points-per-sec <rate>] \
             [--min-whatif-variants-per-sec <rate>] \
             [--min-serve-cached-qps <qps>] [--min-serve-unique-qps <qps>] \
             [--min-grid-points-per-sec <rate>] \
             [--min-served-whatif-per-sec <rate>] <BENCH_*.json>..."
        );
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in &paths {
        match validate(path, &floors) {
            Ok(count) => println!("{path}: ok ({count} metrics)"),
            Err(reason) => {
                eprintln!("{path}: INVALID: {reason}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
