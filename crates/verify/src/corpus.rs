//! The golden corpus: blessed sweep digests and anchor values every PR
//! is diffed against.
//!
//! A corpus snapshot captures, for each named scenario, the canonical
//! digest of an entire sweep (every per-point design digest and every
//! ledgered failure kind folded into one number) plus a handful of
//! scalar **anchors** — individual latencies recorded with their exact
//! bit patterns. `acs-verify corpus` recomputes the snapshot and diffs
//! it against `crates/verify/corpus/golden.json`; `--bless` regenerates
//! the file after an intentional change. Anchors carry a per-entry
//! tolerance class (`exact`, `ulps:N`, `relative:EPS`) so a future
//! numerically-forgivable refactor can loosen one anchor without
//! abandoning bit-exactness everywhere else.

use crate::differential::{design_digest, whatif_grid_64};
use crate::tolerance::Tolerance;
use acs_cache::CacheKey;
use acs_dse::{inject_faults, DseRunner, EvaluatedDesign, SweepSpec};
use acs_errors::json::{object, parse, Value};
use acs_errors::AcsError;
use acs_hw::{DataType, DeviceConfig};
use acs_llm::{ModelConfig, WorkloadConfig};
use acs_whatif::WhatIfEngine;
use std::path::{Path, PathBuf};

/// The checked-in golden corpus file.
#[must_use]
pub fn default_corpus_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus").join("golden.json")
}

/// The checked-in fuzzer-regression directory.
#[must_use]
pub fn regressions_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus").join("regressions")
}

/// One sweep scenario's recorded shape and content digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Stable scenario name.
    pub name: String,
    /// Points evaluated.
    pub total: usize,
    /// Successful designs.
    pub ok: usize,
    /// Ledgered failures.
    pub failed: usize,
    /// Canonical digest over every per-point digest / failure kind.
    pub digest: u64,
}

/// One recorded scalar with its exact bit pattern and the tolerance a
/// recomputation must meet.
#[derive(Debug, Clone, PartialEq)]
pub struct Anchor {
    /// Stable anchor name (metric + design).
    pub name: String,
    /// The recorded value.
    pub value: f64,
    /// How close a recomputed value must be.
    pub tolerance: Tolerance,
}

/// A full corpus snapshot: what `compute_snapshot` produces and what
/// `golden.json` stores.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Sweep scenarios in recorded order.
    pub scenarios: Vec<Scenario>,
    /// Scalar anchors in recorded order.
    pub anchors: Vec<Anchor>,
}

/// Fold a sweep's per-point outcomes into one canonical digest: an
/// array of `[index, digest-or-kind]` rows hashed through the canonical
/// JSON cache key, so any drift in any point — value, order, or failure
/// taxonomy — changes the scenario digest.
fn fold_digest(rows: Vec<Value>) -> u64 {
    CacheKey::from_value(&Value::Array(rows)).digest()
}

fn scenario_from_report(name: &str, report: &acs_dse::SweepReport) -> Result<Scenario, AcsError> {
    let mut rows = Vec::with_capacity(report.total());
    for (index, design) in &report.designs {
        rows.push(Value::Array(vec![
            Value::Number(*index as f64),
            Value::String(CacheKey::digest_hex(design_digest(design)?)),
        ]));
    }
    for failure in &report.failures {
        rows.push(Value::Array(vec![
            Value::Number(failure.index as f64),
            Value::String(format!("fail:{}", failure.kind())),
        ]));
    }
    Ok(Scenario {
        name: name.to_owned(),
        total: report.total(),
        ok: report.designs.len(),
        failed: report.failures.len(),
        digest: fold_digest(rows),
    })
}

/// Recompute the full snapshot: the two golden equivalence sweeps (the
/// 512-point faulted Table-3 sweep on the production engine and on the
/// naive reference oracle — recording both means a regression cannot be
/// blessed into the engine alone), the 48-point mixed-datatype sweep, the
/// 64-variant what-if rule-grid screening (every per-variant record
/// digest over the curated device DB and a 32-design fleet reused from
/// the lattice sweep), the same grid over a 32-design fleet priced by
/// the expert-parallel MoE scenario runner, and latency anchors from the
/// first successful designs.
///
/// # Errors
///
/// Propagates serialization failures from the canonical JSON codec.
pub fn compute_snapshot() -> Result<Snapshot, AcsError> {
    let runner =
        DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default());

    let mut candidates = SweepSpec::table3_fig6().candidates(4800.0);
    inject_faults(&mut candidates, 7);
    let planned = runner.run_report(&candidates);
    let reference = crate::reference::run_report(&runner, &candidates);

    let mixed: Vec<DeviceConfig> = SweepSpec::table3_fig6()
        .configs(4800.0)
        .iter()
        .take(48)
        .enumerate()
        .map(|(i, cfg)| {
            let dtype = match i % 3 {
                0 => DataType::Int8,
                1 => DataType::Fp16,
                _ => DataType::Fp32,
            };
            cfg.to_builder().datatype(dtype).build()
        })
        .collect::<Result<_, _>>()?;
    let mut mixed_rows = Vec::with_capacity(mixed.len());
    for (index, outcome) in runner.run_configs(&mixed).iter().enumerate() {
        let cell = match outcome {
            Ok(design) => Value::String(CacheKey::digest_hex(design_digest(design)?)),
            Err(e) => Value::String(format!("fail:{}", e.kind())),
        };
        mixed_rows.push(Value::Array(vec![Value::Number(index as f64), cell]));
    }
    let mixed_ok = mixed_rows.len();

    // The what-if scenario: the shared 64-variant grid screened over the
    // curated 65-device DB plus a fleet borrowed from the engine's sweep
    // above (its pricing is already paid), each variant record folded in
    // by canonical digest so any drift in classification deltas,
    // indicator distributions, or externality accounting re-blesses.
    let fleet: Vec<EvaluatedDesign> =
        planned.designs.iter().take(32).map(|(_, d)| d.clone()).collect();
    let grid = whatif_grid_64();
    let mut whatif_rows = Vec::with_capacity(grid.cardinality());
    WhatIfEngine::paper_default().run_streaming(&grid, &fleet, |index, record| {
        whatif_rows.push(Value::Array(vec![
            Value::Number(index as f64),
            Value::String(CacheKey::digest_hex(CacheKey::from_value(record).digest())),
        ]));
        Ok(())
    })?;
    let whatif_total = whatif_rows.len();

    // The MoE twin of the what-if scenario: the same 64-variant grid
    // screened over a fleet priced by the expert-parallel scenario
    // runner (Mixtral-shaped experts, tp4/ep4, expert all-to-all in
    // every collective leg). Recording this digest means the scenario
    // frontend's MoE pricing — dispatch/combine exchange, activated
    // expert accounting — cannot drift without a re-bless.
    let moe_scenario = acs_scenarios::ScenarioRegistry::builtin()
        .get("moe-mixtral-fp16-tp4-ep4")?
        .clone();
    let moe_fleet_report = moe_scenario
        .runner()
        .run_report(&SweepSpec::table3_fig6().candidates(4800.0)[..32]);
    let moe_fleet: Vec<EvaluatedDesign> =
        moe_fleet_report.designs.iter().map(|(_, d)| d.clone()).collect();
    let mut moe_rows = Vec::with_capacity(grid.cardinality());
    WhatIfEngine::paper_default().run_streaming(&grid, &moe_fleet, |index, record| {
        moe_rows.push(Value::Array(vec![
            Value::Number(index as f64),
            Value::String(CacheKey::digest_hex(CacheKey::from_value(record).digest())),
        ]));
        Ok(())
    })?;
    let moe_total = moe_rows.len();

    let mut anchors = Vec::new();
    for (_, design) in planned.designs.iter().take(3) {
        anchors.push(Anchor {
            name: format!("ttft_s {}", design.name),
            value: design.ttft_s,
            tolerance: Tolerance::Exact,
        });
        anchors.push(Anchor {
            name: format!("tbt_s {}", design.name),
            value: design.tbt_s,
            tolerance: Tolerance::Exact,
        });
    }

    Ok(Snapshot {
        scenarios: vec![
            scenario_from_report("planned_table3_fig6_faulted_512", &planned)?,
            // Named for the evaluators that priced these rows when the
            // corpus was blessed; the engine and the reference reproduce
            // their digests bit for bit, and renaming the entries would
            // re-bless the corpus for no change in any number.
            scenario_from_report("factored_table3_fig6_faulted_512", &reference)?,
            Scenario {
                name: "planned_mixed_dtype_48".to_owned(),
                total: mixed_ok,
                ok: mixed_ok,
                failed: 0,
                digest: fold_digest(mixed_rows),
            },
            Scenario {
                name: "whatif_rule_grid_64".to_owned(),
                total: whatif_total,
                ok: whatif_total,
                failed: 0,
                digest: fold_digest(whatif_rows),
            },
            Scenario {
                name: "whatif_moe_grid_64".to_owned(),
                total: moe_total,
                ok: moe_total,
                failed: 0,
                digest: fold_digest(moe_rows),
            },
        ],
        anchors,
    })
}

fn tolerance_to_text(t: Tolerance) -> String {
    match t {
        Tolerance::Exact => "exact".to_owned(),
        Tolerance::Ulps(n) => format!("ulps:{n}"),
        Tolerance::Relative(eps) => format!("relative:{eps:e}"),
    }
}

fn tolerance_from_text(s: &str) -> Result<Tolerance, AcsError> {
    let bad = || AcsError::Json { reason: format!("unknown tolerance class {s:?}") };
    if s == "exact" {
        return Ok(Tolerance::Exact);
    }
    if let Some(n) = s.strip_prefix("ulps:") {
        return n.parse().map(Tolerance::Ulps).map_err(|_| bad());
    }
    if let Some(eps) = s.strip_prefix("relative:") {
        return eps.parse().map(Tolerance::Relative).map_err(|_| bad());
    }
    Err(bad())
}

/// Serialize a snapshot to the corpus JSON document.
#[must_use]
pub fn snapshot_to_json(snapshot: &Snapshot) -> String {
    let scenarios = snapshot
        .scenarios
        .iter()
        .map(|s| {
            object(vec![
                ("name", Value::String(s.name.clone())),
                ("total", Value::Number(s.total as f64)),
                ("ok", Value::Number(s.ok as f64)),
                ("failed", Value::Number(s.failed as f64)),
                ("digest", Value::String(CacheKey::digest_hex(s.digest))),
            ])
        })
        .collect();
    let anchors = snapshot
        .anchors
        .iter()
        .map(|a| {
            object(vec![
                ("name", Value::String(a.name.clone())),
                // The canonical codec prints shortest-round-trip floats,
                // so `value` alone carries the exact bit pattern; `bits`
                // is a redundant integrity check against file edits.
                ("value", Value::Number(a.value)),
                ("bits", Value::String(format!("{:#018x}", a.value.to_bits()))),
                ("tolerance", Value::String(tolerance_to_text(a.tolerance))),
            ])
        })
        .collect();
    object(vec![
        ("version", Value::Number(1.0)),
        ("scenarios", Value::Array(scenarios)),
        ("anchors", Value::Array(anchors)),
    ])
    .to_json()
}

/// Parse a corpus JSON document.
///
/// # Errors
///
/// [`AcsError::Json`] on malformed documents or bit/value disagreement
/// (a hand-edited file).
pub fn snapshot_from_json(text: &str) -> Result<Snapshot, AcsError> {
    let doc = parse(text)?;
    let version = doc.require_u64("version")?;
    if version != 1 {
        return Err(AcsError::Json { reason: format!("unsupported corpus version {version}") });
    }
    let arr = |key: &str| -> Result<&[Value], AcsError> {
        doc.require(key)?
            .as_array()
            .ok_or_else(|| AcsError::Json { reason: format!("{key} must be an array") })
    };
    let mut scenarios = Vec::new();
    for s in arr("scenarios")? {
        let digest_hex = s.require_str("digest")?;
        let digest = u64::from_str_radix(digest_hex.trim_start_matches("0x"), 16)
            .map_err(|_| AcsError::Json { reason: format!("bad digest {digest_hex:?}") })?;
        scenarios.push(Scenario {
            name: s.require_str("name")?.to_owned(),
            total: s.require_u64("total")? as usize,
            ok: s.require_u64("ok")? as usize,
            failed: s.require_u64("failed")? as usize,
            digest,
        });
    }
    let mut anchors = Vec::new();
    for a in arr("anchors")? {
        let value = a.require_f64("value")?;
        let bits_hex = a.require_str("bits")?;
        let bits = u64::from_str_radix(bits_hex.trim_start_matches("0x"), 16)
            .map_err(|_| AcsError::Json { reason: format!("bad bits {bits_hex:?}") })?;
        if value.to_bits() != bits {
            return Err(AcsError::Json {
                reason: format!(
                    "anchor {:?}: decimal value and bit pattern disagree (file edited by hand?)",
                    a.require_str("name")?
                ),
            });
        }
        anchors.push(Anchor {
            name: a.require_str("name")?.to_owned(),
            value,
            tolerance: tolerance_from_text(a.require_str("tolerance")?)?,
        });
    }
    Ok(Snapshot { scenarios, anchors })
}

/// Diff a freshly computed snapshot against the blessed one. Returns a
/// human-readable line per divergence; empty means the corpus holds.
#[must_use]
pub fn diff_snapshots(golden: &Snapshot, current: &Snapshot) -> Vec<String> {
    let mut lines = Vec::new();
    for g in &golden.scenarios {
        match current.scenarios.iter().find(|c| c.name == g.name) {
            None => lines.push(format!("scenario {} missing from current run", g.name)),
            Some(c) => {
                if (c.total, c.ok, c.failed) != (g.total, g.ok, g.failed) {
                    lines.push(format!(
                        "scenario {}: shape {}ok/{}failed/{}total vs blessed {}ok/{}failed/{}total",
                        g.name, c.ok, c.failed, c.total, g.ok, g.failed, g.total
                    ));
                } else if c.digest != g.digest {
                    lines.push(format!(
                        "scenario {}: digest {} vs blessed {}",
                        g.name,
                        CacheKey::digest_hex(c.digest),
                        CacheKey::digest_hex(g.digest)
                    ));
                }
            }
        }
    }
    for c in &current.scenarios {
        if !golden.scenarios.iter().any(|g| g.name == c.name) {
            lines.push(format!("scenario {} not blessed (run --bless)", c.name));
        }
    }
    for g in &golden.anchors {
        match current.anchors.iter().find(|c| c.name == g.name) {
            None => lines.push(format!("anchor {:?} missing from current run", g.name)),
            Some(c) => {
                if !g.tolerance.accepts(g.value, c.value) {
                    lines.push(format!(
                        "anchor {:?}: {} vs blessed {} exceeds {} tolerance",
                        g.name, c.value, g.value, g.tolerance
                    ));
                }
            }
        }
    }
    lines
}

/// Recompute the snapshot and diff it against the blessed file.
///
/// # Errors
///
/// [`AcsError::Io`] when the corpus file is unreadable (bless it first)
/// and [`AcsError::Json`] when it is malformed.
pub fn check_corpus(path: &Path) -> Result<Vec<String>, AcsError> {
    let text = std::fs::read_to_string(path).map_err(|e| AcsError::Io {
        path: path.display().to_string(),
        reason: format!("{e} (regenerate with `acs-verify corpus --bless`)"),
    })?;
    let golden = snapshot_from_json(&text)?;
    let current = compute_snapshot()?;
    Ok(diff_snapshots(&golden, &current))
}

/// Recompute the snapshot and write it as the new blessed corpus.
///
/// # Errors
///
/// [`AcsError::Io`] when the file cannot be written.
pub fn bless_corpus(path: &Path) -> Result<Snapshot, AcsError> {
    let snapshot = compute_snapshot()?;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| AcsError::Io {
            path: parent.display().to_string(),
            reason: e.to_string(),
        })?;
    }
    std::fs::write(path, snapshot_to_json(&snapshot) + "\n").map_err(|e| AcsError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    })?;
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_round_trips() {
        let snapshot = Snapshot {
            scenarios: vec![Scenario {
                name: "s".to_owned(),
                total: 10,
                ok: 8,
                failed: 2,
                digest: 0xdead_beef_cafe_f00d,
            }],
            anchors: vec![
                Anchor { name: "a".to_owned(), value: 1.25e-3, tolerance: Tolerance::Exact },
                Anchor { name: "b".to_owned(), value: -0.0, tolerance: Tolerance::Ulps(2) },
                Anchor {
                    name: "c".to_owned(),
                    value: 3.0e8,
                    tolerance: Tolerance::Relative(1e-9),
                },
            ],
        };
        let text = snapshot_to_json(&snapshot);
        let back = snapshot_from_json(&text).expect("round trip parses");
        assert_eq!(back, snapshot);
        assert_eq!(back.anchors[1].value.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn tampered_bits_are_rejected() {
        let snapshot = Snapshot {
            scenarios: vec![],
            anchors: vec![Anchor {
                name: "a".to_owned(),
                value: 2.0,
                tolerance: Tolerance::Exact,
            }],
        };
        let text = snapshot_to_json(&snapshot).replace("\"value\":2", "\"value\":3");
        assert!(snapshot_from_json(&text).is_err(), "bit/value disagreement must be caught");
    }

    #[test]
    fn diff_reports_shape_digest_and_anchor_drift() {
        let golden = Snapshot {
            scenarios: vec![Scenario {
                name: "s".to_owned(),
                total: 4,
                ok: 4,
                failed: 0,
                digest: 1,
            }],
            anchors: vec![Anchor {
                name: "a".to_owned(),
                value: 1.0,
                tolerance: Tolerance::Exact,
            }],
        };
        let mut current = golden.clone();
        assert!(diff_snapshots(&golden, &current).is_empty());
        current.scenarios[0].digest = 2;
        current.anchors[0].value = 1.0 + f64::EPSILON;
        let lines = diff_snapshots(&golden, &current);
        assert_eq!(lines.len(), 2, "{lines:?}");
    }
}
