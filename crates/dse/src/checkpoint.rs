//! Sweep checkpointing: incremental JSONL results with resume.
//!
//! [`DseRunner::run_report_resumable`] appends one JSON line per design
//! point as it completes, so an interrupted thousand-point sweep loses at
//! most the in-flight points. On restart with the same candidate list and
//! path, finished entries are loaded instead of re-evaluated and the
//! final [`SweepReport`] is identical to an uninterrupted run's.
//!
//! Entry format (one object per line, keyed by the candidate's position
//! in the deterministic sweep order):
//!
//! ```json
//! {"index":17,"design":"dse-s16-l4-...","status":"ok","result":{...}}
//! {"index":18,"design":"...!fault-nan","status":"failed","error":{"kind":"invalid_config",...}}
//! ```
//!
//! Failures are stored structurally (via [`AcsError::to_json_value`]) so
//! a resumed run reconstructs the failure ledger exactly. A torn final
//! line — the signature of a process killed mid-write — is tolerated and
//! re-evaluated; corruption anywhere else is a [`AcsError::Checkpoint`]
//! error, as is an entry whose design name disagrees with the candidate
//! list (a checkpoint from a different sweep).

use crate::evaluate::{DseRunner, EvaluatedDesign, SweptParams};
use crate::report::{DesignFailure, SweepReport};
use crate::sweeps::CandidateParams;
use acs_errors::json::{self, Value};
use acs_errors::AcsError;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

fn io_err(path: &Path, e: &std::io::Error) -> AcsError {
    AcsError::Io { path: path.display().to_string(), reason: e.to_string() }
}

fn corrupt(path: &Path, reason: String) -> AcsError {
    AcsError::Checkpoint { path: path.display().to_string(), reason }
}

fn u32_member(v: &Value, key: &str) -> Result<u32, AcsError> {
    u32::try_from(v.require_u64(key)?)
        .map_err(|_| AcsError::Json { reason: format!("member {key:?} exceeds u32 range") })
}

impl SweptParams {
    /// Structural JSON form for checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] if a bandwidth is non-finite (valid
    /// configurations never are).
    pub fn to_json_value(&self) -> Result<Value, AcsError> {
        Ok(json::object(vec![
            ("systolic_dim", Value::Number(f64::from(self.systolic_dim))),
            ("lanes_per_core", Value::Number(f64::from(self.lanes_per_core))),
            ("core_count", Value::Number(f64::from(self.core_count))),
            ("l1_kib", Value::Number(f64::from(self.l1_kib))),
            ("l2_mib", Value::Number(f64::from(self.l2_mib))),
            ("hbm_tb_s", Value::from_f64(self.hbm_tb_s)?),
            ("device_bw_gb_s", Value::from_f64(self.device_bw_gb_s)?),
        ]))
    }

    /// Parse the structural form emitted by [`SweptParams::to_json_value`].
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] on a missing or mistyped member.
    pub fn from_json_value(v: &Value) -> Result<Self, AcsError> {
        Ok(SweptParams {
            systolic_dim: u32_member(v, "systolic_dim")?,
            lanes_per_core: u32_member(v, "lanes_per_core")?,
            core_count: u32_member(v, "core_count")?,
            l1_kib: u32_member(v, "l1_kib")?,
            l2_mib: u32_member(v, "l2_mib")?,
            hbm_tb_s: v.require_f64("hbm_tb_s")?,
            device_bw_gb_s: v.require_f64("device_bw_gb_s")?,
        })
    }
}

impl EvaluatedDesign {
    /// Structural JSON form for checkpoints. Rust's shortest-round-trip
    /// float formatting makes the cycle bit-exact, which is what lets a
    /// resumed report compare equal to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] if a metric is non-finite (the
    /// evaluation guards make that unreachable for real results).
    pub fn to_json_value(&self) -> Result<Value, AcsError> {
        Ok(json::object(vec![
            ("name", Value::String(self.name.clone())),
            ("params", self.params.to_json_value()?),
            ("tpp", Value::from_f64(self.tpp)?),
            ("die_area_mm2", Value::from_f64(self.die_area_mm2)?),
            ("perf_density", Value::from_f64(self.perf_density)?),
            ("die_cost_usd", Value::from_f64(self.die_cost_usd)?),
            ("good_die_cost_usd", Value::from_f64(self.good_die_cost_usd)?),
            ("ttft_s", Value::from_f64(self.ttft_s)?),
            ("tbt_s", Value::from_f64(self.tbt_s)?),
            ("within_reticle", Value::Bool(self.within_reticle)),
            ("pd_unregulated_2023", Value::Bool(self.pd_unregulated_2023)),
        ]))
    }

    /// Parse the structural form emitted by
    /// [`EvaluatedDesign::to_json_value`].
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] on a missing or mistyped member.
    pub fn from_json_value(v: &Value) -> Result<Self, AcsError> {
        Ok(EvaluatedDesign {
            name: v.require_str("name")?.to_owned(),
            params: SweptParams::from_json_value(v.require("params")?)?,
            tpp: v.require_f64("tpp")?,
            die_area_mm2: v.require_f64("die_area_mm2")?,
            perf_density: v.require_f64("perf_density")?,
            die_cost_usd: v.require_f64("die_cost_usd")?,
            good_die_cost_usd: v.require_f64("good_die_cost_usd")?,
            ttft_s: v.require_f64("ttft_s")?,
            tbt_s: v.require_f64("tbt_s")?,
            within_reticle: v.require_bool("within_reticle")?,
            pd_unregulated_2023: v.require_bool("pd_unregulated_2023")?,
        })
    }
}

/// Serialise one checkpoint entry (without the trailing newline).
fn entry_line(
    index: usize,
    design: &str,
    outcome: &Result<EvaluatedDesign, AcsError>,
) -> Result<String, AcsError> {
    let mut members = vec![
        ("index", Value::Number(index as f64)),
        ("design", Value::String(design.to_owned())),
    ];
    match outcome {
        Ok(d) => {
            members.push(("status", Value::String("ok".to_owned())));
            members.push(("result", d.to_json_value()?));
        }
        Err(e) => {
            members.push(("status", Value::String("failed".to_owned())));
            members.push(("error", e.to_json_value()));
        }
    }
    Ok(json::object(members).to_json())
}

/// Parse one checkpoint entry into `(index, design name, outcome)`.
fn parse_entry(line: &str) -> Result<(usize, String, Result<EvaluatedDesign, AcsError>), AcsError> {
    let v = json::parse(line)?;
    let index = usize::try_from(v.require_u64("index")?)
        .map_err(|_| AcsError::Json { reason: "entry index exceeds usize".to_owned() })?;
    let design = v.require_str("design")?.to_owned();
    let outcome = match v.require_str("status")? {
        "ok" => Ok(EvaluatedDesign::from_json_value(v.require("result")?)?),
        "failed" => Err(AcsError::from_json_value(v.require("error")?)?),
        other => return Err(AcsError::Json { reason: format!("unknown entry status {other:?}") }),
    };
    Ok((index, design, outcome))
}

/// Load finished entries from a checkpoint file, validating each against
/// the candidate list. A missing file is an empty checkpoint. A torn
/// *final* line (interrupted write) is dropped; any earlier corruption,
/// an out-of-range index, or a design-name mismatch is a
/// [`AcsError::Checkpoint`] error.
///
/// Returns the finished entries plus the byte length of the valid prefix.
/// When a torn final line was dropped the prefix ends before it, and a
/// resuming writer must truncate the file to that length before appending
/// — otherwise the next entry would concatenate with the torn fragment
/// and corrupt the checkpoint mid-file.
///
/// # Errors
///
/// See above; I/O failures surface as [`AcsError::Io`].
pub fn load_checkpoint(
    path: &Path,
    candidates: &[CandidateParams],
) -> Result<(BTreeMap<usize, Result<EvaluatedDesign, AcsError>>, u64), AcsError> {
    let mut done = BTreeMap::new();
    if !path.exists() {
        return Ok((done, 0));
    }
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    let segments: Vec<&str> = text.split_inclusive('\n').collect();
    let mut valid_bytes = 0u64;
    for (lineno, segment) in segments.iter().enumerate() {
        let line = segment.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            valid_bytes += segment.len() as u64;
            continue;
        }
        match parse_entry(line) {
            Ok((index, design, outcome)) => {
                let cand = candidates.get(index).ok_or_else(|| {
                    corrupt(
                        path,
                        format!(
                            "line {}: index {index} out of range for {} candidates",
                            lineno + 1,
                            candidates.len()
                        ),
                    )
                })?;
                if cand.name != design {
                    return Err(corrupt(
                        path,
                        format!(
                            "line {}: entry is for design {design:?} but candidate #{index} \
                             is {:?} — checkpoint belongs to a different sweep",
                            lineno + 1,
                            cand.name
                        ),
                    ));
                }
                done.insert(index, outcome);
                valid_bytes += segment.len() as u64;
            }
            // A malformed last line is the signature of an interrupted
            // write; the point is simply re-evaluated. Anywhere else it
            // is corruption.
            Err(e) if lineno + 1 == segments.len() => {
                let _ = e;
                break;
            }
            Err(e) => return Err(corrupt(path, format!("line {}: {e}", lineno + 1))),
        }
    }
    Ok((done, valid_bytes))
}

fn record_first(slot: &Mutex<Option<AcsError>>, e: AcsError) {
    let mut s = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if s.is_none() {
        *s = Some(e);
    }
}

fn push_outcome(
    report: &mut SweepReport,
    index: usize,
    name: &str,
    outcome: Result<EvaluatedDesign, AcsError>,
) {
    match outcome {
        Ok(d) => report.designs.push((index, d)),
        Err(reason) => {
            report.failures.push(DesignFailure { index, params: name.to_owned(), reason });
        }
    }
}

impl DseRunner {
    /// [`DseRunner::run_report`] with checkpointing: points are priced one
    /// at a time by the per-point evaluator, every completed point is
    /// appended to the JSONL file at `path` (flushed per line), and
    /// points already present there are loaded instead of re-evaluated.
    /// Candidate order is the deterministic sweep order, so the same
    /// spec + path resumes exactly where an interrupted run stopped and
    /// produces an identical report.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Checkpoint`] for a corrupt or mismatched
    /// checkpoint and [`AcsError::Io`] when the file cannot be read,
    /// created, or appended. Per-design failures do *not* abort the run —
    /// they land in the report's failure ledger.
    pub fn run_report_resumable(
        &self,
        candidates: &[CandidateParams],
        path: &Path,
    ) -> Result<SweepReport, AcsError> {
        let (done, valid_bytes) = {
            let _load_span = acs_telemetry::span("dse.checkpoint.load");
            load_checkpoint(path, candidates)?
        };
        if acs_telemetry::enabled() {
            acs_telemetry::count("dse.checkpoint.loaded", done.len() as u64);
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(parent, &e))?;
            }
        }
        // Drop a torn final line before appending, or the next entry would
        // fuse with the fragment and corrupt the checkpoint mid-file.
        match std::fs::metadata(path) {
            Ok(meta) if meta.len() > valid_bytes => {
                let repair = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err(path, &e))?;
                repair.set_len(valid_bytes).map_err(|e| io_err(path, &e))?;
            }
            _ => {}
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        let sink = Mutex::new(BufWriter::new(file));
        let write_failure: Mutex<Option<AcsError>> = Mutex::new(None);

        let pending: Vec<(usize, CandidateParams)> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| !done.contains_key(i))
            .map(|(i, c)| (i, c.clone()))
            .collect();

        let fresh = self.parallel_map(&pending, |(_, cand)| cand.name.as_str(), |(index, cand)| {
            let outcome = cand.build().and_then(|cfg| self.try_evaluate(&cfg));
            match entry_line(*index, &cand.name, &outcome) {
                Ok(line) => {
                    let mut w = sink.lock().unwrap_or_else(PoisonError::into_inner);
                    // Flush per entry: an interrupted run may tear at most
                    // the line being written, which resume tolerates.
                    let t0 = acs_telemetry::enabled().then(std::time::Instant::now);
                    let wrote = writeln!(w, "{line}").and_then(|()| w.flush());
                    if let Some(t0) = t0 {
                        acs_telemetry::observe(
                            "dse.checkpoint.write_us",
                            t0.elapsed().as_secs_f64() * 1e6,
                        );
                        acs_telemetry::count("dse.checkpoint.appended", 1);
                    }
                    if let Err(e) = wrote {
                        record_first(&write_failure, io_err(path, &e));
                    }
                }
                Err(e) => record_first(&write_failure, e),
            }
            outcome
        });
        if let Some(e) = write_failure.lock().unwrap_or_else(PoisonError::into_inner).take() {
            return Err(e);
        }

        let mut report = SweepReport::default();
        for (index, outcome) in done {
            push_outcome(&mut report, index, &candidates[index].name, outcome);
        }
        for ((index, cand), outcome) in pending.iter().zip(fresh) {
            push_outcome(&mut report, *index, &cand.name, outcome);
        }
        report.normalise();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::SweepSpec;
    use acs_llm::{ModelConfig, WorkloadConfig};
    use std::path::PathBuf;

    fn runner() -> DseRunner {
        DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default())
    }

    fn spec() -> SweepSpec {
        SweepSpec {
            systolic_dims: vec![16],
            lanes_per_core: vec![2, 4],
            l1_kib: vec![192, 1024],
            l2_mib: vec![40],
            hbm_tb_s: vec![2.0, 3.2],
            device_bw_gb_s: vec![600.0],
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("acs-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn evaluated_design_round_trips_bit_exactly() {
        let r = runner();
        let cands = spec().candidates(4800.0);
        let d = r.try_evaluate(&cands[0].build().unwrap()).unwrap();
        let text = d.to_json_value().unwrap().to_json();
        let back = EvaluatedDesign::from_json_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.ttft_s.to_bits(), d.ttft_s.to_bits());
    }

    #[test]
    fn entries_round_trip_both_statuses() {
        let r = runner();
        let cands = spec().candidates(4800.0);
        let ok = r.try_evaluate(&cands[1].build().unwrap());
        let line = entry_line(1, &cands[1].name, &ok).unwrap();
        let (i, name, outcome) = parse_entry(&line).unwrap();
        assert_eq!((i, name.as_str()), (1, cands[1].name.as_str()));
        assert_eq!(outcome.unwrap(), ok.unwrap());

        let failed: Result<EvaluatedDesign, AcsError> =
            Err(AcsError::invalid_config("hbm.bandwidth_gb_s", "must be positive"));
        let line = entry_line(7, "bad-cand", &failed).unwrap();
        let (i, name, outcome) = parse_entry(&line).unwrap();
        assert_eq!((i, name.as_str()), (7, "bad-cand"));
        assert_eq!(outcome.unwrap_err(), failed.unwrap_err());
    }

    #[test]
    fn fresh_run_writes_one_entry_per_candidate() {
        let path = temp_path("fresh");
        let _ = std::fs::remove_file(&path);
        let cands = spec().candidates(4800.0);
        let report = runner().run_report_resumable(&cands, &path).unwrap();
        assert_eq!(report.total(), cands.len());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), cands.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interrupted_run_resumes_to_identical_report() {
        let path = temp_path("resume");
        let _ = std::fs::remove_file(&path);
        let r = runner();
        let cands = spec().candidates(4800.0);
        let clean = r.run_report(&cands);

        // Simulate an interruption: checkpoint only the first three
        // entries, the last one torn mid-write.
        let mut partial = String::new();
        for (i, cand) in cands.iter().take(3).enumerate() {
            let outcome = cand.build().and_then(|cfg| r.try_evaluate(&cfg));
            partial.push_str(&entry_line(i, &cand.name, &outcome).unwrap());
            partial.push('\n');
        }
        let torn = entry_line(3, &cands[3].name, &Ok(clean.designs[3].1.clone())).unwrap();
        partial.push_str(&torn[..torn.len() / 2]);
        std::fs::write(&path, &partial).unwrap();

        let resumed = r.run_report_resumable(&cands, &path).unwrap();
        assert_eq!(resumed, clean);
        // The torn line was truncated before appending, leaving a clean
        // file that now covers every point.
        let (done, _) = load_checkpoint(&path, &cands).unwrap();
        assert_eq!(done.len(), cands.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_skips_finished_entries() {
        let path = temp_path("skip");
        let _ = std::fs::remove_file(&path);
        let cands = spec().candidates(4800.0);
        let r = runner();
        let first = r.run_report_resumable(&cands, &path).unwrap();
        let lines_after_first = std::fs::read_to_string(&path).unwrap().lines().count();
        let second = r.run_report_resumable(&cands, &path).unwrap();
        // Nothing was re-evaluated, so nothing was appended.
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), lines_after_first);
        assert_eq!(first, second);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let path = temp_path("mismatch");
        let cands = spec().candidates(4800.0);
        let failed: Result<EvaluatedDesign, AcsError> =
            Err(AcsError::invalid_config("f", "r"));
        let line = entry_line(0, "some-other-sweep-design", &failed).unwrap();
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let err = runner().run_report_resumable(&cands, &path).unwrap_err();
        assert_eq!(err.kind(), "checkpoint");
        assert!(err.to_string().contains("different sweep"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_before_the_last_line_is_an_error() {
        let path = temp_path("corrupt");
        let cands = spec().candidates(4800.0);
        let failed: Result<EvaluatedDesign, AcsError> =
            Err(AcsError::invalid_config("f", "r"));
        let good = entry_line(0, &cands[0].name, &failed).unwrap();
        std::fs::write(&path, format!("not json\n{good}\n")).unwrap();
        let err = load_checkpoint(&path, &cands).unwrap_err();
        assert_eq!(err.kind(), "checkpoint");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_checkpoint() {
        let path = temp_path("missing-never-created");
        let _ = std::fs::remove_file(&path);
        let (done, valid_bytes) = load_checkpoint(&path, &spec().candidates(4800.0)).unwrap();
        assert!(done.is_empty());
        assert_eq!(valid_bytes, 0);
    }
}
