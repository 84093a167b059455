//! Golden equivalence between the per-point evaluator and the naive
//! reference evaluator, expressed as differential cases.
//!
//! Every sweep driver prices through the lattice (held to the reference
//! by `tests/lattice_equivalence.rs`), but the per-point evaluator over
//! the runner's shared layer plans still prices single points, demoted
//! points, explicit device lists (`DseRunner::run_configs`) and whole
//! checkpointed sweeps (`DseRunner::run_report_resumable`, which appends
//! one durable line per point). The reference lowers fresh plans at every
//! point and shares nothing, so sharing plans must not move a single bit
//! of any result, successes and failure ledger (index, kind, message)
//! alike. These tests drive the per-point evaluator through its two
//! public batch entry points.

mod common;

use acs_dse::{CandidateParams, DseRunner, SweepReport, SweepSpec};
use acs_hw::{DataType, DeviceConfig};
use acs_scenarios::ScenarioRegistry;
use acs_verify::{diff_reports, reference, Differential, Transform};
use common::{faulted_table3, fold_digest, hex_digest};
use std::path::PathBuf;

/// The blessed golden-corpus digest of the mixed-datatype configurations
/// (`planned_mixed_dtype_48` in `crates/verify/corpus/golden.json`).
const MIXED_DTYPE_DIGEST: u64 = 0xdcd0_376a_8537_d6ff;

fn checkpoint_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("acs-plan-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{tag}.jsonl", std::process::id()))
}

/// Price `candidates` point by point through a checkpointed sweep into a
/// fresh checkpoint file named by `tag`.
fn resumable_fresh(runner: &DseRunner, candidates: &[CandidateParams], tag: &str) -> SweepReport {
    let path = checkpoint_path(tag);
    let _ = std::fs::remove_file(&path);
    let report = runner.run_report_resumable(candidates, &path).expect("checkpoint writes");
    std::fs::remove_file(&path).unwrap();
    report
}

#[test]
fn planned_sweep_is_bit_identical_to_legacy_with_faults() {
    // 512 points, with a fault injected every 7th: the per-point sweep
    // must reproduce the reference's successes bit-for-bit AND fail at
    // exactly the same indices with the same error kinds and messages.
    let candidates = faulted_table3(7);
    let runner = Differential::paper_default().runner();
    let want = reference::run_report(&runner, &candidates);
    let got = resumable_fresh(&runner, &candidates, "faulted");
    let report = diff_reports("planned-vs-reference-faulted", &want, &got);
    assert_eq!(report.points, candidates.len());
    assert!(report.ok > 0, "the sweep must produce successes");
    assert!(report.failed > 0, "the injected faults must reach the ledger");
    report.assert_clean();
}

#[test]
fn planned_sweep_is_unmoved_by_cache_threads_and_order() {
    // The per-point sweep's memo is its checkpoint: a run that finds
    // every other point already on disk — written by a three-worker run
    // in completion order — prices only the rest and must still match
    // the reference, as must a pinned scheduler and a shuffled order.
    let candidates = faulted_table3(7);
    let want = reference::run_report(&Differential::paper_default().runner(), &candidates);
    let one = Differential::paper_default().runner().with_threads(1);
    diff_reports("planned-threads-1", &want, &resumable_fresh(&one, &candidates, "threads-1"))
        .assert_clean();

    let path = checkpoint_path("warm");
    let _ = std::fs::remove_file(&path);
    let three = Differential::paper_default().runner().with_threads(3);
    let cold = three.run_report_resumable(&candidates, &path).expect("checkpoint writes");
    diff_reports("planned-threads-3", &want, &cold).assert_clean();
    let text = std::fs::read_to_string(&path).unwrap();
    let warm: String = text.lines().step_by(2).map(|line| format!("{line}\n")).collect();
    std::fs::write(&path, warm).unwrap();
    let resumed = one.run_report_resumable(&candidates, &path).expect("checkpoint resumes");
    std::fs::remove_file(&path).unwrap();
    diff_reports("planned-warm-checkpoint", &want, &resumed).assert_clean();

    let shuffled = Transform::PermuteOrder { seed: 0x51AB }.apply(&candidates);
    let runner = Differential::paper_default().runner();
    let got = resumable_fresh(&runner, &shuffled, "permuted");
    diff_reports("planned-permuted", &reference::run_report(&runner, &shuffled), &got)
        .assert_clean();
}

#[test]
fn planned_sweep_is_bit_identical_across_mixed_dtypes() {
    // Explicit configurations whose devices alternate int8 / fp16 / fp32
    // price per point through `run_configs`, one shared plan pair per
    // datatype width in a single run. Datatype lives on the DeviceConfig
    // rather than the swept candidate axes, so this comparison runs
    // config-by-config.
    let configs: Vec<DeviceConfig> = SweepSpec::table3_fig6()
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
            cfg.to_builder().datatype(dtype).build().expect("datatype swap keeps configs valid")
        })
        .collect();
    assert_eq!(configs.len(), 48);

    let runner = Differential::paper_default().runner();
    let want: Vec<String> = reference::run_configs(&runner, &configs)
        .iter()
        .map(|outcome| hex_digest(outcome.as_ref().expect("healthy configs evaluate")))
        .collect();
    assert_eq!(
        fold_digest(want.iter().cloned().enumerate()),
        MIXED_DTYPE_DIGEST,
        "the reference must reproduce the blessed golden digest"
    );
    for ((cfg, want), got) in configs.iter().zip(&want).zip(runner.run_configs(&configs)) {
        assert_eq!(
            &hex_digest(&got.expect("healthy configs evaluate")),
            want,
            "dtype {:?} diverged between run_configs and the reference",
            cfg.datatype()
        );
    }
}

#[test]
fn expert_parallel_sweep_is_bit_identical_to_reference() {
    // The Mixtral-shaped tp4/ep4 scenario lowers every layer with
    // dispatch/combine all-to-alls. The reference lowers that graph
    // itself, point by point, so this checks the runner's shared
    // expert-parallel plans against an evaluator that shares none.
    let runner = ScenarioRegistry::builtin()
        .get("moe-mixtral-fp16-tp4-ep4")
        .expect("builtin scenario")
        .runner();
    assert_eq!(runner.expert_parallel(), 4, "scenario must carry its ep degree");
    let candidates = faulted_table3(11);
    let want = reference::run_report(&runner, &candidates);
    assert!(want.designs.len() > 400, "the MoE sweep must price, got {}", want.designs.len());
    assert!(!want.failures.is_empty(), "the injected faults must reach the ledger");
    diff_reports("planned-vs-reference-ep4", &want, &resumable_fresh(&runner, &candidates, "ep4"))
        .assert_clean();
}
