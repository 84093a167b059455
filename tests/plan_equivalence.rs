//! Golden equivalence between the per-point sweep evaluator and the
//! legacy per-point pipeline, expressed as differential cases.
//!
//! `DseRunner::run_report` lowers each layer plan once per sweep and
//! prices every point against the shared plans. The legacy pipeline it
//! replaced lowers fresh plans at every point and shares nothing; it
//! now lives in `acs_verify::reference` as the naive oracle. Sharing
//! plans is a pure scheduling change: it must not move a single bit of
//! any result, successes and failure ledger (index, kind, message)
//! alike. The comparison machinery lives in `acs_verify::differential`;
//! these tests only declare *which* arms over *which* sweep.

use acs_cache::CacheKey;
use acs_dse::{inject_faults, CandidateParams, SweepReport, SweepSpec};
use acs_errors::json::Value;
use acs_hw::{DataType, DeviceConfig};
use acs_scenarios::ScenarioRegistry;
use acs_verify::{
    design_digest, diff_reports, reference, DiffCase, Differential, EvalPath, Transform,
};

/// The blessed golden-corpus digest of the faulted Table-3 sweep
/// (`planned_table3_fig6_faulted_512` in `crates/verify/corpus/golden.json`).
const FAULTED_TABLE3_DIGEST: u64 = 0xdea1_31e2_0a4f_e944;
/// The blessed golden-corpus digest of the mixed-datatype configurations
/// (`planned_mixed_dtype_48`).
const MIXED_DTYPE_DIGEST: u64 = 0xdcd0_376a_8537_d6ff;

/// Fold per-point outcomes into one digest, exactly as the golden corpus
/// does: `[index, design-digest-or-failure-kind]` rows hashed through the
/// canonical JSON cache key.
fn fold_digest(rows: impl IntoIterator<Item = (usize, String)>) -> u64 {
    let rows = rows
        .into_iter()
        .map(|(index, cell)| Value::Array(vec![Value::Number(index as f64), Value::String(cell)]))
        .collect();
    CacheKey::from_value(&Value::Array(rows)).digest()
}

fn hex_digest(design: &acs_dse::EvaluatedDesign) -> String {
    CacheKey::digest_hex(design_digest(design).expect("designs serialise"))
}

fn report_digest(report: &SweepReport) -> u64 {
    let designs = report.designs.iter().map(|(i, d)| (*i, hex_digest(d)));
    let failures = report.failures.iter().map(|f| (f.index, format!("fail:{}", f.kind())));
    fold_digest(designs.chain(failures))
}

/// The 512-point Table-3 sweep with a fault injected every `stride`th
/// point.
fn faulted_table3(stride: usize) -> Vec<CandidateParams> {
    let mut candidates = SweepSpec::table3_fig6().candidates(4800.0);
    assert_eq!(candidates.len(), 512, "Table-3 sweep size");
    assert!(!inject_faults(&mut candidates, stride).is_empty());
    candidates
}

#[test]
fn planned_sweep_is_bit_identical_to_legacy_with_faults() {
    // 512 points, with a fault injected every 7th: the planned pipeline
    // must reproduce the legacy pipeline's successes bit-for-bit AND
    // fail at exactly the same indices with the same error kinds and
    // messages. The legacy pipeline must itself still reproduce the
    // blessed golden digest.
    let candidates = faulted_table3(7);
    let harness = Differential::paper_default();
    let legacy = reference::run_report(&harness.runner(), &candidates);
    assert_eq!(
        report_digest(&legacy),
        FAULTED_TABLE3_DIGEST,
        "the reference must reproduce the blessed golden digest"
    );

    let case =
        DiffCase::paths("planned-vs-reference-faulted", EvalPath::Reference, EvalPath::Planned);
    let report = harness.run(&candidates, &case);
    assert_eq!(report.points, candidates.len());
    assert!(report.ok > 0, "the sweep must produce successes");
    assert!(report.failed > 0, "the injected faults must reach the ledger");
    report.assert_clean();
}

#[test]
fn planned_sweep_is_unmoved_by_cache_threads_and_order() {
    // The same faulted sweep under every metamorphic transform the
    // planned pipeline promises to be invariant to: a memoization cache,
    // a pinned scheduler, and a shuffled candidate order.
    let candidates = faulted_table3(7);
    let harness = Differential::paper_default();
    for transform in [
        Transform::WarmCache,
        Transform::Threads(1),
        Transform::Threads(3),
        Transform::PermuteOrder { seed: 0x51AB },
    ] {
        let label = format!("planned-{transform}");
        let case = DiffCase::metamorphic(&label, EvalPath::Planned, transform);
        harness.run(&candidates, &case).assert_clean();
    }
}

#[test]
fn planned_sweep_is_bit_identical_across_mixed_dtypes() {
    // A sweep whose devices alternate int8 / fp16 / fp32 exercises one
    // plan pair per datatype width in a single run. Datatype lives on
    // the DeviceConfig rather than the swept candidate axes, so this
    // comparison runs config-by-config.
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
    let legacy: Vec<String> = reference::run_configs(&runner, &configs)
        .iter()
        .map(|outcome| hex_digest(outcome.as_ref().expect("healthy configs evaluate")))
        .collect();
    assert_eq!(
        fold_digest(legacy.iter().cloned().enumerate()),
        MIXED_DTYPE_DIGEST,
        "the reference must reproduce the blessed golden digest"
    );
    for ((cfg, want), got) in configs.iter().zip(&legacy).zip(runner.run_configs(&configs)) {
        assert_eq!(
            &hex_digest(&got.expect("healthy configs evaluate")),
            want,
            "dtype {:?} diverged between planned and legacy pipelines",
            cfg.datatype()
        );
    }
}

#[test]
fn expert_parallel_sweep_is_bit_identical_to_reference() {
    // The Mixtral-shaped tp4/ep4 scenario lowers every layer with
    // dispatch/combine all-to-alls. The reference lowers that graph
    // itself, point by point, so this checks the expert-parallel sweep
    // against an evaluator that shares none of the planned path's plans.
    let runner = ScenarioRegistry::builtin()
        .get("moe-mixtral-fp16-tp4-ep4")
        .expect("builtin scenario")
        .runner();
    assert_eq!(runner.expert_parallel(), 4, "scenario must carry its ep degree");
    let candidates = faulted_table3(11);
    let want = reference::run_report(&runner, &candidates);
    assert!(want.designs.len() > 400, "the MoE sweep must price, got {}", want.designs.len());
    assert!(!want.failures.is_empty(), "the injected faults must reach the ledger");
    diff_reports("planned-vs-reference-ep4", &want, &runner.run_report(&candidates)).assert_clean();
}
