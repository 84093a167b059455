//! Golden equivalence between the lattice sweep engine and the naive
//! reference evaluator, expressed as differential cases.
//!
//! The lattice engine prices each cost leg as a structure-of-arrays
//! vector over only the axes in its dependency key and combines per
//! point with a precompiled program. In exact mode that is a pure
//! evaluation-order change: it must not move a single bit of any
//! result, successes and failure ledger (index, kind, message) alike.
//! The oracle is `acs_verify::reference`, which prices one point at a
//! time and shares no plans, legs or caches. The comparison machinery
//! lives in `acs_verify::differential`; these tests only declare
//! *which* arms over *which* sweep.

use acs_dse::{inject_faults, CandidateParams, SweepSpec};
use acs_hw::DataType;
use acs_scenarios::ScenarioRegistry;
use acs_verify::{diff_reports, reference, DiffCase, Differential, EvalPath, Transform};

/// The 512-point Table-3 sweep with a fault injected every `stride`th
/// point.
fn faulted_table3(stride: usize) -> Vec<CandidateParams> {
    let mut candidates = SweepSpec::table3_fig6().candidates(4800.0);
    assert_eq!(candidates.len(), 512, "Table-3 sweep size");
    assert!(!inject_faults(&mut candidates, stride).is_empty());
    candidates
}

#[test]
fn lattice_sweep_is_bit_identical_to_reference_with_faults() {
    // 512 points, with a fault injected every 7th: the lattice pipeline
    // must reproduce the reference's successes bit-for-bit AND fail at
    // exactly the same indices with the same error kinds and messages —
    // a faulted candidate demotes itself off the fused fast path and is
    // evaluated point-wise, so its ledger entry must still be the
    // oracle's.
    let candidates = faulted_table3(7);
    let case =
        DiffCase::paths("lattice-vs-reference-faulted", EvalPath::Reference, EvalPath::Lattice);
    let report = Differential::paper_default().run(&candidates, &case);
    assert_eq!(report.points, candidates.len());
    assert!(report.ok > 0, "the sweep must produce successes");
    assert!(report.failed > 0, "the injected faults must reach the ledger");
    report.assert_clean();
}

#[test]
fn lattice_sweep_is_unmoved_by_threads_and_order() {
    // The lattice's single-worker branch assembles the report in place
    // instead of merging chunks, and a shuffle moves the faulted sweep's
    // demoted points between chunks: neither may move a result.
    let candidates = faulted_table3(7);
    let harness = Differential::paper_default();
    for transform in [Transform::Threads(1), Transform::PermuteOrder { seed: 0x51AB }] {
        let label = format!("lattice-{transform}");
        let case = DiffCase::metamorphic(&label, EvalPath::Lattice, transform);
        harness.run(&candidates, &case).assert_clean();
    }
}

#[test]
fn lattice_sweep_is_bit_identical_across_mixed_dtypes() {
    // Datatype sits in every leg key and selects the combine program, so
    // each operand format prices its own fused-table key set. The
    // lattice sweeps candidate axes only; a runner-level datatype
    // override retypes every point, so this comparison runs one sweep
    // per format.
    let candidates: Vec<CandidateParams> =
        SweepSpec::table3_fig6().candidates(4800.0).into_iter().take(48).collect();
    let mut seen = Vec::new();
    for dtype in [DataType::Int8, DataType::Fp16, DataType::Fp32] {
        let runner = Differential::paper_default().runner().with_datatype(dtype);
        let want = reference::run_report(&runner, &candidates);
        assert_eq!(want.designs.len(), candidates.len(), "healthy candidates evaluate");
        let got = runner.run_report_lattice(&candidates);
        diff_reports(&format!("lattice-vs-reference-{dtype:?}"), &want, &got).assert_clean();
        seen.push(got.designs[0].1.ttft_s.to_bits());
    }
    seen.dedup();
    assert_eq!(seen.len(), 3, "each datatype must price its own designs");
}

#[test]
fn candidate_permutation_does_not_move_lattice_results() {
    // The same candidates in any order must produce the same per-design
    // results: fused-table keys derive from parameter values, not
    // lattice positions, so a shuffled sweep hits the same entries. The
    // differential runner switches to set discipline automatically for
    // reordering transforms — (name, digest) multisets, bit for bit.
    let spec = SweepSpec {
        systolic_dims: vec![16, 32],
        lanes_per_core: vec![2, 4, 8],
        l1_kib: vec![192, 512, 1024],
        l2_mib: vec![32, 64],
        hbm_tb_s: vec![2.0, 2.8, 3.2],
        device_bw_gb_s: vec![500.0, 900.0],
    };
    let candidates = spec.candidates(4800.0);
    assert_eq!(candidates.len(), spec.cardinality());

    let case = DiffCase::metamorphic(
        "lattice-shuffled",
        EvalPath::Lattice,
        Transform::PermuteOrder { seed: 0xACE5 },
    );
    let report = Differential::paper_default().run(&candidates, &case);
    assert_eq!(report.points, candidates.len());
    report.assert_clean();
}

#[test]
fn expert_parallel_sweep_is_bit_identical_to_reference() {
    // The Mixtral-shaped tp4/ep4 scenario prices its dispatch/combine
    // all-to-alls in the comm leg. The reference lowers that graph
    // itself, point by point, so this checks the broadcast's
    // expert-parallel comm vectors against an independent evaluator.
    let runner = ScenarioRegistry::builtin()
        .get("moe-mixtral-fp16-tp4-ep4")
        .expect("builtin scenario")
        .runner();
    assert_eq!(runner.expert_parallel(), 4, "scenario must carry its ep degree");
    let candidates = faulted_table3(11);
    let want = reference::run_report(&runner, &candidates);
    assert!(want.designs.len() > 400, "the MoE sweep must price, got {}", want.designs.len());
    assert!(!want.failures.is_empty(), "the injected faults must reach the ledger");
    diff_reports("lattice-vs-reference-ep4", &want, &runner.run_report_lattice(&candidates))
        .assert_clean();
}
