//! Order independence of the factored leg tables.
//!
//! A runner keeps one table per cost leg (compute, memory, comm) and
//! phase, keyed by exactly the device parameters that leg reads. The
//! lattice engine fuses its per-signature vectors from these tables, so
//! every design it prices is assembled from their entries. The keys are
//! derived from the concrete device, never from a point's position in
//! the sweep: a shuffled sweep must price the same entries and the same
//! designs.
//!
//! Shares the process-global telemetry registry, so this file keeps to
//! a single `#[test]` (sibling tests in one binary would interleave
//! their counter traffic; separate test binaries run sequentially).

use acs_dse::{SweepReport, SweepSpec};
use acs_verify::{design_digest, Differential, Transform};

fn counter(reg: &acs_telemetry::Registry, name: &str) -> u64 {
    reg.counter_values().iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_default()
}

/// The report's designs as a sorted (name, digest) multiset.
fn design_set(report: &SweepReport) -> Vec<(String, u64)> {
    let mut set: Vec<(String, u64)> = report
        .successes()
        .map(|d| (d.name.clone(), design_digest(d).expect("designs serialise")))
        .collect();
    set.sort();
    set
}

#[test]
fn candidate_permutation_does_not_move_factored_results() {
    // Each order runs on a cold runner. One compute key per (systolic
    // dim, lanes, L1) — the core count is solved from the first two —
    // one memory key per (L2, HBM) and one comm key per bandwidth, each
    // priced once for prefill and once for decode, whatever the order.
    let reg = acs_telemetry::global();
    reg.enable();
    reg.reset();
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
    let compute = spec.systolic_dims.len() * spec.lanes_per_core.len() * spec.l1_kib.len();
    let memory = spec.l2_mib.len() * spec.hbm_tb_s.len();
    let distinct_legs = 2 * (compute + memory + spec.device_bw_gb_s.len()) as u64;

    let shuffled = Transform::PermuteOrder { seed: 0xACE5 }.apply(&candidates);
    assert_ne!(shuffled, candidates, "the shuffle must move candidates");
    let mut sets = Vec::new();
    for order in [&candidates, &shuffled] {
        let before = counter(reg, "dse.factored.leg_miss");
        let report = Differential::paper_default().runner().run_report(order);
        assert_eq!(report.total(), candidates.len());
        assert_eq!(
            counter(reg, "dse.factored.leg_miss") - before,
            distinct_legs,
            "a cold sweep must price each distinct leg key exactly once"
        );
        sets.push(design_set(&report));
    }
    assert_eq!(counter(reg, "dse.lattice.fallback_points"), 0, "every point takes the broadcast");
    assert!(!sets[0].is_empty(), "the sweep must produce designs");
    assert_eq!(sets[0], sets[1], "a shuffled sweep must price the same designs, bit for bit");
    reg.disable();
}
