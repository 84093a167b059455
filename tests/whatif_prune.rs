//! Rule-grid pruning proof over the 64-variant reference grid: the
//! corner pre-screen pins most of the portfolio, every pinned ledger
//! stays entry-identical to a full screen, the streamed records are
//! byte-identical across repeated runs, and the `whatif.prune.*`
//! counters account for exactly the work the pruning skipped.
//!
//! Shares the process-global telemetry registry, so this file keeps to
//! a single `#[test]`.

use acs_dse::{DseRunner, SweepSpec};
use acs_llm::{ModelConfig, WorkloadConfig};
use acs_whatif::{ClassificationLedger, RuleGrid, WhatIfEngine};

/// The `bench_whatif` reference grid: 2 x 4 x 2 x 4 = 64 rule variants,
/// including the memory-bandwidth rule's 0 = not-enacted sentinel.
fn reference_grid_64() -> RuleGrid {
    let mut grid = RuleGrid::baseline();
    grid.tpp_threshold_2022 = vec![2400.0, 4800.0];
    grid.tpp_license = vec![1600.0, 2400.0, 3600.0, 4800.0];
    grid.pd_license = vec![3.0, 5.92];
    grid.mem_bw_license = vec![0.0, 600.0, 800.0, 1000.0];
    grid
}

#[test]
fn corner_pinning_skips_most_classifications_and_changes_nothing() {
    let reg = acs_telemetry::global();
    reg.enable();
    reg.reset();

    let grid = reference_grid_64();
    assert_eq!(grid.cardinality(), 64);
    let engine = WhatIfEngine::paper_default();

    // A small priced fleet so the fleet-side pruning and memoization
    // paths run too (48 designs at the 2400-TPP operating point).
    let spec = SweepSpec {
        systolic_dims: vec![16],
        lanes_per_core: vec![4, 8],
        l1_kib: vec![192, 1024],
        l2_mib: vec![40, 80],
        hbm_tb_s: vec![2.0, 3.2, 4.0],
        device_bw_gb_s: vec![600.0],
    };
    let runner = DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default());
    let report = runner.run_lattice(&spec, 2400.0);
    assert!(report.failures.is_empty());
    let fleet: Vec<_> = report.designs.into_iter().map(|(_, d)| d).collect();
    let fleet_metrics = engine.priced_fleet(&fleet, 0).unwrap().metrics();

    // --- the corner sandwich is sound: pinned ledgers == full ledgers ---
    let (strict, loose) = grid.corner_specs();
    let device_pins = ClassificationLedger::corner_pins(&strict, &loose, engine.devices());
    let fleet_pins = ClassificationLedger::corner_pins(&strict, &loose, &fleet_metrics);
    let pinned_devices = device_pins.iter().flatten().count();
    let pinned_fleet = fleet_pins.iter().flatten().count();
    assert!(
        pinned_devices * 2 > engine.devices().len(),
        "the reference grid should pin most of the 65-device portfolio, pinned {pinned_devices}"
    );
    let mut skipped_expected = 0_u64;
    for spec in grid.variants() {
        let (pinned, skipped_d) =
            ClassificationLedger::screen_pinned(&spec, engine.devices(), &device_pins);
        assert_eq!(pinned, ClassificationLedger::screen(&spec, engine.devices()));
        let (pinned_f, skipped_f) =
            ClassificationLedger::screen_pinned(&spec, &fleet_metrics, &fleet_pins);
        assert_eq!(pinned_f, ClassificationLedger::screen(&spec, &fleet_metrics));
        assert_eq!((skipped_d, skipped_f), (pinned_devices, pinned_fleet));
        skipped_expected += (skipped_d + skipped_f) as u64;
    }

    // --- counters prove the skip on the full engine run ---
    reg.reset();
    let (summary, records) = engine.run(&grid, &fleet).unwrap();
    assert_eq!(summary.variants, 64);
    let counters = reg.counter_values();
    let counter = |name: &str| {
        counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_default()
    };
    assert_eq!(counter("whatif.variants"), 64);
    assert_eq!(
        counter("whatif.prune.pinned_entries"),
        (pinned_devices + pinned_fleet) as u64
    );
    assert_eq!(counter("whatif.prune.classify_skipped"), skipped_expected);
    assert!(
        skipped_expected > 64 * 65 / 2,
        "pruning should skip the majority of the portfolio's 64-variant classifications, \
         skipped {skipped_expected}"
    );
    // The 64 variants collapse to far fewer distinct ledgers, so most
    // record blocks come from the memo.
    let device_hits = counter("whatif.prune.device_memo_hits");
    let fleet_hits = counter("whatif.prune.fleet_memo_hits");
    assert!(device_hits > 0, "some device blocks should be memo hits");
    assert!(fleet_hits > 0, "some fleet blocks should be memo hits");
    assert!(device_hits < 64 && fleet_hits < 64, "first sighting of a ledger is a miss");

    // --- pruning is invisible in the output: reruns are byte-identical ---
    let (_, again) = engine.run(&grid, &fleet).unwrap();
    let bytes = |rs: &[acs_errors::json::Value]| {
        rs.iter().map(acs_errors::json::Value::to_json).collect::<Vec<_>>()
    };
    assert_eq!(bytes(&records), bytes(&again));
}
