//! Acceptance proof for the scenario frontend's lattice economics: a
//! cold MoE scenario sweep takes the broadcast at every point
//! (`dse.lattice.fallback_points` stays 0, the expert all-to-all legs
//! included), and every later sweep against the same runner re-prices
//! entirely from the runner's persistent memo — zero new
//! `dse.factored.leg_miss` — while a dense scenario reproduces the plain
//! runner's designs digest for digest, bit-identically.
//!
//! Shares the process-global telemetry registry, so this file keeps to
//! a single `#[test]` (sibling tests in one binary would interleave
//! their counter traffic; separate test binaries run sequentially).

use acs_dse::{DseRunner, SweepSpec};
use acs_llm::{ModelConfig, WorkloadConfig};
use acs_scenarios::ScenarioRegistry;
use acs_verify::design_digest;

/// Points in [`SweepSpec::table3_fig6`].
const POINTS: usize = 512;

fn counter(reg: &acs_telemetry::Registry, name: &str) -> u64 {
    reg.counter_values().iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_default()
}

#[test]
fn moe_scenario_sweeps_reprice_from_persistent_leg_tables() {
    let reg = acs_telemetry::global();
    reg.enable();
    reg.reset();
    let registry = ScenarioRegistry::builtin();
    let spec = SweepSpec::table3_fig6();

    // Cold pass under the expert-parallel scenario: some leg lookups
    // must miss to fill the tables, including the expert all-to-all
    // legs the ep=4 communication key introduces, yet every point takes
    // the fused broadcast — none demotes to the per-point evaluator.
    let moe = registry.get("moe-mixtral-fp16-tp4-ep4").expect("builtin scenario");
    let runner = moe.runner();
    assert_eq!(runner.expert_parallel(), 4, "scenario must carry its ep degree");
    let cold = runner.run_lattice(&spec, 4800.0);
    assert_eq!(cold.total(), POINTS);
    assert!(cold.failures.is_empty(), "the Table-3 sweep has no infeasible points");
    assert_eq!(
        counter(reg, "dse.lattice.fallback_points"),
        0,
        "every cold MoE point must take the broadcast"
    );
    let misses_1 = counter(reg, "dse.factored.leg_miss");
    assert!(misses_1 > 0, "a cold pass must price at least one leg");

    // Warm pass: the same sweep re-prices wholly from the runner's
    // memo. Designs must come back bit-identical to the cold pass.
    let warm = runner.run_lattice(&spec, 4800.0);
    assert_eq!(
        counter(reg, "dse.factored.leg_miss"),
        misses_1,
        "a warm sweep must not price any new legs"
    );
    assert_eq!(counter(reg, "dse.lattice.fallback_points"), 0);
    assert_eq!(warm.designs, cold.designs, "warm designs must be bit-identical");

    // The dense scenario is the historical default spelled as a
    // scenario: its sweep must reproduce the plain runner's designs
    // digest for digest, so registering the frontend changed nothing.
    let dense = registry.get("dense-llama3-fp16-tp4").expect("builtin scenario");
    let via_scenario = dense.runner().run_lattice(&spec, 4800.0);
    let plain = DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default())
        .run_lattice(&spec, 4800.0);
    assert_eq!(via_scenario.designs.len(), plain.designs.len());
    assert_eq!(via_scenario.failures.len(), plain.failures.len());
    for ((si, sd), (pi, pd)) in via_scenario.designs.iter().zip(&plain.designs) {
        assert_eq!(si, pi, "sweep indices must pair up");
        assert_eq!(
            design_digest(sd).expect("serializable design"),
            design_digest(pd).expect("serializable design"),
            "dense scenario drifted from the plain runner at {}",
            sd.name
        );
    }
    reg.disable();
}
