//! Extension: scenario frontend — one MoE-serving die, every ACR regime.
//!
//! The scenario registry fixes what the sweep layers left implicit: the
//! model family (dense or MoE), the operand width, and the parallelism
//! scheme. Screening one sanctions-optimized MoE design across the
//! builtin scenarios shows why that matters for export control: Eq. 1
//! multiplies TOPS by the operand bit width, so the *same silicon*
//! classifies differently under each scenario's dtype — the fp16 reading
//! sits just under the October 2023 licence line while the int4 reading
//! escapes the rule entirely. A second section re-prices the 4096-design
//! what-if lattice under a dense and an expert-parallel scenario,
//! demonstrating that the fleet economics of `acs-whatif` now carry MoE
//! variants (expert all-to-all and all) rather than only the paper's
//! dense 4-device node.

use crate::util::{banner, ms, write_csv};
use acs_dse::SweepSpec;
use acs_hw::DeviceConfig;
use acs_policy::{Acr2022, Acr2023, DeviceMetrics, MarketSegment};
use acs_scenarios::ScenarioRegistry;
use std::error::Error;

/// Run the scenario-screening study.
///
/// # Errors
///
/// Propagates result-file I/O and configuration failures.
pub fn run() -> Result<(), Box<dyn Error>> {
    banner("Extension: scenario registry — MoE designs under the ACR generations");
    let registry = ScenarioRegistry::builtin();
    let rule_2022 = Acr2022::published();
    let rule_2023 = Acr2023::published();

    // The sanctions-optimized serving die: compute sized to read just
    // under the 4800-TPP licence line at fp16, the silicon budget spent
    // on memory bandwidth instead — the shape the paper's DSE converges
    // on, here hosting MoE expert grids rather than a dense node.
    let design = DeviceConfig::builder()
        .name("moe-compliant-3.2TBs")
        .core_count(207)
        .lanes_per_core(2)
        .l2_mib(64)
        .hbm_bandwidth_tb_s(3.2)
        .build()?;

    println!(
        "{:<30} {:>6} {:>12} {:>8} {:>7} {:>7} {:>18} {:>18}",
        "scenario", "dtype", "parallelism", "devices", "TPP", "PD", "Oct-2022", "Oct-2023"
    );
    let mut rows = Vec::new();
    for scenario in registry.iter() {
        // Same die, retyped to the scenario's operand width: what the
        // datasheet (and hence the rule) sees for this deployment.
        let retyped = scenario.retype(&design)?;
        let metrics = DeviceMetrics::from_config_with_model(&retyped, MarketSegment::DataCenter);
        let c2022 = rule_2022.classify(&metrics);
        let c2023 = rule_2023.classify(&metrics);
        let pd = metrics.performance_density().map_or(0.0, |p| p.0);
        println!(
            "{:<30} {:>6} {:>12} {:>8} {:>7.0} {:>7.2} {:>18} {:>18}",
            scenario.name(),
            scenario.dtype(),
            scenario.parallelism().to_string(),
            scenario.parallelism().devices(),
            metrics.tpp().0,
            pd,
            c2022.to_string(),
            c2023.to_string(),
        );
        rows.push(vec![
            scenario.name().to_owned(),
            scenario.dtype().to_string(),
            scenario.parallelism().to_string(),
            scenario.parallelism().devices().to_string(),
            format!("{:.0}", metrics.tpp().0),
            format!("{:.2}", pd),
            c2022.to_string(),
            c2023.to_string(),
        ]);
    }
    println!("\nreading: one die, three screening outcomes. The fp16 scenarios read the");
    println!("silicon at full width; the fp8 and int4 scenarios shed TPP at constant");
    println!("compute, walking the same design down and out of the October 2023 rule.");

    banner("MoE variants on the 4096-design what-if lattice");
    println!(
        "{:<30} {:>9} {:>7} {:>10}  {:<40} {:>10}",
        "scenario", "evaluated", "failed", "compliant", "best design", "TTFT (ms)"
    );
    // Price the lattice at the 2400-TPP tier — the compliance boundary
    // §4.4 quotes — where low-density points escape the 2023 DC rule.
    for name in ["dense-llama3-fp16-tp4", "moe-mixtral-fp16-tp4-ep4"] {
        let scenario = registry.get(name)?;
        let report = scenario.runner().run_lattice(&SweepSpec::synthetic_fleet(), 2400.0);
        let compliant: Vec<_> =
            report.successes().filter(|d| d.valid_2023()).collect();
        let best = compliant
            .iter()
            .min_by(|a, b| a.tbt_cost_product().total_cmp(&b.tbt_cost_product()))
            .expect("the synthetic lattice always contains compliant designs");
        println!(
            "{:<30} {:>9} {:>7} {:>10}  {:<40} {:>10}",
            name,
            report.designs.len(),
            report.failures.len(),
            compliant.len(),
            best.name,
            ms(best.ttft_s),
        );
    }
    println!("\nreading: the same hardware lattice prices under both workloads; the MoE");
    println!("scenario adds the expert all-to-all leg to every point's collective cost,");
    println!("so fleet planning can now trade sparsity against interconnect exposure.");

    write_csv(
        "ext_scenarios.csv",
        &[
            "scenario",
            "dtype",
            "parallelism",
            "devices",
            "tpp",
            "perf_density",
            "acr_oct2022",
            "acr_oct2023",
        ],
        &rows,
    )
}
