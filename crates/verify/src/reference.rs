//! The naive reference evaluator: the oracle both production sweep
//! engines are checked against.
//!
//! `acs-dse` prices a sweep two ways — per point over layer plans shared
//! across the sweep (`DseRunner::run_report`), and as a lattice of
//! pre-fused leg vectors (`DseRunner::run_report_lattice`). Both are
//! fast because they share work between points. This module shares
//! nothing: it evaluates one point at a time on the calling thread,
//! lowers fresh layer plans for both phases at every point
//! ([`LayerPlan::build_parallel`]), and prices them through the full
//! per-operator breakdown ([`Simulator::try_simulate_planned`]). No plan
//! slot, leg table, probe cache, fused vector or evaluation cache is
//! consulted, so a bug in any of them cannot hide here. Because it
//! lowers the expert-parallel graph itself, it covers expert-parallel
//! scenario runners as well as dense ones.
//!
//! The oracle reads only the runner's configuration (model, workload,
//! device count, expert-parallel group, datatype override, calibration)
//! and applies the guard contract in the production order — area, TPP,
//! perf density, system, plans, die costs, TTFT, TBT — so designs match
//! bit for bit and failures match in index, kind and message.

use acs_dse::{
    CandidateParams, DesignFailure, DseRunner, EvaluatedDesign, SweepReport, SweptParams,
};
use acs_errors::{guard, AcsError};
use acs_hw::{AreaModel, CostModel, DeviceConfig, SystemConfig, RETICLE_LIMIT_MM2};
use acs_llm::InferencePhase;
use acs_policy::Acr2023;
use acs_sim::{LayerPlan, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Evaluate one configuration under `runner`'s configuration. Every
/// runner prices silicon with the paper's 7 nm area and cost models and
/// screens it against the published October 2023 rule, so the oracle
/// uses those models directly.
///
/// # Errors
///
/// Same contract as `DseRunner::try_evaluate`.
pub fn try_evaluate(
    runner: &DseRunner,
    config: &DeviceConfig,
) -> Result<EvaluatedDesign, AcsError> {
    let retyped;
    let config = match runner.datatype() {
        Some(dt) if dt != config.datatype() => {
            let mut builder = config.to_builder();
            builder.datatype(dt);
            retyped = builder.build()?;
            &retyped
        }
        _ => config,
    };
    let ctx = format!("evaluate.{}", config.name());
    let area =
        guard::ensure_positive(&ctx, "die_area_mm2", AreaModel::n7().die_area(config).total_mm2())?;
    let tpp = guard::ensure_positive(&ctx, "tpp", config.tpp().0)?;
    let pd = guard::ensure_positive(&ctx, "perf_density", tpp / area)?;
    let system = SystemConfig::new(config.clone(), runner.device_count())?;
    let sim = Simulator::with_params(system, runner.sim_params());
    let plan = |phase| {
        LayerPlan::build_parallel(
            runner.model(),
            runner.workload(),
            phase,
            runner.device_count(),
            runner.expert_parallel(),
            config.datatype().bytes(),
        )
    };
    let prefill = plan(InferencePhase::Prefill)?;
    let decode = plan(runner.workload().decode_phase())?;
    let cost = CostModel::n7();
    let die_cost_usd = guard::ensure_positive(&ctx, "die_cost_usd", cost.die_cost_usd(area))?;
    let good_die_cost_usd =
        guard::ensure_positive(&ctx, "good_die_cost_usd", cost.good_die_cost_usd(area))?;
    let ttft = sim.try_simulate_planned(&prefill)?;
    let ttft_s = guard::ensure_positive("simulator", "ttft_s", ttft.total_s())?;
    let tbt = sim.try_simulate_planned(&decode)?;
    let tbt_s = guard::ensure_positive("simulator", "tbt_s", tbt.total_s())?;
    Ok(EvaluatedDesign {
        name: config.name().to_owned(),
        params: SweptParams::of(config),
        tpp,
        die_area_mm2: area,
        perf_density: pd,
        die_cost_usd,
        good_die_cost_usd,
        ttft_s,
        tbt_s,
        within_reticle: area <= RETICLE_LIMIT_MM2,
        pd_unregulated_2023: Acr2023::published().is_unregulated_dc(tpp, pd),
    })
}

/// Evaluate raw sweep candidates one at a time, each behind
/// `catch_unwind`: the oracle for `DseRunner::run_report` and
/// `DseRunner::run_report_lattice`. A panic becomes the same
/// `EvaluationPanic` failure, labelled with the candidate's name.
#[must_use]
pub fn run_report(runner: &DseRunner, candidates: &[CandidateParams]) -> SweepReport {
    let mut report = SweepReport::default();
    for (index, cand) in candidates.iter().enumerate() {
        match contained(&cand.name, || cand.build().and_then(|cfg| try_evaluate(runner, &cfg))) {
            Ok(design) => report.designs.push((index, design)),
            Err(reason) => {
                report.failures.push(DesignFailure { index, params: cand.name.clone(), reason });
            }
        }
    }
    report
}

/// Evaluate explicit configurations one at a time: the oracle for
/// `DseRunner::run_configs`. `result[i]` is the outcome of `configs[i]`.
#[must_use]
pub fn run_configs(
    runner: &DseRunner,
    configs: &[DeviceConfig],
) -> Vec<Result<EvaluatedDesign, AcsError>> {
    configs.iter().map(|cfg| contained(cfg.name(), || try_evaluate(runner, cfg))).collect()
}

/// Run `f`, turning a panic into the typed failure the production
/// scheduler reports for it.
fn contained(
    label: &str,
    f: impl FnOnce() -> Result<EvaluatedDesign, AcsError>,
) -> Result<EvaluatedDesign, AcsError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(AcsError::EvaluationPanic { design: label.to_owned(), message })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_dse::SweepSpec;
    use acs_llm::{ModelConfig, WorkloadConfig};

    fn runner() -> DseRunner {
        DseRunner::new(ModelConfig::gpt3_175b(), WorkloadConfig::paper_default())
    }

    fn small_spec() -> SweepSpec {
        SweepSpec {
            systolic_dims: vec![16],
            lanes_per_core: vec![2, 4],
            l1_kib: vec![192, 1024],
            l2_mib: vec![40],
            hbm_tb_s: vec![2.0, 3.2],
            device_bw_gb_s: vec![600.0],
        }
    }

    #[test]
    fn reference_matches_the_per_point_evaluator() {
        let r = runner();
        for cfg in small_spec().configs(4800.0) {
            let planned = r.try_evaluate(&cfg).unwrap();
            let reference = try_evaluate(&r, &cfg).unwrap();
            assert_eq!(planned, reference);
            assert_eq!(planned.ttft_s.to_bits(), reference.ttft_s.to_bits());
            assert_eq!(planned.tbt_s.to_bits(), reference.tbt_s.to_bits());
        }
    }

    #[test]
    fn reference_applies_the_runner_configuration() {
        let cfg = DeviceConfig::a100_like();
        let narrow = runner().with_datatype(acs_hw::DataType::Int4).with_device_count(8);
        let reference = try_evaluate(&narrow, &cfg).unwrap();
        assert_eq!(reference, narrow.try_evaluate(&cfg).unwrap());
        assert!(reference.tpp < try_evaluate(&runner(), &cfg).unwrap().tpp);
        // A degenerate node fails as the production path does.
        let err = try_evaluate(&runner().with_device_count(0), &cfg).unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
    }

    #[test]
    fn reference_ledgers_invalid_candidates_in_order() {
        let r = runner();
        let mut candidates = small_spec().candidates(4800.0);
        candidates[1].hbm_tb_s = 0.0;
        candidates[3].lanes_per_core = 0;
        let report = run_report(&r, &candidates);
        assert_eq!(report.total(), candidates.len());
        let failed: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
        assert_eq!(failed, vec![1, 3]);
        assert_eq!(report, r.run_report(&candidates));
    }
}
