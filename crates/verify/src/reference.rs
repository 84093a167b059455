//! The naive reference evaluator: the oracle the production sweep
//! engine is checked against.
//!
//! `acs-dse` prices a sweep as a lattice of pre-fused leg vectors
//! (`DseRunner::run_report`), demoting any point it cannot prove clean
//! to a per-point evaluator over layer plans shared across the runner.
//! Both are fast because they share work between points. This module
//! shares nothing: it evaluates one point at a time on the calling thread,
//! lowers fresh layer plans for both phases at every point
//! ([`LayerPlan::build_parallel`]), and prices them through the full
//! per-operator breakdown ([`Simulator::try_simulate_planned`]). No plan
//! slot, leg table, probe cache or fused vector is consulted, so a bug
//! in any of them cannot hide here. Because it lowers the
//! expert-parallel graph itself, it covers expert-parallel scenario
//! runners as well as dense ones.
//!
//! The oracle reads only the runner's configuration (model, workload,
//! device count, expert-parallel group, datatype override, calibration)
//! and applies the guard contract in the production order — area, TPP,
//! perf density, system, plans, die costs, TTFT, TBT — so designs match
//! bit for bit and failures match in index, kind and message.
//!
//! [`whatif_records`] is the what-if engine's oracle in the same spirit:
//! it rebuilds every record of a rule grid one variant at a time, with
//! no corner pins, no classification ledgers and no memo.

use acs_core::{deadweight_loss, indicator_report, ComplianceOverhead, LatencyMetric};
use acs_devices::GpuDatabase;
use acs_dse::{
    CandidateParams, DesignFailure, Distribution, DseRunner, EvaluatedDesign, SweepReport,
    SweptParams,
};
use acs_errors::json::{object, Value};
use acs_errors::{guard, AcsError};
use acs_hw::{AreaModel, CostModel, DeviceConfig, SystemConfig, RETICLE_LIMIT_MM2};
use acs_llm::InferencePhase;
use acs_policy::{Acr2023, Classification, DeviceMetrics, MarketSegment};
use acs_sim::{LayerPlan, Simulator};
use acs_whatif::{RuleGrid, RuleSpec, WhatIfConfig, WhatIfEngine};
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
/// `catch_unwind`: the oracle for `DseRunner::run_report`. A panic
/// becomes the same `EvaluationPanic` failure, labelled with the
/// candidate's name.
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

/// Rebuild every record `WhatIfEngine::paper_default().run_streaming`
/// emits for `grid` over `fleet`, the naive way. Each variant classifies
/// every device of the curated portfolio and every fleet design afresh,
/// through named metrics, under the variant's rule and the published
/// baseline; then it builds every block of the record from scratch. No
/// corner pin, classification ledger or memo is consulted, so a bug in
/// any of them cannot hide here.
///
/// # Errors
///
/// [`AcsError::Json`] if a rule fails to serialise.
pub fn whatif_records(grid: &RuleGrid, fleet: &[EvaluatedDesign]) -> Result<Vec<Value>, AcsError> {
    let devices: Vec<DeviceMetrics> =
        GpuDatabase::curated_65().iter().map(|r| r.to_metrics()).collect();
    let designs: Vec<DeviceMetrics> = fleet
        .iter()
        .map(|d| {
            DeviceMetrics::new(
                d.name.clone(),
                d.tpp,
                d.params.device_bw_gb_s,
                d.die_area_mm2,
                true,
                MarketSegment::DataCenter,
            )
            .with_memory(80.0, d.params.hbm_tb_s * 1000.0)
        })
        .collect();
    let config = WhatIfConfig::paper_default();
    let baseline = RuleSpec::baseline();
    let mut records = Vec::new();
    for (index, spec) in grid.variants().iter().enumerate() {
        let mut device_classes = Vec::new();
        let (mut newly_restricted, mut newly_freed) = (Vec::new(), Vec::new());
        for metrics in &devices {
            let class = spec.classify(metrics);
            device_classes.push(class);
            match (baseline.classify(metrics).is_restricted(), class.is_restricted()) {
                (false, true) => newly_restricted.push(Value::String(metrics.name().to_owned())),
                (true, false) => newly_freed.push(Value::String(metrics.name().to_owned())),
                _ => {}
            }
        }

        let mut fleet_classes = Vec::new();
        let (mut restricted, mut unrestricted) = (Vec::new(), Vec::new());
        for (design, metrics) in fleet.iter().zip(&designs) {
            let class = spec.classify(metrics);
            fleet_classes.push(class);
            if class.is_restricted() {
                restricted.push(design.clone());
            } else {
                unrestricted.push(design.clone());
            }
        }
        let restricted_share =
            if fleet.is_empty() { 0.0 } else { count(restricted.len()) / count(fleet.len()) };
        let columns = &config.indicator_columns;
        let indicators = indicator_report(&unrestricted, LatencyMetric::Tbt, columns)
            .iter()
            .map(|col| {
                object(vec![
                    ("label", Value::String(col.label.clone())),
                    ("median_s", num(col.distribution.median)),
                    ("range_s", num(col.distribution.range())),
                    ("narrowing", num(col.narrowing)),
                ])
            })
            .collect();
        let tbt: Vec<f64> = unrestricted.iter().map(|d| d.tbt_s).collect();
        let cost: Vec<f64> = unrestricted.iter().map(|d| d.good_die_cost_usd).collect();
        let fastest = |designs: &[EvaluatedDesign]| {
            designs.iter().min_by(|a, b| a.tbt_s.total_cmp(&b.tbt_s)).cloned()
        };
        let overhead = match (fastest(&unrestricted), fastest(&restricted)) {
            (Some(compliant), Some(frontier)) => {
                let o = ComplianceOverhead::between(&compliant, &frontier);
                object(vec![
                    ("area_ratio", num(o.area_ratio)),
                    ("die_cost_ratio", num(o.die_cost_ratio)),
                    ("good_die_cost_ratio", num(o.good_die_cost_ratio)),
                    ("ttft_ratio", num(o.ttft_ratio)),
                    ("tbt_ratio", num(o.tbt_ratio)),
                ])
            }
            _ => Value::Null,
        };
        let dwl = deadweight_loss(
            config.market_quantity,
            config.market_price_usd,
            restricted_share,
            config.demand_elasticity,
            config.supply_elasticity,
        );
        let hbm = WhatIfEngine::reference_hbm_packages()
            .iter()
            .map(|p| {
                object(vec![
                    ("name", Value::String(p.name.clone())),
                    ("density_gb_s_mm2", num(p.bandwidth_density())),
                    ("classification", Value::String(spec.classify_hbm(p).to_string())),
                ])
            })
            .collect();

        records.push(object(vec![
            ("variant", num(count(index))),
            ("rule", spec.to_json_value()?),
            (
                "devices",
                object(vec![
                    ("counts", class_counts(&device_classes)),
                    ("newly_restricted", Value::Array(newly_restricted)),
                    ("newly_freed", Value::Array(newly_freed)),
                ]),
            ),
            (
                "fleet",
                object(vec![
                    ("total", num(count(fleet.len()))),
                    ("counts", class_counts(&fleet_classes)),
                    ("restricted_share", num(restricted_share)),
                    ("tbt_unrestricted_s", distribution(&tbt)),
                    ("good_die_cost_unrestricted_usd", distribution(&cost)),
                    ("indicators", Value::Array(indicators)),
                ]),
            ),
            ("hbm", Value::Array(hbm)),
            (
                "externality",
                object(vec![
                    ("deadweight_loss_usd", num(dwl)),
                    ("compliance_overhead", overhead),
                ]),
            ),
        ]));
    }
    Ok(records)
}

/// A finite number, or `null` (the records' encoding of a non-finite
/// value).
fn num(x: f64) -> Value {
    Value::from_f64(x).unwrap_or(Value::Null)
}

#[allow(clippy::cast_precision_loss)]
fn count(n: usize) -> f64 {
    n as f64
}

fn class_counts(classes: &[Classification]) -> Value {
    let tally = |class| num(count(classes.iter().filter(|&&c| c == class).count()));
    object(vec![
        ("not_applicable", tally(Classification::NotApplicable)),
        ("nac_eligible", tally(Classification::NacEligible)),
        ("license_required", tally(Classification::LicenseRequired)),
    ])
}

fn distribution(samples: &[f64]) -> Value {
    match Distribution::from_samples(samples) {
        None => Value::Null,
        Some(d) => object(vec![
            ("count", num(count(d.count))),
            ("min", num(d.min)),
            ("q1", num(d.q1)),
            ("median", num(d.median)),
            ("q3", num(d.q3)),
            ("max", num(d.max)),
            ("mean", num(d.mean)),
        ]),
    }
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
