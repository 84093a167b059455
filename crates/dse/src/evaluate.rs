//! Design-point evaluation: latency, area, compliance, and cost.

use crate::report::SweepReport;
use crate::sweeps::SweepSpec;
use acs_errors::{guard, AcsError};
use acs_hw::{AreaModel, CostModel, DeviceConfig, SystemConfig, RETICLE_LIMIT_MM2};
use acs_llm::{ModelConfig, WorkloadConfig};
use acs_policy::Acr2023;
use acs_sim::{SimParams, Simulator};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The swept architectural parameters of one design, kept alongside its
/// results so distributions can be grouped by a fixed parameter
/// (Figures 11 and 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweptParams {
    /// Square systolic dimension.
    pub systolic_dim: u32,
    /// Lanes per core.
    pub lanes_per_core: u32,
    /// Core count (solved from the TPP ceiling).
    pub core_count: u32,
    /// L1 per core in KiB.
    pub l1_kib: u32,
    /// L2 in MiB.
    pub l2_mib: u32,
    /// HBM bandwidth in TB/s.
    pub hbm_tb_s: f64,
    /// Device bandwidth in GB/s.
    pub device_bw_gb_s: f64,
}

impl SweptParams {
    /// Extract the swept parameters from a configuration.
    #[must_use]
    pub fn of(config: &DeviceConfig) -> Self {
        SweptParams {
            systolic_dim: config.systolic().x,
            lanes_per_core: config.lanes_per_core(),
            core_count: config.core_count(),
            l1_kib: config.l1_kib_per_core(),
            l2_mib: config.l2_mib(),
            hbm_tb_s: config.hbm().bandwidth_tb_s(),
            device_bw_gb_s: config.phy().total_gb_s(),
        }
    }
}

/// One fully evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedDesign {
    /// Design name.
    pub name: String,
    /// The swept parameters.
    pub params: SweptParams,
    /// Achieved TPP (just under the sweep's ceiling).
    pub tpp: f64,
    /// Modelled die area in mm².
    pub die_area_mm2: f64,
    /// Performance density (TPP / area).
    pub perf_density: f64,
    /// Raw silicon die cost in USD.
    pub die_cost_usd: f64,
    /// Yield-adjusted cost per good die in USD.
    pub good_die_cost_usd: f64,
    /// Per-layer prefill latency in seconds (TTFT).
    pub ttft_s: f64,
    /// Per-layer, per-token decode latency in seconds (TBT).
    pub tbt_s: f64,
    /// Whether the die fits the 860 mm² reticle.
    pub within_reticle: bool,
    /// Whether the design escapes the October 2023 data-center rule
    /// entirely (the DSE's compliance target, §4.3).
    pub pd_unregulated_2023: bool,
}

impl EvaluatedDesign {
    /// TTFT × raw die cost (ms·$), Figure 8's y-axis.
    #[must_use]
    pub fn ttft_cost_product(&self) -> f64 {
        self.ttft_s * 1e3 * self.die_cost_usd
    }

    /// TBT × raw die cost (ms·$).
    #[must_use]
    pub fn tbt_cost_product(&self) -> f64 {
        self.tbt_s * 1e3 * self.die_cost_usd
    }

    /// Manufacturable and (October 2023) unregulated.
    #[must_use]
    pub fn valid_2023(&self) -> bool {
        self.within_reticle && self.pd_unregulated_2023
    }
}

/// Evaluates sweeps of designs for one model/workload pair.
///
/// # Example
///
/// ```
/// use acs_dse::{DseRunner, SweepSpec};
/// use acs_llm::{ModelConfig, WorkloadConfig};
///
/// let runner = DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default());
/// let spec = SweepSpec {
///     hbm_tb_s: vec![2.0, 3.2],
///     lanes_per_core: vec![4],
///     l1_kib: vec![192],
///     l2_mib: vec![40],
///     systolic_dims: vec![16],
///     device_bw_gb_s: vec![600.0],
/// };
/// let designs = runner.run(&spec, 4800.0);
/// assert_eq!(designs.len(), 2);
/// // More memory bandwidth always decodes faster.
/// assert!(designs[1].tbt_s != designs[0].tbt_s);
/// ```
#[derive(Debug, Clone)]
pub struct DseRunner {
    model: ModelConfig,
    workload: WorkloadConfig,
    pub(crate) device_count: u32,
    pub(crate) expert_parallel: u32,
    pub(crate) datatype: Option<acs_hw::DataType>,
    pub(crate) area_model: AreaModel,
    pub(crate) cost_model: CostModel,
    pub(crate) sim_params: SimParams,
    pub(crate) rule_2023: Acr2023,
    /// Everything priced so far: plans, signature legs, fused vectors.
    pub(crate) memo: Arc<crate::lattice::Memo>,
    threads: Option<usize>,
}

impl DseRunner {
    /// Runner with the paper's defaults: a 4-device node, the calibrated
    /// 7 nm area/cost models, and published October 2023 thresholds.
    #[must_use]
    pub fn new(model: ModelConfig, workload: WorkloadConfig) -> Self {
        DseRunner {
            model,
            workload,
            device_count: 4,
            expert_parallel: 1,
            datatype: None,
            area_model: AreaModel::n7(),
            cost_model: CostModel::n7(),
            sim_params: SimParams::calibrated(),
            rule_2023: Acr2023::published(),
            memo: Arc::default(),
            threads: None,
        }
    }

    /// Pin the sweep scheduler to exactly `n` worker threads instead of
    /// the `ACS_THREADS`/machine-parallelism default. Results are
    /// independent of the thread count by construction — the
    /// differential-verification harness uses this override to prove it
    /// without racing on environment variables.
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Some(n.clamp(1, 32));
        self
    }

    /// Override the tensor-parallel device count.
    #[must_use]
    pub fn with_device_count(mut self, n: u32) -> Self {
        self.device_count = n;
        // Plans and priced legs bake in the tensor-parallel degree; start
        // a new memo rather than poison clones that still use the old
        // count.
        self.memo = Arc::default();
        self
    }

    /// Override the expert-parallel group size: plans lower the MoE FFN
    /// over an `n`-wide expert group, bracketed by dispatch/combine
    /// all-to-alls (see `acs_llm::LayerGraph::try_build_parallel`).
    /// Validation happens at plan-build time, so a group that is
    /// incompatible with the runner's model (dense, or experts not
    /// divisible by `n`) surfaces as a typed per-point failure, not a
    /// construction panic.
    #[must_use]
    pub fn with_expert_parallel(mut self, n: u32) -> Self {
        self.expert_parallel = n;
        // Plans and priced legs bake in the lowering; start a new memo.
        self.memo = Arc::default();
        self
    }

    /// Retype every evaluated configuration to operand format `dt`
    /// before pricing. Eq. 1 multiplies TOPS by the operand bit width,
    /// so the override moves a design's TPP (and with it the regulatory
    /// screening) without touching its silicon; narrower formats also
    /// shrink the expert-parallel collective payloads, which size in
    /// bytes. Configurations already in format `dt` pass through
    /// untouched — an fp16 override is the identity on the fp16 sweep
    /// templates, cache keys included.
    #[must_use]
    pub fn with_datatype(mut self, dt: acs_hw::DataType) -> Self {
        self.datatype = Some(dt);
        // The memo's signatures omit the datatype, and priced legs bake
        // it in; start a new memo.
        self.memo = Arc::default();
        self
    }

    /// Apply the runner's datatype override to one shared configuration:
    /// `None` when no override is set (or it already matches) so the
    /// caller keeps its borrow — the sweep hot path pays one enum
    /// compare, no refcount traffic — and a rebuilt device otherwise.
    #[inline]
    pub(crate) fn retyped(
        &self,
        config: &Arc<DeviceConfig>,
    ) -> Result<Option<Arc<DeviceConfig>>, AcsError> {
        match self.datatype {
            Some(dt) if dt != config.datatype() => {
                let mut builder = config.to_builder();
                builder.datatype(dt);
                Ok(Some(Arc::new(builder.build()?)))
            }
            _ => Ok(None),
        }
    }

    /// Override the simulator calibration.
    #[must_use]
    pub fn with_sim_params(mut self, params: SimParams) -> Self {
        self.sim_params = params;
        // Priced legs bake in the calibration; a recalibrated runner
        // must re-price.
        self.memo = Arc::default();
        self
    }

    /// The model being evaluated.
    #[must_use]
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The workload being evaluated.
    #[must_use]
    pub fn workload(&self) -> &WorkloadConfig {
        &self.workload
    }

    /// The expert-parallel group size plans are lowered for.
    #[must_use]
    pub fn expert_parallel(&self) -> u32 {
        self.expert_parallel
    }

    /// The tensor-parallel device count of the evaluated node.
    #[must_use]
    pub fn device_count(&self) -> u32 {
        self.device_count
    }

    /// The operand-format override applied before pricing, if any (see
    /// [`DseRunner::with_datatype`]).
    #[must_use]
    pub fn datatype(&self) -> Option<acs_hw::DataType> {
        self.datatype
    }

    /// The simulator calibration every design is priced under.
    #[must_use]
    pub fn sim_params(&self) -> SimParams {
        self.sim_params
    }

    /// Evaluate one configuration, enforcing the pipeline's numeric
    /// invariants at every boundary: the area, cost, and latency models
    /// may not emit NaN, infinity, or non-positive values.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when the runner's device count
    /// is zero, and [`AcsError::NonFinite`] when any derived metric
    /// violates its contract.
    pub fn try_evaluate(&self, config: &DeviceConfig) -> Result<EvaluatedDesign, AcsError> {
        self.try_evaluate_shared(&Arc::new(config.clone()))
    }

    /// [`DseRunner::try_evaluate`] for a configuration that is already
    /// shared: the device is lent to the [`SystemConfig`] instead of
    /// deep-cloned. The lattice's demoted points take this form.
    pub(crate) fn try_evaluate_shared(
        &self,
        config: &Arc<DeviceConfig>,
    ) -> Result<EvaluatedDesign, AcsError> {
        let retyped = self.retyped(config)?;
        let config = retyped.as_ref().unwrap_or(config);
        // Allocation-free while healthy: the guard context is built only
        // on the error path, the device is shared into the system rather
        // than cloned, and the layer plans come from the runner's memo
        // instead of being rebuilt per point.
        let ctx = || format!("evaluate.{}", config.name());
        let area = guard::ensure_positive_with(
            ctx,
            "die_area_mm2",
            self.area_model.die_area(config).total_mm2(),
        )?;
        let tpp = guard::ensure_positive_with(ctx, "tpp", config.tpp().0)?;
        let pd = guard::ensure_positive_with(ctx, "perf_density", tpp / area)?;
        let system = SystemConfig::shared(Arc::clone(config), self.device_count)?;
        let sim = Simulator::with_params(system, self.sim_params);
        let plans = self.plans_for(config.datatype().bytes())?;
        Ok(EvaluatedDesign {
            name: config.name().to_owned(),
            params: SweptParams::of(config),
            tpp,
            die_area_mm2: area,
            perf_density: pd,
            die_cost_usd: guard::ensure_positive_with(
                ctx,
                "die_cost_usd",
                self.cost_model.die_cost_usd(area),
            )?,
            good_die_cost_usd: guard::ensure_positive_with(
                ctx,
                "good_die_cost_usd",
                self.cost_model.good_die_cost_usd(area),
            )?,
            ttft_s: sim.try_ttft_planned(&plans.plans.prefill)?,
            tbt_s: sim.try_tbt_planned(&plans.plans.decode)?,
            within_reticle: area <= RETICLE_LIMIT_MM2,
            pd_unregulated_2023: self.rule_2023.is_unregulated_dc(tpp, pd),
        })
    }

    /// Evaluate a whole sweep at a TPP ceiling through the lattice
    /// engine ([`DseRunner::run_lattice`]). Points that fail validation
    /// or evaluation are dropped; use [`DseRunner::run_report`] to keep
    /// the failure ledger.
    #[must_use]
    pub fn run(&self, spec: &SweepSpec, tpp_target: f64) -> Vec<EvaluatedDesign> {
        self.run_lattice(spec, tpp_target).designs.into_iter().map(|(_, d)| d).collect()
    }

    /// Evaluate an explicit list of configurations in parallel, preserving
    /// order and length: `result[i]` is the outcome of `configs[i]`. Each
    /// point runs behind `catch_unwind`, so one pathological configuration
    /// cannot take down the batch.
    #[must_use]
    pub fn run_configs(&self, configs: &[DeviceConfig]) -> Vec<Result<EvaluatedDesign, AcsError>> {
        self.parallel_map(configs, |cfg| cfg.name(), |cfg| self.try_evaluate(cfg))
    }

    /// Flush a finished sweep report's outcome counters.
    pub(crate) fn report_telemetry(&self, report: &SweepReport) {
        if acs_telemetry::enabled() {
            acs_telemetry::count("dse.eval.ok", report.designs.len() as u64);
            acs_telemetry::count("dse.eval.failed", report.failures.len() as u64);
            // One registry lookup per failure *kind*, not per failure: a
            // sweep with thousands of broken points flushes a handful of
            // pre-aggregated counts.
            let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
            for failure in &report.failures {
                *by_kind.entry(failure.reason.kind()).or_insert(0) += 1;
            }
            for (kind, count) in by_kind {
                acs_telemetry::count(&format!("dse.eval.fail.{kind}"), count);
            }
        }
    }

    /// Order-preserving parallel map with per-item panic containment and
    /// work stealing. Workers claim small stripes of the input from a
    /// shared atomic cursor, so a run of cheap (or instantly failing)
    /// points on one side of the sweep cannot strand the expensive tail
    /// on a single thread the way static chunking did. `label` names the
    /// item in panic reports. Every item is one design point, timed into
    /// the `dse.eval.point_us` histogram.
    pub(crate) fn parallel_map<T: Sync, U: Send + Sync>(
        &self,
        items: &[T],
        label: impl Fn(&T) -> &str + Sync,
        f: impl Fn(&T) -> Result<U, AcsError> + Sync,
    ) -> Vec<Result<U, AcsError>> {
        static POINT_US: acs_telemetry::GlobalHistogram =
            acs_telemetry::GlobalHistogram::new("dse.eval.point_us");
        self.parallel_map_on(self.worker_count(), items, label, f, Some(&POINT_US))
    }

    /// The worker-thread count `parallel_map` will use: the runner's
    /// explicit override, else the machine default.
    pub(crate) fn worker_count(&self) -> usize {
        self.threads.unwrap_or_else(worker_threads)
    }

    /// [`DseRunner::parallel_map`] on `threads` workers, timing each item
    /// into `item_us` when one is given (the lattice's point chunks are
    /// not design points, so it passes `None`).
    pub(crate) fn parallel_map_on<T: Sync, U: Send + Sync>(
        &self,
        threads: usize,
        items: &[T],
        label: impl Fn(&T) -> &str + Sync,
        f: impl Fn(&T) -> Result<U, AcsError> + Sync,
        item_us: Option<&acs_telemetry::GlobalHistogram>,
    ) -> Vec<Result<U, AcsError>> {
        if items.is_empty() {
            return Vec::new();
        }
        let threads = threads.clamp(1, items.len());
        acs_telemetry::set_gauge("dse.threads", threads as u64);
        // Per-item wall time goes to a histogram rather than a span:
        // histogram merges are order-free, so the trace structure stays
        // deterministic however the scheduler interleaves worker threads.
        // Timestamps are chained — each item's end is the next item's
        // start — so profiling costs one clock read per item, not two;
        // the histogram's own count is the item count.
        let timed = item_us.filter(|_| acs_telemetry::enabled());
        if threads == 1 {
            // One worker needs no scope, no spawn/join, and no slot
            // claims — run the same per-item contained loop inline. On a
            // single-core host the spawn+join alone costs tens of
            // microseconds per sweep.
            let mut timer = timed.map(|h| (h, Instant::now()));
            return items
                .iter()
                .map(|item| {
                    let outcome = contained(label(item), || f(item));
                    tick(&mut timer);
                    outcome
                })
                .collect();
        }
        // Stripes of a few items amortise the claim fetch while staying
        // small enough that no worker can hoard a long expensive run.
        let stripe = (items.len() / (threads * 8)).clamp(1, 64);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<OnceLock<Result<U, AcsError>>> = Vec::new();
        slots.resize_with(items.len(), OnceLock::new);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let f = &f;
                let label = &label;
                let next = &next;
                let slots = &slots;
                scope.spawn(move || {
                    let mut timer = timed.map(|h| (h, Instant::now()));
                    loop {
                        let start = next.fetch_add(stripe, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + stripe).min(items.len());
                        for (item, slot) in items[start..end].iter().zip(&slots[start..end]) {
                            let outcome = contained(label(item), || f(item));
                            tick(&mut timer);
                            // Each index is claimed by exactly one stripe,
                            // so the set cannot already be occupied.
                            let _ = slot.set(outcome);
                        }
                    }
                });
            }
        });
        // Every slot is filled by construction (the cursor hands each
        // index to exactly one worker); a hole would be a harness bug,
        // reported as a typed error rather than a panic.
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner().unwrap_or_else(|| {
                    Err(AcsError::EvaluationPanic {
                        design: label(&items[i]).to_owned(),
                        message: "parallel harness left a slot unfilled".to_owned(),
                    })
                })
            })
            .collect()
    }
}

/// One link of a chained per-item timer: record the time since the
/// previous link into its histogram and restart the chain from now.
fn tick(timer: &mut Option<(&acs_telemetry::GlobalHistogram, Instant)>) {
    if let Some((histogram, t0)) = timer {
        let t1 = Instant::now();
        histogram.record((t1 - *t0).as_secs_f64() * 1e6);
        *t0 = t1;
    }
}

/// Run `f` behind `catch_unwind`, turning a panic into the typed
/// [`AcsError::EvaluationPanic`] failure labelled `design`: the one
/// containment contract of the parallel harness and the lattice's
/// demoted points, so a point reports the same failure on either.
pub(crate) fn contained<U>(
    design: &str,
    f: impl FnOnce() -> Result<U, AcsError>,
) -> Result<U, AcsError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(AcsError::EvaluationPanic { design: design.to_owned(), message })
    })
}

/// Worker-thread count for [`DseRunner::parallel_map`]: the
/// `ACS_THREADS` environment variable when it parses as a positive
/// integer, otherwise the machine's available parallelism (4 when
/// unknown); capped at 32 either way. Surfaced per run as the
/// `dse.threads` gauge.
pub(crate) fn worker_threads() -> usize {
    std::env::var("ACS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
        .min(32)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn run_evaluates_every_feasible_point() {
        let designs = runner().run(&small_spec(), 4800.0);
        assert_eq!(designs.len(), 8);
        for d in &designs {
            assert!(d.ttft_s > 0.0 && d.tbt_s > 0.0);
            assert!(d.die_area_mm2 > 100.0);
            assert!(d.die_cost_usd > 0.0);
            assert!(d.good_die_cost_usd > d.die_cost_usd);
            assert!((d.perf_density - d.tpp / d.die_area_mm2).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_run_matches_serial_evaluation() {
        let r = runner();
        let configs = small_spec().configs(4800.0);
        let parallel = r.run_configs(&configs);
        assert_eq!(parallel.len(), configs.len());
        for (cfg, got) in configs.iter().zip(&parallel) {
            let serial = r.try_evaluate(cfg).unwrap();
            assert_eq!(&serial, got.as_ref().unwrap());
        }
    }

    #[test]
    fn run_report_isolates_bad_candidates() {
        let r = runner();
        let mut candidates = small_spec().candidates(4800.0);
        candidates[1].hbm_tb_s = 0.0; // injected fault
        candidates[3].lanes_per_core = 0; // injected fault
        let report = r.run_report(&candidates);
        assert_eq!(report.total(), candidates.len());
        assert_eq!(report.failures.len(), 2);
        assert_eq!(report.failures[0].index, 1);
        assert_eq!(report.failures[1].index, 3);
        for f in &report.failures {
            assert_eq!(f.kind(), "invalid_config");
        }
        // Healthy points are unaffected by their broken neighbours.
        let healthy = r.run_report(&small_spec().candidates(4800.0));
        for (i, d) in &report.designs {
            let (_, expected) = healthy.designs.iter().find(|(j, _)| j == i).unwrap();
            assert_eq!(d, expected);
        }
    }

    #[test]
    fn zero_device_count_is_a_typed_error() {
        let r = runner().with_device_count(0);
        let cfg = DeviceConfig::a100_like();
        assert_eq!(r.try_evaluate(&cfg).unwrap_err().kind(), "invalid_config");
    }

    #[test]
    fn memory_bandwidth_separates_tbt_levels() {
        // Figure 6b/6e: decode latencies cluster by memory bandwidth.
        let designs = runner().run(&small_spec(), 4800.0);
        let slow: Vec<_> = designs.iter().filter(|d| d.params.hbm_tb_s == 2.0).collect();
        let fast: Vec<_> = designs.iter().filter(|d| d.params.hbm_tb_s == 3.2).collect();
        let max_fast = fast.iter().map(|d| d.tbt_s).fold(0.0, f64::max);
        let min_slow = slow.iter().map(|d| d.tbt_s).fold(f64::INFINITY, f64::min);
        assert!(
            max_fast < min_slow,
            "3.2 TB/s designs should all out-decode 2.0 TB/s designs"
        );
    }

    #[test]
    fn pd_compliance_depends_on_area() {
        // At 2400 TPP, small-die configs violate the PD floor (Fig. 7).
        let spec = SweepSpec {
            systolic_dims: vec![16],
            lanes_per_core: vec![4],
            l1_kib: vec![192, 1024],
            l2_mib: vec![48],
            hbm_tb_s: vec![3.2],
            device_bw_gb_s: vec![600.0],
        };
        let designs = runner().run(&spec, 2400.0);
        let small_l1 = designs.iter().find(|d| d.params.l1_kib == 192).unwrap();
        let big_l1 = designs.iter().find(|d| d.params.l1_kib == 1024).unwrap();
        assert!(!small_l1.pd_unregulated_2023, "PD = {}", small_l1.perf_density);
        assert!(big_l1.die_area_mm2 > small_l1.die_area_mm2);
    }

    #[test]
    fn cost_products_multiply_out() {
        let d = runner().run(&small_spec(), 4800.0).remove(0);
        assert!((d.ttft_cost_product() - d.ttft_s * 1e3 * d.die_cost_usd).abs() < 1e-9);
        assert!((d.tbt_cost_product() - d.tbt_s * 1e3 * d.die_cost_usd).abs() < 1e-9);
    }

    #[test]
    fn datatype_override_retypes_evaluations() {
        let cfg = DeviceConfig::a100_like();
        let base = runner().try_evaluate(&cfg).unwrap();
        // An fp16 override is the identity on the fp16 template.
        let same = runner().with_datatype(acs_hw::DataType::Fp16).try_evaluate(&cfg).unwrap();
        assert_eq!(base, same);
        assert_eq!(base.ttft_s.to_bits(), same.ttft_s.to_bits());
        // Int4 sheds 3/4 of the TPP at constant silicon (Eq. 1).
        let narrow = runner().with_datatype(acs_hw::DataType::Int4);
        let int4 = narrow.try_evaluate(&cfg).unwrap();
        assert!((int4.tpp / base.tpp - 0.25).abs() < 0.01, "ratio {}", int4.tpp / base.tpp);
        assert_eq!(int4.params.core_count, base.params.core_count);
        // The lattice engine applies the same override, bit for bit.
        let spec = small_spec();
        let lattice = narrow.run_lattice(&spec, 4800.0);
        for (i, design) in &lattice.designs {
            let planned = narrow.try_evaluate(&spec.configs(4800.0)[*i]).unwrap();
            assert_eq!(design, &planned);
            assert_eq!(design.ttft_s.to_bits(), planned.ttft_s.to_bits());
        }
    }

    #[test]
    fn panic_reports_carry_the_design_label() {
        let r = runner();
        let items = vec!["alpha".to_owned(), "beta".to_owned()];
        let results = r.parallel_map(
            &items,
            |name| name.as_str(),
            |name: &String| -> Result<u32, AcsError> {
                if name == "beta" {
                    panic!("injected failure in {name}");
                }
                Ok(1)
            },
        );
        assert_eq!(results[0], Ok(1));
        match &results[1] {
            Err(AcsError::EvaluationPanic { design, message }) => {
                assert_eq!(design, "beta");
                assert!(message.contains("injected failure"), "{message}");
            }
            other => panic!("expected a labelled panic, got {other:?}"),
        }
    }

    #[test]
    fn work_stealing_spreads_a_skewed_tail() {
        // First half of the items fail instantly; second half each sleep.
        // Under the old static chunking (4 threads, 8 items -> chunks of
        // 2) the four sleepers land two-per-thread on the back half of
        // the pool: >= 2 sleeps of serial wall time. Stealing interleaves
        // claims, so every worker ends up with ~one sleeper and the wall
        // time stays near one sleep. The bound sits between the two
        // regimes; sleeps do not need CPU, so this holds on 1 core.
        let r = runner();
        let sleep = std::time::Duration::from_millis(100);
        let items: Vec<usize> = (0..8).collect();
        let started = std::time::Instant::now();
        let results = r.parallel_map_on(
            4,
            &items,
            |i| if *i < 4 { "fast" } else { "slow" },
            |i| {
                if *i < 4 {
                    panic!("instant failure");
                }
                std::thread::sleep(sleep);
                Ok(*i)
            },
            None,
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed < sleep + std::time::Duration::from_millis(70),
            "skewed sweep should finish in ~one sleep with stealing, took {elapsed:?}"
        );
        for (i, outcome) in results.iter().enumerate() {
            if i < 4 {
                assert!(matches!(outcome, Err(AcsError::EvaluationPanic { .. })));
            } else {
                assert_eq!(*outcome, Ok(i));
            }
        }
    }

    #[test]
    fn acs_threads_env_overrides_worker_count() {
        // Every transient value below is a valid positive count, so a
        // concurrently running parallel_map at worst sizes its pool
        // differently for one sweep — correctness never depends on it.
        let n = worker_threads();
        assert!((1..=32).contains(&n), "worker count out of range: {n}");
        std::env::set_var("ACS_THREADS", " 3 ");
        assert_eq!(worker_threads(), 3, "trimmed positive integers are honoured");
        std::env::set_var("ACS_THREADS", "99");
        assert_eq!(worker_threads(), 32, "overrides are capped at 32");
        std::env::set_var("ACS_THREADS", "0");
        assert!(worker_threads() >= 1, "zero falls back to the default");
        std::env::remove_var("ACS_THREADS");
        assert_eq!(worker_threads(), n);
    }
}
