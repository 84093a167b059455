//! Design-point evaluation: latency, area, compliance, and cost.

use crate::report::{DesignFailure, SweepReport};
use crate::sweeps::{CandidateParams, SweepSpec};
use acs_cache::{CacheKey, ShardedCache};
use acs_errors::json::{object, Value};
use acs_errors::{guard, AcsError};
use acs_hw::{AreaModel, CostModel, DeviceConfig, SystemConfig, RETICLE_LIMIT_MM2};
use acs_llm::{InferencePhase, ModelConfig, WorkloadConfig};
use acs_policy::Acr2023;
use acs_sim::{plan_digest_parallel, EvalPlans, SimParams, Simulator};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

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
    pub(crate) cache: Option<Arc<ShardedCache<EvaluatedDesign>>>,
    plans: Arc<PlanSlot>,
    pub(crate) factored: Arc<crate::factored::FactoredSlot>,
    pub(crate) lattice: Arc<crate::lattice::LatticeSlot>,
    threads: Option<usize>,
}

/// Layer plans shared by every point of a sweep, built lazily per dtype.
/// A plan depends only on the runner's model, workload, and device count —
/// none of which vary across a sweep — plus the device's datatype width,
/// so a handful of entries serve thousands of evaluations.
#[derive(Debug, Default)]
struct PlanSlot {
    by_dtype: RwLock<BTreeMap<u32, Arc<EvalPlans>>>,
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
            cache: None,
            plans: Arc::new(PlanSlot::default()),
            factored: Arc::new(crate::factored::FactoredSlot::default()),
            lattice: Arc::new(crate::lattice::LatticeSlot::default()),
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
        // Plans and priced legs bake in the tensor-parallel degree; drop
        // the shared slots rather than poison clones that still use the
        // old count.
        self.plans = Arc::new(PlanSlot::default());
        self.factored = Arc::new(crate::factored::FactoredSlot::default());
        self.lattice = Arc::new(crate::lattice::LatticeSlot::default());
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
        // Plans and priced legs bake in the lowering; drop the slots.
        self.plans = Arc::new(PlanSlot::default());
        self.factored = Arc::new(crate::factored::FactoredSlot::default());
        self.lattice = Arc::new(crate::lattice::LatticeSlot::default());
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
        // Plans key on the dtype width and priced legs bake it into the
        // collective payloads; drop the slots.
        self.plans = Arc::new(PlanSlot::default());
        self.factored = Arc::new(crate::factored::FactoredSlot::default());
        self.lattice = Arc::new(crate::lattice::LatticeSlot::default());
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
        // Leg tables bake in the calibration (plans do not: they are
        // pure graph shape); a recalibrated runner must re-price.
        self.factored = Arc::new(crate::factored::FactoredSlot::default());
        self.lattice = Arc::new(crate::lattice::LatticeSlot::default());
        self
    }

    /// Memoise evaluations through a shared content-addressed cache.
    /// Sweeps and repro runs that revisit a design point — or a service
    /// screening the same configuration twice — return the cached
    /// [`EvaluatedDesign`] instead of re-running the area, cost, and
    /// latency models. The key covers every input of the evaluation
    /// (device parameters, model, workload, device count, calibration),
    /// so sharing one cache across differently configured runners is
    /// safe.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ShardedCache<EvaluatedDesign>>) -> Self {
        self.cache = Some(cache);
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

    /// The content-addressed key for one configuration under this
    /// runner's model, workload, and calibration. The model, workload,
    /// device count, and datatype are folded into the two layer-plan
    /// digests (hex strings: a 64-bit digest does not fit a JSON
    /// number), which cover exactly the inputs that shape the operator
    /// graphs.
    #[must_use]
    pub fn cache_key(&self, config: &DeviceConfig) -> CacheKey {
        let n = Value::Number;
        let u = |x: u64| Value::Number(x as f64);
        let p = &self.sim_params;
        let dt = config.datatype().bytes();
        let prefill = plan_digest_parallel(
            &self.model,
            &self.workload,
            InferencePhase::Prefill,
            self.device_count,
            self.expert_parallel,
            dt,
        );
        let decode = plan_digest_parallel(
            &self.model,
            &self.workload,
            self.workload.decode_phase(),
            self.device_count,
            self.expert_parallel,
            dt,
        );
        CacheKey::from_value(&object(vec![
            ("v", Value::String("dse-eval-v2".to_owned())),
            (
                "device",
                object(vec![
                    ("name", Value::String(config.name().to_owned())),
                    ("cores", u(u64::from(config.core_count()))),
                    ("lanes", u(u64::from(config.lanes_per_core()))),
                    ("sys_x", u(u64::from(config.systolic().x))),
                    ("sys_y", u(u64::from(config.systolic().y))),
                    ("vec", u(u64::from(config.vector_width()))),
                    ("ghz", n(config.frequency_ghz())),
                    ("l1_kib", u(u64::from(config.l1_kib_per_core()))),
                    ("l2_mib", u(u64::from(config.l2_mib()))),
                    ("hbm_gb_s", n(config.hbm().bandwidth_gb_s)),
                    ("hbm_gib", n(config.hbm().capacity_gib)),
                    ("phy_gb_s", n(config.phy().total_gb_s())),
                    ("dtype_bits", u(u64::from(config.datatype().bit_width()))),
                ]),
            ),
            ("device_count", u(u64::from(self.device_count))),
            (
                "plans",
                object(vec![
                    ("prefill", Value::String(CacheKey::digest_hex(prefill))),
                    ("decode", Value::String(CacheKey::digest_hex(decode))),
                ]),
            ),
            (
                "params",
                object(vec![
                    ("dram_eff", n(p.dram_efficiency)),
                    ("dram_lat", n(p.dram_latency_s)),
                    ("op_ovh", n(p.op_overhead_s)),
                    ("l2_bpc", n(p.l2_bytes_per_lane_cycle)),
                    ("ar_step", n(p.allreduce_step_latency_s)),
                    ("l1_frac", n(p.l1_usable_fraction)),
                    ("l2_frac", n(p.l2_usable_fraction)),
                ]),
            ),
        ]))
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
    /// shared. The sweep drivers use this form: the device is lent to the
    /// [`SystemConfig`] instead of deep-cloned per point.
    ///
    /// # Errors
    ///
    /// Same contract as [`DseRunner::try_evaluate`].
    pub fn try_evaluate_shared(&self, config: &Arc<DeviceConfig>) -> Result<EvaluatedDesign, AcsError> {
        let retyped = self.retyped(config)?;
        let config = retyped.as_ref().unwrap_or(config);
        match &self.cache {
            Some(cache) => {
                let key = self.cache_key(config);
                let (design, hit) =
                    cache.get_or_try_insert(&key, || self.evaluate_uncached(config))?;
                // Cached handles: per-point hot path (see parallel_map).
                static HITS: acs_telemetry::GlobalCounter =
                    acs_telemetry::GlobalCounter::new("dse.cache.hits");
                static MISSES: acs_telemetry::GlobalCounter =
                    acs_telemetry::GlobalCounter::new("dse.cache.misses");
                if hit {
                    HITS.add(1);
                } else {
                    MISSES.add(1);
                }
                Ok(design)
            }
            None => self.evaluate_uncached(config),
        }
    }

    fn evaluate_uncached(&self, config: &Arc<DeviceConfig>) -> Result<EvaluatedDesign, AcsError> {
        // Allocation-free while healthy: the guard context is built only
        // on the error path, the device is shared into the system rather
        // than cloned, and the layer graphs come from the per-sweep plan
        // slot instead of being rebuilt per point.
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
            ttft_s: sim.try_ttft_planned(&plans.prefill)?,
            tbt_s: sim.try_tbt_planned(&plans.decode)?,
            within_reticle: area <= RETICLE_LIMIT_MM2,
            pd_unregulated_2023: self.rule_2023.is_unregulated_dc(tpp, pd),
        })
    }

    /// The plan pair for one datatype width, built at most once per
    /// runner (read-mostly after the first point of a sweep).
    pub(crate) fn plans_for(&self, dtype_bytes: u32) -> Result<Arc<EvalPlans>, AcsError> {
        if let Some(plans) = self
            .plans
            .by_dtype
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&dtype_bytes)
        {
            return Ok(Arc::clone(plans));
        }
        // Built outside the write lock; a racing builder just loses.
        let built = Arc::new(EvalPlans::build_parallel(
            &self.model,
            &self.workload,
            self.device_count,
            self.expert_parallel,
            dtype_bytes,
        )?);
        let mut map = self.plans.by_dtype.write().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(map.entry(dtype_bytes).or_insert(built)))
    }

    /// Evaluate a whole sweep at a TPP ceiling, in parallel across the
    /// machine's cores. Points that fail validation or evaluation are
    /// dropped; use [`DseRunner::run_report`] to keep the failure ledger.
    #[must_use]
    pub fn run(&self, spec: &SweepSpec, tpp_target: f64) -> Vec<EvaluatedDesign> {
        self.run_report(&spec.candidates(tpp_target)).designs.into_iter().map(|(_, d)| d).collect()
    }

    /// Evaluate an explicit list of configurations in parallel, preserving
    /// order and length: `result[i]` is the outcome of `configs[i]`. Each
    /// point runs behind `catch_unwind`, so one pathological configuration
    /// cannot take down the batch.
    #[must_use]
    pub fn run_configs(&self, configs: &[DeviceConfig]) -> Vec<Result<EvaluatedDesign, AcsError>> {
        self.parallel_map(configs, |cfg| cfg.name(), |cfg| self.try_evaluate(cfg))
    }

    /// Evaluate raw sweep candidates with full fault isolation: each point
    /// is validated and evaluated behind `std::panic::catch_unwind`; a
    /// panic, an invalid candidate, or a numeric-invariant violation
    /// becomes a [`DesignFailure`] in the report instead of aborting the
    /// sweep.
    #[must_use]
    pub fn run_report(&self, candidates: &[CandidateParams]) -> SweepReport {
        let outcomes = self.parallel_map(
            candidates,
            |cand| cand.name.as_str(),
            |cand| cand.build().map(Arc::new).and_then(|cfg| self.try_evaluate_shared(&cfg)),
        );
        self.collect_report(candidates, outcomes)
    }

    pub(crate) fn collect_report(
        &self,
        candidates: &[CandidateParams],
        outcomes: Vec<Result<EvaluatedDesign, AcsError>>,
    ) -> SweepReport {
        let mut report = SweepReport::default();
        // One up-front allocation instead of log2(n) grow-and-copy
        // cycles over ~150-byte elements — measurable on large sweeps.
        report.designs.reserve(candidates.len());
        for (index, (cand, outcome)) in candidates.iter().zip(outcomes).enumerate() {
            match outcome {
                Ok(d) => report.designs.push((index, d)),
                Err(reason) => {
                    report.failures.push(DesignFailure { index, params: cand.name.clone(), reason });
                }
            }
        }
        self.report_telemetry(&report);
        report
    }

    /// Flush a finished sweep report's outcome counters. Shared by
    /// [`DseRunner::collect_report`] and the lattice path's direct
    /// assembly so both emit identical telemetry.
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
    /// item in panic reports.
    pub(crate) fn parallel_map<T: Sync, U: Send + Sync>(
        &self,
        items: &[T],
        label: impl Fn(&T) -> &str + Sync,
        f: impl Fn(&T) -> Result<U, AcsError> + Sync,
    ) -> Vec<Result<U, AcsError>> {
        self.parallel_map_on(self.worker_count(), items, label, f)
    }

    /// The worker-thread count `parallel_map` will use: the runner's
    /// explicit override, else the machine default.
    pub(crate) fn worker_count(&self) -> usize {
        self.threads.unwrap_or_else(worker_threads)
    }

    fn parallel_map_on<T: Sync, U: Send + Sync>(
        &self,
        threads: usize,
        items: &[T],
        label: impl Fn(&T) -> &str + Sync,
        f: impl Fn(&T) -> Result<U, AcsError> + Sync,
    ) -> Vec<Result<U, AcsError>> {
        if items.is_empty() {
            return Vec::new();
        }
        let threads = threads.clamp(1, items.len());
        acs_telemetry::set_gauge("dse.threads", threads as u64);
        if threads == 1 {
            // One worker needs no scope, no spawn/join, and no slot
            // claims — run the same per-item contained loop inline. On a
            // single-core host the spawn+join alone costs tens of
            // microseconds per sweep.
            let mut last = acs_telemetry::enabled().then(std::time::Instant::now);
            return items
                .iter()
                .map(|item| {
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(item))).unwrap_or_else(
                        |payload| {
                            let message = payload
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_owned())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_owned());
                            Err(AcsError::EvaluationPanic {
                                design: label(item).to_owned(),
                                message,
                            })
                        },
                    );
                    if let Some(t0) = last {
                        static POINT_US: acs_telemetry::GlobalHistogram =
                            acs_telemetry::GlobalHistogram::new("dse.eval.point_us");
                        let t1 = std::time::Instant::now();
                        POINT_US.record((t1 - t0).as_secs_f64() * 1e6);
                        last = Some(t1);
                    }
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
                    // Per-point wall time goes to a histogram rather than
                    // a span: histogram merges are order-free, so the
                    // trace structure stays deterministic however the
                    // scheduler interleaves worker threads. Timestamps are
                    // chained — each point's end is the next point's start
                    // — so profiling costs one clock read per point, not
                    // two; the histogram's own count is the point count.
                    let mut last = acs_telemetry::enabled().then(std::time::Instant::now);
                    loop {
                        let start = next.fetch_add(stripe, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + stripe).min(items.len());
                        for (item, slot) in items[start..end].iter().zip(&slots[start..end]) {
                            let outcome = catch_unwind(AssertUnwindSafe(|| f(item)))
                                .unwrap_or_else(|payload| {
                                    let message = payload
                                        .downcast_ref::<&str>()
                                        .map(|s| (*s).to_owned())
                                        .or_else(|| payload.downcast_ref::<String>().cloned())
                                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                                    Err(AcsError::EvaluationPanic {
                                        design: label(item).to_owned(),
                                        message,
                                    })
                                });
                            if let Some(t0) = last {
                                static POINT_US: acs_telemetry::GlobalHistogram =
                                    acs_telemetry::GlobalHistogram::new("dse.eval.point_us");
                                let t1 = std::time::Instant::now();
                                POINT_US.record((t1 - t0).as_secs_f64() * 1e6);
                                last = Some(t1);
                            }
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
    fn cached_runner_matches_uncached_and_hits_on_repeat() {
        let cache = Arc::new(ShardedCache::new(256));
        let plain = runner();
        let cached = runner().with_cache(Arc::clone(&cache));
        let configs = small_spec().configs(4800.0);
        for cfg in &configs {
            assert_eq!(cached.try_evaluate(cfg).unwrap(), plain.try_evaluate(cfg).unwrap());
        }
        let cold = cache.stats();
        assert_eq!(cold.misses as usize, configs.len());
        assert_eq!(cold.insertions as usize, configs.len());
        for cfg in &configs {
            cached.try_evaluate(cfg).unwrap();
        }
        let warm = cache.stats();
        assert_eq!(warm.hits as usize, configs.len(), "second pass should be all hits");
        assert_eq!(warm.insertions, cold.insertions);
    }

    #[test]
    fn cache_keys_separate_workloads_and_device_counts() {
        let cfg = DeviceConfig::a100_like();
        let base = runner();
        let other_workload =
            DseRunner::new(ModelConfig::gpt3_175b(), WorkloadConfig::new(8, 512, 128));
        let other_count = runner().with_device_count(8);
        let k0 = base.cache_key(&cfg);
        assert_ne!(k0.canonical(), other_workload.cache_key(&cfg).canonical());
        assert_ne!(k0.canonical(), other_count.cache_key(&cfg).canonical());
        // Same runner, same config: byte-identical canonical form.
        assert_eq!(k0.canonical(), runner().cache_key(&cfg).canonical());
        assert_eq!(k0.digest(), runner().cache_key(&cfg).digest());
    }

    #[test]
    fn cached_errors_are_not_memoised() {
        let cache = Arc::new(ShardedCache::new(64));
        let bad = runner().with_device_count(0).with_cache(Arc::clone(&cache));
        let cfg = DeviceConfig::a100_like();
        assert_eq!(bad.try_evaluate(&cfg).unwrap_err().kind(), "invalid_config");
        assert_eq!(cache.len(), 0, "failed evaluations must not occupy cache slots");
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
