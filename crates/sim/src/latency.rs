//! Layer-level scheduling and the top-level [`Simulator`].

use crate::collective::{allreduce_cost, alltoall_cost};
use crate::matmul::matmul_cost;
use crate::params::SimParams;
use crate::plan::{LayerPlan, OpBytes};
use crate::vector::vector_cost;
use acs_errors::{guard, AcsError};
use acs_hw::SystemConfig;
use acs_llm::{InferencePhase, ModelConfig, Operator, WorkloadConfig};
use std::fmt;

/// Which resource an operator's latency is limited by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Bound {
    /// Systolic arrays / vector units.
    Compute,
    /// Off-chip memory bandwidth.
    Memory,
    /// Global-buffer port bandwidth.
    GlobalBuffer,
    /// Device-to-device interconnect.
    Interconnect,
    /// Per-operator launch overhead.
    Overhead,
}

/// Priced cost of one operator.
#[derive(Debug, Clone)]
pub struct OpCost {
    /// Operator name (from the layer graph).
    pub name: &'static str,
    /// Total latency contribution (s), including launch overhead.
    pub time_s: f64,
    /// Compute-phase time (s).
    pub compute_s: f64,
    /// DRAM-phase time (s).
    pub dram_s: f64,
    /// Global-buffer-phase time (s).
    pub l2_s: f64,
    /// Interconnect time (s); zero for non-collectives.
    pub comm_s: f64,
    /// Launch overhead (s).
    pub overhead_s: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
    /// The binding resource.
    pub bound: Bound,
}

impl OpCost {
    fn classify(&mut self) {
        let candidates = [
            (self.compute_s, Bound::Compute),
            (self.dram_s, Bound::Memory),
            (self.l2_s, Bound::GlobalBuffer),
            (self.comm_s, Bound::Interconnect),
            (self.overhead_s, Bound::Overhead),
        ];
        self.bound = candidates
            .into_iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, b)| b)
            .unwrap_or(Bound::Compute);
    }
}

/// Latency of one Transformer layer, with a per-operator breakdown.
#[derive(Debug, Clone)]
pub struct LayerLatency {
    ops: Vec<OpCost>,
    phase: InferencePhase,
}

impl LayerLatency {
    /// Total layer latency in seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.ops.iter().map(|o| o.time_s).sum()
    }

    /// Per-operator costs in execution order.
    #[must_use]
    pub fn ops(&self) -> &[OpCost] {
        &self.ops
    }

    /// The phase this latency describes.
    #[must_use]
    pub fn phase(&self) -> InferencePhase {
        self.phase
    }

    /// Seconds spent in operators bound by `bound`.
    #[must_use]
    pub fn time_bound_by(&self, bound: Bound) -> f64 {
        self.ops.iter().filter(|o| o.bound == bound).map(|o| o.time_s).sum()
    }

    /// Total DRAM bytes moved by the layer (one device).
    #[must_use]
    pub fn dram_bytes(&self) -> f64 {
        self.ops.iter().map(|o| o.dram_bytes).sum()
    }

    /// The single most expensive operator.
    #[must_use]
    pub fn slowest_op(&self) -> Option<&OpCost> {
        self.ops.iter().max_by(|a, b| a.time_s.total_cmp(&b.time_s))
    }
}

impl fmt::Display for LayerLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} layer: {:.3} ms", self.phase, self.total_s() * 1e3)?;
        for op in &self.ops {
            writeln!(
                f,
                "  {:<16} {:>9.1} us  ({:?}-bound)",
                op.name,
                op.time_s * 1e6,
                op.bound
            )?;
        }
        Ok(())
    }
}

/// The analytical LLM-inference simulator.
///
/// Prices one Transformer layer of a model on a tensor-parallel node; the
/// tensor-parallel degree is the node's device count.
///
/// # Example
///
/// ```
/// use acs_hw::{DeviceConfig, SystemConfig};
/// use acs_llm::{ModelConfig, WorkloadConfig};
/// use acs_sim::Simulator;
///
/// let sim = Simulator::new(SystemConfig::quad(DeviceConfig::a100_like())?);
/// let tbt = sim.tbt_s(&ModelConfig::gpt3_175b(), &WorkloadConfig::paper_default());
/// assert!(tbt > 0.0);
/// # Ok::<(), acs_hw::HwError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    system: SystemConfig,
    params: SimParams,
}

impl Simulator {
    /// Simulator with calibrated default parameters.
    #[must_use]
    pub fn new(system: SystemConfig) -> Self {
        Simulator { system, params: SimParams::calibrated() }
    }

    /// Simulator with explicit parameters.
    #[must_use]
    pub fn with_params(system: SystemConfig, params: SimParams) -> Self {
        Simulator { system, params }
    }

    /// The simulated node.
    #[must_use]
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The calibration parameters.
    #[must_use]
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Price one layer of `model` under `phase`.
    ///
    /// Thin wrapper over [`Simulator::simulate_planned`]: it lowers a
    /// single-use [`LayerPlan`] and executes it, so the per-call API and
    /// the plan-reuse API share one pricing loop and cannot drift.
    ///
    /// # Panics
    ///
    /// Panics if the node's device count is zero or does not divide the
    /// model's attention-head count (see [`acs_llm::LayerGraph::build`]);
    /// [`LayerPlan::build`] reports the same conditions as typed errors.
    #[must_use]
    pub fn simulate_layer(
        &self,
        model: &ModelConfig,
        workload: &WorkloadConfig,
        phase: InferencePhase,
    ) -> LayerLatency {
        let plan = LayerPlan::of_unchecked(
            model,
            workload,
            phase,
            self.system.device_count(),
            self.system.device().datatype().bytes(),
        );
        self.simulate_planned(&plan)
    }

    /// Execute a prebuilt [`LayerPlan`]: price each operator on this
    /// node's device. This is the sweep hot path — the graph lowering and
    /// operand-size derivation were done once at plan-build time, so each
    /// call performs only the per-device cost arithmetic.
    ///
    /// The plan must have been built for this node's device count and
    /// operand dtype (checked in debug builds; the fallible
    /// [`Simulator::try_simulate_planned`] rejects mismatches as typed
    /// errors).
    #[must_use]
    pub fn simulate_planned(&self, plan: &LayerPlan) -> LayerLatency {
        debug_assert_eq!(plan.device_count(), self.system.device_count());
        debug_assert_eq!(plan.dtype_bytes(), self.system.device().datatype().bytes());
        let phase = plan.phase();
        let l2_use = self.l2_usable();
        let graph = plan.graph();
        let mut ops = Vec::with_capacity(graph.ops().len());
        for (op, bytes) in graph.ops().iter().zip(plan.op_bytes()) {
            let mut cost = self.price_op(op, *bytes, l2_use);
            cost.classify();
            ops.push(cost);
        }
        if acs_telemetry::enabled() {
            record_layer_telemetry(graph.ops(), &ops, phase);
        }
        LayerLatency { ops, phase }
    }

    /// Usable L2 bytes under the calibrated occupancy fraction.
    pub(crate) fn l2_usable(&self) -> f64 {
        f64::from(self.system.device().l2_mib()) * 1024.0 * 1024.0 * self.params.l2_usable_fraction
    }

    /// Price a single planned operator. Every execution mode — the
    /// per-operator breakdown of [`Simulator::simulate_planned`] and the
    /// total-only sweep path — routes through this one function, so their
    /// arithmetic cannot drift. `bound` is left at a placeholder; callers
    /// that report it run [`OpCost::classify`].
    fn price_op(&self, op: &Operator, bytes: OpBytes, l2_use: f64) -> OpCost {
        // Producer→consumer forwarding: a tensor of `bytes` survives in the
        // L2 between adjacent operators in proportion to the capacity share
        // it can occupy (half the usable L2, leaving room for blocking).
        let forward = |bytes: f64| -> f64 {
            if bytes <= 0.0 {
                1.0
            } else {
                (0.5 * l2_use / bytes).min(1.0)
            }
        };
        let device = self.system.device();
        match op {
            Operator::Matmul(m) => {
                let fin = forward(bytes.a);
                let fout = forward(bytes.out);
                let c = matmul_cost(m, device, &self.params, fin, fout);
                OpCost {
                    name: m.name,
                    time_s: c.time_s() + self.params.op_overhead_s,
                    compute_s: c.compute_s,
                    dram_s: c.dram_s,
                    l2_s: c.l2_s,
                    comm_s: 0.0,
                    overhead_s: self.params.op_overhead_s,
                    dram_bytes: c.dram_bytes,
                    bound: Bound::Compute,
                }
            }
            Operator::Vector(v) => {
                let f = forward(bytes.a);
                let c = vector_cost(v, device, &self.params, f);
                OpCost {
                    name: v.name,
                    time_s: c.time_s() + self.params.op_overhead_s,
                    compute_s: c.compute_s,
                    dram_s: c.dram_s,
                    l2_s: c.l2_s,
                    comm_s: 0.0,
                    overhead_s: self.params.op_overhead_s,
                    dram_bytes: c.dram_bytes,
                    bound: Bound::Compute,
                }
            }
            Operator::AllReduce(a) => {
                let c = allreduce_cost(a.bytes, &self.system, &self.params);
                OpCost {
                    name: a.name,
                    time_s: c.time_s() + self.params.op_overhead_s,
                    compute_s: 0.0,
                    dram_s: 0.0,
                    l2_s: 0.0,
                    comm_s: c.time_s(),
                    overhead_s: self.params.op_overhead_s,
                    dram_bytes: 0.0,
                    bound: Bound::Interconnect,
                }
            }
            Operator::AllToAll(a) => {
                let c = alltoall_cost(a.bytes, a.group, &self.system, &self.params);
                OpCost {
                    name: a.name,
                    time_s: c.time_s() + self.params.op_overhead_s,
                    compute_s: 0.0,
                    dram_s: 0.0,
                    l2_s: 0.0,
                    comm_s: c.time_s(),
                    overhead_s: self.params.op_overhead_s,
                    dram_bytes: 0.0,
                    bound: Bound::Interconnect,
                }
            }
            // `Operator` is non-exhaustive; unknown future operators
            // contribute only their launch overhead.
            _ => OpCost {
                name: op.name(),
                time_s: self.params.op_overhead_s,
                compute_s: 0.0,
                dram_s: 0.0,
                l2_s: 0.0,
                comm_s: 0.0,
                overhead_s: self.params.op_overhead_s,
                dram_bytes: 0.0,
                bound: Bound::Overhead,
            },
        }
    }

    /// Total-only planned execution: price every operator, enforce the
    /// numeric contract, and accumulate the layer total without
    /// materialising the per-operator breakdown. This is the sweep hot
    /// path — it performs no heap allocation while every metric is
    /// healthy. The accumulation order matches [`LayerLatency::total_s`]
    /// (left-to-right over the op list, from 0.0), so the result is
    /// bit-identical to the breakdown path, and telemetry class totals
    /// are accumulated inline so profiled sweeps stay within the
    /// overhead budget.
    fn checked_total_planned(&self, plan: &LayerPlan) -> Result<f64, AcsError> {
        self.check_plan(plan)?;
        let l2_use = self.l2_usable();
        let telemetry_on = acs_telemetry::enabled();
        let mut class_sums = [0.0f64; 4];
        let mut total = 0.0f64;
        for (op, bytes) in plan.graph().ops().iter().zip(plan.op_bytes()) {
            let cost = self.price_op(op, *bytes, l2_use);
            let ctx = || format!("simulator.{}", cost.name);
            guard::ensure_non_negative_with(ctx, "time_s", cost.time_s)?;
            guard::ensure_non_negative_with(ctx, "compute_s", cost.compute_s)?;
            guard::ensure_non_negative_with(ctx, "dram_s", cost.dram_s)?;
            guard::ensure_non_negative_with(ctx, "l2_s", cost.l2_s)?;
            guard::ensure_non_negative_with(ctx, "comm_s", cost.comm_s)?;
            guard::ensure_non_negative_with(ctx, "dram_bytes", cost.dram_bytes)?;
            if telemetry_on {
                if let Some(class) = op_class(op) {
                    class_sums[class] += cost.time_s;
                }
            }
            total += cost.time_s;
        }
        if telemetry_on {
            flush_layer_telemetry(&class_sums, phase_layers(plan.phase()));
        }
        guard::ensure_finite("simulator.layer", "total_s", total)
    }

    /// Time-to-first-token: one layer's prefill latency (the paper's TTFT
    /// unit — one representative layer, §3.2).
    #[must_use]
    pub fn ttft_s(&self, model: &ModelConfig, workload: &WorkloadConfig) -> f64 {
        self.simulate_layer(model, workload, InferencePhase::Prefill).total_s()
    }

    /// Time-between-tokens: one layer's decode latency at a KV context of
    /// the input length.
    #[must_use]
    pub fn tbt_s(&self, model: &ModelConfig, workload: &WorkloadConfig) -> f64 {
        self.simulate_layer(model, workload, workload.decode_phase()).total_s()
    }

    /// Full-model TTFT (`per-layer × num_layers`), for end-to-end studies.
    #[must_use]
    pub fn full_model_ttft_s(&self, model: &ModelConfig, workload: &WorkloadConfig) -> f64 {
        self.ttft_s(model, workload) * f64::from(model.num_layers())
    }

    /// Full-model TBT (`per-layer × num_layers`).
    #[must_use]
    pub fn full_model_tbt_s(&self, model: &ModelConfig, workload: &WorkloadConfig) -> f64 {
        self.tbt_s(model, workload) * f64::from(model.num_layers())
    }

    /// Reject a plan built for a different node shape or operand dtype —
    /// executing it would price the wrong graph.
    pub(crate) fn check_plan(&self, plan: &LayerPlan) -> Result<(), AcsError> {
        if plan.device_count() != self.system.device_count() {
            return Err(AcsError::invalid_config(
                "plan.device_count",
                format!(
                    "plan was built for {} devices but the simulator's node has {}",
                    plan.device_count(),
                    self.system.device_count()
                ),
            ));
        }
        let dt = self.system.device().datatype().bytes();
        if plan.dtype_bytes() != dt {
            return Err(AcsError::invalid_config(
                "plan.dtype_bytes",
                format!(
                    "plan assumes {}-byte operands but the device computes in {}-byte operands",
                    plan.dtype_bytes(),
                    dt
                ),
            ));
        }
        Ok(())
    }

    /// [`Simulator::simulate_planned`] with the simulator's numeric
    /// contract enforced — every per-operator time and byte count must be
    /// finite and non-negative, so a NaN or infinity produced anywhere
    /// inside the cost models surfaces as a typed [`AcsError::NonFinite`]
    /// instead of propagating silently — and the plan's node shape and
    /// dtype checked against this simulator. Guard contexts are built
    /// lazily, so a healthy layer allocates nothing beyond its breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] on a mismatched plan and
    /// [`AcsError::NonFinite`] naming the offending operator and metric.
    pub fn try_simulate_planned(&self, plan: &LayerPlan) -> Result<LayerLatency, AcsError> {
        self.check_plan(plan)?;
        let lat = self.simulate_planned(plan);
        for op in lat.ops() {
            let ctx = || format!("simulator.{}", op.name);
            guard::ensure_non_negative_with(ctx, "time_s", op.time_s)?;
            guard::ensure_non_negative_with(ctx, "compute_s", op.compute_s)?;
            guard::ensure_non_negative_with(ctx, "dram_s", op.dram_s)?;
            guard::ensure_non_negative_with(ctx, "l2_s", op.l2_s)?;
            guard::ensure_non_negative_with(ctx, "comm_s", op.comm_s)?;
            guard::ensure_non_negative_with(ctx, "dram_bytes", op.dram_bytes)?;
        }
        guard::ensure_finite("simulator.layer", "total_s", lat.total_s())?;
        Ok(lat)
    }

    /// Guarded TTFT from a prebuilt prefill plan: finite and strictly
    /// positive, or a typed error. The plan-reuse counterpart of
    /// [`Simulator::try_ttft_s`] — bit-identical results, no per-call
    /// graph lowering.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when the plan is not a prefill
    /// plan for this node, and [`AcsError::NonFinite`] when the latency
    /// is NaN, infinite, or non-positive.
    pub fn try_ttft_planned(&self, plan: &LayerPlan) -> Result<f64, AcsError> {
        if !matches!(plan.phase(), InferencePhase::Prefill) {
            return Err(AcsError::invalid_config(
                "plan.phase",
                "TTFT requires a prefill plan, got a decode plan",
            ));
        }
        let total = self.checked_total_planned(plan)?;
        guard::ensure_positive("simulator", "ttft_s", total)
    }

    /// Guarded TBT from a prebuilt decode plan (see
    /// [`Simulator::try_ttft_planned`]).
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when the plan is not a decode
    /// plan for this node, and [`AcsError::NonFinite`] when the latency
    /// is NaN, infinite, or non-positive.
    pub fn try_tbt_planned(&self, plan: &LayerPlan) -> Result<f64, AcsError> {
        if !matches!(plan.phase(), InferencePhase::Decode { .. }) {
            return Err(AcsError::invalid_config(
                "plan.phase",
                "TBT requires a decode plan, got a prefill plan",
            ));
        }
        let total = self.checked_total_planned(plan)?;
        guard::ensure_positive("simulator", "tbt_s", total)
    }

    /// Guarded [`Simulator::ttft_s`]: finite and strictly positive, or a
    /// typed error. Thin wrapper that lowers a single-use plan; sweeps
    /// should build the plan once and call
    /// [`Simulator::try_ttft_planned`].
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when the node cannot
    /// tensor-parallelise the model, and [`AcsError::NonFinite`] when the
    /// latency is NaN, infinite, or non-positive.
    pub fn try_ttft_s(
        &self,
        model: &ModelConfig,
        workload: &WorkloadConfig,
    ) -> Result<f64, AcsError> {
        let plan = LayerPlan::for_simulator(self, model, workload, InferencePhase::Prefill)?;
        self.try_ttft_planned(&plan)
    }

    /// Guarded [`Simulator::tbt_s`]: finite and strictly positive, or a
    /// typed error. Thin wrapper that lowers a single-use plan; sweeps
    /// should build the plan once and call
    /// [`Simulator::try_tbt_planned`].
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when the node cannot
    /// tensor-parallelise the model, and [`AcsError::NonFinite`] when the
    /// latency is NaN, infinite, or non-positive.
    pub fn try_tbt_s(
        &self,
        model: &ModelConfig,
        workload: &WorkloadConfig,
    ) -> Result<f64, AcsError> {
        let plan = LayerPlan::for_simulator(self, model, workload, workload.decode_phase())?;
        self.try_tbt_planned(&plan)
    }
}

/// Record per-operator-class modelled cost totals into the global
/// telemetry registry, aggregated per layer call.
///
/// The class totals are monotonic nanosecond counters rather than
/// histograms: this runs on the sweep hot path, where the <5%
/// profiling-overhead budget affords roughly one uncontended `fetch_add`
/// per operator class and nothing more. Exact totals (divided by the
/// `sim.layers.*` counts) answer the attribution question — where does
/// modelled time go? — while distributions live where they carry real
/// signal: per-point wall time (`dse.eval.point_us`) and serving step
/// costs (`sim.step.*`).
fn record_layer_telemetry(graph_ops: &[Operator], ops: &[OpCost], phase: InferencePhase) {
    let mut sums = [0.0f64; 4];
    for (op, cost) in graph_ops.iter().zip(ops) {
        if let Some(class) = op_class(op) {
            sums[class] += cost.time_s;
        }
    }
    flush_layer_telemetry(&sums, phase_layers(phase));
}

/// The `(prefill, decode)` layer counts of one layer call in `phase`.
pub(crate) fn phase_layers(phase: InferencePhase) -> (u64, u64) {
    if matches!(phase, InferencePhase::Prefill) {
        (1, 0)
    } else {
        (0, 1)
    }
}

/// Telemetry class of one operator, indexing the `sim.cost_ns.*`
/// counters; `None` for operators outside the four tracked classes.
pub(crate) fn op_class(op: &Operator) -> Option<usize> {
    match op {
        // The attention score/context products are the workload's
        // quadratic term; track them separately from weight matmuls.
        Operator::Matmul(m) if m.name.starts_with("attn") => Some(1),
        Operator::Matmul(_) => Some(0),
        Operator::Vector(_) => Some(2),
        Operator::AllReduce(_) | Operator::AllToAll(_) => Some(3),
        _ => None,
    }
}

/// Flush accumulated per-class cost totals (indexed by [`op_class`]) and
/// add `(prefill, decode)` layer calls to the per-phase layer counters.
pub(crate) fn flush_layer_telemetry(sums: &[f64; 4], (prefill, decode): (u64, u64)) {
    use acs_telemetry::GlobalCounter;
    // Cached handles: no registry name lookup (let alone a `format!`)
    // per simulated layer.
    static COST_COUNTERS: [GlobalCounter; 4] = [
        GlobalCounter::new("sim.cost_ns.matmul"),
        GlobalCounter::new("sim.cost_ns.attention"),
        GlobalCounter::new("sim.cost_ns.vector"),
        GlobalCounter::new("sim.cost_ns.collective"),
    ];
    static PREFILL_LAYERS: GlobalCounter = GlobalCounter::new("sim.layers.prefill");
    static DECODE_LAYERS: GlobalCounter = GlobalCounter::new("sim.layers.decode");
    for i in 0..4 {
        if sums[i] > 0.0 {
            COST_COUNTERS[i].add((sums[i] * 1e9) as u64);
        }
    }
    if prefill > 0 {
        PREFILL_LAYERS.add(prefill);
    }
    if decode > 0 {
        DECODE_LAYERS.add(decode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_hw::DeviceConfig;

    fn a100_sim() -> Simulator {
        Simulator::new(SystemConfig::quad(DeviceConfig::a100_like()).unwrap())
    }

    fn gpt3() -> ModelConfig {
        ModelConfig::gpt3_175b()
    }

    fn work() -> WorkloadConfig {
        WorkloadConfig::paper_default()
    }

    #[test]
    fn a100_gpt3_anchors_near_paper_values() {
        // Paper (Fig. 5/6): modeled A100 TTFT ≈ 280 ms, TBT ≈ 1.44 ms.
        let sim = a100_sim();
        let ttft_ms = sim.ttft_s(&gpt3(), &work()) * 1e3;
        let tbt_ms = sim.tbt_s(&gpt3(), &work()) * 1e3;
        assert!(
            ttft_ms > 200.0 && ttft_ms < 360.0,
            "TTFT out of anchor band: {ttft_ms} ms"
        );
        assert!(tbt_ms > 1.0 && tbt_ms < 1.9, "TBT out of anchor band: {tbt_ms} ms");
    }

    #[test]
    fn a100_llama3_anchors_are_faster_than_gpt3() {
        let sim = a100_sim();
        let llama = ModelConfig::llama3_8b();
        let ttft_ms = sim.ttft_s(&llama, &work()) * 1e3;
        let tbt_ms = sim.tbt_s(&llama, &work()) * 1e3;
        // Paper (Fig. 6d/6e): ≈ 47 ms and ≈ 0.6 ms.
        assert!(ttft_ms > 25.0 && ttft_ms < 70.0, "TTFT = {ttft_ms} ms");
        assert!(tbt_ms > 0.25 && tbt_ms < 0.9, "TBT = {tbt_ms} ms");
        assert!(ttft_ms < sim.ttft_s(&gpt3(), &work()) * 1e3);
    }

    #[test]
    fn prefill_is_mostly_compute_bound_decode_mostly_memory_bound() {
        let sim = a100_sim();
        let prefill = sim.simulate_layer(&gpt3(), &work(), InferencePhase::Prefill);
        let decode = sim.simulate_layer(&gpt3(), &work(), work().decode_phase());
        assert!(prefill.time_bound_by(Bound::Compute) > prefill.total_s() * 0.5);
        assert!(decode.time_bound_by(Bound::Memory) > decode.total_s() * 0.5);
    }

    #[test]
    fn memory_bandwidth_moves_tbt_much_more_than_ttft() {
        // §4.2: decoding levels are set by memory bandwidth.
        let slow = a100_sim();
        let fast_dev =
            DeviceConfig::a100_like().to_builder().hbm_bandwidth_tb_s(3.2).build().unwrap();
        let fast = Simulator::new(SystemConfig::quad(fast_dev).unwrap());
        let tbt_gain = slow.tbt_s(&gpt3(), &work()) / fast.tbt_s(&gpt3(), &work());
        let ttft_gain = slow.ttft_s(&gpt3(), &work()) / fast.ttft_s(&gpt3(), &work());
        assert!(tbt_gain > 1.2, "TBT gain = {tbt_gain}");
        assert!(ttft_gain < 1.1, "TTFT gain = {ttft_gain}");
        assert!(tbt_gain > ttft_gain);
    }

    #[test]
    fn device_bandwidth_barely_moves_tbt() {
        // §4.1: 600 → 1000 GB/s decreases TBT by only ~0.27 %.
        let base = a100_sim();
        let fat_dev =
            DeviceConfig::a100_like().to_builder().device_bandwidth_gb_s(1000.0).build().unwrap();
        let fat = Simulator::new(SystemConfig::quad(fat_dev).unwrap());
        let rel = 1.0 - fat.tbt_s(&gpt3(), &work()) / base.tbt_s(&gpt3(), &work());
        assert!(rel > 0.0 && rel < 0.02, "relative TBT gain = {rel}");
    }

    #[test]
    fn more_cores_cut_ttft_roughly_proportionally() {
        // §4.1: TPP 4000 → 5000 decreases TTFT by ~16 %.
        let d4000 = DeviceConfig::a100_like().to_builder().core_count(86).build().unwrap();
        let d5000 = DeviceConfig::a100_like().to_builder().core_count(108).build().unwrap();
        let s4000 = Simulator::new(SystemConfig::quad(d4000).unwrap());
        let s5000 = Simulator::new(SystemConfig::quad(d5000).unwrap());
        let rel = 1.0 - s5000.ttft_s(&gpt3(), &work()) / s4000.ttft_s(&gpt3(), &work());
        assert!(rel > 0.10 && rel < 0.25, "relative TTFT gain = {rel}");
    }

    #[test]
    fn layer_latency_breakdown_sums_to_total() {
        let sim = a100_sim();
        let lat = sim.simulate_layer(&gpt3(), &work(), InferencePhase::Prefill);
        let sum: f64 = lat.ops().iter().map(|o| o.time_s).sum();
        assert!((sum - lat.total_s()).abs() < 1e-12);
        assert!(lat.slowest_op().is_some());
    }

    #[test]
    fn full_model_scales_by_layer_count() {
        let sim = a100_sim();
        let per_layer = sim.ttft_s(&gpt3(), &work());
        assert!((sim.full_model_ttft_s(&gpt3(), &work()) - 96.0 * per_layer).abs() < 1e-9);
    }

    #[test]
    fn display_lists_operators() {
        let sim = a100_sim();
        let lat = sim.simulate_layer(&gpt3(), &work(), work().decode_phase());
        let s = lat.to_string();
        assert!(s.contains("qkv_proj"));
        assert!(s.contains("allreduce_ffn"));
    }

    #[test]
    fn try_variants_pass_healthy_configs_and_agree_with_unchecked() {
        let sim = a100_sim();
        let ttft = sim.try_ttft_s(&gpt3(), &work()).unwrap();
        let tbt = sim.try_tbt_s(&gpt3(), &work()).unwrap();
        assert_eq!(ttft, sim.ttft_s(&gpt3(), &work()));
        assert_eq!(tbt, sim.tbt_s(&gpt3(), &work()));
    }

    #[test]
    fn decode_context_growth_increases_tbt() {
        let sim = a100_sim();
        let short = sim
            .simulate_layer(&gpt3(), &work(), InferencePhase::Decode { context_len: 1024 })
            .total_s();
        let long = sim
            .simulate_layer(&gpt3(), &work(), InferencePhase::Decode { context_len: 3072 })
            .total_s();
        assert!(long > short);
    }
}
