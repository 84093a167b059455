//! Component-decomposed pricing: dependency keys, per-plan leg vectors,
//! and the fused combine the lattice sweep engine runs per grid point.
//!
//! A DSE sweep walks a dense Cartesian grid, but each priced cost
//! component reads only a *subset* of the swept axes: matmul compute
//! never sees `hbm_tb_s`, the DRAM model never sees `l1_kib`, and the
//! all-reduce sees nothing but the interconnect. The overlap
//! (`max(compute, l2, dram)`) is the only place the legs meet. This
//! module names each leg's dependency key — the exact tuple of device
//! parameters the leg's arithmetic reads — so a sweep evaluator can
//! price each distinct leg once, fuse the legs into per-op time vectors
//! ([`CombineProgram`]), and reduce a grid point to a few dozen
//! additions instead of re-walking the whole operator graph (the
//! observation LLMCompass makes about analytical-model sweeps being
//! dominated by redundant re-pricing).
//!
//! The keys are *value-derived* (from the concrete [`DeviceConfig`], not
//! from the sweep axes), which buys two properties for free: a permuted
//! sweep specification hits the same table entries, and an injected
//! fault that perturbs a parameter perturbs the key, so faulted points
//! can never alias a healthy entry.
//!
//! Leg values are priced by the same functions the per-op API composes
//! ([`crate::matmul_cost`] is [`crate::matmul_compute_leg`] +
//! [`crate::matmul_memory_leg`]; same for vector ops), and the fused
//! combine replays the planned path's left-to-right accumulation — so
//! fused totals over clean vectors are bit-identical to
//! [`Simulator::try_ttft_planned`]. The guard contract is not hoisted
//! blindly: a fused vector records whether every per-op guard provably
//! passes ([`FusedLegs::clean`]), and a caller holding an unclean vector
//! must price that point through the planned path, which fails with the
//! exact typed error at the exact operator.

use crate::collective::{allreduce_cost, alltoall_cost};
use crate::latency::{flush_layer_telemetry, op_class, phase_layers, Simulator};
use crate::matmul::{matmul_compute_leg, matmul_memory_leg};
use crate::plan::LayerPlan;
use crate::vector::{vector_compute_leg, vector_memory_leg};
use acs_errors::{guard, AcsError};
use acs_hw::{DataType, DeviceConfig, SystemConfig, Topology};
use acs_llm::{InferencePhase, Operator};

/// Dependency key of the compute/L2 leg: every device parameter the
/// systolic, vector-ALU, and global-buffer *port* models read. Two
/// devices with equal keys price identical compute legs for any plan.
///
/// The solved core count is part of the key on purpose: the sweep's TPP
/// Eq. 1 step derives cores from `(systolic_dim, lanes)`, so distinct
/// axis combinations can reach distinct core counts — the key captures
/// the solved value, not the axes that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComputeKey {
    /// Systolic rows.
    pub systolic_x: u32,
    /// Systolic columns.
    pub systolic_y: u32,
    /// Lanes per core.
    pub lanes_per_core: u32,
    /// Core count (solved from the TPP ceiling during candidate
    /// generation).
    pub core_count: u32,
    /// L1 per core in KiB (sets the activation-panel height).
    pub l1_kib: u32,
    /// Vector-unit width (the vector ops' peak FLOP/s).
    pub vector_width: u32,
    /// Core clock in GHz, bit-exact.
    pub frequency_ghz_bits: u64,
    /// Operand datatype (tile geometry and byte counts).
    pub datatype: DataType,
}

impl ComputeKey {
    /// The compute-leg key of one device.
    #[must_use]
    pub fn of(device: &DeviceConfig) -> Self {
        ComputeKey {
            systolic_x: device.systolic().x,
            systolic_y: device.systolic().y,
            lanes_per_core: device.lanes_per_core(),
            core_count: device.core_count(),
            l1_kib: device.l1_kib_per_core(),
            vector_width: device.vector_width(),
            frequency_ghz_bits: device.frequency_ghz().to_bits(),
            datatype: device.datatype(),
        }
    }
}

/// Dependency key of the DRAM leg: L2 capacity (blocking and the
/// forwarding fractions), HBM bandwidth, and the operand datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryKey {
    /// L2 capacity in MiB.
    pub l2_mib: u32,
    /// HBM bandwidth in GB/s, bit-exact.
    pub hbm_gb_s_bits: u64,
    /// Operand datatype (byte counts and blocking panel height).
    pub datatype: DataType,
}

impl MemoryKey {
    /// The memory-leg key of one device.
    #[must_use]
    pub fn of(device: &DeviceConfig) -> Self {
        MemoryKey {
            l2_mib: device.l2_mib(),
            hbm_gb_s_bits: device.hbm().bandwidth_gb_s.to_bits(),
            datatype: device.datatype(),
        }
    }
}

/// Dependency key of the collective leg: per-direction device bandwidth,
/// group size, and topology — all the wire model reads — plus the
/// operand datatype. The wire model itself is dtype-blind, but the byte
/// counts it prices come from the plan's all-reduce operators, and those
/// scale with the operand width; carrying the datatype keeps two
/// collective legs of different operand widths from ever sharing a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommKey {
    /// One-direction device bandwidth in GB/s, bit-exact.
    pub unidirectional_gb_s_bits: u64,
    /// Tensor-parallel group size.
    pub device_count: u32,
    /// Interconnect topology (sets the latency step count).
    pub topology: Topology,
    /// Operand datatype (sizes the plan's collective payloads).
    pub datatype: DataType,
    /// Expert-parallel group size. The all-to-all operators of an
    /// expert-parallel plan carry their own group width (orthogonal to
    /// the tensor-parallel `device_count`), and their payload bytes are
    /// a function of that width — so two plans that differ only in
    /// expert parallelism price different comm legs and must not alias.
    /// Dense plans use 1, which [`CommKey::of`] sets, keeping every
    /// historical key value unchanged.
    pub expert_parallel: u32,
}

impl CommKey {
    /// The collective-leg key of one node (dense: `expert_parallel` 1).
    #[must_use]
    pub fn of(system: &SystemConfig) -> Self {
        CommKey {
            unidirectional_gb_s_bits: system.device().phy().unidirectional_gb_s().to_bits(),
            device_count: system.device_count(),
            topology: system.topology(),
            datatype: system.device().datatype(),
            expert_parallel: 1,
        }
    }
}

/// All three dependency keys of one node, derived in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LegKeys {
    /// Compute/L2 leg key.
    pub compute: ComputeKey,
    /// DRAM leg key.
    pub memory: MemoryKey,
    /// Collective leg key.
    pub comm: CommKey,
}

impl LegKeys {
    /// The leg keys of one node.
    #[must_use]
    pub fn of(system: &SystemConfig) -> Self {
        LegKeys {
            compute: ComputeKey::of(system.device()),
            memory: MemoryKey::of(system.device()),
            comm: CommKey::of(system),
        }
    }
}

/// Priced compute/L2 leg of one planned operator (zero for operators
/// without an on-chip phase).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComputeLeg {
    /// Compute-phase time (s).
    pub compute_s: f64,
    /// Global-buffer-phase time (s).
    pub l2_s: f64,
}

/// Priced DRAM leg of one planned operator (zero for operators without a
/// DRAM phase).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryLeg {
    /// DRAM-phase time (s).
    pub dram_s: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
}

/// One plan priced into its three leg vectors, index-aligned with the
/// plan's operator list. Each vector depends only on its own
/// [`LegKeys`] component, so a sweep evaluator can keep each one with
/// the signature that determines it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanLegs {
    /// Per-op compute/L2 legs (keyed by [`ComputeKey`]).
    pub compute: Vec<ComputeLeg>,
    /// Per-op DRAM legs (keyed by [`MemoryKey`]).
    pub memory: Vec<MemoryLeg>,
    /// Per-op collective times in seconds (keyed by [`CommKey`]).
    pub comm: Vec<f64>,
}

impl Simulator {
    /// Price every operator of `plan` into its leg vectors, walking the
    /// ops in plan order with each op's compute leg priced before its
    /// memory leg — the same visit order as the planned pricing loop, so
    /// any cost-model panic fires at the same operator on both paths.
    #[must_use]
    pub fn price_plan_legs(&self, plan: &LayerPlan) -> PlanLegs {
        let device = self.system().device();
        let params = self.params();
        let l2_use = self.l2_usable();
        let forward = |bytes: f64| -> f64 {
            if bytes <= 0.0 {
                1.0
            } else {
                (0.5 * l2_use / bytes).min(1.0)
            }
        };
        let ops = plan.graph().ops();
        let mut compute = Vec::with_capacity(ops.len());
        let mut memory = Vec::with_capacity(ops.len());
        let mut comm = Vec::with_capacity(ops.len());
        for (op, bytes) in ops.iter().zip(plan.op_bytes()) {
            match op {
                Operator::Matmul(m) => {
                    let c = matmul_compute_leg(m, device, params);
                    let fin = forward(bytes.a);
                    let fout = forward(bytes.out);
                    let d = matmul_memory_leg(m, device, params, fin, fout);
                    compute.push(ComputeLeg { compute_s: c.compute_s, l2_s: c.l2_s });
                    memory.push(MemoryLeg { dram_s: d.dram_s, dram_bytes: d.dram_bytes });
                    comm.push(0.0);
                }
                Operator::Vector(v) => {
                    let c = vector_compute_leg(v, device, params);
                    let f = forward(bytes.a);
                    let d = vector_memory_leg(v, device, params, f);
                    compute.push(ComputeLeg { compute_s: c.compute_s, l2_s: c.l2_s });
                    memory.push(MemoryLeg { dram_s: d.dram_s, dram_bytes: d.dram_bytes });
                    comm.push(0.0);
                }
                Operator::AllReduce(a) => {
                    let c = allreduce_cost(a.bytes, self.system(), params);
                    compute.push(ComputeLeg::default());
                    memory.push(MemoryLeg::default());
                    comm.push(c.time_s());
                }
                Operator::AllToAll(a) => {
                    let c = alltoall_cost(a.bytes, a.group, self.system(), params);
                    compute.push(ComputeLeg::default());
                    memory.push(MemoryLeg::default());
                    comm.push(c.time_s());
                }
                // Unknown future operators contribute only launch
                // overhead; their legs are zero.
                _ => {
                    compute.push(ComputeLeg::default());
                    memory.push(MemoryLeg::default());
                    comm.push(0.0);
                }
            }
        }
        PlanLegs { compute, memory, comm }
    }
}

/// How the fused combine treats one planned operator: the overlap
/// `max()` of its compute/memory legs, the collective wire time, or bare
/// launch overhead. Precompiled once per plan by [`CombineProgram::of`]
/// so a lattice evaluator never re-matches operator variants per point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// Matmul or vector op: `max(compute, l2, dram) + overhead`.
    OnChip,
    /// All-reduce or all-to-all: `wire + overhead`.
    Comm,
    /// Anything else: launch overhead only.
    Other,
}

/// One operator vector of pre-fused per-op times, plus the proof
/// obligation its construction discharged.
///
/// `clean` records that every per-op guard of the planned pricing loop
/// ([`Simulator::try_ttft_planned`]) provably passes for these values:
/// each contributing leg component is finite and non-negative, the
/// launch overhead is finite and non-negative, and no fused per-op time
/// overflowed to infinity. When `clean` is true, a combine over these
/// values is bit-identical to the planned total — including the only
/// remaining failure modes (a total that overflows to infinity, or a
/// non-positive total), which the final guards report with the planned
/// path's exact error shape. When `clean` is false, a caller that needs
/// bit-identical errors must price the point through the planned path,
/// which re-walks the guards and fails at the exact operator.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedLegs {
    /// Per-op pre-fused times, index-aligned with the plan's operators.
    /// On-chip and overhead-only positions are populated in an on-chip
    /// vector; collective positions are populated in a comm vector (the
    /// respectively foreign positions hold 0.0 and are never read).
    pub values: Vec<f64>,
    /// Whether every hoisted per-op guard provably passes (see above).
    pub clean: bool,
    /// `values` summed per telemetry class (indexed like the
    /// `sim.cost_ns.*` counters), so a caller tallies a combined layer's
    /// attribution from two vectors' sums instead of walking its ops.
    pub class_sums: [f64; 4],
}

/// Modelled time per operator class and layer counts of many combined
/// layers, held back from the `sim.cost_ns.*`/`sim.layers.*` counters
/// until [`LayerTally::flush`]. A sweep combines thousands of layers a
/// millisecond; walking each one's ops for class sums and flushing it
/// would cost more than the combine itself, so a caller adds the fused
/// vectors' precomputed [`FusedLegs::class_sums`] per layer and flushes
/// once per batch of points.
#[derive(Debug, Default)]
pub struct LayerTally {
    class_sums: [f64; 4],
    layers: (u64, u64),
}

impl LayerTally {
    /// Tally one `phase` layer combined from an on-chip and a comm vector
    /// with these class sums.
    pub fn add_layer(&mut self, phase: InferencePhase, onchip: &[f64; 4], comm: &[f64; 4]) {
        for (sum, (a, w)) in self.class_sums.iter_mut().zip(onchip.iter().zip(comm)) {
            *sum += a + w;
        }
        let (prefill, decode) = phase_layers(phase);
        self.layers.0 += prefill;
        self.layers.1 += decode;
    }

    /// Add the tallied totals to the global counters and start over.
    pub fn flush(&mut self) {
        if self.layers != (0, 0) {
            flush_layer_telemetry(&self.class_sums, self.layers);
        }
        *self = LayerTally::default();
    }
}

/// A plan's combine loop, precompiled: per-op kinds, telemetry classes,
/// and the phase. Combining a grid point through
/// [`CombineProgram::try_ttft`] replays the planned path's left-to-right
/// accumulation over two pre-fused vectors — one that depends only on
/// the (compute, memory) dependency keys and one that depends only on
/// the comm key — so a sweep lattice can price each vector once per
/// distinct key tuple and reduce a point to `ops` additions.
#[derive(Debug, Clone)]
pub struct CombineProgram {
    phase: InferencePhase,
    kinds: Vec<OpKind>,
    /// Telemetry class per op (see `op_class`), applied only when
    /// telemetry is enabled so class sums match the planned path.
    class: Vec<Option<usize>>,
}

impl CombineProgram {
    /// Precompile the combine loop of one plan.
    #[must_use]
    pub fn of(plan: &LayerPlan) -> Self {
        let ops = plan.graph().ops();
        CombineProgram {
            phase: plan.phase(),
            kinds: ops
                .iter()
                .map(|op| match op {
                    Operator::Matmul(_) | Operator::Vector(_) => OpKind::OnChip,
                    Operator::AllReduce(_) | Operator::AllToAll(_) => OpKind::Comm,
                    _ => OpKind::Other,
                })
                .collect(),
            class: ops.iter().map(op_class).collect(),
        }
    }

    /// Number of operators in the compiled plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the compiled plan has no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The compiled plan's inference phase.
    #[must_use]
    pub fn phase(&self) -> InferencePhase {
        self.phase
    }

    /// `values` summed per telemetry class, in operator order.
    fn class_sums(&self, values: &[f64]) -> [f64; 4] {
        let mut sums = [0.0f64; 4];
        for (class, v) in self.class.iter().zip(values) {
            if let Some(class) = *class {
                sums[class] += v;
            }
        }
        sums
    }

    /// Fuse the (compute, memory)-keyed legs into one per-op time vector:
    /// `max(compute, l2, dram) + overhead` at on-chip positions, bare
    /// `overhead` at overhead-only positions, 0.0 at collective positions
    /// (never read — the comm vector covers those). Establishes the
    /// `clean` obligation documented on [`FusedLegs`].
    #[must_use]
    pub fn fuse_onchip(
        &self,
        compute: &[ComputeLeg],
        memory: &[MemoryLeg],
        overhead_s: f64,
    ) -> FusedLegs {
        let n = self.kinds.len();
        if compute.len() != n || memory.len() != n {
            // A mismatched table cannot prove anything; the caller's
            // slow path prices the point without these vectors.
            return FusedLegs { values: vec![0.0; n], clean: false, class_sums: [0.0; 4] };
        }
        let nonneg = |v: f64| v.is_finite() && v >= 0.0;
        let mut clean = nonneg(overhead_s);
        let mut values = Vec::with_capacity(n);
        for ((kind, c), d) in self.kinds.iter().zip(compute).zip(memory) {
            match kind {
                OpKind::OnChip => {
                    let fused = c.compute_s.max(c.l2_s).max(d.dram_s) + overhead_s;
                    clean = clean
                        && nonneg(c.compute_s)
                        && nonneg(c.l2_s)
                        && nonneg(d.dram_s)
                        && nonneg(d.dram_bytes)
                        && fused.is_finite();
                    values.push(fused);
                }
                OpKind::Comm => values.push(0.0),
                OpKind::Other => values.push(overhead_s),
            }
        }
        let class_sums = self.class_sums(&values);
        FusedLegs { values, clean, class_sums }
    }

    /// Fuse the comm-keyed leg into one per-op time vector: `wire +
    /// overhead` at collective positions, 0.0 everywhere else (never
    /// read — the on-chip vector covers those). Establishes the `clean`
    /// obligation documented on [`FusedLegs`].
    #[must_use]
    pub fn fuse_comm(&self, comm: &[f64], overhead_s: f64) -> FusedLegs {
        let n = self.kinds.len();
        if comm.len() != n {
            return FusedLegs { values: vec![0.0; n], clean: false, class_sums: [0.0; 4] };
        }
        let nonneg = |v: f64| v.is_finite() && v >= 0.0;
        let mut clean = nonneg(overhead_s);
        let mut values = Vec::with_capacity(n);
        for (kind, wire) in self.kinds.iter().zip(comm) {
            match kind {
                OpKind::Comm => {
                    let t = *wire + overhead_s;
                    clean = clean && nonneg(*wire) && t.is_finite();
                    values.push(t);
                }
                _ => values.push(0.0),
            }
        }
        let class_sums = self.class_sums(&values);
        FusedLegs { values, clean, class_sums }
    }

    /// The combine loop over two pre-fused vectors: the planned path's
    /// left-to-right accumulation, with the per-op guards hoisted into
    /// the vectors' `clean` obligation. Bit-identical to the planned
    /// total when both vectors are clean, by construction: same per-op
    /// times, same additions, same order, same final guard. Telemetry is
    /// the caller's, through [`LayerTally`].
    fn checked_total(&self, onchip: &[f64], comm: &[f64]) -> Result<f64, AcsError> {
        let n = self.kinds.len();
        if onchip.len() != n || comm.len() != n {
            return Err(AcsError::invalid_config(
                "legs.len",
                format!(
                    "fused vectors of {}/{} entries cannot price a {n}-op plan",
                    onchip.len(),
                    comm.len(),
                ),
            ));
        }
        // Branchless form of the select-and-add loop. Exactly one of
        // `onchip[i]` / `comm[i]` is populated per op — the foreign
        // position holds a literal +0.0 by construction of the `fuse_*`
        // vectors — and every populated clean value is non-negative and
        // finite, so `a + w` is the selected value bit for bit
        // (`x + 0.0 == x` for every such `x`, and a populated `-0.0` adds
        // into the non-negative accumulator identically either way). The
        // accumulation order is unchanged: one add per op, left to right.
        let mut total = 0.0f64;
        for (&a, &w) in onchip.iter().zip(comm) {
            total += a + w;
        }
        guard::ensure_finite("simulator.layer", "total_s", total)
    }

    /// Guarded TTFT from pre-fused per-op vectors (see
    /// [`CombineProgram::fuse_onchip`] / [`CombineProgram::fuse_comm`]).
    /// Bit-identical to [`Simulator::try_ttft_planned`] when both
    /// vectors are `clean`; callers holding unclean vectors must price
    /// through the planned path instead to reproduce its per-op errors.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when the program is not a
    /// prefill program or the vectors do not match it, and
    /// [`AcsError::NonFinite`] when the total is non-finite or
    /// non-positive.
    pub fn try_ttft(&self, onchip: &[f64], comm: &[f64]) -> Result<f64, AcsError> {
        if !matches!(self.phase, InferencePhase::Prefill) {
            return Err(AcsError::invalid_config(
                "plan.phase",
                "TTFT requires a prefill plan, got a decode plan",
            ));
        }
        let total = self.checked_total(onchip, comm)?;
        guard::ensure_positive("simulator", "ttft_s", total)
    }

    /// Guarded TBT from pre-fused per-op vectors (see
    /// [`CombineProgram::try_ttft`]).
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when the program is not a
    /// decode program or the vectors do not match it, and
    /// [`AcsError::NonFinite`] when the total is non-finite or
    /// non-positive.
    pub fn try_tbt(&self, onchip: &[f64], comm: &[f64]) -> Result<f64, AcsError> {
        if !matches!(self.phase, InferencePhase::Decode { .. }) {
            return Err(AcsError::invalid_config(
                "plan.phase",
                "TBT requires a decode plan, got a prefill plan",
            ));
        }
        let total = self.checked_total(onchip, comm)?;
        guard::ensure_positive("simulator", "tbt_s", total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_llm::{ModelConfig, WorkloadConfig};

    fn sim() -> Simulator {
        Simulator::new(SystemConfig::quad(DeviceConfig::a100_like()).unwrap())
    }

    fn plans(s: &Simulator) -> (LayerPlan, LayerPlan) {
        let model = ModelConfig::gpt3_175b();
        let work = WorkloadConfig::paper_default();
        (
            LayerPlan::for_simulator(s, &model, &work, InferencePhase::Prefill).unwrap(),
            LayerPlan::for_simulator(s, &model, &work, work.decode_phase()).unwrap(),
        )
    }

    #[test]
    fn leg_vectors_align_with_the_plan() {
        let s = sim();
        let (prefill, _) = plans(&s);
        let legs = s.price_plan_legs(&prefill);
        let n = prefill.graph().ops().len();
        assert_eq!(legs.compute.len(), n);
        assert_eq!(legs.memory.len(), n);
        assert_eq!(legs.comm.len(), n);
        // Collectives carry no compute/memory legs and vice versa.
        for (op, ((c, m), &w)) in prefill
            .graph()
            .ops()
            .iter()
            .zip(legs.compute.iter().zip(&legs.memory).zip(&legs.comm))
        {
            match op {
                Operator::AllReduce(_) => {
                    assert_eq!((c.compute_s, m.dram_s), (0.0, 0.0));
                    assert!(w > 0.0);
                }
                Operator::Matmul(_) | Operator::Vector(_) => {
                    assert!(c.compute_s > 0.0);
                    assert_eq!(w, 0.0);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn keys_read_exactly_the_parameters_the_legs_read() {
        let base = DeviceConfig::a100_like();
        let quad = |d: DeviceConfig| SystemConfig::quad(d).unwrap();
        let k0 = LegKeys::of(&quad(base.clone()));
        // Memory-side change: compute key stable, memory key moves.
        let hbm = base.to_builder().hbm_bandwidth_tb_s(3.2).build().unwrap();
        let k_hbm = LegKeys::of(&quad(hbm));
        assert_eq!(k0.compute, k_hbm.compute);
        assert_ne!(k0.memory, k_hbm.memory);
        assert_eq!(k0.comm, k_hbm.comm);
        // Compute-side change: memory and comm keys stable.
        let l1 = base.to_builder().l1_kib_per_core(1024).build().unwrap();
        let k_l1 = LegKeys::of(&quad(l1));
        assert_ne!(k0.compute, k_l1.compute);
        assert_eq!(k0.memory, k_l1.memory);
        assert_eq!(k0.comm, k_l1.comm);
        // Interconnect change: only the comm key moves.
        let bw = base.to_builder().device_bandwidth_gb_s(900.0).build().unwrap();
        let k_bw = LegKeys::of(&quad(bw));
        assert_eq!(k0.compute, k_bw.compute);
        assert_eq!(k0.memory, k_bw.memory);
        assert_ne!(k0.comm, k_bw.comm);
    }

    #[test]
    fn fused_combine_is_bit_identical_to_planned() {
        let s = sim();
        let (prefill, decode) = plans(&s);
        let overhead = s.params().op_overhead_s;
        for (plan, want) in [
            (&prefill, s.try_ttft_planned(&prefill).unwrap()),
            (&decode, s.try_tbt_planned(&decode).unwrap()),
        ] {
            let legs = s.price_plan_legs(plan);
            let program = CombineProgram::of(plan);
            assert_eq!(program.len(), plan.graph().ops().len());
            let onchip = program.fuse_onchip(&legs.compute, &legs.memory, overhead);
            let comm = program.fuse_comm(&legs.comm, overhead);
            assert!(onchip.clean && comm.clean, "healthy legs must fuse clean");
            let got = match plan.phase() {
                InferencePhase::Prefill => program.try_ttft(&onchip.values, &comm.values),
                _ => program.try_tbt(&onchip.values, &comm.values),
            }
            .unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn fused_combine_rejects_wrong_phase_and_mismatched_vectors() {
        let s = sim();
        let (prefill, decode) = plans(&s);
        let overhead = s.params().op_overhead_s;
        let legs = s.price_plan_legs(&prefill);
        let program = CombineProgram::of(&prefill);
        let onchip = program.fuse_onchip(&legs.compute, &legs.memory, overhead);
        let comm = program.fuse_comm(&legs.comm, overhead);
        // Phase mismatch mirrors the planned path's error.
        let err = program.try_tbt(&onchip.values, &comm.values).unwrap_err();
        assert!(err.to_string().contains("TBT requires a decode plan"), "{err}");
        let err = CombineProgram::of(&decode)
            .try_ttft(&onchip.values, &comm.values)
            .unwrap_err();
        assert!(err.to_string().contains("TTFT requires a prefill plan"), "{err}");
        // Truncated vectors are a typed length error, never an OOB panic.
        let err = program.try_ttft(&onchip.values[1..], &comm.values).unwrap_err();
        assert!(err.to_string().contains("cannot price"), "{err}");
        // Mismatched leg vectors fuse unclean instead of panicking.
        assert!(!program.fuse_onchip(&legs.compute[1..], &legs.memory, overhead).clean);
        assert!(!program.fuse_comm(&legs.comm[1..], overhead).clean);
    }

    #[test]
    fn unclean_legs_are_flagged_not_hidden() {
        let s = sim();
        let (prefill, _) = plans(&s);
        let program = CombineProgram::of(&prefill);
        let mut legs = s.price_plan_legs(&prefill);
        // A NaN compute leg on an on-chip op must poison cleanliness.
        let onchip_pos = prefill
            .graph()
            .ops()
            .iter()
            .position(|op| matches!(op, Operator::Matmul(_) | Operator::Vector(_)))
            .unwrap();
        legs.compute[onchip_pos].compute_s = f64::NAN;
        assert!(!program.fuse_onchip(&legs.compute, &legs.memory, 1e-6).clean);
        // Negative launch overhead poisons both vectors.
        let healthy = s.price_plan_legs(&prefill);
        assert!(!program.fuse_onchip(&healthy.compute, &healthy.memory, -1.0).clean);
        assert!(!program.fuse_comm(&healthy.comm, f64::INFINITY).clean);
    }

    #[test]
    fn equal_keys_imply_bit_equal_legs() {
        // Two differently named devices with identical parameters must
        // produce identical keys and identical leg vectors — the property
        // the sweep-level memoization relies on.
        let s1 = sim();
        let renamed = DeviceConfig::a100_like().to_builder().name("other").build().unwrap();
        let s2 = Simulator::new(SystemConfig::quad(renamed).unwrap());
        assert_eq!(LegKeys::of(s1.system()), LegKeys::of(s2.system()));
        let (prefill, _) = plans(&s1);
        assert_eq!(s1.price_plan_legs(&prefill), s2.price_plan_legs(&prefill));
    }
}
