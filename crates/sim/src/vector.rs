//! Vector-unit operator cost model.
//!
//! Softmax, norms, activations and residuals have arithmetic intensities
//! of a few FLOPs per byte — far below any device's compute/bandwidth
//! ratio — so they run at memory speed (§3.1, citing the LLM roofline
//! literature). Small intermediates are forwarded through the L2.

use crate::params::SimParams;
use acs_hw::DeviceConfig;
use acs_llm::VectorOp;

/// Cost components of one vector operator on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorCost {
    /// Vector-unit busy time (s).
    pub compute_s: f64,
    /// Global-buffer port time (s).
    pub l2_s: f64,
    /// DRAM streaming time (s).
    pub dram_s: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
}

impl VectorCost {
    /// Modelled latency (phases overlap; slowest wins).
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.compute_s.max(self.l2_s).max(self.dram_s)
    }
}

/// The on-chip half of a vector op's cost: ALU busy time plus
/// global-buffer port time. Reads only compute-side device parameters
/// (vector width, lanes, cores, frequency, dtype), so it can be memoized
/// per compute dependency key across a sweep (see `acs_sim::legs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorComputeLeg {
    /// Vector-unit busy time (s).
    pub compute_s: f64,
    /// Global-buffer port time (s).
    pub l2_s: f64,
}

/// The off-chip half of a vector op's cost: DRAM traffic after L2
/// forwarding. Reads only memory-side device parameters (HBM bandwidth,
/// dtype) plus the scheduler's forwarding fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorMemoryLeg {
    /// DRAM streaming time (s).
    pub dram_s: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
}

/// Price the compute/L2 leg of one vector operator.
#[must_use]
pub fn vector_compute_leg(
    op: &VectorOp,
    device: &DeviceConfig,
    params: &SimParams,
) -> VectorComputeLeg {
    let dt = u64::from(device.datatype().bytes());
    let compute_s = op.flops() / device.peak_vector_flops();
    let bytes = op.bytes(dt);
    let l2_bw = f64::from(device.core_count())
        * f64::from(device.lanes_per_core())
        * params.l2_bytes_per_lane_cycle
        * device.frequency_ghz()
        * 1e9;
    let l2_s = bytes / l2_bw;
    VectorComputeLeg { compute_s, l2_s }
}

/// Price the DRAM leg of one vector operator. `forward` is the fraction
/// of its traffic served by the L2 instead of DRAM.
#[must_use]
pub fn vector_memory_leg(
    op: &VectorOp,
    device: &DeviceConfig,
    params: &SimParams,
    forward: f64,
) -> VectorMemoryLeg {
    let dt = u64::from(device.datatype().bytes());
    let bytes = op.bytes(dt);
    let dram_bytes = bytes * (1.0 - forward.clamp(0.0, 1.0));
    let dram_s =
        dram_bytes / params.effective_dram_bw(device.hbm().bandwidth_gb_s, dram_bytes);
    VectorMemoryLeg { dram_s, dram_bytes }
}

/// Price one vector operator: the composition of [`vector_compute_leg`]
/// and [`vector_memory_leg`] — the legs *are* the cost model, so the
/// lattice sweep engine and this per-op API cannot drift. `forward` is
/// the fraction of its traffic served by the L2 instead of DRAM.
#[must_use]
pub fn vector_cost(
    op: &VectorOp,
    device: &DeviceConfig,
    params: &SimParams,
    forward: f64,
) -> VectorCost {
    let compute = vector_compute_leg(op, device, params);
    let memory = vector_memory_leg(op, device, params, forward);
    VectorCost {
        compute_s: compute.compute_s,
        l2_s: compute.l2_s,
        dram_s: memory.dram_s,
        dram_bytes: memory.dram_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_llm::VectorKind;

    fn softmax(elements: u64) -> VectorOp {
        VectorOp { name: "softmax", kind: VectorKind::Softmax, elements }
    }

    #[test]
    fn large_softmax_is_dram_bound() {
        // Prefill-sized softmax: 3.2e9 elements.
        let op = softmax(3_221_225_472);
        let c = vector_cost(&op, &DeviceConfig::a100_like(), &SimParams::calibrated(), 0.0);
        assert!(c.dram_s > c.compute_s);
        assert!(c.dram_s > 1e-3, "multi-ms: {}", c.dram_s);
    }

    #[test]
    fn forwarded_small_op_avoids_dram() {
        let op = softmax(1_572_864); // decode-sized
        let c = vector_cost(&op, &DeviceConfig::a100_like(), &SimParams::calibrated(), 1.0);
        assert_eq!(c.dram_bytes, 0.0);
        assert!(c.time_s() < 50e-6, "fast: {}", c.time_s());
    }

    #[test]
    fn time_scales_linearly_with_elements_when_dram_bound() {
        let p = SimParams::calibrated();
        let d = DeviceConfig::a100_like();
        let c1 = vector_cost(&softmax(1 << 28), &d, &p, 0.0);
        let c2 = vector_cost(&softmax(1 << 29), &d, &p, 0.0);
        let ratio = c2.time_s() / c1.time_s();
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn memory_bandwidth_speeds_up_vector_ops() {
        let p = SimParams::calibrated();
        let slow = DeviceConfig::a100_like();
        let fast = slow.to_builder().hbm_bandwidth_tb_s(3.2).build().unwrap();
        let op = softmax(3_221_225_472);
        assert!(vector_cost(&op, &fast, &p, 0.0).time_s() < vector_cost(&op, &slow, &p, 0.0).time_s());
    }
}
