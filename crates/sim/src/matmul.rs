//! Systolic-array matmul cost model.
//!
//! The model mirrors the mechanisms LLMCompass captures:
//!
//! 1. **L1-driven tiling.** Each lane holds an activation panel of `m_t`
//!    rows, the current weight tile (double-buffered) and an FP32
//!    accumulator slice in its share of the core's local buffer. Larger
//!    L1 ⇒ taller panels ⇒ less fill/drain overhead per weight tile:
//!    `eff_fill = m_t / (m_t + DIMX + DIMY)`.
//! 2. **Padding.** Contraction and output dimensions that are not
//!    multiples of the array dimensions waste MAC slots.
//! 3. **Wave quantisation.** Work is scheduled in waves of
//!    `cores × lanes` tiles; a ragged final wave idles arrays.
//! 4. **L2 blocking.** When neither operand fits in the global buffer,
//!    one of them is re-streamed from DRAM per panel; the model picks the
//!    cheaper re-use direction.

use crate::params::SimParams;
use acs_hw::DeviceConfig;
use acs_llm::{MatmulKind, MatmulOp};

/// Cost components of one matmul on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatmulCost {
    /// Systolic-array busy time (s), including efficiency losses.
    pub compute_s: f64,
    /// Global-buffer port time (s).
    pub l2_s: f64,
    /// DRAM streaming time (s).
    pub dram_s: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
    /// Activation-panel rows per tile (the L1-driven `m_t`).
    pub m_tile: u64,
    /// Combined systolic efficiency (fill/drain × padding × waves).
    pub efficiency: f64,
}

impl MatmulCost {
    /// The operator's modelled latency: compute, L2 and DRAM phases
    /// overlap, so the op runs at the pace of the slowest.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.compute_s.max(self.l2_s).max(self.dram_s)
    }
}

/// Rows of activation panel a lane can hold, given its L1 share.
///
/// Capacity: `m_t · DIMX` input slice (dtype), `m_t · DIMY` FP32
/// accumulators, and a double-buffered `DIMX × DIMY` weight tile.
#[must_use]
pub fn l1_m_tile(device: &DeviceConfig, params: &SimParams) -> u64 {
    let dt = f64::from(device.datatype().bytes());
    let dx = f64::from(device.systolic().x);
    let dy = f64::from(device.systolic().y);
    let l1_lane = f64::from(device.l1_kib_per_core()) * 1024.0
        / f64::from(device.lanes_per_core())
        * params.l1_usable_fraction;
    let weight_tile = 2.0 * dx * dy * dt;
    let per_row = dx * dt + dy * 4.0;
    (((l1_lane - weight_tile) / per_row).floor() as i64).max(1) as u64
}

/// The on-chip half of a matmul's cost: systolic-array busy time plus
/// global-buffer port time. Reads only the device's *compute-side*
/// parameters (systolic dims, lanes, cores, L1, frequency, dtype) — never
/// L2 capacity or HBM bandwidth — so it can be memoized per compute
/// dependency key across a sweep (see `acs_sim::legs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatmulComputeLeg {
    /// Systolic-array busy time (s), including efficiency losses.
    pub compute_s: f64,
    /// Global-buffer port time (s).
    pub l2_s: f64,
    /// Activation-panel rows per tile (the L1-driven `m_t`).
    pub m_tile: u64,
    /// Combined systolic efficiency (fill/drain × padding × waves).
    pub efficiency: f64,
}

/// The off-chip half of a matmul's cost: DRAM traffic under L2 blocking.
/// Reads only the device's *memory-side* parameters (L2 capacity, HBM
/// bandwidth, dtype) plus the scheduler's forwarding fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatmulMemoryLeg {
    /// DRAM streaming time (s).
    pub dram_s: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
}

/// Price the compute/L2 leg of one matmul (mechanisms 1–3 of the module
/// docs, plus the global-buffer port model, which needs the leg's `m_t`).
#[must_use]
pub fn matmul_compute_leg(
    op: &MatmulOp,
    device: &DeviceConfig,
    params: &SimParams,
) -> MatmulComputeLeg {
    let dt = u64::from(device.datatype().bytes());
    let dx = u64::from(device.systolic().x);
    let dy = u64::from(device.systolic().y);
    let arrays =
        u64::from(device.core_count()) * u64::from(device.lanes_per_core());
    let freq = device.frequency_ghz() * 1e9;

    // Instances sharing a B operand (a grouped-query attention group) are
    // packed into the M dimension, as real GQA kernels do — the group's
    // query rows stream through the array against the shared K/V tile.
    let group = op.b_shared_by.max(1);
    let m_packed = op.m * group;
    let count_packed = op.count.div_ceil(group);

    // --- compute ---
    let m_cap = l1_m_tile(device, params);
    let n_tiles = op.n.div_ceil(dy);
    // Panels subdivide below the L1 cap when that is needed to occupy
    // every array (small batched ops on wide machines).
    let base_units = (count_packed * n_tiles).max(1);
    let splits_wanted = arrays.div_ceil(base_units);
    let m_t = m_cap.min(m_packed.div_ceil(splits_wanted)).max(1);
    let m_tiles = m_packed.div_ceil(m_t);
    let eff_fill = if m_tiles == 1 {
        // The whole activation panel is L1-resident: the double-buffered
        // weight slot lets consecutive weight tiles stream through the
        // array back-to-back (TPU-style seamless weight switching), so the
        // fill/drain bubble is paid once per n-sweep, not per tile.
        let stream = (m_packed * n_tiles) as f64;
        stream / (stream + (dx + dy) as f64)
    } else {
        // Panels swap: every weight tile pays the pipeline fill/drain.
        m_t as f64 / (m_t + dx + dy) as f64
    };
    let eff_k = op.k as f64 / (op.k.div_ceil(dx) * dx) as f64;
    let eff_n = op.n as f64 / (op.n.div_ceil(dy) * dy) as f64;
    let tiles = count_packed * n_tiles * m_tiles;
    let waves = tiles.div_ceil(arrays);
    let eff_par = tiles as f64 / (waves * arrays) as f64;
    let efficiency = eff_fill * eff_k * eff_n * eff_par;
    let peak_macs_per_s = (arrays * dx * dy) as f64 * freq;
    let compute_s = op.macs() as f64 / peak_macs_per_s / efficiency;

    // --- L2 port traffic ---
    let a_bytes = op.a_bytes(dt) as f64;
    let b_bytes = op.b_bytes(dt) as f64;
    let out_bytes = op.out_bytes(dt) as f64;
    let cores = u64::from(device.core_count());
    // Cores hold distinct activation panels and sweep the weights; the
    // weight stream repeats once per panel generation.
    let sweeps = (op.count * op.m).div_ceil(m_t * cores).max(1);
    let l2_bytes = match op.kind {
        MatmulKind::Weight => a_bytes + b_bytes * sweeps as f64 + out_bytes,
        MatmulKind::Activation => a_bytes + b_bytes + out_bytes,
    };
    let l2_bw = arrays as f64 * params.l2_bytes_per_lane_cycle * freq;
    let l2_s = l2_bytes / l2_bw;

    MatmulComputeLeg { compute_s, l2_s, m_tile: m_t, efficiency }
}

/// Price the DRAM leg of one matmul (mechanism 4 of the module docs).
///
/// `forward_in` / `forward_out` are the fractions of the `A` operand /
/// output that are forwarded through the L2 instead of touching DRAM
/// (producer–consumer locality, computed by the layer scheduler).
#[must_use]
pub fn matmul_memory_leg(
    op: &MatmulOp,
    device: &DeviceConfig,
    params: &SimParams,
    forward_in: f64,
    forward_out: f64,
) -> MatmulMemoryLeg {
    let dt = u64::from(device.datatype().bytes());
    let dtf = dt as f64;
    let a_bytes = op.a_bytes(dt) as f64;
    let b_bytes = op.b_bytes(dt) as f64;
    let out_bytes = op.out_bytes(dt) as f64;

    // --- DRAM traffic with L2 blocking ---
    let l2_use = f64::from(device.l2_mib()) * 1024.0 * 1024.0 * params.l2_usable_fraction;
    let forward_in = forward_in.clamp(0.0, 1.0);
    let forward_out = forward_out.clamp(0.0, 1.0);
    let a_first = a_bytes * (1.0 - forward_in);
    let out_dram = out_bytes * (1.0 - forward_out);
    let dram_bytes = match op.kind {
        MatmulKind::Activation => a_first + b_bytes + out_dram,
        MatmulKind::Weight => {
            if b_bytes <= l2_use || a_bytes <= l2_use {
                // One operand is L2-resident: everything streams once.
                a_first + b_bytes + out_dram
            } else {
                let half = l2_use / 2.0;
                let panel = (half / (op.k as f64 * dtf)).max(1.0);
                // Option 1: keep a weight panel resident, re-stream A.
                let a_rereads = (op.n as f64 / panel).ceil().max(1.0);
                let opt1 = a_first + a_bytes * (a_rereads - 1.0) + b_bytes;
                // Option 2: keep an activation panel resident, re-stream B.
                let b_rereads = ((op.count * op.m) as f64 / panel).ceil().max(1.0);
                let opt2 = a_first + b_bytes * b_rereads;
                opt1.min(opt2) + out_dram
            }
        }
    };
    let dram_s =
        dram_bytes / params.effective_dram_bw(device.hbm().bandwidth_gb_s, dram_bytes);

    MatmulMemoryLeg { dram_s, dram_bytes }
}

/// Price one matmul operator: the composition of
/// [`matmul_compute_leg`] and [`matmul_memory_leg`] — the legs *are* the
/// cost model, so the lattice sweep engine and this per-op API cannot
/// drift.
///
/// `forward_in` / `forward_out` are the fractions of the `A` operand /
/// output that are forwarded through the L2 instead of touching DRAM
/// (producer–consumer locality, computed by the layer scheduler).
#[must_use]
pub fn matmul_cost(
    op: &MatmulOp,
    device: &DeviceConfig,
    params: &SimParams,
    forward_in: f64,
    forward_out: f64,
) -> MatmulCost {
    let compute = matmul_compute_leg(op, device, params);
    let memory = matmul_memory_leg(op, device, params, forward_in, forward_out);
    MatmulCost {
        compute_s: compute.compute_s,
        l2_s: compute.l2_s,
        dram_s: memory.dram_s,
        dram_bytes: memory.dram_bytes,
        m_tile: compute.m_tile,
        efficiency: compute.efficiency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_hw::SystolicDims;

    fn a100() -> DeviceConfig {
        DeviceConfig::a100_like()
    }

    fn weight_mm(m: u64, n: u64, k: u64) -> MatmulOp {
        MatmulOp { name: "w", m, n, k, count: 1, b_shared_by: 1, kind: MatmulKind::Weight }
    }

    #[test]
    fn a100_l1_allows_panels_of_a_few_hundred_rows() {
        let m_t = l1_m_tile(&a100(), &SimParams::calibrated());
        assert!(m_t > 150 && m_t < 400, "m_t = {m_t}");
    }

    #[test]
    fn small_l1_shrinks_panels_and_efficiency() {
        let small = a100().to_builder().l1_kib_per_core(32).build().unwrap();
        let p = SimParams::calibrated();
        let op = weight_mm(65536, 12288, 12288);
        let big_cost = matmul_cost(&op, &a100(), &p, 0.0, 0.0);
        let small_cost = matmul_cost(&op, &small, &p, 0.0, 0.0);
        assert!(small_cost.m_tile < big_cost.m_tile);
        assert!(small_cost.efficiency < big_cost.efficiency);
        assert!(small_cost.compute_s > big_cost.compute_s);
        // §5.3 anchor: 32 KiB L1 costs tens of percent of prefill speed.
        let ratio = small_cost.compute_s / big_cost.compute_s;
        assert!(ratio > 1.2 && ratio < 2.2, "ratio = {ratio}");
    }

    #[test]
    fn large_prefill_matmul_is_compute_bound_on_a100() {
        let op = weight_mm(65536, 12288, 12288);
        let c = matmul_cost(&op, &a100(), &SimParams::calibrated(), 0.0, 0.0);
        assert!(c.compute_s > c.dram_s, "compute {} dram {}", c.compute_s, c.dram_s);
        assert!(c.compute_s > c.l2_s);
        // MFU-style efficiency should be respectable.
        assert!(c.efficiency > 0.6, "eff = {}", c.efficiency);
    }

    #[test]
    fn decode_weight_matmul_is_dram_bound() {
        let op = weight_mm(32, 12288, 12288);
        let c = matmul_cost(&op, &a100(), &SimParams::calibrated(), 1.0, 1.0);
        assert!(c.dram_s > c.compute_s, "dram {} compute {}", c.dram_s, c.compute_s);
        // Streams the 302 MB weight roughly once.
        let weight_bytes = (12288u64 * 12288 * 2) as f64;
        assert!(c.dram_bytes < 1.1 * weight_bytes);
        assert!(c.dram_bytes > 0.9 * weight_bytes);
    }

    #[test]
    fn forwarding_removes_activation_traffic() {
        let op = weight_mm(32, 12288, 12288);
        let p = SimParams::calibrated();
        let none = matmul_cost(&op, &a100(), &p, 0.0, 0.0);
        let full = matmul_cost(&op, &a100(), &p, 1.0, 1.0);
        assert!(full.dram_bytes < none.dram_bytes);
    }

    #[test]
    fn bigger_arrays_pay_more_fill_drain() {
        let p = SimParams::calibrated();
        let op = weight_mm(65536, 12288, 12288);
        let d16 = a100();
        let d32 = a100()
            .to_builder()
            .systolic(SystolicDims::square(32))
            .core_count(27) // keep MAC count equal: 27*4*1024 = 108*4*256
            .build()
            .unwrap();
        let c16 = matmul_cost(&op, &d16, &p, 0.0, 0.0);
        let c32 = matmul_cost(&op, &d32, &p, 0.0, 0.0);
        assert!(
            c32.compute_s > c16.compute_s,
            "32x32 should be slower at equal TPP: {} vs {}",
            c32.compute_s,
            c16.compute_s
        );
    }

    #[test]
    fn padding_penalises_odd_dimensions() {
        let p = SimParams::calibrated();
        let aligned = weight_mm(4096, 4096, 4096);
        let ragged = weight_mm(4096, 4097, 4097);
        let ca = matmul_cost(&aligned, &a100(), &p, 0.0, 0.0);
        let cr = matmul_cost(&ragged, &a100(), &p, 0.0, 0.0);
        // Nearly identical work, strictly lower efficiency.
        assert!(cr.efficiency < ca.efficiency);
    }

    #[test]
    fn bigger_l2_reduces_dram_traffic_for_blocked_matmuls() {
        let p = SimParams::calibrated();
        let op = weight_mm(65536, 12288, 12288);
        let small_l2 = a100().to_builder().l2_mib(8).build().unwrap();
        let big_l2 = a100().to_builder().l2_mib(80).build().unwrap();
        let cs = matmul_cost(&op, &small_l2, &p, 0.0, 0.0);
        let cb = matmul_cost(&op, &big_l2, &p, 0.0, 0.0);
        assert!(cb.dram_bytes < cs.dram_bytes);
    }

    #[test]
    fn gemv_shaped_decode_attention_has_low_efficiency() {
        let op = MatmulOp {
            name: "attn",
            m: 1,
            n: 2048,
            k: 128,
            count: 768,
            b_shared_by: 1,
            kind: MatmulKind::Activation,
        };
        let c = matmul_cost(&op, &a100(), &SimParams::calibrated(), 1.0, 1.0);
        // The resident-panel seamless stream keeps decode attention from
        // becoming compute-bound: the KV-cache read dominates.
        assert!(c.dram_s > c.compute_s, "dram {} compute {}", c.dram_s, c.compute_s);
        // And the op stays tiny in absolute terms.
        assert!(c.time_s() < 1e-3);
    }

    #[test]
    fn time_is_max_of_components() {
        let op = weight_mm(1024, 1024, 1024);
        let c = matmul_cost(&op, &a100(), &SimParams::calibrated(), 0.0, 0.0);
        assert!((c.time_s() - c.compute_s.max(c.l2_s).max(c.dram_s)).abs() < 1e-18);
    }
}
