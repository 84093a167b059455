//! Economic-externality accounting (§2.4, §4.4, §5.1).
//!
//! Two tools:
//!
//! * [`ComplianceOverhead`] — the Table-4 comparison: what complying with
//!   the performance-density floor costs in silicon (area, raw die cost,
//!   yielded cost) relative to an unconstrained design of equal
//!   performance.
//! * [`deadweight_loss`] — the textbook linear supply/demand deadweight
//!   loss of a supply restriction, quantifying the "market distortion"
//!   framing of §2.4. This is an illustrative microeconomic model, not an
//!   empirical market study.

use acs_dse::EvaluatedDesign;

/// Relative cost of regulatory compliance between two designs of similar
/// performance (Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplianceOverhead {
    /// Compliant area / non-compliant area.
    pub area_ratio: f64,
    /// Compliant raw die cost / non-compliant raw die cost.
    pub die_cost_ratio: f64,
    /// Compliant yielded (good-die) cost ratio.
    pub good_die_cost_ratio: f64,
    /// Compliant TTFT / non-compliant TTFT (≈ 1 when performance parity).
    pub ttft_ratio: f64,
    /// Compliant TBT / non-compliant TBT.
    pub tbt_ratio: f64,
}

impl ComplianceOverhead {
    /// Compare a PD-compliant design against a non-compliant one.
    #[must_use]
    pub fn between(compliant: &EvaluatedDesign, non_compliant: &EvaluatedDesign) -> Self {
        Self::between_figures(&DesignFigures::of(compliant), &DesignFigures::of(non_compliant))
    }

    /// [`ComplianceOverhead::between`] on the figures alone, for callers
    /// that keep a design's figures without the design.
    #[must_use]
    pub fn between_figures(compliant: &DesignFigures, non_compliant: &DesignFigures) -> Self {
        ComplianceOverhead {
            area_ratio: compliant.die_area_mm2 / non_compliant.die_area_mm2,
            die_cost_ratio: compliant.die_cost_usd / non_compliant.die_cost_usd,
            good_die_cost_ratio: compliant.good_die_cost_usd / non_compliant.good_die_cost_usd,
            ttft_ratio: compliant.ttft_s / non_compliant.ttft_s,
            tbt_ratio: compliant.tbt_s / non_compliant.tbt_s,
        }
    }
}

/// The five figures of a design a compliance comparison reads: silicon
/// area and cost, and the two latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignFigures {
    /// Modelled die area in mm².
    pub die_area_mm2: f64,
    /// Raw silicon die cost in USD.
    pub die_cost_usd: f64,
    /// Yield-adjusted cost per good die in USD.
    pub good_die_cost_usd: f64,
    /// Per-layer prefill latency in seconds (TTFT).
    pub ttft_s: f64,
    /// Per-layer, per-token decode latency in seconds (TBT).
    pub tbt_s: f64,
}

impl DesignFigures {
    /// The figures of an evaluated design.
    #[must_use]
    pub fn of(design: &EvaluatedDesign) -> Self {
        DesignFigures {
            die_area_mm2: design.die_area_mm2,
            die_cost_usd: design.die_cost_usd,
            good_die_cost_usd: design.good_die_cost_usd,
            ttft_s: design.ttft_s,
            tbt_s: design.tbt_s,
        }
    }
}

/// Deadweight loss of a quantity restriction under linear supply/demand.
///
/// A market clears at quantity `q0` and price `p0`. A regulation caps the
/// tradable quantity at `(1 − restriction) · q0`. With linear demand of
/// price elasticity `demand_elasticity` (negative) and linear supply of
/// elasticity `supply_elasticity` (positive) around the equilibrium, the
/// lost surplus is the usual triangle
/// `DWL = ½ · Δq · (p_demand(q) − p_supply(q))`.
///
/// Returns the loss in the same units as `p0 · q0`. Degenerate inputs
/// (non-positive `q0`/`p0`, restriction outside `[0, 1]`, elasticities of
/// the wrong sign) return 0.
#[must_use]
pub fn deadweight_loss(
    q0: f64,
    p0: f64,
    restriction: f64,
    demand_elasticity: f64,
    supply_elasticity: f64,
) -> f64 {
    if q0 <= 0.0
        || p0 <= 0.0
        || !(0.0..=1.0).contains(&restriction)
        || demand_elasticity >= 0.0
        || supply_elasticity <= 0.0
    {
        return 0.0;
    }
    let dq = restriction * q0;
    // Inverse linear curves through (q0, p0):
    //   p_demand(q) = p0 + (q − q0) / (ε_d · q0 / p0)
    //   p_supply(q) = p0 + (q − q0) / (ε_s · q0 / p0)
    let q = q0 - dq;
    let p_demand = p0 + (q - q0) * p0 / (demand_elasticity * q0);
    let p_supply = p0 + (q - q0) * p0 / (supply_elasticity * q0);
    0.5 * dq * (p_demand - p_supply).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_dse::{DseRunner, SweepSpec};
    use acs_llm::{ModelConfig, WorkloadConfig};

    #[test]
    fn table4_style_overhead_shows_compliance_premium() {
        // Rebuild the Table-4 pair: 2400-TPP, 16×16, 2 lanes, 3.2 TB/s;
        // compliant = big caches (1 MiB L1 / 48 MiB L2), non-compliant =
        // A100-like caches (192 KiB / 32 MiB).
        let spec = SweepSpec {
            systolic_dims: vec![16],
            lanes_per_core: vec![2],
            l1_kib: vec![192, 1024],
            l2_mib: vec![32, 48],
            hbm_tb_s: vec![3.2],
            device_bw_gb_s: vec![600.0],
        };
        let designs = DseRunner::new(ModelConfig::gpt3_175b(), WorkloadConfig::paper_default())
            .run(&spec, 2400.0);
        let compliant = designs
            .iter()
            .find(|d| d.params.l1_kib == 1024 && d.params.l2_mib == 48)
            .unwrap();
        let non = designs
            .iter()
            .find(|d| d.params.l1_kib == 192 && d.params.l2_mib == 32)
            .unwrap();
        assert!(compliant.pd_unregulated_2023);
        assert!(!non.pd_unregulated_2023);

        let o = ComplianceOverhead::between(compliant, non);
        // Paper: 44% larger, 52.3% higher silicon cost, ~2x good-die cost,
        // with near-identical performance.
        assert!(o.area_ratio > 1.3 && o.area_ratio < 1.6, "area ratio = {}", o.area_ratio);
        assert!(o.die_cost_ratio > 1.35 && o.die_cost_ratio < 1.75, "cost = {}", o.die_cost_ratio);
        assert!(o.good_die_cost_ratio > 1.7 && o.good_die_cost_ratio < 2.4);
        assert!(o.ttft_ratio > 0.9 && o.ttft_ratio < 1.1, "ttft ratio = {}", o.ttft_ratio);
        assert!(o.tbt_ratio > 0.9 && o.tbt_ratio < 1.1, "tbt ratio = {}", o.tbt_ratio);
    }

    #[test]
    fn deadweight_loss_grows_quadratically_with_restriction() {
        let small = deadweight_loss(1e6, 10_000.0, 0.1, -1.0, 1.0);
        let large = deadweight_loss(1e6, 10_000.0, 0.2, -1.0, 1.0);
        assert!(small > 0.0);
        assert!((large / small - 4.0).abs() < 1e-9, "linear curves => quadratic DWL");
    }

    #[test]
    fn deadweight_loss_handles_degenerate_inputs() {
        assert_eq!(deadweight_loss(0.0, 10.0, 0.1, -1.0, 1.0), 0.0);
        assert_eq!(deadweight_loss(10.0, 10.0, 1.5, -1.0, 1.0), 0.0);
        assert_eq!(deadweight_loss(10.0, 10.0, 0.1, 1.0, 1.0), 0.0);
        assert_eq!(deadweight_loss(10.0, 10.0, 0.0, -1.0, 1.0), 0.0);
    }

    #[test]
    fn inelastic_demand_raises_the_loss() {
        // Chips have few substitutes: the less elastic the demand, the
        // larger the surplus destroyed by the same restriction.
        let elastic = deadweight_loss(1e6, 10_000.0, 0.2, -2.0, 1.0);
        let inelastic = deadweight_loss(1e6, 10_000.0, 0.2, -0.5, 1.0);
        assert!(inelastic > elastic);
    }
}
