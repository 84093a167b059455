//! Sweep specifications (the paper's Tables 3 and 5).

use acs_errors::AcsError;
use acs_hw::tpp::cores_for_tpp;
use acs_hw::{DataType, DeviceConfig, SystolicDims};
use std::fmt;

/// The raw, *pre-validation* parameters of one sweep point.
///
/// A [`DeviceConfig`] is valid by construction, so a candidate that holds
/// pathological values (zero bandwidth, NaN, overflow-scale counts) can
/// only exist in this form. The sweep pipeline carries candidates, not
/// configs: validation happens inside the fault-isolated evaluation of
/// each point, and a bad candidate becomes a structured
/// [`crate::DesignFailure`] instead of a panic or a skipped row.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateParams {
    /// Design name (unique within a sweep; checkpoints key on it).
    pub name: String,
    /// Square systolic dimension.
    pub systolic_dim: u32,
    /// Lanes per core.
    pub lanes_per_core: u32,
    /// Core count.
    pub core_count: u32,
    /// L1 per core in KiB.
    pub l1_kib: u32,
    /// L2 in MiB.
    pub l2_mib: u32,
    /// HBM bandwidth in TB/s.
    pub hbm_tb_s: f64,
    /// Aggregate bidirectional device bandwidth in GB/s.
    pub device_bw_gb_s: f64,
}

impl CandidateParams {
    /// Validate and materialise the device this candidate describes.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] for any out-of-domain field —
    /// this is the boundary where injected faults surface as typed errors.
    pub fn build(&self) -> Result<DeviceConfig, AcsError> {
        let mut b = DeviceConfig::builder();
        b.name(self.name.clone())
            .core_count(self.core_count)
            .lanes_per_core(self.lanes_per_core)
            .systolic(SystolicDims::square(self.systolic_dim))
            .l1_kib_per_core(self.l1_kib)
            .l2_mib(self.l2_mib)
            .hbm_bandwidth_tb_s(self.hbm_tb_s)
            .device_bandwidth_gb_s(self.device_bw_gb_s);
        Ok(b.build()?)
    }
}

impl fmt::Display for CandidateParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}x{} x {}l x {}c, L1 {}K, L2 {}M, {} TB/s, {} GB/s]",
            self.name,
            self.systolic_dim,
            self.systolic_dim,
            self.lanes_per_core,
            self.core_count,
            self.l1_kib,
            self.l2_mib,
            self.hbm_tb_s,
            self.device_bw_gb_s
        )
    }
}

/// The architectural parameters a DSE sweeps. The cartesian product of all
/// lists, with the core count solved per point to sit just under a TPP
/// ceiling, forms the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Square systolic-array dimensions to try.
    pub systolic_dims: Vec<u32>,
    /// Lanes per core.
    pub lanes_per_core: Vec<u32>,
    /// Private L1 per core in KiB.
    pub l1_kib: Vec<u32>,
    /// Shared L2 in MiB.
    pub l2_mib: Vec<u32>,
    /// HBM bandwidth in TB/s.
    pub hbm_tb_s: Vec<f64>,
    /// Aggregate bidirectional device bandwidth in GB/s.
    pub device_bw_gb_s: Vec<f64>,
}

impl SweepSpec {
    /// Table 3's sweep with device bandwidth pinned at 600 GB/s — the
    /// October 2022 DSE of Figure 6 (512 designs at one TPP target).
    #[must_use]
    pub fn table3_fig6() -> Self {
        SweepSpec {
            systolic_dims: vec![16, 32],
            lanes_per_core: vec![1, 2, 4, 8],
            l1_kib: vec![192, 256, 512, 1024],
            l2_mib: vec![32, 48, 64, 80],
            hbm_tb_s: vec![2.0, 2.4, 2.8, 3.2],
            device_bw_gb_s: vec![600.0],
        }
    }

    /// Table 3's sweep with device bandwidth ∈ {500, 700, 900} GB/s — the
    /// October 2023 DSE of Figure 7 (1536 designs per TPP target).
    #[must_use]
    pub fn table3_fig7() -> Self {
        SweepSpec { device_bw_gb_s: vec![500.0, 700.0, 900.0], ..Self::table3_fig6() }
    }

    /// Table 5's down-scaled sweep for the restriction study of Figure 12
    /// (2304 configurations).
    #[must_use]
    pub fn table5() -> Self {
        SweepSpec {
            systolic_dims: vec![4, 8, 16],
            lanes_per_core: vec![1, 2, 4, 8],
            l1_kib: vec![32, 64, 128, 192],
            l2_mib: vec![8, 16, 32, 40],
            hbm_tb_s: vec![0.8, 1.2, 1.6, 2.0],
            device_bw_gb_s: vec![400.0, 500.0, 600.0],
        }
    }

    /// A 4096-point synthetic design fleet for fleet-scale policy
    /// what-ifs (`acs-whatif`): four values on every axis, spanning the
    /// Table 3 and Table 5 ranges so the fleet mixes designs on both
    /// sides of the published thresholds. Every (dim, lanes) pair is
    /// feasible at the 4800-TPP operating point, so the fleet
    /// materialises in full.
    #[must_use]
    pub fn synthetic_fleet() -> Self {
        SweepSpec {
            systolic_dims: vec![8, 16, 24, 32],
            lanes_per_core: vec![1, 2, 4, 8],
            l1_kib: vec![64, 192, 512, 1024],
            l2_mib: vec![16, 32, 48, 80],
            hbm_tb_s: vec![0.8, 1.6, 2.4, 3.2],
            device_bw_gb_s: vec![400.0, 600.0, 800.0, 1000.0],
        }
    }

    /// Number of sweep points (before TPP feasibility filtering),
    /// saturating at `usize::MAX`: a product of request-sized axis
    /// lengths must never wrap to a count that passes a ceiling.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        [
            self.systolic_dims.len(),
            self.lanes_per_core.len(),
            self.l1_kib.len(),
            self.l2_mib.len(),
            self.hbm_tb_s.len(),
            self.device_bw_gb_s.len(),
        ]
        .into_iter()
        .fold(1, usize::saturating_mul)
    }

    /// Materialise the sweep as raw candidates, core counts solved to sit
    /// just under `tpp_target` at the A100's 1.41 GHz FP16 operating
    /// point (§3.3). Sweep points for which no core count fits (huge
    /// arrays against a small budget) are skipped; every other point is
    /// emitted *unvalidated* — validation happens per point inside the
    /// fault-isolated evaluation, so one bad list entry cannot take down
    /// a sweep.
    ///
    /// Ordering is the deterministic row-major cartesian order of the
    /// spec's lists; checkpoints rely on it.
    ///
    /// Each name is
    /// `dse-{tpp_target:.0}-{dim}x{dim}-{lanes}l-{l1}k-{l2}m-{hbm}t-{bw:.0}g`.
    /// Float formatting dominates a per-point `format!` of it, so each
    /// axis value's fragment is rendered once per sweep and a point's
    /// name is the concatenation of its fragments.
    #[must_use]
    pub fn candidates(&self, tpp_target: f64) -> Vec<CandidateParams> {
        let prefix = format!("dse-{tpp_target:.0}-");
        let l1_names: Vec<String> = self.l1_kib.iter().map(|l1| format!("{l1}k-")).collect();
        let l2_names: Vec<String> = self.l2_mib.iter().map(|l2| format!("{l2}m-")).collect();
        let hbm_names: Vec<String> = self.hbm_tb_s.iter().map(|hbm| format!("{hbm}t-")).collect();
        let bw_names: Vec<String> =
            self.device_bw_gb_s.iter().map(|bw| format!("{bw:.0}g")).collect();
        let mut out = Vec::with_capacity(self.cardinality());
        for &dim in &self.systolic_dims {
            for &lanes in &self.lanes_per_core {
                let dims = SystolicDims::square(dim);
                let Ok(cores) = cores_for_tpp(tpp_target, 1.41, DataType::Fp16, dims, lanes)
                else {
                    continue;
                };
                let core_name = format!("{prefix}{dim}x{dim}-{lanes}l-");
                for (&l1, l1_name) in self.l1_kib.iter().zip(&l1_names) {
                    for (&l2, l2_name) in self.l2_mib.iter().zip(&l2_names) {
                        for (&hbm, hbm_name) in self.hbm_tb_s.iter().zip(&hbm_names) {
                            for (&dev_bw, bw_name) in self.device_bw_gb_s.iter().zip(&bw_names) {
                                out.push(CandidateParams {
                                    // `concat` allocates the exact length.
                                    name: [&core_name, l1_name, l2_name, hbm_name, bw_name]
                                        .map(String::as_str)
                                        .concat(),
                                    systolic_dim: dim,
                                    lanes_per_core: lanes,
                                    core_count: cores,
                                    l1_kib: l1,
                                    l2_mib: l2,
                                    hbm_tb_s: hbm,
                                    device_bw_gb_s: dev_bw,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Materialise validated device configurations (the historical API).
    /// Candidates that fail validation are dropped — for a failure ledger
    /// instead of silent drops, use [`SweepSpec::candidates`] with
    /// [`crate::DseRunner::run_report`].
    #[must_use]
    pub fn configs(&self, tpp_target: f64) -> Vec<DeviceConfig> {
        self.candidates(tpp_target).iter().filter_map(|c| c.build().ok()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_saturates_instead_of_wrapping() {
        // 2048^6 = 2^66 wraps to 0 in a plain product.
        let wide = vec![1; 2048];
        let spec = SweepSpec {
            systolic_dims: wide.clone(),
            lanes_per_core: wide.clone(),
            l1_kib: wide.clone(),
            l2_mib: wide,
            hbm_tb_s: vec![1.0; 2048],
            device_bw_gb_s: vec![1.0; 2048],
        };
        assert_eq!(spec.cardinality(), usize::MAX);
        assert_eq!(SweepSpec { l1_kib: Vec::new(), ..spec }.cardinality(), 0);
    }

    #[test]
    fn table3_cardinalities_match_paper() {
        assert_eq!(SweepSpec::table3_fig6().cardinality(), 512);
        assert_eq!(SweepSpec::table3_fig7().cardinality(), 1536);
        assert_eq!(SweepSpec::table5().cardinality(), 2304);
    }

    #[test]
    fn synthetic_fleet_materialises_in_full() {
        let spec = SweepSpec::synthetic_fleet();
        assert_eq!(spec.cardinality(), 4096);
        assert_eq!(spec.candidates(4800.0).len(), 4096);
    }

    /// The names `candidates` emits, built the way it once built them:
    /// one `format!` per feasible point.
    fn formatted_names(spec: &SweepSpec, tpp_target: f64) -> Vec<String> {
        let mut out = Vec::new();
        for &dim in &spec.systolic_dims {
            for &lanes in &spec.lanes_per_core {
                let dims = SystolicDims::square(dim);
                if cores_for_tpp(tpp_target, 1.41, DataType::Fp16, dims, lanes).is_err() {
                    continue;
                }
                for &l1 in &spec.l1_kib {
                    for &l2 in &spec.l2_mib {
                        for &hbm in &spec.hbm_tb_s {
                            for &dev_bw in &spec.device_bw_gb_s {
                                out.push(format!(
                                    "dse-{tpp_target:.0}-{dim}x{dim}-{lanes}l-{l1}k-{l2}m-{hbm}t-{dev_bw:.0}g"
                                ));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn fragment_names_equal_the_per_point_format() {
        // Awkward values: half-way TPP targets and bandwidths under
        // `:.0`, and HBM values whose shortest round-trip form is long.
        // At these targets the 128x128 array fits one lane but not
        // eight, so one (dim, lanes) pair is skipped.
        let awkward = SweepSpec {
            systolic_dims: vec![16, 128],
            lanes_per_core: vec![1, 8],
            l1_kib: vec![192],
            l2_mib: vec![40, 80],
            hbm_tb_s: vec![0.1 + 0.2, 1e-3, 2.0],
            device_bw_gb_s: vec![599.5, 600.0],
        };
        let cases = [
            (SweepSpec::table3_fig6(), 4800.0),
            (SweepSpec::table3_fig7(), 4800.0),
            (SweepSpec::table3_fig7(), 2400.0),
            (SweepSpec::table5(), 4800.0),
            (SweepSpec::synthetic_fleet(), 4800.0),
            (SweepSpec::synthetic_fleet(), 1600.0),
            (awkward.clone(), 2400.5),
            (awkward.clone(), 1599.5),
        ];
        for (spec, tpp_target) in &cases {
            let names: Vec<String> =
                spec.candidates(*tpp_target).into_iter().map(|c| c.name).collect();
            assert!(!names.is_empty(), "{tpp_target}");
            assert_eq!(names, formatted_names(spec, *tpp_target), "{tpp_target}");
        }
        let partial = awkward.candidates(2400.5);
        assert!(partial.len() < awkward.cardinality(), "some (dim, lanes) pair is infeasible");
        assert!(partial[0].name.starts_with("dse-2400-16x16-1l-192k-40m-0.30000000000000004t-"));
    }

    #[test]
    fn all_generated_configs_sit_under_the_ceiling() {
        for cfg in SweepSpec::table3_fig6().configs(4800.0) {
            assert!(cfg.tpp().0 < 4800.0, "{}: {}", cfg.name(), cfg.tpp());
            // And close to it (within one core's worth of TPP).
            let per_core = cfg.tpp().0 / f64::from(cfg.core_count());
            assert!(cfg.tpp().0 + per_core >= 4800.0 - 1e-6, "{}", cfg.name());
        }
    }

    #[test]
    fn full_sweep_materialises_when_feasible() {
        let spec = SweepSpec::table3_fig6();
        assert_eq!(spec.configs(4800.0).len(), 512);
        assert_eq!(SweepSpec::table3_fig7().configs(2400.0).len(), 1536);
    }

    #[test]
    fn infeasible_points_are_skipped() {
        // 1600 TPP cannot host 32×32 arrays with 8 lanes? 32*32*8 = 8192
        // MACs/core; 1600 TPP allows 35,460 — feasible. Use a tiny budget.
        let spec = SweepSpec {
            systolic_dims: vec![128],
            lanes_per_core: vec![8],
            l1_kib: vec![192],
            l2_mib: vec![40],
            hbm_tb_s: vec![2.0],
            device_bw_gb_s: vec![600.0],
        };
        assert!(spec.configs(100.0).is_empty());
    }

    #[test]
    fn candidates_and_configs_agree_one_to_one() {
        let spec = SweepSpec::table3_fig6();
        let cands = spec.candidates(4800.0);
        let cfgs = spec.configs(4800.0);
        assert_eq!(cands.len(), 512);
        assert_eq!(cands.len(), cfgs.len());
        for (c, cfg) in cands.iter().zip(&cfgs) {
            assert_eq!(c.name, cfg.name());
            assert_eq!(c.core_count, cfg.core_count());
            assert_eq!(c.build().unwrap(), *cfg);
        }
    }

    #[test]
    fn pathological_candidates_build_to_typed_errors() {
        let mut c = SweepSpec::table3_fig6().candidates(4800.0).remove(0);
        c.hbm_tb_s = 0.0;
        assert_eq!(c.build().unwrap_err().kind(), "invalid_config");
        c.hbm_tb_s = f64::NAN;
        assert_eq!(c.build().unwrap_err().kind(), "invalid_config");
        c.hbm_tb_s = 2.0;
        c.lanes_per_core = 0;
        assert_eq!(c.build().unwrap_err().kind(), "invalid_config");
    }

    #[test]
    fn paper_4800_16x16_4lane_point_has_103_cores() {
        let spec = SweepSpec {
            systolic_dims: vec![16],
            lanes_per_core: vec![4],
            l1_kib: vec![192],
            l2_mib: vec![40],
            hbm_tb_s: vec![2.0],
            device_bw_gb_s: vec![600.0],
        };
        let cfgs = spec.configs(4800.0);
        assert_eq!(cfgs.len(), 1);
        assert_eq!(cfgs[0].core_count(), 103);
    }
}
