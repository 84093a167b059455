//! Design-space exploration under advanced computing sanctions.
//!
//! Builds the paper's parameter sweeps (Tables 3 and 5), solves each sweep
//! point's core count against a TPP ceiling (Eq. 1), evaluates every design
//! with the analytical simulator plus the area/cost models, and provides
//! the distribution statistics behind the architecture-first-indicator
//! analysis (Figures 11 and 12).
//!
//! One driver prices every sweep: the lattice engine
//! ([`DseRunner::run_report`], [`DseRunner::run_lattice`],
//! [`DseRunner::run`]) prices each distinct cost leg once, per
//! signature (the axis tuple the leg reads), into the runner's
//! persistent memo and reduces a grid point to a fused vector sum. Any point it cannot prove clean — and every point of a
//! sweep whose shared preconditions fail — is demoted to the per-point
//! evaluator, which prices one design against layer plans shared across
//! the runner. That evaluator also answers single designs
//! ([`DseRunner::try_evaluate`]), explicit configuration lists
//! ([`DseRunner::run_configs`]) and checkpointed sweeps
//! ([`DseRunner::run_report_resumable`]), which append one durable line
//! per point. Both are checked, bit for bit, against the naive
//! reference evaluator in `acs-verify`.
//!
//! # Example
//!
//! ```
//! use acs_dse::prelude::*;
//! use acs_llm::{ModelConfig, WorkloadConfig};
//!
//! // A small custom sweep at the October 2022 TPP ceiling.
//! let spec = SweepSpec {
//!     systolic_dims: vec![16],
//!     lanes_per_core: vec![2, 4],
//!     l1_kib: vec![192],
//!     l2_mib: vec![40],
//!     hbm_tb_s: vec![2.0],
//!     device_bw_gb_s: vec![600.0],
//! };
//! let runner = DseRunner::new(ModelConfig::gpt3_175b(), WorkloadConfig::paper_default());
//! let designs = runner.run(&spec, 4800.0);
//! assert_eq!(designs.len(), 2);
//! assert!(designs.iter().all(|d| d.tpp < 4800.0));
//! ```

pub mod checkpoint;
pub mod evaluate;
pub mod faultinject;
mod lattice;
pub mod packaged;
pub mod pareto;
pub mod report;
pub mod sensitivity;
pub mod stats;
pub mod sweeps;

pub use evaluate::{DseRunner, EvaluatedDesign, SweptParams};
pub use faultinject::{inject_faults, FaultClass};
pub use packaged::{run_packaged, PackagedDesign};
pub use pareto::pareto_front;
pub use report::{DesignFailure, SweepReport};
pub use sensitivity::{elasticities, Elasticity};
pub use stats::{narrowing_factor, Distribution};
pub use sweeps::{CandidateParams, SweepSpec};

/// Commonly used items.
pub mod prelude {
    pub use crate::evaluate::{DseRunner, EvaluatedDesign, SweptParams};
    pub use crate::pareto::pareto_front;
    pub use crate::report::{DesignFailure, SweepReport};
    pub use crate::stats::{narrowing_factor, Distribution};
    pub use crate::sweeps::{CandidateParams, SweepSpec};
}
