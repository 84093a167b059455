//! Chip architectures under advanced computing sanctions — the paper's
//! primary contribution, built on the workspace's substrates.
//!
//! * [`baseline`] — the modeled NVIDIA A100 reference point every result
//!   is compared against (simulated latencies, GA100 die area).
//! * [`optimize`] — sanction-compliant design optimisation: search the
//!   Table-3 sweeps for the fastest manufacturable designs under the
//!   October 2022 / October 2023 rules (§4.2, §4.3).
//! * [`indicators`] — architecture-first performance indicators: how much
//!   fixing one architectural parameter narrows the latency distribution
//!   of a TPP-capped design space (§5.3, Figures 11 and 12).
//! * [`classification`] — marketing-based vs architecture-based device
//!   classification (§5.2, Figures 9 and 10).
//! * [`externality`] — the economic-externality accounting of §4.4/§5.1:
//!   compliance cost overheads and a textbook deadweight-loss model.
//!
//! # Example
//!
//! ```no_run
//! use acs_core::prelude::*;
//! use acs_llm::{ModelConfig, WorkloadConfig};
//!
//! // §4.2: optimise an October-2022-compliant design for GPT-3.
//! let report = optimize_oct2022(&ModelConfig::gpt3_175b(), &WorkloadConfig::paper_default());
//! println!(
//!     "best TBT improves {:.1}% over the modeled A100",
//!     report.best_tbt_improvement() * 100.0
//! );
//! ```

pub mod baseline;
pub mod classification;
pub mod dossier;
pub mod externality;
pub mod fleet;
pub mod indicators;
pub mod optimize;
pub mod policy_design;

pub use baseline::A100Baseline;
pub use classification::{
    architectural_consistency, marketing_consistency, ArchClassifier, ConsistencyReport,
};
pub use dossier::compliance_dossier;
pub use fleet::{monoculture_capacity, plan_fleet, FleetOption, FleetPlan};
pub use externality::{deadweight_loss, ComplianceOverhead, DesignFigures};
pub use indicators::{
    indicator_report, indicator_report_of, suggest_indicator, FixedParam, IndicatorColumn,
    LatencyMetric,
};
pub use optimize::{optimize_oct2022, optimize_oct2023, OptimizationReport};
pub use policy_design::{design_policies, evaluate_policy, PolicyCandidate, PolicyOutcome};

/// Commonly used items.
pub mod prelude {
    pub use crate::baseline::A100Baseline;
    pub use crate::classification::{
        architectural_consistency, marketing_consistency, ArchClassifier, ConsistencyReport,
    };
    pub use crate::dossier::compliance_dossier;
    pub use crate::externality::{deadweight_loss, ComplianceOverhead};
    pub use crate::indicators::{
        indicator_report, suggest_indicator, FixedParam, IndicatorColumn, LatencyMetric,
    };
    pub use crate::optimize::{optimize_oct2022, optimize_oct2023, OptimizationReport};
    pub use crate::policy_design::{
        design_policies, evaluate_policy, PolicyCandidate, PolicyOutcome,
    };
}
