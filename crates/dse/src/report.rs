//! Fault-isolated sweep results: successes plus a structured failure
//! ledger.
//!
//! A thousand-point sweep must not die because one design point panics or
//! trips a numeric invariant. [`crate::DseRunner::run_report`] contains
//! every point's evaluation with `std::panic::catch_unwind` and collects
//! the outcome of each into a [`SweepReport`]: evaluated designs in
//! deterministic sweep order, and one [`DesignFailure`] per bad point,
//! carrying the typed [`AcsError`] that explains it.

use crate::evaluate::EvaluatedDesign;
use acs_errors::AcsError;
use std::collections::BTreeMap;
use std::fmt;

/// One design point that could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignFailure {
    /// Position in the sweep's candidate list (deterministic ordering;
    /// checkpoints key on it).
    pub index: usize,
    /// The candidate's name/parameter summary.
    pub params: String,
    /// Why the point failed.
    pub reason: AcsError,
}

impl DesignFailure {
    /// Stable tag of the failure's error variant.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.reason.kind()
    }
}

impl fmt::Display for DesignFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}: {}", self.index, self.params, self.reason)
    }
}

/// The outcome of a fault-isolated sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepReport {
    /// Successfully evaluated designs with their sweep indices, in
    /// ascending index order.
    pub designs: Vec<(usize, EvaluatedDesign)>,
    /// Failed points in ascending index order.
    pub failures: Vec<DesignFailure>,
}

impl SweepReport {
    /// Total points covered (successes + failures).
    #[must_use]
    pub fn total(&self) -> usize {
        self.designs.len() + self.failures.len()
    }

    /// The evaluated designs without their indices, in sweep order.
    pub fn successes(&self) -> impl Iterator<Item = &EvaluatedDesign> {
        self.designs.iter().map(|(_, d)| d)
    }

    /// Failure counts grouped by error kind (deterministic order).
    #[must_use]
    pub fn failure_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.failures {
            *counts.entry(f.kind()).or_insert(0) += 1;
        }
        counts
    }

    /// One-line summary for logs: `"1037 ok, 43 failed (invalid_config: 31, …)"`.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!("{} ok, {} failed", self.designs.len(), self.failures.len());
        if !self.failures.is_empty() {
            let parts: Vec<String> = self
                .failure_counts()
                .iter()
                .map(|(kind, n)| format!("{kind}: {n}"))
                .collect();
            s.push_str(&format!(" ({})", parts.join(", ")));
        }
        s
    }

    /// Sort both ledgers by index (used after parallel/resumed assembly).
    pub fn normalise(&mut self) {
        self.designs.sort_by_key(|(i, _)| *i);
        self.failures.sort_by_key(|f| f.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure(index: usize, reason: AcsError) -> DesignFailure {
        DesignFailure { index, params: format!("cand-{index}"), reason }
    }

    #[test]
    fn counts_group_by_kind() {
        let report = SweepReport {
            designs: vec![],
            failures: vec![
                failure(0, AcsError::invalid_config("a", "r")),
                failure(2, AcsError::invalid_config("b", "r")),
                failure(5, AcsError::non_finite("sim", "tbt_s", f64::NAN)),
            ],
        };
        let counts = report.failure_counts();
        assert_eq!(counts.get("invalid_config"), Some(&2));
        assert_eq!(counts.get("non_finite"), Some(&1));
        assert_eq!(report.total(), 3);
        let s = report.summary();
        assert!(s.contains("0 ok"));
        assert!(s.contains("invalid_config: 2"));
    }

    #[test]
    fn normalise_orders_by_index() {
        let mut report = SweepReport {
            designs: vec![],
            failures: vec![
                failure(5, AcsError::invalid_config("a", "r")),
                failure(1, AcsError::invalid_config("a", "r")),
            ],
        };
        report.normalise();
        assert_eq!(report.failures[0].index, 1);
        assert_eq!(report.failures[1].index, 5);
    }

    #[test]
    fn display_names_the_point() {
        let f = failure(7, AcsError::invalid_config("lanes_per_core", "must be nonzero"));
        let s = f.to_string();
        assert!(s.contains("#7"));
        assert!(s.contains("lanes_per_core"));
        assert_eq!(f.kind(), "invalid_config");
    }
}
