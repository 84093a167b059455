//! Classification ledgers: the per-device outcome of screening a
//! portfolio under one rule regime, plus deltas between regimes.
//!
//! A ledger is a class vector indexed like the portfolio it screened,
//! with no names in it. Screening a 4096-design fleet under one rule
//! variant then fills 4096 one-byte classes instead of copying 4096
//! names, and two ledgers of one portfolio compare index by index. The
//! few callers that print devices — [`ClassificationLedger::delta_from`],
//! [`ClassificationLedger::restricted_names`] and
//! [`ClassificationLedger::classification_of`] — read the names from the
//! portfolio they pass in.

use crate::rules::RuleSpec;
use acs_policy::{Classification, DeviceMetrics};

/// Per-class tallies of a ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerCounts {
    /// Devices the regime does not reach.
    pub not_applicable: usize,
    /// Devices eligible for the NAC licence exception.
    pub nac_eligible: usize,
    /// Devices requiring a regular licence.
    pub license_required: usize,
}

impl LedgerCounts {
    /// Devices facing any restriction (NAC or licence).
    #[must_use]
    pub fn restricted(&self) -> usize {
        self.nac_eligible + self.license_required
    }

    /// Total devices tallied.
    #[must_use]
    pub fn total(&self) -> usize {
        self.not_applicable + self.restricted()
    }
}

/// Devices whose restriction status flipped between two regimes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LedgerDelta {
    /// Unrestricted under the baseline, restricted under the variant.
    pub newly_restricted: Vec<String>,
    /// Restricted under the baseline, unrestricted under the variant.
    pub newly_freed: Vec<String>,
}

/// The classification of every device in a portfolio under one regime,
/// in portfolio order.
///
/// A ledger holds no names: entry `i` classifies device `i` of the
/// screened portfolio, so two ledgers of one portfolio line up index by
/// index. The methods that report devices by name take that portfolio.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassificationLedger {
    /// One classification per screened device, in portfolio order.
    pub classes: Vec<Classification>,
}

impl ClassificationLedger {
    /// Screen a portfolio with an arbitrary classifier (used by the
    /// per-generation breakdowns in `examples/policy_screening.rs`).
    pub fn screen_with<F>(devices: &[DeviceMetrics], classify: F) -> Self
    where
        F: Fn(&DeviceMetrics) -> Classification,
    {
        ClassificationLedger { classes: devices.iter().map(classify).collect() }
    }

    /// Screen a portfolio under a full rule regime.
    #[must_use]
    pub fn screen(spec: &RuleSpec, devices: &[DeviceMetrics]) -> Self {
        Self::screen_with(devices, |m| spec.classify(m))
    }

    /// Corner pre-screen: classify each device under a grid's strict
    /// and loose corner regimes ([`crate::RuleGrid::corner_specs`]);
    /// where the two agree, the device's classification is pinned for
    /// every regime sandwiched between them, and `Some(class)` records
    /// it. Devices the corners disagree on stay `None` and classify
    /// per-variant.
    #[must_use]
    pub fn corner_pins(
        strict: &RuleSpec,
        loose: &RuleSpec,
        devices: &[DeviceMetrics],
    ) -> Vec<Option<Classification>> {
        devices
            .iter()
            .map(|m| {
                let s = strict.classify(m);
                (s == loose.classify(m)).then_some(s)
            })
            .collect()
    }

    /// Screen a portfolio under one regime, consulting `pins` first:
    /// pinned devices skip the classifier outright. Returns the ledger
    /// — identical, entry for entry, to [`ClassificationLedger::screen`]
    /// when the pins came from a corner sandwich containing `spec` —
    /// plus the number of classify calls skipped. A `pins` slice shorter
    /// than the portfolio just stops pinning early.
    #[must_use]
    pub fn screen_pinned(
        spec: &RuleSpec,
        devices: &[DeviceMetrics],
        pins: &[Option<Classification>],
    ) -> (Self, usize) {
        let mut skipped = 0_usize;
        let classes = devices
            .iter()
            .enumerate()
            .map(|(i, m)| match pins.get(i).copied().flatten() {
                Some(pinned) => {
                    skipped += 1;
                    pinned
                }
                None => spec.classify(m),
            })
            .collect();
        (ClassificationLedger { classes }, skipped)
    }

    /// Per-class tallies.
    #[must_use]
    pub fn counts(&self) -> LedgerCounts {
        let mut c = LedgerCounts::default();
        for class in &self.classes {
            match class {
                Classification::NotApplicable => c.not_applicable += 1,
                Classification::NacEligible => c.nac_eligible += 1,
                Classification::LicenseRequired => c.license_required += 1,
            }
        }
        c
    }

    /// Look up a device's classification by name in the screened
    /// portfolio `devices`.
    #[must_use]
    pub fn classification_of(
        &self,
        devices: &[DeviceMetrics],
        name: &str,
    ) -> Option<Classification> {
        let i = devices.iter().position(|m| m.name() == name)?;
        self.classes.get(i).copied()
    }

    /// Names of every restricted device of the screened portfolio
    /// `devices`, in ledger order.
    #[must_use]
    pub fn restricted_names<'a>(&self, devices: &'a [DeviceMetrics]) -> Vec<&'a str> {
        debug_assert_eq!(devices.len(), self.classes.len(), "not the screened portfolio");
        devices
            .iter()
            .zip(&self.classes)
            .filter(|(_, c)| c.is_restricted())
            .map(|(m, _)| m.name())
            .collect()
    }

    /// Restriction-status flips relative to a baseline ledger of the
    /// same portfolio `devices`, named from it. A device past the end of
    /// a shorter baseline counts as previously unrestricted.
    #[must_use]
    pub fn delta_from(&self, baseline: &Self, devices: &[DeviceMetrics]) -> LedgerDelta {
        debug_assert_eq!(devices.len(), self.classes.len(), "not the screened portfolio");
        let mut delta = LedgerDelta::default();
        for (i, (metrics, class)) in devices.iter().zip(&self.classes).enumerate() {
            let was = baseline.classes.get(i).is_some_and(|c| c.is_restricted());
            match (was, class.is_restricted()) {
                (false, true) => delta.newly_restricted.push(metrics.name().to_owned()),
                (true, false) => delta.newly_freed.push(metrics.name().to_owned()),
                _ => {}
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_policy::MarketSegment;

    fn portfolio() -> Vec<DeviceMetrics> {
        vec![
            // Over every TPP line.
            DeviceMetrics::new("big", 6000.0, 900.0, 800.0, true, MarketSegment::DataCenter),
            // Under all published thresholds.
            DeviceMetrics::new("small", 300.0, 100.0, 200.0, true, MarketSegment::NonDataCenter),
        ]
    }

    #[test]
    fn counts_and_restricted_names() {
        let ledger = ClassificationLedger::screen(&RuleSpec::baseline(), &portfolio());
        let counts = ledger.counts();
        assert_eq!(counts.license_required, 1);
        assert_eq!(counts.not_applicable, 1);
        assert_eq!(counts.total(), 2);
        assert_eq!(ledger.restricted_names(&portfolio()), vec!["big"]);
        assert_eq!(
            ledger.classification_of(&portfolio(), "small"),
            Some(Classification::NotApplicable)
        );
        assert_eq!(ledger.classification_of(&portfolio(), "absent"), None);
    }

    #[test]
    fn delta_tracks_flips_both_ways() {
        let devices = portfolio();
        let base = ClassificationLedger::screen(&RuleSpec::baseline(), &devices);
        // A 100-TPP blunt rule catches everything.
        let mut strict = RuleSpec::baseline();
        strict.acr_2022.tpp_threshold = 100.0;
        strict.acr_2022.device_bw_threshold_gb_s = 0.0;
        let delta = ClassificationLedger::screen(&strict, &devices).delta_from(&base, &devices);
        assert_eq!(delta.newly_restricted, vec!["small"]);
        assert!(delta.newly_freed.is_empty());
        // And an unreachable rule frees everything.
        let mut lax = RuleSpec::baseline();
        lax.acr_2022.tpp_threshold = f64::MAX;
        lax.acr_2023.tpp_license = f64::MAX;
        lax.acr_2023.tpp_floor = f64::MAX;
        lax.acr_2023.tpp_nac = f64::MAX;
        let delta = ClassificationLedger::screen(&lax, &devices).delta_from(&base, &devices);
        assert_eq!(delta.newly_freed, vec!["big"]);
        assert!(delta.newly_restricted.is_empty());
    }
}
