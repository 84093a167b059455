//! Screen a product portfolio against every export-control generation.
//!
//! Emulates the compliance-screening workflow a device vendor (or
//! regulator) would run: classify all 65 GPUs of the 2018–2024 database
//! under the October 2022 and October 2023 rules, check commodity HBM
//! packages against the December 2024 rule, and quantify how well the
//! marketing-based classification holds together.
//!
//! A thin client of `acs::whatif`: the per-generation tallies, the
//! cross-generation flips, and the HBM screening all come from the
//! what-if engine's ledgers and reference data rather than hand-rolled
//! classification loops.
//!
//! ```text
//! cargo run --release --example policy_screening
//! ```

use acs::core::prelude::*;
use acs::devices::GpuDatabase;
use acs::policy::{Acr2022, Acr2023, DeviceMetrics};
use acs::whatif::{ClassificationLedger, RuleSpec, WhatIfEngine};

fn main() {
    let db = GpuDatabase::curated_65();
    let devices: Vec<DeviceMetrics> = db.iter().map(|r| r.to_metrics()).collect();
    let r22 = Acr2022::published();
    let r23 = Acr2023::published();

    // Portfolio screening: who needs a licence under each generation?
    let by_2022 = ClassificationLedger::screen_with(&devices, |m| r22.classify(m));
    let by_2023 = ClassificationLedger::screen_with(&devices, |m| r23.classify(m));
    println!("65-device portfolio under both rule generations:");
    println!(
        "{:<14} {:>14} {:>14} {:>18}",
        "rule", "not applicable", "NAC eligible", "license required"
    );
    for (label, ledger) in [("October 2022", &by_2022), ("October 2023", &by_2023)] {
        let c = ledger.counts();
        println!(
            "{label:<14} {:>14} {:>14} {:>18}",
            c.not_applicable, c.nac_eligible, c.license_required
        );
    }

    // Devices whose status changed between generations — the §2.2 story.
    println!("\nnewly restricted by the October 2023 update:");
    let delta = by_2023.delta_from(&by_2022, &devices);
    for name in &delta.newly_restricted {
        let metrics = devices.iter().find(|m| m.name() == name);
        let class = by_2023.classification_of(&devices, name);
        if let (Some(metrics), Some(class)) = (metrics, class) {
            println!("  {name} ({}, {class})", metrics.tpp());
        }
    }

    // The marketing-vs-architecture consistency studies (§5.2).
    let marketing = marketing_consistency(&db, &r23);
    println!(
        "\nmarketing-based classification: {} false DC {:?}, {} false non-DC",
        marketing.false_dc.len(),
        marketing.false_dc,
        marketing.false_ndc.len()
    );
    let arch = architectural_consistency(&db, &ArchClassifier::paper());
    println!(
        "memory-architecture classification: {} false DC {:?}, {} false non-DC",
        arch.false_dc.len(),
        arch.false_dc,
        arch.false_ndc.len()
    );

    // December 2024: the what-if engine's commodity HBM packages under
    // the baseline regime's package-level rule.
    println!("\ncommodity HBM packages under the December 2024 rule:");
    let baseline = RuleSpec::baseline();
    for pkg in WhatIfEngine::reference_hbm_packages() {
        println!(
            "  {:<44} density {:>5.2} GB/s/mm2 -> {}",
            pkg.name,
            pkg.bandwidth_density(),
            baseline.classify_hbm(&pkg)
        );
    }
}
