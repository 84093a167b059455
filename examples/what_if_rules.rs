//! Architecture-first policy design: prototype alternative rules and
//! measure their effect before anyone writes a Federal Register notice.
//!
//! Implements §5.3/§5.4's proposal: instead of theoretical-performance
//! ceilings alone, pin the architectural parameter that actually
//! bottlenecks the workload of interest — memory bandwidth for LLM
//! decoding, L1 capacity for prefill — and verify that the resulting
//! performance distribution is narrow (predictable) while gaming-class
//! devices stay sellable.
//!
//! A thin client of `acs::whatif`: candidate regimes are expressed as
//! rule specs, device impact comes from classification ledgers, and the
//! externality economics are the engine's reference economy. (For the
//! full batch treatment — whole rule grids with per-variant records —
//! POST the same parameters to acs-serve's `/v1/whatif`.)
//!
//! ```text
//! cargo run --release --example what_if_rules
//! ```

use acs::core::prelude::*;
use acs::devices::GpuDatabase;
use acs::dse::prelude::*;
use acs::llm::{ModelConfig, WorkloadConfig};
use acs::policy::{Acr2022, DeviceMetrics, MarketSegment, MemBwRule};
use acs::whatif::{ClassificationLedger, WhatIfConfig};

fn main() {
    let model = ModelConfig::gpt3_175b();
    let work = WorkloadConfig::paper_default();

    // Candidate policy: keep the TPP ceiling but add a memory-bandwidth
    // cap of 1 TB/s — the paper's decode-limiting indicator. Evaluate the
    // whole Table-5 design space under it.
    let designs = DseRunner::new(model.clone(), work).run(&SweepSpec::table5(), 4800.0);
    let manufacturable: Vec<EvaluatedDesign> =
        designs.into_iter().filter(|d| d.within_reticle).collect();

    let baseline = A100Baseline::simulate(&model, &work);
    for (label, columns) in [
        ("TPP ceiling only", vec![]),
        ("TPP + 0.8 TB/s memory-BW cap", vec![FixedParam::HbmTbS(0.8)]),
        ("TPP + 32 KB L1 cap", vec![FixedParam::L1Kib(32)]),
    ] {
        let cols = indicator_report(&manufacturable, LatencyMetric::Tbt, &columns);
        let col = cols.last().expect("column exists");
        println!(
            "{label:<32} TBT median {:+.1}% vs A100, range {:.3} ms ({:.1}x narrower)",
            (col.distribution.median / baseline.tbt_s - 1.0) * 100.0,
            col.distribution.range() * 1e3,
            col.narrowing,
        );
    }

    // How many of today's real gaming devices would such a rule touch?
    // Screen the consumer slice of the curated DB under the hypothetical
    // memory-bandwidth rule alone. None: consumer memory systems already
    // sit well under the cap.
    let db = GpuDatabase::curated_65();
    let consumer: Vec<DeviceMetrics> = db
        .iter()
        .filter(|r| r.market == MarketSegment::NonDataCenter)
        .map(|r| r.to_metrics())
        .collect();
    let mem_bw = MemBwRule { license_threshold_gb_s: 800.0 };
    let mem_bw_ledger = ClassificationLedger::screen_with(&consumer, |m| mem_bw.classify(m));
    let touched = mem_bw_ledger.restricted_names(&consumer);
    println!(
        "\nconsumer devices above a hypothetical 800 GB/s memory-BW threshold: {touched:?}"
    );

    // Contrast with a blunt alternative: tightening the October 2022 TPP
    // threshold to 1600 would have swept up mid-range gaming cards.
    let blunt = Acr2022 { tpp_threshold: 1600.0, device_bw_threshold_gb_s: 0.0 };
    let blunt_ledger = ClassificationLedger::screen_with(&consumer, |m| blunt.classify(m));
    let swept = blunt_ledger.restricted_names(&consumer);
    println!(
        "consumer devices a blunt TPP>=1600 rule would restrict ({}): {:?}",
        swept.len(),
        swept
    );

    // And the economics: restricting supply destroys surplus, priced with
    // the what-if engine's reference economy (a 1M-unit, $20k-average
    // accelerator market).
    let economy = WhatIfConfig::paper_default();
    for restriction in [0.1, 0.25, 0.5] {
        let dwl = deadweight_loss(
            economy.market_quantity,
            economy.market_price_usd,
            restriction,
            economy.demand_elasticity,
            economy.supply_elasticity,
        );
        println!(
            "supply restriction {:>4.0}% -> deadweight loss ${:.2}B",
            restriction * 100.0,
            dwl / 1e9
        );
    }
}
