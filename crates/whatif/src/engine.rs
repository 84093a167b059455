//! The what-if engine: screen a device portfolio and a priced design
//! fleet against every variant of a rule grid, emitting one
//! canonical-JSON record per variant as it completes.
//!
//! A variant costs two name-free ledgers: one class per portfolio
//! device and one per fleet design ([`ClassificationLedger`]). The fleet
//! is screened in its [`PricedFleet`] form, through unnamed
//! [`DeviceMetrics`], because no rule reads a name and no record prints
//! a fleet design's name; the only names a record carries are the
//! portfolio devices in its `newly_restricted` and `newly_freed` lists.
//! The two expensive record blocks are memoised per run by their
//! ledger's class bytes, so a grid whose variants collapse to a few
//! distinct ledgers builds each block once.

use crate::fleet::PricedFleet;
use crate::grid::RuleGrid;
use crate::ledger::{ClassificationLedger, LedgerCounts};
use crate::rules::RuleSpec;
use acs_core::{
    deadweight_loss, indicator_report_of, ComplianceOverhead, DesignFigures, FixedParam,
    LatencyMetric,
};
use acs_devices::GpuDatabase;
use acs_dse::{Distribution, EvaluatedDesign};
use acs_errors::json::{object, Value};
use acs_errors::AcsError;
use acs_policy::{DeviceMetrics, HbmPackage};
use acs_telemetry::{GlobalCounter, GlobalHistogram};
use std::collections::HashMap;

static VARIANTS_SCREENED: GlobalCounter = GlobalCounter::new("whatif.variants");
static VARIANT_US: GlobalHistogram = GlobalHistogram::new("whatif.variant_us");
static PINNED_ENTRIES: GlobalCounter = GlobalCounter::new("whatif.prune.pinned_entries");
static CLASSIFY_SKIPPED: GlobalCounter = GlobalCounter::new("whatif.prune.classify_skipped");
static DEVICE_MEMO_HITS: GlobalCounter = GlobalCounter::new("whatif.prune.device_memo_hits");
static FLEET_MEMO_HITS: GlobalCounter = GlobalCounter::new("whatif.prune.fleet_memo_hits");

/// Per-run memo of the two expensive record blocks, each a pure
/// function of its ledger. Portfolio and fleet order are fixed for the
/// run, so the classification ordinals alone identify a ledger — no
/// digesting, no collision risk. One byte per entry hashes as one slice;
/// a `Vec<Classification>` key would hash element by element.
#[derive(Debug, Default)]
struct VariantMemo {
    /// `devices` block (counts + baseline delta) by device-ledger key.
    devices: HashMap<Vec<u8>, Value>,
    /// `(fleet, externality)` blocks by fleet-ledger key.
    fleet: HashMap<Vec<u8>, (Value, Value)>,
}

fn class_key(ledger: &ClassificationLedger) -> Vec<u8> {
    ledger.classes.iter().map(|&c| c as u8).collect()
}

/// Reference economics and reporting knobs for the externality block of
/// each record.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfConfig {
    /// Annual accelerator market quantity (units) for deadweight loss.
    pub market_quantity: f64,
    /// Market-clearing unit price in USD.
    pub market_price_usd: f64,
    /// Demand elasticity (negative).
    pub demand_elasticity: f64,
    /// Supply elasticity (positive).
    pub supply_elasticity: f64,
    /// Fixed-parameter columns for the indicator-distribution block.
    pub indicator_columns: Vec<FixedParam>,
}

impl WhatIfConfig {
    /// The paper's §5 reference economy (the `what_if_rules` values) and
    /// the restricting-value indicator columns of the synthetic fleet.
    #[must_use]
    pub fn paper_default() -> Self {
        WhatIfConfig {
            market_quantity: 1.0e6,
            market_price_usd: 20_000.0,
            demand_elasticity: -0.8,
            supply_elasticity: 1.2,
            indicator_columns: vec![
                FixedParam::Lanes(8),
                FixedParam::L1Kib(64),
                FixedParam::HbmTbS(0.8),
                FixedParam::DeviceBwGbS(400.0),
            ],
        }
    }
}

impl Default for WhatIfConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Totals of one engine run (the stream's trailer metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WhatIfSummary {
    /// Rule variants screened (records emitted).
    pub variants: usize,
    /// Devices in the screened portfolio.
    pub devices: usize,
    /// Designs in the screened fleet.
    pub fleet_designs: usize,
}

/// The engine: a device portfolio, the reference HBM packages, and the
/// externality economics, reusable across requests. The priced fleet is
/// an argument to [`WhatIfEngine::screen`] so callers keep pricing (and
/// any memo of priced fleets) outside the screening loop.
#[derive(Debug, Clone)]
pub struct WhatIfEngine {
    devices: Vec<DeviceMetrics>,
    hbm_packages: Vec<HbmPackage>,
    config: WhatIfConfig,
}

impl WhatIfEngine {
    /// Engine over an explicit portfolio.
    #[must_use]
    pub fn new(devices: Vec<DeviceMetrics>, hbm_packages: Vec<HbmPackage>, config: WhatIfConfig) -> Self {
        WhatIfEngine { devices, hbm_packages, config }
    }

    /// Engine over the curated 65-device DB, the reference HBM stacks,
    /// and the paper's reference economics.
    #[must_use]
    pub fn paper_default() -> Self {
        let db = GpuDatabase::curated_65();
        let devices = db.iter().map(|r| r.to_metrics()).collect();
        Self::new(devices, Self::reference_hbm_packages(), WhatIfConfig::paper_default())
    }

    /// The four commodity HBM stacks of the December 2024 analysis
    /// (`policy_screening`'s Figure-13 table).
    #[must_use]
    pub fn reference_hbm_packages() -> Vec<HbmPackage> {
        vec![
            HbmPackage::new("HBM2e stack (460 GB/s, 100 mm2)", 460.0, 100.0),
            HbmPackage::new("HBM3 stack (820 GB/s, 110 mm2)", 820.0, 110.0),
            HbmPackage::new("derated export stack (210 GB/s, 110 mm2)", 210.0, 110.0),
            HbmPackage::new("exception-band stack (320 GB/s, 110 mm2)", 320.0, 110.0),
        ]
    }

    /// The screened device portfolio.
    #[must_use]
    pub fn devices(&self) -> &[DeviceMetrics] {
        &self.devices
    }

    /// The screening form of `designs` for this engine's indicator
    /// columns, with `failures` points that failed to price.
    ///
    /// # Errors
    ///
    /// [`AcsError::InvalidConfig`] if the engine has more than eight
    /// indicator columns (a fleet keeps one membership byte per design)
    /// or `designs` more than `u32::MAX` distinct datasheet rows.
    pub fn priced_fleet<'a>(
        &self,
        designs: impl IntoIterator<Item = &'a EvaluatedDesign>,
        failures: usize,
    ) -> Result<PricedFleet, AcsError> {
        PricedFleet::new(designs, failures, &self.config.indicator_columns)
    }

    /// [`WhatIfEngine::screen`] over `fleet`, priced into its screening
    /// form first.
    ///
    /// # Errors
    ///
    /// As [`WhatIfEngine::priced_fleet`] and [`WhatIfEngine::screen`].
    pub fn run_streaming<F>(
        &self,
        grid: &RuleGrid,
        fleet: &[EvaluatedDesign],
        sink: F,
    ) -> Result<WhatIfSummary, AcsError>
    where
        F: FnMut(usize, &Value) -> Result<(), AcsError>,
    {
        self.screen(grid, &self.priced_fleet(fleet, 0)?, sink)
    }

    /// Screen every variant of `grid` against the portfolio and `fleet`,
    /// calling `sink(variant_index, record)` with one canonical-JSON
    /// record per variant, in grid order, as each completes. A sink
    /// error aborts the run and is returned as-is (this is how a
    /// streaming transport propagates a dead connection).
    ///
    /// Grid screening prunes on ledger monotonicity: a corner pre-screen
    /// under the grid's strict and loose regimes pins every device the
    /// corners agree on (its classification cannot vary inside the
    /// grid), so per-variant classification touches only the contested
    /// devices, and the expensive record blocks — the fleet statistics
    /// and the device deltas — are memoized by the resulting ledgers.
    /// Records are byte-identical to an unpruned screen; the
    /// `whatif.prune.*` counters report how much work the pruning
    /// avoided.
    ///
    /// # Errors
    ///
    /// Sink errors, [`AcsError::Json`] if a record fails to emit, or
    /// [`AcsError::InvalidConfig`] if `fleet` was priced for other
    /// indicator columns than this engine's.
    pub fn screen<F>(
        &self,
        grid: &RuleGrid,
        fleet: &PricedFleet,
        mut sink: F,
    ) -> Result<WhatIfSummary, AcsError>
    where
        F: FnMut(usize, &Value) -> Result<(), AcsError>,
    {
        if fleet.indicator_columns != self.config.indicator_columns {
            return Err(AcsError::InvalidConfig {
                field: "fleet".to_owned(),
                reason: "priced for other indicator columns than the engine's".to_owned(),
            });
        }
        let baseline = ClassificationLedger::screen(&RuleSpec::baseline(), &self.devices);
        let fleet_metrics = fleet.metrics();
        let (strict, loose) = grid.corner_specs();
        let device_pins = ClassificationLedger::corner_pins(&strict, &loose, &self.devices);
        let fleet_pins = ClassificationLedger::corner_pins(&strict, &loose, &fleet_metrics);
        let pinned =
            device_pins.iter().chain(&fleet_pins).filter(|p| p.is_some()).count();
        PINNED_ENTRIES.add(pinned as u64);
        let mut memo = VariantMemo::default();
        let specs = grid.variants();
        for (index, spec) in specs.iter().enumerate() {
            let started = std::time::Instant::now();
            let record = self.variant_record(
                index,
                spec,
                &baseline,
                fleet,
                &fleet_metrics,
                &device_pins,
                &fleet_pins,
                &mut memo,
            )?;
            VARIANT_US.record(started.elapsed().as_secs_f64() * 1e6);
            sink(index, &record)?;
            VARIANTS_SCREENED.add(1);
        }
        Ok(WhatIfSummary {
            variants: specs.len(),
            devices: self.devices.len(),
            fleet_designs: fleet.len(),
        })
    }

    /// Convenience wrapper collecting every record in memory.
    ///
    /// # Errors
    ///
    /// As [`WhatIfEngine::run_streaming`].
    pub fn run(
        &self,
        grid: &RuleGrid,
        fleet: &[EvaluatedDesign],
    ) -> Result<(WhatIfSummary, Vec<Value>), AcsError> {
        let mut records = Vec::with_capacity(grid.cardinality());
        let summary = self.run_streaming(grid, fleet, |_, record| {
            records.push(record.clone());
            Ok(())
        })?;
        Ok((summary, records))
    }

    #[allow(clippy::too_many_arguments)]
    fn variant_record(
        &self,
        index: usize,
        spec: &RuleSpec,
        baseline: &ClassificationLedger,
        fleet: &PricedFleet,
        fleet_metrics: &[DeviceMetrics],
        device_pins: &[Option<acs_policy::Classification>],
        fleet_pins: &[Option<acs_policy::Classification>],
        memo: &mut VariantMemo,
    ) -> Result<Value, AcsError> {
        let (ledger, skipped_devices) =
            ClassificationLedger::screen_pinned(spec, &self.devices, device_pins);
        let (fleet_ledger, skipped_fleet) =
            ClassificationLedger::screen_pinned(spec, fleet_metrics, fleet_pins);
        CLASSIFY_SKIPPED.add((skipped_devices + skipped_fleet) as u64);

        let devices_block = match memo.devices.get(&class_key(&ledger)) {
            Some(block) => {
                DEVICE_MEMO_HITS.add(1);
                block.clone()
            }
            None => {
                let delta = ledger.delta_from(baseline, &self.devices);
                let block = object(vec![
                    ("counts", counts_value(&ledger.counts())),
                    ("newly_restricted", names_value(&delta.newly_restricted)),
                    ("newly_freed", names_value(&delta.newly_freed)),
                ]);
                memo.devices.insert(class_key(&ledger), block.clone());
                block
            }
        };

        let (fleet_block, externality_block) = match memo.fleet.get(&class_key(&fleet_ledger)) {
            Some((f, e)) => {
                FLEET_MEMO_HITS.add(1);
                (f.clone(), e.clone())
            }
            None => {
                let blocks = self.fleet_blocks(fleet, &fleet_ledger);
                memo.fleet.insert(class_key(&fleet_ledger), blocks.clone());
                blocks
            }
        };

        let hbm_rows = self
            .hbm_packages
            .iter()
            .map(|p| {
                object(vec![
                    ("name", Value::String(p.name.clone())),
                    ("density_gb_s_mm2", num(p.bandwidth_density())),
                    ("classification", Value::String(spec.classify_hbm(p).to_string())),
                ])
            })
            .collect();

        Ok(object(vec![
            ("variant", num(to_f64(index))),
            ("rule", spec.to_json_value()?),
            ("devices", devices_block),
            ("fleet", fleet_block),
            ("hbm", Value::Array(hbm_rows)),
            ("externality", externality_block),
        ]))
    }

    /// The variant-independent-given-its-ledger pair of record blocks:
    /// the fleet statistics and the externality economics. Everything
    /// here is a pure function of which fleet designs the ledger
    /// restricts, which is what makes the blocks memoizable.
    fn fleet_blocks(
        &self,
        fleet: &PricedFleet,
        fleet_ledger: &ClassificationLedger,
    ) -> (Value, Value) {
        let fleet_counts = fleet_ledger.counts();

        // One pass in fleet order: the unrestricted designs' samples and
        // column bits, and the fastest design on each side (the first
        // of equals, as `Iterator::min_by` picks).
        let free = fleet_counts.not_applicable;
        let (mut tbt, mut cost, mut bits) =
            (Vec::with_capacity(free), Vec::with_capacity(free), Vec::with_capacity(free));
        let mut fastest_free: Option<&DesignFigures> = None;
        let mut fastest_restricted: Option<&DesignFigures> = None;
        for ((figures, &member), class) in
            fleet.figures.iter().zip(&fleet.membership).zip(&fleet_ledger.classes)
        {
            let fastest = if class.is_restricted() {
                &mut fastest_restricted
            } else {
                tbt.push(figures.tbt_s);
                cost.push(figures.good_die_cost_usd);
                bits.push(member);
                &mut fastest_free
            };
            if !fastest.is_some_and(|f| figures.tbt_s.total_cmp(&f.tbt_s).is_ge()) {
                *fastest = Some(figures);
            }
        }
        let restricted_share = if fleet.is_empty() {
            0.0
        } else {
            (fleet.len() - tbt.len()) as f64 / fleet.len() as f64
        };

        let indicators = indicator_report_of(
            &tbt,
            LatencyMetric::Tbt,
            &self.config.indicator_columns,
            |i, c| bits[i] >> c & 1 == 1,
        );
        // The "TPP Only" column is the distribution of every unrestricted
        // TBT, present exactly when that distribution is.
        let tbt_dist = indicators.first().map(|column| &column.distribution);
        let cost_dist = Distribution::from_samples(&cost);

        let dwl = deadweight_loss(
            self.config.market_quantity,
            self.config.market_price_usd,
            restricted_share,
            self.config.demand_elasticity,
            self.config.supply_elasticity,
        );
        let overhead = match (fastest_free, fastest_restricted) {
            (Some(compliant), Some(frontier)) => {
                overhead_value(&ComplianceOverhead::between_figures(compliant, frontier))
            }
            _ => Value::Null,
        };

        let indicator_rows = indicators
            .iter()
            .map(|col| {
                object(vec![
                    ("label", Value::String(col.label.clone())),
                    ("median_s", num(col.distribution.median)),
                    ("range_s", num(col.distribution.range())),
                    ("narrowing", num(col.narrowing)),
                ])
            })
            .collect();

        let fleet_block = object(vec![
            ("total", num(to_f64(fleet.len()))),
            ("counts", counts_value(&fleet_counts)),
            ("restricted_share", num(restricted_share)),
            ("tbt_unrestricted_s", dist_value(tbt_dist)),
            ("good_die_cost_unrestricted_usd", dist_value(cost_dist.as_ref())),
            ("indicators", Value::Array(indicator_rows)),
        ]);
        let externality_block = object(vec![
            ("deadweight_loss_usd", num(dwl)),
            ("compliance_overhead", overhead),
        ]);
        (fleet_block, externality_block)
    }
}

impl Default for WhatIfEngine {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Emit a number, degrading non-finite values (an infinite narrowing
/// factor, a ratio against a zero denominator) to `null` so every record
/// stays canonical-JSON-encodable.
fn num(x: f64) -> Value {
    Value::from_f64(x).unwrap_or(Value::Null)
}

#[allow(clippy::cast_precision_loss)]
fn to_f64(n: usize) -> f64 {
    n as f64
}

fn names_value(names: &[String]) -> Value {
    Value::Array(names.iter().map(|n| Value::String(n.clone())).collect())
}

fn counts_value(c: &LedgerCounts) -> Value {
    object(vec![
        ("not_applicable", num(to_f64(c.not_applicable))),
        ("nac_eligible", num(to_f64(c.nac_eligible))),
        ("license_required", num(to_f64(c.license_required))),
    ])
}

fn dist_value(d: Option<&Distribution>) -> Value {
    match d {
        None => Value::Null,
        Some(d) => object(vec![
            ("count", num(to_f64(d.count))),
            ("min", num(d.min)),
            ("q1", num(d.q1)),
            ("median", num(d.median)),
            ("q3", num(d.q3)),
            ("max", num(d.max)),
            ("mean", num(d.mean)),
        ]),
    }
}

fn overhead_value(o: &ComplianceOverhead) -> Value {
    object(vec![
        ("area_ratio", num(o.area_ratio)),
        ("die_cost_ratio", num(o.die_cost_ratio)),
        ("good_die_cost_ratio", num(o.good_die_cost_ratio)),
        ("ttft_ratio", num(o.ttft_ratio)),
        ("tbt_ratio", num(o.tbt_ratio)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::WhatIfRequest;
    use acs_errors::json::parse;

    #[test]
    fn baseline_run_over_the_device_db() {
        let engine = WhatIfEngine::paper_default();
        let (summary, records) = engine.run(&RuleGrid::baseline(), &[]).unwrap();
        assert_eq!(summary.variants, 1);
        assert_eq!(summary.devices, 65);
        assert_eq!(records.len(), 1);
        let rec = &records[0];
        // Baseline vs baseline: no flips.
        let devices = rec.require("devices").unwrap();
        assert!(devices.require("newly_restricted").unwrap().as_array().unwrap().is_empty());
        assert!(devices.require("newly_freed").unwrap().as_array().unwrap().is_empty());
        // Empty fleet: distributions degrade to null, DWL is zero.
        let fleet = rec.require("fleet").unwrap();
        assert_eq!(fleet.require("total").unwrap().as_f64(), Some(0.0));
        assert!(matches!(fleet.require("tbt_unrestricted_s").unwrap(), Value::Null));
        assert_eq!(
            rec.require("externality").unwrap().require_f64("deadweight_loss_usd").unwrap(),
            0.0
        );
        // Records are canonical JSON: byte-stable round trip.
        let text = rec.to_json();
        assert_eq!(parse(&text).unwrap().to_json(), text);
    }

    #[test]
    fn blunt_rule_restricts_consumer_devices() {
        let engine = WhatIfEngine::paper_default();
        let req = parse(r#"{"rule":{"tpp_threshold_2022":1600,"device_bw_threshold_2022":0}}"#)
            .unwrap();
        let grid = WhatIfRequest::from_json(&req).unwrap().grid;
        let (_, records) = engine.run(&grid, &[]).unwrap();
        let devices = records[0].require("devices").unwrap();
        let newly = devices.require("newly_restricted").unwrap().as_array().unwrap();
        // The blunt 1600-TPP rule catches consumer parts the published
        // rules leave alone (the paper's RTX-class examples).
        assert!(!newly.is_empty());
    }

    #[test]
    fn records_stream_in_grid_order_and_count_variants() {
        let engine = WhatIfEngine::paper_default();
        let req = parse(r#"{"grid":{"tpp_license":[2400,4800],"pd_license":[3.0,5.92]}}"#).unwrap();
        let grid = WhatIfRequest::from_json(&req).unwrap().grid;
        let mut seen = Vec::new();
        let summary = engine
            .run_streaming(&grid, &[], |i, rec| {
                seen.push((i, rec.require_u64("variant").unwrap()));
                Ok(())
            })
            .unwrap();
        assert_eq!(summary.variants, 4);
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn sink_errors_abort_the_run() {
        let engine = WhatIfEngine::paper_default();
        let err = engine
            .run_streaming(&RuleGrid::baseline(), &[], |_, _| {
                Err(AcsError::Io { path: "wire".into(), reason: "gone".into() })
            })
            .unwrap_err();
        assert_eq!(err.kind(), "io");
    }
}
