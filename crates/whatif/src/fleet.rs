//! The priced fleet as the rules and the record blocks read it.
//!
//! A what-if screens the same priced fleet under every rule variant, and
//! a service screens it again for every request that names the same
//! (scenario, TPP target). [`PricedFleet`] keeps only what screening
//! reads, column by column and with no names: per design, the five
//! figures a record block or a compliance comparison reads
//! ([`DesignFigures`]), an index into the fleet's table of distinct
//! (TPP, device bandwidth, HBM bandwidth) rows, and one byte of
//! indicator-column membership. That is 45 bytes a design, about 180 KiB
//! for the 4096-design synthetic fleet, against about 170 bytes for an
//! [`EvaluatedDesign`] and its name.

use acs_core::{DesignFigures, FixedParam};
use acs_dse::EvaluatedDesign;
use acs_errors::AcsError;
use acs_policy::{DeviceMetrics, MarketSegment};
use std::collections::HashMap;
use std::mem::size_of;

/// Most indicator columns a fleet records: membership is one byte per
/// design.
const MAX_INDICATOR_COLUMNS: usize = 8;

/// The datasheet quantities the rules read besides die area, shared by
/// every design of one row.
#[derive(Debug, Clone, Copy)]
struct DatasheetRow {
    tpp: f64,
    device_bw_gb_s: f64,
    hbm_tb_s: f64,
}

/// A priced design fleet in screening form: columns in fleet order, no
/// names. Build one with [`crate::WhatIfEngine::priced_fleet`] and
/// screen it with [`crate::WhatIfEngine::screen`].
#[derive(Debug)]
pub struct PricedFleet {
    /// Per design: area, die costs and latencies.
    pub(crate) figures: Vec<DesignFigures>,
    /// Per design: its index into `rows`.
    row: Vec<u32>,
    /// Per design: bit `c` set when the design belongs to indicator
    /// column `c`.
    pub(crate) membership: Vec<u8>,
    /// The fleet's distinct datasheet rows.
    rows: Vec<DatasheetRow>,
    /// The indicator columns `membership` was computed for.
    pub(crate) indicator_columns: Vec<FixedParam>,
    /// Points that failed to price (reported, never screened).
    failures: usize,
}

impl PricedFleet {
    /// The screening form of `designs`, in order, with `failures` points
    /// that failed to price, for the indicator `columns`.
    ///
    /// # Errors
    ///
    /// [`AcsError::InvalidConfig`] for more than eight columns or more
    /// than `u32::MAX` distinct datasheet rows.
    pub(crate) fn new<'a>(
        designs: impl IntoIterator<Item = &'a EvaluatedDesign>,
        failures: usize,
        columns: &[FixedParam],
    ) -> Result<Self, AcsError> {
        if columns.len() > MAX_INDICATOR_COLUMNS {
            return Err(AcsError::InvalidConfig {
                field: "indicator_columns".to_owned(),
                reason: format!("at most {MAX_INDICATOR_COLUMNS} columns, got {}", columns.len()),
            });
        }
        let designs = designs.into_iter();
        let capacity = designs.size_hint().0;
        let mut fleet = PricedFleet {
            figures: Vec::with_capacity(capacity),
            row: Vec::with_capacity(capacity),
            membership: Vec::with_capacity(capacity),
            rows: Vec::new(),
            indicator_columns: columns.to_vec(),
            failures,
        };
        let mut row_index: HashMap<[u64; 3], u32> = HashMap::new();
        for design in designs {
            let row = DatasheetRow {
                tpp: design.tpp,
                device_bw_gb_s: design.params.device_bw_gb_s,
                hbm_tb_s: design.params.hbm_tb_s,
            };
            let key = [row.tpp.to_bits(), row.device_bw_gb_s.to_bits(), row.hbm_tb_s.to_bits()];
            let next = u32::try_from(fleet.rows.len()).map_err(|_| AcsError::InvalidConfig {
                field: "fleet".to_owned(),
                reason: "more than u32::MAX distinct datasheet rows".to_owned(),
            })?;
            let index = *row_index.entry(key).or_insert_with(|| {
                fleet.rows.push(row);
                next
            });
            fleet.figures.push(DesignFigures::of(design));
            fleet.row.push(index);
            fleet.membership.push(
                columns
                    .iter()
                    .enumerate()
                    .filter(|(_, col)| col.matches(&design.params))
                    .fold(0, |bits, (c, _)| bits | 1 << c),
            );
        }
        fleet.figures.shrink_to_fit();
        fleet.row.shrink_to_fit();
        fleet.membership.shrink_to_fit();
        fleet.rows.shrink_to_fit();
        Ok(fleet)
    }

    /// Designs in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.figures.len()
    }

    /// Whether the fleet holds no design.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.figures.is_empty()
    }

    /// Points that failed to price.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Bytes the fleet holds, its columns included: what a memo of
    /// fleets budgets.
    #[must_use]
    pub fn bytes(&self) -> usize {
        size_of::<Self>()
            + self.figures.capacity() * size_of::<DesignFigures>()
            + self.row.capacity() * size_of::<u32>()
            + self.membership.capacity()
            + self.rows.capacity() * size_of::<DatasheetRow>()
            + self.indicator_columns.capacity() * size_of::<FixedParam>()
    }

    /// Datasheet metrics of every design, as the rules read them: its
    /// swept device bandwidth, its HBM bandwidth as memory bandwidth
    /// (nominal 80 GiB capacity), marketed as a data-center part. The
    /// metrics are unnamed: no rule reads a name, and no record prints a
    /// fleet design's name.
    #[must_use]
    pub fn metrics(&self) -> Vec<DeviceMetrics> {
        self.figures
            .iter()
            .zip(&self.row)
            .map(|(figures, &row)| {
                let row = self.rows[row as usize];
                DeviceMetrics::new(
                    String::new(),
                    row.tpp,
                    row.device_bw_gb_s,
                    figures.die_area_mm2,
                    true,
                    MarketSegment::DataCenter,
                )
                .with_memory(80.0, row.hbm_tb_s * 1000.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_dse::SweptParams;

    /// Sixteen hand-priced designs over two achieved TPPs, two lane
    /// counts, two HBM bandwidths and two device bandwidths.
    fn designs() -> Vec<EvaluatedDesign> {
        let mut designs = Vec::new();
        for (i, (tpp, lanes)) in [(2399.0, 4), (2398.5, 8)].into_iter().enumerate() {
            for hbm_tb_s in [0.8, 2.0] {
                for device_bw_gb_s in [400.0, 600.0] {
                    for l1_kib in [64, 192] {
                        let k = designs.len() as f64;
                        designs.push(EvaluatedDesign {
                            name: format!("design-{k}"),
                            params: SweptParams {
                                systolic_dim: 16,
                                lanes_per_core: lanes,
                                core_count: 100 + i as u32,
                                l1_kib,
                                l2_mib: 40,
                                hbm_tb_s,
                                device_bw_gb_s,
                            },
                            tpp,
                            die_area_mm2: 400.0 + k,
                            perf_density: tpp / (400.0 + k),
                            die_cost_usd: 90.0 + k,
                            good_die_cost_usd: 150.0 + k,
                            ttft_s: 1e-3 * (1.0 + k),
                            tbt_s: 1e-5 * (2.0 + k),
                            within_reticle: true,
                            pd_unregulated_2023: false,
                        });
                    }
                }
            }
        }
        designs
    }

    #[test]
    fn columns_hold_each_design_in_order_without_names() {
        let designs = designs();
        let columns = [FixedParam::Lanes(8), FixedParam::HbmTbS(0.8)];
        let fleet = PricedFleet::new(&designs, 3, &columns).unwrap();
        assert_eq!((fleet.len(), fleet.failures()), (designs.len(), 3));
        // Two achieved TPPs by four (device bandwidth, HBM) pairs; L1
        // size is not a datasheet quantity.
        assert_eq!(fleet.rows.len(), 8);
        let metrics = fleet.metrics();
        for (i, d) in designs.iter().enumerate() {
            assert_eq!(fleet.figures[i], DesignFigures::of(d));
            let want = DeviceMetrics::new(
                String::new(),
                d.tpp,
                d.params.device_bw_gb_s,
                d.die_area_mm2,
                true,
                MarketSegment::DataCenter,
            )
            .with_memory(80.0, d.params.hbm_tb_s * 1000.0);
            assert_eq!(metrics[i], want);
            let bits = u8::from(d.params.lanes_per_core == 8)
                | u8::from(d.params.hbm_tb_s == 0.8) << 1;
            assert_eq!(fleet.membership[i], bits, "design {i}");
        }
    }

    #[test]
    fn a_design_costs_at_most_48_bytes() {
        let designs = designs();
        let fleet = PricedFleet::new(&designs, 0, &FixedParam::fig12_columns()).unwrap();
        let per_design = size_of::<DesignFigures>() + size_of::<u32>() + 1;
        assert!(per_design <= 48);
        let fixed = size_of::<PricedFleet>()
            + fleet.rows.len() * size_of::<DatasheetRow>()
            + 5 * size_of::<FixedParam>();
        assert_eq!(fleet.bytes(), fixed + designs.len() * per_design);
    }

    #[test]
    fn more_columns_than_membership_bits_are_refused() {
        let columns = vec![FixedParam::Lanes(1); MAX_INDICATOR_COLUMNS + 1];
        let err = PricedFleet::new(&[], 0, &columns).unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
        assert!(PricedFleet::new(&[], 0, &columns[1..]).unwrap().is_empty());
    }
}
