//! Rule grids: axis arrays over the regime thresholds, expanded in
//! deterministic row-major order — the same shape discipline as the
//! `/v1/screen` architecture grids.

use crate::rules::RuleSpec;
use acs_errors::json::Value;
use acs_errors::AcsError;

/// Hard ceiling on rule variants per request (mirrors the `/v1/screen`
/// grid-point ceiling).
pub const MAX_RULE_VARIANTS: usize = 4096;

/// The grid axis names, in expansion order (first axis slowest, last
/// axis fastest — row-major, like the sweep lattice).
pub const AXES: [&str; 11] = [
    "tpp_threshold_2022",
    "device_bw_threshold_2022",
    "tpp_license",
    "tpp_floor",
    "tpp_nac",
    "pd_license",
    "pd_nac_high",
    "pd_nac_low",
    "mem_bw_license",
    "hbm_control_density",
    "hbm_exception_density",
];

/// A grid of rule regimes: one value list per threshold. The cartesian
/// product of the lists — capped at [`MAX_RULE_VARIANTS`] — is the set
/// of [`RuleSpec`] variants screened by one request.
///
/// A `mem_bw_license` value of `0` is the "not enacted" sentinel for the
/// hypothetical memory-bandwidth rule (the published baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleGrid {
    /// October 2022 TPP thresholds.
    pub tpp_threshold_2022: Vec<f64>,
    /// October 2022 device-bandwidth thresholds in GB/s.
    pub device_bw_threshold_2022: Vec<f64>,
    /// October 2023 unconditional-licence TPP thresholds.
    pub tpp_license: Vec<f64>,
    /// October 2023 density-clause TPP floors.
    pub tpp_floor: Vec<f64>,
    /// October 2023 NAC TPP floors.
    pub tpp_nac: Vec<f64>,
    /// October 2023 licence PD thresholds.
    pub pd_license: Vec<f64>,
    /// October 2023 second-NAC-clause PD floors.
    pub pd_nac_high: Vec<f64>,
    /// October 2023 first-NAC-clause PD floors.
    pub pd_nac_low: Vec<f64>,
    /// Hypothetical memory-bandwidth licence thresholds in GB/s (0 = off).
    pub mem_bw_license: Vec<f64>,
    /// December 2024 HBM control densities in GB/s/mm².
    pub hbm_control_density: Vec<f64>,
    /// December 2024 HBM exception densities in GB/s/mm².
    pub hbm_exception_density: Vec<f64>,
}

impl RuleGrid {
    /// The single-variant grid holding the published baseline regime.
    #[must_use]
    pub fn baseline() -> Self {
        let b = RuleSpec::baseline();
        RuleGrid {
            tpp_threshold_2022: vec![b.acr_2022.tpp_threshold],
            device_bw_threshold_2022: vec![b.acr_2022.device_bw_threshold_gb_s],
            tpp_license: vec![b.acr_2023.tpp_license],
            tpp_floor: vec![b.acr_2023.tpp_floor],
            tpp_nac: vec![b.acr_2023.tpp_nac],
            pd_license: vec![b.acr_2023.pd_license],
            pd_nac_high: vec![b.acr_2023.pd_nac_high],
            pd_nac_low: vec![b.acr_2023.pd_nac_low],
            mem_bw_license: vec![0.0],
            hbm_control_density: vec![b.hbm.control_density],
            hbm_exception_density: vec![b.hbm.exception_density],
        }
    }

    fn axes(&self) -> [&[f64]; 11] {
        [
            &self.tpp_threshold_2022,
            &self.device_bw_threshold_2022,
            &self.tpp_license,
            &self.tpp_floor,
            &self.tpp_nac,
            &self.pd_license,
            &self.pd_nac_high,
            &self.pd_nac_low,
            &self.mem_bw_license,
            &self.hbm_control_density,
            &self.hbm_exception_density,
        ]
    }

    fn axis_mut(&mut self, name: &str) -> Option<&mut Vec<f64>> {
        match name {
            "tpp_threshold_2022" => Some(&mut self.tpp_threshold_2022),
            "device_bw_threshold_2022" => Some(&mut self.device_bw_threshold_2022),
            "tpp_license" => Some(&mut self.tpp_license),
            "tpp_floor" => Some(&mut self.tpp_floor),
            "tpp_nac" => Some(&mut self.tpp_nac),
            "pd_license" => Some(&mut self.pd_license),
            "pd_nac_high" => Some(&mut self.pd_nac_high),
            "pd_nac_low" => Some(&mut self.pd_nac_low),
            "mem_bw_license" => Some(&mut self.mem_bw_license),
            "hbm_control_density" => Some(&mut self.hbm_control_density),
            "hbm_exception_density" => Some(&mut self.hbm_exception_density),
            _ => None,
        }
    }

    /// Number of rule variants the grid expands to, saturating at
    /// `usize::MAX`: a product of request-sized axis lengths must never
    /// wrap to a count that passes [`MAX_RULE_VARIANTS`].
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.axes().iter().map(|a| a.len()).fold(1, usize::saturating_mul)
    }

    /// The grid as a JSON object: every axis under its [`AXES`] name, in
    /// expansion order, each value list in full. Missing request axes
    /// are already filled with their published values, so a one-variant
    /// `{"rule":{...}}` and the equivalent `{"grid":{...}}` encode
    /// alike.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        Value::Object(
            AXES.iter()
                .zip(self.axes())
                .map(|(name, axis)| {
                    let values = axis.iter().copied().map(Value::Number).collect();
                    ((*name).to_owned(), Value::Array(values))
                })
                .collect(),
        )
    }

    /// Expand the grid into its rule variants, row-major over the
    /// [`AXES`] order (last axis fastest). Deterministic; the per-variant
    /// record stream and the golden corpus rely on this order.
    #[must_use]
    pub fn variants(&self) -> Vec<RuleSpec> {
        let axes = self.axes();
        let total = self.cardinality();
        let mut out = Vec::with_capacity(total);
        for i in 0..total {
            let mut rem = i;
            let mut pick = [0.0_f64; 11];
            for (slot, axis) in pick.iter_mut().zip(axes.iter()).rev() {
                *slot = axis[rem % axis.len()];
                rem /= axis.len();
            }
            out.push(RuleSpec::from_axis_values(&pick));
        }
        out
    }

    /// Parse `{"axis": [v, ...], ...}` — every member must be a known
    /// axis name mapped to a non-empty array of thresholds; missing axes
    /// default to their single published value.
    ///
    /// # Errors
    ///
    /// [`AcsError::InvalidConfig`] on unknown members, empty or
    /// non-numeric arrays, out-of-domain thresholds, or a cartesian
    /// product beyond [`MAX_RULE_VARIANTS`].
    pub fn from_axes_json(v: &Value) -> Result<Self, AcsError> {
        let Value::Object(members) = v else {
            return Err(bad("grid", "must be a JSON object of axis arrays"));
        };
        let mut grid = Self::baseline();
        for (name, value) in members {
            let Some(axis) = grid.axis_mut(name) else {
                return Err(bad("grid", &format!("unknown axis {name:?}")));
            };
            let Some(items) = value.as_array() else {
                return Err(bad(name, "must be an array of numbers"));
            };
            if items.is_empty() {
                return Err(bad(name, "must not be empty"));
            }
            let mut parsed = Vec::with_capacity(items.len());
            for item in items {
                parsed.push(threshold(name, item)?);
            }
            *axis = parsed;
        }
        grid.check_cardinality()?;
        Ok(grid)
    }

    /// Parse `{"axis": v, ...}` — the single-variant request shape; each
    /// known axis maps to one scalar threshold.
    ///
    /// # Errors
    ///
    /// [`AcsError::InvalidConfig`] on unknown members or out-of-domain
    /// thresholds.
    pub fn from_rule_json(v: &Value) -> Result<Self, AcsError> {
        let Value::Object(members) = v else {
            return Err(bad("rule", "must be a JSON object of thresholds"));
        };
        let mut grid = Self::baseline();
        for (name, value) in members {
            let Some(axis) = grid.axis_mut(name) else {
                return Err(bad("rule", &format!("unknown threshold {name:?}")));
            };
            *axis = vec![threshold(name, value)?];
        }
        Ok(grid)
    }

    /// The grid's strict and loose corner regimes.
    ///
    /// Every device-level rule in `acs_policy` classifies with `>=`
    /// comparisons against its thresholds and a regime takes the
    /// strictest outcome across rules, so classification is monotone in
    /// each threshold: lowering any threshold never lowers a device's
    /// classification. "Lower = stricter" therefore holds on every axis
    /// except `mem_bw_license`, whose `0` sentinel disables the rule
    /// entirely (the loosest setting) — there the strictest corner is
    /// the smallest *positive* value on the axis. Consequently every
    /// variant's classification of a device is sandwiched between the
    /// two corners': `classify(loose) <= classify(v) <= classify(strict)`
    /// for all `v` in the grid. A device the corners agree on is pinned
    /// for the whole grid. The HBM axes ride along unused — they never
    /// reach device-level classification.
    #[must_use]
    pub fn corner_specs(&self) -> (RuleSpec, RuleSpec) {
        let axes = self.axes();
        let mut strict = [0.0_f64; 11];
        let mut loose = [0.0_f64; 11];
        for (i, axis) in axes.iter().enumerate() {
            if i == 8 {
                let min_enacted =
                    axis.iter().copied().filter(|&v| v > 0.0).fold(f64::INFINITY, f64::min);
                strict[i] = if min_enacted.is_finite() { min_enacted } else { 0.0 };
                loose[i] = if axis.contains(&0.0) {
                    0.0
                } else {
                    axis.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                };
            } else {
                strict[i] = axis.iter().copied().fold(f64::INFINITY, f64::min);
                loose[i] = axis.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            }
        }
        (RuleSpec::from_axis_values(&strict), RuleSpec::from_axis_values(&loose))
    }

    fn check_cardinality(&self) -> Result<(), AcsError> {
        let n = self.cardinality();
        if n > MAX_RULE_VARIANTS {
            return Err(bad(
                "grid",
                &format!("expands to {n} rule variants (limit {MAX_RULE_VARIANTS})"),
            ));
        }
        Ok(())
    }
}

impl Default for RuleGrid {
    fn default() -> Self {
        Self::baseline()
    }
}

/// A parsed `/v1/whatif` request: the rule grid plus the TPP operating
/// point the synthetic fleet is solved for.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfRequest {
    /// Rule variants to screen.
    pub grid: RuleGrid,
    /// TPP target the fleet's core counts are solved against.
    pub tpp_target: f64,
}

impl WhatIfRequest {
    /// Parse a request body: `{"rule": {...}}` for one variant,
    /// `{"grid": {...}}` for a batch, optional `"tpp_target"` (default
    /// 4800). An empty object screens the published baseline.
    ///
    /// # Errors
    ///
    /// [`AcsError::InvalidConfig`] on unknown members, both `rule` and
    /// `grid` present, or an out-of-domain grid / target.
    pub fn from_json(v: &Value) -> Result<Self, AcsError> {
        let Value::Object(members) = v else {
            return Err(bad("body", "must be a JSON object"));
        };
        for (name, _) in members {
            if !matches!(name.as_str(), "rule" | "grid" | "tpp_target") {
                return Err(bad("body", &format!("unknown member {name:?}")));
            }
        }
        let grid = match (v.get("rule"), v.get("grid")) {
            (Some(_), Some(_)) => {
                return Err(bad("body", "give either \"rule\" or \"grid\", not both"));
            }
            (Some(rule), None) => RuleGrid::from_rule_json(rule)?,
            (None, Some(axes)) => RuleGrid::from_axes_json(axes)?,
            (None, None) => RuleGrid::baseline(),
        };
        let tpp_target = match v.get("tpp_target") {
            None => 4800.0,
            Some(t) => {
                let Some(x) = t.as_f64() else {
                    return Err(bad("tpp_target", "must be a number"));
                };
                if !x.is_finite() || !(100.0..=100_000.0).contains(&x) {
                    return Err(bad("tpp_target", "must be in [100, 100000]"));
                }
                x
            }
        };
        Ok(WhatIfRequest { grid, tpp_target })
    }
}

fn bad(field: &str, reason: &str) -> AcsError {
    AcsError::InvalidConfig { field: field.to_owned(), reason: reason.to_owned() }
}

fn threshold(name: &str, v: &Value) -> Result<f64, AcsError> {
    let Some(x) = v.as_f64() else {
        return Err(bad(name, "threshold must be a number"));
    };
    if !x.is_finite() || x < 0.0 || x > 1.0e12 {
        return Err(bad(name, "threshold must be finite, non-negative, and at most 1e12"));
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_errors::json::parse;

    #[test]
    fn baseline_grid_is_one_published_variant() {
        let grid = RuleGrid::baseline();
        assert_eq!(grid.cardinality(), 1);
        assert_eq!(grid.variants(), vec![RuleSpec::baseline()]);
    }

    #[test]
    fn variants_expand_row_major_last_axis_fastest() {
        let mut grid = RuleGrid::baseline();
        grid.tpp_threshold_2022 = vec![1000.0, 2000.0];
        grid.hbm_exception_density = vec![3.0, 4.0];
        let specs = grid.variants();
        assert_eq!(specs.len(), 4);
        assert_eq!(
            specs.iter().map(|s| (s.acr_2022.tpp_threshold, s.hbm.exception_density)).collect::<Vec<_>>(),
            vec![(1000.0, 3.0), (1000.0, 4.0), (2000.0, 3.0), (2000.0, 4.0)]
        );
    }

    #[test]
    fn request_shapes_parse() {
        let single = parse(r#"{"rule":{"tpp_license":3000}}"#).unwrap();
        let req = WhatIfRequest::from_json(&single).unwrap();
        assert_eq!(req.grid.cardinality(), 1);
        assert_eq!(req.grid.variants()[0].acr_2023.tpp_license, 3000.0);
        assert_eq!(req.tpp_target, 4800.0);

        let batch = parse(r#"{"grid":{"tpp_license":[2400,4800]},"tpp_target":2400}"#).unwrap();
        let req = WhatIfRequest::from_json(&batch).unwrap();
        assert_eq!(req.grid.cardinality(), 2);
        assert_eq!(req.tpp_target, 2400.0);

        let empty = parse("{}").unwrap();
        assert_eq!(WhatIfRequest::from_json(&empty).unwrap().grid, RuleGrid::baseline());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for body in [
            r#"{"grid":{"bogus_axis":[1]}}"#,
            r#"{"grid":{"tpp_license":[]}}"#,
            r#"{"grid":{"tpp_license":[null]}}"#,
            r#"{"grid":{"tpp_license":[1e300,1e300]}}"#,
            r#"{"rule":{"tpp_license":-5}}"#,
            r#"{"rule":{"tpp_license":1},"grid":{"tpp_license":[1]}}"#,
            r#"{"surprise":1}"#,
            r#"{"tpp_target":0}"#,
            r#"[1,2,3]"#,
        ] {
            let v = parse(body).unwrap();
            let err = WhatIfRequest::from_json(&v).unwrap_err();
            assert_eq!(err.kind(), "invalid_config", "{body}");
        }
    }

    #[test]
    fn canonical_text_is_pinned() {
        // The `/v1/whatif` response-cache key embeds this text, so it
        // must not move: every axis, in expansion order, defaults filled.
        let v = parse(
            r#"{"grid":{"tpp_license":[2400,4800],"mem_bw_license":[0,800.5],"pd_nac_low":[1.5e-3]}}"#,
        )
        .unwrap();
        let grid = WhatIfRequest::from_json(&v).unwrap().grid;
        assert_eq!(
            grid.to_json_value().to_json(),
            "{\"tpp_threshold_2022\":[4800],\"device_bw_threshold_2022\":[600],\
             \"tpp_license\":[2400,4800],\"tpp_floor\":[1600],\"tpp_nac\":[2400],\
             \"pd_license\":[5.92],\"pd_nac_high\":[3.2],\"pd_nac_low\":[0.0015],\
             \"mem_bw_license\":[0,800.5],\"hbm_control_density\":[2],\
             \"hbm_exception_density\":[3.3]}"
        );
    }

    #[test]
    fn cardinality_saturates_instead_of_wrapping() {
        let mut grid = RuleGrid::baseline();
        for axis in AXES {
            *grid.axis_mut(axis).unwrap() = vec![1.0; 64];
        }
        // 64^11 = 2^66 wraps to 0 in a plain product.
        assert_eq!(grid.cardinality(), usize::MAX);
    }

    #[test]
    fn cartesian_bomb_is_rejected() {
        let mut grid = String::from(r#"{"grid":{"#);
        for (i, axis) in AXES.iter().enumerate() {
            if i > 0 {
                grid.push(',');
            }
            grid.push_str(&format!(r#""{axis}":[1,2,3,4,5]"#));
        }
        grid.push_str("}}");
        let v = parse(&grid).unwrap();
        let err = WhatIfRequest::from_json(&v).unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
    }
}
