//! Architecture-first performance indicators (§5.3, Figures 11 and 12).
//!
//! A TPP ceiling alone leaves a wide latency distribution across the
//! compliant design space. Fixing one architectural parameter narrows the
//! distribution; the narrowing factor measures how strongly that
//! parameter predicts workload performance.

use acs_dse::{narrowing_factor, Distribution, EvaluatedDesign, SweptParams};
use std::fmt;

/// Which latency a column summarises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyMetric {
    /// Time to first token (prefill).
    Ttft,
    /// Time between tokens (decode).
    Tbt,
}

impl LatencyMetric {
    fn of(self, d: &EvaluatedDesign) -> f64 {
        match self {
            LatencyMetric::Ttft => d.ttft_s,
            LatencyMetric::Tbt => d.tbt_s,
        }
    }
}

impl fmt::Display for LatencyMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyMetric::Ttft => write!(f, "TTFT"),
            LatencyMetric::Tbt => write!(f, "TBT"),
        }
    }
}

/// A single architectural parameter pinned to one value.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FixedParam {
    /// Lanes per core.
    Lanes(u32),
    /// L1 KiB per core.
    L1Kib(u32),
    /// L2 MiB.
    L2Mib(u32),
    /// HBM bandwidth in TB/s.
    HbmTbS(f64),
    /// Device bandwidth in GB/s.
    DeviceBwGbS(f64),
    /// Systolic array dimension.
    SystolicDim(u32),
}

impl FixedParam {
    /// Whether a design's parameters match this constraint.
    #[must_use]
    pub fn matches(self, p: &SweptParams) -> bool {
        match self {
            FixedParam::Lanes(v) => p.lanes_per_core == v,
            FixedParam::L1Kib(v) => p.l1_kib == v,
            FixedParam::L2Mib(v) => p.l2_mib == v,
            FixedParam::HbmTbS(v) => (p.hbm_tb_s - v).abs() < 1e-9,
            FixedParam::DeviceBwGbS(v) => (p.device_bw_gb_s - v).abs() < 1e-9,
            FixedParam::SystolicDim(v) => p.systolic_dim == v,
        }
    }

    /// The column labels used in Figures 11 and 12.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            FixedParam::Lanes(v) => format!("{v} Lane"),
            FixedParam::L1Kib(v) => format!("{v} KB L1"),
            FixedParam::L2Mib(v) => format!("{v} MB L2"),
            FixedParam::HbmTbS(v) => format!("{v} TB/s M. BW"),
            FixedParam::DeviceBwGbS(v) => format!("{v:.0} GB/s D. BW"),
            FixedParam::SystolicDim(v) => format!("{v}x{v} Systolic"),
        }
    }

    /// Figure 11's fixed-parameter columns (performance-enhancing values
    /// from the Table-3 sweep).
    #[must_use]
    pub fn fig11_columns() -> Vec<FixedParam> {
        vec![
            FixedParam::Lanes(1),
            FixedParam::L1Kib(1024),
            FixedParam::L2Mib(48),
            FixedParam::HbmTbS(2.8),
            FixedParam::DeviceBwGbS(500.0),
        ]
    }

    /// Figure 12's fixed-parameter columns (performance-restricting
    /// values from the Table-5 sweep).
    #[must_use]
    pub fn fig12_columns() -> Vec<FixedParam> {
        vec![
            FixedParam::Lanes(8),
            FixedParam::L1Kib(32),
            FixedParam::L2Mib(8),
            FixedParam::HbmTbS(0.8),
            FixedParam::DeviceBwGbS(400.0),
        ]
    }
}

/// One column of a Figure-11/12-style distribution plot.
#[derive(Debug, Clone, PartialEq)]
pub struct IndicatorColumn {
    /// Column label ("TPP Only" or a fixed parameter).
    pub label: String,
    /// Latency metric summarised.
    pub metric: LatencyMetric,
    /// Distribution of that latency over the column's designs (seconds).
    pub distribution: Distribution,
    /// Range narrowing relative to the TPP-only column (1.0 for the
    /// TPP-only column itself).
    pub narrowing: f64,
}

/// Build the Figure-11/12 columns: a "TPP Only" column over all `designs`
/// plus one column per fixed parameter. Designs are typically
/// pre-filtered to the reticle limit, as in the paper. Returns an empty
/// vector when `designs` is empty or a column has no members.
#[must_use]
pub fn indicator_report(
    designs: &[EvaluatedDesign],
    metric: LatencyMetric,
    columns: &[FixedParam],
) -> Vec<IndicatorColumn> {
    let samples: Vec<f64> = designs.iter().map(|d| metric.of(d)).collect();
    indicator_report_of(&samples, metric, columns, |i, c| columns[c].matches(&designs[i].params))
}

/// [`indicator_report`] on one `metric` sample per design, for callers
/// that keep a design's latency without the design: `member(i, c)` says
/// whether design `i` belongs to the column of `columns[c]`. Each
/// column's samples keep design order, so the columns equal
/// [`indicator_report`]'s bit for bit.
#[must_use]
pub fn indicator_report_of(
    samples: &[f64],
    metric: LatencyMetric,
    columns: &[FixedParam],
    member: impl Fn(usize, usize) -> bool,
) -> Vec<IndicatorColumn> {
    let Some(full) = Distribution::from_samples(samples) else {
        return Vec::new();
    };
    let mut out = vec![IndicatorColumn {
        label: "TPP Only".to_owned(),
        metric,
        distribution: full,
        narrowing: 1.0,
    }];
    for (c, col) in columns.iter().enumerate() {
        let subset: Vec<f64> = samples
            .iter()
            .enumerate()
            .filter(|&(i, _)| member(i, c))
            .map(|(_, &v)| v)
            .collect();
        if let Some(dist) = Distribution::from_samples(&subset) {
            out.push(IndicatorColumn {
                label: col.label(),
                metric,
                distribution: dist,
                narrowing: narrowing_factor(&full, &dist),
            });
        }
    }
    out
}

/// Enumerate every fixed-parameter column present in `designs` (one per
/// distinct value of each swept parameter) and return the one that
/// narrows `metric`'s distribution the most, with its narrowing factor.
///
/// This is the automated version of §5.3's manual column choice: given a
/// design space, which single architectural constraint is the strongest
/// performance indicator? Columns covering fewer than `min_count` designs
/// or the whole space are skipped. Returns `None` when no column
/// qualifies.
#[must_use]
pub fn suggest_indicator(
    designs: &[EvaluatedDesign],
    metric: LatencyMetric,
    min_count: usize,
) -> Option<(FixedParam, f64)> {
    let mut candidates: Vec<FixedParam> = Vec::new();
    let mut push_unique = |p: FixedParam| {
        if !candidates.contains(&p) {
            candidates.push(p);
        }
    };
    for d in designs {
        push_unique(FixedParam::Lanes(d.params.lanes_per_core));
        push_unique(FixedParam::L1Kib(d.params.l1_kib));
        push_unique(FixedParam::L2Mib(d.params.l2_mib));
        push_unique(FixedParam::HbmTbS(d.params.hbm_tb_s));
        push_unique(FixedParam::DeviceBwGbS(d.params.device_bw_gb_s));
        push_unique(FixedParam::SystolicDim(d.params.systolic_dim));
    }
    candidates
        .into_iter()
        .filter_map(|col| {
            let members = designs.iter().filter(|d| col.matches(&d.params)).count();
            if members < min_count || members == designs.len() {
                return None;
            }
            let report = indicator_report(designs, metric, &[col]);
            report.get(1).map(|c| (col, c.narrowing))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_dse::{DseRunner, SweepSpec};
    use acs_llm::{ModelConfig, WorkloadConfig};

    fn small_designs() -> Vec<EvaluatedDesign> {
        let spec = SweepSpec {
            systolic_dims: vec![16],
            lanes_per_core: vec![1, 4],
            l1_kib: vec![192, 1024],
            l2_mib: vec![40],
            hbm_tb_s: vec![2.0, 2.8],
            device_bw_gb_s: vec![600.0],
        };
        DseRunner::new(ModelConfig::gpt3_175b(), WorkloadConfig::paper_default())
            .run(&spec, 4800.0)
    }

    #[test]
    fn tpp_only_column_comes_first_with_unit_narrowing() {
        let designs = small_designs();
        let cols = indicator_report(&designs, LatencyMetric::Tbt, &[FixedParam::HbmTbS(2.8)]);
        assert_eq!(cols[0].label, "TPP Only");
        assert_eq!(cols[0].narrowing, 1.0);
        assert_eq!(cols[0].distribution.count, designs.len());
    }

    #[test]
    fn fixing_memory_bandwidth_narrows_tbt_sharply() {
        // §5.3's headline mechanism: TBT distributions collapse when
        // memory bandwidth is pinned.
        let designs = small_designs();
        let cols = indicator_report(&designs, LatencyMetric::Tbt, &[FixedParam::HbmTbS(2.8)]);
        let bw_col = &cols[1];
        assert!(bw_col.narrowing > 3.0, "narrowing = {}", bw_col.narrowing);
    }

    #[test]
    fn fixing_lanes_narrows_ttft_more_than_tbt() {
        let designs = small_designs();
        let ttft = indicator_report(&designs, LatencyMetric::Ttft, &[FixedParam::Lanes(1)]);
        let tbt = indicator_report(&designs, LatencyMetric::Tbt, &[FixedParam::Lanes(1)]);
        assert!(
            ttft[1].narrowing > tbt[1].narrowing,
            "lanes are a prefill indicator: {} vs {}",
            ttft[1].narrowing,
            tbt[1].narrowing
        );
    }

    #[test]
    fn unmatched_columns_are_dropped() {
        let designs = small_designs();
        let cols =
            indicator_report(&designs, LatencyMetric::Ttft, &[FixedParam::L2Mib(999)]);
        assert_eq!(cols.len(), 1, "only the TPP Only column remains");
    }

    #[test]
    fn empty_design_space_yields_no_columns() {
        assert!(indicator_report(&[], LatencyMetric::Ttft, &[]).is_empty());
    }

    #[test]
    fn suggest_indicator_finds_memory_bandwidth_for_decode() {
        let designs = small_designs();
        let (col, factor) =
            suggest_indicator(&designs, LatencyMetric::Tbt, 2).expect("a column qualifies");
        assert!(matches!(col, FixedParam::HbmTbS(_)), "suggested {col:?}");
        assert!(factor > 1.0);
    }

    #[test]
    fn suggest_indicator_ignores_tiny_columns() {
        let designs = small_designs();
        // With min_count above every column size, nothing qualifies.
        assert!(suggest_indicator(&designs, LatencyMetric::Tbt, designs.len() + 1).is_none());
        assert!(suggest_indicator(&[], LatencyMetric::Tbt, 1).is_none());
    }

    #[test]
    fn figure_column_presets_have_five_entries() {
        assert_eq!(FixedParam::fig11_columns().len(), 5);
        assert_eq!(FixedParam::fig12_columns().len(), 5);
    }

    #[test]
    fn labels_match_figure_axis_text() {
        assert_eq!(FixedParam::Lanes(1).label(), "1 Lane");
        assert_eq!(FixedParam::L1Kib(1024).label(), "1024 KB L1");
        assert_eq!(FixedParam::L2Mib(48).label(), "48 MB L2");
        assert_eq!(FixedParam::HbmTbS(2.8).label(), "2.8 TB/s M. BW");
        assert_eq!(FixedParam::DeviceBwGbS(500.0).label(), "500 GB/s D. BW");
    }
}
