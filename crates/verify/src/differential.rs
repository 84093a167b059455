//! The generic differential runner: evaluate two (path, transform) arms
//! over one sweep and diff everything — per-point canonical digests,
//! numeric values under a tolerance class, and the failure ledger.
//!
//! The repo prices sweeps with one production engine (the lattice batch
//! engine behind `DseRunner::run_report`), held to the naive
//! [`crate::reference`] oracle. A differential case states each such
//! promise as data: *which* two arms, *what* metamorphic transform,
//! *which* tolerance — the comparison machinery is shared and
//! exhaustive.
//!
//! A **metamorphic transform** is a change to the inputs or the engine
//! configuration that must not change results: reordering the candidate
//! list, pinning the scheduler to a different thread count (both
//! bit-exact), or round-tripping continuous axes through a unit
//! conversion (equal only up to float rounding, which is exactly what
//! the approximate tolerance classes are for).
//!
//! The what-if subsystem gets the same treatment: [`whatif_grid_diff`]
//! compares the batch rule-grid screening path against a naive
//! one-rule-at-a-time loop over the [`whatif_grid_64`] grid, and
//! [`whatif_engine_vs_reference`] compares every record the engine
//! streams against the naive record oracle. [`grid_body_vs_reference`]
//! holds the service's `/v1/screen` grid bodies, written straight to
//! bytes, to the same grids priced and encoded naively, and
//! [`whatif_served_vs_reference`] holds the service's `/v1/whatif`
//! documents, screened over its kept priced fleets, to the record oracle
//! over freshly priced ones.

use crate::tolerance::Tolerance;
use acs_cache::CacheKey;
use acs_dse::{CandidateParams, DseRunner, EvaluatedDesign, SweepReport, SweepSpec};
use acs_errors::json::{object, Value};
use acs_errors::AcsError;
use acs_llm::rng::SplitMix64;
use acs_llm::{ModelConfig, WorkloadConfig};
use acs_policy::{Acr2022, Acr2023, DeviceMetrics, HbmRule2024, MemBwRule};
use acs_scenarios::{Scenario, ScenarioRegistry};
use acs_serve::handlers::{handle_lane, AppState};
use acs_serve::http::HttpRequest;
use acs_whatif::{ClassificationLedger, RuleGrid, RuleSpec, WhatIfEngine};
use std::collections::HashMap;
use std::fmt;

/// Which evaluation pipeline an arm drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPath {
    /// The naive oracle ([`crate::reference::run_report`]): one point at
    /// a time, fresh plans, nothing shared between points.
    Reference,
    /// The production sweep driver over fused leg vectors
    /// (`DseRunner::run_report`).
    Lattice,
}

impl EvalPath {
    fn run(self, runner: &DseRunner, candidates: &[CandidateParams]) -> SweepReport {
        match self {
            EvalPath::Reference => crate::reference::run_report(runner, candidates),
            EvalPath::Lattice => runner.run_report(candidates),
        }
    }
}

impl fmt::Display for EvalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EvalPath::Reference => "reference",
            EvalPath::Lattice => "lattice",
        })
    }
}

/// A result-preserving change to an arm's inputs or engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// No change: the arm differs only by its [`EvalPath`].
    Identity,
    /// Seeded Fisher–Yates shuffle of the candidate list. The memo and
    /// plans key on parameter *values*, not sweep positions, so the same
    /// candidates in any order must produce the same result *set*;
    /// comparison switches to set discipline automatically.
    PermuteOrder {
        /// Shuffle seed (deterministic replay).
        seed: u64,
    },
    /// Round-trip the continuous axes through a unit conversion
    /// (TB/s → GB/s → TB/s, GB/s → MB/s → GB/s). Exact over the reals,
    /// off by an ulp or two over `f64` — requires an approximate
    /// tolerance, which is the point: it exercises the tolerance
    /// machinery against realistically perturbed inputs.
    RescaleUnits,
    /// Pin the sweep scheduler to exactly this many worker threads.
    /// Scheduling must never leak into results.
    Threads(usize),
}

impl Transform {
    /// Rewrite the candidate list for this arm.
    #[must_use]
    pub fn apply(&self, candidates: &[CandidateParams]) -> Vec<CandidateParams> {
        match self {
            Transform::Identity | Transform::Threads(_) => candidates.to_vec(),
            Transform::PermuteOrder { seed } => {
                let mut rng = SplitMix64::new(*seed);
                let mut shuffled = candidates.to_vec();
                for i in (1..shuffled.len()).rev() {
                    #[allow(clippy::cast_possible_truncation)]
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    shuffled.swap(i, j);
                }
                shuffled
            }
            Transform::RescaleUnits => candidates
                .iter()
                .map(|c| {
                    let mut c = c.clone();
                    c.hbm_tb_s = c.hbm_tb_s * 1000.0 / 1000.0;
                    c.device_bw_gb_s = c.device_bw_gb_s * 1000.0 / 1000.0;
                    c
                })
                .collect(),
        }
    }

    /// Configure the runner for this arm.
    #[must_use]
    pub fn configure(&self, runner: DseRunner) -> DseRunner {
        match self {
            Transform::Threads(n) => runner.with_threads(*n),
            _ => runner,
        }
    }

    /// Whether this transform reorders points (switching the comparison
    /// from index-paired to set discipline).
    #[must_use]
    pub fn reorders(&self) -> bool {
        matches!(self, Transform::PermuteOrder { .. })
    }

    /// The tightest tolerance this transform can honestly promise:
    /// everything is bit-exact except the unit round-trip.
    #[must_use]
    pub fn natural_tolerance(&self) -> Tolerance {
        match self {
            Transform::RescaleUnits => Tolerance::Relative(1e-9),
            _ => Tolerance::Exact,
        }
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transform::Identity => f.write_str("identity"),
            Transform::PermuteOrder { seed } => write!(f, "permute(seed={seed})"),
            Transform::RescaleUnits => f.write_str("rescale-units"),
            Transform::Threads(n) => write!(f, "threads({n})"),
        }
    }
}

/// One side of a differential comparison.
#[derive(Debug, Clone)]
pub struct Arm {
    /// The pipeline to drive.
    pub path: EvalPath,
    /// The metamorphic change applied to this arm.
    pub transform: Transform,
}

impl Arm {
    /// An untransformed arm on `path`.
    #[must_use]
    pub fn plain(path: EvalPath) -> Self {
        Arm { path, transform: Transform::Identity }
    }
}

impl fmt::Display for Arm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.path, self.transform)
    }
}

/// A declarative differential case: two arms and the tolerance their
/// results must meet.
#[derive(Debug, Clone)]
pub struct DiffCase {
    /// Name used in reports and mismatch messages.
    pub label: String,
    /// Reference arm.
    pub left: Arm,
    /// Arm under test.
    pub right: Arm,
    /// Equality discipline for numeric leaves.
    pub tolerance: Tolerance,
}

impl DiffCase {
    /// Two plain paths compared bit-exactly — the path-equivalence shape.
    #[must_use]
    pub fn paths(label: &str, left: EvalPath, right: EvalPath) -> Self {
        DiffCase {
            label: label.to_owned(),
            left: Arm::plain(left),
            right: Arm::plain(right),
            tolerance: Tolerance::Exact,
        }
    }

    /// One path against its transformed self, at the transform's natural
    /// tolerance — the metamorphic shape.
    #[must_use]
    pub fn metamorphic(label: &str, path: EvalPath, transform: Transform) -> Self {
        let tolerance = transform.natural_tolerance();
        DiffCase { label: label.to_owned(), left: Arm::plain(path), right: Arm { path, transform }, tolerance }
    }
}

/// The built-in pairings: the production engine against the reference
/// oracle, plus the metamorphic transforms it promises to be invariant
/// to. This is what `acs-verify diff` runs; `tests/lattice_equivalence.rs`
/// runs the same shapes over the golden sweeps.
#[must_use]
pub fn standard_suite() -> Vec<DiffCase> {
    vec![
        DiffCase::paths("lattice-vs-reference", EvalPath::Reference, EvalPath::Lattice),
        DiffCase::metamorphic(
            "lattice-permuted",
            EvalPath::Lattice,
            Transform::PermuteOrder { seed: 0xA77 },
        ),
        DiffCase::metamorphic("lattice-threads-1", EvalPath::Lattice, Transform::Threads(1)),
        DiffCase::metamorphic("lattice-threads-3", EvalPath::Lattice, Transform::Threads(3)),
        DiffCase::metamorphic("lattice-rescaled", EvalPath::Lattice, Transform::RescaleUnits),
    ]
}

/// Pools each random sweep axis draws from: plausible hardware values
/// spanning the paper's Table-3/Table-5 ranges plus edges the builder
/// quantizes (sub-unit HBM, odd systolic dims).
const DIM_POOL: [u32; 5] = [8, 16, 24, 32, 48];
const LANES_POOL: [u32; 5] = [1, 2, 4, 6, 8];
const L1_POOL: [u32; 6] = [64, 128, 192, 256, 512, 1024];
const L2_POOL: [u32; 6] = [24, 40, 48, 64, 80, 96];
const HBM_POOL: [f64; 6] = [0.8, 1.6, 2.0, 2.4, 3.2, 4.0];
const BW_POOL: [f64; 5] = [300.0, 400.0, 600.0, 750.0, 900.0];

fn sample_u32(rng: &mut SplitMix64, pool: &[u32], max_take: usize) -> Vec<u32> {
    let mut pool = pool.to_vec();
    for i in (1..pool.len()).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }
    #[allow(clippy::cast_possible_truncation)]
    let take = 1 + (rng.next_u64() % max_take as u64) as usize;
    pool.truncate(take.min(pool.len()));
    pool.sort_unstable();
    pool
}

fn sample_f64(rng: &mut SplitMix64, pool: &[f64], max_take: usize) -> Vec<f64> {
    let mut pool = pool.to_vec();
    for i in (1..pool.len()).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }
    #[allow(clippy::cast_possible_truncation)]
    let take = 1 + (rng.next_u64() % max_take as u64) as usize;
    pool.truncate(take.min(pool.len()));
    pool.sort_by(f64::total_cmp);
    pool
}

/// Draw a well-formed random [`SweepSpec`] from realistic axis pools,
/// deterministically in `seed` — the property-based input source behind
/// the seeded `acs-verify diff` cases. Every generated spec must diff
/// clean between any two evaluation paths; any seed that does not is a
/// one-line reproducer.
#[must_use]
pub fn random_sweep_spec(seed: u64) -> SweepSpec {
    let mut rng = SplitMix64::new(seed);
    SweepSpec {
        systolic_dims: sample_u32(&mut rng, &DIM_POOL, 2),
        lanes_per_core: sample_u32(&mut rng, &LANES_POOL, 2),
        l1_kib: sample_u32(&mut rng, &L1_POOL, 3),
        l2_mib: sample_u32(&mut rng, &L2_POOL, 2),
        hbm_tb_s: sample_f64(&mut rng, &HBM_POOL, 3),
        device_bw_gb_s: sample_f64(&mut rng, &BW_POOL, 2),
    }
}

/// One disagreement between the two arms.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Where in the sweep (candidate name, or a ledger/shape note).
    pub at: String,
    /// What differed.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.at, self.detail)
    }
}

/// The outcome of one differential case.
#[derive(Debug)]
pub struct DiffReport {
    /// The case's label.
    pub label: String,
    /// Points evaluated per arm.
    pub points: usize,
    /// Successful designs on the reference arm.
    pub ok: usize,
    /// Ledgered failures on the reference arm.
    pub failed: usize,
    /// Every disagreement found (empty on a clean diff).
    pub mismatches: Vec<Mismatch>,
}

impl DiffReport {
    /// Whether the two arms agreed everywhere.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Panic with every mismatch listed — for use inside tests.
    ///
    /// # Panics
    ///
    /// When the diff is not clean.
    #[track_caller]
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "differential case '{}' found {} mismatch(es) over {} points:\n{}",
            self.label,
            self.mismatches.len(),
            self.points,
            self.mismatches.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n"),
        );
    }
}

/// Canonical content digest of one evaluated design: any drift in any
/// field — including float bit patterns, which the canonical JSON codec
/// round-trips exactly — changes this value.
///
/// # Errors
///
/// Propagates serialization failure (non-finite floats).
pub fn design_digest(design: &EvaluatedDesign) -> Result<u64, AcsError> {
    Ok(CacheKey::from_value(&design.to_json_value()?).digest())
}

/// The differential harness: holds the model/workload context and
/// evaluates cases over caller-supplied candidate lists.
#[derive(Debug)]
pub struct Differential {
    model: ModelConfig,
    workload: WorkloadConfig,
}

impl Differential {
    /// A harness over an explicit model and workload.
    #[must_use]
    pub fn new(model: ModelConfig, workload: WorkloadConfig) -> Self {
        Differential { model, workload }
    }

    /// The paper's default verification context (Llama-3-8B, paper
    /// workload) — what the golden equivalence tests use.
    #[must_use]
    pub fn paper_default() -> Self {
        Differential::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default())
    }

    /// A fresh untransformed runner over the harness's context.
    #[must_use]
    pub fn runner(&self) -> DseRunner {
        DseRunner::new(self.model.clone(), self.workload)
    }

    /// Evaluate both arms of `case` over `candidates` and diff them.
    #[must_use]
    pub fn run(&self, candidates: &[CandidateParams], case: &DiffCase) -> DiffReport {
        let left = self.eval_arm(candidates, &case.left);
        let right = self.eval_arm(candidates, &case.right);
        let as_set = case.left.transform.reorders() || case.right.transform.reorders();
        let mut mismatches = Vec::new();
        compare_reports(&left, &right, case.tolerance, as_set, &mut mismatches);
        DiffReport {
            label: case.label.clone(),
            points: left.total(),
            ok: left.designs.len(),
            failed: left.failures.len(),
            mismatches,
        }
    }

    fn eval_arm(&self, candidates: &[CandidateParams], arm: &Arm) -> SweepReport {
        let runner = arm
            .transform
            .configure(DseRunner::new(self.model.clone(), self.workload));
        let transformed = arm.transform.apply(candidates);
        arm.path.run(&runner, &transformed)
    }
}

fn push(mismatches: &mut Vec<Mismatch>, at: impl Into<String>, detail: String) {
    // A broken sweep disagrees everywhere; a bounded list keeps the
    // report readable while still proving the diff is dirty.
    if mismatches.len() < 32 {
        mismatches.push(Mismatch { at: at.into(), detail });
    }
}

fn compare_reports(
    left: &SweepReport,
    right: &SweepReport,
    tolerance: Tolerance,
    as_set: bool,
    mismatches: &mut Vec<Mismatch>,
) {
    if left.total() != right.total() {
        push(
            mismatches,
            "shape",
            format!("left evaluated {} points, right {}", left.total(), right.total()),
        );
        return;
    }
    compare_failures(left, right, as_set, mismatches);
    if as_set {
        compare_designs_as_set(left, right, mismatches);
    } else {
        compare_designs_paired(left, right, tolerance, mismatches);
    }
}

fn compare_failures(
    left: &SweepReport,
    right: &SweepReport,
    as_set: bool,
    mismatches: &mut Vec<Mismatch>,
) {
    if left.failures.len() != right.failures.len() {
        push(
            mismatches,
            "ledger",
            format!("{} failures vs {}", left.failures.len(), right.failures.len()),
        );
        return;
    }
    if as_set {
        // Reordered sweeps fail at different indices; the (params, kind,
        // message) multiset is the order-free invariant.
        let keyed = |report: &SweepReport| {
            let mut v: Vec<(String, &'static str, String)> = report
                .failures
                .iter()
                .map(|f| (f.params.clone(), f.kind(), f.reason.to_string()))
                .collect();
            v.sort();
            v
        };
        let (l, r) = (keyed(left), keyed(right));
        for (lf, rf) in l.iter().zip(&r) {
            if lf != rf {
                push(mismatches, lf.0.clone(), format!("failure {lf:?} vs {rf:?}"));
            }
        }
        return;
    }
    for (lf, rf) in left.failures.iter().zip(&right.failures) {
        if lf.index != rf.index
            || lf.params != rf.params
            || lf.kind() != rf.kind()
            || lf.reason.to_string() != rf.reason.to_string()
        {
            push(mismatches, format!("failure #{}", lf.index), format!("({lf}) vs ({rf})"));
        }
    }
}

fn compare_designs_as_set(left: &SweepReport, right: &SweepReport, mismatches: &mut Vec<Mismatch>) {
    let keyed = |report: &SweepReport| -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = report
            .successes()
            .map(|d| (d.name.clone(), design_digest(d).unwrap_or(0)))
            .collect();
        v.sort();
        v
    };
    let (l, r) = (keyed(left), keyed(right));
    if l.len() != r.len() {
        push(mismatches, "designs", format!("{} successes vs {}", l.len(), r.len()));
        return;
    }
    for ((ln, ld), (rn, rd)) in l.iter().zip(&r) {
        if ln != rn {
            push(mismatches, ln.clone(), format!("design sets differ: {ln} vs {rn}"));
        } else if ld != rd {
            push(mismatches, ln.clone(), format!("digest {ld:#018x} vs {rd:#018x}"));
        }
    }
}

fn compare_designs_paired(
    left: &SweepReport,
    right: &SweepReport,
    tolerance: Tolerance,
    mismatches: &mut Vec<Mismatch>,
) {
    if left.designs.len() != right.designs.len() {
        push(
            mismatches,
            "designs",
            format!("{} successes vs {}", left.designs.len(), right.designs.len()),
        );
        return;
    }
    for ((li, ld), (ri, rd)) in left.designs.iter().zip(&right.designs) {
        if li != ri {
            push(mismatches, ld.name.clone(), format!("success index {li} vs {ri}"));
            continue;
        }
        if tolerance == Tolerance::Exact {
            match (design_digest(ld), design_digest(rd)) {
                (Ok(a), Ok(b)) if a == b => {}
                (Ok(a), Ok(b)) => {
                    push(mismatches, ld.name.clone(), format!("digest {a:#018x} vs {b:#018x}"));
                }
                _ => push(mismatches, ld.name.clone(), "design failed to serialize".to_owned()),
            }
            continue;
        }
        compare_design_leaves(ld, rd, tolerance, mismatches);
    }
}

/// Field-by-field comparison of two designs' canonical JSON under an
/// approximate tolerance: numeric leaves must sit within tolerance,
/// everything else must match exactly, and the leaf *paths* must agree.
fn compare_design_leaves(
    left: &EvaluatedDesign,
    right: &EvaluatedDesign,
    tolerance: Tolerance,
    mismatches: &mut Vec<Mismatch>,
) {
    let (Ok(lv), Ok(rv)) = (left.to_json_value(), right.to_json_value()) else {
        push(mismatches, left.name.clone(), "design failed to serialize".to_owned());
        return;
    };
    let (mut l, mut r) = (Vec::new(), Vec::new());
    flatten("", &lv, &mut l);
    flatten("", &rv, &mut r);
    if l.len() != r.len() {
        push(mismatches, left.name.clone(), format!("{} leaves vs {}", l.len(), r.len()));
        return;
    }
    for ((lp, ll), (rp, rl)) in l.iter().zip(&r) {
        if lp != rp {
            push(mismatches, left.name.clone(), format!("leaf path {lp} vs {rp}"));
            return;
        }
        let agree = match (ll, rl) {
            (Leaf::Num(a), Leaf::Num(b)) => tolerance.accepts(*a, *b),
            (a, b) => a == b,
        };
        if !agree {
            push(
                mismatches,
                left.name.clone(),
                format!("{lp}: {ll:?} vs {rl:?} exceeds tolerance {tolerance}"),
            );
        }
    }
}

/// The model-differential: a dense model against its one-expert top-1
/// MoE twin over the same candidates and path. A degenerate "mixture"
/// routes every token to the one expert every device already holds — no
/// router, no dispatch/combine exchange — so the lowering must be
/// byte-identical to the dense FFN and every evaluated design must
/// digest bit-equally. This pins the seam where the MoE lowering joins
/// the dense one: any accidental router FLOPs or phantom all-to-all in
/// the degenerate case shows up as a digest mismatch here.
#[must_use]
pub fn dense_vs_degenerate_moe_diff(
    candidates: &[CandidateParams],
    path: EvalPath,
) -> DiffReport {
    let workload = WorkloadConfig::paper_default();
    let dense = DseRunner::new(ModelConfig::llama3_8b(), workload);
    let moe = DseRunner::new(ModelConfig::llama3_8b().with_moe(1, 1), workload);
    diff_reports(
        &format!("dense-vs-degenerate-moe ({path})"),
        &path.run(&dense, candidates),
        &path.run(&moe, candidates),
    )
}

/// Diff two already-evaluated reports of one candidate list, paired in
/// candidate order and bit-exact, failure ledger included — for arms
/// the harness does not build itself, such as a scenario runner or a
/// datatype override.
#[must_use]
pub fn diff_reports(label: &str, left: &SweepReport, right: &SweepReport) -> DiffReport {
    let mut mismatches = Vec::new();
    compare_reports(left, right, Tolerance::Exact, false, &mut mismatches);
    DiffReport {
        label: label.to_owned(),
        points: left.total(),
        ok: left.designs.len(),
        failed: left.failures.len(),
        mismatches,
    }
}

/// The 64-variant rule grid the what-if differential and the golden
/// corpus both screen: 2 October-2022 TPP lines × 4 October-2023 licence
/// TPPs × 2 PD thresholds × 4 memory-bandwidth variants (0 = the rule is
/// not enacted).
#[must_use]
pub fn whatif_grid_64() -> RuleGrid {
    let mut grid = RuleGrid::baseline();
    grid.tpp_threshold_2022 = vec![2400.0, 4800.0];
    grid.tpp_license = vec![1600.0, 2400.0, 3600.0, 4800.0];
    grid.pd_license = vec![3.0, 5.92];
    grid.mem_bw_license = vec![0.0, 600.0, 800.0, 1000.0];
    grid
}

/// Expand `grid` the naive way — an explicit odometer over the axis
/// lists (last axis fastest, mirroring [`acs_whatif::AXES`] order) with
/// each variant's [`RuleSpec`] assembled from struct literals — and
/// screen `devices` one rule at a time. Deliberately shares no expansion
/// or ledger-assembly code with `RuleGrid::variants` /
/// `ClassificationLedger::screen`.
fn naive_whatif_ledgers(grid: &RuleGrid, devices: &[DeviceMetrics]) -> Vec<ClassificationLedger> {
    let axes: [&[f64]; 11] = [
        &grid.tpp_threshold_2022,
        &grid.device_bw_threshold_2022,
        &grid.tpp_license,
        &grid.tpp_floor,
        &grid.tpp_nac,
        &grid.pd_license,
        &grid.pd_nac_high,
        &grid.pd_nac_low,
        &grid.mem_bw_license,
        &grid.hbm_control_density,
        &grid.hbm_exception_density,
    ];
    let mut ledgers = Vec::with_capacity(grid.cardinality());
    let mut idx = [0usize; 11];
    'variants: loop {
        let pick = |axis: usize| axes[axis][idx[axis]];
        let spec = RuleSpec {
            acr_2022: Acr2022 { tpp_threshold: pick(0), device_bw_threshold_gb_s: pick(1) },
            acr_2023: Acr2023 {
                tpp_license: pick(2),
                tpp_floor: pick(3),
                tpp_nac: pick(4),
                pd_license: pick(5),
                pd_nac_high: pick(6),
                pd_nac_low: pick(7),
            },
            mem_bw: (pick(8) > 0.0).then(|| MemBwRule { license_threshold_gb_s: pick(8) }),
            hbm: HbmRule2024 { control_density: pick(9), exception_density: pick(10) },
        };
        let mut classes = Vec::with_capacity(devices.len());
        for metrics in devices {
            classes.push(spec.classify(metrics));
        }
        ledgers.push(ClassificationLedger { classes });
        for axis in (0..axes.len()).rev() {
            idx[axis] += 1;
            if idx[axis] < axes[axis].len() {
                continue 'variants;
            }
            idx[axis] = 0;
        }
        return ledgers;
    }
}

/// The what-if differential: the batch rule-grid path
/// (`RuleGrid::variants` + `ClassificationLedger::screen`) against a
/// naive one-rule-at-a-time loop, compared ledger for ledger across
/// every variant; a mismatch names the first device whose class
/// differs. This is what proves a `/v1/whatif` grid response means the
/// same thing as issuing its variants as individual requests.
#[must_use]
pub fn whatif_grid_diff(grid: &RuleGrid, devices: &[DeviceMetrics]) -> DiffReport {
    let batch: Vec<ClassificationLedger> =
        grid.variants().iter().map(|spec| ClassificationLedger::screen(spec, devices)).collect();
    let naive = naive_whatif_ledgers(grid, devices);
    let mut mismatches = Vec::new();
    if batch.len() != naive.len() {
        push(
            &mut mismatches,
            "shape",
            format!("batch expanded {} variants, naive {}", batch.len(), naive.len()),
        );
    } else {
        for (index, (b, n)) in batch.iter().zip(&naive).enumerate() {
            if b != n {
                let at = b.classes.iter().zip(&n.classes).position(|(x, y)| x != y);
                let detail = match at {
                    Some(i) => format!(
                        "device {i} ({}): {} vs naive {}",
                        devices[i].name(),
                        b.classes[i],
                        n.classes[i]
                    ),
                    None => format!(
                        "ledger of {} devices vs naive {}",
                        b.classes.len(),
                        n.classes.len()
                    ),
                };
                push(&mut mismatches, format!("variant {index}"), detail);
            }
        }
    }
    DiffReport {
        label: "whatif-batch-vs-naive".to_owned(),
        points: batch.len(),
        ok: batch.len(),
        failed: 0,
        mismatches,
    }
}

const TPP_RULE_POOL: [f64; 5] = [1600.0, 2400.0, 3600.0, 4800.0, 6000.0];
const PD_RULE_POOL: [f64; 4] = [1.6, 3.0, 4.0, 5.92];
const MEM_BW_RULE_POOL: [f64; 5] = [0.0, 600.0, 800.0, 1000.0, 1500.0];

/// Draw a random [`RuleGrid`] of at most 36 variants, deterministically
/// in `seed`: one to three values on the 2022 and 2023 TPP lines and the
/// memory-bandwidth rule, one or two on the 2023 licence PD threshold,
/// the published values elsewhere.
#[must_use]
pub fn random_rule_grid(seed: u64) -> RuleGrid {
    let mut rng = SplitMix64::new(seed);
    let mut grid = RuleGrid::baseline();
    grid.tpp_threshold_2022 = sample_f64(&mut rng, &TPP_RULE_POOL, 2);
    grid.tpp_license = sample_f64(&mut rng, &TPP_RULE_POOL, 3);
    grid.pd_license = sample_f64(&mut rng, &PD_RULE_POOL, 2);
    grid.mem_bw_license = sample_f64(&mut rng, &MEM_BW_RULE_POOL, 3);
    grid
}

/// The what-if engine against the naive record oracle
/// ([`crate::reference::whatif_records`]): every record
/// `WhatIfEngine::paper_default().run_streaming` emits for each grid
/// over each fleet must equal the rebuilt record in canonical bytes.
///
/// A fleet that every variant restricts in full, or in no part, never
/// reaches the fleet statistics, so the case is also dirty unless some
/// compared record has `0 < restricted_share < 1`, a non-null
/// `compliance_overhead` and a device flip.
#[must_use]
pub fn whatif_engine_vs_reference(
    grids: &[RuleGrid],
    fleets: &[(&str, &[EvaluatedDesign])],
) -> DiffReport {
    let engine = WhatIfEngine::paper_default();
    let mut mismatches = Vec::new();
    let (mut points, mut covered) = (0, false);
    for (fleet_label, fleet) in fleets {
        for (g, grid) in grids.iter().enumerate() {
            let at = |index: usize| format!("{fleet_label} grid {g} variant {index}");
            let expected = match crate::reference::whatif_records(grid, fleet) {
                Ok(records) => records,
                Err(e) => {
                    push(&mut mismatches, at(0), format!("reference failed: {e}"));
                    continue;
                }
            };
            points += expected.len();
            let mut emitted = 0;
            let run = engine.run_streaming(grid, fleet, |index, record| {
                emitted += 1;
                match expected.get(index) {
                    Some(want) if want.to_json() == record.to_json() => {
                        covered |= exercises_fleet_statistics(record);
                    }
                    Some(want) => push(&mut mismatches, at(index), first_difference(record, want)),
                    None => push(&mut mismatches, at(index), "record past the grid".to_owned()),
                }
                Ok(())
            });
            if let Err(e) = run {
                push(&mut mismatches, at(emitted), format!("engine failed: {e}"));
            } else if emitted != expected.len() {
                let detail =
                    format!("engine emitted {emitted} records, reference {}", expected.len());
                push(&mut mismatches, at(emitted), detail);
            }
        }
    }
    if !covered {
        let detail = "no compared record had 0 < restricted_share < 1, a compliance overhead \
                      and a device flip"
            .to_owned();
        push(&mut mismatches, "coverage", detail);
    }
    DiffReport {
        label: "whatif-engine-vs-reference".to_owned(),
        points,
        ok: points,
        failed: 0,
        mismatches,
    }
}

/// The `POST /v1/screen` request body for a grid over `spec` at
/// `tpp_target`, naming `scenarios` when there are any.
fn grid_request(spec: &SweepSpec, tpp_target: f64, scenarios: &[&str]) -> String {
    let ints =
        |xs: &[u32]| Value::Array(xs.iter().map(|&x| Value::Number(f64::from(x))).collect());
    let reals = |xs: &[f64]| Value::Array(xs.iter().copied().map(Value::Number).collect());
    let mut grid = vec![
        ("systolic_dims", ints(&spec.systolic_dims)),
        ("lanes_per_core", ints(&spec.lanes_per_core)),
        ("l1_kib", ints(&spec.l1_kib)),
        ("l2_mib", ints(&spec.l2_mib)),
        ("hbm_tb_s", reals(&spec.hbm_tb_s)),
        ("device_bw_gb_s", reals(&spec.device_bw_gb_s)),
        ("tpp_target", Value::Number(tpp_target)),
    ];
    if !scenarios.is_empty() {
        let names = scenarios.iter().map(|&name| Value::String(name.to_owned())).collect();
        grid.push(("scenario", Value::Array(names)));
    }
    object(vec![("grid", object(grid))]).to_json()
}

/// The registered scenario the service prices requests naming none on.
const DEFAULT_SCENARIO: &str = "dense-llama3-fp16-tp4";

/// `handle_lane`'s `/v1/screen` grid bodies against the naive
/// [`crate::reference::grid_body`], byte for byte, on four grids: Table
/// 3 at TPP 1600 and at 4800 (no scenario), Table 3's Figure 6 slice
/// under a two-scenario `scenario` array, and a grid with a zero-HBM
/// point, whose failure ledger is non-empty. The case is also dirty
/// unless some compared body carries a failure.
#[must_use]
pub fn grid_body_vs_reference() -> DiffReport {
    let zero_hbm = SweepSpec {
        systolic_dims: vec![16],
        lanes_per_core: vec![4],
        l1_kib: vec![192],
        l2_mib: vec![40],
        hbm_tb_s: vec![0.0, 2.0],
        device_bw_gb_s: vec![600.0],
    };
    let cases: [(&str, SweepSpec, f64, &[&str]); 4] = [
        ("table3-1600", SweepSpec::table3_fig7(), 1600.0, &[]),
        ("table3-4800", SweepSpec::table3_fig7(), 4800.0, &[]),
        (
            "table3-fig6-two-scenarios",
            SweepSpec::table3_fig6(),
            4800.0,
            &["dense-gpt3-fp16-tp4", "moe-mixtral-fp16-tp4-ep4"],
        ),
        ("zero-hbm", zero_hbm, 4800.0, &[]),
    ];
    let registry = ScenarioRegistry::builtin();
    let state = AppState::new(64);
    let mut mismatches = Vec::new();
    let (mut points, mut ok, mut failed) = (0, 0, 0);
    for (label, spec, tpp_target, names) in &cases {
        points += spec.cardinality() * names.len().max(1);
        let scenarios = names.iter().map(|name| registry.get(name).cloned());
        let expected = scenarios.collect::<Result<Vec<_>, _>>().and_then(|scenarios| {
            let default = registry.get(DEFAULT_SCENARIO)?;
            crate::reference::grid_body(spec, *tpp_target, &scenarios, default)
        });
        let expected = match expected {
            Ok(body) => body,
            Err(e) => {
                push(&mut mismatches, *label, format!("reference failed: {e}"));
                continue;
            }
        };
        let request = HttpRequest {
            method: "POST".to_owned(),
            path: "/v1/screen".to_owned(),
            body: grid_request(spec, *tpp_target, names),
        };
        let (status, got) = handle_lane(&state, &request, None);
        if status != 200 {
            push(&mut mismatches, *label, format!("status {status}: {got:.200}"));
        } else if got != expected {
            let at = got.bytes().zip(expected.bytes()).take_while(|(x, y)| x == y).count();
            let excerpt =
                |body: &str| body.get(at..).unwrap_or("").chars().take(80).collect::<String>();
            let detail = format!(
                "bodies diverge at byte {at} (handler {}B, reference {}B): handler {:?}, \
                 reference {:?}",
                got.len(),
                expected.len(),
                excerpt(&got),
                excerpt(&expected)
            );
            push(&mut mismatches, *label, detail);
        }
        let summary = acs_errors::json::parse(&expected).ok();
        let tally = |key| {
            summary
                .as_ref()
                .and_then(|v| v.get("grid")?.get(key)?.as_u64())
                .map_or(0, |n| usize::try_from(n).unwrap_or(usize::MAX))
        };
        ok += tally("evaluated");
        failed += tally("failed");
    }
    if failed == 0 {
        push(&mut mismatches, "coverage", "no compared grid body carried a failure".to_owned());
    }
    DiffReport { label: "grid-body-vs-reference".to_owned(), points, ok, failed, mismatches }
}

/// One request of [`whatif_served_vs_reference`]: its label, its grid,
/// its `tpp_target` and `scenario` members, and the scenario pricing it.
type ServedWhatIf = (&'static str, RuleGrid, Option<f64>, Option<Value>, Scenario);

/// The request sequence of [`whatif_served_vs_reference`].
fn served_whatif_requests() -> Result<Vec<ServedWhatIf>, AcsError> {
    let registry = ScenarioRegistry::builtin();
    let default = registry.get(DEFAULT_SCENARIO)?.clone();
    let registered = registry.get("dense-gpt3-fp16-tp4")?.clone();
    let spec = |name: &str, model: &str| {
        object(vec![
            ("name", Value::String(name.to_owned())),
            ("model", Value::String(model.to_owned())),
        ])
    };
    let inline = spec(registered.name(), "gpt3_175b");
    let unregistered = spec("inline-gpt3-13b", "gpt3_13b");
    let unregistered_scenario = Scenario::from_json_value(&unregistered)?;
    let by_name = Some(Value::String(registered.name().to_owned()));
    let mut tpp_lines = RuleGrid::baseline();
    tpp_lines.tpp_license = vec![2400.0, 4800.0];
    tpp_lines.mem_bw_license = vec![0.0, 800.0];
    let mut high_lines = RuleGrid::baseline();
    high_lines.tpp_license = vec![4800.0, 6000.0];
    high_lines.mem_bw_license = vec![0.0, 1000.0];
    Ok(vec![
        ("default", tpp_lines.clone(), None, None, default.clone()),
        ("default-other-grid", random_rule_grid(1), None, None, default.clone()),
        ("default-1600", tpp_lines.clone(), Some(1600.0), None, default.clone()),
        ("default-again", high_lines.clone(), None, None, default),
        ("registered", tpp_lines, None, by_name, registered.clone()),
        ("inline-registered", high_lines.clone(), None, Some(inline), registered),
        ("inline-unregistered", high_lines, None, Some(unregistered), unregistered_scenario),
    ])
}

/// `handle_lane`'s buffered `/v1/whatif` documents, trailer included,
/// against [`crate::reference::whatif_records`] over a fleet priced
/// afresh for each request's (scenario, TPP target), on one service
/// state driven through a sequence that revisits fleets: the default
/// fleet under two grids, at 1600 TPP, the default fleet again, a
/// registered scenario by name, an inline spec equal to it, and an
/// unregistered inline spec. Each request misses the response cache, so
/// each answer is screened over whatever fleet the state kept for it: a
/// memo keyed without the scenario or the TPP target, or a fleet whose
/// columns are mixed up, answers some request with another fleet's
/// records. Fleets of one TPP target share their silicon and differ only
/// in latency, which reaches a record only through designs some variant
/// leaves unrestricted, so each request is also dirty unless one of its
/// records has `0 < restricted_share < 1`.
#[must_use]
pub fn whatif_served_vs_reference() -> DiffReport {
    let mut mismatches = Vec::new();
    let requests = served_whatif_requests().unwrap_or_else(|e| {
        push(&mut mismatches, "requests", e.to_string());
        Vec::new()
    });
    let state = AppState::new(64);
    let devices = acs_devices::GpuDatabase::curated_65().len();
    let mut fresh: HashMap<(u64, u64), (Vec<EvaluatedDesign>, usize)> = HashMap::new();
    let mut points = 0;
    for (label, grid, tpp, member, scenario) in &requests {
        let tpp_target = tpp.unwrap_or(4800.0);
        let (fleet, failures) =
            fresh.entry((scenario.digest(), tpp_target.to_bits())).or_insert_with(|| {
                let report =
                    scenario.runner().run_lattice(&SweepSpec::synthetic_fleet(), tpp_target);
                let failures = report.failures.len();
                (report.designs.into_iter().map(|(_, d)| d).collect(), failures)
            });
        let expected = match crate::reference::whatif_records(grid, fleet) {
            Ok(records) => records,
            Err(e) => {
                push(&mut mismatches, *label, format!("reference failed: {e}"));
                continue;
            }
        };
        points += expected.len();
        let mixed = expected.iter().any(|record| {
            let share = record.get("fleet").and_then(|f| f.get("restricted_share"));
            share.and_then(Value::as_f64).is_some_and(|s| s > 0.0 && s < 1.0)
        });
        if !mixed {
            let detail = "no record had 0 < restricted_share < 1".to_owned();
            push(&mut mismatches, format!("{label} coverage"), detail);
        }
        let n = |x: usize| Value::Number(x as f64);
        let mut trailer = vec![
            ("variants", n(grid.cardinality())),
            ("devices", n(devices)),
            ("fleet_designs", n(fleet.len())),
            ("fleet_failures", n(*failures)),
            ("tpp_target", Value::Number(tpp_target)),
        ];
        if member.is_some() {
            trailer.push(("scenario", Value::String(scenario.name().to_owned())));
        }
        let trailer = object(trailer).to_json();
        let mut body = vec![("grid", grid.to_json_value())];
        if let Some(tpp) = tpp {
            body.push(("tpp_target", Value::Number(*tpp)));
        }
        if let Some(member) = member {
            body.push(("scenario", member.clone()));
        }
        let http = HttpRequest {
            method: "POST".to_owned(),
            path: "/v1/whatif".to_owned(),
            body: object(body).to_json(),
        };
        let (status, got) = handle_lane(&state, &http, None);
        if status != 200 {
            push(&mut mismatches, *label, format!("status {status}: {got:.200}"));
            continue;
        }
        let records: Vec<String> = expected.iter().map(Value::to_json).collect();
        let want = format!("{{\"summary\":{trailer},\"records\":[{}]}}", records.join(","));
        if got == want {
            continue;
        }
        let document = acs_errors::json::parse(&got).ok();
        let part = |key: &str| document.as_ref().and_then(|d| d.get(key));
        let served = part("records").and_then(Value::as_array).unwrap_or(&[]);
        let detail = if part("summary").map(Value::to_json).as_deref() != Some(&trailer) {
            format!("trailer {:?} vs reference {trailer}", part("summary").map(Value::to_json))
        } else if let Some((index, (record, reference))) =
            served.iter().zip(&expected).enumerate().find(|(_, (r, e))| r != e)
        {
            format!("variant {index}: {}", first_difference(record, reference))
        } else {
            format!("served {} records, reference {}", served.len(), expected.len())
        };
        push(&mut mismatches, *label, detail);
    }
    DiffReport {
        label: "whatif-served-vs-reference".to_owned(),
        points,
        ok: points,
        failed: 0,
        mismatches,
    }
}

/// Whether a what-if record reaches every statistic of its fleet block:
/// a mixed restricted share, a compliance overhead between the fastest
/// compliant and restricted designs, and a flipped portfolio device.
fn exercises_fleet_statistics(record: &Value) -> bool {
    let member = |block: &str, key: &str| record.get(block).and_then(|b| b.get(key));
    let flipped = |key: &str| {
        member("devices", key).and_then(Value::as_array).is_some_and(|names| !names.is_empty())
    };
    member("fleet", "restricted_share")
        .and_then(Value::as_f64)
        .is_some_and(|share| share > 0.0 && share < 1.0)
        && member("externality", "compliance_overhead").is_some_and(|o| *o != Value::Null)
        && (flipped("newly_restricted") || flipped("newly_freed"))
}

/// The first leaf at which two records differ, for a readable mismatch.
fn first_difference(engine: &Value, reference: &Value) -> String {
    let (mut left, mut right) = (Vec::new(), Vec::new());
    flatten("", engine, &mut left);
    flatten("", reference, &mut right);
    match left.iter().zip(&right).find(|(l, r)| l != r) {
        Some(((path, l), (_, r))) => format!("{path}: engine {l:?} vs reference {r:?}"),
        None => format!("engine has {} leaves, reference {}", left.len(), right.len()),
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Num(f64),
    Text(String),
    Bool(bool),
    Null,
}

fn flatten(path: &str, value: &Value, out: &mut Vec<(String, Leaf)>) {
    match value {
        Value::Null => out.push((path.to_owned(), Leaf::Null)),
        Value::Bool(b) => out.push((path.to_owned(), Leaf::Bool(*b))),
        Value::Number(n) => out.push((path.to_owned(), Leaf::Num(*n))),
        Value::String(s) => out.push((path.to_owned(), Leaf::Text(s.clone()))),
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(&format!("{path}[{i}]"), item, out);
            }
        }
        Value::Object(members) => {
            for (key, member) in members {
                flatten(&format!("{path}.{key}"), member, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_candidates() -> Vec<CandidateParams> {
        SweepSpec {
            systolic_dims: vec![16, 32],
            lanes_per_core: vec![2, 4],
            l1_kib: vec![192],
            l2_mib: vec![48],
            hbm_tb_s: vec![2.4, 2.8],
            device_bw_gb_s: vec![600.0],
        }
        .candidates(4800.0)
    }

    #[test]
    fn every_standard_case_is_clean_on_a_small_sweep() {
        let candidates = small_candidates();
        let harness = Differential::paper_default();
        for case in standard_suite() {
            harness.run(&candidates, &case).assert_clean();
        }
    }

    #[test]
    fn a_genuine_divergence_is_reported_not_swallowed() {
        // Rescaled inputs compared under Exact tolerance must be dirty.
        // Neat two-decimal axis values survive `x * 1000.0 / 1000.0`
        // bit-exactly (and the hbm axis is quantized through GB/s by the
        // config builder, which collapses ulp drift), so this sweep pins
        // a device-bandwidth value whose round-trip drift provably
        // survives the builder's per-PHY division as well.
        let device_bw = 729.995_002_337_923_f64;
        let rt = device_bw * 1000.0 / 1000.0;
        assert_ne!(rt.to_bits(), device_bw.to_bits(), "axis value must drift under rescale");
        assert_ne!(
            ((rt / 12.0) * 12.0).to_bits(),
            ((device_bw / 12.0) * 12.0).to_bits(),
            "the drift must survive the 12-PHY split"
        );
        let candidates = SweepSpec {
            systolic_dims: vec![16, 32],
            lanes_per_core: vec![2, 4],
            l1_kib: vec![192],
            l2_mib: vec![48],
            hbm_tb_s: vec![2.4],
            device_bw_gb_s: vec![device_bw],
        }
        .candidates(4800.0);
        let harness = Differential::paper_default();
        let case = DiffCase {
            label: "rescale-under-exact".to_owned(),
            left: Arm::plain(EvalPath::Lattice),
            right: Arm { path: EvalPath::Lattice, transform: Transform::RescaleUnits },
            tolerance: Tolerance::Exact,
        };
        let report = harness.run(&candidates, &case);
        assert!(!report.is_clean(), "ulp-level input drift must fail an exact diff");
    }

    #[test]
    fn whatif_batch_and_naive_agree_on_the_64_variant_grid() {
        let devices: Vec<DeviceMetrics> =
            acs_devices::GpuDatabase::curated_65().iter().map(|r| r.to_metrics()).collect();
        assert_eq!(devices.len(), 65);
        let grid = whatif_grid_64();
        assert_eq!(grid.cardinality(), 64);
        let report = whatif_grid_diff(&grid, &devices);
        assert_eq!(report.points, 64);
        report.assert_clean();
    }

    #[test]
    fn whatif_diff_catches_a_genuinely_different_expansion() {
        // The naive arm walks the grid's own axis lists, so a divergence
        // can only come from the comparison machinery being wired wrong;
        // prove the ledgers it compares are discriminating by checking
        // two different regimes really classify apart.
        let devices: Vec<DeviceMetrics> =
            acs_devices::GpuDatabase::curated_65().iter().map(|r| r.to_metrics()).collect();
        let base = ClassificationLedger::screen(&RuleSpec::baseline(), &devices);
        let mut strict = RuleSpec::baseline();
        strict.acr_2023.tpp_license = 1600.0;
        let tightened = ClassificationLedger::screen(&strict, &devices);
        assert_ne!(base, tightened);
    }

    #[test]
    fn whatif_engine_matches_the_reference_record_for_record() {
        // A down-scaled Table 5 at 1600 TPP: the grid's variants restrict
        // some of these designs but not all.
        let spec = SweepSpec {
            systolic_dims: vec![4, 8, 16],
            lanes_per_core: vec![1, 8],
            l1_kib: vec![32, 192],
            l2_mib: vec![8, 40],
            hbm_tb_s: vec![0.8, 2.0],
            device_bw_gb_s: vec![400.0, 600.0],
        };
        let runner = DseRunner::new(ModelConfig::llama3_8b(), WorkloadConfig::paper_default());
        let fleet: Vec<EvaluatedDesign> =
            runner.run_lattice(&spec, 1600.0).designs.into_iter().map(|(_, d)| d).collect();
        assert_eq!(fleet.len(), 96);
        let grids = [whatif_grid_64(), random_rule_grid(1)];
        let report = whatif_engine_vs_reference(&grids, &[("table5-96", &fleet)]);
        assert_eq!(report.points, 64 + random_rule_grid(1).cardinality());
        report.assert_clean();
    }

    #[test]
    fn grid_bodies_match_the_tree_encoding_of_the_reference() {
        let report = grid_body_vs_reference();
        assert_eq!(report.points, 1536 * 2 + 512 * 2 + 2);
        assert_eq!(report.failed, 1, "the zero-HBM point");
        report.assert_clean();
    }

    #[test]
    fn served_whatifs_match_the_reference_over_freshly_priced_fleets() {
        let report = whatif_served_vs_reference();
        // 4 + 12 + 4 + 4 + 4 + 4 + 4 variants over seven requests.
        assert_eq!(report.points, 36);
        report.assert_clean();
    }

    #[test]
    fn whatif_arm_is_dirty_when_no_record_reaches_the_fleet_statistics() {
        // An empty fleet agrees record for record but restricts nothing.
        let report = whatif_engine_vs_reference(&[whatif_grid_64()], &[("empty", &[])]);
        assert_eq!(report.points, 64);
        assert!(!report.is_clean());
        assert_eq!(report.mismatches.len(), 1);
        assert_eq!(report.mismatches[0].at, "coverage");
    }

    #[test]
    fn random_rule_grids_are_deterministic_and_small() {
        for seed in [0_u64, 1, 2, 0xDEAD_BEEF] {
            let grid = random_rule_grid(seed);
            assert_eq!(grid, random_rule_grid(seed), "same seed, same grid");
            assert!(grid.cardinality() >= 1 && grid.cardinality() <= 36);
        }
        assert_ne!(random_rule_grid(1), random_rule_grid(2), "seeds decorrelate");
    }

    #[test]
    fn degenerate_moe_is_bit_identical_to_dense_on_every_path() {
        let mut candidates = small_candidates();
        // Include ledgered failures: the degenerate twin must fail the
        // same points with the same kinds, not just match on successes.
        let injected = acs_dse::inject_faults(&mut candidates, 2);
        assert!(!injected.is_empty());
        for path in [EvalPath::Reference, EvalPath::Lattice] {
            let report = dense_vs_degenerate_moe_diff(&candidates, path);
            assert!(report.ok > 0, "sweep produced no designs on {path}");
            report.assert_clean();
        }
    }

    #[test]
    fn random_specs_diff_clean_between_lattice_and_reference() {
        let harness = Differential::paper_default();
        for seed in 0..6_u64 {
            let spec = random_sweep_spec(seed);
            let mut candidates = spec.candidates(4800.0);
            // Odd seeds carry injected faults: the lattice path must
            // demote those points to the identical typed errors.
            if seed % 2 == 1 {
                acs_dse::inject_faults(&mut candidates, seed as usize);
            }
            let case = DiffCase::paths(
                &format!("lattice-vs-reference-seed{seed}"),
                EvalPath::Reference,
                EvalPath::Lattice,
            );
            harness.run(&candidates, &case).assert_clean();
        }
    }

    #[test]
    fn random_spec_generation_is_deterministic_and_well_formed() {
        for seed in [0_u64, 1, 7, 0xDEAD_BEEF] {
            let a = random_sweep_spec(seed);
            assert_eq!(a, random_sweep_spec(seed), "same seed, same spec");
            assert!(a.cardinality() >= 1 && a.cardinality() <= 144);
            assert!(a.systolic_dims.windows(2).all(|w| w[0] < w[1]));
            assert!(a.hbm_tb_s.windows(2).all(|w| w[0] < w[1]));
        }
        assert_ne!(random_sweep_spec(1), random_sweep_spec(2), "seeds decorrelate");
    }

    #[test]
    fn permutation_uses_set_discipline() {
        let candidates = small_candidates();
        let harness = Differential::paper_default();
        let case = DiffCase::metamorphic(
            "permute",
            EvalPath::Lattice,
            Transform::PermuteOrder { seed: 99 },
        );
        harness.run(&candidates, &case).assert_clean();
    }

    #[test]
    fn faulted_candidates_diff_cleanly_including_the_ledger() {
        let mut candidates = small_candidates();
        let injected = acs_dse::inject_faults(&mut candidates, 3);
        assert!(!injected.is_empty());
        let harness = Differential::paper_default();
        harness
            .run(&candidates, &DiffCase::paths("faulted", EvalPath::Reference, EvalPath::Lattice))
            .assert_clean();
        harness
            .run(
                &candidates,
                &DiffCase::metamorphic(
                    "faulted-permute",
                    EvalPath::Lattice,
                    Transform::PermuteOrder { seed: 7 },
                ),
            )
            .assert_clean();
    }
}
