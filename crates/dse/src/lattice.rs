//! Lattice-algebra sweep evaluation: price the grid, not the points.
//!
//! This is the one sweep driver: [`DseRunner::run_report`],
//! [`DseRunner::run_lattice`] and [`DseRunner::run`] all price here.
//! Where the per-point evaluator ([`DseRunner::try_evaluate`]) builds a
//! device, walks both layer plans, and prices every operator at one
//! point, this module exploits the dependency-key argument of
//! `acs_sim::legs`: each cost leg reads only a subset of the swept axes.
//! A sweep classifies its points into compute, memory and comm
//! signatures (the axis tuples each leg reads), probes each distinct
//! signature once — one plan walk per phase, keeping only that
//! signature's own leg — fuses the legs into structure-of-arrays vectors
//! whose per-op guards are hoisted into a one-time cleanliness proof
//! ([`acs_sim::CombineProgram`]), and collapses a grid point to a few
//! dozen additions over pre-fused vectors plus the scalar area/cost
//! pipeline assembled from per-signature components — the outer-product
//! broadcast LLMCompass applies to analytical design spaces.
//!
//! Exactness discipline: the fast path replicates the per-point guard
//! *order* (area, TPP, perf density, system, plans, die costs, TTFT,
//! TBT) with cheap per-point checks; any check that would fail — or any
//! precondition the broadcast cannot prove (unclean fused vectors, probe
//! failure, invalid candidate, or a sweep-wide failure such as a zero
//! device count) — demotes that point to the per-point evaluator, which
//! reproduces the exact typed error, bit for bit. Healthy points take
//! the broadcast; the result is bit-identical either way, a guarantee
//! `tests/lattice_equivalence.rs` pins against the naive reference
//! evaluator in `acs-verify`.
//!
//! What persists across sweeps is the runner's [`Memo`]: one entry per
//! datatype width, per signature and per on-chip key pair, never one per
//! point. Each point is re-assembled from it on every sweep, first visit
//! or not — a few dozen additions cost less than a lookup in a table of
//! every point ever priced.

use crate::evaluate::{contained, DseRunner, EvaluatedDesign, SweptParams};
use crate::report::{DesignFailure, SweepReport};
use crate::sweeps::{CandidateParams, SweepSpec};
use acs_errors::AcsError;
use acs_hw::{DataType, DeviceConfig, SystemConfig, RETICLE_LIMIT_MM2};
use acs_sim::{
    CombineProgram, ComputeKey, ComputeLeg, EvalPlans, FusedLegs, LayerTally, MemoryKey, MemoryLeg,
    PlanLegs, Simulator,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError, RwLock};

/// A multiply-rotate hasher (the FxHash construction) for the memo and
/// the sweep's classification tables. The lookups sit on the sweep hot
/// path and the default SipHash costs more than a fused combine; these
/// keys are small fixed tuples of trusted internal values, so HashDoS
/// resistance buys nothing here.
#[derive(Debug, Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A compute signature: systolic dimension, lanes, solved core count, L1.
type ComputeSig = (u32, u32, u32, u32);
/// A memory signature: L2 and the HBM bandwidth's bits.
type MemorySig = (u32, u64);
/// A comm signature: the device bandwidth's bits.
type CommSig = u64;

/// Everything one runner has priced, keyed by what it depends on and
/// kept for the runner's lifetime (shared by its clones, and through
/// `AppState` by every request in the server), so repeated sweeps,
/// `/v1/screen` grids and what-if fleets re-price nothing. Every
/// `DseRunner::with_*` builder that changes what is priced (device
/// count, expert parallelism, datatype, calibration) starts a new memo.
///
/// The signature maps are keyed by axis tuples, not by the priced
/// device: an entry's every field depends only on the axes in its own
/// signature (plus the runner's constants), the invariant the broadcast
/// itself rests on. Failed probes are never cached: a failure can depend
/// on the sweep's base point, so the next sweep probes again.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    /// Per datatype width: both phases' plans and combine programs.
    plans: RwLock<FxMap<u32, Arc<PhasePlans>>>,
    compute: RwLock<FxMap<ComputeSig, ComputeEntry>>,
    memory: RwLock<FxMap<MemorySig, MemoryEntry>>,
    comm: RwLock<FxMap<CommSig, CommEntry>>,
    /// Per on-chip (compute, memory) key pair: both phases' fused
    /// vectors.
    onchip: RwLock<FxMap<(ComputeKey, MemoryKey), PairFused>>,
}

/// The plans of one datatype width and the combine loops compiled from
/// them. A plan depends only on the runner's model, workload, device
/// count and expert parallelism — none of which vary across a sweep —
/// plus the datatype width, so a handful of entries serve thousands of
/// evaluations.
#[derive(Debug)]
pub(crate) struct PhasePlans {
    pub(crate) plans: EvalPlans,
    prefill: CombineProgram,
    decode: CombineProgram,
}

/// One compute signature's memo entry: its dependency key, the area
/// addends that depend only on compute axes (in the exact left-to-right
/// order of `AreaBreakdown::total_mm2`), the achieved TPP, and its
/// compute legs, prefill then decode.
#[derive(Debug, Clone)]
struct ComputeEntry {
    key: ComputeKey,
    /// `(systolic + vector) + l1` — the first three addends.
    partial_area: f64,
    control: f64,
    fixed: f64,
    tpp: f64,
    legs: Arc<[Vec<ComputeLeg>; 2]>,
}

/// One memory signature's memo entry: key, L2 and HBM-PHY area addends,
/// the probe's round-tripped bandwidth for `SweptParams`, and its DRAM
/// legs, prefill then decode.
#[derive(Debug, Clone)]
struct MemoryEntry {
    key: MemoryKey,
    l2_area: f64,
    hbm_phy_area: f64,
    hbm_tb_s: f64,
    legs: Arc<[Vec<MemoryLeg>; 2]>,
}

/// One comm signature's memo entry: device-PHY area addend,
/// round-tripped total bandwidth, and its collective legs already fused
/// — a comm vector reads nothing but its own leg, so it is fused as
/// soon as it is priced.
#[derive(Debug, Clone)]
struct CommEntry {
    device_phy_area: f64,
    device_bw_gb_s: f64,
    fused: PairFused,
}

/// Both phases' fused vectors of one on-chip pair or comm signature,
/// with the conjunction of their cleanliness proofs hoisted out so the
/// per-point check is one local bool instead of four pointer chases.
///
/// The values live in a slab shared by every pair one sweep fused:
/// prefill at `at..split`, decode at `split..end`. A cold sweep fusing
/// hundreds of pairs makes one allocation instead of three per pair, so
/// dropping a one-shot runner frees a few blocks rather than leaving
/// thousands of small ones for the allocator to sort on the caller's
/// next allocation.
#[derive(Debug, Clone)]
struct PairFused {
    slab: Arc<Vec<f64>>,
    span: FusedSpan,
}

/// Where one entry's vectors sit in their slab, with their proofs.
#[derive(Debug, Clone, Copy)]
struct FusedSpan {
    at: usize,
    split: usize,
    end: usize,
    clean: bool,
    /// Both phases' [`FusedLegs::class_sums`], for the layer tally.
    class_sums: [[f64; 4]; 2],
}

impl PairFused {
    fn prefill(&self) -> &[f64] {
        &self.slab[self.span.at..self.span.split]
    }

    fn decode(&self) -> &[f64] {
        &self.slab[self.span.split..self.span.end]
    }
}

/// Fused vectors appended to a single slab and handed out as
/// [`PairFused`] views once the last is pushed.
struct SlabBuilder {
    values: Vec<f64>,
    spans: Vec<FusedSpan>,
}

impl SlabBuilder {
    /// Room for `entries` entries of `width` values each (both phases),
    /// so the slab is allocated once at its final size.
    fn with_capacity(entries: usize, width: usize) -> Self {
        SlabBuilder {
            values: Vec::with_capacity(entries * width),
            spans: Vec::with_capacity(entries),
        }
    }

    fn push(&mut self, prefill: &FusedLegs, decode: &FusedLegs) {
        let at = self.values.len();
        self.values.extend_from_slice(&prefill.values);
        let split = self.values.len();
        self.values.extend_from_slice(&decode.values);
        self.spans.push(FusedSpan {
            at,
            split,
            end: self.values.len(),
            clean: prefill.clean && decode.clean,
            class_sums: [prefill.class_sums, decode.class_sums],
        });
    }

    fn finish(self) -> Vec<PairFused> {
        let slab = Arc::new(self.values);
        self.spans.into_iter().map(|span| PairFused { slab: Arc::clone(&slab), span }).collect()
    }
}

/// Resolve each signature through one of the [`Memo`]'s signature maps:
/// a single read-lock pass serves the hits, the misses probe, and a
/// single write-lock pass publishes the successful probes. Failed probes
/// are returned but never cached.
///
/// Every entry holds a leg vector per phase, so the
/// `dse.factored.leg_hit`/`leg_miss` counters move by two per signature
/// served and per signature priced.
fn resolve<K, E>(
    map: &RwLock<FxMap<K, E>>,
    keys: &[K],
    mut probe: impl FnMut(&K) -> Option<E>,
) -> Vec<Option<E>>
where
    K: Hash + Eq + Copy,
    E: Clone,
{
    static HITS: acs_telemetry::GlobalCounter =
        acs_telemetry::GlobalCounter::new("dse.factored.leg_hit");
    static MISSES: acs_telemetry::GlobalCounter =
        acs_telemetry::GlobalCounter::new("dse.factored.leg_miss");
    let mut out: Vec<Option<E>> = Vec::with_capacity(keys.len());
    let mut misses: Vec<usize> = Vec::new();
    {
        let map = map.read().unwrap_or_else(PoisonError::into_inner);
        for (at, key) in keys.iter().enumerate() {
            let entry = map.get(key).cloned();
            if entry.is_none() {
                misses.push(at);
            }
            out.push(entry);
        }
    }
    HITS.add(2 * (keys.len() - misses.len()) as u64);
    if misses.is_empty() {
        return out;
    }
    for &at in &misses {
        out[at] = probe(&keys[at]);
    }
    let mut map = map.write().unwrap_or_else(PoisonError::into_inner);
    map.reserve(misses.len());
    let mut priced = 0u64;
    for &at in &misses {
        if let Some(entry) = &out[at] {
            map.insert(keys[at], entry.clone());
            priced += 2;
        }
    }
    MISSES.add(priced);
    out
}

static FUSED_HIT: acs_telemetry::GlobalCounter =
    acs_telemetry::GlobalCounter::new("dse.lattice.fused_hit");
static FUSED_BUILT: acs_telemetry::GlobalCounter =
    acs_telemetry::GlobalCounter::new("dse.lattice.fused_built");
static FAST_POINTS: acs_telemetry::GlobalCounter =
    acs_telemetry::GlobalCounter::new("dse.lattice.fast_points");
static FALLBACK_POINTS: acs_telemetry::GlobalCounter =
    acs_telemetry::GlobalCounter::new("dse.lattice.fallback_points");

/// One probe device priced for both phases in one plan walk each.
struct Probe {
    cfg: Arc<DeviceConfig>,
    /// Prefill then decode.
    legs: [PlanLegs; 2],
}

/// The per-sweep broadcast context: plans, signature entries, and fused
/// on-chip vectors, shared read-only by the point workers. The pair
/// table is dense — a pair lives at `ci * n_msigs + mi` — so the
/// per-point path is indexed loads, no hashing.
struct SweepCtx {
    plans: Arc<PhasePlans>,
    compute: Vec<Option<ComputeEntry>>,
    memory: Vec<Option<MemoryEntry>>,
    comm: Vec<Option<CommEntry>>,
    /// Per candidate index: (compute, memory, comm) signature indices,
    /// `None` when the candidate fails validation.
    point_sigs: Vec<Option<(u32, u32, u32)>>,
    n_msigs: usize,
    /// Fused on-chip vectors, dense over (csig, msig); `None` demotes.
    pairs: Vec<Option<PairFused>>,
}

impl DseRunner {
    /// The plans and combine programs for one datatype width, built at
    /// most once per memo (read-mostly after the first point of a
    /// sweep).
    pub(crate) fn plans_for(&self, dtype_bytes: u32) -> Result<Arc<PhasePlans>, AcsError> {
        if let Some(plans) =
            self.memo.plans.read().unwrap_or_else(PoisonError::into_inner).get(&dtype_bytes)
        {
            return Ok(Arc::clone(plans));
        }
        // Built outside the write lock; a racing builder just loses.
        let plans = EvalPlans::build_parallel(
            self.model(),
            self.workload(),
            self.device_count,
            self.expert_parallel,
            dtype_bytes,
        )?;
        let built = Arc::new(PhasePlans {
            prefill: CombineProgram::of(&plans.prefill),
            decode: CombineProgram::of(&plans.decode),
            plans,
        });
        let mut map = self.memo.plans.write().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(map.entry(dtype_bytes).or_insert(built)))
    }

    /// Evaluate raw sweep candidates with full fault isolation: a panic,
    /// an invalid candidate, or a numeric-invariant violation becomes a
    /// [`DesignFailure`] in the report instead of aborting the sweep.
    /// Healthy points are priced by the lattice broadcast; every other
    /// point is demoted to the contained per-point evaluator, so designs
    /// and failures match it bit for bit.
    #[must_use]
    pub fn run_report(&self, candidates: &[CandidateParams]) -> SweepReport {
        // `None`: a sweep-wide precondition failed (no valid candidate,
        // plans, zero device count, or a pathological calibration), and
        // every chunk demotes all of its points.
        let ctx = self.sweep_ctx(candidates);
        // Evaluate in contiguous point chunks: the harness cost (panic
        // containment, counter flush) amortises over a chunk, and a
        // chunk whose harness panicked demotes its points to the
        // per-point fallback — which re-contains and reports
        // each point exactly.
        const LATTICE_CHUNK: usize = 64;
        let mut report = SweepReport::default();
        report.designs.reserve(candidates.len());
        if self.worker_count() == 1 {
            // A single worker assembles the report in place — no
            // per-chunk buffers, no merge pass. A panicking chunk is
            // rewound by truncating to the pre-chunk marks, then demoted.
            for (k, chunk) in candidates.chunks(LATTICE_CHUNK).enumerate() {
                let start = k * LATTICE_CHUNK;
                let marks = (report.designs.len(), report.failures.len());
                let contained = catch_unwind(AssertUnwindSafe(|| {
                    self.lattice_chunk(start, chunk, ctx.as_ref(), &mut report);
                }));
                if contained.is_err() {
                    report.designs.truncate(marks.0);
                    report.failures.truncate(marks.1);
                    self.lattice_chunk(start, chunk, None, &mut report);
                }
            }
        } else {
            let chunks: Vec<(usize, &[CandidateParams])> = candidates
                .chunks(LATTICE_CHUNK)
                .enumerate()
                .map(|(k, chunk)| (k * LATTICE_CHUNK, chunk))
                .collect();
            let chunk_outcomes = self.parallel_map_on(
                self.worker_count(),
                &chunks,
                |c| c.1[0].name.as_str(),
                |&(start, chunk)| {
                    let mut part = SweepReport::default();
                    self.lattice_chunk(start, chunk, ctx.as_ref(), &mut part);
                    Ok(part)
                },
                None,
            );
            for (res, &(start, chunk)) in chunk_outcomes.into_iter().zip(&chunks) {
                match res {
                    Ok(part) => {
                        report.designs.extend(part.designs);
                        report.failures.extend(part.failures);
                    }
                    Err(_) => self.lattice_chunk(start, chunk, None, &mut report),
                }
            }
        }
        self.report_telemetry(&report);
        report
    }

    /// Evaluate a whole sweep at a TPP ceiling with
    /// [`DseRunner::run_report`].
    #[must_use]
    pub fn run_lattice(&self, spec: &SweepSpec, tpp_target: f64) -> SweepReport {
        self.run_report(&spec.candidates(tpp_target))
    }

    /// Price one point through the per-point evaluator under the
    /// parallel harness's panic containment, so a demoted point reports
    /// the identical `EvaluationPanic` label and message.
    fn demote(&self, cand: &CandidateParams) -> Result<EvaluatedDesign, AcsError> {
        contained(&cand.name, || {
            cand.build().map(Arc::new).and_then(|cfg| self.try_evaluate_shared(&cfg))
        })
    }

    /// Build the device at `cand`'s axes, retyped as every evaluated
    /// configuration is, and price both phases' legs. `None` on any
    /// failure, a panic included.
    fn probe(&self, plans: &EvalPlans, cand: &CandidateParams) -> Option<Probe> {
        catch_unwind(AssertUnwindSafe(|| {
            let built = Arc::new(cand.build().ok()?);
            let cfg = self.retyped(&built).ok()?.unwrap_or(built);
            let system = SystemConfig::shared(Arc::clone(&cfg), self.device_count).ok()?;
            let sim = Simulator::with_params(system, self.sim_params);
            let legs = [sim.price_plan_legs(&plans.prefill), sim.price_plan_legs(&plans.decode)];
            Some(Probe { cfg, legs })
        }))
        .ok()
        .flatten()
    }

    /// The broadcast context of one sweep: classify candidates into
    /// signatures, resolve each signature through the memo (probing the
    /// misses), and fuse per-pair vectors, so that
    /// [`DseRunner::lattice_point`] reduces every healthy point to
    /// scalar assembly plus two vector sums. Returns `None` when a
    /// sweep-wide precondition fails.
    #[allow(clippy::too_many_lines)]
    fn sweep_ctx(&self, candidates: &[CandidateParams]) -> Option<SweepCtx> {
        if candidates.is_empty() || self.device_count == 0 {
            return None;
        }
        let overhead = self.sim_params.op_overhead_s;
        if !(overhead.is_finite() && overhead >= 0.0) {
            return None;
        }
        let eff_dt = self.datatype.unwrap_or(DataType::Fp16);
        let plans = self.plans_for(eff_dt.bytes()).ok()?;

        // Classify every candidate into (compute, memory, comm)
        // signatures. Row-major sweeps change the compute key once per
        // memory-by-comm block and the memory key once per comm block,
        // so one-entry run caches turn the common case into an integer
        // compare; comm signatures are few enough that a linear scan
        // beats any hash. `DeviceConfig` builder validity — the exact
        // predicate of `CandidateParams::build` — is a conjunction of
        // per-key terms over the same axes, so it is decided once per
        // signature, not once per point.
        let mut csig_ix: FxMap<ComputeSig, u32> = FxMap::default();
        let mut csigs: Vec<ComputeSig> = Vec::new();
        let mut csig_ok: Vec<bool> = Vec::new();
        let mut msig_ix: FxMap<MemorySig, u32> = FxMap::default();
        let mut msigs: Vec<MemorySig> = Vec::new();
        let mut msig_ok: Vec<bool> = Vec::new();
        let mut wsigs: Vec<CommSig> = Vec::new();
        let mut wsig_ok: Vec<bool> = Vec::new();
        let mut point_sigs: Vec<Option<(u32, u32, u32)>> = Vec::with_capacity(candidates.len());
        let mut base: Option<usize> = None;
        let mut last_c: Option<(ComputeSig, u32)> = None;
        let mut last_m: Option<(MemorySig, u32)> = None;
        for cand in candidates {
            let ckey = (cand.systolic_dim, cand.lanes_per_core, cand.core_count, cand.l1_kib);
            let ci = match last_c {
                Some((key, ix)) if key == ckey => ix,
                _ => {
                    let ix = *csig_ix.entry(ckey).or_insert_with(|| {
                        csigs.push(ckey);
                        csig_ok.push(
                            cand.systolic_dim > 0
                                && cand.lanes_per_core > 0
                                && cand.core_count > 0
                                && cand.l1_kib > 0,
                        );
                        (csigs.len() - 1) as u32
                    });
                    last_c = Some((ckey, ix));
                    ix
                }
            };
            let mkey = (cand.l2_mib, cand.hbm_tb_s.to_bits());
            let mi = match last_m {
                Some((key, ix)) if key == mkey => ix,
                _ => {
                    let ix = *msig_ix.entry(mkey).or_insert_with(|| {
                        msigs.push(mkey);
                        let hbm_gb_s = cand.hbm_tb_s * 1000.0;
                        msig_ok.push(cand.l2_mib > 0 && hbm_gb_s.is_finite() && hbm_gb_s > 0.0);
                        (msigs.len() - 1) as u32
                    });
                    last_m = Some((mkey, ix));
                    ix
                }
            };
            let wkey = cand.device_bw_gb_s.to_bits();
            let wi = match wsigs.iter().position(|&w| w == wkey) {
                Some(at) => at as u32,
                None => {
                    wsigs.push(wkey);
                    let per_phy = cand.device_bw_gb_s / 12.0;
                    wsig_ok.push(per_phy.is_finite() && per_phy > 0.0);
                    (wsigs.len() - 1) as u32
                }
            };
            if csig_ok[ci as usize] && msig_ok[mi as usize] && wsig_ok[wi as usize] {
                base.get_or_insert(point_sigs.len());
                point_sigs.push(Some((ci, mi, wi)));
            } else {
                point_sigs.push(None);
            }
        }
        // No valid candidate: the per-point evaluator reproduces every
        // failure without any probe machinery.
        let base = &candidates[base?];

        // Resolve every signature through the memo. A miss probes the
        // device at the signature's own axes and the base point's
        // others, and keeps only the signature's own leg: each kind's
        // entry is a pure function of its own signature (the invariant
        // that lets one probe price a whole row). Each kind's base
        // signature probes the base point itself, so that one walk is
        // shared and each kind takes its own legs from it.
        let mut base_probe: Option<Option<Probe>> = None;
        let compute: Vec<Option<ComputeEntry>> =
            resolve(&self.memo.compute, &csigs, |&(dim, lanes, cores, l1)| {
                let mut fresh;
                let p = if (dim, lanes, cores, l1)
                    == (base.systolic_dim, base.lanes_per_core, base.core_count, base.l1_kib)
                {
                    base_probe.get_or_insert_with(|| self.probe(&plans.plans, base)).as_mut()?
                } else {
                    let cand = CandidateParams {
                        systolic_dim: dim,
                        lanes_per_core: lanes,
                        core_count: cores,
                        l1_kib: l1,
                        ..base.clone()
                    };
                    fresh = self.probe(&plans.plans, &cand)?;
                    &mut fresh
                };
                let b = self.area_model.die_area(&p.cfg);
                let [prefill, decode] = &mut p.legs;
                Some(ComputeEntry {
                    key: ComputeKey::of(&p.cfg),
                    partial_area: (b.systolic + b.vector) + b.l1,
                    control: b.control,
                    fixed: b.fixed,
                    tpp: p.cfg.tpp().0,
                    legs: Arc::new([
                        std::mem::take(&mut prefill.compute),
                        std::mem::take(&mut decode.compute),
                    ]),
                })
            });
        let memory: Vec<Option<MemoryEntry>> =
            resolve(&self.memo.memory, &msigs, |&(l2, hbm_bits)| {
                let mut fresh;
                let p = if (l2, hbm_bits) == (base.l2_mib, base.hbm_tb_s.to_bits()) {
                    base_probe.get_or_insert_with(|| self.probe(&plans.plans, base)).as_mut()?
                } else {
                    let cand = CandidateParams {
                        l2_mib: l2,
                        hbm_tb_s: f64::from_bits(hbm_bits),
                        ..base.clone()
                    };
                    fresh = self.probe(&plans.plans, &cand)?;
                    &mut fresh
                };
                let b = self.area_model.die_area(&p.cfg);
                let [prefill, decode] = &mut p.legs;
                Some(MemoryEntry {
                    key: MemoryKey::of(&p.cfg),
                    l2_area: b.l2,
                    hbm_phy_area: b.hbm_phy,
                    hbm_tb_s: p.cfg.hbm().bandwidth_tb_s(),
                    legs: Arc::new([
                        std::mem::take(&mut prefill.memory),
                        std::mem::take(&mut decode.memory),
                    ]),
                })
            });
        let comm: Vec<Option<CommEntry>> = resolve(&self.memo.comm, &wsigs, |&bw_bits| {
            let fresh;
            let p = if bw_bits == base.device_bw_gb_s.to_bits() {
                base_probe.get_or_insert_with(|| self.probe(&plans.plans, base)).as_ref()?
            } else {
                let cand =
                    CandidateParams { device_bw_gb_s: f64::from_bits(bw_bits), ..base.clone() };
                fresh = self.probe(&plans.plans, &cand)?;
                &fresh
            };
            let b = self.area_model.die_area(&p.cfg);
            let mut slab = SlabBuilder::with_capacity(1, plans.prefill.len() + plans.decode.len());
            slab.push(
                &plans.prefill.fuse_comm(&p.legs[0].comm, overhead),
                &plans.decode.fuse_comm(&p.legs[1].comm, overhead),
            );
            Some(CommEntry {
                device_phy_area: b.device_phy,
                device_bw_gb_s: p.cfg.phy().total_gb_s(),
                fused: slab.finish().pop()?,
            })
        });

        // Fuse the on-chip vector of every (compute, memory) pair that
        // actually occurs, consulting the memo first. Distinct pairs are
        // walked once (not once per point), warm lookups share one
        // read-lock acquisition, and a miss fuses straight from the legs
        // its two signatures just resolved.
        let n_msigs = msigs.len();
        let mut pair_list: Vec<(u32, u32)> = Vec::with_capacity(csigs.len() * n_msigs);
        {
            let mut pair_seen = vec![false; csigs.len() * n_msigs];
            for &(ci, mi, _) in point_sigs.iter().flatten() {
                let at = ci as usize * n_msigs + mi as usize;
                if !pair_seen[at] {
                    pair_seen[at] = true;
                    pair_list.push((ci, mi));
                }
            }
        }
        let mut pairs: Vec<Option<PairFused>> = vec![None; csigs.len() * n_msigs];
        let mut misses: Vec<(usize, &ComputeEntry, &MemoryEntry)> =
            Vec::with_capacity(pair_list.len());
        let mut hits = 0u64;
        {
            let map = self.memo.onchip.read().unwrap_or_else(PoisonError::into_inner);
            for &(ci, mi) in &pair_list {
                let (Some(cs), Some(ms)) = (&compute[ci as usize], &memory[mi as usize]) else {
                    continue;
                };
                let at = ci as usize * n_msigs + mi as usize;
                match map.get(&(cs.key, ms.key)) {
                    Some(f) => {
                        hits += 1;
                        pairs[at] = Some(f.clone());
                    }
                    None => misses.push((at, cs, ms)),
                }
            }
        }
        FUSED_HIT.add(hits);
        // Fuse every miss into one slab, then publish the whole batch
        // under one write lock. A racing sweep that published the same
        // key first wins, and both read its entry.
        if !misses.is_empty() {
            let mut slab =
                SlabBuilder::with_capacity(misses.len(), plans.prefill.len() + plans.decode.len());
            for (_, cs, ms) in &misses {
                slab.push(
                    &plans.prefill.fuse_onchip(&cs.legs[0], &ms.legs[0], overhead),
                    &plans.decode.fuse_onchip(&cs.legs[1], &ms.legs[1], overhead),
                );
            }
            let fused = slab.finish();
            FUSED_BUILT.add(fused.len() as u64);
            let mut map = self.memo.onchip.write().unwrap_or_else(PoisonError::into_inner);
            map.reserve(misses.len());
            for ((at, cs, ms), f) in misses.iter().zip(fused) {
                pairs[*at] = Some(map.entry((cs.key, ms.key)).or_insert(f).clone());
            }
        }

        Some(SweepCtx { plans, compute, memory, comm, point_sigs, n_msigs, pairs })
    }

    /// Evaluate one contiguous chunk of the sweep into `report`. Without
    /// a broadcast context every point is demoted.
    fn lattice_chunk(
        &self,
        start: usize,
        chunk: &[CandidateParams],
        ctx: Option<&SweepCtx>,
        report: &mut SweepReport,
    ) {
        let mut fast = 0u64;
        let mut fallback = 0u64;
        // Layer telemetry is tallied per point and flushed per chunk.
        let mut tally = acs_telemetry::enabled().then(LayerTally::default);
        for (off, cand) in chunk.iter().enumerate() {
            let index = start + off;
            let broadcast = ctx.and_then(|ctx| {
                ctx.point_sigs[index]
                    .and_then(|sigs| self.lattice_point(cand, sigs, ctx, tally.as_mut()))
            });
            match broadcast {
                Some(design) => {
                    fast += 1;
                    report.designs.push((index, design));
                }
                None => {
                    fallback += 1;
                    match self.demote(cand) {
                        Ok(design) => report.designs.push((index, design)),
                        Err(reason) => report.failures.push(DesignFailure {
                            index,
                            params: cand.name.clone(),
                            reason,
                        }),
                    }
                }
            }
        }
        if let Some(tally) = &mut tally {
            tally.flush();
        }
        FAST_POINTS.add(fast);
        FALLBACK_POINTS.add(fallback);
    }

    /// The broadcast fast path for one point. `None` demotes the point
    /// to the per-point evaluator — taken on any validity, cleanliness,
    /// or guard-check failure, so errors always carry the per-point
    /// path's exact shape.
    fn lattice_point(
        &self,
        cand: &CandidateParams,
        sigs: (u32, u32, u32),
        ctx: &SweepCtx,
        tally: Option<&mut LayerTally>,
    ) -> Option<EvaluatedDesign> {
        let (ci, mi, wi) = sigs;
        let (ci, mi, wi) = (ci as usize, mi as usize, wi as usize);
        let cs = ctx.compute[ci].as_ref()?;
        let ms = ctx.memory[mi].as_ref()?;
        let ws = ctx.comm[wi].as_ref()?;
        let pair = ctx.pairs[ci * ctx.n_msigs + mi].as_ref()?;
        let comm = &ws.fused;
        if !(pair.span.clean && comm.span.clean) {
            return None;
        }
        // Area assembled addend-by-addend in `total_mm2`'s exact
        // left-to-right order; the guard checks replicate the per-point
        // pipeline's order so the first failing stage matches.
        let a = cs.partial_area + ms.l2_area;
        let a = a + ms.hbm_phy_area;
        let a = a + ws.device_phy_area;
        let a = a + cs.control;
        let area = a + cs.fixed;
        if !(area.is_finite() && area > 0.0) {
            return None;
        }
        let tpp = cs.tpp;
        if !(tpp.is_finite() && tpp > 0.0) {
            return None;
        }
        let pd = tpp / area;
        if !(pd.is_finite() && pd > 0.0) {
            return None;
        }
        let die_cost_usd = self.cost_model.die_cost_usd(area);
        if !(die_cost_usd.is_finite() && die_cost_usd > 0.0) {
            return None;
        }
        // `good_die_cost_usd(area)` is defined as
        // `die_cost_usd(area) / die_yield(area)`; reusing the value just
        // computed is the same division on the same bits.
        let good_die_cost_usd = die_cost_usd / self.cost_model.die_yield(area);
        if !(good_die_cost_usd.is_finite() && good_die_cost_usd > 0.0) {
            return None;
        }
        let ttft_s = ctx.plans.prefill.try_ttft(pair.prefill(), comm.prefill()).ok()?;
        let tbt_s = ctx.plans.decode.try_tbt(pair.decode(), comm.decode()).ok()?;
        if let Some(tally) = tally {
            let plans = &ctx.plans;
            let (pair, comm) = (&pair.span.class_sums, &comm.span.class_sums);
            tally.add_layer(plans.prefill.phase(), &pair[0], &comm[0]);
            tally.add_layer(plans.decode.phase(), &pair[1], &comm[1]);
        }
        Some(EvaluatedDesign {
            name: cand.name.clone(),
            params: SweptParams {
                systolic_dim: cand.systolic_dim,
                lanes_per_core: cand.lanes_per_core,
                core_count: cand.core_count,
                l1_kib: cand.l1_kib,
                l2_mib: cand.l2_mib,
                hbm_tb_s: ms.hbm_tb_s,
                device_bw_gb_s: ws.device_bw_gb_s,
            },
            tpp,
            die_area_mm2: area,
            perf_density: pd,
            die_cost_usd,
            good_die_cost_usd,
            ttft_s,
            tbt_s,
            within_reticle: area <= RETICLE_LIMIT_MM2,
            pd_unregulated_2023: self.rule_2023.is_unregulated_dc(tpp, pd),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_llm::{ModelConfig, WorkloadConfig};

    fn runner() -> DseRunner {
        DseRunner::new(ModelConfig::gpt3_175b(), WorkloadConfig::paper_default())
    }

    fn small_spec() -> SweepSpec {
        SweepSpec {
            systolic_dims: vec![16],
            lanes_per_core: vec![2, 4],
            l1_kib: vec![192, 1024],
            l2_mib: vec![40],
            hbm_tb_s: vec![2.0, 3.2],
            device_bw_gb_s: vec![600.0],
        }
    }

    /// Every candidate priced alone through the per-point evaluator.
    fn per_point(
        r: &DseRunner,
        candidates: &[CandidateParams],
    ) -> Vec<Result<EvaluatedDesign, AcsError>> {
        candidates.iter().map(|cand| r.demote(cand)).collect()
    }

    #[test]
    fn lattice_sweep_is_bit_identical_to_per_point() {
        let r = runner();
        let candidates = small_spec().candidates(4800.0);
        let lattice = r.run_report(&candidates);
        assert!(lattice.failures.is_empty());
        assert_eq!(lattice.designs.len(), candidates.len());
        for ((i, l), p) in lattice.designs.iter().zip(per_point(&r, &candidates)) {
            let p = p.unwrap();
            assert_eq!(l, &p, "point {i}");
            assert_eq!(p.ttft_s.to_bits(), l.ttft_s.to_bits());
            assert_eq!(p.tbt_s.to_bits(), l.tbt_s.to_bits());
        }
    }

    #[test]
    fn faulted_candidates_fail_as_the_per_point_evaluator_does() {
        let r = runner();
        let mut candidates = small_spec().candidates(4800.0);
        candidates[1].hbm_tb_s = 0.0;
        candidates[3].lanes_per_core = 0;
        candidates[5].device_bw_gb_s = f64::NAN;
        let lattice = r.run_report(&candidates);
        let want: Vec<(usize, AcsError)> = per_point(&r, &candidates)
            .into_iter()
            .enumerate()
            .filter_map(|(i, outcome)| outcome.err().map(|e| (i, e)))
            .collect();
        assert_eq!(want.len(), 3);
        assert_eq!(lattice.failures.len(), want.len());
        for (l, (index, reason)) in lattice.failures.iter().zip(&want) {
            assert_eq!(l.index, *index);
            assert_eq!(l.params, candidates[*index].name);
            assert_eq!(&l.reason, reason);
        }
        assert_eq!(lattice.designs.len(), candidates.len() - 3);
    }

    #[test]
    fn a_sweep_wide_failure_demotes_every_point_on_either_harness() {
        // A zero device count fails before any probe: every chunk demotes
        // its points, which report the per-point typed error.
        let candidates = SweepSpec::table3_fig6().candidates(4800.0);
        for threads in [1, 2] {
            let r = runner().with_device_count(0).with_threads(threads);
            let report = r.run_report(&candidates);
            assert!(report.designs.is_empty());
            assert_eq!(report.failures.len(), candidates.len(), "{threads} threads");
            for (i, f) in report.failures.iter().enumerate() {
                assert_eq!((f.index, f.kind()), (i, "invalid_config"));
            }
        }
    }

    /// The memo's map sizes: plans, compute, memory, comm, on-chip pairs.
    fn memo_sizes(r: &DseRunner) -> [usize; 5] {
        let m = &r.memo;
        [
            m.plans.read().unwrap().len(),
            m.compute.read().unwrap().len(),
            m.memory.read().unwrap().len(),
            m.comm.read().unwrap().len(),
            m.onchip.read().unwrap().len(),
        ]
    }

    #[test]
    fn fused_tables_persist_across_sweeps() {
        let r = runner();
        let spec = small_spec();
        let _ = r.run_lattice(&spec, 4800.0);
        // 4 compute keys x 2 memory keys = 8 on-chip pairs; 1 comm key.
        // Both phases live in one PairFused entry, so the merged table
        // holds exactly one entry per distinct pair.
        let sizes = |r: &DseRunner| {
            let [.., comm, onchip] = memo_sizes(r);
            (onchip, comm)
        };
        let after_first = sizes(&r);
        assert_eq!(after_first, (8, 1));
        let _ = r.run_lattice(&spec, 4800.0);
        let after_second = sizes(&r);
        assert_eq!(after_second, after_first, "re-running the sweep must re-fuse nothing");
    }

    #[test]
    fn memo_holds_one_entry_per_signature() {
        for spec in [small_spec(), SweepSpec::table3_fig7(), SweepSpec::table5()] {
            let r = runner();
            let candidates = spec.candidates(2400.0);
            let _ = r.run_report(&candidates);
            let distinct = |key: &dyn Fn(&CandidateParams) -> Vec<u64>| {
                let mut keys: Vec<Vec<u64>> = candidates.iter().map(key).collect();
                keys.sort_unstable();
                keys.dedup();
                keys.len()
            };
            let compute = distinct(&|c| {
                [c.systolic_dim, c.lanes_per_core, c.core_count, c.l1_kib].map(u64::from).to_vec()
            });
            let memory = distinct(&|c| vec![u64::from(c.l2_mib), c.hbm_tb_s.to_bits()]);
            let comm = distinct(&|c| vec![c.device_bw_gb_s.to_bits()]);
            let pairs = distinct(&|c| {
                [c.systolic_dim, c.lanes_per_core, c.core_count, c.l1_kib, c.l2_mib]
                    .map(u64::from)
                    .into_iter()
                    .chain([c.hbm_tb_s.to_bits()])
                    .collect()
            });
            let cold = memo_sizes(&r);
            assert_eq!(cold, [1, compute, memory, comm, pairs], "{} points", candidates.len());
            let _ = r.run_report(&candidates);
            assert_eq!(memo_sizes(&r), cold, "a repeated sweep must add no entry");
        }
    }

    #[test]
    fn every_builder_starts_a_new_memo() {
        let moe = || DseRunner::new(ModelConfig::mixtral_8x7b(), WorkloadConfig::paper_default());
        type Builder = fn(DseRunner) -> DseRunner;
        let builders: [(&str, Builder); 4] = [
            ("device_count", |r| r.with_device_count(8)),
            ("expert_parallel", |r| r.with_expert_parallel(2)),
            ("datatype", |r| r.with_datatype(DataType::Int8)),
            ("sim_params", |r| {
                let mut params = acs_sim::SimParams::calibrated();
                params.op_overhead_s *= 2.0;
                r.with_sim_params(params)
            }),
        ];
        let candidates = small_spec().candidates(4800.0);
        for (builder, configure) in &builders {
            let warmed = moe();
            let before = warmed.run_report(&candidates);
            // The clone shares the warmed memo until the builder runs.
            let reused = configure(warmed.clone());
            assert_eq!(memo_sizes(&reused), [0; 5], "{builder}: the memo must start empty");
            let got = reused.run_report(&candidates);
            let fresh = configure(moe()).run_report(&candidates);
            assert!(got.failures.is_empty(), "{builder}: {:?}", got.failures);
            assert_eq!(got.designs.len(), candidates.len(), "{builder}");
            assert_ne!(got.designs, before.designs, "{builder} must move the designs");
            let per_point = per_point(&reused, &candidates);
            for (((i, g), (_, f)), p) in got.designs.iter().zip(&fresh.designs).zip(per_point) {
                let p = p.unwrap();
                assert_eq!(g, &p, "{builder}: point {i}");
                for (x, y) in [(g, f), (g, &p)] {
                    assert_eq!(x.ttft_s.to_bits(), y.ttft_s.to_bits(), "{builder}: point {i}");
                    assert_eq!(x.tbt_s.to_bits(), y.tbt_s.to_bits(), "{builder}: point {i}");
                }
            }
            assert_eq!(got.designs, fresh.designs, "{builder}");
        }
    }
}
