//! Lattice-algebra sweep evaluation: price the grid, not the points.
//!
//! This is the one sweep driver: [`DseRunner::run_report`],
//! [`DseRunner::run_lattice`] and [`DseRunner::run`] all price here.
//! Where the per-point evaluator ([`DseRunner::try_evaluate`]) builds a
//! device, walks both layer plans, and prices every operator at one
//! point, this module exploits the dependency-key argument of
//! `acs_sim::legs`. Each leg is priced once per distinct
//! `ComputeKey`/`MemoryKey`/`CommKey` into the runner's persistent leg
//! tables (`crate::factored`), fused into structure-of-arrays vectors
//! whose per-op guards are hoisted into a one-time cleanliness proof
//! ([`acs_sim::CombineProgram`]), and a grid point collapses to a few
//! dozen additions over pre-fused vectors plus the scalar area/cost
//! pipeline assembled from per-axis components — the outer-product
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
//! What persists across sweeps is keyed by dependency signature, never
//! by point: the runner's leg tables, the three probe caches, the fused
//! vectors and the combine programs. Each point is re-assembled from
//! them on every sweep, first visit or not — a few dozen additions cost
//! less than a lookup in a table of every point ever priced.

use crate::evaluate::{contained, DseRunner, EvaluatedDesign, SweptParams};
use crate::factored::FxMap;
use crate::report::{DesignFailure, SweepReport};
use crate::sweeps::{CandidateParams, SweepSpec};
use acs_errors::AcsError;
use acs_hw::{DataType, DeviceConfig, SystemConfig, RETICLE_LIMIT_MM2};
use acs_sim::{
    CombineProgram, CommKey, ComputeKey, EvalPlans, FusedLegs, LayerTally, LegKeys, MemoryKey,
    Simulator,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError, RwLock};

/// Both phases' fused vectors of one signature (an on-chip pair or a
/// comm key), with the conjunction of their cleanliness proofs hoisted
/// out so the per-point check is one local bool instead of four pointer
/// chases. Storing the phases together costs one table lookup per
/// signature instead of two — every sweep needs both phases anyway.
///
/// The values live in a slab shared by every signature one sweep fused:
/// prefill at `at..split`, decode at `split..end`. A cold sweep fusing
/// hundreds of signatures makes one allocation instead of three per
/// signature, so dropping a one-shot runner frees a few blocks rather
/// than leaving thousands of small ones for the allocator to sort on the
/// caller's next allocation.
#[derive(Debug, Clone)]
struct PairFused {
    slab: Arc<Vec<f64>>,
    span: FusedSpan,
}

/// Where one signature's vectors sit in their slab, with their proofs.
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

/// The fused vectors one sweep builds, appended to a single slab and
/// handed out as [`PairFused`] views once the sweep's misses are fused.
struct SlabBuilder {
    values: Vec<f64>,
    spans: Vec<FusedSpan>,
}

impl SlabBuilder {
    /// Room for `entries` signatures of `width` values each (both
    /// phases), so the slab is allocated once at its final size.
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

/// Fused-vector tables: one both-phase on-chip entry per (compute,
/// memory) key pair, one both-phase comm entry per comm key. Persistent
/// across sweeps through the runner (and through `AppState` in the
/// server), so repeated `/v1/screen` grids and what-if fleets re-fuse
/// nothing.
#[derive(Debug, Default)]
struct FusedTables {
    onchip: RwLock<FxMap<(ComputeKey, MemoryKey), PairFused>>,
    comm: RwLock<FxMap<CommKey, PairFused>>,
}

/// The lattice tables of one runner: per-phase fused vectors plus the
/// per-dtype combine programs. Reset wherever the leg tables reset
/// (device count, expert parallelism, datatype, calibration) —
/// the fused values bake in the launch overhead and the priced legs.
#[derive(Debug, Default)]
pub(crate) struct LatticeSlot {
    fused: FusedTables,
    programs: RwLock<FxMap<u32, Arc<ProgramPair>>>,
    /// Probe-derived per-signature constants, cached across sweeps.
    /// Sound because every cached field depends only on the axes in its
    /// own signature (the same invariant the broadcast itself rests on),
    /// and each successful probe has already priced its leg into the
    /// runner's persistent leg tables, which never evict. Failed
    /// probes are not cached: failure can depend on the sweep's base
    /// point, so they re-probe.
    csig_cache: RwLock<FxMap<(u32, u32, u32, u32), ComputeSigData>>,
    msig_cache: RwLock<FxMap<(u32, u64), MemorySigData>>,
    wsig_cache: RwLock<FxMap<u64, CommSigData>>,
}

/// The compiled combine loops of one dtype's plan pair.
#[derive(Debug)]
struct ProgramPair {
    prefill: CombineProgram,
    decode: CombineProgram,
}

impl LatticeSlot {
    /// The combine programs for one dtype width, compiled at most once
    /// per runner (read-mostly after the first point of a sweep).
    fn programs_for(&self, plans: &EvalPlans, dtype_bytes: u32) -> Arc<ProgramPair> {
        if let Some(pair) =
            self.programs.read().unwrap_or_else(PoisonError::into_inner).get(&dtype_bytes)
        {
            return Arc::clone(pair);
        }
        let built = Arc::new(ProgramPair {
            prefill: CombineProgram::of(&plans.prefill),
            decode: CombineProgram::of(&plans.decode),
        });
        let mut map = self.programs.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(dtype_bytes).or_insert(built))
    }
}

/// Resolve each signature key through one of [`LatticeSlot`]'s
/// persistent probe caches: a single read-lock pass serves the hits,
/// the misses probe, and a single write-lock pass publishes the
/// successful new entries. Failed probes are returned but never cached.
fn cached_sig_data<K, D>(
    cache: &RwLock<FxMap<K, D>>,
    keys: &[K],
    probe: impl Fn(&K) -> Option<D>,
) -> Vec<Option<D>>
where
    K: std::hash::Hash + Eq + Copy,
    D: Copy,
{
    let mut out: Vec<Option<D>> = vec![None; keys.len()];
    let mut misses: Vec<usize> = Vec::new();
    {
        let map = cache.read().unwrap_or_else(PoisonError::into_inner);
        for (at, (slot, key)) in out.iter_mut().zip(keys).enumerate() {
            match map.get(key) {
                Some(&d) => *slot = Some(d),
                None => misses.push(at),
            }
        }
    }
    if misses.is_empty() {
        return out;
    }
    for &at in &misses {
        out[at] = probe(&keys[at]);
    }
    let mut map = cache.write().unwrap_or_else(PoisonError::into_inner);
    map.reserve(misses.len());
    for &at in &misses {
        if let Some(d) = out[at] {
            map.insert(keys[at], d);
        }
    }
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

/// One compute signature's probe-derived constants: the dependency key,
/// the area components that depend only on compute axes (assembled in
/// the exact left-to-right order of `AreaBreakdown::total_mm2`), and
/// the achieved TPP.
#[derive(Debug, Clone, Copy)]
struct ComputeSigData {
    key: ComputeKey,
    /// `(systolic + vector) + l1` — the first three addends.
    partial_area: f64,
    control: f64,
    fixed: f64,
    tpp: f64,
}

/// One memory signature's constants: key, L2 and HBM-PHY area addends,
/// and the probe's round-tripped bandwidth for `SweptParams`.
#[derive(Debug, Clone, Copy)]
struct MemorySigData {
    key: MemoryKey,
    l2_area: f64,
    hbm_phy_area: f64,
    hbm_tb_s: f64,
}

/// One comm signature's constants: key (expert-parallel width already
/// folded in), device-PHY area addend, round-tripped total bandwidth.
#[derive(Debug, Clone, Copy)]
struct CommSigData {
    key: CommKey,
    device_phy_area: f64,
    device_bw_gb_s: f64,
}

/// The per-sweep broadcast context: programs, signature tables, and
/// fused vectors, shared read-only by the point workers. The fused
/// tables are dense — a pair lives at `ci * n_msigs + mi`, a comm at
/// `wi` — so the per-point path is two indexed loads, no hashing.
struct SweepCtx {
    programs: Arc<ProgramPair>,
    csig_data: Vec<Option<ComputeSigData>>,
    msig_data: Vec<Option<MemorySigData>>,
    wsig_data: Vec<Option<CommSigData>>,
    /// Per candidate index: (compute, memory, comm) signature indices,
    /// `None` when the candidate fails validation.
    point_sigs: Vec<Option<(u32, u32, u32)>>,
    n_msigs: usize,
    /// Fused on-chip vectors, dense over (csig, msig); `None` demotes.
    pairs: Vec<Option<PairFused>>,
    /// Fused comm vectors, dense over comm signatures.
    comms: Vec<Option<PairFused>>,
}

impl DseRunner {
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
    /// [`DseRunner::run_report`]. The lattice shape is read off the spec
    /// first: the compute leg varies with the systolic dimension, lane
    /// count, and L1 axes (the solved core count is a function of the
    /// first two), the DRAM leg with the L2 and HBM axes, and the
    /// collective leg with the device-bandwidth axis — so the leg tables
    /// are pre-sized to the lattice's distinct key counts and never
    /// rehash mid-sweep.
    #[must_use]
    pub fn run_lattice(&self, spec: &SweepSpec, tpp_target: f64) -> SweepReport {
        self.factored.reserve(
            spec.systolic_dims.len() * spec.lanes_per_core.len() * spec.l1_kib.len(),
            spec.l2_mib.len() * spec.hbm_tb_s.len(),
            spec.device_bw_gb_s.len(),
        );
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

    /// Build a probe device for one full parameter tuple, applying the
    /// runner's datatype override exactly as `retyped` would.
    fn build_probe(
        &self,
        dim: u32,
        lanes: u32,
        cores: u32,
        l1: u32,
        l2: u32,
        hbm: f64,
        bw: f64,
    ) -> Result<DeviceConfig, AcsError> {
        let cand = CandidateParams {
            name: "lattice-probe".to_owned(),
            systolic_dim: dim,
            lanes_per_core: lanes,
            core_count: cores,
            l1_kib: l1,
            l2_mib: l2,
            hbm_tb_s: hbm,
            device_bw_gb_s: bw,
        };
        let cfg = cand.build()?;
        match self.datatype {
            Some(dt) if dt != cfg.datatype() => {
                let mut builder = cfg.to_builder();
                builder.datatype(dt);
                Ok(builder.build()?)
            }
            _ => Ok(cfg),
        }
    }

    /// The broadcast context of one sweep: classify candidates into
    /// signatures, probe and price each signature once, and fuse
    /// per-pair vectors, so that [`DseRunner::lattice_point`] reduces
    /// every healthy point to scalar assembly plus two vector sums.
    /// Returns `None` when a sweep-wide precondition fails.
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
        let ep = plans.prefill.expert_parallel();
        let programs = self.lattice.programs_for(&plans, eff_dt.bytes());

        // Classify every candidate into (compute, memory, comm)
        // signatures. Row-major sweeps change the compute key once per
        // memory-by-comm block and the memory key once per comm block,
        // so one-entry run caches turn the common case into an integer
        // compare; comm signatures are few enough that a linear scan
        // beats any hash. `DeviceConfig` builder validity — the exact
        // predicate of `CandidateParams::build` — is a conjunction of
        // per-key terms over the same axes, so it is decided once per
        // signature, not once per point.
        let mut csig_ix: FxMap<(u32, u32, u32, u32), u32> = FxMap::default();
        let mut csigs: Vec<(u32, u32, u32, u32)> = Vec::new();
        let mut csig_ok: Vec<bool> = Vec::new();
        let mut msig_ix: FxMap<(u32, u64), u32> = FxMap::default();
        let mut msigs: Vec<(u32, f64)> = Vec::new();
        let mut msig_ok: Vec<bool> = Vec::new();
        let mut wsigs: Vec<f64> = Vec::new();
        let mut wsig_ok: Vec<bool> = Vec::new();
        let mut point_sigs: Vec<Option<(u32, u32, u32)>> = Vec::with_capacity(candidates.len());
        let mut base: Option<usize> = None;
        let mut last_c: Option<((u32, u32, u32, u32), u32)> = None;
        let mut last_m: Option<((u32, u64), u32)> = None;
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
                        msigs.push((cand.l2_mib, cand.hbm_tb_s));
                        let hbm_gb_s = cand.hbm_tb_s * 1000.0;
                        msig_ok.push(cand.l2_mib > 0 && hbm_gb_s.is_finite() && hbm_gb_s > 0.0);
                        (msigs.len() - 1) as u32
                    });
                    last_m = Some((mkey, ix));
                    ix
                }
            };
            let wbits = cand.device_bw_gb_s.to_bits();
            let wi = match wsigs.iter().position(|w| w.to_bits() == wbits) {
                Some(at) => at as u32,
                None => {
                    wsigs.push(cand.device_bw_gb_s);
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

        // Probe and price each signature once. Pricing goes through the
        // runner's leg tables with a representative simulator, so a
        // signature costs one plan walk per phase and later sweeps hit.
        let probe_sig = |dim: u32, lanes: u32, cores: u32, l1: u32, l2: u32, hbm: f64, bw: f64| {
            catch_unwind(AssertUnwindSafe(|| {
                let cfg = Arc::new(self.build_probe(dim, lanes, cores, l1, l2, hbm, bw).ok()?);
                let system = SystemConfig::shared(Arc::clone(&cfg), self.device_count).ok()?;
                let sim = Simulator::with_params(system, self.sim_params);
                let mut keys = LegKeys::of(sim.system());
                keys.comm.expert_parallel = ep;
                self.factored.prefill.legs_for(&sim, &plans.prefill, &keys);
                self.factored.decode.legs_for(&sim, &plans.decode, &keys);
                Some((cfg, keys))
            }))
            .ok()
            .flatten()
        };
        // Each kind's probe data is a pure function of its own signature
        // (the very invariant that lets one probe price a whole row), so
        // hits in the persistent caches skip the probe build entirely.
        let csig_data: Vec<Option<ComputeSigData>> = cached_sig_data(
            &self.lattice.csig_cache,
            &csigs,
            |&(dim, lanes, cores, l1)| {
                let (cfg, keys) = probe_sig(
                    dim,
                    lanes,
                    cores,
                    l1,
                    base.l2_mib,
                    base.hbm_tb_s,
                    base.device_bw_gb_s,
                )?;
                let b = self.area_model.die_area(&cfg);
                Some(ComputeSigData {
                    key: keys.compute,
                    partial_area: (b.systolic + b.vector) + b.l1,
                    control: b.control,
                    fixed: b.fixed,
                    tpp: cfg.tpp().0,
                })
            },
        );
        let msigs_keyed: Vec<(u32, u64)> =
            msigs.iter().map(|&(l2, hbm)| (l2, hbm.to_bits())).collect();
        let msig_data: Vec<Option<MemorySigData>> = cached_sig_data(
            &self.lattice.msig_cache,
            &msigs_keyed,
            |&(l2, hbm_bits)| {
                let (cfg, keys) = probe_sig(
                    base.systolic_dim,
                    base.lanes_per_core,
                    base.core_count,
                    base.l1_kib,
                    l2,
                    f64::from_bits(hbm_bits),
                    base.device_bw_gb_s,
                )?;
                let b = self.area_model.die_area(&cfg);
                Some(MemorySigData {
                    key: keys.memory,
                    l2_area: b.l2,
                    hbm_phy_area: b.hbm_phy,
                    hbm_tb_s: cfg.hbm().bandwidth_tb_s(),
                })
            },
        );
        let wsigs_keyed: Vec<u64> = wsigs.iter().map(|w| w.to_bits()).collect();
        let wsig_data: Vec<Option<CommSigData>> = cached_sig_data(
            &self.lattice.wsig_cache,
            &wsigs_keyed,
            |&bw_bits| {
                let (cfg, keys) = probe_sig(
                    base.systolic_dim,
                    base.lanes_per_core,
                    base.core_count,
                    base.l1_kib,
                    base.l2_mib,
                    base.hbm_tb_s,
                    f64::from_bits(bw_bits),
                )?;
                let b = self.area_model.die_area(&cfg);
                Some(CommSigData {
                    key: keys.comm,
                    device_phy_area: b.device_phy,
                    device_bw_gb_s: cfg.phy().total_gb_s(),
                })
            },
        );
        // Fuse the on-chip vector of every (compute, memory) pair that
        // actually occurs, and the comm vector of every comm signature —
        // consulting the persistent tables first. Distinct pairs are
        // walked once (not once per point), and warm lookups share one
        // read-lock acquisition per phase table.
        let base_keys = point_sigs
            .iter()
            .flatten()
            .next()
            .and_then(|&(ci, mi, wi)| {
                Some(LegKeys {
                    compute: csig_data[ci as usize]?.key,
                    memory: msig_data[mi as usize]?.key,
                    comm: wsig_data[wi as usize]?.key,
                })
            })?;
        let n_msigs = msigs.len();
        let mut pair_list: Vec<(u32, u32)> = Vec::with_capacity(csigs.len() * n_msigs);
        let mut comm_list: Vec<u32> = Vec::new();
        {
            let mut pair_seen = vec![false; csigs.len() * n_msigs];
            let mut comm_seen = vec![false; wsigs.len()];
            for &(ci, mi, wi) in point_sigs.iter().flatten() {
                let at = ci as usize * n_msigs + mi as usize;
                if !pair_seen[at] {
                    pair_seen[at] = true;
                    pair_list.push((ci, mi));
                }
                if !comm_seen[wi as usize] {
                    comm_seen[wi as usize] = true;
                    comm_list.push(wi);
                }
            }
        }
        let mut pairs: Vec<Option<PairFused>> = vec![None; csigs.len() * n_msigs];
        let mut misses: Vec<(u32, u32)> = Vec::with_capacity(pair_list.len());
        let mut hits = 0u64;
        {
            let map = self.lattice.fused.onchip.read().unwrap_or_else(PoisonError::into_inner);
            for &(ci, mi) in &pair_list {
                let (Some(cs), Some(ms)) = (csig_data[ci as usize], msig_data[mi as usize])
                else {
                    continue;
                };
                match map.get(&(cs.key, ms.key)) {
                    Some(f) => {
                        hits += 1;
                        pairs[ci as usize * n_msigs + mi as usize] = Some(f.clone());
                    }
                    None => misses.push((ci, mi)),
                }
            }
        }
        let mut comms: Vec<Option<PairFused>> = vec![None; wsigs.len()];
        let mut comm_misses: Vec<u32> = Vec::new();
        {
            let map = self.lattice.fused.comm.read().unwrap_or_else(PoisonError::into_inner);
            for &wi in &comm_list {
                let Some(ws) = wsig_data[wi as usize] else { continue };
                match map.get(&ws.key) {
                    Some(f) => {
                        hits += 1;
                        comms[wi as usize] = Some(f.clone());
                    }
                    None => comm_misses.push(wi),
                }
            }
        }
        FUSED_HIT.add(hits);
        // Fuse every miss into one slab, then publish the whole batch
        // under one write lock per table. A racing sweep that published
        // the same key first wins, and both read its entry.
        let mut slab = SlabBuilder::with_capacity(
            misses.len() + comm_misses.len(),
            programs.prefill.len() + programs.decode.len(),
        );
        let mut onchip_new: Vec<(usize, (ComputeKey, MemoryKey))> =
            Vec::with_capacity(misses.len());
        for &(ci, mi) in &misses {
            let (Some(cs), Some(ms)) = (csig_data[ci as usize], msig_data[mi as usize]) else {
                continue;
            };
            let keys = LegKeys { compute: cs.key, memory: ms.key, comm: base_keys.comm };
            let (Some((cp, mp, _)), Some((cd, md, _))) =
                (self.factored.prefill.get(&keys), self.factored.decode.get(&keys))
            else {
                continue;
            };
            slab.push(
                &programs.prefill.fuse_onchip(&cp, &mp, overhead),
                &programs.decode.fuse_onchip(&cd, &md, overhead),
            );
            onchip_new.push((ci as usize * n_msigs + mi as usize, (cs.key, ms.key)));
        }
        let mut comm_new: Vec<(usize, CommKey)> = Vec::new();
        for &wi in &comm_misses {
            let Some(ws) = wsig_data[wi as usize] else { continue };
            let keys =
                LegKeys { compute: base_keys.compute, memory: base_keys.memory, comm: ws.key };
            let (Some((_, _, wp)), Some((_, _, wd))) =
                (self.factored.prefill.get(&keys), self.factored.decode.get(&keys))
            else {
                continue;
            };
            slab.push(
                &programs.prefill.fuse_comm(&wp, overhead),
                &programs.decode.fuse_comm(&wd, overhead),
            );
            comm_new.push((wi as usize, ws.key));
        }
        let fused = slab.finish();
        FUSED_BUILT.add(fused.len() as u64);
        let (onchip_fused, comm_fused) = fused.split_at(onchip_new.len());
        if !onchip_new.is_empty() {
            let mut map = self.lattice.fused.onchip.write().unwrap_or_else(PoisonError::into_inner);
            map.reserve(onchip_new.len());
            for (&(at, key), f) in onchip_new.iter().zip(onchip_fused) {
                pairs[at] = Some(map.entry(key).or_insert_with(|| f.clone()).clone());
            }
        }
        if !comm_new.is_empty() {
            let mut map = self.lattice.fused.comm.write().unwrap_or_else(PoisonError::into_inner);
            for (&(at, key), f) in comm_new.iter().zip(comm_fused) {
                comms[at] = Some(map.entry(key).or_insert_with(|| f.clone()).clone());
            }
        }

        Some(SweepCtx {
            programs,
            csig_data,
            msig_data,
            wsig_data,
            point_sigs,
            n_msigs,
            pairs,
            comms,
        })
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
        let cs = ctx.csig_data[ci].as_ref()?;
        let ms = ctx.msig_data[mi].as_ref()?;
        let ws = ctx.wsig_data[wi].as_ref()?;
        let pair = ctx.pairs[ci * ctx.n_msigs + mi].as_ref()?;
        let comm = ctx.comms[wi].as_ref()?;
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
        let ttft_s = ctx.programs.prefill.try_ttft(pair.prefill(), comm.prefill()).ok()?;
        let tbt_s = ctx.programs.decode.try_tbt(pair.decode(), comm.decode()).ok()?;
        if let Some(tally) = tally {
            let programs = &ctx.programs;
            let (pair, comm) = (&pair.span.class_sums, &comm.span.class_sums);
            tally.add_layer(programs.prefill.phase(), &pair[0], &comm[0]);
            tally.add_layer(programs.decode.phase(), &pair[1], &comm[1]);
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

    #[test]
    fn fused_tables_persist_across_sweeps() {
        let r = runner();
        let spec = small_spec();
        let _ = r.run_lattice(&spec, 4800.0);
        // 4 compute keys x 2 memory keys = 8 on-chip pairs; 1 comm key.
        // Both phases live in one PairFused entry, so the merged table
        // holds exactly one entry per distinct pair.
        let sizes = |t: &FusedTables| {
            (
                t.onchip.read().unwrap().len(),
                t.comm.read().unwrap().len(),
            )
        };
        let after_first = sizes(&r.lattice.fused);
        assert_eq!(after_first, (8, 1));
        let _ = r.run_lattice(&spec, 4800.0);
        let after_second = sizes(&r.lattice.fused);
        assert_eq!(after_second, after_first, "re-running the sweep must re-fuse nothing");
    }
}
