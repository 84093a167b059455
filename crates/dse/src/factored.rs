//! Dependency-keyed leg tables: the lattice engine's pricing substrate.
//!
//! A sweep walks a dense Cartesian grid, but each priced cost leg reads
//! only a subset of the axes (see `acs_sim::legs`): over the 1536-point
//! reference sweep the compute leg takes ~32 distinct values, the DRAM
//! leg 16, and the collective leg 3. These tables price each distinct
//! leg once and keep it for the runner's lifetime, so the lattice
//! engine (`crate::lattice`) fuses its per-signature vectors from
//! already-priced legs and a warm runner re-prices nothing.
//!
//! Because the tables are keyed by *value-derived* dependency keys
//! ([`LegKeys`], built from the concrete device, not from the sweep
//! axes), a permuted `SweepSpec` hits the same entries, and a faulted
//! candidate either fails validation before pricing or perturbs its key.
//! The `dse.factored.leg_hit`/`dse.factored.leg_miss` counters report
//! the tables' traffic.

use acs_sim::{ComputeLeg, LayerPlan, LegKeys, MemoryLeg, Simulator};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, PoisonError, RwLock};

/// A multiply-rotate hasher (the FxHash construction) for the leg and
/// lattice tables. The lookups sit on the sweep hot path and the default
/// SipHash costs more than a fused combine; these keys are small fixed
/// tuples of trusted internal values, so HashDoS resistance buys nothing
/// here.
#[derive(Debug, Default)]
pub(crate) struct FxHasher {
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

pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The three per-key leg maps of one phase, behind a single lock (one
/// acquisition covers all three lookups of a probe).
#[derive(Debug, Default)]
struct LegMaps {
    compute: FxMap<acs_sim::ComputeKey, Arc<Vec<ComputeLeg>>>,
    memory: FxMap<acs_sim::MemoryKey, Arc<Vec<MemoryLeg>>>,
    comm: FxMap<acs_sim::CommKey, Arc<Vec<f64>>>,
}

/// Per-phase leg tables shared by every sweep of a runner. One table per
/// leg kind, each keyed by exactly the parameters that leg reads, so
/// distinct axes never alias and identical sub-tuples never re-price.
#[derive(Debug, Default)]
pub(crate) struct LegTables(RwLock<LegMaps>);

/// The leg tables of one runner: prefill and decode phases are priced
/// against different plans, so they memoize independently. Reset
/// whenever the runner's device count or calibration changes (both are
/// baked into the priced legs but deliberately absent from the keys —
/// they are runner-level constants, not sweep axes).
#[derive(Debug, Default)]
pub(crate) struct FactoredSlot {
    pub(crate) prefill: LegTables,
    pub(crate) decode: LegTables,
}

impl LegTables {
    /// Fetch (or price and install) the three leg vectors of `plan` for
    /// the node described by `keys`. The hot path is one read-locked
    /// triple of hash lookups; on any miss the plan is priced once — a
    /// single graph walk covers all three legs — and only the missing
    /// tables are filled. A racing builder loses: `entry` keeps the
    /// first insertion so every reader shares one allocation.
    pub(crate) fn legs_for(
        &self,
        sim: &Simulator,
        plan: &LayerPlan,
        keys: &LegKeys,
    ) -> (Arc<Vec<ComputeLeg>>, Arc<Vec<MemoryLeg>>, Arc<Vec<f64>>) {
        // Cached handles: one lookup per signature probe.
        static HITS: acs_telemetry::GlobalCounter =
            acs_telemetry::GlobalCounter::new("dse.factored.leg_hit");
        static MISSES: acs_telemetry::GlobalCounter =
            acs_telemetry::GlobalCounter::new("dse.factored.leg_miss");
        let (compute, memory, comm) = {
            let maps = self.0.read().unwrap_or_else(PoisonError::into_inner);
            (
                maps.compute.get(&keys.compute).cloned(),
                maps.memory.get(&keys.memory).cloned(),
                maps.comm.get(&keys.comm).cloned(),
            )
        };
        let hits =
            u64::from(compute.is_some()) + u64::from(memory.is_some()) + u64::from(comm.is_some());
        HITS.add(hits);
        MISSES.add(3 - hits);
        if let (Some(c), Some(m), Some(w)) = (compute, memory, comm) {
            return (c, m, w);
        }
        let priced = sim.price_plan_legs(plan);
        let mut maps = self.0.write().unwrap_or_else(PoisonError::into_inner);
        let c = Arc::clone(
            maps.compute.entry(keys.compute).or_insert_with(|| Arc::new(priced.compute)),
        );
        let m =
            Arc::clone(maps.memory.entry(keys.memory).or_insert_with(|| Arc::new(priced.memory)));
        let w = Arc::clone(maps.comm.entry(keys.comm).or_insert_with(|| Arc::new(priced.comm)));
        (c, m, w)
    }

    /// Pure lookup: the already-priced leg vectors for `keys`, or `None`
    /// when any of the three is absent. Never prices — the lattice
    /// engine's fused-table builder uses this after its representative
    /// pricing pass, so a pricing failure there degrades to a per-point
    /// fallback instead of silently pricing against the wrong simulator.
    pub(crate) fn get(
        &self,
        keys: &LegKeys,
    ) -> Option<(Arc<Vec<ComputeLeg>>, Arc<Vec<MemoryLeg>>, Arc<Vec<f64>>)> {
        let maps = self.0.read().unwrap_or_else(PoisonError::into_inner);
        Some((
            Arc::clone(maps.compute.get(&keys.compute)?),
            Arc::clone(maps.memory.get(&keys.memory)?),
            Arc::clone(maps.comm.get(&keys.comm)?),
        ))
    }

    fn reserve(&self, compute: usize, memory: usize, comm: usize) {
        let mut maps = self.0.write().unwrap_or_else(PoisonError::into_inner);
        maps.compute.reserve(compute);
        maps.memory.reserve(memory);
        maps.comm.reserve(comm);
    }
}

impl FactoredSlot {
    /// Pre-size both phases' tables for a known lattice shape, so the
    /// miss-path insertions of a sweep never rehash mid-run.
    pub(crate) fn reserve(&self, compute: usize, memory: usize, comm: usize) {
        self.prefill.reserve(compute, memory, comm);
        self.decode.reserve(compute, memory, comm);
    }
}

#[cfg(test)]
mod tests {
    use crate::evaluate::DseRunner;
    use crate::sweeps::SweepSpec;
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

    #[test]
    fn leg_tables_stay_small() {
        let r = runner();
        let spec = small_spec();
        let _ = r.run_lattice(&spec, 4800.0);
        // 1 dim x 2 lanes x 2 l1 = 4 compute keys; 1 l2 x 2 hbm = 2
        // memory keys; 1 bandwidth = 1 comm key — per phase.
        let slot = &r.factored;
        for tables in [&slot.prefill, &slot.decode] {
            let maps = tables.0.read().unwrap();
            assert_eq!(maps.compute.len(), 4);
            assert_eq!(maps.memory.len(), 2);
            assert_eq!(maps.comm.len(), 1);
        }
    }

    #[test]
    fn calibration_change_resets_the_leg_tables() {
        let r = runner();
        let config = small_spec().configs(4800.0).remove(0);
        let base = r.run_lattice(&small_spec(), 4800.0).designs.remove(0).1;
        // A different overhead calibration must not see the old legs.
        let mut params = acs_sim::SimParams::calibrated();
        params.op_overhead_s *= 2.0;
        let recal = r.clone().with_sim_params(params);
        let shifted = recal.run_lattice(&small_spec(), 4800.0).designs.remove(0).1;
        assert!(shifted.ttft_s > base.ttft_s);
        assert_eq!(shifted.ttft_s.to_bits(), recal.try_evaluate(&config).unwrap().ttft_s.to_bits());
    }
}
