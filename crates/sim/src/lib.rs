//! Analytical performance simulator for LLM inference on systolic-array
//! accelerators.
//!
//! This is the reproduction's substitute for the LLMCompass framework the
//! paper evaluates with: a high-level, mechanism-faithful cost model that
//! prices each operator of a Transformer layer on the hardware template of
//! [`acs_hw`]:
//!
//! * **Matmuls** ([`matmul`]) map onto the systolic arrays with an L1
//!   capacity-driven tiling: larger local buffers allow taller activation
//!   panels, amortising the array's fill/drain pipeline overhead.
//!   DRAM traffic follows from L2-capacity-driven blocking.
//! * **Vector operators** ([`vector`]) are priced on the vector units with
//!   a roofline; their low arithmetic intensity makes them
//!   bandwidth-bound, with small intermediates forwarded through the L2.
//! * **Collectives** ([`collective`]) use a ring all-reduce across the
//!   device-to-device PHYs.
//!
//! The headline outputs are the paper's two metrics: time-to-first-token
//! (TTFT, the prefill latency of one layer) and time-between-tokens (TBT,
//! the per-token decode latency of one layer). Like the paper, one
//! representative layer is simulated (§3.2).
//!
//! # Example
//!
//! ```
//! use acs_hw::{DeviceConfig, SystemConfig};
//! use acs_llm::{ModelConfig, WorkloadConfig};
//! use acs_sim::Simulator;
//!
//! let node = SystemConfig::quad(DeviceConfig::a100_like())?;
//! let sim = Simulator::new(node);
//! let gpt3 = ModelConfig::gpt3_175b();
//! let work = WorkloadConfig::paper_default();
//!
//! let ttft_ms = sim.ttft_s(&gpt3, &work) * 1e3;
//! let tbt_ms = sim.tbt_s(&gpt3, &work) * 1e3;
//! assert!(ttft_ms > 100.0 && ttft_ms < 500.0, "per-layer prefill, ms: {ttft_ms}");
//! assert!(tbt_ms > 0.5 && tbt_ms < 3.0, "per-token decode, ms: {tbt_ms}");
//! # Ok::<(), acs_hw::HwError>(())
//! ```

pub mod collective;
pub mod energy;
pub mod latency;
pub mod legs;
pub mod matmul;
pub mod metrics;
pub mod parallelism;
pub mod params;
pub mod plan;
pub mod serving;
pub mod vector;

pub use energy::{energy_per_token_j, layer_energy, EnergyReport};
pub use latency::{Bound, LayerLatency, OpCost, Simulator};
pub use legs::{
    CombineProgram, CommKey, ComputeKey, ComputeLeg, FusedLegs, LayerTally, LegKeys, MemoryKey,
    MemoryLeg, PlanLegs,
};
pub use collective::{allreduce_cost, alltoall_cost, CollectiveCost};
pub use plan::{plan_digest, plan_digest_parallel, EvalPlans, LayerPlan, PlanStore};
pub use metrics::{decode_throughput_tokens_per_s, mfu, request_latency_s};
pub use parallelism::{
    mapping_latency, pipeline_latency, MappingLatency, Parallelism, PipelineLatency,
};
pub use params::SimParams;
pub use serving::{
    simulate_disaggregated, simulate_serving, simulate_serving_cached, ServingConfig,
    ServingMetrics, StepCostCache,
};
