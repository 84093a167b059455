//! Serving-level simulation: continuous batching over a request trace.
//!
//! The layer simulator prices one phase of one batch; real deployments
//! interleave many requests. This module runs an iteration-level
//! (Orca-style) scheduler over a [`RequestTrace`]: waiting requests are
//! prefilled one at a time and join the running batch, which advances one
//! decode token per iteration; per-iteration costs come from the
//! analytical simulator at the *current* batch size and context. The
//! output is what an operator cares about — TTFT/TBT percentiles and
//! sustained throughput — letting restricted and compliant devices be
//! compared at the serving level, not just per-kernel.
//!
//! Per-iteration costs are memoised in a per-call table keyed by step
//! shape (phase, batch, bucketed context). [`simulate_serving_cached`]
//! backs that table with a content-addressed [`StepCostCache`] shared
//! across calls (and threads), consulted once per distinct shape, so a
//! long-lived service re-pricing the same device/model pairs skips the
//! analytical model entirely on repeat visits.

use crate::latency::Simulator;
use acs_cache::{CacheKey, CacheStats, ShardedCache};
use acs_errors::json::{object, Value};
use acs_llm::{InferencePhase, LayerGraph, ModelConfig, RequestTrace, WorkloadConfig};
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::fmt;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Maximum requests decoded together.
    pub max_batch: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig { max_batch: 32 }
    }
}

/// Aggregate serving metrics over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingMetrics {
    /// Requests completed.
    pub completed: usize,
    /// Mean time-to-first-token over completed requests, seconds
    /// (queueing included).
    pub mean_ttft_s: f64,
    /// Median TTFT, seconds.
    pub p50_ttft_s: f64,
    /// 99th-percentile TTFT, seconds.
    pub p99_ttft_s: f64,
    /// Mean per-token decode latency experienced, seconds.
    pub mean_tbt_s: f64,
    /// Output tokens generated per wall-clock second.
    pub throughput_tokens_per_s: f64,
    /// Wall-clock span of the simulation, seconds.
    pub makespan_s: f64,
}

/// Nearest-rank percentile over an ascending-sorted slice (`p` in 0..=1).
/// Returns 0 for an empty slice; with a single sample every percentile is
/// that sample, so p50 == p99 by construction.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

struct Active {
    remaining: u64,
    context: u64,
    tbt_sum: f64,
    tbt_count: u64,
    ttft_s: f64,
}

/// A shared, content-addressed cache of full-model phase costs, keyed by
/// the canonical text of (device fingerprint, calibration, model, node
/// shape) followed by the step's phase, batch and bucketed context.
/// Share one instance across
/// [`simulate_serving_cached`] calls — from sweeps, repro runs, or a
/// long-lived service — to skip re-pricing identical steps.
#[derive(Debug)]
pub struct StepCostCache {
    inner: ShardedCache<f64>,
}

impl StepCostCache {
    /// A cache bounded to `capacity` step costs.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        StepCostCache { inner: ShardedCache::new(capacity) }
    }

    /// Hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Entries currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl Default for StepCostCache {
    fn default() -> Self {
        StepCostCache::new(4096)
    }
}

/// One scheduler step's shape: the step-cost inputs that vary within a
/// call. Lengths and contexts are bucketed on construction, so equal
/// shapes always price identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Step {
    /// Prefill of one request whose prompt buckets to `len` tokens.
    Prefill { len: u64 },
    /// One decode iteration of `batch` requests whose mean context
    /// buckets to `context` tokens.
    Decode { batch: usize, context: u64 },
}

impl Step {
    fn prefill(input_len: u64) -> Self {
        Step::Prefill { len: bucket(input_len) }
    }

    fn decode(batch: usize, mean_context: u64) -> Self {
        Step::Decode { batch, context: bucket(mean_context) }
    }

    /// Full-model cost from the analytical simulator.
    fn price(self, sim: &Simulator, model: &ModelConfig) -> f64 {
        match self {
            Step::Prefill { len } => full_prefill_cost(sim, model, len),
            Step::Decode { batch, context } => full_decode_cost(sim, model, batch, context),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Prefill { len } => write!(f, "|prefill|b=1|ctx={len}"),
            Step::Decode { batch, context } => write!(f, "|decode|b={batch}|ctx={context}"),
        }
    }
}

/// Canonical text of every step-cost input that is fixed for one call:
/// the device's architectural parameters (operand width included), the
/// calibration, the model's identity ([`LayerGraph::model_key`]), and
/// the node's tensor-parallel degree and topology. A shared-cache key is
/// this prefix followed by one [`Step`]'s shape. The device *name* is
/// excluded: only load-bearing parameters are keyed, so identically
/// configured devices share entries.
fn step_prefix(sim: &Simulator, model: &ModelConfig) -> String {
    let system = sim.system();
    let d = system.device();
    let p = sim.params();
    let n = Value::Number;
    let u = |x: u64| Value::Number(x as f64);
    object(vec![
        ("v", Value::String("sim-step-v3".to_owned())),
        (
            "device",
            object(vec![
                ("cores", u(u64::from(d.core_count()))),
                ("lanes", u(u64::from(d.lanes_per_core()))),
                ("sys_x", u(u64::from(d.systolic().x))),
                ("sys_y", u(u64::from(d.systolic().y))),
                ("vec", u(u64::from(d.vector_width()))),
                ("ghz", n(d.frequency_ghz())),
                ("l1_kib", u(u64::from(d.l1_kib_per_core()))),
                ("l2_mib", u(u64::from(d.l2_mib()))),
                ("hbm_gb_s", n(d.hbm().bandwidth_gb_s)),
                ("hbm_gib", n(d.hbm().capacity_gib)),
                ("phy_gb_s", n(d.phy().total_gb_s())),
                ("dtype_bits", u(u64::from(d.datatype().bit_width()))),
            ]),
        ),
        (
            "params",
            object(vec![
                ("dram_eff", n(p.dram_efficiency)),
                ("dram_lat", n(p.dram_latency_s)),
                ("op_ovh", n(p.op_overhead_s)),
                ("l2_bpc", n(p.l2_bytes_per_lane_cycle)),
                ("ar_step", n(p.allreduce_step_latency_s)),
                ("l1_frac", n(p.l1_usable_fraction)),
                ("l2_frac", n(p.l2_usable_fraction)),
            ]),
        ),
        ("model", Value::String(LayerGraph::model_key(model))),
        ("tp", u(u64::from(system.device_count()))),
        ("topology", Value::String(format!("{:?}", system.topology()))),
    ])
    .to_json()
}

/// The continuous-batching scheduler, generic over the step-cost source.
fn run_schedule(
    trace: &RequestTrace,
    config: ServingConfig,
    mut step_cost: impl FnMut(Step) -> f64,
) -> ServingMetrics {
    let mut waiting: VecDeque<(f64, u64, u64)> = VecDeque::new();
    let mut pending = trace.requests().iter().copied().peekable();
    let mut active: Vec<Active> = Vec::new();
    let mut done: Vec<Active> = Vec::new();
    let mut now = 0.0_f64;
    let mut output_tokens = 0u64;

    loop {
        // Admit arrivals up to `now`.
        while let Some(r) = pending.peek() {
            if r.arrival_s <= now {
                waiting.push_back((r.arrival_s, r.input_len, r.output_len));
                pending.next();
            } else {
                break;
            }
        }

        let can_admit = active.len() < config.max_batch;
        if let Some((arrival, input, output)) =
            if can_admit { waiting.pop_front() } else { None }
        {
            // Prefill one waiting request and admit it. Cached handles:
            // this fires once per simulated step, far too often for a
            // registry name lookup per call.
            static PREFILL_STEPS: acs_telemetry::GlobalCounter =
                acs_telemetry::GlobalCounter::new("sim.serving.prefill_steps");
            static PREFILL_COST_US: acs_telemetry::GlobalHistogram =
                acs_telemetry::GlobalHistogram::new("sim.serving.prefill_cost_us");
            let step = step_cost(Step::prefill(input));
            PREFILL_STEPS.add(1);
            PREFILL_COST_US.record(step * 1e6);
            now += step;
            output_tokens += 1; // the prefill emits the first token
            let mut req = Active {
                remaining: output.saturating_sub(1),
                context: input + 1,
                tbt_sum: 0.0,
                tbt_count: 0,
                ttft_s: now - arrival,
            };
            if req.remaining == 0 {
                done.push(req);
            } else {
                req.context = input + 1;
                active.push(req);
            }
        } else if !active.is_empty() {
            // One decode iteration for the whole batch.
            let mean_context =
                active.iter().map(|a| a.context).sum::<u64>() / active.len() as u64;
            static DECODE_STEPS: acs_telemetry::GlobalCounter =
                acs_telemetry::GlobalCounter::new("sim.serving.decode_steps");
            static DECODE_COST_US: acs_telemetry::GlobalHistogram =
                acs_telemetry::GlobalHistogram::new("sim.serving.decode_cost_us");
            let step = step_cost(Step::decode(active.len(), mean_context));
            DECODE_STEPS.add(1);
            DECODE_COST_US.record(step * 1e6);
            now += step;
            output_tokens += active.len() as u64;
            for a in &mut active {
                a.remaining -= 1;
                a.context += 1;
                a.tbt_sum += step;
                a.tbt_count += 1;
            }
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining == 0 {
                    done.push(active.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        } else if let Some(r) = pending.peek() {
            // Idle: fast-forward to the next arrival.
            now = r.arrival_s;
        } else {
            break; // drained
        }
    }

    let completed = done.len();
    let mut ttfts: Vec<f64> = done.iter().map(|d| d.ttft_s).collect();
    ttfts.sort_by(f64::total_cmp);
    let mean_ttft = if completed > 0 {
        ttfts.iter().sum::<f64>() / completed as f64
    } else {
        0.0
    };
    let (tbt_sum, tbt_count) = done
        .iter()
        .fold((0.0, 0u64), |(s, c), d| (s + d.tbt_sum, c + d.tbt_count));
    ServingMetrics {
        completed,
        mean_ttft_s: mean_ttft,
        p50_ttft_s: percentile(&ttfts, 0.50),
        p99_ttft_s: percentile(&ttfts, 0.99),
        mean_tbt_s: if tbt_count > 0 { tbt_sum / tbt_count as f64 } else { 0.0 },
        throughput_tokens_per_s: if now > 0.0 { output_tokens as f64 / now } else { 0.0 },
        makespan_s: now,
    }
}

/// Bucket contexts/lengths to powers of two to bound the memo tables.
fn bucket(x: u64) -> u64 {
    x.max(1).next_power_of_two()
}

fn full_prefill_cost(sim: &Simulator, model: &ModelConfig, bucketed_len: u64) -> f64 {
    let layers = f64::from(model.num_layers());
    let w = WorkloadConfig::new(1, bucketed_len, 1);
    sim.simulate_layer(model, &w, InferencePhase::Prefill).total_s() * layers
}

fn full_decode_cost(sim: &Simulator, model: &ModelConfig, batch: usize, bucketed_ctx: u64) -> f64 {
    let layers = f64::from(model.num_layers());
    let w = WorkloadConfig::new(batch as u64, bucketed_ctx, 1);
    sim.simulate_layer(model, &w, InferencePhase::Decode { context_len: bucketed_ctx })
        .total_s()
        * layers
}

/// Run the continuous-batching scheduler for `model` on `sim`'s node over
/// `trace`.
///
/// Scheduling policy: prefill-prioritised — whenever a request is waiting
/// and the batch has room, it is prefilled (batch size 1) and admitted;
/// otherwise the running batch advances one decode iteration. Idle time
/// fast-forwards to the next arrival.
///
/// # Example
///
/// ```
/// use acs_hw::{DeviceConfig, SystemConfig};
/// use acs_llm::{LengthDistribution, ModelConfig, RequestTrace};
/// use acs_sim::{simulate_serving, ServingConfig, Simulator};
///
/// let sim = Simulator::new(SystemConfig::quad(DeviceConfig::a100_like())?);
/// let trace = RequestTrace::synthetic(
///     2.0, 10.0,
///     LengthDistribution::chat_prompts(),
///     LengthDistribution::chat_outputs(),
///     7,
/// )?;
/// let metrics = simulate_serving(&sim, &ModelConfig::llama3_8b(), &trace,
///     ServingConfig::default());
/// assert_eq!(metrics.completed, trace.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn simulate_serving(
    sim: &Simulator,
    model: &ModelConfig,
    trace: &RequestTrace,
    config: ServingConfig,
) -> ServingMetrics {
    simulate_memoised(sim, model, trace, config, None)
}

/// [`simulate_serving`] with step costs shared through a long-lived
/// [`StepCostCache`]: identical steps across *calls* — repeated service
/// queries, sweep points revisiting a device, repro re-runs — hit memory
/// instead of the analytical model. Each call consults the shared cache
/// once per distinct step shape it visits, not once per scheduler
/// iteration. Results are bit-identical to [`simulate_serving`] because
/// the key (the call's fixed device/model/calibration prefix plus the
/// step's phase, batch and bucketed context) captures every input of
/// the step cost.
#[must_use]
pub fn simulate_serving_cached(
    sim: &Simulator,
    model: &ModelConfig,
    trace: &RequestTrace,
    config: ServingConfig,
    cache: &StepCostCache,
) -> ServingMetrics {
    simulate_memoised(sim, model, trace, config, Some(cache))
}

/// The one memoised schedule: a per-call table of step costs, backed on
/// a local miss by the shared cache when there is one. The shared key's
/// fixed part is canonicalised once here, not once per iteration.
fn simulate_memoised(
    sim: &Simulator,
    model: &ModelConfig,
    trace: &RequestTrace,
    config: ServingConfig,
    shared: Option<&StepCostCache>,
) -> ServingMetrics {
    let shared = shared.map(|cache| (cache, step_prefix(sim, model)));
    let mut local: HashMap<Step, f64> = HashMap::new();
    // A run of decode iterations mostly repeats the previous step's
    // shape, so that one is checked before hashing into the table.
    let mut last: Option<(Step, f64)> = None;
    run_schedule(trace, config, |step| {
        if let Some((_, cost)) = last.filter(|&(shape, _)| shape == step) {
            return cost;
        }
        let cost = *local.entry(step).or_insert_with(|| match &shared {
            None => step.price(sim, model),
            Some((cache, prefix)) => {
                let key = CacheKey::from_canonical(format!("{prefix}{step}"));
                let (cost, hit) = cache
                    .inner
                    .get_or_try_insert::<Infallible>(&key, || Ok(step.price(sim, model)))
                    .unwrap_or_else(|e| match e {});
                record_stepcache(hit);
                cost
            }
        });
        last = Some((step, cost));
        cost
    })
}

/// Shared-cache outcome telemetry, with cached handles (one call per
/// distinct step shape of each cached serving call).
fn record_stepcache(hit: bool) {
    static HITS: acs_telemetry::GlobalCounter =
        acs_telemetry::GlobalCounter::new("sim.stepcache.hits");
    static MISSES: acs_telemetry::GlobalCounter =
        acs_telemetry::GlobalCounter::new("sim.stepcache.misses");
    if hit {
        HITS.add(1);
    } else {
        MISSES.add(1);
    }
}

/// Disaggregated (Splitwise-style) serving: a dedicated prefill node
/// processes prompts FIFO and hands the KV cache to a dedicated decode
/// node that runs continuous batching.
///
/// The handoff ships the request's KV cache
/// (`input_len × kv_dim × 2` bytes per layer, all layers) over the
/// prefill node's device links. TTFT is the prefill completion (the
/// prefill emits the first token); decoding proceeds undisturbed by
/// arriving prompts — the interference-isolation argument of the
/// phase-splitting literature the paper cites.
#[must_use]
pub fn simulate_disaggregated(
    prefill_sim: &Simulator,
    decode_sim: &Simulator,
    model: &ModelConfig,
    trace: &RequestTrace,
    config: ServingConfig,
) -> ServingMetrics {
    let layers = f64::from(model.num_layers());
    let link = prefill_sim.system().device().phy().unidirectional_gb_s() * 1e9;

    // FIFO prefill schedule: each request's decode-ready time.
    let mut ready = Vec::with_capacity(trace.len());
    let mut free_at = 0.0_f64;
    let mut prefill_cache: HashMap<u64, f64> = HashMap::new();
    for r in trace.requests() {
        let key = r.input_len.max(1).next_power_of_two();
        let cost = *prefill_cache
            .entry(key)
            .or_insert_with(|| full_prefill_cost(prefill_sim, model, key));
        let kv_bytes =
            (r.input_len * model.kv_bytes_per_token_per_layer(2)) as f64 * layers;
        let start = free_at.max(r.arrival_s);
        free_at = start + cost + kv_bytes / link;
        ready.push((free_at, r));
    }

    // The decode node sees "arrivals" at prefill completion; its TTFT
    // contribution is already paid, so requests enter with their first
    // token produced.
    let decode_trace = RequestTrace::new(
        ready
            .iter()
            .map(|(t, r)| acs_llm::Request {
                arrival_s: *t,
                input_len: r.input_len,
                output_len: r.output_len,
            })
            .collect(),
    );
    // Reuse the aggregated scheduler with prefill made free on the decode
    // node: emulate by measuring decode-side metrics, then overwrite TTFT
    // with the true prefill-side figures.
    let mut metrics = simulate_serving(decode_sim, model, &decode_trace, config);
    let mut ttfts: Vec<f64> =
        ready.iter().map(|(t, r)| *t - r.arrival_s).collect();
    ttfts.sort_by(f64::total_cmp);
    if !ttfts.is_empty() {
        metrics.mean_ttft_s = ttfts.iter().sum::<f64>() / ttfts.len() as f64;
        metrics.p50_ttft_s = percentile(&ttfts, 0.50);
        metrics.p99_ttft_s = percentile(&ttfts, 0.99);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimParams;
    use acs_hw::{DeviceConfig, SystemConfig};
    use acs_llm::{LengthDistribution, RequestTrace};

    fn sim() -> Simulator {
        Simulator::new(SystemConfig::quad(DeviceConfig::a100_like()).unwrap())
    }

    fn trace(rate: f64, seed: u64) -> RequestTrace {
        RequestTrace::synthetic(
            rate,
            30.0,
            LengthDistribution { median: 512, sigma: 0.5, min: 64, max: 2048 },
            LengthDistribution { median: 64, sigma: 0.5, min: 4, max: 256 },
            seed,
        )
        .unwrap()
    }

    #[test]
    fn all_requests_complete_and_metrics_are_sane() {
        let t = trace(1.0, 1);
        let m = simulate_serving(&sim(), &ModelConfig::llama3_8b(), &t, ServingConfig::default());
        assert_eq!(m.completed, t.len());
        assert!(m.mean_ttft_s > 0.0 && m.mean_ttft_s.is_finite());
        assert!(m.p99_ttft_s >= m.mean_ttft_s * 0.5);
        assert!(m.p50_ttft_s > 0.0 && m.p50_ttft_s <= m.p99_ttft_s);
        assert!(m.mean_tbt_s > 0.0);
        assert!(m.throughput_tokens_per_s > 0.0);
        assert!(m.makespan_s >= 30.0 * 0.5);
    }

    #[test]
    fn overload_inflates_ttft() {
        let model = ModelConfig::llama3_8b();
        let light = simulate_serving(&sim(), &model, &trace(0.5, 2), ServingConfig::default());
        let heavy = simulate_serving(&sim(), &model, &trace(30.0, 2), ServingConfig::default());
        assert!(
            heavy.p99_ttft_s > 2.0 * light.p99_ttft_s,
            "queueing should dominate under overload: {} vs {}",
            heavy.p99_ttft_s,
            light.p99_ttft_s
        );
    }

    #[test]
    fn larger_batch_limit_raises_throughput_under_load() {
        let model = ModelConfig::llama3_8b();
        let t = trace(20.0, 3);
        let small = simulate_serving(&sim(), &model, &t, ServingConfig { max_batch: 2 });
        let large = simulate_serving(&sim(), &model, &t, ServingConfig { max_batch: 32 });
        assert!(
            large.throughput_tokens_per_s > small.throughput_tokens_per_s,
            "{} vs {}",
            large.throughput_tokens_per_s,
            small.throughput_tokens_per_s
        );
    }

    #[test]
    fn bandwidth_rich_compliant_device_serves_more() {
        // The §4 asymmetry at the serving level: a TPP-capped but
        // bandwidth-maxed design sustains decode-heavy serving at least
        // as well as the A100.
        let model = ModelConfig::llama3_8b();
        let t = trace(15.0, 4);
        let compliant_dev = DeviceConfig::builder()
            .core_count(207)
            .lanes_per_core(2)
            .l2_mib(64)
            .hbm_bandwidth_tb_s(3.2)
            .build()
            .unwrap();
        let compliant =
            Simulator::new(SystemConfig::quad(compliant_dev).unwrap());
        let a = simulate_serving(&sim(), &model, &t, ServingConfig::default());
        let c = simulate_serving(&compliant, &model, &t, ServingConfig::default());
        assert!(
            c.throughput_tokens_per_s >= a.throughput_tokens_per_s * 0.95,
            "compliant {} vs A100 {}",
            c.throughput_tokens_per_s,
            a.throughput_tokens_per_s
        );
    }

    #[test]
    fn disaggregation_isolates_decode_from_prefill_interference() {
        // Same decode hardware; under load the aggregated node's decode
        // steps stall behind arriving prefills, the disaggregated one's
        // do not.
        let model = ModelConfig::llama3_8b();
        let t = trace(12.0, 5);
        let aggregated =
            simulate_serving(&sim(), &model, &t, ServingConfig::default());
        let disagg = simulate_disaggregated(&sim(), &sim(), &model, &t, ServingConfig::default());
        assert_eq!(disagg.completed, t.len());
        assert!(
            disagg.mean_tbt_s <= aggregated.mean_tbt_s * 1.05,
            "decode-side TBT should not regress: {} vs {}",
            disagg.mean_tbt_s,
            aggregated.mean_tbt_s
        );
        assert!(disagg.p99_ttft_s > 0.0 && disagg.p99_ttft_s.is_finite());
        assert!(disagg.p50_ttft_s > 0.0 && disagg.p50_ttft_s <= disagg.p99_ttft_s);
    }

    #[test]
    fn disaggregated_ttft_includes_queueing_and_kv_transfer() {
        let model = ModelConfig::llama3_8b();
        // A deterministic two-request trace arriving together: the second
        // prefill queues behind the first.
        let t = RequestTrace::new(vec![
            acs_llm::Request { arrival_s: 0.0, input_len: 1024, output_len: 8 },
            acs_llm::Request { arrival_s: 0.0, input_len: 1024, output_len: 8 },
        ]);
        let m = simulate_disaggregated(&sim(), &sim(), &model, &t, ServingConfig::default());
        assert_eq!(m.completed, 2);
        // Mean TTFT ≈ 1.5x the single-prefill latency (0.5·(1 + 2)).
        let single = m.p99_ttft_s / 2.0;
        assert!(
            (m.mean_ttft_s - 1.5 * single).abs() / m.mean_ttft_s < 0.05,
            "mean {} p99 {}",
            m.mean_ttft_s,
            m.p99_ttft_s
        );
    }

    #[test]
    fn empty_trace_yields_zero_metrics() {
        let t = RequestTrace::new(Vec::new());
        let m = simulate_serving(&sim(), &ModelConfig::llama3_8b(), &t, ServingConfig::default());
        assert_eq!(m.completed, 0);
        assert_eq!(m.throughput_tokens_per_s, 0.0);
        assert_eq!(m.p50_ttft_s, 0.0);
        assert_eq!(m.p99_ttft_s, 0.0);
        assert_eq!(m.makespan_s, 0.0);
    }

    #[test]
    fn max_batch_one_serialises_but_completes_everything() {
        let model = ModelConfig::llama3_8b();
        let t = trace(2.0, 6);
        let serial = simulate_serving(&sim(), &model, &t, ServingConfig { max_batch: 1 });
        assert_eq!(serial.completed, t.len());
        assert!(serial.mean_tbt_s > 0.0 && serial.mean_tbt_s.is_finite());
        // Serial decoding cannot out-run the batched default.
        let batched = simulate_serving(&sim(), &model, &t, ServingConfig::default());
        assert!(serial.throughput_tokens_per_s <= batched.throughput_tokens_per_s * 1.0001);
    }

    #[test]
    fn single_request_percentiles_collapse_to_the_sample() {
        let t = RequestTrace::new(vec![acs_llm::Request {
            arrival_s: 0.0,
            input_len: 512,
            output_len: 16,
        }]);
        let m = simulate_serving(&sim(), &ModelConfig::llama3_8b(), &t, ServingConfig::default());
        assert_eq!(m.completed, 1);
        // One sample: every percentile is that sample.
        assert_eq!(m.p50_ttft_s, m.p99_ttft_s);
        assert_eq!(m.p50_ttft_s, m.mean_ttft_s);
        assert!(m.p50_ttft_s > 0.0);
    }

    #[test]
    fn percentile_math_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.5), 3.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 51.0); // round(99·0.5) = 50 ⇒ index 50
    }

    /// The distinct step shapes a schedule visits under true costs,
    /// recorded independently of the memo tables.
    fn visited_steps(
        s: &Simulator,
        model: &ModelConfig,
        t: &RequestTrace,
        c: ServingConfig,
    ) -> usize {
        let mut seen = std::collections::HashSet::new();
        run_schedule(t, c, |step| {
            seen.insert(step);
            step.price(s, model)
        });
        seen.len()
    }

    #[test]
    fn cached_serving_is_bit_identical_and_hits_on_repeat() {
        let int8 = DeviceConfig::builder().datatype(acs_hw::DataType::Int8).build().unwrap();
        let mut cases = Vec::new();
        for model in
            [ModelConfig::llama3_8b(), ModelConfig::gpt3_175b(), ModelConfig::mixtral_8x7b()]
        {
            for max_batch in [1, 16, 32] {
                for devices in [1, 4, 8] {
                    cases.push((DeviceConfig::a100_like(), model.clone(), max_batch, devices));
                }
            }
        }
        cases.push((int8, ModelConfig::llama3_8b(), 32, 4));
        let cache = StepCostCache::new(1 << 16);
        for (seed, (device, model, max_batch, devices)) in (7u64..).zip(cases) {
            let s = Simulator::new(SystemConfig::new(device, devices).unwrap());
            let t = trace(2.0, seed);
            let config = ServingConfig { max_batch };
            let case =
                format!("{} max_batch={max_batch} devices={devices} seed={seed}", model.name());
            let local = simulate_serving(&s, &model, &t, config);
            let visited = visited_steps(&s, &model, &t, config) as u64;

            let before = cache.stats();
            let cold = simulate_serving_cached(&s, &model, &t, config, &cache);
            let after_cold = cache.stats();
            assert_eq!(cold, local, "cold shared cache changed results: {case}");
            // Earlier cases of the same node and model may have left
            // some of these steps behind, so only the total is fixed.
            let consulted = (after_cold.hits - before.hits) + (after_cold.misses - before.misses);
            assert_eq!(consulted, visited, "one consultation per distinct step: {case}");
            let inserted = after_cold.insertions - before.insertions;
            assert_eq!(inserted, after_cold.misses - before.misses, "{case}");

            let warm = simulate_serving_cached(&s, &model, &t, config, &cache);
            let after_warm = cache.stats();
            assert_eq!(warm, local, "warm shared cache changed results: {case}");
            assert_eq!(
                after_warm.hits - after_cold.hits,
                visited,
                "a warm call consults the shared cache once per distinct step: {case}"
            );
            assert_eq!(after_warm.misses, after_cold.misses, "{case}");
            assert_eq!(after_warm.insertions, after_cold.insertions, "{case}");
        }
    }

    #[test]
    fn step_cache_distinguishes_devices_and_models() {
        let cache = StepCostCache::new(4096);
        let t = RequestTrace::new(vec![
            acs_llm::Request { arrival_s: 0.0, input_len: 256, output_len: 4 },
            acs_llm::Request { arrival_s: 0.0, input_len: 300, output_len: 6 },
        ]);
        let config = ServingConfig::default();
        let llama = ModelConfig::llama3_8b();
        let a100 = sim();
        let other_dev = DeviceConfig::builder()
            .core_count(64)
            .hbm_bandwidth_tb_s(3.2)
            .build()
            .unwrap();
        let fp32_dev =
            DeviceConfig::builder().datatype(acs_hw::DataType::Fp32).build().unwrap();
        let slow_dram = SimParams { dram_efficiency: 0.5, ..SimParams::calibrated() };
        let a100_quad = || SystemConfig::quad(DeviceConfig::a100_like()).unwrap();
        let variants: Vec<(&str, Simulator, ModelConfig)> = vec![
            ("other device", Simulator::new(SystemConfig::quad(other_dev).unwrap()), llama.clone()),
            ("other model", sim(), ModelConfig::gpt3_175b()),
            ("other SimParams", Simulator::with_params(a100_quad(), slow_dram), llama.clone()),
            ("other dtype", Simulator::new(SystemConfig::quad(fp32_dev).unwrap()), llama.clone()),
            (
                "other device count",
                Simulator::new(SystemConfig::new(DeviceConfig::a100_like(), 8).unwrap()),
                llama.clone(),
            ),
            (
                "other topology",
                Simulator::new(a100_quad().with_topology(acs_hw::Topology::FullyConnected)),
                llama.clone(),
            ),
        ];
        let base = simulate_serving_cached(&a100, &llama, &t, config, &cache);
        for (what, s, model) in &variants {
            let m = simulate_serving_cached(s, model, &t, config, &cache);
            // Each variant moves the step costs, so sharing entries with
            // the base fingerprint would show up as a changed result.
            assert_eq!(m, simulate_serving(s, model, &t, config), "{what} aliased a cached step");
            assert_ne!(m.makespan_s, base.makespan_s, "{what} should change the step costs");
        }
        // An identically configured device under another name shares
        // every entry.
        let renamed = DeviceConfig::builder().name("a100-twin").build().unwrap();
        let before = cache.stats();
        let twin = simulate_serving_cached(
            &Simulator::new(SystemConfig::quad(renamed).unwrap()),
            &llama,
            &t,
            config,
            &cache,
        );
        assert_eq!(twin, base);
        assert_eq!(cache.stats().misses, before.misses, "the device name is not a cost input");
    }
}
