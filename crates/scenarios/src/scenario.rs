//! One named evaluation scenario and its JSON spec parser.

use acs_cache::CacheKey;
use acs_errors::json::Value;
use acs_errors::AcsError;
use acs_dse::DseRunner;
use acs_hw::{DataType, DeviceConfig};
use acs_llm::{
    pipeline_stage_layers, InferencePhase, LayerGraph, ModelConfig, WorkloadConfig,
};
use std::fmt;
use std::fmt::Write as _;

/// Hard ceiling on the expert count an inline scenario spec may request.
/// The expected-experts-touched model is exact at any count, but the
/// per-expert weight accounting scales arrays linearly — an adversarial
/// "expert-count bomb" in a request body must be a typed 400, not an
/// allocation stall.
pub const MAX_EXPERTS: u32 = 256;

/// Hard ceiling on the total device count (`tensor × expert × pipeline`)
/// a scenario may span — matches the 4096-point grid ceiling of the
/// serving layer.
pub const MAX_SCENARIO_DEVICES: u64 = 4096;

/// How a scenario maps its model across devices: a tensor-parallel node,
/// times an expert-parallel group, times a pipeline depth. The three
/// degrees compose hierarchically (each pipeline stage holds an
/// `expert × tensor` grid), which is how multi-node deployments escape
/// the 4-device node the paper sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelismScheme {
    /// Tensor-parallel degree (the simulated node width).
    pub tensor: u32,
    /// Expert-parallel group size (1 for dense models).
    pub expert: u32,
    /// Pipeline depth in stages.
    pub pipeline_stages: u32,
}

impl ParallelismScheme {
    /// A single 4-device tensor-parallel node — the paper's deployment.
    #[must_use]
    pub fn tensor4() -> Self {
        ParallelismScheme { tensor: 4, expert: 1, pipeline_stages: 1 }
    }

    /// Total devices the scheme spans.
    #[must_use]
    pub fn devices(&self) -> u64 {
        u64::from(self.tensor) * u64::from(self.expert) * u64::from(self.pipeline_stages)
    }
}

impl fmt::Display for ParallelismScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tp{}/ep{}/pp{}", self.tensor, self.expert, self.pipeline_stages)
    }
}

/// A named, validated, canonically digestable evaluation scenario.
///
/// Construction validates the full composition — the tensor degree
/// against the model's head count, the expert group against the expert
/// count (and against dense models), the pipeline depth against the
/// layer count — so a held `Scenario` can always build its runner and
/// lower its plans without further error paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    model: ModelConfig,
    workload: WorkloadConfig,
    dtype: DataType,
    parallelism: ParallelismScheme,
}

impl Scenario {
    /// Compose and validate a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when any degree of the
    /// parallelism scheme is degenerate for `model` (zero degrees, a
    /// tensor width that does not divide the head count, an expert group
    /// on a dense model or one that does not divide the expert count, a
    /// pipeline deeper than the layer stack), when the scheme exceeds
    /// [`MAX_SCENARIO_DEVICES`], or when the model's expert count
    /// exceeds [`MAX_EXPERTS`].
    pub fn new(
        name: impl Into<String>,
        model: ModelConfig,
        workload: WorkloadConfig,
        dtype: DataType,
        parallelism: ParallelismScheme,
    ) -> Result<Self, AcsError> {
        if let Some(moe) = model.moe() {
            if moe.num_experts > MAX_EXPERTS {
                return Err(AcsError::invalid_config(
                    "scenario.experts",
                    format!("{} experts exceed the {MAX_EXPERTS}-expert ceiling", moe.num_experts),
                ));
            }
        }
        if parallelism.devices() > MAX_SCENARIO_DEVICES {
            return Err(AcsError::invalid_config(
                "scenario.parallelism",
                format!(
                    "{parallelism} spans {} devices, above the {MAX_SCENARIO_DEVICES} ceiling",
                    parallelism.devices()
                ),
            ));
        }
        // The graph builder owns tensor/expert validation; lowering one
        // prefill graph here means a held scenario can never fail later.
        LayerGraph::try_build_parallel(
            &model,
            &workload,
            InferencePhase::Prefill,
            parallelism.tensor,
            parallelism.expert,
            u64::from(dtype.bytes()),
        )?;
        pipeline_stage_layers(model.num_layers(), parallelism.pipeline_stages)?;
        Ok(Scenario { name: name.into(), model, workload, dtype, parallelism })
    }

    /// Parse an inline JSON scenario spec.
    ///
    /// Recognised members: `model` (required: `gpt3_175b`, `gpt3_13b`,
    /// `llama3_8b`, `llama3_70b`, or `mixtral_8x7b`), `name` (defaults
    /// to a derived canonical name), `experts`/`top_k` (optional pair
    /// converting a dense base into a MoE), `dtype` (default `fp16`),
    /// `tensor` (default 4), `expert` (default 1), `pipeline_stages`
    /// (default 1), `batch`/`input_len`/`output_len` (default the
    /// paper's 32 × 2048 × 1024).
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] for malformed members and
    /// [`AcsError::InvalidConfig`] for well-formed but degenerate specs
    /// (unknown model, expert bombs, zero-stage pipelines, …) — never
    /// panics, whatever the body says.
    pub fn from_json_value(v: &Value) -> Result<Self, AcsError> {
        let model_key = v.require_str("model")?;
        let mut model = match model_key {
            "gpt3_175b" => ModelConfig::gpt3_175b(),
            "gpt3_13b" => ModelConfig::gpt3_13b(),
            "llama3_8b" => ModelConfig::llama3_8b(),
            "llama3_70b" => ModelConfig::llama3_70b(),
            "mixtral_8x7b" => ModelConfig::mixtral_8x7b(),
            other => {
                return Err(AcsError::invalid_config(
                    "scenario.model",
                    format!(
                        "unknown model '{other}'; known: gpt3_175b, gpt3_13b, llama3_8b, \
                         llama3_70b, mixtral_8x7b"
                    ),
                ))
            }
        };
        let u32_member = |key: &str, default: u32| -> Result<u32, AcsError> {
            match v.get(key) {
                None => Ok(default),
                Some(m) => {
                    let raw = m.as_u64().ok_or_else(|| {
                        AcsError::Json { reason: format!("scenario member '{key}' must be a non-negative integer") }
                    })?;
                    u32::try_from(raw).map_err(|_| {
                        AcsError::invalid_config(
                            format!("scenario.{key}"),
                            format!("{raw} overflows the supported range"),
                        )
                    })
                }
            }
        };
        if v.get("experts").is_some() || v.get("top_k").is_some() {
            let experts = u32_member("experts", 0)?;
            let top_k = u32_member("top_k", 1)?;
            // Pre-validate what `with_moe` would panic on; the expert
            // ceiling itself is enforced by `Scenario::new`.
            if experts == 0 {
                return Err(AcsError::invalid_config("scenario.experts", "must be nonzero"));
            }
            if experts > MAX_EXPERTS {
                return Err(AcsError::invalid_config(
                    "scenario.experts",
                    format!("{experts} experts exceed the {MAX_EXPERTS}-expert ceiling"),
                ));
            }
            if top_k == 0 || top_k > experts {
                return Err(AcsError::invalid_config(
                    "scenario.top_k",
                    format!("must be in 1..={experts}, got {top_k}"),
                ));
            }
            model = model.with_moe(experts, top_k);
        }
        let dtype = match v.get("dtype") {
            None => DataType::Fp16,
            Some(m) => {
                let s = m
                    .as_str()
                    .ok_or_else(|| AcsError::Json { reason: "scenario member 'dtype' must be a string".into() })?;
                DataType::parse(s)?
            }
        };
        let parallelism = ParallelismScheme {
            tensor: u32_member("tensor", 4)?,
            expert: u32_member("expert", 1)?,
            pipeline_stages: u32_member("pipeline_stages", 1)?,
        };
        let default_workload = WorkloadConfig::paper_default();
        let u64_member = |key: &str, default: u64| -> Result<u64, AcsError> {
            match v.get(key) {
                None => Ok(default),
                Some(m) => m.as_u64().ok_or_else(|| {
                    AcsError::Json { reason: format!("scenario member '{key}' must be a non-negative integer") }
                }),
            }
        };
        let batch = u64_member("batch", default_workload.batch())?;
        let input_len = u64_member("input_len", default_workload.input_len())?;
        let output_len = u64_member("output_len", default_workload.output_len())?;
        if batch == 0 || input_len == 0 || output_len == 0 {
            return Err(AcsError::invalid_config(
                "scenario.workload",
                "batch, input_len, and output_len must be nonzero",
            ));
        }
        let workload = WorkloadConfig::new(batch, input_len, output_len);
        let name = match v.get("name") {
            None => derived_name(&model, dtype, parallelism),
            Some(m) => m
                .as_str()
                .ok_or_else(|| AcsError::Json { reason: "scenario member 'name' must be a string".into() })?
                .to_owned(),
        };
        Scenario::new(name, model, workload, dtype, parallelism)
    }

    /// The scenario's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model family.
    #[must_use]
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The inference workload shape.
    #[must_use]
    pub fn workload(&self) -> &WorkloadConfig {
        &self.workload
    }

    /// The operand datatype devices are screened at.
    #[must_use]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// The parallelism scheme.
    #[must_use]
    pub fn parallelism(&self) -> ParallelismScheme {
        self.parallelism
    }

    /// Whether the scenario's model routes through experts.
    #[must_use]
    pub fn is_moe(&self) -> bool {
        self.model.moe().is_some()
    }

    /// Activated-to-total parameter ratio: 1.0 for dense models, below
    /// 1.0 for MoE (the compute-vs-capacity wedge TPP ceilings miss).
    #[must_use]
    pub fn activation_ratio(&self) -> f64 {
        self.model.activated_params() as f64 / self.model.total_params() as f64
    }

    /// The canonical form covering every input of the scenario — the
    /// content-addressing contract all scenario-keyed caches share.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut key = String::with_capacity(160);
        let _ = write!(
            key,
            "scenario-v1|name={}|model={};layers={};d={};ffn={};heads={};kv={}",
            self.name,
            self.model.name(),
            self.model.num_layers(),
            self.model.d_model(),
            self.model.d_ffn(),
            self.model.num_heads(),
            self.model.num_kv_heads(),
        );
        if let Some(moe) = self.model.moe() {
            let _ = write!(key, ";moe={}x{}", moe.num_experts, moe.top_k);
        }
        let _ = write!(
            key,
            "|wl={}x{}x{}|dt={}|tp={}|ep={}|pp={}",
            self.workload.batch(),
            self.workload.input_len(),
            self.workload.output_len(),
            self.dtype,
            self.parallelism.tensor,
            self.parallelism.expert,
            self.parallelism.pipeline_stages,
        );
        key
    }

    /// FNV-1a digest of [`Scenario::canonical`].
    #[must_use]
    pub fn digest(&self) -> u64 {
        CacheKey::from_canonical(self.canonical()).digest()
    }

    /// A sweep runner configured for this scenario: the simulated node
    /// is the tensor-parallel group, plans lower under the scenario's
    /// expert-parallel degree, and every evaluated configuration is
    /// retyped to the scenario's operand format before pricing. Each
    /// scenario should hold on to ONE runner per service lifetime — the
    /// runner's lattice memo is per-instance, so reuse across requests
    /// is what turns the scenario axis into memo hits instead of
    /// re-priced graphs. (Pipeline stages are not part of the node
    /// the runner simulates; use `acs_sim::pipeline_latency`-style
    /// accounting — via the repro targets — for the pipeline dimension.)
    #[must_use]
    pub fn runner(&self) -> DseRunner {
        DseRunner::new(self.model.clone(), self.workload)
            .with_device_count(self.parallelism.tensor)
            .with_expert_parallel(self.parallelism.expert)
            .with_datatype(self.dtype)
    }

    /// Rebuild `config` with this scenario's operand datatype (the
    /// sweep lattice generates fp16 candidates; a scenario screens the
    /// same silicon at its own operand width).
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] if the device fails
    /// re-validation — possible only for hand-built configs, not for
    /// lattice candidates.
    pub fn retype(&self, config: &DeviceConfig) -> Result<DeviceConfig, AcsError> {
        if config.datatype() == self.dtype {
            return Ok(config.clone());
        }
        Ok(config.to_builder().datatype(self.dtype).build()?)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} @ {} {}]", self.name, self.model.name(), self.dtype, self.parallelism)
    }
}

/// Canonical derived name for unnamed inline specs:
/// `<family>-<model>-<dtype>-tpT[-epE][-ppP]`.
fn derived_name(model: &ModelConfig, dtype: DataType, p: ParallelismScheme) -> String {
    let family = if model.moe().is_some() { "moe" } else { "dense" };
    let slug: String = model
        .name()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    let mut name = format!("{family}-{slug}-{dtype}-tp{}", p.tensor);
    if p.expert > 1 {
        let _ = write!(name, "-ep{}", p.expert);
    }
    if p.pipeline_stages > 1 {
        let _ = write!(name, "-pp{}", p.pipeline_stages);
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_errors::json::parse;

    fn dense() -> Scenario {
        Scenario::new(
            "dense-test",
            ModelConfig::llama3_8b(),
            WorkloadConfig::paper_default(),
            DataType::Fp16,
            ParallelismScheme::tensor4(),
        )
        .unwrap()
    }

    #[test]
    fn moe_scenarios_compose_and_digest_stably() {
        let s = Scenario::new(
            "moe-test",
            ModelConfig::mixtral_8x7b(),
            WorkloadConfig::paper_default(),
            DataType::Fp8,
            ParallelismScheme { tensor: 4, expert: 4, pipeline_stages: 2 },
        )
        .unwrap();
        assert!(s.is_moe());
        assert_eq!(s.parallelism().devices(), 32);
        assert!(s.activation_ratio() < 0.6, "top-2 of 8 experts activates a minority");
        assert_eq!(s.digest(), s.clone().digest(), "digest is content-derived");
        assert!(s.canonical().contains("moe=8x2"));
        assert!(s.canonical().contains("dt=fp8"));
        // The runner carries the scheme into the evaluation stack.
        let runner = s.runner();
        assert_eq!(runner.expert_parallel(), 4);
    }

    #[test]
    fn degenerate_compositions_are_typed_errors() {
        let w = WorkloadConfig::paper_default();
        let bad = [
            // Expert group on a dense model.
            (ModelConfig::llama3_8b(), ParallelismScheme { tensor: 4, expert: 2, pipeline_stages: 1 }),
            // Tensor width not dividing the head count.
            (ModelConfig::llama3_8b(), ParallelismScheme { tensor: 5, expert: 1, pipeline_stages: 1 }),
            // Group not dividing the expert count.
            (ModelConfig::mixtral_8x7b(), ParallelismScheme { tensor: 4, expert: 3, pipeline_stages: 1 }),
            // Pipeline deeper than the layer stack.
            (ModelConfig::llama3_8b(), ParallelismScheme { tensor: 4, expert: 1, pipeline_stages: 33 }),
            // Zero-stage pipeline.
            (ModelConfig::llama3_8b(), ParallelismScheme { tensor: 4, expert: 1, pipeline_stages: 0 }),
        ];
        for (model, p) in bad {
            let err = Scenario::new("bad", model, w, DataType::Fp16, p).unwrap_err();
            assert_eq!(err.kind(), "invalid_config", "{p}");
        }
    }

    #[test]
    fn device_ceiling_rejects_fleet_scale_schemes() {
        let err = Scenario::new(
            "huge",
            ModelConfig::mixtral_8x7b(),
            WorkloadConfig::paper_default(),
            DataType::Fp16,
            ParallelismScheme { tensor: 32, expert: 8, pipeline_stages: 32 },
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
        assert!(err.to_string().contains("8192 devices"));
    }

    #[test]
    fn json_specs_parse_with_defaults_and_derive_names() {
        let v = parse(r#"{"model":"mixtral_8x7b","dtype":"fp8","expert":8}"#).unwrap();
        let s = Scenario::from_json_value(&v).unwrap();
        assert_eq!(s.name(), "moe-mixtral-8x7b-fp8-tp4-ep8");
        assert_eq!(s.dtype(), DataType::Fp8);
        assert_eq!(s.parallelism().tensor, 4, "tensor defaults to the paper's node");
        // A dense default spec matches the hand-built scenario.
        let d = Scenario::from_json_value(&parse(r#"{"model":"llama3_8b"}"#).unwrap()).unwrap();
        assert_eq!(d.model(), dense().model());
        assert_eq!(d.dtype(), DataType::Fp16);
        // An explicit MoE wrap of a dense base.
        let m = Scenario::from_json_value(
            &parse(r#"{"model":"llama3_8b","experts":4,"top_k":2,"expert":2}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(m.model().moe().map(|c| (c.num_experts, c.top_k)), Some((4, 2)));
    }

    #[test]
    fn hostile_json_specs_are_typed_errors_never_panics() {
        let cases = [
            (r#"{"model":"gpt5"}"#, "invalid_config"),
            (r#"{"dtype":"fp16"}"#, "json"),
            (r#"{"model":"llama3_8b","experts":100000,"top_k":1}"#, "invalid_config"),
            (r#"{"model":"llama3_8b","experts":0}"#, "invalid_config"),
            (r#"{"model":"llama3_8b","experts":4,"top_k":9}"#, "invalid_config"),
            (r#"{"model":"llama3_8b","pipeline_stages":0}"#, "invalid_config"),
            (r#"{"model":"llama3_8b","tensor":0}"#, "invalid_config"),
            (r#"{"model":"llama3_8b","dtype":"fp64"}"#, "invalid_config"),
            (r#"{"model":"llama3_8b","batch":0}"#, "invalid_config"),
            (r#"{"model":"llama3_8b","tensor":"four"}"#, "json"),
            (r#"{"model":"llama3_8b","experts":99999999999}"#, "invalid_config"),
        ];
        for (body, kind) in cases {
            let v = parse(body).unwrap();
            let err = Scenario::from_json_value(&v).unwrap_err();
            assert_eq!(err.kind(), kind, "{body}");
        }
    }

    #[test]
    fn retype_swaps_the_operand_width_only() {
        let s = Scenario::new(
            "int4",
            ModelConfig::llama3_8b(),
            WorkloadConfig::paper_default(),
            DataType::Int4,
            ParallelismScheme::tensor4(),
        )
        .unwrap();
        let base = DeviceConfig::a100_like();
        let retyped = s.retype(&base).unwrap();
        assert_eq!(retyped.datatype(), DataType::Int4);
        assert_eq!(retyped.core_count(), base.core_count());
        // Eq. 1 multiplies TOPS by the operand bit width, so 4-bit
        // operands shed 3/4 of the TPP at constant silicon — the
        // sanctions-evasion wedge: the same die screens lower.
        let ratio = retyped.tpp().0 / base.tpp().0;
        assert!((ratio - 0.25).abs() < 0.01, "int4/fp16 TPP ratio = {ratio}");
        // Same-dtype retyping is a clone.
        assert_eq!(dense().retype(&base).unwrap(), base);
    }
}
