//! Decoder-only Transformer model configurations (paper Table 2).

use std::fmt;

/// Feed-forward activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Activation {
    /// GELU, used by GPT-3: one up-projection, one down-projection.
    Gelu,
    /// SwiGLU, used by Llama 3: gate + up projections, a SiLU-multiply,
    /// and a down-projection.
    SwiGlu,
}

impl Activation {
    /// Number of FFN weight matrices this activation implies.
    #[must_use]
    pub fn ffn_matmul_count(self) -> u32 {
        match self {
            Activation::Gelu => 2,
            Activation::SwiGlu => 3,
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Activation::Gelu => write!(f, "GELU"),
            Activation::SwiGlu => write!(f, "SwiGLU"),
        }
    }
}

/// Mixture-of-experts feed-forward configuration.
///
/// Each layer carries `num_experts` independent FFN weight sets; a router
/// sends every token to its `top_k` highest-scoring experts. Compute per
/// token scales with `top_k`, while *weight capacity and decode-time
/// weight traffic* scale with the number of experts actually touched — the
/// property that makes MoE decoding punishingly memory-bound at small
/// batch sizes, and an instructive extension for sanction analysis
/// (TPP-style compute ceilings say nothing about expert capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoeConfig {
    /// Experts per layer.
    pub num_experts: u32,
    /// Experts activated per token.
    pub top_k: u32,
}

impl MoeConfig {
    /// Expected number of distinct experts touched by `assignments`
    /// token-to-expert routings under uniform routing.
    #[must_use]
    pub fn expected_experts_touched(&self, assignments: u64) -> f64 {
        let e = f64::from(self.num_experts);
        e * (1.0 - (1.0 - 1.0 / e).powf(assignments as f64))
    }
}

/// Hyperparameters of a decoder-only Transformer (one entry of Table 2).
///
/// # Example
///
/// ```
/// use acs_llm::ModelConfig;
///
/// let llama = ModelConfig::llama3_8b();
/// assert_eq!(llama.num_kv_heads(), 8, "Llama 3 uses grouped-query attention");
/// assert_eq!(llama.head_dim(), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    name: String,
    num_layers: u32,
    d_model: u64,
    d_ffn: u64,
    num_heads: u32,
    num_kv_heads: u32,
    activation: Activation,
    moe: Option<MoeConfig>,
}

impl ModelConfig {
    /// Construct a model configuration.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, if `num_heads` does not divide
    /// `d_model`, or if `num_kv_heads` does not divide `num_heads`
    /// (grouped-query attention requires equal-sized groups).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        num_layers: u32,
        d_model: u64,
        d_ffn: u64,
        num_heads: u32,
        num_kv_heads: u32,
        activation: Activation,
    ) -> Self {
        assert!(num_layers > 0, "num_layers must be nonzero");
        assert!(d_model > 0 && d_ffn > 0, "dimensions must be nonzero");
        assert!(num_heads > 0 && num_kv_heads > 0, "head counts must be nonzero");
        assert_eq!(d_model % u64::from(num_heads), 0, "num_heads must divide d_model");
        assert_eq!(num_heads % num_kv_heads, 0, "num_kv_heads must divide num_heads");
        ModelConfig {
            name: name.into(),
            num_layers,
            d_model,
            d_ffn,
            num_heads,
            num_kv_heads,
            activation,
            moe: None,
        }
    }

    /// Convert the feed-forward network into a mixture of experts.
    ///
    /// # Panics
    ///
    /// Panics if `num_experts` is zero or `top_k` is zero or exceeds
    /// `num_experts`.
    #[must_use]
    pub fn with_moe(mut self, num_experts: u32, top_k: u32) -> Self {
        assert!(num_experts > 0, "num_experts must be nonzero");
        assert!(
            top_k > 0 && top_k <= num_experts,
            "top_k must be in 1..=num_experts"
        );
        self.moe = Some(MoeConfig { num_experts, top_k });
        self
    }

    /// GPT-3 175B: 96 layers, d=12288, FFN 49152, 96 heads (MHA), GELU.
    #[must_use]
    pub fn gpt3_175b() -> Self {
        ModelConfig::new("GPT-3 175B", 96, 12288, 49152, 96, 96, Activation::Gelu)
    }

    /// Llama 3 8B: 32 layers, d=4096, FFN 14336, 32 heads / 8 KV heads
    /// (GQA), SwiGLU.
    #[must_use]
    pub fn llama3_8b() -> Self {
        ModelConfig::new("Llama 3 8B", 32, 4096, 14336, 32, 8, Activation::SwiGlu)
    }

    /// Mixtral-8x7B-style mixture of experts: Llama-shaped layers with
    /// 8 experts, top-2 routing (an extension beyond the paper's Table 2).
    #[must_use]
    pub fn mixtral_8x7b() -> Self {
        ModelConfig::new("Mixtral 8x7B", 32, 4096, 14336, 32, 8, Activation::SwiGlu)
            .with_moe(8, 2)
    }

    /// Llama 3 70B: 80 layers, d=8192, FFN 28672, 64 heads / 8 KV heads.
    #[must_use]
    pub fn llama3_70b() -> Self {
        ModelConfig::new("Llama 3 70B", 80, 8192, 28672, 64, 8, Activation::SwiGlu)
    }

    /// GPT-3 13B: 40 layers, d=5140 rounded to 5120, 40 heads, GELU.
    #[must_use]
    pub fn gpt3_13b() -> Self {
        ModelConfig::new("GPT-3 13B", 40, 5120, 20480, 40, 40, Activation::Gelu)
    }

    /// The preset whose name matches `name`, ignoring case and every
    /// character that is not an ASCII letter or digit, so `llama3-8b`,
    /// `Llama 3 8B` and `llama3_8b` all resolve to [`ModelConfig::llama3_8b`].
    #[must_use]
    pub fn by_name(name: &str) -> Option<ModelConfig> {
        let canon = |s: &str| -> String {
            s.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_ascii_lowercase()
        };
        let wanted = canon(name);
        [
            ModelConfig::gpt3_13b(),
            ModelConfig::gpt3_175b(),
            ModelConfig::llama3_8b(),
            ModelConfig::llama3_70b(),
            ModelConfig::mixtral_8x7b(),
        ]
        .into_iter()
        .find(|preset| canon(preset.name()) == wanted)
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of Transformer layers.
    #[must_use]
    pub fn num_layers(&self) -> u32 {
        self.num_layers
    }

    /// Model (hidden) dimension.
    #[must_use]
    pub fn d_model(&self) -> u64 {
        self.d_model
    }

    /// Feed-forward inner dimension.
    #[must_use]
    pub fn d_ffn(&self) -> u64 {
        self.d_ffn
    }

    /// Number of attention (query) heads.
    #[must_use]
    pub fn num_heads(&self) -> u32 {
        self.num_heads
    }

    /// Number of key/value heads (`== num_heads` for MHA, fewer for GQA).
    #[must_use]
    pub fn num_kv_heads(&self) -> u32 {
        self.num_kv_heads
    }

    /// FFN activation function.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Mixture-of-experts configuration, if any.
    #[must_use]
    pub fn moe(&self) -> Option<MoeConfig> {
        self.moe
    }

    /// Per-head dimension (`d_model / num_heads`).
    #[must_use]
    pub fn head_dim(&self) -> u64 {
        self.d_model / u64::from(self.num_heads)
    }

    /// Query heads per KV head (the GQA group size).
    #[must_use]
    pub fn gqa_group_size(&self) -> u32 {
        self.num_heads / self.num_kv_heads
    }

    /// Combined K+V dimension (`2 · num_kv_heads · head_dim`).
    #[must_use]
    pub fn kv_dim(&self) -> u64 {
        2 * u64::from(self.num_kv_heads) * self.head_dim()
    }

    /// Weight parameters in one layer (QKV + output projections + FFN;
    /// all experts counted for MoE models, plus the router).
    #[must_use]
    pub fn params_per_layer(&self) -> u64 {
        let qkv = self.d_model * (self.d_model + self.kv_dim());
        let out = self.d_model * self.d_model;
        let ffn = u64::from(self.activation.ffn_matmul_count()) * self.d_model * self.d_ffn;
        match self.moe {
            None => qkv + out + ffn,
            Some(moe) => {
                let router = self.d_model * u64::from(moe.num_experts);
                qkv + out + ffn * u64::from(moe.num_experts) + router
            }
        }
    }

    /// Weight parameters *activated* per token in one layer: attention
    /// plus the router and only the `top_k` experts a token actually
    /// visits. Equal to [`ModelConfig::params_per_layer`] for dense
    /// models. The activated/total split is the load-bearing number for
    /// MoE sanction analysis — compute ceilings track activated
    /// parameters while memory capacity tracks total.
    #[must_use]
    pub fn activated_params_per_layer(&self) -> u64 {
        let qkv = self.d_model * (self.d_model + self.kv_dim());
        let out = self.d_model * self.d_model;
        let ffn = u64::from(self.activation.ffn_matmul_count()) * self.d_model * self.d_ffn;
        match self.moe {
            None => qkv + out + ffn,
            Some(moe) => {
                let router = self.d_model * u64::from(moe.num_experts);
                qkv + out + ffn * u64::from(moe.top_k) + router
            }
        }
    }

    /// Total weight parameters across all layers (embeddings excluded —
    /// the paper simulates a single representative layer).
    #[must_use]
    pub fn total_params(&self) -> u64 {
        u64::from(self.num_layers) * self.params_per_layer()
    }

    /// Activated parameters per token across all layers.
    #[must_use]
    pub fn activated_params(&self) -> u64 {
        u64::from(self.num_layers) * self.activated_params_per_layer()
    }

    /// KV-cache bytes appended per token per layer, for a given operand
    /// size in bytes.
    #[must_use]
    pub fn kv_bytes_per_token_per_layer(&self, dtype_bytes: u64) -> u64 {
        self.kv_dim() * dtype_bytes
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, d={}, ffn={}, {} heads / {} KV, {})",
            self.name,
            self.num_layers,
            self.d_model,
            self.d_ffn,
            self.num_heads,
            self.num_kv_heads,
            self.activation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_resolution_is_spelling_tolerant() {
        let name = |q: &str| ModelConfig::by_name(q).map(|m| m.name().to_owned());
        assert_eq!(name("llama3-8b").as_deref(), Some("Llama 3 8B"));
        assert_eq!(name("Llama 3 8B").as_deref(), Some("Llama 3 8B"));
        assert_eq!(name("GPT3_175B").as_deref(), Some("GPT-3 175B"));
        assert_eq!(name("gpt5"), None);
    }

    #[test]
    fn gpt3_matches_table2() {
        let m = ModelConfig::gpt3_175b();
        assert_eq!(m.num_layers(), 96);
        assert_eq!(m.d_model(), 12288);
        assert_eq!(m.d_ffn(), 49152);
        assert_eq!(m.num_heads(), 96);
        assert_eq!(m.num_kv_heads(), 96);
        assert_eq!(m.activation(), Activation::Gelu);
        assert_eq!(m.head_dim(), 128);
        assert_eq!(m.gqa_group_size(), 1);
    }

    #[test]
    fn llama3_matches_table2() {
        let m = ModelConfig::llama3_8b();
        assert_eq!(m.num_layers(), 32);
        assert_eq!(m.d_model(), 4096);
        assert_eq!(m.d_ffn(), 14336);
        assert_eq!(m.num_heads(), 32);
        assert_eq!(m.num_kv_heads(), 8);
        assert_eq!(m.activation(), Activation::SwiGlu);
        assert_eq!(m.gqa_group_size(), 4);
    }

    #[test]
    fn gpt3_param_count_is_about_175b() {
        // 96 layers of attention + FFN weights ≈ 174B (embeddings excluded).
        let total = ModelConfig::gpt3_175b().total_params() as f64;
        assert!(total > 165e9 && total < 180e9, "total = {total}");
    }

    #[test]
    fn llama3_param_count_is_about_7b_of_layer_weights() {
        // 8B model ≈ 6.98B of layer weights + ~1B embeddings.
        let total = ModelConfig::llama3_8b().total_params() as f64;
        assert!(total > 6.4e9 && total < 7.5e9, "total = {total}");
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let mha = ModelConfig::gpt3_175b();
        let gqa = ModelConfig::llama3_8b();
        // Per token per layer: GPT-3 stores 2*12288 values, Llama 2*1024.
        assert_eq!(mha.kv_bytes_per_token_per_layer(2), 2 * 12288 * 2);
        assert_eq!(gqa.kv_bytes_per_token_per_layer(2), 2 * 1024 * 2);
    }

    #[test]
    #[should_panic(expected = "num_kv_heads must divide num_heads")]
    fn rejects_ragged_gqa_groups() {
        let _ = ModelConfig::new("bad", 1, 4096, 16384, 32, 7, Activation::Gelu);
    }

    #[test]
    #[should_panic(expected = "num_heads must divide d_model")]
    fn rejects_non_dividing_heads() {
        let _ = ModelConfig::new("bad", 1, 4097, 16384, 32, 8, Activation::Gelu);
    }

    #[test]
    fn mixtral_moe_configuration() {
        let m = ModelConfig::mixtral_8x7b();
        let moe = m.moe().unwrap();
        assert_eq!(moe.num_experts, 8);
        assert_eq!(moe.top_k, 2);
        // ~46-47B of layer weights (8 experts of ~5.6B FFN + attention).
        let total = m.total_params() as f64;
        assert!(total > 4.2e10 && total < 5.0e10, "total = {total}");
        // Dense twin has 8x fewer FFN params.
        let dense = ModelConfig::llama3_8b();
        assert!(m.params_per_layer() > 5 * dense.params_per_layer());
    }

    #[test]
    fn expected_experts_touched_saturates() {
        let moe = MoeConfig { num_experts: 8, top_k: 2 };
        assert!(moe.expected_experts_touched(1) > 0.99);
        assert!(moe.expected_experts_touched(1) < 1.01);
        let many = moe.expected_experts_touched(10_000);
        assert!((many - 8.0).abs() < 1e-6, "all experts touched at scale");
        let some = moe.expected_experts_touched(8);
        assert!(some > 4.0 && some < 8.0);
    }

    #[test]
    #[should_panic(expected = "top_k must be in 1..=num_experts")]
    fn moe_rejects_oversized_top_k() {
        let _ = ModelConfig::llama3_8b().with_moe(4, 5);
    }

    #[test]
    fn llama70b_and_gpt13b_presets_are_plausible() {
        let l70 = ModelConfig::llama3_70b();
        let total = l70.total_params() as f64;
        assert!(total > 6.3e10 && total < 7.3e10, "llama-70B = {total}");
        let g13 = ModelConfig::gpt3_13b();
        let total13 = g13.total_params() as f64;
        assert!(total13 > 1.1e10 && total13 < 1.5e10, "gpt3-13B = {total13}");
    }

    #[test]
    fn display_contains_name_and_shape() {
        let s = ModelConfig::llama3_8b().to_string();
        assert!(s.contains("Llama 3 8B"));
        assert!(s.contains("SwiGLU"));
    }
}
