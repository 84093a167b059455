//! Lowering one Transformer layer to an operator sequence.
//!
//! Tensor parallelism follows the Megatron partitioning the paper's
//! 4-device node uses: attention heads and FFN columns are split across
//! devices, and each of the two blocks ends in an all-reduce. Norms and
//! residuals are computed redundantly on every device.

use crate::model::{Activation, ModelConfig, MoeConfig};
use crate::ops::{AllReduceOp, AllToAllOp, MatmulKind, MatmulOp, Operator, VectorKind, VectorOp};
use crate::workload::{InferencePhase, WorkloadConfig};
use acs_errors::AcsError;
use std::fmt::Write as _;

/// The per-device operator sequence of one Transformer layer.
///
/// # Example
///
/// ```
/// use acs_llm::{InferencePhase, LayerGraph, ModelConfig, WorkloadConfig};
///
/// let g = LayerGraph::build(
///     &ModelConfig::gpt3_175b(),
///     &WorkloadConfig::paper_default(),
///     InferencePhase::Prefill,
///     4,
/// );
/// // A 4-way tensor-parallel layer all-reduces twice.
/// assert_eq!(g.allreduce_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGraph {
    ops: Vec<Operator>,
    phase: InferencePhase,
    tensor_parallel: u32,
    expert_parallel: u32,
}

impl LayerGraph {
    /// Lower one layer of `model` under `phase` for a `tensor_parallel`-way
    /// node, with FP16 (2-byte) operands.
    ///
    /// # Panics
    ///
    /// Panics if `tensor_parallel` is zero or does not divide the model's
    /// attention-head count.
    #[must_use]
    pub fn build(
        model: &ModelConfig,
        workload: &WorkloadConfig,
        phase: InferencePhase,
        tensor_parallel: u32,
    ) -> Self {
        Self::build_with_dtype(model, workload, phase, tensor_parallel, 2)
    }

    /// [`LayerGraph::build`] with the panics replaced by typed errors,
    /// for plan-building paths that must report a bad tensor-parallel
    /// degree as an [`AcsError::InvalidConfig`] instead of unwinding.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when `tensor_parallel` is zero
    /// or does not divide the model's attention-head count.
    pub fn try_build(
        model: &ModelConfig,
        workload: &WorkloadConfig,
        phase: InferencePhase,
        tensor_parallel: u32,
    ) -> Result<Self, AcsError> {
        Self::try_build_with_dtype(model, workload, phase, tensor_parallel, 2)
    }

    /// [`LayerGraph::try_build`] with an explicit operand size in bytes.
    ///
    /// # Errors
    ///
    /// See [`LayerGraph::try_build`].
    pub fn try_build_with_dtype(
        model: &ModelConfig,
        workload: &WorkloadConfig,
        phase: InferencePhase,
        tensor_parallel: u32,
        dtype_bytes: u64,
    ) -> Result<Self, AcsError> {
        Self::try_build_parallel(model, workload, phase, tensor_parallel, 1, dtype_bytes)
    }

    /// [`LayerGraph::try_build_with_dtype`] with an expert-parallel degree.
    ///
    /// At `expert_parallel == 1` the lowering is byte-identical to the
    /// tensor-parallel-only form. Beyond 1, the MoE experts are sharded
    /// across an `expert_parallel`-wide group *orthogonal to* the
    /// tensor-parallel node (total devices = `tensor_parallel ×
    /// expert_parallel`): each device holds `num_experts /
    /// expert_parallel` experts, and the layer gains a dispatch
    /// all-to-all before the expert FFNs and a combine all-to-all after
    /// them, in exchange for each device processing only its `1 /
    /// expert_parallel` share of the routed token assignments.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::InvalidConfig`] when the tensor-parallel
    /// degree is invalid (see [`LayerGraph::try_build`]), when
    /// `expert_parallel` is zero, or when `expert_parallel > 1` on a
    /// dense model or with a degree that does not divide the expert
    /// count.
    pub fn try_build_parallel(
        model: &ModelConfig,
        workload: &WorkloadConfig,
        phase: InferencePhase,
        tensor_parallel: u32,
        expert_parallel: u32,
        dtype_bytes: u64,
    ) -> Result<Self, AcsError> {
        if tensor_parallel == 0 {
            return Err(AcsError::invalid_config("tensor_parallel", "must be nonzero"));
        }
        if model.num_heads() % tensor_parallel != 0 {
            return Err(AcsError::invalid_config(
                "tensor_parallel",
                format!(
                    "{tensor_parallel} does not divide the model's {} attention heads",
                    model.num_heads()
                ),
            ));
        }
        if expert_parallel == 0 {
            return Err(AcsError::invalid_config("expert_parallel", "must be nonzero"));
        }
        if expert_parallel > 1 {
            let Some(moe) = model.moe() else {
                return Err(AcsError::invalid_config(
                    "expert_parallel",
                    format!("{} is a dense model; expert parallelism needs experts", model.name()),
                ));
            };
            if moe.num_experts % expert_parallel != 0 {
                return Err(AcsError::invalid_config(
                    "expert_parallel",
                    format!(
                        "{expert_parallel} does not divide the model's {} experts",
                        moe.num_experts
                    ),
                ));
            }
        }
        Ok(Self::lower(model, workload, phase, tensor_parallel, expert_parallel, dtype_bytes))
    }

    /// Canonical text form of everything a layer plan depends on: the
    /// model's full hyperparameters, the workload shape, the phase
    /// (including the decode context), the tensor-parallel degree, and the
    /// operand size. Byte-identical inputs produce byte-identical keys, so
    /// the string (or its digest) content-addresses a lowered graph
    /// without building one. Infallible and validation-free by design —
    /// cache-key derivation must never fail.
    #[must_use]
    pub fn plan_key(
        model: &ModelConfig,
        workload: &WorkloadConfig,
        phase: InferencePhase,
        tensor_parallel: u32,
        dtype_bytes: u64,
    ) -> String {
        Self::plan_key_parallel(model, workload, phase, tensor_parallel, 1, dtype_bytes)
    }

    /// The model-identity section every [`LayerGraph::plan_key`] of
    /// `model` starts with: the version tag and the model's full
    /// hyperparameters. Callers that key many plans of one model can
    /// build it once and append their own shape members.
    #[must_use]
    pub fn model_key(model: &ModelConfig) -> String {
        let mut key = String::with_capacity(192);
        // `write!` into a String cannot fail; the results are discarded.
        let _ = write!(
            key,
            "llm-plan-v1|model={};layers={};d={};ffn={};heads={};kv={};act={}",
            model.name(),
            model.num_layers(),
            model.d_model(),
            model.d_ffn(),
            model.num_heads(),
            model.num_kv_heads(),
            model.activation(),
        );
        match model.moe() {
            Some(moe) => {
                let _ = write!(key, ";moe={}x{}", moe.num_experts, moe.top_k);
            }
            None => key.push_str(";moe=none"),
        }
        key
    }

    /// [`LayerGraph::plan_key`] with an expert-parallel degree. The `|ep=`
    /// member is appended only when `expert_parallel > 1`, so every key
    /// the pre-scenario stack ever produced stays byte-identical — the
    /// digests in blessed golden corpora and long-lived caches are
    /// unaffected by the parallelism extension.
    #[must_use]
    pub fn plan_key_parallel(
        model: &ModelConfig,
        workload: &WorkloadConfig,
        phase: InferencePhase,
        tensor_parallel: u32,
        expert_parallel: u32,
        dtype_bytes: u64,
    ) -> String {
        let mut key = Self::model_key(model);
        // `write!` into a String cannot fail; the results are discarded.
        let _ = write!(
            key,
            "|work=b{},i{},o{}",
            workload.batch(),
            workload.input_len(),
            workload.output_len()
        );
        match phase {
            InferencePhase::Prefill => key.push_str("|phase=prefill"),
            InferencePhase::Decode { context_len } => {
                let _ = write!(key, "|phase=decode@{context_len}");
            }
        }
        let _ = write!(key, "|tp={tensor_parallel}|dt={dtype_bytes}");
        if expert_parallel > 1 {
            let _ = write!(key, "|ep={expert_parallel}");
        }
        key
    }

    /// [`LayerGraph::build`] with an explicit operand size in bytes.
    ///
    /// # Panics
    ///
    /// See [`LayerGraph::build`].
    #[must_use]
    pub fn build_with_dtype(
        model: &ModelConfig,
        workload: &WorkloadConfig,
        phase: InferencePhase,
        tensor_parallel: u32,
        dtype_bytes: u64,
    ) -> Self {
        assert!(tensor_parallel > 0, "tensor_parallel must be nonzero");
        assert_eq!(
            model.num_heads() % tensor_parallel,
            0,
            "tensor_parallel must divide num_heads"
        );
        Self::lower(model, workload, phase, tensor_parallel, 1, dtype_bytes)
    }

    /// The one lowering routine every public constructor funnels into.
    /// Inputs are pre-validated by the caller.
    fn lower(
        model: &ModelConfig,
        workload: &WorkloadConfig,
        phase: InferencePhase,
        tensor_parallel: u32,
        expert_parallel: u32,
        dtype_bytes: u64,
    ) -> Self {
        let tp = u64::from(tensor_parallel);
        let b = workload.batch();
        let d = model.d_model();
        let dh = model.head_dim();
        let heads_per_dev = u64::from(model.num_heads()) / tp;
        // KV heads are replicated when tp exceeds their count (GQA).
        let kv_per_dev = (u64::from(model.num_kv_heads()) / tp).max(1);
        let group = heads_per_dev / kv_per_dev;

        let (s_q, s_kv) = match phase {
            InferencePhase::Prefill => (workload.input_len(), workload.input_len()),
            InferencePhase::Decode { context_len } => (1, context_len),
        };
        let tokens = b * s_q;
        let norm_kind = match model.activation() {
            Activation::Gelu => VectorKind::LayerNorm,
            Activation::SwiGlu => VectorKind::RmsNorm,
        };

        let mut ops = Vec::with_capacity(16);
        ops.push(Operator::Vector(VectorOp {
            name: "norm_attn",
            kind: norm_kind,
            elements: tokens * d,
        }));
        // Fused QKV projection: output columns per device are the local
        // query heads plus local K and V heads.
        let qkv_n = heads_per_dev * dh + 2 * kv_per_dev * dh;
        ops.push(Operator::Matmul(MatmulOp {
            name: "qkv_proj",
            m: tokens,
            n: qkv_n,
            k: d,
            count: 1,
            b_shared_by: 1,
            kind: MatmulKind::Weight,
        }));
        // Attention scores Q·Kᵀ: one instance per (batch, local head);
        // instances within a GQA group share the K operand.
        ops.push(Operator::Matmul(MatmulOp {
            name: "attn_score",
            m: s_q,
            n: s_kv,
            k: dh,
            count: b * heads_per_dev,
            b_shared_by: group,
            kind: MatmulKind::Activation,
        }));
        ops.push(Operator::Vector(VectorOp {
            name: "softmax",
            kind: VectorKind::Softmax,
            elements: b * heads_per_dev * s_q * s_kv,
        }));
        // Context A·V.
        ops.push(Operator::Matmul(MatmulOp {
            name: "attn_context",
            m: s_q,
            n: dh,
            k: s_kv,
            count: b * heads_per_dev,
            b_shared_by: group,
            kind: MatmulKind::Activation,
        }));
        ops.push(Operator::Matmul(MatmulOp {
            name: "out_proj",
            m: tokens,
            n: d,
            k: heads_per_dev * dh,
            count: 1,
            b_shared_by: 1,
            kind: MatmulKind::Weight,
        }));
        ops.push(Operator::AllReduce(AllReduceOp {
            name: "allreduce_attn",
            bytes: tokens * d * dtype_bytes,
        }));
        ops.push(Operator::Vector(VectorOp {
            name: "residual_attn",
            kind: VectorKind::ResidualAdd,
            elements: tokens * d,
        }));
        ops.push(Operator::Vector(VectorOp {
            name: "norm_ffn",
            kind: norm_kind,
            elements: tokens * d,
        }));
        let ffn_cols = model.d_ffn() / tp;
        // Mixture-of-experts FFNs: route every token to `top_k` experts.
        // FLOPs scale with top_k; weight traffic scales with the experts
        // actually touched (count = touched experts, each a distinct
        // weight set — `b_bytes` then counts every touched expert once).
        // Under expert parallelism each device owns `num_experts / ep`
        // experts and processes its `1/ep` share of the routed
        // assignments, bracketed by a dispatch and a combine all-to-all.
        // A degenerate 1-expert top-1 "MoE" routes every token to the one
        // expert every device already holds: no router, no exchange — the
        // lowering is byte-identical to the dense FFN, the invariant the
        // differential-verification corpus pins.
        let ep = u64::from(expert_parallel);
        let mut moe_combine: Option<AllToAllOp> = None;
        let (ffn_count, ffn_m) = match model.moe() {
            None => (1, tokens),
            Some(moe) if moe.num_experts == 1 => (1, tokens),
            Some(moe) => {
                let assignments = tokens * u64::from(moe.top_k);
                ops.push(Operator::Matmul(MatmulOp {
                    name: "moe_router",
                    m: tokens,
                    n: u64::from(moe.num_experts),
                    k: d,
                    count: 1,
                    b_shared_by: 1,
                    kind: MatmulKind::Weight,
                }));
                ops.push(Operator::Vector(VectorOp {
                    name: "moe_router_softmax",
                    kind: VectorKind::Softmax,
                    elements: tokens * u64::from(moe.num_experts),
                }));
                let local_pool = MoeConfig {
                    num_experts: moe.num_experts / expert_parallel,
                    top_k: moe.top_k,
                };
                let local_assignments = assignments.div_ceil(ep);
                let touched = (local_pool.expected_experts_touched(local_assignments).round()
                    as u64)
                    .clamp(1, u64::from(local_pool.num_experts).min(local_assignments));
                if expert_parallel > 1 {
                    let exchange_bytes = local_assignments * d * dtype_bytes;
                    ops.push(Operator::AllToAll(AllToAllOp {
                        name: "moe_dispatch",
                        bytes: exchange_bytes,
                        group: expert_parallel,
                    }));
                    moe_combine = Some(AllToAllOp {
                        name: "moe_combine",
                        bytes: exchange_bytes,
                        group: expert_parallel,
                    });
                }
                (touched, local_assignments.div_ceil(touched))
            }
        };
        match model.activation() {
            Activation::Gelu => {
                ops.push(Operator::Matmul(MatmulOp {
                    name: "ffn_up",
                    m: ffn_m,
                    n: ffn_cols,
                    k: d,
                    count: ffn_count,
                    b_shared_by: 1,
                    kind: MatmulKind::Weight,
                }));
                ops.push(Operator::Vector(VectorOp {
                    name: "gelu",
                    kind: VectorKind::Gelu,
                    elements: ffn_count * ffn_m * ffn_cols,
                }));
            }
            Activation::SwiGlu => {
                ops.push(Operator::Matmul(MatmulOp {
                    name: "ffn_gate",
                    m: ffn_m,
                    n: ffn_cols,
                    k: d,
                    count: ffn_count,
                    b_shared_by: 1,
                    kind: MatmulKind::Weight,
                }));
                ops.push(Operator::Matmul(MatmulOp {
                    name: "ffn_up",
                    m: ffn_m,
                    n: ffn_cols,
                    k: d,
                    count: ffn_count,
                    b_shared_by: 1,
                    kind: MatmulKind::Weight,
                }));
                ops.push(Operator::Vector(VectorOp {
                    name: "silu_mul",
                    kind: VectorKind::SiluMul,
                    elements: ffn_count * ffn_m * ffn_cols,
                }));
            }
        }
        ops.push(Operator::Matmul(MatmulOp {
            name: "ffn_down",
            m: ffn_m,
            n: d,
            k: ffn_cols,
            count: ffn_count,
            b_shared_by: 1,
            kind: MatmulKind::Weight,
        }));
        if let Some(combine) = moe_combine {
            ops.push(Operator::AllToAll(combine));
        }
        ops.push(Operator::AllReduce(AllReduceOp {
            name: "allreduce_ffn",
            bytes: tokens * d * dtype_bytes,
        }));
        ops.push(Operator::Vector(VectorOp {
            name: "residual_ffn",
            kind: VectorKind::ResidualAdd,
            elements: tokens * d,
        }));

        LayerGraph { ops, phase, tensor_parallel, expert_parallel }
    }

    /// The operator sequence in execution order.
    #[must_use]
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// The phase this graph was lowered for.
    #[must_use]
    pub fn phase(&self) -> InferencePhase {
        self.phase
    }

    /// Tensor-parallel degree.
    #[must_use]
    pub fn tensor_parallel(&self) -> u32 {
        self.tensor_parallel
    }

    /// Expert-parallel degree (1 unless built through
    /// [`LayerGraph::try_build_parallel`]).
    #[must_use]
    pub fn expert_parallel(&self) -> u32 {
        self.expert_parallel
    }

    /// Number of all-to-all collectives (2 for an expert-parallel MoE
    /// layer, 0 otherwise).
    #[must_use]
    pub fn alltoall_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, Operator::AllToAll(_))).count()
    }

    /// Total per-device FLOPs in the layer.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.ops.iter().map(Operator::flops).sum()
    }

    /// Per-device FLOPs performed on the systolic arrays.
    #[must_use]
    pub fn matmul_flops(&self) -> f64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, Operator::Matmul(_)))
            .map(Operator::flops)
            .sum()
    }

    /// Number of all-reduce collectives.
    #[must_use]
    pub fn allreduce_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, Operator::AllReduce(_))).count()
    }

    /// Per-device weight bytes streamed from HBM (the decode-phase floor).
    #[must_use]
    pub fn weight_bytes(&self, dtype_bytes: u64) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Operator::Matmul(m) if m.kind == MatmulKind::Weight => Some(m.b_bytes(dtype_bytes)),
                _ => None,
            })
            .sum()
    }
}

/// Convenience wrapper: lower one layer with FP16 operands.
///
/// See [`LayerGraph::build`].
#[must_use]
pub fn layer_ops(
    model: &ModelConfig,
    workload: &WorkloadConfig,
    phase: InferencePhase,
    tensor_parallel: u32,
) -> Vec<Operator> {
    LayerGraph::build(model, workload, phase, tensor_parallel).ops().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt3_prefill(tp: u32) -> LayerGraph {
        LayerGraph::build(
            &ModelConfig::gpt3_175b(),
            &WorkloadConfig::paper_default(),
            InferencePhase::Prefill,
            tp,
        )
    }

    #[test]
    fn gpt3_prefill_flops_match_analytic_estimate() {
        // Full-layer (tp=1) matmul FLOPs ≈ 2·T·(12·d²) + attention
        // 4·B·S²·d, T = B·S tokens.
        let g = gpt3_prefill(1);
        let b = 32.0_f64;
        let s = 2048.0;
        let d = 12288.0;
        let t = b * s;
        let proj = 2.0 * t * (4.0 * d * d + 2.0 * 4.0 * d * d); // qkv+out+ffn(8d²)
        let attn = 4.0 * b * s * s * d;
        let expected = proj + attn;
        let got = g.matmul_flops();
        assert!(
            (got - expected).abs() / expected < 0.01,
            "got {got:.3e}, expected {expected:.3e}"
        );
    }

    #[test]
    fn tensor_parallel_divides_matmul_flops() {
        let f1 = gpt3_prefill(1).matmul_flops();
        let f4 = gpt3_prefill(4).matmul_flops();
        assert!((f1 / f4 - 4.0).abs() < 0.05, "ratio = {}", f1 / f4);
    }

    #[test]
    fn decode_tokens_are_batch_sized() {
        let g = LayerGraph::build(
            &ModelConfig::gpt3_175b(),
            &WorkloadConfig::paper_default(),
            InferencePhase::Decode { context_len: 2048 },
            4,
        );
        let qkv = g
            .ops()
            .iter()
            .find_map(|op| match op {
                Operator::Matmul(m) if m.name == "qkv_proj" => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(qkv.m, 32);
    }

    #[test]
    fn decode_weight_bytes_match_per_device_share() {
        // GPT-3 layer holds 12·d² weights; at tp=4 and fp16 each device
        // streams ~2·12·d²/4 bytes per decode step.
        let g = LayerGraph::build(
            &ModelConfig::gpt3_175b(),
            &WorkloadConfig::paper_default(),
            InferencePhase::Decode { context_len: 2048 },
            4,
        );
        let d = 12288.0_f64;
        let expected = 2.0 * 12.0 * d * d / 4.0;
        let got = g.weight_bytes(2) as f64;
        assert!((got - expected).abs() / expected < 0.01, "got {got:.3e}");
    }

    #[test]
    fn swiglu_layer_has_three_ffn_matmuls() {
        let g = LayerGraph::build(
            &ModelConfig::llama3_8b(),
            &WorkloadConfig::paper_default(),
            InferencePhase::Prefill,
            4,
        );
        let ffn_mms = g
            .ops()
            .iter()
            .filter(|op| matches!(op, Operator::Matmul(m) if m.name.starts_with("ffn")))
            .count();
        assert_eq!(ffn_mms, 3);
    }

    #[test]
    fn gqa_shares_kv_operands() {
        // Llama 3 at tp=4: 8 local heads, 2 local KV heads => group 4.
        let g = LayerGraph::build(
            &ModelConfig::llama3_8b(),
            &WorkloadConfig::paper_default(),
            InferencePhase::Decode { context_len: 2048 },
            4,
        );
        let score = g
            .ops()
            .iter()
            .find_map(|op| match op {
                Operator::Matmul(m) if m.name == "attn_score" => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(score.count, 32 * 8);
        assert_eq!(score.b_shared_by, 4);
        // MHA GPT-3 shares nothing.
        let g2 = LayerGraph::build(
            &ModelConfig::gpt3_175b(),
            &WorkloadConfig::paper_default(),
            InferencePhase::Decode { context_len: 2048 },
            4,
        );
        let score2 = g2
            .ops()
            .iter()
            .find_map(|op| match op {
                Operator::Matmul(m) if m.name == "attn_score" => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(score2.b_shared_by, 1);
    }

    #[test]
    fn allreduce_bytes_scale_with_tokens() {
        let prefill = gpt3_prefill(4);
        let decode = LayerGraph::build(
            &ModelConfig::gpt3_175b(),
            &WorkloadConfig::paper_default(),
            InferencePhase::Decode { context_len: 2048 },
            4,
        );
        let bytes = |g: &LayerGraph| -> u64 {
            g.ops()
                .iter()
                .filter_map(|op| match op {
                    Operator::AllReduce(a) => Some(a.bytes),
                    _ => None,
                })
                .sum()
        };
        assert_eq!(bytes(&prefill), 2 * 32 * 2048 * 12288 * 2);
        assert_eq!(bytes(&decode), 2 * 32 * 12288 * 2);
    }

    #[test]
    #[should_panic(expected = "tensor_parallel must divide num_heads")]
    fn rejects_non_dividing_tp() {
        let _ = gpt3_prefill(5);
    }

    #[test]
    fn try_build_types_the_panic_cases_and_matches_build() {
        let m = ModelConfig::gpt3_175b();
        let w = WorkloadConfig::paper_default();
        let ok = LayerGraph::try_build(&m, &w, InferencePhase::Prefill, 4).unwrap();
        assert_eq!(ok, LayerGraph::build(&m, &w, InferencePhase::Prefill, 4));
        for bad_tp in [0, 5] {
            let err =
                LayerGraph::try_build(&m, &w, InferencePhase::Prefill, bad_tp).unwrap_err();
            assert_eq!(err.kind(), "invalid_config");
        }
    }

    #[test]
    fn plan_keys_separate_every_load_bearing_input() {
        let m = ModelConfig::gpt3_175b();
        let w = WorkloadConfig::paper_default();
        let base = LayerGraph::plan_key(&m, &w, InferencePhase::Prefill, 4, 2);
        // Deterministic: same inputs, byte-identical key.
        assert_eq!(base, LayerGraph::plan_key(&m, &w, InferencePhase::Prefill, 4, 2));
        let variants = [
            LayerGraph::plan_key(&ModelConfig::llama3_8b(), &w, InferencePhase::Prefill, 4, 2),
            LayerGraph::plan_key(&ModelConfig::mixtral_8x7b(), &w, InferencePhase::Prefill, 4, 2),
            LayerGraph::plan_key(&m, &WorkloadConfig::new(8, 512, 128), InferencePhase::Prefill, 4, 2),
            LayerGraph::plan_key(&m, &w, InferencePhase::Decode { context_len: 2048 }, 4, 2),
            LayerGraph::plan_key(&m, &w, InferencePhase::Decode { context_len: 4096 }, 4, 2),
            LayerGraph::plan_key(&m, &w, InferencePhase::Prefill, 8, 2),
            LayerGraph::plan_key(&m, &w, InferencePhase::Prefill, 4, 1),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(&base, v, "variant {i} must not collide with the base key");
        }
    }

    #[test]
    fn moe_layer_has_router_and_expert_weight_traffic() {
        let mixtral = ModelConfig::mixtral_8x7b();
        let dense = ModelConfig::llama3_8b();
        let w = WorkloadConfig::paper_default();
        let decode = InferencePhase::Decode { context_len: 2048 };
        let g_moe = LayerGraph::build(&mixtral, &w, decode, 4);
        let g_dense = LayerGraph::build(&dense, &w, decode, 4);
        assert!(g_moe.ops().iter().any(|op| op.name() == "moe_router"));
        // Batch-32 top-2 decode touches essentially all 8 experts, so the
        // layer streams ~8x the dense FFN weights.
        let ratio = g_moe.weight_bytes(2) as f64 / g_dense.weight_bytes(2) as f64;
        assert!(ratio > 4.0 && ratio < 9.0, "weight ratio = {ratio}");
        // But compute only scales with top_k.
        let flop_ratio = g_moe.matmul_flops() / g_dense.matmul_flops();
        assert!(flop_ratio > 1.3 && flop_ratio < 2.5, "flop ratio = {flop_ratio}");
    }

    #[test]
    fn moe_prefill_touches_all_experts_once() {
        let mixtral = ModelConfig::mixtral_8x7b();
        let w = WorkloadConfig::paper_default();
        let g = LayerGraph::build(&mixtral, &w, InferencePhase::Prefill, 4);
        let ffn_up = g
            .ops()
            .iter()
            .find_map(|op| match op {
                Operator::Matmul(m) if m.name == "ffn_up" => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(ffn_up.count, 8, "65k prefill tokens hit every expert");
        // Total routed rows ≈ tokens × top_k.
        let routed = ffn_up.count * ffn_up.m;
        let expected = 32 * 2048 * 2;
        assert!((routed as f64 / expected as f64 - 1.0).abs() < 0.01);
    }

    #[test]
    fn degenerate_moe_lowers_bit_identically_to_dense() {
        // 1 expert, top-1: every token visits the single expert every
        // device holds — no router, no exchange, the dense FFN.
        let dense = ModelConfig::llama3_8b();
        let degen = ModelConfig::llama3_8b().with_moe(1, 1);
        let w = WorkloadConfig::paper_default();
        for phase in [InferencePhase::Prefill, InferencePhase::Decode { context_len: 2048 }] {
            let g_dense = LayerGraph::build(&dense, &w, phase, 4);
            let g_degen = LayerGraph::build(&degen, &w, phase, 4);
            assert_eq!(g_dense.ops(), g_degen.ops());
        }
    }

    #[test]
    fn expert_parallel_brackets_the_ffn_with_alltoalls() {
        let mixtral = ModelConfig::mixtral_8x7b();
        let w = WorkloadConfig::paper_default();
        let g = LayerGraph::try_build_parallel(&mixtral, &w, InferencePhase::Prefill, 4, 4, 2)
            .unwrap();
        assert_eq!(g.expert_parallel(), 4);
        assert_eq!(g.alltoall_count(), 2);
        let names: Vec<&str> = g.ops().iter().map(acs_llm_op_name).collect();
        let dispatch = names.iter().position(|n| *n == "moe_dispatch").unwrap();
        let combine = names.iter().position(|n| *n == "moe_combine").unwrap();
        let down = names.iter().position(|n| *n == "ffn_down").unwrap();
        let allreduce = names.iter().position(|n| *n == "allreduce_ffn").unwrap();
        assert!(dispatch < down && down < combine && combine < allreduce);
        // Each device's FFN work shrinks with the expert-parallel degree.
        let ep1 = LayerGraph::try_build_parallel(&mixtral, &w, InferencePhase::Prefill, 4, 1, 2)
            .unwrap();
        assert_eq!(ep1.ops(), LayerGraph::build(&mixtral, &w, InferencePhase::Prefill, 4).ops());
        let ffn_flops = |g: &LayerGraph| -> f64 {
            g.ops()
                .iter()
                .filter(|op| op.name().starts_with("ffn"))
                .map(Operator::flops)
                .sum()
        };
        let ratio = ffn_flops(&ep1) / ffn_flops(&g);
        assert!(ratio > 3.0 && ratio < 5.0, "4-way EP should quarter FFN work, ratio {ratio}");
    }

    fn acs_llm_op_name(op: &Operator) -> &'static str {
        op.name()
    }

    #[test]
    fn expert_parallel_validation_is_typed() {
        let w = WorkloadConfig::paper_default();
        let dense = ModelConfig::llama3_8b();
        let mixtral = ModelConfig::mixtral_8x7b();
        // Zero EP degree.
        let err = LayerGraph::try_build_parallel(&mixtral, &w, InferencePhase::Prefill, 4, 0, 2)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
        // EP on a dense model.
        let err = LayerGraph::try_build_parallel(&dense, &w, InferencePhase::Prefill, 4, 2, 2)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
        // EP degree not dividing the expert count.
        let err = LayerGraph::try_build_parallel(&mixtral, &w, InferencePhase::Prefill, 4, 3, 2)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
    }

    #[test]
    fn parallel_plan_keys_extend_without_disturbing_dense_keys() {
        let m = ModelConfig::mixtral_8x7b();
        let w = WorkloadConfig::paper_default();
        // ep=1 emits exactly the historical key.
        assert_eq!(
            LayerGraph::plan_key_parallel(&m, &w, InferencePhase::Prefill, 4, 1, 2),
            LayerGraph::plan_key(&m, &w, InferencePhase::Prefill, 4, 2),
        );
        let k1 = LayerGraph::plan_key_parallel(&m, &w, InferencePhase::Prefill, 4, 1, 2);
        let k4 = LayerGraph::plan_key_parallel(&m, &w, InferencePhase::Prefill, 4, 4, 2);
        assert_ne!(k1, k4);
        assert!(k4.ends_with("|ep=4"), "{k4}");
        assert!(!k1.contains("|ep="), "{k1}");
    }

    #[test]
    fn layer_ops_convenience_matches_graph() {
        let m = ModelConfig::llama3_8b();
        let w = WorkloadConfig::paper_default();
        let via_fn = layer_ops(&m, &w, InferencePhase::Prefill, 4);
        let via_graph = LayerGraph::build(&m, &w, InferencePhase::Prefill, 4);
        assert_eq!(via_fn, via_graph.ops());
    }
}
