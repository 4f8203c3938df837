//! Attention layers: GNMT's encoder–decoder attention and the
//! Transformer's multi-head self-attention (the Section VII-B extension).
//!
//! Attention processes *whole sequences* — its score matrix is
//! `T_dec × T_enc` — so its cost grows quadratically with sequence length
//! while recurrent layers grow linearly. This changing mix is the paper's
//! key observation 1 (the proportion of operations varies with SL).

use crate::{IterationShape, Layer, Stream, TraceCtx};

/// GNMT-style encoder–decoder attention (Luong general form): for each
/// decoder step, score all encoder states, normalize, and blend a context
/// vector.
#[derive(Debug, Clone)]
pub struct Attention {
    name: String,
    hidden: u64,
}

impl Attention {
    /// Attention over `hidden`-wide encoder/decoder states.
    pub fn new(name: impl Into<String>, hidden: u64) -> Self {
        Attention {
            name: name.into(),
            hidden: hidden.max(1),
        }
    }
}

impl Layer for Attention {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> u64 {
        // W_a [H×H] plus the context-combination W_c [2H×H].
        3 * self.hidden * self.hidden
    }

    fn emit_forward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let t_enc = u64::from(shape.src_len);
        let t_dec = u64::from(shape.dst_len);
        let b = u64::from(shape.batch);
        let h = self.hidden;
        ctx.repeat(t_dec, |ctx| {
            // Query transform: W_a · h_dec.
            ctx.emit_gemm("nn", h, h, b);
            // Scores against all encoder states (batched): [T_enc × H]·[H × 1] per sample.
            ctx.emit_gemm("bnt", t_enc, h, b);
            // Normalize over encoder positions.
            ctx.emit_softmax(b, t_enc);
            // Context: α-weighted sum of encoder states (batched).
            ctx.emit_gemm("bnn", h, t_enc, b);
            // Combine [c; h] and squash.
            ctx.emit_gemm("nn", h, 2 * h, b);
            ctx.emit_ew("tanh", b * h, 4.0, 1);
        });
    }

    fn emit_backward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let t_enc = u64::from(shape.src_len);
        let t_dec = u64::from(shape.dst_len);
        let b = u64::from(shape.batch);
        let h = self.hidden;
        ctx.repeat(t_dec, |ctx| {
            ctx.emit_ew("tanh_bwd", b * h, 2.0, 2);
            // Combine gradients (data + weights).
            ctx.emit_gemm("nt", 2 * h, h, b);
            ctx.emit_gemm("tn", h, b, 2 * h);
            // Context backward through the α-blend.
            ctx.emit_gemm("bnt", t_enc, h, b);
            ctx.emit_gemm("bnn", h, t_enc, b);
            // Softmax backward over encoder positions.
            ctx.emit_ew("softmax_bwd", b * t_enc, 4.0, 2);
            // Score and query-transform gradients.
            ctx.emit_gemm("tn", h, b, h);
            ctx.emit_gemm("nt", h, h, b);
        });
    }
}

/// Multi-head self-attention (plus output projection), the core of the
/// Transformer layer used to demonstrate SeqPoint's applicability beyond
/// RNNs (paper Section VII-B).
#[derive(Debug, Clone)]
pub struct SelfAttention {
    name: String,
    hidden: u64,
    heads: u64,
    stream: Stream,
}

impl SelfAttention {
    /// Self-attention with `heads` heads over `hidden`-wide tokens of
    /// `stream`.
    pub fn new(name: impl Into<String>, hidden: u64, heads: u64, stream: Stream) -> Self {
        SelfAttention {
            name: name.into(),
            hidden: hidden.max(1),
            heads: heads.clamp(1, hidden.max(1)),
            stream,
        }
    }
}

impl Layer for SelfAttention {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> u64 {
        // Q, K, V, and output projections.
        4 * self.hidden * self.hidden + 4 * self.hidden
    }

    fn emit_forward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let t = u64::from(shape.len_of(self.stream));
        let b = u64::from(shape.batch);
        let h = self.hidden;
        let tokens = b * t;
        // Fused QKV projection.
        ctx.emit_gemm("nn", 3 * h, h, tokens);
        // Scores: per head, [T × d]·[d × T], batched over B·heads (the N
        // dimension carries the batch of T-wide query rows).
        ctx.emit_gemm("bnt", t, h / self.heads, b * self.heads * t);
        // Softmax over keys for every (sample, head, query) row.
        ctx.emit_softmax(b * self.heads * t, t);
        // Context: scores · V.
        ctx.emit_gemm("bnn", h / self.heads, t, b * self.heads * t);
        // Output projection.
        ctx.emit_gemm("nn", h, h, tokens);
    }

    fn emit_backward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let t = u64::from(shape.len_of(self.stream));
        let b = u64::from(shape.batch);
        let h = self.hidden;
        let tokens = b * t;
        ctx.emit_gemm("nt", h, h, tokens);
        ctx.emit_gemm("tn", h, tokens, h);
        ctx.emit_gemm("bnt", t, h / self.heads, b * self.heads * t);
        ctx.emit_ew("softmax_bwd", b * self.heads * t * t, 4.0, 2);
        ctx.emit_gemm("bnn", h / self.heads, t, b * self.heads * t);
        ctx.emit_gemm("nt", h, 3 * h, tokens);
        ctx.emit_gemm("tn", 3 * h, tokens, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{AutotuneTable, GpuConfig, KernelTrace};

    fn forward(layer: &dyn Layer, shape: IterationShape) -> KernelTrace {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(&cfg, &mut tuner);
        layer.emit_forward(&shape, &mut ctx);
        ctx.into_trace()
    }

    #[test]
    fn attention_cost_is_superlinear_in_sl() {
        let attn = Attention::new("attn", 1024);
        let flops = |sl: u32| -> f64 {
            forward(&attn, IterationShape::new(64, sl))
                .iter()
                .map(|k| k.flops())
                .sum()
        };
        // At small SL the per-step projections (linear term) dominate, but
        // the T_dec·T_enc score/context terms make growth superlinear: a
        // 4x SL increase must cost strictly more than 4x.
        let ratio = flops(400) / flops(100);
        assert!(ratio > 4.2, "ratio = {ratio}");
    }

    #[test]
    fn attention_unrolls_per_decoder_step() {
        let attn = Attention::new("attn", 256);
        let t = forward(&attn, IterationShape::with_lengths(8, 30, 5));
        assert_eq!(t.len(), 6 * 5); // 6 kernels per decoder step
    }

    #[test]
    fn attention_softmax_width_tracks_encoder_len() {
        let attn = Attention::new("attn", 256);
        let narrow = forward(&attn, IterationShape::with_lengths(8, 100, 1));
        let wide = forward(&attn, IterationShape::with_lengths(8, 2000, 1));
        let name_of = |t: &KernelTrace| {
            t.iter()
                .find(|k| k.name().starts_with("softmax"))
                .unwrap()
                .name()
                .to_owned()
        };
        assert_ne!(name_of(&narrow), name_of(&wide));
    }

    #[test]
    fn self_attention_is_superlinear() {
        let sa = SelfAttention::new("sa", 512, 8, Stream::Source);
        let flops = |sl: u32| -> f64 {
            forward(&sa, IterationShape::new(16, sl))
                .iter()
                .map(|k| k.flops())
                .sum()
        };
        // The score/context terms are quadratic in SL; with the linear
        // QKV/output projections mixed in, 4x SL must cost > 4.3x.
        let ratio = flops(512) / flops(128);
        assert!(ratio > 4.3, "ratio = {ratio}");
    }

    #[test]
    fn param_counts() {
        assert_eq!(Attention::new("a", 100).param_count(), 30_000);
        assert_eq!(
            SelfAttention::new("s", 100, 4, Stream::Source).param_count(),
            40_400
        );
    }
}
