use crate::{IterationShape, Layer, Stream, TraceCtx};

/// The output classifier: a projection onto the vocabulary followed by
/// softmax and cross-entropy loss.
///
/// This layer produces the GEMMs of the paper's Table I — forward
/// `M = vocab, K = hidden, N = batch·T` and backward-data
/// `M = hidden, K = vocab, N = batch·T` — and, through the vocabulary
/// width, the bulk of the sequence-length-*linear* non-recurrent cost.
#[derive(Debug, Clone)]
pub struct SoftmaxCrossEntropy {
    name: String,
    hidden: u64,
    vocab: u64,
    rows: Rows,
}

#[derive(Debug, Clone, Copy)]
enum Rows {
    PerToken(Stream),
    PerSample,
}

impl SoftmaxCrossEntropy {
    /// A per-token classifier over `stream` (SQNN case).
    pub fn new(name: impl Into<String>, hidden: u64, vocab: u64, stream: Stream) -> Self {
        SoftmaxCrossEntropy {
            name: name.into(),
            hidden: hidden.max(1),
            vocab: vocab.max(2),
            rows: Rows::PerToken(stream),
        }
    }

    /// A per-sample classifier (CNN case: one label per image).
    pub fn per_sample(name: impl Into<String>, hidden: u64, classes: u64) -> Self {
        SoftmaxCrossEntropy {
            name: name.into(),
            hidden: hidden.max(1),
            vocab: classes.max(2),
            rows: Rows::PerSample,
        }
    }

    fn rows(&self, shape: &IterationShape) -> u64 {
        match self.rows {
            Rows::PerToken(stream) => shape.tokens(stream),
            Rows::PerSample => u64::from(shape.batch),
        }
    }

    /// Vocabulary (class) count.
    pub fn vocab(&self) -> u64 {
        self.vocab
    }
}

impl Layer for SoftmaxCrossEntropy {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> u64 {
        self.hidden * self.vocab + self.vocab
    }

    fn emit_forward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let rows = self.rows(shape);
        // Logits: the Table I forward GEMM.
        ctx.emit_gemm("nn", self.vocab, self.hidden, rows);
        ctx.emit_ew("bias_add", rows * self.vocab, 1.0, 2);
        ctx.emit_softmax(rows, self.vocab);
        // Per-token negative log-likelihood, reduced to a scalar.
        ctx.emit_reduce("ce_loss", 1, rows);
    }

    fn emit_backward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let rows = self.rows(shape);
        // dLogits = softmax − one_hot(target).
        ctx.emit_ew("softmax_ce_grad", rows * self.vocab, 2.0, 2);
        // The Table I backward-data GEMM: M = hidden, K = vocab.
        ctx.emit_gemm("nt", self.hidden, self.vocab, rows);
        // Weight and bias gradients.
        ctx.emit_gemm("tn", self.vocab, rows, self.hidden);
        ctx.emit_reduce("bias_grad", self.vocab, rows);
    }
}

/// Connectionist Temporal Classification loss over per-step class
/// posteriors — DeepSpeech2's training objective.
///
/// The forward/backward (α/β) lattice sweeps scale linearly with the
/// number of time steps.
#[derive(Debug, Clone)]
pub struct CtcLoss {
    name: String,
    classes: u64,
    stream: Stream,
}

impl CtcLoss {
    /// CTC over `classes` output symbols (including blank) on `stream`.
    pub fn new(name: impl Into<String>, classes: u64, stream: Stream) -> Self {
        CtcLoss {
            name: name.into(),
            classes: classes.max(2),
            stream,
        }
    }
}

impl Layer for CtcLoss {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> u64 {
        0
    }

    fn emit_forward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let t = u64::from(shape.len_of(self.stream));
        let b = u64::from(shape.batch);
        ctx.emit_softmax(b * t, self.classes);
        // α and β lattice sweeps: O(B · T · labels), labels ≈ T/2.
        ctx.emit_reduce("ctc_alpha", b, t * self.classes);
        ctx.emit_reduce("ctc_beta", b, t * self.classes);
    }

    fn emit_backward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let t = u64::from(shape.len_of(self.stream));
        let b = u64::from(shape.batch);
        ctx.emit_ew("ctc_grad", b * t * self.classes, 3.0, 3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{AutotuneTable, GpuConfig, KernelTrace};

    fn trace(layer: &dyn Layer, shape: IterationShape) -> KernelTrace {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(&cfg, &mut tuner);
        layer.emit_forward(&shape, &mut ctx);
        layer.emit_backward(&shape, &mut ctx);
        ctx.into_trace()
    }

    #[test]
    fn ds2_classifier_pairs_with_table1() {
        // DS2's FC classifier is a Dense(1600 → 29); this layer adds its
        // softmax/CE. Verify the CE classifier reproduces GNMT Table I.
        let cls = SoftmaxCrossEntropy::new("cls", 1024, 36_549, Stream::Target);
        let t = trace(&cls, IterationShape::new(64, 94));
        let fwd_gemm = t.iter().find(|k| k.name().contains("_nn_")).unwrap();
        assert_eq!(fwd_gemm.flops(), 2.0 * 36_549.0 * 1024.0 * 6016.0);
        let vocab_softmax = t.iter().find(|k| k.name().starts_with("softmax")).unwrap();
        assert_eq!(vocab_softmax.name(), "softmax_2pass"); // 36549-wide rows
    }

    #[test]
    fn per_sample_classifier_ignores_sl() {
        let cls = SoftmaxCrossEntropy::per_sample("head", 512, 1000);
        let a = trace(&cls, IterationShape::new(32, 7));
        let b = trace(&cls, IterationShape::new(32, 177));
        assert_eq!(a, b);
    }

    #[test]
    fn ctc_scales_linearly_with_t() {
        let ctc = CtcLoss::new("ctc", 29, Stream::Source);
        let flops = |sl: u32| -> f64 {
            trace(&ctc, IterationShape::new(64, sl))
                .iter()
                .map(|k| k.flops())
                .sum()
        };
        let ratio = flops(200) / flops(100);
        assert!((1.8..2.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn ctc_has_no_parameters() {
        assert_eq!(CtcLoss::new("ctc", 29, Stream::Source).param_count(), 0);
    }

    #[test]
    fn classifier_params_count_weights_and_bias() {
        let cls = SoftmaxCrossEntropy::new("c", 1600, 29, Stream::Source);
        assert_eq!(cls.param_count(), 1600 * 29 + 29);
    }
}
