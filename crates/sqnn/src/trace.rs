use std::collections::HashMap;

use gpu_sim::gemm::GemmShape;
use gpu_sim::{
    conv, elementwise, memops, reduce, AutotuneTable, GpuConfig, KernelDesc, KernelTrace,
};

/// The arguments of one `emit_*` call: equal arguments always build the
/// same kernel, so a trace builds (and autotunes) it once. `f64`
/// arguments are keyed by their bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Emit {
    Gemm(String, u64, u64, u64),
    Ew(String, u64, u64, u32),
    Dropout(u64),
    Reduce(String, u64, u64),
    Softmax(u64, u64),
    BatchNorm(u64, u64, bool),
    Gather(u64, u64, u64),
    ScatterAdd(u64, u64, u64),
    Copy(u64),
    Concat(u64),
    Transpose(u64, u64),
    Conv(conv::ConvShape, conv::ConvPass),
    Optimizer(u64),
}

/// The emission context layers write kernels into: the target hardware
/// configuration (needed for autotuned kernel selection), the autotune
/// table, and the growing trace.
///
/// Layers call the `emit_*` helpers rather than constructing
/// [`KernelDesc`]s directly, which keeps kernel naming and the traffic
/// models consistent across the whole network zoo. Each helper call is
/// interned by its arguments: the first call builds the kernel (and
/// consults the autotuner), and every later call with the same arguments
/// only launches it again. Per-step loops go through
/// [`TraceCtx::repeat`], which emits the step once and replays its
/// launches.
#[derive(Debug)]
pub struct TraceCtx<'a> {
    cfg: &'a GpuConfig,
    tuner: &'a mut AutotuneTable,
    trace: KernelTrace,
    interned: HashMap<Emit, u32>,
}

impl<'a> TraceCtx<'a> {
    /// Create an empty context targeting `cfg`.
    pub fn new(cfg: &'a GpuConfig, tuner: &'a mut AutotuneTable) -> Self {
        TraceCtx {
            cfg,
            tuner,
            trace: KernelTrace::new(),
            interned: HashMap::new(),
        }
    }

    /// The hardware configuration being targeted.
    pub fn config(&self) -> &GpuConfig {
        self.cfg
    }

    /// Number of kernel launches emitted so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether no kernels have been emitted.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Consume the context, returning the emitted trace.
    pub fn into_trace(self) -> KernelTrace {
        self.trace
    }

    /// Emit `body`'s launches `n` times over: `body` runs once and its
    /// launches are replayed `n - 1` more times, exactly as if it had
    /// run `n` times. With `n == 0`, `body` never runs, so it tunes no
    /// GEMM the trace never launches.
    ///
    /// `body` must emit the same launches every time it would run — one
    /// time step of an unrolled loop whose kernels do not depend on the
    /// step index.
    pub fn repeat(&mut self, n: u64, body: impl FnOnce(&mut Self)) {
        if n == 0 {
            return;
        }
        let start = self.trace.len();
        body(self);
        let times = usize::try_from(n - 1).expect("repeat count fits in memory");
        self.trace.repeat_tail(start, times);
    }

    /// Emit a raw kernel descriptor. Raw kernels are not interned: each
    /// call adds a distinct kernel.
    pub fn emit(&mut self, kernel: KernelDesc) {
        self.trace.push(kernel);
    }

    /// Launch the kernel `key` names, building it with `build` on first
    /// sight.
    fn launch(&mut self, key: Emit, build: impl FnOnce(&mut Self) -> KernelDesc) {
        match self.interned.get(&key) {
            Some(&id) => self.trace.launch(id),
            None => {
                let kernel = build(self);
                let id = self.trace.push(kernel);
                self.interned.insert(key, id);
            }
        }
    }

    /// Emit an autotuned GEMM `C[m×n] += A[m×k]·B[k×n]` with layout
    /// `flavor` (`"nn"` forward, `"nt"` backward-data, `"tn"`
    /// backward-weights, `"bnn"`/`"bnt"` strided-batched).
    pub fn emit_gemm(&mut self, flavor: &str, m: u64, k: u64, n: u64) {
        self.launch(Emit::Gemm(flavor.to_owned(), m, k, n), |ctx| {
            ctx.tuner
                .gemm_flavored(ctx.cfg, flavor, GemmShape::new(m, k, n))
        });
    }

    /// Emit an element-wise map kernel.
    pub fn emit_ew(&mut self, op: &str, elems: u64, flops_per_elem: f64, inputs: u32) {
        let key = Emit::Ew(op.to_owned(), elems, flops_per_elem.to_bits(), inputs);
        self.launch(key, |_| elementwise::map(op, elems, flops_per_elem, inputs));
    }

    /// Emit a dropout kernel.
    pub fn emit_dropout(&mut self, elems: u64) {
        self.launch(Emit::Dropout(elems), |_| elementwise::dropout(elems));
    }

    /// Emit a row-wise reduction.
    pub fn emit_reduce(&mut self, op: &str, rows: u64, width: u64) {
        self.launch(Emit::Reduce(op.to_owned(), rows, width), |_| {
            reduce::reduce(op, rows, width)
        });
    }

    /// Emit a row-wise softmax.
    pub fn emit_softmax(&mut self, rows: u64, width: u64) {
        self.launch(Emit::Softmax(rows, width), |_| reduce::softmax(rows, width));
    }

    /// Emit a batch-norm kernel.
    pub fn emit_batchnorm(&mut self, elems: u64, channels: u64, backward: bool) {
        self.launch(Emit::BatchNorm(elems, channels, backward), |_| {
            reduce::batchnorm(elems, channels, backward)
        });
    }

    /// Emit an embedding-table gather.
    pub fn emit_gather(&mut self, rows: u64, row_bytes: u64, table_bytes: u64) {
        self.launch(Emit::Gather(rows, row_bytes, table_bytes), |_| {
            memops::gather(rows, row_bytes, table_bytes)
        });
    }

    /// Emit an embedding-gradient scatter-add.
    pub fn emit_scatter_add(&mut self, rows: u64, row_bytes: u64, table_bytes: u64) {
        self.launch(Emit::ScatterAdd(rows, row_bytes, table_bytes), |_| {
            memops::scatter_add(rows, row_bytes, table_bytes)
        });
    }

    /// Emit a device copy.
    pub fn emit_copy(&mut self, bytes: u64) {
        self.launch(Emit::Copy(bytes), |_| memops::copy(bytes));
    }

    /// Emit a concatenation.
    pub fn emit_concat(&mut self, bytes: u64) {
        self.launch(Emit::Concat(bytes), |_| memops::concat(bytes));
    }

    /// Emit a tiled transpose.
    pub fn emit_transpose(&mut self, rows: u64, cols: u64) {
        self.launch(Emit::Transpose(rows, cols), |_| {
            memops::transpose(rows, cols)
        });
    }

    /// Emit one convolution pass.
    pub fn emit_conv(&mut self, shape: &conv::ConvShape, pass: conv::ConvPass) {
        self.launch(Emit::Conv(*shape, pass), |ctx| {
            conv::kernel(ctx.cfg, shape, pass)
        });
    }

    /// Emit an optimizer parameter-update sweep.
    pub fn emit_optimizer(&mut self, params: u64) {
        self.launch(Emit::Optimizer(params), |_| {
            elementwise::sgd_momentum_update(params)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_append_kernels() {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(&cfg, &mut tuner);
        assert!(ctx.is_empty());
        ctx.emit_gemm("nn", 128, 128, 128);
        ctx.emit_ew("tanh", 1024, 4.0, 1);
        ctx.emit_softmax(64, 100);
        ctx.emit_gather(64, 4096, 1 << 20);
        assert_eq!(ctx.len(), 4);
        let trace = ctx.into_trace();
        assert!(trace[0].name().starts_with("gemm_nn_"));
        assert!(trace[1].name().starts_with("ew_tanh"));
    }

    #[test]
    fn equal_emit_arguments_share_one_kernel() {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(&cfg, &mut tuner);
        ctx.emit_ew("tanh", 1024, 4.0, 1);
        ctx.emit_ew("tanh", 1024, 4.0, 1);
        ctx.emit_ew("tanh", 1024, 4.5, 1);
        ctx.emit_gemm("nn", 64, 64, 64);
        ctx.emit_gemm("nt", 64, 64, 64);
        ctx.emit_gemm("nn", 64, 64, 64);
        let trace = ctx.into_trace();
        assert_eq!(trace.len(), 6);
        assert_eq!(trace.distinct(), 4);
        assert_eq!(trace.launches(), [0, 0, 1, 2, 3, 2]);
    }

    /// A body with a nested repeat, emitted both ways.
    fn step(ctx: &mut TraceCtx<'_>, nested: bool) {
        ctx.emit_gemm("nn", 256, 256, 32);
        if nested {
            ctx.repeat(3, |ctx| ctx.emit_ew("gate", 8192, 6.0, 2));
        } else {
            for _ in 0..3 {
                ctx.emit_ew("gate", 8192, 6.0, 2);
            }
        }
        ctx.emit_softmax(32, 100);
    }

    #[test]
    fn repeat_launches_what_an_explicit_loop_launches() {
        let cfg = GpuConfig::vega_fe();
        for n in [0, 1, 2, 17] {
            let mut t_loop = AutotuneTable::new();
            let mut looped = TraceCtx::new(&cfg, &mut t_loop);
            looped.emit_copy(4096);
            for _ in 0..n {
                step(&mut looped, false);
            }
            looped.emit_copy(4096);
            let looped = looped.into_trace();

            let mut t_rep = AutotuneTable::new();
            let mut repeated = TraceCtx::new(&cfg, &mut t_rep);
            repeated.emit_copy(4096);
            repeated.repeat(n, |ctx| step(ctx, true));
            repeated.emit_copy(4096);
            let repeated = repeated.into_trace();

            assert_eq!(repeated.len(), looped.len());
            assert!(repeated.iter().eq(looped.iter()), "n = {n}");
            assert_eq!(t_rep.shapes_tuned(), t_loop.shapes_tuned());
            assert_eq!(
                t_rep.tuning_cost_s().to_bits(),
                t_loop.tuning_cost_s().to_bits()
            );
        }
    }

    #[test]
    fn repeat_zero_never_runs_its_body() {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(&cfg, &mut tuner);
        ctx.emit_gemm("nn", 128, 128, 128);
        ctx.repeat(0, |ctx| ctx.emit_gemm("nn", 512, 512, 512));
        assert_eq!(ctx.len(), 1);
        drop(ctx);
        assert_eq!(tuner.shapes_tuned(), 1);
    }

    #[test]
    fn gemm_emission_uses_shared_tuner() {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        {
            let mut ctx = TraceCtx::new(&cfg, &mut tuner);
            ctx.emit_gemm("nn", 256, 256, 256);
            ctx.emit_gemm("nn", 256, 256, 256);
        }
        assert_eq!(tuner.shapes_tuned(), 1);
    }
}
