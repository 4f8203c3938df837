//! Table I — dimensions of the same GEMM operation across two iterations.
//!
//! The classifier projection runs `M = vocab, K = hidden, N = batch·T`
//! forward (GEMM-a) and `M = hidden, K = vocab, N = batch·T` backward
//! (GEMM-b). The table regenerates the paper's numbers — GNMT
//! `36549×1024×{6016, 576}` and DS2 `29×1600×{25728, 3776}` — and
//! *verifies* each shape exists in the emitted iteration trace.

use gpu_sim::{AutotuneTable, Device};
use sqnn::IterationShape;
use sqnn_profiler::report::Table;

use crate::{Net, Workloads};

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Which network.
    pub net: Net,
    /// `"GEMM-a"` (forward) or `"GEMM-b"` (backward-data).
    pub gemm: &'static str,
    /// M dimension.
    pub m: u64,
    /// K dimension.
    pub k: u64,
    /// N at the first sequence length.
    pub n_sl1: u64,
    /// N at the second sequence length.
    pub n_sl2: u64,
}

/// Result of the Table I experiment.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The four rows (two GEMMs × two networks).
    pub rows: Vec<Table1Row>,
    /// Rendered table.
    pub table: Table,
}

/// The paper's two iterations per network: GNMT SLs 94 and 9; DS2 SLs
/// 402 and 59 (chosen so `64·SL` reproduces the published N values).
pub const GNMT_SLS: (u32, u32) = (94, 9);
/// DS2's two sequence lengths.
pub const DS2_SLS: (u32, u32) = (402, 59);

fn classifier_dims(net: Net) -> (u64, u64) {
    match net {
        Net::Gnmt => (36_549, 1_024),
        Net::Ds2 => (29, 1_600),
    }
}

/// Assert that a GEMM with exactly `2·m·k·n` flops exists in the
/// iteration trace of `net` at `sl`.
fn verify_in_trace(w: &Workloads, net: Net, sl: u32, m: u64, k: u64, n: u64) -> bool {
    let device = Device::new(w.config(0).clone());
    let mut tuner = AutotuneTable::new();
    let trace =
        w.network(net)
            .iteration_trace(&IterationShape::new(64, sl), device.config(), &mut tuner);
    let expected = 2.0 * m as f64 * k as f64 * n as f64;
    trace
        .kernels()
        .iter()
        .any(|kd| (kd.flops() - expected).abs() < 0.5)
}

/// Run the experiment.
pub fn run(w: &mut Workloads) -> Table1 {
    let mut table = Table::new(
        "Table I — GEMM dimensions for the classifier across two iterations",
        ["network", "GEMM", "M", "K", "N (sl-1)", "N (sl-2)"],
    );
    let mut rows = Vec::new();
    for (net, (sl1, sl2)) in [(Net::Gnmt, GNMT_SLS), (Net::Ds2, DS2_SLS)] {
        let (vocab, hidden) = classifier_dims(net);
        let (n1, n2) = (64 * u64::from(sl1), 64 * u64::from(sl2));
        // GEMM-a: forward logits. GEMM-b: backward-data.
        for (label, m, k) in [("GEMM-a", vocab, hidden), ("GEMM-b", hidden, vocab)] {
            assert!(
                verify_in_trace(w, net, sl1, m, k, n1),
                "{} {label} {m}x{k}x{n1} missing from trace at SL {sl1}",
                net.label()
            );
            assert!(
                verify_in_trace(w, net, sl2, m, k, n2),
                "{} {label} {m}x{k}x{n2} missing from trace at SL {sl2}",
                net.label()
            );
            table.push_row([
                net.label().to_owned(),
                label.to_owned(),
                m.to_string(),
                k.to_string(),
                n1.to_string(),
                n2.to_string(),
            ]);
            rows.push(Table1Row {
                net,
                gemm: label,
                m,
                k,
                n_sl1: n1,
                n_sl2: n2,
            });
        }
    }
    Table1 { rows, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_published_dimensions() {
        let mut w = Workloads::quick();
        let r = run(&mut w);
        assert_eq!(r.rows.len(), 4);
        let gnmt_a = &r.rows[0];
        assert_eq!((gnmt_a.m, gnmt_a.k), (36_549, 1_024));
        assert_eq!((gnmt_a.n_sl1, gnmt_a.n_sl2), (6_016, 576));
        let gnmt_b = &r.rows[1];
        assert_eq!((gnmt_b.m, gnmt_b.k), (1_024, 36_549));
        let ds2_a = &r.rows[2];
        assert_eq!((ds2_a.m, ds2_a.k), (29, 1_600));
        assert_eq!((ds2_a.n_sl1, ds2_a.n_sl2), (25_728, 3_776));
        let ds2_b = &r.rows[3];
        assert_eq!((ds2_b.m, ds2_b.k), (1_600, 29));
    }
}
