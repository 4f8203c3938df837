use std::ops::Index;

use crate::KernelDesc;

/// A kernel trace: the sequence of kernel launches one iteration issues,
/// stored as its distinct kernels plus a launch sequence of indices into
/// them.
///
/// An SQNN iteration unrolls the same per-step kernels once per time
/// step, so a trace of tens of thousands of launches typically holds only
/// a few dozen distinct kernels. Keeping each distinct [`KernelDesc`]
/// once lets [`crate::Device::run_trace`] time it once, while the launch
/// sequence preserves the exact launch order every accumulation follows.
///
/// Hand-built traces convert from a `Vec<KernelDesc>`, one distinct
/// kernel per launch:
///
/// ```
/// use gpu_sim::{KernelDesc, KernelKind, KernelTrace};
///
/// let relu = KernelDesc::builder("ew_relu_v4", KernelKind::Elementwise).build();
/// let mut trace = KernelTrace::from(vec![relu]);
/// trace.launch(0);
/// trace.launch(0);
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.distinct(), 1);
/// assert!(trace.iter().all(|k| k.name() == "ew_relu_v4"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct KernelTrace {
    kernels: Vec<KernelDesc>,
    launches: Vec<u32>,
}

impl KernelTrace {
    /// An empty trace.
    pub fn new() -> Self {
        KernelTrace::default()
    }

    /// Number of kernel launches.
    pub fn len(&self) -> usize {
        self.launches.len()
    }

    /// Whether the trace launches nothing.
    pub fn is_empty(&self) -> bool {
        self.launches.is_empty()
    }

    /// Number of distinct kernels the launches index into.
    pub fn distinct(&self) -> usize {
        self.kernels.len()
    }

    /// The distinct kernels, in the order they were added.
    pub fn kernels(&self) -> &[KernelDesc] {
        &self.kernels
    }

    /// The launch sequence: one index into [`KernelTrace::kernels`] per
    /// launch, in launch order.
    pub fn launches(&self) -> &[u32] {
        &self.launches
    }

    /// The launched kernel of every launch, in launch order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &KernelDesc> + ExactSizeIterator + '_ {
        self.launches
            .iter()
            .map(move |&id| &self.kernels[id as usize])
    }

    /// Add `kernel` as a new distinct kernel and launch it once,
    /// returning its id for [`KernelTrace::launch`].
    pub fn push(&mut self, kernel: KernelDesc) -> u32 {
        let id = u32::try_from(self.kernels.len()).expect("more than u32::MAX distinct kernels");
        self.kernels.push(kernel);
        self.launches.push(id);
        id
    }

    /// Launch the already-added kernel `id` once more.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the id of an added kernel.
    pub fn launch(&mut self, id: u32) {
        assert!(
            (id as usize) < self.kernels.len(),
            "kernel id {id} out of range"
        );
        self.launches.push(id);
    }

    /// Append the launches from position `from` to the end another
    /// `times` times — the replay of a block of launches that repeats
    /// verbatim (one recurrent time step, say).
    ///
    /// # Panics
    ///
    /// Panics if `from` exceeds [`KernelTrace::len`].
    pub fn repeat_tail(&mut self, from: usize, times: usize) {
        let end = self.launches.len();
        assert!(from <= end, "block start {from} past the trace end {end}");
        self.launches.reserve((end - from) * times);
        for _ in 0..times {
            self.launches.extend_from_within(from..end);
        }
    }
}

/// Two traces are equal when they launch equal kernels in the same
/// order, however their distinct kernels are laid out.
impl PartialEq for KernelTrace {
    fn eq(&self, other: &KernelTrace) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl From<Vec<KernelDesc>> for KernelTrace {
    fn from(kernels: Vec<KernelDesc>) -> Self {
        let mut trace = KernelTrace::new();
        for kernel in kernels {
            trace.push(kernel);
        }
        trace
    }
}

impl Index<usize> for KernelTrace {
    type Output = KernelDesc;

    fn index(&self, index: usize) -> &KernelDesc {
        &self.kernels[self.launches[index] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelKind;

    fn kernel(name: &str) -> KernelDesc {
        KernelDesc::builder(name, KernelKind::Elementwise)
            .flops(1e6)
            .build()
    }

    #[test]
    fn from_vec_keeps_every_launch_distinct() {
        let trace = KernelTrace::from(vec![kernel("a"), kernel("b"), kernel("a")]);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.distinct(), 3);
        let names: Vec<&str> = trace.iter().map(KernelDesc::name).collect();
        assert_eq!(names, ["a", "b", "a"]);
        assert_eq!(trace[2].name(), "a");
    }

    #[test]
    fn repeat_tail_replays_the_block_in_order() {
        let mut looped = KernelTrace::new();
        looped.push(kernel("head"));
        for _ in 0..4 {
            looped.push(kernel("x"));
            looped.push(kernel("y"));
        }
        let mut repeated = KernelTrace::new();
        repeated.push(kernel("head"));
        repeated.push(kernel("x"));
        repeated.push(kernel("y"));
        repeated.repeat_tail(1, 3);
        assert_eq!(repeated, looped);
        assert_eq!(repeated.distinct(), 3);
        assert_eq!(repeated.launches(), [0, 1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn equality_is_over_the_launch_sequence() {
        let mut a = KernelTrace::new();
        let id = a.push(kernel("k"));
        a.launch(id);
        let b = KernelTrace::from(vec![kernel("k"), kernel("k")]);
        assert_eq!(a, b);
        assert_ne!(a, KernelTrace::from(vec![kernel("k")]));
    }
}
