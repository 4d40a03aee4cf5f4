//! The fit's input source: a resident COO tensor, or a disk-resident COO
//! scratch file for fits whose observed entries never fit in memory.
//!
//! [`FitInput::Scratch`] is the entry point of the disk-to-disk pipeline:
//! the execution plan is built by external sort
//! ([`ModeStreams::build_external`](ptucker_tensor::ModeStreams::build_external)),
//! the residual and `R(β)` passes stream bounded COO segments instead of
//! indexing a resident entry array, and the only whole-tensor state the fit
//! ever holds resident is one window ring of the active mode's stream.

use crate::error::PtuckerError;
use crate::Result;
use ptucker_sched::static_block;
use ptucker_tensor::{CooScratch, SparseTensor};

/// Entries per decoded segment when streaming a COO scratch file through a
/// reduction pass. Segmentation never affects results — each worker folds
/// its entry block sequentially regardless of how it is chunked — so this
/// only balances syscall count against buffer size (~40 KiB/worker at
/// order 3).
pub(crate) const SCRATCH_SEG_ENTRIES: usize = 8 << 10;

/// Where a fit reads its observed entries from.
///
/// Every row-update kernel hook receives the fit's input through this enum.
/// [`Resident`](FitInput::Resident) is the classical path: the COO tensor
/// is in memory and kernels may index it at random.
/// [`Scratch`](FitInput::Scratch) is the disk-to-disk path: the observed
/// entries live in an unlinked scratch file, the driver forces the spilled
/// placement (plan and any kernel aux state on disk), and every pass that
/// used to walk the entry array streams bounded segments instead.
#[derive(Debug, Clone, Copy)]
pub enum FitInput<'a> {
    /// The observed entries are resident in memory.
    Resident(&'a SparseTensor),
    /// The observed entries live in a disk-backed COO scratch file.
    Scratch(&'a CooScratch),
}

impl<'a> FitInput<'a> {
    /// The tensor's dimensionality `I₁ × … × I_N`.
    pub fn dims(&self) -> &'a [usize] {
        match self {
            FitInput::Resident(x) => x.dims(),
            FitInput::Scratch(src) => src.dims(),
        }
    }

    /// Number of modes `N`.
    pub fn order(&self) -> usize {
        self.dims().len()
    }

    /// Number of observed entries `|Ω|`.
    pub fn nnz(&self) -> usize {
        match self {
            FitInput::Resident(x) => x.nnz(),
            FitInput::Scratch(src) => src.nnz(),
        }
    }

    /// The resident tensor, if this input is one.
    pub fn resident(&self) -> Option<&'a SparseTensor> {
        match self {
            FitInput::Resident(x) => Some(x),
            FitInput::Scratch(_) => None,
        }
    }

    /// The resident tensor a code path requires by construction. Only the
    /// resident placements route into such paths (the driver forces the
    /// spilled placement for scratch inputs), so a scratch input reaching
    /// one is a driver bug, not a user error.
    pub(crate) fn expect_resident(&self, what: &str) -> &'a SparseTensor {
        match self {
            FitInput::Resident(x) => x,
            FitInput::Scratch(_) => unreachable!(
                "{what} requires a resident tensor; the placement gate never routes a disk-resident input here"
            ),
        }
    }
}

impl<'a> From<&'a SparseTensor> for FitInput<'a> {
    fn from(x: &'a SparseTensor) -> Self {
        FitInput::Resident(x)
    }
}

impl<'a> From<&'a CooScratch> for FitInput<'a> {
    fn from(src: &'a CooScratch) -> Self {
        FitInput::Scratch(src)
    }
}

/// Streams a reduction over a COO scratch file with the same block
/// structure as `parallel_reduce(n, threads, Schedule::Static, …)`: worker
/// `b` folds `static_block(n, t, b)` sequentially from `init()` through its
/// own bounded segment cursor, and the partials combine in block order.
///
/// Per-worker arithmetic and the block-ascending combine are therefore
/// both identical to the resident static schedule's: the streamed fold is
/// **bitwise-equal** to `parallel_reduce(…, Schedule::Static, …)` over the
/// same entries at every thread count, which is what the resident ≡
/// disk-to-disk trajectory tests pin.
///
/// `fold` receives each entry's raw `u32` multi-index and its value; state
/// that needs `usize` indices keeps a conversion buffer inside `T`.
pub(crate) fn scratch_fold_blocks<T, I, F, C>(
    src: &CooScratch,
    threads: usize,
    init: I,
    fold: F,
    combine: C,
) -> Result<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, &[u32], f64) + Sync,
    C: Fn(T, T) -> T,
{
    let n = src.nnz();
    let t = threads.max(1).min(n.max(1));
    let run_block = |lo: usize, hi: usize| -> Result<T> {
        let mut acc = init();
        let mut cur = src.segments_range(lo..hi, SCRATCH_SEG_ENTRIES);
        while let Some(seg) = cur.next_segment().map_err(PtuckerError::Tensor)? {
            for i in 0..seg.len() {
                fold(&mut acc, seg.index(i), seg.value(i));
            }
        }
        Ok(acc)
    };
    if t <= 1 {
        return run_block(0, n);
    }
    let parts: Vec<Result<T>> = std::thread::scope(|scope| {
        let rb = &run_block;
        let handles: Vec<_> = (0..t)
            .map(|b| {
                let (lo, hi) = static_block(n, t, b);
                scope.spawn(move || rb(lo, hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scratch reduction worker panicked"))
            .collect()
    });
    let mut acc = init();
    for part in parts {
        acc = combine(acc, part?);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptucker_memtrack::MemoryBudget;
    use ptucker_tensor::CooScratchWriter;

    fn scratch(nnz: usize) -> (CooScratch, f64) {
        let budget = MemoryBudget::new(usize::MAX);
        let mut w = CooScratchWriter::create(vec![32, 16, 8], &budget).unwrap();
        let mut want = 0.0f64;
        for e in 0..nnz {
            let idx = [e * 7 % 32, e * 3 % 16, e % 8];
            let v = (e as f64).sin();
            want += v;
            w.push(&idx, v).unwrap();
        }
        (w.finish().unwrap(), want)
    }

    #[test]
    fn block_fold_sums_every_entry_once() {
        let (src, want) = scratch(1000);
        for threads in [1, 2, 3, 8] {
            let (sum, count) = scratch_fold_blocks(
                &src,
                threads,
                || (0.0f64, 0usize),
                |(s, c), _idx, v| {
                    *s += v;
                    *c += 1;
                },
                |(sa, ca), (sb, cb)| (sa + sb, ca + cb),
            )
            .unwrap();
            assert_eq!(count, 1000, "threads={threads}");
            assert!((sum - want).abs() < 1e-9, "threads={threads}");
        }
    }

    #[test]
    fn block_fold_is_deterministic_across_thread_counts() {
        // Index-weighted sum is order-sensitive in general, but each block
        // folds sequentially and combines in block order — repeated runs at
        // the same thread count must agree bitwise.
        let (src, _) = scratch(777);
        for threads in [2, 4] {
            let run = || {
                scratch_fold_blocks(
                    &src,
                    threads,
                    || 0.0f64,
                    |s, idx, v| *s += v * (idx[0] as f64 + 1.0),
                    |a, b| a + b,
                )
                .unwrap()
            };
            assert_eq!(run().to_bits(), run().to_bits());
        }
    }

    #[test]
    fn input_accessors_agree_across_variants() {
        let (src, _) = scratch(40);
        let input = FitInput::from(&src);
        assert_eq!(input.dims(), &[32, 16, 8]);
        assert_eq!(input.order(), 3);
        assert_eq!(input.nnz(), 40);
        assert!(input.resident().is_none());
    }
}
