//! The fit's input source: a resident COO tensor, or a disk-resident COO
//! scratch file for fits whose observed entries never fit in memory — and
//! the **one** fold every whole-tensor pass runs over either.
//!
//! The residual (Algorithm 2 line 4), the Approx `R(β)` ranking (Eq. 13),
//! the core refit and the checkpoint fingerprint are all a fold over `Ω`
//! in entry order; [`FitInput::fold_entries`] is that fold, statically
//! blocked as Section III-D schedules these uniform-cost sections. A
//! resident tensor is its one-segment case; a [`CooScratch`] is walked in
//! bounded segments, so a disk-to-disk fit never holds more of the tensor
//! than one window ring of the active mode's stream. Which arm supplies
//! the entries never shows in the result: every pass is **bitwise
//! identical** across the two, at every thread count.

use crate::Result;
use ptucker_sched::try_reduce_blocks;
use ptucker_tensor::{CooScratch, SparseTensor, COO_SEGMENT_ENTRIES};
use std::ops::Range;

/// Where a fit reads its observed entries from.
///
/// Every row-update kernel hook receives the fit's input through this enum.
/// [`Resident`](FitInput::Resident) is the classical path: the COO tensor
/// is in memory and kernels may index it at random.
/// [`Scratch`](FitInput::Scratch) is the disk-to-disk path: the observed
/// entries live in an unlinked scratch file, the driver forces the spilled
/// placement (plan and any kernel aux state on disk), and every pass over
/// the entries walks bounded segments of it.
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

    /// `Σ X_α²` over the observed entries, summed in entry order from 0: a
    /// pass over a resident tensor's values, the figure a scratch file's
    /// writer recorded ([`CooScratch::sum_sq`]) — the same bits either way,
    /// and no read of the file.
    pub(crate) fn sum_sq(&self) -> f64 {
        match self {
            FitInput::Resident(x) => x.values().iter().fold(0.0, |s, &v| s + v * v),
            FitInput::Scratch(src) => src.sum_sq(),
        }
    }

    /// Calls `f(multi-index, value)` for the entries `range`, in entry
    /// order: a resident tensor is read in place, a scratch file decoded
    /// [`COO_SEGMENT_ENTRIES`] entries at a time into buffers this call
    /// owns. Fails only if reading the scratch file does.
    pub(crate) fn for_each_entry(
        &self,
        range: Range<usize>,
        mut f: impl FnMut(&[usize], f64),
    ) -> Result<()> {
        match self {
            FitInput::Resident(x) => {
                for e in range {
                    f(x.index(e), x.value(e));
                }
            }
            FitInput::Scratch(src) => {
                let mut idx = vec![0usize; src.order()];
                let mut cur = src.segments_range(range, COO_SEGMENT_ENTRIES);
                while let Some(seg) = cur.next_segment()? {
                    for i in 0..seg.len() {
                        for (slot, &k) in idx.iter_mut().zip(seg.index(i)) {
                            *slot = k as usize;
                        }
                        f(&idx, seg.value(i));
                    }
                }
            }
        }
        Ok(())
    }

    /// The whole-tensor fold: worker `b` of `threads` folds
    /// `static_block(nnz, t, b)` in entry order from `init()`, and the
    /// partials combine in worker order
    /// ([`ptucker_sched::try_reduce_blocks`]). A pure function of the
    /// entries, `threads` and the closures: the same bits from either
    /// input flavor — those of `parallel_reduce(nnz, threads,
    /// Schedule::Static, …)` over the resident entry array.
    ///
    /// # Errors
    /// [`crate::PtuckerError::Tensor`] if reading the scratch file fails.
    pub fn fold_entries<T, I, F, C>(
        &self,
        threads: usize,
        init: I,
        fold: F,
        combine: C,
    ) -> Result<T>
    where
        T: Send,
        I: Fn() -> T + Sync,
        F: Fn(&mut T, &[usize], f64) + Sync,
        C: Fn(T, T) -> T,
    {
        try_reduce_blocks(
            self.nnz(),
            threads,
            init,
            |mut acc, block| {
                self.for_each_entry(block, |idx, v| fold(&mut acc, idx, v))?;
                Ok(acc)
            },
            combine,
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptucker_memtrack::MemoryBudget;
    use ptucker_sched::{parallel_reduce, Schedule};
    use ptucker_tensor::CooScratchWriter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            let (sum, count) = FitInput::from(&src)
                .fold_entries(
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
    fn input_accessors_agree_across_variants() {
        let (src, _) = scratch(40);
        let input = FitInput::from(&src);
        assert_eq!(input.dims(), &[32, 16, 8]);
        assert_eq!(input.order(), 3);
        assert_eq!(input.nnz(), 40);
        assert!(input.resident().is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The one contract every whole-tensor pass rides: an
        // order-sensitive fold (index-weighted sum — reassociating it, or
        // visiting entries in another order, changes the bits) gives the
        // same bits over a resident tensor and over a scratch file of its
        // entries, and those are the bits of the static-schedule
        // `parallel_reduce` over the resident entry array — at every
        // thread count, empty tensors and more workers than entries
        // included.
        #[test]
        fn fold_entries_is_bitwise_identical_across_inputs_and_to_static_parallel_reduce(
            seed in 0..u64::MAX,
            order in 1usize..5,
            nnz in 0usize..400,
            threads in 1usize..=8
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dims: Vec<usize> = (0..order).map(|k| 5 + (seed >> (8 * k)) as usize % 9).collect();
            let cells: usize = dims.iter().product();
            let x = ptucker_datagen::uniform_sparse(&dims, nnz.min(cells / 2), &mut rng);
            let src = CooScratch::from_tensor(&x, &MemoryBudget::unlimited()).unwrap();
            let weigh = |idx: &[usize], v: f64| {
                idx.iter().enumerate().fold(v, |w, (k, &i)| w * (1.0 + (i + k) as f64 / 7.0))
            };
            let fold = |input: FitInput<'_>| {
                input
                    .fold_entries(threads, || 0.1f64, |s, idx, v| *s += weigh(idx, v), |a, b| a + b)
                    .unwrap()
            };
            let reference = parallel_reduce(
                x.nnz(),
                threads,
                Schedule::Static,
                || 0.1f64,
                |s, e| s + weigh(x.index(e), x.value(e)),
                |a, b| a + b,
            );
            let resident = fold(FitInput::from(&x));
            let disk = fold(FitInput::from(&src));
            prop_assert_eq!(resident.to_bits(), reference.to_bits(), "resident vs parallel_reduce");
            prop_assert_eq!(disk.to_bits(), resident.to_bits(), "disk vs resident");
            prop_assert_eq!(
                FitInput::from(&src).sum_sq().to_bits(),
                FitInput::from(&x).sum_sq().to_bits(),
                "the writer's Σx² vs the resident fold"
            );
        }
    }
}
