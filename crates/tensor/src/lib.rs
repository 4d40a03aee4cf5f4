//! Sparse/dense tensor substrate for the P-Tucker reproduction.
//!
//! Provides the data structures and tensor operations of Section II of the
//! paper:
//!
//! * [`SparseTensor`] — COO storage for a partially observed tensor `X` with
//!   per-mode slice indices (the paper's `Ω⁽ⁿ⁾ᵢₙ` sets) built once at
//!   construction,
//! * [`ModeStreams`] — the mode-major execution plan: per-mode streamed
//!   slice layouts ([`ModeStream`]) that row-update kernels walk linearly
//!   instead of gathering through entry ids (COO stays the source of
//!   truth). Its storage is a [`StreamStore`]: fully resident, or
//!   **spilled** to an unlinked scratch file. Either placement is swept
//!   through one abstraction, [`SweepSource`] — slice-aligned windows
//!   presented as [`StreamView`]s: zero-copy sub-views of a resident
//!   stream, or [`SliceWindows`] refills of pinned buffers (optionally
//!   double-buffered with a background prefetch) — the substrate of the
//!   unified fit driver,
//! * [`DenseTensor`] — strided dense storage with matricization
//!   (Definition 2) and the n-mode product (Definition 3),
//! * [`CoreTensor`] — the core `G`, dense at initialization but truncatable
//!   to a sparse entry list (P-Tucker-Approx removes "noisy" entries),
//! * TSV I/O in the 1-based `i₁ … i_N value` format the authors distribute
//!   their datasets in, and
//! * a seeded train/test splitter for the RMSE experiments (Section IV-E).
//!
//! ```
//! use ptucker_tensor::SparseTensor;
//!
//! // A 2x2 matrix (2-order tensor) with 3 observed entries.
//! let x = SparseTensor::new(
//!     vec![2, 2],
//!     vec![(vec![0, 0], 1.0), (vec![0, 1], 2.0), (vec![1, 1], 3.0)],
//! ).unwrap();
//! assert_eq!(x.nnz(), 3);
//! assert_eq!(x.slice(0, 0), &[0, 1]); // entries 0 and 1 live in row 0
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::should_implement_trait)]

mod coo_scratch;
mod core_tensor;
mod dense;
mod error;
mod io;
mod precision;
mod sparse;
mod split;
mod stream;

pub use coo_scratch::{
    coo_record_bytes, CooScratch, CooScratchWriter, CooSegment, CooSegments, COO_SEGMENT_ENTRIES,
};
pub use core_tensor::CoreTensor;
pub use dense::DenseTensor;
pub use error::TensorError;
pub use io::{for_each_tsv_entry, read_tsv, read_tsv_f32, write_tsv, write_tsv_f32};
pub use precision::StoragePrecision;
pub use sparse::{ModeIndex, SparseTensor};
pub use split::TrainTestSplit;
pub use stream::{
    ModeStream, ModeStreams, SliceWindows, SpilledModeStream, StreamStore, StreamView, SweepSource,
    ValuesView, Window,
};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Computes row-major strides for the given dimensions (last mode fastest).
pub fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let n = dims.len();
    let mut strides = vec![1; n];
    for k in (0..n.saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * dims[k + 1];
    }
    strides
}

/// Linearizes a multi-index under row-major strides. Panics in debug builds
/// if the index length mismatches.
#[inline]
pub fn linearize(index: &[usize], strides: &[usize]) -> usize {
    debug_assert_eq!(index.len(), strides.len());
    index.iter().zip(strides).map(|(i, s)| i * s).sum()
}

/// Inverse of [`linearize`]: recovers the multi-index of `lin` under
/// row-major layout for `dims`.
pub fn delinearize(mut lin: usize, dims: &[usize], out: &mut [usize]) {
    debug_assert_eq!(dims.len(), out.len());
    for k in (0..dims.len()).rev() {
        out[k] = lin % dims[k];
        lin /= dims[k];
    }
    debug_assert_eq!(lin, 0, "linear index out of range");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(row_major_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(row_major_strides(&[5]), vec![1]);
        assert_eq!(row_major_strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn linearize_delinearize_roundtrip() {
        let dims = [3, 4, 5];
        let strides = row_major_strides(&dims);
        let mut idx = [0usize; 3];
        for lin in 0..(3 * 4 * 5) {
            delinearize(lin, &dims, &mut idx);
            assert_eq!(linearize(&idx, &strides), lin);
        }
    }
}
