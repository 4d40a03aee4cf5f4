//! Streaming generators and converters: disk-resident COO sources built
//! without ever materializing the entry set in memory.
//!
//! The in-memory generators ([`crate::uniform_sparse`] and friends) return
//! a [`SparseTensor`] — `O(|Ω|)` resident words by construction, which
//! caps them at tensors that fit in RAM. These writers are the
//! disk-to-disk pipeline's front end: they emit entries one at a time into
//! a [`CooScratchWriter`] (whose flush buffer is the only entry storage,
//! a few KiB), so generating a source **larger than the memory budget**
//! holds `O(Σₙ Iₙ)` state at most — the Zipf samplers' CDF tables — and
//! the result feeds `PTucker::fit_scratch` directly.
//!
//! [`tsv_to_scratch`] is the matching ingest for the authors' 1-based
//! whitespace TSV datasets: two sequential passes (shape scan, then entry
//! stream) with one line buffer, never a resident entry array.

use ptucker_memtrack::MemoryBudget;
use ptucker_tensor::{
    for_each_tsv_entry, CooScratch, CooScratchWriter, Result, SparseTensor, StoragePrecision,
    COO_SEGMENT_ENTRIES,
};
use rand::Rng;
use std::path::Path;

use crate::Zipf;

/// Streams `nnz` uniformly sampled entries (cells uniform over the grid,
/// values uniform in `[0, 1)`) straight into a COO scratch file.
///
/// Cells are sampled **directly** — no deduplication table, because that
/// table would be the `O(|Ω|)` memory this writer exists to avoid. At the
/// low densities that need a disk-resident source the expected collision
/// fraction is ≪ 1%, and a repeated cell is just a repeated observation to
/// the solver. Use [`crate::uniform_sparse`] when exact distinctness
/// matters and the tensor fits in memory.
///
/// # Errors
/// [`ptucker_tensor::TensorError::Io`] on scratch-file failures,
/// [`ptucker_tensor::TensorError::InvalidDims`] for empty/zero/overflowing `dims`.
pub fn stream_uniform_to_scratch<R: Rng + ?Sized>(
    dims: &[usize],
    nnz: usize,
    rng: &mut R,
    budget: &MemoryBudget,
) -> Result<CooScratch> {
    let mut w = CooScratchWriter::create(dims.to_vec(), budget)?;
    let mut idx = vec![0usize; dims.len()];
    for _ in 0..nnz {
        for (slot, &d) in idx.iter_mut().zip(dims) {
            *slot = rng.gen_range(0..d);
        }
        let v: f64 = rng.gen();
        w.push(&idx, v)?;
    }
    w.finish()
}

/// Streams `nnz` Zipf-skewed entries into a COO scratch file: mode-`k`
/// coordinates follow `P(i) ∝ 1/(i+1)^s` independently per mode — the
/// skewed slice-size profile of real rating data (a few heavy users/items,
/// a long light tail) at any scale — with values uniform in `[0, 1)`.
/// `s = 0` degenerates to [`stream_uniform_to_scratch`].
///
/// Resident state is the per-mode CDF tables (`O(Σₙ Iₙ)` doubles) plus the
/// writer's bounded flush buffer; entries are never held.
///
/// # Errors
/// As for [`stream_uniform_to_scratch`].
///
/// # Panics
/// Panics if `s` is negative or non-finite (see [`Zipf::new`]).
pub fn stream_zipf_to_scratch<R: Rng + ?Sized>(
    dims: &[usize],
    nnz: usize,
    s: f64,
    rng: &mut R,
    budget: &MemoryBudget,
) -> Result<CooScratch> {
    let samplers: Vec<Zipf> = dims.iter().map(|&d| Zipf::new(d.max(1), s)).collect();
    let mut w = CooScratchWriter::create(dims.to_vec(), budget)?;
    let mut idx = vec![0usize; dims.len()];
    for _ in 0..nnz {
        for (slot, z) in idx.iter_mut().zip(&samplers) {
            *slot = z.sample(rng);
        }
        let v: f64 = rng.gen();
        w.push(&idx, v)?;
    }
    w.finish()
}

/// Converts a 1-based whitespace TSV dataset (the format of
/// [`crate::read_dataset`] / [`ptucker_tensor::read_tsv`]) into a
/// disk-resident COO scratch file without building a [`SparseTensor`]:
/// pass 1 scans the file for the order and per-mode maxima, pass 2 streams
/// each parsed entry into the writer. Both passes go through
/// [`for_each_tsv_entry`], the parser behind the resident reader; its
/// reused line buffers are the only per-entry state either pass holds.
///
/// `precision` selects value parsing exactly as [`crate::read_dataset`]
/// does: `F32` parses each value as `f32` and widens, so a downstream
/// `StoragePrecision::F32` fit re-quantizes nothing.
///
/// # Errors
/// [`ptucker_tensor::TensorError::Parse`] with a 1-based line number for malformed lines
/// (same diagnostics as [`ptucker_tensor::read_tsv`]),
/// [`ptucker_tensor::TensorError::Io`] for filesystem problems.
pub fn tsv_to_scratch<P: AsRef<Path>>(
    path: P,
    precision: StoragePrecision,
    budget: &MemoryBudget,
) -> Result<CooScratch> {
    let path = path.as_ref();
    // Pass 1 — shape: order from the first data line, dims as per-mode
    // 1-based maxima (the TSV convention: the grid is as large as its
    // largest observed coordinate).
    let mut dims: Vec<usize> = Vec::new();
    for_each_tsv_entry(path, precision, |idx, _v| {
        if dims.is_empty() {
            dims = vec![0; idx.len()];
        }
        for (d, &i) in dims.iter_mut().zip(idx) {
            *d = (*d).max(i + 1);
        }
        Ok(())
    })?;
    // Pass 2 — entries, in file order.
    let mut w = CooScratchWriter::create(dims, budget)?;
    for_each_tsv_entry(path, precision, |idx, v| w.push(idx, v))?;
    w.finish()
}

/// Collects a scratch source back into a resident [`SparseTensor`] —
/// test/tooling convenience, deliberately `O(|Ω|)`.
///
/// # Errors
/// [`ptucker_tensor::TensorError::Io`] on read failures, plus tensor-construction
/// validation errors.
pub fn scratch_to_tensor(src: &CooScratch) -> Result<SparseTensor> {
    let order = src.order();
    let mut indices = Vec::with_capacity(src.nnz() * order);
    let mut values = Vec::with_capacity(src.nnz());
    let mut cur = src.segments(COO_SEGMENT_ENTRIES);
    while let Some(seg) = cur.next_segment()? {
        for i in 0..seg.len() {
            indices.extend(seg.index(i).iter().map(|&k| k as usize));
            values.push(seg.value(i));
        }
    }
    SparseTensor::from_flat(src.dims().to_vec(), indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptucker_tensor::TensorError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ptucker_datagen_stream");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn uniform_stream_shape_and_range() {
        let budget = MemoryBudget::new(usize::MAX);
        let mut rng = StdRng::seed_from_u64(11);
        let src = stream_uniform_to_scratch(&[9, 7, 5], 400, &mut rng, &budget).unwrap();
        assert_eq!(src.dims(), &[9, 7, 5]);
        assert_eq!(src.nnz(), 400);
        let x = scratch_to_tensor(&src).unwrap();
        assert!(x.values().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn zipf_stream_is_skewed_and_deterministic() {
        let budget = MemoryBudget::new(usize::MAX);
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            stream_zipf_to_scratch(&[64, 64], 20_000, 1.2, &mut rng, &budget).unwrap()
        };
        let a = scratch_to_tensor(&gen(3)).unwrap();
        let b = scratch_to_tensor(&gen(3)).unwrap();
        assert_eq!(a.flat_indices(), b.flat_indices());
        for (va, vb) in a.values().iter().zip(b.values()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
        // Head slice of mode 0 much heavier than a mid slice.
        let count = |row: usize| (0..a.nnz()).filter(|&e| a.index(e)[0] == row).count();
        assert!(count(0) > 5 * count(32).max(1));
    }

    #[test]
    fn tsv_converter_matches_resident_reader_bitwise() {
        let budget = MemoryBudget::new(usize::MAX);
        let mut rng = StdRng::seed_from_u64(23);
        let x = crate::uniform_sparse(&[8, 6, 4], 120, &mut rng);
        let path = tmp("roundtrip.tsv");
        for precision in [StoragePrecision::F64, StoragePrecision::F32] {
            crate::write_dataset(&path, &x, precision).unwrap();
            let resident = crate::read_dataset(&path, precision).unwrap();
            let src = tsv_to_scratch(&path, precision, &budget).unwrap();
            assert_eq!(src.dims(), resident.dims());
            let streamed = scratch_to_tensor(&src).unwrap();
            assert_eq!(streamed.flat_indices(), resident.flat_indices());
            for (a, b) in streamed.values().iter().zip(resident.values()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{precision:?}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tsv_converter_rejects_malformed_lines() {
        let budget = MemoryBudget::new(usize::MAX);
        let path = tmp("bad.tsv");
        std::fs::write(&path, "1 1 0.5\n0 2 1.0\n").unwrap();
        let err = tsv_to_scratch(&path, StoragePrecision::F64, &budget).unwrap_err();
        assert!(matches!(err, TensorError::Parse { line: 2, .. }), "{err:?}");
        std::fs::write(&path, "# only comments\n\n").unwrap();
        let err = tsv_to_scratch(&path, StoragePrecision::F64, &budget).unwrap_err();
        assert!(matches!(err, TensorError::Parse { line: 0, .. }));
        std::fs::remove_file(&path).ok();
    }

    /// A non-finite value is the same typed error on both ingest paths —
    /// the entry's position in file order — never a tensor that carries a
    /// NaN into a fit.
    #[test]
    fn both_tsv_readers_reject_non_finite_values_identically() {
        let budget = MemoryBudget::new(usize::MAX);
        let path = tmp("nonfinite.tsv");
        std::fs::write(&path, "1 1 1 0.5\n2 1 2 NaN\n1 2 2 inf\n").unwrap();
        for precision in [StoragePrecision::F64, StoragePrecision::F32] {
            let resident = crate::read_dataset(&path, precision).unwrap_err();
            let disk = tsv_to_scratch(&path, precision, &budget).unwrap_err();
            for err in [resident, disk] {
                assert!(
                    matches!(err, TensorError::NonFiniteValue { entry: 1 }),
                    "{precision:?}: {err:?}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streams_are_budget_tracked() {
        let budget = MemoryBudget::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        let src = stream_uniform_to_scratch(&[16, 16], 5_000, &mut rng, &budget).unwrap();
        // The entries live on the spill meter, not in resident memory.
        assert!(budget.spilled_in_use() >= src.bytes() as usize);
        assert_eq!(src.nnz(), 5_000);
    }
}
