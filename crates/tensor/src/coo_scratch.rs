//! On-disk COO storage: the disk-to-disk fit's *source* format.
//!
//! A [`CooScratch`] holds a sparse tensor's raw entries in an unlinked
//! [`ScratchFile`](ptucker_memtrack::ScratchFile) instead of RAM: one
//! fixed-stride record per entry — the `N` mode indices as little-endian
//! `u32`s (ascending mode order) followed by the value as a little-endian
//! `f64`. Values stay `f64` here regardless of the fit's storage
//! precision: quantization happens exactly once, when a plan is built
//! (`ModeStreams::build*` rounds at ingest), so an external plan build
//! from this file reproduces the resident build bit for bit.
//!
//! Entries live in *input order* — the same order a resident
//! [`SparseTensor`](crate::SparseTensor) numbers its entry ids — so every
//! consumer that walks a [`CooSegments`] cursor front to back visits
//! entries in ascending entry-id order and can reproduce COO-ordered
//! passes (error sweeps, fingerprints, stream builds) without ever
//! materializing the tensor.
//!
//! The write path ([`CooScratchWriter`]) holds one bounded append buffer;
//! the read path ([`CooSegments`]) holds one bounded segment buffer. Peak
//! resident memory for a disk→disk ingest is therefore a constant, not a
//! function of `|Ω|`.

use crate::{Result, SparseTensor, TensorError};
use ptucker_memtrack::{MemoryBudget, ScratchFile, SpillReservation};
use std::sync::Arc;

/// Bytes of one on-disk COO record for an order-`N` tensor: `N` packed
/// `u32` indices plus the `f64` value.
pub fn coo_record_bytes(order: usize) -> usize {
    order * 4 + 8
}

/// Append-buffer capacity of a [`CooScratchWriter`], in bytes. One flush
/// per ~256 KiB keeps syscall counts low while bounding the writer's
/// resident footprint to a constant.
const WRITE_BUF_BYTES: usize = 256 << 10;

/// Entries per decoded segment when a whole-source pass (a fit's
/// whole-tensor folds, the external plan build's scans, a collect back
/// to RAM) walks a [`CooScratch`]. Segmentation never affects what a pass
/// sees — entries arrive in entry-id order however they are chunked — so
/// this only balances syscall count against buffer size (~40 KiB per
/// cursor at order 3).
pub const COO_SEGMENT_ENTRIES: usize = 8 << 10;

/// A sparse tensor stored as raw COO records in an unlinked scratch file.
/// Built by [`CooScratchWriter`] (streaming ingest) or
/// [`CooScratch::from_tensor`] (spilling a resident tensor); consumed by
/// [`CooScratch::segments`] and `ModeStreams::build_external`.
#[derive(Debug)]
pub struct CooScratch {
    pub(crate) file: Arc<ScratchFile>,
    dims: Vec<usize>,
    nnz: usize,
    /// `Σ value²` in entry order, recorded by the writer.
    sum_sq: f64,
    /// Keeps the on-disk bytes visible to the budget's spill meter for the
    /// source's lifetime (present when the writer was given a budget).
    _spill: Option<SpillReservation>,
}

impl CooScratch {
    /// Spills a resident tensor's entries to a new scratch file, in entry-id
    /// order. Mostly for tests and examples — the point of the format is
    /// ingest paths that never build the [`SparseTensor`] at all.
    ///
    /// # Errors
    /// [`TensorError::Io`] on scratch-file I/O failure, or any
    /// [`CooScratchWriter`] validation error.
    pub fn from_tensor(x: &SparseTensor, budget: &MemoryBudget) -> Result<Self> {
        let mut w = CooScratchWriter::create(x.dims().to_vec(), budget)?;
        for e in 0..x.nnz() {
            w.push(x.index(e), x.value(e))?;
        }
        w.finish()
    }

    /// The tensor's dimensionalities.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// `Σ value²` over the stored entries, summed in entry order from 0 as
    /// the writer took them in — so it costs no pass over the file, and has
    /// the bits of the same fold over a resident tensor's values.
    #[inline]
    pub fn sum_sq(&self) -> f64 {
        self.sum_sq
    }

    /// Total on-disk bytes of the record section.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.nnz as u64 * coo_record_bytes(self.order()) as u64
    }

    /// Resident bytes a [`CooSegments`] cursor of `max_entries` entries
    /// pins: the raw staging chunk plus the decoded index/value arrays.
    pub fn segment_bytes(&self, max_entries: usize) -> usize {
        let n = max_entries.max(1);
        n * coo_record_bytes(self.order()) + n * self.order() * 4 + n * 8
    }

    /// A segment cursor over the entries in ascending entry-id order, at
    /// most `max_entries` entries resident at a time.
    pub fn segments(&self, max_entries: usize) -> CooSegments<'_> {
        self.segments_range(0..self.nnz, max_entries)
    }

    /// A segment cursor restricted to entries `range` (clamped to the
    /// stored entry count) — the substrate of block-parallel streamed
    /// passes, where each worker folds one contiguous entry block through
    /// its own cursor. Entry ids still ascend within the cursor.
    pub fn segments_range(
        &self,
        range: std::ops::Range<usize>,
        max_entries: usize,
    ) -> CooSegments<'_> {
        let start = range.start.min(self.nnz);
        let end = range.end.min(self.nnz).max(start);
        let n = max_entries.max(1).min((end - start).max(1));
        CooSegments {
            src: self,
            max_entries: n,
            start,
            next: start,
            end,
            raw: Vec::new(),
            indices: Vec::with_capacity(n * self.order()),
            values: Vec::with_capacity(n),
        }
    }
}

/// Streaming writer for a [`CooScratch`]: entries are validated, packed
/// into one bounded buffer and flushed to the scratch file in order.
#[derive(Debug)]
pub struct CooScratchWriter {
    file: ScratchFile,
    dims: Vec<usize>,
    buf: Vec<u8>,
    written: usize,
    sum_sq: f64,
    budget: MemoryBudget,
}

impl CooScratchWriter {
    /// Opens a new scratch file for an order-`dims.len()` tensor. The
    /// file's I/O traffic is reported to `budget`'s counters and its final
    /// size to the spill meter.
    ///
    /// # Errors
    /// [`TensorError::InvalidDims`] if `dims` is empty or any
    /// dimensionality exceeds the packed-index `u32` width;
    /// [`TensorError::Io`] if the scratch file cannot be created.
    pub fn create(dims: Vec<usize>, budget: &MemoryBudget) -> Result<Self> {
        if dims.is_empty() {
            return Err(TensorError::InvalidDims(
                "a COO scratch tensor needs at least one mode".into(),
            ));
        }
        if let Some(&d) = dims.iter().find(|&&d| d > u32::MAX as usize) {
            return Err(TensorError::InvalidDims(format!(
                "dimensionality {d} exceeds the COO record's u32 index width"
            )));
        }
        let file = ScratchFile::create_tracked(budget)?;
        Ok(CooScratchWriter {
            file,
            dims,
            buf: Vec::with_capacity(WRITE_BUF_BYTES),
            written: 0,
            sum_sq: 0.0,
            budget: budget.clone(),
        })
    }

    /// Number of entries pushed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.written + self.buf.len() / coo_record_bytes(self.dims.len())
    }

    /// Whether no entry has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one entry. Entries are stored in push order, which becomes
    /// the tensor's entry-id order.
    ///
    /// # Errors
    /// [`TensorError::InvalidDims`] on an index of the wrong arity, out of
    /// bounds, or when the entry count would exceed the `u32` entry-id
    /// width; [`TensorError::NonFiniteValue`] (naming this entry's
    /// position in push order) for a NaN or infinite value — the same
    /// rejection [`SparseTensor::from_flat`] gives the resident ingest;
    /// [`TensorError::Io`] on a flush failure.
    pub fn push(&mut self, idx: &[usize], value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(TensorError::NonFiniteValue { entry: self.len() });
        }
        if idx.len() != self.dims.len() {
            return Err(TensorError::InvalidDims(format!(
                "index arity {} does not match order {}",
                idx.len(),
                self.dims.len()
            )));
        }
        for (k, (&i, &d)) in idx.iter().zip(&self.dims).enumerate() {
            if i >= d {
                return Err(TensorError::InvalidDims(format!(
                    "index {i} out of bounds for mode {k} (dim {d})"
                )));
            }
        }
        if self.len() >= u32::MAX as usize {
            return Err(TensorError::InvalidDims(
                "entry count exceeds the streamed layout's u32 entry-id width".into(),
            ));
        }
        for &i in idx {
            self.buf.extend_from_slice(&(i as u32).to_le_bytes());
        }
        self.buf.extend_from_slice(&value.to_le_bytes());
        self.sum_sq += value * value;
        if self.buf.len() >= WRITE_BUF_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let stride = coo_record_bytes(self.dims.len());
        self.file
            .write_bytes(self.written as u64 * stride as u64, &self.buf)?;
        self.written += self.buf.len() / stride;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the tail and seals the file into a readable [`CooScratch`].
    ///
    /// # Errors
    /// [`TensorError::Io`] on the final flush.
    pub fn finish(mut self) -> Result<CooScratch> {
        self.flush()?;
        let spill = self.budget.record_spill(self.file.len() as usize);
        Ok(CooScratch {
            file: Arc::new(self.file),
            dims: self.dims,
            nnz: self.written,
            sum_sq: self.sum_sq,
            _spill: Some(spill),
        })
    }
}

/// A bounded cursor over a [`CooScratch`]'s entries: each
/// [`CooSegments::next_segment`] call decodes the next run of at most
/// `max_entries` records into pinned buffers. Entry ids ascend across the
/// whole sweep, so segment-by-segment passes reproduce COO-ordered walks.
#[derive(Debug)]
pub struct CooSegments<'a> {
    src: &'a CooScratch,
    max_entries: usize,
    /// First entry id of the cursor's range.
    start: usize,
    /// Entry id of the next segment's first record.
    next: usize,
    /// One past the last entry id of the cursor's range.
    end: usize,
    raw: Vec<u8>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl<'a> CooSegments<'a> {
    /// Restarts the cursor at the first entry of its range (buffers kept).
    pub fn rewind(&mut self) {
        self.next = self.start;
    }

    /// Decodes the next segment, or `None` after the range's last entry.
    ///
    /// # Errors
    /// [`TensorError::Io`] if reading the scratch file fails.
    pub fn next_segment(&mut self) -> Result<Option<CooSegment<'_>>> {
        if self.next >= self.end {
            return Ok(None);
        }
        let order = self.src.order();
        let stride = coo_record_bytes(order);
        let base = self.next;
        let count = self.max_entries.min(self.end - base);
        self.raw.resize(count * stride, 0);
        self.src
            .file
            .read_bytes(base as u64 * stride as u64, &mut self.raw)?;
        self.indices.clear();
        self.values.clear();
        for rec in self.raw.chunks_exact(stride) {
            for k in 0..order {
                self.indices.push(u32::from_le_bytes(
                    rec[k * 4..k * 4 + 4].try_into().expect("4-byte field"),
                ));
            }
            self.values.push(f64::from_le_bytes(
                rec[order * 4..].try_into().expect("8-byte field"),
            ));
        }
        self.next = base + count;
        Ok(Some(CooSegment {
            base,
            order,
            indices: &self.indices,
            values: &self.values,
        }))
    }
}

/// One decoded segment of a [`CooScratch`]: entries `base..base + len`,
/// indices packed flat with stride `order`.
#[derive(Debug, Clone, Copy)]
pub struct CooSegment<'a> {
    /// Entry id of the segment's first record.
    pub base: usize,
    order: usize,
    indices: &'a [u32],
    values: &'a [f64],
}

impl<'a> CooSegment<'a> {
    /// Number of entries in the segment.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the segment holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The multi-index of segment-local entry `i` (global entry
    /// `base + i`), as packed `u32`s in ascending mode order.
    #[inline]
    pub fn index(&self, i: usize) -> &'a [u32] {
        &self.indices[i * self.order..(i + 1) * self.order]
    }

    /// The value of segment-local entry `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseTensor {
        SparseTensor::new(
            vec![3, 2, 2],
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![0, 1, 1], 2.0),
                (vec![1, 0, 1], 3.0),
                (vec![2, 1, 0], 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_entry_order_and_bits() {
        let x = sample();
        let budget = MemoryBudget::unlimited();
        let s = CooScratch::from_tensor(&x, &budget).unwrap();
        assert_eq!(s.dims(), x.dims());
        assert_eq!(s.nnz(), x.nnz());
        assert_eq!(s.bytes(), x.nnz() as u64 * (3 * 4 + 8));
        assert_eq!(budget.spilled_in_use(), s.bytes() as usize);
        for max in [1, 3, 100] {
            let mut cur = s.segments(max);
            let mut e = 0;
            while let Some(seg) = cur.next_segment().unwrap() {
                assert_eq!(seg.base, e);
                for i in 0..seg.len() {
                    let idx: Vec<usize> = seg.index(i).iter().map(|&v| v as usize).collect();
                    assert_eq!(idx, x.index(e), "entry {e}");
                    assert_eq!(seg.value(i).to_bits(), x.value(e).to_bits());
                    e += 1;
                }
            }
            assert_eq!(e, x.nnz(), "max_entries={max}");
            // Rewind replays from entry 0.
            cur.rewind();
            let again = cur.next_segment().unwrap().unwrap();
            assert_eq!(again.base, 0);
        }
    }

    #[test]
    fn writer_validates_arity_bounds_and_dims() {
        let budget = MemoryBudget::unlimited();
        assert!(CooScratchWriter::create(vec![], &budget).is_err());
        let mut w = CooScratchWriter::create(vec![2, 3], &budget).unwrap();
        assert!(w.is_empty());
        assert!(w.push(&[0], 1.0).is_err(), "wrong arity");
        assert!(w.push(&[2, 0], 1.0).is_err(), "out of bounds");
        w.push(&[1, 2], 0.5).unwrap();
        assert_eq!(w.len(), 1);
        let s = w.finish().unwrap();
        assert_eq!(s.nnz(), 1);
        let mut cur = s.segments(8);
        let seg = cur.next_segment().unwrap().unwrap();
        assert_eq!(seg.index(0), &[1, 2]);
        assert_eq!(seg.value(0), 0.5);
    }

    #[test]
    fn large_stream_crosses_flush_boundaries() {
        // More than one WRITE_BUF_BYTES flush and several read segments.
        let budget = MemoryBudget::unlimited();
        let n = WRITE_BUF_BYTES / coo_record_bytes(2) + 777;
        let mut w = CooScratchWriter::create(vec![1 << 20, 7], &budget).unwrap();
        for e in 0..n {
            w.push(&[e, e % 7], e as f64 * 0.25 - 3.0).unwrap();
        }
        let s = w.finish().unwrap();
        assert_eq!(s.nnz(), n);
        let mut cur = s.segments(1000);
        let mut e = 0usize;
        while let Some(seg) = cur.next_segment().unwrap() {
            for i in 0..seg.len() {
                assert_eq!(seg.index(i), &[e as u32, (e % 7) as u32]);
                assert_eq!(seg.value(i), e as f64 * 0.25 - 3.0);
                e += 1;
            }
        }
        assert_eq!(e, n);
    }

    #[test]
    fn empty_scratch_yields_no_segments() {
        let budget = MemoryBudget::unlimited();
        let w = CooScratchWriter::create(vec![4, 4], &budget).unwrap();
        let s = w.finish().unwrap();
        assert_eq!(s.nnz(), 0);
        assert!(s.segments(16).next_segment().unwrap().is_none());
    }

    #[test]
    fn ranged_cursors_partition_the_sweep() {
        let budget = MemoryBudget::unlimited();
        let mut w = CooScratchWriter::create(vec![64, 8], &budget).unwrap();
        let n = 57usize;
        for e in 0..n {
            w.push(&[e, e % 8], e as f64 + 0.5).unwrap();
        }
        let s = w.finish().unwrap();
        // Split points mid-segment, at boundaries, and degenerate ranges.
        for (lo, hi) in [(0, 57), (0, 29), (29, 57), (13, 13), (50, 200)] {
            let mut cur = s.segments_range(lo..hi, 10);
            let mut e = lo.min(n);
            while let Some(seg) = cur.next_segment().unwrap() {
                assert_eq!(seg.base, e);
                for i in 0..seg.len() {
                    assert_eq!(seg.index(i)[0], e as u32);
                    assert_eq!(seg.value(i), e as f64 + 0.5);
                    e += 1;
                }
            }
            assert_eq!(e, hi.min(n), "range {lo}..{hi}");
            cur.rewind();
            if lo.min(n) < hi.min(n) {
                assert_eq!(cur.next_segment().unwrap().unwrap().base, lo);
            } else {
                assert!(cur.next_segment().unwrap().is_none());
            }
        }
    }
}
