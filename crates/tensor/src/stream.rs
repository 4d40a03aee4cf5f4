//! Mode-major execution plans: the streamed slice layout.
//!
//! The per-mode [`crate::ModeIndex`] answers "which entries live in slice
//! `iₙ`?" with a list of entry *ids* — every consumer then gathers the
//! entry's value and multi-index through those ids, which turns the hottest
//! loop of the row-wise update into a scatter/gather over the COO arrays.
//!
//! A [`ModeStream`] removes that indirection: for one mode, the entry
//! values and the packed *other-mode* indices are physically reordered
//! slice-by-slice, so walking a slice is a linear scan of contiguous
//! memory. Within a slice, entries appear in ascending COO entry-id order —
//! the same order `ModeIndex::slice` yields — so algorithms that subsample
//! (`sample_stride`) or accumulate in slice order produce *identical*
//! results on either layout.
//!
//! COO stays the source of truth; a [`ModeStreams`] plan is derived from a
//! [`SparseTensor`] once per fit (`O(N·|Ω|)` time and memory) and is
//! immutable afterwards. Other-mode indices and entry ids are stored as
//! `u32` — half the memory traffic of `usize` on 64-bit targets, which is
//! most of the point of a bandwidth-bound layout — so dimensionalities and
//! `|Ω|` must fit in 32 bits (they do for every tensor in the paper by
//! orders of magnitude; [`ModeStreams::build`] checks).
//!
//! # One sweep abstraction for every placement
//!
//! The plan's storage is a [`StreamStore`]: either every mode's stream is
//! resident ([`ModeStreams::build`]) or the bulk arrays — values and
//! packed other-mode indices — live in an unlinked
//! [`ScratchFile`](ptucker_memtrack::ScratchFile) and only the per-mode
//! slice offsets stay in RAM ([`ModeStreams::build_spilled`]). Entry ids
//! exist only in resident plans: their one reader is the resident-only
//! P-Tucker-Cache `Pres` table, so a spilled record does not carry one.
//!
//! Consumers never branch on the placement. [`ModeStreams::sweep_source`]
//! yields a [`SweepSource`]: a lending iterator of **slice-aligned
//! windows**, each presented as a [`StreamView`] — contiguous values and
//! packed indices (plus entry ids on a resident plan) with window-local
//! slices and positions.
//! Over a resident plan a window is a zero-copy sub-view of the stream
//! (one window covering the whole stream when the capacity is unbounded);
//! over a spilled plan it is a [`SliceWindows`] refill of a pinned buffer
//! from the scratch file. The fit driver downstream is therefore *one*
//! loop: the in-memory fit is the single-full-window special case of the
//! windowed fit, and the per-row arithmetic is byte-identical on every
//! placement.
//!
//! # N-deep prefetch ring
//!
//! A spilled sweep can overlap its scratch-file reads with the row
//! computation: at pipeline depth `d ≥ 2`
//! ([`ModeStreams::sweep_source_deep`]), [`SliceWindows`] pins `d − 1`
//! extra buffers and hands refill requests to a
//! [`ptucker_sched::Background`] worker thread, keeping up to `d − 1`
//! window reads banked ahead of the compute — windows `w+1 … w+d−1`
//! stream in from disk while the rows of window `w` are being updated,
//! and slow windows drain the bank before the compute ever stalls. Depth
//! 2 is the classic double buffer; `prefetch: true` on the boolean APIs
//! maps to it. Prefetching changes only *when* bytes are read, never
//! their values — sweeps are bitwise identical at every depth. Budget
//! accounting is the caller's job (the fit driver books all `d` pinned
//! buffers).
//!
//! # Disk-to-disk builds
//!
//! A plan does not need a resident tensor at all:
//! [`ModeStreams::build_external`] derives the spilled plan straight from
//! an on-disk [`CooScratch`] source by **counting placement**. Slice keys
//! are dense integers and the source is in entry-id order, so one scan
//! counts every mode's slice sizes (the plan's slice offsets), and a
//! per-slice cursor then gives each entry its final stream position in
//! one scan per mode: the first arena-sized range of positions is placed
//! in RAM, later ranges are bucketed through a transient file and placed
//! one range at a time, and every range goes out in one sequential write.
//! Nothing is sorted, the I/O is linear in `|Ω|`, and the result is
//! bit-for-bit the sections [`ModeStreams::build_spilled`] writes.
//! Combined with the streamed ingest writers in `ptucker-datagen`, the
//! whole path from raw data to fitted factors touches RAM only through
//! bounded buffers.

use crate::{CooScratch, Result, SparseTensor, StoragePrecision, TensorError, COO_SEGMENT_ENTRIES};
use ptucker_memtrack::{MemoryBudget, Reservation, ScratchFile, SpillReservation};
use ptucker_sched::Background;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Owned value storage at the plan's [`StoragePrecision`]: entry values in
/// stream order, as 8-byte or 4-byte slots.
#[derive(Debug, Clone)]
enum ValueStore {
    F64(Vec<f64>),
    F32(Vec<f32>),
}

impl ValueStore {
    fn with_capacity(precision: StoragePrecision, n: usize) -> Self {
        match precision {
            StoragePrecision::F64 => ValueStore::F64(Vec::with_capacity(n)),
            StoragePrecision::F32 => ValueStore::F32(Vec::with_capacity(n)),
        }
    }

    fn len(&self) -> usize {
        match self {
            ValueStore::F64(v) => v.len(),
            ValueStore::F32(v) => v.len(),
        }
    }

    /// Appends `v` rounded to the store's precision.
    fn push(&mut self, v: f64) {
        match self {
            ValueStore::F64(vec) => vec.push(v),
            ValueStore::F32(vec) => vec.push(v as f32),
        }
    }

    fn clear_reserve(&mut self, n: usize) {
        match self {
            ValueStore::F64(vec) => {
                vec.clear();
                vec.reserve(n);
            }
            ValueStore::F32(vec) => {
                vec.clear();
                vec.reserve(n);
            }
        }
    }

    fn view(&self, start: usize, end: usize) -> ValuesView<'_> {
        match self {
            ValueStore::F64(vec) => ValuesView::F64(&vec[start..end]),
            ValueStore::F32(vec) => ValuesView::F32(&vec[start..end]),
        }
    }
}

/// A borrowed slice of stream values at either storage precision — the
/// value half of a [`StreamView`]. [`ValuesView::at`] widens f32 storage
/// to `f64` at load (an exact conversion), so consumers are
/// precision-blind: one code path, f64 arithmetic everywhere.
#[derive(Debug, Clone, Copy)]
pub enum ValuesView<'a> {
    /// 8-byte storage.
    F64(&'a [f64]),
    /// 4-byte storage, widened per element by [`ValuesView::at`].
    F32(&'a [f32]),
}

impl<'a> ValuesView<'a> {
    /// Number of values in the view.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ValuesView::F64(v) => v.len(),
            ValuesView::F32(v) => v.len(),
        }
    }

    /// Whether the view holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at position `p`, widened to `f64`.
    #[inline]
    pub fn at(&self, p: usize) -> f64 {
        match self {
            ValuesView::F64(v) => v[p],
            ValuesView::F32(v) => v[p] as f64,
        }
    }

    /// The storage precision behind the view.
    #[inline]
    pub fn precision(&self) -> StoragePrecision {
        match self {
            ValuesView::F64(_) => StoragePrecision::F64,
            ValuesView::F32(_) => StoragePrecision::F32,
        }
    }

    /// All values widened into an owned `f64` vector (tests, diagnostics).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            ValuesView::F64(v) => v.to_vec(),
            ValuesView::F32(v) => v.iter().map(|&x| x as f64).collect(),
        }
    }
}

/// The streamed slice layout of one mode: values and packed other-mode
/// indices in slice-major order, plus the stream-position → COO entry-id
/// map for consumers that keep per-entry state in COO order (e.g. the
/// P-Tucker-Cache `Pres` table).
#[derive(Debug, Clone)]
pub struct ModeStream {
    mode: usize,
    /// Number of *other* modes (`N − 1`): the per-entry stride of `others`.
    other_count: usize,
    /// `offsets[i]..offsets[i+1]` delimits slice `i`'s stream positions.
    offsets: Vec<usize>,
    /// Entry values in stream order, at the plan's storage precision.
    values: ValueStore,
    /// Packed other-mode indices: stream position `p` owns
    /// `others[p*other_count..(p+1)*other_count]`, modes ascending with the
    /// stream's own mode skipped.
    others: Vec<u32>,
    /// Stream position → COO entry id.
    entry_ids: Vec<u32>,
}

impl ModeStream {
    fn build(x: &SparseTensor, mode: usize, precision: StoragePrecision) -> Self {
        let order = x.order();
        let other_count = order - 1;
        let nnz = x.nnz();
        let dim = x.dims()[mode];
        let mut offsets = Vec::with_capacity(dim + 1);
        let mut values = ValueStore::with_capacity(precision, nnz);
        let mut others = Vec::with_capacity(nnz * other_count);
        let mut entry_ids = Vec::with_capacity(nnz);
        offsets.push(0);
        for i in 0..dim {
            for &e in x.slice(mode, i) {
                let idx = x.index(e);
                values.push(x.value(e));
                for (k, &ik) in idx.iter().enumerate() {
                    if k != mode {
                        others.push(ik as u32);
                    }
                }
                entry_ids.push(e as u32);
            }
            offsets.push(values.len());
        }
        ModeStream {
            mode,
            other_count,
            offsets,
            values,
            others,
            entry_ids,
        }
    }

    /// The mode this stream is laid out for.
    #[inline]
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Number of other modes (`N − 1`) — the per-entry stride of
    /// [`ModeStream::others`].
    #[inline]
    pub fn other_count(&self) -> usize {
        self.other_count
    }

    /// Number of slices (`Iₙ`).
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The stream positions of slice `i` (`Ω⁽ⁿ⁾ᵢ` in stream coordinates).
    #[inline]
    pub fn slice_range(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// `|Ω⁽ⁿ⁾ᵢ|` — the per-row work weight the nnz-balanced scheduler
    /// partitions by.
    #[inline]
    pub fn slice_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// All values in stream order, behind a precision-blind view.
    #[inline]
    pub fn values(&self) -> ValuesView<'_> {
        self.values.view(0, self.values.len())
    }

    /// The value at stream position `p`, widened to `f64`.
    #[inline]
    pub fn value(&self, p: usize) -> f64 {
        self.values().at(p)
    }

    /// The flat packed other-mode index storage (stride
    /// [`ModeStream::other_count`]).
    #[inline]
    pub fn others_flat(&self) -> &[u32] {
        &self.others
    }

    /// The packed other-mode indices of stream position `p` (ascending
    /// mode order, this stream's mode skipped).
    #[inline]
    pub fn others(&self, p: usize) -> &[u32] {
        &self.others[p * self.other_count..(p + 1) * self.other_count]
    }

    /// The COO entry id behind stream position `p`.
    #[inline]
    pub fn entry_id(&self, p: usize) -> usize {
        self.entry_ids[p] as usize
    }

    /// The whole stream as a [`StreamView`] (slices and positions global).
    #[inline]
    pub fn view(&self) -> StreamView<'_> {
        self.view_range(0, self.num_slices())
    }

    /// A zero-copy [`StreamView`] of slices `lo..hi` — slice `i` of the
    /// view is global slice `lo + i`, position `p` is global position
    /// `offsets[lo] + p`. This is how a resident plan serves slice-aligned
    /// windows without touching a byte.
    #[inline]
    pub fn view_range(&self, lo: usize, hi: usize) -> StreamView<'_> {
        let start = self.offsets[lo];
        let end = self.offsets[hi];
        StreamView {
            mode: self.mode,
            other_count: self.other_count,
            offsets: &self.offsets[lo..=hi],
            values: self.values.view(start, end),
            others: &self.others[start * self.other_count..end * self.other_count],
            entry_ids: &self.entry_ids[start..end],
        }
    }

    /// The largest slice's position count.
    fn max_slice_len(&self) -> usize {
        (0..self.num_slices())
            .map(|i| self.slice_len(i))
            .max()
            .unwrap_or(0)
    }
}

/// A borrowed, window-local view of (part of) one mode's stream — the one
/// shape every row sweep consumes, whatever the plan's placement.
///
/// Slices and positions are **window-local**: slice `i` of the view is
/// global slice `window.slices.start + i`, position `p` is global position
/// `window.base + p`. A view over a whole resident stream has local ==
/// global. Copyable (it is five slims slices), so sweep contexts embed it
/// by value.
#[derive(Debug, Clone, Copy)]
pub struct StreamView<'a> {
    mode: usize,
    other_count: usize,
    /// Covered slice boundaries; may carry a global bias (`offsets[0]`),
    /// which every accessor subtracts — a resident sub-view borrows the
    /// stream's global offsets, a pinned spill buffer stores them
    /// pre-localized.
    offsets: &'a [usize],
    values: ValuesView<'a>,
    others: &'a [u32],
    entry_ids: &'a [u32],
}

impl<'a> StreamView<'a> {
    /// The mode this view's stream is laid out for.
    #[inline]
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Number of other modes (`N − 1`) — the per-entry stride of
    /// [`StreamView::others_flat`].
    #[inline]
    pub fn other_count(&self) -> usize {
        self.other_count
    }

    /// Number of slices this view covers.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stream positions in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the view holds no positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The window-local positions of local slice `i`.
    #[inline]
    pub fn slice_range(&self, i: usize) -> Range<usize> {
        let bias = self.offsets[0];
        self.offsets[i] - bias..self.offsets[i + 1] - bias
    }

    /// `|Ω⁽ⁿ⁾ᵢ|` for local slice `i`.
    #[inline]
    pub fn slice_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// All values in the view, window-local, behind a precision-blind
    /// view ([`ValuesView::at`] widens f32 storage at load).
    #[inline]
    pub fn values(&self) -> ValuesView<'a> {
        self.values
    }

    /// The value at window-local position `p`, widened to `f64`.
    #[inline]
    pub fn value(&self, p: usize) -> f64 {
        self.values.at(p)
    }

    /// The flat packed other-mode index storage (stride
    /// [`StreamView::other_count`]), window-local.
    #[inline]
    pub fn others_flat(&self) -> &'a [u32] {
        self.others
    }

    /// The packed other-mode indices of window-local position `p`.
    #[inline]
    pub fn others(&self, p: usize) -> &'a [u32] {
        &self.others[p * self.other_count..(p + 1) * self.other_count]
    }

    /// The COO entry id behind window-local position `p`.
    ///
    /// # Panics
    /// On a window of a spilled plan, whose records carry no entry ids
    /// (their one reader, the Cache `Pres` table, is resident-only).
    #[inline]
    pub fn entry_id(&self, p: usize) -> usize {
        *self
            .entry_ids
            .get(p)
            .expect("entry ids exist only on resident plans") as usize
    }
}

/// Where a [`ModeStreams`] plan keeps its bulk arrays.
#[derive(Debug)]
pub enum StreamStore {
    /// Every mode's stream is fully resident — the default whenever the
    /// plan fits the memory budget.
    InMemory(Vec<ModeStream>),
    /// The bulk arrays (values and packed other-mode indices) of every
    /// mode live in a per-fit scratch file; RAM holds only the
    /// per-mode slice offsets. Consumed through [`SweepSource`] /
    /// [`SliceWindows`].
    Spilled {
        /// The unlinked per-fit scratch file holding every mode's
        /// sections.
        file: Arc<ScratchFile>,
        /// Per-mode metadata and section offsets into `file`.
        modes: Vec<SpilledModeStream>,
        /// Keeps the resident-metadata bytes visible to the RAM meter for
        /// the plan's lifetime.
        _resident: Reservation,
        /// Keeps the on-disk bytes visible to the spill meter for the
        /// plan's lifetime.
        _spill: SpillReservation,
    },
}

/// A mode's stream whose bulk arrays live in the plan's scratch file.
///
/// RAM keeps only the slice offsets (`Iₙ+1` words). Everything
/// per-position — values and packed other-mode indices — is read back
/// window-at-a-time through [`SliceWindows`].
#[derive(Debug)]
pub struct SpilledModeStream {
    mode: usize,
    other_count: usize,
    offsets: Vec<usize>,
    max_slice_len: usize,
    /// Byte offset of this mode's interleaved per-position records in the
    /// plan's scratch file.
    rec_off: u64,
}

impl SpilledModeStream {
    /// The mode this stream is laid out for.
    #[inline]
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Number of other modes (`N − 1`).
    #[inline]
    pub fn other_count(&self) -> usize {
        self.other_count
    }

    /// Number of slices (`Iₙ`).
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stream positions (`|Ω|`).
    #[inline]
    pub fn len(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Whether the stream holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The **global** stream positions of slice `i`.
    #[inline]
    pub fn slice_range(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// `|Ω⁽ⁿ⁾ᵢ|` for slice `i`.
    #[inline]
    pub fn slice_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The largest slice's position count — the irreducible window size,
    /// since windows are slice-aligned.
    #[inline]
    pub fn max_slice_len(&self) -> usize {
        self.max_slice_len
    }

    /// Number of slice-aligned windows a sweep with `cap_positions` of
    /// window capacity will take (no I/O; pure offset arithmetic).
    pub fn window_count(&self, cap_positions: usize) -> usize {
        let cap = cap_positions.max(1);
        let mut n = 0;
        let mut lo = 0;
        while lo < self.num_slices() {
            lo = window_extent(&self.offsets, lo, cap);
            n += 1;
        }
        n
    }
}

/// Bytes of one interleaved spilled-stream record: the value (8 B or 4 B
/// by storage precision) and the packed other-mode indices (4 B each).
fn record_stride(other_count: usize, precision: StoragePrecision) -> usize {
    precision.value_bytes() + 4 * other_count
}

/// Floor of the placement arena of [`ModeStreams::build_external_at`]:
/// tiny budgets still get a working build, with the floor booked against
/// them honestly.
const MIN_ARENA_BYTES: usize = 256 << 10;

/// Ceiling of the placement arena. A mode larger than the arena takes
/// more chunks, not more scans: the extra chunks travel through the
/// bucket file, so the build's I/O stays linear in `|Ω|`.
const MAX_ARENA_BYTES: usize = 64 << 20;

/// How [`ModeStreams::build_external_at`] splits its arena. A mode's
/// first `chunk` stream positions are placed straight into the arena;
/// the rest fall into `buckets` further chunks, whose records are staged
/// `stage_recs` at a time on their way to one region each of a bucket
/// file, then read back chunk by chunk.
#[derive(Clone, Copy)]
struct Placement {
    chunk: usize,
    buckets: usize,
    stage_recs: usize,
}

impl Placement {
    fn new(arena_bytes: usize, nnz: usize, stride: usize) -> Self {
        if nnz * stride <= arena_bytes {
            return Placement {
                chunk: nnz.max(1),
                buckets: 0,
                stage_recs: 0,
            };
        }
        // Half the arena stages the later chunks' records: records per
        // staging flush grow with chunk × staging bytes, which an even
        // split maximizes.
        let chunk = (arena_bytes / 2 / stride).max(1);
        let buckets = nnz.div_ceil(chunk) - 1;
        let stage_recs = (arena_bytes / 2 / staged_bytes(stride) / buckets).max(1);
        Placement {
            chunk,
            buckets,
            stage_recs,
        }
    }

    /// Transient RAM on top of the plan's resident floor: the arena, the
    /// staging slots with one fill count per bucket, and the slice
    /// cursors of the largest mode.
    fn ram_bytes(&self, stride: usize, max_dim: usize) -> usize {
        self.chunk * stride
            + self.buckets * (self.stage_recs * staged_bytes(stride) + size_of::<usize>())
            + cursor_bytes(max_dim)
    }
}

/// Bytes of the external build's slice cursors for a mode of `dim`
/// slices: one `u32` stream position each (`|Ω|` fits `u32`, as
/// [`ModeStreams`] checks).
fn cursor_bytes(dim: usize) -> usize {
    dim * size_of::<u32>()
}

/// Bytes of one bucket-file record: the record's position within its
/// chunk (4 B), then the plan record itself.
fn staged_bytes(stride: usize) -> usize {
    4 + stride
}

/// Returns the exclusive upper slice bound of the window starting at slice
/// `lo`: the longest run of whole slices whose combined positions fit
/// `cap`, but always at least one slice (a slice larger than `cap` forms a
/// singleton window — windows never split slices).
fn window_extent(offsets: &[usize], lo: usize, cap: usize) -> usize {
    let start = offsets[lo];
    let num_slices = offsets.len() - 1;
    let mut hi = lo + 1;
    while hi < num_slices && offsets[hi + 1] - start <= cap {
        hi += 1;
    }
    hi
}

/// The one writer of a spilled plan's scratch file — what
/// [`ModeStreams::build_spilled_at`] and [`ModeStreams::build_external_at`]
/// share: each mode opens with its slice offsets and a reserved section,
/// then receives its interleaved per-position records as byte runs at
/// known stream positions. The builds differ only in where a mode's
/// records come from (a resident slice walk, a counting placement).
struct SpilledPlanWriter {
    file: ScratchFile,
    nnz: usize,
    other_count: usize,
    precision: StoragePrecision,
    stride: usize,
    /// The finished modes, then the open one.
    modes: Vec<SpilledModeStream>,
}

impl SpilledPlanWriter {
    fn create(
        budget: &MemoryBudget,
        order: usize,
        nnz: usize,
        precision: StoragePrecision,
    ) -> Result<Self> {
        Ok(SpilledPlanWriter {
            file: ScratchFile::create_tracked(budget)?,
            nnz,
            other_count: order - 1,
            precision,
            stride: record_stride(order - 1, precision),
            modes: Vec::with_capacity(order),
        })
    }

    /// Opens the next mode with its complete slice offsets and reserves
    /// its file section.
    fn begin_mode(&mut self, offsets: Vec<usize>) -> Result<()> {
        debug_assert_eq!(
            offsets.last(),
            Some(&self.nnz),
            "a mode holds every entry once"
        );
        let max_slice_len = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let rec_off = self
            .file
            .reserve_region(self.nnz as u64 * self.stride as u64)?;
        self.modes.push(SpilledModeStream {
            mode: self.modes.len(),
            other_count: self.other_count,
            offsets,
            max_slice_len,
            rec_off,
        });
        Ok(())
    }

    /// Writes whole records of the open mode, the first at stream
    /// position `pos`.
    fn write_at(&self, pos: usize, records: &[u8]) -> Result<()> {
        let m = self.modes.last().expect("a mode is open");
        self.file
            .write_bytes(m.rec_off + (pos * self.stride) as u64, records)?;
        Ok(())
    }

    /// Seals the file into a plan: `resident` books the slice offsets, the
    /// file bytes go on the spill meter.
    fn finish(self, budget: &MemoryBudget, resident: Reservation) -> ModeStreams {
        let spill = budget.record_spill(self.file.len() as usize);
        ModeStreams {
            store: StreamStore::Spilled {
                file: Arc::new(self.file),
                modes: self.modes,
                _resident: resident,
                _spill: spill,
            },
            precision: self.precision,
        }
    }
}

/// Encodes one spilled record into `rec` (exactly one stride): the value
/// at the plan's storage precision — where a spilled record's value is
/// quantized — then the indices of every mode but `mode`, ascending.
fn encode_record(
    rec: &mut [u8],
    value: f64,
    index: impl IntoIterator<Item = u32>,
    mode: usize,
    precision: StoragePrecision,
) {
    let vbytes = precision.value_bytes();
    match precision {
        StoragePrecision::F64 => rec[..8].copy_from_slice(&value.to_le_bytes()),
        StoragePrecision::F32 => rec[..4].copy_from_slice(&(value as f32).to_le_bytes()),
    }
    let others = index
        .into_iter()
        .enumerate()
        .filter_map(|(k, ik)| (k != mode).then_some(ik));
    for (field, ik) in rec[vbytes..].chunks_exact_mut(4).zip(others) {
        field.copy_from_slice(&ik.to_le_bytes());
    }
}

/// The full mode-major execution plan: one stream per mode, resident or
/// spilled (see [`StreamStore`]).
#[derive(Debug)]
pub struct ModeStreams {
    store: StreamStore,
    /// Storage precision of the values (resident vectors and spilled
    /// records alike).
    precision: StoragePrecision,
}

impl ModeStreams {
    fn check_widths(x: &SparseTensor) -> Result<()> {
        Self::check_widths_dims(x.dims(), x.nnz())
    }

    fn check_widths_dims(dims: &[usize], nnz: usize) -> Result<()> {
        let lim = u32::MAX as usize;
        if nnz > lim {
            return Err(TensorError::InvalidDims(format!(
                "nnz {nnz} exceeds the streamed layout's u32 entry-id width"
            )));
        }
        if let Some(&d) = dims.iter().find(|&&d| d > lim) {
            return Err(TensorError::InvalidDims(format!(
                "dimensionality {d} exceeds the streamed layout's u32 index width"
            )));
        }
        Ok(())
    }

    /// Derives the fully resident plan from COO — `O(N·|Ω|)`, done once
    /// per fit.
    ///
    /// # Errors
    /// [`TensorError::InvalidDims`] if a dimensionality or `|Ω|` exceeds
    /// `u32::MAX` (the packed-index width).
    pub fn build(x: &SparseTensor) -> Result<Self> {
        Self::build_at(x, StoragePrecision::F64)
    }

    /// [`ModeStreams::build`] at an explicit storage precision: with
    /// [`StoragePrecision::F32`] every entry value is rounded to `f32`
    /// once here and stored in 4-byte slots; consumers widen at load.
    ///
    /// # Errors
    /// As for [`ModeStreams::build`].
    pub fn build_at(x: &SparseTensor, precision: StoragePrecision) -> Result<Self> {
        Self::check_widths(x)?;
        Ok(ModeStreams {
            store: StreamStore::InMemory(
                (0..x.order())
                    .map(|n| ModeStream::build(x, n, precision))
                    .collect(),
            ),
            precision,
        })
    }

    /// Derives the plan with its bulk arrays **spilled to a scratch
    /// file**, streaming each mode's section to disk slice-by-slice
    /// through a bounded append buffer — peak transient memory during the
    /// build is the buffer plus one mode's resident metadata, not the
    /// full `O(N·|Ω|)` plan.
    ///
    /// Each mode writes one section: the per-position data **interleaved
    /// as fixed-stride records** (`value f64 | packed other-mode u32s`),
    /// so any window of positions is one contiguous byte range — a refill
    /// is a single read, not one per array.
    ///
    /// The resident metadata (the slice offsets) is booked with
    /// [`MemoryBudget::reserve_unchecked`] — it is the irreducible floor
    /// of the out-of-core path — and the file bytes with
    /// [`MemoryBudget::record_spill`]; both guards live inside the
    /// returned plan.
    ///
    /// # Errors
    /// [`TensorError::InvalidDims`] as for [`ModeStreams::build`], or
    /// [`TensorError::Io`] if scratch-file I/O fails.
    pub fn build_spilled(x: &SparseTensor, budget: &MemoryBudget) -> Result<Self> {
        Self::build_spilled_at(x, budget, StoragePrecision::F64)
    }

    /// [`ModeStreams::build_spilled`] at an explicit storage precision:
    /// with [`StoragePrecision::F32`] the value field of every interleaved
    /// record shrinks to 4 bytes (the same rounded bits a resident f32
    /// plan stores, so the two placements stay bitwise interchangeable).
    ///
    /// # Errors
    /// As for [`ModeStreams::build_spilled`].
    pub fn build_spilled_at(
        x: &SparseTensor,
        budget: &MemoryBudget,
        precision: StoragePrecision,
    ) -> Result<Self> {
        /// Records buffered per write.
        const FLUSH: usize = 1024;
        Self::check_widths(x)?;
        let stride = record_stride(x.order() - 1, precision);
        let mut out = SpilledPlanWriter::create(budget, x.order(), x.nnz(), precision)?;
        let mut buf = vec![0u8; FLUSH * stride];
        for (mode, &dim) in x.dims().iter().enumerate() {
            let mut offsets = Vec::with_capacity(dim + 1);
            offsets.push(0);
            for i in 0..dim {
                offsets.push(offsets[i] + x.slice(mode, i).len());
            }
            out.begin_mode(offsets)?;
            let (mut pos, mut held) = (0, 0);
            for i in 0..dim {
                for &e in x.slice(mode, i) {
                    let index = x.index(e).iter().map(|&ik| ik as u32);
                    let rec = &mut buf[held * stride..(held + 1) * stride];
                    encode_record(rec, x.value(e), index, mode, precision);
                    held += 1;
                    if held == FLUSH {
                        out.write_at(pos, &buf)?;
                        (pos, held) = (pos + held, 0);
                    }
                }
            }
            out.write_at(pos, &buf[..held * stride])?;
        }
        let resident = budget.reserve_unchecked(Self::resident_bytes_for(x));
        Ok(out.finish(budget, resident))
    }

    /// Derives the spilled plan **from an on-disk COO source** by counting
    /// placement, never holding more than a budget-bounded arena of the
    /// tensor in RAM — the disk→disk build: source scratch file in, plan
    /// scratch file out.
    ///
    /// Slice keys are dense integers in `0..Iₙ` and the source is in
    /// entry-id order, so the slice-major, in-slice-ascending-COO order
    /// the resident layout has by construction can be *counted* rather
    /// than sorted:
    ///
    /// 1. one scan of the source counts every mode's slice sizes at once —
    ///    their prefix sums are the plan's slice offsets (its resident
    ///    floor);
    /// 2. per mode, the positions `0..|Ω|` are cut into arena-sized
    ///    chunks, and one source scan places the mode: a per-slice cursor
    ///    (`Iₙ` words) hands every entry its final position; entries of
    ///    the first chunk are encoded straight into the arena, and every
    ///    later entry is appended, behind its position within its chunk,
    ///    to that chunk's region of a transient bucket file through a
    ///    small staging slot;
    /// 3. the first chunk goes to the plan file in one sequential write,
    ///    then each bucket is read back once, its records are copied to
    ///    their positions in the arena, and that chunk is written too.
    ///
    /// Chunks are cut by position, not by slice, so a slice larger than
    /// the arena simply spans chunks. Per mode the build reads the source
    /// once and writes the plan once; only entries past the first chunk
    /// also cross the bucket file (written once, read once), so the I/O is
    /// linear in `|Ω|` whatever the budget. When one chunk holds a whole
    /// mode the bucket file stays empty. The arena is sized from the
    /// budget's current headroom (half of it, with a small floor so tiny
    /// budgets still make progress; half of that becomes staging slots
    /// when a mode needs several chunks); arena, slots and cursors are
    /// booked either way, the bucket file goes on the spill meter while
    /// the build runs, and every file reports its traffic to the budget's
    /// I/O counters.
    ///
    /// The output is **bitwise identical** to
    /// [`ModeStreams::build_spilled_at`] over the resident tensor at the
    /// same precision — same record bytes, same slice offsets — so a fit
    /// from a `CooScratch` source follows the exact trajectory of its
    /// in-RAM twin.
    ///
    /// # Errors
    /// [`TensorError::InvalidDims`] as for [`ModeStreams::build`], or
    /// [`TensorError::Io`] if scratch-file I/O fails.
    pub fn build_external(src: &CooScratch, budget: &MemoryBudget) -> Result<Self> {
        Self::build_external_at(src, budget, StoragePrecision::F64)
    }

    /// [`ModeStreams::build_external`] at an explicit storage precision.
    /// Values are quantized here, at plan ingest, exactly as the resident
    /// builds do — the COO source always stores full `f64` bits.
    ///
    /// # Errors
    /// As for [`ModeStreams::build_external`].
    pub fn build_external_at(
        src: &CooScratch,
        budget: &MemoryBudget,
        precision: StoragePrecision,
    ) -> Result<Self> {
        Self::check_widths_dims(src.dims(), src.nnz())?;
        let dims = src.dims();
        let nnz = src.nnz();
        let stride = record_stride(dims.len() - 1, precision);
        // Book the plan's resident floor (the slice offsets) and leave
        // room for the slice cursors *before* sizing the arena: sizing it
        // from a budget they are about to consume would overshoot the
        // tracked peak.
        let resident = budget.reserve_unchecked(Self::resident_bytes_for_dims(dims));
        let max_dim = dims.iter().copied().max().unwrap_or(0);
        let arena_bytes = (budget.available().saturating_sub(cursor_bytes(max_dim)) / 2)
            .clamp(MIN_ARENA_BYTES, MAX_ARENA_BYTES);
        let layout = Placement::new(arena_bytes, nnz, stride);
        let Placement {
            chunk,
            buckets,
            stage_recs,
        } = layout;
        let _build_guard = budget.reserve_unchecked(layout.ram_bytes(stride, max_dim));
        let seg_entries = chunk.min(COO_SEGMENT_ENTRIES);

        // Scan 1: every mode's slice sizes, prefix-summed into offsets.
        let mut offsets: Vec<Vec<usize>> = dims.iter().map(|&d| vec![0; d + 1]).collect();
        let mut cur = src.segments(seg_entries);
        while let Some(seg) = cur.next_segment()? {
            for i in 0..seg.len() {
                for (offs, &ik) in offsets.iter_mut().zip(seg.index(i)) {
                    offs[ik as usize + 1] += 1;
                }
            }
        }
        for offs in &mut offsets {
            for i in 1..offs.len() {
                offs[i] += offs[i - 1];
            }
        }

        // Chunk `b + 1`'s records live in region `b` of the bucket file,
        // which every mode reuses; it stays empty when one chunk holds a
        // whole mode.
        let staged = staged_bytes(stride);
        let bucket_file = ScratchFile::create_tracked(budget)?;
        bucket_file.reserve_region((nnz.saturating_sub(chunk) * staged) as u64)?;
        let _bucket_spill = budget.record_spill(bucket_file.len() as usize);
        let region = |b: usize, rec: usize| ((b * chunk + rec) * staged) as u64;

        let mut out = SpilledPlanWriter::create(budget, dims.len(), nnz, precision)?;
        let mut arena = vec![0u8; chunk * stride];
        let mut stage = vec![0u8; buckets * stage_recs * staged];
        let mut placed = vec![0usize; buckets];
        let mut cursor: Vec<u32> = Vec::with_capacity(max_dim);
        for (mode, offs) in offsets.into_iter().enumerate() {
            cursor.clear();
            cursor.extend(offs[..offs.len() - 1].iter().map(|&o| o as u32));
            out.begin_mode(offs)?;
            placed.fill(0);
            // One scan places the mode. It visits entries in id order, so
            // each slice's cursor hands out positions in exactly
            // build_spilled's in-slice order. The first chunk's records go
            // straight into the arena; each later one is staged for its
            // chunk's bucket behind its position within that chunk.
            let mut cur = src.segments(seg_entries);
            while let Some(seg) = cur.next_segment()? {
                for i in 0..seg.len() {
                    let index = seg.index(i);
                    let slot = &mut cursor[index[mode] as usize];
                    let pos = *slot as usize;
                    *slot += 1;
                    let (value, others) = (seg.value(i), index.iter().copied());
                    if pos < chunk {
                        let rec = &mut arena[pos * stride..][..stride];
                        encode_record(rec, value, others, mode, precision);
                        continue;
                    }
                    let b = pos / chunk - 1;
                    let slots = &mut stage[b * stage_recs * staged..][..stage_recs * staged];
                    let held = placed[b] % stage_recs;
                    let rec = &mut slots[held * staged..][..staged];
                    rec[..4].copy_from_slice(&((pos % chunk) as u32).to_le_bytes());
                    encode_record(&mut rec[4..], value, others, mode, precision);
                    placed[b] += 1;
                    if held + 1 == stage_recs {
                        bucket_file.write_bytes(region(b, placed[b] - stage_recs), slots)?;
                    }
                }
            }
            for (b, &n) in placed.iter().enumerate() {
                let held = n % stage_recs;
                if held > 0 {
                    let slots = &stage[b * stage_recs * staged..][..held * staged];
                    bucket_file.write_bytes(region(b, n - held), slots)?;
                }
            }
            out.write_at(0, &arena[..chunk.min(nnz) * stride])?;
            // Each later chunk: its bucket is read back through the
            // staging slots, every record is copied to its position, and
            // the chunk goes to the plan in one write.
            for (b, &len) in placed.iter().enumerate() {
                let mut done = 0;
                while done < len {
                    let n = (len - done).min(stage.len() / staged);
                    let buf = &mut stage[..n * staged];
                    bucket_file.read_bytes(region(b, done), buf)?;
                    for rec in buf.chunks_exact(staged) {
                        let p = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]) as usize;
                        arena[p * stride..][..stride].copy_from_slice(&rec[4..]);
                    }
                    done += n;
                }
                out.write_at((b + 1) * chunk, &arena[..len * stride])?;
            }
        }
        Ok(out.finish(budget, resident))
    }

    /// The storage precision of the plan's values.
    #[inline]
    pub fn precision(&self) -> StoragePrecision {
        self.precision
    }

    /// The resident stream for `mode`.
    ///
    /// # Panics
    /// Panics on a spilled plan — its per-position data is only reachable
    /// window-at-a-time through [`ModeStreams::sweep_source`].
    #[inline]
    pub fn mode(&self, mode: usize) -> &ModeStream {
        match &self.store {
            StreamStore::InMemory(streams) => &streams[mode],
            StreamStore::Spilled { .. } => {
                panic!("ModeStreams::mode on a spilled plan; iterate a SweepSource instead")
            }
        }
    }

    /// The spilled metadata for `mode`.
    ///
    /// # Panics
    /// Panics on an in-memory plan (use [`ModeStreams::mode`]).
    #[inline]
    pub fn spilled_mode(&self, mode: usize) -> &SpilledModeStream {
        match &self.store {
            StreamStore::Spilled { modes, .. } => &modes[mode],
            StreamStore::InMemory(_) => {
                panic!("ModeStreams::spilled_mode on an in-memory plan")
            }
        }
    }

    /// Whether the bulk arrays live in a scratch file.
    #[inline]
    pub fn is_spilled(&self) -> bool {
        matches!(self.store, StreamStore::Spilled { .. })
    }

    /// The plan's storage — for consumers that need to branch on it.
    #[inline]
    pub fn store(&self) -> &StreamStore {
        &self.store
    }

    /// The largest slice's position count across **all** modes — the
    /// irreducible window extent of any slice-aligned sweep.
    pub fn max_slice_len(&self) -> usize {
        match &self.store {
            StreamStore::InMemory(streams) => {
                streams.iter().map(|s| s.max_slice_len()).max().unwrap_or(0)
            }
            StreamStore::Spilled { modes, .. } => {
                modes.iter().map(|m| m.max_slice_len).max().unwrap_or(0)
            }
        }
    }

    /// Total stream positions per mode (`|Ω|`).
    fn total_positions(&self) -> usize {
        match &self.store {
            StreamStore::InMemory(streams) => streams.first().map_or(0, |s| s.entry_ids.len()),
            StreamStore::Spilled { modes, .. } => modes.first().map_or(0, |m| m.len()),
        }
    }

    /// The one way to sweep a mode: a [`SweepSource`] of slice-aligned
    /// windows of at most `cap_positions` stream positions each (single
    /// oversized slices become singleton windows).
    ///
    /// * On a **resident** plan, windows are zero-copy
    ///   [`StreamView`]s of the stream — with an effectively unbounded
    ///   capacity the whole sweep is one window, which is exactly the
    ///   classic in-memory fit.
    /// * On a **spilled** plan this is a [`SliceWindows`] sweep: windows
    ///   refill a pinned buffer from the scratch file; with `prefetch` a
    ///   second pinned buffer and a background worker overlap the next
    ///   window's read with the current window's compute.
    ///
    /// The source is reusable for a whole fit: [`SweepSource::rewind`]
    /// restarts it on another mode without reallocating.
    pub fn sweep_source(
        &self,
        mode: usize,
        cap_positions: usize,
        prefetch: bool,
    ) -> SweepSource<'_> {
        self.sweep_source_deep(mode, cap_positions, if prefetch { 2 } else { 1 })
    }

    /// [`ModeStreams::sweep_source`] with an explicit pipeline depth: the
    /// total number of pinned window buffers a spilled sweep keeps. Depth
    /// 1 is the fully synchronous sweep, 2 the classic double buffer, and
    /// `d > 2` a ring that keeps up to `d − 1` refills in flight behind
    /// the window being computed on — deeper pipelines absorb burstier
    /// compute/I/O imbalance at the cost of `d` pinned buffers. Resident
    /// plans serve zero-copy views whatever the depth. Budget accounting
    /// is the caller's job (a spilled sweep pins `depth` buffers).
    pub fn sweep_source_deep(
        &self,
        mode: usize,
        cap_positions: usize,
        depth: usize,
    ) -> SweepSource<'_> {
        match &self.store {
            StreamStore::InMemory(streams) => SweepSource {
                inner: SourceInner::Resident {
                    streams,
                    mode,
                    cap: cap_positions.max(1),
                    next_slice: 0,
                    start_slice: 0,
                    end_slice: streams[mode].num_slices(),
                },
            },
            StreamStore::Spilled { .. } => SweepSource {
                inner: SourceInner::Spilled(Box::new(self.windows_deep(
                    mode,
                    cap_positions,
                    depth,
                ))),
            },
        }
    }

    /// A windowed sweep over a spilled mode (the spilled arm of
    /// [`ModeStreams::sweep_source`], exposed for direct window-level
    /// consumers and tests). `prefetch` enables the second pinned buffer
    /// and the background refill worker.
    ///
    /// # Panics
    /// Panics on an in-memory plan — use [`ModeStreams::sweep_source`],
    /// which serves zero-copy views there.
    pub fn windows(&self, mode: usize, cap_positions: usize, prefetch: bool) -> SliceWindows<'_> {
        self.windows_deep(mode, cap_positions, if prefetch { 2 } else { 1 })
    }

    /// [`ModeStreams::windows`] with an explicit pipeline depth — the
    /// spilled arm of [`ModeStreams::sweep_source_deep`]. Depth is
    /// clamped to at least 1; depth ≥ 2 spawns the background refill
    /// worker and pins `depth − 1` extra buffers for the ring.
    ///
    /// # Panics
    /// Panics on an in-memory plan — use
    /// [`ModeStreams::sweep_source_deep`], which serves zero-copy views
    /// there.
    pub fn windows_deep(
        &self,
        mode: usize,
        cap_positions: usize,
        depth: usize,
    ) -> SliceWindows<'_> {
        let (file, modes) = match &self.store {
            StreamStore::Spilled { file, modes, .. } => (file, &modes[..]),
            StreamStore::InMemory(_) => {
                panic!("ModeStreams::windows on an in-memory plan")
            }
        };
        let cap = cap_positions.max(1);
        let depth = depth.max(1);
        let total = self.total_positions();
        let max_slice = modes.iter().map(|m| m.max_slice_len).max().unwrap_or(0);
        let max_slices = modes.iter().map(|m| m.num_slices()).max().unwrap_or(0);
        // A pinned buffer never needs more than the capacity, one oversized
        // slice, or the whole stream — whichever binds.
        let buf_cap = cap.max(max_slice).min(total);
        let other_count = modes.first().map_or(0, |m| m.other_count);
        let precision = self.precision;
        let pinned = || WindowBuf {
            offsets: Vec::with_capacity(max_slices + 1),
            values: ValueStore::with_capacity(precision, buf_cap),
            others: Vec::with_capacity(buf_cap * other_count),
            raw: Vec::with_capacity(
                RAW_CHUNK.min(buf_cap.max(1) * record_stride(other_count, precision)),
            ),
        };
        let (free, worker) = if depth >= 2 {
            let file = Arc::clone(file);
            (
                (1..depth).map(|_| pinned()).collect(),
                Some(Background::spawn(
                    move |(mut buf, spec): (WindowBuf, RefillSpec)| {
                        let res = refill(&file, &mut buf, &spec);
                        (buf, spec, res)
                    },
                )),
            )
        } else {
            (Vec::new(), None)
        };
        SliceWindows {
            modes,
            file: Arc::clone(file),
            mode,
            cap,
            precision,
            next_slice: 0,
            start_slice: 0,
            end_slice: modes[mode].num_slices(),
            current: pinned(),
            free,
            worker,
            inflight: VecDeque::new(),
        }
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        match &self.store {
            StreamStore::InMemory(streams) => streams.len(),
            StreamStore::Spilled { modes, .. } => modes.len(),
        }
    }

    /// Bytes the fully resident plan for `x` will occupy — computable
    /// *before* building, so callers can reserve against a memory budget
    /// first. Per mode: `|Ω|` values (8 B), `(N−1)·|Ω|` packed indices
    /// (4 B), `|Ω|` entry ids (4 B) and `Iₙ+1` offsets (8 B). Defaults to f64 values; see
    /// [`ModeStreams::bytes_for_at`].
    pub fn bytes_for(x: &SparseTensor) -> usize {
        Self::bytes_for_at(x, StoragePrecision::F64)
    }

    /// [`ModeStreams::bytes_for`] at an explicit storage precision (the
    /// value term shrinks to 4 B per position under
    /// [`StoragePrecision::F32`]).
    pub fn bytes_for_at(x: &SparseTensor, precision: StoragePrecision) -> usize {
        Self::bytes_for_dims(x.dims(), x.nnz(), precision)
    }

    /// [`ModeStreams::bytes_for_at`] from the shape alone — the size
    /// formulas need only `(dims, |Ω|)`, so placement decisions for a fit
    /// whose source is an on-disk [`CooScratch`] (no resident
    /// [`SparseTensor`] to pass) use these `_dims` variants.
    pub fn bytes_for_dims(dims: &[usize], nnz: usize, precision: StoragePrecision) -> usize {
        let order = dims.len();
        let per_mode_entries = nnz * precision.value_bytes() + (order - 1) * nnz * 4 + nnz * 4;
        let offsets: usize = dims.iter().map(|&d| (d + 1) * 8).sum();
        order * per_mode_entries + offsets
    }

    /// RAM bytes a **spilled** plan for `x` keeps resident: the per-mode
    /// slice offsets.
    pub fn resident_bytes_for(x: &SparseTensor) -> usize {
        Self::resident_bytes_for_dims(x.dims())
    }

    /// [`ModeStreams::resident_bytes_for`] from the shape alone.
    pub fn resident_bytes_for_dims(dims: &[usize]) -> usize {
        dims.iter().map(|&d| (d + 1) * 8).sum()
    }

    /// Scratch-file bytes a spilled plan for `x` writes: per mode, the
    /// interleaved per-position records (value 8 B/4 B by precision +
    /// packed other-mode indices 4 B each). Defaults to f64 values; see
    /// [`ModeStreams::spilled_bytes_for_at`].
    pub fn spilled_bytes_for(x: &SparseTensor) -> usize {
        Self::spilled_bytes_for_at(x, StoragePrecision::F64)
    }

    /// [`ModeStreams::spilled_bytes_for`] at an explicit storage
    /// precision.
    pub fn spilled_bytes_for_at(x: &SparseTensor, precision: StoragePrecision) -> usize {
        Self::spilled_bytes_for_dims(x.dims(), x.nnz(), precision)
    }

    /// [`ModeStreams::spilled_bytes_for_at`] from the shape alone.
    pub fn spilled_bytes_for_dims(
        dims: &[usize],
        nnz: usize,
        precision: StoragePrecision,
    ) -> usize {
        dims.len() * nnz * Self::spilled_record_bytes(dims.len(), precision)
    }

    /// Bytes one stream position of a spilled order-`order` plan occupies
    /// — its file record, and its slot in a pinned window buffer: the
    /// value at `precision` plus the packed other-mode indices. What the
    /// fit driver sizes its windows by.
    pub fn spilled_record_bytes(order: usize, precision: StoragePrecision) -> usize {
        record_stride(order - 1, precision)
    }
}

/// One slice-aligned window of a mode sweep.
#[derive(Debug)]
pub struct Window<'a> {
    /// The global slice range this window covers.
    pub slices: Range<usize>,
    /// Global stream position of the window's first entry (window-local
    /// position `p` ↔ global position `base + p`).
    pub base: usize,
    /// The window's data: slices and positions are window-local.
    pub stream: StreamView<'a>,
}

/// A lending iterator of slice-aligned windows over one mode of a plan —
/// resident (zero-copy views) or spilled (pinned-buffer refills) — so the
/// fit driver is a single loop over either placement.
///
/// Create with [`ModeStreams::sweep_source`]; rewind with
/// [`SweepSource::rewind`] to sweep another mode with the same buffers.
#[derive(Debug)]
pub struct SweepSource<'a> {
    inner: SourceInner<'a>,
}

#[derive(Debug)]
enum SourceInner<'a> {
    Resident {
        streams: &'a [ModeStream],
        mode: usize,
        cap: usize,
        next_slice: usize,
        start_slice: usize,
        end_slice: usize,
    },
    // Boxed: the sweeper (pinned-buffer headers, prefetch plumbing) is an
    // order of magnitude larger than the resident cursor.
    Spilled(Box<SliceWindows<'a>>),
}

impl<'a> SweepSource<'a> {
    /// Whether windows are refilled from a scratch file (`true`) or served
    /// as zero-copy views of a resident plan (`false`).
    pub fn is_spilled(&self) -> bool {
        matches!(self.inner, SourceInner::Spilled(_))
    }

    /// Restarts the sweep on `mode`'s first window, reusing any pinned
    /// buffers — how one source serves every mode of a whole fit. Clears
    /// any slice restriction set by [`SweepSource::rewind_range`].
    pub fn rewind(&mut self, mode: usize) {
        match &mut self.inner {
            SourceInner::Resident {
                streams,
                mode: m,
                next_slice,
                start_slice,
                end_slice,
                ..
            } => {
                assert!(mode < streams.len(), "mode {mode} out of range");
                *m = mode;
                *next_slice = 0;
                *start_slice = 0;
                *end_slice = streams[mode].num_slices();
            }
            SourceInner::Spilled(w) => w.rewind(mode),
        }
    }

    /// Restarts the sweep on `mode`, restricted to the slice subrange
    /// `slices` — the shard of a distributed row-parallel fit. Windows
    /// keep their **global** slice ids and stream bases, so window
    /// consumers are restriction-oblivious; an empty range yields no
    /// windows at all. The restriction holds until the next
    /// [`SweepSource::rewind`] or `rewind_range`.
    ///
    /// # Panics
    /// If `mode` is out of range, `slices` ends past the mode's slice
    /// count, or `slices.start > slices.end`.
    pub fn rewind_range(&mut self, mode: usize, slices: std::ops::Range<usize>) {
        match &mut self.inner {
            SourceInner::Resident {
                streams,
                mode: m,
                next_slice,
                start_slice,
                end_slice,
                ..
            } => {
                assert!(mode < streams.len(), "mode {mode} out of range");
                let num = streams[mode].num_slices();
                assert!(
                    slices.start <= slices.end && slices.end <= num,
                    "slice range {slices:?} out of bounds for {num} slices"
                );
                *m = mode;
                *next_slice = slices.start;
                *start_slice = slices.start;
                *end_slice = slices.end;
            }
            SourceInner::Spilled(w) => w.rewind_range(mode, slices),
        }
    }

    /// Rewinds to the current mode's first window (of the current slice
    /// restriction, if any).
    pub fn reset(&mut self) {
        match &mut self.inner {
            SourceInner::Resident {
                next_slice,
                start_slice,
                ..
            } => *next_slice = *start_slice,
            SourceInner::Spilled(w) => w.reset(),
        }
    }

    /// The window capacity in stream positions.
    pub fn capacity(&self) -> usize {
        match &self.inner {
            SourceInner::Resident { cap, .. } => *cap,
            SourceInner::Spilled(w) => w.capacity(),
        }
    }

    /// Stream positions of one full mode sweep — every mode's stream holds
    /// each observed entry once, so this is `|Ω|`, whatever the current
    /// mode or slice restriction. Consumers that partition a sweep by
    /// global position (window-independent blocks) cut this range.
    pub fn positions(&self) -> usize {
        match &self.inner {
            SourceInner::Resident { streams, .. } => {
                streams.first().map_or(0, |s| s.entry_ids.len())
            }
            SourceInner::Spilled(w) => w.modes.first().map_or(0, |m| m.len()),
        }
    }

    /// Number of windows a full sweep of the current mode (restricted to
    /// the current slice subrange, if any) takes (no I/O).
    pub fn window_count(&self) -> usize {
        match &self.inner {
            SourceInner::Resident {
                streams,
                mode,
                cap,
                start_slice,
                end_slice,
                ..
            } => {
                let s = &streams[*mode];
                let mut n = 0;
                let mut cursor = *start_slice;
                while resident_step(s, *cap, &mut cursor, *end_slice).is_some() {
                    n += 1;
                }
                n
            }
            SourceInner::Spilled(w) => w.window_count(),
        }
    }

    /// Yields the next window, or `None` when every slice of the current
    /// mode has been covered.
    ///
    /// # Errors
    /// [`TensorError::Io`] if a spilled refill fails (a resident source
    /// never errors).
    pub fn next_window(&mut self) -> Result<Option<Window<'_>>> {
        match &mut self.inner {
            SourceInner::Resident {
                streams,
                mode,
                cap,
                next_slice,
                end_slice,
                ..
            } => {
                let s = &streams[*mode];
                Ok(
                    resident_step(s, *cap, next_slice, *end_slice).map(|(lo, hi)| Window {
                        slices: lo..hi,
                        base: s.offsets[lo],
                        stream: s.view_range(lo, hi),
                    }),
                )
            }
            SourceInner::Spilled(w) => w.next_window(),
        }
    }
}

/// The one copy of the resident sweep's cursor rule: the slice extent of
/// the window starting at `*cursor` (or `None` at the sweep's `end`
/// slice bound), advancing the cursor — shared by `next_window` and
/// `window_count`, mirroring how the spilled arm centralizes the same
/// stepping in `SliceWindows::spec`.
fn resident_step(
    s: &ModeStream,
    cap: usize,
    cursor: &mut usize,
    end: usize,
) -> Option<(usize, usize)> {
    if *cursor >= end {
        return None;
    }
    let lo = *cursor;
    let hi = window_extent(&s.offsets[..=end], lo, cap);
    *cursor = hi;
    Some((lo, hi))
}

/// One pinned refill buffer of a spilled sweep: the bulk arrays of the
/// window it last held, plus its localized slice offsets.
#[derive(Debug)]
struct WindowBuf {
    offsets: Vec<usize>,
    /// Values at the plan's storage precision — a spilled f32 plan keeps
    /// its pinned windows in 4-byte slots too, so the sweep's resident
    /// footprint and memory traffic match the precision's promise.
    values: ValueStore,
    others: Vec<u32>,
    /// Fixed-size staging chunk for the interleaved record read — the
    /// refill reads up to [`RAW_CHUNK`] bytes per syscall and parses them
    /// into the typed arrays, so window size never grows this buffer.
    raw: Vec<u8>,
}

/// Everything a refill needs, by value, so the background worker borrows
/// nothing: the window's slice range, its global position range and the
/// mode's section offsets in the scratch file.
#[derive(Debug, Clone, Copy)]
struct RefillSpec {
    lo: usize,
    hi: usize,
    start: usize,
    len: usize,
    other_count: usize,
    precision: StoragePrecision,
    rec_off: u64,
}

/// Bytes of interleaved records read per refill syscall (a multiple of
/// any record stride is not required — chunks are cut at record
/// boundaries).
const RAW_CHUNK: usize = 64 << 10;

/// Reads one window's bulk arrays into `buf` (offsets are the main
/// thread's job — they come from resident metadata, not the file). Shared
/// by the synchronous path and the prefetch worker, so both fill buffers
/// identically.
///
/// The window is one contiguous range of interleaved records, so the read
/// is a single sequential pass ([`RAW_CHUNK`]-sized syscalls through a
/// fixed staging buffer) parsed into the typed arrays — one read per
/// window where the sectioned layout needed three.
fn refill(file: &ScratchFile, buf: &mut WindowBuf, spec: &RefillSpec) -> std::io::Result<()> {
    let vbytes = spec.precision.value_bytes();
    let stride = record_stride(spec.other_count, spec.precision);
    buf.values.clear_reserve(spec.len);
    buf.others.clear();
    buf.others.reserve(spec.len * spec.other_count);
    let recs_per_chunk = (RAW_CHUNK / stride).max(1);
    let mut done = 0usize;
    while done < spec.len {
        let n = recs_per_chunk.min(spec.len - done);
        buf.raw.resize(n * stride, 0);
        file.read_bytes(
            spec.rec_off + (spec.start + done) as u64 * stride as u64,
            &mut buf.raw,
        )?;
        for rec in buf.raw.chunks_exact(stride) {
            // The value field is stored at the plan's precision; keep it
            // there — a pinned f32 window stays 4 bytes per value and the
            // consumer widens at load, exactly like a resident f32 plan.
            match &mut buf.values {
                ValueStore::F64(vec) => vec.push(f64::from_le_bytes(
                    rec[..8].try_into().expect("8-byte field"),
                )),
                ValueStore::F32(vec) => vec.push(f32::from_le_bytes(
                    rec[..4].try_into().expect("4-byte field"),
                )),
            }
            buf.others.extend(
                rec[vbytes..]
                    .chunks_exact(4)
                    .map(|f| u32::from_le_bytes(f.try_into().expect("4-byte field"))),
            );
        }
        done += n;
    }
    Ok(())
}

/// The spilled arm of [`SweepSource`]: slice-aligned windows refilled from
/// the plan's scratch file into pinned buffers.
///
/// At depth 1, each [`SliceWindows::next_window`] call reads the window
/// synchronously into one pinned buffer. At depth `d ≥ 2` (see
/// [`ModeStreams::windows_deep`]), `d − 1` extra pinned buffers and one
/// [`ptucker_sched::Background`] worker form a **prefetch ring**:
/// presenting window `w` tops the ring up with reads for windows
/// `w+1 … w+d−1` into the idle buffers, so scratch-file I/O runs
/// concurrently with whatever the caller computes — and a burst of slow
/// windows drains up to `d − 1` banked reads before the compute ever
/// stalls on the disk. The worker serves requests FIFO, one at a time, so
/// deeper rings add buffering, never read reordering. At most `d` windows
/// are ever resident; buffers are allocated once and reused across
/// windows and modes.
#[derive(Debug)]
pub struct SliceWindows<'a> {
    modes: &'a [SpilledModeStream],
    file: Arc<ScratchFile>,
    mode: usize,
    cap: usize,
    /// The plan's storage precision (sizes the value field of every
    /// refill's record parse).
    precision: StoragePrecision,
    /// First slice of the next window to *present*.
    next_slice: usize,
    /// First slice of the current sweep — 0 for a full-mode sweep, the
    /// shard's lower bound under [`SliceWindows::rewind_range`].
    start_slice: usize,
    /// Exclusive upper slice bound of the current sweep — the mode's
    /// slice count for a full-mode sweep.
    end_slice: usize,
    /// The buffer backing the currently presented window.
    current: WindowBuf,
    /// Idle ring buffers awaiting a refill request (depth ≥ 2 only;
    /// buffers migrate between here and the worker's queue).
    free: Vec<WindowBuf>,
    /// The refill worker (depth ≥ 2 only).
    #[allow(clippy::type_complexity)]
    worker:
        Option<Background<(WindowBuf, RefillSpec), (WindowBuf, RefillSpec, std::io::Result<()>)>>,
    /// Specs of the refills in flight on the worker, oldest first — the
    /// front is always the window due to be presented next.
    inflight: VecDeque<RefillSpec>,
}

impl<'a> SliceWindows<'a> {
    /// The spilled metadata of the mode currently being swept.
    #[inline]
    fn sp(&self) -> &'a SpilledModeStream {
        &self.modes[self.mode]
    }

    /// The refill spec of the window starting at slice `lo` of the current
    /// mode.
    fn spec(&self, lo: usize) -> RefillSpec {
        let sp = self.sp();
        let hi = window_extent(&sp.offsets[..=self.end_slice], lo, self.cap);
        let start = sp.offsets[lo];
        RefillSpec {
            lo,
            hi,
            start,
            len: sp.offsets[hi] - start,
            other_count: sp.other_count,
            precision: self.precision,
            rec_off: sp.rec_off,
        }
    }

    /// Joins every in-flight prefetch, discarding their data but
    /// recovering their buffers. Called before any cursor movement that
    /// invalidates the queued reads (rewind/reset) and on
    /// drop-by-scope.
    fn drain(&mut self) {
        while self.inflight.pop_front().is_some() {
            let worker = self.worker.as_ref().expect("inflight implies a worker");
            if let Some((buf, _, _)) = worker.recv() {
                self.free.push(buf);
            }
        }
    }

    /// Loads the next window into a pinned buffer, or returns `None` when
    /// every slice has been covered. In prefetch mode the data was
    /// (usually) already read by the background worker; presenting the
    /// window queues the read of the one after it.
    ///
    /// # Errors
    /// [`TensorError::Io`] if reading the scratch file fails.
    pub fn next_window(&mut self) -> Result<Option<Window<'_>>> {
        let sp = self.sp();
        let num = self.end_slice;
        if self.next_slice >= num {
            debug_assert!(
                self.inflight.is_empty(),
                "prefetch queued past the sweep end"
            );
            return Ok(None);
        }
        let spec = self.spec(self.next_slice);
        match self.inflight.pop_front() {
            Some(queued) => {
                // The cursor only moves through this method between
                // rewinds, so the oldest queued window must be the one due
                // next.
                debug_assert_eq!((queued.lo, queued.hi), (spec.lo, spec.hi));
                let worker = self.worker.as_ref().expect("inflight implies a worker");
                let (buf, _, res) = worker.recv().expect("prefetch worker died");
                if let Err(e) = res {
                    // Recover the remaining ring buffers so a caller that
                    // survives the error can rewind and sweep again.
                    self.free.push(buf);
                    self.drain();
                    return Err(e.into());
                }
                self.free.push(std::mem::replace(&mut self.current, buf));
            }
            None => refill(&self.file, &mut self.current, &spec).map_err(TensorError::from)?,
        }
        self.current.offsets.clear();
        self.current.offsets.extend(
            sp.offsets[spec.lo..=spec.hi]
                .iter()
                .map(|&o| o - spec.start),
        );
        self.next_slice = spec.hi;
        // Top up the ring: queue reads for the windows beyond the deepest
        // one already in flight, one per idle buffer, while the caller
        // computes on this window.
        if let Some(worker) = &self.worker {
            let mut cursor = self.inflight.back().map_or(self.next_slice, |s| s.hi);
            while cursor < num && !self.free.is_empty() {
                let next_spec = self.spec(cursor);
                let buf = self.free.pop().expect("checked non-empty");
                match worker.submit((buf, next_spec)) {
                    Ok(()) => {
                        self.inflight.push_back(next_spec);
                        cursor = next_spec.hi;
                    }
                    Err((buf, _)) => {
                        self.free.push(buf);
                        break;
                    }
                }
            }
        }
        Ok(Some(Window {
            slices: spec.lo..spec.hi,
            base: spec.start,
            stream: StreamView {
                mode: self.mode,
                other_count: spec.other_count,
                offsets: &self.current.offsets,
                values: self.current.values.view(0, self.current.values.len()),
                others: &self.current.others,
                entry_ids: &[],
            },
        }))
    }

    /// Restarts the sweep on `mode`'s first window, reusing the pinned
    /// buffers — how one sweeper serves every mode of a whole fit. Clears
    /// any slice restriction set by [`SliceWindows::rewind_range`].
    pub fn rewind(&mut self, mode: usize) {
        assert!(mode < self.modes.len(), "mode {mode} out of range");
        self.drain();
        self.mode = mode;
        self.next_slice = 0;
        self.start_slice = 0;
        self.end_slice = self.modes[mode].num_slices();
    }

    /// Restarts the sweep on `mode` restricted to the slice subrange
    /// `slices` — the spilled arm of [`SweepSource::rewind_range`].
    /// Windows keep global slice ids and stream bases; the restriction
    /// holds until the next `rewind`/`rewind_range`.
    ///
    /// # Panics
    /// If `mode` or `slices` is out of bounds.
    pub fn rewind_range(&mut self, mode: usize, slices: std::ops::Range<usize>) {
        assert!(mode < self.modes.len(), "mode {mode} out of range");
        let num = self.modes[mode].num_slices();
        assert!(
            slices.start <= slices.end && slices.end <= num,
            "slice range {slices:?} out of bounds for {num} slices"
        );
        self.drain();
        self.mode = mode;
        self.next_slice = slices.start;
        self.start_slice = slices.start;
        self.end_slice = slices.end;
    }

    /// Rewinds to the current mode's first window (of the current slice
    /// restriction, if any; the pinned buffers are kept).
    pub fn reset(&mut self) {
        self.drain();
        self.next_slice = self.start_slice;
    }

    /// Number of windows a full sweep of the current mode (restricted to
    /// the current slice subrange, if any) takes (no I/O).
    pub fn window_count(&self) -> usize {
        let sp = self.sp();
        let offsets = &sp.offsets[..=self.end_slice];
        let mut n = 0;
        let mut lo = self.start_slice;
        while lo < self.end_slice {
            lo = window_extent(offsets, lo, self.cap);
            n += 1;
        }
        n
    }

    /// The window capacity in stream positions.
    pub fn capacity(&self) -> usize {
        self.cap
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
    fn stream_matches_coo_slice_order() {
        let x = sample();
        let plan = ModeStreams::build(&x).unwrap();
        for n in 0..x.order() {
            let s = plan.mode(n);
            assert_eq!(s.mode(), n);
            assert_eq!(s.num_slices(), x.dims()[n]);
            assert_eq!(s.other_count(), x.order() - 1);
            for i in 0..x.dims()[n] {
                let range = s.slice_range(i);
                assert_eq!(range.len(), x.slice(n, i).len());
                assert_eq!(s.slice_len(i), x.slice_len(n, i));
                for (p, &e) in range.zip(x.slice(n, i)) {
                    assert_eq!(s.entry_id(p), e, "in-slice COO order preserved");
                    assert_eq!(s.value(p), x.value(e));
                    let full = x.index(e);
                    let mut slot = 0;
                    for (k, &ik) in full.iter().enumerate() {
                        if k == n {
                            continue;
                        }
                        assert_eq!(s.others(p)[slot] as usize, ik, "mode {n} pos {p}");
                        slot += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn entry_ids_are_a_permutation() {
        let x = sample();
        let plan = ModeStreams::build(&x).unwrap();
        for n in 0..x.order() {
            let s = plan.mode(n);
            let mut seen = vec![false; x.nnz()];
            for p in 0..x.nnz() {
                let e = s.entry_id(p);
                assert!(!seen[e]);
                seen[e] = true;
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn bytes_estimate_is_positive_and_scales_with_order() {
        let x = sample();
        let b = ModeStreams::bytes_for(&x);
        // 3 modes × (4·8 values + 2·4·4 packed indices + 4·4 entry ids) B
        // + offsets.
        assert_eq!(b, 3 * (32 + 32 + 16) + (4 + 3 + 3) * 8);
    }

    #[test]
    fn empty_tensor_streams() {
        let x = SparseTensor::new(vec![3, 3], vec![]).unwrap();
        let plan = ModeStreams::build(&x).unwrap();
        for n in 0..2 {
            let s = plan.mode(n);
            for i in 0..3 {
                assert!(s.slice_range(i).is_empty());
            }
        }
    }

    /// A resident sweep with unbounded capacity is exactly one zero-copy
    /// window per mode whose view is position-for-position the stream —
    /// the unified fit driver's in-memory case.
    #[test]
    fn resident_sweep_source_is_one_full_window() {
        let x = sample();
        let plan = ModeStreams::build(&x).unwrap();
        let mut source = plan.sweep_source(0, usize::MAX, false);
        assert!(!source.is_spilled());
        for n in 0..x.order() {
            source.rewind(n);
            assert_eq!(source.window_count(), 1);
            let w = source.next_window().unwrap().unwrap();
            assert_eq!(w.slices, 0..x.dims()[n]);
            assert_eq!(w.base, 0);
            let full = plan.mode(n);
            assert_eq!(w.stream.len(), x.nnz());
            assert_eq!(w.stream.num_slices(), full.num_slices());
            for i in 0..full.num_slices() {
                assert_eq!(w.stream.slice_range(i), full.slice_range(i));
            }
            for p in 0..x.nnz() {
                assert_eq!(w.stream.value(p), full.value(p));
                assert_eq!(w.stream.entry_id(p), full.entry_id(p));
                assert_eq!(w.stream.others(p), full.others(p));
            }
            assert!(source.next_window().unwrap().is_none());
        }
    }

    /// A capacity-bounded resident sweep yields slice-aligned sub-views
    /// matching the stream.
    #[test]
    fn resident_sweep_source_windows_are_zero_copy_subviews() {
        let x = sample();
        let plan = ModeStreams::build(&x).unwrap();
        for n in 0..x.order() {
            let full = plan.mode(n);
            let mut source = plan.sweep_source(n, 1, false);
            let mut covered = 0;
            let mut next_slice = 0;
            while let Some(w) = source.next_window().unwrap() {
                assert_eq!(w.slices.start, next_slice);
                next_slice = w.slices.end;
                assert_eq!(w.base, full.slice_range(w.slices.start).start);
                for (local_i, i) in w.slices.clone().enumerate() {
                    let local = w.stream.slice_range(local_i);
                    assert_eq!(local.len(), full.slice_len(i));
                    for p in local {
                        let g = w.base + p;
                        assert_eq!(w.stream.value(p), full.value(g));
                        assert_eq!(w.stream.entry_id(p), full.entry_id(g));
                        assert_eq!(w.stream.others(p), full.others(g));
                    }
                }
                covered += w.stream.len();
            }
            assert_eq!(next_slice, x.dims()[n]);
            assert_eq!(covered, x.nnz());
        }
    }

    /// A range-restricted sweep (the sharded fit's per-worker row
    /// ownership) yields exactly the owned slices — windows keep their
    /// global slice ids and stream bases — for resident and spilled
    /// placement alike, and a plain `rewind` clears the restriction.
    #[test]
    fn rewind_range_restricts_the_sweep() {
        let x = sample();
        let resident = ModeStreams::build(&x).unwrap();
        let spilled = ModeStreams::build_spilled(&x, &MemoryBudget::unlimited()).unwrap();
        for (plan, tag) in [(&resident, "resident"), (&spilled, "spilled")] {
            for n in 0..x.order() {
                let full = resident.mode(n);
                let dim = x.dims()[n];
                for lo in 0..=dim {
                    for hi in lo..=dim {
                        let mut source = plan.sweep_source(n, 1, false);
                        source.rewind_range(n, lo..hi);
                        let mut next_slice = lo;
                        let mut windows = 0;
                        while let Some(w) = source.next_window().unwrap() {
                            assert_eq!(w.slices.start, next_slice, "{tag} mode {n}");
                            next_slice = w.slices.end;
                            assert!(w.slices.end <= hi, "{tag}: window past the range");
                            assert_eq!(w.base, full.slice_range(w.slices.start).start);
                            for (local_i, i) in w.slices.clone().enumerate() {
                                let local = w.stream.slice_range(local_i);
                                assert_eq!(local.len(), full.slice_len(i), "{tag}");
                                for p in local {
                                    let g = w.base + p;
                                    assert_eq!(w.stream.value(p), full.value(g), "{tag}");
                                    assert_eq!(w.stream.others(p), full.others(g), "{tag}");
                                }
                            }
                            windows += 1;
                        }
                        assert_eq!(next_slice, if lo == hi { lo } else { hi }, "{tag}");
                        assert_eq!(windows, source.window_count(), "{tag} window_count");
                        if lo == hi {
                            assert_eq!(windows, 0, "{tag}: empty range must be silent");
                        }
                        // A plain rewind clears the restriction entirely.
                        source.rewind(n);
                        let mut covered = 0;
                        while let Some(w) = source.next_window().unwrap() {
                            covered += w.stream.len();
                        }
                        assert_eq!(
                            covered,
                            x.nnz(),
                            "{tag}: rewind must restore the full sweep"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spilled_windows_reproduce_resident_streams() {
        let x = sample();
        let budget = MemoryBudget::unlimited();
        let resident = ModeStreams::build(&x).unwrap();
        let spilled = ModeStreams::build_spilled(&x, &budget).unwrap();
        assert!(spilled.is_spilled() && !resident.is_spilled());
        assert_eq!(budget.spilled_in_use(), ModeStreams::spilled_bytes_for(&x));
        assert_eq!(budget.in_use(), ModeStreams::resident_bytes_for(&x));
        for prefetch in [false, true] {
            for n in 0..x.order() {
                let full = resident.mode(n);
                let sp = spilled.spilled_mode(n);
                assert_eq!(sp.len(), x.nnz());
                // Tiny capacity: every window is exactly one slice.
                let mut w = spilled.windows(n, 1, prefetch);
                assert_eq!(w.window_count(), x.dims()[n]);
                let mut covered = 0;
                while let Some(win) = w.next_window().unwrap() {
                    assert_eq!(win.slices.len(), 1);
                    let i = win.slices.start;
                    assert_eq!(win.base, full.slice_range(i).start);
                    let local = win.stream.slice_range(0);
                    assert_eq!(local.len(), full.slice_len(i));
                    for p in local {
                        let g = win.base + p;
                        assert_eq!(win.stream.value(p), full.value(g));
                        assert_eq!(win.stream.others(p), full.others(g));
                    }
                    covered += win.stream.len();
                }
                assert_eq!(covered, x.nnz(), "prefetch={prefetch}");
            }
        }
    }

    #[test]
    fn oversized_slice_becomes_singleton_window() {
        // Mode 0 slice 0 holds 3 entries — above a capacity of 2 — and must
        // still be taken whole (windows never split slices).
        let x = SparseTensor::new(
            vec![2, 4],
            vec![
                (vec![0, 0], 1.0),
                (vec![0, 1], 2.0),
                (vec![0, 3], 3.0),
                (vec![1, 2], 4.0),
            ],
        )
        .unwrap();
        let plan = ModeStreams::build_spilled(&x, &MemoryBudget::unlimited()).unwrap();
        let mut w = plan.windows(0, 2, false);
        let first = w.next_window().unwrap().unwrap();
        assert_eq!(first.slices, 0..1);
        assert_eq!(first.stream.values().to_f64_vec(), vec![1.0, 2.0, 3.0]);
        let second = w.next_window().unwrap().unwrap();
        assert_eq!(second.slices, 1..2);
        assert_eq!(second.stream.values().to_f64_vec(), vec![4.0]);
        assert!(w.next_window().unwrap().is_none());
        // Empty slices merge into neighbours under a large capacity.
        let mut w = plan.windows(1, 100, false);
        let all = w.next_window().unwrap().unwrap();
        assert_eq!(all.slices, 0..4);
        assert_eq!(all.stream.num_slices(), 4);
        assert!(w.next_window().unwrap().is_none());
    }

    #[test]
    fn window_reset_replays_the_sweep() {
        let x = sample();
        let plan = ModeStreams::build_spilled(&x, &MemoryBudget::unlimited()).unwrap();
        for prefetch in [false, true] {
            let mut w = plan.windows(0, 2, prefetch);
            let first: Vec<f64> = w
                .next_window()
                .unwrap()
                .unwrap()
                .stream
                .values()
                .to_f64_vec();
            while w.next_window().unwrap().is_some() {}
            w.reset();
            let again: Vec<f64> = w
                .next_window()
                .unwrap()
                .unwrap()
                .stream
                .values()
                .to_f64_vec();
            assert_eq!(first, again);
        }
    }

    /// Rewinding mid-sweep with a prefetch in flight must discard the
    /// queued window cleanly and replay the new mode from its start.
    #[test]
    fn prefetch_survives_midsweep_rewind() {
        let x = sample();
        let plan = ModeStreams::build_spilled(&x, &MemoryBudget::unlimited()).unwrap();
        let resident = ModeStreams::build(&x).unwrap();
        let mut w = plan.windows(0, 1, true);
        let _ = w.next_window().unwrap().unwrap(); // queues slice 1's read
        w.rewind(1);
        let full = resident.mode(1);
        let mut covered = 0;
        while let Some(win) = w.next_window().unwrap() {
            for p in 0..win.stream.len() {
                let g = win.base + p;
                assert_eq!(win.stream.value(p), full.value(g));
                assert_eq!(win.stream.others(p), full.others(g));
            }
            covered += win.stream.len();
        }
        assert_eq!(covered, x.nnz());
    }

    #[test]
    fn spilled_empty_tensor() {
        let x = SparseTensor::new(vec![3, 3], vec![]).unwrap();
        let plan = ModeStreams::build_spilled(&x, &MemoryBudget::unlimited()).unwrap();
        let mut w = plan.windows(0, 10, false);
        let win = w.next_window().unwrap().unwrap();
        assert_eq!(win.slices, 0..3);
        assert!(win.stream.values().is_empty());
        assert!(w.next_window().unwrap().is_none());
    }

    #[test]
    fn order_one_tensor_has_empty_others() {
        let x = SparseTensor::new(vec![4], vec![(vec![1], 2.0), (vec![3], 5.0)]).unwrap();
        let plan = ModeStreams::build(&x).unwrap();
        let s = plan.mode(0);
        assert_eq!(s.other_count(), 0);
        assert_eq!(s.values().to_f64_vec(), vec![2.0, 5.0]);
        assert!(s.others(0).is_empty());
        assert!(s.others(1).is_empty());
    }

    /// Off-f32-grid values: used by the precision tests so the one-time
    /// ingest rounding is observable.
    fn off_grid_sample() -> SparseTensor {
        SparseTensor::new(
            vec![3, 2, 2],
            vec![
                (vec![0, 0, 0], 0.1),
                (vec![0, 1, 1], 1.0e-7),
                (vec![1, 0, 1], -0.3),
                (vec![2, 1, 0], 1234.5678),
            ],
        )
        .unwrap()
    }

    /// An f32 plan rounds each value exactly once on ingest — every
    /// widened value equals `quantize(coo value)` bitwise — and the
    /// resident and spilled placements hold identical bits (the spilled
    /// 4-byte record field round-trips the same f32).
    #[test]
    fn f32_plans_quantize_once_and_match_across_placements() {
        let x = off_grid_sample();
        let q = StoragePrecision::F32;
        let resident = ModeStreams::build_at(&x, q).unwrap();
        let spilled = ModeStreams::build_spilled_at(&x, &MemoryBudget::unlimited(), q).unwrap();
        assert_eq!(resident.precision(), q);
        assert_eq!(spilled.precision(), q);
        for n in 0..x.order() {
            let full = resident.mode(n);
            assert_eq!(full.values().precision(), q);
            for p in 0..x.nnz() {
                let e = full.entry_id(p);
                assert_eq!(
                    full.value(p).to_bits(),
                    q.quantize(x.value(e)).to_bits(),
                    "one rounding, at ingest"
                );
            }
            for cap in [1, 2, usize::MAX] {
                let mut w = spilled.windows(n, cap, false);
                while let Some(win) = w.next_window().unwrap() {
                    assert_eq!(win.stream.values().precision(), q);
                    for p in 0..win.stream.len() {
                        let g = win.base + p;
                        assert_eq!(
                            win.stream.value(p).to_bits(),
                            full.value(g).to_bits(),
                            "placement-bitwise within f32"
                        );
                    }
                }
            }
        }
    }

    /// A denser random-ish tensor that forces multiple sorted runs and
    /// multi-record merge buffers when built with a tiny budget.
    fn bigger_sample() -> SparseTensor {
        let dims = vec![17, 11, 7];
        let mut entries = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..500 {
            let i = (next() as usize) % dims[0];
            let j = (next() as usize) % dims[1];
            let k = (next() as usize) % dims[2];
            let v = (next() as f64 / u32::MAX as f64) * 2.0 - 1.0;
            entries.push((vec![i, j, k], v));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        SparseTensor::new(dims, entries).unwrap()
    }

    /// Asserts two spilled plans are byte-identical files and present
    /// identical sweeps: same offsets, value bits and packed indices.
    fn assert_spilled_plans_bitwise(a: &ModeStreams, b: &ModeStreams, nnz: usize, tag: &str) {
        assert_eq!(a.order(), b.order(), "{tag}");
        let file_bytes = |plan: &ModeStreams| match plan.store() {
            StreamStore::Spilled { file, .. } => {
                let mut bytes = vec![0u8; file.len() as usize];
                file.read_bytes(0, &mut bytes).unwrap();
                bytes
            }
            StreamStore::InMemory(_) => panic!("{tag}: plan is not spilled"),
        };
        assert!(file_bytes(a) == file_bytes(b), "{tag}: plan files differ");
        for n in 0..a.order() {
            let sa = a.spilled_mode(n);
            let sb = b.spilled_mode(n);
            assert_eq!(sa.offsets, sb.offsets, "{tag} mode {n} offsets");
            assert_eq!(sa.max_slice_len(), sb.max_slice_len(), "{tag} mode {n}");
            let mut wa = a.windows(n, 3, false);
            let mut wb = b.windows(n, 3, false);
            let mut covered = 0;
            loop {
                match (wa.next_window().unwrap(), wb.next_window().unwrap()) {
                    (Some(x), Some(y)) => {
                        assert_eq!(x.slices, y.slices, "{tag} mode {n}");
                        assert_eq!(x.base, y.base, "{tag} mode {n}");
                        for p in 0..x.stream.len() {
                            assert_eq!(
                                x.stream.value(p).to_bits(),
                                y.stream.value(p).to_bits(),
                                "{tag} mode {n} pos {p}"
                            );
                            assert_eq!(x.stream.others(p), y.stream.others(p), "{tag}");
                        }
                        covered += x.stream.len();
                    }
                    (None, None) => break,
                    _ => panic!("{tag} mode {n}: window counts diverged"),
                }
            }
            assert_eq!(covered, nnz, "{tag} mode {n}");
        }
    }

    /// How the external build splits its arena for `x` when the arena
    /// sits at its floor (any budget below twice the floor).
    fn floor_placement(x: &SparseTensor, precision: StoragePrecision) -> Placement {
        let stride = record_stride(x.order() - 1, precision);
        Placement::new(MIN_ARENA_BYTES, x.nnz(), stride)
    }

    /// Mode 0's slice 1 alone holds 30 000 entries — more than a
    /// floor-sized arena chunk at either precision — interleaved in entry
    /// order with two light slices.
    fn heavy_slice_sample() -> SparseTensor {
        let mut entries = Vec::new();
        for j in 0..200 {
            for k in 0..150 {
                let v = ((j * 150 + k) as f64 * 0.37).sin();
                if (j + k) % 7 == 0 {
                    entries.push((vec![0, j, k], v + 1.0));
                }
                entries.push((vec![1, j, k], v));
                if (j * k) % 11 == 3 {
                    entries.push((vec![2, j, k], v - 1.0));
                }
            }
        }
        SparseTensor::new(vec![3, 200, 150], entries).unwrap()
    }

    /// Enough entries to span several floor-sized arena chunks per mode,
    /// with slices far smaller than a chunk — so chunk boundaries fall
    /// inside slices.
    fn large_sample() -> SparseTensor {
        let dims = vec![50, 40, 30];
        let mut entries = Vec::new();
        let mut state = 0x51ed270b0f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..40_000 {
            let i = (next() as usize) % dims[0];
            let j = (next() as usize) % dims[1];
            let k = (next() as usize) % dims[2];
            let v = (next() as f64 / u32::MAX as f64) * 2.0 - 1.0;
            entries.push((vec![i, j, k], v));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        SparseTensor::new(dims, entries).unwrap()
    }

    /// `build_external` from a COO scratch source reproduces
    /// `build_spilled` from the resident tensor bit for bit, at both
    /// storage precisions — and therefore (via
    /// `spilled_windows_reproduce_resident_streams`) the resident layout
    /// too. The inputs cover a slice larger than the floor-sized arena
    /// chunk (`heavy_slice_sample`) and chunk boundaries that fall inside
    /// slices (`large_sample`).
    #[test]
    fn external_build_is_bitwise_identical_to_spilled_build() {
        let heavy = heavy_slice_sample();
        let large = large_sample();
        let resident = ModeStreams::build(&heavy).unwrap();
        for precision in [StoragePrecision::F64, StoragePrecision::F32] {
            assert!(
                resident.max_slice_len() > floor_placement(&heavy, precision).chunk,
                "heavy slice must exceed a floor-sized chunk"
            );
            let chunk = floor_placement(&large, precision).chunk;
            assert!(large.nnz() > chunk, "several chunks per mode");
            let cut_inside = (0..large.order()).any(|n| {
                let lens: Vec<usize> = (0..large.dims()[n])
                    .map(|i| large.slice(n, i).len())
                    .collect();
                let mut at = 0;
                lens.iter().all(|&l| {
                    at += l;
                    at != chunk
                })
            });
            assert!(cut_inside, "a chunk boundary must split a slice");
        }
        for x in [sample(), off_grid_sample(), bigger_sample(), heavy, large] {
            for precision in [StoragePrecision::F64, StoragePrecision::F32] {
                let spill_budget = MemoryBudget::unlimited();
                let spilled = ModeStreams::build_spilled_at(&x, &spill_budget, precision).unwrap();
                // A tiny budget forces the minimum (floor-sized) placement
                // arena without changing output.
                let ext_budget = MemoryBudget::new(1);
                let src = CooScratch::from_tensor(&x, &ext_budget).unwrap();
                let external =
                    ModeStreams::build_external_at(&src, &ext_budget, precision).unwrap();
                assert!(external.is_spilled());
                assert_eq!(external.precision(), precision);
                assert_spilled_plans_bitwise(
                    &spilled,
                    &external,
                    x.nnz(),
                    &format!("nnz={} {:?}", x.nnz(), precision),
                );
                assert_eq!(
                    ext_budget.io_write_bytes() > 0,
                    x.nnz() > 0,
                    "tracked source + plan traffic"
                );
            }
        }
    }

    /// With the arena pinned at its floor, ~29k entries need four
    /// placement chunks per mode, and the build's I/O is still one source
    /// scan per mode (plus the counting scan), one plan write, and one
    /// write and one read of every entry past the first chunk through the
    /// bucket file — in staging flushes that cut buckets mid-way. The plan
    /// matches the resident-source build bit for bit.
    #[test]
    fn external_build_multi_chunk_is_bitwise() {
        let x = large_sample();
        let layout = floor_placement(&x, StoragePrecision::F64);
        assert!(layout.buckets >= 2, "sample must need several floor chunks");
        assert!(
            layout.stage_recs < layout.chunk / 2,
            "each bucket takes several staging flushes"
        );
        let spilled = ModeStreams::build_spilled(&x, &MemoryBudget::unlimited()).unwrap();
        let budget = MemoryBudget::new(1); // floor-sized arena
        let src = CooScratch::from_tensor(&x, &budget).unwrap();
        let (read0, write0) = (budget.io_read_bytes(), budget.io_write_bytes());
        let external = ModeStreams::build_external(&src, &budget).unwrap();
        let stride = record_stride(x.order() - 1, StoragePrecision::F64);
        let bucketed = (x.order() * (x.nnz() - layout.chunk) * staged_bytes(stride)) as u64;
        assert_eq!(
            budget.io_read_bytes() - read0,
            (1 + x.order()) as u64 * src.bytes() + bucketed
        );
        assert_eq!(
            budget.io_write_bytes() - write0,
            ModeStreams::spilled_bytes_for(&x) as u64 + bucketed
        );
        assert_spilled_plans_bitwise(&spilled, &external, x.nnz(), "multi-chunk");
    }

    /// The external build books the same resident metadata and final
    /// spill bytes as the resident-source spill build. While it runs, it
    /// spills nothing beyond the source, the plan and (only when a mode
    /// needs several chunks) the bucket file, and its transient RAM
    /// booking is the floor-sized arena — placement chunk plus staging
    /// slots — plus the bucket counts and the slice cursors.
    #[test]
    fn external_build_budget_accounting_matches_spilled() {
        for x in [bigger_sample(), large_sample()] {
            let budget = MemoryBudget::new(1);
            let src = CooScratch::from_tensor(&x, &budget).unwrap();
            let before_resident = budget.in_use();
            budget.reset_peak();
            let plan = ModeStreams::build_external(&src, &budget).unwrap();
            let floor = ModeStreams::resident_bytes_for(&x);
            assert_eq!(budget.in_use() - before_resident, floor);
            let plan_bytes = ModeStreams::spilled_bytes_for(&x);
            assert_eq!(budget.spilled_in_use(), plan_bytes + src.bytes() as usize);
            let stride = record_stride(x.order() - 1, StoragePrecision::F64);
            let layout = floor_placement(&x, StoragePrecision::F64);
            let bucket_file = x.nnz().saturating_sub(layout.chunk) * staged_bytes(stride);
            assert_eq!(bucket_file == 0, layout.buckets == 0);
            assert_eq!(
                budget.peak_spilled(),
                plan_bytes + src.bytes() as usize + bucket_file,
                "transient spill is the bucket file alone"
            );
            let max_dim = x.dims().iter().copied().max().unwrap();
            let build = layout.ram_bytes(stride, max_dim);
            let counts = layout.buckets * size_of::<usize>();
            assert!(
                build <= MIN_ARENA_BYTES + counts + cursor_bytes(max_dim),
                "arena, staging slots, bucket counts and cursors"
            );
            assert_eq!(budget.peak() - before_resident, floor + build);
            drop(plan);
            assert_eq!(budget.in_use(), before_resident);
        }
    }

    /// An empty source external-builds into an empty (but well-formed)
    /// plan.
    #[test]
    fn external_build_empty_source() {
        let budget = MemoryBudget::unlimited();
        let x = SparseTensor::new(vec![3, 3], vec![]).unwrap();
        let src = CooScratch::from_tensor(&x, &budget).unwrap();
        let plan = ModeStreams::build_external(&src, &budget).unwrap();
        let mut w = plan.windows(0, 10, false);
        let win = w.next_window().unwrap().unwrap();
        assert_eq!(win.slices, 0..3);
        assert!(win.stream.values().is_empty());
        assert!(w.next_window().unwrap().is_none());
    }

    /// Every pipeline depth presents the same windows — the ring changes
    /// only when bytes are read — and survives mid-sweep rewinds with
    /// several reads in flight.
    #[test]
    fn deep_prefetch_ring_matches_synchronous_sweep() {
        let x = bigger_sample();
        let plan = ModeStreams::build_spilled(&x, &MemoryBudget::unlimited()).unwrap();
        let resident = ModeStreams::build(&x).unwrap();
        for depth in [1, 2, 3, 4, 7] {
            for n in 0..x.order() {
                let full = resident.mode(n);
                let mut w = plan.windows_deep(n, 5, depth);
                let mut covered = 0;
                let mut windows = 0;
                while let Some(win) = w.next_window().unwrap() {
                    for p in 0..win.stream.len() {
                        let g = win.base + p;
                        assert_eq!(
                            win.stream.value(p).to_bits(),
                            full.value(g).to_bits(),
                            "depth {depth} mode {n}"
                        );
                        assert_eq!(win.stream.others(p), full.others(g));
                    }
                    covered += win.stream.len();
                    windows += 1;
                }
                assert_eq!(covered, x.nnz(), "depth {depth} mode {n}");
                assert_eq!(windows, w.window_count(), "depth {depth} mode {n}");
            }
            // Mid-sweep rewind with up to depth−1 reads in flight must
            // discard them all cleanly.
            let mut w = plan.windows_deep(0, 1, depth);
            let _ = w.next_window().unwrap().unwrap();
            w.rewind(1);
            let mut covered = 0;
            while let Some(win) = w.next_window().unwrap() {
                covered += win.stream.len();
            }
            assert_eq!(covered, x.nnz(), "depth {depth} after rewind");
        }
    }

    /// The f64→f32 storage switch shaves exactly 4 bytes per entry per
    /// mode off both placements' size formulas — what the `als`
    /// placement gate keys on.
    #[test]
    fn f32_size_formulas_drop_four_bytes_per_value() {
        let x = sample();
        let per_value = x.order() * x.nnz() * 4;
        assert_eq!(
            ModeStreams::bytes_for_at(&x, StoragePrecision::F64)
                - ModeStreams::bytes_for_at(&x, StoragePrecision::F32),
            per_value
        );
        assert_eq!(
            ModeStreams::spilled_bytes_for_at(&x, StoragePrecision::F64)
                - ModeStreams::spilled_bytes_for_at(&x, StoragePrecision::F32),
            per_value
        );
        assert_eq!(
            ModeStreams::bytes_for(&x),
            ModeStreams::bytes_for_at(&x, StoragePrecision::F64)
        );
        // record_stride: value + packed others, no entry id.
        assert_eq!(record_stride(2, StoragePrecision::F64), 8 + 8);
        assert_eq!(record_stride(2, StoragePrecision::F32), 4 + 8);
        assert_eq!(
            ModeStreams::spilled_record_bytes(3, StoragePrecision::F64),
            record_stride(2, StoragePrecision::F64)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        // Satellite property: for arbitrary sparse tensors, budgets and
        // precisions, the counting-placement build from a COO scratch source
        // is bitwise-identical to the resident-source spilled build.
        #[test]
        fn external_build_is_bitwise(
            seed in 0..u64::MAX,
            nnz in 1usize..600,
            budget_bytes in 1usize..(1 << 20),
            f32_storage in 0u32..2
        ) {
            let dims = vec![13, 7, 5];
            let mut entries = Vec::new();
            let mut state = seed | 1;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for _ in 0..nnz {
                let idx: Vec<usize> = dims.iter().map(|&d| (next() as usize) % d).collect();
                let v = (next() as f64 / u32::MAX as f64) * 2.0 - 1.0;
                entries.push((idx, v));
            }
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.dedup_by(|a, b| a.0 == b.0);
            let x = SparseTensor::new(dims, entries).unwrap();
            let precision = if f32_storage == 1 {
                StoragePrecision::F32
            } else {
                StoragePrecision::F64
            };
            let spilled =
                ModeStreams::build_spilled_at(&x, &MemoryBudget::unlimited(), precision).unwrap();
            let budget = MemoryBudget::new(budget_bytes);
            let src = CooScratch::from_tensor(&x, &budget).unwrap();
            let external = ModeStreams::build_external_at(&src, &budget, precision).unwrap();
            assert_spilled_plans_bitwise(
                &spilled,
                &external,
                x.nnz(),
                &format!("nnz={} {:?}", x.nnz(), precision),
            );
        }
    }
}
