//! Coordination hooks for distributed (multi-process) fits.
//!
//! The row-wise update rule makes ALS embarrassingly parallel across
//! rows: a row's closed-form solve reads only that row's observed
//! entries, the other factors and the core. A distributed fit therefore
//! needs exactly two things beyond the single-process driver: each
//! process must sweep **only the rows it owns** per mode, and the
//! updated rows must be **all-reduced** (gathered from their owners and
//! re-broadcast merged) before the next mode reads them through the δ
//! product. [`FitSync`] is that seam: `run_fit` calls its hooks at the
//! row-range and factor-sync points, and everything else — placement,
//! windows, kernels — is shard-oblivious.
//!
//! The per-iteration error is the one quantity that crosses the seam
//! besides the factor rows. It folds into mode `N−1`'s normal equations:
//! each row's squared residual ([`RowSse`]) comes out of that row's solve,
//! on whichever process owns the row, so on the last mode the all-reduce
//! merges those per-row values along with the rows (the [`Resweep`] handle
//! carries them) and every process sums the same buffer in row order.
//!
//! Every hook has a no-op default, and [`LocalSync`] (the implementation
//! behind [`crate::PTucker::fit`]) overrides nothing, so a
//! single-process fit pays only an inlined empty call. The multi-process
//! coordinator and worker drivers live in the `ptucker-shard` crate; the
//! bitwise coordinator/worker ≡ single-process guarantee rests on all
//! replicas starting from the same seeded RNG, sweeping disjoint
//! covering row ranges, and merging by deterministic concatenation.

use crate::{FitStats, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The squared residual `Σ_α (x_α − x̂_α)²` of every row of mode `N−1`,
/// indexed by global row, as the last mode's sweep leaves it: each row's
/// value is computed from that row's own normal equations right after its
/// solve ([`crate::engine::Scratch::row_sse`]) and written once, by
/// whichever thread — or, in a sharded fit, whichever process — updated
/// the row. The fit loop sums it in row order, so the fit's per-iteration
/// error does not depend on threads, schedule, windows or shards.
///
/// Each slot is an `f64`'s bits in an [`AtomicU64`], so the sweep's worker
/// threads write their rows without a lock. `Relaxed` suffices: a slot
/// publishes nothing but its own value, and the sweep's scoped threads are
/// joined before any read of the buffer, which orders their writes first.
#[derive(Debug)]
pub struct RowSse {
    bits: Vec<AtomicU64>,
}

impl RowSse {
    /// A zeroed buffer for `rows` rows.
    pub(crate) fn new(rows: usize) -> Self {
        RowSse {
            bits: (0..rows).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of rows (`I_N`).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the last mode has no rows.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Row `row`'s squared residual.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub(crate) fn get(&self, row: usize) -> f64 {
        f64::from_bits(self.bits[row].load(Ordering::Relaxed))
    }

    /// Sets row `row`'s squared residual.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub(crate) fn set(&self, row: usize, sse: f64) {
        self.bits[row].store(sse.to_bits(), Ordering::Relaxed);
    }

    /// The values of `rows`, in row order.
    ///
    /// # Panics
    /// Panics if `rows` is out of range.
    pub fn to_vec(&self, rows: Range<usize>) -> Vec<f64> {
        rows.map(|row| self.get(row)).collect()
    }

    /// Overwrites rows `first..first + sse.len()` with `sse`.
    ///
    /// # Panics
    /// Panics if the rows are out of range.
    pub fn copy_from(&self, first: usize, sse: &[f64]) {
        for (row, &v) in (first..).zip(sse) {
            self.set(row, v);
        }
    }

    /// `Σ_i sse_i` in row order — the folded sum of squared residuals.
    pub(crate) fn total(&self) -> f64 {
        (0..self.len()).fold(0.0, |acc, row| acc + self.get(row))
    }
}

/// What the fit loop hands the sync layer at the all-reduce point of one
/// mode ([`FitSync::sync_factor`]): its local row-update engine, and — on
/// mode `N−1` of a fit whose error folds into that mode's normal equations
/// — the per-row squared residuals that engine writes.
pub struct Resweep<'a> {
    sweep: &'a mut RowSweep<'a>,
    row_sse: Option<&'a RowSse>,
}

/// `sweep(rows, data)`: the fit loop's row updates of `rows`, in place on
/// `data`; whether every solve succeeded.
type RowSweep<'a> = dyn FnMut(Range<usize>, &mut [f64]) -> Result<bool> + 'a;

impl<'a> Resweep<'a> {
    pub(crate) fn new(sweep: &'a mut RowSweep<'a>, row_sse: Option<&'a RowSse>) -> Self {
        Resweep { sweep, row_sse }
    }

    /// Re-runs the mode's row updates for `rows` in place on `data` with
    /// the *same* kernel, schedule and window mechanics as the main sweep
    /// — and, where [`Resweep::row_sse`] is present, rewrites those rows'
    /// squared residuals — returning whether every solve succeeded.
    ///
    /// # Errors
    /// Whatever the sweep surfaces (scratch-file I/O on a spilled plan).
    pub fn sweep(&mut self, rows: Range<usize>, data: &mut [f64]) -> Result<bool> {
        (self.sweep)(rows, data)
    }

    /// The per-row squared residuals of this mode's sweep: `Some` on mode
    /// `N−1` whenever the fit folds its error into that mode's normal
    /// equations, `None` otherwise (every other mode; a `sample_stride > 1`
    /// or `f32`-storage fit, whose error is an exact pass over the
    /// entries). Rows this process swept already hold their values; a
    /// sharded fit overwrites the others with their owners' before the
    /// fit loop sums the buffer.
    pub fn row_sse(&self) -> Option<&'a RowSse> {
        self.row_sse
    }
}

/// Hooks the fit driver calls at each coordination point of a
/// (potentially distributed) fit. See the [module docs](self) for the
/// protocol; all methods default to the single-process no-op.
pub trait FitSync {
    /// Called once per `(iteration, mode)` pair, before the mode's rows
    /// are updated — the lockstep barrier of a distributed fit.
    ///
    /// # Errors
    /// Implementations fail here when a peer is out of step or gone.
    fn begin_mode(&mut self, iter: usize, mode: usize) -> Result<()> {
        let _ = (iter, mode);
        Ok(())
    }

    /// The contiguous subrange of `mode`'s `rows` rows this process owns
    /// and will update. The default owns everything; a shard returns its
    /// block; a pure coordinator returns an empty range (it only merges).
    fn row_range(&mut self, mode: usize, rows: usize) -> Range<usize> {
        let _ = mode;
        0..rows
    }

    /// The all-reduce point: called after this process updated its row
    /// range of `mode`'s factor (row-major in `data`, `j_n` columns) and
    /// before the merged factor is installed for the next mode's δ
    /// products. Implementations exchange owned rows with their peers
    /// and overwrite `data` with the merged factor — and, when
    /// [`Resweep::row_sse`] is present (mode `N−1`), the owned rows'
    /// squared residuals likewise, so every process ends the mode holding
    /// the same full buffer. `local_ok` is whether every local row solve
    /// succeeded; implementations must propagate a peer's failure as an
    /// error so all processes abandon the fit together.
    ///
    /// `resweep` is the driver's local row-update engine handed back to
    /// the sync layer ([`Resweep::sweep`]): it re-runs the mode's row
    /// updates for any rows, bitwise identically to the main sweep, squared
    /// residuals included. A fault-tolerant coordinator uses it to cover a
    /// dead peer's rows; single-process sync never calls it.
    ///
    /// # Errors
    /// Transport failures, or a peer reporting a failed solve.
    fn sync_factor(
        &mut self,
        mode: usize,
        j_n: usize,
        data: &mut [f64],
        local_ok: bool,
        resweep: &mut Resweep<'_>,
    ) -> Result<()> {
        let _ = (mode, j_n, data, local_ok, resweep);
        Ok(())
    }

    /// Called once at the end of every completed (non-breaking) ALS
    /// iteration, after the convergence bookkeeping. `make_checkpoint`
    /// serializes the fit's full current state (see
    /// [`crate::checkpoint::FitCheckpoint`]) on demand — a distributed
    /// coordinator calls it to seed a respawned worker; the local driver
    /// itself persists checkpoints before invoking this hook.
    ///
    /// # Errors
    /// Transport or serialization failures.
    fn end_iter(
        &mut self,
        iter: usize,
        make_checkpoint: &mut dyn FnMut() -> Result<Vec<u8>>,
    ) -> Result<()> {
        let _ = (iter, make_checkpoint);
        Ok(())
    }

    /// Called once after the fit completes, with the assembled stats —
    /// where a distributed driver exchanges final stats and fills
    /// [`FitStats::bytes_sent`] / [`FitStats::bytes_received`].
    ///
    /// # Errors
    /// Transport failures during the final exchange.
    fn finish(&mut self, stats: &mut FitStats) -> Result<()> {
        let _ = stats;
        Ok(())
    }
}

/// The single-process [`FitSync`]: every hook keeps its no-op default.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSync;

impl FitSync for LocalSync {}
