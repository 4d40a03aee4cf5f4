//! The zero-allocation row-update engine.
//!
//! P-Tucker's inner loop — one `(B + λI) row = c` solve per factor row per
//! mode per iteration, with `B`/`c` accumulated from the row's observed
//! slice — runs millions of times on real tensors. This module gives that
//! loop two structural properties:
//!
//! 1. **Zero heap allocations per row.** All per-row intermediates (the δ
//!    vectors of one block of entries, the normal-equation accumulators
//!    `B`/`c` and the row's `Σx²` — from which [`Scratch::row_sse`] reads
//!    the row's squared residual after the solve —, the solver workspace
//!    and pivot buffer) live in a
//!    [`Scratch`] arena. One arena is
//!    allocated per worker thread at the start of a fit — metered against
//!    the [`ptucker_memtrack::MemoryBudget`] exactly as Theorem 4
//!    prescribes (`O(T·J²)`) — and
//!    [`ptucker_sched::parallel_rows_mut_with`] hands the same arena to
//!    every row a worker processes.
//! 2. **Monomorphized kernel dispatch.** The Direct and Cache variants
//!    differ only in *how δ is produced* and in a few per-fit / per-mode
//!    hooks. Each implements [`RowUpdateKernel`]; the fit driver is generic
//!    over the kernel, so the per-row code is specialized at compile time —
//!    no `match opts.variant` inside the loop, and a future backend
//!    (GPU staging, …) is one new trait impl rather than
//!    another branch threaded through the solver.
//!
//! The kernels: [`DirectKernel`] recomputes δ from the factors (the
//! memory-optimal default) and [`CachedKernel`] owns the `|Ω|×|G|` `Pres`
//! memoization table (Algorithm 3). The Approx variant is not a kernel: it
//! sweeps rows with [`DirectKernel`], and its per-iteration truncation of
//! the noisiest core entries (Algorithm 4) is a step of the fit driver.
//!
//! Both kernels run on the **mode-major execution plan**
//! ([`ptucker_tensor::ModeStreams`]): a row update walks its slice's
//! values and packed other-mode indices linearly through the mode's
//! [`ptucker_tensor::ModeStream`] instead of gathering per-entry through
//! COO entry ids, and the δ accumulation is **run-blocked** — one shared
//! prefix product per run of lexicographic core entries, the run tail a
//! contiguous `dot`/`axpy` micro-kernel over the packed core values (see
//! `crate::delta` and `ptucker_linalg::kernels`) — and **entry-blocked**:
//! the row routine (`run_row`) feeds the kernel [`LANES`] stream positions
//! at a time, the kernel advances them through one walk of the core's runs
//! (Direct with every accumulator in a local; Cache with
//! [`LANES`] `Pres` rows' sum → divide chains in flight and mode `N−1`'s δ
//! in a `J_N`-wide divide tile — `crate::cache` has the roofline that says
//! why), and the normal equations take the lanes' δ one by one in entry
//! order — each lane bit for bit the one-entry-at-a-time loop. The plan is
//! built once per fit and metered against the memory budget. The core's run
//! structure lives in a [`RunPlan`] the fit driver builds **once per
//! core** (again only when Approx truncates it) and every [`ModeContext`]
//! *borrows*; when the driver's budget rule admits it the plan also
//! carries the **tail-dot table**, and Direct sweeps of every mode but the
//! last then do `|G|/J_N` multiply-adds per entry instead of `|G|` — bit
//! for bit the same δ (`crate::delta` has the argument).

use crate::cache::{cached_delta_for_block, cached_delta_for_entry, PresElem, PresTable};
use crate::delta::{accumulate_normal_eq, delta_for_block, delta_for_entry};
pub use crate::delta::{ResidualLanes, RunPlan, LANES};
use crate::{FitInput, FitOptions, Result, StoragePrecision, Variant};
use ptucker_linalg::{cholesky_solve_in_place, lu_solve_in_place, Matrix};
use ptucker_tensor::{CoreTensor, ModeStreams, SparseTensor, StreamView};

/// Per-thread scratch arena for the row update: every buffer the inner loop
/// touches, allocated once and reused for every row the owning worker
/// processes.
///
/// Sized for the largest rank of the fit (`j_max`), so one arena serves all
/// modes; per-row methods operate on `..j` prefixes.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// δ⁽ⁿ⁾_α accumulators (Eq. 12) for one block of entries, lane-major:
    /// [`LANES`]`·j_max` doubles.
    delta: Vec<f64>,
    /// Right-hand side `c = Σ X_α δ`, `j_max` doubles.
    c: Vec<f64>,
    /// Upper triangle of `B = Σ δδᵀ`, `j_max²` doubles (row-major, lower
    /// triangle unused).
    b_upper: Vec<f64>,
    /// Factorization workspace: `B + λI` mirrored to full storage and
    /// destroyed in place by the solver, `j_max²` doubles.
    solve: Vec<f64>,
    /// Pivot swap buffer for the LU fallback, `j_max` entries.
    pivots: Vec<usize>,
    /// `Σ X_α²` over the row's accumulated entries — with `B` and `c`, all
    /// [`Scratch::row_sse`] needs.
    xx: f64,
}

impl Scratch {
    /// An arena able to solve systems up to `j_max × j_max`.
    pub fn new(j_max: usize) -> Self {
        let j = j_max.max(1);
        Scratch {
            delta: vec![0.0; LANES * j],
            c: vec![0.0; j],
            b_upper: vec![0.0; j * j],
            solve: vec![0.0; j * j],
            pivots: vec![0; j],
            xx: 0.0,
        }
    }

    /// An arena sized for a fit's largest rank.
    pub fn for_options(opts: &FitOptions) -> Self {
        Scratch::new(opts.ranks.iter().copied().max().unwrap_or(1))
    }

    /// `f64`s held per thread: `2J² + (E+1)·J` with `E =` [`LANES`] —
    /// Theorem 4's `2J² + 2J` with one δ per lane of the entry block, still
    /// `O(J²)` (the pivot buffer is `usize`s and excluded, matching the
    /// paper's double-counting).
    pub fn doubles(j_max: usize) -> usize {
        let j = j_max.max(1);
        2 * j * j + (LANES + 1) * j
    }

    /// Clears the `..j` accumulator prefixes for a fresh row.
    #[inline]
    fn begin_row(&mut self, j: usize) {
        self.c[..j].fill(0.0);
        self.b_upper[..j * j].fill(0.0);
        self.xx = 0.0;
    }

    /// Rank-1 update of the row's normal equations with δ lane `lane` and
    /// its entry's value `x`: `B += δδᵀ`, `c += x·δ` and `Σx² += x²`.
    #[inline]
    fn accumulate(&mut self, lane: usize, j: usize, x: f64) {
        accumulate_normal_eq(
            &mut self.b_upper[..j * j],
            &mut self.c[..j],
            &self.delta[lane * j..(lane + 1) * j],
            x,
        );
        self.xx += x * x;
    }

    /// The squared residual `Σ_α (X_α − a·δ_α)²` of the row just solved
    /// into `a`, over the entries its normal equations accumulated:
    /// `Σx² − 2·a·c + aᵀ B a`, from the *unregularized* `B` triangle and
    /// `c`, which [`Scratch::solve`] leaves intact — `O(J²)` instead of a
    /// pass over the row's entries. The identity holds for any `a`, so this
    /// is the residual of the row as solved, in every kernel that
    /// accumulates through this arena's row routine (an empty row, solved
    /// to zero, gives 0).
    ///
    /// # Panics
    /// Panics if `a.len()` exceeds the arena's `j_max`.
    pub fn row_sse(&self, a: &[f64]) -> f64 {
        let j = a.len();
        let mut quad = 0.0;
        for (j1, &a1) in a.iter().enumerate() {
            let b_row = &self.b_upper[j1 * j..(j1 + 1) * j];
            let mut s = b_row[j1] * a1;
            for j2 in (j1 + 1)..j {
                s += 2.0 * b_row[j2] * a[j2];
            }
            quad += a1 * s;
        }
        let ac = a.iter().zip(&self.c[..j]).fold(0.0, |s, (x, y)| s + x * y);
        self.xx + (quad - 2.0 * ac)
    }

    /// Clears and returns the `(δ, c, B-upper)` accumulator views for a row
    /// of rank `j` — for external row-update kernels (e.g. the CP-ALS
    /// crate) that accumulate their own normal equations into the shared
    /// arena before calling [`Scratch::solve`]. All three views are zeroed
    /// (the internal kernels skip the δ clear because `accumulate_delta`
    /// clears it per entry, but an external `+=` accumulator must not see
    /// the previous row's values).
    ///
    /// # Panics
    /// Panics if `j` exceeds the arena's `j_max`.
    #[inline]
    pub fn accumulators(&mut self, j: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
        self.begin_row(j);
        self.delta[..j].fill(0.0);
        (
            &mut self.delta[..j],
            &mut self.c[..j],
            &mut self.b_upper[..j * j],
        )
    }

    /// Solves `(B + λI) out = c` from the accumulated triangle (see
    /// [`Scratch::accumulators`]), entirely in the arena: Cholesky first
    /// (SPD for λ > 0, Theorem 1), LU with partial pivoting as the λ = 0
    /// fallback. Returns `false` only for an exactly singular system.
    ///
    /// # Panics
    /// Panics if `out.len() != j` or `j` exceeds the arena's `j_max`.
    #[inline]
    pub fn solve(&mut self, j: usize, lambda: f64, out: &mut [f64]) -> bool {
        self.mirror_system(j, lambda);
        out.copy_from_slice(&self.c[..j]);
        if cholesky_solve_in_place(&mut self.solve[..j * j], j, out).is_ok() {
            return true;
        }
        // Cholesky clobbered the workspace (but not `out`); rebuild and
        // fall back to LU for rank-deficient unregularized systems.
        self.mirror_system(j, lambda);
        lu_solve_in_place(&mut self.solve[..j * j], j, &mut self.pivots[..j], out).is_ok()
    }

    /// Mirrors the accumulated upper triangle into full storage in the
    /// solver workspace and adds the ridge.
    #[inline]
    fn mirror_system(&mut self, j: usize, lambda: f64) {
        let m = &mut self.solve[..j * j];
        for j1 in 0..j {
            m[j1 * j + j1] = self.b_upper[j1 * j + j1] + lambda;
            for j2 in (j1 + 1)..j {
                let v = self.b_upper[j1 * j + j2];
                m[j1 * j + j2] = v;
                m[j2 * j + j1] = v;
            }
        }
    }
}

/// Shared, read-only context for one window of one mode's row sweep.
///
/// Built once per window (once per mode for an in-memory fit, whose sweep
/// is a single full-stream window) and borrowed by every row closure;
/// `factors[mode]` is empty during the sweep (its storage is the row data
/// being updated), which is safe because δ products skip `k == mode`.
#[derive(Debug)]
pub struct ModeContext<'a> {
    /// The window's streamed slice layout (values + packed other-mode
    /// indices, slice-major; slices and positions window-local).
    pub stream: StreamView<'a>,
    /// All factor matrices (`factors[mode]` emptied for the sweep).
    pub factors: &'a [Matrix],
    /// The core's flat index storage (`|G| × N`, lexicographic order).
    pub core_idx: &'a [usize],
    /// The core's values (`|G|`).
    pub core_vals: &'a [f64],
    /// The core's entry-independent run metadata (see `crate::delta`) —
    /// built once per core by whoever owns it and *borrowed* here, so
    /// neither a sweep nor a window rescans the core — plus, when its owner
    /// memoized one, the tail-dot table the δ kernel looks up for every
    /// mode but the last.
    pub runs: &'a RunPlan,
    /// The mode being updated.
    pub mode: usize,
    /// Rank `Jₙ` of the mode being updated.
    pub j_n: usize,
    /// Observed-entry sampling stride (1 = use all entries).
    pub stride: usize,
    /// L2 regularization λ.
    pub lambda: f64,
}

impl<'a> ModeContext<'a> {
    /// Assembles the context for updating `factors[mode]` on a fully
    /// resident plan (one full-stream window; positions global). `runs`
    /// must be the [`RunPlan`] of `core`.
    pub fn new(
        plan: &'a ModeStreams,
        factors: &'a [Matrix],
        core: &'a CoreTensor,
        runs: &'a RunPlan,
        mode: usize,
        opts: &FitOptions,
    ) -> Self {
        Self::for_view(plan.mode(mode).view(), factors, core, runs, mode, opts)
    }

    /// Assembles the context for a sweep over an arbitrary [`StreamView`]
    /// of `mode` — the whole resident stream, or one slice-aligned window
    /// of any [`ptucker_tensor::SweepSource`], whose slices and positions
    /// are then window-local. Borrows everything: building one per window
    /// allocates nothing. `runs` must be the [`RunPlan`] of `core`, any
    /// tail-dot table in it memoized against the current `factors[N−1]`.
    pub fn for_view(
        stream: StreamView<'a>,
        factors: &'a [Matrix],
        core: &'a CoreTensor,
        runs: &'a RunPlan,
        mode: usize,
        opts: &FitOptions,
    ) -> Self {
        ModeContext {
            stream,
            factors,
            core_idx: core.flat_indices(),
            core_vals: core.values(),
            runs,
            mode,
            j_n: opts.ranks[mode],
            stride: opts.sample_stride.max(1),
            lambda: opts.lambda,
        }
    }
}

/// A row-update backend, expressed as its row-update behavior plus
/// lifecycle hooks. The fit driver is generic over this trait, so each
/// kernel's inner loop is monomorphized — adding a backend means
/// implementing this trait, not editing the solver.
///
/// There is exactly **one** fit driver: every mode sweep iterates the
/// slice-aligned windows of a [`ptucker_tensor::SweepSource`] (a single
/// full-stream window for an in-memory fit) and hands each window's rows to
/// [`RowUpdateKernel::update_row`]. A kernel's auxiliary state is always
/// resident, so windows are invisible to it: a kernel without such state —
/// Direct — implements only `update_row`; the other hooks default to no-ops.
pub trait RowUpdateKernel: Sync {
    /// One-time setup before the first iteration (e.g. the Cache variant's
    /// `|Ω|×|G|` table precompute — the step that can exceed the memory
    /// budget).
    ///
    /// # Errors
    /// [`crate::PtuckerError::OutOfMemory`] if the kernel's auxiliary state
    /// exceeds the intermediate-data budget, or
    /// [`crate::PtuckerError::InvalidConfig`] if that state needs a
    /// resident tensor and `x` is a disk-resident one.
    fn prepare_fit(
        &mut self,
        _x: &FitInput<'_>,
        _factors: &[Matrix],
        _core: &CoreTensor,
        _opts: &FitOptions,
    ) -> Result<()> {
        Ok(())
    }

    /// Called before each mode's row sweep, with the factors still in their
    /// pre-update state (snapshot here what `post_mode` will need).
    ///
    /// # Errors
    /// Kernel-specific; the default never fails.
    fn prepare_mode(&mut self, _factors: &[Matrix], _mode: usize) -> Result<()> {
        Ok(())
    }

    /// Updates one factor row in place (Algorithm 3 lines 5–15): accumulate
    /// the normal equations over the row's observed slice into `scratch`,
    /// then solve into `row`. On entry `row` holds the *old* row values
    /// (the cached kernel reads them as divisors). `i` and the context's
    /// stream are window-local. Returns `false` if the system was exactly
    /// singular (only possible with `lambda == 0`).
    ///
    /// Must not allocate: everything lives in `scratch`. On return the
    /// row's unregularized normal equations (`B`, `c`, `Σx²`) must still be
    /// in `scratch` — the fit loop reads the row's squared residual from them
    /// ([`Scratch::row_sse`]) on mode `N−1`; the shared row routine every
    /// in-tree kernel rides guarantees it.
    fn update_row(
        &self,
        ctx: &ModeContext<'_>,
        scratch: &mut Scratch,
        i: usize,
        row: &mut [f64],
    ) -> bool;

    /// Called after `factors[mode]` has been replaced with its updated
    /// values (e.g. the Cache variant rescales its table here).
    ///
    /// # Errors
    /// Kernel-specific; the default never fails.
    fn post_mode(
        &mut self,
        _x: &FitInput<'_>,
        _factors: &[Matrix],
        _mode: usize,
        _core: &CoreTensor,
        _opts: &FitOptions,
    ) -> Result<()> {
        Ok(())
    }

    /// Serializes the kernel's auxiliary fit state into `out`, for a
    /// [`crate::checkpoint::FitCheckpoint`]'s `kernel_aux` section. Only
    /// kernels whose state is *not* reproducible by recomputation need
    /// this: the Cache variant's incrementally rescaled `Pres` table
    /// drifts bitwise from a fresh rebuild (the ratio rescale rounds
    /// differently than the outright product), so a bitwise resume must
    /// carry its exact element values. `plan` is the fit's execution plan,
    /// for state whose checkpoint layout is defined in stream order. The
    /// default writes nothing.
    ///
    /// # Errors
    /// [`crate::PtuckerError::Checkpoint`] (state unavailable).
    fn save_aux(&self, _plan: &ModeStreams, _out: &mut Vec<u8>) -> Result<()> {
        Ok(())
    }

    /// Restores the state written by [`RowUpdateKernel::save_aux`], after
    /// [`RowUpdateKernel::prepare_fit`] has sized and laid out the
    /// kernel's structures. The default accepts only an empty section —
    /// a kernel without auxiliary state refuses a checkpoint that
    /// carries some (variant mismatch), by name rather than by silently
    /// ignoring it.
    ///
    /// # Errors
    /// [`crate::PtuckerError::Checkpoint`] on any mismatch between the
    /// bytes and the kernel's prepared state.
    fn load_aux(&mut self, _plan: &ModeStreams, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(crate::PtuckerError::Checkpoint(format!(
                "this kernel has no auxiliary state, but the checkpoint carries {} bytes of it \
                 — was the checkpoint written by a different variant?",
                bytes.len()
            )))
        }
    }
}

/// The shared row routine: a linear walk of the row's streamed slice in
/// **blocks of `E` positions** (honouring the sampling stride; the entries
/// a row leaves over after its full blocks go one at a time, as blocks of
/// one), δ production for the block (kernel-specific), rank-1
/// normal-equation accumulation **lane by lane in entry order**, in-arena
/// solve. `delta_fn` receives `(δ lanes — one `j`-vector per position,
/// lane-major —, the block's `E` or 1 stream positions, old row values)`
/// and fills lane `e` with the δ of `positions[e]`. Within a slice the stream
/// preserves COO entry order, so subsampling by `stride` visits the same
/// entries the gather path visited, and the accumulation order is the
/// per-entry loop's at every `E`. The row's normal equations stay in the
/// arena after the solve, for [`Scratch::row_sse`].
#[inline]
pub(crate) fn run_row<const E: usize>(
    ctx: &ModeContext<'_>,
    scratch: &mut Scratch,
    i: usize,
    row: &mut [f64],
    delta_fn: impl Fn(&mut [f64], &[usize], &[f64]),
) -> bool {
    const { assert!(E >= 1 && E <= LANES, "the arena holds LANES δ lanes") };
    let range = ctx.stream.slice_range(i);
    let j = ctx.j_n;
    scratch.begin_row(j);
    if range.is_empty() {
        // No observations for this row: the regularized minimizer is the
        // zero vector (c = 0 in Eq. 9).
        row.fill(0.0);
        return true;
    }
    let values = ctx.stream.values();
    let mut positions = range.step_by(ctx.stride);
    let mut block = [0usize; E];
    loop {
        let mut n = 0;
        for (slot, pos) in block.iter_mut().zip(&mut positions) {
            *slot = pos;
            n += 1;
        }
        // A full block is one call; what a row leaves over goes one entry
        // at a time (a block of one).
        let step = if n == E { E } else { 1 };
        for block in block[..n].chunks(step) {
            delta_fn(&mut scratch.delta[..step * j], block, &*row);
            for (lane, &pos) in block.iter().enumerate() {
                scratch.accumulate(lane, j, values.at(pos));
            }
        }
        if n < E {
            break;
        }
    }
    scratch.solve(j, ctx.lambda, row)
}

/// The default P-Tucker kernel: δ recomputed from the factors for every
/// entry — `O(T·J²)` intermediate memory (Theorem 4). On the mode-major
/// plan the recompute is **run-blocked and entry-blocked**: [`LANES`]
/// entries of the row advance together through one walk of the core's runs
/// — one shared prefix product per run and lane, times the run's tail
/// contraction: a lookup in the context's tail-dot table for every mode but
/// the last when its [`RunPlan`] carries one (`I_N·|G|/J_N` more doubles), a
/// contiguous `dot` otherwise, and for the last mode a `J_N`-wide δ tile
/// per lane. Each lane is bit for bit the single-entry kernel (see
/// `crate::delta`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectKernel;

impl RowUpdateKernel for DirectKernel {
    fn update_row(
        &self,
        ctx: &ModeContext<'_>,
        scratch: &mut Scratch,
        i: usize,
        row: &mut [f64],
    ) -> bool {
        direct_update_row::<LANES>(ctx, scratch, i, row)
    }
}

/// The Direct row update at an explicit block width `E ≤` [`LANES`]:
/// [`DirectKernel`] is `E = LANES`, and `E = 1` is the single-entry loop
/// every lane reproduces bit for bit — public so the `direct_mode_cycle`
/// bench can price the two against each other through the real row routine.
pub fn direct_update_row<const E: usize>(
    ctx: &ModeContext<'_>,
    scratch: &mut Scratch,
    i: usize,
    row: &mut [f64],
) -> bool {
    let others = |pos: usize| ctx.stream.others(pos);
    run_row::<E>(ctx, scratch, i, row, |lanes, block, _old_row| {
        let (mode, idx, vals) = (ctx.mode, ctx.core_idx, ctx.core_vals);
        match block {
            [pos] => delta_for_entry(lanes, others(*pos), mode, idx, vals, ctx.runs, ctx.factors),
            _ => delta_for_block::<E>(
                std::array::from_fn(|e| others(block[e])),
                lanes,
                mode,
                idx,
                vals,
                ctx.runs,
                ctx.factors,
            ),
        }
    })
}

/// The resident tensor behind state that indexes COO entries at random.
/// The fit driver never pairs such state with a disk-resident input, but
/// the hooks are public: a caller that does gets the error, not a panic.
fn require_resident<'a>(x: &FitInput<'a>, what: &str) -> Result<&'a SparseTensor> {
    x.resident().ok_or_else(|| {
        crate::PtuckerError::InvalidConfig(format!(
            "{what} needs a resident tensor, but the fit's input is a COO scratch file"
        ))
    })
}

/// One row update over `table` at block width `L`: the shared row routine,
/// each block's δ from its positions' `Pres` rows — gathered through the
/// stream's entry ids, since the table is entry-ordered — by the identical
/// lane arithmetic (`cache::cached_delta_for_block`) for a full block and
/// a leftover alike.
#[inline]
fn cached_update_row<E: PresElem, const L: usize>(
    table: &PresTable<E>,
    ctx: &ModeContext<'_>,
    scratch: &mut Scratch,
    i: usize,
    row: &mut [f64],
) -> bool {
    let pres = |pos: usize| table.row(ctx.stream.entry_id(pos));
    let others = |pos: usize| ctx.stream.others(pos);
    run_row::<L>(ctx, scratch, i, row, |lanes, block, old_row| match block {
        [pos] => cached_delta_for_entry(lanes, pres(*pos), others(*pos), old_row, ctx),
        _ => cached_delta_for_block::<E, L>(
            lanes,
            std::array::from_fn(|e| pres(block[e])),
            std::array::from_fn(|e| others(block[e])),
            old_row,
            ctx,
        ),
    })
}

/// A [`PresTable`] at either storage precision — the runtime dispatch
/// point of the precision axis. Exactly one `match` per kernel hook; the
/// per-row arithmetic below it is monomorphized per element type.
#[derive(Debug)]
enum AnyTable {
    F64(PresTable<f64>),
    F32(PresTable<f32>),
}

/// The checkpoint tag of the table's element precision.
const AUX_TAG_F64: u8 = 0;
const AUX_TAG_F32: u8 = 1;

/// The P-Tucker-Cache kernel: owns the `Pres` table of all
/// `(entry, core-entry)` products, replacing the `N−1` multiplications per
/// pair with one division (Theorem 5) at `O(|Ω|·|G|)` memory (Theorem 6).
///
/// The table is always resident and keeps **one fixed row order — COO
/// entry order — for the whole fit**: the sweep gathers each position's
/// `|G|`-element row through the stream's entry id, and the per-mode
/// rescale (Algorithm 3 lines 16–19) is one parallel pass over the rows in
/// place. No row is ever moved and no second table-sized buffer exists, so
/// Theorem 6's memory bound holds as stated — and a budget below it is the
/// paper's O.O.M. (Table III), whatever the budget's policy.
///
/// The sweep is entry-blocked like Direct's ([`CachedKernel::update_row_lanes`]
/// at [`LANES`]): it was bound by each run's sum → divide → δ-slot chain,
/// not by the table's bandwidth. After the lanes the rescale is the largest
/// span of a Cache iteration, and that one *is* bandwidth-bound — which is
/// why Cache stays ≥ 1.2× behind the memoized Direct kernel at 22× its
/// memory, and stays here as the paper-faithful reference (Theorems 5/6)
/// rather than the fast path (`crate::cache` module docs have the numbers).
#[derive(Debug, Default)]
pub struct CachedKernel {
    table: Option<AnyTable>,
    /// Pre-update snapshot of the swept mode's factor, for the table
    /// rescale; one buffer reused by every mode of every iteration.
    old_factor: Matrix,
}

impl CachedKernel {
    /// A kernel whose table is computed on `prepare_fit`.
    pub fn new() -> Self {
        CachedKernel::default()
    }

    /// The Cache row update at an explicit block width `E ≤` [`LANES`]:
    /// [`RowUpdateKernel::update_row`] is `E = LANES`, and `E = 1` is the
    /// single-entry loop every lane reproduces bit for bit — public so the
    /// `cache_mode_cycle` bench can price the widths against each other
    /// through the real row routine. The entries of a block sit in the same
    /// factor row, so they share the old row values, each run's δ slot and
    /// its divisor; each lane reads its own `Pres` row (a gather through
    /// the stream's entry id). One precision dispatch per row; the block
    /// loop below it is monomorphized per element type.
    ///
    /// # Panics
    /// Panics if [`RowUpdateKernel::prepare_fit`] has not built the table.
    pub fn update_row_lanes<const E: usize>(
        &self,
        ctx: &ModeContext<'_>,
        scratch: &mut Scratch,
        i: usize,
        row: &mut [f64],
    ) -> bool {
        match self
            .table
            .as_ref()
            .expect("CachedKernel::prepare_fit must run before update_row")
        {
            AnyTable::F64(t) => cached_update_row::<f64, E>(t, ctx, scratch, i, row),
            AnyTable::F32(t) => cached_update_row::<f32, E>(t, ctx, scratch, i, row),
        }
    }
}

impl RowUpdateKernel for CachedKernel {
    fn prepare_fit(
        &mut self,
        x: &FitInput<'_>,
        factors: &[Matrix],
        core: &CoreTensor,
        opts: &FitOptions,
    ) -> Result<()> {
        if matches!(opts.variant, Variant::Approx { truncation_rate } if truncation_rate > 0.0) {
            return Err(crate::PtuckerError::InvalidConfig(
                "the Cache kernel's Pres table holds one core's products, but a truncating \
                 Approx fit changes the core every iteration"
                    .into(),
            ));
        }
        let x = require_resident(x, "the Pres table")?;
        let (threads, budget) = (opts.threads, &opts.budget);
        self.table = Some(match opts.precision {
            StoragePrecision::F64 => {
                AnyTable::F64(PresTable::compute(x, factors, core, threads, budget)?)
            }
            StoragePrecision::F32 => {
                AnyTable::F32(PresTable::compute(x, factors, core, threads, budget)?)
            }
        });
        Ok(())
    }

    fn prepare_mode(&mut self, factors: &[Matrix], mode: usize) -> Result<()> {
        self.old_factor.clone_from(&factors[mode]);
        Ok(())
    }

    fn update_row(
        &self,
        ctx: &ModeContext<'_>,
        scratch: &mut Scratch,
        i: usize,
        row: &mut [f64],
    ) -> bool {
        self.update_row_lanes::<LANES>(ctx, scratch, i, row)
    }

    fn post_mode(
        &mut self,
        x: &FitInput<'_>,
        factors: &[Matrix],
        mode: usize,
        core: &CoreTensor,
        opts: &FitOptions,
    ) -> Result<()> {
        let Some(table) = self.table.as_mut() else {
            return Ok(());
        };
        let x = require_resident(x, "the Pres table")?;
        let (old, threads) = (&self.old_factor, opts.threads);
        match table {
            AnyTable::F64(t) => t.rescale(x, factors, old, mode, core, threads),
            AnyTable::F32(t) => t.rescale(x, factors, old, mode, core, threads),
        }
        Ok(())
    }

    /// Checkpoint section: `[order_mode = 0: u8][precision: u8]` followed
    /// by every table element widened to `f64` little-endian bits, rows in
    /// mode 0's stream order — exact for both precisions, so the round
    /// trip is lossless.
    fn save_aux(&self, plan: &ModeStreams, out: &mut Vec<u8>) -> Result<()> {
        let table = self.table.as_ref().ok_or_else(|| {
            crate::PtuckerError::Checkpoint(
                "CachedKernel has no table to checkpoint (prepare_fit has not run)".into(),
            )
        })?;
        out.push(0);
        match table {
            AnyTable::F64(t) => {
                out.push(AUX_TAG_F64);
                t.export_state(plan.mode(0), out);
            }
            AnyTable::F32(t) => {
                out.push(AUX_TAG_F32);
                t.export_state(plan.mode(0), out);
            }
        }
        Ok(())
    }

    fn load_aux(&mut self, plan: &ModeStreams, bytes: &[u8]) -> Result<()> {
        let ck = crate::PtuckerError::Checkpoint;
        let table = self
            .table
            .as_mut()
            .ok_or_else(|| ck("CachedKernel::prepare_fit must run before load_aux".into()))?;
        let [order_mode, precision, elems @ ..] = bytes else {
            return Err(ck(
                "checkpoint is missing the Cache variant's Pres-table state — was it written \
                 by a different variant?"
                    .into(),
            ));
        };
        let want_precision = match table {
            AnyTable::F64(_) => AUX_TAG_F64,
            AnyTable::F32(_) => AUX_TAG_F32,
        };
        if *precision != want_precision {
            return Err(ck(format!(
                "checkpointed Pres table has precision tag {precision}, this fit expects \
                 {want_precision}"
            )));
        }
        if *order_mode != 0 {
            return Err(ck(format!(
                "checkpointed Pres table is in mode {order_mode}'s stream order; checkpoints \
                 are cut between iterations, in mode 0's"
            )));
        }
        match table {
            AnyTable::F64(t) => t.import_state(plan.mode(0), elems),
            AnyTable::F32(t) => t.import_state(plan.mode(0), elems),
        }
    }
}

/// Test-only reference kernel: the pre-plan COO **gather** row update —
/// entry ids through `SparseTensor::slice`, full `N−1` δ products per
/// `(entry, core-entry)` pair. The streamed kernels are required to
/// reproduce its fits (the acceptance bar for the mode-major refactor), so
/// it lives here for the equivalence tests in `als.rs`.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct GatherReferenceKernel {
    x: Option<SparseTensor>,
}

#[cfg(test)]
impl RowUpdateKernel for GatherReferenceKernel {
    fn prepare_fit(
        &mut self,
        x: &FitInput<'_>,
        _factors: &[Matrix],
        _core: &CoreTensor,
        _opts: &FitOptions,
    ) -> Result<()> {
        self.x = Some(require_resident(x, "the gather reference kernel")?.clone());
        Ok(())
    }

    fn update_row(
        &self,
        ctx: &ModeContext<'_>,
        scratch: &mut Scratch,
        i: usize,
        row: &mut [f64],
    ) -> bool {
        let x = self.x.as_ref().expect("prepare_fit runs first");
        let slice = x.slice(ctx.mode, i);
        let j = ctx.j_n;
        scratch.begin_row(j);
        if slice.is_empty() {
            row.fill(0.0);
            return true;
        }
        for &e in slice.iter().step_by(ctx.stride) {
            crate::delta::accumulate_delta(
                &mut scratch.delta[..j],
                x.index(e),
                ctx.mode,
                ctx.core_idx,
                ctx.core_vals,
                ctx.factors,
            );
            scratch.accumulate(0, j, x.value(e));
        }
        scratch.solve(j, ctx.lambda, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FitOptions;
    use ptucker_linalg::Cholesky;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (SparseTensor, Vec<Matrix>, CoreTensor, FitOptions) {
        let mut rng = StdRng::seed_from_u64(17);
        let x = SparseTensor::new(
            vec![4, 3, 2],
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![1, 1, 1], -0.5),
                (vec![2, 2, 0], 2.0),
                (vec![3, 0, 1], 0.25),
                (vec![0, 2, 1], -1.5),
                (vec![2, 0, 0], 0.75),
                (vec![2, 1, 1], 1.25),
            ],
        )
        .unwrap();
        let factors: Vec<Matrix> = [4usize, 3, 2]
            .iter()
            .map(|&d| {
                Matrix::from_vec(d, 2, (0..d * 2).map(|_| rng.gen::<f64>()).collect()).unwrap()
            })
            .collect();
        let core = CoreTensor::random_dense(vec![2, 2, 2], &mut rng).unwrap();
        let opts = FitOptions::new(vec![2, 2, 2]).lambda(0.01);
        (x, factors, core, opts)
    }

    /// Naive dense reference for one row's update: build δ per entry by
    /// brute force, form B and c densely, solve with the allocating wrapper.
    fn reference_row(
        x: &SparseTensor,
        factors: &[Matrix],
        core: &CoreTensor,
        mode: usize,
        i: usize,
        lambda: f64,
    ) -> Vec<f64> {
        let j_n = core.dims()[mode];
        let order = x.order();
        let mut b = Matrix::zeros(j_n, j_n);
        let mut c = vec![0.0; j_n];
        for &e in x.slice(mode, i) {
            let idx = x.index(e);
            let mut delta = vec![0.0; j_n];
            for b_id in 0..core.nnz() {
                let beta = core.index(b_id);
                let mut w = core.value(b_id);
                for k in 0..order {
                    if k == mode {
                        continue;
                    }
                    w *= factors[k][(idx[k], beta[k])];
                }
                delta[beta[mode]] += w;
            }
            for j1 in 0..j_n {
                c[j1] += x.value(e) * delta[j1];
                for j2 in 0..j_n {
                    b[(j1, j2)] += delta[j1] * delta[j2];
                }
            }
        }
        b.add_diagonal_mut(lambda);
        Cholesky::factor(&b).unwrap().solve(&c)
    }

    #[test]
    fn direct_kernel_matches_dense_reference() {
        let (x, factors, core, opts) = setup();
        let plan = ModeStreams::build(&x).unwrap();
        let runs = RunPlan::new(&core);
        let mut scratch = Scratch::for_options(&opts);
        for mode in 0..3 {
            let ctx = ModeContext::new(&plan, &factors, &core, &runs, mode, &opts);
            for i in 0..x.dims()[mode] {
                let mut row = factors[mode].row(i).to_vec();
                assert!(DirectKernel.update_row(&ctx, &mut scratch, i, &mut row));
                if x.slice(mode, i).is_empty() {
                    assert!(row.iter().all(|&v| v == 0.0));
                    continue;
                }
                let want = reference_row(&x, &factors, &core, mode, i, opts.lambda);
                for (g, w) in row.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-10, "mode {mode} row {i}: {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn cached_kernel_matches_direct_kernel() {
        let (x, factors, core, opts) = setup();
        let plan = ModeStreams::build(&x).unwrap();
        let runs = RunPlan::new(&core);
        let mut cached = CachedKernel::new();
        cached
            .prepare_fit(&FitInput::from(&x), &factors, &core, &opts)
            .unwrap();
        let mut s1 = Scratch::for_options(&opts);
        let mut s2 = Scratch::for_options(&opts);
        for mode in 0..3 {
            cached.prepare_mode(&factors, mode).unwrap();
            let ctx = ModeContext::new(&plan, &factors, &core, &runs, mode, &opts);
            for i in 0..x.dims()[mode] {
                let mut direct_row = factors[mode].row(i).to_vec();
                let mut cached_row = factors[mode].row(i).to_vec();
                assert!(DirectKernel.update_row(&ctx, &mut s1, i, &mut direct_row));
                assert!(cached.update_row(&ctx, &mut s2, i, &mut cached_row));
                for (d, c) in direct_row.iter().zip(&cached_row) {
                    assert!((d - c).abs() < 1e-9, "mode {mode} row {i}: {d} vs {c}");
                }
            }
        }
    }

    /// The hooks are public, so a `Pres` table asked of a disk-resident
    /// input is a caller error with a typed outcome — in `prepare_fit` (the
    /// table build) and in `post_mode` (its rescale).
    #[test]
    fn resident_table_hooks_refuse_a_disk_resident_input() {
        let (x, factors, core, opts) = setup();
        let src =
            ptucker_tensor::CooScratch::from_tensor(&x, &crate::MemoryBudget::unlimited()).unwrap();
        let disk = FitInput::from(&src);
        let err = CachedKernel::new()
            .prepare_fit(&disk, &factors, &core, &opts)
            .unwrap_err();
        assert!(
            matches!(&err, crate::PtuckerError::InvalidConfig(m) if m.contains("Pres table")),
            "{err}"
        );
        let mut cached = CachedKernel::new();
        cached
            .prepare_fit(&FitInput::from(&x), &factors, &core, &opts)
            .unwrap();
        cached.prepare_mode(&factors, 0).unwrap();
        let err = cached
            .post_mode(&disk, &factors, 0, &core, &opts)
            .unwrap_err();
        assert!(
            matches!(err, crate::PtuckerError::InvalidConfig(_)),
            "{err}"
        );
    }

    /// Truncation is the driver's, whatever kernel a caller hands it, and
    /// a `Pres` table holds one core's products: the Cache kernel refuses
    /// a truncating fit instead of sweeping with a stale table.
    #[test]
    fn cached_kernel_refuses_a_truncating_fit() {
        let (x, factors, core, opts) = setup();
        let approx = opts.variant(crate::Variant::Approx {
            truncation_rate: 0.2,
        });
        let err = CachedKernel::new()
            .prepare_fit(&FitInput::from(&x), &factors, &core, &approx)
            .unwrap_err();
        assert!(
            matches!(&err, crate::PtuckerError::InvalidConfig(m) if m.contains("truncating")),
            "{err}"
        );
    }

    #[test]
    fn scratch_reuse_is_stateless_across_rows() {
        // A reused arena must give bitwise-identical results to a fresh one.
        let (x, factors, core, opts) = setup();
        let plan = ModeStreams::build(&x).unwrap();
        let runs = RunPlan::new(&core);
        let ctx = ModeContext::new(&plan, &factors, &core, &runs, 0, &opts);
        let mut reused = Scratch::for_options(&opts);
        // Dirty the arena on another row first.
        let mut sink = factors[0].row(1).to_vec();
        DirectKernel.update_row(&ctx, &mut reused, 1, &mut sink);
        for i in 0..x.dims()[0] {
            let mut fresh = Scratch::for_options(&opts);
            let mut row_fresh = factors[0].row(i).to_vec();
            let mut row_reused = factors[0].row(i).to_vec();
            DirectKernel.update_row(&ctx, &mut fresh, i, &mut row_fresh);
            DirectKernel.update_row(&ctx, &mut reused, i, &mut row_reused);
            for (a, b) in row_fresh.iter().zip(&row_reused) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
    }

    /// Rows of every length around the block width — 1..=2·LANES+1 entries,
    /// so every leftover count occurs — swept at stride 1 and 3, with and
    /// without the tail-dot table: the block-fed row loop solves to the
    /// bits of the one-entry-at-a-time loop.
    #[test]
    fn blocked_row_loop_is_bitwise_the_single_entry_loop() {
        let mut rng = StdRng::seed_from_u64(23);
        let rows = 2 * LANES + 1;
        let mut entries = Vec::new();
        for i in 0..rows {
            // Row `i` of mode 0 holds `i + 1` entries.
            for k in 0..=i {
                entries.push((vec![i, k % 5, (k / 5) % 3], rng.gen::<f64>() - 0.5));
            }
        }
        let x = SparseTensor::new(vec![rows, 5, 3], entries).unwrap();
        let factors: Vec<Matrix> = [rows, 5, 3]
            .iter()
            .map(|&d| {
                Matrix::from_vec(d, 3, (0..d * 3).map(|_| rng.gen::<f64>()).collect()).unwrap()
            })
            .collect();
        let core = CoreTensor::random_dense(vec![3, 3, 3], &mut rng).unwrap();
        let plan = ModeStreams::build(&x).unwrap();
        let mut runs = RunPlan::new(&core);
        for memoize in [false, true] {
            if memoize {
                runs.memoize_tail(&core, &factors[2], 1);
            }
            for stride in [1, 3] {
                let opts = FitOptions::new(vec![3, 3, 3])
                    .lambda(0.01)
                    .sample_stride(stride);
                let mut scratch = Scratch::for_options(&opts);
                for mode in 0..3 {
                    let ctx = ModeContext::new(&plan, &factors, &core, &runs, mode, &opts);
                    for i in 0..x.dims()[mode] {
                        let mut single = factors[mode].row(i).to_vec();
                        let mut blocked = single.clone();
                        direct_update_row::<1>(&ctx, &mut scratch, i, &mut single);
                        direct_update_row::<LANES>(&ctx, &mut scratch, i, &mut blocked);
                        for (a, b) in single.iter().zip(&blocked) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "memo {memoize} stride {stride} mode {mode} row {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The Cache twin of the test above: rows of 1..=2·LANES+1 entries, so
    /// every leftover count occurs, swept at stride 1 and 3, f64 and f32
    /// elements — the block-fed row loop solves to the bits of the
    /// one-entry-at-a-time loop, and `update_row` is the `LANES`-wide one.
    #[test]
    fn cached_blocked_row_loop_is_bitwise_the_single_entry_loop() {
        let mut rng = StdRng::seed_from_u64(29);
        let rows = 2 * LANES + 1;
        let mut entries = Vec::new();
        for i in 0..rows {
            // Row `i` of mode 0 holds `i + 1` entries.
            for k in 0..=i {
                entries.push((vec![i, k % 5, (k / 5) % 3], rng.gen::<f64>() - 0.5));
            }
        }
        let x = SparseTensor::new(vec![rows, 5, 3], entries).unwrap();
        let factors: Vec<Matrix> = [rows, 5, 3]
            .iter()
            .map(|&d| {
                Matrix::from_vec(d, 3, (0..d * 3).map(|_| rng.gen::<f64>()).collect()).unwrap()
            })
            .collect();
        let core = CoreTensor::random_dense(vec![3, 3, 3], &mut rng).unwrap();
        let plan = ModeStreams::build(&x).unwrap();
        let runs = RunPlan::new(&core);
        let input = FitInput::from(&x);
        for precision in [StoragePrecision::F64, StoragePrecision::F32] {
            for stride in [1, 3] {
                let opts = FitOptions::new(vec![3, 3, 3])
                    .lambda(0.01)
                    .precision(precision)
                    .sample_stride(stride);
                let mut cached = CachedKernel::new();
                cached.prepare_fit(&input, &factors, &core, &opts).unwrap();
                let mut scratch = Scratch::for_options(&opts);
                for mode in 0..3 {
                    let ctx = ModeContext::new(&plan, &factors, &core, &runs, mode, &opts);
                    for i in 0..x.dims()[mode] {
                        let mut single = factors[mode].row(i).to_vec();
                        let mut blocked = single.clone();
                        let mut shipped = single.clone();
                        cached.update_row_lanes::<1>(&ctx, &mut scratch, i, &mut single);
                        cached.update_row_lanes::<LANES>(&ctx, &mut scratch, i, &mut blocked);
                        cached.update_row(&ctx, &mut scratch, i, &mut shipped);
                        for ((a, b), c) in single.iter().zip(&blocked).zip(&shipped) {
                            assert_eq!(
                                (a.to_bits(), a.to_bits()),
                                (b.to_bits(), c.to_bits()),
                                "{precision:?} stride {stride} mode {mode} row {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn singular_unregularized_row_reports_failure() {
        // One observed entry, λ = 0 and rank 2 ⇒ B = δδᵀ is rank-1 singular.
        let x = SparseTensor::new(vec![2, 2], vec![(vec![0, 0], 1.0)]).unwrap();
        let plan = ModeStreams::build(&x).unwrap();
        let factors = vec![
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]),
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]),
        ];
        let core = CoreTensor::dense_from_fn(vec![2, 2], |_| 1.0).unwrap();
        let runs = RunPlan::new(&core);
        let opts = FitOptions::new(vec![2, 2]).lambda(0.0);
        let ctx = ModeContext::new(&plan, &factors, &core, &runs, 0, &opts);
        let mut scratch = Scratch::for_options(&opts);
        let mut row = vec![0.5, 0.5];
        assert!(!DirectKernel.update_row(&ctx, &mut scratch, 0, &mut row));
        // With regularization the same system solves.
        let opts = FitOptions::new(vec![2, 2]).lambda(0.1);
        let ctx = ModeContext::new(&plan, &factors, &core, &runs, 0, &opts);
        let mut row = vec![0.5, 0.5];
        assert!(DirectKernel.update_row(&ctx, &mut scratch, 0, &mut row));
    }

    #[test]
    fn scratch_budget_formula_matches_buffers() {
        for j in [1usize, 3, 10] {
            let s = Scratch::new(j);
            assert_eq!(
                s.delta.len() + s.c.len() + s.b_upper.len() + s.solve.len(),
                Scratch::doubles(j)
            );
        }
    }
}
