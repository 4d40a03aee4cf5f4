//! The P-Tucker fit driver (Algorithms 2 and 3 of the paper) — **one**
//! driver for every placement.
//!
//! There is a single `run_fit`: every mode sweep iterates the
//! slice-aligned windows of a [`ptucker_tensor::SweepSource`]. Where the
//! working set lives is decided once, up front, by the [`spill_plan`] gate:
//!
//! * **All resident** — the plan, scratch arenas and the variant's
//!   auxiliary state fit the [`crate::MemoryBudget`]: the sweep source
//!   yields one zero-copy full-stream window per mode, which *is* the
//!   classic in-memory fit.
//! * **Spilled** — the plan does not fit: it is built spilled
//!   ([`ModeStreams::build_spilled`]) and windows refill pinned buffers
//!   from the scratch file — through an **N-deep prefetch ring**
//!   ([`crate::FitOptions::prefetch_depth`]) when the windows are large
//!   enough to amortize it, overlapping upcoming reads with the current
//!   window's row updates.
//! * **Disk to disk** ([`PTucker::fit_scratch`]) — the observed entries
//!   themselves never become resident: the plan is built from a
//!   [`CooScratch`] file by counting placement
//!   ([`ModeStreams::build_external`]), and every whole-tensor pass over
//!   COO (the exact residual, the core refit, the checkpoint fingerprint)
//!   walks bounded segments of it.
//!
//! The per-row kernel code, the RNG sequence, the error measurement and
//! the convergence test are byte-identical across placements, so spilled
//! fits reproduce the fully resident fit **bitwise**. Under
//! [`BudgetPolicy::Strict`] the gate is bypassed, every reservation is
//! checked, and overflow surfaces as the paper's O.O.M. outcome.
//!
//! **The Cache variant is resident-only.** Its `|Ω|×|G|` `Pres` table
//! (Theorem 6) is never spilled, so the gate always gives it the resident
//! answer: a Cache fit whose plan plus table overflow the budget fails in
//! the checked reservations with [`PtuckerError::OutOfMemory`] under
//! either policy — the paper's O.O.M. (Table III) — and a Cache fit from
//! a [`CooScratch`] is [`PtuckerError::InvalidConfig`].
//!
//! **The per-iteration error is not a pass.** Algorithm 2 line 4 measures
//! it right after mode `N−1`'s update, with the factors and core that
//! update just used — and Theorem 1's row update (Eq. 9) has then just
//! built `B_i = Σ δδᵀ` and `c_i = Σ x·δ` for every row `i` of that mode.
//! Row `i`'s squared residual is `‖x_i‖² − 2·a_i·c_i + a_iᵀ B_i a_i`, at
//! `O(J²)` per row ([`Scratch::row_sse`]); the sweep writes it into an
//! `I_N`-long [`RowSse`] buffer by global row (so windows and shards write
//! disjoint slots) and the fit loop sums the buffer in row order — the same
//! bits at every thread count, schedule, window partition and worker
//! count. The exact pass ([`sum_squared_error`]) runs only **by rule**:
//! on a `sample_stride > 1` fit (`B` and `c` are then a sample's), on an
//! `f32`-storage fit (the plan's values are quantized, the error is
//! defined on the `f64` entries), and whenever the folded sum fails the
//! cancellation guard (negative, or below `2⁻²⁰·Σx²` — a near-perfect
//! fit). `final_error` is always the exact pass, after QR.
//!
//! Each whole-tensor pass is written **once**, over the statically blocked
//! [`FitInput::fold_entries`] — the same bits from a resident tensor and a
//! scratch file, under every [`FitOptions::schedule`] (which steers only
//! the `|Ω_i|`-skewed row sweeps). The exact reconstruction-error pass
//! reads only COO and the model — never the plan or a window — so spilled
//! fits compute the residual without materializing anything; its inner
//! loop is the run-blocked [`RunPlan::reconstruct`] micro-kernel.
//!
//! **Approx truncation is a driver step** (Algorithm 2 lines 5–6), not a
//! kernel: the Approx variant sweeps rows with [`DirectKernel`], and after
//! each iteration's error the driver ranks the core entries by `R(β)` on
//! the model that error was measured on and drops the noisiest `p·|G|` of
//! them. The ranking is the one whole-tensor pass that walks the plan
//! instead of COO: `R(β)` factors through the tail factor, so
//! [`crate::approx::partial_errors`] is one walk of mode `N−1`'s stream
//! through the fit's own sweep source, windowed like a sweep and bitwise
//! the same on every placement.
//!
//! The driver also owns the one piece of state *derived from the model*:
//! the core's [`RunPlan`] (`FitRuns`), built once per core and borrowed by
//! every sweep, window and exact error pass, carrying the **tail-dot table**
//! whenever the size rule (`tail_table_bytes`) and the budget admit it —
//! refreshed after mode `N−1`'s update, after a truncation, after a resume
//! and after the final QR; never checkpointed.

use crate::checkpoint::FitCheckpoint;
use crate::delta::{solve_row, ResidualLanes, RunPlan, LANES, MAX_PREFIX_ORDER};
use crate::engine::{CachedKernel, DirectKernel, ModeContext, RowUpdateKernel, Scratch};
use crate::sync::{FitSync, LocalSync, Resweep, RowSse};
use crate::{
    approx, FitInput, FitOptions, FitResult, FitStats, IterStats, PtuckerError, Result,
    StoragePrecision, TuckerDecomposition, Variant,
};
use ptucker_linalg::Matrix;
use ptucker_memtrack::{BudgetPolicy, Reservation};
use ptucker_sched::{parallel_rows_mut_scheduled, try_reduce_blocks};
use ptucker_tensor::{CooScratch, CoreTensor, ModeStreams, SparseTensor, SweepSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Below this many bytes per window read, the background prefetch worker
/// costs more than the read it hides: windows smaller than this are read
/// synchronously even when `FitOptions::prefetch` is on. The dominant
/// small-window cost is not the hand-off latency but the *doubled window
/// count* — halving the capacity for the second buffer doubles every
/// per-window fixed cost (scoped sweep-thread spawns, window splicing)
/// while a page-cached refill is nearly free. Measured on the
/// `windowed_fit_prefetch` fixture, ~60 KiB double-buffered windows
/// still lost 6% to the single buffer; 128 KiB is past that crossover
/// with margin.
const PREFETCH_MIN_WINDOW_BYTES: usize = 128 << 10;

/// The prefetch ring can only pay when the background refill rides a CPU
/// the sweep is not using: with a single hardware thread the refill
/// merely timeshares and every prefetched window is pure overhead, so
/// prefetch auto-disables. (Purely a scheduling choice — window contents
/// are bitwise identical either way.)
fn prefetch_has_spare_cpu() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
}

/// The P-Tucker solver: scalable Tucker factorization for sparse tensors.
///
/// Construct with validated [`FitOptions`], then call [`PTucker::fit`] on a
/// [`SparseTensor`]. See the crate docs for a complete example.
#[derive(Debug, Clone)]
pub struct PTucker {
    opts: FitOptions,
}

impl PTucker {
    /// Creates a solver after validating the options.
    ///
    /// # Errors
    /// [`PtuckerError::InvalidConfig`] for inconsistent options.
    pub fn new(opts: FitOptions) -> Result<Self> {
        opts.validate()?;
        Ok(PTucker { opts })
    }

    /// The solver's configuration.
    pub fn options(&self) -> &FitOptions {
        &self.opts
    }

    /// Runs Algorithm 2: random initialization, iterated fully-parallel
    /// row-wise factor updates until the reconstruction error converges
    /// (or `max_iters`), then QR orthogonalization with the matching core
    /// update.
    ///
    /// When the in-memory working set — the execution plan, the scratch
    /// arenas and the folded error's row buffer — exceeds the
    /// [`crate::MemoryBudget`] and the budget's policy is
    /// `BudgetPolicy::Spill` (the default), the fit transparently runs
    /// **out of core**: the plan moves to a scratch file and every mode
    /// sweep proceeds over slice-aligned windows, reproducing the fully
    /// resident fit's trajectory exactly.
    /// `FitStats::peak_spilled_bytes` reports the disk footprint. Under
    /// `BudgetPolicy::Strict` overflow stays fatal, as the paper's
    /// O.O.M. experiments require. The Cache variant never spills: its
    /// `|Ω|×|G|` table either fits with the plan or the fit is O.O.M.
    /// under both policies.
    ///
    /// # Errors
    /// * [`PtuckerError::InvalidConfig`] if the options do not match `x`'s
    ///   shape.
    /// * [`PtuckerError::OutOfMemory`] if intermediate data exceed the
    ///   budget under `BudgetPolicy::Strict`, or a Cache fit's plan and
    ///   table exceed it under either policy.
    /// * [`PtuckerError::Tensor`] if scratch-file I/O fails on a spilled
    ///   path.
    /// * [`PtuckerError::Linalg`] on numerically fatal systems (only
    ///   possible with `lambda == 0`).
    pub fn fit(&self, x: &SparseTensor) -> Result<FitResult> {
        self.fit_with_sync(x, &mut LocalSync)
    }

    /// Like [`PTucker::fit`], but with [`FitSync`] hooks at the fit's
    /// coordination points — how the `ptucker-shard` **worker** runs its
    /// shard of a distributed fit (the variant's real kernel, a
    /// restricted row range per mode, factors all-reduced through the
    /// hooks). With [`LocalSync`] this *is* `fit`.
    ///
    /// # Errors
    /// Everything [`PTucker::fit`] returns, plus whatever the hooks
    /// surface (typically [`PtuckerError::Sync`]).
    pub fn fit_with_sync<S: FitSync>(&self, x: &SparseTensor, sync: &mut S) -> Result<FitResult> {
        self.fit_with_sync_resume(x, sync, None)
    }

    /// Like [`PTucker::fit_with_sync`], but continuing from an in-memory
    /// [`FitCheckpoint`] instead of (or in addition to)
    /// `FitOptions::resume_from` — how a fault-tolerant coordinator seeds
    /// a respawned `ptucker-shard` worker from checkpoint *bytes* it
    /// serialized itself, with no file round trip. When `resume` is
    /// `Some` it takes precedence over `resume_from`.
    ///
    /// # Errors
    /// Everything [`PTucker::fit_with_sync`] returns, plus
    /// [`PtuckerError::Checkpoint`] if the checkpoint does not belong to
    /// this exact fit (fingerprint or shape mismatch).
    pub fn fit_with_sync_resume<S: FitSync>(
        &self,
        x: &SparseTensor,
        sync: &mut S,
        resume: Option<FitCheckpoint>,
    ) -> Result<FitResult> {
        self.opts.validate_for(x.dims())?;
        self.dispatch_fit(&FitInput::Resident(x), sync, resume)
    }

    /// Runs the fit **disk-to-disk**: the observed entries stay in `src`'s
    /// scratch file, the execution plan is built from it by counting
    /// placement ([`ModeStreams::build_external`] — one counting scan,
    /// then per mode one scan placing records through a budget-bounded
    /// arena, with I/O linear in `|Ω|`), and every
    /// whole-tensor pass
    /// (the residual, the Approx `R(β)` ranking, the core refit, the
    /// checkpoint fingerprint) walks bounded COO segments. Resident memory
    /// is bounded by the budget regardless of `|Ω|`; the trajectory is
    /// **bitwise identical** to [`PTucker::fit`] on the same entries.
    ///
    /// # Errors
    /// Everything [`PTucker::fit`] returns, plus
    /// [`PtuckerError::InvalidConfig`] under `BudgetPolicy::Strict` — the
    /// Strict regime declares everything resident, which a scratch-file
    /// input can never be — and for the Cache variant, whose
    /// resident-only `Pres` table indexes a resident tensor.
    pub fn fit_scratch(&self, src: &CooScratch) -> Result<FitResult> {
        self.fit_scratch_with_sync(src, &mut LocalSync)
    }

    /// [`PTucker::fit_scratch`] with [`FitSync`] hooks at the fit's
    /// coordination points (see [`PTucker::fit_with_sync`]).
    ///
    /// # Errors
    /// Everything [`PTucker::fit_scratch`] returns, plus whatever the
    /// hooks surface.
    pub fn fit_scratch_with_sync<S: FitSync>(
        &self,
        src: &CooScratch,
        sync: &mut S,
    ) -> Result<FitResult> {
        self.fit_scratch_with_sync_resume(src, sync, None)
    }

    /// [`PTucker::fit_scratch_with_sync`] continuing from an in-memory
    /// [`FitCheckpoint`] (see [`PTucker::fit_with_sync_resume`]). The
    /// fingerprint hashes the scratch file's entries to the value a
    /// resident tensor of them gives, so checkpoints written by a
    /// resident fit of the same entries resume a disk-to-disk fit and
    /// vice versa.
    ///
    /// # Errors
    /// Everything [`PTucker::fit_scratch_with_sync`] returns, plus
    /// [`PtuckerError::Checkpoint`] on fingerprint/shape mismatch.
    pub fn fit_scratch_with_sync_resume<S: FitSync>(
        &self,
        src: &CooScratch,
        sync: &mut S,
        resume: Option<FitCheckpoint>,
    ) -> Result<FitResult> {
        self.opts.validate_for(src.dims())?;
        self.dispatch_fit(&FitInput::Scratch(src), sync, resume)
    }

    /// The only kernel dispatch in the solver: pick the kernel once and
    /// monomorphize the whole fit loop over it. Approx sweeps with the
    /// Direct kernel; its truncation is the driver's (see the module docs).
    fn dispatch_fit<S: FitSync>(
        &self,
        input: &FitInput<'_>,
        sync: &mut S,
        resume: Option<FitCheckpoint>,
    ) -> Result<FitResult> {
        let opts = &self.opts;
        match opts.variant {
            Variant::Default | Variant::Approx { .. } => {
                run_fit(input, opts, DirectKernel, sync, resume)
            }
            Variant::Cache => run_fit(input, opts, CachedKernel::new(), sync, resume),
        }
    }

    /// Like [`PTucker::fit_with_sync`], but with an explicit
    /// [`RowUpdateKernel`] instead of the variant dispatch — how the
    /// `ptucker-shard` **coordinator** joins the lockstep replica run
    /// without paying for per-row state it never sweeps (its row ranges
    /// are empty, so it runs [`DirectKernel`] even under
    /// [`Variant::Cache`], skipping the `|Ω|×|G|` table entirely). The
    /// Approx truncation follows `opts.variant` whatever the kernel, so
    /// every replica makes the same truncation decisions.
    ///
    /// # Errors
    /// Everything [`PTucker::fit_with_sync`] returns.
    pub fn fit_with_kernel<K: RowUpdateKernel, S: FitSync>(
        &self,
        x: &SparseTensor,
        kernel: K,
        sync: &mut S,
    ) -> Result<FitResult> {
        self.fit_with_kernel_resume(x, kernel, sync, None)
    }

    /// [`PTucker::fit_with_kernel`] continuing from an in-memory
    /// [`FitCheckpoint`] (see [`PTucker::fit_with_sync_resume`]). The
    /// checkpoint's `kernel_aux` must match `kernel` — a coordinator
    /// substituting [`DirectKernel`] under [`Variant::Cache`] clears the
    /// aux section before resuming, since it never owns the table the
    /// aux bytes describe.
    ///
    /// # Errors
    /// Everything [`PTucker::fit_with_kernel`] returns, plus
    /// [`PtuckerError::Checkpoint`] on fingerprint/shape/aux mismatch.
    pub fn fit_with_kernel_resume<K: RowUpdateKernel, S: FitSync>(
        &self,
        x: &SparseTensor,
        kernel: K,
        sync: &mut S,
        resume: Option<FitCheckpoint>,
    ) -> Result<FitResult> {
        let opts = &self.opts;
        opts.validate_for(x.dims())?;
        run_fit(&FitInput::Resident(x), opts, kernel, sync, resume)
    }
}

/// Bytes the fit keeps resident regardless of the spill decision: the
/// mode-major plan, the per-thread scratch arenas (Theorem 4), the folded
/// error's per-row buffer, and the Approx variant's per-thread `R(β)`
/// buffers (tiny; not worth a spilled representation).
fn resident_floor_bytes(dims: &[usize], nnz: usize, opts: &FitOptions) -> usize {
    let j_max = opts.ranks.iter().copied().max().unwrap_or(1);
    let scratch = opts.threads * Scratch::doubles(j_max) * 8;
    let aux = ranking_doubles(opts) * 8;
    ModeStreams::bytes_for_dims(dims, nnz, opts.precision)
        .saturating_add(scratch)
        .saturating_add(row_sse_bytes(dims, opts))
        .saturating_add(aux)
}

/// The rate the driver truncates the core at after every iteration
/// (Algorithm 2 lines 5–6): `Some` only for `Approx { rate > 0 }` — at rate
/// 0 nothing is ranked, so the degenerate variant is the Direct fit, peak
/// memory included.
fn truncation_rate(opts: &FitOptions) -> Option<f64> {
    match opts.variant {
        Variant::Approx { truncation_rate } if truncation_rate > 0.0 => Some(truncation_rate),
        _ => None,
    }
}

/// Doubles of the `R(β)` ranking's per-thread buffers (0 when the fit never
/// truncates): one worker's state of [`approx::partial_errors`] per thread.
fn ranking_doubles(opts: &FitOptions) -> usize {
    match truncation_rate(opts) {
        Some(_) => opts.threads * approx::worker_doubles(&opts.ranks),
        None => 0,
    }
}

/// Where the per-iteration error comes from — a rule, not an option: it
/// folds into mode `N−1`'s normal equations unless the fit samples its
/// rows' entries (`sample_stride > 1`: `B` and `c` are then a sample's, not
/// the row's) or stores `f32` values (the plan's values are quantized once
/// at build, while the error is defined on the `f64` entries — a ~1e-6
/// relative gap). Those fits keep the exact pass.
fn folds_error(opts: &FitOptions) -> bool {
    opts.sample_stride <= 1 && opts.precision == StoragePrecision::F64
}

/// Bytes of the folded error's per-row buffer: one double per row of mode
/// `N−1`, or 0 when [`folds_error`] says the exact pass runs instead.
fn row_sse_bytes(dims: &[usize], opts: &FitOptions) -> usize {
    match dims.last() {
        Some(&rows) if folds_error(opts) => rows * std::mem::size_of::<f64>(),
        _ => 0,
    }
}

/// The cancellation guard on the folded error: a sum of row residuals
/// below `2⁻²⁰·Σx²` (a near-perfect fit) is mostly the rounding of the
/// `‖x_i‖² − 2·a_i·c_i + a_iᵀ B_i a_i` cancellation, so such an iteration
/// takes the exact pass.
const FOLD_GUARD: f64 = 1.0 / (1u64 << 20) as f64;

/// The per-iteration error folded into mode `N−1`'s normal equations (see
/// the module docs): the per-row buffer the last mode's sweep fills, the
/// guard's scale `Σx²`, and the buffer's booking on the budget.
struct FoldedError {
    rows: RowSse,
    sum_sq: f64,
    _booking: Reservation,
}

impl FoldedError {
    /// The iteration's sum of squared residuals, summed in row order — or
    /// `None` when the guard sends it to the exact pass (negative, NaN, or
    /// below [`FOLD_GUARD`]`·Σx²`).
    fn sse(&self) -> Option<f64> {
        let sse = self.rows.total();
        (sse >= FOLD_GUARD * self.sum_sq).then_some(sse)
    }
}

/// Bytes of the Cache variant's `|Ω|×|G|` table (0 for the other
/// variants). Scales with the fit's storage precision: an f32 table is
/// half the footprint, which is exactly how `StoragePrecision::F32`
/// doubles the budget's reach before a Cache fit is O.O.M.
fn table_bytes(nnz: usize, opts: &FitOptions) -> usize {
    match opts.variant {
        Variant::Cache => {
            let g: usize = opts.ranks.iter().product();
            nnz.saturating_mul(g) * opts.precision.value_bytes()
        }
        _ => 0,
    }
}

/// Bytes the fully resident fit will reserve up front for `x` under
/// `opts` — the placement gate's all-resident threshold: the exact
/// boundary below which a Spill-policy budget starts spilling, or, for
/// the Cache variant, below which the fit is O.O.M.
pub(crate) fn in_memory_bytes(dims: &[usize], nnz: usize, opts: &FitOptions) -> usize {
    resident_floor_bytes(dims, nnz, opts).saturating_add(table_bytes(nnz, opts))
}

/// Bytes of the tail-dot table `T[i_N][r]` a fit of this shape would
/// memoize (`I_N · Π_{k<N} J_k` doubles — the initial dense core has the
/// most runs a core of these ranks can have, so this bounds every later,
/// truncated one), or 0 when the size rule says not to: the table is used
/// iff `2 ≤ N ≤ 16` (the run-blocked kernel's orders) and it holds **no
/// more than one double per observed entry**, which keeps the derived data
/// within the order of the plan the engine already books. Whether the
/// budget then accepts the booking is the driver's second test; a refused
/// table costs nothing but the speedup — the lookup falls back to the
/// per-entry `dot` that would have filled it.
pub(crate) fn tail_table_bytes(dims: &[usize], nnz: usize, ranks: &[usize]) -> usize {
    let order = dims.len();
    if !(2..=MAX_PREFIX_ORDER).contains(&order) {
        return 0;
    }
    let n_runs = ranks[..order - 1]
        .iter()
        .fold(1usize, |p, &j| p.saturating_mul(j));
    match dims[order - 1].checked_mul(n_runs) {
        Some(cells) if cells <= nnz => cells * std::mem::size_of::<f64>(),
        _ => 0,
    }
}

/// The driver's owner of the state derived from the model's core: the
/// [`RunPlan`] every sweep, window and error pass borrows, and the budget's
/// booking of its tail-dot table (`None`: the size rule or the budget
/// refused it, and the plan stays unmemoized for the whole fit).
struct FitRuns {
    plan: RunPlan,
    table: Option<Reservation>,
}

impl FitRuns {
    fn new(
        core: &CoreTensor,
        factors: &[Matrix],
        table: Option<Reservation>,
        threads: usize,
    ) -> Self {
        let mut runs = FitRuns {
            plan: RunPlan::new(core),
            table,
        };
        runs.refresh(false, core, factors, threads);
        runs
    }

    /// Brings the derived state up to date after one of its inputs
    /// changed: the core (`core_changed` — its run structure is rebuilt)
    /// or the tail factor `factors[N−1]` (the table alone is refilled).
    fn refresh(
        &mut self,
        core_changed: bool,
        core: &CoreTensor,
        factors: &[Matrix],
        threads: usize,
    ) {
        if core_changed {
            self.plan = RunPlan::new(core);
        }
        if self.table.is_some() {
            self.plan
                .memoize_tail(core, &factors[factors.len() - 1], threads);
        }
    }
}

/// The placement gate: whether the execution plan spills to a scratch
/// file. It does when the plan cannot be resident — a disk-resident input,
/// whose plan can only come from the external build — or when the fully
/// resident working set overflows a Spill-policy budget. Under
/// [`BudgetPolicy::Strict`] everything is declared resident, and so is
/// every Cache fit: the checked reservations downstream then produce the
/// paper's O.O.M. outcome.
fn spill_plan(input: &FitInput<'_>, opts: &FitOptions) -> bool {
    if opts.budget.policy() != BudgetPolicy::Spill || opts.variant == Variant::Cache {
        return false;
    }
    input.resident().is_none()
        || !opts
            .budget
            .would_fit(in_memory_bytes(input.dims(), input.nnz(), opts))
}

/// The kernel-generic fit driver (Algorithm 2, with the variant behavior
/// factored into `K`'s hooks) — the **only** fit driver: mode sweeps
/// iterate a [`SweepSource`], so resident and spilled fits run the same
/// loop (a resident fit's sweep is one full-stream window per mode).
fn run_fit<K: RowUpdateKernel, S: FitSync>(
    input: &FitInput<'_>,
    opts: &FitOptions,
    mut kernel: K,
    sync: &mut S,
    resume: Option<FitCheckpoint>,
) -> Result<FitResult> {
    if input.resident().is_none() && opts.budget.policy() != BudgetPolicy::Spill {
        return Err(PtuckerError::InvalidConfig(
            "a disk-resident COO source requires BudgetPolicy::Spill — the Strict policy \
             declares everything resident, which a scratch-file input can never be"
                .into(),
        ));
    }
    if input.resident().is_none() && opts.variant == Variant::Cache {
        return Err(PtuckerError::InvalidConfig(
            "the Cache variant's Pres table is resident-only and indexes a resident tensor — \
             fit a COO scratch source with the Default or Approx variant"
                .into(),
        ));
    }
    let t_start = Instant::now();
    let dims = input.dims();
    let order = input.order();
    let nnz = input.nnz();

    // Step 1: random initialization in [0, 1) (Algorithm 2 line 1).
    let (mut factors, mut core) = init_model(dims, opts)?;

    opts.budget.reset_peak();
    let io_read0 = opts.budget.io_read_bytes();
    let io_write0 = opts.budget.io_write_bytes();
    let spill = spill_plan(input, opts);

    // The mode-major execution plan: one streamed slice layout per mode,
    // derived from COO once per fit so every row sweep walks contiguous
    // values/indices instead of gathering through entry ids. Metered
    // before building — `O(N·|Ω|)` words. Classification note: Definition 7
    // excludes the tensor itself from intermediate-data accounting, and the
    // baselines apply that reading to their own tensor re-layouts (CSF's
    // compressed tree, S-HOT's streams) so the cross-method O.O.M.
    // boundaries keep Table III's meaning. The engine deliberately takes
    // the *stricter* reading for its own plan: it is per-fit derived data
    // the budget must be able to refuse, so P-Tucker's reported peak (and
    // OOM boundary) includes it. A spilled plan books its resident floor
    // (the slice offsets) unchecked and its file bytes on the spill meter.
    let mut plan_reservation = None;
    let plan = match input {
        // Disk-resident entries: the plan can only come from the external
        // build — slice sizes counted off the scratch file, then every
        // record placed straight into the spilled stream layout.
        FitInput::Scratch(src) => {
            ModeStreams::build_external_at(src, &opts.budget, opts.precision)?
        }
        FitInput::Resident(x) if spill => {
            ModeStreams::build_spilled_at(x, &opts.budget, opts.precision)?
        }
        FitInput::Resident(x) => {
            plan_reservation = Some(
                opts.budget
                    .reserve(ModeStreams::bytes_for_at(x, opts.precision))?,
            );
            ModeStreams::build_at(x, opts.precision)?
        }
    };
    let _plan_reservation = plan_reservation;

    // Allocate one scratch arena per worker thread, once for the whole fit;
    // every row of every mode of every iteration reuses them. Metered as
    // Theorem 4's per-thread intermediates: δ, c (J) and B, solve
    // workspace (J²) per thread — checked while anything is resident,
    // an unchecked part of the irreducible floor once the plan spilled.
    let j_max = opts.ranks.iter().copied().max().unwrap_or(1);
    let scratch_doubles = opts.threads * Scratch::doubles(j_max);
    let _row_scratch = if spill {
        opts.budget.reserve_unchecked(scratch_doubles * 8)
    } else {
        opts.budget.reserve_f64(scratch_doubles)?
    };
    let mut scratch_pool: Vec<Scratch> = (0..opts.threads.max(1))
        .map(|_| Scratch::new(j_max))
        .collect();

    // The folded error's per-row buffer (`I_N` doubles), booked like the
    // arenas: part of the resident floor.
    let folded = if folds_error(opts) {
        let bytes = row_sse_bytes(dims, opts);
        Some(FoldedError {
            rows: RowSse::new(dims[order - 1]),
            sum_sq: input.sum_sq(),
            _booking: if spill {
                opts.budget.reserve_unchecked(bytes)
            } else {
                opts.budget.reserve(bytes)?
            },
        })
    } else {
        None
    };

    // The tail-dot table (`tail_table_bytes`: at most one double per
    // observed entry, usually kilobytes). On a windowed fit it joins the
    // out-of-core floor here, before the window capacity is cut from what
    // is left, so the windows shrink by it instead of the peak growing. A
    // resident fit books it *after* the kernel's own checked reservations
    // (below), out of whatever they left: a budget that fitted the fit
    // before still fits it, without the table.
    let tail_bytes = tail_table_bytes(dims, nnz, &opts.ranks);
    let mut tail_booking =
        (spill && tail_bytes > 0).then(|| opts.budget.reserve_unchecked(tail_bytes));

    // Window capacity from what is left of the budget. Each windowed
    // stream position costs its spilled record (value + packed indices).
    // A slice larger than the capacity is still taken whole —
    // windows are slice-aligned — so pinned buffers are sized for the
    // larger of the two. With prefetch the plan buffer exists once per
    // ring slot, so the per-position cost multiplies and the capacity
    // divides accordingly — the buffers together fit the remaining
    // budget, they don't overshoot it; prefetch only engages if the
    // divided windows still clear the amortization threshold.
    let stream_pos_bytes = ModeStreams::spilled_record_bytes(order, opts.precision);
    let cap_for = |buffer_copies: usize| {
        (opts.budget.available() / (buffer_copies * stream_pos_bytes)).max(1)
    };
    // Ring depth: the deepest depth in `2..=prefetch_depth` whose windows
    // (at `1/depth` of the single-buffer capacity) still clear the
    // amortization threshold, else 1 (no prefetch). Self-clamping — a
    // depth the budget can't afford windows for simply isn't chosen — so
    // raising `prefetch_depth` can widen the read-ahead but never shrink
    // windows below the profitable floor.
    let depth = if spill && opts.prefetch && prefetch_has_spare_cpu() {
        (2..=opts.prefetch_depth.max(1))
            .rev()
            .find(|&d| cap_for(d).saturating_mul(stream_pos_bytes) >= PREFETCH_MIN_WINDOW_BYTES)
            .unwrap_or(1)
    } else {
        1
    };
    let (cap, prefetch) = if spill {
        (cap_for(depth), depth >= 2)
    } else {
        (usize::MAX, false)
    };
    let _window_buffers = spill.then(|| {
        let buf_positions = cap.max(plan.max_slice_len()).min(nnz.max(1));
        opts.budget
            .reserve_unchecked(depth * buf_positions * stream_pos_bytes)
    });
    // The fit's one sweep source: pinned ring buffers (if any) are
    // allocated here, sized for any mode, and rewound for every sweep of
    // every iteration.
    let mut sweep = plan.sweep_source_deep(0, cap, depth);

    // Kernel-specific setup: the Cache variant computes its |Ω|×|G|
    // table here (Algorithm 3 lines 1–4) — the checked reservation that
    // is the paper's O.O.M. when the table does not fit.
    kernel.prepare_fit(input, &factors, &core, opts)?;
    // The truncation step's per-thread R(β) buffers, booked like the
    // arenas: checked while anything is resident, an unchecked part of the
    // out-of-core floor once the plan spilled.
    let ranking_booking = match ranking_doubles(opts) {
        0 => None,
        doubles if spill => Some(opts.budget.reserve_unchecked(doubles * 8)),
        doubles => Some(opts.budget.reserve_f64(doubles)?),
    };
    if !spill && tail_bytes > 0 {
        tail_booking = opts.budget.reserve(tail_bytes).ok();
    }

    let mut iterations: Vec<IterStats> = Vec::with_capacity(opts.max_iters);
    let mut prev_err = f64::INFINITY;
    let mut converged = false;
    let mut start_iter = 0usize;

    // The configuration fingerprint ties a checkpoint to this exact fit.
    // It hashes every observed entry, so it is computed at most once:
    // eagerly when the options say checkpoints are in play, lazily if
    // only the sync layer asks for a snapshot (`FitSync::end_iter`).
    let mut fingerprint: Option<u64> =
        if resume.is_some() || opts.checkpoint_path.is_some() || opts.resume_from.is_some() {
            Some(FitCheckpoint::fingerprint(input, opts)?)
        } else {
            None
        };

    // Resume: the fit ran its full initialization above — same RNG
    // sequence, same placement, same kernel layout — and now overwrites
    // the model state with the checkpoint's. `load_aux` runs after
    // `prepare_fit` so the kernel's structures are already sized; the
    // import replaces the freshly built Cache table's elements with the
    // checkpoint's exact (incrementally rescaled) values — which a
    // rebuild from the checkpointed factors could *not* reproduce bitwise.
    let resume = match resume {
        Some(ckpt) => Some(ckpt),
        None => match &opts.resume_from {
            Some(path) => Some(FitCheckpoint::load(path)?),
            None => None,
        },
    };
    if let Some(ckpt) = resume {
        let want = fingerprint.expect("computed above whenever a resume is present");
        if ckpt.fingerprint != want {
            return Err(PtuckerError::Checkpoint(format!(
                "checkpoint was written by a different fit (its fingerprint {:#018x}, this \
                 fit's {:#018x}) — tensor, ranks, seed, variant, precision, λ or stride \
                 disagree",
                ckpt.fingerprint, want
            )));
        }
        if ckpt.factors.len() != order
            || ckpt
                .factors
                .iter()
                .zip(dims.iter().zip(&opts.ranks))
                .any(|(m, (&d, &r))| m.rows() != d || m.cols() != r)
        {
            return Err(PtuckerError::Checkpoint(
                "checkpointed factor shapes do not match this fit".into(),
            ));
        }
        factors = ckpt.factors;
        core = ckpt.core;
        kernel.load_aux(&plan, &ckpt.kernel_aux)?;
        prev_err = ckpt.prev_err;
        iterations = ckpt.iterations;
        start_iter = ckpt.next_iter;
    }

    // Derived from the model the loop starts from — the fresh
    // initialization or the checkpoint's — and never saved.
    let mut runs = FitRuns::new(&core, &factors, tail_booking, opts.threads);

    for iter in start_iter..opts.max_iters {
        let t_iter = Instant::now();

        // Step 2-3: update factor matrices (Algorithm 2 line 3 /
        // Algorithm 3).
        for n in 0..order {
            sync.begin_mode(iter, n)?;
            kernel.prepare_mode(&factors, n)?;
            update_factor(
                dims[n],
                &mut factors,
                n,
                &core,
                &runs.plan,
                opts,
                &kernel,
                &mut scratch_pool,
                &mut sweep,
                sync,
                folded.as_ref().filter(|_| n == order - 1).map(|f| &f.rows),
            )?;
            if n == order - 1 {
                // The tail factor moved: the table every other mode's
                // sweep and the error pass look up is refilled from it.
                runs.refresh(false, &core, &factors, opts.threads);
            }
            kernel.post_mode(input, &factors, n, &core, opts)?;
        }

        // Step 4: reconstruction error (Algorithm 2 line 4). Folded: the
        // row-order sum of the residuals mode N−1's sweep just left in the
        // per-row buffer — no pass over the entries. By rule (stride or
        // precision, or the cancellation guard) the exact pass instead,
        // statically blocked (Section III-D) and COO-based on every
        // placement. Either way window-independent, which the bitwise
        // spilled ≡ resident guarantee depends on.
        let sse = match folded.as_ref().and_then(FoldedError::sse) {
            Some(sse) => sse,
            None => sum_squared_error(input, &factors, &core, &runs.plan, opts.threads)?,
        };
        let err = sse.sqrt();

        // Step 5: Approx truncation (Algorithm 2 lines 5–6), ranked by
        // R(β) on the model the error above was measured on — one walk of
        // mode N−1's stream through the fit's own sweep source, its tail
        // dots looked up in the table refreshed after that mode — and the
        // state derived from the core follows it.
        if let Some(rate) = truncation_rate(opts) {
            let r = approx::partial_errors(&mut sweep, &factors, &core, &runs.plan, opts.threads)?;
            if approx::truncate_noisy(&mut core, &r, rate) > 0 {
                runs.refresh(true, &core, &factors, opts.threads);
            }
        }

        iterations.push(IterStats {
            iter,
            reconstruction_error: err,
            seconds: t_iter.elapsed().as_secs_f64(),
            core_nnz: core.nnz(),
        });

        // Convergence on relative error change (Algorithm 2 line 7).
        if err.is_finite()
            && prev_err.is_finite()
            && (prev_err - err).abs() <= opts.tol * prev_err.max(f64::EPSILON)
        {
            converged = true;
            break;
        }
        prev_err = err;

        // Iteration-boundary fault tolerance: persist a checkpoint at the
        // configured cadence, then give the sync layer an on-demand
        // serializer (a fault-tolerant coordinator seeds respawned
        // workers with it). A converged iteration breaks above and never
        // checkpoints — resuming re-runs the converging iteration
        // deterministically and stops at the same place. The snapshot is
        // the fit's full state: the model, the convergence bookkeeping and
        // the kernel's auxiliary state (the Cache variant's incrementally
        // rescaled `Pres` table, which no rebuild reproduces bitwise).
        let mut snapshot = || -> Result<FitCheckpoint> {
            let fingerprint = match fingerprint {
                Some(fp) => fp,
                None => *fingerprint.insert(FitCheckpoint::fingerprint(input, opts)?),
            };
            let mut kernel_aux = Vec::new();
            kernel.save_aux(&plan, &mut kernel_aux)?;
            Ok(FitCheckpoint {
                fingerprint,
                next_iter: iter + 1,
                prev_err,
                iterations: iterations.clone(),
                factors: factors.clone(),
                core: core.clone(),
                kernel_aux,
            })
        };
        if let Some(path) = &opts.checkpoint_path {
            if (iter + 1) % opts.checkpoint_every.max(1) == 0 {
                snapshot()?.store(path)?;
            }
        }
        sync.end_iter(iter, &mut || snapshot().map(|c| c.encode()))?;
    }
    // Release kernel state (notably the Cache table and its budget
    // reservation), the arenas and the sweep buffers before the
    // post-processing phase, like the paper's Algorithm 3 which frees
    // Pres after the iterations.
    drop(kernel);
    drop(ranking_booking);
    drop(scratch_pool);
    drop(sweep);
    drop(folded);

    finish_fit(
        input, factors, core, runs, opts, iterations, converged, prefetch, io_read0, io_write0,
        t_start, sync,
    )
}

/// The post-iteration phase: QR orthogonalization with the matching core
/// update (Algorithm 2 lines 8–11: A⁽ⁿ⁾ = Q⁽ⁿ⁾R⁽ⁿ⁾, A⁽ⁿ⁾ ← Q⁽ⁿ⁾,
/// G ← G ×ₙ R⁽ⁿ⁾ — reconstruction preserved exactly), the optional
/// observed-entry core refit extension, the final error measurement, and
/// the stats assembly.
#[allow(clippy::too_many_arguments)]
fn finish_fit<S: FitSync>(
    input: &FitInput<'_>,
    mut factors: Vec<Matrix>,
    mut core: CoreTensor,
    mut runs: FitRuns,
    opts: &FitOptions,
    iterations: Vec<IterStats>,
    converged: bool,
    prefetch_engaged: bool,
    io_read0: u64,
    io_write0: u64,
    t_start: Instant,
    sync: &mut S,
) -> Result<FitResult> {
    for (n, factor) in factors.iter_mut().enumerate() {
        let qr = factor.qr()?;
        let (q, r) = qr.into_parts();
        *factor = q;
        core.mode_product_in_place(n, &r, 0.0)?;
    }

    if opts.refit_core {
        refit_core_observed(input, &factors, &mut core, opts.threads)?;
    }

    // QR rewrote every factor and the core with them.
    runs.refresh(true, &core, &factors, opts.threads);
    let final_error = sum_squared_error(input, &factors, &core, &runs.plan, opts.threads)?.sqrt();
    let mut stats = FitStats {
        iterations,
        converged,
        total_seconds: t_start.elapsed().as_secs_f64(),
        peak_intermediate_bytes: opts.budget.peak(),
        peak_spilled_bytes: opts.budget.peak_spilled(),
        final_error,
        bytes_sent: 0,
        bytes_received: 0,
        io_read_bytes: opts.budget.io_read_bytes().saturating_sub(io_read0),
        io_write_bytes: opts.budget.io_write_bytes().saturating_sub(io_write0),
        prefetch_engaged,
    };
    sync.finish(&mut stats)?;
    Ok(FitResult {
        decomposition: TuckerDecomposition { factors, core },
        stats,
    })
}

/// The fit's starting model (Algorithm 2 line 1): factor matrices and a
/// dense core with entries in `[0, 1)`, drawn from `opts.seed`.
fn init_model(dims: &[usize], opts: &FitOptions) -> Result<(Vec<Matrix>, CoreTensor)> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let factors = dims
        .iter()
        .zip(&opts.ranks)
        .map(|(&i_n, &j_n)| {
            let data: Vec<f64> = (0..i_n * j_n).map(|_| rng.gen::<f64>()).collect();
            Matrix::from_vec(i_n, j_n, data).expect("length matches by construction")
        })
        .collect();
    let core = CoreTensor::random_dense(opts.ranks.clone(), &mut rng)?;
    Ok((factors, core))
}

/// Updates one factor matrix with the row-wise rule (Algorithm 3 lines
/// 5–15), sweeping the mode's [`SweepSource`] window by window — one
/// zero-copy full-stream window on a resident plan, budget-sized
/// pinned-buffer refills on a spilled one. Windows load sequentially
/// (with prefetch, overlapped with the next window's read); rows **within** a
/// window update fully in parallel, each worker thread reusing one
/// [`Scratch`] arena from `scratch_pool` — the loop performs no heap
/// allocation.
///
/// Scheduling: [`crate::Schedule::Dynamic`] pulls row chunks from a shared queue
/// (the paper's Section III-D answer to slice-size skew);
/// [`crate::Schedule::Static`] partitions rows into contiguous blocks balanced
/// by `|Ω⁽ⁿ⁾ᵢ|` — the same imbalance fix without queue contention. Rows
/// are independent and each row's arithmetic is self-contained, so every
/// schedule and every window partition produces identical factors.
/// One restricted row sweep of `mode`: window-by-window kernel row
/// updates for `rows`, written into the full factor buffer `data`
/// (`i_n × j_n`, row-major — window slice ranges are global row
/// indices). Factored out of [`update_factor`] so the *same* engine —
/// same kernel, schedule, scratch arenas and window mechanics — serves
/// both the main owned-range sweep and the `resweep` callback handed to
/// [`FitSync::sync_factor`] (a fault-tolerant coordinator re-covering a
/// dead peer's rows bitwise). With `row_sse` (mode `N−1` of a folding
/// fit) each row's squared residual goes into its global slot straight
/// after its solve. Returns whether every solve succeeded.
#[allow(clippy::too_many_arguments)]
fn sweep_rows<K: RowUpdateKernel>(
    factors: &[Matrix],
    mode: usize,
    core: &CoreTensor,
    opts: &FitOptions,
    kernel: &K,
    scratch_pool: &mut [Scratch],
    sweep: &mut SweepSource<'_>,
    runs: &RunPlan,
    row_sse: Option<&RowSse>,
    rows: Range<usize>,
    j_n: usize,
    data: &mut [f64],
) -> Result<bool> {
    let solve_failed = AtomicBool::new(false);
    sweep.rewind_range(mode, rows);
    while let Some(w) = sweep.next_window()? {
        let ctx = ModeContext::for_view(w.stream, factors, core, runs, mode, opts);
        let first_row = w.slices.start;
        let window_rows = &mut data[w.slices.start * j_n..w.slices.end * j_n];
        parallel_rows_mut_scheduled(
            window_rows,
            j_n,
            opts.threads,
            opts.schedule,
            |r| ctx.stream.slice_len(r),
            scratch_pool,
            |scratch, r, row| {
                if !kernel.update_row(&ctx, scratch, r, row) {
                    solve_failed.store(true, Ordering::Relaxed);
                }
                if let Some(sse) = row_sse {
                    sse.set(first_row + r, scratch.row_sse(row));
                }
            },
        );
    }
    Ok(!solve_failed.load(Ordering::Relaxed))
}

#[allow(clippy::too_many_arguments)]
fn update_factor<K: RowUpdateKernel, S: FitSync>(
    i_n: usize,
    factors: &mut [Matrix],
    mode: usize,
    core: &CoreTensor,
    runs: &RunPlan,
    opts: &FitOptions,
    kernel: &K,
    scratch_pool: &mut [Scratch],
    sweep: &mut SweepSource<'_>,
    sync: &mut S,
    row_sse: Option<&RowSse>,
) -> Result<()> {
    let j_n = opts.ranks[mode];
    // The rows this process owns: everything on a single-process fit, a
    // shard's contiguous block on a distributed one. Slices of mode `n`
    // are its rows, so the owned range is exactly a sweep restriction.
    let owned = sync.row_range(mode, i_n);
    debug_assert!(owned.start <= owned.end && owned.end <= i_n);
    // Take the mode's data out so the other factors can be shared immutably
    // with the worker threads; factors[mode] is not read during its own
    // update (the δ product skips k == mode; the cached path reads the old
    // row values, which live in `data`).
    let a_n = std::mem::replace(&mut factors[mode], Matrix::zeros(0, 0));
    let mut data = a_n.into_vec();
    let local_ok = sweep_rows(
        factors,
        mode,
        core,
        opts,
        kernel,
        scratch_pool,
        sweep,
        runs,
        row_sse,
        owned,
        j_n,
        &mut data,
    )?;
    // All-reduce point: trade the owned rows (and, on mode N−1 of a
    // folding fit, their squared residuals) for the merged factor before
    // it is installed for the next mode's δ products. No-op (and
    // `local_ok` always observed true → still an error below) on a
    // single-process fit; the distributed hook overwrites `data` and
    // `row_sse` and surfaces any *peer's* failed solve as its own error,
    // so every process abandons the fit together. The `Resweep` handle
    // gives the sync layer this same sweep engine, restricted to arbitrary
    // row ranges — a fault-tolerant coordinator covers a dead peer's rows
    // with it, bitwise identically to the peer's own sweep, residuals
    // included.
    {
        let shared: &[Matrix] = factors;
        let mut engine = |rows: Range<usize>, buf: &mut [f64]| {
            sweep_rows(
                shared,
                mode,
                core,
                opts,
                kernel,
                scratch_pool,
                sweep,
                runs,
                row_sse,
                rows,
                j_n,
                buf,
            )
        };
        let mut resweep = Resweep::new(&mut engine, row_sse);
        sync.sync_factor(mode, j_n, &mut data, local_ok, &mut resweep)?;
    }
    factors[mode] = Matrix::from_vec(i_n, j_n, data)?;
    if !local_ok {
        return Err(PtuckerError::Linalg(
            ptucker_linalg::LinalgError::Singular { pivot: 0 },
        ));
    }
    Ok(())
}

/// Sum of squared residuals `Σ_{α∈Ω} (X_α − x̂_α)²` without materializing a
/// decomposition (borrowed factors/core): the fit's `final_error`, and its
/// per-iteration error wherever [`folds_error`] or the guard rules the
/// folded sum out. Over the input's statically blocked entry fold —
/// deterministic at a given thread count, and the same bits from a
/// resident tensor and a scratch file.
///
/// The reconstruction inner loop is the run-blocked micro-kernel
/// ([`RunPlan::reconstruct`]): one shared head product per run of
/// lexicographic core entries times the run's tail dot — looked up when
/// `runs` (the [`RunPlan`] of `core`, borrowed from the driver: no run
/// detection per pass) carries the tail-dot table, one contiguous
/// [`ptucker_linalg::kernels::dot`] otherwise; the same bits either way.
/// Reads only COO and the model, so the residual costs the same on every
/// plan placement: spilled fits never touch their plan's scratch file.
pub(crate) fn sum_squared_error(
    input: &FitInput<'_>,
    factors: &[Matrix],
    core: &CoreTensor,
    runs: &RunPlan,
    threads: usize,
) -> Result<f64> {
    try_reduce_blocks(
        input.nnz(),
        threads,
        || 0.0f64,
        |acc, block| {
            let mut lanes = ResidualLanes::<LANES>::new(runs, core, factors);
            input.for_each_entry(block, |idx, xv| lanes.push(idx, xv))?;
            Ok(acc + lanes.finish())
        },
        |a, b| a + b,
    )
}

/// Extension: re-estimates the core weights as the exact observed-entry
/// least-squares solution given the (fixed, orthonormalized) factors:
///
/// `min_G Σ_{α∈Ω} (X_α − Σ_β G_β p_{αβ})²`, `p_{αβ} = Πₙ q⁽ⁿ⁾(iₙ, βₙ)`,
///
/// solved via the `|G|×|G|` normal equations `(PᵀP + εI) g = Pᵀx` with a
/// tiny ridge for numerical safety. Because the previous core is a feasible
/// point of this problem, the refit can only lower the reconstruction
/// error. Cost is `O(|Ω|·|G|²)` — affordable for the small/truncated cores
/// this extension targets, and the reason it is off by default.
pub(crate) fn refit_core_observed(
    input: &FitInput<'_>,
    factors: &[Matrix],
    core: &mut CoreTensor,
    threads: usize,
) -> Result<()> {
    let g = core.nnz();
    if g == 0 {
        return Ok(());
    }
    let order = input.order();
    let core_idx = core.flat_indices().to_vec();
    // Accumulate (PᵀP upper triangle, Pᵀx) in one pass over the entries;
    // each worker carries a contribution buffer for the current entry's
    // p_{α·} row.
    let (ptp, ptx, _buf) = input.fold_entries(
        threads,
        || (vec![0.0f64; g * g], vec![0.0f64; g], vec![0.0f64; g]),
        |(ptp, ptx, p), idx, xv| {
            for (b, slot) in p.iter_mut().enumerate() {
                let beta = &core_idx[b * order..(b + 1) * order];
                let mut w = 1.0;
                for (k, factor) in factors.iter().enumerate() {
                    w *= factor[(idx[k], beta[k])];
                    if w == 0.0 {
                        break;
                    }
                }
                *slot = w;
            }
            for b1 in 0..g {
                let p1 = p[b1];
                ptx[b1] += xv * p1;
                if p1 == 0.0 {
                    continue;
                }
                let row = b1 * g;
                for b2 in b1..g {
                    ptp[row + b2] += p1 * p[b2];
                }
            }
        },
        |(mut a1, mut a2, buf), (b1, b2, _)| {
            for (x, y) in a1.iter_mut().zip(&b1) {
                *x += y;
            }
            for (x, y) in a2.iter_mut().zip(&b2) {
                *x += y;
            }
            (a1, a2, buf)
        },
    )?;
    // Ridge scaled to the problem: keeps the system SPD even when some core
    // entry is unidentifiable from Ω (its optimal weight then shrinks to 0).
    let max_diag = (0..g).fold(0.0f64, |m, b| m.max(ptp[b * g + b]));
    let ridge = (1e-10 * max_diag).max(1e-12);
    if let Some(new_vals) = solve_row(&ptp, &ptx, ridge) {
        core.values_mut().copy_from_slice(&new_vals);
    }
    // On the (singular, λ≈0) failure path the core is left unchanged.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CachedKernel, DirectKernel, GatherReferenceKernel};
    use crate::{MemoryBudget, StoragePrecision};
    use proptest::prelude::*;
    use ptucker_datagen::planted_lowrank;

    fn planted() -> SparseTensor {
        let mut rng = StdRng::seed_from_u64(71);
        planted_lowrank(&[14, 12, 10], &[2, 2, 2], 700, 0.01, &mut rng).tensor
    }

    fn base_opts() -> FitOptions {
        FitOptions::new(vec![2, 2, 2])
            .max_iters(5)
            .tol(0.0)
            .threads(2)
            .seed(33)
    }

    /// A 1-byte budget: the resident floor books itself unchecked, the
    /// remaining budget is 0, so the window capacity collapses to the
    /// minimum of one position — every nonempty slice becomes (at least)
    /// its own window, guaranteeing many windows per mode.
    fn spill_budget() -> MemoryBudget {
        MemoryBudget::new(1)
    }

    fn assert_bitwise_equal(a: &FitResult, b: &FitResult, tag: &str) {
        assert_eq!(a.stats.iterations.len(), b.stats.iterations.len(), "{tag}");
        for (ia, ib) in a.stats.iterations.iter().zip(&b.stats.iterations) {
            assert_eq!(
                ia.reconstruction_error.to_bits(),
                ib.reconstruction_error.to_bits(),
                "{tag} iter {}",
                ia.iter
            );
            assert_eq!(ia.core_nnz, ib.core_nnz, "{tag} iter {}", ia.iter);
        }
        assert_eq!(
            a.stats.final_error.to_bits(),
            b.stats.final_error.to_bits(),
            "{tag} final"
        );
        for (fa, fb) in a.decomposition.factors.iter().zip(&b.decomposition.factors) {
            for (va, vb) in fa.as_slice().iter().zip(fb.as_slice()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{tag} factor drift");
            }
        }
    }

    /// Acceptance bar for the mode-major plan: every kernel on the streamed
    /// layout must reproduce the COO gather path's fit — per-iteration
    /// reconstruction-error trajectory within 1e-9 (relative) from the same
    /// seed. Direct and Approx(0) differ from the gather reference only in
    /// multiplication order inside δ; Cache differs additionally through
    /// its divide-by-old-row algebra, and must still land within the bar on
    /// this scale of problem.
    #[test]
    fn streamed_kernels_reproduce_gather_fit_trajectory() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let x = planted_lowrank(&[14, 12, 10], &[2, 2, 2], 700, 0.01, &mut rng).tensor;
        let opts = FitOptions::new(vec![2, 2, 2])
            .max_iters(5)
            .tol(0.0)
            .threads(2)
            .seed(33);
        let input = FitInput::from(&x);
        let reference = run_fit(
            &input,
            &opts,
            GatherReferenceKernel::default(),
            &mut LocalSync,
            None,
        )
        .unwrap();
        let direct = run_fit(&input, &opts, DirectKernel, &mut LocalSync, None).unwrap();
        let cached = run_fit(&input, &opts, CachedKernel::new(), &mut LocalSync, None).unwrap();
        let approx0 = PTucker::new(opts.clone().variant(Variant::Approx {
            truncation_rate: 0.0,
        }))
        .unwrap()
        .fit(&x)
        .unwrap();
        assert_eq!(reference.stats.iterations.len(), 5);
        for (name, got) in [
            ("direct", &direct),
            ("cached", &cached),
            ("approx0", &approx0),
        ] {
            for (a, b) in reference.stats.iterations.iter().zip(&got.stats.iterations) {
                let rel = (a.reconstruction_error - b.reconstruction_error).abs()
                    / a.reconstruction_error.max(1e-12);
                assert!(rel < 1e-9, "{name} iter {}: rel {rel}", a.iter);
            }
            let rel = (reference.stats.final_error - got.stats.final_error).abs()
                / reference.stats.final_error.max(1e-12);
            assert!(rel < 1e-9, "{name} final: rel {rel}");
        }
    }

    /// The plan itself is intermediate data: its reservation must show up
    /// in the reported peak, and — under the paper's Strict regime — a
    /// budget too small for the streams must fail with the O.O.M. outcome
    /// before any iteration runs.
    #[test]
    fn plan_memory_is_metered() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = planted_lowrank(&[10, 9, 8], &[2, 2, 2], 300, 0.01, &mut rng).tensor;
        let plan_bytes = ptucker_tensor::ModeStreams::bytes_for(&x);
        let opts = FitOptions::new(vec![2, 2, 2]).max_iters(1).seed(1);
        let fit = run_fit(
            &FitInput::from(&x),
            &opts,
            DirectKernel,
            &mut LocalSync,
            None,
        )
        .unwrap();
        assert!(
            fit.stats.peak_intermediate_bytes >= plan_bytes,
            "peak {} must include the {plan_bytes} B plan",
            fit.stats.peak_intermediate_bytes
        );
        let tiny =
            FitOptions::new(vec![2, 2, 2])
                .max_iters(1)
                .seed(1)
                .budget(MemoryBudget::with_policy(
                    plan_bytes - 1,
                    BudgetPolicy::Strict,
                ));
        let err = run_fit(
            &FitInput::from(&x),
            &tiny,
            DirectKernel,
            &mut LocalSync,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, PtuckerError::OutOfMemory(_)));
    }

    /// For Direct and Approx, a fit whose plan exceeds the budget completes
    /// via spilled windowed sweeps and reproduces the in-memory fit
    /// **bitwise** — under a budget forcing ≥ 3 windows per mode. Cache is
    /// resident-only: under that budget it is the paper's O.O.M.
    #[test]
    fn windowed_fit_reproduces_in_memory_fit_for_all_kernels() {
        let x = planted();
        // The 1-byte budget yields capacity 1; check it forces ≥ 3
        // windows on every mode before asserting trajectories.
        let probe = ModeStreams::build_spilled(&x, &MemoryBudget::unlimited()).unwrap();
        for n in 0..x.order() {
            let windows = probe.spilled_mode(n).window_count(1);
            assert!(windows >= 3, "mode {n}: only {windows} windows");
        }
        for variant in [
            Variant::Default,
            Variant::Cache,
            Variant::Approx {
                truncation_rate: 0.2,
            },
        ] {
            let in_mem = PTucker::new(base_opts().variant(variant))
                .unwrap()
                .fit(&x)
                .unwrap();
            assert_eq!(in_mem.stats.peak_spilled_bytes, 0, "{variant:?} spilled");
            let windowed = PTucker::new(base_opts().variant(variant).budget(spill_budget()))
                .unwrap()
                .fit(&x);
            if variant == Variant::Cache {
                assert!(matches!(windowed, Err(PtuckerError::OutOfMemory(_))));
                continue;
            }
            let windowed = windowed.unwrap();
            assert!(
                windowed.stats.peak_spilled_bytes >= ModeStreams::spilled_bytes_for(&x),
                "{variant:?} did not spill its plan"
            );
            assert_bitwise_equal(&in_mem, &windowed, &format!("{variant:?}"));
        }
    }

    /// Multi-slice windows (a moderate budget between the floor and the
    /// full plan) must agree with the in-memory fit too — this exercises
    /// window extents greater than one slice.
    #[test]
    fn windowed_fit_with_multi_slice_windows_matches() {
        let x = planted();
        let opts = base_opts().max_iters(3);
        let in_mem = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
        // Roughly half the in-memory requirement: forces spilling while
        // leaving room for windows spanning several slices.
        let budget = MemoryBudget::new(in_memory_bytes(x.dims(), x.nnz(), &opts) / 2);
        let windowed = PTucker::new(opts.budget(budget)).unwrap().fit(&x).unwrap();
        assert_bitwise_equal(&in_mem, &windowed, "multi-slice");
    }

    /// Cache is resident-only, with Table III's O.O.M. boundary at exactly
    /// the resident working set under both policies: a budget of
    /// `in_memory_bytes` completes without spilling and bitwise the
    /// unlimited fit; one byte less — the plan and arenas still fit, the
    /// `|Ω|×|G|` table does not — fails on the table's checked reservation,
    /// whose `requested` is the table's bytes.
    #[test]
    fn cache_overflow_is_oom_naming_the_table_bytes() {
        let x = planted();
        let opts = base_opts().max_iters(3).variant(Variant::Cache);
        let need = in_memory_bytes(x.dims(), x.nnz(), &opts);
        let table = table_bytes(x.nnz(), &opts);
        assert_eq!(table, x.nnz() * 8 * 8, "|Ω|·|G| doubles");
        let unlimited = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
        for policy in [BudgetPolicy::Spill, BudgetPolicy::Strict] {
            let fit = |budget: &MemoryBudget| {
                PTucker::new(opts.clone().budget(budget.clone()))
                    .unwrap()
                    .fit(&x)
            };
            let fits = fit(&MemoryBudget::with_policy(need, policy)).unwrap();
            assert_eq!(fits.stats.peak_spilled_bytes, 0, "{policy:?}");
            assert_bitwise_equal(&unlimited, &fits, &format!("{policy:?}"));
            let short = MemoryBudget::with_policy(need - 1, policy);
            match fit(&short) {
                Err(PtuckerError::OutOfMemory(oom)) => {
                    assert_eq!(oom.requested, table, "{policy:?}");
                }
                other => panic!("{policy:?}: expected O.O.M., got {other:?}"),
            }
            assert_eq!(short.peak_spilled(), 0, "{policy:?}: nothing may spill");
        }
    }

    /// A Cache fit from a COO scratch file is a configuration error, raised
    /// before the external build writes a byte: the resident-only table
    /// indexes a resident tensor.
    #[test]
    fn cache_on_a_scratch_input_is_invalid_config() {
        let x = planted();
        let budget = MemoryBudget::unlimited();
        let src = CooScratch::from_tensor(&x, &budget).unwrap();
        let written = budget.io_write_bytes();
        let err = PTucker::new(base_opts().variant(Variant::Cache).budget(budget.clone()))
            .unwrap()
            .fit_scratch(&src)
            .unwrap_err();
        assert!(
            matches!(&err, PtuckerError::InvalidConfig(m) if m.contains("resident-only")),
            "{err}"
        );
        assert_eq!(budget.io_write_bytes(), written, "no plan was built");
    }

    /// Strict policy preserves the paper's hard O.O.M. boundary.
    #[test]
    fn strict_budget_still_fails_hard() {
        let x = planted();
        let opts = base_opts().budget(ptucker_memtrack::MemoryBudget::with_policy(
            1024,
            BudgetPolicy::Strict,
        ));
        let err = PTucker::new(opts).unwrap().fit(&x).unwrap_err();
        assert!(matches!(err, PtuckerError::OutOfMemory(_)));
    }

    /// The spill decision is exact: a budget of precisely the in-memory
    /// requirement stays in memory; one byte less spills.
    #[test]
    fn spill_threshold_is_the_in_memory_working_set() {
        let x = planted();
        let opts = base_opts().max_iters(1);
        let need = in_memory_bytes(x.dims(), x.nnz(), &opts);
        let stay = PTucker::new(opts.clone().budget(MemoryBudget::new(need)))
            .unwrap()
            .fit(&x)
            .unwrap();
        assert_eq!(stay.stats.peak_spilled_bytes, 0);
        let spill = PTucker::new(opts.budget(MemoryBudget::new(need - 1)))
            .unwrap()
            .fit(&x)
            .unwrap();
        assert!(spill.stats.peak_spilled_bytes > 0);
    }

    /// Double-buffered prefetch changes when scratch-file bytes are read,
    /// never their values: a spilled fit big enough to clear the prefetch
    /// threshold must agree bitwise with the same fit with prefetch off —
    /// and with the fully resident fit.
    #[test]
    fn prefetched_spilled_fit_is_bitwise_identical() {
        let mut rng = StdRng::seed_from_u64(99);
        let x = planted_lowrank(&[100, 80, 60], &[2, 2, 2], 34_000, 0.01, &mut rng).tensor;
        let opts = |prefetch: bool, budget: MemoryBudget| {
            FitOptions::new(vec![2, 2, 2])
                .max_iters(2)
                .tol(0.0)
                .threads(2)
                .seed(3)
                .prefetch(prefetch)
                .budget(budget)
        };
        // Half the plan: the spilled plan's resident floor is only its
        // slice offsets, so the budget yields double-buffered windows of
        // ~500 KiB — comfortably past PREFETCH_MIN_WINDOW_BYTES even at
        // the halved prefetch capacity.
        // (On a single-CPU host prefetch auto-disables regardless; the
        // bitwise claims below hold either way.)
        let budget_bytes = ModeStreams::bytes_for(&x) / 2;
        let floor = ModeStreams::resident_bytes_for(&x);
        assert!(
            (budget_bytes - floor) / 2 >= 2 * PREFETCH_MIN_WINDOW_BYTES,
            "fixture too small to engage prefetch"
        );
        let resident = PTucker::new(opts(true, MemoryBudget::unlimited()))
            .unwrap()
            .fit(&x)
            .unwrap();
        let prefetched = PTucker::new(opts(true, MemoryBudget::new(budget_bytes)))
            .unwrap()
            .fit(&x)
            .unwrap();
        let plain = PTucker::new(opts(false, MemoryBudget::new(budget_bytes)))
            .unwrap()
            .fit(&x)
            .unwrap();
        assert!(prefetched.stats.peak_spilled_bytes > 0);
        assert_bitwise_equal(&resident, &prefetched, "prefetch-vs-resident");
        assert_bitwise_equal(&prefetched, &plain, "prefetch-vs-plain");
        // The stats must report the gate's decision truthfully: never on
        // when prefetch was not requested or nothing spilled; on the
        // requested spilled fit (windows sized past the threshold above)
        // it reduces to exactly the spare-CPU check.
        assert!(!resident.stats.prefetch_engaged);
        assert!(!plain.stats.prefetch_engaged);
        assert_eq!(
            prefetched.stats.prefetch_engaged,
            std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
        );
    }

    /// Mixed-precision acceptance: with f32 *storage* but f64
    /// *accumulation*, the fit trajectory must track the full-f64 run to
    /// roughly f32 machine precision — the quantization error of the
    /// inputs, not a compounding iteration-by-iteration drift. Also pins
    /// the accounting side: the placement gate sees half-size plan and
    /// table footprints under `StoragePrecision::F32`.
    #[test]
    fn f32_storage_tracks_f64_fit_within_quantization_noise() {
        let x = planted();
        for variant in [Variant::Default, Variant::Cache] {
            let opts64 = base_opts().variant(variant);
            let opts32 = base_opts()
                .variant(variant)
                .precision(StoragePrecision::F32);
            let f64_fit = PTucker::new(opts64).unwrap().fit(&x).unwrap();
            let f32_fit = PTucker::new(opts32).unwrap().fit(&x).unwrap();
            assert_eq!(
                f64_fit.stats.iterations.len(),
                f32_fit.stats.iterations.len(),
                "{variant:?}: precision changed iteration count at tol=0"
            );
            for (a, b) in f64_fit
                .stats
                .iterations
                .iter()
                .zip(&f32_fit.stats.iterations)
            {
                let rel = (a.reconstruction_error - b.reconstruction_error).abs()
                    / a.reconstruction_error.max(1e-12);
                assert!(
                    rel < 1e-4,
                    "{variant:?} iter {}: f32-vs-f64 rel drift {rel}",
                    a.iter
                );
            }
        }
        // Accounting: f32 halves exactly the value payload of the plan and
        // the Cache table — the gate must see those smaller numbers.
        let o64 = base_opts().variant(Variant::Cache);
        let o32 = o64.clone().precision(StoragePrecision::F32);
        assert_eq!(
            table_bytes(x.nnz(), &o64) - table_bytes(x.nnz(), &o32),
            x.nnz() * 8 * 4,
            "f32 table should drop 4 bytes per cell"
        );
        assert!(
            resident_floor_bytes(x.dims(), x.nnz(), &o32)
                < resident_floor_bytes(x.dims(), x.nnz(), &o64)
        );
    }

    /// Tentpole acceptance: the **disk-to-disk** fit — observed entries in
    /// a COO scratch file, plan built by counting placement, residual / `R(β)` /
    /// core-refit passes walking segments of it — reproduces the resident
    /// fit **bitwise** for Direct and Approx, under a budget forcing
    /// windowed sweeps and the default dynamic row schedule (the
    /// whole-tensor passes are statically blocked whatever the schedule).
    /// Cache, resident-only, refuses the scratch input.
    #[test]
    fn disk_to_disk_fit_matches_resident_bitwise_for_all_kernels() {
        let x = planted();
        for variant in [
            Variant::Default,
            Variant::Cache,
            Variant::Approx {
                truncation_rate: 0.2,
            },
        ] {
            let opts = base_opts().variant(variant).refit_core(true);
            let resident = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
            let budget = spill_budget();
            let src = ptucker_tensor::CooScratch::from_tensor(&x, &budget).unwrap();
            let disk = PTucker::new(opts.budget(budget.clone()))
                .unwrap()
                .fit_scratch(&src);
            if variant == Variant::Cache {
                assert!(matches!(disk, Err(PtuckerError::InvalidConfig(_))));
                continue;
            }
            let disk = disk.unwrap();
            assert!(
                disk.stats.peak_spilled_bytes
                    >= ModeStreams::spilled_bytes_for(&x) + src.bytes() as usize,
                "{variant:?}: the disk fit must hold both the COO source and the plan spilled"
            );
            assert!(
                disk.stats.io_read_bytes > 0 && disk.stats.io_write_bytes > 0,
                "{variant:?}: scratch traffic must surface in the stats"
            );
            assert_bitwise_equal(&resident, &disk, &format!("disk {variant:?}"));
        }
    }

    /// Disk-to-disk resume interoperates with resident checkpoints: the
    /// fingerprint streams to the same hash, so a checkpoint taken from a
    /// resident fit at iteration boundary 2 resumes a scratch fit bitwise
    /// onto the uninterrupted resident trajectory.
    #[test]
    fn disk_to_disk_resumes_resident_checkpoint_bitwise() {
        let x = planted();
        let opts = base_opts().refit_core(true);
        let full = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
        let budget = spill_budget();
        let src = ptucker_tensor::CooScratch::from_tensor(&x, &budget).unwrap();
        let dir = std::env::temp_dir().join(format!("ptk-d2d-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resident.ckpt");
        PTucker::new(
            opts.clone()
                .max_iters(2)
                .checkpoint_every(2)
                .checkpoint_path(&path),
        )
        .unwrap()
        .fit(&x)
        .unwrap();
        let ckpt = FitCheckpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let resumed = PTucker::new(opts.budget(budget))
            .unwrap()
            .fit_scratch_with_sync_resume(&src, &mut LocalSync, Some(ckpt))
            .unwrap();
        assert_bitwise_equal(&full, &resumed, "resident checkpoint, disk resume");
    }

    /// A disk-resident source under the paper's Strict regime is a
    /// configuration error, not a placement: Strict declares everything
    /// resident, which a scratch-file input can never be.
    #[test]
    fn disk_to_disk_requires_spill_policy() {
        let x = planted();
        let budget = MemoryBudget::new(usize::MAX);
        let src = ptucker_tensor::CooScratch::from_tensor(&x, &budget).unwrap();
        let strict = base_opts().budget(MemoryBudget::with_policy(1 << 30, BudgetPolicy::Strict));
        let err = PTucker::new(strict).unwrap().fit_scratch(&src).unwrap_err();
        assert!(matches!(err, PtuckerError::InvalidConfig(_)));
    }

    /// Tentpole acceptance: fitting from a COO scratch file **larger than
    /// the memory budget** completes with peak tracked resident bytes
    /// within the budget — the whole pipeline (external build included)
    /// really is bounded.
    #[test]
    fn disk_to_disk_peak_resident_bytes_stay_within_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let x = planted_lowrank(&[60, 50, 40], &[2, 2, 2], 60_000, 0.01, &mut rng).tensor;
        let limit = 1_100_000usize;
        let budget = MemoryBudget::new(limit);
        let src = ptucker_tensor::CooScratch::from_tensor(&x, &budget).unwrap();
        assert!(
            src.bytes() as usize > limit,
            "source ({} B) must exceed the budget ({limit} B)",
            src.bytes()
        );
        let opts = base_opts().max_iters(2).budget(budget.clone());
        let fit = PTucker::new(opts).unwrap().fit_scratch(&src).unwrap();
        assert!(fit.stats.converged || fit.stats.iterations.len() == 2);
        assert!(
            fit.stats.peak_intermediate_bytes <= limit,
            "peak resident {} B exceeded the {limit} B budget",
            fit.stats.peak_intermediate_bytes
        );
    }

    /// The prefetch ring is a scheduling choice, never a numeric one:
    /// every configured depth — no ring, the double-buffer default, and a
    /// 4-deep ring — produces the bitwise-identical fit.
    #[test]
    fn prefetch_depth_never_changes_the_fit() {
        let x = planted();
        let fit_at = |depth: usize| {
            PTucker::new(
                base_opts()
                    .max_iters(3)
                    .budget(spill_budget())
                    .prefetch(depth >= 2)
                    .prefetch_depth(depth.max(2)),
            )
            .unwrap()
            .fit(&x)
            .unwrap()
        };
        let base = fit_at(1);
        for depth in [2, 4] {
            assert_bitwise_equal(&base, &fit_at(depth), &format!("depth {depth}"));
        }
    }

    /// The tail-dot table is an execution detail, never a semantic: a fit
    /// whose budget has no room left for it (exactly the pre-change working
    /// set — under either policy, so a `Strict` fit that fitted before
    /// still fits) falls back to per-entry dots and walks the memoized
    /// fit's trajectory **bitwise**, as does the spilled fit, which books
    /// the table with its out-of-core floor. And the accounting is pinned,
    /// not loosened: the memoized fit's peak is the refused fit's peak plus
    /// exactly the table.
    #[test]
    fn refused_tail_table_gives_the_memoized_fit_bitwise() {
        let x = planted();
        for variant in [
            Variant::Default,
            Variant::Approx {
                truncation_rate: 0.2,
            },
        ] {
            let opts = base_opts().variant(variant);
            let need = in_memory_bytes(x.dims(), x.nnz(), &opts);
            let table = tail_table_bytes(x.dims(), x.nnz(), &opts.ranks);
            assert_eq!(table, 10 * 4 * 8, "I_N = 10 rows × 2·2 runs");
            let fit = |budget: MemoryBudget| {
                PTucker::new(opts.clone().budget(budget))
                    .unwrap()
                    .fit(&x)
                    .unwrap()
            };
            let memoized = fit(MemoryBudget::unlimited());
            assert_eq!(memoized.stats.peak_intermediate_bytes, need + table);
            for (tag, budget) in [
                ("spill-policy", MemoryBudget::new(need)),
                (
                    "strict",
                    MemoryBudget::with_policy(need, BudgetPolicy::Strict),
                ),
            ] {
                let refused = fit(budget);
                assert_eq!(refused.stats.peak_spilled_bytes, 0, "{variant:?} {tag}");
                assert_eq!(
                    refused.stats.peak_intermediate_bytes, need,
                    "{variant:?} {tag}: the table must have been refused"
                );
                assert_bitwise_equal(&memoized, &refused, &format!("{variant:?} {tag}"));
            }
            let spilled = fit(spill_budget());
            assert!(spilled.stats.peak_spilled_bytes > 0);
            assert_bitwise_equal(&memoized, &spilled, &format!("{variant:?} spilled"));
        }
    }

    /// The size rule's other arm: a tail dimension too long for the
    /// entries that would amortize it (`I_N·n_runs > |Ω|`) never gets a
    /// table, on any placement — resident and spilled both run the
    /// per-entry fallback, and agree bitwise.
    #[test]
    fn long_tail_dimension_refuses_the_table_on_every_placement() {
        let mut rng = StdRng::seed_from_u64(77);
        let x = planted_lowrank(&[9, 8, 120], &[2, 2, 2], 400, 0.01, &mut rng).tensor;
        assert_eq!(tail_table_bytes(x.dims(), x.nnz(), &[2, 2, 2]), 0);
        assert!(
            tail_table_bytes(x.dims(), 480, &[2, 2, 2]) > 0,
            "120·4 ≤ 480"
        );
        assert_eq!(
            tail_table_bytes(&[50], 1000, &[2]),
            0,
            "order 1 has no head"
        );
        for variant in [
            Variant::Default,
            Variant::Approx {
                truncation_rate: 0.2,
            },
        ] {
            let opts = base_opts().max_iters(3).variant(variant);
            let need = in_memory_bytes(x.dims(), x.nnz(), &opts);
            let resident = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
            assert_eq!(resident.stats.peak_intermediate_bytes, need, "{variant:?}");
            let spilled = PTucker::new(opts.budget(spill_budget()))
                .unwrap()
                .fit(&x)
                .unwrap();
            assert!(spilled.stats.peak_spilled_bytes > 0);
            assert_bitwise_equal(&resident, &spilled, &format!("{variant:?}"));
        }
    }

    /// The whole-tensor passes fold statically blocked entries (the `R(β)`
    /// walk: statically blocked stream positions) and combine
    /// worker-ascending, so they are reproducible at **every** thread count
    /// — run to run, and between a resident tensor and a scratch file of
    /// the same entries. Called the way the fit calls them.
    #[test]
    fn static_passes_are_bitwise_reproducible_at_four_threads() {
        let x = planted();
        let fit = PTucker::new(base_opts().max_iters(2))
            .unwrap()
            .fit(&x)
            .unwrap();
        let (factors, core) = (&fit.decomposition.factors, &fit.decomposition.core);
        let runs = RunPlan::new(core);
        let budget = MemoryBudget::unlimited();
        let src = ptucker_tensor::CooScratch::from_tensor(&x, &budget).unwrap();
        let (resident, disk) = (FitInput::from(&x), FitInput::from(&src));
        let resident_plan = ModeStreams::build(&x).unwrap();
        let disk_plan = ModeStreams::build_external(&src, &budget).unwrap();
        let threads = 4;
        let sse = sum_squared_error(&disk, factors, core, &runs, threads).unwrap();
        let rank = |plan: &ModeStreams, cap: usize| {
            let mut sweep = plan.sweep_source(0, cap, false);
            approx::partial_errors(&mut sweep, factors, core, &runs, threads).unwrap()
        };
        let r = rank(&disk_plan, 1);
        for rep in 0..20 {
            let again = sum_squared_error(&resident, factors, core, &runs, threads).unwrap();
            assert_eq!(again.to_bits(), sse.to_bits(), "residual, repeat {rep}");
            let again = rank(&resident_plan, usize::MAX);
            assert_eq!(again.len(), r.len());
            for (a, b) in again.iter().zip(&r) {
                assert_eq!(a.to_bits(), b.to_bits(), "R(β), repeat {rep}");
            }
        }
        let mut refit_resident = core.clone();
        let mut refit_disk = core.clone();
        refit_core_observed(&resident, factors, &mut refit_resident, threads).unwrap();
        refit_core_observed(&disk, factors, &mut refit_disk, threads).unwrap();
        for (a, b) in refit_resident.values().iter().zip(refit_disk.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "core refit");
        }
    }

    /// **Frozen trajectory.** The per-iteration errors and `final_error` of
    /// a small Direct fit, one bit pattern that every build reproduces.
    /// `final_error` keeps the bits the kernels produced *before* the tail
    /// contraction was memoized; the per-iteration errors were re-frozen
    /// once, on purpose, when they became the row-order sum of mode `N−1`'s
    /// folded residuals (last-ulp moves). The bitwise suites prove
    /// placements agree with each other; this proves the whole family has
    /// not drifted — a later kernel change that reassociates one sum fails
    /// here first.
    #[test]
    fn direct_fit_trajectory_is_frozen() {
        const SCALAR: [u64; 6] = [
            0x3fdfc3b91fe7214d,
            0x3fd191425b149640,
            0x3fd1407f9ff35bd7,
            0x3fd111923f9e2de5,
            0x3fd0fe4619f0fea2,
            0x3fd0fe4619f0fea3,
        ];
        let x = planted();
        assert!(tail_table_bytes(x.dims(), x.nnz(), &[2, 2, 2]) > 0);
        let fit = PTucker::new(base_opts()).unwrap().fit(&x).unwrap();
        let got: Vec<u64> = fit
            .stats
            .iterations
            .iter()
            .map(|it| it.reconstruction_error)
            .chain([fit.stats.final_error])
            .map(f64::to_bits)
            .collect();
        let hex = |v: &[u64]| v.iter().map(|b| format!("{b:#018x}")).collect::<Vec<_>>();
        assert_eq!(hex(&got), hex(&SCALAR));
    }

    /// The first invariant reduction (ROADMAP item 2): a row update reads
    /// only its own slice and the folded error is summed in row order, so
    /// Direct and Cache fits at threads ∈ {1, 2, 3, 8} × {static, dynamic}
    /// walk one bit pattern of per-iteration errors and factors.
    /// (`final_error` is the exact pass, whose blocks still follow the
    /// thread count.)
    #[test]
    fn trajectories_are_thread_and_schedule_invariant() {
        let x = planted();
        for variant in [Variant::Default, Variant::Cache] {
            let fit = |threads: usize, schedule: crate::Schedule| {
                let opts = base_opts()
                    .max_iters(3)
                    .variant(variant)
                    .threads(threads)
                    .schedule(schedule);
                PTucker::new(opts).unwrap().fit(&x).unwrap()
            };
            let base = fit(1, crate::Schedule::Static);
            for threads in [1, 2, 3, 8] {
                for schedule in [crate::Schedule::Static, crate::Schedule::dynamic()] {
                    let tag = format!("{variant:?} T {threads} {schedule:?}");
                    let got = fit(threads, schedule);
                    assert_eq!(got.stats.iterations.len(), base.stats.iterations.len());
                    for (a, b) in base.stats.iterations.iter().zip(&got.stats.iterations) {
                        assert_eq!(
                            a.reconstruction_error.to_bits(),
                            b.reconstruction_error.to_bits(),
                            "{tag} iter {}",
                            a.iter
                        );
                    }
                    for (fa, fb) in base
                        .decomposition
                        .factors
                        .iter()
                        .zip(&got.decomposition.factors)
                    {
                        for (va, vb) in fa.as_slice().iter().zip(fb.as_slice()) {
                            assert_eq!(va.to_bits(), vb.to_bits(), "{tag} factors");
                        }
                    }
                }
            }
        }
    }

    /// The exact residuals of the model an iteration's error was measured
    /// on: per row of mode `N−1` by brute force (with each row's `‖x_i‖²`),
    /// and in total through [`sum_squared_error`] as the fit would call it.
    struct Exact {
        rows: Vec<f64>,
        xx: Vec<f64>,
        total: f64,
    }

    impl Exact {
        fn of(x: &FitInput<'_>, factors: &[Matrix], core: &CoreTensor, threads: usize) -> Self {
            let runs = RunPlan::new(core);
            let last = x.order() - 1;
            let mut rows = vec![0.0; x.dims()[last]];
            let mut xx = vec![0.0; x.dims()[last]];
            x.for_each_entry(0..x.nnz(), |idx, v| {
                let r = v - runs.reconstruct(idx, core, factors);
                rows[idx[last]] += r * r;
                xx[idx[last]] += v * v;
            })
            .unwrap();
            let total = sum_squared_error(x, factors, core, &runs, threads).unwrap();
            Exact { rows, xx, total }
        }
    }

    /// Taps a fit's sync points: the per-row residuals its last-mode sweeps
    /// handed the sync layer (one buffer per iteration; none when the exact
    /// pass is ruled in), and at each iteration's end the model that
    /// iteration's error was measured on — the checkpoint's factors with the
    /// core the iteration *started* from (a truncation changes the core
    /// after the error, never the factors).
    struct Tap {
        /// The core the latest logged iteration left (after any truncation).
        core: CoreTensor,
        folded: Vec<Vec<f64>>,
        /// Per logged iteration: `(factors, core)` of its error.
        models: Vec<(Vec<Matrix>, CoreTensor)>,
    }

    impl FitSync for Tap {
        fn sync_factor(
            &mut self,
            _mode: usize,
            _j_n: usize,
            _data: &mut [f64],
            _local_ok: bool,
            resweep: &mut Resweep<'_>,
        ) -> Result<()> {
            if let Some(sse) = resweep.row_sse() {
                self.folded.push(sse.to_vec(0..sse.len()));
            }
            Ok(())
        }

        fn end_iter(
            &mut self,
            _iter: usize,
            make_checkpoint: &mut dyn FnMut() -> Result<Vec<u8>>,
        ) -> Result<()> {
            let ckpt = FitCheckpoint::decode(&make_checkpoint()?)?;
            let start = std::mem::replace(&mut self.core, ckpt.core);
            self.models.push((ckpt.factors, start));
            Ok(())
        }
    }

    /// Runs the fit `opts` describes under a [`Tap`], which logs every
    /// iteration's model but a converging last one's (no `end_iter`
    /// follows it).
    fn tap_fit(input: &FitInput<'_>, opts: &FitOptions) -> (FitResult, Tap) {
        let (_, core) = init_model(input.dims(), opts).unwrap();
        let mut tap = Tap {
            core,
            folded: Vec::new(),
            models: Vec::new(),
        };
        let fit = PTucker::new(opts.clone())
            .unwrap()
            .dispatch_fit(input, &mut tap, None)
            .unwrap();
        (fit, tap)
    }

    /// [`tap_fit`]'s fit, the folded per-row residuals of every iteration,
    /// and the exact residuals of every logged iteration's model.
    fn fit_tapped(
        input: &FitInput<'_>,
        opts: &FitOptions,
    ) -> (FitResult, Vec<Vec<f64>>, Vec<Exact>) {
        let (fit, tap) = tap_fit(input, opts);
        let exact = tap
            .models
            .iter()
            .map(|(factors, core)| Exact::of(input, factors, core, opts.threads))
            .collect();
        (fit, tap.folded, exact)
    }

    /// The fused `R(β)` ranks like the per-entry pass it replaced: at every
    /// iteration of 5-iteration Approx(0.2) fits — order 3 and 4, 1 and 2
    /// threads — the core the driver kept is exactly the one the reference
    /// ranking keeps on the same model.
    #[test]
    fn approx_keeps_what_the_reference_ranking_keeps() {
        let mut rng = StdRng::seed_from_u64(72);
        let four = planted_lowrank(&[9, 8, 7, 6], &[2, 2, 2, 2], 1500, 0.01, &mut rng).tensor;
        let three = planted();
        for (x, ranks, threads) in [
            (&three, vec![3, 3, 3], 2),
            (&three, vec![4, 3, 2], 1),
            (&four, vec![3, 3, 3, 3], 2),
        ] {
            let rate = 0.2;
            let opts = FitOptions::new(ranks.clone())
                .max_iters(5)
                .tol(0.0)
                .threads(threads)
                .seed(33)
                .variant(Variant::Approx {
                    truncation_rate: rate,
                });
            let input = FitInput::from(x);
            let (_, tap) = tap_fit(&input, &opts);
            assert_eq!(tap.models.len(), 5, "{ranks:?}");
            let kept = tap.models[1..].iter().map(|m| &m.1).chain([&tap.core]);
            for (iter, ((factors, core), kept)) in tap.models.iter().zip(kept).enumerate() {
                let r = approx::partial_errors_reference(&input, factors, core, threads).unwrap();
                let mut want = core.clone();
                approx::truncate_noisy(&mut want, &r, rate);
                assert!(
                    want.nnz() < core.nnz(),
                    "{ranks:?} iter {iter}: nothing truncated"
                );
                assert_eq!(
                    want.flat_indices(),
                    kept.flat_indices(),
                    "{ranks:?} T {threads} iter {iter}"
                );
            }
        }
    }

    /// How many iterations a [`Tap`] logged exact residuals for.
    fn tapped_iterations(fit: &FitResult) -> usize {
        fit.stats.iterations.len() - usize::from(fit.stats.converged)
    }

    /// Every iteration's error is bitwise the exact pass on its model, and
    /// no per-row buffer was handed out: the rule kept the exact pass.
    fn assert_exact_pass_taken(fit: &FitResult, folded: &[Vec<f64>], exact: &[Exact], tag: &str) {
        assert!(folded.is_empty(), "{tag}: the error must not fold");
        assert_eq!(exact.len(), tapped_iterations(fit), "{tag}");
        for (it, ex) in fit.stats.iterations.iter().zip(exact) {
            assert_eq!(
                it.reconstruction_error.to_bits(),
                ex.total.sqrt().to_bits(),
                "{tag} iter {}",
                it.iter
            );
        }
    }

    /// The rule's two fixed arms: a `sample_stride = 3` fit (its `B` and
    /// `c` are a sample's) and an `f32`-storage fit (the plan's values are
    /// quantized) keep the exact pass — their per-iteration error is
    /// bitwise a direct `sum_squared_error` call on the same model.
    #[test]
    fn sampled_and_f32_fits_keep_the_exact_error_pass() {
        let x = planted();
        for variant in [Variant::Default, Variant::Cache] {
            for (tag, opts) in [
                ("stride 3", base_opts().max_iters(3).sample_stride(3)),
                (
                    "f32",
                    base_opts().max_iters(3).precision(StoragePrecision::F32),
                ),
            ] {
                let opts = opts.variant(variant);
                let (fit, folded, exact) = fit_tapped(&FitInput::from(&x), &opts);
                assert_exact_pass_taken(&fit, &folded, &exact, &format!("{variant:?} {tag}"));
            }
        }
    }

    /// The cancellation guard. On an exactly rank-(1, 1, 1), noise-free,
    /// fully observed tensor one sweep of the modes already fits every
    /// entry, and the folded `‖x_i‖² − 2·a_i·c_i + a_iᵀ B_i a_i` is then
    /// nothing but rounding: every iteration whose residual falls below
    /// `2⁻²⁰·Σx²` must take the exact pass — its error bitwise the exact
    /// one — and the fit must reach that regime. Above it, the folded sum
    /// stands within 1e-9.
    #[test]
    fn near_perfect_fits_take_the_exact_error_pass() {
        let mut rng = StdRng::seed_from_u64(5);
        let dims = [8, 7, 6];
        let cells = dims.iter().product();
        let x = planted_lowrank(&dims, &[1, 1, 1], cells, 0.0, &mut rng).tensor;
        let opts = FitOptions::new(vec![1, 1, 1])
            .max_iters(4)
            .tol(0.0)
            .lambda(1e-12)
            .threads(2)
            .seed(33);
        let input = FitInput::from(&x);
        let (fit, folded, exact) = fit_tapped(&input, &opts);
        assert_eq!(folded.len(), fit.stats.iterations.len(), "the rule folds");
        let floor = FOLD_GUARD * input.sum_sq();
        let mut guarded = 0;
        for (it, ex) in fit.stats.iterations.iter().zip(&exact) {
            let err = it.reconstruction_error;
            if ex.total < floor {
                guarded += 1;
                assert_eq!(err.to_bits(), ex.total.sqrt().to_bits(), "iter {}", it.iter);
            } else {
                let rel = (err * err - ex.total).abs() / ex.total;
                assert!(rel < 1e-9, "iter {}: rel {rel}", it.iter);
            }
        }
        let totals: Vec<f64> = exact.iter().map(|ex| ex.total).collect();
        assert!(guarded > 0, "the fit never reached the guard: {totals:?}");
    }

    /// Folded ≡ exact within 1e-9 relative, per row and summed, for every
    /// iteration of one fit. A row's tolerance is relative to its residual,
    /// or to `1e-6·‖x_i‖²` when the row fits better than that — there the
    /// folded value is the rounding of a cancellation (the summed error has
    /// the guard for it).
    fn assert_folded_matches_exact(
        fit: &FitResult,
        folded: &[Vec<f64>],
        exact: &[Exact],
        tag: &str,
    ) {
        let iters = fit.stats.iterations.len();
        assert!(
            folded.len() == iters && exact.len() == tapped_iterations(fit),
            "{tag}: {iters} iterations, {} folded buffers, {} exact models",
            folded.len(),
            exact.len()
        );
        for ((it, rows), ex) in fit.stats.iterations.iter().zip(folded).zip(exact) {
            for (i, (&f, (&e, &xx))) in rows.iter().zip(ex.rows.iter().zip(&ex.xx)).enumerate() {
                assert!(
                    (f - e).abs() <= 1e-9 * e.max(1e-6 * xx),
                    "{tag} iter {} row {i}: folded {f} vs exact {e} (‖x_i‖² {xx})",
                    it.iter
                );
            }
            let err = it.reconstruction_error;
            let rel = (err * err - ex.total).abs() / ex.total.max(f64::MIN_POSITIVE);
            assert!(rel < 1e-9, "{tag} iter {}: summed rel {rel}", it.iter);
        }
    }

    /// One folded-vs-exact case, its axes picked by `case` (a Latin-square
    /// walk of 16 cases puts every order, variant, placement, λ and thread
    /// count in some case): a small tensor of order 2..=5 — fully observed
    /// at λ = 0 (the LU fallback's regime, where a short row is singular),
    /// half observed (empty rows included) at λ = 0.01 — fitted by Direct,
    /// Cache, Approx(0) or Approx(0.3) resident, spilled under a 1-byte
    /// budget, under a budget of the resident floor plus half the Cache
    /// table (the full spill for the kernels without one) or from a
    /// `CooScratch`, at 1 or 3 threads. Cache is resident-only: its two
    /// small budgets are O.O.M. and its scratch input is a config error.
    fn folded_case(seed: u64, case: usize) {
        let order = 2 + case % 4;
        let variant = [
            Variant::Default,
            Variant::Cache,
            Variant::Approx {
                truncation_rate: 0.0,
            },
            Variant::Approx {
                truncation_rate: 0.3,
            },
        ][(case / 4) % 4];
        let placement = (case + case / 4) % 4;
        // A truncated core can leave some column of a mode's `δ` always 0
        // — a singular `B` at λ = 0 — so Approx(0.3) keeps the ridge.
        let lambda = match variant {
            Variant::Approx { truncation_rate } if truncation_rate > 0.0 => 0.01,
            _ => [0.0, 0.01][(case + case / 8) % 2],
        };
        let threads = [1, 3][(case / 2) % 2];
        let mut rng = StdRng::seed_from_u64(seed ^ case as u64);
        let dims: Vec<usize> = (0..order)
            .map(|k| 3 + (seed >> (4 * k)) as usize % 3)
            .collect();
        let cells: usize = dims.iter().product();
        let nnz = if lambda == 0.0 { cells } else { cells / 2 };
        let x = planted_lowrank(&dims, &vec![2; order], nnz, 0.05, &mut rng).tensor;
        let opts = FitOptions::new(vec![2; order])
            .max_iters(3)
            .tol(0.0)
            .lambda(lambda)
            .threads(threads)
            .seed(seed)
            .variant(variant);
        let tag = format!("order {order} {variant:?} placement {placement} λ {lambda} T {threads}");
        let budget = match placement {
            0 => MemoryBudget::unlimited(),
            2 if variant == Variant::Cache => MemoryBudget::new(
                resident_floor_bytes(x.dims(), x.nnz(), &opts) + table_bytes(x.nnz(), &opts) / 2,
            ),
            _ => spill_budget(),
        };
        let opts = opts.budget(budget.clone());
        let src;
        let input = if placement == 3 {
            src = CooScratch::from_tensor(&x, &budget).unwrap();
            FitInput::from(&src)
        } else {
            FitInput::from(&x)
        };
        if variant == Variant::Cache && placement != 0 {
            let err = PTucker::new(opts)
                .unwrap()
                .dispatch_fit(&input, &mut LocalSync, None);
            match placement {
                3 => assert!(matches!(err, Err(PtuckerError::InvalidConfig(_))), "{tag}"),
                _ => assert!(matches!(err, Err(PtuckerError::OutOfMemory(_))), "{tag}"),
            }
            return;
        }
        let (fit, folded, exact) = fit_tapped(&input, &opts);
        assert_eq!(
            fit.stats.peak_spilled_bytes > 0,
            placement != 0,
            "{tag}: placement"
        );
        assert_folded_matches_exact(&fit, &folded, &exact, &tag);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // Property: the per-iteration error folded into mode
        // N−1's normal equations is the exact residual within 1e-9
        // relative, per row and summed, across orders 2..=5, every kernel,
        // every placement, λ ∈ {0, 0.01} and threads ∈ {1, 3}.
        #[test]
        fn folded_error_matches_the_exact_pass(seed in 0..u64::MAX) {
            for case in 0..16 {
                folded_case(seed, case);
            }
        }

        // Tentpole property: storage precision is orthogonal to placement.
        // An f32-storage fit quantizes each value exactly once at plan
        // build; after that, resident and spilled windows widen the same
        // stored bits through the same f64 kernels — so the in-memory path
        // and the 1-byte-budget many-window path must agree bitwise,
        // exactly as the f64 invariant below. (Cache, resident-only, is
        // O.O.M. under that budget at either precision.)
        #[test]
        fn f32_storage_fit_is_window_partition_invariant(seed in 0..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = planted_lowrank(&[11, 9, 8], &[2, 2, 2], 350, 0.02, &mut rng).tensor;
            for variant in [Variant::Default, Variant::Cache] {
                let opts = FitOptions::new(vec![2, 2, 2])
                    .max_iters(3)
                    .tol(0.0)
                    .threads(2)
                    .seed(seed ^ 0xf32)
                    .variant(variant)
                    .precision(StoragePrecision::F32);
                let in_mem = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
                let windowed = PTucker::new(opts.budget(MemoryBudget::new(1)))
                    .unwrap()
                    .fit(&x);
                if variant == Variant::Cache {
                    prop_assert!(matches!(windowed, Err(PtuckerError::OutOfMemory(_))));
                    continue;
                }
                let windowed = windowed.unwrap();
                prop_assert!(windowed.stats.peak_spilled_bytes > 0);
                assert_bitwise_equal(&in_mem, &windowed, "f32 windowed-vs-resident");
            }
        }

        // Satellite property: the unified driver's single-full-window
        // (in-memory) path and its many-window spilled path walk the same
        // trajectory bitwise for every kernel that spills, across random
        // tensors and seeds — windowing is an execution detail, never a
        // semantic. Cache, resident-only, is O.O.M. under the 1-byte budget.
        #[test]
        fn unified_driver_is_window_partition_invariant(seed in 0..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = planted_lowrank(&[11, 9, 8], &[2, 2, 2], 350, 0.02, &mut rng).tensor;
            for variant in [
                Variant::Default,
                Variant::Cache,
                Variant::Approx { truncation_rate: 0.25 },
            ] {
                let opts = FitOptions::new(vec![2, 2, 2])
                    .max_iters(3)
                    .tol(0.0)
                    .threads(2)
                    .seed(seed ^ 0x5eed)
                    .variant(variant);
                let in_mem = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
                let windowed = PTucker::new(opts.budget(MemoryBudget::new(1)))
                    .unwrap()
                    .fit(&x);
                if variant == Variant::Cache {
                    prop_assert!(matches!(windowed, Err(PtuckerError::OutOfMemory(_))));
                    continue;
                }
                let windowed = windowed.unwrap();
                prop_assert!(windowed.stats.peak_spilled_bytes > 0);
                for (a, b) in in_mem.stats.iterations.iter().zip(&windowed.stats.iterations) {
                    prop_assert_eq!(
                        a.reconstruction_error.to_bits(),
                        b.reconstruction_error.to_bits(),
                        "{:?} iter {}",
                        variant,
                        a.iter
                    );
                }
                for (fa, fb) in in_mem
                    .decomposition
                    .factors
                    .iter()
                    .zip(&windowed.decomposition.factors)
                {
                    for (va, vb) in fa.as_slice().iter().zip(fb.as_slice()) {
                        prop_assert_eq!(va.to_bits(), vb.to_bits(), "{:?} factors", variant);
                    }
                }
            }
        }

        // Satellite property: a fit interrupted at an arbitrary iteration
        // and resumed from its checkpoint walks bitwise the same
        // trajectory as the uninterrupted fit — for every kernel variant
        // and for resident and spilled placement alike (Cache, resident-only,
        // is O.O.M. under the spilling budget). This is the
        // contract that makes worker respawn and `resume_from` safe: a
        // checkpoint is the *complete* replica state (factors, core, RNG
        // already consumed at init, kernel aux tables, error history).
        #[test]
        fn checkpoint_resume_is_bitwise(seed in 0..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = planted_lowrank(&[11, 9, 8], &[2, 2, 2], 350, 0.02, &mut rng).tensor;
            let total = 4usize;
            let cut = 1 + (seed % (total as u64 - 1)) as usize; // 1..total
            let variant = [
                Variant::Default,
                Variant::Cache,
                Variant::Approx { truncation_rate: 0.25 },
            ][(seed % 3) as usize];
            let budget = if seed & 1 == 0 {
                MemoryBudget::unlimited()
            } else {
                MemoryBudget::new(1)
            };
            let dir = std::env::temp_dir().join(format!("ptk-resume-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("ckpt-{seed:016x}.bin"));
            let opts = FitOptions::new(vec![2, 2, 2])
                .tol(0.0)
                .threads(2)
                .seed(seed ^ 0xc4e)
                .variant(variant)
                .budget(budget);
            let solo = PTucker::new(opts.clone().max_iters(total))
                .unwrap()
                .fit(&x);
            if variant == Variant::Cache && seed & 1 == 1 {
                prop_assert!(matches!(solo, Err(PtuckerError::OutOfMemory(_))));
                return Ok(());
            }
            let solo = solo.unwrap();
            let interrupted = PTucker::new(
                opts.clone()
                    .max_iters(cut)
                    .checkpoint_every(1)
                    .checkpoint_path(&path),
            )
            .unwrap()
            .fit(&x)
            .unwrap();
            prop_assert_eq!(interrupted.stats.iterations.len(), cut);
            let resumed = PTucker::new(opts.max_iters(total).resume_from(&path))
                .unwrap()
                .fit(&x)
                .unwrap();
            let _ = std::fs::remove_file(&path);
            assert_bitwise_equal(&solo, &resumed, "resumed-vs-uninterrupted");
        }
    }
}
