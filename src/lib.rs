//! Umbrella crate for the P-Tucker reproduction workspace.
//!
//! Re-exports the member crates under one roof so the `examples/` and
//! `tests/` directories (and downstream users who want a single
//! dependency) can reach everything through `ptucker_suite::…`.
//!
//! See `PAPER.md` for the source paper ("Scalable Tucker Factorization for
//! Sparse Tensors — Algorithms and Discoveries", Oh, Park, Sael, Kang;
//! ICDE 2018) and `ROADMAP.md` for where the workspace is headed.
//!
//! # Architecture
//!
//! The workspace is layered bottom-up:
//!
//! * [`linalg`] — dense kernels (Cholesky/LU/QR/eigen/SVD) on a small
//!   row-major `Matrix`. The hot-path entry points are the **in-place
//!   solvers** in `linalg::solve` (`cholesky_solve_in_place`,
//!   `lu_solve_in_place`): they factor in caller-provided buffers and
//!   overwrite the right-hand side, so solver loops can run without heap
//!   allocation. The allocating `Cholesky`/`Lu` wrappers are thin shims
//!   over the same routines. `linalg::kernels` adds the BLAS-1/2
//!   **micro-kernel primitives** (`dot`/`axpy`/`syr_in_place`/
//!   `hadamard_in_place`) every row-update inner loop is built from:
//!   chunked scalar code that autovectorizes anywhere, the one
//!   implementation every build runs.
//! * [`sched`] — OpenMP-style static/dynamic scheduling over scoped
//!   threads. `parallel_rows_mut_with` and `parallel_reduce_with` hand
//!   each worker a caller-owned **per-thread state**, which is how scratch
//!   arenas and accumulators are reused across an entire fit;
//!   `parallel_rows_mut_balanced` partitions rows into contiguous blocks
//!   of near-equal **nnz weight** (`weighted_blocks`), fixing static
//!   scheduling's skew imbalance without a dynamic queue.
//! * [`memtrack`] — the intermediate-data budget that reproduces the
//!   paper's O.O.M. boundaries arithmetically, now with a per-budget
//!   `BudgetPolicy` (overflow **spills** by default, or stays fatal under
//!   `Strict`), separate spill accounting, and the unlinked `ScratchFile`
//!   the out-of-core path stores its bulk arrays in.
//! * [`tensor`] / [`datagen`] — sparse/dense/core tensor types, I/O,
//!   train/test splits, and the synthetic generators. `tensor` also owns
//!   the **mode-major execution plan** (`ModeStreams`): per-mode streamed
//!   slice layouts — values plus packed other-mode indices physically
//!   reordered slice-by-slice — that every row-update loop in the
//!   workspace walks linearly instead of gathering through COO entry ids.
//!   A plan's storage is a `StreamStore`: fully resident, or spilled to a
//!   scratch file. Either placement is swept through one `SweepSource`
//!   abstraction — slice-aligned windows served as zero-copy views of a
//!   resident stream, or as pinned-buffer refills from the scratch file
//!   (double-buffered with a background prefetch worker).
//! * [`ptucker`] (`crates/core`) — the solver, organized as a
//!   **plan/engine/kernel/scratch** stack: the fit driver derives the
//!   `ModeStreams` plan once per fit (metered in the memory budget), is
//!   generic over a `ptucker::engine::RowUpdateKernel` (Direct and Cached
//!   — monomorphized, no per-row variant branching; Approx sweeps with
//!   Direct, and its per-iteration truncation by `R(β)` is a driver step:
//!   one walk of the last mode's stream, the sums factored through the
//!   tail factor), and every per-row intermediate lives in a
//!   `ptucker::engine::Scratch` arena allocated once per worker thread.
//!   The δ accumulation is **run-blocked**: the `CoreTensor` type
//!   guarantees lexicographic entry order, so the core decomposes into
//!   runs sharing their first `N−1` coordinates, and each run costs one
//!   shared prefix product plus a contiguous `dot`/`axpy` micro-kernel
//!   over the packed core values — with the run structure hoisted into
//!   one `RunPlan` per core and the `dot` memoized per (last-factor row,
//!   run) in a small budget-metered table that every sweep but the last
//!   mode's and the residual pass look up, bit for bit the per-entry
//!   result — and **entry-blocked**: four entries of a row advance through
//!   one walk of the core's runs with every accumulator in a local, each
//!   lane bit for bit the one-entry walk. The Cached variant keeps its resident
//!   `Pres` table in COO entry order for the whole fit (a per-entry row
//!   gather in the sweep — four rows of a factor row per walk, like the
//!   Direct lanes —, one in-place parallel rescale per mode — the
//!   table is never permuted, and a budget too small for it is the paper's
//!   O.O.M.). When the working set exceeds the memory budget, `PTucker::fit`
//!   switches to the **out-of-core driver**: the plan spills to a scratch
//!   file and every mode sweep runs window-by-window over slice-aligned
//!   chunks, reproducing the in-memory trajectory bitwise (see
//!   `ARCHITECTURE.md`). The net
//!   effect is a row-update loop with **zero heap allocations**,
//!   strictly sequential memory traffic, and FMA-saturating inner
//!   loops; adding a new backend means implementing one trait.
//! * [`cp`], [`baselines`], [`discovery`] — the CP-ALS analogue (sharing
//!   the same scratch arenas and execution plan), the paper's competitors
//!   (wOpt/CSF/S-HOT, with S-HOT's row loop on the same plan), and the
//!   factor-analysis discoveries.
//!
//! Offline note: crates.io is unreachable in this build environment, so
//! `crates/shims/` vendors minimal API-compatible stand-ins for `rand`,
//! `crossbeam`, `parking_lot`, `criterion` and `proptest`.

#![forbid(unsafe_code)]

pub use ptucker;
pub use ptucker_baselines as baselines;
pub use ptucker_cp as cp;
pub use ptucker_datagen as datagen;
pub use ptucker_discovery as discovery;
pub use ptucker_linalg as linalg;
pub use ptucker_memtrack as memtrack;
pub use ptucker_sched as sched;
pub use ptucker_tensor as tensor;
