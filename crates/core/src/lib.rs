//! **P-Tucker**: scalable Tucker factorization for sparse tensors.
//!
//! A from-scratch Rust reproduction of *"Scalable Tucker Factorization for
//! Sparse Tensors — Algorithms and Discoveries"* (Oh, Park, Sael, Kang;
//! ICDE 2018). Given a partially observed tensor `X` with observed entries
//! `Ω`, P-Tucker finds factor matrices `A⁽ⁿ⁾` and a core tensor `G`
//! minimizing the observed-entry loss
//!
//! `L = Σ_{α∈Ω} (X_α − Σ_{β∈G} G_β Πₙ a⁽ⁿ⁾(iₙ, βₙ))² + λ Σₙ ‖A⁽ⁿ⁾‖²`
//!
//! by alternating least squares with a **row-wise update rule**: each row of
//! each factor matrix has a closed-form update `c·(B + λI)⁻¹` computed from
//! only the observed entries in its slice (Theorem 1), so rows are
//! independent and updated fully in parallel with only `O(T·J²)`
//! intermediate memory (Theorem 4). Missing entries are *never* treated as
//! zeros, which is what separates P-Tucker's accuracy from zero-imputing
//! HOOI-style methods.
//!
//! Two variants trade resources for speed ([`Variant`]):
//! * **Cache** memoizes all `(entry, core-entry)` products (`O(|Ω|·J^N)`
//!   memory, ~`N×` less multiplication work), and
//! * **Approx** truncates the "noisiest" core entries each iteration,
//!   ranked by exact partial reconstruction error `R(β)`.
//!
//! # Architecture: plan / engine / kernel / scratch layering
//!
//! The solver is layered so the hot path allocates nothing, touches memory
//! linearly, and variant dispatch costs nothing per row:
//!
//! * **Execution plan** (`ptucker_tensor::ModeStreams`): the mode-major
//!   data plane. For each mode, entry values and packed other-mode indices
//!   are physically reordered slice-by-slice, so a row update streams
//!   through contiguous memory instead of gathering per-entry through COO
//!   entry ids. The plan is derived from COO once per fit (COO stays the
//!   source of truth) and metered against the [`MemoryBudget`]; its
//!   storage is resident or spilled to a scratch file, and either
//!   placement is swept through the same `ptucker_tensor::SweepSource`
//!   abstraction.
//! * **Engine** ([`engine`]): the kernel-generic fit driver — there is
//!   exactly **one**. `PTucker::fit` matches [`Variant`] exactly once,
//!   picks a kernel, and hands it to a fit loop that is *generic over the
//!   kernel type* — the per-row code is monomorphized, with no variant
//!   branching inside the loop. Every mode sweep iterates the
//!   slice-aligned windows of a `SweepSource`; an in-memory fit's sweep
//!   is a single zero-copy full-stream window, so "in-memory" and
//!   "out-of-core" are placements of one loop, not two drivers. Row
//!   sweeps are parallelized with either the paper's dynamic schedule or
//!   nnz-balanced static blocks (`ptucker_sched::weighted_blocks`), both
//!   addressing the same `|Ω⁽ⁿ⁾ᵢ|` skew. The per-iteration error
//!   (Algorithm 2 line 4) is no pass over `Ω`: mode `N−1`'s sweep leaves
//!   each row's squared residual `‖x_i‖² − 2·a_i·c_i + a_iᵀ B_i a_i`, read
//!   from the normal equations its solve just built
//!   ([`engine::Scratch::row_sse`]), in a per-row buffer
//!   ([`sync::RowSse`]) the fit loop sums in row order — the same bits at
//!   every thread count, schedule, window partition and shard count. The
//!   exact pass runs only by rule: `sample_stride > 1`, f32 storage, or a
//!   folded sum below `2⁻²⁰·Σx²`; `final_error` is always exact.
//! * **Kernels** ([`engine::RowUpdateKernel`]): [`engine::DirectKernel`]
//!   and [`engine::CachedKernel`] (owns the `|Ω|×|G|` memoization table).
//!   A kernel supplies the per-entry δ computation plus lifecycle hooks
//!   (`prepare_fit`/`prepare_mode`/`post_mode`); adding a
//!   new backend is one new trait impl. Approx is not a kernel: it sweeps
//!   with Direct, and its per-iteration truncation by `R(β)` is a step of
//!   the fit driver ([`approx`]). `R(β)` factors through the tail factor,
//!   so the ranking is one walk of mode `N−1`'s stream — one lane walk per
//!   entry for its residual, `~3·|G|/J_N` multiply-adds into per-run sums,
//!   and a `|G|` flush per slice — instead of `|G|` products and a
//!   `|G|`-wide read-modify-write per entry.
//!
//!   The δ accumulation itself is **run-blocked** (`delta.rs`):
//!   `CoreTensor`'s lexicographic invariant decomposes the core entry list
//!   into maximal runs sharing their first `N−1` coordinates (for a dense
//!   core, runs of length `J_N`). The run structure lives in one
//!   [`engine::RunPlan`] per core, built by the fit driver (again only
//!   when Approx truncates the core) and borrowed by every sweep, window
//!   and error pass; each run then costs one shared prefix product (still
//!   prefix-reused across run heads) plus a single contiguous `dot` or
//!   `axpy` micro-kernel over the packed core values
//!   (`ptucker_linalg::kernels` — chunked scalar code that
//!   autovectorizes). The run's `dot` depends on the observed
//!   entry only through its last index, so the plan also carries a
//!   **tail-dot table** (`I_N × |G|/J_N` doubles, metered in the budget;
//!   used iff it holds at most one double per observed entry and the
//!   budget has room) that every mode's sweep but the last and the
//!   residual pass *look up* instead — `|G|/J_N` multiply-adds per entry
//!   instead of `|G|`, bit for bit the same fit. On top of that the
//!   kernel is **entry-blocked**: Direct and Approx sweeps and the residual
//!   pass advance [`engine::LANES`] entries of a row through one walk of
//!   the core's runs, every accumulator in a local (a group's runs summed
//!   in a register; the last mode's δ in a `J_N`-wide tile per lane, a
//!   truncated core's runs padded to `J_N` for it), each
//!   lane bit for bit the one-entry walk — which is the same function at
//!   block width 1, and what serving calls. The downstream
//!   `B += δδᵀ` / `c += x·δ` accumulation rides the same `syr`/`axpy`
//!   primitives, as does cp-ALS.
//!
//!   The Cached kernel keeps its `Pres` table resident, in **COO entry
//!   order for the whole fit** (`cache.rs`): a sweep gathers the
//!   `|G|`-element row behind each stream position through the stream's
//!   entry id, and the per-mode rescale is one parallel pass over the rows
//!   where they lie, with the `a_new/a_old` quotient formed once per
//!   column of the updated row. The table is never permuted and has no
//!   second buffer, so Theorem 6's memory bound holds as stated. Its
//!   sweep is entry-blocked too: [`engine::LANES`] `Pres` rows of a factor
//!   row per walk of the core's runs (their sum → divide chains overlap;
//!   the last mode's δ sits in a `J_N`-wide divide tile), each lane bit
//!   for bit the one-entry loop — the sweep was bound by that chain, not
//!   by the table's bandwidth (`cache.rs` has the roofline).
//! * **Scratch** ([`engine::Scratch`]): a per-thread arena holding every
//!   per-row intermediate (δ, `c`, the `B` triangle, the solver workspace
//!   and pivots). One arena is allocated per worker at fit start — metered
//!   against the [`MemoryBudget`] as Theorem 4's `O(T·J²)` — and
//!   `ptucker_sched::parallel_rows_mut_with` hands it to every row that
//!   worker processes, so the inner loop performs **zero heap
//!   allocations**. The solves themselves run through
//!   `ptucker_linalg`'s in-place `cholesky_solve_in_place` /
//!   `lu_solve_in_place` on those buffers.
//! * **Placement** (the gate in `als`): when the in-memory working set —
//!   plan, scratch, the per-row error buffer — exceeds the
//!   [`MemoryBudget`] and its policy is [`BudgetPolicy::Spill`] (the
//!   default), [`PTucker::fit`] transparently moves the plan to an
//!   unlinked scratch file. Spilled plan windows refill pinned buffers
//!   through a background **prefetch ring** when the windows are large
//!   enough to amortize it. The per-row code is the same monomorphized
//!   kernel path on every placement, so spilled fits reproduce the
//!   resident trajectory bitwise; `FitStats::peak_spilled_bytes` reports
//!   the disk footprint. [`BudgetPolicy::Strict`] restores the paper's
//!   hard O.O.M. boundary. The Cache variant is resident-only: when its
//!   `|Ω|×|G|` table does not fit, the fit is O.O.M. under either policy,
//!   as in the paper's Table III.
//!
//! # Example
//!
//! ```
//! use ptucker::{FitOptions, PTucker};
//! use ptucker_tensor::SparseTensor;
//!
//! // A tiny 3-way tensor with 6 observed entries.
//! let x = SparseTensor::new(
//!     vec![4, 4, 3],
//!     vec![
//!         (vec![0, 0, 0], 0.9),
//!         (vec![1, 1, 1], 0.8),
//!         (vec![2, 2, 2], 0.7),
//!         (vec![3, 3, 0], 0.6),
//!         (vec![0, 1, 2], 0.5),
//!         (vec![2, 0, 1], 0.4),
//!     ],
//! )
//! .unwrap();
//!
//! let solver = PTucker::new(
//!     FitOptions::new(vec![2, 2, 2]).max_iters(5).threads(2).seed(7),
//! )
//! .unwrap();
//! let result = solver.fit(&x).unwrap();
//!
//! // Factors are orthogonalized on exit and the model predicts any cell.
//! assert!(result.decomposition.orthogonality_defect() < 1e-10);
//! let _missing = result.decomposition.predict(&[3, 0, 2]);
//! ```
//!
//! # Out-of-core example
//!
//! The same fit under a [`MemoryBudget`] far too small for the execution
//! plan: the default [`BudgetPolicy::Spill`] completes it through spilled
//! windowed sweeps instead of erroring, with an identical trajectory.
//!
//! ```
//! use ptucker::{BudgetPolicy, FitOptions, MemoryBudget, PTucker};
//! use ptucker_tensor::SparseTensor;
//!
//! let x = SparseTensor::new(
//!     vec![4, 4, 3],
//!     vec![
//!         (vec![0, 0, 0], 0.9),
//!         (vec![1, 1, 1], 0.8),
//!         (vec![2, 2, 2], 0.7),
//!         (vec![3, 3, 0], 0.6),
//!         (vec![0, 1, 2], 0.5),
//!         (vec![2, 0, 1], 0.4),
//!     ],
//! )
//! .unwrap();
//!
//! let opts = |budget| {
//!     FitOptions::new(vec![2, 2, 2]).max_iters(5).tol(0.0).seed(7).budget(budget)
//! };
//! let in_memory = PTucker::new(opts(MemoryBudget::unlimited())).unwrap().fit(&x).unwrap();
//! assert_eq!(in_memory.stats.peak_spilled_bytes, 0);
//!
//! // A 64-byte budget cannot hold the plan; the fit spills and completes.
//! let budget = MemoryBudget::new(64);
//! assert_eq!(budget.policy(), BudgetPolicy::Spill);
//! let spilled = PTucker::new(opts(budget)).unwrap().fit(&x).unwrap();
//! assert!(spilled.stats.peak_spilled_bytes > 0);
//! assert_eq!(
//!     in_memory.stats.final_error.to_bits(),
//!     spilled.stats.final_error.to_bits(),
//!     "windowed sweeps reproduce the in-memory fit exactly",
//! );
//!
//! // The paper's hard O.O.M. boundary survives behind an explicit policy.
//! let strict = MemoryBudget::with_policy(64, BudgetPolicy::Strict);
//! assert!(PTucker::new(opts(strict)).unwrap().fit(&x).is_err());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]

mod als;
pub mod approx;
mod cache;
pub mod checkpoint;
mod decomposition;
mod delta;
pub mod engine;
mod error;
mod input;
mod options;
pub mod serving;
mod stats;
pub mod sync;

pub use als::PTucker;
pub use checkpoint::FitCheckpoint;
pub use decomposition::TuckerDecomposition;
pub use error::PtuckerError;
pub use input::FitInput;
pub use options::{FitOptions, StoragePrecision, Variant};
pub use serving::Predictor;
pub use stats::{FitResult, FitStats, IterStats};
pub use sync::{FitSync, LocalSync};

// Re-exported for harness convenience: callers configuring a fit usually
// need the schedule and budget types too.
pub use ptucker_memtrack::{BudgetPolicy, MemoryBudget};
pub use ptucker_sched::Schedule;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, PtuckerError>;

#[cfg(test)]
mod tests {
    use super::*;
    use ptucker_datagen::planted_lowrank;
    use ptucker_tensor::{SparseTensor, TrainTestSplit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planted(seed: u64) -> SparseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        planted_lowrank(&[14, 12, 10], &[2, 2, 2], 700, 0.01, &mut rng).tensor
    }

    fn fit(x: &SparseTensor, opts: FitOptions) -> FitResult {
        PTucker::new(opts).unwrap().fit(x).unwrap()
    }

    #[test]
    fn error_decreases_monotonically() {
        // Theorem 2: every update minimizes the loss, so the reconstruction
        // error never increases (λ small; sampling off).
        let x = planted(1);
        let r = fit(
            &x,
            FitOptions::new(vec![2, 2, 2])
                .max_iters(8)
                .tol(0.0)
                .threads(2)
                .lambda(1e-6)
                .seed(3),
        );
        let errs: Vec<f64> = r
            .stats
            .iterations
            .iter()
            .map(|s| s.reconstruction_error)
            .collect();
        assert!(errs.len() >= 2);
        for w in errs.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-9),
                "error increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn recovers_planted_structure() {
        let x = planted(2);
        let r = fit(
            &x,
            FitOptions::new(vec![2, 2, 2])
                .max_iters(15)
                .threads(2)
                .seed(5),
        );
        // Relative reconstruction error well below the trivial baseline.
        let rel = r.stats.final_error / x.frobenius_norm();
        assert!(rel < 0.15, "relative error {rel}");
    }

    #[test]
    fn qr_preserves_reconstruction_error() {
        let x = planted(3);
        let r = fit(
            &x,
            FitOptions::new(vec![2, 2, 2]).max_iters(4).tol(0.0).seed(1),
        );
        // Last in-loop error equals the post-QR final error.
        let last = r.stats.iterations.last().unwrap().reconstruction_error;
        assert!(
            (last - r.stats.final_error).abs() <= 1e-8 * last.max(1.0),
            "QR changed the error: {last} vs {}",
            r.stats.final_error
        );
        assert!(r.decomposition.orthogonality_defect() < 1e-10);
    }

    #[test]
    fn three_kernels_identical_fits_for_fixed_seed() {
        // Satellite acceptance: Direct, Cache and Approx(rate = 0) must
        // produce identical fits from the same seed. Approx(0) is the
        // Direct fit bit for bit (nothing is ranked or truncated); Cache
        // computes δ through division against the memoized products, so it
        // agrees to floating-point noise.
        let x = planted(20);
        let base = FitOptions::new(vec![2, 2, 2])
            .max_iters(5)
            .tol(0.0)
            .threads(2)
            .seed(77);
        let direct = fit(&x, base.clone());
        let cached = fit(&x, base.clone().variant(Variant::Cache));
        let approx0 = fit(
            &x,
            base.variant(Variant::Approx {
                truncation_rate: 0.0,
            }),
        );
        // Approx(0) vs Direct: bitwise-identical error trajectory.
        for (a, b) in direct
            .stats
            .iterations
            .iter()
            .zip(&approx0.stats.iterations)
        {
            assert_eq!(
                a.reconstruction_error.to_bits(),
                b.reconstruction_error.to_bits(),
                "iter {}",
                a.iter
            );
        }
        assert_eq!(
            direct.stats.final_error.to_bits(),
            approx0.stats.final_error.to_bits()
        );
        // And identical factor matrices.
        for (fa, fb) in direct
            .decomposition
            .factors
            .iter()
            .zip(&approx0.decomposition.factors)
        {
            for (a, b) in fa.as_slice().iter().zip(fb.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Cache vs Direct: same fit up to fp noise in the δ path.
        for (a, b) in direct.stats.iterations.iter().zip(&cached.stats.iterations) {
            let rel = (a.reconstruction_error - b.reconstruction_error).abs()
                / a.reconstruction_error.max(1e-12);
            assert!(rel < 1e-6, "iter {}: {rel}", a.iter);
        }
        // And the degenerate Approx reserves no R(β) buffers: identical
        // peak memory, so any budget that fits Direct fits Approx(0).
        assert_eq!(
            direct.stats.peak_intermediate_bytes,
            approx0.stats.peak_intermediate_bytes
        );
    }

    #[test]
    fn cache_variant_matches_default_exactly() {
        // Same seed ⇒ identical initialization ⇒ the cached algebra must
        // produce the same iterates up to floating-point noise.
        let x = planted(4);
        let base = FitOptions::new(vec![2, 2, 2])
            .max_iters(4)
            .tol(0.0)
            .threads(2)
            .seed(11);
        let d = fit(&x, base.clone());
        let c = fit(&x, base.variant(Variant::Cache));
        for (a, b) in d.stats.iterations.iter().zip(&c.stats.iterations) {
            let rel = (a.reconstruction_error - b.reconstruction_error).abs()
                / a.reconstruction_error.max(1e-12);
            assert!(rel < 1e-6, "iter {}: {rel}", a.iter);
        }
    }

    #[test]
    fn approx_truncates_core_each_iteration() {
        let x = planted(5);
        let r = fit(
            &x,
            FitOptions::new(vec![3, 3, 3])
                .max_iters(5)
                .tol(0.0)
                .variant(Variant::Approx {
                    truncation_rate: 0.2,
                })
                .seed(2),
        );
        let sizes: Vec<usize> = r.stats.iterations.iter().map(|s| s.core_nnz).collect();
        assert!(sizes.windows(2).all(|w| w[1] < w[0]), "sizes: {sizes:?}");
        // Note: the final QR core update (G ← G ×ₙ R⁽ⁿ⁾) introduces fill-in,
        // so the returned core may be denser than the last truncated state;
        // the iteration log records the truncated sizes.
        assert!(*sizes.last().unwrap() < 27);
    }

    #[test]
    fn approx_error_stays_close_to_default() {
        let x = planted(6);
        let base = FitOptions::new(vec![2, 2, 2]).max_iters(10).seed(9);
        let d = fit(&x, base.clone());
        let a = fit(
            &x,
            base.variant(Variant::Approx {
                truncation_rate: 0.2,
            }),
        );
        // Fig. 9(b): "almost the same accuracy" — allow 2x slack here.
        assert!(a.stats.final_error <= 2.0 * d.stats.final_error + 0.5);
    }

    #[test]
    fn thread_counts_agree() {
        let x = planted(7);
        let base = FitOptions::new(vec![2, 2, 2])
            .max_iters(3)
            .tol(0.0)
            .seed(13);
        let t1 = fit(&x, base.clone().threads(1));
        let t4 = fit(&x, base.threads(4));
        for (a, b) in t1.stats.iterations.iter().zip(&t4.stats.iterations) {
            let rel = (a.reconstruction_error - b.reconstruction_error).abs()
                / a.reconstruction_error.max(1e-12);
            assert!(rel < 1e-9, "thread count changed results: {rel}");
        }
    }

    #[test]
    fn static_and_dynamic_schedules_agree() {
        let x = planted(8);
        let base = FitOptions::new(vec![2, 2, 2])
            .max_iters(3)
            .tol(0.0)
            .seed(17);
        let s = fit(&x, base.clone().schedule(Schedule::Static).threads(3));
        let d = fit(&x, base.schedule(Schedule::dynamic()).threads(3));
        for (a, b) in s.stats.iterations.iter().zip(&d.stats.iterations) {
            let rel = (a.reconstruction_error - b.reconstruction_error).abs()
                / a.reconstruction_error.max(1e-12);
            assert!(rel < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let x = planted(9);
        let opts = FitOptions::new(vec![2, 2, 2])
            .max_iters(3)
            .seed(23)
            .threads(2);
        let a = fit(&x, opts.clone());
        let b = fit(&x, opts);
        assert_eq!(
            a.stats.iterations.last().unwrap().reconstruction_error,
            b.stats.iterations.last().unwrap().reconstruction_error
        );
    }

    #[test]
    fn cache_overflow_is_oom_under_both_policies() {
        // The Cache variant's |Ω|×|G| Pres table is resident-only: a budget
        // too small for it is the paper's O.O.M. (Table III) whatever the
        // policy — the default Spill policy spills Direct and Approx plans,
        // never the table.
        let x = planted(10);
        for policy in [BudgetPolicy::Spill, BudgetPolicy::Strict] {
            let opts = FitOptions::new(vec![2, 2, 2])
                .max_iters(2)
                .variant(Variant::Cache)
                .budget(MemoryBudget::with_policy(1024, policy));
            let err = PTucker::new(opts).unwrap().fit(&x).unwrap_err();
            assert!(matches!(err, PtuckerError::OutOfMemory(_)), "{policy:?}");
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let x = planted(11);
        let err = PTucker::new(FitOptions::new(vec![2, 2]))
            .unwrap()
            .fit(&x)
            .unwrap_err();
        assert!(matches!(err, PtuckerError::InvalidConfig(_)));
    }

    #[test]
    fn test_rmse_beats_zero_prediction_on_planted_data() {
        let x = planted(12);
        let mut rng = StdRng::seed_from_u64(99);
        let split = TrainTestSplit::new(&x, 0.1, &mut rng).unwrap();
        let r = fit(
            &split.train,
            FitOptions::new(vec![2, 2, 2]).max_iters(15).seed(4),
        );
        let rmse = r.decomposition.test_rmse(&split.test, 2, Schedule::Static);
        // Zero-prediction RMSE (what a zero-imputing method effectively
        // gives for held-out cells).
        let zero_rmse = (split.test.values().iter().map(|v| v * v).sum::<f64>()
            / split.test.nnz() as f64)
            .sqrt();
        assert!(
            rmse < 0.5 * zero_rmse,
            "rmse {rmse} vs zero-pred {zero_rmse}"
        );
    }

    #[test]
    fn refit_core_does_not_hurt() {
        let x = planted(13);
        let base = FitOptions::new(vec![2, 2, 2]).max_iters(8).seed(6);
        let plain = fit(&x, base.clone());
        let refit = fit(&x, base.refit_core(true));
        // The refit is the exact least-squares core given the factors; the
        // plain core is a feasible point, so the error cannot increase.
        assert!(
            refit.stats.final_error <= plain.stats.final_error * (1.0 + 1e-6) + 1e-9,
            "refit {} vs plain {}",
            refit.stats.final_error,
            plain.stats.final_error
        );
    }

    #[test]
    fn sampling_stride_still_converges_roughly() {
        let x = planted(14);
        let r = fit(
            &x,
            FitOptions::new(vec![2, 2, 2])
                .max_iters(10)
                .sample_stride(2)
                .seed(8),
        );
        let rel = r.stats.final_error / x.frobenius_norm();
        assert!(rel < 0.5, "sampled fit diverged: {rel}");
    }

    #[test]
    fn empty_slices_yield_zero_predictions() {
        // A tensor where mode-0 index 3 is never observed.
        let x = SparseTensor::new(
            vec![5, 3, 3],
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![1, 1, 1], 0.5),
                (vec![2, 2, 2], 0.25),
                (vec![4, 0, 1], 0.75),
            ],
        )
        .unwrap();
        let r = fit(&x, FitOptions::new(vec![2, 2, 2]).max_iters(2).seed(1));
        let p = r.decomposition.predict(&[3, 0, 0]);
        assert!(p.abs() < 1e-8, "unobserved slice predicted {p}");
    }

    #[test]
    fn peak_intermediate_memory_reported() {
        let x = planted(15);
        let d = fit(
            &x,
            FitOptions::new(vec![2, 2, 2])
                .max_iters(2)
                .seed(1)
                .threads(2),
        );
        assert!(d.stats.peak_intermediate_bytes > 0);
        let c = fit(
            &x,
            FitOptions::new(vec![2, 2, 2])
                .max_iters(2)
                .seed(1)
                .threads(2)
                .variant(Variant::Cache),
        );
        // Both variants now carry the (identical) mode-major plan in their
        // peaks; the Cache variant must additionally carry its full
        // |Ω|·|G| `Pres` table on top of whatever the Direct fit holds.
        let table_bytes = x.nnz() * 8 * std::mem::size_of::<f64>(); // |G| = 2·2·2
        assert!(
            c.stats.peak_intermediate_bytes >= d.stats.peak_intermediate_bytes + table_bytes,
            "cache {} vs default {} + table {table_bytes}",
            c.stats.peak_intermediate_bytes,
            d.stats.peak_intermediate_bytes
        );
    }

    #[test]
    fn converges_flag_set_with_loose_tol() {
        let x = planted(16);
        let r = fit(
            &x,
            FitOptions::new(vec![2, 2, 2])
                .max_iters(20)
                .tol(0.5)
                .seed(2),
        );
        assert!(r.stats.converged);
        assert!(r.stats.iterations.len() < 20);
    }
}
