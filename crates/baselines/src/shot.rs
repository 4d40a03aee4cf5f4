//! S-HOT (Oh et al., WSDM 2017): scalable high-order Tucker decomposition
//! via **on-the-fly** TTMc.
//!
//! Tucker-CSF materializes the `Iₙ × J^{N-1}` TTMc output `Y₍ₙ₎` before its
//! SVD — the *M-bottleneck*. S-HOT never materializes `Y`: it computes the
//! leading left singular subspace with an iterative method whose matrix–
//! vector products stream over the nonzeros, keeping intermediates at
//! `O(J^{N-1})` scale (Table III). The original uses implicitly-restarted
//! Arnoldi; this reproduction uses warm-started **subspace iteration**
//! (numerically equivalent for the dominant subspace HOOI needs), with
//! `Yᵀ·U` and `Y·V` evaluated entry-by-entry through on-the-fly
//! Kronecker rows.

use crate::common::{run_hooi_loop, BaselineOptions};
use ptucker::{FitResult, PtuckerError, Result};
use ptucker_linalg::kernels::axpy;
use ptucker_linalg::Matrix;
use ptucker_sched::{parallel_reduce_with, parallel_rows_mut_balanced, Schedule};
use ptucker_tensor::{ModeStreams, SparseTensor};

/// Inner subspace-iteration sweeps per mode update. Warm starting from the
/// previous factor makes a handful of sweeps sufficient; this constant
/// trades a little accuracy for speed exactly like the original's Arnoldi
/// iteration cap.
const INNER_SWEEPS: usize = 5;

/// Expands the running Kronecker product in `buf` by one factor row
/// (`buf ← buf ⊗ row`, via the `tmp` ping-pong buffer).
#[inline]
fn kron_expand(buf: &mut Vec<f64>, tmp: &mut Vec<f64>, row: &[f64]) {
    tmp.clear();
    tmp.reserve(buf.len() * row.len());
    for &a in buf.iter() {
        for &b in row {
            tmp.push(a * b);
        }
    }
    std::mem::swap(buf, tmp);
}

/// Computes the on-the-fly Kronecker row `⊗_{k≠n} a⁽ᵏ⁾(iₖ, :)` for one
/// nonzero from its COO multi-index (ascending `k`, skipping `n`),
/// writing into `buf`/`tmp` and returning the filled length.
#[inline]
fn kron_row(
    idx: &[usize],
    mode: usize,
    factors: &[Matrix],
    buf: &mut Vec<f64>,
    tmp: &mut Vec<f64>,
) -> usize {
    buf.clear();
    buf.push(1.0);
    for (k, factor) in factors.iter().enumerate() {
        if k == mode {
            continue;
        }
        kron_expand(buf, tmp, factor.row(idx[k]));
    }
    buf.len()
}

/// [`kron_row`] from a `ModeStream`'s packed other-mode indices (already
/// ascending with `mode` skipped — the identical product order).
#[inline]
fn kron_row_packed(
    others: &[u32],
    mode: usize,
    factors: &[Matrix],
    buf: &mut Vec<f64>,
    tmp: &mut Vec<f64>,
) -> usize {
    buf.clear();
    buf.push(1.0);
    let mut slot = 0;
    for (k, factor) in factors.iter().enumerate() {
        if k == mode {
            continue;
        }
        kron_expand(buf, tmp, factor.row(others[slot] as usize));
        slot += 1;
    }
    buf.len()
}

/// Runs S-HOT: HOOI with on-the-fly TTMc (no `Y` materialization).
///
/// # Errors
/// * [`PtuckerError::OutOfMemory`] when the `O(J^{N-1}·Jₙ)` iteration
///   buffers exceed the budget (they are tiny by design — that is S-HOT's
///   point).
/// * [`PtuckerError::InvalidConfig`] for shape violations.
pub fn s_hot(x: &SparseTensor, opts: &BaselineOptions) -> Result<FitResult> {
    opts.validate_for(x.dims())?;
    if x.order() < 2 {
        return Err(PtuckerError::InvalidConfig(
            "s-hot requires order >= 2".into(),
        ));
    }
    for n in 0..x.order() {
        let m: usize = (0..x.order())
            .filter(|&k| k != n)
            .map(|k| opts.ranks[k])
            .product();
        if opts.ranks[n] > m {
            return Err(PtuckerError::InvalidConfig(format!(
                "rank J_{n} = {} exceeds Π_(k≠{n}) J_k = {m}",
                opts.ranks[n]
            )));
        }
    }
    let dims = x.dims().to_vec();
    let ranks = opts.ranks.clone();
    let threads = opts.threads;
    let budget = opts.budget.clone();
    // The mode-major plan for the W-phase's row loop (the same streamed
    // slice layout the P-Tucker engine runs on). Like the CSF baseline's
    // compressed tree, this is a re-layout of the tensor itself, not
    // per-iteration intermediate data, so it stays outside Definition 7's
    // accounting and the cross-method O.O.M. boundaries keep comparing
    // algorithmic intermediates (Table III). The P-Tucker engine meters
    // its own plan anyway — the stricter reading; see the note in
    // crates/core/src/als.rs.
    let streams = ModeStreams::build(x)?;

    run_hooi_loop(x, opts, move |factors, n| {
        let m: usize = (0..dims.len())
            .filter(|&k| k != n)
            .map(|k| ranks[k])
            .product();
        let j_n = ranks[n];
        let i_n = dims[n];
        // Iteration buffers, all `O(J^{N-1})`-scale per Table III: the
        // shared Z (M×Jₙ), one Z accumulator per worker (M×Jₙ — the
        // Z-phase scatters across kron positions, so workers need private
        // copies), and the per-worker Kronecker row ping-pong (2M). The
        // W iterate is factor-shaped and computed row-parallel in place,
        // so it carries no per-worker copies and — like the factor
        // matrices themselves — is excluded from intermediate-data
        // accounting (Definition 7).
        let t = threads.max(1);
        let _scratch = budget.reserve_f64(m * j_n + t * (m * j_n + 2 * m))?;

        // Per-worker states — (Z accumulator, Kronecker buf, Kronecker
        // tmp) — allocated once per mode update and reused across all
        // subspace sweeps (`parallel_reduce_with`/`parallel_rows_mut_with`
        // hand worker `b` exclusive access to `states[b]`).
        let mut states: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..t)
            .map(|_| (Vec::new(), Vec::new(), Vec::new()))
            .collect();
        let mut z = Matrix::zeros(m, j_n);
        let mut w = Matrix::zeros(i_n, j_n);

        // Warm start from the current factor (already orthonormal).
        let mut u = factors[n].clone();
        for _ in 0..INNER_SWEEPS {
            // Z = Yᵀ U, computed as Σ_α X_α · k_α ⊗ U[iₙ(α), :].
            for (acc, _, _) in states.iter_mut() {
                acc.clear();
                acc.resize(m * j_n, 0.0);
            }
            {
                let u_ref = &u;
                parallel_reduce_with(
                    x.nnz(),
                    threads,
                    Schedule::Static,
                    &mut states,
                    |(zacc, kbuf, ktmp), e| {
                        let idx = x.index(e);
                        let xv = x.value(e);
                        let len = kron_row(idx, n, factors, kbuf, ktmp);
                        debug_assert_eq!(len, m);
                        let u_row = u_ref.row(idx[n]);
                        for (r, &kv) in kbuf.iter().enumerate() {
                            if kv == 0.0 {
                                continue;
                            }
                            // Z[r, :] += (X_α·k_α[r]) · U[iₙ, :] — the
                            // axpy micro-kernel, like the engine's δ
                            // accumulation.
                            let off = r * j_n;
                            axpy(xv * kv, u_row, &mut zacc[off..off + j_n]);
                        }
                    },
                );
            }
            combine_states(&states, z.as_mut_slice());

            // W = Y Z, row-parallel over mode-n slices (the same shape as
            // the P-Tucker row update): W[i, :] = Σ_{α∈Ωᵢ} X_α · (k_αᵀ Z).
            // The slice is walked through the mode's stream — contiguous
            // values and packed other-mode indices — with contiguous row
            // blocks balanced by |Ω⁽ⁿ⁾ᵢ| (work per row is nnz-proportional
            // here exactly as in the P-Tucker row update). Rows are
            // disjoint and per-row sum order is fixed — deterministic for
            // any thread count.
            {
                let z_ref = &z;
                let stream = streams.mode(n);
                parallel_rows_mut_balanced(
                    w.as_mut_slice(),
                    j_n,
                    threads,
                    |i| stream.slice_len(i),
                    &mut states,
                    |(_, kbuf, ktmp), i, wrow| {
                        wrow.fill(0.0);
                        let values = stream.values();
                        let k_others = stream.other_count();
                        let others = stream.others_flat();
                        for pos in stream.slice_range(i) {
                            let xv = values.at(pos);
                            kron_row_packed(
                                &others[pos * k_others..(pos + 1) * k_others],
                                n,
                                factors,
                                kbuf,
                                ktmp,
                            );
                            for (r, &kv) in kbuf.iter().enumerate() {
                                if kv == 0.0 {
                                    continue;
                                }
                                // W[i, :] += (X_α·k_α[r]) · Z[r, :]: the
                                // W-phase inner loop is one contiguous
                                // axpy per kron position — the last
                                // scalar-style walk in this baseline,
                                // now on the shared micro-kernels.
                                axpy(xv * kv, z_ref.row(r), wrow);
                            }
                        }
                    },
                );
            }
            u = w.qr()?.into_parts().0;
        }
        factors[n] = u;
        Ok(())
    })
}

/// Sums per-worker accumulators into `out` (fixed worker order, so the
/// combination is deterministic for a given thread count).
fn combine_states(states: &[(Vec<f64>, Vec<f64>, Vec<f64>)], out: &mut [f64]) {
    out.fill(0.0);
    for (acc, _, _) in states {
        for (o, a) in out.iter_mut().zip(acc) {
            *o += a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_tensor() -> SparseTensor {
        let mut rng = StdRng::seed_from_u64(5);
        ptucker_datagen::uniform_sparse(&[6, 5, 4], 40, &mut rng)
    }

    #[test]
    fn shot_matches_csf_subspace_quality() {
        // Both are HOOI; started from the same seed they should reach
        // errors within a small factor of each other.
        let x = sample_tensor();
        let opts = BaselineOptions::new(vec![2, 2, 2])
            .max_iters(6)
            .tol(0.0)
            .seed(9);
        let shot = s_hot(&x, &opts).unwrap();
        let csf = crate::csf::tucker_csf(&x, &opts).unwrap();
        let a = shot.stats.final_error;
        let b = csf.stats.final_error;
        assert!((a - b).abs() < 0.05 * b.max(1e-9), "s-hot {a} vs csf {b}");
    }

    #[test]
    fn shot_error_nonincreasing_after_first() {
        let x = sample_tensor();
        let opts = BaselineOptions::new(vec![2, 2, 2])
            .max_iters(5)
            .tol(0.0)
            .seed(2);
        let r = s_hot(&x, &opts).unwrap();
        let errs: Vec<f64> = r
            .stats
            .iterations
            .iter()
            .map(|s| s.reconstruction_error)
            .collect();
        // Subspace iteration is approximate, so allow tiny wiggle.
        for w in errs.windows(2) {
            assert!(w[1] <= w[0] * 1.01 + 1e-9, "errors: {errs:?}");
        }
    }

    #[test]
    fn shot_factors_orthonormal() {
        let x = sample_tensor();
        let opts = BaselineOptions::new(vec![2, 2, 2]).max_iters(3).seed(4);
        let r = s_hot(&x, &opts).unwrap();
        assert!(r.decomposition.orthogonality_defect() < 1e-10);
    }

    #[test]
    fn shot_memory_far_below_csf() {
        // The entire point of S-HOT: intermediates are J^{N-1}-scale, not
        // I·J^{N-1}-scale. With I ≫ J the peaks must differ substantially.
        let mut rng = StdRng::seed_from_u64(6);
        let x = ptucker_datagen::uniform_sparse(&[200, 200, 200], 500, &mut rng);
        let opts = BaselineOptions::new(vec![4, 4, 4])
            .max_iters(1)
            .threads(1)
            .seed(7);
        let shot = s_hot(&x, &opts).unwrap();
        let csf = crate::csf::tucker_csf(&x, &opts).unwrap();
        assert!(
            shot.stats.peak_intermediate_bytes * 10 < csf.stats.peak_intermediate_bytes,
            "shot {} vs csf {}",
            shot.stats.peak_intermediate_bytes,
            csf.stats.peak_intermediate_bytes
        );
    }

    #[test]
    fn shot_4way_runs() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = ptucker_datagen::uniform_sparse(&[5, 4, 3, 3], 30, &mut rng);
        let opts = BaselineOptions::new(vec![2, 2, 2, 2]).max_iters(2).seed(1);
        let r = s_hot(&x, &opts).unwrap();
        assert!(r.stats.final_error.is_finite());
    }
}
