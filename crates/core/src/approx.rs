//! P-Tucker-Approx: core-entry truncation by partial reconstruction error
//! (Section III-C, Eq. 13, Algorithm 4).
//!
//! The insight: some core entries are "noisy" — removing them *reduces* the
//! reconstruction error — and small magnitude is a poor noisiness proxy.
//! The paper instead ranks entries by the partial reconstruction error
//! `R(β)`, the exact change in the squared error (Eq. 5) attributable to
//! entry `β`:
//!
//! `R(β) = Σ_{α∈Ω} c_{αβ} · (c_{αβ} − 2X_α + 2(full_α − c_{αβ}))`
//!
//! where `c_{αβ} = G_β Πₙ a⁽ⁿ⁾(iₙ, βₙ)` is β's contribution at α and
//! `full_α` is the complete reconstruction. Entries with the highest `R(β)`
//! hurt the most and are truncated (top `p·|G|` per iteration).

use crate::delta::{core_runs, entry_contributions_blocked};
use crate::{FitInput, Result};
use ptucker_linalg::Matrix;
use ptucker_tensor::CoreTensor;

/// Computes `R(β)` (Eq. 13) for every retained core entry, in parallel over
/// the observed entries of `input` — resident or on disk, through the one
/// statically blocked [`FitInput::fold_entries`]. Returned in core-entry
/// order; a pure function of the arguments (the same bits run to run, from
/// either input flavor, in every replica of a sharded fit).
///
/// The per-entry contribution pass is the run-blocked micro-kernel
/// (`delta::entry_contributions_blocked`): one shared prefix
/// product per run of lexicographic core entries instead of `N−1`
/// multiplications per `(entry, core-entry)` pair, with the run structure
/// computed once per call.
///
/// Cost is `O(|Ω|·|G|)` multiplies — below one factor-update sweep's
/// constant, though the paper's note that P-Tucker-Approx "may require few
/// iterations to run faster than P-Tucker due to overheads from
/// calculating R(β)" still applies.
///
/// # Errors
/// [`crate::PtuckerError::Tensor`] if a disk-resident input cannot be read.
pub fn partial_errors(
    input: &FitInput<'_>,
    factors: &[Matrix],
    core: &CoreTensor,
    threads: usize,
) -> Result<Vec<f64>> {
    let g = core.nnz();
    let core_idx = core.flat_indices();
    let core_vals = core.values();
    let runs = core_runs(core_idx, core.order());
    let (racc, _contrib) = input.fold_entries(
        threads,
        || (vec![0.0f64; g], vec![0.0f64; g]),
        |(racc, contrib), idx, xv| {
            let full =
                entry_contributions_blocked(idx, core_idx, core_vals, &runs, factors, contrib);
            for (r, &c) in racc.iter_mut().zip(contrib.iter()) {
                // (X - rest - c)² - (X - rest)² with rest = full - c.
                *r += c * (c - 2.0 * xv + 2.0 * (full - c));
            }
        },
        |(mut a, buf), (b, _)| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            (a, buf)
        },
    )?;
    Ok(racc)
}

/// Removes the top `p·|G|` entries by `R(β)` from the core (Algorithm 4),
/// always keeping at least one entry. Returns the number removed.
pub fn truncate_noisy(core: &mut CoreTensor, r: &[f64], truncation_rate: f64) -> usize {
    let g = core.nnz();
    assert_eq!(r.len(), g, "R(β) vector must match the core entry count");
    let mut remove = ((g as f64) * truncation_rate).floor() as usize;
    remove = remove.min(g.saturating_sub(1));
    if remove == 0 {
        return 0;
    }
    let mut ids: Vec<usize> = (0..g).collect();
    // Descending R(β) in the IEEE total order (a NaN from a degenerate
    // model ranks by its sign bit instead of panicking); ties broken by id
    // for determinism.
    ids.sort_by(|&a, &b| r[b].total_cmp(&r[a]).then(a.cmp(&b)));
    let mut kill = vec![false; g];
    for &id in &ids[..remove] {
        kill[id] = true;
    }
    core.retain_by_id(|e| !kill[e]);
    remove
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptucker_tensor::SparseTensor;

    fn setup() -> (SparseTensor, Vec<Matrix>, CoreTensor) {
        let x = SparseTensor::new(
            vec![3, 2],
            vec![
                (vec![0, 0], 1.0),
                (vec![1, 1], 0.5),
                (vec![2, 0], -0.25),
                (vec![2, 1], 2.0),
            ],
        )
        .unwrap();
        let a0 = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.5, 0.5]]);
        let a1 = Matrix::from_rows(&[&[1.0, 0.3], &[0.4, 1.1]]);
        let core =
            CoreTensor::dense_from_fn(vec![2, 2], |i| 0.5 + (i[0] + i[1]) as f64 * 0.25).unwrap();
        (x, vec![a0, a1], core)
    }

    /// Brute-force R(β): error difference with and without entry β.
    fn r_bruteforce(x: &SparseTensor, factors: &[Matrix], core: &CoreTensor, b: usize) -> f64 {
        let full_sse = |keep: &dyn Fn(usize) -> bool| -> f64 {
            let mut sse = 0.0;
            for (idx, xv) in x.iter() {
                let mut rec = 0.0;
                for e in 0..core.nnz() {
                    if !keep(e) {
                        continue;
                    }
                    let beta = core.index(e);
                    let mut w = core.value(e);
                    for (k, f) in factors.iter().enumerate() {
                        w *= f[(idx[k], beta[k])];
                    }
                    rec += w;
                }
                sse += (xv - rec) * (xv - rec);
            }
            sse
        };
        full_sse(&|_| true) - full_sse(&|e| e != b)
    }

    #[test]
    fn partial_errors_match_bruteforce() {
        let (x, factors, core) = setup();
        let r = partial_errors(&FitInput::from(&x), &factors, &core, 2).unwrap();
        for b in 0..core.nnz() {
            let want = r_bruteforce(&x, &factors, &core, b);
            assert!(
                (r[b] - want).abs() < 1e-10,
                "R({b}) = {} vs brute {want}",
                r[b]
            );
        }
    }

    #[test]
    fn removing_highest_r_entry_reduces_error_most() {
        let (x, factors, core) = setup();
        let r = partial_errors(&FitInput::from(&x), &factors, &core, 1).unwrap();
        // Find the entry with max R; removing it should give the smallest
        // error among all single-entry removals.
        let best_by_r = (0..core.nnz())
            .max_by(|&a, &b| r[a].partial_cmp(&r[b]).unwrap())
            .unwrap();
        let sse_without = |skip: usize| -> f64 {
            let mut sse = 0.0;
            for (idx, xv) in x.iter() {
                let mut rec = 0.0;
                for e in 0..core.nnz() {
                    if e == skip {
                        continue;
                    }
                    let beta = core.index(e);
                    let mut w = core.value(e);
                    for (k, f) in factors.iter().enumerate() {
                        w *= f[(idx[k], beta[k])];
                    }
                    rec += w;
                }
                sse += (xv - rec) * (xv - rec);
            }
            sse
        };
        let best_sse = sse_without(best_by_r);
        for e in 0..core.nnz() {
            assert!(best_sse <= sse_without(e) + 1e-12);
        }
    }

    #[test]
    fn truncation_removes_expected_count() {
        let (x, factors, mut core) = setup();
        let r = partial_errors(&FitInput::from(&x), &factors, &core, 1).unwrap();
        let removed = truncate_noisy(&mut core, &r, 0.5);
        assert_eq!(removed, 2);
        assert_eq!(core.nnz(), 2);
    }

    #[test]
    fn truncation_keeps_at_least_one_entry() {
        let (x, factors, mut core) = setup();
        for _ in 0..10 {
            let r = partial_errors(&FitInput::from(&x), &factors, &core, 1).unwrap();
            truncate_noisy(&mut core, &r, 0.9);
        }
        assert!(core.nnz() >= 1);
    }

    #[test]
    fn truncation_small_core_noop() {
        let (x, factors, mut core) = setup();
        let r = partial_errors(&FitInput::from(&x), &factors, &core, 1).unwrap();
        // p*|G| < 1 → floor 0 → nothing removed.
        let removed = truncate_noisy(&mut core, &r, 0.1);
        assert_eq!(removed, 0);
        assert_eq!(core.nnz(), 4);
    }

    #[test]
    fn parallel_matches_serial() {
        let (x, factors, core) = setup();
        let serial = partial_errors(&FitInput::from(&x), &factors, &core, 1).unwrap();
        let par = partial_errors(&FitInput::from(&x), &factors, &core, 4).unwrap();
        for (a, b) in serial.iter().zip(&par) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
