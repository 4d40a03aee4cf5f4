//! Vectorizable micro-kernel primitives for the row-update hot loops.
//!
//! These are the BLAS-1/2 fragments the δ accumulation of P-Tucker's
//! Theorem 1 decomposes into once the core walk is run-blocked:
//!
//! * [`dot`] — `Σ aᵢ·bᵢ`, the per-run δ contribution when the update mode
//!   is not the tail coordinate,
//! * [`axpy`] — `y += α·x`, the per-run δ scatter when it is (and the rows
//!   of [`syr_in_place`]); [`axpy_tile`] is the same at a compile-time
//!   width, for a caller that keeps `y` in locals,
//! * [`syr_in_place`] — the triangular rank-1 update `B += δδᵀ`,
//! * [`hadamard_in_place`] — `y *= x`, CP-ALS's whole-row δ product,
//! * [`div_add_nonzero`] — `y += num/den` with zero divisors skipped, the
//!   P-Tucker-Cache cached-δ divide.
//!
//! Each primitive has one implementation: safe Rust over 4-element
//! `chunks_exact` blocks or plain element-wise loops, which LLVM
//! autovectorizes for whatever target the build selects. There are no
//! hand-written intrinsics: explicit AVX2 and AVX-512 versions were
//! measured end to end and lost on every workload (README, "Why there is
//! no SIMD feature").
//!
//! Determinism notes: every primitive is deterministic for fixed inputs.
//! The element-wise ones ([`axpy`], [`axpy_tile`], [`syr_in_place`],
//! [`hadamard_in_place`]) round each element as a plain loop does —
//! multiply, round, add, round; Rust never contracts the two into one
//! fused rounding — so they are insensitive to chunk width. [`dot`]
//! accumulates in four lanes over 4-element blocks, reduces them as
//! `(l₀+l₂)+(l₁+l₃)` and then adds the left-to-right sum of the
//! `len mod 4` tail: two `dot`s of the same inputs agree bit for bit, and a
//! naive left-to-right sum agrees only to floating-point noise.
//!
//! ## Mixed precision (f32 storage, f64 accumulation)
//!
//! The `f32` storage mode keeps *streamed* data (plan values, the cached
//! Pres table) in 4-byte slots while every arithmetic step still runs in
//! f64: [`dot_f32_f64`], [`div_add_nonzero_f32`] and [`sum_widened`] widen
//! each f32 element to f64 at load time (an exact conversion) and then
//! perform the identical f64 operation in the same order as their all-f64
//! counterparts.

/// `Σ aᵢ·bᵢ` over two equal-length slices: four independent accumulator
/// lanes over 4-element blocks, reduced `(l₀+l₂)+(l₁+l₃)`, plus the tail.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter length governs.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f64; 4];
    let n = a.len().min(b.len());
    let blocks = n / 4;
    for (ca, cb) in a[..blocks * 4].chunks_exact(4).zip(b.chunks_exact(4)) {
        for l in 0..4 {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[blocks * 4..n].iter().zip(&b[blocks * 4..n]) {
        tail += x * y;
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]) + tail
}

/// `y ← y + α·x` element-wise over the common prefix length.
///
/// # Panics
/// Debug-asserts `x.len() <= y.len()`; extra `y` elements are untouched.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert!(x.len() <= y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// [`axpy`] at a compile-time width: `y[k] += α·x[k]`, multiply then add,
/// element by element — bit for bit what `axpy` computes, so a caller may
/// keep `y` in locals across many calls (the δ tile of `ptucker`'s lane
/// kernel) and get the bits of as many `axpy`s through memory.
#[inline(always)]
pub fn axpy_tile<const W: usize>(alpha: f64, x: &[f64; W], y: &mut [f64; W]) {
    for k in 0..W {
        y[k] += alpha * x[k];
    }
}

/// Triangular rank-1 update `B ← B + δδᵀ` on the upper triangle of a
/// row-major `j×j` buffer (lower triangle untouched) — the accumulation of
/// the normal-equation matrix in Theorem 1. Rows with `δ(j₁) = 0`
/// contribute nothing and are skipped.
///
/// # Panics
/// Debug-asserts `delta.len() == j` and `b_upper.len() >= j*j`.
#[inline]
pub fn syr_in_place(b_upper: &mut [f64], j: usize, delta: &[f64]) {
    debug_assert_eq!(delta.len(), j);
    debug_assert!(b_upper.len() >= j * j);
    for j1 in 0..j {
        let d1 = delta[j1];
        if d1 == 0.0 {
            continue;
        }
        axpy(d1, &delta[j1..], &mut b_upper[j1 * j + j1..j1 * j + j]);
    }
}

/// `y ← y ⊙ x` element-wise over the common prefix length.
///
/// # Panics
/// Debug-asserts `x.len() <= y.len()`; extra `y` elements are untouched.
#[inline]
pub fn hadamard_in_place(y: &mut [f64], x: &[f64]) {
    debug_assert!(x.len() <= y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi *= xi;
    }
}

/// `y[i] += num[i] / den[i]` wherever `den[i] != 0`, skipping zero
/// divisors; returns whether any divisor was zero — the P-Tucker-Cache
/// cached-δ inner loop (Theorem 5's one-division-per-pair), whose
/// zero-divisor positions the *caller* patches with the direct-product
/// fallback (the paper's explicit caveat).
///
/// Adds exactly one rounded quotient per nonzero-divisor element, in
/// element order, and leaves zero-divisor slots bitwise untouched (sign of
/// `-0.0` included).
///
/// # Panics
/// Debug-asserts `num.len() == den.len()` and `num.len() <= y.len()`.
#[inline]
pub fn div_add_nonzero(y: &mut [f64], num: &[f64], den: &[f64]) -> bool {
    debug_assert_eq!(num.len(), den.len());
    debug_assert!(num.len() <= y.len());
    let mut saw_zero = false;
    for ((yi, &n), &d) in y.iter_mut().zip(num).zip(den) {
        if d != 0.0 {
            *yi += n / d;
        } else {
            saw_zero = true;
        }
    }
    saw_zero
}

/// `Σ (aᵢ as f64)·bᵢ` over an f32-storage slice and an f64 slice — the
/// mixed-precision [`dot`]: each f32 element is widened to f64 (exactly)
/// before the multiply, and the same four lanes accumulate in f64.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter length governs.
#[inline]
pub fn dot_f32_f64(a: &[f32], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f64; 4];
    let n = a.len().min(b.len());
    let blocks = n / 4;
    for (ca, cb) in a[..blocks * 4].chunks_exact(4).zip(b.chunks_exact(4)) {
        for l in 0..4 {
            lanes[l] += ca[l] as f64 * cb[l];
        }
    }
    let mut tail = 0.0;
    for (&x, &y) in a[blocks * 4..n].iter().zip(&b[blocks * 4..n]) {
        tail += x as f64 * y;
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]) + tail
}

/// [`div_add_nonzero`] with f32-storage numerators: `y[i] += num[i]/den[i]`
/// wherever `den[i] != 0`, the numerator widened to f64 before the divide.
/// Returns whether any divisor was zero; zero-divisor slots stay bitwise
/// untouched.
///
/// # Panics
/// Debug-asserts `num.len() == den.len()` and `num.len() <= y.len()`.
#[inline]
pub fn div_add_nonzero_f32(y: &mut [f64], num: &[f32], den: &[f64]) -> bool {
    debug_assert_eq!(num.len(), den.len());
    debug_assert!(num.len() <= y.len());
    let mut saw_zero = false;
    for ((yi, &n), &d) in y.iter_mut().zip(num).zip(den) {
        if d != 0.0 {
            *yi += n as f64 / d;
        } else {
            saw_zero = true;
        }
    }
    saw_zero
}

/// `Σ (xᵢ as f64)` — the widening sum over an f32-storage slice, used by
/// the cached-δ non-tail accumulation. Four independent f64 lanes over
/// 4-element blocks (autovectorizable), reduced `(l₀+l₂)+(l₁+l₃)`.
#[inline]
pub fn sum_widened(x: &[f32]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let blocks = x.len() / 4;
    for c in x[..blocks * 4].chunks_exact(4) {
        for l in 0..4 {
            lanes[l] += c[l] as f64;
        }
    }
    let mut tail = 0.0;
    for &v in &x[blocks * 4..] {
        tail += v as f64;
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]) + tail
}

/// Selects the top `k` of `scores` into `out` as `(index, score)` pairs,
/// sorted by **descending score with ties broken by ascending index** —
/// a total, deterministic order (scores compare by [`f64::total_cmp`],
/// so even NaNs rank reproducibly). `k` larger than `scores.len()`
/// returns everything; `out` is cleared and reused, so a caller that
/// keeps one buffer per worker pays no allocation after warm-up — this
/// is the ranking tail of the top-K query hot path.
///
/// Two strategies behind one entry point: a sorted insertion buffer
/// (binary-search position, `O(n·log k)` comparisons plus `O(k)` moves
/// on improvement) when `k` is small against `n`, and a full
/// `sort_unstable` (in-place, allocation-free) when `k` is a sizable
/// fraction of `n` and the buffer would churn.
///
/// # Panics
/// Debug-asserts `scores.len() <= u32::MAX` (indices travel as `u32`).
pub fn top_k_select(scores: &[f64], k: usize, out: &mut Vec<(u32, f64)>) {
    use std::cmp::Ordering;
    debug_assert!(scores.len() <= u32::MAX as usize);
    out.clear();
    let k = k.min(scores.len());
    if k == 0 {
        return;
    }
    if k * 4 >= scores.len() {
        out.extend(scores.iter().enumerate().map(|(i, &s)| (i as u32, s)));
        out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        return;
    }
    for (i, &s) in scores.iter().enumerate() {
        // A full buffer whose worst entry outranks the candidate ends it
        // here; an *equal* worst also wins (it has the lower index).
        if out.len() == k && out[k - 1].1.total_cmp(&s) != Ordering::Less {
            continue;
        }
        // First position strictly below the candidate: equal scores stay
        // ahead of it, preserving the ascending-index tie order.
        let pos = out.partition_point(|e| e.1.total_cmp(&s) != Ordering::Less);
        if out.len() == k {
            out.pop();
        }
        out.insert(pos, (i as u32, s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive_at_awkward_lengths() {
        for n in [0usize, 1, 3, 4, 5, 8, 17, 64, 101] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got = dot(&a, &b);
            assert!((got - naive).abs() < 1e-12 * (1.0 + naive.abs()), "n={n}");
        }
    }

    #[test]
    fn axpy_matches_naive_and_leaves_suffix() {
        let x: Vec<f64> = (0..13).map(|i| i as f64 - 6.0).collect();
        let mut y: Vec<f64> = (0..15).map(|i| 0.5 * i as f64).collect();
        let mut want = y.clone();
        for i in 0..13 {
            want[i] += 2.5 * x[i];
        }
        axpy(2.5, &x, &mut y);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
        assert_eq!(y[13], want[13]);
        assert_eq!(y[14], want[14]);
    }

    #[test]
    fn axpy_tile_is_bitwise_the_unfused_axpy() {
        let x = [0.1, -2.5, 3.0e-310, f64::INFINITY, -0.0, 7.25];
        let mut via_axpy = [1.0, -0.0, 5e-324, 2.0, 0.0, -3.5];
        let mut tile = via_axpy;
        for alpha in [0.3, -1e-300, 0.0, 2.0] {
            axpy(alpha, &x, &mut via_axpy);
            axpy_tile(alpha, &x, &mut tile);
        }
        for (a, t) in via_axpy.iter().zip(&tile) {
            assert!(a.to_bits() == t.to_bits() || (a.is_nan() && t.is_nan()));
        }
    }

    #[test]
    fn dot_reduces_lanes_in_the_documented_order() {
        // Magnitudes spread over six decades so that regrouping the lane
        // sums changes the rounded result.
        let a: Vec<f64> = (0..13)
            .map(|i| (i as f64 * 0.73).sin() * 10f64.powi(i % 7 - 3))
            .collect();
        let b: Vec<f64> = (0..13).map(|i| 1.0 / (3.0 + i as f64)).collect();
        let mut order_matters = false;
        for n in 0..=13 {
            let (a, b) = (&a[..n], &b[..n]);
            let body = n / 4 * 4;
            let mut l = [0.0f64; 4];
            for i in 0..body {
                l[i % 4] += a[i] * b[i];
            }
            let mut tail = 0.0;
            for i in body..n {
                tail += a[i] * b[i];
            }
            let want = (l[0] + l[2]) + (l[1] + l[3]) + tail;
            assert_eq!(dot(a, b).to_bits(), want.to_bits(), "n={n}");
            order_matters |= ((l[0] + l[1]) + (l[2] + l[3]) + tail).to_bits() != want.to_bits();
        }
        assert!(order_matters, "inputs must tell the lane orders apart");
    }

    #[test]
    fn syr_accumulates_upper_triangle_only() {
        let delta = [1.0, -2.0, 0.0, 0.5];
        let j = 4;
        let mut b = vec![0.0; j * j];
        syr_in_place(&mut b, j, &delta);
        syr_in_place(&mut b, j, &delta);
        for j1 in 0..j {
            for j2 in 0..j {
                let want = if j2 >= j1 {
                    2.0 * delta[j1] * delta[j2]
                } else {
                    0.0 // lower triangle untouched
                };
                assert!(
                    (b[j1 * j + j2] - want).abs() < 1e-12,
                    "({j1},{j2}): {} vs {want}",
                    b[j1 * j + j2]
                );
            }
        }
    }

    /// Reference ranking: full sort by (score desc, index asc).
    fn brute_top_k(scores: &[f64], k: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn top_k_matches_full_sort_on_both_strategies() {
        // n = 64 with k = 3 exercises the insertion buffer, k = 40 the
        // full-sort path; duplicated scores exercise the index tie-break.
        let scores: Vec<f64> = (0..64).map(|i| ((i * 7) % 16) as f64 * 0.25).collect();
        let mut out = Vec::new();
        for k in [0usize, 1, 3, 15, 16, 40, 64, 200] {
            top_k_select(&scores, k, &mut out);
            assert_eq!(out, brute_top_k(&scores, k), "k={k}");
            assert_eq!(out.len(), k.min(scores.len()), "k={k}");
        }
    }

    #[test]
    fn top_k_ties_break_by_ascending_index() {
        let scores = [2.0, 5.0, 5.0, 1.0, 5.0];
        let mut out = Vec::new();
        top_k_select(&scores, 2, &mut out);
        assert_eq!(out, vec![(1, 5.0), (2, 5.0)]);
        top_k_select(&scores, 4, &mut out);
        assert_eq!(out, vec![(1, 5.0), (2, 5.0), (4, 5.0), (0, 2.0)]);
    }

    #[test]
    fn top_k_reuses_the_buffer_without_reallocating() {
        let scores: Vec<f64> = (0..256).map(|i| (i as f64 * 0.913).sin()).collect();
        let mut out = Vec::new();
        top_k_select(&scores, 8, &mut out);
        let cap = out.capacity();
        for _ in 0..10 {
            top_k_select(&scores, 8, &mut out);
        }
        assert_eq!(out.capacity(), cap, "warm buffer must not grow");
        assert_eq!(out, brute_top_k(&scores, 8));
    }

    #[test]
    fn top_k_handles_degenerate_inputs() {
        let mut out = vec![(9, 9.0)];
        top_k_select(&[], 5, &mut out);
        assert!(out.is_empty());
        top_k_select(&[3.0], 0, &mut out);
        assert!(out.is_empty());
        // NaNs rank deterministically (total_cmp: NaN > +inf on the
        // positive side), never panicking the comparator.
        let with_nan = [1.0, f64::NAN, 2.0, f64::NAN];
        top_k_select(&with_nan, 4, &mut out);
        assert_eq!(out.len(), 4);
        // NaN != NaN under `==`, so compare (index, bit pattern) pairs.
        let got: Vec<(u32, u64)> = out.iter().map(|&(i, s)| (i, s.to_bits())).collect();
        let want: Vec<(u32, u64)> = brute_top_k(&with_nan, 4)
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let mut y = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        hadamard_in_place(&mut y, &[2.0, 0.5, -1.0, 0.0]);
        assert_eq!(y, vec![2.0, 1.0, -3.0, 0.0, 5.0]);
    }

    #[test]
    fn div_add_skips_zero_divisors_and_reports_them() {
        // Lengths straddling the 4-lane blocks, zeros in both the vector
        // body and the tail.
        for n in [1usize, 3, 4, 5, 8, 11, 16, 19] {
            let num: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.75).collect();
            let den: Vec<f64> = (0..n)
                .map(|i| if i % 3 == 1 { 0.0 } else { i as f64 - 4.5 })
                .collect();
            let mut y: Vec<f64> = (0..n).map(|i| 0.25 * i as f64).collect();
            let mut want = y.clone();
            let mut want_zero = false;
            for i in 0..n {
                if den[i] != 0.0 {
                    want[i] += num[i] / den[i];
                } else {
                    want_zero = true;
                }
            }
            let saw_zero = div_add_nonzero(&mut y, &num, &den);
            assert_eq!(saw_zero, want_zero, "n={n}");
            for (g, w) in y.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn div_add_all_nonzero_reports_false() {
        let mut y = vec![1.0; 6];
        let saw = div_add_nonzero(&mut y, &[2.0; 6], &[4.0; 6]);
        assert!(!saw);
        assert!(y.iter().all(|&v| v == 1.5));
    }

    #[test]
    fn div_add_leaves_zero_divisor_slots_bitwise_untouched() {
        // A zero divisor must leave y exactly as it was — even a -0.0,
        // whose sign bit an added +0.0 would flip.
        let mut y = vec![-0.0f64; 7];
        let num = vec![1.0; 7];
        let den = vec![0.0; 7];
        assert!(div_add_nonzero(&mut y, &num, &den));
        for v in &y {
            assert_eq!(v.to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn scalar_lanes_are_deterministic() {
        // Two calls with identical inputs are bitwise identical (the lane
        // decomposition is fixed, not data-dependent).
        let a: Vec<f64> = (0..37).map(|i| (i as f64).cos()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 1.7).sin()).collect();
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn dot_f32_f64_matches_widened_naive_at_awkward_lengths() {
        // Lengths straddling the 4-lane blocks.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 17, 64, 101] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let naive: f64 = a.iter().zip(&b).map(|(&x, y)| x as f64 * y).sum();
            let got = dot_f32_f64(&a, &b);
            assert!((got - naive).abs() < 1e-12 * (1.0 + naive.abs()), "n={n}");
        }
    }

    #[test]
    fn div_add_f32_matches_scalar_bitwise_and_reports_zeros() {
        // The f32-numerator divide must agree with the widened reference
        // bitwise (widening is exact, one rounded quotient per element).
        for n in [1usize, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 19, 33] {
            let num: Vec<f32> = (0..n).map(|i| (i as f32 + 1.0) * 0.75).collect();
            let den: Vec<f64> = (0..n)
                .map(|i| if i % 3 == 1 { 0.0 } else { i as f64 - 4.5 })
                .collect();
            let mut y: Vec<f64> = (0..n).map(|i| 0.25 * i as f64).collect();
            let mut want = y.clone();
            let mut want_zero = false;
            for i in 0..n {
                if den[i] != 0.0 {
                    want[i] += num[i] as f64 / den[i];
                } else {
                    want_zero = true;
                }
            }
            let saw_zero = div_add_nonzero_f32(&mut y, &num, &den);
            assert_eq!(saw_zero, want_zero, "n={n}");
            for (g, w) in y.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn div_add_f32_leaves_zero_divisor_slots_bitwise_untouched() {
        let mut y = vec![-0.0f64; 11];
        let num = vec![1.0f32; 11];
        let den = vec![0.0f64; 11];
        assert!(div_add_nonzero_f32(&mut y, &num, &den));
        for v in &y {
            assert_eq!(v.to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn sum_widened_matches_naive() {
        for n in [0usize, 1, 3, 4, 5, 8, 17, 64, 101] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos()).collect();
            let naive: f64 = x.iter().map(|&v| v as f64).sum();
            let got = sum_widened(&x);
            assert!((got - naive).abs() < 1e-12 * (1.0 + naive.abs()), "n={n}");
        }
    }
}
