//! Vectorizable micro-kernel primitives for the row-update hot loops.
//!
//! These are the BLAS-1/2 fragments the δ accumulation of P-Tucker's
//! Theorem 1 decomposes into once the core walk is run-blocked:
//!
//! * [`dot`] — `Σ aᵢ·bᵢ`, the per-run δ contribution when the update mode
//!   is not the tail coordinate,
//! * [`axpy`] — `y += α·x`, the per-run δ scatter when it is (and the rows
//!   of [`syr_in_place`]),
//! * [`syr_in_place`] — the triangular rank-1 update `B += δδᵀ`,
//! * [`hadamard_in_place`] — `y *= x`, CP-ALS's whole-row δ product,
//! * [`div_add_nonzero`] — `y += num/den` with zero divisors skipped, the
//!   P-Tucker-Cache cached-δ divide (`_mm256_div_pd` with a compare/blend
//!   for the zero-divisor lanes on the SIMD path).
//!
//! [`dot`] and [`axpy`] — the primitives the hot loops spend their time
//! in — each have two implementations behind one safe entry point:
//!
//! 1. a **chunked scalar** path written as 4-lane blocks over
//!    `chunks_exact`, which LLVM autovectorizes on any target, and
//! 2. an explicit **AVX2+FMA** path (`std::arch`) compiled only under the
//!    `simd` cargo feature on x86-64, selected by cached runtime CPU
//!    detection with the scalar path as fallback.
//!
//! [`syr_in_place`] is a row loop over [`axpy`], so it inherits both
//! paths; [`hadamard_in_place`] is a plain element-wise loop (trivially
//! autovectorized, no explicit SIMD variant).
//!
//! Determinism notes: every primitive is deterministic for fixed inputs on
//! a fixed code path, and the element-wise ones ([`axpy`],
//! [`syr_in_place`], [`hadamard_in_place`]) are additionally insensitive to
//! chunk width. Across *paths* the AVX2 code uses FMA (one rounding per
//! multiply-add instead of two), so SIMD and scalar builds agree only to
//! floating-point noise — callers must compare against references with a
//! tolerance, not bitwise. [`dot`] accumulates in four lanes reduced as
//! `(l₀+l₂)+(l₁+l₃)` on both paths so the orderings match.
//!
//! ## Mixed precision (f32 storage, f64 accumulation)
//!
//! The `f32` storage mode keeps *streamed* data (plan values, the cached
//! Pres table) in 4-byte slots while every arithmetic step still runs in
//! f64: [`dot_f32_f64`], [`axpy_into_f64`], [`div_add_nonzero_f32`],
//! [`sum_widened`] and [`widen_into`] widen each f32 element to f64 at
//! load time (an exact conversion) and then perform the identical f64
//! operation. Because the widening itself never rounds, the divide-style
//! primitives are bitwise identical across scalar/AVX2/AVX-512 paths just
//! like their all-f64 counterparts.
//!
//! ## AVX-512 tier (`simd-avx512` feature)
//!
//! A third implementation tier behind the `simd-avx512` cargo feature uses
//! 512-bit lanes (`avx512f`, runtime-detected). Dispatch order is
//! AVX-512 → AVX2 → scalar; each tier falls through cleanly when its CPU
//! feature is absent. The 8-lane horizontal sum reduces pairwise halves
//! before the 4-lane `(l₀+l₂)+(l₁+l₃)` reduction, so [`dot`] on the
//! AVX-512 path differs from the scalar/AVX2 paths by floating-point
//! noise only (compare with a tolerance); [`div_add_nonzero`] and
//! [`div_add_nonzero_f32`] stay bitwise identical across all three tiers
//! (one rounded quotient per element, no reassociation).

/// `Σ aᵢ·bᵢ` over two equal-length slices.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter length governs.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
    if let Some(v) = avx512::try_dot(a, b) {
        return v;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(v) = avx2::try_dot(a, b) {
        return v;
    }
    dot_scalar(a, b)
}

/// `y ← y + α·x` element-wise over the common prefix length.
///
/// # Panics
/// Debug-asserts `x.len() <= y.len()`; extra `y` elements are untouched.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert!(x.len() <= y.len());
    #[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
    if avx512::try_axpy(alpha, x, y) {
        return;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2::try_axpy(alpha, x, y) {
        return;
    }
    axpy_scalar(alpha, x, y)
}

/// Whether [`axpy`] fuses each multiply-add into one rounding on this
/// build and CPU — i.e. an explicit SIMD tier is compiled in and detected.
/// `false` means [`axpy`] is the scalar tier, which [`axpy_tile`]
/// reproduces bit for bit.
#[inline]
pub fn axpy_is_fused() -> bool {
    #[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
    if avx512::enabled() {
        return true;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2::enabled() {
        return true;
    }
    false
}

/// The scalar tier's [`axpy`] at a compile-time width: `y[k] += α·x[k]`,
/// multiply then add, element by element — what `axpy` computes whenever
/// [`axpy_is_fused`] is `false`, so a caller that checked may keep `y` in
/// locals across many calls (the δ tile of `ptucker`'s lane kernel) and
/// get the bits of as many `axpy`s through memory.
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
/// The AVX2 path (`simd` feature) does the whole quotient with
/// `_mm256_div_pd` and a compare/blend that restores the *original* `y`
/// in the lanes whose divisor is zero; the scalar path branches per
/// element. Both add exactly one rounded quotient per nonzero-divisor
/// element — and leave zero-divisor slots bitwise untouched (sign of
/// `-0.0` included) — in the same element order, so the two paths are
/// bitwise identical (division has no FMA contraction to diverge on).
///
/// # Panics
/// Debug-asserts `num.len() == den.len()` and `num.len() <= y.len()`.
#[inline]
pub fn div_add_nonzero(y: &mut [f64], num: &[f64], den: &[f64]) -> bool {
    debug_assert_eq!(num.len(), den.len());
    debug_assert!(num.len() <= y.len());
    #[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
    if let Some(saw_zero) = avx512::try_div_add_nonzero(y, num, den) {
        return saw_zero;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(saw_zero) = avx2::try_div_add_nonzero(y, num, den) {
        return saw_zero;
    }
    div_add_nonzero_scalar(y, num, den)
}

/// `Σ (aᵢ as f64)·bᵢ` over an f32-storage slice and an f64 slice — the
/// mixed-precision [`dot`]: each f32 element is widened to f64 (exactly)
/// before the multiply, and all accumulation runs in f64.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter length governs.
#[inline]
pub fn dot_f32_f64(a: &[f32], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
    if let Some(v) = avx512::try_dot_f32(a, b) {
        return v;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(v) = avx2::try_dot_f32(a, b) {
        return v;
    }
    dot_f32_f64_scalar(a, b)
}

/// `y ← y + α·(x as f64)` element-wise over the common prefix length —
/// the mixed-precision [`axpy`] with f32-storage `x` widened at load and
/// the multiply-add performed in f64.
///
/// # Panics
/// Debug-asserts `x.len() <= y.len()`; extra `y` elements are untouched.
#[inline]
pub fn axpy_into_f64(alpha: f64, x: &[f32], y: &mut [f64]) {
    debug_assert!(x.len() <= y.len());
    #[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
    if avx512::try_axpy_f32(alpha, x, y) {
        return;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2::try_axpy_f32(alpha, x, y) {
        return;
    }
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi as f64;
    }
}

/// [`div_add_nonzero`] with f32-storage numerators: `y[i] += num[i]/den[i]`
/// wherever `den[i] != 0`, the numerator widened to f64 before the divide.
/// Returns whether any divisor was zero. Like the all-f64 variant this is
/// bitwise identical across scalar/AVX2/AVX-512 paths (widening is exact,
/// division adds one rounding per element, zero-divisor slots stay
/// bitwise untouched).
///
/// # Panics
/// Debug-asserts `num.len() == den.len()` and `num.len() <= y.len()`.
#[inline]
pub fn div_add_nonzero_f32(y: &mut [f64], num: &[f32], den: &[f64]) -> bool {
    debug_assert_eq!(num.len(), den.len());
    debug_assert!(num.len() <= y.len());
    #[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
    if let Some(saw_zero) = avx512::try_div_add_nonzero_f32(y, num, den) {
        return saw_zero;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(saw_zero) = avx2::try_div_add_nonzero_f32(y, num, den) {
        return saw_zero;
    }
    div_add_nonzero_f32_scalar(y, num, den)
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

/// Widening load helper: `dst[i] = src[i] as f64` over the common prefix
/// length (an exact conversion; extra `dst` elements are untouched).
/// Element-wise, so trivially autovectorized — no explicit SIMD variant.
///
/// # Panics
/// Debug-asserts `src.len() <= dst.len()`.
#[inline]
pub fn widen_into(dst: &mut [f64], src: &[f32]) {
    debug_assert!(src.len() <= dst.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s as f64;
    }
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

/// The scalar mixed-precision dot: same 4-lane structure as `dot_scalar`,
/// with the f32 operand widened per element.
#[inline]
fn dot_f32_f64_scalar(a: &[f32], b: &[f64]) -> f64 {
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

/// The scalar f32-numerator divide-add: per-element branch on the divisor.
#[inline]
fn div_add_nonzero_f32_scalar(y: &mut [f64], num: &[f32], den: &[f64]) -> bool {
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

/// The scalar divide-add: per-element branch on the divisor.
#[inline]
fn div_add_nonzero_scalar(y: &mut [f64], num: &[f64], den: &[f64]) -> bool {
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

/// The autovectorizable scalar dot: four independent accumulator lanes
/// over 4-element blocks, reduced in the same `(l₀+l₂)+(l₁+l₃)` order as
/// the SIMD path's horizontal sum.
#[inline]
fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
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

/// The autovectorizable scalar axpy. Element-wise, so the chunk width is
/// invisible in the results.
#[inline]
fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Explicit AVX2+FMA implementations, compiled only with `--features simd`
/// on x86-64 and entered only after runtime CPU detection.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_blendv_pd, _mm256_castpd256_pd128, _mm256_cmp_pd,
        _mm256_cvtps_pd, _mm256_div_pd, _mm256_extractf128_pd, _mm256_fmadd_pd, _mm256_loadu_pd,
        _mm256_movemask_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm_add_pd,
        _mm_add_sd, _mm_cvtsd_f64, _mm_loadu_ps, _mm_unpackhi_pd, _CMP_EQ_OQ,
    };

    /// Whether this CPU supports the AVX2+FMA path. `std` caches the
    /// detection result, so the per-call cost is one predictable load.
    #[inline]
    pub(super) fn enabled() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// Safe dispatch: `Some(Σ aᵢ·bᵢ)` on AVX2+FMA CPUs, `None` otherwise.
    #[inline]
    pub(super) fn try_dot(a: &[f64], b: &[f64]) -> Option<f64> {
        // SAFETY: `enabled` verified AVX2+FMA support on this CPU.
        enabled().then(|| unsafe { dot(a, b) })
    }

    /// Safe dispatch: performs `y += α·x` and returns `true` on AVX2+FMA
    /// CPUs, leaves `y` untouched and returns `false` otherwise.
    #[inline]
    pub(super) fn try_axpy(alpha: f64, x: &[f64], y: &mut [f64]) -> bool {
        if !enabled() {
            return false;
        }
        // SAFETY: `enabled` verified AVX2+FMA support on this CPU.
        unsafe { axpy(alpha, x, y) };
        true
    }

    /// Reduces 4 lanes as `(l₀+l₂)+(l₁+l₃)` — mirrored by `dot_scalar`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v); // l₀, l₁
        let hi = _mm256_extractf128_pd::<1>(v); // l₂, l₃
        let s = _mm_add_pd(lo, hi); // l₀+l₂, l₁+l₃
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// # Safety
    /// Requires AVX2+FMA (callers check [`enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let blocks = n / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..blocks {
            let va = _mm256_loadu_pd(a.as_ptr().add(i * 4));
            let vb = _mm256_loadu_pd(b.as_ptr().add(i * 4));
            acc = _mm256_fmadd_pd(va, vb, acc);
        }
        let mut tail = 0.0;
        for i in blocks * 4..n {
            tail = a[i].mul_add(b[i], tail);
        }
        hsum(acc) + tail
    }

    /// Safe dispatch for the cached-δ divide: performs the masked
    /// `y += num/den` and returns `Some(saw_zero)` on AVX2+FMA CPUs,
    /// leaves `y` untouched and returns `None` otherwise.
    #[inline]
    pub(super) fn try_div_add_nonzero(y: &mut [f64], num: &[f64], den: &[f64]) -> Option<bool> {
        // SAFETY: `enabled` verified AVX2+FMA support on this CPU.
        enabled().then(|| unsafe { div_add_nonzero(y, num, den) })
    }

    /// # Safety
    /// Requires AVX2+FMA (callers check [`enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn div_add_nonzero(y: &mut [f64], num: &[f64], den: &[f64]) -> bool {
        let n = num.len().min(den.len()).min(y.len());
        let blocks = n / 4;
        let zero = _mm256_setzero_pd();
        let mut zero_lanes = 0i32;
        for i in 0..blocks {
            let vn = _mm256_loadu_pd(num.as_ptr().add(i * 4));
            let vd = _mm256_loadu_pd(den.as_ptr().add(i * 4));
            let vy = _mm256_loadu_pd(y.as_ptr().add(i * 4));
            // Quotient + add everywhere (0-divisor lanes produce ±inf/NaN),
            // then blend the *original* y back into those lanes — leaving
            // them untouched exactly like the scalar branch does (an added
            // +0.0 would flip a -0.0 accumulator's sign bit).
            let mask = _mm256_cmp_pd::<_CMP_EQ_OQ>(vd, zero);
            let sum = _mm256_add_pd(vy, _mm256_div_pd(vn, vd));
            zero_lanes |= _mm256_movemask_pd(mask);
            _mm256_storeu_pd(y.as_mut_ptr().add(i * 4), _mm256_blendv_pd(sum, vy, mask));
        }
        let mut saw_zero = zero_lanes != 0;
        for i in blocks * 4..n {
            if den[i] != 0.0 {
                y[i] += num[i] / den[i];
            } else {
                saw_zero = true;
            }
        }
        saw_zero
    }

    /// # Safety
    /// Requires AVX2+FMA (callers check [`enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let blocks = n / 4;
        let va = _mm256_set1_pd(alpha);
        for i in 0..blocks {
            let vx = _mm256_loadu_pd(x.as_ptr().add(i * 4));
            let vy = _mm256_loadu_pd(y.as_ptr().add(i * 4));
            _mm256_storeu_pd(y.as_mut_ptr().add(i * 4), _mm256_fmadd_pd(va, vx, vy));
        }
        for i in blocks * 4..n {
            y[i] = alpha.mul_add(x[i], y[i]);
        }
    }

    /// Widens 4 packed f32s to a 4-lane f64 vector (exact conversion).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_widen4(p: *const f32) -> __m256d {
        _mm256_cvtps_pd(_mm_loadu_ps(p))
    }

    /// Safe dispatch for the mixed dot: `Some(Σ (aᵢ as f64)·bᵢ)` on
    /// AVX2+FMA CPUs, `None` otherwise.
    #[inline]
    pub(super) fn try_dot_f32(a: &[f32], b: &[f64]) -> Option<f64> {
        // SAFETY: `enabled` verified AVX2+FMA support on this CPU.
        enabled().then(|| unsafe { dot_f32(a, b) })
    }

    /// # Safety
    /// Requires AVX2+FMA (callers check [`enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_f32(a: &[f32], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let blocks = n / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..blocks {
            let va = load_widen4(a.as_ptr().add(i * 4));
            let vb = _mm256_loadu_pd(b.as_ptr().add(i * 4));
            acc = _mm256_fmadd_pd(va, vb, acc);
        }
        let mut tail = 0.0;
        for i in blocks * 4..n {
            tail = (a[i] as f64).mul_add(b[i], tail);
        }
        hsum(acc) + tail
    }

    /// Safe dispatch for the mixed axpy: performs `y += α·(x as f64)` and
    /// returns `true` on AVX2+FMA CPUs, leaves `y` untouched otherwise.
    #[inline]
    pub(super) fn try_axpy_f32(alpha: f64, x: &[f32], y: &mut [f64]) -> bool {
        if !enabled() {
            return false;
        }
        // SAFETY: `enabled` verified AVX2+FMA support on this CPU.
        unsafe { axpy_f32(alpha, x, y) };
        true
    }

    /// # Safety
    /// Requires AVX2+FMA (callers check [`enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let blocks = n / 4;
        let va = _mm256_set1_pd(alpha);
        for i in 0..blocks {
            let vx = load_widen4(x.as_ptr().add(i * 4));
            let vy = _mm256_loadu_pd(y.as_ptr().add(i * 4));
            _mm256_storeu_pd(y.as_mut_ptr().add(i * 4), _mm256_fmadd_pd(va, vx, vy));
        }
        for i in blocks * 4..n {
            y[i] = alpha.mul_add(x[i] as f64, y[i]);
        }
    }

    /// Safe dispatch for the f32-numerator cached-δ divide.
    #[inline]
    pub(super) fn try_div_add_nonzero_f32(y: &mut [f64], num: &[f32], den: &[f64]) -> Option<bool> {
        // SAFETY: `enabled` verified AVX2+FMA support on this CPU.
        enabled().then(|| unsafe { div_add_nonzero_f32(y, num, den) })
    }

    /// # Safety
    /// Requires AVX2+FMA (callers check [`enabled`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn div_add_nonzero_f32(y: &mut [f64], num: &[f32], den: &[f64]) -> bool {
        let n = num.len().min(den.len()).min(y.len());
        let blocks = n / 4;
        let zero = _mm256_setzero_pd();
        let mut zero_lanes = 0i32;
        for i in 0..blocks {
            let vn = load_widen4(num.as_ptr().add(i * 4));
            let vd = _mm256_loadu_pd(den.as_ptr().add(i * 4));
            let vy = _mm256_loadu_pd(y.as_ptr().add(i * 4));
            let mask = _mm256_cmp_pd::<_CMP_EQ_OQ>(vd, zero);
            let sum = _mm256_add_pd(vy, _mm256_div_pd(vn, vd));
            zero_lanes |= _mm256_movemask_pd(mask);
            _mm256_storeu_pd(y.as_mut_ptr().add(i * 4), _mm256_blendv_pd(sum, vy, mask));
        }
        let mut saw_zero = zero_lanes != 0;
        for i in blocks * 4..n {
            if den[i] != 0.0 {
                y[i] += num[i] as f64 / den[i];
            } else {
                saw_zero = true;
            }
        }
        saw_zero
    }
}

/// Explicit AVX-512 implementations (8-lane f64), compiled only with
/// `--features simd-avx512` on x86-64 and entered only after runtime
/// `avx512f` detection; [`enabled`](avx512::enabled) false falls through
/// to the AVX2 tier (if built and detected) and then scalar.
#[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx512 {
    use std::arch::x86_64::{
        __m256d, __m512d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd,
        _mm256_loadu_ps, _mm512_add_pd, _mm512_cmp_pd_mask, _mm512_cvtps_pd, _mm512_div_pd,
        _mm512_extractf64x4_pd, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_mask_blend_pd,
        _mm512_set1_pd, _mm512_setzero_pd, _mm512_storeu_pd, _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64,
        _mm_unpackhi_pd, _CMP_EQ_OQ,
    };

    /// Whether this CPU supports the AVX-512 path. `std` caches the
    /// detection result, so the per-call cost is one predictable load.
    /// (`avx512f` alone suffices: fused multiply-add, masked blends and
    /// the f32→f64 convert are all foundation instructions.)
    #[inline]
    pub(super) fn enabled() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// Reduces 8 lanes by adding the high and low 256-bit halves, then the
    /// same `(l₀+l₂)+(l₁+l₃)` 4-lane reduction as the AVX2/scalar paths.
    /// The extra half-add reorders the sum relative to those paths, so dot
    /// results differ from them by floating-point noise.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn hsum8(v: __m512d) -> f64 {
        let half: __m256d = _mm256_add_pd(
            _mm512_extractf64x4_pd::<0>(v),
            _mm512_extractf64x4_pd::<1>(v),
        );
        let lo = _mm256_castpd256_pd128(half);
        let hi = _mm256_extractf128_pd::<1>(half);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// Widens 8 packed f32s to an 8-lane f64 vector (exact conversion).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_widen8(p: *const f32) -> __m512d {
        _mm512_cvtps_pd(_mm256_loadu_ps(p))
    }

    /// Safe dispatch: `Some(Σ aᵢ·bᵢ)` on AVX-512 CPUs, `None` otherwise.
    #[inline]
    pub(super) fn try_dot(a: &[f64], b: &[f64]) -> Option<f64> {
        // SAFETY: `enabled` verified avx512f support on this CPU.
        enabled().then(|| unsafe { dot(a, b) })
    }

    /// # Safety
    /// Requires avx512f (callers check [`enabled`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let blocks = n / 8;
        let mut acc = _mm512_setzero_pd();
        for i in 0..blocks {
            let va = _mm512_loadu_pd(a.as_ptr().add(i * 8));
            let vb = _mm512_loadu_pd(b.as_ptr().add(i * 8));
            acc = _mm512_fmadd_pd(va, vb, acc);
        }
        let mut tail = 0.0;
        for i in blocks * 8..n {
            tail = a[i].mul_add(b[i], tail);
        }
        hsum8(acc) + tail
    }

    /// Safe dispatch for the mixed dot on AVX-512 CPUs.
    #[inline]
    pub(super) fn try_dot_f32(a: &[f32], b: &[f64]) -> Option<f64> {
        // SAFETY: `enabled` verified avx512f support on this CPU.
        enabled().then(|| unsafe { dot_f32(a, b) })
    }

    /// # Safety
    /// Requires avx512f (callers check [`enabled`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn dot_f32(a: &[f32], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let blocks = n / 8;
        let mut acc = _mm512_setzero_pd();
        for i in 0..blocks {
            let va = load_widen8(a.as_ptr().add(i * 8));
            let vb = _mm512_loadu_pd(b.as_ptr().add(i * 8));
            acc = _mm512_fmadd_pd(va, vb, acc);
        }
        let mut tail = 0.0;
        for i in blocks * 8..n {
            tail = (a[i] as f64).mul_add(b[i], tail);
        }
        hsum8(acc) + tail
    }

    /// Safe dispatch: performs `y += α·x` and returns `true` on AVX-512
    /// CPUs, leaves `y` untouched and returns `false` otherwise.
    #[inline]
    pub(super) fn try_axpy(alpha: f64, x: &[f64], y: &mut [f64]) -> bool {
        if !enabled() {
            return false;
        }
        // SAFETY: `enabled` verified avx512f support on this CPU.
        unsafe { axpy(alpha, x, y) };
        true
    }

    /// # Safety
    /// Requires avx512f (callers check [`enabled`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let blocks = n / 8;
        let va = _mm512_set1_pd(alpha);
        for i in 0..blocks {
            let vx = _mm512_loadu_pd(x.as_ptr().add(i * 8));
            let vy = _mm512_loadu_pd(y.as_ptr().add(i * 8));
            _mm512_storeu_pd(y.as_mut_ptr().add(i * 8), _mm512_fmadd_pd(va, vx, vy));
        }
        for i in blocks * 8..n {
            y[i] = alpha.mul_add(x[i], y[i]);
        }
    }

    /// Safe dispatch for the mixed axpy on AVX-512 CPUs.
    #[inline]
    pub(super) fn try_axpy_f32(alpha: f64, x: &[f32], y: &mut [f64]) -> bool {
        if !enabled() {
            return false;
        }
        // SAFETY: `enabled` verified avx512f support on this CPU.
        unsafe { axpy_f32(alpha, x, y) };
        true
    }

    /// # Safety
    /// Requires avx512f (callers check [`enabled`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn axpy_f32(alpha: f64, x: &[f32], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let blocks = n / 8;
        let va = _mm512_set1_pd(alpha);
        for i in 0..blocks {
            let vx = load_widen8(x.as_ptr().add(i * 8));
            let vy = _mm512_loadu_pd(y.as_ptr().add(i * 8));
            _mm512_storeu_pd(y.as_mut_ptr().add(i * 8), _mm512_fmadd_pd(va, vx, vy));
        }
        for i in blocks * 8..n {
            y[i] = alpha.mul_add(x[i] as f64, y[i]);
        }
    }

    /// Safe dispatch for the cached-δ divide on AVX-512 CPUs.
    #[inline]
    pub(super) fn try_div_add_nonzero(y: &mut [f64], num: &[f64], den: &[f64]) -> Option<bool> {
        // SAFETY: `enabled` verified avx512f support on this CPU.
        enabled().then(|| unsafe { div_add_nonzero(y, num, den) })
    }

    /// # Safety
    /// Requires avx512f (callers check [`enabled`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn div_add_nonzero(y: &mut [f64], num: &[f64], den: &[f64]) -> bool {
        let n = num.len().min(den.len()).min(y.len());
        let blocks = n / 8;
        let zero = _mm512_setzero_pd();
        let mut zero_lanes = 0u8;
        for i in 0..blocks {
            let vn = _mm512_loadu_pd(num.as_ptr().add(i * 8));
            let vd = _mm512_loadu_pd(den.as_ptr().add(i * 8));
            let vy = _mm512_loadu_pd(y.as_ptr().add(i * 8));
            // Quotient + add everywhere, then a masked blend restores the
            // *original* y in the zero-divisor lanes — bitwise untouched,
            // exactly like the scalar branch (sign of -0.0 included).
            let mask = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(vd, zero);
            let sum = _mm512_add_pd(vy, _mm512_div_pd(vn, vd));
            zero_lanes |= mask;
            _mm512_storeu_pd(
                y.as_mut_ptr().add(i * 8),
                _mm512_mask_blend_pd(mask, sum, vy),
            );
        }
        let mut saw_zero = zero_lanes != 0;
        for i in blocks * 8..n {
            if den[i] != 0.0 {
                y[i] += num[i] / den[i];
            } else {
                saw_zero = true;
            }
        }
        saw_zero
    }

    /// Safe dispatch for the f32-numerator cached-δ divide on AVX-512.
    #[inline]
    pub(super) fn try_div_add_nonzero_f32(y: &mut [f64], num: &[f32], den: &[f64]) -> Option<bool> {
        // SAFETY: `enabled` verified avx512f support on this CPU.
        enabled().then(|| unsafe { div_add_nonzero_f32(y, num, den) })
    }

    /// # Safety
    /// Requires avx512f (callers check [`enabled`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn div_add_nonzero_f32(y: &mut [f64], num: &[f32], den: &[f64]) -> bool {
        let n = num.len().min(den.len()).min(y.len());
        let blocks = n / 8;
        let zero = _mm512_setzero_pd();
        let mut zero_lanes = 0u8;
        for i in 0..blocks {
            let vn = load_widen8(num.as_ptr().add(i * 8));
            let vd = _mm512_loadu_pd(den.as_ptr().add(i * 8));
            let vy = _mm512_loadu_pd(y.as_ptr().add(i * 8));
            let mask = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(vd, zero);
            let sum = _mm512_add_pd(vy, _mm512_div_pd(vn, vd));
            zero_lanes |= mask;
            _mm512_storeu_pd(
                y.as_mut_ptr().add(i * 8),
                _mm512_mask_blend_pd(mask, sum, vy),
            );
        }
        let mut saw_zero = zero_lanes != 0;
        for i in blocks * 8..n {
            if den[i] != 0.0 {
                y[i] += num[i] as f64 / den[i];
            } else {
                saw_zero = true;
            }
        }
        saw_zero
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
        if axpy_is_fused() {
            // An FMA tier rounds once per element: callers keep `axpy`.
            return;
        }
        for (a, t) in via_axpy.iter().zip(&tile) {
            assert!(a.to_bits() == t.to_bits() || (a.is_nan() && t.is_nan()));
        }
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
        // whose sign bit an added +0.0 would flip. Covers vector-body and
        // tail lanes on both code paths.
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
        // Lengths straddling both the 4-lane (AVX2/scalar) and 8-lane
        // (AVX-512) blocks.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 17, 64, 101] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let naive: f64 = a.iter().zip(&b).map(|(&x, y)| x as f64 * y).sum();
            let got = dot_f32_f64(&a, &b);
            assert!((got - naive).abs() < 1e-12 * (1.0 + naive.abs()), "n={n}");
        }
    }

    #[test]
    fn axpy_into_f64_matches_naive_and_leaves_suffix() {
        let x: Vec<f32> = (0..13).map(|i| i as f32 - 6.0).collect();
        let mut y: Vec<f64> = (0..15).map(|i| 0.5 * i as f64).collect();
        let mut want = y.clone();
        for i in 0..13 {
            want[i] += 2.5 * x[i] as f64;
        }
        axpy_into_f64(2.5, &x, &mut y);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
        assert_eq!(y[13], want[13]);
        assert_eq!(y[14], want[14]);
    }

    #[test]
    fn div_add_f32_matches_scalar_bitwise_and_reports_zeros() {
        // The f32-numerator divide must agree with the scalar reference
        // bitwise on every path (widening is exact, one rounded quotient
        // per element). Lengths straddle 4- and 8-lane blocks.
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
        // 11 elements: covers the 8-lane body, the 4-lane body and the
        // scalar tail on every tier.
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

    #[test]
    fn widen_into_converts_exactly_and_leaves_suffix() {
        let src: Vec<f32> = (0..9).map(|i| (i as f32).exp()).collect();
        let mut dst = vec![7.0f64; 11];
        widen_into(&mut dst, &src);
        for i in 0..9 {
            assert_eq!(dst[i].to_bits(), (src[i] as f64).to_bits());
        }
        assert_eq!(dst[9], 7.0);
        assert_eq!(dst[10], 7.0);
    }

    /// The AVX-512 tier either runs (then div-add must be bitwise equal
    /// to the scalar path and dot within tolerance) or reports a clean
    /// fallback (`try_*` return `None`/`false` and the public entry
    /// points still produce scalar-path results).
    #[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
    #[test]
    fn avx512_matches_scalar_or_falls_back_cleanly() {
        let n = 27; // 3×8-lane blocks + a 3-element tail
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
        let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let den: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 2 { 0.0 } else { i as f64 - 9.5 })
            .collect();
        if avx512::enabled() {
            let got = avx512::try_dot(&a, &b).expect("enabled ⇒ Some");
            let want = dot_scalar(&a, &b);
            assert!((got - want).abs() < 1e-12 * (1.0 + want.abs()));

            let got = avx512::try_dot_f32(&af, &b).expect("enabled ⇒ Some");
            let want = dot_f32_f64_scalar(&af, &b);
            assert!((got - want).abs() < 1e-12 * (1.0 + want.abs()));

            let mut y_simd: Vec<f64> = (0..n).map(|i| 0.125 * i as f64).collect();
            let mut y_ref = y_simd.clone();
            let saw_simd = avx512::try_div_add_nonzero(&mut y_simd, &a, &den).expect("Some");
            let saw_ref = div_add_nonzero_scalar(&mut y_ref, &a, &den);
            assert_eq!(saw_simd, saw_ref);
            for (g, w) in y_simd.iter().zip(&y_ref) {
                assert_eq!(g.to_bits(), w.to_bits());
            }

            let mut y_simd: Vec<f64> = (0..n).map(|i| 0.125 * i as f64).collect();
            let mut y_ref = y_simd.clone();
            let saw_simd = avx512::try_div_add_nonzero_f32(&mut y_simd, &af, &den).expect("Some");
            let saw_ref = div_add_nonzero_f32_scalar(&mut y_ref, &af, &den);
            assert_eq!(saw_simd, saw_ref);
            for (g, w) in y_simd.iter().zip(&y_ref) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        } else {
            // Clean fallback: every try_* declines and leaves y untouched,
            // and the public entry points still answer via lower tiers.
            assert!(avx512::try_dot(&a, &b).is_none());
            assert!(avx512::try_dot_f32(&af, &b).is_none());
            let mut y: Vec<f64> = (0..n).map(|i| 0.125 * i as f64).collect();
            let snapshot = y.clone();
            assert!(!avx512::try_axpy(2.0, &a, &mut y));
            assert!(!avx512::try_axpy_f32(2.0, &af, &mut y));
            assert!(avx512::try_div_add_nonzero(&mut y, &a, &den).is_none());
            assert!(avx512::try_div_add_nonzero_f32(&mut y, &af, &den).is_none());
            assert_eq!(y, snapshot);
            let want = dot_scalar(&a, &b);
            assert!((dot(&a, &b) - want).abs() < 1e-12 * (1.0 + want.abs()));
        }
    }

    /// Mixed axpy on the AVX-512 tier agrees with the scalar reference to
    /// FP noise (FMA contraction) and bitwise with itself across calls.
    #[cfg(all(feature = "simd-avx512", target_arch = "x86_64"))]
    #[test]
    fn avx512_axpy_tiers_agree_with_scalar_reference() {
        if !avx512::enabled() {
            return;
        }
        let n = 21;
        let x: Vec<f64> = (0..n).map(|i| (i as f64) - 10.0).collect();
        let xf: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let base: Vec<f64> = (0..n).map(|i| 0.3 * i as f64).collect();

        let mut y = base.clone();
        assert!(avx512::try_axpy(1.75, &x, &mut y));
        let mut want = base.clone();
        axpy_scalar(1.75, &x, &mut want);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12 * (1.0 + w.abs()));
        }

        let mut y = base.clone();
        assert!(avx512::try_axpy_f32(1.75, &xf, &mut y));
        let mut y2 = base.clone();
        assert!(avx512::try_axpy_f32(1.75, &xf, &mut y2));
        for (g, w) in y.iter().zip(&y2) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
