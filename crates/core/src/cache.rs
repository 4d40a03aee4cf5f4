//! P-Tucker-Cache: the `Pres` memoization table (Algorithm 3, lines 1–4 and
//! 16–19 of the paper).
//!
//! `Pres[α][β] = G_β Π_{k=1..N} a⁽ᵏ⁾(iₖ, βₖ)` caches the full N-way product
//! for every (observed entry, core entry) pair. During a mode-`n` row update
//! the δ kernel then needs only one division instead of `N−1`
//! multiplications per pair:
//! `δ⁽ⁿ⁾_α(βₙ) += Pres[α][β] / a⁽ⁿ⁾(iₙ, βₙ)`, falling back to the direct
//! product when `a⁽ⁿ⁾(iₙ, βₙ) = 0` (the paper's explicit caveat). After
//! `A⁽ⁿ⁾` changes, every cached product is rescaled by `a_new/a_old`
//! (recomputed outright where `a_old = 0`).
//!
//! # One fixed row order, always resident
//!
//! The [`PresTable`] keeps its rows in **COO entry order** for the whole
//! fit: row `e` belongs to entry `e`, whatever mode is being swept. A
//! mode's sweep reaches the row behind stream position `p` through the
//! stream's entry id — one `|G|`-element row gather per observed entry,
//! ascending within a slice — and the per-mode rescale is a single parallel
//! pass over the rows where they lie. Nothing is ever permuted, so an
//! iteration moves the `|Ω|·|G|` table exactly twice per mode (one read
//! for δ, one read-modify-write for the rescale), the traffic Theorem 5
//! counts.
//!
//! The table is never spilled. Cache trades memory for speed, and when
//! the table does not fit the budget the fit's outcome is the paper's
//! O.O.M. (Table III), under either budget policy: a table paged through
//! a scratch file moves twice its size through the disk every mode, which
//! a spilled Direct fit beats outright.
//!
//! The δ accumulation itself is run-blocked like the Direct kernel's (see
//! [`crate::delta`]): within a run of core entries sharing their first
//! `N−1` coordinates, a non-tail update mode has a constant divisor, so
//! the run collapses to one contiguous sum over the cached products and a
//! single division. And it is **entry-blocked** like the Direct kernel's:
//! [`cached_delta_for_block`] advances [`LANES`](crate::delta::LANES) `Pres`
//! rows of one factor row through one walk of the core's runs, each lane
//! bit for bit the one-entry loop.
//!
//! # Why lanes: the roofline
//!
//! Measured on the `resident_cache` benchmark workload (order 4, J = 4,
//! 180 K entries, a 370 MB f64 table; the 2-vCPU 2.1 GHz VM this
//! repository is grown on). One entry at a time, a mode's sweep read the
//! table in ~0.065 s — 5.7 GB/s — while the rescale of the *same* table
//! moves twice the bytes (read + write, 740 MB) in 0.033–0.043 s, 17–22 GB/s
//! on the same two threads; and the un-laned δ cost the same ~750 ns per
//! entry whether its rows were gathered through entry ids or streamed in
//! order. So the sweep was **not** bandwidth-bound: it was bound by the
//! dependency chain each run carries — a 4-add sum, a divide, then a δ slot
//! read, added to and written back through memory before the next run of
//! the same slot can start — exactly what lanes removed from Direct. With
//! [`LANES`](crate::delta::LANES) chains in flight the per-mode sweeps went
//! 0.069 / 0.067 / 0.078 / 0.080 s → 0.037 / 0.037 / 0.044 / 0.039 s; mode
//! `N−1` now runs at the divider's throughput (a packed double-precision
//! divide every ~4 cycles: 245 ns per 256-element row from cache, ~390 ns
//! from DRAM), the other modes at ~390 ns per row against 310 ns from cache.
//! The **rescale is now the largest Cache span** (`core.mode_post_s` ≈ 0.125 s
//! of a ~0.33 s iteration) and *is* bandwidth-bound at two threads.
//!
//! Two designs were measured and dropped: an entry-major pass fusing a
//! deferred rescale with δ into a per-entry δ buffer (bitwise, but 0.39 s
//! per iteration against 0.35 s — the machine is compute-, not
//! traffic-bound there), and compile-time run widths with register δ
//! accumulators on the non-tail modes (0.075 → 0.068 s per sweep at one
//! thread, nothing at two).
//!
//! The table is `|Ω|·|G|` elements of the fit's [`StoragePrecision`] —
//! the dominant memory cost (Theorem 6), halved outright by f32 storage —
//! and is metered against the fit's [`MemoryBudget`] at the per-precision
//! element size, which is exactly how the Fig. 8(b) memory gap (≈29.5× at
//! N = 10) and Table III's O.O.M. boundary are reproduced.

use crate::delta::{MAX_TILE, TILE_DOUBLES};
use crate::engine::ModeContext;
use crate::Result;
use ptucker_linalg::kernels::{div_add_nonzero, div_add_nonzero_f32, sum_widened};
use ptucker_linalg::Matrix;
use ptucker_memtrack::{MemoryBudget, Reservation};
use ptucker_sched::{parallel_rows_mut, parallel_rows_mut_with, Schedule};
use ptucker_tensor::{CoreTensor, ModeStream, SparseTensor, StoragePrecision};

/// The element type of a `Pres` table: the storage half of the fit's
/// [`StoragePrecision`] axis applied to the cache. Products are computed
/// in `f64`, stored at the element's width ([`PresElem::from_f64`] rounds
/// once for `f32`), and widened back to `f64` at every use — so the two
/// implementations share the identical run-blocked arithmetic and differ
/// only in stored bits and bytes moved.
pub(crate) trait PresElem: Copy + Send + Sync + Default + std::fmt::Debug + 'static {
    /// The precision this element realizes (the table's element size).
    const PRECISION: StoragePrecision;

    /// Rounds a computed `f64` product onto this element's storage grid.
    fn from_f64(v: f64) -> Self;

    /// Widens a stored element back to `f64` (exact).
    fn to_f64(self) -> f64;

    /// `δ[t] += pres[t] / den[t]` over the nonzero divisors of `den`,
    /// leaving zero-divisor slots untouched; returns whether any divisor
    /// was zero. One rounded `f64` quotient per element.
    fn div_add(delta: &mut [f64], pres: &[Self], den: &[f64]) -> bool;

    /// The `f64` sum of a run of cached products (the constant-divisor
    /// collapse of non-tail modes).
    fn sum(pres: &[Self]) -> f64;
}

impl PresElem for f64 {
    const PRECISION: StoragePrecision = StoragePrecision::F64;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn div_add(delta: &mut [f64], pres: &[Self], den: &[f64]) -> bool {
        div_add_nonzero(delta, pres, den)
    }

    #[inline]
    fn sum(pres: &[Self]) -> f64 {
        // Sequential: the classic f64 table's summation order, kept
        // bit-for-bit (regression anchor for the pre-precision engine).
        let mut acc = 0.0;
        for &c in pres {
            acc += c;
        }
        acc
    }
}

impl PresElem for f32 {
    const PRECISION: StoragePrecision = StoragePrecision::F32;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn div_add(delta: &mut [f64], pres: &[Self], den: &[f64]) -> bool {
        div_add_nonzero_f32(delta, pres, den)
    }

    #[inline]
    fn sum(pres: &[Self]) -> f64 {
        sum_widened(pres)
    }
}

/// One `Jₙ`-element ratio buffer per worker thread for the per-mode
/// rescale ([`rescale_entry_row`]), sized for the fit's largest rank and
/// allocated once per fit.
fn ratio_buffers(threads: usize, factors: &[Matrix]) -> Vec<Vec<f64>> {
    let j_max = factors.iter().map(Matrix::cols).max().unwrap_or(0);
    vec![vec![0.0; j_max]; threads.max(1)]
}

/// Appends `row`, widened to `f64` little-endian bits, to `out` — the
/// checkpoint representation of table elements (exact for both precisions).
fn export_elems<E: PresElem>(row: &[E], out: &mut Vec<u8>) {
    for e in row {
        out.extend_from_slice(&e.to_f64().to_bits().to_le_bytes());
    }
}

/// The inverse of [`export_elems`]: `8·row.len()` bytes back onto `E`'s
/// storage grid.
fn import_elems<E: PresElem>(row: &mut [E], bytes: &[u8]) {
    for (slot, chunk) in row.iter_mut().zip(bytes.chunks_exact(8)) {
        let bits = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        *slot = E::from_f64(f64::from_bits(bits));
    }
}

/// The memoization table of P-Tucker-Cache, stored at element
/// type `E` (the fit's [`StoragePrecision`]), rows in COO entry order.
#[derive(Debug)]
pub(crate) struct PresTable<E: PresElem> {
    /// Row-major `|Ω| × |G|` products; row `e` belongs to COO entry `e`.
    data: Vec<E>,
    /// Row stride = `|G|` (fixed: Cache and Approx are mutually exclusive).
    g: usize,
    /// Per-worker ratio buffers for the rescale.
    ratios: Vec<Vec<f64>>,
    /// Keeps the budget reservation alive for the table's lifetime.
    _reservation: Reservation,
}

impl<E: PresElem> PresTable<E> {
    /// Precomputes the full table in parallel (Algorithm 3 lines 1–4; the
    /// paper uses static scheduling here — uniform work per row). Each
    /// product is computed in `f64` and rounded once onto `E`'s storage
    /// grid.
    ///
    /// # Errors
    /// [`crate::PtuckerError::OutOfMemory`] if `|Ω|·|G|` elements exceed
    /// the intermediate-data budget.
    pub fn compute(
        x: &SparseTensor,
        factors: &[Matrix],
        core: &CoreTensor,
        threads: usize,
        budget: &MemoryBudget,
    ) -> Result<Self> {
        let g = core.nnz();
        let cells = x.nnz().saturating_mul(g);
        let reservation = budget.reserve(cells.saturating_mul(E::PRECISION.value_bytes()))?;
        let mut data = vec![E::default(); cells];
        let order = x.order();
        let core_idx = core.flat_indices();
        let core_vals = core.values();
        parallel_rows_mut(&mut data, g.max(1), threads, Schedule::Static, |e, row| {
            let idx = x.index(e);
            for (b, slot) in row.iter_mut().enumerate() {
                *slot = E::from_f64(product(
                    core_vals[b],
                    &core_idx[b * order..(b + 1) * order],
                    idx,
                    factors,
                ));
            }
        });
        Ok(PresTable {
            data,
            g,
            ratios: ratio_buffers(threads, factors),
            _reservation: reservation,
        })
    }

    /// The cached products of COO entry `e`.
    #[inline]
    pub fn row(&self, e: usize) -> &[E] {
        &self.data[e * self.g..(e + 1) * self.g]
    }

    /// Appends every table element, widened to `f64` little-endian bits,
    /// to `out` **in `stream`'s position order** — the checkpoint
    /// representation (see [`crate::engine::RowUpdateKernel::save_aux`]).
    /// Widening is exact for both precisions, so export → import is
    /// lossless.
    pub fn export_state(&self, stream: &ModeStream, out: &mut Vec<u8>) {
        out.reserve(self.data.len() * 8);
        for p in 0..stream.view().len() {
            export_elems(self.row(stream.entry_id(p)), out);
        }
    }

    /// Overwrites the table's elements from an [`PresTable::export_state`]
    /// byte stream laid out in `stream`'s position order; the table must
    /// already have its final shape (built by `compute` on the resumed
    /// fit's identical inputs).
    ///
    /// # Errors
    /// [`crate::PtuckerError::Checkpoint`] if the byte count disagrees
    /// with the table's `|Ω|·|G|` elements.
    pub fn import_state(&mut self, stream: &ModeStream, bytes: &[u8]) -> Result<()> {
        if bytes.len() != self.data.len() * 8 {
            return Err(crate::PtuckerError::Checkpoint(format!(
                "checkpointed Pres table holds {} bytes, this fit's table needs {}",
                bytes.len(),
                self.data.len() * 8
            )));
        }
        let g = self.g;
        for (p, row) in bytes.chunks_exact((g * 8).max(1)).enumerate() {
            let e = stream.entry_id(p);
            import_elems(&mut self.data[e * g..(e + 1) * g], row);
        }
        Ok(())
    }

    /// Rescales the table after `A⁽ᵐᵒᵈᵉ⁾` was updated (Algorithm 3 lines
    /// 16–19): `Pres[α][β] *= a_new/a_old`, recomputing outright where
    /// `a_old = 0` — one parallel pass over the rows where they lie.
    pub fn rescale(
        &mut self,
        x: &SparseTensor,
        factors: &[Matrix],
        old_a: &Matrix,
        mode: usize,
        core: &CoreTensor,
        threads: usize,
    ) {
        let core_idx = core.flat_indices();
        let core_vals = core.values();
        let new_a = &factors[mode];
        parallel_rows_mut_with(
            &mut self.data,
            self.g.max(1),
            threads,
            Schedule::Static,
            &mut self.ratios,
            |ratio, e, row| {
                rescale_entry_row(
                    row,
                    x.index(e),
                    mode,
                    old_a,
                    new_a,
                    core_idx,
                    core_vals,
                    factors,
                    ratio,
                );
            },
        );
    }
}

/// The run-blocked, **entry-blocked** cached-δ arithmetic: the δ of `E`
/// entries of one factor row into `lanes` (`E × Jₙ`, lane-major, cleared
/// first), each from its own row of the [`PresTable`], gathered through
/// the stream's entry ids.
///
/// `pres[e]` is lane `e`'s `|G|` cached products and `others[e]` its packed
/// other-mode indices in stream layout (ascending mode order, the update
/// mode skipped); `a_row_old` is the *current* (pre-update) row
/// `a⁽ⁿ⁾(iₙ, ·)`, which the lanes share because they sit in the same factor
/// row; the mode, the core, its [`crate::delta::RunPlan`] and the factors
/// come from `ctx`.
///
/// *What the lanes share.* One walk of the core's runs, and with it each
/// run's δ slot, its divisor and the zero test on it. On a mode other than
/// the last a run has one divisor, so the run collapses to a contiguous sum
/// and a single division — and the block forms
/// `q[e] = P::sum(pres_e[run]) / a` for every lane before adding any of them
/// into the lanes' δ: `E` independent sum → divide chains in flight where
/// the one-entry loop has one chain and a δ slot it reads, adds to and
/// writes back through memory run after run. Mode `N−1`'s divisor varies
/// along the run; on a dense core ([`RunPlan::full_tails`]) whose old row
/// holds no zero — tested once per block, not once per run — each lane's
/// whole δ stays in a `J_N`-wide tile of locals for the length of the row
/// ([`tail_tile`]).
///
/// *Why each lane is bitwise the one-entry loop.* Lane `e` reads only its
/// own `Pres` row and adds, in run order, the same quotients into its own
/// δ: `P::sum` over the same slice divided by the same `a`, or — in the
/// tile — `pres[t] / a[t]` then add, the element-wise operation
/// [`PresElem::div_add`] performs. A zero divisor (the paper's caveat:
/// "when a is 0, P-TUCKER-CACHE conducts the multiplications as P-TUCKER
/// does") sends the
/// same slots of every lane to the direct product: a non-tail run whose `a`
/// is zero adds its `fallback_product`s one by one, a tail row with any
/// zero leaves the tile for the per-run `div_add` + patch, truncated or
/// non-contiguous runs divide element by element — each the arithmetic of
/// the one-entry loop in its order, and `E = 1` *is* this function
/// ([`cached_delta_for_entry`]).
///
/// [`RunPlan::full_tails`]: crate::delta::RunPlan
#[inline]
pub(crate) fn cached_delta_for_block<P: PresElem, const E: usize>(
    lanes: &mut [f64],
    pres: [&[P]; E],
    others: [&[u32]; E],
    a_row_old: &[f64],
    ctx: &ModeContext<'_>,
) {
    lanes.fill(0.0);
    let j = lanes.len() / E;
    let (mode, runs, core_idx) = (ctx.mode, ctx.runs, ctx.core_idx);
    let order = ctx.factors.len();
    let last = order - 1;
    // The lanes' rows re-sliced to one shared length, so one bounds check
    // per run serves every lane.
    let g = ctx.core_vals.len();
    let pres = pres.map(|p| &p[..g]);
    let fallback = |e: usize, b: usize| {
        let beta = &core_idx[b * order..(b + 1) * order];
        fallback_product(ctx.core_vals[b], beta, others[e], mode, ctx.factors)
    };
    if mode != last {
        // Constant divisor over the run: one contiguous sum and one
        // division per lane, all lanes' quotients formed before any is
        // added.
        for r in 0..runs.n_runs() {
            let (base, end) = runs.run(r);
            let slot = core_idx[base * order + mode];
            let a = a_row_old[slot];
            if a != 0.0 {
                let q: [f64; E] = std::array::from_fn(|e| P::sum(&pres[e][base..end]) / a);
                for e in 0..E {
                    lanes[e * j + slot] += q[e];
                }
            } else {
                for e in 0..E {
                    for b in base..end {
                        lanes[e * j + slot] += fallback(e, b);
                    }
                }
            }
        }
        return;
    }
    // Mode N−1: the divisor varies with the tail coordinate.
    if runs.full_tails() && g == runs.n_runs() * j && !a_row_old.contains(&0.0) {
        macro_rules! tile {
            ($($w:literal)*) => {
                match j {
                    $($w => {
                        let n = if 2 * $w <= TILE_DOUBLES { 2 } else { 1 };
                        for (lanes, pres) in lanes.chunks_mut(n * $w).zip(pres.chunks(n)) {
                            match pres {
                                [a, b] => tail_tile::<P, 2, $w>(lanes, [a, b], a_row_old),
                                [a] => tail_tile::<P, 1, $w>(lanes, [a], a_row_old),
                                _ => unreachable!("chunks of at most two"),
                            }
                        }
                        return;
                    })*
                    _ => {}
                }
            };
        }
        tile!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    }
    for r in 0..runs.n_runs() {
        let (base, end) = runs.run(r);
        let (t0, contiguous) = runs.tail(r);
        for (e, delta) in lanes.chunks_exact_mut(j).enumerate() {
            if contiguous {
                // One `δ[t] += pres[t] / a_old[t]` pass that skips the
                // zero divisors, and only runs that actually hit one
                // rescan for the direct-product fallback.
                let old = &a_row_old[t0..t0 + (end - base)];
                if P::div_add(&mut delta[t0..t0 + old.len()], &pres[e][base..end], old) {
                    for (b, &a) in (base..end).zip(old) {
                        if a == 0.0 {
                            delta[t0 + (b - base)] += fallback(e, b);
                        }
                    }
                }
            } else {
                // Truncation gaps: per-entry divisions, still a linear
                // pass over the cached slice.
                for b in base..end {
                    let slot = core_idx[b * order + last];
                    let a = a_row_old[slot];
                    if a != 0.0 {
                        delta[slot] += pres[e][b].to_f64() / a;
                    } else {
                        delta[slot] += fallback(e, b);
                    }
                }
            }
        }
    }
}

/// Mode `N−1`'s cached δ for `T` lanes on a dense core of tail rank `W`
/// whose old row `a` holds no zero: every run is the `r`-th `W`-chunk of a
/// lane's `Pres` row, and the lanes' δ live in a `T × W` tile of locals —
/// registers, at the paper's ranks — through the whole row, stored once at
/// the end. Per run, lane and slot the tile does `acc[t] += pres[t] / a[t]`,
/// divide then add: exactly what [`PresElem::div_add`] does to `δ[t]`
/// through memory, in the same run order, so the same bits.
#[inline]
fn tail_tile<P: PresElem, const T: usize, const W: usize>(
    lanes: &mut [f64],
    pres: [&[P]; T],
    a_row_old: &[f64],
) {
    debug_assert!(W <= MAX_TILE && lanes.len() == T * W);
    let a: [f64; W] = std::array::from_fn(|t| a_row_old[t]);
    let rows = pres.map(|p| p.as_chunks::<W>().0);
    let n_runs = rows[0].len();
    let rows = rows.map(|row| &row[..n_runs]);
    let mut acc = [[0.0f64; W]; T];
    for r in 0..n_runs {
        for e in 0..T {
            for t in 0..W {
                acc[e][t] += rows[e][r][t].to_f64() / a[t];
            }
        }
    }
    for (delta, acc) in lanes.chunks_exact_mut(W).zip(&acc) {
        delta.copy_from_slice(acc);
    }
}

/// The cached δ of one entry — a leftover after a row's full blocks: the
/// `E = 1` instantiation of [`cached_delta_for_block`], not a second
/// kernel.
#[inline]
pub(crate) fn cached_delta_for_entry<P: PresElem>(
    delta: &mut [f64],
    pres: &[P],
    others: &[u32],
    a_row_old: &[f64],
    ctx: &ModeContext<'_>,
) {
    cached_delta_for_block(delta, [pres], [others], a_row_old, ctx);
}

/// The Algorithm-3 lines 16–19 rescale for one entry's cached-product row:
/// `Pres[α][β] *= a_new/a_old`, recomputed outright where `a_old = 0`.
///
/// The quotient depends on `β` only through `βₙ`, so it is formed once per
/// column of the updated row into `ratio` (`Jₙ` divisions and one
/// zero-divisor scan per table row, not `|G|` of each) and multiplied into
/// every element — the same IEEE quotient into the same element as the
/// literal per-element `slot * (new/old)`, so no bit moves. A row with a
/// zero `a_old` takes the per-element path, recomputing exactly the
/// elements the paper prescribes. `ratio` is the worker's reusable buffer
/// of at least `Jₙ` doubles.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn rescale_entry_row<E: PresElem>(
    row: &mut [E],
    idx: &[usize],
    mode: usize,
    old_a: &Matrix,
    new_a: &Matrix,
    core_idx: &[usize],
    core_vals: &[f64],
    factors: &[Matrix],
    ratio: &mut [f64],
) {
    let order = idx.len();
    let old = old_a.row(idx[mode]);
    let new = new_a.row(idx[mode]);
    let mut any_zero = false;
    for ((r, &n), &o) in ratio.iter_mut().zip(new).zip(old) {
        any_zero |= o == 0.0;
        *r = n / o;
    }
    let betas = core_idx.chunks_exact(order);
    if !any_zero {
        // Widen, scale in f64, round back once — for f64 exactly the
        // classic `*slot *= new/old`.
        for (slot, beta) in row.iter_mut().zip(betas) {
            *slot = E::from_f64(slot.to_f64() * ratio[beta[mode]]);
        }
    } else {
        for ((slot, beta), &gv) in row.iter_mut().zip(betas).zip(core_vals) {
            let j_n = beta[mode];
            *slot = E::from_f64(if old[j_n] != 0.0 {
                slot.to_f64() * ratio[j_n]
            } else {
                product(gv, beta, idx, factors)
            });
        }
    }
}

/// `G_β Π_{k=1..N} a⁽ᵏ⁾(iₖ, βₖ)` — the cached quantity.
#[inline]
pub(crate) fn product(g: f64, beta: &[usize], idx: &[usize], factors: &[Matrix]) -> f64 {
    let mut w = g;
    for (k, factor) in factors.iter().enumerate() {
        w *= factor[(idx[k], beta[k])];
        if w == 0.0 {
            break;
        }
    }
    w
}

/// The zero-divisor fallback: the direct `Π_{k≠n}` product from the
/// entry's packed other-mode indices (paper: "when a is 0, P-TUCKER-CACHE
/// conducts the multiplications as P-TUCKER does").
#[inline]
fn fallback_product(
    g: f64,
    beta: &[usize],
    others: &[u32],
    mode: usize,
    factors: &[Matrix],
) -> f64 {
    let mut w = g;
    let mut slot = 0;
    for (k, factor) in factors.iter().enumerate() {
        if k == mode {
            continue;
        }
        w *= factor[(others[slot] as usize, beta[k])];
        slot += 1;
        if w == 0.0 {
            break;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{accumulate_delta, core_runs, RunPlan, LANES};
    use crate::FitOptions;
    use proptest::prelude::*;
    use ptucker_memtrack::MemoryBudget;
    use ptucker_tensor::ModeStreams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (SparseTensor, Vec<Matrix>, CoreTensor, ModeStreams) {
        let mut rng = StdRng::seed_from_u64(21);
        let x = ptucker_tensor::SparseTensor::new(
            vec![3, 4],
            vec![
                (vec![0, 0], 1.0),
                (vec![1, 2], 0.5),
                (vec![2, 3], 2.0),
                (vec![0, 1], -1.0),
            ],
        )
        .unwrap();
        let factors = vec![random_matrix(3, 2, &mut rng), random_matrix(4, 2, &mut rng)];
        let core = CoreTensor::random_dense(vec![2, 2], &mut rng).unwrap();
        let plan = ModeStreams::build(&x).unwrap();
        (x, factors, core, plan)
    }

    fn random_matrix(r: usize, c: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_vec(r, c, (0..r * c).map(|_| rng.gen::<f64>()).collect()).unwrap()
    }

    fn compute<E: PresElem>(
        x: &SparseTensor,
        factors: &[Matrix],
        core: &CoreTensor,
        threads: usize,
    ) -> PresTable<E> {
        PresTable::compute(x, factors, core, threads, &MemoryBudget::unlimited()).unwrap()
    }

    /// Packs other-mode indices the way a `ModeStream` does.
    fn pack_others(idx: &[usize], mode: usize) -> Vec<u32> {
        idx.iter()
            .enumerate()
            .filter(|&(k, _)| k != mode)
            .map(|(_, &i)| i as u32)
            .collect()
    }

    /// Every row `e` of the table against the fresh products of entry `e`,
    /// within `tol` relative to the product (0 = bitwise against the
    /// once-narrowed product).
    fn assert_rows_are_products<E: PresElem>(
        pres: &PresTable<E>,
        x: &SparseTensor,
        factors: &[Matrix],
        core: &CoreTensor,
        tol: f64,
        tag: &str,
    ) {
        for e in 0..x.nnz() {
            for (b, got) in pres.row(e).iter().enumerate() {
                let want = product(core.value(b), core.index(b), x.index(e), factors);
                if tol == 0.0 {
                    let want = E::from_f64(want).to_f64();
                    assert_eq!(got.to_f64().to_bits(), want.to_bits(), "{tag} e={e} b={b}");
                } else {
                    let err = (got.to_f64() - want).abs();
                    assert!(
                        err <= tol * want.abs().max(1e-300),
                        "{tag} e={e} b={b}: {err}"
                    );
                }
            }
        }
    }

    /// The tentpole contract: row `e` of the table holds the products of
    /// COO entry `e`, whatever the plan's stream orders are.
    #[test]
    fn precompute_is_entry_ordered_and_matches_direct_products() {
        let (x, factors, core, _) = setup();
        let pres = compute::<f64>(&x, &factors, &core, 2);
        assert_rows_are_products(&pres, &x, &factors, &core, 0.0, "f64");
    }

    /// Mixed-precision contract at the table layer: an f32 table holds
    /// exactly the f64 product narrowed once — no double rounding, no
    /// f32 arithmetic. (`product` runs in f64; the cast is the only
    /// lossy step.)
    #[test]
    fn f32_table_stores_once_narrowed_products_bitwise() {
        let (x, factors, core, _) = setup();
        let pres = compute::<f32>(&x, &factors, &core, 2);
        assert_rows_are_products(&pres, &x, &factors, &core, 0.0, "f32");
    }

    #[test]
    fn cached_delta_matches_direct_delta() {
        let (x, factors, core, plan) = setup();
        let pres = compute::<f64>(&x, &factors, &core, 1);
        let runs = RunPlan::new(&core);
        let opts = FitOptions::new(core.dims().to_vec());
        for mode in 0..2 {
            let stream = plan.mode(mode);
            let ctx = ModeContext::new(&plan, &factors, &core, &runs, mode, &opts);
            for pos in 0..x.nnz() {
                // The sweep's access path: stream position → entry id → row.
                let e = stream.entry_id(pos);
                let idx = x.index(e);
                let j_n = core.dims()[mode];
                let mut direct = vec![0.0; j_n];
                accumulate_delta(
                    &mut direct,
                    idx,
                    mode,
                    core.flat_indices(),
                    core.values(),
                    &factors,
                );
                let mut cached = vec![0.0; j_n];
                cached_delta_for_entry(
                    &mut cached,
                    pres.row(e),
                    stream.others(pos),
                    factors[mode].row(idx[mode]),
                    &ctx,
                );
                for (c, d) in cached.iter().zip(&direct) {
                    assert!((c - d).abs() < 1e-10, "mode={mode} pos={pos}");
                }
            }
        }
    }

    #[test]
    fn cached_delta_zero_divisor_fallback() {
        let (x, mut factors, core, plan) = setup();
        // Zero out one factor value so the division path is impossible.
        factors[0][(0, 1)] = 0.0;
        let pres = compute::<f64>(&x, &factors, &core, 1);
        let runs = RunPlan::new(&core);
        let opts = FitOptions::new(core.dims().to_vec());
        let ctx = ModeContext::new(&plan, &factors, &core, &runs, 0, &opts);
        let idx = x.index(0); // entry (0,0)
        let mut direct = vec![0.0; 2];
        accumulate_delta(
            &mut direct,
            idx,
            0,
            core.flat_indices(),
            core.values(),
            &factors,
        );
        let mut cached = vec![0.0; 2];
        cached_delta_for_entry(
            &mut cached,
            pres.row(0),
            &pack_others(idx, 0),
            factors[0].row(idx[0]),
            &ctx,
        );
        for (c, d) in cached.iter().zip(&direct) {
            assert!((c - d).abs() < 1e-12);
        }
    }

    /// After a factor update, the rescale leaves every row equal to its
    /// entry's fresh products, in place.
    #[test]
    fn rescale_keeps_table_consistent() {
        let (x, mut factors, core, _) = setup();
        let mut pres = compute::<f64>(&x, &factors, &core, 2);
        let old = factors[0].clone();
        let mut rng = StdRng::seed_from_u64(99);
        factors[0] = random_matrix(3, 2, &mut rng);
        pres.rescale(&x, &factors, &old, 0, &core, 2);
        assert_rows_are_products(&pres, &x, &factors, &core, 1e-10, "stale cache");
    }

    #[test]
    fn rescale_recomputes_after_zero_old_value() {
        let (x, mut factors, core, _) = setup();
        factors[0][(0, 0)] = 0.0;
        let mut pres = compute::<f64>(&x, &factors, &core, 1);
        let old = factors[0].clone();
        factors[0][(0, 0)] = 0.75; // zero → nonzero: division impossible
        pres.rescale(&x, &factors, &old, 0, &core, 1);
        assert_rows_are_products(&pres, &x, &factors, &core, 1e-12, "zero-old");
    }

    /// The literal Algorithm-3 rescale: one quotient and one zero test per
    /// core entry — what `rescale_entry_row` must reproduce bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn per_element_rescale<E: PresElem>(
        row: &mut [E],
        idx: &[usize],
        mode: usize,
        old_a: &Matrix,
        new_a: &Matrix,
        core_idx: &[usize],
        core_vals: &[f64],
        factors: &[Matrix],
    ) {
        let order = idx.len();
        let i_n = idx[mode];
        for (b, slot) in row.iter_mut().enumerate() {
            let beta = &core_idx[b * order..(b + 1) * order];
            let j_n = beta[mode];
            let old = old_a[(i_n, j_n)];
            *slot = if old != 0.0 {
                E::from_f64(slot.to_f64() * (new_a[(i_n, j_n)] / old))
            } else {
                E::from_f64(product(core_vals[b], beta, idx, factors))
            };
        }
    }

    fn hoisted_matches_per_element<E: PresElem>() {
        const HOSTILE: [f64; 8] = [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -1.75,
        ];
        let j = HOSTILE.len();
        let mut rng = StdRng::seed_from_u64(0x405);
        let dims = [4usize, 3, 3];
        let core = CoreTensor::random_dense(vec![j, j, j], &mut rng).unwrap();
        let (core_idx, core_vals) = (core.flat_indices(), core.values());
        let mut ratio = vec![0.0; j];
        for mode in 0..3 {
            let mut factors: Vec<Matrix> = dims
                .iter()
                .map(|&d| random_matrix(d, j, &mut rng))
                .collect();
            let mut old_a = random_matrix(dims[mode], j, &mut rng);
            // Row 0: every hostile value in `old` (zeros included → the
            // per-element recompute path) against rotated hostile `new`s;
            // row 1: hostile but zero-free `old` (the hoisted fast path);
            // row 2: benign `old`, hostile `new`; row 3 (mode 0): benign.
            for c in 0..j {
                old_a[(0, c)] = HOSTILE[c];
                factors[mode][(0, c)] = HOSTILE[(c + 3) % j];
                old_a[(1, c)] = HOSTILE[2 + c % (j - 2)];
                factors[mode][(1, c)] = HOSTILE[(c + 5) % j];
                factors[mode][(2, c)] = HOSTILE[c];
            }
            for i_n in 0..dims[mode] {
                let mut idx = [1usize, 2, 0];
                idx[mode] = i_n;
                let row: Vec<E> = (0..core.nnz())
                    .map(|b| match b % 7 {
                        0 => E::from_f64(HOSTILE[b % j]),
                        _ => E::from_f64(rng.gen::<f64>() - 0.5),
                    })
                    .collect();
                let mut want = row.clone();
                per_element_rescale(
                    &mut want,
                    &idx,
                    mode,
                    &old_a,
                    &factors[mode],
                    core_idx,
                    core_vals,
                    &factors,
                );
                let mut got = row;
                rescale_entry_row(
                    &mut got,
                    &idx,
                    mode,
                    &old_a,
                    &factors[mode],
                    core_idx,
                    core_vals,
                    &factors,
                    &mut ratio,
                );
                for (b, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_f64().to_bits(),
                        w.to_f64().to_bits(),
                        "mode {mode} row {i_n} b {b}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    /// The hoisted ratio is a loop-invariant move, not an arithmetic
    /// change: over rows with zero, −0.0, subnormal, ±Inf and NaN in `old`
    /// and `new` (zero-old → recompute), every element comes out with the
    /// bits of the literal per-element `slot * (new/old)`.
    #[test]
    fn hoisted_ratio_is_bitwise_per_element_rescale() {
        hoisted_matches_per_element::<f64>();
        hoisted_matches_per_element::<f32>();
    }

    #[test]
    fn budget_violation_is_oom() {
        let (x, factors, core, _) = setup();
        let tiny = MemoryBudget::new(16); // far below |Ω|*|G|*8 bytes
        let err = PresTable::<f64>::compute(&x, &factors, &core, 1, &tiny).unwrap_err();
        assert!(matches!(err, crate::PtuckerError::OutOfMemory(_)));
    }

    /// Drives a table through `cycles` full mode cycles of real factor
    /// updates: after every rescale its rows must track the fresh products
    /// within `tol`.
    fn table_tracks_products_through_cycles<E: PresElem>(
        x: &SparseTensor,
        mut factors: Vec<Matrix>,
        core: &CoreTensor,
        cycles: usize,
        tol: f64,
        rng: &mut StdRng,
    ) -> PresTable<E> {
        let order = x.order();
        let mut table = compute::<E>(x, &factors, core, 2);
        for step in 0..cycles * order {
            let mode = step % order;
            let old = factors[mode].clone();
            factors[mode] = random_matrix(old.rows(), old.cols(), rng);
            table.rescale(x, &factors, &old, mode, core, 2);
            assert_rows_are_products(&table, x, &factors, core, tol, "cycle");
        }
        table
    }

    /// Checkpoint layout: after a full rescale cycle the table exports its
    /// rows in mode 0's stream order, and importing them into a fresh
    /// table reproduces the exporter bit for bit.
    #[test]
    fn export_import_round_trips_through_mode0_stream_order() {
        let (x, factors, core, plan) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        let table = table_tracks_products_through_cycles::<f64>(
            &x,
            factors.clone(),
            &core,
            1,
            1e-9,
            &mut rng,
        );
        let mut bytes = Vec::new();
        table.export_state(plan.mode(0), &mut bytes);
        let g = core.nnz();
        for (p, row) in bytes.chunks_exact(g * 8).enumerate() {
            let mut want = Vec::new();
            export_elems(table.row(plan.mode(0).entry_id(p)), &mut want);
            assert_eq!(row, &want[..], "position {p}");
        }
        let mut fresh = compute::<f64>(&x, &factors, &core, 1);
        fresh.import_state(plan.mode(0), &bytes).unwrap();
        for (a, b) in fresh.data.iter().zip(&table.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(fresh.import_state(plan.mode(0), &bytes[8..]).is_err());
    }

    /// The literal single-entry cached-δ loop this module ran before the
    /// lanes — run bounds from `core_runs`, tail coordinate and contiguity
    /// re-derived from `core_idx` per run, the δ slot read-modify-written
    /// through memory — kept verbatim as the reference every lane of
    /// [`cached_delta_for_block`] must reproduce bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn reference_cached_delta<E: PresElem>(
        delta: &mut [f64],
        pres: &[E],
        others: &[u32],
        mode: usize,
        a_row_old: &[f64],
        core_idx: &[usize],
        core_vals: &[f64],
        runs: &[u32],
        factors: &[Matrix],
    ) {
        delta.fill(0.0);
        let order = factors.len();
        let last = order - 1;
        for r in 0..runs.len() - 1 {
            let base = runs[r] as usize;
            let end = runs[r + 1] as usize;
            if mode == last {
                let len = end - base;
                let t0 = core_idx[base * order + last];
                let contiguous = core_idx[(end - 1) * order + last] - t0 + 1 == len;
                if contiguous {
                    if E::div_add(
                        &mut delta[t0..t0 + len],
                        &pres[base..end],
                        &a_row_old[t0..t0 + len],
                    ) {
                        for b in base..end {
                            let j_n = core_idx[b * order + last];
                            if a_row_old[j_n] == 0.0 {
                                delta[j_n] += fallback_product(
                                    core_vals[b],
                                    &core_idx[b * order..(b + 1) * order],
                                    others,
                                    mode,
                                    factors,
                                );
                            }
                        }
                    }
                } else {
                    for b in base..end {
                        let j_n = core_idx[b * order + last];
                        let a = a_row_old[j_n];
                        if a != 0.0 {
                            delta[j_n] += pres[b].to_f64() / a;
                        } else {
                            delta[j_n] += fallback_product(
                                core_vals[b],
                                &core_idx[b * order..(b + 1) * order],
                                others,
                                mode,
                                factors,
                            );
                        }
                    }
                }
            } else {
                let j_n = core_idx[base * order + mode];
                let a = a_row_old[j_n];
                if a != 0.0 {
                    delta[j_n] += E::sum(&pres[base..end]) / a;
                } else {
                    for b in base..end {
                        delta[j_n] += fallback_product(
                            core_vals[b],
                            &core_idx[b * order..(b + 1) * order],
                            others,
                            mode,
                            factors,
                        );
                    }
                }
            }
        }
    }

    /// NaN payloads aside, the bits of `v`.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    const HOSTILE: [f64; 8] = [
        0.0,
        -0.0,
        5e-324,
        -2.5e-310,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.0,
    ];

    /// Every lane of an `E`-lane block over the window's first positions
    /// (repeating, in a shorter window) against [`reference_cached_delta`]
    /// on that lane's row, gathered from the table through the window's
    /// entry ids, under each old row in `old_rows`.
    fn assert_lanes_match_reference<P: PresElem, const E: usize>(
        ctx: &ModeContext<'_>,
        table: &PresTable<P>,
        old_rows: &[Vec<f64>],
    ) {
        let (j, len) = (ctx.j_n, ctx.stream.len());
        if len == 0 {
            return;
        }
        let offsets = core_runs(ctx.core_idx, ctx.factors.len());
        let block: [usize; E] = std::array::from_fn(|e| e % len);
        let others = block.map(|pos| ctx.stream.others(pos));
        let pres = block.map(|pos| table.row(ctx.stream.entry_id(pos)));
        for old in old_rows {
            let mut lanes = vec![7.0; E * j];
            cached_delta_for_block::<P, E>(&mut lanes, pres, others, old, ctx);
            for e in 0..E {
                let mut want = vec![3.0; j];
                reference_cached_delta(
                    &mut want,
                    pres[e],
                    others[e],
                    ctx.mode,
                    old,
                    ctx.core_idx,
                    ctx.core_vals,
                    &offsets,
                    ctx.factors,
                );
                for (t, (g, w)) in lanes[e * j..(e + 1) * j].iter().zip(&want).enumerate() {
                    assert_eq!(
                        bits(*g),
                        bits(*w),
                        "{:?} E={E} mode {} lane {e} slot {t} old {old:?}: {g} vs {w}",
                        P::PRECISION,
                        ctx.mode
                    );
                }
            }
        }
    }

    /// One full mode cycle over a table of element type `P`
    /// ([`LANES`]-position windows, so a mode's positions are window-local
    /// views): in every window of every mode, blocks of 1, 2, 3 and
    /// [`LANES`] positions against the reference loop, then the table is
    /// rescaled against an unchanged factor.
    fn lanes_match_reference_through_a_cycle<P: PresElem>(
        x: &SparseTensor,
        plan: &ModeStreams,
        factors: &[Matrix],
        core: &CoreTensor,
        rng: &mut StdRng,
    ) {
        let runs = RunPlan::new(core);
        let opts = FitOptions::new(core.dims().to_vec());
        let mut table = compute::<P>(x, factors, core, 1);
        let mut source = plan.sweep_source(0, LANES, false);
        for mode in 0..x.order() {
            let j = core.dims()[mode];
            // Old rows: benign; hostile but zero-free (NaN, ±Inf and
            // subnormal divisors stay on the divide path — the tile's, on a
            // dense core); hostile with zeros of both signs (the direct-
            // product fallback, for the same slots of every lane).
            let benign: Vec<f64> = (0..j).map(|_| rng.gen::<f64>() + 0.5).collect();
            let mut zero_free = benign.clone();
            let mut zeroed = benign.clone();
            for t in 0..j {
                if rng.gen::<f64>() < 0.4 {
                    zero_free[t] = HOSTILE[rng.gen_range(2..HOSTILE.len())];
                    zeroed[t] = HOSTILE[rng.gen_range(0..HOSTILE.len())];
                }
            }
            zeroed[rng.gen_range(0..j)] = if rng.gen() { 0.0 } else { -0.0 };
            let old_rows = [benign, zero_free, zeroed];
            source.rewind(mode);
            while let Some(w) = source.next_window().unwrap() {
                let ctx = ModeContext::for_view(w.stream, factors, core, &runs, mode, &opts);
                assert_lanes_match_reference::<P, 1>(&ctx, &table, &old_rows);
                assert_lanes_match_reference::<P, 2>(&ctx, &table, &old_rows);
                assert_lanes_match_reference::<P, 3>(&ctx, &table, &old_rows);
                assert_lanes_match_reference::<P, LANES>(&ctx, &table, &old_rows);
            }
            let old = factors[mode].clone();
            table.rescale(x, factors, &old, mode, core, 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Satellite property: over random tensors, the entry-ordered table
        // equals the direct products of its entries through full rescale
        // cycles, f64 and f32.
        #[test]
        fn entry_ordered_table_equals_direct_products(seed in 0..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dims = [4usize, 3, 3];
            let nnz = rng.gen_range(4..20usize);
            let x = ptucker_datagen::uniform_sparse(&dims, nnz, &mut rng);
            let factors: Vec<Matrix> = dims
                .iter()
                .map(|&d| random_matrix(d, 2, &mut rng))
                .collect();
            let core = CoreTensor::random_dense(vec![2, 2, 2], &mut rng).unwrap();
            let f = factors.clone();
            table_tracks_products_through_cycles::<f64>(&x, f, &core, 2, 1e-9, &mut rng);
            table_tracks_products_through_cycles::<f32>(&x, factors, &core, 2, 1e-4, &mut rng);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Tentpole property: every lane of the block kernel is the literal
        // pre-lane single-entry loop on that lane's Pres row, to the bit —
        // every mode (parent-coordinate, run-coordinate and tail; the tail
        // through the divide tile on dense cores of narrow and wide tail
        // rank with a zero-free old row, through memory otherwise), at
        // every block width up to the shipped one, f64 and f32 elements,
        // rows gathered through window-local views, on dense, sampled and
        // truncated cores, with hostile values in the factors (so in the
        // cached products) and in the old row (so the zero-divisor fallback
        // fires for exactly the same slots in every lane).
        #[test]
        fn lanes_are_bitwise_single_entry(
            order in 1..=8usize,
            shape in 0..3usize,
            seed in 0..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ranks: Vec<usize> = (0..order).map(|_| rng.gen_range(1..4usize)).collect();
            if order <= 3 {
                // Tail ranks on both sides of the tile's widest instantiation.
                ranks[order - 1] = rng.gen_range(1..MAX_TILE + 3);
            }
            let value = |rng: &mut StdRng| rng.gen::<f64>() * 2.0 - 1.0;
            let mut core = match shape {
                // Dense: every run is the full tail (the tile's case).
                0 if ranks.iter().product::<usize>() <= 2048 => {
                    let n = ranks.iter().product();
                    let mut vals = (0..n).map(|_| value(&mut rng)).collect::<Vec<f64>>().into_iter();
                    CoreTensor::dense_from_fn(ranks.clone(), |_| vals.next().unwrap()).unwrap()
                }
                // Sparse sample: ragged, non-contiguous and single-entry runs.
                _ => {
                    let mut cells = std::collections::BTreeSet::new();
                    for _ in 0..rng.gen_range(1..60usize) {
                        cells.insert(ranks.iter().map(|&d| rng.gen_range(0..d)).collect::<Vec<usize>>());
                    }
                    let entries = cells.into_iter().map(|idx| (idx, value(&mut rng))).collect();
                    CoreTensor::from_entries(ranks.clone(), entries).unwrap()
                }
            };
            if shape == 2 {
                // A truncation pass on top, as Approx leaves a core.
                let kill = rng.gen_range(2..5usize);
                core.retain_by_id(|e| e % kill != 1 || e == 0);
            }
            let dims: Vec<usize> = (0..order).map(|_| rng.gen_range(2..5usize)).collect();
            let cells: usize = dims.iter().product();
            let x = ptucker_datagen::uniform_sparse(&dims, rng.gen_range(1..cells.min(7) + 1), &mut rng);
            let plan = ModeStreams::build(&x).unwrap();
            let factors: Vec<Matrix> = dims
                .iter()
                .zip(&ranks)
                .map(|(&i_n, &j_n)| {
                    let data = (0..i_n * j_n)
                        .map(|_| {
                            if rng.gen::<f64>() < 0.15 {
                                HOSTILE[rng.gen_range(0..HOSTILE.len())]
                            } else {
                                value(&mut rng)
                            }
                        })
                        .collect();
                    Matrix::from_vec(i_n, j_n, data).unwrap()
                })
                .collect();
            lanes_match_reference_through_a_cycle::<f64>(&x, &plan, &factors, &core, &mut rng);
            lanes_match_reference_through_a_cycle::<f32>(&x, &plan, &factors, &core, &mut rng);
        }
    }
}
