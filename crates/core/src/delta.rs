//! The δ kernel (Eq. 12 of the paper).
//!
//! For an observed entry `α = (i₁, …, i_N)` and a mode `n`, the vector
//! `δ⁽ⁿ⁾_α ∈ R^{Jₙ}` has entries
//! `δ(j) = Σ_{β ∈ G, βₙ = j} G_β Π_{k≠n} a⁽ᵏ⁾(iₖ, βₖ)`.
//! The row update accumulates `B += δδᵀ` and `c += X_α δ` over all entries
//! in the row's slice `Ω⁽ⁿ⁾ᵢₙ`, which is the whole of Theorem 1.
//!
//! Four implementations of the same definition live here:
//!
//! * [`accumulate_delta`] — the reference *gather* kernel: full `N−1`
//!   product per `(entry, core-entry)` pair from the entry's COO
//!   multi-index. Test-gated: it survives as the equivalence baseline the
//!   streamed kernels must reproduce (the bench crate hand-rolls the same
//!   walk through public APIs for its gather-vs-stream comparison).
//! * [`accumulate_delta_lex`] — the *prefix-reused scalar* kernel of the
//!   first mode-major plan: a stack of prefix products
//!   `prefix[d] = Π_{k<d, k≠n} a⁽ᵏ⁾(iₖ, βₖ)` recomputing only the suffix
//!   that changed between lexicographically adjacent core entries.
//!   Test-gated: it is the scalar baseline the blocked kernel must
//!   reproduce (and the bench crate hand-rolls it for its
//!   scalar-vs-blocked comparison).
//! * [`accumulate_delta_blocked`] — the **run-blocked micro-kernel**.
//!   `CoreTensor`'s lexicographic invariant means the core entry list
//!   decomposes into maximal *runs* sharing their first `N−1` coordinates
//!   (for a dense core: runs of length `J_N`, one per `(β₁…β_{N−1})`
//!   prefix; [`core_runs`] finds the boundaries). The kernel computes **one
//!   shared prefix product per run** (still prefix-reused across run heads)
//!   and processes the run's tail as a single contiguous pass over the
//!   packed `core_vals` slice:
//!
//!   * update mode = tail coordinate: `δ[β_N..] += w · g[β_N..]` — an
//!     [`axpy`](ptucker_linalg::kernels::axpy) into the δ vector;
//!   * otherwise: `δ[β_n] += w · Σ_{β_N} g[β_N]·a⁽ᴺ⁾(i_N, β_N)` — a
//!     [`dot`](ptucker_linalg::kernels::dot) of the run's values against
//!     the pinned tail factor row.
//!
//!   Both primitives are the chunked micro-kernels from
//!   `ptucker_linalg::kernels`; runs whose tail coordinates are
//!   non-contiguous (truncated cores) take an indexed variant of the same
//!   loop. Test-gated since the memoized kernel below replaced it: it is
//!   the per-entry baseline [`delta_for_entry`] and [`RunPlan::reconstruct`]
//!   must reproduce **bitwise**.
//! * [`delta_for_block`] / [`RunPlan::reconstruct_block`] — what the
//!   engine, the residual pass and the serving path run on: **the lane
//!   walk** — the run-blocked kernel over a [`RunPlan`], advancing `E`
//!   entries together through one walk of the core's groups and runs, with
//!   the **tail contraction memoized** (in a fit; a `Predictor`'s plan
//!   carries the metadata only). [`delta_for_entry`] and
//!   [`RunPlan::reconstruct`] — a served query, an entry a row leaves over
//!   after its full blocks — are its `E = 1` instantiation, not a second
//!   kernel.
//!
//!   *What is hoisted.* Everything about a run that does not depend on the
//!   observed entry — its bounds, head coordinates, first tail coordinate
//!   and contiguity, and which runs share an `N−2`-coordinate parent — is
//!   computed once per core into the [`RunPlan`], not per entry.
//!
//!   *What is memoized.* The run's tail dot
//!   `Σ_{β_N} g[r, β_N]·a⁽ᴺ⁾(i_N, β_N)` depends on the observed entry
//!   **only through its tail index `i_N`**, so
//!   [`RunPlan::memoize_tail`] evaluates it once per (tail-factor row,
//!   run) into a table `T[i_N][r]` — `I_N × n_runs` doubles, the paper's
//!   Cache idea at `O(I_N·|G|/J_N)` memory instead of `O(|Ω|·|G|)` — and
//!   every entry of every mode `n ≠ N−1` then does
//!   `δ[βₙ] += w_r · T[i_N][r]`: `|G|/J_N` multiply-adds per entry instead
//!   of `|G|`. The reconstruction does `x̂ += w_r · T[i_N][r]` likewise.
//!
//!   *Why it is bitwise.* The table is filled by the one function the
//!   unmemoized lookup calls per entry (`RunPlan::tail_dot` — the same
//!   `dot` over the same slices, the same indexed loop for truncated runs),
//!   and the kernel multiplies the same `w_r` into it and adds into the
//!   same accumulator in the same run order with the same `w == 0` skip.
//!   A loop-invariant moved out of a loop: no floating-point operation
//!   changes. Without a table (the caller decides —
//!   see `als`'s budget rule) the lookup *is* that per-entry `dot`.
//!
//!   *Why mode `N−1` is not.* Its δ never touches the tail factor — that
//!   is the factor being updated. The run tail is the `axpy`
//!   `δ[β_N] += w_r·g[r, β_N]`: core values scaled by the entry-dependent
//!   `w_r` and summed over runs, per δ slot. No entry-independent
//!   contraction is left to look up, and anything precomputed across runs
//!   would have to be summed before `w_r` multiplies in — a reassociation,
//!   not a hoist. The tail mode rides the hoisted run metadata only.
//!
//!   *What is interleaved.* With the tail dots looked up, a δ is one
//!   multiply-add per run — a dependent chain per entry, its length the
//!   run count. The entries of a row are independent of each other, so
//!   [`LANES`] of them advance through the walk together
//!   (`RunPlan::for_each_group`): the group and run metadata is read once
//!   per block, each lane keeps its own prefix-product stack and
//!   accumulators, and the lanes' chains overlap in the pipeline. The
//!   accumulators are locals, not δ slots in memory: a parent-coordinate
//!   mode sums a group's runs into one value per lane and stores the slot
//!   once per group; the reconstruction is one value per lane; mode `N−1`
//!   keeps each lane's whole δ — `J_N` doubles — in a compile-time-sized
//!   tile for the length of the walk (`RunPlan::tail_tile`), on a dense
//!   core and on a truncated one alike. Only mode `N−2`, whose slot
//!   changes with every run, and mode `N−1` past the tile's widest
//!   instantiation add into the lane's δ in memory.
//!
//!   *Why each lane is bitwise the single-entry kernel.* Nothing is shared
//!   between lanes but the integers that say which run comes next. Lane
//!   `e` multiplies its own factor entries into its own prefix stack in
//!   the depth order the `E = 1` walk uses, forms the same `w`, looks up
//!   or computes the same tail dot, and adds the product into its own
//!   accumulator in run order — the same operations on the same operands
//!   in the same order, and `E = 1` *is* this function. Holding a slot's
//!   running sum in a local instead of in `δ[slot]` between two adds does
//!   not touch a bit. The `w == 0` skip is per lane; where the add is
//!   unconditional (so that lanes pair up into vector operations) a
//!   skipped run adds `-0.0`, which leaves every `f64` bit for bit as it
//!   was (`term`).
//!
//!   *Why the tile is `axpy`, element by element.* The through-memory
//!   tail calls [`axpy`](ptucker_linalg::kernels::axpy)`(w, g[r, ·], δ)`
//!   per run, which is `δ[k] += w·g[k]` — multiply, round, add, round —
//!   for each `k`, and
//!   the tile does exactly that to `acc[k]`
//!   ([`axpy_tile`](ptucker_linalg::kernels::axpy_tile)) in the same run
//!   order, storing `acc` to `δ` once at the end. A walk carries one or
//!   two lanes' tiles (`TILE_DOUBLES`: what the vector registers hold), so
//!   a block is two walks at the paper's ranks.
//!
//!   *Why a truncated core's tile is bitwise too.* Truncation leaves ragged
//!   runs, which the through-memory tail adds with `axpy` over their
//!   contiguous stretch or an indexed loop — `δ[k] += w·g[k]` for exactly
//!   the tail coordinates `k` the run holds. The [`RunPlan`] keeps each run
//!   padded to `J_N` (its values at those coordinates, zeros elsewhere),
//!   and the tile adds whole padded rows: `w·0 = ±0` at the holes, which
//!   leaves the sum's bits alone — the tile starts at `+0.0`, and a sum
//!   that starts there is never `-0.0` (round-to-nearest rounds an exact
//!   cancellation to `+0`; only `-0 + -0` is `-0`). That holds for a
//!   finite `w` only: `±∞·0` and `NaN·0` are NaN, and a NaN added at a
//!   hole stays in that tile element to the end of the walk. So a walk
//!   whose tile ends without a NaN met no such `w` at a hole, and one that
//!   ends with one is redone through memory — the path it must equal. Zero
//!   padding without that fallback would not be bitwise.

use ptucker_linalg::kernels::{axpy, axpy_tile, dot, syr_in_place};
use ptucker_linalg::Matrix;
use ptucker_sched::{parallel_rows_mut, Schedule};
use ptucker_tensor::CoreTensor;

/// `E`: how many entries of a row the Direct sweep and the residual pass
/// advance together through one walk of the core's runs. Picked by
/// measurement on the `direct_mode_cycle` bench series (README has the
/// table); not an option — every lane is bitwise the `E = 1` kernel, so
/// the value moves time and nothing else.
pub const LANES: usize = 4;

/// Widest tail rank `J_N` whose mode-`N−1` δ is accumulated in a
/// compile-time-sized tile (wider cores take the through-memory tail) —
/// the Direct kernel's multiply-add tile here and the Cache kernel's divide
/// tile (`crate::cache`) alike.
pub(crate) const MAX_TILE: usize = 16;

/// How many doubles of δ tile one walk keeps in locals: two lanes' tiles
/// up to `J_N = 10` — what sixteen two-wide vector registers hold next to
/// the operands — and one lane's beyond.
pub(crate) const TILE_DOUBLES: usize = 20;

/// One entry's pinned factor rows, indexed by mode.
type Rows<'a> = [&'a [f64]; MAX_PREFIX_ORDER];

/// Deepest core order served by the stack-allocated prefix buffers of
/// [`accumulate_delta_blocked`] (and the test-gated
/// [`accumulate_delta_lex`]); higher orders take a (correct,
/// allocation-free) per-entry recompute path. The paper's experiments top
/// out at `N = 10`.
pub(crate) const MAX_PREFIX_ORDER: usize = 16;

/// Finds the maximal runs of consecutive core entries sharing their first
/// `N−1` coordinates — the blocking structure of
/// [`accumulate_delta_blocked`]. Returns run boundaries in offset form:
/// run `r` spans entries `runs[r]..runs[r+1]`.
///
/// The run structure depends only on the core (not on the mode being
/// updated or the observed entry), so it is computed once per core — by
/// [`RunPlan::new`], which every sweep, window and residual pass of the
/// fit then borrows — `O(N·|G|)` comparisons, nothing in the row loop.
///
/// For a dense lexicographic core the runs have length `J_N` exactly; for
/// an order-1 core (no prefix coordinates) the whole entry list is one run.
pub(crate) fn core_runs(core_idx: &[usize], order: usize) -> Vec<u32> {
    let g = core_idx.len() / order.max(1);
    let mut runs = Vec::with_capacity(g / 2 + 2);
    runs.push(0u32);
    if g == 0 {
        return runs;
    }
    let head_len = order - 1;
    let mut prev = &core_idx[..head_len];
    for b in 1..g {
        let head = &core_idx[b * order..b * order + head_len];
        if head != prev {
            runs.push(b as u32);
            prev = head;
        }
    }
    runs.push(g as u32);
    runs
}

/// Everything about a core's runs that does **not** depend on the observed
/// entry, computed once per core and borrowed by every kernel call: the run
/// bounds (a run is a maximal sequence of lexicographic core entries
/// sharing their first `N−1` coordinates), each run's first tail coordinate
/// and contiguity, and the grouping of runs under their shared
/// `N−2`-coordinate *parent* (for a dense core: groups of `J_{N−1}` runs).
///
/// Optionally also the **tail-dot table** ([`RunPlan::memoize_tail`]):
/// `T[i][r] = Σ_{β_N} g[r, β_N]·a⁽ᴺ⁾(i, β_N)`, the contraction of run `r`'s
/// core values with row `i` of the last factor — `I_N × n_runs` doubles.
/// An observed entry reaches it only through its last index, so the δ of
/// every mode but the last, and the reconstruction, look it up instead of
/// recomputing it per entry: `|G|/J_N` multiply-adds instead of `|G|`, the
/// same operands in the same order — **bitwise** the unmemoized result
/// (the source's `delta` module docs carry the argument).
///
/// The metadata is derived from the core's *index* structure, the table
/// from its *values* and the tail factor: whoever owns the plan rebuilds it
/// when the core is truncated and re-memoizes when the core or
/// `factors[N−1]` changes (the fit driver after mode `N−1`'s update, after
/// a truncation, after a resume and after the final QR; a
/// `Predictor` keeps the metadata only and never memoizes).
#[derive(Debug, Clone)]
pub struct RunPlan {
    order: usize,
    /// Run `r` spans core entries `offsets[r]..offsets[r+1]`.
    offsets: Vec<u32>,
    /// Per run: its first (smallest) tail coordinate.
    t0: Vec<u32>,
    /// Per run: its tail coordinates are exactly `t0..t0+len` (always, on a
    /// dense core; truncation can leave gaps).
    contiguous: Vec<bool>,
    /// Per run: its `(N−1)`-th coordinate — the one head coordinate that
    /// varies inside a group (all zero at order 1, which has no head).
    inner: Vec<u32>,
    /// Group `g` spans runs `groups[g]..groups[g+1]`: a maximal sequence of
    /// consecutive runs sharing their first `N−2` coordinates.
    groups: Vec<u32>,
    /// Per group: those `N−2` parent coordinates, flat.
    parents: Vec<u32>,
    /// Per group: how many leading parent coordinates equal the previous
    /// group's (0 for the first) — the prefix products still valid.
    shared: Vec<u32>,
    /// Every run's tail coordinates are exactly `0..J_N` (a dense core):
    /// run `r` is the `r`-th `J_N`-chunk of the core values, which is what
    /// the mode-`N−1` tile reads.
    full_tails: bool,
    /// On a truncated core (`!full_tails`) with `J_N ≤` [`MAX_TILE`], what
    /// the mode-`N−1` tile reads instead of the ragged runs: each run's
    /// values padded to `J_N` — at their tail coordinates, zero elsewhere —
    /// `n_runs × J_N`. Empty otherwise (a dense core's runs already are
    /// the `J_N`-chunks of its values).
    tile_vals: Vec<f64>,
    /// `T[i_N][r]`, row-major `I_N × n_runs`; empty = not memoized.
    tail_dots: Vec<f64>,
}

impl RunPlan {
    /// Derives the run metadata of `core` — `O(N·|G|)`, once per core.
    pub fn new(core: &CoreTensor) -> Self {
        debug_assert!(
            core.is_lexicographic(),
            "CoreTensor's lex invariant feeds the run-blocked kernel"
        );
        let order = core.order();
        let core_idx = core.flat_indices();
        let offsets = core_runs(core_idx, order);
        let n_runs = offsets.len() - 1;
        let last = order.saturating_sub(1);
        let np = order.saturating_sub(2);
        let mut plan = RunPlan {
            order,
            t0: Vec::with_capacity(n_runs),
            contiguous: Vec::with_capacity(n_runs),
            inner: Vec::with_capacity(n_runs),
            groups: Vec::new(),
            parents: Vec::new(),
            shared: Vec::new(),
            full_tails: true,
            tile_vals: Vec::new(),
            tail_dots: Vec::new(),
            offsets,
        };
        let tail_rank = core.dims().last().copied().unwrap_or(0);
        let mut prev: &[usize] = &[];
        for r in 0..n_runs {
            let (base, end) = plan.run(r);
            let head = &core_idx[base * order..base * order + last];
            let t0 = core_idx[base * order + last];
            // Strictly ascending tail coordinates are contiguous iff the
            // endpoints span exactly `len` values (dense cores always do).
            let contiguous = core_idx[(end - 1) * order + last] - t0 + 1 == end - base;
            plan.full_tails &= contiguous && t0 == 0 && end - base == tail_rank;
            plan.contiguous.push(contiguous);
            plan.t0.push(t0 as u32);
            plan.inner
                .push(if order >= 2 { head[np] as u32 } else { 0 });
            let parent = &head[..np];
            if r == 0 || parent != prev {
                plan.groups.push(r as u32);
                let shared = parent.iter().zip(prev).take_while(|(a, b)| a == b).count();
                plan.shared.push(shared as u32);
                plan.parents.extend(parent.iter().map(|&c| c as u32));
                prev = parent;
            }
        }
        plan.groups.push(n_runs as u32);
        if !plan.full_tails && tail_rank <= MAX_TILE {
            plan.tile_vals = vec![0.0; n_runs * tail_rank];
            for r in 0..n_runs {
                let (base, end) = plan.run(r);
                for (b, &g) in (base..end).zip(&core.values()[base..end]) {
                    plan.tile_vals[r * tail_rank + core_idx[b * order + last]] = g;
                }
            }
        }
        plan
    }

    /// Number of runs (for a dense core: `|G| / J_N`).
    pub fn n_runs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Run `r`'s first tail coordinate and whether its tail coordinates are
    /// exactly `t0..t0+len` — what the cached δ's mode-`N−1` divide needs
    /// per run, derived once per core instead of per run per entry.
    #[inline]
    pub(crate) fn tail(&self, r: usize) -> (usize, bool) {
        (self.t0[r] as usize, self.contiguous[r])
    }

    /// Whether every run's tail coordinates are exactly `0..J_N` (a dense
    /// core): run `r` of any `|G|`-long row is then its `r`-th `J_N`-chunk.
    #[inline]
    pub(crate) fn full_tails(&self) -> bool {
        self.full_tails
    }

    /// Whether [`RunPlan::memoize_tail`] has filled the tail-dot table.
    pub fn is_memoized(&self) -> bool {
        !self.tail_dots.is_empty()
    }

    /// Fills the tail-dot table `T[i][r]` for every row `i` of
    /// `tail_factor` (`factors[N−1]`) and every run `r`, in parallel over
    /// the rows, through the very function an unmemoized lookup calls per
    /// entry (`tail_dot`). Call
    /// again whenever `core`'s values or `tail_factor` change; `core` must
    /// be the core this plan was built from.
    pub fn memoize_tail(&mut self, core: &CoreTensor, tail_factor: &Matrix, threads: usize) {
        let n_runs = self.n_runs();
        debug_assert_eq!(
            core.nnz(),
            self.offsets[n_runs] as usize,
            "not this plan's core"
        );
        if n_runs == 0 || tail_factor.rows() == 0 {
            return;
        }
        let mut table = std::mem::take(&mut self.tail_dots);
        table.resize(tail_factor.rows() * n_runs, 0.0);
        let (core_idx, core_vals) = (core.flat_indices(), core.values());
        let plan = &*self;
        parallel_rows_mut(&mut table, n_runs, threads, Schedule::Static, |i, out| {
            let tail_row = tail_factor.row(i);
            for (r, slot) in out.iter_mut().enumerate() {
                *slot = plan.tail_dot(r, core_idx, core_vals, tail_row);
            }
        });
        self.tail_dots = table;
    }

    /// Reconstructs one cell `x̂_α = Σ_β G_β Πₖ a⁽ᵏ⁾(iₖ, βₖ)` of the model
    /// `(core, factors)` with the run-blocked kernel: one shared head
    /// product per run (all `N` factor rows pinned — no mode is skipped),
    /// times the run's tail dot, looked up when memoized — the same bits
    /// either way (bitwise the test-gated `reconstruct_entry_blocked`). A
    /// served point query; the `E = 1` instantiation of
    /// [`RunPlan::reconstruct_block`]. `core` must be the core this plan
    /// was built from.
    #[inline]
    pub fn reconstruct(&self, index: &[usize], core: &CoreTensor, factors: &[Matrix]) -> f64 {
        self.reconstruct_block([index], core, factors)[0]
    }

    /// Reconstructs `E` cells in one walk of the core's groups and runs:
    /// lane `e` of the result is **bitwise** `reconstruct(index[e], …)`
    /// (the lanes share the run metadata and nothing else; each keeps its
    /// own prefix products, `w == 0` skips and accumulator, in run order).
    /// The inner loop of the residual `Σ (X_α − x̂_α)²`.
    ///
    /// Reads only the entries' COO multi-indices and the model, so the
    /// residual pass needs neither the execution plan nor any window —
    /// spilled fits compute it without touching their scratch files.
    #[inline]
    pub fn reconstruct_block<const E: usize>(
        &self,
        index: [&[usize]; E],
        core: &CoreTensor,
        factors: &[Matrix],
    ) -> [f64; E] {
        let (core_idx, core_vals) = (core.flat_indices(), core.values());
        let order = factors.len();
        if order > MAX_PREFIX_ORDER {
            return index.map(|idx| reconstruct_entry_scalar(idx, core_idx, core_vals, factors));
        }
        let last = order - 1;
        let rows = index.map(|idx| {
            let mut rows: Rows<'_> = [&[]; MAX_PREFIX_ORDER];
            for (k, factor) in factors[..last].iter().enumerate() {
                rows[k] = factor.row(idx[k]);
            }
            rows
        });
        // The lanes' run tail dots: their rows of the memoized table, or —
        // the very function that fills the table — a `dot` per run against
        // their tail factor rows.
        let tail_index = index.map(|idx| idx[last]);
        if self.is_memoized() {
            let dots = tail_index.map(|i| self.memo_row(i));
            self.reconstruct_lanes(&rows, |e, r| dots[e][r])
        } else {
            let tail_rows = tail_index.map(|i| factors[last].row(i));
            self.reconstruct_lanes(&rows, |e, r| {
                self.tail_dot(r, core_idx, core_vals, tail_rows[e])
            })
        }
    }

    /// [`RunPlan::reconstruct_block`] over pinned rows, `tail_dot(e, r)`
    /// being lane `e`'s tail dot of run `r`.
    #[inline(always)]
    fn reconstruct_lanes<const E: usize>(
        &self,
        rows: &[Rows<'_>; E],
        tail_dot: impl Fn(usize, usize) -> f64,
    ) -> [f64; E] {
        let mut rec = [0.0; E];
        self.for_each_group(rows, usize::MAX, |_, runs, weights| {
            for r in runs {
                let w = weights.of(r);
                for e in 0..E {
                    rec[e] += term(w[e], tail_dot(e, r));
                }
            }
        });
        rec
    }

    /// Reconstructs `E` entries of one slice `i` of mode `N−1`'s stream —
    /// `others[e]` is lane `e`'s packed head indices, as that stream stores
    /// them — in one walk of the core's groups and runs, and leaves each
    /// lane's head product `p = Π_{k<N−1} a⁽ᵏ⁾(iₖ, βₖ)` of run `r` in
    /// `heads[r][e]`: the one walk of `crate::approx`'s `R(β)` pass. The
    /// lanes share the slice, so one tail dot per run serves them all — its
    /// row of the memoized table, or the `dot` that fills it; up to order
    /// [`MAX_PREFIX_ORDER`] lane `e`'s `x̂` is then **bitwise**
    /// [`RunPlan::reconstruct`] of its entry (the same `w`, tail dot and
    /// `term` in run order).
    ///
    /// # Panics
    /// Panics if `heads` holds fewer than `n_runs` rows.
    #[inline]
    pub(crate) fn reconstruct_with_heads<const E: usize>(
        &self,
        others: [&[u32]; E],
        i: usize,
        core: &CoreTensor,
        factors: &[Matrix],
        heads: &mut [[f64; E]],
    ) -> [f64; E] {
        let (core_idx, core_vals) = (core.flat_indices(), core.values());
        let order = factors.len();
        let last = order - 1;
        let tail_row = factors[last].row(i);
        let heads = &mut heads[..self.n_runs()];
        let memo = self.is_memoized().then(|| self.memo_row(i));
        let tail_dot = |r: usize| match memo {
            Some(dots) => dots[r],
            None => self.tail_dot(r, core_idx, core_vals, tail_row),
        };
        let mut rec = [0.0; E];
        if order > MAX_PREFIX_ORDER {
            // Past the prefix stack: each run's head product from scratch.
            for (r, slot) in heads.iter_mut().enumerate() {
                let head = &core_idx[self.run(r).0 * order..][..last];
                let t = tail_dot(r);
                for e in 0..E {
                    slot[e] = head
                        .iter()
                        .enumerate()
                        .fold(1.0, |w, (k, &b)| w * factors[k][(others[e][k] as usize, b)]);
                    rec[e] += term(slot[e], t);
                }
            }
            return rec;
        }
        let rows = others.map(|o| pin_other_rows(o, last, factors));
        self.for_each_group(&rows, usize::MAX, |_, runs, weights| {
            for r in runs {
                let w = weights.of(r);
                let t = tail_dot(r);
                for e in 0..E {
                    rec[e] += term(w[e], t);
                }
                heads[r] = w;
            }
        });
        rec
    }

    /// The core entries `base..end` of run `r`.
    #[inline]
    pub(crate) fn run(&self, r: usize) -> (usize, usize) {
        (self.offsets[r] as usize, self.offsets[r + 1] as usize)
    }

    /// Run `r`'s tail contraction `Σ_{β_N} g[r, β_N]·a⁽ᴺ⁾(i_N, β_N)`
    /// against one tail factor row: a contiguous [`dot`] over the packed
    /// core values, or the indexed loop for a truncated run. The **only**
    /// place the tail dot is computed — the table filler and the
    /// unmemoized lookup both come through here.
    #[inline(always)]
    fn tail_dot(&self, r: usize, core_idx: &[usize], core_vals: &[f64], tail_row: &[f64]) -> f64 {
        let (base, end) = self.run(r);
        let vals = &core_vals[base..end];
        let t0 = self.t0[r] as usize;
        if self.contiguous[r] {
            dot(vals, &tail_row[t0..t0 + vals.len()])
        } else {
            let last = self.order - 1;
            let mut acc = 0.0;
            for (t, &g) in vals.iter().enumerate() {
                acc += g * tail_row[core_idx[(base + t) * self.order + last]];
            }
            acc
        }
    }

    /// Row `i` of the memoized tail-dot table: `T[i][·]`, one dot per run
    /// (`n_runs` long to the optimizer too: one bounds check per run then
    /// serves every lane's row).
    #[inline]
    fn memo_row(&self, i: usize) -> &[f64] {
        let n = self.n_runs();
        &self.tail_dots[i * n..][..n]
    }

    /// **The lane walk**: advances `E` entries together through the core's
    /// groups, calling `on_group(g, runs, weights)` once per group `g` in
    /// order, with the group's run range and the lanes' head products:
    /// `weights.of(r)[e]` is lane `e`'s
    /// `w = Π_{k<N−1, k≠skip} a⁽ᵏ⁾(iₖ, βₖ)` for run `r` of this group. The
    /// product over the group's `N−2` parent coordinates is prefix-reused
    /// across groups sharing leading ones and formed once per group and
    /// lane; each run multiplies in its one own coordinate. `rows[e][k]` is
    /// lane `e`'s pinned factor row of mode `k` (`rows[e][skip]` is never
    /// read: that mode's factor contributes `1.0`, as does order 1's
    /// missing head). The caller skips a lane's run when its `w` is zero.
    ///
    /// The group and run metadata is read once per block; every floating-
    /// point operation is per lane, on that lane's operands, in the order
    /// the single-entry walk (`E = 1`, this very function) performs them.
    #[inline(always)]
    fn for_each_group<const E: usize>(
        &self,
        rows: &[Rows<'_>; E],
        skip: usize,
        mut on_group: impl FnMut(usize, std::ops::Range<usize>, RunWeights<'_, E>),
    ) {
        let np = self.order.saturating_sub(2);
        // The lanes' rows re-sliced to one shared length (and the run
        // coordinates to the table rows' `n_runs`), so one bounds check per
        // run serves every lane.
        let own = (self.order >= 2 && skip != np).then(|| {
            let len = rows[0][np].len();
            rows.map(|lane| &lane[np][..len])
        });
        let coord = &self.inner[..self.n_runs()];
        let mut prefix = [[1.0f64; E]; MAX_PREFIX_ORDER];
        for g in 0..self.shared.len() {
            let parent = &self.parents[g * np..(g + 1) * np];
            for d in self.shared[g] as usize..np {
                for e in 0..E {
                    let a = if d == skip {
                        1.0
                    } else {
                        rows[e][d][parent[d] as usize]
                    };
                    prefix[d + 1][e] = prefix[d][e] * a;
                }
            }
            on_group(
                g,
                self.groups[g] as usize..self.groups[g + 1] as usize,
                RunWeights {
                    parent: prefix[np],
                    own: own.as_ref(),
                    coord,
                },
            );
        }
    }

    /// δ of mode `N−1` for `E` entries into `lanes` (`E × J_N`, zeroed):
    /// `δ[β_N] += w · g[r, β_N]` per run. Up to [`MAX_TILE`], the lanes'
    /// δ stay in a `J_N`-wide tile of locals for the whole walk
    /// ([`RunPlan::tail_tile`]) — a dense core's runs read straight from
    /// its values, a truncated core's from their padded rows. A tail rank
    /// past [`MAX_TILE`] adds each run into the lane's δ in memory
    /// ([`RunPlan::tail_scatter`]).
    #[inline]
    fn tail_mode<const E: usize>(
        &self,
        lanes: &mut [f64],
        rows: &[Rows<'_>; E],
        core_idx: &[usize],
        core_vals: &[f64],
    ) {
        let j = lanes.len() / E;
        let cells = self.n_runs() * j;
        let dense = self.full_tails && core_vals.len() == cells;
        if dense || self.tile_vals.len() == cells {
            let padded = if dense { core_vals } else { &self.tile_vals };
            macro_rules! tile {
                ($($w:literal)*) => {
                    match j {
                        $($w => {
                            let (vals, _) = padded.as_chunks::<$w>();
                            let n = if 2 * $w <= TILE_DOUBLES { 2 } else { 1 };
                            for (lanes, rows) in lanes.chunks_mut(n * $w).zip(rows.chunks(n)) {
                                match rows {
                                    [a, b] => self.tail_tile::<2, $w>(
                                        lanes, &[*a, *b], vals, !dense, core_idx, core_vals,
                                    ),
                                    [a] => self.tail_tile::<1, $w>(
                                        lanes, &[*a], vals, !dense, core_idx, core_vals,
                                    ),
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
        self.tail_scatter(lanes, rows, core_idx, core_vals);
    }

    /// Mode `N−1`'s δ through memory: each run added into each lane's δ
    /// (`E × J_N`, zeroed) — [`axpy`] for a contiguous run, the indexed
    /// loop for a ragged one.
    fn tail_scatter<const E: usize>(
        &self,
        lanes: &mut [f64],
        rows: &[Rows<'_>; E],
        core_idx: &[usize],
        core_vals: &[f64],
    ) {
        let j = lanes.len() / E;
        let last = self.order - 1;
        self.for_each_group(rows, last, |_, runs, weights| {
            for r in runs {
                let w = weights.of(r);
                let (base, end) = self.run(r);
                let vals = &core_vals[base..end];
                let t0 = self.t0[r] as usize;
                for (e, delta) in lanes.chunks_exact_mut(j).enumerate() {
                    if w[e] == 0.0 {
                        continue;
                    }
                    if self.contiguous[r] {
                        axpy(w[e], vals, &mut delta[t0..t0 + vals.len()]);
                    } else {
                        for (t, &g) in vals.iter().enumerate() {
                            delta[core_idx[(base + t) * self.order + last]] += w[e] * g;
                        }
                    }
                }
            }
        });
    }

    /// [`RunPlan::tail_mode`] at tail rank `W`: the lanes' δ
    /// live in an `E × W` tile of locals — registers, for the ranks the
    /// paper runs — through the whole walk and are stored once at the end.
    /// Run `r` is `vals[r]`, added whole: `acc[k] += w · g[k]`, multiply
    /// then add, element by element — exactly the [`axpy`] the
    /// through-memory tail calls, on the same operands in the same run
    /// order, so the same bits.
    ///
    /// `padded`: `vals[r]` is a truncated run padded with zeros at the tail
    /// coordinates it lacks, where the through-memory tail adds nothing. A
    /// finite `w` adds `w·0 = ±0` there, which leaves the sum's bits alone:
    /// it started at `+0.0`, and such a sum is never `-0.0` (an exact
    /// cancellation rounds to `+0`). A `w` of ±∞ or NaN adds NaN, which
    /// stays in its tile element; so a padded walk whose tile ends with a
    /// NaN is redone through memory ([`RunPlan::tail_scatter`]) — a false
    /// alarm, a sum that is NaN anyway, costs only that.
    #[inline]
    fn tail_tile<const E: usize, const W: usize>(
        &self,
        lanes: &mut [f64],
        rows: &[Rows<'_>; E],
        vals: &[[f64; W]],
        padded: bool,
        core_idx: &[usize],
        core_vals: &[f64],
    ) {
        debug_assert!(W <= MAX_TILE && lanes.len() == E * W);
        let mut acc = [[0.0f64; W]; E];
        self.for_each_group(rows, self.order - 1, |_, runs, weights| {
            for r in runs {
                let w = weights.of(r);
                for e in 0..E {
                    if w[e] != 0.0 {
                        axpy_tile(w[e], &vals[r], &mut acc[e]);
                    }
                }
            }
        });
        if padded && acc.iter().flatten().any(|v| v.is_nan()) {
            return self.tail_scatter(lanes, rows, core_idx, core_vals);
        }
        for (delta, acc) in lanes.chunks_exact_mut(W).zip(&acc) {
            delta.copy_from_slice(acc);
        }
    }
}

/// What a run adds to a lane's accumulator: `w · t`, or — where the
/// single-entry kernel *skips* the run because `w == 0` — `-0.0`, the one
/// value whose addition leaves every `f64` (both zeros, infinities, NaN)
/// bit for bit as it was. The skip without a branch per lane and run: with
/// the add unconditional the lanes' multiply-adds pair up into two-wide
/// vector operations.
#[inline(always)]
fn term(w: f64, t: f64) -> f64 {
    let product = w * t;
    if w != 0.0 {
        product
    } else {
        -0.0
    }
}

/// One group's head products for the `E` lanes of a walk
/// ([`RunPlan::for_each_group`]): the product over the group's parent
/// coordinates per lane, and what each run multiplies into it.
struct RunWeights<'a, const E: usize> {
    /// Per lane: the prefix product over the group's `N−2` parent
    /// coordinates.
    parent: [f64; E],
    /// Per lane: the pinned factor row of mode `N−2`, the run's own
    /// coordinate — `None` when that mode is skipped or absent (`1.0`).
    own: Option<&'a [&'a [f64]; E]>,
    /// Per run: its `(N−1)`-th coordinate.
    coord: &'a [u32],
}

impl<const E: usize> RunWeights<'_, E> {
    /// The lanes' head products `w` for run `r` of this group.
    #[inline(always)]
    fn of(&self, r: usize) -> [f64; E] {
        let c = self.coord[r] as usize;
        std::array::from_fn(|e| self.parent[e] * self.own.map_or(1.0, |rows| rows[e][c]))
    }
}

/// The residual pass's block body: `Σ (x − x̂)²` over the entries pushed,
/// **in push order**, with `E` reconstructions per walk of the core
/// ([`RunPlan::reconstruct_block`]). Up to `E` entries wait in a pending
/// buffer; a full buffer is reconstructed in one walk and its squares added
/// first to last, and [`ResidualLanes::finish`] reconstructs what is left
/// one entry at a time — so the sum is bitwise the per-entry fold's at
/// every `E`. One multi-index buffer per accumulator, nothing per entry.
#[derive(Debug)]
pub struct ResidualLanes<'a, const E: usize> {
    runs: &'a RunPlan,
    core: &'a CoreTensor,
    factors: &'a [Matrix],
    /// The pending entries' multi-indices, `E × N` flat.
    index: Vec<usize>,
    /// The pending entries' observed values.
    x: [f64; E],
    pending: usize,
    sse: f64,
}

impl<'a, const E: usize> ResidualLanes<'a, E> {
    /// An empty accumulator over the model `(core, factors)`; `runs` must
    /// be the [`RunPlan`] of `core`.
    pub fn new(runs: &'a RunPlan, core: &'a CoreTensor, factors: &'a [Matrix]) -> Self {
        ResidualLanes {
            runs,
            core,
            factors,
            index: vec![0; E * factors.len()],
            x: [0.0; E],
            pending: 0,
            sse: 0.0,
        }
    }

    /// Adds the observed entry `(index, x)`.
    #[inline]
    pub fn push(&mut self, index: &[usize], x: f64) {
        let n = self.factors.len();
        self.index[self.pending * n..(self.pending + 1) * n].copy_from_slice(index);
        self.x[self.pending] = x;
        self.pending += 1;
        if self.pending == E {
            self.pending = 0;
            let block = std::array::from_fn(|e| &self.index[e * n..(e + 1) * n]);
            let rec = self
                .runs
                .reconstruct_block::<E>(block, self.core, self.factors);
            for e in 0..E {
                let d = self.x[e] - rec[e];
                self.sse += d * d;
            }
        }
    }

    /// The sum of squared residuals of everything pushed.
    pub fn finish(mut self) -> f64 {
        let n = self.factors.len();
        for e in 0..self.pending {
            let index = &self.index[e * n..(e + 1) * n];
            let d = self.x[e] - self.runs.reconstruct(index, self.core, self.factors);
            self.sse += d * d;
        }
        self.sse
    }
}

/// Pins the factor rows of one streamed entry: `a⁽ᵏ⁾(iₖ, ·)` for every
/// `k ≠ mode`, from its packed other-mode indices.
#[inline]
fn pin_other_rows<'a>(
    others: &[u32],
    mode: usize,
    factors: &'a [Matrix],
) -> [&'a [f64]; MAX_PREFIX_ORDER] {
    let mut rows: [&[f64]; MAX_PREFIX_ORDER] = [&[]; MAX_PREFIX_ORDER];
    let mut slot = 0;
    for (k, factor) in factors.iter().enumerate() {
        if k == mode {
            continue;
        }
        rows[k] = factor.row(others[slot] as usize);
        slot += 1;
    }
    rows
}

/// Accumulates δ for one streamed entry into `delta` (cleared first) with
/// the run-blocked kernel over a [`RunPlan`] — what every served δ runs on,
/// and the `E = 1` instantiation of [`delta_for_block`]. Bitwise
/// [`accumulate_delta_blocked`], whether or not the plan carries a
/// tail-dot table (module docs).
#[inline]
pub(crate) fn delta_for_entry(
    delta: &mut [f64],
    others: &[u32],
    mode: usize,
    core_idx: &[usize],
    core_vals: &[f64],
    runs: &RunPlan,
    factors: &[Matrix],
) {
    delta_for_block([others], delta, mode, core_idx, core_vals, runs, factors);
}

/// Accumulates δ for `E` streamed entries into `lanes` (`E × J_mode`,
/// lane-major, cleared first) in **one walk** of the core's groups and
/// runs — what every Direct/Approx row update runs on. Lane `e` is
/// **bitwise** [`delta_for_entry`] on `others[e]` (module docs).
///
/// `others[e]` holds lane `e`'s packed other-mode indices (ascending mode
/// order, `mode` skipped) as produced by `ptucker_tensor::ModeStream`;
/// `runs` must be the [`RunPlan`] of this core, its table (if any)
/// memoized against the current `factors[N−1]`. `factors[mode]` is never
/// read (it is the row data being updated and may be an empty placeholder
/// during the sweep).
#[inline]
pub(crate) fn delta_for_block<const E: usize>(
    others: [&[u32]; E],
    lanes: &mut [f64],
    mode: usize,
    core_idx: &[usize],
    core_vals: &[f64],
    runs: &RunPlan,
    factors: &[Matrix],
) {
    lanes.fill(0.0);
    let j = lanes.len() / E;
    let order = factors.len();
    debug_assert!(others.iter().all(|o| o.len() == order - 1));
    if order > MAX_PREFIX_ORDER {
        for (delta, others) in lanes.chunks_exact_mut(j).zip(others) {
            accumulate_delta_deep(delta, others, mode, core_idx, core_vals, factors);
        }
        return;
    }
    let last = order - 1;
    let rows = others.map(|o| pin_other_rows(o, mode, factors));
    if mode == last {
        // δ[β_N] += w · g[β_N]: the entry-dependent `w` sits inside each
        // slot's sum over runs, so there is nothing to memoize.
        runs.tail_mode(lanes, &rows, core_idx, core_vals);
        return;
    }
    // δ[βₙ] += w · (run tail dot): looked up in the lanes' rows of the
    // table, or computed by the function that fills it.
    let tail_index = others.map(|o| o[last - 1] as usize);
    if runs.is_memoized() {
        let dots = tail_index.map(|i| runs.memo_row(i));
        head_mode(lanes, mode, &rows, runs, |e, r| dots[e][r]);
    } else {
        let tail_rows = tail_index.map(|i| factors[last].row(i));
        head_mode(lanes, mode, &rows, runs, |e, r| {
            runs.tail_dot(r, core_idx, core_vals, tail_rows[e])
        });
    }
}

/// [`delta_for_block`] for a mode other than the last, `tail_dot(e, r)`
/// being lane `e`'s tail dot of run `r`.
#[inline(always)]
fn head_mode<const E: usize>(
    lanes: &mut [f64],
    mode: usize,
    rows: &[Rows<'_>; E],
    runs: &RunPlan,
    tail_dot: impl Fn(usize, usize) -> f64,
) {
    let j = lanes.len() / E;
    let np = runs.order - 2;
    if mode == np {
        // The update mode is the run's own coordinate: one slot per run.
        runs.for_each_group(rows, mode, |_, group, weights| {
            for r in group {
                let w = weights.of(r);
                let slot = runs.inner[r] as usize;
                for e in 0..E {
                    if w[e] != 0.0 {
                        lanes[e * j + slot] += w[e] * tail_dot(e, r);
                    }
                }
            }
        });
    } else {
        // The update mode is a parent coordinate: the whole group adds into
        // one slot, in run order — summed in a local per lane and stored
        // once per group.
        runs.for_each_group(rows, mode, |g, group, weights| {
            let slot = runs.parents[g * np + mode] as usize;
            let mut acc: [f64; E] = std::array::from_fn(|e| lanes[e * j + slot]);
            for r in group {
                let w = weights.of(r);
                for e in 0..E {
                    acc[e] += term(w[e], tail_dot(e, r));
                }
            }
            for e in 0..E {
                lanes[e * j + slot] = acc[e];
            }
        });
    }
}

/// Accumulates δ for one observed entry into `delta` (cleared first) by
/// the original gather rule: one full `Π_{k≠n}` product per core entry
/// from the entry's COO multi-index.
#[cfg(test)]
#[inline]
pub(crate) fn accumulate_delta(
    delta: &mut [f64],
    entry_idx: &[usize],
    mode: usize,
    core_idx: &[usize],
    core_vals: &[f64],
    factors: &[Matrix],
) {
    delta.fill(0.0);
    let order = entry_idx.len();
    for (b, &g) in core_vals.iter().enumerate() {
        let beta = &core_idx[b * order..(b + 1) * order];
        let mut w = g;
        for (k, factor) in factors.iter().enumerate() {
            if k == mode {
                continue;
            }
            w *= factor[(entry_idx[k], beta[k])];
            if w == 0.0 {
                break;
            }
        }
        if w != 0.0 {
            delta[beta[mode]] += w;
        }
    }
}

/// Degenerate-depth fallback shared by the streamed kernels for orders
/// beyond [`MAX_PREFIX_ORDER`]: plain per-entry products (still
/// allocation-free, just without prefix reuse or run blocking).
fn accumulate_delta_deep(
    delta: &mut [f64],
    others: &[u32],
    mode: usize,
    core_idx: &[usize],
    core_vals: &[f64],
    factors: &[Matrix],
) {
    let order = factors.len();
    for (b, &g) in core_vals.iter().enumerate() {
        let beta = &core_idx[b * order..(b + 1) * order];
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
        if w != 0.0 {
            delta[beta[mode]] += w;
        }
    }
}

/// Accumulates δ for one streamed entry into `delta` (cleared first),
/// reusing prefix products across lexicographically adjacent core entries
/// — the scalar kernel the run-blocked micro-kernel replaced. Test-gated:
/// it is the equivalence baseline for [`accumulate_delta_blocked`].
///
/// `others` holds the entry's packed other-mode indices (ascending mode
/// order, `mode` skipped) as produced by `ptucker_tensor::ModeStream`.
/// The kernel is correct for *any* core-entry order (the shared prefix is
/// measured against the immediately preceding entry, whatever it is);
/// lexicographic order — which every `CoreTensor` constructor and
/// truncation path preserves — is what makes the reuse effective, because
/// adjacent entries then share all but their trailing coordinates.
///
/// `factors[mode]` is never read (it is the row data being updated and may
/// be an empty placeholder during the sweep).
#[cfg(test)]
#[inline]
pub(crate) fn accumulate_delta_lex(
    delta: &mut [f64],
    others: &[u32],
    mode: usize,
    core_idx: &[usize],
    core_vals: &[f64],
    factors: &[Matrix],
) {
    delta.fill(0.0);
    let order = factors.len();
    debug_assert_eq!(others.len(), order - 1);
    if order > MAX_PREFIX_ORDER {
        accumulate_delta_deep(delta, others, mode, core_idx, core_vals, factors);
        return;
    }
    // Pin the entry's factor rows once: a⁽ᵏ⁾(iₖ, ·) for every k ≠ n. The
    // inner loop then reads `rows[d][βd]` — one in-row load instead of a
    // strided matrix index.
    let mut rows: [&[f64]; MAX_PREFIX_ORDER] = [&[]; MAX_PREFIX_ORDER];
    let mut slot = 0;
    for (k, factor) in factors.iter().enumerate() {
        if k == mode {
            continue;
        }
        rows[k] = factor.row(others[slot] as usize);
        slot += 1;
    }
    // prefix[d] = Π_{k<d, k≠mode} a⁽ᵏ⁾(iₖ, βₖ) for the *current* core
    // entry; entries below the shared-prefix depth stay valid from the
    // previous core entry, so only the changed suffix is recomputed.
    let mut prefix = [1.0f64; MAX_PREFIX_ORDER + 1];
    let mut prev: &[usize] = &[];
    for (b, &g) in core_vals.iter().enumerate() {
        let beta = &core_idx[b * order..(b + 1) * order];
        let mut p = 0;
        while p < prev.len() && prev[p] == beta[p] {
            p += 1;
        }
        for d in p..order {
            let a = if d == mode { 1.0 } else { rows[d][beta[d]] };
            prefix[d + 1] = prefix[d] * a;
        }
        delta[beta[mode]] += g * prefix[order];
        prev = beta;
    }
}

/// Accumulates δ for one streamed entry into `delta` (cleared first) with
/// the **run-blocked micro-kernel**: one shared prefix product per run of
/// core entries (runs precomputed by [`core_runs`]), the run tail processed
/// as a contiguous `dot`/`axpy` over the packed `core_vals` slice. See the
/// module docs for the blocking argument. Test-gated: the per-entry
/// baseline [`delta_for_entry`] must reproduce bitwise.
///
/// `others` holds the entry's packed other-mode indices (ascending mode
/// order, `mode` skipped) as produced by `ptucker_tensor::ModeStream`;
/// `runs` must be `core_runs(core_idx, factors.len())` for the same core.
#[cfg(test)]
#[inline]
pub(crate) fn accumulate_delta_blocked(
    delta: &mut [f64],
    others: &[u32],
    mode: usize,
    core_idx: &[usize],
    core_vals: &[f64],
    runs: &[u32],
    factors: &[Matrix],
) {
    delta.fill(0.0);
    let order = factors.len();
    debug_assert_eq!(others.len(), order - 1);
    if order > MAX_PREFIX_ORDER {
        accumulate_delta_deep(delta, others, mode, core_idx, core_vals, factors);
        return;
    }
    let last = order - 1;
    // Pin the entry's factor rows once: a⁽ᵏ⁾(iₖ, ·) for every k ≠ n.
    let mut rows: [&[f64]; MAX_PREFIX_ORDER] = [&[]; MAX_PREFIX_ORDER];
    let mut slot = 0;
    for (k, factor) in factors.iter().enumerate() {
        if k == mode {
            continue;
        }
        rows[k] = factor.row(others[slot] as usize);
        slot += 1;
    }
    // The tail factor row a⁽ᴺ⁾(i_N, ·); empty (and unread) when the update
    // mode *is* the tail coordinate.
    let tail_row: &[f64] = if mode == last { &[] } else { rows[last] };
    // prefix[d] = Π_{k<d, k≠mode} a⁽ᵏ⁾(iₖ, βₖ) over the run head's first
    // `N−1` coordinates, reused across runs sharing a head prefix.
    let mut prefix = [1.0f64; MAX_PREFIX_ORDER + 1];
    let mut prev: &[usize] = &[];
    for r in 0..runs.len() - 1 {
        let base = runs[r] as usize;
        let end = runs[r + 1] as usize;
        let head = &core_idx[base * order..base * order + order];
        let mut p = 0;
        while p < prev.len() && prev[p] == head[p] {
            p += 1;
        }
        for d in p..last {
            let a = if d == mode { 1.0 } else { rows[d][head[d]] };
            prefix[d + 1] = prefix[d] * a;
        }
        prev = &head[..last];
        let w = prefix[last];
        if w == 0.0 {
            continue;
        }
        let vals = &core_vals[base..end];
        let len = end - base;
        // Strictly ascending tail coordinates are contiguous iff the
        // endpoints span exactly `len` values (dense cores always do).
        let t0 = core_idx[base * order + last];
        let contiguous = core_idx[(end - 1) * order + last] - t0 + 1 == len;
        if mode == last {
            // δ[β_N] += w · g[β_N]: axpy into the δ vector.
            if contiguous {
                axpy(w, vals, &mut delta[t0..t0 + len]);
            } else {
                for (t, &g) in vals.iter().enumerate() {
                    delta[core_idx[(base + t) * order + last]] += w * g;
                }
            }
        } else {
            // δ[βₙ] += w · Σ_{β_N} g[β_N]·a⁽ᴺ⁾(i_N, β_N): dot of the run's
            // values against the pinned tail row.
            let acc = if contiguous {
                dot(vals, &tail_row[t0..t0 + len])
            } else {
                let mut acc = 0.0;
                for (t, &g) in vals.iter().enumerate() {
                    acc += g * tail_row[core_idx[(base + t) * order + last]];
                }
                acc
            };
            delta[head[mode]] += w * acc;
        }
    }
}

/// Reconstructs one observed entry with the **run-blocked micro-kernel**:
/// one shared prefix product per run of core entries (all `N` factor rows
/// pinned once — no mode is skipped here), the run tail a single
/// contiguous [`dot`] of the packed core values against the tail factor
/// row. Test-gated: the per-entry baseline [`RunPlan::reconstruct`] must
/// reproduce bitwise. `runs` must be [`core_runs`] of the same core.
#[cfg(test)]
#[inline]
pub(crate) fn reconstruct_entry_blocked(
    entry_idx: &[usize],
    core_idx: &[usize],
    core_vals: &[f64],
    runs: &[u32],
    factors: &[Matrix],
) -> f64 {
    let order = factors.len();
    if order > MAX_PREFIX_ORDER {
        return reconstruct_entry_scalar(entry_idx, core_idx, core_vals, factors);
    }
    let last = order - 1;
    // Pin every factor row once: a⁽ᵏ⁾(iₖ, ·) for all k.
    let mut rows: [&[f64]; MAX_PREFIX_ORDER] = [&[]; MAX_PREFIX_ORDER];
    for (k, factor) in factors.iter().enumerate() {
        rows[k] = factor.row(entry_idx[k]);
    }
    let tail_row = rows[last];
    let mut prefix = [1.0f64; MAX_PREFIX_ORDER + 1];
    let mut prev: &[usize] = &[];
    let mut rec = 0.0;
    for r in 0..runs.len() - 1 {
        let base = runs[r] as usize;
        let end = runs[r + 1] as usize;
        let head = &core_idx[base * order..base * order + order];
        let mut p = 0;
        while p < prev.len() && prev[p] == head[p] {
            p += 1;
        }
        for d in p..last {
            prefix[d + 1] = prefix[d] * rows[d][head[d]];
        }
        prev = &head[..last];
        let w = prefix[last];
        if w == 0.0 {
            continue;
        }
        let vals = &core_vals[base..end];
        let len = end - base;
        let t0 = core_idx[base * order + last];
        let contiguous = core_idx[(end - 1) * order + last] - t0 + 1 == len;
        let acc = if contiguous {
            dot(vals, &tail_row[t0..t0 + len])
        } else {
            let mut acc = 0.0;
            for (t, &g) in vals.iter().enumerate() {
                acc += g * tail_row[core_idx[(base + t) * order + last]];
            }
            acc
        };
        rec += w * acc;
    }
    rec
}

/// Scalar per-core-entry reconstruction: the deep-order (> 16) fallback of
/// [`RunPlan::reconstruct`] and the blocked kernels' equivalence baseline
/// in tests.
fn reconstruct_entry_scalar(
    entry_idx: &[usize],
    core_idx: &[usize],
    core_vals: &[f64],
    factors: &[Matrix],
) -> f64 {
    let order = entry_idx.len();
    let mut rec = 0.0;
    for (b, &g) in core_vals.iter().enumerate() {
        let beta = &core_idx[b * order..(b + 1) * order];
        let mut w = g;
        for (k, factor) in factors.iter().enumerate() {
            w *= factor[(entry_idx[k], beta[k])];
            if w == 0.0 {
                break;
            }
        }
        rec += w;
    }
    rec
}

/// A run-blocked reconstruction that also records each core entry's
/// individual contribution `c_{αβ}` into `contrib` (size `|G|`) and
/// returns their sum `x̂_α` — the quantities P-Tucker-Approx's partial
/// reconstruction error `R(β)` (Eq. 13) needs per observed entry. One
/// shared prefix per run; the run tail is a single fused
/// multiply-and-accumulate pass over the packed core values and the tail
/// factor row. Test-gated: the per-entry `R(β)` reference
/// (`approx::partial_errors_reference`) the fused pass is pinned to.
#[cfg(test)]
#[inline]
pub(crate) fn entry_contributions_blocked(
    entry_idx: &[usize],
    core_idx: &[usize],
    core_vals: &[f64],
    runs: &[u32],
    factors: &[Matrix],
    contrib: &mut [f64],
) -> f64 {
    let order = factors.len();
    if order > MAX_PREFIX_ORDER {
        let mut full = 0.0;
        for (b, slot) in contrib.iter_mut().enumerate() {
            let beta = &core_idx[b * order..(b + 1) * order];
            let mut w = core_vals[b];
            for (k, factor) in factors.iter().enumerate() {
                w *= factor[(entry_idx[k], beta[k])];
                if w == 0.0 {
                    break;
                }
            }
            *slot = w;
            full += w;
        }
        return full;
    }
    let last = order - 1;
    let mut rows: [&[f64]; MAX_PREFIX_ORDER] = [&[]; MAX_PREFIX_ORDER];
    for (k, factor) in factors.iter().enumerate() {
        rows[k] = factor.row(entry_idx[k]);
    }
    let tail_row = rows[last];
    let mut prefix = [1.0f64; MAX_PREFIX_ORDER + 1];
    let mut prev: &[usize] = &[];
    let mut full = 0.0;
    for r in 0..runs.len() - 1 {
        let base = runs[r] as usize;
        let end = runs[r + 1] as usize;
        let head = &core_idx[base * order..base * order + order];
        let mut p = 0;
        while p < prev.len() && prev[p] == head[p] {
            p += 1;
        }
        for d in p..last {
            prefix[d + 1] = prefix[d] * rows[d][head[d]];
        }
        prev = &head[..last];
        let w = prefix[last];
        if w == 0.0 {
            contrib[base..end].fill(0.0);
            continue;
        }
        let vals = &core_vals[base..end];
        let len = end - base;
        let t0 = core_idx[base * order + last];
        let contiguous = core_idx[(end - 1) * order + last] - t0 + 1 == len;
        if contiguous {
            for ((slot, &g), &a) in contrib[base..end]
                .iter_mut()
                .zip(vals)
                .zip(&tail_row[t0..t0 + len])
            {
                let c = w * (g * a);
                *slot = c;
                full += c;
            }
        } else {
            for (t, &g) in vals.iter().enumerate() {
                let c = w * (g * tail_row[core_idx[(base + t) * order + last]]);
                contrib[base + t] = c;
                full += c;
            }
        }
    }
    full
}

/// Rank-1 accumulation of the normal equations for one observed entry:
/// `B += δδᵀ` (upper triangle only) and `c += x·δ` — expressed as the
/// `axpy`/`syr` micro-kernel primitives so the accumulation rides the same
/// blocked path as the δ production.
#[inline]
pub(crate) fn accumulate_normal_eq(b_upper: &mut [f64], c: &mut [f64], delta: &[f64], x: f64) {
    axpy(x, delta, c);
    syr_in_place(b_upper, delta.len(), delta);
}

/// Solves `(B + λI) x = c` for an upper-triangle-packed system, allocating
/// its own workspace. This is the **non-hot-path** helper (core refit, unit
/// tests); the per-row update solves through the reusable arena in
/// [`crate::engine::Scratch`] instead, with the identical numerical
/// definition (both sit on `ptucker_linalg::solve`).
///
/// Cholesky is used first (the system is SPD for λ > 0, Theorem 1); LU with
/// partial pivoting is the fallback for λ = 0 with a rank-deficient `B`.
/// Returns `None` only if both factorizations fail (exactly singular
/// system).
pub(crate) fn solve_row(b_upper: &[f64], c: &[f64], lambda: f64) -> Option<Vec<f64>> {
    let j_n = c.len();
    let mut scratch = crate::engine::Scratch::new(j_n);
    let (_, sc_c, sc_b) = scratch.accumulators(j_n);
    sc_c.copy_from_slice(c);
    sc_b.copy_from_slice(b_upper);
    let mut out = vec![0.0; j_n];
    scratch.solve(j_n, lambda, &mut out).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptucker_tensor::CoreTensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn delta_matches_bruteforce() {
        // 2 modes, ranks (2, 3), dense core.
        let core = CoreTensor::dense_from_fn(vec![2, 3], |i| (i[0] * 3 + i[1] + 1) as f64).unwrap();
        let a0 = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]);
        let a1 = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.5, 1.5, -0.5]]);
        let factors = vec![a0.clone(), a1.clone()];
        let entry = [1usize, 0usize];

        // Mode 0: δ(j0) = Σ_{j1} G(j0,j1) * a1[i1, j1].
        let mut delta = vec![0.0; 2];
        accumulate_delta(
            &mut delta,
            &entry,
            0,
            core.flat_indices(),
            core.values(),
            &factors,
        );
        for j0 in 0..2 {
            let mut want = 0.0;
            for j1 in 0..3 {
                want += core.value(j0 * 3 + j1) * a1[(0, j1)];
            }
            assert!((delta[j0] - want).abs() < 1e-12, "j0={j0}");
        }

        // Mode 1: δ(j1) = Σ_{j0} G(j0,j1) * a0[i0, j0].
        let mut delta = vec![0.0; 3];
        accumulate_delta(
            &mut delta,
            &entry,
            1,
            core.flat_indices(),
            core.values(),
            &factors,
        );
        for j1 in 0..3 {
            let mut want = 0.0;
            for j0 in 0..2 {
                want += core.value(j0 * 3 + j1) * a0[(1, j0)];
            }
            assert!((delta[j1] - want).abs() < 1e-12, "j1={j1}");
        }
    }

    /// Packs the other-mode indices of `entry` the way a `ModeStream` does.
    fn pack_others(entry: &[usize], mode: usize) -> Vec<u32> {
        entry
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != mode)
            .map(|(_, &i)| i as u32)
            .collect()
    }

    /// Runs all three kernels on one setup and checks they agree at 1e-12.
    fn assert_kernels_agree(core: &CoreTensor, factors: &[Matrix], entry: &[usize]) {
        let runs = core_runs(core.flat_indices(), core.order());
        for mode in 0..core.order() {
            let j = core.dims()[mode];
            let mut gather = vec![0.0; j];
            accumulate_delta(
                &mut gather,
                entry,
                mode,
                core.flat_indices(),
                core.values(),
                factors,
            );
            let mut lex = vec![0.0; j];
            accumulate_delta_lex(
                &mut lex,
                &pack_others(entry, mode),
                mode,
                core.flat_indices(),
                core.values(),
                factors,
            );
            let mut blocked = vec![0.0; j];
            accumulate_delta_blocked(
                &mut blocked,
                &pack_others(entry, mode),
                mode,
                core.flat_indices(),
                core.values(),
                &runs,
                factors,
            );
            for ((l, b), g) in lex.iter().zip(&blocked).zip(&gather) {
                assert!((l - g).abs() < 1e-12, "lex: entry {entry:?} mode {mode}");
                assert!(
                    (b - g).abs() < 1e-12,
                    "blocked: entry {entry:?} mode {mode}"
                );
            }
        }
    }

    #[test]
    fn streamed_deltas_match_gather_delta() {
        // Random-ish 3-mode setup, dense core, checked mode by mode
        // (including mode == N−1, where the tail coordinate is the update
        // mode and the blocked kernel takes its axpy path).
        let core = CoreTensor::dense_from_fn(vec![2, 3, 2], |i| {
            (i[0] * 6 + i[1] * 2 + i[2]) as f64 * 0.3 - 1.0
        })
        .unwrap();
        let factors = vec![
            Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25], &[1.5, 0.5]]),
            Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.5, 1.5, -0.5]]),
            Matrix::from_rows(&[&[0.25, 1.25], &[-0.75, 0.5]]),
        ];
        for entry in [[1usize, 0, 1], [2, 1, 0], [0, 0, 0]] {
            assert_kernels_agree(&core, &factors, &entry);
        }
    }

    #[test]
    fn streamed_deltas_match_gather_on_truncated_core() {
        // Truncation keeps lexicographic order but breaks the dense
        // odometer pattern — prefix sharing must stay correct on gaps, and
        // the blocked kernel must fall back to its indexed tail loop.
        let mut core =
            CoreTensor::dense_from_fn(vec![3, 2, 2], |i| (i[0] + i[1] + i[2]) as f64 + 0.5)
                .unwrap();
        core.retain_by_id(|e| e % 3 != 1);
        let factors = vec![
            Matrix::from_rows(&[&[0.5, -1.0, 0.0], &[2.0, 0.25, 1.0]]),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 1.5], &[0.75, -0.25]]),
            Matrix::from_rows(&[&[0.25, 1.25], &[-0.75, 0.5]]),
        ];
        assert_kernels_agree(&core, &factors, &[1usize, 2, 0]);
    }

    #[test]
    fn blocked_delta_ignores_swept_mode_factor() {
        // During a sweep factors[mode] is an empty placeholder; the kernel
        // must never touch it.
        let core = CoreTensor::dense_from_fn(vec![2, 2], |i| (i[0] + 2 * i[1]) as f64).unwrap();
        let runs = core_runs(core.flat_indices(), 2);
        let factors = vec![
            Matrix::zeros(0, 0),
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
        ];
        let mut delta = vec![0.0; 2];
        accumulate_delta_blocked(
            &mut delta,
            &[1u32],
            0,
            core.flat_indices(),
            core.values(),
            &runs,
            &factors,
        );
        // δ(j0) = Σ_{j1} G(j0,j1)·a1[1, j1]: [0·3+2·4, 1·3+3·4].
        assert_eq!(delta, vec![8.0, 15.0]);
    }

    #[test]
    fn core_runs_blocks_dense_cores_by_tail_rank() {
        let core = CoreTensor::dense_from_fn(vec![2, 3, 4], |_| 1.0).unwrap();
        let runs = core_runs(core.flat_indices(), 3);
        // 2·3 = 6 runs of length J_N = 4 each.
        assert_eq!(runs.len(), 7);
        for w in runs.windows(2) {
            assert_eq!(w[1] - w[0], 4);
        }
    }

    #[test]
    fn core_runs_order_one_is_single_run() {
        let core = CoreTensor::dense_from_fn(vec![5], |_| 1.0).unwrap();
        assert_eq!(core_runs(core.flat_indices(), 1), vec![0, 5]);
    }

    #[test]
    fn core_runs_empty_core() {
        assert_eq!(core_runs(&[], 3), vec![0]);
    }

    #[test]
    fn core_runs_respects_truncation_gaps() {
        let mut core = CoreTensor::dense_from_fn(vec![2, 3], |_| 1.0).unwrap();
        core.retain_by_id(|e| e != 1); // kill (0,1): run (0,·) shrinks to 2
        let runs = core_runs(core.flat_indices(), 2);
        assert_eq!(runs, vec![0, 2, 5]);
    }

    #[test]
    fn order_one_core_blocked_delta() {
        // order == 1: no prefix coordinates; the whole core is one run and
        // the axpy path scatters straight into δ.
        let core = CoreTensor::from_entries(
            vec![4],
            vec![(vec![0], 2.0), (vec![2], -1.0), (vec![3], 0.5)],
        )
        .unwrap();
        let runs = core_runs(core.flat_indices(), 1);
        let factors = vec![Matrix::zeros(0, 0)];
        let mut delta = vec![0.0; 4];
        accumulate_delta_blocked(
            &mut delta,
            &[],
            0,
            core.flat_indices(),
            core.values(),
            &runs,
            &factors,
        );
        assert_eq!(delta, vec![2.0, 0.0, -1.0, 0.5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Satellite property: the blocked δ equals the gather reference
        // within 1e-12 for random sparse cores at every order up to
        // MAX_PREFIX_ORDER and every mode — including `mode == N−1`, the
        // axpy edge case.
        #[test]
        fn blocked_delta_matches_gather_reference(
            order in 1..=MAX_PREFIX_ORDER,
            seed in 0..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Small per-mode ranks so deep orders stay affordable; the
            // core is sparse (sampled cells), so runs have ragged lengths
            // and gaps.
            let dims: Vec<usize> = (0..order).map(|_| rng.gen_range(1..4usize)).collect();
            let nnz = rng.gen_range(1..40usize);
            let mut cells = std::collections::BTreeSet::new();
            for _ in 0..nnz {
                let idx: Vec<usize> = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
                cells.insert(idx);
            }
            let entries: Vec<(Vec<usize>, f64)> = cells
                .into_iter()
                .map(|idx| (idx, rng.gen::<f64>() * 2.0 - 1.0))
                .collect();
            let core = CoreTensor::from_entries(dims.clone(), entries).unwrap();
            prop_assert!(core.is_lexicographic());
            let i_dims: Vec<usize> = (0..order).map(|_| rng.gen_range(1..4usize)).collect();
            let factors: Vec<Matrix> = i_dims
                .iter()
                .zip(&dims)
                .map(|(&i_n, &j_n)| {
                    Matrix::from_vec(
                        i_n,
                        j_n,
                        (0..i_n * j_n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect(),
                    )
                    .unwrap()
                })
                .collect();
            let entry: Vec<usize> = i_dims.iter().map(|&d| rng.gen_range(0..d)).collect();
            let runs = core_runs(core.flat_indices(), order);
            // The run-blocked reconstruction and per-entry contributions
            // (the error / R(β) micro-kernels) must match the scalar walk.
            {
                let scalar = reconstruct_entry_scalar(
                    &entry,
                    core.flat_indices(),
                    core.values(),
                    &factors,
                );
                let blocked = reconstruct_entry_blocked(
                    &entry,
                    core.flat_indices(),
                    core.values(),
                    &runs,
                    &factors,
                );
                prop_assert!(
                    (blocked - scalar).abs() < 1e-12 * (1.0 + scalar.abs()),
                    "reconstruct: {} vs {}",
                    blocked,
                    scalar
                );
                let mut contrib = vec![0.0; core.nnz()];
                let full = entry_contributions_blocked(
                    &entry,
                    core.flat_indices(),
                    core.values(),
                    &runs,
                    &factors,
                    &mut contrib,
                );
                let mut sum = 0.0;
                for (b, &c) in contrib.iter().enumerate() {
                    let beta = core.index(b);
                    let mut w = core.value(b);
                    for (k, factor) in factors.iter().enumerate() {
                        w *= factor[(entry[k], beta[k])];
                    }
                    prop_assert!(
                        (c - w).abs() < 1e-12 * (1.0 + w.abs()),
                        "contrib[{}]: {} vs {}",
                        b,
                        c,
                        w
                    );
                    sum += c;
                }
                prop_assert!((full - sum).abs() < 1e-9 * (1.0 + sum.abs()));
            }
            for mode in 0..order {
                let j = core.dims()[mode];
                let mut gather = vec![0.0; j];
                accumulate_delta(
                    &mut gather,
                    &entry,
                    mode,
                    core.flat_indices(),
                    core.values(),
                    &factors,
                );
                let mut blocked = vec![0.0; j];
                accumulate_delta_blocked(
                    &mut blocked,
                    &pack_others(&entry, mode),
                    mode,
                    core.flat_indices(),
                    core.values(),
                    &runs,
                    &factors,
                );
                for (b, g) in blocked.iter().zip(&gather) {
                    prop_assert!(
                        (b - g).abs() < 1e-12,
                        "order {} mode {}: {} vs {}",
                        order,
                        mode,
                        b,
                        g
                    );
                }
            }
        }
    }

    /// `to_bits()` with every NaN folded to one pattern: which payload an
    /// operation with two NaN inputs propagates is the one thing IEEE (and
    /// Rust) leave to the instruction's operand order.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    #[test]
    fn run_plan_groups_dense_cores_by_parent() {
        let core = CoreTensor::dense_from_fn(vec![2, 3, 4, 5], |_| 1.0).unwrap();
        let plan = RunPlan::new(&core);
        // 2·3·4 runs of J_N = 5, in 2·3 groups of J_{N−1} = 4 runs.
        assert_eq!(plan.n_runs(), 24);
        assert_eq!(plan.groups, (0..=6).map(|g| g * 4).collect::<Vec<u32>>());
        assert_eq!(plan.parents, vec![0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2]);
        assert_eq!(plan.shared, vec![0u32, 1, 1, 0, 1, 1]);
        assert_eq!(plan.inner, [0u32, 1, 2, 3].repeat(6));
        assert!(plan.contiguous.iter().all(|&c| c) && plan.t0.iter().all(|&t| t == 0));
        assert_eq!(plan.offsets, core_runs(core.flat_indices(), 4));
        assert!(!plan.is_memoized());
    }

    #[test]
    fn run_plan_degenerate_orders() {
        // Order 1: one headless run in one group. Order 2: one group whose
        // runs vary in their only head coordinate. Empty: no runs at all.
        let one = CoreTensor::dense_from_fn(vec![5], |_| 1.0).unwrap();
        let plan = RunPlan::new(&one);
        assert_eq!((plan.n_runs(), plan.groups.clone()), (1, vec![0, 1]));
        let mut two = CoreTensor::dense_from_fn(vec![3, 4], |_| 1.0).unwrap();
        two.retain_by_id(|e| e != 5); // (1,1): run 1 keeps tails {0, 2, 3}
        let plan = RunPlan::new(&two);
        assert_eq!(plan.groups, vec![0, 3]);
        assert_eq!(plan.inner, vec![0, 1, 2]);
        assert_eq!(plan.contiguous, vec![true, false, true]);
        let empty = CoreTensor::from_entries(vec![2, 2], vec![]).unwrap();
        let plan = RunPlan::new(&empty);
        assert_eq!((plan.n_runs(), plan.groups.clone()), (0, vec![0]));
    }

    #[test]
    fn run_plan_kernels_at_order_one_and_on_placeholder_factors() {
        // Order 1: no head, no table — the whole core is one axpy.
        let core = CoreTensor::from_entries(
            vec![4],
            vec![(vec![0], 2.0), (vec![2], -1.0), (vec![3], 0.5)],
        )
        .unwrap();
        let runs = RunPlan::new(&core);
        let factors = vec![Matrix::zeros(0, 0)];
        let mut delta = vec![9.0; 4];
        delta_for_entry(
            &mut delta,
            &[],
            0,
            core.flat_indices(),
            core.values(),
            &runs,
            &factors,
        );
        assert_eq!(delta, vec![2.0, 0.0, -1.0, 0.5]);
        let a = vec![Matrix::from_rows(&[&[1.0, 5.0, 2.0, 4.0]])];
        let rec = runs.reconstruct(&[0], &core, &a);
        assert_eq!(rec, 2.0 - 2.0 + 2.0);

        // During a sweep factors[mode] is an empty placeholder: neither
        // kernel flavor may touch it.
        let core = CoreTensor::dense_from_fn(vec![2, 2], |i| (i[0] + 2 * i[1]) as f64).unwrap();
        let factors = vec![
            Matrix::zeros(0, 0),
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
        ];
        let mut runs = RunPlan::new(&core);
        for memoized in [false, true] {
            if memoized {
                runs.memoize_tail(&core, &factors[1], 2);
            }
            let mut delta = vec![9.0; 2];
            delta_for_entry(
                &mut delta,
                &[1u32],
                0,
                core.flat_indices(),
                core.values(),
                &runs,
                &factors,
            );
            // δ(j0) = Σ_{j1} G(j0,j1)·a1[1, j1]: [0·3+2·4, 1·3+3·4].
            assert_eq!(delta, vec![8.0, 15.0], "memoized: {memoized}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Tentpole property: the RunPlan kernels — tail dots looked up in
        // the memo table, or computed per entry when there is none — equal
        // the per-entry blocked kernels **bit for bit**, δ for every mode
        // and the reconstruction, on random sparse cores (ragged,
        // non-contiguous and single-entry runs) at every order the table
        // serves, with hostile values (±0, subnormals, ±Inf, NaN) in the
        // factor rows so the `w == 0` skip and the Inf·0 paths are hit.
        #[test]
        fn tail_memo_is_bitwise_blocked(
            order in 2..=MAX_PREFIX_ORDER,
            seed in 0..u64::MAX,
        ) {
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
            let mut rng = StdRng::seed_from_u64(seed);
            let dims: Vec<usize> = (0..order).map(|_| rng.gen_range(1..4usize)).collect();
            let mut cells = std::collections::BTreeSet::new();
            for _ in 0..rng.gen_range(1..60usize) {
                cells.insert(dims.iter().map(|&d| rng.gen_range(0..d)).collect::<Vec<usize>>());
            }
            let entries: Vec<(Vec<usize>, f64)> = cells
                .into_iter()
                .map(|idx| (idx, rng.gen::<f64>() * 2.0 - 1.0))
                .collect();
            let mut core = CoreTensor::from_entries(dims.clone(), entries).unwrap();
            if rng.gen::<f64>() < 0.5 {
                // A truncation pass on top of the sampling, as Approx does.
                let kill = rng.gen_range(2..5usize);
                core.retain_by_id(|e| e % kill != 1 || e == 0);
            }
            let i_dims: Vec<usize> = (0..order).map(|_| rng.gen_range(1..4usize)).collect();
            let factors: Vec<Matrix> = i_dims
                .iter()
                .zip(&dims)
                .map(|(&i_n, &j_n)| {
                    let data = (0..i_n * j_n)
                        .map(|_| {
                            if rng.gen::<f64>() < 0.2 {
                                HOSTILE[rng.gen_range(0..HOSTILE.len())]
                            } else {
                                rng.gen::<f64>() * 2.0 - 1.0
                            }
                        })
                        .collect();
                    Matrix::from_vec(i_n, j_n, data).unwrap()
                })
                .collect();
            let (core_idx, core_vals) = (core.flat_indices(), core.values());
            let offsets = core_runs(core_idx, order);
            let plain = RunPlan::new(&core);
            let mut memo = plain.clone();
            memo.memoize_tail(&core, &factors[order - 1], 1 + (seed % 3) as usize);
            prop_assert!(memo.is_memoized() && !plain.is_memoized());
            for _ in 0..4 {
                let entry: Vec<usize> = i_dims.iter().map(|&d| rng.gen_range(0..d)).collect();
                let want = reconstruct_entry_blocked(&entry, core_idx, core_vals, &offsets, &factors);
                for (tag, plan) in [("memo", &memo), ("plain", &plain)] {
                    let got = plan.reconstruct(&entry, &core, &factors);
                    prop_assert_eq!(bits(got), bits(want), "{} reconstruct {:?}", tag, &entry);
                }
                for mode in 0..order {
                    let others = pack_others(&entry, mode);
                    let mut want = vec![0.0; dims[mode]];
                    accumulate_delta_blocked(
                        &mut want, &others, mode, core_idx, core_vals, &offsets, &factors,
                    );
                    for (tag, plan) in [("memo", &memo), ("plain", &plain)] {
                        let mut got = vec![7.0; dims[mode]];
                        delta_for_entry(&mut got, &others, mode, core_idx, core_vals, plan, &factors);
                        for (g, w) in got.iter().zip(&want) {
                            prop_assert_eq!(
                                bits(*g), bits(*w),
                                "{} order {} mode {} entry {:?}", tag, order, mode, &entry
                            );
                        }
                    }
                }
            }
        }
    }

    /// Lane `e` of the `E`-lane kernels against the single-entry ones on
    /// the same entry, bit for bit: δ for every mode, the reconstruction,
    /// and the residual accumulator (whose pending buffer sees every fill).
    fn assert_lanes_match_single<const E: usize>(
        core: &CoreTensor,
        factors: &[Matrix],
        plan: &RunPlan,
        entries: &[Vec<usize>],
        tag: &str,
    ) {
        let (core_idx, core_vals) = (core.flat_indices(), core.values());
        let block: [&[usize]; E] = std::array::from_fn(|e| entries[e % entries.len()].as_slice());
        let got = plan.reconstruct_block(block, core, factors);
        for e in 0..E {
            let want = plan.reconstruct(block[e], core, factors);
            assert_eq!(bits(got[e]), bits(want), "{tag} E={E} reconstruct lane {e}");
        }
        for mode in 0..core.order() {
            let j = core.dims()[mode];
            let others: [Vec<u32>; E] = std::array::from_fn(|e| pack_others(block[e], mode));
            let mut lanes = vec![7.0; E * j];
            delta_for_block::<E>(
                std::array::from_fn(|e| others[e].as_slice()),
                &mut lanes,
                mode,
                core_idx,
                core_vals,
                plan,
                factors,
            );
            for e in 0..E {
                let mut want = vec![3.0; j];
                delta_for_entry(
                    &mut want, &others[e], mode, core_idx, core_vals, plan, factors,
                );
                for (g, w) in lanes[e * j..(e + 1) * j].iter().zip(&want) {
                    assert_eq!(bits(*g), bits(*w), "{tag} E={E} mode {mode} lane {e}");
                }
            }
        }
        // Every pending-buffer fill: 1..=2E+1 entries through the residual
        // accumulator against the per-entry fold.
        for n in 1..=2 * E + 1 {
            let mut acc = ResidualLanes::<E>::new(plan, core, factors);
            let mut want = 0.0f64;
            for k in 0..n {
                let (idx, x) = (&entries[k % entries.len()], 0.25 * k as f64 - 1.0);
                acc.push(idx, x);
                let d = x - plan.reconstruct(idx, core, factors);
                want += d * d;
            }
            assert_eq!(
                bits(acc.finish()),
                bits(want),
                "{tag} E={E} residual of {n}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Tentpole property: every lane of the block kernels is the
        // single-entry kernel on that lane's entry, to the bit — δ for every
        // mode (parent-coordinate, run-coordinate and tail; the tail through
        // the tile on dense cores of narrow and wide tail rank, through
        // memory otherwise), the reconstruction and the residual sum, at
        // every block width up to the shipped one, with and without the
        // tail-dot table, on dense, truncated and single-entry-run cores,
        // with hostile values in the factors.
        #[test]
        fn lanes_are_bitwise_single_entry(
            order in 1..=MAX_PREFIX_ORDER,
            shape in 0..3usize,
            seed in 0..u64::MAX,
        ) {
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
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dims: Vec<usize> = (0..order).map(|_| rng.gen_range(1..4usize)).collect();
            if order <= 3 {
                // Tail ranks on both sides of the tile's widest instantiation.
                dims[order - 1] = rng.gen_range(1..MAX_TILE + 3);
            }
            let value = |rng: &mut StdRng| rng.gen::<f64>() * 2.0 - 1.0;
            let mut core = match shape {
                // Dense: every run is the full tail (the tile's case).
                0 if dims.iter().product::<usize>() <= 4096 => {
                    let vals: Vec<f64> = (0..dims.iter().product()).map(|_| value(&mut rng)).collect();
                    let mut next = vals.into_iter();
                    CoreTensor::dense_from_fn(dims.clone(), |_| next.next().unwrap()).unwrap()
                }
                // Sparse sample: ragged, non-contiguous and single-entry runs.
                _ => {
                    let mut cells = std::collections::BTreeSet::new();
                    for _ in 0..rng.gen_range(1..60usize) {
                        cells.insert(dims.iter().map(|&d| rng.gen_range(0..d)).collect::<Vec<usize>>());
                    }
                    let entries = cells.into_iter().map(|idx| (idx, value(&mut rng))).collect();
                    CoreTensor::from_entries(dims.clone(), entries).unwrap()
                }
            };
            if shape == 2 {
                // A truncation pass on top, as Approx does.
                let kill = rng.gen_range(2..5usize);
                core.retain_by_id(|e| e % kill != 1 || e == 0);
            }
            let i_dims: Vec<usize> = (0..order).map(|_| rng.gen_range(1..5usize)).collect();
            let factors: Vec<Matrix> = i_dims
                .iter()
                .zip(&dims)
                .map(|(&i_n, &j_n)| {
                    let data = (0..i_n * j_n)
                        .map(|_| {
                            if rng.gen::<f64>() < 0.2 {
                                HOSTILE[rng.gen_range(0..HOSTILE.len())]
                            } else {
                                value(&mut rng)
                            }
                        })
                        .collect();
                    Matrix::from_vec(i_n, j_n, data).unwrap()
                })
                .collect();
            let entries: Vec<Vec<usize>> = (0..LANES + 1)
                .map(|_| i_dims.iter().map(|&d| rng.gen_range(0..d)).collect())
                .collect();
            let plain = RunPlan::new(&core);
            let mut memo = plain.clone();
            memo.memoize_tail(&core, &factors[order - 1], 2);
            for (tag, plan) in [("memo", &memo), ("plain", &plain)] {
                assert_lanes_match_single::<1>(&core, &factors, plan, &entries, tag);
                assert_lanes_match_single::<2>(&core, &factors, plan, &entries, tag);
                assert_lanes_match_single::<3>(&core, &factors, plan, &entries, tag);
                assert_lanes_match_single::<LANES>(&core, &factors, plan, &entries, tag);
            }
        }
    }

    #[test]
    fn normal_eq_accumulation() {
        let delta = [1.0, 2.0];
        let mut b = vec![0.0; 4];
        let mut c = vec![0.0; 2];
        accumulate_normal_eq(&mut b, &mut c, &delta, 3.0);
        accumulate_normal_eq(&mut b, &mut c, &delta, 1.0);
        // B = 2 * δδᵀ (upper), c = 4 * δ.
        assert_eq!(b[0], 2.0); // (0,0)
        assert_eq!(b[1], 4.0); // (0,1)
        assert_eq!(b[3], 8.0); // (1,1)
        assert_eq!(c, vec![4.0, 8.0]);
    }

    #[test]
    fn solve_row_recovers_known_solution() {
        // B = [[2,1],[1,2]] (upper stored), λ=0, c = B * [1, -1]ᵀ = [1, -1].
        let b_upper = vec![2.0, 1.0, 0.0, 2.0];
        let c = vec![1.0, -1.0];
        let row = solve_row(&b_upper, &c, 0.0).unwrap();
        assert!((row[0] - 1.0).abs() < 1e-12);
        assert!((row[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_row_regularization_shrinks() {
        // With huge λ the solution tends to c/λ ≈ 0.
        let b_upper = vec![1.0, 0.0, 0.0, 1.0];
        let c = vec![1.0, 1.0];
        let row = solve_row(&b_upper, &c, 1e9).unwrap();
        assert!(row[0].abs() < 1e-8 && row[1].abs() < 1e-8);
    }

    #[test]
    fn solve_row_singular_unregularized_falls_back_or_none() {
        // B = 0 and λ = 0: exactly singular — must not panic.
        let b_upper = vec![0.0; 4];
        let c = vec![1.0, 1.0];
        assert!(solve_row(&b_upper, &c, 0.0).is_none());
        // With regularization it solves fine.
        let row = solve_row(&b_upper, &c, 0.5).unwrap();
        assert!((row[0] - 2.0).abs() < 1e-12);
    }
}
