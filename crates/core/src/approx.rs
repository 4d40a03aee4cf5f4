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
//!
//! # `R(β)` through the tail factor
//!
//! With the residual `r_α = x̂_α − X_α`, Eq. 13 reads
//! `R(β) = Σ_α (2·r_α·c_{αβ} − c_{αβ}²)`. β's contribution factors along
//! the core's runs (`crate::delta`): `c_{αβ} = p_{α,r}·t_i(β)`, where
//! `p_{α,r} = Π_{k<N−1} a⁽ᵏ⁾(iₖ, βₖ)` is the head product β's run `r`
//! shares and `t_i(β) = G_β·a⁽ᴺ⁾(i, β_N)` depends on α only through its
//! tail index `i = i_N`. Over the entries of one slice of mode `N−1` the
//! sums therefore factor:
//!
//! `R(β) = Σ_i [2·t_i(β)·u_i(r) − t_i(β)²·v_i(r)]`, with
//! `u_i(r) = Σ_{α ∈ slice i} r_α·p_{α,r}` and `v_i(r) = Σ_{α ∈ slice i} p_{α,r}²`.
//!
//! [`partial_errors`] walks mode `N−1`'s stream once. Per entry it does one
//! lane walk of the core's runs — the reconstruction `x̂` the residual
//! needs, from the memoized tail dots, bitwise `RunPlan::reconstruct`, with
//! each run's head product buffered — and then adds `u += r·p`, `v += p²`
//! over the runs: about `3·|G|/J_N` multiply-adds per entry, where the
//! per-entry formula did `|G|` products plus a `|G|`-wide read-modify-write.
//! At each slice end the sums flush into the worker's `|G|` partial
//! (`3·|G|` flops per slice).
//!
//! *Partition.* Workers fold static blocks of the stream's global
//! positions, and a segment flushes at every slice end and every block end.
//! Neither depends on how the stream is windowed, so resident, spilled
//! and disk-to-disk fits rank with the same bits; the partials
//! combine in worker order. Blocks cut inside slices, so a short, skewed
//! tail mode still splits evenly between workers.
//!
//! *Values.* The walk reads each entry's value from the stream. At `f64`
//! storage that is bitwise the COO value; at `f32` storage it is the
//! stored (quantized) value every sweep reads, so the ranking is of the
//! model against the tensor as the fit stores it.
//!
//! *Cost.* `O(|Ω|·|G|/J_N)` per pass plus `3·|G|` per flushed segment (at
//! most the tail slices plus one per worker) — about one mode sweep's
//! walk, where the per-entry pass cost several. The paper's note that
//! P-Tucker-Approx "may require few iterations to run faster than
//! P-Tucker due to overheads from calculating R(β)" is what this pass
//! removes; `fig9_approx` prints what it measures.

use crate::delta::{RunPlan, LANES};
use crate::Result;
use ptucker_linalg::Matrix;
use ptucker_sched::{parallel_reduce_with, static_block, Schedule};
use ptucker_tensor::{CoreTensor, StreamView, SweepSource};
use std::ops::Range;

/// Doubles one worker of [`partial_errors`] holds on a core of these ranks
/// (the initial dense core, the largest): its `|G|` partial, `u` and `v`,
/// and [`LANES`] head products per run — `|G| + (LANES + 2)·|G|/J_N`, no
/// more than the `2·|G|` of a per-entry pass once `J_N ≥ LANES + 2`.
pub(crate) fn worker_doubles(ranks: &[usize]) -> usize {
    let g: usize = ranks.iter().product();
    let n_runs: usize = ranks[..ranks.len().saturating_sub(1)].iter().product();
    g + (LANES + 2) * n_runs
}

/// Computes `R(β)` (Eq. 13) for every retained core entry in one walk of
/// mode `N−1`'s stream (module docs), windowed through `sweep` — the fit's
/// own source over its plan, resident or spilled, rewound here to mode
/// `N−1`. `runs` must be the [`RunPlan`] of `core`, any tail-dot table in
/// it memoized against `factors[N−1]`. Returned in core-entry order; a pure
/// function of the arguments and `threads`, whatever the plan's placement
/// or window size (the same bits in every replica of a sharded fit).
///
/// # Errors
/// [`crate::PtuckerError::Tensor`] if a spilled window cannot be read.
pub fn partial_errors(
    sweep: &mut SweepSource<'_>,
    factors: &[Matrix],
    core: &CoreTensor,
    runs: &RunPlan,
    threads: usize,
) -> Result<Vec<f64>> {
    let nnz = sweep.positions();
    let t = threads.max(1).min(nnz.max(1));
    let blocks: Vec<Range<usize>> = (0..t)
        .map(|b| {
            let (lo, hi) = static_block(nnz, t, b);
            lo..hi
        })
        .collect();
    let mut workers: Vec<Ranker> = (0..t)
        .map(|_| Ranker::new(core.nnz(), runs.n_runs()))
        .collect();
    sweep.rewind(factors.len() - 1);
    while let Some(w) = sweep.next_window()? {
        let window = w.base..w.base + w.stream.len();
        // One index per worker: worker `b` folds its block's share of the
        // window into its own state.
        parallel_reduce_with(t, t, Schedule::Static, &mut workers, |ranker, b| {
            let own = blocks[b].start.max(window.start)..blocks[b].end.min(window.end);
            if !own.is_empty() {
                let local = own.start - w.base..own.end - w.base;
                ranker.walk(&w.stream, w.slices.start, local, runs, core, factors);
            }
        });
    }
    let mut partials = workers.into_iter().map(|r| r.partial);
    let mut r = partials.next().expect("at least one worker");
    for partial in partials {
        for (a, b) in r.iter_mut().zip(&partial) {
            *a += b;
        }
    }
    Ok(r)
}

/// One worker of [`partial_errors`]: its partial `R(β)` and the open
/// segment's per-run sums.
struct Ranker {
    /// `R(β)` over the segments flushed so far, one slot per core entry.
    partial: Vec<f64>,
    /// Per run: `u = Σ r_α·p_{α,r}` over the open segment.
    u: Vec<f64>,
    /// Per run: `v = Σ p_{α,r}²` over the open segment.
    v: Vec<f64>,
    /// The lanes' head products, [`LANES`] per run (run-major).
    heads: Vec<f64>,
}

impl Ranker {
    fn new(g: usize, n_runs: usize) -> Self {
        Ranker {
            partial: vec![0.0; g],
            u: vec![0.0; n_runs],
            v: vec![0.0; n_runs],
            heads: vec![0.0; LANES * n_runs],
        }
    }

    /// Folds the window-local positions `own` of `stream` — a window whose
    /// first slice is global slice `first` — one slice's share at a time,
    /// flushing after each: every slice end and the block's end.
    fn walk(
        &mut self,
        stream: &StreamView<'_>,
        first: usize,
        own: Range<usize>,
        runs: &RunPlan,
        core: &CoreTensor,
        factors: &[Matrix],
    ) {
        let tail = &factors[factors.len() - 1];
        for s in 0..stream.num_slices() {
            let slice = stream.slice_range(s);
            if slice.start >= own.end {
                break;
            }
            let seg = slice.start.max(own.start)..slice.end.min(own.end);
            if seg.is_empty() {
                continue;
            }
            let i = first + s;
            let mut p = seg.start;
            while seg.end - p >= LANES {
                self.absorb(
                    std::array::from_fn::<_, LANES, _>(|e| p + e),
                    stream,
                    i,
                    runs,
                    core,
                    factors,
                );
                p += LANES;
            }
            for q in p..seg.end {
                self.absorb([q], stream, i, runs, core, factors);
            }
            self.flush(runs, core, tail.row(i));
        }
    }

    /// Adds `E` entries of slice `i` (stream positions `pos`) to the open
    /// segment: one lane walk for their residuals and head products, then
    /// `u += r·p` and `v += p²` per run, lane by lane in entry order — so
    /// the sums do not depend on how entries were grouped into lanes.
    #[inline]
    fn absorb<const E: usize>(
        &mut self,
        pos: [usize; E],
        stream: &StreamView<'_>,
        i: usize,
        runs: &RunPlan,
        core: &CoreTensor,
        factors: &[Matrix],
    ) {
        let heads = self.heads.as_chunks_mut::<E>().0;
        let others = pos.map(|p| stream.others(p));
        let rec = runs.reconstruct_with_heads(others, i, core, factors, heads);
        let res: [f64; E] = std::array::from_fn(|e| rec[e] - stream.value(pos[e]));
        for ((u, v), h) in self.u.iter_mut().zip(&mut self.v).zip(&*heads) {
            for e in 0..E {
                *u += res[e] * h[e];
                *v += h[e] * h[e];
            }
        }
    }

    /// Closes the open segment of slice `i` (tail factor row `tail_row`):
    /// `R(β) += 2·t·u − t²·v` with `t = G_β·a⁽ᴺ⁾(i, β_N)` for every core
    /// entry β, `u` and `v` those of β's run; then clears `u` and `v`.
    fn flush(&mut self, runs: &RunPlan, core: &CoreTensor, tail_row: &[f64]) {
        let (idx, vals, order) = (core.flat_indices(), core.values(), core.order());
        for (r, (u, v)) in self.u.iter_mut().zip(&mut self.v).enumerate() {
            let (base, end) = runs.run(r);
            for b in base..end {
                let t = vals[b] * tail_row[idx[b * order + order - 1]];
                self.partial[b] += 2.0 * t * *u - t * t * *v;
            }
            (*u, *v) = (0.0, 0.0);
        }
    }
}

/// The per-entry `R(β)` pass the fused one replaced: `|G|` contributions
/// per observed entry (`delta::entry_contributions_blocked`), folded over
/// the input's statically blocked entries. The reference the fused pass is
/// pinned to.
#[cfg(test)]
pub(crate) fn partial_errors_reference(
    input: &crate::FitInput<'_>,
    factors: &[Matrix],
    core: &CoreTensor,
    threads: usize,
) -> Result<Vec<f64>> {
    let g = core.nnz();
    let core_idx = core.flat_indices();
    let core_vals = core.values();
    let runs = crate::delta::core_runs(core_idx, core.order());
    let (racc, _contrib) = input.fold_entries(
        threads,
        || (vec![0.0f64; g], vec![0.0f64; g]),
        |(racc, contrib), idx, xv| {
            let full = crate::delta::entry_contributions_blocked(
                idx, core_idx, core_vals, &runs, factors, contrib,
            );
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
    use crate::{FitInput, MemoryBudget};
    use proptest::prelude::*;
    use ptucker_tensor::{CooScratch, ModeStreams, SparseTensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The fused pass over a resident plan of `x`, tail dots memoized as a
    /// fit memoizes them.
    fn fused(x: &SparseTensor, factors: &[Matrix], core: &CoreTensor, threads: usize) -> Vec<f64> {
        let plan = ModeStreams::build(x).unwrap();
        let mut runs = RunPlan::new(core);
        runs.memoize_tail(core, &factors[factors.len() - 1], 1);
        let mut sweep = plan.sweep_source(0, usize::MAX, false);
        partial_errors(&mut sweep, factors, core, &runs, threads).unwrap()
    }

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

    /// The model's squared error `Σ (X_α − x̂_α)²` with core entry `skip`
    /// dropped (`usize::MAX`: none), core entry by core entry.
    fn sse_without(x: &SparseTensor, factors: &[Matrix], core: &CoreTensor, skip: usize) -> f64 {
        let mut sse = 0.0;
        for (idx, xv) in x.iter() {
            let mut rec = 0.0;
            for e in (0..core.nnz()).filter(|&e| e != skip) {
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
    }

    /// Brute-force R(β): error difference with and without entry β.
    fn r_bruteforce(x: &SparseTensor, factors: &[Matrix], core: &CoreTensor, b: usize) -> f64 {
        sse_without(x, factors, core, usize::MAX) - sse_without(x, factors, core, b)
    }

    #[test]
    fn partial_errors_match_bruteforce() {
        let (x, factors, core) = setup();
        let r = fused(&x, &factors, &core, 2);
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
        let r = fused(&x, &factors, &core, 1);
        // Find the entry with max R; removing it should give the smallest
        // error among all single-entry removals.
        let best_by_r = (0..core.nnz())
            .max_by(|&a, &b| r[a].partial_cmp(&r[b]).unwrap())
            .unwrap();
        let best_sse = sse_without(&x, &factors, &core, best_by_r);
        for e in 0..core.nnz() {
            assert!(best_sse <= sse_without(&x, &factors, &core, e) + 1e-12);
        }
    }

    #[test]
    fn truncation_removes_expected_count() {
        let (x, factors, mut core) = setup();
        let r = fused(&x, &factors, &core, 1);
        let removed = truncate_noisy(&mut core, &r, 0.5);
        assert_eq!(removed, 2);
        assert_eq!(core.nnz(), 2);
    }

    #[test]
    fn truncation_keeps_at_least_one_entry() {
        let (x, factors, mut core) = setup();
        for _ in 0..10 {
            let r = fused(&x, &factors, &core, 1);
            truncate_noisy(&mut core, &r, 0.9);
        }
        assert!(core.nnz() >= 1);
    }

    #[test]
    fn truncation_small_core_noop() {
        let (x, factors, mut core) = setup();
        let r = fused(&x, &factors, &core, 1);
        // p*|G| < 1 → floor 0 → nothing removed.
        let removed = truncate_noisy(&mut core, &r, 0.1);
        assert_eq!(removed, 0);
        assert_eq!(core.nnz(), 4);
    }

    #[test]
    fn parallel_matches_serial() {
        let (x, factors, core) = setup();
        let serial = fused(&x, &factors, &core, 1);
        let par = fused(&x, &factors, &core, 4);
        for (a, b) in serial.iter().zip(&par) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// A random tensor of order `order` (every dimension 2..=4, about half
    /// the cells observed), factors in `[-1, 1)`, and a core of ranks
    /// 1..=3 that is dense (`shape` 0), a sample of its cells (1), or dense
    /// and then truncated the way Approx leaves it (2).
    fn random_case(
        order: usize,
        shape: usize,
        rng: &mut StdRng,
    ) -> (SparseTensor, Vec<Matrix>, CoreTensor) {
        let dims: Vec<usize> = (0..order).map(|_| rng.gen_range(2..5usize)).collect();
        let ranks: Vec<usize> = (0..order).map(|_| rng.gen_range(1..4usize)).collect();
        let cells: usize = dims.iter().product();
        let x = ptucker_datagen::uniform_sparse(&dims, (cells / 2).clamp(1, 48), rng);
        let factors = dims
            .iter()
            .zip(&ranks)
            .map(|(&i, &j)| {
                let data = (0..i * j).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
                Matrix::from_vec(i, j, data).unwrap()
            })
            .collect();
        let mut core = if shape == 1 {
            let mut kept = std::collections::BTreeSet::new();
            for _ in 0..rng.gen_range(1..24usize) {
                kept.insert(
                    ranks
                        .iter()
                        .map(|&j| rng.gen_range(0..j))
                        .collect::<Vec<_>>(),
                );
            }
            let entries = kept
                .into_iter()
                .map(|b| (b, rng.gen::<f64>() - 0.5))
                .collect();
            CoreTensor::from_entries(ranks, entries).unwrap()
        } else {
            CoreTensor::random_dense(ranks, rng).unwrap()
        };
        if shape == 2 {
            let kill = rng.gen_range(2..5usize);
            core.retain_by_id(|e| e % kill != 1 || e == 0);
        }
        (x, factors, core)
    }

    /// Past the prefix stack (order > 16) the walk forms each run's head
    /// product from scratch; the ranking is still Eq. 13.
    #[test]
    fn deep_orders_rank_by_eq13() {
        let order = crate::delta::MAX_PREFIX_ORDER + 1;
        let mut rng = StdRng::seed_from_u64(19);
        let dims = vec![2; order];
        let mut ranks = vec![1; order];
        (ranks[0], ranks[order - 2], ranks[order - 1]) = (2, 2, 2);
        let x = ptucker_datagen::uniform_sparse(&dims, 40, &mut rng);
        let factors: Vec<Matrix> = ranks
            .iter()
            .map(|&j| Matrix::from_vec(2, j, (0..2 * j).map(|_| rng.gen::<f64>()).collect()))
            .collect::<std::result::Result<_, _>>()
            .unwrap();
        let mut core = CoreTensor::random_dense(ranks, &mut rng).unwrap();
        core.retain_by_id(|e| e != 3);
        let got = fused(&x, &factors, &core, 2);
        let full = sse_without(&x, &factors, &core, usize::MAX);
        for (b, r) in got.iter().enumerate() {
            let want = r_bruteforce(&x, &factors, &core, b);
            assert!(
                (r - want).abs() <= 1e-10 * (full + want.abs()),
                "R({b}) = {r} vs {want}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Tentpole property: the fused R(β) is Eq. 13 — brute force (drop
        // β, recompute the squared error) and the per-entry reference pass
        // agree with it within 1e-10 of the model's squared error — at
        // orders 2..=5, on dense, sampled and truncated cores, with and
        // without the tail-dot table, at 1 and 3 threads; and it is one bit
        // pattern over a resident plan, a spilled plan read one slice per
        // window, and a plan built externally from a COO scratch file.
        #[test]
        fn fused_partial_errors_match_eq13(
            order in 2..=5usize,
            shape in 0..3usize,
            seed in 0..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (x, factors, core) = random_case(order, shape, &mut rng);
            let full = sse_without(&x, &factors, &core, usize::MAX);
            let brute: Vec<f64> = (0..core.nnz())
                .map(|b| full - sse_without(&x, &factors, &core, b))
                .collect();
            let budget = MemoryBudget::unlimited();
            let src = CooScratch::from_tensor(&x, &budget).unwrap();
            let plans = [
                ("resident", ModeStreams::build(&x).unwrap(), usize::MAX),
                ("spilled", ModeStreams::build_spilled(&x, &budget).unwrap(), 1),
                ("scratch", ModeStreams::build_external(&src, &budget).unwrap(), 1),
            ];
            let plain = RunPlan::new(&core);
            let mut memo = plain.clone();
            memo.memoize_tail(&core, &factors[order - 1], 2);
            for threads in [1, 3] {
                let reference =
                    partial_errors_reference(&FitInput::from(&x), &factors, &core, threads).unwrap();
                let mut first: Option<Vec<f64>> = None;
                for (runs_tag, runs) in [("memo", &memo), ("plain", &plain)] {
                    for (plan_tag, plan, cap) in &plans {
                        let mut sweep = plan.sweep_source(0, *cap, false);
                        let got = partial_errors(&mut sweep, &factors, &core, runs, threads).unwrap();
                        let tag = format!("{plan_tag} {runs_tag} T {threads}");
                        for b in 0..core.nnz() {
                            let tol = 1e-10 * (full + brute[b].abs());
                            prop_assert!((got[b] - brute[b]).abs() <= tol,
                                "{} R({}) = {} vs brute {}", tag, b, got[b], brute[b]);
                            prop_assert!((got[b] - reference[b]).abs() <= tol,
                                "{} R({}) = {} vs reference {}", tag, b, got[b], reference[b]);
                        }
                        match &first {
                            None => first = Some(got),
                            Some(want) => {
                                let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                                prop_assert_eq!(bits(&got), bits(want), "{}", tag);
                            }
                        }
                    }
                }
            }
        }
    }
}
