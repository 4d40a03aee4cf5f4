//! Figure 10: parallelization scalability — speed-up `Time₁/Time_T` and
//! memory vs. thread count — plus the Section IV-D dynamic-vs-static
//! scheduling ablation.
//!
//! Paper settings: `N = 3`, `I = 10⁶`, `|Ω| = 10⁷`, threads 1…20; expected
//! near-linear speed-up and near-linear (gentle) memory growth in `T`
//! (per-thread `O(J²)` buffers). The paper's scheduling ablation on
//! MovieLens (J = 10) showed dynamic ~1.5× faster than a *naive
//! equal-row-count* static split because slice sizes are Zipf-skewed.
//! Since the mode-major plan landed, the engine's `Schedule::Static` is
//! the **nnz-balanced** static partition (contiguous blocks of near-equal
//! `Σ|Ω⁽ⁿ⁾ᵢ|`), so this ablation now measures dynamic vs balanced-static:
//! a small gap here is the *success* criterion for the partitioner, not
//! the paper's imbalance demonstration (the naive split no longer exists
//! in the engine).
//!
//! NOTE: on a single-core machine the speed-up curve necessarily
//! degenerates to ~1×; the harness still reports the measured curve and the
//! per-thread memory accounting, which is hardware-independent.
//!
//! Every run of each sweep computes the same thing, and the harness asserts
//! it: row updates read only their own slices and the per-iteration error is
//! the row-order sum of mode `N−1`'s per-row residuals, so the per-iteration
//! errors and factors are one bit pattern at every thread count and under
//! both schedules.

use ptucker::{FitOptions, FitResult, PTucker, Schedule};
use ptucker_bench::{print_header, HarnessArgs};
use ptucker_datagen::{realworld, uniform_sparse};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The bits every run of a sweep must share: its per-iteration errors and
/// its factors.
fn trajectory_bits(fit: &FitResult) -> Vec<u64> {
    let errors = fit.stats.iterations.iter().map(|s| s.reconstruction_error);
    let factors = fit.decomposition.factors.iter().flat_map(|f| f.as_slice());
    errors.chain(factors.copied()).map(f64::to_bits).collect()
}

/// Panics unless `fit` walked the sweep's first run's trajectory bitwise.
fn assert_same_trajectory(first: &mut Option<Vec<u64>>, fit: &FitResult, run: &str) {
    let bits = trajectory_bits(fit);
    let want = first.get_or_insert_with(|| bits.clone());
    assert!(
        *want == bits,
        "{run}: per-iteration errors or factors differ from the sweep's first run"
    );
}

fn main() {
    let args = HarnessArgs::parse(1.0);
    let (dim, nnz) = if args.paper {
        (1_000_000usize, 10_000_000usize)
    } else {
        (10_000usize, 100_000usize)
    };
    let ranks = vec![10usize; 3];
    let mut rng = StdRng::seed_from_u64(args.seed);
    let x = uniform_sparse(&[dim; 3], nnz, &mut rng);
    println!(
        "workload: N = 3, I = {dim}, |Ω| = {nnz}, J = 10, {} iters",
        args.iters
    );

    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let max_t = if args.paper { 20 } else { hw.clamp(4, 8) };
    print_header(
        "Fig 10: speed-up and memory vs. threads",
        "  T    time/iter    speedup T1/TT    peak intermediates",
    );
    let mut t1 = None;
    let mut first = None;
    for t in 1..=max_t {
        let fit = PTucker::new(
            FitOptions::new(ranks.clone())
                .max_iters(args.iters)
                .tol(0.0)
                .threads(t)
                .seed(args.seed)
                .budget(args.budget.clone()),
        )
        .expect("options")
        .fit(&x)
        .expect("fit");
        assert_same_trajectory(&mut first, &fit, &format!("T = {t}"));
        let ti = fit.stats.avg_seconds_per_iter();
        let t1v = *t1.get_or_insert(ti);
        println!(
            "{t:>3}    {ti:>8.4}s    {:>12.2}x    {:>14} B",
            t1v / ti.max(1e-12),
            fit.stats.peak_intermediate_bytes
        );
    }
    println!("(hardware threads available here: {hw})");
    println!("every thread count walked one trajectory: per-iteration errors and factors bitwise");

    // --- Section IV-D: dynamic vs. naive static scheduling ------------
    let mut rng = StdRng::seed_from_u64(args.seed + 1);
    let sim = realworld::movielens(0.002 * args.scale.max(0.1), &mut rng);
    let skewed = sim.tensor;
    let ranks4 = vec![5, 5, 5, 5];
    let threads = hw.clamp(2, 8);
    print_header(
        "Sec IV-D: dynamic vs nnz-balanced static on skewed MovieLens slices",
        "schedule         time/iter",
    );
    let mut first = None;
    for (name, sched) in [
        ("dynamic      ", Schedule::dynamic()),
        ("balanced stat", Schedule::Static),
    ] {
        let fit = PTucker::new(
            FitOptions::new(ranks4.clone())
                .max_iters(args.iters)
                .tol(0.0)
                .threads(threads)
                .schedule(sched)
                .seed(args.seed)
                .budget(args.budget.clone()),
        )
        .expect("options")
        .fit(&skewed)
        .expect("fit");
        assert_same_trajectory(&mut first, &fit, name.trim());
        println!("{name}    {:>8.4}s", fit.stats.avg_seconds_per_iter());
    }
    println!("both schedules walked one trajectory: per-iteration errors and factors bitwise");
    println!(
        "(paper: dynamic ~1.5x faster than a naive equal-row-count static split on 20 \
         threads; the engine's static is now nnz-balanced, so near-parity with dynamic \
         is expected — the naive split's imbalance is what both policies fix)"
    );
}
