//! Figure 5: distribution of the partial reconstruction error `R(β)` over
//! core entries, and the cumulative share of the total removable error
//! contributed by the noisiest entries.
//!
//! The paper's headline: on MovieLens with J = 10, ~20% of the core entries
//! generate ~80% of the total reconstruction error — the justification for
//! P-Tucker-Approx's truncation rule.

use ptucker::engine::RunPlan;
use ptucker::{approx, FitOptions, PTucker};
use ptucker_bench::{print_header, HarnessArgs};
use ptucker_datagen::realworld;
use ptucker_tensor::ModeStreams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = HarnessArgs::parse(0.002);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let sim = realworld::movielens(args.scale, &mut rng);
    let x = sim.tensor;
    let j = if args.paper { 10 } else { 5 };
    let ranks = vec![j, j, j.min(21), j.min(24)];
    println!(
        "workload: simulated MovieLens dims {:?}, |Ω| = {}, J = {j}",
        x.dims(),
        x.nnz()
    );

    // Fit a few iterations, then measure R(β) on the fitted model — the
    // same state Algorithm 4 sees at the start of a truncation step.
    let fit = PTucker::new(
        FitOptions::new(ranks)
            .max_iters(args.iters.max(3))
            .threads(args.threads)
            .seed(args.seed)
            .budget(args.budget.clone()),
    )
    .expect("options")
    .fit(&x)
    .expect("fit");
    let d = fit.decomposition;
    let plan = ModeStreams::build(&x).expect("plan of a resident tensor");
    let mut runs = RunPlan::new(&d.core);
    runs.memoize_tail(&d.core, &d.factors[d.factors.len() - 1], args.threads);
    let mut sweep = plan.sweep_source(0, usize::MAX, false);
    let r = approx::partial_errors(&mut sweep, &d.factors, &d.core, &runs, args.threads)
        .expect("R(β) over a resident plan");

    // Distribution of R(β): sorted descending in the IEEE total order, as
    // the truncation ranks it (a NaN from a degenerate model sorts by its
    // sign bit instead of panicking), then deciles.
    let mut sorted = r.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    print_header(
        "Fig 5 (left): distribution of R(β), descending",
        "percentile      R(beta)",
    );
    for pct in [0usize, 10, 20, 30, 40, 50, 60, 70, 80, 90, 99] {
        let idx = (pct * sorted.len().saturating_sub(1)) / 100;
        println!("{pct:>9}%   {:>12.6}", sorted[idx]);
    }

    // Cumulative share of the total *positive* (removable) error.
    let positive_total: f64 = sorted.iter().filter(|&&v| v > 0.0).sum();
    print_header(
        "Fig 5 (right): cumulative share of removable reconstruction error",
        "top-x% noisiest entries    share of removable error",
    );
    let mut acc = 0.0;
    let mut next_mark = 10usize;
    for (i, &v) in sorted.iter().enumerate() {
        acc += v.max(0.0);
        let pct_entries = 100 * (i + 1) / sorted.len();
        while pct_entries >= next_mark && next_mark <= 100 {
            println!(
                "{:>22}%    {:>6.1}%",
                next_mark,
                100.0 * acc / positive_total.max(f64::MIN_POSITIVE)
            );
            next_mark += 10;
        }
    }
    let top20: f64 = sorted
        .iter()
        .take(sorted.len() / 5)
        .map(|&v| v.max(0.0))
        .sum();
    println!(
        "\npaper's claim analogue: top 20% of entries carry {:.1}% of removable error",
        100.0 * top20 / positive_total.max(f64::MIN_POSITIVE)
    );
}
