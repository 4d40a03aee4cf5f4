//! Figure 8: P-Tucker vs. P-Tucker-Cache — running time (a) and memory (b)
//! as the tensor order grows.
//!
//! Paper settings: `Iₙ = 10²`, `|Ω| = 10³`, `Jₙ = 3`, `N = 6 … 10`.
//! The paper's shape: Cache up to ~1.7× faster (gap widening with N, since
//! its δ update is `O(1)` vs. `O(N)` per (entry, core-entry) pair), while
//! its `|Ω|×|G|` table needs ~29.5× more memory at N = 10.
//!
//! **This implementation does not reproduce the time half of that figure**,
//! and the binary says so: its last line is the *measured* Cache/P-Tucker
//! ratio, not the paper's. The Direct kernel memoizes the run tail
//! contraction (`|G|/J_N` multiply-adds per (entry, mode) where Cache does
//! `|G|` loads and `|G|/J_N`–`|G|` divisions), so Cache — laned like Direct
//! since PR 17 — measures 0.79 / 0.82 / 0.76 / 0.56× P-Tucker's speed at
//! N = 6 / 7 / 8 / 9 on the reference VM (medians of three runs; 0.71 /
//! 0.62 / 0.54 / 0.41× before the lanes), at 30–391× the memory. The memory
//! half holds as the paper states it.
//!
//! Default sweeps N = 6…9 (the N = 10 cache table is ~470 MB); `--paper`
//! runs the full range.

use ptucker_bench::{print_header, HarnessArgs, Method, Outcome};
use ptucker_datagen::uniform_sparse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = HarnessArgs::parse(1.0);
    let dim = 100usize;
    let nnz = 1_000usize;
    let rank = 3usize;
    let max_order = if args.paper { 10 } else { 9 };
    println!(
        "workload: I = {dim}, |Ω| = {nnz}, J = {rank}, N = 6..={max_order}, {} iters",
        args.iters
    );

    print_header(
        "Fig 8: P-Tucker vs P-Tucker-Cache (time & peak intermediate memory)",
        "  N    time P-Tucker    time Cache    speedup    mem P-Tucker      mem Cache    ratio",
    );
    // (Cache speedup over P-Tucker, Cache/P-Tucker memory) per order that ran.
    let mut measured: Vec<(f64, f64)> = Vec::new();
    for order in 6..=max_order {
        let dims = vec![dim; order];
        let ranks = vec![rank; order];
        let mut rng = StdRng::seed_from_u64(args.seed + order as u64);
        let x = uniform_sparse(&dims, nnz, &mut rng);
        let base = ptucker_bench::run_method(Method::PTucker, &x, &ranks, &args);
        let cache = ptucker_bench::run_method(Method::PTuckerCache, &x, &ranks, &args);
        match (&base, &cache) {
            (Outcome::Ok(b), Outcome::Ok(c)) => {
                let tb = b.stats.avg_seconds_per_iter();
                let tc = c.stats.avg_seconds_per_iter();
                let mb = b.stats.peak_intermediate_bytes;
                let mc = c.stats.peak_intermediate_bytes;
                let speedup = tb / tc.max(1e-12);
                let mem_ratio = mc as f64 / mb.max(1) as f64;
                println!(
                    "{order:>3}    {tb:>12.4}s   {tc:>10.4}s    {speedup:>6.2}x    {mb:>11} B   {mc:>11} B   {mem_ratio:>5.1}x"
                );
                measured.push((speedup, mem_ratio));
            }
            _ => println!(
                "{order:>3}    {:>13}   {:>11}",
                base.time_cell().trim(),
                cache.time_cell().trim()
            ),
        }
    }
    println!("\n(paper: Cache up to 1.7x faster; P-Tucker ~29.5x leaner at N = 10)");
    println!("{}", verdict(&measured));
}

/// The figure's verdict from what this run measured — per order that
/// completed, Cache's speedup over P-Tucker (`> 1` = Cache faster) and the
/// Cache/P-Tucker memory ratio — instead of the paper's numbers.
fn verdict(measured: &[(f64, f64)]) -> String {
    if measured.is_empty() {
        return "measured: no order completed under both variants".into();
    }
    let range = |pick: fn(&(f64, f64)) -> f64| {
        let vals = measured.iter().map(pick);
        (
            vals.clone().fold(f64::INFINITY, f64::min),
            vals.fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let (slowest, fastest) = range(|m| m.0);
    let (leanest, heaviest) = range(|m| m.1);
    let finding = if fastest < 1.0 {
        "Cache is slower than P-Tucker at every order — the paper's time ordering does NOT hold \
         here (memoized Direct δ: |G|/J_N multiply-adds per entry vs Cache's |G| loads + divides)"
    } else if slowest > 1.0 {
        "Cache is faster than P-Tucker at every order, as in the paper"
    } else {
        "Cache wins at some orders and loses at others"
    };
    format!(
        "measured: Cache runs at {slowest:.2}x-{fastest:.2}x P-Tucker's speed on \
         {leanest:.1}x-{heaviest:.1}x its memory: {finding}"
    )
}
