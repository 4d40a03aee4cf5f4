//! Out-of-core fitting: the same tensor fitted twice with the Direct
//! kernel — once with room to spare, once under a budget far too small
//! for the execution plan (full spill, with window prefetch) — showing
//! that both land on the *identical* trajectory. Then the memory-hungry
//! Cache variant under the same small budget: its `|Ω|×|G|` `Pres` table
//! is resident-only, so it reports the paper's O.O.M. (Table III) instead
//! of spilling, under either budget policy.
//!
//! ```text
//! cargo run --release --example out_of_core
//! ```

use ptucker::{BudgetPolicy, FitOptions, MemoryBudget, PTucker, Variant};
use ptucker_datagen::planted_lowrank;
use ptucker_tensor::ModeStreams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let x = planted_lowrank(&[60, 50, 40], &[3, 3, 3], 12_000, 0.02, &mut rng).tensor;
    let plan_bytes = ModeStreams::bytes_for(&x);
    let table_bytes = x.nnz() * 27 * 8; // |Ω| × |G| doubles
    println!(
        "tensor: dims {:?}, |Ω| = {}; resident plan {} B, Pres table {} B",
        x.dims(),
        x.nnz(),
        plan_bytes,
        table_bytes
    );

    let opts = |budget: MemoryBudget| {
        FitOptions::new(vec![3, 3, 3])
            .max_iters(8)
            .tol(0.0)
            .threads(2)
            .seed(7)
            .budget(budget)
    };

    // 1. Unconstrained: everything resident.
    let roomy = PTucker::new(opts(MemoryBudget::unlimited()))
        .unwrap()
        .fit(&x)
        .expect("in-memory fit");

    // 2. A 64 KiB budget — far below the plan. Under the default
    //    BudgetPolicy::Spill the fit completes out of core instead of
    //    reporting the paper's O.O.M.
    let tiny = MemoryBudget::new(64 << 10);
    assert_eq!(tiny.policy(), BudgetPolicy::Spill);
    let spilled = PTucker::new(opts(tiny.clone()))
        .unwrap()
        .fit(&x)
        .expect("the windowed path must complete where the in-memory path could not");

    println!("\niter   in-memory error    out-of-core error");
    for (a, b) in roomy.stats.iterations.iter().zip(&spilled.stats.iterations) {
        println!(
            "{:>4}   {:<16.10} {:<16.10}",
            a.iter, a.reconstruction_error, b.reconstruction_error
        );
        assert_eq!(
            a.reconstruction_error.to_bits(),
            b.reconstruction_error.to_bits(),
            "spilled trajectory must agree bitwise"
        );
    }
    assert_eq!(
        roomy.stats.final_error.to_bits(),
        spilled.stats.final_error.to_bits(),
        "spilled final error must agree bitwise"
    );
    println!(
        "\nin-memory:   peak resident {} B, spilled 0 B",
        roomy.stats.peak_intermediate_bytes
    );
    println!(
        "out-of-core: peak resident {} B, spilled {} B to scratch files",
        spilled.stats.peak_intermediate_bytes, spilled.stats.peak_spilled_bytes
    );

    // 3. P-Tucker-Cache trades memory for speed: its table never spills,
    //    so the same budget is the paper's O.O.M. under the Spill policy…
    let cache = |budget: MemoryBudget| {
        PTucker::new(opts(budget).variant(Variant::Cache))
            .unwrap()
            .fit(&x)
            .unwrap_err()
    };
    println!("\nCache, spill policy at the same budget: {}", cache(tiny));

    // 4. …and under BudgetPolicy::Strict, the paper's regime for every
    //    variant.
    let strict = MemoryBudget::with_policy(64 << 10, BudgetPolicy::Strict);
    println!("Cache, strict policy at the same budget: {}", cache(strict));
}
