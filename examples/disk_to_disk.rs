//! Disk-to-disk fitting: the observed entries are **generated straight to
//! a scratch file** (never resident), the execution plan is built from
//! that file by counting placement, and every whole-tensor pass of the fit
//! streams bounded COO segments — so the tensor can be arbitrarily larger
//! than the memory budget. The walkthrough checks the two claims that
//! make this useful:
//!
//! 1. the disk-to-disk trajectory is **bitwise identical** to the
//!    resident fit of the same entries, and
//! 2. peak tracked resident memory stays **within the budget**, below the
//!    COO source itself.
//!
//! ```text
//! cargo run --release --example disk_to_disk
//! ```

use ptucker::{FitOptions, MemoryBudget, PTucker};
use ptucker_datagen::stream::{scratch_to_tensor, stream_zipf_to_scratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Generate to disk: Zipf-skewed entries stream through a bounded
    //    flush buffer into an unlinked scratch file. Resident state while
    //    generating is the per-mode CDF tables plus that buffer — the
    //    120k entries never exist in memory together.
    let dims = [300usize, 200, 100];
    let nnz = 120_000;
    let limit: usize = 2 << 20; // 2 MiB resident budget
    let budget = MemoryBudget::new(limit);
    let mut rng = StdRng::seed_from_u64(4242);
    let src =
        stream_zipf_to_scratch(&dims, nnz, 1.1, &mut rng, &budget).expect("streaming generation");
    let coo_bytes = src.bytes() as usize;
    println!(
        "source: dims {dims:?}, |Ω| = {}, {coo_bytes} B on disk — budget {limit} B",
        src.nnz()
    );
    assert!(
        coo_bytes > limit,
        "the walkthrough wants a source larger than the budget"
    );

    let opts = || {
        FitOptions::new(vec![4, 3, 2])
            .max_iters(6)
            .tol(0.0)
            .threads(2)
            .seed(9)
    };

    // 2. Fit disk-to-disk: `fit_scratch` builds the plan from the scratch
    //    file by counting placement and streams the residual pass; window refills ride
    //    the N-deep prefetch ring (default depth 2).
    let disk = PTucker::new(opts().budget(budget.clone()))
        .unwrap()
        .fit_scratch(&src)
        .expect("disk-to-disk fit");

    // 3. Reference: the same entries collected into memory (test-scale
    //    convenience — the point of fit_scratch is never having to) and
    //    fitted resident.
    let x = scratch_to_tensor(&src).expect("collect for the reference fit");
    let resident = PTucker::new(opts()).unwrap().fit(&x).expect("resident fit");

    println!("\niter   resident error     disk-to-disk error");
    for (a, b) in resident.stats.iterations.iter().zip(&disk.stats.iterations) {
        println!(
            "{:>4}   {:<18.12} {:<18.12}",
            a.iter, a.reconstruction_error, b.reconstruction_error
        );
        assert_eq!(
            a.reconstruction_error.to_bits(),
            b.reconstruction_error.to_bits(),
            "disk-to-disk trajectory must agree bitwise"
        );
    }
    assert_eq!(
        resident.stats.final_error.to_bits(),
        disk.stats.final_error.to_bits()
    );

    // 4. The memory story: peak tracked resident bytes vs the COO source.
    println!(
        "\ndisk-to-disk: peak resident {} B vs {} B budget vs {} B of COO — \
         {} B spilled, {} B read / {} B written to scratch",
        disk.stats.peak_intermediate_bytes,
        limit,
        coo_bytes,
        disk.stats.peak_spilled_bytes,
        disk.stats.io_read_bytes,
        disk.stats.io_write_bytes
    );
    assert!(
        disk.stats.peak_intermediate_bytes <= limit,
        "peak resident {} B must stay within the {limit} B budget",
        disk.stats.peak_intermediate_bytes
    );
    assert!(disk.stats.io_read_bytes > 0 && disk.stats.io_write_bytes > 0);
    println!("bitwise-identical to the resident fit, in bounded memory ✓");
}
