//! End-to-end sharded-fit acceptance: a K-shard fit — real spawned
//! worker processes or in-process thread workers, both speaking the
//! same byte protocol — must be **bitwise identical** to the
//! single-process fit for every kernel variant and placement.

use proptest::prelude::*;
use ptucker::{FitOptions, FitResult, MemoryBudget, PTucker, PtuckerError, Variant};
use ptucker_shard::{nnz_balanced_ranges, ShardError, ShardedFit, WorkerSpawn};
use ptucker_tensor::SparseTensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// The dedicated worker binary, built alongside this test.
fn worker_bin() -> WorkerSpawn {
    WorkerSpawn::Binary(env!("CARGO_BIN_EXE_ptucker-shard-worker").into())
}

fn planted(seed: u64) -> SparseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    ptucker_datagen::planted_lowrank(&[14, 12, 10], &[2, 2, 2], 700, 0.01, &mut rng).tensor
}

fn base_opts() -> FitOptions {
    // threads=2 keeps `parallel_reduce` partials FP-safe to merge; the
    // seed pins every replica's factor/core init.
    FitOptions::new(vec![2, 2, 2])
        .max_iters(3)
        .tol(0.0)
        .threads(2)
        .seed(17)
}

fn assert_bitwise(a: &FitResult, b: &FitResult, tag: &str) {
    assert_eq!(
        a.stats.iterations.len(),
        b.stats.iterations.len(),
        "{tag}: iteration count"
    );
    for (ia, ib) in a.stats.iterations.iter().zip(&b.stats.iterations) {
        assert_eq!(
            ia.reconstruction_error.to_bits(),
            ib.reconstruction_error.to_bits(),
            "{tag}: error at iter {}",
            ia.iter
        );
    }
    assert_eq!(
        a.stats.final_error.to_bits(),
        b.stats.final_error.to_bits(),
        "{tag}: final error"
    );
    for (m, (fa, fb)) in a
        .decomposition
        .factors
        .iter()
        .zip(&b.decomposition.factors)
        .enumerate()
    {
        for (va, vb) in fa.as_slice().iter().zip(fb.as_slice()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{tag}: factor {m} drift");
        }
    }
    assert_eq!(
        a.decomposition.core.nnz(),
        b.decomposition.core.nnz(),
        "{tag}: core nnz"
    );
    for (va, vb) in a
        .decomposition
        .core
        .values()
        .iter()
        .zip(b.decomposition.core.values())
    {
        assert_eq!(va.to_bits(), vb.to_bits(), "{tag}: core drift");
    }
}

fn variants() -> [Variant; 3] {
    [
        Variant::Default,
        Variant::Cache,
        Variant::Approx {
            truncation_rate: 0.3,
        },
    ]
}

/// The headline acceptance: K ∈ {2, 4} spawned worker *processes*, all
/// three kernels, resident and spilled placement — bitwise identical to
/// `PTucker::fit`, with real comms volume reported. Cache is
/// resident-only: under the spilling budget the solo fit is O.O.M. and
/// the sharded fit fails too.
#[test]
fn process_sharded_fit_is_bitwise_identical() {
    let x = planted(71);
    for variant in variants() {
        for (placement, budget) in [
            ("resident", MemoryBudget::unlimited()),
            // A 1-byte budget forces the fully spilled, many-window path.
            ("spilled", MemoryBudget::new(1)),
        ] {
            let opts = base_opts().variant(variant).budget(budget);
            let solo = PTucker::new(opts.clone()).unwrap().fit(&x);
            if variant == Variant::Cache && placement == "spilled" {
                assert!(
                    matches!(solo, Err(ptucker::PtuckerError::OutOfMemory(_))),
                    "{solo:?}"
                );
                for k in [2usize, 4] {
                    let out = ShardedFit::new(k, worker_bin()).fit(&x, opts.clone());
                    assert!(out.is_err(), "Cache/spilled/K={k} must fail");
                }
                continue;
            }
            let solo = solo.unwrap();
            assert_eq!(
                solo.stats.bytes_sent, 0,
                "single-process fits move no bytes"
            );
            assert_eq!(solo.stats.bytes_received, 0);
            for k in [2usize, 4] {
                let tag = format!("{variant:?}/{placement}/K={k}");
                let out = ShardedFit::new(k, worker_bin())
                    .fit(&x, opts.clone())
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_bitwise(&solo.clone(), &out.fit, &tag);
                assert!(out.fit.stats.bytes_sent > 0, "{tag}: no bytes sent");
                assert!(out.fit.stats.bytes_received > 0, "{tag}: no bytes received");
                assert_eq!(out.worker_stats.len(), k, "{tag}: worker stats");
                let dims_total: u64 = x.dims().iter().map(|&d| d as u64).sum();
                let rows_total: u64 = out.worker_stats.iter().map(|s| s.rows_updated).sum();
                assert_eq!(
                    rows_total,
                    dims_total * out.fit.stats.iterations.len() as u64,
                    "{tag}: workers together must update every row each iteration"
                );
                let nnz_total: u64 = out.worker_stats.iter().map(|s| s.nnz_processed).sum();
                assert_eq!(
                    nnz_total,
                    (x.nnz() * x.order()) as u64 * out.fit.stats.iterations.len() as u64,
                    "{tag}: workers together must observe every entry per mode sweep"
                );
            }
        }
    }
}

/// A row with a single observed entry has a rank-1 normal matrix, so at
/// λ=0 its J=2 row solve is exactly singular. The failure starts on one
/// shard, but the `ok` all-reduce must surface the *same* error
/// everywhere — identical to what the single-process fit raises.
#[test]
fn solve_failure_propagates_identically() {
    // Mode-0 row 2 holds exactly one entry; every other row holds three.
    let x = SparseTensor::from_flat(
        vec![4, 3, 3],
        vec![
            0, 0, 0, 0, 1, 1, 0, 2, 2, 1, 0, 1, 1, 1, 2, 1, 2, 0, 2, 1, 1, 3, 0, 2, 3, 1, 0, 3, 2,
            1,
        ],
        vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
    )
    .unwrap();
    let opts = FitOptions::new(vec![2, 2, 2])
        .max_iters(2)
        .threads(1)
        .seed(5)
        .lambda(0.0);
    let solo_err = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap_err();
    assert!(
        matches!(solo_err, PtuckerError::Linalg(_)),
        "fixture must fail the row solve, got {solo_err:?}"
    );
    let sharded_err = ShardedFit::new(2, worker_bin())
        .fit(&x, opts)
        .expect_err("sharded fit must fail identically");
    match sharded_err {
        ShardError::Fit(e) => assert_eq!(format!("{e}"), format!("{solo_err}")),
        other => panic!("expected a fit error, got {other}"),
    }
}

/// Thread-transport workers speak the identical byte protocol; K=1 is
/// the degenerate shard plan (one worker owns everything).
#[test]
fn thread_sharded_fit_is_bitwise_identical() {
    let x = planted(72);
    let opts = base_opts().variant(Variant::Cache);
    let solo = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
    for k in [1usize, 3] {
        let out = ShardedFit::new(k, WorkerSpawn::Threads)
            .fit(&x, opts.clone())
            .unwrap();
        assert_bitwise(&solo, &out.fit, &format!("threads/K={k}"));
    }
}

/// The per-iteration error is each row's squared residual, merged across
/// shards and summed in row order, so it is one bit pattern at every worker
/// and thread count: sharded fits at workers {1, 2, 3} × threads {1, 2}
/// walk the solo fit's per-iteration errors and factors bitwise, whatever
/// thread count the solo fit ran at. (`final_error` is the exact pass,
/// whose blocks follow the thread count.)
#[test]
fn sharded_error_bits_are_worker_and_thread_invariant() {
    let x = planted(73);
    for variant in [Variant::Default, Variant::Cache] {
        let solo = PTucker::new(base_opts().variant(variant).threads(1))
            .unwrap()
            .fit(&x)
            .unwrap();
        for workers in [1usize, 2, 3] {
            for threads in [1usize, 2] {
                let tag = format!("{variant:?} K={workers} T={threads}");
                let out = ShardedFit::new(workers, WorkerSpawn::Threads)
                    .fit(&x, base_opts().variant(variant).threads(threads))
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                let (a, b) = (&solo.stats.iterations, &out.fit.stats.iterations);
                assert_eq!(a.len(), b.len(), "{tag}");
                for (ia, ib) in a.iter().zip(b) {
                    assert_eq!(
                        ia.reconstruction_error.to_bits(),
                        ib.reconstruction_error.to_bits(),
                        "{tag}: error at iter {}",
                        ia.iter
                    );
                }
                for (fa, fb) in solo
                    .decomposition
                    .factors
                    .iter()
                    .zip(&out.fit.decomposition.factors)
                {
                    for (va, vb) in fa.as_slice().iter().zip(fb.as_slice()) {
                        assert_eq!(va.to_bits(), vb.to_bits(), "{tag}: factors");
                    }
                }
            }
        }
    }
}

/// Turns proptest-chosen weights into a contiguous per-mode tiling: the
/// cut points are wherever the weighted prefix sums cross `1/k`-iles.
fn weighted_ranges(x: &SparseTensor, k: usize, weights: &[usize]) -> Vec<Vec<Range<usize>>> {
    let mut out = vec![Vec::with_capacity(x.order()); k];
    for m in 0..x.order() {
        let dim = x.dims()[m];
        let blocks =
            ptucker_sched::weighted_blocks(dim, k, |i| weights[(m + i) % weights.len()] + 1);
        for (w, ranges) in out.iter_mut().enumerate() {
            ranges.push(blocks.get(w).map_or(dim..dim, |&(lo, hi)| lo..hi));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Satellite: the sharded fit is partition-invariant — any worker
    // count and any (weighted, arbitrary-cut) contiguous row tiling
    // produces bitwise the single-process fit (or, for the resident-only
    // Cache variant under the spilling budget, fails as the solo fit does).
    #[test]
    fn sharded_fit_is_partition_invariant(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = ptucker_datagen::planted_lowrank(&[11, 9, 8], &[2, 2, 2], 350, 0.02, &mut rng).tensor;
        let k = 1 + (seed % 4) as usize;
        let weights: Vec<usize> = (0..7).map(|i| ((seed >> (i * 8)) & 0xff) as usize).collect();
        let variant = variants()[(seed % 3) as usize];
        let budget = if seed & 1 == 0 {
            MemoryBudget::unlimited()
        } else {
            MemoryBudget::new(1)
        };
        let opts = FitOptions::new(vec![2, 2, 2])
            .max_iters(2)
            .tol(0.0)
            .threads(2)
            .seed(seed ^ 0x5eed)
            .variant(variant)
            .budget(budget);
        let solo = PTucker::new(opts.clone()).unwrap().fit(&x);
        let sharded = ShardedFit::new(k, WorkerSpawn::Threads);
        for (kind, ranges) in [
            ("nnz-balanced", nnz_balanced_ranges(&x, k)),
            ("weighted", weighted_ranges(&x, k, &weights)),
        ] {
            let out = sharded.fit_with_ranges(&x, opts.clone(), ranges);
            match &solo {
                Ok(solo) => {
                    let out = out.unwrap_or_else(|e| panic!("{kind}: {e}"));
                    assert_bitwise(solo, &out.fit, &format!("{variant:?}/{kind}/K={k}"));
                }
                Err(e) => {
                    prop_assert!(variant == Variant::Cache && seed & 1 == 1, "{e}");
                    prop_assert!(matches!(e, ptucker::PtuckerError::OutOfMemory(_)), "{e}");
                    prop_assert!(out.is_err(), "{kind}: the sharded Cache fit must fail");
                }
            }
        }
    }
}
